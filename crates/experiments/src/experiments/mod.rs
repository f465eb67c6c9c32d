//! One module per paper table/figure, plus ablations.
//!
//! Figure modules expose `run(cfg: &ExpConfig) -> Vec<Report>`; modules
//! that regenerate several related figures from the same runs (e.g.
//! Figs. 6-7, Figs. 16-18) return several reports. [`REGISTRY`] maps
//! every report id to the function that produces it.

pub mod ablations;
pub mod cases;
pub mod common;
pub mod extensions;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig08;
pub mod fig09;
pub mod fig12;
pub mod fig14;
pub mod fig16;
pub mod fig19;
pub mod fig20;
pub mod fig28;
pub mod fig30;
pub mod table1;

use crate::report::Report;
use crate::ExpConfig;

/// One registry entry: the function that produces a group of reports
/// and the ids of those reports, in the order it returns them.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Report ids `run` yields, in its output order.
    pub ids: &'static [&'static str],
    /// Produces the reports (one simulation campaign for all of them).
    pub run: fn(&ExpConfig) -> Vec<Report>,
}

impl Experiment {
    const fn new(ids: &'static [&'static str], run: fn(&ExpConfig) -> Vec<Report>) -> Self {
        Experiment { ids, run }
    }
}

/// Every experiment in paper order — what `all_experiments` runs and
/// what `--only` selects from.
#[rustfmt::skip]
pub static REGISTRY: &[Experiment] = &[
    Experiment::new(&["fig01"], fig01::run),
    Experiment::new(&["fig02"], fig02::run),
    Experiment::new(&["fig03"], fig03::run),
    Experiment::new(&["fig04"], fig04::run),
    Experiment::new(&["fig06", "fig07"], fig06::run),
    Experiment::new(&["fig08"], fig08::run),
    Experiment::new(&["fig09", "fig10"], fig09::run),
    Experiment::new(&["fig12"], fig12::run),
    Experiment::new(&["fig14", "fig15"], fig14::run),
    Experiment::new(&["fig16", "fig17", "fig18"], fig16::run),
    Experiment::new(&["fig19"], fig19::run),
    Experiment::new(&["fig20", "fig21"], fig20::run),
    Experiment::new(&["table1"], table1::run),
    Experiment::new(&["fig25", "fig26", "fig27"], cases::run),
    Experiment::new(&["fig28", "fig29"], fig28::run),
    Experiment::new(&["fig30"], fig30::run),
    Experiment::new(&["ext_energy"], |c| vec![extensions::energy_comparison(c)]),
    Experiment::new(&["ext_planner"], |c| vec![extensions::planner_validation(c)]),
    Experiment::new(&["ext_adaptive_recovery"], |c| vec![extensions::adaptive_recovery(c)]),
    Experiment::new(&["ext_assignment"], |c| vec![extensions::assignment_study(c)]),
    Experiment::new(&["ext_convergecast"], |c| vec![extensions::convergecast_study(c)]),
    Experiment::new(&["ext_fault_recovery"], |c| vec![extensions::fault_recovery(c)]),
    Experiment::new(&["ablation_shadowing"], |c| vec![ablations::shadowing(c)]),
    Experiment::new(&["ablation_capture"], |c| vec![ablations::capture(c)]),
    Experiment::new(&["ablation_tu"], |c| vec![ablations::t_update(c)]),
    Experiment::new(&["ablation_margin"], |c| vec![ablations::margin(c)]),
    Experiment::new(&["ablation_failure_policy"], |c| vec![ablations::failure_policy(c)]),
    Experiment::new(&["ablation_clamp"], |c| vec![ablations::clamp(c)]),
    Experiment::new(&["ablation_oracle"], |c| vec![ablations::oracle(c)]),
    Experiment::new(&["ablation_ack"], |c| vec![ablations::acknowledged(c)]),
];

/// Every registered report id, in paper order.
pub fn ids() -> Vec<&'static str> {
    REGISTRY
        .iter()
        .flat_map(|e| e.ids.iter().copied())
        .collect()
}

/// Runs every registry entry (`only == None`) or just the entries that
/// yield an id in `only`, each at most once, and returns the requested
/// reports in paper order.
///
/// # Errors
///
/// The first id in `only` that no entry yields, with the list of known
/// ids; the check runs before any experiment does.
pub fn run(cfg: &ExpConfig, only: Option<&[String]>) -> Result<Vec<Report>, String> {
    let known = ids();
    if let Some(id) = only
        .unwrap_or_default()
        .iter()
        .find(|id| !known.contains(&id.as_str()))
    {
        return Err(format!(
            "unknown experiment id `{id}`; known ids: {}",
            known.join(", ")
        ));
    }
    let wanted = |id: &str| only.is_none_or(|only| only.iter().any(|o| o == id));
    let mut out = Vec::new();
    for entry in REGISTRY
        .iter()
        .filter(|e| e.ids.iter().any(|id| wanted(id)))
    {
        let reports = (entry.run)(cfg);
        let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids, entry.ids,
            "registry ids drifted from what the entry yields"
        );
        out.extend(reports.into_iter().filter(|r| wanted(&r.id)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids = ids();
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "a report id is registered twice");
    }

    #[test]
    fn only_selects_the_requested_ids() {
        // fig12 is analytic (no simulation), so this stays cheap.
        let only = ["fig12".to_string()];
        let reports = run(&ExpConfig::quick(), Some(&only)).unwrap();
        let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["fig12"]);
    }
}
