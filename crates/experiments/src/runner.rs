//! Multi-seed, multi-point execution utilities.
//!
//! Every sweep point (a scenario at one parameter value and one seed) is
//! an independent deterministic simulation, so the harness parallelizes
//! across points while each simulation itself stays single-threaded and
//! reproducible. All batch entry points share one parallel-execution
//! path: the work-stealing [`nomc_sim::pool`], whose
//! slot-ordered results are bit-identical for any thread count.
//!
//! Member robustness: `run_isolated` runs one member behind
//! `catch_unwind` and a deterministic event budget, so one panicking or
//! runaway scenario is reported as its own [`RunOutcome`] instead of
//! taking the whole sweep down. The budget counts simulation events —
//! never wall-clock time — so a truncated member is exactly as
//! reproducible as a completed one.

use crate::ExpConfig;
use nomc_sim::{engine, pool, BoundedRun, RunSpec, Scenario, SimObserver, SimResult};

/// Mean and (population) standard deviation of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl Stat {
    /// Computes mean/std of `values`.
    ///
    /// Returns the zero stat for an empty slice.
    pub fn of(values: &[f64]) -> Stat {
        if values.is_empty() {
            return Stat::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        Stat {
            mean,
            std: var.sqrt(),
        }
    }
}

/// Runs `make_scenario(seed)` for every seed of `cfg`, in parallel, and
/// returns the results in seed order.
///
/// The closure builds the scenario (including any seed-dependent
/// topology); duration/warmup from `cfg` are applied on top.
pub fn run_seeds<F>(cfg: &ExpConfig, make_scenario: F) -> Vec<SimResult>
where
    F: Fn(u64) -> Scenario + Sync,
{
    let scenarios: Vec<Scenario> = cfg
        .seeds
        .iter()
        .map(|&s| {
            let mut sc = make_scenario(s);
            sc.duration = cfg.duration;
            sc.warmup = cfg.warmup;
            sc.seed = s;
            sc
        })
        .collect();
    run_parallel(&scenarios)
}

/// Runs a batch of scenarios in parallel on the work-stealing
/// pool ([`nomc_sim::pool`]), preserving order.
///
/// Results are slot-ordered, so they are bit-identical for any thread
/// count; only wall-clock completion order varies.
pub fn run_parallel(scenarios: &[Scenario]) -> Vec<SimResult> {
    pool::run_indexed(scenarios.len(), pool::default_threads(), |i| {
        engine::run(&scenarios[i])
    })
}

/// How one isolated member (a sweep or server attempt) ended.
#[derive(Debug, PartialEq)]
pub enum RunOutcome {
    /// The simulation drained naturally within the event budget.
    Ok(SimResult),
    /// The simulation panicked; the payload is the panic message. The
    /// panic was confined to this member — the rest of the batch ran.
    Failed(String),
    /// The event budget expired before the run drained; the member was
    /// cut off deterministically (no wall clock involved).
    TimedOut {
        /// Events handled before the budget cut in.
        events: u64,
    },
}

impl RunOutcome {
    /// The completed result, when the member finished normally.
    pub fn result(&self) -> Option<&SimResult> {
        match self {
            RunOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// A run that exhausted its event budget timed out.
impl From<BoundedRun> for RunOutcome {
    fn from(done: BoundedRun) -> Self {
        if done.exhausted {
            RunOutcome::TimedOut {
                events: done.result.events,
            }
        } else {
            RunOutcome::Ok(done.result)
        }
    }
}

/// One member: budgeted, with the panic boundary right around the
/// engine call. `AssertUnwindSafe` is sound here because nothing
/// crosses the boundary on the panic path — the scenario is borrowed
/// immutably, the engine's state dies with the unwind, and observers
/// are write-only sinks whose partial output is discarded with the
/// failed attempt.
///
/// `spec` sets the budget and the engine ([`engine::RunSpec`]); it
/// must not set a pause target — a member runs to its end. `observers`
/// stream the attempt's progress (batch paths pass `&mut []`; the
/// results server feeds its per-job event channel through here).
///
/// Also the attempt primitive of [`crate::sweep`]'s retry loop.
pub(crate) fn run_isolated(
    sc: &Scenario,
    spec: &RunSpec,
    observers: &mut [&mut dyn SimObserver],
) -> RunOutcome {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine::execute(sc, spec, observers)
            .into_done()
            .expect("an isolated member has no pause target")
    }));
    match run {
        Ok(done) => done.into(),
        Err(payload) => RunOutcome::Failed(panic_message(payload.as_ref())),
    }
}

/// Best-effort extraction of a panic payload's message (the standard
/// `panic!`/`expect` payloads are `&str` or `String`).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_topology::{paper, spectrum::ChannelPlan};
    use nomc_units::{Dbm, Megahertz};

    fn scenario(seed: u64) -> Scenario {
        let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
        let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
        b.seed(seed);
        b.build().expect("builder-validated test scenario")
    }

    #[test]
    fn stat_of_values() {
        let s = Stat::of(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(Stat::of(&[]), Stat::default());
    }

    #[test]
    fn run_seeds_is_deterministic_and_ordered() {
        let cfg = ExpConfig {
            duration: nomc_units::SimDuration::from_secs(2),
            warmup: nomc_units::SimDuration::from_secs(1),
            seeds: vec![1, 2, 3],
        };
        let a = run_seeds(&cfg, scenario);
        let b = run_seeds(&cfg, scenario);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Different seeds really produce different runs.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn panicking_member_is_failed_while_batch_completes() {
        let mut bad = scenario(2);
        // Corrupt the invariant the builder guarantees (one behavior per
        // network): engine construction panics on the missing entry.
        bad.behaviors.pop();
        let batch = [scenario(1), bad, scenario(3)];
        // Quiet the default panic printer for the intentional panic; the
        // hook is process-global, so restore it right after.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out: Vec<RunOutcome> = batch
            .iter()
            .map(|sc| run_isolated(sc, &RunSpec::default(), &mut []))
            .collect();
        std::panic::set_hook(prev);
        assert!(matches!(out[0], RunOutcome::Ok(_)), "{:?}", out[0]);
        assert!(matches!(out[1], RunOutcome::Failed(_)), "{:?}", out[1]);
        assert!(matches!(out[2], RunOutcome::Ok(_)), "{:?}", out[2]);
        // The survivors are the same results an unbounded run produces.
        assert_eq!(out[0].result(), Some(&engine::run(&batch[0])));
    }

    #[test]
    fn event_budget_times_out_deterministically() {
        let sc = scenario(7);
        let full = engine::run(&sc);
        assert!(full.events > 200, "budget test needs a non-trivial run");
        let budget = |budget| RunSpec {
            budget,
            ..RunSpec::default()
        };
        let out = run_isolated(&sc, &budget(200), &mut []);
        assert_eq!(out, RunOutcome::TimedOut { events: 200 });
        // A budget past the natural event count changes nothing.
        let unbounded = run_isolated(&sc, &budget(full.events + 1), &mut []);
        assert_eq!(unbounded.result(), Some(&full));
    }
}
