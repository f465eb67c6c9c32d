//! Determinism regression: the Fig. 4 CPRR-vs-CFD experiment (CPRR under
//! a deliberate collision schedule, the paper's core feasibility result)
//! must produce byte-identical metrics JSON when run twice with the same
//! seeds — across the multi-threaded runner, the simulator, the RNG and
//! the JSON serializer. Any nondeterminism (iteration-order dependence,
//! uninitialized state, float formatting drift) shows up here as a
//! byte-level diff.

use nomc_experiments::experiments::{fig03, fig04};
use nomc_experiments::{runner, ExpConfig};
use nomc_json::{Json, ToJson};
use nomc_units::SimDuration;

fn quick_cfg() -> ExpConfig {
    ExpConfig {
        duration: SimDuration::from_secs(2),
        warmup: SimDuration::from_millis(500),
        seeds: vec![7, 8],
    }
}

/// One full CPRR-vs-CFD sweep rendered as metrics JSON.
fn metrics_json() -> String {
    let cfg = quick_cfg();
    let points: Vec<Json> = [1.0, 2.0, 3.0]
        .iter()
        .map(|&cfd| {
            let (normal, attacker) = fig04::cprr_at(&cfg, cfd);
            Json::object([
                ("cfd_mhz", cfd.to_json()),
                ("normal_cprr", normal.to_json()),
                ("attacker_cprr", attacker.to_json()),
            ])
        })
        .collect();
    Json::object([
        ("experiment", "fig04".to_json()),
        ("points", Json::Arr(points)),
    ])
    .dump_pretty()
}

#[test]
fn fig04_metrics_json_is_byte_identical_across_runs() {
    let first = metrics_json();
    let second = metrics_json();
    assert_eq!(first, second, "Fig. 4 metrics JSON differs between runs");
    // The metrics are real numbers, not a trivially-empty report.
    let parsed: Json = first.parse().expect("valid JSON");
    let points = parsed["points"].as_array().expect("points array");
    assert_eq!(points.len(), 3);
    for p in points {
        assert!(p["normal_cprr"].as_f64().expect("number").is_finite());
    }
}

#[test]
fn fig04_report_renders_identically_across_runs() {
    // The rendered Report (the artifact `all_experiments` writes) must
    // also serialize byte-identically, including its formatted cells.
    let a = fig04::run(&quick_cfg());
    let b = fig04::run(&quick_cfg());
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.to_json_string(), rb.to_json_string());
    }
}

#[test]
fn fault_recovery_report_renders_identically_across_runs() {
    // The fault schedule is part of the scenario, so the injected
    // crash + jammer sweep must be exactly as seed-stable as the
    // fault-free experiments: two full ext_fault_recovery sweeps
    // render byte-identical reports (recovery times included).
    use nomc_experiments::experiments::extensions;
    let cfg = ExpConfig::quick();
    let a = extensions::fault_recovery(&cfg);
    let b = extensions::fault_recovery(&cfg);
    assert_eq!(a.to_json_string(), b.to_json_string());
    // The quick study must also recover at every jammer duty: a row
    // reading `unrecovered (k/n)` means some seed never got back to
    // 90 % of its pre-fault goodput.
    for row in &a.rows {
        assert!(
            row.iter().all(|cell| !cell.starts_with("unrecovered")),
            "no recovery at jammer duty {}: {row:?}",
            row[0]
        );
    }
}

#[test]
fn parallel_runner_preserves_seed_order_determinism() {
    // The scoped-thread runner must return results in seed order with
    // identical contents no matter how the OS schedules the workers.
    let cfg = quick_cfg();
    let a = runner::run_seeds(&cfg, |seed| fig03::scenario(2.0, seed));
    let b = runner::run_seeds(&cfg, |seed| fig03::scenario(2.0, seed));
    assert_eq!(a, b);
}
