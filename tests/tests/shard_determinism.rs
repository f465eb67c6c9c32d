//! Sharded-engine determinism and composition.
//!
//! The sharding contract (DESIGN.md §13) in executable form:
//!
//! 1. **Thread independence** — sharded results, and the merged
//!    external observer stream, depend only on the scenario, never on
//!    the worker-thread count.
//! 2. **Delegation identity** — a single-component plan is executed by
//!    the serial engine with the seed untouched: sharded `== run`,
//!    byte for byte.
//! 3. **Composition** — a multi-component run equals running every
//!    component's sub-scenario on the serial engine and scattering the
//!    results back through the plan's index maps.
//! 4. **Bounded runs** — event budgets split over components exhaust at
//!    the same per-shard event whatever the thread count.
//!
//! Properties 1–3 are also exercised over randomized scenarios with the
//! `check` harness (`partition_independence_randomized`), covering both
//! coupled (3 MHz) and partitionable (25 MHz, shadowing off) spacings.

use nomc_phy::Shadowing;
use nomc_rngcore::check::{forall, one_of, range, zip3, G};
use nomc_rngcore::{check, check_eq};
use nomc_sim::events::Event;
use nomc_sim::runtime::observer::{PowerSample, ThresholdSample, TxOutcomeInfo, TxStartInfo};
use nomc_sim::scenario::Propagation;
use nomc_sim::trace::TraceRecord;
use nomc_sim::{engine, BoundedRun, NetworkBehavior, RunSpec, Scenario, SimObserver, SimResult};
use nomc_topology::spectrum::ChannelPlan;
use nomc_topology::{paper, Deployment, LinkSpec, NetworkSpec, Point};
use nomc_units::{Dbm, Megahertz, SimDuration, SimTime};

/// Networks far apart in frequency (25 MHz ≫ the 9 MHz ACR support and
/// every capture model's sync band) and in space, with shadowing
/// disabled so the collision-floor bound is tight: every network is its
/// own interaction component.
fn partitionable_scenario(networks: usize, seed: u64) -> Scenario {
    let specs = (0..networks)
        .map(|i| {
            let freq = Megahertz::new(2410.0 + 25.0 * i as f64);
            let x = 60.0 * i as f64;
            let links = vec![
                LinkSpec::new(Point::new(x, 0.0), Point::new(x + 2.0, 0.0), Dbm::new(0.0)),
                LinkSpec::new(Point::new(x, 1.0), Point::new(x + 2.0, 1.0), Dbm::new(0.0)),
            ];
            NetworkSpec::new(freq, links)
        })
        .collect();
    let mut b = Scenario::builder(Deployment::new(specs));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(seed)
        .propagation(Propagation {
            shadowing: Shadowing::disabled(),
            ..Propagation::default()
        });
    b.build().expect("valid partitionable scenario")
}

/// The golden-trace shape: two networks 3 MHz apart — one component.
fn coupled_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 2);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(seed);
    b.build().expect("valid coupled scenario")
}

#[test]
fn partitionable_scenario_splits_into_expected_components() {
    let sc = partitionable_scenario(4, 7);
    let plan = engine::shard_plan(&sc);
    assert_eq!(plan.len(), 4, "each network is its own component");
    for (i, spec) in plan.iter().enumerate() {
        assert_eq!(spec.networks, vec![i]);
        assert_eq!(spec.links, vec![2 * i, 2 * i + 1]);
        assert_eq!(spec.nodes, (4 * i..4 * i + 4).collect::<Vec<_>>());
        assert_eq!(spec.scenario.deployment.networks.len(), 1);
    }
}

#[test]
fn coupled_scenario_is_one_component() {
    let sc = coupled_scenario(42);
    let plan = engine::shard_plan(&sc);
    assert_eq!(plan.len(), 1, "3 MHz apart is inside the ACR support");
    // Delegation keeps the scenario verbatim — seed included.
    assert_eq!(plan[0].scenario, sc);
}

/// Records every observer callback as a line of text, so two observer
/// streams can be compared byte for byte.
#[derive(Default)]
struct StreamLog(Vec<String>);

impl SimObserver for StreamLog {
    fn wants_trace(&self) -> bool {
        true
    }
    fn wants_thresholds(&self) -> bool {
        true
    }
    fn on_event(&mut self, now: SimTime, event: &Event) {
        self.0.push(format!("event {now:?} {event:?}"));
    }
    fn on_trace(&mut self, record: &TraceRecord) {
        self.0.push(format!("trace {record:?}"));
    }
    fn on_tx_start(&mut self, info: &TxStartInfo) {
        self.0.push(format!("tx_start {info:?}"));
    }
    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        self.0.push(format!("tx_outcome {info:?}"));
    }
    fn on_abandon(&mut self, link: usize, measured: bool) {
        self.0.push(format!("abandon {link} {measured}"));
    }
    fn on_threshold_change(&mut self, sample: &ThresholdSample) {
        self.0.push(format!("threshold {sample:?}"));
    }
    fn on_power_sample(&mut self, sample: &PowerSample) {
        self.0.push(format!("power {sample:?}"));
    }
    fn on_run_end(&mut self, result: &SimResult) {
        self.0.push(format!("run_end {} events", result.events));
    }
}

/// `sc` run to completion or `budget` through the sharded engine on
/// `threads` workers, streaming to `observers`.
fn execute_sharded(
    sc: &Scenario,
    threads: usize,
    budget: u64,
    observers: &mut [&mut dyn SimObserver],
) -> BoundedRun {
    let spec = RunSpec {
        shards: Some(threads),
        budget,
        pause_at: u64::MAX,
    };
    engine::execute(sc, &spec, observers)
        .into_done()
        .expect("a run without a pause target finishes")
}

/// `sc` run to completion through the sharded engine on `threads`
/// workers.
fn sharded(sc: &Scenario, threads: usize) -> SimResult {
    execute_sharded(sc, threads, u64::MAX, &mut []).result
}

#[test]
fn sharded_results_are_thread_count_independent() {
    let sc = partitionable_scenario(4, 11);
    let base = sharded(&sc, 1);
    let mut base_log = StreamLog::default();
    assert_eq!(
        base,
        execute_sharded(&sc, 1, u64::MAX, &mut [&mut base_log]).result
    );
    assert!(base_log.0.len() > 1, "stream must be non-trivial");
    for threads in [2, 4, 8] {
        assert_eq!(
            base,
            sharded(&sc, threads),
            "results must not depend on thread count (threads = {threads})"
        );
        // The merged external observer stream is thread-count
        // independent too, callback for callback.
        let mut log = StreamLog::default();
        execute_sharded(&sc, threads, u64::MAX, &mut [&mut log]);
        assert!(
            log.0 == base_log.0,
            "observer stream must not depend on thread count (threads = {threads})"
        );
    }
}

#[test]
fn single_component_delegates_to_serial_engine() {
    let sc = coupled_scenario(42);
    for threads in [1, 2, 8] {
        assert_eq!(engine::run(&sc), sharded(&sc, threads));
    }
}

#[test]
fn merged_results_compose_from_per_component_serial_runs() {
    let sc = partitionable_scenario(3, 5);
    let plan = engine::shard_plan(&sc);
    assert!(plan.len() >= 2);
    let merged = sharded(&sc, 2);
    let mut events = 0;
    for spec in &plan {
        // Each component's slice of the merged result is byte-identical
        // to a serial run of its standalone sub-scenario.
        let solo = engine::run(&spec.scenario);
        events += solo.events;
        for (local, &global) in spec.links.iter().enumerate() {
            let mut lm = solo.links[local].clone();
            lm.network = spec.networks[lm.network];
            assert_eq!(merged.links[global], lm);
            assert_eq!(merged.mac_stats[global], solo.mac_stats[local]);
            assert_eq!(merged.tx_powers[global], solo.tx_powers[local]);
            assert_eq!(
                merged.final_thresholds[global],
                solo.final_thresholds[local]
            );
        }
    }
    assert_eq!(merged.events, events, "merged event count is the sum");
}

#[test]
fn sharded_trace_merges_in_canonical_time_order() {
    let mut sc = partitionable_scenario(3, 9);
    sc.record_trace = true;
    sc.record_timeline = true;
    let merged = sharded(&sc, 2);
    assert!(!merged.trace.is_empty());
    assert!(!merged.timeline.is_empty());
    assert!(
        merged.trace.windows(2).all(|w| w[0].at <= w[1].at),
        "merged trace must be time-ordered"
    );
    assert!(
        merged.timeline.windows(2).all(|w| w[0].end <= w[1].end),
        "merged timeline must be time-ordered"
    );
    // And identical across thread counts, like everything else.
    assert_eq!(merged, sharded(&sc, 4));
}

#[test]
fn bounded_sharded_runs_exhaust_identically_across_thread_counts() {
    let sc = partitionable_scenario(4, 13);
    let natural = sharded(&sc, 2).events;
    // A budget well under the natural event count must exhaust — at the
    // same global totals whatever the thread count.
    let budget = natural / 3;
    let base = execute_sharded(&sc, 1, budget, &mut []);
    assert!(base.exhausted, "budget {budget} must exhaust");
    assert!(base.result.events <= budget);
    for threads in [2, 4, 8] {
        let run = execute_sharded(&sc, threads, budget, &mut []);
        assert!(run.exhausted);
        assert_eq!(base.result, run.result);
    }
}

#[test]
fn bounded_sharded_run_with_ample_budget_matches_unbounded() {
    let sc = partitionable_scenario(3, 17);
    let unbounded = sharded(&sc, 2);
    let bounded = execute_sharded(&sc, 2, u64::MAX, &mut []);
    assert!(!bounded.exhausted);
    assert_eq!(unbounded, bounded.result);
}

/// Randomized partition-independence (the `check` harness): whatever
/// the spacing regime — fully coupled, fully partitioned, or mixed —
/// merged shard results equal the serial per-component runs and are
/// thread-count independent.
#[test]
fn partition_independence_randomized() {
    fn arb_scenario() -> G<Scenario> {
        zip3(
            range(1usize..4),
            one_of(vec![
                // Coupled: inside the 9 MHz ACR support (shadowed too).
                range(1.0f64..5.0).map(|cfd| (cfd, 4.0, false)),
                // Partitionable: far channels, far apart, no shadowing.
                range(20.0f64..40.0).map(|cfd| (cfd, 80.0, true)),
            ]),
            range(0u64..1000),
        )
        .map(|(nets, (cfd, spacing, bare), seed)| {
            let specs = (0..nets)
                .map(|i| {
                    let freq = Megahertz::new(2410.0 + cfd * i as f64);
                    let x = spacing * i as f64;
                    let links = vec![LinkSpec::new(
                        Point::new(x, 0.0),
                        Point::new(x + 2.0, 0.0),
                        Dbm::new(0.0),
                    )];
                    NetworkSpec::new(freq, links)
                })
                .collect();
            let mut b = Scenario::builder(Deployment::new(specs));
            b.behavior_all(NetworkBehavior::dcn_default())
                .duration(SimDuration::from_millis(600))
                .warmup(SimDuration::from_millis(150))
                .seed(seed);
            if bare {
                b.propagation(Propagation {
                    shadowing: Shadowing::disabled(),
                    ..Propagation::default()
                });
            }
            b.build().expect("valid randomized scenario")
        })
    }

    let g = arb_scenario();
    forall("partition_independence_randomized", 10, &g, |sc| {
        let plan = engine::shard_plan(sc);
        let merged = sharded(sc, 1);
        // Thread independence.
        check_eq!(merged, sharded(sc, 3));
        if plan.len() == 1 {
            // Delegation identity.
            check_eq!(merged, engine::run(sc));
        } else {
            // Per-component composition.
            for spec in &plan {
                let solo = engine::run(&spec.scenario);
                for (local, &global) in spec.links.iter().enumerate() {
                    let mut lm = solo.links[local].clone();
                    lm.network = spec.networks[lm.network];
                    check_eq!(merged.links[global], lm);
                }
            }
            check!(plan.len() >= 2);
        }
        Ok(())
    });
}
