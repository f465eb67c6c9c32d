//! Simulation-runtime kernels: the two workloads that dominate real
//! sweeps.
//!
//! * `power_sense_heavy` — six DCN networks on a 3 MHz grid; during the
//!   1 s initializing phase every sender samples in-channel power every
//!   1 ms (the paper's T_I rule), so the run is dominated by
//!   `Medium::sensed_total` queries.
//! * `saturated_2link` — one network, two saturated links: the plain
//!   CSMA/CA contention kernel (CCA + decode path).
//! * `fault_heavy` — the `power_sense_heavy` workload under a dense
//!   fault plan (staggered crash/reboot cycles, pulsed jammers, RSSI
//!   drifts, stuck-CCA windows), pinning the overhead of the fault
//!   layer itself; the fault-free kernels above double as the
//!   no-regression guard for runs with an empty plan.
//! * `sharded_power_sense_heavy` / `sharded_serial_baseline` — six
//!   *independent* networks (25 MHz apart, 60 m apart, shadowing off)
//!   through the sharded engine on 4 worker threads vs 1; on a
//!   multi-core machine the ratio is the shard-parallelism speedup, and
//!   the 1-thread run pins the merge/relay overhead.
//! * `sharded_saturated` — the deliberately-coupled counterpart: the
//!   `power_sense_heavy` six-network 3 MHz grid through the sharded engine,
//!   which collapses to a single component, so the bench pins the
//!   partition-planning + delegation overhead on coupled workloads.
//! * `snapshot_roundtrip` — one mid-run engine checkpoint priced end to
//!   end: serialize a paused `power_sense_heavy` run to its JSON wire
//!   format and restore it back.
//! * `checkpoint_overhead` — the same workload run the way a
//!   checkpointed sweep member runs it, through
//!   `sweep::checkpoint::run_legs`: one engine run that encodes its live
//!   state every 4 000 events and saves it atomically (tmp write +
//!   fsync + rename) through the sweep checkpoint store, without
//!   stopping. Compare against `power_sense_heavy` for the supervision
//!   premium. Reloading and decoding a checkpoint is crash recovery,
//!   priced by `snapshot_roundtrip`. With checkpointing off the engine
//!   never touches this code, so the plain kernels above double as the
//!   zero-regression guard.
//!
//! `cargo bench -p nomc-bench --bench sim` writes `BENCH_sim.json` with
//! wall-clock per run and events/sec, the perf-trajectory record ci.sh
//! smoke-checks.

use nomc_bench::harness::Criterion;
use nomc_bench::{criterion_group, criterion_main, run_shrunk, shrink};
use nomc_phy::Shadowing;
use nomc_sim::scenario::Propagation;
use nomc_sim::{
    engine, CrashFault, DriftFault, FaultPlan, JammerFault, NetworkBehavior, RunSpec, Scenario,
    StuckCcaFault,
};
use nomc_topology::spectrum::ChannelPlan;
use nomc_topology::{paper, Deployment, LinkSpec, NetworkSpec, Point};
use nomc_units::{Db, Dbm, Megahertz, SimDuration, SimTime};
use std::hint::black_box;

/// Six networks on the paper's 15 MHz band at 3 MHz spacing, all DCN.
fn power_sense_heavy_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2450.0), Megahertz::new(3.0), 6);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default()).seed(seed);
    b.build().expect("valid bench scenario")
}

/// One network, two saturated links, fixed ZigBee threshold.
fn saturated_2link_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.seed(seed);
    b.build().expect("valid bench scenario")
}

/// `power_sense_heavy` plus a dense fault plan: every fault type fires
/// inside the shrunken 1.5 s bench window (senders sit at even global
/// indices — 24 nodes across the six two-link networks).
fn fault_heavy_scenario(seed: u64) -> Scenario {
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let mut sc = power_sense_heavy_scenario(seed);
    sc.faults = FaultPlan {
        crashes: vec![
            CrashFault {
                node: 0,
                at: at(600),
                down_for: SimDuration::from_millis(200),
            },
            CrashFault {
                node: 8,
                at: at(900),
                down_for: SimDuration::from_millis(200),
            },
        ],
        jammers: vec![
            JammerFault {
                frequency: Megahertz::new(2450.0),
                power: Dbm::new(-70.0),
                at: at(700),
                duration: SimDuration::from_millis(300),
            },
            JammerFault {
                frequency: Megahertz::new(2459.0),
                power: Dbm::new(-72.0),
                at: at(1000),
                duration: SimDuration::from_millis(200),
            },
        ],
        drifts: vec![
            DriftFault {
                node: 4,
                at: at(500),
                ramp: SimDuration::from_millis(300),
                peak: Db::new(2.0),
            },
            DriftFault {
                node: 12,
                at: at(800),
                ramp: SimDuration::ZERO,
                peak: Db::new(-3.0),
            },
        ],
        stuck_cca: vec![
            StuckCcaFault {
                node: 16,
                at: at(650),
                duration: SimDuration::from_millis(250),
            },
            StuckCcaFault {
                node: 20,
                at: at(1100),
                duration: SimDuration::from_millis(150),
            },
        ],
    };
    sc
}

/// Six fully-independent DCN networks: 25 MHz channel spacing (past the
/// 9 MHz ACR saturation), 60 m apart, shadowing disabled — the planner
/// splits them into six shards, so worker threads can run them
/// concurrently on a multi-core machine.
fn sharded_independent_scenario(seed: u64) -> Scenario {
    let specs = (0..6)
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
        .seed(seed)
        .propagation(Propagation {
            shadowing: Shadowing::disabled(),
            ..Propagation::default()
        });
    b.build().expect("valid bench scenario")
}

/// One checkpoint-supervised run of `sc`, exactly as a sweep member
/// with `--checkpoint-every cadence` runs it: a checkpoint saved every
/// `cadence` events through the sweep checkpoint store, and the file
/// discarded once the run concludes.
fn run_checkpointed(sc: &Scenario, dir: &std::path::Path, cadence: u64) -> nomc_sim::SimResult {
    use nomc_experiments::runner::RunOutcome;
    use nomc_experiments::sweep::checkpoint;
    const KEY: u64 = 0xbe7c_0de5;
    let (outcome, notices) =
        checkpoint::run_legs(sc, &RunSpec::default(), cadence, dir, KEY, 0, &mut []);
    assert!(notices.is_empty(), "bench checkpoints save: {notices:?}");
    checkpoint::discard(dir, KEY);
    match outcome {
        RunOutcome::Ok(result) => result,
        other => panic!("the bench run finishes: {other:?}"),
    }
}

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    for (name, sc) in [
        ("power_sense_heavy", power_sense_heavy_scenario(1)),
        ("saturated_2link", saturated_2link_scenario(1)),
        ("fault_heavy", fault_heavy_scenario(1)),
    ] {
        let events = engine::run(&shrink(sc.clone())).events;
        g.throughput(events);
        g.bench_function(name, |b| b.iter(|| black_box(run_shrunk(sc.clone()))));
    }
    // Sharded-engine kernels: the independent workload at 4 worker
    // threads vs 1 (the ratio is the shard speedup on a multi-core
    // machine; at 1 thread it pins the relay/merge overhead), and the
    // coupled workload, which delegates — pinning plan() + delegation.
    let independent = sharded_independent_scenario(1);
    let coupled = power_sense_heavy_scenario(1);
    for (name, sc, threads) in [
        ("sharded_power_sense_heavy", &independent, 4),
        ("sharded_serial_baseline", &independent, 1),
        ("sharded_saturated", &coupled, 1),
    ] {
        let shrunk = shrink(sc.clone());
        let spec = RunSpec {
            shards: Some(threads),
            ..RunSpec::default()
        };
        let run = || engine::execute(&shrunk, &spec, &mut []).into_done();
        g.throughput(run().expect("no pause target").result.events);
        g.bench_function(name, |b| b.iter(|| black_box(run())));
    }
    // Snapshot/checkpoint kernels (DESIGN.md §14): the serialization
    // round-trip alone, then a fully supervised run.
    let shrunk = shrink(power_sense_heavy_scenario(1));
    let spec = RunSpec {
        pause_at: 10_000,
        ..RunSpec::default()
    };
    let paused = match engine::execute(&shrunk, &spec, &mut []) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("the shrunken bench run has well over 10k events"),
    };
    let wire_bytes = engine::snapshot(&paused).len() as u64;
    g.throughput(wire_bytes);
    g.bench_function("snapshot_roundtrip", |b| {
        b.iter(|| {
            let text = engine::snapshot(&paused);
            black_box(engine::restore(&text).expect("snapshot text round-trips"))
        })
    });
    let dir = std::env::temp_dir().join("nomc-bench-checkpoints");
    std::fs::create_dir_all(&dir).expect("bench checkpoint dir creatable");
    g.throughput(engine::run(&shrunk).events);
    g.bench_function("checkpoint_overhead", |b| {
        b.iter(|| black_box(run_checkpointed(&shrunk, &dir, 4_000)))
    });
    g.finish();
}

criterion_group!(sim, bench_sim);
criterion_main!(sim);
