//! The two simulator workloads: `paper_grid` (serial `engine::run`, one
//! scenario at a time) and `partitioned_floor` (`engine::run_sharded` on
//! every CPU, result only).

use std::time::Instant;

use nomc_sim::{engine, Scenario, SimResult};

use crate::layers::{LayerObserver, SpanLog, WorkCounts};
use crate::probes;
use crate::report::{guarded, run_for, sliced_rate, Metric, Outcome, PROBE_REPEATS, RATE_SLICES};
use crate::scenarios::{self, SIM_SPAN};
use crate::stats::{Failure, Tally};

/// Distinct scenarios (seeds) per run; measured runs cycle through them
/// so every result is checked against a reference computed in set-up.
pub const POOL: usize = 5;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Six DCN networks on the 15 MHz band, serial engine.
    PaperGrid,
    /// Independent DCN clusters, sharded engine on every CPU.
    PartitionedFloor,
}

/// A set-up workload: its scenarios and their reference digests.
pub struct SimWorkload {
    kind: SimKind,
    threads: usize,
    pool: Vec<Scenario>,
    refs: Vec<u64>,
}

impl SimWorkload {
    /// Generates the scenarios and their reference results. The
    /// reference of a `partitioned_floor` item is its 1-thread sharded
    /// run, so every measured `threads`-thread run also checks thread
    /// count independence.
    pub fn setup(kind: SimKind, seed: u64, threads: usize) -> SimWorkload {
        let pool: Vec<Scenario> = (0..POOL as u64)
            .map(|i| match kind {
                SimKind::PaperGrid => scenarios::paper_grid(seed, i),
                SimKind::PartitionedFloor => scenarios::partitioned_floor(seed, i),
            })
            .collect();
        let refs = pool
            .iter()
            .map(|sc| {
                let reference = match kind {
                    SimKind::PaperGrid => engine::run(sc),
                    SimKind::PartitionedFloor => engine::run_sharded(sc, 1),
                };
                scenarios::result_digest(&reference)
            })
            .collect();
        SimWorkload {
            kind,
            threads,
            pool,
            refs,
        }
    }

    /// The reference digests, in pool order.
    pub fn digests(&self) -> Vec<u64> {
        self.refs.clone()
    }

    /// The user path: one run as `nomc run` does it, minus process start.
    fn run(&self, sc: &Scenario) -> SimResult {
        match self.kind {
            SimKind::PaperGrid => engine::run(sc),
            SimKind::PartitionedFloor => engine::run_sharded(sc, self.threads),
        }
    }

    fn check(&self, item: usize, result: &SimResult) -> Result<(), (Failure, String)> {
        let want = self.refs[item % POOL];
        let got = scenarios::result_digest(result);
        if got == want {
            Ok(())
        } else {
            Err((
                Failure::Mismatch,
                format!("item {item}: digest {got:016x}, reference {want:016x}"),
            ))
        }
    }

    /// The untraced run: end-to-end metrics over `seconds` of
    /// back-to-back runs.
    pub fn measure(&self, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
        let mut run_ms = Vec::new();
        let mut done_at = Vec::new();
        let begin = Instant::now();
        let window = run_for(seconds, POOL, |item| {
            let sc = &self.pool[item % POOL];
            let start = Instant::now();
            let outcome = guarded(|| self.run(sc));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            tally.record(outcome.and_then(|r| self.check(item, &r)).map(|()| {
                run_ms.push(ms);
                done_at.push(begin.elapsed().as_secs_f64());
            }));
        });
        let runs_per_s = sliced_rate(&done_at, window, RATE_SLICES);
        [
            Metric::latency("result_ms", &run_ms),
            Metric::rate("requests_per_s", runs_per_s, "1/s", run_ms.len()),
            Metric::rate(
                "sim_s_per_s",
                runs_per_s * SIM_SPAN.as_secs_f64(),
                "s/s",
                run_ms.len(),
            ),
        ]
        .concat()
    }

    /// Runs the traced shape once without observers: what the layer
    /// attribution and its overhead are measured against. For the floor
    /// that is each shard's sub-scenario on the serial engine, which is
    /// what a shard worker executes.
    fn traced_shape(&self, sc: &Scenario, obs: Option<&mut LayerObserver>) {
        let plan;
        let parts: Vec<&Scenario> = match self.kind {
            SimKind::PaperGrid => vec![sc],
            SimKind::PartitionedFloor => {
                plan = engine::shard_plan(sc);
                plan.iter().map(|s| &s.scenario).collect()
            }
        };
        match obs {
            Some(obs) => {
                for part in parts {
                    engine::run_with(part, &mut [&mut *obs]);
                }
            }
            None => {
                for part in parts {
                    engine::run(part);
                }
            }
        }
    }

    /// The traced run: `seconds / 2` untraced then `seconds / 2` traced
    /// over the same execution shape, exact work counts over one pass of
    /// the pool, and the kernel, shard and durability probes.
    pub fn trace(&self, seconds: f64, tally: &mut Tally, spans: &mut SpanLog) -> Outcome {
        let mut out = Outcome::default();

        // Exact counts, and the traced result checked against the
        // untraced reference, over one pass of the pool.
        let mut pass = Vec::with_capacity(POOL);
        let start = Instant::now();
        for (item, sc) in self.pool.iter().enumerate() {
            let mut obs = LayerObserver::default();
            let outcome = guarded(|| match self.kind {
                SimKind::PaperGrid => engine::run_with(sc, &mut [&mut obs]),
                SimKind::PartitionedFloor => {
                    engine::run_sharded_with(sc, &mut [&mut obs], self.threads)
                }
            });
            tally.record(outcome.and_then(|r| self.check(item, &r)));
            pass.push(obs.counts);
        }
        spans.record("counted_pass", 0, None, start, Instant::now());

        let start = Instant::now();
        let mut plain_runs = 0usize;
        let plain_window = run_for(seconds / 2.0, 1, |item| {
            self.traced_shape(&self.pool[item % POOL], None);
            plain_runs += 1;
        });
        spans.record("untraced", 0, None, start, Instant::now());

        let start = Instant::now();
        let mut obs_total = LayerObserver::default();
        let mut traced_runs = 0usize;
        let traced_window = run_for(seconds / 2.0, POOL, |item| {
            let mut obs = LayerObserver::default();
            let run_start = Instant::now();
            let outcome = guarded(|| self.traced_shape(&self.pool[item % POOL], Some(&mut obs)));
            let request = spans.next_id();
            spans.record("run", request, None, run_start, Instant::now());
            let same = outcome.and_then(|()| {
                // The shape repeats the pool: every pass must count the
                // same work (for the floor, the shards' counts must add
                // up to the merged run's).
                if obs.counts == pass[item % POOL] {
                    Ok(())
                } else {
                    Err((
                        Failure::Mismatch,
                        format!("item {item}: work counts differ between passes"),
                    ))
                }
            });
            tally.record(same);
            obs_total.add_time(&obs);
            traced_runs += 1;
        });
        spans.record("traced", 0, None, start, Instant::now());

        let mut counts = WorkCounts::default();
        for c in &pass {
            counts.add(c);
        }
        out.runtime(&obs_total.self_ns, traced_runs, &counts, POOL);
        let plain_rate = plain_runs as f64 / plain_window;
        let traced_rate = traced_runs as f64 / traced_window;
        out.layer(
            "trace.overhead_frac",
            1.0 - traced_rate / plain_rate,
            "frac",
            traced_runs,
        );

        let start = Instant::now();
        let sc = &self.pool[0];
        out.layers(probes::kernels(sc), PROBE_REPEATS);
        out.layers(probes::shard(sc, self.threads), PROBE_REPEATS);
        let pause_after = self.pool_events(sc) / 2;
        let sharded = self.kind == SimKind::PartitionedFloor;
        let dir = crate::report::scratch_dir("probe");
        out.layers(
            probes::durability(sc, sharded, pause_after, &self.pool, &dir),
            PROBE_REPEATS,
        );
        let _ = std::fs::remove_dir_all(&dir);
        let spec = nomc_serve::JobSpec {
            scenario: sc.clone(),
            seeds: vec![sc.seed],
            budget: 1_000_000_000,
            retries: 1,
            shards: sharded.then_some(self.threads),
            checkpoint_every: None,
        };
        out.layers(probes::request_path(&spec), PROBE_REPEATS);
        spans.record("probes", 0, None, start, Instant::now());
        out
    }

    fn pool_events(&self, sc: &Scenario) -> u64 {
        engine::run(sc).events
    }
}
