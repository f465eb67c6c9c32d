//! Named metrics, the run loop, and the plumbing shared by workloads.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::layers::{WorkCounts, KINDS};
use crate::probes::Probed;
use crate::stats::{self, Failure};

/// Repeats behind each probe's median.
pub const PROBE_REPEATS: usize = 5;

/// Most consecutive slices a latency percentile is taken over.
pub const LATENCY_SLICES: usize = 3;

/// Slices of the measured window whose median completion rate is
/// reported as a throughput.
pub const RATE_SLICES: usize = 6;

/// Probe results that are exact counts, not timings.
const EXACT_PROBES: [&str; 3] = ["shard.components", "snapshot.bytes", "journal.bytes"];

/// One named measurement with its unit and how many samples it rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it.
    pub samples: usize,
    /// Quartiles of the samples, for latencies.
    pub quartiles: Option<[f64; 3]>,
}

impl Metric {
    /// `<base>_p50` and `<base>_p90` of millisecond samples in completion
    /// order. Each is the median of that percentile over up to
    /// [`LATENCY_SLICES`] consecutive slices of at least 100 samples, so
    /// one burst of host contention moves one slice, not the value. The
    /// p90 is flagged in the report when fewer than 100 samples support
    /// it.
    pub fn latency(base: &str, ms: &[f64]) -> Vec<Metric> {
        let slices = (ms.len() / 100).clamp(1, LATENCY_SLICES);
        let size = ms.len().div_ceil(slices).max(1);
        [("p50", 50.0), ("p90", 90.0)]
            .into_iter()
            .map(|(tag, p)| {
                let per_slice: Vec<f64> = ms
                    .chunks(size)
                    .filter_map(|c| stats::percentile(c, p))
                    .collect();
                Metric {
                    name: format!("{base}_{tag}"),
                    value: stats::median(&per_slice).unwrap_or(f64::NAN),
                    unit: "ms",
                    samples: ms.len(),
                    quartiles: stats::quartiles(ms),
                }
            })
            .collect()
    }

    /// A single value.
    pub fn rate(name: &str, value: f64, unit: &'static str, samples: usize) -> Vec<Metric> {
        vec![Metric::new(name, value, unit, samples)]
    }

    /// A metric without a sample distribution.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            quartiles: None,
        }
    }
}

/// A traced run's per-layer metrics plus the exact work counts among
/// them (which must repeat exactly on every run of the same code).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every per-layer metric.
    pub layers: Vec<Metric>,
    /// The exact counts, by name.
    pub exact: BTreeMap<String, u64>,
}

impl Outcome {
    /// Adds one per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.layers.push(Metric::new(name, value, unit, samples));
    }

    /// Adds probe results, taking each unit from its name's suffix.
    pub fn layers(&mut self, probed: Probed, samples: usize) {
        for (name, value) in probed {
            let unit = unit_of(&name);
            if EXACT_PROBES.contains(&name.as_str()) {
                self.exact.insert(name.clone(), value as u64);
            }
            self.layer(&name, value, unit, samples);
        }
    }

    /// Adds the runtime attribution — host time per event kind per run,
    /// from `self_ns` summed over `runs` traced runs, and host ns per
    /// event — plus `counts`, the exact work of `counted_runs` runs.
    pub fn runtime(
        &mut self,
        self_ns: &[u64],
        runs: usize,
        counts: &WorkCounts,
        counted_runs: usize,
    ) {
        let per_run = runs.max(1) as f64;
        for (kind, ns) in KINDS.iter().zip(self_ns) {
            let ms = *ns as f64 / per_run / 1e6;
            self.layer(&format!("runtime.{kind}.self_ms"), ms, "ms", runs);
        }
        let events_per_run = counts.events.iter().sum::<u64>() as f64 / counted_runs.max(1) as f64;
        let ns_per_run = self_ns.iter().sum::<u64>() as f64 / per_run;
        self.layer(
            "runtime.ns_per_event",
            ns_per_run / events_per_run,
            "ns",
            runs,
        );
        self.exact_counts(counts);
    }

    /// Adds the simulated work counts (exact) and the receptions per
    /// transmission ratio.
    fn exact_counts(&mut self, counts: &WorkCounts) {
        for (name, n) in counts.named() {
            self.layer(&name, n as f64, "count", 1);
            self.exact.insert(name, n);
        }
        let per_tx = counts.received as f64 / counts.tx_started.max(1) as f64;
        self.layer("rx.received_per_tx", per_tx, "frac", 1);
    }
}

fn unit_of(name: &str) -> &'static str {
    for (suffix, unit) in [
        ("_ns", "ns"),
        ("_us", "us"),
        ("_ms", "ms"),
        ("bytes", "bytes"),
    ] {
        if name.ends_with(suffix) {
            return unit;
        }
    }
    if name.ends_with("_ratio") || name.ends_with("speedup") {
        "x"
    } else {
        "count"
    }
}

/// Calls `item(0)`, `item(1)`, … until `seconds` have passed and at
/// least `min_items` calls were made; returns the elapsed seconds.
pub fn run_for(seconds: f64, min_items: usize, mut item: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut i = 0;
    while i < min_items || start.elapsed().as_secs_f64() < seconds {
        item(i);
        i += 1;
    }
    start.elapsed().as_secs_f64()
}

/// Completions per second as the median over `parts` equal slices of a
/// `window`-second run, given each completion's offset from its start:
/// a stall or a burst on the shared host moves one slice, not the rate.
pub fn sliced_rate(done_at: &[f64], window: f64, parts: usize) -> f64 {
    let slice = window / parts as f64;
    let mut counts = vec![0.0; parts];
    for &t in done_at {
        let i = ((t / slice) as usize).min(parts - 1);
        counts[i] += 1.0;
    }
    stats::median(&counts).unwrap_or(0.0) / slice
}

/// Runs `op`, turning a panic into a counted failure.
pub fn guarded<T>(op: impl FnOnce() -> T) -> Result<T, (Failure, String)> {
    catch_unwind(AssertUnwindSafe(op)).map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        (Failure::Panic, message)
    })
}

/// A fresh per-process directory under the benchmark's own `out/`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the benchmark's out/ directory is writable");
    dir
}

/// Where the benchmark writes span logs and server state.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_reports_median_and_p90_with_sample_count() {
        let ms: Vec<f64> = (1..=100).map(f64::from).collect();
        let m = Metric::latency("result_ms", &ms);
        assert_eq!(m[0].name, "result_ms_p50");
        assert_eq!((m[0].value, m[1].value), (50.0, 90.0));
        assert_eq!(m[1].samples, 100);
    }

    #[test]
    fn latency_takes_the_median_over_slices() {
        // Three slices of 100; the middle one ran during a stall.
        let ms: Vec<f64> = (0..300)
            .map(|i| {
                if (100..200).contains(&i) {
                    50.0
                } else {
                    f64::from(i % 100 + 1)
                }
            })
            .collect();
        let m = Metric::latency("result_ms", &ms);
        assert_eq!((m[0].value, m[1].value), (50.0, 90.0));
        assert_eq!(m[0].samples, 300);
    }

    #[test]
    fn run_for_honours_the_minimum_item_count() {
        let mut seen = 0;
        run_for(0.0, 3, |_| seen += 1);
        assert_eq!(seen, 3);
    }

    #[test]
    fn sliced_rate_ignores_one_stalled_slice() {
        // 10 completions per second for 6 s, except none in second 3.
        let done: Vec<f64> = (0..60)
            .map(|i| f64::from(i) / 10.0)
            .filter(|t| !(3.0..4.0).contains(t))
            .collect();
        assert_eq!(sliced_rate(&done, 6.0, 6), 10.0);
        assert_eq!(sliced_rate(&[], 6.0, 3), 0.0);
    }

    #[test]
    fn panics_become_failures() {
        let r: Result<(), _> = guarded(|| panic!("boom"));
        assert_eq!(r.unwrap_err(), (Failure::Panic, "boom".to_string()));
        assert_eq!(guarded(|| 4).unwrap(), 4);
    }

    #[test]
    fn probe_units_follow_the_name() {
        assert_eq!(unit_of("phy.ber_ns"), "ns");
        assert_eq!(unit_of("shard.plan_ms"), "ms");
        assert_eq!(unit_of("journal.bytes"), "bytes");
        assert_eq!(unit_of("shard.speedup"), "x");
        assert_eq!(unit_of("shard.components"), "count");
    }
}
