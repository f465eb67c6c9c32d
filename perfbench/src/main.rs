//! End-to-end benchmark of nomc: the serial engine on the paper's DCN
//! deployment (`paper_grid`), the sharded engine on independent
//! clusters (`partitioned_floor`), and the results server under a mix
//! of fresh jobs and cache hits (`serve_mixed`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics untraced;
//! with `--trace 1` it measures the per-layer breakdown instead. Either
//! way every output is checked, a human-readable report is printed, and
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 0 only when every check passed.

mod layers;
mod meta;
mod probes;
mod report;
mod scenarios;
mod serveload;
mod simload;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use nomc_json::{Json, ToJson};

use layers::SpanLog;
use report::{Metric, Outcome};
use serveload::ServeWorkload;
use simload::{SimKind, SimWorkload};
use stats::{Failure, Tally};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_grid", "partitioned_floor", "serve_mixed"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// End-to-end metrics (untraced run) with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("result_ms_p50", "ms"),
    ("result_ms_p90", "ms"),
    ("requests_per_s", "1/s"),
    ("sim_s_per_s", "s/s"),
];

/// Reference digests and exact work counts at [`scenarios::DEFAULT_SEED`].
const GOLDEN: &str = include_str!("../golden.json");

const USAGE: &str = "usage: perfbench --workload <paper_grid|partitioned_floor|serve_mixed> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        if flags.insert(name.to_string(), value).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A set-up workload.
enum Loaded {
    Sim(SimWorkload),
    Serve(ServeWorkload),
}

impl Loaded {
    fn setup(workload: &str, seed: u64, threads: usize, rep: usize) -> Result<Loaded, String> {
        Ok(match workload {
            "paper_grid" => Loaded::Sim(SimWorkload::setup(SimKind::PaperGrid, seed, threads)),
            "partitioned_floor" => {
                Loaded::Sim(SimWorkload::setup(SimKind::PartitionedFloor, seed, threads))
            }
            _ => Loaded::Serve(ServeWorkload::setup(seed, rep)?),
        })
    }

    fn digests(&self) -> Vec<u64> {
        match self {
            Loaded::Sim(w) => w.digests(),
            Loaded::Serve(w) => w.digests(),
        }
    }

    fn close(self) {
        if let Loaded::Serve(w) = self {
            w.shutdown();
        }
    }
}

/// Runs one benchmark invocation; `Ok(correct)`.
fn run(args: &Args) -> Result<bool, String> {
    let epoch = Instant::now();
    let meta = meta::collect();
    let mut spans = SpanLog::new(epoch);
    let mut tally = Tally::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut loaded = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = loaded.take() {
            Loaded::close(previous);
        }
        let start = Instant::now();
        loaded = Some(Loaded::setup(&args.workload, args.seed, meta.nproc, rep)?);
        setup_s.push(start.elapsed().as_secs_f64());
        spans.record("setup", 0, None, start, Instant::now());
    }
    let loaded = loaded.expect("set-up ran at least once");
    let golden = golden(&args.workload)?;
    if args.seed == scenarios::DEFAULT_SEED {
        let digests: Vec<String> = loaded
            .digests()
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect();
        tally.record(if digests == golden.digests {
            Ok(())
        } else {
            Err((
                Failure::Mismatch,
                format!("reference digests {digests:?} differ from golden.json"),
            ))
        });
    }

    let seconds = args.seconds as f64;
    let mut extras = Vec::new();
    let metrics = if args.trace {
        let outcome = match &loaded {
            Loaded::Sim(w) => w.trace(seconds, &mut tally, &mut spans),
            Loaded::Serve(w) => w.trace(seconds, &mut tally, &mut spans),
        };
        if args.seed == scenarios::DEFAULT_SEED {
            tally.record(check_counts(&outcome, &golden.counts));
        }
        per_layer(outcome)?
    } else {
        let mut m = match &loaded {
            Loaded::Sim(w) => w.measure(seconds, &mut tally),
            Loaded::Serve(w) => {
                let (e2e, cached) = w.measure(seconds, &mut tally);
                extras = cached;
                e2e
            }
        };
        m.push(Metric::new(
            "setup_s",
            stats::median(&setup_s).unwrap_or(f64::NAN),
            "s",
            setup_s.len(),
        ));
        m.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
            1,
        ));
        order(m, END_TO_END.iter().map(|&(n, _)| n))?
    };
    loaded.close();

    let trace_path = report::out_dir().join(format!(
        "spans-{}-{}-{}.jsonl",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    ));
    let written =
        std::fs::create_dir_all(report::out_dir()).and_then(|()| spans.write_jsonl(&trace_path));

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "meta {}",
        meta.to_json(&args.workload, args.seed, args.seconds, args.trace)
    );
    match written {
        Ok(()) => println!("spans {} written to {}", spans.len(), trace_path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
    for m in metrics.iter().chain(&extras) {
        let note = if m.name.ends_with("_p90") && !stats::supports_percentile(m.samples, 90) {
            " (fewer than 100 samples: p90 not supported)"
        } else {
            ""
        };
        let spread = m.quartiles.map_or(String::new(), |[q1, q2, q3]| {
            format!(" quartiles={q1:.3}/{q2:.3}/{q3:.3}")
        });
        println!(
            "  {:<40} {:>16.6} {:<6} n={}{spread}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "attempted={} failed={} failed_frac={} ({})",
        tally.attempted,
        tally.failed(),
        tally.failed_frac(),
        tally.breakdown()
    );
    for note in &tally.notes {
        println!("  failure: {note}");
    }

    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed() == 0 && tally.attempted > 0 && finite;
    let result = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", tally.attempted.to_json()),
        ("failed", tally.failed().to_json()),
        (
            "metrics",
            Json::object(metrics.iter().map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    Json::object([
                        ("value", value.to_json()),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{result}");
    Ok(correct)
}

/// Puts `metrics` in `names` order; a missing or unlisted metric is a
/// bug in the benchmark.
fn order<'a>(
    metrics: Vec<Metric>,
    names: impl Iterator<Item = &'a str>,
) -> Result<Vec<Metric>, String> {
    let mut by_name: BTreeMap<String, Metric> =
        metrics.into_iter().map(|m| (m.name.clone(), m)).collect();
    let ordered = names
        .map(|n| {
            by_name
                .remove(n)
                .ok_or_else(|| format!("metric {n} was not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    match by_name.keys().next() {
        Some(extra) => Err(format!("metric {extra} is not listed")),
        None => Ok(ordered),
    }
}

/// Per-layer metrics in [`PER_LAYER`] order. Layers a workload never
/// touches (the server on the simulator workloads) read 0.
fn per_layer(outcome: Outcome) -> Result<Vec<Metric>, String> {
    let mut metrics = outcome.layers;
    for (name, unit) in per_layer_names() {
        if !metrics.iter().any(|m| m.name == name) {
            metrics.push(Metric::new(&name, 0.0, unit, 0));
        }
    }
    let names = per_layer_names();
    order(metrics, names.iter().map(|(n, _)| n.as_str()))
}

/// Every per-layer metric a traced run reports, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for kind in layers::KINDS {
        out.push((format!("runtime.{kind}.count"), "count"));
        out.push((format!("runtime.{kind}.self_ms"), "ms"));
    }
    let fixed: &[(&str, &'static str)] = &[
        ("runtime.ns_per_event", "ns"),
        ("trace.overhead_frac", "frac"),
        ("mac.tx_started", "count"),
        ("mac.tx_forced", "count"),
        ("mac.tx_retry", "count"),
        ("mac.abandoned", "count"),
        ("adjustor.threshold_changes", "count"),
        ("sense.power_samples", "count"),
        ("rx.received", "count"),
        ("rx.crc_failed", "count"),
        ("rx.sync_missed", "count"),
        ("rx.receiver_busy", "count"),
        ("rx.collided", "count"),
        ("rx.received_per_tx", "frac"),
        ("medium.sensed_total_ns", "ns"),
        ("medium.interference_segments_ns", "ns"),
        ("medium.sample_segment_errors_ns", "ns"),
        ("medium.sync_success_probability_ns", "ns"),
        ("phy.ber_ns", "ns"),
        ("phy.frame_success_ns", "ns"),
        ("phy.acr_leakage_ns", "ns"),
        ("phy.acr_lut_ns", "ns"),
        ("phy.ber_lut_ns", "ns"),
        ("events.queue_op_ns", "ns"),
        ("events.heap_op_ns", "ns"),
        ("shard.components", "count"),
        ("shard.plan_ms", "ms"),
        ("shard.serial_sum_ms", "ms"),
        ("shard.run_1t_ms", "ms"),
        ("shard.run_nt_ms", "ms"),
        ("shard.overhead_ratio", "x"),
        ("shard.speedup", "x"),
        ("shard.trace_merge_ms", "ms"),
        ("snapshot.bytes", "bytes"),
        ("snapshot.encode_ms", "ms"),
        ("snapshot.decode_ms", "ms"),
        ("checkpoint.save_ms", "ms"),
        ("checkpoint.load_ms", "ms"),
        ("journal.persist_ms", "ms"),
        ("journal.bytes", "bytes"),
        ("sweep.member_hash_us", "us"),
        ("serve.connect_ms", "ms"),
        ("serve.ack_ms", "ms"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.job_run_ms", "ms"),
        ("serve.member_ms", "ms"),
        ("serve.report_fetch_ms", "ms"),
        ("serve.cached_ms_p50", "ms"),
        ("serve.cached_ms_p90", "ms"),
        ("serve.cached_hits", "count"),
        ("serve.shed_429", "count"),
        ("serve.unavailable_503", "count"),
        ("http.parse_request_ns", "ns"),
        ("json.spec_decode_us", "us"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// A workload's committed references.
struct Golden {
    digests: Vec<String>,
    counts: BTreeMap<String, u64>,
}

fn golden(workload: &str) -> Result<Golden, String> {
    let all = Json::parse(GOLDEN).map_err(|e| format!("golden.json: {e}"))?;
    let entry = &all[workload];
    let digests = entry["digests"]
        .as_array()
        .ok_or_else(|| format!("golden.json: no digests for {workload}"))?
        .iter()
        .filter_map(|d| d.as_str().map(str::to_string))
        .collect();
    let counts = entry["counts"]
        .as_object()
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.to_string(), n)))
                .collect()
        })
        .unwrap_or_default();
    Ok(Golden { digests, counts })
}

/// The traced run's exact work counts must equal the committed ones.
fn check_counts(
    outcome: &Outcome,
    golden: &BTreeMap<String, u64>,
) -> Result<(), (Failure, String)> {
    if &outcome.exact == golden {
        return Ok(());
    }
    let differing: Vec<String> = outcome
        .exact
        .iter()
        .filter(|(k, v)| golden.get(*k) != Some(v))
        .map(|(k, v)| format!("{k}={v} (golden {:?})", golden.get(k)))
        .collect();
    Err((
        Failure::Mismatch,
        format!(
            "work counts differ from golden.json: {}",
            differing.join(", ")
        ),
    ))
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(strings(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        assert_eq!(
            args,
            Ok(Args {
                workload: "serve_mixed".into(),
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "paper_grid",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "paper_grid",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "paper_grid", "--seed", "1", "--seconds", "1"],
            &[
                "--workload",
                "paper_grid",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--x",
                "1",
            ],
        ] {
            assert!(parse_args(strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let text = std::fs::read_to_string(meta::repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn golden_has_every_workload() {
        for w in WORKLOADS {
            let g = golden(w).expect("golden entry");
            assert!(!g.digests.is_empty(), "{w}");
            assert!(!g.counts.is_empty(), "{w}");
        }
    }
}

/// A minimal-size pass over every workload, traced and untraced, whose
/// reference digests and exact work counts must match `golden.json`.
/// `UPDATE_GOLDEN=1` rewrites the file from this pass instead.
#[cfg(test)]
mod smoke {
    use super::*;

    #[test]
    fn every_workload_runs_clean_and_matches_golden() {
        let mut entries = Vec::new();
        for workload in WORKLOADS {
            let loaded =
                Loaded::setup(workload, scenarios::DEFAULT_SEED, meta::nproc(), 0).expect("set-up");
            let mut tally = Tally::default();
            let mut spans = SpanLog::new(Instant::now());
            let (e2e, outcome) = match &loaded {
                Loaded::Sim(w) => (
                    w.measure(0.0, &mut tally),
                    w.trace(0.0, &mut tally, &mut spans),
                ),
                Loaded::Serve(w) => (
                    w.measure(0.0, &mut tally).0,
                    w.trace(0.0, &mut tally, &mut spans),
                ),
            };
            assert_eq!(tally.failed(), 0, "{workload}: {:?}", tally.notes);
            assert!(tally.attempted > 0);
            assert_eq!(e2e.len(), END_TO_END.len() - 2, "{workload}");
            let digests: Vec<Json> = loaded
                .digests()
                .iter()
                .map(|d| Json::Str(format!("{d:016x}")))
                .collect();
            let counts = Json::object(outcome.exact.iter().map(|(k, v)| (k.clone(), v.to_json())));
            per_layer(outcome).expect("every per-layer metric is measured or zero-filled");
            loaded.close();
            entries.push((
                workload,
                Json::object([("digests", Json::array(digests)), ("counts", counts)]),
            ));
        }
        let mut fields = vec![("seed".to_string(), scenarios::DEFAULT_SEED.to_json())];
        fields.extend(entries.into_iter().map(|(w, j)| (w.to_string(), j)));
        let fresh = Json::object(fields).dump_pretty() + "\n";
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json"), &fresh)
                .expect("golden.json writable");
        } else {
            assert_eq!(
                fresh, GOLDEN,
                "golden.json is stale; rerun with UPDATE_GOLDEN=1 after an intended change"
            );
        }
    }
}
