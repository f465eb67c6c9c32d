//! The `nomc` subcommands.

use nomc_phy::planning::CprrModel;
use nomc_phy::{LogDistance, PathLoss};
use nomc_sim::{engine, FaultPlan, JsonlTracer, NetworkBehavior, RunSpec, Scenario, SimObserver};
use nomc_topology::paper;
use nomc_topology::spectrum::{ChannelPlan, FitPolicy};
use nomc_units::{Db, Dbm, Megahertz};

/// Help text.
pub const USAGE: &str = "\
nomc — non-orthogonal multi-channel 802.15.4 simulator (DCN, ICDCS 2010)

USAGE:
  nomc generate <template> [out.json]    write an example scenario file
                                         templates: line | dense | fig5 | attacker
  nomc run <scenario.json> [--json out] [--trace out.jsonl] [--faults plan.json]
           [--shards N] [--checkpoint-every EVENTS --snapshot-dir DIR]
                                         simulate a scenario file, optionally
                                         injecting a deterministic fault plan;
                                         --shards runs independent network
                                         components on N worker threads
                                         (results never depend on N; with
                                         --checkpoint-every they run one
                                         at a time on one thread);
                                         --checkpoint-every snapshots engine
                                         state every EVENTS events (atomic
                                         tmp+rename into DIR) and resumes a
                                         killed run from its last snapshot —
                                         the result is byte-identical either
                                         way
  nomc sweep <scenario.json> [--journal out.jsonl] [--resume] [--retries N]
             [--budget EVENTS] [--threads N] [--shards N]
             [--checkpoint-every EVENTS] [--snapshot-dir DIR]
             [--seeds 1,2,3 | --seed-count N]
             [--report out.json]         crash-safe multi-seed sweep: every
                                         concluded member is checkpointed to
                                         the journal (atomic tmp+rename), and
                                         --resume skips members the journal
                                         already records; --checkpoint-every
                                         additionally snapshots each member
                                         mid-run (default DIR: beside the
                                         journal), so --resume restarts long
                                         members from their last snapshot
                                         instead of their first event
  nomc inspect <scenario.json>           print the link/interference budget
  nomc plan [--target-cprr F] [--delta DB] [--sigma DB] [--frame-bits N]
                                         smallest CFD meeting a CPRR target
  nomc assign <scenario.json> [out.json] re-assign channels to minimize
                                         predicted coupled interference
  nomc serve --state-dir DIR [--addr HOST:PORT] [--max-queue N] [--workers N]
                                         crash-safe results server: jobs are
                                         journaled, deduplicated by content,
                                         shed with 429 past the queue cap, and
                                         resumed after a kill -9 when restarted
                                         on the same --state-dir; SIGTERM
                                         drains gracefully
  nomc submit <scenario.json> --addr HOST:PORT [--seeds 1,2,3 | --seed-count N]
              [--budget EVENTS] [--retries N] [--shards N]
              [--checkpoint-every EVENTS] [--wait] [--report out.json]
                                         submit a sweep job to `nomc serve`;
                                         --wait polls until it concludes,
                                         --report fetches the report bytes
  nomc help                              this text
";

/// A command failure, split by exit code: usage errors (a malformed
/// invocation the caller must fix) exit 2, runtime failures (the
/// invocation was fine but the work failed) exit 1.
#[derive(Debug)]
pub enum CliError {
    /// The invocation itself is wrong — exit code 2.
    Usage(String),
    /// The work failed — exit code 1.
    Runtime(String),
}

impl CliError {
    /// A usage-class error (exit 2).
    pub fn usage(message: impl Into<String>) -> CliError {
        CliError::Usage(message.into())
    }

    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) | CliError::Runtime(message) => write!(f, "{message}"),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Runtime(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::Runtime(message.to_string())
    }
}

/// `nomc generate <template> [out.json]`.
pub fn generate(args: &[String]) -> Result<(), CliError> {
    let template = args.first().ok_or_else(|| {
        CliError::usage("generate needs a template name (line|dense|fig5|attacker)")
    })?;
    let scenario = template_scenario(template)?;
    let json = nomc_json::to_string_pretty(&scenario);
    match args.get(1) {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Builds one of the example scenarios.
fn template_scenario(template: &str) -> Result<Scenario, String> {
    let plan = ChannelPlan::fit(
        Megahertz::new(2458.0),
        Megahertz::new(15.0),
        Megahertz::new(3.0),
        FitPolicy::InclusiveEnds,
    )
    .map_err(|e| e.to_string())?;
    match template {
        "line" => {
            let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
            b.behavior_all(NetworkBehavior::dcn_default());
            b.build()
        }
        "dense" => {
            use nomc_rngcore::SeedableRng;
            let mut rng = nomc_sim::rng::Xoshiro256StarStar::seed_from_u64(1);
            let deployment = paper::vi_a_deployment(&mut rng, &plan, 2, Dbm::new(0.0));
            let mut b = Scenario::builder(deployment);
            b.behavior_all(NetworkBehavior::dcn_default());
            b.build()
        }
        "fig5" => {
            let (deployment, _) = paper::fig5_deployment(
                Megahertz::new(2464.0),
                Megahertz::new(3.0),
                Dbm::new(0.0),
                Dbm::new(0.0),
            );
            Scenario::builder(deployment).build()
        }
        "attacker" => {
            let (deployment, n, a) =
                paper::fig4_deployment(Megahertz::new(2460.0), Megahertz::new(3.0), Dbm::new(0.0));
            let mut b = Scenario::builder(deployment);
            b.behavior(
                n,
                NetworkBehavior::attacker(nomc_units::SimDuration::from_millis(9)),
            )
            .behavior(
                a,
                NetworkBehavior::attacker(nomc_units::SimDuration::from_micros(2200)),
            );
            b.build()
        }
        other => {
            return Err(format!(
                "unknown template `{other}` (line|dense|fig5|attacker)"
            ))
        }
    }
    .map_err(|e| format!("template invalid: {e}"))
}

/// `nomc run <scenario.json> [--json out.json] [--trace out.jsonl]
/// [--faults plan.json] [--shards N]`.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::usage("run needs a scenario file"))?;
    let mut scenario = load_scenario(path)?;
    if let Some(plan_path) = flag_value(args, "--faults")? {
        scenario.faults = load_fault_plan(&plan_path)?;
        // Re-validate: the plan references nodes by deployment index, so
        // it can only be checked against the scenario it is merged into.
        scenario
            .validate()
            .map_err(|e| format!("invalid fault plan: {e}"))?;
        let n = &scenario.faults;
        eprintln!(
            "injecting faults: {} crash(es), {} jammer(s), {} drift(s), {} stuck-CCA",
            n.crashes.len(),
            n.jammers.len(),
            n.drifts.len(),
            n.stuck_cca.len()
        );
    }
    let trace_path = flag_value(args, "--trace")?;
    // Traces stream to disk through a pluggable observer sink instead of
    // buffering every record in the result — arbitrarily long runs trace
    // in constant memory.
    let mut tracer = trace_path
        .as_ref()
        .map(|out| {
            std::fs::File::create(out)
                .map(|f| JsonlTracer::new(std::io::BufWriter::new(f)))
                .map_err(|e| format!("cannot create {out}: {e}"))
        })
        .transpose()?;
    let mut sinks: Vec<&mut dyn SimObserver> = Vec::new();
    if let Some(t) = tracer.as_mut() {
        sinks.push(t);
    }
    let every = parse_count::<u64>(args, "--checkpoint-every", " event")?;
    let spec = RunSpec {
        shards: parse_count::<usize>(args, "--shards", "")?,
        ..RunSpec::default()
    };
    let result = match every {
        Some(every) => {
            let dir = flag_value(args, "--snapshot-dir")?
                .ok_or_else(|| CliError::usage("--checkpoint-every needs --snapshot-dir <dir>"))?;
            checkpointed_run(
                &scenario,
                &mut sinks,
                &spec,
                every,
                std::path::Path::new(&dir),
            )?
        }
        None => {
            engine::execute(&scenario, &spec, &mut sinks)
                .into_done()
                .expect("a run without a pause target finishes")
                .result
        }
    };
    if let (Some(t), Some(out)) = (tracer, &trace_path) {
        let records = t.finish().map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {records} trace records to {out}");
    }
    println!(
        "simulated {:.1}s (measured {:.1}s), seed {}",
        scenario.duration.as_secs_f64(),
        result.measured.as_secs_f64(),
        scenario.seed
    );
    println!(
        "total throughput: {:.1} pkt/s   PRR: {}",
        result.total_throughput(),
        result
            .total_prr()
            .map(|p| format!("{:.1}%", p * 100.0))
            .unwrap_or_else(|| "n/a".to_string())
    );
    println!("\nper-network:");
    for net in result.networks() {
        println!(
            "  #{} @ {}: {:>7.1} pkt/s  (sent {}, crc-failed {}, sync-missed {})",
            net.index,
            net.frequency,
            net.throughput(result.measured),
            net.totals.sent,
            net.totals.crc_failed,
            net.totals.sync_missed,
        );
    }
    println!("\nfinal CCA thresholds:");
    for (i, t) in result.final_thresholds.iter().enumerate() {
        println!("  sender {i}: {t}");
    }
    if let Some(out) = flag_value(args, "--json")? {
        use nomc_json::{Json, ToJson};
        let summary = Json::object([
            ("total_throughput", result.total_throughput().to_json()),
            ("total_prr", result.total_prr().to_json()),
            (
                "networks",
                Json::Arr(
                    result
                        .networks()
                        .iter()
                        .map(|n| {
                            Json::object([
                                ("index", n.index.to_json()),
                                ("frequency_mhz", n.frequency.value().to_json()),
                                ("throughput", n.throughput(result.measured).to_json()),
                                ("sent", n.totals.sent.to_json()),
                                ("received", n.totals.received.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(&out, summary.dump_pretty())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

/// `nomc run --checkpoint-every`: the sweep's checkpointed run (a
/// checkpoint every `every` events), keyed by scenario content and
/// execution mode.
/// A trustworthy snapshot file is resumed; any defect (corruption,
/// version skew, a snapshot of a different scenario) degrades to a
/// clean start with a notice, never a panic. The snapshot file is
/// removed on completion.
///
/// The result is byte-identical to an uninterrupted run; a `--trace`
/// sink on a *resumed* serial run streams only the remaining suffix
/// (a resumed sharded run replays the complete merged stream at the
/// end).
fn checkpointed_run(
    scenario: &Scenario,
    sinks: &mut [&mut dyn SimObserver],
    spec: &RunSpec,
    every: u64,
    dir: &std::path::Path,
) -> Result<nomc_sim::SimResult, String> {
    use nomc_experiments::runner::RunOutcome;
    use nomc_experiments::sweep::checkpoint::{self, Notice};
    use nomc_experiments::sweep::hash;

    let key = hash::member_hash_with(scenario, spec.budget, spec.shards.is_some());
    let (outcome, notices) = checkpoint::run_legs(scenario, spec, every, dir, key, 0, sinks);
    for notice in &notices {
        match notice {
            Notice::Resumed { events_done } => {
                eprintln!("resumed from checkpoint at {events_done} events")
            }
            Notice::Discarded(e) => {
                eprintln!("checkpoint unusable ({e}); restarting from the beginning")
            }
            // Losing durability is not losing the run.
            Notice::SaveFailed(e) => eprintln!("checkpoint not saved ({e}); continuing without it"),
        }
    }
    match outcome {
        RunOutcome::Ok(result) => {
            checkpoint::discard(dir, key);
            Ok(result)
        }
        RunOutcome::Failed(e) => Err(format!("in-process resume failed: {e}")),
        RunOutcome::TimedOut { events } => Err(format!("run stopped after {events} events")),
    }
}

/// `nomc sweep <scenario.json> [--journal out.jsonl] [--resume]
/// [--retries N] [--budget EVENTS] [--threads N] [--shards N]
/// [--seeds 1,2,3 | --seed-count N] [--report out.json]`.
pub fn sweep(args: &[String]) -> Result<(), CliError> {
    use nomc_experiments::sweep::{self, SweepConfig};

    let path = args
        .first()
        .ok_or_else(|| CliError::usage("sweep needs a scenario file"))?;
    let base = load_scenario(path)?;
    let seeds = sweep_seeds(args)?;
    let flags = job_flags(args)?;
    let defaults = SweepConfig::default();
    let mut cfg = SweepConfig {
        retries: flags.retries.unwrap_or(defaults.retries),
        base_budget: flags.budget.unwrap_or(defaults.base_budget),
        threads: parse_count(args, "--threads", "")?,
        shards: flags.shards,
        ..defaults
    };
    let journal = flag_value(args, "--journal")?;
    let resume = args.iter().any(|a| a == "--resume");
    if resume && journal.is_none() {
        return Err(CliError::usage(
            "--resume needs --journal <path> to resume from",
        ));
    }
    if let Some(every) = flags.checkpoint_every {
        let dir = match flag_value(args, "--snapshot-dir")? {
            Some(d) => std::path::PathBuf::from(d),
            // Default: a sibling directory of the journal, so resuming
            // with the same command line finds the same snapshots.
            None => match &journal {
                Some(j) => std::path::PathBuf::from(format!("{j}.snapshots")),
                None => {
                    return Err(CliError::usage(
                        "--checkpoint-every needs --journal (snapshots then live \
                         beside it) or an explicit --snapshot-dir <dir>",
                    ))
                }
            },
        };
        cfg.checkpoint_every = Some(every);
        cfg.snapshot_dir = Some(dir);
    }

    let members = sweep::seed_members(&base, &seeds);
    let report = sweep::run_sweep(
        &members,
        &cfg,
        journal.as_ref().map(std::path::Path::new),
        resume,
    )
    .map_err(|e| e.to_string())?;

    let counts = report.counts();
    println!(
        "sweep: {} members — {} ok, {} failed, {} timed out, {} retried",
        report.members.len(),
        counts.ok,
        counts.failed,
        counts.timed_out,
        counts.retried
    );
    match report.throughput_stat() {
        Ok(stat) => println!(
            "total throughput: {:.1} ± {:.1} pkt/s over {} completed members",
            stat.mean, stat.std, counts.ok
        ),
        // Typed refusal, surfaced instead of a misleading statistic.
        Err(e) => println!("no statistic: {e}"),
    }
    if let Some(j) = &journal {
        eprintln!("journal checkpointed at {j}");
    }
    if let Some(out) = flag_value(args, "--report")? {
        std::fs::write(&out, report.to_json_string())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

/// The seed list of a sweep: `--seeds a,b,c` wins, then
/// `--seed-count N` (seeds `1..=N`), then the default `1..=5`.
fn sweep_seeds(args: &[String]) -> Result<Vec<u64>, CliError> {
    if let Some(list) = flag_value(args, "--seeds")? {
        let seeds: Vec<u64> = list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|e| CliError::usage(format!("bad seed {s:?} in --seeds: {e}")))
            })
            .collect::<Result<_, _>>()?;
        if seeds.is_empty() {
            return Err(CliError::usage("--seeds needs at least one seed"));
        }
        return Ok(seeds);
    }
    let count = parse_count::<u64>(args, "--seed-count", "")?.unwrap_or(5);
    Ok((1..=count).collect())
}

/// `nomc inspect <scenario.json>`.
pub fn inspect(args: &[String]) -> Result<(), CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::usage("inspect needs a scenario file"))?;
    let scenario = load_scenario(path)?;
    let pl = LogDistance::indoor_2_4ghz();
    println!(
        "{} networks, {} links, min CFD {}",
        scenario.deployment.networks.len(),
        scenario.deployment.link_count(),
        scenario
            .deployment
            .min_cfd()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "n/a".to_string())
    );
    for (ni, net) in scenario.deployment.networks.iter().enumerate() {
        println!("\nnetwork #{ni} @ {}:", net.frequency);
        for (li, link) in net.links.iter().enumerate() {
            let rssi = link.tx_power - pl.loss(link.distance());
            println!(
                "  link {li}: {} -> {}  ({}, TX {}, mean RSSI {})",
                link.tx,
                link.rx,
                link.distance(),
                link.tx_power,
                rssi
            );
            // Strongest coupled interferer at this link's receiver.
            let mut worst: Option<(usize, Dbm)> = None;
            for (oi, other) in scenario.deployment.networks.iter().enumerate() {
                if oi == ni {
                    continue;
                }
                let rejection = scenario
                    .propagation
                    .acr
                    .rejection(other.frequency.distance_to(net.frequency));
                for l2 in &other.links {
                    let coupled = l2.tx_power - pl.loss(l2.tx.distance_to(link.rx)) - rejection;
                    if worst.map(|(_, w)| coupled > w).unwrap_or(true) {
                        worst = Some((oi, coupled));
                    }
                }
            }
            if let Some((oi, coupled)) = worst {
                let sinr = rssi - coupled;
                println!(
                    "           strongest interferer: network #{oi}, coupled {coupled} \
                     (SINR margin {sinr})"
                );
            }
        }
    }
    Ok(())
}

/// `nomc plan [--target-cprr F] [--delta DB] [--sigma DB] [--frame-bits N]`.
pub fn plan(args: &[String]) -> Result<(), CliError> {
    let target: f64 = parse_flag(args, "--target-cprr")?.unwrap_or(0.95);
    let delta: f64 = parse_flag(args, "--delta")?.unwrap_or(0.0);
    let sigma: f64 = parse_flag(args, "--sigma")?.unwrap_or(4.0);
    let frame_bits: u32 = parse_flag(args, "--frame-bits")?.unwrap_or(408);
    if !(0.0 < target && target <= 1.0) {
        return Err(CliError::usage(format!(
            "--target-cprr must be in (0,1], got {target}"
        )));
    }
    let model = CprrModel {
        power_delta: Db::new(delta),
        sigma_db: Db::new(sigma),
        frame_bits,
        ..CprrModel::calibrated_default()
    };
    println!("predicted CPRR vs CFD (Δ={delta} dB, σ={sigma} dB, {frame_bits} bits):");
    for tenths in (0..=60).step_by(5) {
        let cfd = Megahertz::new(f64::from(tenths) / 10.0);
        let cprr = model.predicted_cprr(cfd);
        println!(
            "  {:>4.1} MHz: {:>5.1}%  {}",
            cfd.value(),
            cprr * 100.0,
            "#".repeat((cprr * 30.0).round() as usize)
        );
    }
    match model.min_cfd_for_cprr(target) {
        Some(cfd) => println!("\nsmallest CFD with CPRR ≥ {:.0}%: {cfd}", target * 100.0),
        None => println!(
            "\nno CFD under the curve's saturation point reaches {:.0}%",
            target * 100.0
        ),
    }
    Ok(())
}

/// `nomc assign <scenario.json> [out.json]`.
pub fn assign(args: &[String]) -> Result<(), CliError> {
    use nomc_topology::assignment::{apply_assignment, optimize_assignment};
    use nomc_topology::spectrum::ChannelPlan;

    let path = args
        .first()
        .ok_or_else(|| CliError::usage("assign needs a scenario file"))?;
    let mut scenario = load_scenario(path)?;
    let mut freqs: Vec<f64> = scenario
        .deployment
        .networks
        .iter()
        .map(|n| n.frequency.value())
        .collect();
    freqs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let cfd = freqs
        .iter()
        .zip(freqs.iter().skip(1))
        .map(|(lo, hi)| hi - lo)
        .fold(f64::MAX, f64::min);
    if !cfd.is_finite() || cfd <= 0.0 {
        return Err("assignment needs at least two networks on distinct channels".into());
    }
    let lowest = *freqs
        .first()
        .ok_or("assignment needs at least two networks on distinct channels")?;
    let plan = ChannelPlan::with_count(Megahertz::new(lowest), Megahertz::new(cfd), freqs.len());
    let assignment = optimize_assignment(
        &scenario.deployment.networks,
        &plan,
        &LogDistance::indoor_2_4ghz(),
        &scenario.propagation.acr,
    );
    println!(
        "coupled-interference cost: {:.3e} (plan order) -> {:.3e} (optimized), {:+.1}%",
        assignment.identity_cost,
        assignment.cost,
        (assignment.cost / assignment.identity_cost - 1.0) * 100.0
    );
    for (i, f) in assignment.frequencies.iter().enumerate() {
        println!("  network #{i}: {f}");
    }
    apply_assignment(&mut scenario.deployment.networks, &assignment);
    if let Some(out) = args.get(1) {
        let json = nomc_json::to_string_pretty(&scenario);
        std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

/// `nomc serve --state-dir DIR [--addr HOST:PORT] [--max-queue N]
/// [--workers N]`.
///
/// Blocks until a drain is requested (SIGTERM/SIGINT), finishes or
/// requeues in-flight work, and exits 0. Restarting on the same
/// `--state-dir` resumes every unfinished job and re-serves completed
/// reports byte-identically.
pub fn serve(args: &[String]) -> Result<(), CliError> {
    use nomc_serve::{signals, ServeConfig, Server};

    let state_dir = flag_value(args, "--state-dir")?
        .ok_or_else(|| CliError::usage("serve needs --state-dir <dir> (its durable state root)"))?;
    let mut cfg = ServeConfig::new(
        flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".to_string()),
        state_dir,
    );
    if let Some(max_queue) = parse_flag::<usize>(args, "--max-queue")? {
        if max_queue == 0 {
            return Err(CliError::usage(
                "--max-queue must be at least 1 (a zero-slot queue admits nothing)",
            ));
        }
        cfg.max_queue = max_queue;
    }
    if let Some(workers) = parse_count::<usize>(args, "--workers", "")? {
        cfg.workers = workers;
    }
    signals::install_drain_handler();
    let server = Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    eprintln!("nomc serve: listening on {}", server.addr());
    server.join();
    eprintln!("nomc serve: drained");
    Ok(())
}

/// `nomc submit <scenario.json> --addr HOST:PORT [...]`: the client
/// side of `nomc serve`.
pub fn submit(args: &[String]) -> Result<(), CliError> {
    use nomc_serve::http;

    let path = args
        .first()
        .ok_or_else(|| CliError::usage("submit needs a scenario file"))?;
    let scenario = load_scenario(path)?;
    let addr = flag_value(args, "--addr")?
        .ok_or_else(|| CliError::usage("submit needs --addr <host:port> (see serve.addr)"))?;
    let seeds = sweep_seeds(args)?;
    let flags = job_flags(args)?;
    let spec = nomc_serve::JobSpec {
        scenario,
        seeds,
        budget: flags.budget.unwrap_or(1_000_000_000),
        retries: flags.retries.unwrap_or(1),
        shards: flags.shards,
        checkpoint_every: Some(flags.checkpoint_every.unwrap_or(200_000)),
    };
    // Client-side validation mirrors the server's admission rules, so a
    // bad spec fails here with a usage error instead of a 400.
    spec.validate()
        .map_err(|e| CliError::usage(format!("rejected job spec: {e}")))?;

    let body = nomc_json::to_string(&spec);
    let resp = http_request(&addr, http::Method::Post, "/jobs", body.as_bytes())?;
    let resp_body = String::from_utf8_lossy(&resp.body).into_owned();
    match resp.status {
        200 | 202 => {}
        429 => {
            let hint = resp
                .header("retry-after")
                .map(|s| format!(" (Retry-After: {s}s)"))
                .unwrap_or_default();
            return Err(format!("server queue is full{hint}: {resp_body}").into());
        }
        other => return Err(format!("submit failed with {other}: {resp_body}").into()),
    }
    let job = resp_body
        .split("\"job\":\"")
        .nth(1)
        .and_then(|rest| rest.get(..16))
        .ok_or_else(|| format!("malformed server ack: {resp_body}"))?
        .to_string();
    println!("{resp_body}");
    eprintln!(
        "job {job} ({})",
        if resp.status == 200 {
            "cached"
        } else {
            "queued"
        }
    );

    let wait = args.iter().any(|a| a == "--wait");
    let report_out = flag_value(args, "--report")?;
    if !(wait || report_out.is_some()) {
        return Ok(());
    }
    // Poll until the job concludes (bounded: the server answers
    // immediately, so each round is one short exchange).
    let status_target = format!("/jobs/{job}");
    let mut concluded = false;
    for _ in 0..3000 {
        let status = http_request(&addr, http::Method::Get, &status_target, b"")?;
        let text = String::from_utf8_lossy(&status.body).into_owned();
        if status.status != 200 {
            return Err(format!("status poll failed with {}: {text}", status.status).into());
        }
        if text.contains("\"state\":\"failed\"") {
            return Err(format!("job {job} failed: {text}").into());
        }
        if text.contains("\"state\":\"done\"") {
            concluded = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    if !concluded {
        return Err(format!("job {job} did not conclude within the polling window").into());
    }
    eprintln!("job {job} done");
    if let Some(out) = report_out {
        let report = http_request(
            &addr,
            http::Method::Get,
            &format!("/jobs/{job}/report"),
            b"",
        )?;
        if report.status != 200 {
            return Err(format!(
                "report fetch failed with {}: {}",
                report.status,
                String::from_utf8_lossy(&report.body)
            )
            .into());
        }
        std::fs::write(&out, &report.body).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

/// One HTTP exchange against the results server (connect, send, read
/// to close, parse). All timeouts are bounded; a wedged server is a
/// typed error, never a hang.
fn http_request(
    addr: &str,
    method: nomc_serve::http::Method,
    target: &str,
    body: &[u8],
) -> Result<nomc_serve::http::ClientResponse, String> {
    use nomc_serve::http;
    use std::io::{Read, Write};

    let timeout = std::time::Duration::from_secs(30);
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("cannot configure socket: {e}"))?;
    stream
        .write_all(&http::render_request(method, target, body))
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    match http::parse_response(&bytes).map_err(|e| format!("bad response from {addr}: {e}"))? {
        http::Parsed::Complete { value, .. } => Ok(value),
        http::Parsed::Partial => Err(format!(
            "truncated response from {addr} ({} bytes)",
            bytes.len()
        )),
    }
}

fn load_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scenario: Scenario =
        nomc_json::from_str(&text).map_err(|e| format!("invalid scenario JSON: {e}"))?;
    // Full semantic validation — every malformed input becomes a typed
    // ScenarioError surfaced here as exit code + message, never a panic
    // mid-run.
    scenario
        .validate()
        .map_err(|e| format!("invalid scenario: {e}"))?;
    Ok(scenario)
}

fn load_fault_plan(path: &str) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    nomc_json::from_str(&text).map_err(|e| format!("invalid fault plan JSON: {e}"))
}

/// The value following `flag`, `Ok(None)` when the flag is absent, and
/// an error when the flag is present with no value — a trailing
/// `--journal` must not silently run without journaling.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, CliError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        // The next `--flag` is not this flag's value (values such as
        // `--delta -9.1` keep working: one dash, not two).
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(CliError::usage(format!("{flag} needs a value"))),
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    match flag_value(args, flag)? {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|e| CliError::usage(format!("bad value for {flag}: {e}"))),
    }
}

/// [`parse_flag`] for a count that must be at least 1: zero is a usage
/// error naming `flag` and its `unit` (`""` or `" event"`).
fn parse_count<T>(args: &[String], flag: &str, unit: &str) -> Result<Option<T>, CliError>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: std::fmt::Display,
{
    match parse_flag::<T>(args, flag)? {
        Some(n) if n == T::default() => {
            Err(CliError::usage(format!("{flag} must be at least 1{unit}")))
        }
        n => Ok(n),
    }
}

/// The job flags `nomc sweep` and `nomc submit` share; `None` when
/// absent, so each command keeps its own defaults.
struct JobFlags {
    budget: Option<u64>,
    retries: Option<u32>,
    shards: Option<usize>,
    checkpoint_every: Option<u64>,
}

/// Parses `--budget`, `--retries`, `--shards` and `--checkpoint-every`:
/// counts must be at least 1, and retries stay within
/// [`nomc_serve::MAX_RETRIES`].
fn job_flags(args: &[String]) -> Result<JobFlags, CliError> {
    let retries = parse_flag::<u32>(args, "--retries")?;
    if let Some(retries) = retries.filter(|&r| r > nomc_serve::MAX_RETRIES) {
        return Err(CliError::usage(format!(
            "--retries {retries} exceeds the cap of {} (each retry doubles the event budget)",
            nomc_serve::MAX_RETRIES
        )));
    }
    Ok(JobFlags {
        budget: parse_count(args, "--budget", " event")?,
        retries,
        shards: parse_count(args, "--shards", "")?,
        checkpoint_every: parse_count(args, "--checkpoint-every", " event")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_build_and_serialize() {
        for t in ["line", "dense", "fig5", "attacker"] {
            let sc = template_scenario(t).unwrap_or_else(|e| panic!("{t}: {e}"));
            // Exact round-trip: the in-tree codec emits shortest
            // representations that decode bit-faithfully.
            let json = nomc_json::to_string(&sc);
            let back: Scenario = nomc_json::from_str(&json).expect("deserializes");
            assert_eq!(back, sc, "template {t} did not round-trip");
        }
        assert!(template_scenario("nope").is_err());
    }

    #[test]
    fn run_round_trip_via_tempfile() {
        let sc = template_scenario("attacker").unwrap();
        let dir = std::env::temp_dir().join("nomc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        std::fs::write(&path, nomc_json::to_string(&sc)).unwrap();
        let loaded = load_scenario(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, sc);
    }

    #[test]
    fn run_merges_and_validates_fault_plan() {
        use nomc_sim::CrashFault;
        use nomc_units::{SimDuration, SimTime};

        let mut sc = template_scenario("line").unwrap();
        sc.duration = SimDuration::from_millis(300);
        sc.warmup = SimDuration::from_millis(50);
        let dir = std::env::temp_dir().join("nomc-cli-faults");
        std::fs::create_dir_all(&dir).unwrap();
        let sc_path = dir.join("scenario.json");
        std::fs::write(&sc_path, nomc_json::to_string(&sc)).unwrap();

        // A valid plan round-trips through JSON and the run succeeds.
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                node: 0,
                at: SimTime::ZERO + SimDuration::from_millis(100),
                down_for: SimDuration::from_millis(50),
            }],
            ..FaultPlan::default()
        };
        let plan_path = dir.join("plan.json");
        std::fs::write(&plan_path, nomc_json::to_string(&plan)).unwrap();
        let reread: FaultPlan =
            nomc_json::from_str(&std::fs::read_to_string(&plan_path).unwrap()).unwrap();
        assert_eq!(reread, plan);
        run(&[
            sc_path.to_str().unwrap().to_string(),
            "--faults".into(),
            plan_path.to_str().unwrap().to_string(),
        ])
        .unwrap();

        // A plan naming a node outside the deployment is rejected with a
        // typed error, not a panic mid-run.
        let bad = FaultPlan {
            crashes: vec![CrashFault {
                node: 999,
                at: SimTime::ZERO,
                down_for: SimDuration::ZERO,
            }],
            ..FaultPlan::default()
        };
        let bad_path = dir.join("bad.json");
        std::fs::write(&bad_path, nomc_json::to_string(&bad)).unwrap();
        let err = run(&[
            sc_path.to_str().unwrap().to_string(),
            "--faults".into(),
            bad_path.to_str().unwrap().to_string(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("invalid fault plan"), "{err:?}");
    }

    #[test]
    fn run_accepts_shards_and_rejects_zero() {
        let mut sc = template_scenario("line").unwrap();
        sc.duration = nomc_units::SimDuration::from_millis(300);
        sc.warmup = nomc_units::SimDuration::from_millis(50);
        let dir = std::env::temp_dir().join("nomc-cli-shards");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        std::fs::write(&path, nomc_json::to_string(&sc)).unwrap();
        let base = path.to_str().unwrap().to_string();
        run(&[base.clone(), "--shards".into(), "2".into()]).unwrap();
        let err = run(&[base, "--shards".into(), "0".into()]).unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err:?}");
    }

    #[test]
    fn run_checkpointed_matches_plain_and_cleans_up() {
        use nomc_experiments::sweep::{checkpoint, hash};

        let mut sc = template_scenario("line").unwrap();
        sc.duration = nomc_units::SimDuration::from_millis(300);
        sc.warmup = nomc_units::SimDuration::from_millis(50);
        let dir = std::env::temp_dir().join("nomc-cli-checkpointed");
        let _ = std::fs::remove_dir_all(&dir);
        let snap_dir = dir.join("snapshots");
        std::fs::create_dir_all(&snap_dir).unwrap();
        let sc_path = dir.join("scenario.json");
        std::fs::write(&sc_path, nomc_json::to_string(&sc)).unwrap();
        let base = sc_path.to_str().unwrap().to_string();
        let summary = |flags: &[&str]| {
            let out = dir.join("summary.json");
            let mut args = vec![base.clone(), "--json".into(), out.to_str().unwrap().into()];
            args.extend(flags.iter().map(|f| f.to_string()));
            run(&args).unwrap();
            std::fs::read(&out).unwrap()
        };

        for shards in [None, Some("2")] {
            let mode: Vec<&str> = shards.map(|n| vec!["--shards", n]).unwrap_or_default();
            let plain = summary(&mode);
            let every = [
                "--checkpoint-every",
                "1000",
                "--snapshot-dir",
                snap_dir.to_str().unwrap(),
            ];
            let checkpointed_run_matches = |planted: &str| {
                assert_eq!(
                    summary(&[&mode[..], &every[..]].concat()),
                    plain,
                    "{shards:?} shards, {planted} planted: checkpointing must not change \
                     the summary by a byte"
                );
                // The run completed, so its snapshot file was removed.
                let leftovers: Vec<_> = std::fs::read_dir(&snap_dir)
                    .unwrap()
                    .filter_map(|e| e.ok())
                    .collect();
                assert!(leftovers.is_empty(), "{planted}: {leftovers:?}");
            };
            checkpointed_run_matches("nothing");

            // The checkpoint an interrupted run leaves at event 2000.
            let key = hash::member_hash_with(&sc, u64::MAX, shards.is_some());
            let spec = RunSpec {
                shards: shards.map(|_| 2),
                budget: u64::MAX,
                pause_at: 2_000,
            };
            let engine::RunProgress::Paused(snap) = engine::execute(&sc, &spec, &mut []) else {
                panic!("the scenario must outlast 2000 events");
            };
            checkpoint::save(&snap_dir, key, 0, 2_000, &engine::snapshot(&snap)).unwrap();
            checkpointed_run_matches("a mid-run checkpoint");

            std::fs::write(checkpoint::path_for(&snap_dir, key), b"\x00garbage\xff").unwrap();
            checkpointed_run_matches("a corrupt checkpoint");
        }

        // Flag validation: zero cadence and a missing dir are typed
        // errors, not silent defaults.
        let err = run(&[base.clone(), "--checkpoint-every".into(), "0".into()]).unwrap_err();
        assert!(err.to_string().contains("--checkpoint-every"), "{err:?}");
        let err = run(&[base, "--checkpoint-every".into(), "5000".into()]).unwrap_err();
        assert!(err.to_string().contains("--snapshot-dir"), "{err:?}");
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--target-cprr", "0.9", "--sigma", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_flag::<f64>(&args, "--target-cprr").unwrap(),
            Some(0.9)
        );
        assert_eq!(parse_flag::<f64>(&args, "--sigma").unwrap(), Some(2.0));
        assert_eq!(parse_flag::<f64>(&args, "--missing").unwrap(), None);
        assert!(parse_flag::<f64>(&["--sigma".into(), "x".into()], "--sigma").is_err());
    }

    #[test]
    fn a_flag_without_a_value_is_an_error_not_a_silent_default() {
        // Trailing flag: nothing follows.
        assert!(flag_value(&["--journal".into()], "--journal").is_err());
        // Another flag follows: `--journal --resume` must not take
        // "--resume" as the journal path.
        assert!(flag_value(&["--journal".into(), "--resume".into()], "--journal").is_err());
        // Single-dash values (negative numbers) still parse.
        assert_eq!(
            parse_flag::<f64>(&["--delta".into(), "-9.1".into()], "--delta").unwrap(),
            Some(-9.1)
        );
    }

    #[test]
    fn plan_rejects_bad_target() {
        assert!(plan(&["--target-cprr".into(), "1.5".into()]).is_err());
    }

    #[test]
    fn assign_round_trip() {
        let sc = template_scenario("dense").unwrap();
        let dir = std::env::temp_dir().join("nomc-cli-assign");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.json");
        let output = dir.join("out.json");
        std::fs::write(&input, nomc_json::to_string(&sc)).unwrap();
        assign(&[
            input.to_str().unwrap().to_string(),
            output.to_str().unwrap().to_string(),
        ])
        .unwrap();
        let optimized = load_scenario(output.to_str().unwrap()).unwrap();
        // Same channel set, possibly permuted.
        let mut a: Vec<f64> = sc
            .deployment
            .networks
            .iter()
            .map(|n| n.frequency.value())
            .collect();
        let mut b: Vec<f64> = optimized
            .deployment
            .networks
            .iter()
            .map(|n| n.frequency.value())
            .collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }
}
