//! Live-server integration: submit → run → report → cache → drain,
//! all over real sockets against a `Server` in this process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use nomc_experiments::sweep::{self, journal, MemberReport, SweepConfig};
use nomc_serve::http::{self, ClientResponse, Method, Parsed};
use nomc_serve::{jobs, JobSpec, ServeConfig, Server};
use nomc_sim::Scenario;
use nomc_topology::{paper, spectrum::ChannelPlan};
use nomc_units::{Dbm, Megahertz, SimDuration};

fn test_scenario() -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_secs(1));
    b.build().expect("valid test scenario")
}

fn spec_json(seeds: &[u64]) -> String {
    spec_json_with(seeds, 200_000)
}

fn spec_json_with(seeds: &[u64], budget: u64) -> String {
    let scenario = nomc_json::to_string(&test_scenario());
    let seeds = seeds
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"scenario\":{scenario},\"seeds\":[{seeds}],\"budget\":{budget},\"retries\":1,\"checkpoint_every\":50000}}"
    )
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("nomc-serve-roundtrip")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir creatable");
    dir
}

fn exchange(
    addr: std::net::SocketAddr,
    method: Method,
    target: &str,
    body: &[u8],
) -> ClientResponse {
    try_exchange(addr, method, target, body).expect("request/response exchange")
}

fn try_exchange(
    addr: std::net::SocketAddr,
    method: Method,
    target: &str,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&http::render_request(method, target, body))?;
    read_response(stream)
}

/// Reads `stream` to its end and parses the one response on it.
fn read_response(mut stream: TcpStream) -> std::io::Result<ClientResponse> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    match http::parse_response(&bytes).expect("valid response") {
        Parsed::Complete { value, .. } => Ok(value),
        Parsed::Partial => panic!("truncated response: {:?}", String::from_utf8_lossy(&bytes)),
    }
}

fn body_text(resp: &ClientResponse) -> String {
    String::from_utf8_lossy(&resp.body).into_owned()
}

/// Drains `server` and fails (rather than hangs) if the accept loop
/// does not come back within `limit`.
fn drain_within(server: Server, limit: Duration) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.drain();
        server.join();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(limit).is_ok(),
        "drain did not wake the blocked accept loop within {limit:?}"
    );
}

#[test]
fn submit_runs_caches_and_drains() {
    let state = temp_dir("roundtrip");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();

    // The bound address is published for :0 runs.
    let published = std::fs::read_to_string(state.join("serve.addr")).expect("serve.addr");
    assert_eq!(published.trim(), addr.to_string());

    // Health before any work.
    let health = exchange(addr, Method::Get, "/healthz", b"");
    assert_eq!(health.status, 200);
    assert!(body_text(&health).contains("\"status\":\"ok\""));

    // Submit: accepted as new work.
    let spec = spec_json(&[1, 2]);
    let accepted = exchange(addr, Method::Post, "/jobs", spec.as_bytes());
    assert_eq!(accepted.status, 202, "{}", body_text(&accepted));
    let accepted_body = body_text(&accepted);
    let job_hex = accepted_body
        .split("\"job\":\"")
        .nth(1)
        .and_then(|rest| rest.get(..16))
        .expect("job id in ack")
        .to_string();

    // Poll until done.
    let status_target = format!("/jobs/{job_hex}");
    let mut done = false;
    for _ in 0..600 {
        let status = exchange(addr, Method::Get, &status_target, b"");
        assert_eq!(status.status, 200);
        let text = body_text(&status);
        assert!(!text.contains("\"state\":\"failed\""), "job failed: {text}");
        if text.contains("\"state\":\"done\"") {
            assert!(text.contains("\"report\":"), "done status embeds report");
            done = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(done, "job did not finish in time");

    // The report endpoint serves the on-disk bytes exactly.
    let report_target = format!("/jobs/{job_hex}/report");
    let report = exchange(addr, Method::Get, &report_target, b"");
    assert_eq!(report.status, 200);
    let on_disk =
        std::fs::read(state.join("jobs").join(&job_hex).join("report.json")).expect("report file");
    assert_eq!(
        report.body, on_disk,
        "served report must be the file's bytes"
    );

    // Resubmitting identical work is a cache hit, not a new job.
    let resubmit = exchange(addr, Method::Post, "/jobs", spec.as_bytes());
    assert_eq!(resubmit.status, 200, "{}", body_text(&resubmit));
    let resubmit_body = body_text(&resubmit);
    assert!(resubmit_body.contains("\"cached\":true"), "{resubmit_body}");
    assert!(resubmit_body.contains(&job_hex));

    // The event stream replays the finished job's story and ends.
    let events_target = format!("/jobs/{job_hex}/events");
    let events = {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(&http::render_request(Method::Get, &events_target, b""))
            .expect("send request");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read stream");
        String::from_utf8_lossy(&bytes).into_owned()
    };
    assert!(events.contains("\"event\":\"started\""), "{events}");
    assert!(events.contains("\"event\":\"done\""), "{events}");

    // Unknown and malformed ids are 404s, wrong method is 405.
    assert_eq!(
        exchange(addr, Method::Get, "/jobs/0000000000000000", b"").status,
        404
    );
    assert_eq!(
        exchange(addr, Method::Get, "/jobs/nonsense", b"").status,
        404
    );
    assert_eq!(exchange(addr, Method::Get, "/jobs", b"").status, 405);

    // Garbage on the wire gets a typed 4xx, and the server survives it.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"\x16\x03\x01\x02\x00garbage\r\n\r\n")
            .expect("send");
        let mut bytes = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.read_to_end(&mut bytes).expect("read");
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.starts_with("HTTP/1.1 4"), "{text}");
    }
    assert_eq!(exchange(addr, Method::Get, "/healthz", b"").status, 200);

    // Drain: the server stops listening and exits; new connections are
    // refused (in-flight submissions racing the drain get a 503 from
    // the admission layer, covered by the registry tests).
    drain_within(server, Duration::from_secs(60));
    assert!(
        TcpStream::connect(addr).is_err(),
        "drained server must not accept connections"
    );
}

#[test]
fn invalid_specs_are_rejected_with_400() {
    let state = temp_dir("rejects");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();

    for (body, needle) in [
        (b"not json".to_vec(), "bad job spec"),
        (spec_json(&[]).into_bytes(), "at least one member"),
        (spec_json(&[3, 3]).into_bytes(), "more than once"),
        (
            spec_json(&[1])
                .replace("\"retries\":1", "\"retries\":99")
                .into_bytes(),
            "exceeds the cap",
        ),
        (
            spec_json(&[1])
                .replace("\"budget\":200000", "\"budget\":0")
                .into_bytes(),
            "at least 1 event",
        ),
    ] {
        let resp = exchange(addr, Method::Post, "/jobs", &body);
        assert_eq!(resp.status, 400, "{}", body_text(&resp));
        assert!(body_text(&resp).contains(needle), "{}", body_text(&resp));
    }

    // Nothing was admitted.
    let health = body_text(&exchange(addr, Method::Get, "/healthz", b""));
    assert!(health.contains("\"queued\":0"), "{health}");
    drain_within(server, Duration::from_secs(60));
}

#[test]
fn full_queue_sheds_with_retry_after() {
    let state = temp_dir("shed");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &state);
    // One slot, and no worker fast enough to drain it: workers poll
    // jobs in a loop, so use a queue of 1 and submit three distinct
    // jobs back to back; at least one must shed.
    cfg.max_queue = 1;
    cfg.workers = 1;
    let server = Server::start(cfg).expect("server boots");
    let addr = server.addr();

    let mut shed = 0;
    for seed in 10..20 {
        // Five members per job keep the single worker busy long enough
        // for the burst to outrun the 1-slot queue.
        let seeds = [seed, seed + 100, seed + 200, seed + 300, seed + 400];
        let resp = exchange(
            addr,
            Method::Post,
            "/jobs",
            spec_json_with(&seeds, 2_000_000).as_bytes(),
        );
        match resp.status {
            202 => {}
            429 => {
                assert!(
                    resp.header("retry-after").is_some(),
                    "429 carries Retry-After"
                );
                assert!(body_text(&resp).contains("queue full"));
                shed += 1;
            }
            other => panic!("unexpected status {other}: {}", body_text(&resp)),
        }
    }
    assert!(shed > 0, "a 10-deep burst into a 1-slot queue must shed");
    drain_within(server, Duration::from_secs(60));
}

#[test]
fn an_idle_server_drains_promptly() {
    // Neither server ever sees a client: only the drain wake-up can get
    // its accept loop out of `accept`. The wildcard bind is woken
    // through loopback.
    for (name, bind) in [
        ("idle-loopback", "127.0.0.1:0"),
        ("idle-wildcard", "0.0.0.0:0"),
    ] {
        let state = temp_dir(name);
        let server = Server::start(ServeConfig::new(bind, &state)).expect("server boots");
        let port = server.addr().port();
        drain_within(server, Duration::from_secs(5));
        assert!(
            TcpStream::connect(("127.0.0.1", port)).is_err(),
            "drained server must not accept connections"
        );
    }
}

#[test]
fn connections_over_the_cap_get_503() {
    // The server's concurrent connection cap.
    const MAX_CONNS: usize = 64;
    let state = temp_dir("conn-cap");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &state);
    // Silent peers hold their handler until this deadline; keep it
    // short so a failure cannot stall the suite.
    cfg.io_budget = Duration::from_secs(5);
    let server = Server::start(cfg).expect("server boots");
    let addr = server.addr();

    let held: Vec<TcpStream> = (0..MAX_CONNS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Connections are accepted in arrival order, so by the time this
    // one is taken every held one occupies a slot. The shed answers
    // without reading a request, so this client sends none: unread
    // request bytes would turn the server's close into a reset.
    let shed = read_response(TcpStream::connect(addr).expect("connect")).expect("shed answer");
    assert_eq!(shed.status, 503, "{}", body_text(&shed));
    assert!(
        body_text(&shed).contains("connection limit reached"),
        "{}",
        body_text(&shed)
    );

    // Hanging up frees the slots: the server serves again. Until the
    // handlers have seen the hang-ups, a probe may still be shed (and
    // reset, since it sent a request).
    drop(held);
    let mut served = false;
    for _ in 0..100 {
        let probe = try_exchange(addr, Method::Get, "/healthz", b"");
        if probe.is_ok_and(|resp| resp.status == 200) {
            served = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(served, "closed connections must release their slots");
    drain_within(server, Duration::from_secs(10));
}

/// A two-member job whose budget is below the longer member's natural
/// event count, so that member times out once and completes on its
/// doubled-budget retry. Returns the spec's JSON, the parsed spec, and
/// the report `run_sweep` writes for the same members.
fn retrying_job() -> (String, JobSpec, String) {
    let seeds = [1, 2];
    let natural = seeds
        .iter()
        .map(|&seed| {
            let mut sc = test_scenario();
            sc.seed = seed;
            nomc_sim::engine::run(&sc).events
        })
        .max()
        .expect("two members");
    let text = spec_json_with(&seeds, natural * 3 / 4);
    let spec: JobSpec = nomc_json::from_str(&text).expect("valid spec");
    let cfg = SweepConfig {
        retries: spec.retries,
        base_budget: spec.budget,
        threads: Some(1),
        shards: spec.shards,
        checkpoint_every: None,
        snapshot_dir: None,
    };
    let report = sweep::run_sweep(&spec.members(), &cfg, None, false).expect("in-process sweep");
    let counts = report.counts();
    assert_eq!(counts.ok, 2, "both members complete on their last attempt");
    assert!(
        counts.retried >= 1,
        "the budget must time a member out once"
    );
    (text, spec, report.to_json_string())
}

/// Polls `GET /jobs/<hex>` until the job is done, failing on a failed
/// job or after a generous wait.
fn wait_done(addr: std::net::SocketAddr, job_hex: &str) {
    let target = format!("/jobs/{job_hex}");
    for _ in 0..600 {
        let text = body_text(&exchange(addr, Method::Get, &target, b""));
        assert!(!text.contains("\"state\":\"failed\""), "job failed: {text}");
        if text.contains("\"state\":\"done\"") {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("job {job_hex} did not finish in time");
}

#[test]
fn a_served_job_reports_the_bytes_run_sweep_writes() {
    let (text, spec, expected) = retrying_job();
    let state = temp_dir("served-vs-sweep");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();
    let accepted = exchange(addr, Method::Post, "/jobs", text.as_bytes());
    assert_eq!(accepted.status, 202, "{}", body_text(&accepted));
    let job_hex = jobs::id_hex(jobs::job_id(&spec));
    wait_done(addr, &job_hex);
    let served = exchange(addr, Method::Get, &format!("/jobs/{job_hex}/report"), b"");
    assert_eq!(served.status, 200);
    assert_eq!(
        body_text(&served),
        expected,
        "a served job is the same sweep as `run_sweep` over its members"
    );
    drain_within(server, Duration::from_secs(60));
}

#[test]
fn a_journal_from_another_sweep_is_discarded_and_the_job_reruns() {
    let (text, spec, expected) = retrying_job();
    let state = temp_dir("foreign-journal");
    let id = jobs::job_id(&spec);
    let paths = jobs::paths(&state, id);
    std::fs::create_dir_all(&paths.snapshots).expect("job dir");
    std::fs::write(&paths.spec, &text).expect("spec planted");
    // Entries that would change the report if they were trusted, under
    // a header that names some other sweep.
    let hashes = spec.member_hashes();
    let planted: Vec<Option<MemberReport>> = hashes
        .iter()
        .enumerate()
        .map(|(member, &hash)| {
            Some(MemberReport {
                member,
                hash,
                attempts: Vec::new(),
            })
        })
        .collect();
    let foreign = sweep::hash::sweep_hash(&hashes) ^ 1;
    journal::persist(&paths.journal, foreign, None, &planted).expect("journal planted");

    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    wait_done(server.addr(), &jobs::id_hex(id));
    let report = std::fs::read_to_string(&paths.report).expect("report written");
    assert_eq!(report, expected, "the rerun ignores the foreign entries");
    // The journal was rewritten under this job's own sweep hash.
    let replay = journal::load(&paths.journal, sweep::hash::sweep_hash(&hashes), &hashes)
        .expect("the journal now belongs to this job")
        .expect("the journal exists");
    assert_eq!((replay.recovered(), replay.quarantined.len()), (2, 0));
    drain_within(server, Duration::from_secs(60));
}
