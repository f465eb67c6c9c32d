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

/// One exchange, returning the response's raw bytes (status line,
/// headers and body), for byte-identity checks.
fn raw_exchange(addr: std::net::SocketAddr, method: Method, target: &str, body: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&http::render_request(method, target, body))
        .expect("send request");
    read_raw(stream)
}

/// Reads `stream` to its end.
fn read_raw(mut stream: TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout settable");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    bytes
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
    // Once every hung-up handler is done, concurrent bursts are
    // answered in full again: the 62 handlers beyond the parked ones
    // have exited, and new connections get fresh ones.
    let mut answered = false;
    for _ in 0..100 {
        if burst(addr, 16, 1).iter().all(|&status| status == 200) {
            answered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(answered, "the server must answer normally after the burst");
    assert!(burst(addr, 8, 4).iter().all(|&status| status == 200));
    drain_within(server, Duration::from_secs(10));
}

/// `clients` concurrent clients each make `each` sequential
/// `GET /healthz` exchanges; returns every status (0 for a failed
/// exchange).
fn burst(addr: std::net::SocketAddr, clients: usize, each: usize) -> Vec<u16> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    (0..each)
                        .map(|_| {
                            try_exchange(addr, Method::Get, "/healthz", b"")
                                .map_or(0, |resp| resp.status)
                        })
                        .collect::<Vec<u16>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

#[test]
fn a_burst_wider_than_the_parked_handlers_is_answered_in_full() {
    let state = temp_dir("burst");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();
    for round in 0..3 {
        let statuses = burst(addr, 24, 5);
        assert_eq!(statuses.len(), 24 * 5);
        assert!(
            statuses.iter().all(|&status| status == 200),
            "round {round}: {statuses:?}"
        );
    }
    drain_within(server, Duration::from_secs(10));
}

#[test]
fn a_stalled_client_does_not_delay_other_requests() {
    let state = temp_dir("stalled");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &state);
    cfg.io_budget = Duration::from_secs(5);
    let server = Server::start(cfg).expect("server boots");
    let addr = server.addr();
    // Park handlers, then occupy more of them than park with silent
    // clients; each holds its handler until the I/O deadline.
    assert!(burst(addr, 4, 1).iter().all(|&status| status == 200));
    let stalled: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let started = std::time::Instant::now();
    for _ in 0..20 {
        assert_eq!(exchange(addr, Method::Get, "/healthz", b"").status, 200);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(2500),
        "20 exchanges beside stalled clients took {elapsed:?}"
    );
    drop(stalled);
    drain_within(server, Duration::from_secs(10));
}

#[test]
fn a_server_with_parked_handlers_drains_and_reboots() {
    let state = temp_dir("parked-drain");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    assert!(burst(server.addr(), 8, 2)
        .iter()
        .all(|&status| status == 200));
    drain_within(server, Duration::from_secs(5));
    let again = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server reboots");
    assert_eq!(
        exchange(again.addr(), Method::Get, "/healthz", b"").status,
        200
    );
    drain_within(again, Duration::from_secs(5));
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

/// The canonical spelling of `spec_json(seeds)` (what `nomc submit`
/// sends) and two other spellings of the same job: keys reordered, and
/// pretty-printed.
fn spellings(seeds: &[u64]) -> (String, String, String) {
    let spec: JobSpec = nomc_json::from_str(&spec_json(seeds)).expect("valid spec");
    let scenario = nomc_json::to_string(&spec.scenario);
    let seed_list = nomc_json::to_string(&spec.seeds);
    let reordered = format!(
        "{{\"seeds\":{seed_list},\"checkpoint_every\":50000,\"retries\":1,\"budget\":200000,\"scenario\":{scenario}}}"
    );
    (
        nomc_json::to_string(&spec),
        reordered,
        nomc_json::to_string_pretty(&spec),
    )
}

/// Submits `body` as new work and waits for it to finish; returns the
/// job's hex id.
fn run_to_done(addr: std::net::SocketAddr, body: &str) -> String {
    let accepted = exchange(addr, Method::Post, "/jobs", body.as_bytes());
    assert_eq!(accepted.status, 202, "{}", body_text(&accepted));
    let (id, _) = jobs::decode(body.as_bytes()).expect("valid spec");
    let hex = jobs::id_hex(id);
    wait_done(addr, &hex);
    hex
}

#[test]
fn every_spelling_of_a_job_gets_the_same_answer() {
    let (canonical, reordered, pretty) = spellings(&[1, 2]);
    assert_ne!(
        canonical,
        spec_json(&[1, 2]),
        "the hand-built spec is not canonical"
    );
    let state = temp_dir("spellings");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();
    // Admitted through a non-canonical spelling: the server remembers
    // the canonical text it writes to spec.json.
    let hex = run_to_done(addr, &spec_json(&[1, 2]));
    let on_disk =
        std::fs::read_to_string(state.join("jobs").join(&hex).join("spec.json")).expect("spec");
    assert_eq!(on_disk, canonical);
    let answer = raw_exchange(addr, Method::Post, "/jobs", canonical.as_bytes());
    let text = String::from_utf8_lossy(&answer).into_owned();
    assert!(text.starts_with("HTTP/1.1 200 "), "{text}");
    assert!(
        text.ends_with(&format!(
            "{{\"job\":\"{hex}\",\"state\":\"done\",\"cached\":true}}"
        )),
        "{text}"
    );
    for body in [&canonical, &reordered, &pretty, &spec_json(&[1, 2])] {
        assert_eq!(
            raw_exchange(addr, Method::Post, "/jobs", body.as_bytes()),
            answer,
            "{body}"
        );
    }
    drain_within(server, Duration::from_secs(60));
}

#[test]
fn a_known_body_gets_503_while_draining() {
    let (canonical, reordered, _) = spellings(&[4]);
    let state = temp_dir("known-draining");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();
    run_to_done(addr, &canonical);
    // Connections accepted before the drain are still served while it
    // runs. Accept is first-come, so once the probe is answered the
    // held ones are in.
    let mut held: Vec<TcpStream> = (0..6)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    assert_eq!(exchange(addr, Method::Get, "/healthz", b"").status, 200);
    let draining = std::thread::spawn(move || {
        server.drain();
        server.join();
    });
    // The listener closes just before the registry drains; ask the
    // held connections until one sees the drain.
    while TcpStream::connect(addr).is_ok() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut seen = false;
    while held.len() > 2 {
        let mut probe = held.pop().expect("held connection");
        probe
            .write_all(&http::render_request(Method::Get, "/healthz", b""))
            .expect("send");
        if String::from_utf8_lossy(&read_raw(probe)).contains("\"draining\":true") {
            seen = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(seen, "the registry never reported the drain");
    let mut answers = Vec::new();
    for (mut conn, body) in held.into_iter().zip([&canonical, &reordered]) {
        conn.write_all(&http::render_request(
            Method::Post,
            "/jobs",
            body.as_bytes(),
        ))
        .expect("send");
        answers.push(read_raw(conn));
    }
    let text = String::from_utf8_lossy(&answers[0]).into_owned();
    assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
    assert!(text.contains("server is draining"), "{text}");
    assert_eq!(answers[0], answers[1], "both paths refuse alike");
    draining.join().expect("drain");
}

#[test]
fn a_failed_job_answers_the_same_on_both_paths() {
    let (canonical, reordered, _) = spellings(&[5]);
    let state = temp_dir("failed-job");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();
    // A file where the job's directory belongs: persisting its spec
    // fails, and so does the worker, so the job ends failed.
    let (id, _) = jobs::decode(canonical.as_bytes()).expect("valid spec");
    let hex = jobs::id_hex(id);
    std::fs::write(state.join("jobs").join(&hex), b"in the way").expect("plant file");
    let first = exchange(addr, Method::Post, "/jobs", canonical.as_bytes());
    assert_eq!(first.status, 500, "{}", body_text(&first));
    assert!(body_text(&first).contains("persisting spec"));
    let status = body_text(&exchange(addr, Method::Get, &format!("/jobs/{hex}"), b""));
    assert!(status.contains("\"state\":\"failed\""), "{status}");
    let known = raw_exchange(addr, Method::Post, "/jobs", canonical.as_bytes());
    let text = String::from_utf8_lossy(&known).into_owned();
    assert!(
        text.ends_with(&format!(
            "{{\"job\":\"{hex}\",\"state\":\"failed\",\"cached\":true}}"
        )),
        "{text}"
    );
    assert_eq!(
        raw_exchange(addr, Method::Post, "/jobs", reordered.as_bytes()),
        known
    );
    drain_within(server, Duration::from_secs(60));
}

#[test]
fn after_a_restart_resubmits_answer_the_same_bytes() {
    let (canonical, reordered, _) = spellings(&[6, 7]);
    let state = temp_dir("restart-known");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    run_to_done(server.addr(), &canonical);
    let before = raw_exchange(server.addr(), Method::Post, "/jobs", canonical.as_bytes());
    drain_within(server, Duration::from_secs(60));

    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server reboots");
    let addr = server.addr();
    // Nothing is remembered across a restart, so every resubmission
    // takes the full path, and each answers the pre-restart bytes.
    for body in [&canonical, &canonical, &reordered, &canonical] {
        assert_eq!(
            raw_exchange(addr, Method::Post, "/jobs", body.as_bytes()),
            before,
            "{body}"
        );
    }
    drain_within(server, Duration::from_secs(60));
}

/// Every answer a client can get about a done job, as raw response
/// bytes, asked in the order given: `report_first` reads the report
/// before the status, so a job that is not resident is read back from
/// disk by the report route instead of the status route.
fn done_answers(
    addr: std::net::SocketAddr,
    hex: &str,
    bodies: &[&String],
    report_first: bool,
) -> Vec<Vec<u8>> {
    let mut answers: Vec<Vec<u8>> = bodies
        .iter()
        .map(|body| raw_exchange(addr, Method::Post, "/jobs", body.as_bytes()))
        .collect();
    let mut reads = [format!("/jobs/{hex}"), format!("/jobs/{hex}/report")];
    if report_first {
        reads.reverse();
    }
    for target in &reads {
        answers.push(raw_exchange(addr, Method::Get, target, b""));
    }
    if report_first {
        let n = answers.len();
        answers.swap(n - 2, n - 1);
    }
    answers
}

/// The bytes and modification time of each file in a job's directory.
fn job_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>, std::time::SystemTime)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("job dir")
        .flatten()
        .filter(|e| e.path().is_file())
        .map(|e| {
            let path = e.path();
            let modified = e.metadata().and_then(|m| m.modified()).expect("mtime");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("job file"), modified)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_done_job_answers_the_same_bytes_resident_evicted_and_restarted() {
    use nomc_serve::registry::MAX_RESIDENT_DONE;
    let (canonical, reordered, pretty) = spellings(&[8, 9]);
    let bodies = [&canonical, &reordered, &pretty];
    let state = temp_dir("evicted");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();
    let hex = run_to_done(addr, &canonical);
    let dir = state.join("jobs").join(&hex);
    let resident = done_answers(addr, &hex, &bodies, false);
    let report = std::fs::read(dir.join("report.json")).expect("report file");
    assert!(resident[bodies.len() + 1].ends_with(&report));
    let status = String::from_utf8_lossy(&resident[bodies.len()]).into_owned();
    assert!(
        status.contains("\"state\":\"done\",\"report\":{"),
        "{status}"
    );

    // More done jobs than stay resident send this one out of memory.
    let fillers: Vec<String> = (0..MAX_RESIDENT_DONE as u64)
        .map(|i| {
            let body = spec_json(&[100 + i]);
            let accepted = exchange(addr, Method::Post, "/jobs", body.as_bytes());
            assert_eq!(accepted.status, 202, "{}", body_text(&accepted));
            let (id, _) = jobs::decode(body.as_bytes()).expect("valid spec");
            jobs::id_hex(id)
        })
        .collect();
    for filler in &fillers {
        wait_done(addr, filler);
    }
    let done = MAX_RESIDENT_DONE + 1;
    let health = raw_exchange(addr, Method::Get, "/healthz", b"");
    assert!(
        String::from_utf8_lossy(&health).ends_with(&format!(
            "{{\"status\":\"ok\",\"queued\":0,\"running\":0,\"done\":{done},\"failed\":0,\"draining\":false}}"
        )),
        "{}",
        String::from_utf8_lossy(&health)
    );

    // Evicted: its event stream is a header and a close, resubmits of
    // any spelling are cache hits that write nothing, and the status
    // (read back from disk) and report answer the resident bytes.
    let events_target = format!("/jobs/{hex}/events");
    let events = raw_exchange(addr, Method::Get, &events_target, b"");
    assert_eq!(
        events,
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    );
    let files = job_files(&dir);
    let jobs_before = std::fs::read_dir(state.join("jobs")).expect("jobs").count();
    assert_eq!(done_answers(addr, &hex, &bodies, false), resident);
    assert_eq!(job_files(&dir), files, "a cache hit wrote to the job");
    let jobs_after = std::fs::read_dir(state.join("jobs")).expect("jobs").count();
    assert_eq!(jobs_after, jobs_before);
    assert_eq!(raw_exchange(addr, Method::Get, "/healthz", b""), health);
    drain_within(server, Duration::from_secs(60));

    // Restarted: the same bytes again, the report read back first; and
    // the event stream of a done job is the evicted one's.
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server reboots");
    let addr = server.addr();
    assert_eq!(raw_exchange(addr, Method::Get, "/healthz", b""), health);
    assert_eq!(raw_exchange(addr, Method::Get, &events_target, b""), events);
    assert_eq!(done_answers(addr, &hex, &bodies, true), resident);
    assert_eq!(job_files(&dir), files, "a cache hit wrote to the job");
    assert_eq!(raw_exchange(addr, Method::Get, "/healthz", b""), health);
    drain_within(server, Duration::from_secs(60));
}

#[test]
fn a_done_job_with_a_bad_report_answers_as_it_always_has() {
    let state = temp_dir("bad-report");
    let ids = [0x0bad_0001_u64, 0x0bad_0002];
    for (id, report) in ids.iter().zip([&b"{\"cut\":"[..], &b"\xff\xfe"[..]]) {
        let paths = jobs::paths(&state, *id);
        std::fs::create_dir_all(&paths.dir).expect("job dir");
        std::fs::write(&paths.report, report).expect("report planted");
    }
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();
    let health = body_text(&exchange(addr, Method::Get, "/healthz", b""));
    assert!(health.contains("\"done\":2"), "{health}");
    let parse_error = nomc_json::Json::parse("{\"cut\":")
        .expect_err("a cut document")
        .to_string();
    for (id, reason) in ids
        .iter()
        .zip([parse_error.as_str(), "stream did not contain valid UTF-8"])
    {
        let hex = jobs::id_hex(*id);
        // Twice each: a report that does not parse never becomes
        // resident, so both answers stay the disk path's.
        for _ in 0..2 {
            let status = exchange(addr, Method::Get, &format!("/jobs/{hex}"), b"");
            let want = nomc_json::Json::object([
                ("job", nomc_json::Json::Str(hex.clone())),
                ("state", nomc_json::Json::Str("done".into())),
                ("report_error", nomc_json::Json::Str(reason.into())),
            ]);
            assert_eq!((status.status, body_text(&status)), (200, want.dump()));
            let report = exchange(addr, Method::Get, &format!("/jobs/{hex}/report"), b"");
            let on_disk = std::fs::read(jobs::paths(&state, *id).report).expect("report");
            assert_eq!((report.status, report.body), (200, on_disk));
        }
    }
    drain_within(server, Duration::from_secs(60));
}
