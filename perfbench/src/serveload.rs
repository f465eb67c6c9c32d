//! `serve_mixed`: an in-process results server on loopback with a fresh
//! state directory, driven closed-loop by two clients. One submits fresh
//! checkpointed sweep jobs and follows each to its report; the other
//! resubmits jobs completed during set-up (cache hits) and reads their
//! status and report. After the timed window every fresh report is
//! checked byte for byte against an in-process sweep of its members.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nomc_experiments::sweep::{self, hash, MemberMetrics, SweepConfig, SweepReport};
use nomc_json::Json;
use nomc_serve::http::{self, Method, Parsed};
use nomc_serve::{jobs, JobSpec, ServeConfig, Server};
use nomc_sim::engine;

use crate::layers::{LayerObserver, SpanLog};
use crate::probes;
use crate::report::{
    guarded, run_for, scratch_dir, sliced_rate, Metric, Outcome, PROBE_REPEATS, RATE_SLICES,
};
use crate::scenarios::{self, JOB_CHECKPOINT_EVERY, JOB_MEMBERS};
use crate::stats::{self, Failure, Tally};

/// Jobs completed during set-up and resubmitted as cache hits.
const CACHED_JOBS: u64 = 3;
/// Fresh jobs whose members the traced run attributes per layer.
const ATTRIBUTED_JOBS: u64 = 2;
const FRESH_STREAM: u64 = 0;
const CACHED_STREAM: u64 = 1;
/// A request with no complete answer by then counts as a timeout.
const CLIENT_DEADLINE: Duration = Duration::from_secs(30);
/// The server accepts connections on a 25 ms poll, and a closed-loop
/// client that connects the moment its last answer arrived always lands
/// at the same point of that cycle, so job latencies would fall on poll
/// steps. Before the two connects of a fresh job whose wait the job's
/// run does not hide (the submit and the report fetch) the client
/// pauses for a seeded time below this span, which the job's latency
/// does not count. The latency is then averaged over arrival times, as
/// independent clients see it, and follows the job's run time smoothly.
const DITHER_US: u64 = 25_000;

type Checked<T> = Result<T, (Failure, String)>;

/// A job completed during set-up.
struct CachedJob {
    body: Vec<u8>,
    hex: String,
    report: Vec<u8>,
    canonical: String,
}

/// The booted server and everything the clients check against.
pub struct ServeWorkload {
    server: Option<Server>,
    addr: SocketAddr,
    state: PathBuf,
    seed: u64,
    cached: Vec<CachedJob>,
    /// The next fresh job's number: every job a run submits is new.
    next_job: AtomicU64,
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    ok_requests: u64,
    cached_hits: u64,
    job_ms: Vec<f64>,
    /// When each fresh job's report arrived, in seconds into the window.
    job_done_at: Vec<f64>,
    cached_ms: Vec<f64>,
    /// Every fresh report served, with its job's number.
    served: Vec<(u64, Vec<u8>)>,
    spans: Option<SpanLog>,
}

impl ClientLog {
    fn span(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        a: Instant,
        b: Instant,
    ) -> Option<u64> {
        self.spans
            .as_mut()
            .map(|s| s.record(name, req, parent, a, b))
    }

    fn request_id(&mut self) -> u64 {
        self.spans.as_mut().map_or(0, SpanLog::next_id)
    }

    /// Counts one request; successful ones add to the request rate.
    fn count<T>(&mut self, outcome: Checked<T>) -> Option<T> {
        match outcome {
            Ok(v) => {
                self.tally.record(Ok(()));
                self.ok_requests += 1;
                Some(v)
            }
            Err(e) => {
                self.tally.record(Err(e));
                None
            }
        }
    }
}

/// One HTTP exchange as the client saw it.
struct Reply {
    status: u16,
    body: Vec<u8>,
    first_byte: Instant,
    done: Instant,
}

fn io_failure(context: &str, e: &std::io::Error) -> (Failure, String) {
    (Failure::Timeout, format!("{context}: {e}"))
}

fn open(addr: SocketAddr, method: Method, target: &str, body: &[u8]) -> Checked<TcpStream> {
    let mut stream = TcpStream::connect(addr).map_err(|e| io_failure("connect", &e))?;
    stream
        .set_read_timeout(Some(CLIENT_DEADLINE))
        .and_then(|()| stream.set_write_timeout(Some(CLIENT_DEADLINE)))
        .map_err(|e| io_failure("socket options", &e))?;
    stream
        .write_all(&http::render_request(method, target, body))
        .map_err(|e| io_failure("send", &e))?;
    Ok(stream)
}

/// Sends one request and reads the whole `Connection: close` response.
fn exchange(addr: SocketAddr, method: Method, target: &str, body: &[u8]) -> Checked<Reply> {
    let mut stream = open(addr, method, target, body)?;
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut first_byte = None;
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| io_failure("read", &e))?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(Instant::now);
        bytes.extend_from_slice(&chunk[..n]);
    }
    let done = Instant::now();
    match http::parse_response(&bytes) {
        Ok(Parsed::Complete { value, .. }) => {
            let reply = Reply {
                status: value.status,
                body: value.body,
                first_byte: first_byte.unwrap_or(done),
                done,
            };
            match Failure::from_status(reply.status) {
                None => Ok(reply),
                Some(f) => Err((
                    f,
                    format!("{target}: {}", String::from_utf8_lossy(&reply.body)),
                )),
            }
        }
        Ok(Parsed::Partial) => Err((Failure::Timeout, format!("{target}: truncated response"))),
        Err(e) => Err((
            Failure::Status(0),
            format!("{target}: unparsable response: {e}"),
        )),
    }
}

/// Follows `/jobs/<id>/events` to its end; each line with the time it
/// arrived.
fn follow_events(addr: SocketAddr, hex: &str) -> Checked<Vec<(Instant, Json)>> {
    let target = format!("/jobs/{hex}/events");
    let mut stream = open(addr, Method::Get, &target, b"")?;
    let mut buf: Vec<u8> = Vec::new();
    let mut body_at = None;
    let mut lines = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| io_failure("events", &e))?;
        if n == 0 {
            break;
        }
        let now = Instant::now();
        buf.extend_from_slice(&chunk[..n]);
        if body_at.is_none() {
            if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                if !buf.starts_with(b"HTTP/1.1 200") {
                    let head = String::from_utf8_lossy(&buf[..end]).into_owned();
                    return Err((Failure::Status(0), format!("{target}: {head}")));
                }
                body_at = Some(end + 4);
            }
        }
        if let Some(at) = body_at {
            while let Some(nl) = buf[at..].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(at..at + nl + 1).collect();
                let text = String::from_utf8_lossy(&line);
                let json = Json::parse(text.trim())
                    .map_err(|e| (Failure::Mismatch, format!("{target}: bad event line: {e}")))?;
                lines.push((now, json));
            }
        }
    }
    Ok(lines)
}

/// The report an in-process sweep of `spec`'s members renders: what the
/// server must serve byte for byte.
fn reference_report(spec: &JobSpec) -> String {
    let cfg = SweepConfig {
        retries: spec.retries,
        base_budget: spec.budget,
        threads: Some(1),
        shards: spec.shards,
        checkpoint_every: None,
        snapshot_dir: None,
    };
    let members = spec
        .members()
        .iter()
        .enumerate()
        .map(|(i, m)| sweep::run_one_member(m, i, &cfg, &mut []))
        .collect();
    SweepReport {
        sweep_hash: hash::sweep_hash(&spec.member_hashes()),
        members,
    }
    .to_json_string()
}

/// Whether `bytes` is exactly the report of fresh job `job` under `seed`.
fn matches_reference(seed: u64, job: u64, bytes: &[u8]) -> Checked<()> {
    let spec = scenarios::job_spec(seed, FRESH_STREAM, job);
    let want = guarded(|| reference_report(&spec))?;
    if bytes == want.as_bytes() {
        Ok(())
    } else {
        Err((
            Failure::Mismatch,
            format!("job {job}: report differs from the in-process sweep"),
        ))
    }
}

fn expect_body(reply: &Reply, want: &str, what: &str) -> Checked<()> {
    if reply.body == want.as_bytes() {
        Ok(())
    } else {
        Err((
            Failure::Mismatch,
            format!(
                "{what}: got {}, want {want}",
                String::from_utf8_lossy(&reply.body)
            ),
        ))
    }
}

impl ServeWorkload {
    /// Boots a server on a fresh state directory, completes the jobs the
    /// cache-hit client will resubmit, and computes every reference.
    pub fn setup(seed: u64, attempt: usize) -> Result<ServeWorkload, String> {
        let state = scratch_dir(&format!("serve-state{attempt}"));
        let server =
            Server::start(ServeConfig::new("127.0.0.1:0", &state)).map_err(|e| e.to_string())?;
        let mut w = ServeWorkload {
            addr: server.addr(),
            server: Some(server),
            state,
            seed,
            cached: Vec::new(),
            next_job: AtomicU64::new(0),
        };
        for c in 0..CACHED_JOBS {
            let spec = scenarios::job_spec(seed, CACHED_STREAM, c);
            let want = reference_report(&spec);
            let mut log = ClientLog::default();
            let report = w
                .fresh_job(&spec, Some(&want), [Duration::ZERO; 2], &mut log)
                .ok_or_else(|| format!("set-up job {c} failed: {:?}", log.tally.notes))?;
            let canonical = Json::parse(&want).map_err(|e| e.to_string())?.to_string();
            w.cached.push(CachedJob {
                body: nomc_json::to_string(&spec).into_bytes(),
                hex: jobs::id_hex(jobs::job_id(&spec)),
                report,
                canonical,
            });
        }
        Ok(w)
    }

    /// Reference digests: the reports of the jobs completed in set-up.
    pub fn digests(&self) -> Vec<u64> {
        self.cached
            .iter()
            .map(|c| scenarios::text_digest(&String::from_utf8_lossy(&c.report)))
            .collect()
    }

    /// Drains the server, waits for its threads and removes its state.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.drain();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.state);
    }

    /// Submits `spec`, follows its event stream and fetches its report,
    /// which must equal `reference` when one is given. Returns the report
    /// bytes when every step succeeded.
    fn fresh_job(
        &self,
        spec: &JobSpec,
        reference: Option<&str>,
        pauses: [Duration; 2],
        log: &mut ClientLog,
    ) -> Option<Vec<u8>> {
        let hex = jobs::id_hex(jobs::job_id(spec));
        let req = log.request_id();
        let body = nomc_json::to_string(spec);
        std::thread::sleep(pauses[0]);
        let t0 = Instant::now();
        let ack = log.count(
            exchange(self.addr, Method::Post, "/jobs", body.as_bytes()).and_then(|r| {
                let want = format!("{{\"job\":\"{hex}\",\"state\":\"queued\",\"cached\":false}}");
                expect_body(&r, &want, "fresh submit").map(|()| r)
            }),
        )?;
        let root = Some(log.request_id());
        log.span("serve.connect", req, root, t0, ack.first_byte);
        log.span("serve.ack", req, root, t0, ack.done);

        let events = log.count(
            follow_events(self.addr, &hex).and_then(|lines| check_story(&lines).map(|()| lines)),
        )?;
        let at = |name: &str| {
            events
                .iter()
                .find(|(_, j)| j["event"].as_str() == Some(name))
                .map(|(t, _)| *t)
        };
        let (started, finished) = (at("started")?, at("done")?);
        log.span("serve.queue_wait", req, root, ack.done, started);
        log.span("serve.job_run", req, root, started, finished);
        let mut prev = started;
        for (t, _) in events
            .iter()
            .filter(|(_, j)| j["event"].as_str() == Some("member"))
        {
            log.span("serve.member", req, root, prev, *t);
            prev = *t;
        }

        std::thread::sleep(pauses[1]);
        let fetch_start = Instant::now();
        let report = log.count(
            exchange(self.addr, Method::Get, &format!("/jobs/{hex}/report"), b"")
                .and_then(|r| check_report(reference, &r.body).map(|()| r)),
        )?;
        log.span("serve.report_fetch", req, root, fetch_start, report.done);
        if let (Some(spans), Some(id)) = (log.spans.as_mut(), root) {
            spans.record_as(id, "serve.job", req, None, t0, report.done);
        }
        let latency = report.done.duration_since(t0) - pauses[1];
        log.job_ms.push(latency.as_secs_f64() * 1e3);
        Some(report.body)
    }

    /// Resubmits a completed job (a cache hit), then reads its status
    /// and its report; both must match what set-up received.
    fn cached_hit(&self, job: &CachedJob, log: &mut ClientLog) {
        let req = log.request_id();
        let t0 = Instant::now();
        let want = format!(
            "{{\"job\":\"{}\",\"state\":\"done\",\"cached\":true}}",
            job.hex
        );
        let Some(hit) = log.count(
            exchange(self.addr, Method::Post, "/jobs", &job.body)
                .and_then(|r| expect_body(&r, &want, "cache hit").map(|()| r)),
        ) else {
            return;
        };
        log.cached_hits += 1;
        log.cached_ms
            .push(hit.done.duration_since(t0).as_secs_f64() * 1e3);
        let root = log.span("serve.cached", req, None, t0, hit.done);
        log.span("serve.connect", req, root, t0, hit.first_byte);

        let status =
            exchange(self.addr, Method::Get, &format!("/jobs/{}", job.hex), b"").and_then(|r| {
                let json = Json::parse(&String::from_utf8_lossy(&r.body))
                    .map_err(|e| (Failure::Mismatch, format!("status: {e}")))?;
                if json["state"].as_str() == Some("done")
                    && json["report"].to_string() == job.canonical
                {
                    Ok(())
                } else {
                    Err((
                        Failure::Mismatch,
                        "status of a cached job lost its report".into(),
                    ))
                }
            });
        log.count(status);
        let report = exchange(
            self.addr,
            Method::Get,
            &format!("/jobs/{}/report", job.hex),
            b"",
        )
        .and_then(|r| {
            if r.body == job.report {
                Ok(())
            } else {
                Err((
                    Failure::Mismatch,
                    "cache hit is not byte-identical to its fresh report".into(),
                ))
            }
        });
        log.count(report);
    }

    /// Drives both clients for `seconds`; returns the merged log and the
    /// wall seconds.
    fn drive(&self, seconds: f64, spans: Option<&SpanLog>) -> (ClientLog, f64) {
        let mut fresh = ClientLog {
            spans: spans.map(|s| s.fork(1 << 40)),
            ..ClientLog::default()
        };
        let mut cached = ClientLog {
            spans: spans.map(|s| s.fork(2 << 40)),
            ..ClientLog::default()
        };
        let mut next_job = self.next_job.load(Ordering::Relaxed);
        let start = Instant::now();
        let mut fresh_step = |log: &mut ClientLog| {
            let spec = scenarios::job_spec(self.seed, FRESH_STREAM, next_job);
            let pauses = [0, 1].map(|k| {
                Duration::from_micros(scenarios::mix(self.seed, 2 * next_job + k) % DITHER_US)
            });
            if let Some(report) = self.fresh_job(&spec, None, pauses, log) {
                log.job_done_at.push(start.elapsed().as_secs_f64());
                log.served.push((next_job, report));
            }
            next_job += 1;
        };
        let cached_step = |i: usize, log: &mut ClientLog| {
            self.cached_hit(&self.cached[i % self.cached.len()], log);
        };
        if crate::meta::nproc() >= 2 {
            std::thread::scope(|s| {
                s.spawn(|| run_for(seconds, 1, |i| cached_step(i, &mut cached)));
                run_for(seconds, 1, |_| fresh_step(&mut fresh));
            });
        } else {
            // One CPU: one connection at a time, alternating roles.
            run_for(seconds, 1, |i| {
                fresh_step(&mut fresh);
                cached_step(i, &mut cached);
            });
        }
        let window = start.elapsed().as_secs_f64();
        self.next_job.store(next_job, Ordering::Relaxed);
        fresh.tally.merge(cached.tally);
        fresh.ok_requests += cached.ok_requests;
        fresh.cached_hits += cached.cached_hits;
        fresh.cached_ms = cached.cached_ms;
        if let (Some(a), Some(b)) = (fresh.spans.as_mut(), cached.spans) {
            a.absorb(b);
        }
        (fresh, window)
    }

    /// Checks every served fresh report byte for byte against the report
    /// an in-process sweep of the same members renders, one check per
    /// report. Runs after the timed window, on every CPU.
    fn verify(&self, served: &[(u64, Vec<u8>)], tally: &mut Tally) {
        let check = |(job, bytes): &(u64, Vec<u8>)| matches_reference(self.seed, *job, bytes);
        let part = served.len().div_ceil(crate::meta::nproc()).max(1);
        let outcomes: Vec<Checked<()>> = std::thread::scope(|s| {
            let workers: Vec<_> = served
                .chunks(part)
                .map(|chunk| s.spawn(move || chunk.iter().map(check).collect::<Vec<_>>()))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("reference panics are caught"))
                .collect()
        });
        for outcome in outcomes {
            tally.record(outcome);
        }
    }

    /// The untraced run's end-to-end metrics, plus the cache-hit
    /// latencies the report shows beside them.
    pub fn measure(&self, seconds: f64, tally: &mut Tally) -> (Vec<Metric>, Vec<Metric>) {
        let (log, window) = self.drive(seconds, None);
        tally.merge(log.tally.clone());
        self.verify(&log.served, tally);
        (
            e2e(&log, window),
            Metric::latency("serve.cached_ms", &log.cached_ms),
        )
    }

    /// The traced run: an untraced then a traced half, client spans per
    /// layer, the physics of the job members attributed in-process, and
    /// the probes at the job's operating point.
    pub fn trace(&self, seconds: f64, tally: &mut Tally, spans: &mut SpanLog) -> Outcome {
        let mut out = Outcome::default();
        let start = Instant::now();
        let (plain, plain_window) = self.drive(seconds / 2.0, None);
        spans.record("untraced", 0, None, start, Instant::now());
        let start = Instant::now();
        let (traced, traced_window) = self.drive(seconds / 2.0, Some(spans));
        spans.record("traced", 0, None, start, Instant::now());
        tally.merge(plain.tally.clone());
        tally.merge(traced.tally.clone());
        self.verify(&plain.served, tally);
        self.verify(&traced.served, tally);
        let client_spans = traced
            .spans
            .as_ref()
            .expect("the traced half records spans");
        for name in [
            "serve.connect",
            "serve.ack",
            "serve.queue_wait",
            "serve.job_run",
            "serve.member",
            "serve.report_fetch",
        ] {
            let ms = client_spans.durations_ms(name);
            out.layer(
                &format!("{name}_ms"),
                stats::median(&ms).unwrap_or(0.0),
                "ms",
                ms.len(),
            );
        }
        out.layers
            .extend(Metric::latency("serve.cached_ms", &traced.cached_ms));
        out.layer("serve.cached_hits", traced.cached_hits as f64, "count", 1);
        out.layer(
            "serve.shed_429",
            traced.tally.count(Failure::Shed) as f64,
            "count",
            1,
        );
        out.layer(
            "serve.unavailable_503",
            traced.tally.count(Failure::Unavailable) as f64,
            "count",
            1,
        );
        let plain_rate = plain.ok_requests as f64 / plain_window;
        let traced_rate = traced.ok_requests as f64 / traced_window;
        out.layer(
            "trace.overhead_frac",
            1.0 - traced_rate / plain_rate,
            "frac",
            traced.ok_requests as usize,
        );
        if let Some(s) = traced.spans {
            spans.absorb(s);
        }

        // The server runs the members; their physics is attributed on
        // the same members in-process, and each traced result must match
        // the server's untraced one.
        let start = Instant::now();
        let mut obs = LayerObserver::default();
        let mut runs = 0usize;
        for k in 0..ATTRIBUTED_JOBS {
            let spec = scenarios::job_spec(self.seed, FRESH_STREAM, k);
            let untraced = plain
                .served
                .iter()
                .find(|(job, _)| *job == k)
                .map(|(_, bytes)| String::from_utf8_lossy(bytes).into_owned())
                .unwrap_or_else(|| reference_report(&spec));
            let report: Option<SweepReport> = nomc_json::from_str(&untraced).ok();
            for (i, member) in spec.members().iter().enumerate() {
                let traced = MemberMetrics::of(&engine::run_with(member, &mut [&mut obs]));
                runs += 1;
                let served = report
                    .as_ref()
                    .and_then(|r| r.members.get(i))
                    .and_then(|m| m.metrics());
                tally.record(if served == Some(&traced) {
                    Ok(())
                } else {
                    Err((
                        Failure::Mismatch,
                        format!("job {k} member {i}: traced result differs from the served one"),
                    ))
                });
            }
        }
        out.runtime(&obs.self_ns, runs, &obs.counts, runs);
        spans.record("member_attribution", 0, None, start, Instant::now());

        let start = Instant::now();
        let spec = scenarios::job_spec(self.seed, FRESH_STREAM, 0);
        let members = spec.members();
        out.layers(probes::kernels(&members[0]), PROBE_REPEATS);
        out.layers(
            probes::shard(&members[0], crate::meta::nproc()),
            PROBE_REPEATS,
        );
        let dir = scratch_dir("probe");
        out.layers(
            probes::durability(&members[0], false, JOB_CHECKPOINT_EVERY, &members, &dir),
            PROBE_REPEATS,
        );
        let _ = std::fs::remove_dir_all(&dir);
        out.layers(probes::request_path(&spec), PROBE_REPEATS);
        spans.record("probes", 0, None, start, Instant::now());
        out
    }
}

/// The end-to-end metrics of one driven window. The simulated rate is
/// the median over slices of the window, so a stall of the shared disk
/// moves one slice, not the rate.
fn e2e(log: &ClientLog, window: f64) -> Vec<Metric> {
    let sim_s_per_job = JOB_MEMBERS as f64 * scenarios::job_scenario().duration.as_secs_f64();
    [
        Metric::latency("result_ms", &log.job_ms),
        Metric::rate(
            "requests_per_s",
            log.ok_requests as f64 / window,
            "1/s",
            log.ok_requests as usize,
        ),
        Metric::rate(
            "sim_s_per_s",
            sliced_rate(&log.job_done_at, window, RATE_SLICES) * sim_s_per_job,
            "s/s",
            log.job_ms.len(),
        ),
    ]
    .concat()
}

/// A served report must equal its in-process reference when set-up
/// gives one; fresh reports are compared by [`ServeWorkload::verify`].
fn check_report(reference: Option<&str>, bytes: &[u8]) -> Checked<()> {
    match reference {
        Some(want) if bytes != want.as_bytes() => Err((
            Failure::Mismatch,
            "report differs from the in-process sweep".into(),
        )),
        _ => Ok(()),
    }
}

/// A job's event story must be: started, one `member` line per member
/// with outcome `ok`, then `done`.
fn check_story(lines: &[(Instant, Json)]) -> Checked<()> {
    let events: Vec<&str> = lines
        .iter()
        .filter_map(|(_, j)| j["event"].as_str())
        .collect();
    let members: Vec<&Json> = lines
        .iter()
        .map(|(_, j)| j)
        .filter(|j| j["event"].as_str() == Some("member"))
        .collect();
    let ok = events.first() == Some(&"started")
        && events.last() == Some(&"done")
        && members.len() == JOB_MEMBERS;
    if !ok {
        return Err((
            Failure::Mismatch,
            format!("unexpected job story: {events:?}"),
        ));
    }
    match members.iter().find(|m| m["outcome"].as_str() != Some("ok")) {
        Some(m) if m["outcome"].as_str() == Some("timed_out") => Err((
            Failure::BudgetExhausted,
            "a member ran out of events".into(),
        )),
        Some(m) => Err((
            Failure::Mismatch,
            format!("member outcome {}", m["outcome"]),
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_served_report_must_match_its_own_job_byte_for_byte() {
        let report = reference_report(&scenarios::job_spec(3, FRESH_STREAM, 0));
        assert!(matches_reference(3, 0, report.as_bytes()).is_ok());
        let mut flipped = report.clone().into_bytes();
        let last_digit = flipped.iter().rposition(u8::is_ascii_digit).unwrap();
        flipped[last_digit] ^= 1; // another digit, so still valid JSON
        assert_eq!(
            matches_reference(3, 0, &flipped).unwrap_err().0,
            Failure::Mismatch
        );
        assert!(matches_reference(3, 1, report.as_bytes()).is_err());
    }
}
