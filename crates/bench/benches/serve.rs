//! Results-server kernels: the two costs every `nomc serve` client
//! pays on the happy path.
//!
//! * `http_parse` — the total HTTP/1.1 request parser on a canned
//!   `POST /jobs` head + small body. Every connection pays this before
//!   any admission logic runs, and it is the surface hostile bytes hit
//!   first, so it must stay cheap even as the grammar grows.
//! * `submit_roundtrip` — one full cache-hit submit over a real TCP
//!   socket against an in-process server with the job already
//!   completed: connect, POST the spec, read the `cached:true` ack.
//!   Its hand-built body is not the canonical spelling (it omits
//!   `shards` and `checkpoint_every`), so this prices the full
//!   deduplication path (parse → spec decode → content hash → registry
//!   lookup → render) plus the loopback socket round trip.
//! * `submit_cached_canonical` — the same cache hit with the canonical
//!   body, `nomc_json::to_string(&spec)`, as `nomc submit` sends it:
//!   the registry recognises the bytes and skips decode and hashing,
//!   so this is the latency a sweep script sees when its work is
//!   already done.
//! * `status_done` and `report_done` — `GET /jobs/<id>` and
//!   `GET /jobs/<id>/report` of that completed job, the two reads that
//!   follow a cache hit. Both answer bytes rendered once when the job
//!   finished, so they price the registry lookup and the loopback round
//!   trip.
//!
//! `cargo bench -p nomc-bench --bench serve` writes `BENCH_serve.json`,
//! the perf-trajectory record ci.sh smoke-checks.

use nomc_bench::harness::Criterion;
use nomc_bench::{criterion_group, criterion_main};
use nomc_serve::http::{self, Method, Parsed};
use nomc_serve::{jobs, ServeConfig, Server};
use nomc_sim::Scenario;
use nomc_topology::{paper, spectrum::ChannelPlan};
use nomc_units::{Dbm, Megahertz, SimDuration};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn tiny_scenario() -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_secs(1));
    b.build().expect("valid bench scenario")
}

fn spec_bytes() -> Vec<u8> {
    let scenario = nomc_json::to_string(&tiny_scenario());
    format!("{{\"scenario\":{scenario},\"seeds\":[1],\"budget\":200000,\"retries\":1}}")
        .into_bytes()
}

fn exchange(addr: std::net::SocketAddr, body: &[u8]) -> (u16, Vec<u8>) {
    send(addr, Method::Post, "/jobs", body)
}

fn send(addr: std::net::SocketAddr, method: Method, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout settable");
    stream
        .write_all(&http::render_request(method, target, body))
        .expect("send");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read");
    match http::parse_response(&bytes).expect("valid response") {
        Parsed::Complete { value, .. } => (value.status, value.body),
        Parsed::Partial => panic!("truncated response"),
    }
}

fn bench_serve(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");

    // A realistic small request: canned head + JSON body, reparsed
    // from the same bytes every iteration.
    let request = http::render_request(Method::Post, "/jobs", br#"{"seeds":[1,2,3]}"#);
    g.bench_function("http_parse", |b| {
        b.iter(|| match http::parse_request(black_box(&request)) {
            Ok(Parsed::Complete { value, .. }) => value.body.len(),
            other => panic!("canned request must parse: {other:?}"),
        })
    });

    // One server, one pre-completed job; every iteration is a
    // cache-hit POST over loopback.
    let state = std::env::temp_dir()
        .join("nomc-serve-bench")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&state);
    std::fs::create_dir_all(&state).expect("bench state dir");
    let server = Server::start(ServeConfig::new("127.0.0.1:0", &state)).expect("server boots");
    let addr = server.addr();
    let spec = spec_bytes();
    let (status, ack) = exchange(addr, &spec);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&ack));
    // Wait for the job to finish so the benched path is pure dedup of
    // a completed job (a resubmit is a cache hit even mid-run, but the
    // reported state must be stable across iterations).
    let mut done = false;
    for _ in 0..600 {
        let (status, body) = exchange(addr, &spec);
        assert_eq!(status, 200, "resubmit must dedupe");
        let text = String::from_utf8_lossy(&body).into_owned();
        assert!(text.contains("\"cached\":true"), "{text}");
        if text.contains("\"state\":\"done\"") {
            done = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(done, "bench job never finished");
    g.sample_size(20);
    let (_, decoded) = jobs::decode(&spec).expect("bench spec is valid");
    let canonical = nomc_json::to_string(&decoded).into_bytes();
    let hex = jobs::id_hex(jobs::job_id(&decoded));
    let status_target = format!("/jobs/{hex}");
    let report_target = format!("/jobs/{hex}/report");
    let empty = Vec::new();
    for (name, method, target, body) in [
        ("submit_roundtrip", Method::Post, "/jobs", &spec),
        ("submit_cached_canonical", Method::Post, "/jobs", &canonical),
        ("status_done", Method::Get, status_target.as_str(), &empty),
        ("report_done", Method::Get, report_target.as_str(), &empty),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let (status, body) = send(addr, method, black_box(target), black_box(body));
                assert_eq!(status, 200);
                body.len()
            })
        });
    }
    g.finish();

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}

criterion_group!(serve, bench_serve);
criterion_main!(serve);
