//! Kernel probes for the traced run: each times calls to one public
//! function of one layer at the workload's operating point (its channel
//! plan, positions and frame), outside any simulation run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use nomc_experiments::sweep::{self, checkpoint, hash, journal, MemberReport, SweepConfig};
use nomc_phy::{AcrLut, BerModel};
use nomc_rngcore::SeedableRng;
use nomc_serve::http::{self, Method, Parsed};
use nomc_serve::JobSpec;
use nomc_sim::events::{BucketQueue, Event};
use nomc_sim::medium::{self, Medium, Segment, Transmission};
use nomc_sim::rng::Xoshiro256StarStar;
use nomc_sim::{engine, JsonlTracer, RunProgress, Scenario};
use nomc_units::{Db, Dbm, Megahertz, MilliWatts, SimDuration, SimTime};

use crate::report::PROBE_REPEATS;

#[cfg(nomc_event_queue_trait)]
use nomc_sim::events::EventQueue;

/// Per-layer metrics measured by probes: name → value.
pub type Probed = BTreeMap<String, f64>;

const BATCHES: usize = 7;
const BATCH_NS: u128 = 4_000_000;

/// Median over [`BATCHES`] batches of host ns per call; each batch
/// repeats `round` (which returns how many calls it made) for at least
/// 4 ms.
fn ns_per_call(mut round: impl FnMut() -> u64) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed().as_nanos() < BATCH_NS {
            calls += round();
        }
        per_call.push(start.elapsed().as_nanos() as f64 / calls.max(1) as f64);
    }
    crate::stats::median(&per_call).unwrap_or(0.0)
}

/// Median host milliseconds of [`PROBE_REPEATS`] calls of `op`.
fn median_ms<T>(mut op: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let start = Instant::now();
            black_box(op());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times).unwrap_or(0.0)
}

/// One link of the operating point with every sender on air.
struct LinkPoint {
    id: u64,
    receiver: usize,
    freq: Megahertz,
    signal: Dbm,
    start: SimTime,
    mpdu_start: SimTime,
    end: SimTime,
}

/// The workload's medium with one frame per link on air, staggered by
/// 100 µs so receptions see several interference segments.
struct OperatingPoint {
    medium: Medium,
    links: Vec<LinkPoint>,
    senders: Vec<(usize, Megahertz)>,
    noise: MilliWatts,
    model: BerModel,
    frame_bits: u32,
}

impl OperatingPoint {
    fn of(sc: &Scenario) -> OperatingPoint {
        let positions: Vec<_> = sc
            .deployment
            .networks
            .iter()
            .flat_map(|n| n.links.iter().flat_map(|l| [l.tx, l.rx]))
            .collect();
        let noise = sc.propagation.noise.power();
        let mut medium = Medium::new(sc.propagation.acr.clone(), noise);
        let frame_bits = sc.frame.mpdu_bytes() * 8;
        let airtime = SimDuration::from_micros(u64::from(frame_bits) * 4);
        let header = SimDuration::from_micros(192);
        let mut links = Vec::new();
        let mut senders = Vec::new();
        let specs = sc
            .deployment
            .networks
            .iter()
            .flat_map(|n| n.links.iter().map(move |l| (n.frequency, l.tx_power)));
        for (g, (freq, tx_power)) in specs.enumerate() {
            let sender = 2 * g;
            let rx_power: Vec<Dbm> = positions
                .iter()
                .enumerate()
                .map(|(o, &p)| {
                    if o == sender {
                        tx_power
                    } else {
                        tx_power
                            - sc.propagation
                                .path_loss
                                .loss(positions[sender].distance_to(p))
                    }
                })
                .collect();
            let start = SimTime::from_micros(100 * g as u64);
            let id = g as u64 + 1;
            links.push(LinkPoint {
                id,
                receiver: sender + 1,
                freq,
                signal: rx_power[sender + 1],
                start,
                mpdu_start: start + header,
                end: start + header + airtime,
            });
            senders.push((sender, freq));
            medium.add(Transmission {
                id,
                tx_node: sender,
                link: g,
                frequency: freq,
                start,
                mpdu_start: start + header,
                end: start + header + airtime,
                seq: 1,
                forced: false,
                rx_power,
            });
        }
        OperatingPoint {
            medium,
            links,
            senders,
            noise,
            model: sc.radio.ber_model,
            frame_bits,
        }
    }

    /// The instant every frame overlaps the most.
    fn busiest(&self) -> SimTime {
        self.links
            .iter()
            .map(|l| l.mpdu_start)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn payload_segments(&self, l: &LinkPoint) -> Vec<Segment> {
        self.medium
            .interference_segments(l.id, l.receiver, l.freq, l.mpdu_start, l.end)
    }

    fn header_segments(&self, l: &LinkPoint) -> Vec<Segment> {
        self.medium
            .interference_segments(l.id, l.receiver, l.freq, l.start, l.mpdu_start)
    }

    fn sinrs(&self) -> Vec<Db> {
        self.links
            .iter()
            .map(|l| {
                let worst = self
                    .payload_segments(l)
                    .iter()
                    .map(|s| s.interference)
                    .fold(MilliWatts::ZERO, |a, b| if b > a { b } else { a });
                nomc_phy::sinr::sinr_linear(l.signal.to_milliwatts(), worst + self.noise)
            })
            .collect()
    }

    fn cfds(&self) -> Vec<Megahertz> {
        let mut out = Vec::new();
        for &(_, a) in &self.senders {
            for &(_, b) in &self.senders {
                out.push(Megahertz::new((a.value() - b.value()).abs()));
            }
        }
        out
    }
}

/// Medium, PHY and event-queue kernels at `sc`'s operating point.
pub fn kernels(sc: &Scenario) -> Probed {
    let op = OperatingPoint::of(sc);
    let now = op.busiest();
    let mut out = Probed::new();
    out.insert(
        "medium.sensed_total_ns".into(),
        ns_per_call(|| {
            for &(node, freq) in &op.senders {
                black_box(op.medium.sensed_total(node, freq, black_box(now)));
            }
            op.senders.len() as u64
        }),
    );
    out.insert(
        "medium.interference_segments_ns".into(),
        ns_per_call(|| {
            for l in &op.links {
                black_box(op.payload_segments(l));
            }
            op.links.len() as u64
        }),
    );
    let payload: Vec<(Vec<Segment>, Dbm)> = op
        .links
        .iter()
        .map(|l| (op.payload_segments(l), l.signal))
        .collect();
    let headers: Vec<(Vec<Segment>, Dbm)> = op
        .links
        .iter()
        .map(|l| (op.header_segments(l), l.signal))
        .collect();
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    out.insert(
        "medium.sample_segment_errors_ns".into(),
        ns_per_call(|| {
            for (segs, signal) in &payload {
                black_box(medium::sample_segment_errors(
                    &mut rng, segs, *signal, op.noise, op.model,
                ));
            }
            payload.len() as u64
        }),
    );
    out.insert(
        "medium.sync_success_probability_ns".into(),
        ns_per_call(|| {
            for (segs, signal) in &headers {
                black_box(medium::sync_success_probability(
                    segs, *signal, op.noise, op.model,
                ));
            }
            headers.len() as u64
        }),
    );

    let sinrs = op.sinrs();
    let cfds = op.cfds();
    let model = op.model;
    out.insert(
        "phy.ber_ns".into(),
        ns_per_call(|| {
            for &s in &sinrs {
                black_box(model.bit_error_rate(black_box(s)));
            }
            sinrs.len() as u64
        }),
    );
    out.insert(
        "phy.frame_success_ns".into(),
        ns_per_call(|| {
            for &s in &sinrs {
                black_box(model.frame_success_probability(black_box(s), op.frame_bits));
            }
            sinrs.len() as u64
        }),
    );
    let acr = &sc.propagation.acr;
    out.insert(
        "phy.acr_leakage_ns".into(),
        ns_per_call(|| {
            for &c in &cfds {
                black_box(acr.leakage_factor(black_box(c)));
            }
            cfds.len() as u64
        }),
    );
    let acr_lut = AcrLut::new(acr.clone());
    out.insert(
        "phy.acr_lut_ns".into(),
        ns_per_call(|| {
            for &c in &cfds {
                black_box(acr_lut.leakage_factor(black_box(c)));
            }
            cfds.len() as u64
        }),
    );
    out.insert("phy.ber_lut_ns".into(), ber_lut_ns(model, &sinrs));

    let pending = positions_count(sc);
    let (mut bucket, mut now) = (BucketQueue::new(), 0);
    out.insert(
        "events.queue_op_ns".into(),
        ns_per_call(|| queue_round(&mut bucket, pending, &mut now)),
    );
    out.insert("events.heap_op_ns".into(), heap_op_ns(pending));
    out
}

/// `BerLut` has no production caller and may be deleted; the probe then
/// reads 0.
#[cfg(nomc_ber_lut)]
fn ber_lut_ns(model: BerModel, sinrs: &[Db]) -> f64 {
    let lut = nomc_phy::BerLut::new(model);
    ns_per_call(|| {
        for &s in sinrs {
            black_box(lut.bit_error_rate(black_box(s)));
        }
        sinrs.len() as u64
    })
}

#[cfg(not(nomc_ber_lut))]
fn ber_lut_ns(_model: BerModel, _sinrs: &[Db]) -> f64 {
    0.0
}

/// `HeapQueue` is a test oracle only and may be deleted; the probe then
/// reads 0.
#[cfg(nomc_heap_queue)]
fn heap_op_ns(pending: usize) -> f64 {
    let (mut heap, mut now) = (nomc_sim::events::HeapQueue::new(), 0);
    ns_per_call(|| queue_round(&mut heap, pending, &mut now))
}

#[cfg(not(nomc_heap_queue))]
fn heap_op_ns(_pending: usize) -> f64 {
    0.0
}

fn positions_count(sc: &Scenario) -> usize {
    sc.deployment
        .networks
        .iter()
        .map(|n| 2 * n.links.len())
        .sum()
}

/// Declares the two queue operations the engine uses so one workload
/// drives both queues, with or without a shared trait.
trait Queue {
    fn push(&mut self, at: SimTime, event: Event);
    fn pop_min(&mut self) -> Option<(SimTime, Event)>;
}

impl Queue for BucketQueue {
    fn push(&mut self, at: SimTime, event: Event) {
        self.schedule(at, event);
    }
    fn pop_min(&mut self) -> Option<(SimTime, Event)> {
        self.pop()
    }
}

#[cfg(nomc_heap_queue)]
impl Queue for nomc_sim::events::HeapQueue {
    fn push(&mut self, at: SimTime, event: Event) {
        self.schedule(at, event);
    }
    fn pop_min(&mut self) -> Option<(SimTime, Event)> {
        self.pop()
    }
}

/// The engine's queue shape in miniature: about one pending event per
/// node, each pop scheduling a successor within the next 4 ms (backoff,
/// CCA, airtime), plus a far provider tick every 64 operations, then a
/// drain. Simulated time only moves forward across rounds (`now`), as
/// in the engine. Returns the number of schedule + pop pairs.
fn queue_round(q: &mut impl Queue, pending: usize, now: &mut u64) -> u64 {
    const OPS: u64 = 2_048;
    for i in 0..pending as u64 {
        q.push(
            SimTime::from_nanos(*now + (i * 7_919) % 4_000_000),
            Event::PacketReady(i as usize),
        );
    }
    for i in 0..OPS {
        if let Some((t, e)) = q.pop_min() {
            *now = t.as_nanos();
            black_box(e);
        }
        let at = if i % 64 == 0 {
            *now + 250_000_000
        } else {
            *now + (i * 7_919) % 4_000_000
        };
        q.push(
            SimTime::from_nanos(at),
            Event::BackoffExpired(i as usize % pending.max(1)),
        );
    }
    while let Some((t, e)) = q.pop_min() {
        *now = t.as_nanos();
        black_box(e);
    }
    pending as u64 + OPS
}

/// Shard planning, the 1-thread and `threads`-thread sharded engine
/// against serial runs of each component, and the cost of tracing a
/// sharded run through the canonical merge.
pub fn shard(sc: &Scenario, threads: usize) -> Probed {
    let plan = engine::shard_plan(sc);
    let serial_sum_ms: f64 = median_ms(|| {
        for spec in &plan {
            black_box(engine::run(&spec.scenario));
        }
    });
    let run_1t_ms = median_ms(|| engine::run_sharded(sc, 1));
    let run_nt_ms = median_ms(|| engine::run_sharded(sc, threads));
    let traced_ms = median_ms(|| {
        let mut tracer = JsonlTracer::new(std::io::sink());
        engine::run_sharded_with(sc, &mut [&mut tracer], threads)
    });
    let mut out = Probed::new();
    out.insert("shard.components".into(), plan.len() as f64);
    out.insert("shard.plan_ms".into(), median_ms(|| engine::shard_plan(sc)));
    out.insert("shard.serial_sum_ms".into(), serial_sum_ms);
    out.insert("shard.run_1t_ms".into(), run_1t_ms);
    out.insert("shard.run_nt_ms".into(), run_nt_ms);
    out.insert("shard.overhead_ratio".into(), run_1t_ms / serial_sum_ms);
    out.insert("shard.speedup".into(), run_1t_ms / run_nt_ms);
    out.insert("shard.trace_merge_ms".into(), traced_ms - run_nt_ms);
    out
}

/// Snapshot codec, checkpoint store, journal and content hashing, with
/// the run paused after `pause_after` events (sharded when `sharded`)
/// and a journal of `members`. Files go under `dir`.
pub fn durability(
    sc: &Scenario,
    sharded: bool,
    pause_after: u64,
    members: &[Scenario],
    dir: &Path,
) -> Probed {
    let progress = if sharded {
        engine::run_sharded_until(sc, &mut [], u64::MAX, pause_after)
    } else {
        engine::run_until(sc, &mut [], u64::MAX, pause_after)
    };
    let RunProgress::Paused(paused) = progress else {
        panic!("the probe scenario runs past {pause_after} events");
    };
    let text = engine::snapshot(&paused);
    let mut out = Probed::new();
    out.insert("snapshot.bytes".into(), text.len() as f64);
    out.insert(
        "snapshot.encode_ms".into(),
        median_ms(|| engine::snapshot(&paused)),
    );
    out.insert(
        "snapshot.decode_ms".into(),
        median_ms(|| engine::restore(&text).expect("own snapshot decodes")),
    );

    let member_hash = hash::member_hash(sc, u64::MAX);
    out.insert(
        "checkpoint.save_ms".into(),
        median_ms(|| {
            checkpoint::save(dir, member_hash, 0, pause_after, &text).expect("checkpoint saves")
        }),
    );
    out.insert(
        "checkpoint.load_ms".into(),
        median_ms(|| checkpoint::load(dir, member_hash).expect("checkpoint loads")),
    );
    checkpoint::discard(dir, member_hash);

    let cfg = SweepConfig {
        threads: Some(1),
        ..SweepConfig::default()
    };
    let reports: Vec<Option<MemberReport>> = members
        .iter()
        .enumerate()
        .map(|(i, m)| Some(sweep::run_one_member(m, i, &cfg, &mut [])))
        .collect();
    let hashes: Vec<u64> = members
        .iter()
        .map(|m| hash::member_hash(m, cfg.base_budget))
        .collect();
    let sweep_hash = hash::sweep_hash(&hashes);
    let path = dir.join("probe.journal.jsonl");
    // A fixed header path keeps `journal.bytes` exact across runs (the
    // scratch directory's name carries the process id).
    let snapshot_dir = "snapshots";
    out.insert(
        "journal.bytes".into(),
        journal::render(sweep_hash, Some(snapshot_dir), &reports).len() as f64,
    );
    out.insert(
        "journal.persist_ms".into(),
        median_ms(|| {
            journal::persist(&path, sweep_hash, Some(snapshot_dir), &reports)
                .expect("journal persists")
        }),
    );
    let _ = std::fs::remove_file(&path);
    out.insert(
        "sweep.member_hash_us".into(),
        ns_per_call(|| {
            black_box(hash::member_hash(black_box(sc), cfg.base_budget));
            1
        }) / 1e3,
    );
    out
}

/// The request parser and job-spec decoder on the bytes a client
/// submitting `spec` sends.
pub fn request_path(spec: &JobSpec) -> Probed {
    let body = nomc_json::to_string(spec);
    let request = http::render_request(Method::Post, "/jobs", body.as_bytes());
    let mut out = Probed::new();
    out.insert(
        "http.parse_request_ns".into(),
        ns_per_call(|| match http::parse_request(black_box(&request)) {
            Ok(Parsed::Complete { value, .. }) => {
                black_box(value.body.len());
                1
            }
            other => panic!("a rendered request parses: {other:?}"),
        }),
    );
    out.insert(
        "json.spec_decode_us".into(),
        ns_per_call(|| {
            black_box(nomc_json::from_str::<JobSpec>(black_box(&body)).expect("spec decodes"));
            1
        }) / 1e3,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn queues_drain_every_event_they_take() {
        let (mut q, mut now) = (BucketQueue::new(), 0);
        assert_eq!(queue_round(&mut q, 24, &mut now), 2_072);
        assert!(q.pop_min().is_none());
        let after_first = now;
        queue_round(&mut q, 24, &mut now);
        assert!(
            now > after_first,
            "simulated time moves forward across rounds"
        );
    }

    #[test]
    fn operating_point_has_every_sender_on_air() {
        let sc = scenarios::paper_grid(1, 0);
        let op = OperatingPoint::of(&sc);
        assert_eq!(op.links.len(), 12);
        let now = op.busiest();
        let (co, inter) = op.medium.sensed_components(0, op.senders[0].1, now);
        assert!(co.value() > 0.0 || inter.value() > 0.0);
        assert!(op.payload_segments(&op.links[0]).len() > 1);
        assert_eq!(op.cfds().len(), 144);
    }
}
