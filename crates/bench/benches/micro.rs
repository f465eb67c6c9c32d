//! Hot-path micro-benchmarks: the inner loops every simulated packet
//! exercises.

use nomc_bench::harness::Criterion;
use nomc_bench::{criterion_group, criterion_main};
use nomc_phy::coupling::AcrCurve;
use nomc_phy::{biterror, AcrLut, BerModel};
use nomc_rngcore::{RngCore, SeedableRng};
use nomc_sim::events::{BucketQueue, Event};
use nomc_sim::medium::{self, Medium, Segment, Transmission};
use nomc_sim::rng::Xoshiro256StarStar;
use nomc_units::{Db, Dbm, Megahertz, MilliWatts, SimDuration, SimTime};
use std::hint::black_box;

fn bench_ber(c: &mut Criterion) {
    let mut g = c.benchmark_group("phy");
    g.bench_function("oqpsk_ber_eval", |b| {
        let mut s = 0.0;
        b.iter(|| {
            s += 0.01;
            black_box(BerModel::Oqpsk802154.bit_error_rate(Db::new(-5.0 + (s % 10.0))))
        })
    });
    g.bench_function("frame_success_prob", |b| {
        b.iter(|| {
            black_box(BerModel::Oqpsk802154.frame_success_probability(Db::new(black_box(1.0)), 408))
        })
    });
    g.bench_function("acr_rejection_lookup", |b| {
        let acr = AcrCurve::cc2420_calibrated();
        b.iter(|| black_box(acr.rejection(Megahertz::new(black_box(2.7)))))
    });
    // LUT grid hit vs the analytic interpolation + powf above: same
    // bits, a table read.
    g.bench_function("acr_lut_grid_hit", |b| {
        let lut = AcrLut::new(AcrCurve::cc2420_calibrated());
        b.iter(|| black_box(lut.leakage_factor(Megahertz::new(black_box(3.0)))))
    });
    g.finish();
}

fn bench_biterror(c: &mut Criterion) {
    let mut g = c.benchmark_group("biterror");
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    g.bench_function("binomial_small_mean", |b| {
        b.iter(|| black_box(biterror::sample_bit_errors(&mut rng, 408, 1e-3)))
    });
    g.bench_function("binomial_large_mean", |b| {
        b.iter(|| black_box(biterror::sample_bit_errors(&mut rng, 408, 0.2)))
    });
    g.bench_function("positions_10_of_408", |b| {
        b.iter(|| black_box(biterror::sample_error_positions(&mut rng, 408, 10)))
    });
    g.finish();
}

fn make_medium(transmissions: usize) -> Medium {
    let mut m = Medium::new(
        AcrCurve::cc2420_calibrated(),
        Dbm::new(-98.0).to_milliwatts(),
    );
    for i in 0..transmissions {
        m.add(Transmission {
            id: i as u64 + 1,
            tx_node: i,
            link: i,
            frequency: Megahertz::new(2458.0 + (i % 6) as f64 * 3.0),
            start: SimTime::from_micros(i as u64 * 100),
            mpdu_start: SimTime::from_micros(i as u64 * 100 + 192),
            end: SimTime::from_micros(i as u64 * 100 + 1824),
            seq: 1,
            forced: false,
            rx_power: vec![Dbm::new(-60.0); 24],
        });
    }
    m
}

fn bench_medium(c: &mut Criterion) {
    let mut g = c.benchmark_group("medium");
    let m = make_medium(12);
    g.bench_function("sensed_components_12tx", |b| {
        b.iter(|| {
            black_box(m.sensed_components(23, Megahertz::new(2464.0), SimTime::from_micros(600)))
        })
    });
    g.bench_function("interference_segments_12tx", |b| {
        b.iter(|| {
            black_box(m.interference_segments(
                1,
                23,
                Megahertz::new(2458.0),
                SimTime::from_micros(192),
                SimTime::from_micros(1824),
            ))
        })
    });
    let mut rng = Xoshiro256StarStar::seed_from_u64(2);
    let segments = [
        Segment {
            duration: SimDuration::from_micros(800),
            interference: Dbm::new(-70.0).to_milliwatts(),
        },
        Segment {
            duration: SimDuration::from_micros(832),
            interference: MilliWatts::ZERO,
        },
    ];
    g.bench_function("sample_segment_errors", |b| {
        b.iter(|| {
            black_box(medium::sample_segment_errors(
                &mut rng,
                &segments,
                Dbm::new(-60.0),
                Dbm::new(-98.0).to_milliwatts(),
                BerModel::Oqpsk802154,
            ))
        })
    });
    g.finish();
}

/// The engine's queue access pattern in miniature: a rolling horizon of
/// near-term events (backoffs, CCA windows, airtimes) plus occasional
/// far-future ones (provider ticks), popped as simulated time advances.
fn queue_workload(q: &mut BucketQueue) {
    let mut now = 0u64;
    for i in 0..512u64 {
        q.schedule(
            SimTime::from_nanos(now + (i * 7919) % 4_000_000),
            Event::PacketReady(i as usize),
        );
        if i % 64 == 0 {
            q.schedule(
                SimTime::from_nanos(now + 250_000_000),
                Event::ProviderTick(0),
            );
        }
        if i % 2 == 0 {
            if let Some((t, e)) = q.pop() {
                now = t.as_nanos();
                black_box(e);
            }
        }
    }
    while let Some(e) = q.pop() {
        black_box(e);
    }
}

/// The queue as a small (4-node, two-sender) network's engine sees it:
/// two event chains that each move on by one to four 802.15.4 backoff
/// units (20 symbols, 320 µs) per pop, so consecutive pops sit about 25
/// of the wheel's 16 µs buckets apart, plus an occasional far-future
/// provider tick.
fn sparse_queue_workload(q: &mut BucketQueue) {
    const BACKOFF_NS: u64 = 320_000;
    for i in 0..2u64 {
        q.schedule(
            SimTime::from_nanos(i * 97_000),
            Event::BackoffExpired(i as usize),
        );
    }
    for i in 0..512u64 {
        let Some((t, _, e)) = q.pop_entry() else {
            break;
        };
        black_box(e);
        let units = 1 + (i * 7919) % 4;
        q.schedule(
            SimTime::from_nanos(t.as_nanos() + units * BACKOFF_NS + i % 3 * 16_000),
            Event::BackoffExpired((i % 2) as usize),
        );
        if i % 128 == 0 {
            q.schedule(
                SimTime::from_nanos(t.as_nanos() + 250_000_000),
                Event::ProviderTick(0),
            );
        }
    }
    while let Some(e) = q.pop() {
        black_box(e);
    }
}

fn bench_queue_and_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("infra");
    g.bench_function("event_queue_push_pop_64", |b| {
        b.iter(|| {
            let mut q = BucketQueue::new();
            for i in 0..64u64 {
                q.schedule(
                    SimTime::from_micros(i * 7 % 50),
                    Event::PacketReady(i as usize),
                );
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        })
    });
    g.bench_function("bucket_queue_mixed_512", |b| {
        b.iter(|| queue_workload(&mut BucketQueue::new()))
    });
    g.bench_function("bucket_queue_sparse_512", |b| {
        b.iter(|| sparse_queue_workload(&mut BucketQueue::new()))
    });
    let mut rng = Xoshiro256StarStar::seed_from_u64(3);
    g.bench_function("xoshiro_next_u64", |b| b.iter(|| black_box(rng.next_u64())));
    g.bench_function("crc16_51_bytes", |b| {
        let frame = nomc_radio::frame::FrameSpec::default_data_frame().build_mpdu(1, 2);
        b.iter(|| black_box(nomc_radio::crc::crc16_itut(&frame)))
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_ber,
    bench_biterror,
    bench_medium,
    bench_queue_and_rng
);
criterion_main!(micro);
