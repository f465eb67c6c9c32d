//! Event-queue edge cases, out-of-crate.
//!
//! The unit tests in `nomc-sim::events` pin the basic ordering
//! contract; these integration tests cover the edges that bit on real
//! workloads: equal-timestamp FIFO at bucket scale, far-future events
//! beyond the calendar wheel's horizon (including exact-boundary and
//! multi-revolution cases, and FIFO survival across overflow
//! migration), and engine behaviour when the deterministic event budget
//! ([`nomc_sim::RunSpec::budget`]) exhausts before the queue
//! drains. Every queue-level case runs on the engine's [`BucketQueue`]
//! and on [`HeapQueue`], a reference binary heap that is trivially
//! correct.

use nomc_sim::events::{BucketQueue, Event};
use nomc_sim::{engine, BoundedRun, RunSpec, Scenario};
use nomc_topology::{paper, spectrum::ChannelPlan};
use nomc_units::{Dbm, Megahertz, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The calendar wheel spans 2048 × 16 µs = 32.768 ms (private constants
/// of `nomc-sim::events`; mirrored here so these tests exercise both
/// sides of the horizon on purpose).
const WHEEL_SPAN_NS: u64 = 16_000 * 2048;

/// The reference oracle: a binary heap keyed by `(time, seq)`, with the
/// sequence number minted at schedule time (it indexes `events`).
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    events: Vec<Event>,
}

/// The queue operations the engine uses, so one test drives both
/// queues.
trait Queue {
    fn schedule(&mut self, at: SimTime, event: Event);
    fn pop_entry(&mut self) -> Option<(SimTime, u64, Event)>;
    fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_entry().map(|(t, _, e)| (t, e))
    }
}

impl Queue for HeapQueue {
    fn schedule(&mut self, at: SimTime, event: Event) {
        self.heap.push(Reverse((at, self.events.len() as u64)));
        self.events.push(event);
    }
    fn pop_entry(&mut self) -> Option<(SimTime, u64, Event)> {
        let Reverse((at, seq)) = self.heap.pop()?;
        Some((at, seq, self.events[seq as usize]))
    }
}

impl Queue for BucketQueue {
    fn schedule(&mut self, at: SimTime, event: Event) {
        BucketQueue::schedule(self, at, event);
    }
    fn pop_entry(&mut self) -> Option<(SimTime, u64, Event)> {
        BucketQueue::pop_entry(self)
    }
}

fn both() -> [(&'static str, Box<dyn Queue>); 2] {
    [
        ("heap", Box::<HeapQueue>::default()),
        ("bucket", Box::new(BucketQueue::new())),
    ]
}

/// Equal-timestamp FIFO at bucket scale: hundreds of same-instant
/// events — far more than a bucket's typical occupancy — interleaved
/// with same-bucket-different-instant neighbours, must drain in
/// schedule order within each instant.
#[test]
fn equal_timestamp_fifo_at_scale() {
    for (name, mut q) in both() {
        let t = SimTime::from_micros(320); // bucket boundary (20 × 16 µs)
        let just_before = t - SimDuration::from_nanos(1); // same bucket? no: previous one
        let same_bucket_later = t + SimDuration::from_micros(3); // within the 16 µs bucket
        for i in 0..400 {
            q.schedule(t, Event::PacketReady(i));
            if i % 7 == 0 {
                q.schedule(same_bucket_later, Event::CcaDone(i));
            }
            if i % 11 == 0 {
                q.schedule(just_before, Event::TxStart(i));
            }
        }
        // Drain: all `just_before` events first (FIFO among themselves),
        // then the 400 same-instant events in schedule order, then the
        // same-bucket stragglers in schedule order.
        let mut popped = Vec::new();
        while let Some((time, ev)) = q.pop() {
            popped.push((time, ev));
        }
        let mut expect = Vec::new();
        for i in 0..400 {
            if i % 11 == 0 {
                expect.push((just_before, Event::TxStart(i)));
            }
        }
        for i in 0..400 {
            expect.push((t, Event::PacketReady(i)));
        }
        for i in 0..400 {
            if i % 7 == 0 {
                expect.push((same_bucket_later, Event::CcaDone(i)));
            }
        }
        assert_eq!(popped, expect, "{name}: equal-timestamp FIFO violated");
    }
}

/// Far-future events past the wheel horizon: exact-boundary offsets,
/// multiple wheel revolutions, and a same-instant pair split across the
/// schedule-before/schedule-after-migration divide must all pop in
/// `(time, seq)` order.
#[test]
fn far_future_past_bucket_horizon() {
    for (name, mut q) in both() {
        let near = SimTime::from_micros(100);
        // Exactly on the horizon (first nanosecond that overflows), one
        // revolution + 1 ns, and several revolutions out.
        let at_horizon = SimTime::from_nanos(WHEEL_SPAN_NS);
        let past_one = SimTime::from_nanos(WHEEL_SPAN_NS + 1);
        let far = SimTime::from_nanos(5 * WHEEL_SPAN_NS + 12_345);
        q.schedule(far, Event::ProviderTick(0));
        q.schedule(at_horizon, Event::ProviderTick(1));
        q.schedule(past_one, Event::ProviderTick(2));
        q.schedule(near, Event::CcaDone(3));
        assert_eq!(q.pop(), Some((near, Event::CcaDone(3))));
        // After the cursor has moved, schedule another event at the SAME
        // far-future instant: it must pop after the earlier-scheduled
        // one (FIFO survives overflow migration).
        q.schedule(far, Event::ProviderTick(4));
        assert_eq!(q.pop(), Some((at_horizon, Event::ProviderTick(1))));
        assert_eq!(q.pop(), Some((past_one, Event::ProviderTick(2))));
        assert_eq!(q.pop(), Some((far, Event::ProviderTick(0))));
        assert_eq!(q.pop(), Some((far, Event::ProviderTick(4))));
        assert_eq!(q.pop(), None, "{name}: queue should be drained");
    }
}

/// Repeated long idle gaps (every event beyond the horizon of the last)
/// keep working as the cursor leapfrogs: a pathological-but-legal
/// schedule for coarse provider ticks.
#[test]
fn consecutive_horizon_jumps() {
    for (name, mut q) in both() {
        let mut expect = Vec::new();
        for k in 1..=6u64 {
            let t = SimTime::from_nanos(k * (WHEEL_SPAN_NS + 7));
            q.schedule(t, Event::ProviderTick(k as usize));
            expect.push((t, Event::ProviderTick(k as usize)));
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, expect, "{name}: horizon leapfrog broke ordering");
    }
}

/// A deterministic LCG drives identical schedules into both queues
/// with interleaved pops; the pop streams must match exactly.
#[test]
fn heap_and_bucket_agree_on_randomized_workload() {
    let mut heap = HeapQueue::default();
    let mut bucket = BucketQueue::new();
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut now = 0u64;
    for round in 0..2000 {
        let op = lcg() % 3;
        if op < 2 {
            // Mix of near-term (bucket-dense), same-instant, and
            // far-future (overflow) schedules, never in the past.
            let delta = match lcg() % 4 {
                0 => 0,
                1 => lcg() % 1_000,
                2 => lcg() % 5_000_000,
                _ => 30_000_000 + lcg() % 400_000_000,
            };
            let at = SimTime::from_nanos(now + delta);
            let ev = Event::PacketReady(round);
            heap.schedule(at, ev);
            bucket.schedule(at, ev);
        } else {
            let a = heap.pop_entry();
            let b = bucket.pop_entry();
            assert_eq!(a, b);
            if let Some((t, _, _)) = a {
                now = t.as_nanos();
            }
        }
    }
    loop {
        let a = heap.pop_entry();
        let b = bucket.pop_entry();
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

fn tiny_scenario() -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(7);
    b.build().expect("valid scenario")
}

/// `sc` on the serial engine under an event budget.
fn budgeted(sc: &Scenario, budget: u64) -> BoundedRun {
    let spec = RunSpec {
        budget,
        ..RunSpec::default()
    };
    engine::execute(sc, &spec, &mut [])
        .into_done()
        .expect("a run without a pause target finishes")
}

/// Exhausting the event budget stops the run cleanly mid-queue: the
/// engine finalizes without draining, reports exhaustion, and the
/// truncated prefix stays deterministic (same budget → bit-identical
/// result).
#[test]
fn budget_exhaustion_stops_mid_queue() {
    let sc = tiny_scenario();
    let bounded = budgeted(&sc, 500);
    assert!(bounded.exhausted, "500 events must not finish a 1 s run");
    let again = budgeted(&sc, 500);
    assert!(again.exhausted);
    assert_eq!(
        bounded.result, again.result,
        "budget-truncated runs must be reproducible"
    );
    // A larger budget strictly extends the prefix: sent counters are
    // monotone in the budget.
    let larger = budgeted(&sc, 5_000);
    let sent = |r: &nomc_sim::SimResult| r.links.iter().map(|l| l.sent).sum::<u64>();
    assert!(sent(&larger.result) >= sent(&bounded.result));
}

/// A budget above the natural event count changes nothing: the bounded
/// run drains the queue normally and its result is bit-identical to the
/// unbounded entry point's.
#[test]
fn oversized_budget_is_identical_to_unbounded() {
    let sc = tiny_scenario();
    let unbounded = engine::run(&sc);
    let bounded = budgeted(&sc, u64::MAX);
    assert!(!bounded.exhausted, "oversized budget must not trip");
    assert_eq!(
        unbounded, bounded.result,
        "oversized budget perturbed the run"
    );
}

/// The wheel's slot width (16 µs), mirrored like [`WHEEL_SPAN_NS`].
const BUCKET_NS: u64 = 16_000;

/// A small deterministic generator for the randomized streams below.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One gap from `now` to a newly scheduled event: zero, within the
/// current bucket, about 25 buckets (a 4-node network's sparse
/// backoff grid), anywhere on the wheel, exactly one bucket short of
/// the horizon, exactly on it, or beyond it.
fn gap(rng: &mut Lcg) -> u64 {
    match rng.next() % 8 {
        0 => 0,
        1 => rng.next() % BUCKET_NS,
        2 => 25 * BUCKET_NS + rng.next() % 2_000,
        3 => rng.next() % WHEEL_SPAN_NS,
        4 => WHEEL_SPAN_NS - BUCKET_NS,
        5 => WHEEL_SPAN_NS,
        6 => WHEEL_SPAN_NS + 1 + rng.next() % (3 * WHEEL_SPAN_NS),
        _ => 320_000 * (1 + rng.next() % 8),
    }
}

/// Drives `queues` through one engine-shaped stream — every pop
/// schedules zero to three follow-ups at `now + gap` — asserting after
/// each pop that every queue popped the same entry as the first.
fn drive_in_lockstep(queues: &mut [&mut dyn Queue], rng: &mut Lcg, pops: usize) -> u64 {
    let mut now = 0u64;
    let mut minted = 0usize;
    for _ in 0..pops {
        let popped: Vec<_> = queues.iter_mut().map(|q| q.pop_entry()).collect();
        assert!(
            popped.iter().all(|p| *p == popped[0]),
            "queues disagree after {minted} schedules: {popped:?}"
        );
        let Some((t, _, _)) = popped[0] else {
            break;
        };
        now = t.as_nanos();
        for _ in 0..rng.next() % 4 {
            let at = SimTime::from_nanos(now + gap(rng));
            let ev = Event::PacketReady(minted);
            minted += 1;
            for q in queues.iter_mut() {
                q.schedule(at, ev);
            }
        }
    }
    now
}

/// Randomized streams whose gaps run from zero to several wheel spans,
/// with pops interleaved with schedules as the engine interleaves them:
/// the bucket queue's jumps over empty buckets must pop exactly what
/// the heap pops.
#[test]
fn randomized_gaps_up_to_past_the_horizon_match_the_heap() {
    for seed in 1..=8u64 {
        let mut heap = HeapQueue::default();
        let mut bucket = BucketQueue::new();
        let mut rng = Lcg(seed);
        for i in 0..16 {
            let at = SimTime::from_nanos(gap(&mut rng));
            heap.schedule(at, Event::CcaDone(i));
            bucket.schedule(at, Event::CcaDone(i));
        }
        drive_in_lockstep(&mut [&mut heap, &mut bucket], &mut rng, 20_000);
        while let Some(a) = heap.pop_entry() {
            assert_eq!(bucket.pop_entry(), Some(a), "seed {seed}: drain diverged");
        }
        assert_eq!(
            bucket.pop_entry(),
            None,
            "seed {seed}: bucket queue kept entries"
        );
    }
}

/// The cursor walks every one of the bitmap's 32 words and wraps the
/// wheel several times, with single events so that each pop must jump:
/// steps of one bucket short of a word, exactly one word, and the
/// largest in-wheel jump (one bucket short of the horizon), then a jump
/// that lands exactly on the horizon from an empty wheel.
#[test]
fn jumps_wrap_across_every_bitmap_word_and_land_on_the_horizon() {
    for step_buckets in [63, 64, 65, 2047] {
        for (name, mut q) in both() {
            let mut now = 7_000u64;
            q.schedule(SimTime::from_nanos(now), Event::PowerSense(0));
            // Three revolutions, so every word is visited and the wheel
            // wraps with the cursor mid-word.
            let steps = 3 * 2048 / step_buckets + 2;
            for i in 1..=steps {
                let (t, _) = q.pop().expect("one event is always pending");
                assert_eq!(t.as_nanos(), now, "{name}: step {step_buckets} pop {i}");
                now += step_buckets * BUCKET_NS;
                q.schedule(SimTime::from_nanos(now), Event::PowerSense(i as usize));
            }
            // Drain, then one event exactly a wheel span after the last:
            // it goes to overflow and the next pop jumps onto it.
            let (t, _) = q.pop().expect("the last step is pending");
            let horizon = t.as_nanos() + WHEEL_SPAN_NS;
            q.schedule(SimTime::from_nanos(horizon), Event::ProviderTick(0));
            q.schedule(
                SimTime::from_nanos(horizon - BUCKET_NS),
                Event::ProviderTick(1),
            );
            assert_eq!(
                q.pop(),
                Some((
                    SimTime::from_nanos(horizon - BUCKET_NS),
                    Event::ProviderTick(1)
                )),
                "{name}: one bucket short of the horizon"
            );
            assert_eq!(
                q.pop(),
                Some((SimTime::from_nanos(horizon), Event::ProviderTick(0))),
                "{name}: exactly on the horizon"
            );
            assert_eq!(q.pop(), None, "{name}: drained");
        }
    }
}

/// `BucketQueue::restore` from the logical state taken mid-stream
/// rebuilds the occupancy bitmap: the restored queue and the original
/// then pop identically through the rest of the same stream, and both
/// match the heap.
#[test]
fn restore_mid_stream_pops_identically() {
    for seed in [3u64, 11, 29] {
        let mut heap = HeapQueue::default();
        let mut original = BucketQueue::new();
        let mut rng = Lcg(seed);
        for i in 0..12 {
            let at = SimTime::from_nanos(gap(&mut rng));
            heap.schedule(at, Event::CcaDone(i));
            original.schedule(at, Event::CcaDone(i));
        }
        drive_in_lockstep(&mut [&mut heap, &mut original], &mut rng, 3_000);
        let mut restored = BucketQueue::restore(&original.entries(), original.next_seq());
        assert_eq!(restored.entries(), original.entries(), "seed {seed}");
        drive_in_lockstep(
            &mut [&mut heap, &mut original, &mut restored],
            &mut rng,
            3_000,
        );
        loop {
            let a = heap.pop_entry();
            assert_eq!(original.pop_entry(), a, "seed {seed}: original drain");
            assert_eq!(restored.pop_entry(), a, "seed {seed}: restored drain");
            if a.is_none() {
                break;
            }
        }
    }
}
