//! The event queue.
//!
//! Events are keyed by `(time, sequence)`; the monotone sequence number
//! makes same-instant ordering deterministic (insertion order), which is
//! essential for reproducible runs.
//!
//! [`BucketQueue`] is a calendar queue keyed on 802.15.4 symbol time.
//! Simulation events cluster within a few milliseconds of *now* (slot
//! boundaries, CCA windows, frame airtimes), so hashing each event into a
//! 16 µs-wide bucket on a circular wheel gives `O(1)` schedule/pop. An
//! occupancy bitmap (one bit per wheel slot) lets a pop jump straight to
//! the next non-empty bucket, so its cost does not grow with the gap to
//! the next event. Far-future events (provider ticks, fault injections)
//! overflow into a small heap and migrate onto the wheel as time
//! advances.
//!
//! Each bucket is resolved by minimum `(time, sequence)`, so pop order is
//! exactly that of a binary heap keyed the same way — FIFO within a
//! timestamp. `tests/tests/event_queue.rs` pins that equivalence against
//! a reference binary-heap oracle.

use nomc_units::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies a node in the running simulation.
pub type NodeId = usize;

/// Identifies one transmission.
pub type TxId = u64;

/// Everything that can happen in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The node's traffic source delivers the next frame to the MAC.
    PacketReady(NodeId),
    /// The node's CSMA backoff timer expired.
    BackoffExpired(NodeId),
    /// The node's CCA measurement window closed.
    CcaDone(NodeId),
    /// The node's radio finished RX→TX turnaround and begins emitting.
    TxStart(NodeId),
    /// Transmission `1` from node `0` left the air.
    TxEnd(NodeId, TxId),
    /// The receiver finished correlating the preamble/SFD of `1`.
    SyncDone(NodeId, TxId),
    /// DCN initializing-phase in-channel power sample.
    PowerSense(NodeId),
    /// Coarse periodic hook for time-based threshold rules (DCN Case II).
    ProviderTick(NodeId),
    /// Acknowledged mode: node `0` starts emitting the ACK for data
    /// transmission `1` (after RX→TX turnaround).
    AckStart(NodeId, TxId),
    /// Acknowledged mode: the sender's `macAckWaitDuration` for data
    /// transmission `1` expired.
    AckTimeout(NodeId, TxId),
    /// Fault injection: the node crashes (power loss). While down it
    /// neither transmits, senses, nor receives.
    NodeDown(NodeId),
    /// Fault injection: the node reboots with factory-fresh MAC and
    /// threshold state.
    NodeUp(NodeId),
    /// Fault injection: the node's CCA comparator latches *busy*.
    CcaStuckStart(NodeId),
    /// Fault injection: the latched CCA comparator releases.
    CcaStuckEnd(NodeId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

// Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Calendar-queue bucket width: one 802.15.4 symbol period (16 µs). Every
/// MAC/PHY interval in the simulator is a multiple of the symbol time, so
/// same-bucket events are almost always same-instant and the min-scan per
/// bucket degenerates to FIFO.
const BUCKET_WIDTH_NS: u64 = 16_000;

/// Number of wheel slots. The wheel spans
/// `BUCKET_WIDTH_NS * WHEEL_SLOTS` ≈ 32.8 ms — comfortably more than the
/// longest near-term interval the runtime schedules (frame airtime ≈ 4.3 ms,
/// medium retention 20 ms). Only coarse provider ticks (250 ms) and fault
/// injections land in the overflow heap.
const WHEEL_SLOTS: usize = 2048;

/// A deterministic future-event list: a calendar (bucket) queue keyed
/// on symbol time.
///
/// Near-term events hash into a circular wheel of 2048 buckets
/// (`WHEEL_SLOTS`), each one 16 µs symbol period wide
/// (`BUCKET_WIDTH_NS`); scheduling is a push onto a short `Vec` plus one
/// occupancy bit, and popping jumps the cursor to the first set bit at or
/// after it. Events beyond one wheel revolution sit in an overflow heap
/// and migrate onto the wheel as the cursor advances. Pop order is
/// strict `(time, seq)` — within a bucket the minimum entry is selected
/// by scan — so same-instant events pop in the order they were
/// scheduled, the property the golden trace fixtures depend on.
#[derive(Debug)]
pub struct BucketQueue {
    /// Circular bucket array; entries within a slot are unordered.
    wheel: Vec<Vec<Scheduled>>,
    /// Bit `s % 64` of word `s / 64` is set exactly when `wheel[s]` is
    /// non-empty.
    occupied: [u64; OCCUPANCY_WORDS],
    /// Events at or beyond `base + WHEEL_SPAN`, in a `(time, seq)` heap.
    overflow: BinaryHeap<Scheduled>,
    /// Start time of the cursor bucket (multiple of [`BUCKET_WIDTH_NS`]).
    base_ns: u64,
    /// Entries currently on the wheel (excludes `overflow`).
    wheel_len: usize,
    next_seq: u64,
}

const WHEEL_SPAN_NS: u64 = BUCKET_WIDTH_NS * WHEEL_SLOTS as u64;

/// Words in the occupancy bitmap: one bit per wheel slot.
const OCCUPANCY_WORDS: usize = WHEEL_SLOTS / 64;

impl Default for BucketQueue {
    fn default() -> Self {
        BucketQueue {
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; OCCUPANCY_WORDS],
            overflow: BinaryHeap::new(),
            base_ns: 0,
            wheel_len: 0,
            next_seq: 0,
        }
    }
}

impl BucketQueue {
    /// An empty queue.
    pub fn new() -> Self {
        BucketQueue::default()
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled {
            time: at,
            seq,
            event,
        };
        let ns = at.as_nanos();
        if ns >= self.base_ns.saturating_add(WHEEL_SPAN_NS) {
            self.overflow.push(s);
        } else {
            // Late events (behind the cursor) land in the cursor bucket;
            // the min-scan still orders them first.
            let slot = if ns < self.base_ns {
                debug_assert!(false, "scheduled into the past: {ns} < {}", self.base_ns);
                Self::slot_of(self.base_ns)
            } else {
                Self::slot_of(ns)
            };
            self.push_wheel(slot, s);
        }
    }

    /// Pops the earliest event with its schedule sequence number.
    ///
    /// The sequence number is minted at [`BucketQueue::schedule`] time,
    /// so it totally orders *when events were scheduled* — the engine's
    /// fault layer uses it to discard events a crashed node scheduled
    /// in its previous life (see `runtime/faults.rs`).
    ///
    /// The cursor jumps straight to the next occupied bucket and
    /// overflow migrates once for the whole jump, so the cost does not
    /// depend on how many empty buckets lie in between. Every wheel entry
    /// is less than one revolution ahead of the cursor, so the first
    /// occupied slot at or after it (circularly) holds the earliest
    /// bucket; overflow entries the jump pulls in are at least one
    /// revolution past the old cursor, later than that bucket.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, Event)> {
        if self.wheel_len == 0 {
            // Jump the cursor straight to the earliest overflow event.
            let ns = self.overflow.peek()?.time.as_nanos();
            self.base_ns = ns - ns % BUCKET_WIDTH_NS;
            self.migrate_overflow();
        }
        let cursor = Self::slot_of(self.base_ns);
        let slot = self.next_occupied(cursor)?;
        debug_assert!(
            !self.wheel[slot].is_empty(),
            "occupancy bit of slot {slot} is set on an empty bucket"
        );
        let ahead = (slot + WHEEL_SLOTS - cursor) % WHEEL_SLOTS;
        if ahead > 0 {
            self.base_ns += ahead as u64 * BUCKET_WIDTH_NS;
            self.migrate_overflow();
        }
        let s = self.take_min(slot)?;
        Some((s.time, s.seq, s.event))
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_entry().map(|(t, _, e)| (t, e))
    }

    /// The sequence number the *next* scheduled event will receive.
    /// Every event currently in the queue has a smaller one.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot_of(ns: u64) -> usize {
        ((ns / BUCKET_WIDTH_NS) % WHEEL_SLOTS as u64) as usize
    }

    /// Appends `s` to wheel slot `slot` and marks the slot occupied.
    fn push_wheel(&mut self, slot: usize, s: Scheduled) {
        self.wheel[slot].push(s);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.wheel_len += 1;
    }

    /// The first occupied wheel slot at or after `from`, wrapping once
    /// around the wheel; `None` when the wheel is empty.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let head = self.occupied[word] & (!0u64 << (from % 64));
        if head != 0 {
            return Some(word * 64 + head.trailing_zeros() as usize);
        }
        // The last step comes back to the start word, whose bits at or
        // after `from` are known clear: what is left are the slots
        // before `from`.
        (1..=OCCUPANCY_WORDS)
            .map(|k| (word + k) % OCCUPANCY_WORDS)
            .find(|&w| self.occupied[w] != 0)
            .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// Moves overflow entries that now fit within one wheel revolution of
    /// `base_ns` onto the wheel.
    fn migrate_overflow(&mut self) {
        while let Some(s) = self.overflow.peek() {
            let ns = s.time.as_nanos();
            if ns >= self.base_ns.saturating_add(WHEEL_SPAN_NS) {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            self.push_wheel(Self::slot_of(ns), s);
        }
    }

    /// All pending entries in `(time, seq)` pop order, without disturbing
    /// the queue — together with [`BucketQueue::next_seq`] this is the
    /// queue's complete logical state, which is all checkpointing needs:
    /// pop order depends only on `(time, seq)`, never on wheel placement.
    pub fn entries(&self) -> Vec<(SimTime, u64, Event)> {
        let mut out: Vec<(SimTime, u64, Event)> = Vec::with_capacity(self.len());
        for bucket in &self.wheel {
            out.extend(bucket.iter().map(|s| (s.time, s.seq, s.event)));
        }
        out.extend(self.overflow.iter().map(|s| (s.time, s.seq, s.event)));
        out.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
        out
    }

    /// Rebuilds a queue holding exactly `entries`, each keeping its
    /// originally minted sequence number, with `next_seq` as the next
    /// number to mint. The cursor starts at the earliest entry, so no
    /// entry is ever behind it.
    pub fn restore(entries: &[(SimTime, u64, Event)], next_seq: u64) -> Self {
        let mut q = BucketQueue::new();
        q.next_seq = next_seq;
        if let Some(min_ns) = entries.iter().map(|&(t, _, _)| t.as_nanos()).min() {
            q.base_ns = min_ns - min_ns % BUCKET_WIDTH_NS;
        }
        for &(time, seq, event) in entries {
            debug_assert!(seq < next_seq, "queued seq {seq} >= next_seq {next_seq}");
            let s = Scheduled { time, seq, event };
            let ns = time.as_nanos();
            if ns >= q.base_ns.saturating_add(WHEEL_SPAN_NS) {
                q.overflow.push(s);
            } else {
                q.push_wheel(Self::slot_of(ns), s);
            }
        }
        q
    }

    /// Removes and returns the minimum `(time, seq)` entry of `slot`,
    /// clearing the slot's occupancy bit when that empties it; `None`
    /// when the slot is empty.
    fn take_min(&mut self, slot: usize) -> Option<Scheduled> {
        let bucket = &mut self.wheel[slot];
        let best = (0..bucket.len()).min_by_key(|&i| (bucket[i].time, bucket[i].seq))?;
        let s = bucket.swap_remove(best);
        if bucket.is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        debug_assert_eq!(
            self.occupied[slot / 64] >> (slot % 64) & 1 == 1,
            !self.wheel[slot].is_empty(),
            "occupancy bit of slot {slot} disagrees with its bucket"
        );
        self.wheel_len -= 1;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = BucketQueue::new();
        q.schedule(SimTime::from_millis(3), Event::PacketReady(0));
        q.schedule(SimTime::from_millis(1), Event::PacketReady(1));
        q.schedule(SimTime::from_millis(2), Event::PacketReady(2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                Event::PacketReady(1),
                Event::PacketReady(2),
                Event::PacketReady(0)
            ]
        );
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = BucketQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule(t, Event::PacketReady(i));
        }
        for i in 0..10 {
            let (_, e) = q.pop().unwrap();
            assert_eq!(e, Event::PacketReady(i));
        }
    }

    #[test]
    fn pop_entry_exposes_schedule_order() {
        let mut q = BucketQueue::new();
        assert_eq!(q.next_seq(), 0);
        q.schedule(SimTime::from_millis(2), Event::NodeDown(0));
        q.schedule(SimTime::from_millis(1), Event::NodeUp(0));
        assert_eq!(q.next_seq(), 2);
        // Popped in time order, but seq reflects schedule order.
        let (_, seq, e) = q.pop_entry().unwrap();
        assert_eq!((seq, e), (1, Event::NodeUp(0)));
        let (_, seq, e) = q.pop_entry().unwrap();
        assert_eq!((seq, e), (0, Event::NodeDown(0)));
    }

    #[test]
    fn len_and_empty() {
        let mut q = BucketQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, Event::ProviderTick(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_scheduling_stays_deterministic() {
        let mut q = BucketQueue::new();
        q.schedule(SimTime::from_micros(10), Event::CcaDone(0));
        q.schedule(SimTime::from_micros(10), Event::TxStart(1));
        let (_, first) = q.pop().unwrap();
        // New event at the same time goes after already-queued ones.
        q.schedule(SimTime::from_micros(10), Event::BackoffExpired(2));
        let (_, second) = q.pop().unwrap();
        let (_, third) = q.pop().unwrap();
        assert_eq!(first, Event::CcaDone(0));
        assert_eq!(second, Event::TxStart(1));
        assert_eq!(third, Event::BackoffExpired(2));
    }

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        let mut q = BucketQueue::new();
        // Provider-tick cadence: far beyond one wheel revolution.
        q.schedule(SimTime::from_millis(250), Event::ProviderTick(0));
        q.schedule(SimTime::from_millis(500), Event::ProviderTick(0));
        q.schedule(SimTime::from_micros(5), Event::CcaDone(1));
        let times: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_micros(5),
                SimTime::from_millis(250),
                SimTime::from_millis(500),
            ]
        );
    }

    #[test]
    fn long_idle_gap_jumps_instead_of_scanning() {
        let mut q = BucketQueue::new();
        // Drain, idle for hours of simulated time, then schedule again:
        // the event lands in overflow and the pop jumps the cursor
        // straight to it (no slot-by-slot scan).
        q.schedule(SimTime::from_micros(1), Event::CcaDone(0));
        q.pop().unwrap();
        let far = SimTime::from_secs(3600);
        q.schedule(far, Event::ProviderTick(0));
        assert_eq!(q.pop(), Some((far, Event::ProviderTick(0))));
    }

    #[test]
    fn entries_restore_preserves_pop_stream() {
        // Fill past the wheel horizon, pop a bit to advance the cursor,
        // then restore from the logical state: the remaining pop streams
        // must match entry for entry.
        let mut q = BucketQueue::new();
        q.schedule(SimTime::from_micros(30), Event::CcaDone(0));
        q.schedule(SimTime::from_micros(10), Event::PacketReady(1));
        q.schedule(SimTime::from_millis(250), Event::ProviderTick(0));
        q.schedule(SimTime::from_micros(10), Event::TxStart(1));
        q.schedule(SimTime::from_secs(2), Event::NodeDown(1));
        q.pop_entry().unwrap();
        let entries = q.entries();
        let mut r = BucketQueue::restore(&entries, q.next_seq());
        assert_eq!(r.len(), q.len());
        assert_eq!(r.next_seq(), q.next_seq());
        assert_eq!(r.entries(), entries);
        loop {
            let a = q.pop_entry();
            let b = r.pop_entry();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        // Restored queues keep minting from where the original left off.
        r.schedule(SimTime::from_secs(3), Event::NodeUp(1));
        assert_eq!(r.pop_entry().unwrap().1, q.next_seq());
    }
}
