//! The shared wireless medium.
//!
//! Tracks every transmission (active ones plus a short history so that
//! receptions ending now can still see interferers that ended mid-frame),
//! and answers the two questions the rest of the simulator asks:
//!
//! 1. *What power does node X sense on channel f right now?* (CCA, RSSI
//!    power sensing) — co-channel and inter-channel components reported
//!    separately so the oracle-classifier extension can use them.
//! 2. *What interference did reception R experience, segment by segment?*
//!    — used at frame end to turn SINR history into sampled bit errors.
//!
//! # Registry layout and invariants
//!
//! The registry is a **monotonic-id slab** plus a **per-channel index**:
//!
//! - `slab` is a [`VecDeque`] of transmissions in id order. The engine
//!   mints [`TxId`]s consecutively and registers every one, so ids in
//!   the slab are *contiguous*: [`Medium::get`] is O(1) arithmetic
//!   (`id - front.id`), not a scan.
//! - `channels` maps each distinct centre frequency (a channel-grid
//!   point) to the ids transmitted on it, in id order. Grid points are
//!   discovered on first use and kept sorted by frequency.
//! - Start times are non-decreasing in id (events are processed in time
//!   order), so a query window `[from, to]` narrows each channel's id
//!   list to `start + max_duration > from && start < to` with a short
//!   walk back from the tail (`max_duration` is the longest airtime
//!   seen).
//! - Pruning is **prefix-only**: `add` pops stale ids from the front of
//!   the slab (and of each channel list) until the front is younger
//!   than the retention horizon. The comparison is strict: an entry
//!   whose age equals the horizon exactly (`now − end == retention`) is
//!   *retained* and stays visible to the indexed scan — pinned by the
//!   `prune_boundary_equal_end_stays_visible_to_indexed_scan`
//!   regression. A mid-slab entry that outlived its
//!   retention while an older long frame is still in front is kept, but
//!   it is unobservable: every query window that could see it is issued
//!   at a simulated time before the `add` that would have pruned it.
//!
//! # Channel cutoff
//!
//! Power queries ([`Medium::sensed_components`], [`Medium::sensed_total`],
//! [`Medium::interference_segments`], [`Medium::interference_bound`] and
//! the running-bound queries below) skip channels whose CFD to the
//! observer frequency exceeds [`AcrCurve::saturation_cfd`]: past the
//! curve's support the rejection is at its ~50 dB floor and the leaked
//! power (≈1e-5 of an already-weak signal) is physically negligible, so
//! such channels are treated as fully orthogonal. The predicate itself
//! lives in [`crate::reach::channel_coupled`] and is shared with the
//! shard partitioner, so sensing and partitioning can never disagree
//! about which channels couple. [`Medium::was_collided`]
//! intentionally does *not* apply the cutoff — the paper's collision
//! predicate compares against an explicit power floor, which a strong
//! far-channel emitter can still cross (the partitioner bounds that
//! path with [`crate::reach::above_collision_floor`]).
//!
//! # Summation order
//!
//! `interference_segments` sorts candidates back into id order, so its
//! floating-point sums are bit-identical to a flat id-ordered scan.
//! `sensed_components` accumulates channel-major (channels in ascending
//! frequency order, ids ascending within a channel) to keep the hot
//! path allocation-free; within any single channel the order is still
//! id order. `interference_bound` sums channel-major too, and a
//! reception's running bound in registration order: both are only ever
//! compared against a margin, never reported. The per-channel
//! leakage factor is computed once per channel per query instead of
//! once per transmission.
//!
//! # Incremental active sets
//!
//! On top of the windowed index, each channel maintains an `active`
//! list updated by deltas: [`Medium::add`] appends, [`Medium::retire`]
//! (wired to the engine's TxEnd) removes. The instantaneous power
//! queries ([`Medium::sensed_components`], [`Medium::sensed_total`])
//! walk only these live entries instead of re-filtering the windowed
//! history on every CCA/RSSI sense. Because the active list is always
//! an id-ordered subsequence of the channel's id list and the activity
//! predicate still runs per entry, the contributing set and its
//! summation order — hence every output bit — match the windowed
//! reference walk, which stays compiled under test (and the
//! `naive-medium` feature) as `sensed_components_naive` and is pinned
//! against the incremental path by property tests. Historical queries
//! (`interference_segments`, `was_collided`) still use the windowed
//! index: they look back at windows where since-ended transmissions
//! must remain visible.
//!
//! # Caching (values unchanged, work moved)
//!
//! Two pure caches keep `powf`/`log10` out of the query loops without
//! perturbing a single bit of output: per-node received powers are
//! converted to linear milliwatts on first query per (transmission,
//! observer) pair and memoized, and leakage factors resolve through a
//! precomputed CFD-grid lookup table ([`AcrLut`]) — node and channel
//! frequencies live on a small grid, so channel-plan CFDs are table
//! reads and only off-grid stragglers (fractional channel plans) pay
//! the analytic evaluation. Both caches are bit-exact by construction.
//! The BER and sync-probability evaluations themselves are not cached:
//! a window rarely repeats an interference level, and the bound below
//! settles nearly every window before they run.
//!
//! # Bound-first reception
//!
//! Far above the O-QPSK cliff a frame simply survives, and most
//! receptions sit there. [`Medium::interference_bound`] sums the coupled
//! power of every interferer overlapping a window — one pass of the same
//! candidate walk [`Medium::interference_segments_into`] takes, with no
//! segments built. Every segment's interference is a sum over a subset
//! of those terms, so when `signal ≥ R · (bound + noise)` for the BER
//! model's [`BerModel::error_free_sinr`] `R`, every segment's BER is
//! exactly 0.0: [`sample_segment_errors`] would return no errors without
//! drawing, and [`sync_success_probability`] would return exactly 1.0.
//! `R` sits 76/75 above the formula's underflow point, which covers the
//! `log10`/`powf` round trip and the rounding of a differently-ordered
//! sum many times over. The engine asks the bound first and builds
//! segments only for the few windows where a bit can fail, so the RNG
//! stream and every output bit are those of the segment path.
//!
//! The engine does not walk for that bound on every sync and decode.
//! Each reception keeps a running bound with the same terms, fed by
//! three queries:
//!
//! - [`Medium::on_air_interference`] seeds it when the receiver locks:
//!   everything on air at the frame's start, walked over the short
//!   `active` lists;
//! - [`Medium::coupled_power`] is what each later registration adds to
//!   it while the lock lasts;
//! - [`Medium::ambient_interference`] adds the jammer bursts over each
//!   query window, since bursts are not registrations.
//!
//! The running bound only grows (nothing is subtracted when a frame
//! ends), so it is a superset of the walk's terms summed in another
//! order, which the same margin covers. A looser bound only sends more
//! windows to the segment path. The walk itself remains for receptions
//! that hold no lock (an ACK at its original sender) and for re-seeding
//! a bound after a snapshot restore.

use crate::events::{NodeId, TxId};
use crate::reach;
use nomc_phy::coupling::AcrCurve;
use nomc_phy::lut::AcrLut;
use nomc_phy::BerModel;
use nomc_rngcore::Rng;
use nomc_units::{Dbm, Megahertz, MilliWatts, SimDuration, SimTime};
use std::collections::VecDeque;

/// One on-air (or recently ended) transmission.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// Unique id.
    pub id: TxId,
    /// Transmitting node.
    pub tx_node: NodeId,
    /// Global link index the frame belongs to.
    pub link: usize,
    /// Channel centre frequency.
    pub frequency: Megahertz,
    /// First symbol on air.
    pub start: SimTime,
    /// Start of the PSDU (after preamble/SFD/length header).
    pub mpdu_start: SimTime,
    /// Last symbol on air.
    pub end: SimTime,
    /// Sequence number within the link.
    pub seq: u32,
    /// Whether the MAC forced this frame out after CCA exhaustion.
    pub forced: bool,
    /// Received power at every node, shadowing already applied
    /// (indexed by `NodeId`). *Not* yet attenuated by channel filters —
    /// that depends on each observer's channel.
    pub rx_power: Vec<Dbm>,
}

impl Transmission {
    /// Whether the transmission is on air at `t`.
    #[inline]
    pub fn is_active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Overlap of this transmission with `[from, to]`, if any.
    #[inline]
    pub fn overlap(&self, from: SimTime, to: SimTime) -> Option<(SimTime, SimTime)> {
        let s = self.start.max(from);
        let e = self.end.min(to);
        if s < e {
            Some((s, e))
        } else {
            None
        }
    }
}

/// A constant-interference stretch of a reception.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Length of the stretch.
    pub duration: SimDuration,
    /// Total coupled interference power (noise *not* included).
    pub interference: MilliWatts,
}

/// One channel-index entry: enough of a transmission (id, raw-ns time
/// window, transmitter) to run the window/activity/overlap predicates
/// without touching the slab. Only actual contributors are fetched.
#[derive(Debug, Clone, Copy)]
struct ChanEntry {
    id: TxId,
    start_ns: u64,
    end_ns: u64,
    tx_node: NodeId,
}

/// The ids transmitted on one channel-grid point, in id order. A plain
/// `Vec` beats a ring buffer here: the list stays short (one retention
/// horizon of frames), so the occasional front-drain memmove is cheaper
/// than paying non-contiguous indexing on every binary-search probe.
///
/// `active` is the incrementally-maintained subset still on air: every
/// registration appends to it and [`Medium::retire`] (called by the
/// engine when the frame's TxEnd fires) removes from it, so the
/// instantaneous power queries walk a handful of live entries instead
/// of re-filtering the windowed history on every sense. It stays an
/// id-ordered subsequence of `ids` by construction (appends are in id
/// order, removals preserve order), which is what keeps the active-path
/// floating-point sums bit-identical to the windowed walk.
#[derive(Debug)]
struct Channel {
    freq: Megahertz,
    ids: Vec<ChanEntry>,
    active: Vec<ChanEntry>,
}

/// A slab entry: the transmission plus a lazily-filled cache of its
/// per-node received power in linear milliwatts. [`Dbm::to_milliwatts`]
/// is a `powf`; converting on first query (NaN = not yet converted)
/// instead of eagerly for all N nodes at [`Medium::add`] skips the
/// conversions for observers that never look — most of them once the
/// initializing phase's RSSI sweeps stop. The conversion is a pure
/// function of the stored dBm value, so when it happens cannot change a
/// bit of any result.
#[derive(Debug)]
struct Entry {
    tx: Transmission,
    rx_mw: Vec<std::cell::Cell<f64>>,
}

impl Entry {
    /// Received power at `observer` in linear milliwatts (cached powf).
    #[inline]
    fn rx_milliwatts(&self, observer: NodeId) -> MilliWatts {
        let cell = &self.rx_mw[observer];
        let v = cell.get();
        if v.is_nan() {
            let mw = self.tx.rx_power[observer].to_milliwatts();
            cell.set(mw.value());
            mw
        } else {
            MilliWatts::new(v)
        }
    }
}

/// Unregistered ambient energy — a fault-injected wideband jammer.
///
/// Ambient emitters are not nodes: they mint no [`TxId`], occupy no
/// slab slot, and couple into every observer at the same flat power.
/// They live outside the prune cycle (a fault plan holds a handful of
/// bursts, not a traffic stream) and their contributions are summed
/// *after* every registered transmission so that a medium with no
/// ambient energy produces bit-identical floating-point results.
#[derive(Debug, Clone, Copy)]
struct AmbientEntry {
    freq: Megahertz,
    rx_mw: MilliWatts,
    start: SimTime,
    end: SimTime,
}

impl AmbientEntry {
    #[inline]
    fn is_active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    #[inline]
    fn overlap(&self, from: SimTime, to: SimTime) -> Option<(SimTime, SimTime)> {
        let s = self.start.max(from);
        let e = self.end.min(to);
        if s < e {
            Some((s, e))
        } else {
            None
        }
    }
}

/// The medium: transmission registry plus the propagation constants
/// needed to couple powers across channels.
#[derive(Debug)]
pub struct Medium {
    /// The rejection curve with its CFD-grid lookup table (see
    /// [`AcrLut`]): channel-plan CFDs resolve by table read, anything
    /// off-grid by the analytic curve.
    acr: AcrLut,
    noise: MilliWatts,
    /// Id-ordered (and id-contiguous) transmission slab.
    slab: VecDeque<Entry>,
    /// Per-grid-point id lists, sorted by frequency.
    channels: Vec<Channel>,
    /// Longest airtime registered so far; bounds query windows.
    max_duration: SimDuration,
    /// CFD beyond which a channel is treated as fully orthogonal.
    cutoff_mhz: Megahertz,
    /// How long ended transmissions are retained for late segment queries.
    retention: SimDuration,
    /// Reused working buffers for [`Medium::interference_segments`]
    /// (cleared on entry; the returned segment list is still freshly
    /// allocated because it is handed to the caller).
    scratch: std::cell::RefCell<SegScratch>,
    /// Fault-injected jammer bursts (see [`AmbientEntry`]).
    ambient: Vec<AmbientEntry>,
}

/// Working storage for [`Medium::interference_segments`]: the interferer
/// candidates and the segment boundaries. Kept on the medium so the two
/// intermediate allocations are paid once per run, not once per decode.
#[derive(Debug, Default)]
struct SegScratch {
    interferers: Vec<(TxId, SimTime, SimTime, MilliWatts)>,
    bounds: Vec<SimTime>,
}

impl Medium {
    /// Creates a medium with the given rejection curve and noise floor.
    pub fn new(acr: AcrCurve, noise: MilliWatts) -> Self {
        let cutoff_mhz = acr.saturation_cfd();
        Medium {
            acr: AcrLut::new(acr),
            noise,
            slab: VecDeque::new(),
            channels: Vec::new(),
            max_duration: SimDuration::ZERO,
            cutoff_mhz,
            // Longest frame is ≈ 4.3 ms; keep 4× that.
            retention: SimDuration::from_millis(20),
            scratch: std::cell::RefCell::new(SegScratch::default()),
            ambient: Vec::new(),
        }
    }

    /// Registers an ambient jammer burst: unattributed energy on
    /// `frequency` coupling into every node at a flat `power` during
    /// `[start, end)`. Installed once at engine construction from the
    /// scenario's fault plan; with no bursts every query is bit-identical
    /// to a jammer-free medium.
    pub fn add_ambient(&mut self, frequency: Megahertz, power: Dbm, start: SimTime, end: SimTime) {
        self.ambient.push(AmbientEntry {
            freq: frequency,
            rx_mw: power.to_milliwatts(),
            start,
            end,
        });
    }

    /// Leakage factor at `cfd`: [`AcrLut`] table read for channel-grid
    /// CFDs (the steady-state path — one array index, no interpolation,
    /// no `powf`), the analytic curve for anything off-grid. Both paths
    /// are bit-identical to [`AcrCurve::leakage_factor`].
    #[inline]
    fn leakage(&self, cfd: Megahertz) -> f64 {
        self.acr.leakage_factor(cfd)
    }

    /// The noise floor in linear power.
    pub fn noise(&self) -> MilliWatts {
        self.noise
    }

    /// The rejection curve.
    pub fn acr(&self) -> &AcrCurve {
        self.acr.curve()
    }

    /// Registers a transmission starting now and prunes stale history.
    ///
    /// Ids must be minted consecutively (each registered id is the
    /// predecessor's plus one); the engine's mint guarantees this, and
    /// [`Medium::get`] relies on it for O(1) lookup.
    pub fn add(&mut self, tx: Transmission) {
        debug_assert!(
            self.slab.back().is_none_or(|b| tx.id == b.tx.id + 1),
            "transmission ids must be consecutive (got {} after {:?})",
            tx.id,
            self.slab.back().map(|b| b.tx.id),
        );
        let now = tx.start;
        let mut pruned = false;
        while self
            .slab
            .front()
            .is_some_and(|e| now.saturating_since(e.tx.end) > self.retention)
        {
            self.slab.pop_front();
            pruned = true;
        }
        // The channel lists only need pruning when the slab front moved:
        // entries below the new base are unreachable through `entry`
        // either way (the id arithmetic misses), so deferring the drains
        // to prune-adds cannot change any query result.
        if pruned {
            let base = self.slab.front().map(|e| e.tx.id).unwrap_or(tx.id);
            for ch in &mut self.channels {
                let stale = ch.ids.partition_point(|e| e.id < base);
                ch.ids.drain(..stale);
                let stale = ch.active.partition_point(|e| e.id < base);
                ch.active.drain(..stale);
            }
        }
        self.max_duration = self.max_duration.max(tx.end.saturating_since(tx.start));
        let key = ChanEntry {
            id: tx.id,
            start_ns: tx.start.as_nanos(),
            end_ns: tx.end.as_nanos(),
            tx_node: tx.tx_node,
        };
        match self
            .channels
            .binary_search_by(|c| c.freq.value().total_cmp(&tx.frequency.value()))
        {
            Ok(i) => {
                self.channels[i].ids.push(key);
                self.channels[i].active.push(key);
            }
            Err(i) => self.channels.insert(
                i,
                Channel {
                    freq: tx.frequency,
                    ids: vec![key],
                    active: vec![key],
                },
            ),
        }
        let rx_mw = vec![std::cell::Cell::new(f64::NAN); tx.rx_power.len()];
        self.slab.push_back(Entry { tx, rx_mw });
    }

    /// Removes transmission `id` from its channel's active set. Called
    /// by the engine when the frame's TxEnd fires — at which point every
    /// instantaneous query already excludes it (activity windows are
    /// end-exclusive), so retiring is pure bookkeeping that keeps the
    /// active lists short. The entry stays in the slab and the windowed
    /// `ids` index for late segment/collision queries until the
    /// retention prune. Unknown or already-retired ids are no-ops.
    pub fn retire(&mut self, id: TxId) {
        let Some(tx) = self.get(id) else { return };
        let freq = tx.frequency.value();
        let Ok(ci) = self
            .channels
            .binary_search_by(|c| c.freq.value().total_cmp(&freq))
        else {
            return;
        };
        let ch = &mut self.channels[ci];
        if let Ok(pos) = ch.active.binary_search_by_key(&id, |e| e.id) {
            ch.active.remove(pos);
        }
    }

    /// The retained transmission history in slab (id) order — each entry
    /// with whether it is still in its channel's active set — plus the
    /// running airtime maximum. Together these are the medium's complete
    /// mutable state for checkpointing: the rx-milliwatt cache is a
    /// pure function of it, and the leakage table and ambient bursts
    /// are construction-time state.
    ///
    /// Entries are borrowed, so encoding them takes no copy.
    pub(crate) fn history_refs(
        &self,
    ) -> (
        impl Iterator<Item = (&Transmission, bool)> + '_,
        SimDuration,
    ) {
        let mut active = std::collections::BTreeSet::new();
        for ch in &self.channels {
            active.extend(ch.active.iter().map(|e| e.id));
        }
        let entries = self
            .slab
            .iter()
            .map(move |e| (&e.tx, active.contains(&e.tx.id)));
        (entries, self.max_duration)
    }

    /// Rebuilds the slab and channel index from a
    /// [`Medium::history_refs`] capture, replacing any current history.
    ///
    /// This is *not* a replay of [`Medium::add`]: no retention pruning
    /// runs (the capture already reflects every prune the original run
    /// performed, and replaying survivors could prune differently when
    /// airtimes are mixed), and `max_duration` is restored verbatim
    /// because pruned entries contributed to it. Channels that exist in
    /// the original but have no surviving entries are not recreated;
    /// empty channels contribute nothing to any query.
    pub(crate) fn restore_history(
        &mut self,
        history: Vec<(Transmission, bool)>,
        max_duration: SimDuration,
    ) {
        self.slab.clear();
        self.channels.clear();
        self.max_duration = max_duration;
        for (tx, live) in history {
            debug_assert!(
                self.slab.back().is_none_or(|b| tx.id == b.tx.id + 1),
                "history ids must be consecutive",
            );
            let key = ChanEntry {
                id: tx.id,
                start_ns: tx.start.as_nanos(),
                end_ns: tx.end.as_nanos(),
                tx_node: tx.tx_node,
            };
            match self
                .channels
                .binary_search_by(|c| c.freq.value().total_cmp(&tx.frequency.value()))
            {
                Ok(i) => {
                    self.channels[i].ids.push(key);
                    if live {
                        self.channels[i].active.push(key);
                    }
                }
                Err(i) => self.channels.insert(
                    i,
                    Channel {
                        freq: tx.frequency,
                        ids: vec![key],
                        active: if live { vec![key] } else { Vec::new() },
                    },
                ),
            }
            let rx_mw = vec![std::cell::Cell::new(f64::NAN); tx.rx_power.len()];
            self.slab.push_back(Entry { tx, rx_mw });
        }
    }

    /// Looks up a slab entry by id in O(1) (id arithmetic off the front).
    #[inline]
    fn entry(&self, id: TxId) -> Option<&Entry> {
        let base = self.slab.front()?.tx.id;
        let idx = usize::try_from(id.checked_sub(base)?).ok()?;
        self.slab.get(idx).filter(|e| e.tx.id == id)
    }

    /// Looks up a transmission by id (active or recent) in O(1).
    pub fn get(&self, id: TxId) -> Option<&Transmission> {
        self.entry(id).map(|e| &e.tx)
    }

    /// Number of tracked (active + recent) transmissions.
    // nomc-lint: allow(test-only-api) — checked against a flat model
    pub fn tracked(&self) -> usize {
        self.slab.len()
    }

    /// Index range of `ch.ids` that can overlap `[from_ns, to_ns)`:
    /// entries with `start < to` and `start + max_duration > from`.
    /// Both predicates are monotone in id because starts are.
    ///
    /// Query windows end at (or a retention horizon behind) the current
    /// simulated time, i.e. near the tail of the start-ordered list, so
    /// this walks back from the end: the walk visits only the entries
    /// the caller is about to scan anyway, which on these short lists
    /// beats two binary searches. The indices are exactly the
    /// partition points of the two predicates.
    #[inline]
    fn window(&self, ch: &Channel, from_ns: u64, to_ns: u64) -> (usize, usize) {
        let max_ns = self.max_duration.as_nanos();
        let mut hi = ch.ids.len();
        while hi > 0 && ch.ids[hi - 1].start_ns >= to_ns {
            hi -= 1;
        }
        let mut lo = hi;
        while lo > 0 && ch.ids[lo - 1].start_ns.saturating_add(max_ns) > from_ns {
            lo -= 1;
        }
        (lo, hi)
    }

    /// Instantaneous sensed power at `observer` tuned to `freq`, split
    /// into (co-channel, inter-channel) components, *excluding* the
    /// observer's own emissions and *excluding* noise.
    ///
    /// "Co-channel" means CFD < 0.5 MHz (same grid point). Channels
    /// beyond the ACR curve's support contribute nothing (see the
    /// module notes on the channel cutoff and summation order).
    pub fn sensed_components(
        &self,
        observer: NodeId,
        freq: Megahertz,
        now: SimTime,
    ) -> (MilliWatts, MilliWatts) {
        let mut co = MilliWatts::ZERO;
        let mut inter = MilliWatts::ZERO;
        self.for_each_on_air(observer, freq, now, |cfd, coupled| {
            if cfd.value() < 0.5 {
                co += coupled;
            } else {
                inter += coupled;
            }
        });
        // Ambient (jammer) energy last, so the fault-free sum above is
        // untouched bit for bit.
        for a in &self.ambient {
            if !a.is_active_at(now) {
                continue;
            }
            let cfd = a.freq.distance_to(freq);
            if !reach::channel_coupled(cfd, self.cutoff_mhz) {
                continue;
            }
            let coupled = a.rx_mw * self.leakage(cfd);
            if cfd.value() < 0.5 {
                co += coupled;
            } else {
                inter += coupled;
            }
        }
        (co, inter)
    }

    /// The coupled power at `observer` (tuned to `freq`) of every
    /// registered transmission on air at `now`, the observer's own
    /// emissions excluded; ambient bursts and noise are not included.
    /// This seeds a reception's running interference bound when it
    /// locks (see the module notes on bound-first reception).
    pub fn on_air_interference(
        &self,
        observer: NodeId,
        freq: Megahertz,
        now: SimTime,
    ) -> MilliWatts {
        let mut total = MilliWatts::ZERO;
        self.for_each_on_air(observer, freq, now, |_, coupled| total += coupled);
        total
    }

    /// The active-set walk behind [`Medium::sensed_components`] and
    /// [`Medium::on_air_interference`]: calls `visit(cfd, coupled)` for
    /// every registered transmission on air at `now` on a coupled
    /// channel, except the observer's own, channel-major with ids
    /// ascending within a channel.
    ///
    /// Each channel's `active` list holds exactly the
    /// registered-but-not-retired entries, maintained by add/retire
    /// deltas. The activity predicate still runs per entry (an engine
    /// that never calls `retire`, or a query at a past instant, must
    /// see identical results), but the list being a live id-ordered
    /// subsequence of `ids` means the contributing set — and therefore
    /// the summation order — matches
    /// [`Medium::sensed_components_naive`] bit for bit.
    #[inline]
    fn for_each_on_air(
        &self,
        observer: NodeId,
        freq: Megahertz,
        now: SimTime,
        mut visit: impl FnMut(Megahertz, MilliWatts),
    ) {
        let now_ns = now.as_nanos();
        for ch in &self.channels {
            if ch.active.is_empty() {
                continue;
            }
            let cfd = ch.freq.distance_to(freq);
            if !reach::channel_coupled(cfd, self.cutoff_mhz) {
                continue;
            }
            let mut leak: Option<f64> = None;
            for ce in &ch.active {
                if ce.tx_node == observer || !(ce.start_ns <= now_ns && now_ns < ce.end_ns) {
                    continue;
                }
                let Some(e) = self.entry(ce.id) else { continue };
                let factor = *leak.get_or_insert_with(|| self.leakage(cfd));
                visit(cfd, e.rx_milliwatts(observer) * factor);
            }
        }
    }

    /// The power transmission `id` couples into `observer` tuned to
    /// `freq`: its received power times the leakage at their CFD, or
    /// zero when `id` is the observer's own emission, sits on a channel
    /// past the cutoff, or is not tracked. This is the term every
    /// overlapping window's [`Medium::interference_bound`] takes for
    /// `id`, and what a registration adds to the running bound of each
    /// reception already in progress.
    pub fn coupled_power(&self, id: TxId, observer: NodeId, freq: Megahertz) -> MilliWatts {
        let Some(e) = self.entry(id) else {
            return MilliWatts::ZERO;
        };
        let cfd = e.tx.frequency.distance_to(freq);
        if e.tx.tx_node == observer || !reach::channel_coupled(cfd, self.cutoff_mhz) {
            return MilliWatts::ZERO;
        }
        e.rx_milliwatts(observer) * self.leakage(cfd)
    }

    /// The coupled power of every ambient burst overlapping `[from,
    /// to]` at an observer tuned to `freq`, summed as if they all
    /// overlapped at once — the ambient terms of
    /// [`Medium::interference_bound`]. Bursts are not registrations, so
    /// a running bound cannot pick them up as they start; a reception
    /// adds them per query window instead.
    pub fn ambient_interference(&self, freq: Megahertz, from: SimTime, to: SimTime) -> MilliWatts {
        let mut total = MilliWatts::ZERO;
        self.for_each_ambient(freq, from, to, |_, _, p| total += p);
        total
    }

    /// The pre-incremental reference walk: filters each channel's full
    /// windowed id list per query instead of consulting the maintained
    /// active sets. Kept compiled under test (and the `naive-medium`
    /// feature) as the oracle the property tests pin
    /// [`Medium::sensed_components`] against, bit for bit.
    #[cfg(any(test, feature = "naive-medium"))]
    // nomc-lint: allow(test-only-api) — the oracle the index is pinned to
    pub fn sensed_components_naive(
        &self,
        observer: NodeId,
        freq: Megahertz,
        now: SimTime,
    ) -> (MilliWatts, MilliWatts) {
        let mut co = MilliWatts::ZERO;
        let mut inter = MilliWatts::ZERO;
        let now_ns = now.as_nanos();
        for ch in &self.channels {
            let cfd = ch.freq.distance_to(freq);
            if !reach::channel_coupled(cfd, self.cutoff_mhz) {
                continue;
            }
            let (lo, hi) = self.window(ch, now_ns, now_ns.saturating_add(1));
            if lo == hi {
                continue;
            }
            let mut leak: Option<f64> = None;
            for ce in &ch.ids[lo..hi] {
                if ce.tx_node == observer || !(ce.start_ns <= now_ns && now_ns < ce.end_ns) {
                    continue;
                }
                let Some(e) = self.entry(ce.id) else { continue };
                let factor = *leak.get_or_insert_with(|| self.leakage(cfd));
                let coupled = e.rx_milliwatts(observer) * factor;
                if cfd.value() < 0.5 {
                    co += coupled;
                } else {
                    inter += coupled;
                }
            }
        }
        for a in &self.ambient {
            if !a.is_active_at(now) {
                continue;
            }
            let cfd = a.freq.distance_to(freq);
            if !reach::channel_coupled(cfd, self.cutoff_mhz) {
                continue;
            }
            let coupled = a.rx_mw * self.leakage(cfd);
            if cfd.value() < 0.5 {
                co += coupled;
            } else {
                inter += coupled;
            }
        }
        (co, inter)
    }

    /// Total sensed power (co + inter + noise) at `observer` on `freq` —
    /// what an RSSI register measures.
    pub fn sensed_total(&self, observer: NodeId, freq: Megahertz, now: SimTime) -> MilliWatts {
        let (co, inter) = self.sensed_components(observer, freq, now);
        co + inter + self.noise
    }

    /// Piecewise-constant interference experienced by `observer` (tuned
    /// to `freq`) during `[from, to]`, excluding transmission `subject`
    /// and the observer's own emissions. Noise is *not* included.
    /// Channels beyond the ACR curve's support contribute nothing.
    ///
    /// Returns segments in chronological order covering exactly
    /// `[from, to]`.
    pub fn interference_segments(
        &self,
        subject: TxId,
        observer: NodeId,
        freq: Megahertz,
        from: SimTime,
        to: SimTime,
    ) -> Vec<Segment> {
        let mut segments = Vec::new();
        self.interference_segments_into(subject, observer, freq, from, to, &mut segments);
        segments
    }

    /// [`Medium::interference_segments`] writing into a caller-supplied
    /// buffer (cleared first). The engine reuses one buffer across every
    /// sync/decode query so the hot path allocates nothing per frame;
    /// the segment values are identical to the allocating variant.
    pub fn interference_segments_into(
        &self,
        subject: TxId,
        observer: NodeId,
        freq: Megahertz,
        from: SimTime,
        to: SimTime,
        segments: &mut Vec<Segment>,
    ) {
        debug_assert!(from <= to);
        segments.clear();
        let mut scratch = self.scratch.borrow_mut();
        let SegScratch {
            interferers,
            bounds,
        } = &mut *scratch;
        // Collect overlapping interferers with their coupled powers,
        // then restore id order among the registered ones so the
        // per-segment floating-point sums match a flat id-ordered scan
        // bit for bit. Ambient bursts follow the registered entries, so
        // the per-segment sums stay `registered ids ascending, then
        // ambient bursts in plan order`, and with no bursts they are
        // bit-identical to the fault-free scan.
        interferers.clear();
        let registered =
            self.for_each_interferer(subject, observer, freq, from, to, |id, s, e, p| {
                interferers.push((id, s, e, p));
            });
        interferers[..registered].sort_unstable_by_key(|&(id, ..)| id);
        // Build segment boundaries.
        bounds.clear();
        bounds.push(from);
        bounds.push(to);
        for &(_, s, e, _) in interferers.iter() {
            bounds.push(s);
            bounds.push(e);
        }
        bounds.sort();
        bounds.dedup();
        segments.reserve(bounds.len().saturating_sub(1));
        for (&s, &e) in bounds.iter().zip(bounds.iter().skip(1)) {
            if s == e {
                continue;
            }
            let mut power = MilliWatts::ZERO;
            for &(_, is, ie, p) in interferers.iter() {
                if is <= s && e <= ie {
                    power += p;
                }
            }
            segments.push(Segment {
                duration: e - s,
                interference: power,
            });
        }
        if segments.is_empty() {
            segments.push(Segment {
                duration: to - from,
                interference: MilliWatts::ZERO,
            });
        }
    }

    /// An upper bound on the interference any segment of
    /// [`Medium::interference_segments`] over the same arguments can
    /// carry: the coupled powers of *every* interferer overlapping
    /// `[from, to]`, summed as if they all overlapped at once. Noise is
    /// not included. Each segment sums a subset of these terms, so the
    /// bound holds up to the rounding of a differently-ordered sum (see
    /// [`BerModel::error_free_sinr`] for the margin that covers it).
    pub fn interference_bound(
        &self,
        subject: TxId,
        observer: NodeId,
        freq: Megahertz,
        from: SimTime,
        to: SimTime,
    ) -> MilliWatts {
        let mut total = MilliWatts::ZERO;
        self.for_each_interferer(subject, observer, freq, from, to, |_, _, _, p| total += p);
        total
    }

    /// The interferer walk behind [`Medium::interference_segments_into`]
    /// and [`Medium::interference_bound`]: calls `visit(id, start, end,
    /// coupled)` for every transmission overlapping `[from, to]` on a
    /// coupled channel — except `subject` and the observer's own
    /// emissions — with its overlap and its power coupled into `freq`,
    /// then for every coupled ambient burst overlapping the window (id
    /// [`TxId::MAX`]; jammers have no id and belong to no node, so the
    /// exclusions do not apply). Registered transmissions come
    /// channel-major, ids ascending within a channel; the return value
    /// is how many of them were visited before the ambient bursts.
    fn for_each_interferer(
        &self,
        subject: TxId,
        observer: NodeId,
        freq: Megahertz,
        from: SimTime,
        to: SimTime,
        mut visit: impl FnMut(TxId, SimTime, SimTime, MilliWatts),
    ) -> usize {
        let (from_ns, to_ns) = (from.as_nanos(), to.as_nanos());
        let mut registered = 0;
        for ch in &self.channels {
            let cfd = ch.freq.distance_to(freq);
            if !reach::channel_coupled(cfd, self.cutoff_mhz) {
                continue;
            }
            let (lo, hi) = self.window(ch, from_ns, to_ns);
            let mut leak: Option<f64> = None;
            for ce in &ch.ids[lo..hi] {
                if ce.id == subject
                    || ce.tx_node == observer
                    || ce.start_ns.max(from_ns) >= ce.end_ns.min(to_ns)
                {
                    continue;
                }
                let Some(entry) = self.entry(ce.id) else {
                    continue;
                };
                let Some((s, e)) = entry.tx.overlap(from, to) else {
                    continue;
                };
                let factor = *leak.get_or_insert_with(|| self.leakage(cfd));
                visit(ce.id, s, e, entry.rx_milliwatts(observer) * factor);
                registered += 1;
            }
        }
        self.for_each_ambient(freq, from, to, |s, e, p| visit(TxId::MAX, s, e, p));
        registered
    }

    /// Calls `visit(start, end, coupled)` for every ambient burst on a
    /// coupled channel overlapping `[from, to]`, in plan order, with its
    /// overlap and its power coupled into `freq`.
    fn for_each_ambient(
        &self,
        freq: Megahertz,
        from: SimTime,
        to: SimTime,
        mut visit: impl FnMut(SimTime, SimTime, MilliWatts),
    ) {
        for a in &self.ambient {
            let cfd = a.freq.distance_to(freq);
            if !reach::channel_coupled(cfd, self.cutoff_mhz) {
                continue;
            }
            let Some((s, e)) = a.overlap(from, to) else {
                continue;
            };
            visit(s, e, a.rx_mw * self.leakage(cfd));
        }
    }

    /// Whether any *other* transmission overlapped `[from, to]` with a
    /// coupled power above `floor` at the observer — the "collided"
    /// predicate for the paper's CPRR metric.
    ///
    /// Unlike the power queries this scans every channel: the explicit
    /// `floor` comparison can be crossed even by a fully-rejected
    /// far-channel emitter at close range.
    pub fn was_collided(
        &self,
        subject: TxId,
        observer: NodeId,
        freq: Megahertz,
        from: SimTime,
        to: SimTime,
        floor: Dbm,
    ) -> bool {
        let max_ns = self.max_duration.as_nanos();
        let lo = self
            .slab
            .partition_point(|e| e.tx.start.as_nanos().saturating_add(max_ns) <= from.as_nanos());
        let hi = self
            .slab
            .partition_point(|e| e.tx.start.as_nanos() < to.as_nanos());
        self.slab.range(lo..hi.max(lo)).any(|e| {
            let t = &e.tx;
            t.id != subject && t.tx_node != observer && t.overlap(from, to).is_some() && {
                let coupled =
                    e.rx_milliwatts(observer) * self.leakage(t.frequency.distance_to(freq));
                coupled.to_dbm() > floor
            }
        }) || self.ambient.iter().any(|a| {
            a.overlap(from, to).is_some() && {
                let coupled = a.rx_mw * self.leakage(a.freq.distance_to(freq));
                coupled.to_dbm() > floor
            }
        })
    }
}

/// One bit at 250 kb/s: 4 µs.
pub const BIT_DURATION: SimDuration = SimDuration::from_micros(4);

/// Samples bit errors over `segments` for a signal of `signal` dBm,
/// returning `(error_bits, total_bits)`.
///
/// Bits are allotted to segments proportionally to duration, each
/// segment flooring its own count (`⌊duration / 4 µs⌋`). The total is
/// the true bit count of the window when segment boundaries fall on bit
/// boundaries; otherwise it can fall short by up to one bit per interior
/// boundary.
pub fn sample_segment_errors<R: Rng + ?Sized>(
    rng: &mut R,
    segments: &[Segment],
    signal: Dbm,
    noise: MilliWatts,
    model: BerModel,
) -> (u32, u32) {
    let signal_mw = signal.to_milliwatts();
    let mut errors = 0u32;
    let mut bits = 0u32;
    for seg in segments {
        let n = (seg.duration.as_nanos() / BIT_DURATION.as_nanos()) as u32;
        if n == 0 {
            continue;
        }
        let sinr = nomc_phy::sinr::sinr_linear(signal_mw, seg.interference + noise);
        let ber = model.bit_error_rate(sinr);
        errors += nomc_phy::biterror::sample_bit_errors(rng, n, ber);
        bits += n;
    }
    (errors, bits)
}

/// Computes the probability that a sync header (preamble + SFD, 40 bits)
/// decodes, given its segments.
pub fn sync_success_probability(
    segments: &[Segment],
    signal: Dbm,
    noise: MilliWatts,
    model: BerModel,
) -> f64 {
    let signal_mw = signal.to_milliwatts();
    let mut p = 1.0;
    for seg in segments {
        let n = (seg.duration.as_nanos() / BIT_DURATION.as_nanos()) as u32;
        if n == 0 {
            continue;
        }
        let sinr = nomc_phy::sinr::sinr_linear(signal_mw, seg.interference + noise);
        p *= model.frame_success_probability(sinr, n);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_rngcore::SeedableRng;

    fn mk_tx(
        id: TxId,
        node: NodeId,
        freq: f64,
        start_us: u64,
        end_us: u64,
        p: f64,
    ) -> Transmission {
        Transmission {
            id,
            tx_node: node,
            link: node,
            frequency: Megahertz::new(freq),
            start: SimTime::from_micros(start_us),
            mpdu_start: SimTime::from_micros(start_us + 192),
            end: SimTime::from_micros(end_us),
            seq: 0,
            forced: false,
            rx_power: vec![Dbm::new(p); 4],
        }
    }

    fn medium() -> Medium {
        Medium::new(
            AcrCurve::cc2420_calibrated(),
            Dbm::new(-98.0).to_milliwatts(),
        )
    }

    #[test]
    fn sensed_components_split_by_channel() {
        let mut m = medium();
        m.add(mk_tx(1, 0, 2460.0, 0, 3000, -60.0)); // co-channel for 2460 observer
        m.add(mk_tx(2, 1, 2463.0, 0, 3000, -60.0)); // +3 MHz
        let now = SimTime::from_micros(1000);
        let (co, inter) = m.sensed_components(3, Megahertz::new(2460.0), now);
        assert!((co.to_dbm().value() - (-60.0)).abs() < 0.01);
        // 20 dB rejection at 3 MHz.
        assert!((inter.to_dbm().value() - (-80.0)).abs() < 0.01);
    }

    #[test]
    fn own_transmissions_excluded() {
        let mut m = medium();
        m.add(mk_tx(1, 0, 2460.0, 0, 3000, -50.0));
        let (co, inter) = m.sensed_components(0, Megahertz::new(2460.0), SimTime::from_micros(1));
        assert_eq!(co, MilliWatts::ZERO);
        assert_eq!(inter, MilliWatts::ZERO);
    }

    #[test]
    fn inactive_transmissions_not_sensed() {
        let mut m = medium();
        m.add(mk_tx(1, 0, 2460.0, 0, 100, -50.0));
        let total = m.sensed_total(1, Megahertz::new(2460.0), SimTime::from_micros(200));
        assert!((total.to_dbm().value() - (-98.0)).abs() < 0.1, "only noise");
    }

    #[test]
    fn beyond_support_channels_are_orthogonal() {
        let mut m = medium();
        let sat = m.acr().saturation_cfd().value();
        // One emitter just past the curve's support, one exactly at it.
        m.add(mk_tx(1, 0, 2460.0 + sat + 1.0, 0, 3000, -30.0));
        m.add(mk_tx(2, 1, 2460.0 + sat, 0, 3000, -30.0));
        let now = SimTime::from_micros(1000);
        let (co, inter) = m.sensed_components(3, Megahertz::new(2460.0), now);
        assert_eq!(co, MilliWatts::ZERO);
        assert!(
            inter > MilliWatts::ZERO,
            "the at-saturation channel still leaks"
        );
        let expected =
            Dbm::new(-30.0).to_milliwatts().value() * m.acr().leakage_factor(Megahertz::new(sat));
        assert!(
            (inter.value() - expected).abs() <= expected * 1e-12,
            "only the at-saturation emitter contributes"
        );
        // Segments likewise ignore the beyond-support emitter: only the
        // at-saturation one leaks into the 2460 MHz observer's window.
        let segs = m.interference_segments(
            99,
            3,
            Megahertz::new(2460.0),
            SimTime::ZERO,
            SimTime::from_micros(3000),
        );
        assert_eq!(segs.len(), 1);
        assert!((segs[0].interference.value() - expected).abs() <= expected * 1e-12);
        // ... but the collision predicate still sees it: −30 dBm with
        // ~50 dB rejection is −80 dBm, above a −100 dBm floor.
        assert!(m.was_collided(
            2,
            3,
            Megahertz::new(2460.0),
            SimTime::ZERO,
            SimTime::from_micros(3000),
            Dbm::new(-100.0)
        ));
    }

    #[test]
    fn segments_partition_the_window() {
        let mut m = medium();
        // Subject: [0, 3000]; interferer A: [500, 1200]; B: [1000, 4000].
        m.add(mk_tx(1, 0, 2460.0, 0, 3000, -60.0));
        m.add(mk_tx(2, 1, 2460.0, 500, 1200, -70.0));
        m.add(mk_tx(3, 2, 2460.0, 1000, 4000, -70.0));
        let segs = m.interference_segments(
            1,
            3,
            Megahertz::new(2460.0),
            SimTime::ZERO,
            SimTime::from_micros(3000),
        );
        let total: SimDuration = segs.iter().map(|s| s.duration).sum();
        assert_eq!(total, SimDuration::from_micros(3000));
        // Expect 4 segments: [0,500) quiet, [500,1000) A, [1000,1200) A+B,
        // [1200,3000) B.
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].interference, MilliWatts::ZERO);
        assert!(segs[2].interference > segs[1].interference);
        assert!((segs[2].interference.to_dbm().value() - (-66.99)).abs() < 0.05);
    }

    #[test]
    fn quiet_window_single_segment() {
        let mut m = medium();
        m.add(mk_tx(1, 0, 2460.0, 0, 3000, -60.0));
        let segs = m.interference_segments(
            1,
            1,
            Megahertz::new(2460.0),
            SimTime::ZERO,
            SimTime::from_micros(3000),
        );
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].interference, MilliWatts::ZERO);
    }

    #[test]
    fn ended_interferers_still_visible_for_late_queries() {
        let mut m = medium();
        m.add(mk_tx(1, 0, 2460.0, 0, 500, -70.0)); // ends early
        m.add(mk_tx(2, 1, 2460.0, 100, 3000, -60.0)); // subject
        let segs = m.interference_segments(
            2,
            2,
            Megahertz::new(2460.0),
            SimTime::from_micros(100),
            SimTime::from_micros(3000),
        );
        assert!(
            segs[0].interference > MilliWatts::ZERO,
            "early overlap seen"
        );
    }

    #[test]
    fn history_pruned_after_retention() {
        let mut m = medium();
        m.add(mk_tx(1, 0, 2460.0, 0, 100, -70.0));
        assert_eq!(m.tracked(), 1);
        m.add(mk_tx(2, 1, 2460.0, 50_000, 53_000, -70.0));
        assert_eq!(m.tracked(), 1, "stale entry pruned on add");
        assert!(m.get(1).is_none());
        assert!(m.get(2).is_some());
    }

    #[test]
    fn get_survives_pruning_and_misses_cleanly() {
        let mut m = medium();
        for id in 1..=5 {
            m.add(mk_tx(id, 0, 2460.0, id * 100, id * 100 + 50, -70.0));
        }
        assert!(m.get(0).is_none(), "below the slab");
        assert!(m.get(6).is_none(), "beyond the slab");
        assert_eq!(m.get(3).map(|t| t.id), Some(3));
        // Push the front past retention; survivors stay addressable.
        m.add(mk_tx(6, 1, 2463.0, 50_000, 53_000, -70.0));
        assert!(m.get(1).is_none());
        assert_eq!(m.get(6).map(|t| t.seq), Some(0));
    }

    #[test]
    fn stale_mid_slab_entries_invisible_to_queries() {
        let mut m = medium();
        // A long frame holds the slab front while a short one goes stale
        // behind it (prefix pruning keeps both).
        m.add(mk_tx(1, 0, 2460.0, 0, 40_000, -60.0)); // long
        m.add(mk_tx(2, 1, 2460.0, 100, 200, -50.0)); // short, stale soon
        m.add(mk_tx(3, 2, 2460.0, 39_000, 42_000, -70.0));
        assert_eq!(m.tracked(), 3, "prefix pruning keeps the stale entry");
        let total = m.sensed_total(3, Megahertz::new(2460.0), SimTime::from_micros(39_500));
        // Only tx 1 (−60) and tx 3 (−70) are active; tx 2 ended long ago.
        let expected = Dbm::new(-60.0).to_milliwatts()
            + Dbm::new(-70.0).to_milliwatts()
            + Dbm::new(-98.0).to_milliwatts();
        assert!((total.value() - expected.value()).abs() <= expected.value() * 1e-12);
    }

    #[test]
    fn boundary_equal_history_survives_prune_and_stays_indexed() {
        let mut m = medium();
        // tx 1 ends at t = 1 ms; the next add lands at t = 21 ms, so
        // `now − end` equals the 20 ms retention horizon *exactly*.
        m.add(mk_tx(1, 0, 2460.0, 0, 1000, -60.0));
        m.add(mk_tx(2, 1, 2460.0, 21_000, 24_000, -70.0));
        assert_eq!(m.tracked(), 2, "boundary-equal entry must be retained");
        assert!(m.get(1).is_some());
        // ... and must still be visible to the indexed segment scan.
        let segs = m.interference_segments(
            2,
            2,
            Megahertz::new(2460.0),
            SimTime::ZERO,
            SimTime::from_micros(1000),
        );
        assert!(
            segs[0].interference > MilliWatts::ZERO,
            "indexed scan must see the boundary-equal transmission"
        );
        // One nanosecond past the horizon it is pruned.
        let mut m = medium();
        m.add(mk_tx(1, 0, 2460.0, 0, 1000, -60.0));
        let mut late = mk_tx(2, 1, 2460.0, 21_000, 24_000, -70.0);
        late.start += SimDuration::from_nanos(1);
        m.add(late);
        assert_eq!(m.tracked(), 1, "past-boundary entry must be pruned");
        assert!(m.get(1).is_none());
    }

    #[test]
    fn ambient_energy_joins_power_queries() {
        let mut m = medium();
        m.add_ambient(
            Megahertz::new(2460.0),
            Dbm::new(-55.0),
            SimTime::from_micros(1000),
            SimTime::from_micros(2000),
        );
        let f = Megahertz::new(2460.0);
        // Active window: co-channel energy at every observer.
        let (co, inter) = m.sensed_components(0, f, SimTime::from_micros(1500));
        assert!((co.to_dbm().value() - (-55.0)).abs() < 0.01, "{co:?}");
        assert_eq!(inter, MilliWatts::ZERO);
        // End-exclusive: gone at exactly t = end.
        let (co, _) = m.sensed_components(0, f, SimTime::from_micros(2000));
        assert_eq!(co, MilliWatts::ZERO);
        // Cross-channel: leaks with the ACR rejection like any emitter.
        let (co, inter) =
            m.sensed_components(0, Megahertz::new(2463.0), SimTime::from_micros(1500));
        assert_eq!(co, MilliWatts::ZERO);
        assert!((inter.to_dbm().value() - (-75.0)).abs() < 0.1, "{inter:?}");
    }

    #[test]
    fn ambient_energy_joins_segments_and_collision() {
        let mut m = medium();
        m.add(mk_tx(1, 0, 2460.0, 0, 3000, -60.0)); // subject
        m.add_ambient(
            Megahertz::new(2460.0),
            Dbm::new(-55.0),
            SimTime::from_micros(1000),
            SimTime::from_micros(2000),
        );
        let segs = m.interference_segments(
            1,
            1,
            Megahertz::new(2460.0),
            SimTime::ZERO,
            SimTime::from_micros(3000),
        );
        // [0,1000) quiet, [1000,2000) jammed, [2000,3000) quiet.
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].interference, MilliWatts::ZERO);
        assert!((segs[1].interference.to_dbm().value() - (-55.0)).abs() < 0.01);
        assert_eq!(segs[2].interference, MilliWatts::ZERO);
        assert!(m.was_collided(
            1,
            1,
            Megahertz::new(2460.0),
            SimTime::ZERO,
            SimTime::from_micros(3000),
            Dbm::new(-100.0)
        ));
        // Outside the burst the jammer does not collide.
        assert!(!m.was_collided(
            1,
            1,
            Megahertz::new(2460.0),
            SimTime::from_micros(2100),
            SimTime::from_micros(3000),
            Dbm::new(-100.0)
        ));
    }

    #[test]
    fn collided_predicate() {
        let mut m = medium();
        m.add(mk_tx(1, 0, 2460.0, 0, 3000, -60.0));
        m.add(mk_tx(2, 1, 2463.0, 1000, 2000, -60.0));
        let f = Megahertz::new(2460.0);
        let floor = Dbm::new(-100.0);
        assert!(m.was_collided(1, 3, f, SimTime::ZERO, SimTime::from_micros(3000), floor));
        // Adjacent-channel overlaps count too (coupled power −80 dBm).
        assert!(m.was_collided(
            2,
            3,
            Megahertz::new(2463.0),
            SimTime::from_micros(1500),
            SimTime::from_micros(1800),
            floor
        ));
        // No overlap in the queried window → not collided.
        assert!(!m.was_collided(
            1,
            3,
            f,
            SimTime::from_micros(3500),
            SimTime::from_micros(4000),
            floor
        ));
    }

    #[test]
    fn segment_error_sampling_scales_with_sinr() {
        let mut rng = crate::rng::Xoshiro256StarStar::seed_from_u64(3);
        let noise = Dbm::new(-98.0).to_milliwatts();
        let quiet = [Segment {
            duration: SimDuration::from_micros(2976),
            interference: MilliWatts::ZERO,
        }];
        let (errs, bits) = sample_segment_errors(
            &mut rng,
            &quiet,
            Dbm::new(-60.0),
            noise,
            BerModel::Oqpsk802154,
        );
        assert_eq!(bits, 744);
        assert_eq!(errs, 0, "38 dB SNR is error-free");

        let jammed = [Segment {
            duration: SimDuration::from_micros(2976),
            interference: Dbm::new(-57.0).to_milliwatts(),
        }];
        let (errs, _) = sample_segment_errors(
            &mut rng,
            &jammed,
            Dbm::new(-60.0),
            noise,
            BerModel::Oqpsk802154,
        );
        assert!(errs >= 1, "-3 dB SINR must corrupt the frame, got {errs}");
        let destroyed = [Segment {
            duration: SimDuration::from_micros(2976),
            interference: Dbm::new(-50.0).to_milliwatts(),
        }];
        let (errs, _) = sample_segment_errors(
            &mut rng,
            &destroyed,
            Dbm::new(-60.0),
            noise,
            BerModel::Oqpsk802154,
        );
        assert!(errs > 100, "-10 dB SINR must corrupt heavily, got {errs}");
    }

    #[test]
    fn sync_probability_extremes() {
        let noise = Dbm::new(-98.0).to_milliwatts();
        let quiet = [Segment {
            duration: SimDuration::from_micros(160),
            interference: MilliWatts::ZERO,
        }];
        let p = sync_success_probability(&quiet, Dbm::new(-60.0), noise, BerModel::Oqpsk802154);
        assert!(p > 0.9999);
        let jammed = [Segment {
            duration: SimDuration::from_micros(160),
            interference: Dbm::new(-50.0).to_milliwatts(),
        }];
        let p = sync_success_probability(&jammed, Dbm::new(-60.0), noise, BerModel::Oqpsk802154);
        assert!(p < 0.05, "got {p}");
    }
}
