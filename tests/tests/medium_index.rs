//! Property tests pinning the indexed [`Medium`] to a naive full-scan
//! reference.
//!
//! The medium keeps a per-channel id index over a monotonic-id slab so
//! power queries touch only plausibly-overlapping transmissions. These
//! properties assert the optimization is *invisible*: over randomized
//! transmission sets — including channels beyond the ACR saturation
//! cutoff and entries old enough to be pruned — every query returns
//! results **bit-identical** to a flat scan of the same registry in the
//! documented summation orders (channel-major for
//! [`Medium::sensed_components`], id order for
//! [`Medium::interference_segments`]). The bound-first reception
//! cutoff is pinned here too: whenever [`Medium::interference_bound`],
//! or a reception's running bound accumulated the way the engine
//! accumulates it, puts a signal at or above the BER model's error-free
//! SINR, the segment path draws nothing and succeeds with certainty.

use nomc_phy::BerModel;
use nomc_rngcore::check::{boolean, forall, range, vec_of, zip2, zip3, zip4, G};
use nomc_rngcore::{check, check_eq, RngCore, SeedableRng};
use nomc_sim::events::{NodeId, TxId};
use nomc_sim::medium::{self, Medium, Segment, Transmission};
use nomc_sim::rng::Xoshiro256StarStar;
use nomc_units::{Dbm, Megahertz, MilliWatts, SimDuration, SimTime};
use std::collections::VecDeque;

/// Observers / transmitters share this many node ids.
const NODES: usize = 6;

/// Mirrors the medium's retention horizon (see `Medium::new`): the
/// reference registry must prune the same prefix the medium prunes, or
/// the two would diverge on ancient history instead of on indexing bugs.
const RETENTION: SimDuration = SimDuration::from_millis(20);

/// The channel grid: 8 points at 3 MHz spacing. Distances from one end
/// to the other (21 MHz) comfortably exceed the CC2420 curve's 9 MHz
/// saturation CFD, so beyond-cutoff channels occur in every dense case.
fn grid(k: usize) -> Megahertz {
    Megahertz::new(2450.0 + 3.0 * k as f64)
}

/// One randomized transmission: (grid point, start µs, duration µs,
/// strongest received power dBm).
type Spec = (usize, u64, u64, f64);

fn arb_specs() -> G<Vec<Spec>> {
    vec_of(
        zip4(
            range(0usize..8),
            range(0u64..30_000),
            range(200u64..4_300),
            range(-90.0f64..-30.0),
        ),
        1..40,
    )
}

/// A medium with the CC2420 rejection curve and a −98 dBm noise floor.
fn new_medium() -> Medium {
    Medium::new(
        nomc_phy::coupling::AcrCurve::cc2420_calibrated(),
        Dbm::new(-98.0).to_milliwatts(),
    )
}

/// The transmissions of `specs` in registration order: sorted by start
/// (the engine registers in event order), ids minted consecutively
/// from 1.
fn transmissions(specs: &[Spec]) -> Vec<Transmission> {
    let mut sorted = specs.to_vec();
    sorted.sort_by_key(|&(_, start, ..)| start);
    sorted
        .iter()
        .enumerate()
        .map(|(i, &(k, start_us, dur_us, power))| Transmission {
            id: (i + 1) as TxId,
            tx_node: i % NODES,
            link: i % NODES,
            frequency: grid(k),
            start: SimTime::from_micros(start_us),
            mpdu_start: SimTime::from_micros(start_us + 192),
            end: SimTime::from_micros(start_us + dur_us),
            seq: 0,
            forced: false,
            rx_power: (0..NODES).map(|n| Dbm::new(power - n as f64)).collect(),
        })
        .collect()
}

/// Builds the indexed medium and the flat reference registry from the
/// same specs; the reference applies the same prefix-only pruning
/// `Medium::add` applies.
fn build(specs: &[Spec]) -> (Medium, VecDeque<Transmission>) {
    let mut medium = new_medium();
    let mut flat: VecDeque<Transmission> = VecDeque::new();
    for tx in transmissions(specs) {
        while flat
            .front()
            .is_some_and(|t| tx.start.saturating_since(t.end) > RETENTION)
        {
            flat.pop_front();
        }
        flat.push_back(tx.clone());
        medium.add(tx);
    }
    (medium, flat)
}

/// Registers `specs` in time order while `observer` (tuned to `freq`)
/// holds a lock on the `pick`-th of them from its start to its end,
/// and keeps that reception's running bound the way the engine does:
/// seeded when the lock is taken with everything on air (before the
/// locked frame itself is registered), then grown by the coupled power
/// of every registration while the lock lasts. Returns the medium, the
/// locked frame and its running bound.
fn build_locked(
    specs: &[Spec],
    pick: usize,
    observer: NodeId,
    freq: Megahertz,
) -> (Medium, Transmission, MilliWatts) {
    let txs = transmissions(specs);
    let subject = txs[pick % txs.len()].clone();
    let mut medium = new_medium();
    let mut running = MilliWatts::ZERO;
    for tx in txs {
        let (id, start) = (tx.id, tx.start);
        if id == subject.id {
            running = medium.on_air_interference(observer, freq, start);
        }
        medium.add(tx);
        if id > subject.id && start < subject.end {
            running += medium.coupled_power(id, observer, freq);
        }
    }
    (medium, subject, running)
}

/// Flat-scan reference for [`Medium::sensed_components`]: channel-major
/// (distinct frequencies ascending, ids ascending within a channel),
/// one leakage factor per channel, saturation cutoff applied.
fn naive_sensed(
    medium: &Medium,
    flat: &VecDeque<Transmission>,
    observer: NodeId,
    freq: Megahertz,
    now: SimTime,
) -> (MilliWatts, MilliWatts) {
    let cutoff = medium.acr().saturation_cfd().value();
    let mut freqs: Vec<f64> = flat.iter().map(|t| t.frequency.value()).collect();
    freqs.sort_by(f64::total_cmp);
    freqs.dedup();
    let mut co = MilliWatts::ZERO;
    let mut inter = MilliWatts::ZERO;
    for f in freqs {
        let cfd = Megahertz::new(f).distance_to(freq);
        if cfd.value() > cutoff {
            continue;
        }
        let factor = medium.acr().leakage_factor(cfd);
        for t in flat {
            if t.frequency.value() != f || t.tx_node == observer || !t.is_active_at(now) {
                continue;
            }
            let coupled = t.rx_power[observer].to_milliwatts() * factor;
            if cfd.value() < 0.5 {
                co += coupled;
            } else {
                inter += coupled;
            }
        }
    }
    (co, inter)
}

/// Flat-scan reference for [`Medium::interference_segments`]: id-order
/// candidate collection with the saturation cutoff, then the same
/// boundary construction.
fn naive_segments(
    medium: &Medium,
    flat: &VecDeque<Transmission>,
    subject: TxId,
    observer: NodeId,
    freq: Megahertz,
    from: SimTime,
    to: SimTime,
) -> Vec<Segment> {
    let cutoff = medium.acr().saturation_cfd().value();
    let mut interferers: Vec<(SimTime, SimTime, MilliWatts)> = Vec::new();
    for t in flat {
        let cfd = t.frequency.distance_to(freq);
        if cfd.value() > cutoff || t.id == subject || t.tx_node == observer {
            continue;
        }
        if let Some((s, e)) = t.overlap(from, to) {
            let coupled = t.rx_power[observer].to_milliwatts() * medium.acr().leakage_factor(cfd);
            interferers.push((s, e, coupled));
        }
    }
    let mut bounds: Vec<SimTime> = vec![from, to];
    for &(s, e, _) in &interferers {
        bounds.push(s);
        bounds.push(e);
    }
    bounds.sort();
    bounds.dedup();
    let mut segments = Vec::new();
    for (&s, &e) in bounds.iter().zip(bounds.iter().skip(1)) {
        if s == e {
            continue;
        }
        let mut power = MilliWatts::ZERO;
        for &(is, ie, p) in &interferers {
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
    segments
}

#[test]
fn sensed_components_match_full_scan() {
    let g = zip3(
        arb_specs(),
        zip2(range(0usize..NODES), range(0usize..8)),
        range(0u64..36_000),
    );
    forall(
        "sensed_components_match_full_scan",
        96,
        &g,
        |(specs, (observer, obs_k), now_us)| {
            let (medium, flat) = build(specs);
            let freq = grid(*obs_k);
            let now = SimTime::from_micros(*now_us);
            let (co, inter) = medium.sensed_components(*observer, freq, now);
            let (nco, ninter) = naive_sensed(&medium, &flat, *observer, freq, now);
            check_eq!(co, nco);
            check_eq!(inter, ninter);
            check_eq!(
                medium.sensed_total(*observer, freq, now),
                nco + ninter + medium.noise()
            );
            Ok(())
        },
    );
}

#[test]
fn interference_segments_match_full_scan() {
    let g = zip4(
        arb_specs(),
        zip2(range(0usize..NODES), range(0usize..8)),
        range(0u64..45), // subject id (may or may not exist / be pruned)
        zip2(range(0u64..36_000), range(1u64..6_000)),
    );
    forall(
        "interference_segments_match_full_scan",
        96,
        &g,
        |(specs, (observer, obs_k), subject, (from_us, len_us))| {
            let (medium, flat) = build(specs);
            let freq = grid(*obs_k);
            let (from, to) = (
                SimTime::from_micros(*from_us),
                SimTime::from_micros(*from_us + *len_us),
            );
            let got = medium.interference_segments(*subject, *observer, freq, from, to);
            let want = naive_segments(&medium, &flat, *subject, *observer, freq, from, to);
            check_eq!(got, want);
            let covered: SimDuration = got.iter().map(|s| s.duration).sum();
            check_eq!(covered, to - from);
            Ok(())
        },
    );
}

#[test]
fn collision_predicate_matches_full_scan() {
    let g = zip4(
        arb_specs(),
        zip2(range(0usize..NODES), range(0usize..8)),
        zip2(range(0u64..45), range(-110.0f64..-40.0)),
        zip2(range(0u64..36_000), range(1u64..6_000)),
    );
    forall(
        "collision_predicate_matches_full_scan",
        96,
        &g,
        |(specs, (observer, obs_k), (subject, floor), (from_us, len_us))| {
            let (medium, flat) = build(specs);
            let freq = grid(*obs_k);
            let (from, to) = (
                SimTime::from_micros(*from_us),
                SimTime::from_micros(*from_us + *len_us),
            );
            let floor = Dbm::new(*floor);
            // was_collided deliberately has *no* channel cutoff.
            let want = flat.iter().any(|t| {
                t.id != *subject
                    && t.tx_node != *observer
                    && t.overlap(from, to).is_some()
                    && (t.rx_power[*observer].to_milliwatts()
                        * medium.acr().leakage_factor(t.frequency.distance_to(freq)))
                    .to_dbm()
                        > floor
            });
            check_eq!(
                medium.was_collided(*subject, *observer, freq, from, to, floor),
                want
            );
            Ok(())
        },
    );
}

/// The bound-first cutoff is sound for both bounds the engine reads: the
/// medium walk [`Medium::interference_bound`] and a reception's running
/// bound (its seed, its adds and the ambient bursts over the window),
/// which must be at least the walk up to the rounding of a
/// differently-ordered sum. Whenever `signal ≥ R · (bound + noise)`,
/// sampling the window's segments yields no errors and consumes no
/// randomness, and the sync probability is exactly 1.0. Windows are
/// stretches of the locked frame, a jammer burst rides along in about
/// half the cases, and signals are placed within a few dB of one of the
/// two cutoffs on both sides, so the implication is exercised at each
/// edge; only the implication is asserted, never an ordering between a
/// bound and a differently-summed segment.
#[test]
fn interference_bound_settles_only_error_free_windows() {
    let settled = std::sync::atomic::AtomicU32::new(0);
    let g = zip4(
        arb_specs(),
        zip3(range(0usize..NODES), range(0usize..8), boolean()),
        zip3(range(0usize..40), range(-1.0f64..3.0), boolean()),
        zip3(
            zip2(range(0u64..1_001), range(0u64..1_001)),
            boolean(),
            zip3(
                range(0usize..8),
                range(0u64..36_000),
                range(-90.0f64..-50.0),
            ),
        ),
    );
    forall(
        "interference_bound_settles_only_error_free_windows",
        192,
        &g,
        |(
            specs,
            (observer, obs_k, dbpsk),
            (pick, offset_db, centre_on_walk),
            ((a, b), jammed, (jam_k, jam_us, jam_dbm)),
        )| {
            let freq = grid(*obs_k);
            let (mut medium, subject, running) = build_locked(specs, *pick, *observer, freq);
            if *jammed {
                let at = SimTime::from_micros(*jam_us);
                medium.add_ambient(
                    grid(*jam_k),
                    Dbm::new(*jam_dbm),
                    at,
                    at + SimDuration::from_millis(2),
                );
            }
            let span = (subject.end - subject.start).as_nanos();
            let (lo, hi) = (*a.min(b), *a.max(b));
            let from = subject.start + SimDuration::from_nanos(span * lo / 1_000);
            let to = (subject.start + SimDuration::from_nanos(span * hi / 1_000))
                .max(from + SimDuration::from_micros(1));
            let model = if *dbpsk {
                BerModel::Dsss80211b
            } else {
                BerModel::Oqpsk802154
            };
            let noise = medium.noise();
            let walk = medium.interference_bound(subject.id, *observer, freq, from, to);
            let bound = running + medium.ambient_interference(freq, from, to);
            check!(
                bound.value() >= walk.value() * (1.0 - 1e-12),
                "running bound {bound:?} below the walk {walk:?}"
            );
            let floor = |b: MilliWatts| (b + noise).value() * model.error_free_sinr();
            let centre = floor(if *centre_on_walk { walk } else { bound });
            let signal = Dbm::new(10.0 * centre.log10() + offset_db);
            let signal_mw = signal.to_milliwatts().value();
            if signal_mw >= floor(bound) {
                settled.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            } else if signal_mw < floor(walk) {
                return Ok(());
            }
            let segments = medium.interference_segments(subject.id, *observer, freq, from, to);
            let mut rng = Xoshiro256StarStar::seed_from_u64(*jam_us);
            let mut untouched = rng.clone();
            let (errors, _) =
                medium::sample_segment_errors(&mut rng, &segments, signal, noise, model);
            check_eq!(errors, 0);
            check_eq!(rng.next_u64(), untouched.next_u64());
            let p = medium::sync_success_probability(&segments, signal, noise, model);
            check_eq!(p.to_bits(), 1.0f64.to_bits());
            Ok(())
        },
    );
    let settled = settled.into_inner();
    assert!(
        settled >= 48,
        "the running bound settled only {settled} of 192 cases"
    );
}

/// Regression: a transmission whose end lands on the *exact* prune
/// boundary (`now − end == retention`) must be retained and remain
/// visible to the indexed scan — the prune comparison is strict, so
/// boundary-equal history is inside the horizon, not past it. A
/// one-nanosecond-older end is pruned.
#[test]
fn prune_boundary_equal_end_stays_visible_to_indexed_scan() {
    let mk = |id: TxId, node: NodeId, start: SimTime, end: SimTime| Transmission {
        id,
        tx_node: node,
        link: node,
        frequency: grid(0),
        start,
        mpdu_start: start + SimDuration::from_micros(192),
        end,
        seq: 0,
        forced: false,
        rx_power: (0..NODES).map(|n| Dbm::new(-60.0 - n as f64)).collect(),
    };
    let boundary_end = SimTime::from_micros(1_000);
    let next_start = boundary_end + RETENTION; // now − end == retention exactly
    let mut medium = new_medium();
    medium.add(mk(1, 0, SimTime::ZERO, boundary_end));
    medium.add(mk(
        2,
        1,
        next_start,
        next_start + SimDuration::from_micros(3_000),
    ));
    assert_eq!(medium.tracked(), 2, "boundary-equal entry must survive");
    assert!(medium.get(1).is_some());
    // The per-channel index must agree with the slab: a segment query
    // over the retained transmission's live window still sees its energy.
    let segs = medium.interference_segments(2, 2, grid(0), SimTime::ZERO, boundary_end);
    assert_eq!(segs.len(), 1);
    assert!(
        segs[0].interference > MilliWatts::ZERO,
        "indexed scan must see the boundary-equal transmission"
    );
    // ... and matches the naive reference exactly at the boundary.
    let flat: VecDeque<Transmission> = [
        mk(1, 0, SimTime::ZERO, boundary_end),
        mk(
            2,
            1,
            next_start,
            next_start + SimDuration::from_micros(3_000),
        ),
    ]
    .into_iter()
    .collect();
    let want = naive_segments(&medium, &flat, 2, 2, grid(0), SimTime::ZERO, boundary_end);
    assert_eq!(segs, want);

    // One nanosecond past the horizon the entry is pruned from slab and
    // index alike.
    let mut medium = new_medium();
    medium.add(mk(1, 0, SimTime::ZERO, boundary_end));
    let late_start = next_start + SimDuration::from_nanos(1);
    medium.add(mk(
        2,
        1,
        late_start,
        late_start + SimDuration::from_micros(3_000),
    ));
    assert_eq!(medium.tracked(), 1, "past-boundary entry must be pruned");
    assert!(medium.get(1).is_none());
    let segs = medium.interference_segments(2, 2, grid(0), SimTime::ZERO, boundary_end);
    assert_eq!(segs.len(), 1);
    assert_eq!(segs[0].interference, MilliWatts::ZERO);
}

/// Pins the incremental active-set sense path to the windowed reference
/// walk (`sensed_components_naive`, compiled via the `naive-medium`
/// feature) and to the flat scan, with [`Medium::retire`] driven
/// exactly the way the engine drives it: every transmission whose end
/// is at or before the query instant has had its TxEnd fire, in event
/// (end-time, id) order. Both paths must agree bit for bit.
#[test]
fn incremental_sense_matches_naive_after_retire() {
    let g = zip3(
        arb_specs(),
        zip2(range(0usize..NODES), range(0usize..8)),
        range(0u64..36_000),
    );
    forall(
        "incremental_sense_matches_naive_after_retire",
        96,
        &g,
        |(specs, (observer, obs_k), now_us)| {
            let (mut medium, flat) = build(specs);
            let freq = grid(*obs_k);
            let now = SimTime::from_micros(*now_us);
            // Before any retire the active sets hold everything; the two
            // paths must already agree.
            check_eq!(
                medium.sensed_components(*observer, freq, now),
                medium.sensed_components_naive(*observer, freq, now)
            );
            // Fire the TxEnds the engine would have fired by `now`.
            let mut ended: Vec<(SimTime, TxId)> = flat
                .iter()
                .filter(|t| t.end <= now)
                .map(|t| (t.end, t.id))
                .collect();
            ended.sort();
            for &(_, id) in &ended {
                medium.retire(id);
            }
            let (co, inter) = medium.sensed_components(*observer, freq, now);
            check_eq!(
                (co, inter),
                medium.sensed_components_naive(*observer, freq, now)
            );
            check_eq!(
                (co, inter),
                naive_sensed(&medium, &flat, *observer, freq, now)
            );
            // Retiring is idempotent and ignores unknown/pruned ids.
            for &(_, id) in &ended {
                medium.retire(id);
            }
            medium.retire(0);
            medium.retire(9_999);
            check_eq!((co, inter), medium.sensed_components(*observer, freq, now));
            // The windowed history is untouched by retirement: late
            // segment and collision queries still see ended frames.
            let from = SimTime::from_micros(now_us.saturating_sub(5_000));
            check_eq!(
                medium.interference_segments(0, *observer, freq, from, now),
                naive_segments(&medium, &flat, 0, *observer, freq, from, now)
            );
            Ok(())
        },
    );
}

#[test]
fn get_matches_linear_find() {
    forall("get_matches_linear_find", 64, &arb_specs(), |specs| {
        let (medium, flat) = build(specs);
        check_eq!(medium.tracked(), flat.len());
        for id in 0..(specs.len() as TxId + 2) {
            let got = medium.get(id).map(|t| (t.id, t.start, t.end));
            let want = flat
                .iter()
                .find(|t| t.id == id)
                .map(|t| (t.id, t.start, t.end));
            check_eq!(got, want);
            if let Some(t) = medium.get(id) {
                check!(t.id == id, "get({id}) returned id {}", t.id);
            }
        }
        Ok(())
    });
}
