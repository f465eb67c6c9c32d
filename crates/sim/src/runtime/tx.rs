//! The data-frame life cycle: TxStart, sync acquisition, decode, TxEnd.
//!
//! A frame's engine-side record is [`TxMeta`]: decode results are
//! staged there (outcome, duplicate flag, bit-error record) and emitted
//! as one [`TxOutcomeInfo`] notification when the frame leaves the air,
//! so observers see a single authoritative per-frame outcome.

use super::node::RxAttempt;
use super::observer::{TxOutcomeInfo, TxStartInfo};
use super::Engine;
use crate::events::{Event, NodeId, TxId};
use crate::medium::{self, Transmission};
use crate::metrics::{ErrorRecord, TxOutcome};
use crate::trace::TraceKind;
use nomc_mac::MacEvent;
use nomc_radio::timing;
use nomc_rngcore::Rng;
use nomc_units::{Dbm, Megahertz, MilliWatts, SimTime};

/// Engine-side metadata for an in-flight transmission.
#[derive(Debug)]
pub(crate) struct TxMeta {
    pub(crate) measured: bool,
    pub(crate) link: usize,
    pub(crate) intended_rx: NodeId,
    /// The intended receiver could not even attempt sync (busy/TX).
    pub(crate) intended_busy: bool,
    /// Outcome recorded during decode (None until TxEnd processing).
    pub(crate) outcome: Option<TxOutcome>,
    /// A successful decode was a duplicate delivery (its predecessor's
    /// ACK was lost); staged during decode.
    pub(crate) duplicate: bool,
    /// Bit-error profile of a failed decode at the intended receiver;
    /// staged during decode.
    pub(crate) error_record: Option<ErrorRecord>,
}

impl Engine<'_, '_, '_> {
    pub(crate) fn on_tx_start(&mut self, n: NodeId) {
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        let node_count = self.nodes.len();
        let (freq, tx_power, link, forced, seq) = {
            let node = &mut self.nodes[n];
            node.transmitting = true;
            node.rx = None;
            node.last_tx = id;
            (
                node.freq,
                node.tx_power,
                node.link,
                node.forced_next,
                node.seq,
            )
        };
        // Per-observer received powers with fresh per-packet shadowing.
        let mut rx_power = Vec::with_capacity(node_count);
        for o in 0..node_count {
            if o == n {
                rx_power.push(tx_power);
            } else {
                let shadow = self.sc.propagation.shadowing.sample(&mut self.rng);
                rx_power.push(tx_power - self.loss[n][o] + shadow);
            }
        }
        let start = self.now;
        let end = start + self.airtime;
        let mpdu_start = start + self.mpdu_offset;
        let measured = {
            let t0 = SimTime::ZERO + self.sc.warmup;
            let t1 = SimTime::ZERO + self.sc.duration;
            start >= t0 && start < t1
        };
        let intended_rx = self.link_rx[link];
        // Offer sync to the precomputed CFD-eligible observers (the
        // skipped nodes would fail `is_sync_candidate` and do nothing;
        // see `Engine::sync_candidates`).
        let sync_at = start + self.sync_dur;
        for ci in 0..self.sync_candidates[n].len() {
            let o = self.sync_candidates[n][ci];
            let obs = &self.nodes[o];
            if obs.transmitting || obs.rx.is_some() {
                continue;
            }
            let cfd = freq.distance_to(obs.freq);
            let coupled = rx_power[o] - self.medium.acr().rejection(cfd);
            if !self
                .sc
                .radio
                .capture_model
                .clears_sensitivity(coupled, self.sc.radio.sensitivity)
            {
                continue;
            }
            // The running bound starts with everything already on air;
            // this frame is not registered yet, so it is not counted.
            let bound = self
                .medium
                .on_air_interference(o, self.nodes[o].freq, start);
            self.nodes[o].rx = Some(RxAttempt {
                tx_id: id,
                synced: false,
                bound,
            });
            self.locks.push((o, id));
            self.queue.schedule(sync_at, Event::SyncDone(o, id));
        }
        let intended_busy = {
            let r = &self.nodes[intended_rx];
            let locked_to_us = matches!(r.rx, Some(a) if a.tx_id == id);
            !locked_to_us && (r.transmitting || r.rx.is_some())
        };
        self.tx_meta.insert(
            id,
            TxMeta {
                measured,
                link,
                intended_rx,
                intended_busy,
                outcome: None,
                duplicate: false,
                error_record: None,
            },
        );
        let retrying = self.nodes[n]
            .mac
            .as_ref()
            .is_some_and(|m| m.retry_count() > 0);
        if measured {
            self.nodes[n].stats.transmitted += 1;
            if forced {
                self.nodes[n].stats.forced_transmissions += 1;
            }
            if retrying {
                self.nodes[n].stats.retransmissions += 1;
            }
        }
        self.obs.tx_start(&TxStartInfo {
            tx: id,
            node: n,
            link,
            seq,
            forced,
            retry: retrying,
            measured,
            at: start,
            end,
        });
        self.register(Transmission {
            id,
            tx_node: n,
            link,
            frequency: freq,
            start,
            mpdu_start,
            end,
            seq,
            forced,
            rx_power,
        });
        self.obs.trace_kind(
            self.now,
            TraceKind::TxStart {
                node: n,
                tx: id,
                seq,
                forced,
            },
        );
        self.queue.schedule(end, Event::TxEnd(n, id));
    }

    pub(crate) fn on_sync_done(&mut self, o: NodeId, tx_id: TxId) {
        let Some(attempt) = self.nodes[o].rx else {
            return;
        };
        if attempt.tx_id != tx_id || attempt.synced || self.nodes[o].transmitting {
            return;
        }
        let Some(t) = self.medium.get(tx_id) else {
            self.nodes[o].rx = None;
            return;
        };
        let cfd = t.frequency.distance_to(self.nodes[o].freq);
        // The preamble correlator detects its known sequence several dB
        // below the payload decoding threshold (sync_margin).
        let coupled = t.rx_power[o] - self.medium.acr().rejection(cfd) + self.sc.radio.sync_margin;
        let window = (t.start, t.start + self.sync_dur);
        let freq = self.nodes[o].freq;
        let bound = self.reception_bound(attempt.bound, tx_id, o, freq, window);
        let p = self.window_sync_probability(tx_id, o, freq, window, coupled, bound);
        if self.rng.gen::<f64>() < p {
            self.nodes[o].rx = Some(RxAttempt {
                synced: true,
                ..attempt
            });
        } else {
            self.nodes[o].rx = None;
        }
    }

    pub(crate) fn on_tx_end(&mut self, n: NodeId, tx_id: TxId) {
        // The frame leaves the air: drop it from the medium's active
        // sets (instantaneous queries at now >= end already exclude it,
        // so this is pure index maintenance). It stays in the windowed
        // history for the segment/collision queries below.
        self.medium.retire(tx_id);
        // ACK frames complete differently: the acking receiver goes idle
        // and the original sender tries to decode the ACK.
        if let Some((parent, sender)) = self.acks.remove(&tx_id) {
            self.nodes[n].transmitting = false;
            self.try_deliver_ack(tx_id, parent, sender);
            return;
        }
        // 1. The transmitter returns to idle and paces its next frame —
        // unless it crashed mid-flight (dead nodes pace nothing) or this
        // TxEnd belongs to a pre-crash life (`last_tx` resets on reboot,
        // so a since-rebooted node never mistakes the old frame's end
        // for its current one).
        if self.nodes[n].last_tx == tx_id {
            self.nodes[n].transmitting = false;
            if !self.nodes[n].down {
                self.feed_mac(n, MacEvent::TxDone);
            }
        }

        // 2. Locked receivers decode (ascending node id; decode never
        // touches another node's lock, so the in-place scan visits the
        // same set a pre-collected list would).
        for o in 0..self.nodes.len() {
            if let Some(r) = self.nodes[o].rx.filter(|r| r.tx_id == tx_id && r.synced) {
                self.decode(o, tx_id, r.bound);
                self.nodes[o].rx = None;
            }
        }

        // 3. The frame's single authoritative outcome notification.
        let Some(meta) = self.tx_meta.remove(&tx_id) else {
            return;
        };
        let Some(t) = self.medium.get(tx_id) else {
            return;
        };
        let (start, end) = (t.start, t.end);
        let intended_freq = self.nodes[meta.intended_rx].freq;
        let collided = self.medium.was_collided(
            tx_id,
            meta.intended_rx,
            intended_freq,
            start,
            end,
            self.sc.collision_floor,
        );
        let outcome = meta.outcome.unwrap_or(if meta.intended_busy {
            TxOutcome::ReceiverBusy
        } else {
            TxOutcome::SyncMissed
        });
        self.obs.tx_outcome(&TxOutcomeInfo {
            tx: tx_id,
            link: meta.link,
            receiver: meta.intended_rx,
            outcome,
            collided,
            duplicate: meta.duplicate,
            measured: meta.measured,
            start,
            end,
            error_record: meta.error_record,
        });
        if meta.measured {
            self.obs.trace_kind(
                self.now,
                TraceKind::Outcome {
                    tx: tx_id,
                    receiver: meta.intended_rx,
                    outcome,
                },
            );
        }
    }

    /// Decodes transmission `tx_id` at node `o` (which stayed locked to
    /// it until the end, accumulating the running interference bound
    /// `running`).
    fn decode(&mut self, o: NodeId, tx_id: TxId, running: MilliWatts) {
        let Some(t) = self.medium.get(tx_id) else {
            return;
        };
        let obs_freq = self.nodes[o].freq;
        let cfd = t.frequency.distance_to(obs_freq);
        // Foreign-channel captures (802.11b-like mode only) waste the
        // receiver's time but never yield a usable frame.
        if cfd.value() >= 0.5 {
            return;
        }
        let (signal, seq, src) = (t.rx_power[o], t.seq, t.tx_node as u32);
        let window = (t.mpdu_start, t.end);
        let (measured, intended_rx) = match self.tx_meta.get(&tx_id) {
            Some(m) => (m.measured, m.intended_rx),
            None => (false, usize::MAX),
        };
        let bound = self.reception_bound(running, tx_id, o, obs_freq, window);
        let (errors, bits) = self.window_errors(tx_id, o, obs_freq, window, signal, bound);
        let mut new_record = None;
        let decoded = if errors == 0 {
            true
        } else if self.sc.record_error_positions {
            // Full-fidelity path: flip sampled bit positions in the real
            // MPDU image and run the real FCS check (a corrupted frame
            // passes CRC only with probability ≈ 2⁻¹⁶).
            let mut mpdu = self.sc.frame.build_mpdu(src, seq);
            let positions =
                nomc_phy::biterror::sample_error_positions(&mut self.rng, bits, errors.min(bits));
            for &p in &positions {
                let byte = (p / 8) as usize;
                if byte < mpdu.len() {
                    mpdu[byte] ^= 1 << (p % 8);
                }
            }
            let ok = nomc_radio::crc::verify_fcs(&mpdu);
            if !ok && o == intended_rx && measured {
                new_record = Some(ErrorRecord {
                    error_bits: errors.min(bits),
                    total_bits: bits,
                    positions: Some(positions),
                });
            }
            ok
        } else {
            if o == intended_rx && measured {
                new_record = Some(ErrorRecord {
                    error_bits: errors.min(bits),
                    total_bits: bits,
                    positions: None,
                });
            }
            false
        };
        if o == intended_rx {
            let duplicate = decoded && self.nodes[o].last_rx_seq == Some(seq);
            if let Some(m) = self.tx_meta.get_mut(&tx_id) {
                m.outcome = Some(if decoded {
                    TxOutcome::Received
                } else {
                    TxOutcome::CrcFailed
                });
                m.duplicate = duplicate;
                m.error_record = new_record;
            }
            if decoded {
                self.nodes[o].last_rx_seq = Some(seq);
            }
            if decoded && !duplicate {
                let link = self.nodes[o].link;
                if let Some(&f) = self.forwarders.get(&link) {
                    let delay = self.nodes[f]
                        .mac
                        .as_ref()
                        .expect("forwarder is a sender")
                        .params()
                        .post_tx_processing;
                    self.nodes[f].credits += 1;
                    if self.nodes[f].wants_packet {
                        self.nodes[f].wants_packet = false;
                        self.nodes[f].credits -= 1;
                        let at = self.now + delay;
                        if at < SimTime::ZERO + self.sc.duration {
                            self.queue.schedule(at, Event::PacketReady(f));
                        }
                    }
                }
            }
            // Acknowledged transfers: the receiver turns around and emits
            // an Imm-ACK (also for duplicates — their ACK was lost).
            if decoded && self.nodes[o].acknowledged {
                let turnaround = timing::TURNAROUND;
                self.nodes[o].transmitting = true;
                self.nodes[o].rx = None;
                self.queue
                    .schedule(self.now + turnaround, Event::AckStart(o, tx_id));
            }
        }
        if decoded {
            // Any successfully decoded co-channel frame feeds the
            // observer's CCA-threshold provider with its RSSI (the
            // paper's free information source).
            let rssi = self.rssi_read(o, signal);
            self.provider_mutate(o, |p, now| p.on_cochannel_packet(rssi, now));
        }
    }

    /// Registers `tx` with the medium and adds its coupled power to the
    /// running bound of every reception in progress, except those locked
    /// to `tx` itself. Every registration — data frame or ACK — goes
    /// through here, so no overlapping frame can escape a bound.
    ///
    /// The bound only grows. It is never a running total that must stay
    /// exact (frames that end are not subtracted): it is compared
    /// against a margin, and a looser bound only sends a window down the
    /// segment path, which gives the same bits.
    pub(super) fn register(&mut self, tx: Transmission) {
        let id = tx.id;
        self.medium.add(tx);
        let (nodes, medium) = (&mut self.nodes, &self.medium);
        self.locks.retain(|&(o, locked)| {
            let node = &mut nodes[o];
            let freq = node.freq;
            match node.rx.as_mut() {
                Some(rx) if rx.tx_id == locked => {
                    if locked != id {
                        rx.bound += medium.coupled_power(id, o, freq);
                    }
                    true
                }
                _ => false,
            }
        });
    }

    /// Re-seeds the running bound of every restored reception from one
    /// walk of the medium over its frame (a snapshot does not carry the
    /// bound), and rebuilds the list registrations feed. The walk covers
    /// both query windows whatever the frame's times say, so even a
    /// corrupted but parseable snapshot keeps the bound sound.
    pub(super) fn reseed_receptions(&mut self) {
        self.locks.clear();
        for o in 0..self.nodes.len() {
            let Some(rx) = self.nodes[o].rx else {
                continue;
            };
            let bound = self.medium.get(rx.tx_id).map_or(MilliWatts::ZERO, |t| {
                let from = t.start.min(t.mpdu_start);
                let to = t.end.max(t.start + self.sync_dur);
                self.medium
                    .interference_bound(rx.tx_id, o, self.nodes[o].freq, from, to)
            });
            self.nodes[o].rx = Some(RxAttempt { bound, ..rx });
            self.locks.push((o, rx.tx_id));
        }
    }

    /// The interference bound for `window` of a reception of `subject`
    /// at `o` (tuned to `freq`) whose running bound is `running`: that
    /// plus the ambient bursts over the window. At least the walk
    /// [`crate::medium::Medium::interference_bound`] over the same
    /// window up to the rounding of a differently-ordered sum, which
    /// debug builds check on every reception.
    fn reception_bound(
        &self,
        running: MilliWatts,
        subject: TxId,
        o: NodeId,
        freq: Megahertz,
        (from, to): (SimTime, SimTime),
    ) -> MilliWatts {
        let bound = running + self.medium.ambient_interference(freq, from, to);
        debug_assert!(
            {
                let walk = self.medium.interference_bound(subject, o, freq, from, to);
                bound.value() >= walk.value() * (1.0 - 1e-12)
            },
            "running bound {bound:?} of tx {subject} at node {o} is below the walk over {from:?}..{to:?}"
        );
        bound
    }

    /// Bit errors sampled over `window` of `subject` as received by `o`
    /// (tuned to `freq`) at `signal`, as `(errors, bits)`.
    ///
    /// Bound-first (see the `medium` module notes): a window whose
    /// interference `bound` leaves `signal` at or above the BER model's
    /// error-free SINR answers `(0, 0)` without building segments or
    /// drawing, exactly as the segment path would draw nothing for it.
    /// The bit count is reported only when the segments are built; no
    /// caller reads it for an error-free window.
    pub(super) fn window_errors(
        &mut self,
        subject: TxId,
        o: NodeId,
        freq: Megahertz,
        window: (SimTime, SimTime),
        signal: Dbm,
        bound: MilliWatts,
    ) -> (u32, u32) {
        if !self.build_segments(subject, o, freq, window, signal, bound) {
            return (0, 0);
        }
        medium::sample_segment_errors(
            &mut self.rng,
            &self.seg_buf,
            signal,
            self.medium.noise(),
            self.sc.radio.ber_model,
        )
    }

    /// Probability that `o` (tuned to `freq`) acquires sync on `subject`
    /// over `window` at `signal`: exactly 1.0 when the interference
    /// `bound` proves every bit error-free, the segment product
    /// otherwise.
    pub(super) fn window_sync_probability(
        &mut self,
        subject: TxId,
        o: NodeId,
        freq: Megahertz,
        window: (SimTime, SimTime),
        signal: Dbm,
        bound: MilliWatts,
    ) -> f64 {
        if !self.build_segments(subject, o, freq, window, signal, bound) {
            return 1.0;
        }
        medium::sync_success_probability(
            &self.seg_buf,
            signal,
            self.medium.noise(),
            self.sc.radio.ber_model,
        )
    }

    /// The bound-first test shared by both window questions: `false` when
    /// `signal ≥ R · (bound + noise)` settles the window as error-free;
    /// otherwise fills `seg_buf` with the window's segments and returns
    /// `true`. `bound` must be at least the window's
    /// [`crate::medium::Medium::interference_bound`].
    fn build_segments(
        &mut self,
        subject: TxId,
        o: NodeId,
        freq: Megahertz,
        (from, to): (SimTime, SimTime),
        signal: Dbm,
        bound: MilliWatts,
    ) -> bool {
        let floor =
            (bound + self.medium.noise()).value() * self.sc.radio.ber_model.error_free_sinr();
        if signal.to_milliwatts().value() >= floor {
            return false;
        }
        self.medium
            .interference_segments_into(subject, o, freq, from, to, &mut self.seg_buf);
        true
    }
}
