//! The CSMA/CA state machine.
//!
//! [`MacEngine`] is deliberately host-agnostic: it owns no clock and no
//! radio. The node runtime (in `nomc-sim`) translates its commands into
//! scheduled events and feeds results back as [`MacEvent`]s. This makes
//! every branch of the algorithm unit-testable with a hand-rolled event
//! sequence.

use crate::params::{CcaFailurePolicy, CsmaParams};
use nomc_rngcore::Rng;
use nomc_units::SimDuration;

/// Events the host feeds into the MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacEvent {
    /// A frame is ready at the head of the queue (engine must be idle).
    PacketReady,
    /// The backoff timer armed by [`MacCommand::SetBackoffTimer`] expired.
    BackoffExpired,
    /// The CCA requested by [`MacCommand::PerformCca`] completed.
    CcaResult {
        /// `true` if sensed power was below the CCA threshold.
        clear: bool,
    },
    /// The transmission started by [`MacCommand::BeginTransmit`] finished.
    TxDone,
    /// Acknowledged mode: the ACK wait ended (`acked` tells whether the
    /// ACK frame was decoded before [`MacCommand::WaitForAck`] expired).
    AckResult {
        /// Whether the ACK arrived.
        acked: bool,
    },
}

/// Commands the MAC issues to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacCommand {
    /// Arm a timer for the given duration, then deliver
    /// [`MacEvent::BackoffExpired`].
    SetBackoffTimer(SimDuration),
    /// Sample channel power for `cca_duration`, then deliver
    /// [`MacEvent::CcaResult`].
    PerformCca,
    /// Switch to TX (after turnaround) and send the frame; deliver
    /// [`MacEvent::TxDone`] when the last symbol leaves the antenna.
    BeginTransmit {
        /// `true` when this transmission was forced by the
        /// [`CcaFailurePolicy::TransmitAnyway`] policy after exhausting
        /// backoffs — it never saw a clear channel.
        forced: bool,
    },
    /// The frame was dropped due to channel-access failure
    /// ([`CcaFailurePolicy::DropPacket`]); the engine is idle again.
    DeclareFailure,
    /// The frame completed; after `post_tx_processing` the host may feed
    /// the next [`MacEvent::PacketReady`].
    CompletePacket,
    /// Acknowledged mode: listen for the ACK for the given duration, then
    /// deliver [`MacEvent::AckResult`].
    WaitForAck(SimDuration),
    /// Acknowledged mode: `macMaxFrameRetries` exhausted without an ACK;
    /// the frame is abandoned and the engine is idle again.
    AbandonPacket,
}

/// Internal engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    InBackoff,
    AwaitingCca,
    Transmitting,
    AwaitingAck,
}

/// Where in the CSMA/CA procedure an engine currently is, as exposed by
/// [`MacEngine::snapshot`]. Mirrors the internal state machine exactly,
/// one variant per state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacPhase {
    /// Waiting for [`MacEvent::PacketReady`].
    Idle,
    /// A backoff timer is armed.
    InBackoff,
    /// A CCA is in flight.
    AwaitingCca,
    /// The frame (or a forced retry) is on the air.
    Transmitting,
    /// Acknowledged mode: listening for the Imm-ACK.
    AwaitingAck,
}

/// The complete mutable state of a [`MacEngine`], detached from its
/// (immutable, scenario-derived) parameters.
///
/// [`MacEngine::snapshot`] and [`MacEngine::restore`] round-trip through
/// this so a host can checkpoint a run mid-frame and resume it
/// bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacSnapshot {
    /// Current state-machine phase.
    pub phase: MacPhase,
    /// `NB`: number of busy CCAs so far for the current frame.
    pub nb: u8,
    /// `BE`: current backoff exponent.
    pub be: u8,
    /// Retransmissions performed for the current frame (ACK mode).
    pub retries: u8,
}

/// The unslotted CSMA/CA engine for a single transmitter.
#[derive(Debug, Clone)]
pub struct MacEngine {
    params: CsmaParams,
    state: State,
    /// `NB`: number of busy CCAs so far for the current frame.
    nb: u8,
    /// `BE`: current backoff exponent.
    be: u8,
    /// Retransmissions performed for the current frame (ACK mode).
    retries: u8,
}

impl MacEngine {
    /// Creates an idle engine.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`CsmaParams::validate`].
    pub fn new(params: CsmaParams) -> Self {
        params.validate().expect("invalid CSMA parameters");
        MacEngine {
            params,
            state: State::Idle,
            nb: 0,
            be: params.min_be,
            retries: 0,
        }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &CsmaParams {
        &self.params
    }

    /// Captures the engine's complete mutable state.
    pub fn snapshot(&self) -> MacSnapshot {
        MacSnapshot {
            phase: match self.state {
                State::Idle => MacPhase::Idle,
                State::InBackoff => MacPhase::InBackoff,
                State::AwaitingCca => MacPhase::AwaitingCca,
                State::Transmitting => MacPhase::Transmitting,
                State::AwaitingAck => MacPhase::AwaitingAck,
            },
            nb: self.nb,
            be: self.be,
            retries: self.retries,
        }
    }

    /// Rebuilds an engine from `params` and a captured state, resuming
    /// exactly where [`MacEngine::snapshot`] left off.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`CsmaParams::validate`].
    pub fn restore(params: CsmaParams, snap: MacSnapshot) -> Self {
        let mut mac = MacEngine::new(params);
        mac.state = match snap.phase {
            MacPhase::Idle => State::Idle,
            MacPhase::InBackoff => State::InBackoff,
            MacPhase::AwaitingCca => State::AwaitingCca,
            MacPhase::Transmitting => State::Transmitting,
            MacPhase::AwaitingAck => State::AwaitingAck,
        };
        mac.nb = snap.nb;
        mac.be = snap.be;
        mac.retries = snap.retries;
        mac
    }

    /// `true` when the engine will accept [`MacEvent::PacketReady`].
    pub fn is_idle(&self) -> bool {
        self.state == State::Idle
    }

    /// Retransmissions performed for the current frame (ACK mode).
    pub fn retry_count(&self) -> u8 {
        self.retries
    }

    /// Feeds one event, returning the next command.
    ///
    /// # Panics
    ///
    /// Panics if the event does not match the engine's state — that is a
    /// host bug (e.g. delivering a CCA result while transmitting), not a
    /// protocol condition.
    pub fn handle<R: Rng + ?Sized>(&mut self, event: MacEvent, rng: &mut R) -> MacCommand {
        match (self.state, event) {
            (State::Idle, MacEvent::PacketReady) => {
                self.nb = 0;
                self.be = self.params.min_be;
                self.retries = 0;
                if !self.params.carrier_sense {
                    // Collision-generator mode: straight to TX.
                    self.state = State::Transmitting;
                    return MacCommand::BeginTransmit { forced: false };
                }
                self.state = State::InBackoff;
                MacCommand::SetBackoffTimer(self.sample_backoff(rng))
            }
            (State::InBackoff, MacEvent::BackoffExpired) => {
                self.state = State::AwaitingCca;
                MacCommand::PerformCca
            }
            (State::AwaitingCca, MacEvent::CcaResult { clear: true }) => {
                self.state = State::Transmitting;
                MacCommand::BeginTransmit { forced: false }
            }
            (State::AwaitingCca, MacEvent::CcaResult { clear: false }) => {
                self.nb += 1;
                self.be = (self.be + 1).min(self.params.max_be);
                if self.nb > self.params.max_csma_backoffs {
                    match self.params.on_failure {
                        CcaFailurePolicy::TransmitAnyway => {
                            self.state = State::Transmitting;
                            MacCommand::BeginTransmit { forced: true }
                        }
                        CcaFailurePolicy::DropPacket => {
                            self.state = State::Idle;
                            MacCommand::DeclareFailure
                        }
                    }
                } else {
                    self.state = State::InBackoff;
                    MacCommand::SetBackoffTimer(self.sample_backoff(rng))
                }
            }
            (State::Transmitting, MacEvent::TxDone) => {
                if self.params.acknowledged {
                    self.state = State::AwaitingAck;
                    MacCommand::WaitForAck(self.params.ack_wait)
                } else {
                    self.state = State::Idle;
                    MacCommand::CompletePacket
                }
            }
            (State::AwaitingAck, MacEvent::AckResult { acked: true }) => {
                self.state = State::Idle;
                MacCommand::CompletePacket
            }
            (State::AwaitingAck, MacEvent::AckResult { acked: false }) => {
                if self.retries >= self.params.max_frame_retries {
                    self.state = State::Idle;
                    MacCommand::AbandonPacket
                } else {
                    // Retransmit: the whole CSMA procedure restarts.
                    self.retries += 1;
                    self.nb = 0;
                    self.be = self.params.min_be;
                    if !self.params.carrier_sense {
                        self.state = State::Transmitting;
                        return MacCommand::BeginTransmit { forced: false };
                    }
                    self.state = State::InBackoff;
                    MacCommand::SetBackoffTimer(self.sample_backoff(rng))
                }
            }
            (state, event) => {
                panic!("MAC protocol violation: event {event:?} in state {state:?}")
            }
        }
    }

    /// Draws a backoff of `random(0 .. 2^BE − 1)` unit periods.
    fn sample_backoff<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let max_units = (1u32 << self.be) - 1;
        let units = rng.gen_range(0..=max_units);
        self.params.unit_backoff * u64::from(units)
    }
}

nomc_json::json_enum!(MacPhase {
    Idle = "idle",
    InBackoff = "in_backoff",
    AwaitingCca = "awaiting_cca",
    Transmitting = "transmitting",
    AwaitingAck = "awaiting_ack",
});

nomc_json::json_struct!(MacSnapshot {
    phase: MacPhase,
    nb: u8,
    be: u8,
    retries: u8,
});

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_rngcore::rngs::StdRng;
    use nomc_rngcore::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    fn acked_params() -> CsmaParams {
        CsmaParams {
            acknowledged: true,
            ..CsmaParams::ieee802154_default()
        }
    }

    #[test]
    fn happy_path() {
        let mut rng = rng();
        let mut mac = MacEngine::new(CsmaParams::ieee802154_default());
        assert!(mac.is_idle());
        let c = mac.handle(MacEvent::PacketReady, &mut rng);
        assert!(matches!(c, MacCommand::SetBackoffTimer(_)));
        assert!(!mac.is_idle());
        assert_eq!(
            mac.handle(MacEvent::BackoffExpired, &mut rng),
            MacCommand::PerformCca
        );
        assert_eq!(
            mac.handle(MacEvent::CcaResult { clear: true }, &mut rng),
            MacCommand::BeginTransmit { forced: false }
        );
        assert_eq!(
            mac.handle(MacEvent::TxDone, &mut rng),
            MacCommand::CompletePacket
        );
        assert!(mac.is_idle());
    }

    #[test]
    fn busy_cca_grows_backoff_exponent() {
        let mut rng = rng();
        let params = CsmaParams::ieee802154_default();
        let mut mac = MacEngine::new(params);
        mac.handle(MacEvent::PacketReady, &mut rng);
        // Collect backoff bounds as CCAs keep coming back busy.
        for expected_nb in 1..=params.max_csma_backoffs {
            mac.handle(MacEvent::BackoffExpired, &mut rng);
            let c = mac.handle(MacEvent::CcaResult { clear: false }, &mut rng);
            assert!(
                matches!(c, MacCommand::SetBackoffTimer(_)),
                "nb={expected_nb}"
            );
            assert_eq!(mac.nb, expected_nb);
        }
    }

    #[test]
    fn exhaustion_transmits_anyway_by_default() {
        let mut rng = rng();
        let params = CsmaParams::ieee802154_default();
        let mut mac = MacEngine::new(params);
        mac.handle(MacEvent::PacketReady, &mut rng);
        let mut last = MacCommand::PerformCca;
        for _ in 0..=params.max_csma_backoffs {
            mac.handle(MacEvent::BackoffExpired, &mut rng);
            last = mac.handle(MacEvent::CcaResult { clear: false }, &mut rng);
        }
        assert_eq!(last, MacCommand::BeginTransmit { forced: true });
    }

    #[test]
    fn exhaustion_drops_with_strict_policy() {
        let mut rng = rng();
        let params = CsmaParams {
            on_failure: CcaFailurePolicy::DropPacket,
            ..CsmaParams::ieee802154_default()
        };
        let mut mac = MacEngine::new(params);
        mac.handle(MacEvent::PacketReady, &mut rng);
        let mut last = MacCommand::PerformCca;
        for _ in 0..=params.max_csma_backoffs {
            mac.handle(MacEvent::BackoffExpired, &mut rng);
            last = mac.handle(MacEvent::CcaResult { clear: false }, &mut rng);
            if last == MacCommand::DeclareFailure {
                break;
            }
        }
        assert_eq!(last, MacCommand::DeclareFailure);
        assert!(mac.is_idle());
    }

    #[test]
    fn attacker_skips_carrier_sense() {
        let mut rng = rng();
        let mut mac = MacEngine::new(CsmaParams::carrier_sense_disabled());
        assert_eq!(
            mac.handle(MacEvent::PacketReady, &mut rng),
            MacCommand::BeginTransmit { forced: false }
        );
        assert_eq!(
            mac.handle(MacEvent::TxDone, &mut rng),
            MacCommand::CompletePacket
        );
    }

    #[test]
    fn backoff_within_be_bounds() {
        let mut rng = rng();
        let params = CsmaParams::ieee802154_default();
        for _ in 0..500 {
            let mut mac = MacEngine::new(params);
            if let MacCommand::SetBackoffTimer(d) = mac.handle(MacEvent::PacketReady, &mut rng) {
                let units = d.as_nanos() / params.unit_backoff.as_nanos();
                assert!(units < (1 << params.min_be), "units={units}");
            } else {
                panic!("expected backoff");
            }
        }
    }

    #[test]
    fn backoff_uses_full_range() {
        let mut rng = rng();
        let params = CsmaParams::ieee802154_default();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let mut mac = MacEngine::new(params);
            if let MacCommand::SetBackoffTimer(d) = mac.handle(MacEvent::PacketReady, &mut rng) {
                seen.insert(d.as_nanos() / params.unit_backoff.as_nanos());
            }
        }
        assert_eq!(seen.len(), 1 << params.min_be, "all 8 slots should occur");
    }

    #[test]
    fn ack_success_completes() {
        let mut rng = rng();
        let mut mac = MacEngine::new(acked_params());
        mac.handle(MacEvent::PacketReady, &mut rng);
        mac.handle(MacEvent::BackoffExpired, &mut rng);
        mac.handle(MacEvent::CcaResult { clear: true }, &mut rng);
        let c = mac.handle(MacEvent::TxDone, &mut rng);
        assert!(matches!(c, MacCommand::WaitForAck(_)));
        assert!(!mac.is_idle());
        let c = mac.handle(MacEvent::AckResult { acked: true }, &mut rng);
        assert_eq!(c, MacCommand::CompletePacket);
        assert!(mac.is_idle());
        assert_eq!(mac.retry_count(), 0);
    }

    #[test]
    fn ack_timeout_retries_then_abandons() {
        let mut rng = rng();
        let params = acked_params();
        let mut mac = MacEngine::new(params);
        mac.handle(MacEvent::PacketReady, &mut rng);
        for attempt in 0..=params.max_frame_retries {
            // Drive through backoff/CCA/TX.
            mac.handle(MacEvent::BackoffExpired, &mut rng);
            mac.handle(MacEvent::CcaResult { clear: true }, &mut rng);
            let c = mac.handle(MacEvent::TxDone, &mut rng);
            assert!(matches!(c, MacCommand::WaitForAck(_)), "attempt {attempt}");
            let c = mac.handle(MacEvent::AckResult { acked: false }, &mut rng);
            if attempt < params.max_frame_retries {
                assert!(matches!(c, MacCommand::SetBackoffTimer(_)));
                assert_eq!(mac.retry_count(), attempt + 1);
            } else {
                assert_eq!(c, MacCommand::AbandonPacket);
                assert!(mac.is_idle());
            }
        }
    }

    #[test]
    fn retry_resets_backoff_exponent() {
        let mut rng = rng();
        let params = acked_params();
        let mut mac = MacEngine::new(params);
        mac.handle(MacEvent::PacketReady, &mut rng);
        // Exhaust a few busy CCAs to grow BE…
        mac.handle(MacEvent::BackoffExpired, &mut rng);
        mac.handle(MacEvent::CcaResult { clear: false }, &mut rng);
        mac.handle(MacEvent::BackoffExpired, &mut rng);
        mac.handle(MacEvent::CcaResult { clear: true }, &mut rng);
        mac.handle(MacEvent::TxDone, &mut rng);
        // …then fail the ACK: the new attempt starts from NB = 0.
        mac.handle(MacEvent::AckResult { acked: false }, &mut rng);
        assert_eq!(mac.nb, 0);
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn out_of_order_event_panics() {
        let mut rng = rng();
        let mut mac = MacEngine::new(CsmaParams::ieee802154_default());
        let _ = mac.handle(MacEvent::TxDone, &mut rng);
    }

    #[test]
    fn be_caps_at_max() {
        let mut rng = rng();
        let params = CsmaParams {
            max_csma_backoffs: 8,
            on_failure: CcaFailurePolicy::DropPacket,
            ..CsmaParams::ieee802154_default()
        };
        let mut mac = MacEngine::new(params);
        mac.handle(MacEvent::PacketReady, &mut rng);
        // After many busy CCAs the backoff never exceeds 2^maxBE − 1 units.
        for _ in 0..params.max_csma_backoffs {
            mac.handle(MacEvent::BackoffExpired, &mut rng);
            if let MacCommand::SetBackoffTimer(d) =
                mac.handle(MacEvent::CcaResult { clear: false }, &mut rng)
            {
                let units = d.as_nanos() / params.unit_backoff.as_nanos();
                assert!(units < (1 << params.max_be));
            }
        }
    }
}
