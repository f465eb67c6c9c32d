//! The CCA-Adjustor: DCN's two-phase threshold controller.

use crate::config::DcnConfig;
use nomc_mac::CcaThresholdProvider;
use nomc_units::{Dbm, SimTime};
use std::collections::VecDeque;

/// Which phase the adjustor is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcnPhase {
    /// Collecting `S_i`/`P_j` observations; threshold pinned at the
    /// conservative default.
    Initializing,
    /// Normal operation: Case-I/Case-II updates from co-channel RSSIs.
    Updating,
}

/// The DCN CCA-Adjustor (paper §V).
///
/// Implements [`CcaThresholdProvider`]; plug it into a node in place of
/// [`nomc_mac::FixedThreshold`] to turn the default ZigBee design into
/// the paper's DCN design.
#[derive(Debug, Clone)]
pub struct CcaAdjustor {
    config: DcnConfig,
    phase: DcnPhase,
    /// Start of the initializing phase (first observation or t=0).
    started: SimTime,
    /// Initializing phase: minimum co-channel packet RSSI seen.
    init_min_rssi: Option<Dbm>,
    /// Initializing phase: maximum in-channel sensed power seen.
    init_max_power: Option<Dbm>,
    /// Updating phase: co-channel RSSIs of the last `T_U`.
    window: VecDeque<(SimTime, Dbm)>,
    /// Time of the last Case-I (immediate lowering) update.
    last_case1: SimTime,
    /// Time of the last Case-II evaluation.
    last_case2: SimTime,
    /// Time the last co-channel packet was heard (or the phase change
    /// that reset the staleness clock) — feeds the silence watchdog.
    last_heard: SimTime,
    /// The conservative default threshold, restored on re-initialization.
    default: Dbm,
    /// Hard bounds every derived threshold is clamped to (the radio's
    /// representable CCA range). Unbounded for a bare [`CcaAdjustor::new`].
    clamp: (Dbm, Dbm),
    current: Dbm,
    stats: AdjustorStats,
}

/// The complete mutable state of a [`CcaAdjustor`], detached from its
/// construction-time configuration. [`CcaAdjustor::save`] and
/// [`CcaAdjustor::load`] round-trip through this so a host can
/// checkpoint mid-run and resume bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct AdjustorSnapshot {
    /// Current phase.
    pub phase: DcnPhase,
    /// Start of the (current) initializing phase.
    pub started: SimTime,
    /// Initializing phase: minimum co-channel packet RSSI seen.
    pub init_min_rssi: Option<Dbm>,
    /// Initializing phase: maximum in-channel sensed power seen.
    pub init_max_power: Option<Dbm>,
    /// Updating phase: the `T_U` co-channel RSSI window, oldest first.
    pub window: Vec<(SimTime, Dbm)>,
    /// Time of the last Case-I update.
    pub last_case1: SimTime,
    /// Time of the last Case-II evaluation.
    pub last_case2: SimTime,
    /// Time the staleness clock was last fed.
    pub last_heard: SimTime,
    /// The threshold in force.
    pub current: Dbm,
    /// Activity counters.
    pub stats: AdjustorStats,
}

/// Counters describing the adjustor's activity, for experiment reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdjustorStats {
    /// Number of Case-I (immediate lowering) updates applied.
    pub case1_updates: u64,
    /// Number of Case-II (window-minimum raise) updates applied.
    pub case2_updates: u64,
    /// Co-channel packet RSSIs observed.
    pub cochannel_observations: u64,
    /// In-channel power-sense samples observed.
    pub power_sense_observations: u64,
    /// Times the adjustor re-entered the initializing phase (silence
    /// watchdog firings plus explicit [`CcaAdjustor::reinitialize`] calls).
    pub reinitializations: u64,
}

impl CcaAdjustor {
    /// Creates an adjustor that starts its initializing phase at t = 0.
    ///
    /// `conservative_default` is the threshold used until initialization
    /// completes — the ZigBee −77 dBm in all paper experiments.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DcnConfig::validate`].
    pub fn new(config: DcnConfig, conservative_default: Dbm) -> Self {
        CcaAdjustor::with_clamp(
            config,
            conservative_default,
            (Dbm::new(f64::NEG_INFINITY), Dbm::new(f64::INFINITY)),
        )
    }

    /// Like [`CcaAdjustor::new`], but every derived threshold is hard
    /// clamped to `clamp` (floor, ceiling) — pass the radio's
    /// representable CCA range so a miscalibrated (drifted) RSSI can
    /// never wedge the threshold outside what the hardware can hold.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DcnConfig::validate`] or the clamp
    /// range is inverted.
    pub fn with_clamp(config: DcnConfig, conservative_default: Dbm, clamp: (Dbm, Dbm)) -> Self {
        config.validate().expect("invalid DCN configuration");
        assert!(clamp.0 <= clamp.1, "inverted CCA clamp range");
        CcaAdjustor {
            config,
            phase: DcnPhase::Initializing,
            started: SimTime::ZERO,
            init_min_rssi: None,
            init_max_power: None,
            window: VecDeque::new(),
            last_case1: SimTime::ZERO,
            last_case2: SimTime::ZERO,
            last_heard: SimTime::ZERO,
            default: conservative_default,
            clamp,
            current: conservative_default.max(clamp.0).min(clamp.1),
            stats: AdjustorStats::default(),
        }
    }

    /// Clamps a derived threshold to the representable range.
    #[inline]
    fn clamped(&self, t: Dbm) -> Dbm {
        t.max(self.clamp.0).min(self.clamp.1)
    }

    /// Re-enters the initializing phase at `now`: threshold back at the
    /// conservative default, all observation state cleared, a fresh
    /// `T_I` collection window started. Called by the silence watchdog
    /// and by the simulator when a node reboots.
    pub fn reinitialize(&mut self, now: SimTime) {
        self.phase = DcnPhase::Initializing;
        self.started = now;
        self.init_min_rssi = None;
        self.init_max_power = None;
        self.window.clear();
        self.last_case1 = now;
        self.last_case2 = now;
        self.last_heard = now;
        self.current = self.clamped(self.default);
        self.stats.reinitializations += 1;
    }

    /// The current phase.
    pub fn phase(&self) -> DcnPhase {
        self.phase
    }

    /// Activity counters.
    pub fn stats(&self) -> AdjustorStats {
        self.stats
    }

    /// The adjustor's configuration.
    pub fn config(&self) -> &DcnConfig {
        &self.config
    }

    /// Captures the adjustor's complete mutable state (everything except
    /// the construction-time `config`/`default`/`clamp`), for
    /// checkpoint/restore.
    pub fn save(&self) -> AdjustorSnapshot {
        AdjustorSnapshot {
            phase: self.phase,
            started: self.started,
            init_min_rssi: self.init_min_rssi,
            init_max_power: self.init_max_power,
            window: self.window.iter().copied().collect(),
            last_case1: self.last_case1,
            last_case2: self.last_case2,
            last_heard: self.last_heard,
            current: self.current,
            stats: self.stats,
        }
    }

    /// Overwrites the mutable state with a previously [`CcaAdjustor::save`]d
    /// one. The adjustor must have been constructed with the same
    /// `config`/`default`/`clamp` as the saved one for the resumed
    /// trajectory to match.
    pub fn load(&mut self, snap: AdjustorSnapshot) {
        self.phase = snap.phase;
        self.started = snap.started;
        self.init_min_rssi = snap.init_min_rssi;
        self.init_max_power = snap.init_max_power;
        self.window = snap.window.into();
        self.last_case1 = snap.last_case1;
        self.last_case2 = snap.last_case2;
        self.last_heard = snap.last_heard;
        self.current = snap.current;
        self.stats = snap.stats;
    }

    /// Eq. 2: `CCA_I = min{ S_1, …, max{ P_1, … } }`, with the paper's
    /// implicit fallbacks when one record set is empty.
    fn initialize_threshold(&mut self, now: SimTime) {
        let derived = match (self.init_min_rssi, self.init_max_power) {
            (Some(s), Some(p)) => Some(s.min(p)),
            // No co-channel packets overheard: bound only by sensed power.
            (None, Some(p)) => Some(p),
            // Power sensing disabled/empty: bound only by co-channel RSSI.
            (Some(s), None) => Some(s),
            // Nothing observed: keep the conservative default.
            (None, None) => None,
        };
        if let Some(t) = derived {
            self.current = self.clamped(t - self.config.safety_margin);
        }
        self.phase = DcnPhase::Updating;
        self.last_case1 = now;
        self.last_case2 = now;
        self.last_heard = now;
    }

    /// Drops window entries older than `T_U`.
    fn expire_window(&mut self, now: SimTime) {
        while let Some(&(t, _)) = self.window.front() {
            if now.saturating_since(t) > self.config.t_update {
                self.window.pop_front();
            } else {
                break;
            }
        }
    }

    /// Case II (Eq. 4): raise to the window minimum after `T_U` of
    /// Case-I silence.
    fn maybe_case2(&mut self, now: SimTime) {
        if now.saturating_since(self.last_case1) < self.config.t_update
            || now.saturating_since(self.last_case2) < self.config.t_update
        {
            return;
        }
        self.expire_window(now);
        if let Some(min) = self.window.iter().map(|&(_, s)| s).reduce(Dbm::min) {
            let target = self.clamped(min - self.config.safety_margin);
            if target != self.current {
                self.current = target;
                self.stats.case2_updates += 1;
            }
            self.last_case2 = now;
        }
    }
}

impl CcaThresholdProvider for CcaAdjustor {
    fn threshold(&self, _now: SimTime) -> Dbm {
        self.current
    }

    fn on_cochannel_packet(&mut self, rssi: Dbm, now: SimTime) {
        self.stats.cochannel_observations += 1;
        self.last_heard = now;
        match self.phase {
            DcnPhase::Initializing => {
                self.init_min_rssi = Some(match self.init_min_rssi {
                    Some(s) => s.min(rssi),
                    None => rssi,
                });
                if now.saturating_since(self.started) >= self.config.t_init {
                    self.initialize_threshold(now);
                }
            }
            DcnPhase::Updating => {
                self.window.push_back((now, rssi));
                self.expire_window(now);
                // Case I (Eq. 3): immediate lowering.
                let target = self.clamped(rssi - self.config.safety_margin);
                if target < self.current {
                    self.current = target;
                    self.last_case1 = now;
                    self.stats.case1_updates += 1;
                } else {
                    self.maybe_case2(now);
                }
            }
        }
    }

    fn on_power_sense(&mut self, power: Dbm, now: SimTime) {
        self.stats.power_sense_observations += 1;
        if self.phase == DcnPhase::Initializing {
            self.init_max_power = Some(match self.init_max_power {
                Some(p) => p.max(power),
                None => power,
            });
            if now.saturating_since(self.started) >= self.config.t_init {
                self.initialize_threshold(now);
            }
        }
    }

    fn wants_power_sensing(&self, _now: SimTime) -> bool {
        // The paper's CPU-cost argument: sensing only during initialization.
        self.phase == DcnPhase::Initializing
    }

    fn on_tick(&mut self, now: SimTime) {
        match self.phase {
            DcnPhase::Initializing => {
                if now.saturating_since(self.started) >= self.config.t_init {
                    self.initialize_threshold(now);
                }
            }
            DcnPhase::Updating => {
                // Staleness watchdog: a long co-channel silence means the
                // threshold may be tuned to competitors that no longer
                // exist (or to drifted readings) — go conservative and
                // re-learn the channel instead of staying wedged.
                if !self.config.watchdog_silence.is_zero()
                    && now.saturating_since(self.last_heard) >= self.config.watchdog_silence
                {
                    self.reinitialize(now);
                } else {
                    self.maybe_case2(now);
                }
            }
        }
    }
}

nomc_json::json_enum!(DcnPhase {
    Initializing = "initializing",
    Updating = "updating",
});

nomc_json::json_struct!(AdjustorStats {
    case1_updates: u64,
    case2_updates: u64,
    cochannel_observations: u64,
    power_sense_observations: u64,
    reinitializations: u64,
});

nomc_json::json_struct!(AdjustorSnapshot {
    phase: DcnPhase,
    started: SimTime,
    init_min_rssi: Option<Dbm>,
    init_max_power: Option<Dbm>,
    window: Vec<(SimTime, Dbm)>,
    last_case1: SimTime,
    last_case2: SimTime,
    last_heard: SimTime,
    current: Dbm,
    stats: AdjustorStats,
});

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_units::SimDuration;

    fn dcn() -> CcaAdjustor {
        CcaAdjustor::new(DcnConfig::paper_default(), Dbm::new(-77.0))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn starts_conservative_in_initializing_phase() {
        let d = dcn();
        assert_eq!(d.phase(), DcnPhase::Initializing);
        assert_eq!(d.threshold(SimTime::ZERO), Dbm::new(-77.0));
        assert!(d.wants_power_sensing(SimTime::ZERO));
    }

    #[test]
    fn eq2_takes_min_of_rssi_and_max_power() {
        // Paper Fig. 12(2): separated distributions — the threshold lands
        // on the inter-channel max power, below the co-channel min RSSI.
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-82.0), t(1));
        d.on_power_sense(Dbm::new(-70.0), t(2)); // max P = -70
        d.on_cochannel_packet(Dbm::new(-52.0), t(100));
        d.on_cochannel_packet(Dbm::new(-58.0), t(200)); // min S = -58
        d.on_tick(t(1000));
        assert_eq!(d.phase(), DcnPhase::Updating);
        assert_eq!(d.threshold(t(1000)), Dbm::new(-70.0));
    }

    #[test]
    fn eq2_overlapped_distributions_bound_by_min_rssi() {
        // Paper Fig. 12(1): overlapped — min S below max P wins.
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-60.0), t(1));
        d.on_cochannel_packet(Dbm::new(-66.0), t(100));
        d.on_tick(t(1000));
        assert_eq!(d.threshold(t(1000)), Dbm::new(-66.0));
    }

    #[test]
    fn init_without_cochannel_uses_power_only() {
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-73.0), t(3));
        d.on_tick(t(1000));
        assert_eq!(d.threshold(t(1000)), Dbm::new(-73.0));
    }

    #[test]
    fn init_without_observations_keeps_default() {
        let mut d = dcn();
        d.on_tick(t(1000));
        assert_eq!(d.phase(), DcnPhase::Updating);
        assert_eq!(d.threshold(t(1000)), Dbm::new(-77.0));
    }

    #[test]
    fn power_sensing_stops_after_initialization() {
        let mut d = dcn();
        d.on_tick(t(1000));
        assert!(!d.wants_power_sensing(t(1001)));
    }

    #[test]
    fn case1_lowers_immediately() {
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-60.0), t(1));
        d.on_tick(t(1000));
        assert_eq!(d.threshold(t(1000)), Dbm::new(-60.0));
        // A weaker co-channel competitor appears: lower at once (Eq. 3).
        d.on_cochannel_packet(Dbm::new(-71.0), t(1500));
        assert_eq!(d.threshold(t(1500)), Dbm::new(-71.0));
        assert_eq!(d.stats().case1_updates, 1);
    }

    #[test]
    fn case1_ignores_stronger_packets() {
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-60.0), t(1));
        d.on_tick(t(1000));
        d.on_cochannel_packet(Dbm::new(-40.0), t(1500));
        assert_eq!(d.threshold(t(1500)), Dbm::new(-60.0));
        assert_eq!(d.stats().case1_updates, 0);
    }

    #[test]
    fn case2_raises_after_quiet_window() {
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-90.0), t(1));
        d.on_tick(t(1000));
        assert_eq!(d.threshold(t(1000)), Dbm::new(-90.0));
        // The weak competitor departs; only a −55 dBm one remains. After
        // T_U with no Case-I update, Eq. 4 raises to the window minimum.
        d.on_cochannel_packet(Dbm::new(-55.0), t(3000));
        d.on_cochannel_packet(Dbm::new(-52.0), t(3500));
        assert_eq!(
            d.threshold(t(3500)),
            Dbm::new(-90.0),
            "not yet: window young"
        );
        d.on_tick(t(4100)); // > T_U since last_case1 (t=1000)
        assert_eq!(d.threshold(t(4100)), Dbm::new(-55.0));
        assert_eq!(d.stats().case2_updates, 1);
    }

    #[test]
    fn case2_window_expires_old_entries() {
        let mut d = dcn();
        d.on_tick(t(1000)); // -77 default
        d.on_cochannel_packet(Dbm::new(-80.0), t(1100)); // case 1 → -80
        assert_eq!(d.threshold(t(1100)), Dbm::new(-80.0));
        // Entries: -80 at 1.1s. Then strong ones later.
        d.on_cochannel_packet(Dbm::new(-50.0), t(4000));
        d.on_cochannel_packet(Dbm::new(-51.0), t(4600));
        // At 5s, the -80 entry (older than T_U=3s) must have expired, so
        // Case II raises to -51, not -80.
        d.on_tick(t(5000));
        assert_eq!(d.threshold(t(5000)), Dbm::new(-51.0));
    }

    #[test]
    fn case2_reapplies_only_after_another_window() {
        let mut d = dcn();
        d.on_tick(t(1000));
        d.on_cochannel_packet(Dbm::new(-85.0), t(1100));
        d.on_cochannel_packet(Dbm::new(-60.0), t(3900));
        d.on_tick(t(4200)); // case 2 → -60 (the -85 expired)
        assert_eq!(d.threshold(t(4200)), Dbm::new(-60.0));
        d.on_cochannel_packet(Dbm::new(-58.0), t(4300));
        // Immediately after, another tick shouldn't re-run Case II yet.
        d.on_tick(t(4400));
        assert_eq!(d.threshold(t(4400)), Dbm::new(-60.0));
        // But after another T_U of Case-I silence it may raise again.
        d.on_cochannel_packet(Dbm::new(-58.0), t(7000));
        d.on_tick(t(7500));
        assert_eq!(d.threshold(t(7500)), Dbm::new(-58.0));
    }

    #[test]
    fn safety_margin_applies_everywhere() {
        let cfg = DcnConfig {
            safety_margin: nomc_units::Db::new(2.0),
            ..DcnConfig::paper_default()
        };
        let mut d = CcaAdjustor::new(cfg, Dbm::new(-77.0));
        d.on_power_sense(Dbm::new(-60.0), t(1));
        d.on_tick(t(1000));
        assert_eq!(d.threshold(t(1000)), Dbm::new(-62.0));
        d.on_cochannel_packet(Dbm::new(-70.0), t(1500));
        assert_eq!(d.threshold(t(1500)), Dbm::new(-72.0));
    }

    #[test]
    fn observation_counters() {
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-70.0), t(1));
        d.on_cochannel_packet(Dbm::new(-50.0), t(2));
        d.on_cochannel_packet(Dbm::new(-51.0), t(3));
        let s = d.stats();
        assert_eq!(s.power_sense_observations, 1);
        assert_eq!(s.cochannel_observations, 2);
    }

    #[test]
    fn init_completes_via_late_observation_too() {
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-70.0), t(1));
        // An observation arriving after T_I finalizes initialization even
        // without an explicit tick.
        d.on_cochannel_packet(Dbm::new(-50.0), SimTime::from_millis(1200));
        assert_eq!(d.phase(), DcnPhase::Updating);
    }

    #[test]
    fn watchdog_reenters_initializing_after_silence() {
        let cfg = DcnConfig::hardened(); // 2 s silence window
        let mut d = CcaAdjustor::new(cfg, Dbm::new(-77.0));
        d.on_power_sense(Dbm::new(-60.0), t(1));
        d.on_tick(t(1000));
        assert_eq!(d.phase(), DcnPhase::Updating);
        assert_eq!(d.threshold(t(1000)), Dbm::new(-60.0));
        d.on_cochannel_packet(Dbm::new(-70.0), t(1500)); // case 1 → -70
                                                         // 1.9 s of silence: not yet.
        d.on_tick(t(3400));
        assert_eq!(d.phase(), DcnPhase::Updating);
        // 2 s of silence: watchdog fires, back to the conservative default.
        d.on_tick(t(3500));
        assert_eq!(d.phase(), DcnPhase::Initializing);
        assert_eq!(d.threshold(t(3500)), Dbm::new(-77.0));
        assert_eq!(d.stats().reinitializations, 1);
        assert!(d.wants_power_sensing(t(3500)), "re-init resumes sensing");
        // The fresh T_I window re-derives from new observations.
        d.on_power_sense(Dbm::new(-85.0), t(3600));
        d.on_tick(t(4500));
        assert_eq!(d.phase(), DcnPhase::Updating);
        assert_eq!(d.threshold(t(4500)), Dbm::new(-85.0));
    }

    #[test]
    fn watchdog_disabled_by_default() {
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-60.0), t(1));
        d.on_tick(t(1000));
        d.on_tick(t(60_000)); // a minute of silence
        assert_eq!(d.phase(), DcnPhase::Updating, "paper controller: no dog");
        assert_eq!(d.stats().reinitializations, 0);
    }

    #[test]
    fn watchdog_quiet_while_packets_keep_arriving() {
        let mut d = CcaAdjustor::new(DcnConfig::hardened(), Dbm::new(-77.0));
        d.on_tick(t(1000));
        for i in 1..20u64 {
            d.on_cochannel_packet(Dbm::new(-55.0), t(1000 + i * 500));
            d.on_tick(t(1000 + i * 500 + 250));
        }
        assert_eq!(d.stats().reinitializations, 0);
    }

    #[test]
    fn clamp_bounds_every_derived_threshold() {
        let range = (Dbm::new(-95.0), Dbm::new(0.0));
        let mut d = CcaAdjustor::with_clamp(DcnConfig::paper_default(), Dbm::new(-77.0), range);
        // A wildly drifted reading cannot push the threshold below floor…
        d.on_power_sense(Dbm::new(-300.0), t(1));
        d.on_tick(t(1000));
        assert_eq!(d.threshold(t(1000)), Dbm::new(-95.0));
        // …and Case I lowering saturates there too.
        d.on_cochannel_packet(Dbm::new(-250.0), t(1500));
        assert_eq!(d.threshold(t(1500)), Dbm::new(-95.0));
        // Case II raising saturates at the ceiling.
        d.on_cochannel_packet(Dbm::new(40.0), t(4600));
        d.on_tick(t(4700));
        assert_eq!(d.threshold(t(4700)), Dbm::new(0.0));
    }

    #[test]
    fn unclamped_adjustor_unchanged() {
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-300.0), t(1));
        d.on_tick(t(1000));
        assert_eq!(d.threshold(t(1000)), Dbm::new(-300.0));
    }

    #[test]
    fn reinitialize_resets_observation_state() {
        let mut d = dcn();
        d.on_power_sense(Dbm::new(-60.0), t(1));
        d.on_cochannel_packet(Dbm::new(-50.0), t(500));
        d.on_tick(t(1000));
        d.reinitialize(t(5000));
        assert_eq!(d.phase(), DcnPhase::Initializing);
        assert_eq!(d.threshold(t(5000)), Dbm::new(-77.0));
        // Old observations are gone: completing init with nothing new
        // keeps the default.
        d.on_tick(t(6100));
        assert_eq!(d.phase(), DcnPhase::Updating);
        assert_eq!(d.threshold(t(6100)), Dbm::new(-77.0));
    }

    #[test]
    fn window_duration_matches_config() {
        let cfg = DcnConfig {
            t_update: SimDuration::from_secs(1),
            ..DcnConfig::paper_default()
        };
        let mut d = CcaAdjustor::new(cfg, Dbm::new(-77.0));
        d.on_tick(t(1000));
        d.on_cochannel_packet(Dbm::new(-80.0), t(1100)); // case1 → -80
        d.on_cochannel_packet(Dbm::new(-50.0), t(2050));
        d.on_tick(t(2200)); // 1.1s after case1 with T_U=1s → case2 fires
        assert_eq!(d.threshold(t(2200)), Dbm::new(-50.0));
    }
}
