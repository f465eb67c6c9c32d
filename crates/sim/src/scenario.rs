//! Scenario configuration: a deployment plus behaviour, propagation and
//! run parameters.

use nomc_core::DcnConfig;
use nomc_mac::CsmaParams;
use nomc_phy::{AcrCurve, FreeSpace, LogDistance, NoiseFloor, PathLoss, Shadowing};
use nomc_radio::{frame::FrameSpec, RadioConfig};
use nomc_topology::Deployment;
use nomc_units::{Db, Dbm, Megahertz, Meters, SimDuration, SimTime};

/// Why a [`Scenario`] failed validation.
///
/// Every malformed-input path — builder misuse, hand-edited JSON, a
/// fault plan referencing nodes that do not exist — surfaces as one of
/// these variants instead of a panic, so the CLI can exit with a
/// message and callers can match on the cause.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The deployment failed its own validation.
    Deployment(String),
    /// The warmup does not leave any measured time.
    Warmup {
        /// Configured warmup.
        warmup: SimDuration,
        /// Configured total duration.
        duration: SimDuration,
    },
    /// `behaviors` does not line up with `deployment.networks` (possible
    /// only for hand-edited JSON; the builder keeps them in sync).
    BehaviorCount {
        /// Number of behavior entries.
        behaviors: usize,
        /// Number of deployed networks.
        networks: usize,
    },
    /// A behavior was addressed to a network the deployment lacks.
    UnknownNetwork {
        /// The requested network index.
        index: usize,
        /// How many networks the deployment has.
        count: usize,
    },
    /// A network's MAC or DCN parameters are inconsistent.
    Network {
        /// The offending network.
        index: usize,
        /// The underlying validation message.
        reason: String,
    },
    /// A traffic override names a link the deployment lacks.
    UnknownLink {
        /// The requested global link index.
        link: usize,
        /// How many links the deployment has.
        count: usize,
    },
    /// A forwarding link's upstream does not exist.
    ForwardFromUnknown {
        /// The forwarding link.
        link: usize,
        /// Its (missing) upstream link.
        from_link: usize,
        /// How many links the deployment has.
        count: usize,
    },
    /// A forwarding link names itself as its upstream.
    SelfForward {
        /// The offending link.
        link: usize,
    },
    /// An entry in the fault plan is malformed.
    Fault {
        /// Which fault family (`"crash"`, `"jammer"`, ...).
        kind: &'static str,
        /// Index within that family's list.
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Deployment(e) => write!(f, "invalid deployment: {e}"),
            ScenarioError::Warmup { warmup, duration } => write!(
                f,
                "warmup ({warmup}) must be shorter than duration ({duration})"
            ),
            ScenarioError::BehaviorCount {
                behaviors,
                networks,
            } => write!(
                f,
                "{behaviors} behavior entries for {networks} deployed networks"
            ),
            ScenarioError::UnknownNetwork { index, count } => write!(
                f,
                "behavior for unknown network {index} (deployment has {count})"
            ),
            ScenarioError::Network { index, reason } => write!(f, "network {index}: {reason}"),
            ScenarioError::UnknownLink { link, count } => write!(
                f,
                "traffic override for unknown link {link} (deployment has {count})"
            ),
            ScenarioError::ForwardFromUnknown {
                link,
                from_link,
                count,
            } => write!(
                f,
                "link {link} forwards from unknown link {from_link} (deployment has {count})"
            ),
            ScenarioError::SelfForward { link } => {
                write!(f, "link {link} cannot forward from itself")
            }
            ScenarioError::Fault {
                kind,
                index,
                reason,
            } => write!(f, "{kind} fault #{index}: {reason}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ScenarioError> for String {
    fn from(e: ScenarioError) -> String {
        e.to_string()
    }
}

/// Concrete path-loss model choices (enum so scenarios stay `Clone`).
#[derive(Debug, Clone, PartialEq)]
pub enum PathLossModel {
    /// Friis free-space loss.
    FreeSpace(FreeSpace),
    /// Log-distance loss.
    LogDistance(LogDistance),
}

nomc_json::json_enum!(PathLossModel {
    FreeSpace(m) = "FreeSpace",
    LogDistance(m) = "LogDistance",
});

impl PathLossModel {
    /// Mean attenuation at `distance`.
    pub fn loss(&self, distance: Meters) -> Db {
        match self {
            PathLossModel::FreeSpace(m) => m.loss(distance),
            PathLossModel::LogDistance(m) => m.loss(distance),
        }
    }
}

/// The propagation environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Propagation {
    /// Large-scale path loss.
    pub path_loss: PathLossModel,
    /// Per-packet log-normal shadowing.
    pub shadowing: Shadowing,
    /// Receiver noise floor.
    pub noise: NoiseFloor,
    /// Adjacent-channel rejection curve.
    pub acr: AcrCurve,
}

nomc_json::json_struct!(Propagation {
    path_loss: PathLossModel,
    shadowing: Shadowing,
    noise: NoiseFloor,
    acr: AcrCurve,
});

impl Propagation {
    /// The calibrated testbed-like environment (see DESIGN.md §2).
    pub fn testbed_default() -> Self {
        Propagation {
            path_loss: PathLossModel::LogDistance(LogDistance::indoor_2_4ghz()),
            shadowing: Shadowing::indoor_default(),
            noise: NoiseFloor::cc2420_default(),
            acr: AcrCurve::cc2420_calibrated(),
        }
    }
}

impl Default for Propagation {
    fn default() -> Self {
        Propagation::testbed_default()
    }
}

/// How a network's CCA threshold is driven.
#[derive(Debug, Clone, PartialEq)]
pub enum ThresholdMode {
    /// Fixed threshold (the ZigBee default design when set to −77 dBm).
    Fixed(Dbm),
    /// The paper's DCN CCA-Adjustor.
    Dcn(DcnConfig),
    /// §VII-C extension: DCN threshold plus a perfect co-channel/
    /// inter-channel classifier at CCA time.
    DcnOracle(DcnConfig),
    /// Fixed threshold with the perfect classifier (ablation).
    FixedOracle(Dbm),
}

nomc_json::json_enum!(ThresholdMode {
    Fixed(t) = "Fixed",
    Dcn(c) = "Dcn",
    DcnOracle(c) = "DcnOracle",
    FixedOracle(t) = "FixedOracle",
});

impl ThresholdMode {
    /// The ZigBee factory default: fixed −77 dBm.
    pub fn zigbee_default() -> Self {
        ThresholdMode::Fixed(Dbm::new(-77.0))
    }

    /// Whether CCA uses the oracle decomposition.
    pub fn is_oracle(&self) -> bool {
        matches!(
            self,
            ThresholdMode::DcnOracle(_) | ThresholdMode::FixedOracle(_)
        )
    }
}

/// Traffic offered to a link's transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficModel {
    /// Always another frame queued (the paper's saturated sources).
    Saturated,
    /// One frame every fixed interval (the §III-B attacker pacing).
    Interval(SimDuration),
    /// Store-and-forward: send one frame per frame delivered on another
    /// link (multi-hop convergecast). `from_link` is a *global* link
    /// index (deployment order, network-major).
    Forward {
        /// The upstream link whose deliveries feed this transmitter.
        from_link: usize,
    },
}

nomc_json::json_enum!(TrafficModel {
    Saturated = "Saturated",
    Interval(d) = "Interval",
    Forward { from_link } = "Forward",
});

/// Behaviour of one network's nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkBehavior {
    /// CCA threshold source for the network's transmitters.
    pub threshold: ThresholdMode,
    /// CSMA/CA parameters.
    pub mac: CsmaParams,
    /// Offered traffic per link.
    pub traffic: TrafficModel,
}

nomc_json::json_struct!(NetworkBehavior {
    threshold: ThresholdMode,
    mac: CsmaParams,
    traffic: TrafficModel,
});

impl NetworkBehavior {
    /// The default ZigBee design: fixed −77 dBm, standard CSMA, saturated.
    pub fn zigbee_default() -> Self {
        NetworkBehavior {
            threshold: ThresholdMode::zigbee_default(),
            mac: CsmaParams::ieee802154_default(),
            traffic: TrafficModel::Saturated,
        }
    }

    /// The paper's DCN design with default parameters.
    pub fn dcn_default() -> Self {
        NetworkBehavior {
            threshold: ThresholdMode::Dcn(DcnConfig::paper_default()),
            ..NetworkBehavior::zigbee_default()
        }
    }

    /// The §III-B attacker: carrier sense off, fixed-interval pacing.
    pub fn attacker(interval: SimDuration) -> Self {
        NetworkBehavior {
            threshold: ThresholdMode::zigbee_default(),
            mac: CsmaParams::carrier_sense_disabled(),
            traffic: TrafficModel::Interval(interval),
        }
    }
}

impl Default for NetworkBehavior {
    fn default() -> Self {
        NetworkBehavior::zigbee_default()
    }
}

/// A node crash, optionally followed by a reboot.
///
/// While down the node neither transmits, senses, nor receives; its
/// queued MAC state is inert. On reboot the node comes back with a
/// factory-fresh MAC engine and — for DCN senders — a CCA-Adjustor
/// re-entering the initializing phase, exactly as a power-cycled mote
/// would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashFault {
    /// Global node index (deployment order: sender `2·link`,
    /// receiver `2·link + 1`).
    pub node: usize,
    /// Instant the node dies.
    pub at: SimTime,
    /// How long it stays down; `ZERO` means it never reboots.
    pub down_for: SimDuration,
}

nomc_json::json_struct!(CrashFault {
    node: usize,
    at: SimTime,
    down_for: SimDuration,
});

/// A transient wideband jammer: unregistered energy injected into the
/// medium on one centre frequency for a bounded window.
///
/// The jammer is not a node — it occupies no slot in the deployment,
/// answers no CCA, and its energy reaches every receiver at the same
/// flat coupled power (a worst-case, geometry-free interferer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JammerFault {
    /// Centre frequency the jammer occupies.
    pub frequency: Megahertz,
    /// Coupled power seen at every node on the jammer's channel.
    pub power: Dbm,
    /// Instant the jammer keys up.
    pub at: SimTime,
    /// How long it transmits.
    pub duration: SimDuration,
}

nomc_json::json_struct!(JammerFault {
    frequency: Megahertz,
    power: Dbm,
    at: SimTime,
    duration: SimDuration,
});

/// Per-node RSSI calibration drift: a dB offset that ramps linearly
/// from zero to `peak` over `ramp`, then holds for the rest of the run.
///
/// The drift corrupts every RSSI the node *reads* (CCA comparisons,
/// power sensing, decoded-packet strength) without changing the energy
/// physically on the air — miscalibration, not propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftFault {
    /// Global node index whose radio drifts.
    pub node: usize,
    /// Instant the ramp starts.
    pub at: SimTime,
    /// Ramp length; `ZERO` applies the full `peak` as a step.
    pub ramp: SimDuration,
    /// Final offset added to every RSSI reading (may be negative).
    pub peak: Db,
}

nomc_json::json_struct!(DriftFault {
    node: usize,
    at: SimTime,
    ramp: SimDuration,
    peak: Db,
});

/// A stuck-CCA window: the node's clear-channel assessment reports
/// *busy* regardless of the medium (a latched comparator / front-end
/// fault), starving its transmitter until the window ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckCcaFault {
    /// Global node index whose CCA latches busy.
    pub node: usize,
    /// Instant the fault latches.
    pub at: SimTime,
    /// How long CCA stays busy.
    pub duration: SimDuration,
}

nomc_json::json_struct!(StuckCcaFault {
    node: usize,
    at: SimTime,
    duration: SimDuration,
});

/// A deterministic schedule of injected faults.
///
/// The plan is part of the [`Scenario`], so it serializes with it and
/// is covered by the same seed-stability guarantee: the schedule is
/// expanded into ordinary queue events at bootstrap, consumes no
/// randomness, and an empty plan leaves the event stream bit-identical
/// to a fault-free run. See DESIGN.md §10 for the fault taxonomy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Node crash / reboot cycles.
    pub crashes: Vec<CrashFault>,
    /// Transient wideband jammers.
    pub jammers: Vec<JammerFault>,
    /// RSSI calibration drifts.
    pub drifts: Vec<DriftFault>,
    /// Stuck-busy CCA windows.
    pub stuck_cca: Vec<StuckCcaFault>,
}

nomc_json::json_struct!(FaultPlan {
    crashes: Vec<CrashFault> = Vec::new(),
    jammers: Vec<JammerFault> = Vec::new(),
    drifts: Vec<DriftFault> = Vec::new(),
    stuck_cca: Vec<StuckCcaFault> = Vec::new(),
});

impl FaultPlan {
    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.jammers.is_empty()
            && self.drifts.is_empty()
            && self.stuck_cca.is_empty()
    }

    /// Validates the plan against a deployment of `nodes` nodes.
    fn validate(&self, nodes: usize) -> Result<(), ScenarioError> {
        let node_in_range = |kind, index, node| {
            if node >= nodes {
                Err(ScenarioError::Fault {
                    kind,
                    index,
                    reason: format!("node {node} out of range (deployment has {nodes})"),
                })
            } else {
                Ok(())
            }
        };
        for (i, c) in self.crashes.iter().enumerate() {
            node_in_range("crash", i, c.node)?;
        }
        for (i, j) in self.jammers.iter().enumerate() {
            if j.duration.is_zero() {
                return Err(ScenarioError::Fault {
                    kind: "jammer",
                    index: i,
                    reason: "duration must be positive".into(),
                });
            }
            if !j.power.value().is_finite() {
                return Err(ScenarioError::Fault {
                    kind: "jammer",
                    index: i,
                    reason: format!("power ({}) must be finite", j.power),
                });
            }
        }
        for (i, d) in self.drifts.iter().enumerate() {
            node_in_range("drift", i, d.node)?;
            if !d.peak.value().is_finite() {
                return Err(ScenarioError::Fault {
                    kind: "drift",
                    index: i,
                    reason: format!("peak ({}) must be finite", d.peak),
                });
            }
        }
        for (i, s) in self.stuck_cca.iter().enumerate() {
            node_in_range("stuck-CCA", i, s.node)?;
            if s.duration.is_zero() {
                return Err(ScenarioError::Fault {
                    kind: "stuck-CCA",
                    index: i,
                    reason: "duration must be positive".into(),
                });
            }
        }
        Ok(())
    }
}

/// A complete, runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Node positions, channels and powers.
    pub deployment: Deployment,
    /// Propagation environment.
    pub propagation: Propagation,
    /// Radio hardware profile.
    pub radio: RadioConfig,
    /// Frame geometry.
    pub frame: FrameSpec,
    /// Per-network behaviour (same length/order as
    /// `deployment.networks`).
    pub behaviors: Vec<NetworkBehavior>,
    /// Per-link traffic overrides: `(global link index, model)`. Lets a
    /// multi-hop chain mix source and forwarding links inside one
    /// network.
    pub link_traffic: Vec<(usize, TrafficModel)>,
    /// Deterministic fault schedule (empty by default — and an empty
    /// plan is guaranteed not to perturb the run).
    pub faults: FaultPlan,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Initial span excluded from metrics (lets DCN initialize and
    /// queues reach steady state).
    pub warmup: SimDuration,
    /// RNG seed; equal seeds reproduce runs exactly.
    pub seed: u64,
    /// Record bit-error positions of CRC-failed frames (needed by the
    /// packet-recovery experiments; costs memory).
    pub record_error_positions: bool,
    /// Record a per-transmission timeline (Fig. 3 style).
    pub record_timeline: bool,
    /// Record a full structured event trace (see [`crate::trace`]);
    /// sizeable — one record per CCA and per frame.
    pub record_trace: bool,
    /// Collect per-link [`crate::metrics::ErrorRecord`]s for CRC-failed
    /// frames (on by default). Experiments that never inspect bit-error
    /// profiles can switch this off to keep long sweeps lean; it only
    /// gates collection, never the underlying sampling, so results are
    /// otherwise identical.
    pub record_error_records: bool,
    /// Coupled-power floor above which an overlapping transmission counts
    /// as a "collision" for CPRR purposes.
    pub collision_floor: Dbm,
}

nomc_json::json_struct!(Scenario {
    deployment: Deployment,
    propagation: Propagation,
    radio: RadioConfig,
    frame: FrameSpec,
    behaviors: Vec<NetworkBehavior>,
    link_traffic: Vec<(usize, TrafficModel)> = Vec::new(),
    faults: FaultPlan = FaultPlan::default(),
    duration: SimDuration,
    warmup: SimDuration,
    seed: u64,
    record_error_positions: bool,
    record_timeline: bool,
    record_trace: bool = false,
    record_error_records: bool = true,
    collision_floor: Dbm,
});

impl Scenario {
    /// Starts building a scenario over `deployment`.
    pub fn builder(deployment: Deployment) -> ScenarioBuilder {
        ScenarioBuilder::new(deployment)
    }

    /// Validates the assembled scenario.
    ///
    /// [`ScenarioBuilder::build`] runs this automatically; call it
    /// directly on scenarios parsed from JSON before handing them to
    /// the engine, so malformed input is reported instead of panicking
    /// mid-run.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.deployment
            .validate()
            .map_err(ScenarioError::Deployment)?;
        if self.warmup >= self.duration {
            return Err(ScenarioError::Warmup {
                warmup: self.warmup,
                duration: self.duration,
            });
        }
        if self.behaviors.len() != self.deployment.networks.len() {
            return Err(ScenarioError::BehaviorCount {
                behaviors: self.behaviors.len(),
                networks: self.deployment.networks.len(),
            });
        }
        for (i, b) in self.behaviors.iter().enumerate() {
            b.mac.validate().map_err(|e| ScenarioError::Network {
                index: i,
                reason: e,
            })?;
            if let ThresholdMode::Dcn(cfg) | ThresholdMode::DcnOracle(cfg) = &b.threshold {
                cfg.validate().map_err(|e| ScenarioError::Network {
                    index: i,
                    reason: e,
                })?;
            }
        }
        let links = self.deployment.link_count();
        for &(link, traffic) in &self.link_traffic {
            if link >= links {
                return Err(ScenarioError::UnknownLink { link, count: links });
            }
            if let TrafficModel::Forward { from_link } = traffic {
                if from_link >= links {
                    return Err(ScenarioError::ForwardFromUnknown {
                        link,
                        from_link,
                        count: links,
                    });
                }
                if from_link == link {
                    return Err(ScenarioError::SelfForward { link });
                }
            }
        }
        self.faults.validate(self.deployment.node_count())
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    deployment: Deployment,
    propagation: Propagation,
    radio: RadioConfig,
    frame: FrameSpec,
    behaviors: Vec<NetworkBehavior>,
    link_traffic: Vec<(usize, TrafficModel)>,
    faults: FaultPlan,
    duration: SimDuration,
    warmup: SimDuration,
    seed: u64,
    record_error_positions: bool,
    record_timeline: bool,
    record_trace: bool,
    record_error_records: bool,
    collision_floor: Dbm,
    /// First builder-misuse error, reported by [`ScenarioBuilder::build`]
    /// instead of panicking at the call site.
    invalid: Option<ScenarioError>,
}

impl ScenarioBuilder {
    /// Creates a builder with calibrated defaults: ZigBee behaviour on
    /// every network, 20 s duration, 3 s warmup, seed 1.
    pub fn new(deployment: Deployment) -> Self {
        let n = deployment.networks.len();
        ScenarioBuilder {
            deployment,
            propagation: Propagation::testbed_default(),
            radio: RadioConfig::cc2420(),
            frame: FrameSpec::default_data_frame(),
            behaviors: vec![NetworkBehavior::zigbee_default(); n],
            link_traffic: Vec::new(),
            faults: FaultPlan::default(),
            duration: SimDuration::from_secs(20),
            warmup: SimDuration::from_secs(3),
            seed: 1,
            record_error_positions: false,
            record_timeline: false,
            record_trace: false,
            record_error_records: true,
            collision_floor: Dbm::new(-100.0),
            invalid: None,
        }
    }

    /// Sets the behaviour of every network.
    pub fn behavior_all(&mut self, behavior: NetworkBehavior) -> &mut Self {
        for b in &mut self.behaviors {
            *b = behavior.clone();
        }
        self
    }

    /// Sets the behaviour of network `index`.
    ///
    /// An out-of-range `index` is not applied; it is reported as a
    /// [`ScenarioError::UnknownNetwork`] by [`ScenarioBuilder::build`].
    pub fn behavior(&mut self, index: usize, behavior: NetworkBehavior) -> &mut Self {
        match self.behaviors.get_mut(index) {
            Some(slot) => *slot = behavior,
            None => {
                self.invalid.get_or_insert(ScenarioError::UnknownNetwork {
                    index,
                    count: self.behaviors.len(),
                });
            }
        }
        self
    }

    /// Overrides the traffic model of one link (by global link index).
    ///
    /// Out-of-range links are reported by [`ScenarioBuilder::build`].
    pub fn link_traffic(&mut self, global_link: usize, traffic: TrafficModel) -> &mut Self {
        self.link_traffic.push((global_link, traffic));
        self
    }

    /// Installs a fault schedule (see [`FaultPlan`]).
    pub fn faults(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = plan;
        self
    }

    /// Sets the propagation environment.
    pub fn propagation(&mut self, p: Propagation) -> &mut Self {
        self.propagation = p;
        self
    }

    /// Sets the radio profile.
    pub fn radio(&mut self, r: RadioConfig) -> &mut Self {
        self.radio = r;
        self
    }

    /// Sets the frame geometry.
    pub fn frame(&mut self, f: FrameSpec) -> &mut Self {
        self.frame = f;
        self
    }

    /// Sets total simulated time.
    pub fn duration(&mut self, d: SimDuration) -> &mut Self {
        self.duration = d;
        self
    }

    /// Sets the measurement warmup.
    pub fn warmup(&mut self, w: SimDuration) -> &mut Self {
        self.warmup = w;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, s: u64) -> &mut Self {
        self.seed = s;
        self
    }

    /// Enables bit-error position recording.
    pub fn record_error_positions(&mut self, on: bool) -> &mut Self {
        self.record_error_positions = on;
        self
    }

    /// Enables the transmission timeline.
    pub fn record_timeline(&mut self, on: bool) -> &mut Self {
        self.record_timeline = on;
        self
    }

    /// Enables the structured event trace.
    pub fn record_trace(&mut self, on: bool) -> &mut Self {
        self.record_trace = on;
        self
    }

    /// Enables or disables collection of per-link bit-error records
    /// (on by default).
    pub fn record_error_records(&mut self, on: bool) -> &mut Self {
        self.record_error_records = on;
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`]: deferred builder misuse
    /// (out-of-range `behavior` index), an invalid deployment, a warmup
    /// not shorter than the duration, inconsistent MAC/DCN parameters,
    /// bad traffic overrides, or a malformed fault plan.
    pub fn build(&self) -> Result<Scenario, ScenarioError> {
        if let Some(e) = &self.invalid {
            return Err(e.clone());
        }
        let scenario = Scenario {
            deployment: self.deployment.clone(),
            propagation: self.propagation.clone(),
            radio: self.radio.clone(),
            frame: self.frame,
            behaviors: self.behaviors.clone(),
            link_traffic: self.link_traffic.clone(),
            faults: self.faults.clone(),
            duration: self.duration,
            warmup: self.warmup,
            seed: self.seed,
            record_error_positions: self.record_error_positions,
            record_timeline: self.record_timeline,
            record_trace: self.record_trace,
            record_error_records: self.record_error_records,
            collision_floor: self.collision_floor,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_topology::paper;
    use nomc_topology::spectrum::ChannelPlan;
    use nomc_units::Megahertz;

    fn deployment() -> Deployment {
        let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 3);
        paper::line_deployment(&plan, Dbm::new(0.0))
    }

    #[test]
    fn builder_defaults_build() {
        let s = Scenario::builder(deployment()).build().unwrap();
        assert_eq!(s.behaviors.len(), 3);
        assert_eq!(s.duration, SimDuration::from_secs(20));
        assert!(matches!(s.behaviors[0].threshold, ThresholdMode::Fixed(_)));
    }

    #[test]
    fn behavior_overrides() {
        let mut b = Scenario::builder(deployment());
        b.behavior_all(NetworkBehavior::dcn_default());
        b.behavior(1, NetworkBehavior::attacker(SimDuration::from_millis(3)));
        let s = b.build().unwrap();
        assert!(matches!(s.behaviors[0].threshold, ThresholdMode::Dcn(_)));
        assert!(matches!(s.behaviors[1].traffic, TrafficModel::Interval(_)));
        assert!(!s.behaviors[1].mac.carrier_sense);
    }

    #[test]
    fn warmup_must_be_shorter_than_duration() {
        let mut b = Scenario::builder(deployment());
        b.duration(SimDuration::from_secs(2))
            .warmup(SimDuration::from_secs(2));
        assert!(b.build().is_err());
    }

    #[test]
    fn invalid_mac_rejected() {
        let mut b = Scenario::builder(deployment());
        let mut bad = NetworkBehavior::zigbee_default();
        bad.mac.min_be = 7;
        b.behavior(2, bad);
        let err = b.build().unwrap_err();
        assert!(
            matches!(err, ScenarioError::Network { index: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("network 2"), "{err}");
    }

    #[test]
    fn out_of_range_behavior_is_an_error_not_a_panic() {
        let mut b = Scenario::builder(deployment());
        b.behavior(9, NetworkBehavior::dcn_default());
        let err = b.build().unwrap_err();
        assert_eq!(err, ScenarioError::UnknownNetwork { index: 9, count: 3 });
    }

    #[test]
    fn out_of_range_link_traffic_is_an_error_not_a_panic() {
        let mut b = Scenario::builder(deployment());
        b.link_traffic(99, TrafficModel::Saturated);
        let err = b.build().unwrap_err();
        assert_eq!(err, ScenarioError::UnknownLink { link: 99, count: 6 });
    }

    #[test]
    fn fault_plan_defaults_to_empty_and_round_trips() {
        let s = Scenario::builder(deployment()).build().unwrap();
        assert!(s.faults.is_empty());
        // A serialized pre-fault-era scenario (no "faults" key) parses.
        use nomc_json::{FromJson, ToJson};
        let mut v = s.to_json();
        assert!(v
            .as_object_mut()
            .expect("scenario serializes to an object")
            .remove("faults")
            .is_some());
        let legacy = Scenario::from_json(&v).expect("legacy JSON parses");
        assert_eq!(legacy, s);
    }

    #[test]
    fn fault_plan_round_trips_with_entries() {
        let mut b = Scenario::builder(deployment());
        b.faults(FaultPlan {
            crashes: vec![CrashFault {
                node: 0,
                at: SimTime::from_secs(5),
                down_for: SimDuration::from_secs(2),
            }],
            jammers: vec![JammerFault {
                frequency: Megahertz::new(2458.0),
                power: Dbm::new(-45.0),
                at: SimTime::from_secs(4),
                duration: SimDuration::from_millis(500),
            }],
            drifts: vec![DriftFault {
                node: 2,
                at: SimTime::from_secs(6),
                ramp: SimDuration::from_secs(3),
                peak: Db::new(-6.0),
            }],
            stuck_cca: vec![StuckCcaFault {
                node: 4,
                at: SimTime::from_secs(7),
                duration: SimDuration::from_secs(1),
            }],
        });
        let s = b.build().unwrap();
        assert!(!s.faults.is_empty());
        let json = nomc_json::to_string(&s);
        let back: Scenario = nomc_json::from_str(&json).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn fault_plan_validation() {
        // Crash on a node the deployment lacks (3 nets × 2 links = 12 nodes).
        let mut b = Scenario::builder(deployment());
        b.faults(FaultPlan {
            crashes: vec![CrashFault {
                node: 12,
                at: SimTime::from_secs(1),
                down_for: SimDuration::ZERO,
            }],
            ..FaultPlan::default()
        });
        let err = b.build().unwrap_err();
        assert!(
            matches!(
                err,
                ScenarioError::Fault {
                    kind: "crash",
                    index: 0,
                    ..
                }
            ),
            "{err}"
        );

        // Zero-length jammer burst.
        let mut b = Scenario::builder(deployment());
        b.faults(FaultPlan {
            jammers: vec![JammerFault {
                frequency: Megahertz::new(2458.0),
                power: Dbm::new(-40.0),
                at: SimTime::from_secs(1),
                duration: SimDuration::ZERO,
            }],
            ..FaultPlan::default()
        });
        assert!(matches!(
            b.build().unwrap_err(),
            ScenarioError::Fault { kind: "jammer", .. }
        ));

        // Non-finite drift peak.
        let mut b = Scenario::builder(deployment());
        b.faults(FaultPlan {
            drifts: vec![DriftFault {
                node: 0,
                at: SimTime::from_secs(1),
                ramp: SimDuration::ZERO,
                peak: Db::new(f64::NAN),
            }],
            ..FaultPlan::default()
        });
        assert!(matches!(
            b.build().unwrap_err(),
            ScenarioError::Fault { kind: "drift", .. }
        ));
    }

    #[test]
    fn behavior_count_mismatch_rejected() {
        let mut s = Scenario::builder(deployment()).build().unwrap();
        s.behaviors.pop();
        assert_eq!(
            s.validate().unwrap_err(),
            ScenarioError::BehaviorCount {
                behaviors: 2,
                networks: 3
            }
        );
    }

    #[test]
    fn oracle_detection() {
        assert!(ThresholdMode::FixedOracle(Dbm::new(-77.0)).is_oracle());
        assert!(ThresholdMode::DcnOracle(DcnConfig::default()).is_oracle());
        assert!(!ThresholdMode::zigbee_default().is_oracle());
    }
}
