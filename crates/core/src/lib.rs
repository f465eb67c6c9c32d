//! # nomc-core — DCN: Dynamic CCA-threshold for Non-orthogonal transmission
//!
//! The primary contribution of *"Design of Non-orthogonal Multi-channel
//! Sensor Networks"* (Xu, Luo & Zhang, ICDCS 2010): a CCA-Adjustor that
//! sits beside the CSMA/CA engine (the paper's Fig. 11 architecture) and
//! dynamically relaxes the clear-channel-assessment threshold so that
//! *tolerable* inter-channel interference from non-orthogonal neighbour
//! channels no longer suppresses transmissions, while *harmful* co-channel
//! interference still does.
//!
//! ## The algorithm (paper §V-B)
//!
//! Two information sources are available on a CC2420-class mote:
//!
//! * `S_i` — the RSSI of each overheard co-channel packet (free: the radio
//!   appends RSSI to every received frame),
//! * `P_j` — in-channel sensed power, which includes inter-channel leakage
//!   (costs CPU: requires polling the RSSI register).
//!
//! **Initializing phase** (duration `T_I`, default 1 s): sample `P_j`
//! every millisecond and record co-channel RSSIs; then set
//!
//! ```text
//! CCA_I = min{ S_1, S_2, …, max{ P_1, P_2, … } }        (Eq. 2)
//! ```
//!
//! i.e. the smaller of (weakest co-channel sender) and (strongest sensed
//! in-channel power) — conservative enough to still defer to any
//! co-channel competitor that might appear in the gap between the two
//! distributions (the paper's Fig. 12).
//!
//! **Updating phase**: stop power sensing (too costly) and maintain only
//! the co-channel RSSI record of the last `T_U` seconds (default 3 s):
//!
//! * **Case I** — a packet arrives with `S < CCA`: lower immediately,
//!   `CCA ← S` (Eq. 3);
//! * **Case II** — no Case-I update for `T_U`: raise to the minimum RSSI
//!   observed in the last window, `CCA ← min{S_1, S_2, …}` (Eq. 4).
//!
//! The threshold therefore always sits *just below the weakest co-channel
//! competitor*, which filters co-channel collisions while ignoring
//! (weaker, filter-attenuated) inter-channel energy.
//!
//! ## Beyond the paper
//!
//! The §VII-C future-work direction, an oracle that tells co-channel
//! from inter-channel energy at CCA time, lives in the engine as
//! `ThresholdMode::FixedOracle` (the "DCN + oracle classifier"
//! ablation), not in this crate.
//!
//! # Examples
//!
//! ```
//! use nomc_core::{CcaAdjustor, DcnConfig};
//! use nomc_mac::CcaThresholdProvider;
//! use nomc_units::{Dbm, SimTime};
//!
//! let mut dcn = CcaAdjustor::new(DcnConfig::default(), Dbm::new(-77.0));
//! // During the initializing phase the conservative default holds…
//! assert_eq!(dcn.threshold(SimTime::ZERO), Dbm::new(-77.0));
//! // …observations accumulate…
//! dcn.on_power_sense(Dbm::new(-70.0), SimTime::from_millis(5));
//! dcn.on_cochannel_packet(Dbm::new(-55.0), SimTime::from_millis(500));
//! // …and at T_I the threshold initializes per Eq. 2:
//! dcn.on_tick(SimTime::from_secs(1));
//! assert_eq!(dcn.threshold(SimTime::from_secs(1)), Dbm::new(-70.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjustor;
pub mod config;

pub use adjustor::{AdjustorSnapshot, AdjustorStats, CcaAdjustor, DcnPhase};
pub use config::DcnConfig;
