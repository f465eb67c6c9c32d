//! # nomc-phy
//!
//! Physical-layer models for the non-orthogonal multi-channel 802.15.4
//! simulation: path loss, log-normal shadowing, adjacent-channel rejection
//! (the spectral-coupling curve at the heart of the paper), SINR → BER for
//! O-QPSK DSSS (and an 802.11b-like DSSS model for the paper's Fig. 2
//! comparison), packet-error sampling, and receiver capture/sync models.
//!
//! The layer composition mirrors a real receive chain:
//!
//! 1. [`pathloss`] attenuates each transmitter's power to a mean received
//!    power at the receiver's location,
//! 2. [`shadowing`] adds a per-packet log-normal term,
//! 3. [`coupling`] attenuates off-channel transmissions by the receiver's
//!    channel-filter rejection at their centre-frequency distance (CFD),
//! 4. [`mod@sinr`] combines signal, interference and [`noise`] into an SINR,
//! 5. [`ber`] turns SINR into a bit-error rate, and [`biterror`] samples
//!    concrete error counts/positions for a frame segment,
//! 6. [`capture`] decides whether a receiver even attempts to sync to a
//!    frame — the locus of the paper's "802.15.4 uniqueness" observation.
//!
//! [`planning`] composes 3-5 analytically, predicting the collided-packet
//! receive rate at a given channel distance without running a simulation.
//! [`lut`] provides a bit-exact quantized lookup table for the ACR
//! leakage factor, the hot kernel of that chain's interference sums.
//!
//! # Examples
//!
//! ```
//! use nomc_phy::{coupling::AcrCurve, pathloss::{LogDistance, PathLoss}};
//! use nomc_units::{Dbm, Meters, Megahertz};
//!
//! let pl = LogDistance::indoor_2_4ghz();
//! let rx = Dbm::new(0.0) - pl.loss(Meters::new(2.0));
//! let acr = AcrCurve::cc2420_calibrated();
//! // A transmission 3 MHz away is attenuated by the channel filter:
//! let coupled = rx - acr.rejection(Megahertz::new(3.0));
//! assert!(coupled < rx);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
pub mod biterror;
pub mod capture;
pub mod coupling;
pub mod lut;
pub mod noise;
pub mod pathloss;
pub mod planning;
pub mod shadowing;
pub mod sinr;

pub use ber::BerModel;
pub use capture::CaptureModel;
pub use coupling::AcrCurve;
pub use lut::AcrLut;
pub use noise::NoiseFloor;
pub use pathloss::{FreeSpace, LogDistance, PathLoss};
pub use shadowing::Shadowing;
pub use sinr::sinr;
