//! Radio energy accounting.
//!
//! MicaZ-class motes spend most of their budget on the radio. The model
//! here follows the CC2420 datasheet currents (via
//! [`nomc_radio::power::current`]): a transmitter is in TX for its
//! frames' airtime and in RX/listen otherwise (these motes do not duty
//! cycle — CSMA requires a hot receiver). Energy per *delivered* packet
//! is the figure of merit: a scheme that transmits more but delivers
//! proportionally more keeps it flat, while wasted (collided) frames
//! raise it.

use nomc_mac::MacStats;
use nomc_radio::power::current;
use nomc_units::{Dbm, SimDuration};

/// Supply voltage of a MicaZ's radio rail.
pub const SUPPLY_VOLTS: f64 = 3.0;

/// One transmitter's radio-energy estimate over the measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyEstimate {
    /// Time spent transmitting.
    pub tx_time: SimDuration,
    /// Time spent listening (everything else; CSMA receivers are hot).
    pub rx_time: SimDuration,
    /// Total radio energy in millijoules.
    pub total_mj: f64,
}

/// Estimates a transmitter's radio energy over `measured`, given its MAC
/// counters, the per-frame airtime and its TX power.
///
/// # Examples
///
/// ```
/// use nomc_sim::energy::transmitter_energy;
/// use nomc_mac::MacStats;
/// use nomc_units::{Dbm, SimDuration};
///
/// let stats = MacStats { transmitted: 100, ..MacStats::default() };
/// let e = transmitter_energy(
///     &stats,
///     SimDuration::from_micros(1824),
///     Dbm::new(0.0),
///     SimDuration::from_secs(1),
/// );
/// assert!(e.tx_time < e.rx_time);
/// assert!(e.total_mj > 0.0);
/// ```
pub fn transmitter_energy(
    stats: &MacStats,
    airtime: SimDuration,
    tx_power: Dbm,
    measured: SimDuration,
) -> EnergyEstimate {
    let tx_time = (airtime * stats.transmitted).min(measured);
    let rx_time = measured - tx_time;
    let tx_mj = current::tx_ma(tx_power) * SUPPLY_VOLTS * tx_time.as_secs_f64();
    let rx_mj = current::RX_MA * SUPPLY_VOLTS * rx_time.as_secs_f64();
    EnergyEstimate {
        tx_time,
        rx_time,
        total_mj: tx_mj + rx_mj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(transmitted: u64) -> MacStats {
        MacStats {
            transmitted,
            ..MacStats::default()
        }
    }

    #[test]
    fn idle_transmitter_is_all_rx() {
        let e = transmitter_energy(
            &stats(0),
            SimDuration::from_micros(1824),
            Dbm::new(0.0),
            SimDuration::from_secs(10),
        );
        assert_eq!(e.tx_time, SimDuration::ZERO);
        assert_eq!(e.rx_time, SimDuration::from_secs(10));
        // 18.8 mA × 3 V × 10 s = 564 mJ.
        assert!((e.total_mj - 564.0).abs() < 1e-6);
    }

    #[test]
    fn more_transmissions_cost_less_energy_at_cc2420_currents() {
        // On a CC2420, TX at 0 dBm (17.4 mA) draws *less* than RX
        // (18.8 mA), so a busier transmitter actually uses slightly less
        // radio energy — the real cost of wasted frames is lost goodput.
        let quiet = transmitter_energy(
            &stats(10),
            SimDuration::from_micros(1824),
            Dbm::new(0.0),
            SimDuration::from_secs(10),
        );
        let busy = transmitter_energy(
            &stats(1000),
            SimDuration::from_micros(1824),
            Dbm::new(0.0),
            SimDuration::from_secs(10),
        );
        assert!(busy.total_mj < quiet.total_mj);
        assert!(busy.tx_time > quiet.tx_time);
    }

    #[test]
    fn tx_time_clamped_to_window() {
        let e = transmitter_energy(
            &stats(10_000),
            SimDuration::from_micros(1824),
            Dbm::new(0.0),
            SimDuration::from_secs(1),
        );
        assert_eq!(e.tx_time, SimDuration::from_secs(1));
        assert_eq!(e.rx_time, SimDuration::ZERO);
    }
}
