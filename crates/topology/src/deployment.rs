//! Deployment descriptions: pure data consumed by the simulator.

use crate::geometry::Point;
use nomc_units::{Dbm, Megahertz};

/// One unidirectional transmitter → receiver link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Transmitter position.
    pub tx: Point,
    /// Receiver position.
    pub rx: Point,
    /// Transmitter output power.
    pub tx_power: Dbm,
}

nomc_json::json_struct!(LinkSpec {
    tx: Point,
    rx: Point,
    tx_power: Dbm,
});

impl LinkSpec {
    /// Creates a link.
    pub fn new(tx: Point, rx: Point, tx_power: Dbm) -> Self {
        LinkSpec { tx, rx, tx_power }
    }

    /// Link length.
    pub fn distance(&self) -> nomc_units::Meters {
        self.tx.distance_to(self.rx)
    }
}

/// One network: a set of links sharing a channel. The paper's networks
/// are 4 MicaZ nodes = 2 links.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Channel centre frequency.
    pub frequency: Megahertz,
    /// The network's links.
    pub links: Vec<LinkSpec>,
}

nomc_json::json_struct!(NetworkSpec {
    frequency: Megahertz,
    links: Vec<LinkSpec>,
});

impl NetworkSpec {
    /// Creates a network on `frequency` with the given links.
    pub fn new(frequency: Megahertz, links: Vec<LinkSpec>) -> Self {
        NetworkSpec { frequency, links }
    }
}

/// A complete deployment: several networks on (possibly non-orthogonal)
/// channels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Deployment {
    /// All networks, typically ordered by channel frequency.
    pub networks: Vec<NetworkSpec>,
}

nomc_json::json_struct!(Deployment {
    networks: Vec<NetworkSpec>,
});

impl Deployment {
    /// Creates a deployment from networks.
    pub fn new(networks: Vec<NetworkSpec>) -> Self {
        Deployment { networks }
    }

    /// Total number of links across all networks.
    pub fn link_count(&self) -> usize {
        self.networks.iter().map(|n| n.links.len()).sum()
    }

    /// Total number of nodes (2 per link).
    pub fn node_count(&self) -> usize {
        self.link_count() * 2
    }

    /// The smallest centre-frequency distance between any two networks —
    /// the deployment's effective CFD.
    ///
    /// Returns `None` with fewer than two networks.
    pub fn min_cfd(&self) -> Option<Megahertz> {
        let mut freqs: Vec<f64> = self.networks.iter().map(|n| n.frequency.value()).collect();
        freqs.sort_by(|a, b| a.partial_cmp(b).expect("finite freqs"));
        freqs
            .windows(2)
            .map(|w| w[1] - w[0])
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
            .map(Megahertz::new)
    }

    /// Validates that the deployment is simulatable.
    ///
    /// # Errors
    ///
    /// Returns a message if it has no networks, a network has no links,
    /// or two networks share a frequency (the builder should merge them).
    pub fn validate(&self) -> Result<(), String> {
        if self.networks.is_empty() {
            return Err("deployment has no networks".into());
        }
        for (i, n) in self.networks.iter().enumerate() {
            if n.links.is_empty() {
                return Err(format!("network {i} has no links"));
            }
        }
        for i in 0..self.networks.len() {
            for j in (i + 1)..self.networks.len() {
                if (self.networks[i].frequency.value() - self.networks[j].frequency.value()).abs()
                    < f64::EPSILON
                {
                    return Err(format!(
                        "networks {i} and {j} share frequency {}",
                        self.networks[i].frequency
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_network(freq: f64) -> NetworkSpec {
        NetworkSpec::new(
            Megahertz::new(freq),
            vec![
                LinkSpec::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0), Dbm::new(0.0)),
                LinkSpec::new(Point::new(0.0, 1.0), Point::new(2.0, 1.0), Dbm::new(0.0)),
            ],
        )
    }

    #[test]
    fn counts() {
        let d = Deployment::new(vec![sample_network(2461.0), sample_network(2464.0)]);
        assert_eq!(d.link_count(), 4);
        assert_eq!(d.node_count(), 8);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn min_cfd() {
        let d = Deployment::new(vec![
            sample_network(2458.0),
            sample_network(2464.0),
            sample_network(2461.0),
        ]);
        assert_eq!(d.min_cfd(), Some(Megahertz::new(3.0)));
        assert_eq!(
            Deployment::new(vec![sample_network(2458.0)]).min_cfd(),
            None
        );
    }

    #[test]
    fn validation_rejects_duplicates_and_empties() {
        let d = Deployment::new(vec![sample_network(2458.0), sample_network(2458.0)]);
        assert!(d.validate().unwrap_err().contains("share frequency"));

        let d = Deployment::new(vec![NetworkSpec::new(Megahertz::new(2458.0), vec![])]);
        assert!(d.validate().unwrap_err().contains("no links"));

        assert!(Deployment::default().validate().is_err());
    }

    #[test]
    fn link_distance() {
        let l = LinkSpec::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0), Dbm::new(0.0));
        assert_eq!(l.distance().value(), 2.0);
    }
}
