//! The paper's named testbed configurations, as reproducible deployments.
//!
//! All geometry here is the reproduction's *calibrated* stand-in for the
//! authors' physical lab (which the paper describes only qualitatively):
//! link lengths, inter-network spacing and interferer placement were
//! chosen so that the simulated versions of the paper's calibration
//! figures (Figs. 4, 6-10) match the measured ones, and are then held
//! fixed for every headline experiment. See DESIGN.md §2.

use crate::deployment::{Deployment, LinkSpec, NetworkSpec};
use crate::geometry::Point;
use crate::placement::{grid_cluster_centers, sample_link, sample_power, Region};
use crate::spectrum::ChannelPlan;
use nomc_rngcore::Rng;
use nomc_units::{Dbm, Megahertz};

/// Link length of a "standard" testbed network (m).
pub const STANDARD_LINK_M: f64 = 2.0;

/// Inter-network spacing of the controlled line deployments (m),
/// calibrated so adjacent-channel sensed power sits a few dB below the
/// −77 dBm default threshold (mild suppression, as in the paper's
/// Figs. 14-18).
pub const LINE_SPACING_M: f64 = 4.5;

/// A standard 4-mote network: two crossed 2 m links around `center`.
pub fn standard_network(center: Point, frequency: Megahertz, tx_power: Dbm) -> NetworkSpec {
    let half = STANDARD_LINK_M / 2.0;
    NetworkSpec::new(
        frequency,
        vec![
            LinkSpec::new(
                center.offset(-half, 0.0),
                center.offset(half, 0.0),
                tx_power,
            ),
            LinkSpec::new(
                center.offset(0.0, half),
                center.offset(0.0, -half),
                tx_power,
            ),
        ],
    )
}

/// §VI-A / Fig. 13: `count` networks in a line, `LINE_SPACING_M` apart,
/// ordered (and positioned) by ascending frequency, all at `tx_power`.
///
/// Adjacent channels are physical neighbours, so the middle-frequency
/// network (the paper's N0) is also geometrically central.
pub fn line_deployment(plan: &ChannelPlan, tx_power: Dbm) -> Deployment {
    let networks = plan
        .channels()
        .iter()
        .enumerate()
        .map(|(i, &freq)| {
            standard_network(Point::new(i as f64 * LINE_SPACING_M, 0.0), freq, tx_power)
        })
        .collect();
    Deployment::new(networks)
}

/// Fig. 5: one link of interest on the centre channel plus four
/// interferer networks at CFD ±1·cfd and ±2·cfd.
///
/// Returns the deployment and the index of the link-of-interest's network
/// (always the middle one). The interferer networks sit ~3 m from the
/// link's transmitter (so their leakage is sensed above the default CCA
/// threshold) and ~4-5 m from its receiver (so the leakage is tolerable
/// interference, not a packet killer).
pub fn fig5_deployment(
    center_freq: Megahertz,
    cfd: Megahertz,
    link_power: Dbm,
    interferer_power: Dbm,
) -> (Deployment, usize) {
    let c = cfd.value();
    let f = center_freq.value();
    let link = NetworkSpec::new(
        center_freq,
        vec![LinkSpec::new(
            Point::new(0.0, 0.0),
            Point::new(STANDARD_LINK_M, 0.0),
            link_power,
        )],
    );
    // Interferer network centres ≈ 3 m from the link TX at (0,0).
    let interferer_centers = [
        (Point::new(-2.1, 2.1), f - c),
        (Point::new(-2.1, -2.1), f + c),
        (Point::new(-3.0, 0.0), f - 2.0 * c),
        (Point::new(0.0, 3.0), f + 2.0 * c),
    ];
    let mut networks: Vec<NetworkSpec> = interferer_centers
        .iter()
        .map(|&(center, freq)| standard_network(center, Megahertz::new(freq), interferer_power))
        .collect();
    networks.push(link);
    networks.sort_by(|a, b| {
        a.frequency
            .value()
            .partial_cmp(&b.frequency.value())
            .expect("finite")
    });
    let link_index = networks
        .iter()
        .position(|n| n.frequency == center_freq)
        .expect("link network present");
    (Deployment::new(networks), link_index)
}

/// Fig. 8: the Fig. 5 configuration plus three additional co-channel
/// links on the centre channel.
///
/// The co-channel transmitters sit 2.5-4 m from the link-of-interest's
/// transmitter; the weakest of them bounds how far the CCA threshold may
/// be relaxed (the "Min RSS" line in the paper's Fig. 8).
pub fn fig8_deployment(
    center_freq: Megahertz,
    cfd: Megahertz,
    link_power: Dbm,
    interferer_power: Dbm,
) -> (Deployment, usize) {
    let (mut deployment, link_index) =
        fig5_deployment(center_freq, cfd, link_power, interferer_power);
    let cochannel = &mut deployment.networks[link_index].links;
    cochannel.push(LinkSpec::new(
        Point::new(1.0, 2.0),
        Point::new(3.0, 2.0),
        interferer_power,
    ));
    cochannel.push(LinkSpec::new(
        Point::new(1.5, -2.2),
        Point::new(3.5, -2.2),
        interferer_power,
    ));
    cochannel.push(LinkSpec::new(
        Point::new(4.2, 1.0),
        Point::new(6.2, 1.0),
        interferer_power,
    ));
    (deployment, link_index)
}

/// §III-B / Fig. 3-4: the collision experiment — a "normal" link and an
/// "attacker" link on channels `cfd` apart, crossed so each transmitter
/// sits 2 m from the *other* link's receiver while its own receiver is
/// 4 m (normal) / 3.8 m (attacker) away.
///
/// Returns `(deployment, normal_index, attacker_index)`.
pub fn fig4_deployment(
    base_freq: Megahertz,
    cfd: Megahertz,
    tx_power: Dbm,
) -> (Deployment, usize, usize) {
    let normal = NetworkSpec::new(
        base_freq,
        vec![LinkSpec::new(
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            tx_power,
        )],
    );
    let attacker_freq = Megahertz::new(base_freq.value() + cfd.value());
    let attacker = NetworkSpec::new(
        attacker_freq,
        vec![LinkSpec::new(
            Point::new(3.8, 2.0),
            Point::new(0.0, 2.0),
            tx_power,
        )],
    );
    (Deployment::new(vec![normal, attacker]), 0, 1)
}

/// Case I (Fig. 22): all networks in one dense interfering region — every
/// node inside a 3 × 3 m area (bench-top density), link lengths ≤ 1.5 m,
/// per-node powers drawn from `power_range` (the paper's [−22, 0] dBm).
pub fn case1_deployment<R: Rng + ?Sized>(
    rng: &mut R,
    plan: &ChannelPlan,
    links_per_network: usize,
    power_range: (f64, f64),
) -> Deployment {
    let region = Region::centered_square(3.0);
    random_networks(rng, plan, links_per_network, &region, 1.5, power_range)
}

/// Case II (Fig. 23): each network clustered in its own "office room" —
/// 2 × 2 m clusters on a 3 m grid, three per row (adjacent rooms are
/// close enough that neighbour-channel leakage is still sensed, but the
/// inter-channel pressure is weaker than Case I's shared bench).
pub fn case2_deployment<R: Rng + ?Sized>(
    rng: &mut R,
    plan: &ChannelPlan,
    links_per_network: usize,
    power_range: (f64, f64),
) -> Deployment {
    let centers = grid_cluster_centers(plan.channels().len(), 3, 3.0);
    let networks = plan
        .channels()
        .iter()
        .zip(centers)
        .map(|(&freq, center)| {
            let region = Region::new(center.offset(-1.0, -1.0), 2.0, 2.0);
            let links = (0..links_per_network)
                .map(|_| {
                    let (tx, rx) = sample_link(rng, &region, 2.0);
                    LinkSpec::new(
                        tx,
                        rx,
                        sample_power(rng, Dbm::new(power_range.0), Dbm::new(power_range.1)),
                    )
                })
                .collect();
            NetworkSpec::new(freq, links)
        })
        .collect();
    Deployment::new(networks)
}

/// Case III (Fig. 24): all nodes random in a larger 6 × 6 m region, with
/// link lengths up to 2.5 m — same-network nodes can end up far apart
/// relative to interferers, so overheard co-channel RSSIs are low and
/// (per the paper) constrain DCN's threshold relaxation.
pub fn case3_deployment<R: Rng + ?Sized>(
    rng: &mut R,
    plan: &ChannelPlan,
    links_per_network: usize,
    power_range: (f64, f64),
) -> Deployment {
    let region = Region::centered_square(6.0);
    random_networks(rng, plan, links_per_network, &region, 2.5, power_range)
}

/// §VI-A (Fig. 13): the five-network CFD study — all networks share one
/// dense 4 × 4 m region (links ≤ 2 m) at a fixed transmit power. The
/// shared region is what makes CFD = 2 MHz *damaging* (not merely
/// suppressive) the way the paper's Figs. 16-18 show.
pub fn vi_a_deployment<R: Rng + ?Sized>(
    rng: &mut R,
    plan: &ChannelPlan,
    links_per_network: usize,
    tx_power: Dbm,
) -> Deployment {
    let region = Region::centered_square(4.0);
    let networks = plan
        .channels()
        .iter()
        .map(|&freq| {
            let links = (0..links_per_network)
                .map(|_| {
                    let (tx, rx) = sample_link(rng, &region, 2.0);
                    LinkSpec::new(tx, rx, tx_power)
                })
                .collect();
            NetworkSpec::new(freq, links)
        })
        .collect();
    Deployment::new(networks)
}

/// Shared helper: `links_per_network` random links per channel inside
/// `region`.
fn random_networks<R: Rng + ?Sized>(
    rng: &mut R,
    plan: &ChannelPlan,
    links_per_network: usize,
    region: &Region,
    max_link: f64,
    power_range: (f64, f64),
) -> Deployment {
    let networks = plan
        .channels()
        .iter()
        .map(|&freq| {
            let links = (0..links_per_network)
                .map(|_| {
                    let (tx, rx) = sample_link(rng, region, max_link);
                    LinkSpec::new(
                        tx,
                        rx,
                        sample_power(rng, Dbm::new(power_range.0), Dbm::new(power_range.1)),
                    )
                })
                .collect();
            NetworkSpec::new(freq, links)
        })
        .collect();
    Deployment::new(networks)
}

/// Maps deployment order (ascending frequency) to the paper's network
/// names: `N0` is the middle frequency, low indices are close to the
/// middle, and the largest indices sit at the band edges (§VI-B-3).
///
/// # Examples
///
/// ```
/// // 5 networks: [f−2c, f−c, f0, f+c, f+2c] → [N3, N1, N0, N2, N4]
/// assert_eq!(nomc_topology::paper::paper_labels(5), ["N3", "N1", "N0", "N2", "N4"]);
/// ```
pub fn paper_labels(count: usize) -> Vec<String> {
    let mid = (count.saturating_sub(1)) as f64 / 2.0;
    // Rank deployment indices by distance from the band centre (ties:
    // lower frequency first), then hand out N0, N1, … in that order.
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by_key(|&i| {
        // Distances are multiples of 0.5, so doubling keeps them integral.
        let d = ((i as f64 - mid).abs() * 2.0) as usize;
        (d, i)
    });
    let mut labels = vec![String::new(); count];
    for (rank, &idx) in order.iter().enumerate() {
        labels[idx] = format!("N{rank}");
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_rngcore::rngs::StdRng;
    use nomc_rngcore::SeedableRng;

    /// The mean of a network's node positions.
    fn mean_position(n: &NetworkSpec) -> Point {
        let count = (n.links.len() * 2) as f64;
        let (mut x, mut y) = (0.0, 0.0);
        for l in &n.links {
            x += l.tx.x + l.rx.x;
            y += l.tx.y + l.rx.y;
        }
        Point::new(x / count, y / count)
    }

    fn plan6() -> ChannelPlan {
        ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 6)
    }

    #[test]
    fn standard_network_has_two_2m_links() {
        let n = standard_network(Point::new(10.0, 0.0), Megahertz::new(2460.0), Dbm::new(0.0));
        assert_eq!(n.links.len(), 2);
        for l in &n.links {
            assert!((l.distance().value() - 2.0).abs() < 1e-9);
        }
        assert_eq!(mean_position(&n), Point::new(10.0, 0.0));
    }

    #[test]
    fn line_deployment_spacing() {
        let d = line_deployment(&plan6(), Dbm::new(0.0));
        assert_eq!(d.networks.len(), 6);
        assert!(d.validate().is_ok());
        let c0 = mean_position(&d.networks[0]);
        let c1 = mean_position(&d.networks[1]);
        assert!((c0.distance_to(c1).value() - LINE_SPACING_M).abs() < 1e-9);
        // Ordered by frequency.
        assert!(d
            .networks
            .windows(2)
            .all(|w| w[0].frequency < w[1].frequency));
    }

    #[test]
    fn fig5_structure() {
        let (d, link_idx) = fig5_deployment(
            Megahertz::new(2464.0),
            Megahertz::new(3.0),
            Dbm::new(0.0),
            Dbm::new(0.0),
        );
        assert_eq!(d.networks.len(), 5);
        assert!(d.validate().is_ok());
        assert_eq!(d.networks[link_idx].links.len(), 1);
        assert_eq!(d.networks[link_idx].frequency, Megahertz::new(2464.0));
        // Frequencies are f ± {0, 3, 6}.
        let freqs: Vec<f64> = d.networks.iter().map(|n| n.frequency.value()).collect();
        assert_eq!(freqs, vec![2458.0, 2461.0, 2464.0, 2467.0, 2470.0]);
        // Interferer centres ≈ 3 m from the link TX at the origin.
        for (i, n) in d.networks.iter().enumerate() {
            if i != link_idx {
                let dist = mean_position(n).distance_to(Point::ORIGIN).value();
                assert!((2.9..=3.1).contains(&dist), "network {i} at {dist} m");
            }
        }
    }

    #[test]
    fn fig8_adds_three_cochannel_links() {
        let (d, link_idx) = fig8_deployment(
            Megahertz::new(2464.0),
            Megahertz::new(3.0),
            Dbm::new(0.0),
            Dbm::new(0.0),
        );
        assert_eq!(d.networks[link_idx].links.len(), 4);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn fig4_cross_geometry() {
        let (d, n_idx, a_idx) =
            fig4_deployment(Megahertz::new(2460.0), Megahertz::new(3.0), Dbm::new(0.0));
        let normal = &d.networks[n_idx].links[0];
        let attacker = &d.networks[a_idx].links[0];
        assert!((normal.distance().value() - 4.0).abs() < 1e-9);
        assert!((attacker.distance().value() - 3.8).abs() < 1e-9);
        // Each transmitter is 2 m from the other link's receiver.
        assert!((attacker.tx.distance_to(normal.rx).value() - 2.01).abs() < 0.05);
        assert!((normal.tx.distance_to(attacker.rx).value() - 2.0).abs() < 1e-9);
        assert_eq!(
            d.networks[a_idx]
                .frequency
                .distance_to(d.networks[n_idx].frequency),
            Megahertz::new(3.0)
        );
    }

    #[test]
    fn case_deployments_are_valid_and_sized() {
        let mut rng = StdRng::seed_from_u64(42);
        for d in [
            case1_deployment(&mut rng, &plan6(), 2, (-22.0, 0.0)),
            case2_deployment(&mut rng, &plan6(), 2, (-22.0, 0.0)),
            case3_deployment(&mut rng, &plan6(), 2, (-22.0, 0.0)),
        ] {
            assert!(d.validate().is_ok());
            assert_eq!(d.networks.len(), 6);
            assert_eq!(d.link_count(), 12);
            for n in &d.networks {
                for l in &n.links {
                    assert!((-22.0..=0.0).contains(&l.tx_power.value()));
                }
            }
        }
    }

    #[test]
    fn case1_is_dense_case2_is_clustered() {
        let mut rng = StdRng::seed_from_u64(1);
        let d1 = case1_deployment(&mut rng, &plan6(), 2, (-22.0, 0.0));
        // Dense: all centroids within the 3x3 region.
        for n in &d1.networks {
            let c = mean_position(n);
            assert!(c.x.abs() <= 1.5 && c.y.abs() <= 1.5);
        }
        let d2 = case2_deployment(&mut rng, &plan6(), 2, (-22.0, 0.0));
        // Clustered: network centroids ≈ 3 m grid apart.
        let c0 = mean_position(&d2.networks[0]);
        let c1 = mean_position(&d2.networks[1]);
        assert!(c0.distance_to(c1).value() > 2.0);
    }

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(paper_labels(5), ["N3", "N1", "N0", "N2", "N4"]);
        assert_eq!(paper_labels(6), ["N4", "N2", "N0", "N1", "N3", "N5"]);
        assert_eq!(paper_labels(1), ["N0"]);
        let l7 = paper_labels(7);
        assert_eq!(l7[3], "N0");
        assert_eq!(l7[0], "N5");
        assert_eq!(l7[6], "N6");
    }

    #[test]
    fn deployments_deterministic_per_seed() {
        let a = case3_deployment(&mut StdRng::seed_from_u64(9), &plan6(), 2, (-22.0, 0.0));
        let b = case3_deployment(&mut StdRng::seed_from_u64(9), &plan6(), 2, (-22.0, 0.0));
        assert_eq!(a, b);
        let c = case3_deployment(&mut StdRng::seed_from_u64(10), &plan6(), 2, (-22.0, 0.0));
        assert_ne!(a, c);
    }
}
