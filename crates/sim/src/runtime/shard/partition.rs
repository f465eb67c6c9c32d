//! Interaction-component planning: which networks must share a shard.
//!
//! The planner runs union-find over the *can-interact* relation between
//! networks, built from the same [`crate::reach`] predicates the medium
//! uses for sensing (so partitioning and sensing can never disagree).
//! Two networks are unioned when **any** coupling path between them is
//! possible:
//!
//! 1. **Channel coupling** — their CFD is within the ACR curve's
//!    support ([`reach::channel_coupled`]), so power queries see leaked
//!    energy.
//! 2. **Sync capture** — the capture model admits cross-CFD preamble
//!    sync ([`CaptureModel::is_sync_candidate`]), so a receiver on one
//!    network could lock onto the other's frames.
//! 3. **Collision floor** — [`Medium::was_collided`] applies *no*
//!    channel cutoff; a pair is unioned unless the maximum possible
//!    coupled power (worst-case shadowing excursion included, see
//!    [`reach::above_collision_floor`]) stays at or below the
//!    scenario's collision floor in both transmit directions.
//! 4. **Forwarding** — a `Forward { from_link }` traffic source (via
//!    network behaviour or per-link override) moves frames between the
//!    two networks' queues.
//!
//! Geometry-free jammer faults couple to *everyone* within their
//! channel reach, so instead of widening the union they are replicated
//! into every shard's fault plan — each sub-medium then sees the exact
//! same ambient terms the global medium would.
//!
//! [`CaptureModel::is_sync_candidate`]: nomc_phy::capture::CaptureModel::is_sync_candidate
//! [`Medium::was_collided`]: crate::medium::Medium::was_collided

use crate::reach;
use crate::rng::splitmix64;
use crate::scenario::{FaultPlan, Scenario, TrafficModel};
use nomc_topology::Deployment;
use std::collections::BTreeMap;

/// One shard of a partitioned run: a closed set of networks plus a
/// standalone sub-scenario that reproduces exactly their slice of the
/// original scenario.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Global network indices in this shard, ascending.
    pub networks: Vec<usize>,
    /// Global link indices in this shard, ascending (network-major, so
    /// position `j` here is local link `j` of [`ShardSpec::scenario`]).
    pub links: Vec<usize>,
    /// Global node indices in this shard, ascending (sender `2·link`,
    /// receiver `2·link + 1`; position `j` is local node `j`).
    pub nodes: Vec<usize>,
    /// The standalone sub-scenario. For a single-component plan this is
    /// a verbatim copy of the input (same seed); otherwise the seed is
    /// derived per shard (see [`plan`]) and all other knobs are copied,
    /// with link/node references remapped to shard-local indices.
    pub scenario: Scenario,
}

/// Minimal union-find over network indices. Roots are always the
/// *minimum* member index, so component enumeration and seed derivation
/// depend only on the scenario, never on traversal order.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Partitions a (validated) scenario into its interaction components.
///
/// Components are returned sorted by their minimum global network
/// index; a fully-coupled scenario yields a single spec whose
/// `scenario` is a verbatim copy of the input. For multi-component
/// plans each shard's RNG stream is derived from the base seed and the
/// component's minimum network index —
/// `splitmix64(seed ^ splitmix64(min_net + 1))` — the same
/// keyed-derivation discipline the sweep layer uses, so results depend
/// only on the scenario, never on shard count or thread count.
pub fn plan(sc: &Scenario) -> Vec<ShardSpec> {
    let nets = &sc.deployment.networks;
    let n = nets.len();
    if n == 0 {
        return Vec::new();
    }

    // Global link index layout (network-major, matching the engine).
    let mut first_link = Vec::with_capacity(n);
    let mut link_net = Vec::new();
    for (ni, net) in nets.iter().enumerate() {
        first_link.push(link_net.len());
        for _ in &net.links {
            link_net.push(ni);
        }
    }

    let mut uf = UnionFind::new(n);
    let cutoff = sc.propagation.acr.saturation_cfd();
    for a in 0..n {
        for b in (a + 1)..n {
            if uf.find(a) == uf.find(b) {
                continue;
            }
            let cfd = nets[a].frequency.distance_to(nets[b].frequency);
            if reach::channel_coupled(cfd, cutoff) || sc.radio.capture_model.is_sync_candidate(cfd)
            {
                uf.union(a, b);
                continue;
            }
            // Collision-floor rule, both transmit directions over every
            // node pair (every node transmits at its link's power: the
            // receiver emits Imm-ACKs).
            let coupled = nets[a].links.iter().any(|la| {
                nets[b].links.iter().any(|lb| {
                    [la.tx, la.rx].iter().any(|pa| {
                        [lb.tx, lb.rx].iter().any(|pb| {
                            let loss = sc.propagation.path_loss.loss(pa.distance_to(*pb));
                            reach::above_collision_floor(
                                la.tx_power,
                                loss,
                                cfd,
                                &sc.propagation,
                                sc.collision_floor,
                            ) || reach::above_collision_floor(
                                lb.tx_power,
                                loss,
                                cfd,
                                &sc.propagation,
                                sc.collision_floor,
                            )
                        })
                    })
                })
            });
            if coupled {
                uf.union(a, b);
            }
        }
    }

    // Forwarding edges (behaviour defaults and per-link overrides).
    for (ni, behavior) in sc.behaviors.iter().enumerate() {
        if let TrafficModel::Forward { from_link } = behavior.traffic {
            if let Some(&src) = link_net.get(from_link) {
                uf.union(ni, src);
            }
        }
    }
    for &(link, model) in &sc.link_traffic {
        if let TrafficModel::Forward { from_link } = model {
            if let (Some(&dst), Some(&src)) = (link_net.get(link), link_net.get(from_link)) {
                uf.union(dst, src);
            }
        }
    }

    // Components, keyed (and therefore sorted) by minimum member index.
    let mut components: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for ni in 0..n {
        components.entry(uf.find(ni)).or_default().push(ni);
    }

    if components.len() == 1 {
        return vec![ShardSpec {
            networks: (0..n).collect(),
            links: (0..link_net.len()).collect(),
            nodes: (0..link_net.len() * 2).collect(),
            scenario: sc.clone(),
        }];
    }

    components
        .into_iter()
        .map(|(root, networks)| sub_spec(sc, root, networks, &first_link))
        .collect()
}

/// Splits an event budget over a plan's `shards` as evenly as possible
/// (earlier ranks take the remainder), so exhaustion points depend only
/// on the plan; an unlimited budget stays unlimited everywhere. Total:
/// zero shards — a corrupt snapshot's rank list can be empty — split
/// into nothing.
pub(crate) fn split_budget(max_events: u64, shards: usize) -> Vec<u64> {
    let n = shards as u64;
    (0..n)
        .map(|rank| match max_events {
            u64::MAX => u64::MAX,
            // `rank < n`, so `n ≥ 1` here.
            _ => max_events / n + u64::from(rank < max_events % n),
        })
        .collect()
}

/// Builds one shard's spec: index maps plus the remapped sub-scenario.
fn sub_spec(sc: &Scenario, root: usize, networks: Vec<usize>, first_link: &[usize]) -> ShardSpec {
    let nets = &sc.deployment.networks;
    let mut links = Vec::new();
    let mut nodes = Vec::new();
    let mut link_local: BTreeMap<usize, usize> = BTreeMap::new();
    let mut node_local: BTreeMap<usize, usize> = BTreeMap::new();
    for &ni in &networks {
        for li in 0..nets[ni].links.len() {
            let g = first_link[ni] + li;
            link_local.insert(g, links.len());
            links.push(g);
            for node in [2 * g, 2 * g + 1] {
                node_local.insert(node, nodes.len());
                nodes.push(node);
            }
        }
    }

    let map_link = |g: usize| -> usize {
        link_local
            .get(&g)
            .copied()
            .expect("forward source link is unioned into the same shard")
    };

    let behaviors = networks
        .iter()
        .map(|&ni| {
            let mut b = sc.behaviors[ni].clone();
            if let TrafficModel::Forward { from_link } = b.traffic {
                b.traffic = TrafficModel::Forward {
                    from_link: map_link(from_link),
                };
            }
            b
        })
        .collect();

    let link_traffic = sc
        .link_traffic
        .iter()
        .filter_map(|&(link, model)| {
            let local = link_local.get(&link).copied()?;
            let model = match model {
                TrafficModel::Forward { from_link } => TrafficModel::Forward {
                    from_link: map_link(from_link),
                },
                other => other,
            };
            Some((local, model))
        })
        .collect();

    let faults = FaultPlan {
        crashes: sc
            .faults
            .crashes
            .iter()
            .filter_map(|c| {
                node_local.get(&c.node).map(|&node| {
                    let mut c = *c;
                    c.node = node;
                    c
                })
            })
            .collect(),
        // Jammers are geometry-free and draw no RNG: replicating them
        // into every shard reproduces the global medium's ambient terms
        // exactly.
        jammers: sc.faults.jammers.clone(),
        drifts: sc
            .faults
            .drifts
            .iter()
            .filter_map(|d| {
                node_local.get(&d.node).map(|&node| {
                    let mut d = *d;
                    d.node = node;
                    d
                })
            })
            .collect(),
        stuck_cca: sc
            .faults
            .stuck_cca
            .iter()
            .filter_map(|s| {
                node_local.get(&s.node).map(|&node| {
                    let mut s = *s;
                    s.node = node;
                    s
                })
            })
            .collect(),
    };

    let scenario = Scenario {
        deployment: Deployment::new(networks.iter().map(|&ni| nets[ni].clone()).collect()),
        propagation: sc.propagation.clone(),
        radio: sc.radio.clone(),
        frame: sc.frame,
        behaviors,
        link_traffic,
        faults,
        duration: sc.duration,
        warmup: sc.warmup,
        seed: shard_seed(sc.seed, root),
        record_error_positions: sc.record_error_positions,
        record_timeline: sc.record_timeline,
        record_trace: sc.record_trace,
        record_error_records: sc.record_error_records,
        collision_floor: sc.collision_floor,
    };

    ShardSpec {
        networks,
        links,
        nodes,
        scenario,
    }
}

/// Per-shard RNG stream: keyed on the component's minimum global
/// network index, independent of shard enumeration and thread count.
fn shard_seed(base: u64, min_net: usize) -> u64 {
    splitmix64(base ^ splitmix64(min_net as u64 + 1))
}
