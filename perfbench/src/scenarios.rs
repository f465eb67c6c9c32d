//! Workload inputs, generated from the benchmark seed alone.

use nomc_experiments::sweep::hash::Fnv1a;
use nomc_phy::Shadowing;
use nomc_serve::JobSpec;
use nomc_sim::scenario::Propagation;
use nomc_sim::{NetworkBehavior, Scenario, SimResult};
use nomc_topology::spectrum::ChannelPlan;
use nomc_topology::{paper, Deployment, NetworkSpec, Point};
use nomc_units::{Dbm, Megahertz, SimDuration};

/// The seed the committed reference digests were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Simulated span of a `paper_grid`/`partitioned_floor` run: the 1 s
/// initializing phase (T_I) plus one full T_U = 3 s window, so DCN's
/// Case II fires at least once after sensing has set the threshold.
pub const SIM_SPAN: SimDuration = SimDuration::from_secs(5);
const SIM_WARMUP: SimDuration = SimDuration::from_secs(1);

/// Clusters on the `partitioned_floor`; each becomes one shard.
pub const FLOOR_CLUSTERS: usize = 4;
const FLOOR_NETWORKS_PER_CLUSTER: usize = 3;

/// Members (seeds) per fresh `serve_mixed` job.
pub const JOB_MEMBERS: usize = 6;
/// Checkpoint cadence of a `serve_mixed` job, in simulation events:
/// about a fifth of one member's events, so every member pauses,
/// snapshots and fsyncs four times. Together with the members this
/// makes the server-side run of a job (about 100 ms on a 2-vCPU VM)
/// several times the server's 25 ms accept-loop poll, so the job
/// latency follows the physics, the checkpoint store, the snapshot
/// codec and the journal rather than the poll. Denser checkpoints would
/// weigh the store more, but fsync latency on a shared disk varies by a
/// factor of several between minutes and would swamp the measurement.
pub const JOB_CHECKPOINT_EVERY: u64 = 8_000;
const JOB_SPAN: SimDuration = SimDuration::from_secs(16);
const JOB_WARMUP: SimDuration = SimDuration::from_millis(500);
const JOB_BUDGET: u64 = 10_000_000;

/// SplitMix64: the one-way step that turns (benchmark seed, item index)
/// into independent scenario seeds.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Item `index` of `paper_grid`: the paper's DCN evaluation — six DCN
/// networks at 3 MHz CFD across the 15 MHz band, in a line.
pub fn paper_grid(seed: u64, index: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2450.0), Megahertz::new(3.0), 6);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SIM_SPAN)
        .warmup(SIM_WARMUP)
        .seed(mix(seed, index));
    b.build().expect("paper_grid scenario is valid")
}

/// Item `index` of `partitioned_floor`: [`FLOOR_CLUSTERS`] equal
/// clusters, each three DCN networks on a 3 MHz grid. Clusters sit
/// 25 MHz and 60 m apart with shadowing off, so no transmission of one
/// cluster can reach another and the shard planner yields one component
/// per cluster.
pub fn partitioned_floor(seed: u64, index: u64) -> Scenario {
    let networks: Vec<NetworkSpec> = (0..FLOOR_CLUSTERS)
        .flat_map(|c| {
            (0..FLOOR_NETWORKS_PER_CLUSTER).map(move |k| {
                let freq = 2405.0 + 25.0 * c as f64 + 3.0 * k as f64;
                let x = 60.0 * c as f64 + paper::LINE_SPACING_M * k as f64;
                paper::standard_network(Point::new(x, 0.0), Megahertz::new(freq), Dbm::new(0.0))
            })
        })
        .collect();
    let mut b = Scenario::builder(Deployment::new(networks));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SIM_SPAN)
        .warmup(SIM_WARMUP)
        .propagation(Propagation {
            shadowing: Shadowing::disabled(),
            ..Propagation::default()
        })
        .seed(mix(seed, index));
    b.build().expect("partitioned_floor scenario is valid")
}

/// The short single-network scenario every `serve_mixed` job sweeps.
pub fn job_scenario() -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(JOB_SPAN).warmup(JOB_WARMUP);
    b.build().expect("serve job scenario is valid")
}

/// Job `index` of `serve_mixed` under `stream`: [`JOB_MEMBERS`] seeds
/// no other job of the run uses, checkpointed every
/// [`JOB_CHECKPOINT_EVERY`] events. Streams keep the fresh jobs apart
/// from the jobs completed during set-up.
pub fn job_spec(seed: u64, stream: u64, index: u64) -> JobSpec {
    let base = mix(mix(seed, stream), index);
    JobSpec {
        scenario: job_scenario(),
        seeds: (0..JOB_MEMBERS as u64).map(|m| mix(base, m)).collect(),
        budget: JOB_BUDGET,
        retries: 1,
        shards: None,
        checkpoint_every: Some(JOB_CHECKPOINT_EVERY),
    }
}

/// FNV-1a digest of a result's JSON with the engine's `events` total
/// zeroed: the total counts dispatched events, which a change that
/// drops no-op events may lower without changing any simulated output.
pub fn result_digest(result: &SimResult) -> u64 {
    let mut r = result.clone();
    r.events = 0;
    text_digest(&nomc_json::to_string(&r))
}

/// FNV-1a digest of a text (a served report, a JSON rendering).
pub fn text_digest(text: &str) -> u64 {
    Fnv1a::new().write(text.as_bytes()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_sim::engine;

    #[test]
    fn items_differ_only_by_seed_and_repeat_exactly() {
        assert_eq!(paper_grid(9, 3), paper_grid(9, 3));
        let (a, b) = (paper_grid(9, 3), paper_grid(9, 4));
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.deployment, b.deployment);
        assert_ne!(job_spec(9, 0, 1).seeds, job_spec(9, 1, 1).seeds);
    }

    #[test]
    fn floor_plans_one_shard_per_cluster() {
        assert_eq!(
            engine::shard_plan(&partitioned_floor(1, 0)).len(),
            FLOOR_CLUSTERS
        );
        assert_eq!(engine::shard_plan(&paper_grid(1, 0)).len(), 1);
    }

    #[test]
    fn digest_ignores_the_event_total_only() {
        let mut sc = job_scenario();
        sc.seed = 5;
        let r = engine::run(&sc);
        let mut fewer = r.clone();
        fewer.events -= 1;
        assert_eq!(result_digest(&r), result_digest(&fewer));
        let mut other = r.clone();
        other.links[0].received += 1;
        assert_ne!(result_digest(&r), result_digest(&other));
    }
}
