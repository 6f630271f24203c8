//! Pinned digests of every host choice every placement policy makes.
//!
//! Three drives, each folded per policy:
//!
//! - the closed-loop generator: `generate_workload_on` with 200 jobs of
//!   the default mix on a k=16 fat-tree, placed up front;
//! - admission-style cycles on a k=8 fat-tree: the pool is rebuilt from
//!   the live jobs' hosts with `reset_with_busy`, a few requests are
//!   placed (some too large, so the refusals are pinned too) and claimed,
//!   and random live jobs retire through `Placer::forget`;
//! - the same cycles on a flat pool over a big switch.
//!
//! The digests fold only what `Placer::place` returns, so the pool's
//! internal representation can change freely, but a changed host choice
//! or order on any policy moves a digest.

use std::collections::BTreeSet;

use echelon_cluster::prelude::*;
use echelon_core::JobId;
use echelon_detrand::DetRng;
use echelon_paradigms::ids::IdAlloc;
use echelon_simnet::fattree::FatTree;
use echelon_simnet::ids::NodeId;
use echelon_simnet::topology::Topology;

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn hosts(&mut self, hosts: &[NodeId]) {
        self.eat(hosts.len() as u64);
        hosts.iter().for_each(|h| self.eat(h.0 as u64));
    }
}

/// Every policy, seeded ones reseeded so their seed is exercised.
fn policies() -> Vec<PlacementPolicy> {
    PlacementPolicy::ALL
        .iter()
        .map(|p| p.with_seed(0x5EED))
        .collect()
}

/// Checks one digest per policy against its pin, reporting every move.
fn check(drive: &str, pins: [u64; 5], digest: impl Fn(PlacementPolicy) -> u64) {
    let mut moved = Vec::new();
    for (policy, pin) in policies().into_iter().zip(pins) {
        let got = digest(policy);
        if got != pin {
            moved.push(format!(
                "{}: {got:#018x} (pinned {pin:#018x})",
                policy.name()
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "{drive} placement digests moved:\n{}",
        moved.join("\n")
    );
}

/// Sixty admission passes over `pool`, all of it free at the start: each
/// retires some live jobs, rebuilds the pool from the remaining ones'
/// hosts, and places up to four requests, claiming each success.
fn admission_digest(policy: PlacementPolicy, topo: &Topology, mut pool: HostPool) -> u64 {
    let hosts = pool.num_free();
    let mut rng = DetRng::seed_from_u64(0xAD31 ^ hosts as u64);
    let mut placer = placer_for(policy);
    let mut live: Vec<(JobId, Vec<NodeId>)> = Vec::new();
    let mut fold = Fold::new();
    let mut next = 0u32;
    let mut refused = 0;
    for _ in 0..60 {
        for _ in 0..rng.usize_range_inclusive(0, live.len().min(3)) {
            let (job, _) = live.remove(rng.usize_range_inclusive(0, live.len() - 1));
            placer.forget(job);
        }
        let busy: BTreeSet<NodeId> = live.iter().flat_map(|(_, h)| h.iter().copied()).collect();
        pool.reset_with_busy(&busy);
        for _ in 0..rng.usize_range_inclusive(1, 4) {
            let req = PlacementRequest {
                job: JobId(next),
                index: next as usize,
                demand: rng.usize_range_inclusive(1, hosts / 4),
                phase_gap: Some(rng.f64_range(0.5, 4.0)),
            };
            next += 1;
            match placer.place(&req, &pool, topo) {
                Ok(placed) => {
                    fold.hosts(&placed);
                    pool.claim(&placed);
                    live.push((req.job, placed));
                }
                Err(e) => {
                    assert_eq!(
                        e,
                        PlacementError::Insufficient {
                            demand: req.demand,
                            free: pool.num_free()
                        }
                    );
                    fold.eat(u64::MAX);
                    fold.eat(req.demand as u64);
                    refused += 1;
                }
            }
        }
    }
    assert!(
        refused > 0 && (next as usize) > 2 * refused,
        "{}: {refused} of {next} requests refused; the drive should mostly place",
        policy.name()
    );
    fold.0
}

/// The closed-loop generator's placements of 200 jobs on a k=16 fabric.
#[test]
fn generated_workload_placements_match_pins() {
    let tree = FatTree::new(16);
    let topo = tree.build_fabric();
    check(
        "generate_workload_on",
        [
            0xc59b_ba59_b5a4_9d6d,
            0x4b97_e29a_d712_58bc,
            0x09fb_88cc_7c19_4348,
            0xf302_39a6_a73a_e7ad,
            0x4c79_8839_3197_886d,
        ],
        |policy| {
            let mut cfg = WorkloadConfig::default_mix(1, 200, tree.hosts());
            cfg.iterations = 1;
            cfg.placement = policy;
            let jobs = generate_workload_on(&cfg, &topo, &mut IdAlloc::new());
            let mut fold = Fold::new();
            jobs.iter().for_each(|j| fold.hosts(&j.placement));
            fold.0
        },
    );
}

/// Admission-style cycles on a k=8 fabric (128 hosts, 8 pods).
#[test]
fn admission_cycle_placements_match_pins_on_fat_tree() {
    let topo = FatTree::new(8).build_fabric();
    check(
        "k=8 admission",
        [
            0xc4e4_a592_9fa4_aad0,
            0x1839_974b_cb43_ac72,
            0x1ce7_92fe_f23f_ad5e,
            0x3237_9403_a5c1_c06b,
            0x8774_e1ff_a0ef_b23e,
        ],
        |policy| admission_digest(policy, &topo, HostPool::on_topology(128, &topo).unwrap()),
    );
}

/// Admission-style cycles on a flat pool (one pod) over a big switch.
#[test]
fn admission_cycle_placements_match_pins_on_flat_pool() {
    let topo = Topology::big_switch_uniform(48, 1.0);
    check(
        "flat admission",
        [
            0xf0e6_df06_94b5_4cdf,
            0x4832_c321_331e_187c,
            0xf0e6_df06_94b5_4cdf,
            0xf0e6_df06_94b5_4cdf,
            0xf0e6_df06_94b5_4cdf,
        ],
        |policy| admission_digest(policy, &topo, HostPool::flat(48).unwrap()),
    );
}
