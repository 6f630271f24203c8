//! Property tests for the placement subsystem: the host pool against a
//! `BTreeSet` model, host-set soundness for
//! every policy on both topology families, the `Placer::place` failure
//! contract (fails exactly on overdemand, failures leave memory
//! untouched), pod-minimality of the
//! pod-packed policy against a brute-force oracle, thread-invariance of
//! the placement-axis sweep, and the open≡closed digest contract under
//! admission-time placement.
//!
//! Inputs are generated from seeded `echelon-detrand` streams so every
//! failure is reproducible from the printed seed.

use std::collections::BTreeSet;

use echelon_cluster::prelude::*;
use echelon_cluster::service::{completion_digest, service_parts};
use echelon_core::JobId;
use echelon_detrand::DetRng;
use echelon_simnet::fattree::FatTree;
use echelon_simnet::fault::FaultPlan;
use echelon_simnet::ids::NodeId;
use echelon_simnet::runner::FullRecompute;
use echelon_simnet::sweep::sweep_with;
use echelon_simnet::topology::Topology;

/// Every policy, with seeded variants reseeded per trial.
fn policies(seed: u64) -> Vec<PlacementPolicy> {
    PlacementPolicy::ALL
        .iter()
        .map(|p| p.with_seed(seed))
        .collect()
}

/// Random demand vectors that always fit the pool.
fn random_demands(rng: &mut DetRng, jobs: usize, hosts: usize) -> Vec<usize> {
    let mut left = hosts;
    let mut demands = Vec::new();
    for _ in 0..jobs {
        if left < 2 {
            break;
        }
        let d = rng.usize_range_inclusive(1, (hosts / jobs).max(2).min(left));
        demands.push(d);
        left -= d;
    }
    demands
}

/// Placements from every policy are sized to the demand, in range, and
/// pairwise disjoint — on a flat big switch and on a fat-tree fabric.
#[test]
fn every_policy_places_disjoint_in_range_hosts() {
    let fabric = FatTree::new(4).build_fabric();
    let flat = Topology::big_switch_uniform(16, 1.0);
    for (tname, topo) in [("big-switch", &flat), ("fat-tree", &fabric)] {
        for trial in 0..20u64 {
            let mut rng = DetRng::seed_from_u64(0x1ACE ^ trial);
            let demands = random_demands(&mut rng, 5, 16);
            let gaps: Vec<Option<f64>> = demands
                .iter()
                .map(|_| Some(rng.f64_range(0.5, 4.0)))
                .collect();
            for policy in policies(trial) {
                let placed = place_jobs_on(policy, 16, &demands, topo, &gaps)
                    .unwrap_or_else(|e| panic!("{} on {tname} trial {trial}: {e}", policy.name()));
                let mut seen: BTreeSet<NodeId> = BTreeSet::new();
                for (hosts, &d) in placed.iter().zip(&demands) {
                    assert_eq!(hosts.len(), d, "{} on {tname}", policy.name());
                    for &h in hosts {
                        assert!((h.0 as usize) < 16, "{} placed out of range", policy.name());
                        assert!(
                            seen.insert(h),
                            "{} on {tname} trial {trial}: host {h:?} double-assigned",
                            policy.name()
                        );
                    }
                }
            }
        }
    }
}

/// A pool over `hosts` with a random share of them (0–100%) claimed.
fn random_claims(rng: &mut DetRng, topo: &Topology, hosts: usize) -> HostPool {
    let mut pool = HostPool::on_topology(hosts, topo).unwrap();
    let share = rng.next_f64();
    let busy: BTreeSet<NodeId> = (0..hosts as u32)
        .map(NodeId)
        .filter(|_| rng.next_f64() < share)
        .collect();
    pool.reset_with_busy(&busy);
    pool
}

/// The first half of the `Placer::place` contract the admission scan's
/// count pre-check relies on: every policy fails exactly when the demand
/// exceeds the free-host count, and otherwise returns that many distinct
/// free hosts.
#[test]
fn place_fails_exactly_when_demand_exceeds_free() {
    let fabric = FatTree::new(4).build_fabric();
    let flat = Topology::big_switch_uniform(16, 1.0);
    for (tname, topo) in [("big-switch", &flat), ("fat-tree", &fabric)] {
        for trial in 0..40u64 {
            let mut rng = DetRng::seed_from_u64(0xFA11 ^ trial);
            for policy in policies(trial) {
                let mut placer = placer_for(policy);
                for call in 0..8usize {
                    let pool = random_claims(&mut rng, topo, 16);
                    let req = PlacementRequest {
                        job: JobId(call as u32),
                        index: call,
                        demand: rng.usize_range_inclusive(1, 17),
                        phase_gap: Some(rng.f64_range(0.5, 4.0)),
                    };
                    let free = pool.num_free();
                    let ctx = format!("{} on {tname} trial {trial} call {call}", policy.name());
                    match placer.place(&req, &pool, topo) {
                        Ok(hosts) => {
                            assert!(req.demand <= free, "{ctx}: placed {} of {free}", req.demand);
                            let distinct: BTreeSet<NodeId> = hosts.iter().copied().collect();
                            assert_eq!(distinct.len(), req.demand, "{ctx}: wrong host count");
                            assert!(hosts.iter().all(|&h| pool.is_free(h)), "{ctx}: busy host");
                        }
                        Err(e) => assert_eq!(
                            e,
                            PlacementError::Insufficient {
                                demand: req.demand,
                                free
                            },
                            "{ctx}: refused a placeable demand"
                        ),
                    }
                }
            }
        }
    }
}

/// The second half of the contract: a failed call leaves the placer's
/// memory unchanged, so a placer that also answers failing requests
/// (against arbitrary claim states) between its successful ones places
/// every job exactly like a twin that never saw them — across
/// retirements (`forget`) too.
#[test]
fn failed_placements_leave_placer_memory_unchanged() {
    let fabric = FatTree::new(4).build_fabric();
    let flat = Topology::big_switch_uniform(16, 1.0);
    for (tname, topo) in [("big-switch", &flat), ("fat-tree", &fabric)] {
        for trial in 0..20u64 {
            let mut rng = DetRng::seed_from_u64(0x3E30 ^ trial);
            for policy in policies(trial) {
                let mut probed = placer_for(policy);
                let mut twin = placer_for(policy);
                let mut pool = HostPool::on_topology(16, topo).unwrap();
                let mut live: Vec<(JobId, Vec<NodeId>)> = Vec::new();
                for step in 0..12u32 {
                    let ctx = format!("{} on {tname} trial {trial} step {step}", policy.name());
                    if !live.is_empty()
                        && (pool.num_free() == 0 || rng.usize_range_inclusive(0, 2) == 0)
                    {
                        let (job, _) = live.remove(rng.usize_range_inclusive(0, live.len() - 1));
                        probed.forget(job);
                        twin.forget(job);
                        pool.reset_with_busy(
                            &live.iter().flat_map(|(_, h)| h.iter().copied()).collect(),
                        );
                        continue;
                    }
                    for probe in 0..rng.usize_range_inclusive(1, 3) {
                        let other = random_claims(&mut rng, topo, 16);
                        let req = PlacementRequest {
                            job: JobId(1000 + 10 * step + probe as u32),
                            index: rng.usize_range_inclusive(0, 99),
                            demand: other.num_free() + rng.usize_range_inclusive(1, 3),
                            phase_gap: Some(rng.f64_range(0.5, 4.0)),
                        };
                        assert!(probed.place(&req, &other, topo).is_err(), "{ctx}");
                    }
                    let req = PlacementRequest {
                        job: JobId(step),
                        index: step as usize,
                        demand: rng.usize_range_inclusive(1, pool.num_free().min(5)),
                        phase_gap: Some(rng.f64_range(0.5, 4.0)),
                    };
                    let hosts = probed.place(&req, &pool, topo).unwrap();
                    assert_eq!(
                        twin.place(&req, &pool, topo).unwrap(),
                        hosts,
                        "{ctx}: failed calls changed a later placement"
                    );
                    pool.claim(&hosts);
                    live.push((req.job, hosts));
                }
            }
        }
    }
}

/// The pool against a `BTreeSet` model: seeded random claims and
/// `reset_with_busy` rebuilds, and after every operation the counts,
/// membership and ascending listings agree with the model — on flat
/// pools whose sizes straddle the bitset's word boundary and on fat-tree
/// pools whose pods do (k=6 has pods of 9 hosts).
#[test]
fn host_pool_matches_btreeset_model() {
    let mut pools: Vec<(String, HostPool)> = [0usize, 1, 63, 64, 65, 130]
        .into_iter()
        .map(|n| (format!("flat {n}"), HostPool::flat(n).unwrap()))
        .collect();
    for k in [4usize, 6, 8] {
        let topo = FatTree::new(k).build_fabric();
        let pool = HostPool::on_topology(k * k * k / 4, &topo).unwrap();
        pools.push((format!("k={k}"), pool));
    }
    for (name, mut pool) in pools {
        let hosts = pool.num_free();
        let all: BTreeSet<NodeId> = (0..hosts as u32).map(NodeId).collect();
        let mut model = all.clone();
        let check = |pool: &HostPool, model: &BTreeSet<NodeId>, ctx: &str| {
            assert_eq!(pool.num_free(), model.len(), "{ctx}: num_free");
            let listed: Vec<NodeId> = pool.free_hosts().collect();
            assert_eq!(listed, model.iter().copied().collect::<Vec<_>>(), "{ctx}");
            for h in (0..hosts as u32 + 2).map(NodeId) {
                assert_eq!(pool.is_free(h), model.contains(&h), "{ctx}: host {h}");
            }
            for p in 0..pool.num_pods() {
                let want: Vec<NodeId> = pool
                    .pod_hosts(p)
                    .iter()
                    .copied()
                    .filter(|h| model.contains(h))
                    .collect();
                assert_eq!(pool.num_free_in_pod(p), want.len(), "{ctx}: pod {p} count");
                assert_eq!(
                    pool.free_in_pod(p).collect::<Vec<_>>(),
                    want,
                    "{ctx}: pod {p}"
                );
            }
            let pods: usize = (0..pool.num_pods()).map(|p| pool.pod_hosts(p).len()).sum();
            assert_eq!(pods, hosts, "{ctx}: pods cover the hosts");
        };
        check(&pool, &model, &name);
        let mut rng = DetRng::seed_from_u64(0x9001 ^ hosts as u64);
        for step in 0..200 {
            let ctx = format!("{name} step {step}");
            if model.is_empty() || rng.usize_range_inclusive(0, 3) == 0 {
                // Busy sets may name hosts outside the pool; they are
                // ignored, as the runtime's claim set may hold them.
                let share = rng.next_f64();
                let busy: BTreeSet<NodeId> = (0..hosts as u32 + 3)
                    .map(NodeId)
                    .filter(|_| rng.next_f64() < share)
                    .collect();
                pool.reset_with_busy(&busy);
                model = all.difference(&busy).copied().collect();
            } else {
                let free: Vec<NodeId> = model.iter().copied().collect();
                let mut take: Vec<NodeId> = (0..rng.usize_range_inclusive(1, free.len().min(9)))
                    .map(|_| free[rng.usize_range_inclusive(0, free.len() - 1)])
                    .collect();
                take.sort_unstable();
                take.dedup();
                rng.shuffle(&mut take);
                pool.claim(&take);
                take.iter().for_each(|h| {
                    model.remove(h);
                });
            }
            check(&pool, &model, &ctx);
        }
    }
}

/// Claiming a host twice, or one outside the pool, panics.
#[test]
fn host_pool_rejects_double_claims() {
    for bad in [NodeId(3), NodeId(16)] {
        let mut pool = HostPool::flat(16).unwrap();
        pool.claim(&[NodeId(3)]);
        let caught = std::panic::catch_unwind(move || pool.claim(&[bad]));
        assert!(caught.is_err(), "claiming {bad} did not panic");
    }
}

/// Pod-packed placements span exactly the brute-force minimum number of
/// pods, for arbitrary claimed/free pool states on k=4 and k=8 fabrics.
#[test]
fn pod_packed_matches_minimality_oracle() {
    for k in [4usize, 8] {
        let topo = FatTree::new(k).build_fabric();
        let hosts = k * k * k / 4;
        for trial in 0..10u64 {
            let mut rng = DetRng::seed_from_u64(0xC0DE ^ ((k as u64) << 8) ^ trial);
            let mut pool = HostPool::on_topology(hosts, &topo).unwrap();
            let mut placer = placer_for(PlacementPolicy::PodPacked);
            for job in 0..6u32 {
                let demand = rng.usize_range_inclusive(1, hosts / 4);
                if demand > pool.num_free() {
                    break;
                }
                // Oracle: the fewest pods whose free hosts can cover the
                // demand is found by taking pods in free-count order.
                let mut free_counts: Vec<usize> = (0..pool.num_pods())
                    .map(|p| pool.free_in_pod(p).count())
                    .collect();
                free_counts.sort_unstable_by(|a, b| b.cmp(a));
                let mut covered = 0usize;
                let mut oracle = 0usize;
                for c in free_counts {
                    if covered >= demand {
                        break;
                    }
                    covered += c;
                    oracle += 1;
                }
                let req = PlacementRequest {
                    job: JobId(job),
                    index: job as usize,
                    demand,
                    phase_gap: None,
                };
                let placed = placer.place(&req, &pool, &topo).unwrap();
                assert_eq!(
                    pods_spanned(&topo, &placed),
                    oracle,
                    "k={k} trial {trial} job {job}: demand {demand} not pod-minimal"
                );
                pool.claim(&placed);
            }
        }
    }
}

/// The placement axis is a sweep dimension: running one scenario per
/// policy serially and on four worker threads must produce byte-
/// identical completion digests (fixed placement — the closed loop).
#[test]
fn placement_axis_sweep_is_thread_invariant() {
    let cells = policies(7);
    let digest = |threads: usize| -> Vec<u64> {
        sweep_with(threads, &cells, |_, &policy| {
            let mut cfg = WorkloadConfig::default_mix(7, 3, 16);
            cfg.placement = policy;
            let topo = FatTree::new(4).with_oversubscription(4.0).build_fabric();
            let sc = Scenario::generate_on(&cfg, topo);
            let (run, _) = sc.run(SchedulerKind::Echelon, &FaultPlan::empty());
            completion_digest(&run)
        })
    };
    assert_eq!(
        digest(1),
        digest(4),
        "placement-axis digests diverged between 1 and 4 sweep threads"
    );
}

/// Admission-time placement preserves the open≡closed contract: for
/// every policy, the streamed service, its non-evicting reference and
/// that reference through `FullRecompute` land on bit-identical
/// completion digests.
#[test]
fn at_admission_streaming_matches_materialized_for_every_policy() {
    let topo = FatTree::new(4).build_fabric();
    for policy in policies(11) {
        let mut cfg = OpenLoopConfig::default_tiers(0x0BE7, 18, 16, 1.5);
        cfg.placement = ServicePlacement::AtAdmission(policy);
        let svc = ServiceConfig::default();
        let plan = FaultPlan::empty();
        let parts = |sm| service_parts(&topo, &cfg, &svc, SchedulerKind::Echelon, sm);
        let (feed, mut sched) = parts(ServiceMode::Streaming);
        let open = run_service(&topo, feed, &mut sched, &plan);
        let (feed, mut sched) = parts(ServiceMode::Materialized);
        let closed = run_service(&topo, feed, &mut sched, &plan);
        let (feed, mut replay) = parts(ServiceMode::Materialized);
        let replayed_full = run_service(&topo, feed, &mut FullRecompute(&mut replay), &plan);
        assert_eq!(
            open.digest,
            closed.digest,
            "{}: the evicting and the non-evicting runs diverged",
            policy.name()
        );
        assert_eq!(
            open.digest,
            replayed_full.digest,
            "{}: the reference through FullRecompute diverged",
            policy.name()
        );
        assert!(
            open.records.iter().all(|r| !r.hosts.is_empty()),
            "{}: an admitted job has no placement",
            policy.name()
        );
    }
}
