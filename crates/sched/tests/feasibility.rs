//! Property tests: every scheduler's allocation is feasible on random
//! inputs, on both topology families, with arbitrary group structures.
//!
//! Inputs are generated from seeded `echelon-detrand` streams so every
//! failure is reproducible from the printed seed.

use echelon_core::arrangement::ArrangementFn;
use echelon_core::coflow::Coflow;
use echelon_core::echelon::{EchelonFlow, FlowRef};
use echelon_core::{EchelonId, JobId};
use echelon_detrand::DetRng;
use echelon_sched::baselines::{FifoPolicy, SrptPolicy};
use echelon_sched::echelon::{EchelonMadd, InterOrder, IntraMode};
use echelon_simnet::alloc::{check_feasible_dense, AllocScratch};
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::runner::{MaxMinPolicy, RatePolicy};
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;

const HOSTS: u32 = 5;
const CASES: u64 = 48;

#[derive(Debug, Clone)]
struct RawFlow {
    src: u32,
    dst_raw: u32,
    size: f64,
    progress: f64,
    release: f64,
}

fn raw_flows(rng: &mut DetRng) -> Vec<RawFlow> {
    let n = rng.usize_range_inclusive(1, 12);
    (0..n)
        .map(|_| RawFlow {
            src: rng.usize_range_inclusive(0, HOSTS as usize - 1) as u32,
            dst_raw: rng.usize_range_inclusive(0, HOSTS as usize - 2) as u32,
            size: rng.f64_range(0.1, 5.0),
            progress: rng.f64_range(0.01, 1.0),
            release: rng.f64_range(0.0, 4.0),
        })
        .collect()
}

fn views(raw: &[RawFlow], topo: &Topology) -> Vec<ActiveFlowView> {
    raw.iter()
        .enumerate()
        .map(|(i, r)| {
            let dst = if r.dst_raw >= r.src {
                r.dst_raw + 1
            } else {
                r.dst_raw
            };
            ActiveFlowView {
                id: FlowId(i as u64),
                src: NodeId(r.src),
                dst: NodeId(dst),
                size: r.size,
                remaining: (r.size * r.progress).max(1e-6),
                release: SimTime::new(r.release),
                route: topo.route(NodeId(r.src), NodeId(dst)),
                slot: i as u32,
            }
        })
        .collect()
}

/// Groups the flows alternately into two EchelonFlows (one staggered, one
/// coflow-shaped); leftover flows stay solo.
fn group(views: &[ActiveFlowView]) -> (Vec<EchelonFlow>, Vec<Coflow>) {
    let refs = |idx: &mut dyn Iterator<Item = usize>| -> Vec<FlowRef> {
        idx.map(|i| {
            let v = &views[i];
            FlowRef::new(v.id, v.src, v.dst, v.size)
        })
        .collect()
    };
    let mut echelons = Vec::new();
    let mut coflows = Vec::new();
    let staggered = refs(&mut (0..views.len()).step_by(3));
    if !staggered.is_empty() {
        echelons.push(EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            staggered.clone(),
            ArrangementFn::Staggered { gap: 0.4 },
        ));
        coflows.push(Coflow::new(EchelonId(0), JobId(0), staggered));
    }
    let grouped = refs(&mut (0..views.len()).skip(1).step_by(3));
    if !grouped.is_empty() {
        echelons.push(EchelonFlow::new(
            EchelonId(1),
            JobId(1),
            vec![grouped.clone()],
            ArrangementFn::Coflow,
        ));
        coflows.push(Coflow::new(EchelonId(1), JobId(1), grouped));
    }
    (echelons, coflows)
}

/// The policy's dense full recompute at t = 5.
fn rates(policy: &mut dyn RatePolicy, flows: &[ActiveFlowView], topo: &Topology) -> Vec<f64> {
    let mut out = Vec::new();
    policy.allocate_dense(
        SimTime::new(5.0),
        flows,
        topo,
        &mut AllocScratch::new(),
        &mut out,
    );
    assert_eq!(out.len(), flows.len(), "{} misaligned", policy.name());
    out
}

fn check_policy(policy: &mut dyn RatePolicy, flows: &[ActiveFlowView], topo: &Topology) {
    let alloc = rates(policy, flows, topo);
    check_feasible_dense(topo, flows, &alloc, &mut Vec::new())
        .unwrap_or_else(|e| panic!("{} infeasible: {e}", policy.name()));
    // No flow is starved forever when capacity is free: at least one
    // active flow must have positive rate.
    if !flows.is_empty() {
        let total: f64 = alloc.iter().sum();
        assert!(total > 0.0, "{} starved everything", policy.name());
    }
}

#[test]
fn all_schedulers_feasible_on_big_switch() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let raw = raw_flows(&mut rng);
        let topo = Topology::big_switch_uniform(HOSTS as usize, 1.0);
        let flows = views(&raw, &topo);
        let (echelons, coflows) = group(&flows);

        check_policy(&mut MaxMinPolicy, &flows, &topo);
        check_policy(&mut FifoPolicy, &flows, &topo);
        check_policy(&mut SrptPolicy, &flows, &topo);
        for inter in [InterOrder::LeastWork, InterOrder::Bssi] {
            let coflows = coflows.iter().cloned().map(Coflow::into_echelon);
            let mut p = EchelonMadd::new(coflows.collect()).with_inter(inter);
            check_policy(&mut p, &flows, &topo);
        }
        for inter in [
            InterOrder::EarliestDeadline,
            InterOrder::LeastWork,
            InterOrder::MostTardy,
            InterOrder::Bssi,
        ] {
            for intra in [IntraMode::FinishEarly, IntraMode::Equalize] {
                let mut p = EchelonMadd::new(echelons.clone())
                    .with_inter(inter)
                    .with_intra(intra);
                check_policy(&mut p, &flows, &topo);
            }
        }
    }
}

#[test]
fn all_schedulers_feasible_on_chain() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let raw = raw_flows(&mut rng);
        let topo = Topology::chain(HOSTS as usize, 0.7);
        let flows = views(&raw, &topo);
        let (echelons, coflows) = group(&flows);
        let coflows = coflows.into_iter().map(Coflow::into_echelon).collect();
        let mut varys = EchelonMadd::new(coflows).with_inter(InterOrder::LeastWork);
        check_policy(&mut varys, &flows, &topo);
        let mut echelon = EchelonMadd::new(echelons);
        check_policy(&mut echelon, &flows, &topo);
    }
}

#[test]
fn backfill_never_reduces_rates() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let raw = raw_flows(&mut rng);
        let topo = Topology::big_switch_uniform(HOSTS as usize, 1.0);
        let flows = views(&raw, &topo);
        let (echelons, _) = group(&flows);
        let mut with = EchelonMadd::new(echelons.clone());
        let mut without = EchelonMadd::new(echelons).with_backfill(false);
        let a = rates(&mut with, &flows, &topo);
        let b = rates(&mut without, &flows, &topo);
        for (v, (&ra, &rb)) in flows.iter().zip(a.iter().zip(&b)) {
            assert!(
                ra + 1e-9 >= rb,
                "seed {seed}: backfill reduced {} from {rb} to {ra}",
                v.id
            );
        }
    }
}
