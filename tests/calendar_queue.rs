//! Lockstep proptest for the calendar next-completion backend.
//!
//! The calendar queue is an *accelerator*: it must answer exactly the
//! question the linear scan answers — which flow completes next, and in
//! how long — from the same per-slot due table, with the same tie-break
//! (smallest slot among equal dues).  This suite drives the two backends
//! in lockstep through seeded random scenarios (releases, heterogeneous
//! rate churn, capacity degradation and restore, ragged advances, flows
//! that arrive and depart within a single delta) and asserts the answers
//! are bitwise equal at every step.  A second axis runs whole scheduler
//! stacks under random fault plans and pins run-level bit-identity.

use echelon_detrand::DetRng;
use echelonflow::cluster::churn::{random_fault_plan, ChurnConfig};
use echelonflow::core::arrangement::ArrangementFn;
use echelonflow::core::coflow::Coflow;
use echelonflow::core::echelon::{EchelonFlow, FlowRef};
use echelonflow::core::{EchelonId, JobId};
use echelonflow::sched::baselines::SrptPolicy;
use echelonflow::sched::echelon::{EchelonMadd, InterOrder};
use echelonflow::simnet::flow::FlowDemand;
use echelonflow::simnet::fluid::{FluidNetwork, NextCompletionMode};
use echelonflow::simnet::ids::{FlowId, NodeId, ResourceId};
use echelonflow::simnet::runner::{run_flows, FullRecompute, MaxMinPolicy, RatePolicy, RunConfig};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;

const HOSTS: usize = 5;
const CASES: u64 = 48;

/// One lockstep step on both networks: apply the same mutation, then
/// assert the two backends answer next-completion identically (flow id
/// AND dt, compared as bits).
fn assert_lockstep(seed: u64, step: usize, scan: &mut FluidNetwork, cal: &mut FluidNetwork) {
    let a = scan.next_completion();
    let b = cal.next_completion();
    match (a, b) {
        (None, None) => {}
        (Some((ia, da)), Some((ib, db))) => {
            assert_eq!(
                ia, ib,
                "seed {seed} step {step}: backends pick different flows"
            );
            assert_eq!(
                da.to_bits(),
                db.to_bits(),
                "seed {seed} step {step}: dt diverged, scan {da} vs calendar {db}"
            );
        }
        (a, b) => panic!("seed {seed} step {step}: scan {a:?} vs calendar {b:?}"),
    }
    assert_eq!(
        scan.next_completion_in().map(f64::to_bits),
        cal.next_completion_in().map(f64::to_bits),
        "seed {seed} step {step}: next_completion_in diverged"
    );
}

/// Scan and calendar backends agree on every next-completion answer
/// through random releases, per-flow rate churn, capacity degradation
/// and restore, and ragged advances — including tiny flows that arrive
/// and fully depart between two delta drains.
#[test]
fn lockstep_next_completion_matches_scan() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let topo = Topology::big_switch_uniform(HOSTS, 1.0);
        let nres = topo.num_resources();
        let mut scan = FluidNetwork::with_next_completion(topo.clone(), NextCompletionMode::Scan);
        let mut cal = FluidNetwork::with_next_completion(topo, NextCompletionMode::Calendar);

        let mut next_id = 0u64;
        let mut degraded: Vec<u32> = Vec::new();
        for step in 0..400 {
            let roll = rng.usize_range_inclusive(0, 9);
            match roll {
                // Release a flow at the current time.  Sizes span three
                // orders of magnitude so slivers regularly arrive and
                // drain inside one delta window.
                0..=3 => {
                    let src = rng.usize_range_inclusive(0, HOSTS - 1) as u32;
                    let dst_raw = rng.usize_range_inclusive(0, HOSTS - 2) as u32;
                    let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
                    let d = FlowDemand::new(
                        FlowId(next_id),
                        NodeId(src),
                        NodeId(dst),
                        rng.f64_range(0.001, 2.0),
                        scan.now(),
                    );
                    next_id += 1;
                    scan.release(&d);
                    cal.release(&d);
                }
                // Degrade a random link, or restore one we degraded.
                4 => {
                    let r = ResourceId(rng.usize_range_inclusive(0, nres - 1) as u32);
                    let factor = rng.f64_range(0.5, 0.95);
                    scan.apply_capacity_factor(r, factor);
                    cal.apply_capacity_factor(r, factor);
                    degraded.push(r.0);
                }
                5 => {
                    if let Some(r) = degraded.pop() {
                        scan.apply_capacity_factor(ResourceId(r), 1.0);
                        cal.apply_capacity_factor(ResourceId(r), 1.0);
                    }
                }
                // Drain the delta on both sides (arrive+depart pairs in
                // the same window collapse here).
                6 => {
                    let _ = scan.take_delta();
                    let _ = cal.take_delta();
                }
                // Re-rate everything and advance a ragged fraction of
                // the next event.
                _ => {
                    let n = scan.active_count();
                    if n == 0 {
                        continue;
                    }
                    // Any per-port sum is at most n * 0.45/n < 0.5, the
                    // worst degraded capacity, so rates stay feasible.
                    let rates: Vec<f64> = (0..n)
                        .map(|_| rng.f64_range(0.01, 0.45) / n as f64)
                        .collect();
                    scan.set_rates_dense(&rates);
                    cal.set_rates_dense(&rates);
                    assert_lockstep(seed, step, &mut scan, &mut cal);
                    if let Some(dt) = scan.next_completion_in() {
                        let frac = rng.f64_range(0.1, 1.0);
                        let adv = (dt * frac).max(1e-9).min(dt);
                        let done_s = scan.advance(adv);
                        let done_c = cal.advance(adv);
                        assert_eq!(done_s, done_c, "seed {seed} step {step}: completions");
                    }
                }
            }
            assert_lockstep(seed, step, &mut scan, &mut cal);
        }
        assert_eq!(scan.active_count(), cal.active_count(), "seed {seed}");
        for (a, b) in scan.views().iter().zip(cal.views()) {
            assert_eq!(a.id, b.id, "seed {seed}: terminal views diverged");
            assert_eq!(
                a.remaining.to_bits(),
                b.remaining.to_bits(),
                "seed {seed}: flow {} remaining diverged",
                a.id
            );
        }
    }
}

fn random_demands(rng: &mut DetRng) -> Vec<FlowDemand> {
    let n = rng.usize_range_inclusive(2, 14);
    (0..n)
        .map(|i| {
            let src = rng.usize_range_inclusive(0, HOSTS - 1) as u32;
            let dst_raw = rng.usize_range_inclusive(0, HOSTS - 2) as u32;
            let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
            FlowDemand::new(
                FlowId(i as u64),
                NodeId(src),
                NodeId(dst),
                rng.f64_range(0.05, 3.0),
                SimTime::new(rng.f64_range(0.0, 2.0)),
            )
        })
        .collect()
}

fn grouped(demands: &[FlowDemand]) -> (Vec<EchelonFlow>, Vec<Coflow>) {
    let refs: Vec<FlowRef> = demands
        .iter()
        .take(4)
        .map(|d| FlowRef::new(d.id, d.src, d.dst, d.size))
        .collect();
    (
        vec![EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            refs.clone(),
            ArrangementFn::Staggered { gap: 0.5 },
        )],
        vec![Coflow::new(EchelonId(0), JobId(0), refs)],
    )
}

/// Run-level axis: random scenario × scheduler × random fault plan must
/// produce bit-identical traces and completions under both backends,
/// plain and through `FullRecompute`.
#[test]
fn schedulers_and_fault_plans_agree_across_backends() {
    for seed in 0..16 {
        let mut rng = DetRng::seed_from_u64(seed ^ 0xCA1E);
        let demands = random_demands(&mut rng);
        let topo = Topology::big_switch_uniform(HOSTS, 1.0);
        let plan = random_fault_plan(seed, &topo, &ChurnConfig::default());
        let (echelons, coflows) = grouped(&demands);

        type PolicyCtor = Box<dyn Fn() -> Box<dyn RatePolicy>>;
        let mk: Vec<(&str, PolicyCtor)> = vec![
            ("maxmin", Box::new(|| Box::new(MaxMinPolicy))),
            ("srpt", Box::new(|| Box::new(SrptPolicy))),
            (
                "echelon-madd",
                Box::new(move || Box::new(EchelonMadd::new(echelons.clone()))),
            ),
            (
                "coflow",
                Box::new(move || {
                    let coflows = coflows.iter().cloned().map(Coflow::into_echelon);
                    Box::new(EchelonMadd::new(coflows.collect()).with_inter(InterOrder::LeastWork))
                }),
            ),
        ];
        for (label, make) in &mk {
            for full in [true, false] {
                let run = |nc: NextCompletionMode| {
                    let mut p = if full {
                        Box::new(FullRecompute(make()))
                    } else {
                        make()
                    };
                    let mut config = RunConfig::from(plan.clone());
                    config.drive.next_completion = nc;
                    run_flows(&topo, demands.clone(), p.as_mut(), &config)
                };
                let scan = run(NextCompletionMode::Scan);
                let calendar = run(NextCompletionMode::Calendar);
                assert_eq!(
                    scan.trace().events(),
                    calendar.trace().events(),
                    "{label} full {full} seed {seed}: traces diverged"
                );
                assert_eq!(
                    scan.completions(),
                    calendar.completions(),
                    "{label} full {full} seed {seed}: completions diverged"
                );
            }
        }
    }
}
