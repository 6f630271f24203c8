//! Property-based invariants across the whole stack.
//!
//! Random flow workloads are generated (seeded, via `echelon-detrand`, so
//! failures are exactly reproducible from the printed seed) and run under
//! every scheduler; whatever the policy does, the physics must hold:
//! bytes are conserved, capacities are never exceeded, nothing is starved
//! forever, runs are deterministic, and the superset relation between
//! EchelonFlow and Coflow survives arbitrary inputs.

use echelon_detrand::DetRng;
use echelonflow::core::arrangement::ArrangementFn;
use echelonflow::core::coflow::Coflow;
use echelonflow::core::echelon::{EchelonFlow, FlowRef};
use echelonflow::core::{EchelonId, JobId};
use echelonflow::sched::baselines::{FifoPolicy, SrptPolicy};
use echelonflow::sched::echelon::{EchelonMadd, InterOrder};
use echelonflow::simnet::flow::FlowDemand;
use echelonflow::simnet::fluid::{FluidNetwork, NextCompletionMode};
use echelonflow::simnet::ids::{FlowId, NodeId};
use echelonflow::simnet::runner::{run_flows, FlowOutcomes, MaxMinPolicy, RatePolicy, RunConfig};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;

const HOSTS: u32 = 4;
const CASES: u64 = 64;

/// Random demand sets: 1..8 flows between random distinct hosts.
fn random_demands(rng: &mut DetRng) -> Vec<FlowDemand> {
    let n = rng.usize_range_inclusive(1, 8);
    (0..n)
        .map(|i| {
            let src = rng.usize_range_inclusive(0, HOSTS as usize - 1) as u32;
            let dst_raw = rng.usize_range_inclusive(0, HOSTS as usize - 2) as u32;
            // Map dst into the hosts other than src.
            let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
            FlowDemand::new(
                FlowId(i as u64),
                NodeId(src),
                NodeId(dst),
                rng.f64_range(0.1, 4.0),
                SimTime::new(rng.f64_range(0.0, 3.0)),
            )
        })
        .collect()
}

/// Groups the first k flows into one EchelonFlow with a staggered
/// arrangement; the rest stay solo.
fn echelon_over(demands: &[FlowDemand]) -> Vec<EchelonFlow> {
    let k = demands.len().min(3);
    let flows: Vec<FlowRef> = demands[..k]
        .iter()
        .map(|d| FlowRef::new(d.id, d.src, d.dst, d.size))
        .collect();
    vec![EchelonFlow::from_flows(
        EchelonId(0),
        JobId(0),
        flows,
        ArrangementFn::Staggered { gap: 0.7 },
    )]
}

fn check_all_finished(demands: &[FlowDemand], out: &FlowOutcomes) {
    for d in demands {
        let c = out.completion(d.id).unwrap_or_else(|| {
            panic!("flow {} never finished", d.id);
        });
        // Finish after release.
        assert!(d.release.at_or_before(c.finish));
        // Trace conserves bytes.
        let delivered = out.trace().delivered_bytes(d.id);
        assert!(
            (delivered - d.size).abs() < 1e-6 * d.size.max(1.0),
            "flow {} delivered {delivered} of {}",
            d.id,
            d.size
        );
    }
}

/// Every policy finishes every flow and conserves bytes.
#[test]
fn all_policies_conserve_bytes() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let demands = random_demands(&mut rng);
        let topo = Topology::big_switch_uniform(HOSTS as usize, 1.0);
        let policies: Vec<Box<dyn RatePolicy>> = vec![
            Box::new(MaxMinPolicy),
            Box::new(FifoPolicy),
            Box::new(SrptPolicy),
            Box::new(EchelonMadd::new(vec![]).with_inter(InterOrder::LeastWork)),
            Box::new(EchelonMadd::new(echelon_over(&demands))),
        ];
        for mut p in policies {
            let out = run_flows(&topo, demands.clone(), p.as_mut(), &RunConfig::default());
            check_all_finished(&demands, &out);
        }
    }
}

/// Work conservation bound: no policy with backfill finishes later than
/// the per-resource load bound plus the last release.
#[test]
fn makespan_bounded_by_load() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let demands = random_demands(&mut rng);
        let topo = Topology::big_switch_uniform(HOSTS as usize, 1.0);
        let last_release = demands
            .iter()
            .map(|d| d.release.secs())
            .fold(0.0f64, f64::max);
        let total: f64 = demands.iter().map(|d| d.size).sum();
        // Crude upper bound: everything after the last release through
        // one unit-capacity resource.
        let bound = last_release + total + 1e-6;
        let mut policy = EchelonMadd::new(echelon_over(&demands));
        let out = run_flows(&topo, demands.clone(), &mut policy, &RunConfig::default());
        assert!(
            out.makespan().secs() <= bound,
            "seed {seed}: makespan {:?} above bound {bound}",
            out.makespan()
        );
    }
}

/// Determinism: identical inputs produce identical traces.
#[test]
fn runs_are_deterministic() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let demands = random_demands(&mut rng);
        let topo = Topology::big_switch_uniform(HOSTS as usize, 1.0);
        let mut p1 = EchelonMadd::new(echelon_over(&demands));
        let mut p2 = EchelonMadd::new(echelon_over(&demands));
        let a = run_flows(&topo, demands.clone(), &mut p1, &RunConfig::default());
        let b = run_flows(&topo, demands.clone(), &mut p2, &RunConfig::default());
        assert_eq!(a.trace().events(), b.trace().events(), "seed {seed}");
    }
}

/// Superset invariant (Property 2 under random inputs): any Coflow
/// instance declared as an EchelonFlow with the Coflow arrangement
/// (Eq. 5) and scheduled by the default EchelonFlow scheduler yields the
/// same CCT as the coflow scheduler (Varys/MADD: the coflow's one-stage
/// group ranked by SEBF, `InterOrder::LeastWork`).
#[test]
fn coflow_embedding_preserves_cct() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let demands = random_demands(&mut rng);
        let topo = Topology::big_switch_uniform(HOSTS as usize, 1.0);
        let flows: Vec<FlowRef> = demands
            .iter()
            .map(|d| FlowRef::new(d.id, d.src, d.dst, d.size))
            .collect();
        let coflow = Coflow::new(EchelonId(0), JobId(0), flows.clone());

        let mut varys = EchelonMadd::new(vec![coflow.into_echelon()])
            .with_inter(InterOrder::LeastWork)
            .with_backfill(false);
        let via_varys = run_flows(&topo, demands.clone(), &mut varys, &RunConfig::default());
        let h =
            EchelonFlow::from_flows(EchelonId(0), JobId(0), flows.clone(), ArrangementFn::Coflow);
        let mut echelon = EchelonMadd::new(vec![h]).with_backfill(false);
        let via_echelon = run_flows(&topo, demands.clone(), &mut echelon, &RunConfig::default());

        let cct = |out: &FlowOutcomes| {
            flows
                .iter()
                .map(|f| out.finish(f.id).unwrap())
                .fold(SimTime::ZERO, SimTime::max)
        };
        assert!(
            cct(&via_varys).approx_eq(cct(&via_echelon)),
            "seed {seed}: varys {:?} vs echelon {:?}",
            cct(&via_varys),
            cct(&via_echelon)
        );
    }
}

/// FP drift: remaining bytes never go negative, no matter how many tiny
/// advance steps chip away at a flow.  The network re-derives completion
/// from the due table instead of trusting accumulated subtractions, and
/// clamps `remaining` at zero; this drives that path hard under both
/// next-completion backends.
#[test]
fn remaining_bytes_never_negative_under_tiny_steps() {
    for mode in [NextCompletionMode::Scan, NextCompletionMode::Calendar] {
        for seed in 0..CASES {
            let mut rng = DetRng::seed_from_u64(seed);
            let demands = random_demands(&mut rng);
            let topo = Topology::big_switch_uniform(HOSTS as usize, 1.0);
            let mut net = FluidNetwork::with_next_completion(topo, mode);
            let mut pending = demands.clone();
            pending.sort_by(|a, b| a.release.partial_cmp(&b.release).unwrap());
            let mut released = 0usize;
            let mut finished = 0usize;

            for _step in 0..10_000 {
                while released < pending.len() && pending[released].release.at_or_before(net.now())
                {
                    net.release(&pending[released]);
                    released += 1;
                }
                if net.active_count() == 0 && released == pending.len() {
                    break;
                }
                // Equal split of unit capacity, deliberately irrational
                // fractions so remainders drift through many step sizes.
                let n = net.active_count().max(1) as f64;
                let rates: Vec<f64> = net.views().iter().map(|_| 1.0 / n).collect();
                net.set_rates_dense(&rates);
                let _ = net.take_delta();

                // Advance by a ragged fraction of the next event (or a
                // small hop toward the next release), often landing right
                // on the completion instant where drift would surface.
                let to_event = net.next_completion_in().unwrap_or(f64::INFINITY);
                let to_release = if released < pending.len() {
                    (pending[released].release.secs() - net.now().secs()).max(1e-6)
                } else {
                    f64::INFINITY
                };
                let horizon = to_event.min(to_release).min(0.5);
                let frac = rng.f64_range(0.05, 1.1);
                let dt = (horizon * frac).max(1e-9).min(to_event);
                let done = net.advance(dt);
                finished += done.len();

                for c in &done {
                    assert!(
                        c.release.at_or_before(c.finish),
                        "seed {seed} {mode:?}: {} finished before release",
                        c.id
                    );
                }
                for v in net.views() {
                    assert!(
                        v.remaining >= 0.0,
                        "seed {seed} {mode:?}: flow {} remaining {} < 0",
                        v.id,
                        v.remaining
                    );
                    assert!(
                        v.remaining <= v.size + 1e-9,
                        "seed {seed} {mode:?}: flow {} remaining {} above size {}",
                        v.id,
                        v.remaining,
                        v.size
                    );
                }
            }
            assert_eq!(
                finished,
                demands.len(),
                "seed {seed} {mode:?}: not all flows drained"
            );
        }
    }
}

/// SRPT never has a worse mean FCT than FIFO on a single shared link (the
/// classic scheduling fact, as a cross-check of the substrate).
#[test]
fn srpt_mean_fct_beats_fifo() {
    let config = RunConfig::default();
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let n = rng.usize_range_inclusive(2, 5);
        let topo = Topology::chain(2, 1.0);
        let demands: Vec<FlowDemand> = (0..n)
            .map(|i| {
                FlowDemand::new(
                    FlowId(i as u64),
                    NodeId(0),
                    NodeId(1),
                    rng.f64_range(0.1, 4.0),
                    SimTime::ZERO,
                )
            })
            .collect();
        let srpt = run_flows(&topo, demands.clone(), &mut SrptPolicy, &config);
        let fifo = run_flows(&topo, demands, &mut FifoPolicy, &config);
        assert!(
            srpt.mean_fct() <= fifo.mean_fct() + 1e-9,
            "seed {seed}: srpt {} vs fifo {}",
            srpt.mean_fct(),
            fifo.mean_fct()
        );
    }
}
