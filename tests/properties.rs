//! Experiments E6-E8 — the paper's formal properties, validated
//! empirically (§3.3).
//!
//! - **Property 1**: EchelonFlow scheduling minimizes completion times of
//!   popular DDLT paradigms — checked against the brute-force optimal
//!   permutation schedule on small instances.
//! - **Property 2**: EchelonFlow ⊇ Coflow — scheduling a Coflow as a
//!   degenerate EchelonFlow yields the same completion times as Varys.
//! - **Property 4**: Coflow algorithms adapt at the same complexity —
//!   the adapted scheduler produces the same group-level metrics on
//!   Coflow-compliant inputs.

use echelonflow::core::arrangement::ArrangementFn;
use echelonflow::core::coflow::Coflow;
use echelonflow::core::echelon::{EchelonFlow, FlowRef};
use echelonflow::core::{EchelonId, JobId};
use echelonflow::sched::echelon::{EchelonMadd, InterOrder};
use echelonflow::sched::optimal::{optimal_schedule, Objective};
use echelonflow::simnet::flow::FlowDemand;
use echelonflow::simnet::ids::{FlowId, NodeId};
use echelonflow::simnet::runner::{run_flows, RunConfig};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;
use std::collections::BTreeMap;

fn fr(id: u64, src: u32, dst: u32, size: f64) -> FlowRef {
    FlowRef::new(FlowId(id), NodeId(src), NodeId(dst), size)
}

fn demand(id: u64, src: u32, dst: u32, size: f64, release: f64) -> FlowDemand {
    FlowDemand::new(
        FlowId(id),
        NodeId(src),
        NodeId(dst),
        size,
        SimTime::new(release),
    )
}

/// Property 1 on the Fig. 2 (pipeline) instance: EchelonMadd achieves the
/// optimal maximum tardiness (= 4) found by exhaustive search.
#[test]
fn property1_pipeline_matches_optimal_max_tardiness() {
    let topo = Topology::chain(2, 1.0);
    let demands = vec![
        demand(0, 0, 1, 2.0, 1.0),
        demand(1, 0, 1, 2.0, 2.0),
        demand(2, 0, 1, 2.0, 3.0),
    ];
    let deadlines: BTreeMap<FlowId, SimTime> = [(0u64, 1.0), (1, 2.0), (2, 3.0)]
        .into_iter()
        .map(|(id, t)| (FlowId(id), SimTime::new(t)))
        .collect();
    let objective = Objective::MaxTardiness(deadlines.clone());
    let best = optimal_schedule(&topo, &demands, &objective);

    let h = EchelonFlow::from_flows(
        EchelonId(0),
        JobId(0),
        vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
        ArrangementFn::Staggered { gap: 1.0 },
    );
    let mut policy = EchelonMadd::new(vec![h]);
    let out = run_flows(&topo, demands, &mut policy, &RunConfig::default());
    let achieved = deadlines
        .iter()
        .map(|(id, d)| out.finish(*id).unwrap() - *d)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        (achieved - best.best_value).abs() < 1e-9,
        "echelon {achieved} vs optimal {}",
        best.best_value
    );
}

/// Property 1 on a Coflow-shaped (DP-like) instance: EchelonMadd achieves
/// the optimal makespan for a single gradient-sync group.
#[test]
fn property1_coflow_instance_matches_optimal_makespan() {
    let topo = Topology::big_switch_uniform(4, 1.0);
    // A 4-worker star of gradient pushes (PS-like), all released at 0.
    let demands = vec![
        demand(0, 0, 3, 1.5, 0.0),
        demand(1, 1, 3, 1.0, 0.0),
        demand(2, 2, 3, 0.5, 0.0),
    ];
    let best = optimal_schedule(&topo, &demands, &Objective::Makespan);

    let h = EchelonFlow::new(
        EchelonId(0),
        JobId(0),
        vec![vec![fr(0, 0, 3, 1.5), fr(1, 1, 3, 1.0), fr(2, 2, 3, 0.5)]],
        ArrangementFn::Coflow,
    );
    let mut policy = EchelonMadd::new(vec![h]);
    let out = run_flows(&topo, demands, &mut policy, &RunConfig::default());
    assert!(
        (out.makespan().secs() - best.best_value).abs() < 1e-9,
        "echelon {} vs optimal {}",
        out.makespan().secs(),
        best.best_value
    );
}

/// Property 2: a Coflow declared as an EchelonFlow with the Coflow
/// arrangement (Eq. 5) and scheduled by the default EchelonFlow
/// scheduler finishes every flow at the same time as the coflow
/// scheduler (Varys/MADD: the coflow's one-stage group under SEBF), and
/// both show MADD's signature: every flow finishes with the coflow.
#[test]
fn property2_coflow_embedding_matches_varys() {
    let topo = Topology::big_switch_uniform(4, 1.0);
    let flows = vec![fr(0, 0, 3, 2.0), fr(1, 1, 3, 1.0), fr(2, 2, 0, 1.5)];
    let demands = vec![
        demand(0, 0, 3, 2.0, 0.0),
        demand(1, 1, 3, 1.0, 0.5),
        demand(2, 2, 0, 1.5, 1.0),
    ];

    let coflow = Coflow::new(EchelonId(0), JobId(0), flows.clone());
    let mut varys = EchelonMadd::new(vec![coflow.into_echelon()])
        .with_inter(InterOrder::LeastWork)
        .with_backfill(false);
    let via_varys = run_flows(&topo, demands.clone(), &mut varys, &RunConfig::default());

    let h = EchelonFlow::from_flows(EchelonId(0), JobId(0), flows.clone(), ArrangementFn::Coflow);
    let mut echelon = EchelonMadd::new(vec![h]).with_backfill(false);
    let via_echelon = run_flows(&topo, demands, &mut echelon, &RunConfig::default());

    // From t = 1 the coflow's bottleneck is host 3's ingress, holding
    // 1.2 + 0.8 bytes, so Γ = 2 and every flow finishes at 3.
    for f in &flows {
        let finish = via_varys.finish(f.id).unwrap();
        assert!(
            finish.approx_eq(SimTime::new(3.0)),
            "flow {} at {finish:?}",
            f.id
        );
        assert!(
            finish.approx_eq(via_echelon.finish(f.id).unwrap()),
            "flow {} differs: varys {:?} echelon {:?}",
            f.id,
            finish,
            via_echelon.finish(f.id)
        );
    }
}

/// Property 4: on a workload of several Coflow-compliant groups, the
/// adapted algorithm (the MADD engine with least-work ordering — the SEBF
/// analog) reproduces Varys' per-group completion times, derived here by
/// hand. SEBF serves group 0 first (isolation Γ 2 against 5): MADD gives
/// its flows 0.5 each, so it completes at 2. Group 1 gets the residual,
/// rates 0.5 and 1/3 (Γ = 6 on host 0's egress); at t = 2 it holds 2 and
/// 4/3 bytes into host 2, so it completes at 2 + 10/3.
#[test]
fn property4_metric_swap_preserves_group_completions() {
    let topo = Topology::big_switch_uniform(4, 1.0);
    let groups = vec![
        (EchelonId(0), vec![fr(0, 0, 3, 1.0), fr(1, 1, 3, 1.0)], 2.0),
        (
            EchelonId(1),
            vec![fr(10, 0, 2, 3.0), fr(11, 1, 2, 2.0)],
            2.0 + 10.0 / 3.0,
        ),
    ];
    let demands = vec![
        demand(0, 0, 3, 1.0, 0.0),
        demand(1, 1, 3, 1.0, 0.0),
        demand(10, 0, 2, 3.0, 0.0),
        demand(11, 1, 2, 2.0, 0.0),
    ];

    let echelons: Vec<EchelonFlow> = groups
        .iter()
        .map(|(id, flows, _)| Coflow::new(*id, JobId(0), flows.clone()).into_echelon())
        .collect();
    let mut echelon = EchelonMadd::new(echelons)
        .with_inter(InterOrder::LeastWork)
        .with_backfill(false);
    let out = run_flows(&topo, demands, &mut echelon, &RunConfig::default());

    // Group-level metric: the completion time of each group (its last
    // flow).
    for (id, flows, varys) in &groups {
        let cct = flows
            .iter()
            .map(|f| out.finish(f.id).unwrap())
            .fold(SimTime::ZERO, SimTime::max);
        assert!(
            cct.approx_eq(SimTime::new(*varys)),
            "group {id}: {cct:?}, Varys {varys}"
        );
    }
}

/// Property 3 is theoretical (NP-hardness); its practical face is that
/// the exhaustive search space grows factorially while the heuristic
/// stays polynomial — sanity-check the search size here.
#[test]
fn property3_search_space_grows_factorially() {
    let topo = Topology::chain(2, 1.0);
    for n in 2..=5u64 {
        let demands: Vec<FlowDemand> = (0..n).map(|i| demand(i, 0, 1, 1.0, 0.0)).collect();
        let res = optimal_schedule(&topo, &demands, &Objective::Makespan);
        let expected: usize = (1..=n as usize).product();
        assert_eq!(res.evaluated, expected);
    }
}

mod dense_allocation {
    //! The dense allocation core: `Vec<f64>` rates indexed like the
    //! id-sorted flow table. A scratch workspace reused across random
    //! topologies, demand sets, weights and floors must give **bit-for-bit**
    //! the rates a fresh workspace gives (the reuse is the point — a stale
    //! buffer would corrupt later rounds silently), and the map edge must
    //! carry a dense answer without loss.

    use echelon_detrand::DetRng;
    use echelonflow::simnet::alloc::{
        alloc_via_dense, check_feasible_dense, priority_fill_dense, waterfill_dense, AllocScratch,
    };
    use echelonflow::simnet::flow::ActiveFlowView;
    use echelonflow::simnet::ids::{FlowId, NodeId};
    use echelonflow::simnet::time::SimTime;
    use echelonflow::simnet::topology::Topology;

    fn random_topology(rng: &mut DetRng) -> Topology {
        let hosts = rng.usize_range_inclusive(3, 8);
        let cap = rng.f64_range(0.5, 3.0);
        if rng.next_f64() < 0.5 {
            Topology::chain(hosts, cap)
        } else {
            Topology::big_switch_uniform(hosts, cap)
        }
    }

    /// Random id-sorted active set over the topology's hosts.
    fn random_views(rng: &mut DetRng, topo: &Topology, hosts: usize) -> Vec<ActiveFlowView> {
        let n = rng.usize_range_inclusive(1, 12);
        (0..n)
            .map(|i| {
                let src = rng.usize_range_inclusive(0, hosts - 1);
                let mut dst = rng.usize_range_inclusive(0, hosts - 2);
                if dst >= src {
                    dst += 1;
                }
                let size = rng.f64_range(0.5, 4.0);
                ActiveFlowView {
                    id: FlowId(i as u64),
                    src: NodeId(src as u32),
                    dst: NodeId(dst as u32),
                    size,
                    remaining: size * rng.f64_range(0.1, 1.0),
                    release: SimTime::new(rng.f64_range(0.0, 2.0)),
                    route: topo.route(NodeId(src as u32), NodeId(dst as u32)),
                    slot: i as u32,
                }
            })
            .collect()
    }

    fn hosts_of(topo: &Topology) -> usize {
        // Both generators above use `hosts` nodes numbered from 0; recover
        // the count from the number of host-level resources (chain and big
        // switch both expose 2 per host: ingress + egress).
        topo.num_resources() / 2
    }

    /// A random priority permutation of the flow ids.
    fn random_order(rng: &mut DetRng, views: &[ActiveFlowView]) -> Vec<FlowId> {
        let mut order: Vec<FlowId> = views.iter().map(|v| v.id).collect();
        for i in (1..order.len()).rev() {
            let j = rng.usize_range_inclusive(0, i);
            order.swap(i, j);
        }
        order
    }

    fn assert_bitwise(seed: u64, reused: &[f64], fresh: &[f64]) {
        assert_eq!(reused.len(), fresh.len());
        for (i, (a, b)) in reused.iter().zip(fresh).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "seed {seed}: flow {i} reused scratch {a} vs fresh {b}"
            );
        }
    }

    #[test]
    fn dense_waterfill_reused_scratch_agrees_with_fresh_bitwise() {
        let mut ws = AllocScratch::new(); // reused across every fill
        let (mut weighted, mut floored) = (0usize, 0usize);
        for seed in 0..40u64 {
            let mut rng = DetRng::seed_from_u64(0xDE45E + seed);
            let topo = random_topology(&mut rng);
            let views = random_views(&mut rng, &topo, hosts_of(&topo));

            // Random weights on a subset of flows, and a feasible floor:
            // a random priority fill, each rate scaled down (or dropped),
            // the way MADD rates floor the backfill.
            let weights: Vec<f64> = views
                .iter()
                .map(|_| {
                    if rng.next_f64() < 0.4 {
                        rng.f64_range(0.5, 3.0)
                    } else {
                        1.0
                    }
                })
                .collect();
            weighted += weights.iter().filter(|&&w| w != 1.0).count();
            let order = random_order(&mut rng, &views);
            let mut floor = vec![0.0; views.len()];
            priority_fill_dense(&topo, &views, &order, &mut floor, &mut ws);
            for rate in &mut floor {
                *rate *= if rng.next_f64() < 0.5 {
                    rng.f64_range(0.0, 1.0)
                } else {
                    0.0
                };
            }
            floored += floor.iter().filter(|&&r| r > 0.0).count();

            let mut reused = floor.clone();
            waterfill_dense(&topo, &views, Some(&weights), &mut reused, &mut ws);
            let mut fresh = floor.clone();
            waterfill_dense(
                &topo,
                &views,
                Some(&weights),
                &mut fresh,
                &mut AllocScratch::new(),
            );
            assert_bitwise(seed, &reused, &fresh);
            assert!(check_feasible_dense(&topo, &views, &reused, &mut Vec::new()).is_ok());
            for (&r, &f) in reused.iter().zip(&floor) {
                assert!(r >= f, "seed {seed}: the fill lowered a floor");
            }
        }
        // Non-vacuity: both knobs were exercised.
        assert!(
            weighted > 0 && floored > 0,
            "{weighted} weighted, {floored} floored"
        );
    }

    #[test]
    fn dense_priority_fill_reused_scratch_agrees_with_fresh_bitwise() {
        let mut ws = AllocScratch::new();
        for seed in 0..40u64 {
            let mut rng = DetRng::seed_from_u64(0xF111 + seed);
            let topo = random_topology(&mut rng);
            let views = random_views(&mut rng, &topo, hosts_of(&topo));
            let order = random_order(&mut rng, &views);

            let mut reused = vec![f64::NAN; views.len()];
            priority_fill_dense(&topo, &views, &order, &mut reused, &mut ws);
            let mut fresh = vec![0.0; views.len()];
            priority_fill_dense(&topo, &views, &order, &mut fresh, &mut AllocScratch::new());
            assert_bitwise(seed, &reused, &fresh);
            assert!(check_feasible_dense(&topo, &views, &reused, &mut Vec::new()).is_ok());
        }
    }

    /// Dense rates through the map edge (`alloc_via_dense`, the trait's
    /// provided map entry points) and back by id: nothing is lost.
    #[test]
    fn dense_map_round_trip_is_lossless() {
        for seed in 0..20u64 {
            let mut rng = DetRng::seed_from_u64(0x2071 + seed);
            let topo = random_topology(&mut rng);
            let views = random_views(&mut rng, &topo, hosts_of(&topo));
            let dense: Vec<f64> = views.iter().map(|_| rng.f64_range(0.0, 2.0)).collect();
            let alloc = alloc_via_dense(&views, |_, out| out.extend_from_slice(&dense));
            assert_eq!(alloc.len(), views.len(), "seed {seed}: map lost a flow");
            let back: Vec<f64> = views.iter().map(|v| alloc[&v.id]).collect();
            assert_bitwise(seed, &back, &dense);
        }
    }
}

mod madd_cache {
    //! The MADD engine's delta-patched member cache
    //! (`sched::echelon::EchelonMadd`), fed random `FlowDelta` sequences,
    //! must allocate bitwise like a fresh engine's full recompute after
    //! every drain — including after a drain it never received.

    use echelon_detrand::DetRng;
    use echelonflow::sched::echelon::{EchelonMadd, InterOrder};
    use echelonflow::simnet::alloc::AllocScratch;
    use echelonflow::simnet::flow::ActiveFlowView;
    use echelonflow::simnet::fluid::FlowDelta;
    use echelonflow::simnet::ids::{FlowId, NodeId};
    use echelonflow::simnet::runner::RatePolicy;
    use echelonflow::simnet::time::SimTime;
    use echelonflow::simnet::topology::Topology;

    fn view(
        id: u64,
        hosts: usize,
        topo: &Topology,
        now: SimTime,
        rng: &mut DetRng,
    ) -> ActiveFlowView {
        let src = rng.usize_range_inclusive(0, hosts - 1);
        let mut dst = rng.usize_range_inclusive(0, hosts - 2);
        if dst >= src {
            dst += 1;
        }
        let size = rng.f64_range(0.5, 4.0);
        ActiveFlowView {
            id: FlowId(id),
            src: NodeId(src as u32),
            dst: NodeId(dst as u32),
            size,
            remaining: size,
            release: now,
            route: topo.route(NodeId(src as u32), NodeId(dst as u32)),
            slot: id as u32,
        }
    }

    /// Random arrive/depart churn, including the two tolerated edge
    /// cases: a flow that arrives and departs within the same drain
    /// (reported in `arrived` but absent from the active slice) and a
    /// departure for a flow the engine never held. A second stream
    /// withholds about one drain in ten from the engine, which must
    /// notice and rebuild.
    #[test]
    fn incremental_cache_matches_a_fresh_full_recompute() {
        let engines: [fn() -> Box<dyn RatePolicy>; 3] = [
            || Box::new(EchelonMadd::new(vec![])),
            || Box::new(EchelonMadd::new(vec![]).with_inter(InterOrder::LeastWork)),
            || Box::new(EchelonMadd::new(vec![]).with_inter(InterOrder::MostTardy)),
        ];
        for seed in 0..25u64 {
            let mut rng = DetRng::seed_from_u64(0x11D3 + seed);
            let mut withhold = DetRng::seed_from_u64(0x5EED + seed);
            let hosts = rng.usize_range_inclusive(3, 8);
            let topo = if rng.next_f64() < 0.5 {
                Topology::chain(hosts, 1.0)
            } else {
                Topology::big_switch_uniform(hosts, 1.0)
            };
            let make = engines[seed as usize % engines.len()];
            let mut engine = make();
            let mut ws = AllocScratch::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut active: Vec<ActiveFlowView> = Vec::new();
            let mut next_id = 0u64;
            for step in 0..60 {
                let now = SimTime::new(0.25 * step as f64);
                let mut delta = FlowDelta::default();
                for _ in 0..rng.usize_range_inclusive(0, 3) {
                    let v = view(next_id, hosts, &topo, now, &mut rng);
                    delta.arrived.push(v.id);
                    active.push(v);
                    next_id += 1;
                }
                if rng.next_f64() < 0.2 {
                    // Arrived and departed within the same drain: the id is
                    // reported but never joins the active slice.
                    delta.arrived.push(FlowId(next_id));
                    delta.departed.push(FlowId(next_id));
                    next_id += 1;
                }
                while !active.is_empty() && rng.next_f64() < 0.3 {
                    let i = rng.usize_range_inclusive(0, active.len() - 1);
                    delta.departed.push(active.remove(i).id);
                }
                active.sort_by_key(|v| v.id);
                if withhold.next_f64() < 0.1 {
                    continue; // the engine never sees this drain
                }
                engine.allocate_dense_incremental(now, &active, &delta, &topo, &mut ws, &mut got);
                make().allocate_dense(now, &active, &topo, &mut AllocScratch::new(), &mut want);
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "seed {seed} step {step} ({}): cached allocation differs from a fresh one",
                    engine.name()
                );
            }
        }
    }
}
