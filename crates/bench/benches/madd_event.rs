//! Single-event MADD reallocation microbench: the cost of one scheduler
//! invocation at 64/512/4096 active flows, on a fat-tree (k = 8, 128
//! hosts, multi-hop routes) and on a big switch (128 hosts, two-hop
//! routes).
//!
//! Each scheduler runs the warmed `EchelonMadd::allocate_cached`: the
//! link-indexed cache is consistent, so the event runs entirely out of
//! the flat CSR/`LinkLoad` workspaces with no per-event heap allocation.
//! Varys is the same engine under a coflow ranking. A full recompute is
//! this path after a cache rebuild; the differential suites pin the two
//! bit for bit.
//!
//! Plain `main()` harness (`harness = false`): run with
//! `cargo bench --bench madd_event`.

use echelon_bench::timing::run;
use echelon_core::arrangement::ArrangementFn;
use echelon_core::coflow::Coflow;
use echelon_core::echelon::{EchelonFlow, FlowRef};
use echelon_core::{EchelonId, JobId};
use echelon_sched::echelon::EchelonMadd;
use echelon_sched::varys::VarysMadd;
use echelon_simnet::alloc::AllocScratch;
use echelon_simnet::fattree::FatTree;
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;

const HOSTS: usize = 128;
const FLOWS_PER_GROUP: usize = 8;

/// `n` active flows spread over the fabric, grouped 8-per-job like the
/// scheduler benches. The +13 destination stride crosses pod boundaries
/// on the fat-tree, so routes are genuinely multi-hop.
fn make_views(n: usize, topo: &Topology) -> Vec<ActiveFlowView> {
    (0..n)
        .map(|i| {
            let src = NodeId((i % HOSTS) as u32);
            let dst = NodeId(((i + 13) % HOSTS) as u32);
            ActiveFlowView {
                id: FlowId(i as u64),
                src,
                dst,
                size: 1.0 + (i % 5) as f64,
                remaining: 0.5 + (i % 3) as f64,
                release: SimTime::new((i % 4) as f64 * 0.1),
                route: topo.route(src, dst),
                slot: i as u32,
            }
        })
        .collect()
}

/// Groups the views 8-per-job into EchelonFlows and Coflows.
fn make_groups(views: &[ActiveFlowView]) -> (Vec<EchelonFlow>, Vec<Coflow>) {
    let mut echelons = Vec::new();
    let mut coflows = Vec::new();
    for (g, chunk) in views.chunks(FLOWS_PER_GROUP).enumerate() {
        let refs: Vec<FlowRef> = chunk
            .iter()
            .map(|v| FlowRef::new(v.id, v.src, v.dst, v.size))
            .collect();
        echelons.push(EchelonFlow::from_flows(
            EchelonId(g as u64),
            JobId(g as u32),
            refs.clone(),
            ArrangementFn::Staggered { gap: 0.5 },
        ));
        coflows.push(Coflow::new(EchelonId(g as u64), JobId(g as u32), refs));
    }
    (echelons, coflows)
}

fn bench_engine(
    label: &str,
    fabric: &str,
    n: usize,
    topo: &Topology,
    views: &[ActiveFlowView],
    mut engine: EchelonMadd,
) {
    let now = SimTime::new(1.0);
    let mut ws = AllocScratch::new();
    let mut rates = Vec::new();
    // One un-timed call warms the cache: the first cached call rebuilds
    // the link index, so the timed iterations below measure the
    // steady-state event.
    engine.allocate_cached(now, views, topo, &mut ws, &mut rates);
    run(&format!("madd_event/{label}/{fabric}/{n}"), || {
        engine.allocate_cached(now, views, topo, &mut ws, &mut rates);
        rates.last().copied()
    });
}

fn main() {
    let fabrics: [(&str, Topology); 2] = [
        ("fat_tree_k8", FatTree::new(8).build()),
        ("big_switch", Topology::big_switch_uniform(HOSTS, 1.0)),
    ];
    for (fabric, topo) in &fabrics {
        for &n in &[64usize, 512, 4096] {
            let views = make_views(n, topo);
            let (echelons, coflows) = make_groups(&views);

            bench_engine(
                "echelon",
                fabric,
                n,
                topo,
                &views,
                EchelonMadd::new(echelons),
            );
            bench_engine(
                "varys",
                fabric,
                n,
                topo,
                &views,
                VarysMadd::new(coflows).into(),
            );
        }
    }
}
