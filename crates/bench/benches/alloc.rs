//! Allocation-core microbenches: the dense `Vec<f64>` waterfill and
//! priority fill at 64/512/4096 active flows.
//!
//! Both reuse one [`AllocScratch`] and one rate buffer across
//! iterations — zero heap allocations per call, as on the driver's hot
//! path at every recompute.
//!
//! Plain `main()` harness (`harness = false`): run with
//! `cargo bench --bench alloc`.

use echelon_bench::timing::run;
use echelon_simnet::alloc::{priority_fill_dense, waterfill_dense, AllocScratch};
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;

const HOSTS: usize = 32;

/// `n` active flows spread over the fabric (same shape as the scheduler
/// benches, so the curves are comparable).
fn make_views(n: usize, topo: &Topology) -> Vec<ActiveFlowView> {
    (0..n)
        .map(|i| {
            let src = NodeId((i % HOSTS) as u32);
            let dst = NodeId(((i + 7) % HOSTS) as u32);
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

/// SRPT-style priority order (by remaining, then id) over the views.
fn srpt_order(views: &[ActiveFlowView]) -> Vec<FlowId> {
    let mut order: Vec<&ActiveFlowView> = views.iter().collect();
    order.sort_by(|a, b| a.remaining.total_cmp(&b.remaining).then(a.id.cmp(&b.id)));
    order.into_iter().map(|v| v.id).collect()
}

fn main() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    for &n in &[64usize, 512, 4096] {
        let views = make_views(n, &topo);
        let order = srpt_order(&views);

        let mut ws = AllocScratch::new();
        let mut rates: Vec<f64> = Vec::new();

        run(&format!("alloc/waterfill_dense/{n}"), || {
            rates.clear();
            rates.resize(views.len(), 0.0);
            waterfill_dense(&topo, &views, None, &mut rates, &mut ws);
            rates.last().copied()
        });

        run(&format!("alloc/priority_fill_dense/{n}"), || {
            rates.clear();
            rates.resize(views.len(), 0.0);
            priority_fill_dense(&topo, &views, &order, &mut rates, &mut ws);
            rates.last().copied()
        });
    }
}
