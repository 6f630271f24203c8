//! Scheduler-cost benches (experiment E8 / Property 4).
//!
//! Property 4 claims the MADD adaptation keeps the algorithmic
//! complexity of the original: these benches measure a single
//! `allocate_dense()` call of Varys/MADD (CCT metric) and EchelonMadd
//! (tardiness metric) over growing flow populations — the curves should
//! have the same shape, separated by a constant factor. Every call
//! reuses one scratch workspace and one rate buffer, as the driver does.
//!
//! Plain `main()` harness (`harness = false`): run with
//! `cargo bench --bench schedulers`.

use echelon_bench::timing::run;
use echelon_core::arrangement::ArrangementFn;
use echelon_core::coflow::Coflow;
use echelon_core::echelon::{EchelonFlow, FlowRef};
use echelon_core::{EchelonId, JobId};
use echelon_sched::echelon::EchelonMadd;
use echelon_sched::varys::VarysMadd;
use echelon_simnet::alloc::{waterfill_dense, AllocScratch};
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::runner::RatePolicy;
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;

const HOSTS: usize = 32;
const GROUP_SIZE: usize = 8;

/// `n` active flows spread over the fabric, grouped 8-per-group.
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

fn make_coflows(n: usize) -> Vec<Coflow> {
    (0..n)
        .collect::<Vec<_>>()
        .chunks(GROUP_SIZE)
        .enumerate()
        .map(|(g, chunk)| {
            let flows = chunk
                .iter()
                .map(|&i| {
                    FlowRef::new(
                        FlowId(i as u64),
                        NodeId((i % HOSTS) as u32),
                        NodeId(((i + 7) % HOSTS) as u32),
                        1.0 + (i % 5) as f64,
                    )
                })
                .collect();
            Coflow::new(EchelonId(g as u64), JobId(g as u32), flows)
        })
        .collect()
}

fn make_echelons(n: usize) -> Vec<EchelonFlow> {
    make_coflows(n)
        .into_iter()
        .enumerate()
        .map(|(g, c)| {
            let flows: Vec<FlowRef> = c.flows().to_vec();
            EchelonFlow::from_flows(
                EchelonId(g as u64),
                JobId(g as u32),
                flows,
                ArrangementFn::Staggered { gap: 0.5 },
            )
        })
        .collect()
}

fn main() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    for &n in &[16usize, 64, 128, 256] {
        let views = make_views(n, &topo);
        let mut ws = AllocScratch::new();
        let mut rates: Vec<f64> = Vec::new();
        {
            let mut policy = VarysMadd::new(make_coflows(n));
            run(&format!("madd_scaling/varys_cct/{n}"), || {
                policy.allocate_dense(SimTime::new(1.0), &views, &topo, &mut ws, &mut rates);
                rates.last().copied()
            });
        }
        {
            let mut policy = EchelonMadd::new(make_echelons(n));
            run(&format!("madd_scaling/echelon_tardiness/{n}"), || {
                policy.allocate_dense(SimTime::new(1.0), &views, &topo, &mut ws, &mut rates);
                rates.last().copied()
            });
        }
        run(&format!("madd_scaling/max_min_baseline/{n}"), || {
            rates.clear();
            rates.resize(views.len(), 0.0);
            waterfill_dense(&topo, &views, None, &mut rates, &mut ws);
            rates.last().copied()
        });
    }
}
