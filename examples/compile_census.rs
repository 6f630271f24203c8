//! Census of the job compile path: what it costs to turn a sampled job
//! into its DAG, its agent's report and the coordinator's book.
//!
//! Two tables:
//!
//! 1. **Per job**, for every paradigm at 2–4 workers: the exact number of
//!    heap allocations (`alloc` and `realloc` calls, counted by a wrapping
//!    global allocator) one `compile_job` makes, its flow and computation
//!    counts, and its mean wall time over repeated compiles.
//! 2. **Set-up of the `echelon-dag` benchmark row**, split into its
//!    layers: fat-tree build, `generate_workload_on` (compile, PodPacked
//!    placement, arrival gates), agents reporting to the coordinator, and
//!    `Coordinator::into_policy` (the book build) — the median over
//!    several seeds, with the allocation count of each layer. A last row
//!    replays the PodPacked placement alone (`place_jobs_on` on the
//!    instance's own demands, checked equal to the generated placement):
//!    the share of `generate_workload_on` that placement takes.
//!
//! Allocation counts are deterministic; wall times depend on the machine,
//! so compare them only between builds run back to back.
//!
//! Run with: `cargo run --release --example compile_census [compiles]`
//! (default 3000 compiles per row).

use echelonflow::agent::agent::EchelonAgent;
use echelonflow::agent::coordinator::{Coordinator, CoordinatorConfig};
use echelonflow::cluster::placement::{place_jobs_on, PlacementPolicy};
use echelonflow::cluster::workload::{
    compile_job, generate_workload_on, hosts_needed, ParadigmKind, WorkloadConfig,
};
use echelonflow::core::JobId;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::ids::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator, counting allocation calls.
struct Counting;

/// Allocation calls so far; a statistic that publishes no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each upholds `GlobalAlloc`'s contract exactly as `System` does; the
// counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The mix `compile_job` serves, in `ParadigmKind` declaration order.
const KINDS: [ParadigmKind; 7] = [
    ParadigmKind::DpAllReduce,
    ParadigmKind::DpPs,
    ParadigmKind::PpGpipe,
    ParadigmKind::Pp1f1b,
    ParadigmKind::Tp,
    ParadigmKind::Fsdp,
    ParadigmKind::Hybrid,
];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn per_job(compiles: usize) {
    println!("kind          workers  flows  comps  allocs/job   us/job");
    for kind in KINDS {
        // Hybrid is always 2 replicas × 2 stages.
        let widths = if kind == ParadigmKind::Hybrid {
            4..=4
        } else {
            2..=4
        };
        for workers in widths {
            let hosts: Vec<NodeId> = (0..hosts_needed(kind, workers) as u32)
                .map(NodeId)
                .collect();
            let mut alloc = IdAlloc::new();
            let before = allocs();
            let dag = compile_job(JobId(0), kind, &hosts, 1.0, 1.0, 1, &mut alloc);
            let count = allocs() - before;
            let flows = dag.all_flows().len();
            let comps = dag.comps.len();
            drop(dag);
            let t = Instant::now();
            for i in 0..compiles {
                black_box(compile_job(
                    JobId(i as u32),
                    kind,
                    &hosts,
                    1.0,
                    1.0,
                    1,
                    &mut alloc,
                ));
            }
            let us = 1e6 * t.elapsed().as_secs_f64() / compiles as f64;
            println!(
                "{:<13} {workers:>7}  {flows:>5}  {comps:>5}  {count:>10}  {us:>7.1}",
                format!("{kind:?}")
            );
        }
    }
}

/// One `echelon-dag` set-up, layer by layer: (seconds, allocations) each
/// for the fabric, the workload, the agent reports and the book build,
/// then for the replayed placement.
fn echelon_dag_setup(seed: u64) -> [(f64, u64); 5] {
    let mut layers = [(0.0, 0); 5];
    let mut span =
        |i: usize, t: Instant, a: u64| layers[i] = (t.elapsed().as_secs_f64(), allocs() - a);

    let (t, a) = (Instant::now(), allocs());
    let tree = FatTree::new(16).with_oversubscription(4.0);
    let topo = tree.build_fabric();
    span(0, t, a);

    let mut cfg = WorkloadConfig::default_mix(seed, 200, tree.hosts());
    cfg.iterations = 1;
    cfg.mean_interarrival = 0.5;
    cfg.placement = PlacementPolicy::PodPacked;
    let (t, a) = (Instant::now(), allocs());
    let jobs = generate_workload_on(&cfg, &topo, &mut IdAlloc::new());
    span(1, t, a);

    let (t, a) = (Instant::now(), allocs());
    let mut coordinator = Coordinator::new(CoordinatorConfig::default());
    for job in &jobs {
        EchelonAgent::from_dag(&job.dag).report_to(&mut coordinator);
    }
    span(2, t, a);

    let (t, a) = (Instant::now(), allocs());
    let policy = coordinator.into_policy();
    span(3, t, a);

    let demands: Vec<usize> = jobs.iter().map(|j| j.placement.len()).collect();
    let (t, a) = (Instant::now(), allocs());
    let placed = place_jobs_on(cfg.placement, cfg.hosts, &demands, &topo, &[]).unwrap();
    span(4, t, a);
    assert!(
        placed.iter().zip(&jobs).all(|(p, j)| *p == j.placement),
        "the replay must place as the generator did"
    );
    black_box((topo, jobs, policy));
    layers
}

fn setup(seeds: u64) {
    const NAMES: [&str; 5] = [
        "fabric",
        "generate_workload_on",
        "agent reports",
        "into_policy",
        "PodPacked placement (replayed)",
    ];
    let runs: Vec<[(f64, u64); 5]> = (1..=seeds).map(echelon_dag_setup).collect();
    println!("\nechelon-dag set-up layer           median ms   allocs (seed 1)");
    let mut whole = vec![0.0; runs.len()];
    let row = |i: usize| {
        let ms: Vec<f64> = runs.iter().map(|r| 1e3 * r[i].0).collect();
        println!(
            "{:<30} {:>10.3}   {:>14}",
            NAMES[i],
            median(ms.clone()),
            runs[0][i].1
        );
        ms
    };
    for i in 0..4 {
        whole.iter_mut().zip(row(i)).for_each(|(w, m)| *w += m);
    }
    println!("{:<30} {:>10.3}", "whole", median(whole));
    // Part of `generate_workload_on` already, so not added to the whole.
    row(4);
}

fn main() {
    let compiles = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("compiles must be a count"))
        .unwrap_or(3000);
    per_job(compiles);
    setup(7);
}
