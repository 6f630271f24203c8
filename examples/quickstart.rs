//! Quickstart: reproduce the paper's motivating example (Fig. 2).
//!
//! Three micro-batches flow through a two-stage GPipe pipeline over a
//! unit-bandwidth link; each activation transfer is 2B. The example runs
//! the identical job under bandwidth fair sharing, Coflow scheduling
//! (Varys/MADD) and EchelonFlow scheduling, and prints the computation
//! finish times the paper reports: **8.5, 10 and 8**.
//!
//! Run with: `cargo run --example quickstart`

use echelonflow::cluster::scenario::SchedulerKind;
use echelonflow::core::JobId;
use echelonflow::paradigms::config::PpConfig;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::pp::build_pp_gpipe;
use echelonflow::paradigms::runtime::run_jobs;
use echelonflow::simnet::runner::RunConfig;
use echelonflow::simnet::topology::Topology;

fn main() {
    // The Fig. 2 instance: 2 stages, 3 micro-batches, T = 1, flows of 2B
    // over a B = 1 link between the stages.
    let topo = Topology::chain(2, 1.0);

    println!("EchelonFlow quickstart — paper Fig. 2 (HotNets '22)");
    println!("three 2B activation flows over a B=1 link, T=1 per micro-batch\n");
    println!("{:<22} {:>18}", "scheduler", "comp finish time");
    println!("{}", "-".repeat(42));

    // (a) Fair sharing.
    let mut alloc = IdAlloc::new();
    let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
    let fair = run_jobs(
        &topo,
        &[&dag],
        SchedulerKind::Fair.policy(&[&dag]).as_mut(),
        &RunConfig::default(),
    );
    println!("{:<22} {:>18}", "fair sharing", forward_finish(&fair));

    // (b) Coflow scheduling: the coordinator over one-stage Coflow
    // groups, ranked by least work (Varys' smallest-bottleneck-first).
    let mut alloc = IdAlloc::new();
    let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
    let out = run_jobs(
        &topo,
        &[&dag],
        SchedulerKind::Coflow.policy(&[&dag]).as_mut(),
        &RunConfig::default(),
    );
    println!("{:<22} {:>18}", "coflow (Varys/MADD)", forward_finish(&out));

    // (c) EchelonFlow scheduling.
    let mut alloc = IdAlloc::new();
    let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
    let out = run_jobs(
        &topo,
        &[&dag],
        SchedulerKind::Echelon.policy(&[&dag]).as_mut(),
        &RunConfig::default(),
    );
    println!("{:<22} {:>18}", "echelonflow", forward_finish(&out));

    println!("\npaper: fair = 8.5, coflow = 10, echelonflow = 8 (optimal)");
}

/// Finish time of the forward phase on the consuming stage (the quantity
/// Fig. 2 plots): the end of the last forward unit on worker 1.
fn forward_finish(out: &echelonflow::paradigms::runtime::RunResult) -> String {
    use echelonflow::paradigms::dag::CompKind;
    use echelonflow::simnet::ids::NodeId;
    let t = out
        .timeline_of(NodeId(1))
        .iter()
        .filter(|e| e.kind == CompKind::Forward)
        .map(|e| e.end)
        .max()
        .expect("forward units on stage 1");
    format!("{t}")
}
