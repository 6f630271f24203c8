//! The full EchelonFlow scheduling system (paper §5, Fig. 7).
//!
//! Two pipeline jobs share a fabric. Each job's framework declares its
//! workflow as EchelonFlows; a per-job **agent** reports them to the
//! global **coordinator**, whose decisions are enforced through 8
//! discrete **priority queues** with weighted sharing — the complete
//! path of the paper's Fig. 7, compared against direct (idealized)
//! EchelonFlow scheduling.
//!
//! Run with: `cargo run --example coordinator_system`

use echelonflow::agent::agent::EchelonAgent;
use echelonflow::agent::coordinator::{Coordinator, CoordinatorConfig};
use echelonflow::agent::enforce::{QueueConfig, QueueEnforcedPolicy};
use echelonflow::core::JobId;
use echelonflow::paradigms::config::PpConfig;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::pp::build_pp_gpipe;
use echelonflow::paradigms::runtime::run_jobs;
use echelonflow::sched::echelon::EchelonMadd;
use echelonflow::simnet::ids::NodeId;
use echelonflow::simnet::runner::RunConfig;
use echelonflow::simnet::topology::Topology;

fn jobs(alloc: &mut IdAlloc) -> Vec<echelonflow::paradigms::dag::JobDag> {
    let mk = |job, a: u32, b: u32, alloc: &mut IdAlloc| {
        build_pp_gpipe(
            job,
            &PpConfig {
                placement: vec![NodeId(a), NodeId(b)],
                micro_batches: 3,
                fwd_time: 1.0,
                bwd_time: 1.0,
                activation_bytes: 2.0,
                iterations: 1,
            },
            alloc,
        )
    };
    vec![mk(JobId(0), 0, 2, alloc), mk(JobId(1), 1, 3, alloc)]
}

fn main() {
    // Two 2-stage pipelines on disjoint workers whose stage-to-stage
    // traffic shares a dumbbell's unit-capacity core link: real cross-job
    // contention for the coordinator to arbitrate.
    let topo = Topology::dumbbell(2, 2, 10.0, 1.0);

    // Framework side: declare workloads, stand up one agent per job.
    let mut alloc = IdAlloc::new();
    let dags = jobs(&mut alloc);
    let agents: Vec<EchelonAgent> = dags.iter().map(EchelonAgent::from_dag).collect();

    // Agents report their EchelonFlows to the coordinator.
    let mut coordinator = Coordinator::new(CoordinatorConfig::default());
    for agent in agents {
        println!(
            "agent for {:?} reported {} EchelonFlows",
            agent.job(),
            agent.echelons().len()
        );
        agent.report_to(&mut coordinator);
    }
    println!(
        "coordinator holds {} EchelonFlows\n",
        coordinator.registered_count()
    );

    // Coordinator decisions, enforced through 8 priority queues.
    let coordinated = coordinator.into_policy();
    let mut enforced = QueueEnforcedPolicy::new(coordinated, QueueConfig::default());
    let dag_refs: Vec<&_> = dags.iter().collect();
    let out_system = run_jobs(&topo, &dag_refs, &mut enforced, &RunConfig::default());

    // Reference: idealized direct EchelonFlow scheduling (exact rates).
    let mut direct = EchelonMadd::new(dags.iter().flat_map(|d| d.echelons.clone()).collect());
    let out_direct = run_jobs(&topo, &dag_refs, &mut direct, &RunConfig::default());

    println!("{:<28} {:>10} {:>10}", "", "job 0", "job 1");
    println!(
        "{:<28} {:>10} {:>10}",
        "system (queues, Fig. 7)",
        out_system.job_makespans[&JobId(0)].to_string(),
        out_system.job_makespans[&JobId(1)].to_string()
    );
    println!(
        "{:<28} {:>10} {:>10}",
        "direct (exact rates)",
        out_direct.job_makespans[&JobId(0)].to_string(),
        out_direct.job_makespans[&JobId(1)].to_string()
    );
    println!(
        "\ncoordinator ran {} scheduling decisions",
        enforced.inner().decisions_computed()
    );
    let queues: std::collections::BTreeSet<u8> =
        enforced.last_assignment().iter().map(|&(_, q)| q).collect();
    println!("priority queues in use at the last decision: {queues:?}");
}
