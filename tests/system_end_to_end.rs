//! Experiment E9 — the full Fig. 7 system path, end to end.
//!
//! Frameworks declare jobs → per-job agents report their EchelonFlows →
//! the coordinator schedules → enforcement happens through priority
//! queues. Verified against direct (idealized) scheduling and across
//! coordinator knobs.

use echelonflow::agent::agent::EchelonAgent;
use echelonflow::agent::coordinator::{Coordinator, CoordinatorConfig, Trigger};
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

/// Two pipelines on disjoint workers whose stage-to-stage traffic shares
/// the dumbbell's unit-capacity core link: real cross-job contention.
fn two_pipelines(alloc: &mut IdAlloc) -> Vec<echelonflow::paradigms::dag::JobDag> {
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

#[test]
fn agents_to_coordinator_to_queues() {
    let topo = Topology::dumbbell(2, 2, 10.0, 1.0);
    let mut alloc = IdAlloc::new();
    let dags = two_pipelines(&mut alloc);
    let dag_refs: Vec<&_> = dags.iter().collect();

    // Fig. 7 path.
    let mut coordinator = Coordinator::new(CoordinatorConfig::default());
    for dag in &dags {
        EchelonAgent::from_dag(dag).report_to(&mut coordinator);
    }
    assert_eq!(coordinator.registered_count(), 4); // 2 jobs × 2 directions
    let mut enforced = QueueEnforcedPolicy::new(coordinator.into_policy(), QueueConfig::default());
    let system = run_jobs(&topo, &dag_refs, &mut enforced, &RunConfig::default());

    // All jobs complete, queue assignments happened.
    assert!(system.job_makespans.contains_key(&JobId(0)));
    assert!(system.job_makespans.contains_key(&JobId(1)));
    assert!(!enforced.last_assignment().is_empty());
    assert!(enforced.inner().decisions_computed() > 0);
}

#[test]
fn system_close_to_idealized_direct_scheduling() {
    let topo = Topology::dumbbell(2, 2, 10.0, 1.0);
    let mut alloc = IdAlloc::new();
    let dags = two_pipelines(&mut alloc);
    let dag_refs: Vec<&_> = dags.iter().collect();

    let mut coordinator = Coordinator::new(CoordinatorConfig::default());
    for dag in &dags {
        EchelonAgent::from_dag(dag).report_to(&mut coordinator);
    }
    let mut enforced = QueueEnforcedPolicy::new(coordinator.into_policy(), QueueConfig::default());
    let system = run_jobs(&topo, &dag_refs, &mut enforced, &RunConfig::default());

    let mut direct = EchelonMadd::new(dags.iter().flat_map(|d| d.echelons.clone()).collect());
    let ideal = run_jobs(&topo, &dag_refs, &mut direct, &RunConfig::default());

    // Queue quantization costs at most a modest slowdown per job. (A
    // single job may even finish *earlier* than under exact rates — the
    // heuristic is not optimal — so only the upper bound is asserted per
    // job, plus an aggregate sanity band.)
    let mut system_sum = 0.0;
    let mut ideal_sum = 0.0;
    for job in [JobId(0), JobId(1)] {
        let s = system.job_makespans[&job].secs();
        let i = ideal.job_makespans[&job].secs();
        assert!(
            s <= i * 1.5 + 1e-9,
            "{job}: system {s} too far from ideal {i}"
        );
        system_sum += s;
        ideal_sum += i;
    }
    assert!(
        (system_sum - ideal_sum).abs() <= 0.25 * ideal_sum,
        "aggregate drift too large: system {system_sum} vs ideal {ideal_sum}"
    );
}

#[test]
fn interval_scheduling_trades_decisions_for_quality() {
    let topo = Topology::dumbbell(2, 2, 10.0, 1.0);
    let mut alloc = IdAlloc::new();
    let dags = two_pipelines(&mut alloc);
    let dag_refs: Vec<&_> = dags.iter().collect();

    let run_with = |trigger: Trigger| {
        let mut coordinator = Coordinator::new(CoordinatorConfig {
            trigger,
            ..CoordinatorConfig::default()
        });
        for dag in &dags {
            EchelonAgent::from_dag(dag).report_to(&mut coordinator);
        }
        let mut policy = coordinator.into_policy();
        let out = run_jobs(&topo, &dag_refs, &mut policy, &RunConfig::default());
        (out, policy.decisions_computed())
    };

    let (out_precise, d_precise) = run_with(Trigger::PerEvent);
    let (out_lazy, d_lazy) = run_with(Trigger::Interval(4.0));
    let (out_group, d_group) = run_with(Trigger::PerGroupChange);
    assert!(d_lazy < d_precise, "lazy {d_lazy} !< precise {d_precise}");
    // "Per EchelonFlow arrival/departure" sits between: far fewer
    // decisions than per-event, and the jobs still complete.
    assert!(
        d_group < d_precise,
        "group {d_group} !< precise {d_precise}"
    );
    assert!(out_lazy.makespan.secs() > 0.0);
    assert!(out_precise.makespan.secs() > 0.0);
    assert!(out_group.makespan.secs() > 0.0);
}

#[test]
fn fewer_queues_degrade_monotonically_in_the_limit() {
    let topo = Topology::dumbbell(2, 2, 10.0, 1.0);
    let mut alloc = IdAlloc::new();
    let dags = two_pipelines(&mut alloc);
    let dag_refs: Vec<&_> = dags.iter().collect();

    let run_with = |queues: u8| {
        let mut coordinator = Coordinator::new(CoordinatorConfig::default());
        for dag in &dags {
            EchelonAgent::from_dag(dag).report_to(&mut coordinator);
        }
        let mut enforced = QueueEnforcedPolicy::new(
            coordinator.into_policy(),
            QueueConfig { queues, ratio: 2.0 },
        );
        run_jobs(&topo, &dag_refs, &mut enforced, &RunConfig::default())
            .makespan
            .secs()
    };

    let one = run_with(1);
    let eight = run_with(8);
    // One queue = fair sharing among all flows; eight queues approximate
    // the exact schedule. More queues must not hurt.
    assert!(
        eight <= one + 1e-6,
        "8 queues {eight} worse than 1 queue {one}"
    );
}
