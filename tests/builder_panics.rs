//! Every check on the job-building path keeps its verdict and its panic
//! message: `DagBuilder`'s flow and dependency checks, `EchelonFlow`'s
//! duplicate check and the `EchelonBook`'s claim checks. Also pins the
//! builder's handling of hand-built flow ids the builder's generator
//! never issued.

use echelonflow::collectives::FlowStage;
use echelonflow::core::arrangement::ArrangementFn;
use echelonflow::core::echelon::{EchelonFlow, FlowRef};
use echelonflow::core::{EchelonId, JobId};
use echelonflow::paradigms::dag::{CompKind, DagBuilder};
use echelonflow::paradigms::ids::{CommId, IdAlloc};
use echelonflow::sched::book::EchelonBook;
use echelonflow::simnet::ids::{FlowId, NodeId};

fn flow(id: u64) -> FlowRef {
    FlowRef::new(FlowId(id), NodeId(0), NodeId(1), 1.0)
}

fn stage(flows: Vec<FlowRef>) -> Vec<FlowStage> {
    vec![FlowStage { step: 0, flows }]
}

/// A builder whose flow generator has already issued ids `0..10`, so
/// the flows it generates start at id 10.
fn builder(alloc: &mut IdAlloc) -> DagBuilder<'_> {
    for _ in 0..10 {
        alloc.flows.next_id();
    }
    DagBuilder::new(JobId(0), alloc)
}

#[test]
#[should_panic(expected = "flow f10 declared twice")]
fn flow_declared_twice_rejected() {
    let mut alloc = IdAlloc::new();
    let mut b = builder(&mut alloc);
    let id = b.flow_ids().next_id();
    let f = FlowRef::new(id, NodeId(0), NodeId(1), 1.0);
    b.comm("a", stage(vec![f]), &[], &[]);
    b.comm("b", stage(vec![f]), &[], &[]);
}

#[test]
#[should_panic(expected = "flow f3 declared twice")]
fn hand_built_flow_declared_twice_rejected() {
    let mut alloc = IdAlloc::new();
    let mut b = builder(&mut alloc);
    b.comm("a", stage(vec![flow(3)]), &[], &[]);
    b.comm("b", stage(vec![flow(3)]), &[], &[]);
}

#[test]
#[should_panic(expected = "EchelonFlow references unknown flow f11")]
fn echelon_over_unknown_flow_rejected() {
    let mut alloc = IdAlloc::new();
    let mut b = builder(&mut alloc);
    let id = b.flow_ids().next_id();
    b.comm(
        "a",
        stage(vec![FlowRef::new(id, NodeId(0), NodeId(1), 1.0)]),
        &[],
        &[],
    );
    // Id 11 is not issued yet, nor declared.
    b.declare_echelon(vec![vec![flow(11)]], ArrangementFn::Coflow);
}

#[test]
#[should_panic(expected = "Coflow references unknown flow f4")]
fn coflow_over_unknown_flow_rejected() {
    let mut alloc = IdAlloc::new();
    let mut b = builder(&mut alloc);
    b.comm("a", stage(vec![flow(3)]), &[], &[]);
    b.declare_coflow(vec![flow(3), flow(4)]);
}

#[test]
#[should_panic(expected = "flow f10 has no Coflow grouping")]
fn flow_without_coflow_rejected() {
    let mut alloc = IdAlloc::new();
    let mut b = builder(&mut alloc);
    let id = b.flow_ids().next_id();
    let f = FlowRef::new(id, NodeId(0), NodeId(1), 1.0);
    b.comm("a", stage(vec![f]), &[], &[]);
    b.declare_echelon(vec![vec![f]], ArrangementFn::Coflow);
    let _ = b.build();
}

#[test]
#[should_panic(expected = "unknown comm dependency m0")]
fn unknown_comm_dependency_rejected() {
    let mut alloc = IdAlloc::new();
    let mut b = DagBuilder::new(JobId(0), &mut alloc);
    b.comp(NodeId(0), 1.0, CompKind::Forward, "x", &[], &[CommId(0)]);
}

#[test]
#[should_panic(expected = "unknown comm dependency m0")]
fn comm_dependency_of_another_builder_rejected() {
    // Comm m0 exists, but in an earlier job's DAG.
    let mut alloc = IdAlloc::new();
    let mut first = DagBuilder::new(JobId(0), &mut alloc);
    let f = FlowRef::new(first.flow_ids().next_id(), NodeId(0), NodeId(1), 1.0);
    first.comm("a", stage(vec![f]), &[], &[]);
    first.declare_echelon(vec![vec![f]], ArrangementFn::Coflow);
    first.declare_coflow(vec![f]);
    let _ = first.build();
    let mut b = DagBuilder::new(JobId(1), &mut alloc);
    b.comp(NodeId(0), 1.0, CompKind::Forward, "x", &[], &[CommId(0)]);
}

/// Hand-built ids the generator never issued — below the builder's
/// first id and far above its last — are declared, grouped and checked
/// like generated ones.
#[test]
fn hand_built_flow_ids_are_checked_like_generated_ones() {
    let mut alloc = IdAlloc::new();
    let mut b = builder(&mut alloc);
    let generated = FlowRef::new(b.flow_ids().next_id(), NodeId(0), NodeId(1), 1.0);
    let low = flow(3);
    let high = flow(1_000_000);
    let a = b.comm("a", stage(vec![low, generated]), &[], &[]);
    b.comm("b", stage(vec![high]), &[], &[a]);
    b.declare_echelon(
        vec![vec![low], vec![generated, high]],
        ArrangementFn::Coflow,
    );
    b.declare_coflow(vec![low, generated, high]);
    let dag = b.build();
    assert_eq!(dag.all_flows().len(), 3);
    assert_eq!(dag.echelons[0].stage_of(FlowId(1_000_000)), Some(1));
}

/// `build` reports the lowest ungrouped flow id, wherever it lives.
#[test]
#[should_panic(expected = "flow f3 has no EchelonFlow grouping")]
fn build_reports_lowest_ungrouped_id_first() {
    let mut alloc = IdAlloc::new();
    let mut b = builder(&mut alloc);
    let generated = FlowRef::new(b.flow_ids().next_id(), NodeId(0), NodeId(1), 1.0);
    b.comm("a", stage(vec![generated, flow(3)]), &[], &[]);
    let _ = b.build();
}

/// An id declared by hand before the generator issues it stays declared:
/// the generated flow with the same id is a duplicate.
#[test]
#[should_panic(expected = "flow f11 declared twice")]
fn hand_built_id_issued_later_is_a_duplicate() {
    let mut alloc = IdAlloc::new();
    let mut b = builder(&mut alloc);
    b.comm("a", stage(vec![flow(11)]), &[], &[]);
    b.flow_ids().next_id(); // f10
    let issued = b.flow_ids().next_id(); // f11
    b.comm(
        "b",
        stage(vec![FlowRef::new(issued, NodeId(0), NodeId(1), 1.0)]),
        &[],
        &[],
    );
}

#[test]
#[should_panic(expected = "appears twice")]
fn echelon_flow_with_repeated_flow_rejected() {
    let _ = EchelonFlow::new(
        EchelonId(0),
        JobId(0),
        vec![vec![flow(1), flow(2)], vec![flow(3), flow(1)]],
        ArrangementFn::Coflow,
    );
}

#[test]
#[should_panic(expected = "flow f2 claimed by two EchelonFlows")]
fn book_rejects_flow_in_two_echelons() {
    let h0 = EchelonFlow::from_flows(
        EchelonId(0),
        JobId(0),
        vec![flow(1), flow(2)],
        ArrangementFn::Coflow,
    );
    let h1 = EchelonFlow::from_flows(EchelonId(1), JobId(1), vec![flow(2)], ArrangementFn::Coflow);
    let _ = EchelonBook::new(vec![h0, h1]);
}

#[test]
#[should_panic(expected = "duplicate EchelonFlow id H5")]
fn book_rejects_duplicate_echelon_id() {
    let h0 = EchelonFlow::from_flows(EchelonId(5), JobId(0), vec![flow(1)], ArrangementFn::Coflow);
    let h1 = EchelonFlow::from_flows(EchelonId(5), JobId(1), vec![flow(2)], ArrangementFn::Coflow);
    let _ = EchelonBook::new(vec![h0, h1]);
}
