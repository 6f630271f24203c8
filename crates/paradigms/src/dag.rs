//! Job DAGs: computation units, communication units and their wiring.
//!
//! A [`JobDag`] is the paper's "computation pattern" made concrete: the
//! DAG *shape* (dependencies between computation and communication) plus
//! the *distances* (computation durations). Workers execute their
//! computation units in strict **program order** (one unit at a time, like
//! kernels on a GPU stream); a unit stalls the worker until its
//! dependencies — including inbound flows — complete. That stalling is
//! exactly the grey idle area of the paper's Fig. 1a.
//!
//! Builders declare, alongside the DAG, both groupings of the job's flows:
//! the **EchelonFlow** formulation of §4 and the plain **Coflow**
//! formulation, so experiments can schedule the identical workload under
//! either abstraction.

use crate::ids::{CommId, CompId, IdAlloc};
use echelon_collectives::{decompose, CollectiveOp, FlowStage, Style};
use echelon_core::arrangement::ArrangementFn;
use echelon_core::coflow::Coflow;
use echelon_core::echelon::{EchelonFlow, FlowRef};
use echelon_core::{EchelonId, JobId};
use echelon_simnet::ids::{FlowId, NodeId};
use std::collections::BTreeMap;
use std::num::NonZeroU32;

/// What a computation unit does, for timeline rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompKind {
    /// Forward pass block.
    Forward,
    /// Backward pass block.
    Backward,
    /// Optimizer/update step.
    Update,
    /// Anything else.
    Generic,
}

/// One computation unit: a block of GPU work on a single worker.
#[derive(Debug, Clone)]
pub struct CompUnit {
    /// Unit id.
    pub id: CompId,
    /// Worker executing the unit.
    pub worker: NodeId,
    /// Execution time in seconds (may be zero for barriers).
    pub duration: f64,
    /// Kind, for timelines.
    pub kind: CompKind,
    /// Human-readable label, e.g. `F2` (forward of micro-batch 2).
    pub label: CompLabel,
    /// Computation units that must complete first.
    pub deps_comp: Vec<CompId>,
    /// Communication units that must complete first.
    pub deps_comm: Vec<CommId>,
}

/// A computation unit's label: a static tag, an optional index and an
/// optional iteration, printed `{tag}{index}(i{iteration})` with absent
/// parts left out — `F3`, `B2(i0)`, `U(i1)`, `ARRIVAL`. It needs no
/// heap and is no larger than a `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompLabel {
    tag: &'static str,
    /// The index plus one, so an absent part costs no extra space.
    index: Option<NonZeroU32>,
    /// The iteration plus one.
    iteration: Option<NonZeroU32>,
}

/// `i + 1` as a label part.
fn label_part(i: usize) -> Option<NonZeroU32> {
    let i = u32::try_from(i)
        .ok()
        .filter(|&i| i < u32::MAX)
        .expect("label part below u32::MAX");
    NonZeroU32::new(i + 1)
}

impl CompLabel {
    /// The label with `i` printed after the tag (`F` → `F3`).
    ///
    /// # Panics
    ///
    /// Panics on an index of `u32::MAX` or more.
    pub fn index(self, i: usize) -> CompLabel {
        CompLabel {
            index: label_part(i),
            ..self
        }
    }

    /// The label with iteration `i` printed last (`B2` → `B2(i0)`).
    ///
    /// # Panics
    ///
    /// Panics on an iteration of `u32::MAX` or more.
    pub fn iteration(self, i: usize) -> CompLabel {
        CompLabel {
            iteration: label_part(i),
            ..self
        }
    }
}

impl From<&'static str> for CompLabel {
    fn from(tag: &'static str) -> CompLabel {
        CompLabel {
            tag,
            index: None,
            iteration: None,
        }
    }
}

impl std::fmt::Display for CompLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag)?;
        if let Some(i) = self.index {
            write!(f, "{}", i.get() - 1)?;
        }
        if let Some(i) = self.iteration {
            write!(f, "(i{})", i.get() - 1)?;
        }
        Ok(())
    }
}

/// One communication unit: a collective-operation instance decomposed
/// into dependent flow stages.
#[derive(Debug, Clone)]
pub struct CommUnit {
    /// Unit id.
    pub id: CommId,
    /// Operation name for reports.
    pub name: &'static str,
    /// Flow stages; stage `k+1` starts when stage `k` fully completes.
    pub stages: Vec<FlowStage>,
    /// Computation units that must complete before stage 0 starts.
    pub deps_comp: Vec<CompId>,
    /// Communication units that must fully complete before stage 0.
    pub deps_comm: Vec<CommId>,
}

impl CommUnit {
    /// All flows across stages.
    pub fn flows(&self) -> impl Iterator<Item = &FlowRef> {
        self.stages.iter().flat_map(|s| s.flows.iter())
    }
}

/// A complete single- or multi-iteration training job.
#[derive(Debug, Clone)]
pub struct JobDag {
    /// Owning job.
    pub job: JobId,
    /// Computation units by id.
    pub comps: BTreeMap<CompId, CompUnit>,
    /// Communication units by id.
    pub comms: BTreeMap<CommId, CommUnit>,
    /// Strict execution program per worker (order of `comp()` calls).
    pub programs: BTreeMap<NodeId, Vec<CompId>>,
    /// §4 EchelonFlow formulation of the job's flows.
    pub echelons: Vec<EchelonFlow>,
    /// Plain Coflow formulation of the same flows.
    pub coflows: Vec<Coflow>,
}

impl JobDag {
    /// The workers this job occupies: the hosts with a computation
    /// program. Hosts that only terminate flows — a parameter server that
    /// aggregates without computing — are not included, so the runtime,
    /// which claims exactly these hosts, never reserves them.
    pub fn workers(&self) -> Vec<NodeId> {
        self.programs.keys().copied().collect()
    }

    /// All flow references across communication units.
    pub fn all_flows(&self) -> Vec<FlowRef> {
        self.comms
            .values()
            .flat_map(|c| c.flows().copied())
            .collect()
    }

    /// Total bytes the job moves over the network.
    pub fn total_bytes(&self) -> f64 {
        self.all_flows().iter().map(|f| f.size).sum()
    }
}

/// Incremental [`JobDag`] constructor.
///
/// Units must be added in a topological order (dependencies first); this
/// is checked eagerly, which guarantees the result is acyclic.
///
/// The builder holds the id allocator for its whole life, so the units
/// and flows it creates hold contiguous id ranges starting where the
/// allocator stood at [`Self::new`]. Its checks read flat per-job tables
/// over those ranges instead of per-flow sets.
pub struct DagBuilder<'a> {
    job: JobId,
    alloc: &'a mut IdAlloc,
    comps: BTreeMap<CompId, CompUnit>,
    comms: BTreeMap<CommId, CommUnit>,
    programs: BTreeMap<NodeId, Vec<CompId>>,
    echelons: Vec<EchelonFlow>,
    coflows: Vec<Coflow>,
    /// First comp and comm ids this builder issues.
    first_comp: u64,
    first_comm: u64,
    /// First flow id the flow generator issues to this builder.
    first_flow: u64,
    /// Flag byte per flow id `first_flow + i` the generator has issued.
    flow_flags: Vec<u8>,
    /// Flag bytes of declared flows whose ids the generator had not issued
    /// when they were declared (hand-built ids). Consulted first.
    stray_flows: BTreeMap<FlowId, u8>,
}

/// Flow flag: the flow is part of a communication unit.
const DECLARED: u8 = 1;
/// Flow flag: the flow is grouped in an EchelonFlow.
const GROUPED: u8 = 2;
/// Flow flag: the flow is in a Coflow.
const IN_COFLOW: u8 = 4;

impl<'a> DagBuilder<'a> {
    /// Starts building a DAG for `job`, drawing ids from `alloc`.
    pub fn new(job: JobId, alloc: &'a mut IdAlloc) -> DagBuilder<'a> {
        DagBuilder {
            job,
            first_comp: alloc.next_comp,
            first_comm: alloc.next_comm,
            first_flow: alloc.flows.peek().0,
            alloc,
            comps: BTreeMap::new(),
            comms: BTreeMap::new(),
            programs: BTreeMap::new(),
            echelons: Vec::new(),
            coflows: Vec::new(),
            flow_flags: Vec::new(),
            stray_flows: BTreeMap::new(),
        }
    }

    /// Access the flow id generator (for hand-built flow stages).
    pub fn flow_ids(&mut self) -> &mut echelon_simnet::ids::FlowIdGen {
        &mut self.alloc.flows
    }

    /// Read access to the communication units added so far (builders use
    /// this to recover the flow ids a decomposition generated).
    pub fn comms(&self) -> &BTreeMap<CommId, CommUnit> {
        &self.comms
    }

    /// Read access to the computation units added so far.
    pub fn comps(&self) -> &BTreeMap<CompId, CompUnit> {
        &self.comps
    }

    /// The units added so far are exactly the ids issued since `new`.
    fn check_deps(&self, deps_comp: &[CompId], deps_comm: &[CommId]) {
        for d in deps_comp {
            assert!(
                (self.first_comp..self.alloc.next_comp).contains(&d.0),
                "unknown comp dependency {d}"
            );
        }
        for d in deps_comm {
            assert!(
                (self.first_comm..self.alloc.next_comm).contains(&d.0),
                "unknown comm dependency {d}"
            );
        }
    }

    /// The flags of flow `id` (zero for a flow never declared).
    fn flags(&self, id: FlowId) -> u8 {
        if let Some(&f) = self.stray_flows.get(&id) {
            return f;
        }
        let i = id.0.wrapping_sub(self.first_flow) as usize;
        self.flow_flags.get(i).copied().unwrap_or(0)
    }

    /// Sets `bit` on a declared flow.
    fn set_flag(&mut self, id: FlowId, bit: u8) {
        match self.stray_flows.get_mut(&id) {
            Some(f) => *f |= bit,
            None => self.flow_flags[(id.0 - self.first_flow) as usize] |= bit,
        }
    }

    /// Adds a computation unit; it is appended to `worker`'s program.
    ///
    /// # Panics
    ///
    /// Panics on negative/non-finite duration or unknown dependencies.
    pub fn comp(
        &mut self,
        worker: NodeId,
        duration: f64,
        kind: CompKind,
        label: impl Into<CompLabel>,
        deps_comp: &[CompId],
        deps_comm: &[CommId],
    ) -> CompId {
        assert!(
            duration >= 0.0 && duration.is_finite(),
            "bad comp duration {duration}"
        );
        self.check_deps(deps_comp, deps_comm);
        let id = self.alloc.next_comp();
        self.comps.insert(
            id,
            CompUnit {
                id,
                worker,
                duration,
                kind,
                label: label.into(),
                deps_comp: deps_comp.to_vec(),
                deps_comm: deps_comm.to_vec(),
            },
        );
        self.programs.entry(worker).or_default().push(id);
        id
    }

    /// Adds a communication unit from pre-built flow stages.
    ///
    /// # Panics
    ///
    /// Panics on empty stages or unknown dependencies.
    pub fn comm(
        &mut self,
        name: &'static str,
        stages: Vec<FlowStage>,
        deps_comp: &[CompId],
        deps_comm: &[CommId],
    ) -> CommId {
        assert!(!stages.is_empty(), "comm unit needs at least one stage");
        self.check_deps(deps_comp, deps_comm);
        // The table grows to cover every id issued so far; it never
        // shrinks, so a flow keeps its slot once it has one.
        let issued = self.alloc.flows.peek().0.saturating_sub(self.first_flow) as usize;
        if issued > self.flow_flags.len() {
            self.flow_flags.resize(issued, 0);
        }
        let issued = self.first_flow..self.first_flow + self.flow_flags.len() as u64;
        for s in &stages {
            assert!(!s.flows.is_empty(), "comm stage {} is empty", s.step);
            for f in &s.flows {
                assert!(
                    self.flags(f.id) & DECLARED == 0,
                    "flow {} declared twice",
                    f.id
                );
                if issued.contains(&f.id.0) {
                    self.flow_flags[(f.id.0 - issued.start) as usize] = DECLARED;
                } else {
                    self.stray_flows.insert(f.id, DECLARED);
                }
            }
        }
        let id = self.alloc.next_comm();
        self.comms.insert(
            id,
            CommUnit {
                id,
                name,
                stages,
                deps_comp: deps_comp.to_vec(),
                deps_comm: deps_comm.to_vec(),
            },
        );
        id
    }

    /// Adds a communication unit by decomposing a collective op.
    pub fn comm_op(
        &mut self,
        op: &CollectiveOp,
        style: Style,
        deps_comp: &[CompId],
        deps_comm: &[CommId],
    ) -> CommId {
        let d = decompose(op, style, &mut self.alloc.flows);
        let name = d.op_name;
        self.comm(name, d.stages, deps_comp, deps_comm)
    }

    /// Declares an EchelonFlow grouping over already-added flows.
    ///
    /// # Panics
    ///
    /// Panics if any flow is unknown or already claimed by another
    /// EchelonFlow of this job.
    pub fn declare_echelon(
        &mut self,
        stages: Vec<Vec<FlowRef>>,
        arrangement: ArrangementFn,
    ) -> EchelonId {
        let id = self.alloc.next_echelon();
        for s in &stages {
            for f in s {
                let flags = self.flags(f.id);
                assert!(
                    flags & DECLARED != 0,
                    "EchelonFlow references unknown flow {}",
                    f.id
                );
                assert!(flags & GROUPED == 0, "flow {} grouped twice", f.id);
                self.set_flag(f.id, GROUPED);
            }
        }
        self.echelons
            .push(EchelonFlow::new(id, self.job, stages, arrangement));
        id
    }

    /// The flows of communication unit `comm`, stage by stage.
    pub(crate) fn flows_of(&self, comm: CommId) -> Vec<FlowRef> {
        let unit = &self.comms[&comm];
        let mut flows = Vec::with_capacity(unit.stages.iter().map(|s| s.flows.len()).sum());
        flows.extend(unit.flows().copied());
        flows
    }

    /// Declares a collective's flows as both a Coflow-arranged
    /// EchelonFlow and a plain Coflow (§4 Case I), in that order.
    pub(crate) fn declare_collective(&mut self, comm: CommId) {
        let flows = self.flows_of(comm);
        self.declare_echelon(vec![flows.clone()], ArrangementFn::Coflow);
        self.declare_coflow(flows);
    }

    /// Declares a Coflow grouping over already-added flows. Coflows are
    /// the *alternative* formulation, so they may overlap EchelonFlows
    /// but not each other.
    pub fn declare_coflow(&mut self, flows: Vec<FlowRef>) -> EchelonId {
        let id = self.alloc.next_echelon();
        for f in &flows {
            assert!(
                self.flags(f.id) & DECLARED != 0,
                "Coflow references unknown flow {}",
                f.id
            );
            self.set_flag(f.id, IN_COFLOW);
        }
        self.coflows.push(Coflow::new(id, self.job, flows));
        id
    }

    /// Finalizes the DAG.
    ///
    /// # Panics
    ///
    /// Panics if any flow was left out of the EchelonFlow grouping (every
    /// flow must have an ideal finish time) or the Coflow grouping.
    pub fn build(self) -> JobDag {
        let check = |fid: FlowId, flags: u8| {
            if flags & DECLARED == 0 {
                return;
            }
            assert!(
                flags & GROUPED != 0,
                "flow {fid} has no EchelonFlow grouping"
            );
            assert!(flags & IN_COFLOW != 0, "flow {fid} has no Coflow grouping");
        };
        let table = (self.first_flow..)
            .map(FlowId)
            .zip(self.flow_flags.iter().copied());
        if self.stray_flows.is_empty() {
            table.for_each(|(fid, flags)| check(fid, flags));
        } else {
            // Walk both tables in id order. A table slot whose id has a
            // stray entry was never declared, so the check skips it.
            let mut all: Vec<(FlowId, u8)> = table
                .chain(self.stray_flows.iter().map(|(&fid, &flags)| (fid, flags)))
                .collect();
            all.sort_unstable_by_key(|&(fid, _)| fid);
            all.into_iter().for_each(|(fid, flags)| check(fid, flags));
        }
        JobDag {
            job: self.job,
            comps: self.comps,
            comms: self.comms,
            programs: self.programs,
            echelons: self.echelons,
            coflows: self.coflows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_comp_dag(alloc: &mut IdAlloc) -> JobDag {
        let mut b = DagBuilder::new(JobId(0), alloc);
        let f1 = b.comp(NodeId(0), 1.0, CompKind::Forward, "F1", &[], &[]);
        let send = b.comm_op(
            &CollectiveOp::P2p {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 2.0,
            },
            Style::Direct,
            &[f1],
            &[],
        );
        let _g1 = b.comp(NodeId(1), 1.0, CompKind::Forward, "F1'", &[], &[send]);
        let flows = b.comms()[&send].flows().copied().collect::<Vec<_>>();
        b.declare_echelon(vec![flows.clone()], ArrangementFn::Coflow);
        b.declare_coflow(flows);
        b.build()
    }

    #[test]
    fn builds_and_reports() {
        let mut alloc = IdAlloc::new();
        let dag = two_comp_dag(&mut alloc);
        assert_eq!(dag.comps.len(), 2);
        assert_eq!(dag.comms.len(), 1);
        assert_eq!(dag.workers(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(dag.all_flows().len(), 1);
        assert_eq!(dag.total_bytes(), 2.0);
        assert_eq!(dag.echelons.len(), 1);
        assert_eq!(dag.coflows.len(), 1);
    }

    #[test]
    fn labels_print_their_parts() {
        let cases = [
            (CompLabel::from("F").index(3), "F3"),
            (CompLabel::from("B").index(2).iteration(0), "B2(i0)"),
            (CompLabel::from("U").iteration(1), "U(i1)"),
            (CompLabel::from("ARRIVAL"), "ARRIVAL"),
            (CompLabel::from("F1'"), "F1'"),
        ];
        for (label, text) in cases {
            assert_eq!(label.to_string(), text);
        }
        assert_eq!(
            std::mem::size_of::<CompLabel>(),
            std::mem::size_of::<String>()
        );
    }

    #[test]
    fn program_order_follows_insertion() {
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        let a = b.comp(NodeId(0), 1.0, CompKind::Forward, "a", &[], &[]);
        let c = b.comp(NodeId(0), 1.0, CompKind::Forward, "c", &[], &[]);
        let dag = b.build();
        assert_eq!(dag.programs[&NodeId(0)], vec![a, c]);
    }

    #[test]
    #[should_panic(expected = "unknown comp dependency")]
    fn unknown_dep_rejected() {
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        b.comp(NodeId(0), 1.0, CompKind::Forward, "x", &[CompId(99)], &[]);
    }

    #[test]
    #[should_panic(expected = "no EchelonFlow grouping")]
    fn ungrouped_flow_rejected() {
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        let _ = b.comm_op(
            &CollectiveOp::P2p {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1.0,
            },
            Style::Direct,
            &[],
            &[],
        );
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "grouped twice")]
    fn double_grouping_rejected() {
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        let send = b.comm_op(
            &CollectiveOp::P2p {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1.0,
            },
            Style::Direct,
            &[],
            &[],
        );
        let flows = b.comms()[&send].flows().copied().collect::<Vec<_>>();
        b.declare_echelon(vec![flows.clone()], ArrangementFn::Coflow);
        b.declare_echelon(vec![flows], ArrangementFn::Coflow);
    }

    #[test]
    #[should_panic(expected = "bad comp duration")]
    fn negative_duration_rejected() {
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        b.comp(NodeId(0), -1.0, CompKind::Forward, "x", &[], &[]);
    }
}
