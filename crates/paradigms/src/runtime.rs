//! Co-simulation of computation and communication.
//!
//! [`run_jobs`] executes one or more [`JobDag`]s on a shared network: each
//! worker runs its computation program strictly in order; a completed
//! computation releases the communication stages depending on it; flow
//! completions unblock downstream computations. Bandwidth is allocated by
//! a pluggable [`RatePolicy`] — the same trait the pure-flow runner uses —
//! recomputed at every release/completion event, so schedulers behave
//! identically whether driven by static demand sets or by a live job.
//!
//! The event loop is the shared [`echelon_simnet::driver`]; this module
//! contributes `JobSource`, the DAG-runtime [`WorkloadSource`]. Readiness
//! is tracked with *dependency counters and ready queues* rather than
//! fixpoint rescans: reverse dependency edges are built once per run, every
//! completion decrements exactly its dependents' counters, and units whose
//! counters hit zero enter id-ordered ready queues — so an event costs
//! O(dependents touched), not O(total DAG size).
//!
//! [`run_jobs_arriving`] additionally admits each job at its own arrival
//! time (the cluster workload shape): a job's workers and communication
//! units do not exist for the scheduler until the job is activated.
//!
//! The result records everything the paper's figures need: per-unit
//! computation spans (Fig. 1a timelines, idle fractions), flow release and
//! finish times (tardiness bookkeeping), and per-job makespans.

use crate::dag::{CompKind, JobDag};
use crate::ids::{CommId, CompId};
use echelon_core::JobId;
use echelon_sched::echelon::EchelonMadd;
use echelon_sched::varys::VarysMadd;
use echelon_simnet::alloc::AllocScratch;
use echelon_simnet::driver::{
    drive, drive_faulted, DriveStats, RateApply, RecomputeCadence, WorkloadSource,
};
use echelon_simnet::fault::{FaultKind, FaultPlan};
use echelon_simnet::flow::{FlowCompletion, FlowDemand};
use echelon_simnet::fluid::FluidNetwork;
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::runner::{RatePolicy, RecomputeMode};
use echelon_simnet::time::{SimTime, EPS};
use echelon_simnet::topology::Topology;
use echelon_simnet::trace::{FlowTrace, TraceEventKind};
use std::collections::{BTreeMap, BTreeSet};

/// Which declared grouping to schedule a job under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// The §4 EchelonFlow formulation (scheduled by [`EchelonMadd`]).
    Echelon,
    /// The plain Coflow formulation (scheduled by [`VarysMadd`]).
    Coflow,
}

/// Builds the matching scheduler over every declared group of `dags`.
pub fn make_policy(grouping: Grouping, dags: &[&JobDag]) -> Box<dyn RatePolicy> {
    match grouping {
        Grouping::Echelon => {
            let echelons = dags
                .iter()
                .flat_map(|d| d.echelons.iter().cloned())
                .collect();
            Box::new(EchelonMadd::new(echelons))
        }
        Grouping::Coflow => {
            let coflows = dags
                .iter()
                .flat_map(|d| d.coflows.iter().cloned())
                .collect();
            Box::new(VarysMadd::new(coflows))
        }
    }
}

/// An incremental job supplier for open-loop runs ([`run_jobs_streamed`]).
///
/// The runtime polls the feed instead of holding a pre-materialized DAG
/// slice: at every event where the feed wants an admission pass it asks
/// for jobs whose arrival time has come and whose admission test passes,
/// and it reports each job's retirement (all
/// units finished) so the feed can release queue slots, record completion
/// times, and emit lifecycle notifications (e.g. scheduler-registry
/// eviction). Worker claims are freed on retirement, so a host set can be
/// reused by later jobs — the memory the runtime holds is proportional to
/// the *concurrently admitted* jobs, not the total stream length.
pub trait JobFeed {
    /// Absolute time of the next new arrival, if the stream has more
    /// jobs. Pending-but-blocked jobs are *not* events: their admission
    /// is re-attempted at a later event whenever
    /// [`wants_admission`](Self::wants_admission) reports that the
    /// outcome may have changed (host-freeing always comes with an event
    /// and an [`on_job_retired`](Self::on_job_retired) call).
    fn next_event_at(&self) -> Option<SimTime>;

    /// Whether an [`admit`](Self::admit) call at `now` could admit
    /// anything. The runtime skips the pass, and building the
    /// claimed-worker set, when this is false. The default says yes when
    /// an arrival is due or blocked jobs are queued, i.e. a pass on every
    /// event while anything waits; a feed that can tell its blocked jobs
    /// are still blocked (nothing retired since a pass that admitted
    /// nothing) may say no.
    fn wants_admission(&self, now: SimTime) -> bool {
        self.next_event_at().is_some_and(|t| t.at_or_before(now)) || self.backlog() > 0
    }

    /// Offers admission at `now`: returns the jobs to admit, in admission
    /// order. `claimed` is the set of workers currently held by admitted,
    /// unfinished jobs; the feed must only return jobs whose workers are
    /// all unclaimed (and disjoint among the returned batch).
    ///
    /// The runtime claims exactly [`JobDag::workers`] of each admitted
    /// job. A host a job uses without running a program there — the
    /// parameter server of a PS data-parallel job — is never claimed, so
    /// a later pass may hand it to another job.
    fn admit(&mut self, now: SimTime, claimed: &BTreeSet<NodeId>) -> Vec<JobDag>;

    /// Notification that an admitted job retired (every computation and
    /// communication unit finished) at `now`.
    fn on_job_retired(&mut self, now: SimTime, job: JobId);

    /// True once no further admission will ever occur: the stream is dry
    /// and no job is queued.
    fn exhausted(&self) -> bool;

    /// Jobs generated but not yet admitted (waiting for hosts). Purely
    /// informational: sized the admission re-scan and the deadlock report.
    fn backlog(&self) -> usize {
        0
    }
}

/// A slot in the runtime's job arena: legacy entry points borrow their
/// DAGs for the whole run, feed-driven runs own them and drop each on
/// retirement (the bounded-memory half of the open-loop contract).
enum DagEntry<'a> {
    /// Borrowed from the caller (closed-loop entry points).
    Borrowed(&'a JobDag),
    /// Owned, admitted from a [`JobFeed`]; dropped at retirement.
    Owned(Box<JobDag>),
    /// Retired: every unit finished, the DAG released.
    Retired,
}

impl DagEntry<'_> {
    fn dag(&self) -> &JobDag {
        match self {
            DagEntry::Borrowed(d) => d,
            DagEntry::Owned(d) => d,
            DagEntry::Retired => panic!("retired job's DAG accessed"),
        }
    }
}

/// One bar of a worker timeline (Fig. 1a).
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// Worker the unit ran on.
    pub worker: NodeId,
    /// The computation unit.
    pub comp: CompId,
    /// Its label (e.g. `"F2"`).
    pub label: String,
    /// Its kind.
    pub kind: CompKind,
    /// Execution start.
    pub start: SimTime,
    /// Execution end.
    pub end: SimTime,
}

/// Everything measured during a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Start/end of every computation unit.
    pub comp_spans: BTreeMap<CompId, (SimTime, SimTime)>,
    /// Start (stage-0 release)/end of every communication unit.
    pub comm_spans: BTreeMap<CommId, (SimTime, SimTime)>,
    /// Release time of every flow.
    pub flow_releases: BTreeMap<FlowId, SimTime>,
    /// Finish time of every flow.
    pub flow_finishes: BTreeMap<FlowId, SimTime>,
    /// Completion time per job (last computation or flow of the job).
    pub job_makespans: BTreeMap<JobId, SimTime>,
    /// Time the whole simulation finished.
    pub makespan: SimTime,
    /// Seconds of computation executed per worker.
    pub worker_busy: BTreeMap<NodeId, f64>,
    /// Chronological worker timeline.
    pub timeline: Vec<TimelineEntry>,
    /// Per-flow release/rate/finish trace (regenerates the rate series of
    /// the paper's Fig. 2 sub-figures).
    pub trace: FlowTrace,
    /// Driver counters: rate recomputations performed and events skipped
    /// under the policy-reported recompute horizon.
    pub stats: DriveStats,
}

impl RunResult {
    /// Fraction of `[0, makespan]` a worker spent idle.
    pub fn idle_fraction(&self, worker: NodeId) -> f64 {
        let busy = self.worker_busy.get(&worker).copied().unwrap_or(0.0);
        let span = self.makespan.secs();
        if span <= 0.0 {
            0.0
        } else {
            (1.0 - busy / span).max(0.0)
        }
    }

    /// The timeline restricted to one worker.
    pub fn timeline_of(&self, worker: NodeId) -> Vec<&TimelineEntry> {
        self.timeline
            .iter()
            .filter(|e| e.worker == worker)
            .collect()
    }

    /// Finish time of the last computation unit (the paper's "comp finish
    /// time" in Fig. 2).
    pub fn comp_finish_time(&self) -> SimTime {
        self.comp_spans
            .values()
            .map(|&(_, end)| end)
            .fold(SimTime::ZERO, SimTime::max)
    }
}

#[derive(Debug)]
struct CommState {
    released_stages: usize,
    outstanding: usize,
    started: Option<SimTime>,
    done: bool,
}

/// Units unblocked by the completion of one unit: the dependent
/// computation units and communication ops whose counters it decrements.
#[derive(Debug, Default, Clone)]
struct Dependents {
    comps: Vec<CompId>,
    comms: Vec<CommId>,
}

/// The DAG-runtime [`WorkloadSource`]: computation programs, dependency
/// counters, staged communication ops, and per-job admission times.
struct JobSource<'a> {
    /// Job arena. Indices are stable (feed admissions append); retired
    /// slots hold [`DagEntry::Retired`] and are never read again.
    dags: Vec<DagEntry<'a>>,
    /// Incremental job supplier for open-loop runs; `None` on the legacy
    /// entry points (all DAGs admitted at construction).
    feed: Option<&'a mut dyn JobFeed>,
    /// Per-dag admission time ([`SimTime::ZERO`] when not arrival-driven).
    arrivals: Vec<SimTime>,
    /// Dag indices in ascending (arrival, index) order; `arrival_cursor`
    /// marks the next unactivated dag.
    arrival_order: Vec<usize>,
    arrival_cursor: usize,

    // Merged lookups (dag index per unit; flows to their comm/job).
    comp_of: BTreeMap<CompId, usize>,
    comm_of: BTreeMap<CommId, usize>,
    flow_to_comm: BTreeMap<FlowId, CommId>,
    job_of_flow: BTreeMap<FlowId, JobId>,
    worker_dag: BTreeMap<NodeId, usize>,

    /// Unresolved dependency count per unit. Built once; completions
    /// decrement via the reverse edges below — no rescans.
    comp_pending: BTreeMap<CompId, usize>,
    comm_pending: BTreeMap<CommId, usize>,
    /// Reverse dependency edges, built once per run.
    comp_dependents: BTreeMap<CompId, Dependents>,
    comm_dependents: BTreeMap<CommId, Dependents>,

    comm_state: BTreeMap<CommId, CommState>,
    /// In-flight computation units and their end times.
    running: BTreeMap<CompId, SimTime>,
    worker_busy_now: BTreeMap<NodeId, bool>,
    program_ptr: BTreeMap<NodeId, usize>,
    comp_starts: BTreeMap<CompId, SimTime>,
    /// Communication ops with a releasable stage (deps met or previous
    /// stage drained), released in ascending id order.
    ready_comms: BTreeSet<CommId>,
    /// Workers whose program head may have become startable.
    ready_workers: BTreeSet<NodeId>,
    /// Unfinished units (comps + comms) per admitted dag; a job whose
    /// count hits zero retires: its per-unit lookups are dropped and its
    /// worker claims freed for later arrivals.
    job_units_left: BTreeMap<usize, usize>,
    /// Set when a job retires during the current release pass; the feed
    /// admission scan re-runs so a blocked job can enter at this instant.
    retired_in_pass: bool,
    comps_done: usize,
    comms_done: usize,
    total_comps: usize,
    total_comms: usize,
    /// Force [`RecomputeCadence::EveryEvent`], ignoring policy horizons.
    /// The every-event reference run for the horizon differential tests.
    force_every_event: bool,
    /// Per-worker compute slowdown multipliers from
    /// [`FaultKind::WorkerSlowdown`] faults (absent = 1.0). Applied to
    /// the duration of units started after the fault and to the remaining
    /// time of units running when it strikes.
    slow_factor: BTreeMap<NodeId, f64>,
    result: RunResult,
}

impl<'a> JobSource<'a> {
    fn empty() -> JobSource<'a> {
        JobSource {
            dags: Vec::new(),
            feed: None,
            arrivals: Vec::new(),
            arrival_order: Vec::new(),
            arrival_cursor: 0,
            comp_of: BTreeMap::new(),
            comm_of: BTreeMap::new(),
            flow_to_comm: BTreeMap::new(),
            job_of_flow: BTreeMap::new(),
            worker_dag: BTreeMap::new(),
            comp_pending: BTreeMap::new(),
            comm_pending: BTreeMap::new(),
            comp_dependents: BTreeMap::new(),
            comm_dependents: BTreeMap::new(),
            comm_state: BTreeMap::new(),
            running: BTreeMap::new(),
            worker_busy_now: BTreeMap::new(),
            program_ptr: BTreeMap::new(),
            comp_starts: BTreeMap::new(),
            ready_comms: BTreeSet::new(),
            ready_workers: BTreeSet::new(),
            job_units_left: BTreeMap::new(),
            retired_in_pass: false,
            comps_done: 0,
            comms_done: 0,
            total_comps: 0,
            total_comms: 0,
            force_every_event: false,
            slow_factor: BTreeMap::new(),
            result: RunResult {
                comp_spans: BTreeMap::new(),
                comm_spans: BTreeMap::new(),
                flow_releases: BTreeMap::new(),
                flow_finishes: BTreeMap::new(),
                job_makespans: BTreeMap::new(),
                makespan: SimTime::ZERO,
                worker_busy: BTreeMap::new(),
                timeline: Vec::new(),
                trace: FlowTrace::new(),
                stats: DriveStats::default(),
            },
        }
    }

    fn new(dags: &'a [&'a JobDag], arrivals: Vec<SimTime>) -> JobSource<'a> {
        let mut source = JobSource::empty();
        source.arrival_order = {
            let mut order: Vec<usize> = (0..dags.len()).collect();
            order.sort_by(|&a, &b| arrivals[a].cmp(&arrivals[b]).then(a.cmp(&b)));
            order
        };
        source.arrivals = arrivals;
        for &dag in dags {
            source.admit_entry(DagEntry::Borrowed(dag));
        }
        source
    }

    fn with_feed(feed: &'a mut (dyn JobFeed + 'a)) -> JobSource<'a> {
        let mut source = JobSource::empty();
        source.feed = Some(feed);
        source
    }

    /// Indexes one job into the arena: lookups, dependency counters,
    /// reverse edges, worker claims, unit totals. Panics if a worker is
    /// already claimed by a live job — legacy entry points reach this from
    /// construction (disjointness validation), feed-driven runs only after
    /// the admission gate checked the claim set.
    fn admit_entry(&mut self, entry: DagEntry<'a>) -> usize {
        let di = self.dags.len();
        self.dags.push(entry);
        let dag = self.dags[di].dag();
        for w in dag.workers() {
            if let Some(&prev) = self.worker_dag.get(&w) {
                let prev = self.dags[prev].dag().job;
                panic!("worker {w} claimed by both {prev} and {}", dag.job);
            }
            self.worker_dag.insert(w, di);
            self.worker_busy_now.insert(w, false);
            self.program_ptr.insert(w, 0);
        }
        for (&id, unit) in &dag.comps {
            self.comp_of.insert(id, di);
            self.comp_pending
                .insert(id, unit.deps_comp.len() + unit.deps_comm.len());
            for &d in &unit.deps_comp {
                self.comp_dependents.entry(d).or_default().comps.push(id);
            }
            for &d in &unit.deps_comm {
                self.comm_dependents.entry(d).or_default().comps.push(id);
            }
        }
        for (&id, comm) in &dag.comms {
            self.comm_of.insert(id, di);
            self.comm_pending
                .insert(id, comm.deps_comp.len() + comm.deps_comm.len());
            for &d in &comm.deps_comp {
                self.comp_dependents.entry(d).or_default().comms.push(id);
            }
            for &d in &comm.deps_comm {
                self.comm_dependents.entry(d).or_default().comms.push(id);
            }
            self.comm_state.insert(
                id,
                CommState {
                    released_stages: 0,
                    outstanding: 0,
                    started: None,
                    done: false,
                },
            );
            for f in comm.flows() {
                self.flow_to_comm.insert(f.id, id);
                self.job_of_flow.insert(f.id, dag.job);
            }
        }
        self.total_comps += dag.comps.len();
        self.total_comms += dag.comms.len();
        self.job_units_left
            .insert(di, dag.comps.len() + dag.comms.len());
        di
    }

    /// Admits a feed-supplied job at `now`: index, activate, and — for a
    /// degenerate job with no units at all — retire on the spot.
    fn admit_dag(&mut self, dag: JobDag, now: SimTime) {
        let di = self.admit_entry(DagEntry::Owned(Box::new(dag)));
        self.activate(di);
        if self.job_units_left.get(&di) == Some(&0) {
            self.retire_job(di, now);
        }
    }

    /// Decrements a job's unfinished-unit count, retiring it at zero.
    fn note_unit_done(&mut self, di: usize, now: SimTime) {
        let left = self.job_units_left.get_mut(&di).expect("live job");
        *left -= 1;
        if *left == 0 {
            self.retire_job(di, now);
        }
    }

    /// Retires a finished job: every per-unit lookup is dropped, its
    /// worker claims are freed (later arrivals may reuse the hosts), and
    /// an owned DAG is released. Bounded memory for open-loop runs; for
    /// legacy runs this is pure cleanup with no observable effect.
    fn retire_job(&mut self, di: usize, now: SimTime) {
        let entry = std::mem::replace(&mut self.dags[di], DagEntry::Retired);
        let dag = entry.dag();
        let job = dag.job;
        for w in dag.workers() {
            self.worker_dag.remove(&w);
            self.worker_busy_now.remove(&w);
            self.program_ptr.remove(&w);
            self.ready_workers.remove(&w);
        }
        for &id in dag.comps.keys() {
            self.comp_of.remove(&id);
            self.comp_pending.remove(&id);
            self.comp_dependents.remove(&id);
            self.comp_starts.remove(&id);
        }
        for (&id, comm) in &dag.comms {
            self.comm_of.remove(&id);
            self.comm_pending.remove(&id);
            self.comm_dependents.remove(&id);
            self.comm_state.remove(&id);
            self.ready_comms.remove(&id);
            for f in comm.flows() {
                self.flow_to_comm.remove(&f.id);
                self.job_of_flow.remove(&f.id);
            }
        }
        self.job_units_left.remove(&di);
        // A unit-less job still completes: its makespan is its admission.
        self.result.job_makespans.entry(job).or_insert(now);
        drop(entry);
        self.retired_in_pass = true;
        if let Some(feed) = self.feed.as_deref_mut() {
            feed.on_job_retired(now, job);
        }
    }

    /// One feed admission pass: collect the current worker claims, let
    /// the feed admit every due, unblocked job, and index each.
    fn admit_from_feed(&mut self, now: SimTime) {
        let Some(feed) = self.feed.as_deref_mut() else {
            return;
        };
        if !feed.wants_admission(now) {
            return;
        }
        let claimed: BTreeSet<NodeId> = self.worker_dag.keys().copied().collect();
        let admitted = self
            .feed
            .as_deref_mut()
            .expect("feed mode")
            .admit(now, &claimed);
        for dag in admitted {
            self.admit_dag(dag, now);
        }
    }

    /// Admits dag `idx`: its workers and dependency-free communication
    /// ops enter the ready queues.
    fn activate(&mut self, idx: usize) {
        let dag = self.dags[idx].dag();
        for w in dag.workers() {
            self.ready_workers.insert(w);
        }
        for &cid in dag.comms.keys() {
            if self.comm_pending[&cid] == 0 {
                self.ready_comms.insert(cid);
            }
        }
    }

    /// A completed computation unit unblocks its dependents: counters
    /// decrement, and units that reach zero enter the ready queues.
    fn resolve_comp(&mut self, id: CompId) {
        let Some(deps) = self.comp_dependents.get(&id) else {
            return;
        };
        let deps = deps.clone();
        for c in deps.comps {
            let p = self.comp_pending.get_mut(&c).expect("known comp");
            *p -= 1;
            if *p == 0 {
                // Startable once it is also at its program head; the
                // worker queue re-checks that.
                let di = self.comp_of[&c];
                self.ready_workers
                    .insert(self.dags[di].dag().comps[&c].worker);
            }
        }
        for m in deps.comms {
            let p = self.comm_pending.get_mut(&m).expect("known comm");
            *p -= 1;
            if *p == 0 {
                self.ready_comms.insert(m);
            }
        }
    }

    /// Same as [`Self::resolve_comp`] for a completed communication op.
    fn resolve_comm(&mut self, id: CommId) {
        let Some(deps) = self.comm_dependents.get(&id) else {
            return;
        };
        let deps = deps.clone();
        for c in deps.comps {
            let p = self.comp_pending.get_mut(&c).expect("known comp");
            *p -= 1;
            if *p == 0 {
                let di = self.comp_of[&c];
                self.ready_workers
                    .insert(self.dags[di].dag().comps[&c].worker);
            }
        }
        for m in deps.comms {
            let p = self.comm_pending.get_mut(&m).expect("known comm");
            *p -= 1;
            if *p == 0 {
                self.ready_comms.insert(m);
            }
        }
    }

    /// The current compute slowdown multiplier of a worker (1.0 unless a
    /// [`FaultKind::WorkerSlowdown`] changed it).
    fn slow_of(&self, w: NodeId) -> f64 {
        self.slow_factor.get(&w).copied().unwrap_or(1.0)
    }

    /// Completes a running computation unit at `now`.
    fn finish_comp(&mut self, id: CompId, now: SimTime) {
        self.running.remove(&id);
        let di = self.comp_of[&id];
        let dag = self.dags[di].dag();
        let unit = &dag.comps[&id];
        let worker = unit.worker;
        let start = self.comp_starts[&id];
        self.result.comp_spans.insert(id, (start, now));
        self.result.timeline.push(TimelineEntry {
            worker,
            comp: id,
            label: unit.label.clone(),
            kind: unit.kind,
            start,
            end: now,
        });
        // Wall time actually occupied (equals the nominal duration unless
        // a WorkerSlowdown fault stretched the unit mid-flight).
        *self.result.worker_busy.entry(worker).or_insert(0.0) += (now - start).max(0.0);
        let e = self
            .result
            .job_makespans
            .entry(dag.job)
            .or_insert(SimTime::ZERO);
        *e = (*e).max(now);
        self.comps_done += 1;
        self.worker_busy_now.insert(worker, false);
        *self.program_ptr.get_mut(&worker).expect("known worker") += 1;
        self.ready_workers.insert(worker);
        self.resolve_comp(id);
        self.note_unit_done(di, now);
    }

    /// Marks a communication op complete (last flow of its last stage).
    fn finish_comm(&mut self, cid: CommId, now: SimTime) {
        let di = self.comm_of[&cid];
        let st = self.comm_state.get_mut(&cid).expect("known comm");
        st.done = true;
        let started = st.started.expect("started comm");
        self.result.comm_spans.insert(cid, (started, now));
        self.comms_done += 1;
        self.resolve_comm(cid);
        self.note_unit_done(di, now);
    }

    /// Releases the next stage of a ready communication op.
    fn release_stage(&mut self, cid: CommId, now: SimTime, net: &mut FluidNetwork) {
        let dag = self.dags[self.comm_of[&cid]].dag();
        let comm = &dag.comms[&cid];
        let st = self.comm_state.get_mut(&cid).expect("known comm");
        debug_assert!(
            !st.done && st.outstanding == 0 && st.released_stages < comm.stages.len(),
            "{cid} not in a releasable state"
        );
        if st.started.is_none() {
            st.started = Some(now);
        }
        let stage = &comm.stages[st.released_stages];
        st.released_stages += 1;
        st.outstanding = stage.flows.len();
        for f in &stage.flows {
            net.release(&FlowDemand::new(f.id, f.src, f.dst, f.size, now));
            self.result.flow_releases.insert(f.id, now);
            self.result
                .trace
                .record(now, f.id, TraceEventKind::Released);
        }
    }

    /// Starts the program head of `worker` if it is unblocked, completing
    /// zero-duration units (barriers) inline and continuing down the
    /// program.
    fn advance_program(&mut self, worker: NodeId, now: SimTime) {
        // Re-resolved every iteration: a zero-duration unit completed
        // inline can retire the whole job, dropping the worker's claim
        // mid-loop.
        loop {
            let Some(&di) = self.worker_dag.get(&worker) else {
                return;
            };
            if self.worker_busy_now[&worker] {
                return;
            }
            let ptr = self.program_ptr[&worker];
            let dag = self.dags[di].dag();
            let Some(program) = dag.programs.get(&worker) else {
                return;
            };
            let Some(&head) = program.get(ptr) else {
                return;
            };
            if self.comp_pending[&head] > 0 {
                return;
            }
            let unit = &dag.comps[&head];
            let duration = unit.duration;
            self.comp_starts.insert(head, now);
            if duration <= EPS {
                // Instantaneous unit (barrier): complete now. Bookkeeping
                // mirrors the non-zero path except worker-busy seconds and
                // job makespans, which a zero-length span cannot move.
                self.result.comp_spans.insert(head, (now, now));
                self.result.timeline.push(TimelineEntry {
                    worker,
                    comp: head,
                    label: unit.label.clone(),
                    kind: unit.kind,
                    start: now,
                    end: now,
                });
                self.comps_done += 1;
                *self.program_ptr.get_mut(&worker).expect("known worker") += 1;
                self.resolve_comp(head);
                self.note_unit_done(di, now);
                continue;
            }
            self.worker_busy_now.insert(worker, true);
            self.running
                .insert(head, now + duration * self.slow_of(worker));
            return;
        }
    }
}

impl WorkloadSource for JobSource<'_> {
    fn release_due(&mut self, now: SimTime, net: &mut FluidNetwork, _trace: &mut FlowTrace) {
        // Admit jobs whose arrival time has come.
        while self.arrival_cursor < self.arrival_order.len() {
            let idx = self.arrival_order[self.arrival_cursor];
            if !self.arrivals[idx].at_or_before(now) {
                break;
            }
            self.arrival_cursor += 1;
            self.activate(idx);
        }
        // Complete computation units whose end time has arrived, in
        // ascending id order.
        let due: Vec<CompId> = self
            .running
            .iter()
            .filter(|(_, end)| end.at_or_before(now))
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            self.finish_comp(id, now);
        }
        // Feed admission, then cascade newly ready stages and program
        // heads to a fixpoint. Comms drain first (releasing flows as
        // early as possible within the instant); zero-duration
        // computations completed inline by `advance_program` can ready
        // further comms, so alternate until both queues are empty. Id
        // order keeps this deterministic. A retirement inside the cascade
        // frees worker claims, so the admission pass re-runs until no
        // further job retires at this instant.
        loop {
            self.admit_from_feed(now);
            self.retired_in_pass = false;
            loop {
                if let Some(&cid) = self.ready_comms.iter().next() {
                    self.ready_comms.remove(&cid);
                    self.release_stage(cid, now, net);
                    continue;
                }
                if let Some(&w) = self.ready_workers.iter().next() {
                    self.ready_workers.remove(&w);
                    self.advance_program(w, now);
                    continue;
                }
                break;
            }
            if self.feed.is_none() || !self.retired_in_pass {
                break;
            }
        }
    }

    fn finished(&self) -> bool {
        let feed_dry = match &self.feed {
            Some(feed) => feed.exhausted(),
            None => true,
        };
        feed_dry && self.comps_done == self.total_comps && self.comms_done == self.total_comms
    }

    fn next_event_in(&self, now: SimTime) -> Option<f64> {
        let dt_comp = self.running.values().min().map(|end| (*end - now).max(0.0));
        let dt_arrival = self
            .arrival_order
            .get(self.arrival_cursor)
            .map(|&idx| (self.arrivals[idx] - now).max(0.0));
        let dt_feed = self
            .feed
            .as_ref()
            .and_then(|feed| feed.next_event_at())
            .map(|t| (t - now).max(0.0));
        [dt_comp, dt_arrival, dt_feed]
            .into_iter()
            .flatten()
            .reduce(f64::min)
    }

    fn on_flow_completions(
        &mut self,
        now: SimTime,
        done: &[FlowCompletion],
        _net: &mut FluidNetwork,
        _trace: &mut FlowTrace,
    ) {
        for c in done {
            self.result.flow_finishes.insert(c.id, now);
            self.result
                .trace
                .record(now, c.id, TraceEventKind::Finished);
            if let Some(job) = self.job_of_flow.get(&c.id) {
                let e = self
                    .result
                    .job_makespans
                    .entry(*job)
                    .or_insert(SimTime::ZERO);
                *e = (*e).max(now);
            }
            let cid = self.flow_to_comm[&c.id];
            let stages = self.dags[self.comm_of[&cid]].dag().comms[&cid].stages.len();
            let st = self.comm_state.get_mut(&cid).expect("known comm");
            st.outstanding -= 1;
            if st.outstanding == 0 {
                if st.released_stages == stages {
                    self.finish_comm(cid, now);
                } else {
                    // Next stage releases at this same instant, in the
                    // cascade at the top of the next driver iteration.
                    self.ready_comms.insert(cid);
                }
            }
        }
    }

    /// Unlike the pure-flow runner, rates may need recomputing at events
    /// that leave the flow set unchanged (computation completions pass
    /// time, and tardiness-driven orderings shift as time passes). The
    /// policy knows best: under [`RecomputeCadence::PolicyHorizon`] the
    /// driver asks [`RatePolicy::horizon`] after each recomputation and
    /// skips allocation until the horizon passes or the flow set changes.
    /// Policies that cannot certify a horizon (the MADD engines, whose
    /// remaining-proportional rates are not a floating-point fixed point)
    /// keep the default [`AllocHorizon::NextEvent`][horizon] and behave
    /// exactly as before.
    ///
    /// [horizon]: echelon_simnet::runner::AllocHorizon::NextEvent
    fn cadence(&self) -> RecomputeCadence {
        if self.force_every_event {
            RecomputeCadence::EveryEvent
        } else {
            RecomputeCadence::PolicyHorizon
        }
    }

    /// The source records releases/rates/finishes into its own
    /// [`RunResult`] trace (the driver's copy would duplicate it).
    fn wants_trace(&self) -> bool {
        false
    }

    fn allocate(
        &mut self,
        policy: &mut dyn RatePolicy,
        mode: RecomputeMode,
        now: SimTime,
        flows: &[echelon_simnet::flow::ActiveFlowView],
        delta: &echelon_simnet::fluid::FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) -> RateApply {
        match mode {
            RecomputeMode::Full => policy.allocate_dense(now, flows, topo, ws, out),
            RecomputeMode::Incremental => {
                policy.allocate_dense_incremental(now, flows, delta, topo, ws, out);
            }
        }
        // Record the applied rates here (rather than via the driver's
        // trace) so the trace lands in the same [`RunResult`] as the rest
        // of the bookkeeping. Horizon-skipped events record nothing; the
        // every-event reference records bit-identical rates there, which
        // `record_rate`'s dedup drops — so the traces stay identical.
        for (v, &rate) in flows.iter().zip(out.iter()) {
            self.result.trace.record_rate(now, v, rate.max(0.0));
        }
        // The rate trace above reads every entry of `out`, so this
        // source always requests the fully populated dense contract.
        RateApply::Dense
    }

    /// Straggler injection: a [`FaultKind::WorkerSlowdown`] rescales the
    /// remaining time of the unit running on that worker and the duration
    /// of every unit it starts afterwards. Factors replace (not compose
    /// with) the previous one, mirroring capacity factors scaling from
    /// base capacity.
    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        let FaultKind::WorkerSlowdown { worker, factor } = fault else {
            return;
        };
        let old = self.slow_of(*worker);
        self.slow_factor.insert(*worker, *factor);
        for (id, end) in self.running.iter_mut() {
            let unit_worker = self.dags[self.comp_of[id]].dag().comps[id].worker;
            if unit_worker == *worker {
                let left = (*end - now).max(0.0);
                *end = now + left * (factor / old);
            }
        }
    }

    fn deadlock_context(&self) -> String {
        let pending: Vec<String> = self
            .comm_state
            .iter()
            .filter(|(_, st)| !st.done)
            .map(|(id, st)| format!("{id}@stage{}", st.released_stages))
            .collect();
        let feed_note = match &self.feed {
            Some(feed) => format!(
                "; feed backlog: {} (exhausted: {})",
                feed.backlog(),
                feed.exhausted()
            ),
            None => String::new(),
        };
        format!(
            "{}/{} comps, {}/{} comms done; pending comms: {pending:?}{feed_note}",
            self.comps_done, self.total_comps, self.comms_done, self.total_comms
        )
    }
}

/// Runs a single job to completion (convenience wrapper).
pub fn run_job(topo: &Topology, dag: &JobDag, policy: &mut dyn RatePolicy) -> RunResult {
    run_jobs(topo, &[dag], policy)
}

/// Like [`run_job`], but selecting the policy recompute mode.
pub fn run_job_with(
    topo: &Topology,
    dag: &JobDag,
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> RunResult {
    run_jobs_with(topo, &[dag], policy, mode)
}

/// Runs several jobs sharing the network to completion, using the
/// full-recompute path. Shorthand for [`run_jobs_with`] with
/// [`RecomputeMode::Full`].
pub fn run_jobs(topo: &Topology, dags: &[&JobDag], policy: &mut dyn RatePolicy) -> RunResult {
    run_jobs_with(topo, dags, policy, RecomputeMode::Full)
}

/// Runs several jobs sharing the network to completion.
///
/// `mode` selects which [`RatePolicy`] entry point is driven at each
/// event; `Full` and `Incremental` must produce bit-identical results
/// (see `tests/differential.rs` at the workspace root).
///
/// # Panics
///
/// Panics if two jobs claim the same worker, or if the simulation
/// deadlocks (a dependency cycle or a policy that starves all flows).
pub fn run_jobs_with(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> RunResult {
    run_jobs_impl(topo, dags, vec![SimTime::ZERO; dags.len()], policy, mode)
}

/// Runs several jobs with per-job admission times: job `i` is invisible to
/// the simulation until `arrivals[i]` — its workers sit idle and its
/// communication ops cannot release, exactly like a job that has not been
/// submitted yet. This is the cluster-arrival workload shape, without the
/// synthetic gate computation units `delay_start` would splice in.
///
/// # Panics
///
/// Panics if `arrivals.len() != dags.len()`, or for the same reasons as
/// [`run_jobs_with`].
pub fn run_jobs_arriving(
    topo: &Topology,
    dags: &[&JobDag],
    arrivals: &[SimTime],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> RunResult {
    assert_eq!(
        arrivals.len(),
        dags.len(),
        "one arrival time per job dag required"
    );
    run_jobs_impl(topo, dags, arrivals.to_vec(), policy, mode)
}

/// Like [`run_jobs_with`], but forcing a rate recomputation at every
/// event, ignoring any [`horizon`](RatePolicy::horizon) the policy
/// reports. This is the reference run for the horizon differential
/// tests: its trace must be bit-identical to the horizon-skipping run of
/// [`run_jobs_with`].
pub fn run_jobs_every_event(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> RunResult {
    let mut source = JobSource::new(dags, vec![SimTime::ZERO; dags.len()]);
    source.force_every_event = true;
    finish_run(drive(topo, &mut source, policy, mode), source)
}

/// [`run_jobs_with`] under an injected [`FaultPlan`]: link churn,
/// coordinator outages, and worker slowdowns strike at their scheduled
/// times while the jobs run (see [`echelon_simnet::fault`]).
///
/// # Panics
///
/// Panics for the same reasons as [`run_jobs_with`], plus the deadlock
/// panic if the plan downs a link forever while unfinished flows depend
/// on it.
pub fn run_jobs_faulted(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
    plan: &FaultPlan,
) -> RunResult {
    let mut source = JobSource::new(dags, vec![SimTime::ZERO; dags.len()]);
    finish_run(drive_faulted(topo, &mut source, policy, mode, plan), source)
}

/// [`run_jobs_faulted`] forcing a rate recomputation at every event — the
/// naive full-recompute reference for the fault differential suite.
pub fn run_jobs_faulted_every_event(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
    plan: &FaultPlan,
) -> RunResult {
    let mut source = JobSource::new(dags, vec![SimTime::ZERO; dags.len()]);
    source.force_every_event = true;
    finish_run(drive_faulted(topo, &mut source, policy, mode, plan), source)
}

/// [`run_jobs_arriving`] under an injected [`FaultPlan`].
pub fn run_jobs_arriving_faulted(
    topo: &Topology,
    dags: &[&JobDag],
    arrivals: &[SimTime],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
    plan: &FaultPlan,
) -> RunResult {
    assert_eq!(
        arrivals.len(),
        dags.len(),
        "one arrival time per job dag required"
    );
    let mut source = JobSource::new(dags, arrivals.to_vec());
    finish_run(drive_faulted(topo, &mut source, policy, mode, plan), source)
}

/// Runs an open-loop service: jobs are admitted incrementally from
/// `feed` (see [`JobFeed`]) instead of being pre-materialized, each job's
/// bookkeeping and DAG are dropped when it retires, and its worker claims
/// are freed so later arrivals can reuse the hosts. `plan` injects faults
/// while the stream runs (pass [`FaultPlan::empty`] for a fault-free
/// drive).
///
/// A feed replayed as a pre-materialized batch through the same admission
/// gate produces a bit-identical simulation: admission, release and
/// completion events depend only on the gate decisions, which both modes
/// share.
///
/// # Panics
///
/// Panics if the feed admits a job whose worker is still claimed, or if
/// the simulation deadlocks (e.g. the feed holds a job whose hosts are
/// never freed).
pub fn run_jobs_streamed<'a>(
    topo: &Topology,
    feed: &'a mut (dyn JobFeed + 'a),
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
    plan: &FaultPlan,
) -> RunResult {
    let mut source = JobSource::with_feed(feed);
    finish_run(drive_faulted(topo, &mut source, policy, mode, plan), source)
}

fn run_jobs_impl(
    topo: &Topology,
    dags: &[&JobDag],
    arrivals: Vec<SimTime>,
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> RunResult {
    let mut source = JobSource::new(dags, arrivals);
    finish_run(drive(topo, &mut source, policy, mode), source)
}

fn finish_run(outcome: echelon_simnet::driver::DriveOutcome, source: JobSource<'_>) -> RunResult {
    let mut result = source.result;
    result.makespan = outcome.end;
    result.stats = outcome.stats;
    result
        .timeline
        .sort_by(|a, b| a.start.cmp(&b.start).then(a.comp.cmp(&b.comp)));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{CompKind, DagBuilder};
    use crate::ids::IdAlloc;
    use echelon_collectives::{CollectiveOp, Style};
    use echelon_core::arrangement::ArrangementFn;
    use echelon_simnet::runner::MaxMinPolicy;

    /// comp(1s) → 2B flow → comp(1s) on a unit link: makespan 4.
    fn relay_dag(alloc: &mut IdAlloc) -> JobDag {
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
        b.comp(NodeId(1), 1.0, CompKind::Forward, "F1'", &[], &[send]);
        let flows = b.comms()[&send].flows().copied().collect::<Vec<_>>();
        b.declare_echelon(vec![flows.clone()], ArrangementFn::Coflow);
        b.declare_coflow(flows);
        b.build()
    }

    #[test]
    fn relay_timing() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let out = run_job(&topo, &dag, &mut MaxMinPolicy);
        // F1: [0,1]; flow: [1,3]; F1': [3,4].
        assert!(out.makespan.approx_eq(SimTime::new(4.0)));
        assert!(out.comp_finish_time().approx_eq(SimTime::new(4.0)));
        let flow_id = dag.all_flows()[0].id;
        assert!(out.flow_releases[&flow_id].approx_eq(SimTime::new(1.0)));
        assert!(out.flow_finishes[&flow_id].approx_eq(SimTime::new(3.0)));
        // Worker 1 idles 3 of 4 seconds.
        assert!((out.idle_fraction(NodeId(1)) - 0.75).abs() < 1e-9);
        assert!((out.idle_fraction(NodeId(0)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn timeline_is_chronological() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let out = run_job(&topo, &dag, &mut MaxMinPolicy);
        assert_eq!(out.timeline.len(), 2);
        assert!(out.timeline[0].start.at_or_before(out.timeline[1].start));
        assert_eq!(out.timeline_of(NodeId(0)).len(), 1);
    }

    #[test]
    fn ring_allreduce_runs_through_stages() {
        // 3 workers, gradient bucket of 3 bytes: ring all-reduce has 4
        // stages of 3 chunk flows (1 byte each).
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        let workers = vec![NodeId(0), NodeId(1), NodeId(2)];
        let mut deps = Vec::new();
        for &w in &workers {
            deps.push(b.comp(w, 1.0, CompKind::Backward, "B", &[], &[]));
        }
        let ar = b.comm_op(
            &CollectiveOp::AllReduce {
                participants: workers.clone(),
                bytes: 3.0,
            },
            Style::Ring,
            &deps,
            &[],
        );
        for &w in &workers {
            b.comp(w, 0.5, CompKind::Update, "U", &[], &[ar]);
        }
        let flows = b.comms()[&ar].flows().copied().collect::<Vec<_>>();
        b.declare_echelon(vec![flows.clone()], ArrangementFn::Coflow);
        b.declare_coflow(flows);
        let dag = b.build();

        let topo = Topology::big_switch_uniform(3, 1.0);
        let out = run_job(&topo, &dag, &mut MaxMinPolicy);
        // Backward [0,1]; 4 ring stages of 1-byte chunks, each at full
        // port rate (disjoint src/dst pairs): 1s per stage → comm [1,5];
        // update [5,5.5].
        assert!(
            out.makespan.approx_eq(SimTime::new(5.5)),
            "{:?}",
            out.makespan
        );
        let (start, end) = out.comm_spans[&ar];
        assert!(start.approx_eq(SimTime::new(1.0)));
        assert!(end.approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn zero_duration_barrier_completes_instantly() {
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        let a = b.comp(NodeId(0), 1.0, CompKind::Forward, "F", &[], &[]);
        let bar = b.comp(NodeId(0), 0.0, CompKind::Update, "barrier", &[a], &[]);
        b.comp(NodeId(0), 1.0, CompKind::Backward, "B", &[bar], &[]);
        let dag = b.build();
        let topo = Topology::big_switch_uniform(1, 1.0);
        let out = run_job(&topo, &dag, &mut MaxMinPolicy);
        assert!(out.makespan.approx_eq(SimTime::new(2.0)));
        assert_eq!(out.timeline.len(), 3);
    }

    #[test]
    fn two_jobs_share_network() {
        let mut alloc = IdAlloc::new();
        let dag0 = relay_dag(&mut alloc);
        // Second job on workers 2,3 but its flow shares no port: runs
        // identically in parallel.
        let mut b = DagBuilder::new(JobId(1), &mut alloc);
        let f1 = b.comp(NodeId(2), 1.0, CompKind::Forward, "F1", &[], &[]);
        let send = b.comm_op(
            &CollectiveOp::P2p {
                src: NodeId(2),
                dst: NodeId(3),
                bytes: 2.0,
            },
            Style::Direct,
            &[f1],
            &[],
        );
        b.comp(NodeId(3), 1.0, CompKind::Forward, "F1'", &[], &[send]);
        let flows = b.comms()[&send].flows().copied().collect::<Vec<_>>();
        b.declare_echelon(vec![flows.clone()], ArrangementFn::Coflow);
        b.declare_coflow(flows);
        let dag1 = b.build();

        let topo = Topology::big_switch_uniform(4, 1.0);
        let out = run_jobs(&topo, &[&dag0, &dag1], &mut MaxMinPolicy);
        assert!(out.job_makespans[&JobId(0)].approx_eq(SimTime::new(4.0)));
        assert!(out.job_makespans[&JobId(1)].approx_eq(SimTime::new(4.0)));
    }

    #[test]
    fn arriving_job_starts_no_earlier_than_its_admission() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let out = run_jobs_arriving(
            &topo,
            &[&dag],
            &[SimTime::new(2.5)],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
        );
        // The whole schedule shifts by the admission time: F1 [2.5,3.5];
        // flow [3.5,5.5]; F1' [5.5,6.5].
        assert!(
            out.makespan.approx_eq(SimTime::new(6.5)),
            "{:?}",
            out.makespan
        );
        let flow_id = dag.all_flows()[0].id;
        assert!(out.flow_releases[&flow_id].approx_eq(SimTime::new(3.5)));
        for (start, _) in out.comp_spans.values() {
            assert!(
                SimTime::new(2.5).at_or_before(*start),
                "comp started at {start:?} before admission"
            );
        }
    }

    #[test]
    fn zero_arrivals_match_plain_run() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let plain = run_job(&topo, &dag, &mut MaxMinPolicy);
        let arriving = run_jobs_arriving(
            &topo,
            &[&dag],
            &[SimTime::ZERO],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
        );
        assert_eq!(plain.trace.events(), arriving.trace.events());
        assert_eq!(plain.makespan, arriving.makespan);
    }

    #[test]
    #[should_panic(expected = "claimed by both")]
    fn overlapping_workers_rejected() {
        let mut alloc = IdAlloc::new();
        let dag0 = relay_dag(&mut alloc);
        let dag1 = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let _ = run_jobs(&topo, &[&dag0, &dag1], &mut MaxMinPolicy);
    }

    #[test]
    fn worker_slowdown_stretches_running_and_future_comps() {
        // relay_dag: comp(1s)@w0 → 2B flow → comp(1s)@w1, makespan 4.
        // Slowing w0 by 2× at t=0.5 stretches the running unit's second
        // half to 1s (F1 ends at 1.5); the flow and w1 are untouched:
        // makespan 1.5 + 2 + 1 = 4.5.
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let plan = FaultPlan::empty().with(
            SimTime::new(0.5),
            FaultKind::WorkerSlowdown {
                worker: NodeId(0),
                factor: 2.0,
            },
        );
        let out = run_jobs_faulted(
            &topo,
            &[&dag],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
            &plan,
        );
        assert!(out.makespan.approx_eq(SimTime::new(4.5)));
        // Busy accounting reflects the stretched wall time.
        assert!((out.worker_busy[&NodeId(0)] - 1.5).abs() < 1e-9);
        assert!((out.worker_busy[&NodeId(1)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn link_churn_delays_relay_and_reports_stall() {
        // The relay's only flow crosses the 0→1 link; downing it for a
        // second mid-transfer shifts the makespan by exactly that second.
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let r = echelon_simnet::ids::ResourceId(0);
        let plan = FaultPlan::empty()
            .with(SimTime::new(1.5), FaultKind::LinkDown(r))
            .with(SimTime::new(2.5), FaultKind::LinkRestore(r));
        let out = run_jobs_faulted(
            &topo,
            &[&dag],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
            &plan,
        );
        assert!(out.makespan.approx_eq(SimTime::new(5.0)));
        assert!((out.stats.stall_flow_seconds - 1.0).abs() < 1e-9);
        assert_eq!(out.stats.fault_events, 2);
    }

    #[test]
    fn grouping_policy_construction() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let mut p1 = make_policy(Grouping::Echelon, &[&dag]);
        let out1 = run_job(&topo, &dag, p1.as_mut());
        let mut p2 = make_policy(Grouping::Coflow, &[&dag]);
        let out2 = run_job(&topo, &dag, p2.as_mut());
        // A single flow behaves identically under both.
        assert!(out1.makespan.approx_eq(out2.makespan));
    }
}
