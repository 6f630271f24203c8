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
//! fixpoint rescans: each job's units get dense indices at admission, its
//! reverse dependency edges are built once, every completion decrements
//! exactly its dependents' counters, and units whose counters hit zero
//! enter id-ordered ready queues. Running computations sit in a min-queue
//! keyed by `(end, id)`. So an event costs O(dependents touched), not
//! O(total DAG size) or O(running units), and a job's state is freed when
//! it retires.
//!
//! A job enters in one of two ways, both through the same admission
//! step: [`run_jobs`] admits a closed batch at construction (t = 0; a
//! later start is an arrival gate spliced into the DAG), and
//! [`run_jobs_fed`] admits each DAG when a [`JobFeed`] hands it over,
//! with the trace off.
//!
//! The result records everything the paper's figures need: per-unit
//! computation spans (Fig. 1a timelines, idle fractions), flow release and
//! finish times (tardiness bookkeeping), and per-job makespans.

use crate::dag::{CompKind, CompUnit, JobDag};
use crate::ids::{CommId, CompId};
use echelon_core::JobId;
use echelon_simnet::driver::{drive, DriveStats, WorkloadSource};
use echelon_simnet::fault::{FaultKind, FaultPlan};
use echelon_simnet::flow::{FlowCompletion, FlowDemand};
use echelon_simnet::fluid::FluidNetwork;
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::runner::{RatePolicy, RecomputeMode, RunConfig};
use echelon_simnet::time::{SimTime, EPS};
use echelon_simnet::topology::Topology;
use echelon_simnet::trace::{FlowTrace, TraceEventKind};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// An incremental job supplier for open-loop runs ([`run_jobs_fed`]).
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
///
/// The per-unit history — `comp_spans`, `comm_spans`, `timeline` — and
/// the flow `trace` are kept only when the run traces
/// ([`echelon_simnet::driver::DriveConfig::trace`]): the default config
/// does, and a fed run ([`run_jobs_fed`]) does not, so an open-loop run
/// holds no record per unit or per rate change. The flow releases and
/// finishes, job makespans and worker busy seconds are kept either way.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Start/end of every computation unit. Empty when the run's trace
    /// is off.
    pub comp_spans: BTreeMap<CompId, (SimTime, SimTime)>,
    /// Start (stage-0 release)/end of every communication unit. Empty
    /// when the run's trace is off.
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
    /// Chronological worker timeline. Empty when the run's trace is off.
    pub timeline: Vec<TimelineEntry>,
    /// Per-flow release/rate/finish trace (regenerates the rate series of
    /// the paper's Fig. 2 sub-figures), recorded by the driver. Empty
    /// when the run's trace is off.
    pub trace: FlowTrace,
    /// Driver counters: rate recomputations (one per event batch with
    /// active flows), event batching and faults.
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

    /// Records a computation unit's span and timeline bar.
    fn record_comp(&mut self, id: CompId, unit: &CompUnit, start: SimTime, end: SimTime) {
        self.comp_spans.insert(id, (start, end));
        self.timeline.push(TimelineEntry {
            worker: unit.worker,
            comp: id,
            label: unit.label.to_string(),
            kind: unit.kind,
            start,
            end,
        });
    }
}

/// A job's DAG: borrowed for the whole run in a closed batch, owned and
/// dropped at retirement when admitted from a feed.
enum DagRef<'a> {
    Borrowed(&'a JobDag),
    Owned(JobDag),
}

impl DagRef<'_> {
    fn get(&self) -> &JobDag {
        match self {
            DagRef::Borrowed(d) => d,
            DagRef::Owned(d) => d,
        }
    }
}

struct CompState {
    id: CompId,
    worker: NodeId,
    duration: f64,
}

struct CommState {
    id: CommId,
    stages: u32,
    released_stages: u32,
    /// Flows of the released stage still in flight.
    outstanding: u32,
    /// Release time of stage 0.
    started: SimTime,
    done: bool,
}

/// A worker running one of the job's programs.
struct WorkerState {
    /// The program as computation indices, and the position of its head.
    program: Vec<u32>,
    ptr: u32,
    busy: bool,
}

/// An admitted job's bookkeeping, freed at retirement. Its units get
/// dense indices at admission: computations `0..nc` and then
/// communication ops `nc..`, each in ascending id order.
struct JobState<'a> {
    dag: DagRef<'a>,
    comps: Vec<CompState>,
    comms: Vec<CommState>,
    /// Unresolved dependency count per unit.
    pending: Vec<u32>,
    /// Reverse dependency edges: unit `u`'s dependents are
    /// `dependents[dep_start[u]..dep_start[u + 1]]`.
    dep_start: Vec<u32>,
    dependents: Vec<u32>,
    /// Program-running workers, in ascending host order.
    workers: Vec<WorkerState>,
    units_left: usize,
    /// Latest computation or flow finish so far.
    makespan: Option<SimTime>,
}

impl JobState<'_> {
    /// A completed unit unblocks its dependents: counters decrement, and
    /// units that reach zero enter the ready queues.
    fn resolve(&mut self, slot: u32, done: usize, ready: &mut Ready) {
        let edges = self.dep_start[done] as usize..self.dep_start[done + 1] as usize;
        for &u in &self.dependents[edges] {
            self.pending[u as usize] -= 1;
            if self.pending[u as usize] > 0 {
                continue;
            }
            if let Some(c) = self.comps.get(u as usize) {
                // Startable once it is also at its program head; the
                // worker queue re-checks that.
                ready.workers.insert(c.worker);
            } else {
                let j = u - self.comps.len() as u32;
                ready.comms.insert((self.comms[j as usize].id, slot, j));
            }
        }
    }

    fn note_finish(&mut self, now: SimTime) {
        self.makespan = Some(self.makespan.map_or(now, |m| m.max(now)));
    }
}

/// A computation unit in flight. The derived order is `(end, id)`: ids
/// are unique, so the later fields never decide it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Running {
    end: SimTime,
    id: CompId,
    start: SimTime,
    worker: NodeId,
    /// Job slot, computation index and worker index within the job.
    slot: u32,
    comp: u32,
    local_worker: u32,
}

/// The instant's work queues, drained smallest first: communication ops
/// `(id, job slot, op index)` by id, then hosts whose program head may
/// have become startable.
#[derive(Default)]
struct Ready {
    comms: BTreeSet<(CommId, u32, u32)>,
    workers: BTreeSet<NodeId>,
}

/// Dense index of `id` among one job's ascending unit ids.
fn dense<T: Ord + std::fmt::Display>(ids: &[T], id: T, job: JobId) -> u32 {
    let i = ids.binary_search(&id);
    i.unwrap_or_else(|_| panic!("{id} is not a unit of {job}")) as u32
}

/// The live job in `slot`. Queued and running units, in-flight flows
/// and claims only ever name live jobs: a job retires after its last
/// unit, and retirement drops its claims.
fn live<'j, 'a>(jobs: &'j mut [Option<JobState<'a>>], slot: u32) -> &'j mut JobState<'a> {
    jobs[slot as usize].as_mut().expect("slot of a live job")
}

/// The DAG-runtime [`WorkloadSource`]: computation programs, dependency
/// counters and staged communication ops.
#[derive(Default)]
struct JobSource<'a> {
    /// Job arena. A retired job's slot is emptied and reused by the next
    /// admission, so the arena follows the live jobs, not the stream.
    jobs: Vec<Option<JobState<'a>>>,
    free_slots: Vec<u32>,
    /// Incremental job supplier for open-loop runs; `None` for a closed
    /// batch (all DAGs admitted at construction).
    feed: Option<&'a mut dyn JobFeed>,
    /// Per host id: the live job (slot, worker index) whose program runs
    /// there.
    claims: Vec<Option<(u32, u32)>>,
    /// In-flight computation units, earliest `(end, id)` first.
    running: BinaryHeap<Reverse<Running>>,
    ready: Ready,
    /// Job slot and op index of every in-flight flow.
    in_flight: BTreeMap<FlowId, (u32, u32)>,
    /// Set when a job retires during the current release pass; the feed
    /// admission scan re-runs so a blocked job can enter at this instant.
    retired_in_pass: bool,
    /// Per-worker compute slowdown multipliers from
    /// [`FaultKind::WorkerSlowdown`] faults (absent = 1.0). Applied to
    /// the duration of units started after the fault and to the remaining
    /// time of units running when it strikes.
    slow_factor: BTreeMap<NodeId, f64>,
    /// Whether the run keeps the per-unit history (`comp_spans`,
    /// `comm_spans`, `timeline`): the drive's `trace` knob.
    history: bool,
    result: RunResult,
}

impl<'a> JobSource<'a> {
    fn new(dags: &'a [&'a JobDag]) -> JobSource<'a> {
        let mut source = JobSource::default();
        for &dag in dags {
            source.admit(DagRef::Borrowed(dag), SimTime::ZERO);
        }
        source
    }

    fn with_feed(feed: &'a mut (dyn JobFeed + 'a)) -> JobSource<'a> {
        JobSource {
            feed: Some(feed),
            ..JobSource::default()
        }
    }

    /// Admits one job at `now`, the only way into the runtime: indexes
    /// it into a free arena slot (dense unit states, dependency counters,
    /// reverse edges, worker claims), readies its workers and
    /// dependency-free communication ops, and retires it on the spot if
    /// it has no units. Panics if a worker is already claimed by a live
    /// job — closed-loop runs reach this from construction (disjointness
    /// validation), feed-driven runs only after the admission gate
    /// checked the claim set.
    fn admit(&mut self, dag: DagRef<'a>, now: SimTime) {
        let slot = self.free_slots.pop().unwrap_or(self.jobs.len() as u32);
        let d = dag.get();
        let comp_ids: Vec<CompId> = d.comps.keys().copied().collect();
        let comm_ids: Vec<CommId> = d.comms.keys().copied().collect();
        let deps = d
            .comps
            .values()
            .map(|c| (&c.deps_comp, &c.deps_comm))
            .chain(d.comms.values().map(|c| (&c.deps_comp, &c.deps_comm)));
        let nc = comp_ids.len() as u32;
        let mut pending = Vec::with_capacity(comp_ids.len() + comm_ids.len());
        // (dependency, dependent) edges, bucketed by dependency below.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (u, (deps_comp, deps_comm)) in deps.enumerate() {
            pending.push((deps_comp.len() + deps_comm.len()) as u32);
            let comps = deps_comp.iter().map(|&c| dense(&comp_ids, c, d.job));
            let comms = deps_comm.iter().map(|&m| nc + dense(&comm_ids, m, d.job));
            edges.extend(comps.chain(comms).map(|dep| (dep, u as u32)));
        }
        edges.sort_by_key(|&(dep, _)| dep);
        let dep_start = (0..=pending.len() as u32)
            .map(|u| edges.partition_point(|&(dep, _)| dep < u) as u32)
            .collect();
        let mut workers = Vec::with_capacity(d.programs.len());
        for (&w, program) in &d.programs {
            let i = w.0 as usize;
            if i >= self.claims.len() {
                self.claims.resize(i + 1, None);
            }
            if let Some((prev, _)) = self.claims[i] {
                let prev = live(&mut self.jobs, prev).dag.get().job;
                panic!("worker {w} claimed by both {prev} and {}", d.job);
            }
            self.claims[i] = Some((slot, workers.len() as u32));
            workers.push(WorkerState {
                program: program
                    .iter()
                    .map(|&c| dense(&comp_ids, c, d.job))
                    .collect(),
                ptr: 0,
                busy: false,
            });
        }
        let comps: Vec<CompState> = d
            .comps
            .iter()
            .map(|(&id, c)| CompState {
                id,
                worker: c.worker,
                duration: c.duration,
            })
            .collect();
        let comms: Vec<CommState> = d
            .comms
            .iter()
            .map(|(&id, c)| CommState {
                id,
                stages: c.stages.len() as u32,
                released_stages: 0,
                outstanding: 0,
                started: SimTime::ZERO,
                done: false,
            })
            .collect();
        self.ready.workers.extend(d.programs.keys());
        for (j, m) in comms.iter().enumerate() {
            if pending[nc as usize + j] == 0 {
                self.ready.comms.insert((m.id, slot, j as u32));
            }
        }
        let units_left = pending.len();
        let job = JobState {
            units_left,
            comps,
            comms,
            pending,
            dep_start,
            dependents: edges.into_iter().map(|(_, u)| u).collect(),
            workers,
            makespan: None,
            dag,
        };
        match self.jobs.get_mut(slot as usize) {
            Some(free) => *free = Some(job),
            None => self.jobs.push(Some(job)),
        }
        if units_left == 0 {
            self.retire_job(slot, now);
        }
    }

    /// Decrements a job's unfinished-unit count, retiring it at zero.
    fn note_unit_done(&mut self, slot: u32, now: SimTime) {
        let job = live(&mut self.jobs, slot);
        job.units_left -= 1;
        if job.units_left == 0 {
            self.retire_job(slot, now);
        }
    }

    /// Retires a finished job: its makespan is recorded, its slot and
    /// state are freed, its worker claims dropped (later arrivals may
    /// reuse the hosts), and an owned DAG released. Bounded memory for
    /// open-loop runs.
    fn retire_job(&mut self, slot: u32, now: SimTime) {
        let Some(job) = self.jobs[slot as usize].take() else {
            return;
        };
        self.free_slots.push(slot);
        let dag = job.dag.get();
        for &w in dag.programs.keys() {
            self.claims[w.0 as usize] = None;
            self.ready.workers.remove(&w);
        }
        // A job in which no computation or flow finished still completes:
        // its makespan is its retirement.
        let end = job.makespan.unwrap_or(now);
        let e = self.result.job_makespans.entry(dag.job).or_insert(end);
        *e = (*e).max(end);
        self.retired_in_pass = true;
        if let Some(feed) = self.feed.as_deref_mut() {
            feed.on_job_retired(now, dag.job);
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
        let claimed: BTreeSet<NodeId> = (0..self.claims.len())
            .filter(|&w| self.claims[w].is_some())
            .map(|w| NodeId(w as u32))
            .collect();
        for mut dag in feed.admit(now, &claimed) {
            // The policy holds the groupings; the runtime never reads them.
            dag.echelons = Vec::new();
            dag.coflows = Vec::new();
            self.admit(DagRef::Owned(dag), now);
        }
    }

    /// The current compute slowdown multiplier of a worker (1.0 unless a
    /// [`FaultKind::WorkerSlowdown`] changed it).
    fn slow_of(&self, w: NodeId) -> f64 {
        self.slow_factor.get(&w).copied().unwrap_or(1.0)
    }

    /// Completes a running computation unit at `now`.
    fn finish_comp(&mut self, r: Running, now: SimTime) {
        let job = live(&mut self.jobs, r.slot);
        if self.history {
            let unit = &job.dag.get().comps[&r.id];
            self.result.record_comp(r.id, unit, r.start, now);
        }
        // Wall time actually occupied (equals the nominal duration unless
        // a WorkerSlowdown fault stretched the unit mid-flight).
        *self.result.worker_busy.entry(r.worker).or_insert(0.0) += (now - r.start).max(0.0);
        job.note_finish(now);
        let worker = &mut job.workers[r.local_worker as usize];
        worker.busy = false;
        worker.ptr += 1;
        self.ready.workers.insert(r.worker);
        job.resolve(r.slot, r.comp as usize, &mut self.ready);
        self.note_unit_done(r.slot, now);
    }

    /// Marks a communication op complete (last flow of its last stage).
    fn finish_comm(&mut self, slot: u32, j: u32, now: SimTime) {
        let job = live(&mut self.jobs, slot);
        let m = &mut job.comms[j as usize];
        m.done = true;
        if self.history {
            self.result.comm_spans.insert(m.id, (m.started, now));
        }
        job.resolve(slot, job.comps.len() + j as usize, &mut self.ready);
        self.note_unit_done(slot, now);
    }

    /// Releases the next stage of a ready communication op.
    fn release_stage(
        &mut self,
        slot: u32,
        j: u32,
        now: SimTime,
        net: &mut FluidNetwork,
        trace: &mut FlowTrace,
    ) {
        let job = live(&mut self.jobs, slot);
        let m = &mut job.comms[j as usize];
        debug_assert!(
            !m.done && m.outstanding == 0 && m.released_stages < m.stages,
            "{} not in a releasable state",
            m.id
        );
        if m.released_stages == 0 {
            m.started = now;
        }
        let stage = &job.dag.get().comms[&m.id].stages[m.released_stages as usize];
        m.released_stages += 1;
        m.outstanding = stage.flows.len() as u32;
        for f in &stage.flows {
            net.release(&FlowDemand::new(f.id, f.src, f.dst, f.size, now));
            self.result.flow_releases.insert(f.id, now);
            trace.record(now, f.id, TraceEventKind::Released);
            self.in_flight.insert(f.id, (slot, j));
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
            let Some(&Some((slot, w))) = self.claims.get(worker.0 as usize) else {
                return;
            };
            let slow = self.slow_of(worker);
            let job = live(&mut self.jobs, slot);
            let state = &job.workers[w as usize];
            let Some(&head) = state.program.get(state.ptr as usize) else {
                return;
            };
            if state.busy || job.pending[head as usize] > 0 {
                return;
            }
            let CompState { id, duration, .. } = job.comps[head as usize];
            if duration <= EPS {
                // Instantaneous unit (barrier): complete now. Bookkeeping
                // mirrors the non-zero path except worker-busy seconds and
                // job makespans, which a zero-length span cannot move.
                if self.history {
                    let unit = &job.dag.get().comps[&id];
                    self.result.record_comp(id, unit, now, now);
                }
                job.workers[w as usize].ptr += 1;
                job.resolve(slot, head as usize, &mut self.ready);
                self.note_unit_done(slot, now);
                continue;
            }
            job.workers[w as usize].busy = true;
            self.running.push(Reverse(Running {
                end: now + duration * slow,
                id,
                start: now,
                worker,
                slot,
                comp: head,
                local_worker: w,
            }));
            return;
        }
    }
}

impl WorkloadSource for JobSource<'_> {
    fn release_due(&mut self, now: SimTime, net: &mut FluidNetwork, trace: &mut FlowTrace) {
        // Complete computation units whose end time has arrived, in
        // ascending id order. Due-ness is monotone in the end time, so
        // the due units are a prefix of the queue.
        let mut due = Vec::new();
        while let Some(&Reverse(r)) = self.running.peek() {
            if !r.end.at_or_before(now) {
                break;
            }
            due.push(r);
            self.running.pop();
        }
        due.sort_unstable_by_key(|r| r.id);
        for r in due {
            self.finish_comp(r, now);
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
                if let Some((_, slot, j)) = self.ready.comms.pop_first() {
                    self.release_stage(slot, j, now, net, trace);
                } else if let Some(w) = self.ready.workers.pop_first() {
                    self.advance_program(w, now);
                } else {
                    break;
                }
            }
            if self.feed.is_none() || !self.retired_in_pass {
                break;
            }
        }
    }

    fn finished(&self) -> bool {
        // Every slot is free exactly when no job is live.
        let feed_dry = self.feed.as_ref().is_none_or(|feed| feed.exhausted());
        feed_dry && self.free_slots.len() == self.jobs.len()
    }

    fn next_event_in(&self, now: SimTime) -> Option<f64> {
        let dt_comp = self.running.peek().map(|r| (r.0.end - now).max(0.0));
        let dt_feed = self
            .feed
            .as_ref()
            .and_then(|feed| feed.next_event_at())
            .map(|t| (t - now).max(0.0));
        [dt_comp, dt_feed].into_iter().flatten().reduce(f64::min)
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
            let (slot, j) = self.in_flight.remove(&c.id).expect("flow released here");
            let job = live(&mut self.jobs, slot);
            job.note_finish(now);
            let m = &mut job.comms[j as usize];
            m.outstanding -= 1;
            if m.outstanding > 0 {
                continue;
            }
            if m.released_stages == m.stages {
                self.finish_comm(slot, j, now);
            } else {
                // Next stage releases at this same instant, in the
                // cascade at the top of the next driver iteration.
                self.ready.comms.insert((m.id, slot, j));
            }
        }
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
        let mut running = std::mem::take(&mut self.running).into_vec();
        for Reverse(r) in running.iter_mut().filter(|r| r.0.worker == *worker) {
            let left = (r.end - now).max(0.0);
            r.end = now + left * (factor / old);
        }
        self.running = BinaryHeap::from(running);
    }

    fn deadlock_context(&self) -> String {
        let mut pending: Vec<(CommId, u32)> = self
            .jobs
            .iter()
            .flatten()
            .flat_map(|job| &job.comms)
            .filter(|m| !m.done)
            .map(|m| (m.id, m.released_stages))
            .collect();
        pending.sort_unstable();
        let pending: Vec<String> = pending
            .iter()
            .map(|(id, stage)| format!("{id}@stage{stage}"))
            .collect();
        let feed_note = match &self.feed {
            Some(feed) => format!(
                "; feed backlog: {} (exhausted: {})",
                feed.backlog(),
                feed.exhausted()
            ),
            None => String::new(),
        };
        let live_jobs = self.jobs.len() - self.free_slots.len();
        format!("{live_jobs} live jobs; pending comms: {pending:?}{feed_note}")
    }
}

/// Runs a closed batch of `dags` sharing the network to completion, with
/// `config`'s fault plan and engine knobs; every DAG is admitted at
/// t = 0. The config's `drive.trace` also decides whether the runtime
/// keeps its per-unit history (see [`RunResult`]).
///
/// # Panics
///
/// Panics if two jobs claim the same worker, or if the simulation
/// deadlocks (a dependency cycle, a policy that starves all flows, or a
/// link downed forever).
pub fn run_jobs(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    config: &RunConfig,
) -> RunResult {
    run_source(topo, JobSource::new(dags), policy, config)
}

/// Runs the open-loop stream `feed` hands over to completion under
/// `plan`: each job is admitted when the feed hands it over and dropped
/// when it retires, freeing its workers. The drive runs with the trace
/// off, so the runtime's memory follows the live jobs, not the stream
/// (see [`RunResult`]).
///
/// # Panics
///
/// Panics if two live jobs claim the same worker, or if the simulation
/// deadlocks (a dependency cycle, a policy that starves all flows, a link
/// downed forever, or a fed job whose hosts are never freed).
pub fn run_jobs_fed<'a>(
    topo: &Topology,
    feed: &'a mut (dyn JobFeed + 'a),
    policy: &mut dyn RatePolicy,
    plan: &FaultPlan,
) -> RunResult {
    let mut config = RunConfig::from(plan.clone());
    config.drive.trace = false;
    run_source(topo, JobSource::with_feed(feed), policy, &config)
}

/// The body [`run_jobs`] and [`run_jobs_fed`] share.
fn run_source(
    topo: &Topology,
    mut source: JobSource<'_>,
    policy: &mut dyn RatePolicy,
    config: &RunConfig,
) -> RunResult {
    source.history = config.drive.trace;
    let outcome = drive(topo, &mut source, policy, config);
    let mut result = source.result;
    result.makespan = outcome.end;
    result.trace = outcome.trace;
    result.stats = outcome.stats;
    result
        .timeline
        .sort_by(|a, b| a.start.cmp(&b.start).then(a.comp.cmp(&b.comp)));
    result
}

/// [`run_jobs`] at the default config; `mode` is ignored. Kept for the
/// benchmark.
pub fn run_jobs_with(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    _mode: RecomputeMode,
) -> RunResult {
    run_jobs(topo, dags, policy, &RunConfig::default())
}

/// [`run_jobs_fed`]; `mode` is ignored. Kept for the benchmark.
pub fn run_jobs_streamed<'a>(
    topo: &Topology,
    feed: &'a mut (dyn JobFeed + 'a),
    policy: &mut dyn RatePolicy,
    _mode: RecomputeMode,
    plan: &FaultPlan,
) -> RunResult {
    run_jobs_fed(topo, feed, policy, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{CompKind, DagBuilder};
    use crate::ids::IdAlloc;
    use echelon_collectives::{CollectiveOp, Style};
    use echelon_core::arrangement::ArrangementFn;
    use echelon_core::coflow::Coflow;
    use echelon_sched::echelon::{EchelonMadd, InterOrder};
    use echelon_simnet::runner::MaxMinPolicy;

    /// comp(1s) → 2B flow → comp(1s) on a unit link: makespan 4.
    fn relay_dag(alloc: &mut IdAlloc) -> JobDag {
        relay_job(alloc, JobId(0))
    }

    /// [`relay_dag`] as job `job`.
    fn relay_job(alloc: &mut IdAlloc, job: JobId) -> JobDag {
        let mut b = DagBuilder::new(job, alloc);
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
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
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
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
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
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
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
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
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
        let config = RunConfig::default();
        let out = run_jobs(&topo, &[&dag0, &dag1], &mut MaxMinPolicy, &config);
        assert!(out.job_makespans[&JobId(0)].approx_eq(SimTime::new(4.0)));
        assert!(out.job_makespans[&JobId(1)].approx_eq(SimTime::new(4.0)));
    }

    /// A fed job enters at its admission time, not before: the whole
    /// relay schedule shifts by it.
    #[test]
    fn arriving_job_starts_no_earlier_than_its_admission() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let flow_id = dag.all_flows()[0].id;
        let mut feed = QueueFeed::new(vec![(SimTime::new(2.5), dag)]);
        // Traced, unlike `run_jobs_fed`, so the unit spans are kept.
        let out = run_source(
            &Topology::chain(2, 1.0),
            JobSource::with_feed(&mut feed),
            &mut MaxMinPolicy,
            &RunConfig::default(),
        );
        // F1 [2.5,3.5]; flow [3.5,5.5]; F1' [5.5,6.5].
        assert!(
            out.makespan.approx_eq(SimTime::new(6.5)),
            "{:?}",
            out.makespan
        );
        assert!(out.flow_releases[&flow_id].approx_eq(SimTime::new(3.5)));
        assert_eq!(out.comp_spans.len(), 2);
        for (start, _) in out.comp_spans.values() {
            assert!(
                SimTime::new(2.5).at_or_before(*start),
                "comp started at {start:?} before admission"
            );
        }
    }

    /// A job with no units completes at its admission, whichever way it
    /// enters: at construction or through a feed.
    #[test]
    fn empty_job_completes_at_admission() {
        let empty = || {
            let mut dag = DagBuilder::new(JobId(0), &mut IdAlloc::new()).build();
            dag.programs.insert(NodeId(0), Vec::new());
            dag
        };
        let topo = Topology::chain(2, 1.0);
        let closed = run_jobs(&topo, &[&empty()], &mut MaxMinPolicy, &RunConfig::default());
        assert_eq!(closed.job_makespans[&JobId(0)], SimTime::ZERO);
        let mut feed = QueueFeed::new(vec![(SimTime::new(1.5), empty())]);
        let fed = run_jobs_fed(&topo, &mut feed, &mut MaxMinPolicy, &FaultPlan::empty());
        assert_eq!(fed.job_makespans[&JobId(0)], SimTime::new(1.5));
        assert_eq!(feed.retired, vec![JobId(0)]);
    }

    #[test]
    #[should_panic(expected = "claimed by both")]
    fn overlapping_workers_rejected() {
        let mut alloc = IdAlloc::new();
        let dag0 = relay_dag(&mut alloc);
        let dag1 = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let config = RunConfig::default();
        let _ = run_jobs(&topo, &[&dag0, &dag1], &mut MaxMinPolicy, &config);
    }

    #[test]
    fn worker_slowdown_stretches_running_and_future_comps() {
        // relay_dag: comp(1s)@w0 → 2B flow → comp(1s)@w1, makespan 4.
        // Slowing w0 by 2× at t=0.5 stretches the running unit's second
        // half to 1s (F1 ends at 1.5); the flow and w1 are untouched:
        // makespan 1.5 + 2 + 1 = 4.5. A second job's unit on w2 sits in
        // the running queue beside F1 and must keep its end time.
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let mut b = DagBuilder::new(JobId(1), &mut alloc);
        let solo = b.comp(NodeId(2), 1.2, CompKind::Forward, "S", &[], &[]);
        let other = b.build();
        let topo = Topology::chain(3, 1.0);
        let plan = FaultPlan::empty().with(
            SimTime::new(0.5),
            FaultKind::WorkerSlowdown {
                worker: NodeId(0),
                factor: 2.0,
            },
        );
        let config = RunConfig::from(plan);
        let out = run_jobs(&topo, &[&dag, &other], &mut MaxMinPolicy, &config);
        assert!(out.makespan.approx_eq(SimTime::new(4.5)));
        // F1 led the queue (end 1.0) when the fault struck and was
        // rescaled in place; S now ends first.
        let f1 = dag.programs[&NodeId(0)][0];
        assert!(out.comp_spans[&f1].1.approx_eq(SimTime::new(1.5)));
        assert!(out.comp_spans[&solo].1.approx_eq(SimTime::new(1.2)));
        // Busy accounting reflects the stretched wall time.
        assert!((out.worker_busy[&NodeId(0)] - 1.5).abs() < 1e-9);
        assert!((out.worker_busy[&NodeId(1)] - 1.0).abs() < 1e-9);
        assert!((out.worker_busy[&NodeId(2)] - 1.2).abs() < 1e-9);
    }

    /// A feed that admits each job at its arrival time and logs
    /// retirements. Callers space arrivals so that claims never clash.
    struct QueueFeed {
        jobs: std::collections::VecDeque<(SimTime, JobDag)>,
        retired: Vec<JobId>,
    }

    impl QueueFeed {
        fn new(jobs: Vec<(SimTime, JobDag)>) -> QueueFeed {
            QueueFeed {
                jobs: jobs.into(),
                retired: Vec::new(),
            }
        }
    }

    impl JobFeed for QueueFeed {
        fn next_event_at(&self) -> Option<SimTime> {
            self.jobs.front().map(|&(at, _)| at)
        }

        fn admit(&mut self, now: SimTime, _claimed: &BTreeSet<NodeId>) -> Vec<JobDag> {
            let due = self
                .jobs
                .iter()
                .take_while(|(at, _)| at.at_or_before(now))
                .count();
            self.jobs.drain(..due).map(|(_, dag)| dag).collect()
        }

        fn on_job_retired(&mut self, _now: SimTime, job: JobId) {
            self.retired.push(job);
        }

        fn exhausted(&self) -> bool {
            self.jobs.is_empty()
        }
    }

    /// Units whose ends fall within `EPS` of each other complete at one
    /// instant in ascending id order, even when the larger id ends first:
    /// each is its job's last unit, so the retirement order shows it.
    #[test]
    fn same_instant_completions_run_in_id_order() {
        let mut alloc = IdAlloc::new();
        let mut solo = |job: u32, worker: u32, duration: f64| {
            let mut b = DagBuilder::new(JobId(job), &mut alloc);
            let id = b.comp(NodeId(worker), duration, CompKind::Forward, "F", &[], &[]);
            (id, b.build())
        };
        let (first, late) = solo(0, 0, 1.0 + EPS / 2.0);
        let (second, early) = solo(1, 1, 1.0);
        assert!(first < second);
        let mut feed = QueueFeed::new(vec![(SimTime::ZERO, late), (SimTime::ZERO, early)]);
        let out = run_jobs_fed(
            &Topology::chain(2, 1.0),
            &mut feed,
            &mut MaxMinPolicy,
            &FaultPlan::empty(),
        );
        assert_eq!(feed.retired, vec![JobId(0), JobId(1)]);
        assert_eq!(out.job_makespans[&JobId(0)], SimTime::new(1.0));
        assert_eq!(out.job_makespans[&JobId(1)], SimTime::new(1.0));
    }

    /// Once a fed stream drains, nothing of its jobs is left in the
    /// runtime: no running unit, queued op or host, in-flight flow,
    /// claim or per-job table. Each relay retires before the next one
    /// arrives, so all ten reuse one arena slot.
    #[test]
    fn drained_stream_leaves_no_runtime_state() {
        let mut alloc = IdAlloc::new();
        let jobs = (0..10)
            .map(|i| {
                (
                    SimTime::new(5.0 * i as f64),
                    relay_job(&mut alloc, JobId(i)),
                )
            })
            .collect();
        let mut feed = QueueFeed::new(jobs);
        let mut source = JobSource::with_feed(&mut feed);
        // The configuration `run_jobs_fed` drives with.
        let mut config = RunConfig::default();
        config.drive.trace = false;
        drive(
            &Topology::chain(2, 1.0),
            &mut source,
            &mut MaxMinPolicy,
            &config,
        );
        let out = &source.result;
        assert_eq!(out.job_makespans.len(), 10);
        assert!(out.job_makespans[&JobId(9)].approx_eq(SimTime::new(49.0)));
        assert!(source.running.is_empty());
        assert!(source.ready.comms.is_empty() && source.ready.workers.is_empty());
        assert!(source.in_flight.is_empty());
        assert!(source.claims.iter().all(Option::is_none));
        assert_eq!(source.jobs.len(), 1, "one arena slot, reused by every job");
        assert!(source.jobs.iter().all(Option::is_none));
        assert!(out.comp_spans.is_empty() && out.timeline.is_empty());
        drop(source);
        assert_eq!(feed.retired, (0..10).map(JobId).collect::<Vec<_>>());
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
        let config = RunConfig::from(plan);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &config);
        assert!(out.makespan.approx_eq(SimTime::new(5.0)));
        assert!((out.stats.stall_flow_seconds - 1.0).abs() < 1e-9);
        assert_eq!(out.stats.fault_events, 2);
    }

    #[test]
    fn grouping_policy_construction() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let mut p1 = EchelonMadd::new(dag.echelons.clone());
        let out1 = run_jobs(&topo, &[&dag], &mut p1, &RunConfig::default());
        let coflows = dag.coflows.iter().cloned().map(Coflow::into_echelon);
        let mut p2 = EchelonMadd::new(coflows.collect()).with_inter(InterOrder::LeastWork);
        let out2 = run_jobs(&topo, &[&dag], &mut p2, &RunConfig::default());
        // A single flow behaves identically under both.
        assert!(out1.makespan.approx_eq(out2.makespan));
    }
}
