//! The global Coordinator (paper §5, Fig. 7).
//!
//! The coordinator receives EchelonFlows from the per-job agents and
//! computes bandwidth allocations with the heuristic adapted from
//! Coflow scheduling ([`EchelonMadd`]). Two practicality knobs from the
//! paper's discussion are modelled:
//!
//! - **Scheduling interval**: "Such algorithms would rerun per EchelonFlow
//!   arrival/departure or per scheduling interval." A *decision* runs the
//!   heuristic's ranking, which orders the EchelonFlows afresh, and
//!   [`CoordinatorConfig::trigger`] says when one runs. Between decisions
//!   the agents keep enforcing the last decision's group ranking: every
//!   allocation runs the engine's one serve pass (EDD stages, MADD,
//!   backfill) with the groups in the held order. Groups the ranking
//!   lacks (solo flows, or groups that first appear inside an `Interval`
//!   window) come after it in the engine's serve order. So a flow takes
//!   its group's slot whether or not the last decision saw it. This
//!   trades ranking freshness for coordinator load, the scalability lever
//!   the paper proposes to exploit for iterative DDLT jobs.
//! - **Control latency**: an EchelonFlow is *known* to the coordinator
//!   [`CoordinatorConfig::control_latency`] after its first flow is first
//!   seen active, which is when its agent reports the reference time. Its
//!   later flows are known at once, and a solo flow ages as its own
//!   group. Groups not known yet take no MADD service and only ride the
//!   backfill.
//!
//! Groups enter before the policy exists ([`Coordinator::submit_all`]) or
//! while it runs ([`CoordinatedPolicy::register`], absorbed before the
//! next allocation), and leave through [`CoordinatedPolicy::retire`],
//! evicted right after the next allocation. The open-loop service drives
//! this one lifecycle. It has no gate of its own: the service's job-level
//! pending queue is the only one, since a dropped group would silently
//! ungroup an admitted job's flows.
//!
//! [`CoordinatedPolicy`] allocates in the simulator's dense rate currency
//! (`out[i]` rates `flows[i]` of the id-sorted active slice; see
//! [`echelon_simnet::alloc`]): the engine writes straight into the
//! driver's buffer with the driver's scratch. The map entry points are
//! [`RatePolicy`]'s provided adapters over the dense ones.

use echelon_core::echelon::EchelonFlow;
use echelon_core::EchelonId;
use echelon_sched::echelon::{EchelonMadd, GroupKey, GroupOrder, InterOrder, IntraMode};
use echelon_simnet::alloc::{waterfill_dense, AllocScratch};
use echelon_simnet::fault::FaultKind;
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::runner::RatePolicy;
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;
use std::collections::BTreeMap;

/// When the coordinator re-runs its heuristic (§5: "such algorithms
/// would rerun per EchelonFlow arrival/departure or per scheduling
/// interval"). A run ranks the EchelonFlows afresh; every allocation
/// until the next run serves them in that order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Recompute at every flow release/completion (the precise mode).
    PerEvent,
    /// Recompute only when the set of *known* active EchelonFlows changes
    /// — the paper's "per EchelonFlow arrival/departure". Within one
    /// EchelonFlow's lifetime its held rank is reused, exploiting the
    /// iterative repetitiveness of DDLT jobs. Solo flows never trigger.
    PerGroupChange,
    /// Recompute at most every `dt` seconds of simulated time.
    Interval(f64),
}

/// Coordinator tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// Decision recomputation trigger.
    pub trigger: Trigger,
    /// Agent → coordinator → agent round-trip: an EchelonFlow is known
    /// this long after its first flow is first seen active, and until
    /// then its flows receive only backfilled bandwidth. Its later flows
    /// are known at once.
    pub control_latency: f64,
    /// Inter-EchelonFlow ordering used by the heuristic.
    pub inter: InterOrder,
    /// Intra-EchelonFlow discipline used by the heuristic.
    pub intra: IntraMode,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            trigger: Trigger::PerEvent,
            control_latency: 0.0,
            inter: InterOrder::EarliestDeadline,
            intra: IntraMode::FinishEarly,
        }
    }
}

/// The global coordinator: EchelonFlow registry + decision engine.
#[derive(Debug)]
pub struct Coordinator {
    config: CoordinatorConfig,
    registered: Vec<EchelonFlow>,
}

impl Coordinator {
    /// Creates a coordinator with the given knobs.
    pub fn new(config: CoordinatorConfig) -> Coordinator {
        Coordinator {
            config,
            registered: Vec::new(),
        }
    }

    /// Registers EchelonFlows from any iterable source — an agent's moved
    /// `Vec`, or a borrowed slice via `.iter().cloned()`. Groups that
    /// only exist once the policy runs enter through
    /// [`CoordinatedPolicy::register`].
    pub fn submit_all(&mut self, echelons: impl IntoIterator<Item = EchelonFlow>) {
        self.registered.extend(echelons);
    }

    /// Number of registered EchelonFlows.
    pub fn registered_count(&self) -> usize {
        self.registered.len()
    }

    /// Finalizes registration into a live scheduling policy. Moves the
    /// registered EchelonFlows into the engine — no copy of the registry.
    pub fn into_policy(self) -> CoordinatedPolicy {
        let engine = EchelonMadd::new(self.registered)
            .with_inter(self.config.inter)
            .with_intra(self.config.intra);
        CoordinatedPolicy {
            config: self.config,
            engine,
            ranking: Vec::new(),
            last_decision: None,
            last_groups: Vec::new(),
            groups: Vec::new(),
            first_seen: BTreeMap::new(),
            decisions_computed: 0,
            outage: false,
            pending_register: Vec::new(),
            pending_retire: Vec::new(),
        }
    }
}

/// The coordinator's scheduling decision applied as a [`RatePolicy`].
#[derive(Debug)]
pub struct CoordinatedPolicy {
    config: CoordinatorConfig,
    engine: EchelonMadd,
    /// The last decision's group ranking, which the agents keep enforcing
    /// until the next one. Never recorded under the `PerEvent` trigger,
    /// where every allocation is a decision.
    ranking: Vec<GroupKey>,
    last_decision: Option<SimTime>,
    /// The known active EchelonFlows at the last decision and at this
    /// allocation, in id order. Kept only under `PerGroupChange`, their
    /// one reader.
    last_groups: Vec<EchelonId>,
    groups: Vec<EchelonId>,
    /// When each group's first flow was first seen active, for control
    /// latency. Stays empty without it: every group is known at once.
    first_seen: BTreeMap<GroupKey, SimTime>,
    decisions_computed: usize,
    /// True between [`FaultKind::CoordinatorDown`] and
    /// [`FaultKind::CoordinatorUp`]: no decisions are computed and every
    /// flow gets plain fair-share bandwidth (the agents' local fallback —
    /// a stale ranking must not be enforced forever while the coordinator
    /// cannot refresh it).
    outage: bool,
    /// Live registrations queued since the last allocation (see
    /// [`Self::register`]).
    pending_register: Vec<EchelonFlow>,
    /// Retirements queued since the last allocation (see
    /// [`Self::retire`]).
    pending_retire: Vec<EchelonId>,
}

impl CoordinatedPolicy {
    /// How many times the full heuristic ran.
    pub fn decisions_computed(&self) -> usize {
        self.decisions_computed
    }

    /// Registers an EchelonFlow that enters after
    /// [`Coordinator::into_policy`] (open-loop admission). The group is
    /// queued and lands in the engine before the next allocation, so a
    /// head flow releasing at that very event binds its reference. Any
    /// number of registrations are absorbed in one batch; registration
    /// is allocation-neutral until the group's first flow releases, so
    /// batching changes no decision.
    ///
    /// # Panics
    ///
    /// The next allocation panics if the id or any member flow is
    /// already claimed.
    pub fn register(&mut self, echelon: EchelonFlow) {
        self.pending_register.push(echelon);
    }

    /// Retires an EchelonFlow whose every flow has completed (its job
    /// retired). The group is queued and evicted right after the next
    /// allocation: that allocation applies the departure delta of the
    /// group's last flows while the book still maps them to the group,
    /// and a flowless group can change no later allocation. Eviction
    /// also drops the group's `first_seen` aging stamp, keeping
    /// coordinator memory proportional to *live* jobs on an unbounded
    /// stream.
    ///
    /// # Panics
    ///
    /// The allocation after the call panics if `id` is not registered or
    /// a member flow is still active.
    pub fn retire(&mut self, id: EchelonId) {
        self.pending_retire.push(id);
    }

    /// Absorbs every queued live registration into the engine — one
    /// batch per allocation, whatever the backlog.
    fn flush_pending(&mut self) {
        for h in self.pending_register.drain(..) {
            self.engine.register(h);
        }
    }

    /// Evicts every queued retirement; runs after an allocation.
    fn evict_retired(&mut self, active: &[ActiveFlowView]) {
        for id in self.pending_retire.drain(..) {
            self.first_seen.remove(&GroupKey::Echelon(id));
            assert!(
                self.engine.evict(id, active),
                "evicting retired {id:?} refused"
            );
        }
    }

    /// One allocation before queued retirements are evicted:
    /// [`RatePolicy::allocate_dense_incremental`] with the event's `delta`,
    /// [`RatePolicy::allocate_dense`] (a full recompute) with `None`.
    fn allocate_with(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: Option<&FlowDelta>,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        // Queued live registrations land before the sync so a head flow
        // releasing this very event still binds its group's reference.
        self.flush_pending();
        // The engine sees every allocation, not just the due decisions:
        // reference binding tracks the data plane, and its group cache
        // must not go stale across an outage.
        self.engine.sync(now, flows, delta);
        if self.outage {
            // Coordinator unreachable: do not consult or refresh the
            // ranking; agents fall back to fair sharing. Groups whose
            // first flow arrives during the outage are first seen (for
            // control-latency aging) once the coordinator is back.
            out.clear();
            out.resize(flows.len(), 0.0);
            return waterfill_dense(topo, flows, None, out, ws);
        }
        let latency = self.config.control_latency;
        if latency > 0.0 {
            for key in self.engine.active_groups() {
                self.first_seen.entry(key).or_insert(now);
            }
        }
        let first_seen = &self.first_seen;
        let known = move |key: GroupKey| {
            latency <= 0.0
                || first_seen
                    .get(&key)
                    .is_some_and(|seen| now.secs() - seen.secs() + 1e-12 >= latency)
        };
        if self.config.trigger == Trigger::PerGroupChange {
            // Solo flows are left out: they come and go constantly.
            self.groups.clear();
            self.groups
                .extend(self.engine.active_groups().filter_map(|key| match key {
                    GroupKey::Echelon(id) if known(key) => Some(id),
                    _ => None,
                }));
            self.groups.sort_unstable();
        }
        let due = match (self.last_decision, self.config.trigger) {
            (None, _) | (Some(_), Trigger::PerEvent) => true,
            (Some(_), Trigger::PerGroupChange) => self.groups != self.last_groups,
            (Some(t0), Trigger::Interval(dt)) => now.secs() - t0.secs() + 1e-12 >= dt,
        };
        let order = if due {
            self.last_decision = Some(now);
            self.decisions_computed += 1;
            std::mem::swap(&mut self.groups, &mut self.last_groups);
            let held = self.config.trigger != Trigger::PerEvent;
            GroupOrder::Rank(held.then_some(&mut self.ranking))
        } else {
            GroupOrder::Held(&self.ranking)
        };
        self.engine.serve(now, flows, order, known, topo, ws, out);
    }
}

impl RatePolicy for CoordinatedPolicy {
    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.allocate_with(now, flows, None, topo, ws, out);
        self.evict_retired(flows);
    }

    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.allocate_with(now, flows, Some(delta), topo, ws, out);
        self.evict_retired(flows);
    }

    /// A coordinator outage switches the agents to fair share, and
    /// recovery forces a fresh decision at the next allocation. Link
    /// faults need nothing: the held ranking is capacity-free, and every
    /// serve pass reads the capacities afresh.
    fn on_fault(&mut self, _now: SimTime, fault: &FaultKind) {
        match fault {
            FaultKind::CoordinatorDown => self.outage = true,
            FaultKind::CoordinatorUp => {
                self.outage = false;
                // The recovered coordinator has no trustworthy decision:
                // force a fresh one at the next allocation, whatever the
                // trigger.
                self.last_decision = None;
            }
            FaultKind::LinkDown(_)
            | FaultKind::LinkRestore(_)
            | FaultKind::LinkDegrade(..)
            | FaultKind::WorkerSlowdown { .. } => {}
        }
    }

    fn name(&self) -> &'static str {
        use InterOrder as I;
        match (self.config.inter, self.config.intra) {
            (I::EarliestDeadline, IntraMode::FinishEarly) => "coordinated-echelon",
            (I::EarliestDeadline, IntraMode::Equalize) => "coordinated-echelon(equalize)",
            (I::MostTardy, _) => "coordinated-echelon(most-tardy)",
            (I::LeastWork, _) => "coordinated-echelon(least-work)",
            (I::Bssi, _) => "coordinated-echelon(bssi)",
        }
    }

    fn book_stats(&self) -> Option<(usize, usize)> {
        let book = self.engine.book();
        Some((book.occupancy(), book.peak_occupancy()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_core::arrangement::ArrangementFn;
    use echelon_core::echelon::FlowRef;
    use echelon_core::JobId;
    use echelon_paradigms::config::PpConfig;
    use echelon_paradigms::ids::IdAlloc;
    use echelon_paradigms::pp::build_pp_gpipe;
    use echelon_paradigms::runtime::run_jobs;
    use echelon_simnet::ids::{FlowId, NodeId};
    use echelon_simnet::runner::RunConfig;

    fn fig2_dag() -> echelon_paradigms::dag::JobDag {
        let mut alloc = IdAlloc::new();
        build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc)
    }

    /// Id-sorted views of every flow the dag's echelons declare, as if all
    /// were released at t=0 with full remaining bytes.
    fn views_of(dag: &echelon_paradigms::dag::JobDag, topo: &Topology) -> Vec<ActiveFlowView> {
        let mut v: Vec<ActiveFlowView> = dag
            .echelons
            .iter()
            .flat_map(|e| e.flows())
            .map(|f| ActiveFlowView {
                id: f.id,
                src: f.src,
                dst: f.dst,
                size: f.size,
                remaining: f.size,
                release: SimTime::ZERO,
                route: topo.route(f.src, f.dst),
                slot: f.id.0 as u32,
            })
            .collect();
        v.sort_by_key(|x| x.id);
        v.dedup_by(|a, b| a.id == b.id);
        v
    }

    fn policy_with(
        cfg: CoordinatorConfig,
        dag: &echelon_paradigms::dag::JobDag,
    ) -> CoordinatedPolicy {
        let mut coord = Coordinator::new(cfg);
        coord.submit_all(dag.echelons.iter().cloned());
        coord.into_policy()
    }

    #[test]
    fn coordinator_registers_requests() {
        let dag = fig2_dag();
        let mut coord = Coordinator::new(CoordinatorConfig::default());
        coord.submit_all(dag.echelons.iter().cloned());
        assert_eq!(coord.registered_count(), 2);
    }

    /// The full system path is bitwise the raw engine it wraps: on an
    /// eight-job default-mix workload placed pod-packed on a 4:1
    /// oversubscribed k = 8 fat-tree, plain and through `FullRecompute`, each
    /// grouped `SchedulerKind` — the scheduler `Scenario` and the
    /// service run — against a directly built `EchelonMadd`: at its
    /// defaults over the EchelonFlows, and with `LeastWork` over
    /// one-stage coflow groups.
    ///
    /// The plan must be fault-free. A `CoordinatorDown` fault switches
    /// the coordinator to fair share while the raw engine, with no
    /// coordinator to lose, keeps scheduling, so under churn the two
    /// diverge.
    #[test]
    fn system_path_matches_direct_scheduling() {
        use echelon_cluster::placement::PlacementPolicy;
        use echelon_cluster::scenario::SchedulerKind;
        use echelon_cluster::workload::{generate_workload_on, WorkloadConfig};
        use echelon_core::coflow::Coflow;
        use echelon_paradigms::runtime::{run_jobs, RunResult};
        use echelon_simnet::fattree::FatTree;
        use echelon_simnet::runner::FullRecompute;

        let tree = FatTree::new(8).with_oversubscription(4.0);
        let topo = tree.build_fabric();
        let config = RunConfig::default();
        let mut cfg = WorkloadConfig::default_mix(5, 8, tree.hosts());
        cfg.placement = PlacementPolicy::PodPacked;
        let jobs = generate_workload_on(&cfg, &topo, &mut IdAlloc::new());
        let dags: Vec<_> = jobs.iter().map(|j| &j.dag).collect();
        let bits = |r: &RunResult| -> Vec<(FlowId, u64)> {
            let finishes = r.flow_finishes.iter();
            finishes.map(|(&id, t)| (id, t.secs().to_bits())).collect()
        };
        for kind in [SchedulerKind::Echelon, SchedulerKind::Coflow] {
            for full in [false, true] {
                let run = |policy: &mut dyn RatePolicy| {
                    if full {
                        run_jobs(&topo, &dags, &mut FullRecompute(policy), &config)
                    } else {
                        run_jobs(&topo, &dags, policy, &config)
                    }
                };
                let via_system = run(kind.policy(&dags).as_mut());
                let mut direct = if kind == SchedulerKind::Coflow {
                    let coflows = dags.iter().flat_map(|d| d.coflows.iter().cloned());
                    EchelonMadd::new(coflows.map(Coflow::into_echelon).collect())
                        .with_inter(InterOrder::LeastWork)
                } else {
                    EchelonMadd::new(dags.iter().flat_map(|d| d.echelons.clone()).collect())
                };
                let via_direct = run(&mut direct);
                let at = format!("{}, full {full}", kind.name());
                assert!(
                    via_direct.flow_finishes.len() > 100,
                    "{at}: {} flows",
                    via_direct.flow_finishes.len()
                );
                assert_eq!(bits(&via_system), bits(&via_direct), "{at}");
                assert_eq!(via_system.trace.events(), via_direct.trace.events(), "{at}");
            }
        }
    }

    /// A long recompute interval reduces decision count but still
    /// completes the job.
    #[test]
    fn interval_mode_reduces_decisions() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);

        let mut coord = Coordinator::new(CoordinatorConfig::default());
        coord.submit_all(dag.echelons.iter().cloned());
        let mut precise = coord.into_policy();
        let _ = run_jobs(&topo, &[&dag], &mut precise, &RunConfig::default());
        let precise_decisions = precise.decisions_computed();

        let mut coord = Coordinator::new(CoordinatorConfig {
            trigger: Trigger::Interval(5.0),
            ..CoordinatorConfig::default()
        });
        coord.submit_all(dag.echelons.iter().cloned());
        let mut lazy = coord.into_policy();
        let out = run_jobs(&topo, &[&dag], &mut lazy, &RunConfig::default());
        assert!(lazy.decisions_computed() < precise_decisions);
        assert!(out.makespan.secs() > 0.0);
    }

    /// Control latency delays coordinated service but the job still
    /// finishes (new flows ride on backfilled bandwidth).
    #[test]
    fn control_latency_degrades_gracefully() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);

        let mut coord = Coordinator::new(CoordinatorConfig {
            control_latency: 0.5,
            ..CoordinatorConfig::default()
        });
        coord.submit_all(dag.echelons.iter().cloned());
        let mut policy = coord.into_policy();
        let with_latency = run_jobs(&topo, &[&dag], &mut policy, &RunConfig::default());

        let mut coord = Coordinator::new(CoordinatorConfig::default());
        coord.submit_all(fig2_dag().echelons);
        // (fresh dag has identical ids since it uses a fresh IdAlloc)
        let mut policy0 = coord.into_policy();
        let without = run_jobs(&topo, &[&dag], &mut policy0, &RunConfig::default());

        assert!(with_latency.makespan.secs() + 1e-9 >= without.makespan.secs());
    }

    /// The incremental entry point produces bit-identical traces to the
    /// naive full-recompute path for every trigger, with and without
    /// control latency.
    #[test]
    fn incremental_path_matches_naive() {
        use echelon_paradigms::runtime::run_jobs;
        use echelon_simnet::runner::FullRecompute;

        let configs = [
            CoordinatorConfig::default(),
            CoordinatorConfig {
                trigger: Trigger::PerGroupChange,
                ..CoordinatorConfig::default()
            },
            CoordinatorConfig {
                trigger: Trigger::Interval(3.0),
                ..CoordinatorConfig::default()
            },
            CoordinatorConfig {
                control_latency: 0.5,
                ..CoordinatorConfig::default()
            },
            CoordinatorConfig {
                trigger: Trigger::Interval(3.0),
                control_latency: 0.5,
                ..CoordinatorConfig::default()
            },
        ];
        let topo = Topology::chain(2, 1.0);
        let config = RunConfig::default();
        for cfg in configs {
            let dag = fig2_dag();

            let mut coord = Coordinator::new(cfg);
            coord.submit_all(dag.echelons.iter().cloned());
            let mut naive = coord.into_policy();
            let full = run_jobs(&topo, &[&dag], &mut FullRecompute(&mut naive), &config);

            let mut coord = Coordinator::new(cfg);
            coord.submit_all(dag.echelons.iter().cloned());
            let mut inc = coord.into_policy();
            let fast = run_jobs(&topo, &[&dag], &mut inc, &config);

            assert_eq!(
                full.trace.events(),
                fast.trace.events(),
                "trace mismatch for {:?}",
                cfg
            );
            assert_eq!(naive.decisions_computed(), inc.decisions_computed());
        }
    }

    /// With `Trigger::Interval`, the very first event must still produce a
    /// decision (the `last_decision.is_none()` guard), no matter how long
    /// the interval: there is no ranking held yet.
    #[test]
    fn interval_trigger_decides_on_first_event() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        let mut policy = policy_with(
            CoordinatorConfig {
                trigger: Trigger::Interval(1e6),
                ..CoordinatorConfig::default()
            },
            &dag,
        );
        assert_eq!(policy.decisions_computed(), 0);
        let rates = policy.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(policy.decisions_computed(), 1);
        assert!(!rates.is_empty());
    }

    /// The interval predicate `now - t0 + 1e-12 >= dt` fires exactly on
    /// the boundary (and within epsilon below it), but not clearly before.
    #[test]
    fn interval_decision_fires_on_epsilon_boundary() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        let mut policy = policy_with(
            CoordinatorConfig {
                trigger: Trigger::Interval(5.0),
                ..CoordinatorConfig::default()
            },
            &dag,
        );
        let _ = policy.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(policy.decisions_computed(), 1);
        // Clearly inside the interval: served in the held ranking.
        let _ = policy.allocate(SimTime::new(4.999999), &views, &topo);
        assert_eq!(policy.decisions_computed(), 1);
        // Within float epsilon below the boundary: counts as due.
        let _ = policy.allocate(SimTime::new(5.0 - 1e-13), &views, &topo);
        assert_eq!(policy.decisions_computed(), 2);
        // Exactly on the next boundary (relative to the refreshed t0).
        let t0 = 5.0 - 1e-13;
        let _ = policy.allocate(SimTime::new(t0 + 5.0), &views, &topo);
        assert_eq!(policy.decisions_computed(), 3);
    }

    /// A flow that arrives *and* departs within one delta leaves the
    /// active flow set unchanged, so it must not drop its still-active
    /// sibling's EchelonFlow from the active set: `PerGroupChange` fires
    /// no decision on the blip.
    #[test]
    fn arrive_depart_blip_fires_no_decision() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        // Keep one member of the first echelon active; pick a sibling from
        // the same echelon as the blip flow.
        let first = dag.echelons[0].flows().next().unwrap().id;
        let sibling = dag.echelons[0]
            .flows()
            .map(|f| f.id)
            .find(|&id| id != first)
            .expect("fig2 echelon has >= 2 flows");
        let active: Vec<ActiveFlowView> = views.iter().filter(|v| v.id == first).cloned().collect();

        let mut policy = policy_with(
            CoordinatorConfig {
                trigger: Trigger::PerGroupChange,
                ..CoordinatorConfig::default()
            },
            &dag,
        );
        let delta0 = FlowDelta {
            arrived: vec![first],
            departed: vec![],
        };
        let _ = policy.allocate_incremental(SimTime::ZERO, &active, &delta0, &topo);
        assert_eq!(policy.decisions_computed(), 1);

        // The sibling arrives and departs entirely inside this delta: the
        // active flow set is unchanged, so no new decision may fire.
        let blip = FlowDelta {
            arrived: vec![sibling],
            departed: vec![sibling],
        };
        let _ = policy.allocate_incremental(SimTime::new(0.1), &active, &blip, &topo);
        assert_eq!(
            policy.decisions_computed(),
            1,
            "the blip flow fired a decision"
        );
    }

    /// A 2-byte flow view released at `release`, in the arena slot of its
    /// id.
    fn view(topo: &Topology, id: u64, src: u32, dst: u32, release: f64) -> ActiveFlowView {
        let (src, dst) = (NodeId(src), NodeId(dst));
        ActiveFlowView {
            id: FlowId(id),
            src,
            dst,
            size: 2.0,
            remaining: 2.0,
            release: SimTime::new(release),
            route: topo.route(src, dst),
            slot: id as u32,
        }
    }

    /// EchelonFlow `A` is flows 0 (host 0 → 1) and 2 (host 2 → 3), due
    /// one second apart; `B` is flow 1 (host 2 → 3), so `B` contends
    /// with `A`'s second flow on one link. Every flow carries 2 bytes.
    fn contending_groups() -> Vec<EchelonFlow> {
        let flow = |id, src, dst| FlowRef::new(FlowId(id), NodeId(src), NodeId(dst), 2.0);
        vec![
            EchelonFlow::from_flows(
                EchelonId(0),
                JobId(0),
                vec![flow(0, 0, 1), flow(2, 2, 3)],
                ArrangementFn::Staggered { gap: 1.0 },
            ),
            EchelonFlow::from_flows(
                EchelonId(1),
                JobId(1),
                vec![flow(1, 2, 3)],
                ArrangementFn::Coflow,
            ),
        ]
    }

    /// Between decisions a flow takes its group's slot in the held
    /// ranking, whether or not the last decision saw it. Under
    /// `PerGroupChange` the decision at 0.2 s ranks `A` (head deadline 0)
    /// ahead of `B` (0.2). `A`'s second flow releases at 0.5 s while `A`
    /// is still active, so no decision runs, and it is served ahead of
    /// `B`'s flow on their shared link.
    #[test]
    fn a_flow_joining_a_ranked_group_takes_its_slot() {
        let topo = Topology::big_switch_uniform(4, 1.0);
        let mut policy = Coordinator::new(CoordinatorConfig {
            trigger: Trigger::PerGroupChange,
            ..CoordinatorConfig::default()
        });
        policy.submit_all(contending_groups());
        let mut policy = policy.into_policy();
        let before = [view(&topo, 0, 0, 1, 0.0), view(&topo, 1, 2, 3, 0.2)];
        let _ = policy.allocate(SimTime::new(0.2), &before, &topo);
        let mut after = before.to_vec();
        after.push(view(&topo, 2, 2, 3, 0.5));
        let rates = policy.allocate(SimTime::new(0.5), &after, &topo);
        assert_eq!(policy.decisions_computed(), 1);
        assert_eq!((rates[&FlowId(2)], rates[&FlowId(1)]), (1.0, 0.0));
    }

    /// Control latency ages groups, not flows. With 0.3 s of it, `A` is
    /// known from 0.3 s, so its second flow takes MADD service at its
    /// release at 0.5 s. `B`'s first flow, released at the same time,
    /// rides only the backfill (none is left on the shared link) until
    /// `B` is known at 0.8 s. Then `B`, whose head deadline (0.5) precedes
    /// `A`'s (1.0 once its first flow is done), is served first.
    #[test]
    fn control_latency_ages_groups_not_flows() {
        let topo = Topology::big_switch_uniform(4, 1.0);
        let mut policy = Coordinator::new(CoordinatorConfig {
            control_latency: 0.3,
            ..CoordinatorConfig::default()
        });
        policy.submit_all(contending_groups());
        let mut policy = policy.into_policy();
        let (a0, b, a2) = (
            view(&topo, 0, 0, 1, 0.0),
            view(&topo, 1, 2, 3, 0.5),
            view(&topo, 2, 2, 3, 0.5),
        );
        // Alone and fresh, `A`'s first flow rides the backfill at full rate.
        let rates = policy.allocate(SimTime::ZERO, std::slice::from_ref(&a0), &topo);
        assert_eq!(rates[&FlowId(0)], 1.0);
        let all = [a0, b.clone(), a2.clone()];
        for t in [0.5, 0.7] {
            let rates = policy.allocate(SimTime::new(t), &all, &topo);
            assert_eq!((rates[&FlowId(2)], rates[&FlowId(1)]), (1.0, 0.0), "at {t}");
        }
        let rates = policy.allocate(SimTime::new(0.9), &[b, a2], &topo);
        assert_eq!((rates[&FlowId(1)], rates[&FlowId(2)]), (1.0, 0.0));
    }

    /// During a coordinator outage the policy serves plain fair share (no
    /// stale priority order), and recovery forces a fresh decision.
    #[test]
    fn outage_serves_fair_share_and_recovery_redecides() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        let mut policy = policy_with(CoordinatorConfig::default(), &dag);

        let _ = policy.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(policy.decisions_computed(), 1);

        policy.on_fault(SimTime::new(1.0), &FaultKind::CoordinatorDown);
        let rates = policy.allocate(SimTime::new(1.0), &views, &topo);
        let fair = echelon_simnet::runner::MaxMinPolicy.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(rates, fair, "outage allocation is not plain fair share");
        // No decision ran during the outage.
        assert_eq!(policy.decisions_computed(), 1);

        policy.on_fault(SimTime::new(2.0), &FaultKind::CoordinatorUp);
        let _ = policy.allocate(SimTime::new(2.0), &views, &topo);
        assert_eq!(
            policy.decisions_computed(),
            2,
            "recovery must force a fresh decision"
        );
    }

    /// `submit_all` accepts any iterable — borrowed groups included —
    /// and registers them all.
    #[test]
    fn submit_all_takes_any_iterator() {
        let dag = fig2_dag();
        let mut coord = Coordinator::new(CoordinatorConfig::default());
        coord.submit_all(dag.echelons.iter().cloned());
        assert_eq!(coord.registered_count(), dag.echelons.len());
        let mut coord2 = Coordinator::new(CoordinatorConfig::default());
        coord2.submit_all(dag.echelons);
        assert_eq!(coord2.registered_count(), coord.registered_count());
    }

    /// The policy names its ranking: the coflow configuration (least work
    /// over one-stage groups) is not called by the default's name.
    #[test]
    fn name_follows_the_ranking() {
        let name = |inter| {
            let config = CoordinatorConfig {
                inter,
                ..CoordinatorConfig::default()
            };
            Coordinator::new(config).into_policy().name()
        };
        assert_eq!(name(InterOrder::EarliestDeadline), "coordinated-echelon");
        assert_ne!(
            name(InterOrder::LeastWork),
            name(InterOrder::EarliestDeadline)
        );
    }

    /// Live registration is batched (absorbed at the next allocation),
    /// and a retired group is evicted right after the next allocation;
    /// the peak keeps the high-water mark.
    #[test]
    fn live_register_retire_lifecycle() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        let first = &dag.echelons[0];

        // Start empty; register the whole job live.
        let mut policy = Coordinator::new(CoordinatorConfig::default()).into_policy();
        assert_eq!(policy.book_stats().unwrap(), (0, 0));
        dag.echelons.iter().for_each(|h| policy.register(h.clone()));
        // Still queued: nothing in the book until an allocation flushes.
        assert_eq!(policy.book_stats().unwrap().0, 0);
        let _ = policy.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(policy.book_stats().unwrap().0, dag.echelons.len());

        // The first group's flows complete; its retirement waits for the
        // allocation that sees them gone.
        policy.retire(first.id());
        assert_eq!(policy.book_stats().unwrap().0, dag.echelons.len());
        let rest: Vec<ActiveFlowView> = views
            .iter()
            .filter(|v| first.flows().all(|f| f.id != v.id))
            .cloned()
            .collect();
        let _ = policy.allocate(SimTime::new(1.0), &rest, &topo);
        assert_eq!(
            policy.book_stats().unwrap(),
            (dag.echelons.len() - 1, dag.echelons.len())
        );
    }

    /// Retiring a group while one of its flows is active is a caller bug:
    /// the allocation after the call panics instead of evicting.
    #[test]
    #[should_panic(expected = "evicting retired")]
    fn retiring_a_group_with_active_flows_panics() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        let mut policy = policy_with(CoordinatorConfig::default(), &dag);
        policy.retire(dag.echelons[0].id());
        let _ = policy.allocate(SimTime::ZERO, &views, &topo);
    }

    /// Registering a group before its flows release, and evicting it
    /// after they complete, must not change any allocation: the decision
    /// trace with lifecycle management matches the pre-registered run.
    #[test]
    fn lifecycle_management_is_allocation_neutral() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);

        // Reference: everything pre-registered, nothing evicted.
        let mut reference = policy_with(CoordinatorConfig::default(), &dag);
        let want = reference.allocate(SimTime::ZERO, &views, &topo);

        // Lifecycle path: the same groups registered live (batched, so
        // they land in one flush at the first allocation).
        let mut live = Coordinator::new(CoordinatorConfig::default()).into_policy();
        dag.echelons.iter().for_each(|h| live.register(h.clone()));
        let got0 = live.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(got0, want, "live registration changed the allocation");
        let got1 = live.allocate(SimTime::new(0.5), &views, &topo);
        let want1 = reference.allocate(SimTime::new(0.5), &views, &topo);
        assert_eq!(
            got1, want1,
            "lifecycle policy diverged on the second decision"
        );
    }

    /// Full and incremental paths stay bit-identical through a coordinator
    /// outage window injected mid-job.
    #[test]
    fn outage_window_preserves_differential_identity() {
        use echelon_simnet::fault::FaultPlan;
        use echelon_simnet::runner::FullRecompute;

        let topo = Topology::chain(2, 1.0);
        let plan = FaultPlan::empty()
            .with(SimTime::new(1.0), FaultKind::CoordinatorDown)
            .with(SimTime::new(3.0), FaultKind::CoordinatorUp);
        let outage = RunConfig::from(plan);
        let configs = [
            CoordinatorConfig::default(),
            CoordinatorConfig {
                trigger: Trigger::Interval(2.0),
                ..CoordinatorConfig::default()
            },
        ];
        for cfg in configs {
            let dag = fig2_dag();
            let mut naive = policy_with(cfg, &dag);
            let full = run_jobs(&topo, &[&dag], &mut FullRecompute(&mut naive), &outage);
            let fast = run_jobs(&topo, &[&dag], &mut policy_with(cfg, &dag), &outage);
            assert_eq!(
                full.trace.events(),
                fast.trace.events(),
                "outage trace mismatch for {:?}",
                cfg
            );
        }
    }
}
