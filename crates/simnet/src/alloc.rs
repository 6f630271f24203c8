//! Bandwidth allocation primitives.
//!
//! Every scheduler in the EchelonFlow reproduction reduces to one of two
//! fills over the active flows:
//!
//! - [`waterfill_dense`]: weighted max-min fairness by progressive
//!   filling, on top of an optional per-flow floor. Unweighted with a
//!   zero floor it is the "naive bandwidth fair sharing" baseline of the
//!   paper's Fig. 2a; with the weights of the agent's queues it is
//!   weighted enforcement; with the MADD rates as the floor it is the
//!   work-conserving backfill of the MADD-family schedulers. It costs
//!   what its flows touch: seeding reads only the links they cross, and
//!   each round only the unfrozen flows and their links, so a floor that
//!   saturates most links leaves a round or two over a few members. The
//!   pod policy runs the same unweighted, zero-floor fill through the
//!   bucket engine, which the unit tests pin bitwise to it. That
//!   engine's unit of work is a class of live links that share residual
//!   bits and crosser count, so a round costs the fill's link states,
//!   not its links. Its link index (`FillIndex`) survives across fills,
//!   patched per arrival and departure, and keeps the live links grouped
//!   by their round-1 state, so a fill starts from the index's groups and
//!   pays for its rounds, not for sorting its links into classes.
//! - [`priority_fill_dense`]: strict-priority greedy filling — flows are
//!   served in a given order, each taking everything left on its path.
//!   This is how the agent enforces schedules through priority queues
//!   (paper §5), and how EDD/SEBF-style orderings become rates.
//!
//! Rates are *dense*: a `Vec<f64>` keyed by position in the id-sorted
//! flow slice the [`crate::fluid::FluidNetwork`] maintains. The filling
//! loops reuse the buffers in an [`AllocScratch`] owned by the caller
//! (the simulation driver keeps one for the whole run), so a
//! steady-state recomputation performs no heap allocation. The map-based
//! [`RateAlloc`] survives only at the edge, for the provided map entry
//! points of [`crate::runner::RatePolicy`].
//!
//! All functions iterate flows in a caller-specified or id order, never in
//! hash order, keeping allocations bit-for-bit deterministic.

use crate::flow::ActiveFlowView;
use crate::ids::{FlowId, ResourceId};
use crate::time::EPS;
use crate::topology::Topology;
use std::collections::BTreeMap;

/// A rate (bytes/second) per active flow, keyed by id: the map-based
/// *edge* currency of [`crate::runner::RatePolicy`]'s provided map entry
/// points. Everything else uses dense `Vec<f64>` rates indexed like the
/// id-sorted flow slice.
pub type RateAlloc = BTreeMap<FlowId, f64>;

/// Reusable workspace for the dense allocation primitives.
///
/// Owned by the caller and passed into [`waterfill_dense`] /
/// [`priority_fill_dense`] so the per-resource and per-flow working
/// buffers are reused across events instead of reallocated. A default
/// (empty) scratch grows to the needed sizes on first use.
#[derive(Debug, Default, Clone)]
pub struct AllocScratch {
    /// Residual capacity per resource during filling. The waterfill
    /// seeds only the links on `links`; other entries are stale.
    residual: Vec<f64>,
    /// Weight mass per resource among unfrozen flows (waterfill rounds).
    /// Entries off the active-link list are stale and never read.
    mass: Vec<f64>,
    /// Indices of flows still participating in the filling.
    unfrozen: Vec<usize>,
    /// Per-flow served marker (priority-fill duplicate suppression).
    seen: Vec<bool>,
    /// Resource ids the current filling can touch (the union of the
    /// participating flows' routes) — waterfill rounds scan only these
    /// instead of every resource, in first-seen order.
    links: Vec<u32>,
    /// Dedup marker for building `links`; all-false between calls.
    link_seen: Vec<bool>,
    /// Classes that crossed the saturation threshold this round.
    newly_sat: Vec<u32>,
    /// Classes whose crosser count dropped in place during this round's
    /// freezes; their cached candidates are re-divided once per round.
    mass_changed: Vec<u32>,
    /// The bucket engine's link classes, in creation order (bucket
    /// waterfill): every fill seeds them from its scope's kept groups.
    classes: Vec<LinkClass>,
    /// Live link positions grouped by class: class `x` holds
    /// `class_links[x.start..x.end]`.
    class_links: Vec<u32>,
    /// Per link position: `[stamp, class, index in class_links]` of a
    /// link the current fill moved; a link without the fill's stamp
    /// sits where the set-up copied its group ([`place`]).
    link_place: Vec<[u32; 3]>,
    /// Per arena slot: the stamp of the last fill that froze its member.
    frozen: Vec<u32>,
    /// The current fill's stamp, bumped by every fill; 0 marks nothing.
    stamp: u32,
    /// Per index group: the class the set-up copied it into.
    group_class: Vec<u32>,
    /// Per index group: where the set-up copied its links to in
    /// `class_links`.
    group_base: Vec<u32>,
    /// Class ids permuted ascending by crosser count — a bucket queue:
    /// classes whose count reaches 0 collect at the front and leave the
    /// live range, and adjacent live entries have near-equal counts so
    /// the interleaved subtraction lanes stay balanced.
    queue: Vec<u32>,
    /// First `queue` index of each count's bucket; decrementing a count
    /// swaps the entry to its bucket's front and bumps the boundary.
    bucket_start: Vec<u32>,
    /// Scratch cursors for the counting sort that orders the classes
    /// into `queue`.
    bucket_cursor: Vec<u32>,
    /// The bucket engine's work since this scratch was made.
    census: FillCensus,
}

/// The bucket engine's unit of work: a set of live links that hold the
/// same residual bits and the same live-crosser count, so every round
/// puts each of them through the same IEEE operations (DESIGN §22).
#[derive(Debug, Clone, Copy)]
struct LinkClass {
    /// Residual capacity of each link of the class.
    res: f64,
    /// Candidate increment `max(res, 0) / cnt`, refreshed by the
    /// subtraction pass and the freeze fix-ups so the min pass never
    /// divides.
    cand: f64,
    /// Live crossers of each link of the class; 0 once the class is
    /// dead (saturated, or its links' last crosser froze).
    cnt: u32,
    /// The class's links are `class_links[start..end]`.
    start: u32,
    end: u32,
    /// The class this round's freezes move this class's count-lowered
    /// links to; valid only when it was made this round. Its links sit
    /// just below `start`.
    split: u32,
    /// The class this one is the split of; read only while this class
    /// was made this round.
    from: u32,
    /// Index in the bucket queue.
    qpos: u32,
}

/// Deterministic work counts of the bucket engine, summed over fills.
/// Plain integer adds on every fill; the unit tests read them. The
/// patches' side of the census is [`FillIndex`]'s `group_moves`.
#[derive(Debug, Default, Clone, Copy)]
struct FillCensus {
    /// Index groups the set-up copied into classes. The set-up touches
    /// no link one by one: it copies each group's link list whole.
    setup_groups: u64,
    /// Fill rounds.
    rounds: u64,
    /// Live links summed over rounds.
    link_rounds: u64,
    /// Live classes summed over rounds.
    class_rounds: u64,
    /// Counted subtractions `r -= inc`, summed over rounds.
    subtractions: u64,
}

impl AllocScratch {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> AllocScratch {
        AllocScratch::default()
    }
}

/// Fills `residual` with per-resource capacity minus the dense allocation.
fn residuals_dense_into(
    topo: &Topology,
    flows: &[ActiveFlowView],
    rates: &[f64],
    residual: &mut Vec<f64>,
) {
    topo.capacities_into(residual);
    for (f, &rate) in flows.iter().zip(rates) {
        for r in &f.route {
            residual[r.0 as usize] -= rate;
        }
    }
}

/// Converts a dense allocation back to the map-based edge currency.
pub fn dense_to_alloc(flows: &[ActiveFlowView], rates: &[f64]) -> RateAlloc {
    debug_assert_eq!(flows.len(), rates.len());
    flows.iter().zip(rates).map(|(f, &r)| (f.id, r)).collect()
}

/// The map edge of a dense allocation: runs `fill` (which writes
/// `out[i]` for `flows[i]`) against a fresh scratch and converts the
/// result once. The provided map entry points of
/// [`crate::runner::RatePolicy`] are this one call.
pub fn alloc_via_dense(
    flows: &[ActiveFlowView],
    fill: impl FnOnce(&mut AllocScratch, &mut Vec<f64>),
) -> RateAlloc {
    let mut ws = AllocScratch::new();
    let mut out = Vec::new();
    fill(&mut ws, &mut out);
    dense_to_alloc(flows, &out)
}

/// Verifies a dense allocation is feasible: `rates[i]` for `flows[i]` is
/// finite and at least `-EPS`, and on every resource the summed rate
/// exceeds capacity by at most 1e-6. Reuses `residual` as the
/// per-resource working buffer (no allocation).
pub fn check_feasible_dense(
    topo: &Topology,
    flows: &[ActiveFlowView],
    rates: &[f64],
    residual: &mut Vec<f64>,
) -> Result<(), String> {
    debug_assert_eq!(flows.len(), rates.len());
    for (f, &rate) in flows.iter().zip(rates) {
        if rate < -EPS {
            return Err(format!("flow {} has negative rate {rate}", f.id));
        }
        if !rate.is_finite() {
            return Err(format!("flow {} has non-finite rate {rate}", f.id));
        }
    }
    residuals_dense_into(topo, flows, rates, residual);
    for (idx, slack) in residual.iter().enumerate() {
        if *slack < OVERSUBSCRIBED {
            return Err(format!("resource r{idx} oversubscribed by {}", -slack));
        }
    }
    Ok(())
}

/// Slack below which a resource counts as oversubscribed.
const OVERSUBSCRIBED: f64 = -1e-6;

/// [`check_feasible_dense`] over the links in use: the same verdict and
/// the same message, at O(flows · route) instead of O(flows · route +
/// resources).
///
/// The audit keeps its own copy of the current capacities, which its
/// owner updates through [`Self::set_capacity`] (the fluid network does
/// so on every fault). A check seeds a link's residual from that copy on
/// first touch and subtracts rates in flow order, so every slack has the
/// bits the reference computes. An untouched link's slack is its
/// capacity; links with a capacity below the tolerance are cached and
/// seeded up front, so they are judged too. The topology keeps every
/// capacity non-negative, so that cache is empty in practice.
#[derive(Debug, Clone)]
pub(crate) struct FeasibilityAudit {
    /// Current capacity per resource.
    caps: Vec<f64>,
    /// Resources whose capacity alone is below the tolerance, ascending.
    oversubscribed_caps: Vec<u32>,
    /// Sparse set over `touched`: `slot[r]` is `r`'s position there when
    /// `touched[slot[r]].0 == r`, so a check needs no clearing pass.
    slot: Vec<u32>,
    /// `(resource, residual)` for every link the current check touched.
    touched: Vec<(u32, f64)>,
}

impl FeasibilityAudit {
    /// An audit of `topo` at its current capacities.
    pub(crate) fn new(topo: &Topology) -> FeasibilityAudit {
        let mut caps = Vec::new();
        topo.capacities_into(&mut caps);
        let oversubscribed_caps = (0..caps.len() as u32)
            .filter(|&r| caps[r as usize] < OVERSUBSCRIBED)
            .collect();
        FeasibilityAudit {
            slot: vec![0; caps.len()],
            caps,
            oversubscribed_caps,
            touched: Vec::new(),
        }
    }

    /// Records that resource `r` now has capacity `cap`.
    pub(crate) fn set_capacity(&mut self, r: ResourceId, cap: f64) {
        self.caps[r.0 as usize] = cap;
        let pos = self.oversubscribed_caps.binary_search(&r.0);
        match (pos, cap < OVERSUBSCRIBED) {
            (Err(at), true) => self.oversubscribed_caps.insert(at, r.0),
            (Ok(at), false) => {
                self.oversubscribed_caps.remove(at);
            }
            _ => {}
        }
    }

    /// Checks `rates` (`rates[i]` for `flows[i]`) against the current
    /// capacities; `Ok` or `Err` with exactly the message
    /// [`check_feasible_dense`] returns for the same input.
    pub(crate) fn check(&mut self, flows: &[ActiveFlowView], rates: &[f64]) -> Result<(), String> {
        debug_assert_eq!(flows.len(), rates.len());
        self.touched.clear();
        for &r in &self.oversubscribed_caps {
            self.slot[r as usize] = self.touched.len() as u32;
            self.touched.push((r, self.caps[r as usize]));
        }
        for (f, &rate) in flows.iter().zip(rates) {
            // Any rate error outranks every residual error in the
            // reference, which checks all rates first.
            if rate < -EPS {
                return Err(format!("flow {} has negative rate {rate}", f.id));
            }
            if !rate.is_finite() {
                return Err(format!("flow {} has non-finite rate {rate}", f.id));
            }
            for r in &f.route {
                let ri = r.0 as usize;
                let s = self.slot[ri] as usize;
                match self.touched.get_mut(s) {
                    Some(entry) if entry.0 == r.0 => entry.1 -= rate,
                    _ => {
                        self.slot[ri] = self.touched.len() as u32;
                        self.touched.push((r.0, self.caps[ri] - rate));
                    }
                }
            }
        }
        // The reference reports the lowest oversubscribed resource id.
        let worst = self
            .touched
            .iter()
            .filter(|&&(_, slack)| slack < OVERSUBSCRIBED)
            .min_by_key(|&&(r, _)| r);
        match worst {
            Some(&(r, slack)) => Err(format!("resource r{r} oversubscribed by {}", -slack)),
            None => Ok(()),
        }
    }
}

/// Weighted max-min fairness on top of a floor, by progressive filling.
///
/// `rates` doubles as the floor on entry (zero it for no floor) and holds
/// the allocation on exit. Starting from the floor, every flow raises its
/// rate in proportion to its weight until a resource on its route
/// saturates; saturated flows freeze and the filling continues. The floor
/// must be finite and feasible (MADD's "pin targets, then backfill"), and
/// the weights finite. `weights[i]` applies to `flows[i]` (`None` means
/// all 1.0). All working state lives in `ws`, so steady-state calls
/// allocate nothing.
///
/// A round costs O(hops of the unfrozen flows): no pass reads a resource
/// they do not cross. A floor that saturates a link opens with a zero
/// round, which only freezes that link's crossers, so a MADD backfill
/// spends its later rounds on the few flows the floors leave room for.
pub fn waterfill_dense(
    topo: &Topology,
    flows: &[ActiveFlowView],
    weights: Option<&[f64]>,
    rates: &mut [f64],
    ws: &mut AllocScratch,
) {
    debug_assert_eq!(rates.len(), flows.len());
    debug_assert!(weights.is_none_or(|w| w.len() == flows.len()));
    let w_of = |i: usize| weights.map_or(1.0, |w| w[i]).max(0.0);

    let AllocScratch {
        residual,
        mass,
        unfrozen,
        links,
        link_seen,
        ..
    } = ws;
    let nres = topo.num_resources();
    residual.resize(residual.len().max(nres), 0.0);
    mass.resize(mass.len().max(nres), 0.0);
    link_seen.resize(link_seen.len().max(nres), false);
    unfrozen.clear();
    unfrozen.extend(0..flows.len());
    let mut seed = true;

    loop {
        // The links the unfrozen flows cross, first-touch order, and their
        // weight mass summed in flow order. The first pass also seeds each
        // link's residual: capacity minus the floors in flow order, the
        // bits of a full capacity copy minus the same floors. Entries off
        // `links` are stale and never read.
        links.clear();
        for &i in unfrozen.iter() {
            let w = w_of(i);
            for r in &flows[i].route {
                let ri = r.0 as usize;
                if !link_seen[ri] {
                    link_seen[ri] = true;
                    links.push(r.0);
                    mass[ri] = 0.0;
                    if seed {
                        residual[ri] = topo.capacity(*r);
                    }
                }
                mass[ri] += w;
                if seed {
                    residual[ri] -= rates[i];
                }
            }
        }
        seed = false;
        // Largest uniform increment before some resource saturates. A min
        // over non-NaN values is order-free, and no candidate is −0.0
        // (capacities and so residuals never are; `max(0.0)` lifts
        // negatives to +0.0), so the unsorted links pick the same bits.
        let mut inc = f64::INFINITY;
        for &r in links.iter() {
            link_seen[r as usize] = false; // restore the all-false invariant
            let m = mass[r as usize];
            if m > EPS {
                inc = inc.min((residual[r as usize].max(0.0)) / m);
            }
        }
        if !inc.is_finite() {
            // Only zero-weight flows remain: they get nothing more.
            break;
        }
        for &i in unfrozen.iter() {
            let delta = w_of(i) * inc;
            rates[i] += delta;
            // A zero round leaves every residual's bits alone.
            if inc != 0.0 {
                for r in &flows[i].route {
                    residual[r.0 as usize] -= delta;
                }
            }
        }
        // Freeze flows on saturated resources.
        let before = unfrozen.len();
        unfrozen.retain(|&i| {
            if w_of(i) <= EPS {
                return false;
            }
            for r in &flows[i].route {
                if residual[r.0 as usize] <= EPS {
                    return false;
                }
            }
            true
        });
        // Progress guarantee: each round freezes at least one flow, because
        // the binding resource saturates exactly.
        if unfrozen.len() == before {
            break;
        }
    }
}

/// Entries per arena slot in [`FillIndex`]'s flat route arena: the first
/// entry holds the route's hop count and kept-hop mask, the rest one link
/// position per hop. Fat-tree routes are at most 6 hops (host→edge→agg→
/// core→agg→edge→host for a core crosser), so a slot keeps a spare entry
/// and fits one cache line.
pub(crate) const ROUTE_RANK_STRIDE: usize = 8;

/// No link position, crosser node or member.
const NONE: u32 = u32::MAX;

/// The head entry of an arena slot that holds no member.
const VACANT: u32 = u32::MAX;

/// Resizes `v` to `len` entries, growing its capacity by a quarter
/// instead of doubling it: the index's slot- and position-indexed arrays
/// then carry at most a quarter of slack, and growth stays amortized
/// O(1) per entry.
pub(crate) fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.capacity() < len {
        v.reserve_exact(len + len / 4 - v.len());
    }
    v.resize(len, fill);
}

/// The bucket engine's link index over a set of members, kept across
/// fills and patched by each arrival and departure, so that a fill
/// starts from it instead of deriving its round state ([`waterfill_bucket`]).
///
/// Each link some member crosses holds a *position*, stable while the
/// link stays in use, and per position the index keeps its raw crosser
/// count (the mass), the list of its crossers, and whether it is live:
/// crossed by two or more members, or by one that keeps it. A live
/// link's crosser count is its round-1 count. Capacities come from the
/// snapshot the index was last rebuilt from.
///
/// Per member, keyed by arena slot, it keeps its route as link positions
/// and which of them it keeps. A member's keeper is its route's lowest
/// `(capacity, single-crosser, id)` link. It keeps every link of its route
/// except those that only it crosses, that are not its keeper and whose
/// capacity is no lower than the keeper's: such a link binds no later and
/// saturates no later than the keeper (DESIGN §13.2), so a fill leaves it
/// out.
///
/// The live links are kept *grouped* by round-1 state: a group holds the
/// live links of one pod (one pod on a topology without pods) that share
/// capacity bits and crosser count, so its links go through the same
/// operations in a fill's first round and seed one class (DESIGN §23).
/// Every patch that changes a live link's mass or liveness moves it
/// between groups, opening a group on its first link and closing it on
/// its last. A pod fill copies its pod's groups, a whole-fabric fill the
/// groups of every pod, those of equal state into one class.
///
/// Every piece of this is a function of the member set and the
/// capacities alone, so patching it delta by delta lands on the index one
/// built from scratch would hold, up to position and group numbering and
/// list order, which no fill result depends on.
///
/// Masses, crosser lists and routes do not depend on capacities; keys,
/// liveness and groups do. A new, cleared or invalidated index is
/// *stale*: it takes arrivals and departures without re-keying anyone,
/// and [`Self::rekey_all`] re-reads the capacities, keys every member
/// and regroups every live link once before the next fill.
#[derive(Debug, Default, Clone)]
pub(crate) struct FillIndex {
    /// False while the index is stale.
    keyed: bool,
    /// Capacity per global link id, read by the last [`Self::rekey_all`].
    caps: Vec<f64>,
    /// Pod per global link id.
    link_pod: Vec<u32>,
    /// Per arena slot, [`ROUTE_RANK_STRIDE`] entries: the hop count in the
    /// low byte of the first and the kept-hop mask above it ([`VACANT`]
    /// for a slot without a member), then hop `h`'s link position at
    /// `1 + h`. The index of that entry is also the hop's *node* in its
    /// link's crosser list.
    hops: Vec<u32>,
    /// Per node: the next node on the same link's crosser list.
    next: Vec<u32>,
    /// Members held.
    members: u32,
    /// Global link id → position, [`NONE`] while no member crosses it.
    pos_of: Vec<u32>,
    /// Per position: the global link id.
    link: Vec<u32>,
    /// Per position: the link's crosser count.
    mass: Vec<u32>,
    /// Per position: the first node of the link's crosser list.
    head: Vec<u32>,
    /// Per position: its group, [`NONE`] while the link is not live.
    group_of: Vec<u32>,
    /// Per position: its index in its group's `links`.
    group_at: Vec<u32>,
    /// Positions no link holds.
    free: Vec<u32>,
    /// Groups by id; an id no group holds has no links.
    groups: Vec<LinkGroup>,
    /// Group ids no group holds.
    free_groups: Vec<u32>,
    /// `(capacity bits, count, pod)` → id of every group, so that the
    /// groups of equal state in different pods are adjacent.
    group_ids: BTreeMap<(u64, u32, u32), u32>,
    /// Per pod: the ids of its groups.
    pod_groups: Vec<Vec<u32>>,
    /// Work census: links the index filed into, out of or between
    /// groups since it was made.
    group_moves: u64,
}

/// The live links of one pod that share capacity bits and crosser count.
#[derive(Debug, Default, Clone)]
struct LinkGroup {
    /// Capacity of each link.
    cap: f64,
    /// Crosser count of each link.
    cnt: u32,
    /// The pod of the links.
    pod: u32,
    /// Index in its pod's group list.
    pod_at: u32,
    /// The links' positions.
    links: Vec<u32>,
}

impl FillIndex {
    /// An empty, stale index.
    pub(crate) fn new() -> FillIndex {
        FillIndex::default()
    }

    /// Makes the index stale, keeping its members: a fault may have
    /// changed any capacity, and with it any keeper.
    pub(crate) fn invalidate(&mut self) {
        self.keyed = false;
    }

    /// Forgets every member and link, leaving the index stale. The arrays
    /// keep their lengths, so that a full recompute, which clears and
    /// refills the index, does not grow them again.
    pub(crate) fn clear(&mut self) {
        for &l in &self.link {
            self.pos_of[l as usize] = NONE;
        }
        self.hops.fill(VACANT);
        self.members = 0;
        self.free.clear();
        self.free.extend((0..self.link.len() as u32).rev());
        self.ungroup_all();
        self.keyed = false;
    }

    /// Empties every group, leaving no link live.
    fn ungroup_all(&mut self) {
        for g in &mut self.groups {
            g.links.clear();
        }
        self.free_groups.clear();
        self.free_groups.extend((0..self.groups.len() as u32).rev());
        self.group_ids.clear();
        for list in &mut self.pod_groups {
            list.clear();
        }
        self.group_of.fill(NONE);
    }

    /// True when arena `slot` holds a member.
    pub(crate) fn is_member(&self, slot: u32) -> bool {
        self.hops
            .get(slot as usize * ROUTE_RANK_STRIDE)
            .is_some_and(|&h| h != VACANT)
    }

    /// Keys a stale index: re-reads the capacities and pods from `topo`,
    /// then re-keys every member, in slot order, onto empty groups. That
    /// is the key every member would get from arriving one by one on the
    /// current masses. A no-op on an index that is not stale.
    pub(crate) fn rekey_all(&mut self, topo: &Topology) {
        if self.keyed {
            return;
        }
        topo.capacities_into(&mut self.caps);
        self.link_pod.clear();
        let npods = match topo.pod_partition() {
            Some((npods, pod_of)) => {
                self.link_pod.extend_from_slice(pod_of);
                npods as usize
            }
            None => {
                self.link_pod.resize(self.caps.len(), 0);
                1
            }
        };
        self.ungroup_all();
        self.pod_groups.resize_with(npods, Vec::new);
        self.keyed = true;
        for slot in 0..(self.hops.len() / ROUTE_RANK_STRIDE) as u32 {
            if self.is_member(slot) {
                self.rekey(slot);
            }
        }
    }

    /// Indexes a member on arena `slot` crossing `route` (global link
    /// ids): bumps the masses on its route, moving each live one to its
    /// new count's group; then, unless the index is stale, re-keys the
    /// former sole crosser of every link it makes shared and keys itself.
    /// Returns false, and indexes nothing, for a route with more hops
    /// than a slot holds or a slot that already holds a member. A flow
    /// arena builds neither, but a caller-built view may carry any route
    /// and slot.
    #[must_use]
    pub(crate) fn arrive(&mut self, slot: u32, route: impl ExactSizeIterator<Item = u32>) -> bool {
        let len = route.len();
        if len >= ROUTE_RANK_STRIDE || self.is_member(slot) {
            return false;
        }
        let base = slot as usize * ROUTE_RANK_STRIDE;
        if self.hops.len() < base + ROUTE_RANK_STRIDE {
            grow(&mut self.hops, base + ROUTE_RANK_STRIDE, VACANT);
            grow(&mut self.next, base + ROUTE_RANK_STRIDE, NONE);
        }
        let mut shared = [NONE; ROUTE_RANK_STRIDE - 1];
        for (h, l) in route.enumerate() {
            if l as usize >= self.pos_of.len() {
                grow(&mut self.pos_of, l as usize + 1, NONE);
            }
            let p = match self.pos_of[l as usize] {
                NONE => self.open(l),
                p => p as usize,
            };
            if self.mass[p] == 1 {
                shared[h] = self.head[p] / ROUTE_RANK_STRIDE as u32;
            }
            let node = base + 1 + h;
            self.next[node] = self.head[p];
            self.head[p] = node as u32;
            self.mass[p] += 1;
            self.regroup(p);
            self.hops[node] = p as u32;
        }
        self.hops[base] = len as u32;
        self.members += 1;
        if self.keyed {
            for &m in &shared[..len] {
                if m != NONE && m != slot {
                    self.rekey(m);
                }
            }
            self.rekey(slot);
        }
        true
    }

    /// Removes the member on arena `slot`, if any: decrements the masses
    /// on its route, moving each live one to its new count's group,
    /// closes the links no member crosses any more and re-keys the
    /// remaining crosser of every link it leaves single, unless the index
    /// is stale.
    pub(crate) fn depart(&mut self, slot: u32) {
        if !self.is_member(slot) {
            return;
        }
        let base = slot as usize * ROUTE_RANK_STRIDE;
        let len = (self.hops[base] & 0xff) as usize;
        self.hops[base] = VACANT;
        self.members -= 1;
        let mut single = [NONE; ROUTE_RANK_STRIDE - 1];
        for (node, left) in (base + 1..base + 1 + len).zip(single.iter_mut()) {
            let p = self.hops[node] as usize;
            if self.head[p] == node as u32 {
                self.head[p] = self.next[node];
            } else {
                let mut at = self.head[p] as usize;
                while self.next[at] != node as u32 {
                    at = self.next[at] as usize;
                }
                self.next[at] = self.next[node];
            }
            self.mass[p] -= 1;
            match self.mass[p] {
                0 => self.close(p),
                1 => *left = self.head[p] / ROUTE_RANK_STRIDE as u32,
                _ => {}
            }
            self.regroup(p);
        }
        if !self.keyed {
            return;
        }
        for &m in &single[..len] {
            if m != NONE && m != slot {
                self.rekey(m);
            }
        }
    }

    /// A fresh position for link `l`, crossed by no member yet.
    fn open(&mut self, l: u32) -> usize {
        let p = match self.free.pop() {
            Some(p) => p as usize,
            None => {
                let p = self.link.len();
                grow(&mut self.link, p + 1, 0);
                grow(&mut self.mass, p + 1, 0);
                grow(&mut self.head, p + 1, NONE);
                grow(&mut self.group_of, p + 1, NONE);
                grow(&mut self.group_at, p + 1, 0);
                p
            }
        };
        self.link[p] = l;
        self.mass[p] = 0;
        self.head[p] = NONE;
        self.group_of[p] = NONE;
        self.pos_of[l as usize] = p as u32;
        p
    }

    /// Frees position `p`, whose last crosser left.
    fn close(&mut self, p: usize) {
        self.set_live(p, false);
        self.pos_of[self.link[p] as usize] = NONE;
        self.free.push(p as u32);
    }

    /// Recomputes member `m`'s keeper and kept hops from the current masses
    /// and capacities, and the liveness of every link on its route. A link
    /// crossed by others stays live whatever `m` keeps, and one only `m`
    /// crosses is live exactly when `m` keeps it, so this sets the
    /// liveness of each link whose single flag or sole crosser's keeper
    /// changed. The keeper rule is the one [`FillIndex`] documents; the
    /// capacity test fails only for a NaN capacity, which is then kept.
    fn rekey(&mut self, m: u32) {
        let base = m as usize * ROUTE_RANK_STRIDE;
        let len = (self.hops[base] & 0xff) as usize;
        let (mut kcap, mut ksingle, mut keeper) = (f64::INFINITY, true, u32::MAX);
        for &p in &self.hops[base + 1..base + 1 + len] {
            let p = p as usize;
            let l = self.link[p];
            let (cap, single) = (self.caps[l as usize], self.mass[p] == 1);
            if cap < kcap || (cap == kcap && (single, l) < (ksingle, keeper)) {
                (kcap, ksingle, keeper) = (cap, single, l);
            }
        }
        let mut kept = 0u32;
        for h in 0..len {
            let p = self.hops[base + 1 + h] as usize;
            let l = self.link[p];
            let retired = self.mass[p] == 1 && l != keeper && kcap <= self.caps[l as usize];
            self.set_live(p, !retired);
            if !retired {
                kept |= 1 << h;
            }
        }
        self.hops[base] = len as u32 | kept << 8;
    }

    /// Files position `p` under the group of its state when `on`, and
    /// under none otherwise.
    fn set_live(&mut self, p: usize, on: bool) {
        if on == (self.group_of[p] != NONE) {
            return;
        }
        if on {
            self.join(p);
        } else {
            self.leave(p);
        }
        self.group_moves += 1;
    }

    /// Moves live position `p`, whose mass changed, to the group of its
    /// new count; a no-op for a link that is not live.
    fn regroup(&mut self, p: usize) {
        if self.group_of[p] != NONE {
            self.leave(p);
            self.join(p);
            self.group_moves += 1;
        }
    }

    /// Adds position `p` to the group of its pod, capacity and count,
    /// opening that group if it has no links yet.
    fn join(&mut self, p: usize) {
        let l = self.link[p] as usize;
        let (cap, cnt, pod) = (self.caps[l], self.mass[p], self.link_pod[l]);
        let g = match self.group_ids.get(&(cap.to_bits(), cnt, pod)) {
            Some(&g) => g as usize,
            None => {
                let g = match self.free_groups.pop() {
                    Some(g) => g as usize,
                    None => {
                        self.groups.push(LinkGroup::default());
                        self.groups.len() - 1
                    }
                };
                let list = &mut self.pod_groups[pod as usize];
                let group = &mut self.groups[g];
                (group.cap, group.cnt, group.pod) = (cap, cnt, pod);
                group.pod_at = list.len() as u32;
                list.push(g as u32);
                self.group_ids.insert((cap.to_bits(), cnt, pod), g as u32);
                g
            }
        };
        self.group_of[p] = g as u32;
        self.group_at[p] = self.groups[g].links.len() as u32;
        self.groups[g].links.push(p as u32);
    }

    /// Takes position `p` out of its group, closing the group if that was
    /// its last link.
    fn leave(&mut self, p: usize) {
        let (g, at) = (self.group_of[p] as usize, self.group_at[p] as usize);
        self.group_of[p] = NONE;
        let group = &mut self.groups[g];
        group.links.swap_remove(at);
        if let Some(&moved) = group.links.get(at) {
            self.group_at[moved as usize] = at as u32;
        }
        if !group.links.is_empty() {
            return;
        }
        let (pod, pod_at) = (group.pod as usize, group.pod_at as usize);
        self.group_ids
            .remove(&(group.cap.to_bits(), group.cnt, group.pod));
        let list = &mut self.pod_groups[pod];
        list.swap_remove(pod_at);
        if let Some(&moved) = list.get(pod_at) {
            self.groups[moved as usize].pod_at = pod_at as u32;
        }
        self.free_groups.push(g as u32);
    }

    /// Checks this index against `fresh`, one built from scratch over
    /// the members this one should hold: both must hold the same members
    /// with the same routes and kept links, per link in use the same
    /// capacity, crosser count, pod, liveness and crossers, and per pod
    /// the same groups of the same links. Position and group numbering
    /// and list order are free. Also checks each index's links between
    /// its per-position arrays, crosser lists and groups. Returns the
    /// first difference found.
    pub(crate) fn check_against(&self, fresh: &FillIndex) -> Result<(), String> {
        let (kept, want) = (self.census()?, fresh.census()?);
        match kept.iter().zip(&want).find(|(a, b)| a != b) {
            Some((a, b)) => Err(format!("patched {a}, rebuilt {b}")),
            None if kept.len() != want.len() => Err(format!(
                "patched {} entries, rebuilt {}",
                kept.len(),
                want.len()
            )),
            None => Ok(()),
        }
    }

    /// One line per member slot, then one per link in use by id, then
    /// one per group, free of position and group numbering and list
    /// order; an error where the internal links disagree.
    fn census(&self) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        for (slot, e) in self.hops.chunks(ROUTE_RANK_STRIDE).enumerate() {
            if e[0] != VACANT {
                let route: Vec<u32> = e[1..1 + (e[0] & 0xff) as usize]
                    .iter()
                    .map(|&p| self.link[p as usize])
                    .collect();
                lines.push(format!(
                    "slot {slot}: route {route:?} kept {:#b}",
                    e[0] >> 8
                ));
            }
        }
        if lines.len() != self.members as usize {
            return Err(format!("{} members counted", self.members));
        }
        let mut links = Vec::new();
        for (p, &l) in self.link.iter().enumerate() {
            if self.free.contains(&(p as u32)) {
                continue;
            }
            let mut crossers = Vec::new();
            let mut node = self.head[p];
            while node != NONE {
                crossers.push(node / ROUTE_RANK_STRIDE as u32);
                node = self.next[node as usize];
            }
            crossers.sort_unstable();
            let pod = self.link_pod[l as usize];
            let cap = self.caps[l as usize];
            let g = self.group_of[p];
            let filed = self.groups.get(g as usize).is_some_and(|k| {
                k.links.get(self.group_at[p] as usize) == Some(&(p as u32))
                    && (k.cap.to_bits(), k.cnt, k.pod) == (cap.to_bits(), self.mass[p], pod)
            });
            if self.pos_of[l as usize] != p as u32
                || crossers.len() != self.mass[p] as usize
                || (g != NONE && !filed)
            {
                return Err(format!("link {l}: position {p} is inconsistent"));
            }
            links.push((
                l,
                format!(
                    "link {l}: cap {cap:e} pod {pod} live {} crossers {crossers:?}",
                    g != NONE
                ),
            ));
        }
        links.sort_unstable();
        lines.extend(links.into_iter().map(|(_, line)| line));
        let mut groups = Vec::new();
        for (pod, list) in self.pod_groups.iter().enumerate() {
            for (at, &g) in list.iter().enumerate() {
                let k = &self.groups[g as usize];
                let key = (k.cap.to_bits(), k.cnt, k.pod);
                if k.pod as usize != pod
                    || k.pod_at as usize != at
                    || k.links.is_empty()
                    || self.group_ids.get(&key) != Some(&g)
                {
                    return Err(format!("group {g} of pod {pod} is inconsistent"));
                }
                let mut ids: Vec<u32> = k.links.iter().map(|&p| self.link[p as usize]).collect();
                ids.sort_unstable();
                groups.push(format!(
                    "pod {pod} group cap {:e} count {}: links {ids:?}",
                    k.cap, k.cnt
                ));
            }
        }
        let filed: usize = self.groups.iter().map(|k| k.links.len()).sum();
        let live = self.group_of.iter().filter(|&&g| g != NONE).count();
        if groups.len() != self.group_ids.len() || filed != live {
            return Err(format!("{filed} links filed in {} groups", groups.len()));
        }
        groups.sort_unstable();
        lines.extend(groups);
        Ok(lines)
    }
}

/// The members and links a [`waterfill_bucket`] fill covers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FillScope<'a> {
    /// Pod `.0`'s live links and its members, on arena slots `.1`: the
    /// index's members that cross the pod, while no member crosses pods.
    Pod(u32, &'a [u32]),
    /// Every live link and every member of the index.
    Fabric,
}

/// Class-bucket waterfill: the pod policy's refill engine, for one pod
/// or the whole fabric. Bit-identical to the unweighted, zero-floor
/// [`waterfill_dense`] over the same members (the unit tests pin this
/// per pod, over whole fabrics with core crossers, and on synthetic
/// fills, degraded and zero-capacity links included), but restructured
/// around an inverted link→member index, and around *classes* of live
/// links, so a round costs O(link states + frozen route hops) instead of
/// three full member sweeps:
///
/// - masses are maintained as integer crosser counts, decremented as
///   members freeze (whole-number f64 arithmetic is exact, so
///   `cnt as f64` is bitwise the reference's `+= 1.0` accumulation);
/// - each link's round subtraction applies the increment once per
///   crossing active member — the reference interleaves subtractions
///   across links in member order, but every subtraction on a link in a
///   given round subtracts the *same* increment, so only the count
///   matters for the resulting bits;
/// - links that hold the same residual bits and the same count therefore
///   go through the same operations every round, and the engine keeps
///   them as one *class*: the min pass reads one cached candidate per
///   class, the counted subtraction runs once per class, and a saturated
///   class freezes the crossers of all its links. Round 1's classes are
///   the index's groups of (capacity bits, count), merged across pods in
///   a whole-fabric fill. A freeze that lowers a link's count moves it to
///   the class for (its class, new count), made on first use in the
///   round, so a class splits when only some of its links lose a
///   crosser; a class of one link takes its new count in place;
/// - the live classes sit in a bucket queue ascending by count: a count
///   decrement is an O(1) swap to its bucket's front, a new split enters
///   with one move per nonempty bucket above its count, classes at count
///   0 leave every later sweep, and the subtraction runs four classes in
///   interleaved lanes whose counts stay near-equal;
/// - a member freezes in the round a route link first reaches ≤ EPS,
///   which is exactly the reference's end-of-round retain test: an
///   active member's links were all > EPS at the previous round's end;
/// - a link only one member crosses is left out when that member's
///   route holds another link of no greater capacity, which binds no
///   later and saturates no later (DESIGN §13.2). In a whole-fabric fill
///   with core crossers most links in use are such links, and the rounds
///   skip them.
///
/// The link index and its grouping live in `index` ([`FillIndex`]),
/// which the caller keeps across fills and patches as members arrive and
/// depart. So the set-up touches no link one by one: it copies each
/// group's link list whole into its class, a link's class and place are
/// read from its group until a freeze moves it, and frozen members are
/// marked with the fill's stamp. A fill pays for its rounds, O(groups)
/// to start them, and nothing else. `scope` names the links and members
/// ([`FillScope`]). Each member's rate is written to `slot_rate` at its
/// arena slot, which must cover every slot the index holds; no other
/// entry is written.
pub(crate) fn waterfill_bucket(
    index: &FillIndex,
    scope: FillScope,
    slot_rate: &mut [f64],
    ws: &mut AllocScratch,
) {
    debug_assert!(index.keyed, "fill from a stale index");
    let nslots = index.hops.len() / ROUTE_RANK_STRIDE;
    debug_assert!(slot_rate.len() >= nslots);
    let AllocScratch {
        newly_sat,
        mass_changed,
        classes,
        class_links,
        link_place,
        frozen,
        stamp,
        group_class,
        group_base,
        queue,
        bucket_start,
        bucket_cursor,
        census,
        ..
    } = ws;
    let FillIndex {
        hops,
        next,
        head,
        groups,
        ..
    } = index;
    // A fresh stamp leaves every member unfrozen and every link where the
    // set-up puts it.
    *stamp = stamp.wrapping_add(1);
    if *stamp == 0 {
        frozen.fill(0);
        link_place.fill([0; 3]);
        *stamp = 1;
    }
    let stamp = *stamp;
    if frozen.len() < nslots {
        grow(frozen, nslots, 0);
    }
    if link_place.len() < index.link.len() {
        grow(link_place, index.link.len(), [0; 3]);
    }
    if group_class.len() < groups.len() {
        grow(group_class, groups.len(), 0);
        grow(group_base, groups.len(), 0);
    }
    // Round 1's classes: each group's links, copied whole. A live link's
    // crossers all keep it, so its round-1 count is its mass. A pod's
    // groups all differ in state; a fabric fill reads every pod's groups
    // with those of equal state adjacent, and merges them into one class.
    // `cnt as f64` is exact for these whole numbers, so the quotient bits
    // match the reference's accumulated-f64 mass division.
    classes.clear();
    class_links.clear();
    let mut seed = |g: u32| {
        let k = &groups[g as usize];
        let same = classes
            .last()
            .is_some_and(|c: &LinkClass| c.res.to_bits() == k.cap.to_bits() && c.cnt == k.cnt);
        if !same {
            classes.push(LinkClass {
                res: k.cap,
                cand: k.cap.max(0.0) / k.cnt as f64,
                cnt: k.cnt,
                start: class_links.len() as u32,
                end: 0,
                split: NONE,
                from: NONE,
                qpos: 0,
            });
        }
        group_class[g as usize] = classes.len() as u32 - 1;
        group_base[g as usize] = class_links.len() as u32;
        class_links.extend_from_slice(&k.links);
        classes.last_mut().expect("a class was made").end = class_links.len() as u32;
        census.setup_groups += 1;
    };
    let members = match scope {
        FillScope::Pod(pod, slots) => {
            index.pod_groups[pod as usize].iter().for_each(|&g| seed(g));
            slots.len()
        }
        FillScope::Fabric => {
            index.group_ids.values().for_each(|&g| seed(g));
            index.members as usize
        }
    };
    // Bucket queue over the classes, ascending by count: `queue` is the
    // permutation, `LinkClass::qpos` its inverse, `bucket_start[c]` the
    // first `queue` index holding a count-`c` class, placed by a counting
    // sort of the classes. Counts above `top` are empty, and their
    // boundaries are not kept.
    let mut top = classes.iter().map(|k| k.cnt as usize).max().unwrap_or(0);
    bucket_start.clear();
    bucket_start.resize(top + 2, 0);
    for k in classes.iter() {
        bucket_start[k.cnt as usize + 1] += 1;
    }
    for c in 1..bucket_start.len() {
        bucket_start[c] += bucket_start[c - 1];
    }
    bucket_cursor.clear();
    bucket_cursor.extend_from_slice(bucket_start);
    queue.clear();
    queue.resize(classes.len(), 0);
    for (x, k) in classes.iter_mut().enumerate() {
        let c = k.cnt as usize;
        k.qpos = bucket_cursor[c];
        queue[k.qpos as usize] = x as u32;
        bucket_cursor[c] += 1;
    }
    let mut qlen = classes.len();
    let group_class = &group_class[..];
    let group_base = &group_base[..];
    #[cfg(debug_assertions)]
    let mut shadow = ShadowLinks::new(index, class_links);
    // Running prefix of the increment sequence. Every member active
    // through round `r` accumulates exactly the first `r` increments in
    // order, so one shared fold replaces the reference's per-member
    // accumulators: assigning `prefix` at freeze time is bitwise the
    // same value.
    let mut prefix = 0.0f64;
    let mut live_links = class_links.len() as u64;
    let mut thawed = members;

    while thawed > 0 {
        while top > 0 && bucket_start[top] as usize == qlen {
            top -= 1;
        }
        let live0 = bucket_start[1] as usize;
        census.rounds += 1;
        census.link_rounds += live_links;
        census.class_rounds += (qlen - live0) as u64;
        #[cfg(debug_assertions)]
        shadow.check(
            index,
            (&frozen[..], stamp),
            classes,
            class_links,
            (&link_place[..], group_class, group_base),
        );
        // Min pass over live classes only: a pure scan of the cached
        // candidates — the divisions already happened in the previous
        // round's subtraction pass (or the freeze fix-ups). The scan
        // runs count-descending (reversed bucket order) because heavier
        // classes tend toward smaller candidates, so the running min
        // settles early and its branch stays predictable. Min over
        // non-NaN values is order-independent and ties carry identical
        // bits, so any scan order picks the reference minimum's bits.
        let mut inc = f64::INFINITY;
        for &x in queue[live0..qlen].iter().rev() {
            let c = classes[x as usize].cand;
            if c < inc {
                inc = c;
            }
        }
        if !inc.is_finite() {
            break;
        }
        prefix += inc;
        #[cfg(debug_assertions)]
        shadow.subtract(inc);
        // Class-major counted subtraction over the live suffix, fused
        // with saturation detection and the next round's candidate
        // division. Per link the reference subtracts `inc` once per
        // crossing active member, interleaved across links in member
        // order — but equal-decrement chains land on the same bits in
        // any interleaving, so folding a class's `cnt` subtractions in a
        // register is bitwise the member-major order on each of its
        // links. Four classes run in interleaved lanes to hide the
        // subtraction latency; bucket order groups near-equal counts, so
        // the masked `- 0.0` padding (a bitwise identity for non-NaN x)
        // on shorter lanes is marginal. The candidate cache written here
        // uses this round's pre-freeze counts; the freezes below give
        // each class whose count changes its own division.
        newly_sat.clear();
        let inc_bits = inc.to_bits();
        let mut subtractions = 0;
        {
            let mut i = live0;
            while i + 4 <= qlen {
                let x0 = queue[i] as usize;
                let x1 = queue[i + 1] as usize;
                let x2 = queue[i + 2] as usize;
                let x3 = queue[i + 3] as usize;
                let n0 = classes[x0].cnt;
                let n1 = classes[x1].cnt;
                let n2 = classes[x2].cnt;
                let n3 = classes[x3].cnt;
                let mut r0 = classes[x0].res;
                let mut r1 = classes[x1].res;
                let mut r2 = classes[x2].res;
                let mut r3 = classes[x3].res;
                let cmax = n0.max(n1).max(n2).max(n3);
                for k in 0..cmax {
                    r0 -= f64::from_bits(inc_bits & 0u64.wrapping_sub((k < n0) as u64));
                    r1 -= f64::from_bits(inc_bits & 0u64.wrapping_sub((k < n1) as u64));
                    r2 -= f64::from_bits(inc_bits & 0u64.wrapping_sub((k < n2) as u64));
                    r3 -= f64::from_bits(inc_bits & 0u64.wrapping_sub((k < n3) as u64));
                }
                subtractions += n0 + n1 + n2 + n3;
                classes[x0].res = r0;
                classes[x1].res = r1;
                classes[x2].res = r2;
                classes[x3].res = r3;
                classes[x0].cand = r0.max(0.0) / n0 as f64;
                classes[x1].cand = r1.max(0.0) / n1 as f64;
                classes[x2].cand = r2.max(0.0) / n2 as f64;
                classes[x3].cand = r3.max(0.0) / n3 as f64;
                if r0 <= EPS {
                    newly_sat.push(x0 as u32);
                }
                if r1 <= EPS {
                    newly_sat.push(x1 as u32);
                }
                if r2 <= EPS {
                    newly_sat.push(x2 as u32);
                }
                if r3 <= EPS {
                    newly_sat.push(x3 as u32);
                }
                i += 4;
            }
            while i < qlen {
                let x = queue[i] as usize;
                let nx = classes[x].cnt;
                let mut r = classes[x].res;
                for _ in 0..nx {
                    r -= inc;
                }
                subtractions += nx;
                classes[x].res = r;
                classes[x].cand = r.max(0.0) / nx as f64;
                if r <= EPS {
                    newly_sat.push(x as u32);
                }
                i += 1;
            }
        }
        census.subtractions += u64::from(subtractions);
        // Every link of a saturated class loses all its crossers this
        // round, so the class leaves the queue first (count 0, below
        // `bucket_start[1]`), and the freezes below pass its links by
        // instead of splitting it.
        for &x in newly_sat.iter() {
            let x = x as usize;
            let k = classes[x];
            live_links -= u64::from(k.end - k.start);
            for c in (1..=k.cnt).rev() {
                queue_lower(queue, bucket_start, classes, x, c);
            }
            classes[x].cnt = 0;
        }
        let before = thawed;
        mass_changed.clear();
        let round_first = classes.len() as u32;
        for &x in newly_sat.iter() {
            let LinkClass { start, end, .. } = classes[x as usize];
            for li in start..end {
                let mut node = head[class_links[li as usize] as usize];
                while node != NONE {
                    let slot = node as usize / ROUTE_RANK_STRIDE;
                    node = next[node as usize];
                    if frozen[slot] == stamp {
                        continue;
                    }
                    frozen[slot] = stamp;
                    slot_rate[slot] = prefix;
                    thawed -= 1;
                    // Each kept route link loses a crosser: its class
                    // lowers in place when the link is alone in it, else
                    // the link moves to the class's split for this round.
                    let base = slot * ROUTE_RANK_STRIDE;
                    let mut kept = hops[base] >> 8;
                    while kept != 0 {
                        let t = hops[base + 1 + kept.trailing_zeros() as usize] as usize;
                        kept &= kept - 1;
                        let (x, i) = place(index, link_place, group_class, group_base, stamp, t);
                        let x = x as usize;
                        let k = classes[x];
                        if k.cnt == 0 {
                            continue;
                        }
                        if k.end - k.start == 1 {
                            queue_lower(queue, bucket_start, classes, x, k.cnt);
                            classes[x].cnt = k.cnt - 1;
                            if x as u32 >= round_first {
                                // Its parent's next lowered link must
                                // not join it at the old count.
                                classes[k.from as usize].split = NONE;
                            }
                            if k.cnt == 1 {
                                live_links -= 1;
                            } else {
                                mass_changed.push(x as u32);
                            }
                            continue;
                        }
                        let y = if k.split != NONE && k.split >= round_first {
                            k.split as usize
                        } else {
                            let y = classes.len();
                            let cnt = k.cnt - 1;
                            classes.push(LinkClass {
                                res: k.res,
                                cand: 0.0,
                                cnt,
                                start: k.start,
                                end: k.start,
                                split: NONE,
                                from: x as u32,
                                qpos: NONE,
                            });
                            if cnt > 0 {
                                classes[y].cand = k.res.max(0.0) / cnt as f64;
                                queue_insert(queue, bucket_start, classes, &mut qlen, top, y);
                            }
                            classes[x].split = y as u32;
                            y
                        };
                        // The link swaps to the front of its class's
                        // links, which the split, sitting just below,
                        // then takes over.
                        let s = classes[x].start;
                        let other = class_links[s as usize];
                        class_links[s as usize] = t as u32;
                        class_links[i as usize] = other;
                        link_place[other as usize] = [stamp, x as u32, i];
                        link_place[t] = [stamp, y as u32, s];
                        classes[x].start = s + 1;
                        classes[y].end = s + 1;
                        if classes[y].cnt == 0 {
                            live_links -= 1;
                        }
                    }
                }
            }
        }
        // Candidate fix-ups for surviving classes whose count dropped in
        // place: the division the reference would perform next round
        // (same residual bits, post-freeze count). Duplicate entries are
        // harmless, the fix-up is idempotent.
        for &x in mass_changed.iter() {
            let k = &mut classes[x as usize];
            if k.cnt > 0 {
                k.cand = k.res.max(0.0) / k.cnt as f64;
            }
        }
        if thawed == before {
            break;
        }
    }
    // Members that never froze (zero-capacity stall, a no-progress round
    // or no route) hold everything accumulated so far — the same fold
    // `prefix` carries. A pod's members are listed; a fabric fill's are
    // every member of the index, searched for only when one is left.
    let mut rest = |slot: usize| {
        if frozen[slot] != stamp {
            slot_rate[slot] = prefix;
        }
    };
    match scope {
        FillScope::Pod(_, slots) => slots.iter().for_each(|&s| rest(s as usize)),
        FillScope::Fabric if thawed > 0 => (0..nslots)
            .filter(|&s| hops[s * ROUTE_RANK_STRIDE] != VACANT)
            .for_each(rest),
        FillScope::Fabric => {}
    }
}

/// The class of live link position `p` in the current fill, and its
/// index in `class_links`: a link the fill moved carries both in
/// `link_place` under the fill's `stamp`; any other link sits in the
/// class its group was copied into, at its place in the group.
fn place(
    index: &FillIndex,
    link_place: &[[u32; 3]],
    group_class: &[u32],
    group_base: &[u32],
    stamp: u32,
    p: usize,
) -> (u32, u32) {
    match link_place[p] {
        [s, x, at] if s == stamp => (x, at),
        _ => {
            let g = index.group_of[p] as usize;
            (group_class[g], group_base[g] + index.group_at[p])
        }
    }
}

/// Lowers class `x`, at count `c`, into count bucket `c - 1` of the
/// queue: swaps it to the front of its bucket and bumps the boundary.
fn queue_lower(
    queue: &mut [u32],
    bucket_start: &mut [u32],
    classes: &mut [LinkClass],
    x: usize,
    c: u32,
) {
    let b = bucket_start[c as usize];
    let p = classes[x].qpos;
    let other = queue[b as usize];
    queue[b as usize] = x as u32;
    queue[p as usize] = other;
    classes[other as usize].qpos = p;
    classes[x].qpos = b;
    bucket_start[c as usize] = b + 1;
}

/// Enqueues the new class `x` at the end of its count's bucket, below
/// `top`, the highest count with a class: every nonempty bucket above it
/// moves its first entry to its end, which frees the slot.
fn queue_insert(
    queue: &mut Vec<u32>,
    bucket_start: &mut [u32],
    classes: &mut [LinkClass],
    qlen: &mut usize,
    top: usize,
    x: usize,
) {
    let mut hole = *qlen as u32;
    *qlen += 1;
    if queue.len() < *qlen {
        queue.push(NONE);
    }
    for c in (classes[x].cnt as usize + 1..=top).rev() {
        let s = bucket_start[c];
        if s != hole {
            let f = queue[s as usize];
            queue[hole as usize] = f;
            classes[f as usize].qpos = hole;
            hole = s;
        }
        bucket_start[c] = s + 1;
    }
    queue[hole as usize] = x as u32;
    classes[x].qpos = hole;
}

/// A debug build's per-link replay of the class engine: each live link's
/// own residual and live-crosser count, recomputed every round from the
/// index and the frozen members alone. Every round it asserts that each
/// link's class holds exactly that state and lists the link, and that a
/// link without live crossers sits in a dead class.
#[cfg(debug_assertions)]
struct ShadowLinks {
    /// The scope's live link positions.
    links: Vec<u32>,
    /// Per position: residual and live-crosser count.
    state: Vec<(f64, u32)>,
}

#[cfg(debug_assertions)]
impl ShadowLinks {
    /// The replay of a fill whose round-1 classes hold `links`.
    fn new(index: &FillIndex, links: &[u32]) -> ShadowLinks {
        let mut state = vec![(0.0, 0); index.link.len()];
        for &p in links {
            state[p as usize].0 = index.caps[index.link[p as usize] as usize];
        }
        ShadowLinks {
            links: links.to_vec(),
            state,
        }
    }

    /// Recounts each link's live crossers that keep it, then checks the
    /// link's class against its state.
    fn check(
        &mut self,
        index: &FillIndex,
        (frozen, stamp): (&[u32], u32),
        classes: &[LinkClass],
        class_links: &[u32],
        (link_place, group_class, group_base): (&[[u32; 3]], &[u32], &[u32]),
    ) {
        for &p in &self.links {
            let p = p as usize;
            let mut n = 0;
            let mut node = index.head[p];
            while node != NONE {
                let slot = node as usize / ROUTE_RANK_STRIDE;
                let hop = node as usize % ROUTE_RANK_STRIDE - 1;
                let kept = (index.hops[slot * ROUTE_RANK_STRIDE] >> 8 >> hop) & 1 == 1;
                n += u32::from(kept && frozen[slot] != stamp);
                node = index.next[node as usize];
            }
            let (res, cnt) = &mut self.state[p];
            *cnt = n;
            let (x, at) = place(index, link_place, group_class, group_base, stamp, p);
            let k = classes[x as usize];
            if n == 0 {
                assert_eq!(k.cnt, 0, "link position {p} has no crosser left");
                continue;
            }
            assert!(
                k.cnt == n
                    && k.res.to_bits() == res.to_bits()
                    && (k.start..k.end).contains(&at)
                    && class_links[at as usize] == p as u32,
                "link position {p}: count {n} residual {res:e}, its class {k:?}"
            );
        }
    }

    /// Subtracts `inc` from each link once per live crosser.
    fn subtract(&mut self, inc: f64) {
        for &p in &self.links {
            let (res, cnt) = &mut self.state[p as usize];
            for _ in 0..*cnt {
                *res -= inc;
            }
        }
    }
}

/// Strict-priority greedy filling.
///
/// Flows are served in the order given by `order` (earlier = higher
/// priority); each takes the minimum residual capacity along its route.
/// Flows not listed in `order` receive rate zero. This realizes
/// priority-queue enforcement (paper §5) and turns EDD/SEBF orderings
/// into concrete rates.
///
/// `flows` must be in ascending id order (the [`crate::fluid`] invariant);
/// order entries are resolved by binary search instead of a per-call id
/// map. `rates` is zeroed and filled in place. Order entries naming
/// unknown flows are skipped; duplicates are served once.
pub fn priority_fill_dense(
    topo: &Topology,
    flows: &[ActiveFlowView],
    order: &[FlowId],
    rates: &mut [f64],
    ws: &mut AllocScratch,
) {
    debug_assert!(
        flows.windows(2).all(|w| w[0].id < w[1].id),
        "priority_fill flows must be sorted by ascending id"
    );
    debug_assert_eq!(rates.len(), flows.len());
    let AllocScratch { residual, seen, .. } = ws;
    topo.capacities_into(residual);
    seen.clear();
    seen.resize(flows.len(), false);
    rates.fill(0.0);
    for fid in order {
        let Ok(i) = flows.binary_search_by(|v| v.id.cmp(fid)) else {
            continue; // ordering may mention flows that already finished
        };
        if seen[i] {
            continue; // ignore duplicate entries
        }
        seen[i] = true;
        let f = &flows[i];
        let rate = f
            .route
            .iter()
            .map(|r| residual[r.0 as usize])
            .fold(f64::INFINITY, f64::min)
            .max(0.0);
        if rate > EPS {
            rates[i] = rate;
            for r in &f.route {
                residual[r.0 as usize] -= rate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowDemand;
    use crate::ids::NodeId;
    use crate::time::SimTime;

    fn view(topo: &Topology, d: &FlowDemand) -> ActiveFlowView {
        ActiveFlowView {
            id: d.id,
            src: d.src,
            dst: d.dst,
            size: d.size,
            remaining: d.size,
            release: d.release,
            route: topo.route(d.src, d.dst),
            slot: d.id.0 as u32,
        }
    }

    fn two_flows_one_port() -> (Topology, Vec<ActiveFlowView>) {
        let topo = Topology::big_switch_uniform(3, 1.0);
        let demands = [
            FlowDemand::new(FlowId(0), NodeId(0), NodeId(1), 2.0, SimTime::ZERO),
            FlowDemand::new(FlowId(1), NodeId(0), NodeId(2), 2.0, SimTime::ZERO),
        ];
        let flows = demands.iter().map(|d| view(&topo, d)).collect();
        (topo, flows)
    }

    /// Unweighted max-min fairness with no floor: [`waterfill_dense`]
    /// over `flows` alone, the reference every bucket-engine fill is
    /// pinned to.
    fn fair(topo: &Topology, flows: &[ActiveFlowView], ws: &mut AllocScratch) -> Vec<f64> {
        let mut rates = vec![0.0; flows.len()];
        waterfill_dense(topo, flows, None, &mut rates, ws);
        rates
    }

    /// Strict-priority rates in `order`.
    fn priority(topo: &Topology, flows: &[ActiveFlowView], order: &[FlowId]) -> Vec<f64> {
        let mut rates = vec![f64::NAN; flows.len()];
        priority_fill_dense(topo, flows, order, &mut rates, &mut AllocScratch::new());
        rates
    }

    fn feasible(topo: &Topology, flows: &[ActiveFlowView], rates: &[f64]) -> Result<(), String> {
        check_feasible_dense(topo, flows, rates, &mut Vec::new())
    }

    #[test]
    fn max_min_equal_split_on_shared_egress() {
        let (topo, flows) = two_flows_one_port();
        let rates = fair(&topo, &flows, &mut AllocScratch::new());
        assert!((rates[0] - 0.5).abs() < 1e-9);
        assert!((rates[1] - 0.5).abs() < 1e-9);
        feasible(&topo, &flows, &rates).unwrap();
    }

    #[test]
    fn max_min_uses_spare_capacity() {
        // f0 and f1 share n0 egress; f2 is alone on n1 egress.
        let topo = Topology::big_switch_uniform(4, 1.0);
        let demands = [
            FlowDemand::new(FlowId(0), NodeId(0), NodeId(2), 1.0, SimTime::ZERO),
            FlowDemand::new(FlowId(1), NodeId(0), NodeId(3), 1.0, SimTime::ZERO),
            FlowDemand::new(FlowId(2), NodeId(1), NodeId(2), 1.0, SimTime::ZERO),
        ];
        let flows: Vec<_> = demands.iter().map(|d| view(&topo, d)).collect();
        let rates = fair(&topo, &flows, &mut AllocScratch::new());
        // f0 and f2 share n2's ingress: 0.5 each; f1 then gets n0's
        // remaining egress 0.5.
        assert!((rates[0] - 0.5).abs() < 1e-9);
        assert!((rates[2] - 0.5).abs() < 1e-9);
        assert!((rates[1] - 0.5).abs() < 1e-9);
        feasible(&topo, &flows, &rates).unwrap();
    }

    #[test]
    fn weighted_split_follows_weights() {
        let (topo, flows) = two_flows_one_port();
        let mut rates = vec![0.0; 2];
        let mut ws = AllocScratch::new();
        waterfill_dense(&topo, &flows, Some(&[3.0, 1.0]), &mut rates, &mut ws);
        assert!((rates[0] - 0.75).abs() < 1e-9);
        assert!((rates[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn floor_is_respected() {
        // f0 starts at its 0.6 floor; the remaining 0.4 of the shared
        // egress is split equally on top of the floor.
        let (topo, flows) = two_flows_one_port();
        let mut rates = vec![0.6, 0.0];
        let mut ws = AllocScratch::new();
        waterfill_dense(&topo, &flows, None, &mut rates, &mut ws);
        assert!((rates[0] - 0.8).abs() < 1e-9);
        assert!((rates[1] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn priority_fill_is_strict() {
        let (topo, flows) = two_flows_one_port();
        let rates = priority(&topo, &flows, &[FlowId(1), FlowId(0)]);
        assert!((rates[1] - 1.0).abs() < 1e-9);
        assert!(rates[0].abs() < 1e-9);
    }

    #[test]
    fn priority_fill_ignores_unknown_and_duplicate_ids() {
        let (topo, flows) = two_flows_one_port();
        let order = [FlowId(99), FlowId(0), FlowId(0), FlowId(1)];
        let rates = priority(&topo, &flows, &order);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!(rates[1].abs() < 1e-9);
    }

    #[test]
    fn unlisted_flows_get_zero() {
        let (topo, flows) = two_flows_one_port();
        let rates = priority(&topo, &flows, &[FlowId(0)]);
        assert_eq!(rates[1], 0.0);
    }

    #[test]
    fn feasibility_rejects_oversubscription() {
        let (topo, flows) = two_flows_one_port();
        assert!(feasible(&topo, &flows, &[0.8, 0.8]).is_err());
        assert!(feasible(&topo, &flows, &[0.5, 0.5]).is_ok());
    }

    #[test]
    fn feasibility_rejects_negative_rates() {
        let (topo, flows) = two_flows_one_port();
        assert!(feasible(&topo, &flows, &[-0.5, 0.0]).is_err());
        assert!(feasible(&topo, &flows, &[f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn max_min_on_chain_bottleneck() {
        // Fig. 2 geometry: one link of capacity B = 1 between two workers.
        let topo = Topology::chain(2, 1.0);
        let demands = [
            FlowDemand::new(FlowId(0), NodeId(0), NodeId(1), 2.0, SimTime::ZERO),
            FlowDemand::new(FlowId(1), NodeId(0), NodeId(1), 2.0, SimTime::ZERO),
            FlowDemand::new(FlowId(2), NodeId(0), NodeId(1), 2.0, SimTime::ZERO),
        ];
        let flows: Vec<_> = demands.iter().map(|d| view(&topo, d)).collect();
        for rate in fair(&topo, &flows, &mut AllocScratch::new()) {
            assert!((rate - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    /// The pre-link-index progressive filling, its arithmetic kept
    /// verbatim as the bitwise reference for [`waterfill_dense`].
    /// Returns the first round's increment (`None` when no round ran),
    /// for the tests' census of which rounds they pin.
    fn waterfill_reference(
        topo: &Topology,
        flows: &[ActiveFlowView],
        weights: Option<&[f64]>,
        rates: &mut [f64],
    ) -> Option<f64> {
        let mut first = None;
        let w_of = |i: usize| weights.map_or(1.0, |w| w[i]).max(0.0);
        let mut residual: Vec<f64> = (0..topo.num_resources())
            .map(|r| topo.capacity(ResourceId(r as u32)))
            .collect();
        for (f, &rate) in flows.iter().zip(rates.iter()) {
            for r in &f.route {
                residual[r.0 as usize] -= rate;
            }
        }
        let mut unfrozen: Vec<usize> = (0..flows.len()).collect();
        while !unfrozen.is_empty() {
            let mut mass = vec![0.0; topo.num_resources()];
            for &i in &unfrozen {
                let w = w_of(i);
                for r in &flows[i].route {
                    mass[r.0 as usize] += w;
                }
            }
            let mut inc = f64::INFINITY;
            for (r, &m) in mass.iter().enumerate() {
                if m > EPS {
                    inc = inc.min((residual[r].max(0.0)) / m);
                }
            }
            first.get_or_insert(inc);
            if !inc.is_finite() {
                break;
            }
            for &i in &unfrozen {
                let delta = w_of(i) * inc;
                rates[i] += delta;
                for r in &flows[i].route {
                    residual[r.0 as usize] -= delta;
                }
            }
            let before = unfrozen.len();
            unfrozen.retain(|&i| {
                if w_of(i) <= EPS {
                    return false;
                }
                for r in &flows[i].route {
                    if residual[r.0 as usize] <= EPS {
                        return false;
                    }
                }
                true
            });
            if unfrozen.len() == before {
                break;
            }
        }
        first
    }

    /// Randomized bitwise check of the active-link waterfill against the
    /// full-scan reference: both Full and Incremental recompute paths go
    /// through [`waterfill_dense`], so the differential suite alone cannot
    /// catch a bug here.
    #[test]
    fn waterfill_matches_full_scan_reference_bitwise() {
        use echelon_detrand::DetRng;
        let mut rng = DetRng::seed_from_u64(0x11DE_C5ED);
        let topos = [
            Topology::big_switch_uniform(12, 1.0),
            Topology::dumbbell(5, 5, 4.0, 1.0),
            Topology::chain(6, 2.0),
        ];
        let mut ws = AllocScratch::new();
        for trial in 0..60 {
            let topo = &topos[trial % topos.len()];
            let hosts = topo.num_nodes().min(10); // route among hosts only
            let n = rng.usize_range_inclusive(1, 24);
            let mut flows = Vec::new();
            for id in 0..n {
                let src = rng.usize_range_inclusive(0, hosts - 1);
                let mut dst = rng.usize_range_inclusive(0, hosts - 1);
                if dst == src {
                    dst = (dst + 1) % hosts;
                }
                let d = FlowDemand::new(
                    FlowId(id as u64),
                    NodeId(src as u32),
                    NodeId(dst as u32),
                    rng.f64_range(0.5, 8.0),
                    SimTime::ZERO,
                );
                flows.push(view(topo, &d));
            }
            let weights: Option<Vec<f64>> =
                (trial % 2 == 0).then(|| (0..n).map(|_| rng.f64_range(0.0, 3.0)).collect());
            let floor: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.next_f64() < 0.2 {
                        rng.f64_range(0.0, 0.2)
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut optimized = floor.clone();
            waterfill_dense(topo, &flows, weights.as_deref(), &mut optimized, &mut ws);
            let mut reference = floor;
            waterfill_reference(topo, &flows, weights.as_deref(), &mut reference);
            for (i, (a, b)) in optimized.iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "trial {trial} flow {i}: optimized {a} != reference {b}"
                );
            }
        }
    }

    /// Route hops above which a fill counts as wide in the non-vacuity
    /// checks below. Every fill builds the bucket queue, so both sides of
    /// this line must stay pinned: narrow fills are a few members on
    /// short routes, wide ones many members per link.
    const WIDE_FILL_HOPS: usize = 64;

    /// The views of `subset`'s members, in `subset` order.
    fn gather(flows: &[ActiveFlowView], subset: &[usize]) -> Vec<ActiveFlowView> {
        subset.iter().map(|&i| flows[i].clone()).collect()
    }

    /// A random synthetic fill: capacities over `nranks` link ids and one
    /// route per member, with members mapped to shuffled arena slots the
    /// way the policy's recycled arena maps them. The fill is given as
    /// views — member `j`'s route as `ResourceId`s — on a big switch whose
    /// first `nranks` resources carry the sim's capacities.
    struct PodSim {
        topo: Topology,
        views: Vec<ActiveFlowView>,
    }

    impl PodSim {
        /// A narrow fill (at most 12 members on 2–10 links: never more
        /// than 48 route hops) or a wide one (17–64 members on 8–40
        /// links: usually more than [`WIDE_FILL_HOPS`]).
        fn new(rng: &mut echelon_detrand::DetRng, wide: bool) -> PodSim {
            let (nranks, members) = if wide {
                (
                    rng.usize_range_inclusive(8, 40),
                    rng.usize_range_inclusive(17, 64),
                )
            } else {
                (
                    rng.usize_range_inclusive(2, 10),
                    rng.usize_range_inclusive(0, 12),
                )
            };
            let caps: Vec<f64> = (0..nranks)
                .map(|_| {
                    if rng.usize_range_inclusive(0, 9) == 0 {
                        0.0 // exercise saturated-at-birth links
                    } else {
                        rng.f64_range(0.25, 3.0)
                    }
                })
                .collect();
            let routes: Vec<Vec<u32>> = (0..members)
                .map(|_| {
                    let hops = rng.usize_range_inclusive(1, nranks.min(4));
                    let mut route: Vec<u32> = (0..nranks as u32).collect();
                    rng.shuffle(&mut route);
                    route.truncate(hops);
                    route
                })
                .collect();
            let mut slots: Vec<u32> = (0..members as u32).collect();
            rng.shuffle(&mut slots);
            PodSim::from_routes(caps, &routes, slots)
        }

        /// The fill whose arena slot `s` holds `routes[s]` and whose member
        /// `j` sits on arena slot `slots[j]`.
        fn from_routes(caps: Vec<f64>, routes: &[Vec<u32>], slots: Vec<u32>) -> PodSim {
            let nranks = caps.len();
            let mut topo = Topology::big_switch_uniform(nranks.div_ceil(2), 1.0);
            for (r, &c) in caps.iter().enumerate() {
                topo.set_capacity(ResourceId(r as u32), c);
            }
            let views = slots
                .iter()
                .enumerate()
                .map(|(j, &slot)| ActiveFlowView {
                    id: FlowId(j as u64),
                    slot,
                    src: NodeId(0),
                    dst: NodeId(0),
                    size: 1.0,
                    remaining: 1.0,
                    release: SimTime::ZERO,
                    route: routes[slot as usize]
                        .iter()
                        .map(|&l| ResourceId(l))
                        .collect(),
                })
                .collect();
            PodSim { topo, views }
        }

        /// Fills every member through the bucket engine; also returns how
        /// many route hops it retired as dominated.
        fn bucket_retired(&self, ws: &mut AllocScratch) -> (Vec<f64>, usize) {
            let all: Vec<usize> = (0..self.views.len()).collect();
            let mut rates = vec![f64::NAN; self.views.len()];
            let retired = bucket(&self.topo, &self.views, &all, &mut rates, ws);
            (rates, retired)
        }

        /// Fills every member through the bucket engine.
        fn bucket(&self, ws: &mut AllocScratch) -> Vec<f64> {
            self.bucket_retired(ws).0
        }
    }

    /// A fresh [`FillIndex`] over the members `subset` of `flows`, built
    /// the one way an index is built: by arriving each member, then
    /// keying them all.
    fn index_over(topo: &Topology, flows: &[ActiveFlowView], subset: &[usize]) -> FillIndex {
        let mut index = FillIndex::new();
        for &i in subset {
            let v = &flows[i];
            assert!(index.arrive(v.slot, v.route.iter().map(|r| r.0)));
        }
        index.rekey_all(topo);
        index
    }

    /// Fills the members `subset` of `flows` through the bucket engine
    /// over a fresh index of them, writing `rates[i]` for `i ∈ subset`;
    /// returns how many route hops the index retired as dominated.
    fn bucket(
        topo: &Topology,
        flows: &[ActiveFlowView],
        subset: &[usize],
        rates: &mut [f64],
        ws: &mut AllocScratch,
    ) -> usize {
        let index = index_over(topo, flows, subset);
        fill(&index, FillScope::Fabric, flows, subset, rates, ws);
        retired_hops(&index)
    }

    /// Fills `scope` of `index`, whose members are `subset` of `flows`,
    /// through the bucket engine, writing `rates[i]` for `i ∈ subset`.
    fn fill(
        index: &FillIndex,
        scope: FillScope,
        flows: &[ActiveFlowView],
        subset: &[usize],
        rates: &mut [f64],
        ws: &mut AllocScratch,
    ) {
        let mut slot_rate = vec![f64::NAN; index.hops.len() / ROUTE_RANK_STRIDE];
        waterfill_bucket(index, scope, &mut slot_rate, ws);
        for &i in subset {
            rates[i] = slot_rate[flows[i].slot as usize];
        }
    }

    /// Fills pod `pod` of `index`, whose members there are `subset` of
    /// `flows`, through the bucket engine, writing `rates[i]` for
    /// `i ∈ subset`.
    fn pod_fill(
        index: &FillIndex,
        pod: u32,
        flows: &[ActiveFlowView],
        subset: &[usize],
        rates: &mut [f64],
        ws: &mut AllocScratch,
    ) {
        let slots: Vec<u32> = subset.iter().map(|&i| flows[i].slot).collect();
        fill(index, FillScope::Pod(pod, &slots), flows, subset, rates, ws);
    }

    /// Route hops an index's members do not keep.
    fn retired_hops(index: &FillIndex) -> usize {
        index
            .hops
            .chunks(ROUTE_RANK_STRIDE)
            .filter(|e| e[0] != VACANT)
            .map(|e| (e[0] & 0xff) as usize - (e[0] >> 8).count_ones() as usize)
            .sum()
    }

    /// Total route hops of the members `subset` of `flows`.
    fn route_hops(flows: &[ActiveFlowView], subset: &[usize]) -> usize {
        subset.iter().map(|&i| flows[i].route.len()).sum()
    }

    /// The bucket engine must be bitwise the dense waterfill on random
    /// synthetic fills of every width, narrow and wide, with one scratch
    /// reused across all of them and shared with the reference.
    #[test]
    fn bucket_engine_matches_dense_waterfill_on_synthetic_fills() {
        let mut ws = AllocScratch::new();
        let (mut narrow, mut wide) = (0usize, 0usize);
        for seed in 0..300u64 {
            let mut rng = echelon_detrand::DetRng::seed_from_u64(0xF111 + seed);
            let sim = PodSim::new(&mut rng, seed % 2 == 1);
            let want = fair(&sim.topo, &sim.views, &mut ws);
            let got = sim.bucket(&mut ws);
            assert_eq!(want.len(), got.len());
            for (j, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed} member {j}: {a} != {b}"
                );
            }
            let all: Vec<usize> = (0..sim.views.len()).collect();
            if route_hops(&sim.views, &all) > WIDE_FILL_HOPS {
                wide += 1;
            } else {
                narrow += 1;
            }
        }
        // Non-vacuity: both widths are pinned in bulk.
        assert!(
            narrow >= 100 && wide >= 100,
            "only {narrow} narrow and {wide} wide fills of 300"
        );
    }

    /// Retiring dominated single-crosser links moves no bit. Hand-built
    /// fills aim at each way the keeper rule could go wrong, and each
    /// pins how many hops it retires; random narrow, wide and
    /// whole-fabric fills then check it in bulk. Every fill is bitwise
    /// the dense waterfill, and links are actually retired.
    #[test]
    fn bucket_engine_retires_dominated_links_bitwise() {
        /// A label, capacities, routes by member and the hops retired.
        type Case = (&'static str, Vec<f64>, Vec<Vec<u32>>, usize);
        let cases: [Case; 6] = [
            (
                // Member 0's strict bottleneck is a degraded link only it
                // crosses, behind a shared link with a lower id: it must
                // be the keeper. Member 1's lone link is retired.
                "degraded single-crosser bottleneck",
                vec![1.0, 0.3, 2.0],
                vec![vec![0, 1], vec![0, 2]],
                1,
            ),
            (
                // One member, every link single-crosser, the bottleneck
                // last and with the highest id.
                "all links single-crosser",
                vec![1.0, 0.7, 0.5],
                vec![vec![0, 1, 2]],
                2,
            ),
            (
                // Equal capacities: member 0's single-crosser link ties a
                // shared one with a higher id, member 2's ties nothing.
                "equal-capacity ties",
                vec![1.0, 1.0, 1.0, 0.5, 1.0],
                vec![vec![0, 1], vec![1, 2], vec![2, 3, 4]],
                2,
            ),
            (
                // Zero-capacity links, single-crosser (members 0 and 2)
                // and shared (link 5, members 3 and 4).
                "zero capacity",
                vec![0.0, 1.0, 0.0, 1.0, 2.0, 0.0, 0.5],
                vec![vec![1, 0], vec![1, 3, 4], vec![2, 3], vec![5, 6], vec![5]],
                2,
            ),
            (
                // A member with no hops beside one whose links are all
                // single-crosser.
                "zero-hop member",
                vec![0.6, 0.9],
                vec![vec![], vec![0, 1]],
                1,
            ),
            (
                // Two members on the same two links: no link has a
                // single crosser, so nothing is retired.
                "shared route",
                vec![0.5, 0.5],
                vec![vec![0, 1], vec![1, 0]],
                0,
            ),
        ];
        let mut ws = AllocScratch::new();
        let check = |label: &str, sim: &PodSim, ws: &mut AllocScratch| -> usize {
            let want = fair(&sim.topo, &sim.views, ws);
            let (got, retired) = sim.bucket_retired(ws);
            for (j, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{label} member {j}: {a} != {b}");
            }
            retired
        };
        for (label, caps, routes, retired) in cases {
            let slots = (0..routes.len() as u32).collect();
            let sim = PodSim::from_routes(caps, &routes, slots);
            assert_eq!(
                check(label, &sim, &mut ws),
                retired,
                "{label}: hops retired"
            );
        }
        let mut retired = 0;
        for seed in 0..200u64 {
            let mut rng = echelon_detrand::DetRng::seed_from_u64(0xD0_417 + seed);
            let sim = PodSim::new(&mut rng, seed % 2 == 1);
            retired += check(&format!("synthetic seed {seed}"), &sim, &mut ws);
        }
        assert!(
            retired > 100,
            "only {retired} hops retired on synthetic fills"
        );
        let (mut retired, mut hops) = (0, 0);
        for seed in 0..20u64 {
            let mut rng = echelon_detrand::DetRng::seed_from_u64(0xD0_FAB + seed);
            let k = if seed % 2 == 0 { 4 } else { 8 };
            let sim = FabricSim::new(&mut rng, k, 12 * k, 0.2);
            let want = fair(&sim.topo, &sim.flows, &mut ws);
            let subset: Vec<usize> = (0..sim.flows.len()).collect();
            let mut got = vec![f64::NAN; subset.len()];
            let fill_retired = bucket(&sim.topo, &sim.flows, &subset, &mut got, &mut ws);
            for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "fabric seed {seed} flow {i}: {a} != {b}"
                );
            }
            hops += route_hops(&sim.flows, &subset);
            retired += fill_retired;
        }
        // Whole-fabric fills with core crossers retire a real share.
        assert!(
            retired * 10 > hops,
            "only {retired} of {hops} fabric hops retired"
        );
    }

    /// A random fat-tree workload: a k-ary fabric with about one link in
    /// five degraded and one in twenty cut to zero capacity, and `n`
    /// flows on shuffled arena slots. Each flow crosses the core with
    /// probability `cross`.
    struct FabricSim {
        topo: Topology,
        flows: Vec<ActiveFlowView>,
    }

    impl FabricSim {
        fn new(rng: &mut echelon_detrand::DetRng, k: usize, n: usize, cross: f64) -> FabricSim {
            let mut topo = crate::fattree::FatTree::new(k).build_fabric();
            for r in 0..topo.num_resources() {
                let r = ResourceId(r as u32);
                match rng.usize_range_inclusive(0, 19) {
                    0 => topo.set_capacity(r, 0.0),
                    1..=4 => topo.set_capacity(r, topo.capacity(r) * rng.f64_range(0.1, 0.9)),
                    _ => {}
                }
            }
            FabricSim::on(topo, rng, k, n, cross)
        }

        /// `n` flows on `topo`, a k-ary fat tree, as [`Self::new`] draws
        /// them.
        fn on(
            topo: Topology,
            rng: &mut echelon_detrand::DetRng,
            k: usize,
            n: usize,
            cross: f64,
        ) -> FabricSim {
            let hosts_per_pod = k * k / 4;
            let mut slots: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut slots);
            let mut flows = Vec::with_capacity(n);
            for (id, &slot) in slots.iter().enumerate() {
                let src_pod = rng.usize_range_inclusive(0, k - 1);
                let dst_pod = if rng.next_f64() < cross {
                    (src_pod + rng.usize_range_inclusive(1, k - 1)) % k
                } else {
                    src_pod
                };
                let src = rng.usize_range_inclusive(0, hosts_per_pod - 1);
                let mut dst = rng.usize_range_inclusive(0, hosts_per_pod - 2);
                if dst >= src {
                    dst += 1;
                }
                let d = FlowDemand::new(
                    FlowId(id as u64),
                    NodeId((src_pod * hosts_per_pod + src) as u32),
                    NodeId((dst_pod * hosts_per_pod + dst) as u32),
                    1.0,
                    SimTime::ZERO,
                );
                flows.push(ActiveFlowView {
                    slot,
                    ..view(&topo, &d)
                });
            }
            FabricSim { topo, flows }
        }

        /// Indices of the flows that start and end in `pod`, ascending.
        fn pod_members(&self, pod: u32) -> Vec<usize> {
            (0..self.flows.len())
                .filter(|&i| {
                    let v = &self.flows[i];
                    self.topo.host_pod(v.src) == Some(pod) && self.topo.host_pod(v.dst) == Some(pod)
                })
                .collect()
        }
    }

    /// The bucket engine must be bitwise the dense waterfill over each
    /// pod's gathered views, pod by pod, on k=4 and k=8 fat trees: random
    /// pod-local flow sets on shuffled arena slots, one index over every
    /// flow filled one pod's slice at a time, about one link in five
    /// degraded and one in twenty cut to zero capacity.
    #[test]
    fn bucket_engine_matches_dense_waterfill_per_pod() {
        let mut ws = AllocScratch::new();
        let (mut filled, mut starved) = (0usize, 0usize);
        for seed in 0..40u64 {
            let mut rng = echelon_detrand::DetRng::seed_from_u64(0x5B5E7 + seed);
            let k = if seed % 2 == 0 { 4 } else { 8 };
            let n = rng.usize_range_inclusive(k, 12 * k);
            let sim = FabricSim::new(&mut rng, k, n, 0.0);
            let index = index_over(&sim.topo, &sim.flows, &(0..n).collect::<Vec<_>>());
            for pod in 0..k as u32 {
                let subset = sim.pod_members(pod);
                let want = fair(&sim.topo, &gather(&sim.flows, &subset), &mut ws);
                let mut got = vec![f64::NAN; n];
                pod_fill(&index, pod, &sim.flows, &subset, &mut got, &mut ws);
                for (j, &i) in subset.iter().enumerate() {
                    assert_eq!(
                        want[j].to_bits(),
                        got[i].to_bits(),
                        "seed {seed} pod {pod} flow {i}: {} != {}",
                        want[j],
                        got[i]
                    );
                }
                filled += subset.len();
                starved += want.iter().filter(|&&r| r == 0.0).count();
            }
        }
        // Non-vacuity: plenty of members, some behind a dead link.
        assert!(filled > 500, "only {filled} pod members filled");
        assert!(starved > 0, "no member crossed a zero-capacity link");
    }

    /// Disjoint fills through one scratch commute: a narrow pod fill and
    /// a wide one, in either order with a whole-fabric fill between them,
    /// land on the same bits, each the dense waterfill over its pod's
    /// views. Every fill builds the bucket queue, so this pins the shared
    /// scratch across fill widths: the frozen-member stamps and the
    /// moved-link places left by the previous fill.
    #[test]
    fn bucket_engine_disjoint_fills_commute() {
        let mut rng = echelon_detrand::DetRng::seed_from_u64(0xC0_33A7E);
        let sim = FabricSim::new(&mut rng, 4, 160, 0.2);
        let n = sim.flows.len();
        let mut narrow = sim.pod_members(0);
        narrow.truncate(4);
        let wide = sim.pod_members(1);
        assert!(route_hops(&sim.flows, &narrow) <= WIDE_FILL_HOPS);
        assert!(route_hops(&sim.flows, &wide) > WIDE_FILL_HOPS);
        let all: Vec<usize> = (0..n).collect();
        let fill = |subset: &[usize], rates: &mut [f64], ws: &mut AllocScratch| {
            bucket(&sim.topo, &sim.flows, subset, rates, ws);
        };
        let mut ws = AllocScratch::new();
        let mut fabric = vec![f64::NAN; n];
        let mut ab = vec![f64::NAN; n];
        fill(&narrow, &mut ab, &mut ws);
        fill(&all, &mut fabric, &mut ws);
        fill(&wide, &mut ab, &mut ws);
        let mut ba = vec![f64::NAN; n];
        fill(&wide, &mut ba, &mut ws);
        fill(&all, &mut fabric, &mut ws);
        fill(&narrow, &mut ba, &mut ws);
        for (name, subset) in [("narrow", &narrow), ("wide", &wide)] {
            let want = fair(&sim.topo, &gather(&sim.flows, subset), &mut ws);
            for (j, &i) in subset.iter().enumerate() {
                assert_eq!(
                    ab[i].to_bits(),
                    ba[i].to_bits(),
                    "{name} flow {i}: {} != {}",
                    ab[i],
                    ba[i]
                );
                assert_eq!(
                    want[j].to_bits(),
                    ab[i].to_bits(),
                    "{name} flow {i}: dense {} != bucket {}",
                    want[j],
                    ab[i]
                );
            }
        }
    }

    /// The pod policy's whole-fabric fallback — the bucket engine over
    /// every flow in id order, routes as global link ids — must be
    /// bitwise the unweighted, zero-floor [`waterfill_dense`]
    /// on k=4 and k=8 fat trees with 10–40 % core crossers and degraded
    /// and zero-capacity links, one scratch shared by both engines.
    #[test]
    fn fabric_fallback_engine_matches_dense_waterfill_bitwise() {
        let mut ws = AllocScratch::new();
        let cases = 60u64;
        let (mut wide, mut starved, mut flows, mut crossers) = (0u64, 0usize, 0usize, 0usize);
        for seed in 0..cases {
            let mut rng = echelon_detrand::DetRng::seed_from_u64(0xFAB1C + seed);
            let k = if seed % 2 == 0 { 4 } else { 8 };
            let n = rng.usize_range_inclusive(2 * k, 16 * k);
            let cross = rng.f64_range(0.1, 0.4);
            let sim = FabricSim::new(&mut rng, k, n, cross);
            let want = fair(&sim.topo, &sim.flows, &mut ws);
            let subset: Vec<usize> = (0..n).collect();
            let mut got = vec![f64::NAN; n];
            bucket(&sim.topo, &sim.flows, &subset, &mut got, &mut ws);
            for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} flow {i}: {a} != {b}");
            }
            if route_hops(&sim.flows, &subset) > WIDE_FILL_HOPS {
                wide += 1;
            }
            starved += want.iter().filter(|&&r| r == 0.0).count();
            flows += n;
            crossers += sim
                .flows
                .iter()
                .filter(|v| sim.topo.host_pod(v.src) != sim.topo.host_pod(v.dst))
                .count();
        }
        // Non-vacuity: most fills are wide, core crossers are a real
        // share of the flows, and a dead link starves some.
        assert!(
            wide > cases * 3 / 4,
            "only {wide} of {cases} fills are wide"
        );
        assert!(
            crossers * 10 >= flows,
            "only {crossers} of {flows} flows cross the core"
        );
        assert!(starved > 0, "no flow crossed a zero-capacity link");
    }

    /// A k-ary fat tree at full capacity but for `degraded` links at half
    /// capacity and `dead` links at zero, drawn from `rng`: most links in
    /// use share their capacity bits, so a fill's link classes are large.
    fn uniform_fabric(
        rng: &mut echelon_detrand::DetRng,
        k: usize,
        degraded: usize,
        dead: usize,
    ) -> Topology {
        let mut topo = crate::fattree::FatTree::new(k).build_fabric();
        for i in 0..degraded + dead {
            let r = ResourceId(rng.usize_range_inclusive(0, topo.num_resources() - 1) as u32);
            let factor = if i < degraded { 0.5 } else { 0.0 };
            topo.set_capacity(r, topo.capacity(r) * factor);
        }
        topo
    }

    /// Link classes split, shrink and die without moving a bit. Hand-built
    /// fills aim at each way a class could go wrong, each under several
    /// arena slot orders (which set the order freezes visit crossers in);
    /// random fills on fat trees whose links mostly share one capacity
    /// then check it in bulk, fabric-wide and pod by pod. Every fill is
    /// bitwise the dense waterfill, and debug builds check every round
    /// that each link's class holds its own residual bits and count.
    #[test]
    fn bucket_engine_splits_link_classes_bitwise() {
        /// A label, capacities and routes by member.
        type Case = (&'static str, Vec<f64>, Vec<Vec<u32>>);
        let cases: [Case; 4] = [
            (
                // Links 0–3 share capacity and count 2. Link 4 saturates
                // first and takes a crosser from link 0 alone; link 5
                // saturates next and takes one from link 1 alone.
                "equal links lose crossers in different rounds",
                vec![1.0, 1.0, 1.0, 1.0, 0.2, 0.35],
                vec![
                    vec![0, 4],
                    vec![0],
                    vec![1, 5],
                    vec![1],
                    vec![2],
                    vec![2],
                    vec![3],
                    vec![3],
                ],
            ),
            (
                // Link 2 has the count of links 0, 1 and 3 but half their
                // capacity.
                "degraded link beside a shared class",
                vec![1.0, 1.0, 0.5, 1.0],
                vec![
                    vec![0],
                    vec![0],
                    vec![1],
                    vec![1],
                    vec![2],
                    vec![2],
                    vec![3],
                    vec![3],
                ],
            ),
            (
                // As above with link 2 cut to zero capacity.
                "dead link beside a shared class",
                vec![1.0, 1.0, 0.0, 1.0],
                vec![
                    vec![0],
                    vec![0],
                    vec![1],
                    vec![1],
                    vec![2],
                    vec![2],
                    vec![3],
                    vec![3],
                ],
            ),
            (
                // Links 0–2 share capacity and count 3. Link 3 saturates
                // first and freezes two crossers of link 0 and one of
                // link 1 in one round: the class splits three ways, and
                // a split may lower in place before its parent moves
                // another link.
                "one round lowers links of a class by different counts",
                vec![1.0, 1.0, 1.0, 0.1],
                vec![
                    vec![0, 3],
                    vec![0, 3],
                    vec![1, 3],
                    vec![0],
                    vec![1],
                    vec![1],
                    vec![2],
                    vec![2],
                    vec![2],
                ],
            ),
        ];
        let mut ws = AllocScratch::new();
        let mut rng = echelon_detrand::DetRng::seed_from_u64(0xC1A55);
        for (label, caps, routes) in cases {
            for order in 0..6 {
                let mut slots: Vec<u32> = (0..routes.len() as u32).collect();
                if order > 0 {
                    rng.shuffle(&mut slots);
                }
                let sim = PodSim::from_routes(caps.clone(), &routes, slots);
                let want = fair(&sim.topo, &sim.views, &mut ws);
                let got = sim.bucket(&mut ws);
                for (j, (a, b)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{label} order {order} member {j}: {a} != {b}"
                    );
                }
            }
        }
        let before = ws.census;
        for seed in 0..40u64 {
            let mut rng = echelon_detrand::DetRng::seed_from_u64(0xC1A_5000 + seed);
            let k = if seed % 2 == 0 { 4 } else { 8 };
            let topo = uniform_fabric(&mut rng, k, 3, 1);
            let n = rng.usize_range_inclusive(4 * k, 24 * k);
            let cross = if seed % 4 < 2 { 0.0 } else { 0.2 };
            let sim = FabricSim::on(topo, &mut rng, k, n, cross);
            let all: Vec<usize> = (0..n).collect();
            if cross > 0.0 {
                let want = fair(&sim.topo, &sim.flows, &mut ws);
                let mut got = vec![f64::NAN; n];
                bucket(&sim.topo, &sim.flows, &all, &mut got, &mut ws);
                for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} flow {i}: {a} != {b}");
                }
                continue;
            }
            let index = index_over(&sim.topo, &sim.flows, &all);
            for pod in 0..k as u32 {
                let subset = sim.pod_members(pod);
                let want = fair(&sim.topo, &gather(&sim.flows, &subset), &mut ws);
                let mut got = vec![f64::NAN; n];
                pod_fill(&index, pod, &sim.flows, &subset, &mut got, &mut ws);
                for (j, &i) in subset.iter().enumerate() {
                    assert_eq!(
                        want[j].to_bits(),
                        got[i].to_bits(),
                        "seed {seed} pod {pod} flow {i}: {} != {}",
                        want[j],
                        got[i]
                    );
                }
            }
        }
        // Non-vacuity: classes hold several links each on these fabrics.
        let (links, classes) = (
            ws.census.link_rounds - before.link_rounds,
            ws.census.class_rounds - before.class_rounds,
        );
        assert!(
            classes * 3 < links,
            "{classes} class-rounds for {links} link-rounds"
        );
    }

    /// An index over the members `subset` of `flows`, keyed on `topo`
    /// from the start, so that every arrival patches its groups, checked
    /// against [`index_over`]'s rebuild.
    fn patched_index(topo: &Topology, flows: &[ActiveFlowView], subset: &[usize]) -> FillIndex {
        let mut index = FillIndex::new();
        index.rekey_all(topo);
        for &i in subset {
            let v = &flows[i];
            assert!(index.arrive(v.slot, v.route.iter().map(|r| r.0)));
        }
        index
            .check_against(&index_over(topo, flows, subset))
            .unwrap();
        index
    }

    /// The work census of two seeded fills on a k = 8 fat tree at full
    /// capacity but for one link at half: a whole-fabric fill with core
    /// crossers and a pod fill, each over an index its arrivals patched.
    /// The counts are exact, so they catch work that wall-time noise
    /// would hide. The per-link bucket engine that the class engine
    /// replaced spent `PER_LINK` on the same fills, as (link-rounds,
    /// counted subtractions): its live links are the classes' links, so
    /// its link-rounds match these. The class engine before the index
    /// kept its groups counted, sorted and grouped every live link of
    /// each fill before round 1, `SETUP_LINKS` of them; the set-up now
    /// touches none one by one, and copies 26 and 7 groups whole. The
    /// arrivals' patches made 245 and 1,343 group moves.
    #[test]
    fn bucket_engine_work_census_is_pinned() {
        const PER_LINK: [(u64, u64); 2] = [(855, 1559), (514, 1415)];
        const SETUP_LINKS: [usize; 2] = [137, 56];
        let mut rng = echelon_detrand::DetRng::seed_from_u64(0xCE_4505);
        let topo = uniform_fabric(&mut rng, 8, 1, 0);
        let sim = FabricSim::on(topo, &mut rng, 8, 128, 0.1);
        let all: Vec<usize> = (0..sim.flows.len()).collect();
        let index = patched_index(&sim.topo, &sim.flows, &all);
        let mut ws = AllocScratch::new();
        let mut got = vec![f64::NAN; all.len()];
        fill(
            &index,
            FillScope::Fabric,
            &sim.flows,
            &all,
            &mut got,
            &mut ws,
        );
        let (fabric, fabric_links, fabric_moves) =
            (ws.census, ws.class_links.len(), index.group_moves);
        let topo = uniform_fabric(&mut rng, 8, 1, 0);
        let sim = FabricSim::on(topo, &mut rng, 8, 480, 0.0);
        let all: Vec<usize> = (0..sim.flows.len()).collect();
        let index = patched_index(&sim.topo, &sim.flows, &all);
        let subset = sim.pod_members(0);
        let mut ws = AllocScratch::new();
        let mut got = vec![f64::NAN; all.len()];
        pod_fill(&index, 0, &sim.flows, &subset, &mut got, &mut ws);
        let (pod, pod_links, pod_moves) = (ws.census, ws.class_links.len(), index.group_moves);
        let counts = |c: FillCensus| {
            (
                c.setup_groups,
                c.rounds,
                c.link_rounds,
                c.class_rounds,
                c.subtractions,
            )
        };
        assert_eq!(counts(fabric), (26, 11, 855, 76, 115), "whole-fabric fill");
        assert_eq!(counts(pod), (7, 16, 514, 277, 601), "pod fill");
        assert_eq!(
            [fabric_links, pod_links],
            SETUP_LINKS,
            "live links at round 1"
        );
        assert_eq!([fabric_moves, pod_moves], [245, 1343], "group moves");
        let (links, subtractions) = PER_LINK[0];
        assert_eq!(fabric.link_rounds, links);
        assert!(fabric.class_rounds * 5 <= links && fabric.subtractions * 5 <= subtractions);
        assert_eq!(pod.link_rounds, PER_LINK[1].0);
    }

    /// The regime the MADD backfill runs in: floors that saturate links.
    /// On k=4 and k=8 fat trees with degraded and dead links, floors come
    /// from a strict-priority fill over a random subset of the flows in
    /// random order; some are then scaled down, and some set to +0.0 or
    /// −0.0; on a quarter of the fills, of a few flows each, every floor
    /// is scaled down, so none saturates a link. Weighted and unweighted
    /// fills, one scratch for all of them, each bitwise the full-scan
    /// reference.
    #[test]
    fn waterfill_matches_reference_on_saturating_floors() {
        let mut ws = AllocScratch::new();
        let cases = 240u64;
        let (mut zero_first, mut positive_first) = (0u64, 0u64);
        for seed in 0..cases {
            let mut rng = echelon_detrand::DetRng::seed_from_u64(0xF100 + seed);
            let k = if seed % 2 == 0 { 4 } else { 8 };
            // Few flows when no floor saturates, so that some fills cross
            // no dead link either.
            let scale_all = seed % 4 == 3;
            let n = rng.usize_range_inclusive(1, if scale_all { k } else { 12 * k });
            let cross = rng.f64_range(0.0, 0.5);
            let sim = FabricSim::new(&mut rng, k, n, cross);
            let mut order: Vec<FlowId> = sim
                .flows
                .iter()
                .map(|v| v.id)
                .filter(|_| rng.next_f64() < 0.7)
                .collect();
            rng.shuffle(&mut order);
            let mut floor = vec![f64::NAN; n];
            priority_fill_dense(&sim.topo, &sim.flows, &order, &mut floor, &mut ws);
            for f in floor.iter_mut() {
                match rng.usize_range_inclusive(0, 9) {
                    _ if scale_all => *f *= rng.f64_range(0.05, 0.95),
                    0 | 1 => *f *= rng.f64_range(0.0, 1.0),
                    2 => *f = 0.0,
                    3 => *f = -0.0,
                    _ => {}
                }
            }
            let weights: Option<Vec<f64>> =
                (seed % 3 == 0).then(|| (0..n).map(|_| rng.f64_range(0.0, 3.0)).collect());
            let mut got = floor.clone();
            waterfill_dense(&sim.topo, &sim.flows, weights.as_deref(), &mut got, &mut ws);
            let mut want = floor;
            let first = waterfill_reference(&sim.topo, &sim.flows, weights.as_deref(), &mut want);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} flow {i}: {a} != {b}");
            }
            match first {
                Some(0.0) => zero_first += 1,
                Some(inc) if inc > 0.0 && inc.is_finite() => positive_first += 1,
                _ => {}
            }
        }
        // Non-vacuity: most fills open with a zero round, as MADD's
        // backfill does, and some with a positive one.
        assert!(
            zero_first * 2 > cases,
            "only {zero_first} of {cases} fills open with a zero round"
        );
        assert!(
            positive_first >= 10,
            "only {positive_first} of {cases} fills open with a positive round"
        );
    }

    /// The touched-link audit returns exactly the reference's `Ok` or
    /// `Err` string on k=4 and k=8 fat trees with degraded and
    /// zero-capacity links: for feasible, oversubscribed, negative, NaN
    /// and zero-capacity-link rates, while capacities go down, degrade
    /// and come back between checks.
    #[test]
    fn touched_link_audit_matches_reference_check() {
        let mut ws = AllocScratch::new();
        let mut outcomes = BTreeMap::new();
        for seed in 0..80u64 {
            let mut rng = echelon_detrand::DetRng::seed_from_u64(0xA0D17 + seed);
            let k = if seed % 2 == 0 { 4 } else { 8 };
            let n = rng.usize_range_inclusive(k, 12 * k);
            let cross = rng.f64_range(0.1, 0.5);
            let mut sim = FabricSim::new(&mut rng, k, n, cross);
            let mut base = Vec::new();
            sim.topo.capacities_into(&mut base);
            let mut audit = FeasibilityAudit::new(&sim.topo);
            for step in 0..8 {
                if step > 0 {
                    // Down, degrade or restore a few links, through both.
                    for _ in 0..rng.usize_range_inclusive(1, 4) {
                        let r = ResourceId(rng.usize_range_inclusive(0, base.len() - 1) as u32);
                        let factor =
                            [0.0, rng.f64_range(0.05, 0.95), 1.0][rng.usize_range_inclusive(0, 2)];
                        let cap = base[r.0 as usize] * factor;
                        sim.topo.set_capacity(r, cap);
                        audit.set_capacity(r, cap);
                    }
                }
                let mut rates = fair(&sim.topo, &sim.flows, &mut ws);
                let i = rng.usize_range_inclusive(0, n - 1);
                match rng.usize_range_inclusive(0, 5) {
                    // Feasible as filled.
                    0 => {}
                    // Oversubscribed: one or more flows overdrawn.
                    1 => {
                        for r in rates.iter_mut().filter(|_| rng.next_f64() < 0.3) {
                            *r = *r * 1.5 + 0.25;
                        }
                    }
                    // Negative: beyond and within the EPS tolerance.
                    2 => rates[i] = -rng.f64_range(0.0, 2.0 * EPS),
                    3 => {
                        rates[i] = if seed % 3 == 0 {
                            f64::INFINITY
                        } else {
                            f64::NAN
                        }
                    }
                    // A positive rate on every flow crossing a dead link.
                    4 => {
                        for (f, r) in sim.flows.iter().zip(rates.iter_mut()) {
                            if f.route.iter().any(|l| sim.topo.capacity(*l) == 0.0) {
                                *r = 1e-3;
                            }
                        }
                    }
                    // A late error behind an earlier oversubscription.
                    _ => {
                        rates[0] += 10.0;
                        rates[i] = -1.0;
                    }
                }
                let want = check_feasible_dense(&sim.topo, &sim.flows, &rates, &mut Vec::new());
                let got = audit.check(&sim.flows, &rates);
                assert_eq!(got, want, "seed {seed} step {step}");
                let kind = match &want {
                    Ok(()) => "ok",
                    Err(m) if m.contains("negative") => "negative",
                    Err(m) if m.contains("non-finite") => "non-finite",
                    Err(_) => "oversubscribed",
                };
                *outcomes.entry(kind).or_insert(0) += 1;
            }
        }
        // Non-vacuity: every verdict occurs often.
        for kind in ["ok", "negative", "non-finite", "oversubscribed"] {
            let seen = outcomes.get(kind).copied().unwrap_or(0);
            assert!(seen >= 20, "{kind} seen {seen} times: {outcomes:?}");
        }
    }
}
