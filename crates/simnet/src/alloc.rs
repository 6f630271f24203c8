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
//!   work-conserving backfill of the MADD-family schedulers. The pod
//!   policy runs the same unweighted, zero-floor fill through a link-id
//!   bucket-queue engine that the unit tests pin bitwise to it.
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
    /// Residual capacity per resource during filling.
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
    /// instead of every resource. Ascending, except in the bucket
    /// engine, which keeps first-seen order.
    links: Vec<u32>,
    /// Dedup marker for building `links`; all-false between calls.
    link_seen: Vec<bool>,
    /// Link id → position in `links` (bucket waterfill); entries are
    /// only read for links on the current `links` list, so no restore
    /// pass.
    link_slot: Vec<u32>,
    /// Mirror of `residual` indexed by `links` position (bucket
    /// waterfill): a route union is small, so the rounds run on
    /// cache-resident entries instead of striding the fabric-sized
    /// table.
    residual_local: Vec<f64>,
    /// Members' routes translated to `links` positions, flattened;
    /// `route_span[j]` delimits member `j`'s slice.
    routes_local: Vec<u32>,
    /// See `routes_local`.
    route_span: Vec<(u32, u32)>,
    /// Per-member rate (bucket waterfill), written as members freeze.
    rate_local: Vec<f64>,
    /// Inverted link→member index for the bucket waterfill: member
    /// positions crossing each touched link, flattened.
    crossers_flat: Vec<u32>,
    /// `crossers_flat` span per touched position.
    crossers_span: Vec<(u32, u32)>,
    /// Integer crosser count per link id (bucket engine). Mirrors the
    /// f64 mass exactly: masses are whole numbers, and whole numbers up
    /// to 2^53 are exact in f64, so `cnt as f64` is bitwise the value the
    /// reference engine accumulates by repeated `+= 1.0`.
    mass_cnt: Vec<u32>,
    /// Per-member still-filling flag (bucket engine); mirrors
    /// membership of `unfrozen` in the reference engine.
    active: Vec<bool>,
    /// Touched positions that crossed the saturation threshold this
    /// round.
    newly_sat: Vec<u32>,
    /// Candidate (`residual / mass`) per *live* touched position,
    /// refreshed by the bucket engine's subtraction pass and freeze
    /// fix-ups so the min pass never divides.
    cand: Vec<f64>,
    /// Unfrozen member positions (bucket engine), swap-removed as
    /// members freeze so late rounds iterate only the survivors.
    live_members: Vec<u32>,
    /// Member position → index in `live_members`; only read while the
    /// member is unfrozen.
    member_pos: Vec<u32>,
    /// Touched positions whose crosser count changed during this round's
    /// freezes; their cached candidates are re-divided once per round.
    mass_changed: Vec<u32>,
    /// Integer crosser count per touched position (bucket engine).
    cnt_local: Vec<u32>,
    /// Touched positions permuted ascending by crosser count — a bucket
    /// queue: dead ranks (count 0) collect at the front and leave the
    /// live range, and adjacent live entries have near-equal counts so
    /// the interleaved subtraction lanes stay balanced.
    order: Vec<u32>,
    /// Touched position → index in `order`.
    opos: Vec<u32>,
    /// First `order` index of each count's bucket; decrementing a count
    /// swaps the entry to its bucket's front and bumps the boundary.
    bucket_start: Vec<u32>,
    /// Scratch cursors for the counting sort that seeds `order`.
    bucket_cursor: Vec<u32>,
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
/// must be finite and feasible (MADD's "pin targets, then backfill").
/// `weights[i]` applies to `flows[i]` (`None` means all 1.0). All working
/// state lives in `ws`, so steady-state calls allocate nothing.
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
    residuals_dense_into(topo, flows, rates, residual);
    // Flows still participating in the filling.
    unfrozen.clear();
    unfrozen.extend(0..flows.len());

    // The links the filling can touch: the union of the participating
    // flows' routes, ascending. Rounds below reset/scan only these, so a
    // round costs O(active links + unfrozen routes) instead of O(all
    // resources). Bit-identical to the full scan: every resource with
    // nonzero mass is on this list, the list is ascending like the full
    // enumeration, and off-list `mass` entries (stale from earlier calls)
    // are never read.
    links.clear();
    if link_seen.len() < topo.num_resources() {
        link_seen.resize(topo.num_resources(), false);
    }
    for &i in unfrozen.iter() {
        for r in &flows[i].route {
            let ri = r.0 as usize;
            if !link_seen[ri] {
                link_seen[ri] = true;
                links.push(r.0);
            }
        }
    }
    links.sort_unstable();
    for &r in links.iter() {
        link_seen[r as usize] = false; // restore the all-false invariant
    }
    if mass.len() < topo.num_resources() {
        mass.resize(topo.num_resources(), 0.0);
    }

    while !unfrozen.is_empty() {
        // Weight mass per resource among unfrozen flows.
        for &r in links.iter() {
            mass[r as usize] = 0.0;
        }
        for &i in unfrozen.iter() {
            let w = w_of(i);
            for r in &flows[i].route {
                mass[r.0 as usize] += w;
            }
        }
        // Largest uniform increment before some resource saturates.
        let mut inc = f64::INFINITY;
        for &r in links.iter() {
            let m = mass[r as usize];
            if m > EPS {
                inc = inc.min((residual[r as usize].max(0.0)) / m);
            }
        }
        if !inc.is_finite() {
            // Only zero-weight flows remain: they get nothing more.
            break;
        }
        // Apply the increment.
        for &i in unfrozen.iter() {
            let delta = w_of(i) * inc;
            rates[i] += delta;
            for r in &flows[i].route {
                residual[r.0 as usize] -= delta;
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

/// Entries per arena slot in the flat route arenas [`waterfill_bucket`]
/// reads: the first entry holds the route's hop count, the rest its hops
/// as global link ids. Fat-tree routes are at most 6 hops (host→edge→agg→core→
/// agg→edge→host for a core crosser), so a slot keeps a spare entry and
/// fits one cache line.
pub(crate) const ROUTE_RANK_STRIDE: usize = 8;

/// Writes `route` into `slot`'s block of a stride-[`ROUTE_RANK_STRIDE`]
/// route arena, growing the arena to cover the slot.
///
/// # Panics
///
/// Panics if the route has more hops than a slot holds.
pub(crate) fn store_slot_route(arena: &mut Vec<u32>, slot: u32, route: &[ResourceId]) {
    assert!(
        route.len() < ROUTE_RANK_STRIDE,
        "route of {} hops does not fit a {ROUTE_RANK_STRIDE}-entry arena slot",
        route.len()
    );
    let base = slot as usize * ROUTE_RANK_STRIDE;
    if arena.len() < base + ROUTE_RANK_STRIDE {
        arena.resize(base + ROUTE_RANK_STRIDE, 0);
    }
    arena[base] = route.len() as u32;
    for (e, r) in arena[base + 1..].iter_mut().zip(route) {
        *e = r.0;
    }
}

/// `slot`'s route in a stride-[`ROUTE_RANK_STRIDE`] arena.
fn slot_route(arena: &[u32], slot: u32) -> &[u32] {
    let base = slot as usize * ROUTE_RANK_STRIDE;
    &arena[base + 1..base + 1 + arena[base] as usize]
}

/// Bucket-queue waterfill: the pod policy's refill engine, for one pod
/// or the whole fabric. Bit-identical to the unweighted, zero-floor
/// [`waterfill_dense`] over the same members (the unit tests pin this
/// per pod, over whole fabrics with core crossers, and on synthetic
/// fills, degraded and zero-capacity links included), but restructured
/// around an inverted link→member index so a round costs O(active route
/// hops) instead of three full member sweeps:
///
/// - masses are maintained as integer crosser counts, decremented as
///   members freeze (whole-number f64 arithmetic is exact, so
///   `cnt as f64` is bitwise the reference's `+= 1.0` accumulation);
/// - each link's round subtraction applies the increment once per
///   crossing active member — the reference interleaves subtractions
///   across links in member order, but every subtraction on a link in a
///   given round subtracts the *same* increment, so only the count
///   matters for the resulting bits;
/// - a member freezes in the round a route link first reaches ≤ EPS,
///   which is exactly the reference's end-of-round retain test: an
///   active member's links were all > EPS at the previous round's end.
///
/// The caller provides a capacity snapshot indexed by global link id
/// (`caps`, the values `topo.capacity` returns; the caller invalidates
/// it on every fault) and each member's route, as global link ids, in a
/// flat stride-[`ROUTE_RANK_STRIDE`] arena keyed by arena slot
/// (`slot_routes`, written once at arrival), so a refill touches only
/// its members' arena slots and scratch. `slots[j]` is the arena slot of
/// member `subset[j]`; only `rates[i]` for `i ∈ subset` are written.
pub(crate) fn waterfill_bucket(
    caps: &[f64],
    subset: &[usize],
    slots: &[u32],
    slot_routes: &[u32],
    rates: &mut [f64],
    ws: &mut AllocScratch,
) {
    debug_assert_eq!(subset.len(), slots.len());
    let AllocScratch {
        rate_local,
        link_seen,
        links,
        link_slot,
        crossers_flat,
        crossers_span,
        mass_cnt,
        active,
        newly_sat,
        cand,
        live_members,
        member_pos,
        residual_local,
        routes_local,
        route_span,
        mass_changed,
        cnt_local,
        order,
        opos,
        bucket_start,
        bucket_cursor,
        ..
    } = ws;
    let nlinks = caps.len();
    if link_seen.len() < nlinks {
        link_seen.resize(nlinks, false);
    }
    if mass_cnt.len() < nlinks {
        mass_cnt.resize(nlinks, 0);
    }
    if link_slot.len() < nlinks {
        link_slot.resize(nlinks, 0);
    }
    // Touched links and integer masses. Intra-round results are
    // order-independent (min and counted subtractions commute bitwise),
    // so the links stay in first-seen order, unsorted.
    links.clear();
    let n = subset.len();
    for &slot in slots {
        for &l in slot_route(slot_routes, slot) {
            let li = l as usize;
            if !link_seen[li] {
                link_seen[li] = true;
                links.push(l);
                mass_cnt[li] = 0;
            }
            mass_cnt[li] += 1;
        }
    }
    let tcount = links.len();
    // Everything the round loop reads or writes per iteration lives in
    // small dense arrays indexed by *touched position* (0..tcount), not
    // by global link id: residuals, crosser counts, candidates, crosser
    // spans, and pre-translated member routes. Even a whole-fabric fill
    // touches only its live routes' links, so the working set stays
    // cache-resident.
    residual_local.clear();
    cnt_local.clear();
    crossers_span.clear();
    let mut total = 0u32;
    let mut maxc = 0u32;
    for (t, &l) in links.iter().enumerate() {
        let li = l as usize;
        link_seen[li] = false; // restore the all-false invariant
        link_slot[li] = t as u32;
        residual_local.push(caps[li]);
        cnt_local.push(mass_cnt[li]);
        maxc = maxc.max(mass_cnt[li]);
        crossers_span.push((total, total));
        total += mass_cnt[li];
    }
    // Seed the candidate cache with the round-1 divisions; later rounds
    // refresh it inside the subtraction pass (and the freeze fix-ups),
    // so the min pass itself never divides. `cnt as f64` is exact for
    // these whole numbers, so the quotient bits match the reference's
    // accumulated-f64 mass division.
    cand.clear();
    cand.extend(
        residual_local
            .iter()
            .zip(cnt_local.iter())
            .map(|(&r, &c)| r.max(0.0) / c as f64),
    );
    // Bucket queue over touched positions, ascending by crosser count:
    // `order` is the permutation, `opos` its inverse, `bucket_start[c]`
    // the first `order` index holding a count-`c` link. Decrementing a
    // count is an O(1) swap-to-bucket-front plus a boundary bump, so
    // links whose last crosser froze (count 0) migrate before
    // `bucket_start[1]` and silently leave every later sweep — no inert
    // sentinels, no liveness branches — while the live suffix stays
    // grouped by count so the interleaved subtraction lanes below stay
    // balanced.
    bucket_start.clear();
    bucket_start.resize(maxc as usize + 2, 0);
    for &c in cnt_local.iter() {
        bucket_start[c as usize + 1] += 1;
    }
    for c in 1..bucket_start.len() {
        bucket_start[c] += bucket_start[c - 1];
    }
    bucket_cursor.clear();
    bucket_cursor.extend_from_slice(bucket_start);
    order.clear();
    order.resize(tcount, 0);
    opos.clear();
    opos.resize(tcount, 0);
    for (t, &c) in cnt_local.iter().enumerate() {
        let p = bucket_cursor[c as usize];
        order[p as usize] = t as u32;
        opos[t] = p;
        bucket_cursor[c as usize] = p + 1;
    }
    crossers_flat.clear();
    crossers_flat.resize(total as usize, 0);
    routes_local.clear();
    route_span.clear();
    for (j, &slot) in slots.iter().enumerate() {
        let start = routes_local.len() as u32;
        for &l in slot_route(slot_routes, slot) {
            let t = link_slot[l as usize] as usize;
            let span = &mut crossers_span[t];
            crossers_flat[span.1 as usize] = j as u32;
            span.1 += 1;
            routes_local.push(t as u32);
        }
        route_span.push((start, routes_local.len() as u32));
    }
    rate_local.clear();
    rate_local.resize(n, 0.0);
    active.clear();
    active.resize(n, true);
    live_members.clear();
    live_members.extend(0..n as u32);
    member_pos.clear();
    member_pos.extend(0..n as u32);
    // Running prefix of the increment sequence. Every member active
    // through round `r` accumulates exactly the first `r` increments in
    // order, so one shared fold replaces the reference's per-member
    // accumulators: assigning `prefix` at freeze time is bitwise the
    // same value.
    let mut prefix = 0.0f64;

    while !live_members.is_empty() {
        let live0 = bucket_start[1] as usize;
        // Min pass over live links only: a pure scan of the cached
        // candidates — the divisions already happened in the previous
        // round's subtraction pass (or the freeze fix-ups). The scan
        // runs count-descending (reversed bucket order) because heavier
        // links tend toward smaller candidates, so the running min
        // settles early and its branch stays predictable. Min over
        // non-NaN values is order-independent and ties carry identical
        // bits, so any scan order picks the reference minimum's bits.
        let mut inc = f64::INFINITY;
        for &t in order[live0..tcount].iter().rev() {
            let c = cand[t as usize];
            if c < inc {
                inc = c;
            }
        }
        if !inc.is_finite() {
            break;
        }
        prefix += inc;
        // Link-major counted subtraction over the live suffix, fused
        // with saturation detection and the next round's candidate
        // division. Per link the reference subtracts `inc` once per
        // crossing active member, interleaved across links in member
        // order — but equal-decrement chains land on the same bits in
        // any interleaving, so folding each link's `cnt` subtractions
        // in a register is bitwise the member-major order. Four links
        // run in interleaved lanes to hide the subtraction latency;
        // bucket order groups near-equal counts, so the masked `- 0.0`
        // padding (a bitwise identity for non-NaN x) on shorter lanes
        // is marginal. The candidate cache written here uses this
        // round's pre-freeze counts; freeze fix-ups below re-divide the
        // few links whose count changes.
        newly_sat.clear();
        let inc_bits = inc.to_bits();
        {
            let mut i = live0;
            while i + 4 <= tcount {
                let t0 = order[i] as usize;
                let t1 = order[i + 1] as usize;
                let t2 = order[i + 2] as usize;
                let t3 = order[i + 3] as usize;
                let n0 = cnt_local[t0];
                let n1 = cnt_local[t1];
                let n2 = cnt_local[t2];
                let n3 = cnt_local[t3];
                let mut r0 = residual_local[t0];
                let mut r1 = residual_local[t1];
                let mut r2 = residual_local[t2];
                let mut r3 = residual_local[t3];
                let cmax = n0.max(n1).max(n2).max(n3);
                for k in 0..cmax {
                    r0 -= f64::from_bits(inc_bits & 0u64.wrapping_sub((k < n0) as u64));
                    r1 -= f64::from_bits(inc_bits & 0u64.wrapping_sub((k < n1) as u64));
                    r2 -= f64::from_bits(inc_bits & 0u64.wrapping_sub((k < n2) as u64));
                    r3 -= f64::from_bits(inc_bits & 0u64.wrapping_sub((k < n3) as u64));
                }
                residual_local[t0] = r0;
                residual_local[t1] = r1;
                residual_local[t2] = r2;
                residual_local[t3] = r3;
                cand[t0] = r0.max(0.0) / n0 as f64;
                cand[t1] = r1.max(0.0) / n1 as f64;
                cand[t2] = r2.max(0.0) / n2 as f64;
                cand[t3] = r3.max(0.0) / n3 as f64;
                if r0 <= EPS {
                    newly_sat.push(t0 as u32);
                }
                if r1 <= EPS {
                    newly_sat.push(t1 as u32);
                }
                if r2 <= EPS {
                    newly_sat.push(t2 as u32);
                }
                if r3 <= EPS {
                    newly_sat.push(t3 as u32);
                }
                i += 4;
            }
            while i < tcount {
                let t = order[i] as usize;
                let nt = cnt_local[t];
                let mut r = residual_local[t];
                for _ in 0..nt {
                    r -= inc;
                }
                residual_local[t] = r;
                cand[t] = r.max(0.0) / nt as f64;
                if r <= EPS {
                    newly_sat.push(t as u32);
                }
                i += 1;
            }
        }
        let before = live_members.len();
        mass_changed.clear();
        for &t in newly_sat.iter() {
            let (s, e) = crossers_span[t as usize];
            for &j in &crossers_flat[s as usize..e as usize] {
                let j = j as usize;
                if active[j] {
                    active[j] = false;
                    rate_local[j] = prefix;
                    let p = member_pos[j] as usize;
                    live_members.swap_remove(p);
                    if p < live_members.len() {
                        member_pos[live_members[p] as usize] = p as u32;
                    }
                    // O(1) bucket-queue decrement per route link: swap
                    // the link to the front of its count bucket and bump
                    // the boundary. A link hitting count 0 thereby moves
                    // below `bucket_start[1]` and leaves every later
                    // sweep.
                    let (s, e) = route_span[j];
                    for &t in &routes_local[s as usize..e as usize] {
                        let ti = t as usize;
                        let c = cnt_local[ti] as usize;
                        let b = bucket_start[c];
                        let p = opos[ti];
                        let other = order[b as usize];
                        order[b as usize] = t;
                        order[p as usize] = other;
                        opos[ti] = b;
                        opos[other as usize] = p;
                        bucket_start[c] = b + 1;
                        cnt_local[ti] = c as u32 - 1;
                        mass_changed.push(t);
                    }
                }
            }
        }
        // Candidate fix-ups for surviving links whose crosser count
        // changed: the division the reference would perform next round
        // (same residual bits, post-freeze count). Links at count 0 need
        // nothing — the bucket queue already retired them. Duplicate
        // entries are harmless, the fix-up is idempotent.
        for &t in mass_changed.iter() {
            let ti = t as usize;
            let c = cnt_local[ti];
            if c > 0 {
                cand[ti] = residual_local[ti].max(0.0) / c as f64;
            }
        }
        if live_members.len() == before {
            break;
        }
    }
    // Members that never froze (zero-capacity stall or a no-progress
    // round) hold everything accumulated so far — the same fold `prefix`
    // carries.
    for &j in live_members.iter() {
        rate_local[j as usize] = prefix;
    }
    for (j, &i) in subset.iter().enumerate() {
        rates[i] = rate_local[j];
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

    /// The pre-link-index progressive filling, kept verbatim as the
    /// bitwise reference for [`waterfill_dense`]'s active-link rounds.
    fn waterfill_reference(
        topo: &Topology,
        flows: &[ActiveFlowView],
        weights: Option<&[f64]>,
        rates: &mut [f64],
    ) {
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
    /// stride-arena route per member, with members mapped to shuffled
    /// arena slots the way the policy's recycled arena maps them. The
    /// same fill is also given as views — member `j`'s route as
    /// `ResourceId`s — on a big switch whose first `nranks` resources
    /// carry the sim's capacities.
    struct PodSim {
        topo: Topology,
        views: Vec<ActiveFlowView>,
        caps: Vec<f64>,
        slots: Vec<u32>,
        slot_routes: Vec<u32>,
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
            let mut slot_routes = Vec::new();
            for slot in 0..members as u32 {
                let hops = rng.usize_range_inclusive(1, nranks.min(4));
                let mut route: Vec<ResourceId> = (0..nranks as u32).map(ResourceId).collect();
                rng.shuffle(&mut route);
                store_slot_route(&mut slot_routes, slot, &route[..hops]);
            }
            let mut slots: Vec<u32> = (0..members as u32).collect();
            rng.shuffle(&mut slots);
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
                    route: slot_route(&slot_routes, slot)
                        .iter()
                        .map(|&l| ResourceId(l))
                        .collect(),
                })
                .collect();
            PodSim {
                topo,
                views,
                caps,
                slots,
                slot_routes,
            }
        }

        /// Fills every member through the bucket engine.
        fn bucket(&self, ws: &mut AllocScratch) -> Vec<f64> {
            let subset: Vec<usize> = (0..self.slots.len()).collect();
            let mut rates = vec![f64::NAN; self.slots.len()];
            waterfill_bucket(
                &self.caps,
                &subset,
                &self.slots,
                &self.slot_routes,
                &mut rates,
                ws,
            );
            rates
        }
    }

    /// Total route hops of `slots` in a stride arena.
    fn route_hops(slot_routes: &[u32], slots: &[u32]) -> usize {
        slots
            .iter()
            .map(|&s| slot_route(slot_routes, s).len())
            .sum()
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
            if route_hops(&sim.slot_routes, &sim.slots) > WIDE_FILL_HOPS {
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

    /// A random fat-tree workload: a k-ary fabric with about one link in
    /// five degraded and one in twenty cut to zero capacity, and `n`
    /// flows on shuffled arena slots whose routes are stored as global
    /// link ids, the way the pod policy stores them. Each flow crosses
    /// the core with probability `cross`.
    struct FabricSim {
        topo: Topology,
        flows: Vec<ActiveFlowView>,
        slot_routes: Vec<u32>,
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
            let hosts_per_pod = k * k / 4;
            let mut slots: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut slots);
            let mut flows = Vec::with_capacity(n);
            let mut slot_routes = Vec::new();
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
                let v = ActiveFlowView {
                    slot,
                    ..view(&topo, &d)
                };
                store_slot_route(&mut slot_routes, slot, &v.route);
                flows.push(v);
            }
            FabricSim {
                topo,
                flows,
                slot_routes,
            }
        }

        /// The fabric capacity snapshot, indexed by global link id.
        fn caps(&self) -> Vec<f64> {
            let mut caps = Vec::new();
            self.topo.capacities_into(&mut caps);
            caps
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
    /// pod-local flow sets on shuffled arena slots, routes as global link
    /// ids, one fabric capacity snapshot, about one link in five degraded
    /// and one in twenty cut to zero capacity.
    #[test]
    fn bucket_engine_matches_dense_waterfill_per_pod() {
        let mut ws = AllocScratch::new();
        let (mut filled, mut starved) = (0usize, 0usize);
        for seed in 0..40u64 {
            let mut rng = echelon_detrand::DetRng::seed_from_u64(0x5B5E7 + seed);
            let k = if seed % 2 == 0 { 4 } else { 8 };
            let n = rng.usize_range_inclusive(k, 12 * k);
            let sim = FabricSim::new(&mut rng, k, n, 0.0);
            let caps = sim.caps();
            for pod in 0..k as u32 {
                let subset = sim.pod_members(pod);
                let slots: Vec<u32> = subset.iter().map(|&i| sim.flows[i].slot).collect();
                let want = fair(&sim.topo, &gather(&sim.flows, &subset), &mut ws);
                let mut got = vec![f64::NAN; n];
                waterfill_bucket(&caps, &subset, &slots, &sim.slot_routes, &mut got, &mut ws);
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
    /// scratch across fill widths: the `link_seen` restore, crosser
    /// counts and `link_slot` entries left by the previous fill.
    #[test]
    fn bucket_engine_disjoint_fills_commute() {
        let mut rng = echelon_detrand::DetRng::seed_from_u64(0xC0_33A7E);
        let sim = FabricSim::new(&mut rng, 4, 160, 0.2);
        let caps = sim.caps();
        let n = sim.flows.len();
        let mut narrow = sim.pod_members(0);
        narrow.truncate(4);
        let wide = sim.pod_members(1);
        let slots_of =
            |subset: &[usize]| -> Vec<u32> { subset.iter().map(|&i| sim.flows[i].slot).collect() };
        assert!(route_hops(&sim.slot_routes, &slots_of(&narrow)) <= WIDE_FILL_HOPS);
        assert!(route_hops(&sim.slot_routes, &slots_of(&wide)) > WIDE_FILL_HOPS);
        let all: Vec<usize> = (0..n).collect();
        let fill = |subset: &[usize], rates: &mut [f64], ws: &mut AllocScratch| {
            waterfill_bucket(
                &caps,
                subset,
                &slots_of(subset),
                &sim.slot_routes,
                rates,
                ws,
            );
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
            let slots: Vec<u32> = sim.flows.iter().map(|v| v.slot).collect();
            let mut got = vec![f64::NAN; n];
            waterfill_bucket(
                &sim.caps(),
                &subset,
                &slots,
                &sim.slot_routes,
                &mut got,
                &mut ws,
            );
            for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} flow {i}: {a} != {b}");
            }
            if route_hops(&sim.slot_routes, &slots) > WIDE_FILL_HOPS {
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
            let base = sim.caps();
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
