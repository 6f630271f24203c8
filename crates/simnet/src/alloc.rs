//! Bandwidth allocation primitives.
//!
//! Every scheduler in the EchelonFlow reproduction reduces to one of three
//! allocation shapes over the active flows:
//!
//! - [`max_min_rates`] / [`weighted_rates`]: progressive-filling max-min
//!   fairness — the "naive bandwidth fair sharing" baseline of the paper's
//!   Fig. 2a, and the work-conserving backfill step of the MADD-family
//!   schedulers.
//! - [`waterfill`]: the general form — weighted max-min with optional
//!   per-flow rate caps. MADD-style schedulers first pin each flow's rate to
//!   its target (via caps) and then backfill the slack.
//! - [`priority_fill`]: strict-priority greedy filling — flows are served
//!   in a given order, each taking everything left on its path. This is how
//!   the agent enforces schedules through priority queues (paper §5), and
//!   how EDD/SEBF-style orderings become rates.
//!
//! ## Dense core
//!
//! The hot path works on *dense* state: rates are a `Vec<f64>` keyed by
//! position in the id-sorted flow slice the [`crate::fluid::FluidNetwork`]
//! maintains, and the filling loops reuse the buffers in an
//! [`AllocScratch`] owned by the caller (the simulation driver keeps one
//! for the whole run), so a steady-state recomputation performs no heap
//! allocation. [`waterfill_dense`] and [`priority_fill_dense`] are the
//! real implementations; the map-based functions ([`waterfill`],
//! [`priority_fill`], …) are thin adapters kept for API compatibility and
//! produce bit-identical results (the dense code performs the same
//! floating-point operations in the same order).
//!
//! All functions iterate flows in a caller-specified or id order, never in
//! hash order, keeping allocations bit-for-bit deterministic.

use crate::flow::ActiveFlowView;
use crate::ids::{FlowId, ResourceId};
use crate::time::EPS;
use crate::topology::Topology;
use std::collections::BTreeMap;

/// A rate (bytes/second) per active flow. Flows absent from the map are
/// treated as rate zero. This is the map-based *edge* currency; the hot
/// path uses dense `Vec<f64>` rates indexed like the id-sorted flow slice.
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
    /// Ascending resource ids the current filling can touch (the union of
    /// the participating flows' routes) — waterfill rounds scan only
    /// these instead of every resource.
    links: Vec<u32>,
    /// Dedup marker for building `links`; all-false between calls.
    link_seen: Vec<bool>,
    /// Global→local link rank during subset waterfills; entries are only
    /// read for links on the current `links` list, so no restore pass.
    link_slot: Vec<u32>,
    /// Local-rank mirrors of `residual`/`mass` for subset waterfills: a
    /// pod's route union is tiny, so the rounds run on L1-resident
    /// arrays instead of striding the fabric-sized tables.
    residual_local: Vec<f64>,
    /// See `residual_local`.
    mass_local: Vec<f64>,
    /// Subset members' routes translated to local link ranks, flattened;
    /// `route_span[j]` delimits member `j`'s slice.
    routes_local: Vec<u32>,
    /// See `routes_local`.
    route_span: Vec<(u32, u32)>,
    /// Per-member rate accumulator during subset rounds.
    rate_local: Vec<f64>,
    /// Dedup marker in pod-rank space (ranked waterfills); all-false
    /// between calls.
    rank_seen: Vec<bool>,
    /// Pod-local ranks the current ranked filling touches (ascending in
    /// the member-major engine, first-seen order in the bucket engine).
    touched: Vec<u32>,
    /// Inverted rank→member index for the bucket pod waterfill: member
    /// positions crossing each touched rank, flattened.
    crossers_flat: Vec<u32>,
    /// `crossers_flat` span per pod rank; only touched ranks are read.
    crossers_span: Vec<(u32, u32)>,
    /// Integer crosser count per rank (bucket engine). Mirrors the f64
    /// mass exactly: masses are whole numbers, and whole numbers up to
    /// 2^53 are exact in f64, so `cnt as f64` is bitwise the value the
    /// reference engine accumulates by repeated `+= 1.0`.
    mass_cnt: Vec<u32>,
    /// Per-member still-filling flag (bucket engine); mirrors
    /// membership of `unfrozen` in the reference engine.
    active: Vec<bool>,
    /// Ranks that crossed the saturation threshold this round.
    newly_sat: Vec<u32>,
    /// Candidate (`residual / mass`) per *live* rank, refreshed by the
    /// bucket engine's subtraction pass and freeze fix-ups so the min
    /// pass never divides.
    cand: Vec<f64>,
    /// Unfrozen member positions (bucket engine), swap-removed as
    /// members freeze so late rounds iterate only the survivors.
    live_members: Vec<u32>,
    /// Member position → index in `live_members`; only read while the
    /// member is unfrozen.
    member_pos: Vec<u32>,
    /// Rank id → touched position for the current fill; only read for
    /// ranks on the current `touched` list.
    rank_pos: Vec<u32>,
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

/// Residual capacity per resource after subtracting an allocation.
fn residuals(topo: &Topology, flows: &[ActiveFlowView], alloc: &RateAlloc) -> Vec<f64> {
    let mut residual: Vec<f64> = (0..topo.num_resources())
        .map(|r| topo.capacity(ResourceId(r as u32)))
        .collect();
    for f in flows {
        let rate = alloc.get(&f.id).copied().unwrap_or(0.0);
        for r in &f.route {
            residual[r.0 as usize] -= rate;
        }
    }
    residual
}

/// Converts a dense allocation back to the map-based edge currency.
pub fn dense_to_alloc(flows: &[ActiveFlowView], rates: &[f64]) -> RateAlloc {
    debug_assert_eq!(flows.len(), rates.len());
    flows.iter().zip(rates).map(|(f, &r)| (f.id, r)).collect()
}

/// Converts a map allocation to dense form over the id-sorted `flows`,
/// writing into `out` (cleared first).
///
/// # Panics
///
/// Panics if the allocation mentions a flow that is not in `flows` — the
/// same policy bug [`crate::fluid::FluidNetwork::set_rates`] rejects,
/// surfaced here so it cannot silently vanish in the dense conversion.
pub fn alloc_to_dense(flows: &[ActiveFlowView], alloc: &RateAlloc, out: &mut Vec<f64>) {
    for id in alloc.keys() {
        assert!(
            flows.binary_search_by(|v| v.id.cmp(id)).is_ok(),
            "rate assigned to unknown flow {id} (not in the active set)"
        );
    }
    out.clear();
    out.extend(
        flows
            .iter()
            .map(|f| alloc.get(&f.id).copied().unwrap_or(0.0)),
    );
}

/// Verifies an allocation is feasible: no negative rates, and on every
/// resource the summed rate does not exceed capacity (within [`EPS`]).
pub fn check_feasible(
    topo: &Topology,
    flows: &[ActiveFlowView],
    alloc: &RateAlloc,
) -> Result<(), String> {
    for f in flows {
        let rate = alloc.get(&f.id).copied().unwrap_or(0.0);
        if rate < -EPS {
            return Err(format!("flow {} has negative rate {rate}", f.id));
        }
        if !rate.is_finite() {
            return Err(format!("flow {} has non-finite rate {rate}", f.id));
        }
    }
    for (idx, slack) in residuals(topo, flows, alloc).iter().enumerate() {
        if *slack < -1e-6 {
            return Err(format!("resource r{idx} oversubscribed by {}", -slack));
        }
    }
    Ok(())
}

/// Dense [`check_feasible`]: validates `rates[i]` for `flows[i]`, reusing
/// `residual` as the per-resource working buffer (no allocation).
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
        if *slack < -1e-6 {
            return Err(format!("resource r{idx} oversubscribed by {}", -slack));
        }
    }
    Ok(())
}

/// Dense weighted max-min fairness with optional per-flow rate caps, by
/// progressive filling — the allocation-free core behind [`waterfill`].
///
/// `rates` doubles as the floor on entry (zero it for no floor) and holds
/// the allocation on exit; `weights[i]` / `caps[i]` apply to `flows[i]`
/// (`None` means all-1.0 / all-unbounded). All working state lives in
/// `ws`, so steady-state calls allocate nothing.
pub fn waterfill_dense(
    topo: &Topology,
    flows: &[ActiveFlowView],
    weights: Option<&[f64]>,
    caps: Option<&[f64]>,
    rates: &mut [f64],
    ws: &mut AllocScratch,
) {
    debug_assert_eq!(rates.len(), flows.len());
    debug_assert!(weights.is_none_or(|w| w.len() == flows.len()));
    debug_assert!(caps.is_none_or(|c| c.len() == flows.len()));
    let w_of = |i: usize| weights.map_or(1.0, |w| w[i]).max(0.0);
    let cap_of = |i: usize| caps.map_or(f64::INFINITY, |c| c[i]);

    let AllocScratch {
        residual,
        mass,
        unfrozen,
        links,
        link_seen,
        ..
    } = ws;
    residuals_dense_into(topo, flows, rates, residual);
    // Flows still participating in the filling; freeze anything already at
    // cap from the floor.
    unfrozen.clear();
    unfrozen.extend(0..flows.len());
    unfrozen.retain(|&i| rates[i] + EPS < cap_of(i));

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
        // Largest uniform increment before some resource saturates...
        let mut inc = f64::INFINITY;
        for &r in links.iter() {
            let m = mass[r as usize];
            if m > EPS {
                inc = inc.min((residual[r as usize].max(0.0)) / m);
            }
        }
        // ...or some flow hits its cap.
        for &i in unfrozen.iter() {
            let w = w_of(i);
            if w > EPS {
                let cap = cap_of(i);
                if cap.is_finite() {
                    inc = inc.min((cap - rates[i]).max(0.0) / w);
                }
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
        // Freeze flows on saturated resources or at their cap.
        let before = unfrozen.len();
        unfrozen.retain(|&i| {
            let w = w_of(i);
            if w <= EPS {
                return false;
            }
            if rates[i] + EPS >= cap_of(i) {
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
        // the binding constraint (resource or cap) saturates exactly.
        if unfrozen.len() == before {
            break;
        }
    }
}

/// Unweighted, uncapped max-min filling restricted to `subset` (indices
/// into the id-sorted `flows` slice): the per-pod core of the
/// pod-decomposed waterfill (see [`crate::runner::PodMaxMinPolicy`]).
///
/// Only `rates[i]` for `i ∈ subset` are written (zeroed, then filled);
/// other entries are untouched. Residuals are seeded from capacity on
/// exactly the links the subset's routes cross — callers guarantee no
/// flow outside the subset crosses those links (the pod partition), so
/// seeding from raw capacity is exact. For `subset == 0..flows.len()`
/// this performs bit-for-bit the same arithmetic as an unweighted,
/// uncapped, zero-floor [`waterfill_dense`] (multiplying by the implicit
/// weight 1.0 is exact), which the unit tests pin.
pub fn waterfill_subset_dense(
    topo: &Topology,
    flows: &[ActiveFlowView],
    subset: &[usize],
    rates: &mut [f64],
    ws: &mut AllocScratch,
) {
    debug_assert_eq!(rates.len(), flows.len());
    let AllocScratch {
        unfrozen,
        links,
        link_seen,
        link_slot,
        residual_local,
        mass_local,
        routes_local,
        route_span,
        rate_local,
        ..
    } = ws;
    if link_seen.len() < topo.num_resources() {
        link_seen.resize(topo.num_resources(), false);
    }
    if link_slot.len() < topo.num_resources() {
        link_slot.resize(topo.num_resources(), 0);
    }
    // Union of the subset's routes, ascending (see waterfill_dense).
    links.clear();
    for &i in subset {
        for r in &flows[i].route {
            let ri = r.0 as usize;
            if !link_seen[ri] {
                link_seen[ri] = true;
                links.push(r.0);
            }
        }
    }
    links.sort_unstable();
    // Relabel the union with local ranks. Rank order == ascending global
    // order, so a 0..nl scan below visits links exactly as the global
    // iteration did — every round then runs on small rank-indexed arrays
    // that stay cache-resident instead of striding the fabric-sized
    // residual/mass tables (one cache miss per route hop, per round).
    let nl = links.len();
    residual_local.clear();
    for (l, &r) in links.iter().enumerate() {
        link_seen[r as usize] = false; // restore the all-false invariant
        link_slot[r as usize] = l as u32;
        residual_local.push(topo.capacity(ResourceId(r)));
    }
    mass_local.clear();
    mass_local.resize(nl, 0.0);
    routes_local.clear();
    route_span.clear();
    rate_local.clear();
    for &i in subset {
        let start = routes_local.len() as u32;
        for r in &flows[i].route {
            routes_local.push(link_slot[r.0 as usize]);
        }
        route_span.push((start, routes_local.len() as u32));
        rate_local.push(0.0);
    }
    // `unfrozen` holds member ranks (positions in `subset`), not flow
    // indices: all round state is rank-indexed.
    unfrozen.clear();
    unfrozen.extend(0..subset.len());

    while !unfrozen.is_empty() {
        for m in mass_local.iter_mut() {
            *m = 0.0;
        }
        for &j in unfrozen.iter() {
            let (s, e) = route_span[j];
            for &l in &routes_local[s as usize..e as usize] {
                mass_local[l as usize] += 1.0;
            }
        }
        let mut inc = f64::INFINITY;
        for l in 0..nl {
            let m = mass_local[l];
            if m > EPS {
                inc = inc.min((residual_local[l].max(0.0)) / m);
            }
        }
        if !inc.is_finite() {
            break;
        }
        // waterfill_dense applies `w_of(i) * inc` with implicit weight
        // 1.0; multiplying by 1.0 is exact, so adding `inc` directly is
        // the bit-identical specialization.
        for &j in unfrozen.iter() {
            rate_local[j] += inc;
            let (s, e) = route_span[j];
            for &l in &routes_local[s as usize..e as usize] {
                residual_local[l as usize] -= inc;
            }
        }
        let before = unfrozen.len();
        unfrozen.retain(|&j| {
            let (s, e) = route_span[j];
            for &l in &routes_local[s as usize..e as usize] {
                if residual_local[l as usize] <= EPS {
                    return false;
                }
            }
            true
        });
        if unfrozen.len() == before {
            break;
        }
    }
    // Same accumulation sequence as the in-place `rates[i] += inc`
    // rounds, so the final values are bitwise what they produced.
    for (j, &i) in subset.iter().enumerate() {
        rates[i] = rate_local[j];
    }
}

/// Entries reserved per arena slot in the flat rank-route arenas fed to
/// [`waterfill_pod_ranked`]. Pod-local fat-tree routes are at most 4 hops
/// (host→edge→agg→edge→host); 8 leaves headroom and keeps each slot's
/// route within a single cache line.
pub const ROUTE_RANK_STRIDE: usize = 8;

/// Route-hop total at or below which [`waterfill_pod_bucket`] dispatches
/// to the member-major [`waterfill_pod_ranked`] instead of building its
/// rank-translated bucket queue: for a pod this narrow the setup costs
/// more than every round it would accelerate. Output is bitwise
/// identical either way.
const SMALL_POD_RANKS: usize = 64;

/// Rank-space pod waterfill: bit-identical to [`waterfill_subset_dense`]
/// over the same members, but with every per-call global-array access
/// hoisted out. The caller provides the pod's capacities indexed by
/// *pod-local rank* and each member's route pre-translated to ranks in a
/// flat stride-[`ROUTE_RANK_STRIDE`] arena (`slot_routes`, cached at
/// arrival; `slot_route_len[slot]` is the live prefix) — a recompute
/// then touches only pod-sized rank-indexed scratch, never the
/// fabric-sized residual/mass/dedup tables or the view structs.
///
/// Bit-identity argument: ranks ascend with global link id inside a pod,
/// so the ascending `touched` scan visits links in exactly the order the
/// subset variant's ascending global union scan does; member order,
/// per-route order, and the freeze/retain logic are unchanged; and
/// `caps[rank]` is the same capacity value `topo.capacity` returns (the
/// caller invalidates its snapshot on every fault). The unit tests pin
/// ranked-vs-subset equality, and the caching differential suites pin it
/// end to end.
///
/// Besides being the reference the pod policy's bucket-queue engine is
/// pinned against, this is the production engine for narrow pods (at
/// most 64 route hops), where the bucket queue's setup would not pay off.
pub fn waterfill_pod_ranked(
    caps: &[f64],
    subset: &[usize],
    slots: &[u32],
    slot_routes: &[u32],
    slot_route_len: &[u8],
    rates: &mut [f64],
    ws: &mut AllocScratch,
) {
    debug_assert_eq!(subset.len(), slots.len());
    let AllocScratch {
        unfrozen,
        residual_local,
        mass_local,
        routes_local,
        route_span,
        rate_local,
        rank_seen,
        touched,
        ..
    } = ws;
    if rank_seen.len() < caps.len() {
        rank_seen.resize(caps.len(), false);
    }
    if residual_local.len() < caps.len() {
        residual_local.resize(caps.len(), 0.0);
    }
    if mass_local.len() < caps.len() {
        mass_local.resize(caps.len(), 0.0);
    }
    // Flatten the members' cached rank routes and collect the touched
    // ranks, ascending (rank order == ascending global order).
    routes_local.clear();
    route_span.clear();
    rate_local.clear();
    touched.clear();
    for &slot in slots {
        let start = routes_local.len() as u32;
        let base = slot as usize * ROUTE_RANK_STRIDE;
        let len = slot_route_len[slot as usize] as usize;
        for &l in &slot_routes[base..base + len] {
            routes_local.push(l);
            if !rank_seen[l as usize] {
                rank_seen[l as usize] = true;
                touched.push(l);
            }
        }
        route_span.push((start, routes_local.len() as u32));
        rate_local.push(0.0);
    }
    touched.sort_unstable();
    for &l in touched.iter() {
        rank_seen[l as usize] = false; // restore the all-false invariant
        residual_local[l as usize] = caps[l as usize];
    }
    // `unfrozen` holds member ranks (positions in `subset`).
    unfrozen.clear();
    unfrozen.extend(0..subset.len());

    while !unfrozen.is_empty() {
        for &l in touched.iter() {
            mass_local[l as usize] = 0.0;
        }
        for &j in unfrozen.iter() {
            let (s, e) = route_span[j];
            for &l in &routes_local[s as usize..e as usize] {
                mass_local[l as usize] += 1.0;
            }
        }
        let mut inc = f64::INFINITY;
        for &l in touched.iter() {
            let m = mass_local[l as usize];
            if m > EPS {
                inc = inc.min((residual_local[l as usize].max(0.0)) / m);
            }
        }
        if !inc.is_finite() {
            break;
        }
        // Adding `inc` directly is the exact weight-1.0 specialization
        // (see waterfill_subset_dense).
        for &j in unfrozen.iter() {
            rate_local[j] += inc;
            let (s, e) = route_span[j];
            for &l in &routes_local[s as usize..e as usize] {
                residual_local[l as usize] -= inc;
            }
        }
        let before = unfrozen.len();
        unfrozen.retain(|&j| {
            let (s, e) = route_span[j];
            for &l in &routes_local[s as usize..e as usize] {
                if residual_local[l as usize] <= EPS {
                    return false;
                }
            }
            true
        });
        if unfrozen.len() == before {
            break;
        }
    }
    for (j, &i) in subset.iter().enumerate() {
        rates[i] = rate_local[j];
    }
}

/// Bucket-queue pod waterfill: the pod policy's refill engine.
/// Bit-identical to [`waterfill_pod_ranked`] over the same inputs (the
/// unit tests pin this), but restructured around an inverted rank→member
/// index so a round costs O(active route hops) instead of three full
/// member sweeps:
///
/// - masses are maintained as integer crosser counts, decremented as
///   members freeze (whole-number f64 arithmetic is exact, so
///   `cnt as f64` is bitwise the reference's `+= 1.0` accumulation);
/// - each rank's round subtraction applies the increment once per
///   crossing active member — the reference interleaves subtractions
///   across ranks in member order, but every subtraction on a rank in a
///   given round subtracts the *same* increment, so only the count
///   matters for the resulting bits;
/// - a member freezes in the round a route rank first reaches ≤ EPS,
///   which is exactly the reference's end-of-round retain test: an
///   active member's ranks were all > EPS at the previous round's end.
///
/// Pods of at most [`SMALL_POD_RANKS`] route hops go to
/// [`waterfill_pod_ranked`] instead.
pub(crate) fn waterfill_pod_bucket(
    caps: &[f64],
    subset: &[usize],
    slots: &[u32],
    slot_routes: &[u32],
    slot_route_len: &[u8],
    rates: &mut [f64],
    ws: &mut AllocScratch,
) {
    debug_assert_eq!(subset.len(), slots.len());
    // Tiny pods (the trickle regime: a handful of members on short
    // routes) are dominated by the setup below — rank translation,
    // crosser spans, the bucket permutation — not by rounds. The total
    // route-hop count bounds the touched-rank count, so it is the cheap
    // pre-test; such pods take the member-major engine instead.
    let route_sum: usize = slots
        .iter()
        .map(|&s| slot_route_len[s as usize] as usize)
        .sum();
    if route_sum <= SMALL_POD_RANKS {
        waterfill_pod_ranked(caps, subset, slots, slot_routes, slot_route_len, rates, ws);
        return;
    }
    let AllocScratch {
        rate_local,
        rank_seen,
        touched,
        crossers_flat,
        crossers_span,
        mass_cnt,
        active,
        newly_sat,
        cand,
        live_members,
        member_pos,
        residual_local,
        rank_pos,
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
    let nranks = caps.len();
    if rank_seen.len() < nranks {
        rank_seen.resize(nranks, false);
    }
    if mass_cnt.len() < nranks {
        mass_cnt.resize(nranks, 0);
    }
    if crossers_span.len() < nranks {
        crossers_span.resize(nranks, (0, 0));
    }
    // Touched ranks and integer masses. Intra-round results are
    // order-independent (min and counted subtractions commute bitwise),
    // so the ranks stay in first-seen order, unsorted.
    touched.clear();
    let n = subset.len();
    for &slot in slots {
        let base = slot as usize * ROUTE_RANK_STRIDE;
        let len = slot_route_len[slot as usize] as usize;
        for &l in &slot_routes[base..base + len] {
            let li = l as usize;
            if !rank_seen[li] {
                rank_seen[li] = true;
                touched.push(l);
                mass_cnt[li] = 0;
            }
            mass_cnt[li] += 1;
        }
    }
    let tcount = touched.len();
    // Everything the round loop reads or writes per iteration lives in
    // small dense arrays indexed by *touched position* (0..tcount), not
    // by global rank id: residuals, crosser counts, candidates, crosser
    // spans, and pre-translated member routes. A pod touches a few
    // hundred ranks at most, so the whole working set stays
    // cache-resident.
    if rank_pos.len() < nranks {
        rank_pos.resize(nranks, 0);
    }
    residual_local.clear();
    cnt_local.clear();
    let mut total = 0u32;
    let mut maxc = 0u32;
    for (t, &l) in touched.iter().enumerate() {
        let li = l as usize;
        rank_seen[li] = false; // restore the all-false invariant
        rank_pos[li] = t as u32;
        residual_local.push(caps[li]);
        cnt_local.push(mass_cnt[li]);
        maxc = maxc.max(mass_cnt[li]);
        crossers_span[t] = (total, total);
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
    // the first `order` index holding a count-`c` rank. Decrementing a
    // count is an O(1) swap-to-bucket-front plus a boundary bump, so
    // ranks whose last crosser froze (count 0) migrate before
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
        let base = slot as usize * ROUTE_RANK_STRIDE;
        let len = slot_route_len[slot as usize] as usize;
        let start = routes_local.len() as u32;
        for &l in &slot_routes[base..base + len] {
            let t = rank_pos[l as usize] as usize;
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
        // Min pass over live ranks only: a pure scan of the cached
        // candidates — the divisions already happened in the previous
        // round's subtraction pass (or the freeze fix-ups). The scan
        // runs count-descending (reversed bucket order) because heavier
        // ranks tend toward smaller candidates, so the running min
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
        // Rank-major counted subtraction over the live suffix, fused
        // with saturation detection and the next round's candidate
        // division. Per rank the reference subtracts `inc` once per
        // crossing active member, interleaved across ranks in member
        // order — but equal-decrement chains land on the same bits in
        // any interleaving, so folding each rank's `cnt` subtractions
        // in a register is bitwise the member-major order. Four ranks
        // run in interleaved lanes to hide the subtraction latency;
        // bucket order groups near-equal counts, so the masked `- 0.0`
        // padding (a bitwise identity for non-NaN x) on shorter lanes
        // is marginal. The candidate cache written here uses this
        // round's pre-freeze counts; freeze fix-ups below re-divide the
        // few ranks whose count changes.
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
                    // O(1) bucket-queue decrement per route rank: swap
                    // the rank to the front of its count bucket and bump
                    // the boundary. A rank hitting count 0 thereby moves
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
        // Candidate fix-ups for surviving ranks whose crosser count
        // changed: the division the reference would perform next round
        // (same residual bits, post-freeze count). Ranks at count 0 need
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

/// Weighted max-min fairness with optional per-flow rate caps, by
/// progressive filling.
///
/// Starting from an optional base allocation `floor` (useful for MADD's
/// "pin targets, then backfill" pattern), all uncapped flows increase their
/// rate proportionally to their weight until a resource saturates or a flow
/// hits its cap; saturated/capped flows freeze and filling continues.
///
/// `weights` defaults to 1.0 for absent flows; `caps` to unbounded.
/// Thin adapter over [`waterfill_dense`]; results are bit-identical.
pub fn waterfill(
    topo: &Topology,
    flows: &[ActiveFlowView],
    weights: &BTreeMap<FlowId, f64>,
    caps: &BTreeMap<FlowId, f64>,
    floor: Option<&RateAlloc>,
) -> RateAlloc {
    let w: Vec<f64> = flows
        .iter()
        .map(|f| weights.get(&f.id).copied().unwrap_or(1.0))
        .collect();
    let c: Vec<f64> = flows
        .iter()
        .map(|f| caps.get(&f.id).copied().unwrap_or(f64::INFINITY))
        .collect();
    let mut rates: Vec<f64> = flows
        .iter()
        .map(|f| floor.and_then(|fl| fl.get(&f.id)).copied().unwrap_or(0.0))
        .collect();
    let mut ws = AllocScratch::new();
    waterfill_dense(topo, flows, Some(&w), Some(&c), &mut rates, &mut ws);
    dense_to_alloc(flows, &rates)
}

/// Unweighted, uncapped max-min fairness: the paper's fair-sharing baseline.
pub fn max_min_rates(topo: &Topology, flows: &[ActiveFlowView]) -> RateAlloc {
    waterfill(topo, flows, &BTreeMap::new(), &BTreeMap::new(), None)
}

/// Weighted max-min fairness (no caps).
pub fn weighted_rates(
    topo: &Topology,
    flows: &[ActiveFlowView],
    weights: &BTreeMap<FlowId, f64>,
) -> RateAlloc {
    waterfill(topo, flows, weights, &BTreeMap::new(), None)
}

/// Dense strict-priority greedy filling — the allocation-free core behind
/// [`priority_fill`].
///
/// `flows` must be in ascending id order (the [`crate::fluid`] invariant);
/// order entries are resolved by binary search instead of a per-call id
/// map. `rates` is zeroed and filled in place; `caps[i]` applies to
/// `flows[i]` (`None` = unbounded). Order entries naming unknown flows are
/// skipped; duplicates are served once.
pub fn priority_fill_dense(
    topo: &Topology,
    flows: &[ActiveFlowView],
    order: &[FlowId],
    caps: Option<&[f64]>,
    rates: &mut [f64],
    ws: &mut AllocScratch,
) {
    debug_assert!(
        flows.windows(2).all(|w| w[0].id < w[1].id),
        "priority_fill flows must be sorted by ascending id"
    );
    debug_assert_eq!(rates.len(), flows.len());
    debug_assert!(caps.is_none_or(|c| c.len() == flows.len()));
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
        let mut rate = f
            .route
            .iter()
            .map(|r| residual[r.0 as usize])
            .fold(f64::INFINITY, f64::min)
            .max(0.0);
        if let Some(c) = caps {
            rate = rate.min(c[i].max(0.0));
        }
        if rate > EPS {
            rates[i] = rate;
            for r in &f.route {
                residual[r.0 as usize] -= rate;
            }
        }
    }
}

/// Strict-priority greedy filling.
///
/// Flows are served in the order given by `order` (earlier = higher
/// priority); each takes the minimum residual capacity along its route,
/// optionally limited by a per-flow cap. Flows not listed in `order`
/// receive rate zero. This realizes priority-queue enforcement (paper §5)
/// and turns EDD/SEBF orderings into concrete rates.
///
/// `flows` must be in ascending id order. Thin adapter over
/// [`priority_fill_dense`]; results are bit-identical.
pub fn priority_fill(
    topo: &Topology,
    flows: &[ActiveFlowView],
    order: &[FlowId],
    caps: &BTreeMap<FlowId, f64>,
) -> RateAlloc {
    let c: Option<Vec<f64>> = if caps.is_empty() {
        None
    } else {
        Some(
            flows
                .iter()
                .map(|f| caps.get(&f.id).copied().unwrap_or(f64::INFINITY))
                .collect(),
        )
    };
    let mut rates = vec![0.0; flows.len()];
    let mut ws = AllocScratch::new();
    priority_fill_dense(topo, flows, order, c.as_deref(), &mut rates, &mut ws);
    dense_to_alloc(flows, &rates)
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

    #[test]
    fn max_min_equal_split_on_shared_egress() {
        let (topo, flows) = two_flows_one_port();
        let rates = max_min_rates(&topo, &flows);
        assert!((rates[&FlowId(0)] - 0.5).abs() < 1e-9);
        assert!((rates[&FlowId(1)] - 0.5).abs() < 1e-9);
        check_feasible(&topo, &flows, &rates).unwrap();
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
        let rates = max_min_rates(&topo, &flows);
        // f0 and f2 share n2's ingress: 0.5 each; f1 then gets n0's
        // remaining egress 0.5.
        assert!((rates[&FlowId(0)] - 0.5).abs() < 1e-9);
        assert!((rates[&FlowId(2)] - 0.5).abs() < 1e-9);
        assert!((rates[&FlowId(1)] - 0.5).abs() < 1e-9);
        check_feasible(&topo, &flows, &rates).unwrap();
    }

    #[test]
    fn weighted_split_follows_weights() {
        let (topo, flows) = two_flows_one_port();
        let mut weights = BTreeMap::new();
        weights.insert(FlowId(0), 3.0);
        weights.insert(FlowId(1), 1.0);
        let rates = weighted_rates(&topo, &flows, &weights);
        assert!((rates[&FlowId(0)] - 0.75).abs() < 1e-9);
        assert!((rates[&FlowId(1)] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn caps_freeze_then_backfill() {
        let (topo, flows) = two_flows_one_port();
        let mut caps = BTreeMap::new();
        caps.insert(FlowId(0), 0.25);
        let rates = waterfill(&topo, &flows, &BTreeMap::new(), &caps, None);
        // f0 pinned at 0.25; f1 work-conservingly takes the remaining 0.75.
        assert!((rates[&FlowId(0)] - 0.25).abs() < 1e-9);
        assert!((rates[&FlowId(1)] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn floor_is_respected() {
        let (topo, flows) = two_flows_one_port();
        let mut floor = RateAlloc::new();
        floor.insert(FlowId(0), 0.6);
        let mut caps = BTreeMap::new();
        caps.insert(FlowId(0), 0.6); // frozen at its floor
        let rates = waterfill(&topo, &flows, &BTreeMap::new(), &caps, Some(&floor));
        assert!((rates[&FlowId(0)] - 0.6).abs() < 1e-9);
        assert!((rates[&FlowId(1)] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn priority_fill_is_strict() {
        let (topo, flows) = two_flows_one_port();
        let rates = priority_fill(&topo, &flows, &[FlowId(1), FlowId(0)], &BTreeMap::new());
        assert!((rates[&FlowId(1)] - 1.0).abs() < 1e-9);
        assert!(rates[&FlowId(0)].abs() < 1e-9);
    }

    #[test]
    fn priority_fill_with_cap_leaves_room() {
        let (topo, flows) = two_flows_one_port();
        let mut caps = BTreeMap::new();
        caps.insert(FlowId(1), 0.3);
        let rates = priority_fill(&topo, &flows, &[FlowId(1), FlowId(0)], &caps);
        assert!((rates[&FlowId(1)] - 0.3).abs() < 1e-9);
        assert!((rates[&FlowId(0)] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn priority_fill_ignores_unknown_and_duplicate_ids() {
        let (topo, flows) = two_flows_one_port();
        let order = [FlowId(99), FlowId(0), FlowId(0), FlowId(1)];
        let rates = priority_fill(&topo, &flows, &order, &BTreeMap::new());
        assert!((rates[&FlowId(0)] - 1.0).abs() < 1e-9);
        assert!(rates[&FlowId(1)].abs() < 1e-9);
    }

    #[test]
    fn unlisted_flows_get_zero() {
        let (topo, flows) = two_flows_one_port();
        let rates = priority_fill(&topo, &flows, &[FlowId(0)], &BTreeMap::new());
        assert_eq!(rates[&FlowId(1)], 0.0);
    }

    #[test]
    fn feasibility_rejects_oversubscription() {
        let (topo, flows) = two_flows_one_port();
        let mut alloc = RateAlloc::new();
        alloc.insert(FlowId(0), 0.8);
        alloc.insert(FlowId(1), 0.8);
        assert!(check_feasible(&topo, &flows, &alloc).is_err());
    }

    #[test]
    fn feasibility_rejects_negative_rates() {
        let (topo, flows) = two_flows_one_port();
        let mut alloc = RateAlloc::new();
        alloc.insert(FlowId(0), -0.5);
        assert!(check_feasible(&topo, &flows, &alloc).is_err());
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
        let rates = max_min_rates(&topo, &flows);
        for f in &flows {
            assert!((rates[&f.id] - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    /// Dense and map-based waterfill must agree bit-for-bit, including
    /// weights, caps, and a floor, with the scratch reused across calls.
    #[test]
    fn dense_waterfill_matches_map_adapter_bitwise() {
        let topo = Topology::big_switch_uniform(4, 1.0);
        let demands = [
            FlowDemand::new(FlowId(0), NodeId(0), NodeId(2), 1.0, SimTime::ZERO),
            FlowDemand::new(FlowId(1), NodeId(0), NodeId(3), 1.0, SimTime::ZERO),
            FlowDemand::new(FlowId(2), NodeId(1), NodeId(2), 1.0, SimTime::ZERO),
        ];
        let flows: Vec<_> = demands.iter().map(|d| view(&topo, d)).collect();
        let mut weights = BTreeMap::new();
        weights.insert(FlowId(0), 2.0);
        let mut caps = BTreeMap::new();
        caps.insert(FlowId(2), 0.25);
        let mut floor = RateAlloc::new();
        floor.insert(FlowId(1), 0.1);

        let via_map = waterfill(&topo, &flows, &weights, &caps, Some(&floor));

        let w: Vec<f64> = flows
            .iter()
            .map(|f| weights.get(&f.id).copied().unwrap_or(1.0))
            .collect();
        let c: Vec<f64> = flows
            .iter()
            .map(|f| caps.get(&f.id).copied().unwrap_or(f64::INFINITY))
            .collect();
        let mut ws = AllocScratch::new();
        for _ in 0..2 {
            // Second round reuses the grown scratch: result must not change.
            let mut dense: Vec<f64> = flows
                .iter()
                .map(|f| floor.get(&f.id).copied().unwrap_or(0.0))
                .collect();
            waterfill_dense(&topo, &flows, Some(&w), Some(&c), &mut dense, &mut ws);
            for (i, f) in flows.iter().enumerate() {
                assert_eq!(dense[i].to_bits(), via_map[&f.id].to_bits());
            }
        }
    }

    /// Dense and map-based priority_fill must agree bit-for-bit, with
    /// unknown and duplicate order entries handled identically.
    #[test]
    fn dense_priority_fill_matches_map_adapter_bitwise() {
        let (topo, flows) = two_flows_one_port();
        let order = [FlowId(99), FlowId(1), FlowId(1), FlowId(0)];
        let mut caps = BTreeMap::new();
        caps.insert(FlowId(1), 0.3);
        let via_map = priority_fill(&topo, &flows, &order, &caps);

        let c: Vec<f64> = flows
            .iter()
            .map(|f| caps.get(&f.id).copied().unwrap_or(f64::INFINITY))
            .collect();
        let mut dense = vec![0.0; flows.len()];
        let mut ws = AllocScratch::new();
        priority_fill_dense(&topo, &flows, &order, Some(&c), &mut dense, &mut ws);
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(dense[i].to_bits(), via_map[&f.id].to_bits());
        }
    }

    /// The pre-link-index progressive filling, kept verbatim as the
    /// bitwise reference for [`waterfill_dense`]'s active-link rounds.
    fn waterfill_reference(
        topo: &Topology,
        flows: &[ActiveFlowView],
        weights: Option<&[f64]>,
        caps: Option<&[f64]>,
        rates: &mut [f64],
    ) {
        let w_of = |i: usize| weights.map_or(1.0, |w| w[i]).max(0.0);
        let cap_of = |i: usize| caps.map_or(f64::INFINITY, |c| c[i]);
        let mut residual: Vec<f64> = (0..topo.num_resources())
            .map(|r| topo.capacity(ResourceId(r as u32)))
            .collect();
        for (f, &rate) in flows.iter().zip(rates.iter()) {
            for r in &f.route {
                residual[r.0 as usize] -= rate;
            }
        }
        let mut unfrozen: Vec<usize> = (0..flows.len())
            .filter(|&i| rates[i] + EPS < cap_of(i))
            .collect();
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
            for &i in &unfrozen {
                let w = w_of(i);
                if w > EPS {
                    let cap = cap_of(i);
                    if cap.is_finite() {
                        inc = inc.min((cap - rates[i]).max(0.0) / w);
                    }
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
                let w = w_of(i);
                if w <= EPS {
                    return false;
                }
                if rates[i] + EPS >= cap_of(i) {
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
            let caps: Option<Vec<f64>> = (trial % 3 == 0).then(|| {
                (0..n)
                    .map(|_| {
                        if rng.next_f64() < 0.3 {
                            f64::INFINITY
                        } else {
                            rng.f64_range(0.0, 1.5)
                        }
                    })
                    .collect()
            });
            let floor: Vec<f64> = (0..n)
                .map(|i| {
                    let c = caps.as_ref().map_or(f64::INFINITY, |c| c[i]);
                    if rng.next_f64() < 0.2 {
                        rng.f64_range(0.0, 0.2).min(c)
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut optimized = floor.clone();
            waterfill_dense(
                topo,
                &flows,
                weights.as_deref(),
                caps.as_deref(),
                &mut optimized,
                &mut ws,
            );
            let mut reference = floor;
            waterfill_reference(
                topo,
                &flows,
                weights.as_deref(),
                caps.as_deref(),
                &mut reference,
            );
            for (i, (a, b)) in optimized.iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "trial {trial} flow {i}: optimized {a} != reference {b}"
                );
            }
        }
    }

    /// The full-set subset waterfill must be bit-identical to the plain
    /// unweighted, uncapped, zero-floor dense waterfill, and disjoint
    /// subsets must fill independently of the order they are computed in
    /// (each seeds residuals from capacity on its own links only).
    #[test]
    fn subset_waterfill_matches_dense_bitwise() {
        let topo = Topology::big_switch_uniform(6, 1.0);
        // Two "pods": flows among hosts {0,1,2} and among hosts {3,4,5}
        // (big-switch routes touch only src egress + dst ingress, so the
        // two groups cross disjoint resources).
        let demands = [
            FlowDemand::new(FlowId(0), NodeId(0), NodeId(1), 1.0, SimTime::ZERO),
            FlowDemand::new(FlowId(1), NodeId(0), NodeId(2), 1.0, SimTime::ZERO),
            FlowDemand::new(FlowId(2), NodeId(2), NodeId(1), 1.0, SimTime::ZERO),
            FlowDemand::new(FlowId(3), NodeId(3), NodeId(4), 1.0, SimTime::ZERO),
            FlowDemand::new(FlowId(4), NodeId(5), NodeId(4), 1.0, SimTime::ZERO),
        ];
        let flows: Vec<_> = demands.iter().map(|d| view(&topo, d)).collect();
        let mut ws = AllocScratch::new();

        let mut reference = vec![0.0; flows.len()];
        waterfill_dense(&topo, &flows, None, None, &mut reference, &mut ws);

        // Whole set through the subset entry point.
        let all: Vec<usize> = (0..flows.len()).collect();
        let mut via_subset = vec![f64::NAN; flows.len()];
        waterfill_subset_dense(&topo, &flows, &all, &mut via_subset, &mut ws);
        for (a, b) in via_subset.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Disjoint subsets, computed in either order: identical rates —
        // each subset's filling reads only its own links.
        let mut ab = vec![f64::NAN; flows.len()];
        waterfill_subset_dense(&topo, &flows, &[0, 1, 2], &mut ab, &mut ws);
        waterfill_subset_dense(&topo, &flows, &[3, 4], &mut ab, &mut ws);
        let mut ba = vec![f64::NAN; flows.len()];
        waterfill_subset_dense(&topo, &flows, &[3, 4], &mut ba, &mut ws);
        waterfill_subset_dense(&topo, &flows, &[0, 1, 2], &mut ba, &mut ws);
        for (a, b) in ab.iter().zip(&ba) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Feasibility of the pod-by-pod fill on the shared topology.
        let mut residual = Vec::new();
        check_feasible_dense(&topo, &flows, &ab, &mut residual).unwrap();
    }

    #[test]
    fn dense_feasibility_matches_map_check() {
        let (topo, flows) = two_flows_one_port();
        let mut residual = Vec::new();
        assert!(check_feasible_dense(&topo, &flows, &[0.8, 0.8], &mut residual).is_err());
        assert!(check_feasible_dense(&topo, &flows, &[-0.5, 0.0], &mut residual).is_err());
        assert!(check_feasible_dense(&topo, &flows, &[0.5, 0.5], &mut residual).is_ok());
    }

    #[test]
    #[should_panic(expected = "unknown flow")]
    fn alloc_to_dense_rejects_unknown_ids() {
        let (_topo, flows) = two_flows_one_port();
        let mut alloc = RateAlloc::new();
        alloc.insert(FlowId(9999), 0.1);
        let mut out = Vec::new();
        alloc_to_dense(&flows, &alloc, &mut out);
    }

    /// A random rank-space pod: capacities per pod-local rank and one
    /// stride-arena route per member, with members mapped to shuffled
    /// arena slots the way the policy's recycled arena maps them.
    struct PodSim {
        caps: Vec<f64>,
        slots: Vec<u32>,
        slot_routes: Vec<u32>,
        slot_route_len: Vec<u8>,
    }

    /// The signature shared by the pod waterfill engines.
    type PodEngine = fn(&[f64], &[usize], &[u32], &[u32], &[u8], &mut [f64], &mut AllocScratch);

    impl PodSim {
        /// A narrow pod (at most 12 members on 2–10 ranks: never more
        /// than 48 route hops) or a wide one (17–64 members on 8–40
        /// ranks: usually more than [`SMALL_POD_RANKS`]).
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
            let caps = (0..nranks)
                .map(|_| {
                    if rng.usize_range_inclusive(0, 9) == 0 {
                        0.0 // exercise saturated-at-birth ranks
                    } else {
                        rng.f64_range(0.25, 3.0)
                    }
                })
                .collect();
            let mut slot_routes = vec![0; members * ROUTE_RANK_STRIDE];
            let mut slot_route_len = vec![0; members];
            for (slot, len) in slot_route_len.iter_mut().enumerate() {
                let hops = rng.usize_range_inclusive(1, nranks.min(4));
                let mut route: Vec<u32> = (0..nranks as u32).collect();
                rng.shuffle(&mut route);
                let base = slot * ROUTE_RANK_STRIDE;
                slot_routes[base..base + hops].copy_from_slice(&route[..hops]);
                *len = hops as u8;
            }
            let mut slots: Vec<u32> = (0..members as u32).collect();
            rng.shuffle(&mut slots);
            PodSim {
                caps,
                slots,
                slot_routes,
                slot_route_len,
            }
        }

        fn route_hops(&self) -> usize {
            self.slot_route_len.iter().map(|&l| l as usize).sum()
        }

        /// Fills every member through `engine`.
        fn fill(&self, engine: PodEngine, ws: &mut AllocScratch) -> Vec<f64> {
            let subset: Vec<usize> = (0..self.slots.len()).collect();
            let mut rates = vec![f64::NAN; self.slots.len()];
            engine(
                &self.caps,
                &subset,
                &self.slots,
                &self.slot_routes,
                &self.slot_route_len,
                &mut rates,
                ws,
            );
            rates
        }
    }

    /// Both arms of the bucket engine's dispatch — the member-major
    /// engine at or under [`SMALL_POD_RANKS`] route hops, the bucket
    /// queue above it — must be bitwise the ranked reference, with one
    /// scratch reused across pods of every width.
    #[test]
    fn bucket_engine_matches_ranked_bitwise() {
        let mut ws = AllocScratch::new();
        let mut wide = 0usize;
        for seed in 0..300u64 {
            let mut rng = echelon_detrand::DetRng::seed_from_u64(0xF111 + seed);
            let sim = PodSim::new(&mut rng, seed % 2 == 1);
            let want = sim.fill(waterfill_pod_ranked, &mut ws);
            let got = sim.fill(waterfill_pod_bucket, &mut ws);
            assert_eq!(want.len(), got.len());
            for (j, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed} member {j}: {a} != {b}"
                );
            }
            if sim.route_hops() > SMALL_POD_RANKS {
                wide += 1;
            }
        }
        // Non-vacuity: the narrow half always takes the member-major
        // arm, and most of the wide half must reach the bucket queue.
        assert!(wide > 100, "only {wide} of 300 pods took the bucket queue");
    }
}
