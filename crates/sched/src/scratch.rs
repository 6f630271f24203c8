//! Persistent per-policy workspace for the MADD engine.
//!
//! The MADD allocation path used to build transient `BTreeMap`s and
//! `Vec`s on every event: per-group member lists with repeated binary
//! searches, per-stage link-load maps, per-group cap maps, a fresh
//! residual vector. MADD rates are remaining-proportional, so *values*
//! can never be cached across events — but the *storage* can.
//! [`GroupCsr`] keeps the whole group structure in flat reusable buffers
//! (a CSR layout: one `starts` offset array over concatenated member
//! slices), with member positions in the id-sorted flow table resolved
//! once per event. Paired with [`echelon_simnet::linkload::LinkLoad`]
//! for the per-link sums, a steady-state MADD allocation performs no
//! heap allocation.
//!
//! Bit-identity with the map-based MADD reference in the workspace's
//! test support (`tests/support`) holds by construction: groups appear
//! in ascending key order (the `BTreeMap` iteration order of the member
//! cache they are built from), members keep their cached EDD order, and
//! all per-link reductions run over ascending sorted touched-link lists
//! (see `LinkLoad`).

use crate::echelon::GroupKey;
use echelon_simnet::time::SimTime;

/// Flat, reusable group structure for one allocation event.
///
/// Groups `g` own members `pos[starts[g]..starts[g + 1]]`; `pos` holds
/// indices into the id-sorted active-flow slice, `deadline` the matching
/// ideal finish times. `order`, `rank*`, `caps` and `residual` are
/// working buffers for the inter-group sort and the serving pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupCsr {
    /// Group keys in ascending key order.
    pub keys: Vec<GroupKey>,
    /// CSR offsets into `pos`/`deadline`; `len = keys.len() + 1`.
    pub starts: Vec<usize>,
    /// Member positions in the id-sorted flow slice, per group.
    pub pos: Vec<usize>,
    /// Member ideal finish times, parallel to `pos`.
    pub deadline: Vec<SimTime>,
    /// Group indices (into `keys`) in serve order.
    pub order: Vec<usize>,
    /// Per-group primary sort rank.
    pub rank: Vec<f64>,
    /// Per-group secondary (time) sort rank.
    pub rank_time: Vec<SimTime>,
    /// Per-flow rate caps, indexed like the flow slice. Entries are only
    /// valid for the group currently being served (written just before
    /// its stages are).
    pub caps: Vec<f64>,
    /// Per-resource residual capacity during serving.
    pub residual: Vec<f64>,
}

impl GroupCsr {
    /// Clears the group structure (keys/offsets/members), keeping all
    /// capacity for reuse. Working buffers are reset by their own passes.
    pub fn clear_groups(&mut self) {
        self.keys.clear();
        self.starts.clear();
        self.pos.clear();
        self.deadline.clear();
        self.starts.push(0);
    }
}
