//! Persistent per-policy workspace for the MADD engine.
//!
//! The MADD allocation path used to build transient `BTreeMap`s and
//! `Vec`s on every event: per-group member lists with repeated binary
//! searches, per-stage link-load maps, per-group cap maps, a fresh
//! residual vector. MADD rates are remaining-proportional, so *values*
//! can never be cached across events — but the *storage* can.
//! [`GroupCsr`] keeps the whole group structure in flat reusable buffers
//! (a CSR layout: one `starts` offset array over concatenated member
//! slices), with member positions in the id-sorted flow table read from
//! a slot table the cache guard writes once per event. Paired with
//! [`echelon_simnet::linkload::LinkLoad`] for the per-link sums, a
//! steady-state MADD allocation performs no heap allocation.
//!
//! Bit-identity with the map-based MADD reference in the workspace's
//! test support (`tests/support`) holds by construction: groups appear
//! in the engine's kept `(head deadline, key)` serve order, which every
//! ranking but earliest-deadline re-sorts by a strict total order (BSSI
//! numbers them in key order), members keep their cached EDD order, and
//! per-link sums accumulate in member order. Folds whose result depends
//! on order run over ascending sorted touched-link lists (see
//! `LinkLoad`); a stage's γ is a max, which is order-free, so it folds
//! over the touched links as they were first touched.

use crate::echelon::GroupKey;
use echelon_simnet::ids::ResourceId;
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;

/// Flat, reusable group structure for one allocation event.
///
/// Groups `g`, in the kept `(head deadline, key)` serve order, own
/// members `pos[starts[g]..starts[g + 1]]`; `pos` holds indices into the
/// id-sorted active-flow slice, read from `slot_pos`, and `deadline` the
/// matching ideal finish times. `order`, `ranked`, `held_rank`, `caps`
/// and `residual` are working buffers for the inter-group ranking and the
/// serving pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupCsr {
    /// Group keys, in the kept `(head deadline, key)` order.
    pub keys: Vec<GroupKey>,
    /// CSR offsets into `pos`/`deadline`; `len = keys.len() + 1`.
    pub starts: Vec<usize>,
    /// Member positions in the id-sorted flow slice, per group.
    pub pos: Vec<usize>,
    /// Member ideal finish times, parallel to `pos`.
    pub deadline: Vec<SimTime>,
    /// Group indices (into `keys`) in serve order.
    pub order: Vec<usize>,
    /// `(rank, key, group)` per group, sorted into the serve order
    /// by every ranking but earliest-deadline and BSSI.
    pub ranked: Vec<(f64, GroupKey, usize)>,
    /// Each group's position in the held ranking a serve pass follows,
    /// `usize::MAX` for a group it does not list.
    pub held_rank: Vec<usize>,
    /// Position in the flow slice of the flow in each arena slot, written
    /// by the allocation's cache-guard pass; other entries are stale.
    pub slot_pos: Vec<u32>,
    /// Per-flow rate caps, indexed like the flow slice. Entries are only
    /// valid for the group currently being served (written just before
    /// its stages are).
    pub caps: Vec<f64>,
    /// Per-resource residual capacity during serving, seeded from the
    /// topology at each link's first touch in an allocation.
    pub residual: Residual,
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

/// Per-resource residual capacity for one serving pass, seeded from the
/// topology on each link's first touch in the pass: a per-allocation
/// stamp stands in for a fabric-sized capacity copy. Entries not touched
/// in the current pass are stale and never read.
#[derive(Debug, Clone, Default)]
pub(crate) struct Residual {
    val: Vec<f64>,
    stamp: Vec<u64>,
    cur: u64,
}

impl Residual {
    /// Starts a serving pass: every link reads as its capacity again.
    pub fn begin(&mut self, num_resources: usize) {
        self.cur += 1;
        if self.val.len() < num_resources {
            self.val.resize(num_resources, 0.0);
            self.stamp.resize(num_resources, 0);
        }
    }

    /// `r`'s residual, seeded with its capacity on first touch.
    pub fn at(&mut self, topo: &Topology, r: ResourceId) -> &mut f64 {
        let i = r.0 as usize;
        if self.stamp[i] != self.cur {
            self.stamp[i] = self.cur;
            self.val[i] = topo.capacity(r);
        }
        &mut self.val[i]
    }
}
