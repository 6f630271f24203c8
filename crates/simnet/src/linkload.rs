//! The stamped dense per-link accumulator the MADD engine and the
//! placement link-contention score reduce over.
//!
//! [`LinkLoad`] replaces the transient `BTreeMap<ResourceId, f64>` maps
//! the MADD schedulers used to build on every event. Iterating the
//! touched list after [`LinkLoad::sort_touched`] visits exactly the links
//! a `BTreeMap` would, in the same ascending order, so floating-point
//! reductions over it are bit-identical to the map-based path.

use crate::ids::ResourceId;

/// Stamped dense per-link `f64` accumulator with a touched-link list.
///
/// A drop-in replacement for a transient `BTreeMap<ResourceId, f64>`:
/// [`LinkLoad::begin`] resets in O(1) by bumping a generation stamp,
/// [`LinkLoad::add`] accumulates (`0.0 + x` on first touch, matching
/// `entry(r).or_insert(0.0) += x` bit-for-bit), and after
/// [`LinkLoad::sort_touched`] the touched list enumerates exactly the
/// links a map would, in ascending order — so folds over it reproduce the
/// map-based reduction bitwise. Values at untouched links are stale and
/// must never be read; [`LinkLoad::get`] guards with the stamp.
#[derive(Debug, Clone, Default)]
pub struct LinkLoad {
    val: Vec<f64>,
    stamp: Vec<u64>,
    cur: u64,
    touched: Vec<ResourceId>,
}

impl LinkLoad {
    /// Creates an empty accumulator (sized lazily by [`Self::begin`]).
    pub fn new() -> LinkLoad {
        LinkLoad::default()
    }

    /// Starts a fresh accumulation over `num_resources` resources.
    pub fn begin(&mut self, num_resources: usize) {
        self.cur += 1;
        if self.val.len() < num_resources {
            self.val.resize(num_resources, 0.0);
            self.stamp.resize(num_resources, 0);
        }
        self.touched.clear();
    }

    /// Adds `x` to the accumulator at `r`, returning the new sum.
    pub fn add(&mut self, r: ResourceId, x: f64) -> f64 {
        let i = r.0 as usize;
        if self.stamp[i] != self.cur {
            self.stamp[i] = self.cur;
            self.val[i] = 0.0 + x;
            self.touched.push(r);
        } else {
            self.val[i] += x;
        }
        self.val[i]
    }

    /// Accumulated value at `r` (zero if untouched this generation).
    pub fn get(&self, r: ResourceId) -> f64 {
        let i = r.0 as usize;
        if i < self.stamp.len() && self.stamp[i] == self.cur {
            self.val[i]
        } else {
            0.0
        }
    }

    /// Sorts the touched list ascending, enabling map-order iteration.
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// Links touched this generation (ascending after
    /// [`Self::sort_touched`]).
    pub fn touched(&self) -> &[ResourceId] {
        &self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_load_matches_map_semantics() {
        let mut load = LinkLoad::new();
        load.begin(4);
        assert_eq!(load.add(ResourceId(3), 1.5), 1.5);
        assert_eq!(load.add(ResourceId(1), 0.5), 0.5);
        assert_eq!(load.add(ResourceId(3), 0.25), 1.75);
        assert_eq!(load.get(ResourceId(3)), 1.75);
        assert_eq!(load.get(ResourceId(0)), 0.0);
        load.sort_touched();
        assert_eq!(load.touched(), &[ResourceId(1), ResourceId(3)]);
        // A new generation forgets everything in O(1).
        load.begin(4);
        assert_eq!(load.get(ResourceId(3)), 0.0);
        assert!(load.touched().is_empty());
        assert_eq!(load.add(ResourceId(3), 2.0), 2.0);
    }
}
