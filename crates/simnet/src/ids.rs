//! Small integer identifiers.
//!
//! All entities in the simulator are referred to by newtype-wrapped integer
//! ids. Iteration over id-keyed `BTreeMap`s is the backbone of the
//! simulator's determinism: everything that could influence a floating point
//! reduction happens in ascending id order.

use core::fmt;

/// Identifies a host (GPU worker or parameter server) in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifies a directed link in a [`crate::topology::LinkGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// Identifies a network flow for its whole lifetime.
///
/// Flow ids are globally unique within one simulation; higher layers
/// allocate them from a [`FlowIdGen`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// A capacity-constrained resource the fluid model allocates over.
///
/// Both topology models reduce to a list of resources per flow: in the big
/// switch model a flow consumes its source's egress port and its
/// destination's ingress port; in the link-graph model it consumes every
/// link on its routed path.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ResourceId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Monotonic allocator of fresh [`FlowId`]s.
#[derive(Debug, Default, Clone)]
pub struct FlowIdGen {
    next: u64,
}

impl FlowIdGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> FlowIdGen {
        FlowIdGen::default()
    }

    /// Returns a fresh, never-before-returned id.
    pub fn next_id(&mut self) -> FlowId {
        let id = FlowId(self.next);
        self.next += 1;
        id
    }

    /// The id the next [`Self::next_id`] call returns, without issuing it.
    pub fn peek(&self) -> FlowId {
        FlowId(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_order_by_value() {
        assert!(FlowId(1) < FlowId(2));
        assert!(NodeId(0) < NodeId(7));
        assert!(ResourceId(3) > ResourceId(1));
    }

    #[test]
    fn generator_is_monotonic() {
        let mut gen = FlowIdGen::new();
        let a = gen.next_id();
        let b = gen.next_id();
        let c = gen.next_id();
        assert_eq!(a, FlowId(0));
        assert_eq!(b, FlowId(1));
        assert_eq!(c, FlowId(2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(FlowId(9).to_string(), "f9");
        assert_eq!(LinkId(2).to_string(), "l2");
        assert_eq!(ResourceId(5).to_string(), "r5");
    }
}
