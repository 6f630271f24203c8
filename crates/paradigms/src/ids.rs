//! Identifier allocation shared across job DAG builders.

use core::fmt;
use echelon_core::EchelonId;
use echelon_simnet::ids::FlowIdGen;

/// Identifies a computation unit (one forward/backward/update block on one
/// worker).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CompId(pub u64);

/// Identifies a communication unit (one collective-operation instance).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CommId(pub u64);

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CommId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One allocator for every id space used while building job DAGs.
///
/// Sharing a single `IdAlloc` across all jobs of a cluster simulation
/// guarantees global uniqueness of flow, computation, communication and
/// EchelonFlow ids.
#[derive(Debug, Default)]
pub struct IdAlloc {
    /// Flow id generator (shared with the network layer).
    pub flows: FlowIdGen,
    pub(crate) next_comp: u64,
    pub(crate) next_comm: u64,
    next_echelon: u64,
}

impl IdAlloc {
    /// Creates a fresh allocator.
    pub fn new() -> IdAlloc {
        IdAlloc::default()
    }

    /// Allocates a computation-unit id.
    pub fn next_comp(&mut self) -> CompId {
        let id = CompId(self.next_comp);
        self.next_comp += 1;
        id
    }

    /// Allocates a communication-unit id.
    pub fn next_comm(&mut self) -> CommId {
        let id = CommId(self.next_comm);
        self.next_comm += 1;
        id
    }

    /// Allocates an EchelonFlow/Coflow group id.
    pub fn next_echelon(&mut self) -> EchelonId {
        let id = EchelonId(self.next_echelon);
        self.next_echelon += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_spaces_monotonic() {
        let mut alloc = IdAlloc::new();
        assert_eq!(alloc.next_comp(), CompId(0));
        assert_eq!(alloc.next_comp(), CompId(1));
        assert_eq!(alloc.next_comm(), CommId(0));
        assert_eq!(alloc.next_echelon(), EchelonId(0));
        assert_eq!(alloc.next_echelon(), EchelonId(1));
        let f0 = alloc.flows.next_id();
        let f1 = alloc.flows.next_id();
        assert!(f0 < f1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(CompId(4).to_string(), "c4");
        assert_eq!(CommId(7).to_string(), "m7");
    }
}
