//! Collective operations and their flow decompositions.

use echelon_core::echelon::FlowRef;
use echelon_simnet::ids::{FlowIdGen, NodeId};

/// A collective communication operation, as issued by a training
/// framework to the backend.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectiveOp {
    /// Ring all-reduce of `bytes` per participant (gradient bucket size).
    AllReduce {
        /// Ring members in ring order.
        participants: Vec<NodeId>,
        /// Payload bytes per participant.
        bytes: f64,
    },
    /// All-gather: every participant ends with every shard; `bytes` is
    /// one shard's size.
    AllGather {
        /// Participants.
        participants: Vec<NodeId>,
        /// Shard bytes per participant.
        bytes: f64,
    },
    /// Reduce-scatter: every participant ends with one reduced shard.
    ReduceScatter {
        /// Participants.
        participants: Vec<NodeId>,
        /// Shard bytes per participant.
        bytes: f64,
    },
    /// Broadcast `bytes` from `root` to every other participant.
    Broadcast {
        /// Source of the data.
        root: NodeId,
        /// All participants (including the root).
        participants: Vec<NodeId>,
        /// Payload bytes.
        bytes: f64,
    },
    /// All-to-all: every ordered pair exchanges `bytes`.
    AllToAll {
        /// Participants.
        participants: Vec<NodeId>,
        /// Bytes per ordered pair.
        bytes: f64,
    },
    /// Parameter-server push: every worker sends `bytes` of gradients to
    /// the PS node.
    PsPush {
        /// Worker nodes.
        workers: Vec<NodeId>,
        /// The parameter server.
        ps: NodeId,
        /// Gradient bytes per worker.
        bytes: f64,
    },
    /// Parameter-server pull: the PS sends `bytes` of fresh weights to
    /// every worker.
    PsPull {
        /// Worker nodes.
        workers: Vec<NodeId>,
        /// The parameter server.
        ps: NodeId,
        /// Weight bytes per worker.
        bytes: f64,
    },
    /// A single point-to-point transfer (pipeline activations/gradients).
    P2p {
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
        /// Payload bytes.
        bytes: f64,
    },
}

/// Decomposition style for the gather/scatter family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Ring algorithm: `m − 1` dependent steps of `m` chunk transfers.
    Ring,
    /// Direct (fully connected) algorithm: one step of `m(m−1)` transfers
    /// (the "flows of the collective form one Coflow" view of §4).
    Direct,
}

/// One step of a decomposition: flows that may run concurrently; the next
/// stage depends on all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStage {
    /// Step index within the operation.
    pub step: usize,
    /// The flows of this step.
    pub flows: Vec<FlowRef>,
}

/// A collective reduced to network flows.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Short name for reports ("ring-allreduce", "allgather", ...).
    pub op_name: &'static str,
    /// Dependent stages in execution order.
    pub stages: Vec<FlowStage>,
}

impl Decomposition {
    /// All flows across stages.
    pub fn flows(&self) -> impl Iterator<Item = &FlowRef> {
        self.stages.iter().flat_map(|s| s.flows.iter())
    }

    /// Total number of flows.
    pub fn num_flows(&self) -> usize {
        self.stages.iter().map(|s| s.flows.len()).sum()
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> f64 {
        self.flows().map(|f| f.size).sum()
    }
}

fn ring_steps(
    participants: &[NodeId],
    chunk: f64,
    steps: usize,
    ids: &mut FlowIdGen,
    step_offset: usize,
) -> Vec<FlowStage> {
    let m = participants.len();
    let mut stages = Vec::with_capacity(steps);
    for step in 0..steps {
        let mut flows = Vec::with_capacity(m);
        for (i, &src) in participants.iter().enumerate() {
            let dst = participants[(i + 1) % m];
            flows.push(FlowRef::new(ids.next_id(), src, dst, chunk));
        }
        stages.push(FlowStage {
            step: step_offset + step,
            flows,
        });
    }
    stages
}

/// Decomposes a collective into flow stages, allocating fresh flow ids.
///
/// `style` affects the gather/scatter family only; star- and pair-shaped
/// operations ignore it.
///
/// # Panics
///
/// Panics on fewer than 2 participants, non-positive payload, a PS that
/// is also listed as a worker, or duplicate participants.
pub fn decompose(op: &CollectiveOp, style: Style, ids: &mut FlowIdGen) -> Decomposition {
    match op {
        CollectiveOp::AllReduce {
            participants,
            bytes,
        } => {
            validate(participants, *bytes);
            let m = participants.len();
            let chunk = bytes / m as f64;
            // reduce-scatter (m−1 steps) then all-gather (m−1 steps).
            let mut stages = ring_steps(participants, chunk, m - 1, ids, 0);
            stages.extend(ring_steps(participants, chunk, m - 1, ids, m - 1));
            Decomposition {
                op_name: "ring-allreduce",
                stages,
            }
        }
        CollectiveOp::AllGather {
            participants,
            bytes,
        } => {
            validate(participants, *bytes);
            let m = participants.len();
            match style {
                Style::Ring => Decomposition {
                    op_name: "ring-allgather",
                    stages: ring_steps(participants, *bytes, m - 1, ids, 0),
                },
                Style::Direct => {
                    let mut flows = Vec::with_capacity(m * (m - 1));
                    for &src in participants {
                        for &dst in participants {
                            if src != dst {
                                flows.push(FlowRef::new(ids.next_id(), src, dst, *bytes));
                            }
                        }
                    }
                    Decomposition {
                        op_name: "allgather",
                        stages: vec![FlowStage { step: 0, flows }],
                    }
                }
            }
        }
        CollectiveOp::ReduceScatter {
            participants,
            bytes,
        } => {
            validate(participants, *bytes);
            let m = participants.len();
            match style {
                Style::Ring => Decomposition {
                    op_name: "ring-reducescatter",
                    stages: ring_steps(participants, *bytes, m - 1, ids, 0),
                },
                Style::Direct => {
                    let mut flows = Vec::with_capacity(m * (m - 1));
                    for &src in participants {
                        for &dst in participants {
                            if src != dst {
                                flows.push(FlowRef::new(ids.next_id(), src, dst, *bytes));
                            }
                        }
                    }
                    Decomposition {
                        op_name: "reducescatter",
                        stages: vec![FlowStage { step: 0, flows }],
                    }
                }
            }
        }
        CollectiveOp::Broadcast {
            root,
            participants,
            bytes,
        } => {
            validate(participants, *bytes);
            assert!(participants.contains(root), "root must participate");
            let flows = participants
                .iter()
                .filter(|&&p| p != *root)
                .map(|&dst| FlowRef::new(ids.next_id(), *root, dst, *bytes))
                .collect();
            Decomposition {
                op_name: "broadcast",
                stages: vec![FlowStage { step: 0, flows }],
            }
        }
        CollectiveOp::AllToAll {
            participants,
            bytes,
        } => {
            validate(participants, *bytes);
            let m = participants.len();
            let mut flows = Vec::with_capacity(m * (m - 1));
            for &src in participants {
                for &dst in participants {
                    if src != dst {
                        flows.push(FlowRef::new(ids.next_id(), src, dst, *bytes));
                    }
                }
            }
            Decomposition {
                op_name: "alltoall",
                stages: vec![FlowStage { step: 0, flows }],
            }
        }
        CollectiveOp::PsPush { workers, ps, bytes } => {
            validate(workers, *bytes);
            assert!(!workers.contains(ps), "PS cannot also be a worker");
            let flows = workers
                .iter()
                .map(|&w| FlowRef::new(ids.next_id(), w, *ps, *bytes))
                .collect();
            Decomposition {
                op_name: "ps-push",
                stages: vec![FlowStage { step: 0, flows }],
            }
        }
        CollectiveOp::PsPull { workers, ps, bytes } => {
            validate(workers, *bytes);
            assert!(!workers.contains(ps), "PS cannot also be a worker");
            let flows = workers
                .iter()
                .map(|&w| FlowRef::new(ids.next_id(), *ps, w, *bytes))
                .collect();
            Decomposition {
                op_name: "ps-pull",
                stages: vec![FlowStage { step: 0, flows }],
            }
        }
        CollectiveOp::P2p { src, dst, bytes } => {
            assert!(
                *bytes > 0.0 && bytes.is_finite(),
                "payload must be positive"
            );
            Decomposition {
                op_name: "p2p",
                stages: vec![FlowStage {
                    step: 0,
                    flows: vec![FlowRef::new(ids.next_id(), *src, *dst, *bytes)],
                }],
            }
        }
    }
}

fn validate(participants: &[NodeId], bytes: f64) {
    assert!(
        participants.len() >= 2,
        "collective needs at least 2 participants, got {}",
        participants.len()
    );
    assert!(bytes > 0.0 && bytes.is_finite(), "payload must be positive");
    // Pairwise, without a sorted copy: quadratic in the participants,
    // like the all-to-all family's decompositions themselves.
    let duplicate = (1..participants.len()).any(|i| participants[..i].contains(&participants[i]));
    assert!(!duplicate, "duplicate participants in collective");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn ring_allreduce_step_and_flow_counts() {
        // §2.1: "For an m-worker ring, each operation has m − 1 steps".
        let mut ids = FlowIdGen::new();
        let d = decompose(
            &CollectiveOp::AllReduce {
                participants: nodes(4),
                bytes: 8.0,
            },
            Style::Ring,
            &mut ids,
        );
        // reduce-scatter: 3 steps, all-gather: 3 steps.
        assert_eq!(d.stages.len(), 6);
        // m transfers per step.
        for s in &d.stages {
            assert_eq!(s.flows.len(), 4);
        }
        assert_eq!(d.num_flows(), 24);
        // Each flow carries one S/m chunk.
        for f in d.flows() {
            assert!((f.size - 2.0).abs() < 1e-12);
        }
        // Total traffic: 2 (m−1) S = 48.
        assert!((d.total_bytes() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn ring_allreduce_neighbors_only() {
        let mut ids = FlowIdGen::new();
        let d = decompose(
            &CollectiveOp::AllReduce {
                participants: nodes(4),
                bytes: 4.0,
            },
            Style::Ring,
            &mut ids,
        );
        for s in &d.stages {
            for f in &s.flows {
                let diff = (f.dst.0 + 4 - f.src.0) % 4;
                assert_eq!(diff, 1, "ring must send to next neighbor");
            }
        }
    }

    #[test]
    fn allgather_direct_is_full_mesh_single_stage() {
        let mut ids = FlowIdGen::new();
        let d = decompose(
            &CollectiveOp::AllGather {
                participants: nodes(3),
                bytes: 1.0,
            },
            Style::Direct,
            &mut ids,
        );
        assert_eq!(d.stages.len(), 1);
        assert_eq!(d.num_flows(), 6); // m(m−1)
        assert!((d.total_bytes() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn allgather_ring_has_m_minus_1_steps() {
        let mut ids = FlowIdGen::new();
        let d = decompose(
            &CollectiveOp::AllGather {
                participants: nodes(5),
                bytes: 1.0,
            },
            Style::Ring,
            &mut ids,
        );
        assert_eq!(d.stages.len(), 4);
        assert_eq!(d.num_flows(), 20);
    }

    #[test]
    fn reducescatter_matches_allgather_shape() {
        let mut ids = FlowIdGen::new();
        let rs = decompose(
            &CollectiveOp::ReduceScatter {
                participants: nodes(4),
                bytes: 2.0,
            },
            Style::Ring,
            &mut ids,
        );
        assert_eq!(rs.stages.len(), 3);
        assert_eq!(rs.num_flows(), 12);
        let direct = decompose(
            &CollectiveOp::ReduceScatter {
                participants: nodes(4),
                bytes: 2.0,
            },
            Style::Direct,
            &mut FlowIdGen::new(),
        );
        assert_eq!(direct.stages.len(), 1);
        assert_eq!(direct.num_flows(), 12);
    }

    #[test]
    fn broadcast_fans_out_from_root() {
        let mut ids = FlowIdGen::new();
        let d = decompose(
            &CollectiveOp::Broadcast {
                root: NodeId(1),
                participants: nodes(4),
                bytes: 3.0,
            },
            Style::Direct,
            &mut ids,
        );
        assert_eq!(d.num_flows(), 3);
        for f in d.flows() {
            assert_eq!(f.src, NodeId(1));
            assert_ne!(f.dst, NodeId(1));
        }
    }

    #[test]
    fn ps_push_and_pull_are_stars() {
        let mut ids = FlowIdGen::new();
        let push = decompose(
            &CollectiveOp::PsPush {
                workers: nodes(3),
                ps: NodeId(9),
                bytes: 2.0,
            },
            Style::Direct,
            &mut ids,
        );
        assert_eq!(push.num_flows(), 3);
        for f in push.flows() {
            assert_eq!(f.dst, NodeId(9));
        }
        let pull = decompose(
            &CollectiveOp::PsPull {
                workers: nodes(3),
                ps: NodeId(9),
                bytes: 2.0,
            },
            Style::Direct,
            &mut ids,
        );
        for f in pull.flows() {
            assert_eq!(f.src, NodeId(9));
        }
    }

    #[test]
    fn alltoall_all_ordered_pairs() {
        let mut ids = FlowIdGen::new();
        let d = decompose(
            &CollectiveOp::AllToAll {
                participants: nodes(4),
                bytes: 1.0,
            },
            Style::Direct,
            &mut ids,
        );
        assert_eq!(d.num_flows(), 12);
    }

    #[test]
    fn p2p_single_flow() {
        let mut ids = FlowIdGen::new();
        let d = decompose(
            &CollectiveOp::P2p {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 2.0,
            },
            Style::Direct,
            &mut ids,
        );
        assert_eq!(d.num_flows(), 1);
        assert_eq!(d.op_name, "p2p");
    }

    #[test]
    fn flow_ids_are_unique_across_ops() {
        let mut ids = FlowIdGen::new();
        let a = decompose(
            &CollectiveOp::AllReduce {
                participants: nodes(3),
                bytes: 3.0,
            },
            Style::Ring,
            &mut ids,
        );
        let b = decompose(
            &CollectiveOp::AllToAll {
                participants: nodes(3),
                bytes: 1.0,
            },
            Style::Direct,
            &mut ids,
        );
        let mut seen = std::collections::BTreeSet::new();
        for f in a.flows().chain(b.flows()) {
            assert!(seen.insert(f.id), "duplicate id {}", f.id);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 participants")]
    fn single_participant_rejected() {
        let mut ids = FlowIdGen::new();
        let _ = decompose(
            &CollectiveOp::AllGather {
                participants: nodes(1),
                bytes: 1.0,
            },
            Style::Ring,
            &mut ids,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate participants")]
    fn duplicate_participants_rejected() {
        let mut ids = FlowIdGen::new();
        let _ = decompose(
            &CollectiveOp::AllToAll {
                participants: vec![NodeId(0), NodeId(0)],
                bytes: 1.0,
            },
            Style::Direct,
            &mut ids,
        );
    }

    #[test]
    #[should_panic(expected = "PS cannot also be a worker")]
    fn ps_in_workers_rejected() {
        let mut ids = FlowIdGen::new();
        let _ = decompose(
            &CollectiveOp::PsPush {
                workers: nodes(3),
                ps: NodeId(1),
                bytes: 1.0,
            },
            Style::Direct,
            &mut ids,
        );
    }
}
