//! What the set-up path copies without touching the heap: cloning an
//! EchelonFlow — a pointer copy of its shared shape plus its per-copy
//! fields, whatever its arrangement — and building a computation
//! unit's label from a static tag.
//!
//! A counting global allocator tallies allocation calls per thread, so
//! the test harness's other threads cannot disturb a count.

use echelonflow::core::arrangement::ArrangementFn;
use echelonflow::core::echelon::{EchelonFlow, FlowRef};
use echelonflow::core::{EchelonId, JobId};
use echelonflow::paradigms::config::PpConfig;
use echelonflow::paradigms::dag::CompLabel;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::pp::build_pp_gpipe;
use echelonflow::simnet::ids::{FlowId, NodeId};
use echelonflow::simnet::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// The system allocator, counting allocation calls on the calling
/// thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; its calls are not
    // the ones measured.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each upholds `GlobalAlloc`'s contract exactly as `System` does; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes on this thread, with its result kept
/// alive until the count is read.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = black_box(f());
    let n = ALLOCS.with(Cell::get) - before;
    drop(out);
    n
}

fn fr(id: u64, src: u32, dst: u32) -> FlowRef {
    FlowRef::new(FlowId(id), NodeId(src), NodeId(dst), 1.0)
}

#[test]
fn cloning_an_echelon_flow_does_not_allocate() {
    let offsets = EchelonFlow::new(
        EchelonId(0),
        JobId(0),
        vec![
            vec![fr(0, 0, 1), fr(1, 1, 0)],
            vec![fr(2, 0, 2)],
            vec![fr(3, 2, 1)],
        ],
        ArrangementFn::Offsets(vec![0.0, 0.5, 2.0]),
    )
    .with_weight(2.0);
    let dag = build_pp_gpipe(JobId(1), &PpConfig::fig2(), &mut IdAlloc::new());
    let mut flows: Vec<&EchelonFlow> = vec![&offsets];
    flows.extend(&dag.echelons);
    for h in flows {
        assert_eq!(
            allocations(|| h.clone()),
            0,
            "cloning {:?}",
            h.arrangement()
        );
        // A clone binds its own reference and keeps the shape.
        let mut bound = h.clone();
        bound.bind_reference(SimTime::new(1.0));
        assert_eq!(h.reference(), None);
        assert_eq!(bound.num_flows(), h.num_flows());
        assert_eq!(bound.weight(), h.weight());
        assert_eq!(allocations(|| bound.clone()), 0, "cloning a bound copy");
    }
    // A job's EchelonFlows copy as one allocation: the vector's buffer.
    assert_eq!(allocations(|| dag.echelons.clone()), 1);
}

/// Builds one label.
type MakeLabel = fn() -> CompLabel;

#[test]
fn building_a_label_does_not_allocate() {
    let labels: [(MakeLabel, &str); 5] = [
        (|| CompLabel::from("F").index(3), "F3"),
        (|| CompLabel::from("B").index(2).iteration(0), "B2(i0)"),
        (|| CompLabel::from("U").iteration(1), "U(i1)"),
        (|| CompLabel::from("ARRIVAL"), "ARRIVAL"),
        (|| CompLabel::from("F").iteration(12), "F(i12)"),
    ];
    for (make, text) in labels {
        assert_eq!(allocations(make), 0, "building {text}");
        assert_eq!(make().to_string(), text);
    }
}
