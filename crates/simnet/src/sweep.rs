//! Deterministic parallel sweep engine.
//!
//! Scenario/seed/scheduler combinations are shared-nothing simulations:
//! each task owns its workload (seeded from its own `detrand` stream) and
//! writes only its own result. [`sweep_with`] fans such tasks out across
//! `threads` OS threads and merges results **in task-index order**, so the
//! output is byte-identical regardless of thread count — the same vector
//! the serial loop would produce. The determinism contract (DESIGN.md §8):
//!
//! 1. tasks may not share mutable state (enforced by `Fn(&T) + Sync`);
//! 2. results land in an index-addressed slot, never a completion-order
//!    queue;
//! 3. `threads <= 1` takes the plain serial loop, which is also the
//!    reference path the differential suite compares against.
//!
//! The worker-thread count honours `RAYON_NUM_THREADS` (the conventional knob, kept so
//! sweeps tune like a rayon pool would) before falling back to
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count for [`sweep`]: `RAYON_NUM_THREADS` if set to a
/// positive integer, else the machine's available parallelism.
pub fn configured_threads() -> usize {
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Maps `f` over `items` using [`configured_threads`] workers; results in
/// task-index order. See [`sweep_with`].
pub fn sweep<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    sweep_with(configured_threads(), items, f)
}

/// Maps `f(index, item)` over `items` on up to `threads` worker threads,
/// returning results in task-index order — byte-identical to the serial
/// `items.iter().enumerate().map(f)` regardless of thread count or
/// scheduling.
///
/// Tasks are claimed from a shared atomic counter (dynamic load balance;
/// claim order does not influence output), and each result is written to
/// the slot of its own index. A panicking task propagates the panic to the
/// caller once the scope joins.
///
/// The calling thread participates in the claim loop alongside
/// `threads - 1` spawned workers, so an effective thread count of 1 runs
/// the whole sweep inline — no thread is ever spawned just to be watched —
/// and `threads` names the total worker count, not the spawn count.
pub fn sweep_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return sweep_serial(items, f);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        let out = f(i, &items[i]);
        // A slot's lock is held only for this store, which cannot panic,
        // so no lock is ever poisoned (here or below).
        *slots[i].lock().expect("sweep slot poisoned") = Some(out);
    };
    std::thread::scope(|scope| {
        for _ in 0..threads - 1 {
            scope.spawn(work);
        }
        work();
    });
    // Unreachable from the public API: every index below `items.len()` is
    // claimed by exactly one worker, which stores its result, and a task
    // that panics re-raises the panic when the scope joins, before this.
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("sweep task skipped its slot")
        })
        .collect()
}

fn sweep_serial<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    F: Fn(usize, &T) -> U,
{
    items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_task_index_order() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 3, 8, 100] {
            let out = sweep_with(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            let want: Vec<usize> = items.iter().map(|&x| x * 10).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(sweep_with(8, &none, |_, &x| x).is_empty());
        assert_eq!(sweep_with(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn env_knob_is_read() {
        // Exercise the RAYON_NUM_THREADS parse paths; other tests use the
        // explicit-threads API, so mutating the var here is safe.
        std::env::set_var("RAYON_NUM_THREADS", "3");
        assert_eq!(configured_threads(), 3);
        std::env::set_var("RAYON_NUM_THREADS", "not-a-number");
        assert!(configured_threads() >= 1);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let seeds: Vec<u64> = (0..17).collect();
        let task = |_: usize, &seed: &u64| -> u64 {
            // A little deterministic float work, compared by bits.
            let mut acc = seed as f64;
            for k in 1..100 {
                acc += (seed as f64) / (k as f64);
            }
            acc.to_bits()
        };
        let serial = sweep_with(1, &seeds, task);
        for threads in [2, 4, 8] {
            assert_eq!(sweep_with(threads, &seeds, task), serial);
        }
    }
}
