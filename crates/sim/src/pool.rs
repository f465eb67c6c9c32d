//! The workspace's one worker pool: work-stealing over indexed jobs.
//!
//! Workers *pull*: a shared atomic index hands out the next unclaimed
//! job, so threads stay busy until the whole batch drains and the
//! longest job bounds the makespan (a static `chunks_mut` split would
//! idle every thread in a slow job's chunk). Sweep members, batch
//! runner scenarios, and the shards of one sharded run all execute
//! here.
//!
//! Determinism: each job is an independent single-threaded
//! computation and results land in their job's slot, so the returned
//! vector — and anything derived from it, journals and merged shard
//! streams included — is bit-identical for any thread count. Only
//! wall-clock completion *order* varies, and nothing observable depends
//! on it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the CPU count, falling
/// back to 4 when it cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Runs `run(0..count)` across `threads` pull-workers and returns the
/// results in index order.
///
/// `run` must be safe to call concurrently for distinct indexes; each
/// index is claimed exactly once. A panicking job propagates out of
/// the scope (callers wanting isolation wrap `run` in `catch_unwind`,
/// as the experiment crate's batch runner does).
pub fn run_indexed<T, F>(count: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, count);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let value = run(i);
                let mut out = slots.lock().expect("no panic holds the slot lock");
                out[i] = Some(value);
            });
        }
    });
    slots
        .into_inner()
        .expect("worker scope joined without poisoning")
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_slot_ordered_for_any_thread_count() {
        for threads in [1, 2, 8, 64] {
            let out = run_indexed(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = run_indexed(100, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_and_oversubscribed_batches_work() {
        assert_eq!(run_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(2, 16, |i| i), vec![0, 1]);
    }

    #[test]
    fn uneven_member_costs_do_not_stall_the_pool() {
        // One slow member plus many fast ones: with pull scheduling the
        // fast members all finish even though they out-number the
        // threads; a static split would serialize a whole chunk behind
        // the slow one. (Correctness check — the perf claim is the
        // scheduling policy itself.)
        let out = run_indexed(32, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }
}
