//! Scoped-thread parallel map and in-place parallel for-each.
//!
//! Replaces `crossbeam::thread::scope` in `core::pipeline`: a fixed set
//! of workers pulls item indices off a shared atomic counter and writes
//! each result into its slot, so the output order matches the input order
//! regardless of which worker computed what. With equal inputs the output
//! is identical at any worker count — the property the pipeline's
//! determinism guarantee rests on.
//!
//! [`parallel_map`]/[`parallel_for_mut`] spawn threads per call, which is
//! fine for coarse one-shot fan-outs.
//!
//! Every fan-out replicates the caller's telemetry job id (see
//! [`crate::telemetry::TelemetryScope`]) into the worker threads, so
//! spans and counters recorded inside a parallel stage stay attributed
//! to the compile job that dispatched it. The id travels with the work
//! (captured at dispatch time), never with the thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering the guard from a poisoned lock. Poisoning here
/// means a sibling worker panicked mid-map; the result slots are still
/// structurally valid, and the panic itself propagates when the thread
/// scope joins.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The worker count to use when the caller has no preference: the
/// machine's available parallelism, falling back to 4 if that cannot be
/// determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Applies `f` to every item of `items`, spreading the work over
/// `workers` scoped threads, and returns the results in input order.
///
/// `f` receives the item index alongside the item. With `workers <= 1`
/// (or a single item) everything runs on the calling thread. A panic in
/// `f` propagates out of the scope.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let job = crate::telemetry::current_job();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _scope = crate::telemetry::TelemetryScope::enter(job);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let result = f(i, &items[i]);
                    *lock_recover(&slots[i]) = Some(result);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("parallel_map left a slot unfilled")
        })
        .collect()
}

/// Applies `f` to every element of `items` in place, spreading contiguous
/// chunks over `workers` scoped threads. `f` receives the element's index
/// alongside the element.
///
/// Each element is visited exactly once with its own index, so the final
/// contents of `items` are identical at any worker count — chunking only
/// decides which thread does the writing. With `workers <= 1` (or a single
/// item) everything runs on the calling thread. A panic in `f` propagates
/// out of the scope.
pub fn parallel_for_mut<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = items.len();
    let workers = workers.max(1).min(len.max(1));
    if workers <= 1 {
        for (i, t) in items.iter_mut().enumerate() {
            f(i, t);
        }
        return;
    }
    let chunk = len.div_ceil(workers);
    let job = crate::telemetry::current_job();
    std::thread::scope(|scope| {
        for (c, chunk_items) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let _scope = crate::telemetry::TelemetryScope::enter(job);
                for (off, t) in chunk_items.iter_mut().enumerate() {
                    f(c * chunk + off, t);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 4, |i, &x| {
            assert_eq!(i, x);
            x * x
        });
        let expected: Vec<usize> = (0..100).map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn single_worker_matches_many_workers() {
        let items: Vec<u64> = (0..57).collect();
        let seq = parallel_map(&items, 1, |_, &x| x.wrapping_mul(0x9E37_79B9).rotate_left(13));
        let par = parallel_map(&items, 8, |_, &x| x.wrapping_mul(0x9E37_79B9).rotate_left(13));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        let out = parallel_map(&items, 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = vec![1, 2, 3];
        let out = parallel_map(&items, 64, |_, &x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn every_item_visited_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let visits: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..200).collect();
        parallel_map(&items, 6, |i, _| {
            visits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, v) in visits.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), 1, "item {i} visited wrong count");
        }
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn for_mut_visits_every_index_once() {
        let mut items = vec![0usize; 137];
        parallel_for_mut(&mut items, 5, |i, slot| *slot = i * 3 + 1);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i * 3 + 1);
        }
    }

    #[test]
    fn for_mut_worker_count_does_not_change_result() {
        let mix = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(11);
        let mut seq = vec![0u64; 64];
        parallel_for_mut(&mut seq, 1, |i, slot| *slot = mix(i));
        for w in [2, 3, 8, 64] {
            let mut par = vec![0u64; 64];
            parallel_for_mut(&mut par, w, |i, slot| *slot = mix(i));
            assert_eq!(seq, par, "workers = {w}");
        }
    }

    #[test]
    fn for_mut_empty_and_tiny_inputs() {
        let mut empty: Vec<u8> = Vec::new();
        parallel_for_mut(&mut empty, 4, |_, _| unreachable!());
        let mut one = vec![7u8];
        parallel_for_mut(&mut one, 9, |i, v| *v += i as u8 + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn workers_inherit_dispatchers_job_scope() {
        use crate::telemetry::{current_job, TelemetryScope};
        let _scope = TelemetryScope::enter(42);
        let items: Vec<u8> = vec![0; 32];
        let seen = parallel_map(&items, 4, |_, _| current_job());
        assert!(seen.iter().all(|&j| j == 42), "parallel_map lost the job id");
        let mut slots = vec![0u64; 32];
        parallel_for_mut(&mut slots, 4, |_, s| *s = current_job());
        assert!(slots.iter().all(|&j| j == 42), "parallel_for_mut lost the job id");
        // The id live at dispatch time wins, not the one a thread last saw.
        let _inner = TelemetryScope::enter(77);
        let nested = parallel_map(&items, 4, |_, _| current_job());
        assert!(
            nested.iter().all(|&j| j == 77),
            "parallel_map lost the dispatch-time job id: {nested:?}"
        );
    }
}
