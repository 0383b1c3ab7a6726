//! Ordered bounded producer/consumer pipeline.
//!
//! [`ordered_pipeline`] decouples a parallelizable *produce* stage from
//! an order-dependent *consume* stage: producers fan out across the
//! worker pool and run ahead by at most `capacity` items, while the
//! consumer runs **on the caller thread, strictly in index order**.
//! This is the shape of warm-sequence GPU simulation — frame `N + 1`
//! renders (stateless, parallel) while frame `N` runs through the
//! timing model (stateful, sequential) — and of any other
//! stateful-fold-over-parallel-map stage.
//!
//! ## Determinism
//!
//! The consume stage observes items in index order on a single thread,
//! and each `produce(i)` depends only on `i` (the same contract as
//! [`crate::par_map_range`]), so the fold's result is bit-identical to
//! the plain sequential loop at every thread count and capacity.
//!
//! ## Backpressure
//!
//! At most `capacity` produced items are buffered at once: a producer
//! that claims index `i` blocks until `i < consumed + capacity`. A
//! slow consumer therefore bounds memory to `capacity` items plus the
//! (at most one per worker) items currently being produced.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crossbeam::thread::scope;

use crate::{in_pool, thread_count, IN_POOL};

/// Shared pipeline state: a ring of `capacity` slots plus the number of
/// items the consumer has retired.
struct Shared<T> {
    ring: Vec<Option<T>>,
    consumed: usize,
    /// Set when a producer panicked, so the consumer stops waiting and
    /// lets the scope propagate the panic instead of deadlocking.
    failed: bool,
}

/// Re-arms `failed` if a producer unwinds mid-`produce`.
struct FailGuard<'a, T> {
    state: &'a Mutex<Shared<T>>,
    ready: &'a Condvar,
    space: &'a Condvar,
    armed: bool,
}

impl<T> Drop for FailGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut st) = self.state.lock() {
                st.failed = true;
            }
            self.ready.notify_all();
            self.space.notify_all();
        }
    }
}

/// Runs a cleanup closure on drop unless disarmed — used to mark the
/// pipeline failed (waking every blocked stage) when the caller-thread
/// consume stage unwinds, so the scope join can propagate the panic
/// instead of deadlocking.
struct UnwindGuard<F: Fn()> {
    on_unwind: F,
    armed: bool,
}

impl<F: Fn()> Drop for UnwindGuard<F> {
    fn drop(&mut self) {
        if self.armed {
            (self.on_unwind)();
        }
    }
}

/// Runs `produce(0..n)` on the worker pool and feeds the results to
/// `consume(i, item)` on the caller thread in strict index order, with
/// producers running at most `capacity` items ahead of the consumer.
///
/// Falls back to the plain `produce → consume` loop when the pool would
/// not help (one thread, nested inside a pool worker, `capacity == 0`,
/// or `n <= 1`), so it is always safe to call unconditionally.
///
/// Panics in `produce` or `consume` propagate to the caller.
pub fn ordered_pipeline<T, P, C>(n: usize, capacity: usize, produce: P, mut consume: C)
where
    T: Send,
    P: Fn(usize) -> T + Sync,
    C: FnMut(usize, T),
{
    let threads = thread_count().saturating_sub(1).min(n);
    if threads == 0 || in_pool() || capacity == 0 || n <= 1 {
        for i in 0..n {
            let item = produce(i);
            consume(i, item);
        }
        return;
    }
    let state: Mutex<Shared<T>> = Mutex::new(Shared {
        ring: (0..capacity).map(|_| None).collect(),
        consumed: 0,
        failed: false,
    });
    let space = Condvar::new();
    let ready = Condvar::new();
    let next = AtomicUsize::new(0);
    scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Backpressure: wait until index `i` fits in the
                    // window the consumer has opened.
                    {
                        let mut st = state.lock().expect("pipeline state");
                        while i >= st.consumed + capacity && !st.failed {
                            st = space.wait(st).expect("pipeline state");
                        }
                        if st.failed {
                            break;
                        }
                    }
                    let mut guard = FailGuard {
                        state: &state,
                        ready: &ready,
                        space: &space,
                        armed: true,
                    };
                    let item = produce(i);
                    guard.armed = false;
                    drop(guard);
                    let mut st = state.lock().expect("pipeline state");
                    let slot = i % capacity;
                    debug_assert!(st.ring[slot].is_none(), "slot reused before consumption");
                    st.ring[slot] = Some(item);
                    // The consumer only ever waits for one specific
                    // slot, so notify_all is one wakeup.
                    ready.notify_all();
                }
            });
        }
        // Consumer: the caller thread folds items in index order. The
        // guard marks the pipeline failed if `consume` unwinds, so
        // producers blocked on the window wake up and exit.
        let mut guard = UnwindGuard {
            on_unwind: || {
                if let Ok(mut st) = state.lock() {
                    st.failed = true;
                }
                space.notify_all();
                ready.notify_all();
            },
            armed: true,
        };
        for i in 0..n {
            let item = {
                let slot = i % capacity;
                let mut st = state.lock().expect("pipeline state");
                while st.ring[slot].is_none() && !st.failed {
                    st = ready.wait(st).expect("pipeline state");
                }
                if st.failed {
                    // A producer panicked; stop consuming and let the
                    // scope join propagate its panic.
                    break;
                }
                let item = st.ring[slot].take().expect("slot filled");
                st.consumed = i + 1;
                space.notify_all();
                item
            };
            consume(i, item);
        }
        guard.armed = false;
    });
}

/// Input-side state of [`iter_pipeline`]: items pulled off the source
/// iterator, tagged with their sequence index, waiting for a map
/// worker.
struct SourceQueue<T> {
    queue: std::collections::VecDeque<(usize, T)>,
    /// Set when the source iterator is exhausted.
    done: bool,
    failed: bool,
}

/// Output-side state of [`iter_pipeline`]: the ordered ring plus the
/// total item count, known only once the source is exhausted.
struct StreamShared<U> {
    ring: Vec<Option<U>>,
    consumed: usize,
    total: Option<usize>,
    failed: bool,
}

/// Three-stage streaming pipeline over a sequential source of unknown
/// length: a dedicated thread pulls `source` in order, the worker pool
/// maps items concurrently, and `consume(i, mapped)` runs on the caller
/// thread in strict index order.
///
/// This is the decode → render → timing shape of streaming trace
/// replay: the source stage decodes frame `N + 2` off the trace reader
/// while workers render frame `N + 1` and the caller's stateful timing
/// model consumes frame `N`. It generalizes [`ordered_pipeline`] to
/// producers that cannot be indexed randomly (an iterator is the only
/// way to observe a streaming decoder).
///
/// ## Determinism
///
/// Items are tagged with their pull order, `map(i, item)` must depend
/// only on its arguments (plus shared read-only captures), and the
/// consumer observes results in index order on one thread — so the
/// fold is bit-identical to the plain sequential
/// `for` loop at every thread count and capacity.
///
/// ## Backpressure
///
/// At most `capacity` un-mapped items and `capacity` mapped-but-
/// unconsumed items are buffered; the source blocks when its queue is
/// full and a worker blocks until its index fits the consumer's
/// window. Peak memory is therefore bounded by `2 × capacity` items
/// (plus one per worker in flight and one held by the blocked source)
/// regardless of stream length.
///
/// Falls back to the inline sequential loop when the pool would not
/// help (one thread, nested inside a pool worker, or `capacity == 0`).
/// Panics in `source`, `map` or `consume` propagate to the caller.
pub fn iter_pipeline<I, T, U, M, C>(source: I, capacity: usize, map: M, mut consume: C)
where
    I: Iterator<Item = T> + Send,
    T: Send,
    U: Send,
    M: Fn(usize, T) -> U + Sync,
    C: FnMut(usize, U),
{
    let workers = thread_count().saturating_sub(1);
    if workers == 0 || in_pool() || capacity == 0 {
        for (i, item) in source.enumerate() {
            let mapped = map(i, item);
            consume(i, mapped);
        }
        return;
    }
    let input: Mutex<SourceQueue<T>> = Mutex::new(SourceQueue {
        queue: std::collections::VecDeque::with_capacity(capacity),
        done: false,
        failed: false,
    });
    let in_ready = Condvar::new(); // workers wait for items
    let in_space = Condvar::new(); // source waits for queue space
    let output: Mutex<StreamShared<U>> = Mutex::new(StreamShared {
        ring: (0..capacity).map(|_| None).collect(),
        consumed: 0,
        total: None,
        failed: false,
    });
    let out_ready = Condvar::new(); // consumer waits for its slot
    let out_space = Condvar::new(); // workers wait for the window
                                    // Marks both sides failed and wakes every waiter, so a panic in any
                                    // stage unblocks the others and the scope join can propagate it.
    let fail_all = || {
        if let Ok(mut st) = input.lock() {
            st.failed = true;
        }
        if let Ok(mut st) = output.lock() {
            st.failed = true;
        }
        in_ready.notify_all();
        in_space.notify_all();
        out_ready.notify_all();
        out_space.notify_all();
    };
    scope(|s| {
        // Source stage: one thread pulls the iterator in order. Runs a
        // fail-guard so an iterator panic releases the other stages.
        s.spawn(|| {
            IN_POOL.with(|flag| flag.set(true));
            let mut n = 0usize;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for item in source {
                    let mut st = input.lock().expect("stream input state");
                    while st.queue.len() >= capacity && !st.failed {
                        st = in_space.wait(st).expect("stream input state");
                    }
                    if st.failed {
                        return;
                    }
                    st.queue.push_back((n, item));
                    n += 1;
                    drop(st);
                    in_ready.notify_all();
                }
            }));
            match result {
                Ok(()) => {
                    input.lock().expect("stream input state").done = true;
                    output.lock().expect("stream output state").total = Some(n);
                    in_ready.notify_all();
                    out_ready.notify_all();
                }
                Err(payload) => {
                    fail_all();
                    std::panic::resume_unwind(payload);
                }
            }
        });
        // Map stage: pool workers pull tagged items and fill the ring.
        for _ in 0..workers {
            s.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let (i, item) = {
                        let mut st = input.lock().expect("stream input state");
                        loop {
                            if st.failed {
                                return;
                            }
                            if let Some(pair) = st.queue.pop_front() {
                                break pair;
                            }
                            if st.done {
                                return;
                            }
                            st = in_ready.wait(st).expect("stream input state");
                        }
                    };
                    in_space.notify_all();
                    // Backpressure: wait until index `i` fits in the
                    // window the consumer has opened.
                    {
                        let mut st = output.lock().expect("stream output state");
                        while i >= st.consumed + capacity && !st.failed {
                            st = out_space.wait(st).expect("stream output state");
                        }
                        if st.failed {
                            return;
                        }
                    }
                    let mapped =
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            map(i, item)
                        })) {
                            Ok(mapped) => mapped,
                            Err(payload) => {
                                fail_all();
                                std::panic::resume_unwind(payload);
                            }
                        };
                    let mut st = output.lock().expect("stream output state");
                    let slot = i % capacity;
                    debug_assert!(st.ring[slot].is_none(), "slot reused before consumption");
                    st.ring[slot] = Some(mapped);
                    drop(st);
                    out_ready.notify_all();
                }
            });
        }
        // Consume stage: the caller thread folds in index order. The
        // guard marks both sides failed if `consume` unwinds, so the
        // source and workers wake up and exit instead of deadlocking
        // the scope join.
        let mut guard = UnwindGuard {
            on_unwind: &fail_all,
            armed: true,
        };
        let mut i = 0usize;
        loop {
            let item = {
                let slot = i % capacity;
                let mut st = output.lock().expect("stream output state");
                loop {
                    if st.failed || st.total.is_some_and(|t| i >= t) {
                        break None;
                    }
                    if st.ring[slot].is_some() {
                        let item = st.ring[slot].take().expect("slot filled");
                        st.consumed = i + 1;
                        break Some(item);
                    }
                    st = out_ready.wait(st).expect("stream output state");
                }
            };
            let Some(item) = item else {
                break;
            };
            out_space.notify_all();
            consume(i, item);
            i += 1;
        }
        guard.armed = false;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_threads;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that touch the global thread override (shared
    /// with the lib.rs tests via an independent lock — the override is
    /// process-global, so tests here also take their own guard).
    static OVERRIDE_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    fn collect(n: usize, capacity: usize) -> Vec<u64> {
        let mut out = Vec::new();
        ordered_pipeline(
            n,
            capacity,
            |i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7,
            |_, v| out.push(v),
        );
        out
    }

    #[test]
    fn consumes_in_index_order_at_any_thread_count() {
        let _guard = OVERRIDE_LOCK.lock();
        let baseline = {
            set_threads(1);
            collect(257, 4)
        };
        for threads in [2, 3, 8] {
            set_threads(threads);
            assert_eq!(collect(257, 4), baseline, "threads = {threads}");
        }
        set_threads(0);
    }

    #[test]
    fn capacity_bounds_buffered_items() {
        let _guard = OVERRIDE_LOCK.lock();
        set_threads(8);
        let produced = AtomicU64::new(0);
        let mut consumed = 0u64;
        let capacity = 3u64;
        let threads = 7u64; // workers = thread_count() - 1
        ordered_pipeline(
            200,
            capacity as usize,
            |i| {
                produced.fetch_add(1, Ordering::SeqCst);
                i
            },
            |_, _| {
                consumed += 1;
                let in_flight = produced.load(Ordering::SeqCst) - consumed;
                // Buffered items are capped at `capacity`; up to one
                // more per worker may be mid-produce.
                assert!(
                    in_flight <= capacity + threads,
                    "{in_flight} items outstanding"
                );
            },
        );
        set_threads(0);
        assert_eq!(consumed, 200);
    }

    #[test]
    fn stateful_fold_matches_sequential() {
        let _guard = OVERRIDE_LOCK.lock();
        // A deliberately order-sensitive fold: the warm-GPU shape.
        let fold = |acc: u64, i: usize, v: u64| acc.rotate_left((i % 13) as u32) ^ v;
        set_threads(1);
        let mut expect = 0u64;
        ordered_pipeline(
            500,
            8,
            |i| i as u64 * 31,
            |i, v| expect = fold(expect, i, v),
        );
        set_threads(6);
        let mut got = 0u64;
        ordered_pipeline(500, 8, |i| i as u64 * 31, |i, v| got = fold(got, i, v));
        set_threads(0);
        assert_eq!(got, expect);
    }

    #[test]
    fn tiny_inputs_and_capacities_work() {
        let _guard = OVERRIDE_LOCK.lock();
        set_threads(4);
        assert_eq!(collect(0, 4), Vec::<u64>::new());
        assert_eq!(collect(1, 4).len(), 1);
        assert_eq!(collect(64, 1).len(), 64); // capacity 1: lock-step
        set_threads(0);
    }

    #[test]
    fn iter_pipeline_consumes_in_order_at_any_thread_count() {
        let _guard = OVERRIDE_LOCK.lock();
        let run = |threads: usize| {
            set_threads(threads);
            // Order-sensitive fold over a mapped stream: the streamed
            // decode -> render -> timing shape.
            let mut folded = 0u64;
            let mut order = Vec::new();
            iter_pipeline(
                (0..257u64).map(|i| i * 3),
                4,
                |i, v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64,
                |i, v| {
                    folded = folded.rotate_left((i % 11) as u32) ^ v;
                    order.push(i);
                },
            );
            set_threads(0);
            (folded, order)
        };
        let (baseline, order) = run(1);
        assert_eq!(order, (0..257).collect::<Vec<_>>());
        for threads in [2, 3, 8] {
            assert_eq!(run(threads).0, baseline, "threads = {threads}");
        }
    }

    #[test]
    fn iter_pipeline_bounds_buffered_items() {
        let _guard = OVERRIDE_LOCK.lock();
        set_threads(8);
        let pulled = AtomicU64::new(0);
        let mut consumed = 0u64;
        let capacity = 3u64;
        let workers = 7u64; // thread_count() - 1 map workers
        iter_pipeline(
            (0..200u64).inspect(|_| {
                pulled.fetch_add(1, Ordering::SeqCst);
            }),
            capacity as usize,
            |_, v| v,
            |_, _| {
                consumed += 1;
                let in_flight = pulled.load(Ordering::SeqCst) - consumed;
                // Source queue + ordered ring are each capped at
                // `capacity`; up to one more item per worker may be
                // mid-map, and the source holds one pulled item while
                // it waits for queue space.
                assert!(
                    in_flight <= 2 * capacity + workers + 1,
                    "{in_flight} items outstanding"
                );
            },
        );
        set_threads(0);
        assert_eq!(consumed, 200);
    }

    #[test]
    fn iter_pipeline_handles_empty_and_tiny_streams() {
        let _guard = OVERRIDE_LOCK.lock();
        set_threads(4);
        let mut calls = 0;
        iter_pipeline(std::iter::empty::<u32>(), 4, |_, v| v, |_, _| calls += 1);
        assert_eq!(calls, 0);
        let mut seen = Vec::new();
        iter_pipeline(std::iter::once(41u32), 4, |_, v| v + 1, |_, v| seen.push(v));
        assert_eq!(seen, vec![42]);
        // Capacity 1: full lock-step, still complete and ordered.
        let mut n = 0usize;
        iter_pipeline(
            0..64usize,
            1,
            |_, v| v,
            |i, v| {
                assert_eq!(i, v);
                n += 1;
            },
        );
        assert_eq!(n, 64);
        set_threads(0);
    }

    #[test]
    fn iter_pipeline_nested_inside_pool_runs_inline() {
        let _guard = OVERRIDE_LOCK.lock();
        set_threads(4);
        let out = crate::par_map_range(4, |i| {
            let mut inner = Vec::new();
            iter_pipeline(0..5usize, 2, |_, j| i * 10 + j, |_, v| inner.push(v));
            inner
        });
        set_threads(0);
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_inside_pool_runs_inline() {
        let _guard = OVERRIDE_LOCK.lock();
        set_threads(4);
        let out = crate::par_map_range(4, |i| {
            let mut inner = Vec::new();
            ordered_pipeline(5, 2, |j| i * 10 + j, |_, v| inner.push(v));
            inner
        });
        set_threads(0);
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }
}
