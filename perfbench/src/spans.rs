//! Wall-time attribution for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer's public functions; nothing inside the crates is
//! instrumented. Serial code on the caller thread adds wall time to a
//! layer directly, and so does a span around a library call that fans
//! out internally. When the benchmark's own closures run on the worker
//! pool (an `iter_pipeline` or `par_map` whose stages call several
//! layers), the call runs as a *parallel phase*: the workers add their
//! busy time per layer, and when the phase ends its wall time is split
//! among those layers in proportion to their busy time. Spans never
//! nest, so the attributed seconds can never exceed the wall time they
//! came from; what no span covers is the run's unattributed time.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("span recorder poisoned by a panicking worker")
}

/// Layer time and work counters of one traced run.
pub struct Spans {
    /// Attributed wall seconds per layer span.
    seconds: Mutex<BTreeMap<&'static str, f64>>,
    /// Busy seconds per layer inside the open parallel phase, if any.
    phase: Mutex<Option<BTreeMap<&'static str, f64>>>,
    /// Work counters (frames, bytes, cycles, …).
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            seconds: Mutex::new(BTreeMap::new()),
            phase: Mutex::new(None),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f`, charging its duration to `layer`.
    pub fn span<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_seconds(layer, start.elapsed().as_secs_f64());
        out
    }

    /// Charges `secs` to `layer` (inside a parallel phase: busy time
    /// to be apportioned when the phase closes).
    pub fn add_seconds(&self, layer: &'static str, secs: f64) {
        let mut phase = lock(&self.phase);
        match phase.as_mut() {
            Some(busy) => *busy.entry(layer).or_insert(0.0) += secs,
            None => *lock(&self.seconds).entry(layer).or_insert(0.0) += secs,
        }
    }

    /// Runs `f` as a parallel phase (see the module docs). A phase
    /// opened inside another one just runs `f`: its spans already feed
    /// the enclosing phase.
    pub fn parallel<T>(&self, f: impl FnOnce() -> T) -> T {
        {
            let mut phase = lock(&self.phase);
            if phase.is_some() {
                drop(phase);
                return f();
            }
            *phase = Some(BTreeMap::new());
        }
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        let busy = lock(&self.phase).take().expect("phase opened above");
        let busy_total: f64 = busy.values().sum();
        if busy_total > 0.0 {
            let mut seconds = lock(&self.seconds);
            for (layer, secs) in busy {
                *seconds.entry(layer).or_insert(0.0) += wall * secs / busy_total;
            }
        }
        out
    }

    /// Adds `n` to the work counter `name`.
    pub fn count(&self, name: &'static str, n: f64) {
        *lock(&self.counts).entry(name).or_insert(0.0) += n;
    }

    /// Attributed seconds of one layer span (0 if it never ran).
    pub fn seconds(&self, layer: &str) -> f64 {
        lock(&self.seconds).get(layer).copied().unwrap_or(0.0)
    }

    /// Sum of every attributed span.
    pub fn attributed(&self) -> f64 {
        lock(&self.seconds).values().sum()
    }

    /// Value of one work counter (0 if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        lock(&self.counts).get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_spans_add_wall_time() {
        let spans = Spans::new();
        spans.add_seconds("a", 1.0);
        spans.add_seconds("a", 0.5);
        spans.add_seconds("b", 2.0);
        assert_eq!(spans.seconds("a"), 1.5);
        assert_eq!(spans.attributed(), 3.5);
    }

    #[test]
    fn a_phase_never_attributes_more_than_its_wall_time() {
        let spans = Spans::new();
        let start = Instant::now();
        spans.parallel(|| {
            // Far more busy time than the phase lasted: it is scaled
            // down to the wall time, keeping the layers' ratio.
            spans.add_seconds("render", 30.0);
            spans.add_seconds("timing", 10.0);
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let wall = start.elapsed().as_secs_f64();
        let total = spans.seconds("render") + spans.seconds("timing");
        assert!(total <= wall + 1e-12, "{total} > {wall}");
        assert!(total > 0.0);
        assert!((spans.seconds("render") / spans.seconds("timing") - 3.0).abs() < 1e-9);
    }

    #[test]
    fn nested_phases_feed_the_outer_one() {
        let spans = Spans::new();
        spans.parallel(|| spans.parallel(|| spans.add_seconds("x", 1e-9)));
        assert!(spans.seconds("x") > 0.0);
    }
}
