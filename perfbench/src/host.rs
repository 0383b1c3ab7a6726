//! The host's speed, measured with a fixed reference workload.
//!
//! The benchmark shares a few cores of a host whose speed drifts by
//! more than 2× over minutes, far more than a change to the program
//! moves it. A [`Clock`] brackets every timed unit of work with probes:
//! the same fixed work (random read-modify-writes over a buffer per
//! thread, on as many threads as the flows use), whose time depends
//! only on how fast the host is at that moment. It reports each unit's
//! time at the reference speed [`REFERENCE_S`] as well as as timed, so
//! that runs taken minutes apart compare. The probe is this package's
//! own code: a change to the simulator cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Probe time of the reference host, about the probe's time on an
/// otherwise idle 2-core x86-64 VM: a unit's time is scaled by
/// `REFERENCE_S` over the probes around it.
pub const REFERENCE_S: f64 = 0.005;

/// Words of each thread's buffer (2 MiB).
const WORDS: usize = 1 << 18;
/// Read-modify-writes per thread and probe.
const STEPS: u64 = 1 << 21;

/// The host's time for the reference work now: one probe on `threads`
/// threads at once, each timing its own share (so a thread that starts
/// late does not count), averaged.
pub fn host_seconds(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads)
            .map(|t| s.spawn(move || work(t as u64)))
            .collect();
        work(0)
            + others
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .sum::<f64>()
    });
    total / threads.max(1) as f64
}

/// A reading of the host's time for the reference work: the median of
/// `probes` probes on `threads` threads.
pub fn reading(threads: usize, probes: usize) -> f64 {
    let mut times: Vec<f64> = (0..probes.max(1)).map(|_| host_seconds(threads)).collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The reference work, timed.
fn work(salt: u64) -> f64 {
    let start = Instant::now();
    let mut buf = vec![0u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ salt;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (WORDS - 1);
        buf[j] = buf[j].wrapping_mul(31).wrapping_add(x ^ i);
    }
    black_box(&buf);
    start.elapsed().as_secs_f64()
}

/// Times successive units of work. A probing clock takes a
/// [`reading`] ahead of the first unit and after every unit, and scales
/// each unit by the mean of the two readings around it.
#[derive(Debug)]
pub struct Clock {
    threads: Option<usize>,
    probes: usize,
    last_reading: Option<f64>,
}

impl Clock {
    /// A clock whose readings take `probes` probes on `threads`
    /// threads, or (`threads` = `None`) one that only times.
    pub fn new(threads: Option<usize>, probes: usize) -> Clock {
        Clock {
            threads,
            probes,
            last_reading: None,
        }
    }

    /// Runs `f`: its output, its seconds at the reference speed, and
    /// its seconds as timed (the same when the clock does not probe).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = match (self.threads, self.last_reading.take()) {
            (Some(_), Some(last)) => Some(last),
            (Some(t), None) => Some(reading(t, self.probes)),
            (None, _) => None,
        };
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        let Some(before) = before else {
            return (out, secs, secs);
        };
        let after = reading(self.threads.unwrap_or(1), self.probes);
        self.last_reading = Some(after);
        (out, secs * 2.0 * REFERENCE_S / (before + after), secs)
    }
}
