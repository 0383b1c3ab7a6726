//! Inter-GPU interconnect timing model.
//!
//! A [`Link`] is one point-to-point lane of the multi-GPU rig: the path
//! a rendered frame (alternate-frame dispatch) or tile region
//! (split-frame dispatch) takes from a worker GPU to the display GPU.
//! Like the DRAM bus, a link has a fixed propagation latency and a
//! serial occupancy per 64-byte line, and successive transfers queue on
//! it: a transfer issued while the lane is still draining starts when
//! the previous one releases the wire.
//!
//! # The closed-form recurrence
//!
//! Multi-line transfers are serviced by [`Link::transfer_run`] in the
//! style of [`crate::Dram::access_run`]: the first line is charged with
//! the full issue derivation (`start = max(now, free_at)`), and the
//! remaining `count - 1` lines — which by construction find the lane
//! busy with their own predecessor — collapse to one multiplication
//! instead of a per-line loop. The scalar loop is replayed bit-for-bit
//! (pinned by the tests below): occupancy accumulates on `free_at`,
//! stats accumulate per line, and the propagation latency is paid once
//! per line but only the last line's arrival is observable.

/// Static configuration of one interconnect link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Propagation latency in GPU cycles (first-byte-out to
    /// first-byte-in; a PCIe-class hop is a few hundred core cycles).
    pub latency: u64,
    /// Serial bandwidth in bytes per GPU cycle.
    pub bytes_per_cycle: u64,
    /// Transfer granularity in bytes (one cache line per burst).
    pub line_size: u64,
}

impl LinkConfig {
    /// A PCIe-3-x8-class lane relative to the Table I machine: twice
    /// the DRAM bus bandwidth, 200-cycle propagation, 64-byte bursts.
    pub const fn baseline() -> Self {
        Self {
            latency: 200,
            bytes_per_cycle: 8,
            line_size: 64,
        }
    }

    /// Lane cycles needed to move one line.
    pub const fn transfer_cycles(&self) -> u64 {
        self.line_size / self.bytes_per_cycle
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Traffic counters of one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Line-sized bursts moved.
    pub transfers: u64,
    /// Payload bytes moved (before line-size rounding).
    pub bytes: u64,
    /// Cycles the lane was occupied by bursts.
    pub busy_cycles: u64,
}

impl LinkStats {
    /// Accumulates another stats block.
    pub fn merge(&mut self, other: &LinkStats) {
        self.transfers += other.transfers;
        self.bytes += other.bytes;
        self.busy_cycles += other.busy_cycles;
    }
}

/// Result of one (possibly multi-line) link transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTransfer {
    /// Cycle at which the last byte has arrived at the far end.
    pub ready_at: u64,
    /// End-to-end latency observed by the issuer (`ready_at - now`).
    pub latency: u64,
}

/// One point-to-point interconnect lane with queueing state.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    transfer: u64,
    /// Cycle at which the lane finishes its last accepted burst.
    free_at: u64,
    stats: LinkStats,
}

impl Link {
    /// Builds an idle link.
    pub fn new(config: LinkConfig) -> Self {
        Self {
            transfer: config.transfer_cycles(),
            free_at: 0,
            stats: LinkStats::default(),
            config,
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Resets counters; queueing state persists.
    pub fn reset_stats(&mut self) {
        self.stats = LinkStats::default();
    }

    /// Moves one line across the lane, starting no earlier than `now`.
    #[inline]
    pub fn transfer(&mut self, now: u64) -> LinkTransfer {
        let start = now.max(self.free_at);
        self.free_at = start + self.transfer;
        self.stats.transfers += 1;
        self.stats.busy_cycles += self.transfer;
        let ready_at = self.free_at + self.config.latency;
        LinkTransfer {
            ready_at,
            latency: ready_at - now,
        }
    }

    /// Moves `count` back-to-back lines issued at cycle `now`, replaying
    /// the scalar [`Self::transfer`] loop bit-for-bit.
    ///
    /// After the first line the lane is busy with this run's own
    /// predecessor, so lines `2..=count` start exactly at `free_at`;
    /// their serialization collapses to `count - 1` occupancy terms
    /// added in one step. Returns the **last** line's result (the cycle
    /// the whole payload has landed).
    pub fn transfer_run(&mut self, now: u64, count: u64) -> LinkTransfer {
        debug_assert!(count >= 1, "a run needs at least one transfer");
        let start = now.max(self.free_at);
        self.free_at = start + count * self.transfer;
        self.stats.transfers += count;
        self.stats.busy_cycles += count * self.transfer;
        let ready_at = self.free_at + self.config.latency;
        LinkTransfer {
            ready_at,
            latency: ready_at - now,
        }
    }

    /// Moves a `bytes`-sized payload issued at cycle `now` as line-sized
    /// bursts. Zero-byte payloads touch neither the lane nor the stats.
    pub fn transfer_bytes(&mut self, bytes: u64, now: u64) -> LinkTransfer {
        if bytes == 0 {
            return LinkTransfer {
                ready_at: now,
                latency: 0,
            };
        }
        let lines = bytes.div_ceil(self.config.line_size);
        let t = self.transfer_run(now, lines);
        self.stats.bytes += bytes;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_geometry() {
        let c = LinkConfig::baseline();
        assert_eq!(c.transfer_cycles(), 8);
        assert_eq!(c.latency, 200);
    }

    #[test]
    fn idle_link_pays_occupancy_plus_latency() {
        let mut l = Link::new(LinkConfig::baseline());
        let t = l.transfer(100);
        assert_eq!(t.ready_at, 100 + 8 + 200);
        assert_eq!(t.latency, 208);
    }

    #[test]
    fn back_to_back_transfers_queue_on_the_lane() {
        let mut l = Link::new(LinkConfig::baseline());
        let a = l.transfer(0);
        // Issued while the lane drains: starts at free_at (8), not 0.
        let b = l.transfer(0);
        assert_eq!(b.ready_at, a.ready_at + 8);
        // Issued after the lane went idle: no queueing delay.
        let c = l.transfer(1_000);
        assert_eq!(c.latency, 208);
    }

    #[test]
    fn transfer_run_matches_scalar_loop() {
        let mut run = Link::new(LinkConfig::baseline());
        let mut scalar = Link::new(LinkConfig::baseline());
        // Pre-load both lanes so the run starts on a busy wire.
        run.transfer(0);
        scalar.transfer(0);
        let a = run.transfer_run(3, 5);
        let mut last = None;
        for _ in 0..5 {
            last = Some(scalar.transfer(3));
        }
        assert_eq!(Some(a), last);
        assert_eq!(run.stats(), scalar.stats());
        // State converged: the next transfer agrees too.
        assert_eq!(run.transfer(10_000), scalar.transfer(10_000));
    }

    #[test]
    fn transfer_bytes_rounds_to_lines_and_counts_payload() {
        let mut l = Link::new(LinkConfig::baseline());
        let t = l.transfer_bytes(65, 0); // 2 lines
        assert_eq!(t.ready_at, 2 * 8 + 200);
        assert_eq!(l.stats().transfers, 2);
        assert_eq!(l.stats().bytes, 65);
        assert_eq!(l.stats().busy_cycles, 16);
    }

    #[test]
    fn zero_byte_transfer_is_free() {
        let mut l = Link::new(LinkConfig::baseline());
        let t = l.transfer_bytes(0, 42);
        assert_eq!(t.ready_at, 42);
        assert_eq!(l.stats(), &LinkStats::default());
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = LinkStats {
            transfers: 1,
            bytes: 64,
            busy_cycles: 8,
        };
        a.merge(&a.clone());
        assert_eq!(a.transfers, 2);
        assert_eq!(a.bytes, 128);
        assert_eq!(a.busy_cycles, 16);
    }
}
