//! Banked DRAM timing model (DRAMsim2 substitute).
//!
//! Models the Table I main memory: 8 banks with an open-page (row-buffer)
//! policy, a 50–100-cycle latency band (row hit vs row miss), 64-byte
//! transfers at 4 bytes/cycle of bus bandwidth. Latencies are expressed in
//! *GPU* cycles — the paper's 600 MHz core vs 400 MHz LPDDR3 clock ratio
//! is folded into the latency constants, as TEAPOT's tables do.

/// Static DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks (Table I: 8).
    pub banks: u32,
    /// Row-buffer size in bytes per bank.
    pub row_bytes: u64,
    /// Latency of a row-buffer hit, in GPU cycles (Table I lower bound).
    pub row_hit_latency: u64,
    /// Latency of a row-buffer miss (precharge + activate), upper bound.
    pub row_miss_latency: u64,
    /// Bus bandwidth in bytes per GPU cycle (Table I: 4, dual channel).
    pub bytes_per_cycle: u64,
    /// Transfer granularity in bytes (cache line, Table I: 64).
    pub line_size: u64,
}

impl DramConfig {
    /// The Table I LPDDR3-like part.
    pub const fn lpddr3_baseline() -> Self {
        Self {
            banks: 8,
            row_bytes: 2048,
            row_hit_latency: 50,
            row_miss_latency: 100,
            bytes_per_cycle: 4,
            line_size: 64,
        }
    }

    /// Bus cycles needed to move one line.
    pub const fn transfer_cycles(&self) -> u64 {
        self.line_size / self.bytes_per_cycle
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::lpddr3_baseline()
    }
}

/// Access counters of the DRAM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Line reads serviced.
    pub reads: u64,
    /// Line writes serviced.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that had to open a new row.
    pub row_misses: u64,
    /// Total cycles the data bus was occupied.
    pub bus_busy_cycles: u64,
}

impl DramStats {
    /// Total line transfers (the paper's "number of main memory
    /// accesses" metric).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit ratio in `[0, 1]`.
    pub fn row_hit_ratio(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Accumulates another stats block.
    pub fn merge(&mut self, other: &DramStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.bus_busy_cycles += other.bus_busy_cycles;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// Result of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Cycle at which the data is available (read) or committed (write).
    pub ready_at: u64,
    /// End-to-end latency observed by the requester.
    pub latency: u64,
    /// Whether the access hit the open row.
    pub row_hit: bool,
}

/// Precomputed address decomposition. When the line size, bank count and
/// row span are all powers of two (every shipped configuration), the
/// divide/modulo chain in [`Dram::bank_and_row`] reduces to shifts and a
/// mask with bit-identical results; otherwise the division form is kept.
#[derive(Debug, Clone, Copy)]
enum AddrMap {
    /// `line = addr >> line_shift`, `bank = line & bank_mask`,
    /// `row = addr >> row_shift`.
    Shift {
        line_shift: u32,
        bank_mask: u64,
        row_shift: u32,
    },
    /// General divide/modulo decomposition for non-power-of-two geometry.
    Divide,
}

impl AddrMap {
    fn for_config(config: &DramConfig) -> Self {
        let banks = u64::from(config.banks);
        let row_span = config.row_bytes * banks;
        if config.line_size.is_power_of_two()
            && banks.is_power_of_two()
            && row_span.is_power_of_two()
        {
            Self::Shift {
                line_shift: config.line_size.trailing_zeros(),
                bank_mask: banks - 1,
                row_shift: row_span.trailing_zeros(),
            }
        } else {
            Self::Divide
        }
    }
}

/// The banked DRAM device.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    addr_map: AddrMap,
    transfer: u64,
    banks: Vec<Bank>,
    bus_free_at: u64,
    stats: DramStats,
}

impl Dram {
    /// Builds an idle DRAM with all rows closed.
    pub fn new(config: DramConfig) -> Self {
        Self {
            banks: vec![Bank::default(); config.banks as usize],
            addr_map: AddrMap::for_config(&config),
            transfer: config.transfer_cycles(),
            bus_free_at: 0,
            stats: DramStats::default(),
            config,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets counters (per-frame attribution); bank state persists.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    #[inline]
    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        match self.addr_map {
            AddrMap::Shift {
                line_shift,
                bank_mask,
                row_shift,
            } => (
                ((addr >> line_shift) & bank_mask) as usize,
                addr >> row_shift,
            ),
            AddrMap::Divide => {
                let line = addr / self.config.line_size;
                let bank = (line % u64::from(self.config.banks)) as usize;
                let row = addr / (self.config.row_bytes * u64::from(self.config.banks));
                (bank, row)
            }
        }
    }

    /// Performs one line-sized access starting no earlier than `now`.
    #[inline]
    pub fn access(&mut self, addr: u64, now: u64, is_write: bool) -> DramAccess {
        let (bank_idx, row) = self.bank_and_row(addr);
        let bank = &mut self.banks[bank_idx];
        let row_hit = bank.open_row == Some(row);
        let latency_core = if row_hit {
            self.config.row_hit_latency
        } else {
            self.config.row_miss_latency
        };
        // The bank is tied up for the access latency; the shared data
        // bus only for the burst transfer. Banks pipeline behind each
        // other, so concurrent accesses to different banks overlap.
        let start = now.max(bank.busy_until);
        let transfer = self.transfer;
        let bus_start = (start + latency_core).max(self.bus_free_at);
        let ready_at = bus_start + transfer;
        bank.open_row = Some(row);
        bank.busy_until = bus_start;
        self.bus_free_at = ready_at;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.bus_busy_cycles += transfer;
        DramAccess {
            ready_at,
            latency: ready_at - now,
            row_hit,
        }
    }

    /// Services `count` back-to-back accesses to `addr`, all issued at
    /// cycle `now`, replaying the scalar loop bit-for-bit.
    ///
    /// After the first access the row is open and nothing closes it
    /// inside the run, so accesses `2..=count` are guaranteed row hits;
    /// their bank/bus serialization is replayed without re-deriving the
    /// bank, row or hit/miss branch. Returns the **last** access's
    /// result (the cycle the whole streak drains).
    pub fn access_run(&mut self, addr: u64, now: u64, is_write: bool, count: u64) -> DramAccess {
        debug_assert!(count >= 1, "a run needs at least one access");
        let first = self.access(addr, now, is_write);
        if count == 1 {
            return first;
        }
        let (bank_idx, _) = self.bank_and_row(addr);
        let transfer = self.transfer;
        let hit_latency = self.config.row_hit_latency;
        let bank = &mut self.banks[bank_idx];
        for _ in 1..count {
            let start = now.max(bank.busy_until);
            let bus_start = (start + hit_latency).max(self.bus_free_at);
            bank.busy_until = bus_start;
            self.bus_free_at = bus_start + transfer;
        }
        if is_write {
            self.stats.writes += count - 1;
        } else {
            self.stats.reads += count - 1;
        }
        self.stats.row_hits += count - 1;
        self.stats.bus_busy_cycles += transfer * (count - 1);
        DramAccess {
            ready_at: self.bus_free_at,
            latency: self.bus_free_at - now,
            row_hit: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = DramConfig::lpddr3_baseline();
        assert_eq!(c.banks, 8);
        assert_eq!(c.bytes_per_cycle, 4);
        assert_eq!(c.line_size, 64);
        assert_eq!(c.transfer_cycles(), 16);
        assert_eq!((c.row_hit_latency, c.row_miss_latency), (50, 100));
    }

    #[test]
    fn shift_decomposition_matches_divide_form() {
        let config = DramConfig::lpddr3_baseline();
        let d = Dram::new(config);
        assert!(matches!(d.addr_map, AddrMap::Shift { .. }));
        for addr in (0u64..1 << 20).step_by(37) {
            let line = addr / config.line_size;
            let bank = (line % u64::from(config.banks)) as usize;
            let row = addr / (config.row_bytes * u64::from(config.banks));
            assert_eq!(d.bank_and_row(addr), (bank, row));
        }
        // Non-power-of-two geometry keeps the general divide form.
        let odd = DramConfig { banks: 6, ..config };
        assert!(matches!(Dram::new(odd).addr_map, AddrMap::Divide));
    }

    #[test]
    fn first_access_is_row_miss_second_is_hit() {
        let mut d = Dram::new(DramConfig::default());
        let a = d.access(0, 0, false);
        assert!(!a.row_hit);
        assert_eq!(a.latency, 100 + 16);
        // Same bank (line 0 and line 8 map to bank 0), same row.
        let b = d.access(8 * 64, a.ready_at, false);
        assert!(b.row_hit);
        assert_eq!(b.latency, 50 + 16);
    }

    #[test]
    fn different_banks_overlap_but_share_bus() {
        let mut d = Dram::new(DramConfig::default());
        let a = d.access(0, 0, false); // bank 0
        let b = d.access(64, 0, false); // bank 1, issued same cycle
                                        // Bank 1's activate overlaps bank 0's; only the 16-cycle burst
                                        // serializes on the shared bus.
        assert!(b.ready_at > a.ready_at);
        assert_eq!(b.ready_at, a.ready_at + 16);
    }

    #[test]
    fn same_bank_accesses_serialize_on_the_bank() {
        let mut d = Dram::new(DramConfig::default());
        let a = d.access(0, 0, false);
        let b = d.access(0, 0, false); // same bank, row hit but queued
        assert!(b.latency > 50 + 16);
        assert!(b.ready_at > a.ready_at);
    }

    #[test]
    fn stats_count_reads_writes_and_bus() {
        let mut d = Dram::new(DramConfig::default());
        d.access(0, 0, false);
        d.access(64, 0, true);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().accesses(), 2);
        assert_eq!(d.stats().bus_busy_cycles, 32);
    }

    #[test]
    fn access_run_matches_scalar_loop() {
        let mut run = Dram::new(DramConfig::default());
        let mut scalar = Dram::new(DramConfig::default());
        // Warm up one bank so the run starts on an open row.
        run.access(0, 0, false);
        scalar.access(0, 0, false);
        let a = run.access_run(8 * 64, 500, true, 5);
        let mut last = None;
        for _ in 0..5 {
            last = Some(scalar.access(8 * 64, 500, true));
        }
        assert_eq!(Some(a), last);
        assert_eq!(run.stats(), scalar.stats());
        // State converged: the next access agrees too.
        assert_eq!(run.access(64, 2000, false), scalar.access(64, 2000, false));
    }

    #[test]
    fn access_run_cold_row_misses_once() {
        let mut run = Dram::new(DramConfig::default());
        let mut scalar = Dram::new(DramConfig::default());
        let a = run.access_run(0, 0, false, 3);
        let mut last = None;
        for _ in 0..3 {
            last = Some(scalar.access(0, 0, false));
        }
        assert_eq!(Some(a), last);
        assert_eq!(run.stats().row_misses, 1);
        assert_eq!(run.stats().row_hits, 2);
        assert_eq!(run.stats(), scalar.stats());
    }

    #[test]
    fn row_hit_ratio_reflects_locality() {
        let mut d = Dram::new(DramConfig::default());
        let mut now = 0;
        for i in 0..64 {
            // Sequential lines cycle through banks; each bank sees
            // consecutive lines of the same row -> high hit ratio.
            now = d.access(i * 64, now, false).ready_at;
        }
        assert!(d.stats().row_hit_ratio() > 0.8);
    }
}
