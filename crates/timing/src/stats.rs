//! Output statistics of the cycle-level model — the metrics the paper's
//! accuracy study evaluates (Fig. 7): total cycles, main-memory
//! accesses, L2 accesses and Tile-cache accesses, plus IPC (Table II).

use std::sync::Arc;

use megsim_funcsim::FrameActivity;
use megsim_mem::{CacheStats, MemoryStats};

/// Busy cycles of each hardware unit (diagnostic breakdown; concurrent
/// units overlap, so these do not sum to `cycles`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitBusy {
    /// Vertex Fetcher (including blocking miss stalls).
    pub vertex_fetch: u64,
    /// Vertex Processor array (aggregate, divided by width).
    pub vertex_alu: u64,
    /// Primitive Assembly.
    pub prim_assembly: u64,
    /// Polygon List Builder writes.
    pub polygon_list_write: u64,
    /// Polygon list read-back in the raster phase.
    pub polygon_list_read: u64,
    /// Rasterizer attribute interpolation.
    pub rasterizer: u64,
    /// Early-Z quad tests.
    pub early_z: u64,
    /// Fragment Processor ALU (max across the array, summed over tiles).
    pub fragment_alu: u64,
    /// Texture pipes (max across the array, summed over tiles).
    pub texture_pipe: u64,
    /// Blending Unit.
    pub blending: u64,
    /// Frame-buffer flush traffic.
    pub flush: u64,
}

impl UnitBusy {
    /// Accumulates another breakdown.
    pub fn merge(&mut self, other: &UnitBusy) {
        self.vertex_fetch += other.vertex_fetch;
        self.vertex_alu += other.vertex_alu;
        self.prim_assembly += other.prim_assembly;
        self.polygon_list_write += other.polygon_list_write;
        self.polygon_list_read += other.polygon_list_read;
        self.rasterizer += other.rasterizer;
        self.early_z += other.early_z;
        self.fragment_alu += other.fragment_alu;
        self.texture_pipe += other.texture_pipe;
        self.blending += other.blending;
        self.flush += other.flush;
    }
}

/// Statistics of one simulated frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameStats {
    /// Total execution cycles of the frame.
    pub cycles: u64,
    /// Cycles spent in the Geometry + Tiling phase.
    pub geometry_cycles: u64,
    /// Cycles spent in the per-tile Raster phase.
    pub raster_cycles: u64,
    /// Shader instructions executed (vertex + fragment).
    pub instructions: u64,
    /// Vertex-cache counters.
    pub vertex_cache: CacheStats,
    /// Texture-cache counters (all four caches merged).
    pub texture_cache: CacheStats,
    /// Tile-cache counters (polygon-list traffic).
    pub tile_cache: CacheStats,
    /// Shared L2 + DRAM counters.
    pub memory: MemoryStats,
    /// On-chip color-buffer accesses (blending).
    pub color_buffer_accesses: u64,
    /// On-chip depth-buffer accesses (Early-Z).
    pub depth_buffer_accesses: u64,
    /// Functional activity of the frame (inputs to the power model).
    /// Shared with the trace it came from — cloning `FrameStats` or
    /// copying a trace's activity in costs a refcount, not a deep copy
    /// of the per-shader vectors; merging unshares lazily.
    pub activity: Arc<FrameActivity>,
    /// Per-unit busy-cycle breakdown.
    pub unit_busy: UnitBusy,
}

impl FrameStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// The paper's "number of main memory accesses".
    pub fn dram_accesses(&self) -> u64 {
        self.memory.dram.accesses()
    }

    /// The paper's "number of L2 cache accesses".
    pub fn l2_accesses(&self) -> u64 {
        self.memory.l2.accesses()
    }

    /// The paper's "number of Tile cache accesses".
    pub fn tile_cache_accesses(&self) -> u64 {
        self.tile_cache.accesses()
    }

    /// Accumulates another frame's statistics (sequence totals, or the
    /// "representative × cluster size" scaling of MEGsim).
    pub fn merge(&mut self, other: &FrameStats) {
        self.cycles += other.cycles;
        self.geometry_cycles += other.geometry_cycles;
        self.raster_cycles += other.raster_cycles;
        self.instructions += other.instructions;
        self.vertex_cache.merge(&other.vertex_cache);
        self.texture_cache.merge(&other.texture_cache);
        self.tile_cache.merge(&other.tile_cache);
        self.memory.merge(&other.memory);
        self.color_buffer_accesses += other.color_buffer_accesses;
        self.depth_buffer_accesses += other.depth_buffer_accesses;
        self.unit_busy.merge(&other.unit_busy);
        if self.activity.vertex_shader_invocations.len()
            == other.activity.vertex_shader_invocations.len()
            && self.activity.fragment_shader_invocations.len()
                == other.activity.fragment_shader_invocations.len()
        {
            Arc::make_mut(&mut self.activity).merge(&other.activity);
        } else if self.activity.vertex_shader_invocations.is_empty()
            && self.activity.fragment_shader_invocations.is_empty()
        {
            self.activity = Arc::clone(&other.activity);
        }
    }

    /// Scales every additive counter by an integer factor — how MEGsim
    /// extrapolates one representative frame to its whole cluster.
    pub fn scaled(&self, factor: u64) -> FrameStats {
        let mut out = FrameStats::default();
        for _ in 0..factor {
            out.merge(self);
        }
        out
    }
}

/// Totals over a simulated frame sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SequenceStats {
    /// Number of frames simulated.
    pub frames: u64,
    /// Summed per-frame statistics.
    pub totals: FrameStats,
}

impl SequenceStats {
    /// Adds one frame.
    pub fn push(&mut self, frame: &FrameStats) {
        self.frames += 1;
        self.totals.merge(frame);
    }

    /// Average cycles per frame.
    pub fn cycles_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.totals.cycles as f64 / self.frames as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FrameStats {
        FrameStats {
            cycles: 100,
            instructions: 450,
            ..FrameStats::default()
        }
    }

    #[test]
    fn ipc_is_instructions_over_cycles() {
        assert!((sample().ipc() - 4.5).abs() < 1e-12);
        assert_eq!(FrameStats::default().ipc(), 0.0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.cycles, 200);
        assert_eq!(a.instructions, 900);
    }

    #[test]
    fn scaled_multiplies_counters() {
        let s = sample().scaled(5);
        assert_eq!(s.cycles, 500);
        assert_eq!(s.instructions, 2250);
    }

    #[test]
    fn sequence_tracks_frames() {
        let mut seq = SequenceStats::default();
        seq.push(&sample());
        seq.push(&sample());
        assert_eq!(seq.frames, 2);
        assert_eq!(seq.totals.cycles, 200);
        assert!((seq.cycles_per_frame() - 100.0).abs() < 1e-12);
    }
}
