//! The machine description of Table I.

use megsim_funcsim::RenderMode;
use megsim_gfx::draw::Viewport;
use megsim_mem::{CacheConfig, DramConfig};

/// Fixed-size hardware queue description (Table I "Queues").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Number of entries.
    pub entries: u32,
    /// Bytes per entry.
    pub entry_bytes: u32,
}

/// The full GPU configuration (Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Core frequency in MHz (600).
    pub frequency_mhz: u32,
    /// Core voltage in volts (1.0).
    pub voltage: f32,
    /// Technology node in nm (22).
    pub technology_nm: u32,
    /// Render target + tile geometry (1440×720, 32×32 tiles).
    pub viewport: Viewport,
    /// Rendering architecture (TBR baseline, TBDR with HSR, or IMR).
    pub render_mode: RenderMode,
    /// Vertex input/output queues (16 × 136 B).
    pub vertex_queue: QueueConfig,
    /// Triangle & tile queues (16 × 388 B).
    pub triangle_queue: QueueConfig,
    /// Fragment queue (64 × 233 B).
    pub fragment_queue: QueueConfig,
    /// Color queue (64 × 24 B).
    pub color_queue: QueueConfig,
    /// Vertex cache (4 KiB, 1 bank, 1 cycle).
    pub vertex_cache: CacheConfig,
    /// Each of the 4 texture caches (8 KiB, 1 bank, 2 cycles).
    pub texture_cache: CacheConfig,
    /// Tile cache (32 KiB, 1 bank, 2 cycles) — caches the Tiling
    /// Engine's polygon lists.
    pub tile_cache: CacheConfig,
    /// Shared L2 (256 KiB, 8 banks, 18 cycles).
    pub l2: CacheConfig,
    /// Main memory (LPDDR3-like, Table I).
    pub dram: DramConfig,
    /// Number of Vertex Processors (4).
    pub vertex_processors: usize,
    /// Number of Fragment Processors (4).
    pub fragment_processors: usize,
    /// Shader instructions a Vertex Processor issues per cycle (the
    /// Mali-400 series GP is a VLIW machine; 2 models its dual issue).
    pub vertex_issue_width: u64,
    /// Shader instructions a Fragment Processor issues per cycle (the
    /// Mali-400 series PP is VLIW; 2 models its multi-issue datapath).
    pub fragment_issue_width: u64,
    /// Primitive Assembly throughput: cycles per vertex (1).
    pub prim_assembly_cycles_per_vertex: u64,
    /// Rasterizer throughput: cycles per interpolated attribute (1).
    pub rasterizer_cycles_per_attribute: u64,
    /// Early Z-Test in-flight quad-fragments (8) — the latency-hiding
    /// depth of the quad pipeline.
    pub early_z_in_flight: u64,
    /// Miss-latency hiding window of a Fragment Processor's texture
    /// pipe, in cycles: how far the pipe's issue stream may run ahead of
    /// the memory system before it stalls (models ~8 outstanding quad
    /// misses of memory-level parallelism).
    pub texture_miss_stall_cap: u64,
    /// Posted-write window of the tile flush engine, in cycles (the
    /// 64-entry Color queue of Table I draining 16-cycle bursts).
    pub flush_write_window: u64,
    /// Posted-write window of the Polygon List Builder, in cycles.
    pub plb_write_window: u64,
    /// Fixed per-frame overhead (command processing, swap) in cycles.
    pub frame_overhead_cycles: u64,
}

impl GpuConfig {
    /// The Arm Mali-450-like baseline of Table I.
    pub fn mali450_like() -> Self {
        Self {
            frequency_mhz: 600,
            voltage: 1.0,
            technology_nm: 22,
            viewport: Viewport::MALI450_BASELINE,
            render_mode: RenderMode::TileBased,
            vertex_queue: QueueConfig {
                entries: 16,
                entry_bytes: 136,
            },
            triangle_queue: QueueConfig {
                entries: 16,
                entry_bytes: 388,
            },
            fragment_queue: QueueConfig {
                entries: 64,
                entry_bytes: 233,
            },
            color_queue: QueueConfig {
                entries: 64,
                entry_bytes: 24,
            },
            vertex_cache: CacheConfig::new("VertexCache", 4 * 1024, 64, 2, 1, 1),
            texture_cache: CacheConfig::new("TextureCache", 8 * 1024, 64, 2, 1, 2),
            tile_cache: CacheConfig::new("TileCache", 32 * 1024, 64, 2, 1, 2),
            l2: CacheConfig::new("L2", 256 * 1024, 64, 2, 8, 18),
            dram: DramConfig::lpddr3_baseline(),
            vertex_processors: 4,
            fragment_processors: 4,
            vertex_issue_width: 2,
            fragment_issue_width: 2,
            prim_assembly_cycles_per_vertex: 1,
            rasterizer_cycles_per_attribute: 1,
            early_z_in_flight: 8,
            texture_miss_stall_cap: 256,
            flush_write_window: 2048,
            plb_write_window: 256,
            frame_overhead_cycles: 1000,
        }
    }

    /// Same machine with a smaller render target (fast tests).
    pub fn small(width: u32, height: u32) -> Self {
        let mut c = Self::mali450_like();
        c.viewport = Viewport::new(width, height, 32);
        c
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::mali450_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = GpuConfig::mali450_like();
        assert_eq!(c.frequency_mhz, 600);
        assert_eq!(c.viewport.width, 1440);
        assert_eq!(c.viewport.height, 720);
        assert_eq!(c.viewport.tile_size, 32);
        assert_eq!(c.vertex_cache.size_bytes, 4 * 1024);
        assert_eq!(c.texture_cache.size_bytes, 8 * 1024);
        assert_eq!(c.tile_cache.size_bytes, 32 * 1024);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.l2.latency, 18);
        assert_eq!(c.l2.banks, 8);
        assert_eq!(c.vertex_processors, 4);
        assert_eq!(c.fragment_processors, 4);
        assert_eq!(c.early_z_in_flight, 8);
        assert_eq!(c.vertex_queue.entries, 16);
        assert_eq!(c.fragment_queue.entries, 64);
        assert_eq!(c.fragment_queue.entry_bytes, 233);
    }

    #[test]
    fn default_mode_is_tile_based() {
        assert_eq!(GpuConfig::mali450_like().render_mode, RenderMode::TileBased);
    }

    #[test]
    fn small_config_only_changes_viewport() {
        let c = GpuConfig::small(160, 120);
        assert_eq!(c.viewport.width, 160);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
    }
}
