//! N-instance GPU timing behind a work distributor — the timing engine.
//!
//! A [`MultiGpu`] rig owns N per-GPU front ends (L1-class caches, unit
//! clocks, scratch), a [`megsim_mem::MemoryPool`] that owns every
//! L2 + DRAM back end and decides whether they are shared or private
//! ([`megsim_mem::Topology`]), and one interconnect
//! [`megsim_mem::Link`] per worker GPU carrying finished pixels to the
//! display GPU (GPU 0). The single-GPU [`Gpu`](crate::Gpu) is the
//! N = 1 rig. Work is assigned by a [`WorkDistributor`] in one of two
//! classic multi-GPU dispatch modes:
//!
//! * **Alternate-frame rendering** ([`DispatchMode::AlternateFrame`]) —
//!   frame `i` is simulated whole on GPU `i mod N`. A frame rendered
//!   away from the display GPU pays a full-framebuffer scan-out
//!   transfer over its link; per-frame `cycles` report the frame's
//!   latency on its own GPU (including the transfer), so sequence
//!   totals remain the paper's summed-cycles metric.
//! * **Split-frame rendering** ([`DispatchMode::SplitFrame`]) — every
//!   frame's tile array is split into N contiguous bands (halves,
//!   quadrants, …) and each GPU rasterizes its band. The geometry +
//!   tiling phase is duplicated on every GPU (no geometry
//!   redistribution — the classic SFR cost), a barrier separates
//!   geometry from raster, and each worker GPU ships its band's visible
//!   pixels to GPU 0 when its raster finishes.
//!
//! # One frame routine
//!
//! Every frame, whatever the dispatch, runs the same routine over the
//! GPUs that take part in it and the tile band each one rasterizes — a
//! single band for the single GPU and AFR, N bands for SFR:
//!
//! 1. the geometry + tiling phase on each taking-part GPU, one GPU's
//!    whole stream after another, against the back end the pool lends
//!    it;
//! 2. one job list of `(gpu, range)` pairs, each band cut into
//!    `shard::SHARD_TILES`-tile ranges and the bands interleaved
//!    round-robin (GPU 0's first range, GPU 1's first range, …, then
//!    the next round), run through [`megsim_exec::ordered_pipeline`]:
//!    the *pure* `shard::record_tiles` on pool workers (or inline),
//!    `shard::replay_shard` on the caller thread in job order;
//! 3. the interconnect transfers of the dispatch mode, then the
//!    per-frame statistics.
//!
//! # Determinism
//!
//! All timing-model state mutation happens on the caller thread; the
//! only parallel stage is the pure recording (no cache, DRAM or clock
//! is touched), so every (N, dispatch, topology) configuration is
//! bit-identical at any worker-pool size. Under the shared topology the
//! GPUs' access streams interleave **round-robin at a fixed
//! granularity** — whole frames under AFR, tile ranges under SFR — so
//! the contended hierarchy sees one well-defined serialized stream
//! rather than a race.
//!
//! # N = 1 bit-identity
//!
//! At N = 1 both dispatch modes take the one-band path on GPU 0 with
//! zero transfers, so every topology gives the same output. The oracle
//! tests pin that against the retained scalar `ReferenceGpu`.

use megsim_funcsim::FrameTrace;
use megsim_gfx::shader::ShaderTable;
use megsim_mem::{Link, LinkConfig, LinkStats, MemoryPool, Topology};
use std::ops::Range;

use crate::config::GpuConfig;
use crate::gpu::FrontEnd;
use crate::shard;
use crate::stats::{FrameStats, UnitBusy};

/// How the distributor assigns work to the N GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Frame `i` → GPU `i mod N`, whole.
    #[default]
    AlternateFrame,
    /// Every frame's tiles split into N contiguous bands, one per GPU.
    SplitFrame,
}

/// Configuration of an N-GPU rig.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiGpuConfig {
    /// Number of GPU instances (≥ 1).
    pub gpus: usize,
    /// Work-distribution mode.
    pub dispatch: DispatchMode,
    /// Shared or private L2 + DRAM back ends.
    pub topology: Topology,
    /// Per-worker-GPU link to the display GPU.
    pub link: LinkConfig,
}

impl MultiGpuConfig {
    /// An `gpus`-instance rig with the baseline link.
    pub fn new(gpus: usize, dispatch: DispatchMode, topology: Topology) -> Self {
        Self {
            gpus,
            dispatch,
            topology,
            link: LinkConfig::baseline(),
        }
    }

    /// The single-GPU rig ([`Gpu`](crate::Gpu) is built on it).
    pub fn single() -> Self {
        Self::new(1, DispatchMode::AlternateFrame, Topology::Private)
    }
}

impl Default for MultiGpuConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// Pure work-assignment policy: which GPU owns a frame (AFR) or which
/// contiguous tile band each GPU rasterizes (SFR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkDistributor {
    gpus: usize,
    dispatch: DispatchMode,
}

impl WorkDistributor {
    /// Builds a distributor over `gpus` instances.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn new(gpus: usize, dispatch: DispatchMode) -> Self {
        assert!(gpus > 0, "a rig needs at least one GPU");
        Self { gpus, dispatch }
    }

    /// The dispatch mode.
    pub fn dispatch(&self) -> DispatchMode {
        self.dispatch
    }

    /// AFR assignment: frame `i` → GPU `i mod N`.
    pub fn gpu_for_frame(&self, frame_index: u64) -> usize {
        (frame_index % self.gpus as u64) as usize
    }

    /// SFR assignment: `tiles` split into N contiguous near-equal
    /// bands in tile-index order (the first `tiles % N` bands take the
    /// remainder). Bands can be empty when `tiles < N`.
    pub fn tile_ranges(&self, tiles: usize) -> Vec<Range<usize>> {
        let base = tiles / self.gpus;
        let rem = tiles % self.gpus;
        let mut start = 0;
        (0..self.gpus)
            .map(|g| {
                let len = base + usize::from(g < rem);
                let r = start..start + len;
                start += len;
                r
            })
            .collect()
    }
}

/// Cumulative work and traffic accounting of a rig.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiGpuReport {
    /// Frames each GPU worked on (every GPU, under SFR).
    pub frames_per_gpu: Vec<u64>,
    /// Per-GPU link counters (entry 0 — the display GPU — never moves).
    pub links: Vec<LinkStats>,
}

impl MultiGpuReport {
    /// Total interconnect line transfers.
    pub fn transfers(&self) -> u64 {
        self.links.iter().map(|l| l.transfers).sum()
    }

    /// Total interconnect payload bytes.
    pub fn bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).sum()
    }

    /// Total cycles any lane was occupied.
    pub fn busy_cycles(&self) -> u64 {
        self.links.iter().map(|l| l.busy_cycles).sum()
    }
}

/// The raster job list of one frame: `(band, range)` pairs, each band
/// cut into [`shard::SHARD_TILES`]-tile ranges, bands interleaved
/// round-robin one range at a time.
fn round_robin_jobs(bands: &[Range<usize>]) -> Vec<(usize, Range<usize>)> {
    let rounds = bands
        .iter()
        .map(|band| band.len().div_ceil(shard::SHARD_TILES))
        .max()
        .unwrap_or(0);
    (0..rounds)
        .flat_map(|round| {
            bands.iter().enumerate().filter_map(move |(b, band)| {
                let start = band.start + round * shard::SHARD_TILES;
                (start < band.end).then(|| (b, start..(start + shard::SHARD_TILES).min(band.end)))
            })
        })
        .collect()
}

/// An N-GPU timing rig: N per-GPU front ends behind a
/// [`WorkDistributor`], over one [`MemoryPool`] and N−1 display links.
#[derive(Debug)]
pub struct MultiGpu {
    config: GpuConfig,
    distributor: WorkDistributor,
    gpus: Vec<FrontEnd>,
    pool: MemoryPool,
    links: Vec<Link>,
    frames_per_gpu: Vec<u64>,
    /// Global sequence position (drives double-buffer parity on every
    /// GPU).
    frame_index: u64,
}

impl MultiGpu {
    /// Builds a cold rig of `multi.gpus` instances of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `multi.gpus` is zero, or if `config.fragment_processors`
    /// is outside `1..=256` (see [`Gpu::new`](crate::Gpu::new)).
    pub fn new(config: GpuConfig, multi: MultiGpuConfig) -> Self {
        assert!(multi.gpus > 0, "a rig needs at least one GPU");
        Self {
            distributor: WorkDistributor::new(multi.gpus, multi.dispatch),
            gpus: (0..multi.gpus).map(|_| FrontEnd::new(&config)).collect(),
            pool: MemoryPool::new(multi.topology, multi.gpus, config.l2.clone(), config.dram),
            links: (0..multi.gpus).map(|_| Link::new(multi.link)).collect(),
            frames_per_gpu: vec![0; multi.gpus],
            frame_index: 0,
            config,
        }
    }

    /// The configuration every GPU instance shares.
    pub(crate) fn gpu_config(&self) -> &GpuConfig {
        &self.config
    }

    /// Cycle count of the furthest-ahead GPU clock.
    pub fn now(&self) -> u64 {
        self.gpus.iter().map(|g| g.now).max().unwrap_or(0)
    }

    /// Cumulative work/traffic accounting.
    pub fn report(&self) -> MultiGpuReport {
        MultiGpuReport {
            frames_per_gpu: self.frames_per_gpu.clone(),
            links: self.links.iter().map(|l| *l.stats()).collect(),
        }
    }

    /// Writes back every dirty line of every back-end L2 (device idle
    /// at sequence end) and returns the writeback total. The caller
    /// attributes them to the last frame.
    pub fn drain_l2(&mut self) -> u64 {
        self.pool.flush_all()
    }

    /// Simulates one frame under the configured dispatch mode: the
    /// frame routine of the module docs, over GPU `i mod N` with the
    /// whole frame as one band (AFR), or over every GPU with the
    /// distributor's N bands (SFR).
    ///
    /// # Panics
    ///
    /// Panics if the trace references shaders missing from `shaders`.
    pub fn simulate_frame(&mut self, trace: &FrameTrace, shaders: &ShaderTable) -> FrameStats {
        let dispatch = self.distributor.dispatch();
        let tiles = trace.tiles.len();
        // The first GPU taking part, and one tile band per GPU from it.
        let (first, bands): (usize, Vec<Range<usize>>) = match dispatch {
            DispatchMode::AlternateFrame => (
                self.distributor.gpu_for_frame(self.frame_index),
                std::iter::once(0..tiles).collect(),
            ),
            DispatchMode::SplitFrame => (0, self.distributor.tile_ranges(tiles)),
        };
        let taking_part = first..first + bands.len();
        let config = &self.config;
        let frame_index = self.frame_index;

        // Per-frame stat attribution: reset counters, keep state warm.
        // Every back end resets, so the pool's summed counters are this
        // frame's traffic alone.
        for gpu in &mut self.gpus[taking_part.clone()] {
            gpu.reset_stats();
        }
        self.pool.reset_stats();

        // The GPUs taking part move in lockstep, so `frame_start` is
        // shared.
        let frame_start = self.gpus[first].now;
        debug_assert!(self.gpus[taking_part.clone()]
            .iter()
            .all(|g| g.now == frame_start));

        // Geometry + tiling on every GPU taking part (through a shared
        // back end: GPU 0's whole stream, then GPU 1's, …).
        let mut busys = vec![UnitBusy::default(); bands.len()];
        let mut geometry_cycles = 0;
        for (b, busy) in busys.iter_mut().enumerate() {
            let g = first + b;
            let cycles =
                self.gpus[g].geometry_phase(config, self.pool.for_gpu(g), trace, frame_start, busy);
            geometry_cycles = geometry_cycles.max(cycles);
        }

        // Raster: record on the workers, replay on this thread in job
        // order. Every GPU rasters from the post-geometry barrier. Logs
        // are compact; producers run a few jobs ahead so the replay
        // never starves without buffering the whole frame.
        let raster_base = frame_start + geometry_cycles;
        let jobs = round_robin_jobs(&bands);
        let mut states: Vec<shard::ReplayState> = bands
            .iter()
            .map(|_| shard::ReplayState::default())
            .collect();
        let capacity = (megsim_exec::thread_count() * 2).max(4);
        megsim_exec::ordered_pipeline(
            jobs.len(),
            capacity,
            |j| shard::record_tiles(trace, shaders, config, frame_index, jobs[j].1.clone()),
            |j, log| {
                let b = jobs[j].0;
                let gpu = &mut self.gpus[first + b];
                shard::replay_shard(
                    &log,
                    trace,
                    config,
                    &mut gpu.tile_cache,
                    &mut gpu.texture_caches,
                    self.pool.for_gpu(first + b),
                    frame_index,
                    raster_base,
                    &mut busys[b],
                    &mut states[b],
                    &mut gpu.tex_clock,
                );
            },
        );
        for (busy, state) in busys.iter_mut().zip(&states) {
            busy.flush += state.flush_clock;
        }
        let raster_cycles = states.iter().map(|s| s.raster_cycles()).max().unwrap_or(0);

        // Interconnect transfers; the frame ends when compute and every
        // transfer have landed.
        let overhead = config.frame_overhead_cycles;
        let end = match dispatch {
            // AFR: away from GPU 0, a full-framebuffer scan-out after
            // the whole frame. The link queue lives in the owning GPU's
            // clock domain — only that GPU issues on it, so back-to-back
            // frames on one GPU queue naturally.
            DispatchMode::AlternateFrame => {
                let done = raster_base + raster_cycles + overhead;
                if first == 0 {
                    done
                } else {
                    let bytes =
                        u64::from(trace.viewport.width) * u64::from(trace.viewport.height) * 4;
                    self.links[first].transfer_bytes(bytes, done).ready_at
                }
            }
            // SFR: each worker GPU ships its band's visible pixels to
            // GPU 0 the moment its own raster drains.
            DispatchMode::SplitFrame => {
                let mut done = raster_base + raster_cycles;
                for (g, state) in states.iter().enumerate().skip(1) {
                    let issue = raster_base + state.raster_cycles();
                    let t = self.links[g].transfer_bytes(state.visible_px * 4, issue);
                    done = done.max(t.ready_at);
                }
                done + overhead
            }
        };

        // Advance the GPUs taking part; they stay in lockstep.
        for g in taking_part.clone() {
            self.gpus[g].now = end;
            self.frames_per_gpu[g] += 1;
        }
        self.frame_index += 1;

        // Front-end counters merge over the GPUs taking part; back-end
        // counters come from the pool (one contended hierarchy, or N
        // private ones summed).
        let mut stats = FrameStats {
            cycles: end - frame_start,
            geometry_cycles,
            raster_cycles,
            instructions: trace.activity.total_instructions(),
            memory: self.pool.stats(),
            color_buffer_accesses: states.iter().map(|s| s.color_accesses).sum(),
            depth_buffer_accesses: states.iter().map(|s| s.depth_accesses).sum(),
            // Shared by reference with the trace — no deep clone of the
            // per-shader counter vectors.
            activity: std::sync::Arc::clone(&trace.activity),
            ..FrameStats::default()
        };
        for (gpu, busy) in self.gpus[taking_part].iter().zip(&busys) {
            gpu.merge_stats_into(&mut stats);
            stats.unit_busy.merge(busy);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing_reference::ReferenceGpu;
    use megsim_funcsim::{RenderConfig, RenderMode, Renderer};
    use megsim_gfx::draw::{BlendMode, DrawCall, Frame, Viewport};
    use megsim_gfx::geometry::{Mesh, Vertex};
    use megsim_gfx::math::{Mat4, Vec2, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram, TextureFilter};
    use megsim_gfx::texture::TextureDesc;
    use std::sync::Arc;

    fn shaders() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "vs", 10));
        t.add(ShaderProgram::fragment(
            0,
            "fs_tex",
            7,
            vec![TextureFilter::Bilinear],
        ));
        t.add(ShaderProgram::fragment(1, "fs_flat", 3, vec![]));
        t
    }

    fn layered_frame(shift: f32) -> Frame {
        let tri = |tris: &[[(f32, f32, f32); 3]], fs: u32, blend| {
            let mut vertices = Vec::new();
            let mut indices = Vec::new();
            for t in tris {
                for &(x, y, z) in t {
                    indices.push(vertices.len() as u32);
                    let mut v = Vertex::at(Vec3::new(x, y, z));
                    v.uv = Vec2::new((x + 1.0) * 0.5, (y + 1.0) * 0.5);
                    vertices.push(v);
                }
            }
            DrawCall {
                mesh: Arc::new(Mesh::new(vertices, indices, 0x100)),
                transform: Mat4::translation(Vec3::new(shift, 0.0, 0.0)),
                vertex_shader: ShaderId(0),
                fragment_shader: ShaderId(fs),
                texture: (fs != 1).then(|| TextureDesc::new(0, 64, 64, 4, 0x8000)),
                blend,
                depth_test: true,
            }
        };
        let mut f = Frame::new();
        f.draws.push(tri(
            &[
                [(-0.9, -0.9, 0.4), (0.9, -0.9, 0.4), (0.9, 0.9, 0.4)],
                [(-0.9, -0.9, 0.4), (0.9, 0.9, 0.4), (-0.9, 0.9, 0.4)],
            ],
            0,
            BlendMode::Opaque,
        ));
        f.draws.push(tri(
            &[[(-0.3, -0.8, -0.2), (0.8, -0.1, -0.2), (0.0, 0.9, -0.2)]],
            1,
            BlendMode::AlphaBlend,
        ));
        f
    }

    fn scene() -> Vec<Frame> {
        vec![layered_frame(0.0), layered_frame(0.1), layered_frame(-0.2)]
    }

    fn run_rig(
        mode: RenderMode,
        viewport: Viewport,
        multi: MultiGpuConfig,
    ) -> (Vec<FrameStats>, u64, MultiGpuReport) {
        let t = shaders();
        let mut cfg = GpuConfig::small(viewport.width, viewport.height);
        cfg.viewport = viewport;
        cfg.render_mode = mode;
        let renderer = Renderer::new(RenderConfig { viewport, mode });
        let mut rig = MultiGpu::new(cfg, multi);
        let stats: Vec<FrameStats> = scene()
            .iter()
            .map(|f| rig.simulate_frame(&renderer.render_frame(f, &t), &t))
            .collect();
        let now = rig.now();
        (stats, now, rig.report())
    }

    /// The single-GPU baseline, from the retained scalar model: an
    /// oracle that shares no code with the rig.
    fn run_single(mode: RenderMode, viewport: Viewport) -> (Vec<FrameStats>, u64) {
        let t = shaders();
        let mut cfg = GpuConfig::small(viewport.width, viewport.height);
        cfg.viewport = viewport;
        cfg.render_mode = mode;
        let renderer = Renderer::new(RenderConfig { viewport, mode });
        let mut gpu = ReferenceGpu::new(cfg);
        let stats = scene()
            .iter()
            .map(|f| gpu.simulate_frame(&renderer.render_frame(f, &t), &t))
            .collect();
        (stats, gpu.now())
    }

    const MODES: [RenderMode; 3] = [
        RenderMode::TileBased,
        RenderMode::TileBasedDeferred,
        RenderMode::Immediate,
    ];

    #[test]
    fn distributor_splits_tiles_contiguously() {
        let d = WorkDistributor::new(4, DispatchMode::SplitFrame);
        assert_eq!(d.tile_ranges(10), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(d.tile_ranges(2), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(d.tile_ranges(0), vec![0..0, 0..0, 0..0, 0..0]);
        let d1 = WorkDistributor::new(1, DispatchMode::SplitFrame);
        assert_eq!(d1.tile_ranges(7), vec![0..7]);
    }

    #[test]
    fn distributor_alternates_frames() {
        let d = WorkDistributor::new(3, DispatchMode::AlternateFrame);
        assert_eq!(
            (0..6).map(|i| d.gpu_for_frame(i)).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2]
        );
    }

    #[test]
    fn single_gpu_rig_is_bit_identical_in_both_dispatch_modes() {
        let viewport = Viewport::new(96, 96, 32);
        for mode in MODES {
            let (base, base_now) = run_single(mode, viewport);
            for dispatch in [DispatchMode::AlternateFrame, DispatchMode::SplitFrame] {
                for topology in [Topology::Shared, Topology::Private] {
                    let multi = MultiGpuConfig::new(1, dispatch, topology);
                    let (stats, now, report) = run_rig(mode, viewport, multi);
                    assert_eq!(stats, base, "{mode:?} {dispatch:?} {topology:?}");
                    assert_eq!(now, base_now, "{mode:?} {dispatch:?} {topology:?} clock");
                    assert_eq!(report.transfers(), 0, "N=1 never crosses a link");
                }
            }
        }
    }

    #[test]
    fn afr_stripes_frames_and_pays_transfers() {
        let viewport = Viewport::new(96, 96, 32);
        let multi = MultiGpuConfig::new(2, DispatchMode::AlternateFrame, Topology::Private);
        let (stats, _, report) = run_rig(RenderMode::TileBased, viewport, multi);
        assert_eq!(report.frames_per_gpu, vec![2, 1]);
        // Frame 1 ran on GPU 1: a full 96×96×4-byte scan-out moved.
        assert_eq!(report.bytes(), 96 * 96 * 4);
        assert!(report.transfers() > 0);
        assert!(stats[1].cycles > 0);
    }

    #[test]
    fn sfr_splits_work_and_duplicates_geometry() {
        let viewport = Viewport::new(128, 128, 32);
        let single = run_single(RenderMode::TileBased, viewport).0;
        let multi = MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Private);
        let (stats, _, report) = run_rig(RenderMode::TileBased, viewport, multi);
        assert_eq!(report.frames_per_gpu, vec![3, 3]);
        // Both GPUs fetch the whole frame's vertices.
        assert!(stats[0].vertex_cache.accesses() >= 2 * single[0].vertex_cache.accesses());
        // GPU 1's band pixels crossed the link each frame.
        assert!(report.bytes() > 0);
        // Raster work split: the per-frame raster phase is shorter than
        // the single GPU's.
        assert!(stats[0].raster_cycles < single[0].raster_cycles);
    }

    #[test]
    fn shared_topology_contends_private_does_not() {
        let viewport = Viewport::new(128, 128, 32);
        let shared = run_rig(
            RenderMode::TileBased,
            viewport,
            MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Shared),
        )
        .0;
        let private = run_rig(
            RenderMode::TileBased,
            viewport,
            MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Private),
        )
        .0;
        // The duplicated polygon lists hit in the one shared L2 but
        // miss across two private ones, so the private rig re-fetches
        // from DRAM.
        let shared_dram: u64 = shared.iter().map(|s| s.dram_accesses()).sum();
        let private_dram: u64 = private.iter().map(|s| s.dram_accesses()).sum();
        assert!(
            private_dram > shared_dram,
            "private {private_dram} vs shared {shared_dram}"
        );
    }

    #[test]
    fn sfr_rig_is_thread_count_invariant() {
        let viewport = Viewport::new(96, 96, 16);
        for topology in [Topology::Shared, Topology::Private] {
            let multi = MultiGpuConfig::new(3, DispatchMode::SplitFrame, topology);
            megsim_exec::set_threads(1);
            let base = run_rig(RenderMode::TileBased, viewport, multi);
            for threads in [2, 8] {
                megsim_exec::set_threads(threads);
                let got = run_rig(RenderMode::TileBased, viewport, multi);
                assert_eq!(got, base, "{topology:?} at {threads} threads");
            }
            megsim_exec::set_threads(0);
        }
    }

    #[test]
    fn drain_flushes_every_backend() {
        let viewport = Viewport::new(96, 96, 32);
        let t = shaders();
        let cfg = GpuConfig::small(96, 96);
        let renderer = Renderer::new(RenderConfig {
            viewport,
            mode: RenderMode::TileBased,
        });
        let multi = MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Private);
        let mut rig = MultiGpu::new(cfg, multi);
        for f in scene() {
            rig.simulate_frame(&renderer.render_frame(&f, &t), &t);
        }
        let wb = rig.drain_l2();
        assert!(wb > 0);
        assert_eq!(rig.drain_l2(), 0, "second drain finds clean L2s");
    }

    #[test]
    fn empty_frames_cost_only_overhead_on_any_rig() {
        let viewport = Viewport::new(96, 96, 32);
        let t = shaders();
        let cfg = GpuConfig::small(96, 96);
        let overhead = cfg.frame_overhead_cycles;
        let fill = u64::from(cfg.vertex_queue.entries);
        let renderer = Renderer::new(RenderConfig {
            viewport,
            mode: RenderMode::TileBased,
        });
        let trace = renderer.render_frame(&Frame::new(), &t);
        for dispatch in [DispatchMode::AlternateFrame, DispatchMode::SplitFrame] {
            let mut rig = MultiGpu::new(
                cfg.clone(),
                MultiGpuConfig::new(4, dispatch, Topology::Shared),
            );
            let s0 = rig.simulate_frame(&trace, &t);
            assert_eq!(s0.cycles, overhead + fill, "{dispatch:?}");
            assert_eq!(s0.dram_accesses(), 0, "{dispatch:?}");
        }
    }
}
