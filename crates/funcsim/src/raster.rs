//! The Raster Pipeline: Rasterizer, Early Z-Test, Fragment Processors
//! and Blending (right half of Fig. 1).
//!
//! Three rendering modes are modeled (paper §II-A and §IV-A):
//!
//! * **TBR** — tile-based rendering (the paper's baseline): tiles are
//!   processed one at a time against an on-chip depth buffer; occluded
//!   fragments that arrive *before* their occluder are still shaded
//!   (overdraw).
//! * **TBDR** — tile-based *deferred* rendering with Hidden Surface
//!   Removal (the PowerVR-style extension the paper names): opaque
//!   geometry is depth-resolved per tile first, and only the final
//!   visible fragment of each pixel is shaded.
//! * **IMR** — immediate-mode rendering: primitives are rasterized in
//!   submission order against a full-screen depth buffer; there is no
//!   Tiling Engine, and every shaded color goes to the frame buffer in
//!   memory immediately (the off-chip-traffic problem §II-A describes).
//!
//! ## The incremental hot path
//!
//! `rasterize_prim` is the innermost loop of the whole simulator, so
//! it is written as an *edge-stepped* rasterizer: the row-constant term
//! of each edge function is hoisted out of the pixel loop, a
//! conservative `f64` span test culls quads that provably produce no
//! coverage, and fully-interior quads take a trivial-accept path that
//! skips the per-pixel inside tests. Crucially, every `f32` operation
//! that *does* run executes in exactly the sequence the original scalar
//! rasterizer used, so counters, traces and interpolants stay
//! bit-identical — the seed implementation survives as
//! `raster_reference` and an equivalence proptest pins the two
//! together. Work that cannot be observed is skipped entirely: span-
//! culled quads (zero coverage is never traced or counted), UV
//! interpolation when no trace is collected, and `z` interpolation for
//! depth-ignoring draws.

use megsim_gfx::draw::{DrawCall, Frame, Viewport};
use megsim_gfx::geometry::Primitive;
use megsim_gfx::math::Vec2;
use megsim_gfx::shader::ShaderTable;

use crate::activity::FrameActivity;
use crate::binning::{BinScratch, TileBins};
use crate::geometry::{GeomScratch, TransformedDraw};
use crate::renderer::RenderMode;
use crate::trace::{QuadTrace, TilePrim, TileTrace};

/// Pixel offsets of a 2×2 quad, in coverage-bit order (bit i ↔ entry i).
pub(crate) const QUAD_OFFSETS: [(u32, u32); 4] = [(0, 0), (1, 0), (0, 1), (1, 1)];

/// Iterates the quad's pixels as `(coverage mask, dx, dy)` — the shared
/// walk for rasterization and coverage-bit filtering.
#[inline]
pub(crate) fn quad_pixels() -> impl Iterator<Item = (u8, u32, u32)> {
    QUAD_OFFSETS
        .iter()
        .enumerate()
        .map(|(bit, &(dx, dy))| (1u8 << bit, dx, dy))
}

/// Scratch depth (+ HSR winner) buffer, reused across tiles and frames.
/// On-chip in real TBR hardware; in DRAM (behind caches) for IMR.
pub(crate) struct DepthBuffer {
    pub(crate) depth: Vec<f32>,
    /// Sequence number of the currently-winning opaque primitive per
    /// pixel (TBDR only; `u32::MAX` = none).
    pub(crate) winner: Vec<u32>,
    width: u32,
}

impl DepthBuffer {
    pub(crate) fn new() -> Self {
        Self {
            depth: Vec::new(),
            winner: Vec::new(),
            width: 0,
        }
    }

    /// Sizes the buffer for a `width × height` region and clears it. The
    /// winner plane is only touched when `want_winner` is set (HSR); the
    /// other modes never read it, so skipping the fill is unobservable.
    pub(crate) fn reset(&mut self, width: u32, height: u32, want_winner: bool) {
        self.width = width;
        let n = (width * height) as usize;
        if self.depth.len() < n {
            self.depth.resize(n, f32::INFINITY);
        }
        self.depth[..n].fill(f32::INFINITY);
        if want_winner {
            if self.winner.len() < n {
                self.winner.resize(n, u32::MAX);
            }
            self.winner[..n].fill(u32::MAX);
        }
    }

    #[inline]
    pub(crate) fn index(&self, lx: u32, ly: u32) -> usize {
        (ly * self.width + lx) as usize
    }
}

/// How a primitive interacts with the depth buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DepthPolicy {
    /// Test and write (opaque, depth-tested geometry).
    TestWrite,
    /// Test without writing (blended geometry).
    TestOnly,
    /// Always pass (UI layers with depth testing disabled).
    Always,
}

impl DepthPolicy {
    pub(crate) fn of(draw: &DrawCall) -> Self {
        if !draw.depth_test {
            DepthPolicy::Always
        } else if draw.blend.reads_destination() {
            DepthPolicy::TestOnly
        } else {
            DepthPolicy::TestWrite
        }
    }
}

/// Reusable per-worker rasterization state: the depth/winner buffer, the
/// tile quad buffer with its per-primitive ranges, the HSR deferred
/// list, and the geometry/binning scratch — everything the renderer
/// previously allocated per primitive or per frame.
pub struct RasterScratch {
    depth: DepthBuffer,
    /// Quads of the tile currently being rasterized, contiguous per
    /// primitive (ranges tracked by `pending`).
    quads: Vec<QuadTrace>,
    /// `(prim index, start, len)` ranges into `quads` (HSR bookkeeping).
    pending: Vec<(u32, usize, usize)>,
    /// Non-opaque primitives deferred to the HSR second pass.
    deferred: Vec<u32>,
    /// Vertex-cache scratch for the Geometry Pipeline.
    pub(crate) geom: GeomScratch,
    /// Tile-counting scratch for the Tiling Engine.
    pub(crate) bins: BinScratch,
}

impl RasterScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        Self {
            depth: DepthBuffer::new(),
            quads: Vec::new(),
            pending: Vec::new(),
            deferred: Vec::new(),
            geom: GeomScratch::default(),
            bins: BinScratch::default(),
        }
    }
}

impl Default for RasterScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Rasterizes a frame in the requested mode, updating `activity` and —
/// when `collect_trace` is set — returning per-tile (or, for IMR, one
/// whole-screen pseudo-tile) quad traces for the timing model.
#[allow(clippy::too_many_arguments)]
pub fn rasterize_frame(
    frame: &Frame,
    draws: &[TransformedDraw],
    bins: &TileBins,
    viewport: Viewport,
    shaders: &ShaderTable,
    mode: RenderMode,
    activity: &mut FrameActivity,
    collect_trace: bool,
    scratch: &mut RasterScratch,
) -> Vec<TileTrace> {
    match mode {
        RenderMode::TileBased | RenderMode::TileBasedDeferred => rasterize_tiles(
            frame,
            bins,
            viewport,
            shaders,
            mode == RenderMode::TileBasedDeferred,
            activity,
            collect_trace,
            scratch,
        ),
        RenderMode::Immediate => rasterize_immediate(
            frame,
            draws,
            viewport,
            shaders,
            activity,
            collect_trace,
            scratch,
        ),
    }
}

/// TBR / TBDR path: rasterize tile by tile in bin order.
#[allow(clippy::too_many_arguments)]
fn rasterize_tiles(
    frame: &Frame,
    bins: &TileBins,
    viewport: Viewport,
    shaders: &ShaderTable,
    hidden_surface_removal: bool,
    activity: &mut FrameActivity,
    collect_trace: bool,
    scratch: &mut RasterScratch,
) -> Vec<TileTrace> {
    let mut tiles_out = Vec::new();
    let tiles_x = viewport.tiles_x();
    for (tile_index, prim_indices) in bins.touched_tiles() {
        let tx = tile_index % tiles_x;
        let ty = tile_index / tiles_x;
        let rect = viewport.tile_rect(tx, ty);
        let origin = (rect.0, rect.1);
        scratch.depth.reset(
            viewport.tile_size,
            viewport.tile_size,
            hidden_surface_removal,
        );
        let prims_out = if hidden_surface_removal {
            rasterize_tile_hsr(
                frame,
                bins,
                prim_indices,
                rect,
                origin,
                shaders,
                activity,
                collect_trace,
                scratch,
            )
        } else {
            // Straight TBR: a primitive's quads are final as soon as it
            // is rasterized, so count (and trace) immediately — no
            // pending list needed.
            let mut prims_out = Vec::new();
            for &pi in prim_indices {
                let binned = bins.prim(pi);
                let draw = &frame.draws[binned.draw_index as usize];
                let policy = DepthPolicy::of(draw);
                if collect_trace {
                    scratch.quads.clear();
                    rasterize_prim(
                        &binned.prim,
                        rect,
                        origin,
                        policy,
                        None,
                        &mut scratch.depth,
                        &mut Collect::<true>(&mut scratch.quads),
                    );
                    if scratch.quads.is_empty() {
                        continue;
                    }
                    count_prim(draw, &scratch.quads, shaders, activity);
                    let lod = draw
                        .texture
                        .map(|t| texture_lod(&binned.prim, t.width, t.height))
                        .unwrap_or(0);
                    prims_out.push(tile_prim(
                        draw,
                        binned.draw_index,
                        lod,
                        scratch.quads.clone(),
                    ));
                } else {
                    let mut sink = Count::default();
                    rasterize_prim(
                        &binned.prim,
                        rect,
                        origin,
                        policy,
                        None,
                        &mut scratch.depth,
                        &mut sink,
                    );
                    if sink.quads != 0 {
                        count_prim_totals(
                            draw,
                            sink.quads,
                            sink.covered,
                            sink.visible,
                            shaders,
                            activity,
                        );
                    }
                }
            }
            prims_out
        };
        if collect_trace && !prims_out.is_empty() {
            tiles_out.push(TileTrace {
                tile_index,
                prims: prims_out,
            });
        }
    }
    tiles_out
}

/// TBDR: opaque depth/winner resolve, winner filtering, deferred
/// transparents, then counters + trace in submission order.
#[allow(clippy::too_many_arguments)]
fn rasterize_tile_hsr(
    frame: &Frame,
    bins: &TileBins,
    prim_indices: &[u32],
    rect: (u32, u32, u32, u32),
    origin: (u32, u32),
    shaders: &ShaderTable,
    activity: &mut FrameActivity,
    collect_trace: bool,
    scratch: &mut RasterScratch,
) -> Vec<TilePrim> {
    let RasterScratch {
        depth,
        quads,
        pending,
        deferred,
        ..
    } = scratch;
    quads.clear();
    pending.clear();
    deferred.clear();
    // Pass 1: opaque prims resolve depth and the per-pixel winner.
    for &pi in prim_indices {
        let binned = bins.prim(pi);
        let draw = &frame.draws[binned.draw_index as usize];
        let policy = DepthPolicy::of(draw);
        if policy != DepthPolicy::TestWrite {
            // Transparent/UI geometry is shaded after the opaque
            // resolve in a deferred pipeline.
            deferred.push(pi);
            continue;
        }
        let start = quads.len();
        if collect_trace {
            rasterize_prim(
                &binned.prim,
                rect,
                origin,
                policy,
                Some(pi),
                depth,
                &mut Collect::<true>(quads),
            );
        } else {
            rasterize_prim(
                &binned.prim,
                rect,
                origin,
                policy,
                Some(pi),
                depth,
                &mut Collect::<false>(quads),
            );
        }
        let len = quads.len() - start;
        if len > 0 {
            pending.push((pi, start, len));
        }
    }
    // Pass 2: keep only the winning fragments of opaque prims, then
    // shade deferred geometry against the final depth.
    for &(pi, start, len) in pending.iter() {
        for quad in &mut quads[start..start + len] {
            let mut visible = 0u8;
            for (mask, dx, dy) in quad_pixels() {
                if quad.coverage & mask == 0 {
                    continue;
                }
                let lx = u32::from(quad.x) + dx - origin.0;
                let ly = u32::from(quad.y) + dy - origin.1;
                if depth.winner[depth.index(lx, ly)] == pi {
                    visible |= mask;
                }
            }
            let culled = quad.visible.count_ones() - (quad.visible & visible).count_ones();
            activity.fragments_hsr_culled += u64::from(culled);
            quad.visible &= visible;
        }
    }
    for &pi in deferred.iter() {
        let binned = bins.prim(pi);
        let draw = &frame.draws[binned.draw_index as usize];
        let start = quads.len();
        if collect_trace {
            rasterize_prim(
                &binned.prim,
                rect,
                origin,
                DepthPolicy::of(draw),
                None,
                depth,
                &mut Collect::<true>(quads),
            );
        } else {
            rasterize_prim(
                &binned.prim,
                rect,
                origin,
                DepthPolicy::of(draw),
                None,
                depth,
                &mut Collect::<false>(quads),
            );
        }
        let len = quads.len() - start;
        if len > 0 {
            pending.push((pi, start, len));
        }
    }
    // Restore submission order after the deferred append.
    pending.sort_by_key(|&(pi, _, _)| pi);
    // Counters + trace emission.
    let mut prims_out = Vec::new();
    for &(pi, start, len) in pending.iter() {
        let binned = bins.prim(pi);
        let draw = &frame.draws[binned.draw_index as usize];
        let range = &quads[start..start + len];
        count_prim(draw, range, shaders, activity);
        if collect_trace {
            let lod = draw
                .texture
                .map(|t| texture_lod(&binned.prim, t.width, t.height))
                .unwrap_or(0);
            prims_out.push(tile_prim(draw, binned.draw_index, lod, range.to_vec()));
        }
    }
    prims_out
}

/// IMR path: full-screen depth buffer, strict submission order, one
/// whole-screen pseudo-tile in the trace.
fn rasterize_immediate(
    frame: &Frame,
    draws: &[TransformedDraw],
    viewport: Viewport,
    shaders: &ShaderTable,
    activity: &mut FrameActivity,
    collect_trace: bool,
    scratch: &mut RasterScratch,
) -> Vec<TileTrace> {
    scratch.depth.reset(viewport.width, viewport.height, false);
    let rect = (0, 0, viewport.width, viewport.height);
    let mut prims_out = Vec::new();
    for transformed in draws {
        let draw = &frame.draws[transformed.geometry.draw_index as usize];
        let policy = DepthPolicy::of(draw);
        for prim in &transformed.prims {
            if collect_trace {
                scratch.quads.clear();
                rasterize_prim(
                    prim,
                    rect,
                    (0, 0),
                    policy,
                    None,
                    &mut scratch.depth,
                    &mut Collect::<true>(&mut scratch.quads),
                );
                if scratch.quads.is_empty() {
                    continue;
                }
                count_prim(draw, &scratch.quads, shaders, activity);
                let lod = draw
                    .texture
                    .map(|t| texture_lod(prim, t.width, t.height))
                    .unwrap_or(0);
                prims_out.push(tile_prim(
                    draw,
                    transformed.geometry.draw_index,
                    lod,
                    scratch.quads.clone(),
                ));
            } else {
                let mut sink = Count::default();
                rasterize_prim(
                    prim,
                    rect,
                    (0, 0),
                    policy,
                    None,
                    &mut scratch.depth,
                    &mut sink,
                );
                if sink.quads != 0 {
                    count_prim_totals(
                        draw,
                        sink.quads,
                        sink.covered,
                        sink.visible,
                        shaders,
                        activity,
                    );
                }
            }
        }
    }
    if collect_trace && !prims_out.is_empty() {
        vec![TileTrace {
            tile_index: 0,
            prims: prims_out,
        }]
    } else {
        Vec::new()
    }
}

/// Updates the activity counters for one primitive's quads.
pub(crate) fn count_prim(
    draw: &DrawCall,
    quads: &[QuadTrace],
    shaders: &ShaderTable,
    activity: &mut FrameActivity,
) {
    let mut covered = 0u64;
    let mut visible = 0u64;
    for q in quads {
        covered += u64::from(q.covered_count());
        visible += u64::from(q.visible_count());
    }
    count_prim_totals(
        draw,
        quads.len() as u64,
        covered,
        visible,
        shaders,
        activity,
    );
}

/// [`count_prim`] on pre-aggregated totals (the no-trace fast path
/// counts without materializing quads).
fn count_prim_totals(
    draw: &DrawCall,
    quads: u64,
    covered: u64,
    visible: u64,
    shaders: &ShaderTable,
    activity: &mut FrameActivity,
) {
    let fs = shaders.fragment_shader(draw.fragment_shader);
    activity.quads_rasterized += quads;
    activity.fragments_rasterized += covered;
    if draw.depth_test {
        activity.fragments_early_z_culled += covered - visible;
    }
    activity.fragments_shaded += visible;
    activity.fragment_shader_invocations[draw.fragment_shader.0 as usize] += visible;
    activity.fragment_instructions += visible * u64::from(fs.instruction_count());
    if draw.texture.is_some() {
        for filter in &fs.texture_samples {
            let idx = match filter {
                megsim_gfx::shader::TextureFilter::Nearest => 0,
                megsim_gfx::shader::TextureFilter::Linear => 1,
                megsim_gfx::shader::TextureFilter::Bilinear => 2,
                megsim_gfx::shader::TextureFilter::Trilinear => 3,
            };
            activity.texture_samples[idx] += visible;
        }
    }
    activity.blend_ops += visible;
}

/// Builds the trace record of one primitive.
pub(crate) fn tile_prim(
    draw: &DrawCall,
    draw_index: u32,
    lod: u32,
    quads: Vec<QuadTrace>,
) -> TilePrim {
    TilePrim {
        draw_index,
        fragment_shader: draw.fragment_shader,
        texture: draw.texture,
        blend: draw.blend,
        depth_test: draw.depth_test,
        // position(2) + depth + 1/w + uv(2) interpolants.
        attributes: 6,
        lod,
        quads,
    }
}

/// Mip level keeping the texel:pixel ratio near one, from the screen-
/// space UV gradient of the primitive (constant under affine
/// interpolation).
pub(crate) fn texture_lod(prim: &Primitive, tex_w: u32, tex_h: u32) -> u32 {
    let area2 = prim.signed_area2();
    if area2.abs() < 1e-6 {
        return 0;
    }
    let inv = 1.0 / area2;
    let [v0, v1, v2] = &prim.v;
    // Barycentric weight gradients (constant per primitive).
    let dw0 = Vec2::new(v1.y - v2.y, v2.x - v1.x) * inv;
    let dw1 = Vec2::new(v2.y - v0.y, v0.x - v2.x) * inv;
    let dw2 = Vec2::new(v0.y - v1.y, v1.x - v0.x) * inv;
    let dudx = v0.uv.x * dw0.x + v1.uv.x * dw1.x + v2.uv.x * dw2.x;
    let dudy = v0.uv.x * dw0.y + v1.uv.x * dw1.y + v2.uv.x * dw2.y;
    let dvdx = v0.uv.y * dw0.x + v1.uv.y * dw1.x + v2.uv.y * dw2.x;
    let dvdy = v0.uv.y * dw0.y + v1.uv.y * dw1.y + v2.uv.y * dw2.y;
    let texels_per_px =
        (dudx.abs().max(dudy.abs()) * tex_w as f32).max(dvdx.abs().max(dvdy.abs()) * tex_h as f32);
    if texels_per_px <= 1.0 {
        0
    } else {
        (texels_per_px.log2().round() as u32).min(16)
    }
}

/// Where the rasterizer delivers finished quads. Monomorphizing over the
/// sink lets the no-trace characterization pass skip UV interpolation
/// and quad materialization entirely.
trait QuadSink {
    /// Whether the caller observes the quad's interpolated UV (trace
    /// collection); when false the rasterizer skips the interpolation.
    const WANT_UV: bool;
    fn push(&mut self, quad: QuadTrace);
}

/// Appends quads to a buffer. `UV` selects texture-coordinate
/// interpolation (true for trace collection; false for the HSR
/// activity-only pass, which still needs coverage masks for pass 2).
struct Collect<'a, const UV: bool>(&'a mut Vec<QuadTrace>);

impl<const UV: bool> QuadSink for Collect<'_, UV> {
    const WANT_UV: bool = UV;
    #[inline]
    fn push(&mut self, quad: QuadTrace) {
        self.0.push(quad);
    }
}

/// Aggregates quad/fragment totals without storing quads — the TBR/IMR
/// activity-only fast path.
#[derive(Default)]
struct Count {
    quads: u64,
    covered: u64,
    visible: u64,
}

impl QuadSink for Count {
    const WANT_UV: bool = false;
    #[inline]
    fn push(&mut self, quad: QuadTrace) {
        self.quads += 1;
        self.covered += u64::from(quad.covered_count());
        self.visible += u64::from(quad.visible_count());
    }
}

/// Upper bound on the *relative* `f32` evaluation error of an edge
/// function: |e_f32 − e_exact| ≤ ~3·2⁻²⁴·(|Δx·dy| + |Δy·dx|); the factor
/// 8·ε = 16·2⁻²⁴ leaves a ~5× safety slack (and swallows the `f64`
/// rounding of the span arithmetic, which is 2²⁹× smaller still).
const EPS_GUARD: f64 = 8.0 * (f32::EPSILON as f64);

/// Bbox widths at or below this skip the span machinery — for tiny
/// primitives (sprites) the per-row `f64` setup outweighs the skipped
/// pixels. Purely a work heuristic; results are identical either way.
const SPAN_MIN_WIDTH: u32 = 8;

/// Per-quad-row conservative spans, in pixel coordinates.
struct RowSpans {
    /// First/last pixel column that may produce coverage.
    cover: (u32, u32),
    /// Pixel columns provably strictly inside every edge for both pixel
    /// rows (quads fully within are trivially accepted), if any.
    accept: Option<(u32, u32)>,
}

/// Computes the conservative cover/accept column spans of one quad row
/// in `f64`. A pixel outside the cover span has `e_f32 < 0` for some
/// edge — guaranteed by the [`EPS_GUARD`] error bound plus one full
/// pixel of slack on every derived bound — so skipping it cannot change
/// any observable output. Returns `None` when the whole row is culled.
#[allow(clippy::too_many_arguments)]
fn row_spans(
    qy: u32,
    two_rows: bool,
    x0: u32,
    x1: u32,
    org: &[(f64, f64); 3],
    ga: &[f64; 3],
    gb: &[f64; 3],
    maxdx: &[f64; 3],
) -> Option<RowSpans> {
    let y_lo = f64::from(qy) + 0.5;
    let y_hi = if two_rows { y_lo + 1.0 } else { y_lo };
    let first = f64::from(x0);
    let last = f64::from(x1 - 1);
    let mut cov_lo = first;
    let mut cov_hi = last;
    let mut acc_lo = first;
    let mut acc_hi = last;
    let mut acc_ok = true;
    for i in 0..3 {
        let (ox, oy) = org[i];
        let dy0 = y_lo - oy;
        let dy1 = y_hi - oy;
        let t0 = ga[i] * dy0;
        let t1 = ga[i] * dy1;
        let (tmin, tmax) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
        let margin = EPS_GUARD * (ga[i].abs() * dy0.abs().max(dy1.abs()) + gb[i].abs() * maxdx[i]);
        let b = gb[i];
        if b == 0.0 {
            // Horizontal edge: e is column-independent on this row.
            if tmax < -margin {
                return None;
            }
            if tmin <= margin {
                acc_ok = false;
            }
        } else {
            // e(x) = t − b·(x + 0.5 − ox): monotone in x, so each edge
            // yields one cover bound (e ≥ −margin possible) and one
            // accept bound (e > margin certain), each slackened a pixel.
            let cov_bound = ox - 0.5 + (tmax + margin) / b;
            let acc_bound = ox - 0.5 + (tmin - margin) / b;
            if b > 0.0 {
                cov_hi = cov_hi.min(cov_bound + 1.0);
                acc_hi = acc_hi.min(acc_bound - 1.0);
            } else {
                cov_lo = cov_lo.max(cov_bound - 1.0);
                acc_lo = acc_lo.max(acc_bound + 1.0);
            }
        }
    }
    if cov_lo > cov_hi || cov_hi < first || cov_lo > last {
        return None;
    }
    let px_lo = cov_lo.floor().max(first) as u32;
    let px_hi = cov_hi.ceil().min(last) as u32;
    if px_lo > px_hi {
        return None;
    }
    let accept = if acc_ok && acc_lo <= acc_hi {
        let alo = acc_lo.ceil().max(f64::from(px_lo)) as u32;
        let ahi = acc_hi.floor().min(f64::from(px_hi)) as u32;
        (alo <= ahi).then_some((alo, ahi))
    } else {
        None
    };
    Some(RowSpans {
        cover: (px_lo, px_hi),
        accept,
    })
}

/// Rasterizes one primitive clipped to `rect`, delivering the produced
/// quads to `sink`. Depth is resolved immediately against `depth` (whose
/// local coordinates start at `origin`); when `winner_seq` is set,
/// passing opaque fragments record their primitive in the winner buffer
/// (HSR).
///
/// This is the edge-stepped hot path: per-row edge terms are hoisted
/// out of the pixel loop, `f64` span tests cull provably-empty quads
/// and trivially accept fully-interior ones, and the `f32` arithmetic
/// for surviving pixels replays the reference operation sequence
/// exactly (see the module docs).
fn rasterize_prim<S: QuadSink>(
    prim: &Primitive,
    (rx0, ry0, rx1, ry1): (u32, u32, u32, u32),
    origin: (u32, u32),
    policy: DepthPolicy,
    winner_seq: Option<u32>,
    depth: &mut DepthBuffer,
    sink: &mut S,
) {
    let a = prim.v[0].pos2();
    let b = prim.v[1].pos2();
    let c = prim.v[2].pos2();
    let area2 = prim.signed_area2();
    debug_assert!(area2 > 0.0, "backfaces culled in geometry");
    let inv_area2 = 1.0 / area2;
    // Clamp the primitive bbox to the rect, snapping to even offsets
    // *relative to the rect origin* so whole 2×2 quads are walked even
    // when the rect corner is odd (non-tile-aligned viewports).
    let (min_x, min_y, max_x, max_y) = prim.bounds();
    let x0 = rx0 + ((min_x.floor().max(rx0 as f32) as u32 - rx0) & !1);
    let y0 = ry0 + ((min_y.floor().max(ry0 as f32) as u32 - ry0) & !1);
    let x1 = (max_x.ceil().min(rx1 as f32) as u32).min(rx1);
    let y1 = (max_y.ceil().min(ry1 as f32) as u32).min(ry1);
    if x0 >= x1 || y0 >= y1 {
        return;
    }
    // Top-left fill rule flags per edge.
    let top_left = |p: Vec2, q: Vec2| (p.y == q.y && q.x < p.x) || q.y > p.y;
    let tl = [top_left(a, b), top_left(b, c), top_left(c, a)];
    // Edge setup: edge i runs org[i] → end[i]; the f32 deltas below are
    // the exact differences the reference edge_function computes.
    let org = [a, b, c];
    let end = [b, c, a];
    let mut ea = [0.0f32; 3]; // Δx per edge
    let mut eb = [0.0f32; 3]; // Δy per edge
    for i in 0..3 {
        ea[i] = end[i].x - org[i].x;
        eb[i] = end[i].y - org[i].y;
    }
    // f64 shadow of the edge setup for the conservative span tests.
    let use_spans = x1 - x0 > SPAN_MIN_WIDTH;
    let org64 = [
        (f64::from(a.x), f64::from(a.y)),
        (f64::from(b.x), f64::from(b.y)),
        (f64::from(c.x), f64::from(c.y)),
    ];
    let ga = [f64::from(ea[0]), f64::from(ea[1]), f64::from(ea[2])];
    let gb = [f64::from(eb[0]), f64::from(eb[1]), f64::from(eb[2])];
    let mut maxdx = [0.0f64; 3];
    for i in 0..3 {
        let lo = f64::from(x0) + 0.5 - org64[i].0;
        let hi = f64::from(x1 - 1) + 0.5 - org64[i].0;
        maxdx[i] = lo.abs().max(hi.abs());
    }
    let mut qy = y0;
    while qy < y1 {
        let two_rows = qy + 1 < y1;
        // Hoisted row terms: t32[j][i] = fl(Δx_i · fl(py_c − org_i.y)) —
        // the row-constant partial of the reference edge_function, at
        // identical rounding.
        let py0 = qy as f32 + 0.5;
        let py1 = (qy + 1) as f32 + 0.5;
        let t32 = [
            [
                ea[0] * (py0 - org[0].y),
                ea[1] * (py0 - org[1].y),
                ea[2] * (py0 - org[2].y),
            ],
            [
                ea[0] * (py1 - org[0].y),
                ea[1] * (py1 - org[1].y),
                ea[2] * (py1 - org[2].y),
            ],
        ];
        let spans = if use_spans {
            match row_spans(qy, two_rows, x0, x1, &org64, &ga, &gb, &maxdx) {
                Some(s) => s,
                None => {
                    qy += 2;
                    continue;
                }
            }
        } else {
            RowSpans {
                cover: (x0, x1 - 1),
                accept: None,
            }
        };
        let (px_lo, px_hi) = spans.cover;
        let mut qx = x0 + ((px_lo - x0) & !1);
        let qx_last = x0 + ((px_hi - x0) & !1);
        while qx <= qx_last {
            // Trivial accept: all four samples provably strictly inside
            // every edge — skip the per-pixel inside tests.
            let accepted = two_rows
                && qx + 1 < x1
                && matches!(spans.accept, Some((alo, ahi)) if qx >= alo && qx < ahi);
            let mut coverage = 0u8;
            let mut visible = 0u8;
            let mut uv_sum = Vec2::default();
            let mut covered_px = 0u32;
            for (mask, dx, dy) in quad_pixels() {
                let px = qx + dx;
                let py = qy + dy;
                if px >= x1 || py >= y1 || px < px_lo || px > px_hi {
                    continue;
                }
                let pxf = px as f32 + 0.5;
                let j = dy as usize;
                let e0 = t32[j][0] - eb[0] * (pxf - org[0].x);
                let e1 = t32[j][1] - eb[1] * (pxf - org[1].x);
                let e2 = t32[j][2] - eb[2] * (pxf - org[2].x);
                if !accepted {
                    let inside = (e0 > 0.0 || (e0 == 0.0 && tl[0]))
                        && (e1 > 0.0 || (e1 == 0.0 && tl[1]))
                        && (e2 > 0.0 || (e2 == 0.0 && tl[2]));
                    if !inside {
                        continue;
                    }
                }
                coverage |= mask;
                covered_px += 1;
                if S::WANT_UV || policy != DepthPolicy::Always {
                    // Affine barycentric interpolation (e0 spans edge
                    // a→b and therefore weights vertex 2, etc.).
                    let w2 = e0 * inv_area2;
                    let w0 = e1 * inv_area2;
                    let w1 = e2 * inv_area2;
                    if S::WANT_UV {
                        let uv = prim.v[0].uv * w0 + prim.v[1].uv * w1 + prim.v[2].uv * w2;
                        uv_sum = uv_sum + uv;
                    }
                    if policy == DepthPolicy::Always {
                        visible |= mask;
                    } else {
                        let z = prim.v[0].z * w0 + prim.v[1].z * w1 + prim.v[2].z * w2;
                        let idx = depth.index(px - origin.0, py - origin.1);
                        if z < depth.depth[idx] {
                            visible |= mask;
                            if policy == DepthPolicy::TestWrite {
                                depth.depth[idx] = z;
                                if let Some(seq) = winner_seq {
                                    depth.winner[idx] = seq;
                                }
                            }
                        }
                    }
                } else {
                    // Depth-ignoring draw with no trace: z and uv are
                    // unobservable, so only coverage is tracked.
                    visible |= mask;
                }
            }
            if coverage != 0 {
                sink.push(QuadTrace {
                    x: qx as u16,
                    y: qy as u16,
                    coverage,
                    visible,
                    uv: if S::WANT_UV {
                        uv_sum / covered_px.max(1) as f32
                    } else {
                        Vec2::default()
                    },
                });
            }
            qx += 2;
        }
        qy += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::bin_primitives;
    use crate::trace::DrawGeometry;
    use megsim_gfx::draw::BlendMode;
    use megsim_gfx::geometry::{Mesh, ScreenVertex, Vertex};
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram, TextureFilter};
    use megsim_gfx::texture::TextureDesc;
    use std::sync::Arc;

    fn sv(x: f32, y: f32, z: f32) -> ScreenVertex {
        ScreenVertex {
            x,
            y,
            z,
            inv_w: 1.0,
            uv: Vec2::new(x / 64.0, y / 64.0),
        }
    }

    fn shaders() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "vs", 8));
        t.add(ShaderProgram::fragment(
            0,
            "fs",
            6,
            vec![TextureFilter::Bilinear],
        ));
        t
    }

    fn dummy_draw(blend: BlendMode, depth_test: bool, textured: bool) -> DrawCall {
        DrawCall {
            mesh: Arc::new(Mesh::new(vec![Vertex::at(Vec3::ZERO); 3], vec![0, 1, 2], 0)),
            transform: Mat4::IDENTITY,
            vertex_shader: ShaderId(0),
            fragment_shader: ShaderId(0),
            texture: textured.then(|| TextureDesc::new(0, 64, 64, 4, 0x1000)),
            blend,
            depth_test,
        }
    }

    fn transformed(prims: Vec<Primitive>, draw_index: u32) -> TransformedDraw {
        TransformedDraw {
            geometry: DrawGeometry {
                draw_index,
                vertex_shader: ShaderId(0),
                vertex_shader_instructions: 8,
                vertex_fetch_addresses: vec![],
                vertices_shaded: 3,
                primitives_assembled: prims.len() as u32,
                primitives_emitted: prims.len() as u32,
            },
            prims,
        }
    }

    /// A screen-aligned right triangle covering roughly half of a square
    /// with corner `(x, y)` and size `s`.
    fn tri_at(x: f32, y: f32, s: f32, z: f32) -> Primitive {
        Primitive {
            v: [sv(x, y, z), sv(x + s, y, z), sv(x, y + s, z)],
        }
    }

    fn run_mode(
        prims_per_draw: Vec<(Vec<Primitive>, DrawCall)>,
        viewport: Viewport,
        mode: RenderMode,
    ) -> (FrameActivity, Vec<TileTrace>) {
        let mut frame = Frame::new();
        let mut draws = Vec::new();
        let mut act = FrameActivity::new(1, 1);
        for (i, (prims, draw)) in prims_per_draw.into_iter().enumerate() {
            frame.draws.push(draw);
            draws.push(transformed(prims, i as u32));
        }
        let mut scratch = RasterScratch::new();
        let bins = bin_primitives(&draws, viewport, &mut act, &mut scratch.bins);
        let tiles = rasterize_frame(
            &frame,
            &draws,
            &bins,
            viewport,
            &shaders(),
            mode,
            &mut act,
            true,
            &mut scratch,
        );
        (act, tiles)
    }

    #[test]
    fn tbr_counts_match_covered_area() {
        let viewport = Viewport::new(64, 64, 32);
        let (act, tiles) = run_mode(
            vec![(
                vec![tri_at(0.0, 0.0, 32.0, 0.5)],
                dummy_draw(BlendMode::Opaque, true, false),
            )],
            viewport,
            RenderMode::TileBased,
        );
        assert!((act.fragments_rasterized as i64 - 512).abs() <= 32);
        assert_eq!(act.fragments_shaded, act.fragments_rasterized);
        assert_eq!(act.fragments_early_z_culled, 0);
        assert_eq!(tiles.len(), 1);
    }

    #[test]
    fn tbr_early_z_culls_only_back_to_front_overdraw() {
        let viewport = Viewport::new(32, 32, 32);
        // Near first, then far: far is culled by early-Z.
        let (act, _) = run_mode(
            vec![(
                vec![tri_at(0.0, 0.0, 16.0, 0.2), tri_at(0.0, 0.0, 16.0, 0.8)],
                dummy_draw(BlendMode::Opaque, true, false),
            )],
            viewport,
            RenderMode::TileBased,
        );
        assert_eq!(act.fragments_early_z_culled * 2, act.fragments_rasterized);
        // Far first, then near: both are shaded (overdraw).
        let (act2, _) = run_mode(
            vec![(
                vec![tri_at(0.0, 0.0, 16.0, 0.8), tri_at(0.0, 0.0, 16.0, 0.2)],
                dummy_draw(BlendMode::Opaque, true, false),
            )],
            viewport,
            RenderMode::TileBased,
        );
        assert_eq!(act2.fragments_early_z_culled, 0);
        assert_eq!(act2.fragments_shaded, act2.fragments_rasterized);
    }

    #[test]
    fn tbdr_removes_overdraw_regardless_of_order() {
        let viewport = Viewport::new(32, 32, 32);
        // Far first, then near — the worst case for TBR.
        let (act, _) = run_mode(
            vec![(
                vec![tri_at(0.0, 0.0, 16.0, 0.8), tri_at(0.0, 0.0, 16.0, 0.2)],
                dummy_draw(BlendMode::Opaque, true, false),
            )],
            viewport,
            RenderMode::TileBasedDeferred,
        );
        // Only the near triangle's fragments are shaded.
        assert_eq!(act.fragments_shaded * 2, act.fragments_rasterized);
        assert!(act.fragments_hsr_culled > 0);
    }

    #[test]
    fn tbdr_still_shades_transparents_on_top() {
        let viewport = Viewport::new(32, 32, 32);
        let (act, _) = run_mode(
            vec![
                (
                    vec![tri_at(0.0, 0.0, 16.0, 0.5)],
                    dummy_draw(BlendMode::Opaque, true, false),
                ),
                (
                    vec![tri_at(0.0, 0.0, 16.0, 0.2)],
                    dummy_draw(BlendMode::AlphaBlend, true, false),
                ),
            ],
            viewport,
            RenderMode::TileBasedDeferred,
        );
        // Opaque + transparent both visible: 2 layers shaded.
        assert_eq!(act.fragments_shaded, act.fragments_rasterized);
        assert_eq!(act.fragments_hsr_culled, 0);
    }

    #[test]
    fn tbdr_occludes_transparent_behind_opaque() {
        let viewport = Viewport::new(32, 32, 32);
        let (act, _) = run_mode(
            vec![
                // Transparent submitted first but *behind* the opaque.
                (
                    vec![tri_at(0.0, 0.0, 16.0, 0.8)],
                    dummy_draw(BlendMode::AlphaBlend, true, false),
                ),
                (
                    vec![tri_at(0.0, 0.0, 16.0, 0.2)],
                    dummy_draw(BlendMode::Opaque, true, false),
                ),
            ],
            viewport,
            RenderMode::TileBasedDeferred,
        );
        // Only the opaque layer is shaded: the transparent fails the
        // deferred depth test.
        assert_eq!(act.fragments_shaded * 2, act.fragments_rasterized);
    }

    #[test]
    fn imr_produces_single_pseudo_tile_spanning_screen() {
        let viewport = Viewport::new(128, 128, 32);
        // A triangle crossing several tile boundaries.
        let (act, tiles) = run_mode(
            vec![(
                vec![tri_at(10.0, 10.0, 100.0, 0.5)],
                dummy_draw(BlendMode::Opaque, true, false),
            )],
            viewport,
            RenderMode::Immediate,
        );
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].tile_index, 0);
        assert!(act.fragments_shaded > 0);
        // One primitive = one trace entry (no per-tile splitting).
        assert_eq!(tiles[0].prims.len(), 1);
    }

    #[test]
    fn imr_and_tbr_shade_the_same_fragments() {
        let viewport = Viewport::new(64, 64, 32);
        let scene = || {
            vec![(
                vec![tri_at(4.0, 4.0, 48.0, 0.5), tri_at(10.0, 10.0, 20.0, 0.2)],
                dummy_draw(BlendMode::Opaque, true, false),
            )]
        };
        let (tbr, _) = run_mode(scene(), viewport, RenderMode::TileBased);
        let (imr, _) = run_mode(scene(), viewport, RenderMode::Immediate);
        assert_eq!(tbr.fragments_rasterized, imr.fragments_rasterized);
        assert_eq!(tbr.fragments_shaded, imr.fragments_shaded);
    }

    #[test]
    fn trace_quads_agree_with_counters_in_all_modes() {
        let viewport = Viewport::new(64, 64, 32);
        for mode in [
            RenderMode::TileBased,
            RenderMode::TileBasedDeferred,
            RenderMode::Immediate,
        ] {
            let (act, tiles) = run_mode(
                vec![(
                    vec![tri_at(3.0, 5.0, 20.0, 0.4), tri_at(6.0, 7.0, 18.0, 0.3)],
                    dummy_draw(BlendMode::Opaque, true, true),
                )],
                viewport,
                mode,
            );
            let visible: u64 = tiles
                .iter()
                .flat_map(|t| &t.prims)
                .flat_map(|p| &p.quads)
                .map(|q| u64::from(q.visible_count()))
                .sum();
            assert_eq!(visible, act.fragments_shaded, "{mode:?}");
        }
    }

    #[test]
    fn odd_viewport_keeps_quads_aligned_to_tile_origins() {
        // 33×33 target with 11-pixel tiles: tile origins (0, 11, 22) are
        // odd, which the old `& !1` snap mis-aligned (it could step a
        // quad *below* the tile origin and underflow the local index).
        let viewport = Viewport::new(33, 33, 11);
        let scene = || {
            vec![(
                vec![tri_at(1.0, 1.0, 30.0, 0.4), tri_at(13.0, 2.0, 17.0, 0.2)],
                dummy_draw(BlendMode::Opaque, true, false),
            )]
        };
        let (tbr, _) = run_mode(scene(), viewport, RenderMode::TileBased);
        // IMR's rect starts at (0, 0), so its rasterization is immune to
        // the tile-origin snapping and serves as the oracle.
        let (imr, _) = run_mode(scene(), viewport, RenderMode::Immediate);
        assert!(tbr.fragments_rasterized > 0);
        assert_eq!(tbr.fragments_rasterized, imr.fragments_rasterized);
        assert_eq!(tbr.fragments_shaded, imr.fragments_shaded);
        // 33×33 with a 32 tile: a single ragged-edge tile per axis pair.
        let viewport33 = Viewport::new(33, 33, 32);
        let (tbr33, _) = run_mode(scene(), viewport33, RenderMode::TileBased);
        let (imr33, _) = run_mode(scene(), viewport33, RenderMode::Immediate);
        assert_eq!(tbr33.fragments_rasterized, imr33.fragments_rasterized);
    }

    #[test]
    fn lod_selection_scales_with_screen_size() {
        // A triangle whose UVs span [0, 1] regardless of screen size: a
        // tiny one compresses many texels per pixel (high mip), a big
        // one approaches 1 texel/pixel (level 0).
        let unit_uv_tri = |s: f32| {
            let mut p = tri_at(0.0, 0.0, s, 0.5);
            p.v[0].uv = Vec2::new(0.0, 0.0);
            p.v[1].uv = Vec2::new(1.0, 0.0);
            p.v[2].uv = Vec2::new(0.0, 1.0);
            p
        };
        let small = unit_uv_tri(4.0);
        let big = unit_uv_tri(512.0);
        assert!(texture_lod(&small, 512, 512) > texture_lod(&big, 512, 512));
        assert_eq!(texture_lod(&big, 512, 512), 0);
    }
}
