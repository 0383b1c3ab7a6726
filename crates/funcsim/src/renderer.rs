//! The functional renderer driver: Geometry Pipeline → (Tiling Engine) →
//! Raster Pipeline, producing [`FrameActivity`] and optionally a full
//! [`FrameTrace`] for the timing model.

use std::cell::RefCell;
use std::sync::Arc;

use megsim_gfx::draw::{Frame, Viewport};
use megsim_gfx::shader::ShaderTable;

use crate::activity::FrameActivity;
use crate::binning::{bin_primitives, TileBins};
use crate::geometry::process_draw;
use crate::raster::{rasterize_frame, RasterScratch};
use crate::trace::FrameTrace;

thread_local! {
    /// Per-thread rendering scratch. Worker-pool threads render many
    /// frames per scope, so the buffers reach steady state quickly and
    /// the hot path stops touching the allocator.
    static SCRATCH: RefCell<RasterScratch> = RefCell::new(RasterScratch::new());
}

/// The rendering architecture being simulated (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RenderMode {
    /// Tile-Based Rendering — the paper's baseline (Mali-style).
    #[default]
    TileBased,
    /// Tile-Based *Deferred* Rendering with Hidden Surface Removal
    /// (PowerVR-style; the extension path the paper names in §IV-A).
    TileBasedDeferred,
    /// Immediate-Mode Rendering — no Tiling Engine, colors written to
    /// the frame buffer in memory as they are produced (desktop-style).
    Immediate,
}

/// Configuration of the functional renderer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderConfig {
    /// Render-target geometry.
    pub viewport: Viewport,
    /// Rendering architecture.
    pub mode: RenderMode,
}

impl RenderConfig {
    /// Tile-based config for a viewport (the common case).
    pub fn tbr(viewport: Viewport) -> Self {
        Self {
            viewport,
            mode: RenderMode::TileBased,
        }
    }
}

impl Default for RenderConfig {
    fn default() -> Self {
        Self {
            viewport: Viewport::MALI450_BASELINE,
            mode: RenderMode::TileBased,
        }
    }
}

/// The functional renderer (Softpipe substitute).
#[derive(Debug, Clone)]
pub struct Renderer {
    config: RenderConfig,
}

impl Renderer {
    /// Creates a renderer for the given configuration.
    pub fn new(config: RenderConfig) -> Self {
        Self { config }
    }

    /// The renderer's configuration.
    pub fn config(&self) -> &RenderConfig {
        &self.config
    }

    /// Renders a frame, returning the full trace (geometry records +
    /// per-tile quads) for cycle-level simulation.
    ///
    /// # Panics
    ///
    /// Panics if a draw call references a shader missing from `shaders`.
    pub fn render_frame(&self, frame: &Frame, shaders: &ShaderTable) -> FrameTrace {
        self.render(frame, shaders, true)
    }

    /// Fast characterization pass: renders a frame collecting only the
    /// activity counters (the paper's "fast functional simulation" that
    /// feeds MEGsim, §III-B).
    pub fn frame_activity(&self, frame: &Frame, shaders: &ShaderTable) -> FrameActivity {
        unwrap_activity(self.render(frame, shaders, false).activity)
    }

    /// [`Self::render_frame`] with caller-owned scratch, for callers
    /// that manage worker state themselves.
    pub fn render_frame_with(
        &self,
        frame: &Frame,
        shaders: &ShaderTable,
        scratch: &mut RasterScratch,
    ) -> FrameTrace {
        self.render_with(frame, shaders, true, scratch)
    }

    /// [`Self::frame_activity`] with caller-owned scratch.
    pub fn frame_activity_with(
        &self,
        frame: &Frame,
        shaders: &ShaderTable,
        scratch: &mut RasterScratch,
    ) -> FrameActivity {
        unwrap_activity(self.render_with(frame, shaders, false, scratch).activity)
    }

    fn render(&self, frame: &Frame, shaders: &ShaderTable, collect_trace: bool) -> FrameTrace {
        SCRATCH.with(|s| self.render_with(frame, shaders, collect_trace, &mut s.borrow_mut()))
    }

    fn render_with(
        &self,
        frame: &Frame,
        shaders: &ShaderTable,
        collect_trace: bool,
        scratch: &mut RasterScratch,
    ) -> FrameTrace {
        let viewport = self.config.viewport;
        let mode = self.config.mode;
        let mut activity = FrameActivity::new(shaders.vertex_count(), shaders.fragment_count());
        // Geometry Pipeline.
        let transformed: Vec<_> = frame
            .draws
            .iter()
            .enumerate()
            .map(|(i, draw)| {
                process_draw(
                    draw,
                    i as u32,
                    viewport,
                    shaders,
                    &mut activity,
                    collect_trace,
                    &mut scratch.geom,
                )
            })
            .collect();
        // Tiling Engine (absent in immediate-mode rendering).
        let bins = if mode == RenderMode::Immediate {
            TileBins::empty()
        } else {
            bin_primitives(&transformed, viewport, &mut activity, &mut scratch.bins)
        };
        // Raster Pipeline.
        let tiles = rasterize_frame(
            frame,
            &transformed,
            &bins,
            viewport,
            shaders,
            mode,
            &mut activity,
            collect_trace,
            scratch,
        );
        FrameTrace {
            mode,
            viewport,
            geometry: transformed.into_iter().map(|t| t.geometry).collect(),
            tiles,
            activity: Arc::new(activity),
        }
    }
}

/// Takes the activity out of a freshly rendered trace's `Arc` without a
/// deep copy (the renderer holds the only handle at this point).
fn unwrap_activity(activity: Arc<FrameActivity>) -> FrameActivity {
    Arc::try_unwrap(activity).unwrap_or_else(|shared| (*shared).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_gfx::draw::{BlendMode, DrawCall};
    use megsim_gfx::geometry::{Mesh, Vertex};
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram, TextureFilter};
    use megsim_gfx::texture::TextureDesc;
    use std::sync::Arc;

    fn shaders() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "vs", 12));
        t.add(ShaderProgram::fragment(
            0,
            "fs",
            9,
            vec![TextureFilter::Bilinear],
        ));
        t
    }

    fn quad_frame() -> Frame {
        let mesh = Arc::new(Mesh::new(
            vec![
                Vertex::at(Vec3::new(-0.5, -0.5, 0.0)),
                Vertex::at(Vec3::new(0.5, -0.5, 0.0)),
                Vertex::at(Vec3::new(0.5, 0.5, 0.0)),
                Vertex::at(Vec3::new(-0.5, 0.5, 0.0)),
            ],
            vec![0, 1, 2, 0, 2, 3],
            0x2000,
        ));
        let mut f = Frame::new();
        f.draws.push(DrawCall {
            mesh,
            transform: Mat4::IDENTITY,
            vertex_shader: ShaderId(0),
            fragment_shader: ShaderId(0),
            texture: Some(TextureDesc::new(0, 128, 128, 4, 0x10_0000)),
            blend: BlendMode::Opaque,
            depth_test: true,
        });
        f
    }

    #[test]
    fn end_to_end_counts_are_consistent() {
        let r = Renderer::new(RenderConfig::tbr(Viewport::new(128, 128, 32)));
        let trace = r.render_frame(&quad_frame(), &shaders());
        let a = &trace.activity;
        assert_eq!(a.primitives_assembled, 2);
        assert_eq!(a.primitives_emitted, 2);
        assert_eq!(a.vertices_shaded, 4);
        // The quad spans NDC [-0.5, 0.5]² = pixels [32, 96]² = 64×64 px.
        assert!((a.fragments_rasterized as i64 - 64 * 64).abs() <= 64 * 2);
        assert_eq!(a.fragments_shaded, a.fragments_rasterized);
        assert_eq!(trace.visible_fragments(), a.fragments_shaded);
        // Bilinear sampling per fragment.
        assert_eq!(a.texture_samples[2], a.fragments_shaded);
        // Quad overlaps 2×2 = 4 tiles (borders land exactly on 32/96).
        assert!(a.tiles_touched >= 4);
        assert_eq!(trace.geometry.len(), 1);
        assert_eq!(trace.mode, RenderMode::TileBased);
    }

    #[test]
    fn activity_only_pass_matches_trace_pass() {
        for mode in [
            RenderMode::TileBased,
            RenderMode::TileBasedDeferred,
            RenderMode::Immediate,
        ] {
            let r = Renderer::new(RenderConfig {
                viewport: Viewport::new(128, 128, 32),
                mode,
            });
            let frame = quad_frame();
            let t = shaders();
            let full = r.render_frame(&frame, &t);
            let fast = r.frame_activity(&frame, &t);
            assert_eq!(*full.activity, fast, "{mode:?}");
        }
    }

    #[test]
    fn immediate_mode_has_no_tiling_activity() {
        let r = Renderer::new(RenderConfig {
            viewport: Viewport::new(128, 128, 32),
            mode: RenderMode::Immediate,
        });
        let trace = r.render_frame(&quad_frame(), &shaders());
        assert_eq!(trace.activity.tile_bin_entries, 0);
        assert_eq!(trace.activity.tiles_touched, 0);
        // PRIM (geometry output) is architecture-independent.
        assert_eq!(trace.activity.primitives_emitted, 2);
        assert_eq!(trace.mode, RenderMode::Immediate);
    }

    #[test]
    fn modes_agree_on_geometry_and_fragments_for_simple_scene() {
        let frame = quad_frame();
        let t = shaders();
        let run = |mode| {
            Renderer::new(RenderConfig {
                viewport: Viewport::new(128, 128, 32),
                mode,
            })
            .frame_activity(&frame, &t)
        };
        let tbr = run(RenderMode::TileBased);
        let tbdr = run(RenderMode::TileBasedDeferred);
        let imr = run(RenderMode::Immediate);
        assert_eq!(tbr.vertices_shaded, imr.vertices_shaded);
        assert_eq!(tbr.primitives_emitted, imr.primitives_emitted);
        // No overdraw in this scene: every mode shades the same pixels.
        assert_eq!(tbr.fragments_shaded, tbdr.fragments_shaded);
        assert_eq!(tbr.fragments_shaded, imr.fragments_shaded);
    }

    #[test]
    fn empty_frame_renders_nothing() {
        let r = Renderer::new(RenderConfig::default());
        let trace = r.render_frame(&Frame::new(), &shaders());
        assert_eq!(trace.activity.fragments_shaded, 0);
        assert!(trace.tiles.is_empty());
    }
}
