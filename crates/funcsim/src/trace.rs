//! The GPU trace handed from the functional simulator to the
//! cycle-level timing model — the equivalent of TEAPOT's "GPU trace"
//! produced by its instrumented Softpipe renderer.

use std::sync::Arc;

use megsim_gfx::draw::{BlendMode, Viewport};
use megsim_gfx::math::Vec2;
use megsim_gfx::shader::ShaderId;
use megsim_gfx::texture::TextureDesc;

use crate::activity::FrameActivity;
use crate::renderer::RenderMode;

/// Geometry-phase record of one draw call.
#[derive(Debug, Clone, PartialEq)]
pub struct DrawGeometry {
    /// Index of the draw call within the frame.
    pub draw_index: u32,
    /// Vertex shader used.
    pub vertex_shader: ShaderId,
    /// ALU instructions of that shader (denormalized for the hot loop).
    pub vertex_shader_instructions: u32,
    /// Addresses fetched by the Vertex Fetcher, in fetch order.
    pub vertex_fetch_addresses: Vec<u64>,
    /// Unique vertices shaded by the Vertex Processors.
    pub vertices_shaded: u32,
    /// Triangles assembled (pre-cull).
    pub primitives_assembled: u32,
    /// Triangles surviving clip/cull, forwarded to the Tiling Engine.
    pub primitives_emitted: u32,
}

/// One 2×2 quad of fragments produced by the rasterizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadTrace {
    /// Pixel X of the quad's top-left corner.
    pub x: u16,
    /// Pixel Y of the quad's top-left corner.
    pub y: u16,
    /// Coverage bitmask (bit i = pixel i of the quad is covered).
    pub coverage: u8,
    /// Bitmask of covered pixels that also survived Early-Z.
    pub visible: u8,
    /// Texture coordinate at the quad centroid.
    pub uv: Vec2,
}

impl QuadTrace {
    /// Number of covered fragments.
    pub fn covered_count(self) -> u32 {
        self.coverage.count_ones()
    }

    /// Number of fragments that reach the Fragment Processors.
    pub fn visible_count(self) -> u32 {
        self.visible.count_ones()
    }
}

/// The rasterization work of one primitive within one tile.
#[derive(Debug, Clone, PartialEq)]
pub struct TilePrim {
    /// Index of the owning draw call.
    pub draw_index: u32,
    /// Fragment shader applied to visible fragments.
    pub fragment_shader: ShaderId,
    /// Texture bound, if any.
    pub texture: Option<TextureDesc>,
    /// Blend mode of the draw.
    pub blend: BlendMode,
    /// Whether depth testing was enabled.
    pub depth_test: bool,
    /// Number of vertex attributes the rasterizer interpolates
    /// (position + depth + uv components; Table I rasterizes one
    /// attribute per cycle).
    pub attributes: u32,
    /// Mip level selected for this primitive's texture samples (the
    /// texel:pixel ≈ 1 LOD the hardware would pick).
    pub lod: u32,
    /// Quads produced inside this tile.
    pub quads: Vec<QuadTrace>,
}

/// All rasterization work binned to one screen tile.
#[derive(Debug, Clone, PartialEq)]
pub struct TileTrace {
    /// Flattened tile index (row-major).
    pub tile_index: u32,
    /// Primitives overlapping this tile, in submission order.
    pub prims: Vec<TilePrim>,
}

/// The complete per-frame trace: geometry phase + per-tile raster work.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameTrace {
    /// Rendering mode the trace was produced under.
    pub mode: RenderMode,
    /// Render-target geometry.
    pub viewport: Viewport,
    /// Geometry-phase records, one per draw call.
    pub geometry: Vec<DrawGeometry>,
    /// Non-empty tiles in row-major order.
    pub tiles: Vec<TileTrace>,
    /// Aggregate activity counters of the frame, shared by reference:
    /// the timing model's [`FrameStats`] keeps a handle to the same
    /// allocation instead of deep-cloning the per-shader vectors.
    ///
    /// [`FrameStats`]: https://docs.rs/megsim-timing
    pub activity: Arc<FrameActivity>,
}

impl FrameTrace {
    /// Total visible fragments across all tiles (must equal
    /// `activity.fragments_shaded`; checked by integration tests).
    pub fn visible_fragments(&self) -> u64 {
        self.tiles
            .iter()
            .flat_map(|t| &t.prims)
            .flat_map(|p| &p.quads)
            .map(|q| u64::from(q.visible_count()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_counts_follow_masks() {
        let q = QuadTrace {
            x: 0,
            y: 0,
            coverage: 0b1011,
            visible: 0b0011,
            uv: Vec2::default(),
        };
        assert_eq!(q.covered_count(), 3);
        assert_eq!(q.visible_count(), 2);
    }
}
