//! Per-frame activity counters — the output of the "fast functional
//! simulation" step of paper §III-B.
//!
//! These counters are everything MEGsim needs to characterize a frame:
//! per-shader invocation counts (the raw VSCV/FSCV), the number of
//! primitives that reach the Tiling Engine (PRIM), and the remaining
//! pipeline activity used by the timing and power models.

use megsim_gfx::shader::TextureFilter;

/// Activity counters of one rendered frame (or a merged sequence).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameActivity {
    /// Vertex-shader invocations per vertex shader ID (raw VSCV).
    pub vertex_shader_invocations: Vec<u64>,
    /// Fragment-shader invocations per fragment shader ID (raw FSCV).
    pub fragment_shader_invocations: Vec<u64>,
    /// Vertices fetched by the Vertex Fetcher (one per index).
    pub vertices_fetched: u64,
    /// Unique vertices shaded by the Vertex Processors.
    pub vertices_shaded: u64,
    /// Triangles assembled by Primitive Assembly.
    pub primitives_assembled: u64,
    /// Triangles rejected by frustum clipping.
    pub primitives_clipped: u64,
    /// Triangles rejected by back-face culling.
    pub primitives_culled_backface: u64,
    /// Degenerate (zero-area) triangles dropped.
    pub primitives_culled_degenerate: u64,
    /// Triangles passed to the Tiling Engine — the paper's **PRIM**.
    pub primitives_emitted: u64,
    /// Primitive-tile pairs written by the Polygon List Builder.
    pub tile_bin_entries: u64,
    /// Screen tiles with at least one primitive.
    pub tiles_touched: u64,
    /// 2×2 quads processed by the Rasterizer.
    pub quads_rasterized: u64,
    /// Fragments produced by the Rasterizer (covered pixels).
    pub fragments_rasterized: u64,
    /// Fragments discarded by the Early-Z test.
    pub fragments_early_z_culled: u64,
    /// Fragments discarded by Hidden Surface Removal (TBDR mode only).
    pub fragments_hsr_culled: u64,
    /// Fragments shaded by the Fragment Processors.
    pub fragments_shaded: u64,
    /// Texture samples executed, indexed by
    /// [`TextureFilter::ALL`] order.
    pub texture_samples: [u64; 4],
    /// Blending-unit operations (one per shaded fragment).
    pub blend_ops: u64,
    /// ALU instructions executed by vertex shaders.
    pub vertex_instructions: u64,
    /// ALU + texture instructions executed by fragment shaders.
    pub fragment_instructions: u64,
}

impl FrameActivity {
    /// Creates zeroed counters sized for `p` vertex and `q` fragment
    /// shaders.
    pub fn new(vertex_shaders: usize, fragment_shaders: usize) -> Self {
        Self {
            vertex_shader_invocations: vec![0; vertex_shaders],
            fragment_shader_invocations: vec![0; fragment_shaders],
            ..Self::default()
        }
    }

    /// Total texture-memory accesses implied by the samples (each sample
    /// weighted by its filter's access count, paper §III-B).
    pub fn texture_memory_accesses(&self) -> u64 {
        TextureFilter::ALL
            .iter()
            .zip(self.texture_samples)
            .map(|(f, n)| n * u64::from(f.memory_accesses()))
            .sum()
    }

    /// Total shader instructions (vertex + fragment), the numerator of
    /// the IPC metric in Table II.
    pub fn total_instructions(&self) -> u64 {
        self.vertex_instructions + self.fragment_instructions
    }

    /// Accumulates another frame's counters (sequence totals).
    ///
    /// # Panics
    ///
    /// Panics if the shader-table shapes differ.
    pub fn merge(&mut self, other: &FrameActivity) {
        assert_eq!(
            self.vertex_shader_invocations.len(),
            other.vertex_shader_invocations.len(),
            "vertex shader table mismatch"
        );
        assert_eq!(
            self.fragment_shader_invocations.len(),
            other.fragment_shader_invocations.len(),
            "fragment shader table mismatch"
        );
        for (a, b) in self
            .vertex_shader_invocations
            .iter_mut()
            .zip(&other.vertex_shader_invocations)
        {
            *a += b;
        }
        for (a, b) in self
            .fragment_shader_invocations
            .iter_mut()
            .zip(&other.fragment_shader_invocations)
        {
            *a += b;
        }
        self.vertices_fetched += other.vertices_fetched;
        self.vertices_shaded += other.vertices_shaded;
        self.primitives_assembled += other.primitives_assembled;
        self.primitives_clipped += other.primitives_clipped;
        self.primitives_culled_backface += other.primitives_culled_backface;
        self.primitives_culled_degenerate += other.primitives_culled_degenerate;
        self.primitives_emitted += other.primitives_emitted;
        self.tile_bin_entries += other.tile_bin_entries;
        self.tiles_touched += other.tiles_touched;
        self.quads_rasterized += other.quads_rasterized;
        self.fragments_rasterized += other.fragments_rasterized;
        self.fragments_early_z_culled += other.fragments_early_z_culled;
        self.fragments_hsr_culled += other.fragments_hsr_culled;
        self.fragments_shaded += other.fragments_shaded;
        for (a, b) in self.texture_samples.iter_mut().zip(other.texture_samples) {
            *a += b;
        }
        self.blend_ops += other.blend_ops;
        self.vertex_instructions += other.vertex_instructions;
        self.fragment_instructions += other.fragment_instructions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sizes_shader_vectors() {
        let a = FrameActivity::new(3, 5);
        assert_eq!(a.vertex_shader_invocations.len(), 3);
        assert_eq!(a.fragment_shader_invocations.len(), 5);
    }

    #[test]
    fn texture_memory_accesses_apply_filter_weights() {
        let mut a = FrameActivity::new(1, 1);
        a.texture_samples = [1, 1, 1, 1]; // nearest, linear, bilinear, trilinear
        assert_eq!(a.texture_memory_accesses(), 1 + 2 + 4 + 8);
    }

    #[test]
    fn merge_adds_all_counters() {
        let mut a = FrameActivity::new(1, 1);
        a.vertex_shader_invocations[0] = 2;
        a.fragments_shaded = 10;
        let mut b = FrameActivity::new(1, 1);
        b.vertex_shader_invocations[0] = 3;
        b.fragments_shaded = 5;
        b.texture_samples = [1, 0, 0, 2];
        a.merge(&b);
        assert_eq!(a.vertex_shader_invocations[0], 5);
        assert_eq!(a.fragments_shaded, 15);
        assert_eq!(a.texture_samples, [1, 0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = FrameActivity::new(1, 1);
        a.merge(&FrameActivity::new(2, 1));
    }

    #[test]
    fn total_instructions_sums_both_stages() {
        let mut a = FrameActivity::new(1, 1);
        a.vertex_instructions = 7;
        a.fragment_instructions = 11;
        assert_eq!(a.total_instructions(), 18);
    }
}
