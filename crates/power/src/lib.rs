//! # megsim-power
//!
//! Per-unit energy model of the MEGsim reproduction — the role McPAT
//! plays in the paper's toolchain. Its single job in the methodology is
//! §III-C / Fig. 4: measure the fraction of power dissipated in the
//! three phases of the graphics pipeline (Geometry, Tiling, Raster) and
//! turn those fractions into the weights of the vector of
//! characteristics (paper values: 0.108, 0.147, 0.745).
//!
//! Energy is computed as Σ (event count × per-event energy); activity
//! counts come from the timing model's [`FrameStats`]. The default
//! coefficients are calibrated on the synthetic Table II workload suite
//! so the average split matches the paper's Fig. 4.
//!
//! ```
//! use megsim_power::{EnergyModel, PhaseWeights};
//!
//! let weights = PhaseWeights::paper();
//! assert!((weights.geometry + weights.tiling + weights.raster - 1.0).abs() < 1e-9);
//! # let _ = EnergyModel::default();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use megsim_timing::FrameStats;

/// Per-event energy coefficients in nanojoules.
///
/// The absolute scale is irrelevant to MEGsim (only the phase fractions
/// matter); values are in the relative proportions reported for
/// Mali-class mobile GPUs: fragment work dominates, texture sampling is
/// expensive, fixed-function geometry is cheap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyCoefficients {
    /// Vertex Fetcher: one vertex fetched (incl. vertex-cache access).
    pub vertex_fetch: f64,
    /// Vertex Processor: one shader instruction.
    pub vertex_instruction: f64,
    /// Primitive Assembly: one vertex consumed.
    pub prim_assembly_vertex: f64,
    /// Polygon List Builder: one primitive-tile entry written + read.
    pub bin_entry: f64,
    /// Tile cache: one access.
    pub tile_cache_access: f64,
    /// Rasterizer: one quad set up and interpolated.
    pub raster_quad: f64,
    /// Early-Z: one fragment depth test.
    pub early_z_test: f64,
    /// Fragment Processor: one shader instruction.
    pub fragment_instruction: f64,
    /// Texture cache: one access (one texel fetch).
    pub texture_access: f64,
    /// Blending Unit: one fragment blended (incl. color-buffer access).
    pub blend_op: f64,
}

impl Default for EnergyCoefficients {
    fn default() -> Self {
        // Calibrated on the synthetic Table II suite so that the average
        // Geometry/Tiling/Raster split reproduces the paper's Fig. 4
        // (10.8 % / 14.7 % / 74.5 %). The per-vertex and per-bin-entry
        // energies are much larger than per-fragment ones: a vertex
        // carries a 32 B fetch plus a full transform, and one Tiling
        // Engine entry moves a 388 B triangle record (Table I) — versus
        // a 4 B texel or a single fragment ALU op.
        Self {
            vertex_fetch: 4.0,
            vertex_instruction: 2.0,
            prim_assembly_vertex: 2.0,
            bin_entry: 42.0,
            tile_cache_access: 7.5,
            raster_quad: 0.40,
            early_z_test: 0.09,
            fragment_instruction: 0.11,
            texture_access: 0.35,
            blend_op: 0.12,
        }
    }
}

/// Energy attributed to the three pipeline phases of Fig. 4, in nJ.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Geometry Pipeline energy.
    pub geometry: f64,
    /// Tiling Engine energy.
    pub tiling: f64,
    /// Raster Pipeline energy.
    pub raster: f64,
}

impl PowerBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.geometry + self.tiling + self.raster
    }

    /// Phase fractions summing to 1 (all zeros if nothing ran).
    pub fn fractions(&self) -> PhaseWeights {
        let t = self.total();
        if t <= 0.0 {
            return PhaseWeights {
                geometry: 0.0,
                tiling: 0.0,
                raster: 0.0,
            };
        }
        PhaseWeights {
            geometry: self.geometry / t,
            tiling: self.tiling / t,
            raster: self.raster / t,
        }
    }

    /// Adds another breakdown (sequence accumulation).
    pub fn merge(&mut self, other: &PowerBreakdown) {
        self.geometry += other.geometry;
        self.tiling += other.tiling;
        self.raster += other.raster;
    }
}

/// The per-phase weights used to normalize the vector of
/// characteristics (§III-C): VSCV is weighted by `geometry`, FSCV by
/// `raster`, PRIM by `tiling`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseWeights {
    /// Geometry Pipeline fraction (paper: 0.108).
    pub geometry: f64,
    /// Tiling Engine fraction (paper: 0.147).
    pub tiling: f64,
    /// Raster Pipeline fraction (paper: 0.745).
    pub raster: f64,
}

impl PhaseWeights {
    /// The paper's measured weights (Fig. 4 averages).
    pub const fn paper() -> Self {
        Self {
            geometry: 0.108,
            tiling: 0.147,
            raster: 0.745,
        }
    }

    /// Equal weights (ablation baseline).
    pub const fn uniform() -> Self {
        Self {
            geometry: 1.0 / 3.0,
            tiling: 1.0 / 3.0,
            raster: 1.0 / 3.0,
        }
    }
}

impl Default for PhaseWeights {
    fn default() -> Self {
        Self::paper()
    }
}

/// The energy model: coefficients + attribution rules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyModel {
    /// Per-event coefficients.
    pub coefficients: EnergyCoefficients,
}

impl EnergyModel {
    /// Creates a model with explicit coefficients.
    pub fn new(coefficients: EnergyCoefficients) -> Self {
        Self { coefficients }
    }

    /// Computes the per-phase energy of one simulated frame.
    pub fn breakdown(&self, stats: &FrameStats) -> PowerBreakdown {
        let c = &self.coefficients;
        let a = &stats.activity;
        let geometry = a.vertices_fetched as f64 * c.vertex_fetch
            + a.vertex_instructions as f64 * c.vertex_instruction
            + a.vertices_shaded as f64 * c.prim_assembly_vertex;
        let tiling = a.tile_bin_entries as f64 * c.bin_entry
            + stats.tile_cache.accesses() as f64 * c.tile_cache_access;
        let raster = a.quads_rasterized as f64 * c.raster_quad
            + a.fragments_rasterized as f64 * c.early_z_test
            + a.fragment_instructions as f64 * c.fragment_instruction
            + a.texture_memory_accesses() as f64 * c.texture_access
            + a.blend_ops as f64 * c.blend_op;
        PowerBreakdown {
            geometry,
            tiling,
            raster,
        }
    }

    /// Average phase fractions over a set of per-benchmark breakdowns —
    /// the Fig. 4 averaging that produces the §III-C weights. Each
    /// benchmark contributes equally (the paper averages per-benchmark
    /// fractions, not joules).
    pub fn derive_weights<'a>(
        &self,
        breakdowns: impl IntoIterator<Item = &'a PowerBreakdown>,
    ) -> PhaseWeights {
        let mut sum = PhaseWeights {
            geometry: 0.0,
            tiling: 0.0,
            raster: 0.0,
        };
        let mut n = 0usize;
        for b in breakdowns {
            let f = b.fractions();
            sum.geometry += f.geometry;
            sum.tiling += f.tiling;
            sum.raster += f.raster;
            n += 1;
        }
        if n == 0 {
            return PhaseWeights::paper();
        }
        PhaseWeights {
            geometry: sum.geometry / n as f64,
            tiling: sum.tiling / n as f64,
            raster: sum.raster / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_funcsim::FrameActivity;

    fn stats_with(activity: FrameActivity, tile_accesses: u64) -> FrameStats {
        // tile_accesses should be of the same order as bin entries.
        let mut s = FrameStats {
            activity: std::sync::Arc::new(activity),
            ..FrameStats::default()
        };
        s.tile_cache.reads = tile_accesses;
        s.tile_cache.hits = tile_accesses;
        s
    }

    /// Counts in the proportions the Table II suite produces per frame.
    fn typical_activity() -> FrameActivity {
        let mut a = FrameActivity::new(1, 1);
        a.vertices_fetched = 3000;
        a.vertices_shaded = 2000;
        a.vertex_instructions = 60_000;
        a.tile_bin_entries = 500;
        a.quads_rasterized = 15_000;
        a.fragments_rasterized = 55_000;
        a.fragments_shaded = 50_000;
        a.fragment_instructions = 1_000_000;
        a.texture_samples = [0, 0, 50_000, 0];
        a.blend_ops = 50_000;
        a
    }

    #[test]
    fn raster_dominates_typical_frames() {
        let model = EnergyModel::default();
        let b = model.breakdown(&stats_with(typical_activity(), 900));
        let f = b.fractions();
        assert!(f.raster > 0.4, "raster fraction = {}", f.raster);
        assert!(f.geometry < f.raster);
        assert!(f.tiling < f.raster);
        assert!((f.geometry + f.tiling + f.raster - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_weights_sum_to_one() {
        let w = PhaseWeights::paper();
        assert!((w.geometry + w.tiling + w.raster - 1.0).abs() < 1e-9);
        assert_eq!(w.geometry, 0.108);
        assert_eq!(w.tiling, 0.147);
        assert_eq!(w.raster, 0.745);
    }

    #[test]
    fn empty_frame_has_zero_breakdown() {
        let model = EnergyModel::default();
        let b = model.breakdown(&FrameStats::default());
        assert_eq!(b.total(), 0.0);
        let f = b.fractions();
        assert_eq!((f.geometry, f.tiling, f.raster), (0.0, 0.0, 0.0));
    }

    #[test]
    fn derive_weights_averages_fractions_per_benchmark() {
        let model = EnergyModel::default();
        let a = PowerBreakdown {
            geometry: 1.0,
            tiling: 1.0,
            raster: 2.0,
        };
        let b = PowerBreakdown {
            geometry: 0.0,
            tiling: 0.0,
            raster: 10.0,
        };
        let w = model.derive_weights([&a, &b]);
        assert!((w.geometry - 0.125).abs() < 1e-12);
        assert!((w.raster - 0.75).abs() < 1e-12);
    }

    #[test]
    fn derive_weights_empty_falls_back_to_paper() {
        let model = EnergyModel::default();
        let w = model.derive_weights(std::iter::empty());
        assert_eq!(w, PhaseWeights::paper());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PowerBreakdown {
            geometry: 1.0,
            tiling: 2.0,
            raster: 3.0,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), 12.0);
    }
}
