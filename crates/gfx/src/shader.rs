//! Shader program descriptions.
//!
//! MEGsim characterizes frames by the number of times each *program
//! shader* executes, weighted by its instruction count (paper §III-B).
//! The simulator therefore models shaders as cost descriptors — an ALU
//! instruction count plus a list of texture sampling operations — rather
//! than as executable ISA programs. This is exactly the information the
//! paper extracts from its instrumented Softpipe functional renderer.

/// Identifies a shader program within one workload.
///
/// Vertex and fragment shaders live in separate ID spaces, mirroring the
/// paper's separate VSCV/FSCV vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShaderId(pub u32);

impl std::fmt::Display for ShaderId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The pipeline stage a shader runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShaderKind {
    /// Runs in the Vertex Processors of the Geometry Pipeline.
    Vertex,
    /// Runs in the Fragment Processors of the Raster Pipeline.
    Fragment,
}

/// Texture filtering mode of a sampling instruction.
///
/// The paper weights texture accesses by the number of memory accesses
/// each filter performs: linear = 2, bilinear = 4, trilinear = 8
/// (§III-B). `Nearest` (a single texel fetch) completes the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextureFilter {
    /// Single texel fetch.
    Nearest,
    /// Two texel fetches.
    Linear,
    /// Four texel fetches (2×2 footprint).
    Bilinear,
    /// Eight texel fetches (2×2 footprint on two mip levels).
    Trilinear,
}

impl TextureFilter {
    /// All filter modes, in increasing cost order.
    pub const ALL: [TextureFilter; 4] = [
        TextureFilter::Nearest,
        TextureFilter::Linear,
        TextureFilter::Bilinear,
        TextureFilter::Trilinear,
    ];

    /// Number of texture-memory accesses one sample performs.
    ///
    /// These are the weights of paper §III-B.
    pub const fn memory_accesses(self) -> u32 {
        match self {
            TextureFilter::Nearest => 1,
            TextureFilter::Linear => 2,
            TextureFilter::Bilinear => 4,
            TextureFilter::Trilinear => 8,
        }
    }
}

/// A cost-model description of one shader program.
#[derive(Debug, Clone, PartialEq)]
pub struct ShaderProgram {
    /// Program identifier (unique per kind within a workload).
    pub id: ShaderId,
    /// Stage this program runs on.
    pub kind: ShaderKind,
    /// Human-readable name (e.g. `"skinned_car_vs"`).
    pub name: String,
    /// Number of non-texture ALU/control instructions per invocation.
    pub alu_instructions: u32,
    /// Texture sampling instructions, one entry per sample operation.
    pub texture_samples: Vec<TextureFilter>,
}

impl ShaderProgram {
    /// Creates a vertex shader with no texture samples.
    pub fn vertex(id: u32, name: impl Into<String>, alu_instructions: u32) -> Self {
        Self {
            id: ShaderId(id),
            kind: ShaderKind::Vertex,
            name: name.into(),
            alu_instructions,
            texture_samples: Vec::new(),
        }
    }

    /// Creates a fragment shader.
    pub fn fragment(
        id: u32,
        name: impl Into<String>,
        alu_instructions: u32,
        texture_samples: Vec<TextureFilter>,
    ) -> Self {
        Self {
            id: ShaderId(id),
            kind: ShaderKind::Fragment,
            name: name.into(),
            alu_instructions,
            texture_samples,
        }
    }

    /// Total dynamic instructions per invocation, with texture
    /// instructions counted once each (the raw instruction count).
    pub fn instruction_count(&self) -> u32 {
        self.alu_instructions + self.texture_samples.len() as u32
    }

    /// Instruction count with texture samples weighted by the number of
    /// memory accesses they generate, per paper §III-B.
    ///
    /// This is the per-invocation weight used when building the vector of
    /// characteristics.
    pub fn weighted_instruction_count(&self) -> u64 {
        let tex: u64 = self
            .texture_samples
            .iter()
            .map(|f| u64::from(f.memory_accesses()))
            .sum();
        u64::from(self.alu_instructions) + tex
    }

    /// Number of texture-memory accesses one invocation performs.
    pub fn texture_memory_accesses(&self) -> u32 {
        self.texture_samples
            .iter()
            .map(|f| f.memory_accesses())
            .sum()
    }
}

/// The shader library of one workload: `p` vertex + `q` fragment shaders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShaderTable {
    vertex: Vec<ShaderProgram>,
    fragment: Vec<ShaderProgram>,
}

impl ShaderTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a shader program to the table.
    ///
    /// # Panics
    ///
    /// Panics if the program's ID does not equal its insertion index
    /// within its kind — the contiguous-ID invariant keeps the
    /// characteristic-vector layout of Fig. 2 trivially indexable.
    pub fn add(&mut self, program: ShaderProgram) -> ShaderId {
        let list = match program.kind {
            ShaderKind::Vertex => &mut self.vertex,
            ShaderKind::Fragment => &mut self.fragment,
        };
        assert_eq!(
            program.id.0 as usize,
            list.len(),
            "shader ids must be contiguous per kind"
        );
        let id = program.id;
        list.push(program);
        id
    }

    /// Number of vertex shaders (`p` in Fig. 2).
    pub fn vertex_count(&self) -> usize {
        self.vertex.len()
    }

    /// Number of fragment shaders (`q` in Fig. 2).
    pub fn fragment_count(&self) -> usize {
        self.fragment.len()
    }

    /// Looks up a vertex shader.
    ///
    /// # Panics
    ///
    /// Panics if the ID is unknown.
    pub fn vertex_shader(&self, id: ShaderId) -> &ShaderProgram {
        &self.vertex[id.0 as usize]
    }

    /// Looks up a fragment shader.
    ///
    /// # Panics
    ///
    /// Panics if the ID is unknown.
    pub fn fragment_shader(&self, id: ShaderId) -> &ShaderProgram {
        &self.fragment[id.0 as usize]
    }

    /// Iterates over the vertex shaders in ID order.
    pub fn vertex_shaders(&self) -> impl Iterator<Item = &ShaderProgram> {
        self.vertex.iter()
    }

    /// Iterates over the fragment shaders in ID order.
    pub fn fragment_shaders(&self) -> impl Iterator<Item = &ShaderProgram> {
        self.fragment.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_weights_match_paper() {
        assert_eq!(TextureFilter::Nearest.memory_accesses(), 1);
        assert_eq!(TextureFilter::Linear.memory_accesses(), 2);
        assert_eq!(TextureFilter::Bilinear.memory_accesses(), 4);
        assert_eq!(TextureFilter::Trilinear.memory_accesses(), 8);
    }

    #[test]
    fn weighted_instruction_count_includes_texture_weights() {
        let fs = ShaderProgram::fragment(
            0,
            "lit",
            10,
            vec![TextureFilter::Bilinear, TextureFilter::Trilinear],
        );
        assert_eq!(fs.instruction_count(), 12);
        assert_eq!(fs.weighted_instruction_count(), 10 + 4 + 8);
        assert_eq!(fs.texture_memory_accesses(), 12);
    }

    #[test]
    fn vertex_shader_weight_equals_alu_count() {
        let vs = ShaderProgram::vertex(0, "xform", 25);
        assert_eq!(vs.weighted_instruction_count(), 25);
    }

    #[test]
    fn table_tracks_kinds_separately() {
        let mut table = ShaderTable::new();
        table.add(ShaderProgram::vertex(0, "v0", 10));
        table.add(ShaderProgram::vertex(1, "v1", 20));
        table.add(ShaderProgram::fragment(0, "f0", 5, vec![]));
        assert_eq!(table.vertex_count(), 2);
        assert_eq!(table.fragment_count(), 1);
        assert_eq!(table.vertex_shader(ShaderId(1)).alu_instructions, 20);
        assert_eq!(table.fragment_shader(ShaderId(0)).name, "f0");
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn table_rejects_non_contiguous_ids() {
        let mut table = ShaderTable::new();
        table.add(ShaderProgram::vertex(3, "bad", 1));
    }
}
