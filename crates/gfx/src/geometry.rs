//! Vertices, meshes and primitives flowing through the pipeline.

use crate::math::{signed_area2, Vec2, Vec3};

/// A model-space vertex as stored in a vertex buffer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vertex {
    /// Model-space position.
    pub position: Vec3,
    /// Surface normal (used only as shading cost proxy).
    pub normal: Vec3,
    /// Texture coordinates.
    pub uv: Vec2,
}

impl Vertex {
    /// Creates a vertex at `position` with a default normal and UV
    /// derived from the XY position (good enough for synthetic scenes).
    pub fn at(position: Vec3) -> Self {
        Self {
            position,
            normal: Vec3::new(0.0, 0.0, 1.0),
            uv: Vec2::new(position.x.fract().abs(), position.y.fract().abs()),
        }
    }

    /// Bytes one vertex occupies in memory (pos + normal + uv, f32).
    pub const SIZE_BYTES: u64 = 32;
}

/// An indexed triangle mesh plus its simulated memory location.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    /// Vertex data.
    pub vertices: Vec<Vertex>,
    /// Triangle list: three indices per triangle.
    pub indices: Vec<u32>,
    /// Base address of the vertex buffer in the simulated address space.
    pub base_address: u64,
}

impl Mesh {
    /// Creates a mesh, validating the index list.
    ///
    /// # Panics
    ///
    /// Panics if the index count is not a multiple of 3 or an index is
    /// out of bounds.
    pub fn new(vertices: Vec<Vertex>, indices: Vec<u32>, base_address: u64) -> Self {
        assert_eq!(
            indices.len() % 3,
            0,
            "triangle list length must be a multiple of 3"
        );
        let n = vertices.len() as u32;
        assert!(indices.iter().all(|&i| i < n), "mesh index out of bounds");
        Self {
            vertices,
            indices,
            base_address,
        }
    }

    /// Number of triangles.
    pub fn triangle_count(&self) -> usize {
        self.indices.len() / 3
    }

    /// Address of vertex `i`'s data.
    pub fn vertex_address(&self, i: u32) -> u64 {
        self.base_address + u64::from(i) * Vertex::SIZE_BYTES
    }
}

/// A vertex after the Geometry Pipeline: screen-space position + varyings.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScreenVertex {
    /// Screen-space X in pixels.
    pub x: f32,
    /// Screen-space Y in pixels.
    pub y: f32,
    /// Depth in `[0, 1]` after the viewport transform.
    pub z: f32,
    /// Reciprocal of clip-space W (kept for perspective correction cost).
    pub inv_w: f32,
    /// Interpolated texture coordinates.
    pub uv: Vec2,
}

impl ScreenVertex {
    /// The 2-D screen position.
    pub fn pos2(&self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }
}

/// A screen-space triangle (the paper's *primitive*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Primitive {
    /// The three transformed vertices.
    pub v: [ScreenVertex; 3],
}

impl Primitive {
    /// Twice the signed screen-space area.
    pub fn signed_area2(&self) -> f32 {
        signed_area2(self.v[0].pos2(), self.v[1].pos2(), self.v[2].pos2())
    }

    /// Axis-aligned screen bounding box `(min_x, min_y, max_x, max_y)`.
    pub fn bounds(&self) -> (f32, f32, f32, f32) {
        let xs = [self.v[0].x, self.v[1].x, self.v[2].x];
        let ys = [self.v[0].y, self.v[1].y, self.v[2].y];
        let min = |a: &[f32; 3]| a.iter().copied().fold(f32::INFINITY, f32::min);
        let max = |a: &[f32; 3]| a.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        (min(&xs), min(&ys), max(&xs), max(&ys))
    }

    /// True when the triangle has (near-)zero area and can be culled.
    pub fn is_degenerate(&self) -> bool {
        self.signed_area2().abs() < 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri(a: (f32, f32), b: (f32, f32), c: (f32, f32)) -> Primitive {
        let sv = |(x, y): (f32, f32)| ScreenVertex {
            x,
            y,
            z: 0.5,
            inv_w: 1.0,
            uv: Vec2::default(),
        };
        Primitive {
            v: [sv(a), sv(b), sv(c)],
        }
    }

    #[test]
    fn mesh_validates_indices() {
        let verts = vec![Vertex::at(Vec3::ZERO); 3];
        let mesh = Mesh::new(verts, vec![0, 1, 2], 0x100);
        assert_eq!(mesh.triangle_count(), 1);
        assert_eq!(mesh.vertex_address(2), 0x100 + 2 * Vertex::SIZE_BYTES);
    }

    #[test]
    #[should_panic(expected = "multiple of 3")]
    fn mesh_rejects_partial_triangles() {
        let _ = Mesh::new(vec![Vertex::default(); 3], vec![0, 1], 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn mesh_rejects_bad_index() {
        let _ = Mesh::new(vec![Vertex::default(); 2], vec![0, 1, 2], 0);
    }

    #[test]
    fn primitive_area_and_bounds() {
        let p = tri((0.0, 0.0), (4.0, 0.0), (0.0, 4.0));
        assert_eq!(p.signed_area2(), 16.0);
        assert_eq!(p.bounds(), (0.0, 0.0, 4.0, 4.0));
        assert!(!p.is_degenerate());
    }

    #[test]
    fn collinear_primitive_is_degenerate() {
        let p = tri((0.0, 0.0), (1.0, 1.0), (2.0, 2.0));
        assert!(p.is_degenerate());
    }
}
