//! Uniform 3D finite-difference mesh.

/// A uniform rectilinear mesh of `nx x ny x nz` points with spacings
/// `(dx, dy, dz)` (Bohr) and an origin, spanning one DC domain or the
/// global cell.
///
/// ```
/// use dcmesh_grid::Mesh3;
/// let m = Mesh3::cubic(8, 0.5);
/// assert_eq!(m.len(), 512);
/// let idx = m.idx(1, 2, 3);
/// assert_eq!(m.coords(idx), (1, 2, 3));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Mesh3 {
    /// Points along x.
    pub nx: usize,
    /// Points along y.
    pub ny: usize,
    /// Points along z.
    pub nz: usize,
    /// Spacing along x (Bohr).
    pub dx: f64,
    /// Spacing along y (Bohr).
    pub dy: f64,
    /// Spacing along z (Bohr).
    pub dz: f64,
    /// Physical coordinate of point (0, 0, 0).
    pub origin: [f64; 3],
}

impl Mesh3 {
    /// A mesh with the given point counts and spacings, origin at zero.
    pub fn new(nx: usize, ny: usize, nz: usize, dx: f64, dy: f64, dz: f64) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "mesh dimensions must be positive"
        );
        assert!(
            dx > 0.0 && dy > 0.0 && dz > 0.0,
            "mesh spacings must be positive"
        );
        Self {
            nx,
            ny,
            nz,
            dx,
            dy,
            dz,
            origin: [0.0; 3],
        }
    }

    /// A cubic mesh: `n^3` points with equal spacing `h`.
    pub fn cubic(n: usize, h: f64) -> Self {
        Self::new(n, n, n, h, h, h)
    }

    /// Total number of points.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True for a degenerate zero-point mesh (never constructible here).
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index with z fastest: `k + nz * (j + ny * i)` — matches the
    /// paper's `psi[...][i][j][k]` loop nests.
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        k + self.nz * (j + self.ny * i)
    }

    /// Inverse of [`Mesh3::idx`].
    #[inline(always)]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        debug_assert!(idx < self.len());
        let k = idx % self.nz;
        let j = (idx / self.nz) % self.ny;
        let i = idx / (self.nz * self.ny);
        (i, j, k)
    }

    /// Physical position of a mesh point.
    #[inline(always)]
    pub fn position(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        [
            self.origin[0] + i as f64 * self.dx,
            self.origin[1] + j as f64 * self.dy,
            self.origin[2] + k as f64 * self.dz,
        ]
    }

    /// Volume element `dx * dy * dz` (Bohr^3).
    #[inline(always)]
    pub fn dv(&self) -> f64 {
        self.dx * self.dy * self.dz
    }

    /// Physical extents `(Lx, Ly, Lz)`.
    #[inline(always)]
    pub fn lengths(&self) -> [f64; 3] {
        [
            self.nx as f64 * self.dx,
            self.ny as f64 * self.dy,
            self.nz as f64 * self.dz,
        ]
    }

    /// Center of the mesh in physical coordinates.
    pub fn center(&self) -> [f64; 3] {
        let l = self.lengths();
        [
            self.origin[0] + 0.5 * (l[0] - self.dx),
            self.origin[1] + 0.5 * (l[1] - self.dy),
            self.origin[2] + 0.5 * (l[2] - self.dz),
        ]
    }

    /// Nearest mesh point to a physical position, clamped into the mesh.
    pub fn nearest_point(&self, pos: [f64; 3]) -> (usize, usize, usize) {
        let clampi = |x: f64, d: f64, o: f64, n: usize| -> usize {
            let raw = ((x - o) / d).round();
            if raw <= 0.0 {
                0
            } else {
                (raw as usize).min(n - 1)
            }
        };
        (
            clampi(pos[0], self.dx, self.origin[0], self.nx),
            clampi(pos[1], self.dy, self.origin[1], self.ny),
            clampi(pos[2], self.dz, self.origin[2], self.nz),
        )
    }

    /// Iterate all (i, j, k) triples in index order.
    pub fn iter_points(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        (0..nx).flat_map(move |i| (0..ny).flat_map(move |j| (0..nz).map(move |k| (i, j, k))))
    }

    /// Number of points on a boundary face perpendicular to `axis`
    /// (0 = x, 1 = y, 2 = z) — the halo-exchange message size in scalars.
    pub fn face_len(&self, axis: usize) -> usize {
        match axis {
            0 => self.ny * self.nz,
            1 => self.nx * self.nz,
            2 => self.nx * self.ny,
            _ => panic!("axis must be 0, 1, or 2"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let m = Mesh3::new(5, 7, 3, 0.5, 0.5, 0.5);
        for i in 0..5 {
            for j in 0..7 {
                for k in 0..3 {
                    let idx = m.idx(i, j, k);
                    assert_eq!(m.coords(idx), (i, j, k));
                }
            }
        }
    }

    #[test]
    fn z_is_fastest_index() {
        let m = Mesh3::new(4, 4, 4, 1.0, 1.0, 1.0);
        assert_eq!(m.idx(0, 0, 1) - m.idx(0, 0, 0), 1);
        assert_eq!(m.idx(0, 1, 0) - m.idx(0, 0, 0), 4);
        assert_eq!(m.idx(1, 0, 0) - m.idx(0, 0, 0), 16);
    }

    #[test]
    fn positions_and_volume() {
        let mut m = Mesh3::new(4, 4, 4, 0.25, 0.5, 1.0);
        m.origin = [1.0, 2.0, 3.0];
        assert_eq!(m.position(2, 1, 3), [1.5, 2.5, 6.0]);
        assert!((m.dv() - 0.125).abs() < 1e-15);
        assert_eq!(m.lengths(), [1.0, 2.0, 4.0]);
    }

    #[test]
    fn nearest_point_clamps() {
        let m = Mesh3::cubic(8, 0.5);
        assert_eq!(m.nearest_point([-10.0, 0.0, 0.0]).0, 0);
        assert_eq!(m.nearest_point([100.0, 0.0, 0.0]).0, 7);
        assert_eq!(m.nearest_point([1.0, 1.26, 0.0]), (2, 3, 0));
    }

    #[test]
    fn iter_covers_all_points_in_order() {
        let m = Mesh3::new(2, 3, 2, 1.0, 1.0, 1.0);
        let pts: Vec<_> = m.iter_points().collect();
        assert_eq!(pts.len(), m.len());
        for (n, &(i, j, k)) in pts.iter().enumerate() {
            assert_eq!(m.idx(i, j, k), n);
        }
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        Mesh3::new(0, 4, 4, 1.0, 1.0, 1.0);
    }
}
