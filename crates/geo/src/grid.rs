//! The uniform K×K grid discretization (§III-B, "Geospatial
//! Discretization") and its reachability structure.
//!
//! Reachability follows the paper: between two consecutive timestamps a
//! user can only move between *adjacent* cells (Chebyshev distance ≤ 1),
//! including staying in place, so each cell has at most 9 reachable
//! successors and the movement state space shrinks from `|C|²` to
//! `O(9|C|)`.

use crate::point::{BoundingBox, Point};

/// Identifier of a cell in a dense cell universe.
///
/// For a uniform grid this is the row-major index `y·K + x`; adaptive
/// topologies assign ids in their own canonical order. `u32` leaves
/// headroom for fine adaptive discretizations that overflow `u16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// The dense index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A uniform K×K grid over a bounding box — the paper's discretization.
///
/// Cells are numbered row-major (`y·K + x`). As a [`crate::Space`] it
/// compiles to a [`crate::Topology`] whose adjacency row for each cell is
/// the in-bounds 3×3 block around it, in ascending index order.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    k: u16,
    bbox: BoundingBox,
}

impl Grid {
    /// Grid with `k × k` cells over `bbox`. `k` must be at least 1 (any
    /// `u16` granularity keeps the cell universe within `u32`).
    pub fn new(k: u16, bbox: BoundingBox) -> Self {
        assert!(k >= 1, "grid granularity k={k} out of range [1, 65535]");
        Grid { k, bbox }
    }

    /// Grid over the unit square.
    pub fn unit(k: u16) -> Self {
        Grid::new(k, BoundingBox::unit())
    }

    /// Discretization granularity K.
    #[inline]
    pub fn k(&self) -> u16 {
        self.k
    }

    /// The covered bounding box.
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Total number of cells `|C| = K²`.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.k as usize * self.k as usize
    }

    /// Cell containing point `p` (points outside the box are clamped in).
    pub fn cell_of(&self, p: &Point) -> CellId {
        let p = self.bbox.clamp(*p);
        let fx = (p.x - self.bbox.min.x) / self.bbox.width();
        let fy = (p.y - self.bbox.min.y) / self.bbox.height();
        let x = ((fx * self.k as f64) as u16).min(self.k - 1);
        let y = ((fy * self.k as f64) as u16).min(self.k - 1);
        self.cell_at(x, y)
    }

    /// Cell at grid coordinates `(x, y)`.
    #[inline]
    pub fn cell_at(&self, x: u16, y: u16) -> CellId {
        debug_assert!(x < self.k && y < self.k);
        CellId(y as u32 * self.k as u32 + x as u32)
    }

    /// Grid coordinates `(x, y)` of a cell.
    #[inline]
    pub fn cell_xy(&self, c: CellId) -> (u16, u16) {
        debug_assert!(c.index() < self.num_cells());
        ((c.0 % self.k as u32) as u16, (c.0 / self.k as u32) as u16)
    }

    /// Continuous center point of a cell.
    pub fn center(&self, c: CellId) -> Point {
        let (x, y) = self.cell_xy(c);
        Point::new(
            self.bbox.min.x + (x as f64 + 0.5) / self.k as f64 * self.bbox.width(),
            self.bbox.min.y + (y as f64 + 0.5) / self.k as f64 * self.bbox.height(),
        )
    }

    /// Uniformly random point inside a cell.
    pub fn random_point_in<R: rand::Rng + ?Sized>(&self, c: CellId, rng: &mut R) -> Point {
        let (x, y) = self.cell_xy(c);
        let cw = self.bbox.width() / self.k as f64;
        let ch = self.bbox.height() / self.k as f64;
        Point::new(
            self.bbox.min.x + (x as f64 + rng.random::<f64>()) * cw,
            self.bbox.min.y + (y as f64 + rng.random::<f64>()) * ch,
        )
    }

    /// Whether two cells are adjacent (Chebyshev distance ≤ 1; a cell is
    /// adjacent to itself).
    pub fn are_adjacent(&self, a: CellId, b: CellId) -> bool {
        let (ax, ay) = self.cell_xy(a);
        let (bx, by) = self.cell_xy(b);
        ax.abs_diff(bx) <= 1 && ay.abs_diff(by) <= 1
    }

    /// Iterator over all cells in index order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.num_cells() as u32).map(CellId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_of_corners_and_interior() {
        let g = Grid::unit(4);
        assert_eq!(g.cell_of(&Point::new(0.0, 0.0)), CellId(0));
        // Max corner clamps into the last cell.
        assert_eq!(g.cell_of(&Point::new(1.0, 1.0)), CellId(15));
        assert_eq!(g.cell_of(&Point::new(0.3, 0.6)), g.cell_at(1, 2));
        // Out-of-box points clamp.
        assert_eq!(g.cell_of(&Point::new(-5.0, 9.0)), g.cell_at(0, 3));
    }

    #[test]
    fn xy_roundtrip() {
        let g = Grid::unit(7);
        for c in g.cells() {
            let (x, y) = g.cell_xy(c);
            assert_eq!(g.cell_at(x, y), c);
        }
    }

    #[test]
    fn center_maps_back_to_cell() {
        let g = Grid::new(9, BoundingBox::new(Point::new(-3.0, 2.0), Point::new(5.0, 10.0)));
        for c in g.cells() {
            assert_eq!(g.cell_of(&g.center(c)), c);
        }
    }

    #[test]
    fn adjacency_symmetric_and_reflexive() {
        let g = Grid::unit(4);
        for a in g.cells() {
            assert!(g.are_adjacent(a, a));
            for b in g.cells() {
                assert_eq!(g.are_adjacent(a, b), g.are_adjacent(b, a));
            }
        }
    }

    #[test]
    fn k2_all_cells_mutually_adjacent() {
        let g = Grid::unit(2);
        for a in g.cells() {
            for b in g.cells() {
                assert!(g.are_adjacent(a, b));
            }
        }
    }

    #[test]
    fn random_point_lands_in_cell() {
        use rand::{rngs::StdRng, SeedableRng};
        let g = Grid::unit(8);
        let mut rng = StdRng::seed_from_u64(1);
        for c in g.cells() {
            for _ in 0..5 {
                let p = g.random_point_in(c, &mut rng);
                assert_eq!(g.cell_of(&p), c);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_zero_rejected() {
        let _ = Grid::unit(0);
    }
}
