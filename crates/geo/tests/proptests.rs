//! Property-based tests for the geospatial substrate.

use proptest::prelude::*;
use retrasyn_geo::{
    BoundingBox, EventTimeline, Grid, GriddedDataset, GriddedStream, Point, QuadGrid, Space,
    StreamDataset, Trajectory, TransitionState, TransitionTable,
};

proptest! {
    /// Every point in the box maps to a valid cell, and the cell's center
    /// maps back to the same cell.
    #[test]
    fn cell_of_always_valid(k in 1u16..=32, x in 0.0f64..1.0, y in 0.0f64..1.0) {
        let g = Grid::unit(k);
        let c = g.cell_of(&Point::new(x, y));
        prop_assert!(c.index() < g.num_cells());
        prop_assert_eq!(g.cell_of(&g.center(c)), c);
    }

    /// Out-of-box points clamp to valid cells.
    #[test]
    fn cell_of_clamps(k in 1u16..=16, x in -10.0f64..10.0, y in -10.0f64..10.0) {
        let g = Grid::unit(k);
        prop_assert!(g.cell_of(&Point::new(x, y)).index() < g.num_cells());
    }

    /// Adjacency is symmetric and reflexive; the compiled topology's
    /// rows agree with it.
    #[test]
    fn adjacency_properties(k in 1u16..=12, a in 0usize..144, b in 0usize..144) {
        let g = Grid::unit(k);
        let topo = g.compile();
        let n = g.num_cells();
        let a = retrasyn_geo::CellId((a % n) as u32);
        let b = retrasyn_geo::CellId((b % n) as u32);
        prop_assert!(g.are_adjacent(a, a));
        prop_assert_eq!(g.are_adjacent(a, b), g.are_adjacent(b, a));
        prop_assert_eq!(g.are_adjacent(a, b), topo.neighbors(a).contains(&b));
        prop_assert_eq!(g.are_adjacent(a, b), topo.are_adjacent(a, b));
    }

    /// The transition index is a bijection over the whole domain.
    #[test]
    fn transition_index_bijection(k in 1u16..=10) {
        let g = Grid::unit(k);
        let t = TransitionTable::new(&g);
        for idx in 0..t.len() {
            prop_assert_eq!(t.index_of(t.state_of(idx)), Some(idx));
        }
    }

    /// Domain size formula: moves + 2|C|, with moves <= 9|C|.
    #[test]
    fn transition_domain_size(k in 1u16..=16) {
        let g = Grid::unit(k);
        let t = TransitionTable::new(&g);
        prop_assert_eq!(t.len(), t.num_moves() + 2 * g.num_cells());
        prop_assert!(t.num_moves() <= 9 * g.num_cells());
        // Lower bound: every cell at least reaches itself... and for k >= 2
        // at least 4 cells (2x2 block).
        let min_block = if k == 1 { 1 } else { 4 };
        prop_assert!(t.num_moves() >= min_block * g.num_cells());
    }

    /// Discretization splits produce only adjacency-respecting segments, and
    /// segment cells/points are conserved.
    #[test]
    fn discretize_preserves_points(
        k in 2u16..=8,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
        start in 0u64..10,
    ) {
        let g = Grid::unit(k);
        let points: Vec<Point> = seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let ds = StreamDataset::new(vec![Trajectory::new(0, start, points.clone())]);
        let gd = ds.discretize(&g);
        // Total cells = total raw points.
        let total: usize = gd.iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, points.len());
        // Segments respect adjacency and tile the time axis contiguously.
        let mut expected_next = start;
        for s in gd.iter() {
            prop_assert_eq!(s.start, expected_next);
            for w in s.cells.windows(2) {
                prop_assert!(g.are_adjacent(w[0], w[1]));
            }
            expected_next = s.end() + 1;
        }
    }

    /// Timeline events per stream: 1 enter + (len−1) moves + at most 1 quit;
    /// every move is adjacent; every event indexes into the domain.
    #[test]
    fn timeline_event_structure(
        k in 2u16..=6,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..30),
    ) {
        let g = Grid::unit(k);
        let points: Vec<Point> = seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let n_points = points.len();
        let ds = StreamDataset::new(vec![Trajectory::new(0, 0, points)]);
        let gd = ds.discretize(&g);
        let table = TransitionTable::new(&g);
        let tl = EventTimeline::build(&gd);
        let mut enters = 0usize;
        let mut moves = 0usize;
        let mut quits = 0usize;
        for t in 0..tl.horizon() {
            for e in tl.at(t) {
                prop_assert!(table.index_of(e.state).is_some());
                match e.state {
                    TransitionState::Enter(_) => enters += 1,
                    TransitionState::Move { .. } => moves += 1,
                    TransitionState::Quit(_) => quits += 1,
                }
            }
        }
        let segs = gd.num_streams();
        prop_assert_eq!(enters, segs);
        prop_assert_eq!(moves, n_points - segs);
        // The final segment survives to the horizon (no quit recorded);
        // all earlier segments quit.
        prop_assert_eq!(quits, segs - 1);
    }

    /// The arena-backed columnar constructor is equivalent to flattening
    /// owned rows: building a dataset via `from_columns` yields exactly the
    /// same views, owned round-trips, and aggregate counts as
    /// `from_streams` over the same content.
    #[test]
    fn arena_backed_dataset_matches_from_streams(
        k in 2u16..=6,
        specs in prop::collection::vec((0u64..20, 1usize..12, 0usize..1000), 1..25),
    ) {
        let g = Grid::unit(k);
        let topo = g.compile();
        let mut streams = Vec::new();
        let (mut ids, mut starts, mut offsets, mut cells) =
            (Vec::new(), Vec::new(), vec![0usize], Vec::new());
        for (i, &(start, len, seed)) in specs.iter().enumerate() {
            // Deterministic adjacency-respecting walk from a seeded cell.
            let mut cur = retrasyn_geo::CellId((seed % g.num_cells()) as u32);
            let mut walk = vec![cur];
            for step in 1..len {
                let neigh = topo.neighbors(cur);
                cur = neigh[(seed + step) % neigh.len()];
                walk.push(cur);
            }
            ids.push(i as u64);
            starts.push(start);
            cells.extend_from_slice(&walk);
            offsets.push(cells.len());
            streams.push(GriddedStream { id: i as u64, start, cells: walk });
        }
        let horizon = streams.iter().map(|s| s.end() + 1).max().unwrap();
        let rows = GriddedDataset::from_streams(g.clone(), streams.clone(), horizon);
        let cols = GriddedDataset::from_columns(g.clone(), ids, starts, offsets, cells, horizon);
        prop_assert_eq!(&rows, &cols);
        prop_assert!(rows.iter().eq(cols.iter()));
        prop_assert_eq!(cols.to_streams(), streams);
        prop_assert_eq!(rows.total_counts(), cols.total_counts());
        for t in 0..horizon {
            prop_assert_eq!(rows.snapshot_counts(t), cols.snapshot_counts(t));
            prop_assert_eq!(rows.active_count(t), cols.active_count(t));
        }
    }

    /// Quad-tree leaves tile the bounding box exactly: in max-depth integer
    /// units the leaf areas sum to the full square and never overlap
    /// (`fit` + `try_from_leaves` agree), and every point maps to exactly
    /// one leaf whose rect contains it (point→cell is total).
    #[test]
    fn quad_leaves_tile_and_locate(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..80),
        cap in 1usize..12,
        depth in 1u8..=5,
        probe in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let points: Vec<Point> = seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let quad = QuadGrid::fit(BoundingBox::unit(), &points, cap, depth);
        // Exact tiling in integer units.
        let total = 1u64 << (2 * depth);
        let covered: u64 = quad
            .leaves()
            .iter()
            .map(|l| {
                let s = l.side(depth) as u64;
                s * s
            })
            .sum();
        prop_assert_eq!(covered, total);
        // from_leaves accepts its own output (overlap/hole detector).
        let rebuilt = QuadGrid::from_leaves(BoundingBox::unit(), depth, quad.leaves().to_vec());
        prop_assert_eq!(&quad, &rebuilt);
        // point→cell is total and consistent with the rect geometry.
        let topo = quad.compile();
        let p = Point::new(probe.0, probe.1);
        let c = topo.cell_of(&p);
        prop_assert!(c.index() < topo.num_cells());
        prop_assert!(topo.cell_rect(c).contains(&p));
    }

    /// Quad-tree adjacency is symmetric, self-inclusive, and each row is
    /// strictly ascending.
    #[test]
    fn quad_adjacency_invariants(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..60),
        cap in 1usize..10,
        depth in 1u8..=4,
    ) {
        let points: Vec<Point> = seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let topo = QuadGrid::fit(BoundingBox::unit(), &points, cap, depth).compile();
        for a in topo.cells() {
            let row = topo.neighbors(a);
            prop_assert!(row.binary_search(&a).is_ok(), "row of {:?} missing self", a);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row of {:?} not ascending", a);
            for &b in row {
                prop_assert!(topo.are_adjacent(b, a), "asymmetric adjacency {:?} {:?}", a, b);
            }
        }
    }

    /// Subsampling keeps the requested fraction within rounding.
    #[test]
    fn subsample_fraction(n in 1usize..200, denom in 1usize..10) {
        let fraction = 1.0 / denom as f64;
        let trajs: Vec<Trajectory> = (0..n)
            .map(|i| Trajectory::new(i as u64, 0, vec![Point::new(0.5, 0.5)]))
            .collect();
        let ds = StreamDataset::new(trajs);
        let sub = ds.subsample(fraction);
        let expected = n.div_ceil(denom);
        prop_assert_eq!(sub.trajectories().len(), expected);
    }
}

#[test]
fn bbox_grid_interop_nonunit() {
    let bb = BoundingBox::new(Point::new(100.0, -50.0), Point::new(300.0, 75.0));
    let g = Grid::new(12, bb);
    for c in g.cells() {
        assert_eq!(g.cell_of(&g.center(c)), c);
    }
}
