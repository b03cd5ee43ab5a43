//! Adaptive discretization: fit a density-adaptive quad grid to a skewed
//! workload, compile it into a [`Topology`], and run the same private
//! synthesis pipeline on it as on the equivalent fine uniform grid.
//!
//! ```sh
//! cargo run --release --example adaptive_discretization
//! ```
//!
//! The quad grid refines only where the population actually is, so it
//! reaches the fine grid's resolution in the hot areas with a fraction of
//! the cells — which shrinks the LDP transition domain every user reports
//! over — while the occupancy-JSD of the released database stays
//! comparable.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::metrics::density::density_error;
use retrasyn::prelude::*;

/// Maximum quad refinement depth; the equivalent fine uniform grid is
/// `2^DEPTH` × `2^DEPTH`.
const DEPTH: u8 = 6;

fn main() {
    // 1. A skewed workload: objects follow a road network, so density
    //    concentrates along highways and popular blocks.
    let mut rng = StdRng::seed_from_u64(11);
    let dataset =
        BrinkhoffConfig { timestamps: 80, ..BrinkhoffConfig::default() }.generate(&mut rng);
    println!("workload : {} streams over {} timestamps", dataset.trajectories().len(), 80);

    // 2. Fit the quad grid to a public density sample (here: the first
    //    few timestamps; a deployment would use a first collection round
    //    or public map data). Regions with more than `cap` sample points
    //    split, down to `DEPTH`.
    let sample: Vec<Point> =
        (0..5).flat_map(|t| dataset.active_points(t).map(|(_, p)| *p)).collect();
    let quad = QuadGrid::fit(BoundingBox::unit(), &sample, 12, DEPTH);
    let fine = Grid::unit(1 << DEPTH);

    // 3. Both spaces compile into the same flat `Topology` the whole
    //    pipeline runs on; the engine never knows which one it got.
    let (quad_cells, quad_err) = run(&dataset, quad.compile());
    let (fine_cells, fine_err) = run(&dataset, fine.compile());
    println!("uniform  : {fine_cells:5} cells, occupancy-JSD {fine_err:.4}");
    println!("quad     : {quad_cells:5} cells, occupancy-JSD {quad_err:.4}");

    assert!(
        quad_cells * 2 < fine_cells,
        "adaptive grid should need far fewer cells ({quad_cells} vs {fine_cells})"
    );
    assert!(
        quad_err < fine_err * 1.25,
        "quad utility should stay comparable (JSD {quad_err:.4} vs {fine_err:.4})"
    );
    println!(
        "=> {:.0}% of the cells at comparable utility",
        100.0 * quad_cells as f64 / fine_cells as f64
    );
}

/// Run RetraSyn (population division) on one discretization and measure
/// the released database's mean per-timestamp occupancy-JSD.
fn run(dataset: &StreamDataset, topology: Topology) -> (usize, f64) {
    let orig = dataset.discretize(&topology);
    let config = RetraSynConfig::new(1.0, 10).with_lambda(orig.avg_length().max(1.0));
    let mut engine = RetraSyn::population_division(config, topology, 42);
    let syn = engine.run(dataset);
    engine.ledger().verify().expect("w-event eps-LDP accounting");
    (engine.topology().num_cells(), density_error(&orig, &syn))
}
