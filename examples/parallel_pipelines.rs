//! Parallel pipelines: sharded LDP collection + sharded synthesis.
//!
//! ```sh
//! cargo run --release --example parallel_pipelines
//! ```
//!
//! Runs the same private stream with sharded collection and with sharded
//! synthesis and demonstrates their determinism contracts:
//!
//! - `collection_threads` shards each per-user OUE round of the blocked
//!   counter-based kernel. Its draws are addressed by (key, reporter row,
//!   position), not streamed, so the released output is bit-identical at
//!   1 and 2 collection threads.
//! - `synthesis_threads` shards the synthesis step, seeding each shard
//!   from the session RNG: a fixed `(seed, threads)` pair is bit-identical
//!   run to run, while the sharded random stream diverges from the
//!   sequential one.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::prelude::*;

fn run(
    dataset: &StreamDataset,
    grid: &Grid,
    collection_threads: usize,
    synthesis_threads: usize,
) -> retrasyn::geo::GriddedDataset {
    // Exact per-user reports so the per-user collection kernel (not the
    // aggregate binomial shortcut) is what collection sharding splits.
    let config = RetraSynConfig::new(1.0, 10)
        .with_lambda(15.0)
        .per_user_reports()
        .with_collection_threads(collection_threads)
        .with_synthesis_threads(synthesis_threads);
    let mut engine = RetraSyn::population_division(config, grid.clone(), 42);
    let synthetic = engine.run(dataset);
    engine.ledger().verify().expect("w-event LDP accounting holds");
    let report = engine.timing_report();
    println!(
        "collection_threads={collection_threads} synthesis_threads={synthesis_threads}: \
         streams={} user_side={:.4}ms/ts synthesis={:.4}ms/ts",
        synthetic.num_streams(),
        1e3 * report.user_side,
        1e3 * report.synthesis,
    );
    synthetic
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let dataset =
        RandomWalkConfig { users: 3000, timestamps: 40, ..Default::default() }.generate(&mut rng);
    let grid = Grid::unit(8);

    let sequential = run(&dataset, &grid, 1, 1);

    // Collection: sharding cannot change the bits.
    let collect_sharded = run(&dataset, &grid, 2, 1);
    assert!(
        sequential.iter().eq(collect_sharded.iter()),
        "per-user collection must be bit-identical across collection thread counts"
    );
    println!("invariance : per-user output is bit-identical at 1 and 2 collection threads");

    // Synthesis: per-shard seeds make the stream a function of the
    // thread count.
    let synth_sharded = run(&dataset, &grid, 1, 4);
    let synth_again = run(&dataset, &grid, 1, 4);
    assert!(
        synth_sharded.iter().eq(synth_again.iter()),
        "fixed (seed, threads) must be bit-identical"
    );
    println!("determinism: synthesis_threads=4 reruns are bit-identical");
    assert!(
        !sequential.iter().eq(synth_sharded.iter()),
        "the sharded synthesis stream should diverge from the sequential one"
    );
    println!("divergence : sharded synthesis stream differs from sequential (shards engaged)");
}
