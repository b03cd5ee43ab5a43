//! Micro-benchmarks of the real-time synthesis step (§III-D) — the
//! dominant per-timestamp cost in Table V.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::{GlobalMobilityModel, SyntheticDb};
use retrasyn_geo::{Grid, TransitionTable};
use std::hint::black_box;
use std::time::Duration;

/// Informed model with the alias sampler cache built (the engine's steady
/// state).
fn informed_model(table: &TransitionTable) -> GlobalMobilityModel {
    let mut model = informed_model_uncached(table);
    model.rebuild_samplers(table);
    model
}

/// Informed model *without* the cache: synthesis falls back to the O(k)
/// scan.
fn informed_model_uncached(table: &TransitionTable) -> GlobalMobilityModel {
    let mut model = GlobalMobilityModel::new(table.len());
    let est: Vec<f64> = (0..table.len()).map(|i| ((i % 13) as f64 + 1.0) * 1e-3).collect();
    model.replace_all(&est);
    model
}

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis_step");
    group.sample_size(10).measurement_time(Duration::from_millis(900));
    let grid = Grid::unit(6);
    let table = TransitionTable::new(&grid);
    let model = informed_model(&table);
    for population in [1000usize, 5000, 20_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(population),
            &population,
            |b, &population| {
                b.iter_batched(
                    || {
                        // Pre-warm a database of the target size.
                        let mut db = SyntheticDb::new();
                        let mut rng = StdRng::seed_from_u64(7);
                        db.step(0, &model, &table, population, 30.0, &mut rng);
                        (db, StdRng::seed_from_u64(8))
                    },
                    |(mut db, mut rng)| {
                        db.step(1, &model, &table, black_box(population), 30.0, &mut rng);
                        black_box(db.active_count())
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_step_100k_grid32(c: &mut Criterion) {
    // One full synthesis step over 100k live streams on a 32x32 grid.
    // Two arms: the alias-cached hot path and the (already
    // buffer-reusing) scan fallback an uncached model takes. Setups
    // pre-warm six steps so trajectory vectors have spare capacity and
    // the measured step isolates sampling cost from the amortized growth
    // reallocation.
    let mut group = c.benchmark_group("synthesis_step_100k_grid32");
    group.sample_size(10).measurement_time(Duration::from_millis(1500));
    let grid = Grid::unit(32);
    let table = TransitionTable::new(&grid);
    let population = 100_000usize;
    // Warm five steps (trajectory length 6, capacity 8), then measure two
    // steps — both fit the grown capacity, so the measurement isolates
    // per-step sampling cost from the amortized buffer-growth reallocation
    // (identical across arms). Reported times are per TWO steps.
    const WARM_STEPS: u64 = 5;
    const MEASURED_STEPS: u64 = 2;
    for (label, cached) in [("alias", true), ("scan_fallback", false)] {
        let model = if cached { informed_model(&table) } else { informed_model_uncached(&table) };
        group.bench_with_input(BenchmarkId::from_parameter(label), &cached, |b, _| {
            b.iter_batched(
                || {
                    let mut db = SyntheticDb::new();
                    let mut rng = StdRng::seed_from_u64(7);
                    for t in 0..=WARM_STEPS {
                        db.step(t, &model, &table, population, 30.0, &mut rng);
                    }
                    (db, StdRng::seed_from_u64(8))
                },
                |(mut db, mut rng)| {
                    for k in 0..MEASURED_STEPS {
                        db.step(WARM_STEPS + 1 + k, &model, &table, population, 30.0, &mut rng);
                    }
                    black_box(db.active_count())
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_size_adjustment(c: &mut Criterion) {
    // Worst case: a 20% population swing in one tick — sequentially and
    // through the sharded two-phase selection (quit draws + per-shard
    // Efraimidis–Spirakis keys on the shard threads, global cut on the
    // caller, sharded retirement + extension).
    let mut group = c.benchmark_group("synthesis_size_swing_5000");
    group.sample_size(10).measurement_time(Duration::from_millis(900));
    let grid = Grid::unit(6);
    let table = TransitionTable::new(&grid);
    let model = informed_model(&table);
    group.bench_function("shrink_20pct", |b| {
        b.iter_batched(
            || {
                let mut db = SyntheticDb::new();
                let mut rng = StdRng::seed_from_u64(9);
                db.step(0, &model, &table, 5000, 30.0, &mut rng);
                (db, StdRng::seed_from_u64(10))
            },
            |(mut db, mut rng)| {
                db.step(1, &model, &table, 4000, 30.0, &mut rng);
                black_box(db.active_count())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("shrink_20pct_pooled_4t", |b| {
        b.iter_batched(
            || {
                let mut db = SyntheticDb::new();
                let mut rng = StdRng::seed_from_u64(9);
                db.step(0, &model, &table, 5000, 30.0, &mut rng);
                // Warm step sizes the shard buffers outside the measured
                // region.
                db.step_parallel(1, &model, &table, 5000, 30.0, &mut rng, 4);
                (db, StdRng::seed_from_u64(10))
            },
            |(mut db, mut rng)| {
                db.step_parallel(2, &model, &table, 4000, 30.0, &mut rng, 4);
                black_box(db.active_count())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_parallel_step(c: &mut Criterion) {
    // The paper's future-work acceleration (§VII): parallel synthesis.
    // `step_parallel` runs quit + shrink + extend on scoped shard
    // threads.
    let mut group = c.benchmark_group("synthesis_step_20000_threads");
    group.sample_size(10).measurement_time(Duration::from_millis(900));
    let grid = Grid::unit(6);
    let table = TransitionTable::new(&grid);
    let model = informed_model(&table);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            b.iter_batched(
                || {
                    let mut db = SyntheticDb::new();
                    let mut rng = StdRng::seed_from_u64(7);
                    db.step(0, &model, &table, 20_000, 30.0, &mut rng);
                    // Warm step sizes the shard buffers outside the
                    // measured region.
                    db.step_parallel(1, &model, &table, 20_000, 30.0, &mut rng, threads);
                    (db, StdRng::seed_from_u64(8))
                },
                |(mut db, mut rng)| {
                    db.step_parallel(2, &model, &table, 20_000, 30.0, &mut rng, threads);
                    black_box(db.active_count())
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_parallel_step_100k(c: &mut Criterion) {
    // The acceptance target for full sharding: 100k users on a 32×32 grid
    // through the fully sharded step over the columnar store
    // (disjoint index-range shards, per-shard tail buffers relocated at
    // the merge). The PR-1 extension-only reference was dropped with the
    // storage refactor — the comparison stopped being meaningful once
    // shards became column ranges.
    let mut group = c.benchmark_group("synthesis_step_100k_grid32_threads");
    group.sample_size(10).measurement_time(Duration::from_millis(1200));
    let grid = Grid::unit(32);
    let table = TransitionTable::new(&grid);
    let model = informed_model(&table);
    let population = 100_000usize;
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("full", threads), &threads, |b, &threads| {
            b.iter_batched(
                || {
                    let mut db = SyntheticDb::new();
                    let mut rng = StdRng::seed_from_u64(7);
                    for t in 0..4 {
                        db.step(t, &model, &table, population, 30.0, &mut rng);
                    }
                    // Warm step sizes the shard buffers outside
                    // the measured region.
                    db.step_parallel(4, &model, &table, population, 30.0, &mut rng, threads);
                    (db, StdRng::seed_from_u64(8))
                },
                |(mut db, mut rng)| {
                    db.step_parallel(5, &model, &table, population, 30.0, &mut rng, threads);
                    black_box(db.active_count())
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_step,
    bench_step_100k_grid32,
    bench_size_adjustment,
    bench_parallel_step,
    bench_parallel_step_100k
);
criterion_main!(benches);
