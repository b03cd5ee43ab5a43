//! Bench gate for the pluggable-discretization refactor: the sampler
//! step over a `Grid`-compiled [`Topology`] (CSR rows, 128-bit
//! packed slots, `u32` cell ids) must stay within a few percent of the
//! pre-refactor path (fixed 3×3 arithmetic windows, 64-bit packed slots,
//! `u16` cell ids), reconstructed here verbatim as [`LegacySampler`].
//! A quad-grid arm at (near-)equal leaf count shows the adaptive
//! discretization rides the same O(1) hot loop.
//!
//! `cargo bench --bench topology -- --json BENCH_topology.json` writes
//! the results in machine-readable form.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retrasyn_core::sampler::SamplerCache;
use retrasyn_core::GlobalMobilityModel;
use retrasyn_geo::{BoundingBox, CellId, Grid, Point, QuadGrid, Space, Topology, TransitionTable};
use std::hint::black_box;
use std::time::Duration;

/// Grid side; 32×32 = 1024 cells, the paper's default granularity.
const K: u16 = 32;

fn informed_freqs(len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i % 13) as f64 + 1.0) * 1e-3).collect()
}

fn cached_sampler(topology: &Topology) -> (TransitionTable, SamplerCache) {
    let table = TransitionTable::new(topology);
    let mut model = GlobalMobilityModel::new(table.len());
    model.replace_all(&informed_freqs(table.len()));
    model.rebuild_samplers(&table);
    let cache = model.sampler().expect("cache built").clone();
    (table, cache)
}

/// The pre-Topology sampler row format, reconstructed byte-for-byte: one
/// `u64` per move slot (`thresh | accept << 32 | alias << 48`, `u16`
/// cell ids) over the uniform grid's arithmetic 3×3 neighbor windows,
/// drawn with the same single-variate Lemire + accept/alias test.
struct LegacySampler {
    offsets: Vec<u32>,
    packed: Vec<u64>,
}

impl LegacySampler {
    fn build(topology: &Topology, freqs: &[f64]) -> Self {
        assert!(topology.num_cells() <= u16::MAX as usize, "legacy ids were u16");
        let offsets = topology.csr_offsets().to_vec();
        let targets = topology.csr_targets();
        let mut packed = vec![0u64; targets.len()];
        for c in 0..topology.num_cells() {
            let (start, end) = (offsets[c] as usize, offsets[c + 1] as usize);
            let (thresh, alias) = vose_alias(&freqs[start..end]);
            for i in 0..end - start {
                let accept = targets[start + i].0 as u64;
                let al = targets[start + alias[i] as usize].0 as u64;
                packed[start + i] = thresh[i] as u64 | (accept << 32) | (al << 48);
            }
        }
        LegacySampler { offsets, packed }
    }

    #[inline]
    fn sample_move<R: Rng + ?Sized>(&self, from: CellId, rng: &mut R) -> CellId {
        let start = self.offsets[from.index()] as usize;
        let end = self.offsets[from.index() + 1] as usize;
        let row = &self.packed[start..end];
        let x = rng.random::<u64>();
        let slot = (((x >> 32) * row.len() as u64) >> 32) as usize;
        let packed = row[slot];
        let cell =
            if (x as u32) < packed as u32 { (packed >> 32) as u16 } else { (packed >> 48) as u16 };
        CellId(cell as u32)
    }
}

/// Walker/Vose alias row with `u32` fixed-point thresholds (the same
/// construction the production cache uses, inlined here so the legacy
/// arm is self-contained).
fn vose_alias(weights: &[f64]) -> (Vec<u32>, Vec<u32>) {
    let n = weights.len();
    let mut thresh = vec![u32::MAX; n];
    let mut alias: Vec<u32> = (0..n as u32).collect();
    let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    if total <= 0.0 || !total.is_finite() {
        return (thresh, alias);
    }
    let scale = n as f64 / total;
    let mut small = Vec::new();
    let mut large = Vec::new();
    for (i, &w) in weights.iter().enumerate() {
        let p = w.max(0.0) * scale;
        if p < 1.0 {
            small.push((i as u32, p));
        } else {
            large.push((i as u32, p));
        }
    }
    while let (Some(&(s, ps)), Some(&mut (l, ref mut pl))) = (small.last(), large.last_mut()) {
        small.pop();
        alias[s as usize] = l;
        thresh[s as usize] = (ps * (u32::MAX as f64 + 1.0)).min(u32::MAX as f64) as u32;
        *pl = (*pl + ps) - 1.0;
        if *pl < 1.0 {
            let (l, pl) = large.pop().expect("just inspected");
            small.push((l, pl));
        }
    }
    for &(i, _) in small.iter().chain(large.iter()) {
        thresh[i as usize] = u32::MAX;
        alias[i as usize] = i;
    }
    (thresh, alias)
}

/// A density-adaptive quad grid with (near-)equal leaf count to the K×K
/// uniform grid: clustered points, leaf-population cap chosen so the
/// compiled cell count lands closest to K².
fn quad_equal_leaves() -> Topology {
    let mut rng = StdRng::seed_from_u64(9);
    let mut points = Vec::with_capacity(20_000);
    // Three clusters of decreasing spread plus a uniform background —
    // the skew that makes adaptive splitting non-trivial.
    let clusters = [(0.2, 0.3, 0.18), (0.7, 0.6, 0.08), (0.85, 0.15, 0.03)];
    for &(cx, cy, r) in &clusters {
        for _ in 0..5500 {
            let p = Point::new(cx + rng.random_range(-r..r), cy + rng.random_range(-r..r));
            points.push(BoundingBox::unit().clamp(p));
        }
    }
    for _ in 0..3500 {
        points.push(Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)));
    }
    let target = K as usize * K as usize;
    let mut best: Option<QuadGrid> = None;
    for cap in [20, 30, 40, 50, 60, 80, 100, 140, 200] {
        let quad = QuadGrid::fit(BoundingBox::unit(), &points, cap, 7);
        let better = best
            .as_ref()
            .map(|b| quad.num_leaves().abs_diff(target) < b.num_leaves().abs_diff(target))
            .unwrap_or(true);
        if better {
            best = Some(quad);
        }
    }
    best.expect("candidate caps scanned").compile()
}

/// A synthetic head column: the cells the extension pass draws from,
/// one per live stream (independent draws — the real hot loop walks a
/// contiguous column, not a serial chain).
fn head_column(topology: &Topology, n: usize) -> Vec<CellId> {
    let mut rng = StdRng::seed_from_u64(6);
    let cells = topology.num_cells() as u32;
    (0..n).map(|_| CellId(rng.random_range(0..cells))).collect()
}

fn bench_sampler_step(c: &mut Criterion) {
    // One extension draw per live stream over a pre-built head column —
    // the per-user cost of the synthesis extension phase, with the same
    // independent-iteration profile as `extend_cols`. Identical loop
    // body for all arms; only the row format / indexing differs.
    let mut group = c.benchmark_group("topology_sampler_step");
    group.sample_size(20).measurement_time(Duration::from_millis(700));

    let uniform = Grid::unit(K).compile();
    let (table, cache) = cached_sampler(&uniform);
    let heads = head_column(&uniform, 4096);
    {
        let mut rng = StdRng::seed_from_u64(4);
        let mut i = 0usize;
        group.bench_function("uniform_topology", |b| {
            b.iter(|| {
                i = (i + 1) % heads.len();
                black_box(cache.sample_move(heads[i], &mut rng))
            })
        });
    }
    {
        let legacy = LegacySampler::build(&uniform, &informed_freqs(table.len()));
        let mut rng = StdRng::seed_from_u64(4);
        let mut i = 0usize;
        group.bench_function("legacy_arith", |b| {
            b.iter(|| {
                i = (i + 1) % heads.len();
                black_box(legacy.sample_move(heads[i], &mut rng))
            })
        });
    }
    {
        let quad = quad_equal_leaves();
        let (_, cache) = cached_sampler(&quad);
        let heads = head_column(&quad, 4096);
        let mut rng = StdRng::seed_from_u64(4);
        let mut i = 0usize;
        group.bench_function("quad_topology", |b| {
            b.iter(|| {
                i = (i + 1) % heads.len();
                black_box(cache.sample_move(heads[i], &mut rng))
            })
        });
    }
    group.finish();
}

fn bench_point_lookup(c: &mut Criterion) {
    // Discretization-time point→cell lookup: uniform arithmetic vs the
    // quad bit-walk locator.
    let mut group = c.benchmark_group("topology_cell_of");
    group.sample_size(20).measurement_time(Duration::from_millis(500));
    let mut rng = StdRng::seed_from_u64(5);
    let points: Vec<Point> = (0..4096)
        .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    let uniform = Grid::unit(K).compile();
    {
        let mut i = 0usize;
        group.bench_function("uniform", |b| {
            b.iter(|| {
                i = (i + 1) % points.len();
                black_box(uniform.cell_of(black_box(&points[i])))
            })
        });
    }
    let quad = quad_equal_leaves();
    {
        let mut i = 0usize;
        group.bench_function("quad", |b| {
            b.iter(|| {
                i = (i + 1) % points.len();
                black_box(quad.cell_of(black_box(&points[i])))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sampler_step, bench_point_lookup);
criterion_main!(benches);
