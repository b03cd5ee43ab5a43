//! Determinism pins for the sharded collection pipeline: the sharded
//! blocked-kernel round must estimate the true frequencies without bias,
//! full engine runs must release identical bytes at every
//! `collection_threads` value in both report modes and divisions, and the
//! PerUser release digest is pinned across commits.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::{collect_ones_sharded, RetraSyn, RetraSynConfig, StreamingEngine};
use retrasyn_datagen::RandomWalkConfig;
use retrasyn_geo::{Grid, GriddedDataset};
use retrasyn_ldp::{Oue, Philox};

fn skewed_values(n: usize, domain: usize) -> Vec<usize> {
    (0..n).map(|i| (i * i + 7 * i) % domain).collect()
}

/// Sharded estimates agree with the truth to within sampling noise: each
/// position count has the same mean under any partition of the round.
#[test]
fn sharded_estimates_agree_with_truth() {
    let domain = 10;
    let oracle = Oue::new(1.0, domain).unwrap();
    let n = 4000usize;
    let values = skewed_values(n, domain);
    let mut truth = vec![0.0; domain];
    for &v in &values {
        truth[v] += 1.0 / n as f64;
    }
    let mut ones = Vec::new();
    collect_ones_sharded(4, &oracle, &values, &Philox::new(21), &mut ones).unwrap();
    let mut freqs = Vec::new();
    oracle.debias_into(&ones, n as u64, &mut freqs);
    let sd = oracle.variance(n as u64).sqrt();
    for j in 0..domain {
        assert!(
            (freqs[j] - truth[j]).abs() < 4.5 * sd,
            "j={j}: {} vs {} (sd {sd})",
            freqs[j],
            truth[j]
        );
    }
}

fn walk_dataset(seed: u64) -> retrasyn_geo::StreamDataset {
    RandomWalkConfig { users: 400, timestamps: 30, churn: 0.08, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(seed))
}

/// Full engine runs must be bit-identical across runs *and* across
/// `collection_threads ∈ {1, 4}`, in both report modes and divisions:
/// a PerUser round's randomness is one addressed key however many
/// workers run it, and the O(domain) `Aggregate` shortcut never shards.
#[test]
fn engine_bit_identical_across_collection_threads() {
    let ds = walk_dataset(51);
    let grid = Grid::unit(5);
    let run = |budget: bool, per_user: bool, threads: usize| {
        let mut config =
            RetraSynConfig::new(1.0, 5).with_lambda(10.0).with_collection_threads(threads);
        if per_user {
            config = config.per_user_reports();
        }
        let mut engine = if budget {
            RetraSyn::budget_division(config, grid.clone(), 42)
        } else {
            RetraSyn::population_division(config, grid.clone(), 42)
        };
        let out = engine.run(&ds);
        engine.ledger().verify().expect("w-event invariant");
        out
    };
    for budget in [false, true] {
        for per_user in [false, true] {
            let base = run(budget, per_user, 1);
            assert_eq!(base, run(budget, per_user, 1), "budget={budget} per_user={per_user}");
            assert_eq!(base, run(budget, per_user, 4), "budget={budget} per_user={per_user}");
        }
        // The report mode shapes the stream: the per-user pass engaged.
        assert_ne!(run(budget, true, 1), run(budget, false, 1), "budget={budget}");
    }
}

/// Regression pin for the RandomReport strategy, whose per-user report
/// slots live in an ordered map: a full engine run — released bytes
/// *and* checkpoint bytes — must be bit-identical across runs and across
/// `collection_threads ∈ {1, 4}`. The slot map is consulted inside the
/// eligibility filter every timestamp, so any iteration-order leak from
/// the container into the draw sequence would break this pin.
#[test]
fn random_report_engine_bit_identical_per_thread_count() {
    use retrasyn_core::AllocationKind;
    let ds = walk_dataset(55);
    let grid = Grid::unit(5);
    let run = |threads: usize| {
        let config = RetraSynConfig::new(1.0, 5)
            .with_lambda(10.0)
            .with_collection_threads(threads)
            .with_allocation(AllocationKind::RandomReport)
            .per_user_reports();
        let mut engine = RetraSyn::population_division(config, grid.clone(), 77);
        let gridded = ds.discretize(&grid);
        let timeline = retrasyn_geo::EventTimeline::build(&gridded);
        for t in 0..gridded.horizon() {
            engine.step(t, timeline.at(t));
        }
        let ckpt = engine.checkpoint_bytes().expect("engine checkpoints");
        let out = engine.release();
        engine.ledger().verify().expect("w-event invariant");
        (out, ckpt)
    };
    let (out_1, ckpt_1) = run(1);
    for threads in [1usize, 4] {
        let (out, ckpt) = run(threads);
        assert_eq!(out, out_1, "threads={threads}: released bytes must pin");
        assert_eq!(ckpt, ckpt_1, "threads={threads}: checkpoint bytes must pin");
    }
}

/// FNV-1a over the released streams' canonical `(id, start, len,
/// cells…)` serialization, in release order.
fn release_digest(ds: &GriddedDataset) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    for s in ds.iter() {
        feed(s.id);
        feed(s.start);
        feed(s.cells.len() as u64);
        for c in s.cells {
            feed(c.index() as u64);
        }
    }
    hash
}

/// Cross-commit pin of the PerUser random stream: the release digests of
/// small PerUser sessions — Population division in the dense (ε = 1) and
/// sparse (ε = 4) regimes of the blocked kernel, and Budget division —
/// at `collection_threads` 1 and 4. The digests were recorded when the
/// blocked kernel was still one of two selectable kernels, so they prove
/// that making it the only one left its stream untouched.
#[test]
fn per_user_release_digest_pinned() {
    let ds = walk_dataset(56);
    let grid = Grid::unit(5);
    let cases = [
        (false, 1.0, 1354, 0xe668_bb81_96aa_b2c2u64),
        (false, 4.0, 1314, 0xe371_b3e6_fb06_e1fa),
        (true, 1.0, 1299, 0xf412_9ccc_944f_4126),
    ];
    for (budget, eps, streams, digest) in cases {
        for threads in [1usize, 4] {
            let config = RetraSynConfig::new(eps, 5)
                .with_lambda(10.0)
                .with_collection_threads(threads)
                .per_user_reports();
            let mut engine = if budget {
                RetraSyn::budget_division(config, grid.clone(), 91)
            } else {
                RetraSyn::population_division(config, grid.clone(), 91)
            };
            let out = engine.run(&ds);
            engine.ledger().verify().expect("w-event invariant");
            let case = format!("budget={budget} eps={eps} threads={threads}");
            assert_eq!(out.num_streams(), streams, "{case}");
            assert_eq!(
                release_digest(&out),
                digest,
                "{case}: digest {:#018x}",
                release_digest(&out)
            );
        }
    }
}
