//! Pins for the collection rounds of `Oue`. The blocked counter-based
//! kernel — the only per-user kernel — must produce per-position ones
//! counts from exactly the same distribution as the report-buffer
//! reference (`perturb_into` + `tally_into`) in both the dense and sparse
//! regimes, and its output must be invariant to how the
//! `(reporter × domain)` rectangle is partitioned — the property the
//! pooled collection path is built on. The round-level API must route
//! PerUser rounds through that kernel, the in-place Aggregate round must
//! reproduce the historical allocating path bit-for-bit (same random
//! stream), and `debias_into` must match `debias`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retrasyn_ldp::oue::OUE_P;
use retrasyn_ldp::{binomial, BitReport, Oue, Philox, ReportMode};

/// Two-sample chi-square statistic between histograms `a` and `b` (unequal
/// totals handled by the usual √(N_b/N_a) weighting). Returns the
/// statistic and the degrees of freedom (occupied categories − 1).
fn two_sample_chi_square(a: &[u64], b: &[u64], na: u64, nb: u64) -> (f64, usize) {
    let (ka, kb) = ((nb as f64 / na as f64).sqrt(), (na as f64 / nb as f64).sqrt());
    let mut chi = 0.0;
    let mut occupied = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        if x + y == 0 {
            continue;
        }
        occupied += 1;
        let d = ka * x as f64 - kb * y as f64;
        chi += d * d / (x + y) as f64;
    }
    (chi, occupied.saturating_sub(1))
}

/// Loose 99.9th-percentile bound for chi-square with `dof` degrees of
/// freedom (Wilson–Hilferty plus margin; deliberately conservative so the
/// seeded test never flakes while still catching a wrong distribution).
fn chi2_crit(dof: usize) -> f64 {
    dof as f64 + 4.0 * (2.0 * dof as f64).sqrt() + 10.0
}

/// The frozen report-buffer reference round (exact per-bit OUE process).
fn reference_ones(oue: &Oue, values: &[usize], rng: &mut StdRng) -> Vec<u64> {
    let mut ones = vec![0u64; oue.domain()];
    let mut scratch = BitReport::zeros(oue.domain());
    for &v in values {
        oue.perturb_into(v, &mut scratch, rng).unwrap();
        oue.tally_into(&mut ones, &scratch).unwrap();
    }
    ones
}

fn blocked_ones(oue: &Oue, values: &[usize], ph: &Philox) -> Vec<u64> {
    let mut ones = Vec::new();
    oue.collect_ones_blocked(values, 0, ph, &mut ones).unwrap();
    ones
}

/// The blocked kernel and the report-buffer reference must put their 1s
/// at identically distributed positions. Covers both kernel regimes: the
/// dense halfword threshold pass (ε = 1 and ε = 0.3 → q ≈ 0.27 / 0.43)
/// and the sparse geometric-skipping row walk (ε = 3.5 → q ≈ 0.029 <
/// 0.04).
#[test]
fn blocked_matches_reference_distribution_per_position() {
    for (eps, seed) in [(1.0, 11u64), (0.3, 22), (3.5, 33)] {
        let domain = 128;
        let oue = Oue::new(eps, domain).unwrap();
        // A skewed value mix so the true-bit Bernoulli(p) lands unevenly.
        let values: Vec<usize> = (0..600).map(|i| (i * i + 3 * i) % domain).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ref_hist = vec![0u64; domain];
        let mut blk_hist = vec![0u64; domain];
        for _ in 0..12 {
            for (acc, x) in ref_hist.iter_mut().zip(reference_ones(&oue, &values, &mut rng)) {
                *acc += x;
            }
            let ph = Philox::new(rng.random());
            for (acc, x) in blk_hist.iter_mut().zip(blocked_ones(&oue, &values, &ph)) {
                *acc += x;
            }
        }
        let (rn, bn) = (ref_hist.iter().sum::<u64>(), blk_hist.iter().sum::<u64>());
        assert!(rn > 10_000 && bn > 10_000, "eps={eps}: too few ones: {rn} vs {bn}");
        let sd = (rn.max(bn) as f64).sqrt();
        assert!(
            (rn as f64 - bn as f64).abs() < 6.0 * sd,
            "eps={eps}: ones totals diverge: {rn} vs {bn}"
        );
        let (chi, dof) = two_sample_chi_square(&ref_hist, &blk_hist, rn, bn);
        assert!(
            chi < chi2_crit(dof),
            "eps={eps}: blocked ones diverge from reference: chi={chi:.1} dof={dof} (crit {:.1})",
            chi2_crit(dof)
        );
    }
}

/// Dense regime: merging gang-aligned domain shards reproduces the
/// full-range round bit-for-bit, for aligned and ragged (tail) domains
/// alike — the invariance sharded collection relies on to split the domain.
#[test]
fn blocked_dense_domain_shards_merge_bit_identically() {
    for domain in [256usize, 100, 321] {
        let oue = Oue::new(1.0, domain).unwrap();
        assert!(oue.blocked_dense());
        let values: Vec<usize> = (0..300).map(|i| (i * 17 + 5) % domain).collect();
        let ph = Philox::new(0xfeed_5eed_0123_4567);
        let full = blocked_ones(&oue, &values, &ph);
        // Two shardings: one mid-domain split and one per-gang split.
        for bounds in [vec![0, 64, domain], vec![0, 64, 128, 192, domain]] {
            let mut merged = vec![0u64; domain];
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1].min(domain));
                if lo >= hi {
                    continue;
                }
                let mut shard = vec![0u64; hi - lo];
                oue.blocked_tally_range(&values, 0, &ph, lo, hi, &mut shard).unwrap();
                for (m, s) in merged[lo..hi].iter_mut().zip(&shard) {
                    *m += s;
                }
            }
            assert_eq!(merged, full, "domain={domain} bounds={bounds:?}");
        }
    }
}

/// Sparse regime: splitting the reporters across shards (with global row
/// bases) reproduces the unsharded round bit-for-bit.
#[test]
fn blocked_sparse_reporter_shards_merge_bit_identically() {
    let domain = 96;
    let oue = Oue::new(3.5, domain).unwrap();
    assert!(!oue.blocked_dense());
    let values: Vec<usize> = (0..250).map(|i| (i * 29 + 1) % domain).collect();
    let ph = Philox::new(0x0bad_cafe_dead_beef);
    let full = blocked_ones(&oue, &values, &ph);
    let mut merged = vec![0u64; domain];
    for (start, end) in [(0usize, 100usize), (100, 173), (173, 250)] {
        let mut shard = vec![0u64; domain];
        oue.blocked_tally_sparse(&values[start..end], start as u32, &ph, &mut shard).unwrap();
        for (m, s) in merged.iter_mut().zip(&shard) {
            *m += s;
        }
    }
    assert_eq!(merged, full);
}

/// Fixed key → bit-identical output; different keys → different draws.
#[test]
fn blocked_is_deterministic_in_the_key() {
    let oue = Oue::new(1.0, 128).unwrap();
    let values: Vec<usize> = (0..200).map(|i| (i * 7) % 128).collect();
    let a = blocked_ones(&oue, &values, &Philox::new(42));
    let b = blocked_ones(&oue, &values, &Philox::new(42));
    let c = blocked_ones(&oue, &values, &Philox::new(43));
    assert_eq!(a, b);
    assert_ne!(a, c);
}

/// Every per-position count is bounded by the number of reporters, in
/// both regimes.
#[test]
fn blocked_counts_bounded_by_reporters() {
    for eps in [0.2, 1.0, 4.0] {
        let oue = Oue::new(eps, 64).unwrap();
        let values = vec![5usize; 200];
        let ones = blocked_ones(&oue, &values, &Philox::new(9));
        assert!(ones.iter().all(|&c| c <= 200), "eps={eps}: {ones:?}");
    }
}

/// The blocked estimates must be unbiased (debiasing the blocked counts
/// recovers the true frequencies within the mechanism's variance).
#[test]
fn blocked_estimates_are_unbiased() {
    for eps in [1.0, 3.5] {
        let oue = Oue::new(eps, 5).unwrap();
        let n = 5000usize;
        let values: Vec<usize> = (0..n).map(|i| if i % 5 < 3 { 2 } else { 0 }).collect();
        let ones = blocked_ones(&oue, &values, &Philox::new(0x5eed + eps.to_bits()));
        let freqs = oue.debias(&ones, n as u64);
        let sd = Oue::variance(&oue, n as u64).sqrt();
        assert!((freqs[2] - 0.6).abs() < 3.5 * sd, "eps={eps}: est[2]={}", freqs[2]);
        assert!((freqs[0] - 0.4).abs() < 3.5 * sd, "eps={eps}: est[0]={}", freqs[0]);
        assert!(freqs[1].abs() < 3.5 * sd, "eps={eps}");
        assert!(freqs[3].abs() < 3.5 * sd, "eps={eps}");
    }
}

/// Input validation: out-of-domain values and row bases that would
/// overflow the 32-bit counter word are rejected, in both regimes, and
/// out-of-domain values surface from the round-level API in both modes.
#[test]
fn blocked_kernel_validates_inputs() {
    for eps in [1.0, 3.5] {
        let oue = Oue::new(eps, 8).unwrap();
        let ph = Philox::new(0);
        let mut ones = Vec::new();
        assert!(oue.collect_ones_blocked(&[0, 9], 0, &ph, &mut ones).is_err());
        assert!(oue.collect_ones_blocked(&[0, 1], u32::MAX - 1, &ph, &mut ones).is_err());
        // Base + values.len() just fitting is fine.
        assert!(oue.collect_ones_blocked(&[0, 1], u32::MAX - 2, &ph, &mut ones).is_ok());
        let mut rng = StdRng::seed_from_u64(0);
        for mode in [ReportMode::PerUser, ReportMode::Aggregate] {
            assert!(oue.collect_ones_into(&[0, 9], mode, &mut ones, &mut rng).is_err(), "{mode:?}");
        }
    }
}

/// A PerUser round through the round-level API is the blocked kernel
/// keyed by exactly one `u64` drawn from the caller's RNG, in both
/// regimes; an empty round draws nothing.
#[test]
fn per_user_round_is_blocked_kernel_keyed_from_rng() {
    for eps in [1.0, 3.5] {
        let oue = Oue::new(eps, 100).unwrap();
        let values: Vec<usize> = (0..300).map(|i| (i * 31 + 4) % 100).collect();
        let mut rng = StdRng::seed_from_u64(17);
        let mut ones = Vec::new();
        oue.collect_ones_into(&values, ReportMode::PerUser, &mut ones, &mut rng).unwrap();
        let after: u64 = rng.random();

        let mut rng = StdRng::seed_from_u64(17);
        let expect = blocked_ones(&oue, &values, &Philox::new(rng.random()));
        assert_eq!(ones, expect, "eps={eps}");
        assert_eq!(after, rng.random::<u64>(), "eps={eps}: one key per round");

        let mut rng = StdRng::seed_from_u64(17);
        oue.collect_ones_into(&[], ReportMode::PerUser, &mut ones, &mut rng).unwrap();
        assert_eq!(ones, vec![0u64; 100]);
        assert_eq!(rng.random::<u64>(), StdRng::seed_from_u64(17).random::<u64>());
    }
}

/// The in-place Aggregate round must consume the random stream exactly as
/// the historical allocating path did: true counts first, then per
/// position one Binomial(c, p) draw followed by one Binomial(n − c, q)
/// draw, in position order.
#[test]
fn aggregate_round_preserves_historical_random_stream() {
    let domain = 40;
    let oue = Oue::new(1.2, domain).unwrap();
    let values: Vec<usize> = (0..900).map(|i| (7 * i) % domain).collect();
    let n = values.len() as u64;

    // Historical reference, replayed inline.
    let mut rng = StdRng::seed_from_u64(77);
    let mut counts = vec![0u64; domain];
    for &v in &values {
        counts[v] += 1;
    }
    let expected: Vec<u64> = counts
        .iter()
        .map(|&c| binomial::sample(c, OUE_P, &mut rng) + binomial::sample(n - c, oue.q(), &mut rng))
        .collect();

    let mut rng = StdRng::seed_from_u64(77);
    let mut ones = Vec::new();
    oue.collect_ones_into(&values, ReportMode::Aggregate, &mut ones, &mut rng).unwrap();
    assert_eq!(ones, expected);
}

#[test]
fn debias_into_matches_debias_and_reuses_buffer() {
    let oue = Oue::new(0.8, 16).unwrap();
    let ones: Vec<u64> = (0..16).map(|i| (i * i * 13) % 257).collect();
    let mut out = vec![9.0; 3];
    oue.debias_into(&ones, 1000, &mut out);
    assert_eq!(out, oue.debias(&ones, 1000));
    // n = 0 resets to zeros.
    oue.debias_into(&ones, 0, &mut out);
    assert_eq!(out, vec![0.0; 16]);
}
