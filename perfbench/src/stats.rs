//! Summary statistics, the release digest, memory readings and the result
//! line.

use retrasyn_geo::GriddedDataset;
use std::fmt::Write as _;

/// Fewest samples that must lie above a reported high percentile.
pub const MIN_ABOVE_PERCENTILE: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean of `values`, `None` when empty. Run-level figures
/// average per-session values: the machine's speed swings between a fast
/// and a slow state every few seconds, and a mean over sessions follows
/// the share of time spent in each linearly, where a median flips between
/// them.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Nearest-rank 95th percentile of `samples`, or `None` unless at least
/// [`MIN_ABOVE_PERCENTILE`] samples lie above it.
pub fn p95(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = (n * 95).div_ceil(100);
    if rank == 0 || n - rank < MIN_ABOVE_PERCENTILE {
        return None;
    }
    Some(v[rank - 1])
}

/// Fewest samples for which [`p95`] is defined.
pub fn p95_min_samples() -> usize {
    (1..).find(|&n: &usize| n - (n * 95).div_ceil(100) >= MIN_ABOVE_PERCENTILE).unwrap_or(0)
}

/// FNV-1a over a released database: horizon, stream count, and every
/// stream's id, start and cells. Equal digests mean bit-identical releases.
pub fn release_digest(db: &GriddedDataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(db.horizon());
    eat(db.num_streams() as u64);
    for s in db.iter() {
        eat(s.id);
        eat(s.start);
        eat(s.cells.len() as u64);
        for c in s.cells {
            eat(u64::from(c.0));
        }
    }
    h
}

/// The value in kB of field `key` (`VmHWM`, `VmRSS`, ...) of a
/// `/proc/<pid>/status` text.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

/// Resident-memory baseline of this process.
#[derive(Debug)]
pub struct Rss {
    baseline_kb: u64,
}

fn read_status() -> Result<String, String> {
    std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read /proc/self/status: {e}"))
}

fn status_field(key: &str) -> Result<u64, String> {
    status_kb(&read_status()?, key).ok_or_else(|| format!("no {key} in /proc/self/status"))
}

/// Hand the heap's free pages back to the kernel. Without this, memory the
/// input generator freed stays resident, a session reuses it, and its
/// growth does not show.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes a plain integer, touches only the
    // allocator's own free lists, and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

impl Rss {
    /// Take the baseline: the RSS now, before any session exists, after
    /// returning freed heap pages to the kernel. The kernel's peak mark
    /// (VmHWM) is reset to it, so the input generator's transient peak is
    /// not counted.
    pub fn start() -> Result<Rss, String> {
        trim_heap();
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("reset the peak RSS mark: {e}"))?;
        Ok(Rss { baseline_kb: status_field("VmRSS")? })
    }

    /// Peak RSS since [`Rss::start`] minus the baseline, in MB.
    pub fn growth_mb(&self) -> Option<f64> {
        let peak = status_field("VmHWM").ok()?;
        Some(peak.saturating_sub(self.baseline_kb) as f64 / 1024.0)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result object printed as the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` on f64 prints the shortest text that reads back to the same
        // value, never in exponent form, so it is valid JSON with all digits.
        let _ = write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_above_it() {
        let n = p95_min_samples();
        assert_eq!(n, 200);
        let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        assert_eq!(p95(&samples), Some(190.0));
        assert_eq!(samples.iter().filter(|&&s| s > 190.0).count(), MIN_ABOVE_PERCENTILE);
        assert_eq!(p95(&samples[..n - 1]), None);
        assert_eq!(p95(&[]), None);
        // Order does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(p95(&reversed), Some(190.0));
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p95(&big), Some(950.0));
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  320588 kB\n\
                    VmRSS:\t   13596 kB\nThreads:\t3\n";
        assert_eq!(status_kb(text, "VmHWM"), Some(320_588));
        assert_eq!(status_kb(text, "VmRSS"), Some(13_596));
        assert_eq!(status_kb(text, "Threads"), None, "no kB unit");
        assert_eq!(status_kb(text, "VmSwap"), None, "absent field");
        assert_eq!(status_kb("VmRSSx:\t1 kB\n", "VmRSS"), None, "prefix of another field");
    }

    #[test]
    fn live_status_has_both_fields() {
        let text = read_status().unwrap();
        let hwm = status_kb(&text, "VmHWM").expect("VmHWM");
        let rss = status_kb(&text, "VmRSS").expect("VmRSS");
        assert!(hwm >= rss && rss > 0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let m = [
            Metric { name: "a", unit: "ms", value: 1.25 },
            Metric { name: "b", unit: "s", value: 1e-7 },
        ];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 0.0000001, \"unit\": \"s\"}}}"
        );
    }
}
