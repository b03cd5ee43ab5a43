//! Session benchmark for the RetraSyn engine.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload population_default --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Generates the named workload's input from `--seed`, drives engine
//! sessions over it in a closed loop for `--seconds`, checks the outputs,
//! and prints every metric with its unit. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. The exit code is 0 only when
//! every output check passed. See `README.md` for the workloads and
//! metrics.

mod drive;
mod probe;
mod stats;
mod workload;

use stats::Metric;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Input, Workload};

/// Workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("seconds {value} out of range 0..=600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let clock = Instant::now();
    let input = Input::generate(args.workload, args.workload.full_size(), args.seed);
    println!(
        "workload {} seed {} trace {}: {} timestamps, {} events per session, \
         input generated in {:.2} s (not a metric)",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        input.horizon(),
        input.total_events(),
        clock.elapsed().as_secs_f64()
    );
    let outcome = measure(&input, args.seconds, args.trace);
    for line in &outcome.notes {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    println!(
        "{}",
        stats::result_json(
            correct,
            outcome.run.attempted.max(1),
            outcome.run.failed,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metrics of one run, with its checks.
#[derive(Debug)]
struct Outcome {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    failures: Vec<String>,
    run: drive::Run,
}

#[cfg(test)]
impl Outcome {
    fn digests(&self) -> Vec<u64> {
        self.run.sessions.iter().map(|s| s.digest).collect()
    }
}

fn measure(input: &Input, seconds: f64, trace: bool) -> Outcome {
    let run = drive::run(input, seconds, trace);
    let mut failures = run.failures.clone();
    let mut notes = Vec::new();
    let metrics = if trace {
        per_layer(input, &run, &mut notes, &mut failures)
    } else {
        end_to_end(&run, &mut notes, &mut failures)
    };
    if run.failed > 0 && failures.is_empty() {
        failures.push(format!("{} steps failed", run.failed));
    }
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("{} is not a finite number", m.name));
        }
    }
    // A failed run reports no numbers that could be mistaken for a
    // measurement of correct work.
    let metrics = if failures.is_empty() { metrics } else { Vec::new() };
    Outcome { metrics, notes, failures, run }
}

fn required(value: Option<f64>, what: &str, failures: &mut Vec<String>) -> f64 {
    value.unwrap_or_else(|| {
        failures.push(format!("no value for {what}"));
        f64::NAN
    })
}

fn end_to_end(
    run: &drive::Run,
    notes: &mut Vec<String>,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let steps = run.step_ms(false);
    let step_s: f64 = steps.iter().sum::<f64>() / 1e3;
    let events: u64 = run.sessions.iter().map(|s| s.events).sum();
    let setup: Vec<f64> = run.sessions.iter().map(|s| s.setup_s).collect();
    let release = run.release_s();
    let recover = run.recover_s();
    notes.push(format!(
        "{} sessions, {} step samples, {} steps failed of {} attempted (steps_failed_ratio {})",
        run.sessions.len(),
        steps.len(),
        run.failed,
        run.attempted,
        run.failed as f64 / run.attempted.max(1) as f64
    ));
    if let Some(s) = run.sessions.first() {
        notes.push(format!("release digest {:016x}", s.digest));
    }
    let list = |v: &[f64]| v.iter().map(|x| format!("{x:.6}")).collect::<Vec<_>>().join(" ");
    notes.push(format!("per session: setup_s {}", list(&setup)));
    notes.push(format!("sessions and restarts: release_s {}", list(&release)));
    notes.push(format!("per session: step_ms_p50 {}", list(&run.session_p50s(false))));
    notes.push(format!("restarts: recover_s {}", list(&recover)));
    let p95 = stats::p95(&steps);
    if p95.is_none() {
        failures.push(format!(
            "step_ms_p95 needs {} samples, the run has {}",
            stats::p95_min_samples(),
            steps.len()
        ));
    }
    let jsd = run.sessions.first().and_then(|s| s.jsd);
    vec![
        Metric {
            name: "step_ms_p50",
            unit: "ms",
            value: required(stats::mean(&run.session_p50s(false)), "step_ms_p50", failures),
        },
        Metric { name: "step_ms_p95", unit: "ms", value: p95.unwrap_or(f64::NAN) },
        Metric { name: "events_per_s", unit: "1/s", value: events as f64 / step_s },
        Metric {
            name: "release_s",
            unit: "s",
            value: required(stats::mean(&release), "release_s", failures),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: required(stats::median(&setup), "setup_s", failures),
        },
        Metric {
            name: "recover_s",
            unit: "s",
            value: required(stats::mean(&recover), "recover_s", failures),
        },
        Metric {
            name: "rss_growth_mb",
            unit: "MB",
            value: required(run.rss_growth_mb, "rss_growth_mb", failures),
        },
        Metric { name: "density_jsd", unit: "nats", value: required(jsd, "density_jsd", failures) },
    ]
}

fn per_layer(
    input: &Input,
    run: &drive::Run,
    notes: &mut Vec<String>,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let traces: Vec<&drive::StepTrace> = run.traces().collect();
    let n = traces.len().max(1) as f64;
    let mean = |f: &dyn Fn(&drive::StepTrace) -> f64| traces.iter().map(|t| f(t)).sum::<f64>() / n;
    let ms = |f: &dyn Fn(&drive::StepTrace) -> f64| mean(f) * 1e3;
    let traced_p50 = stats::mean(&run.session_p50s(true));
    let untraced_p50 = stats::mean(&run.session_p50s(false));
    let overhead = match (traced_p50, untraced_p50) {
        (Some(a), Some(b)) => Some(a / b - 1.0),
        _ => None,
    };
    notes.push(format!(
        "{} sessions ({} traced), {} traced steps",
        run.sessions.len(),
        run.sessions.iter().filter(|s| s.traced).count(),
        traces.len()
    ));
    let first_traced = run.sessions.iter().find(|s| s.traced);
    let horizon = first_traced.map(|s| s.horizon).unwrap_or_default();
    let reporters: Vec<u64> =
        first_traced.map(|s| s.steps.iter().map(|t| t.reports).collect()).unwrap_or_default();
    let probe = probe::replay(input, &reporters, input.engine_seed);
    vec![
        Metric { name: "core.try_step_ms", unit: "ms", value: ms(&|t| t.try_step) },
        Metric {
            name: "core.bookkeeping_ms",
            unit: "ms",
            value: ms(&|t| t.try_step - t.collect - t.model - t.dmu - t.synthesis),
        },
        Metric { name: "ldp.collect_ms", unit: "ms", value: ms(&|t| t.collect) },
        Metric { name: "core.synthesis_ms", unit: "ms", value: ms(&|t| t.synthesis) },
        Metric { name: "core.model_ms", unit: "ms", value: ms(&|t| t.model) },
        Metric { name: "core.dmu_ms", unit: "ms", value: ms(&|t| t.dmu) },
        Metric { name: "ingest.screen_ms", unit: "ms", value: ms(&|t| t.screen) },
        Metric { name: "wal.append_ms", unit: "ms", value: ms(&|t| t.append) },
        Metric { name: "wal.checkpoint_ms", unit: "ms", value: ms(&|t| t.checkpoint) },
        Metric { name: "session.events", unit: "count/step", value: mean(&|t| t.events as f64) },
        Metric { name: "ldp.reports", unit: "count/step", value: mean(&|t| t.reports as f64) },
        Metric { name: "ingest.diverted", unit: "count/step", value: mean(&|t| t.diverted as f64) },
        Metric { name: "wal.bytes", unit: "B/step", value: mean(&|t| t.wal_bytes as f64) },
        Metric { name: "wal.checkpoint_bytes", unit: "B", value: horizon.checkpoint_bytes as f64 },
        Metric {
            name: "store.resident_cells",
            unit: "count",
            value: horizon.resident_cells as f64,
        },
        Metric {
            name: "store.active_streams",
            unit: "count",
            value: horizon.active_streams as f64,
        },
        Metric {
            name: "store.finished_streams",
            unit: "count",
            value: horizon.finished_streams as f64,
        },
        Metric {
            name: "core.compaction_runs",
            unit: "count",
            value: horizon.compaction_runs as f64,
        },
        Metric {
            name: "population.register_ns",
            unit: "ns",
            value: required(probe.register.per_call(), "register", failures),
        },
        Metric {
            name: "population.status_ns",
            unit: "ns",
            value: required(probe.status.per_call(), "status", failures),
        },
        Metric {
            name: "population.recycle_ns",
            unit: "ns",
            value: required(probe.recycle.per_call(), "recycle", failures),
        },
        Metric {
            name: "population.mark_reported_ns",
            unit: "ns",
            value: required(probe.mark_reported.per_call(), "mark_reported", failures),
        },
        Metric {
            name: "population.mark_quitted_ns",
            unit: "ns",
            value: required(probe.mark_quitted.per_call(), "mark_quitted", failures),
        },
        Metric {
            name: "ldp.ledger_record_ns",
            unit: "ns",
            value: required(probe.ledger_record.per_call(), "record_user_report", failures),
        },
        Metric {
            name: "trace.overhead",
            unit: "ratio",
            value: required(overhead, "trace.overhead", failures),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Size;

    fn tiny(workload: Workload) -> Input {
        let size = match workload {
            Workload::TdriveDurable => Size { users: 1500, timestamps: 35 },
            _ => Size { users: 400, timestamps: 16 },
        };
        Input::generate(workload, size, 7)
    }

    #[test]
    fn args_parse_with_defaults() {
        let argv: Vec<String> = ["--workload", "budget_default", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_args(&argv),
            Ok(Args {
                workload: Workload::BudgetDefault,
                seed: DEFAULT_SEED,
                seconds: 10.0,
                trace: true
            })
        );
        let bad = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(bad(&["--seed", "3"]).is_err(), "workload is required");
        assert!(bad(&["--workload", "nope"]).is_err());
        assert!(bad(&["--workload", "budget_default", "--trace", "2"]).is_err());
        assert!(bad(&["--workload", "budget_default", "--seconds"]).is_err());
    }

    #[test]
    fn inputs_repeat_per_seed() {
        for w in Workload::ALL {
            let a = tiny(w);
            let b = tiny(w);
            assert_eq!(a.batches, b.batches, "{}", w.name());
            let c = Input::generate(w, Size { users: 400, timestamps: 16 }, 8);
            assert_ne!(a.batches, c.batches, "{}", w.name());
        }
    }

    #[test]
    fn only_the_durable_workload_carries_malformed_events() {
        for w in Workload::ALL {
            let input = tiny(w);
            let injected: usize = (0..input.horizon()).map(|t| input.injected(t).len()).sum();
            assert_eq!(injected > 0, w.durable(), "{}", w.name());
        }
    }

    #[test]
    fn release_digest_repeats_and_tells_releases_apart() {
        for w in Workload::ALL {
            let input = tiny(w);
            let out = measure(&input, 0.0, false);
            assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
            assert!(out.digests().len() >= 2);
            assert!(out.digests().iter().all(|&d| d == out.digests()[0]), "{}", w.name());
            let other =
                measure(&Input::generate(w, Size { users: 400, timestamps: 16 }, 8), 0.0, false);
            assert_ne!(other.digests()[0], out.digests()[0], "{}", w.name());
        }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let out = measure(&tiny(Workload::TdriveDurable), 0.0, false);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let names: Vec<_> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "step_ms_p50",
                "step_ms_p95",
                "events_per_s",
                "release_s",
                "setup_s",
                "recover_s",
                "rss_growth_mb",
                "density_jsd"
            ]
        );
        assert!(out.metrics.iter().all(|m| m.value > 0.0), "{:?}", out.metrics);
        assert!(out.run.attempted >= stats::p95_min_samples() as u64);
        // Every untraced session and every restart gives a release sample.
        assert!(out.run.restarts.len() >= out.run.sessions.len() - 1);
        assert_eq!(out.run.release_s().len(), out.run.sessions.len() + out.run.restarts.len());
    }

    #[test]
    fn traced_run_agrees_with_untraced_run() {
        for w in Workload::ALL {
            let input = tiny(w);
            let untraced = measure(&input, 0.0, false);
            let traced = measure(&input, 0.0, true);
            assert!(traced.failures.is_empty(), "{}: {:?}", w.name(), traced.failures);
            assert!(traced.digests().len() >= 2, "an untraced and a traced session");
            assert!(traced.digests().iter().all(|&d| d == untraced.digests()[0]), "{}", w.name());
            let get = |name: &str| traced.metrics.iter().find(|m| m.name == name).unwrap().value;
            let events = input.total_events() as f64 / input.horizon() as f64;
            assert!((get("session.events") - events).abs() < 1e-9);
            assert_eq!(get("ingest.diverted") > 0.0, w.durable());
            assert_eq!(get("wal.checkpoint_bytes") > 0.0, w.durable());
            assert_eq!(get("ldp.reports") > 0.0, w != Workload::BudgetDefault);
            assert!(get("core.try_step_ms") >= get("core.synthesis_ms"));
        }
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let mut input = tiny(Workload::PopulationDefault);
        input.real_active[3] += 1;
        let out = measure(&input, 0.0, false);
        assert!(out.failures.iter().any(|f| f.contains("t=3")), "{:?}", out.failures);
        assert!(out.metrics.is_empty());
        let mut input = tiny(Workload::TdriveDurable);
        let t = (0..input.horizon()).find(|&t| !input.injected(t).is_empty()).unwrap() as usize;
        // A malformed event the test pretends is valid must show up as
        // diverted-but-not-injected.
        input.valid_len[t] += 1;
        let out = measure(&input, 0.0, false);
        assert!(!out.failures.is_empty());
    }
}
