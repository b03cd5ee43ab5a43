//! The closed-loop session driver.
//!
//! One run builds a fresh session, hands it each timestamp's batch as soon
//! as the previous step has returned, releases it at the horizon, and
//! repeats until the run's time is up. Every session of a run replays the
//! same input, so every release must have the same digest. Untraced
//! sessions time only the whole step; traced sessions time each layer
//! call separately (see `README.md` for the layer→metric map). Memory is
//! measured over the first session; each later untraced session is
//! followed by timed restarts from its WAL or horizon checkpoint, each
//! released again, so that `recover_s` and `release_s` pool many samples
//! spread over the whole run.

use crate::stats::{self, Rss};
use crate::workload::{Input, DURABLE_EVERY};
use retrasyn_core::{
    Checkpointer, EventSource, FsyncPolicy, IngestPolicy, RetraSyn, StepOutcome, StepVerdict,
    StreamingEngine, Supervisor, ValidatedSource, WalWriter,
};
use retrasyn_geo::{GriddedDataset, UserEvent};
use retrasyn_metrics::live;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Fewest untraced sessions followed by restarts in an untraced run.
const MIN_RESTARTED_SESSIONS: usize = 3;
/// After each untraced session but the first, restarts are timed until
/// they have taken this share of the session's summed step time (at least
/// one, at most [`MAX_RESTARTS_PER_SESSION`]).
const RESTART_SHARE: f64 = 0.3;
/// Most restarts timed after one session.
const MAX_RESTARTS_PER_SESSION: usize = 8;
/// A run stops starting sessions after this many seconds whatever else
/// it still lacks, to stay inside the 180 s a run may take.
const HARD_STOP_S: f64 = 120.0;

/// Directory, relative to the working directory, that holds each run's
/// WAL and checkpoint files while the run lasts.
const SCRATCH_ROOT: &str = ".perfbench-tmp";

/// Feeds a session the pre-generated batches in order.
#[derive(Debug)]
struct SliceSource<'a> {
    batches: &'a [Vec<UserEvent>],
    next: usize,
}

impl EventSource for SliceSource<'_> {
    fn next_batch(&mut self) -> Option<&[UserEvent]> {
        let batch = self.batches.get(self.next)?;
        self.next += 1;
        Some(batch)
    }
}

/// The session's event source: the bare batches, or the batches screened
/// by `ValidatedSource` on the durable workload.
enum Source<'a> {
    Plain(SliceSource<'a>),
    Screened(Box<ValidatedSource<SliceSource<'a>>>),
}

impl Source<'_> {
    fn next_batch(&mut self) -> Option<&[UserEvent]> {
        match self {
            Source::Plain(s) => s.next_batch(),
            Source::Screened(s) => s.next_batch(),
        }
    }

    fn diverted(&self) -> u64 {
        match self {
            Source::Plain(_) => 0,
            Source::Screened(s) => s.stats().diverted(),
        }
    }
}

/// How the engine is driven.
enum Stage {
    /// `try_step` called directly.
    Bare(RetraSyn),
    /// `Supervisor::step`: WAL append, `try_step` under `catch_unwind`,
    /// checkpoint.
    Supervised(Supervisor<RetraSyn>),
    /// The supervisor's happy path as three separate calls, so that each
    /// gets its own span.
    Pieces { engine: RetraSyn, wal: WalWriter, checkpointer: Checkpointer },
}

impl Stage {
    fn engine(&self) -> &RetraSyn {
        match self {
            Stage::Bare(e) | Stage::Pieces { engine: e, .. } => e,
            Stage::Supervised(s) => s.engine(),
        }
    }

    fn release(&mut self) -> Result<GriddedDataset, String> {
        match self {
            Stage::Bare(e) => e.try_release().map_err(|e| e.to_string()),
            Stage::Supervised(s) => s.release().map_err(|e| e.to_string()),
            Stage::Pieces { engine, wal, .. } => {
                wal.sync().map_err(|e| e.to_string())?;
                engine.try_release().map_err(|e| e.to_string())
            }
        }
    }
}

/// Per-step layer numbers of a traced session. Times in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTrace {
    /// Span around `try_step`.
    pub try_step: f64,
    /// `timing_report()` deltas: user side (collection), model
    /// construction, DMU and synthesis.
    pub collect: f64,
    /// See `collect`.
    pub model: f64,
    /// See `collect`.
    pub dmu: f64,
    /// See `collect`.
    pub synthesis: f64,
    /// Span around the source's `next_batch` (`ValidatedSource` on the
    /// durable workload).
    pub screen: f64,
    /// Span around `WalWriter::append_batch` (an empty stage without WAL).
    pub append: f64,
    /// Span around `Checkpointer::maybe_save` (an empty stage without WAL).
    pub checkpoint: f64,
    /// Events handed to the session, malformed ones included.
    pub events: u64,
    /// New ledger entries (`total_user_reports` delta).
    pub reports: u64,
    /// Events diverted by the screen.
    pub diverted: u64,
    /// WAL bytes appended (`offset` delta).
    pub wal_bytes: u64,
}

/// State of a traced session at the horizon, before release.
#[derive(Debug, Clone, Copy, Default)]
pub struct HorizonTrace {
    /// Size of the last checkpoint written (0 without WAL).
    pub checkpoint_bytes: u64,
    /// `resident_cells()`.
    pub resident_cells: u64,
    /// Live synthetic streams.
    pub active_streams: u64,
    /// Finished synthetic streams.
    pub finished_streams: u64,
    /// Epoch compactions run.
    pub compaction_runs: u64,
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Whether the layer calls were traced.
    pub traced: bool,
    /// Seconds from construction until ready for the first batch.
    pub setup_s: f64,
    /// Wall time of each step, from batch hand-over to step return, in ms.
    pub step_ms: Vec<f64>,
    /// Events handed to the session, malformed ones included.
    pub events: u64,
    /// Seconds for `try_release` at the horizon.
    pub release_s: f64,
    /// Digest of the release.
    pub digest: u64,
    /// Mean per-timestamp occupancy JSD, computed on the first session.
    pub jsd: Option<f64>,
    /// Per-step layer numbers (traced sessions).
    pub steps: Vec<StepTrace>,
    /// Horizon state (traced sessions).
    pub horizon: HorizonTrace,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Sessions in the order they ran.
    pub sessions: Vec<Session>,
    /// Steps attempted over all sessions.
    pub attempted: u64,
    /// Steps that erred, needed a retry, or were poisoned.
    pub failed: u64,
    /// Failed output checks, in the order they were found.
    pub failures: Vec<String>,
    /// Peak RSS growth over the sessions, in MB.
    pub rss_growth_mb: Option<f64>,
    /// Timed restarts, after each untraced session but the first.
    pub restarts: Vec<Restart>,
}

/// One timed restart of a finished session.
#[derive(Debug, Clone, Copy)]
pub struct Restart {
    /// Seconds to bring a fresh engine back to the horizon.
    pub recover_s: f64,
    /// Seconds for `try_release` of the restarted session.
    pub release_s: f64,
}

impl Run {
    /// Step wall times in ms of the traced or untraced sessions.
    pub fn step_ms(&self, traced: bool) -> Vec<f64> {
        self.sessions
            .iter()
            .filter(|s| s.traced == traced)
            .flat_map(|s| s.step_ms.clone())
            .collect()
    }

    /// `recover_s` of every restart.
    pub fn recover_s(&self) -> Vec<f64> {
        self.restarts.iter().map(|r| r.recover_s).collect()
    }

    /// `release_s` of every untraced session and every restart.
    pub fn release_s(&self) -> Vec<f64> {
        let sessions = self.sessions.iter().filter(|s| !s.traced).map(|s| s.release_s);
        sessions.chain(self.restarts.iter().map(|r| r.release_s)).collect()
    }

    /// Each traced or untraced session's median step wall time in ms.
    pub fn session_p50s(&self, traced: bool) -> Vec<f64> {
        self.sessions
            .iter()
            .filter(|s| s.traced == traced)
            .filter_map(|s| stats::median(&s.step_ms))
            .collect()
    }

    /// Per-step layer numbers of every traced session.
    pub fn traces(&self) -> impl Iterator<Item = &StepTrace> {
        self.sessions.iter().flat_map(|s| s.steps.iter())
    }
}

/// A per-run directory for WAL files, removed with everything in it when
/// dropped.
#[derive(Debug)]
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new() -> Result<Scratch, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(SCRATCH_ROOT).join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("session.wal")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only when no other run is using the root.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

fn fresh_engine(input: &Input) -> RetraSyn {
    RetraSyn::new(input.config.clone(), input.grid.clone(), input.division, input.engine_seed)
}

const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(DURABLE_EVERY);

/// Drive sessions over `input` until `seconds` have passed. Untraced runs
/// also need enough step samples for a p95 and end with timed restarts;
/// traced runs alternate untraced and traced sessions, starting
/// untraced, and need at least one of each.
pub fn run(input: &Input, seconds: f64, traced: bool) -> Run {
    let mut run = Run::default();
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            run.failures.push(e);
            return run;
        }
    };
    let rss = match Rss::start() {
        Ok(rss) => rss,
        Err(e) => {
            run.failures.push(e);
            return run;
        }
    };
    let durable = input.workload.durable();
    let (min_sessions, min_steps) =
        if traced { (2, 0) } else { (1 + MIN_RESTARTED_SESSIONS, stats::p95_min_samples()) };
    let began = Instant::now();
    let mut last_session_s = 0.0;
    loop {
        let index = run.sessions.len();
        let trace_this = traced && index % 2 == 1;
        let elapsed = began.elapsed().as_secs_f64();
        let steps_after = run.step_ms(false).len() + input.horizon() as usize;
        let last = index + 1 >= min_sessions
            && (!traced || trace_this)
            && (elapsed + last_session_s >= seconds || elapsed >= HARD_STOP_S)
            && steps_after >= min_steps;
        let session_began = Instant::now();
        // The first session measures memory; every later untraced one is
        // followed by timed restarts, so the restarts spread over the
        // whole run like the steps do.
        let restart = !traced && index > 0;
        let ctx = SessionCtx {
            input,
            wal_path: scratch.wal_path(),
            traced: trace_this,
            first: index == 0,
            keep_checkpoint: restart && !durable,
        };
        let (session, checkpoint) = match session(&ctx, &mut run.attempted) {
            Ok(done) => done,
            Err(e) => {
                run.failed += 1;
                run.failures.push(e);
                return run;
            }
        };
        run.sessions.push(session);
        if index == 0 {
            run.rss_growth_mb = rss.growth_mb();
        }
        if restart {
            // Restarts take about `RESTART_SHARE` of the session's step time,
            // so that the restore and release samples spread over the run
            // as evenly as the steps do.
            let budget = RESTART_SHARE * run.sessions[index].step_ms.iter().sum::<f64>() / 1e3;
            let digest = run.sessions[0].digest;
            let restarts_began = Instant::now();
            for _ in 0..MAX_RESTARTS_PER_SESSION {
                let timed = match (durable, &checkpoint) {
                    (true, _) => recover_durable(input, &ctx.wal_path, digest),
                    (false, Some(bytes)) => restore(input, bytes, digest),
                    (false, None) => Err("the engine produced no checkpoint".to_string()),
                };
                match timed {
                    Ok(restart) => run.restarts.push(restart),
                    Err(e) => {
                        run.failures.push(e);
                        return run;
                    }
                }
                if restarts_began.elapsed().as_secs_f64() >= budget {
                    break;
                }
            }
        }
        last_session_s = session_began.elapsed().as_secs_f64();
        if last {
            break;
        }
        if began.elapsed().as_secs_f64() >= HARD_STOP_S {
            run.failures.push(format!("run still incomplete after {HARD_STOP_S} s"));
            return run;
        }
    }

    let digest = run.sessions[0].digest;
    for (i, s) in run.sessions.iter().enumerate() {
        if s.digest != digest {
            run.failures.push(format!(
                "session {i} ({}) released digest {:016x}, session 0 released {digest:016x}",
                if s.traced { "traced" } else { "untraced" },
                s.digest
            ));
        }
    }
    run
}

struct SessionCtx<'a> {
    input: &'a Input,
    wal_path: PathBuf,
    traced: bool,
    /// Computes the density JSD.
    first: bool,
    /// Keep the engine's checkpoint at the horizon, before release.
    keep_checkpoint: bool,
}

/// Drive one session over the whole input and release it. Returns the
/// session's measurements and, if asked, its horizon checkpoint.
fn session(
    ctx: &SessionCtx<'_>,
    attempted: &mut u64,
) -> Result<(Session, Option<Vec<u8>>), String> {
    let input = ctx.input;
    let durable = input.workload.durable();
    let (mut stage, mut source, setup_s) = set_up(input, &ctx.wal_path, ctx.traced)?;

    let mut out = Session { traced: ctx.traced, setup_s, ..Session::default() };
    let (mut occupancy, mut weights) = (Vec::new(), Vec::new());
    let mut jsd_sum = 0.0;
    for t in 0..input.horizon() {
        *attempted += 1;
        let events = input.batches[t as usize].len() as u64;
        let outcome = if ctx.traced {
            let (outcome, mut trace) = traced_step(t, &mut stage, &mut source)?;
            trace.events = events;
            out.steps.push(trace);
            out.step_ms
                .push((trace.screen + trace.append + trace.try_step + trace.checkpoint) * 1e3);
            outcome
        } else {
            let clock = Instant::now();
            let batch = source.next_batch().ok_or_else(|| format!("source ended at t={t}"))?;
            let outcome = match &mut stage {
                Stage::Bare(engine) => engine.try_step(t, batch).map_err(|e| e.to_string()),
                Stage::Supervised(s) => match s.step(batch) {
                    Ok(StepVerdict::Stepped(outcome)) => Ok(outcome),
                    Ok(verdict) => Err(format!("supervisor verdict {verdict:?}")),
                    Err(e) => Err(e.to_string()),
                },
                Stage::Pieces { .. } => unreachable!("untraced sessions are never split"),
            };
            out.step_ms.push(clock.elapsed().as_secs_f64() * 1e3);
            let outcome = outcome.map_err(|e| format!("step t={t}: {e}"))?;
            if durable && batch != input.valid(t) {
                return Err(format!("t={t}: the screened batch differs from the valid events"));
            }
            outcome
        };
        out.events += events;

        let real = input.real_active[t as usize];
        if outcome.active != real {
            return Err(format!(
                "t={t}: {} synthetic streams active, {real} real users",
                outcome.active
            ));
        }
        if let Source::Screened(screen) = &mut source {
            let diverted = screen.drain_quarantine();
            let injected = input.injected(t);
            if diverted.len() != injected.len()
                || diverted.iter().zip(injected).any(|(q, e)| q.t != t || q.event != *e)
            {
                return Err(format!(
                    "t={t}: ValidatedSource diverted {} events, {} were injected",
                    diverted.len(),
                    injected.len()
                ));
            }
        }
        if ctx.first {
            let snapshot = stage.engine().snapshot();
            jsd_sum += live::occupancy_jsd_into(
                &input.real_occupancy[t as usize],
                &snapshot,
                &mut occupancy,
                &mut weights,
            );
        }
    }
    if ctx.first {
        out.jsd = Some(jsd_sum / input.horizon() as f64);
    }
    if let Source::Screened(screen) = &source {
        let injected: usize = (0..input.horizon()).map(|t| input.injected(t).len()).sum();
        if screen.stats().diverted() != injected as u64 {
            return Err(format!(
                "ValidatedSource diverted {} events in all, {injected} were injected",
                screen.stats().diverted()
            ));
        }
    }

    if ctx.traced {
        let engine = stage.engine();
        out.horizon = HorizonTrace {
            checkpoint_bytes: match &stage {
                Stage::Pieces { checkpointer, .. } => std::fs::metadata(checkpointer.path())
                    .map(|m| m.len())
                    .map_err(|e| format!("checkpoint: {e}"))?,
                _ => 0,
            },
            resident_cells: engine.resident_cells() as u64,
            active_streams: engine.snapshot().active_count() as u64,
            finished_streams: engine.snapshot().finished_count() as u64,
            compaction_runs: engine.compaction_stats().runs,
        };
    }
    let checkpoint = if ctx.keep_checkpoint {
        let bytes = stage.engine().checkpoint_bytes();
        Some(bytes.ok_or("the engine produced no checkpoint")?)
    } else {
        None
    };

    let clock = Instant::now();
    let released = stage.release()?;
    out.release_s = clock.elapsed().as_secs_f64();
    out.digest = stats::release_digest(&released);
    drop(released);
    stage.engine().ledger().verify().map_err(|e| format!("ledger: {e}"))?;
    Ok((out, checkpoint))
}

/// Build a session ready for its first batch: the engine, and on the
/// durable workload a fresh WAL and the screen. Returns the session and
/// the seconds that took. Files left at `wal_path` by an earlier session
/// are removed first, outside the timed part.
fn set_up<'a>(
    input: &'a Input,
    wal_path: &Path,
    traced: bool,
) -> Result<(Stage, Source<'a>, f64), String> {
    let durable = input.workload.durable();
    if durable {
        for path in [wal_path.to_path_buf(), Checkpointer::sidecar(wal_path)] {
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("remove {}: {e}", path.display()))
                }
                _ => {}
            }
        }
    }

    let clock = Instant::now();
    let engine = fresh_engine(input);
    let stage = match (durable, traced) {
        (false, _) => Stage::Bare(engine),
        (true, false) => Stage::Supervised(
            Supervisor::create(engine, wal_path, input.engine_seed, FSYNC)
                .map_err(|e| format!("create WAL: {e}"))?
                .with_checkpoints(DURABLE_EVERY),
        ),
        (true, true) => {
            let wal = WalWriter::create(wal_path, input.engine_seed, engine.fingerprint(), FSYNC)
                .map_err(|e| format!("create WAL: {e}"))?;
            let checkpointer = Checkpointer::new(wal_path, DURABLE_EVERY);
            Stage::Pieces { engine, wal, checkpointer }
        }
    };
    let plain = SliceSource { batches: &input.batches, next: 0 };
    let source = if durable {
        let topology = Arc::clone(stage.engine().topology());
        Source::Screened(Box::new(ValidatedSource::new(plain, topology, IngestPolicy::DropEvents)))
    } else {
        Source::Plain(plain)
    };
    Ok((stage, source, clock.elapsed().as_secs_f64()))
}

/// Sum of the engine's cumulative component times in seconds:
/// (user side, model construction, DMU, synthesis).
fn component_totals(engine: &RetraSyn) -> [f64; 4] {
    let r = engine.timing_report();
    let n = r.steps as f64;
    [r.user_side * n, r.model_construction * n, r.dmu * n, r.synthesis * n]
}

/// One traced step: a span around each layer call, in the order the
/// untraced session makes them.
fn traced_step(
    t: u64,
    stage: &mut Stage,
    source: &mut Source<'_>,
) -> Result<(StepOutcome, StepTrace), String> {
    let reports_before = stage.engine().ledger().total_user_reports() as u64;
    let diverted_before = source.diverted();
    let totals_before = component_totals(stage.engine());
    let wal_before = match stage {
        Stage::Pieces { wal, .. } => wal.offset(),
        _ => 0,
    };

    let c0 = Instant::now();
    let batch = source.next_batch().ok_or_else(|| format!("source ended at t={t}"))?;
    let c1 = Instant::now();
    if let Stage::Pieces { wal, .. } = stage {
        wal.append_batch(t, batch).map_err(|e| format!("t={t}: WAL append: {e}"))?;
    }
    let c2 = Instant::now();
    let stepped = match stage {
        Stage::Bare(engine) | Stage::Pieces { engine, .. } => engine.try_step(t, batch),
        Stage::Supervised(_) => unreachable!("traced sessions call the layers directly"),
    };
    let c3 = Instant::now();
    let outcome = stepped.map_err(|e| format!("step t={t}: {e}"))?;
    if let Stage::Pieces { engine, checkpointer, .. } = stage {
        checkpointer.maybe_save(engine).map_err(|e| format!("t={t}: checkpoint: {e}"))?;
    }
    let c4 = Instant::now();

    let totals_after = component_totals(stage.engine());
    let delta = |i: usize| totals_after[i] - totals_before[i];
    let trace = StepTrace {
        try_step: (c3 - c2).as_secs_f64(),
        collect: delta(0),
        model: delta(1),
        dmu: delta(2),
        synthesis: delta(3),
        screen: (c1 - c0).as_secs_f64(),
        append: (c2 - c1).as_secs_f64(),
        checkpoint: (c4 - c3).as_secs_f64(),
        events: 0,
        reports: stage.engine().ledger().total_user_reports() as u64 - reports_before,
        diverted: source.diverted() - diverted_before,
        wal_bytes: match stage {
            Stage::Pieces { wal, .. } => wal.offset() - wal_before,
            _ => 0,
        },
    };
    Ok((outcome, trace))
}

/// Time `Supervisor::resume` from the WAL and last checkpoint a session
/// left, as a restart would, then the release of the recovered session;
/// check that it resumes at the horizon and releases the same digest.
fn recover_durable(input: &Input, wal_path: &Path, digest: u64) -> Result<Restart, String> {
    let engine = fresh_engine(input);
    let clock = Instant::now();
    let (mut supervisor, recovery) =
        Supervisor::resume(engine, wal_path, FSYNC).map_err(|e| format!("resume: {e}"))?;
    let recover_s = clock.elapsed().as_secs_f64();
    check_restart(input, supervisor.engine(), recovery.next_timestamp())?;
    let clock = Instant::now();
    let released = supervisor.release().map_err(|e| format!("recovered release: {e}"))?;
    let release_s = clock.elapsed().as_secs_f64();
    check_digest(&released, digest)?;
    Ok(Restart { recover_s, release_s })
}

/// Time restoring a horizon checkpoint into a fresh engine, then the
/// release of the restored session; check that it resumes at the horizon
/// and releases the same digest.
fn restore(input: &Input, checkpoint: &[u8], digest: u64) -> Result<Restart, String> {
    let mut engine = fresh_engine(input);
    let clock = Instant::now();
    engine.restore_checkpoint(checkpoint).map_err(|e| format!("restore: {e}"))?;
    let recover_s = clock.elapsed().as_secs_f64();
    check_restart(input, &engine, engine.next_timestamp())?;
    let clock = Instant::now();
    let released = engine.try_release().map_err(|e| format!("restored release: {e}"))?;
    let release_s = clock.elapsed().as_secs_f64();
    check_digest(&released, digest)?;
    Ok(Restart { recover_s, release_s })
}

fn check_restart(input: &Input, engine: &RetraSyn, reported_next: u64) -> Result<(), String> {
    let next = engine.next_timestamp();
    if next != input.horizon() || reported_next != next {
        return Err(format!(
            "restarted session resumes at t={next} (reported {reported_next}), expected t={}",
            input.horizon()
        ));
    }
    Ok(())
}

fn check_digest(released: &GriddedDataset, digest: u64) -> Result<(), String> {
    let got = stats::release_digest(released);
    if got != digest {
        return Err(format!("restarted session released {got:016x}, uninterrupted {digest:016x}"));
    }
    Ok(())
}
