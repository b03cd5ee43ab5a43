//! The four workloads and their seeded input streams.
//!
//! Every workload runs on `Grid::unit(32)` with ε = 1, w = 10 and
//! λ = the input's average stream length. The input is generated once per
//! run, before any session is built, and handed to the session batch by
//! batch; generation time is printed but is not a metric.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retrasyn_core::{CollectionKernel, Division, RetraSynConfig};
use retrasyn_datagen::{RandomWalkConfig, TDriveConfig};
use retrasyn_geo::{CellId, EventTimeline, Grid, StreamDataset, TransitionState, UserEvent};

/// Side of the square grid every workload uses.
pub const GRID_SIDE: u16 = 32;
/// Total privacy budget per window.
pub const EPS: f64 = 1.0;
/// w-event window.
pub const W: usize = 10;
/// WAL fsync cadence and checkpoint interval of the durable workload, in
/// timestamps.
pub const DURABLE_EVERY: u64 = 10;
/// One malformed event is injected per this many valid events of the
/// durable workload.
const MALFORMED_EVERY: usize = 1000;
/// Injected events use user ids from here upward, far above any id the
/// generators assign, so they never collide with a real stream.
const FRESH_ID_BASE: u64 = 1 << 62;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RandomWalk, 100k users, Population division, Aggregate mode.
    PopulationDefault,
    /// The same input as `PopulationDefault`, Budget division.
    BudgetDefault,
    /// T-Drive-like taxis with malformed events, screened by
    /// `ValidatedSource` and run under a `Supervisor` with WAL and
    /// checkpoints.
    TdriveDurable,
    /// RandomWalk, 20k users, PerUser reports through the Blocked kernel
    /// on a two-thread collection pool.
    PerUserBlocked,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PopulationDefault,
        Workload::BudgetDefault,
        Workload::TdriveDurable,
        Workload::PerUserBlocked,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PopulationDefault => "population_default",
            Workload::BudgetDefault => "budget_default",
            Workload::TdriveDurable => "tdrive_durable",
            Workload::PerUserBlocked => "per_user_blocked",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the session runs behind `ValidatedSource` and `Supervisor`.
    pub fn durable(self) -> bool {
        self == Workload::TdriveDurable
    }

    /// The full-size input shape of this workload.
    pub fn full_size(self) -> Size {
        match self {
            Workload::PopulationDefault | Workload::BudgetDefault => {
                Size { users: 100_000, timestamps: 40 }
            }
            Workload::TdriveDurable => Size { users: 150_000, timestamps: 50 },
            Workload::PerUserBlocked => Size { users: 20_000, timestamps: 40 },
        }
    }
}

/// Input shape: users (taxis for T-Drive) and timestamps per session.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Simultaneous users (RandomWalk) or taxis (T-Drive).
    pub users: usize,
    /// Timestamps in one session.
    pub timestamps: u64,
}

/// One workload's generated input and engine configuration.
#[derive(Debug)]
pub struct Input {
    /// The workload this input belongs to.
    pub workload: Workload,
    /// Discretization handed to every engine.
    pub grid: Grid,
    /// Engine configuration.
    pub config: RetraSynConfig,
    /// Engine division.
    pub division: Division,
    /// Engine seed, derived from the workload seed.
    pub engine_seed: u64,
    /// What the session is handed at each timestamp. On the durable
    /// workload the injected malformed events follow the valid ones.
    pub batches: Vec<Vec<UserEvent>>,
    /// Number of valid events at the front of each batch.
    pub valid_len: Vec<usize>,
    /// Real active users (non-Quit events) per timestamp.
    pub real_active: Vec<usize>,
    /// Real per-cell occupancy per timestamp.
    pub real_occupancy: Vec<Vec<u64>>,
}

impl Input {
    /// Generate the input of `workload` at `size` from `seed`. The same
    /// arguments always give the same input.
    pub fn generate(workload: Workload, size: Size, seed: u64) -> Input {
        let grid = Grid::unit(GRID_SIDE);
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset: StreamDataset = match workload {
            Workload::TdriveDurable => TDriveConfig {
                taxis: size.users,
                timestamps: size.timestamps,
                // A short simulated day, so one session crosses both rush
                // hours.
                day_length: 48,
                ..TDriveConfig::default()
            }
            .generate(&mut rng),
            _ => RandomWalkConfig {
                users: size.users,
                timestamps: size.timestamps,
                churn: 0.05,
                ..RandomWalkConfig::default()
            }
            .generate(&mut rng),
        };
        let gridded = dataset.discretize(&grid);
        drop(dataset);
        let lambda = gridded.avg_length();
        let timeline = EventTimeline::build(&gridded);
        drop(gridded);
        let mut batches: Vec<Vec<UserEvent>> =
            (0..timeline.horizon()).map(|t| timeline.at(t).to_vec()).collect();
        drop(timeline);

        let cells = grid.num_cells();
        let real_active = batches
            .iter()
            .map(|b| b.iter().filter(|e| !matches!(e.state, TransitionState::Quit(_))).count())
            .collect();
        let real_occupancy = batches.iter().map(|b| occupancy(b, cells)).collect();
        let valid_len = batches.iter().map(Vec::len).collect();
        if workload.durable() {
            let mut inject_rng = StdRng::seed_from_u64(seed ^ 0x6d61_6c66_6f72_6d65);
            let mut next_id = FRESH_ID_BASE;
            for batch in &mut batches {
                inject_malformed(batch, cells, &mut inject_rng, &mut next_id);
            }
        }

        let base = RetraSynConfig::new(EPS, W).with_lambda(lambda);
        let (config, division) = match workload {
            Workload::PopulationDefault => (base, Division::Population),
            Workload::BudgetDefault => (base, Division::Budget),
            // The synthetic store keeps about 0.35 cells per taxi resident
            // per timestamp, so it crosses this mark once per 50-step
            // session, at t = 30: away from the checkpoint steps
            // (t = 9, 19, ...) and from the horizon.
            Workload::TdriveDurable => {
                (base.with_compaction(size.users * 32 / 3), Division::Population)
            }
            Workload::PerUserBlocked => (
                base.per_user_reports()
                    .with_collection_kernel(CollectionKernel::Blocked)
                    .with_collection_threads(2),
                Division::Population,
            ),
        };
        Input {
            workload,
            grid,
            config,
            division,
            engine_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed,
            batches,
            valid_len,
            real_active,
            real_occupancy,
        }
    }

    /// Timestamps in one session.
    pub fn horizon(&self) -> u64 {
        self.batches.len() as u64
    }

    /// Events handed to the session over one session, malformed included.
    pub fn total_events(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }

    /// The injected malformed events of timestamp `t`, in batch order.
    pub fn injected(&self, t: u64) -> &[UserEvent] {
        let t = t as usize;
        &self.batches[t][self.valid_len[t]..]
    }

    /// The valid events of timestamp `t`.
    pub fn valid(&self, t: u64) -> &[UserEvent] {
        let t = t as usize;
        &self.batches[t][..self.valid_len[t]]
    }
}

/// Per-cell count of the users present at one timestamp: the current cell
/// of every Enter and Move event.
fn occupancy(batch: &[UserEvent], cells: usize) -> Vec<u64> {
    let mut counts = vec![0u64; cells];
    for e in batch {
        match e.state {
            TransitionState::Enter(c) | TransitionState::Move { to: c, .. } => {
                counts[c.index()] += 1;
            }
            TransitionState::Quit(_) => {}
        }
    }
    counts
}

/// Append one malformed event per `MALFORMED_EVERY` valid events (at least
/// one per non-empty batch), cycling through four faults that
/// `ValidatedSource` must divert: an out-of-domain cell, a move between
/// non-adjacent cells, a move from a user that never entered, and a second
/// report from a user already in the batch. Fresh ids make the first three
/// independent of the valid stream.
fn inject_malformed(batch: &mut Vec<UserEvent>, cells: usize, rng: &mut StdRng, next_id: &mut u64) {
    let valid = batch.len();
    if valid == 0 {
        return;
    }
    let count = valid.div_ceil(MALFORMED_EVERY);
    let last = CellId(cells as u32 - 1);
    for i in 0..count {
        let cell = CellId(rng.random_range(0..cells as u32));
        let state = match i % 4 {
            0 => TransitionState::Enter(CellId(cells as u32 + rng.random_range(0..cells as u32))),
            1 => TransitionState::Move { from: CellId(0), to: last },
            2 => TransitionState::Move { from: cell, to: cell },
            _ => {
                let original = batch[rng.random_range(0..valid)];
                batch.push(original);
                continue;
            }
        };
        batch.push(UserEvent { user: *next_id, state });
        *next_id += 1;
    }
}
