//! Replay probe: splits the engine's per-user bookkeeping by feeding a
//! workload's event stream through the public `UserRegistry` and
//! `WEventLedger` methods in Algorithm 1's order, timing each method.
//!
//! Per timestamp the probe does what a Population-division step does
//! around collection: look up every event's user and register the new
//! ones, recycle the users that reported `w` steps ago, filter the Active
//! users, pick the reporters with a seeded partial Fisher–Yates, mark
//! each reporter and record it in the ledger, then retire the quitters.

use crate::workload::{Input, EPS, W};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retrasyn_core::{Division, UserRegistry, UserStatus};
use retrasyn_geo::TransitionState;
use retrasyn_ldp::WEventLedger;
use std::time::Instant;

/// Total time and call count of one method.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    /// Summed wall time in ns.
    pub ns: f64,
    /// Calls made.
    pub calls: u64,
}

impl Calls {
    fn add(&mut self, since: Instant, calls: usize) {
        self.ns += since.elapsed().as_secs_f64() * 1e9;
        self.calls += calls as u64;
    }

    /// Mean ns per call (`None` before the first call).
    pub fn per_call(&self) -> Option<f64> {
        (self.calls > 0).then(|| self.ns / self.calls as f64)
    }
}

/// Per-method totals of one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// `UserRegistry::register`.
    pub register: Calls,
    /// `UserRegistry::status`.
    pub status: Calls,
    /// `UserRegistry::recycle`.
    pub recycle: Calls,
    /// `UserRegistry::mark_reported`.
    pub mark_reported: Calls,
    /// `UserRegistry::mark_quitted`.
    pub mark_quitted: Calls,
    /// `WEventLedger::record_user_report`.
    pub ledger_record: Calls,
}

/// Replay `input` once. `reporters[t]` is how many users the workload's
/// engine had report at `t`; a Budget-division engine records none, so
/// there the probe has `1/w` of the Active users report, the uniform
/// portion.
pub fn replay(input: &Input, reporters: &[u64], seed: u64) -> Probe {
    let mut probe = Probe::default();
    let mut registry = UserRegistry::new(W);
    let mut ledger = WEventLedger::new(EPS, W);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7072_6f62_6521);
    let (mut fresh, mut eligible, mut quitters) = (Vec::new(), Vec::new(), Vec::new());
    for t in 0..input.horizon() {
        let events = input.valid(t);

        fresh.clear();
        let clock = Instant::now();
        for e in events {
            if registry.status(e.user).is_none() {
                fresh.push(e.user);
            }
        }
        probe.status.add(clock, events.len());
        let clock = Instant::now();
        for &u in &fresh {
            registry.register(u);
        }
        probe.register.add(clock, fresh.len());

        let clock = Instant::now();
        registry.recycle(t);
        probe.recycle.add(clock, 1);

        eligible.clear();
        let clock = Instant::now();
        for e in events {
            if registry.status(e.user) == Some(UserStatus::Active) {
                eligible.push(e.user);
            }
        }
        probe.status.add(clock, events.len());

        let wanted = match input.division {
            Division::Population => reporters.get(t as usize).copied().unwrap_or(0) as usize,
            Division::Budget => (registry.active_count() as f64 / W as f64).round() as usize,
        };
        let n = wanted.min(eligible.len());
        for i in 0..n {
            let j = rng.random_range(i..eligible.len());
            eligible.swap(i, j);
        }
        eligible.truncate(n);

        let clock = Instant::now();
        for &u in &eligible {
            registry.mark_reported(u, t);
        }
        probe.mark_reported.add(clock, n);
        let clock = Instant::now();
        for &u in &eligible {
            ledger.record_user_report(u, t);
        }
        probe.ledger_record.add(clock, n);

        quitters.clear();
        quitters.extend(
            events.iter().filter(|e| matches!(e.state, TransitionState::Quit(_))).map(|e| e.user),
        );
        let clock = Instant::now();
        for &u in &quitters {
            registry.mark_quitted(u);
        }
        probe.mark_quitted.add(clock, quitters.len());
    }
    probe
}
