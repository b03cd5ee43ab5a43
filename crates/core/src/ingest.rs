//! Ingest validation and quarantine for untrusted event streams.
//!
//! The engines in this crate trust their input: batches produced by
//! [`EventTimeline`](retrasyn_geo::EventTimeline) are reachability-
//! constrained by construction, and the WAL replay path CRC-checks and
//! re-validates every record. A *live* source — a socket, a message queue,
//! another process feeding a [`ChannelSource`](crate::session::ChannelSource)
//! — offers no such guarantee. [`ValidatedSource`] sits between any
//! [`EventSource`] and the engine and screens each batch:
//!
//! - **Domain**: every cell index must lie inside the compiled
//!   [`Topology`] ([`EventFault::OutOfDomain`]).
//! - **Adjacency**: a `Move` must connect adjacent cells
//!   ([`EventFault::NonAdjacentMove`]).
//! - **Uniqueness**: one report per user per timestamp
//!   ([`EventFault::DuplicateReporter`]).
//! - **Lifecycle**: `Move`/`Quit` only from users that entered and have
//!   not quit ([`EventFault::NotEntered`]), `Enter` only from users not
//!   currently active ([`EventFault::ReEnter`]).
//!
//! Offending events are diverted to a bounded quarantine ring (never
//! silently dropped without accounting) and tallied per fault kind in
//! [`IngestStats`]. What happens to the *rest* of a tainted batch is the
//! [`IngestPolicy`]:
//!
//! | policy | tainted batch becomes | use when |
//! |---|---|---|
//! | [`DropEvents`](IngestPolicy::DropEvents) | the valid subset | best-effort live ingest (default) |
//! | [`RejectBatch`](IngestPolicy::RejectBatch) | an empty heartbeat | a bad event discredits its whole batch |
//! | [`Strict`](IngestPolicy::Strict) | end of stream + latched error | malformed input is a bug upstream |
//!
//! The screened stream always satisfies the engines' input contract, so
//! driving an engine through a `ValidatedSource` can never hit an
//! [`InvalidEvent`](crate::session::SessionError::InvalidEvent) error —
//! and, transitively, never a validation panic.
//!
//! Determinism: screening is pure bookkeeping — it consumes no RNG and
//! mutates nothing but the adapter's own counters — so a well-formed
//! stream passes through bit-identical, and a tainted stream yields
//! exactly the batches a pre-cleaned copy of it would have.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use retrasyn_geo::{Topology, TransitionState, UserEvent};

use crate::session::{EventFault, EventSource, SessionError};

/// What [`ValidatedSource`] does with a batch containing invalid events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPolicy {
    /// Quarantine the offending events and pass the valid remainder
    /// through. The default: keeps a live stream flowing on sporadic
    /// corruption.
    #[default]
    DropEvents,
    /// Quarantine the offending events and replace the *whole* batch with
    /// an empty heartbeat (the engine still steps, timestamps stay
    /// consecutive). Valid events discarded this way are counted in
    /// [`IngestStats::rejected_events`].
    RejectBatch,
    /// Treat the first invalid event as fatal: quarantine it, end the
    /// stream, and latch a [`SessionError::InvalidEvent`] retrievable via
    /// [`ValidatedSource::error`].
    Strict,
}

/// An event diverted by [`ValidatedSource`], with the timestamp of the
/// batch it arrived in and the screening rule it violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedEvent {
    /// Timestamp of the batch the event arrived in (the engine timestamp
    /// that batch was — or would have been — delivered as).
    pub t: u64,
    /// The offending event, verbatim.
    pub event: UserEvent,
    /// Which screening rule it violated.
    pub fault: EventFault,
}

/// Per-reason counters kept by [`ValidatedSource`]. All counters are
/// cumulative over the adapter's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Batches pulled from the inner source.
    pub batches: u64,
    /// Events pulled from the inner source (sum of batch lengths).
    pub events: u64,
    /// Events delivered downstream.
    pub passed: u64,
    /// Events referencing a cell outside the discretization.
    pub out_of_domain: u64,
    /// `Move` events between non-adjacent cells.
    pub non_adjacent_moves: u64,
    /// Second and later reports from one user within a single batch.
    pub duplicate_reporters: u64,
    /// `Move`/`Quit` reports from users that never entered (or already
    /// quit).
    pub not_entered: u64,
    /// `Enter` reports from users already active.
    pub re_enter: u64,
    /// Batches emptied by [`IngestPolicy::RejectBatch`].
    pub rejected_batches: u64,
    /// *Valid* events discarded as collateral of a rejected batch.
    pub rejected_events: u64,
    /// Quarantined events evicted because the ring was full.
    pub quarantine_dropped: u64,
}

impl IngestStats {
    /// Total events diverted to quarantine (sum of the per-fault
    /// counters; excludes `rejected_events`, which were valid).
    pub fn diverted(&self) -> u64 {
        self.out_of_domain
            + self.non_adjacent_moves
            + self.duplicate_reporters
            + self.not_entered
            + self.re_enter
    }
}

/// Default capacity of the quarantine ring.
const DEFAULT_QUARANTINE_CAP: usize = 1024;

/// An [`EventSource`] adapter that screens every batch of an inner source
/// against the engine input contract, diverting invalid events to a
/// bounded quarantine. See the [module docs](self) for the rules and
/// policies.
#[derive(Debug)]
pub struct ValidatedSource<S> {
    inner: S,
    topo: Arc<Topology>,
    policy: IngestPolicy,
    /// Users currently active (entered, not yet quit) in the *delivered*
    /// stream.
    entered: BTreeSet<u64>,
    /// Reporters seen so far in the current batch.
    seen: BTreeSet<u64>,
    /// The screened batch handed downstream.
    out: Vec<UserEvent>,
    quarantine: VecDeque<QuarantinedEvent>,
    quarantine_cap: usize,
    stats: IngestStats,
    /// Timestamp the next delivered batch will carry.
    t: u64,
    /// Latched fatal error under [`IngestPolicy::Strict`].
    fatal: Option<SessionError>,
}

impl<S: EventSource> ValidatedSource<S> {
    /// Wrap `inner`, screening against the discretization `topo` under
    /// `policy`.
    pub fn new(inner: S, topo: Arc<Topology>, policy: IngestPolicy) -> Self {
        ValidatedSource {
            inner,
            topo,
            policy,
            entered: BTreeSet::new(),
            seen: BTreeSet::new(),
            out: Vec::new(),
            quarantine: VecDeque::new(),
            quarantine_cap: DEFAULT_QUARANTINE_CAP,
            stats: IngestStats::default(),
            t: 0,
            fatal: None,
        }
    }

    /// Cap the quarantine ring at `cap` events (oldest evicted first,
    /// counted in [`IngestStats::quarantine_dropped`]). `cap = 0` keeps
    /// counters only.
    pub fn with_quarantine_capacity(mut self, cap: usize) -> Self {
        self.quarantine_cap = cap;
        while self.quarantine.len() > cap {
            self.quarantine.pop_front();
            self.stats.quarantine_dropped += 1;
        }
        self
    }

    /// Cumulative screening counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The quarantined events currently retained (oldest first).
    pub fn quarantine(&self) -> impl Iterator<Item = &QuarantinedEvent> {
        self.quarantine.iter()
    }

    /// Drain the quarantine ring, oldest first.
    pub fn drain_quarantine(&mut self) -> Vec<QuarantinedEvent> {
        self.quarantine.drain(..).collect()
    }

    /// The fatal error latched under [`IngestPolicy::Strict`], if the
    /// stream ended on one.
    pub fn error(&self) -> Option<&SessionError> {
        self.fatal.as_ref()
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap, discarding the screening state.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn count_fault(&mut self, fault: EventFault) {
        match fault {
            EventFault::OutOfDomain => self.stats.out_of_domain += 1,
            EventFault::NonAdjacentMove => self.stats.non_adjacent_moves += 1,
            EventFault::DuplicateReporter => self.stats.duplicate_reporters += 1,
            EventFault::NotEntered => self.stats.not_entered += 1,
            EventFault::ReEnter => self.stats.re_enter += 1,
        }
    }

    fn push_quarantine(&mut self, t: u64, event: UserEvent, fault: EventFault) {
        self.count_fault(fault);
        if self.quarantine_cap == 0 {
            self.stats.quarantine_dropped += 1;
            return;
        }
        if self.quarantine.len() >= self.quarantine_cap {
            self.quarantine.pop_front();
            self.stats.quarantine_dropped += 1;
        }
        self.quarantine.push_back(QuarantinedEvent { t, event, fault });
    }
}

impl<S: EventSource> EventSource for ValidatedSource<S> {
    fn next_batch(&mut self) -> Option<&[UserEvent]> {
        if self.fatal.is_some() {
            return None;
        }
        let t = self.t;

        // Screen the incoming batch into `out`, recording faults and the
        // lifecycle transitions the valid events would apply. Nothing is
        // committed until the policy decides the batch's fate.
        self.out.clear();
        self.seen.clear();
        let mut faults: Vec<(UserEvent, EventFault)> = Vec::new();
        {
            let batch = self.inner.next_batch()?;
            self.stats.batches += 1;
            self.stats.events += batch.len() as u64;
            for &event in batch {
                match classify(&self.topo, &self.seen, &self.entered, &event) {
                    Some(fault) => faults.push((event, fault)),
                    None => {
                        self.seen.insert(event.user);
                        self.out.push(event);
                    }
                }
            }
        }

        let tainted = !faults.is_empty();
        if tainted && self.policy == IngestPolicy::Strict {
            let (event, fault) = faults[0];
            self.fatal = Some(SessionError::InvalidEvent { t, user: event.user, fault });
            for (event, fault) in faults {
                self.push_quarantine(t, event, fault);
            }
            return None;
        }
        if tainted && self.policy == IngestPolicy::RejectBatch {
            self.stats.rejected_batches += 1;
            self.stats.rejected_events += self.out.len() as u64;
            self.out.clear();
        }
        for (event, fault) in faults {
            self.push_quarantine(t, event, fault);
        }
        // Commit the lifecycle transitions of the events actually
        // delivered (an emptied batch commits none).
        for event in &self.out {
            match event.state {
                TransitionState::Enter(_) => {
                    self.entered.insert(event.user);
                }
                TransitionState::Quit(_) => {
                    self.entered.remove(&event.user);
                }
                TransitionState::Move { .. } => {}
            }
        }
        self.stats.passed += self.out.len() as u64;
        self.t += 1;
        Some(&self.out)
    }
}

/// Classify `event` against domain, adjacency, per-batch uniqueness and
/// lifecycle, in that order. A free function over the screening state so
/// it can run while the inner source's batch borrow is alive.
fn classify(
    topo: &Topology,
    seen: &BTreeSet<u64>,
    entered: &BTreeSet<u64>,
    event: &UserEvent,
) -> Option<EventFault> {
    let cells = topo.num_cells();
    match event.state {
        TransitionState::Move { from, to } => {
            if from.index() >= cells || to.index() >= cells {
                return Some(EventFault::OutOfDomain);
            }
            if !topo.are_adjacent(from, to) {
                return Some(EventFault::NonAdjacentMove);
            }
        }
        TransitionState::Enter(c) | TransitionState::Quit(c) => {
            if c.index() >= cells {
                return Some(EventFault::OutOfDomain);
            }
        }
    }
    if seen.contains(&event.user) {
        return Some(EventFault::DuplicateReporter);
    }
    match event.state {
        TransitionState::Enter(_) if entered.contains(&event.user) => Some(EventFault::ReEnter),
        TransitionState::Move { .. } | TransitionState::Quit(_)
            if !entered.contains(&event.user) =>
        {
            Some(EventFault::NotEntered)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::IterSource;
    use retrasyn_geo::{CellId, Grid, Space};

    fn topo() -> Arc<Topology> {
        Grid::unit(4).compile_shared()
    }

    fn enter(user: u64, cell: u32) -> UserEvent {
        UserEvent { user, state: TransitionState::Enter(CellId(cell)) }
    }

    #[test]
    fn clean_stream_passes_through_unchanged() {
        let topo = topo();
        let batches = vec![
            vec![enter(1, 0), enter(2, 5)],
            vec![UserEvent { user: 1, state: TransitionState::Quit(CellId(0)) }],
        ];
        let expect = batches.clone();
        let mut src = ValidatedSource::new(
            IterSource::new(batches.into_iter()),
            Arc::clone(&topo),
            IngestPolicy::DropEvents,
        );
        assert_eq!(src.next_batch().unwrap(), expect[0].as_slice());
        assert_eq!(src.next_batch().unwrap(), expect[1].as_slice());
        assert!(src.next_batch().is_none());
        let stats = src.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.events, 3);
        assert_eq!(stats.passed, 3);
        assert_eq!(stats.diverted(), 0);
    }

    #[test]
    fn lifecycle_faults_are_classified() {
        let topo = topo();
        let batches = vec![
            // user 7 never entered; user 1 enters twice in later batch.
            vec![
                enter(1, 0),
                UserEvent {
                    user: 7,
                    state: TransitionState::Move { from: CellId(0), to: CellId(1) },
                },
            ],
            vec![enter(1, 2)],
        ];
        let mut src = ValidatedSource::new(
            IterSource::new(batches.into_iter()),
            Arc::clone(&topo),
            IngestPolicy::DropEvents,
        );
        assert_eq!(src.next_batch().unwrap().len(), 1);
        assert_eq!(src.next_batch().unwrap().len(), 0);
        assert!(src.next_batch().is_none());
        let stats = *src.stats();
        assert_eq!(stats.not_entered, 1);
        assert_eq!(stats.re_enter, 1);
        assert_eq!(stats.passed, 1);
        let q = src.drain_quarantine();
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].t, 0);
        assert_eq!(q[0].fault, EventFault::NotEntered);
        assert_eq!(q[1].t, 1);
        assert_eq!(q[1].fault, EventFault::ReEnter);
    }

    #[test]
    fn duplicate_reporter_in_one_batch_is_diverted() {
        let topo = topo();
        let batches = vec![vec![enter(3, 0), enter(3, 1)]];
        let mut src = ValidatedSource::new(
            IterSource::new(batches.into_iter()),
            Arc::clone(&topo),
            IngestPolicy::DropEvents,
        );
        let batch = src.next_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].state, TransitionState::Enter(CellId(0)));
        assert_eq!(src.stats().duplicate_reporters, 1);
    }

    #[test]
    fn reject_batch_substitutes_heartbeat_and_counts_collateral() {
        let topo = topo();
        let bad =
            UserEvent { user: 9, state: TransitionState::Move { from: CellId(0), to: CellId(15) } };
        let batches = vec![vec![enter(1, 0), bad], vec![enter(1, 0)]];
        let mut src = ValidatedSource::new(
            IterSource::new(batches.into_iter()),
            Arc::clone(&topo),
            IngestPolicy::RejectBatch,
        );
        // Tainted batch arrives as an empty heartbeat: user 1's Enter was
        // collateral, so the *next* batch's Enter(1) is now the first.
        assert_eq!(src.next_batch().unwrap().len(), 0);
        assert_eq!(src.next_batch().unwrap().len(), 1);
        assert!(src.next_batch().is_none());
        let stats = *src.stats();
        assert_eq!(stats.rejected_batches, 1);
        assert_eq!(stats.rejected_events, 1);
        assert_eq!(stats.non_adjacent_moves, 1);
        assert_eq!(stats.passed, 1);
    }

    #[test]
    fn strict_latches_typed_error_and_ends_stream() {
        let topo = topo();
        let bad = UserEvent { user: 4, state: TransitionState::Quit(CellId(0)) };
        let batches = vec![vec![enter(1, 0)], vec![bad], vec![enter(2, 1)]];
        let mut src = ValidatedSource::new(
            IterSource::new(batches.into_iter()),
            Arc::clone(&topo),
            IngestPolicy::Strict,
        );
        assert_eq!(src.next_batch().unwrap().len(), 1);
        assert!(src.next_batch().is_none());
        assert!(src.next_batch().is_none(), "stream stays ended after the latch");
        match src.error() {
            Some(SessionError::InvalidEvent { t: 1, user: 4, fault: EventFault::NotEntered }) => {}
            other => panic!("unexpected latched error: {other:?}"),
        }
    }

    #[test]
    fn quarantine_ring_is_bounded() {
        let topo = topo();
        let bad = |u: u64| UserEvent { user: u, state: TransitionState::Quit(CellId(0)) };
        let batches = vec![(0..8).map(bad).collect::<Vec<_>>()];
        let mut src = ValidatedSource::new(
            IterSource::new(batches.into_iter()),
            Arc::clone(&topo),
            IngestPolicy::DropEvents,
        )
        .with_quarantine_capacity(3);
        assert_eq!(src.next_batch().unwrap().len(), 0);
        let stats = *src.stats();
        assert_eq!(stats.not_entered, 8);
        assert_eq!(stats.quarantine_dropped, 5);
        let q = src.drain_quarantine();
        assert_eq!(q.len(), 3);
        assert_eq!(q[0].event.user, 5, "oldest records evicted first");
    }
}
