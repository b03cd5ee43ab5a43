//! Scoped shard dispatch for the parallel phases (§VII acceleration).
//!
//! `run_shards` runs one pass over a slice of disjoint shards: one
//! `std::thread::scope` thread per shard, each handed `&mut` its own
//! shard and plain borrows of whatever read-only state the closure
//! captures (the sampler cache, the collection oracle). Every thread is
//! joined before the call returns, so no thread outlives its pass, no
//! state is moved through channels and nothing is `'static`.
//!
//! Two subsystems dispatch through it:
//!
//! - [`crate::synthesis::SyntheticDb::step_parallel`] runs the synthesis
//!   passes over column shards. Each shard is seeded from the caller's
//!   RNG in shard order, so a fixed `(seed, threads)` pair yields
//!   identical output regardless of thread scheduling.
//! - [`crate::collect::collect_ones_sharded`] runs blocked-kernel
//!   collection rounds over domain or reporter shards. Every shard shares
//!   the round's one Philox key, so the output is identical at every
//!   thread count.

/// A shard thread panicked mid-pass. The pass is incomplete, so the
/// owning database or round is in an unspecified state and the
/// in-progress step must be treated as failed. Nothing persists between
/// passes, so the next call needs no clean-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// A shard's thread panicked; `worker` is the lowest panicking shard
    /// index, so the reported failure does not depend on scheduling.
    WorkerPanicked {
        /// Index of the panicking shard.
        worker: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { worker } => {
                write!(f, "pool worker {worker} panicked mid-job")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Run `work(idx, &mut shards[idx])` for every shard, each on its own
/// scoped thread, and join them all. Returns the per-shard results in
/// shard order, or [`PoolError::WorkerPanicked`] naming the lowest
/// shard whose thread panicked (every thread is still joined first).
pub(crate) fn run_shards<S, R, F>(shards: &mut [S], work: F) -> Result<Vec<R>, PoolError>
where
    S: Send,
    R: Send,
    F: Fn(usize, &mut S) -> R + Sync,
{
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .enumerate()
            .map(|(idx, shard)| scope.spawn(move || work(idx, shard)))
            .collect();
        let mut results = Vec::with_capacity(handles.len());
        let mut panicked = None;
        for (worker, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(r) => results.push(r),
                Err(_) => {
                    panicked.get_or_insert(worker);
                }
            }
        }
        match panicked {
            Some(worker) => Err(PoolError::WorkerPanicked { worker }),
            None => Ok(results),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every shard runs on a thread of its own, results come back in
    /// shard order, and each shard's state is updated in place.
    #[test]
    fn generic_pool_round_trips_jobs_by_index() {
        let mut shards: Vec<Vec<u64>> = (0..8).map(|idx| vec![idx as u64; 4]).collect();
        let caller = std::thread::current().id();
        let out = run_shards(&mut shards, |idx, xs| {
            for x in xs.iter_mut() {
                *x *= 2;
            }
            (idx, std::thread::current().id())
        })
        .unwrap();
        for (idx, xs) in shards.iter().enumerate() {
            assert_eq!(xs, &vec![2 * idx as u64; 4]);
            assert_eq!(out[idx].0, idx);
            assert_ne!(out[idx].1, caller, "shard {idx} ran on the caller");
        }
    }

    /// Every shard thread has finished by the time the call returns:
    /// each one holds a clone of a shared handle until it exits, and none
    /// is left afterwards. An empty slice dispatches nothing.
    #[test]
    fn pool_spawns_and_shuts_down() {
        let witness = std::sync::Arc::new(());
        let mut shards = vec![(); 3];
        run_shards(&mut shards, |_, _| {
            let held = std::sync::Arc::clone(&witness);
            std::thread::sleep(std::time::Duration::from_millis(5));
            drop(held);
        })
        .unwrap();
        assert_eq!(std::sync::Arc::strong_count(&witness), 1);
        let out = run_shards(&mut [] as &mut [u8], |_, _| unreachable!("no shards to run"));
        assert_eq!(out, Ok(Vec::<()>::new()));
    }

    /// Panicking shards surface as a typed `PoolError` naming the lowest
    /// panicking index — never a process abort, never a hang — and the
    /// next call over the same shards succeeds: nothing is left poisoned.
    #[test]
    fn worker_panic_reports_typed_error_with_index() {
        let mut shards = vec![false, true, false, true];
        let err = run_shards(&mut shards, |idx, &mut explode| {
            if explode {
                panic!("injected fault in shard {idx}");
            }
        })
        .unwrap_err();
        assert_eq!(err, PoolError::WorkerPanicked { worker: 1 });
        assert!(err.to_string().contains("panicked"));
        shards.iter_mut().for_each(|s| *s = false);
        let out = run_shards(&mut shards, |idx, _| idx).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }
}
