//! The global mobility model (§III-B).
//!
//! The curator maintains estimated frequencies `f_s` for every transition
//! state `s ∈ S` and derives the three distributions of Eq. 6:
//!
//! ```text
//! Pr(m_ij) = f_ij / (Σ_{c_x ∈ N(c_i)} f_ix + f_iQ)      movement
//! Pr(e_i)  = f_Ei / Σ_x f_Ex                              entering
//! Pr(q_j)  = f_jQ / Σ_x f_xQ                              quitting
//! ```
//!
//! Note the movement denominator deliberately includes the quit mass
//! `f_iQ`, so that a synthetic trajectory at cell `c_i` can terminate with
//! probability `f_iQ / (Σ f_ix + f_iQ)` — reweighted by stream length in
//! Eq. 8 (see [`GlobalMobilityModel::quit_prob`]).

use crate::sampler::SamplerCache;
use retrasyn_geo::{CellId, TransitionTable};

/// Past this fraction of dirty states an incremental sampler rebuild stops
/// paying for itself and the model schedules a full rebuild instead.
const DIRTY_FULL_REBUILD_FRACTION: usize = 4;

/// Curator-side mobility model over a transition domain.
///
/// Frequencies are stored *signed*, exactly as the unbiased OUE estimator
/// produces them: zero-mean noise on the many empty transitions then
/// cancels inside the Eq. 6 sums instead of accumulating as a positive
/// bias floor. Clamping to `[0, ∞)` (free post-processing, Theorem 2)
/// happens only when probabilities are derived.
///
/// The model additionally owns a [`SamplerCache`] of per-cell alias tables
/// for O(1) synthesis draws. Mutations ([`Self::replace_all`],
/// [`Self::update_selected`]) record which states changed;
/// [`Self::rebuild_samplers`] then reconstructs only the affected rows —
/// a DMU step that refreshes 3% of transitions rebuilds ~3% of rows.
#[derive(Debug, Clone)]
pub struct GlobalMobilityModel {
    /// Estimated (signed) frequency per dense transition index.
    freqs: Vec<f64>,
    /// Alias-table sampler cache, borrowed by the synthesis passes.
    cache: Option<SamplerCache>,
    /// Every state changed since the last rebuild (initialization,
    /// `replace_all`, or dirty overflow).
    dirty_all: bool,
    /// Dense indices changed since the last rebuild (unsorted, may repeat).
    dirty: Vec<u32>,
    /// Reusable alias-build worklist (the per-timestamp refresh path must
    /// not allocate).
    scratch_small: Vec<(u32, f64)>,
    /// Reusable alias-build worklist.
    scratch_large: Vec<(u32, f64)>,
}

impl GlobalMobilityModel {
    /// An all-zero model over a domain of `len` states.
    pub fn new(len: usize) -> Self {
        GlobalMobilityModel {
            freqs: vec![0.0; len],
            cache: None,
            dirty_all: true,
            dirty: Vec::new(),
            scratch_small: Vec::new(),
            scratch_large: Vec::new(),
        }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Current frequency estimates.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Frequency of one state.
    #[inline]
    pub fn freq(&self, idx: usize) -> f64 {
        self.freqs[idx]
    }

    /// Reset to the all-zero model in place, keeping every allocation (the
    /// frequency vector, dirty list and alias-build scratch); the sampler
    /// cache is invalidated and fully rebuilt on the next
    /// [`Self::rebuild_samplers`].
    pub fn reset(&mut self) {
        self.freqs.iter_mut().for_each(|f| *f = 0.0);
        self.dirty_all = true;
        self.dirty.clear();
    }

    /// Replace the whole model with fresh (signed) estimates. Used at
    /// initialization and by the AllUpdate ablation.
    pub fn replace_all(&mut self, estimates: &[f64]) {
        assert_eq!(estimates.len(), self.freqs.len(), "estimate length mismatch");
        self.freqs.copy_from_slice(estimates);
        self.dirty_all = true;
        self.dirty.clear();
    }

    /// Update only the selected states with fresh estimates (§III-C: "use
    /// Equation 6 to update their distribution and the remaining transitions
    /// are unchanged").
    pub fn update_selected(&mut self, selected: &[bool], estimates: &[f64]) {
        assert_eq!(selected.len(), self.freqs.len(), "selection length mismatch");
        assert_eq!(estimates.len(), self.freqs.len(), "estimate length mismatch");
        for i in 0..self.freqs.len() {
            if selected[i] {
                self.freqs[i] = estimates[i];
                if !self.dirty_all {
                    self.dirty.push(i as u32);
                }
            }
        }
        if self.dirty.len() > self.freqs.len() / DIRTY_FULL_REBUILD_FRACTION {
            self.dirty_all = true;
            self.dirty.clear();
        }
    }

    /// The current sampler snapshot, if it reflects the latest frequencies.
    /// `None` until [`Self::rebuild_samplers`] has run after the last
    /// mutation — callers then fall back to the O(k) scan paths.
    #[inline]
    pub fn sampler(&self) -> Option<&SamplerCache> {
        if self.dirty_all || !self.dirty.is_empty() {
            return None;
        }
        self.cache.as_ref()
    }

    /// Bring the alias-table sampler cache in sync with the current
    /// frequencies, rebuilding only the rows whose states changed since the
    /// last call. Returns the number of move rows reconstructed (the whole
    /// grid counts as `num_cells`).
    pub fn rebuild_samplers(&mut self, table: &TransitionTable) -> usize {
        assert_eq!(table.len(), self.freqs.len(), "model / table domain mismatch");
        let cells = table.num_cells();
        let needs_full = self.dirty_all || self.cache.is_none();
        if needs_full {
            self.cache = Some(SamplerCache::build(&self.freqs, table));
            self.dirty_all = false;
            self.dirty.clear();
            return cells;
        }
        if self.dirty.is_empty() {
            return 0;
        }
        // Translate dirty dense indices into move rows + the enter flag,
        // then dedup at ROW granularity (a cell's move and quit indices
        // both map to the same row — the cached base quit probability
        // depends on the quit state too).
        let moves = table.num_moves();
        let mut dirty = std::mem::take(&mut self.dirty);
        let mut enter_dirty = false;
        dirty.retain_mut(|idx| {
            let i = *idx as usize;
            if i < moves {
                *idx = table.move_source_of(i).index() as u32;
                true
            } else if i < moves + cells {
                enter_dirty = true;
                false
            } else {
                *idx = (i - moves - cells) as u32;
                true
            }
        });
        dirty.sort_unstable();
        dirty.dedup();
        let cache = self.cache.as_mut().expect("cache exists on this path");
        let small = &mut self.scratch_small;
        let large = &mut self.scratch_large;
        for &row in &dirty {
            cache.rebuild_row(&self.freqs, table, row as usize, small, large);
        }
        if !dirty.is_empty() {
            // A rebuilt row may have changed its cell's quit mass, and the
            // quitting distribution normalizes globally.
            cache.rebuild_quit_dist();
        }
        if enter_dirty {
            cache.rebuild_enter(&self.freqs, table, small, large);
        }
        let rebuilt = dirty.len();
        dirty.clear();
        self.dirty = dirty;
        rebuilt
    }

    /// Movement denominator of Eq. 6 for source cell `from`:
    /// `Σ_{c_x ∈ N(from)} f_{from,x} + f_{from,Q}` (clamped per term).
    pub fn move_denominator(&self, table: &TransitionTable, from: CellId) -> f64 {
        let moves: f64 = self.freqs[table.move_block(from)].iter().map(|f| f.max(0.0)).sum();
        moves + self.freqs[table.quit_index(from)].max(0.0)
    }

    /// Movement probabilities over `from`'s neighbor block (Eq. 6), parallel
    /// to [`TransitionTable::move_targets`]. Falls back to uniform over the
    /// neighbors when the denominator is zero (no information yet).
    pub fn move_probs(&self, table: &TransitionTable, from: CellId) -> Vec<f64> {
        let mut buf = Vec::new();
        self.move_probs_into(table, from, &mut buf);
        buf
    }

    /// Allocation-free variant of [`Self::move_probs`]: writes the
    /// probabilities into `buf` (cleared first). Used by the synthesis scan
    /// fallback so repeated calls reuse one buffer.
    pub fn move_probs_into(&self, table: &TransitionTable, from: CellId, buf: &mut Vec<f64>) {
        let block = table.move_block(from);
        let denom = self.move_denominator(table, from);
        buf.clear();
        if denom <= 0.0 {
            buf.extend(std::iter::repeat_n(1.0 / block.len() as f64, block.len()));
            return;
        }
        buf.extend(self.freqs[block].iter().map(|&f| f.max(0.0) / denom));
    }

    /// Base (length-independent) termination probability at `from`:
    /// `f_iQ / (Σ f_ix + f_iQ)` (§III-D). Zero when uninformed.
    pub fn base_quit_prob(&self, table: &TransitionTable, from: CellId) -> f64 {
        let denom = self.move_denominator(table, from);
        if denom <= 0.0 {
            return 0.0;
        }
        self.freqs[table.quit_index(from)].max(0.0) / denom
    }

    /// Length-reweighted termination probability (Eq. 8):
    /// `Pr(quit | c_i, ℓ) = (ℓ/λ) · f_iQ / (Σ f_ix + f_iQ)`, capped at 1.
    pub fn quit_prob(&self, table: &TransitionTable, from: CellId, len: u64, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        ((len as f64 / lambda) * self.base_quit_prob(table, from)).clamp(0.0, 1.0)
    }

    /// Entering distribution `Pr(e_i)` over all cells (Eq. 6); uniform when
    /// uninformed.
    pub fn enter_distribution(&self, table: &TransitionTable) -> Vec<f64> {
        let cells = table.num_cells();
        let start = table.num_moves();
        let mut dist: Vec<f64> =
            self.freqs[start..start + cells].iter().map(|f| f.max(0.0)).collect();
        let sum: f64 = dist.iter().sum();
        if sum <= 0.0 {
            return vec![1.0 / cells as f64; cells];
        }
        dist.iter_mut().for_each(|p| *p /= sum);
        dist
    }

    /// Quitting distribution `Pr(q_j)` over all cells (Eq. 6); uniform when
    /// uninformed.
    pub fn quit_distribution(&self, table: &TransitionTable) -> Vec<f64> {
        let cells = table.num_cells();
        let start = table.num_moves() + cells;
        let mut dist: Vec<f64> =
            self.freqs[start..start + cells].iter().map(|f| f.max(0.0)).collect();
        let sum: f64 = dist.iter().sum();
        if sum <= 0.0 {
            return vec![1.0 / cells as f64; cells];
        }
        dist.iter_mut().for_each(|p| *p /= sum);
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::{Grid, TransitionState};

    fn setup() -> (Grid, TransitionTable, GlobalMobilityModel) {
        let grid = Grid::unit(3);
        let table = TransitionTable::new(&grid);
        let model = GlobalMobilityModel::new(table.len());
        (grid, table, model)
    }

    #[test]
    fn empty_model_uniform_fallbacks() {
        let (grid, table, model) = setup();
        let c = grid.cell_at(1, 1);
        let probs = model.move_probs(&table, c);
        assert_eq!(probs.len(), 9);
        for p in &probs {
            assert!((p - 1.0 / 9.0).abs() < 1e-12);
        }
        assert_eq!(model.base_quit_prob(&table, c), 0.0);
        let e = model.enter_distribution(&table);
        assert!((e.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((e[0] - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn eq6_movement_with_quit_mass() {
        let (grid, table, mut model) = setup();
        let from = grid.cell_at(0, 0); // corner: 4 neighbors
        let mut est = vec![0.0; table.len()];
        // f(from->from)=0.1, f(from->right)=0.2, f(from,Q)=0.1.
        let to_self = table.index_of(TransitionState::Move { from, to: from }).unwrap();
        let right = grid.cell_at(1, 0);
        let to_right = table.index_of(TransitionState::Move { from, to: right }).unwrap();
        est[to_self] = 0.1;
        est[to_right] = 0.2;
        est[table.quit_index(from)] = 0.1;
        model.replace_all(&est);

        let denom = model.move_denominator(&table, from);
        assert!((denom - 0.4).abs() < 1e-12);
        let probs = model.move_probs(&table, from);
        let targets = table.move_targets(from);
        let self_pos = targets.iter().position(|&c| c == from).unwrap();
        let right_pos = targets.iter().position(|&c| c == right).unwrap();
        assert!((probs[self_pos] - 0.25).abs() < 1e-12);
        assert!((probs[right_pos] - 0.5).abs() < 1e-12);
        // Probabilities don't sum to 1: the quit mass takes the rest.
        assert!((probs.iter().sum::<f64>() - 0.75).abs() < 1e-12);
        assert!((model.base_quit_prob(&table, from) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn eq8_length_reweighting() {
        let (grid, table, mut model) = setup();
        let from = grid.cell_at(1, 1);
        let mut est = vec![0.0; table.len()];
        let stay = table.index_of(TransitionState::Move { from, to: from }).unwrap();
        est[stay] = 0.3;
        est[table.quit_index(from)] = 0.1;
        model.replace_all(&est);
        let base = model.base_quit_prob(&table, from);
        assert!((base - 0.25).abs() < 1e-12);
        // len = lambda -> exactly base.
        assert!((model.quit_prob(&table, from, 10, 10.0) - base).abs() < 1e-12);
        // Short stream -> reduced quitting.
        assert!((model.quit_prob(&table, from, 5, 10.0) - base / 2.0).abs() < 1e-12);
        // Very long stream -> capped at 1.
        assert_eq!(model.quit_prob(&table, from, 1000, 10.0), 1.0);
    }

    #[test]
    fn selected_update_leaves_rest() {
        let (_, table, mut model) = setup();
        let n = table.len();
        model.replace_all(&vec![0.5; n]);
        let mut selected = vec![false; n];
        selected[3] = true;
        selected[7] = true;
        let mut est = vec![0.9; n];
        est[7] = -0.2; // negative estimates are stored signed
        model.update_selected(&selected, &est);
        assert_eq!(model.freq(3), 0.9);
        assert_eq!(model.freq(7), -0.2);
        assert_eq!(model.freq(0), 0.5);
        assert_eq!(model.freq(n - 1), 0.5);
    }

    #[test]
    fn negative_estimates_clamp_at_distribution_time() {
        let (grid, table, mut model) = setup();
        let from = grid.cell_at(1, 1);
        let mut est = vec![0.0; table.len()];
        let stay = table.index_of(TransitionState::Move { from, to: from }).unwrap();
        let right = table.index_of(TransitionState::Move { from, to: grid.cell_at(2, 1) }).unwrap();
        est[stay] = 0.4;
        est[right] = -0.3; // noise artifact: must not contribute mass
        model.replace_all(&est);
        // Stored signed…
        assert_eq!(model.freq(right), -0.3);
        // …but clamped in every derived quantity.
        assert!((model.move_denominator(&table, from) - 0.4).abs() < 1e-12);
        let probs = model.move_probs(&table, from);
        let targets = table.move_targets(from);
        let right_pos = targets.iter().position(|&c| c == grid.cell_at(2, 1)).unwrap();
        assert_eq!(probs[right_pos], 0.0);
        let stay_pos = targets.iter().position(|&c| c == from).unwrap();
        assert!((probs[stay_pos] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_lifecycle_and_incremental_rebuild() {
        let (grid, table, mut model) = setup();
        // No cache until the first rebuild.
        assert!(model.sampler().is_none());
        let est: Vec<f64> = (0..table.len()).map(|i| (i % 5) as f64 * 0.01).collect();
        model.replace_all(&est);
        assert!(model.sampler().is_none());
        let rebuilt = model.rebuild_samplers(&table);
        assert_eq!(rebuilt, table.num_cells());
        assert!(model.sampler().is_some());

        // A selective update invalidates the cache until the next rebuild,
        // which only reconstructs the touched rows.
        let mut selected = vec![false; table.len()];
        let from = grid.cell_at(1, 1);
        let block = table.move_block(from);
        selected[block.start] = true;
        selected[table.quit_index(grid.cell_at(0, 0))] = true;
        let mut fresh = est.clone();
        fresh[block.start] = 0.9;
        model.update_selected(&selected, &fresh);
        assert!(model.sampler().is_none());
        let rebuilt = model.rebuild_samplers(&table);
        assert_eq!(rebuilt, 2, "one move row + one quit-dirtied row");
        assert!(model.sampler().is_some());
        // A clean model rebuilds nothing.
        assert_eq!(model.rebuild_samplers(&table), 0);

        // The cached sampler agrees with the scan distributions.
        let cache = model.sampler().unwrap();
        for c in grid.cells() {
            assert!(
                (cache.base_quit_prob(c) - model.base_quit_prob(&table, c)).abs() < 1e-12,
                "quit prob mismatch at {c:?}"
            );
        }
    }

    #[test]
    fn enter_quit_distributions_normalize() {
        let (grid, table, mut model) = setup();
        let mut est = vec![0.0; table.len()];
        est[table.enter_index(grid.cell_at(0, 0))] = 0.3;
        est[table.enter_index(grid.cell_at(2, 2))] = 0.1;
        est[table.quit_index(grid.cell_at(1, 1))] = 0.7;
        model.replace_all(&est);
        let e = model.enter_distribution(&table);
        assert!((e[grid.cell_at(0, 0).index()] - 0.75).abs() < 1e-12);
        assert!((e[grid.cell_at(2, 2).index()] - 0.25).abs() < 1e-12);
        let q = model.quit_distribution(&table);
        assert!((q[grid.cell_at(1, 1).index()] - 1.0).abs() < 1e-12);
    }
}
