//! Columnar trajectory storage for the synthesis hot path (§III-D at
//! millions-of-users scale).
//!
//! The Vec-of-structs layout this replaces (`OpenStream { cells: Vec }`)
//! paid one heap pointer chase per live stream per timestamp in the fused
//! quit+extend pass, and `finish()` copied every stream into a fresh
//! per-stream `Vec` before metrics could run. The `StreamStore` keeps the
//! per-step state in structure-of-arrays form instead:
//!
//! - **Head columns** (`Columns`): the fields the fused pass actually
//!   touches — current cell (`heads`), `lens`, plus `ids`/`starts`/`links`
//!   bookkeeping — live in parallel vectors, so advancing `n` streams reads
//!   and writes contiguous memory.
//! - **Tail arena** (`TailArena`): historical cells are append-only
//!   `TailNode`s in fixed-size chunks, each linking backward to the
//!   stream's previous node. Extending a stream appends one node
//!   (sequential writes within a step) and never moves old cells; chunks
//!   mean growth never reallocates or copies the arena.
//! - **Finished region**: retiring a stream moves its five column entries
//!   into a second `Columns` — O(1), cells stay where they are in the
//!   arena.
//!
//! Release (`StreamStore::into_dataset`) walks each chain once, backward,
//! into a single flat cell column sorted by stream id and hands the result
//! to [`GriddedDataset::from_columns`] — no per-stream `Vec` is ever
//! allocated on the release path.
//!
//! Sharded synthesis copies disjoint index ranges of the head columns into
//! per-worker `Columns` (a handful of `memcpy`s, not a per-stream
//! shuffle); workers append tail nodes into private buffers with
//! shard-local addresses, and the merge relocates each buffer to the end of
//! the shared arena in shard order, offsetting the survivors' links — which
//! keeps the fixed-`(seed, threads)` output bit-identical to the sequential
//! ordering semantics.
//!
//! **Read-only view layer.** The streaming session API observes the store
//! *between* steps through a [`SnapshotView`]: a borrowed, zero-copy
//! per-timestamp view over the live head columns plus the finished region.
//! Iterating a snapshot yields [`SnapshotStream`]s whose cells are read
//! straight out of the arena chains — no per-stream `Vec` is ever
//! materialized, so publishing the synthetic database at every timestamp
//! (the paper's defining property, §III-D) costs nothing beyond what the
//! consumer actually reads.

use crate::compact::FrozenStore;
use crate::wal::{Dec, Enc};
use retrasyn_geo::{CellId, GriddedDataset, Space};

/// Arena address type. The default `u32` keeps `TailNode` at 8 bytes and
/// caps the arena just below 2³² nodes; the `large-arena` feature widens
/// addresses (and every link column) to `u64` for sessions whose total
/// history exceeds that ceiling.
#[cfg(not(feature = "large-arena"))]
pub(crate) type Addr = u32;
/// Arena address type (`large-arena`: 64-bit, no practical ceiling).
#[cfg(feature = "large-arena")]
pub(crate) type Addr = u64;

/// Sentinel link for a stream with no tail (length 1).
pub(crate) const NO_LINK: Addr = Addr::MAX;

/// Portable (width-independent) serialized form of an arena link: always a
/// `u64`, with `NO_LINK` mapped to `u64::MAX` so checkpoints written with
/// one address width load under the other (as long as they fit).
pub(crate) fn link_to_u64(link: Addr) -> u64 {
    if link == NO_LINK {
        u64::MAX
    } else {
        link as u64
    }
}

/// Inverse of [`link_to_u64`]; fails (instead of wrapping) when a link
/// needs more address bits than this build has.
pub(crate) fn link_from_u64(v: u64) -> Result<Addr, String> {
    if v == u64::MAX {
        Ok(NO_LINK)
    } else if v >= NO_LINK as u64 {
        Err(format!(
            "arena link {v} exceeds this build's address width; \
             enable the `large-arena` feature"
        ))
    } else {
        Ok(v as Addr)
    }
}

const CHUNK_BITS: u32 = 16;
const CHUNK_LEN: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: usize = CHUNK_LEN - 1;

/// One arena entry: the cell a stream occupied before its most recent
/// extension, linking backward to the node before that (`NO_LINK` at the
/// stream's first cell).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TailNode {
    pub(crate) cell: CellId,
    pub(crate) prev: Addr,
}

/// Chunked append-only arena of `TailNode`s. Addresses are dense [`Addr`]
/// indices; fixed-size chunks keep them stable and make growth O(1) —
/// no reallocation ever copies existing nodes. [`TailArena::clear`] keeps
/// the chunks around, so session churn (reset, recovery replay) reuses
/// warm allocations instead of re-growing from nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct TailArena {
    chunks: Vec<Vec<TailNode>>,
    len: usize,
}

impl TailArena {
    /// Number of nodes stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Node at `addr`.
    #[inline]
    pub(crate) fn get(&self, addr: Addr) -> TailNode {
        self.chunks[addr as usize >> CHUNK_BITS][addr as usize & CHUNK_MASK]
    }

    /// Drop all nodes but keep every chunk allocation; subsequent appends
    /// refill the existing chunks in place.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Number of chunk allocations currently held (retained across
    /// [`Self::clear`]).
    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Make the chunk owning address `self.len` ready for appending. The
    /// exhaustion check lives here — once per `CHUNK_LEN` appends, not on
    /// the hot path — and is a hard `assert`: past it, `len as Addr` would
    /// wrap (and `NO_LINK` would collide with a real address), silently
    /// cross-linking chains in release builds. Capping at the last whole
    /// chunk below `NO_LINK` keeps every address the new chunk can hand
    /// out strictly below the sentinel. A chunk retained by
    /// [`Self::clear`] is reused (cleared) instead of allocating.
    fn grow(&mut self) {
        assert!(
            (self.len + CHUNK_LEN) as u128 <= NO_LINK as u128,
            "tail arena address space exhausted ({} nodes); \
             enable the `large-arena` feature for 64-bit addresses",
            self.len
        );
        let idx = self.len >> CHUNK_BITS;
        if idx < self.chunks.len() {
            self.chunks[idx].clear();
        } else {
            self.chunks.push(Vec::with_capacity(CHUNK_LEN));
        }
    }

    /// Append one node, returning its address.
    #[inline]
    pub(crate) fn push(&mut self, node: TailNode) -> Addr {
        if self.len & CHUNK_MASK == 0 {
            self.grow();
        }
        let addr = self.len as Addr;
        self.chunks[self.len >> CHUNK_BITS].push(node);
        self.len += 1;
        addr
    }

    /// Bulk-append `nodes` (chunk-wise copies), preserving order.
    pub(crate) fn extend_from_slice(&mut self, nodes: &[TailNode]) {
        let mut rest = nodes;
        while !rest.is_empty() {
            if self.len & CHUNK_MASK == 0 {
                self.grow();
            }
            let room = CHUNK_LEN - (self.len & CHUNK_MASK);
            let take = room.min(rest.len());
            self.chunks[self.len >> CHUNK_BITS].extend_from_slice(&rest[..take]);
            self.len += take;
            rest = &rest[take..];
        }
    }

    /// Serialize every node in address order (checkpoint format: links as
    /// portable `u64`s, see [`link_to_u64`]).
    pub(crate) fn encode_into(&self, enc: &mut Enc) {
        enc.usize(self.len);
        for addr in 0..self.len {
            let node = self.get(addr as Addr);
            enc.u32(node.cell.0);
            enc.u64(link_to_u64(node.prev));
        }
    }

    /// Rebuild from [`Self::encode_into`] output. Re-pushing in address
    /// order reproduces identical addresses. Each node's `prev` must point
    /// strictly backward (or be `NO_LINK`) — the invariant append-only
    /// construction guarantees — which rules out out-of-bounds reads and
    /// cycles for any payload this accepts.
    pub(crate) fn decode_from(&mut self, dec: &mut Dec) -> Result<(), String> {
        self.clear();
        let n = dec.usize()?;
        for addr in 0..n {
            let cell = CellId(dec.u32()?);
            let prev = link_from_u64(dec.u64()?)?;
            if prev != NO_LINK && prev as usize >= addr {
                return Err(format!("arena node {addr} links forward to {prev}"));
            }
            self.push(TailNode { cell, prev });
        }
        Ok(())
    }
}

/// Where a pass appends tail nodes: the shared arena directly (sequential
/// paths — addresses are global immediately) or a per-shard buffer (pool
/// workers — addresses are shard-local until the merge relocates the
/// buffer and offsets the links).
pub(crate) trait TailSink {
    /// Append one node, returning its address in this sink's space.
    fn append_node(&mut self, node: TailNode) -> Addr;
}

impl TailSink for TailArena {
    #[inline]
    fn append_node(&mut self, node: TailNode) -> Addr {
        self.push(node)
    }
}

impl TailSink for Vec<TailNode> {
    #[inline]
    fn append_node(&mut self, node: TailNode) -> Addr {
        let addr = self.len() as Addr;
        self.push(node);
        addr
    }
}

/// Structure-of-arrays stream state: five parallel columns, one row per
/// stream. The fused quit+extend pass touches `heads`/`lens`/`links`;
/// `ids`/`starts` ride along for retirement and release.
#[derive(Debug, Clone, Default)]
pub(crate) struct Columns {
    /// Current (most recent) cell per stream — the hot column.
    pub(crate) heads: Vec<CellId>,
    /// Stream ids.
    pub(crate) ids: Vec<u64>,
    /// Entering timestamps.
    pub(crate) starts: Vec<u64>,
    /// Cells reported so far (chain length + 1).
    pub(crate) lens: Vec<u32>,
    /// Arena address of the previous cell's node (`NO_LINK` if length 1).
    pub(crate) links: Vec<Addr>,
}

impl Columns {
    /// Number of rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// Drop all rows, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
        self.ids.clear();
        self.starts.clear();
        self.lens.clear();
        self.links.clear();
    }

    /// Append one row.
    #[inline]
    pub(crate) fn push(&mut self, id: u64, start: u64, head: CellId, len: u32, link: Addr) {
        self.heads.push(head);
        self.ids.push(id);
        self.starts.push(start);
        self.lens.push(len);
        self.links.push(link);
    }

    /// `swap_remove` row `i` into `out` — O(1) retirement; the stream's
    /// cells never move.
    #[inline]
    pub(crate) fn swap_remove_into(&mut self, i: usize, out: &mut Columns) {
        out.heads.push(self.heads.swap_remove(i)); // xtask:allow(DET003, swap_remove_into is the audited retirement primitive; row order is a pure function of the seeded draws)
        out.ids.push(self.ids.swap_remove(i)); // xtask:allow(DET003, swap_remove_into is the audited retirement primitive; row order is a pure function of the seeded draws)
        out.starts.push(self.starts.swap_remove(i)); // xtask:allow(DET003, swap_remove_into is the audited retirement primitive; row order is a pure function of the seeded draws)
        out.lens.push(self.lens.swap_remove(i)); // xtask:allow(DET003, swap_remove_into is the audited retirement primitive; row order is a pure function of the seeded draws)
        out.links.push(self.links.swap_remove(i)); // xtask:allow(DET003, swap_remove_into is the audited retirement primitive; row order is a pure function of the seeded draws)
    }

    /// Extend stream `i` by one cell: its old head becomes a tail node in
    /// `sink`, the new cell takes the head slot.
    #[inline]
    pub(crate) fn extend_row<S: TailSink>(&mut self, i: usize, to: CellId, sink: &mut S) {
        let link = sink.append_node(TailNode { cell: self.heads[i], prev: self.links[i] });
        self.heads[i] = to;
        self.links[i] = link;
        self.lens[i] += 1;
    }

    /// Append rows `lo..hi` of `src` (five contiguous copies — the
    /// shard-out path).
    pub(crate) fn extend_from_range(&mut self, src: &Columns, lo: usize, hi: usize) {
        self.heads.extend_from_slice(&src.heads[lo..hi]);
        self.ids.extend_from_slice(&src.ids[lo..hi]);
        self.starts.extend_from_slice(&src.starts[lo..hi]);
        self.lens.extend_from_slice(&src.lens[lo..hi]);
        self.links.extend_from_slice(&src.links[lo..hi]);
    }

    /// Drain every row of `other` onto the end of `self`, preserving order
    /// and `other`'s capacity.
    pub(crate) fn append(&mut self, other: &mut Columns) {
        self.heads.append(&mut other.heads);
        self.ids.append(&mut other.ids);
        self.starts.append(&mut other.starts);
        self.lens.append(&mut other.lens);
        self.links.append(&mut other.links);
    }

    /// Serialize every row in order (checkpoint format).
    pub(crate) fn encode_into(&self, enc: &mut Enc) {
        enc.usize(self.len());
        for i in 0..self.len() {
            enc.u32(self.heads[i].0);
            enc.u64(self.ids[i]);
            enc.u64(self.starts[i]);
            enc.u32(self.lens[i]);
            enc.u64(link_to_u64(self.links[i]));
        }
    }

    /// Rebuild from [`Self::encode_into`] output. Links are bounds-checked
    /// against `arena_len` so a decoded store can never walk outside its
    /// arena; lengths must be >= 1 (streams are never empty).
    pub(crate) fn decode_from(&mut self, dec: &mut Dec, arena_len: usize) -> Result<(), String> {
        self.clear();
        let n = dec.usize()?;
        for i in 0..n {
            let head = CellId(dec.u32()?);
            let id = dec.u64()?;
            let start = dec.u64()?;
            let len = dec.u32()?;
            let link = link_from_u64(dec.u64()?)?;
            if len == 0 {
                return Err(format!("stream row {i} has length 0"));
            }
            if link != NO_LINK && link as usize >= arena_len {
                return Err(format!("stream row {i} links past the arena ({link})"));
            }
            if (len == 1) != (link == NO_LINK) {
                return Err(format!("stream row {i} length/link mismatch"));
            }
            self.push(id, start, head, len, link);
        }
        Ok(())
    }
}

/// The synthesizer's columnar stream storage: live head columns, the shared
/// chunked tail arena, the finished region retirement moves rows into, and
/// the frozen region epoch compaction drains the finished rows out to (see
/// [`crate::compact`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamStore {
    /// Live streams (SoA).
    pub(crate) live: Columns,
    /// Retired streams (SoA; cells remain in the arena until compaction).
    pub(crate) finished: Columns,
    /// Historical cells of every live or finished stream.
    pub(crate) tail: TailArena,
    /// Epoch-compacted streams: flat forward-ordered cells, out of the
    /// arena entirely.
    pub(crate) frozen: FrozenStore,
}

impl StreamStore {
    /// Append a fresh length-1 live stream.
    #[inline]
    pub(crate) fn spawn(&mut self, id: u64, start: u64, cell: CellId) {
        self.live.push(id, start, cell, 1, NO_LINK);
    }

    /// Borrow the store as a read-only per-timestamp view covering
    /// `0..horizon`.
    pub(crate) fn snapshot(&self, horizon: u64) -> SnapshotView<'_> {
        SnapshotView { store: self, horizon }
    }

    /// Drop every stream and every arena node, retaining all allocations
    /// (column capacity, arena chunks, frozen buffers) for the next
    /// session.
    pub(crate) fn reset(&mut self) {
        self.live.clear();
        self.finished.clear();
        self.tail.clear();
        self.frozen.clear();
    }

    /// Arena nodes + live/finished head rows currently resident (the
    /// memory the compactor bounds; frozen cells are excluded — they are
    /// the compactor's output).
    pub(crate) fn resident_cells(&self) -> usize {
        self.tail.len() + self.live.len() + self.finished.len()
    }

    /// Serialize the whole store (checkpoint format): arena first so the
    /// column decoders can bounds-check their links against it.
    pub(crate) fn encode_into(&self, enc: &mut Enc) {
        self.tail.encode_into(enc);
        self.live.encode_into(enc);
        self.finished.encode_into(enc);
        self.frozen.encode_into(enc);
    }

    /// Rebuild from [`Self::encode_into`] output, reusing this store's
    /// allocations. Any structural inconsistency is an `Err`, never a
    /// panic.
    pub(crate) fn decode_from(&mut self, dec: &mut Dec) -> Result<(), String> {
        self.tail.decode_from(dec)?;
        let arena_len = self.tail.len();
        self.live.decode_from(dec, arena_len)?;
        self.finished.decode_from(dec, arena_len)?;
        self.frozen.decode_from(dec)
    }

    /// Materialize the cells of a stream described by `(head, len, link)`
    /// into `out`, oldest first, by walking its chain backward.
    pub(crate) fn write_cells(&self, head: CellId, len: usize, link: Addr, out: &mut [CellId]) {
        debug_assert_eq!(out.len(), len);
        out[len - 1] = head;
        let mut addr = link;
        for slot in out[..len - 1].iter_mut().rev() {
            let node = self.tail.get(addr);
            *slot = node.cell;
            addr = node.prev;
        }
        debug_assert_eq!(addr, NO_LINK, "chain length disagrees with len column");
    }

    /// Close every live stream (in live order, matching the sequential
    /// retirement semantics) and release the whole store as an id-sorted
    /// columnar [`GriddedDataset`]: one flat cell column, no per-stream
    /// allocation. Frozen streams are merged back in by id — the release
    /// is bit-for-bit identical whether or not compaction ever ran.
    pub(crate) fn into_dataset<S: Space>(mut self, space: S, horizon: u64) -> GriddedDataset {
        {
            let StreamStore { live, finished, .. } = &mut self;
            finished.append(live);
        }
        let nf = self.frozen.num_streams();
        let n = nf + self.finished.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let i = i as usize;
            if i < nf {
                self.frozen.ids[i]
            } else {
                self.finished.ids[i - nf]
            }
        });
        let total: usize = self.frozen.total_cells()
            + self.finished.lens.iter().map(|&l| l as usize).sum::<usize>();
        let mut ids = Vec::with_capacity(n);
        let mut starts = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cells = vec![CellId(0); total];
        offsets.push(0usize);
        let mut pos = 0usize;
        for &oi in &order {
            let i = oi as usize;
            if i < nf {
                ids.push(self.frozen.ids[i]);
                starts.push(self.frozen.starts[i]);
                let src = self.frozen.cells_of(i);
                cells[pos..pos + src.len()].copy_from_slice(src);
                pos += src.len();
            } else {
                let i = i - nf;
                ids.push(self.finished.ids[i]);
                starts.push(self.finished.starts[i]);
                let len = self.finished.lens[i] as usize;
                self.write_cells(
                    self.finished.heads[i],
                    len,
                    self.finished.links[i],
                    &mut cells[pos..pos + len],
                );
                pos += len;
            }
            offsets.push(pos);
        }
        GriddedDataset::from_columns(space, ids, starts, offsets, cells, horizon)
    }
}

/// A borrowed, zero-copy view of the synthetic database at one timestamp —
/// what a streaming consumer observes *between* engine steps (the paper's
/// per-timestamp release, §III-D; reading it is post-processing and costs
/// no additional privacy budget).
///
/// The view borrows the store's live head columns and finished region
/// directly: constructing it allocates nothing, and iterating it yields
/// [`SnapshotStream`]s whose cells are read straight out of the tail-arena
/// chains. A snapshot taken after step `t` is bit-for-bit the length-`t+1`
/// prefix of the final release: every stream it contains reappears in the
/// released [`GriddedDataset`] with the snapshot's cells as a prefix.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    store: &'a StreamStore,
    horizon: u64,
}

impl<'a> SnapshotView<'a> {
    /// Number of timestamps this snapshot covers (`0..horizon`): the number
    /// of engine steps completed when it was taken.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Number of live synthetic streams.
    pub fn active_count(&self) -> usize {
        self.store.live.len()
    }

    /// Number of synthetic streams already terminated (including streams
    /// drained into the frozen region by epoch compaction).
    pub fn finished_count(&self) -> usize {
        self.store.frozen.num_streams() + self.store.finished.len()
    }

    /// Total number of streams (frozen + finished + live).
    pub fn num_streams(&self) -> usize {
        self.finished_count() + self.store.live.len()
    }

    /// Whether the snapshot holds no streams.
    pub fn is_empty(&self) -> bool {
        self.num_streams() == 0
    }

    /// Borrowed iteration over every stream: the terminated streams first
    /// (frozen epochs in compaction order, then the finished region), then
    /// the live population. Order within each region is the store's
    /// internal (retirement / spawn-and-swap) order, not id order — map by
    /// [`SnapshotStream::id`] to correlate snapshots across timestamps.
    pub fn streams(&self) -> impl ExactSizeIterator<Item = SnapshotStream<'a>> + Clone + '_ {
        let store = self.store;
        let frozen = store.frozen.num_streams();
        let finished = store.finished.len();
        (0..self.num_streams()).map(move |i| {
            if i < frozen {
                return store.frozen.stream(i);
            }
            let i = i - frozen;
            let (cols, row) =
                if i < finished { (&store.finished, i) } else { (&store.live, i - finished) };
            SnapshotStream {
                id: cols.ids[row],
                start: cols.starts[row],
                head: cols.heads[row],
                len: cols.lens[row],
                repr: StreamRepr::Chain { arena: &store.tail, link: cols.links[row] },
            }
        })
    }

    /// Borrowed iteration over the live streams only (the population a
    /// real-time monitor watches).
    pub fn live(&self) -> impl ExactSizeIterator<Item = SnapshotStream<'a>> + Clone + '_ {
        let store = self.store;
        (0..store.live.len()).map(move |row| SnapshotStream {
            id: store.live.ids[row],
            start: store.live.starts[row],
            head: store.live.heads[row],
            len: store.live.lens[row],
            repr: StreamRepr::Chain { arena: &store.tail, link: store.live.links[row] },
        })
    }

    /// Per-cell occupancy of the live population into a reused buffer
    /// (resized and zeroed here): one contiguous scan of the head column,
    /// no allocation after warm-up.
    pub fn occupancy_into(&self, num_cells: usize, counts: &mut Vec<u64>) {
        counts.clear();
        counts.resize(num_cells, 0);
        for head in &self.store.live.heads {
            counts[head.index()] += 1;
        }
    }

    /// Per-cell occupancy of the live population (allocating convenience
    /// wrapper over [`Self::occupancy_into`]).
    pub fn occupancy(&self, num_cells: usize) -> Vec<u64> {
        let mut counts = Vec::new();
        self.occupancy_into(num_cells, &mut counts);
        counts
    }
}

/// One synthetic stream inside a [`SnapshotView`]: four copied scalars plus
/// a borrow of the backing region — `Copy`, allocation-free. The region is
/// either a backward-linked chain in the tail arena (live / finished
/// streams) or a flat forward-ordered slice (streams drained into the
/// frozen region by epoch compaction); the accessors are identical either
/// way.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStream<'a> {
    id: u64,
    start: u64,
    head: CellId,
    len: u32,
    repr: StreamRepr<'a>,
}

/// Backing storage of a [`SnapshotStream`]'s cells.
#[derive(Debug, Clone, Copy)]
enum StreamRepr<'a> {
    /// Backward-linked chain in the tail arena; `link` is the address of
    /// the cell before the head (`NO_LINK` for length-1 streams).
    Chain { arena: &'a TailArena, link: Addr },
    /// Flat forward-ordered cells in the frozen region.
    Flat(&'a [CellId]),
}

impl<'a> SnapshotStream<'a> {
    /// A stream backed by a flat forward-ordered cell slice (the frozen
    /// region's layout). `cells` must be non-empty.
    pub(crate) fn from_flat(id: u64, start: u64, cells: &'a [CellId]) -> Self {
        debug_assert!(!cells.is_empty(), "streams are never empty");
        SnapshotStream {
            id,
            start,
            head: *cells.last().expect("non-empty"),
            len: cells.len() as u32,
            repr: StreamRepr::Flat(cells),
        }
    }
}

impl<'a> SnapshotStream<'a> {
    /// Stream id (stable across snapshots and into the final release).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Entering timestamp.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Number of cells reported so far.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Streams are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Last timestamp (inclusive) this stream has reported for.
    pub fn end(&self) -> u64 {
        self.start + self.len as u64 - 1
    }

    /// The current (most recent) cell — an O(1) read of the head column.
    pub fn head(&self) -> CellId {
        self.head
    }

    /// The stream's cells in *reverse* chronological order (newest first):
    /// the natural zero-allocation traversal, since historical cells are a
    /// backward-linked chain in the arena (frozen streams iterate their
    /// flat slice backward, indistinguishably).
    pub fn cells_rev(&self) -> CellsRev<'a> {
        CellsRev(match self.repr {
            StreamRepr::Chain { arena, link } => {
                CellsRevInner::Chain { arena, next: Some((self.head, link)), remaining: self.len }
            }
            StreamRepr::Flat(cells) => CellsRevInner::Flat(cells.iter().rev()),
        })
    }

    /// Materialize the cells oldest-first into a reused buffer (cleared and
    /// filled here). For consumers that need forward order; costs one
    /// backward chain walk and no allocation once `out` has capacity.
    pub fn cells_into(&self, out: &mut Vec<CellId>) {
        out.clear();
        out.extend(self.cells_rev());
        out.reverse();
    }
}

/// Zero-allocation iterator over a [`SnapshotStream`]'s cells, newest
/// first. Created by [`SnapshotStream::cells_rev`].
#[derive(Debug, Clone)]
pub struct CellsRev<'a>(CellsRevInner<'a>);

#[derive(Debug, Clone)]
enum CellsRevInner<'a> {
    Chain {
        arena: &'a TailArena,
        /// The next cell to yield and the arena link *behind* it.
        next: Option<(CellId, Addr)>,
        remaining: u32,
    },
    Flat(std::iter::Rev<std::slice::Iter<'a, CellId>>),
}

impl Iterator for CellsRev<'_> {
    type Item = CellId;

    fn next(&mut self) -> Option<CellId> {
        match &mut self.0 {
            CellsRevInner::Chain { arena, next, remaining } => {
                let (cell, link) = (*next)?;
                *remaining -= 1;
                *next = if *remaining == 0 {
                    debug_assert_eq!(link, NO_LINK, "chain length disagrees with len column");
                    None
                } else {
                    let node = arena.get(link);
                    Some((node.cell, node.prev))
                };
                Some(cell)
            }
            CellsRevInner::Flat(iter) => iter.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            CellsRevInner::Chain { remaining, .. } => {
                (*remaining as usize, Some(*remaining as usize))
            }
            CellsRevInner::Flat(iter) => iter.size_hint(),
        }
    }
}

impl ExactSizeIterator for CellsRev<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::Grid;

    #[test]
    fn arena_chunks_do_not_move_nodes() {
        let mut arena = TailArena::default();
        // Cross several chunk boundaries through both push and bulk paths.
        for i in 0..CHUNK_LEN + 10 {
            let addr = arena.push(TailNode { cell: CellId((i % 7) as u32), prev: i as Addr });
            assert_eq!(addr, i as Addr);
        }
        let batch: Vec<TailNode> =
            (0..CHUNK_LEN + 5).map(|i| TailNode { cell: CellId(3), prev: i as Addr }).collect();
        let base = arena.len();
        arena.extend_from_slice(&batch);
        assert_eq!(arena.len(), base + batch.len());
        for (i, node) in batch.iter().enumerate() {
            assert_eq!(arena.get((base + i) as Addr).prev, node.prev);
        }
        // Early nodes are untouched by growth.
        assert_eq!(arena.get(5).prev, 5);
    }

    #[test]
    fn arena_clear_reuses_chunks() {
        let mut arena = TailArena::default();
        for i in 0..2 * CHUNK_LEN + 3 {
            arena.push(TailNode { cell: CellId(1), prev: i as Addr });
        }
        let chunks = arena.chunk_count();
        assert_eq!(chunks, 3);
        arena.clear();
        assert_eq!(arena.len(), 0);
        // Refill past the old length: the retained chunks are reused in
        // place and only genuinely new growth allocates.
        for i in 0..2 * CHUNK_LEN + 7 {
            let addr = arena.push(TailNode { cell: CellId(2), prev: i as Addr });
            assert_eq!(addr, i as Addr);
        }
        assert_eq!(arena.chunk_count(), chunks);
        assert_eq!(arena.get(CHUNK_LEN as Addr).prev, CHUNK_LEN as Addr);
        assert_eq!(arena.get(0).cell, CellId(2));
    }

    #[test]
    fn store_extends_retires_and_releases() {
        let grid = Grid::unit(4);
        let mut store = StreamStore::default();
        store.spawn(1, 0, grid.cell_at(0, 0));
        store.spawn(0, 0, grid.cell_at(3, 3));
        // Extend stream row 0 twice, row 1 once.
        let StreamStore { live, tail, .. } = &mut store;
        live.extend_row(0, grid.cell_at(1, 0), tail);
        live.extend_row(1, grid.cell_at(2, 3), tail);
        live.extend_row(0, grid.cell_at(1, 1), tail);
        // Retire row 0 (id 1) — O(1), row 1 swaps into its slot.
        let StreamStore { live, finished, .. } = &mut store;
        live.swap_remove_into(0, finished);
        assert_eq!(store.live.len(), 1);
        assert_eq!(store.finished.len(), 1);
        let ds = store.into_dataset(grid.clone(), 3);
        // Sorted by id regardless of retirement order.
        assert_eq!(ds.stream(0).id, 0);
        assert_eq!(ds.stream(0).cells, &[grid.cell_at(3, 3), grid.cell_at(2, 3)]);
        assert_eq!(ds.stream(1).id, 1);
        assert_eq!(
            ds.stream(1).cells,
            &[grid.cell_at(0, 0), grid.cell_at(1, 0), grid.cell_at(1, 1)]
        );
    }

    #[test]
    fn snapshot_views_live_and_finished_without_copying() {
        let grid = Grid::unit(4);
        let mut store = StreamStore::default();
        store.spawn(1, 0, grid.cell_at(0, 0));
        store.spawn(0, 1, grid.cell_at(3, 3));
        let StreamStore { live, tail, .. } = &mut store;
        live.extend_row(0, grid.cell_at(1, 0), tail);
        live.extend_row(1, grid.cell_at(2, 3), tail);
        live.extend_row(0, grid.cell_at(1, 1), tail);
        let StreamStore { live, finished, .. } = &mut store;
        live.swap_remove_into(0, finished);

        let snap = store.snapshot(3);
        assert_eq!(snap.horizon(), 3);
        assert_eq!(snap.active_count(), 1);
        assert_eq!(snap.finished_count(), 1);
        assert_eq!(snap.num_streams(), 2);
        assert!(!snap.is_empty());

        // Finished region first: stream 1 with its full chain.
        let streams: Vec<_> = snap.streams().collect();
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].id(), 1);
        assert_eq!(streams[0].start(), 0);
        assert_eq!(streams[0].len(), 3);
        assert_eq!(streams[0].end(), 2);
        assert_eq!(streams[0].head(), grid.cell_at(1, 1));
        let rev: Vec<CellId> = streams[0].cells_rev().collect();
        assert_eq!(rev, vec![grid.cell_at(1, 1), grid.cell_at(1, 0), grid.cell_at(0, 0)]);
        let mut fwd = Vec::new();
        streams[0].cells_into(&mut fwd);
        assert_eq!(fwd, vec![grid.cell_at(0, 0), grid.cell_at(1, 0), grid.cell_at(1, 1)]);

        // Live stream 0.
        assert_eq!(streams[1].id(), 0);
        assert_eq!(streams[1].start(), 1);
        streams[1].cells_into(&mut fwd);
        assert_eq!(fwd, vec![grid.cell_at(3, 3), grid.cell_at(2, 3)]);
        assert_eq!(snap.live().len(), 1);
        assert_eq!(snap.live().next().unwrap().id(), 0);

        // Live-only occupancy through a reused buffer.
        let mut counts = vec![99u64; 1];
        snap.occupancy_into(grid.num_cells(), &mut counts);
        assert_eq!(counts.iter().sum::<u64>(), 1);
        assert_eq!(counts[grid.cell_at(2, 3).index()], 1);
        assert_eq!(snap.occupancy(grid.num_cells()), counts);

        // The view is read-only: releasing afterwards still works and
        // matches what the snapshot showed.
        let ds = store.into_dataset(grid.clone(), 3);
        assert_eq!(
            ds.stream(1).cells,
            &[grid.cell_at(0, 0), grid.cell_at(1, 0), grid.cell_at(1, 1)]
        );
    }

    #[test]
    fn cells_rev_is_exact_size() {
        let grid = Grid::unit(4);
        let mut store = StreamStore::default();
        store.spawn(7, 2, grid.cell_at(0, 0));
        let snap = store.snapshot(3);
        let s = snap.streams().next().unwrap();
        let mut it = s.cells_rev();
        assert_eq!(it.len(), 1);
        assert_eq!(it.next(), Some(grid.cell_at(0, 0)));
        assert_eq!(it.len(), 0);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn local_sink_addresses_relocate() {
        // Worker-style: append into a local buffer, then relocate into the
        // arena at a base offset — links stay consistent.
        let grid = Grid::unit(4);
        let mut store = StreamStore::default();
        store.spawn(0, 0, grid.cell_at(0, 0));
        let mut local: Vec<TailNode> = Vec::new();
        let StreamStore { live, .. } = &mut store;
        live.extend_row(0, grid.cell_at(1, 0), &mut local);
        live.extend_row(0, grid.cell_at(2, 0), &mut local);
        assert_eq!(store.live.links[0], 1); // shard-local address
        let base = store.tail.len() as Addr;
        // Local `prev` pointers inside the batch must be rebased too; the
        // merge path only offsets links of rows extended this pass, so the
        // batch itself is rebased by the caller before relocation.
        for node in &mut local {
            if node.prev != NO_LINK {
                node.prev += base;
            }
        }
        store.tail.extend_from_slice(&local);
        store.live.links[0] += base;
        let ds = store.into_dataset(grid.clone(), 3);
        assert_eq!(
            ds.stream(0).cells,
            &[grid.cell_at(0, 0), grid.cell_at(1, 0), grid.cell_at(2, 0)]
        );
    }
}
