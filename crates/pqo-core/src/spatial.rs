//! The block store of the instance list: its rows, and "smaller G·L first"
//! (paper Section 6.2) by one scan over their ln-selectivities and a stream
//! that finds the next-smallest row when it is asked for.
//!
//! *"...the overheads can also be improved by exploiting \[the\] idea of
//! checking instances with smaller GL values first. This can be achieved by
//! using a spatial index that can provide such instances without scanning
//! the entire list."*
//!
//! For selectivity vectors `a`, `b` with per-dimension ratios `αi = ai/bi`,
//!
//! ```text
//! G·L = ∏_{αi>1} αi · ∏_{αi<1} 1/αi = exp( Σi |ln ai − ln bi| )
//! ```
//!
//! so **G·L is the exponential of the L1 distance in log-selectivity
//! space**: "smallest G·L first" is a nearest-neighbour order under L1, and
//! "the selectivity check can pass" is an L1 ball of radius `ln(λ/S)`.
//!
//! At the list sizes and dimensionalities this system sees (hundreds to a
//! few thousand stored instances, d up to 10, 8–32 neighbours wanted) a
//! tree prunes next to nothing — at d ≥ 4 the 32nd-nearest neighbour is
//! farther away than most splitting planes — while a scan over contiguous
//! columns runs at memory speed. So there is no tree: [`CoordBlocks`] keeps
//! `ln s` for every stored instance in blocks of [`BLOCK_ROWS`] rows,
//! dimension-major inside a block, and one kernel computes a block's
//! distances column by column (a loop the compiler vectorises, at the CPU's
//! vector width: [`crate::scr::CacheState::try_cached_plan_with`] runs in an
//! AVX2 build where the CPU has it). DESIGN.md §5c has the measurements and
//! the list size at which this stops holding.
//!
//! **Rows.** A block also carries a payload per row — for
//! [`crate::cache::PlanCache`] the `Arc<InstanceEntry>` the coordinates
//! belong to, so the instance list *is* this store and there is no second
//! per-instance array to keep in step with it ([`CoordBlocks::rows`] is the
//! list view). The payload type is a parameter; `CoordBlocks<()>` is the
//! plain coordinate store the oracle tests drive.
//!
//! **Candidates.** The scan leaves one key per row and one minimum per tile
//! of 16 rows in a [`KeyStream`], which hands rows out nearest first, one per
//! call, in `n/16` selects and one tile's compares and `min`s each (no
//! branch on a key) — the cost check stops at its hit, which
//! is usually its first candidate, and pays for no candidate it does not
//! reach. Its order is `(key, row)` under [`f64::total_cmp`], which is
//! total over every `f64` and which on distances (never NaN, never `-0.0`)
//! is plain `<`.
//!
//! **Bit-identity.** A row's distance is `Σi |ci − qi|` with the terms added
//! in dimension order from zero — the same operations in the same order as
//! a scalar fold over that row — and every output is ordered by
//! `(distance, row)`. Results are therefore a pure function of the stored
//! rows: independent of block boundaries, of how the store was built
//! (appended, compacted, restored from bytes) and of the instruction set
//! the kernel was compiled to.
//!
//! **Sharing.** Blocks sit behind `Arc`s. A full block is never written
//! again, so every published generation of a cache shares it. Appending
//! writes the tail block through `Arc::make_mut`, which copies it only while
//! a published generation still holds it, and then copies only its
//! coordinates (at most `64·d·8` bytes). The payloads are not copied: every
//! copy of a block shares one array of [`BLOCK_ROWS`] slots, each filled
//! once (a `OnceLock`) by the first copy to append there, and a store reads
//! no slot at or past its own length — [`Rows`] is bounded by the length,
//! never by which slots are filled — so the rows a later generation appends
//! are invisible to an earlier one. Two clones appended to independently
//! each copy their own coordinates; the second to reach a slot finds it
//! filled and takes slots of its own, cloning the rows before it into them:
//! the one place an append clones a payload. `Clone` is one pointer bump
//! per block: what is *shared* is every block and every payload slot, what
//! is *copied* per publication is the `Vec` of block pointers and, on the
//! writer's next append, at most the tail's coordinates.
//!
//! Stored coordinates are clamped into `[ln MIN_POSITIVE, ln MAX]`, so a
//! pathological selectivity (NaN, ∞, 0 from a hostile client or a histogram
//! bug) degrades to a far-away point instead of a NaN distance, and no
//! comparison here can panic.

use std::sync::{Arc, OnceLock};

/// Rows per block.
pub const BLOCK_ROWS: usize = 64;

/// `ln s`, clamped finite.
// Not `clamp`: `NaN.clamp(..)` is NaN, while `max` drops NaN
// (NaN.max(x) == x) and `min` drops +∞, so every coordinate is finite and
// distances are never NaN.
#[allow(clippy::manual_clamp)]
#[inline(always)]
fn ln_clamped(s: f64) -> f64 {
    s.max(f64::MIN_POSITIVE).min(f64::MAX).ln()
}

/// Rows per tile: what the kernel sums in registers at a time, and the unit
/// a [`KeyStream`] keeps one minimum for. Divides [`BLOCK_ROWS`].
const TILE: usize = 16;
// One bit per row of a tile in a `u16`; tiles never straddle blocks.
const _: () = assert!(TILE == u16::BITS as usize && BLOCK_ROWS.is_multiple_of(TILE));

/// The smaller of two keys that are not NaN: one `min` instruction, no branch.
#[inline(always)]
fn min_lt(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// [`f64::total_cmp`]'s order as an integer's: `ord(a) < ord(b)` exactly when
/// `a.total_cmp(&b).is_lt()`. Its own inverse. A running minimum kept in
/// this form is compared without being mapped again.
#[inline(always)]
fn ord(key: f64) -> i64 {
    let bits = key.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The minimum of a tile's values by pairwise reduction: 8, 4, 2, then 1
/// independent `min`s, where a fold is a chain of 15 dependent ones. `min`
/// must be exact and commutative on the values given — `min_lt` on keys
/// that are not NaN and not `-0.0` (distances), `i64::min` on [`ord`]s — so
/// the result is the fold's, bit for bit.
#[inline(always)]
fn pairwise_min<T: Copy>(mut v: [T; TILE], min: impl Fn(T, T) -> T) -> T {
    let mut half = TILE / 2;
    while half > 0 {
        for i in 0..half {
            v[i] = min(v[i], v[i + half]);
        }
        half /= 2;
    }
    v[0]
}

/// The smallest key among a tile's rows whose bit in `done` is clear, as
/// [`ord`] maps it; `i64::MAX` when every bit is set. One select per row,
/// no branch.
#[inline(always)]
fn live_min(tile: &[f64; TILE], done: u16) -> i64 {
    let mut ords = [i64::MAX; TILE];
    for (r, (o, &key)) in ords.iter_mut().zip(tile).enumerate() {
        if done >> r & 1 == 0 {
            *o = ord(key);
        }
    }
    pairwise_min(ords, i64::min)
}

/// Bit `r` set: row `r` of the tile holds exactly the key with these bits.
#[inline(always)]
fn matching(tile: &[f64; TILE], bits: u64) -> u16 {
    let mut mask = 0u16;
    for (r, key) in tile.iter().enumerate() {
        mask |= u16::from(key.to_bits() == bits) << r;
    }
    mask
}

/// Candidates on demand: one key per row of a list, handed out in ascending
/// `(key, row)` order under [`f64::total_cmp`] — what a stable sort of the
/// rows by key would list — one row per call, without sorting or selecting
/// ahead of the caller. The cost check usually stops at its first candidate
/// (0.89 Recosts per decision on the paper's evaluation), so nothing is done
/// for the candidates it never reaches.
///
/// The stream keeps the minimum key of every tile of 16 rows among the rows
/// it has not handed out yet. A pull picks the smallest tile minimum (the
/// lower tile on a tie), finds the first such row of that tile with that key
/// (the lowest bit of a match mask) and re-derives that one tile's minimum
/// by pairwise reduction: `n/16` selects, 16 compares and 15 `min`s per
/// candidate, none of them a branch on the keys. Which rows a tile has
/// handed out is a bit mask beside its minimum, so every `f64` — `+∞`, NaN,
/// either zero — is an ordinary key.
///
/// Use: one [`CoordBlocks::scan`], which writes the rows' distances and their
/// tile minima as it computes them, [`KeyStream::open`], then
/// [`KeyStream::next`] until it returns `None`.
#[derive(Debug, Default)]
pub struct KeyStream {
    /// One key per row, then — once a scan wrote them or the stream is
    /// opened — filler up to a whole tile, which no pull returns.
    keys: Vec<f64>,
    /// Rows: the keys before the filler.
    len: usize,
    /// Per tile, the smallest key among its rows not handed out yet, as
    /// [`ord`] maps it; meaningless once every row of the tile is.
    tile_min: Vec<i64>,
    /// Per tile, bit `r` set: row `r` of the tile is handed out or lies past
    /// the end of the list. All set: the tile is exhausted.
    tile_done: Vec<u16>,
    /// Rows [`KeyStream::next`] may still return.
    want: usize,
    /// Ranks [`KeyStream::next`] may still look at.
    window: usize,
}

impl KeyStream {
    /// An empty stream.
    pub fn new() -> Self {
        KeyStream::default()
    }

    /// The keys in row order.
    pub fn keys(&self) -> &[f64] {
        &self.keys[..self.len]
    }

    /// Forget every key; [`KeyStream::next`] returns `None` until the next
    /// [`KeyStream::open`].
    #[inline(always)]
    pub fn clear(&mut self) {
        self.keys.clear();
        self.len = 0;
        self.tile_min.clear();
        self.tile_done.clear();
        (self.want, self.window) = (0, 0);
    }

    /// Append the key of the next row: how the stream's oracle tests fill it
    /// with arbitrary keys, after [`KeyStream::clear`] and in place of a
    /// scan.
    #[doc(hidden)]
    pub fn push(&mut self, key: f64) {
        debug_assert_eq!(self.keys.len(), self.len, "pushed onto a scan");
        self.keys.push(key);
        self.len += 1;
    }

    /// The keys as whole tiles, filler included.
    #[inline(always)]
    fn tiles(&self) -> &[[f64; TILE]] {
        self.keys.as_chunks().0
    }

    /// Start handing out rows: at most `want` of them, looking no further
    /// than the `window` smallest — [`KeyStream::next`] returns "the first
    /// `want` enabled of the `window` nearest", in order. Takes the minimum
    /// of every tile a scan has not already left one for.
    #[inline(always)]
    pub fn open(&mut self, want: usize, window: usize) {
        debug_assert!(self.tile_done.is_empty(), "opened once per fill");
        self.keys
            .resize(self.len.next_multiple_of(TILE), f64::INFINITY);
        self.tile_done.resize(self.keys.len() / TILE, 0);
        let tail = self.len % TILE;
        if tail != 0 {
            *self.tile_done.last_mut().expect("a partial tile exists") = !0 << tail;
        }
        for t in self.tile_min.len()..self.tile_done.len() {
            let min = live_min(&self.tiles()[t], self.tile_done[t]);
            self.tile_min.push(min);
        }
        (self.want, self.window) = (want, window);
    }

    /// The next row that is not `disabled`, as `(key, row)`, while fewer than
    /// `want` rows have been returned and fewer than `window` looked at.
    /// `disabled` is asked about a row when the row is reached.
    #[inline(always)]
    pub fn next(&mut self, disabled: impl Fn(usize) -> bool) -> Option<(f64, usize)> {
        while self.want > 0 && self.window > 0 {
            let (key, row) = self.pull()?;
            self.window -= 1;
            if !disabled(row) {
                self.want -= 1;
                return Some((key, row));
            }
        }
        None
    }

    /// The smallest `(key, row)` not handed out yet.
    #[inline(always)]
    fn pull(&mut self) -> Option<(f64, usize)> {
        let (mut min, mut at, mut found) = (i64::MAX, 0, false);
        for (t, (&m, &done)) in self.tile_min.iter().zip(&self.tile_done).enumerate() {
            // Strictly smaller only: equal keys go to the lower tile. `&` and
            // `|`, not `&&` and `||`: selects, not branches.
            let take = (done != u16::MAX) & (!found | (m < min));
            (min, at) = if take { (m, t) } else { (min, at) };
            found |= take;
        }
        if !found {
            return None;
        }
        let tile = &self.tiles()[at];
        let done = self.tile_done[at];
        // `ord` is its own inverse: the rows holding the minimum hold the bits
        // it maps back to.
        let hits = matching(tile, ord(f64::from_bits(min as u64)) as u64) & !done;
        assert!(
            hits != 0,
            "a live tile's minimum is the key of one of its rows"
        );
        let r = hits.trailing_zeros() as usize;
        let (key, done) = (tile[r], done | 1 << r);
        let next = live_min(tile, done);
        self.tile_done[at] = done;
        self.tile_min[at] = next;
        Some((key, at * TILE + r))
    }
}

/// One block: [`BLOCK_ROWS`] rows of coordinates, allocated whole, and one
/// slot per row for its payload.
///
/// The coordinates are the block's own, copied with it. The slots are shared
/// by every copy: a slot is filled once, by the first copy to append a row
/// there, and a copy reads only the slots below its store's length. So a
/// copy of a shared tail copies coordinates and bumps one `Arc`, and the
/// rows stay where they are.
#[derive(Debug)]
struct Block<T> {
    /// `coords[dim * BLOCK_ROWS + r]` is coordinate `dim` of the block's row
    /// `r`; rows past the store's length are zero or another copy's, and
    /// never read as results.
    coords: Box<[f64]>,
    /// The payloads, filled from the front: slots below the store's length
    /// hold its rows, the ones after may hold a later generation's.
    rows: Arc<[OnceLock<T>; BLOCK_ROWS]>,
}

/// The copy `Arc::make_mut` takes of a shared tail: the coordinates, and
/// the slots by reference.
impl<T> Clone for Block<T> {
    fn clone(&self) -> Self {
        Block {
            coords: self.coords.clone(),
            rows: Arc::clone(&self.rows),
        }
    }
}

impl<T> Block<T> {
    fn new(dims: usize) -> Self {
        Block {
            coords: vec![0.0; dims * BLOCK_ROWS].into(),
            rows: Arc::new(std::array::from_fn(|_| OnceLock::new())),
        }
    }

    /// The payload in slot `r`, which the caller's store holds.
    #[inline(always)]
    fn row(&self, r: usize) -> &T {
        self.rows[r]
            .get()
            .expect("a row within the store's length is filled")
    }
}

/// Append-only store of the instance list: row `i` is entry `i`, its
/// coordinates in log-selectivity space beside its payload. See the module
/// docs.
#[derive(Debug, Clone)]
pub struct CoordBlocks<T = ()> {
    dims: usize,
    len: usize,
    blocks: Vec<Arc<Block<T>>>,
    blocks_copied: u64,
    rows_copied: u64,
}

impl<T> Default for CoordBlocks<T> {
    fn default() -> Self {
        CoordBlocks {
            dims: 0,
            len: 0,
            blocks: Vec::new(),
            blocks_copied: 0,
            rows_copied: 0,
        }
    }
}

impl CoordBlocks {
    /// Empty payload-free store; the first row fixes the dimensionality.
    /// (A store with payloads starts from `Default`.)
    pub fn new() -> Self {
        CoordBlocks::default()
    }

    /// Append a payload-free row at the given selectivities; its index is
    /// the previous [`CoordBlocks::len`].
    ///
    /// # Panics
    /// Panics if the arity differs from the rows already stored.
    pub fn push(&mut self, selectivities: &[f64]) {
        self.push_with(selectivities, ());
    }

    /// [`CoordBlocks::retain_rows`] by row index alone.
    pub fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        self.retain_rows(|i, ()| keep(i));
    }
}

impl<T> CoordBlocks<T> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows' payloads as a list: entry `i` belongs to coordinate row `i`.
    pub fn rows(&self) -> Rows<'_, T> {
        Rows { store: self }
    }

    /// Cumulative `(blocks copied, rows copied)`: tail blocks whose
    /// coordinates were copied on write because a published generation
    /// still shared them, and blocks rebuilt by [`CoordBlocks::retain_rows`]
    /// — the writer's cost of keeping published generations immutable,
    /// surfaced through `ScrStats`. Rows are coordinate rows: a tail copy
    /// clones no payload.
    pub fn copy_stats(&self) -> (u64, u64) {
        (self.blocks_copied, self.rows_copied)
    }

    /// Per-block storage identity: two clones that share a block's storage
    /// report equal tokens at that position. Test hook for the
    /// generation-sharing invariant.
    #[doc(hidden)]
    pub fn block_tokens(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .map(|b| Arc::as_ptr(b) as usize)
            .collect()
    }

    /// Rows of this store in block `b`: the block's first `rows_in(b)`
    /// slots.
    #[inline(always)]
    fn rows_in(&self, b: usize) -> usize {
        (self.len - b * BLOCK_ROWS).min(BLOCK_ROWS)
    }

    /// The payloads of each block in turn; block `b` starts at row
    /// `b * BLOCK_ROWS`.
    pub(crate) fn block_rows(&self) -> impl Iterator<Item = impl Iterator<Item = &T>> {
        self.blocks.iter().enumerate().map(|(b, block)| {
            let rows = self.rows_in(b);
            (0..rows).map(|r| block.row(r))
        })
    }

    /// Whether block `b` of both stores is one shared allocation — the same
    /// rows at the same indices.
    pub(crate) fn shares_block(&self, other: &Self, b: usize) -> bool {
        match (self.blocks.get(b), other.blocks.get(b)) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// Dimensionality of the rows (0 while empty).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The kernel: each block's distances from `q`, column by column, handed
    /// to `visit` as whole tiles of 16 rows (rows past the block's last are
    /// filler), with the index of the block's first row, the number of rows
    /// and the minimum of each tile. Rows are summed a tile at a time so that
    /// a tile's accumulators stay in registers across the dimensions (four
    /// 4-lane registers in the AVX2 build, eight 2-lane ones in the portable
    /// build), and its minimum is taken by pairwise reduction, filler rows
    /// padded to `+∞`, before they leave. Distances are sums of absolute
    /// values from zero — never NaN, never `-0.0` — so `<` orders them as
    /// `total_cmp` does.
    #[inline(always)]
    fn for_each_block(&self, q: &[f64], mut visit: impl FnMut(usize, &[f64], usize, &[f64])) {
        let mut dist = [[0.0f64; TILE]; BLOCK_ROWS / TILE];
        let mut mins = [0.0f64; BLOCK_ROWS / TILE];
        for (b, block) in self.blocks.iter().enumerate() {
            let base = b * BLOCK_ROWS;
            let rows = self.rows_in(b);
            let tiles = rows.div_ceil(TILE);
            let cols = block.coords.as_chunks::<BLOCK_ROWS>().0;
            for (t, out) in dist.iter_mut().take(tiles).enumerate() {
                let mut acc = [0.0f64; TILE];
                for (col, &qd) in cols.iter().zip(q) {
                    let col = &col.as_chunks::<TILE>().0[t];
                    for (a, &c) in acc.iter_mut().zip(col) {
                        *a += (c - qd).abs();
                    }
                }
                *out = acc;
                let mut padded = acc;
                padded[(rows - t * TILE).min(TILE)..].fill(f64::INFINITY);
                mins[t] = pairwise_min(padded, min_lt);
            }
            visit(base, dist[..tiles].as_flattened(), rows, &mins[..tiles]);
        }
    }

    /// One pass for both of `getPlan`'s steps. Leaves every row's L1
    /// distance from `query` (mapped to log space into `q`) in `keys`, ready
    /// to [`KeyStream::open`], and returns the minimum `(distance, row)`
    /// among the rows within `radius` that `accept` — what walking the ball
    /// in ascending order and stopping at the first accepted row would find,
    /// without materialising or sorting the ball. `accept` is called only
    /// for rows that would become the new minimum.
    #[inline(always)]
    pub fn scan(
        &self,
        query: &[f64],
        radius: f64,
        q: &mut Vec<f64>,
        keys: &mut KeyStream,
        mut accept: impl FnMut(f64, usize) -> bool,
    ) -> Option<(f64, usize)> {
        q.clear();
        q.extend(query.iter().map(|&s| ln_clamped(s)));
        keys.clear();
        let mut best: Option<(f64, usize)> = None;
        if self.len > 0 {
            assert_eq!(q.len(), self.dims, "dimension mismatch");
        }
        self.for_each_block(q, |base, dist, rows, mins| {
            keys.keys.extend_from_slice(dist);
            keys.len += rows;
            keys.tile_min.extend(mins.iter().map(|&m| ord(m)));
            for (t, (tile, &min)) in dist[..rows].chunks(TILE).zip(mins).enumerate() {
                // Rows come in index order, so only a strictly smaller
                // distance displaces the best so far; a tile whose minimum
                // is out of reach holds no such row.
                if min <= best.map_or(radius, |b| b.0) {
                    let first = base + t * TILE;
                    for (r, &d) in tile.iter().enumerate() {
                        let closer = match best {
                            Some((b, _)) => d < b,
                            None => d <= radius,
                        };
                        if closer && accept(d, first + r) {
                            best = Some((d, first + r));
                        }
                    }
                }
            }
        });
        best
    }

    /// Every row's distance from `query`, opened to hand out the `k`
    /// nearest.
    fn ranked(&self, query: &[f64], k: usize) -> KeyStream {
        let (mut q, mut keys) = (Vec::new(), KeyStream::new());
        self.scan(query, f64::NEG_INFINITY, &mut q, &mut keys, |_, _| false);
        keys.open(k, k);
        keys
    }

    /// Every row within L1 distance `radius` of `query`, as
    /// `(distance, row)` ascending by `(distance, row)`.
    pub fn within(&self, query: &[f64], radius: f64) -> Vec<(f64, usize)> {
        let mut keys = self.ranked(query, self.len);
        std::iter::from_fn(|| keys.next(|_| false))
            .take_while(|&(d, _)| d <= radius)
            .collect()
    }

    /// The `k` rows nearest to `query`, as `(distance, row)` ascending by
    /// `(distance, row)`.
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<(f64, usize)> {
        let mut keys = self.ranked(query, k);
        std::iter::from_fn(|| keys.next(|_| false)).collect()
    }
}

impl<T: Clone> CoordBlocks<T> {
    /// Append a row at the given selectivities; its index is the previous
    /// [`CoordBlocks::len`].
    ///
    /// # Panics
    /// Panics if the arity differs from the rows already stored.
    pub fn push_with(&mut self, selectivities: &[f64], payload: T) {
        if self.len == 0 {
            self.dims = selectivities.len();
        }
        assert_eq!(selectivities.len(), self.dims, "dimension mismatch");
        self.push_row(payload, |dim| ln_clamped(selectivities[dim]));
    }

    fn push_row(&mut self, payload: T, coord: impl Fn(usize) -> f64) {
        let r = self.len % BLOCK_ROWS;
        if r == 0 {
            self.blocks.push(Arc::new(Block::new(self.dims)));
        }
        let tail = self.blocks.last_mut().expect("a tail block exists");
        if Arc::get_mut(tail).is_none() {
            self.blocks_copied += 1;
            self.rows_copied += r as u64;
        }
        let block = Arc::make_mut(tail);
        for dim in 0..self.dims {
            block.coords[dim * BLOCK_ROWS + r] = coord(dim);
        }
        if let Err(payload) = block.rows[r].set(payload) {
            // Another copy of this block appended here first: this store
            // takes slots of its own, its rows cloned into them — the one
            // place a payload is cloned on append.
            let rows: [OnceLock<T>; BLOCK_ROWS] = std::array::from_fn(|i| {
                if i < r {
                    OnceLock::from(block.row(i).clone())
                } else {
                    OnceLock::new()
                }
            });
            block.rows = Arc::new(rows);
            assert!(block.rows[r].set(payload).is_ok(), "a fresh slot is empty");
        }
        self.len += 1;
    }

    /// Drop every row `i` with `!keep(i, payload)`, close the gaps and hand
    /// back the dropped payloads in row order. Blocks before the first
    /// dropped row keep their storage; the rest are rebuilt from the kept
    /// rows. Dropping nothing touches nothing.
    pub fn retain_rows(&mut self, keep: impl Fn(usize, &T) -> bool) -> Vec<T> {
        let Some(first) = self
            .rows()
            .iter()
            .enumerate()
            .position(|(i, t)| !keep(i, t))
        else {
            return Vec::new();
        };
        let clean = first / BLOCK_ROWS;
        let stale = self.blocks.split_off(clean);
        let start = clean * BLOCK_ROWS;
        let end = self.len;
        self.len = start;
        let mut dropped = Vec::new();
        for (b, from) in stale.iter().enumerate() {
            let first_row = start + b * BLOCK_ROWS;
            for r in 0..(end - first_row).min(BLOCK_ROWS) {
                let payload = from.row(r);
                if keep(first_row + r, payload) {
                    self.push_row(payload.clone(), |dim| from.coords[dim * BLOCK_ROWS + r]);
                } else {
                    dropped.push(payload.clone());
                }
            }
        }
        self.blocks_copied += (self.blocks.len() - clean) as u64;
        self.rows_copied += (self.len - start) as u64;
        dropped
    }
}

/// A block store's payloads as a list: borrowed and indexable.
#[derive(Debug)]
pub struct Rows<'a, T> {
    store: &'a CoordBlocks<T>,
}

impl<'a, T> Rows<'a, T> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.store.len
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.store.len == 0
    }

    /// Row `i`, if there is one.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<&'a T> {
        (i < self.store.len).then(|| self.store.blocks[i / BLOCK_ROWS].row(i % BLOCK_ROWS))
    }

    /// The rows in index order.
    #[inline(always)]
    pub fn iter(&self) -> RowsIter<'a, T> {
        RowsIter {
            rows: Rows { store: self.store },
            next: 0,
        }
    }
}

impl<T> std::ops::Index<usize> for Rows<'_, T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, i: usize) -> &T {
        assert!(i < self.store.len, "row {i} of {}", self.store.len);
        self.store.blocks[i / BLOCK_ROWS].row(i % BLOCK_ROWS)
    }
}

impl<'a, T> IntoIterator for Rows<'a, T> {
    type Item = &'a T;
    type IntoIter = RowsIter<'a, T>;

    fn into_iter(self) -> RowsIter<'a, T> {
        self.iter()
    }
}

/// Iterator over [`Rows`].
#[derive(Debug)]
pub struct RowsIter<'a, T> {
    rows: Rows<'a, T>,
    next: usize,
}

impl<'a, T> Iterator for RowsIter<'a, T> {
    type Item = &'a T;

    #[inline(always)]
    fn next(&mut self) -> Option<&'a T> {
        let row = self.rows.get(self.next)?;
        self.next += 1;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqo_rand::rngs::StdRng;
    use pqo_rand::{Rng, SeedableRng};

    #[test]
    fn pairwise_tile_minima_equal_the_sequential_fold() {
        let mut rng = StdRng::seed_from_u64(0x5eed_7111);
        // Distances: never NaN, never -0.0; duplicates and zeros frequent.
        let pool = [0.0, 5e-324, 1e-300, 0.25, 0.25, 1.5, 700.0, 1416.0];
        let awkward = [
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for round in 0..8000 {
            let filled = 1 + round % TILE;
            let tile: [f64; TILE] =
                std::array::from_fn(|r| match (r < filled, rng.gen_range(0..3u32)) {
                    (false, _) => f64::INFINITY,
                    (true, 0) => pool[rng.gen_range(0..pool.len())],
                    _ => rng.gen_range(0.0..4.0),
                });
            let fold = tile[..filled].iter().copied().fold(f64::INFINITY, min_lt);
            let pairwise = pairwise_min(tile, min_lt);
            assert_eq!(
                pairwise.to_bits(),
                fold.to_bits(),
                "{filled} rows: {tile:?}"
            );
            // The stream's minimum over the rows left, on any key at all.
            let keys: [f64; TILE] = std::array::from_fn(|_| match rng.gen_range(0..4u32) {
                0 => awkward[rng.gen_range(0..awkward.len())],
                1 => pool[rng.gen_range(0..pool.len())],
                _ => rng.gen_range(-4.0..4.0),
            });
            let done = (rng.gen_range(0..1u64 << TILE) | !0 << filled) as u16;
            let left = (0..TILE).filter(|&r| done >> r & 1 == 0);
            let expect = left.map(|r| ord(keys[r])).min().unwrap_or(i64::MAX);
            assert_eq!(live_min(&keys, done), expect, "done {done:#06x}: {keys:?}");
            let bits = keys[round % TILE].to_bits();
            let hits = (0..TILE).filter(|&r| keys[r].to_bits() == bits);
            assert_eq!(matching(&keys, bits), hits.fold(0, |m, r| m | 1 << r));
        }
    }

    fn store(points: &[[f64; 2]]) -> CoordBlocks {
        let mut s = CoordBlocks::new();
        for p in points {
            s.push(p);
        }
        s
    }

    #[test]
    fn within_radius_matches_gl_bound() {
        // within(q, ln λ) must return exactly the entries with G·L ≤ λ.
        let points = [
            [0.1, 0.1],
            [0.12, 0.1],
            [0.4, 0.1],
            [0.1, 0.45],
            [0.105, 0.098],
        ];
        let s = store(&points);
        let q = [0.1, 0.1];
        let lambda: f64 = 1.5;
        let hits = s.within(&q, lambda.ln());
        let expect: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let gl: f64 = p
                    .iter()
                    .zip(&q)
                    .map(|(a, b)| if a > b { a / b } else { b / a })
                    .product();
                gl <= lambda
            })
            .map(|(i, _)| i)
            .collect();
        let mut got: Vec<usize> = hits.iter().map(|&(_, i)| i).collect();
        got.sort();
        assert_eq!(got, expect);
        // Ascending distance = ascending G·L.
        for w in hits.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn zero_k_and_empty_store() {
        let empty = CoordBlocks::new();
        assert!(empty.is_empty());
        assert!(empty.nearest(&[0.1, 0.1], 3).is_empty());
        assert!(empty.within(&[0.1, 0.1], 10.0).is_empty());
        let one = store(&[[0.1, 0.1]]);
        assert!(one.nearest(&[0.1, 0.1], 0).is_empty());
        assert_eq!(one.nearest(&[0.1, 0.1], 3), vec![(0.0, 0)]);
    }

    #[test]
    fn clone_shares_blocks_until_the_tail_is_written() {
        let mut writer = CoordBlocks::new();
        for i in 0..150 {
            writer.push(&[0.001 * (i + 1) as f64, 0.5, 0.25]);
        }
        assert_eq!(
            writer.copy_stats(),
            (0, 0),
            "nothing shared, nothing copied"
        );
        let published = writer.clone();
        assert_eq!(published.block_tokens(), writer.block_tokens());
        writer.push(&[0.9, 0.9, 0.9]);
        let (before, after) = (published.block_tokens(), writer.block_tokens());
        assert_eq!(before[..2], after[..2], "full blocks are never copied");
        assert_ne!(before[2], after[2], "the shared tail is copied on write");
        assert_eq!(writer.copy_stats(), (1, 150 - 128));
        // The published generation still answers from its own storage.
        assert_eq!((published.len(), writer.len()), (150, 151));
        assert_eq!(published.nearest(&[0.9, 0.9, 0.9], 1)[0].1, 149);
        assert_eq!(writer.nearest(&[0.9, 0.9, 0.9], 1), vec![(0.0, 150)]);
    }

    #[test]
    fn retain_keeps_the_blocks_before_the_first_gap() {
        let mut s = CoordBlocks::new();
        for i in 0..200 {
            s.push(&[0.004 * (i + 1) as f64]);
        }
        let before = s.block_tokens();
        s.retain(|_| true);
        assert_eq!(s.block_tokens(), before, "dropping nothing copies nothing");
        s.retain(|i| i != 70 && i != 199);
        assert_eq!(s.len(), 198);
        let after = s.block_tokens();
        assert_eq!(after[0], before[0]);
        assert_ne!(after[1], before[1]);
        assert_eq!(s.copy_stats(), (3, 198 - 64));
        // Row 70 is gone: old row 71 answers at index 70.
        let q = [0.004 * 72.0];
        assert_eq!(s.nearest(&q, 1), vec![(0.0, 70)]);
    }

    #[test]
    fn payloads_ride_with_their_rows_through_forks_and_compaction() {
        let mut origin: CoordBlocks<Arc<usize>> = CoordBlocks::default();
        for i in 0..70 {
            origin.push_with(&[0.01 * (i + 1) as f64], Arc::new(i));
        }
        let refcounts = |s: &CoordBlocks<Arc<usize>>| -> Vec<usize> {
            s.rows().iter().map(Arc::strong_count).collect()
        };
        // Two forks of a shared tail each copy its coordinates and append
        // into the same slot, row 70. The first fills the shared slot and
        // clones no payload; the second finds it filled and takes slots of
        // its own, cloning the block's six earlier rows into them. Each
        // reads back its own row, and the origin sees neither.
        let (mut left, mut right) = (origin.clone(), origin.clone());
        left.push_with(&[0.9], Arc::new(700));
        assert_eq!(refcounts(&origin), vec![1; 70]);
        right.push_with(&[0.8], Arc::new(800));
        let counts = refcounts(&origin);
        assert_eq!(
            counts[..64],
            [1; 64],
            "a full block's payloads are never cloned"
        );
        assert_eq!(counts[64..], [2; 6], "the second fork's own slots");
        assert_eq!((origin.len(), left.len(), right.len()), (70, 71, 71));
        assert_eq!(*left.rows()[70], 700);
        assert_eq!(right.rows().get(70).map(|p| **p), Some(800));
        assert_eq!(origin.rows().get(70), None);
        assert_eq!(origin.rows().iter().count(), 70);
        assert_eq!((left.copy_stats(), right.copy_stats()), ((1, 6), (1, 6)));
        assert_eq!(left.block_tokens()[0], right.block_tokens()[0]);
        assert_ne!(left.block_tokens()[1], right.block_tokens()[1]);
        for fork in [&left, &right] {
            let rows: Vec<usize> = fork.rows().iter().map(|p| **p).collect();
            assert_eq!(rows[..70], (0..70).collect::<Vec<_>>()[..]);
        }
        // A third fork appends behind both, into a slot of the origin's
        // that is filled too.
        let mut third = origin.clone();
        third.push_with(&[0.7], Arc::new(900));
        assert_eq!(*third.rows()[70], 900);
        assert_eq!(*left.rows()[70], 700);
        // Compaction hands the dropped payloads back in row order and keeps
        // payload and coordinates together.
        let dropped = left.retain_rows(|i, p| **p % 10 != 3 || i >= 65);
        let dropped: Vec<usize> = dropped.iter().map(|p| **p).collect();
        assert_eq!(dropped, vec![3, 13, 23, 33, 43, 53, 63]);
        assert_eq!(left.len(), 64);
        let kept: Vec<usize> = left.rows().iter().map(|p| **p).collect();
        assert_eq!(kept.len(), 64);
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(left.nearest(&[0.9], 1), vec![(0.0, 63)]);
        assert_eq!(*left.rows()[63], 700);
        assert_eq!(right.rows().len(), 71, "the other fork is untouched");
        assert_eq!(*right.rows()[70], 800);
    }
}
