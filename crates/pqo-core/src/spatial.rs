//! The block store of the instance list: its rows, and "smaller G·L first"
//! (paper Section 6.2) by one scan over their ln-selectivities.
//!
//! *"...the overheads can also be improved by exploiting [the] idea of
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
//! distances column by column (a loop the compiler vectorises). DESIGN.md
//! §5c has the measurements and the list size at which this stops holding.
//!
//! **Rows.** A block also carries a payload per row — for
//! [`crate::cache::PlanCache`] the `Arc<InstanceEntry>` the coordinates
//! belong to, so the instance list *is* this store and there is no second
//! per-instance array to keep in step with it ([`CoordBlocks::rows`] is the
//! list view). The payload type is a parameter; `CoordBlocks<()>` is the
//! plain coordinate store the oracle tests drive.
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
//! again, so every published generation of a cache shares it; appending
//! writes the tail block through `Arc::make_mut`, which copies it (at most
//! `64·d·8` bytes of coordinates and 63 payloads — pointer bumps, for the
//! instance list) only while a published generation still holds it, and
//! two clones appended to independently each copy their own tail. `Clone`
//! is one pointer bump per block: what is *shared* is every block, what is
//! *copied* per publication is the `Vec` of block pointers and, on the
//! writer's next append, at most the tail.
//!
//! Stored coordinates are clamped into `[ln MIN_POSITIVE, ln MAX]`, so a
//! pathological selectivity (NaN, ∞, 0 from a hostile client or a histogram
//! bug) degrades to a far-away point instead of a NaN distance, and no
//! comparison here can panic.

use std::sync::Arc;

/// Rows per block.
pub const BLOCK_ROWS: usize = 64;

/// `ln s`, clamped finite.
// Not `clamp`: `NaN.clamp(..)` is NaN, while `max` drops NaN
// (NaN.max(x) == x) and `min` drops +∞, so every coordinate is finite and
// distances are never NaN.
#[allow(clippy::manual_clamp)]
fn ln_clamped(s: f64) -> f64 {
    s.max(f64::MIN_POSITIVE).min(f64::MAX).ln()
}

/// Insert `(key, item)` into `top` — ascending by key, at most `k` long —
/// *after* every entry whose key is not greater, dropping the last entry when
/// that makes `k + 1`. Feeding items in list order thus yields exactly what a
/// stable sort by key followed by `truncate(k)` would, and for distances fed
/// in row order the canonical `(distance, row)` order.
pub(crate) fn insert_bounded(top: &mut Vec<(f64, usize)>, k: usize, key: f64, item: usize) {
    if top.len() == k {
        match top.last() {
            Some(last) if key.total_cmp(&last.0).is_lt() => {
                top.pop();
            }
            _ => return,
        }
    }
    let at = top.partition_point(|e| e.0.total_cmp(&key).is_le());
    top.insert(at, (key, item));
}

/// The `k` smallest of `dist` as `(distance, row)`, ascending, into `top`.
fn select_nearest(dist: &[f64], k: usize, top: &mut Vec<(f64, usize)>) {
    top.clear();
    if k == 0 {
        return;
    }
    // Distances are never NaN, so `<` against the current worst is the
    // canonical order's "strictly before": a tie loses to the earlier row.
    let mut worst = f64::INFINITY;
    for (row, &d) in dist.iter().enumerate() {
        if top.len() < k || d < worst {
            insert_bounded(top, k, d, row);
            if top.len() == k {
                worst = top.last().map_or(f64::INFINITY, |e| e.0);
            }
        }
    }
}

/// The cost-check list over the distances of one [`CoordBlocks::scan`]: the
/// first `want` rows, nearest first, that are not `disabled`, looking no
/// further than the `window` nearest rows. The selection starts with
/// `k = want` and widens to `window` only when a disabled row sits among the
/// `want` nearest — both are prefixes of the same `(distance, row)` order, so
/// the result is exactly "the first `want` enabled of the `window` nearest".
pub fn nearest_enabled(
    dist: &[f64],
    want: usize,
    window: usize,
    disabled: impl Fn(usize) -> bool,
    top: &mut Vec<(f64, usize)>,
) {
    let want = want.min(window);
    select_nearest(dist, want, top);
    if top.iter().any(|&(_, row)| disabled(row)) {
        select_nearest(dist, window, top);
        top.retain(|&(_, row)| !disabled(row));
        top.truncate(want);
    }
}

/// One block: [`BLOCK_ROWS`] rows of coordinates, allocated whole, and the
/// payloads of the rows filled so far.
#[derive(Debug)]
struct Block<T> {
    /// `coords[dim * BLOCK_ROWS + r]` is coordinate `dim` of the block's row
    /// `r`; rows past `rows.len()` are zero and never read as results.
    coords: Box<[f64]>,
    rows: Vec<T>,
}

/// The copy `Arc::make_mut` takes of a shared tail: room for the rows the
/// writer is about to append, so the copy is the append's only allocation.
impl<T: Clone> Clone for Block<T> {
    fn clone(&self) -> Self {
        let mut rows = Vec::with_capacity(BLOCK_ROWS);
        rows.extend_from_slice(&self.rows);
        Block {
            coords: self.coords.clone(),
            rows,
        }
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

    /// Cumulative `(blocks copied, rows copied)`: tail blocks copied on
    /// write because a published generation still shared them, and blocks
    /// rebuilt by [`CoordBlocks::retain_rows`] — the writer's cost of
    /// keeping published generations immutable, surfaced through `ScrStats`.
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

    /// The payloads of each block in turn; block `b` starts at row
    /// `b * BLOCK_ROWS`.
    pub(crate) fn block_rows(&self) -> impl Iterator<Item = &[T]> {
        self.blocks.iter().map(|b| b.rows.as_slice())
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
    /// to `visit` with the index of the block's first row. Rows are summed a
    /// tile at a time so that a tile's accumulators stay in registers (eight
    /// 2-lane registers on baseline x86-64) across the dimensions.
    fn for_each_block(&self, q: &[f64], mut visit: impl FnMut(usize, &[f64])) {
        const TILE: usize = 16;
        let mut dist = [0.0f64; BLOCK_ROWS];
        for (b, block) in self.blocks.iter().enumerate() {
            for (t, out) in dist.chunks_exact_mut(TILE).enumerate() {
                let mut acc = [0.0f64; TILE];
                for (col, &qd) in block.coords.chunks_exact(BLOCK_ROWS).zip(q) {
                    for (a, &c) in acc.iter_mut().zip(&col[t * TILE..(t + 1) * TILE]) {
                        *a += (c - qd).abs();
                    }
                }
                out.copy_from_slice(&acc);
            }
            let base = b * BLOCK_ROWS;
            visit(base, &dist[..(self.len - base).min(BLOCK_ROWS)]);
        }
    }

    /// One pass for both of `getPlan`'s steps. Writes every row's L1
    /// distance from `query` (mapped to log space into `q`) to `dist`, and
    /// returns the minimum `(distance, row)` among the rows within `radius`
    /// that `accept` — what walking the ball in ascending order and stopping
    /// at the first accepted row would find, without materialising or
    /// sorting the ball. `accept` is called only for rows that would become
    /// the new minimum.
    pub fn scan(
        &self,
        query: &[f64],
        radius: f64,
        q: &mut Vec<f64>,
        dist: &mut Vec<f64>,
        mut accept: impl FnMut(f64, usize) -> bool,
    ) -> Option<(f64, usize)> {
        q.clear();
        q.extend(query.iter().map(|&s| ln_clamped(s)));
        dist.clear();
        let mut best: Option<(f64, usize)> = None;
        if self.len > 0 {
            assert_eq!(q.len(), self.dims, "dimension mismatch");
        }
        self.for_each_block(q, |base, rows| {
            dist.extend_from_slice(rows);
            // Rows come in index order, so only a strictly smaller
            // distance displaces the best so far.
            let limit = best.map_or(radius, |b| b.0);
            if rows.iter().filter(|&&d| d <= limit).count() == 0 {
                return;
            }
            for (r, &d) in rows.iter().enumerate() {
                let closer = match best {
                    Some((b, _)) => d < b,
                    None => d <= radius,
                };
                if closer && accept(d, base + r) {
                    best = Some((d, base + r));
                }
            }
        });
        best
    }

    /// Every row within L1 distance `radius` of `query`, as
    /// `(distance, row)` ascending by `(distance, row)`.
    pub fn within(&self, query: &[f64], radius: f64) -> Vec<(f64, usize)> {
        let (mut q, mut dist) = (Vec::new(), Vec::new());
        self.scan(query, radius, &mut q, &mut dist, |_, _| false);
        let mut out: Vec<(f64, usize)> = dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d <= radius)
            .map(|(row, &d)| (d, row))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    /// The `k` rows nearest to `query`, as `(distance, row)` ascending by
    /// `(distance, row)`.
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<(f64, usize)> {
        let (mut q, mut dist, mut top) = (Vec::new(), Vec::new(), Vec::new());
        self.scan(query, f64::NEG_INFINITY, &mut q, &mut dist, |_, _| false);
        select_nearest(&dist, k, &mut top);
        top
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
            self.blocks.push(Arc::new(Block {
                coords: vec![0.0; self.dims * BLOCK_ROWS].into(),
                rows: Vec::with_capacity(BLOCK_ROWS),
            }));
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
        block.rows.push(payload);
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
        self.len = start;
        let mut dropped = Vec::new();
        for (b, from) in stale.iter().enumerate() {
            for (r, payload) in from.rows.iter().enumerate() {
                if keep(start + b * BLOCK_ROWS + r, payload) {
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
    pub fn get(&self, i: usize) -> Option<&'a T> {
        self.store
            .blocks
            .get(i / BLOCK_ROWS)?
            .rows
            .get(i % BLOCK_ROWS)
    }

    /// The rows in index order.
    pub fn iter(&self) -> RowsIter<'a, T> {
        RowsIter {
            blocks: self.store.blocks.iter(),
            rows: [].iter(),
        }
    }
}

impl<T> std::ops::Index<usize> for Rows<'_, T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.store.blocks[i / BLOCK_ROWS].rows[i % BLOCK_ROWS]
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
    blocks: std::slice::Iter<'a, Arc<Block<T>>>,
    rows: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for RowsIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(row) = self.rows.next() {
                return Some(row);
            }
            self.rows = self.blocks.next()?.rows.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn bounded_insert_is_a_stable_sort_then_truncate() {
        let keys = [3.0, 1.0, 2.0, 1.0, f64::NAN, 0.5, 2.0, -0.0, 0.0, 1.0];
        for k in 0..=keys.len() {
            let mut top = Vec::new();
            for (i, &key) in keys.iter().enumerate() {
                insert_bounded(&mut top, k, key, i);
            }
            let mut want: Vec<(f64, usize)> = keys.iter().copied().zip(0..).collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0));
            want.truncate(k);
            let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
                v.iter().map(|&(d, i)| (d.to_bits(), i)).collect()
            };
            assert_eq!(bits(&top), bits(&want), "k = {k}");
        }
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
        let mut origin: CoordBlocks<usize> = CoordBlocks::default();
        for i in 0..70 {
            origin.push_with(&[0.01 * (i + 1) as f64], i);
        }
        // Two forks of a shared tail each copy it; the origin sees neither.
        let (mut left, mut right) = (origin.clone(), origin.clone());
        left.push_with(&[0.9], 700);
        right.push_with(&[0.8], 800);
        assert_eq!((origin.len(), left.len(), right.len()), (70, 71, 71));
        assert_eq!(left.rows()[70], 700);
        assert_eq!(right.rows().get(70), Some(&800));
        assert_eq!(origin.rows().get(70), None);
        assert_eq!(left.block_tokens()[0], right.block_tokens()[0]);
        assert_ne!(left.block_tokens()[1], right.block_tokens()[1]);
        // Compaction hands the dropped payloads back in row order and keeps
        // payload and coordinates together.
        let dropped = left.retain_rows(|i, &p| p % 10 != 3 || i >= 65);
        assert_eq!(dropped, vec![3, 13, 23, 33, 43, 53, 63]);
        assert_eq!(left.len(), 64);
        let kept: Vec<usize> = left.rows().iter().copied().collect();
        assert_eq!(kept.len(), 64);
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(left.nearest(&[0.9], 1), vec![(0.0, 63)]);
        assert_eq!(left.rows()[63], 700);
        assert_eq!(right.rows().len(), 71, "the other fork is untouched");
    }
}
