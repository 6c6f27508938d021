//! The coordinate block store: "smaller G·L first" (paper Section 6.2) by
//! one scan over the instance list's ln-selectivities.
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
//! `64·d·8` bytes) only while a published generation still holds it.
//! `Clone` is one pointer bump per block.
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

/// Append-only store of the instance list's coordinates in log-selectivity
/// space: row `i` is instance-list entry `i`. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct CoordBlocks {
    dims: usize,
    len: usize,
    /// `blocks[b][dim * BLOCK_ROWS + r]` is coordinate `dim` of row
    /// `b * BLOCK_ROWS + r`; every block is allocated whole, rows past
    /// `len` are zero and never read as results.
    blocks: Vec<Arc<[f64]>>,
    blocks_copied: u64,
    rows_copied: u64,
}

impl CoordBlocks {
    /// Empty store; the first row fixes the dimensionality.
    pub fn new() -> Self {
        CoordBlocks::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative `(blocks copied, rows copied)`: tail blocks copied on
    /// write because a published generation still shared them, and blocks
    /// rebuilt by [`CoordBlocks::retain`] — the writer's cost of keeping
    /// published generations immutable, surfaced through `ScrStats`.
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
            .map(|b| Arc::as_ptr(b) as *const f64 as usize)
            .collect()
    }

    /// Append a row at the given selectivities; its index is the previous
    /// [`CoordBlocks::len`].
    ///
    /// # Panics
    /// Panics if the arity differs from the rows already stored.
    pub fn push(&mut self, selectivities: &[f64]) {
        if self.len == 0 {
            self.dims = selectivities.len();
        }
        assert_eq!(selectivities.len(), self.dims, "dimension mismatch");
        self.push_row(|dim| ln_clamped(selectivities[dim]));
    }

    fn push_row(&mut self, coord: impl Fn(usize) -> f64) {
        let r = self.len % BLOCK_ROWS;
        if r == 0 {
            self.blocks.push(vec![0.0; self.dims * BLOCK_ROWS].into());
        }
        let tail = self.blocks.last_mut().expect("a tail block exists");
        if Arc::get_mut(tail).is_none() {
            self.blocks_copied += 1;
            self.rows_copied += r as u64;
        }
        let block = Arc::make_mut(tail);
        for dim in 0..self.dims {
            block[dim * BLOCK_ROWS + r] = coord(dim);
        }
        self.len += 1;
    }

    /// Drop every row `i` with `!keep(i)` and close the gaps (the instance
    /// list compacts the same way when a plan is dropped). Blocks before
    /// the first dropped row keep their storage; the rest are rebuilt from
    /// the kept rows. Dropping nothing touches nothing.
    pub fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        let Some(first) = (0..self.len).find(|&i| !keep(i)) else {
            return;
        };
        let clean = first / BLOCK_ROWS;
        let stale = self.blocks.split_off(clean);
        let (start, end) = (clean * BLOCK_ROWS, self.len);
        self.len = start;
        for i in (start..end).filter(|&i| keep(i)) {
            let from = &stale[(i - start) / BLOCK_ROWS];
            self.push_row(|dim| from[dim * BLOCK_ROWS + i % BLOCK_ROWS]);
        }
        self.blocks_copied += (self.blocks.len() - clean) as u64;
        self.rows_copied += (self.len - start) as u64;
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
                for (col, &qd) in block.chunks_exact(BLOCK_ROWS).zip(q) {
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
}
