//! Candidate-search oracle equivalence: everything the coordinate block
//! store answers — `within`, `nearest`, the fused scan behind `getPlan`'s
//! selectivity check, the violation-aware candidate stream — must equal a
//! brute-force linear scan that sorts every row, values *and* tie order,
//! bit for bit: across block boundaries, dimensionalities, duplicated
//! points, compaction, and selectivities no histogram should produce. SCR's
//! decisions (and the `lec` / `penalty` neighbourhoods) consume only these
//! answers, so bitwise identity here is what keeps the decision stream a
//! function of the stored instances and nothing else.
//!
//! The candidate stream hands rows out on demand; the eager formulation it
//! replaced — a bounded, sort-maintaining top-k over all the keys — is kept
//! here as [`eager`], a second oracle beside the brute-force one.

use std::sync::Arc;

use pqo::core::cache::{InstanceEntry, PlanCache};
use pqo::core::spatial::{CoordBlocks, KeyStream};
use pqo::optimizer::plan::{Plan, PlanOp};
use pqo::optimizer::svector::SVector;
use pqo_rand::rngs::StdRng;
use pqo_rand::{Rng, SeedableRng};

/// The linear-scan oracle: its own clamp-and-`ln`, a scalar L1 fold per
/// row, everything sorted by `(distance, item)`.
struct BruteOracle {
    points: Vec<Vec<f64>>,
}

// Not `clamp`: that keeps a NaN, `max` then `min` drop it.
#[allow(clippy::manual_clamp)]
fn to_log(selectivities: &[f64]) -> Vec<f64> {
    selectivities
        .iter()
        .map(|&s| s.max(f64::MIN_POSITIVE).min(f64::MAX).ln())
        .collect()
}

fn l1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

impl BruteOracle {
    fn new() -> Self {
        BruteOracle { points: Vec::new() }
    }

    fn insert(&mut self, selectivities: &[f64]) {
        self.points.push(to_log(selectivities));
    }

    fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        let mut i = 0;
        self.points.retain(|_| {
            i += 1;
            keep(i - 1)
        });
    }

    fn ranked(&self, query: &[f64]) -> Vec<(f64, usize)> {
        let q = to_log(query);
        let mut d: Vec<(f64, usize)> = self
            .points
            .iter()
            .enumerate()
            .map(|(item, c)| (l1(c, &q), item))
            .collect();
        d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        d
    }

    fn within(&self, query: &[f64], radius: f64) -> Vec<(f64, usize)> {
        self.ranked(query)
            .into_iter()
            .filter(|&(d, _)| d <= radius)
            .collect()
    }

    fn nearest(&self, query: &[f64], k: usize) -> Vec<(f64, usize)> {
        let mut r = self.ranked(query);
        r.truncate(k);
        r
    }

    /// What walking the ball in ascending order finds first.
    fn first_accepted(
        &self,
        query: &[f64],
        radius: f64,
        accept: impl Fn(usize) -> bool,
    ) -> Option<(f64, usize)> {
        self.within(query, radius)
            .into_iter()
            .find(|&(_, item)| accept(item))
    }

    /// "The first `want` enabled of the `window` nearest."
    fn nearest_enabled(
        &self,
        query: &[f64],
        want: usize,
        window: usize,
        disabled: impl Fn(usize) -> bool,
    ) -> Vec<(f64, usize)> {
        self.nearest(query, window)
            .into_iter()
            .filter(|&(_, item)| !disabled(item))
            .take(want)
            .collect()
    }
}

/// Bit-exact view of a result stream: distances compared by bit pattern,
/// not approximate equality.
fn bits(v: &[(f64, usize)]) -> Vec<(u64, usize)> {
    v.iter().map(|&(d, i)| (d.to_bits(), i)).collect()
}

/// The candidate list as `pqo-core::spatial` built it before the stream:
/// the whole top-k selected and kept sorted before the first candidate is
/// looked at.
mod eager {
    /// Insert `(key, item)` into `top` — ascending by key, at most `k` long
    /// — *after* every entry whose key is not greater, dropping the last
    /// entry when that makes `k + 1`: a stable sort by key, then
    /// `truncate(k)`.
    pub fn insert_bounded(top: &mut Vec<(f64, usize)>, k: usize, key: f64, item: usize) {
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

    /// The `k` smallest of `dist` as `(distance, row)`, ascending.
    fn select_nearest(dist: &[f64], k: usize, top: &mut Vec<(f64, usize)>) {
        top.clear();
        if k == 0 {
            return;
        }
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

    /// The first `want` rows, nearest first, that are not `disabled`,
    /// looking no further than the `window` nearest: `k = want`, widened to
    /// `window` only when a disabled row sits among the `want` nearest.
    pub fn nearest_enabled(
        dist: &[f64],
        want: usize,
        window: usize,
        disabled: impl Fn(usize) -> bool,
    ) -> Vec<(f64, usize)> {
        let mut top = Vec::new();
        let want = want.min(window);
        select_nearest(dist, want, &mut top);
        if top.iter().any(|&(_, row)| disabled(row)) {
            select_nearest(dist, window, &mut top);
            top.retain(|&(_, row)| !disabled(row));
            top.truncate(want);
        }
        top
    }
}

/// What an opened stream hands out, to the end.
fn drain(stream: &mut KeyStream, disabled: impl Fn(usize) -> bool) -> Vec<(f64, usize)> {
    std::iter::from_fn(|| stream.next(&disabled)).collect()
}

/// The stream over `keys` against both oracles at one `(want, window,
/// disabled)`.
fn assert_stream_matches(
    stream: &mut KeyStream,
    want: usize,
    window: usize,
    disabled: impl Fn(usize) -> bool,
    expect: &[(f64, usize)],
    at: &str,
) {
    let dist = stream.keys().to_vec();
    stream.open(want, window);
    let got = drain(stream, &disabled);
    assert_eq!(bits(&got), bits(expect), "candidate stream diverged ({at})");
    assert_eq!(
        bits(&got),
        bits(&eager::nearest_enabled(&dist, want, window, &disabled)),
        "stream and eager list diverged ({at})"
    );
}

/// Every answer of `store` at `query` against the oracle's, whatever the
/// rows carry beside their coordinates.
fn assert_same_answers<T>(
    store: &CoordBlocks<T>,
    oracle: &BruteOracle,
    query: &[f64],
    k: usize,
    radius: f64,
    at: &str,
) {
    assert_eq!(store.len(), oracle.points.len(), "{at}");
    assert_eq!(
        bits(&store.nearest(query, k)),
        bits(&oracle.nearest(query, k)),
        "nearest({k}) diverged ({at})"
    );
    assert_eq!(
        bits(&store.within(query, radius)),
        bits(&oracle.within(query, radius)),
        "within({radius}) diverged ({at})"
    );
    // The fused scan: one distance per row in row order, and the first
    // accepted row of the ball without sorting it.
    let accept = |item: usize| item % 3 != 1;
    let (mut q, mut stream) = (Vec::new(), KeyStream::new());
    let hit = store.scan(query, radius, &mut q, &mut stream, |_, item| accept(item));
    let mut by_row = oracle.ranked(query);
    by_row.sort_by_key(|&(_, item)| item);
    let scanned: Vec<(f64, usize)> = stream.keys().iter().copied().zip(0..).collect();
    assert_eq!(bits(&scanned), bits(&by_row), "distances diverged ({at})");
    let want = oracle.first_accepted(query, radius, accept);
    assert_eq!(
        bits(hit.as_slice()),
        bits(want.as_slice()),
        "selectivity-check hit diverged ({at})"
    );
    // The cost check's candidates over the same distances.
    let disabled = |item: usize| item % 4 == 2;
    let window = k.saturating_mul(4).max(16);
    let expect = oracle.nearest_enabled(query, k, window, disabled);
    assert_stream_matches(&mut stream, k, window, disabled, &expect, at);
}

/// Clustered selectivities, so ties and near-ties get exercised.
fn clustered(rng: &mut StdRng, dims: usize) -> Vec<f64> {
    (0..dims)
        .map(|_| {
            let cluster = [0.01, 0.05, 0.2, 0.7][rng.gen_range(0..4usize)];
            cluster * (1.0 + rng.gen_range(0.0..0.5))
        })
        .collect()
}

#[test]
fn store_matches_linear_oracle_bitwise_through_appends_and_compactions() {
    let mut rng = StdRng::seed_from_u64(0x5eed_02ac ^ 0x7e57);
    for round in 0..48 {
        let dims = rng.gen_range(1..6usize);
        let mut oracle = BruteOracle::new();
        let mut store = CoordBlocks::new();
        let ops = rng.gen_range(40..420usize);
        for _ in 0..ops {
            let n = store.len();
            // Mostly appends, occasionally a compaction.
            if n > 4 && rng.gen_range(0..16u32) == 0 {
                // Drop a run of rows plus a scattering, the way dropping a
                // plan drops its instance entries.
                let cut_lo = rng.gen_range(0..n);
                let cut_hi = rng.gen_range(cut_lo..n.min(cut_lo + 9));
                let stride = rng.gen_range(5..40usize);
                let keep = move |i: usize| (i < cut_lo || i > cut_hi) && i % stride != 3;
                oracle.retain(keep);
                store.retain(keep);
            } else {
                let sv = clustered(&mut rng, dims);
                oracle.insert(&sv);
                store.push(&sv);
            }
        }
        for probe in 0..12 {
            let q: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.001..1.0)).collect();
            let k = rng.gen_range(1..12usize);
            let radius = rng.gen_range(0.0..5.0);
            let at = format!("round {round}, probe {probe}");
            assert_same_answers(&store, &oracle, &q, k, radius, &at);
        }
    }
}

#[test]
fn block_boundaries_and_dimensionalities_match_linear_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5eed_b10c);
    for dims in [1usize, 2, 10] {
        for n in [0usize, 1, 63, 64, 65, 128, 129, 1000] {
            let mut oracle = BruteOracle::new();
            let mut store = CoordBlocks::new();
            let mut points: Vec<Vec<f64>> = Vec::new();
            for i in 0..n {
                // Every third point duplicates an earlier one.
                let sv = if i % 3 == 2 {
                    points[rng.gen_range(0..i)].clone()
                } else {
                    clustered(&mut rng, dims)
                };
                oracle.insert(&sv);
                store.push(&sv);
                points.push(sv);
            }
            for probe in 0..6 {
                // Half the probes sit exactly on a stored point.
                let q = if probe % 2 == 0 && n > 0 {
                    points[rng.gen_range(0..n)].clone()
                } else {
                    (0..dims).map(|_| rng.gen_range(0.001..1.0)).collect()
                };
                for k in [1usize, 8, 32, n + 5] {
                    let radius = [0.0, 0.7, 3.0, 50.0][probe % 4];
                    let at = format!("d {dims}, n {n}, probe {probe}");
                    assert_same_answers(&store, &oracle, &q, k, radius, &at);
                }
            }
        }
    }
}

#[test]
fn duplicate_coordinates_keep_canonical_tie_order() {
    // Many points at identical coordinates: output order must be the
    // item-ascending canonical order, across block boundaries.
    let sv = [0.25, 0.25, 0.25];
    let mut oracle = BruteOracle::new();
    let mut store = CoordBlocks::new();
    for _ in 0..150 {
        oracle.insert(&sv);
        store.push(&sv);
    }
    let q = [0.3, 0.2, 0.25];
    for k in [10, 64, 100] {
        assert_same_answers(&store, &oracle, &q, k, 10.0, "all duplicates");
    }
    assert_eq!(
        store
            .nearest(&q, 70)
            .iter()
            .map(|e| e.1)
            .collect::<Vec<_>>(),
        (0..70).collect::<Vec<_>>()
    );
}

#[test]
fn cost_check_list_is_the_first_8_unmarked_of_the_32_nearest() {
    let mut rng = StdRng::seed_from_u64(0x5eed_a9f6);
    let dims = 4;
    let mut oracle = BruteOracle::new();
    let mut store = CoordBlocks::new();
    for _ in 0..300 {
        let sv = clustered(&mut rng, dims);
        oracle.insert(&sv);
        store.push(&sv);
    }
    for probe in 0..16 {
        let q: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.001..1.0)).collect();
        let nearest32: Vec<usize> = oracle.nearest(&q, 32).iter().map(|e| e.1).collect();
        for marked in [0usize, 3, 24, 32] {
            // Mark the nearest `marked` neighbours, then the same number
            // spread over the 32 nearest.
            let front: Vec<usize> = nearest32[..marked].to_vec();
            let spread: Vec<usize> = (0..marked).map(|i| nearest32[i * 32 / marked]).collect();
            for marks in [front, spread] {
                let disabled = |item: usize| marks.contains(&item);
                let (mut qb, mut stream) = (Vec::new(), KeyStream::new());
                store.scan(&q, f64::NEG_INFINITY, &mut qb, &mut stream, |_, _| false);
                let want = oracle.nearest_enabled(&q, 8, 32, disabled);
                let at = format!("probe {probe}, {marked} marked");
                assert_stream_matches(&mut stream, 8, 32, disabled, &want, &at);
                assert_eq!(want.len(), 8.min(32 - marks.len()));
            }
        }
    }
}

#[test]
fn pathological_selectivities_never_panic() {
    // NaN/∞/0/denormal/negative selectivities degrade (clamped
    // coordinates) but must not panic any query or compaction, and must
    // still match the oracle, which clamps alike.
    let weird = [
        [f64::NAN, 0.5],
        [f64::INFINITY, 1e-300],
        [0.0, f64::NAN],
        [-1.0, f64::INFINITY],
        [5e-324, f64::MIN_POSITIVE],
        [-0.0, f64::NEG_INFINITY],
        [1.0, 1e-310],
    ];
    let mut oracle = BruteOracle::new();
    let mut store = CoordBlocks::new();
    for _ in 0..20 {
        for p in &weird {
            oracle.insert(p);
            store.push(p);
        }
    }
    for q in &weird {
        for radius in [0.0, 5.0, f64::INFINITY, f64::NAN] {
            assert_same_answers(&store, &oracle, q, 7, radius, "weird");
        }
    }
    oracle.retain(|i| i % 5 != 0);
    store.retain(|i| i % 5 != 0);
    assert_same_answers(
        &store,
        &oracle,
        &[f64::NAN, f64::INFINITY],
        40,
        1e9,
        "weird",
    );
}

#[test]
fn plan_cache_rows_follow_interleaved_plan_drops() {
    // Through the owner: `PlanCache` compacts its coordinate rows with its
    // instance list whenever a plan's entries leave, and every query then
    // speaks in compacted instance indices.
    let mut rng = StdRng::seed_from_u64(0x5eed_d209);
    let plans: Vec<Arc<Plan>> = (0..5)
        .map(|r| Arc::new(Plan::from_postorder(vec![PlanOp::SeqScan { relation: r }]).unwrap()))
        .collect();
    let mut cache = PlanCache::new();
    for p in &plans {
        cache.insert_plan(Arc::clone(p));
    }
    let push = |cache: &mut PlanCache, rng: &mut StdRng, n: usize| {
        for _ in 0..n {
            let fp = plans[rng.gen_range(0..plans.len())].fingerprint();
            if cache.contains_plan(fp) {
                let sv = SVector(clustered(rng, 3));
                cache.push_instance(InstanceEntry::new(sv, fp, 10.0, 1.0, 1));
            }
        }
    };
    push(&mut cache, &mut rng, 300);
    for (round, victim) in [3usize, 0, 4].into_iter().enumerate() {
        if round == 1 {
            // Appendix F's probe: take a plan's entries out and put them
            // back at the end.
            for e in cache.take_instances_of(plans[1].fingerprint()) {
                cache.push_instance_arc(e);
            }
        } else {
            cache.drop_plan(plans[victim].fingerprint());
        }
        push(&mut cache, &mut rng, 70);
        let mut oracle = BruteOracle::new();
        for e in cache.instances() {
            oracle.insert(&e.svector.0);
        }
        for probe in 0..8 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(0.001..1.0)).collect();
            let at = format!("round {round}, probe {probe}");
            assert_same_answers(cache.coords(), &oracle, &q, 9, 1.5, &at);
        }
    }
}

/// Keys a product-form search can produce on hostile selectivities, and the
/// values most likely to be confused with one another or with "no key".
const AWKWARD_KEYS: [f64; 10] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    1.0,
    -1.0,
];

#[test]
fn stream_is_a_stable_sort_by_key_at_every_tile_boundary() {
    let mut rng = StdRng::seed_from_u64(0x5eed_711e);
    let negative_nan = f64::from_bits(f64::NAN.to_bits() | 1 << 63);
    for n in [0usize, 1, 15, 16, 17, 63, 64, 65, 1000] {
        for round in 0..6 {
            // A few distinct values, so most keys are duplicated — within a
            // tile, across tiles and across blocks — then awkward ones.
            let pool: Vec<f64> = (0..rng.gen_range(1..8usize))
                .map(|_| rng.gen_range(-2.0..2.0))
                .collect();
            let keys: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..10u32) {
                    0..=5 => pool[rng.gen_range(0..pool.len())],
                    6 | 7 => AWKWARD_KEYS[rng.gen_range(0..AWKWARD_KEYS.len())],
                    8 => negative_nan,
                    _ => rng.gen_range(-2.0..2.0),
                })
                .collect();
            let mut sorted: Vec<(f64, usize)> = keys.iter().copied().zip(0..).collect();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut stream = KeyStream::new();
            let fill = |stream: &mut KeyStream| {
                stream.clear();
                keys.iter().for_each(|&k| stream.push(k));
            };
            let at = format!("n {n}, round {round}");
            // Everything, in order.
            fill(&mut stream);
            stream.open(usize::MAX, usize::MAX);
            assert_eq!(bits(&drain(&mut stream, |_| false)), bits(&sorted), "{at}");
            assert_eq!(stream.next(|_| false), None, "a drained stream stays empty");
            // Cut by `want` and by `window`, including `want = 0` and
            // `window < want`, with rows disabled; the product form (no
            // window) against the bounded insertion it replaced.
            let disabled = |row: usize| row % 5 == round % 5;
            for (want, window) in [(0, 32), (8, 0), (8, 3), (8, 32), (n, n), (3, usize::MAX)] {
                fill(&mut stream);
                stream.open(want, window);
                let expect: Vec<(f64, usize)> = sorted
                    .iter()
                    .take(window)
                    .filter(|e| !disabled(e.1))
                    .take(want)
                    .copied()
                    .collect();
                let got = drain(&mut stream, disabled);
                assert_eq!(
                    bits(&got),
                    bits(&expect),
                    "{at}, want {want}, window {window}"
                );
                if window == usize::MAX {
                    let mut top = Vec::new();
                    for (row, &key) in keys.iter().enumerate() {
                        if !disabled(row) {
                            eager::insert_bounded(&mut top, want, key, row);
                        }
                    }
                    assert_eq!(bits(&got), bits(&top), "{at}: stream and bounded insertion");
                }
            }
        }
    }
}

#[test]
fn a_mark_set_while_pulling_only_concerns_rows_already_pulled() {
    // The cost check marks the candidate it has just pulled. Whatever it
    // marks, the rows it is handed are those of the list as it stood when
    // the search ran, minus the rows marked before.
    let mut rng = StdRng::seed_from_u64(0x5eed_3a2c);
    let keys: Vec<f64> = (0..200).map(|_| rng.gen_range(0.0..4.0)).collect();
    let marked_before = |row: usize| row % 7 == 1;
    let expect = eager::nearest_enabled(&keys, 8, 32, marked_before);
    let marks = std::cell::RefCell::new(Vec::new());
    let mut stream = KeyStream::new();
    keys.iter().for_each(|&k| stream.push(k));
    stream.open(8, 32);
    let mut got = Vec::new();
    while let Some(c) = stream.next(|row| marked_before(row) || marks.borrow().contains(&row)) {
        marks.borrow_mut().push(c.1);
        got.push(c);
    }
    assert_eq!(bits(&got), bits(&expect));
}

/// `SVector::g_and_l` as it was written before it lost its branches.
fn g_and_l_branchy(qc: &[f64], qe: &[f64]) -> (f64, f64) {
    let (mut g, mut l) = (1.0, 1.0);
    for (c, e) in qc.iter().zip(qe) {
        let alpha = c / e;
        if alpha > 1.0 {
            g *= alpha;
        } else if alpha < 1.0 {
            l /= alpha;
        }
    }
    (g, l)
}

#[test]
fn branch_free_g_and_l_equals_the_branchy_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x5eed_9a11);
    let check = |qc: Vec<f64>, qe: Vec<f64>| {
        let (g, l) = SVector(qc.clone()).g_and_l(&SVector(qe.clone()));
        let (rg, rl) = g_and_l_branchy(&qc, &qe);
        assert_eq!(
            (g.to_bits(), l.to_bits()),
            (rg.to_bits(), rl.to_bits()),
            "qc {qc:?}, qe {qe:?}"
        );
    };
    for _ in 0..4000 {
        let dims = rng.gen_range(1..11usize);
        let qe: Vec<f64> = (0..dims).map(|_| rng.gen_range(1e-6..1.0)).collect();
        // A third of the dimensions repeat the stored selectivity: α = 1.
        let qc: Vec<f64> = qe
            .iter()
            .map(|&e| match rng.gen_range(0..3u32) {
                0 => e,
                _ => rng.gen_range(1e-6..1.0),
            })
            .collect();
        check(qc, qe);
    }
    // α ∈ {1, NaN, ∞, 0, subnormal, …} in every position of a 3-vector,
    // between ordinary dimensions on either side of 1.
    let alphas = [
        1.0,
        f64::NAN,
        f64::INFINITY,
        0.0,
        5e-324,
        f64::MIN_POSITIVE / 4.0,
        -0.0,
        -3.0,
        f64::NEG_INFINITY,
        f64::MAX,
    ];
    for &a in &alphas {
        for &b in &alphas {
            for pos in 0..3 {
                let mut qc = vec![0.3, 0.02, 0.9];
                let mut qe = vec![0.1, 0.5, 0.9];
                // αi = qc/qe: put the value in qc over a qe of 1, and the
                // second as a quotient that has to be formed.
                (qc[pos], qe[pos]) = (a, 1.0);
                (qc[(pos + 1) % 3], qe[(pos + 1) % 3]) = (b * 0.5, 0.5);
                check(qc, qe);
            }
        }
    }
}
