//! Snapshot-publication latency: what one writer publish cycle (insert one
//! instance into the spatial index, then clone the index for the next
//! `CacheSnapshot` generation) costs on the unsharded arena index versus
//! the Arc-copy-on-write [`ShardedLogSelIndex`].
//!
//! The unsharded clone deep-copies every point — O(n) per publication; the
//! sharded clone bumps shard pointers and the following insert deep-copies
//! only the one shard still shared with the published generation —
//! O(n/shards) amortized. `spatial_publish/*` lines are the numbers quoted
//! in `results/spatial_shard.md`; the boxed-index reference has no
//! counterpart in `bench/`, whose `core.publish_ns` times the sharded path.
//!
//! Also measured here: the bounded-nearest push delta (real max-heap vs the
//! old sort-the-whole-`Vec`-per-push emulation) and read-path parity
//! between the two index layouts.

use std::collections::BinaryHeap;

use pqo_bench::microbench::Runner;
use pqo_core::spatial::{LogSelIndex, ShardedLogSelIndex};
use pqo_rand::rngs::StdRng;
use pqo_rand::{Rng, SeedableRng};

const DIMS: usize = 4;

fn random_svs(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..DIMS).map(|_| rng.gen_range(0.001..1.0)).collect())
        .collect()
}

/// Faithful replica of the pre-refactor index layout: one heap allocation
/// per tree node, recursive `Clone`. This is the "before" every
/// `spatial_publish` comparison in `results/spatial_shard.md` is against.
mod boxed_baseline {
    #[derive(Clone)]
    struct Node {
        coords: Vec<f64>,
        item: usize,
        left: Option<Box<Node>>,
        right: Option<Box<Node>>,
    }

    #[derive(Clone, Default)]
    pub struct BoxedIndex {
        root: Option<Box<Node>>,
        tree_len: usize,
        pending: Vec<(Vec<f64>, usize)>,
    }

    impl BoxedIndex {
        pub fn len(&self) -> usize {
            self.tree_len + self.pending.len()
        }

        // Same NaN-dropping clamp as the real index (`clamp` would keep NaN).
        #[allow(clippy::manual_clamp)]
        pub fn insert(&mut self, selectivities: &[f64], item: usize) {
            let coords: Vec<f64> = selectivities
                .iter()
                .map(|&s| s.max(f64::MIN_POSITIVE).min(f64::MAX).ln())
                .collect();
            self.pending.push((coords, item));
            if self.pending.len() > self.tree_len.max(16) {
                self.rebuild();
            }
        }

        fn rebuild(&mut self) {
            let mut pts = Vec::with_capacity(self.len());
            Self::drain(self.root.take(), &mut pts);
            pts.append(&mut self.pending);
            self.tree_len = pts.len();
            self.root = Self::build(pts, 0);
        }

        fn drain(node: Option<Box<Node>>, out: &mut Vec<(Vec<f64>, usize)>) {
            if let Some(n) = node {
                out.push((n.coords, n.item));
                Self::drain(n.left, out);
                Self::drain(n.right, out);
            }
        }

        fn build(mut pts: Vec<(Vec<f64>, usize)>, depth: usize) -> Option<Box<Node>> {
            if pts.is_empty() {
                return None;
            }
            let dims = pts[0].0.len().max(1);
            let axis = depth % dims;
            pts.sort_by(|a, b| a.0[axis].total_cmp(&b.0[axis]).then(a.1.cmp(&b.1)));
            let mid = pts.len() / 2;
            let right: Vec<_> = pts.split_off(mid + 1);
            let (coords, item) = pts.pop().expect("mid < len");
            Some(Box::new(Node {
                coords,
                item,
                left: Self::build(pts, depth + 1),
                right: Self::build(right, depth + 1),
            }))
        }
    }
}

fn main() {
    let runner = Runner::from_args();
    let mut rng = StdRng::seed_from_u64(0x5eed_b07b);
    let sizes: &[(usize, &str)] = &[(1_000, "1k"), (10_000, "10k"), (100_000, "100k")];

    for &(n, tag) in sizes {
        if runner.quick() && n > 10_000 {
            continue; // smoke pass: skip the slow setup, full `--bench` runs it
        }
        let pts = random_svs(&mut rng, n);
        let extra = random_svs(&mut rng, 1024);

        // Pre-refactor baseline: Box-per-node tree, recursive deep clone.
        let mut boxed_base = boxed_baseline::BoxedIndex::default();
        for (i, p) in pts.iter().enumerate() {
            boxed_base.insert(p, i);
        }
        {
            let mut idx = boxed_base.clone();
            let mut published = idx.clone();
            let mut i = 0usize;
            runner.bench_throughput(&format!("spatial_publish/boxed/{tag}"), 1, || {
                idx.insert(&extra[i % extra.len()], n + i);
                published = idx.clone();
                i += 1;
                if idx.len() > n + n / 10 {
                    idx = boxed_base.clone();
                    published = idx.clone();
                }
                published.len()
            });
        }

        // Unsharded oracle: every publication deep-copies the whole index.
        let mut base = LogSelIndex::new(DIMS);
        for (i, p) in pts.iter().enumerate() {
            base.insert(p, i);
        }
        {
            let mut idx = base.clone();
            let mut published = idx.clone();
            let mut i = 0usize;
            runner.bench_throughput(&format!("spatial_publish/unsharded/{tag}"), 1, || {
                idx.insert(&extra[i % extra.len()], n + i);
                published = idx.clone();
                i += 1;
                if idx.len() > n + n / 10 {
                    // Bound drift so the measured size stays ~n.
                    idx = base.clone();
                    published = idx.clone();
                }
                published.len()
            });
        }

        // Sharded: publish is shard-pointer bumps; the insert pays one
        // copy-on-write shard clone because `published` still shares it.
        let mut sharded_base = ShardedLogSelIndex::new(DIMS);
        for (i, p) in pts.iter().enumerate() {
            sharded_base.insert(p, i);
        }
        {
            let mut idx = sharded_base.clone();
            let mut published = idx.clone();
            let mut i = 0usize;
            runner.bench_throughput(&format!("spatial_publish/sharded/{tag}"), 1, || {
                idx.insert(&extra[i % extra.len()], n + i);
                published = idx.clone();
                i += 1;
                if idx.len() > n + n / 10 {
                    idx = sharded_base.clone();
                    published = idx.clone();
                }
                published.len()
            });
        }

        // Read-path cost of sharding: probing several small trees does
        // more frontier work than one big tree, so this is expected to be
        // slower at bulk sizes; service-level read throughput (the
        // `read_mostly` gate metric) is what must hold, since production
        // per-template indexes are orders of magnitude smaller than 10k.
        if n == 10_000 {
            let queries = random_svs(&mut rng, 256);
            let mut qi = 0usize;
            runner.bench_throughput(&format!("spatial_nearest8/unsharded/{tag}"), 1, || {
                qi += 1;
                base.nearest(&queries[qi % queries.len()], 8).len()
            });
            let mut qi = 0usize;
            runner.bench_throughput(&format!("spatial_nearest8/sharded/{tag}"), 1, || {
                qi += 1;
                sharded_base.nearest(&queries[qi % queries.len()], 8).len()
            });
        }
    }

    // Bounded-nearest push delta: real max-heap vs the old emulation that
    // re-sorted the whole candidate Vec on every push. All distances are
    // positive, so the bit pattern is order-preserving.
    let k = 8usize;
    let cands: Vec<(f64, usize)> = (0..10_000)
        .map(|i| (rng.gen_range(0.0f64..10.0), i))
        .collect();
    runner.bench_throughput("nearest_push/heap/k8", cands.len() as u64, || {
        let mut heap: BinaryHeap<(u64, usize)> = BinaryHeap::with_capacity(k + 1);
        for &(d, it) in &cands {
            let e = (d.to_bits(), it);
            if heap.len() < k {
                heap.push(e);
            } else if e < *heap.peek().expect("k > 0") {
                heap.pop();
                heap.push(e);
            }
        }
        heap.len()
    });
    runner.bench_throughput("nearest_push/sortvec/k8", cands.len() as u64, || {
        let mut v: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        for &(d, it) in &cands {
            v.push((d, it));
            v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
            v.truncate(k);
        }
        v.len()
    });
}
