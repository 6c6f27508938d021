//! What a publication costs and what it shares.
//!
//! `manageCache` + publish is O(blocks + what changed): the plan list is one
//! `Arc` replaced only when membership changes, the instance list one `Arc`
//! per 64-row block of which at most the tail is copied. Counted with an
//! allocator that tallies per thread (in a test binary of its own, so no
//! other test shares it), and checked through the sharing hooks: what the
//! writer allocates for a publication does not grow with the instance list,
//! consecutive generations share every full block and — unless a plan came
//! or went — the plan list, entries keep one identity however old the
//! generation they are reached through, forked caches diverge by
//! copy-on-write, and a replica that extends its base arrives at the bytes a
//! replica that rebuilds arrives at.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pqo::core::cache::{InstanceEntry, PlanCache};
use pqo::core::engine::QueryEngine;
use pqo::core::replication::{apply_generation, encode_generation, ReplicationError};
use pqo::core::scr::{Scr, ScrConfig};
use pqo::core::spatial::{KeyStream, BLOCK_ROWS};
use pqo::core::{persist, CacheSnapshot, CacheWriter, SnapshotCell};
use pqo::optimizer::svector::SVector;
use pqo::workload::corpus::{corpus, TemplateSpec};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count(size: usize) {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    }
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an update of two
// const-initialised thread-local `Cell`s, which have no destructor, never
// allocate and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: as `dealloc`, and the caller's obligations are
        // `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocated() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

fn template() -> &'static TemplateSpec {
    corpus()
        .iter()
        .find(|s| s.id == "tpch_skew_U_d4")
        .expect("corpus template")
}

/// A writer over a fresh cache, its publication cell, and the engine.
fn writer(config: ScrConfig) -> (CacheWriter, SnapshotCell, QueryEngine) {
    let (writer, first) = CacheWriter::new(Scr::with_config(config).unwrap());
    let engine = QueryEngine::new(Arc::clone(&template().template));
    (writer, SnapshotCell::new(first), engine)
}

/// The template's seeded stream as selectivity vectors.
fn svectors(engine: &QueryEngine, n: usize, seed: u64) -> Vec<SVector> {
    let instances = template().generate(n, seed);
    instances
        .iter()
        .map(|q| engine.compute_svector(q))
        .collect()
}

/// Optimize and commit `sv`, hit or not: a commit always stores an instance
/// and publishes a generation.
fn commit(writer: &mut CacheWriter, cell: &SnapshotCell, engine: &QueryEngine, sv: &SVector) {
    let opt = engine.optimize(sv);
    writer.manage_cache_entry(sv, opt, engine, cell);
}

#[test]
fn a_publication_allocates_the_same_at_100_and_at_2000_instances() {
    let (mut writer, cell, engine) = writer(ScrConfig::new(1.2).unwrap());
    let d = template().template.dimensions();
    // The new entry and its vector, the copy of the tail block (coordinates,
    // entry pointers), the snapshot and its block-pointer list — and no
    // more of them, nor bytes beyond a tail block and a few hundred
    // pointers, however long the list is.
    const MAX_ALLOCATIONS: u64 = 10;
    let max_bytes = (BLOCK_ROWS * d * 8 + BLOCK_ROWS * 8 + 2048) as u64;
    let mut measured = [0usize; 2];
    for sv in svectors(&engine, 2100, 1) {
        let stored = writer.scr().cache().num_instances();
        let window = match stored {
            100..=179 => Some(0),
            2000..=2079 => Some(1),
            _ => None,
        };
        let opt = engine.optimize(&sv);
        let plans = writer.scr().cache().num_plans();
        let before = allocated();
        writer.manage_cache_entry(&sv, opt, &engine, &cell);
        let (allocations, bytes) = allocated();
        let (allocations, bytes) = (allocations - before.0, bytes - before.1);
        // A miss that adds a plan also pays for the plan: its prepared form
        // and a new plan list.
        let Some(window) = window.filter(|_| writer.scr().cache().num_plans() == plans) else {
            continue;
        };
        measured[window] += 1;
        assert!(
            allocations <= MAX_ALLOCATIONS && bytes <= max_bytes,
            "publishing onto {stored} instances took {allocations} allocations, {bytes} bytes \
             (bounds: {MAX_ALLOCATIONS}, {max_bytes})"
        );
    }
    // Each window spans a whole block, so both met the append that opens a
    // fresh block as well as the ones that copy a shared tail.
    assert!(
        measured[0] > 64 && measured[1] > 64,
        "both sizes measured: {measured:?}"
    );
}

#[test]
fn consecutive_generations_share_the_plan_list_and_every_full_block() {
    let (mut writer, cell, engine) = writer(ScrConfig::new(1.2).unwrap());
    let mut generations = vec![cell.load()];
    for sv in svectors(&engine, 4 * BLOCK_ROWS + 9, 2) {
        commit(&mut writer, &cell, &engine, &sv);
        generations.push(cell.load());
    }
    let (mut kept_plans, mut new_plans) = (0, 0);
    for pair in generations.windows(2) {
        let (a, b) = (pair[0].cache(), pair[1].cache());
        assert_eq!(b.num_instances(), a.num_instances() + 1);
        // The plan list is replaced only when membership changed.
        if a.num_plans() == b.num_plans() {
            kept_plans += 1;
            assert!(
                a.shares_plan_list(b),
                "generation {} copied an unchanged plan list",
                pair[1].generation()
            );
        } else {
            new_plans += 1;
            assert!(!a.shares_plan_list(b));
        }
        // Every block the older generation holds in full is one allocation
        // in both — coordinates and entry pointers alike — and every entry
        // it holds at all is the same entry in the newer one.
        let full = a.num_instances() / BLOCK_ROWS;
        assert_eq!(
            a.coords().block_tokens()[..full],
            b.coords().block_tokens()[..full],
            "generation {} copied a full block",
            pair[1].generation()
        );
        for (x, y) in a.instances().iter().zip(b.instances()) {
            assert!(Arc::ptr_eq(x, y), "an entry was copied, not shared");
        }
    }
    assert!(
        kept_plans > 100 && new_plans > 1,
        "{kept_plans} / {new_plans}"
    );
    // Hundreds of publications apart, the first full block is still shared.
    let (early, last) = (&generations[BLOCK_ROWS + 1], generations.last().unwrap());
    assert_eq!(
        early.cache().coords().block_tokens()[0],
        last.cache().coords().block_tokens()[0]
    );
}

#[test]
fn appending_to_a_published_tail_leaves_every_earlier_entry_s_refcount_alone() {
    let (mut writer, cell, engine) = writer(ScrConfig::new(1.2).unwrap());
    let stream = svectors(&engine, 2 * BLOCK_ROWS + 30, 6);
    let (warm, later) = stream.split_at(BLOCK_ROWS + 10);
    // Every generation is held, so none leaves the log and lets go of
    // what it shares while the counts are read.
    let mut generations = Vec::new();
    for sv in warm {
        commit(&mut writer, &cell, &engine, sv);
        generations.push(cell.load());
    }
    let counts = |writer: &CacheWriter| -> Vec<usize> {
        let entries = writer.scr().cache().instances();
        entries.iter().map(Arc::strong_count).collect()
    };
    let mut tail_appends = 0;
    for sv in later {
        let before = counts(&writer);
        tail_appends += usize::from(before.len() % BLOCK_ROWS != 0);
        // The writer's tail block is the published generation's: the append
        // copies its coordinates, and no entry pointer.
        commit(&mut writer, &cell, &engine, sv);
        generations.push(cell.load());
        let after = counts(&writer);
        assert_eq!(
            after[..before.len()],
            before[..],
            "appending entry {} changed the refcount of an earlier one",
            before.len()
        );
    }
    assert!(
        tail_appends > BLOCK_ROWS,
        "{tail_appends} appends to a tail"
    );
}

#[test]
fn a_usage_bump_through_an_old_generation_reaches_a_row_that_was_in_its_tail() {
    let (mut writer, cell, engine) = writer(ScrConfig::new(1.2).unwrap());
    let stream = svectors(&engine, BLOCK_ROWS + 40, 3);
    let (warm, later) = stream.split_at(BLOCK_ROWS + 20);
    for sv in warm {
        commit(&mut writer, &cell, &engine, sv);
    }
    // The last row sits in the old generation's tail block, which the
    // writer copies at its next append and fills over the following
    // publications.
    let old = cell.load();
    let row = old.cache().num_instances() - 1;
    assert_ne!(old.cache().num_instances() % BLOCK_ROWS, 0);
    for sv in later {
        commit(&mut writer, &cell, &engine, sv);
    }
    assert_eq!(cell.load().generation(), old.generation() + 20);
    assert_ne!(
        old.cache().coords().block_tokens()[row / BLOCK_ROWS],
        writer.scr().cache().coords().block_tokens()[row / BLOCK_ROWS],
        "the tail block was copied on write"
    );
    // One entry in both: usage and an Appendix G mark set through the old
    // generation are the writer's, and every later generation's.
    let through_old = &old.cache().instances()[row];
    assert!(Arc::ptr_eq(
        through_old,
        &writer.scr().cache().instances()[row]
    ));
    let before = writer.scr().cache().instances()[row].usage();
    through_old.record_use();
    assert_eq!(writer.scr().cache().instances()[row].usage(), before + 1);
    through_old.mark_violation();
    assert!(writer.scr().cache().instances()[row].violation_detected());
    assert!(cell.load().cache().instances()[row].violation_detected());
}

#[test]
fn two_clones_appended_to_independently_stay_correct() {
    let (mut writer, cell, engine) = writer(ScrConfig::new(1.2).unwrap());
    let stream = svectors(&engine, 150 + 2 * 30, 4);
    for sv in &stream[..150] {
        commit(&mut writer, &cell, &engine, sv);
    }
    let shared = writer.scr().cache();
    let fp = shared.instances()[0].plan;
    let entry = |sv: &SVector| InstanceEntry::new(sv.clone(), fp, 10.0, 1.0, 1);
    // Both forks start inside the same shared tail block.
    let (mut left, mut right) = (shared.clone(), shared.clone());
    for (l, r) in stream[150..180].iter().zip(&stream[180..]) {
        left.push_instance(entry(l));
        right.push_instance(entry(r));
    }
    assert_eq!(shared.num_instances(), 150, "the origin is untouched");
    for (fork, appended) in [(&left, &stream[150..180]), (&right, &stream[180..])] {
        fork.check_invariants().unwrap();
        assert_eq!(fork.num_instances(), 180);
        assert_eq!(
            fork.coords().block_tokens()[..2],
            shared.coords().block_tokens()[..2],
            "full blocks stay shared"
        );
        // A store rebuilt from the fork's own list answers every scan alike.
        let mut rebuilt = PlanCache::new();
        for p in fork.plans() {
            rebuilt.insert_plan(Arc::clone(p));
        }
        for e in fork.instances() {
            rebuilt.push_instance_arc(Arc::clone(e));
        }
        for (e, sv) in fork.instances().iter().skip(150).zip(appended) {
            assert_eq!(e.svector, *sv);
        }
        for probe in stream.iter().step_by(7) {
            let scan = |cache: &PlanCache| {
                let (mut q, mut dist) = (Vec::new(), KeyStream::new());
                let hit = cache
                    .coords()
                    .scan(&probe.0, 0.4, &mut q, &mut dist, |_, row| row % 3 != 0);
                let bits: Vec<u64> = dist.keys().iter().map(|d| d.to_bits()).collect();
                (hit.map(|(d, row)| (d.to_bits(), row)), bits)
            };
            assert_eq!(scan(fork), scan(&rebuilt));
        }
    }
}

fn saved(state: &CacheSnapshot) -> Vec<u8> {
    let mut blob = Vec::new();
    persist::save(state, state.generation(), &mut blob).unwrap();
    blob
}

#[test]
fn a_replica_that_extends_its_base_saves_what_a_rebuilding_replica_saves() {
    // A budget of 5 plans evicts now and then: those deltas drop base rows,
    // which only a rebuild can apply; every other delta extends its base.
    let mut config = ScrConfig::new(1.1).unwrap();
    config.plan_budget = Some(5);
    let (mut primary, cell, engine) = writer(config.clone());
    // One replica follows by deltas, one is handed a full record (always a
    // rebuild) for every generation.
    let (mut by_delta, by_delta_cell, _) = writer(config.clone());
    let (mut by_full, by_full_cell, _) = writer(config.clone());
    let (mut evicting, mut extending) = (0, 0);
    for sv in svectors(&engine, 400, 5) {
        let previous = cell.load();
        commit(&mut primary, &cell, &engine, &sv);
        let latest = cell.load();
        let compacted = latest.cache().num_instances() <= previous.cache().num_instances();
        if compacted {
            evicting += 1;
        } else {
            extending += 1;
        }

        let delta = encode_generation(&latest, Some(&previous));
        let base = by_delta_cell.load();
        assert_eq!(base.generation(), previous.generation());
        // A record cut short or flipped anywhere behind its header is a
        // typed error, whichever way it would have been applied, and leaves
        // the replica where it was.
        if latest.generation() % 16 == 0 {
            for cut in [delta.len() - 1, delta.len() - 9, delta.len() / 2] {
                let err = apply_generation(config.clone(), Some(&base), &delta[..cut]).unwrap_err();
                assert!(matches!(err, ReplicationError::Corrupt(_)), "{err}");
            }
            let mut flipped = delta.clone();
            let at = flipped.len() - 17;
            flipped[at] ^= 0xFF;
            flipped.push(0);
            let err = apply_generation(config.clone(), Some(&base), &flipped).unwrap_err();
            assert!(matches!(err, ReplicationError::Corrupt(_)), "{err}");
            assert_eq!(by_delta_cell.load().generation(), previous.generation());
        }
        let (scr, generation) = apply_generation(config.clone(), Some(&base), &delta).unwrap();
        by_delta.install_generation(scr, generation, &by_delta_cell);
        let applied = by_delta_cell.load();
        if !compacted {
            // Extended, not rebuilt: the base's blocks and entries are the
            // new generation's.
            let full = base.cache().num_instances() / BLOCK_ROWS;
            assert_eq!(
                base.cache().coords().block_tokens()[..full],
                applied.cache().coords().block_tokens()[..full]
            );
            assert_eq!(
                base.cache().shares_plan_list(applied.cache()),
                base.cache().num_plans() == applied.cache().num_plans()
            );
        }

        let full = encode_generation(&latest, None);
        let (scr, generation) = apply_generation(config.clone(), None, &full).unwrap();
        by_full.install_generation(scr, generation, &by_full_cell);

        let want = saved(&latest);
        assert!(
            saved(&applied) == want && saved(&by_full_cell.load()) == want,
            "generation {}: the replicas' bytes differ from the primary's",
            latest.generation()
        );
    }
    assert!(evicting > 3 && extending > 300, "{evicting} / {extending}");
}
