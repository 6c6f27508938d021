//! What the committed goldens (`decision_golden.rs`, `optimizer_golden.rs`,
//! `publication_golden.rs`) share: the FNV-1a fold, the `bench/templates`
//! joins compiled in place, the stream seeds and configurations, the
//! two-thread driver, and the comparison against a fixture that has no bless
//! switch — a mismatch writes the text this build produces beside the test
//! binaries and says where.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pqo::catalog::schemas;
use pqo::core::scr::ScrConfig;
use pqo::optimizer::template::QueryTemplate;
use pqo::workload::corpus::{corpus, TemplateSpec};

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a: fold `bytes` into `hash`.
pub fn fnv1a(hash: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// The corpus template named `id`.
pub fn spec(id: &str) -> &'static TemplateSpec {
    corpus()
        .iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("corpus has no template `{id}`"))
}

/// The paper's default configuration at λ = `l`.
pub fn lambda(l: f64) -> ScrConfig {
    ScrConfig::new(l).expect("valid λ")
}

/// SplitMix64 step, as `bench/src/inputs.rs` derives the per-template seeds
/// of the `embedded_bigjoin` streams.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `work(item)` for every item, in order, shared out over two threads.
pub fn on_two_threads<T: Sync, R: Send>(items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = work(item);
                out.lock()
                    .expect("no worker panics holding it")
                    .push((i, result));
            });
        }
    });
    let mut out = out.into_inner().expect("workers joined");
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, result)| result).collect()
}

/// The `bench/templates/*.sql` files, compiled in place, sorted by name.
pub fn bigjoin_templates() -> Vec<(String, Arc<QueryTemplate>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench/templates");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    files.sort();
    let catalogs = [schemas::tpch_skew(), schemas::tpcds()];
    files
        .iter()
        .map(|path| {
            let id = path.file_stem().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(path).unwrap();
            let wanted = pqo::sql::directives(&src)
                .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(&src)))
                .catalog
                .unwrap_or_else(|| panic!("{}: no `-- pqo:catalog`", path.display()));
            let catalog = catalogs
                .iter()
                .find(|c| c.name() == wanted)
                .unwrap_or_else(|| panic!("{}: unknown catalog `{wanted}`", path.display()));
            let compiled = pqo::sql::compile(&id, &src, catalog)
                .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(&src)));
            (id, compiled.template)
        })
        .collect()
}

/// Panic unless `actual` equals `tests/fixtures/<fixture>.golden` byte for
/// byte, after writing `actual` to `<fixture>.actual` beside the test
/// binaries.
pub fn assert_matches_golden(fixture: &str, actual: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{fixture}.golden"));
    let wanted = std::fs::read_to_string(&golden).unwrap_or_default();
    if actual == wanted {
        return;
    }
    let differing: Vec<&str> = actual
        .lines()
        .zip(wanted.lines().chain(std::iter::repeat("")))
        .filter(|(a, w)| a != w)
        .map(|(a, _)| a)
        .collect();
    let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{fixture}.actual"));
    std::fs::write(&dump, actual).expect("write the actual text");
    panic!(
        "{} of {} lines differ from {} (first: `{}`); the text this build produces was \
         written to {}",
        differing.len(),
        actual.lines().count(),
        golden.display(),
        differing.first().copied().unwrap_or("<line count>"),
        dump.display(),
    );
}
