//! What the two committed goldens (`decision_golden.rs`,
//! `optimizer_golden.rs`) share: the FNV-1a fold, the `bench/templates`
//! joins compiled in place, and the comparison against a fixture that has no
//! bless switch — a mismatch writes the text this build produces beside the
//! test binaries and says where.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pqo::catalog::schemas;
use pqo::optimizer::template::QueryTemplate;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a: fold `bytes` into `hash`.
pub fn fnv1a(hash: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
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
