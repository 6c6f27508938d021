//! Table and column definitions.

use crate::distribution::Distribution;
use crate::stats::ColumnStats;

/// Average width in bytes assumed per row when deriving page counts.
pub const DEFAULT_ROW_BYTES: u64 = 120;

/// Bytes per page, matching a classical 8 KiB database page.
pub const PAGE_BYTES: u64 = 8192;

/// A column of a synthetic table.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name, unique within its table.
    pub name: String,
    /// Value distribution the column is drawn from.
    pub distribution: Distribution,
    /// Whether a secondary B-tree index exists on this column (enables
    /// IndexSeek / index nested-loops plans).
    pub indexed: bool,
    /// Statistics built from the distribution.
    pub stats: ColumnStats,
}

/// A synthetic base table.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name, unique within its catalog.
    pub name: String,
    /// Cardinality in rows.
    pub row_count: u64,
    /// Number of 8 KiB pages the heap occupies.
    pub page_count: u64,
    /// Columns in definition order.
    pub columns: Vec<ColumnDef>,
}

impl TableDef {
    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

/// Builder for [`TableDef`] that derives page counts and per-column
/// statistics deterministically from the table/column names.
pub struct TableBuilder {
    name: String,
    row_count: u64,
    row_bytes: u64,
    columns: Vec<ColumnDef>,
}

impl TableBuilder {
    /// Start a table with the given name and row count.
    pub fn new(name: &str, row_count: u64) -> Self {
        TableBuilder {
            name: name.to_string(),
            row_count,
            row_bytes: DEFAULT_ROW_BYTES,
            columns: Vec::new(),
        }
    }

    /// Override the assumed row width in bytes.
    pub fn row_bytes(mut self, bytes: u64) -> Self {
        self.row_bytes = bytes;
        self
    }

    /// Add a column. `ndv` caps at the row count.
    ///
    /// # Panics
    /// Panics, naming `table.column`, if the distribution's parameters are
    /// unusable: a Zipf exponent or Exponential rate that is not > 0 (or a
    /// rate so small that `−ln ε / rate` overflows), a negative or
    /// non-finite Normal stddev (or a non-finite mean), or non-finite or
    /// inverted `min`/`max`.
    pub fn column(
        mut self,
        name: &str,
        distribution: Distribution,
        ndv: u64,
        indexed: bool,
    ) -> Self {
        if let Err(why) = distribution.check() {
            panic!("column {}.{name}: {why}", self.name);
        }
        let seed = seed_for(&self.name, name);
        let stats = ColumnStats::build(&distribution, ndv.min(self.row_count.max(1)), seed);
        self.columns.push(ColumnDef {
            name: name.to_string(),
            distribution,
            indexed,
            stats,
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> TableDef {
        let page_count = (self.row_count * self.row_bytes)
            .div_ceil(PAGE_BYTES)
            .max(1);
        TableDef {
            name: self.name,
            row_count: self.row_count,
            page_count,
            columns: self.columns,
        }
    }
}

/// Stable seed derived from table and column names (FNV-1a).
fn seed_for(table: &str, column: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in table.bytes().chain([b'.']).chain(column.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> TableDef {
        TableBuilder::new("t", 100_000)
            .column(
                "a",
                Distribution::Uniform { min: 0.0, max: 1.0 },
                1000,
                true,
            )
            .column(
                "b",
                Distribution::Zipf {
                    min: 0.0,
                    max: 50.0,
                    exponent: 2.0,
                },
                50,
                false,
            )
            .build()
    }

    #[test]
    fn page_count_derivation() {
        let t = sample_table();
        assert_eq!(
            t.page_count,
            (100_000u64 * DEFAULT_ROW_BYTES).div_ceil(PAGE_BYTES)
        );
    }

    #[test]
    fn column_lookup() {
        let t = sample_table();
        assert!(t.column("a").unwrap().indexed);
        assert!(!t.column("b").unwrap().indexed);
        assert!(t.column("zz").is_none());
        assert_eq!(t.column_index("b"), Some(1));
    }

    #[test]
    fn seeds_differ_per_column() {
        assert_ne!(seed_for("t", "a"), seed_for("t", "b"));
        assert_ne!(seed_for("t1", "a"), seed_for("t2", "a"));
        // and the separator prevents "ab"."c" colliding with "a"."bc"
        assert_ne!(seed_for("ab", "c"), seed_for("a", "bc"));
    }

    #[test]
    fn ndv_caps_at_row_count() {
        let t = TableBuilder::new("tiny", 10)
            .column(
                "x",
                Distribution::Uniform { min: 0.0, max: 1.0 },
                99999,
                false,
            )
            .build();
        assert_eq!(t.column("x").unwrap().stats.ndv, 10);
    }

    #[test]
    fn page_count_is_at_least_one() {
        let t = TableBuilder::new("one", 1).build();
        assert_eq!(t.page_count, 1);
    }
}
