//! The four synthetic benchmark databases.
//!
//! These stand in for the paper's TPC-H (skewed data generator), TPC-DS and
//! the two real-world databases RD1 (98 GB) and RD2 (780 GB). Row counts
//! follow the original schemas/scales; column value distributions mix
//! uniform, Zipf, normal and exponential so that selectivity varies sharply
//! across the parameter domain (the skew is what makes PQO interesting).
//!
//! Every table gets a primary-key column `<table>_pk` (uniform, indexed) and
//! zero or more foreign keys `<target>_fk`; the remaining columns are
//! numeric attributes usable as parameterized one-sided range predicates.

use crate::catalog::Catalog;
use crate::distribution::Distribution;
use crate::table::TableBuilder;

fn uni(max: f64) -> Distribution {
    Distribution::Uniform { min: 0.0, max }
}

fn zipf(max: f64, e: f64) -> Distribution {
    Distribution::Zipf {
        min: 0.0,
        max,
        exponent: e,
    }
}

fn norm(max: f64) -> Distribution {
    Distribution::Normal {
        min: 0.0,
        max,
        mean: max / 2.0,
        stddev: max / 6.0,
    }
}

fn exp(max: f64, rate: f64) -> Distribution {
    Distribution::Exponential {
        min: 0.0,
        max,
        rate,
    }
}

/// Add `n` generic measure columns `m1..mn` with rotating distributions.
/// Every third measure is indexed so both index and scan access paths exist.
fn with_measures(mut b: TableBuilder, n: usize, ndv: u64) -> TableBuilder {
    for i in 1..=n {
        let dist = match i % 4 {
            0 => uni(1000.0),
            1 => zipf(1000.0, 2.0 + (i % 3) as f64),
            2 => norm(1000.0),
            _ => exp(1000.0, 4.0 + (i % 5) as f64),
        };
        b = b.column(&format!("m{i}"), dist, ndv, i % 3 == 1);
    }
    b
}

fn keyed(name: &str, rows: u64) -> TableBuilder {
    TableBuilder::new(name, rows).column(&format!("{name}_pk"), uni(rows as f64), rows, true)
}

/// TPC-H at scale factor 1 with skewed value distributions (the paper uses
/// the skewed dbgen of reference \[23\]).
pub fn tpch_skew() -> Catalog {
    let mut c = Catalog::new("tpch_skew");
    c.add_table(keyed("region", 5).build());
    c.add_table(
        keyed("nation", 25)
            .column("region_fk", uni(5.0), 5, false)
            .build(),
    );
    c.add_table(
        keyed("supplier", 10_000)
            .column("nation_fk", uni(25.0), 25, false)
            .column("s_acctbal", norm(11_000.0), 9_999, true)
            .build(),
    );
    c.add_table(
        keyed("customer", 150_000)
            .column("nation_fk", zipf(25.0, 2.0), 25, false)
            .column("c_acctbal", norm(11_000.0), 140_000, true)
            .column("c_mktsegment", uni(5.0), 5, false)
            .build(),
    );
    c.add_table(
        keyed("part", 200_000)
            .column("p_size", uni(50.0), 50, true)
            .column("p_retailprice", zipf(2_000.0, 1.5), 120_000, false)
            .build(),
    );
    c.add_table(
        keyed("partsupp", 800_000)
            .column("part_fk", uni(200_000.0), 200_000, true)
            .column("supplier_fk", uni(10_000.0), 10_000, true)
            .column("ps_supplycost", exp(1_000.0, 3.0), 99_000, false)
            .build(),
    );
    c.add_table(
        keyed("orders", 1_500_000)
            .column("customer_fk", zipf(150_000.0, 2.5), 100_000, true)
            .column("o_totalprice", zipf(500_000.0, 3.0), 1_400_000, true)
            .column("o_orderdate", uni(2_406.0), 2_406, true)
            .column("o_shippriority", uni(5.0), 5, false)
            .build(),
    );
    c.add_table(
        keyed("lineitem", 6_000_000)
            .column("orders_fk", uni(1_500_000.0), 1_500_000, true)
            .column("part_fk", zipf(200_000.0, 2.0), 200_000, true)
            .column("supplier_fk", uni(10_000.0), 10_000, true)
            .column("l_quantity", uni(50.0), 50, false)
            .column("l_extendedprice", zipf(100_000.0, 2.5), 900_000, true)
            .column("l_discount", uni(0.1), 11, false)
            .column("l_shipdate", uni(2_526.0), 2_526, true)
            .column("l_receiptdate", norm(2_526.0), 2_526, false)
            .build(),
    );
    c
}

/// TPC-DS inspired star/snowflake subset.
pub fn tpcds() -> Catalog {
    let mut c = Catalog::new("tpcds");
    c.add_table(
        keyed("date_dim", 73_049)
            .column("d_year", uni(200.0), 200, true)
            .column("d_moy", uni(12.0), 12, false)
            .build(),
    );
    c.add_table(
        keyed("item", 102_000)
            .column("i_current_price", zipf(300.0, 2.0), 9_000, true)
            .column("i_category", uni(10.0), 10, false)
            .column("i_brand", zipf(1_000.0, 1.6), 950, false)
            .build(),
    );
    c.add_table(
        keyed("customer", 100_000)
            .column("c_birth_year", norm(80.0), 80, false)
            .column("customer_address_fk", uni(50_000.0), 50_000, false)
            .build(),
    );
    c.add_table(
        keyed("customer_address", 50_000)
            .column("ca_gmt_offset", uni(24.0), 24, false)
            .build(),
    );
    c.add_table(
        keyed("customer_demographics", 1_920_800)
            .column("cd_dep_count", uni(10.0), 10, true)
            .column("cd_purchase_estimate", zipf(10_000.0, 2.2), 9_000, false)
            .build(),
    );
    c.add_table(
        keyed("household_demographics", 7_200)
            .column("hd_vehicle_count", uni(5.0), 5, false)
            .build(),
    );
    c.add_table(
        keyed("store", 402)
            .column("s_floor_space", norm(10_000_000.0), 400, false)
            .build(),
    );
    c.add_table(keyed("warehouse", 15).build());
    c.add_table(
        keyed("promotion", 1_000)
            .column("p_cost", exp(2_000.0, 2.0), 900, false)
            .build(),
    );
    c.add_table(
        with_measures(
            keyed("store_sales", 2_880_404)
                .column("date_dim_fk", uni(73_049.0), 1_800, true)
                .column("item_fk", zipf(102_000.0, 2.0), 102_000, true)
                .column("customer_fk", uni(100_000.0), 100_000, true)
                .column("store_fk", uni(402.0), 402, false)
                .column("ss_quantity", uni(100.0), 100, false)
                .column("ss_sales_price", zipf(300.0, 2.5), 25_000, true)
                .column("ss_net_profit", norm(20_000.0), 900_000, false),
            4,
            50_000,
        )
        .build(),
    );
    c.add_table(
        with_measures(
            keyed("catalog_sales", 1_441_548)
                .column("date_dim_fk", uni(73_049.0), 1_800, true)
                .column("item_fk", uni(102_000.0), 102_000, true)
                .column("customer_fk", zipf(100_000.0, 1.8), 95_000, true)
                .column("warehouse_fk", uni(15.0), 15, false)
                .column("cs_quantity", uni(100.0), 100, false)
                .column("cs_wholesale_cost", exp(100.0, 3.0), 9_000, true),
            4,
            40_000,
        )
        .build(),
    );
    c.add_table(
        with_measures(
            keyed("web_sales", 719_384)
                .column("date_dim_fk", uni(73_049.0), 1_800, true)
                .column("item_fk", zipf(102_000.0, 2.4), 98_000, true)
                .column("customer_fk", uni(100_000.0), 90_000, false)
                .column("promotion_fk", uni(1_000.0), 1_000, false)
                .column("ws_sales_price", zipf(300.0, 2.0), 25_000, true),
            4,
            30_000,
        )
        .build(),
    );
    c.add_table(
        keyed("inventory", 1_000_000)
            .column("item_fk", uni(102_000.0), 102_000, true)
            .column("warehouse_fk", uni(15.0), 15, false)
            .column("date_dim_fk", uni(73_049.0), 261, false)
            .column("inv_quantity_on_hand", exp(1_000.0, 2.5), 1_000, false)
            .build(),
    );
    c
}

/// RD1: a 98 GB OLTP-ish real-world database stand-in (payments domain).
pub fn rd1() -> Catalog {
    let mut c = Catalog::new("rd1");
    c.add_table(keyed("regions_r", 500).build());
    c.add_table(
        keyed("merchants", 50_000)
            .column("regions_r_fk", zipf(500.0, 2.0), 500, false)
            .column("mrc_rating", norm(100.0), 100, true)
            .build(),
    );
    c.add_table(
        keyed("users", 5_000_000)
            .column("regions_r_fk", zipf(500.0, 1.6), 500, false)
            .column("u_age", norm(90.0), 90, false)
            .column("u_score", exp(1_000.0, 5.0), 1_000, true)
            .build(),
    );
    c.add_table(
        keyed("accounts", 2_000_000)
            .column("users_fk", uni(5_000_000.0), 1_900_000, true)
            .column("a_balance", zipf(1_000_000.0, 3.0), 950_000, true)
            .column("a_opened", uni(3_650.0), 3_650, false)
            .build(),
    );
    c.add_table(
        with_measures(
            keyed("transactions", 20_000_000)
                .column("accounts_fk", zipf(2_000_000.0, 2.2), 2_000_000, true)
                .column("merchants_fk", zipf(50_000.0, 2.8), 50_000, true)
                .column("t_amount", exp(10_000.0, 4.0), 800_000, true)
                .column("t_ts", uni(31_536_000.0), 5_000_000, true),
            4,
            100_000,
        )
        .build(),
    );
    c.add_table(
        keyed("sessions", 10_000_000)
            .column("users_fk", zipf(5_000_000.0, 1.8), 4_500_000, true)
            .column("s_duration", exp(7_200.0, 6.0), 7_200, false)
            .column("s_ts", uni(31_536_000.0), 8_000_000, true)
            .build(),
    );
    c.add_table(
        keyed("products", 100_000)
            .column("p_price", zipf(5_000.0, 2.0), 40_000, true)
            .build(),
    );
    c.add_table(
        keyed("orders_r", 8_000_000)
            .column("users_fk", uni(5_000_000.0), 3_500_000, true)
            .column("or_total", zipf(20_000.0, 2.5), 500_000, true)
            .column("or_ts", uni(31_536_000.0), 6_000_000, false)
            .build(),
    );
    c.add_table(
        keyed("order_items", 15_000_000)
            .column("orders_r_fk", uni(8_000_000.0), 8_000_000, true)
            .column("products_fk", zipf(100_000.0, 2.2), 100_000, true)
            .column("oi_qty", exp(50.0, 3.0), 50, false)
            .column("oi_price", zipf(5_000.0, 2.0), 40_000, false)
            .build(),
    );
    c.add_table(
        keyed("logs", 20_000_000)
            .column("users_fk", zipf(5_000_000.0, 2.5), 3_000_000, false)
            .column("l_severity", zipf(8.0, 3.0), 8, true)
            .column("l_ts", uni(31_536_000.0), 10_000_000, true)
            .build(),
    );
    c
}

/// RD2: a 780 GB telemetry warehouse stand-in. Wide fact tables with many
/// numeric attributes support the paper's high-dimensional templates
/// (d >= 5 "were only possible on RD2", Section 7.1).
pub fn rd2() -> Catalog {
    let mut c = Catalog::new("rd2");
    c.add_table(
        keyed("sites", 10_000)
            .column("st_elevation", norm(4_000.0), 3_800, false)
            .build(),
    );
    c.add_table(
        keyed("firmware", 500)
            .column("f_version", uni(500.0), 500, false)
            .build(),
    );
    c.add_table(
        with_measures(
            keyed("devices", 10_000_000)
                .column("sites_fk", zipf(10_000.0, 2.0), 10_000, true)
                .column("firmware_fk", zipf(500.0, 2.5), 500, false)
                .column("d_age_days", exp(2_000.0, 2.0), 2_000, true),
            6,
            250,
        )
        .build(),
    );
    c.add_table(
        keyed("sensors", 5_000_000)
            .column("devices_fk", uni(10_000_000.0), 4_800_000, true)
            .column("sn_precision", norm(100.0), 100, false)
            .column("sn_range", uni(10_000.0), 10_000, true)
            .build(),
    );
    c.add_table(
        keyed("calib", 1_000_000)
            .column("sensors_fk", uni(5_000_000.0), 1_000_000, true)
            .column("cb_drift", norm(10.0), 10_000, false)
            .build(),
    );
    c.add_table(
        with_measures(
            keyed("telemetry", 100_000_000)
                .column("devices_fk", zipf(10_000_000.0, 2.0), 10_000_000, true)
                .column("t_ts", uni(31_536_000.0), 30_000_000, true)
                .column("t_battery", norm(100.0), 100, false)
                .column("t_signal", exp(120.0, 3.0), 120, true),
            10,
            400,
        )
        .build(),
    );
    c.add_table(
        with_measures(
            keyed("readings", 80_000_000)
                .column("sensors_fk", zipf(5_000_000.0, 1.8), 5_000_000, true)
                .column("r_ts", uni(31_536_000.0), 30_000_000, true)
                .column("r_value", zipf(1_000_000.0, 3.5), 900_000, true),
            10,
            600,
        )
        .build(),
    );
    c.add_table(
        with_measures(
            keyed("alerts", 20_000_000)
                .column("devices_fk", zipf(10_000_000.0, 3.0), 6_000_000, true)
                .column("al_severity", zipf(10.0, 2.5), 10, true)
                .column("al_ts", uni(31_536_000.0), 15_000_000, false),
            6,
            300,
        )
        .build(),
    );
    c.add_table(
        keyed("maintenance", 5_000_000)
            .column("devices_fk", uni(10_000_000.0), 3_500_000, true)
            .column("mt_cost", exp(50_000.0, 4.0), 45_000, true)
            .column("mt_duration", zipf(480.0, 2.0), 480, false)
            .build(),
    );
    c.add_table(
        keyed("weather", 50_000_000)
            .column("sites_fk", uni(10_000.0), 10_000, true)
            .column("w_ts", uni(31_536_000.0), 30_000_000, true)
            .column("w_temp", norm(60.0), 1_200, false)
            .column("w_wind", exp(150.0, 4.0), 1_500, false)
            .build(),
    );
    c
}

/// All four catalogs, keyed by name.
pub fn all_catalogs() -> Vec<Catalog> {
    vec![tpch_skew(), tpcds(), rd1(), rd2()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_catalogs_build() {
        let cats = all_catalogs();
        assert_eq!(cats.len(), 4);
        let names: Vec<_> = cats.iter().map(|c| c.name().to_string()).collect();
        assert_eq!(names, vec!["tpch_skew", "tpcds", "rd1", "rd2"]);
    }

    #[test]
    fn tpch_has_expected_tables() {
        let c = tpch_skew();
        for t in [
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        ] {
            assert!(c.table(t).is_some(), "missing table {t}");
        }
        assert_eq!(c.expect_table("lineitem").row_count, 6_000_000);
    }

    #[test]
    fn every_table_has_indexed_pk() {
        for cat in all_catalogs() {
            for t in cat.tables() {
                let pk = format!("{}_pk", t.name);
                let col = t
                    .column(&pk)
                    .unwrap_or_else(|| panic!("{} missing pk", t.name));
                assert!(col.indexed, "{} pk not indexed", t.name);
                assert_eq!(col.stats.ndv, t.row_count, "{} pk ndv", t.name);
            }
        }
    }

    #[test]
    fn fk_columns_reference_existing_tables() {
        for cat in all_catalogs() {
            for t in cat.tables() {
                for col in &t.columns {
                    if let Some(target) = col.name.strip_suffix("_fk") {
                        assert!(
                            cat.table(target).is_some(),
                            "{}.{} dangling fk",
                            t.name,
                            col.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rd2_fact_tables_are_wide_enough_for_d10() {
        let c = rd2();
        // d=10 templates need >= 10 non-key numeric columns spread over a
        // small join graph; telemetry and readings each carry 10 measures
        // plus named attributes.
        for t in ["telemetry", "readings"] {
            let non_key = c
                .expect_table(t)
                .columns
                .iter()
                .filter(|col| !col.name.ends_with("_pk") && !col.name.ends_with("_fk"))
                .count();
            assert!(non_key >= 10, "{t} has only {non_key} attribute columns");
        }
    }

    #[test]
    fn statistics_are_deterministic_across_builds() {
        let a = tpch_skew();
        let b = tpch_skew();
        let ca = &a
            .expect_table("lineitem")
            .column("l_extendedprice")
            .unwrap()
            .stats;
        let cb = &b
            .expect_table("lineitem")
            .column("l_extendedprice")
            .unwrap()
            .stats;
        assert_eq!(ca.histogram.quantile(0.123), cb.histogram.quantile(0.123));
    }
}
