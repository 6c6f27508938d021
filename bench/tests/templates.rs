//! The benchmark's own SQL templates: each compiles, has the relation count
//! and dimension its header states, and costs the optimizer several times
//! what the corpus' largest template does — the reason they exist.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pqo_catalog::schemas;
use pqo_optimizer::engine::QueryEngine;
use pqo_optimizer::template::QueryTemplate;
use pqo_stackbench::inputs::{compile_sql_templates, SqlTemplate};
use pqo_stackbench::report;
use pqo_workload::corpus::corpus;
use pqo_workload::regions;

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn compiled() -> Vec<SqlTemplate> {
    let catalogs = [schemas::tpch_skew(), schemas::tpcds()];
    compile_sql_templates(bench_dir(), &catalogs).expect("bench templates compile")
}

/// Wall time of one `optimize` call: the fastest of many over seeded
/// instances, so that other tests running beside this one do not count.
fn optimize_ns(template: &Arc<QueryTemplate>) -> f64 {
    let engine = QueryEngine::new(Arc::clone(template));
    regions::generate(template, 400, 7)
        .iter()
        .map(|q| {
            let sv = engine.compute_svector(q);
            let t0 = Instant::now();
            std::hint::black_box(engine.optimize_untracked(&sv));
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn templates_have_the_stated_shape() {
    let shapes: Vec<(String, usize, usize)> = compiled()
        .iter()
        .map(|c| {
            (
                c.id.clone(),
                c.template.num_relations(),
                c.template.dimensions(),
            )
        })
        .collect();
    let expected = [
        ("bigjoin_q5_local_supplier", 8, 5),
        ("bigjoin_q8_market_share", 8, 4),
        ("bigjoin_q9_product_profit", 8, 6),
        ("bigjoin_store_inventory", 8, 4),
    ];
    assert_eq!(shapes.len(), expected.len());
    for ((id, relations, dimensions), want) in shapes.iter().zip(expected) {
        assert_eq!((id.as_str(), *relations, *dimensions), want);
    }
    // The Q8 shape joins `nation` twice, under two aliases.
    let q8 = &compiled()[1].template;
    let nations = q8
        .relations
        .iter()
        .filter(|r| r.table.name == "nation")
        .count();
    assert_eq!(nations, 2);
}

#[test]
fn optimizing_a_bench_template_dwarfs_the_corpus() {
    let widest = corpus()
        .iter()
        .max_by_key(|s| s.template.num_relations())
        .expect("corpus is not empty");
    assert_eq!(widest.template.num_relations(), 5);
    let corpus_ns = optimize_ns(&widest.template);
    for c in compiled() {
        let ns = optimize_ns(&c.template);
        assert!(
            ns >= 5.0 * corpus_ns,
            "{}: one optimize call takes {ns:.0} ns, the corpus' widest ({}) {corpus_ns:.0} ns",
            c.id,
            widest.id
        );
    }
}

#[test]
fn benchmark_json_is_generated_from_the_metric_tables() {
    let committed = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        report::benchmark_json(),
        "regenerate with `pqo-stackbench --print-benchmark-json 1 > BENCHMARK.json`"
    );
}
