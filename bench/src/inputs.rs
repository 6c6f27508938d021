//! The four workloads and the inputs each is made of.
//!
//! Everything random comes from `--seed` here, in the benchmark; the program
//! under test only ever receives the generated instances.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pqo_catalog::{schemas, Catalog};
use pqo_optimizer::template::{QueryInstance, QueryTemplate};
use pqo_workload::corpus::{corpus, TemplateSpec};
use pqo_workload::regions;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireHit,
    EmbeddedBigjoin,
    EmbeddedCorpus,
    ReplicaFollow,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireHit,
        Workload::EmbeddedBigjoin,
        Workload::EmbeddedCorpus,
        Workload::ReplicaFollow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireHit => "wire_hit",
            Workload::EmbeddedBigjoin => "embedded_bigjoin",
            Workload::EmbeddedCorpus => "embedded_corpus",
            Workload::ReplicaFollow => "replica_follow",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WireHit => {
                "pqo serve over loopback, one connection, every request a repeat: pqo-server and the kernel do ~95% of the work; a network-core change shows here, an optimizer change must not"
            }
            Workload::EmbeddedBigjoin => {
                "in-process PqoService on 8-relation SQL templates at lambda 1.05: the optimizer call dominates; the only workload where prepared or incremental optimization can show"
            }
            Workload::EmbeddedCorpus => {
                "the paper's evaluation in-process, 90 templates and 120000 decisions a pass at lambda 2: pqo-core's candidate search dominates; carries the paper's quality metrics"
            }
            Workload::ReplicaFollow => {
                "primary and replica servers, a paced miss-heavy writer beside a closed-loop reader on the replica: publication, replication records and apply run beside reads"
            }
        }
    }

    /// Segments an embedded pass is cut into for the estimator: the same
    /// decisions in every pass, at least a thousand each.
    pub fn segments(self) -> usize {
        match self {
            Workload::EmbeddedCorpus => 16,
            _ => 4,
        }
    }

    pub fn is_embedded(self) -> bool {
        matches!(self, Workload::EmbeddedBigjoin | Workload::EmbeddedCorpus)
    }
}

/// Seed of the **reference streams**: the instances the quality metrics are
/// scored on. They are the same in every run, whatever `--seed` is, so that
/// `optimizer_call_share`, `plans_cached`, `total_cost_ratio` and `max_so`
/// repeat exactly and can be gated at a bound of nothing; what is timed
/// comes from `--seed`.
pub const REFERENCE_SEED: u64 = 1;
/// Reference instances per template a server workload serves during set-up:
/// its warm-up, and the stream its quality metrics are scored on.
pub const WARM: usize = 200;
/// Distinct instances per template in the timed `wire_hit` stream.
pub const WIRE_HIT_DISTINCT: usize = 500;
/// Round trips in one lap of the timed `wire_hit` stream, which repeats.
pub const WIRE_HIT_LAP: usize = 4000;
/// Decisions per second the `replica_follow` writer is paced at.
pub const REPLICA_WRITER_RATE: u64 = 500;
/// Instances per template and pass on `embedded_bigjoin`, and its λ: 62% of
/// the decisions miss, so the median decision is an optimizer call on every
/// seed. (At the issue's λ = 1.1 and 2000 instances 50–54% miss, and the
/// median jumps between a 10 µs hit and a 100 µs miss from seed to seed.)
pub const BIGJOIN_INSTANCES: usize = 1000;
pub const BIGJOIN_LAMBDA: f64 = 1.05;

/// One template of a workload with the instances served on it, in order.
pub struct TemplateInput {
    pub id: String,
    pub template: Arc<QueryTemplate>,
    /// The instances made from `--seed`: what the timed phases serve.
    pub instances: Vec<QueryInstance>,
    /// Position among the workload's templates and, for a corpus template,
    /// its spec: what instances of it are generated from.
    index: u64,
    spec: Option<&'static TemplateSpec>,
}

impl TemplateInput {
    fn generate(&self, n: usize, seed: u64) -> Vec<QueryInstance> {
        match self.spec {
            Some(spec) => spec.generate(n, seed),
            None => regions::generate(&self.template, n, mix(seed, 100 + self.index)),
        }
    }

    /// The first `n` instances of this template's reference stream.
    pub fn reference(&self, n: usize) -> Vec<QueryInstance> {
        self.generate(n, REFERENCE_SEED)
    }
}

/// Request number `i` of the timed `wire_hit` stream: (template, instance).
/// The stream is a lap of [`WIRE_HIT_LAP`] requests, repeated, that goes
/// round the templates and picks among each one's instances.
pub fn wire_hit_request(templates: usize, i: u64) -> (usize, usize) {
    let position = i % WIRE_HIT_LAP as u64;
    (
        (position % templates as u64) as usize,
        (mix(position, 0x51ed) % WIRE_HIT_DISTINCT as u64) as usize,
    )
}

/// How `pqo serve` is told to register a workload's templates.
pub enum ServeTemplates {
    /// `--template a,b,c` (corpus ids).
    Corpus(Vec<String>),
    /// `--templates-dir DIR` (`.sql` files, named by stem).
    Dir(PathBuf),
}

/// What set-up cost, by layer (reported by the traced run).
#[derive(Debug, Default, Clone)]
pub struct SetupTimings {
    /// Building the catalogs this workload's templates bind against.
    pub catalog_build_ms: f64,
    /// `pqo_sql::compile` per `bench/templates` file.
    pub sql_compile_us: Vec<f64>,
    /// Generating one instance.
    pub generate_ns: f64,
}

/// A workload's inputs, made from the seed.
pub struct Env {
    pub workload: Workload,
    pub lambda: f64,
    pub templates: Vec<TemplateInput>,
    pub serve: ServeTemplates,
    pub timings: SetupTimings,
}

/// The templates of a workload that a `pqo serve` child registers, with
/// what it needs to be told about them.
pub struct Served<'a> {
    pub templates: Vec<&'a TemplateInput>,
    pub lambda: f64,
    pub serve: &'a ServeTemplates,
}

impl Env {
    /// Decisions in one pass over every template's instances.
    pub fn decisions_per_pass(&self) -> usize {
        self.templates.iter().map(|t| t.instances.len()).sum()
    }

    /// Every template, by reference.
    pub fn all(&self) -> Vec<&TemplateInput> {
        self.templates.iter().collect()
    }

    /// The templates a server of this workload registers: all of them,
    /// except on `embedded_corpus`, whose wire probes serve the first three.
    pub fn served(&self) -> Served<'_> {
        let templates = match &self.serve {
            ServeTemplates::Corpus(ids) => self
                .templates
                .iter()
                .filter(|t| ids.contains(&t.id))
                .collect(),
            ServeTemplates::Dir(_) => self.all(),
        };
        Served {
            templates,
            lambda: self.lambda,
            serve: &self.serve,
        }
    }
}

/// SplitMix64 step: derives independent sub-seeds from the one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn spec(id: &str) -> &'static TemplateSpec {
    corpus()
        .iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("corpus has no template `{id}`"))
}

/// The `.sql` files of `bench/templates`, sorted by name (the order in which
/// `pqo serve --templates-dir` registers them).
pub fn sql_template_files(bench_dir: &Path) -> Result<Vec<PathBuf>, String> {
    let dir = bench_dir.join("templates");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .sql templates", dir.display()));
    }
    Ok(files)
}

/// One compiled `bench/templates` file.
pub struct SqlTemplate {
    pub id: String,
    pub template: Arc<QueryTemplate>,
    pub compile_us: f64,
}

/// Compile every `bench/templates` file against its catalog. The template
/// is named by the file stem, exactly as `pqo serve --templates-dir` names it.
pub fn compile_sql_templates(
    bench_dir: &Path,
    catalogs: &[Catalog],
) -> Result<Vec<SqlTemplate>, String> {
    let mut out = Vec::new();
    for path in sql_template_files(bench_dir)? {
        let id = path
            .file_stem()
            .expect("listed by extension")
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let wanted = pqo_sql::directives(&src)
            .map_err(|e| format!("{}: {}", path.display(), e.render(&src)))?
            .catalog
            .ok_or_else(|| format!("{}: no `-- pqo:catalog` directive", path.display()))?;
        let catalog = catalogs
            .iter()
            .find(|c| c.name() == wanted)
            .ok_or_else(|| format!("{}: catalog `{wanted}` not built", path.display()))?;
        let t0 = Instant::now();
        let compiled = pqo_sql::compile(&id, &src, catalog)
            .map_err(|e| format!("{}: {}", path.display(), e.render(&src)))?;
        let compile_us = t0.elapsed().as_secs_f64() * 1e6;
        out.push(SqlTemplate {
            id,
            template: compiled.template,
            compile_us,
        });
    }
    Ok(out)
}

/// Build a workload's inputs. `seconds` sizes the one stream whose length
/// follows from the run length (the paced `replica_follow` writer).
pub fn setup(workload: Workload, seed: u64, seconds: f64, bench_dir: &Path) -> Result<Env, String> {
    let mut timings = SetupTimings::default();

    // Catalogs and templates first: (id, template, instances to generate).
    let t_catalogs = Instant::now();
    let corpus_ids = |ids: &[&str]| -> Vec<(String, Arc<QueryTemplate>, usize)> {
        ids.iter()
            .map(|id| (id.to_string(), Arc::clone(&spec(id).template), 0))
            .collect()
    };
    let (lambda, mut chosen, serve) = match workload {
        Workload::WireHit => {
            let ids = ["tpch_skew_A_d2", "tpch_skew_B_d2", "tpcds_G_d3"];
            let mut chosen = corpus_ids(&ids);
            chosen.iter_mut().for_each(|c| c.2 = WIRE_HIT_DISTINCT);
            let serve = ServeTemplates::Corpus(ids.iter().map(|s| s.to_string()).collect());
            (2.0, chosen, serve)
        }
        Workload::ReplicaFollow => {
            let ids = ["rd2_R_d5", "rd2_S_d6", "rd2_T_d7"];
            let total = (REPLICA_WRITER_RATE as f64 * seconds).ceil() as usize;
            let mut chosen = corpus_ids(&ids);
            chosen
                .iter_mut()
                .for_each(|c| c.2 = total.div_ceil(ids.len()));
            let serve = ServeTemplates::Corpus(ids.iter().map(|s| s.to_string()).collect());
            (1.1, chosen, serve)
        }
        Workload::EmbeddedCorpus => {
            let chosen: Vec<_> = corpus()
                .iter()
                .map(|s| (s.id.clone(), Arc::clone(&s.template), s.default_len()))
                .collect();
            // The traced run's wire probes serve the first three of them.
            let serve =
                ServeTemplates::Corpus(chosen.iter().take(3).map(|c| c.0.clone()).collect());
            (2.0, chosen, serve)
        }
        Workload::EmbeddedBigjoin => {
            let catalogs = [schemas::tpch_skew(), schemas::tpcds()];
            timings.catalog_build_ms = t_catalogs.elapsed().as_secs_f64() * 1e3;
            let compiled = compile_sql_templates(bench_dir, &catalogs)?;
            timings.sql_compile_us = compiled.iter().map(|c| c.compile_us).collect();
            let chosen = compiled
                .into_iter()
                .map(|c| (c.id, c.template, BIGJOIN_INSTANCES))
                .collect();
            (
                BIGJOIN_LAMBDA,
                chosen,
                ServeTemplates::Dir(bench_dir.join("templates")),
            )
        }
    };
    if workload != Workload::EmbeddedBigjoin {
        // `corpus()` built all four catalogs on its first use above.
        timings.catalog_build_ms = t_catalogs.elapsed().as_secs_f64() * 1e3;
    }

    // Then the instances, all from the seed.
    let t_generate = Instant::now();
    let mut generated = 0usize;
    let templates: Vec<TemplateInput> = chosen
        .drain(..)
        .enumerate()
        .map(|(i, (id, template, m))| {
            let mut t = TemplateInput {
                spec: (workload != Workload::EmbeddedBigjoin).then(|| spec(&id)),
                id,
                template,
                instances: Vec::new(),
                index: i as u64,
            };
            t.instances = t.generate(m, seed);
            generated += t.instances.len();
            t
        })
        .collect();
    timings.generate_ns = t_generate.elapsed().as_secs_f64() * 1e9 / generated as f64;

    Ok(Env {
        workload,
        lambda,
        templates,
        serve,
        timings,
    })
}
