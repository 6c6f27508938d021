//! The committed publication golden: the bytes a cache leaves the process as.
//!
//! `decision_golden.rs` pins which plan each request is served; this file
//! pins what the serving layer *writes* while it does so — the persist blob,
//! every replication delta, a full record, and what a replica that applied
//! the chain writes in turn — so a change to how generations are stored,
//! shared, encoded or applied that is meant to keep the formats has
//! something to leave byte-identical. One line per stream, four FNV-1a
//! hashes each, against `tests/fixtures/publication_bytes.golden`:
//!
//! * `save` — [`PqoService::save`] of the primary after the last request;
//! * `deltas` — every `generation_record(Some(previous))` on the way, each
//!   folded as its length then its bytes, with the number of records;
//! * `full` — one `generation_record(None)` at the end;
//! * `replica` — [`PqoService::save`] of a second service that applied each
//!   of those deltas as it was produced.
//!
//! The streams are the `bench/templates` joins at λ = 1.05 (what
//! `embedded_bigjoin` publishes), three wide corpus templates at λ = 1.1,
//! and the budget-4 and Appendix F configurations of the decision golden,
//! whose evictions and sweeps compact the instance list.

mod common;

use std::fmt::Write as _;
use std::sync::Arc;

use common::{bigjoin_templates, fnv1a, lambda, mix, on_two_threads, spec, FNV_OFFSET};
use pqo::core::replication::record_info;
use pqo::core::scr::ScrConfig;
use pqo::core::PqoService;
use pqo::optimizer::template::{QueryInstance, QueryTemplate};
use pqo::workload::regions;

/// One line of the golden: a stream served by a fresh primary and followed
/// by a fresh replica.
struct Stream {
    label: String,
    template: Arc<QueryTemplate>,
    config: ScrConfig,
    instances: Vec<QueryInstance>,
}

fn hash_of(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, bytes.iter().copied());
    hash
}

fn saved(service: &PqoService, name: &str) -> Vec<u8> {
    let mut blob = Vec::new();
    service.save(name, &mut blob).expect("registered template");
    blob
}

impl Stream {
    fn run(&self) -> String {
        let name = self.template.name.as_str();
        let service = || {
            let s = PqoService::new();
            s.register(Arc::clone(&self.template), self.config.clone())
                .expect("fresh name, valid config");
            s
        };
        let (primary, replica) = (service(), service());
        let (mut deltas, mut records, mut applied) = (FNV_OFFSET, 0u64, 0u64);
        for q in &self.instances {
            let (_, generation) = primary
                .get_plan_with_generation(name, q)
                .expect("registered template");
            if generation == applied {
                continue;
            }
            let (record, produced) = primary
                .generation_record(name, Some(applied))
                .expect("registered template");
            let info = record_info(&record).expect("well-formed record");
            assert_eq!(
                (info.base, info.generation, produced),
                (Some(applied), generation, generation),
                "{}: the previous generation is always within the log",
                self.label
            );
            fnv1a(&mut deltas, (record.len() as u64).to_le_bytes());
            fnv1a(&mut deltas, record.iter().copied());
            records += 1;
            applied = replica
                .apply_generation(name, &record)
                .expect("a replica applies its primary's deltas");
            assert_eq!(applied, generation);
        }
        let (full, _) = primary
            .generation_record(name, None)
            .expect("registered template");
        assert_eq!(record_info(&full).expect("well-formed record").base, None);
        format!(
            "{} save={:016x} deltas={:016x}/{records} full={:016x} replica={:016x}",
            self.label,
            hash_of(&saved(&primary, name)),
            deltas,
            hash_of(&full),
            hash_of(&saved(&replica, name)),
        )
    }
}

fn streams() -> Vec<Stream> {
    let mut streams = Vec::new();
    for (index, (id, template)) in bigjoin_templates().into_iter().enumerate() {
        streams.push(Stream {
            label: format!("bigjoin seed=1 {id}"),
            instances: regions::generate(&template, 1000, mix(1, 100 + index as u64)),
            template,
            config: lambda(1.05),
        });
    }
    for id in ["rd2_R_d5", "rd2_S_d6", "rd2_T_d7"] {
        let s = spec(id);
        streams.push(Stream {
            label: format!("corpus lambda=1.1 seed=1 {id}"),
            template: Arc::clone(&s.template),
            config: lambda(1.1),
            instances: s.generate(s.default_len(), 1),
        });
    }
    // As `decision_golden.rs` configures them: a plan budget of 4 evicts
    // (and compacts the instance list) throughout; Appendix F's sweep takes
    // a plan's entries out and re-appends them or their replacements.
    type Variant = (&'static str, usize, fn(&mut ScrConfig));
    let variants: [Variant; 2] = [
        ("budget-4", 2000, |c| c.plan_budget = Some(4)),
        ("sweep", 400, |c| c.existing_plan_redundancy = true),
    ];
    for (name, len, tweak) in variants {
        for id in ["tpch_skew_C_d2", "tpch_skew_D_d3v", "rd2_T_d7"] {
            let s = spec(id);
            let mut config = lambda(1.2);
            tweak(&mut config);
            streams.push(Stream {
                label: format!("variant={name} seed=1 {id}"),
                template: Arc::clone(&s.template),
                config,
                instances: s.generate(len, 1),
            });
        }
    }
    streams
}

#[test]
fn published_bytes_match_the_committed_golden() {
    let streams = streams();
    let mut actual = String::new();
    for line in on_two_threads(&streams, Stream::run) {
        writeln!(actual, "{line}").unwrap();
    }
    common::assert_matches_golden("publication_bytes", &actual);
}
