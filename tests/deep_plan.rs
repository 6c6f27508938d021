//! A plan read from bytes may be arbitrarily deep: `persist::read_plan`
//! accepts encodings up to 1 MiB from `.pqo-cache` files and from inline
//! plans of replication records. Nothing that handles such a plan may
//! recurse on its depth, or one crafted file overflows the stack and aborts
//! the process. This test decodes one scan under 500 000 nested Sorts and
//! runs every plan consumer over it on a thread with a 2 MiB stack.

use std::fmt::Write;

use pqo::optimizer::compact::{recost_compact, CompactPlan};
use pqo::optimizer::cost::CostModel;
use pqo::optimizer::recost::{recost, recost_prepared, BaseConsts, PreparedRecost, RecostScratch};
use pqo::optimizer::svector::{compute_svector, instance_for_target};
use pqo::sql::emit;
use pqo::sql::DialectKind;
use pqo::workload::corpus::corpus;

const SORTS: usize = 500_000;

/// Counts what is written to it and keeps nothing.
struct Count {
    bytes: usize,
    lines: usize,
}

impl Write for Count {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes += s.len();
        self.lines += s.bytes().filter(|&b| b == b'\n').count();
        Ok(())
    }
}

#[test]
fn a_deeply_nested_decoded_plan_is_handled_without_recursion() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            // Postfix bytes: SeqScan(relation 0), then SORTS × Sort(no key).
            let mut bytes = vec![0u8, 0];
            for _ in 0..SORTS {
                bytes.extend_from_slice(&[8, 0]);
            }
            assert_eq!(bytes.len(), 1_000_002);
            assert!(bytes.len() <= 1 << 20, "within read_plan's cap");
            let compact = CompactPlan::from_bytes(bytes.clone().into_boxed_slice());
            let plan = compact
                .checked_decode()
                .expect("a deep plan is well formed");
            assert_eq!(plan.size(), SORTS + 1);

            let again = compact.checked_decode().unwrap();
            assert_eq!(plan.fingerprint(), again.fingerprint());
            drop(again);

            let spec = &corpus()[0];
            let t = &spec.template;
            assert_eq!(plan.check_template(t), Ok(()));

            let model = CostModel::default();
            let target = vec![0.3; t.dimensions()];
            let sv = compute_svector(t, &instance_for_target(t, &target));
            let arena = recost(t, &model, &plan, &sv);
            assert!(arena.is_finite() && arena > 0.0);
            let consts = BaseConsts::new(t);
            let prepared = PreparedRecost::new(t, &model, &consts, &plan);
            let mut scratch = RecostScratch::new();
            let fast = recost_prepared(&consts, &model, &prepared, &sv, &mut scratch);
            assert_eq!(fast.to_bits(), arena.to_bits());
            let bytes_path = recost_compact(t, &model, &compact, &sv);
            assert_eq!(bytes_path.to_bits(), arena.to_bits());

            let mut shown = Count { bytes: 0, lines: 0 };
            write!(shown, "{}", plan.display(t)).unwrap();
            assert_eq!(
                shown.lines,
                SORTS + 2,
                "a header line, then one per operator"
            );

            let sql = emit::render(t, &plan, DialectKind::Postgres, None);
            let alias = &t.relations[0].alias;
            assert!(
                sql.contains(&format!("-- join order: {alias}\n")),
                "{}",
                &sql[..sql.len().min(400)]
            );

            assert_eq!(CompactPlan::encode(&plan).as_bytes(), &bytes[..]);
            drop(plan);
        })
        .unwrap()
        .join()
        .unwrap();
}
