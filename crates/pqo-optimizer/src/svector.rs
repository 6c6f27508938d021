//! Selectivity vectors — the paper's `sVector`.
//!
//! The engine requirement of Section 4.2: *"Given a query instance qc,
//! efficiently compute and return sVector_c."* In a memoizing optimizer this
//! short-circuits the physical search phase and only runs predicate
//! selectivity derivation; here that is a histogram lookup per dimension.
//!
//! The inverse mapping ([`instance_for_target`]) is not an engine API — the
//! workload generator uses it to place instances at chosen points of the
//! selectivity space (Section 7.1's region bucketization).

use pqo_catalog::histogram::MIN_SELECTIVITY;

use crate::template::{QueryInstance, QueryTemplate, RangeOp};

/// The selectivity vector of a query instance: one selectivity per
/// parameterized predicate, each in `[MIN_SELECTIVITY, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SVector(pub Vec<f64>);

impl SVector {
    /// Dimensionality.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector is empty (0-dimensional template).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Selectivity of dimension `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    /// Per-dimension selectivity ratios `αi = si(qc) / si(qe)` of `self`
    /// (playing `qc`) relative to `other` (playing `qe`).
    pub fn ratios(&self, other: &SVector) -> Vec<f64> {
        debug_assert_eq!(self.len(), other.len());
        self.0.iter().zip(&other.0).map(|(c, e)| c / e).collect()
    }

    /// The paper's `G` and `L` factors (Section 5.3): `G = ∏_{αi>1} αi` is
    /// the net cost increment factor, `L = ∏_{αi<1} 1/αi` the net decrement
    /// factor, for `self` = qc relative to `other` = qe.
    ///
    /// ```
    /// use pqo_optimizer::svector::SVector;
    ///
    /// let qe = SVector(vec![0.10, 0.40]);
    /// let qc = SVector(vec![0.20, 0.10]); // α = (2.0, 0.25)
    /// let (g, l) = qc.g_and_l(&qe);
    /// assert_eq!(g, 2.0);
    /// assert_eq!(l, 4.0);
    /// // Theorem 1: SubOpt(Pe, qc) < G·L (= 8 here) under BCG.
    /// ```
    ///
    /// Every dimension multiplies `G` and divides `L`, by `α` or by 1:
    /// `x·1` and `x/1` are exact, so the results are those of skipping the
    /// factor, bit for bit, and the loop has no branch to mispredict on the
    /// data (a NaN `α` is neither above nor below 1 and touches neither).
    /// Always inlined, so that it is compiled into whichever build of the
    /// cached decision calls it.
    #[inline(always)]
    pub fn g_and_l(&self, other: &SVector) -> (f64, f64) {
        let mut g = 1.0;
        let mut l = 1.0;
        for (c, e) in self.0.iter().zip(&other.0) {
            let alpha = c / e;
            g *= if alpha > 1.0 { alpha } else { 1.0 };
            l /= if alpha < 1.0 { alpha } else { 1.0 };
        }
        (g, l)
    }

    /// Whether `self` dominates `other` component-wise (every selectivity
    /// >= the other's). Used by the PCM baseline.
    pub fn dominates(&self, other: &SVector) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
    }

    /// Euclidean distance in selectivity space (used by Ellipse/Density).
    pub fn distance(&self, other: &SVector) -> f64 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// Compute the selectivity vector of `instance` under `template`.
pub fn compute_svector(template: &QueryTemplate, instance: &QueryInstance) -> SVector {
    let mut sv = SVector(Vec::with_capacity(instance.values.len()));
    compute_svector_into(template, instance, &mut sv);
    sv
}

/// [`compute_svector`] into `out`, whose buffer is reused: no allocation
/// once it has held a vector of the template's arity.
pub(crate) fn compute_svector_into(
    template: &QueryTemplate,
    instance: &QueryInstance,
    out: &mut SVector,
) {
    assert_eq!(
        instance.values.len(),
        template.dimensions(),
        "instance arity does not match template `{}`",
        template.name
    );
    let sels = template
        .param_preds
        .iter()
        .zip(&instance.values)
        .map(|(p, &v)| {
            let hist = &template.relations[p.relation].table.columns[p.column]
                .stats
                .histogram;
            match p.op {
                RangeOp::Le => hist.selectivity_le(v),
                RangeOp::Ge => hist.selectivity_ge(v),
            }
        });
    out.0.clear();
    out.0.extend(sels);
}

/// Construct an instance whose selectivity vector approximates `target`
/// (inverse of [`compute_svector`], up to histogram quantization).
///
/// Parameter values are snapped to the column's distinct-value grid: real
/// parameters can only take values the column actually contains, so columns
/// with few distinct values yield few distinct selectivities. This is what
/// makes repeated selectivities (and therefore plan reuse) realistic for
/// high-dimensional templates.
pub fn instance_for_target(template: &QueryTemplate, target: &[f64]) -> QueryInstance {
    assert_eq!(target.len(), template.dimensions());
    let values = template
        .param_preds
        .iter()
        .zip(target)
        .map(|(p, &s)| {
            let s = s.clamp(MIN_SELECTIVITY, 1.0);
            let col = &template.relations[p.relation].table.columns[p.column];
            let hist = &col.stats.histogram;
            let v = match p.op {
                RangeOp::Le => hist.quantile(s),
                RangeOp::Ge => hist.quantile(1.0 - s),
            };
            snap_to_value_grid(v, hist.min(), hist.max(), col.stats.ndv)
        })
        .collect();
    QueryInstance::new(values)
}

/// Round `v` to the nearest point of a uniform `ndv`-point grid over
/// `[min, max]` — the closest synthetic stand-in for "the column contains
/// only `ndv` distinct values".
fn snap_to_value_grid(v: f64, min: f64, max: f64, ndv: u64) -> f64 {
    if ndv == 0 || max <= min {
        return v;
    }
    let step = (max - min) / ndv as f64;
    (min + ((v - min) / step).round() * step).clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::test_fixtures;
    use pqo_rand::rngs::StdRng;
    use pqo_rand::{Rng, SeedableRng};

    #[test]
    fn svector_roundtrip() {
        let t = test_fixtures::two_dim();
        let target = [0.1, 0.4];
        let inst = instance_for_target(&t, &target);
        let sv = compute_svector(&t, &inst);
        for (got, want) in sv.0.iter().zip(target) {
            assert!((got - want).abs() < 0.02, "got {got} want {want}");
        }
    }

    #[test]
    fn ge_predicates_invert_correctly() {
        let t = test_fixtures::three_dim(); // dim 2 is Ge on l_shipdate
        let inst = instance_for_target(&t, &[0.5, 0.5, 0.2]);
        let sv = compute_svector(&t, &inst);
        assert!((sv.get(2) - 0.2).abs() < 0.02, "ge sel {}", sv.get(2));
    }

    #[test]
    fn g_and_l_basic() {
        let a = SVector(vec![0.2, 0.1]);
        let b = SVector(vec![0.1, 0.2]);
        // relative to b: α = (2.0, 0.5) → G = 2, L = 2
        let (g, l) = a.g_and_l(&b);
        assert!((g - 2.0).abs() < 1e-12);
        assert!((l - 2.0).abs() < 1e-12);
        // identical vectors → G = L = 1
        let (g, l) = a.g_and_l(&a);
        assert_eq!((g, l), (1.0, 1.0));
    }

    #[test]
    fn dominates_and_distance() {
        let a = SVector(vec![0.5, 0.5]);
        let b = SVector(vec![0.4, 0.5]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&a));
        assert!((a.distance(&b) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let t = test_fixtures::two_dim();
        compute_svector(&t, &QueryInstance::new(vec![1.0]));
    }

    fn random_sv(rng: &mut StdRng, dims: usize) -> Vec<f64> {
        (0..dims).map(|_| rng.gen_range(0.001..1.0)).collect()
    }

    #[test]
    fn g_l_are_at_least_one_randomized() {
        let mut rng = StdRng::seed_from_u64(0x5ec7_0001);
        for _ in 0..256 {
            let a = random_sv(&mut rng, 4);
            let b = random_sv(&mut rng, 4);
            let (g, l) = SVector(a).g_and_l(&SVector(b));
            assert!(g >= 1.0);
            assert!(l >= 1.0);
        }
    }

    #[test]
    fn g_l_swap_roles_randomized() {
        // Swapping qc and qe swaps the roles of G and L.
        let mut rng = StdRng::seed_from_u64(0x5ec7_0002);
        for _ in 0..256 {
            let a = random_sv(&mut rng, 3);
            let b = random_sv(&mut rng, 3);
            let (g1, l1) = SVector(a.clone()).g_and_l(&SVector(b.clone()));
            let (g2, l2) = SVector(b).g_and_l(&SVector(a));
            assert!((g1 - l2).abs() < 1e-9 * g1.max(1.0));
            assert!((l1 - g2).abs() < 1e-9 * l1.max(1.0));
        }
    }

    #[test]
    fn computed_selectivities_in_unit_interval_randomized() {
        let t = test_fixtures::two_dim();
        let mut rng = StdRng::seed_from_u64(0x5ec7_0003);
        for _ in 0..64 {
            let raw: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..1.0)).collect();
            let inst = instance_for_target(&t, &raw);
            let sv = compute_svector(&t, &inst);
            for s in &sv.0 {
                assert!(*s > 0.0 && *s <= 1.0);
            }
        }
    }
}
