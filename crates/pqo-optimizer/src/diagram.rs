//! Plan diagrams (Reddy & Haritsa, "Analyzing plan diagrams of database
//! query optimizers" — the paper's reference \[18\]).
//!
//! A plan diagram is the partition of the selectivity space into regions by
//! optimal plan choice. The PQO literature leans on its structure: the
//! paper cites \[18\] for the observation that *"low cost regions typically
//! have small selectivity regions and high plan density"* (the motivation
//! for dynamic λ, Appendix D). This module computes diagrams over a grid —
//! as an analysis/visualization tool and to quantify plan density for
//! tests and experiments.

use std::collections::BTreeMap;

use crate::cost::CostModel;
use crate::optimizer::PreparedOptimize;
use crate::plan::PlanFingerprint;
use crate::recost::BaseConsts;
use crate::svector::SVector;
use crate::template::QueryTemplate;

/// A computed plan diagram over a 2-d log-spaced selectivity grid (higher
/// dimensions are diagrammed over the first two dimensions with the rest
/// pinned).
#[derive(Debug)]
pub struct PlanDiagram {
    /// Grid resolution per axis.
    pub resolution: usize,
    /// Selectivity of each grid line (log-spaced), per axis.
    pub grid: Vec<f64>,
    /// `cells[y * resolution + x]` = optimal plan at `(grid[x], grid[y])`.
    pub cells: Vec<PlanFingerprint>,
    /// Optimal cost per cell, parallel to `cells`.
    pub costs: Vec<f64>,
}

impl PlanDiagram {
    /// Compute the diagram of `template` on a `resolution × resolution`
    /// grid spanning selectivities `[lo, hi]` (log-spaced) in the first two
    /// dimensions; remaining dimensions are pinned to `pin`.
    ///
    /// # Panics
    /// Panics if the template has fewer than 2 dimensions, or the bounds
    /// are not `0 < lo < hi <= 1`.
    pub fn compute(
        template: &QueryTemplate,
        model: &CostModel,
        resolution: usize,
        lo: f64,
        hi: f64,
        pin: f64,
    ) -> Self {
        assert!(template.dimensions() >= 2, "plan diagrams need d >= 2");
        assert!(resolution >= 2);
        assert!(lo > 0.0 && lo < hi && hi <= 1.0);
        let d = template.dimensions();
        let grid: Vec<f64> = (0..resolution)
            .map(|i| lo * (hi / lo).powf(i as f64 / (resolution - 1) as f64))
            .collect();
        let consts = BaseConsts::new(template);
        let prepared = PreparedOptimize::new(template, model, &consts);
        let mut cells = Vec::with_capacity(resolution * resolution);
        let mut costs = Vec::with_capacity(resolution * resolution);
        for &s2 in &grid {
            for &s1 in &grid {
                let mut sels = vec![pin; d];
                sels[0] = s1;
                sels[1] = s2;
                let r = prepared.run(template, model, &consts, &SVector(sels));
                cells.push(r.plan.fingerprint());
                costs.push(r.cost);
            }
        }
        PlanDiagram {
            resolution,
            grid,
            cells,
            costs,
        }
    }

    /// Number of distinct plans in the diagram — the paper's plan density.
    pub fn distinct_plans(&self) -> usize {
        let mut fps: Vec<_> = self.cells.clone();
        fps.sort();
        fps.dedup();
        fps.len()
    }

    /// Fraction of the grid covered by each plan, descending.
    pub fn coverage(&self) -> Vec<(PlanFingerprint, f64)> {
        let mut counts: BTreeMap<PlanFingerprint, usize> = BTreeMap::new();
        for &fp in &self.cells {
            *counts.entry(fp).or_insert(0) += 1;
        }
        let total = self.cells.len() as f64;
        let mut out: Vec<(PlanFingerprint, f64)> = counts
            .into_iter()
            .map(|(fp, c)| (fp, c as f64 / total))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }

    /// Plan density per cost decile: for each of the 10 cost bands (by
    /// cell-cost quantile), the number of distinct plans whose region
    /// intersects the band. Reference \[18\]'s observation predicts density
    /// skewed towards the low-cost bands.
    pub fn density_by_cost_decile(&self) -> Vec<usize> {
        let mut sorted = self.costs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let bound =
            |q: f64| sorted[((q * (sorted.len() - 1) as f64) as usize).min(sorted.len() - 1)];
        (0..10)
            .map(|dec| {
                let (lo, hi) = (bound(dec as f64 / 10.0), bound((dec + 1) as f64 / 10.0));
                let mut fps: Vec<_> = self
                    .cells
                    .iter()
                    .zip(&self.costs)
                    .filter(|(_, &c)| c >= lo && c <= hi)
                    .map(|(&fp, _)| fp)
                    .collect();
                fps.sort();
                fps.dedup();
                fps.len()
            })
            .collect()
    }

    /// ASCII rendering: each distinct plan gets a letter, cells are printed
    /// row-major with selectivity increasing rightwards/upwards.
    pub fn render_ascii(&self) -> String {
        let coverage = self.coverage();
        let letter = |fp: PlanFingerprint| -> char {
            let idx = coverage.iter().position(|&(f, _)| f == fp).unwrap_or(0);
            if idx < 26 {
                (b'A' + idx as u8) as char
            } else {
                '#'
            }
        };
        let mut out = String::new();
        for y in (0..self.resolution).rev() {
            for x in 0..self.resolution {
                out.push(letter(self.cells[y * self.resolution + x]));
                out.push(' ');
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::test_fixtures;

    fn diagram(res: usize) -> PlanDiagram {
        let t = test_fixtures::two_dim();
        PlanDiagram::compute(&t, &CostModel::default(), res, 0.001, 1.0, 0.05)
    }

    #[test]
    fn diagram_has_full_grid() {
        let d = diagram(12);
        assert_eq!(d.cells.len(), 144);
        assert_eq!(d.costs.len(), 144);
        assert_eq!(d.grid.len(), 12);
        assert!(
            d.grid.windows(2).all(|w| w[0] < w[1]),
            "grid must be increasing"
        );
    }

    #[test]
    fn multiple_plan_regions_exist() {
        let d = diagram(16);
        assert!(d.distinct_plans() >= 3, "only {} plans", d.distinct_plans());
        let cov = d.coverage();
        let total: f64 = cov.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(
            cov[0].1 >= cov[cov.len() - 1].1,
            "coverage must be sorted descending"
        );
    }

    #[test]
    fn density_deciles_cover_every_plan() {
        // Structural sanity of the density profile (whether density skews
        // low-cost, as reference [18] observes for SQL Server, depends on
        // the cost surface; our fixture is roughly balanced). Every decile
        // is non-empty and every plan intersects at least one decile.
        let d = diagram(24);
        let dens = d.density_by_cost_decile();
        assert_eq!(dens.len(), 10);
        assert!(dens.iter().all(|&n| n >= 1), "{dens:?}");
        let max_band = dens.iter().copied().max().unwrap();
        assert!(max_band <= d.distinct_plans());
        let total: usize = dens.iter().sum();
        assert!(
            total >= d.distinct_plans(),
            "each plan must appear in some decile"
        );
    }

    #[test]
    fn ascii_rendering_shape() {
        let d = diagram(8);
        let s = d.render_ascii();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines.iter().all(|l| l.len() == 16));
        assert!(s.contains('A'), "most common plan must appear");
    }

    #[test]
    #[should_panic(expected = "d >= 2")]
    fn one_dimensional_template_rejected() {
        let t = test_fixtures::one_rel();
        let _ = PlanDiagram::compute(&t, &CostModel::default(), 4, 0.01, 1.0, 0.1);
    }
}
