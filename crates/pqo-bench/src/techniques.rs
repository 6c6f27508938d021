//! Declarative technique specifications.
//!
//! Table 2 of the paper, plus every parameter variant the experiments sweep
//! (λ for SCR/PCM, plan budgets, λr, dynamic λ, and the Recost-augmented
//! heuristics of Appendix H.6).

use pqo_core::baselines::{Density, Ellipse, OptimizeAlways, OptimizeOnce, Pcm, Ranges, ReoptBind};
use pqo_core::scr::{DynamicLambda, Scr, ScrConfig};
use pqo_core::{OnlinePqo, PolicyId};

/// A buildable technique description (cheap to clone; `build` produces a
/// fresh stateful instance per sequence).
#[derive(Debug, Clone, PartialEq)]
pub enum TechSpec {
    /// Optimize every instance.
    OptAlways,
    /// Optimize only the first instance.
    OptOnce,
    /// SCR with bound λ and optional plan budget `k`.
    Scr { lambda: f64, budget: Option<usize> },
    /// SCR with an explicit λr (Appendix E sweeps this).
    ScrLambdaR { lambda: f64, lambda_r: f64 },
    /// SCR with the dynamic λ of Appendix D.
    ScrDynamic { lambda_min: f64, lambda_max: f64 },
    /// Least-expected-cost serving policy over the SCR substrate.
    Lec { lambda: f64 },
    /// Minimax-regret (penalty-aware) serving policy over the SCR
    /// substrate.
    Penalty { lambda: f64 },
    /// PCM with bound λ.
    Pcm { lambda: f64 },
    /// Ellipse heuristic with threshold Δ.
    Ellipse { delta: f64 },
    /// Density heuristic (radius 0.1, confidence 0.5 in the paper).
    Density,
    /// Ranges heuristic with a near-selectivity margin.
    Ranges { margin: f64 },
    /// Single-plan re-optimize-on-drift baseline (related work \[25\]).
    ReoptBind { threshold: f64 },
    /// Heuristics augmented with the Recost redundancy check (H.6).
    EllipseRedundant { delta: f64, lambda_r: f64 },
    /// Density + redundancy check (H.6).
    DensityRedundant { lambda_r: f64 },
    /// Ranges + redundancy check (H.6).
    RangesRedundant { margin: f64, lambda_r: f64 },
}

impl TechSpec {
    /// The paper's headline comparison set (Figures 9, 13, 16, 17):
    /// OptOnce, PCM2, Ellipse(0.9), Density, Ranges(0.01), SCR2.
    pub fn headline() -> Vec<TechSpec> {
        vec![
            TechSpec::OptOnce,
            TechSpec::Pcm { lambda: 2.0 },
            TechSpec::Ellipse { delta: 0.9 },
            TechSpec::Density,
            TechSpec::Ranges { margin: 0.01 },
            TechSpec::Scr {
                lambda: 2.0,
                budget: None,
            },
        ]
    }

    /// The λ sweep used by Figures 8, 10 and 14.
    pub fn scr_lambda_sweep() -> Vec<TechSpec> {
        [1.1, 1.2, 1.5, 2.0]
            .into_iter()
            .map(|lambda| TechSpec::Scr {
                lambda,
                budget: None,
            })
            .collect()
    }

    /// Build a fresh technique instance.
    pub fn build(&self) -> Box<dyn OnlinePqo> {
        match *self {
            TechSpec::OptAlways => Box::new(OptimizeAlways::new()),
            TechSpec::OptOnce => Box::new(OptimizeOnce::new()),
            TechSpec::Scr { lambda, budget } => {
                let mut cfg = ScrConfig::new(lambda).expect("valid sweep λ");
                cfg.plan_budget = budget;
                Box::new(Scr::with_config(cfg).expect("valid SCR spec"))
            }
            TechSpec::ScrLambdaR { lambda, lambda_r } => {
                let mut cfg = ScrConfig::new(lambda).expect("valid sweep λ");
                cfg.lambda_r = lambda_r;
                Box::new(Scr::with_config(cfg).expect("valid SCR spec"))
            }
            TechSpec::ScrDynamic {
                lambda_min,
                lambda_max,
            } => {
                let mut cfg = ScrConfig::new(lambda_min).expect("valid sweep λ");
                cfg.dynamic_lambda = Some(DynamicLambda {
                    lambda_min,
                    lambda_max,
                });
                Box::new(Scr::with_config(cfg).expect("valid SCR spec"))
            }
            TechSpec::Lec { lambda } => {
                let cfg = ScrConfig::new(lambda)
                    .expect("valid sweep λ")
                    .with_policy(PolicyId::Lec);
                Box::new(Scr::with_config(cfg).expect("valid LEC spec"))
            }
            TechSpec::Penalty { lambda } => {
                let cfg = ScrConfig::new(lambda)
                    .expect("valid sweep λ")
                    .with_policy(PolicyId::Penalty);
                Box::new(Scr::with_config(cfg).expect("valid penalty spec"))
            }
            TechSpec::Pcm { lambda } => Box::new(Pcm::new(lambda)),
            TechSpec::Ellipse { delta } => Box::new(Ellipse::new(delta)),
            TechSpec::Density => Box::new(Density::new(0.1, 0.5)),
            TechSpec::Ranges { margin } => Box::new(Ranges::new(margin)),
            TechSpec::ReoptBind { threshold } => Box::new(ReoptBind::new(threshold)),
            TechSpec::EllipseRedundant { delta, lambda_r } => {
                Box::new(Ellipse::with_redundancy(delta, lambda_r))
            }
            TechSpec::DensityRedundant { lambda_r } => {
                Box::new(Density::with_redundancy(0.1, 0.5, lambda_r))
            }
            TechSpec::RangesRedundant { margin, lambda_r } => {
                Box::new(Ranges::with_redundancy(margin, lambda_r))
            }
        }
    }

    /// Stable label used in CSV output and console tables.
    pub fn label(&self) -> String {
        match *self {
            TechSpec::OptAlways => "OptAlways".into(),
            TechSpec::OptOnce => "OptOnce".into(),
            TechSpec::Scr {
                lambda,
                budget: None,
            } => format!("SCR{lambda}"),
            TechSpec::Scr {
                lambda,
                budget: Some(k),
            } => format!("SCR{lambda}-k{k}"),
            TechSpec::ScrLambdaR { lambda, lambda_r } => format!("SCR{lambda}-lr{lambda_r:.2}"),
            TechSpec::ScrDynamic {
                lambda_min,
                lambda_max,
            } => {
                format!("SCR[{lambda_min},{lambda_max}]")
            }
            TechSpec::Lec { lambda } => format!("LEC{lambda}"),
            TechSpec::Penalty { lambda } => format!("PEN{lambda}"),
            TechSpec::Pcm { lambda } => format!("PCM{lambda}"),
            TechSpec::Ellipse { delta } => format!("Ellipse{delta}"),
            TechSpec::Density => "Density".into(),
            TechSpec::Ranges { margin } => format!("Ranges{margin}"),
            TechSpec::ReoptBind { threshold } => format!("ReoptBind{threshold}"),
            TechSpec::EllipseRedundant { delta, .. } => format!("Ellipse{delta}+R"),
            TechSpec::DensityRedundant { .. } => "Density+R".into(),
            TechSpec::RangesRedundant { margin, .. } => format!("Ranges{margin}+R"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_set_matches_paper() {
        let labels: Vec<String> = TechSpec::headline().iter().map(TechSpec::label).collect();
        assert_eq!(
            labels,
            vec![
                "OptOnce",
                "PCM2",
                "Ellipse0.9",
                "Density",
                "Ranges0.01",
                "SCR2"
            ]
        );
    }

    #[test]
    fn every_spec_builds() {
        let specs = [
            TechSpec::OptAlways,
            TechSpec::OptOnce,
            TechSpec::Scr {
                lambda: 1.5,
                budget: Some(5),
            },
            TechSpec::ScrLambdaR {
                lambda: 1.1,
                lambda_r: 1.01,
            },
            TechSpec::ScrDynamic {
                lambda_min: 1.1,
                lambda_max: 10.0,
            },
            TechSpec::Lec { lambda: 2.0 },
            TechSpec::Penalty { lambda: 2.0 },
            TechSpec::Pcm { lambda: 2.0 },
            TechSpec::Ellipse { delta: 0.7 },
            TechSpec::Density,
            TechSpec::Ranges { margin: 0.01 },
            TechSpec::ReoptBind { threshold: 4.0 },
            TechSpec::EllipseRedundant {
                delta: 0.9,
                lambda_r: 1.41,
            },
            TechSpec::DensityRedundant { lambda_r: 1.41 },
            TechSpec::RangesRedundant {
                margin: 0.01,
                lambda_r: 1.41,
            },
        ];
        for s in specs {
            let t = s.build();
            assert!(!t.name().is_empty());
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn lambda_sweep_labels() {
        let labels: Vec<String> = TechSpec::scr_lambda_sweep()
            .iter()
            .map(TechSpec::label)
            .collect();
        assert_eq!(labels, vec!["SCR1.1", "SCR1.2", "SCR1.5", "SCR2"]);
    }
}
