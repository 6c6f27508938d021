//! The workspace-wide typed error for public serving APIs.
//!
//! Policy (see DESIGN.md "Serving layer"): *misuse of a public API returns a
//! typed error; panics are reserved for internal cache/memo invariants.*
//! [`PqoError`] lives in this crate — the lowest layer that both the
//! optimizer substrate and `pqo-core`'s serving stack can name — so one
//! error type flows unchanged from `TemplateBuilder::try_build` all the way
//! up through `PqoService::get_plan`.

/// Error returned by public entry points across `pqo-optimizer` and
/// `pqo-core` instead of panicking on misuse.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PqoError {
    /// `get_plan`/lookup named a template that was never registered.
    UnknownTemplate {
        /// The unregistered name.
        name: String,
    },
    /// `register` named a template that is already registered.
    DuplicateTemplate {
        /// The already-registered name.
        name: String,
    },
    /// A sub-optimality bound outside `[1, ∞)` (or non-finite).
    InvalidLambda {
        /// The rejected value.
        lambda: f64,
        /// Which knob was invalid (`"λ"`, `"λr"`, `"dynamic λ"`).
        what: &'static str,
    },
    /// A plan budget of zero (a cache must be allowed to hold one plan).
    InvalidBudget {
        /// The rejected budget.
        budget: usize,
    },
    /// A structurally invalid query template (disconnected join graph,
    /// unknown column, too many relations, ...).
    InvalidTemplate {
        /// Template name.
        name: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A query instance that does not fit its template: the wrong number of
    /// parameter values, or a value that is not finite. Instances arrive
    /// from outside the program (the wire, an embedding engine), so serving
    /// entry points check them before deriving selectivities.
    InvalidInstance {
        /// The template the instance was offered to.
        template: String,
        /// What is wrong with it.
        reason: String,
    },
    /// Loading or saving persisted cache state failed.
    Persist {
        /// Human-readable cause (I/O failure, bad header, corrupt section).
        message: String,
    },
    /// A snapshot or replication stream was produced under a different
    /// plan-selection policy than this service runs: a retired `lec` or
    /// `penalty` cache, where the service runs `scr`. Policies shape cache
    /// contents (which plans are admitted, which entries survive), so
    /// serving another policy's cache would void the guarantee; the
    /// mismatch is a typed error the operator must resolve explicitly.
    PolicyMismatch {
        /// The policy this service is configured with.
        expected: String,
        /// The policy carried by the snapshot or stream.
        found: String,
    },
}

impl std::fmt::Display for PqoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PqoError::UnknownTemplate { name } => {
                write!(f, "template `{name}` is not registered")
            }
            PqoError::DuplicateTemplate { name } => {
                write!(f, "template `{name}` is already registered")
            }
            PqoError::InvalidLambda { lambda, what } => {
                write!(
                    f,
                    "invalid {what} = {lambda}: bounds must be finite and ≥ 1 (λr ≥ 0)"
                )
            }
            PqoError::InvalidBudget { budget } => {
                write!(f, "invalid plan budget {budget}: must be ≥ 1")
            }
            PqoError::InvalidTemplate { name, reason } => {
                write!(f, "invalid template `{name}`: {reason}")
            }
            PqoError::InvalidInstance { template, reason } => {
                write!(f, "invalid instance of template `{template}`: {reason}")
            }
            PqoError::Persist { message } => write!(f, "persistence error: {message}"),
            PqoError::PolicyMismatch { expected, found } => write!(
                f,
                "policy mismatch: this service runs `{expected}` but the snapshot/stream carries `{found}`"
            ),
        }
    }
}

impl std::error::Error for PqoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = PqoError::UnknownTemplate { name: "q42".into() };
        assert!(e.to_string().contains("q42"));
        let e = PqoError::InvalidLambda {
            lambda: 0.5,
            what: "λ",
        };
        assert!(e.to_string().contains("0.5"));
        let e = PqoError::DuplicateTemplate {
            name: "dash".into(),
        };
        assert!(e.to_string().contains("already"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(PqoError::InvalidBudget { budget: 0 });
        assert!(e.to_string().contains("budget"));
    }

    /// Every variant (the wire layer maps each to a stable error code, so
    /// none may regress silently): `Display` names the offending input,
    /// and the message style is consistent — lowercase start, no trailing
    /// period, single line.
    #[test]
    fn every_variant_displays_consistently() {
        let variants: Vec<(PqoError, &str)> = vec![
            (PqoError::UnknownTemplate { name: "q7".into() }, "q7"),
            (PqoError::DuplicateTemplate { name: "q7".into() }, "q7"),
            (
                PqoError::InvalidLambda {
                    lambda: 0.25,
                    what: "λr",
                },
                "0.25",
            ),
            (PqoError::InvalidBudget { budget: 0 }, "0"),
            (
                PqoError::InvalidTemplate {
                    name: "bad".into(),
                    reason: "disconnected join graph".into(),
                },
                "disconnected join graph",
            ),
            (
                PqoError::InvalidInstance {
                    template: "q7".into(),
                    reason: "takes 2 parameters, got 3".into(),
                },
                "got 3",
            ),
            (
                PqoError::Persist {
                    message: "bad magic".into(),
                },
                "bad magic",
            ),
            (
                PqoError::PolicyMismatch {
                    expected: "scr".into(),
                    found: "lec".into(),
                },
                "lec",
            ),
        ];
        for (e, offender) in variants {
            let msg = e.to_string();
            assert!(msg.contains(offender), "{e:?}: `{msg}` omits `{offender}`");
            assert!(
                msg.chars().next().is_some_and(char::is_lowercase),
                "{e:?}: `{msg}` should start lowercase"
            );
            assert!(!msg.ends_with('.'), "{e:?}: `{msg}` has a trailing period");
            assert!(!msg.contains('\n'), "{e:?}: `{msg}` spans lines");
            // The blanket Error impl has no source; the Display text is the
            // whole story, so it must not be empty after the prefix.
            let boxed: Box<dyn std::error::Error> = Box::new(e);
            assert!(boxed.source().is_none());
        }
    }
}
