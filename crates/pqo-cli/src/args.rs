//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed `--key value` pairs.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

/// Flags that are booleans: bare (`--primary`) or with an explicit
/// `true`/`false`. Any other following token belongs to the *next* flag,
/// never to these — without this list, `--primary` placed before a stray
/// token would silently swallow it as its value.
const BOOLEAN_FLAGS: &[&str] = &["primary", "check"];

impl Args {
    /// Parse a flat `--key [value]` list. A key followed by another
    /// `--key` (or by nothing) is a bare boolean flag and takes the value
    /// `"true"`, so `--primary` and `--check true` both work. Keys in
    /// [`BOOLEAN_FLAGS`] only ever consume a literal `true`/`false` as
    /// their value, so they can be interleaved with valued flags in any
    /// order without misbinding the token after them.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected `--key`, got `{}`", argv[i]))?;
            let boolean = BOOLEAN_FLAGS.contains(&key);
            let value = match argv.get(i + 1) {
                Some(v) if boolean && (v == "true" || v == "false") => {
                    i += 2;
                    v.clone()
                }
                Some(v) if !boolean && !v.starts_with("--") => {
                    i += 2;
                    v.clone()
                }
                _ => {
                    i += 1;
                    "true".to_string()
                }
            };
            if values.insert(key.to_string(), value).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(Args { values })
    }

    /// Required argument.
    pub fn get(&self, key: &str) -> Result<String, String> {
        self.values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Optional argument.
    pub fn opt(&self, key: &str) -> Option<String> {
        self.values.get(key).cloned()
    }

    /// Optional argument parsed as `T`, `default` when absent; a value that
    /// does not parse is an error naming the flag.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.values.get(key) {
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
            None => Ok(default),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let a = Args::parse(&s(&["--template", "x", "--m", "100"])).unwrap();
        assert_eq!(a.get("template").unwrap(), "x");
        assert_eq!(a.opt("m"), Some("100".into()));
        assert_eq!(a.opt("missing"), None);
        assert!(a.get("missing").is_err());
        assert_eq!(a.parse_or("m", 7usize), Ok(100));
        assert_eq!(a.parse_or("missing", 7usize), Ok(7));
        let err = a.parse_or("template", 7usize).unwrap_err();
        assert!(err.starts_with("--template: "), "{err}");
    }

    #[test]
    fn rejects_bare_values_and_duplicate_keys() {
        assert!(Args::parse(&s(&["template", "x"])).is_err());
        assert!(Args::parse(&s(&["--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn bare_flags_read_as_true() {
        let a = Args::parse(&s(&["--primary", "--check", "--m", "10"])).unwrap();
        assert_eq!(a.get("primary").unwrap(), "true");
        assert_eq!(a.get("check").unwrap(), "true");
        assert_eq!(a.get("m").unwrap(), "10");
        // Trailing bare flag.
        let a = Args::parse(&s(&["--m", "10", "--primary"])).unwrap();
        assert_eq!(a.get("primary").unwrap(), "true");
    }

    #[test]
    fn boolean_flags_interleave_with_valued_flags_in_any_order() {
        // Regression: every ordering of a bare boolean among valued flags
        // must bind the same way.
        for argv in [
            &["--primary", "--listen", "127.0.0.1:0", "--m", "10"][..],
            &["--listen", "127.0.0.1:0", "--primary", "--m", "10"][..],
            &["--listen", "127.0.0.1:0", "--m", "10", "--primary"][..],
        ] {
            let a = Args::parse(&s(argv)).unwrap();
            assert_eq!(a.get("primary").unwrap(), "true", "argv {argv:?}");
            assert_eq!(a.get("listen").unwrap(), "127.0.0.1:0", "argv {argv:?}");
            assert_eq!(a.get("m").unwrap(), "10", "argv {argv:?}");
        }
        // Explicit boolean values still bind.
        let a = Args::parse(&s(&["--check", "false", "--m", "10", "--primary", "true"])).unwrap();
        assert_eq!(a.get("check").unwrap(), "false");
        assert_eq!(a.get("primary").unwrap(), "true");
        assert_eq!(a.get("m").unwrap(), "10");
    }

    #[test]
    fn boolean_flags_never_swallow_a_stray_token() {
        // Regression: `--primary` used to misbind a following non-boolean
        // token as its value; now the token is left over and diagnosed.
        let err = Args::parse(&s(&["--primary", "oops", "--m", "10"])).unwrap_err();
        assert!(err.contains("oops"), "undiagnosable error: {err}");
    }
}
