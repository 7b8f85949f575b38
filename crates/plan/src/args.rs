//! Minimal `--key value` argument parsing, and the usage texts that double
//! as the flag vocabularies unknown flags are rejected against.

use std::collections::BTreeMap;
use std::fmt;

/// CLI failure: bad usage or a propagated model error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Malformed invocation; the string is the message to print.
    Usage(String),
    /// The underlying library rejected the configuration.
    Model(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Model(m) => write!(f, "model error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<clustream_core::CoreError> for CliError {
    fn from(e: clustream_core::CoreError) -> Self {
        CliError::Model(e.to_string())
    }
}

/// A subcommand's flag vocabulary *is* its usage text: hand-wrapped
/// lines of `--flag <VALUE>` (required) and `[--flag <VALUE>]` items,
/// with free-form `(notes)`. [`ArgMap::check_known`] rejects whatever
/// the text does not name and `clustream help` prints it, so the two
/// cannot drift apart.
pub type Usage = &'static [&'static str];

/// The flag names `usage` mentions, in order.
pub fn usage_flags<'a>(usage: &'a [&'a str]) -> impl Iterator<Item = &'a str> {
    usage
        .iter()
        .flat_map(|line| line.split_whitespace())
        .filter_map(|word| word.trim_start_matches('[').strip_prefix("--"))
        .map(|flag| flag.trim_end_matches(']'))
}

/// `--a, --b, …`: every flag of `usage`, for error messages.
pub fn flag_list(usage: &[&str]) -> String {
    let names: Vec<String> = usage_flags(usage).map(|f| format!("--{f}")).collect();
    names.join(", ")
}

/// `usage` behind `head` (`clustream simulate`), under a hanging indent.
pub fn render_usage(head: &str, usage: &[&str]) -> String {
    let pad = format!("\n{}", " ".repeat(head.len() + 3));
    format!("  {head} {}\n", usage.join(&pad))
}

/// Parsed `--key value` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArgMap {
    map: BTreeMap<String, String>,
}

impl ArgMap {
    /// Parse `["--key", "value", …]`.
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --flag, got `{k}`")))?;
            let v = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("--{key} requires a value")))?;
            if map.insert(key.to_string(), v.clone()).is_some() {
                return Err(CliError::Usage(format!("--{key} given twice")));
            }
        }
        Ok(ArgMap { map })
    }

    /// Reject any flag `usage` does not name, naming it and listing the
    /// valid ones.
    pub fn check_known(&self, usage: &[&str]) -> Result<(), CliError> {
        match self
            .map
            .keys()
            .find(|k| !usage_flags(usage).any(|f| f == *k))
        {
            None => Ok(()),
            Some(k) => Err(CliError::Usage(format!(
                "unknown flag `--{k}`; valid options are: {}",
                flag_list(usage)
            ))),
        }
    }

    /// Required string value.
    pub fn required(&self, key: &str) -> Result<&str, CliError> {
        self.map
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| CliError::Usage(format!("missing required --{key}")))
    }

    /// Optional string value.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    /// Optional boolean with default (`--key true|false` — every flag
    /// takes a value in this grammar, booleans included).
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, CliError> {
        match self.optional(key) {
            None => Ok(default),
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(other) => Err(CliError::Usage(format!(
                "--{key} must be `true` or `false`, got `{other}`"
            ))),
        }
    }

    /// Optional value of any parseable type; `what` finishes the error
    /// (`--key must be <what>`).
    pub fn parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        what: &str,
    ) -> Result<Option<T>, CliError> {
        let parse = |v: &str| v.parse().ok();
        match self.optional(key).map(parse) {
            Some(None) => Err(CliError::Usage(format!("--{key} must be {what}"))),
            Some(parsed) => Ok(parsed),
            None => Ok(None),
        }
    }

    /// Required integer.
    pub fn required_usize(&self, key: &str) -> Result<usize, CliError> {
        self.required(key)?;
        self.usize_or(key, 0)
    }

    /// Optional integer with default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        Ok(self.parsed(key, "an integer")?.unwrap_or(default))
    }

    /// Optional `u64` with default (seeds, slot counts).
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, CliError> {
        Ok(self
            .parsed(key, "a non-negative integer")?
            .unwrap_or(default))
    }

    /// Optional float with default (jitter spans, tail parameters).
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, CliError> {
        Ok(self.parsed(key, "a number")?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let a = ArgMap::parse(&argv(&["--n", "100", "--d", "3"])).unwrap();
        assert_eq!(a.required("n").unwrap(), "100");
        assert_eq!(a.required_usize("d").unwrap(), 3);
        assert_eq!(a.usize_or("track", 48).unwrap(), 48);
        assert!(a.optional("missing").is_none());
    }

    #[test]
    fn rejects_malformed() {
        assert!(ArgMap::parse(&argv(&["n", "100"])).is_err());
        assert!(ArgMap::parse(&argv(&["--n"])).is_err());
        assert!(ArgMap::parse(&argv(&["--n", "1", "--n", "2"])).is_err());
        let a = ArgMap::parse(&argv(&["--n", "abc"])).unwrap();
        assert!(a.required_usize("n").is_err());
        assert!(a.required("d").is_err());
    }

    #[test]
    fn numeric_helpers_parse_and_default() {
        let a = ArgMap::parse(&argv(&["--seed", "42", "--jitter", "0.75"])).unwrap();
        assert_eq!(a.u64_or("seed", 0).unwrap(), 42);
        assert_eq!(a.u64_or("other-seed", 7).unwrap(), 7);
        assert!((a.f64_or("jitter", 0.0).unwrap() - 0.75).abs() < 1e-12);
        assert!((a.f64_or("alpha", 1.5).unwrap() - 1.5).abs() < 1e-12);

        let bad = ArgMap::parse(&argv(&["--seed", "-3", "--jitter", "fast"])).unwrap();
        assert!(bad.u64_or("seed", 0).is_err());
        assert!(bad.f64_or("jitter", 0.0).is_err());
    }
}
