//! Minimal `--key value` / `--switch` argument parsing, and the usage
//! texts that double as the flag vocabularies (names and arities) flags
//! are checked against.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::RangeInclusive;

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
/// with free-form `(notes)`. An item with no `<VALUE>` after its name,
/// `[--flag]`, is a switch. [`ArgMap::check_known`] rejects whatever the
/// text does not name, or gives the wrong arity, and `clustream help`
/// prints it, so the two cannot drift apart.
pub type Usage = &'static [&'static str];

/// The flags `usage` mentions, in order, each with whether it is a
/// switch (no `<VALUE>` follows its name).
fn usage_items<'a>(usage: &'a [&'a str]) -> impl Iterator<Item = (&'a str, bool)> {
    usage.iter().flat_map(|line| {
        let next = line.split_whitespace().skip(1).map(Some).chain([None]);
        line.split_whitespace()
            .zip(next)
            .filter_map(|(word, next)| {
                let flag = word.trim_start_matches('[').strip_prefix("--")?;
                let switch = word.ends_with(']') || !next.is_some_and(|v| v.starts_with('<'));
                Some((flag.trim_end_matches(']'), switch))
            })
    })
}

/// The flag names `usage` mentions, in order.
pub fn usage_flags<'a>(usage: &'a [&'a str]) -> impl Iterator<Item = &'a str> {
    usage_items(usage).map(|(flag, _)| flag)
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

/// Parsed `--key value` pairs and valueless `--switch`es.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArgMap {
    /// Each flag given, with its value; `None` for a switch.
    map: BTreeMap<String, Option<String>>,
}

impl ArgMap {
    /// Parse `["--key", "value", "--switch", …]`. A `--key` followed by
    /// nothing or by another `--…` token is a switch; which flags may be
    /// switches is the usage text's to say ([`ArgMap::check_known`]).
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut map = BTreeMap::new();
        let mut it = argv.iter().peekable();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --flag, got `{k}`")))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            if map.insert(key.to_string(), value).is_some() {
                return Err(CliError::Usage(format!("--{key} given twice")));
            }
        }
        Ok(ArgMap { map })
    }

    /// Reject any flag `usage` does not name, naming it and listing the
    /// valid ones, and any flag given with the wrong arity: a valued flag
    /// with no value, a switch with one.
    pub fn check_known(&self, usage: &[&str]) -> Result<(), CliError> {
        for (key, value) in &self.map {
            let msg = match usage_items(usage).find(|(f, _)| f == key) {
                None => format!(
                    "unknown flag `--{key}`; valid options are: {}",
                    flag_list(usage)
                ),
                Some((_, false)) if value.is_none() => format!("--{key} requires a value"),
                Some((_, true)) if value.is_some() => format!("--{key} takes no value"),
                Some(_) => continue,
            };
            return Err(CliError::Usage(msg));
        }
        Ok(())
    }

    /// Whether the switch `--key` was given.
    pub fn switch(&self, key: &str) -> bool {
        matches!(self.map.get(key), Some(None))
    }

    /// Required string value.
    pub fn required(&self, key: &str) -> Result<&str, CliError> {
        match self.map.get(key) {
            Some(Some(v)) => Ok(v),
            Some(None) => Err(CliError::Usage(format!("--{key} requires a value"))),
            None => Err(CliError::Usage(format!("missing required --{key}"))),
        }
    }

    /// Optional string value.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.map.get(key)?.as_deref()
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

    /// Optional integer in `range`; anything else is `--key must be an
    /// integer in LO..=HI`.
    pub fn int_in<T>(&self, key: &str, range: RangeInclusive<T>) -> Result<Option<T>, CliError>
    where
        T: std::str::FromStr + PartialOrd + fmt::Display,
    {
        let what = format!("an integer in {}..={}", range.start(), range.end());
        match self.parsed(key, &what)? {
            Some(v) if !range.contains(&v) => {
                Err(CliError::Usage(format!("--{key} must be {what}")))
            }
            v => Ok(v),
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
        assert!(ArgMap::parse(&argv(&["--n", "1", "2"])).is_err());
        assert!(ArgMap::parse(&argv(&["--n", "1", "--n", "2"])).is_err());
        let a = ArgMap::parse(&argv(&["--n", "abc"])).unwrap();
        assert!(a.required_usize("n").is_err());
        assert!(a.required("d").is_err());
    }

    #[test]
    fn the_usage_text_gives_each_flag_its_arity() {
        const USAGE: Usage = &["--n <N> [--d <D>] [--quiet]", "[--fast] --verbose (a note)"];
        let items: Vec<_> = usage_items(USAGE).collect();
        assert_eq!(
            items,
            [
                ("n", false),
                ("d", false),
                ("quiet", true),
                ("fast", true),
                ("verbose", true)
            ]
        );
        let check = |s: &[&str]| {
            ArgMap::parse(&argv(s))
                .and_then(|a| a.check_known(USAGE).map(|()| a))
                .map_err(|e| e.to_string())
        };
        let a = check(&["--quiet", "--n", "5", "--fast"]).unwrap();
        assert!(a.switch("quiet") && a.switch("fast") && !a.switch("verbose"));
        assert_eq!(a.optional("n"), Some("5"));
        assert_eq!(
            check(&["--n", "5", "--d"]).unwrap_err(),
            "usage error: --d requires a value"
        );
        assert_eq!(
            check(&["--n", "--quiet"]).unwrap_err(),
            "usage error: --n requires a value"
        );
        assert_eq!(
            check(&["--quiet", "yes"]).unwrap_err(),
            "usage error: --quiet takes no value"
        );
        // Unchecked, a valued flag given bare holds no value.
        let bare = ArgMap::parse(&argv(&["--n"])).unwrap();
        assert!(bare.required("n").is_err());
        assert_eq!(bare.optional("n"), None);
    }

    #[test]
    fn ranged_integers_name_their_range() {
        let a = ArgMap::parse(&argv(&["--k", "7", "--big", "4294967296"])).unwrap();
        assert_eq!(a.int_in("k", 1..=7usize).unwrap(), Some(7));
        assert_eq!(a.int_in("absent", 1..=7usize).unwrap(), None);
        assert_eq!(
            a.int_in("k", 1..=6usize).unwrap_err().to_string(),
            "usage error: --k must be an integer in 1..=6"
        );
        assert_eq!(
            a.int_in("big", 0..=u32::MAX).unwrap_err().to_string(),
            "usage error: --big must be an integer in 0..=4294967295"
        );
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
