//! The one tokenizer behind every comma-separated spec flag: `--kill`,
//! `--chaos`, `--scenario`, `--classes` and `plan --clusters`.
//!
//! A spec is a list of entries separated by `,`. An entry has the shape
//!
//! ```text
//! HEAD[:ARG]            where an ARG may be TARGET@START[+DUR][=PARAM]
//! ```
//!
//! [`entries`] splits a spec into [`Entry`]s, each at its first `:`;
//! [`at`] splits an `ARG` at its first `@`, what follows at its first
//! `=`, and what precedes that at its first `+`. [`split`], the one
//! first-delimiter split both use, also serves the grammars' own shapes
//! (`--kill`'s `NODE@SLOT`, `--chaos`'s `A/B` and `SLOTS~JITTER`).
//! Nothing here trims: which entries and fields a grammar trims is part
//! of that grammar. The grammars live beside their types
//! (`net::killspec`, `net::faultspec`, `workloads::scenario`,
//! `des::capacity`, `cli::commands::parse_clusters`); each is a `match`
//! on its kind over these parts, and each renders back through
//! [`push_entry`].

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// One entry of a `--<flag>` spec, split at its first `:`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<'a> {
    flag: &'static str,
    /// The whole entry, as error messages quote it.
    pub text: &'a str,
    /// Everything before the first `:` (the whole entry when it has none).
    pub head: &'a str,
    /// Everything after the first `:`, unsplit.
    pub arg: Option<&'a str>,
}

/// `TARGET@START[+DUR][=PARAM]`, split by [`at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct At<'a> {
    /// Before the first `@`.
    pub target: &'a str,
    /// After the `@`, up to the first `+` or `=`.
    pub start: &'a str,
    /// After the first `+` that precedes the first `=` after the `@`.
    pub dur: Option<&'a str>,
    /// After the first `=` after the `@`.
    pub param: Option<&'a str>,
}

/// The comma-separated entries of the `--<flag>` spec `spec`, untrimmed.
pub fn entries<'a>(flag: &'static str, spec: &'a str) -> impl Iterator<Item = Entry<'a>> {
    spec.split(',').map(move |text| Entry::new(flag, text))
}

/// `s` split at its first `sep`: what precedes it, and what follows it
/// if `s` has one.
pub fn split(s: &str, sep: char) -> (&str, Option<&str>) {
    match s.split_once(sep) {
        Some((before, after)) => (before, Some(after)),
        None => (s, None),
    }
}

/// Split `s` as `TARGET@START[+DUR][=PARAM]`; `None` without an `@`.
pub fn at(s: &str) -> Option<At<'_>> {
    let (target, when) = s.split_once('@')?;
    let (span, param) = split(when, '=');
    let (start, dur) = split(span, '+');
    Some(At {
        target,
        start,
        dur,
        param,
    })
}

impl<'a> Entry<'a> {
    fn new(flag: &'static str, text: &'a str) -> Self {
        let (head, arg) = split(text, ':');
        Entry {
            flag,
            text,
            head,
            arg,
        }
    }

    /// The same entry without its surrounding whitespace.
    pub fn trim(self) -> Self {
        Entry::new(self.flag, self.text.trim())
    }

    /// ``bad --<flag> entry `<text>`: <why>``.
    pub fn bad(&self, why: &str) -> String {
        format!("bad --{} entry `{}`: {why}", self.flag, self.text)
    }

    /// The error for an entry without the grammar's `shape`; `examples`
    /// are well-formed entries.
    pub fn expected(&self, shape: &str, examples: &str) -> String {
        self.bad(&format!(
            "expected {shape} (e.g. {examples}, comma-separated)"
        ))
    }

    /// The integer field `s` of this entry, named `what` in the error.
    pub fn int<T: FromStr>(&self, s: &str, what: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| self.bad(&format!("{what} must be a non-negative integer")))
    }
}

/// Append the entry `HEAD[:ARG][@START[+DUR]][=PARAM]` to `spec`, after a
/// `,` unless `spec` is empty: the inverse of [`entries`] and [`at`].
/// `parts` are `ARG`, `START`, `DUR` and `PARAM`, each written if present.
pub fn push_entry(spec: &mut String, head: &dyn Display, parts: [Option<&dyn Display>; 4]) {
    if !spec.is_empty() {
        spec.push(',');
    }
    let _ = write!(spec, "{head}");
    for (sep, part) in [':', '@', '+', '='].into_iter().zip(parts) {
        if let Some(part) = part {
            let _ = write!(spec, "{sep}{part}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_split_is_at_the_first_delimiter() {
        let e = entries("chaos", "drop:3@10+40=0.05,a:b:c@1=2=3+4, x").collect::<Vec<_>>();
        assert_eq!((e[0].head, e[0].arg), ("drop", Some("3@10+40=0.05")));
        assert_eq!((e[1].head, e[1].arg), ("a", Some("b:c@1=2=3+4")));
        assert_eq!((e[2].text, e[2].head, e[2].arg), (" x", " x", None));
        assert_eq!(e[2].trim().text, "x");
        let a = at(e[1].arg.unwrap()).unwrap();
        assert_eq!(
            (a.target, a.start, a.dur, a.param),
            ("b:c", "1", None, Some("2=3+4"))
        );
        let a = at("5@+1+2=").unwrap();
        assert_eq!((a.start, a.dur, a.param), ("", Some("1+2"), Some("")));
        assert_eq!(at("5"), None);
    }
}
