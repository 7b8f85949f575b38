//! `--kill` specification parsing: which nodes the orchestrator SIGKILLs
//! and at which stream slot.
//!
//! The format is a comma-separated list of `NODE@SLOT` entries, e.g.
//! `5@40` or `5@40,9@60`, split by the shared spec tokenizer
//! ([`clustream_core::spec`]). Node 0 is the source and cannot be killed
//! (the stream has nothing to recover from without its producer), and a
//! node may be killed at most once.

use clustream_core::spec;

/// One scheduled kill: SIGKILL `node`'s process when the wall clock
/// reaches stream slot `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The victim node id (never 0).
    pub node: u32,
    /// The stream slot at which the kill fires.
    pub slot: u64,
}

/// Parse a comma-separated `NODE@SLOT` list. Errors name the offending
/// entry and restate the expected format.
pub fn parse_kill_spec(s: &str) -> Result<Vec<KillSpec>, String> {
    let mut kills = Vec::new();
    for e in spec::entries("kill", s) {
        let e = e.trim();
        let (node, Some(slot)) = spec::split(e.text, '@') else {
            return Err(e.expected("NODE@SLOT", "5@40"));
        };
        let node: u32 = e.int(node, "NODE")?;
        let slot: u64 = e.int(slot, "SLOT")?;
        if node == 0 {
            return Err("bad --kill entry: node 0 is the source and cannot be killed".into());
        }
        if kills.iter().any(|k: &KillSpec| k.node == node) {
            return Err(format!("bad --kill spec: node {node} is killed twice"));
        }
        kills.push(KillSpec { node, slot });
    }
    Ok(kills)
}

/// Render a kill list back to the `--kill` syntax (the proptest
/// round-trip partner of [`parse_kill_spec`]).
pub fn format_kill_spec(kills: &[KillSpec]) -> String {
    let mut out = String::new();
    for k in kills {
        spec::push_entry(&mut out, &k.node, [None, Some(&k.slot), None, None]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_single_and_multiple() {
        assert_eq!(
            parse_kill_spec("5@40").unwrap(),
            vec![KillSpec { node: 5, slot: 40 }]
        );
        assert_eq!(
            parse_kill_spec("5@40, 9@60").unwrap(),
            vec![
                KillSpec { node: 5, slot: 40 },
                KillSpec { node: 9, slot: 60 }
            ]
        );
    }

    #[test]
    fn errors_name_the_entry_and_the_format() {
        for bad in ["", "5", "5@", "@4", "x@4", "5@y", "5@40;9@60"] {
            let err = parse_kill_spec(bad).unwrap_err();
            assert!(err.contains("bad --kill"), "`{bad}` → {err}");
        }
        let err = parse_kill_spec("7@1,bogus").unwrap_err();
        assert!(err.contains("`bogus`"), "{err}");
        assert!(err.contains("NODE@SLOT"), "{err}");
    }

    #[test]
    fn source_and_duplicates_rejected() {
        let err = parse_kill_spec("0@5").unwrap_err();
        assert!(err.contains("source"), "{err}");
        let err = parse_kill_spec("3@5,3@9").unwrap_err();
        assert!(err.contains("killed twice"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// format → parse is the identity on any valid kill list.
        #[test]
        fn roundtrips(
            raw in proptest::collection::vec((1u32..500, 0u64..10_000), 1..6),
        ) {
            // Deduplicate nodes (the grammar forbids repeats).
            let mut kills: Vec<KillSpec> = Vec::new();
            for (node, slot) in raw {
                if !kills.iter().any(|k| k.node == node) {
                    kills.push(KillSpec { node, slot });
                }
            }
            let rendered = format_kill_spec(&kills);
            prop_assert_eq!(parse_kill_spec(&rendered).unwrap(), kills);
        }
    }
}
