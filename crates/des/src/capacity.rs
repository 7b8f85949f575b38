//! Named per-node uplink capacity classes: the heterogeneity model.
//!
//! The serialized uplink gate ([`crate::UplinkGate`]) divides each
//! slot's tick budget by the sender's capacity. With a
//! [`CapacityClassPlan`] installed ([`crate::DesConfig`]
//! `.with_capacity_classes(..)`), that capacity stops being the
//! scheme's uniform `send_capacity` and becomes a per-node draw from
//! named bandwidth classes — the classic access-network mix:
//!
//! | class  | default capacity (packets/slot of uplink credit) |
//! |--------|--------------------------------------------------|
//! | fiber  | 4                                                |
//! | cable  | 2                                                |
//! | mobile | 1                                                |
//!
//! Nodes are assigned classes by a seeded zipf draw over the declared
//! class order (first class most popular), so a spec like
//! `fiber,cable,mobile` yields a majority of fiber nodes with a long
//! mobile tail, and the same seed always yields the same assignment.
//! The source is never reclassified: it keeps the scheme's capacity so
//! the stream's root uplink stays provisioned.
//!
//! Entries are split by the shared spec tokenizer
//! ([`clustream_core::spec`]); this grammar is `NAME[:CAPACITY]` with
//! both parts trimmed, e.g. `fiber,cable:3,mobile`.

use clustream_core::spec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// The valid class names, in the grammar's canonical order.
pub const VALID_CLASSES: &str = "fiber, cable, mobile";

/// Default uplink capacity for a named class, if the name is known.
pub fn default_capacity(name: &str) -> Option<usize> {
    match name {
        "fiber" => Some(4),
        "cable" => Some(2),
        "mobile" => Some(1),
        _ => None,
    }
}

/// One named capacity class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityClass {
    /// Class name (one of [`VALID_CLASSES`]).
    pub name: String,
    /// Uplink credit in packets per slot (≥ 1).
    pub capacity: usize,
}

/// A full heterogeneity spec: which classes exist and how nodes are
/// assigned to them.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityClassPlan {
    /// Declared classes, most popular first (zipf rank order).
    pub classes: Vec<CapacityClass>,
    /// Zipf exponent `s`: class at rank `k` (0-based) has weight
    /// `1/(k+1)^s`. `0.0` = uniform.
    pub zipf_exponent: f64,
    /// Seed for the per-node class draw.
    pub seed: u64,
}

impl CapacityClassPlan {
    /// Parse a comma-separated `NAME[:CAPACITY]` list. Unknown class
    /// names error listing the valid options. Zipf exponent defaults to
    /// 1.0 and seed to 0; adjust with [`CapacityClassPlan::with_zipf`] /
    /// [`CapacityClassPlan::seeded`].
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut classes = Vec::new();
        for e in spec::entries("classes", s) {
            let e = e.trim();
            let name = e.head.trim();
            let Some(default) = default_capacity(name) else {
                return Err(format!(
                    "unknown --classes capacity class `{name}`; valid classes are: {VALID_CLASSES}"
                ));
            };
            let capacity = match e.arg.map(|c| c.trim().parse::<usize>()) {
                None => default,
                Some(Ok(0)) => return Err(e.bad("CAPACITY must be at least 1")),
                Some(Ok(c)) => c,
                Some(Err(_)) => return Err(e.bad("CAPACITY must be a positive integer")),
            };
            if classes.iter().any(|c: &CapacityClass| c.name == name) {
                return Err(e.bad("class declared twice"));
            }
            classes.push(CapacityClass {
                name: name.to_string(),
                capacity,
            });
        }
        Ok(CapacityClassPlan {
            classes,
            zipf_exponent: 1.0,
            seed: 0,
        })
    }

    /// Set the zipf exponent.
    pub fn with_zipf(mut self, s: f64) -> Self {
        self.zipf_exponent = s;
        self
    }

    /// Set the assignment seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.is_empty() {
            return Err("--classes needs at least one capacity class".into());
        }
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return Err("zipf exponent must be finite and non-negative".into());
        }
        for c in &self.classes {
            if c.capacity == 0 {
                return Err(format!("class `{}` has zero capacity", c.name));
            }
        }
        Ok(())
    }

    /// Class index for every node id in `0..n_ids`, by seeded zipf draw
    /// over the declared class order. Index 0 (the source) is always
    /// class 0 but is never consulted — the engine keeps the scheme's
    /// source capacity.
    pub fn assign_classes(&self, n_ids: usize) -> Vec<usize> {
        let weights: Vec<f64> = (0..self.classes.len())
            .map(|k| 1.0 / ((k + 1) as f64).powf(self.zipf_exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        (0..n_ids)
            .map(|_| {
                let mut draw = rng.gen_range(0.0..total);
                for (k, w) in weights.iter().enumerate() {
                    if draw < *w {
                        return k;
                    }
                    draw -= w;
                }
                self.classes.len() - 1
            })
            .collect()
    }

    /// Per-node uplink capacity for every id in `0..n_ids`.
    pub fn assign(&self, n_ids: usize) -> Vec<usize> {
        self.assign_classes(n_ids)
            .into_iter()
            .map(|k| self.classes[k].capacity)
            .collect()
    }
}

impl fmt::Display for CapacityClassPlan {
    /// Render the canonical spec; `parse(format!("{plan}"))` round-trips
    /// the class list (exponent and seed travel separately).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        for c in &self.classes {
            spec::push_entry(&mut out, &c.name, [Some(&c.capacity), None, None, None]);
        }
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_overrides_parse() {
        let plan = CapacityClassPlan::parse("fiber,cable:3,mobile").unwrap();
        let caps: Vec<(String, usize)> = plan
            .classes
            .iter()
            .map(|c| (c.name.clone(), c.capacity))
            .collect();
        assert_eq!(
            caps,
            vec![
                ("fiber".into(), 4),
                ("cable".into(), 3),
                ("mobile".into(), 1)
            ]
        );
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn unknown_class_lists_valid_options() {
        let err = CapacityClassPlan::parse("fiber,dsl").unwrap_err();
        assert!(
            err.contains("unknown --classes capacity class `dsl`"),
            "{err}"
        );
        assert!(err.contains("fiber, cable, mobile"), "{err}");
    }

    #[test]
    fn malformed_entries_follow_the_error_style() {
        for (spec, needle) in [
            ("fiber:0", "CAPACITY must be at least 1"),
            ("fiber:x", "CAPACITY must be a positive integer"),
            ("fiber,fiber", "class declared twice"),
        ] {
            let err = CapacityClassPlan::parse(spec).unwrap_err();
            assert!(err.contains("bad --classes entry"), "{spec}: {err}");
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn zipf_assignment_is_seeded_and_skewed() {
        let plan = CapacityClassPlan::parse("fiber,cable,mobile")
            .unwrap()
            .seeded(7);
        let a = plan.assign_classes(10_001);
        let b = plan.assign_classes(10_001);
        assert_eq!(a, b, "same seed, same assignment");
        let mut counts = [0usize; 3];
        for &k in &a {
            counts[k] += 1;
        }
        // Zipf s=1: weights 1, 1/2, 1/3 — fiber most popular, mobile least.
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");

        let other = plan.clone().seeded(8).assign_classes(10_001);
        assert_ne!(a, other, "different seed, different assignment");
    }

    #[test]
    fn spec_round_trips() {
        let plan = CapacityClassPlan::parse("fiber:8,mobile").unwrap();
        let rendered = plan.to_string();
        assert_eq!(rendered, "fiber:8,mobile:1");
        assert_eq!(CapacityClassPlan::parse(&rendered).unwrap(), plan);
    }
}
