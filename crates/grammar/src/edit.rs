//! Grammar editing operations (paper §3.2/§5.3).
//!
//! "This query pool size is controlled by the project owner. Grammar
//! rules can be fused to reduce the search space by editing the grammar
//! directly" and "in case the grammar produces too many semantic
//! incorrect queries or leads to exorbitant large space, a manual edit of
//! the grammar is called for, e.g., some alternatives can be removed by
//! making join-paths explicit."
//!
//! Every operation validates its preconditions and leaves the grammar in
//! a state that still passes [`crate::validate()`].

use crate::ast::{Alternative, Element, Grammar};
use std::fmt;

/// An editing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    UnknownRule(String),
    UnknownLiteral { class: String, index: usize },
    NotLexical(String),
    /// Removing the last alternative would leave an underivable rule.
    WouldEmptyRule(String),
    /// The edit would break validation (message from the report).
    WouldInvalidate(String),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownRule(r) => write!(f, "unknown rule {r}"),
            EditError::UnknownLiteral { class, index } => {
                write!(f, "class {class} has no literal #{index}")
            }
            EditError::NotLexical(r) => write!(f, "rule {r} is not a lexical class"),
            EditError::WouldEmptyRule(r) => {
                write!(f, "removing the last alternative of {r}")
            }
            EditError::WouldInvalidate(m) => write!(f, "edit breaks the grammar: {m}"),
        }
    }
}

impl std::error::Error for EditError {}

impl Grammar {
    /// Remove one literal from a lexical class, shrinking the space.
    pub fn remove_literal(&mut self, class: &str, index: usize) -> Result<(), EditError> {
        let rule = self
            .rule_mut(class)
            .ok_or_else(|| EditError::UnknownRule(class.to_string()))?;
        if !rule.is_lexical() {
            return Err(EditError::NotLexical(class.to_string()));
        }
        if index >= rule.alternatives.len() {
            return Err(EditError::UnknownLiteral {
                class: class.to_string(),
                index,
            });
        }
        if rule.alternatives.len() == 1 {
            return Err(EditError::WouldEmptyRule(class.to_string()));
        }
        rule.alternatives.remove(index);
        // Dialect sections shadow literals positionally; drop the same slot.
        for alts in rule.dialects.values_mut() {
            if index < alts.len() {
                alts.remove(index);
            }
        }
        Ok(())
    }

    /// Remove one alternative from a structural rule (e.g. dropping a
    /// join-path the owner wants fixed).
    pub fn remove_alternative(&mut self, name: &str, index: usize) -> Result<(), EditError> {
        let probe = self.clone();
        {
            let rule = self
                .rule_mut(name)
                .ok_or_else(|| EditError::UnknownRule(name.to_string()))?;
            if index >= rule.alternatives.len() {
                return Err(EditError::UnknownLiteral {
                    class: name.to_string(),
                    index,
                });
            }
            if rule.alternatives.len() == 1 {
                return Err(EditError::WouldEmptyRule(name.to_string()));
            }
            rule.alternatives.remove(index);
        }
        // Dropping an alternative can orphan rules it alone referenced;
        // prune those, then re-validate.
        self.prune_dead();
        let report = self.check();
        if !report.is_ok() {
            *self = probe;
            return Err(EditError::WouldInvalidate(report.to_string()));
        }
        Ok(())
    }

    /// Fuse lexical class `src` into `dst`: `dst` gains `src`'s literals,
    /// every reference to `src` is rewritten to `dst`, and `src` is
    /// removed. This is the paper's space-reduction fuse — afterwards the
    /// two classes share one literal-once budget.
    pub fn fuse_classes(&mut self, dst: &str, src: &str) -> Result<(), EditError> {
        if dst == src {
            return Ok(());
        }
        for name in [dst, src] {
            let rule = self
                .rule(name)
                .ok_or_else(|| EditError::UnknownRule(name.to_string()))?;
            if !rule.is_lexical() {
                return Err(EditError::NotLexical(name.to_string()));
            }
        }
        let moved = self.rule(src).expect("checked above").alternatives.clone();
        self.rule_mut(dst)
            .expect("checked above")
            .alternatives
            .extend(moved);
        // Rewrite references and drop the source class.
        for rule in &mut self.rules {
            for alt in rule
                .alternatives
                .iter_mut()
                .chain(rule.dialects.values_mut().flatten())
            {
                for e in &mut alt.elements {
                    if let Element::Ref { name, .. } = e {
                        if name == src {
                            *name = dst.to_string();
                        }
                    }
                }
            }
        }
        self.rules.retain(|r| r.name != src);
        Ok(())
    }

    /// Add a literal to a lexical class (expanding the space — e.g. a new
    /// predicate constant the owner wants explored).
    pub fn add_literal(&mut self, class: &str, text: &str) -> Result<usize, EditError> {
        let rule = self
            .rule_mut(class)
            .ok_or_else(|| EditError::UnknownRule(class.to_string()))?;
        if !rule.is_lexical() {
            return Err(EditError::NotLexical(class.to_string()));
        }
        rule.alternatives
            .push(Alternative::new(vec![Element::text(text)]));
        Ok(rule.alternatives.len() - 1)
    }

    /// Drop rules unreachable from the start rule (used after edits).
    pub fn prune_dead(&mut self) {
        let report = self.check();
        if report.dead.is_empty() {
            return;
        }
        self.rules.retain(|r| !report.dead.contains(&r.name));
        // Pruning can cascade (a dead rule kept another alive).
        self.prune_dead();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::template::space_report;

    fn fig1() -> Grammar {
        parse(crate::FIG1_GRAMMAR).unwrap()
    }

    #[test]
    fn remove_literal_shrinks_space() {
        let mut g = fig1();
        assert_eq!(space_report(&g, 1000).unwrap().space, 32);
        g.remove_literal("l_column", 3).unwrap(); // drop n_comment
        assert!(g.check().is_ok());
        // projection: count path 2; column paths Σ C(3,k)·2 = 14 → 16.
        assert_eq!(space_report(&g, 1000).unwrap().space, 16);
        assert!(!g.to_string().contains("n_comment"));
    }

    #[test]
    fn remove_literal_errors() {
        let mut g = fig1();
        assert!(matches!(
            g.remove_literal("nope", 0),
            Err(EditError::UnknownRule(_))
        ));
        assert!(matches!(
            g.remove_literal("l_column", 9),
            Err(EditError::UnknownLiteral { .. })
        ));
        assert!(matches!(
            g.remove_literal("projection", 0),
            Err(EditError::NotLexical(_))
        ));
        assert!(matches!(
            g.remove_literal("l_count", 0),
            Err(EditError::WouldEmptyRule(_))
        ));
    }

    #[test]
    fn remove_alternative_prunes_orphans() {
        let mut g = fig1();
        // Dropping the count(*) alternative orphans l_count.
        g.remove_alternative("projection", 0).unwrap();
        assert!(g.check().is_ok());
        assert!(g.rule("l_count").is_none(), "orphan should be pruned");
        // Space: column paths only: Σ C(4,k) × 2 = 30.
        assert_eq!(space_report(&g, 1000).unwrap().space, 30);
    }

    #[test]
    fn remove_last_alternative_rejected() {
        let mut g = fig1();
        assert!(matches!(
            g.remove_alternative("query", 0),
            Err(EditError::WouldEmptyRule(_))
        ));
    }

    #[test]
    fn fuse_classes_merges_budgets() {
        let mut g = parse(
            "q:\n    ${l_a} ${l_b}\nl_a:\n    x\n    y\nl_b:\n    u\n    v\n",
        )
        .unwrap();
        // Before: choose 1 of 2 × 1 of 2 = 4.
        assert_eq!(space_report(&g, 100).unwrap().space, 4);
        g.fuse_classes("l_a", "l_b").unwrap();
        assert!(g.check().is_ok());
        assert!(g.rule("l_b").is_none());
        assert_eq!(g.class_size("l_a"), 4);
        // After: two slots over one 4-literal class = C(4,2) counted once
        // per multiset template = 6.
        assert_eq!(space_report(&g, 100).unwrap().space, 6);
    }

    #[test]
    fn fuse_rejects_structural_rules() {
        let mut g = fig1();
        assert!(matches!(
            g.fuse_classes("projection", "l_column"),
            Err(EditError::NotLexical(_))
        ));
        // Self-fuse is a no-op.
        g.fuse_classes("l_column", "l_column").unwrap();
        assert_eq!(g.class_size("l_column"), 4);
    }

    #[test]
    fn add_literal_grows_space() {
        let mut g = fig1();
        let idx = g.add_literal("l_column", "n_nationkey + 1").unwrap();
        assert_eq!(idx, 4);
        assert!(g.check().is_ok());
        // Σ C(5,k)·2 + 2 = 62 + 2 = 64.
        assert_eq!(space_report(&g, 1000).unwrap().space, 64);
    }

    #[test]
    fn edits_keep_generated_queries_parseable() {
        let mut g = fig1();
        g.remove_literal("l_column", 0).unwrap();
        g.add_literal("l_column", "n_regionkey + 1").unwrap();
        let set = g.templates(1000).unwrap();
        let mut rng = crate::generate::seeded_rng(3);
        for _ in 0..20 {
            let sql =
                crate::generate::random_query(&g, &set.templates, &mut rng, None).unwrap();
            assert!(sqalpel_sql::parse_query(&sql).is_ok(), "{sql}");
        }
    }
}
