//! # sqalpel-grammar
//!
//! The SQALPEL query-space grammar DSL (paper §3.1): a domain-specific
//! language `G` describing a query (sub)space `L(G)` derived from a
//! baseline query. This crate provides:
//!
//! - the DSL parser ([`parse`]) and printer (`Grammar: Display`),
//! - normalization and validation ([`validate()`]: missing rules, dead
//!   rules, unbounded repetition),
//! - template enumeration under the literal-once rule and exact space
//!   counting ([`template`]) — the machinery behind the paper's Table 2,
//! - concrete query generation ([`generate`]), with dialect sections,
//! - the automatic SQL-to-grammar converter ([`convert()`]).
//!
//! ```
//! use sqalpel_grammar::Grammar;
//!
//! let g = Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap();
//! let report = g.space_report(10_000).unwrap();
//! assert_eq!(report.templates, 10);
//! assert_eq!(report.space, 32);
//! ```

pub mod ast;
pub mod convert;
pub mod generate;
pub mod parse;
pub mod template;
pub mod validate;

pub use ast::{Alternative, Element, Grammar, Rule};
pub use convert::{convert, convert_sql};
pub use generate::{
    instantiate, instantiate_random, random_choice, random_query, seeded_rng, Choice,
    GenerateError,
};
pub use parse::GrammarParseError;
pub use template::{
    binomial, enumerate, space_report, Piece, SpaceReport, Template, TemplateSet,
    DEFAULT_TEMPLATE_CAP,
};
pub use validate::{validate, ValidationReport};

/// The sample grammar of the paper's Figure 1 (a query space over the
/// TPC-H `nation` table).
pub const FIG1_GRAMMAR: &str = "\
query:
    SELECT ${projection} FROM ${l_tables} $[l_filter]
projection:
    ${l_count}
    ${l_column} ${columnlist}*
l_tables:
    nation
columnlist:
    , ${l_column}
l_column:
    n_nationkey
    n_name
    n_regionkey
    n_comment
l_count:
    count(*)
l_filter:
    WHERE n_name= 'BRAZIL'
";

impl Grammar {
    /// Parse the DSL text (see [`parse::parse`]).
    pub fn parse(text: &str) -> Result<Grammar, GrammarParseError> {
        parse::parse(text)
    }

    /// Validate (missing/dead rules, unbounded repetition).
    pub fn check(&self) -> ValidationReport {
        validate::validate(self)
    }

    /// Enumerate templates up to `cap`.
    pub fn templates(&self, cap: usize) -> Result<TemplateSet, template::EnumerationError> {
        template::enumerate(self, cap)
    }

    /// The Table 2 measures: tags, templates, space.
    pub fn space_report(&self, cap: usize) -> Result<SpaceReport, template::EnumerationError> {
        template::space_report(self, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_constant_is_valid() {
        let g = Grammar::parse(FIG1_GRAMMAR).unwrap();
        assert!(g.check().is_ok());
    }

    #[test]
    fn convenience_methods_delegate() {
        let g = Grammar::parse(FIG1_GRAMMAR).unwrap();
        assert_eq!(g.templates(100).unwrap().templates.len(), 10);
        assert_eq!(g.space_report(100).unwrap().space, 32);
    }
}
