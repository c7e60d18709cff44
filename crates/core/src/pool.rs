//! The query pool and its morphing strategies (paper §3.2).
//!
//! "In contrast to systems such as RAGS that only randomly generate
//! queries in a brute force manner, we use a query pool. It is populated
//! with the baseline query and some queries constructed from randomly
//! chosen templates. Once a collection has been defined, we can extend the
//! pool by morphing queries based on observed behavior":
//!
//! - **Alter** — pick a pool query, replace one literal;
//! - **Expand** — find a template slightly larger (one more slot);
//! - **Prune** — one fewer slot, "the preferred method to identify the
//!   contribution of sub-queries in highly complex queries".
//!
//! Fine-grained guidance restricts which lexical terms may (or must)
//! appear; the pool is deduplicated on canonical SQL — and, when a
//! [`Fingerprinter`] is attached, on logical-plan fingerprints, so
//! lexically distinct mutants that rewrite to the same plan (flipped
//! comparisons, reordered conjuncts) never bloat the pool — and capped.

use crate::error::{PlatformError, PlatformResult};
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Hex, Named};
use sqalpel_grammar::{instantiate, Choice, Grammar, Template};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Identifier of a pool query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

serde::newtype!(QueryId(u64));

serde::names! {
    /// The three morphing strategies.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Strategy {
        Alter = "alter",
        Expand = "expand",
        Prune = "prune",
    }
}

impl Strategy {
    /// The paper's Figure 7 color coding: alter = purple, expand = green,
    /// prune = blue.
    pub fn color(self) -> &'static str {
        match self {
            Strategy::Alter => "purple",
            Strategy::Expand => "green",
            Strategy::Prune => "blue",
        }
    }

    pub fn name(self) -> &'static str {
        Named::name(&self)
    }

    /// Inverse of [`Strategy::name`], for wire payloads.
    pub fn from_name(name: &str) -> Result<Strategy, String> {
        Named::from_name(name).ok_or_else(|| format!("unknown strategy {name:?}"))
    }
}

serde::tagged! {
    /// How a pool entry came to exist.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Origin by "kind" {
        /// The user-supplied baseline query.
        Baseline = "baseline",
        /// Drawn from a randomly chosen template.
        Random = "random",
        /// Morphed from `parent` with the given strategy.
        Morph {
            "parent" => parent: QueryId,
            "strategy" => strategy: Strategy,
        } = "morph",
    }
}

serde::object! {
    /// One query in the pool.
    #[derive(Debug, Clone)]
    pub struct PoolEntry {
        "choice" => pub choice: Choice,
        /// Canonical logical-plan fingerprint, when the pool has a
        /// [`Fingerprinter`] and the query plans on the target system;
        /// left out, not null, when the pool has no fingerprinter.
        "fingerprint" => pub fingerprint: Option<u64> as Option<Hex> [omit],
        "id" => pub id: QueryId,
        "origin" => pub origin: Origin,
        /// Canonical SQL text (dedup key).
        "sql" => pub sql: String,
        /// Creation order (the x-axis of the experiment-history view).
        "step" => pub step: usize,
        /// Index into the pool's template set.
        "template" => pub template: usize,
    }
}

impl PoolEntry {
    /// Number of lexical components (node size in Figure 7).
    pub fn components(&self) -> usize {
        self.choice.values().map(Vec::len).sum()
    }

    /// The lexical terms of this query as `(class, literal index)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&str, usize)> {
        self.choice
            .iter()
            .flat_map(|(class, idx)| idx.iter().map(move |&i| (class.as_str(), i)))
    }
}

/// Term-level guidance: "explicitly specifying what lexical terms should
/// or should not be included in the queries being generated" (§3.2).
#[derive(Debug, Clone, Default)]
pub struct Guidance {
    /// Terms that may never appear.
    pub exclude: BTreeSet<(String, usize)>,
    /// Terms that must appear in every generated query.
    pub require: BTreeSet<(String, usize)>,
}

/// A pluggable plan fingerprinter: canonical plan hash for a SQL string,
/// or `None` when the query does not plan (fingerprint pruning then
/// degrades to SQL-only dedup for that query). Typically backed by
/// [`Dbms::explain`](sqalpel_engine::Dbms::explain).
#[derive(Clone)]
pub struct Fingerprinter(Arc<FingerprintFn>);

/// The function behind a [`Fingerprinter`].
pub type FingerprintFn = dyn Fn(&str) -> Option<u64> + Send + Sync;

impl Fingerprinter {
    pub fn new(f: impl Fn(&str) -> Option<u64> + Send + Sync + 'static) -> Self {
        Fingerprinter(Arc::new(f))
    }

    pub fn fingerprint(&self, sql: &str) -> Option<u64> {
        (self.0)(sql)
    }
}

impl std::fmt::Debug for Fingerprinter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Fingerprinter(..)")
    }
}

/// The query pool over one grammar.
#[derive(Debug)]
pub struct QueryPool {
    grammar: Grammar,
    templates: Vec<Template>,
    /// True when template enumeration hit the cap.
    pub templates_truncated: bool,
    entries: Vec<PoolEntry>,
    by_sql: HashMap<String, QueryId>,
    cap: usize,
    /// The template-enumeration cap this pool was built with — kept so a
    /// snapshot can rebuild the identical template set from the grammar.
    template_cap: usize,
    pub guidance: Guidance,
    step: usize,
    /// SQL dialect used when instantiating queries (grammar dialect
    /// sections accommodate "minor differences in syntax", §1).
    dialect: Option<String>,
    /// Plan-fingerprint dedup: mutants whose rewritten plan was already
    /// seen are dropped just like lexical duplicates.
    fingerprinter: Option<Fingerprinter>,
    seen_fingerprints: HashSet<u64>,
}

impl QueryPool {
    /// Build a pool for a grammar; templates are enumerated up to
    /// `template_cap`, the pool itself holds at most `pool_cap` queries.
    pub fn new(grammar: Grammar, template_cap: usize, pool_cap: usize) -> PlatformResult<Self> {
        let report = grammar.check();
        if !report.is_ok() {
            return Err(PlatformError::Grammar(report.to_string()));
        }
        let set = grammar.templates(template_cap)?;
        Ok(QueryPool {
            grammar,
            templates: set.templates,
            templates_truncated: set.truncated,
            entries: Vec::new(),
            by_sql: HashMap::new(),
            cap: pool_cap,
            template_cap,
            guidance: Guidance::default(),
            step: 0,
            dialect: None,
            fingerprinter: None,
            seen_fingerprints: HashSet::new(),
        })
    }

    /// Instantiate queries in the given dialect from here on.
    pub fn set_dialect(&mut self, dialect: Option<String>) {
        self.dialect = dialect;
    }

    /// Attach a plan fingerprinter: from here on, new queries whose
    /// canonical plan fingerprint was already seen are dropped exactly
    /// like lexical duplicates (the prune dedup from the roadmap).
    pub fn set_fingerprinter(&mut self, f: Option<Fingerprinter>) {
        self.fingerprinter = f;
    }

    pub fn dialect(&self) -> Option<&str> {
        self.dialect.as_deref()
    }

    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    pub fn entries(&self) -> &[PoolEntry] {
        &self.entries
    }

    pub fn template_cap(&self) -> usize {
        self.template_cap
    }

    pub fn pool_cap(&self) -> usize {
        self.cap
    }

    /// Add entries a walk found (`PoolExtended`): the stored SQL is
    /// authoritative, and the (non-serializable) fingerprinter need not
    /// be attached for the dedup sets to grow. Ids arrive in order.
    pub fn extend(&mut self, entries: impl IntoIterator<Item = PoolEntry>) -> Result<(), String> {
        for entry in entries {
            if entry.id.0 as usize != self.entries.len() {
                return Err(format!(
                    "pool entry #{} added out of order (expected #{})",
                    entry.id.0,
                    self.entries.len()
                ));
            }
            if entry.template >= self.templates.len() {
                return Err(format!(
                    "pool entry #{} references template {} of {}",
                    entry.id.0,
                    entry.template,
                    self.templates.len()
                ));
            }
            self.by_sql.insert(entry.sql.clone(), entry.id);
            if let Some(fp) = entry.fingerprint {
                self.seen_fingerprints.insert(fp);
            }
            self.step = self.step.max(entry.step + 1);
            self.entries.push(entry);
        }
        Ok(())
    }

    /// A pool rebuilt from an `ExperimentAdded` record's fields: the
    /// grammar from its DSL text, the dialect set.
    pub fn from_dsl(
        grammar: &str,
        template_cap: usize,
        pool_cap: usize,
        dialect: Option<String>,
    ) -> Result<QueryPool, String> {
        let grammar = Grammar::parse(grammar).map_err(|e| format!("grammar: {e}"))?;
        let mut pool = QueryPool::new(grammar, template_cap, pool_cap).map_err(|e| e.to_string())?;
        pool.set_dialect(dialect);
        Ok(pool)
    }

    /// A walk over this pool that writes what it finds into a draft.
    pub fn draft(&self) -> Draft<'_> {
        Draft {
            pool: self,
            entries: Vec::new(),
            sqls: HashSet::new(),
            fingerprints: HashSet::new(),
        }
    }

    /// Run `walk` on a draft and add what it found — nothing, if it
    /// fails. For callers that own the pool; the server logs the draft
    /// between the two.
    pub fn walk<T>(&mut self, walk: impl FnOnce(&mut Draft<'_>) -> PlatformResult<T>) -> PlatformResult<T> {
        let mut draft = self.draft();
        let out = walk(&mut draft)?;
        let entries = draft.entries;
        self.extend(entries).expect("a draft extends the pool it was drawn from");
        Ok(out)
    }

    pub fn entry(&self, id: QueryId) -> PlatformResult<&PoolEntry> {
        self.entries
            .get(id.0 as usize)
            .ok_or(PlatformError::UnknownQuery(id.0))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The literal text of a term.
    pub fn term_text(&self, class: &str, idx: usize) -> Option<String> {
        self.grammar
            .rule(class)
            .and_then(|r| r.alternatives.get(idx))
            .map(|a| a.literal_text())
    }
}

/// Entries a walk found and the pool does not hold yet — the decision of
/// a seed or morph call, made without touching the pool. The walk reads
/// the pool and the draft as one: it dedups against both and draws
/// parents from both, so a seed yields the same entries as when the walk
/// inserted as it went. [`QueryPool::extend`] adds them.
pub struct Draft<'a> {
    pool: &'a QueryPool,
    entries: Vec<PoolEntry>,
    sqls: HashSet<String>,
    fingerprints: HashSet<u64>,
}

impl Draft<'_> {
    /// What the walk found, in the order found.
    pub fn into_entries(self) -> Vec<PoolEntry> {
        self.entries
    }

    /// The pool's entry or the draft's under `id`.
    fn entry(&self, id: usize) -> &PoolEntry {
        let held = self.pool.entries.len();
        if id < held {
            &self.pool.entries[id]
        } else {
            &self.entries[id - held]
        }
    }

    fn len(&self) -> usize {
        self.pool.entries.len() + self.entries.len()
    }

    fn admissible(&self, template: &Template, choice: &Choice) -> bool {
        let guidance = &self.pool.guidance;
        for (class, idxs) in choice {
            if idxs
                .iter()
                .any(|&i| guidance.exclude.contains(&(class.clone(), i)))
            {
                return false;
            }
        }
        for (class, idx) in &guidance.require {
            // A required term must be present whenever its class can
            // appear at all; templates without the class are rejected.
            if !template.counts.contains_key(class)
                || !choice.get(class).is_some_and(|v| v.contains(idx))
            {
                return false;
            }
        }
        true
    }

    fn insert(
        &mut self,
        template: usize,
        choice: Choice,
        origin: Origin,
    ) -> PlatformResult<Option<QueryId>> {
        let pool = self.pool;
        if self.len() >= pool.cap {
            return Err(PlatformError::PoolFull(pool.cap));
        }
        let sql = instantiate(
            &pool.grammar,
            &pool.templates[template],
            &choice,
            pool.dialect.as_deref(),
        )?;
        if pool.by_sql.contains_key(&sql) || self.sqls.contains(&sql) {
            return Ok(None); // "added to the pool unless it was already known"
        }
        // Plan-level dedup: a lexically novel query whose rewritten plan
        // fingerprint is already in the pool adds no discriminative value.
        let fingerprint = pool.fingerprinter.as_ref().and_then(|f| f.fingerprint(&sql));
        if let Some(fp) = fingerprint {
            if pool.seen_fingerprints.contains(&fp) || !self.fingerprints.insert(fp) {
                return Ok(None);
            }
        }
        let id = QueryId(self.len() as u64);
        self.sqls.insert(sql.clone());
        self.entries.push(PoolEntry {
            id,
            sql,
            template,
            choice,
            origin,
            step: pool.step + self.entries.len(),
            fingerprint,
        });
        Ok(Some(id))
    }

    /// Seed the pool with the baseline query: the maximal template
    /// instantiated with every literal.
    pub fn seed_baseline(&mut self) -> PlatformResult<QueryId> {
        let (idx, template) = self
            .pool
            .templates
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| t.components())
            .ok_or_else(|| PlatformError::Grammar("grammar has no templates".into()))?;
        let choice: Choice = template
            .counts
            .iter()
            .map(|(class, &k)| (class.clone(), (0..k).collect()))
            .collect();
        self.insert(idx, choice, Origin::Baseline)?
            .ok_or_else(|| PlatformError::Invalid("baseline already seeded".into()))
    }

    /// Add up to `n` random-template queries (§3.2: "populated with the
    /// baseline query and some queries constructed from randomly chosen
    /// templates"). Returns the ids actually added (duplicates and
    /// guidance-rejected draws are skipped).
    pub fn add_random(&mut self, n: usize, rng: &mut StdRng) -> PlatformResult<Vec<QueryId>> {
        let mut added = Vec::new();
        let mut attempts = 0;
        while added.len() < n && attempts < n * 20 {
            attempts += 1;
            let t = rng.random_range(0..self.pool.templates.len());
            let choice = sqalpel_grammar::random_choice(&self.pool.grammar, &self.pool.templates[t], rng)?;
            if !self.admissible(&self.pool.templates[t], &choice) {
                continue;
            }
            if let Some(id) = self.insert(t, choice, Origin::Random)? {
                added.push(id);
            }
        }
        Ok(added)
    }

    /// Apply one morphing step with the given strategy to a random parent.
    /// Returns the new query id, or `None` when no admissible, novel
    /// variant was found.
    pub fn morph(&mut self, strategy: Strategy, rng: &mut StdRng) -> PlatformResult<Option<QueryId>> {
        if self.len() == 0 {
            return Err(PlatformError::Invalid("morphing an empty pool".into()));
        }
        // A bounded number of parent draws; each parent gets a bounded
        // number of variant draws.
        for _ in 0..16 {
            let parent = self.entry(rng.random_range(0..self.len()));
            let parent_id = parent.id;
            let candidate = match strategy {
                Strategy::Alter => self.pool.alter_candidate(parent, rng),
                Strategy::Expand => self.pool.expand_candidate(parent, rng),
                Strategy::Prune => self.pool.prune_candidate(parent, rng),
            };
            if let Some((template, choice)) = candidate {
                if !self.admissible(&self.pool.templates[template], &choice) {
                    continue;
                }
                if let Some(id) = self.insert(
                    template,
                    choice,
                    Origin::Morph {
                        strategy,
                        parent: parent_id,
                    },
                )? {
                    return Ok(Some(id));
                }
            }
        }
        Ok(None)
    }

    /// One step of the guided random walk: alter, expand or prune, each
    /// with probability one third.
    pub fn morph_auto(&mut self, rng: &mut StdRng) -> PlatformResult<Option<QueryId>> {
        let roll = rng.random_range(0.0..3.0);
        let strategy = if roll < 1.0 {
            Strategy::Alter
        } else if roll < 2.0 {
            Strategy::Expand
        } else {
            Strategy::Prune
        };
        self.morph(strategy, rng)
    }
}

impl QueryPool {
    /// Alter: same template, one literal replaced by an unused one.
    fn alter_candidate(&self, entry: &PoolEntry, rng: &mut StdRng) -> Option<(usize, Choice)> {
        let template = &self.templates[entry.template];
        // Classes where a different literal is available.
        let swappable: Vec<&String> = entry
            .choice
            .iter()
            .filter(|(class, idxs)| idxs.len() < self.grammar.class_size(class))
            .map(|(class, _)| class)
            .collect();
        let class = swappable.get(rng.random_range(0..swappable.len().max(1)))?;
        let idxs = &entry.choice[*class];
        let n = self.grammar.class_size(class);
        let unused: Vec<usize> = (0..n).filter(|i| !idxs.contains(i)).collect();
        let replacement = unused[rng.random_range(0..unused.len())];
        let victim = rng.random_range(0..idxs.len());
        let mut new_idxs = idxs.clone();
        new_idxs[victim] = replacement;
        new_idxs.sort_unstable();
        let mut choice = entry.choice.clone();
        choice.insert((*class).clone(), new_idxs);
        let _ = template;
        Some((entry.template, choice))
    }

    /// Expand: a template with exactly one more slot whose counts contain
    /// the parent's; keep the parent's literals and add one.
    fn expand_candidate(&self, entry: &PoolEntry, rng: &mut StdRng) -> Option<(usize, Choice)> {
        let from = &self.templates[entry.template].counts;
        let candidates: Vec<usize> = self
            .templates
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.components() == entry.components() + 1
                    && from
                        .iter()
                        .all(|(c, &k)| t.counts.get(c).copied().unwrap_or(0) >= k)
            })
            .map(|(i, _)| i)
            .collect();
        let target = *candidates.get(rng.random_range(0..candidates.len().max(1)))?;
        let grown = self.grow_choice(&entry.choice, target, rng)?;
        Some((target, grown))
    }

    /// Prune: one fewer slot; drop one literal.
    fn prune_candidate(&self, entry: &PoolEntry, rng: &mut StdRng) -> Option<(usize, Choice)> {
        let from = &self.templates[entry.template].counts;
        let candidates: Vec<usize> = self
            .templates
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.components() + 1 == entry.components()
                    && t.counts
                        .iter()
                        .all(|(c, &k)| from.get(c).copied().unwrap_or(0) >= k)
            })
            .map(|(i, _)| i)
            .collect();
        let target = *candidates.get(rng.random_range(0..candidates.len().max(1)))?;
        // Shrink the choice to the target's counts, dropping literals from
        // the class that lost a slot.
        let mut choice = Choice::new();
        for (class, &k) in &self.templates[target].counts {
            let have = entry.choice.get(class)?;
            let mut keep = have.clone();
            while keep.len() > k {
                let drop = rng.random_range(0..keep.len());
                keep.remove(drop);
            }
            choice.insert(class.clone(), keep);
        }
        Some((target, choice))
    }

    /// Extend a parent's choice to fill a larger template.
    fn grow_choice(&self, base: &Choice, target: usize, rng: &mut StdRng) -> Option<Choice> {
        let mut choice = Choice::new();
        for (class, &k) in &self.templates[target].counts {
            let mut idxs = base.get(class).cloned().unwrap_or_default();
            let n = self.grammar.class_size(class);
            while idxs.len() < k {
                let unused: Vec<usize> = (0..n).filter(|i| !idxs.contains(i)).collect();
                if unused.is_empty() {
                    return None;
                }
                idxs.push(unused[rng.random_range(0..unused.len())]);
            }
            idxs.sort_unstable();
            choice.insert(class.clone(), idxs);
        }
        Some(choice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqalpel_grammar::seeded_rng;

    fn pool() -> QueryPool {
        let g = Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap();
        QueryPool::new(g, 10_000, 1000).unwrap()
    }

    #[test]
    fn baseline_is_maximal() {
        let mut p = pool();
        let id = p.walk(|d| d.seed_baseline()).unwrap();
        let e = p.entry(id).unwrap();
        assert_eq!(e.origin, Origin::Baseline);
        // 4 columns + table + filter.
        assert_eq!(e.components(), 6);
        assert!(e.sql.contains("WHERE n_name= 'BRAZIL'"));
    }

    #[test]
    fn random_seeding_dedups() {
        let mut p = pool();
        p.walk(|d| d.seed_baseline()).unwrap();
        let mut rng = seeded_rng(1);
        p.walk(|d| d.add_random(20, &mut rng)).unwrap();
        // The whole space has 32 queries; no duplicates may appear.
        let mut sqls: Vec<&str> = p.entries().iter().map(|e| e.sql.as_str()).collect();
        let before = sqls.len();
        sqls.sort_unstable();
        sqls.dedup();
        assert_eq!(sqls.len(), before);
        assert!(before <= 32);
    }

    #[test]
    fn alter_changes_exactly_one_literal() {
        let mut p = pool();
        p.walk(|d| d.seed_baseline()).unwrap();
        let mut rng = seeded_rng(3);
        p.walk(|d| d.add_random(5, &mut rng)).unwrap();
        let before = p.len();
        if let Some(id) = p.walk(|d| d.morph(Strategy::Alter, &mut rng)).unwrap() {
            let e = p.entry(id).unwrap();
            let Origin::Morph { strategy, parent } = e.origin else {
                panic!("wrong origin");
            };
            assert_eq!(strategy, Strategy::Alter);
            let par = p.entry(parent).unwrap();
            assert_eq!(e.components(), par.components());
            assert_eq!(e.template, par.template);
            assert_ne!(e.sql, par.sql);
        } else {
            // Acceptable: no novel variant found in bounded tries.
            assert_eq!(p.len(), before);
        }
    }

    #[test]
    fn expand_grows_by_one_component() {
        let mut p = pool();
        p.walk(|d| d.seed_baseline()).unwrap();
        let mut rng = seeded_rng(5);
        // Baseline is maximal, so expanding requires smaller seeds first.
        p.walk(|d| d.add_random(8, &mut rng)).unwrap();
        for _ in 0..20 {
            if let Some(id) = p.walk(|d| d.morph(Strategy::Expand, &mut rng)).unwrap() {
                let e = p.entry(id).unwrap();
                let Origin::Morph { parent, .. } = e.origin else {
                    panic!()
                };
                let par = p.entry(parent).unwrap();
                assert_eq!(e.components(), par.components() + 1);
                // Parent literals are preserved.
                for (class, idxs) in &par.choice {
                    let grown = &e.choice[class];
                    assert!(idxs.iter().all(|i| grown.contains(i)));
                }
                return;
            }
        }
        panic!("expand never produced a variant");
    }

    #[test]
    fn prune_shrinks_by_one_component() {
        let mut p = pool();
        p.walk(|d| d.seed_baseline()).unwrap();
        let mut rng = seeded_rng(7);
        for _ in 0..20 {
            if let Some(id) = p.walk(|d| d.morph(Strategy::Prune, &mut rng)).unwrap() {
                let e = p.entry(id).unwrap();
                let Origin::Morph { parent, .. } = e.origin else {
                    panic!()
                };
                let par = p.entry(parent).unwrap();
                assert_eq!(e.components() + 1, par.components());
                return;
            }
        }
        panic!("prune never produced a variant");
    }

    #[test]
    fn exclusion_guidance_respected() {
        let mut p = pool();
        // Never use n_comment (literal 3 of l_column).
        p.guidance.exclude.insert(("l_column".into(), 3));
        let mut rng = seeded_rng(11);
        p.walk(|d| d.add_random(15, &mut rng)).unwrap();
        for _ in 0..30 {
            p.walk(|d| d.morph_auto(&mut rng)).unwrap();
        }
        for e in p.entries() {
            assert!(
                !e.sql.contains("n_comment"),
                "excluded term appeared in {}",
                e.sql
            );
        }
    }

    #[test]
    fn requirement_guidance_respected() {
        let mut p = pool();
        // Every query must project n_name (literal 1 of l_column).
        p.guidance.require.insert(("l_column".into(), 1));
        let mut rng = seeded_rng(13);
        p.walk(|d| d.add_random(10, &mut rng)).unwrap();
        assert!(!p.is_empty());
        for e in p.entries() {
            assert!(e.sql.contains("n_name"), "{}", e.sql);
        }
    }

    #[test]
    fn pool_cap_enforced() {
        let g = Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap();
        let mut p = QueryPool::new(g, 10_000, 2).unwrap();
        p.walk(|d| d.seed_baseline()).unwrap();
        let mut rng = seeded_rng(17);
        p.walk(|d| d.add_random(1, &mut rng)).unwrap();
        let err = p.walk(|d| d.add_random(5, &mut rng)).unwrap_err();
        assert!(matches!(err, PlatformError::PoolFull(2)));
    }

    #[test]
    fn term_text_lookup() {
        let p = pool();
        assert_eq!(p.term_text("l_column", 1).unwrap(), "n_name");
        assert!(p.term_text("l_column", 99).is_none());
        assert!(p.term_text("ghost", 0).is_none());
    }

    #[test]
    fn invalid_grammar_rejected() {
        let g = Grammar::parse("q:\n    ${ghost}\n").unwrap();
        assert!(matches!(
            QueryPool::new(g, 100, 100),
            Err(PlatformError::Grammar(_))
        ));
    }

    #[test]
    fn dialect_changes_generated_sql() {
        let src = "q:\n    SELECT count(*) FROM nation ${l_limit}\nl_limit:\n    LIMIT 5\nl_limit@legacydb:\n    FETCH FIRST 5 ROWS ONLY\n";
        let g = Grammar::parse(src).unwrap();
        let mut p = QueryPool::new(g.clone(), 100, 100).unwrap();
        p.walk(|d| d.seed_baseline()).unwrap();
        assert!(p.entries()[0].sql.contains("LIMIT 5"));
        let mut p2 = QueryPool::new(g, 100, 100).unwrap();
        p2.set_dialect(Some("legacydb".into()));
        p2.walk(|d| d.seed_baseline()).unwrap();
        assert!(p2.entries()[0].sql.contains("FETCH FIRST 5 ROWS ONLY"), "{}", p2.entries()[0].sql);
    }

    #[test]
    fn fingerprint_prunes_plan_equivalent_mutants() {
        use sqalpel_engine::Dbms;
        let src = "q:\n    SELECT n_name FROM nation WHERE ${l_filter}\nl_filter:\n    n_regionkey < 2\n    2 > n_regionkey\n";
        let g = Grammar::parse(src).unwrap();

        // Control: without a fingerprinter the flipped comparison is a
        // lexically novel pool entry.
        let mut rng = seeded_rng(19);
        let mut control = QueryPool::new(g.clone(), 100, 100).unwrap();
        control.walk(|d| d.seed_baseline()).unwrap();
        assert!(control.walk(|d| d.morph(Strategy::Alter, &mut rng)).unwrap().is_some());
        assert_eq!(control.len(), 2);

        // With an engine-backed fingerprinter the mutant's rewritten plan
        // canonicalizes to the baseline's plan and the mutant is dropped.
        let db = Arc::new(sqalpel_engine::Database::tpch(0.001, 42));
        let store = sqalpel_engine::RowStore::new(db);
        let mut p = QueryPool::new(g, 100, 100).unwrap();
        p.set_fingerprinter(Some(Fingerprinter::new(move |sql| {
            store.explain(sql).ok().map(|e| e.fingerprint)
        })));
        let base = p.walk(|d| d.seed_baseline()).unwrap();
        assert!(p.entry(base).unwrap().fingerprint.is_some());
        let mut rng = seeded_rng(19);
        let added = p.walk(|d| d.morph(Strategy::Alter, &mut rng)).unwrap();
        assert!(added.is_none(), "plan-equivalent mutant must be dropped");
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn entries_round_trip_and_extend_rebuilds_dedup() {
        let mut p = pool();
        p.walk(|d| d.seed_baseline()).unwrap();
        let mut rng = seeded_rng(23);
        p.walk(|d| d.add_random(5, &mut rng)).unwrap();
        for _ in 0..10 {
            p.walk(|d| d.morph_auto(&mut rng)).unwrap();
        }
        let g = Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap();
        let mut back = QueryPool::new(g, p.template_cap(), p.pool_cap()).unwrap();
        for e in p.entries() {
            let text = serde_json::to_string(e).unwrap();
            let e2: PoolEntry = serde_json::from_str(&text).unwrap();
            assert_eq!(e2.id, e.id);
            assert_eq!(e2.sql, e.sql);
            assert_eq!(e2.choice, e.choice);
            assert_eq!(e2.origin, e.origin);
            back.extend([e2]).unwrap();
        }
        assert_eq!(back.len(), p.len());
        // The rebuilt dedup set rejects re-inserting a known query: the
        // next morph walk continues instead of duplicating.
        let before = back.len();
        let mut rng2 = seeded_rng(29);
        for _ in 0..5 {
            back.walk(|d| d.morph_auto(&mut rng2)).unwrap();
        }
        let mut sqls: Vec<&str> = back.entries().iter().map(|e| e.sql.as_str()).collect();
        let n = sqls.len();
        sqls.sort_unstable();
        sqls.dedup();
        assert_eq!(sqls.len(), n);
        assert!(back.len() >= before);
        // Out-of-order restore is rejected.
        let mut empty =
            QueryPool::new(Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap(), 10_000, 1000)
                .unwrap();
        assert!(empty.extend([p.entries()[1].clone()]).is_err());
    }

    /// A walk reads its own draft as it reads the pool: one draft for
    /// the whole walk finds what a draft per call finds.
    #[test]
    fn one_draft_finds_what_a_draft_per_call_finds() {
        let mut per_call = pool();
        let mut rng = seeded_rng(31);
        per_call.walk(|d| d.seed_baseline()).unwrap();
        per_call.walk(|d| d.add_random(6, &mut rng)).unwrap();
        for _ in 0..12 {
            per_call.walk(|d| d.morph_auto(&mut rng)).unwrap();
        }
        let mut whole = pool();
        let mut rng = seeded_rng(31);
        let draft = {
            let mut d = whole.draft();
            d.seed_baseline().unwrap();
            d.add_random(6, &mut rng).unwrap();
            for _ in 0..12 {
                d.morph_auto(&mut rng).unwrap();
            }
            d.into_entries()
        };
        assert!(whole.is_empty(), "a draft leaves the pool alone");
        whole.extend(draft).unwrap();
        let text = |p: &QueryPool| serde_json::to_string(&p.entries().to_vec()).unwrap();
        assert!(per_call.len() > 7);
        assert_eq!(text(&whole), text(&per_call));
        // A failed walk adds nothing.
        let before = whole.len();
        assert!(whole.walk(|d| d.seed_baseline()).is_err());
        assert_eq!(whole.len(), before);
    }

    #[test]
    fn strategy_colors_match_paper() {
        assert_eq!(Strategy::Alter.color(), "purple");
        assert_eq!(Strategy::Expand.color(), "green");
        assert_eq!(Strategy::Prune.color(), "blue");
    }
}
