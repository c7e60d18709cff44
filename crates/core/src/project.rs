//! Performance projects with GitHub-style access control (paper §4.2).
//!
//! "A performance project is initiated and owned by someone, the project
//! leader, who acts as a moderator for quality assurance. Subsequently,
//! contributors are invited to run the experiments in their own DBMS
//! context and share results. For all other users, the project description
//! and results are available in read-only mode" — for public projects;
//! private projects are invisible to non-members. "A project declared
//! public may not contain references to private DBMS and host settings."

use crate::catalog::{Catalogs, Visibility};
use crate::error::{PlatformError, PlatformResult};
use crate::pool::QueryPool;
use crate::user::UserId;
use sqalpel_grammar::Grammar;
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProjectId(pub u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExperimentId(pub u64);

serde::newtype!(ProjectId(u64), ExperimentId(u64));

serde::names! {
    /// What a user may do on a project.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Role {
        /// No access (private project, non-member).
        None = "none",
        /// Read-only: public project, unrelated user.
        Reader = "reader",
        /// May run experiments and submit results; sees all results.
        Contributor = "contributor",
        /// The project leader/moderator.
        Owner = "owner",
    }
}

/// A registered-user comment on a project (§4.2: "Registered users can
/// leave comments on projects to improve upon the presentation, highlight
/// issues, or suggest other experiments").
#[derive(Debug, Clone)]
pub struct Comment {
    pub author: UserId,
    pub text: String,
}

/// One experiment: a baseline query turned into a grammar, with its pool.
#[derive(Debug)]
pub struct Experiment {
    pub id: ExperimentId,
    pub title: String,
    /// The user-supplied baseline query.
    pub baseline_sql: String,
    pub pool: QueryPool,
}

/// A performance project.
#[derive(Debug)]
pub struct Project {
    pub id: ProjectId,
    pub title: String,
    /// "Its synopsis contains all information to repeat the experiments,
    /// provides proper attribution to the database generator developers."
    pub synopsis: String,
    pub owner: UserId,
    pub visibility: Visibility,
    /// Invited contributors. A set, not a list: `role_of` sits on the
    /// task hand-out hot path and must stay cheap with 10k contributors.
    pub contributors: BTreeSet<UserId>,
    pub comments: Vec<Comment>,
    pub experiments: Vec<Experiment>,
    /// DBMS labels this project measures (checked against the catalogs).
    pub dbms_labels: Vec<String>,
    /// Host names this project runs on.
    pub hosts: Vec<String>,
    /// Set when a vendor has invoked notice-and-takedown (§4.3); the
    /// project stays but its results are no longer served.
    pub taken_down: bool,
    next_experiment: u64,
}

impl Project {
    pub fn new(
        id: ProjectId,
        title: impl Into<String>,
        synopsis: impl Into<String>,
        owner: UserId,
        visibility: Visibility,
    ) -> Self {
        Project {
            id,
            title: title.into(),
            synopsis: synopsis.into(),
            owner,
            visibility,
            contributors: BTreeSet::new(),
            comments: Vec::new(),
            experiments: Vec::new(),
            dbms_labels: Vec::new(),
            hosts: Vec::new(),
            taken_down: false,
            next_experiment: 0,
        }
    }

    /// The role a user holds on this project.
    pub fn role_of(&self, user: UserId) -> Role {
        if user == self.owner {
            Role::Owner
        } else if self.contributors.contains(&user) {
            Role::Contributor
        } else if self.visibility == Visibility::Public {
            Role::Reader
        } else {
            Role::None
        }
    }

    /// Check that `user` holds at least `required`.
    pub fn require(&self, user: UserId, required: Role) -> PlatformResult<()> {
        if self.role_of(user) >= required {
            Ok(())
        } else {
            Err(PlatformError::AccessDenied(format!(
                "user #{} needs {required:?} on project #{}",
                user.0, self.id.0
            )))
        }
    }

    /// Invite a contributor ("There is no upper limit on the number of
    /// contributors per project").
    pub fn invite(&mut self, inviter: UserId, user: UserId) -> PlatformResult<()> {
        self.require(inviter, Role::Owner)?;
        if user != self.owner {
            self.contributors.insert(user);
        }
        Ok(())
    }

    /// Add an experiment: the baseline SQL is converted into a grammar
    /// automatically (or a hand-written grammar is supplied).
    pub fn add_experiment(
        &mut self,
        actor: UserId,
        title: impl Into<String>,
        baseline_sql: &str,
        grammar: Option<Grammar>,
        template_cap: usize,
        pool_cap: usize,
    ) -> PlatformResult<ExperimentId> {
        self.require(actor, Role::Owner)?;
        let grammar = match grammar {
            Some(g) => g,
            None => sqalpel_grammar::convert_sql(baseline_sql)?,
        };
        let pool = QueryPool::new(grammar, template_cap, pool_cap)?;
        let id = ExperimentId(self.next_experiment);
        self.next_experiment += 1;
        self.experiments.push(Experiment {
            id,
            title: title.into(),
            baseline_sql: baseline_sql.to_string(),
            pool,
        });
        Ok(id)
    }

    /// Re-create an experiment during recovery: no role check, explicit
    /// id, grammar already parsed from its logged source. The pool comes
    /// back empty — entries are replayed separately.
    #[allow(clippy::too_many_arguments)] // mirrors the WAL record's field set
    pub fn restore_experiment(
        &mut self,
        id: ExperimentId,
        title: &str,
        baseline_sql: &str,
        grammar: Grammar,
        template_cap: usize,
        pool_cap: usize,
        dialect: Option<String>,
    ) -> PlatformResult<()> {
        let mut pool = QueryPool::new(grammar, template_cap, pool_cap)?;
        pool.set_dialect(dialect);
        self.next_experiment = self.next_experiment.max(id.0 + 1);
        self.experiments.push(Experiment {
            id,
            title: title.to_string(),
            baseline_sql: baseline_sql.to_string(),
            pool,
        });
        Ok(())
    }

    pub fn experiment(&self, id: ExperimentId) -> PlatformResult<&Experiment> {
        self.experiments
            .iter()
            .find(|e| e.id == id)
            .ok_or(PlatformError::UnknownExperiment(id.0))
    }

    pub fn experiment_mut(&mut self, id: ExperimentId) -> PlatformResult<&mut Experiment> {
        self.experiments
            .iter_mut()
            .find(|e| e.id == id)
            .ok_or(PlatformError::UnknownExperiment(id.0))
    }

    pub fn comment(&mut self, author: UserId, text: impl Into<String>) -> PlatformResult<()> {
        // Any registered user with at least read access may comment.
        self.require(author, Role::Reader)?;
        self.comments.push(Comment {
            author,
            text: text.into(),
        });
        Ok(())
    }

    /// Enforce §4.2's publication rule against the catalogs: "A project
    /// declared public may not contain references to private DBMS and
    /// host settings."
    pub fn check_publication(&self, catalogs: &Catalogs) -> PlatformResult<()> {
        if self.visibility != Visibility::Public {
            return Ok(());
        }
        for label in &self.dbms_labels {
            match catalogs.dbms(label) {
                Some(d) if d.visibility == Visibility::Public => {}
                Some(_) => {
                    return Err(PlatformError::Publication(format!(
                        "public project references private DBMS {label}"
                    )))
                }
                None => {
                    return Err(PlatformError::Publication(format!(
                        "public project references uncataloged DBMS {label}"
                    )))
                }
            }
        }
        for host in &self.hosts {
            match catalogs.host(host) {
                Some(h) if h.visibility == Visibility::Public => {}
                Some(_) => {
                    return Err(PlatformError::Publication(format!(
                        "public project references private host {host}"
                    )))
                }
                None => {
                    return Err(PlatformError::Publication(format!(
                        "public project references uncataloged host {host}"
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{DbmsEntry, HostEntry};

    fn project(vis: Visibility) -> Project {
        Project::new(ProjectId(1), "tpch-q1", "TPC-H Q1 study", UserId(1), vis)
    }

    #[test]
    fn roles() {
        let mut p = project(Visibility::Public);
        p.invite(UserId(1), UserId(2)).unwrap();
        assert_eq!(p.role_of(UserId(1)), Role::Owner);
        assert_eq!(p.role_of(UserId(2)), Role::Contributor);
        assert_eq!(p.role_of(UserId(3)), Role::Reader);
        let private = project(Visibility::Private);
        assert_eq!(private.role_of(UserId(3)), Role::None);
    }

    #[test]
    fn only_owner_invites() {
        let mut p = project(Visibility::Public);
        assert!(p.invite(UserId(2), UserId(3)).is_err());
        p.invite(UserId(1), UserId(3)).unwrap();
        assert_eq!(p.role_of(UserId(3)), Role::Contributor);
        // Idempotent; owner never becomes a contributor.
        p.invite(UserId(1), UserId(3)).unwrap();
        p.invite(UserId(1), UserId(1)).unwrap();
        assert_eq!(p.contributors.len(), 1);
    }

    #[test]
    fn add_experiment_converts_baseline() {
        let mut p = project(Visibility::Public);
        let id = p
            .add_experiment(
                UserId(1),
                "nation scan",
                "select count(*) from nation where n_name = 'BRAZIL'",
                None,
                1000,
                100,
            )
            .unwrap();
        let e = p.experiment(id).unwrap();
        assert!(e.pool.grammar().rule("l_pred").is_some());
    }

    #[test]
    fn non_owner_cannot_add_experiments() {
        let mut p = project(Visibility::Public);
        let err = p
            .add_experiment(UserId(5), "x", "select 1 from t", None, 10, 10)
            .unwrap_err();
        assert!(matches!(err, PlatformError::AccessDenied(_)));
    }

    #[test]
    fn comments_respect_visibility() {
        let mut public = project(Visibility::Public);
        public.comment(UserId(9), "nice work").unwrap();
        let mut private = project(Visibility::Private);
        assert!(private.comment(UserId(9), "sneaky").is_err());
        private.invite(UserId(1), UserId(9)).unwrap();
        private.comment(UserId(9), "now allowed").unwrap();
    }

    #[test]
    fn publication_rule_blocks_private_references() {
        let mut catalogs = Catalogs::bootstrap();
        catalogs
            .add_dbms(DbmsEntry {
                name: "secretdb".into(),
                version: "1".into(),
                vendor: "acme".into(),
                settings: Default::default(),
                visibility: Visibility::Private,
            })
            .unwrap();
        catalogs
            .add_host(HostEntry {
                name: "secret-host".into(),
                cpu: "?".into(),
                cores: 1,
                ram_gb: 1,
                os: "?".into(),
                visibility: Visibility::Private,
            })
            .unwrap();

        let mut p = project(Visibility::Public);
        p.dbms_labels.push("rowstore-2.0".into());
        p.hosts.push("bench-server".into());
        p.check_publication(&catalogs).unwrap();

        p.dbms_labels.push("secretdb-1".into());
        assert!(matches!(
            p.check_publication(&catalogs),
            Err(PlatformError::Publication(_))
        ));
        p.dbms_labels.pop();
        p.hosts.push("secret-host".into());
        assert!(p.check_publication(&catalogs).is_err());

        // Private projects may reference anything.
        let mut private = project(Visibility::Private);
        private.dbms_labels.push("secretdb-1".into());
        private.check_publication(&catalogs).unwrap();
    }

    #[test]
    fn uncataloged_reference_blocks_publication() {
        let catalogs = Catalogs::bootstrap();
        let mut p = project(Visibility::Public);
        p.dbms_labels.push("oracle-23c".into());
        assert!(p.check_publication(&catalogs).is_err());
    }
}
