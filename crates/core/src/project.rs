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

serde::object! {
    /// A registered-user comment on a project (§4.2: "Registered users can
    /// leave comments on projects to improve upon the presentation,
    /// highlight issues, or suggest other experiments").
    #[derive(Debug, Clone)]
    pub struct Comment {
        "author" => pub author: UserId,
        "text" => pub text: String,
    }
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

    /// The experiment adding one would create, or why it is refused:
    /// its id, and its pool over the baseline SQL converted into a grammar
    /// automatically (or over a hand-written grammar).
    pub fn new_experiment(
        &self,
        actor: UserId,
        baseline_sql: &str,
        grammar: Option<Grammar>,
        template_cap: usize,
        pool_cap: usize,
    ) -> PlatformResult<(ExperimentId, QueryPool)> {
        self.require(actor, Role::Owner)?;
        let grammar = match grammar {
            Some(g) => g,
            None => sqalpel_grammar::convert_sql(baseline_sql)?,
        };
        let pool = QueryPool::new(grammar, template_cap, pool_cap)?;
        Ok((ExperimentId(self.next_experiment), pool))
    }

    /// Add an experiment (`ExperimentAdded`) with its pool, built once:
    /// from the grammar on the live path, from its logged text on replay.
    /// Its entries arrive separately.
    pub fn add_experiment(&mut self, id: ExperimentId, title: String, baseline_sql: String, pool: QueryPool) {
        self.next_experiment = self.next_experiment.max(id.0 + 1);
        self.experiments.push(Experiment {
            id,
            title,
            baseline_sql,
            pool,
        });
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

    /// Enforce §4.2's publication rule on the targets a project would
    /// declare: "A project declared public may not contain references to
    /// private DBMS and host settings."
    pub fn check_targets(
        &self,
        catalogs: &Catalogs,
        dbms_labels: &[String],
        hosts: &[String],
    ) -> PlatformResult<()> {
        if self.visibility != Visibility::Public {
            return Ok(());
        }
        for label in dbms_labels {
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
        for host in hosts {
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
        p.contributors.insert(UserId(2));
        assert_eq!(p.role_of(UserId(1)), Role::Owner);
        assert_eq!(p.role_of(UserId(2)), Role::Contributor);
        assert_eq!(p.role_of(UserId(3)), Role::Reader);
        let private = project(Visibility::Private);
        assert_eq!(private.role_of(UserId(3)), Role::None);
        assert!(private.require(UserId(3), Role::Reader).is_err());
        assert!(private.require(UserId(1), Role::Owner).is_ok());
    }

    #[test]
    fn new_experiment_converts_baseline() {
        let mut p = project(Visibility::Public);
        let (id, pool) = p
            .new_experiment(
                UserId(1),
                "select count(*) from nation where n_name = 'BRAZIL'",
                None,
                1000,
                100,
            )
            .unwrap();
        assert!(pool.grammar().rule("l_pred").is_some());
        assert!(p.experiments.is_empty(), "deciding adds nothing");
        p.add_experiment(id, "nation scan".into(), "select 1".into(), pool);
        assert_eq!(p.experiment(id).unwrap().title, "nation scan");
        let (next, _) = p.new_experiment(UserId(1), "select 1 from t", None, 10, 10).unwrap();
        assert_eq!(next, ExperimentId(id.0 + 1));
    }

    #[test]
    fn non_owner_cannot_add_experiments() {
        let p = project(Visibility::Public);
        let err = p
            .new_experiment(UserId(5), "select 1 from t", None, 10, 10)
            .unwrap_err();
        assert!(matches!(err, PlatformError::AccessDenied(_)));
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

        let p = project(Visibility::Public);
        let labels = |l: &[&str]| l.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let bench = labels(&["bench-server"]);
        p.check_targets(&catalogs, &labels(&["rowstore-2.0"]), &bench).unwrap();
        assert!(matches!(
            p.check_targets(&catalogs, &labels(&["rowstore-2.0", "secretdb-1"]), &bench),
            Err(PlatformError::Publication(_))
        ));
        let hosts = labels(&["bench-server", "secret-host"]);
        assert!(p.check_targets(&catalogs, &labels(&["rowstore-2.0"]), &hosts).is_err());
        // Uncataloged targets cannot be published either.
        assert!(p.check_targets(&catalogs, &labels(&["oracle-23c"]), &bench).is_err());

        // Private projects may reference anything.
        let private = project(Visibility::Private);
        private.check_targets(&catalogs, &labels(&["secretdb-1"]), &hosts).unwrap();
    }
}
