//! Global DBMS and platform (hardware) catalogs (paper §5.2).
//!
//! "The global DBMS catalog describes all database systems considered and
//! the platform catalog provides an overview of the hardware platforms
//! deployed." Entries can be public or private; a *public* project may not
//! reference private entries (§4.2) — that rule is enforced in
//! [`crate::project`].

use crate::error::{PlatformError, PlatformResult};
use std::collections::BTreeMap;

serde::names! {
    /// Visibility of catalog entries and projects.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Visibility {
        Public = "public",
        Private = "private",
    }
}

serde::object! {
    /// A database system description, including the configuration knobs
    /// whose documentation the paper argues must accompany any
    /// measurement.
    #[derive(Debug, Clone)]
    pub struct DbmsEntry {
        "name" => pub name: String,
        /// Documented server settings (knob → value), e.g. buffer sizes,
        /// index use, partitioning, compression.
        "settings" => pub settings: BTreeMap<String, String> [default],
        "vendor" => pub vendor: String,
        "version" => pub version: String,
        "visibility" => pub visibility: Visibility,
    }
}

impl DbmsEntry {
    /// `name-version` label, matching [`sqalpel_engine::Dbms::label`].
    pub fn label(&self) -> String {
        format!("{}-{}", self.name, self.version)
    }
}

serde::object! {
    /// A hardware platform description ("ranging from a Raspberry Pi up
    /// to Intel Xeon E5-4657L servers with 1TB RAM").
    #[derive(Debug, Clone)]
    pub struct HostEntry {
        "cores" => pub cores: u32,
        "cpu" => pub cpu: String,
        "name" => pub name: String,
        "os" => pub os: String,
        "ram_gb" => pub ram_gb: u32,
        "visibility" => pub visibility: Visibility,
    }
}

/// The two global catalogs.
#[derive(Debug, Default)]
pub struct Catalogs {
    dbms: Vec<DbmsEntry>,
    hosts: Vec<HostEntry>,
}

impl Catalogs {
    pub fn new() -> Self {
        Self::default()
    }

    /// A catalog pre-loaded with the repo's built-in target systems and a
    /// pair of representative hosts.
    pub fn bootstrap() -> Self {
        let mut c = Self::new();
        for (name, version, vendor) in [
            ("rowstore", "2.0", "sqalpel-rs"),
            ("rowstore", "1.4", "sqalpel-rs"),
            ("colstore", "5.1", "sqalpel-rs"),
        ] {
            c.add_dbms(DbmsEntry {
                name: name.into(),
                version: version.into(),
                vendor: vendor.into(),
                settings: BTreeMap::from([
                    ("arithmetic".into(), if name == "colstore" { "guarded-decimal" } else { "float64" }.into()),
                    ("joins".into(), if version == "1.4" { "nested-loop" } else { "hash" }.into()),
                ]),
                visibility: Visibility::Public,
            })
            .expect("bootstrap dbms");
        }
        c.add_host(HostEntry {
            name: "bench-server".into(),
            cpu: "Xeon E5-4657L".into(),
            cores: 48,
            ram_gb: 1024,
            os: "Linux".into(),
            visibility: Visibility::Public,
        })
        .expect("bootstrap host");
        c.add_host(HostEntry {
            name: "raspberry-pi".into(),
            cpu: "ARM Cortex-A72".into(),
            cores: 4,
            ram_gb: 4,
            os: "Linux".into(),
            visibility: Visibility::Public,
        })
        .expect("bootstrap host");
        c
    }

    /// Whether `entry` may join the DBMS catalog: its label is new.
    pub fn check_dbms(&self, entry: &DbmsEntry) -> PlatformResult<()> {
        match self.dbms(&entry.label()) {
            Some(_) => Err(PlatformError::Invalid(format!(
                "dbms {} already cataloged",
                entry.label()
            ))),
            None => Ok(()),
        }
    }

    /// Whether `entry` may join the host catalog: its name is new.
    pub fn check_host(&self, entry: &HostEntry) -> PlatformResult<()> {
        match self.host(&entry.name) {
            Some(_) => Err(PlatformError::Invalid(format!(
                "host {} already cataloged",
                entry.name
            ))),
            None => Ok(()),
        }
    }

    pub fn add_dbms(&mut self, entry: DbmsEntry) -> PlatformResult<()> {
        self.check_dbms(&entry)?;
        self.dbms.push(entry);
        Ok(())
    }

    pub fn add_host(&mut self, entry: HostEntry) -> PlatformResult<()> {
        self.check_host(&entry)?;
        self.hosts.push(entry);
        Ok(())
    }

    /// Look up a DBMS by `name-version` label.
    pub fn dbms(&self, label: &str) -> Option<&DbmsEntry> {
        self.dbms.iter().find(|d| d.label() == label)
    }

    pub fn host(&self, name: &str) -> Option<&HostEntry> {
        self.hosts.iter().find(|h| h.name == name)
    }

    pub fn dbms_entries(&self) -> &[DbmsEntry] {
        &self.dbms
    }

    pub fn host_entries(&self) -> &[HostEntry] {
        &self.hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_has_builtin_systems() {
        let c = Catalogs::bootstrap();
        assert!(c.dbms("rowstore-2.0").is_some());
        assert!(c.dbms("rowstore-1.4").is_some());
        assert!(c.dbms("colstore-5.1").is_some());
        assert_eq!(c.host_entries().len(), 2);
    }

    #[test]
    fn settings_documented() {
        let c = Catalogs::bootstrap();
        let col = c.dbms("colstore-5.1").unwrap();
        assert_eq!(col.settings["arithmetic"], "guarded-decimal");
        let legacy = c.dbms("rowstore-1.4").unwrap();
        assert_eq!(legacy.settings["joins"], "nested-loop");
    }

    #[test]
    fn duplicates_rejected() {
        let mut c = Catalogs::bootstrap();
        let dup = c.dbms("rowstore-2.0").unwrap().clone();
        assert!(c.add_dbms(dup).is_err());
        let host = c.host("raspberry-pi").unwrap().clone();
        assert!(c.add_host(host).is_err());
    }

    #[test]
    fn lookup_misses() {
        let c = Catalogs::bootstrap();
        assert!(c.dbms("oracle-23c").is_none());
        assert!(c.host("mainframe").is_none());
    }

    #[test]
    fn entries_round_trip_through_json() {
        let c = Catalogs::bootstrap();
        let d = c.dbms("colstore-5.1").unwrap();
        let back: DbmsEntry =
            serde_json::from_str(&serde_json::to_string(d).unwrap()).unwrap();
        assert_eq!(back.label(), d.label());
        assert_eq!(back.settings, d.settings);
        assert_eq!(back.visibility, d.visibility);

        let h = c.host("raspberry-pi").unwrap();
        let back: HostEntry =
            serde_json::from_str(&serde_json::to_string(h).unwrap()).unwrap();
        assert_eq!(back.name, h.name);
        assert_eq!(back.cores, h.cores);

        for vis in [Visibility::Public, Visibility::Private] {
            let back: Visibility =
                serde_json::from_str(&serde_json::to_string(&vis).unwrap()).unwrap();
            assert_eq!(back, vis);
        }
    }
}
