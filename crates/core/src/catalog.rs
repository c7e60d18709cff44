//! Global DBMS and platform (hardware) catalogs (paper §5.2).
//!
//! "The global DBMS catalog describes all database systems considered and
//! the platform catalog provides an overview of the hardware platforms
//! deployed." Entries can be public or private; a *public* project may not
//! reference private entries (§4.2) — that rule is enforced in
//! [`crate::project`].

use crate::error::{PlatformError, PlatformResult};
use serde::{Deserialize, Serialize, Sink, Value};
use std::collections::BTreeMap;

/// Visibility of catalog entries and projects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    Public,
    Private,
}

impl Serialize for Visibility {
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.str(match self {
            Visibility::Public => "public",
            Visibility::Private => "private",
        })
    }
}

impl Deserialize for Visibility {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v.as_str().ok_or("visibility: expected a string")? {
            "public" => Ok(Visibility::Public),
            "private" => Ok(Visibility::Private),
            other => Err(format!("unknown visibility {other:?}")),
        }
    }
}

/// A database system description, including the configuration knobs whose
/// documentation the paper argues must accompany any measurement.
#[derive(Debug, Clone)]
pub struct DbmsEntry {
    pub name: String,
    pub version: String,
    pub vendor: String,
    /// Documented server settings (knob → value), e.g. buffer sizes,
    /// index use, partitioning, compression.
    pub settings: BTreeMap<String, String>,
    pub visibility: Visibility,
}

impl DbmsEntry {
    /// `name-version` label, matching [`sqalpel_engine::Dbms::label`].
    pub fn label(&self) -> String {
        format!("{}-{}", self.name, self.version)
    }
}

impl Serialize for DbmsEntry {
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.begin_object();
        s.field("name", &self.name);
        s.key("settings");
        s.begin_object();
        for (k, v) in &self.settings {
            s.field(k, v);
        }
        s.end_object();
        s.field("vendor", &self.vendor);
        s.field("version", &self.version);
        s.field("visibility", &self.visibility);
        s.end_object();
    }
}

impl Deserialize for DbmsEntry {
    fn from_value(v: &Value) -> Result<Self, String> {
        let text = |k: &str| {
            v[k].as_str()
                .map(str::to_string)
                .ok_or(format!("dbms entry: missing {k}"))
        };
        let mut settings = BTreeMap::new();
        if let Some(map) = v["settings"].as_object() {
            for (k, val) in map {
                settings.insert(
                    k.clone(),
                    val.as_str().ok_or("dbms settings must be strings")?.to_string(),
                );
            }
        }
        Ok(DbmsEntry {
            name: text("name")?,
            version: text("version")?,
            vendor: text("vendor")?,
            settings,
            visibility: Visibility::from_value(&v["visibility"])?,
        })
    }
}

/// A hardware platform description ("ranging from a Raspberry Pi up to
/// Intel Xeon E5-4657L servers with 1TB RAM").
#[derive(Debug, Clone)]
pub struct HostEntry {
    pub name: String,
    pub cpu: String,
    pub cores: u32,
    pub ram_gb: u32,
    pub os: String,
    pub visibility: Visibility,
}

impl Serialize for HostEntry {
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.begin_object();
        s.field("cores", &self.cores);
        s.field("cpu", &self.cpu);
        s.field("name", &self.name);
        s.field("os", &self.os);
        s.field("ram_gb", &self.ram_gb);
        s.field("visibility", &self.visibility);
        s.end_object();
    }
}

impl Deserialize for HostEntry {
    fn from_value(v: &Value) -> Result<Self, String> {
        let text = |k: &str| {
            v[k].as_str()
                .map(str::to_string)
                .ok_or(format!("host entry: missing {k}"))
        };
        let num = |k: &str| {
            v[k].as_i64()
                .map(|x| x as u32)
                .ok_or(format!("host entry: missing {k}"))
        };
        Ok(HostEntry {
            name: text("name")?,
            cpu: text("cpu")?,
            cores: num("cores")?,
            ram_gb: num("ram_gb")?,
            os: text("os")?,
            visibility: Visibility::from_value(&v["visibility"])?,
        })
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

    pub fn add_dbms(&mut self, entry: DbmsEntry) -> PlatformResult<()> {
        if self.dbms(&entry.label()).is_some() {
            return Err(PlatformError::Invalid(format!(
                "dbms {} already cataloged",
                entry.label()
            )));
        }
        self.dbms.push(entry);
        Ok(())
    }

    pub fn add_host(&mut self, entry: HostEntry) -> PlatformResult<()> {
        if self.host(&entry.name).is_some() {
            return Err(PlatformError::Invalid(format!(
                "host {} already cataloged",
                entry.name
            )));
        }
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
