//! Where and on what a number was taken: commit, host cores, compiler,
//! plus the few /proc and file-system readings the workloads share.

use serde_json::{Map, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// First line of a command's stdout, or `None` when it cannot run or
/// fails (the driver's checkout, for one, is not a git repository).
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .map(str::to_string)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Client threads the platform workloads use: two (one per connection
/// role), but never more than the host has cores.
pub fn client_threads() -> usize {
    nproc().min(2)
}

/// Commit, dirty flag, cores and compiler.
pub fn host() -> Map {
    let mut m = Map::new();
    let commit = first_line("git", &["rev-parse", "HEAD"]);
    let dirty = first_line("git", &["status", "--porcelain"]).is_some();
    m.insert(
        "git_commit".into(),
        commit.clone().map(Value::String).unwrap_or(Value::Null),
    );
    m.insert(
        "git_dirty".into(),
        if commit.is_some() {
            Value::Bool(dirty)
        } else {
            Value::Null
        },
    );
    m.insert("nproc".into(), Value::Int(nproc() as i64));
    m.insert(
        "rustc".into(),
        first_line("rustc", &["--version"])
            .map(Value::String)
            .unwrap_or(Value::Null),
    );
    m
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()))
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS:") / 1024.0
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Copy the regular files of `from` into a fresh directory `to`. Taken
/// while a server is live, the copy holds exactly the bytes already
/// flushed to the operating system — what a killed process leaves.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The benchmark's own directory inside the checkout it runs from: the
/// only place it writes.
pub fn bench_dir() -> PathBuf {
    PathBuf::from("benchmark")
}

/// A scratch directory under `benchmark/out/`, emptied.
pub fn scratch(name: &str) -> io::Result<PathBuf> {
    let dir = bench_dir()
        .join("out")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
