//! What the `repro` end-to-end suites share: a durable `repro serve`
//! child on loopback ports.

use sqalpel_core::ContributorKey;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// A serve child that is killed when the test panics mid-way. The stdout
/// handle stays open for the child's lifetime: closing it as soon as the
/// startup lines are parsed races the server's remaining banner prints
/// into an EPIPE panic.
pub struct Serve {
    pub child: Child,
    _stdout: std::process::ChildStdout,
    pub addr: SocketAddr,
    pub v2_addr: SocketAddr,
    pub key: ContributorKey,
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `repro serve 127.0.0.1:0 --state-dir <dir>` and parse the bound
/// address and the demo contributor key from its stdout. A tiny scale
/// factor keeps the engine bootstrap instant.
///
/// v2 listens on the v1 port + 1, and with `:0` the OS picks v1's port —
/// so a concurrent test's sockets can already hold the neighbour and the
/// serve exits at startup. Retry the spawn on that startup loss.
pub fn spawn_serve(dir: &std::path::Path) -> Serve {
    for _ in 0..10 {
        if let Some(serve) = try_spawn_serve(dir) {
            return serve;
        }
    }
    panic!("repro serve kept losing its v2 port to a neighbour");
}

fn try_spawn_serve(dir: &std::path::Path) -> Option<Serve> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "127.0.0.1:0", "--state-dir"])
        .arg(dir)
        .env("SQALPEL_SF", "0.001")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn repro serve");
    let mut stdout = child.stdout.take().expect("serve stdout");
    let mut addr = None;
    let mut v2_addr = None;
    let mut key = None;
    for line in BufReader::new(&mut stdout).lines() {
        let line = line.expect("serve output");
        if let Some(rest) = line.strip_prefix("sqalpel platform serving on http://") {
            let host = rest.strip_suffix("/v1").unwrap_or(rest);
            addr = Some(host.parse().expect("server address"));
        }
        if let Some(rest) = line.strip_prefix("framed binary protocol v2 on tcp://") {
            v2_addr = Some(rest.trim().parse().expect("v2 address"));
        }
        if let Some(k) = line.strip_prefix("demo contributor key: ") {
            key = Some(ContributorKey(k.trim().into()));
        }
        if addr.is_some() && v2_addr.is_some() && key.is_some() {
            break;
        }
    }
    let (Some(addr), Some(v2_addr), Some(key)) = (addr, v2_addr, key) else {
        // Stdout closed before the full banner: the child lost the bind
        // race and exited. Reap it and let the caller retry.
        let _ = child.kill();
        let _ = child.wait();
        return None;
    };
    Some(Serve {
        child,
        _stdout: stdout,
        addr,
        v2_addr,
        key,
    })
}
