//! Durability for the platform state: write-ahead record log, periodic
//! snapshots, boot-time recovery.
//!
//! The contract: **once an operation is acknowledged, it survives a
//! crash; an operation that returns `Err` changed nothing; and the live
//! state is the replay of its own log.** Every mutating op has one shape:
//! under the lock that guards what it changes it decides — changing
//! nothing — what its typed [`WalRecord`] says, logs the record, and then
//! applies it with the function replay applies it with
//! ([`crate::shard::Apply`]; [`recovery::apply`] only routes a record to
//! it, by [`WalRecord::part`]). A failed append therefore leaves nothing behind, and WAL order
//! equals mutation order per lock domain. (A bulk upload spanning
//! projects, and a reap, commit per project: a later project's failure
//! leaves the earlier ones committed.) Each record is flushed to the OS
//! before the op acks. A bulk upload group-commits: all of its reports
//! ride one [`WalRecord::ReportBatchAccepted`] line — one append, one
//! flush, one checksum — so the batch is acknowledged, and replays,
//! atomically.
//!
//! Snapshots bound replay time; the WAL is truncated when one lands.
//! Records carry their LSN, so on boot [`recover`] loads the newest
//! snapshot and replays only records past its LSN — a crash between the
//! snapshot rename and the truncation leaves a stale prefix that is
//! skipped, not double-applied. A torn final record — the crash
//! interrupted an append whose operation was never acknowledged — is
//! discarded, which is precisely the at-least-acknowledged, at-most-once
//! semantics the wire protocol's idempotent retries expect; its bytes
//! are cut off the file before the first new append, so what this boot
//! acknowledges is not stranded behind them for the next.

#[cfg(test)]
mod live_is_replay;
pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use recovery::{recover, RecoveredState};
pub use snapshot::{latest_snapshot, read_snapshot, state_fingerprint, write_snapshot, SnapshotLine};
pub use wal::{read_wal, WalReader, WalRecord, WalWriter, WAL_FILE};

use crate::shard::{GlobalShard, ProjectShard};
use parking_lot::Mutex;
use std::io;
use std::path::{Path, PathBuf};

/// Handle to a state directory: the open WAL plus snapshot plumbing.
pub struct Durability {
    dir: PathBuf,
    wal: Mutex<WalWriter>,
}

impl Durability {
    /// Open a state directory: recover whatever is there, then position
    /// the WAL for appending right behind its last intact record (a torn
    /// tail is truncated away). Creates the directory if needed.
    pub fn open(dir: &Path) -> io::Result<(Durability, RecoveredState)> {
        std::fs::create_dir_all(dir)?;
        let recovered = recover(dir)?;
        let wal = WalWriter::open(dir, recovered.next_lsn, recovered.wal_len)?;
        Ok((
            Durability {
                dir: dir.to_path_buf(),
                wal: Mutex::new(wal),
            },
            recovered,
        ))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one record, flushed to the OS. Returns the framed byte
    /// length. The caller must hold the lock of the state the record
    /// changes.
    pub fn log(&self, record: &WalRecord) -> io::Result<u64> {
        self.wal.lock().append(record)
    }

    /// Make the next append fail, or stop it from failing.
    #[cfg(test)]
    pub(crate) fn fail_next_append(&self, fail: bool) {
        self.wal.lock().fail_next = fail;
    }

    /// Whether an append failure is still waiting for its append.
    #[cfg(test)]
    pub(crate) fn append_failure_pending(&self) -> bool {
        self.wal.lock().fail_next
    }

    /// Current record sequence number.
    pub fn lsn(&self) -> u64 {
        self.wal.lock().lsn()
    }

    /// Write a snapshot of the given state and truncate the WAL behind
    /// it. The caller must hold **all** platform locks (global, shard
    /// map, every shard) so the state cannot move between the snapshot
    /// and the truncation.
    pub fn snapshot(&self, global: &GlobalShard, shards: &[&ProjectShard]) -> io::Result<u64> {
        let mut wal = self.wal.lock();
        let lsn = wal.lsn();
        write_snapshot(&self.dir, lsn, global, shards)?;
        wal.reset_after_snapshot()?;
        snapshot::prune_older(&self.dir, lsn)?;
        Ok(lsn)
    }

    /// Fsync the WAL without truncating (graceful shutdown).
    pub fn sync(&self) -> io::Result<()> {
        self.wal.lock().sync()
    }
}
