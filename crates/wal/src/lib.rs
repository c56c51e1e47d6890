//! # epi-wal
//!
//! Durable session persistence for the epistemic-privacy auditing
//! daemon: an append-only, per-session-shard disclosure log with
//! CRC32-framed records, group-commit fsync, compacted snapshots, and
//! fail-closed crash recovery.
//!
//! The auditor's safety argument rests on one invariant: the recorded
//! knowledge of every user is *at most* what was actually disclosed to
//! them — never less. An auditor that forgets a disclosure across a
//! restart will happily re-approve a query whose answer, combined with
//! what the user already knows, pins down a protected fact. So the
//! disclosure log is written *before* an answer is acknowledged, and
//! recovery refuses to trade integrity for availability: any on-disk
//! state it cannot fully trust — other than the expected torn write at
//! the very tail of the newest segment — aborts startup instead of
//! silently reconstructing a weaker session.
//!
//! Layering, bottom to top:
//!
//! * [`crc32`](mod@crc32) — CRC-32/IEEE with a compile-time table (`std` has no
//!   checksum and the build is offline).
//! * [`frame`] — length-prefixed CRC-framed records and a reader that
//!   classifies every way a frame can be bad.
//! * [`record`] — the logical records ([`WalRecord`]) and the durable
//!   session image ([`WalSession`]), JSON-encoded via `epi-json`.
//! * [`snapshot`] — atomically-renamed compaction snapshots.
//! * [`wal`] — the [`Wal`] itself: sharded appends, fsync policies,
//!   rotation, compaction, and [`Wal::open`] recovery.
//!
//! The crate deliberately does not depend on `epi-service`; the service
//! embeds the log, converts between its in-memory `Session` and
//! [`WalSession`], and decides *when* to snapshot. See
//! `docs/PERSISTENCE.md` for the operational story.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod frame;
pub mod record;
pub mod snapshot;
pub mod testdir;
pub mod wal;

pub use crc32::crc32;
pub use record::{WalRecord, WalSession};
pub use snapshot::SnapshotDoc;
pub use wal::{
    FsyncPolicy, Recovered, RecoveryReport, SnapshotGuard, Wal, WalConfig, WalError, WalStats,
};
