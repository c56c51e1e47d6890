//! Sharded per-user session store.
//!
//! One session per user, holding the user's *cumulative knowledge*: the
//! intersection of every property disclosed to them so far (Section 3.3
//! of the paper — acquiring `B₁` then `B₂` equals acquiring `B₁ ∩ B₂`).
//! Sessions are spread over `N` independent mutex-guarded shards keyed by
//! a hash of the user name, so disclosures for different users rarely
//! contend on the same lock.
//!
//! # Durability
//!
//! A store built with [`SessionStore::durable`] writes every knowledge
//! mutation to an `epi-wal` disclosure log *before* mutating memory, and
//! therefore before the caller can acknowledge the disclosure — the
//! write-ahead discipline that makes a restart unable to forget what a
//! user was told. Appends happen inside the shard critical section, so
//! the log's per-shard record order matches the in-memory apply order,
//! and [`SessionStore::maybe_snapshot`] can take a per-shard-consistent
//! cut (sessions + covered sequence number) just by holding the same
//! shard lock while rotating the shard's segment.

use epi_core::risk::RISK_SCALE;
use epi_core::WorldSet;
use epi_wal::{crc32, Wal, WalError, WalSession};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One user's accumulated state, as stored (and returned by value from
/// every store operation so callers never hold a shard lock).
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    /// Number of disclosures recorded for this user.
    pub disclosures: u64,
    /// Logical time of the latest disclosure.
    pub last_time: u64,
    /// Database state (record-presence mask) at the latest disclosure.
    pub last_state_mask: u32,
    /// The intersection of all disclosed sets — starts as the full set
    /// (vacuous knowledge).
    pub knowledge: WorldSet,
    /// Exposure ledger, sum aggregate: saturating sum of per-disclosure
    /// risk scores in micro-units.
    pub risk_sum_micros: u64,
    /// Exposure ledger, max aggregate: largest single-disclosure risk
    /// score seen, in micro-units.
    pub risk_max_micros: u64,
    /// Exposure ledger, product aggregate: survival probability
    /// `∏ (1 − rᵢ)` in micro-units (starts at `1_000_000`). Spent
    /// budget under the product rule is `1_000_000 − survival`.
    pub survival_micros: u64,
}

impl Session {
    /// The session's *ledger epoch*: a counter that advances on every
    /// ledger mutation. Budget-dependent reply members must be computed
    /// against the live epoch, never replayed from a verdict cache —
    /// see the cache staleness test in `cache.rs`.
    pub fn ledger_epoch(&self) -> u64 {
        self.disclosures
    }
}

/// Rejected session updates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// Per-user disclosure times must be non-decreasing.
    OutOfOrder {
        /// Time of the rejected disclosure.
        time: u64,
        /// Time of the user's last accepted disclosure.
        last: u64,
    },
    /// The disclosure log refused the append — the disclosure was NOT
    /// applied (fail closed: an unlogged disclosure must not enter a
    /// session it could never be recovered into).
    Storage {
        /// The log's error, rendered.
        detail: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::OutOfOrder { time, last } => write!(
                f,
                "disclosure at time {time} arrived after the user's disclosure at time {last}"
            ),
            SessionError::Storage { detail } => {
                write!(f, "disclosure log rejected the update: {detail}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A stable digest of a user's knowledge set, for the `session`
/// protocol op and for cross-restart equivalence checks: CRC-32 over
/// the universe size and the set's blocks in little-endian order.
pub fn knowledge_digest(set: &WorldSet) -> u32 {
    let mut bytes = Vec::with_capacity(8 + set.blocks().len() * 8);
    bytes.extend_from_slice(&(set.universe_size() as u64).to_le_bytes());
    for block in set.blocks() {
        bytes.extend_from_slice(&block.to_le_bytes());
    }
    crc32(&bytes)
}

/// A stable digest of a session's exposure ledger, for the `budget`
/// protocol op and for cross-restart equivalence checks: CRC-32 over
/// the disclosure count and the three ledger aggregates in
/// little-endian order. A WAL-replayed ledger must reproduce this
/// digest bit-for-bit.
pub fn ledger_digest(s: &Session) -> u32 {
    let mut bytes = Vec::with_capacity(32);
    bytes.extend_from_slice(&s.disclosures.to_le_bytes());
    bytes.extend_from_slice(&s.risk_sum_micros.to_le_bytes());
    bytes.extend_from_slice(&s.risk_max_micros.to_le_bytes());
    bytes.extend_from_slice(&s.survival_micros.to_le_bytes());
    crc32(&bytes)
}

fn to_wal_session(s: &Session) -> WalSession {
    WalSession {
        disclosures: s.disclosures,
        last_time: s.last_time,
        last_state_mask: s.last_state_mask,
        knowledge: s.knowledge.clone(),
        risk_sum_micros: s.risk_sum_micros,
        risk_max_micros: s.risk_max_micros,
        survival_micros: s.survival_micros,
    }
}

fn from_wal_session(s: WalSession) -> Session {
    Session {
        disclosures: s.disclosures,
        last_time: s.last_time,
        last_state_mask: s.last_state_mask,
        knowledge: s.knowledge,
        risk_sum_micros: s.risk_sum_micros,
        risk_max_micros: s.risk_max_micros,
        survival_micros: s.survival_micros,
    }
}

/// Concurrent map from user name to [`Session`], sharded for low
/// contention.
pub struct SessionStore {
    shards: Vec<Mutex<HashMap<String, Session>>>,
    universe: usize,
    wal: Option<Arc<Wal>>,
}

impl SessionStore {
    /// Creates a store with `shards` independent shards over a world
    /// universe of the given size (the schema's `2^n` worlds). Purely
    /// in-memory: nothing survives the process.
    pub fn new(shards: usize, universe: usize) -> SessionStore {
        let shards = shards.max(1);
        SessionStore {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            universe,
            wal: None,
        }
    }

    /// Creates a store backed by a disclosure log, seeded with the
    /// sessions the log's recovery reconstructed. The log must have been
    /// opened with the same shard count; recovered users are re-hashed
    /// into their shards (user-to-shard placement is stable across
    /// restarts and toolchains because `SessionStore::shard_index`
    /// uses an explicitly stable hash).
    pub fn durable(
        shards: usize,
        universe: usize,
        wal: Arc<Wal>,
        recovered: Vec<Vec<(String, WalSession)>>,
    ) -> SessionStore {
        let mut store = SessionStore::new(shards, universe);
        for (user, session) in recovered.into_iter().flatten() {
            let idx = store.shard_index(&user);
            Self::lock_shard(&store.shards[idx]).insert(user, from_wal_session(session));
        }
        store.wal = Some(wal);
        store
    }

    /// The disclosure log behind this store, when it is durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// How many WAL shards are quarantined (0 for a volatile store).
    /// Non-zero means part of the keyspace can no longer record
    /// disclosures — the degradation ladder's freeze signal.
    pub fn quarantined_shards(&self) -> usize {
        self.wal.as_ref().map_or(0, |wal| wal.quarantined_shards())
    }

    /// Syncs every WAL shard's un-synced tail (no-op for a volatile
    /// store). Graceful drain calls this so a drained daemon leaves no
    /// acknowledged record at the page cache's mercy.
    pub fn flush_wal(&self) -> Result<(), WalError> {
        match &self.wal {
            Some(wal) => wal.flush(),
            None => Ok(()),
        }
    }

    /// FNV-1a (64-bit) over the user's bytes, reduced mod the shard
    /// count. On a durable store, user→shard placement is baked into
    /// the per-shard WAL layout on disk, so the hash must be stable
    /// across Rust releases and process restarts — std's
    /// `DefaultHasher` explicitly is not. Changing this function (or
    /// the shard count) is an on-disk format change; see
    /// docs/PERSISTENCE.md.
    fn shard_index(&self, user: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in user.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h as usize) % self.shards.len()
    }

    fn shard(&self, user: &str) -> &Mutex<HashMap<String, Session>> {
        &self.shards[self.shard_index(user)]
    }

    /// Lock a shard, recovering from poisoning: each critical section
    /// leaves the session map consistent (updates are plain field stores
    /// and an intersection), so a panicking holder cannot tear it.
    fn lock_shard<'a>(
        shard: &'a Mutex<HashMap<String, Session>>,
    ) -> MutexGuard<'a, HashMap<String, Session>> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one disclosure: intersects the user's cumulative knowledge
    /// with `disclosed` and advances their clock. Returns the updated
    /// session by value.
    ///
    /// On a durable store the mutation is logged *first* — a session
    /// open for a new user, then the disclosure — and a log failure
    /// leaves memory untouched and surfaces as
    /// [`SessionError::Storage`].
    /// `risk_micros` is the decision's normalized risk score in
    /// micro-units; all three ledger aggregates fold unconditionally so
    /// a later budget-policy change reads a complete history.
    pub fn apply_disclosure(
        &self,
        user: &str,
        time: u64,
        state_mask: u32,
        disclosed: &WorldSet,
        risk_micros: u64,
    ) -> Result<Session, SessionError> {
        let idx = self.shard_index(user);
        let mut shard = Self::lock_shard(&self.shards[idx]);
        if let Some(session) = shard.get(user) {
            if session.disclosures > 0 && time < session.last_time {
                return Err(SessionError::OutOfOrder {
                    time,
                    last: session.last_time,
                });
            }
        }
        if let Some(wal) = &self.wal {
            let storage = |e: WalError| SessionError::Storage {
                detail: e.to_string(),
            };
            if !shard.contains_key(user) {
                wal.append_open(idx, user).map_err(storage)?;
            }
            wal.append_disclose(idx, user, time, state_mask, disclosed, risk_micros)
                .map_err(storage)?;
        }
        let session = shard.entry(user.to_owned()).or_insert_with(|| Session {
            disclosures: 0,
            last_time: 0,
            last_state_mask: 0,
            knowledge: WorldSet::full(self.universe),
            risk_sum_micros: 0,
            risk_max_micros: 0,
            survival_micros: RISK_SCALE,
        });
        session.disclosures += 1;
        session.last_time = time;
        session.last_state_mask = state_mask;
        session.knowledge.intersect_with(disclosed);
        // Ledger fold — must stay in lockstep with `WalSession::apply`
        // so a replayed ledger is byte-identical to this one.
        let risk = risk_micros.min(RISK_SCALE);
        session.risk_sum_micros = session.risk_sum_micros.saturating_add(risk);
        session.risk_max_micros = session.risk_max_micros.max(risk);
        session.survival_micros = session.survival_micros * (RISK_SCALE - risk) / RISK_SCALE;
        Ok(session.clone())
    }

    /// Administratively erases a user's session (logged to the
    /// disclosure log first on a durable store). Returns whether a
    /// session existed.
    pub fn reset(&self, user: &str) -> Result<bool, SessionError> {
        let idx = self.shard_index(user);
        let mut shard = Self::lock_shard(&self.shards[idx]);
        if !shard.contains_key(user) {
            return Ok(false);
        }
        if let Some(wal) = &self.wal {
            wal.append_reset(idx, user)
                .map_err(|e| SessionError::Storage {
                    detail: e.to_string(),
                })?;
        }
        shard.remove(user);
        Ok(true)
    }

    /// Snapshots and compacts the disclosure log when it is due: rotates
    /// each shard's segment under that shard's session lock (so the cut
    /// sequence number and the captured sessions agree), then writes the
    /// snapshot and deletes the segments it covers. Returns whether a
    /// snapshot was committed. A no-op on in-memory stores and while
    /// another snapshot is in flight.
    pub fn maybe_snapshot(&self) -> Result<bool, WalError> {
        let Some(wal) = &self.wal else {
            return Ok(false);
        };
        if !wal.should_snapshot() {
            return Ok(false);
        }
        let Some(guard) = wal.try_begin_snapshot() else {
            return Ok(false);
        };
        let mut applied = Vec::with_capacity(self.shards.len());
        let mut sessions = Vec::with_capacity(self.shards.len());
        for (idx, shard) in self.shards.iter().enumerate() {
            let locked = Self::lock_shard(shard);
            let mut entries: Vec<(String, WalSession)> = locked
                .iter()
                .map(|(user, s)| (user.clone(), to_wal_session(s)))
                .collect();
            let cut = wal.rotate_shard(idx)?;
            drop(locked);
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            applied.push(cut);
            sessions.push(entries);
        }
        wal.commit_snapshot(guard, applied, sessions)?;
        Ok(true)
    }

    /// Looks up a user's session.
    pub fn get(&self, user: &str) -> Option<Session> {
        Self::lock_shard(self.shard(user)).get(user).cloned()
    }

    /// Total number of sessions across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock_shard(s).len()).sum()
    }

    /// `true` iff no user has a session yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knowledge_is_the_intersection_of_disclosures() {
        let store = SessionStore::new(4, 4);
        let b1 = WorldSet::from_indices(4, [1, 2, 3]);
        let b2 = WorldSet::from_indices(4, [2, 3]);
        let s1 = store
            .apply_disclosure("alice", 1, 0b01, &b1, 250_000)
            .unwrap();
        assert_eq!(s1.disclosures, 1);
        assert_eq!(s1.knowledge, b1);
        let s2 = store
            .apply_disclosure("alice", 2, 0b11, &b2, 500_000)
            .unwrap();
        assert_eq!(s2.disclosures, 2);
        assert_eq!(s2.knowledge, WorldSet::from_indices(4, [2, 3]));
        assert_eq!(s2.last_time, 2);
        assert_eq!(s2.last_state_mask, 0b11);
        assert_eq!(s2.risk_sum_micros, 750_000);
        assert_eq!(s2.risk_max_micros, 500_000);
        assert_eq!(s2.survival_micros, 375_000);
        assert_eq!(s2.ledger_epoch(), 2);
    }

    #[test]
    fn zero_shards_clamps_to_one_instead_of_panicking() {
        // A shard count of 0 would make `shard()` divide by zero on the
        // first lookup; the constructor clamps it to a single shard.
        let store = SessionStore::new(0, 4);
        let b = WorldSet::from_indices(4, [1, 2]);
        let s = store.apply_disclosure("dana", 1, 0, &b, 0).unwrap();
        assert_eq!(s.knowledge, b);
        assert_eq!(store.get("dana").unwrap().disclosures, 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn per_user_chronology_enforced() {
        let store = SessionStore::new(4, 4);
        let b = WorldSet::full(4);
        store.apply_disclosure("bob", 5, 0, &b, 0).unwrap();
        assert_eq!(
            store.apply_disclosure("bob", 3, 0, &b, 0),
            Err(SessionError::OutOfOrder { time: 3, last: 5 })
        );
        // Equal timestamps and other users are unaffected.
        assert!(store.apply_disclosure("bob", 5, 0, &b, 0).is_ok());
        assert!(store.apply_disclosure("carol", 1, 0, &b, 0).is_ok());
        assert_eq!(store.len(), 2);
    }

    use epi_wal::testdir::TempDir;
    use epi_wal::{FsyncPolicy, WalConfig};

    fn durable_store(dir: &std::path::Path, shards: usize, universe: usize) -> SessionStore {
        let (wal, recovered) = Wal::open(WalConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every: 8,
            ..WalConfig::new(dir.to_path_buf(), shards, universe)
        })
        .unwrap();
        SessionStore::durable(shards, universe, Arc::new(wal), recovered.shards)
    }

    #[test]
    fn durable_store_survives_reopen_with_identical_sessions() {
        let tmp = TempDir::new("session-reopen");
        let users = ["alice", "bob", "carol", "dana"];
        let before: Vec<Session> = {
            let store = durable_store(tmp.path(), 4, 4);
            for (i, user) in users.iter().enumerate() {
                let i = i as u32;
                let b1 = WorldSet::from_indices(4, [i % 4, (i + 1) % 4]);
                let b2 = WorldSet::from_indices(4, [(i + 1) % 4]);
                store.apply_disclosure(user, 1, 0b01, &b1, 300_000).unwrap();
                store.apply_disclosure(user, 2, 0b11, &b2, 700_000).unwrap();
            }
            users.iter().map(|u| store.get(u).unwrap()).collect()
        };
        let store = durable_store(tmp.path(), 4, 4);
        assert_eq!(store.len(), users.len());
        for (user, expected) in users.iter().zip(before) {
            let after = store.get(user).unwrap();
            assert_eq!(after, expected, "session for {user} must survive restart");
            assert_eq!(
                knowledge_digest(&after.knowledge),
                knowledge_digest(&expected.knowledge)
            );
            assert_eq!(
                ledger_digest(&after),
                ledger_digest(&expected),
                "replayed ledger for {user} must be byte-identical"
            );
        }
    }

    #[test]
    fn durable_reset_survives_reopen() {
        let tmp = TempDir::new("session-reset");
        {
            let store = durable_store(tmp.path(), 2, 4);
            let b = WorldSet::from_indices(4, [1, 2]);
            store.apply_disclosure("erin", 1, 0, &b, 0).unwrap();
            store.apply_disclosure("frank", 1, 0, &b, 0).unwrap();
            assert!(store.reset("erin").unwrap());
            assert!(!store.reset("erin").unwrap(), "already gone");
        }
        let store = durable_store(tmp.path(), 2, 4);
        assert!(store.get("erin").is_none(), "reset must be durable");
        assert!(store.get("frank").is_some());
    }

    #[test]
    fn snapshot_compaction_preserves_recovered_state() {
        let tmp = TempDir::new("session-snapshot");
        let before: Vec<(String, Session)> = {
            let store = durable_store(tmp.path(), 2, 4);
            let b = WorldSet::from_indices(4, [0, 2, 3]);
            // Enough appends to cross snapshot_every = 8.
            for i in 0..12u64 {
                let user = format!("user{}", i % 3);
                store.apply_disclosure(&user, i, 0, &b, 50_000).unwrap();
                store.maybe_snapshot().unwrap();
            }
            assert!(
                store.wal().unwrap().stats().snapshots > 0,
                "the stream must have crossed the snapshot threshold"
            );
            (0..3)
                .map(|i| {
                    let user = format!("user{i}");
                    let s = store.get(&user).unwrap();
                    (user, s)
                })
                .collect()
        };
        let store = durable_store(tmp.path(), 2, 4);
        for (user, expected) in before {
            assert_eq!(store.get(&user).unwrap(), expected);
        }
    }

    #[test]
    fn shard_placement_is_pinned_to_the_on_disk_format() {
        // User→shard placement is part of the on-disk WAL layout
        // (docs/PERSISTENCE.md): an existing data dir replays each
        // user's records from the shard this function picked when they
        // were written. These pins are FNV-1a(user) mod 8, precomputed;
        // if they fail, the hash changed and every durable data dir in
        // the field would mis-place its users on the next boot.
        let store = SessionStore::new(8, 4);
        for (user, shard) in [
            ("alice", 7),
            ("bob", 4),
            ("carol", 2),
            ("dana", 3),
            ("user0", 6),
            ("user1", 1),
            ("", 5),
        ] {
            assert_eq!(store.shard_index(user), shard, "placement of {user:?}");
        }
    }

    #[test]
    fn users_land_in_stable_shards() {
        let store = SessionStore::new(8, 4);
        let b = WorldSet::full(4);
        for i in 0..50 {
            store
                .apply_disclosure(&format!("user{i}"), 1, 0, &b, 0)
                .unwrap();
        }
        assert_eq!(store.len(), 50);
        for i in 0..50 {
            assert!(store.get(&format!("user{i}")).is_some());
        }
        assert!(store.get("nobody").is_none());
    }
}
