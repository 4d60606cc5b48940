//! The durable database: a directory with one snapshot and one WAL,
//! opened with full recovery, mutated through logged operations, and
//! checkpointed with an epoch-sequenced atomic snapshot rotation.
//!
//! ## Crash windows
//!
//! Every mutation takes one body, `Db::write`: *check → log → apply*.
//! The in-memory state changes only after the WAL append succeeded, so
//! an I/O failure leaves memory and disk telling the same story.
//! `save()` has exactly one publication point — the atomic rename of
//! `snapshot.tmp` over `snapshot.bin`:
//!
//! * crash **before** the rename — the old snapshot and the full WAL
//!   survive; recovery replays everything;
//! * crash **after** the rename but before the WAL reset — the new
//!   snapshot is live and the old WAL's epoch is stale; recovery discards
//!   it (its frames are already folded into the snapshot);
//! * crash **during** the WAL reset — a torn WAL header is recovered as
//!   an empty log at the snapshot's epoch.
//!
//! If `save()` fails after the rename succeeded, the writer poisons
//! itself: continuing to append to a stale-epoch log would silently lose
//! those appends on the next open, so the database refuses further
//! mutations until reopened.

use crate::fault::IoFaults;
use crate::snapshot::{decode_snapshot, encode_snapshot};
use crate::views::{decode_views, encode_views, ViewsCheckpoint};
use crate::wal::{scan_wal, WalWriter};
use crate::{fsio, StorageError, SNAPSHOT_FILE, SNAPSHOT_TMP, VIEWS_FILE, VIEWS_TMP, WAL_FILE};
use no_object::text::{import_clauses, parse_clause, render_clause, Clause};
use no_object::{Governor, Instance, RelationSchema, Schema, Universe, Value};
use std::path::{Path, PathBuf};

/// When WAL appends are made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every logged mutation — the default; a mutation that
    /// returns `Ok` survives any crash.
    #[default]
    Always,
    /// `fsync` only on an explicit [`Db::sync`] or [`Db::save`] — faster
    /// bulk loading; a crash may lose the unsynced suffix (but never
    /// corrupts what was synced).
    Manual,
}

/// Options for opening a durable database.
#[derive(Debug, Clone, Default)]
pub struct DbOptions {
    /// Durability policy for logged mutations.
    pub sync: SyncPolicy,
    /// Governor charged for the arenas rebuilt during recovery (snapshot
    /// bytes plus every replayed frame), so `:open` on a huge store trips
    /// the same memory budget as building the instance any other way.
    pub governor: Option<Governor>,
    /// Fault-injection handle shared by every I/O this database performs.
    pub faults: IoFaults,
}

/// What recovery found and did while opening a database.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpenStats {
    /// True when the directory held no database and a fresh one was
    /// initialised.
    pub created: bool,
    /// Epoch of the snapshot that was loaded.
    pub snapshot_epoch: u64,
    /// WAL frames replayed over the snapshot.
    pub replayed_frames: u64,
    /// Bytes of torn WAL tail truncated away.
    pub truncated_bytes: u64,
    /// True when the WAL belonged to an older epoch (a crash landed
    /// between snapshot rename and WAL reset) and was discarded.
    pub stale_wal_discarded: bool,
    /// Bytes charged to the governor for replayed state.
    pub replayed_bytes: u64,
}

/// Counts from a bulk text import.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImportStats {
    /// Relations newly declared.
    pub relations_added: u64,
    /// Tuples newly inserted (duplicates don't count).
    pub tuples_added: u64,
}

/// The result of a read-only integrity check of a database directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Epoch of the snapshot.
    pub snapshot_epoch: u64,
    /// Size of the snapshot file in bytes.
    pub snapshot_bytes: u64,
    /// Epoch of the WAL header, if the WAL exists and its header is
    /// intact.
    pub wal_epoch: Option<u64>,
    /// Valid frames the WAL holds for the current epoch.
    pub wal_frames: u64,
    /// True when the WAL is from an older epoch and would be discarded.
    pub stale_wal: bool,
    /// Bytes of torn tail that recovery would truncate.
    pub torn_tail_bytes: u64,
    /// Atoms in the recovered universe.
    pub atoms: u64,
    /// Relations in the recovered schema.
    pub relations: u64,
    /// Tuples across all relations after replay.
    pub tuples: u64,
}

/// A durable complex-object database.
#[derive(Debug)]
pub struct Db {
    dir: PathBuf,
    universe: Universe,
    instance: Instance,
    epoch: u64,
    wal: WalWriter,
    sync: SyncPolicy,
    faults: IoFaults,
    stats: OpenStats,
    /// Every clause of the current epoch, replayed or appended, in log
    /// order — the maintenance engine's change feed. Cleared by every
    /// checkpoint.
    tail: Vec<Clause>,
}

impl Db {
    /// Open the database at `dir`, creating a fresh empty one if the
    /// directory holds none. Runs full recovery: loads the latest valid
    /// snapshot, discards a stale WAL, replays current-epoch frames,
    /// truncates a torn tail, and refuses with a structured error on
    /// mid-log or snapshot corruption.
    pub fn open(dir: &Path, options: DbOptions) -> Result<Db, StorageError> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io("mkdir", dir, e))?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);
        let tmp_path = dir.join(SNAPSHOT_TMP);
        // A leftover temp snapshot is a save that never reached its
        // rename; the staging bytes are dead either way.
        if tmp_path.exists() {
            let _ = std::fs::remove_file(&tmp_path);
        }

        if !snap_path.exists() {
            if wal_path.exists() {
                return Err(StorageError::corrupt(
                    &wal_path,
                    0,
                    "write-ahead log present without a snapshot",
                ));
            }
            return Db::init_fresh(dir, options);
        }

        let snap_bytes =
            std::fs::read(&snap_path).map_err(|e| StorageError::io("read", &snap_path, e))?;
        let mut replayed_bytes = snap_bytes.len() as u64;
        if let Some(g) = &options.governor {
            g.charge_mem("storage.replay", snap_bytes.len() as u64)?;
        }
        let snap = decode_snapshot(&snap_bytes, &snap_path)?;
        let mut universe = snap.universe;
        let mut instance = snap.instance;
        let epoch = snap.epoch;

        let mut stats = OpenStats {
            created: false,
            snapshot_epoch: epoch,
            ..OpenStats::default()
        };

        let mut tail = Vec::new();
        let wal = if !wal_path.exists() {
            let mut w = WalWriter::create(&wal_path, epoch, &options.faults)?;
            w.sync()?;
            w
        } else {
            let wal_bytes =
                std::fs::read(&wal_path).map_err(|e| StorageError::io("read", &wal_path, e))?;
            let scan = scan_wal(&wal_bytes, &wal_path)?;
            match scan.epoch {
                Some(we) if we > epoch => {
                    return Err(StorageError::corrupt(
                        &wal_path,
                        8,
                        format!("write-ahead log epoch {we} is ahead of snapshot epoch {epoch}"),
                    ));
                }
                Some(we) if we == epoch => {
                    for (i, frame) in scan.frames.iter().enumerate() {
                        if let Some(g) = &options.governor {
                            g.charge_mem("storage.replay", frame.len() as u64)?;
                        }
                        replayed_bytes += frame.len() as u64;
                        let clause = parse_frame(&mut universe, frame, &wal_path, i)?;
                        tail.push(clause.clone());
                        apply_clause(&mut instance, clause, &wal_path, i)?;
                    }
                    stats.replayed_frames = scan.frames.len() as u64;
                    stats.truncated_bytes = wal_bytes.len() as u64 - scan.keep_len;
                    WalWriter::open_append(
                        &wal_path,
                        scan.keep_len,
                        scan.frames.len() as u64,
                        scan.torn,
                        &options.faults,
                    )?
                }
                // Older epoch (crash between rename and WAL reset) or a
                // torn header (crash during the reset): the log carries
                // nothing the snapshot doesn't already hold.
                _ => {
                    stats.stale_wal_discarded = scan.epoch.is_some();
                    let mut w = WalWriter::create(&wal_path, epoch, &options.faults)?;
                    w.sync()?;
                    w
                }
            }
        };
        stats.replayed_bytes = replayed_bytes;

        Ok(Db {
            dir: dir.to_path_buf(),
            universe,
            instance,
            epoch,
            wal,
            sync: options.sync,
            faults: options.faults,
            stats,
            tail,
        })
    }

    /// Initialise an empty database: snapshot at epoch 0 (written with
    /// the same atomic staging as any checkpoint) plus an empty WAL.
    fn init_fresh(dir: &Path, options: DbOptions) -> Result<Db, StorageError> {
        let universe = Universe::default();
        let instance = Instance::empty(Schema::new());
        let bytes = encode_snapshot(0, &universe, &instance);
        publish(&options.faults, dir, SNAPSHOT_TMP, SNAPSHOT_FILE, &bytes)?;
        fsio::sync_dir(&options.faults, dir)?;
        let mut wal = WalWriter::create(&dir.join(WAL_FILE), 0, &options.faults)?;
        wal.sync()?;
        Ok(Db {
            dir: dir.to_path_buf(),
            universe,
            instance,
            epoch: 0,
            wal,
            sync: options.sync,
            faults: options.faults,
            stats: OpenStats {
                created: true,
                ..OpenStats::default()
            },
            tail: Vec::new(),
        })
    }

    /// Declare a new relation. Logged, then applied.
    pub fn declare(&mut self, rel: RelationSchema) -> Result<(), StorageError> {
        self.write(Clause::Schema(rel), self.sync).map(drop)
    }

    /// Insert one tuple. Validated against the schema (structured error,
    /// never a panic), logged, then applied. Returns `Ok(false)` without
    /// logging when the tuple was already present.
    pub fn insert(&mut self, name: &str, row: Vec<Value>) -> Result<bool, StorageError> {
        self.write(Clause::Fact(name.to_string(), row), self.sync)
    }

    /// Delete one tuple. Validated, logged as a `delete R(…).` clause,
    /// then applied. Returns `Ok(false)` without logging when the tuple
    /// was not present — like duplicate inserts, no-op deletes never
    /// reach the log, so replay applies every logged retraction to a
    /// present row.
    pub fn delete(&mut self, name: &str, row: &[Value]) -> Result<bool, StorageError> {
        self.write(Clause::Retract(name.to_string(), row.to_vec()), self.sync)
    }

    /// Bulk-import a text-format database (`schema R(U).` declarations
    /// and facts). New relations are declared, new tuples inserted;
    /// existing duplicates are skipped. One `fsync` at the end covers the
    /// whole batch under [`SyncPolicy::Always`].
    pub fn import_text(&mut self, src: &str) -> Result<ImportStats, StorageError> {
        let clauses =
            import_clauses(src, &mut self.universe, self.instance.schema()).map_err(|e| {
                StorageError::Invalid {
                    detail: format!("cannot parse database text: {e}"),
                }
            })?;
        let mut stats = ImportStats::default();
        for clause in clauses {
            let declares = matches!(clause, Clause::Schema(_));
            if !self.write(clause, SyncPolicy::Manual)? {
                continue;
            }
            if declares {
                stats.relations_added += 1;
            } else {
                stats.tuples_added += 1;
            }
        }
        if self.sync == SyncPolicy::Always && stats != ImportStats::default() {
            self.wal.sync()?;
        }
        Ok(stats)
    }

    /// The one write body: check the clause ([`Instance::check`]), skip
    /// it when it would change nothing, log it, `fsync` under `sync`,
    /// then apply it. Returns whether it changed the database.
    fn write(&mut self, clause: Clause, sync: SyncPolicy) -> Result<bool, StorageError> {
        let changes = self
            .instance
            .check(&clause)
            .map_err(|detail| StorageError::Invalid { detail })?;
        if !changes {
            return Ok(false);
        }
        self.wal
            .append(render_clause(&self.universe, &clause).as_bytes())?;
        if sync == SyncPolicy::Always {
            self.wal.sync()?;
        }
        self.tail.push(clause.clone());
        self.instance.apply(clause);
        Ok(true)
    }

    /// Checkpoint: write a snapshot of the current state at epoch `e+1`,
    /// publish it with an atomic rename, and reset the WAL to the new
    /// epoch. A failure before the rename leaves the database fully
    /// usable; a failure after it poisons the writer (reopen to recover —
    /// nothing acknowledged is lost, the snapshot holds everything).
    pub fn save(&mut self) -> Result<(), StorageError> {
        // Make the WAL tail durable first: if the checkpoint dies before
        // publishing, the log must already hold every acknowledged write.
        if self.sync == SyncPolicy::Manual {
            self.wal.sync()?;
        }
        let next = self.epoch + 1;
        let bytes = encode_snapshot(next, &self.universe, &self.instance);
        // Stage, then publish: the rename is the commit point, and a
        // failure before it changes nothing visible.
        publish(&self.faults, &self.dir, SNAPSHOT_TMP, SNAPSHOT_FILE, &bytes)?;

        // Phase 3: from here the old WAL is stale; any failure leaves the
        // writer unusable until reopen (recovery handles every window).
        let finish = (|| {
            fsio::sync_dir(&self.faults, &self.dir)?;
            let mut wal = WalWriter::create(&self.dir.join(WAL_FILE), next, &self.faults)?;
            wal.sync()?;
            Ok(wal)
        })();
        match finish {
            Ok(wal) => {
                self.wal = wal;
                self.epoch = next;
                self.tail.clear();
                Ok(())
            }
            Err(e) => {
                self.wal.poison();
                Err(e)
            }
        }
    }

    /// Checkpoint the maintenance engine's serialised view states,
    /// stamped with the current epoch and WAL frame count. Written with
    /// the same atomic staging as every checkpoint; on open,
    /// [`Db::load_views`] plus [`Db::epoch_clauses`] tell the caller
    /// exactly which tail to replay over the stored states.
    pub fn save_views(&mut self, body: &[u8]) -> Result<(), StorageError> {
        let bytes = encode_views(self.epoch, self.wal.frames(), body);
        publish(&self.faults, &self.dir, VIEWS_TMP, VIEWS_FILE, &bytes)?;
        fsio::sync_dir(&self.faults, &self.dir)
    }

    /// Load the view checkpoint, if one exists. Returns `Ok(None)` when
    /// no checkpoint was ever written **or** when the stored one belongs
    /// to an older epoch (a checkpoint happened without a view save, so
    /// the states are stale and must be recomputed). Corrupt bytes are a
    /// structured error, like every on-disk validation failure.
    pub fn load_views(&self) -> Result<Option<ViewsCheckpoint>, StorageError> {
        let views_path = self.dir.join(VIEWS_FILE);
        if !views_path.exists() {
            return Ok(None);
        }
        let bytes =
            std::fs::read(&views_path).map_err(|e| StorageError::io("read", &views_path, e))?;
        let ck = decode_views(&bytes, &views_path)?;
        if ck.epoch != self.epoch || ck.frames > self.tail.len() as u64 {
            return Ok(None);
        }
        Ok(Some(ck))
    }

    /// The clauses of the current epoch, replayed or appended, in log
    /// order — the maintenance engine's change feed. Index `i` is WAL
    /// frame `i`; a view checkpoint at frame count `f` catches up by
    /// replaying `epoch_clauses()[f..]`.
    pub fn epoch_clauses(&self) -> impl ExactSizeIterator<Item = &Clause> {
        self.tail.iter()
    }

    /// `fsync` the WAL — makes every mutation so far durable under
    /// [`SyncPolicy::Manual`].
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.wal.sync()
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The atom universe. Mutable access is sound: the universe is
    /// append-only and fact clauses re-intern their atom names on replay,
    /// so extra atoms (e.g. interned while parsing queries) never affect
    /// recovery.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Mutable universe access (for query parsing against this database).
    pub fn universe_mut(&mut self) -> &mut Universe {
        &mut self.universe
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The current epoch (bumped by every successful [`Db::save`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Frames in the live WAL (replayed plus appended this session).
    pub fn wal_frames(&self) -> u64 {
        self.wal.frames()
    }

    /// What recovery found when this handle was opened.
    pub fn open_stats(&self) -> &OpenStats {
        &self.stats
    }

    /// The durability policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }
}

/// Stage `bytes` in `dir/tmp` (create, write, fsync) and publish them
/// over `dir/name` with one atomic rename. A failure removes the staging
/// file and leaves `name` as it was; the caller fsyncs the directory.
fn publish(
    faults: &IoFaults,
    dir: &Path,
    tmp: &str,
    name: &str,
    bytes: &[u8],
) -> Result<(), StorageError> {
    let tmp_path = dir.join(tmp);
    let published = (|| {
        let mut f = fsio::create(faults, &tmp_path)?;
        fsio::write_all(faults, &mut f, &tmp_path, bytes)?;
        fsio::sync(faults, &f, &tmp_path)?;
        drop(f);
        fsio::rename(faults, &tmp_path, &dir.join(name))
    })();
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    published
}

/// Parse one replayed WAL frame. Frames passed their checksum, so any
/// failure here means the log was tampered with below CRC granularity or
/// written by something else — corruption, not a caller mistake.
fn parse_frame(
    universe: &mut Universe,
    frame: &[u8],
    wal_path: &Path,
    index: usize,
) -> Result<Clause, StorageError> {
    let text = std::str::from_utf8(frame).map_err(|e| {
        StorageError::corrupt(wal_path, 0, format!("frame {index} is not utf-8: {e}"))
    })?;
    parse_clause(text, universe).map_err(|e| {
        StorageError::corrupt(wal_path, 0, format!("frame {index} does not parse: {e}"))
    })
}

/// Apply one replayed clause. Mutations are checked before logging and
/// no-ops are never logged, so replay from the same starting state must
/// apply cleanly — anything else is corruption. (A replayed duplicate
/// fact changes nothing and is let through.)
fn apply_clause(
    instance: &mut Instance,
    clause: Clause,
    path: &Path,
    index: usize,
) -> Result<(), StorageError> {
    let corrupt =
        |detail: String| StorageError::corrupt(path, 0, format!("frame {index}: {detail}"));
    match (instance.check(&clause).map_err(corrupt)?, &clause) {
        (false, Clause::Retract(name, _)) => {
            Err(corrupt(format!("retracts an absent tuple from {name:?}")))
        }
        _ => {
            instance.apply(clause);
            Ok(())
        }
    }
}

/// Read-only integrity check of the database at `dir`: validates the
/// snapshot, scans and replays the WAL in memory, and reports what
/// recovery would do — without modifying a byte on disk.
pub fn verify(dir: &Path) -> Result<VerifyReport, StorageError> {
    let snap_path = dir.join(SNAPSHOT_FILE);
    let wal_path = dir.join(WAL_FILE);
    if !snap_path.exists() {
        return Err(StorageError::Invalid {
            detail: format!(
                "{} is not a database directory (no {SNAPSHOT_FILE})",
                dir.display()
            ),
        });
    }
    let snap_bytes =
        std::fs::read(&snap_path).map_err(|e| StorageError::io("read", &snap_path, e))?;
    let snap = decode_snapshot(&snap_bytes, &snap_path)?;
    let mut universe = snap.universe;
    let mut instance = snap.instance;
    let epoch = snap.epoch;

    let mut report = VerifyReport {
        snapshot_epoch: snap.epoch,
        snapshot_bytes: snap_bytes.len() as u64,
        wal_epoch: None,
        wal_frames: 0,
        stale_wal: false,
        torn_tail_bytes: 0,
        atoms: 0,
        relations: 0,
        tuples: 0,
    };

    if wal_path.exists() {
        let wal_bytes =
            std::fs::read(&wal_path).map_err(|e| StorageError::io("read", &wal_path, e))?;
        let scan = scan_wal(&wal_bytes, &wal_path)?;
        report.wal_epoch = scan.epoch;
        report.torn_tail_bytes = wal_bytes.len() as u64 - scan.keep_len;
        match scan.epoch {
            Some(we) if we > epoch => {
                return Err(StorageError::corrupt(
                    &wal_path,
                    8,
                    format!("write-ahead log epoch {we} is ahead of recovered epoch {epoch}"),
                ));
            }
            Some(we) if we == epoch => {
                for (i, frame) in scan.frames.iter().enumerate() {
                    let clause = parse_frame(&mut universe, frame, &wal_path, i)?;
                    apply_clause(&mut instance, clause, &wal_path, i)?;
                }
                report.wal_frames = scan.frames.len() as u64;
            }
            _ => report.stale_wal = scan.epoch.is_some(),
        }
    }

    report.atoms = universe.len() as u64;
    report.relations = instance.schema().len() as u64;
    report.tuples = instance
        .schema()
        .relations()
        .map(|r| instance.relation(&r.name).len() as u64)
        .sum();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::Type;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let p =
                std::env::temp_dir().join(format!("no_storage_db_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn populated(dir: &Path) -> Db {
        let mut db = Db::open(dir, DbOptions::default()).unwrap();
        db.declare(RelationSchema::new("G", vec![Type::Atom, Type::Atom]))
            .unwrap();
        let a = db.universe_mut().intern("a");
        let b = db.universe_mut().intern("b");
        db.insert("G", vec![Value::Atom(a), Value::Atom(b)])
            .unwrap();
        db.insert("G", vec![Value::Atom(b), Value::Atom(a)])
            .unwrap();
        db
    }

    #[test]
    fn create_mutate_reopen() {
        let t = TempDir::new("basic");
        let db = populated(&t.0);
        assert!(db.open_stats().created);
        assert_eq!(db.wal_frames(), 3);
        drop(db);

        let db = Db::open(&t.0, DbOptions::default()).unwrap();
        assert!(!db.open_stats().created);
        assert_eq!(db.open_stats().replayed_frames, 3);
        assert_eq!(db.instance().relation("G").len(), 2);
        assert_eq!(db.epoch(), 0);
    }

    #[test]
    fn save_folds_wal_into_snapshot() {
        let t = TempDir::new("save");
        let mut db = populated(&t.0);
        db.save().unwrap();
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.wal_frames(), 0);
        drop(db);

        let db = Db::open(&t.0, DbOptions::default()).unwrap();
        assert_eq!(db.open_stats().snapshot_epoch, 1);
        assert_eq!(db.open_stats().replayed_frames, 0);
        assert_eq!(db.instance().relation("G").len(), 2);

        let report = verify(&t.0).unwrap();
        assert_eq!(report.snapshot_epoch, 1);
        assert_eq!(report.wal_frames, 0);
        assert_eq!(report.tuples, 2);
        assert_eq!(report.relations, 1);
    }

    #[test]
    fn invalid_mutations_change_nothing() {
        let t = TempDir::new("invalid");
        let mut db = populated(&t.0);
        let frames = db.wal_frames();
        let a = db.universe_mut().intern("a");

        let err = db.insert("H", vec![Value::Atom(a)]).unwrap_err();
        assert!(matches!(err, StorageError::Invalid { .. }));
        let err = db.insert("G", vec![Value::Atom(a)]).unwrap_err();
        assert!(err.to_string().contains("arity"));
        let err = db
            .insert("G", vec![Value::empty_set(), Value::Atom(a)])
            .unwrap_err();
        assert!(err.to_string().contains("not of type"));
        let err = db
            .declare(RelationSchema::new("G", vec![Type::Atom]))
            .unwrap_err();
        assert!(matches!(err, StorageError::Invalid { .. }));

        assert_eq!(db.wal_frames(), frames, "nothing was logged");
    }

    #[test]
    fn duplicate_insert_is_not_logged() {
        let t = TempDir::new("dup");
        let mut db = populated(&t.0);
        let frames = db.wal_frames();
        let a = db.universe_mut().intern("a");
        let b = db.universe_mut().intern("b");
        assert!(!db
            .insert("G", vec![Value::Atom(a), Value::Atom(b)])
            .unwrap());
        assert_eq!(db.wal_frames(), frames);
    }

    #[test]
    fn import_text_roundtrip() {
        let t = TempDir::new("import");
        let mut db = Db::open(&t.0, DbOptions::default()).unwrap();
        let stats = db
            .import_text("schema E(U, U).\nE('x', 'y').\nE('y', 'z').\n")
            .unwrap();
        assert_eq!(stats.relations_added, 1);
        assert_eq!(stats.tuples_added, 2);
        // Importing the same text again is a no-op.
        let stats = db
            .import_text("schema E(U, U).\nE('x', 'y').\nE('y', 'z').\n")
            .unwrap();
        assert_eq!(stats.relations_added, 0);
        assert_eq!(stats.tuples_added, 0);
        drop(db);
        let db = Db::open(&t.0, DbOptions::default()).unwrap();
        assert_eq!(db.instance().relation("E").len(), 2);
    }

    #[test]
    fn delete_logs_and_replays() {
        let t = TempDir::new("delete");
        let mut db = populated(&t.0);
        let a = db.universe_mut().intern("a");
        let b = db.universe_mut().intern("b");
        assert!(db.delete("G", &[Value::Atom(a), Value::Atom(b)]).unwrap());
        assert!(!db.delete("G", &[Value::Atom(a), Value::Atom(b)]).unwrap());
        assert_eq!(db.wal_frames(), 4, "no-op delete not logged");
        assert_eq!(db.instance().relation("G").len(), 1);
        drop(db);

        let db = Db::open(&t.0, DbOptions::default()).unwrap();
        assert_eq!(db.instance().relation("G").len(), 1);
        let a = db.universe().get("a").unwrap();
        let b = db.universe().get("b").unwrap();
        assert!(!db
            .instance()
            .relation("G")
            .contains(&[Value::Atom(a), Value::Atom(b)]));
        assert!(db
            .instance()
            .relation("G")
            .contains(&[Value::Atom(b), Value::Atom(a)]));
    }

    #[test]
    fn epoch_clauses_feed_and_view_checkpoint_roundtrip() {
        let t = TempDir::new("views");
        let mut db = populated(&t.0);
        assert_eq!(db.epoch_clauses().len(), 3);
        db.save_views(b"view state v1").unwrap();
        let ck = db.load_views().unwrap().unwrap();
        assert_eq!(ck.epoch, 0);
        assert_eq!(ck.frames, 3);
        assert_eq!(ck.body, b"view state v1");
        let a = db.universe().get("a").unwrap();
        let c = db.universe_mut().intern("c");
        db.insert("G", vec![Value::Atom(a), Value::Atom(c)])
            .unwrap();
        drop(db);

        // Reopen: the checkpoint is current-epoch; the caller replays the
        // tail past its frame count.
        let db = Db::open(&t.0, DbOptions::default()).unwrap();
        let ck = db.load_views().unwrap().unwrap();
        assert_eq!(ck.frames, 3);
        let tail: Vec<_> = db.epoch_clauses().skip(ck.frames as usize).collect();
        assert_eq!(tail.len(), 1);
        assert!(matches!(tail[0], Clause::Fact(name, _) if name == "G"));
    }

    #[test]
    fn stale_view_checkpoint_is_discarded() {
        let t = TempDir::new("viewstale");
        let mut db = populated(&t.0);
        db.save_views(b"old").unwrap();
        db.save().unwrap();
        // Epoch moved past the checkpoint without a view save.
        assert_eq!(db.load_views().unwrap(), None);
        drop(db);
        let db = Db::open(&t.0, DbOptions::default()).unwrap();
        assert_eq!(db.load_views().unwrap(), None);
    }

    #[test]
    fn stale_wal_is_discarded() {
        let t = TempDir::new("stale");
        let mut db = populated(&t.0);
        db.save().unwrap();
        drop(db);
        // Forge the crash window: put back a WAL with an older epoch.
        let wal_path = t.0.join(WAL_FILE);
        let mut bytes = crate::wal::header_bytes(0).to_vec();
        bytes.extend_from_slice(&crate::wal::frame_bytes(b"G('a', 'b')."));
        std::fs::write(&wal_path, &bytes).unwrap();

        let db = Db::open(&t.0, DbOptions::default()).unwrap();
        assert!(db.open_stats().stale_wal_discarded);
        assert_eq!(db.open_stats().replayed_frames, 0);
        assert_eq!(db.instance().relation("G").len(), 2);
        assert_eq!(db.epoch(), 1);
    }

    #[test]
    fn governor_budget_trips_on_replay() {
        use no_object::Limits;
        let t = TempDir::new("gov");
        let db = populated(&t.0);
        drop(db);
        let limits = Limits {
            max_memory_bytes: 8,
            ..Limits::default()
        };
        let options = DbOptions {
            governor: Some(Governor::new(limits)),
            ..DbOptions::default()
        };
        let err = Db::open(&t.0, options).unwrap_err();
        assert!(matches!(err, StorageError::Resource(_)), "got {err}");
    }

    #[test]
    fn wal_without_snapshot_is_corruption() {
        let t = TempDir::new("orphan");
        std::fs::write(t.0.join(WAL_FILE), crate::wal::header_bytes(0)).unwrap();
        let err = Db::open(&t.0, DbOptions::default()).unwrap_err();
        assert!(err.is_corruption());
    }

    #[test]
    fn leftover_tmp_snapshot_is_cleaned_up() {
        let t = TempDir::new("tmpclean");
        let db = populated(&t.0);
        drop(db);
        std::fs::write(t.0.join(SNAPSHOT_TMP), b"half-written garbage").unwrap();
        let db = Db::open(&t.0, DbOptions::default()).unwrap();
        assert!(!t.0.join(SNAPSHOT_TMP).exists());
        assert_eq!(db.instance().relation("G").len(), 2);
    }
}
