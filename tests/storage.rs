//! Robustness of the durable storage layer, end to end through the
//! public API.
//!
//! * **Crash-anywhere sweep** — a scripted workload (open, declare,
//!   inserts, mid-stream and final checkpoints) is first run fault-free
//!   to count its I/O operations, then re-run once per operation with a
//!   deterministic kill (crash or one-byte short write) injected at that
//!   operation. After every kill, reopening must succeed and must yield
//!   exactly a prefix of the scripted mutations: everything acknowledged
//!   before the kill, at most the one mutation in flight, and nothing
//!   else. Never a panic.
//! * **Mid-log corruption** — flipping a byte inside a non-final WAL
//!   frame or inside the snapshot makes open/verify refuse with a
//!   structured [`StorageError::Corrupt`]; a flipped *final* frame is a
//!   torn tail and recovers the prefix. A WAL whose epoch is ahead of
//!   the snapshot's is refused the same way.
//! * **Never-panic properties** — arbitrary bytes as `wal.log` or
//!   `snapshot.bin`, and arbitrary single-byte flips anywhere in a valid
//!   store, can make open fail but never panic, and whatever state opens
//!   successfully re-verifies.
//! * **Snapshot roundtrip** — for every text database in `data/`,
//!   recovery (from the WAL, and from a checkpointed snapshot) rebuilds
//!   an instance and universe equal to the imported original.

mod common;

use common::ScratchDir;
use nestdb::object::text::parse_database;
use nestdb::object::{RelationSchema, Type, Universe, Value};
use nestdb::storage::{
    verify, Db, DbOptions, FaultMode, IoFaults, StorageError, SyncPolicy, SNAPSHOT_FILE, WAL_FILE,
};
use proptest::prelude::*;
use std::path::Path;

/// Number of scripted inserts in the sweep workload.
const INSERTS: usize = 6;

/// The scripted row for insert `i`: `E('n<i>', 'n<i+1>')`.
fn scripted_row(u: &mut Universe, i: usize) -> Vec<Value> {
    let a = u.intern(&format!("n{i}"));
    let b = u.intern(&format!("n{}", i + 1));
    vec![Value::Atom(a), Value::Atom(b)]
}

/// An error observed mid-workload must be the injected fault (or damage
/// it caused), never anything that would indicate a logic bug.
fn assert_storage_error(e: &StorageError) {
    match e {
        StorageError::Io { .. } | StorageError::Corrupt { .. } | StorageError::Invalid { .. } => {}
        StorageError::Resource(r) => panic!("unexpected budget trip during sweep: {r}"),
    }
}

/// Run the scripted workload against `dir` under `faults` with the given
/// sync policy. Returns `(inserts_done, insert_in_flight)`: how many
/// inserts were acknowledged before the first error, and whether the
/// error interrupted an insert (whose durability is then undetermined).
fn run_workload(dir: &Path, faults: IoFaults, sync: SyncPolicy) -> (usize, bool) {
    let opts = DbOptions {
        sync,
        faults,
        ..DbOptions::default()
    };
    let mut db = match Db::open(dir, opts) {
        Ok(db) => db,
        Err(e) => {
            assert_storage_error(&e);
            return (0, false);
        }
    };
    if let Err(e) = db.declare(RelationSchema::new("E", vec![Type::Atom, Type::Atom])) {
        assert_storage_error(&e);
        return (0, false);
    }
    let mut done = 0;
    for i in 0..INSERTS {
        if i == INSERTS / 2 {
            if let Err(e) = db.save() {
                assert_storage_error(&e);
                return (done, false);
            }
        }
        let row = scripted_row(db.universe_mut(), i);
        if let Err(e) = db.insert("E", row) {
            assert_storage_error(&e);
            return (done, true);
        }
        done += 1;
    }
    if let Err(e) = db.save() {
        assert_storage_error(&e);
        return (done, false);
    }
    (done, false)
}

/// Reopen `dir` fault-free and assert the recovered state is exactly a
/// scripted prefix of length in `lo..=hi`.
fn check_prefix_recovered(dir: &Path, lo: usize, hi: usize) {
    let db = Db::open(dir, DbOptions::default())
        .unwrap_or_else(|e| panic!("recovery after kill must succeed, got: {e}"));
    let rows = match db.instance().schema().get("E") {
        Some(_) => db.instance().relation("E").len(),
        None => 0,
    };
    assert!(
        lo <= rows && rows <= hi,
        "recovered {rows} rows, expected a prefix in {lo}..={hi}"
    );
    let mut u = db.universe().clone();
    for i in 0..rows {
        let row = scripted_row(&mut u, i);
        assert!(
            db.instance().relation("E").contains(&row),
            "recovered state is not the scripted prefix: missing row {i}"
        );
    }
    // The dir is fully repaired by the open above, so a read-only verify
    // must now pass and agree on the contents.
    let report = verify(dir).expect("verify after recovery");
    assert_eq!(report.tuples, rows as u64);
}

/// Kill the writer at every I/O operation (crash and torn-write flavors)
/// and prove reopening always yields a prefix-consistent database.
#[test]
fn crash_anywhere_sweep_recovers_a_prefix() {
    // Fault-free probe run to size the sweep.
    let probe = ScratchDir::new("storage_sweep_probe");
    let faults = IoFaults::none();
    let (done, in_flight) = run_workload(probe.path(), faults.clone(), SyncPolicy::Always);
    assert_eq!((done, in_flight), (INSERTS, false));
    let total_ops = faults.ops();
    assert!(
        total_ops > 20,
        "workload too small to sweep: {total_ops} ops"
    );

    for k in 1..=total_ops {
        for mode in [FaultMode::Crash, FaultMode::ShortWrite(1)] {
            let scratch = ScratchDir::new("storage_sweep");
            let faults = IoFaults::none();
            faults.arm(None, k, mode);
            let (done, in_flight) =
                run_workload(scratch.path(), faults.clone(), SyncPolicy::Always);
            faults.disarm();
            // Under SyncPolicy::Always every acknowledged insert is
            // durable; the one in flight may or may not have reached the
            // disk before the kill.
            check_prefix_recovered(scratch.path(), done, done + usize::from(in_flight));
        }
    }
}

/// Under `SyncPolicy::Manual` an acknowledged insert may still be lost,
/// but recovery must still land on *some* scripted prefix.
#[test]
fn manual_sync_still_recovers_a_prefix() {
    for k in [1, 3, 5, 8, 13, 21] {
        let scratch = ScratchDir::new("storage_manual");
        let faults = IoFaults::none();
        faults.arm(None, k, FaultMode::Crash);
        let (done, in_flight) = run_workload(scratch.path(), faults.clone(), SyncPolicy::Manual);
        faults.disarm();
        check_prefix_recovered(scratch.path(), 0, done + usize::from(in_flight));
    }
}

/// Build a store with a checkpoint and several WAL frames, fault-free.
fn build_store(dir: &Path) -> usize {
    let (done, in_flight) = run_workload(dir, IoFaults::none(), SyncPolicy::Always);
    assert_eq!((done, in_flight), (INSERTS, false));
    // Leave live WAL frames behind the final snapshot so WAL corruption
    // has something to bite on.
    let mut db = Db::open(dir, DbOptions::default()).unwrap();
    for i in INSERTS..INSERTS + 3 {
        let row = scripted_row(db.universe_mut(), i);
        db.insert("E", row).unwrap();
    }
    INSERTS + 3
}

#[test]
fn mid_log_corruption_is_refused_with_a_structured_error() {
    let scratch = ScratchDir::new("storage_midlog");
    build_store(scratch.path());
    let wal_path = scratch.file(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    // Flip a payload byte of the FIRST frame (header is 16 bytes, frame
    // header 8 more) — valid frames follow, so this is mid-log damage,
    // not a torn tail.
    let at = 16 + 8 + 2;
    assert!(bytes.len() > at + 30, "expected more frames after {at}");
    bytes[at] ^= 0x40;
    std::fs::write(&wal_path, &bytes).unwrap();

    let err = Db::open(scratch.path(), DbOptions::default()).expect_err("must refuse");
    assert!(err.is_corruption(), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("corrupt"), "{msg}");
    let err = verify(scratch.path()).expect_err("verify must refuse too");
    assert!(err.is_corruption(), "{err}");
}

#[test]
fn wal_ahead_of_snapshot_is_refused_with_a_structured_error() {
    let scratch = ScratchDir::new("storage_walahead");
    build_store(scratch.path());
    let snapshot_epoch = verify(scratch.path()).unwrap().snapshot_epoch;
    // Stamp the live WAL with the next epoch: its frames stay valid, but
    // no snapshot they were logged against exists, so neither replaying
    // them nor discarding them as stale is sound.
    let wal_path = scratch.file(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[8..16].copy_from_slice(&(snapshot_epoch + 1).to_le_bytes());
    std::fs::write(&wal_path, &bytes).unwrap();

    let err = Db::open(scratch.path(), DbOptions::default()).expect_err("open must refuse");
    assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("ahead"), "{err}");
    let err = verify(scratch.path()).expect_err("verify must refuse too");
    assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    assert_eq!(
        std::fs::read(&wal_path).unwrap(),
        bytes,
        "a refused open leaves the log untouched"
    );
}

#[test]
fn corrupt_final_frame_is_a_torn_tail_and_recovers_the_prefix() {
    let scratch = ScratchDir::new("storage_tail");
    let total = build_store(scratch.path());
    let wal_path = scratch.file(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&wal_path, &bytes).unwrap();

    let db = Db::open(scratch.path(), DbOptions::default()).expect("torn tail is recoverable");
    assert_eq!(db.instance().relation("E").len(), total - 1);
    assert!(db.open_stats().truncated_bytes > 0);
}

#[test]
fn snapshot_corruption_is_refused_with_a_structured_error() {
    let scratch = ScratchDir::new("storage_snapcorrupt");
    build_store(scratch.path());
    let snap_path = scratch.file(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap_path, &bytes).unwrap();

    let err = Db::open(scratch.path(), DbOptions::default()).expect_err("must refuse");
    assert!(err.is_corruption(), "{err}");
    assert!(verify(scratch.path()).is_err());
}

/// Every text database in `data/` (the corpus the rest of the test suite
/// exercises).
fn corpus() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("data");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "no") {
            out.push((
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&path).unwrap(),
            ));
        }
    }
    assert!(!out.is_empty(), "data/ corpus is missing");
    out
}

/// `snapshot(recover(db)) == snapshot(db)`: recovery — whether it replays
/// live WAL frames or decodes a checkpointed snapshot — rebuilds exactly
/// the imported database, universe and all.
#[test]
fn recovery_roundtrips_the_data_corpus() {
    for (name, text) in corpus() {
        let mut reference_u = Universe::new();
        let (_schema, reference) = parse_database(&text, &mut reference_u).unwrap();

        // Path 1: import logs every clause to the WAL; reopen replays it.
        let scratch = ScratchDir::new("storage_corpus");
        let mut db = Db::open(scratch.path(), DbOptions::default()).unwrap();
        db.import_text(&text).unwrap();
        let via_wal = Db::open(scratch.path(), DbOptions::default()).unwrap();
        assert_eq!(via_wal.instance(), &reference, "{name}: WAL replay differs");
        assert_eq!(via_wal.universe().len(), reference_u.len(), "{name}");

        // Path 2: checkpoint folds the WAL into a snapshot; reopen
        // decodes it.
        db.save().unwrap();
        let via_snap = Db::open(scratch.path(), DbOptions::default()).unwrap();
        assert_eq!(via_snap.instance(), &reference, "{name}: snapshot differs");
        for atom in reference_u.atoms() {
            assert_eq!(
                via_snap.universe().get(reference_u.name(atom)),
                Some(atom),
                "{name}: universe drifted across the snapshot"
            );
        }
        assert_eq!(via_snap.open_stats().replayed_frames, 0, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes in place of the WAL never panic the opener: they
    /// recover (torn garbage) or refuse with a structured error.
    #[test]
    fn arbitrary_wal_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let scratch = ScratchDir::new("storage_prop_wal");
        build_store(scratch.path());
        std::fs::write(scratch.file(WAL_FILE), &bytes).unwrap();
        match Db::open(scratch.path(), DbOptions::default()) {
            Ok(db) => {
                // Whatever opened must re-verify after the repair.
                prop_assert!(verify(scratch.path()).is_ok());
                prop_assert!(db.instance().relation("E").len() >= INSERTS);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Arbitrary bytes in place of the snapshot never panic the opener.
    #[test]
    fn arbitrary_snapshot_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let scratch = ScratchDir::new("storage_prop_snap");
        build_store(scratch.path());
        std::fs::write(scratch.file(SNAPSHOT_FILE), &bytes).unwrap();
        match Db::open(scratch.path(), DbOptions::default()) {
            Ok(_) => {}
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// A single byte flipped anywhere in a valid store never panics: open
    /// either refuses with a structured error or recovers a state that
    /// re-verifies.
    #[test]
    fn any_single_byte_flip_never_panics(
        in_wal in any::<bool>(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let scratch = ScratchDir::new("storage_prop_flip");
        build_store(scratch.path());
        let path = scratch.file(if in_wal { WAL_FILE } else { SNAPSHOT_FILE });
        let mut bytes = std::fs::read(&path).unwrap();
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        match Db::open(scratch.path(), DbOptions::default()) {
            Ok(_) => prop_assert!(verify(scratch.path()).is_ok()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
