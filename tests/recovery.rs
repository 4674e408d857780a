//! Crash-recovery equivalence: a run that crashes mid-ingest and recovers
//! from its write-ahead log + checkpoints must produce outputs, flush,
//! health and situation picture **bit-identical** to an uninterrupted run
//! over the same input — across seeds, crash points and injected disk
//! faults. Damaged logs surface as typed errors, never panics.

use datacron::cep::{Dfa, Pattern, PatternMarkovChain, Wayeb};
use datacron::core::realtime::symbols;
use datacron::core::{DatacronConfig, DatacronSystem, DurabilityConfig, SystemState};
use datacron::durability::{decode_from_slice, DurabilityError, FsyncPolicy, RecoveryManager};
use datacron::geo::{BoundingBox, EntityId, GeoPoint, Polygon, PositionReport, Timestamp};
use datacron::stream::faults::{inject_disk_fault, ChaosSource, DiskFault, FaultPlan};
use datacron::store::StoreConfig;
use std::fs;
use std::path::{Path, PathBuf};

/// Entity whose attached stage panics on every record (supervision +
/// quarantine state must survive recovery).
const POISON: u64 = 4;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("datacron-recovery-it-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn extent() -> BoundingBox {
    BoundingBox::new(0.0, 38.0, 6.0, 42.0)
}

fn config() -> DatacronConfig {
    DatacronConfig::maritime(extent())
}

type Regions = Vec<(u64, Polygon)>;
type Ports = Vec<(u64, GeoPoint)>;

fn context() -> (Regions, Ports) {
    let regions = vec![
        (7u64, Polygon::rect(BoundingBox::new(0.2, 38.9, 0.6, 39.4))),
        (9u64, Polygon::rect(BoundingBox::new(1.0, 39.1, 1.6, 39.8))),
    ];
    let ports = vec![(3u64, GeoPoint::new(0.2, 39.0)), (5u64, GeoPoint::new(1.4, 39.5))];
    (regions, ports)
}

/// The exact attachments the crashed system had; recovery must run the
/// same setup before applying state.
fn setup(system: &mut DatacronSystem) {
    let pattern = Pattern::north_to_south_reversal(symbols::NORTH, symbols::EAST, symbols::SOUTH);
    let dfa = Dfa::compile(&pattern, symbols::ALPHABET);
    let pmc = PatternMarkovChain::new(dfa, 0, vec![0.25; symbols::ALPHABET]);
    system.realtime.attach_cep(Wayeb::new(pmc, 0.5, 60), symbols::heading_symbolizer);
    system.realtime.attach_entity_stage(|r| {
        if r.entity.id == POISON {
            panic!("injected poison");
        }
    });
}

fn build_system() -> DatacronSystem {
    let (regions, ports) = context();
    let mut system = DatacronSystem::new(config(), regions, ports, StoreConfig::default());
    setup(&mut system);
    system
}

/// A fleet that turns every 12 reports, so synopses emit heading changes,
/// the CEP symbolizer fires, and tracks cross the monitored regions.
fn fleet(entities: u64, reports_each: i64) -> Vec<PositionReport> {
    let headings = [90.0, 0.0, 270.0, 180.0, 90.0];
    let mut all = Vec::new();
    for e in 0..entities {
        let mut p = GeoPoint::new(0.2 + 0.3 * e as f64, 39.0 + 0.2 * e as f64);
        for i in 0..reports_each {
            let heading = headings[((i / 12) as usize + e as usize) % headings.len()];
            all.push(PositionReport {
                speed_mps: 8.0,
                heading_deg: heading,
                ..PositionReport::basic(EntityId::vessel(e), Timestamp::from_secs(i * 10), p)
            });
            p = p.destination(heading, 80.0);
        }
    }
    all.sort_by_key(|r| (r.ts, r.entity));
    all
}

/// Seeded chaos over the fleet (drops, duplicates, reordering, corruption),
/// materialised so both runs see the identical stream. Corrupted records
/// exercise the dead-letter topic, whose state must also survive recovery.
fn faulted_input(seed: u64) -> Vec<PositionReport> {
    ChaosSource::new(fleet(6, 100).into_iter(), FaultPlan::chaos(seed)).collect()
}

fn durability_config(dir: &Path, checkpoint_interval: u64) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Always,
        segment_max_bytes: 4096,
        checkpoint_interval,
        retained_checkpoints: 2,
    }
}

/// Ingests records, returning each record's full output as its Debug
/// rendering (the repo's bit-for-bit equivalence idiom).
fn run_records(system: &mut DatacronSystem, records: &[PositionReport]) -> Vec<String> {
    records.iter().map(|r| format!("{:?}", system.ingest(*r))).collect()
}

/// End-of-run observables: flush, health, situation picture.
fn finishing(mut system: DatacronSystem) -> (String, String, String) {
    let flush = format!("{:?}", system.realtime.flush());
    let health = format!("{:?}", system.health());
    let situation = format!("{:?}", system.situation(3, 30.0));
    (flush, health, situation)
}

/// Uninterrupted durable run over `input`; returns (outputs, flush,
/// health, situation).
fn uninterrupted(input: &[PositionReport], interval: u64) -> (Vec<String>, String, String, String) {
    let dir = temp_dir("uninterrupted");
    let mut system = build_system();
    system.enable_durability(durability_config(&dir, interval)).unwrap();
    let outputs = run_records(&mut system, input);
    assert_eq!(system.wal_errors(), 0);
    let (flush, health, situation) = finishing(system);
    let _ = fs::remove_dir_all(&dir);
    (outputs, flush, health, situation)
}

#[test]
fn recovered_run_is_bit_identical_across_seeds_and_crash_points() {
    for seed in [1u64, 7, 42] {
        let input = faulted_input(seed);
        let n = input.len();
        let (out_a, flush_a, health_a, situation_a) = uninterrupted(&input, 150);
        for crash_at in [n / 3, 2 * n / 3] {
            let dir = temp_dir(&format!("crash-{seed}-{crash_at}"));
            let mut system = build_system();
            system.enable_durability(durability_config(&dir, 150)).unwrap();
            let mut out_b = run_records(&mut system, &input[..crash_at]);
            // Crash: the process dies mid-stream — no flush, no shutdown.
            drop(system);

            let (regions, ports) = context();
            let (mut recovered, report) = DatacronSystem::recover_with_setup(
                config(),
                regions,
                ports,
                StoreConfig::default(),
                durability_config(&dir, 150),
                setup,
            )
            .unwrap();
            assert_eq!(
                report.recovered_through, crash_at as u64,
                "seed {seed}: everything written before the crash recovers"
            );
            assert_eq!(report.truncated_tail_bytes, 0, "clean crash leaves no torn tail");
            assert_eq!(
                report.checkpoint_seq.map(|s| s as usize),
                Some(150 * (crash_at / 150)).filter(|&s| s > 0),
                "seed {seed}: recovery starts from the newest interval checkpoint"
            );
            assert_eq!(
                report.replayed,
                crash_at - report.checkpoint_seq.unwrap_or(0) as usize,
                "seed {seed}: the WAL suffix past the checkpoint is replayed"
            );

            out_b.extend(run_records(&mut recovered, &input[crash_at..]));
            let (flush_b, health_b, situation_b) = finishing(recovered);

            assert_eq!(out_b.len(), out_a.len());
            for (i, (b, a)) in out_b.iter().zip(&out_a).enumerate() {
                assert_eq!(b, a, "seed {seed}, crash at {crash_at}: output {i} diverged");
            }
            assert_eq!(flush_b, flush_a, "seed {seed}, crash at {crash_at}: flush diverged");
            assert_eq!(health_b, health_a, "seed {seed}, crash at {crash_at}: health diverged");
            assert_eq!(
                situation_b, situation_a,
                "seed {seed}, crash at {crash_at}: situation diverged"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// The batch layer's store survives a crash. Topics keep only what a live
/// consumer has not read, so the checkpoint carries the batch layer's
/// synced input instead of the topics' history, and recovery rebuilds the
/// store from it before re-subscribing to the restored topics.
#[test]
fn recovery_keeps_the_batch_store() {
    const SYNC_EVERY: usize = 500;
    const CRASH_AT: usize = 1_500;
    let input: Vec<PositionReport> =
        ChaosSource::new(fleet(12, 200).into_iter(), FaultPlan::chaos(3)).collect();
    assert!(input.len() > CRASH_AT + SYNC_EVERY, "the run continues past the crash");
    // Ingests `records` (positions `first..` of the input), syncing the
    // batch layer after every SYNC_EVERY-th record.
    let drive = |system: &mut DatacronSystem, records: &[PositionReport], first: usize| {
        for (i, r) in records.iter().enumerate() {
            system.ingest(*r);
            if (first + i + 1).is_multiple_of(SYNC_EVERY) {
                system.sync_batch();
            }
        }
    };

    let ref_dir = temp_dir("batch-uncrashed");
    let mut reference = build_system();
    reference.enable_durability(durability_config(&ref_dir, 500)).unwrap();
    drive(&mut reference, &input, 0);
    reference.realtime.flush();
    reference.sync_batch();

    let dir = temp_dir("batch-crash");
    let mut system = build_system();
    system.enable_durability(durability_config(&dir, 500)).unwrap();
    drive(&mut system, &input[..CRASH_AT], 0);
    assert!(system.batch.node_count() > 0, "the batch layer synced before the crash");
    drop(system);

    // The newest checkpoint holds no topic history nobody reads.
    let outcome = RecoveryManager::recover(&dir, 2).unwrap();
    let (seq, payload) = outcome.checkpoint.expect("a checkpoint was taken");
    assert_eq!(seq, CRASH_AT as u64);
    let state: SystemState = decode_from_slice(&payload).unwrap();
    assert!(state.layer.triples.retained.is_empty());
    assert!(state.layer.area_events.retained.is_empty());
    assert!(state.layer.dead_letters.retained.is_empty());
    assert!(!state.batch.critical.is_empty(), "the synced input is durable");

    let (regions, ports) = context();
    let (mut recovered, _) = DatacronSystem::recover_with_setup(
        config(),
        regions,
        ports,
        StoreConfig::default(),
        durability_config(&dir, 500),
        setup,
    )
    .unwrap();
    drive(&mut recovered, &input[CRASH_AT..], CRASH_AT);
    recovered.realtime.flush();
    recovered.sync_batch();

    assert_eq!(recovered.batch.triple_count(), reference.batch.triple_count());
    assert_eq!(recovered.batch.node_count(), reference.batch.node_count());
    assert_eq!(reference.batch.lagged_lost(), 0);
    assert_eq!(recovered.batch.lagged_lost(), 0);
    assert_eq!(format!("{:?}", recovered.health()), format!("{:?}", reference.health()));
    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}

/// A slower reader that does not survive the crash keeps critical points
/// the batch layer had already synced in the checkpoint; the recovered
/// batch layer must skip them, not store them twice.
#[test]
fn recovered_batch_layer_skips_what_a_slower_reader_kept() {
    let input = fleet(6, 100);
    let dir = temp_dir("laggard");
    let mut system = build_system();
    system.enable_durability(durability_config(&dir, 300)).unwrap();
    let _laggard = system.realtime.critical.consumer();
    run_records(&mut system, &input[..299]);
    system.sync_batch();
    assert!(system.batch.node_count() > 0, "the batch layer synced before the checkpoint");
    run_records(&mut system, &input[299..300]); // checkpoint at 300
    drop(system);

    let (regions, ports) = context();
    let (mut recovered, report) = DatacronSystem::recover_with_setup(
        config(),
        regions,
        ports,
        StoreConfig::default(),
        durability_config(&dir, 300),
        setup,
    )
    .unwrap();
    assert_eq!(report.checkpoint_seq, Some(300));
    recovered.sync_batch();
    assert_eq!(
        recovered.batch.node_count(),
        recovered.realtime.critical.len(),
        "every critical point stored exactly once"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A short write tears the WAL tail. Recovery truncates the torn frames,
/// reports how far the durable prefix reaches, and re-feeding the lost
/// suffix restores bit-identical state.
#[test]
fn torn_wal_tail_truncates_and_refeed_restores_equivalence() {
    let input = faulted_input(7);
    let n = input.len();
    let crash_at = n / 2;
    // WAL-only (no checkpoints), so the torn tail cannot fall behind a
    // checkpoint's claimed coverage.
    let (out_a, flush_a, health_a, situation_a) = uninterrupted(&input, 0);

    let dir = temp_dir("torn");
    let mut system = build_system();
    system.enable_durability(durability_config(&dir, 0)).unwrap();
    let out_prefix = run_records(&mut system, &input[..crash_at]);
    drop(system);
    // The crash tears the last segment mid-frame.
    let hit = inject_disk_fault(&dir, ".seg", DiskFault::ShortWrite { bytes: 100 }, 1).unwrap();
    assert!(hit.is_some(), "a segment was shortened");

    let (regions, ports) = context();
    let (mut recovered, report) = DatacronSystem::recover_with_setup(
        config(),
        regions,
        ports,
        StoreConfig::default(),
        durability_config(&dir, 0),
        setup,
    )
    .unwrap();
    let durable = report.recovered_through as usize;
    assert!(durable < crash_at, "the torn tail lost at least one record");
    assert_eq!(report.checkpoint_seq, None);
    assert_eq!(report.replayed, durable);

    // The source re-feeds everything past the durable prefix (at-least-once
    // delivery upstream of the log), and the runs reconverge exactly.
    let out_refed = run_records(&mut recovered, &input[durable..]);
    let (flush_b, health_b, situation_b) = finishing(recovered);

    assert_eq!(&out_prefix[..durable], &out_a[..durable]);
    assert_eq!(out_refed.len(), n - durable);
    for (i, (b, a)) in out_refed.iter().zip(&out_a[durable..]).enumerate() {
        assert_eq!(b, a, "re-fed output {i} diverged");
    }
    assert_eq!(flush_b, flush_a);
    assert_eq!(health_b, health_a);
    assert_eq!(situation_b, situation_a);
    let _ = fs::remove_dir_all(&dir);
}

/// A bit flip inside a sealed segment is detected by the CRC and surfaces
/// as a typed `CorruptRecord` — never a panic, never silent acceptance.
#[test]
fn bit_flip_in_sealed_segment_is_a_typed_error() {
    let input = fleet(4, 60);
    let dir = temp_dir("bitflip");
    let mut system = build_system();
    system.enable_durability(durability_config(&dir, 0)).unwrap();
    run_records(&mut system, &input);
    drop(system);
    let segments = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".seg"))
        .count();
    assert!(segments >= 2, "rotation produced sealed segments ({segments})");
    let hit = inject_disk_fault(&dir, ".seg", DiskFault::BitFlip, 99).unwrap();
    assert!(hit.is_some(), "a sealed segment was corrupted");

    let (regions, ports) = context();
    let err = match DatacronSystem::recover_with_setup(
        config(),
        regions,
        ports,
        StoreConfig::default(),
        durability_config(&dir, 0),
        setup,
    ) {
        Err(err) => err,
        Ok(_) => panic!("recovery accepted a corrupt segment"),
    };
    assert!(
        matches!(err, DurabilityError::CorruptRecord { .. }),
        "expected CorruptRecord, got {err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A deleted middle segment breaks sequence continuity and surfaces as a
/// typed `SequenceGap`.
#[test]
fn missing_middle_segment_is_a_sequence_gap() {
    let input = fleet(4, 60);
    let dir = temp_dir("missing");
    let mut system = build_system();
    system.enable_durability(durability_config(&dir, 0)).unwrap();
    run_records(&mut system, &input);
    drop(system);
    let hit = inject_disk_fault(&dir, ".seg", DiskFault::MissingSegment, 5).unwrap();
    assert!(hit.is_some(), "a middle segment was removed");

    let (regions, ports) = context();
    let err = match DatacronSystem::recover_with_setup(
        config(),
        regions,
        ports,
        StoreConfig::default(),
        durability_config(&dir, 0),
        setup,
    ) {
        Err(err) => err,
        Ok(_) => panic!("recovery accepted a log with a missing segment"),
    };
    assert!(
        matches!(err, DurabilityError::SequenceGap { .. }),
        "expected SequenceGap, got {err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Attaching an existing non-empty log to a fresh system is refused: that
/// history belongs to a crashed run and must go through recovery.
#[test]
fn enabling_durability_on_a_mismatched_log_is_rejected() {
    let input = fleet(2, 30);
    let dir = temp_dir("mismatch");
    let mut system = build_system();
    system.enable_durability(durability_config(&dir, 0)).unwrap();
    run_records(&mut system, &input);
    drop(system);

    let mut fresh = build_system();
    let err = fresh.enable_durability(durability_config(&dir, 0)).unwrap_err();
    assert!(
        matches!(err, DurabilityError::SequenceMismatch { .. }),
        "expected SequenceMismatch, got {err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}
