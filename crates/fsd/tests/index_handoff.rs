//! The engine's name index after a boot. A boot that rebuilds the VAM
//! walks the whole name table; `FsdEngine::start` takes its index from
//! that walk instead of walking again. Whichever way the index is
//! obtained — the boot's listing (crash boots, serial or parallel
//! rebuild, replica scrubs) or a walk of its own (a clean boot with a
//! saved VAM, or a volume changed since boot) — it must equal the bare
//! volume's `FsBackend::list("")`, and crash → first op must pay for
//! one walk only.

use cedar_disk::{CpuModel, SimDisk};
use cedar_fsd::{EngineConfig, FsdConfig, FsdEngine, FsdVolume, RecoveryReport, RecoveryRung};
use cedar_vol::fs::{FileInfo, FileSystem, FsBackend};

fn config(workers: usize, cpu: CpuModel) -> FsdConfig {
    FsdConfig {
        nt_pages: 48,
        log_sectors: 256,
        cpu,
        scavenge_workers: workers,
        ..FsdConfig::default()
    }
}

fn name(i: usize) -> String {
    format!("dir/f{i:02}")
}

/// 45 names with two versions each, then version 2 of name 0 and both
/// versions of name 1 deleted: 87 entries. A 4-worker rebuild cuts them
/// into shards of 22, and the first cut falls between the two versions
/// of name 12, so the boot listing must collapse versions across a
/// shard boundary. Every version has its own length, so a listing that
/// kept the wrong version shows in `bytes`.
fn populated(workers: usize) -> FsdVolume {
    let mut v = FsdVolume::format(SimDisk::tiny(), config(workers, CpuModel::FREE)).unwrap();
    for version in 1..=2 {
        for i in 0..45 {
            v.create(&name(i), &vec![b'x'; i + 10 * version]).unwrap();
        }
    }
    v.delete(&name(0), Some(2)).unwrap();
    v.delete(&name(1), Some(1)).unwrap();
    v.delete(&name(1), Some(2)).unwrap();
    v.force().unwrap();
    v
}

fn crash(v: FsdVolume) -> SimDisk {
    let mut disk = v.into_disk();
    disk.crash_now();
    disk.reboot();
    disk
}

/// Starts an engine on `vol`, takes its listing, and hands the volume
/// back alongside it.
fn engine_listing(vol: FsdVolume) -> (Vec<FileInfo>, FsdVolume) {
    let engine = FsdEngine::start(vol, EngineConfig::default()).unwrap();
    let listing = engine.list("").unwrap();
    (listing, engine.shutdown().unwrap())
}

/// The engine's index equals the bare volume's listing of the same
/// volume, and it is the expected population.
fn assert_handoff(vol: FsdVolume) {
    let (seen, mut vol) = engine_listing(vol);
    let want = FsBackend::list(&mut vol, "").unwrap();
    assert_eq!(seen, want);
    assert_eq!(want.len(), 44);
    assert_eq!((want[0].name.as_str(), want[0].version), ("dir/f00", 1));
    assert_eq!((want[0].bytes, want[1].bytes), (10, 22));
    vol.verify().unwrap();
}

fn crash_boot(workers: usize) -> (FsdVolume, RecoveryReport) {
    FsdVolume::boot(crash(populated(workers)), config(workers, CpuModel::FREE)).unwrap()
}

#[test]
fn crash_boot_serial_rebuild_hands_over_the_listing() {
    let (vol, report) = crash_boot(1);
    assert!(report.vam_reconstructed);
    assert_eq!(report.files_scanned, 87);
    assert_handoff(vol);
}

#[test]
fn crash_boot_parallel_rebuild_hands_over_the_listing() {
    let (vol, report) = crash_boot(4);
    assert!(report.vam_reconstructed);
    assert_handoff(vol);
}

#[test]
fn boot_listing_collapses_versions_across_shards() {
    // The engine's index is a map and would hide a name listed twice;
    // check the volume's hand-off itself.
    for workers in [1, 4] {
        let (mut vol, _) = crash_boot(workers);
        let got = vol.take_newest_listing().unwrap();
        assert_eq!(
            got,
            FsBackend::list(&mut vol, "").unwrap(),
            "{workers} workers"
        );
    }
}

#[test]
fn clean_boot_with_saved_vam_walks_for_itself() {
    let mut v = populated(1);
    v.shutdown().unwrap();
    let (vol, report) = FsdVolume::boot(v.into_disk(), config(1, CpuModel::FREE)).unwrap();
    assert!(!report.vam_reconstructed);
    assert_handoff(vol);
}

#[test]
fn replica_scrub_boot_hands_over_the_listing() {
    let v = populated(1);
    let layout = *v.layout();
    let mut disk = crash(v);
    // Copy A of the log meta page is damaged: redo reads copy B and
    // scrubs A, then the VAM rebuild runs as after any crash.
    disk.damage_sector(layout.log_start);
    let (vol, report) = FsdVolume::boot(disk, config(1, CpuModel::FREE)).unwrap();
    assert!(report.vam_reconstructed);
    assert_eq!(report.rung, RecoveryRung::ReplicaScrub);
    assert_handoff(vol);
}

#[test]
fn changes_after_boot_invalidate_the_boot_listing() {
    // A create and a delete through the bare volume after the boot, each
    // on its own: either one alone must make the engine walk afresh.
    let changes: [fn(&mut FsdVolume); 2] = [
        |v| {
            v.create("dir/new", b"made after boot").unwrap();
        },
        |v| v.delete(&name(2), None).unwrap(),
    ];
    for change in changes {
        let (mut vol, report) = crash_boot(1);
        assert!(report.vam_reconstructed);
        change(&mut vol);
        let (seen, mut vol) = engine_listing(vol);
        let want = FsBackend::list(&mut vol, "").unwrap();
        assert_eq!(seen, want);
        let changed = want.len() != 44 || want.iter().any(|i| i.name == name(2) && i.version == 1);
        assert!(changed, "the change is visible in the listing");
    }
}

#[test]
fn crash_to_first_op_walks_the_name_table_once() {
    const FILES: usize = 300;
    let cfg = config(1, CpuModel::DORADO);
    let mut v = FsdVolume::format(SimDisk::tiny(), cfg).unwrap();
    for i in 0..FILES {
        v.create(&format!("g{i:03}"), b"payload").unwrap();
    }
    v.force().unwrap();
    let disk = crash(v);
    let clock = disk.clock();
    let t0 = clock.now();
    let (vol, report) = FsdVolume::boot(disk, cfg).unwrap();
    assert!(report.vam_reconstructed);
    let engine = FsdEngine::start(vol, EngineConfig::default()).unwrap();
    assert_eq!(engine.read("g000").unwrap(), b"payload");
    let spent = clock.now() - t0;
    // A second walk would decode every entry again: FILES × entry_us on
    // top of the boot. What the boot report leaves out (the root page
    // read, the first read itself) is far less than that.
    let bound = report.total_us() + FILES as u64 * CpuModel::DORADO.entry_us;
    assert!(
        spent < bound,
        "crash → first op took {spent} µs, bound {bound} µs (boot {} µs)",
        report.total_us()
    );
    engine.shutdown().unwrap();
}
