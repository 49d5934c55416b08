//! Building volumes, driving closed-loop clients through the production
//! `FileSystem` path, checking every answer, and the crash → first-op
//! probe.

use crate::gen::{self, OpStream, Oracle, Workload, CLIENTS};
use crate::stats::Window;
use cedar_disk::{DiskStats, SimClock, SimDisk};
use cedar_fsd::volume::CommitStats;
use cedar_fsd::{
    EngineConfig, EngineStats, FsdConfig, FsdEngine, FsdVolume, RecoveryReport, ReplMode, Replica,
    ShipperConfig, ShipperStats,
};
use cedar_vol::fs::{CedarFsError, FileSystem, FsBackend, Session};
use cedar_workload::steps::content_for;
use cedar_workload::{MemFs, Step};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Each trial sets up once for its measured phase, then again, after
/// it, until its set-ups have taken this much host time in all.
pub const SETUP_BUDGET: Duration = Duration::from_millis(600);
/// How long the clients may take to park between ops.
const PARK_LIMIT: Duration = Duration::from_secs(30);
/// Host time of crash → first-op boots made after each window of a
/// steady phase (at least one boot), while its clients are paused.
pub const PROBE_SLICE: Duration = Duration::from_millis(100);
/// Samples a latency class needs for its p99 (see `stats::percentile`).
pub const MIN_CLASS_SAMPLES: usize = 1_000;
/// The measured phase ends once `--seconds` have passed and it holds
/// [`MIN_CLASS_SAMPLES`] of both classes, but never later than this many
/// times `--seconds`.
pub const MAX_STRETCH: f64 = 3.0;
/// Length of the windows a steady phase is cut into.
pub const WINDOW: Duration = Duration::from_secs(1);
/// Attempts after the first for a retryable error.
pub const MAX_RETRIES: u32 = 3;
/// Writes after each recovery in `crash_recover_20k` (one client: the
/// write class then measures one epoch per write, as the burst did).
pub const POST_RECOVERY_WRITES: usize = 64;

/// Name-table pages for a population: ≈11 entries per 1 KB page plus
/// internal nodes and insert slack, as the scavenge-scale bench sizes
/// its volumes. The default format's NT (`total_sectors / 256` pages)
/// returns `NoSpace` at ≈16–18k small files.
pub fn nt_pages_for(files: usize) -> u32 {
    u32::try_from(files / 6 + 64).expect("population fits u32")
}

/// Volume configuration: the paper's defaults (Dorado CPU costs,
/// Trident-class disk) with the name table sized explicitly for 20k.
pub fn fsd_config(w: Workload) -> FsdConfig {
    if w.is_makedo() {
        FsdConfig::default()
    } else {
        FsdConfig {
            nt_pages: nt_pages_for(gen::BULK_FILES),
            ..FsdConfig::default()
        }
    }
}

pub fn ship_config() -> ShipperConfig {
    ShipperConfig {
        link: cedar_disk::LinkPlan::with_latency(500),
        ..ShipperConfig::for_mode(ReplMode::Sync)
    }
}

/// Formats a Trident-class disk and populates it through the bare
/// volume (`FsBackend`), then forces.
pub fn build_volume(w: Workload, pop: &gen::Population) -> Result<FsdVolume, String> {
    let disk = SimDisk::trident_t300(SimClock::new());
    let mut vol = FsdVolume::format(disk, fsd_config(w)).map_err(|e| format!("format: {e}"))?;
    for (name, bytes) in &pop.files {
        FsBackend::create(&mut vol, name, &content_for(name, *bytes))
            .map_err(|e| format!("populate {name}: {e}"))?;
    }
    vol.force().map_err(|e| format!("populate force: {e}"))?;
    Ok(vol)
}

/// Starts an engine on a workload's volume: unpaced, commit-on-return,
/// optionally replicated in sync mode.
pub fn start_engine(
    vol: FsdVolume,
    w: Workload,
    replicated: bool,
) -> Result<Arc<FsdEngine>, String> {
    let engine = if replicated {
        FsdEngine::start_replicated(vol, EngineConfig::default(), fsd_config(w), ship_config())
    } else {
        FsdEngine::start(vol, EngineConfig::default())
    };
    engine
        .map(Arc::new)
        .map_err(|e| format!("engine start: {e}"))
}

/// Stops an engine and takes back its volume (and replica).
pub fn stop_engine(engine: Arc<FsdEngine>) -> Result<(FsdVolume, Option<Replica>), String> {
    let engine = Arc::try_unwrap(engine).map_err(|_| "engine still shared".to_string())?;
    if engine.repl_handle().is_some() {
        let (vol, replica) = engine
            .shutdown_replicated()
            .map_err(|e| format!("shutdown: {e}"))?;
        Ok((vol, Some(replica)))
    } else {
        let vol = engine.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        Ok((vol, None))
    }
}

/// Which latency class an op belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// create / write / delete / sync: waits for the epoch's force.
    Write,
    /// read / open / list.
    Read,
}

pub fn class_of(step: &Step) -> Class {
    match step {
        Step::Create { .. } | Step::Delete { .. } => Class::Write,
        Step::Read { .. } | Step::Touch { .. } | Step::List { .. } => Class::Read,
    }
}

fn with_retry<T>(mut f: impl FnMut() -> Result<T, CedarFsError>) -> Result<T, CedarFsError> {
    let mut attempt = 0;
    loop {
        match f() {
            Err(e) if e.is_retryable() && attempt < MAX_RETRIES => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            r => return r,
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (Instant, u64, T) {
    let t = Instant::now();
    let out = f();
    (t, elapsed_ns(t), out)
}

pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn expect_size(oracle: &Oracle, name: &str) -> Result<u64, String> {
    oracle
        .get(name)
        .copied()
        .ok_or_else(|| format!("generator asked for {name}, which the client does not own"))
}

/// One executed op: when the call started, its host latency, and
/// whether the answer was right.
pub struct Call {
    pub start: Instant,
    pub ns: u64,
    pub verdict: Result<(), String>,
}

/// Executes one step (with bounded retry), timing only the call, then
/// checks the answer against the client's oracle and updates it.
pub fn exec(fs: &dyn FileSystem, step: &Step, oracle: &mut Oracle) -> Call {
    match step {
        Step::Create { name, bytes } => {
            let data = content_for(name, *bytes);
            let (start, ns, r) = timed(|| with_retry(|| fs.create(name, &data)));
            let verdict = match r {
                Ok(info) if info.name == *name && info.bytes == *bytes => {
                    oracle.insert(name.clone(), *bytes);
                    Ok(())
                }
                Ok(info) => Err(format!("create {name}: got {info:?}")),
                Err(e) => Err(format!("create {name}: {e}")),
            };
            Call { start, ns, verdict }
        }
        Step::Delete { name } => {
            let (start, ns, r) = timed(|| with_retry(|| fs.delete(name)));
            let verdict = r
                .map(|()| {
                    oracle.remove(name);
                })
                .map_err(|e| format!("delete {name}: {e}"));
            Call { start, ns, verdict }
        }
        Step::Read { name } => {
            let (start, ns, r) = timed(|| with_retry(|| fs.read(name)));
            let verdict = match (r, expect_size(oracle, name)) {
                (Ok(data), Ok(bytes)) if data == content_for(name, bytes) => Ok(()),
                (Ok(data), Ok(bytes)) => Err(format!(
                    "read {name}: {} bytes differ from the generator's {bytes}",
                    data.len()
                )),
                (Err(e), _) => Err(format!("read {name}: {e}")),
                (_, Err(e)) => Err(e),
            };
            Call { start, ns, verdict }
        }
        Step::Touch { name } => {
            let (start, ns, r) = timed(|| with_retry(|| fs.open(name)));
            let verdict = match (r, expect_size(oracle, name)) {
                (Ok(info), Ok(bytes)) if info.bytes == bytes => Ok(()),
                (Ok(info), Ok(bytes)) => Err(format!("open {name}: {info:?}, want {bytes} B")),
                (Err(e), _) => Err(format!("open {name}: {e}")),
                (_, Err(e)) => Err(e),
            };
            Call { start, ns, verdict }
        }
        Step::List { prefix } => {
            let (start, ns, r) = timed(|| with_retry(|| fs.list(prefix)));
            let verdict = match r {
                Ok(infos) => {
                    let got: Vec<(String, u64)> =
                        infos.into_iter().map(|i| (i.name, i.bytes)).collect();
                    let want = oracle_listing(oracle, prefix);
                    if got == want {
                        Ok(())
                    } else {
                        Err(format!(
                            "list {prefix}: {} entries, want {}",
                            got.len(),
                            want.len()
                        ))
                    }
                }
                Err(e) => Err(format!("list {prefix}: {e}")),
            };
            Call { start, ns, verdict }
        }
    }
}

/// The oracle's sorted `(name, size)` listing under `prefix`.
pub fn oracle_listing(oracle: &Oracle, prefix: &str) -> Vec<(String, u64)> {
    let mut want: Vec<(String, u64)> = oracle
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .map(|(n, b)| (n.clone(), *b))
        .collect();
    want.sort();
    want
}

/// What a set of clients did.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Host latency of each write-class call, ns.
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages (all failures are counted).
    pub errors: Vec<String>,
    /// Bytes handed to creates.
    pub user_bytes: u64,
    /// The measured phase cut into windows; every recorded op ran in
    /// one of them.
    pub windows: Vec<Window>,
}

impl Tally {
    pub fn record(&mut self, step: &Step, call: Call) {
        self.attempted += 1;
        match class_of(step) {
            Class::Write => self.write_ns.push(call.ns),
            Class::Read => self.read_ns.push(call.ns),
        }
        if let Step::Create { bytes, .. } = step {
            self.user_bytes += bytes;
        }
        if let Err(e) = call.verdict {
            self.fail(e);
        }
    }

    /// Counts a failed op or a failed output check.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// Merges another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.write_ns.extend(other.write_ns);
        self.read_ns.extend(other.read_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.user_bytes += other.user_bytes;
        self.windows.extend(other.windows);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed.min(self.attempted)
    }
}

/// Runs a fixed list of steps from the calling thread.
pub fn run_steps(fs: &dyn FileSystem, steps: &[Step], oracle: &mut Oracle) -> Tally {
    let mut tally = Tally::default();
    for step in steps {
        let call = exec(fs, step, oracle);
        tally.record(step, call);
    }
    tally
}

/// Whether a phase cut into `windows` has measured enough: its windows
/// span `seconds` and hold a p99's worth of each class — or they span
/// [`MAX_STRETCH`] times as long.
pub fn phase_done(windows: &[Window], seconds: f64) -> bool {
    let t = windows
        .iter()
        .map(|w| w.end_ns.saturating_sub(w.start_ns))
        .sum::<u64>() as f64
        / 1e9;
    let (writes, reads) = windows
        .iter()
        .fold((0, 0), |(w, r), k| (w + k.writes, r + k.reads));
    let enough = writes >= MIN_CLASS_SAMPLES as u64 && reads >= MIN_CLASS_SAMPLES as u64;
    (t >= seconds && enough) || t >= seconds * MAX_STRETCH
}

/// Crash → first-op boots of copies of a steady workload's populated
/// disk (a crash right after set-up's force: nothing pending, VAM not
/// saved), made between the windows of its measured phase so that they
/// sample the host over the whole run, as the closed loop does.
pub struct Probe {
    image: SimDisk,
    cfg: FsdConfig,
    first: (String, u64),
    pub recs: Vec<Recovery>,
    pub error: Option<String>,
}

impl Probe {
    /// Makes one warm-up boot: the first fork of a process pays the page
    /// faults of a disk-sized allocation that later ones reuse.
    pub fn new(image: SimDisk, cfg: FsdConfig, first: (String, u64)) -> Result<Probe, String> {
        recover(&image, cfg, &first)?;
        Ok(Probe {
            image,
            cfg,
            first,
            recs: Vec::new(),
            error: None,
        })
    }

    /// Boots for [`PROBE_SLICE`], at least once.
    fn slice(&mut self) {
        let t = Instant::now();
        while self.error.is_none() {
            match recover(&self.image, self.cfg, &self.first) {
                Ok((rec, _engine)) => self.recs.push(rec),
                Err(e) => self.error = Some(e),
            }
            if t.elapsed() >= PROBE_SLICE {
                break;
            }
        }
    }
}

/// When the closed loop pauses and stops.
struct Gate {
    stop: AtomicBool,
    pausing: AtomicBool,
    /// Whether the clients must stay parked, and how many are.
    parked: Mutex<(bool, usize)>,
    turn: Condvar,
    writes: AtomicUsize,
    reads: AtomicUsize,
}

impl Gate {
    /// Called by a client between ops: parks while a pause is held.
    fn park_if_paused(&self) {
        if !self.pausing.load(Ordering::Acquire) {
            return;
        }
        let mut g = self.parked.lock().expect("gate lock");
        g.1 += 1;
        self.turn.notify_all();
        while g.0 {
            g = self.turn.wait(g).expect("gate lock");
        }
        g.1 -= 1;
    }

    /// Returns once all `clients` are parked between ops, or false if
    /// they have not parked within [`PARK_LIMIT`] (one has died).
    fn hold(&self, clients: usize) -> bool {
        let t = Instant::now();
        let mut g = self.parked.lock().expect("gate lock");
        g.0 = true;
        self.pausing.store(true, Ordering::Release);
        while g.1 < clients {
            let Some(left) = PARK_LIMIT.checked_sub(t.elapsed()) else {
                return false;
            };
            g = self.turn.wait_timeout(g, left).expect("gate lock").0;
        }
        true
    }

    fn release(&self) {
        self.pausing.store(false, Ordering::Release);
        self.parked.lock().expect("gate lock").0 = false;
        self.turn.notify_all();
    }
}

/// Drives one closed-loop client thread per stream, zero think time,
/// each on its own `Session`, for `seconds` of windows (stretched until
/// each latency class has [`MIN_CLASS_SAMPLES`]). The calling thread
/// only wakes once per [`WINDOW`]: it parks the clients between ops,
/// closes the window and runs a probe slice before the next one opens.
pub fn run_clients(
    engine: &Arc<FsdEngine>,
    streams: Vec<Box<dyn OpStream>>,
    oracles: Vec<Oracle>,
    seconds: f64,
    probe: &mut Probe,
) -> (Tally, Vec<Oracle>, Duration) {
    let clients = streams.len();
    let gate = Gate {
        stop: AtomicBool::new(false),
        pausing: AtomicBool::new(false),
        parked: Mutex::new((false, 0)),
        turn: Condvar::new(),
        writes: AtomicUsize::new(0),
        reads: AtomicUsize::new(0),
    };
    let fs: Arc<dyn FileSystem> = engine.clone();
    let mut windows = Vec::new();
    let t0 = Instant::now();
    let (tallies, oracles): (Vec<Tally>, Vec<Oracle>) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(oracles)
            .enumerate()
            .map(|(id, (mut ops, mut oracle))| {
                let session = Session::new(Arc::clone(&fs), id);
                let gate = &gate;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    loop {
                        gate.park_if_paused();
                        if gate.stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let step = ops.next_op();
                        let call = exec(&session, &step, &mut oracle);
                        let counter = match class_of(&step) {
                            Class::Write => &gate.writes,
                            Class::Read => &gate.reads,
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        tally.record(&step, call);
                    }
                    (tally, oracle)
                })
            })
            .collect();
        // This thread wakes once per window, never more often: a thread
        // polling every few ms competes with the clients and the
        // log-writer for the two CPUs and visibly inflates the tail.
        let mut last = (0, 0, 0);
        loop {
            std::thread::sleep(WINDOW);
            if !gate.hold(clients) {
                // Stop the live clients; the join below reports the dead one.
                gate.stop.store(true, Ordering::Relaxed);
                gate.release();
                break;
            }
            let now = (
                elapsed_ns(t0),
                gate.writes.load(Ordering::Relaxed),
                gate.reads.load(Ordering::Relaxed),
            );
            windows.push(Window {
                start_ns: last.0,
                end_ns: now.0,
                writes: (now.1 - last.1) as u64,
                reads: (now.2 - last.2) as u64,
            });
            probe.slice();
            if phase_done(&windows, seconds) {
                gate.stop.store(true, Ordering::Relaxed);
                gate.release();
                break;
            }
            last = (elapsed_ns(t0), now.1, now.2);
            gate.release();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    });
    let elapsed = t0.elapsed();
    let mut tally = Tally::default();
    for t in tallies {
        tally.absorb(t);
    }
    tally.windows = windows;
    (tally, oracles, elapsed)
}

/// Field-wise sums of the counter structs, for phases made of several
/// engine lifetimes.
pub fn add_disk(a: &DiskStats, b: &DiskStats) -> DiskStats {
    DiskStats {
        reads: a.reads + b.reads,
        writes: a.writes + b.writes,
        label_ops: a.label_ops + b.label_ops,
        sectors_read: a.sectors_read + b.sectors_read,
        sectors_written: a.sectors_written + b.sectors_written,
        seeks: a.seeks + b.seeks,
        short_seeks: a.short_seeks + b.short_seeks,
        seek_us: a.seek_us + b.seek_us,
        rotation_us: a.rotation_us + b.rotation_us,
        transfer_us: a.transfer_us + b.transfer_us,
        lost_revolutions: a.lost_revolutions + b.lost_revolutions,
        lost_rev_us: a.lost_rev_us + b.lost_rev_us,
        transient_retries: a.transient_retries + b.transient_retries,
        media_faults: a.media_faults + b.media_faults,
    }
}

pub fn commit_delta(after: &CommitStats, before: &CommitStats) -> CommitStats {
    CommitStats {
        forces: after.forces - before.forces,
        records: after.records - before.records,
        images_logged: after.images_logged - before.images_logged,
        log_sectors_written: after.log_sectors_written - before.log_sectors_written,
        third_flush_pages: after.third_flush_pages - before.third_flush_pages,
        max_record_sectors: after.max_record_sectors,
    }
}

pub fn add_commit(a: &CommitStats, b: &CommitStats) -> CommitStats {
    CommitStats {
        forces: a.forces + b.forces,
        records: a.records + b.records,
        images_logged: a.images_logged + b.images_logged,
        log_sectors_written: a.log_sectors_written + b.log_sectors_written,
        third_flush_pages: a.third_flush_pages + b.third_flush_pages,
        max_record_sectors: a.max_record_sectors.max(b.max_record_sectors),
    }
}

pub fn engine_delta(after: &EngineStats, before: &EngineStats) -> EngineStats {
    EngineStats {
        ops: after.ops - before.ops,
        write_ops: after.write_ops - before.write_ops,
        read_hits: after.read_hits - before.read_hits,
        read_misses: after.read_misses - before.read_misses,
        epochs: after.epochs - before.epochs,
        log_forces: after.log_forces - before.log_forces,
        batch_max: after.batch_max,
    }
}

pub fn add_engine(a: &EngineStats, b: &EngineStats) -> EngineStats {
    EngineStats {
        ops: a.ops + b.ops,
        write_ops: a.write_ops + b.write_ops,
        read_hits: a.read_hits + b.read_hits,
        read_misses: a.read_misses + b.read_misses,
        epochs: a.epochs + b.epochs,
        log_forces: a.log_forces + b.log_forces,
        batch_max: a.batch_max.max(b.batch_max),
    }
}

pub fn ship_delta(after: &ShipperStats, before: &ShipperStats) -> ShipperStats {
    ShipperStats {
        frames_enqueued: after.frames_enqueued - before.frames_enqueued,
        frames_shipped: after.frames_shipped - before.frames_shipped,
        frames_applied: after.frames_applied - before.frames_applied,
        bytes_shipped: after.bytes_shipped - before.bytes_shipped,
        retries: after.retries - before.retries,
        stalls: after.stalls - before.stalls,
    }
}

/// Counter deltas over a measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub disk: DiskStats,
    pub commit: CommitStats,
    pub engine: EngineStats,
    pub ship: ShipperStats,
}

impl Counters {
    /// Adds another engine lifetime's counters. Only the crash loop sums
    /// lifetimes, and its engines are unreplicated: `ship` stays zero.
    pub fn absorb(&mut self, o: &Counters) {
        self.disk = add_disk(&self.disk, &o.disk);
        self.commit = add_commit(&self.commit, &o.commit);
        self.engine = add_engine(&self.engine, &o.engine);
    }
}

/// Snapshot of an engine's counters, for deltas.
pub struct Mark {
    disk: DiskStats,
    commit: CommitStats,
    engine: EngineStats,
    ship: ShipperStats,
}

impl Mark {
    /// `commit` is the volume's commit stats just before the engine
    /// took it (the engine only exposes them again at shutdown).
    pub fn take(engine: &FsdEngine, commit: CommitStats) -> Mark {
        Mark {
            disk: engine.stats().disk,
            commit,
            engine: engine.engine_stats(),
            ship: engine.repl_handle().map(|h| h.stats()).unwrap_or_default(),
        }
    }

    /// Deltas from the mark to the stopped engine: `engine` and `ship`
    /// must be read just before shutdown, `vol` is the volume it
    /// returned.
    pub fn since(&self, engine: &EngineStats, ship: &ShipperStats, vol: &FsdVolume) -> Counters {
        Counters {
            disk: vol.disk_stats().since(&self.disk),
            commit: commit_delta(&vol.commit_stats(), &self.commit),
            engine: engine_delta(engine, &self.engine),
            ship: ship_delta(ship, &self.ship),
        }
    }
}

/// A prepared run: the engine serving the populated volume, with each
/// client's oracle and the set-up time.
pub struct Prepared {
    pub engine: Arc<FsdEngine>,
    pub oracles: Vec<Oracle>,
    pub mark: Mark,
    pub setup_s: f64,
    /// A copy of the populated disk, taken untimed before the engine
    /// started, when `keep_image` asked for one.
    pub image: Option<SimDisk>,
}

/// Format + populate + engine start, timed.
pub fn prepare(w: Workload, seed: u64, keep_image: bool) -> Result<Prepared, String> {
    let pop = gen::population(w, seed);
    let t = Instant::now();
    let mut vol = build_volume(w, &pop)?;
    let built = t.elapsed();
    let image = keep_image.then(|| vol.disk_mut().fork_with_clock(SimClock::new()));
    let commit = vol.commit_stats();
    let t = Instant::now();
    let engine = start_engine(vol, w, w.replicated())?;
    let setup_s = (built + t.elapsed()).as_secs_f64();
    let mark = Mark::take(&engine, commit);
    Ok(Prepared {
        engine,
        oracles: pop.oracles,
        mark,
        setup_s,
        image,
    })
}

/// The prefix each client's namespace lives under.
pub fn client_prefix(w: Workload, c: usize) -> String {
    if w.is_makedo() {
        format!("c{c:02}/")
    } else {
        format!("bulk/c{c}/")
    }
}

/// Output checks on a stopped volume: structural verification, every
/// client's namespace against its oracle (names, sizes, contents of up
/// to `read_cap` files per client).
pub fn check_volume(
    vol: &mut FsdVolume,
    w: Workload,
    oracles: &[Oracle],
    read_cap: usize,
    tally: &mut Tally,
) {
    if let Err(e) = vol.verify() {
        tally.fail(format!("verify: {e}"));
    }
    for (c, oracle) in oracles.iter().enumerate() {
        let prefix = client_prefix(w, c);
        let want = oracle_listing(oracle, &prefix);
        match FsBackend::list(vol, &prefix) {
            Ok(infos) => {
                let got: Vec<(String, u64)> =
                    infos.into_iter().map(|i| (i.name, i.bytes)).collect();
                if got != want {
                    tally.fail(format!(
                        "final state of {prefix}: {} files, oracle has {}",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Err(e) => tally.fail(format!("final list {prefix}: {e}")),
        }
        let stride = want.len().div_ceil(read_cap.max(1)).max(1);
        for (name, bytes) in want.iter().step_by(stride) {
            match FsBackend::read(vol, name) {
                Ok(d) if d == content_for(name, *bytes) => {}
                Ok(_) => tally.fail(format!("final contents of {name} differ")),
                Err(e) => tally.fail(format!("final read {name}: {e}")),
            }
        }
    }
}

/// The replica returned at shutdown, promoted, must hold exactly the
/// primary's files and contents.
pub fn check_replica(primary: &mut FsdVolume, replica: Replica, tally: &mut Tally) {
    let (mut promoted, _) = match replica.promote() {
        Ok(p) => p,
        Err(e) => return tally.fail(format!("replica promote: {e}")),
    };
    if let Err(e) = promoted.verify() {
        tally.fail(format!("replica verify: {e}"));
    }
    let (p, r) = match (
        FsBackend::list(primary, ""),
        FsBackend::list(&mut promoted, ""),
    ) {
        (Ok(p), Ok(r)) => (p, r),
        (Err(e), _) | (_, Err(e)) => return tally.fail(format!("replica list: {e}")),
    };
    if p != r {
        return tally.fail(format!(
            "replica lists {} files, primary {}",
            r.len(),
            p.len()
        ));
    }
    for info in &p {
        match (
            FsBackend::read(primary, &info.name),
            FsBackend::read(&mut promoted, &info.name),
        ) {
            (Ok(a), Ok(b)) if a == b => {}
            _ => tally.fail(format!("replica copy of {} differs", info.name)),
        }
    }
}

/// One crash → first-op-served measurement.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// Host time of `FsdVolume::boot` + `FsdEngine::start` + first read.
    pub total: Duration,
    pub boot: Duration,
    pub start: Duration,
    pub first_op: Duration,
    pub first_op_start: Instant,
    /// The same interval on the simulated clock (which starts at 0).
    pub sim_us: u64,
    pub report: RecoveryReport,
}

/// Boots a copy of the crashed `image` on a fresh clock (a power cycle:
/// head at cylinder 0, clock at 0), starts an unreplicated engine and
/// serves the first read, which must return `first`'s contents.
pub fn recover(
    image: &SimDisk,
    cfg: FsdConfig,
    first: &(String, u64),
) -> Result<(Recovery, Arc<FsdEngine>), String> {
    let clock = SimClock::new();
    let disk = image.fork_with_clock(clock.clone());
    let t0 = Instant::now();
    let (vol, report) = FsdVolume::boot(disk, cfg).map_err(|e| format!("boot: {e}"))?;
    let boot = t0.elapsed();
    let engine = FsdEngine::start(vol, EngineConfig::default())
        .map(Arc::new)
        .map_err(|e| format!("engine start after boot: {e}"))?;
    let start = t0.elapsed() - boot;
    let first_op_start = Instant::now();
    let data = engine
        .read(&first.0)
        .map_err(|e| format!("first read {}: {e}", first.0))?;
    let total = t0.elapsed();
    let sim_us = clock.now();
    if data != content_for(&first.0, first.1) {
        return Err(format!("first read {} after recovery differs", first.0));
    }
    Ok((
        Recovery {
            total,
            boot,
            start,
            first_op: total - boot - start,
            first_op_start,
            sim_us,
            report,
        },
        engine,
    ))
}

/// The deterministic "first op" file: client 0's smallest name.
pub fn first_file(oracle: &Oracle) -> Option<(String, u64)> {
    oracle
        .iter()
        .min_by(|a, b| a.0.cmp(b.0))
        .map(|(n, b)| (n.clone(), *b))
}

/// The result of a steady closed-loop phase (all workloads but
/// `crash_recover_20k`).
pub struct Steady {
    pub setup_s: f64,
    pub tally: Tally,
    pub elapsed: Duration,
    pub counters: Counters,
    /// The probe's boots.
    pub recoveries: Vec<Recovery>,
}

/// Set-up, the measured closed loop with its probe slices, shutdown and
/// output checks.
pub fn steady(w: Workload, seed: u64, seconds: f64) -> Result<Steady, String> {
    let mut p = prepare(w, seed, true)?;
    let first = p
        .oracles
        .first()
        .and_then(first_file)
        .ok_or("client 0 owns no file")?;
    let image = p.image.take().ok_or("set-up kept no image")?;
    let mut probe = Probe::new(image, fsd_config(w), first)?;
    let streams = (0..CLIENTS).map(|c| gen::client_ops(w, seed, c)).collect();
    let oracles = std::mem::take(&mut p.oracles);
    let (mut tally, oracles, elapsed) =
        run_clients(&p.engine, streams, oracles, seconds, &mut probe);
    if let Some(e) = probe.error {
        return Err(format!("probe: {e}"));
    }
    let es = p.engine.engine_stats();
    let ship = p
        .engine
        .repl_handle()
        .map(|h| h.stats())
        .unwrap_or_default();
    let (mut vol, replica) = stop_engine(p.engine)?;
    let counters = p.mark.since(&es, &ship, &vol);
    let read_cap = if w.is_makedo() { usize::MAX } else { 500 };
    check_volume(&mut vol, w, &oracles, read_cap, &mut tally);
    if let Some(replica) = replica {
        check_replica(&mut vol, replica, &mut tally);
    }
    Ok(Steady {
        setup_s: p.setup_s,
        tally,
        elapsed,
        counters,
        recoveries: probe.recs,
    })
}

/// `crash_recover_20k`'s crashed disk and what must survive on it.
pub struct CrashImage {
    pub image: SimDisk,
    /// Client 0's namespace as acknowledged before the crash.
    pub model: MemFs,
    /// Every name the burst created or deleted, then a spread of client
    /// 0's files it left alone: what the post-crash check reads.
    pub touched: Vec<String>,
    /// First op after recovery: the burst's first acknowledged create.
    pub first: (String, u64),
}

/// Runs the one-client burst on a prepared 20k engine, then pulls the
/// plug: the engine's writer is joined (no I/O: every op was already
/// forced and acknowledged) and the disk crashes without a volume
/// shutdown, so the VAM is never saved.
pub fn crash_image(p: Prepared, seed: u64, tally: &mut Tally) -> Result<CrashImage, String> {
    let mut oracle = p.oracles.into_iter().next().ok_or("no client 0")?;
    let mut model = MemFs::default();
    for (name, bytes) in &oracle {
        FsBackend::create(&mut model, name, &content_for(name, *bytes))
            .map_err(|e| format!("model: {e}"))?;
    }
    let burst = gen::crash_burst(seed);
    let mut touched = Vec::new();
    let mut first = None;
    for step in &burst {
        if let Err(e) = exec(p.engine.as_ref(), step, &mut oracle).verdict {
            tally.fail(format!("burst: {e}"));
            continue;
        }
        let applied = match step {
            Step::Create { name, bytes } => {
                first.get_or_insert_with(|| (name.clone(), *bytes));
                touched.push(name.clone());
                FsBackend::create(&mut model, name, &content_for(name, *bytes)).map(|_| ())
            }
            Step::Delete { name } => {
                touched.push(name.clone());
                FsBackend::delete(&mut model, name)
            }
            _ => Ok(()),
        };
        applied.map_err(|e| format!("model: {e}"))?;
    }
    let before = p.engine.stats().disk;
    let (mut vol, _) = stop_engine(p.engine)?;
    if vol.disk_stats() != before {
        return Err("engine shutdown issued I/O after the burst".into());
    }
    vol.disk_mut().crash_now();
    touched.sort();
    touched.dedup();
    // Untouched files must survive too; reading three times as many of
    // them as the burst touched keeps cold reads of live files the bulk
    // of the read class.
    let untouched: Vec<String> =
        oracle_listing(&oracle, &client_prefix(Workload::CrashRecover20k, 0))
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| touched.binary_search(n).is_err())
            .collect();
    let stride = (untouched.len() / (3 * touched.len()).max(1)).max(1);
    touched.extend(
        untouched
            .into_iter()
            .step_by(stride)
            .take(3 * touched.len()),
    );
    Ok(CrashImage {
        image: vol.into_disk(),
        model,
        touched,
        first: first.ok_or("burst created nothing")?,
    })
}

/// After a recovery: every checked name reads back exactly as the model
/// says (contents, or absent), and client 0's listing matches. The list
/// is a check only: one 10k-entry listing per boot would otherwise set
/// the read tail.
pub fn check_recovered(engine: &FsdEngine, crash: &mut CrashImage, tally: &mut Tally) {
    for name in &crash.touched {
        let want = FsBackend::read(&mut crash.model, name).ok();
        let (start, ns, got) = timed(|| engine.read(name));
        let verdict = match (got, want) {
            (Ok(a), Some(b)) if a == b => Ok(()),
            (Err(CedarFsError::NotFound(_)), None) => Ok(()),
            (got, want) => Err(format!(
                "after recovery {name}: engine {:?} B, acknowledged {:?} B",
                got.map(|d| d.len()),
                want.map(|d| d.len())
            )),
        };
        let call = Call { start, ns, verdict };
        tally.record(&Step::Read { name: name.clone() }, call);
    }
    let prefix = client_prefix(Workload::CrashRecover20k, 0);
    let listing = |infos: Vec<cedar_vol::fs::FileInfo>| {
        infos
            .into_iter()
            .map(|i| (i.name, i.bytes))
            .collect::<Vec<_>>()
    };
    match (
        engine.list(&prefix),
        FsBackend::list(&mut crash.model, &prefix),
    ) {
        (Ok(a), Ok(b)) => {
            let (a, b) = (listing(a), listing(b));
            if a != b {
                tally.fail(format!(
                    "after recovery {prefix} lists {} files, acknowledged {}",
                    a.len(),
                    b.len()
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => tally.fail(format!("list after recovery: {e}")),
    }
}

/// The result of `crash_recover_20k`'s measured recovery loop.
pub struct CrashLoop {
    pub setup_s: f64,
    pub tally: Tally,
    pub elapsed: Duration,
    pub counters: Counters,
    pub recoveries: Vec<Recovery>,
    pub crash: CrashImage,
}

/// Builds the crashed image, then boots copies of it for `seconds`:
/// crash → first op, a burst of post-recovery writes, and the
/// acknowledged-state check. Every boot must match the first to the bit.
pub fn crash_loop(seed: u64, seconds: f64) -> Result<CrashLoop, String> {
    let w = Workload::CrashRecover20k;
    let cfg = fsd_config(w);
    let mut tally = Tally::default();
    let p = prepare(w, seed, false)?;
    let setup_s = p.setup_s;
    let mut crash = crash_image(p, seed, &mut tally)?;
    let (reference, engine) = recover(&crash.image, cfg, &crash.first)?;
    stop_engine(engine)?;

    let mut counters = Counters::default();
    let mut recoveries = Vec::new();
    let t0 = Instant::now();
    for iter in 0.. {
        if phase_done(&tally.windows, seconds) {
            break;
        }
        // Each iteration is one window of the phase.
        let start_ns = elapsed_ns(t0);
        let (writes, reads) = (tally.write_ns.len(), tally.read_ns.len());
        let (rec, engine) = recover(&crash.image, cfg, &crash.first)?;
        let first_read = Call {
            start: rec.first_op_start,
            ns: u64::try_from(rec.first_op.as_nanos()).unwrap_or(u64::MAX),
            verdict: Ok(()),
        };
        tally.record(
            &Step::Read {
                name: crash.first.0.clone(),
            },
            first_read,
        );
        if (rec.sim_us, &rec.report) != (reference.sim_us, &reference.report) {
            tally.fail(format!("recovery {iter} differs from the first boot"));
        }
        recoveries.push(rec);
        let es0 = engine.engine_stats();
        // Writes first: the read-back then runs on a warmed-up engine,
        // so the read class is one population, not a few cold reads per
        // boot sitting right at its 99th percentile.
        let post = gen::post_recovery_ops(seed, iter, POST_RECOVERY_WRITES);
        tally.absorb(run_steps(engine.as_ref(), &post, &mut Oracle::new()));
        check_recovered(&engine, &mut crash, &mut tally);
        let es = engine.engine_stats();
        let (vol, _) = stop_engine(engine)?;
        tally.windows.push(Window {
            start_ns,
            end_ns: elapsed_ns(t0),
            writes: (tally.write_ns.len() - writes) as u64,
            reads: (tally.read_ns.len() - reads) as u64,
        });
        // The fork started with zeroed disk stats, so the volume's
        // totals are this iteration's: boot, warm-up, reads and writes.
        counters.absorb(&Counters {
            disk: vol.disk_stats(),
            commit: vol.commit_stats(),
            engine: engine_delta(&es, &es0),
            ship: ShipperStats::default(),
        });
    }
    Ok(CrashLoop {
        setup_s,
        tally,
        elapsed: t0.elapsed(),
        counters,
        recoveries,
        crash,
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
