//! The traced run (`--trace 1`): per-layer numbers.
//!
//! Two sources, both outside the program:
//!
//! * **Counters.** The workload's own measured phase (same clients,
//!   same engine) runs untraced, and the `DiskStats` / `CommitStats` /
//!   `EngineStats` / `ShipperStats` deltas and `RecoveryReport`s give the
//!   ratio metrics.
//! * **Spans.** One client replays the same seeded op stream from one
//!   cleanly shut down image, so each mutating op is exactly one epoch:
//!   untraced through `FsdEngine` (the reference latency), traced
//!   through `FsdEngine`, traced through the sync-replicated engine, and
//!   traced against a bare `FsdVolume` (`FsBackend` verb, then
//!   `FsdVolume::force`). Spans of the same op id are joined: the
//!   engine's self time is its write span minus the volume apply and log
//!   force measured for that op. Layer figures are per-op medians.

use crate::e2e::{self, check_disk_identity};
use crate::gen::{self, Oracle, Workload};
use crate::run::{self, class_of, exec, stop_engine, Class, Tally};
use crate::stats::{median, ratio, Report};
use crate::trace::{nest_within, self_time_ns, write_jsonl, Span, Tracer};
use cedar_disk::{Micros, SimClock, SimDisk};
use cedar_fsd::FsdVolume;
use cedar_vol::fs::SyncFs;
use cedar_workload::Step;
use std::time::Instant;

/// Ops each one-client leg replays: enough that a leg takes a second or
/// two of host time on either volume.
pub fn leg_len(w: Workload) -> usize {
    if w.is_makedo() {
        4_000
    } else {
        800
    }
}

/// `engine.self + volume.apply + log.force` (per-op medians) must come
/// within this share of the untraced one-client engine write latency.
pub const RECONCILE_TOL: f64 = 0.25;

/// The one-client op stream: client 0's stream, first [`leg_len`] ops.
pub fn leg_ops(w: Workload, seed: u64) -> Vec<Step> {
    let mut ops = gen::client_ops(w, seed, 0);
    (0..leg_len(w)).map(|_| ops.next_op()).collect()
}

fn verb(step: &Step) -> &'static str {
    match step {
        Step::Create { .. } => "create",
        Step::Delete { .. } => "delete",
        Step::Read { .. } => "read",
        Step::Touch { .. } => "open",
        Step::List { .. } => "list",
    }
}

fn span_name(layer: &str, step: &Step) -> &'static str {
    match (layer, verb(step)) {
        ("engine", "create") => "engine.create",
        ("engine", "delete") => "engine.delete",
        ("engine", "read") => "engine.read",
        ("engine", "open") => "engine.open",
        ("engine", "list") => "engine.list",
        ("repl", "create") => "repl.create",
        ("repl", "delete") => "repl.delete",
        ("repl", "read") => "repl.read",
        ("repl", "open") => "repl.open",
        ("repl", "list") => "repl.list",
        ("volume", "create") => "volume.create",
        ("volume", "delete") => "volume.delete",
        ("volume", "read") => "volume.read",
        ("volume", "open") => "volume.open",
        _ => "volume.list",
    }
}

fn boot_clean(image: &SimDisk, w: Workload) -> Result<FsdVolume, String> {
    FsdVolume::boot(image.fork_with_clock(SimClock::new()), run::fsd_config(w))
        .map(|(vol, _)| vol)
        .map_err(|e| format!("boot: {e}"))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Leg {
    Untraced,
    Engine,
    Replicated,
}

struct EngineLeg {
    spans: Vec<Span>,
    /// Per span: whether the read queued for the log-writer.
    missed: Vec<bool>,
    tally: Tally,
    epochs: u64,
    ship: cedar_fsd::ShipperStats,
}

fn engine_leg(
    image: &SimDisk,
    w: Workload,
    ops: &[Step],
    mut oracle: Oracle,
    leg: Leg,
    epoch: Instant,
) -> Result<EngineLeg, String> {
    let engine = run::start_engine(boot_clean(image, w)?, w, leg == Leg::Replicated)?;
    let layer = if leg == Leg::Replicated {
        "repl"
    } else {
        "engine"
    };
    let es0 = engine.engine_stats();
    let ship0 = engine.repl_handle().map(|h| h.stats()).unwrap_or_default();
    let mut tracer = Tracer::new(epoch, 0);
    let mut missed = Vec::new();
    let mut tally = Tally::default();
    for (i, step) in ops.iter().enumerate() {
        if leg == Leg::Untraced {
            let call = exec(engine.as_ref(), step, &mut oracle);
            tally.record(step, call);
            continue;
        }
        let before = engine.engine_stats().read_misses;
        let call = exec(engine.as_ref(), step, &mut oracle);
        missed.push(engine.engine_stats().read_misses > before);
        tracer.record(span_name(layer, step), i as u64, None, call.start, call.ns);
        tally.record(step, call);
    }
    let epochs = engine.engine_stats().epochs - es0.epochs;
    let ship = engine.repl_handle().map(|h| h.stats()).unwrap_or_default();
    stop_engine(engine)?;
    Ok(EngineLeg {
        spans: tracer.spans,
        missed,
        tally,
        epochs,
        ship: run::ship_delta(&ship, &ship0),
    })
}

/// The bare-volume leg: each op is a `vol.op` span holding the
/// `FsBackend` verb and, after a mutation, `FsdVolume::force` — the
/// work one engine epoch does for one client, minus the engine.
fn volume_leg(
    image: &SimDisk,
    w: Workload,
    ops: &[Step],
    mut oracle: Oracle,
    epoch: Instant,
) -> Result<(Vec<Span>, Tally), String> {
    let mut vol = boot_clean(image, w)?;
    // Only the explicit per-op force commits, as under the engine.
    vol.set_commit_interval(Micros::MAX);
    let fs = SyncFs::new(vol);
    let mut tracer = Tracer::new(epoch, 0);
    let mut tally = Tally::default();
    for (i, step) in ops.iter().enumerate() {
        let op = i as u64;
        let root = tracer.begin("vol.op", op, None);
        let call = exec(&fs, step, &mut oracle);
        tracer.record(
            span_name("volume", step),
            op,
            Some(root),
            call.start,
            call.ns,
        );
        let applied = call.verdict.is_ok();
        tally.record(step, call);
        if applied && class_of(step) == Class::Write {
            if let Err(e) = tracer.span("log.force", op, Some(root), || fs.with(|v| v.force())) {
                tally.fail(format!("force after op {i}: {e}"));
            }
        }
        tracer.end(root);
    }
    Ok((tracer.spans, tally))
}

/// Median of per-op durations, µs (0 when there are none). Medians, not
/// means: one op that met a stolen CPU would otherwise move a layer's
/// figure by more than the layer's own cost.
fn median_us(ns: impl IntoIterator<Item = u64>) -> f64 {
    let v: Vec<f64> = ns.into_iter().map(|n| n as f64 / 1e3).collect();
    median(&v).unwrap_or(0.0)
}

/// The joined per-op decomposition of one-client engine writes, as
/// per-op medians.
pub struct WriteSplit {
    /// Engine span minus the nested volume apply and log force, µs.
    pub engine_self_us: f64,
    pub volume_apply_us: f64,
    pub log_force_us: f64,
    /// Traced engine write latency, µs.
    pub engine_write_us: f64,
}

/// Joins the engine legs' write spans with the volume leg's apply and
/// force spans of the same op id.
pub fn split_writes(engine_legs: &[&[Span]], volume: &[Span]) -> WriteSplit {
    let ops = volume.iter().map(|s| s.op as usize + 1).max().unwrap_or(0);
    let mut apply = vec![None; ops];
    let mut force = vec![None; ops];
    for s in volume {
        match s.name {
            "volume.create" | "volume.delete" => apply[s.op as usize] = Some(s),
            "log.force" => force[s.op as usize] = Some(s),
            _ => {}
        }
    }
    let (mut selfs, mut applies, mut forces, mut totals) = (vec![], vec![], vec![], vec![]);
    for e in engine_legs.iter().flat_map(|leg| leg.iter()) {
        let i = e.op as usize;
        let (Some(Some(a)), Some(Some(f))) = (apply.get(i), force.get(i)) else {
            continue;
        };
        let nested = nest_within(e, &[a, f]);
        selfs.push(self_time_ns(e, &nested.iter().collect::<Vec<_>>()));
        applies.push(a.dur_ns());
        forces.push(f.dur_ns());
        totals.push(e.dur_ns());
    }
    WriteSplit {
        engine_self_us: median_us(selfs),
        volume_apply_us: median_us(applies),
        log_force_us: median_us(forces),
        engine_write_us: median_us(totals),
    }
}

/// `|sum − reference| / reference`.
pub fn reconcile_err(split: &WriteSplit, reference_us: f64) -> f64 {
    let sum = split.engine_self_us + split.volume_apply_us + split.log_force_us;
    (sum - reference_us).abs() / reference_us
}

fn write_spans_of<'a>(leg: &'a EngineLeg, ops: &'a [Step]) -> impl Iterator<Item = u64> + 'a {
    leg.spans
        .iter()
        .filter(|s| class_of(&ops[s.op as usize]) == Class::Write)
        .map(Span::dur_ns)
}

pub fn per_layer(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();

    // Counters from the workload's own (untraced) measured phase.
    let mut m = e2e::measure(w, seed, seconds)?;
    // Host throughput, latencies and recovery time move too far with
    // the shared host's load to hold a change to a bound, so they are
    // reported here rather than end to end.
    r.push("ops_per_s", e2e::ops_rate(&m.tally), "ops/s");
    for (name, class, permille) in [
        ("write_p50_us", Class::Write, 500),
        ("read_p50_us", Class::Read, 500),
        ("write_p99_us", Class::Write, 990),
        ("read_p99_us", Class::Read, 990),
    ] {
        r.push(name, e2e::latency_us(&m.tally, class, permille)?, "us");
    }
    let mut tally = std::mem::take(&mut m.tally);
    let (recover_ms, _) = e2e::recovery_times(&m.recoveries, &mut tally)?;
    r.push("recover_ms", recover_ms, "ms");
    check_disk_identity(&m.counters.disk, &mut tally);
    let c = &m.counters;
    let done = tally.completed();
    let per_op = |x: u64| ratio(x, done);
    r.push(
        "engine.ops_per_epoch",
        ratio(c.engine.ops, c.engine.epochs),
        "ops",
    );
    r.push(
        "engine.read_hit_frac",
        ratio(
            c.engine.read_hits,
            c.engine.read_hits + c.engine.read_misses,
        ),
        "ratio",
    );
    r.push("log.forces_per_op", per_op(c.commit.forces), "count");
    r.push(
        "log.sectors_per_force",
        ratio(c.commit.log_sectors_written, c.commit.forces),
        "sectors",
    );
    r.push(
        "log.third_flush_pages_per_op",
        per_op(c.commit.third_flush_pages),
        "pages",
    );
    let d = &c.disk;
    let parts = [
        ("disk.seek_us_per_op", per_op(d.seek_us)),
        ("disk.rotation_us_per_op", per_op(d.rotation_us)),
        ("disk.lost_rev_us_per_op", per_op(d.lost_rev_us)),
        ("disk.transfer_us_per_op", per_op(d.transfer_us)),
    ];
    let busy = per_op(d.busy_us());
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    if (sum - busy).abs() > 1e-9 * busy.max(1.0) {
        tally.fail(format!("disk parts sum to {sum} µs/op, busy is {busy}"));
    }
    for (name, v) in parts {
        r.push(name, v, "us");
    }
    r.push("disk.busy_us_per_op", busy, "us");
    r.push("disk.reads_per_op", per_op(d.reads), "count");
    r.push("disk.writes_per_op", per_op(d.writes), "count");
    r.push(
        "disk.bytes_written_per_user_byte",
        ratio(
            d.sectors_written * cedar_disk::SECTOR_BYTES_U64,
            tally.user_bytes,
        ),
        "ratio",
    );

    // Crash → first op, split.
    let recs = &m.recoveries;
    let ms = |f: &dyn Fn(&run::Recovery) -> f64| {
        median(&recs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let first = recs.first().ok_or("no recovery measured")?;
    r.push(
        "engine.start_ms",
        ms(&|x| x.start.as_secs_f64() * 1e3),
        "ms",
    );
    r.push(
        "recovery.boot_ms",
        ms(&|x| x.boot.as_secs_f64() * 1e3),
        "ms",
    );
    r.push(
        "recovery.first_op_us",
        ms(&|x| x.first_op.as_secs_f64() * 1e6),
        "us",
    );
    r.push(
        "recovery.redo_sim_ms",
        first.report.redo_us as f64 / 1e3,
        "ms",
    );
    r.push(
        "recovery.vam_sim_ms",
        first.report.vam_us as f64 / 1e3,
        "ms",
    );
    r.push(
        "recovery.records_replayed",
        first.report.records_replayed as f64,
        "count",
    );
    r.push(
        "recovery.images_redone",
        first.report.images_redone as f64,
        "count",
    );
    r.push(
        "recovery.files_scanned",
        first.report.files_scanned as f64,
        "count",
    );

    // Spans from the one-client legs.
    let pop = gen::population(w, seed);
    let oracle = pop.oracles[0].clone();
    let mut base = run::build_volume(w, &pop)?;
    base.shutdown().map_err(|e| format!("base shutdown: {e}"))?;
    let image = base.into_disk();
    let ops = leg_ops(w, seed);
    // Each engine leg runs twice, mirrored around the volume leg
    // (U T R V R T U), so drift in the host's speed over the run cancels
    // out of the overhead and the replication cost.
    let epoch = Instant::now();
    let leg = |kind| engine_leg(&image, w, &ops, oracle.clone(), kind, epoch);
    let untraced_a = leg(Leg::Untraced)?;
    let traced_a = leg(Leg::Engine)?;
    let repl_a = leg(Leg::Replicated)?;
    let (vol_spans, vol_tally) = volume_leg(&image, w, &ops, oracle.clone(), epoch)?;
    let repl_b = leg(Leg::Replicated)?;
    let traced_b = leg(Leg::Engine)?;
    let untraced_b = leg(Leg::Untraced)?;
    let (untraced, traced, repl) = (
        [untraced_a, untraced_b],
        [traced_a, traced_b],
        [repl_a, repl_b],
    );
    tally.absorb(vol_tally);
    for l in untraced.iter().chain(&traced).chain(&repl) {
        tally.absorb(l.tally.clone());
    }
    let split = split_writes(&[&traced[0].spans[..], &traced[1].spans[..]], &vol_spans);
    let untraced_us = median_us(
        untraced
            .iter()
            .flat_map(|l| l.tally.write_ns.iter().copied()),
    );
    let err = reconcile_err(&split, untraced_us);
    if err > RECONCILE_TOL {
        tally.fail(format!(
            "engine.self {:.1} + volume.apply {:.1} + log.force {:.1} µs vs untraced write {untraced_us:.1} µs: off by {:.1} %",
            split.engine_self_us, split.volume_apply_us, split.log_force_us, err * 100.0
        ));
    }
    r.push("engine.self_us_per_write", split.engine_self_us, "us");
    r.push("engine.write_us", split.engine_write_us, "us");
    r.push("volume.apply_us_per_write", split.volume_apply_us, "us");
    r.push("log.force_us", split.log_force_us, "us");
    r.push("trace.untraced_write_us", untraced_us, "us");
    r.push("trace.reconcile_err_frac", err, "ratio");
    r.push(
        "trace.overhead_frac",
        (split.engine_write_us - untraced_us) / untraced_us,
        "ratio",
    );
    r.push(
        "engine.read_miss_us",
        median_us(traced.iter().flat_map(|leg| {
            leg.spans
                .iter()
                .zip(&leg.missed)
                .filter(|(s, m)| **m && s.name == "engine.read")
                .map(|(s, _)| s.dur_ns())
        })),
        "us",
    );
    r.push(
        "volume.read_us",
        median_us(
            vol_spans
                .iter()
                .filter(|s| s.name == "volume.read")
                .map(Span::dur_ns),
        ),
        "us",
    );
    r.push(
        "repl.self_us_per_write",
        median_us(repl.iter().flat_map(|l| write_spans_of(l, &ops))) - split.engine_write_us,
        "us",
    );
    let sum = |f: fn(&EngineLeg) -> u64| repl.iter().map(f).sum::<u64>();
    r.push(
        "repl.frames_per_epoch",
        ratio(sum(|l| l.ship.frames_shipped), sum(|l| l.epochs)),
        "frames",
    );
    r.push(
        "repl.bytes_shipped_per_op",
        ratio(sum(|l| l.ship.bytes_shipped), 2 * ops.len() as u64),
        "bytes",
    );
    r.push("repl.retries", sum(|l| l.ship.retries) as f64, "count");
    r.push(
        "op_error_frac",
        ratio(tally.failed, tally.attempted),
        "ratio",
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    write_jsonl(
        &path,
        &[
            ("engine.a", &traced[0].spans),
            ("engine.b", &traced[1].spans),
            ("volume", &vol_spans),
            ("repl.a", &repl[0].spans),
            ("repl.b", &repl[1].spans),
        ],
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;

    for e in &tally.errors {
        eprintln!("check failed: {e}");
    }
    r.correct = tally.failed == 0;
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    Ok(r)
}
