//! The end-to-end run (`--trace 0`): what a user of the file system sees.

use crate::gen::Workload;
use crate::run::{self, Class, Recovery, Tally};
use crate::stats::{self, median, percentile, ratio, Report};
use std::time::Duration;

/// Host latency at `permille` (`500` = p50, `990` = p99) of one class
/// over the measured phase, µs.
pub fn latency_us(t: &Tally, class: Class, permille: u32) -> Result<f64, String> {
    let (ns, name) = match class {
        Class::Write => (&t.write_ns, "write"),
        Class::Read => (&t.read_ns, "read"),
    };
    percentile(ns, permille)
        .map(|v| v as f64 / 1e3)
        .map_err(|e| format!("{name} latency: {e}"))
}

/// Completed ops per second of the measured phase's windows.
pub fn ops_rate(t: &Tally) -> f64 {
    let ns: u64 = t.windows.iter().map(|w| w.end_ns - w.start_ns).sum();
    t.completed() as f64 * 1e9 / ns.max(1) as f64
}

/// Median host crash → first-op time, ms, and the simulated time, which
/// must be identical on every boot of the same image.
pub fn recovery_times(recs: &[Recovery], tally: &mut Tally) -> Result<(f64, f64), String> {
    let host: Vec<f64> = recs.iter().map(|r| r.total.as_secs_f64() * 1e3).collect();
    let first = recs.first().ok_or("no recovery measured")?;
    if recs.iter().any(|r| r.sim_us != first.sim_us) {
        tally.fail("boots of one image took different simulated times".into());
    }
    Ok((
        median(&host).ok_or("no recovery measured")?,
        first.sim_us as f64 / 1e3,
    ))
}

/// Everything one end-to-end run measures, before it becomes metrics.
pub struct Measured {
    pub setup_s: f64,
    pub tally: Tally,
    pub elapsed: Duration,
    pub counters: run::Counters,
    pub recoveries: Vec<Recovery>,
}

/// Runs the workload's measured phase and its checks.
pub fn measure(w: Workload, seed: u64, seconds: f64) -> Result<Measured, String> {
    if w == Workload::CrashRecover20k {
        let l = run::crash_loop(seed, seconds)?;
        return Ok(Measured {
            setup_s: l.setup_s,
            tally: l.tally,
            elapsed: l.elapsed,
            counters: l.counters,
            recoveries: l.recoveries,
        });
    }
    let s = run::steady(w, seed, seconds)?;
    Ok(Measured {
        setup_s: s.setup_s,
        tally: s.tally,
        elapsed: s.elapsed,
        counters: s.counters,
        recoveries: s.recoveries,
    })
}

/// Checks that simulated disk busy time is exactly its four parts.
pub fn check_disk_identity(d: &cedar_disk::DiskStats, tally: &mut Tally) {
    let parts = d.seek_us + d.rotation_us + d.lost_rev_us + d.transfer_us;
    if parts != d.busy_us() {
        tally.fail(format!("disk parts {parts} µs != busy {} µs", d.busy_us()));
    }
}

/// Processes one end-to-end run is split into. A process keeps the
/// memory placement and thread layout it started with, and those set
/// how the clients' ops share epochs (so `sim_disk_us_per_op`) and the
/// set-up time; averaging fresh processes averages them out of a run.
pub const TRIALS: usize = 3;

/// The end-to-end metrics and their units, in output order.
pub const METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_disk_us_per_op", "us"),
    ("recover_sim_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("op_ok_frac", "ratio"),
];

/// One trial in this process: set-up, the measured phase with its
/// crash → first-op boots, the checks, then further set-ups until
/// [`run::SETUP_BUDGET`] is spent; `setup_s` is their median.
pub fn trial(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut m = measure(w, seed, seconds)?;
    let mut setups = vec![m.setup_s];
    while setups.iter().sum::<f64>() < run::SETUP_BUDGET.as_secs_f64() {
        setups.push(run::prepare(w, seed, false)?.setup_s);
    }
    let (_, recover_sim_ms) = recovery_times(&m.recoveries, &mut m.tally)?;
    check_disk_identity(&m.counters.disk, &mut m.tally);
    let done = m.tally.completed();
    let mut r = Report::default();
    r.push("setup_s", median(&setups).ok_or("no set-up")?, "s");
    eprintln!(
        "perfbench: {} measured {:.1} s in {} windows, {} boots",
        w.name(),
        m.elapsed.as_secs_f64(),
        m.tally.windows.len(),
        m.recoveries.len()
    );
    r.push(
        "sim_disk_us_per_op",
        ratio(m.counters.disk.busy_us(), done),
        "us",
    );
    r.push("recover_sim_ms", recover_sim_ms, "ms");
    r.push("peak_rss_mb", run::peak_rss_mib()?, "MiB");
    r.push("op_ok_frac", ratio(done, m.tally.attempted), "ratio");
    for e in &m.tally.errors {
        eprintln!("check failed: {e}");
    }
    r.correct = m.tally.failed == 0;
    r.attempted = m.tally.attempted;
    r.failed = m.tally.failed;
    Ok(r)
}

/// Folds the trials into one report: the median set-up (one per
/// trial), the largest peak RSS, the success share of all ops, and the
/// mean of everything else.
pub fn combine(trials: &[Report]) -> Result<Report, String> {
    let mut r = Report {
        correct: trials.iter().all(|t| t.correct),
        attempted: trials.iter().map(|t| t.attempted).sum(),
        failed: trials.iter().map(|t| t.failed).sum(),
        metrics: Vec::new(),
    };
    for (name, unit) in METRICS {
        let found: Vec<&stats::Metric> = trials
            .iter()
            .map(|t| {
                t.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .ok_or_else(|| format!("a trial did not report {name}"))
            })
            .collect::<Result<_, _>>()?;
        let values: Vec<f64> = found.iter().map(|m| m.value).collect();
        let value = match name {
            "setup_s" => median(&values),
            "peak_rss_mb" => values.iter().copied().reduce(f64::max),
            "op_ok_frac" => Some(ratio(r.attempted - r.failed.min(r.attempted), r.attempted)),
            _ => (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64),
        }
        .ok_or("no trials")?;
        r.push(name, value, unit);
    }
    Ok(r)
}

/// Runs [`TRIALS`] trials, each in a fresh process measuring its share
/// of `seconds`, and combines them. `crash_recover_20k`'s trials must
/// agree on the simulated recovery time to the bit.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut trials = Vec::new();
    for _ in 0..TRIALS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &(seconds / TRIALS as f64).to_string()])
            .args(["--trace", "0", "--trial", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a trial: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .last()
            .filter(|_| out.status.code() != Some(2))
            .ok_or_else(|| format!("trial could not be measured ({})", out.status))?;
        trials.push(stats::parse_report(line)?);
    }
    let mut r = combine(&trials)?;
    if w == Workload::CrashRecover20k {
        let sim: Vec<f64> = trials
            .iter()
            .flat_map(|t| t.metrics.iter().filter(|m| m.name == "recover_sim_ms"))
            .map(|m| m.value)
            .collect();
        if sim.windows(2).any(|p| p[0].to_bits() != p[1].to_bits()) {
            eprintln!("check failed: same seed, different simulated recovery: {sim:?}");
            r.correct = false;
            r.failed += 1;
        }
    }
    Ok(r)
}
