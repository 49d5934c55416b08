//! Self-tests of the benchmark harness: percentile selection, metric
//! names, span arithmetic, window selection, and same-seed determinism.

use perfbench::gen::{self, Workload};
use perfbench::layers::{reconcile_err, split_writes};
use perfbench::run::{self, Tally};
use perfbench::stats::{self, percentile, valid_metric_name, Report};
use perfbench::trace::{nest_within, self_time_ns, Span};

#[test]
fn p99_is_refused_below_1000_samples() {
    let samples: Vec<u64> = (1..=999).collect();
    assert!(percentile(&samples, 990).is_err());
    let samples: Vec<u64> = (1..=1000).collect();
    assert_eq!(percentile(&samples, 990), Ok(990));
}

#[test]
fn percentiles_are_nearest_rank() {
    let samples: Vec<u64> = (1..=100).rev().collect();
    assert_eq!(percentile(&samples, 500), Ok(50));
    assert_eq!(percentile(&samples, 900), Ok(90));
    // A median needs 20 samples (10 beyond it).
    assert!(percentile(&samples[..19], 500).is_err());
    assert_eq!(percentile(&samples[..20], 500), Ok(90));
    assert!(percentile(&samples, 0).is_err());
    assert!(percentile(&samples, 1000).is_err());
}

#[test]
fn metric_names_are_validated() {
    for ok in [
        "setup_s",
        "engine.self_us_per_write",
        "disk.lost_rev_us_per_op",
        "p99-x",
        "9a",
    ] {
        assert!(valid_metric_name(ok), "{ok}");
    }
    let long = "a".repeat(65);
    for bad in ["", "_lead", ".x", "has space", "µs", "a/b", long.as_str()] {
        assert!(!valid_metric_name(bad), "{bad}");
    }
}

#[test]
fn report_json_refuses_bad_metrics() {
    let mut r = Report {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: Vec::new(),
    };
    r.push("latency_ms", 1.25, "ms");
    assert_eq!(
        r.to_json().unwrap(),
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"latency_ms": {"value": 1.25, "unit": "ms"}}}"#
    );
    r.push("latency_ms", 2.0, "ms");
    assert!(r.to_json().is_err(), "duplicate name");
    r.metrics.pop();
    r.push("bad name", 2.0, "ms");
    assert!(r.to_json().is_err(), "invalid name");
    r.metrics.pop();
    r.push("nan", f64::NAN, "ms");
    assert!(r.to_json().is_err(), "non-finite value");
}

#[test]
fn trials_round_trip_and_combine() {
    let trial = |setup: f64, sim: f64, rss: f64, failed: u64| {
        let mut r = Report {
            correct: failed == 0,
            attempted: 100,
            failed,
            metrics: Vec::new(),
        };
        for (name, unit) in perfbench::e2e::METRICS {
            let value = match name {
                "setup_s" => setup,
                "sim_disk_us_per_op" => sim,
                "peak_rss_mb" => rss,
                _ => 1.5,
            };
            r.push(name, value, unit);
        }
        stats::parse_report(&r.to_json().unwrap()).unwrap()
    };
    let trials = [
        trial(0.1, 1000.0, 90.0, 0),
        trial(0.3, 2000.0, 110.0, 1),
        trial(0.2, 3000.0, 100.0, 0),
    ];
    assert_eq!(trials[1].metrics[0].value, 0.3, "parsed back");
    let r = perfbench::e2e::combine(&trials).unwrap();
    let get = |n: &str| r.metrics.iter().find(|m| m.name == n).unwrap().value;
    assert_eq!(get("setup_s"), 0.2, "median set-up");
    assert_eq!(get("sim_disk_us_per_op"), 2000.0, "mean of the trials");
    assert_eq!(get("peak_rss_mb"), 110.0, "largest peak");
    assert_eq!(get("op_ok_frac"), 299.0 / 300.0);
    assert!(!r.correct);
    assert_eq!((r.attempted, r.failed), (300, 1));
    assert!(stats::parse_report("{\"correct\": true}").is_err());
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, op: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent: None,
        op,
        thread: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let parent = span("p", 100, 200, 0);
    // Overlapping children count once; parts outside the parent do not
    // count at all.
    let a = span("a", 110, 140, 0);
    let b = span("b", 130, 150, 0);
    let c = span("c", 190, 260, 0);
    assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 100 - 40 - 10);
    assert_eq!(self_time_ns(&parent, &[]), 100);
    // Children covering the whole parent leave no self time.
    let all = span("all", 50, 300, 0);
    assert_eq!(self_time_ns(&parent, &[&all]), 0);
}

#[test]
fn nesting_lays_parts_end_to_end() {
    let parent = span("engine.create", 1_000, 2_000, 7);
    let apply = span("volume.create", 50, 250, 7);
    let force = span("log.force", 300, 400, 7);
    let nested = nest_within(&parent, &[&apply, &force]);
    assert_eq!((nested[0].start_ns, nested[0].end_ns), (1_000, 1_200));
    assert_eq!((nested[1].start_ns, nested[1].end_ns), (1_200, 1_300));
    let refs: Vec<&Span> = nested.iter().collect();
    assert_eq!(self_time_ns(&parent, &refs), 700);
}

#[test]
fn write_split_reconciles_with_engine_latency() {
    // Two writes and a read; the read has no volume counterpart.
    let engine = vec![
        span("engine.create", 0, 1_000, 0),
        span("engine.read", 1_000, 1_100, 1),
        span("engine.delete", 2_000, 2_600, 2),
    ];
    let volume = vec![
        span("volume.create", 0, 100, 0),
        span("log.force", 100, 300, 0),
        span("volume.read", 300, 350, 1),
        span("volume.delete", 400, 450, 2),
        span("log.force", 450, 500, 2),
    ];
    let split = split_writes(&[&engine], &volume);
    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    assert!(close(split.volume_apply_us, 0.075));
    assert!(close(split.log_force_us, 0.125));
    assert!(close(split.engine_write_us, 0.8));
    assert!(close(split.engine_self_us, 0.6));
    assert!(close(reconcile_err(&split, 0.8), 0.0));
    assert!(close(reconcile_err(&split, 1.0), 0.2));
}

#[test]
fn generators_follow_the_seed() {
    for w in Workload::ALL {
        let take = |seed| {
            let mut ops = gen::client_ops(w, seed, 1);
            (0..300).map(|_| ops.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3), "{}", w.name());
        let pop = |seed| gen::population(w, seed).files;
        assert_eq!(pop(3), pop(3), "{}", w.name());
        assert_ne!(pop(3), pop(4), "{}", w.name());
    }
    assert_eq!(gen::crash_burst(9), gen::crash_burst(9));
    assert_ne!(gen::crash_burst(9), gen::crash_burst(10));
    assert_eq!(
        gen::crash_burst(9).len(),
        gen::BURST_MUTATIONS,
        "the burst is mutations only"
    );
}

/// `crash_recover_20k`'s crashed image, booted: its simulated recovery
/// time, recovery report and disk counters must repeat bit for bit for
/// one seed.
fn crash_recovery(seed: u64) -> (u64, cedar_fsd::RecoveryReport, cedar_disk::DiskStats) {
    let w = Workload::CrashRecover20k;
    let mut tally = Tally::default();
    let p = run::prepare(w, seed, false).expect("set-up");
    let crash = run::crash_image(p, seed, &mut tally).expect("crash image");
    assert_eq!(tally.failed, 0, "{:?}", tally.errors);
    let (rec, engine) = run::recover(&crash.image, run::fsd_config(w), &crash.first).expect("boot");
    let (vol, _) = run::stop_engine(engine).expect("stop");
    (rec.sim_us, rec.report, vol.disk_stats())
}

#[test]
fn crash_recover_20k_repeats_exactly_for_a_seed() {
    let a = crash_recovery(5);
    let b = crash_recovery(5);
    assert_eq!(a, b);
    assert!(a.1.vam_reconstructed && a.1.records_replayed > 0);
    assert_eq!(a.1.files_scanned as usize, gen::BULK_FILES);
}
