//! Sample statistics and the result line.
//!
//! Percentiles are nearest-rank over host-clock samples. A percentile is
//! only reported when at least [`MIN_TAIL`] samples lie beyond it, so a
//! p99 needs 1000 samples and a p50 needs 20; fewer is an error, never a
//! silently noisy number.

use std::fmt::Write as _;

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The `p`-permille percentile (`500` = median, `990` = p99) of
/// `samples`, nearest rank. Refused when fewer than [`MIN_TAIL`] samples
/// lie beyond it.
pub fn percentile(samples: &[u64], permille: u32) -> Result<u64, String> {
    if permille == 0 || permille >= 1000 {
        return Err(format!("percentile {permille}/1000 out of range"));
    }
    let n = samples.len();
    let beyond = n * (1000 - permille as usize);
    if beyond < MIN_TAIL * 1000 {
        return Err(format!(
            "p{} needs {} samples, have {n}",
            permille as f64 / 10.0,
            (MIN_TAIL * 1000).div_ceil(1000 - permille as usize)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    // Nearest rank: the smallest value with at least p of the samples at
    // or below it.
    let rank = (n * permille as usize).div_ceil(1000).max(1);
    Ok(sorted[rank - 1])
}

/// A slice of a measured phase (ns since its start) and the ops of each
/// class that completed in it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
    pub writes: u64,
    pub reads: u64,
}

/// Median of a non-empty list of floats (mean of the middle two for an
/// even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// drawn from letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let at = line
        .find(&format!("\"{key}\": "))
        .ok_or_else(|| format!("no {key} in {line}"))?;
    let rest = &line[at + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Ok(rest[..end].trim())
}

/// Reads back a line [`Report::to_json`] wrote, for the names in
/// `crate::e2e::METRICS` (the trials' output).
pub fn parse_report(line: &str) -> Result<Report, String> {
    let num = |key: &str| -> Result<u64, String> {
        field(line, key)?
            .parse()
            .map_err(|e| format!("{key} in {line}: {e}"))
    };
    let mut r = Report {
        correct: field(line, "correct")? == "true",
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics: Vec::new(),
    };
    for (name, unit) in crate::e2e::METRICS {
        let at = line
            .find(&format!("\"{name}\": {{"))
            .ok_or_else(|| format!("no {name} in {line}"))?;
        let body = &line[at..];
        let value = field(body, "value")?
            .parse::<f64>()
            .map_err(|e| format!("{name} in {line}: {e}"))?;
        if field(body, "unit")?.trim_matches('"') != unit {
            return Err(format!("{name} in {line}: unit is not {unit}"));
        }
        r.push(name, value, unit);
    }
    Ok(r)
}

/// The benchmark's last output line.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The one-line JSON object: `correct`, `attempted`, `failed`,
    /// `metrics`. Refuses invalid or duplicate names and non-finite
    /// values.
    pub fn to_json(&self) -> Result<String, String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut body = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_metric_name(m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !seen.insert(m.name) {
                return Err(format!("duplicate metric {}", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                body.push_str(", ");
            }
            // `{:?}` prints the shortest representation that reads back
            // to the same f64: every digit the measurement has.
            let _ = write!(
                body,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct, self.attempted, self.failed, body
        ))
    }
}
