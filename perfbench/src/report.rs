//! What a run reports: metrics, output checks, notes, and the JSON line.

use serverless_bft::telemetry::{Histogram, Metric, Registry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counter values read from a `System::registry` after a run. A name the
/// benchmark reads must be registered: `Registry::counter_value` answers
/// 0 for unknown names, which would turn a renamed counter into a silent
/// zero, so reads here fail instead.
pub struct Counts(BTreeMap<String, u64>);

impl Counts {
    pub fn take(registry: &Registry) -> Counts {
        Counts(
            registry
                .snapshot()
                .into_iter()
                .filter_map(|(name, metric)| match metric {
                    Metric::Counter(c) => Some((name, c.get())),
                    _ => None,
                })
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> Result<u64, String> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| format!("counter {name} is not registered"))
    }

    /// Sum of every counter named `<component>.<suffix>`; at least one
    /// must be registered.
    pub fn sum(&self, suffix: &str) -> Result<u64, String> {
        let dotted = format!(".{suffix}");
        let matching: Vec<u64> = self
            .0
            .iter()
            .filter(|(name, _)| name.ends_with(&dotted))
            .map(|(_, v)| *v)
            .collect();
        if matching.is_empty() {
            return Err(format!("no counter named *.{suffix} is registered"));
        }
        Ok(matching.iter().sum())
    }

    /// The checks every run's registry must pass: no divergent aborts, and
    /// the verifier committed at least what the clients saw commit (and
    /// something at all).
    pub fn check_commits(
        &self,
        label: &str,
        client_committed: u64,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let divergent = self.get("verifier.divergent_aborts")?;
        out.check(
            &format!("{label}: no divergent aborts"),
            divergent == 0,
            format!("verifier.divergent_aborts = {divergent}"),
        );
        let verifier = self.get("verifier.committed_txns")?;
        out.check(
            &format!("{label}: verifier commits cover client commits"),
            client_committed > 0 && verifier >= client_committed,
            format!(
                "verifier.committed_txns = {verifier}, client-counted commits = {client_committed}"
            ),
        );
        Ok(())
    }

    /// Batches the batchers released into ordering (full, timed-out and
    /// global drains), summed over nodes: only a primary releases.
    pub fn batches_released(&self) -> Result<u64, String> {
        Ok(self.sum("batcher.released_full")?
            + self.sum("batcher.released_timeout")?
            + self.sum("batcher.global_drains")?)
    }
}

/// Everything one invocation found.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub checks: Vec<(String, bool, String)>,
    pub notes: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_string(), value.into()));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The full record written under `perfbench/out/`: the result line's
    /// content plus provenance notes and every check.
    pub fn record(&self) -> String {
        let mut out = String::from("{\n  \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {}", quote(k), quote(v));
        }
        out.push_str("\n  },\n  \"checks\": [");
        for (i, (name, ok, detail)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"ok\": {ok}, \"detail\": {}}}",
                quote(name),
                quote(detail)
            );
        }
        let _ = write!(out, "\n  ],\n  \"result\": {}\n}}\n", self.result_line());
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The `q` quantile of `h` in microseconds, interpolated linearly
/// within the bucket that holds its rank. `Histogram::percentile_us`
/// answers that bucket's upper bound, up to 1/64 above the order
/// statistic and the same for every run whose rank lands in the bucket.
pub fn interpolated_us(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    // The value reported for rank `r` (1-based).
    let at = |r: u64| h.percentile_us((r as f64 - 0.5) / n as f64);
    let upper = at(target);
    // The first rank in the bucket: binary search over ranks below.
    let (mut lo, mut hi) = (1, target);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < upper {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > upper {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    // Below 64 µs every bucket holds one value; above, an octave
    // [2^k, 2^(k+1)) splits into 64 buckets 2^(k-6) wide.
    let width = if upper < 64 {
        1
    } else {
        1u64 << (63 - upper.leading_zeros() - 6)
    };
    let lower = upper / width * width;
    // The bucket's ranks spread evenly over its integer values.
    let share = ((target - first) as f64 + 0.5) / (last - first + 1) as f64;
    lower as f64 - 0.5 + (upper + 1 - lower) as f64 * share
}

/// The arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, refusing a zero denominator instead of dividing by it.
pub fn ratio(what: &str, num: f64, den: f64) -> Result<f64, String> {
    if den == 0.0 {
        return Err(format!("{what}: denominator is zero"));
    }
    Ok(num / den)
}
