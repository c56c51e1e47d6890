//! Percentiles and the benchmark's output: one human-readable line per
//! metric, then the machine-readable result object as the last line.

use std::fmt::Write as _;

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for no values.
pub fn percentile(values: &[u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Prints `metrics` under a section label, one per line.
pub fn print_section(section: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{section} {} = {} {}", m.name, m.value, m.unit);
    }
}

/// The result object: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            r#""{}": {{"value": {}, "unit": "{}"}}"#,
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
