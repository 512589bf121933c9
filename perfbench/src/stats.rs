//! Order statistics and the result line.

/// The percentiles the tail metric may report, highest first. It stops at
/// p90: on a shared 2-vCPU host, higher percentiles of a 0.15 ms job are
/// set by preemption from outside the program and do not repeat.
const TAIL_LADDER: [f64; 5] = [90.0, 80.0, 75.0, 60.0, 50.0];

/// Samples a percentile must leave beyond it to be reported as the tail.
pub const TAIL_BEYOND: usize = 10;

/// The `q`-th percentile (0..=100) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest percentile of the ladder that leaves at least
/// [`TAIL_BEYOND`] of `samples` beyond it; the median when there are too
/// few samples for any.
pub fn tail_percentile(samples: u64) -> f64 {
    let n = samples as f64;
    TAIL_LADDER
        .iter()
        .copied()
        .find(|q| n * (1.0 - q / 100.0) >= TAIL_BEYOND as f64)
        .unwrap_or(50.0)
}

/// One metric of the result line.
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its value, printed with every digit.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Renders the last line of the benchmark's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
            let value = if m.value.is_finite() {
                m.value + 0.0
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 90.0);
        assert_eq!(tail_percentile(35), 60.0);
        assert_eq!(tail_percentile(2), 50.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "latency_p50_ms",
                value: 1.25,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
