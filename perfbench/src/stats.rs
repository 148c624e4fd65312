//! Percentiles and the metric report (human-readable lines plus the final
//! JSON object).

use std::fmt::Write as _;

/// The nearest-rank percentile `q` (0..=100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values`, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// The arithmetic mean of `values`, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Slices per window for [`sliced`].
const SLICES: usize = 10;
/// Samples a slice needs to count.
const SLICE_MIN_SAMPLES: usize = 10;

/// `stat` computed in each tenth of the window (by send time), then the
/// `across` percentile of those ten values (nearest rank: 25 is the third
/// lowest, 50 the median).  Slices disturbed by other work on the machine
/// then do not move the result.  Falls back to the whole window when no
/// slice has enough samples.
pub fn sliced(
    samples: &[(f64, f64)],
    window_s: f64,
    across: f64,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> f64 {
    let per_slice = per_slice(samples, window_s, &stat);
    match percentile(&per_slice, across) {
        Some(value) => value,
        None => {
            let all: Vec<f64> = samples.iter().map(|(_, value)| *value).collect();
            stat(&all).unwrap_or(0.0)
        }
    }
}

/// Across-slice percentile of the reported latency percentiles: the third
/// lowest of ten slices.  Other tenants of a shared machine steal CPU in
/// bursts of seconds, which raise some slices' latency and never lower any;
/// a code change that slows every request raises every slice.
const LATENCY_ACROSS_SLICES: f64 = 25.0;

/// `stat` of each tenth of the window that has enough samples.
pub fn per_slice(
    samples: &[(f64, f64)],
    window_s: f64,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Vec<f64> {
    let mut slices = vec![Vec::new(); SLICES];
    for &(at, value) in samples {
        let index = ((at / window_s.max(f64::MIN_POSITIVE)) * SLICES as f64) as usize;
        slices[index.min(SLICES - 1)].push(value);
    }
    slices
        .iter()
        .filter(|values| values.len() >= SLICE_MIN_SAMPLES)
        .filter_map(|values| stat(values))
        .collect()
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (timings), `None` for counts and ratios.
    pub samples: Option<usize>,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn add_timing(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(samples),
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|metric| metric.name == name)
    }

    /// Reports a latency distribution (`(send time, ms)` samples): the p50
    /// always, a p90 only from 100 samples, a p99 only from 1,000.  The p50 and p90 are taken per tenth of the window
    /// and reported at [`LATENCY_ACROSS_SLICES`] (see [`sliced`]); the p99
    /// is over the whole window.
    pub fn add_latency(
        &mut self,
        prefix: &str,
        samples: &[(f64, f64)],
        window_s: f64,
        tails: &[u32],
    ) {
        if samples.is_empty() {
            return;
        }
        let n = samples.len();
        let p50 = sliced(samples, window_s, LATENCY_ACROSS_SLICES, |values| {
            percentile(values, 50.0)
        });
        self.add_timing(format!("{prefix}_p50_ms"), p50, "ms", n);
        for &tail in tails {
            let value = match tail {
                90 if n >= 100 => sliced(samples, window_s, LATENCY_ACROSS_SLICES, |values| {
                    percentile(values, 90.0)
                }),
                99 if n >= 1_000 => {
                    let all: Vec<f64> = samples.iter().map(|(_, ms)| *ms).collect();
                    percentile(&all, 99.0).unwrap_or(0.0)
                }
                _ => continue,
            };
            self.add_timing(format!("{prefix}_p{tail}_ms"), value, "ms", n);
        }
    }

    /// One `metric <name> = <value> <unit> (n=<samples>)` line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|metric| match metric.samples {
                Some(n) => format!(
                    "metric {} = {} {} (n={n})",
                    metric.name, metric.value, metric.unit
                ),
                None => format!("metric {} = {} {}", metric.name, metric.value, metric.unit),
            })
            .collect()
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and the
/// named `metrics` (each missing name is an error, so a run never silently
/// drops a metric).
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    report: &Report,
    names: &[&str],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, name) in names.iter().enumerate() {
        let metric = report
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !metric.value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.value, metric.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 99.0), Some(99.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tails_need_enough_samples() {
        let mut report = Report::default();
        let samples: Vec<(f64, f64)> = (0..150).map(|i| (f64::from(i) / 15.0, 1.0)).collect();
        report.add_latency("query", &samples, 10.0, &[90, 99]);
        assert!(report.get("query_p90_ms").is_some());
        assert!(report.get("query_p99_ms").is_none());
    }

    #[test]
    fn sliced_medians_ignore_a_disturbed_minority() {
        // Slices 0-6 answer in 1 ms, slices 7-9 in 50 ms.
        let samples: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let at = f64::from(i) / 100.0;
                (at, if at < 7.0 { 1.0 } else { 50.0 })
            })
            .collect();
        assert_eq!(sliced(&samples, 10.0, 50.0, |v| percentile(v, 50.0)), 1.0);
    }
}
