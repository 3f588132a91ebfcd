//! Sampled time series.
//!
//! The paper's time-series figures (SQL node counts vs. utilization in
//! Fig. 8, throughput/latency through a rolling upgrade in Fig. 9, per-node
//! cores and leases in Fig. 12, per-tenant eCPU in Fig. 13) are regenerated
//! by sampling simulation state on a fixed period and rendering the series
//! as aligned text columns.

use crdb_util::time::SimTime;

/// A named sequence of `(time, value)` samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries { name: name.into(), points: Vec::new() }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Samples must be appended in time order.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(at >= last, "time series must be appended in order");
        }
        self.points.push((at, value));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum value, or 0 for an empty series.
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }
}

/// Renders aligned text columns for a set of series sharing a time axis —
/// the textual analogue of the paper's figures.
pub fn render_table(series: &[TimeSeries], time_unit_secs: f64, unit_label: &str) -> String {
    let mut out = format!("{:>10}", format!("t({unit_label})"));
    for s in series {
        out.push_str(&format!(" {:>14}", s.name()));
    }
    out.push('\n');
    let n = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in 0..n {
        let t =
            series.iter().find_map(|s| s.points().get(i).map(|&(t, _)| t)).unwrap_or(SimTime::ZERO);
        out.push_str(&format!("{:>10.1}", t.as_secs_f64() / time_unit_secs));
        for s in series {
            match s.points().get(i) {
                Some(&(_, v)) => out.push_str(&format!(" {v:>14.3}")),
                None => out.push_str(&format!(" {:>14}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_stats() {
        let mut ts = TimeSeries::new("cpu");
        ts.push(SimTime::from_secs_f64(0.0), 1.0);
        ts.push(SimTime::from_secs_f64(1.0), 3.0);
        ts.push(SimTime::from_secs_f64(2.0), 2.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.max(), 3.0);
    }

    #[test]
    fn render_produces_rows() {
        let mut a = TimeSeries::new("a");
        a.push(SimTime::from_secs_f64(60.0), 1.5);
        let out = render_table(&[a], 60.0, "min");
        assert!(out.contains("a"));
        assert!(out.contains("1.0"));
        assert!(out.contains("1.500"));
    }
}
