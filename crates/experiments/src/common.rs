//! Shared experiment infrastructure: result containers, table rendering,
//! CSV output, scale handling, and the experiment error type.

use std::fmt;

use simbase::Cycles;

/// A request for `simwatch` sampled metrics, threaded through experiment
/// parameters. Experiments that honour it poll a
/// [`MachineSampler`](optane_core::MachineSampler) from their measurement
/// loop and surface the time series via [`ExpResult::metrics_jsonl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSpec {
    /// Sampling interval in simulated cycles.
    pub interval: Cycles,
}

/// A typed experiment failure: the run could not produce results. Runner
/// `run` functions return this instead of panicking so the `repro` binary
/// can report the problem and exit nonzero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpError {
    /// The parameter set cannot drive a meaningful run (empty sweep,
    /// zero iteration count, …).
    BadParams(String),
    /// A result the caller relies on is absent (missing curve, missing
    /// sample point). Replaces `unwrap()` on result lookups so a shape
    /// change in an experiment's output surfaces as a typed failure.
    MissingData(String),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::BadParams(why) => write!(f, "bad experiment parameters: {why}"),
            ExpError::MissingData(what) => write!(f, "missing experiment data: {what}"),
        }
    }
}

impl std::error::Error for ExpError {}

/// One labelled curve: `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Legend label, matching the paper's figure legends.
    pub label: String,
    /// Data points in sweep order.
    pub points: Vec<(f64, f64)>,
}

impl Curve {
    /// Creates an empty curve.
    pub fn new(label: impl Into<String>) -> Self {
        Curve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Returns the y value at the given x, if sampled.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// Like [`Curve::y_at`], but a missing sample is a typed error naming
    /// the curve and the x value.
    pub fn require_y(&self, x: f64) -> Result<f64, ExpError> {
        self.y_at(x).ok_or_else(|| {
            ExpError::MissingData(format!("curve `{}` has no sample at x={x}", self.label))
        })
    }

    /// Returns the maximum y value.
    pub fn y_max(&self) -> f64 {
        self.points.iter().map(|&(_, y)| y).fold(f64::MIN, f64::max)
    }

    /// Returns the minimum y value.
    pub fn y_min(&self) -> f64 {
        self.points.iter().map(|&(_, y)| y).fold(f64::MAX, f64::min)
    }
}

/// A reproduced figure or table: a set of curves over a common x axis.
#[derive(Debug, Clone)]
pub struct ExpResult {
    /// Experiment id, e.g. "E1 / Figure 2".
    pub name: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The curves.
    pub curves: Vec<Curve>,
    /// `simwatch` time series (JSON lines), present when the experiment
    /// was asked to sample metrics (see [`MetricsSpec`]).
    pub metrics_jsonl: Option<String>,
    /// Free-form notes rendered under the table (queue occupancy, …).
    pub notes: Vec<String>,
}

impl ExpResult {
    /// Creates an empty result.
    pub fn new(
        name: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        ExpResult {
            name: name.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            curves: Vec::new(),
            metrics_jsonl: None,
            notes: Vec::new(),
        }
    }

    /// Finds a curve by label.
    pub fn curve(&self, label: &str) -> Option<&Curve> {
        self.curves.iter().find(|c| c.label == label)
    }

    /// Like [`ExpResult::curve`], but a missing curve is a typed error
    /// listing the labels that do exist.
    pub fn require_curve(&self, label: &str) -> Result<&Curve, ExpError> {
        self.curve(label).ok_or_else(|| {
            let have: Vec<&str> = self.curves.iter().map(|c| c.label.as_str()).collect();
            ExpError::MissingData(format!(
                "result `{}` has no curve `{label}` (curves: {have:?})",
                self.name
            ))
        })
    }

    /// Renders an aligned text table (x column plus one column per curve).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.name));
        let mut xs: Vec<f64> = self
            .curves
            .iter()
            .flat_map(|c| c.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        // Header.
        out.push_str(&format!("{:>14}", self.x_label));
        for c in &self.curves {
            out.push_str(&format!("  {:>18}", truncate(&c.label, 18)));
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&format!("{:>14}", format_num(x)));
            for c in &self.curves {
                match c.y_at(x) {
                    Some(y) => out.push_str(&format!("  {:>18}", format_num(y))),
                    None => out.push_str(&format!("  {:>18}", "-")),
                }
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Renders CSV (`x,label1,label2,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for c in &self.curves {
            out.push(',');
            out.push_str(&c.label.replace(',', ";"));
        }
        out.push('\n');
        let mut xs: Vec<f64> = self
            .curves
            .iter()
            .flat_map(|c| c.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        for &x in &xs {
            out.push_str(&format!("{x}"));
            for c in &self.curves {
                out.push(',');
                if let Some(y) = c.y_at(x) {
                    out.push_str(&format!("{y}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

pub(crate) fn format_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 {
        format!("{:.3e}", v)
    } else if v.fract().abs() < 1e-9 && v.abs() < 1e9 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders a queue-occupancy summary line for an experiment's notes:
/// the §2.4 RPQ/WPQ pressure view of a whole run.
pub fn occupancy_note(q: &optane_core::ImcQueueStats) -> String {
    format!(
        "queue occupancy: rpq max depth {}, wpq max depth {}, wpq time-at-full {} cycles \
         over {} writes",
        q.rpq.max_depth, q.wpq.max_depth, q.wpq.stall_cycles, q.wpq.accepts
    )
}

/// Formats a byte count like the paper's axes (4KB, 16MB, 1GB).
pub fn format_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{}GB", b >> 30)
    } else if b >= 1 << 20 {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Logarithmic working-set sweep from `lo` to `hi` (powers of 4 by
/// default, matching the paper's 4KB → 1GB axes).
pub fn log_sweep(lo: u64, hi: u64, per_decade: u32) -> Vec<u64> {
    let mut out = Vec::new();
    let ratio = 4f64.powf(1.0 / per_decade as f64);
    let mut v = lo as f64;
    while v <= hi as f64 * 1.001 {
        let r = (v.round() as u64).next_multiple_of(256);
        if out.last() != Some(&r) {
            out.push(r);
        }
        v *= ratio;
    }
    out
}

/// Simulated operations per simulated megacycle: the throughput figure
/// of every `BENCH_*.json`. A pure function of the instruction stream,
/// so CI compares it byte for byte. Returns `0.0` when `sim_cycles` is
/// zero (a run that never advanced the clock has no meaningful rate).
pub fn ops_per_mcycle(sim_ops: u64, sim_cycles: u64) -> f64 {
    let mcycles = sim_cycles as f64 / 1e6;
    if mcycles > 0.0 {
        sim_ops as f64 / mcycles
    } else {
        0.0
    }
}

/// Renders a single-scenario `BENCH_*.json` (the cluster and rebalance
/// shape: flat object, no `scenarios` array).
pub fn render_flat(experiment: &str, sim_ops: u64, sim_cycles: u64) -> String {
    format!(
        "{{\n  \"experiment\": \"{}\",\n  \"sim_ops\": {},\n  \"sim_cycles\": {},\n  \"sim_ops_per_mcycle\": {:.3}\n}}\n",
        experiment,
        sim_ops,
        sim_cycles,
        ops_per_mcycle(sim_ops, sim_cycles)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_per_mcycle_is_plain_arithmetic() {
        // 3_000 ops over 2_000_000 cycles = 1500 ops/Mcycle.
        assert!((ops_per_mcycle(3_000, 2_000_000) - 1_500.0).abs() < 1e-9);
        // Zero-cycle guard: no rate, not a NaN/inf.
        assert_eq!(ops_per_mcycle(3_000, 0), 0.0);
        assert_eq!(ops_per_mcycle(0, 0), 0.0);
    }

    #[test]
    fn curve_queries() {
        let mut c = Curve::new("a");
        c.push(1.0, 10.0);
        c.push(2.0, 30.0);
        assert_eq!(c.y_at(2.0), Some(30.0));
        assert_eq!(c.y_at(3.0), None);
        assert_eq!(c.y_max(), 30.0);
        assert_eq!(c.y_min(), 10.0);
    }

    #[test]
    fn table_renders_all_points() {
        let mut r = ExpResult::new("T", "x", "y");
        let mut a = Curve::new("a");
        a.push(1.0, 2.0);
        let mut b = Curve::new("b");
        b.push(1.0, 3.0);
        b.push(2.0, 4.0);
        r.curves = vec![a, b];
        let t = r.to_table();
        assert!(t.contains("# T"));
        assert!(t.contains('2'));
        assert!(t.contains('-'), "missing samples are dashes");
    }

    #[test]
    fn csv_round_trips_structure() {
        let mut r = ExpResult::new("T", "x", "y");
        let mut a = Curve::new("a");
        a.push(1.0, 2.5);
        r.curves = vec![a];
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a");
        assert_eq!(lines[1], "1,2.5");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(4096), "4KB");
        assert_eq!(format_bytes(16 << 20), "16MB");
        assert_eq!(format_bytes(1 << 30), "1GB");
        assert_eq!(format_bytes(100), "100B");
    }

    #[test]
    fn exp_error_displays_the_reason() {
        let e = ExpError::BadParams("iters must be nonzero".into());
        assert_eq!(
            e.to_string(),
            "bad experiment parameters: iters must be nonzero"
        );
    }

    #[test]
    fn log_sweep_is_monotonic_and_bounded() {
        let s = log_sweep(4096, 1 << 26, 2);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.first().unwrap() >= 4096);
        assert!(*s.last().unwrap() <= (1 << 26) + 256);
        assert!(s.len() > 8);
    }
}
