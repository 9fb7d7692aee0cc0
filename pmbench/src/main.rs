//! `pmbench`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! pmbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!         [--trace-dir DIR] [--smoke] [--out FILE]
//! ```
//!
//! Each workload runs in fresh child processes (re-executions of this
//! binary), one after another, so set-up time and peak memory are per
//! workload and only one simulator thread runs at a time. Untraced, the
//! parent times set-up in several children, runs one measuring child, and
//! prints the end-to-end metrics. Traced (`--trace 1`), it runs an
//! untraced and a traced child, requires their simulated counters to be
//! bit-identical, and prints the per-layer metrics. Every metric is
//! printed as `workload metric value unit`; the last line is the result
//! as one JSON object. The exit status is 0 only when every check passed.

mod probe;
mod work;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use optane_core::MachineMetrics;
use pmbench::report::{find_metric, Report, END_TO_END, PER_LAYER, WORKLOADS};
use pmbench::stats::{median, percentile, sorted, supported_percentile};
use probe::{Layer, NoTrace, Probe, Span, Tracer, Windows};
use work::{Bufmix, Chase, Kv, Stream, Workload};

const USAGE: &str = "usage: pmbench [--workload stream|chase|bufmix|kv] [--seed N] \
[--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke] [--out FILE]";

/// Set-up samples per untraced run; their median is `setup_s`.
const SETUP_SAMPLES: usize = 3;
/// Allowed gap between the layers' summed self time and the traced wall
/// time, as a share of the wall time.
const LAYER_SUM_TOLERANCE: f64 = 0.02;

/// What a child process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Set up, report the set-up time, exit.
    Setup,
    /// Set up and run the timed phase untraced.
    Run,
    /// Set up and run the timed phase traced.
    Trace,
}

impl Role {
    fn as_str(self) -> &'static str {
        match self {
            Role::Setup => "setup",
            Role::Run => "run",
            Role::Trace => "trace",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    smoke: bool,
    out: Option<PathBuf>,
    child: Option<Role>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        trace_dir: PathBuf::from("target/pmbench"),
        smoke: false,
        out: None,
        child: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                a.seconds = s;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--trace-dir" => a.trace_dir = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--child" => {
                a.child = Some(match value()?.as_str() {
                    "setup" => Role::Setup,
                    "run" => Role::Run,
                    "trace" => Role::Trace,
                    v => return Err(format!("unknown child role {v:?}")),
                })
            }
            f => return Err(format!("unknown flag {f:?}")),
        }
    }
    if a.seconds.is_nan() {
        a.seconds = if a.smoke { 0.5 } else { 20.0 };
    }
    if a.out.is_some() && a.workload.is_none() {
        return Err("--out holds one report and needs --workload".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.child {
        Some(role) => child_main(start, &args, role),
        None => parent_main(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pmbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ----- parent -------------------------------------------------------------

fn parent_main(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for name in names {
        let (report, extra) = if args.trace {
            traced_workload(args, name)?
        } else {
            untraced_workload(args, name)?
        };
        for (metric, value, unit) in report.metrics.iter().chain(&extra) {
            println!("{name} {metric} {value} {unit}");
        }
        let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
        println!("{name} fail_ratio {fail_ratio} fraction");
        if let Some(out) = &args.out {
            std::fs::write(out, report.to_file())
                .map_err(|e| format!("writing {}: {e}", out.display()))?;
        }
        println!("{}", report.result_line());
        all_correct &= report.correct;
    }
    Ok(all_correct)
}

/// Runs one child, timing `seconds`, and parses the report it prints
/// last.
fn spawn(args: &Args, name: &str, role: Role, seconds: f64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", role.as_str(), "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--trace-dir")
        .arg(&args.trace_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting {name} {} child: {e}", role.as_str()))?;
    if !out.status.success() {
        return Err(format!(
            "{name} {} child failed: {}",
            role.as_str(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Report::parse(line).map_err(|e| format!("{name} {} child: {e}", role.as_str()))
}

fn metric(r: &Report, name: &str) -> Result<f64, String> {
    r.metric(name)
        .ok_or_else(|| format!("{}: child reported no {name}", r.workload))
}

/// Catalog rows for `defs`, valued by `value`.
fn rows(
    defs: &[pmbench::report::MetricDef],
    mut value: impl FnMut(&str) -> Result<f64, String>,
) -> Result<Vec<(String, f64, String)>, String> {
    defs.iter()
        .map(|d| Ok((d.name.to_string(), value(d.name)?, d.unit.to_string())))
        .collect()
}

/// The child metrics not in `defs`, for the printed lines only.
fn others(r: &Report, defs: &[pmbench::report::MetricDef]) -> Vec<(String, f64, String)> {
    r.metrics
        .iter()
        .filter(|(n, _, _)| !defs.iter().any(|d| d.name == n))
        .cloned()
        .collect()
}

type Outcome = (Report, Vec<(String, f64, String)>);

fn untraced_workload(args: &Args, name: &str) -> Result<Outcome, String> {
    let samples = if args.smoke { 1 } else { SETUP_SAMPLES };
    let mut setups = Vec::with_capacity(samples);
    for _ in 1..samples {
        setups.push(metric(&spawn(args, name, Role::Setup, 0.0)?, "setup_s")?);
    }
    let run = spawn(args, name, Role::Run, args.seconds)?;
    setups.push(metric(&run, "setup_s")?);
    let setup_s = median(&setups);
    let metrics = rows(END_TO_END, |m| {
        if m == "setup_s" {
            Ok(setup_s)
        } else {
            metric(&run, m)
        }
    })?;
    let mut extra = others(&run, END_TO_END);
    extra.push(("setup_samples".into(), samples as f64, "count".into()));
    let report = Report {
        workload: name.to_string(),
        seed: args.seed,
        correct: run.correct && run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    };
    Ok((report, extra))
}

fn traced_workload(args: &Args, name: &str) -> Result<Outcome, String> {
    // The untraced and traced halves share the run's time.
    let base = spawn(args, name, Role::Run, args.seconds / 2.0)?;
    let traced = spawn(args, name, Role::Trace, args.seconds / 2.0)?;
    let mut extra = Vec::new();
    // A host-time probe must not change what is simulated.
    let mut diverged = Vec::new();
    for m in SIM_METRICS {
        if metric(&base, m)?.to_bits() != metric(&traced, m)?.to_bits() {
            diverged.push(m);
        }
    }
    if !diverged.is_empty() {
        eprintln!("pmbench: {name}: traced run diverged in {diverged:?}");
    }
    let overhead = 1.0 - metric(&traced, "ops_per_s")? / metric(&base, "ops_per_s")?;
    let layer_sum = metric(&traced, "layer_sum_share")?;
    let sums_match = (layer_sum - 1.0).abs() <= LAYER_SUM_TOLERANCE;
    if !sums_match {
        eprintln!("pmbench: {name}: layer self times sum to {layer_sum} of the traced wall time");
    }
    let metrics = rows(PER_LAYER, |m| {
        if m == "bench.trace_overhead" {
            Ok(overhead)
        } else {
            metric(&traced, m)
        }
    })?;
    extra.extend(others(&traced, PER_LAYER));
    extra.push((
        "untraced_ops_per_s".into(),
        metric(&base, "ops_per_s")?,
        "op/s".into(),
    ));
    let failed = if diverged.is_empty() {
        base.failed + traced.failed
    } else {
        base.attempted + traced.attempted
    };
    let report = Report {
        workload: name.to_string(),
        seed: args.seed,
        correct: base.correct && traced.correct && failed == 0 && sums_match,
        attempted: base.attempted + traced.attempted,
        failed,
        metrics,
    };
    Ok((report, extra))
}

// ----- child --------------------------------------------------------------

fn child_main(start: Instant, args: &Args, role: Role) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("a child needs --workload")?;
    let report = match name {
        "stream" => child::<Stream>(start, args, role),
        "chase" => child::<Chase>(start, args, role),
        "bufmix" => child::<Bufmix>(start, args, role),
        "kv" => child::<Kv>(start, args, role),
        other => return Err(format!("unknown workload {other:?}")),
    }?;
    println!("{}", report.to_file().trim_end());
    Ok(true)
}

/// Builds a report row, taking the unit from the catalog.
fn row(name: &str, value: f64) -> (String, f64, String) {
    let unit = find_metric(name).map_or("", |m| m.unit);
    (name.to_string(), value, unit.to_string())
}

fn child<W: Workload>(start: Instant, args: &Args, role: Role) -> Result<Report, String> {
    let (mut w, gen_s) = W::setup(args.seed, args.smoke);
    // Warm pass: one untimed full round, so allocator arenas, the media
    // store and the modeled caches and buffers are warm.
    let warm = w.round(&mut NoTrace, &mut Windows::new(W::WINDOW));
    let setup_s = start.elapsed().as_secs_f64();
    let mut metrics = vec![row("setup_s", setup_s), row("workloads.gen_s", gen_s)];
    let mut report = Report {
        workload: W::NAME.to_string(),
        seed: args.seed,
        correct: warm.failed == 0,
        attempted: 0,
        failed: warm.failed,
        metrics: Vec::new(),
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let timed = match role {
        Role::Setup => {
            report.attempted = 1;
            report.metrics = metrics;
            return Ok(report);
        }
        Role::Run => timed_phase(&mut w, &mut NoTrace, budget),
        Role::Trace => {
            let mut tracer = Tracer::new();
            let timed = timed_phase(&mut w, &mut tracer, budget);
            metrics.extend(layer_rows(&tracer, timed.wall));
            std::fs::create_dir_all(&args.trace_dir)
                .map_err(|e| format!("creating {}: {e}", args.trace_dir.display()))?;
            let path = args.trace_dir.join(format!("{}.spans.jsonl", W::NAME));
            let (kept, dropped) = tracer
                .write_spans(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            metrics.push(("spans_kept".into(), kept as f64, "count".into()));
            metrics.push(("spans_dropped".into(), dropped as f64, "count".into()));
            timed
        }
    };
    // Every round does identical work, so each host metric is the best
    // value any round reached: a round that overlaps a burst of load
    // from other tenants of the host runs up to twice as slow.
    let rounds = &timed.rounds;
    let ops_per_s = rounds
        .iter()
        .map(|r| r.ops as f64 / r.secs)
        .fold(0.0, f64::max);
    let lowest_window_pct = |p: f64| {
        rounds
            .iter()
            .map(|r| percentile(&sorted(&r.windows_ms), p))
            .fold(f64::INFINITY, f64::min)
    };
    let windows = rounds.iter().map(|r| r.windows_ms.len()).min().unwrap_or(0);
    metrics.push(row("ops_per_s", ops_per_s));
    metrics.push(row("window_ms_p50", lowest_window_pct(50.0)));
    metrics.push(row("window_ms_p99", lowest_window_pct(99.0)));
    metrics.push(("windows_per_round".into(), windows as f64, "count".into()));
    metrics.push((
        "window_tail_supported".into(),
        supported_percentile(windows).unwrap_or(0.0),
        "percentile".into(),
    ));
    metrics.push(row("peak_rss_mb", peak_rss_mb()?));
    metrics.push(("timed_s".into(), timed.wall.as_secs_f64(), "s".into()));
    metrics.push(("rounds".into(), timed.rounds.len() as f64, "count".into()));
    metrics.extend(timed.sim);
    report.attempted = timed.rounds.iter().map(|r| r.ops).sum();
    report.failed += timed.failed;
    report.correct = report.failed == 0;
    report.metrics = metrics;
    Ok(report)
}

/// One timed round's host measurements.
struct RoundTime {
    secs: f64,
    ops: u64,
    windows_ms: Vec<f64>,
}

struct Timed {
    rounds: Vec<RoundTime>,
    failed: u64,
    wall: Duration,
    sim: Vec<(String, f64, String)>,
}

/// Runs rounds until `budget` of timed wall time has passed (at least
/// one). Correctness checks between rounds are not timed.
fn timed_phase<W: Workload, P: Probe>(w: &mut W, p: &mut P, budget: Duration) -> Timed {
    let mut win = Windows::new(W::WINDOW);
    let mut t = Timed {
        rounds: Vec::new(),
        failed: 0,
        wall: Duration::ZERO,
        sim: Vec::new(),
    };
    w.machine().reset_metrics();
    let clock0 = w.clock();
    while t.rounds.is_empty() || t.wall < budget {
        win.restart();
        let t0 = Instant::now();
        p.enter(Span::Round);
        let r = w.round(p, &mut win);
        p.exit();
        let elapsed = t0.elapsed();
        t.wall += elapsed;
        if t.rounds.is_empty() {
            p.first_round_done();
            let cycles = w.clock() - clock0;
            t.sim = sim_rows(&w.machine().metrics(), cycles, r);
        }
        t.rounds.push(RoundTime {
            secs: elapsed.as_secs_f64(),
            ops: r.ops,
            windows_ms: std::mem::take(&mut win.samples_ms),
        });
        t.failed += r.failed + w.check();
    }
    t.failed += w.finish();
    t
}

/// Simulated metrics: deltas over the first timed round.
const SIM_METRICS: [&str; 25] = [
    "sim_cycles_per_op",
    "datastores.env_calls_per_req",
    "cache.l1_hit_ratio",
    "cache.l2_hit_ratio",
    "cache.l3_hit_ratio",
    "cache.prefetch_fills",
    "memctl.read_bytes",
    "memctl.write_bytes",
    "memctl.rpq_accepts",
    "memctl.wpq_accepts",
    "memctl.wpq_stall_cycles",
    "memctl.rpq_max_depth",
    "memctl.wpq_max_depth",
    "dimm.rb_hit_ratio",
    "dimm.wb_hit_ratio",
    "dimm.ait_hit_ratio",
    "dimm.rmw_reads",
    "dimm.wb_evictions",
    "dimm.periodic_writebacks",
    "dimm.write_absorption",
    "media.read_bytes",
    "media.write_bytes",
    "media.read_amp",
    "media.write_amp",
    "core.persist_epochs",
];

fn sim_rows(mm: &MachineMetrics, cycles: u64, r: work::Round) -> Vec<(String, f64, String)> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let hit = |h: u64, m: u64| ratio(h, h + m);
    let tel = &mm.telemetry;
    let c = mm.cache_total();
    let d = mm.dimm_total();
    let q = mm.queue_total();
    let values: [f64; SIM_METRICS.len()] = [
        ratio(cycles, r.ops),
        ratio(r.env_calls, r.ops),
        hit(c.l1.hits, c.l1.misses),
        hit(c.l2.hits, c.l2.misses),
        hit(c.l3.hits, c.l3.misses),
        (c.l1.prefetch_fills + c.l2.prefetch_fills + c.l3.prefetch_fills) as f64,
        tel.imc.read as f64,
        tel.imc.write as f64,
        q.rpq.accepts as f64,
        q.wpq.accepts as f64,
        q.wpq.stall_cycles as f64,
        q.rpq.max_depth as f64,
        q.wpq.max_depth as f64,
        hit(d.read_buffer.hits, d.read_buffer.misses),
        hit(d.write_buffer.hits, d.write_buffer.misses),
        hit(d.ait.hits, d.ait.misses),
        d.rmw_reads as f64,
        d.evictions as f64,
        d.periodic_writebacks as f64,
        tel.write_absorption().unwrap_or(0.0),
        tel.media.read as f64,
        tel.media.write as f64,
        ratio(tel.media.read, tel.imc.read),
        ratio(tel.media.write, tel.imc.write),
        mm.mt.persist_epochs as f64,
    ];
    SIM_METRICS
        .iter()
        .zip(values)
        .map(|(n, v)| row(n, v))
        .collect()
}

/// Host per-layer metrics from a traced timed phase of `wall` seconds.
fn layer_rows(tr: &Tracer, wall: Duration) -> Vec<(String, f64, String)> {
    let wall_ns = wall.as_nanos() as f64;
    let share = |l: Layer| tr.self_time(l).as_nanos() as f64 / wall_ns;
    let mut out = Vec::new();
    for (span, key) in [
        (Span::Load, "load"),
        (Span::Store, "store"),
        (Span::NtStore, "nt_store"),
        (Span::Flush, "flush"),
        (Span::Fence, "fence"),
    ] {
        let h = tr.hist(span);
        out.push(row(&format!("core.{key}.ns_p50"), h.percentile(50.0)));
        out.push(row(&format!("core.{key}.ns_p99"), h.percentile(99.0)));
        out.push(row(
            &format!("core.{key}.calls"),
            tr.first_round_calls(span) as f64,
        ));
    }
    for (span, key) in [(Span::Get, "get"), (Span::Put, "put")] {
        let h = tr.hist(span);
        out.push(row(
            &format!("datastores.{key}.us_p50"),
            h.percentile(50.0) / 1e3,
        ));
        out.push(row(
            &format!("datastores.{key}.us_p99"),
            h.percentile(99.0) / 1e3,
        ));
    }
    out.push(row("core.busy_share", share(Layer::Core)));
    out.push(row("core.exec_self_share", share(Layer::Exec)));
    out.push(row("datastores.self_share", share(Layer::Datastores)));
    out.push(row("bench.self_share", share(Layer::Bench)));
    let sum: f64 = [Layer::Bench, Layer::Exec, Layer::Datastores, Layer::Core]
        .into_iter()
        .map(share)
        .sum();
    out.push(("layer_sum_share".into(), sum, "fraction".into()));
    out
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string(Path::new("/proc/self/status"))
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
