//! V-ETL fleet benchmark.
//!
//! ```text
//! vbench --workload <steady_fleet|churn_durable|wire_shared|all> --seed <n>
//!        --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, drives the engine through its public
//! API for about `--seconds`, checks the outcomes, prints every metric with
//! its unit and sample count, and ends with one JSON line: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). See README.md for the workloads and metrics.

mod churn;
mod fit;
mod gen;
mod outcome;
mod probe;
mod report;
mod stats;
mod steady;
mod sys;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use report::Report;
use sys::Stamp;

pub const WORKLOADS: &[&str] = &["steady_fleet", "churn_durable", "wire_shared"];

/// Offline fits per run; `setup_s` takes their median.
pub const FIT_REPS: usize = 9;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space inside the working directory (journals, sockets,
    /// traces).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Seconds of measurement for untraced and traced repetitions. The
    /// untraced run spends its whole budget untraced and adds one traced
    /// repetition to check that recording is invisible; the traced run
    /// splits its budget to measure the tracing overhead.
    pub fn budgets(&self) -> (f64, f64) {
        if self.trace {
            (self.seconds / 2.0, self.seconds / 2.0)
        } else {
            (self.seconds, 0.0)
        }
    }
}

/// Run `f` until `budget` seconds have passed, at least `min` times.
pub fn repeat<T>(
    budget: f64,
    min: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let t = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t.elapsed().as_secs_f64() < budget {
        out.push(f()?);
    }
    Ok(out)
}

/// Per-layer maps of traced repetitions, folded into the report along
/// with the offline steps and the tracing overhead.
pub fn finish_layers(
    report: &mut Report,
    reps: &[BTreeMap<String, f64>],
    offline: Vec<stats::Metric>,
    untraced_rate: f64,
    traced_rate: f64,
) {
    report.layers = report::layers(reps);
    let tails: Vec<stats::Metric> = report
        .e2e
        .iter()
        .filter(|m| report::PER_LAYER.iter().any(|p| p.0 == m.name))
        .cloned()
        .collect();
    for m in offline.into_iter().chain(tails) {
        report.layers.insert(m.name.clone(), m);
    }
    let overhead = 100.0 * (untraced_rate / traced_rate.max(1e-9) - 1.0);
    report.layers.insert(
        "trace_overhead_pct".into(),
        stats::Metric::new("trace_overhead_pct", "%", overhead, reps.len()),
    );
}

/// End-to-end metrics are the result of an untraced run, so a percentile
/// the samples cannot support fails it; a traced run prints them only as
/// context and drops what its shorter budget cannot support.
pub fn e2e_or_skip(
    ctx: &Ctx,
    e2e: Result<Vec<stats::Metric>, String>,
) -> Result<Vec<stats::Metric>, String> {
    match e2e {
        Err(_) if ctx.trace => Ok(Vec::new()),
        other => other,
    }
}

/// Write a traced drive's spans to the output directory.
pub fn write_trace(ctx: &Ctx, workload: &str, tracer: &trace::Tracer) -> Result<(), String> {
    let path = ctx
        .out_dir
        .join(format!("trace-{workload}-seed{}.json", ctx.seed));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    match workload {
        "steady_fleet" => steady::run(ctx),
        "churn_durable" => churn::run(ctx),
        "wire_shared" => wire::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

fn shards(workload: &str) -> usize {
    match workload {
        "churn_durable" => churn::SHARDS,
        "wire_shared" => wire::SHARDS,
        _ => steady::SHARDS,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("vbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir,
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut reports = Vec::new();
    for name in names {
        let stamp = Stamp::collect(ctx.seed, shards(name), fit::SCALE.to_string());
        let report = match run(name, &ctx) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("vbench: {name} failed: {e}");
                std::process::exit(1);
            }
        };
        report::print(name, &stamp, &report, ctx.trace);
        reports.push((name, report));
    }
    let correct = reports.iter().all(|(_, r)| r.correct());
    if let [(_, report)] = reports.as_slice() {
        println!("{}", report::result_line(report, ctx.trace));
    } else {
        let all: Vec<(&str, &Report)> = reports.iter().map(|(n, r)| (*n, r)).collect();
        println!("{}", report::combined_line(&all, ctx.trace));
    }
    if !correct {
        std::process::exit(1);
    }
}
