//! Metric catalogue, end-to-end assembly and output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::outcome::Figures;
use crate::stats::{median, Metric, Reservoir};
use crate::sys::{peak_rss_mb, Stamp};

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them (see README.md for the per-workload meaning).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_segs_per_s", "1/s"),
    ("quality_mean", "score"),
    ("cloud_usd", "usd"),
    ("work_core_s_per_seg", "core_s/seg"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. Layers every workload passes
/// through are in seconds; layers only some workloads use are a share of
/// the workload's wall time, so a bypassed layer reads 0 % rather than a
/// zero duration.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("offline.filter_configs_s", "s"),
    ("offline.filter_placements_s", "s"),
    ("offline.categorize_s", "s"),
    ("offline.forecast_data_s", "s"),
    ("offline.train_s", "s"),
    ("admit.calls", "count"),
    ("admit.refused", "count"),
    ("admit.busy_s", "s"),
    ("admit.barrier_settle_s", "s"),
    ("admit.lp_warm_s", "s"),
    ("admit.lp_cold_s", "s"),
    ("admit.resplit_s", "s"),
    ("push.enqueue_calls", "count"),
    ("push.enqueue_pct", "%"),
    ("push.dispatch_calls", "count"),
    ("push.dispatch_pct", "%"),
    ("dispatch.batch_s", "s"),
    ("session.push_s", "s"),
    ("session.pushes", "count"),
    ("mailbox.drain_s", "s"),
    ("mailbox.backpressure", "count"),
    ("serve.barrier_settle_s", "s"),
    ("serve.lp_warm_s", "s"),
    ("finish_s", "s"),
    ("runtime.snapshot_self_pct", "%"),
    ("lp.solves_warm", "count"),
    ("lp.solves_cold", "count"),
    ("wal.appends", "count"),
    ("wal.append_pct", "%"),
    ("wal.fsyncs", "count"),
    ("wal.fsync_pct", "%"),
    ("wal.bytes_per_seg", "B/seg"),
    ("recover_pct", "%"),
    ("recover.replayed_records", "count"),
    ("dedupe.lookups", "count"),
    ("dedupe.hits", "count"),
    ("dedupe.stale", "count"),
    ("dedupe.hit_ratio", "ratio"),
    ("dedupe.lookup_pct", "%"),
    ("dedupe.work_saved_core_s", "core_s"),
    ("net.connect_pct", "%"),
    ("net.requests", "count"),
    ("net.rtt_pct", "%"),
    ("net.service_pct", "%"),
    ("net.wire_pct", "%"),
    ("net.retries", "count"),
    ("net.refed_segments", "count"),
    ("scrape.rtt_s", "s"),
    ("admit.ms_p50", "ms"),
    ("admit.ms_p90", "ms"),
    ("push.ms_p50", "ms"),
    ("push.ms_p99", "ms"),
    ("scrape.ms_p50", "ms"),
    ("scrape.ms_p90", "ms"),
    ("gen.lag_p99_pct", "%"),
    ("gen.lag_max_pct", "%"),
    ("unattributed_share", "%"),
    ("trace_overhead_pct", "%"),
];

/// `(share, seconds)` pairs: the share is the seconds over the drive's wall.
const SHARES: &[(&str, &str)] = &[
    ("push.enqueue_pct", "push.enqueue_s"),
    ("push.dispatch_pct", "push.dispatch_s"),
    ("runtime.snapshot_self_pct", "runtime.snapshot_self_s"),
    ("wal.append_pct", "wal.append_s"),
    ("wal.fsync_pct", "wal.fsync_s"),
    ("recover_pct", "recover_s"),
    ("dedupe.lookup_pct", "dedupe.lookup_s"),
    ("net.connect_pct", "net.connect_s"),
    ("net.rtt_pct", "net.rtt_s"),
    ("net.service_pct", "net.service_s"),
    ("net.wire_pct", "net.wire_s"),
];

/// Above this share of wall time outside every span, the breakdown no
/// longer explains the run and the report says so.
pub const UNATTRIBUTED_FLAG_PCT: f64 = 10.0;

/// Everything one workload run produced.
#[derive(Default)]
pub struct Report {
    pub e2e: Vec<Metric>,
    /// Per-layer values, by name (every name the run derived, including
    /// the seconds behind each share).
    pub layers: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.1)
    }
}

/// Latency samples of one run, milliseconds, pooled across repetitions.
pub struct Latencies {
    pub admit: Reservoir,
    pub push: Reservoir,
    pub scrape: Reservoir,
}

impl Default for Latencies {
    fn default() -> Self {
        Self {
            admit: Reservoir::new(ALL),
            push: Reservoir::new(PUSH_SAMPLE),
            scrape: Reservoir::new(ALL),
        }
    }
}

impl Latencies {
    pub fn absorb(&mut self, other: &Latencies) {
        self.admit.absorb(&other.admit);
        self.push.absorb(&other.push);
        self.scrape.absorb(&other.scrape);
    }
}

/// Admissions and scrapes are few enough to keep every one.
const ALL: usize = 1 << 20;
/// Pushes kept per repetition: a uniform sample, so the harness's memory
/// does not grow with the number of pushes it times.
const PUSH_SAMPLE: usize = 1 << 15;

/// Assemble the end-to-end metrics, plus the admission, push and scrape
/// latencies. The latencies are measured with tracing off like the rest but
/// carried as per-layer metrics: on a small shared machine their spread, or
/// their drift between sets of runs, is wider than any bound an end-to-end
/// metric may have.
pub fn end_to_end(
    setup_s: &[f64],
    rates: &[f64],
    lat: &mut Latencies,
    fig: &Figures,
) -> Result<Vec<Metric>, String> {
    Ok(vec![
        Metric::new("setup_s", "s", median(setup_s), setup_s.len()),
        Metric::new("ingest_segs_per_s", "1/s", median(rates), rates.len()),
        lat.admit.metric("admit.ms_p50", "ms", 50.0)?,
        lat.admit.metric("admit.ms_p90", "ms", 90.0)?,
        lat.push.metric("push.ms_p50", "ms", 50.0)?,
        lat.push.metric("push.ms_p99", "ms", 99.0)?,
        lat.scrape.metric("scrape.ms_p50", "ms", 50.0)?,
        lat.scrape.metric("scrape.ms_p90", "ms", 90.0)?,
        Metric::new("quality_mean", "score", fig.quality_mean, fig.segments),
        Metric::new("cloud_usd", "usd", fig.cloud_usd, fig.segments),
        Metric::new(
            "work_core_s_per_seg",
            "core_s/seg",
            fig.work_core_s_per_seg,
            fig.segments,
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb(), 1),
    ])
}

/// Median per name across traced repetitions, plus the derived shares and
/// ratios; names a workload never touches read 0.
pub fn layers(reps: &[BTreeMap<String, f64>]) -> BTreeMap<String, Metric> {
    let mut names: Vec<&String> = reps.iter().flat_map(|r| r.keys()).collect();
    names.sort();
    names.dedup();
    let mut med: BTreeMap<String, f64> = names
        .into_iter()
        .map(|k| {
            let xs: Vec<f64> = reps
                .iter()
                .map(|r| r.get(k).copied().unwrap_or(0.0))
                .collect();
            (k.clone(), median(&xs))
        })
        .collect();
    let wall = med.get("wall_s").copied().unwrap_or(0.0).max(1e-9);
    for (share, secs) in SHARES {
        let v = med.get(*secs).copied().unwrap_or(0.0);
        med.insert(share.to_string(), 100.0 * v / wall);
    }
    let lookups = med.get("dedupe.lookups").copied().unwrap_or(0.0);
    let hits = med.get("dedupe.hits").copied().unwrap_or(0.0);
    med.insert(
        "dedupe.hit_ratio".into(),
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    let n = reps.len();
    let unit = |k: &str| {
        PER_LAYER
            .iter()
            .find(|p| p.0 == k)
            .map(|p| p.1)
            .unwrap_or(if k.ends_with("_s") {
                "s"
            } else if k.contains("_ms") {
                "ms"
            } else {
                ""
            })
    };
    let mut out: BTreeMap<String, Metric> = med
        .into_iter()
        .map(|(k, v)| (k.clone(), Metric::new(k.as_str(), unit(&k), v, n)))
        .collect();
    for (name, unit) in PER_LAYER {
        out.entry(name.to_string())
            .or_insert_with(|| Metric::new(*name, unit, 0.0, n));
    }
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The last line of output: exactly the declared metrics of the mode.
pub fn result_line(report: &Report, traced: bool) -> String {
    combined_line(&[("", report)], traced)
}

/// One result line over several workloads' reports; each metric name is
/// prefixed with its workload's (`prefix/name`) when the prefix is set.
pub fn combined_line(reports: &[(&str, &Report)], traced: bool) -> String {
    let names = if traced { PER_LAYER } else { END_TO_END };
    let correct = reports.iter().all(|(_, r)| r.correct());
    let attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reports.iter().map(|(_, r)| r.failed).sum();
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    let mut first = true;
    for (prefix, report) in reports {
        for (name, unit) in names {
            let value = if traced {
                report.layers.get(*name).map(|m| m.value)
            } else {
                report.e2e.iter().find(|m| m.name == *name).map(|m| m.value)
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let key = if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}/{name}")
            };
            let _ = write!(
                out,
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value.unwrap_or(f64::NAN))
            );
        }
    }
    out.push_str("}}");
    out
}

/// Human-readable report: stamp, checks, and every metric with its unit
/// and sample count.
pub fn print(workload: &str, stamp: &Stamp, report: &Report, traced: bool) {
    println!(
        "== {workload} ({}) ==",
        if traced { "traced" } else { "untraced" }
    );
    println!("stamp: {}", stamp.line());
    for note in &report.notes {
        println!("note: {note}");
    }
    for (what, ok) in &report.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "operations: attempted={} failed={} failed_frac={failed_frac:.6}",
        report.attempted, report.failed
    );
    let line = |m: &Metric| {
        println!(
            "metric {:<30} {:>16.6} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        )
    };
    report.e2e.iter().for_each(line);
    report
        .layers
        .values()
        .filter(|m| report.e2e.iter().all(|e| e.name != m.name))
        .for_each(line);
    if let Some(u) = report.layers.get("unattributed_share") {
        if u.value > UNATTRIBUTED_FLAG_PCT {
            println!(
                "FLAG: {:.1} % of {workload}'s wall time is outside every span \
                 (flag above {UNATTRIBUTED_FLAG_PCT} %)",
                u.value
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside vbench/");
        for w in crate::WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{name} [{unit}] missing");
        }
        let declared = text.matches("{\"name\": ").count();
        assert_eq!(
            declared,
            crate::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a name the benchmark does not report"
        );
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut report = Report::default();
        report.check("ok", true);
        report.e2e = END_TO_END
            .iter()
            .map(|(n, u)| Metric::new(*n, u, 1.5, 1))
            .collect();
        report.layers = layers(&[BTreeMap::new()]);
        for (traced, names) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = result_line(&report, traced);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
            assert_eq!(line.matches("\"unit\": ").count(), names.len());
            for (name, unit) in names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"}}")), "{unit}");
            }
            assert!(!line.contains("null"), "every metric has a value");
        }
    }

    #[test]
    fn shares_divide_seconds_by_wall() {
        let rep: BTreeMap<String, f64> = [("wall_s", 4.0), ("wal.append_s", 1.0)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let out = layers(&[rep]);
        assert_eq!(out["wal.append_pct"].value, 25.0);
        assert_eq!(out["net.rtt_pct"].value, 0.0, "a bypassed layer reads 0 %");
        assert_eq!(out["wal.append_pct"].unit, "%");
    }
}
