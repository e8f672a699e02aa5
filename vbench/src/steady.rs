//! `steady_fleet`: 64 long-lived cameras admitted once, then one `push`
//! per segment, round-robin, through a 2-shard in-process runtime with
//! 1800 s planning epochs, no journal and no dedup.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use skyscraper::obs::Obs;
use skyscraper::runtime::{IngestRuntime, RuntimeConfig};
use skyscraper::MultiOutcome;

use crate::fit::Fitted;
use crate::gen::SteadyInput;
use crate::outcome::{fingerprint, Figures};
use crate::probe::Probe;
use crate::report::{end_to_end, Latencies, Report};
use crate::stats::median;
use crate::{e2e_or_skip, finish_layers, repeat, write_trace, Ctx, FIT_REPS};

pub const CAMERAS: usize = 64;
/// Eight hours of 2 s segments per camera.
pub const SEGS_PER_CAMERA: usize = 14_400;
pub const REPLAN_SECS: f64 = 1_800.0;
pub const SHARDS: usize = 2;
/// An operator scrape of the runtime's metrics every this many pushes.
pub const SCRAPE_EVERY: usize = 1_024;

pub fn config(fit: &Fitted, cameras: usize, obs: Option<Arc<Obs>>) -> RuntimeConfig {
    RuntimeConfig {
        shards: SHARDS,
        shared_cloud_budget_usd: 2.0,
        seed: 7,
        replan_interval_secs: Some(REPLAN_SECS),
        // Exactly enough cluster for every camera's fair share.
        total_cores: Some(cameras as f64 * fit.cores_per_stream()),
        obs,
        ..RuntimeConfig::default()
    }
}

/// One drive: construct, admit every camera, serve, finish.
pub struct Drive {
    pub construct_s: f64,
    /// First push to the end of `finish`.
    pub serve_s: f64,
    pub outcome: MultiOutcome,
    pub probe: Probe,
    /// Per-layer figures (traced drives only).
    pub layers: Option<BTreeMap<String, f64>>,
}

pub fn drive(fit: &Fitted, input: &SteadyInput, obs: Option<Arc<Obs>>) -> Result<Drive, String> {
    let cameras = input.offsets.len();
    let t = Instant::now();
    let mut rt = IngestRuntime::new(config(fit, cameras, obs.clone()));
    let construct_s = t.elapsed().as_secs_f64();
    let mut probe = Probe::new(obs);
    let err = |e: skyscraper::SkyError| e.to_string();
    let ids = (0..cameras)
        .map(|v| {
            probe.open(
                &mut rt,
                format!("cam-{v:02}"),
                &fit.model,
                fit.workload.as_ref(),
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let t = Instant::now();
    let mut pushed = 0usize;
    for i in 0..input.segs_per_camera {
        for (v, id) in ids.iter().enumerate() {
            probe.push(&mut rt, *id, &input.feed(v)[i]).map_err(err)?;
            pushed += 1;
            if pushed.is_multiple_of(SCRAPE_EVERY) {
                probe.scrape(&rt);
            }
        }
    }
    let outcome = probe.finish(rt).map_err(err)?;
    let serve_s = t.elapsed().as_secs_f64();
    Ok(Drive {
        construct_s,
        serve_s,
        outcome,
        layers: probe.close_trace(),
        probe,
    })
}

/// Segments per wall second from the first push to the end of `finish`.
fn rate(d: &Drive) -> f64 {
    d.outcome
        .streams
        .iter()
        .map(|s| s.outcome.segments)
        .sum::<usize>() as f64
        / d.serve_s
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let fit = Fitted::new(FIT_REPS)?;
    let input = SteadyInput::new(&fit.online, ctx.seed, CAMERAS, SEGS_PER_CAMERA);
    let (plain_s, traced_s) = ctx.budgets();
    // Two drives admit 128 streams: enough for an admission p90.
    let plain = repeat(plain_s, 2, || drive(&fit, &input, None))?;
    let traced = repeat(traced_s, 1, || {
        drive(&fit, &input, Some(Arc::new(Obs::new())))
    })?;

    let mut report = Report::default();
    let fp = fingerprint(&plain[0].outcome);
    report.check(
        "untraced repetitions are bitwise identical",
        plain.iter().all(|d| fingerprint(&d.outcome) == fp),
    );
    report.check(
        "traced run is bitwise identical to untraced (obs invisible)",
        traced.iter().all(|d| fingerprint(&d.outcome) == fp),
    );
    let fig = Figures::of(&plain[0].outcome);
    report.check("overflows == 0 (Eq. 1 holds)", fig.overflows == 0);
    report.check(
        "every segment settled",
        fig.segments == CAMERAS * SEGS_PER_CAMERA,
    );
    for d in plain.iter().chain(&traced) {
        report.attempted += d.probe.attempted;
        report.failed += d.probe.failed;
    }

    let construct = median(&plain.iter().map(|d| d.construct_s).collect::<Vec<_>>());
    let setup: Vec<f64> = fit.fit_s.iter().map(|f| f + construct).collect();
    let rates: Vec<f64> = plain.iter().map(rate).collect();
    let mut lat = Latencies::default();
    for d in &plain {
        lat.absorb(&d.probe.lat);
    }
    report.e2e = e2e_or_skip(ctx, end_to_end(&setup, &rates, &mut lat, &fig))?;
    report.notes.push(format!(
        "{} untraced + {} traced drives of {CAMERAS} cameras x {SEGS_PER_CAMERA} segments; \
         segs/s per drive {:.0?}",
        plain.len(),
        traced.len(),
        rates
    ));

    if ctx.trace {
        let maps: Vec<_> = traced.iter().filter_map(|d| d.layers.clone()).collect();
        if let Some(tr) = &traced[0].probe.traced {
            write_trace(ctx, "steady_fleet", &tr.tracer)?;
        }
        let traced_rates: Vec<f64> = traced.iter().map(rate).collect();
        finish_layers(
            &mut report,
            &maps,
            fit.layers(),
            median(&rates),
            median(&traced_rates),
        );
    }
    Ok(report)
}
