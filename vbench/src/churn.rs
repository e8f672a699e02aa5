//! `churn_durable`: a bounded active set of cameras with staggered
//! lifetimes, so streams close and newcomers open throughout. Journal plus
//! per-epoch snapshots, short epochs, `push_batch` feeds. Each repetition
//! ends with a simulated crash (the runtime dropped without `finish`),
//! `IngestRuntime::recover`, then `finish`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use skyscraper::obs::Obs;
use skyscraper::offline::FittedModel;
use skyscraper::runtime::{DurabilityConfig, IngestRuntime, RuntimeConfig};
use skyscraper::{MultiOutcome, StreamId, Workload};

use crate::fit::Fitted;
use crate::gen::{ChurnInput, ChurnShape, Op};
use crate::outcome::{fingerprint, Figures};
use crate::probe::Probe;
use crate::report::{end_to_end, Latencies, Report};
use crate::stats::median;
use crate::sys::bytes_written;
use crate::{e2e_or_skip, finish_layers, repeat, write_trace, Ctx, FIT_REPS};

pub const SHAPE: ChurnShape = ChurnShape {
    cameras: 64,
    active: 16,
    batch: 60,
    min_rounds: 20,
    max_rounds: 60,
};
/// 120 s epochs: 60 segments, three batches per stream.
pub const REPLAN_SECS: f64 = 120.0;
pub const SHARDS: usize = 2;
/// An operator scrape of the runtime's metrics every this many operations.
pub const SCRAPE_EVERY: usize = 4;

fn config(fit: &Fitted, obs: Option<Arc<Obs>>, dir: Option<&Path>) -> RuntimeConfig {
    RuntimeConfig {
        shards: SHARDS,
        shared_cloud_budget_usd: 2.0,
        seed: 7,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(SHAPE.active as f64 * fit.cores_per_stream()),
        durability: dir.map(DurabilityConfig::new),
        obs,
        ..RuntimeConfig::default()
    }
}

pub struct Drive {
    pub construct_s: f64,
    /// First operation to the end of the last one (before the crash).
    pub schedule_s: f64,
    pub outcome: MultiOutcome,
    pub probe: Probe,
    pub layers: Option<BTreeMap<String, f64>>,
}

/// Drive the schedule. With a journal directory the drive crashes after
/// the last operation and finishes from `recover`; without one it is the
/// uninterrupted in-memory reference.
pub fn drive(
    fit: &Fitted,
    input: &ChurnInput,
    obs: Option<Arc<Obs>>,
    dir: Option<&Path>,
) -> Result<Drive, String> {
    let err = |e: skyscraper::SkyError| e.to_string();
    let t = Instant::now();
    let mut rt = IngestRuntime::new(config(fit, obs.clone(), dir));
    let construct_s = t.elapsed().as_secs_f64();
    let mut probe = Probe::new(obs.clone());
    let mut ids: Vec<Option<StreamId>> = vec![None; SHAPE.cameras];
    let id =
        |ids: &[Option<StreamId>], cam: usize| ids[cam].ok_or("operation on an unopened camera");
    let bytes0 = bytes_written();
    let t = Instant::now();
    for (n, op) in input.ops.iter().enumerate() {
        match *op {
            Op::Open(cam) => {
                let name = format!("cam-{cam:03}");
                ids[cam] = Some(
                    probe
                        .open(&mut rt, name, &fit.model, fit.workload.as_ref())
                        .map_err(err)?,
                );
            }
            Op::Push { cam, from, len } => probe
                .push_batch(&mut rt, id(&ids, cam)?, input.segs(cam, from, len))
                .map_err(err)?,
            Op::Close(cam) => probe.close(&mut rt, id(&ids, cam)?).map_err(err)?,
        }
        if (n + 1).is_multiple_of(SCRAPE_EVERY) {
            probe.scrape(&rt);
        }
    }
    let schedule_s = t.elapsed().as_secs_f64();
    let journal_bytes = bytes_written() - bytes0;
    let outcome = match dir {
        None => probe.finish(rt).map_err(err)?,
        Some(dir) => {
            drop(rt);
            let (model, workload): (&FittedModel, &dyn Workload) =
                (&fit.model, fit.workload.as_ref());
            let resolve = move |_slot: usize, _id: &str| Some((model, workload));
            let (rt, _) = probe
                .recover(|| IngestRuntime::recover(config(fit, obs, Some(dir)), &resolve))
                .map_err(err)?;
            probe.finish(rt).map_err(err)?
        }
    };
    let mut layers = probe.close_trace();
    if let Some(m) = layers.as_mut() {
        let segs = Figures::of(&outcome).segments.max(1) as f64;
        m.insert("wal.bytes_per_seg".into(), journal_bytes / segs);
    }
    Ok(Drive {
        construct_s,
        schedule_s,
        outcome,
        probe,
        layers,
    })
}

/// A journal directory of its own, emptied before use.
fn fresh_dir(ctx: &Ctx, rep: usize) -> Result<PathBuf, String> {
    let dir = ctx
        .out_dir
        .join(format!("churn-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn durable(
    ctx: &Ctx,
    fit: &Fitted,
    input: &ChurnInput,
    obs: Option<Arc<Obs>>,
    rep: usize,
) -> Result<Drive, String> {
    let dir = fresh_dir(ctx, rep)?;
    let d = drive(fit, input, obs, Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    d
}

fn rate(d: &Drive) -> f64 {
    Figures::of(&d.outcome).segments as f64 / d.schedule_s
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let fit = Fitted::new(FIT_REPS)?;
    let input = ChurnInput::new(&fit.online, ctx.seed, SHAPE);
    let (plain_s, traced_s) = ctx.budgets();
    let mut rep = 0;
    let mut next = || {
        rep += 1;
        rep
    };
    let plain = repeat(plain_s, 2, || durable(ctx, &fit, &input, None, next()))?;
    let traced = if ctx.trace {
        repeat(traced_s, 1, || {
            durable(ctx, &fit, &input, Some(Arc::new(Obs::new())), next())
        })?
    } else {
        Vec::new()
    };
    // The uninterrupted in-memory reference. Untraced runs attach obs to
    // it, so one comparison covers recovery and recording invisibility.
    let reference_obs = (!ctx.trace).then(|| Arc::new(Obs::new()));
    let reference = drive(&fit, &input, reference_obs, None)?;

    let mut report = Report::default();
    let fp = fingerprint(&reference.outcome);
    report.check(
        if ctx.trace {
            "recovered durable runs ≡ uninterrupted in-memory run, bitwise"
        } else {
            "recovered durable runs ≡ uninterrupted in-memory run with obs attached, bitwise \
             (recovery exact, obs invisible)"
        },
        plain.iter().all(|d| fingerprint(&d.outcome) == fp),
    );
    if ctx.trace {
        report.check(
            "traced runs are bitwise identical to untraced (obs invisible)",
            traced.iter().all(|d| fingerprint(&d.outcome) == fp),
        );
    }
    let fig = Figures::of(&reference.outcome);
    report.check("overflows == 0 (Eq. 1 holds)", fig.overflows == 0);
    let fed: usize = input
        .ops
        .iter()
        .map(|op| match op {
            Op::Push { len, .. } => *len,
            _ => 0,
        })
        .sum();
    report.check("every segment settled", fig.segments == fed);
    for d in plain.iter().chain(&traced).chain([&reference]) {
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
    let recover_ms: Vec<f64> = plain
        .iter()
        .map(|d| d.probe.recover_ms.iter().sum::<f64>())
        .collect();
    report.notes.push(format!(
        "{} untraced + {} traced durable repetitions of {} opens ({} active), {} segments; \
         recover median {:.3} s; segs/s per repetition {:.0?}",
        plain.len(),
        traced.len(),
        SHAPE.cameras,
        SHAPE.active,
        fed,
        median(&recover_ms) / 1e3,
        rates
    ));

    if ctx.trace {
        let maps: Vec<_> = traced.iter().filter_map(|d| d.layers.clone()).collect();
        if let Some(tr) = &traced[0].probe.traced {
            write_trace(ctx, "churn_durable", &tr.tracer)?;
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
