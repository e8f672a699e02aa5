//! The offline phase every workload serves from: the COVID model fitted on
//! scaled-down data (20 labeled minutes, 2 unlabeled days).

use std::time::Instant;

use skyscraper::offline::{run_offline, FittedModel, OfflineReport};
use skyscraper::Workload;
use vetl_video::Segment;
use vetl_workloads::spec::DataScale;
use vetl_workloads::{PaperWorkload, WorkloadSpec, MACHINES};

use crate::stats::{median, Metric};

/// Seed of the camera behind the fit's recordings. Fixed, so the model and
/// the recorded days are the same for every workload seed; the workload
/// seed chooses which slices of a day each camera replays and when streams
/// come and go.
pub const FIT_SEED: u64 = 7;
pub const SCALE: &str = "fast: COVID fit on 20 min labeled + 2 days unlabeled";

pub struct Fitted {
    pub model: FittedModel,
    pub workload: Box<dyn Workload>,
    /// The camera's online day, recorded after its training data: the
    /// content the in-process workloads replay slices of.
    pub online: Vec<Segment>,
    pub reports: Vec<OfflineReport>,
    /// Wall seconds of each fit.
    pub fit_s: Vec<f64>,
}

impl Fitted {
    /// Fit `reps` times (fits are deterministic; the last model is kept).
    pub fn new(reps: usize) -> Result<Self, String> {
        let spec = WorkloadSpec::build(PaperWorkload::Covid, DataScale::Fast, FIT_SEED);
        let hardware = MACHINES[2].hardware(4e9);
        let mut fit_s = Vec::new();
        let mut reports = Vec::new();
        let mut model = None;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            let (m, report) = run_offline(
                spec.workload.as_ref(),
                &spec.labeled,
                &spec.unlabeled,
                hardware,
                &spec.hyper,
            )
            .map_err(|e| format!("offline fit failed: {e}"))?;
            fit_s.push(t.elapsed().as_secs_f64());
            reports.push(report);
            model = Some(m);
        }
        Ok(Self {
            model: model.expect("at least one fit"),
            workload: spec.workload,
            online: spec.online,
            reports,
            fit_s,
        })
    }

    /// Reference cores one stream's cheapest configuration needs.
    pub fn cores_per_stream(&self) -> f64 {
        let m = &self.model;
        (m.configs[m.cheapest()].work_mean / m.seg_len)
            .ceil()
            .max(1.0)
    }

    /// Median wall seconds per offline step, from [`OfflineReport`].
    pub fn layers(&self) -> Vec<Metric> {
        let step = |name: &str, f: fn(&OfflineReport) -> f64| {
            let xs: Vec<f64> = self.reports.iter().map(f).collect();
            Metric::new(name, "s", median(&xs), xs.len())
        };
        vec![
            step("offline.filter_configs_s", |r| r.filter_configs_secs),
            step("offline.filter_placements_s", |r| r.filter_placements_secs),
            step("offline.categorize_s", |r| r.categorize_secs),
            step("offline.forecast_data_s", |r| r.forecast_data_secs),
            step("offline.train_s", |r| r.train_secs),
        ]
    }
}
