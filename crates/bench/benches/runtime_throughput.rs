//! Sharded ingest-runtime throughput: 64 streams, 1 shard vs all-core
//! shards.
//!
//! Fits one COVID model and serves 64 concurrent streams (seed-diverged
//! sessions over the same recording) through an `IngestRuntime`, once with
//! a single shard and once with one shard per detected core, appending a
//! `runtime` section to `BENCH_offline.json`. The two drives must produce
//! bitwise-identical per-stream outcomes — the subsystem's determinism
//! contract — so the speedup column measures pure scheduling, not drift.
//! Each leg is timed [`REPS`] times and reports its median repetition.

use std::time::Instant;

use skyscraper::runtime::{IngestRuntime, RuntimeConfig};
use skyscraper::{IngestOptions, MultiOutcome, StreamId};
use vetl_bench::benchjson::{bench_json_path, jnum, jobj, merge_into};
use vetl_bench::{data_scale, detect_cores, f2, Fitted, Table, SEED};
use vetl_sim::CostModel;
use vetl_workloads::{PaperWorkload, MACHINES};

const STREAMS: usize = 64;
const SERVE_SEGS: usize = 1_800;
const REPLAN_SECS: f64 = 1_800.0;
/// Timed repetitions per leg. One serve takes ~0.1 s, and single serves of
/// the same binary read 0.56M–1.50M segs/s from run to run on a shared
/// 2-core box — too wide for a same-machine A/B to resolve 10 %.
const REPS: usize = 5;

struct Drive {
    admit_secs: f64,
    serve_secs: f64,
    segments: usize,
    out: MultiOutcome,
}

fn drive(fitted: &Fitted, shards: usize, batched: bool) -> Drive {
    let model = &fitted.model;
    let workload = fitted.spec.workload.as_ref();
    let cheapest_rate = model.configs[model.cheapest()].work_mean / model.seg_len;
    // Provision exactly enough cluster for 64 fair shares.
    let total_cores = STREAMS as f64 * cheapest_rate.ceil().max(1.0);
    let mut rt = IngestRuntime::new(RuntimeConfig {
        shards,
        shared_cloud_budget_usd: 2.0,
        cost_model: CostModel::default(),
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(total_cores),
        ..RuntimeConfig::default()
    });

    let t0 = Instant::now();
    let ids: Vec<StreamId> = (0..STREAMS)
        .map(|v| {
            rt.open_stream(
                format!("cam-{v:02}"),
                model,
                workload,
                IngestOptions::default(),
            )
            .expect("admission")
        })
        .collect();
    let admit_secs = t0.elapsed().as_secs_f64();

    let segs = &fitted.spec.online[..SERVE_SEGS.min(fitted.spec.online.len())];
    let t1 = Instant::now();
    if batched {
        // Epoch-sized batches per stream: every mailbox fills in one
        // `push_batch` call and the last stream's batch fires the barrier.
        // All mailboxes stay at equal depth, so one stream's room is
        // everyone's room.
        let mut cursor = 0usize;
        while cursor < segs.len() {
            let room = rt
                .mailbox_room(ids[0])
                .expect("room")
                .min(segs.len() - cursor);
            for id in &ids {
                rt.push_batch(*id, &segs[cursor..cursor + room])
                    .expect("balanced driving never overloads");
            }
            cursor += room;
        }
    } else {
        for seg in segs {
            for id in &ids {
                rt.push(*id, seg).expect("balanced driving never overloads");
            }
        }
    }
    let out = rt.finish().expect("finish");
    let serve_secs = t1.elapsed().as_secs_f64();
    let segments = out.streams.iter().map(|s| s.outcome.segments).sum();
    Drive {
        admit_secs,
        serve_secs,
        segments,
        out,
    }
}

/// [`drive`] `REPS` times and keep the repetition with the median serve
/// time; every repetition must reproduce the first bitwise.
fn median_drive(fitted: &Fitted, shards: usize, batched: bool) -> Drive {
    let mut runs: Vec<Drive> = (0..REPS).map(|_| drive(fitted, shards, batched)).collect();
    for run in &runs[1..] {
        for (a, b) in runs[0].out.streams.iter().zip(&run.out.streams) {
            assert_eq!(
                a.outcome.mean_quality.to_bits(),
                b.outcome.mean_quality.to_bits(),
                "stream {} diverged between repetitions",
                a.workload_id
            );
        }
    }
    runs.sort_by(|a, b| a.serve_secs.total_cmp(&b.serve_secs));
    runs.swap_remove(REPS / 2)
}

fn main() {
    let scale = data_scale();
    let cores = detect_cores();
    let multi_shards = cores.max(2);
    println!(
        "Ingest-runtime throughput ({scale:?} scale, {STREAMS} streams, \
         {cores} cores detected)"
    );
    if cores == 1 {
        println!(
            "note: 1 core detected (set VETL_THREADS to override) — the \
             multi-shard leg measures threading overhead, not speedup"
        );
    }

    let fitted = vetl_bench::fit_on(PaperWorkload::Covid, &MACHINES[2], scale);

    let single = median_drive(&fitted, 1, false);
    let multi = median_drive(&fitted, multi_shards, false);
    let batched = median_drive(&fitted, 1, true);

    // Determinism contract: neither the shard count nor the batched feed
    // may change a single bit.
    assert_eq!(single.segments, multi.segments);
    assert_eq!(single.segments, batched.segments);
    for (a, b) in single.out.streams.iter().zip(&multi.out.streams) {
        assert_eq!(
            a.outcome.mean_quality.to_bits(),
            b.outcome.mean_quality.to_bits(),
            "stream {} diverged across shard counts",
            a.workload_id
        );
        assert_eq!(a.outcome.overflows, 0, "Eq. 1 must hold while serving");
    }
    for (a, b) in single.out.streams.iter().zip(&batched.out.streams) {
        assert_eq!(
            a.outcome.mean_quality.to_bits(),
            b.outcome.mean_quality.to_bits(),
            "stream {} diverged between push and push_batch",
            a.workload_id
        );
        assert_eq!(
            a.outcome.cloud_usd.to_bits(),
            b.outcome.cloud_usd.to_bits(),
            "push_batch must spend identically"
        );
    }

    let rate = |d: &Drive| d.segments as f64 / d.serve_secs.max(1e-9);
    let mut table = Table::new(
        "runtime serving throughput",
        &["leg", "admit s", "serve s", "segs/s"],
    );
    for (leg, d) in [
        ("1 shard", &single),
        (&format!("{multi_shards} shards") as &str, &multi),
        ("1 shard batched", &batched),
    ] {
        table.row(vec![
            leg.to_string(),
            f2(d.admit_secs),
            f2(d.serve_secs),
            format!("{:.0}", rate(d)),
        ]);
    }
    table.print();
    let speedup = rate(&multi) / rate(&single).max(1e-9);
    let batch_speedup = rate(&batched) / rate(&single).max(1e-9);
    println!(
        "\n{} segments × {STREAMS} streams; {multi_shards}-shard vs 1-shard \
         speedup {speedup:.2}x; push_batch vs push {batch_speedup:.2}x \
         (joint quality {:.2})",
        SERVE_SEGS, single.out.joint_quality
    );

    merge_into(
        bench_json_path(),
        "runtime",
        &jobj(&[
            ("streams", jnum(STREAMS as f64)),
            ("segments", jnum(single.segments as f64)),
            ("cores_detected", jnum(cores as f64)),
            ("reps", jnum(REPS as f64)),
            ("admit_secs", jnum(single.admit_secs)),
            ("single_shard_serve_secs", jnum(single.serve_secs)),
            ("single_shard_segs_per_sec", jnum(rate(&single))),
            ("multi_shards", jnum(multi_shards as f64)),
            ("multi_shard_serve_secs", jnum(multi.serve_secs)),
            ("multi_shard_segs_per_sec", jnum(rate(&multi))),
            ("speedup", jnum(speedup)),
            ("batched_serve_secs", jnum(batched.serve_secs)),
            ("single_shard_segs_per_sec_batched", jnum(rate(&batched))),
            ("batch_speedup", jnum(batch_speedup)),
        ]),
    );
}
