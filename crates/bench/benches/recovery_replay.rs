//! Durability cost and recovery speed of the ingest runtime.
//!
//! Serves N concurrent streams through an `IngestRuntime` three ways —
//! in-memory, journaled (WAL), and journaled + checkpoint snapshots — then
//! crashes the durable runs mid-serve and measures recovery:
//!
//! * **WAL write overhead per segment** — the durability tax on the ingest
//!   hot path (journaled vs in-memory serve time).
//! * **Replay throughput** — segments/s when recovery re-drives the whole
//!   journal through the ingest path (no snapshot), vs the cold rate over
//!   the same event sequence. Replay re-runs *admissions* as well as
//!   segments, so the cold denominator includes admission time — at this
//!   scale the eight joint admission plans cost as much as tens of
//!   thousands of segment pushes, and leaving them out of one side only
//!   would make the ratio meaningless.
//! * **Snapshot recovery** — wall time to restore from a checkpoint plus
//!   the journal tail.
//!
//! All three drives must produce bitwise-identical per-stream outcomes —
//! durability must not change a single bit — and the recovered run must
//! match the uninterrupted one. Appends a `recovery` section to
//! `BENCH_offline.json`.

use std::path::PathBuf;
use std::time::Instant;

use skyscraper::runtime::{DurabilityConfig, IngestRuntime, RuntimeConfig};
use skyscraper::{IngestOptions, MultiOutcome, StreamId};
use vetl_bench::benchjson::{bench_json_path, jnum, jobj, merge_into};
use vetl_bench::{data_scale, f2, Fitted, Table, SEED};
use vetl_sim::CostModel;
use vetl_workloads::{PaperWorkload, MACHINES};

const STREAMS: usize = 8;
const SERVE_SEGS: usize = 1_200;
const REPLAN_SECS: f64 = 600.0;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("vetl-bench-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(fitted: &Fitted, dir: Option<&PathBuf>, ckpt_epochs: usize) -> RuntimeConfig {
    let model = &fitted.model;
    let cheapest_rate = model.configs[model.cheapest()].work_mean / model.seg_len;
    RuntimeConfig {
        shards: 1,
        shared_cloud_budget_usd: 1.0,
        cost_model: CostModel::default(),
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(STREAMS as f64 * cheapest_rate.ceil().max(1.0)),
        durability: dir.map(|d| DurabilityConfig {
            dir: d.clone(),
            checkpoint_every_epochs: ckpt_epochs,
        }),
        ..RuntimeConfig::default()
    }
}

fn open_all<'a>(rt: &mut IngestRuntime<'a>, fitted: &'a Fitted) -> Vec<StreamId> {
    (0..STREAMS)
        .map(|v| {
            rt.open_stream(
                format!("cam-{v:02}"),
                &fitted.model,
                fitted.spec.workload.as_ref(),
                IngestOptions::default(),
            )
            .expect("admission")
        })
        .collect()
}

/// Serve `range` rounds; returns wall seconds.
fn serve(
    rt: &mut IngestRuntime<'_>,
    ids: &[StreamId],
    segs: &[vetl_video::Segment],
    range: std::ops::Range<usize>,
) -> f64 {
    let t = Instant::now();
    for i in range {
        for id in ids {
            rt.push(*id, &segs[i]).expect("push");
        }
    }
    t.elapsed().as_secs_f64()
}

/// Serve `range` rounds through `push_batch`, one epoch-sized batch per
/// stream per pass. Round-robin driving keeps every mailbox at the same
/// depth, so one stream's remaining room is everyone's. The journal then
/// carries one `Segs` run record per batch, which recovery replays back
/// through the same write path — the replay the `recover (replay)` leg
/// measures.
fn serve_batched(
    rt: &mut IngestRuntime<'_>,
    ids: &[StreamId],
    segs: &[vetl_video::Segment],
    range: std::ops::Range<usize>,
) -> f64 {
    let t = Instant::now();
    let mut cursor = range.start;
    while cursor < range.end {
        let room = rt
            .mailbox_room(ids[0])
            .expect("room")
            .min(range.end - cursor);
        for id in ids {
            rt.push_batch(*id, &segs[cursor..cursor + room])
                .expect("balanced driving never overloads");
        }
        cursor += room;
    }
    t.elapsed().as_secs_f64()
}

fn assert_bitwise(label: &str, a: &MultiOutcome, b: &MultiOutcome) {
    assert_eq!(a.streams.len(), b.streams.len(), "{label}");
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.outcome.segments, y.outcome.segments, "{label}");
        assert_eq!(
            x.outcome.mean_quality.to_bits(),
            y.outcome.mean_quality.to_bits(),
            "{label}: stream {} diverged",
            x.workload_id
        );
        assert_eq!(
            x.outcome.cloud_usd.to_bits(),
            y.outcome.cloud_usd.to_bits(),
            "{label}"
        );
    }
}

fn main() {
    let scale = data_scale();
    println!("Durability & recovery ({scale:?} scale, {STREAMS} streams, {SERVE_SEGS} rounds)");
    let fitted = vetl_bench::fit_on(PaperWorkload::Covid, &MACHINES[2], scale);
    let segs = &fitted.spec.online[..SERVE_SEGS.min(fitted.spec.online.len())];
    let n = segs.len();
    let total_segs = STREAMS * n;

    // In-memory baseline. Admission is timed separately: the replay leg
    // re-runs admissions too, so the replay-vs-cold ratio compares full
    // event sequences.
    let mut rt = IngestRuntime::new(config(&fitted, None, 1));
    let t_admit = Instant::now();
    let ids = open_all(&mut rt, &fitted);
    let mem_admit_secs = t_admit.elapsed().as_secs_f64();
    let mem_secs = serve(&mut rt, &ids, segs, 0..n);
    let mem_out = rt.finish().expect("finish");

    // Journal-only durable serve (every accepted segment hits the WAL).
    let dir_wal = tmpdir("wal");
    let mut rt = IngestRuntime::new(config(&fitted, Some(&dir_wal), 0));
    let ids = open_all(&mut rt, &fitted);
    let wal_secs = serve(&mut rt, &ids, segs, 0..n);
    let wal_out = rt.finish().expect("finish");
    assert_bitwise("journaled == in-memory", &mem_out, &wal_out);

    // Journal + snapshots at every epoch.
    let dir_ckpt = tmpdir("ckpt");
    let mut rt = IngestRuntime::new(config(&fitted, Some(&dir_ckpt), 1));
    let ids = open_all(&mut rt, &fitted);
    let ckpt_secs = serve(&mut rt, &ids, segs, 0..n);
    let ckpt_out = rt.finish().expect("finish");
    assert_bitwise("snapshotted == in-memory", &mem_out, &ckpt_out);

    // Crash mid-serve with journal-only durability: recovery replays the
    // whole journal through the ingest path.
    // Mid-epoch crash point (not a checkpoint boundary), so snapshot
    // recovery has a real journal tail to replay.
    let crash_round = n / 2 + 77;
    let dir_replay = tmpdir("replay");
    {
        let mut rt = IngestRuntime::new(config(&fitted, Some(&dir_replay), 0));
        let ids = open_all(&mut rt, &fitted);
        // Batched serve: the journal carries one `Segs` record per
        // epoch-sized run, so replay re-drives the write path once per run
        // instead of once per segment.
        let _ = serve_batched(&mut rt, &ids, segs, 0..crash_round);
        // Crash: dropped without finish().
    }
    let t = Instant::now();
    let (mut rt, report) =
        IngestRuntime::recover(config(&fitted, Some(&dir_replay), 0), &|_, _| {
            Some((&fitted.model, fitted.spec.workload.as_ref()))
        })
        .expect("recover");
    let replay_secs = t.elapsed().as_secs_f64();
    let replayed = report.replayed_segments;
    assert_eq!(
        replayed,
        STREAMS * crash_round,
        "everything accepted is durable"
    );
    let ids: Vec<StreamId> = report
        .streams
        .iter()
        .map(|s| StreamId::from_index(s.slot))
        .collect();
    let _ = serve_batched(&mut rt, &ids, segs, crash_round..n);
    let recovered_out = rt.finish().expect("finish");
    assert_bitwise(
        "recovered (replay) == uninterrupted",
        &mem_out,
        &recovered_out,
    );

    // Crash mid-serve with snapshots: recovery restores the checkpoint and
    // replays only the journal tail.
    let dir_snap = tmpdir("snap");
    {
        let mut rt = IngestRuntime::new(config(&fitted, Some(&dir_snap), 1));
        let ids = open_all(&mut rt, &fitted);
        let _ = serve(&mut rt, &ids, segs, 0..crash_round);
    }
    let t = Instant::now();
    let (mut rt, snap_report) =
        IngestRuntime::recover(config(&fitted, Some(&dir_snap), 1), &|_, _| {
            Some((&fitted.model, fitted.spec.workload.as_ref()))
        })
        .expect("recover");
    let snap_secs = t.elapsed().as_secs_f64();
    assert!(snap_report.resumed_from_snapshot);
    let ids: Vec<StreamId> = snap_report
        .streams
        .iter()
        .map(|s| StreamId::from_index(s.slot))
        .collect();
    let _ = serve(&mut rt, &ids, segs, crash_round..n);
    let snap_out = rt.finish().expect("finish");
    assert_bitwise("recovered (snapshot) == uninterrupted", &mem_out, &snap_out);

    let rate = |segs: usize, secs: f64| segs as f64 / secs.max(1e-9);
    let wal_overhead_us = (wal_secs - mem_secs) / total_segs as f64 * 1e6;
    let mut table = Table::new(
        "durability & recovery",
        &["leg", "serve s", "segs/s", "note"],
    );
    table.row(vec![
        "in-memory".into(),
        f2(mem_secs),
        format!("{:.0}", rate(total_segs, mem_secs)),
        String::new(),
    ]);
    table.row(vec![
        "journaled".into(),
        f2(wal_secs),
        format!("{:.0}", rate(total_segs, wal_secs)),
        format!("{wal_overhead_us:.1} µs/seg WAL tax"),
    ]);
    table.row(vec![
        "journal+snapshots".into(),
        f2(ckpt_secs),
        format!("{:.0}", rate(total_segs, ckpt_secs)),
        String::new(),
    ]);
    table.row(vec![
        "recover (replay)".into(),
        f2(replay_secs),
        format!("{:.0}", rate(replayed, replay_secs)),
        format!("{replayed} segs replayed"),
    ]);
    table.row(vec![
        "recover (snapshot)".into(),
        f2(snap_secs),
        format!("{:.0}", rate(snap_report.replayed_segments, snap_secs)),
        format!("{} tail segs", snap_report.replayed_segments),
    ]);
    table.print();
    let replay_vs_cold = rate(replayed, replay_secs) / rate(total_segs, mem_admit_secs + mem_secs);
    println!(
        "\nreplay runs at {replay_vs_cold:.2}x the cold rate over the same event \
         sequence (admissions + segments); snapshot recovery took {}s",
        f2(snap_secs),
    );

    merge_into(
        bench_json_path(),
        "recovery",
        &jobj(&[
            ("streams", jnum(STREAMS as f64)),
            ("segments", jnum(total_segs as f64)),
            ("mem_admit_secs", jnum(mem_admit_secs)),
            ("mem_serve_secs", jnum(mem_secs)),
            ("mem_segs_per_sec", jnum(rate(total_segs, mem_secs))),
            ("wal_serve_secs", jnum(wal_secs)),
            ("wal_segs_per_sec", jnum(rate(total_segs, wal_secs))),
            ("wal_overhead_us_per_seg", jnum(wal_overhead_us)),
            ("ckpt_serve_secs", jnum(ckpt_secs)),
            ("replay_segments", jnum(replayed as f64)),
            ("replay_recover_secs", jnum(replay_secs)),
            ("replay_segs_per_sec", jnum(rate(replayed, replay_secs))),
            ("replay_vs_cold_ratio", jnum(replay_vs_cold)),
            ("snapshot_recover_secs", jnum(snap_secs)),
            (
                "snapshot_tail_segments",
                jnum(snap_report.replayed_segments as f64),
            ),
        ]),
    );

    for d in [dir_wal, dir_ckpt, dir_replay, dir_snap] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
