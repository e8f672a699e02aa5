//! `wire_shared`: an open loop over a Unix socket. A `NetServer` in front
//! of a 2-shard `IngestService` with exact dedup; one gateway connection
//! multiplexes sessions of co-located cameras, sending each tick's segments
//! as small `push_batch` requests on a fixed compressed-time schedule,
//! while a second connection scrapes `get_metrics` at a fixed interval.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use skyscraper::obs::Obs;
use skyscraper::runtime::{IngestRuntime, RuntimeConfig};
use skyscraper::serve::IngestService;
use skyscraper::{DedupPolicy, IngestOptions, MultiOutcome, StreamId};
use vetl_net::{Endpoint, NetClient, NetClientConfig, NetError, NetServer, ServerConfig};

use crate::fit::{Fitted, FIT_SEED};
use crate::gen::{fleet_day, Clock, OpenLoop, WallClock, WireInput, WireOp, WireShape};
use crate::outcome::{fingerprint, Figures};
use crate::probe::{registry_layers, Probe, Sums};
use crate::report::{end_to_end, Latencies, Report};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{e2e_or_skip, finish_layers, write_trace, Ctx, FIT_REPS};

pub const SHARDS: usize = 2;
/// 600 s epochs: 300 segments per camera.
pub const REPLAN_SECS: f64 = 600.0;
pub const CAMERAS: usize = 6;
/// Segments per `push_batch` request.
pub const BATCH: usize = 10;
pub const SHARED_EPOCHS: usize = 5;
/// Wall time per tick of the schedule (20 s of video per tick).
pub const TICK_S: f64 = 0.004;
/// The scraper's `get_metrics` interval in ticks. A scrape is due with a
/// tick's pushes, so every scrape competes with ingest for the one service
/// thread, as a dashboard polling a busy gateway does.
pub const SCRAPE_TICKS: usize = 2;
const PROFILE: &str = "covid";

fn shape(sessions: usize) -> WireShape {
    WireShape {
        sessions,
        cameras: CAMERAS,
        batch: BATCH,
        epoch_ticks: (REPLAN_SECS / crate::gen::SEG_LEN) as usize / BATCH,
        shared_epochs: SHARED_EPOCHS,
    }
}

/// Sessions whose schedule fills `budget` seconds at the tick rate, and at
/// least enough for 100 admissions (an admission p90).
fn sessions_for(budget: f64) -> usize {
    let ticks = (1 + SHARED_EPOCHS) * shape(1).epoch_ticks + 1;
    ((budget / (ticks as f64 * TICK_S)) as usize).max(100usize.div_ceil(CAMERAS))
}

fn config(fit: &Fitted, obs: Option<Arc<Obs>>) -> RuntimeConfig {
    RuntimeConfig {
        shards: SHARDS,
        shared_cloud_budget_usd: 2.0,
        seed: 7,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(CAMERAS as f64 * fit.cores_per_stream()),
        dedup: Some(DedupPolicy::exact()),
        obs,
        ..RuntimeConfig::default()
    }
}

fn stream_name(session: usize, cam: usize) -> String {
    format!("s{session:04}-cam{cam}")
}

/// What one served schedule measured.
#[derive(Default)]
struct Served {
    construct_s: f64,
    connect_s: f64,
    schedule_s: f64,
    finish_s: f64,
    admit_ms: Vec<f64>,
    /// Due-to-acknowledgement per push request, milliseconds.
    push_ms: Vec<f64>,
    /// Due-to-send per push request, milliseconds.
    lag_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
    /// Request round trips of both connections, seconds.
    rtt_s: f64,
    retries: u64,
    refed: u64,
    attempted: u64,
    failed: u64,
    outcome: MultiOutcome,
    tracer: Option<Tracer>,
    /// Histogram growth during admissions (traced).
    admit: Sums,
}

fn net(e: NetError) -> String {
    e.to_string()
}

/// The gateway: walk the tick schedule, timing each request.
fn gateway(
    gw: &mut NetClient,
    input: &WireInput,
    clock: &WallClock,
    obs: Option<&Obs>,
    out: &mut Served,
) -> Result<(), String> {
    let mut ids: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut lp = OpenLoop::new(clock, TICK_S);
    let mut tracer = obs.map(|_| Tracer::new());
    let root = tracer.as_mut().map(|t| t.begin("drive"));
    let id = |ids: &BTreeMap<(usize, usize), u64>, s: usize, c: usize| {
        ids.get(&(s, c))
            .copied()
            .ok_or_else(|| format!("session {s} camera {c} not open"))
    };
    for (k, ops) in input.ticks.iter().enumerate() {
        let t = Instant::now();
        let due = lp.wait(k);
        if let Some(tr) = tracer.as_mut() {
            let ns = t.elapsed().as_nanos() as u64;
            tr.fold("gen.idle", ns);
        }
        for op in ops {
            out.attempted += 1;
            let before = obs.map(Sums::read);
            let t0 = Instant::now();
            let (name, r) = match *op {
                WireOp::Open { session, cam } => {
                    let r = gw.open_stream(
                        PROFILE,
                        &stream_name(session, cam),
                        IngestOptions::default(),
                    );
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    out.admit_ms.push(ms);
                    if let Ok(stream) = r {
                        ids.insert((session, cam), stream);
                    }
                    ("admit", r.map(|_| ()))
                }
                WireOp::Push {
                    session,
                    cam,
                    from,
                    len,
                } => {
                    let stream = id(&ids, session, cam)?;
                    let segs = input.segs(session, cam, from, len);
                    let r = lp.issue(due, || gw.push_batch(stream, segs));
                    if let Ok(st) = &r {
                        out.retries += st.retries;
                        out.refed += st.refed_segments;
                    }
                    ("push", r.map(|_| ()))
                }
                WireOp::Close { session, cam } => {
                    ("close", gw.close_stream(id(&ids, session, cam)?))
                }
            };
            let t1 = Instant::now();
            out.rtt_s += (t1 - t0).as_secs_f64();
            if r.is_err() {
                out.failed += 1;
            }
            r.map_err(net)?;
            if let (Some(tr), Some(obs), Some(before)) = (tracer.as_mut(), obs, before) {
                let delta = Sums::read(obs).minus(&before);
                let (s0, s1) = (tr.ns(t0), tr.ns(t1));
                if name == "push" {
                    tr.fold("net.push", s1 - s0);
                } else {
                    if name == "admit" {
                        out.admit.add(&delta);
                    }
                    let span = tr.span(name, s0, s1);
                    tr.children(span, &delta.children());
                }
            }
        }
    }
    out.schedule_s = clock.now();
    out.push_ms = lp.latency.iter().map(|s| s * 1e3).collect();
    out.lag_ms = lp.lag.iter().map(|s| s * 1e3).collect();
    if let (Some(mut tr), Some(root)) = (tracer, root) {
        tr.end(root);
        out.tracer = Some(tr);
    }
    Ok(())
}

/// Scrape `get_metrics` every [`SCRAPE_TICKS`] until told to stop.
fn scraper(
    mut client: NetClient,
    clock: &WallClock,
    stop: &AtomicBool,
) -> Result<(Vec<f64>, u64), String> {
    let mut rtts = Vec::new();
    let mut failed = 0;
    for k in 0.. {
        clock.sleep_until((k * SCRAPE_TICKS) as f64 * TICK_S);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let t = Instant::now();
        match client.get_metrics() {
            Ok(_) => rtts.push(t.elapsed().as_secs_f64() * 1e3),
            Err(_) => failed += 1,
        }
    }
    Ok((rtts, failed))
}

/// Serve the schedule over a Unix socket in the output directory.
fn serve(
    ctx: &Ctx,
    fit: &Fitted,
    input: &WireInput,
    obs: Option<Arc<Obs>>,
) -> Result<Served, String> {
    // A relative socket path keeps it under the platform's path-length cap
    // wherever the working directory is.
    let sock = PathBuf::from(&ctx.out_dir).join(format!("w{}.sock", std::process::id()));
    let t0 = Instant::now();
    let mut service = IngestService::new(config(fit, obs.clone()));
    service.register_profile(PROFILE, &fit.model, fit.workload.as_ref());
    let server = NetServer::bind(ServerConfig {
        unix: Some(sock.clone()),
        ..ServerConfig::default()
    })
    .map_err(net)?;
    let handle = server.handle();
    let ep = Endpoint::Unix(sock);
    let mut out = Served::default();
    let stop = AtomicBool::new(false);
    // Started once both connections are up: tick 0 is due then.
    let clock = OnceLock::new();
    let result = std::thread::scope(|s| {
        let serving = s.spawn(move || server.serve(service));
        let run = (|| -> Result<Vec<f64>, String> {
            let tc = Instant::now();
            let mut gw = NetClient::connect(&ep, NetClientConfig::default()).map_err(net)?;
            let scrape_client = NetClient::connect(&ep, NetClientConfig::default()).map_err(net)?;
            out.connect_s = tc.elapsed().as_secs_f64();
            out.construct_s = t0.elapsed().as_secs_f64();
            let clock = clock.get_or_init(WallClock::start);
            let scraping = s.spawn(|| scraper(scrape_client, clock, &stop));
            let driven = gateway(&mut gw, input, clock, obs.as_deref(), &mut out);
            stop.store(true, Ordering::SeqCst);
            let (scrapes, scrape_failed) = scraping.join().map_err(|_| "scraper panicked")??;
            out.failed += scrape_failed;
            out.attempted += scrapes.len() as u64 + scrape_failed;
            driven?;
            let tf = Instant::now();
            gw.shutdown_server().map_err(net)?;
            let streams = input
                .ops()
                .filter(|op| matches!(op, WireOp::Open { .. }))
                .count();
            let settled = gw.recv_outcomes(streams).map_err(net)?;
            out.finish_s = tf.elapsed().as_secs_f64();
            if settled.len() != streams {
                return Err(format!("drained {} of {streams} outcomes", settled.len()));
            }
            Ok(scrapes)
        })();
        if run.is_err() {
            stop.store(true, Ordering::SeqCst);
            handle.stop();
        }
        let served = serving.join().map_err(|_| "server panicked".to_string())?;
        let scrapes = run?;
        let report = served.map_err(net)?;
        if report.malformed != 0 || report.autoclosed_streams != 0 {
            return Err(format!(
                "{} malformed connections, {} auto-closed streams",
                report.malformed, report.autoclosed_streams
            ));
        }
        Ok((scrapes, report.outcome))
    });
    let (scrapes, outcome) = result?;
    out.rtt_s += scrapes.iter().sum::<f64>() / 1e3;
    out.scrape_ms = scrapes;
    out.outcome = outcome;
    Ok(out)
}

/// The same operations driven in-process: the bitwise reference.
fn in_process(
    fit: &Fitted,
    input: &WireInput,
    obs: Option<Arc<Obs>>,
) -> Result<(MultiOutcome, Probe), String> {
    let err = |e: skyscraper::SkyError| e.to_string();
    let mut rt = IngestRuntime::new(config(fit, obs.clone()));
    let mut probe = Probe::new(obs);
    let mut ids: BTreeMap<(usize, usize), StreamId> = BTreeMap::new();
    for op in input.ops() {
        match *op {
            WireOp::Open { session, cam } => {
                let id = probe
                    .open(
                        &mut rt,
                        stream_name(session, cam),
                        &fit.model,
                        fit.workload.as_ref(),
                    )
                    .map_err(err)?;
                ids.insert((session, cam), id);
            }
            WireOp::Push {
                session,
                cam,
                from,
                len,
            } => probe
                .push_batch(
                    &mut rt,
                    ids[&(session, cam)],
                    input.segs(session, cam, from, len),
                )
                .map_err(err)?,
            WireOp::Close { session, cam } => {
                probe.close(&mut rt, ids[&(session, cam)]).map_err(err)?
            }
        }
    }
    let out = probe.finish(rt).map_err(err)?;
    Ok((out, probe))
}

fn rate(s: &Served) -> f64 {
    Figures::of(&s.outcome).segments as f64 / s.schedule_s
}

/// Per-layer figures of a traced schedule.
fn layers(s: &Served, obs: &Obs) -> BTreeMap<String, f64> {
    let tr = s.tracer.as_ref().expect("traced schedule");
    let (_, wall, root_self) = tr.layers()["drive"];
    let lag_max = s.lag_ms.iter().copied().fold(0.0, f64::max);
    let lag_p99 = percentile(&mut s.lag_ms.clone(), 99.0);
    let mut m = registry_layers(obs, &s.admit);
    let service_s = m["net.service_s"];
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("admit.calls", s.admit_ms.len() as f64);
    put("admit.refused", 0.0);
    put("admit.busy_s", s.admit_ms.iter().sum::<f64>() / 1e3);
    put("finish_s", s.finish_s);
    put(
        "dedupe.work_saved_core_s",
        Figures::of(&s.outcome).work_saved_core_s,
    );
    put("net.connect_s", s.connect_s);
    put("net.rtt_s", s.rtt_s);
    put("net.wire_s", (s.rtt_s - service_s).max(0.0));
    put("net.retries", s.retries as f64);
    put("net.refed_segments", s.refed as f64);
    put("scrape.rtt_s", s.scrape_ms.iter().sum::<f64>() / 1e3);
    put("gen.lag_ms_p99", lag_p99);
    put("gen.lag_ms_max", lag_max);
    put("gen.lag_p99_pct", lag_p99 / (TICK_S * 1e3) * 100.0);
    put("gen.lag_max_pct", lag_max / (TICK_S * 1e3) * 100.0);
    put("wall_s", wall);
    put("unattributed_share", 100.0 * root_self / wall.max(1e-9));
    m
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let fit = Fitted::new(FIT_REPS)?;
    // Traced and untraced runs serve the same schedule.
    let (plain_s, _) = ctx.budgets();
    let fleet = fleet_day(FIT_SEED + 1, CAMERAS);
    let input = WireInput::new(&fleet, ctx.seed, shape(sessions_for(plain_s)));
    let plain = serve(ctx, &fit, &input, None)?;
    let traced_obs = Arc::new(Obs::new());
    let traced = if ctx.trace {
        Some(serve(ctx, &fit, &input, Some(traced_obs.clone()))?)
    } else {
        None
    };
    // Untraced runs attach obs to the in-process reference, so one
    // comparison covers the wire and recording invisibility.
    let reference_obs = (!ctx.trace).then(|| Arc::new(Obs::new()));
    let (reference, ref_probe) = in_process(&fit, &input, reference_obs)?;

    let mut report = Report::default();
    let fp = fingerprint(&reference);
    report.check(
        if ctx.trace {
            "wire run ≡ in-process drive of the same schedule, bitwise"
        } else {
            "wire run ≡ in-process drive of the same schedule with obs attached, bitwise \
             (socket adds no divergence, obs invisible)"
        },
        fingerprint(&plain.outcome) == fp,
    );
    if let Some(t) = &traced {
        report.check(
            "traced wire run is bitwise identical to untraced (obs invisible)",
            fingerprint(&t.outcome) == fp,
        );
    }
    let fig = Figures::of(&reference);
    report.check("overflows == 0 (Eq. 1 holds)", fig.overflows == 0);
    report.check("dedup hits occur", fig.dedup_hits > 0);
    let fed: usize = input
        .ops()
        .map(|op| match op {
            WireOp::Push { len, .. } => *len,
            _ => 0,
        })
        .sum();
    report.check("every segment settled", fig.segments == fed);
    for s in std::iter::once(&plain).chain(&traced) {
        report.attempted += s.attempted;
        report.failed += s.failed + s.retries;
    }
    report.attempted += ref_probe.attempted;
    report.failed += ref_probe.failed;

    let setup: Vec<f64> = fit.fit_s.iter().map(|f| f + plain.construct_s).collect();
    let mut lat = Latencies::default();
    plain.admit_ms.iter().for_each(|&x| lat.admit.push(x));
    plain.push_ms.iter().for_each(|&x| lat.push.push(x));
    plain.scrape_ms.iter().for_each(|&x| lat.scrape.push(x));
    report.e2e = e2e_or_skip(ctx, end_to_end(&setup, &[rate(&plain)], &mut lat, &fig))?;
    let mut lag = plain.lag_ms.clone();
    report.notes.push(format!(
        "{} sessions x {CAMERAS} cameras, {fed} segments in {:.2} s; offered {:.0} segs/s; \
         generator lag p99 {:.3} ms; {} dedup hits of {} lookups",
        input.offsets.len(),
        plain.schedule_s,
        fed as f64 / (input.ticks.len() as f64 * TICK_S),
        percentile(&mut lag, 99.0),
        fig.dedup_hits,
        fig.dedup_lookups
    ));

    if let Some(t) = &traced {
        let maps = vec![layers(t, &traced_obs)];
        if let Some(tr) = &t.tracer {
            write_trace(ctx, "wire_shared", tr)?;
        }
        finish_layers(&mut report, &maps, fit.layers(), rate(&plain), rate(t));
    }
    Ok(report)
}
