//! Timing calls into the in-process runtime, and (traced) reading the
//! program's own `obs` registry around each call.
//!
//! Untraced, a [`Probe`] only times calls. Traced, it also records a span
//! per call, classifies pushes by whether they advanced the planning epoch
//! (`push.dispatch`) or only enqueued (`push.enqueue`), and attributes the
//! registry's histogram growth during a call to that call: an admission's
//! barrier phases to `admit.*`, everything else to the serve path.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use skyscraper::obs::{CounterId, HistId, Obs};
use skyscraper::offline::FittedModel;
use skyscraper::runtime::IngestRuntime;
use skyscraper::{IngestOptions, MultiOutcome, SkyError, StreamId, Workload};
use vetl_video::Segment;

use crate::report::Latencies;
use crate::trace::Tracer;

/// Coordinator-side phases: they run on the calling thread, one after
/// another, so they nest inside the call that triggered them.
pub const COORDINATOR: [(HistId, &str); 8] = [
    (HistId::BatchDispatch, "dispatch.batch"),
    (HistId::BarrierSettle, "barrier.settle"),
    (HistId::BarrierLpSolveCold, "barrier.lp_cold"),
    (HistId::BarrierLpSolveWarm, "barrier.lp_warm"),
    (HistId::BarrierWalletResplit, "barrier.resplit"),
    (HistId::BarrierBroadcast, "barrier.broadcast"),
    (HistId::WalAppend, "wal.append"),
    (HistId::WalFsync, "wal.fsync"),
];

/// Histogram sums of a registry, nanoseconds, indexed by `HistId`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sums([u64; HistId::COUNT]);

impl Sums {
    pub fn read(obs: &Obs) -> Self {
        let mut s = [0; HistId::COUNT];
        for &id in HistId::ALL {
            s[id as usize] = obs.registry.hist(id).sum_ns();
        }
        Sums(s)
    }

    pub fn get(&self, id: HistId) -> u64 {
        self.0[id as usize]
    }

    pub fn minus(&self, earlier: &Sums) -> Sums {
        let mut s = self.0;
        for (a, b) in s.iter_mut().zip(earlier.0) {
            *a = a.saturating_sub(b);
        }
        Sums(s)
    }

    pub fn add(&mut self, other: &Sums) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    pub fn coordinator_ns(&self) -> u64 {
        COORDINATOR.iter().map(|&(id, _)| self.get(id)).sum()
    }

    pub fn children(&self) -> Vec<(&'static str, u64)> {
        COORDINATOR
            .iter()
            .map(|&(id, name)| (name, self.get(id)))
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Admit,
    Push,
    Close,
    Scrape,
    Finish,
    Recover,
}

/// Traced-only bookkeeping.
pub struct Traced {
    pub obs: Arc<Obs>,
    pub tracer: Tracer,
    root: usize,
    last: Sums,
    /// Histogram growth during admissions.
    pub admit: Sums,
    pub enqueue: (u64, f64),
    pub dispatch: (u64, f64),
    /// Time inside epoch-advancing calls that no coordinator histogram
    /// covers (snapshot serialization, settling, bookkeeping), seconds.
    pub snapshot_self_s: f64,
    pub finish_s: f64,
}

impl Traced {
    pub fn new(obs: Arc<Obs>) -> Self {
        let mut tracer = Tracer::new();
        let root = tracer.begin("drive");
        let last = Sums::read(&obs);
        Self {
            obs,
            tracer,
            root,
            last,
            admit: Sums::default(),
            enqueue: (0, 0.0),
            dispatch: (0, 0.0),
            snapshot_self_s: 0.0,
            finish_s: 0.0,
        }
    }
}

/// Latencies and outcome counts of one drive.
#[derive(Default)]
pub struct Probe {
    pub lat: Latencies,
    pub recover_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub refused_opens: u64,
    pub traced: Option<Traced>,
}

impl Probe {
    pub fn new(obs: Option<Arc<Obs>>) -> Self {
        Self {
            traced: obs.map(Traced::new),
            ..Self::default()
        }
    }

    fn after(&mut self, kind: Kind, advanced: bool, t0: Instant, t1: Instant, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if kind == Kind::Admit {
                self.refused_opens += 1;
            }
        }
        let secs = (t1 - t0).as_secs_f64();
        match kind {
            Kind::Admit => self.lat.admit.push(secs * 1e3),
            Kind::Push => self.lat.push.push(secs * 1e3),
            Kind::Scrape => self.lat.scrape.push(secs * 1e3),
            Kind::Recover => self.recover_ms.push(secs * 1e3),
            Kind::Close | Kind::Finish => {}
        }
        let Some(tr) = self.traced.as_mut() else {
            return;
        };
        let now = Sums::read(&tr.obs);
        let delta = now.minus(&tr.last);
        tr.last = now;
        let quiet = delta == Sums::default();
        if kind == Kind::Admit {
            tr.admit.add(&delta);
        }
        let name = match kind {
            Kind::Admit => "admit",
            Kind::Push if advanced => "push.dispatch",
            Kind::Push => "push.enqueue",
            Kind::Close => "close",
            Kind::Scrape => "scrape",
            Kind::Finish => "finish",
            Kind::Recover => "recover",
        };
        match kind {
            Kind::Push if advanced => {
                tr.dispatch.0 += 1;
                tr.dispatch.1 += secs;
            }
            Kind::Push => {
                tr.enqueue.0 += 1;
                tr.enqueue.1 += secs;
            }
            Kind::Finish => tr.finish_s += secs,
            _ => {}
        }
        if advanced && matches!(kind, Kind::Push | Kind::Close) {
            let covered = delta.coordinator_ns() as f64 * 1e-9;
            tr.snapshot_self_s += (secs - covered).max(0.0);
        }
        let (s0, s1) = (tr.tracer.ns(t0), tr.tracer.ns(t1));
        if quiet && kind == Kind::Push {
            tr.tracer.fold(name, s1 - s0);
        } else {
            let id = tr.tracer.span(name, s0, s1);
            tr.tracer.children(id, &delta.children());
        }
    }

    pub fn open<'a>(
        &mut self,
        rt: &mut IngestRuntime<'a>,
        name: String,
        model: &'a FittedModel,
        workload: &'a (dyn Workload + 'a),
    ) -> Result<StreamId, SkyError> {
        let t0 = Instant::now();
        let r = rt.open_stream(name, model, workload, IngestOptions::default());
        self.after(Kind::Admit, false, t0, Instant::now(), r.is_ok());
        r
    }

    pub fn push(
        &mut self,
        rt: &mut IngestRuntime<'_>,
        id: StreamId,
        seg: &Segment,
    ) -> Result<(), SkyError> {
        let e0 = rt.epoch();
        let t0 = Instant::now();
        let r = rt.push(id, seg);
        let t1 = Instant::now();
        self.after(Kind::Push, rt.epoch() != e0, t0, t1, r.is_ok());
        r
    }

    pub fn push_batch(
        &mut self,
        rt: &mut IngestRuntime<'_>,
        id: StreamId,
        segs: &[Segment],
    ) -> Result<(), SkyError> {
        let e0 = rt.epoch();
        let t0 = Instant::now();
        let r = rt.push_batch(id, segs);
        let t1 = Instant::now();
        self.after(Kind::Push, rt.epoch() != e0, t0, t1, r.is_ok());
        r
    }

    pub fn close(&mut self, rt: &mut IngestRuntime<'_>, id: StreamId) -> Result<(), SkyError> {
        let e0 = rt.epoch();
        let t0 = Instant::now();
        let r = rt.close_stream(id);
        let t1 = Instant::now();
        self.after(Kind::Close, rt.epoch() != e0, t0, t1, r.is_ok());
        r
    }

    /// Read the runtime's metrics the way an operator's dashboard does.
    pub fn scrape(&mut self, rt: &IngestRuntime<'_>) {
        let t0 = Instant::now();
        std::hint::black_box(rt.metrics());
        self.after(Kind::Scrape, false, t0, Instant::now(), true);
    }

    pub fn finish(&mut self, rt: IngestRuntime<'_>) -> Result<MultiOutcome, SkyError> {
        let t0 = Instant::now();
        let r = rt.finish();
        self.after(Kind::Finish, false, t0, Instant::now(), r.is_ok());
        r
    }

    /// Time `recover` (its replay's histogram growth is its own).
    pub fn recover<T>(&mut self, f: impl FnOnce() -> Result<T, SkyError>) -> Result<T, SkyError> {
        let t0 = Instant::now();
        let r = f();
        self.after(Kind::Recover, false, t0, Instant::now(), r.is_ok());
        r
    }
}

impl Probe {
    /// End a traced drive: close its root span and return the per-layer
    /// figures (seconds unless the name says otherwise). `None` untraced.
    pub fn close_trace(&mut self) -> Option<BTreeMap<String, f64>> {
        let tr = self.traced.as_mut()?;
        tr.tracer.end(tr.root);
        Some(layers(self.traced.as_ref()?, self))
    }
}

/// Figures read from the program's registry, shared by every traced drive:
/// histogram totals, counters, and the barrier phases split into those
/// inside admissions (`admit`, the histogram growth during opens) and the
/// rest of the serve path. Seconds unless the name says otherwise.
pub fn registry_layers(obs: &Obs, admit: &Sums) -> BTreeMap<String, f64> {
    let s = |x: u64| x as f64 * 1e-9;
    let reg = &obs.registry;
    let total = Sums::read(obs);
    let serve = total.minus(admit);
    let count = |id: CounterId| reg.counter(id) as f64;
    [
        (
            "admit.barrier_settle_s",
            s(admit.get(HistId::BarrierSettle)),
        ),
        ("admit.lp_warm_s", s(admit.get(HistId::BarrierLpSolveWarm))),
        ("admit.lp_cold_s", s(admit.get(HistId::BarrierLpSolveCold))),
        (
            "admit.resplit_s",
            s(admit.get(HistId::BarrierWalletResplit)),
        ),
        ("admit.broadcast_s", s(admit.get(HistId::BarrierBroadcast))),
        ("dispatch.batch_s", s(total.get(HistId::BatchDispatch))),
        ("session.push_s", s(total.get(HistId::SessionPush))),
        ("session.pushes", count(CounterId::SessionPushes)),
        ("mailbox.drain_s", s(total.get(HistId::MailboxDrain))),
        (
            "mailbox.backpressure",
            count(CounterId::BackpressureRejections),
        ),
        (
            "serve.barrier_settle_s",
            s(serve.get(HistId::BarrierSettle)),
        ),
        ("serve.lp_warm_s", s(serve.get(HistId::BarrierLpSolveWarm))),
        ("lp.solves_warm", count(CounterId::LpSolvesWarm)),
        ("lp.solves_cold", count(CounterId::LpSolvesCold)),
        ("wal.appends", count(CounterId::WalAppends)),
        ("wal.append_s", s(total.get(HistId::WalAppend))),
        ("wal.fsyncs", count(CounterId::WalFsyncs)),
        ("wal.fsync_s", s(total.get(HistId::WalFsync))),
        (
            "recover.replayed_records",
            count(CounterId::ReplayedRecords),
        ),
        ("dedupe.lookups", count(CounterId::DedupLookups)),
        ("dedupe.hits", count(CounterId::DedupHits)),
        ("dedupe.stale", count(CounterId::DedupStale)),
        ("dedupe.lookup_s", s(total.get(HistId::DedupLookup))),
        ("net.requests", count(CounterId::NetRequests)),
        ("net.service_s", s(total.get(HistId::NetRequest))),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn layers(tr: &Traced, probe: &Probe) -> BTreeMap<String, f64> {
    let (_, wall_s, root_self_s) = tr.tracer.layers()["drive"];
    let mut m = registry_layers(&tr.obs, &tr.admit);
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("admit.calls", probe.lat.admit.seen() as f64);
    put("admit.refused", probe.refused_opens as f64);
    put("admit.busy_s", probe.lat.admit.sum() / 1e3);
    put("push.enqueue_calls", tr.enqueue.0 as f64);
    put("push.enqueue_s", tr.enqueue.1);
    put("push.dispatch_calls", tr.dispatch.0 as f64);
    put("push.dispatch_s", tr.dispatch.1);
    put("finish_s", tr.finish_s);
    put("runtime.snapshot_self_s", tr.snapshot_self_s);
    put(
        "recover_s",
        probe.recover_ms.iter().fold(0.0, |a, x| a + x) / 1e3,
    );
    put("scrape.rtt_s", probe.lat.scrape.sum() / 1e3);
    put("wall_s", wall_s);
    put("unattributed_share", 100.0 * root_self_s / wall_s.max(1e-9));
    m
}
