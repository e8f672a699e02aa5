//! Seeded input generation and open-loop pacing.
//!
//! Everything a workload feeds the program is a pure function of the
//! workload seed and a fixed recorded day: which slice of the day each
//! camera replays, when streams open and close, and the tick schedule of
//! the open loop. The program receives only these generated inputs.

use vetl_video::{ContentParams, Segment};
use vetl_workloads::co_located_fleet;

/// Segment length of every generated camera, seconds.
pub const SEG_LEN: f64 = 2.0;
/// Segments in one recorded day.
pub const DAY_SEGS: usize = 43_200;

/// SplitMix64: a small, fully specified generator, so the inputs of a seed
/// never depend on another crate's sampling code.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Shuffle in place (Fisher–Yates).
pub fn shuffle<T>(rng: &mut SplitMix, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.range(0, i));
    }
}

/// Per-camera start offsets into a day, each leaving room for `len`
/// segments. Stratified: camera slots get one random offset in each of
/// `cameras` equal strata of the day, in shuffled order, so every seed
/// covers the day's busy and quiet hours alike and seeds differ in detail,
/// not in how much daytime they happened to draw.
pub fn offsets(rng: &mut SplitMix, cameras: usize, len: usize) -> Vec<usize> {
    let span = DAY_SEGS - len;
    let mut out: Vec<usize> = (0..cameras)
        .map(|k| {
            let lo = k * span / cameras;
            let hi = ((k + 1) * span / cameras).max(lo + 1) - 1;
            rng.range(lo, hi)
        })
        .collect();
    shuffle(rng, &mut out);
    out
}

/// `steady_fleet` input: every camera replays its own slice of the day.
pub struct SteadyInput<'d> {
    pub day: &'d [Segment],
    pub offsets: Vec<usize>,
    pub segs_per_camera: usize,
}

impl<'d> SteadyInput<'d> {
    pub fn new(day: &'d [Segment], seed: u64, cameras: usize, segs_per_camera: usize) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x5354_4541_4459);
        Self {
            day,
            offsets: offsets(&mut rng, cameras, segs_per_camera),
            segs_per_camera,
        }
    }

    pub fn feed(&self, cam: usize) -> &[Segment] {
        let o = self.offsets[cam];
        &self.day[o..o + self.segs_per_camera]
    }
}

/// One step of a closed-loop churn schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open(usize),
    /// `push_batch` of segments `from..from + len` of the camera's feed.
    Push {
        cam: usize,
        from: usize,
        len: usize,
    },
    Close(usize),
}

/// Shape of a churn schedule.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    /// Streams admitted over the whole schedule.
    pub cameras: usize,
    /// Bound on concurrently open streams.
    pub active: usize,
    /// Segments per `push_batch`.
    pub batch: usize,
    /// Lifetime range of a stream, in rounds (one batch per open stream).
    pub min_rounds: usize,
    pub max_rounds: usize,
}

/// `churn_durable` input: a bounded active set with staggered lifetimes.
/// Closes and opens happen at round boundaries (closes first, so a
/// newcomer never exceeds the active bound), and every round feeds one
/// batch to each open stream in admission order.
pub struct ChurnInput<'d> {
    pub day: &'d [Segment],
    pub offsets: Vec<usize>,
    pub ops: Vec<Op>,
}

impl<'d> ChurnInput<'d> {
    pub fn new(day: &'d [Segment], seed: u64, shape: ChurnShape) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x0043_4855_524e);
        // Lifetimes are an evenly spaced ladder in shuffled order: the seed
        // decides who lives how long and when, every seed feeds the same
        // total.
        let span = shape.max_rounds - shape.min_rounds;
        let mut rounds: Vec<usize> = (0..shape.cameras)
            .map(|i| shape.min_rounds + i * span / (shape.cameras - 1).max(1))
            .collect();
        shuffle(&mut rng, &mut rounds);
        let offsets = offsets(&mut rng, shape.cameras, shape.max_rounds * shape.batch);
        let mut ops = Vec::new();
        let mut next = 0usize;
        // (camera, rounds fed so far)
        let mut open: Vec<(usize, usize)> = Vec::new();
        loop {
            open.retain(|&(cam, fed)| {
                let done = fed == rounds[cam];
                if done {
                    ops.push(Op::Close(cam));
                }
                !done
            });
            while open.len() < shape.active && next < shape.cameras {
                ops.push(Op::Open(next));
                open.push((next, 0));
                next += 1;
            }
            if open.is_empty() {
                break;
            }
            for (cam, fed) in &mut open {
                ops.push(Op::Push {
                    cam: *cam,
                    from: *fed * shape.batch,
                    len: shape.batch,
                });
                *fed += 1;
            }
        }
        Self { day, offsets, ops }
    }

    pub fn segs(&self, cam: usize, from: usize, len: usize) -> &[Segment] {
        let o = self.offsets[cam] + from;
        &self.day[o..o + len]
    }
}

/// What the gateway does at one tick of the open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOp {
    /// Open camera `cam` of session `session` (camera 0 leads).
    Open {
        session: usize,
        cam: usize,
    },
    /// Push the camera's segments `from..from + len`.
    Push {
        session: usize,
        cam: usize,
        from: usize,
        len: usize,
    },
    Close {
        session: usize,
        cam: usize,
    },
}

/// Shape of the `wire_shared` schedule.
#[derive(Debug, Clone, Copy)]
pub struct WireShape {
    /// Sessions run back to back.
    pub sessions: usize,
    /// Co-located cameras per session.
    pub cameras: usize,
    /// Segments per `push_batch` request.
    pub batch: usize,
    /// Ticks per planning epoch (epoch quota / batch).
    pub epoch_ticks: usize,
    /// Epochs the whole session streams after the leader's head start.
    pub shared_epochs: usize,
}

impl WireShape {
    /// Segments one camera of a session replays at most.
    pub fn segs_per_camera(&self) -> usize {
        (1 + self.shared_epochs) * self.epoch_ticks * self.batch
    }
}

/// The day a fleet of co-located cameras records: every camera sees the
/// same shopping-street content (`jitter` 0, so bit-identical segments).
pub fn fleet_day(day_seed: u64, cameras: usize) -> Vec<Vec<Segment>> {
    co_located_fleet(
        ContentParams::shopping_street(day_seed),
        SEG_LEN,
        cameras,
        0.0,
        DAY_SEGS as f64 * SEG_LEN,
        day_seed,
    )
}

/// `wire_shared` input: sessions of co-located cameras behind one gateway.
/// Each session's cameras see the same content (a slice of one
/// [`fleet_day`] at a seeded offset). The leader streams alone for
/// one epoch, then the followers join and replay the same content one epoch
/// behind, so their segments hit results the leader published.
pub struct WireInput<'d> {
    pub fleet: &'d [Vec<Segment>],
    pub offsets: Vec<usize>,
    /// `ticks[k]` are the gateway's operations due at tick `k`.
    pub ticks: Vec<Vec<WireOp>>,
}

impl<'d> WireInput<'d> {
    pub fn new(fleet: &'d [Vec<Segment>], seed: u64, shape: WireShape) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x5749_5245);
        let offsets = offsets(&mut rng, shape.sessions, shape.segs_per_camera());
        let e = shape.epoch_ticks;
        let mut ticks = Vec::new();
        for session in 0..shape.sessions {
            // Leader alone for one epoch, then everyone for the rest.
            for t in 0..(1 + shape.shared_epochs) * e {
                let mut ops = Vec::new();
                if t == 0 {
                    ops.push(WireOp::Open { session, cam: 0 });
                }
                if t == e {
                    ops.extend((1..shape.cameras).map(|cam| WireOp::Open { session, cam }));
                }
                for cam in 0..shape.cameras {
                    let joined = if cam == 0 { 0 } else { e };
                    if t >= joined {
                        ops.push(WireOp::Push {
                            session,
                            cam,
                            from: (t - joined) * shape.batch,
                            len: shape.batch,
                        });
                    }
                }
                ticks.push(ops);
            }
            ticks.push(
                (0..shape.cameras)
                    .map(|cam| WireOp::Close { session, cam })
                    .collect(),
            );
        }
        Self {
            fleet,
            offsets,
            ticks,
        }
    }

    pub fn segs(&self, session: usize, cam: usize, from: usize, len: usize) -> &[Segment] {
        let o = self.offsets[session] + from;
        &self.fleet[cam][o..o + len]
    }

    pub fn ops(&self) -> impl Iterator<Item = &WireOp> {
        self.ticks.iter().flatten()
    }
}

/// Time source of the open loop (seconds since the loop started).
pub trait Clock {
    fn now(&self) -> f64;
    fn sleep_until(&self, t: f64);
}

/// The real monotonic clock.
pub struct WallClock(std::time::Instant);

impl WallClock {
    pub fn start() -> Self {
        Self(std::time::Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Sleep to just short of `t`, then yield until it: a plain sleep
    /// wakes a scheduler-dependent 50–100 µs late, which would read as
    /// latency of whatever request is due next.
    fn sleep_until(&self, t: f64) {
        const SPIN: f64 = 200e-6;
        let ahead = t - self.now() - SPIN;
        if ahead > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(ahead));
        }
        while self.now() < t {
            std::thread::yield_now();
        }
    }
}

/// Open-loop pacing and accounting. A request is timed from when it was
/// *due*, not from when the generator got round to sending it, so a stall
/// is charged to every request queued behind it; how late the generator
/// itself ran is reported separately as lag.
pub struct OpenLoop<'c, C: Clock> {
    clock: &'c C,
    period: f64,
    /// Due-to-acknowledgement time per request, seconds.
    pub latency: Vec<f64>,
    /// Due-to-send time per request, seconds.
    pub lag: Vec<f64>,
}

impl<'c, C: Clock> OpenLoop<'c, C> {
    pub fn new(clock: &'c C, period: f64) -> Self {
        Self {
            clock,
            period,
            latency: Vec::new(),
            lag: Vec::new(),
        }
    }

    /// Wait until `tick` is due (never waiting when already late); returns
    /// its due time.
    pub fn wait(&self, tick: usize) -> f64 {
        let due = tick as f64 * self.period;
        if self.clock.now() < due {
            self.clock.sleep_until(due);
        }
        due
    }

    /// Issue one request due at `due`, timing it against the due time.
    pub fn issue<T>(&mut self, due: f64, request: impl FnOnce() -> T) -> T {
        let sent = self.clock.now();
        let out = request();
        let acked = self.clock.now();
        self.lag.push(sent - due);
        self.latency.push(acked - due);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn digest(segs: &[Segment]) -> Vec<u64> {
        segs.iter()
            .flat_map(|s| {
                [
                    s.index,
                    s.duration.to_bits(),
                    s.bytes.to_bits(),
                    s.content.time.as_secs().to_bits(),
                    s.content.difficulty.to_bits(),
                    s.content.activity.to_bits(),
                    s.content.event_active as u64,
                ]
            })
            .collect()
    }

    const CHURN: ChurnShape = ChurnShape {
        cameras: 12,
        active: 4,
        batch: 5,
        min_rounds: 2,
        max_rounds: 6,
    };
    const WIRE: WireShape = WireShape {
        sessions: 3,
        cameras: 3,
        batch: 2,
        epoch_ticks: 4,
        shared_epochs: 2,
    };

    #[test]
    fn same_seed_gives_bitwise_identical_inputs() {
        // The recorded days are regenerated independently for each side.
        let (fleet_a, fleet_b) = (fleet_day(3, 3), fleet_day(3, 3));
        for (x, y) in fleet_a.iter().zip(&fleet_b) {
            assert_eq!(digest(x), digest(y));
        }
        let (day_a, day_b) = (&fleet_a[0], &fleet_b[0]);
        let (a, b) = (
            SteadyInput::new(day_a, 9, 8, 100),
            SteadyInput::new(day_b, 9, 8, 100),
        );
        let feeds = |i: &SteadyInput| (0..8).flat_map(|c| digest(i.feed(c))).collect::<Vec<_>>();
        assert_eq!(feeds(&a), feeds(&b));
        let (a, b) = (
            ChurnInput::new(day_a, 9, CHURN),
            ChurnInput::new(day_b, 9, CHURN),
        );
        assert_eq!((&a.ops, &a.offsets), (&b.ops, &b.offsets));
        let (a, b) = (
            WireInput::new(&fleet_a, 9, WIRE),
            WireInput::new(&fleet_b, 9, WIRE),
        );
        assert_eq!((&a.ticks, &a.offsets), (&b.ticks, &b.offsets));
        // And another seed gives other inputs.
        let c = SteadyInput::new(day_a, 10, 8, 100);
        assert_ne!(feeds(&c), feeds(&SteadyInput::new(day_a, 9, 8, 100)));
        assert_ne!(
            ChurnInput::new(day_a, 10, CHURN).ops,
            ChurnInput::new(day_a, 9, CHURN).ops
        );
    }

    #[test]
    fn offsets_cover_every_stratum_of_the_day() {
        let mut rng = SplitMix::new(1);
        let len = 1_000;
        let mut o = offsets(&mut rng, 8, len);
        assert!(o.iter().all(|&x| x + len <= DAY_SEGS));
        o.sort();
        let stratum = (DAY_SEGS - len) / 8;
        for (k, x) in o.iter().enumerate() {
            assert_eq!(x / stratum, k, "one offset per stratum");
        }
    }

    #[test]
    fn churn_respects_the_active_bound_and_feeds_whole_lifetimes() {
        let day = &fleet_day(3, 1)[0];
        let input = ChurnInput::new(day, 3, CHURN);
        let mut open = std::collections::BTreeMap::new();
        let mut opened = 0;
        for op in &input.ops {
            match *op {
                Op::Open(c) => {
                    assert!(open.insert(c, 0usize).is_none());
                    opened += 1;
                    assert!(open.len() <= CHURN.active);
                }
                Op::Push { cam, from, len } => {
                    let fed = open.get_mut(&cam).expect("push to an open camera");
                    assert_eq!((from, len), (*fed, CHURN.batch), "contiguous feed");
                    *fed += len;
                }
                Op::Close(c) => {
                    let fed = open.remove(&c).expect("close an open camera");
                    let rounds = fed / CHURN.batch;
                    assert!((CHURN.min_rounds..=CHURN.max_rounds).contains(&rounds));
                }
            }
        }
        assert_eq!(opened, CHURN.cameras);
        assert!(open.is_empty(), "every stream closes by the end");
    }

    #[test]
    fn wire_followers_trail_the_leader_by_one_epoch() {
        let fleet = fleet_day(5, WIRE.cameras);
        let input = WireInput::new(&fleet, 5, WIRE);
        let e = WIRE.epoch_ticks;
        let session_ticks = (1 + WIRE.shared_epochs) * e + 1;
        assert_eq!(input.ticks.len(), WIRE.sessions * session_ticks);
        let first = &input.ticks[..session_ticks];
        assert_eq!(first[0][0], WireOp::Open { session: 0, cam: 0 });
        assert!(first[e].contains(&WireOp::Open { session: 0, cam: 1 }));
        // At tick t ≥ e the leader pushes content from t·batch, a follower
        // from (t − e)·batch: the leader's content one epoch earlier.
        let pushes = |t: usize, cam: usize| {
            first[t].iter().find_map(|op| match *op {
                WireOp::Push { cam: c, from, .. } if c == cam => Some(from),
                _ => None,
            })
        };
        assert_eq!(pushes(e, 0), Some(e * WIRE.batch));
        assert_eq!(pushes(e, 2), Some(0));
        assert_eq!(pushes(e - 1, 2), None, "followers have not joined yet");
        // Co-located cameras see bit-identical content.
        assert_eq!(
            digest(input.segs(1, 0, 0, 8)),
            digest(input.segs(1, 2, 0, 8))
        );
    }

    /// A manual clock: sleeping jumps to the target, and the fake system
    /// under test advances it by its service time.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn open_loop_times_requests_from_their_due_time() {
        // One request per 1 s tick against a system that takes 3 s each:
        // the backlog grows by 2 s per tick, and every request queued
        // behind the stall is charged for it.
        let clock = FakeClock(Cell::new(0.0));
        let mut lp = OpenLoop::new(&clock, 1.0);
        for tick in 0..5 {
            let due = lp.wait(tick);
            lp.issue(due, || clock.0.set(clock.0.get() + 3.0));
        }
        assert_eq!(lp.lag, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        assert_eq!(lp.latency, vec![3.0, 5.0, 7.0, 9.0, 11.0]);
        assert_eq!(clock.now(), 15.0);
    }

    #[test]
    fn open_loop_waits_when_ahead() {
        // A fast system (0.25 s per request) never lags and is timed from
        // the due time, not from when the generator woke.
        let clock = FakeClock(Cell::new(0.0));
        let mut lp = OpenLoop::new(&clock, 1.0);
        for tick in 0..3 {
            let due = lp.wait(tick);
            assert_eq!(clock.now(), due);
            lp.issue(due, || clock.0.set(clock.0.get() + 0.25));
        }
        assert_eq!(lp.lag, vec![0.0; 3]);
        assert_eq!(lp.latency, vec![0.25; 3]);
    }
}
