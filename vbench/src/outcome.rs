//! Bitwise fingerprints and the paper's quality/cost/work figures of a
//! joint outcome.

use skyscraper::{IngestOutcome, MultiOutcome};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn stream_words(o: &IngestOutcome) -> [u64; 18] {
    let d = &o.dedup;
    [
        o.mean_quality.to_bits(),
        o.work_core_secs.to_bits(),
        o.cloud_usd.to_bits(),
        o.buffer_peak.to_bits(),
        o.overflows as u64,
        o.switches as u64,
        o.misclassification_rate.to_bits(),
        o.plans as u64,
        o.segments as u64,
        o.duration_secs.to_bits(),
        o.drift_alarms as u64,
        d.lookups,
        d.hits_full,
        d.hits_gt,
        d.stale,
        d.bytes_saved.to_bits(),
        d.spend_saved_usd.to_bits(),
        d.work_saved_secs.to_bits(),
    ]
}

/// A fingerprint of every bit of every per-stream outcome, in admission
/// order, plus the joint totals. Equal fingerprints are how the benchmark
/// checks that two drives produced the same outcome.
pub fn fingerprint(out: &MultiOutcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(out.streams.len() as u64);
    for s in &out.streams {
        for b in s.workload_id.bytes() {
            h.word(b as u64);
        }
        for w in stream_words(&s.outcome) {
            h.word(w);
        }
    }
    h.word(out.cloud_usd.to_bits());
    h.word(out.joint_quality.to_bits());
    h.0
}

/// The deterministic end-to-end figures of one outcome.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    pub segments: usize,
    /// Segment-weighted mean ground-truth quality.
    pub quality_mean: f64,
    pub cloud_usd: f64,
    /// On-prem core-seconds executed per segment: charged work minus the
    /// work exact-mode dedup hits charged without running.
    pub work_core_s_per_seg: f64,
    /// Eq. 1 throughput-guarantee violations.
    pub overflows: usize,
    pub dedup_lookups: u64,
    pub dedup_hits: u64,
    pub dedup_stale: u64,
    pub work_saved_core_s: f64,
}

impl Figures {
    pub fn of(out: &MultiOutcome) -> Self {
        let mut f = Figures {
            segments: 0,
            quality_mean: 0.0,
            cloud_usd: out.cloud_usd,
            work_core_s_per_seg: 0.0,
            overflows: 0,
            dedup_lookups: 0,
            dedup_hits: 0,
            dedup_stale: 0,
            work_saved_core_s: 0.0,
        };
        let mut work = 0.0;
        for s in &out.streams {
            let o = &s.outcome;
            f.segments += o.segments;
            f.quality_mean += o.mean_quality * o.segments as f64;
            work += o.work_core_secs;
            f.overflows += o.overflows;
            f.dedup_lookups += o.dedup.lookups;
            f.dedup_hits += o.dedup.hits();
            f.dedup_stale += o.dedup.stale;
            f.work_saved_core_s += o.dedup.work_saved_secs;
        }
        let n = f.segments.max(1) as f64;
        f.quality_mean /= n;
        f.work_core_s_per_seg = (work - f.work_saved_core_s) / n;
        f
    }
}
