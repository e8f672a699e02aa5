//! A small self-contained versioned binary codec for knowledge-base
//! artifacts.
//!
//! No serde is available offline, so this module hand-rolls exactly the
//! encoding the knowledge base needs:
//!
//! * **little-endian** fixed-width integers (`u8`/`u16`/`u32`/`u64`;
//!   `usize` travels as `u64`),
//! * `f64` as the little-endian bytes of [`f64::to_bits`] — floats survive
//!   a round-trip **bitwise**, including NaN payloads, which is what makes
//!   `save → load → run` indistinguishable from `fit → run`,
//! * strings and vectors as a `u64` length prefix followed by the elements,
//! * category-label vectors (`Enc::cats`) byte-packed: the length, one
//!   width byte (1, 2, 4 or 8 — the narrowest that holds the largest
//!   label), then each label in that many little-endian bytes. Labels are
//!   `< n_categories`, so a history costs one byte per segment, not eight.
//!
//! Every decoder validates lengths against the remaining buffer before
//! allocating, so a truncated or hostile file degrades into a decode error
//! (surfaced as [`SkyError::CorruptKnowledgeBase`](crate::error::SkyError)
//! by the knowledge base), never a panic or an unbounded allocation. File
//! framing (magic, version, checksum) lives in [`kb`](super::kb).

use vetl_ml::{Activation, Layer, Matrix, Mlp};
use vetl_sim::{CloudSpec, ClusterSpec, HardwareSpec, NodeId, Placement};

use super::forecast::{CategoryTimeline, ForecastSpec, Forecaster};
use super::memo::{EvalMemo, MemoKey, MemoTag};
use super::pipeline::{
    ArtifactMeta, CategoryArtifact, ForecastArtifact, PlanArtifact, ProfileArtifact,
};
use super::FittedModel;
use crate::category::ContentCategories;
use crate::config::SkyscraperConfig;
use crate::fingerprint::Fnv;
use crate::knob::KnobConfig;
use crate::online::plan::KnobPlan;
use crate::profile::{ConfigProfile, PlacementProfile};

/// Codec format version; bump on any layout change.
/// Version 2 byte-packs the timeline categories and switched the file
/// checksum to the word-wise fold.
pub const FORMAT_VERSION: u16 = 2;

/// Decode failure with context; the knowledge base wraps it into
/// `SkyError::CorruptKnowledgeBase`.
pub type DecodeResult<T> = Result<T, String>;

// ---------------------------------------------------------------------
// Primitive writer / reader.
// ---------------------------------------------------------------------

/// Append-only byte sink.
#[derive(Debug, Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append pre-encoded bytes verbatim (nested payloads).
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    pub(crate) fn usizes(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
    }

    /// A category-label vector, byte-packed (see the module docs); read
    /// back with [`Dec::cats`].
    pub(crate) fn cats(&mut self, vs: &[usize]) {
        let max = vs.iter().copied().max().unwrap_or(0) as u64;
        let width = match max {
            0..=0xFF => 1,
            0x100..=0xFFFF => 2,
            0x1_0000..=0xFFFF_FFFF => 4,
            _ => 8,
        };
        self.usize(vs.len());
        self.u8(width);
        if width == 1 {
            self.buf.extend(vs.iter().map(|&v| v as u8));
            return;
        }
        self.buf.reserve(vs.len() * width as usize);
        for &v in vs {
            self.buf
                .extend_from_slice(&(v as u64).to_le_bytes()[..width as usize]);
        }
    }
}

/// Cursor over an immutable byte buffer.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> DecodeResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated {what} at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> DecodeResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> DecodeResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, what: &str) -> DecodeResult<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn usize(&mut self, what: &str) -> DecodeResult<usize> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| format!("{what} length {v} exceeds usize"))
    }

    /// Length prefix validated against the bytes actually remaining
    /// (`elem_bytes` per element) — prevents huge bogus allocations.
    pub(crate) fn len(&mut self, elem_bytes: usize, what: &str) -> DecodeResult<usize> {
        let n = self.usize(what)?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(elem_bytes.max(1))
            .is_none_or(|b| b > remaining)
        {
            return Err(format!(
                "{what} length {n} does not fit the remaining {remaining} bytes"
            ));
        }
        Ok(n)
    }

    pub(crate) fn f64(&mut self, what: &str) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn bool(&mut self, what: &str) -> DecodeResult<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("{what}: invalid bool byte {v}")),
        }
    }

    pub(crate) fn str(&mut self, what: &str) -> DecodeResult<String> {
        let n = self.len(1, what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what}: invalid UTF-8"))
    }

    pub(crate) fn f64s(&mut self, what: &str) -> DecodeResult<Vec<f64>> {
        let n = self.len(8, what)?;
        (0..n).map(|_| self.f64(what)).collect()
    }

    pub(crate) fn usizes(&mut self, what: &str) -> DecodeResult<Vec<usize>> {
        let n = self.len(8, what)?;
        (0..n).map(|_| self.usize(what)).collect()
    }

    /// A category-label vector written by [`Enc::cats`]. The packed
    /// payload (`n × width` bytes) is bounds-checked against the remaining
    /// buffer before anything is allocated.
    pub(crate) fn cats(&mut self, what: &str) -> DecodeResult<Vec<usize>> {
        let n = self.usize(what)?;
        let width = self.u8(what)? as usize;
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(format!("{what}: invalid packed width {width}"));
        }
        let bytes = n
            .checked_mul(width)
            .ok_or_else(|| format!("{what}: length {n} x width {width} overflows"))?;
        let packed = self.take(bytes, what)?;
        if width == 1 {
            return Ok(packed.iter().map(|&b| b as usize).collect());
        }
        packed
            .chunks_exact(width)
            .map(|c| {
                let mut word = [0u8; 8];
                word[..width].copy_from_slice(c);
                let v = u64::from_le_bytes(word);
                usize::try_from(v).map_err(|_| format!("{what}: label {v} exceeds usize"))
            })
            .collect()
    }
}

/// Encode an `Option`: presence flag, then the value.
pub(crate) fn enc_opt<T>(e: &mut Enc, v: &Option<T>, mut f: impl FnMut(&mut Enc, &T)) {
    e.bool(v.is_some());
    if let Some(v) = v {
        f(e, v);
    }
}

/// Decode an `Option` written by [`enc_opt`].
pub(crate) fn dec_opt<T>(
    d: &mut Dec,
    what: &str,
    mut f: impl FnMut(&mut Dec) -> DecodeResult<T>,
) -> DecodeResult<Option<T>> {
    Ok(if d.bool(what)? { Some(f(d)?) } else { None })
}

/// Word-wise FNV-1a over a byte slice — the one checksum behind journal
/// records, checkpoints, knowledge-base files and net frames. Folds 8-byte
/// little-endian words into the crate's shared `Fnv` (one multiply per
/// word, see `Fnv::eat_word`), then the tail bytes, then the length, and
/// finishes with the SplitMix avalanche.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h.eat_word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for &b in words.remainder() {
        h.eat(b as u64);
    }
    h.eat(bytes.len() as u64);
    h.finish()
}

// ---------------------------------------------------------------------
// Domain types.
// ---------------------------------------------------------------------

fn enc_meta(e: &mut Enc, m: &ArtifactMeta) {
    e.str(&m.workload);
    e.u64(m.workload_fp);
    e.u64(m.hyper_fp);
    e.u64(m.hardware_fp);
    e.u64(m.seed);
    e.u64(m.labeled_fp);
    e.u64(m.unlabeled_fp);
    e.u64(m.upstream_fp);
}

fn dec_meta(d: &mut Dec) -> DecodeResult<ArtifactMeta> {
    Ok(ArtifactMeta {
        workload: d.str("meta.workload")?,
        workload_fp: d.u64("meta.workload_fp")?,
        hyper_fp: d.u64("meta.hyper_fp")?,
        hardware_fp: d.u64("meta.hardware_fp")?,
        seed: d.u64("meta.seed")?,
        labeled_fp: d.u64("meta.labeled_fp")?,
        unlabeled_fp: d.u64("meta.unlabeled_fp")?,
        upstream_fp: d.u64("meta.upstream_fp")?,
    })
}

fn enc_config(e: &mut Enc, c: &KnobConfig) {
    e.usizes(c.indices());
}

fn dec_config(d: &mut Dec) -> DecodeResult<KnobConfig> {
    Ok(KnobConfig::new(d.usizes("knob config")?))
}

fn enc_placement(e: &mut Enc, p: &Placement) {
    e.usize(p.len());
    for node in 0..p.len() {
        e.bool(p.is_cloud(NodeId(node)));
    }
}

fn dec_placement(d: &mut Dec) -> DecodeResult<Placement> {
    let n = d.len(1, "placement nodes")?;
    let mut p = Placement::all_onprem(n);
    for node in 0..n {
        p.set_cloud(NodeId(node), d.bool("placement node")?);
    }
    Ok(p)
}

fn enc_placement_profile(e: &mut Enc, p: &PlacementProfile) {
    enc_placement(e, &p.placement);
    e.f64(p.runtime_mean);
    e.f64(p.runtime_max);
    e.f64(p.cloud_usd);
    e.f64(p.onprem_work);
    e.f64(p.onprem_work_max);
}

fn dec_placement_profile(d: &mut Dec) -> DecodeResult<PlacementProfile> {
    Ok(PlacementProfile {
        placement: dec_placement(d)?,
        runtime_mean: d.f64("placement runtime_mean")?,
        runtime_max: d.f64("placement runtime_max")?,
        cloud_usd: d.f64("placement cloud_usd")?,
        onprem_work: d.f64("placement onprem_work")?,
        onprem_work_max: d.f64("placement onprem_work_max")?,
    })
}

fn enc_config_profile(e: &mut Enc, p: &ConfigProfile) {
    enc_config(e, &p.config);
    e.f64(p.work_mean);
    e.f64(p.work_max);
    e.usize(p.placements.len());
    for pl in &p.placements {
        enc_placement_profile(e, pl);
    }
    e.f64s(&p.qual_by_category);
    e.f64s(&p.cost_by_category);
}

fn dec_config_profile(d: &mut Dec) -> DecodeResult<ConfigProfile> {
    let config = dec_config(d)?;
    let work_mean = d.f64("profile work_mean")?;
    let work_max = d.f64("profile work_max")?;
    let n = d.len(1, "profile placements")?;
    let placements = (0..n)
        .map(|_| dec_placement_profile(d))
        .collect::<DecodeResult<Vec<_>>>()?;
    Ok(ConfigProfile {
        config,
        work_mean,
        work_max,
        placements,
        qual_by_category: d.f64s("profile qual_by_category")?,
        cost_by_category: d.f64s("profile cost_by_category")?,
    })
}

fn enc_categories(e: &mut Enc, c: &ContentCategories) {
    e.usize(c.len());
    for i in 0..c.len() {
        e.f64s(c.center(i));
    }
}

fn dec_categories(d: &mut Dec) -> DecodeResult<ContentCategories> {
    let n = d.len(8, "category centers")?;
    if n == 0 {
        return Err("category set must be non-empty".into());
    }
    let centers = (0..n)
        .map(|_| d.f64s("category center"))
        .collect::<DecodeResult<Vec<_>>>()?;
    let dim = centers[0].len();
    if centers.iter().any(|c| c.len() != dim) {
        return Err("ragged category centers".into());
    }
    Ok(ContentCategories::from_centers(centers))
}

fn enc_timeline(e: &mut Enc, t: &CategoryTimeline) {
    e.cats(&t.categories);
    e.f64(t.seg_len);
    e.usize(t.n_categories);
}

fn dec_timeline(d: &mut Dec) -> DecodeResult<CategoryTimeline> {
    let categories = d.cats("timeline categories")?;
    let seg_len = d.f64("timeline seg_len")?;
    let n_categories = d.usize("timeline n_categories")?;
    CategoryTimeline::new(categories, seg_len, n_categories)
        .map_err(|e| format!("invalid timeline: {e}"))
}

fn enc_mlp(e: &mut Enc, net: &Mlp) {
    e.usize(net.layers().len());
    for layer in net.layers() {
        e.usize(layer.weights.rows());
        e.usize(layer.weights.cols());
        e.f64s(layer.weights.as_slice());
        e.f64s(&layer.bias);
        e.u8(match layer.activation {
            Activation::Identity => 0,
            Activation::Relu => 1,
            Activation::Softmax => 2,
        });
    }
}

fn dec_mlp(d: &mut Dec) -> DecodeResult<Mlp> {
    let n = d.len(1, "network layers")?;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        let rows = d.usize("layer rows")?;
        let cols = d.usize("layer cols")?;
        let weights = d.f64s("layer weights")?;
        if weights.len() != rows.checked_mul(cols).ok_or("layer shape overflow")? {
            return Err(format!(
                "layer weight buffer {} != {rows}x{cols}",
                weights.len()
            ));
        }
        let bias = d.f64s("layer bias")?;
        if bias.len() != rows {
            return Err(format!("layer bias {} != {rows} outputs", bias.len()));
        }
        let activation = match d.u8("layer activation")? {
            0 => Activation::Identity,
            1 => Activation::Relu,
            2 => Activation::Softmax,
            v => return Err(format!("unknown activation tag {v}")),
        };
        layers.push(Layer {
            weights: Matrix::from_vec(rows, cols, weights),
            bias,
            activation,
        });
    }
    Mlp::from_layers(layers).ok_or_else(|| "network layers do not chain".to_string())
}

pub(crate) fn enc_forecaster(e: &mut Enc, f: &Forecaster) {
    let spec = f.spec();
    e.f64(spec.input_secs);
    e.usize(spec.input_splits);
    e.f64(spec.horizon_secs);
    e.f64(spec.sample_every_secs);
    e.usize(f.n_categories());
    e.f64(f.val_mae);
    enc_mlp(e, f.net());
}

pub(crate) fn dec_forecaster(d: &mut Dec) -> DecodeResult<Forecaster> {
    let spec = ForecastSpec {
        input_secs: d.f64("forecaster input_secs")?,
        input_splits: d.usize("forecaster input_splits")?,
        horizon_secs: d.f64("forecaster horizon_secs")?,
        sample_every_secs: d.f64("forecaster sample_every_secs")?,
    };
    let n_categories = d.usize("forecaster n_categories")?;
    let val_mae = d.f64("forecaster val_mae")?;
    let net = dec_mlp(d)?;
    Forecaster::from_parts(net, spec, n_categories, val_mae)
        .map_err(|e| format!("invalid forecaster: {e}"))
}

fn enc_hyper(e: &mut Enc, h: &SkyscraperConfig) {
    e.usize(h.n_categories);
    e.f64(h.switch_period_secs);
    e.f64(h.planned_interval_secs);
    e.f64(h.forecast_input_secs);
    e.usize(h.forecast_input_splits);
    e.f64(h.forecast_sample_every_secs);
    e.usize(h.forecast_epochs);
    e.f64(h.forecast_val_fraction);
    e.usize(h.n_presample);
    e.usize(h.n_search);
    e.f64(h.categorize_fraction);
    e.f64(h.runtime_safety);
    e.u64(h.seed);
    e.usize(h.n_workers);
}

fn dec_hyper(d: &mut Dec) -> DecodeResult<SkyscraperConfig> {
    Ok(SkyscraperConfig {
        n_categories: d.usize("hyper n_categories")?,
        switch_period_secs: d.f64("hyper switch_period_secs")?,
        planned_interval_secs: d.f64("hyper planned_interval_secs")?,
        forecast_input_secs: d.f64("hyper forecast_input_secs")?,
        forecast_input_splits: d.usize("hyper forecast_input_splits")?,
        forecast_sample_every_secs: d.f64("hyper forecast_sample_every_secs")?,
        forecast_epochs: d.usize("hyper forecast_epochs")?,
        forecast_val_fraction: d.f64("hyper forecast_val_fraction")?,
        n_presample: d.usize("hyper n_presample")?,
        n_search: d.usize("hyper n_search")?,
        categorize_fraction: d.f64("hyper categorize_fraction")?,
        runtime_safety: d.f64("hyper runtime_safety")?,
        seed: d.u64("hyper seed")?,
        n_workers: d.usize("hyper n_workers")?,
    })
}

fn enc_hardware(e: &mut Enc, h: &HardwareSpec) {
    e.usize(h.cluster.cores);
    e.f64(h.cluster.core_speed);
    e.f64(h.cloud.rtt_secs);
    e.f64(h.cloud.uplink_bytes_per_sec);
    e.f64(h.cloud.downlink_bytes_per_sec);
    e.f64(h.cloud.usd_per_compute_sec);
    e.f64(h.cloud.usd_per_invocation);
    e.f64(h.buffer_bytes);
}

fn dec_hardware(d: &mut Dec) -> DecodeResult<HardwareSpec> {
    Ok(HardwareSpec {
        cluster: ClusterSpec {
            cores: d.usize("hardware cores")?,
            core_speed: d.f64("hardware core_speed")?,
        },
        cloud: CloudSpec {
            rtt_secs: d.f64("cloud rtt_secs")?,
            uplink_bytes_per_sec: d.f64("cloud uplink")?,
            downlink_bytes_per_sec: d.f64("cloud downlink")?,
            usd_per_compute_sec: d.f64("cloud usd_per_compute_sec")?,
            usd_per_invocation: d.f64("cloud usd_per_invocation")?,
        },
        buffer_bytes: d.f64("hardware buffer_bytes")?,
    })
}

pub(crate) fn enc_plan(e: &mut Enc, p: &KnobPlan) {
    e.usize(p.n_categories());
    for c in 0..p.n_categories() {
        e.f64s(p.histogram(c));
    }
}

pub(crate) fn dec_plan(d: &mut Dec) -> DecodeResult<KnobPlan> {
    let n = d.len(8, "plan rows")?;
    if n == 0 {
        return Err("plan needs at least one category".into());
    }
    let rows = (0..n)
        .map(|_| d.f64s("plan row"))
        .collect::<DecodeResult<Vec<_>>>()?;
    let k = rows[0].len();
    if k == 0 || rows.iter().any(|r| r.len() != k) {
        return Err("ragged or empty plan rows".into());
    }
    // Reload without renormalizing so persisted plans stay bitwise intact.
    Ok(KnobPlan::from_normalized(rows))
}

// ---------------------------------------------------------------------
// Artifacts.
// ---------------------------------------------------------------------

/// Encode a fitted model.
pub(crate) fn encode_model(m: &FittedModel) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(&m.workload_name);
    e.f64(m.seg_len);
    e.usize(m.configs.len());
    for p in &m.configs {
        enc_config_profile(&mut e, p);
    }
    e.usizes(&m.quality_rank);
    e.usizes(&m.cost_rank);
    enc_categories(&mut e, &m.categories);
    enc_forecaster(&mut e, &m.forecaster);
    e.usize(m.discriminator);
    enc_timeline(&mut e, &m.tail);
    enc_hyper(&mut e, &m.hyper);
    enc_hardware(&mut e, &m.hardware);
    e.f64(m.residual_p99);
    e.into_bytes()
}

/// Decode a fitted model.
pub(crate) fn decode_model(bytes: &[u8]) -> DecodeResult<FittedModel> {
    let mut d = Dec::new(bytes);
    let m = dec_model_body(&mut d)?;
    expect_finished(&d, "model")?;
    validate_model(&m)?;
    Ok(m)
}

/// Cross-field semantic validation: a checksum-valid but crafted or
/// corrupted payload must fail decoding here, not panic in the online
/// phase (out-of-range discriminator, non-permutation ranks, ragged
/// category columns, empty placements).
fn validate_model(m: &FittedModel) -> DecodeResult<()> {
    let n_k = m.configs.len();
    let n_c = m.categories.len();
    if n_k == 0 {
        return Err("model has no configurations".into());
    }
    if !(m.seg_len.is_finite() && m.seg_len > 0.0) {
        return Err("model segment length must be positive".into());
    }
    if m.discriminator >= n_k {
        return Err(format!(
            "discriminator {} out of range for {n_k} configurations",
            m.discriminator
        ));
    }
    let is_permutation = |rank: &[usize]| {
        let mut seen = vec![false; n_k];
        rank.len() == n_k
            && rank
                .iter()
                .all(|&i| i < n_k && !std::mem::replace(&mut seen[i], true))
    };
    if !is_permutation(&m.quality_rank) || !is_permutation(&m.cost_rank) {
        return Err("rank vectors are not permutations of the configurations".into());
    }
    for (k, p) in m.configs.iter().enumerate() {
        if p.placements.is_empty() {
            return Err(format!("configuration {k} has no placements"));
        }
        if p.qual_by_category.len() != n_c || p.cost_by_category.len() != n_c {
            return Err(format!(
                "configuration {k} category columns do not match {n_c} categories"
            ));
        }
    }
    for c in 0..n_c {
        if m.categories.center(c).len() != n_k {
            return Err(format!(
                "category center {c} dimension != {n_k} configurations"
            ));
        }
    }
    if m.tail.n_categories != n_c || m.forecaster.n_categories() != n_c {
        return Err("tail/forecaster category count does not match the categories".into());
    }
    Ok(())
}

fn dec_model_body(d: &mut Dec) -> DecodeResult<FittedModel> {
    let workload_name = d.str("model workload_name")?;
    let seg_len = d.f64("model seg_len")?;
    let n = d.len(1, "model configs")?;
    let configs = (0..n)
        .map(|_| dec_config_profile(d))
        .collect::<DecodeResult<Vec<_>>>()?;
    Ok(FittedModel {
        workload_name,
        seg_len,
        configs,
        quality_rank: d.usizes("model quality_rank")?,
        cost_rank: d.usizes("model cost_rank")?,
        categories: dec_categories(d)?,
        forecaster: dec_forecaster(d)?,
        discriminator: d.usize("model discriminator")?,
        tail: dec_timeline(d)?,
        hyper: dec_hyper(d)?,
        hardware: dec_hardware(d)?,
        residual_p99: d.f64("model residual_p99")?,
    })
}

pub(crate) fn expect_finished(d: &Dec, what: &str) -> DecodeResult<()> {
    if d.finished() {
        Ok(())
    } else {
        Err(format!("trailing bytes after {what}"))
    }
}

/// Encode a profile artifact.
pub(crate) fn encode_profile(a: &ProfileArtifact) -> Vec<u8> {
    let mut e = Enc::new();
    enc_meta(&mut e, &a.meta);
    e.usize(a.configs.len());
    for p in &a.configs {
        enc_config_profile(&mut e, p);
    }
    e.f64(a.filter_configs_secs);
    e.f64(a.filter_placements_secs);
    e.into_bytes()
}

/// Decode a profile artifact.
pub(crate) fn decode_profile(bytes: &[u8]) -> DecodeResult<ProfileArtifact> {
    let mut d = Dec::new(bytes);
    let meta = dec_meta(&mut d)?;
    let n = d.len(1, "profile configs")?;
    let configs = (0..n)
        .map(|_| dec_config_profile(&mut d))
        .collect::<DecodeResult<Vec<_>>>()?;
    let a = ProfileArtifact {
        meta,
        configs,
        filter_configs_secs: d.f64("profile filter_configs_secs")?,
        filter_placements_secs: d.f64("profile filter_placements_secs")?,
    };
    expect_finished(&d, "profile artifact")?;
    Ok(a)
}

/// Encode a category artifact.
pub(crate) fn encode_category(a: &CategoryArtifact) -> Vec<u8> {
    let mut e = Enc::new();
    enc_meta(&mut e, &a.meta);
    enc_categories(&mut e, &a.categories);
    e.usize(a.qual_by_category.len());
    for row in &a.qual_by_category {
        e.f64s(row);
    }
    e.usize(a.cost_by_category.len());
    for row in &a.cost_by_category {
        e.f64s(row);
    }
    e.usizes(&a.quality_rank);
    e.usizes(&a.cost_rank);
    e.usize(a.discriminator);
    e.f64(a.categorize_secs);
    e.into_bytes()
}

/// Decode a category artifact.
pub(crate) fn decode_category(bytes: &[u8]) -> DecodeResult<CategoryArtifact> {
    let mut d = Dec::new(bytes);
    let meta = dec_meta(&mut d)?;
    let categories = dec_categories(&mut d)?;
    let nq = d.len(8, "category qual rows")?;
    let qual_by_category = (0..nq)
        .map(|_| d.f64s("category qual row"))
        .collect::<DecodeResult<Vec<_>>>()?;
    let nc = d.len(8, "category cost rows")?;
    let cost_by_category = (0..nc)
        .map(|_| d.f64s("category cost row"))
        .collect::<DecodeResult<Vec<_>>>()?;
    let a = CategoryArtifact {
        meta,
        categories,
        qual_by_category,
        cost_by_category,
        quality_rank: d.usizes("category quality_rank")?,
        cost_rank: d.usizes("category cost_rank")?,
        discriminator: d.usize("category discriminator")?,
        categorize_secs: d.f64("category categorize_secs")?,
    };
    expect_finished(&d, "category artifact")?;
    Ok(a)
}

/// Encode a forecast artifact.
pub(crate) fn encode_forecast(a: &ForecastArtifact) -> Vec<u8> {
    let mut e = Enc::new();
    enc_meta(&mut e, &a.meta);
    enc_forecaster(&mut e, &a.forecaster);
    enc_timeline(&mut e, &a.tail);
    e.f64(a.residual_p99);
    e.usize(a.n_train_samples);
    e.f64(a.forecast_data_secs);
    e.f64(a.train_secs);
    e.into_bytes()
}

/// Decode a forecast artifact.
pub(crate) fn decode_forecast(bytes: &[u8]) -> DecodeResult<ForecastArtifact> {
    let mut d = Dec::new(bytes);
    let a = ForecastArtifact {
        meta: dec_meta(&mut d)?,
        forecaster: dec_forecaster(&mut d)?,
        tail: dec_timeline(&mut d)?,
        residual_p99: d.f64("forecast residual_p99")?,
        n_train_samples: d.usize("forecast n_train_samples")?,
        forecast_data_secs: d.f64("forecast forecast_data_secs")?,
        train_secs: d.f64("forecast train_secs")?,
    };
    expect_finished(&d, "forecast artifact")?;
    Ok(a)
}

/// Encode a plan artifact.
pub(crate) fn encode_plan_artifact(a: &PlanArtifact) -> Vec<u8> {
    let mut e = Enc::new();
    enc_meta(&mut e, &a.meta);
    let model = encode_model(&a.model);
    e.usize(model.len());
    e.buf.extend_from_slice(&model);
    enc_plan(&mut e, &a.seed_plan);
    e.into_bytes()
}

/// Decode a plan artifact.
pub(crate) fn decode_plan_artifact(bytes: &[u8]) -> DecodeResult<PlanArtifact> {
    let mut d = Dec::new(bytes);
    let meta = dec_meta(&mut d)?;
    let model_len = d.len(1, "plan model")?;
    let model_bytes = d.take(model_len, "plan model")?;
    let model = decode_model(model_bytes)?;
    let seed_plan = dec_plan(&mut d)?;
    let a = PlanArtifact {
        meta,
        model,
        seed_plan,
    };
    expect_finished(&d, "plan artifact")?;
    Ok(a)
}

/// Encode an evaluation memo (entries in sorted-key order so files are
/// byte-stable).
pub(crate) fn encode_memo(memo: &EvalMemo) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(memo.scope());
    let entries = memo.sorted_entries();
    e.usize(entries.len());
    for (key, value) in entries {
        let (tag, config, content) = key.parts();
        e.u8(tag as u8);
        e.usize(config.len());
        for &c in config {
            e.u32(c);
        }
        for &bits in content {
            e.u64(bits);
        }
        e.f64(value[0]);
        e.f64(value[1]);
    }
    e.into_bytes()
}

/// Decode an evaluation memo.
pub(crate) fn decode_memo(bytes: &[u8]) -> DecodeResult<EvalMemo> {
    let mut d = Dec::new(bytes);
    let scope = d.u64("memo scope")?;
    let n = d.len(1 + 8 + 4 * 8 + 2 * 8, "memo entries")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let tag =
            MemoTag::from_u8(d.u8("memo tag")?).ok_or_else(|| "unknown memo tag".to_string())?;
        let n_cfg = d.len(4, "memo config")?;
        let config: Box<[u32]> = (0..n_cfg)
            .map(|_| d.u32("memo config index"))
            .collect::<DecodeResult<_>>()?;
        let mut content = [0u64; 4];
        for slot in &mut content {
            *slot = d.u64("memo content bits")?;
        }
        let value = [d.f64("memo value 0")?, d.f64("memo value 1")?];
        entries.push((MemoKey::from_parts(tag, config, content), value));
    }
    expect_finished(&d, "memo")?;
    Ok(EvalMemo::from_parts(scope, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_bitwise() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(123_456);
        e.u64(u64::MAX);
        e.f64(std::f64::consts::PI);
        e.f64(f64::NAN);
        e.f64(-0.0);
        e.bool(true);
        e.str("héllo");
        e.f64s(&[1.0, f64::INFINITY, f64::MIN_POSITIVE]);
        e.usizes(&[0, 9, 42]);
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert_eq!(d.u32("c").unwrap(), 123_456);
        assert_eq!(d.u64("d").unwrap(), u64::MAX);
        assert_eq!(
            d.f64("e").unwrap().to_bits(),
            std::f64::consts::PI.to_bits()
        );
        assert_eq!(d.f64("f").unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(d.f64("g").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.bool("h").unwrap());
        assert_eq!(d.str("i").unwrap(), "héllo");
        let v = d.f64s("j").unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[1], f64::INFINITY);
        assert_eq!(d.usizes("k").unwrap(), vec![0, 9, 42]);
        assert!(d.finished());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.f64s(&[1.0, 2.0, 3.0]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(d.f64s("vec").is_err(), "cut {cut} must fail");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocating() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // claims 2^64-1 elements
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.f64s("vec").is_err());
        let mut d = Dec::new(&bytes);
        assert!(d.str("s").is_err());
    }

    #[test]
    fn placement_and_plan_roundtrip() {
        let mut p = Placement::all_onprem(5);
        p.set_cloud(NodeId(1), true);
        p.set_cloud(NodeId(4), true);
        let mut e = Enc::new();
        enc_placement(&mut e, &p);
        let bytes = e.into_bytes();
        let q = dec_placement(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(p, q);

        let plan = KnobPlan::new(vec![vec![0.25, 0.75], vec![1.0, 3.0]]);
        let mut e = Enc::new();
        enc_plan(&mut e, &plan);
        let bytes = e.into_bytes();
        let plan2 = dec_plan(&mut Dec::new(&bytes)).unwrap();
        for c in 0..plan.n_categories() {
            let a: Vec<u64> = plan.histogram(c).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = plan2.histogram(c).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "row {c} must survive bitwise");
        }
    }

    #[test]
    fn mlp_roundtrip_preserves_forward_pass_bitwise() {
        let net = Mlp::forecaster(8, 3, 77);
        let mut e = Enc::new();
        enc_mlp(&mut e, &net);
        let bytes = e.into_bytes();
        let net2 = dec_mlp(&mut Dec::new(&bytes)).unwrap();
        let x = [0.3, -0.1, 0.9, 0.0, 0.5, 0.2, 0.8, 0.4];
        let a = net.forward(&x);
        let b = net2.forward(&x);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn packed_categories_roundtrip_at_every_width_boundary() {
        let mut cases: Vec<(Vec<usize>, u8)> = vec![
            (vec![], 1),
            (vec![0; 5], 1),
            (vec![0, 255, 7], 1),
            (vec![256, 0, 1], 2),
            (vec![65_535, 3], 2),
            (vec![65_536, 0], 4),
        ];
        #[cfg(target_pointer_width = "64")]
        cases.extend([
            (vec![u32::MAX as usize, 1], 4),
            (vec![1 << 32, 2], 8),
            (vec![usize::MAX, 0], 8),
        ]);
        for (vs, width) in cases {
            let mut e = Enc::new();
            e.cats(&vs);
            e.u8(0xEE); // sentinel: the decoder must stop exactly at the end
            let bytes = e.into_bytes();
            assert_eq!(bytes[8], width, "width byte for {vs:?}");
            assert_eq!(bytes.len(), 8 + 1 + vs.len() * width as usize + 1);
            let mut d = Dec::new(&bytes);
            assert_eq!(d.cats("cats").unwrap(), vs);
            assert_eq!(d.u8("sentinel").unwrap(), 0xEE);
            assert!(d.finished());
        }
    }

    #[test]
    fn malformed_packed_categories_are_errors_not_panics() {
        let header = |n: u64, width: u8| {
            let mut e = Enc::new();
            e.u64(n);
            e.u8(width);
            e.into_bytes()
        };
        // A width outside {1, 2, 4, 8}.
        for width in [0u8, 3, 5, 7, 9, 16, 255] {
            let mut bytes = header(2, width);
            bytes.extend_from_slice(&[0; 32]);
            let err = Dec::new(&bytes).cats("cats").unwrap_err();
            assert!(err.contains("width"), "{err}");
        }
        // Every truncation of a valid payload, header included.
        let mut e = Enc::new();
        e.cats(&[1, 300, 2, 65_535]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            assert!(Dec::new(&bytes[..cut]).cats("cats").is_err(), "cut {cut}");
        }
        // Lengths whose byte count overflows usize (two of them wrap to
        // exactly 0), and one that merely exceeds the buffer: rejected
        // before anything is allocated.
        for (n, width) in [(u64::MAX, 8), (1 << 61, 8), (1 << 62, 4), (1 << 40, 1)] {
            let bytes = header(n, width);
            assert!(
                Dec::new(&bytes).cats("cats").is_err(),
                "n {n} width {width}"
            );
        }
    }

    #[test]
    fn checksum_changes_on_every_single_edit_across_word_boundaries() {
        for len in 0..=40usize {
            let data: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(37) ^ 0x5A)
                .collect();
            let base = checksum(&data);
            for i in 0..len {
                for bit in 0..8 {
                    let mut flipped = data.clone();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(base, checksum(&flipped), "len {len} byte {i} bit {bit}");
                }
            }
            let mut longer = data.clone();
            longer.push(0);
            assert_ne!(base, checksum(&longer), "len {len}: appended zero");
            if len > 0 {
                assert_ne!(base, checksum(&data[..len - 1]), "len {len}: dropped byte");
            }
        }
    }

    #[test]
    fn checksum_top_bit_flips_in_two_words_do_not_cancel() {
        // A bare xor-multiply word fold passes a top-bit difference through
        // the multiply unchanged, so flipping bit 63 of any two words would
        // cancel; the fold's xor-shift must break that.
        let data = vec![0x3Cu8; 64];
        let base = checksum(&data);
        for a in 0..8 {
            for b in a + 1..8 {
                let mut flipped = data.clone();
                flipped[8 * a + 7] ^= 0x80;
                flipped[8 * b + 7] ^= 0x80;
                assert_ne!(base, checksum(&flipped), "words {a} and {b}");
            }
        }
    }

    #[test]
    fn checksum_detects_flips() {
        let data = b"some artifact payload".to_vec();
        let c = checksum(&data);
        let mut flipped = data.clone();
        flipped[3] ^= 1;
        assert_ne!(c, checksum(&flipped));
        assert_eq!(c, checksum(&data));
    }
}
