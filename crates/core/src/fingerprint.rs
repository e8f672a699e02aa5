//! Shared fingerprint primitives.
//!
//! Every stable identity in the knowledge base — workload fingerprints,
//! artifact provenance, recording hashes, memo keys, RNG identities, file
//! checksums — folds bits through this one FNV-1a-style primitive, so the
//! constants and the folding semantics cannot drift apart between call
//! sites. Fingerprints are pure `u64` arithmetic over value *bits*:
//! deterministic across runs and platforms.

use vetl_video::{ContentState, Segment};

/// Incremental FNV-1a style bit folder.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn eat(&mut self, bits: u64) -> &mut Self {
        self.0 ^= bits;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        self
    }

    /// Fold a whole 64-bit data word (the word-wise checksum's step). The
    /// xor-shift before the multiply moves the word's high half into the
    /// low half, which the multiply then carries into every higher bit:
    /// with a bare xor-multiply a flipped top bit passes through the
    /// multiply unchanged, so two such flips in different words cancel.
    pub(crate) fn eat_word(&mut self, w: u64) -> &mut Self {
        self.0 ^= w;
        self.0 ^= self.0 >> 32;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        self
    }

    pub(crate) fn eat_f64(&mut self, v: f64) -> &mut Self {
        self.eat(v.to_bits())
    }

    pub(crate) fn eat_f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.eat(vs.len() as u64);
        for &v in vs {
            self.eat_f64(v);
        }
        self
    }

    pub(crate) fn eat_usizes(&mut self, vs: &[usize]) -> &mut Self {
        self.eat(vs.len() as u64);
        for &v in vs {
            self.eat(v as u64);
        }
        self
    }

    pub(crate) fn eat_str(&mut self, s: &str) -> &mut Self {
        self.eat(s.len() as u64);
        for b in s.bytes() {
            self.eat(b as u64);
        }
        self
    }

    /// Finish with a full-avalanche mix.
    pub(crate) fn finish(&self) -> u64 {
        splitmix(self.0)
    }
}

/// SplitMix64 finalizer — a full-avalanche 64-bit mix.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical fingerprint of a full segment: an FNV-1a fold over
/// [`Segment::identity_words`] — every field the wire/journal codecs
/// serialize, in wire order, as raw bits. Two segments have equal
/// signatures iff (modulo the 64-bit fold) they would encode to the same
/// bytes, so this is the one segment identity shared by codecs, dedup
/// bookkeeping, and external callers.
pub fn content_signature(seg: &Segment) -> u64 {
    let mut f = Fnv::new();
    for w in seg.identity_words() {
        f.eat(w);
    }
    f.finish()
}

/// The bit-exact identity of a content state — THE single definition of
/// which fields make two contents "the same evaluation input". Memo keys,
/// RNG identities, and recording fingerprints all consume exactly this
/// array, so they can never disagree about a field. When `ContentState`
/// grows a behavior-bearing field, extend this list (and only this list).
pub(crate) fn content_identity_bits(content: &ContentState) -> [u64; 4] {
    [
        content.time.as_secs().to_bits(),
        content.difficulty.to_bits(),
        content.activity.to_bits(),
        content.event_active as u64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vetl_video::{ContentParams, ContentProcess, SimTime};

    #[test]
    fn fnv_is_order_and_length_sensitive() {
        let a = Fnv::new().eat(1).eat(2).finish();
        let b = Fnv::new().eat(2).eat(1).finish();
        assert_ne!(a, b);
        let c = Fnv::new().eat_f64s(&[1.0, 2.0]).finish();
        let d = Fnv::new().eat_f64s(&[1.0]).eat_f64s(&[2.0]).finish();
        assert_ne!(c, d, "length prefixes prevent concatenation ambiguity");
    }

    #[test]
    fn content_identity_covers_every_field() {
        let base = ContentState {
            time: SimTime::from_secs(10.0),
            difficulty: 0.4,
            activity: 0.6,
            event_active: false,
        };
        let bits = content_identity_bits(&base);
        let mut t = base;
        t.time = SimTime::from_secs(11.0);
        assert_ne!(content_identity_bits(&t), bits);
        let mut d = base;
        d.difficulty = 0.41;
        assert_ne!(content_identity_bits(&d), bits);
        let mut a = base;
        a.activity = 0.61;
        assert_ne!(content_identity_bits(&a), bits);
        let mut e = base;
        e.event_active = true;
        assert_ne!(content_identity_bits(&e), bits);
    }

    #[test]
    fn content_signature_covers_every_wire_field() {
        let mut p = ContentProcess::new(ContentParams::default(), 2.0);
        let base = Segment {
            index: 5,
            duration: 2.0,
            content: p.step(),
            bytes: 120_000.0,
        };
        let sig = content_signature(&base);
        let mut s = base;
        s.index += 1;
        assert_ne!(content_signature(&s), sig);
        let mut s = base;
        s.duration += 0.25;
        assert_ne!(content_signature(&s), sig);
        let mut s = base;
        s.content.time = s.content.time.advance(1.0);
        assert_ne!(content_signature(&s), sig);
        let mut s = base;
        s.content.difficulty += 0.01;
        assert_ne!(content_signature(&s), sig);
        let mut s = base;
        s.content.activity += 0.01;
        assert_ne!(content_signature(&s), sig);
        let mut s = base;
        s.content.event_active = !s.content.event_active;
        assert_ne!(content_signature(&s), sig);
        let mut s = base;
        s.bytes += 1.0;
        assert_ne!(content_signature(&s), sig);
    }
}
