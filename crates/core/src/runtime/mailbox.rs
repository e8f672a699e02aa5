//! Bounded per-stream ingress mailboxes.
//!
//! Each admitted stream owns one [`Mailbox`]: a FIFO of in-band
//! [`Envelope`]s bounded to **one planning epoch of segments**. The bound is
//! what turns overload into typed backpressure
//! ([`SkyError::Overloaded`](crate::error::SkyError::Overloaded)) instead of
//! silent lag: a producer can never race more than one epoch ahead of the
//! joint replanning barrier. Close markers travel in-band, so a stream's
//! closure point is pinned to an exact position in its segment sequence —
//! the property that keeps churn deterministic under sharding.

use std::collections::VecDeque;

use vetl_video::Segment;

/// An in-band mailbox message.
#[derive(Debug, Clone)]
pub(crate) enum Envelope {
    /// A video segment to ingest.
    Segment(Segment),
    /// Close marker: settle the stream after the segments queued before it.
    Close,
}

/// A bounded FIFO of pending input for one stream.
///
/// Capacity counts *segments* (the close marker is always accepted); it is
/// kept equal to the stream's next-epoch quota by the runtime.
#[derive(Debug)]
pub(crate) struct Mailbox {
    q: VecDeque<Envelope>,
    capacity: usize,
    segments: usize,
    close_queued: bool,
}

impl Mailbox {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            q: VecDeque::new(),
            capacity,
            segments: 0,
            close_queued: false,
        }
    }

    /// Segments the mailbox may hold (one epoch quota).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Re-bound the mailbox (the quota can change when the active stream
    /// set changes). Already-queued envelopes are never dropped.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Segments currently queued.
    pub(crate) fn segments_queued(&self) -> usize {
        self.segments
    }

    /// A close marker is queued.
    pub(crate) fn close_queued(&self) -> bool {
        self.close_queued
    }

    /// The mailbox holds nothing at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The first queued envelope is a close marker.
    pub(crate) fn close_is_first(&self) -> bool {
        matches!(self.q.front(), Some(Envelope::Close))
    }

    /// Enqueue a run of segments at once. The caller has already checked
    /// room against [`capacity`](Self::capacity); one reserve covers the
    /// whole run, so a producer touches the queue's allocator once per
    /// chunk instead of once per segment.
    pub(crate) fn push_segments(&mut self, segs: &[Segment]) {
        debug_assert!(
            self.segments + segs.len() <= self.capacity,
            "room pre-checked by the caller"
        );
        self.q.reserve(segs.len());
        self.q.extend(segs.iter().map(|s| Envelope::Segment(*s)));
        self.segments += segs.len();
    }

    /// Enqueue a segment unconditionally, even past capacity. Reserved for
    /// reorder-gate releases: one gate-filling arrival can release up to
    /// `window + 1` already-accepted (journaled) segments at once, and
    /// those must never be dropped even when they overshoot the epoch
    /// quota. The overshoot is bounded by the gate window and the dispatch
    /// loop already tolerates `used > quota`.
    pub(crate) fn force_push(&mut self, seg: &Segment) {
        self.q.push_back(Envelope::Segment(*seg));
        self.segments += 1;
    }

    /// Enqueue the in-band close marker (always accepted).
    pub(crate) fn push_close(&mut self) {
        self.q.push_back(Envelope::Close);
        self.close_queued = true;
    }

    /// Snapshot the queued envelopes in order (durable checkpoints).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Envelope> {
        self.q.iter()
    }

    /// Rebuild a mailbox from a snapshot: capacity, the queued envelopes in
    /// order, and the sticky close flag (which outlives a drained close
    /// marker, so it must be restored independently of the queue contents).
    pub(crate) fn restore(
        capacity: usize,
        envelopes: impl IntoIterator<Item = Envelope>,
        close_queued: bool,
    ) -> Self {
        let mut m = Self::new(capacity);
        for env in envelopes {
            match env {
                Envelope::Segment(seg) => {
                    m.q.push_back(Envelope::Segment(seg));
                    m.segments += 1;
                }
                Envelope::Close => m.q.push_back(Envelope::Close),
            }
        }
        m.close_queued = close_queued;
        m
    }

    /// Take the whole queue for processing.
    pub(crate) fn drain(&mut self) -> VecDeque<Envelope> {
        self.segments = 0;
        // close_queued intentionally stays set: a drained close marker means
        // the stream is on its way to settled and accepts no new input.
        std::mem::take(&mut self.q)
    }

    /// [`drain`](Self::drain) into a caller-owned buffer, ping-pong style:
    /// `out` is cleared, then swapped with the queue, so the mailbox inherits
    /// `out`'s (empty but sized) allocation for the next epoch and the caller
    /// gets the queued envelopes without either side allocating. Steady-state
    /// dispatch reuses the same two buffers forever.
    pub(crate) fn drain_into(&mut self, out: &mut VecDeque<Envelope>) {
        self.segments = 0;
        out.clear();
        std::mem::swap(&mut self.q, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vetl_video::{ContentParams, Recording, SyntheticCamera};

    fn seg() -> Segment {
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(1), 2.0);
        Recording::record(&mut cam, 4.0).segments()[0]
    }

    #[test]
    fn capacity_counts_segments_but_not_close() {
        let s = seg();
        let mut m = Mailbox::new(2);
        m.push_segments(&[s, s]);
        assert_eq!(m.segments_queued(), m.capacity(), "mailbox is full");
        m.push_close();
        assert!(m.close_queued());
        assert_eq!(m.segments_queued(), 2, "the close marker is not a segment");
    }

    #[test]
    fn force_push_overshoots_capacity_without_dropping() {
        let s = seg();
        let mut m = Mailbox::new(1);
        m.push_segments(&[s]);
        m.force_push(&s);
        m.force_push(&s);
        assert_eq!(m.segments_queued(), 3);
        assert_eq!(m.drain().len(), 3);
    }

    #[test]
    fn drain_empties_and_close_survives_drain() {
        let s = seg();
        let mut m = Mailbox::new(4);
        assert!(!m.close_is_first());
        m.push_segments(&[s]);
        m.push_close();
        assert!(!m.close_is_first());
        let batch = m.drain();
        assert_eq!(batch.len(), 2);
        assert!(m.is_empty());
        assert_eq!(m.segments_queued(), 0);
        assert!(m.close_queued(), "a drained close still marks the stream");
    }

    #[test]
    fn close_is_first_detects_boundary_markers() {
        let mut m = Mailbox::new(4);
        m.push_close();
        assert!(m.close_is_first());
    }

    #[test]
    fn push_segments_counts_every_segment_of_the_run() {
        let s = seg();
        let mut m = Mailbox::new(4);
        m.push_segments(&[s, s, s]);
        assert_eq!(m.segments_queued(), 3);
        m.push_segments(&[s]);
        assert_eq!(m.segments_queued(), m.capacity());
        assert_eq!(m.iter().count(), 4);
    }

    #[test]
    fn drain_into_swaps_buffers_without_losing_envelopes() {
        let s = seg();
        let mut m = Mailbox::new(4);
        m.push_segments(&[s, s]);
        m.push_close();
        let mut out = VecDeque::from(vec![Envelope::Close]); // stale content
        m.drain_into(&mut out);
        assert_eq!(out.len(), 3, "stale buffer contents were cleared first");
        assert!(m.is_empty());
        assert_eq!(m.segments_queued(), 0);
        assert!(m.close_queued(), "sticky close flag survives drain_into");
        // Ping-pong: the next epoch reuses the handed-back allocation.
        let cap_before = out.capacity();
        m.push_segments(&[s]);
        m.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert!(out.capacity() >= 1);
        let _ = cap_before;
    }
}
