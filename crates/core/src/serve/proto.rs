//! Wire messages of the network ingest front-end.
//!
//! The protocol is a request/reply exchange of length-prefixed binary
//! frames over a byte stream (TCP or a Unix-domain socket). It reuses the
//! framing discipline proven by the knowledge-base codec
//! ([`crate::offline::codec`]) and the runtime journal
//! (`runtime/wal.rs`): little-endian integers, floats as raw bits, every
//! frame `u32 len · u64 word-wise FNV-1a checksum · body`, and a magic +
//! version preamble exchanged once per direction when a connection opens.
//! Segment bodies are encoded by the *same* functions the write-ahead log
//! uses, so a segment that survives the wire is bit-for-bit the segment the
//! journal would have recorded.
//!
//! Frame transport (preamble exchange, length/checksum validation, torn
//! reads) lives in the `vetl-net` crate; this module only defines the
//! message bodies so the mapping onto [`crate::runtime::IngestRuntime`]
//! stays next to the engine it serves.
//!
//! ## Requests and replies
//!
//! | request        | replies                                        |
//! |----------------|------------------------------------------------|
//! | `Hello`        | `Hello` (server name, shard count, epoch)      |
//! | `OpenStream`   | `StreamOpened` \| `Rejected`                   |
//! | `PushSegments` | `Accepted` \| `Rejected`                       |
//! | `CloseStream`  | `StreamClosed` \| `Rejected`                   |
//! | `GetStats`     | `Stats`                                        |
//! | `GetMetrics`   | `Metrics` (full registry snapshot)             |
//! | `Shutdown`     | `ShuttingDown`, then per-stream `Outcome`s     |
//!
//! Any malformed frame or undecodable body is answered with `Error` and a
//! connection close. [`Reply::Rejected`] carries
//! [`SkyError::is_retryable`](crate::SkyError::is_retryable) verbatim plus
//! the server's current epoch as a backoff hint and the count of segments
//! accepted before the failure — the client re-feeds only the
//! unacknowledged suffix, exactly mirroring the
//! [`SkyError::BatchFailed`](crate::SkyError) resume contract.

use vetl_video::Segment;

use crate::obs::{dec_snapshot, enc_snapshot, MetricsSnapshot};
use crate::offline::codec::{Dec, DecodeResult, Enc};
use crate::online::session::{
    dec_options, dec_outcome, enc_options, enc_outcome, IngestOptions, IngestOutcome,
};
use crate::runtime::wal::{dec_segment, enc_segment};

/// Connection-preamble magic, sent once per direction before any frame.
pub const NET_MAGIC: &[u8; 6] = b"SKYNET";
/// Protocol version carried in the preamble; bumped on any wire change.
/// Version 2 added the dedup counters to the `Stats` reply. Version 3
/// added the `GetMetrics` request and its `Metrics` registry-snapshot
/// reply. Version 4 added `reorder_window` to the ingest options carried
/// by `Open`. Version 5 switched the frame checksum to the word-wise fold.
pub const NET_VERSION: u16 = 5;
/// Bytes of the connection preamble (magic + little-endian version).
pub const PREAMBLE_LEN: usize = 8;

/// Wire bytes of one encoded segment (`u64` index, five `f64` fields, one
/// `bool`) — the element size handed to the decoder's length guard so a
/// corrupt count cannot trigger an unbounded allocation.
const SEG_WIRE_BYTES: usize = 49;

/// The connection preamble both sides send before their first frame.
pub fn preamble() -> [u8; PREAMBLE_LEN] {
    let mut p = [0u8; PREAMBLE_LEN];
    p[..6].copy_from_slice(NET_MAGIC);
    p[6..].copy_from_slice(&NET_VERSION.to_le_bytes());
    p
}

/// Validate a received connection preamble.
pub fn check_preamble(bytes: &[u8; PREAMBLE_LEN]) -> Result<(), String> {
    if &bytes[..6] != NET_MAGIC {
        return Err("bad protocol magic (not a Skyscraper ingest endpoint)".into());
    }
    let version = u16::from_le_bytes([bytes[6], bytes[7]]);
    if version != NET_VERSION {
        return Err(format!(
            "protocol version {version} is not supported (this build speaks {NET_VERSION})"
        ));
    }
    Ok(())
}

/// A client → server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Introduce the client; the server answers with its identity and the
    /// shard count chosen at startup.
    Hello {
        /// Free-form client identity (diagnostics only).
        client: String,
    },
    /// Admit a stream under a registered profile.
    OpenStream {
        /// Name of a server-registered model/workload profile.
        profile: String,
        /// Workload id the stream is admitted under (shows in outcomes).
        name: String,
        /// Per-stream ingestion options.
        options: IngestOptions,
    },
    /// Push a contiguous batch of segments to an owned stream.
    PushSegments {
        /// Slot index from `StreamOpened`.
        stream: u64,
        /// Caller-side sequence of the first segment in `segs` (echoed in
        /// `Accepted` so re-feeds stay aligned after partial acceptance).
        base_seq: u64,
        /// The segments, in arrival order.
        segs: Vec<Segment>,
    },
    /// Close an owned stream (in-band marker; outcome settles at drain).
    CloseStream {
        /// Slot index from `StreamOpened`.
        stream: u64,
    },
    /// Snapshot the runtime metrics.
    GetStats,
    /// Snapshot the full observability registry (counters, gauges,
    /// latency histograms) — the wire face of
    /// [`crate::obs::MetricsRegistry::snapshot`].
    GetMetrics,
    /// Stop accepting work, settle every stream, flush `Outcome`s.
    Shutdown,
}

/// A server → client message.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Answer to [`Request::Hello`].
    Hello {
        /// Server identity.
        server: String,
        /// Worker shards chosen at startup (`VETL_SHARDS` override or the
        /// detected core count — see [`crate::serve::detect_shards`]).
        shards: u64,
        /// Planning epochs completed so far.
        epoch: u64,
    },
    /// The stream was admitted; `stream` is its admission-order slot.
    StreamOpened {
        /// Slot index to use in subsequent requests.
        stream: u64,
    },
    /// A push batch was accepted end to end: segments `[from, to)` of the
    /// caller's sequence are journaled and enqueued.
    Accepted {
        /// The stream acknowledged.
        stream: u64,
        /// First caller-side sequence accepted (the request's `base_seq`).
        from: u64,
        /// One past the last caller-side sequence accepted.
        to: u64,
    },
    /// The request failed. `retryable` mirrors
    /// [`SkyError::is_retryable`](crate::SkyError::is_retryable): `true`
    /// means back off and re-send the unacknowledged suffix, `false` means
    /// the same input will always be rejected.
    Rejected {
        /// Whether backing off and retrying can succeed.
        retryable: bool,
        /// Human-readable cause (the engine error's display form).
        reason: String,
        /// The server's planning epoch — a backoff hint: a retryable
        /// rejection resolves no earlier than the next epoch dispatch.
        epoch: u64,
        /// Segments of the batch accepted before the failure. Accepted
        /// segments are journaled and enqueued — never re-feed them.
        accepted: u64,
    },
    /// Answer to [`Request::CloseStream`].
    StreamClosed {
        /// The stream whose close marker was enqueued.
        stream: u64,
    },
    /// A settled per-stream outcome, flushed during shutdown drain.
    Outcome {
        /// The stream's slot index.
        stream: u64,
        /// The workload id it was admitted under.
        workload_id: String,
        /// The stream's full ingestion outcome.
        outcome: IngestOutcome,
    },
    /// Answer to [`Request::GetStats`].
    Stats {
        /// Worker shards.
        shards: u64,
        /// Planning epochs completed.
        epoch: u64,
        /// Times the joint LP has run.
        joint_plans: u64,
        /// Streams currently active.
        active_streams: u64,
        /// Segments ingested across all streams.
        segments_processed: u64,
        /// Unspent cloud credits across current leases, dollars.
        wallet_left_usd: f64,
        /// Dedup cache lookups across all streams (0 when dedup is off).
        dedup_lookups: u64,
        /// Dedup cache hits (full + ground-truth-only) across all streams.
        dedup_hits: u64,
        /// Inference input bytes skipped thanks to full dedup hits.
        dedup_bytes_saved: f64,
        /// Cloud dollars saved by zero-charged tolerant dedup hits.
        dedup_spend_saved_usd: f64,
        /// Entries currently held by the shared dedup cache.
        dedup_cache_entries: u64,
    },
    /// Answer to [`Request::GetMetrics`]: the server's full observability
    /// registry at service time. With recording off the snapshot is a
    /// zeroed registry whose gauges carry the same
    /// [`RuntimeMetrics`](crate::runtime::RuntimeMetrics) projection a
    /// recording server reports (see
    /// [`IngestService::metrics_snapshot`](crate::serve::IngestService::metrics_snapshot)).
    Metrics {
        /// The registry snapshot, in pinned exposition order.
        snapshot: MetricsSnapshot,
    },
    /// Answer to [`Request::Shutdown`]: the server stops accepting work
    /// and flushes `Outcome`s to surviving connections.
    ShuttingDown,
    /// Protocol violation (undecodable body, unowned stream, …). The
    /// server closes the connection after sending this.
    Error {
        /// What was violated.
        detail: String,
    },
}

const REQ_HELLO: u8 = 1;
const REQ_OPEN: u8 = 2;
const REQ_PUSH: u8 = 3;
const REQ_CLOSE: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;
const REQ_METRICS: u8 = 7;

const REP_HELLO: u8 = 1;
const REP_OPENED: u8 = 2;
const REP_ACCEPTED: u8 = 3;
const REP_REJECTED: u8 = 4;
const REP_CLOSED: u8 = 5;
const REP_OUTCOME: u8 = 6;
const REP_STATS: u8 = 7;
const REP_SHUTTING_DOWN: u8 = 8;
const REP_ERROR: u8 = 9;
const REP_METRICS: u8 = 10;

fn finish<T>(d: &Dec<'_>, v: T, what: &str) -> DecodeResult<T> {
    if d.finished() {
        Ok(v)
    } else {
        Err(format!("trailing bytes after {what}"))
    }
}

impl Request {
    /// Encode into a frame body (the frame header is the transport's job).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::PushSegments {
                stream,
                base_seq,
                segs,
            } => Request::encode_push(*stream, *base_seq, segs),
            Request::Hello { client } => {
                let mut e = Enc::new();
                e.u8(REQ_HELLO);
                e.str(client);
                e.into_bytes()
            }
            Request::OpenStream {
                profile,
                name,
                options,
            } => {
                let mut e = Enc::new();
                e.u8(REQ_OPEN);
                e.str(profile);
                e.str(name);
                enc_options(&mut e, options);
                e.into_bytes()
            }
            Request::CloseStream { stream } => {
                let mut e = Enc::new();
                e.u8(REQ_CLOSE);
                e.u64(*stream);
                e.into_bytes()
            }
            Request::GetStats => {
                let mut e = Enc::new();
                e.u8(REQ_STATS);
                e.into_bytes()
            }
            Request::GetMetrics => {
                let mut e = Enc::new();
                e.u8(REQ_METRICS);
                e.into_bytes()
            }
            Request::Shutdown => {
                let mut e = Enc::new();
                e.u8(REQ_SHUTDOWN);
                e.into_bytes()
            }
        }
    }

    /// Encode a push without owning the segments — the client's re-feed
    /// path sends shrinking suffixes of one slice and must not clone it
    /// per round trip.
    pub fn encode_push(stream: u64, base_seq: u64, segs: &[Segment]) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(REQ_PUSH);
        e.u64(stream);
        e.u64(base_seq);
        e.usize(segs.len());
        for s in segs {
            enc_segment(&mut e, s);
        }
        e.into_bytes()
    }

    /// Decode a frame body. Every length is validated against the bytes
    /// actually present before any allocation.
    pub fn decode(bytes: &[u8]) -> DecodeResult<Request> {
        let mut d = Dec::new(bytes);
        match d.u8("request tag")? {
            REQ_HELLO => {
                let client = d.str("client name")?;
                finish(&d, Request::Hello { client }, "Hello")
            }
            REQ_OPEN => {
                let profile = d.str("profile name")?;
                let name = d.str("stream name")?;
                let options = dec_options(&mut d)?;
                finish(
                    &d,
                    Request::OpenStream {
                        profile,
                        name,
                        options,
                    },
                    "OpenStream",
                )
            }
            REQ_PUSH => {
                let stream = d.u64("stream slot")?;
                let base_seq = d.u64("base sequence")?;
                let n = d.len(SEG_WIRE_BYTES, "segment count")?;
                let mut segs = Vec::with_capacity(n);
                for _ in 0..n {
                    segs.push(dec_segment(&mut d)?);
                }
                finish(
                    &d,
                    Request::PushSegments {
                        stream,
                        base_seq,
                        segs,
                    },
                    "PushSegments",
                )
            }
            REQ_CLOSE => {
                let stream = d.u64("stream slot")?;
                finish(&d, Request::CloseStream { stream }, "CloseStream")
            }
            REQ_STATS => finish(&d, Request::GetStats, "GetStats"),
            REQ_METRICS => finish(&d, Request::GetMetrics, "GetMetrics"),
            REQ_SHUTDOWN => finish(&d, Request::Shutdown, "Shutdown"),
            t => Err(format!("unknown request tag {t}")),
        }
    }
}

impl Reply {
    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Reply::Hello {
                server,
                shards,
                epoch,
            } => {
                e.u8(REP_HELLO);
                e.str(server);
                e.u64(*shards);
                e.u64(*epoch);
            }
            Reply::StreamOpened { stream } => {
                e.u8(REP_OPENED);
                e.u64(*stream);
            }
            Reply::Accepted { stream, from, to } => {
                e.u8(REP_ACCEPTED);
                e.u64(*stream);
                e.u64(*from);
                e.u64(*to);
            }
            Reply::Rejected {
                retryable,
                reason,
                epoch,
                accepted,
            } => {
                e.u8(REP_REJECTED);
                e.bool(*retryable);
                e.str(reason);
                e.u64(*epoch);
                e.u64(*accepted);
            }
            Reply::StreamClosed { stream } => {
                e.u8(REP_CLOSED);
                e.u64(*stream);
            }
            Reply::Outcome {
                stream,
                workload_id,
                outcome,
            } => {
                e.u8(REP_OUTCOME);
                e.u64(*stream);
                e.str(workload_id);
                enc_outcome(&mut e, outcome);
            }
            Reply::Stats {
                shards,
                epoch,
                joint_plans,
                active_streams,
                segments_processed,
                wallet_left_usd,
                dedup_lookups,
                dedup_hits,
                dedup_bytes_saved,
                dedup_spend_saved_usd,
                dedup_cache_entries,
            } => {
                e.u8(REP_STATS);
                e.u64(*shards);
                e.u64(*epoch);
                e.u64(*joint_plans);
                e.u64(*active_streams);
                e.u64(*segments_processed);
                e.f64(*wallet_left_usd);
                e.u64(*dedup_lookups);
                e.u64(*dedup_hits);
                e.f64(*dedup_bytes_saved);
                e.f64(*dedup_spend_saved_usd);
                e.u64(*dedup_cache_entries);
            }
            Reply::Metrics { snapshot } => {
                e.u8(REP_METRICS);
                enc_snapshot(&mut e, snapshot);
            }
            Reply::ShuttingDown => e.u8(REP_SHUTTING_DOWN),
            Reply::Error { detail } => {
                e.u8(REP_ERROR);
                e.str(detail);
            }
        }
        e.into_bytes()
    }

    /// Decode a frame body.
    pub fn decode(bytes: &[u8]) -> DecodeResult<Reply> {
        let mut d = Dec::new(bytes);
        match d.u8("reply tag")? {
            REP_HELLO => {
                let server = d.str("server name")?;
                let shards = d.u64("shards")?;
                let epoch = d.u64("epoch")?;
                finish(
                    &d,
                    Reply::Hello {
                        server,
                        shards,
                        epoch,
                    },
                    "Hello",
                )
            }
            REP_OPENED => {
                let stream = d.u64("stream slot")?;
                finish(&d, Reply::StreamOpened { stream }, "StreamOpened")
            }
            REP_ACCEPTED => {
                let stream = d.u64("stream slot")?;
                let from = d.u64("from seq")?;
                let to = d.u64("to seq")?;
                finish(&d, Reply::Accepted { stream, from, to }, "Accepted")
            }
            REP_REJECTED => {
                let retryable = d.bool("retryable")?;
                let reason = d.str("reason")?;
                let epoch = d.u64("epoch")?;
                let accepted = d.u64("accepted")?;
                finish(
                    &d,
                    Reply::Rejected {
                        retryable,
                        reason,
                        epoch,
                        accepted,
                    },
                    "Rejected",
                )
            }
            REP_CLOSED => {
                let stream = d.u64("stream slot")?;
                finish(&d, Reply::StreamClosed { stream }, "StreamClosed")
            }
            REP_OUTCOME => {
                let stream = d.u64("stream slot")?;
                let workload_id = d.str("workload id")?;
                let outcome = dec_outcome(&mut d)?;
                finish(
                    &d,
                    Reply::Outcome {
                        stream,
                        workload_id,
                        outcome,
                    },
                    "Outcome",
                )
            }
            REP_STATS => {
                let shards = d.u64("shards")?;
                let epoch = d.u64("epoch")?;
                let joint_plans = d.u64("joint plans")?;
                let active_streams = d.u64("active streams")?;
                let segments_processed = d.u64("segments processed")?;
                let wallet_left_usd = d.f64("wallet left")?;
                let dedup_lookups = d.u64("dedup lookups")?;
                let dedup_hits = d.u64("dedup hits")?;
                let dedup_bytes_saved = d.f64("dedup bytes saved")?;
                let dedup_spend_saved_usd = d.f64("dedup spend saved")?;
                let dedup_cache_entries = d.u64("dedup cache entries")?;
                finish(
                    &d,
                    Reply::Stats {
                        shards,
                        epoch,
                        joint_plans,
                        active_streams,
                        segments_processed,
                        wallet_left_usd,
                        dedup_lookups,
                        dedup_hits,
                        dedup_bytes_saved,
                        dedup_spend_saved_usd,
                        dedup_cache_entries,
                    },
                    "Stats",
                )
            }
            REP_METRICS => {
                let snapshot = dec_snapshot(&mut d)?;
                finish(&d, Reply::Metrics { snapshot }, "Metrics")
            }
            REP_SHUTTING_DOWN => finish(&d, Reply::ShuttingDown, "ShuttingDown"),
            REP_ERROR => {
                let detail = d.str("error detail")?;
                finish(&d, Reply::Error { detail }, "Error")
            }
            t => Err(format!("unknown reply tag {t}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vetl_video::{ContentState, SimTime};

    fn seg(i: u64) -> Segment {
        Segment {
            index: i,
            duration: 2.0,
            content: ContentState {
                time: SimTime::from_secs(2.0 * i as f64),
                difficulty: 0.25 + i as f64 * 1e-3,
                activity: 0.5,
                event_active: i.is_multiple_of(3),
            },
            bytes: 1.5e6,
        }
    }

    #[test]
    fn preamble_round_trips() {
        let p = preamble();
        assert_eq!(p.len(), PREAMBLE_LEN);
        check_preamble(&p).expect("own preamble");
        let mut bad = p;
        bad[0] ^= 0xff;
        assert!(check_preamble(&bad).unwrap_err().contains("magic"));
        let mut wrong_version = p;
        wrong_version[6] = 99;
        assert!(check_preamble(&wrong_version)
            .unwrap_err()
            .contains("version"));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Hello {
                client: "cam-agent".into(),
            },
            Request::OpenStream {
                profile: "traffic".into(),
                name: "cam-03".into(),
                options: IngestOptions::default(),
            },
            Request::PushSegments {
                stream: 7,
                base_seq: 120,
                segs: (0..5).map(seg).collect(),
            },
            Request::PushSegments {
                stream: 0,
                base_seq: 0,
                segs: vec![],
            },
            Request::CloseStream { stream: 3 },
            Request::GetStats,
            Request::GetMetrics,
            Request::Shutdown,
        ];
        for r in reqs {
            let bytes = r.encode();
            let back = Request::decode(&bytes).expect("decode");
            // `IngestOptions` carries no PartialEq; compare re-encodings —
            // the codec is canonical.
            assert_eq!(bytes, back.encode());
        }
    }

    #[test]
    fn encode_push_matches_owned_encoding() {
        let segs: Vec<Segment> = (0..4).map(seg).collect();
        let owned = Request::PushSegments {
            stream: 2,
            base_seq: 9,
            segs: segs.clone(),
        }
        .encode();
        assert_eq!(owned, Request::encode_push(2, 9, &segs));
    }

    #[test]
    fn replies_round_trip() {
        let reps = vec![
            Reply::Hello {
                server: "skyscraper".into(),
                shards: 8,
                epoch: 3,
            },
            Reply::StreamOpened { stream: 4 },
            Reply::Accepted {
                stream: 4,
                from: 30,
                to: 60,
            },
            Reply::Rejected {
                retryable: true,
                reason: "overloaded".into(),
                epoch: 5,
                accepted: 12,
            },
            Reply::StreamClosed { stream: 4 },
            Reply::Outcome {
                stream: 4,
                workload_id: "cam-04".into(),
                outcome: IngestOutcome::default(),
            },
            Reply::Stats {
                shards: 2,
                epoch: 9,
                joint_plans: 11,
                active_streams: 3,
                segments_processed: 2_700,
                wallet_left_usd: 0.75,
                dedup_lookups: 2_700,
                dedup_hits: 1_200,
                dedup_bytes_saved: 1.8e9,
                dedup_spend_saved_usd: 0.42,
                dedup_cache_entries: 900,
            },
            Reply::Metrics {
                snapshot: {
                    let reg = crate::obs::MetricsRegistry::new();
                    reg.inc(crate::obs::CounterId::NetRequests);
                    reg.set_gauge(crate::obs::GaugeId::WalletLeftUsd, 0.25);
                    reg.record(
                        crate::obs::HistId::NetRequest,
                        std::time::Duration::from_micros(17),
                    );
                    reg.snapshot()
                },
            },
            Reply::ShuttingDown,
            Reply::Error {
                detail: "unknown request tag 42".into(),
            },
        ];
        for r in reps {
            let bytes = r.encode();
            let back = Reply::decode(&bytes).expect("decode");
            // Reply has no PartialEq (IngestOutcome holds a trace); compare
            // re-encodings instead — the codec is canonical.
            assert_eq!(bytes, back.encode());
        }
    }

    #[test]
    fn malformed_bodies_decode_typed() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[200]).unwrap_err().contains("tag"));
        // A push whose segment count overruns the actual bytes must be
        // rejected by the length guard, not attempted.
        let mut e = Enc::new();
        e.u8(3); // REQ_PUSH
        e.u64(0);
        e.u64(0);
        e.usize(1 << 40);
        let err = Request::decode(&e.into_bytes()).unwrap_err();
        assert!(err.contains("segment count"), "{err}");
        // Trailing bytes after a valid message are a violation.
        let mut bytes = Request::GetStats.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).unwrap_err().contains("trailing"));
        assert!(Reply::decode(&[250]).unwrap_err().contains("tag"));
    }
}
