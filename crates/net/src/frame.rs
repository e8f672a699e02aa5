//! Socket transport and frame codec.
//!
//! Every protocol message travels as one frame, reusing the framing
//! discipline of the knowledge-base codec and the runtime journal:
//!
//! ```text
//! u32 len (LE) · u64 word-wise FNV-1a checksum of body (LE) · body
//! ```
//!
//! preceded — once per direction, per connection — by the 8-byte preamble
//! from [`proto::preamble`] (magic + protocol version). The checksum is
//! computed by the same [`skyscraper::offline::codec::checksum`] the
//! knowledge base uses, so a frame that validates here would validate
//! there bit for bit.
//!
//! Reads distinguish three shapes, mirroring the journal's torn-tail
//! discipline: a clean EOF **at a frame boundary** is a normal
//! disconnect ([`FrameIn::Eof`]); an EOF or persistent stall **mid-frame**
//! is a torn frame ([`NetError::Frame`]); a checksum or length violation
//! is a corrupt frame (also [`NetError::Frame`]) — all typed, never a
//! panic, never an unbounded allocation.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use skyscraper::offline::codec::checksum;
use skyscraper::serve::proto::{self, PREAMBLE_LEN};

/// Default cap on a single frame body. A push of one full planning epoch
/// at paper-scale quotas is well under a megabyte; 64 MiB leaves room for
/// large batches while keeping a corrupt length field harmless.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Errors surfaced by the socket transport and protocol client.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// An I/O error outside the timeout/framing taxonomy.
    Io {
        /// The operation that failed.
        op: &'static str,
        /// The underlying error, stringified.
        detail: String,
    },
    /// A read or write did not complete within the configured deadline.
    Timeout {
        /// The operation that timed out.
        op: &'static str,
    },
    /// Framing violation: bad preamble, oversized or empty length, torn
    /// frame (EOF or stall mid-frame), or checksum mismatch. The peer
    /// connection is unusable after this.
    Frame {
        /// What was violated.
        detail: String,
    },
    /// A frame arrived intact but its body is not a valid protocol
    /// message for the expected direction.
    Proto {
        /// Decoder context.
        detail: String,
    },
    /// The server rejected a request. Terminal rejections surface here
    /// directly; retryable ones only after the client's retry budget is
    /// exhausted.
    Rejected {
        /// Whether the server classified the cause as retryable.
        retryable: bool,
        /// The engine error's display form.
        reason: String,
        /// The server's planning epoch when it rejected.
        epoch: u64,
    },
    /// The server answered with a typed protocol error (and closed the
    /// connection).
    Server {
        /// The server's error detail.
        detail: String,
    },
    /// The connection closed before the expected reply arrived.
    Closed,
    /// Could not establish a connection within the configured attempts.
    ConnectFailed {
        /// The last underlying error, stringified.
        detail: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io { op, detail } => write!(f, "I/O error during {op}: {detail}"),
            NetError::Timeout { op } => write!(f, "{op} timed out"),
            NetError::Frame { detail } => write!(f, "framing violation: {detail}"),
            NetError::Proto { detail } => write!(f, "protocol violation: {detail}"),
            NetError::Rejected {
                retryable, reason, ..
            } => {
                let kind = if *retryable { "retryable" } else { "terminal" };
                write!(f, "{kind} rejection: {reason}")
            }
            NetError::Server { detail } => write!(f, "server error: {detail}"),
            NetError::Closed => write!(f, "connection closed before the expected reply"),
            NetError::ConnectFailed { detail } => write!(f, "connect failed: {detail}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A serving endpoint: a TCP bind/connect address or a Unix socket path.
#[derive(Debug, Clone, PartialEq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7641`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// One connected socket of either family. Delegates `Read`/`Write` so the
/// framing layer is transport-agnostic.
#[derive(Debug)]
pub(crate) enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Sock {
    pub(crate) fn connect(ep: &Endpoint) -> std::io::Result<Sock> {
        match ep {
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Sock::Tcp),
            Endpoint::Unix(path) => UnixStream::connect(path).map(Sock::Unix),
        }
    }

    pub(crate) fn try_clone(&self) -> std::io::Result<Sock> {
        match self {
            Sock::Tcp(s) => s.try_clone().map(Sock::Tcp),
            Sock::Unix(s) => s.try_clone().map(Sock::Unix),
        }
    }

    pub(crate) fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        match self {
            Sock::Tcp(s) => s.set_read_timeout(Some(d)),
            Sock::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }

    pub(crate) fn set_write_timeout(&self, d: Duration) -> std::io::Result<()> {
        match self {
            Sock::Tcp(s) => s.set_write_timeout(Some(d)),
            Sock::Unix(s) => s.set_write_timeout(Some(d)),
        }
    }

    /// Best-effort full shutdown — used to wake a peer thread blocked in a
    /// read when the connection is being torn down.
    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Sock::Tcp(s) => s.shutdown(Shutdown::Both),
            Sock::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }

    pub(crate) fn peer_label(&self) -> String {
        match self {
            Sock::Tcp(s) => s
                .peer_addr()
                .map(|a: SocketAddr| a.to_string())
                .unwrap_or_else(|_| "tcp:?".into()),
            Sock::Unix(_) => "unix".into(),
        }
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Sock::Tcp(s) => s.flush(),
            Sock::Unix(s) => s.flush(),
        }
    }
}

/// Result of one framed read.
#[derive(Debug)]
pub(crate) enum FrameIn {
    /// A validated frame body.
    Frame(Vec<u8>),
    /// The peer closed cleanly at a frame boundary.
    Eof,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Fill `buf` from `r`, treating socket read timeouts as *ticks*:
/// at a frame boundary (`got == 0` and `boundary`), each tick consults
/// `keep_waiting` — `false` aborts with [`NetError::Timeout`] (an idle
/// give-up, the stream still clean). Mid-buffer, up to `stall_limit`
/// consecutive ticks are tolerated before the frame is declared torn.
/// Returns `false` on a clean EOF at the boundary; EOF mid-buffer is a
/// torn frame.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    boundary: bool,
    stall_limit: u32,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<bool, NetError> {
    let mut got = 0usize;
    let mut stalls = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && boundary {
                    return Ok(false);
                }
                return Err(NetError::Frame {
                    detail: format!("torn frame: peer closed after {got} of {} bytes", buf.len()),
                });
            }
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if got == 0 && boundary {
                    if !keep_waiting() {
                        return Err(NetError::Timeout { op: "frame read" });
                    }
                } else {
                    stalls += 1;
                    if stalls > stall_limit || !keep_waiting() {
                        return Err(NetError::Frame {
                            detail: format!(
                                "torn frame: peer stalled after {got} of {} bytes",
                                buf.len()
                            ),
                        });
                    }
                }
            }
            Err(e) => {
                return Err(NetError::Io {
                    op: "frame read",
                    detail: e.to_string(),
                })
            }
        }
    }
    Ok(true)
}

/// Read one frame. `keep_waiting` is consulted on every idle tick (socket
/// read timeout with nothing buffered); returning `false` ends the wait
/// with [`NetError::Timeout`]. `stall_limit` bounds how many consecutive
/// ticks a *partially received* frame may stall before it is declared
/// torn.
pub(crate) fn read_frame(
    r: &mut impl Read,
    max_frame: usize,
    stall_limit: u32,
    mut keep_waiting: impl FnMut() -> bool,
) -> Result<FrameIn, NetError> {
    let mut len_buf = [0u8; 4];
    if !read_full(r, &mut len_buf, true, stall_limit, &mut keep_waiting)? {
        return Ok(FrameIn::Eof);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(NetError::Frame {
            detail: "empty frame body".into(),
        });
    }
    if len > max_frame {
        return Err(NetError::Frame {
            detail: format!("frame body of {len} bytes exceeds the {max_frame}-byte cap"),
        });
    }
    let mut sum_buf = [0u8; 8];
    read_full(r, &mut sum_buf, false, stall_limit, &mut keep_waiting)?;
    let stated = u64::from_le_bytes(sum_buf);
    let mut body = vec![0u8; len];
    read_full(r, &mut body, false, stall_limit, &mut keep_waiting)?;
    let actual = checksum(&body);
    if actual != stated {
        return Err(NetError::Frame {
            detail: format!("checksum mismatch: stated {stated:#018x}, computed {actual:#018x}"),
        });
    }
    Ok(FrameIn::Frame(body))
}

/// Write one frame (`len · checksum · body`). Socket write timeouts
/// surface as [`NetError::Timeout`]; a timed-out write leaves the stream
/// torn, so the caller must drop the connection.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), NetError> {
    debug_assert!(!body.is_empty(), "protocol messages are never empty");
    let mut head = [0u8; 12];
    head[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&checksum(body).to_le_bytes());
    for chunk in [&head[..], body] {
        w.write_all(chunk).map_err(|e| {
            if is_timeout(&e) {
                NetError::Timeout { op: "frame write" }
            } else {
                NetError::Io {
                    op: "frame write",
                    detail: e.to_string(),
                }
            }
        })?;
    }
    w.flush().map_err(|e| NetError::Io {
        op: "frame flush",
        detail: e.to_string(),
    })
}

/// Send this side's connection preamble.
pub(crate) fn write_preamble(w: &mut impl Write) -> Result<(), NetError> {
    w.write_all(&proto::preamble()).map_err(|e| NetError::Io {
        op: "preamble write",
        detail: e.to_string(),
    })
}

/// Receive and validate the peer's connection preamble.
pub(crate) fn read_preamble(
    r: &mut impl Read,
    stall_limit: u32,
    mut keep_waiting: impl FnMut() -> bool,
) -> Result<(), NetError> {
    let mut buf = [0u8; PREAMBLE_LEN];
    if !read_full(r, &mut buf, true, stall_limit, &mut keep_waiting)? {
        return Err(NetError::Closed);
    }
    proto::check_preamble(&buf).map_err(|detail| NetError::Frame { detail })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello frame").unwrap();
        write_frame(&mut wire, &[7u8; 1000]).unwrap();
        let mut r = &wire[..];
        match read_frame(&mut r, MAX_FRAME_BYTES, 4, || true).unwrap() {
            FrameIn::Frame(b) => assert_eq!(b, b"hello frame"),
            other => panic!("expected frame, got {other:?}"),
        }
        match read_frame(&mut r, MAX_FRAME_BYTES, 4, || true).unwrap() {
            FrameIn::Frame(b) => assert_eq!(b, vec![7u8; 1000]),
            other => panic!("expected frame, got {other:?}"),
        }
        match read_frame(&mut r, MAX_FRAME_BYTES, 4, || true).unwrap() {
            FrameIn::Eof => {}
            other => panic!("expected clean EOF, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_frames_are_typed() {
        // Flipped body byte → checksum mismatch.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let err = read_frame(&mut &wire[..], MAX_FRAME_BYTES, 4, || true).unwrap_err();
        assert!(matches!(err, NetError::Frame { ref detail } if detail.contains("checksum")));

        // Oversized stated length → rejected before allocation.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        wire[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &wire[..], MAX_FRAME_BYTES, 4, || true).unwrap_err();
        assert!(matches!(err, NetError::Frame { ref detail } if detail.contains("cap")));

        // Zero-length frame.
        let wire = [0u8; 12];
        let err = read_frame(&mut &wire[..], MAX_FRAME_BYTES, 4, || true).unwrap_err();
        assert!(matches!(err, NetError::Frame { ref detail } if detail.contains("empty")));

        // Truncated mid-frame → torn, not clean EOF.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"a longer payload body").unwrap();
        wire.truncate(wire.len() - 5);
        let err = read_frame(&mut &wire[..], MAX_FRAME_BYTES, 4, || true).unwrap_err();
        assert!(matches!(err, NetError::Frame { ref detail } if detail.contains("torn")));
    }

    #[test]
    fn preamble_validates() {
        let mut wire = Vec::new();
        write_preamble(&mut wire).unwrap();
        read_preamble(&mut &wire[..], 4, || true).unwrap();
        wire[0] ^= 0xff;
        let err = read_preamble(&mut &wire[..], 4, || true).unwrap_err();
        assert!(matches!(err, NetError::Frame { .. }));
    }
}
