//! The grid wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is
//!
//! ```text
//! [magic u32][version u16][type u8][flags u8][payload len u32]
//! [payload ...][checksum u32]
//! ```
//!
//! all little-endian, with the checksum (FNV-1a over header + payload)
//! trailing so a torn write is always detectable. Decoding is total:
//! every malformed input — wrong magic, stale version, oversized or
//! truncated frame, flipped payload bits, unknown message type, garbage
//! inside a payload — maps to a typed [`ProtoError`], never a panic and
//! never a silently accepted frame. The property tests in
//! `tests/proto.rs` fuzz exactly these cases with `ppa-prng`.
//!
//! One protocol [`VERSION`] covers both vocabularies — the worker
//! frames (`Hello`..`Shutdown`) and the service frames
//! ([`Msg::Submit`], [`Msg::Query`], [`Msg::Subscribe`],
//! [`Msg::Result`], [`Msg::CacheStats`]). Every frame is stamped with
//! it, and a peer built against any other version is rejected with
//! [`ProtoError::BadVersion`] instead of mis-parsed.
//!
//! Payload contents use the same primitive encoding ([`ByteWriter`] /
//! [`ByteReader`]), which `ppa-bench` and `ppa-verify` reuse for their
//! work-unit payloads so the whole stack shares one set of typed decode
//! errors.

use std::io::{Read, Write};

/// Frame magic: `"PPAG"` as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"PPAG");

/// The protocol version every frame is stamped with. Versions up to 5
/// numbered the worker and service vocabularies separately (4 and 5
/// last); 6 is the first to cover both, so frames from either of the
/// split-version builds are rejected.
pub const VERSION: u16 = 6;

/// In a [`Msg::Result`] frame, this `index` marks a service-level
/// rejection (e.g. a subscription to a submission the daemon does not
/// know) rather than a unit outcome; the payload carries the reason.
pub const RESULT_NO_SUCH_SUBMISSION: u32 = u32::MAX;

/// `Msg::Query` kinds: a cache/queue statistics probe, and a graceful
/// checkpoint-and-exit request.
pub const QUERY_STATS: u8 = 0;
pub const QUERY_STOP: u8 = 1;

/// Upper bound on a frame payload. Larger lengths are rejected before
/// any allocation, so a corrupt length prefix cannot OOM the peer.
pub const MAX_PAYLOAD: u32 = 64 << 20;

const HEADER_LEN: usize = 12;

/// Why a frame (or payload) failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame does not start with [`MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    BadVersion(u16),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The input ends before the frame does.
    Truncated,
    /// The trailing checksum does not match the frame contents.
    BadChecksum { expected: u32, found: u32 },
    /// The frame is intact but its message type is unknown.
    UnknownType(u8),
    /// A payload field failed to parse (bad UTF-8, trailing bytes, ...).
    Malformed(&'static str),
    /// The underlying socket failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds the cap"),
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
            ProtoError::UnknownType(t) => write!(f, "unknown message type {t}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtoError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// FNV-1a over `bytes`; the per-frame checksum.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// One remote span fragment: a timed region measured on another
/// process, shipped back with a result so the tracing side can merge
/// it into its Chrome timeline. Timestamps are microseconds in the
/// *sender's* trace epoch until the receiver clock-corrects them;
/// `pid`/`tid` are trace lanes, not OS ids (workers send `pid` 0 and
/// the coordinator assigns the `worker_pid` lane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanFrag {
    pub name: String,
    pub pid: u64,
    pub tid: u64,
    pub start_us: u64,
    pub end_us: u64,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Worker -> coordinator, first frame on a connection: how many
    /// units the worker wants in flight at once.
    Hello { jobs: u32 },
    /// Coordinator -> worker: run one work unit. `seq` identifies this
    /// lease (not the unit — a re-dispatched unit gets a fresh `seq`).
    /// `trace_id` is the submitting run's trace identity (0 = untraced:
    /// don't collect fragments); `dispatch_us` is the coordinator's
    /// clock at send time, one half of the clock-offset bracket.
    Lease {
        seq: u64,
        attempt: u32,
        trace_id: u64,
        dispatch_us: u64,
        tag: String,
        payload: Vec<u8>,
    },
    /// Worker -> coordinator: the unit finished, result attached.
    /// `recv_us`/`done_us` sample the worker's clock at lease receipt
    /// and at send (the other half of the offset bracket); `spans` are
    /// the execution's trace fragments in worker-clock microseconds
    /// (empty when the lease was untraced).
    UnitResult {
        seq: u64,
        attempt: u32,
        elapsed_ns: u64,
        recv_us: u64,
        done_us: u64,
        spans: Vec<SpanFrag>,
        payload: Vec<u8>,
    },
    /// Worker -> coordinator: the unit failed (execution error or
    /// panic); the coordinator decides whether to retry.
    UnitError {
        seq: u64,
        attempt: u32,
        message: String,
    },
    /// Worker -> coordinator liveness beacon, carrying a telemetry
    /// snapshot: units currently leased to the worker, units it has
    /// finished since connecting, and its clock (for offset tracking
    /// between results). The coordinator mirrors these into the
    /// `grid.coord.worker.<id>.*` gauges.
    Heartbeat {
        inflight: u32,
        executed: u64,
        clock_us: u64,
    },
    /// Coordinator -> worker: drain and disconnect.
    Shutdown,
    /// Client -> daemon: submit a batch of work units. `client` is
    /// a caller-chosen stable identity and `submission` a per-client
    /// monotonic id; together they name the batch across reconnects.
    /// Higher `priority` dispatches sooner. `trace_id` propagates the
    /// client's trace identity into the daemon's leases (0 = untraced).
    Submit {
        client: u64,
        submission: u64,
        trace_id: u64,
        priority: u8,
        units: Vec<(String, Vec<u8>)>,
    },
    /// Client -> daemon: request [`Msg::CacheStats`]
    /// ([`QUERY_STATS`]) or ask the daemon to checkpoint and exit
    /// ([`QUERY_STOP`]).
    Query { what: u8 },
    /// Client -> daemon: re-attach to an earlier submission after a
    /// reconnect and stream its results from `from_index` on.
    Subscribe {
        client: u64,
        submission: u64,
        from_index: u32,
    },
    /// Daemon -> client: one unit's outcome, streamed strictly in
    /// submission-index order. `ok == false` makes the payload a UTF-8
    /// error message (or, with `index == RESULT_NO_SUCH_SUBMISSION`, a
    /// service-level rejection). `cached` records a content-addressed
    /// cache hit — invisible on stdout, visible in telemetry.
    /// `clock_us` samples the daemon's clock at send so the client can
    /// offset-correct `spans` (daemon-clock fragments, already on their
    /// worker `pid` lanes; empty for cached results).
    Result {
        submission: u64,
        index: u32,
        ok: bool,
        cached: bool,
        attempts: u32,
        elapsed_ns: u64,
        clock_us: u64,
        spans: Vec<SpanFrag>,
        payload: Vec<u8>,
    },
    /// Daemon -> client: the service counters, answering
    /// [`Msg::Query`]. `worker_detail` is one `(wid, inflight,
    /// executed)` triple per connected worker — the live-progress feed
    /// `ppa-serve watch` renders.
    CacheStats {
        hits: u64,
        misses: u64,
        entries: u64,
        evictions: u64,
        queue_depth: u64,
        inflight: u64,
        clients: u64,
        submissions: u64,
        workers: u64,
        worker_detail: Vec<(u64, u64, u64)>,
    },
}

const TY_HELLO: u8 = 1;
const TY_LEASE: u8 = 2;
const TY_RESULT: u8 = 3;
const TY_ERROR: u8 = 4;
const TY_HEARTBEAT: u8 = 5;
const TY_SHUTDOWN: u8 = 6;
const TY_SUBMIT: u8 = 7;
const TY_QUERY: u8 = 8;
const TY_SUBSCRIBE: u8 = 9;
const TY_SERVE_RESULT: u8 = 10;
const TY_CACHE_STATS: u8 = 11;

fn put_spans(body: &mut ByteWriter, spans: &[SpanFrag]) {
    body.put_u32(spans.len() as u32);
    for s in spans {
        body.put_str(&s.name);
        body.put_u64(s.pid);
        body.put_u64(s.tid);
        body.put_u64(s.start_us);
        body.put_u64(s.end_us);
    }
}

fn read_spans(r: &mut ByteReader<'_>) -> Result<Vec<SpanFrag>, ProtoError> {
    let n = r.u32()?;
    // The count comes off the wire unvalidated; push without
    // preallocating so a corrupt count fails at the per-element reads.
    let mut spans = Vec::new();
    for _ in 0..n {
        spans.push(SpanFrag {
            name: r.str()?,
            pid: r.u64()?,
            tid: r.u64()?,
            start_us: r.u64()?,
            end_us: r.u64()?,
        });
    }
    Ok(spans)
}

/// Encodes one message as a complete frame.
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut body = ByteWriter::new();
    let ty = match msg {
        Msg::Hello { jobs } => {
            body.put_u32(*jobs);
            TY_HELLO
        }
        Msg::Lease {
            seq,
            attempt,
            trace_id,
            dispatch_us,
            tag,
            payload,
        } => {
            body.put_u64(*seq);
            body.put_u32(*attempt);
            body.put_u64(*trace_id);
            body.put_u64(*dispatch_us);
            body.put_str(tag);
            body.put_bytes(payload);
            TY_LEASE
        }
        Msg::UnitResult {
            seq,
            attempt,
            elapsed_ns,
            recv_us,
            done_us,
            spans,
            payload,
        } => {
            body.put_u64(*seq);
            body.put_u32(*attempt);
            body.put_u64(*elapsed_ns);
            body.put_u64(*recv_us);
            body.put_u64(*done_us);
            put_spans(&mut body, spans);
            body.put_bytes(payload);
            TY_RESULT
        }
        Msg::UnitError {
            seq,
            attempt,
            message,
        } => {
            body.put_u64(*seq);
            body.put_u32(*attempt);
            body.put_str(message);
            TY_ERROR
        }
        Msg::Heartbeat {
            inflight,
            executed,
            clock_us,
        } => {
            body.put_u32(*inflight);
            body.put_u64(*executed);
            body.put_u64(*clock_us);
            TY_HEARTBEAT
        }
        Msg::Shutdown => TY_SHUTDOWN,
        Msg::Submit {
            client,
            submission,
            trace_id,
            priority,
            units,
        } => {
            body.put_u64(*client);
            body.put_u64(*submission);
            body.put_u64(*trace_id);
            body.put_u8(*priority);
            body.put_u32(units.len() as u32);
            for (tag, payload) in units {
                body.put_str(tag);
                body.put_bytes(payload);
            }
            TY_SUBMIT
        }
        Msg::Query { what } => {
            body.put_u8(*what);
            TY_QUERY
        }
        Msg::Subscribe {
            client,
            submission,
            from_index,
        } => {
            body.put_u64(*client);
            body.put_u64(*submission);
            body.put_u32(*from_index);
            TY_SUBSCRIBE
        }
        Msg::Result {
            submission,
            index,
            ok,
            cached,
            attempts,
            elapsed_ns,
            clock_us,
            spans,
            payload,
        } => {
            body.put_u64(*submission);
            body.put_u32(*index);
            body.put_u8(*ok as u8);
            body.put_u8(*cached as u8);
            body.put_u32(*attempts);
            body.put_u64(*elapsed_ns);
            body.put_u64(*clock_us);
            put_spans(&mut body, spans);
            body.put_bytes(payload);
            TY_SERVE_RESULT
        }
        Msg::CacheStats {
            hits,
            misses,
            entries,
            evictions,
            queue_depth,
            inflight,
            clients,
            submissions,
            workers,
            worker_detail,
        } => {
            for v in [
                hits,
                misses,
                entries,
                evictions,
                queue_depth,
                inflight,
                clients,
                submissions,
                workers,
            ] {
                body.put_u64(*v);
            }
            body.put_u32(worker_detail.len() as u32);
            for (wid, inflight, executed) in worker_detail {
                body.put_u64(*wid);
                body.put_u64(*inflight);
                body.put_u64(*executed);
            }
            TY_CACHE_STATS
        }
    };
    let body = body.into_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + body.len() + 4);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(ty);
    out.push(0); // flags, reserved
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    let ck = checksum(&out);
    out.extend_from_slice(&ck.to_le_bytes());
    out
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Decodes one frame from the front of `buf`, returning the message and
/// the number of bytes consumed. Validation order: magic, version,
/// length bounds, completeness, checksum, message type, payload fields.
pub fn decode(buf: &[u8]) -> Result<(Msg, usize), ProtoError> {
    if buf.len() < HEADER_LEN {
        return Err(ProtoError::Truncated);
    }
    let magic = le_u32(&buf[0..4]);
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let version = le_u16(&buf[4..6]);
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let ty = buf[6];
    let len = le_u32(&buf[8..12]);
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(len));
    }
    let total = HEADER_LEN + len as usize + 4;
    if buf.len() < total {
        return Err(ProtoError::Truncated);
    }
    let found = le_u32(&buf[total - 4..total]);
    let expected = checksum(&buf[..total - 4]);
    if found != expected {
        return Err(ProtoError::BadChecksum { expected, found });
    }
    let mut r = ByteReader::new(&buf[HEADER_LEN..total - 4]);
    let msg = match ty {
        TY_HELLO => Msg::Hello { jobs: r.u32()? },
        TY_LEASE => Msg::Lease {
            seq: r.u64()?,
            attempt: r.u32()?,
            trace_id: r.u64()?,
            dispatch_us: r.u64()?,
            tag: r.str()?,
            payload: r.bytes()?.to_vec(),
        },
        TY_RESULT => Msg::UnitResult {
            seq: r.u64()?,
            attempt: r.u32()?,
            elapsed_ns: r.u64()?,
            recv_us: r.u64()?,
            done_us: r.u64()?,
            spans: read_spans(&mut r)?,
            payload: r.bytes()?.to_vec(),
        },
        TY_ERROR => Msg::UnitError {
            seq: r.u64()?,
            attempt: r.u32()?,
            message: r.str()?,
        },
        TY_HEARTBEAT => Msg::Heartbeat {
            inflight: r.u32()?,
            executed: r.u64()?,
            clock_us: r.u64()?,
        },
        TY_SHUTDOWN => Msg::Shutdown,
        TY_SUBMIT => {
            let client = r.u64()?;
            let submission = r.u64()?;
            let trace_id = r.u64()?;
            let priority = r.u8()?;
            let n = r.u32()?;
            // The unit count comes off the wire unvalidated; push without
            // preallocating so a corrupt count fails at the per-unit
            // reads instead of requesting a huge buffer up front.
            let mut units = Vec::new();
            for _ in 0..n {
                let tag = r.str()?;
                let payload = r.bytes()?.to_vec();
                units.push((tag, payload));
            }
            Msg::Submit {
                client,
                submission,
                trace_id,
                priority,
                units,
            }
        }
        TY_QUERY => Msg::Query { what: r.u8()? },
        TY_SUBSCRIBE => Msg::Subscribe {
            client: r.u64()?,
            submission: r.u64()?,
            from_index: r.u32()?,
        },
        TY_SERVE_RESULT => Msg::Result {
            submission: r.u64()?,
            index: r.u32()?,
            ok: r.u8()? != 0,
            cached: r.u8()? != 0,
            attempts: r.u32()?,
            elapsed_ns: r.u64()?,
            clock_us: r.u64()?,
            spans: read_spans(&mut r)?,
            payload: r.bytes()?.to_vec(),
        },
        TY_CACHE_STATS => {
            let hits = r.u64()?;
            let misses = r.u64()?;
            let entries = r.u64()?;
            let evictions = r.u64()?;
            let queue_depth = r.u64()?;
            let inflight = r.u64()?;
            let clients = r.u64()?;
            let submissions = r.u64()?;
            let workers = r.u64()?;
            let n = r.u32()?;
            let mut worker_detail = Vec::new();
            for _ in 0..n {
                worker_detail.push((r.u64()?, r.u64()?, r.u64()?));
            }
            Msg::CacheStats {
                hits,
                misses,
                entries,
                evictions,
                queue_depth,
                inflight,
                clients,
                submissions,
                workers,
                worker_detail,
            }
        }
        other => return Err(ProtoError::UnknownType(other)),
    };
    r.finish()?;
    Ok((msg, total))
}

/// Reads exactly one frame from a stream. A clean EOF (or any socket
/// failure) surfaces as [`ProtoError::Io`].
pub fn read_msg(r: &mut impl Read) -> Result<Msg, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)
        .map_err(|e| ProtoError::Io(e.kind()))?;
    // Validate the header before trusting the length prefix.
    let magic = le_u32(&header[0..4]);
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let version = le_u16(&header[4..6]);
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let len = le_u32(&header[8..12]);
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(len));
    }
    let mut frame = vec![0u8; HEADER_LEN + len as usize + 4];
    frame[..HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut frame[HEADER_LEN..])
        .map_err(|e| ProtoError::Io(e.kind()))?;
    let (msg, consumed) = decode(&frame)?;
    debug_assert_eq!(consumed, frame.len());
    Ok(msg)
}

/// Writes one frame to a stream.
pub fn write_msg(w: &mut impl Write, msg: &Msg) -> Result<(), ProtoError> {
    let frame = encode(msg);
    w.write_all(&frame).map_err(|e| ProtoError::Io(e.kind()))?;
    w.flush().map_err(|e| ProtoError::Io(e.kind()))
}

/// Little-endian primitive writer for frame and work-unit payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Stores the exact bit pattern, so results round-trip bit-for-bit.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian primitive reader; every method fails typed, never
/// panics, on short or garbage input.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(le_u32(self.take(4)?))
    }

    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], ProtoError> {
        let n = self.u32()? as usize;
        if n > MAX_PAYLOAD as usize {
            return Err(ProtoError::Oversized(n as u32));
        }
        self.take(n)
    }

    pub fn str(&mut self) -> Result<String, ProtoError> {
        let b = self.bytes()?;
        std::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|_| ProtoError::Malformed("invalid utf-8 in string field"))
    }

    /// Rejects trailing garbage: a valid payload is consumed exactly.
    pub fn finish(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Msg {
        Msg::Lease {
            seq: 7,
            attempt: 2,
            trace_id: 0xABCD_EF01,
            dispatch_us: 1_000_000,
            tag: "repro.app".into(),
            payload: vec![1, 2, 3, 250],
        }
    }

    fn sample_service() -> Msg {
        Msg::Submit {
            client: 0xC11E,
            submission: 4,
            trace_id: 0xDEAD_BEEF,
            priority: 200,
            units: vec![
                ("oracle.plan:mcf".into(), vec![1, 2, 3]),
                ("repro.app:fig1/gcc".into(), vec![]),
            ],
        }
    }

    /// One message of every type, both vocabularies.
    fn every_type() -> Vec<Msg> {
        vec![
            Msg::Hello { jobs: 8 },
            sample(),
            Msg::UnitResult {
                seq: 7,
                attempt: 2,
                elapsed_ns: 123,
                recv_us: 500,
                done_us: 900,
                spans: vec![SpanFrag {
                    name: "repro.app:fig1/gcc".into(),
                    pid: 0,
                    tid: 3,
                    start_us: 510,
                    end_us: 880,
                }],
                payload: vec![9; 100],
            },
            Msg::UnitError {
                seq: 1,
                attempt: 4,
                message: "sim panicked".into(),
            },
            Msg::Heartbeat {
                inflight: 3,
                executed: 41,
                clock_us: 123_456,
            },
            Msg::Shutdown,
            sample_service(),
            Msg::Query { what: QUERY_STATS },
            Msg::Subscribe {
                client: 1,
                submission: 2,
                from_index: 3,
            },
            Msg::Result {
                submission: 2,
                index: 9,
                ok: true,
                cached: true,
                attempts: 1,
                elapsed_ns: 77,
                clock_us: 42_000,
                spans: vec![SpanFrag {
                    name: "oracle.plan:mcf".into(),
                    pid: 1002,
                    tid: 9,
                    start_us: 100,
                    end_us: 100,
                }],
                payload: vec![5; 12],
            },
            Msg::CacheStats {
                hits: 1,
                misses: 2,
                entries: 3,
                evictions: 9,
                queue_depth: 4,
                inflight: 5,
                clients: 6,
                submissions: 7,
                workers: 8,
                worker_detail: vec![(0, 2, 17), (1, 3, 24)],
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for msg in every_type() {
            let frame = encode(&msg);
            let (back, used) = decode(&frame).expect("round trip");
            assert_eq!(back, msg);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn every_message_type_is_stamped_version() {
        for msg in every_type() {
            assert_eq!(le_u16(&encode(&msg)[4..6]), VERSION, "{msg:?}");
        }
    }

    #[test]
    fn stale_version_is_rejected() {
        let mut frame = encode(&Msg::Shutdown);
        frame[4] = VERSION as u8 + 1;
        assert_eq!(decode(&frame), Err(ProtoError::BadVersion(VERSION + 1)));
    }

    #[test]
    fn flipped_payload_bit_is_rejected() {
        let frame = encode(&sample());
        let mut bad = frame.clone();
        bad[HEADER_LEN + 3] ^= 0x40;
        assert!(matches!(decode(&bad), Err(ProtoError::BadChecksum { .. })));
    }

    #[test]
    fn truncation_is_rejected() {
        let frame = encode(&sample());
        for cut in [0, 3, HEADER_LEN, frame.len() - 1] {
            assert_eq!(decode(&frame[..cut]), Err(ProtoError::Truncated));
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut frame = encode(&Msg::Shutdown);
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&frame), Err(ProtoError::Oversized(u32::MAX)));
    }

    #[test]
    fn streamed_read_matches_buffer_decode() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode(&Msg::Hello { jobs: 3 }));
        stream.extend_from_slice(&encode(&Msg::Shutdown));
        let mut cursor = &stream[..];
        assert_eq!(read_msg(&mut cursor).unwrap(), Msg::Hello { jobs: 3 });
        assert_eq!(read_msg(&mut cursor).unwrap(), Msg::Shutdown);
        assert!(matches!(read_msg(&mut cursor), Err(ProtoError::Io(_))));
    }
}
