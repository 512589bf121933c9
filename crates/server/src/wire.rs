//! `KGW1` binary frames: the zero-parse wire mode of the service protocol.
//!
//! A connection opts into binary mode by sending the 4-byte preamble
//! [`PREAMBLE`] (`"KGW1"`) as its very first bytes. No text verb starts with
//! `K`, so the server sniffs the mode from the first byte and the text
//! protocol stays byte-compatible on the same port. After the preamble, both
//! directions speak length-prefixed frames:
//!
//! ```text
//! frame   := opcode:u8  flags:u8  reserved:u16le  body_len:u32le  body
//! ```
//!
//! `reserved` is zero in this version and ignored on receipt. `flags` is a
//! bit set; the only assigned bit is [`FLAG_SUBMIT_WAIT`] (valid on `SUBMIT`
//! frames), which queues the job **and** parks the connection for the pushed
//! terminal reply in one request — the client reads the `OK <id> QUEUED` ack
//! and then blocks for the `RESULT`, with no second request. Unassigned flag
//! bits are ignored on receipt (reserved for extensions). `body_len` is
//! capped at [`MAX_FRAME_BODY`].
//!
//! Request opcodes mirror the text verbs one-to-one ([`req`]); response
//! opcodes mirror the reply headers ([`resp`]). The interesting body is the
//! binary `SUBMIT`: it ships the instance **inline as `KGB1` 16-byte edge
//! records** (`u:u32le v:u32le w:u64le`, the exact on-disk format of
//! `graphs::io`), so ingest is fixed-stride little-endian reads — no line
//! splitting, no integer-from-decimal parsing:
//!
//! ```text
//! submit  := k:u32le  algorithm:u8  enumerator:u8  instance_kind:u8  0:u8  seed:u64le  instance
//! instance(kind 0) := n:u64le  m:u64le  m × (u:u32le v:u32le w:u64le)    -- inline records
//! instance(kind 1) := utf8 canonical instance spec                        -- family / file
//! ```
//!
//! Kind-0 instances decode into [`InstanceSpec::Inline`] through **the same
//! validation** as the text parser (`u, v < n`, `u != v`, non-empty, `n` at
//! most [`MAX_INSTANCE_N`]), so a binary submit and a text submit of the same
//! instance are the same `JobSpec` — and therefore, by the job runner's
//! determinism, yield byte-identical result payloads.

use crate::instance::{InstanceSpec, MAX_INSTANCE_N};
use crate::job::{Algorithm, JobSpec};
use crate::protocol::{Request, Response};
use kecss::cuts::{EnumeratorPolicy, RETIRED_KS};
use std::sync::Arc;

/// The binary-mode preamble a client sends as its first 4 bytes.
pub const PREAMBLE: [u8; 4] = *b"KGW1";

/// Bytes in a frame header (`opcode + flags + reserved + body_len`).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Frame-header flag bit: on a `SUBMIT` frame, also subscribe the connection
/// to the job's terminal reply (submit-and-wait in a single request). The
/// text protocol has no spelling for this — it is the binary mode's
/// round-trip saver.
pub const FLAG_SUBMIT_WAIT: u8 = 1;

/// The largest frame body either side accepts. A maximal inline instance
/// (2²⁰ vertices, a few edges per vertex) fits comfortably; anything larger
/// is a protocol error, not an allocation.
pub const MAX_FRAME_BODY: usize = 64 << 20;

/// Request opcodes (client → server).
pub mod req {
    /// `SUBMIT`.
    pub const SUBMIT: u8 = 1;
    /// `STATUS`.
    pub const STATUS: u8 = 2;
    /// `RESULT` (non-blocking fetch).
    pub const RESULT: u8 = 3;
    /// `RESULT WAIT` (push-on-complete subscription).
    pub const RESULT_WAIT: u8 = 4;
    /// `CANCEL`.
    pub const CANCEL: u8 = 5;
    /// `METRICS`.
    pub const METRICS: u8 = 6;
    /// `HEARTBEAT`.
    pub const HEARTBEAT: u8 = 7;
    /// `FLEET`.
    pub const FLEET: u8 = 8;
    /// `SHUTDOWN`.
    pub const SHUTDOWN: u8 = 9;
}

/// Response opcodes (server → client).
pub mod resp {
    /// `OK <words>`.
    pub const OK: u8 = 1;
    /// `BUSY <depth>`.
    pub const BUSY: u8 = 2;
    /// `WAIT <id> <STATE>`.
    pub const WAIT: u8 = 3;
    /// `RESULT <id>` + payload.
    pub const RESULT: u8 = 4;
    /// `GONE <id>`.
    pub const GONE: u8 = 5;
    /// `ERR <msg>`.
    pub const ERR: u8 = 6;
    /// `METRICS` + text exposition.
    pub const METRICS: u8 = 7;
    /// `FLEET` + status text.
    pub const FLEET: u8 = 8;
}

/// Instance-kind byte of a binary `SUBMIT`: inline `KGB1` records.
const INSTANCE_RECORDS: u8 = 0;
/// Instance-kind byte of a binary `SUBMIT`: canonical spec string.
const INSTANCE_SPEC: u8 = 1;

/// The `KGW1` enumerator-policy wire codes. Codes 2 and 3 are retired
/// (they named removed strategies): 2 decodes as unknown, and 3, the
/// Karger–Stein `ks`, is refused with a message that names `auto`.
pub fn enumerator_wire_code(policy: EnumeratorPolicy) -> u8 {
    match policy {
        EnumeratorPolicy::Exact => 0,
        EnumeratorPolicy::Label => 1,
        EnumeratorPolicy::Auto => 4,
    }
}

/// The retired wire code of the removed `ks` strategy.
const RETIRED_KS_CODE: u8 = 3;

/// Decodes an enumerator-policy wire code (inverse of
/// [`enumerator_wire_code`]).
pub fn enumerator_from_wire_code(code: u8) -> Option<EnumeratorPolicy> {
    Some(match code {
        0 => EnumeratorPolicy::Exact,
        1 => EnumeratorPolicy::Label,
        4 => EnumeratorPolicy::Auto,
        _ => return None,
    })
}

/// Parses a frame header; returns `(opcode, flags, body_len)`.
///
/// # Errors
///
/// Returns a human-readable message for an over-cap body length.
pub fn parse_frame_header(header: &[u8; FRAME_HEADER_BYTES]) -> Result<(u8, u8, usize), String> {
    let opcode = header[0];
    let flags = header[1];
    let body_len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if body_len > MAX_FRAME_BODY {
        return Err(format!(
            "frame body of {body_len} bytes exceeds the {MAX_FRAME_BODY}-byte cap"
        ));
    }
    Ok((opcode, flags, body_len))
}

/// Wraps a body in a frame (header + body) with zero flags.
pub fn encode_frame(opcode: u8, body: &[u8]) -> Vec<u8> {
    encode_frame_flags(opcode, 0, body)
}

/// Wraps a body in a frame (header + body) with the given flag bits.
pub fn encode_frame_flags(opcode: u8, flags: u8, body: &[u8]) -> Vec<u8> {
    debug_assert!(body.len() <= MAX_FRAME_BODY);
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    out.push(opcode);
    out.push(flags);
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "truncated frame body: needed {n} bytes for {what}, have {}",
                self.buf.len() - self.pos
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    fn utf8_rest(&mut self, what: &str) -> Result<&'a str, String> {
        std::str::from_utf8(self.rest()).map_err(|_| format!("{what} is not valid UTF-8"))
    }

    fn done(&self, what: &str) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{what} frame has {} trailing bytes",
                self.buf.len() - self.pos
            ))
        }
    }
}

/// Encodes a `SUBMIT` frame body (shared by the plain and the wait-flagged
/// submit).
fn encode_submit_body(spec: &crate::job::JobSpec) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&u32::try_from(spec.k).unwrap_or(u32::MAX).to_le_bytes());
    body.push(spec.algorithm.wire_code());
    body.push(enumerator_wire_code(spec.enumerator));
    match &spec.instance {
        InstanceSpec::Inline { n, edges } => {
            body.push(INSTANCE_RECORDS);
            body.push(0);
            body.extend_from_slice(&spec.seed.to_le_bytes());
            body.extend_from_slice(&(*n as u64).to_le_bytes());
            body.extend_from_slice(&(edges.len() as u64).to_le_bytes());
            for &(u, v, w) in edges {
                body.extend_from_slice(&(u as u32).to_le_bytes());
                body.extend_from_slice(&(v as u32).to_le_bytes());
                body.extend_from_slice(&w.to_le_bytes());
            }
        }
        other => {
            body.push(INSTANCE_SPEC);
            body.push(0);
            body.extend_from_slice(&spec.seed.to_le_bytes());
            body.extend_from_slice(other.canonical().as_bytes());
        }
    }
    body
}

/// Encodes a request as one binary frame (header included).
pub fn encode_request(request: &Request) -> Vec<u8> {
    match request {
        Request::Submit(spec) => encode_frame(req::SUBMIT, &encode_submit_body(spec)),
        Request::SubmitWait(spec) => {
            encode_frame_flags(req::SUBMIT, FLAG_SUBMIT_WAIT, &encode_submit_body(spec))
        }
        Request::Status(id) => encode_frame(req::STATUS, &id.to_le_bytes()),
        Request::Result(id) => encode_frame(req::RESULT, &id.to_le_bytes()),
        Request::ResultWait(id) => encode_frame(req::RESULT_WAIT, &id.to_le_bytes()),
        Request::Cancel(id) => encode_frame(req::CANCEL, &id.to_le_bytes()),
        Request::Metrics => encode_frame(req::METRICS, &[]),
        Request::Heartbeat { worker, addr } => {
            encode_frame(req::HEARTBEAT, format!("{worker} {addr}").as_bytes())
        }
        Request::Fleet => encode_frame(req::FLEET, &[]),
        Request::Shutdown => encode_frame(req::SHUTDOWN, &[]),
    }
}

/// Decodes a request frame body (inverse of [`encode_request`]).
///
/// `flags` comes from the frame header: the [`FLAG_SUBMIT_WAIT`] bit turns a
/// `SUBMIT` into [`Request::SubmitWait`]; unassigned bits are ignored.
///
/// # Errors
///
/// Returns the human-readable message the server sends back as an `ERR`
/// response — the binary analogue of [`Request::parse`] errors, with the
/// same validation rules for inline instances.
pub fn decode_request(opcode: u8, flags: u8, body: &[u8]) -> Result<Request, String> {
    let mut cur = Cursor::new(body);
    match opcode {
        req::SUBMIT => {
            let k = cur.u32("k")? as usize;
            let algorithm_code = cur.u8("algorithm")?;
            let algorithm = Algorithm::from_wire_code(algorithm_code)
                .ok_or_else(|| format!("SUBMIT: unknown algorithm code {algorithm_code}"))?;
            let enumerator_code = cur.u8("enumerator")?;
            let enumerator = enumerator_from_wire_code(enumerator_code).ok_or_else(|| {
                if enumerator_code == RETIRED_KS_CODE {
                    format!("SUBMIT: enumerator code {RETIRED_KS_CODE}: {RETIRED_KS}")
                } else {
                    format!("SUBMIT: unknown enumerator code {enumerator_code}")
                }
            })?;
            let kind = cur.u8("instance kind")?;
            cur.u8("reserved")?;
            let seed = cur.u64("seed")?;
            let instance = match kind {
                INSTANCE_RECORDS => decode_inline_records(&mut cur)?,
                INSTANCE_SPEC => InstanceSpec::parse(cur.utf8_rest("instance spec")?)?,
                other => return Err(format!("SUBMIT: unknown instance kind {other}")),
            };
            cur.done("SUBMIT")?;
            let spec = JobSpec {
                instance,
                k,
                algorithm,
                enumerator,
                seed,
            };
            Ok(if flags & FLAG_SUBMIT_WAIT != 0 {
                Request::SubmitWait(spec)
            } else {
                Request::Submit(spec)
            })
        }
        req::STATUS | req::RESULT | req::RESULT_WAIT | req::CANCEL => {
            let id = cur.u64("job id")?;
            cur.done("job-id")?;
            Ok(match opcode {
                req::STATUS => Request::Status(id),
                req::RESULT => Request::Result(id),
                req::RESULT_WAIT => Request::ResultWait(id),
                _ => Request::Cancel(id),
            })
        }
        req::METRICS => {
            cur.done("METRICS")?;
            Ok(Request::Metrics)
        }
        req::HEARTBEAT => {
            let text = cur.utf8_rest("HEARTBEAT body")?;
            let mut words = text.split_whitespace();
            match (words.next(), words.next(), words.next()) {
                (Some(worker), Some(addr), None) => Ok(Request::Heartbeat {
                    worker: worker.to_string(),
                    addr: addr.to_string(),
                }),
                _ => Err("HEARTBEAT expects 2 fields '<worker-id> <addr>'".into()),
            }
        }
        req::FLEET => {
            cur.done("FLEET")?;
            Ok(Request::Fleet)
        }
        req::SHUTDOWN => {
            cur.done("SHUTDOWN")?;
            Ok(Request::Shutdown)
        }
        other => Err(format!("unknown request opcode {other}")),
    }
}

/// The zero-parse ingest path: fixed-stride `KGB1` records straight into an
/// [`InstanceSpec::Inline`], validated exactly like the text parser.
fn decode_inline_records(cur: &mut Cursor<'_>) -> Result<InstanceSpec, String> {
    let n = cur.u64("vertex count")? as usize;
    if n > MAX_INSTANCE_N {
        return Err(format!(
            "requested vertex count {n} exceeds the service bound of {MAX_INSTANCE_N}"
        ));
    }
    let m = cur.u64("edge count")?;
    let records = cur.take(
        usize::try_from(m)
            .ok()
            .and_then(|m| m.checked_mul(16))
            .ok_or("edge count overflows the frame")?,
        "edge records",
    )?;
    let mut edges = Vec::with_capacity(m as usize);
    for (i, rec) in records.chunks_exact(16).enumerate() {
        let u = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]) as usize;
        let v = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]) as usize;
        let w = u64::from_le_bytes([
            rec[8], rec[9], rec[10], rec[11], rec[12], rec[13], rec[14], rec[15],
        ]);
        if u >= n || v >= n || u == v {
            return Err(format!(
                "inline edge {i}: invalid endpoints {u} {v} for n = {n}"
            ));
        }
        edges.push((u, v, w));
    }
    if edges.is_empty() {
        return Err("inline instance has no edges".into());
    }
    Ok(InstanceSpec::Inline { n, edges })
}

/// Encodes a response as one binary frame (header included).
pub fn encode_response(response: &Response) -> Vec<u8> {
    match response {
        Response::Ok(words) => encode_frame(resp::OK, words.as_bytes()),
        Response::Busy(depth) => encode_frame(resp::BUSY, &depth.to_le_bytes()),
        Response::Wait { id, state } => {
            let mut body = id.to_le_bytes().to_vec();
            body.extend_from_slice(state.as_bytes());
            encode_frame(resp::WAIT, &body)
        }
        Response::Result { id, payload } => {
            let mut body = Vec::with_capacity(8 + payload.len());
            body.extend_from_slice(&id.to_le_bytes());
            body.extend_from_slice(payload);
            encode_frame(resp::RESULT, &body)
        }
        Response::Gone(id) => encode_frame(resp::GONE, &id.to_le_bytes()),
        Response::Err(msg) => encode_frame(resp::ERR, msg.as_bytes()),
        Response::Metrics(text) => encode_frame(resp::METRICS, text),
        Response::Fleet(text) => encode_frame(resp::FLEET, text),
    }
}

/// Decodes a response frame body (inverse of [`encode_response`]; the
/// client side of binary mode).
///
/// # Errors
///
/// Returns a human-readable message for unknown opcodes or truncated bodies.
/// `WAIT` states decode to the static wire names, rejecting anything else.
pub fn decode_response(opcode: u8, body: &[u8]) -> Result<Response, String> {
    let mut cur = Cursor::new(body);
    match opcode {
        resp::OK => Ok(Response::Ok(cur.utf8_rest("OK body")?.to_string())),
        resp::BUSY => {
            let depth = cur.u64("depth")?;
            cur.done("BUSY")?;
            Ok(Response::Busy(depth))
        }
        resp::WAIT => {
            let id = cur.u64("job id")?;
            let state = match cur.utf8_rest("state")? {
                "QUEUED" => "QUEUED",
                "RUNNING" => "RUNNING",
                "DONE" => "DONE",
                "FAILED" => "FAILED",
                "CANCELLED" => "CANCELLED",
                other => return Err(format!("unknown job state '{other}'")),
            };
            Ok(Response::Wait { id, state })
        }
        resp::RESULT => {
            let id = cur.u64("job id")?;
            Ok(Response::Result {
                id,
                payload: Arc::new(cur.rest().to_vec()),
            })
        }
        resp::GONE => {
            let id = cur.u64("job id")?;
            cur.done("GONE")?;
            Ok(Response::Gone(id))
        }
        resp::ERR => Ok(Response::Err(cur.utf8_rest("ERR body")?.to_string())),
        resp::METRICS => Ok(Response::Metrics(Arc::new(cur.rest().to_vec()))),
        resp::FLEET => Ok(Response::Fleet(Arc::new(cur.rest().to_vec()))),
        other => Err(format!("unknown response opcode {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Family;

    fn decode_request_frame(frame: &[u8]) -> Result<Request, String> {
        let header: [u8; FRAME_HEADER_BYTES] = frame[..FRAME_HEADER_BYTES].try_into().unwrap();
        let (opcode, flags, body_len) = parse_frame_header(&header)?;
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + body_len);
        decode_request(opcode, flags, &frame[FRAME_HEADER_BYTES..])
    }

    fn decode_response_frame(frame: &[u8]) -> Result<Response, String> {
        let header: [u8; FRAME_HEADER_BYTES] = frame[..FRAME_HEADER_BYTES].try_into().unwrap();
        let (opcode, _flags, body_len) = parse_frame_header(&header)?;
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + body_len);
        decode_response(opcode, &frame[FRAME_HEADER_BYTES..])
    }

    #[test]
    fn requests_round_trip_through_frames() {
        let inline = Request::Submit(JobSpec {
            instance: InstanceSpec::parse("inline:4:0-1-1,1-2-1,2-3-9,3-0-1").unwrap(),
            k: 2,
            algorithm: Algorithm::KEcss,
            enumerator: EnumeratorPolicy::Auto,
            seed: 7,
        });
        let family = Request::Submit(JobSpec {
            instance: InstanceSpec::Family {
                family: Family::RingOfCliques,
                n: 20,
                max_weight: 1,
            },
            k: 2,
            algorithm: Algorithm::TwoEcss,
            enumerator: EnumeratorPolicy::Label,
            seed: 0,
        });
        let Request::Submit(wait_spec) = &inline else {
            unreachable!("built as Submit above")
        };
        let submit_wait = Request::SubmitWait(wait_spec.clone());
        for request in [
            inline,
            family,
            submit_wait,
            Request::Status(3),
            Request::Result(u64::MAX - 1),
            Request::ResultWait(5),
            Request::Cancel(0),
            Request::Metrics,
            Request::Heartbeat {
                worker: "w1".into(),
                addr: "127.0.0.1:9".into(),
            },
            Request::Fleet,
            Request::Shutdown,
        ] {
            let frame = encode_request(&request);
            assert_eq!(
                decode_request_frame(&frame).unwrap(),
                request,
                "{request:?}"
            );
        }
    }

    #[test]
    fn responses_round_trip_through_frames() {
        for response in [
            Response::Ok("3 QUEUED".into()),
            Response::Busy(17),
            Response::Wait {
                id: 4,
                state: "RUNNING",
            },
            Response::Result {
                id: 9,
                payload: Arc::new(b"payload bytes".to_vec()),
            },
            Response::Gone(9),
            Response::Err("unknown job 12".into()),
            Response::Metrics(Arc::new(b"# metrics\n".to_vec())),
            Response::Fleet(Arc::new(b"workers 1 live 1\n".to_vec())),
        ] {
            let frame = encode_response(&response);
            assert_eq!(
                decode_response_frame(&frame).unwrap(),
                response,
                "{response:?}"
            );
        }
    }

    #[test]
    fn submit_records_share_the_text_validation() {
        // Build a frame by hand with an out-of-range endpoint: same message
        // as the text parser.
        let mut body = vec![];
        body.extend_from_slice(&2u32.to_le_bytes());
        body.push(Algorithm::KEcss.wire_code());
        body.push(enumerator_wire_code(EnumeratorPolicy::Auto));
        body.push(0); // inline records
        body.push(0);
        body.extend_from_slice(&1u64.to_le_bytes()); // seed
        body.extend_from_slice(&3u64.to_le_bytes()); // n
        body.extend_from_slice(&1u64.to_le_bytes()); // m
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&9u32.to_le_bytes()); // v = 9 >= n = 3
        body.extend_from_slice(&1u64.to_le_bytes());
        let err = decode_request(req::SUBMIT, 0, &body).unwrap_err();
        assert!(err.contains("invalid endpoints 0 9 for n = 3"), "{err}");

        // Zero edges are rejected like the text parser's empty list.
        let mut empty = body[..body.len() - 16].to_vec();
        let m_at = empty.len() - 8;
        empty[m_at..].copy_from_slice(&0u64.to_le_bytes());
        let err = decode_request(req::SUBMIT, 0, &empty).unwrap_err();
        assert!(err.contains("no edges"), "{err}");

        // Over-cap n is rejected without allocating.
        let mut huge = body.clone();
        let n_at = huge.len() - 16 - 16;
        huge[n_at..n_at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = decode_request(req::SUBMIT, 0, &huge).unwrap_err();
        assert!(err.contains("exceeds the service bound"), "{err}");
    }

    #[test]
    fn malformed_frames_are_rejected_with_messages() {
        assert!(decode_request(200, 0, &[]).unwrap_err().contains("opcode"));
        assert!(decode_response(0, &[]).unwrap_err().contains("opcode"));
        // Truncated id.
        assert!(decode_request(req::STATUS, 0, &[1, 2, 3])
            .unwrap_err()
            .contains("truncated"));
        // Trailing garbage.
        let mut long = 5u64.to_le_bytes().to_vec();
        long.push(0);
        assert!(decode_request(req::CANCEL, 0, &long)
            .unwrap_err()
            .contains("trailing"));
        // Over-cap body length in the header.
        let mut header = [0u8; FRAME_HEADER_BYTES];
        header[0] = req::SUBMIT;
        header[4..].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(parse_frame_header(&header).unwrap_err().contains("exceeds"));
        // Unknown WAIT state.
        let mut wait = 1u64.to_le_bytes().to_vec();
        wait.extend_from_slice(b"LIMBO");
        assert!(decode_response(resp::WAIT, &wait)
            .unwrap_err()
            .contains("unknown job state"));
        // The retired enumerator codes are refused, not misread: 2 is
        // unknown, and 3 (`ks`) names its replacement.
        let retired = |code: u8| {
            let mut body = 2u32.to_le_bytes().to_vec();
            body.extend_from_slice(&[Algorithm::KEcss.wire_code(), code, 1, 0]);
            body.extend_from_slice(&1u64.to_le_bytes());
            body.extend_from_slice(b"ring:20");
            decode_request(req::SUBMIT, 0, &body).unwrap_err()
        };
        let err = retired(2);
        assert!(err.contains("unknown enumerator code 2"), "{err}");
        let err = retired(3);
        assert!(
            err.contains("code 3") && err.contains("'ks'") && err.contains("'auto'"),
            "{err}"
        );
        for (policy, code) in [
            (EnumeratorPolicy::Exact, 0),
            (EnumeratorPolicy::Label, 1),
            (EnumeratorPolicy::Auto, 4),
        ] {
            assert_eq!(enumerator_wire_code(policy), code, "{policy:?}");
            assert_eq!(enumerator_from_wire_code(code), Some(policy));
        }
        assert_eq!(enumerator_from_wire_code(3), None);
    }
}
