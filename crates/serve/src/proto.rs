//! The `mec-serve` wire protocol: length-prefixed JSONL frames.
//!
//! Every message is one flat JSON object (string/number values only),
//! encoded with the shared rules of [`mec_obs::json`] — the same escaping
//! and number formatting the observability traces use, factored into one
//! module so the formats cannot drift. A frame on the socket is
//!
//! ```text
//! <decimal byte length of payload>\n<payload JSON>\n
//! ```
//!
//! which keeps the stream self-delimiting (readers never scan for
//! newlines inside payloads) yet fully inspectable with text tools.
//!
//! Requests:
//!
//! ```text
//! {"op":"join","provider":3}            admission: pick the cheapest fitting cloudlet
//! {"op":"join","provider":3,"cloudlet":1}   admission to a specific cloudlet
//! {"op":"leave","provider":3}
//! {"op":"update","provider":3,"compute":2.5,"bandwidth":11.0}
//! {"op":"query","provider":3}
//! {"op":"stats"}
//! {"op":"snapshot"}                     admin: write the snapshot file now
//! {"op":"restore"}                      admin: reload state from the snapshot file
//! {"op":"shutdown"}                     admin: graceful drain
//! ```
//!
//! Responses carry `"ok":1` plus a `"result"` discriminator, or `"ok":0`
//! with an `"error"` string. Business rejections (a full market) are
//! *results*, not errors: `{"ok":1,"result":"rejected","reason":...}`.

use std::io::{BufRead, Write};

use mec_obs::json::{self, ParseError, Token};

/// Upper bound on a frame payload; anything larger is a protocol error.
pub const MAX_FRAME: usize = 1 << 20;

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit `provider` (optionally at a specific cloudlet).
    Join {
        /// Provider id within the daemon's universe.
        provider: usize,
        /// Specific cloudlet to request; `None` lets the daemon pick the
        /// cheapest fitting one.
        cloudlet: Option<usize>,
    },
    /// Deactivate `provider` and release its capacity.
    Leave {
        /// Provider id.
        provider: usize,
    },
    /// Replace `provider`'s demand vector.
    UpdateDemand {
        /// Provider id.
        provider: usize,
        /// New compute demand (VM units).
        compute: f64,
        /// New bandwidth demand (Mbps).
        bandwidth: f64,
    },
    /// Read `provider`'s current placement and cost.
    Query {
        /// Provider id.
        provider: usize,
    },
    /// Read daemon-wide counters.
    Stats,
    /// Write the snapshot file now.
    Snapshot,
    /// Reload state from the snapshot file.
    Restore,
    /// Begin a graceful drain.
    Shutdown,
}

/// One shard's slice of the composite stats (sharded daemons only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStat {
    /// The shard's own state version.
    pub seq: u64,
    /// Queue depth the shard saw at its latest drain.
    pub depth: u64,
    /// Write commands the shard has settled over its lifetime.
    pub writes: u64,
}

/// Daemon-wide counters, as carried by [`Response::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// State version (bumped on every applied mutation).
    pub seq: u64,
    /// Size of the provider universe.
    pub providers: usize,
    /// Providers currently admitted.
    pub active: usize,
    /// Providers currently cached at some cloudlet.
    pub cached: usize,
    /// Social cost of the current placement (Eq. 6).
    pub social_cost: f64,
    /// Equilibrium-maintenance epochs run so far.
    pub epochs: u64,
    /// Improving moves applied by those epochs.
    pub moves: u64,
    /// `true` if no provider has gained an improving move since the last
    /// maintenance pass that found none (ANDed across shards).
    pub equilibrium: bool,
    /// Per-shard breakdown (empty on a single-shard daemon, whose wire
    /// encoding is then byte-identical to the pre-sharding protocol).
    pub shards: Vec<ShardStat>,
}

/// A server → client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Join succeeded; the provider is cached.
    Admitted {
        /// Cloudlet the service was cached at.
        cloudlet: usize,
        /// The provider's cost there (Eq. 3) at admission time.
        cost: f64,
    },
    /// Join was denied by admission control (no capacity). Not an error.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// Leave succeeded.
    Left,
    /// UpdateDemand succeeded.
    Updated {
        /// The provider's cost after the update.
        cost: f64,
        /// `true` if the new demand no longer fit and the service was
        /// evicted to the remote cloud (still active).
        evicted: bool,
    },
    /// Query result.
    Placement {
        /// Cloudlet index, or `None` when serving remotely.
        at: Option<usize>,
        /// Current cost (Eq. 3 / remote cost).
        cost: f64,
        /// Whether the provider is admitted.
        active: bool,
        /// State version the answer was read from.
        seq: u64,
    },
    /// Stats result.
    Stats(StatsReport),
    /// Snapshot written.
    Snapshotted {
        /// Sequence number stamped into the file.
        seq: u64,
    },
    /// State reloaded from the snapshot file.
    Restored {
        /// Sequence number of the restored snapshot.
        seq: u64,
    },
    /// Graceful drain has begun; the connection will close.
    Draining,
    /// The request failed (unknown provider, no snapshot path, ...).
    Error {
        /// What went wrong.
        msg: String,
    },
}

/// Encodes a request as its JSON payload (no framing).
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Join {
            provider,
            cloudlet: None,
        } => format!("{{\"op\":\"join\",\"provider\":{provider}}}"),
        Request::Join {
            provider,
            cloudlet: Some(c),
        } => format!("{{\"op\":\"join\",\"provider\":{provider},\"cloudlet\":{c}}}"),
        Request::Leave { provider } => format!("{{\"op\":\"leave\",\"provider\":{provider}}}"),
        Request::UpdateDemand {
            provider,
            compute,
            bandwidth,
        } => {
            let mut s = format!("{{\"op\":\"update\",\"provider\":{provider},\"compute\":");
            json::push_f64(&mut s, *compute);
            s.push_str(",\"bandwidth\":");
            json::push_f64(&mut s, *bandwidth);
            s.push('}');
            s
        }
        Request::Query { provider } => format!("{{\"op\":\"query\",\"provider\":{provider}}}"),
        Request::Stats => "{\"op\":\"stats\"}".to_string(),
        Request::Snapshot => "{\"op\":\"snapshot\"}".to_string(),
        Request::Restore => "{\"op\":\"restore\"}".to_string(),
        Request::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
    }
}

/// Parses a request payload.
///
/// # Errors
///
/// Errors on malformed JSON or an unknown `op`.
pub fn parse_request(payload: &str) -> Result<Request, ParseError> {
    let fields = json::parse_object(payload)?;
    match json::get_str(&fields, "op")? {
        "join" => Ok(Request::Join {
            provider: json::get_usize(&fields, "provider")?,
            cloudlet: match json::get(&fields, "cloudlet") {
                Ok(_) => Some(json::get_usize(&fields, "cloudlet")?),
                Err(_) => None,
            },
        }),
        "leave" => Ok(Request::Leave {
            provider: json::get_usize(&fields, "provider")?,
        }),
        "update" => Ok(Request::UpdateDemand {
            provider: json::get_usize(&fields, "provider")?,
            compute: json::get_f64(&fields, "compute")?,
            bandwidth: json::get_f64(&fields, "bandwidth")?,
        }),
        "query" => Ok(Request::Query {
            provider: json::get_usize(&fields, "provider")?,
        }),
        "stats" => Ok(Request::Stats),
        "snapshot" => Ok(Request::Snapshot),
        "restore" => Ok(Request::Restore),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ParseError::new(format!("unknown op `{other}`"))),
    }
}

/// Encodes a response as its JSON payload (no framing).
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Admitted { cloudlet, cost } => {
            let mut s =
                format!("{{\"ok\":1,\"result\":\"admitted\",\"cloudlet\":{cloudlet},\"cost\":");
            json::push_f64(&mut s, *cost);
            s.push('}');
            s
        }
        Response::Rejected { reason } => {
            let mut s = String::from("{\"ok\":1,\"result\":\"rejected\",\"reason\":");
            json::push_string(&mut s, reason);
            s.push('}');
            s
        }
        Response::Left => "{\"ok\":1,\"result\":\"left\"}".to_string(),
        Response::Updated { cost, evicted } => {
            let mut s = String::from("{\"ok\":1,\"result\":\"updated\",\"cost\":");
            json::push_f64(&mut s, *cost);
            s.push_str(&format!(",\"evicted\":{}}}", u64::from(*evicted)));
            s
        }
        Response::Placement {
            at,
            cost,
            active,
            seq,
        } => {
            let mut s = String::from("{\"ok\":1,\"result\":\"placement\",\"at\":");
            match at {
                Some(c) => s.push_str(&format!("{c}")),
                None => s.push_str("\"remote\""),
            }
            s.push_str(",\"cost\":");
            json::push_f64(&mut s, *cost);
            s.push_str(&format!(
                ",\"active\":{},\"seq\":{seq}}}",
                u64::from(*active)
            ));
            s
        }
        Response::Stats(st) => {
            let mut s = format!(
                "{{\"ok\":1,\"result\":\"stats\",\"seq\":{},\"providers\":{},\"active\":{},\
                 \"cached\":{},\"social_cost\":",
                st.seq, st.providers, st.active, st.cached
            );
            json::push_f64(&mut s, st.social_cost);
            s.push_str(&format!(
                ",\"epochs\":{},\"moves\":{},\"equilibrium\":{}",
                st.epochs,
                st.moves,
                u64::from(st.equilibrium)
            ));
            if !st.shards.is_empty() {
                s.push_str(&format!(",\"shards\":{}", st.shards.len()));
                for (k, sh) in st.shards.iter().enumerate() {
                    s.push_str(&format!(
                        ",\"s{k}_seq\":{},\"s{k}_depth\":{},\"s{k}_writes\":{}",
                        sh.seq, sh.depth, sh.writes
                    ));
                }
            }
            s.push('}');
            s
        }
        Response::Snapshotted { seq } => {
            format!("{{\"ok\":1,\"result\":\"snapshotted\",\"seq\":{seq}}}")
        }
        Response::Restored { seq } => {
            format!("{{\"ok\":1,\"result\":\"restored\",\"seq\":{seq}}}")
        }
        Response::Draining => "{\"ok\":1,\"result\":\"draining\"}".to_string(),
        Response::Error { msg } => {
            let mut s = String::from("{\"ok\":0,\"error\":");
            json::push_string(&mut s, msg);
            s.push('}');
            s
        }
    }
}

/// Parses a response payload.
///
/// # Errors
///
/// Errors on malformed JSON or an unknown `result`.
pub fn parse_response(payload: &str) -> Result<Response, ParseError> {
    let fields = json::parse_object(payload)?;
    if json::get_u64(&fields, "ok")? == 0 {
        return Ok(Response::Error {
            msg: json::get_str(&fields, "error")?.to_string(),
        });
    }
    match json::get_str(&fields, "result")? {
        "admitted" => Ok(Response::Admitted {
            cloudlet: json::get_usize(&fields, "cloudlet")?,
            cost: json::get_f64(&fields, "cost")?,
        }),
        "rejected" => Ok(Response::Rejected {
            reason: json::get_str(&fields, "reason")?.to_string(),
        }),
        "left" => Ok(Response::Left),
        "updated" => Ok(Response::Updated {
            cost: json::get_f64(&fields, "cost")?,
            evicted: json::get_u64(&fields, "evicted")? != 0,
        }),
        "placement" => Ok(Response::Placement {
            at: match json::get(&fields, "at")? {
                Token::Str(s) if s == "remote" => None,
                Token::Str(s) => {
                    return Err(ParseError::new(format!("bad placement `{s}`")));
                }
                Token::Num(_) => Some(json::get_usize(&fields, "at")?),
            },
            cost: json::get_f64(&fields, "cost")?,
            active: json::get_u64(&fields, "active")? != 0,
            seq: json::get_u64(&fields, "seq")?,
        }),
        "stats" => {
            // Per-shard fields are optional: single-shard daemons (and
            // every pre-sharding peer) omit them entirely.
            let mut shards = Vec::new();
            if let Ok(count) = json::get_usize(&fields, "shards") {
                for k in 0..count {
                    // Each push is gated by three successful `s{k}_*`
                    // field lookups, so growth is bounded by the fields
                    // actually present in the frame (itself capped by
                    // the decoder's max-frame limit).
                    // lint: allow(growth)
                    shards.push(ShardStat {
                        seq: json::get_u64(&fields, &format!("s{k}_seq"))?,
                        depth: json::get_u64(&fields, &format!("s{k}_depth"))?,
                        writes: json::get_u64(&fields, &format!("s{k}_writes"))?,
                    });
                }
            }
            Ok(Response::Stats(StatsReport {
                seq: json::get_u64(&fields, "seq")?,
                providers: json::get_usize(&fields, "providers")?,
                active: json::get_usize(&fields, "active")?,
                cached: json::get_usize(&fields, "cached")?,
                social_cost: json::get_f64(&fields, "social_cost")?,
                epochs: json::get_u64(&fields, "epochs")?,
                moves: json::get_u64(&fields, "moves")?,
                equilibrium: json::get_u64(&fields, "equilibrium")? != 0,
                shards,
            }))
        }
        "snapshotted" => Ok(Response::Snapshotted {
            seq: json::get_u64(&fields, "seq")?,
        }),
        "restored" => Ok(Response::Restored {
            seq: json::get_u64(&fields, "seq")?,
        }),
        "draining" => Ok(Response::Draining),
        other => Err(ParseError::new(format!("unknown result `{other}`"))),
    }
}

/// Writes one frame: decimal payload length, newline, payload, newline.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    // One write_all per frame: a frame split across several small writes
    // becomes several TCP segments, and Nagle + delayed ACK then stalls
    // every request by ~40 ms.
    let mut buf = Vec::with_capacity(payload.len() + 24);
    push_frame(&mut buf, payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Incremental frame reassembly for nonblocking sockets.
///
/// The event loop reads whatever bytes the kernel has — which may end
/// mid-length-prefix, mid-payload, or pack a dozen pipelined frames into
/// one `read` — feeds them in with [`FrameDecoder::extend`], and pulls
/// complete frames out with [`FrameDecoder::next_frame`]. The decoder
/// owns the partial-frame state, so a slow client costs one buffer, not
/// a blocked thread.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted once it outgrows the tail.
    pos: usize,
}

/// Longest sensible length line: `MAX_FRAME` has 7 digits; allow slack
/// for whitespace before calling the prefix malformed.
const MAX_LEN_LINE: usize = 24;

impl FrameDecoder {
    /// A fresh decoder with no buffered bytes.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes to the reassembly buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by the frame
        // size rather than the connection's lifetime traffic.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        // Bounded by MAX_FRAME: next_frame errors on any length line
        // announcing more, and the caller kills the connection on that
        // error, so unconsumed bytes never exceed one max frame plus
        // one read chunk.
        // lint: allow(growth)
        self.buf.extend_from_slice(bytes);
    }

    /// `true` if a partially received frame is buffered — EOF now would
    /// be a mid-frame cut, not a clean close.
    pub fn mid_frame(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Extracts the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a malformed or oversized length prefix, a missing
    /// frame-terminating newline, or non-UTF-8 payload — all unrecoverable
    /// for the connection (framing is lost).
    pub fn next_frame(&mut self) -> std::io::Result<Option<String>> {
        let pending = &self.buf[self.pos..];
        let Some(nl) = pending.iter().take(MAX_LEN_LINE).position(|&b| b == b'\n') else {
            if pending.len() >= MAX_LEN_LINE {
                return Err(bad_data(format!(
                    "frame length line exceeds {MAX_LEN_LINE} bytes"
                )));
            }
            return Ok(None);
        };
        let len_line = std::str::from_utf8(&pending[..nl])
            .map_err(|_| bad_data("frame length line is not UTF-8".to_string()))?;
        let len: usize = len_line
            .trim()
            .parse()
            .map_err(|_| bad_data(format!("bad frame length `{}`", len_line.trim())))?;
        if len > MAX_FRAME {
            return Err(bad_data(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
            )));
        }
        // Length line + payload + trailing newline.
        let total = nl + 1 + len + 1;
        if pending.len() < total {
            return Ok(None);
        }
        let payload = &pending[nl + 1..nl + 1 + len];
        if pending[total - 1] != b'\n' {
            return Err(bad_data("frame missing trailing newline".to_string()));
        }
        let payload = std::str::from_utf8(payload)
            .map_err(|_| bad_data("frame is not UTF-8".to_string()))?
            .to_string();
        self.pos += total;
        Ok(Some(payload))
    }
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Appends one encoded frame to `out` without any I/O — the event loop
/// batches many frames into one `write` syscall.
pub fn push_frame(out: &mut Vec<u8>, payload: &str) {
    debug_assert!(payload.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    out.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
    out.extend_from_slice(payload.as_bytes());
    out.push(b'\n');
}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary.
///
/// # Errors
///
/// Returns `InvalidData` on a malformed length line, an oversized frame,
/// or a stream cut mid-frame.
pub fn read_frame<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut len_line = String::new();
    if r.read_line(&mut len_line)? == 0 {
        return Ok(None); // clean EOF between frames
    }
    let len: usize = len_line.trim().parse().map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad frame length `{}`", len_line.trim()),
        )
    })?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len + 1]; // payload + trailing newline
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "stream cut mid-frame")
        } else {
            e
        }
    })?;
    if buf.pop() != Some(b'\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame missing trailing newline",
        ));
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Join {
                provider: 3,
                cloudlet: None,
            },
            Request::Join {
                provider: 3,
                cloudlet: Some(1),
            },
            Request::Leave { provider: 0 },
            Request::UpdateDemand {
                provider: 9,
                compute: 2.5,
                bandwidth: 11.25,
            },
            Request::Query { provider: 7 },
            Request::Stats,
            Request::Snapshot,
            Request::Restore,
            Request::Shutdown,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Admitted {
                cloudlet: 2,
                cost: 3.75,
            },
            Response::Rejected {
                reason: "no cloudlet fits \"sp3\"".to_string(),
            },
            Response::Left,
            Response::Updated {
                cost: 1.25,
                evicted: true,
            },
            Response::Placement {
                at: Some(4),
                cost: 0.5,
                active: true,
                seq: 42,
            },
            Response::Placement {
                at: None,
                cost: f64::INFINITY,
                active: false,
                seq: 0,
            },
            Response::Stats(StatsReport {
                seq: 99,
                providers: 100,
                active: 60,
                cached: 55,
                social_cost: 1234.5,
                epochs: 17,
                moves: 203,
                equilibrium: true,
                shards: Vec::new(),
            }),
            Response::Stats(StatsReport {
                seq: 12,
                providers: 40,
                active: 20,
                cached: 18,
                social_cost: 99.5,
                epochs: 4,
                moves: 31,
                equilibrium: false,
                shards: vec![
                    ShardStat {
                        seq: 7,
                        depth: 3,
                        writes: 120,
                    },
                    ShardStat {
                        seq: 5,
                        depth: 0,
                        writes: 88,
                    },
                ],
            }),
            Response::Snapshotted { seq: 5 },
            Response::Restored { seq: 5 },
            Response::Draining,
            Response::Error {
                msg: "unknown provider sp999".to_string(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            assert_eq!(
                parse_request(&encode_request(&req)).unwrap(),
                req,
                "{req:?}"
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in all_responses() {
            assert_eq!(
                parse_response(&encode_response(&resp)).unwrap(),
                resp,
                "{resp:?}"
            );
        }
    }

    #[test]
    fn single_shard_stats_stay_wire_compatible() {
        // A stats payload without per-shard fields is exactly what the
        // pre-sharding protocol emitted; it must parse to an empty shard
        // list and re-encode byte-identically.
        let legacy = "{\"ok\":1,\"result\":\"stats\",\"seq\":1,\"providers\":2,\"active\":1,\
                      \"cached\":1,\"social_cost\":2.5,\"epochs\":3,\"moves\":4,\"equilibrium\":1}";
        let parsed = parse_response(legacy).unwrap();
        let Response::Stats(ref st) = parsed else {
            panic!("not stats");
        };
        assert!(st.shards.is_empty());
        assert_eq!(encode_response(&parsed), legacy);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        for req in all_requests() {
            write_frame(&mut buf, &encode_request(&req)).unwrap();
        }
        let mut r = std::io::BufReader::new(buf.as_slice());
        for req in all_requests() {
            let payload = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(parse_request(&payload).unwrap(), req);
        }
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn torn_and_malformed_frames_error() {
        // Length line present, payload missing.
        let mut r = std::io::BufReader::new(&b"10\n"[..]);
        assert!(read_frame(&mut r).is_err());
        // Garbage length.
        let mut r = std::io::BufReader::new(&b"ten\n{}\n"[..]);
        assert!(read_frame(&mut r).is_err());
        // Oversized frame.
        let oversized = format!("{}\n", MAX_FRAME + 1).into_bytes();
        let mut r = std::io::BufReader::new(oversized.as_slice());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn decoder_reassembles_byte_by_byte() {
        // Feed every frame one byte at a time: the decoder must stay in
        // "need more" until the final newline of each frame.
        let mut wire = Vec::new();
        for req in all_requests() {
            write_frame(&mut wire, &encode_request(&req)).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            while let Some(payload) = dec.next_frame().unwrap() {
                got.push(parse_request(&payload).unwrap());
            }
        }
        assert_eq!(got, all_requests());
        assert!(!dec.mid_frame(), "no partial frame may remain");
    }

    #[test]
    fn decoder_handles_split_length_prefix() {
        // `12\n{...}\n` delivered as "1" then "2\n{...}\n".
        let payload = r#"{"op":"stats"}"#;
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        let (a, b) = wire.split_at(1);
        let mut dec = FrameDecoder::new();
        dec.extend(a);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(dec.mid_frame());
        dec.extend(b);
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(payload));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn decoder_yields_many_pipelined_frames_from_one_chunk() {
        let mut wire = Vec::new();
        for _ in 0..50 {
            write_frame(&mut wire, r#"{"op":"stats"}"#).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        let mut n = 0;
        while dec.next_frame().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 50);
    }

    #[test]
    fn decoder_rejects_oversize_and_malformed_prefixes() {
        // Oversized declared length fails as soon as the prefix is whole.
        let mut dec = FrameDecoder::new();
        dec.extend(format!("{}\n", MAX_FRAME + 1).as_bytes());
        assert!(dec.next_frame().is_err());
        // Garbage length line.
        let mut dec = FrameDecoder::new();
        dec.extend(b"ten\n{}\n");
        assert!(dec.next_frame().is_err());
        // A length line that never terminates is cut off at the cap.
        let mut dec = FrameDecoder::new();
        dec.extend(&[b'9'; MAX_LEN_LINE]);
        assert!(dec.next_frame().is_err());
        // Frame whose payload is not followed by the newline terminator.
        let mut dec = FrameDecoder::new();
        dec.extend(b"2\n{}X");
        assert!(dec.next_frame().is_err());
        // Non-UTF-8 payload.
        let mut dec = FrameDecoder::new();
        dec.extend(b"2\n\xff\xfe\n");
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_compacts_without_losing_frames() {
        // Push enough traffic through one decoder to force compaction,
        // interleaving partial deliveries.
        let payload = r#"{"op":"query","provider":123456}"#;
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = 0usize;
        for round in 0..2000 {
            // Alternate split points to exercise both partial paths.
            let cut = 1 + (round % (wire.len() - 1));
            dec.extend(&wire[..cut]);
            while dec.next_frame().unwrap().is_some() {
                got += 1;
            }
            dec.extend(&wire[cut..]);
            while let Some(p) = dec.next_frame().unwrap() {
                assert_eq!(p, payload);
                got += 1;
            }
        }
        assert_eq!(got, 2000);
    }

    #[test]
    fn unknown_ops_and_results_error() {
        assert!(parse_request(r#"{"op":"mystery"}"#).is_err());
        assert!(parse_response(r#"{"ok":1,"result":"mystery"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    /// The wire error for a malformed frame names the fault, not another
    /// consumer of the JSON reader.
    #[test]
    fn malformed_request_errors_describe_the_json() {
        for payload in [r#"{"op":}"#, "not json", r#"{"op":"join"}"#] {
            let msg = parse_request(payload).unwrap_err().to_string();
            assert!(msg.starts_with("malformed JSON: "), "{payload}: {msg}");
            assert!(!msg.contains("trace"), "{payload}: {msg}");
        }
    }

    #[test]
    fn error_response_decodes_from_ok_zero() {
        let r = parse_response(r#"{"ok":0,"error":"boom"}"#).unwrap();
        assert_eq!(
            r,
            Response::Error {
                msg: "boom".to_string()
            }
        );
    }
}
