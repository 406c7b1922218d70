//! Seeded byte-soup properties of the client wire surface.
//!
//! The event loop feeds whatever bytes a socket delivers into a
//! [`FrameDecoder`] and hands every complete payload to
//! [`parse_request`]. Both take input from outside the program, so
//! neither may panic on any byte sequence, delivered in any chunking:
//! the decoder yields frames or an `InvalidData` error (after which the
//! connection is dropped), and the parser yields a request or an error.
//! Valid traffic split at arbitrary points must decode to exactly the
//! frames that were sent.

use mec_serve::proto::{
    encode_request, parse_request, push_frame, FrameDecoder, Request, MAX_FRAME,
};
use proptest::prelude::*;

/// Bytes biased towards what frames are made of (digits, newlines, JSON
/// punctuation, op names) so the soup reaches past the length line.
fn soup_byte() -> impl Strategy<Value = u8> {
    const ALPHABET: &[u8] = b"0123456789\n\n\n{}[]\":,. -+eEaoquinjsptr\\\t\r";
    (0u8..4, 0usize..ALPHABET.len(), 0u8..=255).prop_map(
        |(mode, k, raw)| {
            if mode == 0 {
                raw
            } else {
                ALPHABET[k]
            }
        },
    )
}

/// Feeds `bytes` to a fresh decoder in chunks cut at `cuts` and returns
/// the payloads decoded before the stream ended or framing broke.
fn decode_chunked(bytes: &[u8], cuts: &[usize]) -> Result<Vec<String>, std::io::Error> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    points.push(0);
    points.push(bytes.len());
    points.sort_unstable();
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    for w in points.windows(2) {
        dec.extend(&bytes[w[0]..w[1]]);
        while let Some(payload) = dec.next_frame()? {
            frames.push(payload);
        }
    }
    Ok(frames)
}

fn request(op: u8, provider: usize, cloudlet: (bool, usize), demand: (f64, f64)) -> Request {
    match op {
        0 => Request::Join {
            provider,
            cloudlet: cloudlet.0.then_some(cloudlet.1),
        },
        1 => Request::Leave { provider },
        2 => Request::UpdateDemand {
            provider,
            compute: demand.0,
            bandwidth: demand.1,
        },
        3 => Request::Query { provider },
        4 => Request::Stats,
        5 => Request::Snapshot,
        6 => Request::Restore,
        _ => Request::Shutdown,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bytes in arbitrary chunks: the decoder never panics and
    /// either yields frames (each a UTF-8 payload within the cap, which
    /// `parse_request` accepts or rejects without panicking) or stops
    /// with `InvalidData`.
    #[test]
    fn byte_soup_yields_frames_or_invalid_data(
        bytes in proptest::collection::vec(soup_byte(), 0..256),
        cuts in proptest::collection::vec(0usize..512, 0..8),
    ) {
        // Half the cases lead with a well-formed length line so the
        // payload and terminator checks see soup too.
        let mut stream = Vec::new();
        if bytes.len() % 2 == 0 {
            stream.extend_from_slice(format!("{}\n", bytes.len() / 3).as_bytes());
        }
        stream.extend_from_slice(&bytes);
        match decode_chunked(&stream, &cuts) {
            Ok(frames) => {
                for payload in frames {
                    prop_assert!(payload.len() <= MAX_FRAME);
                    let _ = parse_request(&payload);
                }
            }
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        }
    }

    /// Valid pipelined requests split at random points decode to the
    /// payloads that were framed, and each parses back to its request.
    #[test]
    fn split_frames_round_trip(
        ops in proptest::collection::vec(
            (0u8..8, 0usize..1_000_000, (proptest::bool::ANY, 0usize..64), (0.0..100.0f64, 0.0..1e4f64)),
            1..24,
        ),
        cuts in proptest::collection::vec(0usize..4096, 0..12),
    ) {
        let requests: Vec<Request> = ops
            .into_iter()
            .map(|(op, provider, cloudlet, demand)| request(op, provider, cloudlet, demand))
            .collect();
        let payloads: Vec<String> = requests.iter().map(encode_request).collect();
        let mut stream = Vec::new();
        for p in &payloads {
            push_frame(&mut stream, p);
        }
        let frames = decode_chunked(&stream, &cuts).expect("valid frames decode");
        prop_assert_eq!(&frames, &payloads);
        for (payload, req) in frames.iter().zip(&requests) {
            prop_assert_eq!(&parse_request(payload).expect("valid request parses"), req);
        }
    }
}
