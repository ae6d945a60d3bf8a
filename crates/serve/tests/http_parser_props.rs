//! Property/fuzz tests: the HTTP request parser is total over
//! arbitrary bytes. Whatever the wire delivers — garbage request
//! lines, truncated heads, Content-Length overflow or mismatch,
//! interleaved CRLF, hostile chunk framing — parsing must end in a
//! well-formed 4xx-mappable error or a clean result, never a panic and
//! never unbounded buffering. A socket hands a request over in pieces,
//! so every reader also gives the same result whatever sizes the reads
//! come in, interrupted reads included.

use decamouflage_serve::http::{
    parse_head, read_head, read_sized_body, BodyPlan, ChunkedReader, HttpError,
};
use proptest::prelude::*;
use std::io::{self, BufRead, BufReader, Read};

/// Arbitrary byte soup, biased toward HTTP-ish structure so the
/// interesting branches (CRLF handling, header splits, hex sizes) get
/// exercised, not just the UTF-8 rejection fast path.
fn arb_wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    let atom = prop_oneof![
        Just(b"GET / HTTP/1.1\r\n".to_vec()),
        Just(b"POST /check HTTP/1.1\r\n".to_vec()),
        Just(b"Content-Length: 10\r\n".to_vec()),
        Just(b"Content-Length: 99999999999999999999\r\n".to_vec()),
        Just(b"Transfer-Encoding: chunked\r\n".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"\n".to_vec()),
        Just(b"\r".to_vec()),
        Just(b": no-name\r\n".to_vec()),
        Just(b"Bad Header Name: x\r\n".to_vec()),
        proptest::collection::vec(0u8..=255u8, 0..24),
    ];
    proptest::collection::vec(atom, 0..12).prop_map(|atoms| atoms.concat())
}

/// Hostile chunked-encoding payloads: valid-ish size lines, huge hex,
/// negative-looking sizes, missing terminators, raw bytes.
fn arb_chunked_bytes() -> impl Strategy<Value = Vec<u8>> {
    let atom = prop_oneof![
        Just(b"4\r\nwire\r\n".to_vec()),
        Just(b"0\r\n\r\n".to_vec()),
        Just(b"ffffffffffffffff1\r\n".to_vec()),
        Just(b"-5\r\nxxxxx\r\n".to_vec()),
        Just(b"a;ext=1\r\n0123456789\r\n".to_vec()),
        Just(b"3\r\nab".to_vec()),
        proptest::collection::vec(0u8..=255u8, 0..16),
    ];
    proptest::collection::vec(atom, 0..8).prop_map(|atoms| atoms.concat())
}

/// Read sizes for [`Pieces`]: a zero is an interrupted read.
fn arb_piece_sizes() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..24, 1..8)
}

/// The wire bytes as a socket hands them out: each read returns at most
/// the next of `sizes` (cycled) bytes, and a zero size fails the read
/// with `Interrupted`.
struct Pieces<'a> {
    bytes: &'a [u8],
    sizes: Vec<usize>,
    next: usize,
}

impl<'a> Pieces<'a> {
    /// `bytes` in pieces of `sizes`, buffered as the server buffers its
    /// socket, with `capacity` bytes.
    fn buffered(bytes: &'a [u8], mut sizes: Vec<usize>, capacity: usize) -> BufReader<Self> {
        if sizes.iter().all(|&size| size == 0) {
            sizes.push(1);
        }
        BufReader::with_capacity(capacity, Self { bytes, sizes, next: 0 })
    }
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.bytes.is_empty() || buf.is_empty() {
            return Ok(0);
        }
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        if size == 0 {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let (piece, rest) = self.bytes.split_at(size.min(buf.len()).min(self.bytes.len()));
        buf[..piece.len()].copy_from_slice(piece);
        self.bytes = rest;
        Ok(piece.len())
    }
}

/// Every result of a [`ChunkedReader`] up to its first non-frame.
fn frames_of<R: BufRead>(reader: &mut R, budget: usize) -> Vec<String> {
    let mut frames = ChunkedReader::new(reader, budget);
    let mut results = Vec::new();
    loop {
        let next = frames.next_frame();
        let done = !matches!(next, Ok(Some(_)));
        results.push(format!("{next:?}"));
        if done {
            return results;
        }
    }
}

/// What is left on a reader.
fn rest_of<R: Read>(reader: &mut R) -> Vec<u8> {
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("in-memory reads only fail as Interrupted");
    rest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse_head` never panics and classifies every input.
    #[test]
    fn parse_head_is_total_over_arbitrary_bytes(bytes in arb_wire_bytes()) {
        match parse_head(&bytes) {
            Ok(head) => {
                // Anything accepted satisfies the head invariants.
                prop_assert!(!head.method.is_empty());
                prop_assert!(head.target.starts_with('/') || head.target == "*");
                prop_assert!(head.version == "HTTP/1.0" || head.version == "HTTP/1.1");
                // body_plan on an accepted head must also be total.
                let _ = head.body_plan();
            }
            Err(HttpError::BadRequest(detail)) => prop_assert!(!detail.is_empty()),
            Err(HttpError::HeadersTooLarge) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// `read_head` never buffers past its cap and never panics, on any
    /// byte stream including ones with no terminator at all.
    #[test]
    fn read_head_is_bounded_and_total(bytes in arb_wire_bytes(), cap in 16usize..512) {
        let mut reader = bytes.as_slice();
        match read_head(&mut reader, cap) {
            Ok(Some(head)) => prop_assert!(head.len() <= cap),
            // Clean EOF before any bytes arrived.
            Ok(None) => prop_assert!(bytes.is_empty()),
            Err(HttpError::HeadersTooLarge | HttpError::BadRequest(_)) => {}
            Err(HttpError::Closed) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// The chunked decoder is total and never hands out more payload
    /// than its budget, whatever the framing claims.
    #[test]
    fn chunked_reader_is_total_and_respects_budget(
        bytes in arb_chunked_bytes(),
        budget in 1usize..256,
    ) {
        let mut reader = bytes.as_slice();
        let mut frames = ChunkedReader::new(&mut reader, budget);
        let mut total = 0usize;
        loop {
            match frames.next_frame() {
                Ok(Some(frame)) => {
                    total += frame.len();
                    prop_assert!(total <= budget, "{total} bytes exceeds budget {budget}");
                }
                Ok(None) => break,
                Err(
                    HttpError::BadRequest(_)
                    | HttpError::BodyTooLarge
                    | HttpError::Closed
                    | HttpError::HeadersTooLarge,
                ) => break,
                Err(other) => {
                    prop_assert!(false, "unexpected error class: {other}");
                }
            }
        }
    }

    /// A sized body read refuses lengths past the cap without reading,
    /// and short streams surface as clean close, not panic.
    #[test]
    fn sized_body_reads_are_total(
        body in proptest::collection::vec(0u8..=255u8, 0..128),
        claimed in 0usize..512,
        cap in 0usize..256,
    ) {
        let mut reader = body.as_slice();
        match read_sized_body(&mut reader, claimed, cap) {
            Ok(bytes) => {
                prop_assert_eq!(bytes.len(), claimed);
                prop_assert!(claimed <= cap);
            }
            Err(HttpError::BodyTooLarge) => prop_assert!(claimed > cap),
            Err(HttpError::Closed) => prop_assert!(body.len() < claimed),
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Round-trip: any request we would legitimately emit parses back
    /// to the same method/target, with the body plan intact.
    #[test]
    fn well_formed_requests_round_trip(
        target_tail in "[a-z]{0,12}",
        length in 0usize..4096,
    ) {
        let target = format!("/{target_tail}");
        let raw = format!(
            "POST {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {length}\r\n\r\n"
        );
        let head = parse_head(raw.as_bytes()).unwrap();
        prop_assert_eq!(head.method.as_str(), "POST");
        prop_assert_eq!(head.path(), target.as_str());
        prop_assert_eq!(head.body_plan().unwrap(), BodyPlan::Sized(length));
    }

    /// `read_head` gives the same head or error, and leaves the same
    /// bytes buffered for the body, whatever the read sizes.
    #[test]
    fn read_head_is_blind_to_read_boundaries(
        bytes in arb_wire_bytes(),
        cap in 16usize..512,
        sizes in arb_piece_sizes(),
        capacity in 1usize..64,
    ) {
        let mut whole = bytes.as_slice();
        let mut pieces = Pieces::buffered(&bytes, sizes, capacity);
        let (expected, got) = (read_head(&mut whole, cap), read_head(&mut pieces, cap));
        prop_assert_eq!(format!("{expected:?}"), format!("{got:?}"));
        prop_assert_eq!(rest_of(&mut whole), rest_of(&mut pieces));
    }

    /// A sized body reads the same whatever the read sizes.
    #[test]
    fn sized_body_reads_are_blind_to_read_boundaries(
        body in proptest::collection::vec(0u8..=255u8, 0..128),
        claimed in 0usize..160,
        sizes in arb_piece_sizes(),
        capacity in 1usize..64,
    ) {
        let expected = read_sized_body(&mut body.as_slice(), claimed, 1024);
        let got = read_sized_body(&mut Pieces::buffered(&body, sizes, capacity), claimed, 1024);
        prop_assert_eq!(format!("{expected:?}"), format!("{got:?}"));
    }

    /// The chunked decoder yields the same frames and the same error
    /// whatever the read sizes.
    #[test]
    fn chunked_frames_are_blind_to_read_boundaries(
        bytes in arb_chunked_bytes(),
        budget in 1usize..256,
        sizes in arb_piece_sizes(),
        capacity in 1usize..64,
    ) {
        let expected = frames_of(&mut bytes.as_slice(), budget);
        let got = frames_of(&mut Pieces::buffered(&bytes, sizes, capacity), budget);
        prop_assert_eq!(expected, got);
    }
}
