//! Frame-codec robustness: the wire decoder fed *arbitrary* bytes in
//! *arbitrary* short reads must never panic, never allocate past the
//! frame cap on behalf of a peer-supplied length, and always land in one
//! of two states — well-formed frames out, or one structured `io::Error`
//! that ends the connection. A worker parses these bytes off the public
//! network side of the protocol, so this suite is the memory-safety and
//! availability contract for a hostile peer.

use central::remote::frame::{read_frame, write_frame};
use central::remote::MAX_FRAME;
use proptest::prelude::*;
use std::io::{self, Read};

/// A reader that hands out at most `chunk` bytes per `read` call, as a
/// socket may.
struct Chunked<'a> {
    rest: &'a [u8],
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// Frame streams a hostile peer might send: raw noise, or valid frames
/// with noise or a deliberately oversized header spliced after them
/// (exercises error-after-valid and starve-after-valid orderings).
#[derive(Debug, Clone)]
enum Stream {
    /// Arbitrary bytes, structure purely accidental.
    Noise(Vec<u8>),
    /// Well-formed frames followed by arbitrary trailing bytes.
    FramesThenNoise(Vec<(u8, Vec<u8>)>, Vec<u8>),
    /// A deliberately oversized header after valid frames.
    FramesThenOversized(Vec<(u8, Vec<u8>)>, u32),
}

/// The vendored proptest shim has no `prop_oneof`: draw every component
/// and pick the variant with a selector byte inside `prop_map`.
fn stream_strategy() -> impl Strategy<Value = Stream> {
    let frames =
        proptest::collection::vec((0u8..=255, proptest::collection::vec(0u8..=255, 0..64)), 0..4);
    let noise = proptest::collection::vec(0u8..=255, 0..256);
    let oversized = (MAX_FRAME as u32 + 1)..=u32::MAX;
    (0u8..3, frames, noise, oversized).prop_map(|(kind, frames, noise, len)| match kind {
        0 => Stream::Noise(noise),
        1 => Stream::FramesThenNoise(frames, noise),
        _ => Stream::FramesThenOversized(frames, len),
    })
}

/// Render a stream to wire bytes, returning the frames a correct decoder
/// must produce before anything else happens.
fn render(stream: &Stream) -> (Vec<u8>, Vec<(u8, Vec<u8>)>) {
    match stream {
        Stream::Noise(bytes) => (bytes.clone(), Vec::new()),
        Stream::FramesThenNoise(frames, noise) => {
            let mut wire = Vec::new();
            for (op, payload) in frames {
                write_frame(&mut wire, *op, payload).unwrap();
            }
            wire.extend_from_slice(noise);
            (wire, frames.clone())
        }
        Stream::FramesThenOversized(frames, len) => {
            let mut wire = Vec::new();
            for (op, payload) in frames {
                write_frame(&mut wire, *op, payload).unwrap();
            }
            wire.extend_from_slice(&len.to_le_bytes());
            wire.push(0);
            (wire, frames.clone())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary bytes in arbitrary short reads: the decoder never
    /// panics, every frame it yields respects the cap, every valid
    /// leading frame is decoded byte-exactly, and an over-cap header
    /// after them is `InvalidData`.
    #[test]
    fn decoder_survives_arbitrary_bytes(
        stream in stream_strategy(),
        chunk in 1usize..64,
    ) {
        let (wire, expected) = render(&stream);
        let mut r = Chunked { rest: &wire, chunk };
        let mut got = Vec::new();
        let error = loop {
            match read_frame(&mut r) {
                Ok(Some(frame)) => got.push(frame),
                Ok(None) => break None,
                Err(e) => break Some(e.kind()),
            }
        };
        // Every decoded frame respects the cap, whatever the input was.
        for (_, payload) in &got {
            prop_assert!(payload.len() <= MAX_FRAME);
        }
        // The valid leading frames come out byte-exactly before any
        // trailing noise or over-cap header can matter (the noise is
        // *after* them on the wire, so it cannot reorder or corrupt).
        if let Stream::FramesThenNoise(_, _) | Stream::FramesThenOversized(_, _) = &stream {
            prop_assert!(
                got.len() >= expected.len(),
                "valid frames lost: got {} of {}", got.len(), expected.len()
            );
            for (i, (a, b)) in got.iter().zip(&expected).enumerate() {
                prop_assert_eq!(a, b, "frame {} corrupted", i);
            }
        }
        if let Stream::FramesThenOversized(_, _) = &stream {
            prop_assert_eq!(error, Some(io::ErrorKind::InvalidData), "an over-cap header");
        }
    }

    /// The blocking reader path under the same hostility: arbitrary
    /// bytes never panic it — every outcome is a clean EOF, a capped
    /// frame, or a structured io::Error.
    #[test]
    fn blocking_reader_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let mut r = io::Cursor::new(bytes);
        loop {
            match read_frame(&mut r) {
                Ok(Some((_op, payload))) => prop_assert!(payload.len() <= MAX_FRAME),
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "unexpected error kind {:?}", e.kind()
                    );
                    break;
                }
            }
        }
    }
}
