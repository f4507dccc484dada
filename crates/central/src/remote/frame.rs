//! Length-prefixed binary framing for the shard-worker wire protocol.
//!
//! Every message on a worker connection is one frame:
//!
//! ```text
//! ┌────────────┬─────────┬──────────────────────┐
//! │ len: u32 LE│ op: u8  │ payload: len bytes   │
//! └────────────┴─────────┴──────────────────────┘
//! ```
//!
//! `len` counts the payload only (the 5-byte header is fixed), and is
//! hard-capped at [`MAX_FRAME`]: a peer-supplied length can never make
//! the decoder allocate more than the cap, no matter what bytes arrive.
//! Payloads are JSON documents (see [`super::wire`]) — self-describing,
//! diffable in a packet capture, and served by the vendored serde shim.
//!
//! [`read_frame`] / [`write_frame`] are the one codec the worker and the
//! coordinator run. The frame-robustness property suite drives
//! [`read_frame`] over arbitrary bytes delivered in arbitrary short reads:
//! any byte stream either yields well-formed frames or one error, never a
//! panic and never an over-allocation.

use std::io::{self, Read, Write};

/// Hard cap on a frame payload: 16 MiB. A decoder never allocates more
/// than this on behalf of a peer-supplied length.
pub const MAX_FRAME: usize = 16 << 20;

/// Fixed frame header size: 4-byte little-endian length + 1-byte opcode.
pub const HEADER_LEN: usize = 5;

/// Write one frame. `payload.len()` must not exceed [`MAX_FRAME`]
/// (internal callers never produce an oversized frame; this guards
/// against bugs, not peers).
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "refusing to write an oversized frame");
    let mut hdr = [0u8; HEADER_LEN];
    hdr[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    hdr[4] = opcode;
    w.write_all(&hdr)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; EOF mid-frame and an over-cap length are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut hdr = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = r.read(&mut hdr[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(None)
            } else {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid frame header"))
            };
        }
        filled += n;
    }
    let len = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        // Fatal for the connection: frames carry no resync point.
        let reason = format!("frame payload of {len} bytes exceeds the {MAX_FRAME} byte cap");
        return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some((hdr[4], payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_cursor() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, b"hello").unwrap();
        write_frame(&mut wire, 9, b"").unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap(), Some((7, b"hello".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((9, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at a boundary");
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.push(1);
        let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
