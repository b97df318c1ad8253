//! Length-prefixed, CRC-framed binary transport.
//!
//! Every message travels in one frame:
//!
//! ```text
//! +----------+----------+----------+------------------+
//! | magic u32| len  u32 | crc  u32 | payload (len B)  |
//! +----------+----------+----------+------------------+
//! ```
//!
//! all little-endian. `magic` re-anchors the stream on every frame so a
//! desynchronised peer is detected at the next boundary instead of being
//! misparsed; `len` counts payload bytes only and is validated against the
//! connection's maximum *before* any allocation, so a hostile length prefix
//! cannot balloon memory; `crc` is CRC-32 (the WAL's polynomial) over the
//! payload. A frame that fails any of these checks is unrecoverable — the
//! byte position of the next frame is unknowable — so the peer sends one
//! typed reject ([`crate::wire::ErrorCode::BadFrame`] /
//! [`crate::wire::ErrorCode::FrameTooLarge`]) and closes.
//!
//! [`FrameBuf`] is the reassembly buffer both ends use: push whatever the
//! socket produced, pull zero or more complete frames. It is pure state
//! machine — no I/O — which is what the torn-frame and fuzz tests grip.

use crate::wire::{ErrorCode, WireError};
use storage::crc32::crc32;

/// Frame magic: `"CRMS"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"CRMS");

/// Bytes of frame header (magic + len + crc).
pub const HEADER_LEN: usize = 12;

/// Default per-connection payload ceiling (8 MiB). Large enough for a
/// bulk-load Newick string of a ~100k-leaf tree, small enough that a
/// malicious length prefix cannot exhaust memory.
pub const DEFAULT_MAX_PAYLOAD: usize = 8 * 1024 * 1024;

/// Structural frame violations. All of them poison the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The four bytes at the expected frame boundary were not [`MAGIC`].
    BadMagic(u32),
    /// The declared payload length exceeds the connection's maximum.
    TooLarge {
        /// Declared payload length.
        len: usize,
        /// The connection's configured ceiling.
        max: usize,
    },
    /// The payload's CRC-32 did not match the header.
    BadCrc {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload bytes received.
        found: u32,
    },
}

impl FrameError {
    /// The typed wire error this violation is reported as before the
    /// connection closes.
    pub fn to_wire(&self) -> WireError {
        match self {
            FrameError::BadMagic(m) => WireError::new(
                ErrorCode::BadFrame,
                format!("bad frame magic {m:#010x} (expected {MAGIC:#010x})"),
            ),
            FrameError::TooLarge { len, max } => WireError::new(
                ErrorCode::FrameTooLarge,
                format!("frame payload of {len} bytes exceeds the {max}-byte limit"),
            ),
            FrameError::BadCrc { expected, found } => WireError::new(
                ErrorCode::BadFrame,
                format!("frame CRC mismatch: header {expected:#010x}, payload {found:#010x}"),
            ),
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_wire())
    }
}

impl std::error::Error for FrameError {}

/// Wrap a payload in a frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Streaming frame reassembly: feed bytes in arbitrary chunks, pull
/// complete validated payloads.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames (compacted
    /// lazily).
    pos: usize,
    max_payload: usize,
}

impl FrameBuf {
    /// A reassembly buffer with the given payload ceiling.
    pub fn new(max_payload: usize) -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            pos: 0,
            max_payload,
        }
    }

    /// Append bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by one frame
        // plus one socket read however long the connection lives.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet returned as a frame. Non-zero
    /// at connection EOF means the peer disconnected mid-frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Try to extract the next complete frame. `Ok(None)` means more bytes
    /// are needed; an error poisons the stream (the caller must close).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(avail[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let len = u32::from_le_bytes(avail[4..8].try_into().expect("4 bytes")) as usize;
        if len > self.max_payload {
            return Err(FrameError::TooLarge {
                len,
                max: self.max_payload,
            });
        }
        let expected = u32::from_le_bytes(avail[8..12].try_into().expect("4 bytes"));
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = avail[HEADER_LEN..HEADER_LEN + len].to_vec();
        let found = crc32(&payload);
        if found != expected {
            return Err(FrameError::BadCrc { expected, found });
        }
        self.pos += HEADER_LEN + len;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_single_and_pipelined() {
        let mut fb = FrameBuf::new(DEFAULT_MAX_PAYLOAD);
        let a = encode_frame(b"hello");
        let b = encode_frame(b"");
        let c = encode_frame(&[7u8; 1000]);
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        stream.extend_from_slice(&c);
        // Feed in awkward 7-byte chunks.
        let mut got = Vec::new();
        for chunk in stream.chunks(7) {
            fb.push(chunk);
            while let Some(p) = fb.next_frame().expect("valid frames") {
                got.push(p);
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], b"hello");
        assert_eq!(got[1], b"");
        assert_eq!(got[2], vec![7u8; 1000]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut fb = FrameBuf::new(1024);
        fb.push(&[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 0]);
        let err = fb.next_frame().expect_err("must reject");
        assert!(matches!(err, FrameError::BadMagic(_)));
        assert_eq!(err.to_wire().code, ErrorCode::BadFrame);
    }

    #[test]
    fn oversized_len_rejected_before_buffering_payload() {
        let mut fb = FrameBuf::new(64);
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&MAGIC.to_le_bytes());
        hdr.extend_from_slice(&(u32::MAX).to_le_bytes());
        hdr.extend_from_slice(&0u32.to_le_bytes());
        fb.push(&hdr);
        let err = fb.next_frame().expect_err("must reject");
        assert_eq!(err.to_wire().code, ErrorCode::FrameTooLarge);
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut frame = encode_frame(b"payload-bytes");
        let n = frame.len();
        frame[n - 1] ^= 0x01;
        let mut fb = FrameBuf::new(1024);
        fb.push(&frame);
        let err = fb.next_frame().expect_err("must reject");
        assert!(matches!(err, FrameError::BadCrc { .. }));
    }

    #[test]
    fn torn_frame_stays_pending() {
        let frame = encode_frame(b"torn");
        let mut fb = FrameBuf::new(1024);
        fb.push(&frame[..frame.len() - 2]);
        assert!(fb
            .next_frame()
            .expect("incomplete is not an error")
            .is_none());
        assert!(fb.pending() > 0, "mid-frame bytes are observable");
        fb.push(&frame[frame.len() - 2..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"torn");
    }
}
