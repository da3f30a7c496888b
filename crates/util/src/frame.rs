//! Length-delimited message framing over byte streams.
//!
//! The wire format for `dbpal-server` (and anything else that wants to
//! pass discrete messages over TCP): each frame is a 4-byte big-endian
//! payload length followed by exactly that many payload bytes. There is
//! no escaping and no sentinel, so any byte sequence — in practice a
//! compact JSON document — rides unchanged.
//!
//! ```text
//!   +----------------+-------------------+
//!   | len: u32 (BE)  | payload: len bytes|
//!   +----------------+-------------------+
//! ```
//!
//! Reading distinguishes three failure shapes so a server can react with
//! a typed response instead of a panic or a wedged connection:
//!
//! * clean EOF *between* frames → `Ok(None)` (the peer hung up);
//! * EOF or I/O failure *inside* a frame → [`FrameError::Truncated`] /
//!   [`FrameError::Io`] (drop the connection — the stream is desynced);
//! * a declared length over the reader's cap → [`FrameError::TooLarge`]
//!   *before* any payload byte is read, so the server can still write
//!   one typed refusal on the intact write half and close.

use std::fmt;
use std::io::{self, Read, Write};

/// Bytes in the length prefix.
pub const HEADER_LEN: usize = 4;

/// Default cap on a single frame's payload (1 MiB) — far above any
/// legitimate request batch, far below an allocation-of-death.
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;

/// A framing failure. `Io`/`Truncated` mean the stream is unusable;
/// `TooLarge` leaves the write half intact for one typed refusal.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader failed mid-frame.
    Io(io::Error),
    /// The stream ended inside a header or payload.
    Truncated {
        /// Bytes that were expected when the stream ended.
        expected: usize,
    },
    /// The header declared a payload over the configured cap. No
    /// payload bytes have been consumed.
    TooLarge {
        /// The declared payload length.
        declared: usize,
        /// The cap it exceeded.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Truncated { expected } => {
                write!(f, "truncated frame: stream ended {expected} bytes early")
            }
            FrameError::TooLarge { declared, max } => {
                write!(f, "oversized frame: {declared} bytes declared, cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encode `payload`'s length prefix.
pub fn encode_len(payload_len: usize) -> [u8; HEADER_LEN] {
    (payload_len as u32).to_be_bytes()
}

/// Decode a length prefix.
pub fn decode_len(header: [u8; HEADER_LEN]) -> usize {
    u32::from_be_bytes(header) as usize
}

/// Write one frame (header + payload) with one `write_all` and flush,
/// so an unbuffered socket sends the frame in one segment, not two.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&encode_len(payload.len()));
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame's payload after its 4-byte header has already been
/// consumed and decoded to `declared`. Checks `max` *before* reading.
pub fn read_payload(r: &mut impl Read, declared: usize, max: usize) -> Result<Vec<u8>, FrameError> {
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut payload = vec![0u8; declared];
    read_fully(r, &mut payload)?;
    Ok(payload)
}

/// Read one whole frame. `Ok(None)` on clean EOF before any header
/// byte; `Truncated` if the stream ends anywhere after that.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // One read for the header, which usually arrives whole. Reading
    // nothing means the peer hung up; a header split across reads is
    // finished under the "truncated" rule.
    let got = loop {
        match r.read(&mut header) {
            Ok(0) => return Ok(None),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    };
    read_fully(r, header.get_mut(got..).unwrap_or_default())?;
    let declared = decode_len(header);
    read_payload(r, declared, max).map(Some)
}

/// `read_exact` that maps EOF to [`FrameError::Truncated`].
fn read_fully(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated {
                expected: buf.len(),
            }
        } else {
            FrameError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        read_frame(&mut Cursor::new(wire), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn frames_roundtrip() {
        assert_eq!(roundtrip(b""), b"");
        assert_eq!(roundtrip(b"{\"op\":\"health\"}"), b"{\"op\":\"health\"}");
        let big = vec![0xABu8; 70_000];
        assert_eq!(roundtrip(&big), big);
    }

    #[test]
    fn back_to_back_frames_stay_separate() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"one").unwrap();
        write_frame(&mut wire, b"two").unwrap();
        let mut cur = Cursor::new(wire);
        assert_eq!(read_frame(&mut cur, 64).unwrap().unwrap(), b"one");
        assert_eq!(read_frame(&mut cur, 64).unwrap().unwrap(), b"two");
        assert!(read_frame(&mut cur, 64).unwrap().is_none());
    }

    #[test]
    fn clean_eof_is_none() {
        let mut cur = Cursor::new(Vec::new());
        assert!(read_frame(&mut cur, 64).unwrap().is_none());
    }

    #[test]
    fn truncated_header_and_payload_are_typed() {
        // Header cut short.
        let mut cur = Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut cur, 64),
            Err(FrameError::Truncated { .. })
        ));
        // Payload cut short.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        let mut cur = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cur, 64),
            Err(FrameError::Truncated { expected: 5 })
        ));
    }

    #[test]
    fn oversized_frame_rejected_before_payload_read() {
        let mut wire = Vec::from(encode_len(1 << 30));
        wire.extend_from_slice(b"only a few actual bytes");
        let mut cur = Cursor::new(wire);
        match read_frame(&mut cur, 1 << 10) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, 1 << 30);
                assert_eq!(max, 1 << 10);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Nothing past the header was consumed.
        assert_eq!(cur.position(), HEADER_LEN as u64);
    }

    /// A reader that hands out at most `step` bytes per read and counts
    /// its reads.
    struct Trickle {
        data: Cursor<Vec<u8>>,
        step: usize,
        reads: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.step);
            self.data.read(&mut buf[..n])
        }
    }

    /// A counting writer: every `write` call and the bytes it took.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_its_header_one_read() {
        let mut w = Writes::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.0, [b"\0\0\0\x05hello".to_vec()]);

        let mut r = Trickle {
            data: Cursor::new(w.0.concat()),
            step: usize::MAX,
            reads: 0,
        };
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(r.reads, 2, "one read for the header, one for the payload");
    }

    #[test]
    fn a_header_split_across_reads_is_reassembled() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"split").unwrap();
        write_frame(&mut wire, b"").unwrap();
        for step in 1..=3 {
            let mut r = Trickle {
                data: Cursor::new(wire.clone()),
                step,
                reads: 0,
            };
            assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"split");
            assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
            assert!(read_frame(&mut r, 64).unwrap().is_none());
        }
        // A header cut short after a partial first read is truncated.
        let mut r = Trickle {
            data: Cursor::new(vec![0, 0, 0]),
            step: 2,
            reads: 0,
        };
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn len_codec_roundtrips() {
        for n in [0usize, 1, 255, 70_000, DEFAULT_MAX_FRAME_LEN] {
            assert_eq!(decode_len(encode_len(n)), n);
        }
    }
}
