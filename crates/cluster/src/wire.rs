//! Frame machinery shared by every wire vocabulary in the workspace:
//! the length-prefixed, checksummed frame layout, the defensive binary
//! encoder/decoder primitives, and the [`WireMessage`] trait that turns a
//! message enum into a complete frame codec.
//!
//! The distributed runtime's [`Message`](crate::protocol::Message)
//! (`SKW` frames) and the serving tier's request/response vocabulary
//! (`SKS` frames, `kmeans-serve`) are both instances: each supplies a
//! magic, a tag map, and per-tag payload codecs; the frame assembly,
//! checksum, cap enforcement, and stream I/O live here once.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset        size  field
//! 0             4     magic: the vocabulary's three letters + `2`
//!                     (b"SKW2", b"SKS2")
//! 4             1     message tag
//! 5             4     payload length `len` (u32)
//! 9             len   payload (tag-specific encoding)
//! 9 + len       8     checksum (u64): lanes64 over bytes [0, 9 + len) —
//!                     magic, tag, length and payload
//! ```
//!
//! The checksum, [`lanes64`], runs four lanes over 8-byte words. Every
//! step of it is a bijection of its state for a fixed word and of the
//! word for a fixed state, so any change confined to one 8-byte word of
//! the frame — every single-bit and single-byte flip among them — is
//! always detected (the argument is spelled out on `lanes64`). Because
//! the magic, tag and length are hashed too, a flipped vocabulary letter
//! (`S` ↔ `W` is one bit) or length byte is a checksum error, not a frame
//! handed to the wrong decoder.
//!
//! A frame with any other magic — a peer built before the `…2` form
//! sends `…1` frames — is [`FrameError::BadMagic`] as soon as its 9-byte
//! header is read, and the session that read it ends.
//!
//! Decoding is defensive: a frame is parsed only after its declared
//! length passes the caller's cap (no attacker-controlled allocation),
//! every vector count is checked against the bytes actually present
//! before allocating, and every malformed input maps to a typed
//! [`FrameError`] — never a panic.

use kmeans_data::PointMatrix;
use kmeans_util::checksum::lanes64;
use std::io::Read;

/// Default cap on a frame's payload (1 GiB — comfortably above the
/// largest legitimate reply in any vocabulary). Decoders reject an
/// adversarial or corrupt length prefix beyond the cap *before* any
/// allocation happens; transports enforce the same cap on send, so an
/// over-large frame fails fast at its source instead of after the
/// receiving end has done all the work.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// Bytes of frame overhead around a payload: 4 magic + 1 tag + 4 length
/// + 8 checksum.
pub const FRAME_OVERHEAD: usize = 17;

/// Typed decoding failures. `Io` is deliberately absent: transports keep
/// I/O errors separate so "the peer vanished" and "the peer sent garbage"
/// stay distinguishable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame does not start with the vocabulary's magic.
    BadMagic,
    /// The buffer ends before the declared frame does.
    Truncated,
    /// The declared payload length exceeds the decoder's cap.
    Oversized {
        /// Declared payload length.
        len: u64,
        /// The decoder's cap.
        max: u64,
    },
    /// The checksum does not match the payload.
    Checksum {
        /// Checksum declared in the frame.
        expected: u64,
        /// Checksum computed over the received payload.
        got: u64,
    },
    /// The tag byte does not name a known message.
    UnknownTag(u8),
    /// The payload does not parse as its tag's message.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Checksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: declared {expected:#x}, computed {got:#x}"
                )
            }
            FrameError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Failure reading a frame from a stream: transport-level I/O vs. a
/// well-delivered but invalid frame.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The underlying stream failed (peer gone, timeout).
    Io(std::io::Error),
    /// The bytes arrived but do not form a valid frame.
    Frame(FrameError),
}

/// Checks a 9-byte frame header — the magic, then the declared payload
/// length against the cap — and returns the payload length.
fn open_header(header: &[u8], magic: [u8; 4], max_payload: usize) -> Result<usize, FrameError> {
    if header[..4] != magic {
        return Err(FrameError::BadMagic);
    }
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4")) as u64;
    if len > max_payload as u64 {
        return Err(FrameError::Oversized {
            len,
            max: max_payload as u64,
        });
    }
    Ok(len as usize)
}

/// The most a stream reader allocates for a frame before its bytes
/// arrive; the buffer grows as they do, so a forged length costs at most
/// this much.
const READ_AHEAD: usize = 64 << 10;

/// Bytes an encoder reserves past each run (see `Enc::run`).
const RUN_SLACK: usize = 64;

/// Little-endian payload encoder. Append-only; [`Enc::into_bytes`]
/// yields the finished payload.
pub struct Enc(Vec<u8>);

impl Default for Enc {
    fn default() -> Self {
        Self::new()
    }
}

impl Enc {
    /// Starts an empty payload.
    pub fn new() -> Self {
        Enc(Vec::new())
    }
    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f64` (bit pattern, so NaN payloads survive).
    pub fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends `vs` as one run of little-endian values: one reservation
    /// and one pass, no per-value capacity check. The reservation runs
    /// [`RUN_SLACK`] bytes past the run, so the short fields and the
    /// frame checksum that follow it do not move it to a bigger buffer.
    fn run<T: Copy, const N: usize>(&mut self, vs: &[T], le: impl Fn(T) -> [u8; N]) {
        let start = self.0.len();
        self.0.reserve(vs.len() * N + RUN_SLACK);
        self.0.resize(start + vs.len() * N, 0);
        for (out, &v) in self.0[start..].chunks_exact_mut(N).zip(vs) {
            out.copy_from_slice(&le(v));
        }
    }
    /// Appends a length-prefixed `f64` vector.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        self.run(vs, f64::to_le_bytes);
    }
    /// Appends a length-prefixed `u64` vector.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        self.run(vs, u64::to_le_bytes);
    }
    /// Appends a length-prefixed `u32` vector.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        self.run(vs, u32::to_le_bytes);
    }
    /// Appends length-prefixed UTF-8 text.
    pub fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
    /// Appends a point matrix (dim, rows, then the flat values).
    pub fn matrix(&mut self, m: &PointMatrix) {
        self.u32(m.dim() as u32);
        self.u64(m.len() as u64);
        self.run(m.as_slice(), f64::to_le_bytes);
    }
    /// Appends raw bytes with a length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }
}

/// Defensive little-endian payload decoder over a borrowed byte slice.
/// Every element count is validated against the bytes actually present
/// *before* any allocation, and [`Dec::finish`] rejects trailing bytes.
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts decoding at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Malformed("payload ends mid-field"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }
    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    /// Validates an element count against the bytes actually present
    /// *before* any allocation — a forged count cannot over-allocate.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, FrameError> {
        let declared = self.u64()?;
        let need = declared
            .checked_mul(elem_bytes as u64)
            .ok_or(FrameError::Malformed("element count overflows"))?;
        if need > self.remaining() as u64 {
            return Err(FrameError::Malformed("element count exceeds payload"));
        }
        Ok(declared as usize)
    }
    /// Reads a run of `n` little-endian values in one take. Callers have
    /// already checked `n` against the remaining bytes, so `n · N` does
    /// not overflow and the allocation is backed by bytes present.
    fn run<T, const N: usize>(
        &mut self,
        n: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, FrameError> {
        let bytes = self.take(n * N)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|c| from_le(c.try_into().expect("N")))
            .collect())
    }
    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, FrameError> {
        let n = self.count(8)?;
        self.run(n, f64::from_le_bytes)
    }
    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, FrameError> {
        let n = self.count(8)?;
        self.run(n, u64::from_le_bytes)
    }
    /// Reads a length-prefixed `u32` vector.
    pub fn u32s(&mut self) -> Result<Vec<u32>, FrameError> {
        let n = self.count(4)?;
        self.run(n, u32::from_le_bytes)
    }
    /// Reads length-prefixed UTF-8 text.
    pub fn text(&mut self) -> Result<String, FrameError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed("non-UTF-8 text"))
    }
    /// Reads a point matrix (dim, rows, flat values), rejecting zero-dim
    /// and size overflows before allocation.
    pub fn matrix(&mut self) -> Result<PointMatrix, FrameError> {
        let dim = self.u32()? as usize;
        if dim == 0 {
            return Err(FrameError::Malformed("matrix with zero dim"));
        }
        let rows = self.u64()?;
        let values = rows
            .checked_mul(dim as u64)
            .ok_or(FrameError::Malformed("matrix size overflows"))?;
        if values
            .checked_mul(8)
            .ok_or(FrameError::Malformed("matrix size overflows"))?
            > self.remaining() as u64
        {
            return Err(FrameError::Malformed("matrix larger than payload"));
        }
        let flat = self.run(values as usize, f64::from_le_bytes)?;
        PointMatrix::from_flat(flat, dim).map_err(|_| FrameError::Malformed("ragged matrix"))
    }
    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }
    /// Ends decoding, rejecting unconsumed trailing bytes.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

/// A message enum that travels as checksummed frames. Implementors
/// supply the vocabulary (magic, tag map, per-tag payload codecs); the
/// provided methods assemble, parse, and stream complete frames with the
/// shared layout, cap enforcement, and checksum.
pub trait WireMessage: Sized + Send {
    /// The vocabulary's frame magic (e.g. `b"SKW2"`).
    const MAGIC: [u8; 4];

    /// The message's tag byte.
    fn tag(&self) -> u8;

    /// Appends the tag-specific payload to `e`.
    fn encode_payload_into(&self, e: &mut Enc);

    /// Encodes the tag-specific payload on its own.
    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode_payload_into(&mut e);
        e.into_bytes()
    }

    /// Decodes a payload for `tag`, consuming it exactly.
    fn decode_payload(tag: u8, payload: &[u8]) -> Result<Self, FrameError>;

    /// Encodes the message as one complete frame (magic, tag, length,
    /// payload, checksum). Returns the frame bytes.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the u32 length field (4 GiB) — a
    /// silent wrap would corrupt the stream; transports reject anything
    /// over [`MAX_FRAME_PAYLOAD`] with a typed error long before this.
    fn encode_frame(&self) -> Vec<u8> {
        // The payload is encoded in place behind the header, whose length
        // field is filled in once the payload's size is known.
        let mut e = Enc::new();
        e.0.extend_from_slice(&Self::MAGIC);
        e.u8(self.tag());
        e.u32(0);
        self.encode_payload_into(&mut e);
        let mut frame = e.into_bytes();
        let len = frame.len() - 9;
        assert!(
            len <= u32::MAX as usize,
            "frame payload of {len} bytes exceeds the u32 length field"
        );
        frame[5..9].copy_from_slice(&(len as u32).to_le_bytes());
        let checksum = lanes64(&frame);
        frame.extend_from_slice(&checksum.to_le_bytes());
        frame
    }

    /// Decodes one frame from a byte buffer, returning the message and
    /// the number of bytes consumed. `max_payload` caps the declared
    /// payload length *before* any allocation.
    fn decode_frame(bytes: &[u8], max_payload: usize) -> Result<(Self, usize), FrameError> {
        if bytes.len() < 9 {
            return Err(FrameError::Truncated);
        }
        let len = open_header(&bytes[..9], Self::MAGIC, max_payload)?;
        let total = 9 + len + 8;
        if bytes.len() < total {
            return Err(FrameError::Truncated);
        }
        let expected = u64::from_le_bytes(bytes[9 + len..total].try_into().expect("8"));
        let got = lanes64(&bytes[..9 + len]);
        if expected != got {
            return Err(FrameError::Checksum { expected, got });
        }
        Ok((Self::decode_payload(bytes[4], &bytes[9..9 + len])?, total))
    }

    /// Reads one frame from a byte stream, returning the message and the
    /// bytes consumed. I/O failures (peer gone, timeout, a stream that
    /// ends mid-frame) and invalid frames are distinguished by
    /// [`ReadFrameError`].
    ///
    /// The header is checked before any payload byte is read, and the
    /// frame buffer starts at no more than 64 KiB and grows as bytes
    /// arrive, so a header that declares a large payload and then stops
    /// costs about the bytes that came, not the bytes it declared.
    fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<(Self, usize), ReadFrameError> {
        let mut header = [0u8; 9];
        r.read_exact(&mut header).map_err(ReadFrameError::Io)?;
        let len = open_header(&header, Self::MAGIC, max_payload).map_err(ReadFrameError::Frame)?;
        let total = 9 + len + 8;
        let mut frame = header.to_vec();
        while frame.len() < total {
            // Each step at most doubles what has arrived and never
            // reaches past the frame.
            let step = (total - frame.len()).min(frame.len().max(READ_AHEAD));
            frame.reserve_exact(step);
            let got = r
                .take(step as u64)
                .read_to_end(&mut frame)
                .map_err(ReadFrameError::Io)?;
            if got < step {
                return Err(ReadFrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                )));
            }
        }
        Self::decode_frame(&frame, max_payload).map_err(ReadFrameError::Frame)
    }
}
