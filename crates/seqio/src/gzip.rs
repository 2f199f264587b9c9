//! From-scratch RFC-1951 (DEFLATE) / RFC-1952 (gzip) support.
//!
//! The build environment has no crates.io access, so there is no `flate2`
//! to lean on; this module implements the subset the pipeline needs:
//!
//! * [`GzipDecoder`] — a **streaming** inflate: an `io::Read` adapter that
//!   decodes gzip members (stored, fixed-Huffman and dynamic-Huffman
//!   blocks, multi-member concatenation, CRC32 + ISIZE verification)
//!   symbol-by-symbol with a 32 KiB sliding window. Memory use is O(1)
//!   in the input size, which is what lets `mem2 mem` stream multi-GB
//!   `.fastq.gz` inputs with an O(batch) footprint.
//! * [`gzip_compress_stored`] — a valid gzip *writer* using stored
//!   (uncompressed) deflate blocks only. `mem2 simulate --gz` and the CI
//!   smoke tests use it; `gzip(1)` decodes its output.
//! * [`fixtures`] — tiny fixed/dynamic-Huffman encoders used by the
//!   proptest round-trips so all three block types (and overlapping
//!   match copies) are exercised without a production-grade compressor.
//!
//! Decode errors are `io::Error`s of kind `InvalidData`/`UnexpectedEof`
//! whose messages carry the compressed-stream byte offset, so a truncated
//! or corrupt `.gz` fails with an actionable message instead of a panic.

use std::io::{self, Read};

use mem2_simd::crc32::{crc32, Crc32};

/// DEFLATE window size (RFC 1951 §2): back-references reach at most
/// 32 KiB behind the cursor.
const WINDOW_SIZE: usize = 32 * 1024;

/// Gzip magic bytes (RFC 1952 §2.3.1).
pub const GZIP_MAGIC: [u8; 2] = [0x1f, 0x8b];

// ---------------------------------------------------------------------
// Length / distance symbol tables (RFC 1951 §3.2.5)
// ---------------------------------------------------------------------

const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Order in which code-length-code lengths are stored (RFC 1951 §3.2.7).
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

// ---------------------------------------------------------------------
// Bit reader
// ---------------------------------------------------------------------

/// LSB-first bit reader over an inner `Read`, with its own byte buffer so
/// the inner reader sees large reads. Tracks the compressed byte offset
/// for error messages.
struct BitReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    bitbuf: u32,
    bitcnt: u32,
    /// Bytes consumed from `inner` so far (error context).
    offset: u64,
}

impl<R: Read> BitReader<R> {
    fn new(inner: R) -> Self {
        BitReader {
            inner,
            buf: vec![0; 8192],
            pos: 0,
            len: 0,
            bitbuf: 0,
            bitcnt: 0,
            offset: 0,
        }
    }

    /// Refill the byte buffer; returns false at clean EOF.
    fn refill(&mut self) -> io::Result<bool> {
        loop {
            match self.inner.read(&mut self.buf) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.len = n;
                    self.pos = 0;
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Ensure at least `n` (≤ 16) bits are buffered.
    fn ensure(&mut self, n: u32) -> io::Result<()> {
        while self.bitcnt < n {
            if self.pos == self.len && !self.refill()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("gzip: deflate stream truncated at byte {}", self.offset),
                ));
            }
            self.bitbuf |= (self.buf[self.pos] as u32) << self.bitcnt;
            self.pos += 1;
            self.offset += 1;
            self.bitcnt += 8;
        }
        Ok(())
    }

    /// Read `n` (≤ 16) bits, LSB first.
    fn bits(&mut self, n: u32) -> io::Result<u32> {
        self.ensure(n)?;
        let v = self.bitbuf & ((1u32 << n) - 1);
        self.bitbuf >>= n;
        self.bitcnt -= n;
        Ok(v)
    }

    /// Discard bits up to the next byte boundary.
    fn align(&mut self) {
        let drop = self.bitcnt % 8;
        self.bitbuf >>= drop;
        self.bitcnt -= drop;
    }

    /// Read one byte at a byte-aligned position, or `None` at clean EOF.
    fn try_byte(&mut self) -> io::Result<Option<u8>> {
        debug_assert!(
            self.bitcnt.is_multiple_of(8),
            "try_byte requires byte alignment"
        );
        if self.bitcnt >= 8 {
            return Ok(Some(self.bits(8)? as u8));
        }
        if self.pos == self.len && !self.refill()? {
            return Ok(None);
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        self.offset += 1;
        Ok(Some(b))
    }

    /// Read one byte, erroring with `what` context at EOF.
    fn byte(&mut self, what: &str) -> io::Result<u8> {
        self.try_byte()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("gzip: truncated {what} at byte {}", self.offset),
            )
        })
    }
}

// ---------------------------------------------------------------------
// Canonical Huffman decoding (the count/symbol walk of puff.c)
// ---------------------------------------------------------------------

/// A canonical Huffman code: `counts[l]` codes of length `l`, symbols in
/// canonical order. Decoding walks the lengths bit by bit — compact,
/// allocation-light, and fast enough for ingestion (the alignment kernels
/// dominate wall-clock by orders of magnitude).
struct Huffman {
    counts: [u16; 16],
    symbols: Vec<u16>,
}

impl Huffman {
    /// Build from per-symbol code lengths (0 = absent). Rejects
    /// over-subscribed codes; incomplete codes are permitted (decoding a
    /// missing code errors), matching zlib's handling of the
    /// single-distance-code case.
    fn new(lengths: &[u8]) -> Result<Huffman, String> {
        let mut counts = [0u16; 16];
        for &l in lengths {
            if l > 15 {
                return Err("code length exceeds 15".into());
            }
            counts[l as usize] += 1;
        }
        counts[0] = 0;
        let mut left: i32 = 1;
        for len in 1..=15 {
            left <<= 1;
            left -= counts[len] as i32;
            if left < 0 {
                return Err("over-subscribed Huffman code".into());
            }
        }
        let mut offs = [0u16; 16];
        for len in 1..15 {
            offs[len + 1] = offs[len] + counts[len];
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l > 0).count()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbols[offs[l as usize] as usize] = sym as u16;
                offs[l as usize] += 1;
            }
        }
        Ok(Huffman { counts, symbols })
    }

    fn decode<R: Read>(&self, br: &mut BitReader<R>) -> io::Result<u16> {
        let mut code: i32 = 0;
        let mut first: i32 = 0;
        let mut index: i32 = 0;
        for len in 1..=15 {
            code |= br.bits(1)? as i32;
            let count = self.counts[len] as i32;
            if code - count < first {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "gzip: invalid Huffman code in deflate stream",
        ))
    }
}

/// The fixed litlen/dist code pair of RFC 1951 §3.2.6.
fn fixed_codes() -> (Huffman, Huffman) {
    let mut litlen = [0u8; 288];
    litlen[..144].fill(8);
    litlen[144..256].fill(9);
    litlen[256..280].fill(7);
    litlen[280..].fill(8);
    let dist = [5u8; 30];
    (
        Huffman::new(&litlen).expect("fixed litlen code"),
        Huffman::new(&dist).expect("fixed dist code"),
    )
}

// ---------------------------------------------------------------------
// Streaming gzip decoder
// ---------------------------------------------------------------------

/// Active Huffman tables for the block being decoded.
struct Codes {
    lit: Huffman,
    dist: Huffman,
}

enum State {
    /// Expecting a gzip member header (clean EOF allowed after ≥ 1 member).
    Header,
    /// Expecting a deflate block header (BFINAL/BTYPE).
    BlockStart,
    /// Inside a stored block with `remaining` raw bytes to copy.
    Stored { remaining: usize },
    /// Decoding symbols of a Huffman block (tables in `GzipDecoder::codes`).
    InBlock,
    /// Mid back-reference copy; returns to `InBlock` when done.
    Copy { dist: usize, remaining: usize },
    /// Expecting the member trailer (CRC32 + ISIZE).
    Trailer,
    /// All members decoded.
    Eof,
}

/// Streaming gzip (RFC 1952) decoder: wraps any `Read` of gzip bytes and
/// yields the decompressed stream through `Read`. Handles multi-member
/// files (as produced by `cat a.gz b.gz`) and verifies each member's
/// CRC32 and ISIZE trailer.
pub struct GzipDecoder<R: Read> {
    br: BitReader<R>,
    window: Vec<u8>,
    wpos: usize,
    wfilled: usize,
    codes: Option<Codes>,
    final_block: bool,
    state: State,
    /// CRC32 of the member's output so far. It and `out_len` are
    /// summed once per `read` span (see the end of `read`).
    crc: Crc32,
    out_len: u32,
    members: u32,
}

impl<R: Read> GzipDecoder<R> {
    /// Wrap a reader positioned at the start of a gzip stream.
    pub fn new(inner: R) -> Self {
        GzipDecoder {
            br: BitReader::new(inner),
            window: vec![0; WINDOW_SIZE],
            wpos: 0,
            wfilled: 0,
            codes: None,
            final_block: false,
            state: State::Header,
            crc: Crc32::new(),
            out_len: 0,
            members: 0,
        }
    }

    /// Number of complete gzip members decoded so far.
    pub fn members_decoded(&self) -> u32 {
        self.members
    }

    fn bad(&self, msg: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("gzip: {msg} at byte {}", self.br.offset),
        )
    }

    /// Emit one decompressed byte: to the caller's buffer and the
    /// sliding window.
    #[inline]
    fn emit(&mut self, b: u8, out: &mut [u8], n: &mut usize) {
        out[*n] = b;
        *n += 1;
        self.window[self.wpos] = b;
        self.wpos = (self.wpos + 1) & (WINDOW_SIZE - 1);
        if self.wfilled < WINDOW_SIZE {
            self.wfilled += 1;
        }
    }

    /// Parse a gzip member header (RFC 1952 §2.3). Returns false at clean
    /// EOF after at least one member.
    fn read_header(&mut self) -> io::Result<bool> {
        let b0 = match self.br.try_byte()? {
            Some(b) => b,
            None if self.members > 0 => return Ok(false),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "gzip: empty input",
                ))
            }
        };
        if b0 != GZIP_MAGIC[0] || self.br.byte("header")? != GZIP_MAGIC[1] {
            return Err(if self.members > 0 {
                self.bad("trailing garbage after final member")
            } else {
                self.bad("bad magic (not a gzip stream)")
            });
        }
        let cm = self.br.byte("header")?;
        if cm != 8 {
            return Err(self.bad(&format!("unsupported compression method {cm}")));
        }
        let flg = self.br.byte("header")?;
        if flg & 0xE0 != 0 {
            return Err(self.bad("reserved header flag bits set"));
        }
        for _ in 0..6 {
            self.br.byte("header")?; // MTIME, XFL, OS
        }
        if flg & 0x04 != 0 {
            // FEXTRA
            let lo = self.br.byte("FEXTRA field")? as usize;
            let hi = self.br.byte("FEXTRA field")? as usize;
            for _ in 0..(lo | (hi << 8)) {
                self.br.byte("FEXTRA field")?;
            }
        }
        if flg & 0x08 != 0 {
            while self.br.byte("FNAME field")? != 0 {} // FNAME
        }
        if flg & 0x10 != 0 {
            while self.br.byte("FCOMMENT field")? != 0 {} // FCOMMENT
        }
        if flg & 0x02 != 0 {
            self.br.byte("FHCRC field")?;
            self.br.byte("FHCRC field")?;
        }
        self.crc = Crc32::new();
        self.out_len = 0;
        self.final_block = false;
        // each member is an independent deflate stream (RFC 1951): a
        // back-reference may not reach into the previous member's output
        self.wpos = 0;
        self.wfilled = 0;
        Ok(true)
    }

    /// Read a deflate block header and set up the following state.
    fn start_block(&mut self) -> io::Result<()> {
        self.final_block = self.br.bits(1)? != 0;
        match self.br.bits(2)? {
            0 => {
                self.br.align();
                let len = self.br.bits(16)? as usize;
                let nlen = self.br.bits(16)? as usize;
                if len ^ nlen != 0xFFFF {
                    return Err(self.bad("stored block LEN/NLEN mismatch"));
                }
                self.state = State::Stored { remaining: len };
            }
            1 => {
                let (lit, dist) = fixed_codes();
                self.codes = Some(Codes { lit, dist });
                self.state = State::InBlock;
            }
            2 => {
                self.read_dynamic_tables()?;
                self.state = State::InBlock;
            }
            _ => return Err(self.bad("invalid block type 3")),
        }
        Ok(())
    }

    /// Parse a dynamic-Huffman block header (RFC 1951 §3.2.7).
    fn read_dynamic_tables(&mut self) -> io::Result<()> {
        let hlit = self.br.bits(5)? as usize + 257;
        let hdist = self.br.bits(5)? as usize + 1;
        let hclen = self.br.bits(4)? as usize + 4;
        if hlit > 286 || hdist > 30 {
            return Err(self.bad("dynamic header HLIT/HDIST out of range"));
        }
        let mut cl = [0u8; 19];
        for &idx in CLEN_ORDER.iter().take(hclen) {
            cl[idx] = self.br.bits(3)? as u8;
        }
        let clh = Huffman::new(&cl).map_err(|e| self.bad(&format!("code-length code: {e}")))?;
        let mut lengths = vec![0u8; hlit + hdist];
        let mut i = 0;
        while i < lengths.len() {
            let sym = clh.decode(&mut self.br)?;
            match sym {
                0..=15 => {
                    lengths[i] = sym as u8;
                    i += 1;
                }
                16 => {
                    if i == 0 {
                        return Err(self.bad("length repeat with no previous length"));
                    }
                    let prev = lengths[i - 1];
                    let rep = 3 + self.br.bits(2)? as usize;
                    if i + rep > lengths.len() {
                        return Err(self.bad("length repeat overruns table"));
                    }
                    lengths[i..i + rep].fill(prev);
                    i += rep;
                }
                17 | 18 => {
                    let rep = if sym == 17 {
                        3 + self.br.bits(3)? as usize
                    } else {
                        11 + self.br.bits(7)? as usize
                    };
                    if i + rep > lengths.len() {
                        return Err(self.bad("zero-length repeat overruns table"));
                    }
                    i += rep; // already zero
                }
                _ => return Err(self.bad("invalid code-length symbol")),
            }
        }
        if lengths[256] == 0 {
            return Err(self.bad("dynamic block has no end-of-block code"));
        }
        let lit =
            Huffman::new(&lengths[..hlit]).map_err(|e| self.bad(&format!("litlen code: {e}")))?;
        let dist =
            Huffman::new(&lengths[hlit..]).map_err(|e| self.bad(&format!("distance code: {e}")))?;
        self.codes = Some(Codes { lit, dist });
        Ok(())
    }

    /// Verify the member trailer against the running CRC/length.
    fn read_trailer(&mut self) -> io::Result<()> {
        self.br.align();
        let mut words = [0u32; 2];
        for w in &mut words {
            for shift in [0u32, 8, 16, 24] {
                *w |= (self.br.byte("trailer")? as u32) << shift;
            }
        }
        let crc = self.crc.finish();
        if words[0] != crc {
            return Err(self.bad(&format!(
                "CRC mismatch (stored {:#010x}, computed {crc:#010x})",
                words[0]
            )));
        }
        if words[1] != self.out_len {
            return Err(self.bad(&format!(
                "length mismatch (stored {}, decoded {})",
                words[1], self.out_len
            )));
        }
        self.members += 1;
        Ok(())
    }

    /// Decode Huffman symbols until the output range fills or the block
    /// ends. Returns via `self.state`.
    fn run_block(&mut self, out: &mut [u8], n: &mut usize) -> io::Result<()> {
        while *n < out.len() {
            let codes = self.codes.as_ref().expect("tables set in InBlock");
            let sym = codes.lit.decode(&mut self.br)?;
            match sym {
                0..=255 => self.emit(sym as u8, out, n),
                256 => {
                    self.state = if self.final_block {
                        State::Trailer
                    } else {
                        State::BlockStart
                    };
                    return Ok(());
                }
                257..=285 => {
                    let li = (sym - 257) as usize;
                    let len = LEN_BASE[li] as usize + self.br.bits(LEN_EXTRA[li] as u32)? as usize;
                    let codes = self.codes.as_ref().expect("tables set in InBlock");
                    let dsym = codes.dist.decode(&mut self.br)? as usize;
                    if dsym >= 30 {
                        return Err(self.bad("invalid distance symbol"));
                    }
                    let dist =
                        DIST_BASE[dsym] as usize + self.br.bits(DIST_EXTRA[dsym] as u32)? as usize;
                    if dist > self.wfilled {
                        return Err(self.bad("distance reaches before start of output"));
                    }
                    self.state = State::Copy {
                        dist,
                        remaining: len,
                    };
                    self.run_copy(out, n);
                    if matches!(self.state, State::Copy { .. }) {
                        return Ok(()); // output full mid-copy
                    }
                }
                _ => return Err(self.bad("invalid literal/length symbol")),
            }
        }
        Ok(())
    }

    /// Continue a back-reference copy; leaves `state` as `Copy` if the
    /// output range filled first, else restores `InBlock`.
    fn run_copy(&mut self, out: &mut [u8], n: &mut usize) {
        let State::Copy {
            dist,
            mut remaining,
        } = self.state
        else {
            unreachable!("run_copy outside Copy state")
        };
        while remaining > 0 && *n < out.len() {
            let b = self.window[(self.wpos + WINDOW_SIZE - dist) & (WINDOW_SIZE - 1)];
            self.emit(b, out, n);
            remaining -= 1;
        }
        self.state = if remaining > 0 {
            State::Copy { dist, remaining }
        } else {
            State::InBlock
        };
    }
}

impl<R: Read> Read for GzipDecoder<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut n = 0;
        while n == 0 {
            match self.state {
                State::Eof => return Ok(0),
                State::Header => {
                    if self.read_header()? {
                        self.state = State::BlockStart;
                    } else {
                        self.state = State::Eof;
                        return Ok(0);
                    }
                }
                State::BlockStart => self.start_block()?,
                State::Stored { remaining } => {
                    let mut left = remaining;
                    while left > 0 && n < out.len() {
                        let b = self.br.byte("stored block")?;
                        self.emit(b, out, &mut n);
                        left -= 1;
                    }
                    self.state = if left > 0 {
                        State::Stored { remaining: left }
                    } else if self.final_block {
                        State::Trailer
                    } else {
                        State::BlockStart
                    };
                }
                State::InBlock => self.run_block(out, &mut n)?,
                State::Copy { .. } => self.run_copy(out, &mut n),
                State::Trailer => {
                    self.read_trailer()?;
                    self.state = State::Header;
                }
            }
        }
        // The loop leaves as soon as it emits a byte, and the trailer is
        // only read with nothing emitted yet in this call — so every byte
        // of a member is summed here before its trailer is checked.
        self.crc.update(&out[..n]);
        self.out_len = self.out_len.wrapping_add(n as u32);
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Encoder: stored-block gzip writer
// ---------------------------------------------------------------------

/// Compress `data` as a single gzip member of stored (uncompressed)
/// deflate blocks. The output is a fully valid gzip file (`gzip -d`
/// accepts it); it just doesn't shrink anything. Used by
/// `mem2 simulate --gz` and the CI streaming-ingestion smoke test.
pub fn gzip_compress_stored(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 65_535 * 5 + 32);
    out.extend_from_slice(&gzip_header());
    let mut chunks = data.chunks(65_535).peekable();
    if data.is_empty() {
        out.extend_from_slice(&[0x01, 0, 0, 0xFF, 0xFF]); // final empty stored block
    }
    while let Some(chunk) = chunks.next() {
        let bfinal = if chunks.peek().is_none() { 1u8 } else { 0 };
        out.push(bfinal); // BTYPE=00, byte-aligned
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

fn gzip_header() -> [u8; 10] {
    // magic, CM=deflate, no flags, MTIME=0 (deterministic output), XFL=0,
    // OS=255 (unknown)
    [GZIP_MAGIC[0], GZIP_MAGIC[1], 8, 0, 0, 0, 0, 0, 0, 0xFF]
}

/// Decompress an in-memory gzip buffer (convenience wrapper over
/// [`GzipDecoder`] for tests and small inputs).
pub fn gzip_decompress(data: &[u8]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    GzipDecoder::new(data).read_to_end(&mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Test-fixture encoders: fixed and dynamic Huffman blocks
// ---------------------------------------------------------------------

/// Minimal fixed/dynamic-Huffman *encoders*. These exist so the
/// round-trip tests can cover every decoder code path (fixed and dynamic
/// tables, back-references including overlapping `dist < len` copies)
/// without shipping a production compressor; they are not tuned for
/// ratio. Output is nonetheless spec-conformant gzip.
pub mod fixtures {
    use super::*;

    /// LSB-first bit writer (deflate's bit order).
    struct BitWriter {
        out: Vec<u8>,
        bitbuf: u32,
        bitcnt: u32,
    }

    impl BitWriter {
        fn new(out: Vec<u8>) -> Self {
            BitWriter {
                out,
                bitbuf: 0,
                bitcnt: 0,
            }
        }

        /// Write `n` bits of `v`, LSB first (header fields, extra bits).
        fn bits(&mut self, v: u32, n: u32) {
            self.bitbuf |= v << self.bitcnt;
            self.bitcnt += n;
            while self.bitcnt >= 8 {
                self.out.push(self.bitbuf as u8);
                self.bitbuf >>= 8;
                self.bitcnt -= 8;
            }
        }

        /// Write a Huffman code: codes go on the wire MSB first.
        fn code(&mut self, code: u32, n: u32) {
            for i in (0..n).rev() {
                self.bits((code >> i) & 1, 1);
            }
        }

        fn finish(mut self) -> Vec<u8> {
            if self.bitcnt > 0 {
                self.out.push(self.bitbuf as u8);
            }
            self.out
        }
    }

    /// One LZ token: a literal byte or a (len, dist) back-reference.
    enum Token {
        Lit(u8),
        Match { len: usize, dist: usize },
    }

    /// Greedy LZ77 over a bounded search window — enough to generate
    /// matches (including overlapping run-length ones) for the decoder
    /// tests; makes no attempt at optimal parsing.
    fn tokenize(data: &[u8]) -> Vec<Token> {
        const SEARCH: usize = 1024;
        const MIN_MATCH: usize = 3;
        const MAX_MATCH: usize = 258;
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < data.len() {
            let mut best_len = 0;
            let mut best_dist = 0;
            let start = i.saturating_sub(SEARCH);
            for j in start..i {
                let mut l = 0;
                // overlapping copies allowed: compare against the
                // already-produced prefix, exactly as the decoder replays
                while i + l < data.len() && l < MAX_MATCH && data[j + l % (i - j)] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - j;
                }
            }
            if best_len >= MIN_MATCH {
                tokens.push(Token::Match {
                    len: best_len,
                    dist: best_dist,
                });
                i += best_len;
            } else {
                tokens.push(Token::Lit(data[i]));
                i += 1;
            }
        }
        tokens
    }

    /// Largest table entry with base ≤ v; returns (symbol index, extra).
    fn sym_for(v: usize, base: &[u16]) -> (usize, u32) {
        let idx = match base.binary_search(&(v as u16)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (idx, (v - base[idx] as usize) as u32)
    }

    /// Fixed-Huffman code for a literal/length symbol (RFC 1951 §3.2.6).
    fn fixed_lit_code(sym: usize) -> (u32, u32) {
        match sym {
            0..=143 => (0x30 + sym as u32, 8),
            144..=255 => (0x190 + (sym as u32 - 144), 9),
            256..=279 => (sym as u32 - 256, 7),
            _ => (0xC0 + (sym as u32 - 280), 8),
        }
    }

    fn emit_tokens<LC, DC>(bw: &mut BitWriter, tokens: &[Token], lit_code: LC, dist_code: DC)
    where
        LC: Fn(usize) -> (u32, u32),
        DC: Fn(usize) -> (u32, u32),
    {
        for t in tokens {
            match *t {
                Token::Lit(b) => {
                    let (c, n) = lit_code(b as usize);
                    bw.code(c, n);
                }
                Token::Match { len, dist } => {
                    let (ls, lx) = sym_for(len, &LEN_BASE);
                    let (c, n) = lit_code(257 + ls);
                    bw.code(c, n);
                    bw.bits(lx, LEN_EXTRA[ls] as u32);
                    let (ds, dx) = sym_for(dist, &DIST_BASE);
                    let (c, n) = dist_code(ds);
                    bw.code(c, n);
                    bw.bits(dx, DIST_EXTRA[ds] as u32);
                }
            }
        }
        let (c, n) = lit_code(256);
        bw.code(c, n); // end of block
    }

    /// Compress as one gzip member holding a single fixed-Huffman block
    /// (with LZ back-references).
    pub fn gzip_compress_fixed(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&gzip_header());
        let mut bw = BitWriter::new(out);
        bw.bits(1, 1); // BFINAL
        bw.bits(1, 2); // BTYPE=01 fixed
        emit_tokens(&mut bw, &tokenize(data), fixed_lit_code, |d| (d as u32, 5));
        let mut out = bw.finish();
        out.extend_from_slice(&crc32(data).to_le_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out
    }

    /// Assign a complete two-tier canonical code over `freq`'s nonzero
    /// symbols: the most frequent get length L-1, the rest L, chosen so
    /// the Kraft sum is exactly 1. A single symbol degenerates to one
    /// code of length 1 (incomplete but legal — the zlib special case;
    /// happens e.g. for empty input, where only end-of-block is coded).
    fn two_tier_lengths(freq: &[usize]) -> Vec<u8> {
        let mut used: Vec<usize> = (0..freq.len()).filter(|&s| freq[s] > 0).collect();
        assert!(!used.is_empty(), "two_tier_lengths needs >= 1 symbol");
        if used.len() == 1 {
            let mut lengths = vec![0u8; freq.len()];
            lengths[used[0]] = 1;
            return lengths;
        }
        used.sort_by(|&a, &b| freq[b].cmp(&freq[a]).then(a.cmp(&b)));
        let k = used.len();
        let l = k.next_power_of_two().trailing_zeros().max(1);
        let n_short = (1usize << l) - k; // codes of length l-1
        let mut lengths = vec![0u8; freq.len()];
        for (rank, &sym) in used.iter().enumerate() {
            lengths[sym] = if rank < n_short {
                (l - 1).max(1) as u8
            } else {
                l as u8
            };
        }
        lengths
    }

    /// Canonical codes (RFC 1951 §3.2.2) for a length assignment.
    fn canonical_codes(lengths: &[u8]) -> Vec<(u32, u32)> {
        let mut bl_count = [0u32; 16];
        for &l in lengths {
            bl_count[l as usize] += 1;
        }
        bl_count[0] = 0;
        let mut next_code = [0u32; 16];
        let mut code = 0;
        for bits in 1..16 {
            code = (code + bl_count[bits - 1]) << 1;
            next_code[bits] = code;
        }
        lengths
            .iter()
            .map(|&l| {
                if l == 0 {
                    (0, 0)
                } else {
                    let c = next_code[l as usize];
                    next_code[l as usize] += 1;
                    (c, l as u32)
                }
            })
            .collect()
    }

    /// Compress as one gzip member holding a single dynamic-Huffman block
    /// (literals + LZ back-references, two-tier canonical codes).
    pub fn gzip_compress_dynamic(data: &[u8]) -> Vec<u8> {
        let tokens = tokenize(data);

        // literal/length + distance histograms
        let mut lfreq = vec![0usize; 286];
        let mut dfreq = vec![0usize; 30];
        lfreq[256] = 1;
        for t in &tokens {
            match *t {
                Token::Lit(b) => lfreq[b as usize] += 1,
                Token::Match { len, dist } => {
                    lfreq[257 + sym_for(len, &LEN_BASE).0] += 1;
                    dfreq[sym_for(dist, &DIST_BASE).0] += 1;
                }
            }
        }
        let lit_lengths = two_tier_lengths(&lfreq);
        let hlit = lit_lengths
            .iter()
            .rposition(|&l| l > 0)
            .map(|p| p + 1)
            .unwrap_or(257)
            .max(257);
        // distance table: real codes if any matches, else the RFC's
        // "one distance code of zero bits" shape (HDIST=1, length 0)
        let has_matches = dfreq.iter().any(|&f| f > 0);
        let dist_lengths: Vec<u8> = if has_matches {
            if dfreq.iter().filter(|&&f| f > 0).count() == 1 {
                // single used distance: one code of length 1 (incomplete
                // but legal, the zlib special case)
                dfreq.iter().map(|&f| if f > 0 { 1 } else { 0 }).collect()
            } else {
                two_tier_lengths(&dfreq)
            }
        } else {
            vec![0]
        };
        let hdist = dist_lengths
            .iter()
            .rposition(|&l| l > 0)
            .map(|p| p + 1)
            .unwrap_or(1)
            .max(1);

        // code-length code over the concatenated length arrays (no
        // 16/17/18 run symbols — plain lengths keep the fixture simple)
        let all_lengths: Vec<u8> = lit_lengths[..hlit]
            .iter()
            .chain(&dist_lengths[..hdist])
            .copied()
            .collect();
        let mut clfreq = vec![0usize; 19];
        for &l in &all_lengths {
            clfreq[l as usize] += 1;
        }
        let cl_lengths = two_tier_lengths(&clfreq);
        let cl_codes = canonical_codes(&cl_lengths);
        let hclen = CLEN_ORDER
            .iter()
            .rposition(|&s| cl_lengths[s] > 0)
            .map(|p| p + 1)
            .unwrap_or(4)
            .max(4);

        let lit_codes = canonical_codes(&lit_lengths);
        let dist_codes = canonical_codes(&dist_lengths);

        let mut out = Vec::new();
        out.extend_from_slice(&gzip_header());
        let mut bw = BitWriter::new(out);
        bw.bits(1, 1); // BFINAL
        bw.bits(2, 2); // BTYPE=10 dynamic
        bw.bits((hlit - 257) as u32, 5);
        bw.bits((hdist - 1) as u32, 5);
        bw.bits((hclen - 4) as u32, 4);
        for &s in CLEN_ORDER.iter().take(hclen) {
            bw.bits(cl_lengths[s] as u32, 3);
        }
        for &l in &all_lengths {
            let (c, n) = cl_codes[l as usize];
            bw.code(c, n);
        }
        emit_tokens(&mut bw, &tokens, |s| lit_codes[s], |d| dist_codes[d]);
        let mut out = bw.finish();
        out.extend_from_slice(&crc32(data).to_le_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn stored_roundtrip_small() {
        for data in [&b""[..], b"a", b"hello world", &[0u8; 70_000]] {
            let gz = gzip_compress_stored(data);
            assert_eq!(gzip_decompress(&gz).expect("decode"), data);
        }
    }

    #[test]
    fn fixed_roundtrip_with_overlapping_matches() {
        let mut data = Vec::new();
        data.extend_from_slice(b"abcabcabcabcabc");
        data.extend(std::iter::repeat_n(b'x', 500)); // dist=1 overlap runs
        data.extend_from_slice(b"the quick brown fox the quick brown fox");
        let gz = fixtures::gzip_compress_fixed(&data);
        assert_eq!(gzip_decompress(&gz).expect("decode"), data);
    }

    #[test]
    fn dynamic_roundtrip() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 7 + i % 3) as u8).collect();
        let gz = fixtures::gzip_compress_dynamic(&data);
        assert_eq!(gzip_decompress(&gz).expect("decode"), data);
    }

    #[test]
    fn multi_member_concatenation() {
        let mut gz = gzip_compress_stored(b"first ");
        gz.extend(fixtures::gzip_compress_fixed(b"second"));
        let mut dec = GzipDecoder::new(&gz[..]);
        let mut out = Vec::new();
        dec.read_to_end(&mut out).expect("decode");
        assert_eq!(out, b"first second");
        assert_eq!(dec.members_decoded(), 2);
    }

    #[test]
    fn back_reference_may_not_cross_a_member_boundary() {
        // a fixed-Huffman block whose first token is a match (len 3,
        // dist 1) with no prior output in its member, hand-packed:
        // BFINAL=1, BTYPE=01, litlen 257 ("0000001"), dist 0 ("00000")
        let bad_member: &[u8] = &[
            0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xFF, // header
            0x03, 0x01, // the match-with-no-history block
            0, 0, 0, 0, 0, 0, 0, 0, // (never reaches the trailer)
        ];
        // standalone: rejected
        let err = gzip_decompress(bad_member).expect_err("match before start");
        assert!(err.to_string().contains("distance"), "got: {err}");
        // as member 2 after a valid member: still rejected — the window
        // must not carry over from the previous member
        let mut gz = gzip_compress_stored(b"plenty of prior output bytes");
        gz.extend_from_slice(bad_member);
        let err = gzip_decompress(&gz).expect_err("cross-member reference");
        assert!(err.to_string().contains("distance"), "got: {err}");
    }

    #[test]
    fn truncation_and_corruption_are_errors() {
        let gz = gzip_compress_stored(b"some data that will be cut short");
        for cut in [1, 5, 12, gz.len() - 5, gz.len() - 1] {
            let err = gzip_decompress(&gz[..cut]).expect_err("truncated must fail");
            assert!(
                err.to_string().contains("gzip"),
                "error mentions gzip: {err}"
            );
        }
        let mut bad = gz.clone();
        let crc_pos = bad.len() - 8;
        bad[crc_pos] ^= 0xFF;
        let err = gzip_decompress(&bad).expect_err("bad CRC must fail");
        assert!(err.to_string().contains("CRC"), "mentions CRC: {err}");
    }
}
