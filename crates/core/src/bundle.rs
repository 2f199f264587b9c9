//! Index persistence: binary bundles holding the packed reference,
//! contig table, suffix array and occurrence blocks, the same
//! way `bwa-mem2 mem` reads its `.bwt.2bit.64` files rather than
//! re-indexing.
//!
//! One on-disk layout exists, version 6 (little-endian): a table of
//! contents followed by *page-aligned sections*, generalized over the
//! position width, with integrity checksums. Each TOC entry carries its
//! section's CRC32 (the same IEEE polynomial gzip uses,
//! [`mem2_seqio::gzip::crc32`]), and four header bytes carry a CRC32 of
//! the header+TOC itself (computed with that field zeroed). Padding
//! between sections must be zero and the file must end exactly at the
//! last section, so a flipped byte *anywhere* in a bundle is rejected at
//! load with the failing section named. Any other version byte is
//! rejected with [`BundleError::UnsupportedVersion`]: re-run
//! `mem2 index`.
//!
//! ```text
//! magic "MEM2IDX" + version byte (6)
//! u8 sa_width_bytes (4|8) | u8 reserved (0)
//! u32 header_crc32 | 2 reserved bytes
//! u32 n_sections | per section: u32 id, u32 crc32, u64 offset, u64 len
//! META  (id 1, unaligned): u64 l_pac, contigs, holes, BwtMeta,
//!                          u64 sa_len, u64 n_blocks
//! PAC   (id 2, 4096-aligned): packed reference bytes
//! SA    (id 3, 4096-aligned): sa_len entries, 4 or 8 bytes each
//! OCC   (id 4, 4096-aligned): n_blocks × 64-byte CpBlock records, one
//!                             per 64 BWT rows: four u64 cumulative
//!                             counts, four u64 one-hot bitmaps
//! ```
//!
//! Page-aligned sections are the point: a loader can `mmap` the file
//! and hand each big array to the index *in place* (see
//! [`load_index_file`] and [`crate::mmap`]) — zero copies, demand
//! paging, cross-process page sharing. The buffered fallback reads the
//! file into one page-aligned heap buffer and serves the identical
//! views.
//!
//! The OCC records are the same at both widths, so the byte after the
//! SA width is reserved and must be zero.
//!
//! The suffix-array entry width is chosen at index time: 4-byte entries
//! while the doubled text fits `u32` (see [`flat_sa_fits`]), 8-byte
//! entries beyond — so references past ~2 Gbp index and align instead
//! of being rejected. [`BundleError::TooLarge`] fires only when a
//! caller *forces* the narrow layout onto an oversized reference.
//! Alignments are byte-identical across widths.

use std::sync::Arc;

use mem2_fmindex::{BuildOpts, BwtMeta, FlatSa, FmIndex, OccOpt, OccTable};
use mem2_seqio::gzip::crc32;
use mem2_seqio::refseq::{AmbHole, ContigAnn, ContigSet};
use mem2_seqio::{AlignedBytes, ByteRegion, PackedSeq, Reference, RegionOwner, PAGE_ALIGN};
use mem2_suffix::{IndexWidth, SaVec};

const MAGIC_PREFIX: &[u8; 7] = b"MEM2IDX";
/// The format version this build writes and reads.
pub const BUNDLE_VERSION: u8 = 6;
/// Byte offset of the header CRC32 field (zeroed while computing it).
const HEADER_CRC_OFF: usize = 10;
/// Fixed header length: magic+version, widths+reserved, count, TOC.
const TOC_HEADER_LEN: usize = 8 + 8 + 4 + 4 * 24;

/// Section ids, in TOC order.
const SEC_META: u32 = 1;
const SEC_PAC: u32 = 2;
const SEC_SA: u32 = 3;
const SEC_OCC: u32 = 4;
/// Section names for checksum errors, indexed by section id − 1.
const SECTION_NAMES: [&str; 4] = ["META", "PAC", "SA", "OCC"];

/// Errors raised while encoding, decoding or loading a bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// Magic bytes absent.
    BadMagic,
    /// Recognized bundle, but a version this build cannot read.
    UnsupportedVersion(u8),
    /// The reference does not fit a *forced* narrow (u32) layout; holds
    /// the offending doubled-text length. The automatic width choice
    /// never produces this — it widens to u64 instead.
    TooLarge(usize),
    /// Input ended early or a length field is inconsistent.
    Truncated(&'static str),
    /// A section's bytes do not match its stored CRC32 — the file is
    /// corrupt (bit flip, torn write, bad medium). Names the section.
    ChecksumMismatch {
        /// Which part failed: `header`, `META`, `PAC`, `SA`, `OCC`, or
        /// `padding`.
        section: &'static str,
        /// CRC32 recorded in the TOC.
        stored: u32,
        /// CRC32 computed over the on-disk bytes.
        computed: u32,
    },
    /// A string field was not UTF-8.
    BadString,
    /// Reading or mapping the index file failed.
    Io(String),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::BadMagic => write!(f, "not a mem2 index bundle (bad magic)"),
            BundleError::UnsupportedVersion(v) => write!(
                f,
                "unsupported bundle version {v} (this build reads version \
                 {BUNDLE_VERSION} only); re-run `mem2 index`"
            ),
            BundleError::TooLarge(n) => write!(
                f,
                "reference too large for the forced 32-bit layout: doubled text is {n} \
                 positions, limit {}; use --index-width 64 (or auto)",
                u32::MAX
            ),
            BundleError::Truncated(what) => write!(f, "bundle truncated while reading {what}"),
            BundleError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "bundle section {section} failed CRC32 verification \
                 (stored {stored:#010x}, computed {computed:#010x}); the file is \
                 corrupt — re-run `mem2 index`"
            ),
            BundleError::BadString => write!(f, "bundle contains a non-UTF-8 name"),
            BundleError::Io(e) => write!(f, "index file I/O failed: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

/// Does the doubled text of a reference with `l_pac` bases fit the u32
/// flat-SA layout? (Entries index positions `0 ..= 2·l_pac`.)
pub fn flat_sa_fits(l_pac: usize) -> bool {
    2 * l_pac < u32::MAX as usize
}

/// Pick the position width for a reference: narrow while the doubled
/// text fits 4-byte entries, wide beyond. `narrow_limit` overrides the
/// `u32` ceiling (in doubled-text positions) so tests can exercise the
/// wide path on tiny fixtures.
pub fn choose_width(l_pac: usize, narrow_limit: Option<usize>) -> IndexWidth {
    let limit = narrow_limit.unwrap_or(u32::MAX as usize);
    if 2 * l_pac < limit {
        IndexWidth::W32
    } else {
        IndexWidth::W64
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_contigs(reference: &Reference, out: &mut Vec<u8>) {
    put_u32(out, reference.contigs.contigs.len() as u32);
    for c in &reference.contigs.contigs {
        put_u32(out, c.name.len() as u32);
        out.extend_from_slice(c.name.as_bytes());
        put_u64(out, c.offset as u64);
        put_u64(out, c.len as u64);
    }
    put_u32(out, reference.contigs.holes.len() as u32);
    for h in &reference.contigs.holes {
        put_u64(out, h.offset as u64);
        put_u64(out, h.len as u64);
    }
}

fn encode_bwt_meta(meta: &BwtMeta, out: &mut Vec<u8>) {
    for &c in &meta.counts {
        put_u64(out, c as u64);
    }
    for &c in &meta.c_before {
        put_u64(out, c as u64);
    }
    put_u64(out, meta.sentinel_row as u64);
    put_u64(out, meta.n_stored as u64);
}

fn pad_to_page(out: &mut Vec<u8>) {
    let rem = out.len() % PAGE_ALIGN;
    if rem != 0 {
        out.resize(out.len() + PAGE_ALIGN - rem, 0);
    }
}

/// Serialize a bundle in the current format ([`BUNDLE_VERSION`]):
/// checksummed TOC header, then META, then the PAC / SA / OCC sections
/// at page-aligned offsets. The suffix array keeps whatever width it
/// was built with. The name is pinned by the benchmark package, which
/// calls this function; it writes the current version, not version 5.
pub fn save_bundle_v5(
    reference: &Reference,
    sa: &SaVec,
    occ: &OccOpt,
) -> Result<Vec<u8>, BundleError> {
    let mut meta_payload = Vec::new();
    put_u64(&mut meta_payload, reference.len() as u64);
    encode_contigs(reference, &mut meta_payload);
    encode_bwt_meta(occ.meta(), &mut meta_payload);
    put_u64(&mut meta_payload, sa.len() as u64);
    put_u64(&mut meta_payload, occ.n_blocks() as u64);

    let meta_off = TOC_HEADER_LEN;
    let occ_bytes = occ.blocks_bytes();
    let pac_off = (meta_off + meta_payload.len()).next_multiple_of(PAGE_ALIGN);
    let pac_len = reference.pac.raw().len();
    let sa_off = (pac_off + pac_len).next_multiple_of(PAGE_ALIGN);
    let sa_len_bytes = sa.len() * sa.width().bytes();
    let occ_off = (sa_off + sa_len_bytes).next_multiple_of(PAGE_ALIGN);

    let sections = [
        (SEC_META, meta_off, meta_payload.len()),
        (SEC_PAC, pac_off, pac_len),
        (SEC_SA, sa_off, sa_len_bytes),
        (SEC_OCC, occ_off, occ_bytes.len()),
    ];
    let mut out = Vec::with_capacity(occ_off + occ_bytes.len());
    out.extend_from_slice(MAGIC_PREFIX);
    out.push(BUNDLE_VERSION);
    out.extend_from_slice(&[sa.width().bytes() as u8, 0]);
    out.extend_from_slice(&[0u8; 6]);
    put_u32(&mut out, 4);
    for (id, off, len) in sections {
        put_u32(&mut out, id);
        put_u32(&mut out, 0);
        put_u64(&mut out, off as u64);
        put_u64(&mut out, len as u64);
    }
    debug_assert_eq!(out.len(), meta_off);
    out.extend_from_slice(&meta_payload);
    pad_to_page(&mut out);
    debug_assert_eq!(out.len(), pac_off);
    out.extend_from_slice(reference.pac.raw());
    pad_to_page(&mut out);
    debug_assert_eq!(out.len(), sa_off);
    match sa {
        SaVec::U32(v) => {
            for &x in v {
                put_u32(&mut out, x);
            }
        }
        SaVec::U64(v) => {
            for &x in v {
                put_u64(&mut out, x);
            }
        }
    }
    pad_to_page(&mut out);
    debug_assert_eq!(out.len(), occ_off);
    out.extend_from_slice(occ_bytes);
    // patch each section's CRC32 into its TOC entry, then stamp the
    // header CRC (its own field zeroed)
    for (i, (_, off, len)) in sections.iter().enumerate() {
        let c = crc32(&out[*off..*off + *len]).to_le_bytes();
        let field = 20 + 24 * i + 4;
        out[field..field + 4].copy_from_slice(&c);
    }
    let h = crc32(&out[..TOC_HEADER_LEN]).to_le_bytes();
    out[HEADER_CRC_OFF..HEADER_CRC_OFF + 4].copy_from_slice(&h);
    Ok(out)
}

/// Write a bundle crash-safely: the bytes go to a temp file in the same
/// directory, are fsynced, and are atomically renamed over `path` (the
/// directory is then fsynced too). A process killed at any point leaves
/// either the old file or none — never a torn bundle.
pub fn write_bundle_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), BundleError> {
    use std::io::Write;
    let io = |e: std::io::Error| BundleError::Io(format!("{}: {e}", path.display()));
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("bundle");
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        crate::checkpoint::kill_point(crate::checkpoint::KP_RENAME);
        std::fs::rename(&tmp, path)?;
        if let Ok(d) = std::fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(io)
}

/// Build the bundle for a reference, choosing the position width
/// automatically (never fails on size — oversized references widen to
/// u64 entries).
pub fn build_bundle(reference: &Reference) -> Result<Vec<u8>, BundleError> {
    build_bundle_with_width(reference, None)
}

/// Build the bundle with an explicit width. `None` chooses
/// automatically ([`choose_width`]); forcing [`IndexWidth::W32`] onto a
/// reference past the u32 ceiling fails with [`BundleError::TooLarge`]
/// — the only way to hit that error.
pub fn build_bundle_with_width(
    reference: &Reference,
    width: Option<IndexWidth>,
) -> Result<Vec<u8>, BundleError> {
    let width = match width {
        Some(IndexWidth::W32) if !flat_sa_fits(reference.len()) => {
            return Err(BundleError::TooLarge(2 * reference.len() + 1));
        }
        Some(w) => w,
        None => choose_width(reference.len(), None),
    };
    let s = FmIndex::doubled_text(reference);
    let sa = mem2_suffix::suffix_array_width(&s, width);
    let bwt = mem2_suffix::bwt_from_savec(&s, &sa);
    let occ = OccOpt::build_with_width(&bwt, width);
    save_bundle_v5(reference, &sa, &occ)
}

/// Little-endian cursor over a byte window. Every read is bounds-checked
/// and names what it was reading when the bytes ran out.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], BundleError> {
        if self.0.len() < n {
            return Err(BundleError::Truncated(what));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, BundleError> {
        Ok(u32::from_le_bytes(le_array(self.take(4, what)?)))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, BundleError> {
        Ok(u64::from_le_bytes(le_array(self.take(8, what)?)))
    }
}

/// The `N` bytes of an exactly-`N`-byte slice (every caller slices or
/// chunks to that length first).
fn le_array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes.try_into().expect("slice length is N")
}

fn decode_contigs(r: &mut Reader<'_>) -> Result<ContigSet, BundleError> {
    let n_contigs = r.u32("contig count")? as usize;
    let mut contigs = Vec::with_capacity(n_contigs.min(1 << 20));
    for _ in 0..n_contigs {
        let nl = r.u32("contig name length")? as usize;
        let name = std::str::from_utf8(r.take(nl, "contig record")?)
            .map_err(|_| BundleError::BadString)?
            .to_string();
        let offset = r.u64("contig record")? as usize;
        let len = r.u64("contig record")? as usize;
        contigs.push(ContigAnn { name, offset, len });
    }
    let n_holes = r.u32("hole count")? as usize;
    let mut holes = Vec::with_capacity(n_holes.min(1 << 20));
    for _ in 0..n_holes {
        let offset = r.u64("hole record")? as usize;
        let len = r.u64("hole record")? as usize;
        holes.push(AmbHole { offset, len });
    }
    Ok(ContigSet { contigs, holes })
}

fn decode_bwt_meta(r: &mut Reader<'_>) -> Result<BwtMeta, BundleError> {
    let mut counts = [0i64; 4];
    for c in counts.iter_mut() {
        *c = r.u64("occ meta")? as i64;
    }
    let mut c_before = [0i64; 5];
    for c in c_before.iter_mut() {
        *c = r.u64("occ meta")? as i64;
    }
    Ok(BwtMeta {
        counts,
        c_before,
        sentinel_row: r.u64("occ meta")? as i64,
        n_stored: r.u64("occ meta")? as i64,
    })
}

/// Check one section's bytes against the CRC32 stored in its TOC entry.
fn verify_section(
    full: &[u8],
    id: u32,
    (off, len): (usize, usize),
    stored: u32,
) -> Result<(), BundleError> {
    let computed = crc32(&full[off..off + len]);
    if computed != stored {
        return Err(BundleError::ChecksumMismatch {
            section: SECTION_NAMES[(id - 1) as usize],
            stored,
            computed,
        });
    }
    Ok(())
}

/// Parsed bundle geometry: decoded metadata plus the byte extents of
/// the big sections and their stored CRC32s, verified by
/// [`TocLayout::verify_sections`] before any of them is served.
struct TocLayout {
    sa_width: IndexWidth,
    l_pac: usize,
    contigs: ContigSet,
    meta: BwtMeta,
    pac: (usize, usize),
    sa: (usize, usize),
    occ: (usize, usize),
    /// Stored section CRC32s, indexed by section id − 1.
    crcs: [u32; 4],
}

impl TocLayout {
    /// Verify every big section. META is verified during parsing,
    /// before it is decoded.
    fn verify_sections(&self, full: &[u8]) -> Result<(), BundleError> {
        for (id, extent) in [(SEC_PAC, self.pac), (SEC_SA, self.sa), (SEC_OCC, self.occ)] {
            verify_section(full, id, extent, self.crcs[(id - 1) as usize])?;
        }
        Ok(())
    }
}

/// Parse a bundle's header, TOC and META section; validate every
/// cross-field length before any section is touched. The header CRC is
/// verified first (so a flipped TOC byte is caught before any offset is
/// trusted), then that the inter-section padding is zero with nothing
/// after the last section, then the META CRC (before decoding).
fn parse_toc(full: &[u8]) -> Result<TocLayout, BundleError> {
    if full.len() < 8 || &full[..7] != MAGIC_PREFIX {
        return Err(BundleError::BadMagic);
    }
    if full[7] != BUNDLE_VERSION {
        return Err(BundleError::UnsupportedVersion(full[7]));
    }
    if full.len() < TOC_HEADER_LEN {
        return Err(BundleError::Truncated("header"));
    }
    let stored = u32::from_le_bytes(le_array(&full[HEADER_CRC_OFF..][..4]));
    let mut head = [0u8; TOC_HEADER_LEN];
    head.copy_from_slice(&full[..TOC_HEADER_LEN]);
    head[HEADER_CRC_OFF..HEADER_CRC_OFF + 4].fill(0);
    let computed = crc32(&head);
    if computed != stored {
        return Err(BundleError::ChecksumMismatch {
            section: "header",
            stored,
            computed,
        });
    }
    let sa_width =
        IndexWidth::from_bytes(full[8]).ok_or(BundleError::Truncated("sa width byte"))?;
    if full[9] != 0 {
        return Err(BundleError::Truncated("reserved header byte"));
    }
    let mut toc = Reader(&full[16..TOC_HEADER_LEN]);
    if toc.u32("section count")? != 4 {
        return Err(BundleError::Truncated("section count"));
    }
    let mut sections = [(0usize, 0usize); 5];
    let mut crcs = [0u32; 4];
    for _ in 0..4 {
        let id = toc.u32("toc entry")?;
        let crc = toc.u32("toc entry")?;
        let off = toc.u64("toc entry")? as usize;
        let len = toc.u64("toc entry")? as usize;
        if !(1..=4).contains(&id) {
            return Err(BundleError::Truncated("unknown section id"));
        }
        if off.checked_add(len).is_none_or(|end| end > full.len()) {
            return Err(BundleError::Truncated("section extent"));
        }
        sections[id as usize] = (off, len);
        crcs[(id - 1) as usize] = crc;
    }
    verify_padding(full, &sections)?;
    let meta_extent = sections[SEC_META as usize];
    verify_section(full, SEC_META, meta_extent, crcs[(SEC_META - 1) as usize])?;
    let mut r = Reader(&full[meta_extent.0..meta_extent.0 + meta_extent.1]);
    let l_pac = r.u64("l_pac")? as usize;
    let contigs = decode_contigs(&mut r)?;
    let meta = decode_bwt_meta(&mut r)?;
    let sa_len = r.u64("sa/occ lengths")? as usize;
    let n_blocks = r.u64("sa/occ lengths")? as usize;

    let pac = sections[SEC_PAC as usize];
    let sa = sections[SEC_SA as usize];
    let occ = sections[SEC_OCC as usize];
    if pac.1 != l_pac.div_ceil(4) {
        return Err(BundleError::Truncated("pac size inconsistent with l_pac"));
    }
    if sa_len != 2 * l_pac + 1 || sa.1 != sa_len * sa_width.bytes() {
        return Err(BundleError::Truncated("sa size inconsistent with l_pac"));
    }
    if meta.n_stored != 2 * l_pac as i64 || meta.c_before[4] != meta.n_stored + 1 {
        return Err(BundleError::Truncated("occ meta inconsistent with l_pac"));
    }
    if n_blocks as i64 != meta.n_stored / OccOpt::rows_per_block() as i64 + 1
        || occ.1 != 64 * n_blocks
    {
        return Err(BundleError::Truncated("occ block count inconsistent"));
    }
    Ok(TocLayout {
        sa_width,
        l_pac,
        contigs,
        meta,
        pac,
        sa,
        occ,
        crcs,
    })
}

/// Check that every byte outside the header and the four sections is
/// zero padding, and that the file ends exactly at the last section —
/// so no byte of a bundle escapes verification.
fn verify_padding(full: &[u8], sections: &[(usize, usize); 5]) -> Result<(), BundleError> {
    let mut extents: Vec<(usize, usize)> = sections[1..]
        .iter()
        .map(|&(off, len)| (off, off + len))
        .collect();
    extents.sort_unstable();
    let mut end = TOC_HEADER_LEN;
    for (start, sec_end) in extents {
        if start < end {
            return Err(BundleError::Truncated("overlapping sections"));
        }
        let gap = &full[end..start];
        if gap.iter().any(|&b| b != 0) {
            return Err(BundleError::ChecksumMismatch {
                section: "padding",
                stored: crc32(&vec![0u8; gap.len()]),
                computed: crc32(gap),
            });
        }
        end = sec_end;
    }
    if end != full.len() {
        return Err(BundleError::Truncated("trailing bytes after last section"));
    }
    Ok(())
}

/// Decode a SA section's bytes into owned width-dispatched entries.
fn decode_sa_owned(bytes: &[u8], width: IndexWidth) -> SaVec {
    match width {
        IndexWidth::W32 => SaVec::U32(
            bytes
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(le_array(b)))
                .collect(),
        ),
        IndexWidth::W64 => SaVec::U64(
            bytes
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(le_array(b)))
                .collect(),
        ),
    }
}

/// The bundle checksum policy. Every section is verified before the
/// index is assembled, whatever the load mode; `Eager` is the only
/// policy. The type remains because the benchmark package's pinned call
/// to [`load_index_file`] passes `VerifyMode::Eager`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Verify every section up front, before the index is assembled.
    #[default]
    Eager,
}

/// How zero-copy the assembled index ended up, for logging and the
/// benchmark harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Suffix-array entry width.
    pub sa_width: IndexWidth,
    /// The file itself was memory-mapped (vs. buffered into the heap).
    pub file_mapped: bool,
    /// The big arrays are served from the loaded region in place (no
    /// per-component copies) — true on a little-endian host.
    pub zero_copy: bool,
    /// Total bundle size in bytes.
    pub bytes: usize,
}

/// Assemble the index from a loaded bundle region, after verifying
/// every section's checksum. The occurrence table and the flat suffix
/// array are adopted from the region *in place*.
pub fn load_index_region(
    region: ByteRegion,
    file_mapped: bool,
) -> Result<(Reference, FmIndex, LoadReport), BundleError> {
    let bytes = region.as_slice();
    let layout = parse_toc(bytes)?;
    layout.verify_sections(bytes)?;
    let mut report = LoadReport {
        sa_width: layout.sa_width,
        file_mapped,
        zero_copy: false,
        bytes: region.len(),
    };
    let pac_region = region.slice(layout.pac.0, layout.pac.1);
    let reference = Reference {
        pac: PackedSeq::from_region(pac_region, layout.l_pac),
        contigs: layout.contigs,
    };
    // borrow the mapped arrays in place; fall back to owned decode per
    // component (big-endian hosts)
    let sa_region = region.slice(layout.sa.0, layout.sa.1);
    let occ_region = region.slice(layout.occ.0, layout.occ.1);
    let flat = FlatSa::from_region(sa_region.clone(), layout.sa_width)
        .unwrap_or_else(|_| FlatSa::build(decode_sa_owned(sa_region.as_slice(), layout.sa_width)));
    let occ = OccOpt::from_region(layout.meta, occ_region).map_err(BundleError::Truncated)?;
    report.zero_copy = flat.is_mapped() && occ.is_mapped();
    let index = FmIndex::from_mapped_parts(&reference, flat, occ);
    Ok((reference, index, report))
}

/// Load a bundle from a byte buffer. The buffer is staged into
/// page-aligned storage so the in-place views apply; [`load_index_file`]
/// avoids even that copy.
pub fn load_index(buf: &[u8]) -> Result<(Reference, FmIndex), BundleError> {
    let owner: RegionOwner = Arc::new(AlignedBytes::from_slice(buf));
    let (reference, index, _) = load_index_region(ByteRegion::whole(owner), false)?;
    Ok((reference, index))
}

/// How [`load_index_file`] should bring the bundle into memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// `mmap` when the platform supports it, else buffered read.
    #[default]
    Auto,
    /// Always buffered read into page-aligned heap memory.
    Read,
}

fn open_region(path: &std::path::Path, mode: LoadMode) -> Result<(ByteRegion, bool), BundleError> {
    let io = |e: std::io::Error| BundleError::Io(format!("{}: {e}", path.display()));
    #[cfg(unix)]
    if mode == LoadMode::Auto {
        if let Some(m) = crate::mmap::try_map_file(path).map_err(io)? {
            let owner: RegionOwner = Arc::new(m);
            return Ok((ByteRegion::whole(owner), true));
        }
    }
    let _ = mode;
    let buf = crate::mmap::read_file_aligned(path).map_err(io)?;
    let owner: RegionOwner = Arc::new(buf);
    Ok((ByteRegion::whole(owner), false))
}

/// Open an index bundle file and assemble the index, memory-mapping it
/// when `mode` and the platform allow (the big arrays are then served
/// zero-copy). Every section is checksum-verified before the index is
/// assembled ([`VerifyMode::Eager`] is the only policy). `_opts` and
/// `_verify` are unused: they remain for the benchmark package's pinned
/// call.
pub fn load_index_file(
    path: &std::path::Path,
    _opts: &BuildOpts,
    mode: LoadMode,
    _verify: VerifyMode,
) -> Result<(Reference, FmIndex, LoadReport), BundleError> {
    let (region, file_mapped) = open_region(path, mode)?;
    load_index_region(region, file_mapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem2_seqio::GenomeSpec;

    /// Load through the zero-copy path from a page-aligned copy.
    fn load_region(bytes: &[u8]) -> Result<LoadReport, BundleError> {
        let owner: RegionOwner = Arc::new(AlignedBytes::from_slice(bytes));
        load_index_region(ByteRegion::whole(owner), false).map(|(_, _, report)| report)
    }

    #[test]
    fn reader_roundtrips_and_names_what_ran_out() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_u64(&mut out, u64::MAX - 1);
        out.extend_from_slice(b"xy");
        let mut r = Reader(&out);
        assert_eq!(r.u32("a"), Ok(7));
        assert_eq!(r.u64("b"), Ok(u64::MAX - 1));
        assert_eq!(r.take(2, "c"), Ok(&b"xy"[..]));
        assert_eq!(r.u32("d"), Err(BundleError::Truncated("d")));
    }

    #[test]
    fn bundle_roundtrips_and_rebuilds_identically() {
        let genome = GenomeSpec {
            len: 5_000,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrZ");
        let direct = FmIndex::build(&reference, &BuildOpts::optimized_only());

        let bytes = build_bundle(&reference).expect("encode");
        let (loaded_ref, loaded) = load_index(&bytes).expect("load");
        assert_eq!(loaded_ref.pac, reference.pac);
        assert_eq!(loaded_ref.contigs, reference.contigs);
        // the persisted occurrence table equals a from-scratch build
        assert_eq!(loaded.opt().meta(), direct.opt().meta());
        let mut sink = mem2_memsim::NoopSink;
        for r in (-1..=2 * direct.l_pac).step_by(97) {
            assert_eq!(
                loaded.opt().occ4(r, &mut sink),
                direct.opt().occ4(r, &mut sink)
            );
        }
        // and so do the metadata and the persisted suffix array
        assert_eq!(loaded.meta, direct.meta);
        assert_eq!(loaded.l_pac, direct.l_pac);
        let flat_a = direct.sa_flat.as_ref().expect("flat built");
        let flat_b = loaded.sa_flat.as_ref().expect("flat built");
        assert_eq!(flat_a.as_u32(), flat_b.as_u32());
    }

    #[test]
    fn v4_sections_are_page_aligned() {
        let genome = GenomeSpec {
            len: 2_000,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrA");
        let bytes = build_bundle(&reference).expect("encode");
        assert_eq!(bytes[7], BUNDLE_VERSION);
        let layout = parse_toc(&bytes).expect("parse");
        for (off, _) in [layout.pac, layout.sa, layout.occ] {
            assert_eq!(off % PAGE_ALIGN, 0, "section offset {off} not page-aligned");
        }
        assert_eq!(layout.sa_width, IndexWidth::W32);
        assert_eq!(bytes[9], 0, "reserved byte");
    }

    #[test]
    fn forced_wide_bundle_roundtrips_and_matches_narrow() {
        let genome = GenomeSpec {
            len: 3_000,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrW");
        let narrow = build_bundle_with_width(&reference, Some(IndexWidth::W32)).unwrap();
        let wide = build_bundle_with_width(&reference, Some(IndexWidth::W64)).unwrap();
        assert_eq!(parse_toc(&wide).unwrap().sa_width, IndexWidth::W64);
        let (_, idx_n) = load_index(&narrow).unwrap();
        let (_, idx_w) = load_index(&wide).unwrap();
        assert_eq!(idx_n.meta, idx_w.meta);
        let mut sink = mem2_memsim::NoopSink;
        for r in 0..=2 * idx_n.l_pac {
            assert_eq!(idx_n.sa_lookup(r, &mut sink), idx_w.sa_lookup(r, &mut sink));
        }
        for r in (-1..=2 * idx_n.l_pac).step_by(37) {
            assert_eq!(
                idx_n.opt().occ4(r, &mut sink),
                idx_w.opt().occ4(r, &mut sink)
            );
        }
    }

    #[test]
    fn width_limit_override_selects_wide_automatically() {
        // the acceptance criterion for >2 Gbp references, scaled down:
        // with the narrow ceiling overridden to a tiny value, the auto
        // choice goes wide and the bundle still loads and serves
        assert_eq!(choose_width(1_000, None), IndexWidth::W32);
        assert_eq!(choose_width(1_000, Some(100)), IndexWidth::W64);
        let genome = GenomeSpec {
            len: 1_200,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrL");
        let bytes =
            build_bundle_with_width(&reference, Some(choose_width(reference.len(), Some(100))))
                .expect("encode");
        let layout = parse_toc(&bytes).expect("parse");
        assert_eq!(layout.sa_width, IndexWidth::W64);
        let (_, idx) = load_index(&bytes).expect("load");
        let direct = FmIndex::build(&reference, &BuildOpts::optimized_only());
        let mut sink = mem2_memsim::NoopSink;
        for r in 0..=2 * idx.l_pac {
            assert_eq!(idx.sa_lookup(r, &mut sink), direct.sa_lookup(r, &mut sink));
        }
    }

    #[test]
    fn auto_width_no_longer_rejects_past_the_narrow_ceiling() {
        // regression: build_bundle once returned TooLarge for any
        // reference past the u32 ceiling; now the auto choice widens.
        // (Simulated via the narrow-limit override — a real >2 Gbp
        // fixture is not buildable in CI.)
        let genome = GenomeSpec {
            len: 800,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrBig");
        let width = choose_width(reference.len(), Some(10));
        assert_eq!(width, IndexWidth::W64);
        assert!(build_bundle_with_width(&reference, Some(width)).is_ok());
        // forcing narrow onto an "oversized" reference is the only
        // remaining TooLarge, and only at the real u32 ceiling
        let err = BundleError::TooLarge(5_000_000_000);
        assert!(err.to_string().contains("--index-width 64"));
    }

    #[test]
    fn zero_copy_load_serves_identical_results() {
        let genome = GenomeSpec {
            len: 4_000,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrM");
        let direct = FmIndex::build(&reference, &BuildOpts::optimized_only());
        for width in [IndexWidth::W32, IndexWidth::W64] {
            let bytes = build_bundle_with_width(&reference, Some(width)).unwrap();
            let owner: RegionOwner = Arc::new(AlignedBytes::from_slice(&bytes));
            let (refer, idx, report) =
                load_index_region(ByteRegion::whole(owner), false).expect("load");
            assert!(report.zero_copy, "width {width}");
            assert_eq!(report.sa_width, width);
            assert_eq!(refer.contigs, reference.contigs);
            assert_eq!(refer.pac, reference.pac);
            assert!(idx.sa_flat.as_ref().unwrap().is_mapped());
            assert!(idx.opt().is_mapped());
            // the owned decode big-endian hosts fall back to (here
            // forced by a misaligned copy) serves the same table
            let layout = parse_toc(&bytes).expect("parse");
            let mut shifted = vec![0u8; 8];
            shifted.extend_from_slice(&bytes[layout.occ.0..][..layout.occ.1]);
            let owner: RegionOwner = Arc::new(AlignedBytes::from_slice(&shifted));
            let occ_region = ByteRegion::whole(owner).slice(8, layout.occ.1);
            let owned = OccOpt::from_region(layout.meta, occ_region).expect("sized");
            assert!(!owned.is_mapped());
            let mut sink = mem2_memsim::NoopSink;
            for r in 0..=2 * idx.l_pac {
                assert_eq!(idx.sa_lookup(r, &mut sink), direct.sa_lookup(r, &mut sink));
            }
            for r in (-1..=2 * idx.l_pac).step_by(53) {
                let want = direct.opt().occ4(r, &mut sink);
                assert_eq!(idx.opt().occ4(r, &mut sink), want);
                assert_eq!(owned.occ4(r, &mut sink), want);
            }
        }
    }

    #[test]
    fn load_index_file_roundtrips_in_both_modes() {
        let genome = GenomeSpec {
            len: 2_500,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrF");
        let bytes = build_bundle(&reference).expect("encode");
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mem2_bundle_test_{}.idx", std::process::id()));
        std::fs::write(&path, &bytes).expect("write");
        let direct = FmIndex::build(&reference, &BuildOpts::optimized_only());
        let mut reports = Vec::new();
        for mode in [LoadMode::Auto, LoadMode::Read] {
            let (_, idx, report) =
                load_index_file(&path, &BuildOpts::optimized_only(), mode, VerifyMode::Eager)
                    .expect("load");
            assert!(report.zero_copy);
            assert_eq!(report.bytes, bytes.len());
            let mut sink = mem2_memsim::NoopSink;
            for r in (0..=2 * idx.l_pac).step_by(7) {
                assert_eq!(idx.sa_lookup(r, &mut sink), direct.sa_lookup(r, &mut sink));
            }
            reports.push(report);
        }
        assert!(!reports[1].file_mapped, "Read mode must not map");
        if crate::mmap::mmap_supported() {
            assert!(reports[0].file_mapped);
        }
        std::fs::remove_file(&path).ok();
        // a missing file is an I/O error, not a panic
        assert!(matches!(
            load_index_file(
                &dir.join("mem2_definitely_missing.idx"),
                &BuildOpts::optimized_only(),
                LoadMode::Auto,
                VerifyMode::Eager,
            ),
            Err(BundleError::Io(_))
        ));
    }

    #[test]
    fn persisted_occ_serves_the_batched_profile_without_rebuild() {
        let genome = GenomeSpec {
            len: 3_000,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrY");
        let direct = FmIndex::build(&reference, &BuildOpts::optimized_only());
        let bytes = build_bundle(&reference).expect("encode");
        let (_, loaded) = load_index(&bytes).expect("load");
        assert!(loaded.occ_orig.is_none());
        assert_eq!(loaded.meta, direct.meta);
        let mut sink = mem2_memsim::NoopSink;
        for r in (-1..=2 * direct.l_pac).step_by(61) {
            assert_eq!(
                loaded.opt().occ4(r, &mut sink),
                direct.opt().occ4(r, &mut sink)
            );
        }
        for r in 0..=2 * direct.l_pac {
            assert_eq!(
                loaded.sa_lookup(r, &mut sink),
                direct.sa_lookup(r, &mut sink)
            );
        }
    }

    #[test]
    fn bundle_preserves_holes_and_multiple_contigs() {
        let recs = mem2_seqio::parse_fasta(">a\nACGTNNNNACGT\n>b\nGGGG\n").expect("parse");
        let reference = Reference::from_fasta(&recs, 3);
        let bytes = build_bundle(&reference).expect("encode");
        let (loaded, _) = load_index(&bytes).expect("roundtrip");
        assert_eq!(loaded.contigs, reference.contigs);
        assert_eq!(loaded.contigs.holes.len(), 1);
    }

    #[test]
    fn corrupted_bundles_are_rejected() {
        let genome = GenomeSpec {
            len: 300,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("c");
        let bytes = build_bundle(&reference).expect("encode");
        assert!(matches!(
            load_index(&bytes[..4]),
            Err(BundleError::BadMagic)
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(load_index(&bad), Err(BundleError::BadMagic)));
        assert!(matches!(
            load_index(&bytes[..bytes.len() / 2]),
            Err(BundleError::Truncated(_))
        ));
        // a TOC entry pointing past the file is caught by the header
        // CRC before the bogus offset is ever trusted
        let mut toc_bad = bytes.clone();
        let off_pos = 20 + 8; // first entry's offset field
        toc_bad[off_pos..off_pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            load_index(&toc_bad),
            Err(BundleError::ChecksumMismatch {
                section: "header",
                ..
            })
        ));
        // an invalid width byte likewise trips the header CRC first
        let mut width_bad = bytes.clone();
        width_bad[8] = 2;
        assert!(matches!(
            load_index(&width_bad),
            Err(BundleError::ChecksumMismatch {
                section: "header",
                ..
            })
        ));
    }

    #[test]
    fn v5_flipped_bytes_name_the_failing_section() {
        let genome = GenomeSpec {
            len: 1_000,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrC");
        let bytes = build_bundle(&reference).expect("encode");
        assert_eq!(bytes[7], BUNDLE_VERSION);
        let layout = parse_toc(&bytes).expect("parse");
        let pokes = [
            (TOC_HEADER_LEN + 4, "META"),
            (layout.pac.0 + layout.pac.1 / 2, "PAC"),
            (layout.sa.0 + layout.sa.1 / 2, "SA"),
            (layout.occ.0 + layout.occ.1 / 2, "OCC"),
            (layout.pac.0 - 1, "padding"),
        ];
        for (pos, want) in pokes {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            match load_region(&bad) {
                Err(BundleError::ChecksumMismatch { section, .. }) => {
                    assert_eq!(section, want, "flip at byte {pos}");
                }
                other => panic!("flip at byte {pos}: expected checksum error, got {other:?}"),
            }
        }
        // appended trailing garbage is rejected as well
        let mut grown = bytes.clone();
        grown.push(0xAB);
        assert!(matches!(load_index(&grown), Err(BundleError::Truncated(_))));
    }

    #[test]
    fn occ_flip_is_rejected_under_every_profile() {
        let genome = GenomeSpec {
            len: 900,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrT");
        let bytes = build_bundle(&reference).expect("encode");
        let layout = parse_toc(&bytes).expect("parse");
        let mut bad = bytes.clone();
        bad[layout.occ.0 + 7] ^= 0x01;
        assert!(matches!(
            load_region(&bad),
            Err(BundleError::ChecksumMismatch { section: "OCC", .. })
        ));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let genome = GenomeSpec {
            len: 400,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrAW");
        let bytes = build_bundle(&reference).expect("encode");
        let dir = std::env::temp_dir().join(format!("mem2_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ref.idx");
        std::fs::write(&path, b"old garbage").unwrap();
        write_bundle_atomic(&path, &bytes).expect("atomic write");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers.len(), 1, "temp file left behind: {leftovers:?}");
        // and the result loads clean
        assert!(load_index_file(
            &path,
            &BuildOpts::optimized_only(),
            LoadMode::Auto,
            VerifyMode::Eager
        )
        .is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_versions_are_rejected_cleanly() {
        let reference = GenomeSpec {
            len: 300,
            ..GenomeSpec::default()
        }
        .generate_reference("c");
        let bytes = build_bundle(&reference).expect("encode");
        // every retired layout (v1–v5; v5 held η = 32 byte-per-base occ
        // buckets) and a hypothetical future v7 refuse to parse, with an
        // error naming the version and the fix
        for v in [1u8, 2, 3, 4, 5, 7] {
            let mut other = bytes.clone();
            other[7] = v;
            let err = load_index(&other).expect_err("version must be rejected");
            assert_eq!(err, BundleError::UnsupportedVersion(v));
            let msg = err.to_string();
            assert!(msg.contains(&format!("version {v}")), "{msg}");
            assert!(msg.contains("re-run `mem2 index`"), "{msg}");
        }
    }

    #[test]
    fn reserved_header_byte_must_be_zero() {
        // the byte after the SA width is refused when set, even under a
        // consistent header CRC
        let reference = GenomeSpec {
            len: 300,
            ..GenomeSpec::default()
        }
        .generate_reference("c");
        let mut bad = build_bundle(&reference).expect("encode");
        bad[9] = 8;
        bad[HEADER_CRC_OFF..HEADER_CRC_OFF + 4].fill(0);
        let h = crc32(&bad[..TOC_HEADER_LEN]).to_le_bytes();
        bad[HEADER_CRC_OFF..HEADER_CRC_OFF + 4].copy_from_slice(&h);
        assert_eq!(
            load_index(&bad).map(|_| ()),
            Err(BundleError::Truncated("reserved header byte"))
        );
    }

    #[test]
    fn u32_overflow_guard_trips_at_the_boundary() {
        // the check is on positions of the doubled text: 2·l_pac must
        // stay below u32::MAX for the narrow layout
        assert!(flat_sa_fits(1 << 30));
        assert!(flat_sa_fits((u32::MAX as usize - 1) / 2));
        assert!(!flat_sa_fits(u32::MAX as usize / 2 + 1));
        assert!(!flat_sa_fits(u32::MAX as usize));
        assert_eq!(choose_width(u32::MAX as usize, None), IndexWidth::W64);
        let msg = BundleError::TooLarge(u32::MAX as usize * 2).to_string();
        assert!(msg.contains("too large"), "{msg}");
    }
}
