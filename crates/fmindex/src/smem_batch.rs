//! Lockstep batched seeding — the latency-hiding superstage.
//!
//! [`smem::collect_intv`](crate::smem::collect_intv) seeds one read to
//! completion: every occurrence query depends on the previous one, so
//! the software prefetch it issues (§4.3) lands one serially-dependent
//! step before its use and hides nothing — the core still eats the full
//! cache/DRAM round trip.
//!
//! [`SmemScheduler::seed_slab`] instead advances a slab of `W`
//! independent reads in lockstep. Each read sits in a *lane*, and a lane
//! is filed in one of three lists by the kind of query it issues next:
//!
//! * **forward** — a forward run of an `smem1a` frame (SMEM pass and
//!   re-seeding pass);
//! * **backward** — one backward extension of `prev[j]` at the frame's
//!   current level;
//! * **third** — a `seed_strategy1` run (the third round).
//!
//! One rotation runs a tight loop over each list, and each loop step
//! issues exactly one occurrence query per lane, then prefetches the
//! bucket(s) of that lane's next query. By the time the rotation
//! returns — the other lanes' queries later — the line has landed, so
//! the demand load hits cache. This is bwa-mem2's batched-seeding
//! discipline: keep the memory-bound kernel saturated with independent
//! work between prefetch issue and use. A lane leaves its loop only when
//! its phase changes; a cold `advance` then does the ALU-only control
//! flow (end of a forward run, end of a backward level, SMEM filtering,
//! the pass-2 and pass-3 scans), files the lane into its next list and
//! prefetches its first query. A finished read is emitted and its lane
//! takes the slab's next read.
//!
//! Fidelity contract: for every read, the interval list handed to
//! `emit` is **identical** (same values, same order) to what
//! `collect_intv` produces, and the occurrence queries are exactly the
//! ones `collect_intv` issues — pinned by unit tests here and by
//! `tests/proptest_smem_batch.rs`. The lanes implement the
//! `max_intv == 0` specialization of `bwt_smem1a` (the only form
//! `collect_intv` invokes) plus the full `bwt_seed_strategy1` third
//! round.

use std::time::Duration;

use mem2_memsim::PerfSink;

use crate::ext::{backward_ext1, backward_ext_rows, forward_ext1, forward_ext_rows, set_intv};
use crate::interval::BiInterval;
use crate::occ::OccTable;
use crate::smem::SmemOpts;

/// Default slab width: how many reads one worker seeds in lockstep.
/// 16 lanes of ~2 cache-line touches each put several hundred cycles
/// between a prefetch and its demand load — enough to cover LLC and
/// DRAM latency without overflowing the L1 with lane state.
pub const DEFAULT_SEED_BATCH: usize = 16;

/// Occurrence-query counters of the seeding stage, split by pass, as
/// [`SmemScheduler`] fills them: with SMEM seconds they give the time
/// per query, the quantity an occurrence-layout change moves. One query
/// is one `forward_ext4` / `backward_ext4` call (an `occ2x4` pair).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeedStats {
    /// Reads seeded.
    pub reads: u64,
    /// Pass 1 (SMEM search) forward extensions.
    pub smem_fwd: u64,
    /// Pass 1 backward extensions.
    pub smem_back: u64,
    /// Pass 2 (re-seeding) extensions, forward and backward.
    pub reseed: u64,
    /// Pass 3 (`seed_strategy1`, the third round) forward extensions.
    pub third: u64,
}

impl SeedStats {
    /// Queries over all passes.
    pub fn queries(&self) -> u64 {
        self.smem_fwd + self.smem_back + self.reseed + self.third
    }

    /// Queries per read (0 when no read was seeded).
    pub fn queries_per_read(&self) -> f64 {
        self.queries() as f64 / self.reads.max(1) as f64
    }

    /// Nanoseconds per occurrence query when the SMEM stage took `smem`
    /// (0 when no query ran): the mechanism metric of a seeding change.
    pub fn ns_per_query(&self, smem: Duration) -> f64 {
        match self.queries() {
            0 => 0.0,
            n => smem.as_nanos() as f64 / n as f64,
        }
    }

    /// Add another worker's counters.
    pub fn merge(&mut self, other: &SeedStats) {
        self.reads += other.reads;
        self.smem_fwd += other.smem_fwd;
        self.smem_back += other.smem_back;
        self.reseed += other.reseed;
        self.third += other.third;
    }

    /// One-line text form for the `--profile` report; `smem` is the
    /// SMEM stage time the queries took.
    pub fn render(&self, smem: Duration) -> String {
        format!(
            "occ queries {} over {} reads = {:.1} queries/read, {:.1} ns/query \
             (SMEM forward {}, SMEM backward {}, re-seed {}, third round {})",
            self.queries(),
            self.reads,
            self.queries_per_read(),
            self.ns_per_query(smem),
            self.smem_fwd,
            self.smem_back,
            self.reseed,
            self.third,
        )
    }

    /// JSON object form for `--profile=json`; `smem` as in
    /// [`render`](SeedStats::render).
    pub fn render_json(&self, smem: Duration) -> String {
        format!(
            "{{\"reads\":{},\"queries\":{},\"queries_per_read\":{:.2},\"ns_per_query\":{:.2},\
             \"smem_fwd\":{},\"smem_back\":{},\"reseed\":{},\"third\":{}}}",
            self.reads,
            self.queries(),
            self.queries_per_read(),
            self.ns_per_query(smem),
            self.smem_fwd,
            self.smem_back,
            self.reseed,
            self.third,
        )
    }
}

/// Index of a query counter in [`SmemScheduler`]'s per-slab tally:
/// SMEM forward, SMEM backward, re-seed, third round.
const SMEM_FWD: usize = 0;
const SMEM_BACK: usize = 1;
const RESEED: usize = 2;
const THIRD: usize = 3;

/// A lane in a forward run of an `smem1a` frame. The live interval's
/// `info` is the cursor (`i`), so it is not stored.
#[derive(Clone, Copy, Debug)]
struct Fwd {
    k: i64,
    l: i64,
    s: i64,
    /// Extension stops once the interval falls below this size.
    min_intv: i64,
    /// Query position of the next base to extend by.
    i: u32,
    /// Index of the read in the slab.
    read: u32,
    /// The lane's [`Slot`].
    slot: u32,
    /// Tally index: [`SMEM_FWD`] or [`RESEED`].
    stat: u32,
}

/// A lane in a third-round (`seed_strategy1`) forward run.
#[derive(Clone, Copy, Debug)]
struct Third {
    k: i64,
    l: i64,
    s: i64,
    /// Query position the run started from.
    start: u32,
    /// Query position of the next base to extend by.
    i: u32,
    read: u32,
    slot: u32,
}

/// A lane extending its slot's `prev[j]` backward by base `c`.
#[derive(Clone, Copy, Debug)]
struct Back {
    slot: u32,
    j: u32,
    c: u8,
}

/// Which pass of `collect_intv` a read is in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Pass {
    /// Pass 1: SMEMs from every start.
    #[default]
    Smem,
    /// Pass 2: re-seeding inside long, low-occurrence SMEMs.
    Reseed,
    /// Pass 3: `seed_strategy1` runs.
    Third,
}

/// Where a read's cold control flow resumes.
#[derive(Clone, Copy, Debug)]
enum Cold {
    /// Scan for the next frame or run of the current pass.
    Scan,
    /// A forward run ended: reverse `curr`, compute `ret`, go backward.
    FwdEnd,
    /// A backward level ended without a survivor to extend by an
    /// unambiguous base: finish the frame.
    BackLevelEnd,
}

/// One lane's read: the buffers and cursors of `collect_intv` that the
/// hot loops do not carry. Buffers keep their capacity across reads and
/// slabs, so a pooled slot allocates only while it warms up.
#[derive(Debug, Default)]
struct Slot {
    /// Accumulated intervals — `collect_intv`'s `out`.
    out: Vec<BiInterval>,
    /// Per-frame SMEM output (`smem1a`'s `mem`).
    mem1: Vec<BiInterval>,
    curr: Vec<BiInterval>,
    prev: Vec<BiInterval>,
    /// Index of the read in the slab.
    read: usize,
    pass: Pass,
    /// Scan cursor of passes 1 and 3.
    x: usize,
    /// Pass-2 candidate index and its fixed upper bound.
    reseed_k: usize,
    old_n: usize,
    /// `smem1a` frame: start position, minimum interval, return value.
    sx: usize,
    min_intv: i64,
    ret: usize,
    /// Query position of the backward level (`i` of `smem1a`).
    back_i: i64,
}

impl Slot {
    /// Take read `read` from the start of pass 1.
    fn bind(&mut self, read: usize) {
        self.out.clear();
        self.read = read;
        self.pass = Pass::Smem;
        self.x = 0;
    }

    /// `smem1a`'s backward keep-branch: record `p` as an SMEM unless a
    /// longer survivor exists at this level (`curr` non-empty) or it is
    /// contained in the previously reported match.
    #[inline]
    fn back_keep(&mut self, p: BiInterval) {
        let start = (self.back_i + 1) as u64;
        let contained = self
            .mem1
            .last()
            .is_some_and(|last| start >= last.info >> 32);
        if self.curr.is_empty() && !contained {
            let mut m = p;
            m.info |= start << 32;
            self.mem1.push(m);
        }
    }

    /// Run the read's ALU-only control flow from `at` to its next
    /// occurrence query, file the lane into that query's list and
    /// prefetch it. Returns `true` instead when the read's seeding is
    /// complete (`out` sorted and final).
    #[allow(clippy::too_many_arguments)]
    fn advance<O: OccTable, P: PerfSink>(
        &mut self,
        slot: u32,
        q: &[u8],
        mut at: Cold,
        occ: &O,
        opts: &SmemOpts,
        lanes: &mut Lanes,
        prefetch: bool,
        sink: &mut P,
    ) -> bool {
        let len = q.len();
        loop {
            at = match at {
                Cold::Scan => match self.pass {
                    Pass::Smem => {
                        while self.x < len && q[self.x] > 3 {
                            self.x += 1;
                        }
                        if self.x < len {
                            self.min_intv = 1;
                            self.sx = self.x;
                            match self.smem_init(slot, q, occ, lanes, prefetch, sink) {
                                Some(at) => at,
                                None => return false,
                            }
                        } else {
                            self.pass = Pass::Reseed;
                            self.old_n = self.out.len();
                            self.reseed_k = 0;
                            Cold::Scan
                        }
                    }
                    Pass::Reseed => {
                        // the next long, low-occurrence SMEM of pass 1
                        let split_len = opts.split_len();
                        let candidate = self.out[self.reseed_k..self.old_n].iter().position(|p| {
                            ((p.end() - p.start()) as i64) >= split_len && p.s <= opts.split_width
                        });
                        if let Some(k) = candidate {
                            self.reseed_k += k;
                            let p = self.out[self.reseed_k];
                            self.min_intv = p.s + 1;
                            self.sx = (p.start() + p.end()) >> 1;
                            match self.smem_init(slot, q, occ, lanes, prefetch, sink) {
                                Some(at) => at,
                                None => return false,
                            }
                        } else if opts.max_mem_intv > 0 {
                            self.pass = Pass::Third;
                            self.x = 0;
                            Cold::Scan
                        } else {
                            self.out.sort_by_key(|p| p.info);
                            return true;
                        }
                    }
                    Pass::Third => loop {
                        while self.x < len && q[self.x] > 3 {
                            self.x += 1;
                        }
                        if self.x >= len {
                            self.out.sort_by_key(|p| p.info);
                            return true;
                        }
                        let start = self.x;
                        let i = start + 1;
                        let ik = set_intv(occ, q[start]);
                        sink.ops(8);
                        if i >= len {
                            self.x = len;
                        } else if q[i] > 3 {
                            self.x = i + 1;
                        } else {
                            if prefetch {
                                prefetch_fwd(occ, &ik, sink);
                            }
                            lanes.third.push(Third {
                                k: ik.k,
                                l: ik.l,
                                s: ik.s,
                                start: start as u32,
                                i: i as u32,
                                read: self.read as u32,
                                slot,
                            });
                            return false;
                        }
                    },
                },
                Cold::FwdEnd => {
                    self.curr.reverse(); // longest matches first
                    self.ret = self.curr[0].end();
                    std::mem::swap(&mut self.curr, &mut self.prev);
                    self.back_i = self.sx as i64 - 1;
                    if self.back_level(slot, q, occ, lanes, prefetch, sink) {
                        return false;
                    }
                    self.smem_end(opts.min_seed_len)
                }
                Cold::BackLevelEnd => {
                    if self.curr.is_empty() || self.back_i < 0 {
                        self.smem_end(opts.min_seed_len)
                    } else {
                        std::mem::swap(&mut self.curr, &mut self.prev);
                        self.back_i -= 1;
                        if self.back_level(slot, q, occ, lanes, prefetch, sink) {
                            return false;
                        }
                        self.smem_end(opts.min_seed_len)
                    }
                }
            }
        }
    }

    /// Enter an `smem1a` frame at `sx`: file a forward lane, or return
    /// [`Cold::FwdEnd`] when the run ends before its first query.
    fn smem_init<O: OccTable, P: PerfSink>(
        &mut self,
        slot: u32,
        q: &[u8],
        occ: &O,
        lanes: &mut Lanes,
        prefetch: bool,
        sink: &mut P,
    ) -> Option<Cold> {
        debug_assert!(self.sx < q.len() && q[self.sx] < 4);
        self.mem1.clear();
        self.curr.clear();
        let mut ik = set_intv(occ, q[self.sx]);
        sink.ops(8);
        let i = self.sx + 1;
        if i < q.len() && q[i] < 4 {
            if prefetch {
                prefetch_fwd(occ, &ik, sink);
            }
            lanes.fwd.push(Fwd {
                k: ik.k,
                l: ik.l,
                s: ik.s,
                min_intv: self.min_intv,
                i: i as u32,
                read: self.read as u32,
                slot,
                stat: if self.pass == Pass::Reseed {
                    RESEED
                } else {
                    SMEM_FWD
                } as u32,
            });
            None
        } else {
            ik.info = i as u64;
            self.curr.push(ik);
            Some(Cold::FwdEnd)
        }
    }

    /// Begin the backward level at `back_i`: file a backward lane and
    /// return `true`, or, when no base extends it, keep every survivor
    /// (ALU only) and return `false` — the frame is then done.
    fn back_level<O: OccTable, P: PerfSink>(
        &mut self,
        slot: u32,
        q: &[u8],
        occ: &O,
        lanes: &mut Lanes,
        prefetch: bool,
        sink: &mut P,
    ) -> bool {
        self.curr.clear();
        let i = self.back_i;
        if i >= 0 && q[i as usize] < 4 {
            if prefetch {
                prefetch_back(occ, &self.prev[0], sink);
            }
            lanes.back.push(Back {
                slot,
                j: 0,
                c: q[i as usize],
            });
            return true;
        }
        for j in 0..self.prev.len() {
            sink.ops(6);
            self.back_keep(self.prev[j]);
        }
        false
    }

    /// `smem1a` frame done: filter `mem1` into `out` and resume the
    /// pass's scan.
    fn smem_end(&mut self, min_seed_len: i32) -> Cold {
        self.mem1.reverse(); // sort by match start
        for p in &self.mem1 {
            if p.len() >= min_seed_len as usize {
                self.out.push(*p);
            }
        }
        if self.pass == Pass::Reseed {
            self.reseed_k += 1;
        } else {
            self.x = self.ret;
        }
        Cold::Scan
    }
}

/// The three lane lists, plus the lanes that left their loop this
/// rotation and await their cold advance.
#[derive(Debug, Default)]
struct Lanes {
    fwd: Vec<Fwd>,
    back: Vec<Back>,
    third: Vec<Third>,
    exits: Vec<(u32, Cold)>,
}

/// Prefetch the bucket(s) a forward extension of `ik` will read.
#[inline(always)]
fn prefetch_fwd<O: OccTable, P: PerfSink>(occ: &O, ik: &BiInterval, sink: &mut P) {
    let (r1, r2) = forward_ext_rows(ik);
    occ.prefetch_row(r1, sink);
    occ.prefetch_row(r2, sink);
}

/// Prefetch the bucket(s) a backward extension of `p` will read.
#[inline(always)]
fn prefetch_back<O: OccTable, P: PerfSink>(occ: &O, p: &BiInterval, sink: &mut P) {
    let (r1, r2) = backward_ext_rows(p);
    occ.prefetch_row(r1, sink);
    occ.prefetch_row(r2, sink);
}

/// Lockstep seeding scheduler over a slab of reads — the per-worker
/// batched seeding superstage. Lane lists and per-lane buffers are
/// pooled and reused across slabs.
#[derive(Debug, Default)]
pub struct SmemScheduler {
    slots: Vec<Slot>,
    lanes: Lanes,
    stats: SeedStats,
}

impl SmemScheduler {
    /// Fresh scheduler (slots are allocated lazily, up to the widest
    /// slab seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// The occurrence queries of every read seeded since the last call,
    /// resetting the counters.
    pub fn take_stats(&mut self) -> SeedStats {
        std::mem::take(&mut self.stats)
    }

    /// Seed every read of a slab, up to `width` reads in lockstep. One
    /// rotation issues exactly one occurrence query per lane, so the
    /// prefetch issued when a lane reaches its next query gets the other
    /// lanes' queries of latency cover.
    ///
    /// `emit(i, out)` fires once per read, in completion order, with the
    /// read's final interval list — identical to `collect_intv`'s output
    /// for any `width` (callers typically `mem::swap` the Vec out).
    #[allow(clippy::too_many_arguments)]
    pub fn seed_slab<O: OccTable, P: PerfSink>(
        &mut self,
        occ: &O,
        opts: &SmemOpts,
        queries: &[&[u8]],
        width: usize,
        prefetch: bool,
        sink: &mut P,
        mut emit: impl FnMut(usize, &mut Vec<BiInterval>),
    ) {
        let width = width.max(1).min(queries.len());
        if self.slots.len() < width {
            self.slots.resize_with(width, Slot::default);
        }
        let Self {
            slots,
            lanes,
            stats,
        } = self;
        for (s, slot) in slots[..width].iter_mut().enumerate() {
            slot.bind(s);
            lanes.exits.push((s as u32, Cold::Scan));
        }
        let mut next = width;
        let mut tally = [0u64; 4];
        loop {
            // cold: advance the lanes that changed phase, emitting
            // finished reads and binding the slab's next ones
            let mut exits = std::mem::take(&mut lanes.exits);
            for &(s, mut at) in &exits {
                let slot = &mut slots[s as usize];
                while slot.advance(s, queries[slot.read], at, occ, opts, lanes, prefetch, sink) {
                    emit(slot.read, &mut slot.out);
                    if next == queries.len() {
                        break;
                    }
                    slot.bind(next);
                    next += 1;
                    at = Cold::Scan;
                }
            }
            exits.clear();
            lanes.exits = exits;
            if lanes.fwd.is_empty() && lanes.back.is_empty() && lanes.third.is_empty() {
                break;
            }
            fwd_loop(occ, queries, slots, lanes, prefetch, &mut tally, sink);
            back_loop(occ, queries, slots, lanes, prefetch, &mut tally, sink);
            third_loop(occ, opts, queries, slots, lanes, prefetch, &mut tally, sink);
        }
        stats.reads += queries.len() as u64;
        stats.smem_fwd += tally[SMEM_FWD];
        stats.smem_back += tally[SMEM_BACK];
        stats.reseed += tally[RESEED];
        stats.third += tally[THIRD];
    }
}

/// One rotation of the forward lanes: each extends its live interval by
/// one base. A lane leaves when the run ends — the interval fell below
/// `min_intv`, or the next base is ambiguous or past the end — with
/// `curr` holding every change of interval size, exactly like `smem1a`.
fn fwd_loop<O: OccTable, P: PerfSink>(
    occ: &O,
    queries: &[&[u8]],
    slots: &mut [Slot],
    lanes: &mut Lanes,
    prefetch: bool,
    tally: &mut [u64; 4],
    sink: &mut P,
) {
    let Lanes { fwd, exits, .. } = lanes;
    let mut kept = 0;
    for n in 0..fwd.len() {
        let mut f = fwd[n];
        let q = queries[f.read as usize];
        let i = f.i as usize;
        let ik = BiInterval {
            k: f.k,
            l: f.l,
            s: f.s,
            info: i as u64,
        };
        let o = forward_ext1(occ, &ik, q[i], sink);
        tally[f.stat as usize] += 1;
        sink.ops(4);
        if o.s != f.s {
            let curr = &mut slots[f.slot as usize].curr;
            curr.push(ik);
            if o.s < f.min_intv {
                // too small to extend further: the run ends without
                // the end-of-query push
                exits.push((f.slot, Cold::FwdEnd));
                continue;
            }
        }
        let i = i + 1;
        if i < q.len() && q[i] < 4 {
            (f.k, f.l, f.s, f.i) = (o.k, o.l, o.s, i as u32);
            if prefetch {
                prefetch_fwd(occ, &o, sink);
            }
            fwd[kept] = f;
            kept += 1;
        } else {
            // an ambiguous base or the end of the query ends the run
            // with the live interval
            let mut o = o;
            o.info = i as u64;
            slots[f.slot as usize].curr.push(o);
            exits.push((f.slot, Cold::FwdEnd));
        }
    }
    fwd.truncate(kept);
}

/// One rotation of the backward lanes: each extends its slot's
/// `prev[j]` by the level's base, keeping it as an SMEM when the
/// extension falls below `min_intv`. At the end of a level whose
/// survivors go on to an unambiguous base the lane starts the next
/// level in place; it leaves when the frame's backward search ends.
fn back_loop<O: OccTable, P: PerfSink>(
    occ: &O,
    queries: &[&[u8]],
    slots: &mut [Slot],
    lanes: &mut Lanes,
    prefetch: bool,
    tally: &mut [u64; 4],
    sink: &mut P,
) {
    let Lanes { back, exits, .. } = lanes;
    let mut kept = 0;
    for n in 0..back.len() {
        let mut b = back[n];
        let slot = &mut slots[b.slot as usize];
        let p = slot.prev[b.j as usize];
        let ok = backward_ext1(occ, &p, b.c, sink);
        tally[if slot.pass == Pass::Reseed {
            RESEED
        } else {
            SMEM_BACK
        }] += 1;
        sink.ops(6);
        if ok.s < slot.min_intv {
            slot.back_keep(p);
        } else if slot.curr.last().is_none_or(|last| ok.s != last.s) {
            slot.curr.push(BiInterval { info: p.info, ..ok });
        }
        b.j += 1;
        if b.j as usize == slot.prev.len() {
            // the level is done: a survivor extended and the next base
            // is unambiguous, so the lane stays and starts the next
            // level; anything else ends the frame in the cold advance
            let q = queries[slot.read];
            let i = slot.back_i - 1;
            if slot.curr.is_empty() || i < 0 || q[i as usize] > 3 {
                exits.push((b.slot, Cold::BackLevelEnd));
                continue;
            }
            std::mem::swap(&mut slot.curr, &mut slot.prev);
            slot.curr.clear();
            slot.back_i = i;
            (b.j, b.c) = (0, q[i as usize]);
        }
        if prefetch {
            prefetch_back(occ, &slot.prev[b.j as usize], sink);
        }
        back[kept] = b;
        kept += 1;
    }
    back.truncate(kept);
}

/// One rotation of the third-round lanes (`seed_strategy1`): each
/// extends its run by one base. A lane leaves when its run yields a
/// seed of fewer than `max_mem_intv` occurrences, meets an ambiguous
/// base or reaches the end of the query.
#[allow(clippy::too_many_arguments)]
fn third_loop<O: OccTable, P: PerfSink>(
    occ: &O,
    opts: &SmemOpts,
    queries: &[&[u8]],
    slots: &mut [Slot],
    lanes: &mut Lanes,
    prefetch: bool,
    tally: &mut [u64; 4],
    sink: &mut P,
) {
    let Lanes { third, exits, .. } = lanes;
    let mut kept = 0;
    for n in 0..third.len() {
        let mut t = third[n];
        let q = queries[t.read as usize];
        let i = t.i as usize;
        let ik = BiInterval {
            k: t.k,
            l: t.l,
            s: t.s,
            info: 0,
        };
        let o = forward_ext1(occ, &ik, q[i], sink);
        tally[THIRD] += 1;
        sink.ops(4);
        let slot = &mut slots[t.slot as usize];
        if o.s < opts.max_mem_intv && (i - t.start as usize) as i64 >= opts.min_seed_len as i64 {
            if o.s > 0 {
                let info = BiInterval::pack_info(t.start as usize, i + 1);
                slot.out.push(BiInterval { info, ..o });
            }
            slot.x = i + 1;
        } else if i + 1 < q.len() && q[i + 1] < 4 {
            (t.k, t.l, t.s, t.i) = (o.k, o.l, o.s, i as u32 + 1);
            if prefetch {
                prefetch_fwd(occ, &o, sink);
            }
            third[kept] = t;
            kept += 1;
            continue;
        } else {
            // an ambiguous base restarts the scan past it
            slot.x = (i + 2).min(q.len());
        }
        exits.push((t.slot, Cold::Scan));
    }
    third.truncate(kept);
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{BuildOpts, FmIndex};
    use crate::smem::{collect_intv, SmemAux};
    use mem2_memsim::NoopSink;
    use mem2_seqio::GenomeSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn reference_and_reads(seed: u64, n_reads: usize) -> (FmIndex, Vec<Vec<u8>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let genome = GenomeSpec {
            len: 12_000,
            repeat_families: 4,
            repeat_len: 150,
            repeat_copies: 4,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("g");
        let idx = FmIndex::build(&reference, &BuildOpts::default());
        let reads = (0..n_reads)
            .map(|_| {
                let rlen = rng.random_range(30..140usize);
                let start = rng.random_range(0..reference.len() - rlen);
                let mut q: Vec<u8> = (start..start + rlen)
                    .map(|i| reference.pac.get(i))
                    .collect();
                for c in q.iter_mut() {
                    if rng.random_bool(0.04) {
                        *c = rng.random_range(0..5u8); // mutations incl. N
                    }
                }
                q
            })
            .collect();
        (idx, reads)
    }

    fn per_read_intervals(
        idx: &FmIndex,
        opts: &SmemOpts,
        reads: &[Vec<u8>],
    ) -> Vec<Vec<BiInterval>> {
        let mut aux = SmemAux::default();
        let mut sink = NoopSink;
        reads
            .iter()
            .map(|q| {
                let mut out = Vec::new();
                collect_intv(idx.opt(), opts, q, &mut out, &mut aux, false, &mut sink);
                out
            })
            .collect()
    }

    fn interleaved_intervals(
        idx: &FmIndex,
        opts: &SmemOpts,
        reads: &[Vec<u8>],
        width: usize,
        prefetch: bool,
    ) -> Vec<Vec<BiInterval>> {
        let mut sched = SmemScheduler::new();
        let mut sink = NoopSink;
        let queries: Vec<&[u8]> = reads.iter().map(|q| q.as_slice()).collect();
        let mut outs = vec![Vec::new(); reads.len()];
        sched.seed_slab(
            idx.opt(),
            opts,
            &queries,
            width,
            prefetch,
            &mut sink,
            |i, out| std::mem::swap(&mut outs[i], out),
        );
        outs
    }

    #[test]
    fn interleaving_matches_per_read_at_every_width() {
        let (idx, reads) = reference_and_reads(0xBA7C, 37);
        let opts = SmemOpts::default();
        let expected = per_read_intervals(&idx, &opts, &reads);
        for width in [1usize, 2, 3, 8, 16, 64] {
            for prefetch in [false, true] {
                let got = interleaved_intervals(&idx, &opts, &reads, width, prefetch);
                assert_eq!(got, expected, "width={width} prefetch={prefetch}");
            }
        }
    }

    #[test]
    fn third_round_disabled_still_matches() {
        let (idx, reads) = reference_and_reads(0x5EED, 12);
        let opts = SmemOpts {
            max_mem_intv: 0,
            ..SmemOpts::default()
        };
        let expected = per_read_intervals(&idx, &opts, &reads);
        let got = interleaved_intervals(&idx, &opts, &reads, 4, true);
        assert_eq!(got, expected);
    }

    #[test]
    fn degenerate_reads_complete_without_queries() {
        let (idx, _) = reference_and_reads(0xD0, 1);
        let opts = SmemOpts::default();
        // empty read, all-N read, single-base read
        let reads: Vec<Vec<u8>> = vec![vec![], vec![4; 50], vec![2]];
        let expected = per_read_intervals(&idx, &opts, &reads);
        let got = interleaved_intervals(&idx, &opts, &reads, 3, true);
        assert_eq!(got, expected);
        assert!(got[0].is_empty() && got[1].is_empty());
    }

    #[test]
    fn scheduler_pool_is_reused_across_slabs() {
        let (idx, reads) = reference_and_reads(0xF00D, 20);
        let opts = SmemOpts::default();
        let expected = per_read_intervals(&idx, &opts, &reads);
        let mut sched = SmemScheduler::new();
        let mut sink = NoopSink;
        let mut outs = vec![Vec::new(); reads.len()];
        for (slab_i, slab) in reads.chunks(7).enumerate() {
            let queries: Vec<&[u8]> = slab.iter().map(|q| q.as_slice()).collect();
            let base = slab_i * 7;
            let outs_ref = &mut outs;
            sched.seed_slab(idx.opt(), &opts, &queries, 4, true, &mut sink, |i, out| {
                std::mem::swap(&mut outs_ref[base + i], out)
            });
        }
        assert_eq!(outs, expected);
        assert_eq!(sched.slots.len(), 4, "pool sized to the widest slab");
    }

    #[test]
    fn query_counts_are_per_pass_and_width_independent() {
        use mem2_memsim::{CacheConfig, CountingSink};
        let (idx, reads) = reference_and_reads(0xC0DE, 24);
        let opts = SmemOpts::default();
        let queries: Vec<&[u8]> = reads.iter().map(|q| q.as_slice()).collect();
        let mut per_width = Vec::new();
        for width in [1usize, 5, 16] {
            let mut sched = SmemScheduler::new();
            let mut sink = CountingSink::new(CacheConfig::scaled_to(1 << 20));
            sched.seed_slab(
                idx.opt(),
                &opts,
                &queries,
                width,
                true,
                &mut sink,
                |_, _| {},
            );
            let stats = sched.take_stats();
            assert_eq!(stats.reads, reads.len() as u64);
            assert!(stats.smem_fwd > 0 && stats.smem_back > 0, "{stats:?}");
            // every query is one occ2x4 pair: one or two bucket loads
            assert!(sink.counters.loads >= stats.queries(), "{stats:?}");
            assert!(sink.counters.loads <= 2 * stats.queries(), "{stats:?}");
            assert_eq!(sched.take_stats(), SeedStats::default(), "taken");
            per_width.push(stats);
        }
        assert!(per_width.windows(2).all(|w| w[0] == w[1]), "{per_width:?}");
        // the third round only runs when enabled
        let mut sched = SmemScheduler::new();
        let no_third = SmemOpts {
            max_mem_intv: 0,
            ..SmemOpts::default()
        };
        sched.seed_slab(
            idx.opt(),
            &no_third,
            &queries,
            4,
            true,
            &mut NoopSink,
            |_, _| {},
        );
        let stats = sched.take_stats();
        assert_eq!(stats.third, 0);
        assert_eq!(stats.smem_fwd, per_width[0].smem_fwd);
        let json = stats.render_json(Duration::ZERO);
        assert!(json.contains("\"third\":0"), "{json}");
        assert!(stats.render(Duration::ZERO).contains("third round 0"));
    }

    #[test]
    fn query_counts_and_loads_are_pinned_per_width() {
        use mem2_memsim::{CacheConfig, CountingSink};
        // the queries the per-read state machine issued on this input:
        // a scheduler may reorder them, but never add or drop one
        let pinned = SeedStats {
            reads: 24,
            smem_fwd: 1970,
            smem_back: 1546,
            reseed: 1278,
            third: 1893,
        };
        let (idx, reads) = reference_and_reads(0xC0DE, 24);
        let queries: Vec<&[u8]> = reads.iter().map(|q| q.as_slice()).collect();
        for width in [1usize, 5, 16, 64] {
            for prefetch in [false, true] {
                let mut sched = SmemScheduler::new();
                let mut sink = CountingSink::new(CacheConfig::scaled_to(1 << 20));
                let opts = SmemOpts::default();
                sched.seed_slab(
                    idx.opt(),
                    &opts,
                    &queries,
                    width,
                    prefetch,
                    &mut sink,
                    |_, _| {},
                );
                let at = format!("width {width} prefetch {prefetch}");
                assert_eq!(sched.take_stats(), pinned, "{at}");
                assert_eq!(sink.counters.loads, 8881, "{at}");
            }
        }
    }

    #[test]
    fn ns_per_query_is_smem_time_over_queries() {
        let stats = SeedStats {
            reads: 2,
            smem_fwd: 300,
            smem_back: 100,
            reseed: 60,
            third: 40,
        };
        let smem = Duration::from_micros(15);
        assert_eq!(stats.ns_per_query(smem), 30.0);
        assert_eq!(SeedStats::default().ns_per_query(smem), 0.0);
        assert!(stats.render(smem).contains(", 30.0 ns/query"));
        let json = stats.render_json(smem);
        assert!(json.contains("\"ns_per_query\":30.00,"), "{json}");
    }
}
