//! Interleaved batched seeding — the latency-hiding superstage.
//!
//! [`smem::collect_intv`](crate::smem::collect_intv) walks one read's
//! FM-index state machine to completion: every occurrence query depends
//! on the previous one, so the software prefetch it issues (§4.3) lands
//! one serially-dependent step before its use and hides nothing — the
//! core still eats the full cache/DRAM round trip.
//!
//! This module reifies that implicit control flow into an explicit,
//! resumable [`SeedTask`] and advances a slab of `W` independent reads
//! **round-robin** ([`SmemScheduler`]): one step executes exactly one
//! occurrence query, then parks the machine at its *next* query point
//! with that bucket's prefetch already issued. By the time the rotation
//! returns — `W − 1` other reads' queries later — the line has landed,
//! so the demand load hits cache. This is bwa-mem2's batched-seeding
//! discipline: keep the memory-bound kernel saturated with independent
//! work between prefetch issue and use.
//!
//! Fidelity contract: for every read, the interval list handed to
//! `emit` is **identical** (same values, same order) to what
//! `collect_intv` produces — pinned by unit tests here and by
//! `tests/proptest_smem_batch.rs`. The machine implements the
//! `max_intv == 0` specialization of `bwt_smem1a` (the only form
//! `collect_intv` invokes) plus the full `bwt_seed_strategy1` third
//! round.

use mem2_memsim::PerfSink;

use crate::ext::{backward_ext4, backward_ext_rows, forward_ext4, forward_ext_rows, set_intv};
use crate::interval::BiInterval;
use crate::occ::OccTable;
use crate::smem::SmemOpts;

/// Default slab width: how many reads' state machines one worker
/// interleaves. 16 rotations of ~2 cache-line touches each put several
/// hundred cycles between a prefetch and its demand load — enough to
/// cover LLC and DRAM latency without overflowing the L1 with slab
/// state.
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

    /// Count one seeded read's queries: SMEM forward, SMEM backward,
    /// re-seed, third round.
    pub fn add_read(&mut self, queries: [u32; 4]) {
        self.reads += 1;
        self.smem_fwd += queries[0] as u64;
        self.smem_back += queries[1] as u64;
        self.reseed += queries[2] as u64;
        self.third += queries[3] as u64;
    }

    /// Add another worker's counters.
    pub fn merge(&mut self, other: &SeedStats) {
        self.reads += other.reads;
        self.smem_fwd += other.smem_fwd;
        self.smem_back += other.smem_back;
        self.reseed += other.reseed;
        self.third += other.third;
    }

    /// One-line text form for the `--profile` report.
    pub fn render(&self) -> String {
        format!(
            "occ queries {} over {} reads = {:.1} queries/read \
             (SMEM forward {}, SMEM backward {}, re-seed {}, third round {})",
            self.queries(),
            self.reads,
            self.queries_per_read(),
            self.smem_fwd,
            self.smem_back,
            self.reseed,
            self.third,
        )
    }

    /// JSON object form for `--profile=json`.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"reads\":{},\"queries\":{},\"queries_per_read\":{:.2},\"smem_fwd\":{},\
             \"smem_back\":{},\"reseed\":{},\"third\":{}}}",
            self.reads,
            self.queries(),
            self.queries_per_read(),
            self.smem_fwd,
            self.smem_back,
            self.reseed,
            self.third,
        )
    }
}

/// Micro-state of a [`SeedTask`] — the explicit program counter of
/// `collect_intv`. Query-point states (`FwdQuery`, `BackQuery`,
/// `StratQuery`) are where the machine parks between steps, with the
/// pending query's occurrence bucket(s) already prefetched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum St {
    /// Pass 1: scanning for the next seeding start at `x`.
    #[default]
    P1Scan,
    /// `smem1a` frame entry (`set_intv`, enter the forward loop).
    SmemInit,
    /// Pending forward extension of `ik` consuming `query[fwd_i]`.
    FwdQuery,
    /// Forward loop done: finalize `curr`, compute `ret`, swap.
    FwdEnd,
    /// Begin the backward level at query position `back_i`.
    BackLevel,
    /// Pending backward extension of `prev[back_j]` by base `back_c`.
    BackQuery,
    /// Backward level exhausted: swap buffers, descend or finish.
    BackLevelEnd,
    /// `smem1a` frame done: filter `mem1` into `out`, resume caller.
    SmemEnd,
    /// Pass 2: examining re-seed candidate `out[reseed_k]`.
    P2Scan,
    /// Pass 3: scanning for the next forward-only seeding start at `x`.
    P3Scan,
    /// Pending forward extension inside `seed_strategy1` at `strat_i`.
    StratQuery,
    /// All passes done: sort `out`, park in `Done`.
    Finish,
    /// Terminal state; `step` keeps returning `true`.
    Done,
}

/// One read's resumable seeding state machine: the whole of
/// `collect_intv` (SMEM pass, re-seeding pass, third-round pass, final
/// sort) flattened into stepwise form. Buffers are retained across
/// [`reset`](SeedTask::reset), so a pooled task allocates only during
/// its first read (the paper's reuse-across-batches discipline).
#[derive(Clone, Debug, Default)]
pub struct SeedTask {
    /// Accumulated intervals — `collect_intv`'s `out`, sorted by `info`
    /// once the machine reaches `Done`.
    pub out: Vec<BiInterval>,
    /// Per-frame SMEM output (`smem1a`'s `mem`).
    mem1: Vec<BiInterval>,
    curr: Vec<BiInterval>,
    prev: Vec<BiInterval>,
    st: St,
    /// Scan cursor for passes 1 and 3.
    x: usize,
    /// Pass-2 candidate index and its fixed upper bound.
    reseed_k: usize,
    old_n: usize,
    /// Does the live `smem1a` frame belong to pass 2 (else pass 1)?
    from_reseed: bool,
    /// `smem1a` frame: start position, minimum interval, live interval.
    sx: usize,
    min_intv: i64,
    ik: BiInterval,
    /// Forward-loop cursor.
    fwd_i: usize,
    /// `smem1a`'s return value (end of the longest forward match).
    ret: usize,
    /// Backward-loop cursors and the level's extension base.
    back_i: i64,
    back_j: usize,
    back_c: u8,
    /// `seed_strategy1` cursor.
    strat_i: usize,
    /// This read's occurrence queries so far, indexed like
    /// [`SeedStats::add_read`]'s argument.
    queries: [u32; 4],
}

impl SeedTask {
    /// Rewind to the start of pass 1, keeping buffer capacity.
    pub fn reset(&mut self) {
        self.out.clear();
        self.mem1.clear();
        self.curr.clear();
        self.prev.clear();
        self.st = St::P1Scan;
        self.x = 0;
        self.queries = [0; 4];
    }

    /// Is the machine in its terminal state?
    pub fn is_done(&self) -> bool {
        self.st == St::Done
    }

    /// Prefetch the occurrence bucket(s) the pending query will touch.
    /// Forward extensions read the swapped interval's rows
    /// (`l − 1`, `l + s − 1`); backward extensions read `k − 1`,
    /// `k + s − 1` — see `backward_ext4`.
    fn prefetch_pending<O: OccTable, P: PerfSink>(&self, occ: &O, sink: &mut P) {
        match self.st {
            St::FwdQuery | St::StratQuery => {
                let (r1, r2) = forward_ext_rows(&self.ik);
                occ.prefetch_row(r1, sink);
                occ.prefetch_row(r2, sink);
            }
            St::BackQuery => {
                let (r1, r2) = backward_ext_rows(&self.prev[self.back_j]);
                occ.prefetch_row(r1, sink);
                occ.prefetch_row(r2, sink);
            }
            _ => {}
        }
    }

    /// Park at the next forward-loop iteration, or push the terminal
    /// interval and leave the loop (`fwd_i` must already be advanced).
    /// Both loop exits here — ambiguous base and end of query — push
    /// the live interval, exactly like `smem1a`.
    fn fwd_advance(&mut self, query: &[u8]) {
        if self.fwd_i < query.len() && query[self.fwd_i] < 4 {
            self.st = St::FwdQuery;
        } else {
            self.curr.push(self.ik);
            self.st = St::FwdEnd;
        }
    }

    /// `smem1a`'s backward keep-branch: record `prev[back_j]` as an SMEM
    /// unless a longer survivor exists at this level (`curr` non-empty)
    /// or it is contained in the previously reported match.
    fn back_keep(&mut self, p: BiInterval) {
        let contained = match self.mem1.last() {
            Some(last) => ((self.back_i + 1) as u64) >= (last.info >> 32),
            None => false,
        };
        if self.curr.is_empty() && !contained {
            self.ik = p;
            self.ik.info |= ((self.back_i + 1) as u64) << 32;
            self.mem1.push(self.ik);
        }
    }

    /// Park at the next `seed_strategy1` iteration, or fall back to the
    /// pass-3 scan (`strat_i` must already be advanced). An ambiguous
    /// base aborts the attempt and restarts the scan just past it.
    fn strat_advance(&mut self, query: &[u8]) {
        if self.strat_i < query.len() {
            if query[self.strat_i] < 4 {
                self.st = St::StratQuery;
            } else {
                self.x = self.strat_i + 1;
                self.st = St::P3Scan;
            }
        } else {
            self.x = query.len();
            self.st = St::P3Scan;
        }
    }

    /// Advance the machine: execute the pending occurrence query (if
    /// any), then run the read's control flow forward to its next query
    /// point, prefetch that query's bucket(s), and yield. Returns `true`
    /// when the read's seeding is complete (`out` is final).
    pub fn step<O: OccTable, P: PerfSink>(
        &mut self,
        occ: &O,
        query: &[u8],
        opts: &SmemOpts,
        prefetch: bool,
        sink: &mut P,
    ) -> bool {
        let len = query.len();
        let mut did_query = false;
        loop {
            match self.st {
                St::P1Scan => {
                    if self.x >= len {
                        self.old_n = self.out.len();
                        self.reseed_k = 0;
                        self.st = St::P2Scan;
                    } else if query[self.x] < 4 {
                        self.from_reseed = false;
                        self.min_intv = 1;
                        self.sx = self.x;
                        self.st = St::SmemInit;
                    } else {
                        self.x += 1;
                    }
                }
                St::SmemInit => {
                    debug_assert!(self.sx < len && query[self.sx] < 4);
                    self.mem1.clear();
                    self.curr.clear();
                    self.ik = set_intv(occ, query[self.sx]);
                    self.ik.info = self.sx as u64 + 1;
                    sink.ops(8);
                    self.fwd_i = self.sx + 1;
                    self.fwd_advance(query);
                }
                St::FwdQuery => {
                    if did_query {
                        if prefetch {
                            self.prefetch_pending(occ, sink);
                        }
                        return false;
                    }
                    let o = forward_ext4(occ, &self.ik, sink)[query[self.fwd_i] as usize];
                    did_query = true;
                    self.queries[2 * self.from_reseed as usize] += 1;
                    sink.ops(4);
                    if o.s != self.ik.s {
                        self.curr.push(self.ik);
                        if o.s < self.min_intv {
                            // too small to extend further: leave the
                            // forward loop without the end-of-query push
                            self.st = St::FwdEnd;
                            continue;
                        }
                    }
                    self.ik = o;
                    self.ik.info = self.fwd_i as u64 + 1;
                    self.fwd_i += 1;
                    self.fwd_advance(query);
                }
                St::FwdEnd => {
                    self.curr.reverse(); // longest matches first
                    self.ret = (self.curr[0].info & 0xFFFF_FFFF) as usize;
                    std::mem::swap(&mut self.curr, &mut self.prev);
                    self.back_i = self.sx as i64 - 1;
                    self.st = St::BackLevel;
                }
                St::BackLevel => {
                    let c: i32 = if self.back_i >= 0 && query[self.back_i as usize] < 4 {
                        query[self.back_i as usize] as i32
                    } else {
                        -1
                    };
                    self.curr.clear();
                    self.back_j = 0;
                    if c >= 0 {
                        self.back_c = c as u8;
                        self.st = St::BackQuery;
                    } else {
                        // no extension possible: every surviving interval
                        // takes the keep branch (ALU only), and the empty
                        // `curr` ends the backward pass
                        for j in 0..self.prev.len() {
                            let p = self.prev[j];
                            sink.ops(6);
                            self.back_keep(p);
                        }
                        self.st = St::SmemEnd;
                    }
                }
                St::BackQuery => {
                    if did_query {
                        if prefetch {
                            self.prefetch_pending(occ, sink);
                        }
                        return false;
                    }
                    let p = self.prev[self.back_j];
                    let ok = backward_ext4(occ, &p, sink)[self.back_c as usize];
                    did_query = true;
                    self.queries[1 + self.from_reseed as usize] += 1;
                    sink.ops(6);
                    if ok.s < self.min_intv {
                        self.back_keep(p);
                    } else {
                        let keep = match self.curr.last() {
                            Some(last) => ok.s != last.s,
                            None => true,
                        };
                        if keep {
                            let mut o = ok;
                            o.info = p.info;
                            self.curr.push(o);
                        }
                    }
                    self.back_j += 1;
                    if self.back_j >= self.prev.len() {
                        self.st = St::BackLevelEnd;
                    }
                }
                St::BackLevelEnd => {
                    if self.curr.is_empty() {
                        self.st = St::SmemEnd;
                    } else {
                        std::mem::swap(&mut self.curr, &mut self.prev);
                        if self.back_i < 0 {
                            self.st = St::SmemEnd;
                        } else {
                            self.back_i -= 1;
                            self.st = St::BackLevel;
                        }
                    }
                }
                St::SmemEnd => {
                    self.mem1.reverse(); // sort by match start
                    for p in &self.mem1 {
                        if p.len() >= opts.min_seed_len as usize {
                            self.out.push(*p);
                        }
                    }
                    if self.from_reseed {
                        self.reseed_k += 1;
                        self.st = St::P2Scan;
                    } else {
                        self.x = self.ret;
                        self.st = St::P1Scan;
                    }
                }
                St::P2Scan => {
                    if self.reseed_k >= self.old_n {
                        if opts.max_mem_intv > 0 {
                            self.x = 0;
                            self.st = St::P3Scan;
                        } else {
                            self.st = St::Finish;
                        }
                    } else {
                        let p = self.out[self.reseed_k];
                        let (start, end) = (p.start(), p.end());
                        if ((end - start) as i64) < opts.split_len() || p.s > opts.split_width {
                            self.reseed_k += 1;
                        } else {
                            self.from_reseed = true;
                            self.min_intv = p.s + 1;
                            self.sx = (start + end) >> 1;
                            self.st = St::SmemInit;
                        }
                    }
                }
                St::P3Scan => {
                    if self.x >= len {
                        self.st = St::Finish;
                    } else if query[self.x] < 4 {
                        self.sx = self.x;
                        self.ik = set_intv(occ, query[self.sx]);
                        sink.ops(8);
                        self.strat_i = self.sx + 1;
                        self.strat_advance(query);
                    } else {
                        self.x += 1;
                    }
                }
                St::StratQuery => {
                    if did_query {
                        if prefetch {
                            self.prefetch_pending(occ, sink);
                        }
                        return false;
                    }
                    let o = forward_ext4(occ, &self.ik, sink)[query[self.strat_i] as usize];
                    did_query = true;
                    self.queries[3] += 1;
                    sink.ops(4);
                    if o.s < opts.max_mem_intv
                        && (self.strat_i - self.sx) as i64 >= opts.min_seed_len as i64
                    {
                        if o.s > 0 {
                            let mut m = o;
                            m.info = BiInterval::pack_info(self.sx, self.strat_i + 1);
                            self.out.push(m);
                        }
                        self.x = self.strat_i + 1;
                        self.st = St::P3Scan;
                    } else {
                        self.ik = o;
                        self.strat_i += 1;
                        self.strat_advance(query);
                    }
                }
                St::Finish => {
                    self.out.sort_by_key(|p| p.info);
                    self.st = St::Done;
                    return true;
                }
                St::Done => return true,
            }
        }
    }
}

/// Round-robin scheduler over a slab of reads' [`SeedTask`]s — the
/// per-worker interleaved seeding superstage. Tasks are pooled and
/// reused across slabs.
#[derive(Debug, Default)]
pub struct SmemScheduler {
    tasks: Vec<SeedTask>,
    stats: SeedStats,
}

impl SmemScheduler {
    /// Fresh scheduler (tasks are allocated lazily, up to the widest
    /// slab seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// The occurrence queries of every read seeded since the last call,
    /// resetting the counters.
    pub fn take_stats(&mut self) -> SeedStats {
        std::mem::take(&mut self.stats)
    }

    /// Seed every read of a slab, interleaving up to `width` state
    /// machines. One rotation advances each active read by exactly one
    /// occurrence query, so the prefetch issued when a read parks at a
    /// query point gets `width − 1` other queries of latency cover.
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
        const IDLE: usize = usize::MAX;
        let width = width.max(1).min(queries.len());
        while self.tasks.len() < width {
            self.tasks.push(SeedTask::default());
        }
        // bind the first `width` reads to slots; refill on completion
        let mut slot_read: Vec<usize> = (0..width).collect();
        for task in &mut self.tasks[..width] {
            task.reset();
        }
        let mut next = width;
        let mut active = slot_read.len();
        while active > 0 {
            for s in 0..slot_read.len() {
                let r = slot_read[s];
                if r == IDLE {
                    continue;
                }
                let task = &mut self.tasks[s];
                if task.step(occ, queries[r], opts, prefetch, sink) {
                    self.stats.add_read(task.queries);
                    emit(r, &mut task.out);
                    if next < queries.len() {
                        task.reset();
                        slot_read[s] = next;
                        next += 1;
                    } else {
                        slot_read[s] = IDLE;
                        active -= 1;
                    }
                }
            }
        }
    }
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
        assert_eq!(sched.tasks.len(), 4, "pool sized to the widest slab");
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
        let json = stats.render_json();
        assert!(json.contains("\"third\":0"), "{json}");
        assert!(stats.render().contains("third round 0"));
    }
}
