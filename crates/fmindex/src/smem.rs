//! SMEM search — a faithful port of bwa's `bwt_smem1a`,
//! `bwt_seed_strategy1` and `mem_collect_intv` (Algorithm 4 of the paper,
//! plus the re-seeding and third-round seeding passes BWA-MEM layers on
//! top), generic over the occurrence-table layout.
//!
//! The `prefetch` flag implements §4.3: whenever a new bi-interval is
//! produced that will be used for a future occurrence query, the bucket(s)
//! it will touch are software-prefetched. Within a single read those
//! prefetches sit on the query's own dependency chain and hide little —
//! the batched pipeline instead runs this algorithm in the lockstep
//! lanes of [`crate::smem_batch`], which advance many reads one query
//! per rotation so each prefetch gets a full rotation of independent
//! work before its demand load. This module remains the reference
//! implementation the lanes are pinned against (and the classic
//! oracle's path).

use mem2_memsim::PerfSink;

use crate::ext::{backward_ext4, forward_ext4, set_intv};
use crate::interval::BiInterval;
use crate::occ::OccTable;

/// Reusable scratch buffers (the paper's "allocate once, reuse across
/// batches" discipline — one `SmemAux` lives per worker thread).
#[derive(Clone, Debug, Default)]
pub struct SmemAux {
    /// Per-call SMEM output of `smem1a`.
    pub mem1: Vec<BiInterval>,
    /// Swap buffers for the backward pass.
    pub swap: SwapBufs,
}

/// The `curr`/`prev` interval buffers of `bwt_smem1a`.
#[derive(Clone, Debug, Default)]
pub struct SwapBufs {
    curr: Vec<BiInterval>,
    prev: Vec<BiInterval>,
}

/// Seeding parameters (bwa-mem defaults).
#[derive(Clone, Copy, Debug)]
pub struct SmemOpts {
    /// Minimum seed length (`-k`, default 19).
    pub min_seed_len: i32,
    /// Split factor for re-seeding (default 1.5).
    pub split_factor: f64,
    /// Maximum occurrence count for re-seeding (default 10).
    pub split_width: i64,
    /// Third-round seeding occurrence cap (`max_mem_intv`, default 20;
    /// 0 disables the pass).
    pub max_mem_intv: i64,
}

impl Default for SmemOpts {
    fn default() -> Self {
        SmemOpts {
            min_seed_len: 19,
            split_factor: 1.5,
            split_width: 10,
            max_mem_intv: 20,
        }
    }
}

impl SmemOpts {
    /// bwa's split length: `(int)(min_seed_len * split_factor + .499)`.
    pub fn split_len(&self) -> i64 {
        (self.min_seed_len as f64 * self.split_factor + 0.499) as i64
    }
}

/// Find all SMEMs overlapping query position `x` (bwa's `bwt_smem1a`).
///
/// `min_intv` is the minimum interval size to continue extension (pass 1
/// uses 1; re-seeding uses `s+1` of the parent SMEM). `max_intv` is the
/// "good enough interval" cutoff of the never-used third-round variant
/// (0 in every caller, kept for fidelity — including bwa's use of the
/// *stale* forward-loop `ik` in the backward pass).
///
/// Returns the next query position to seed from (end of the longest
/// forward match) and fills `mem` with the SMEMs sorted by start.
#[allow(clippy::too_many_arguments)]
pub fn smem1a<O: OccTable, P: PerfSink>(
    occ: &O,
    query: &[u8],
    x: usize,
    min_intv: i64,
    max_intv: i64,
    mem: &mut Vec<BiInterval>,
    bufs: &mut SwapBufs,
    prefetch: bool,
    sink: &mut P,
) -> usize {
    let len = query.len();
    mem.clear();
    if x >= len || query[x] > 3 {
        return x + 1;
    }
    let min_intv = min_intv.max(1);
    let mut ik = set_intv(occ, query[x]);
    ik.info = (x as u64) + 1;
    sink.ops(8);

    // ---- forward search ----
    let curr = &mut bufs.curr;
    let prev = &mut bufs.prev;
    curr.clear();
    let mut i = x + 1;
    while i < len {
        if ik.s < max_intv {
            // an interval small enough (third-round variant only)
            curr.push(ik);
            break;
        } else if query[i] < 4 {
            let ok = forward_ext4(occ, &ik, sink);
            let o = ok[query[i] as usize];
            sink.ops(4);
            if o.s != ik.s {
                // change of the interval size
                curr.push(ik);
                if o.s < min_intv {
                    break; // too small to be extended further
                }
            }
            ik = o;
            ik.info = (i as u64) + 1;
            if prefetch {
                // the next forward extension (or a future backward
                // extension seeded from Curr) reads occ at l-1 / l+s-1
                // of the swapped interval
                let (r1, r2) = crate::ext::forward_ext_rows(&ik);
                occ.prefetch_row(r1, sink);
                occ.prefetch_row(r2, sink);
            }
        } else {
            // ambiguous base: always terminate extension
            curr.push(ik);
            break;
        }
        i += 1;
    }
    if i == len {
        curr.push(ik); // the last interval if we reached the end
    }
    curr.reverse(); // longest matches (smallest intervals) first
    let ret = (curr[0].info & 0xFFFF_FFFF) as usize;
    std::mem::swap(curr, prev);

    // ---- backward search ----
    let mut i = x as i64 - 1;
    loop {
        let c: i32 = if i < 0 {
            -1
        } else if query[i as usize] < 4 {
            query[i as usize] as i32
        } else {
            -1
        };
        curr.clear();
        for j in 0..prev.len() {
            let p = prev[j];
            // bwa quirk preserved: the max_intv test uses the *stale* ik
            // from the forward loop (later overwritten below); with
            // max_intv == 0 (every real caller) both tests are inert.
            let ok = if c >= 0 && ik.s >= max_intv {
                Some(backward_ext4(occ, &p, sink)[c as usize])
            } else {
                None
            };
            sink.ops(6);
            if c < 0 || ik.s < max_intv || ok.expect("extension computed").s < min_intv {
                // keep the hit: reached the beginning, an ambiguous base,
                // or the interval became too small
                if curr.is_empty()
                    && (mem.is_empty()
                        || ((i + 1) as u64) < (mem.last().expect("nonempty").info >> 32))
                {
                    ik = p;
                    ik.info |= ((i + 1) as u64) << 32;
                    mem.push(ik);
                }
                // otherwise the match is contained in a longer match
            } else {
                let mut o = ok.expect("extension computed");
                if curr.is_empty() || o.s != curr.last().expect("nonempty").s {
                    o.info = p.info;
                    curr.push(o);
                    if prefetch {
                        // o feeds a future backward extension reading
                        // occ at rows k-1 and k+s-1
                        let (r1, r2) = crate::ext::backward_ext_rows(&o);
                        occ.prefetch_row(r1, sink);
                        occ.prefetch_row(r2, sink);
                    }
                }
            }
        }
        if curr.is_empty() {
            break;
        }
        std::mem::swap(curr, prev);
        if i < 0 {
            break;
        }
        i -= 1;
    }
    mem.reverse(); // sort by the start of the match
    ret
}

/// Third-round forward-only seeding (bwa's `bwt_seed_strategy1`): find one
/// length-≥`min_len` match with fewer than `max_intv` occurrences starting
/// at `x`. Returns the next start position and the seed, if any.
pub fn seed_strategy1<O: OccTable, P: PerfSink>(
    occ: &O,
    query: &[u8],
    x: usize,
    min_len: i64,
    max_intv: i64,
    sink: &mut P,
) -> (usize, Option<BiInterval>) {
    let len = query.len();
    if x >= len || query[x] > 3 {
        return (x + 1, None);
    }
    let mut ik = set_intv(occ, query[x]);
    sink.ops(8);
    for i in x + 1..len {
        if query[i] < 4 {
            let o = forward_ext4(occ, &ik, sink)[query[i] as usize];
            sink.ops(4);
            if o.s < max_intv && (i - x) as i64 >= min_len {
                if o.s > 0 {
                    let mut m = o;
                    m.info = BiInterval::pack_info(x, i + 1);
                    return (i + 1, Some(m));
                }
                return (i + 1, None);
            }
            ik = o;
        } else {
            return (i + 1, None);
        }
    }
    (len, None)
}

/// Full seeding pipeline (bwa's `mem_collect_intv`): SMEM pass,
/// re-seeding pass over long low-occurrence SMEMs, third-round pass,
/// then sort by `info`.
pub fn collect_intv<O: OccTable, P: PerfSink>(
    occ: &O,
    opts: &SmemOpts,
    query: &[u8],
    out: &mut Vec<BiInterval>,
    aux: &mut SmemAux,
    prefetch: bool,
    sink: &mut P,
) {
    out.clear();
    let len = query.len();
    let split_len = opts.split_len();
    let SmemAux { mem1, swap } = aux;

    // pass 1: all SMEMs
    let mut x = 0usize;
    while x < len {
        if query[x] < 4 {
            x = smem1a(occ, query, x, 1, 0, mem1, swap, prefetch, sink);
            for p in mem1.iter() {
                if p.len() >= opts.min_seed_len as usize {
                    out.push(*p);
                }
            }
        } else {
            x += 1;
        }
    }

    // pass 2: re-seed inside long, low-occurrence SMEMs from the middle
    let old_n = out.len();
    for k in 0..old_n {
        let p = out[k];
        let (start, end) = (p.start(), p.end());
        if ((end - start) as i64) < split_len || p.s > opts.split_width {
            continue;
        }
        smem1a(
            occ,
            query,
            (start + end) >> 1,
            p.s + 1,
            0,
            mem1,
            swap,
            prefetch,
            sink,
        );
        for q in mem1.iter() {
            if q.len() >= opts.min_seed_len as usize {
                out.push(*q);
            }
        }
    }

    // pass 3: LAST-like forward-only seeding
    if opts.max_mem_intv > 0 {
        let mut x = 0usize;
        while x < len {
            if query[x] < 4 {
                let (nx, m) = seed_strategy1(
                    occ,
                    query,
                    x,
                    opts.min_seed_len as i64,
                    opts.max_mem_intv,
                    sink,
                );
                x = nx;
                if let Some(m) = m {
                    out.push(m);
                }
            } else {
                x += 1;
            }
        }
    }

    out.sort_by_key(|p| p.info);
}
