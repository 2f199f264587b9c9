//! Aligner options — the relevant subset of bwa's `mem_opt_t`, with the
//! same defaults (`mem_opt_init`).

use mem2_bsw::{ScoreParams, SimdChoice};
use mem2_chain::ChainOpts;
use mem2_fmindex::SmemOpts;

/// Full option set for the aligner.
#[derive(Clone, Copy, Debug)]
pub struct MemOpts {
    /// Scoring (match/mismatch/gaps/zdrop/clip penalties).
    pub score: ScoreParams,
    /// Seeding options.
    pub smem: SmemOpts,
    /// Chaining / filtering options.
    pub chain: ChainOpts,
    /// 5' clipping penalty (`-L`, default 5) — the left extension's
    /// end bonus.
    pub pen_clip5: i32,
    /// 3' clipping penalty (default 5) — the right extension's end bonus.
    pub pen_clip3: i32,
    /// Minimum score to output (`-T`, default 30).
    pub t_min_score: i32,
    /// Redundancy overlap threshold for region dedup (default 0.95).
    pub mask_level_redun: f32,
    /// MAPQ length-coefficient threshold (default 50).
    pub mapq_coef_len: f64,
    /// `ln(mapq_coef_len)`.
    pub mapq_coef_fac: f64,
    /// Reads per slab (default 512): the unit one worker claims from
    /// the resident batch, and the batch the stage-batched workflow runs
    /// each stage over. SAM bytes are invariant to this value.
    pub batch_reads: usize,
    /// Reads one worker seeds in lockstep lanes (`--seed-batch`,
    /// default 16): each pending occurrence query's
    /// software prefetch is issued one full rotation — `seed_batch − 1`
    /// other reads' queries — before its demand load, and the slab's
    /// suffix-array lookups drain through a sliding prefetch window.
    /// SAM bytes are invariant to this value; only memory-level
    /// parallelism changes.
    pub seed_batch: usize,
    /// Target bases per streamed ingestion batch (bwa's `-K` chunk size;
    /// default 10 Mbp). Bounds resident memory (at most three batches)
    /// and sets checkpoint granularity; every batch is spread over all
    /// threads, so it does not limit parallelism.
    pub batch_bases: usize,
    /// Also emit secondary alignments (bwa's `-a`; default off).
    pub output_all: bool,
    /// Penalty for an unpaired read pair (bwa's `-U`, default 17): a
    /// paired placement is preferred over the two best single-end
    /// placements when its joint score beats `best0 + best1 − pen_unpaired`.
    pub pen_unpaired: i32,
    /// Maximum insert size considered by the per-batch estimator (bwa's
    /// hard `max_ins` cap, default 10 000).
    pub max_ins: i32,
    /// Maximum mate-rescue SW attempts per read end (bwa's `-m`,
    /// default 50).
    pub max_matesw: i32,
    /// Read pairs per paired-end processing batch — the `mem_pestat`
    /// estimation window *and* the scheduling unit, so the PE SAM byte
    /// stream depends on this value only (not on `batch_bases`, thread
    /// count, or the two-file vs interleaved layout). Default 32 768
    /// (~10 Mbp at 2×150 bp).
    pub batch_pairs: usize,
    /// SIMD backend selection for the BSW engines (`--simd`, default
    /// auto: widest detected native backend, portable fallback). SAM
    /// bytes are invariant to this choice — only speed differs.
    pub simd: SimdChoice,
}

impl Default for MemOpts {
    fn default() -> Self {
        let score = ScoreParams::default();
        MemOpts {
            score,
            smem: SmemOpts::default(),
            chain: ChainOpts::default(),
            pen_clip5: 5,
            pen_clip3: 5,
            t_min_score: 30,
            mask_level_redun: 0.95,
            mapq_coef_len: 50.0,
            mapq_coef_fac: (50.0f64).ln(),
            batch_reads: 512,
            seed_batch: mem2_fmindex::DEFAULT_SEED_BATCH,
            batch_bases: mem2_seqio::DEFAULT_BATCH_BASES,
            output_all: false,
            pen_unpaired: 17,
            max_ins: 10_000,
            max_matesw: 50,
            batch_pairs: mem2_seqio::DEFAULT_BATCH_PAIRS,
            simd: SimdChoice::Auto,
        }
    }
}

impl MemOpts {
    /// bwa's `cal_max_gap`: the longest gap reachable within the scoring
    /// scheme for a flank of length `qlen`, capped at twice the band.
    pub fn cal_max_gap(&self, qlen: i32) -> i32 {
        let l_del = ((qlen as f64 * self.score.a as f64 - self.score.o_del as f64)
            / self.score.e_del as f64
            + 1.0) as i32;
        let l_ins = ((qlen as f64 * self.score.a as f64 - self.score.o_ins as f64)
            / self.score.e_ins as f64
            + 1.0) as i32;
        let l = l_del.max(l_ins).max(1);
        l.min(self.chain.w * 2)
    }

    /// Output-affecting options as `key → value` entries for the
    /// checkpoint fingerprint (`--resume` refuses to continue a run whose
    /// options drifted). Deliberately *excludes* the knobs the pipeline
    /// is byte-invariant to — `simd`, `seed_batch`, `batch_reads`,
    /// `batch_bases`, and the thread count — so a resumed
    /// run may use different hardware or batching without breaking byte
    /// identity. `batch_pairs` is *included*: it defines the PE pestat
    /// window and therefore the PE byte stream.
    pub fn fingerprint_fields(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        let mut f = |k: &str, v: String| out.push((format!("opt.{k}"), v));
        f("score.a", self.score.a.to_string());
        f("score.b", self.score.b.to_string());
        f("score.o_del", self.score.o_del.to_string());
        f("score.e_del", self.score.e_del.to_string());
        f("score.o_ins", self.score.o_ins.to_string());
        f("score.e_ins", self.score.e_ins.to_string());
        f("score.zdrop", self.score.zdrop.to_string());
        f("score.end_bonus", self.score.end_bonus.to_string());
        let mat: Vec<String> = self.score.mat.iter().map(|v| v.to_string()).collect();
        f("score.mat", mat.join(","));
        f("smem.min_seed_len", self.smem.min_seed_len.to_string());
        f("smem.split_factor", format!("{}", self.smem.split_factor));
        f("smem.split_width", self.smem.split_width.to_string());
        f("smem.max_mem_intv", self.smem.max_mem_intv.to_string());
        f("chain.w", self.chain.w.to_string());
        f("chain.max_chain_gap", self.chain.max_chain_gap.to_string());
        f("chain.max_occ", self.chain.max_occ.to_string());
        f("chain.mask_level", format!("{}", self.chain.mask_level));
        f("chain.drop_ratio", format!("{}", self.chain.drop_ratio));
        f(
            "chain.min_chain_weight",
            self.chain.min_chain_weight.to_string(),
        );
        f("chain.min_seed_len", self.chain.min_seed_len.to_string());
        f(
            "chain.max_chain_extend",
            self.chain.max_chain_extend.to_string(),
        );
        f("pen_clip5", self.pen_clip5.to_string());
        f("pen_clip3", self.pen_clip3.to_string());
        f("t_min_score", self.t_min_score.to_string());
        f("mask_level_redun", format!("{}", self.mask_level_redun));
        f("mapq_coef_len", format!("{}", self.mapq_coef_len));
        f("output_all", self.output_all.to_string());
        f("pen_unpaired", self.pen_unpaired.to_string());
        f("max_ins", self.max_ins.to_string());
        f("max_matesw", self.max_matesw.to_string());
        f("batch_pairs", self.batch_pairs.to_string());
        out
    }

    /// bwa's `infer_bw` for CIGAR generation.
    pub fn infer_bw(l1: i32, l2: i32, score: i32, a: i32, q: i32, r: i32) -> i32 {
        if l1 == l2 && l1 * a - score < (q + r - a) * 2 {
            return 0;
        }
        let w = ((l1.min(l2) as f64 * a as f64 - score as f64 - q as f64) / r as f64 + 2.0) as i32;
        w.max((l1 - l2).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_bwa() {
        let o = MemOpts::default();
        assert_eq!(o.score.a, 1);
        assert_eq!(o.score.b, 4);
        assert_eq!(o.score.o_del, 6);
        assert_eq!(o.score.zdrop, 100);
        assert_eq!(o.smem.min_seed_len, 19);
        assert_eq!(o.chain.max_occ, 500);
        assert_eq!(o.t_min_score, 30);
        assert!((o.mapq_coef_fac - 3.912).abs() < 1e-3);
    }

    #[test]
    fn cal_max_gap_caps_at_twice_band() {
        let o = MemOpts::default();
        // short flank: small gap allowance
        assert_eq!(o.cal_max_gap(10), 5); // (10*1-6)/1+1 = 5
                                          // long flank capped at 2w = 200
        assert_eq!(o.cal_max_gap(1000), 200);
        // degenerate flank still allows 1
        assert_eq!(o.cal_max_gap(0), 1);
    }

    #[test]
    fn infer_bw_examples() {
        // perfect same-length alignment needs no band
        assert_eq!(MemOpts::infer_bw(100, 100, 100, 1, 6, 1), 0);
        // length difference forces at least that band
        assert!(MemOpts::infer_bw(100, 110, 80, 1, 6, 1) >= 10);
    }
}
