//! Benchmark environment: reference, dual-layout index, scaled datasets.

use mem2_core::{Aligner, MemOpts};
use mem2_fmindex::{BuildOpts, FmIndex};
use mem2_seqio::{DatasetPreset, FastqRecord, GenomeSpec, ReadSim, Reference};

/// Scale knobs read from the environment.
#[derive(Clone, Copy, Debug)]
pub struct EnvConfig {
    /// Synthetic genome length in megabases.
    pub genome_mb: f64,
    /// Divisor on the paper's per-dataset read counts.
    pub read_scale: usize,
}

impl EnvConfig {
    /// Read `MEM2_GENOME_MB` / `MEM2_READ_SCALE` with defaults (4 MB, 200).
    pub fn from_env() -> Self {
        let genome_mb = std::env::var("MEM2_GENOME_MB")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4.0);
        let read_scale = std::env::var("MEM2_READ_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200);
        EnvConfig {
            genome_mb,
            read_scale,
        }
    }

    /// Genome length in bases.
    pub fn genome_len(&self) -> usize {
        (self.genome_mb * 1e6) as usize
    }
}

/// A fully prepared benchmark environment.
pub struct BenchEnv {
    /// Scale configuration used.
    pub cfg: EnvConfig,
    /// The synthetic reference (hg38-half stand-in, DESIGN.md §5).
    pub reference: Reference,
    /// Dual-layout index (original + optimized components).
    pub index: FmIndex,
    /// Aligner options (bwa defaults).
    pub opts: MemOpts,
}

impl BenchEnv {
    /// Build the environment for the given dataset label's genome seed.
    pub fn build(cfg: EnvConfig) -> BenchEnv {
        let genome = GenomeSpec {
            len: cfg.genome_len(),
            seed: 0xD5EA_0001,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("chrB");
        let index = FmIndex::build(&reference, &BuildOpts::default());
        BenchEnv {
            cfg,
            reference,
            index,
            opts: MemOpts::default(),
        }
    }

    /// An aligner over a copy of the dual-layout index: it serves both
    /// the batched pipeline and the `mem2_core::classic` oracle.
    pub fn aligner(&self) -> Aligner {
        Aligner {
            opts: self.opts,
            index: self.index.clone(),
            reference: self.reference.clone(),
        }
    }

    /// Reads for a paper dataset (D1..D5), scaled by `read_scale`.
    pub fn reads(&self, label: &str) -> Vec<FastqRecord> {
        let preset = DatasetPreset::new(label, self.cfg.genome_len(), self.cfg.read_scale)
            .unwrap_or_else(|| panic!("unknown dataset {label}"));
        ReadSim::new(&self.reference, preset.reads)
            .generate()
            .into_iter()
            .map(|s| s.record)
            .collect()
    }

    /// Reads for a dataset with an explicit read-count override.
    pub fn reads_n(&self, label: &str, n: usize) -> Vec<FastqRecord> {
        let preset = DatasetPreset::new(label, self.cfg.genome_len(), 1)
            .unwrap_or_else(|| panic!("unknown dataset {label}"));
        let mut spec = preset.reads;
        spec.n_reads = n;
        ReadSim::new(&self.reference, spec)
            .generate()
            .into_iter()
            .map(|s| s.record)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builds_and_produces_reads() {
        let cfg = EnvConfig {
            genome_mb: 0.2,
            read_scale: 5000,
        };
        let env = BenchEnv::build(cfg);
        assert_eq!(env.reference.len(), 200_000);
        let reads = env.reads("D1");
        assert_eq!(reads.len(), 100); // 500k / 5000
        assert_eq!(reads[0].seq.len(), 151);
        let reads = env.reads_n("D3", 7);
        assert_eq!(reads.len(), 7);
        assert_eq!(reads[0].seq.len(), 76);
    }
}
