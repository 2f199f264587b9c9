//! The `mem2 serve` wire protocol: verbs, handshake, and per-request
//! option overrides.
//!
//! Transport is the length-prefixed framing of [`mem2_seqio::frame`]
//! (1-byte type tag + little-endian `u32` length + payload). A
//! connection opens with the 5-byte client magic [`CLIENT_MAGIC`]
//! (`M2SV` + protocol version); the server answers with a [`HELLO`]
//! frame whose payload is the SAM header text. After that the client
//! drives request turns:
//!
//! ```text
//! client                                server
//! ------                                ------
//! OPTS "min_score=40\nmode=se"   →      (sticky until the next OPTS)
//! DATA <fastq bytes>             →
//! DATA <fastq bytes>             →      (any chunking, records may split)
//! END                            →      ← SAM  <record lines>
//!                                       ← SAM  <record lines>
//!                                       ← DONE "reads=N\trecords=M"
//! ```
//!
//! On admission-queue overflow the server answers `END` with a single
//! [`RETRY`] frame (payload: suggested backoff in milliseconds, decimal
//! ASCII) instead of `SAM`/`DONE` — the request was **not** accepted
//! and must be resent in full; nothing was partially aligned. [`STATS`]
//! returns a JSON snapshot of queue depth, batch occupancy and
//! per-stage latencies; [`SHUTDOWN`] asks the daemon to drain and exit
//! (the same path SIGTERM takes); [`RELOAD`] hot-swaps the serving
//! index to a new bundle (the same path SIGHUP takes). Any protocol
//! violation or alignment failure produces an [`ERR`] frame, after
//! which the server closes the connection. `DONE` payloads also carry
//! `epoch=N` — the index generation that answered the request — which
//! pre-epoch clients simply ignore (unknown `DONE` fields are skipped).

use mem2_bsw::ScoreParams;
use mem2_core::MemOpts;

/// Connection-opening magic: `M2SV` + protocol version byte.
pub const CLIENT_MAGIC: [u8; 5] = *b"M2SV\x01";

// -- client → server frame types --

/// Sticky per-connection option overrides (ASCII `key=value` lines).
pub const OPTS: u8 = 0x01;
/// A chunk of FASTQ request bytes (records may split across chunks).
pub const DATA: u8 = 0x02;
/// End of one request's data; the server aligns and responds.
pub const END: u8 = 0x03;
/// Request a stats snapshot.
pub const STATS: u8 = 0x04;
/// Ask the daemon to drain and exit (acked with [`OK`]).
pub const SHUTDOWN: u8 = 0x05;
/// Hot-swap the serving index; payload = bundle path (UTF-8). The
/// daemon loads and CRC-verifies the bundle off the serving path, then
/// atomically switches epochs — acked with [`OK`] `epoch=N`, or [`ERR`]
/// (old index stays in service) on any load/verify failure.
pub const RELOAD: u8 = 0x06;

// -- server → client frame types --

/// Connection banner: the SAM header (`@HD`/`@SQ`/`@PG`) text.
pub const HELLO: u8 = 0x10;
/// A chunk of SAM record lines, in request read order.
pub const SAM: u8 = 0x11;
/// Request complete; payload `reads=N\trecords=M`.
pub const DONE: u8 = 0x12;
/// Request rejected under backpressure; payload = suggested backoff in
/// milliseconds (decimal ASCII). Resend the whole request.
pub const RETRY: u8 = 0x13;
/// Fatal error; payload = message. The connection closes after this.
pub const ERR: u8 = 0x14;
/// JSON stats snapshot (reply to [`STATS`]).
pub const STATS_OK: u8 = 0x15;
/// Acknowledgement (reply to [`SHUTDOWN`]).
pub const OK: u8 = 0x16;

/// How a request's FASTQ payload is interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RequestMode {
    /// Single-end reads — eligible for cross-connection batching.
    #[default]
    Single,
    /// Interleaved pairs (R1,R2,R1,R2,…) — aligned through the
    /// paired-end stack, one request = its own pestat window sequence.
    Paired,
}

/// A parsed, canonicalized set of per-request option overrides.
///
/// Two requests are batched into the same alignment slab only when
/// their [`fingerprint`](Self::fingerprint) matches — reads aligned
/// together always share one exact [`MemOpts`], which is what makes a
/// request's bytes invariant to its slab-mates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptsOverride {
    /// Sorted, deduplicated `key=value` lines (the canonical form).
    canonical: Vec<(String, String)>,
    /// Payload interpretation (from the `mode` key).
    pub mode: RequestMode,
}

impl OptsOverride {
    /// Parse `key=value` lines (as carried by an [`OPTS`] frame).
    /// Unknown keys and malformed values are errors — a server must not
    /// silently ignore an option a client believes it set. A later line
    /// for the same key wins, then lines are sorted so equivalent
    /// override sets canonicalize identically.
    pub fn parse(text: &str) -> Result<OptsOverride, String> {
        let mut map: Vec<(String, String)> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed option line {line:?} (want key=value)"))?;
            let (key, value) = (key.trim().to_string(), value.trim().to_string());
            // validate by applying to a scratch copy
            let mut scratch = MemOpts::default();
            let mut mode = RequestMode::Single;
            apply_one(&mut scratch, &mut mode, &key, &value)?;
            map.retain(|(k, _)| *k != key);
            map.push((key, value));
        }
        map.sort();
        let mut mode = RequestMode::Single;
        let mut scratch = MemOpts::default();
        for (k, v) in &map {
            apply_one(&mut scratch, &mut mode, k, v)?;
        }
        Ok(OptsOverride {
            canonical: map,
            mode,
        })
    }

    /// The canonical override text: sorted `key=value` lines. Empty for
    /// a default request. Equal fingerprints ⇒ identical effective
    /// [`MemOpts`] ⇒ safe to coalesce into one slab.
    pub fn fingerprint(&self) -> String {
        self.canonical
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// True when no overrides are present (pure server defaults).
    pub fn is_default(&self) -> bool {
        self.canonical.is_empty()
    }

    /// Apply the overrides to a copy of the server's base options.
    pub fn apply(&self, base: &MemOpts) -> MemOpts {
        let mut opts = *base;
        let mut mode = RequestMode::Single;
        for (k, v) in &self.canonical {
            // parse() already validated every line
            apply_one(&mut opts, &mut mode, k, v).expect("validated override");
        }
        // ScoreParams carries a 5×5 matrix derived from match/mismatch;
        // rebuild it so field-level overrides stay coherent
        let s = &opts.score;
        opts.score = ScoreParams::new(
            s.a,
            s.b,
            s.o_del,
            s.e_del,
            s.o_ins,
            s.e_ins,
            s.zdrop,
            s.end_bonus,
        );
        opts
    }
}

/// Apply one `key=value` override. The key set is the per-request
/// surface: scoring and pairing options only — execution-shape knobs
/// (threads, slab sizes, SIMD backend, seed batching) stay global to
/// the daemon, both because they are resources shared across requests
/// and because SAM bytes are invariant to them anyway.
fn apply_one(
    opts: &mut MemOpts,
    mode: &mut RequestMode,
    key: &str,
    value: &str,
) -> Result<(), String> {
    fn int(key: &str, value: &str) -> Result<i32, String> {
        value
            .parse()
            .map_err(|_| format!("option {key} needs an integer, got {value:?}"))
    }
    match key {
        "mode" => {
            *mode = match value {
                "se" => RequestMode::Single,
                "pe" => RequestMode::Paired,
                other => return Err(format!("mode must be se|pe, got {other:?}")),
            };
        }
        "match" => opts.score.a = bounded(key, int(key, value)?, MAX_SCORE)?,
        "mismatch" => opts.score.b = bounded(key, int(key, value)?, MAX_SCORE)?,
        "o_del" => opts.score.o_del = bounded(key, int(key, value)?, MAX_PENALTY)?,
        "e_del" => opts.score.e_del = bounded(key, int(key, value)?, MAX_PENALTY)?,
        "o_ins" => opts.score.o_ins = bounded(key, int(key, value)?, MAX_PENALTY)?,
        "e_ins" => opts.score.e_ins = bounded(key, int(key, value)?, MAX_PENALTY)?,
        "zdrop" => opts.score.zdrop = bounded(key, int(key, value)?, MAX_PENALTY)?,
        "pen_clip5" => opts.pen_clip5 = int(key, value)?,
        "pen_clip3" => opts.pen_clip3 = int(key, value)?,
        "min_score" => opts.t_min_score = int(key, value)?,
        "min_seed_len" => opts.smem.min_seed_len = positive(key, int(key, value)?)?,
        "output_all" => {
            opts.output_all = match value {
                "0" | "false" => false,
                "1" | "true" => true,
                other => return Err(format!("output_all must be 0|1, got {other:?}")),
            };
        }
        "pen_unpaired" => opts.pen_unpaired = positive(key, int(key, value)?)?,
        "max_ins" => opts.max_ins = positive(key, int(key, value)?)?,
        "max_matesw" => {
            let v = int(key, value)?;
            if v < 0 {
                return Err(format!("option {key} must be >= 0, got {v}"));
            }
            opts.max_matesw = v;
        }
        "batch_pairs" => {
            let v = int(key, value)?;
            if v < 1 {
                return Err(format!("option {key} must be >= 1, got {v}"));
            }
            opts.batch_pairs = v as usize;
        }
        other => return Err(format!("unknown option {other:?}")),
    }
    Ok(())
}

fn positive(key: &str, v: i32) -> Result<i32, String> {
    if v < 1 {
        return Err(format!("option {key} must be >= 1, got {v}"));
    }
    Ok(v)
}

/// Largest match score and mismatch penalty: the scoring matrix holds
/// them as `i8`.
const MAX_SCORE: i32 = i8::MAX as i32;

/// Largest gap penalty and Z-drop. The DP kernels compute `o + e·len`
/// and `max − e·len` in `i32`; 1 000 keeps those exact for sequences up
/// to 2 Mbp, and Z-drop is compared with such differences.
const MAX_PENALTY: i32 = 1_000;

fn bounded(key: &str, v: i32, max: i32) -> Result<i32, String> {
    if !(1..=max).contains(&v) {
        return Err(format!("option {key} must be in 1..={max}, got {v}"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_parse_apply_and_canonicalize() {
        let o = OptsOverride::parse("min_score = 40\nmode=pe\nmatch=2\n\nmin_score=35").unwrap();
        assert_eq!(o.mode, RequestMode::Paired);
        // later line wins, sorted canonical form
        assert_eq!(o.fingerprint(), "match=2\nmin_score=35\nmode=pe");
        let base = MemOpts::default();
        let applied = o.apply(&base);
        assert_eq!(applied.t_min_score, 35);
        assert_eq!(applied.score.a, 2);
        // untouched fields come from the base
        assert_eq!(applied.score.b, base.score.b);
        // the derived scoring matrix follows the overridden match score
        assert_eq!(applied.score.mat[0], 2);

        // order-insensitive equivalence
        let o2 = OptsOverride::parse("mode=pe\nmin_score=35\nmatch=2").unwrap();
        assert_eq!(o.fingerprint(), o2.fingerprint());

        assert!(OptsOverride::parse("").unwrap().is_default());
    }

    #[test]
    fn bad_overrides_are_rejected() {
        assert!(OptsOverride::parse("threads=4").is_err()); // global-only knob
        assert!(OptsOverride::parse("min_score").is_err()); // no '='
        assert!(OptsOverride::parse("match=fast").is_err()); // not an int
        assert!(OptsOverride::parse("match=0").is_err()); // must be >= 1
        assert!(OptsOverride::parse("mode=circular").is_err());
        assert!(OptsOverride::parse("batch_pairs=0").is_err());
    }

    #[test]
    fn scores_and_penalties_are_bounded_by_what_the_kernels_hold() {
        // the matrix holds match and mismatch as i8
        for ok in ["match=127", "mismatch=127", "match=1"] {
            assert!(OptsOverride::parse(ok).is_ok(), "{ok}");
        }
        for (line, key) in [("match=200", "match"), ("mismatch=128", "mismatch")] {
            let err = OptsOverride::parse(line).unwrap_err();
            assert!(err.contains(key) && err.contains("1..=127"), "{err}");
        }
        // gap penalties past the 8-bit tier are fine; past the i32 bound not
        for ok in [
            "o_del=262",
            "e_del=257",
            "o_ins=1000",
            "e_ins=3",
            "zdrop=1000",
        ] {
            assert!(OptsOverride::parse(ok).is_ok(), "{ok}");
        }
        for key in ["o_del", "e_del", "o_ins", "e_ins", "zdrop"] {
            let err = OptsOverride::parse(&format!("{key}=1001")).unwrap_err();
            assert!(err.contains(key) && err.contains("1..=1000"), "{err}");
            assert!(OptsOverride::parse(&format!("{key}=0")).is_err());
            assert!(OptsOverride::parse(&format!("{key}=32767")).is_err());
        }
        // an accepted override builds the matrix without wrapping
        let applied = OptsOverride::parse("match=127\nmismatch=127")
            .unwrap()
            .apply(&MemOpts::default());
        assert_eq!(applied.score.mat[0], 127);
        assert_eq!(applied.score.mat[1], -127);
    }
}
