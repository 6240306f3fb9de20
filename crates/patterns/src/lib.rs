//! # glsc-patterns — gather/scatter access patterns as data
//!
//! The seven RMS kernels hard-code their access patterns; this crate
//! makes patterns **declarative**, in the spirit of Spatter (Lavin et
//! al.): a [`PatternSpec`] is a small value describing how a workload's
//! atomic-update indices are generated, parsed from a compact text form,
//! so the same spec can come from a CLI flag, a jobspec file, or a
//! `glsc-serve` protocol frame (which carries the text). The
//! kernel builder in `glsc-kernels` compiles any spec into Base and GLSC
//! programs; this crate owns only the *data* side — taxonomy, grammar,
//! bounds, and deterministic index generation.
//!
//! ## Spec grammar
//!
//! ```text
//! <spec>    := <kind> [ '*' <iters> ] [ '@' <seed> ] [ '!' <update> ] [ '+r' <reads> ]
//! <kind>    := "stride:" <stride> [ 'x' <len> ]
//!            | "mostly:" <stride> 'x' <len> "/p=" <prob>
//!            | "block:"  <block> '/' <blocks>
//!            | "conflict:p=" <prob> [ 'x' <len> ]
//!            | "trace:"  <len> ':' <idx> ( ',' <idx> )*
//! <update>  := "inc" | "add" <k>
//! <prob>    := decimal in [0, 1], at most 3 fraction digits
//! ```
//!
//! Examples: `stride:4x1024`, `block:8/64`, `conflict:p=0.25`,
//! `mostly:1x512/p=0.05*100@7`, `trace:64:0,16,32,48*10!add2+r1`.
//!
//! * `stride` — uniform stride over a `len`-word table; lane `l` of the
//!   `p`-th vector element overall touches `(p * stride) mod len`.
//! * `mostly` — the stride pattern, but each element is replaced by a
//!   uniform random index with probability `p` (MOSTLY-STRIDED with
//!   outliers, the irregular-but-mostly-regular middle ground).
//! * `block` — each vector touches one randomly chosen tile of `block`
//!   consecutive words out of `blocks` tiles (`len = block * blocks`).
//! * `conflict` — seeded-random indices with controllable intra-vector
//!   conflict density: each lane repeats its left neighbour's index with
//!   probability `p`, otherwise draws fresh. `p=0` is scenario-C-like
//!   scatter, `p=1` is the paper's worst-case scenario D (all lanes
//!   alias, GLSC resolves them serially).
//! * `trace` — an explicit index list over a `len`-word table, split
//!   evenly across threads (element `p` of the flat all-threads stream
//!   reads entry `p mod list-len`); this is how trace-derived workloads
//!   and exact-equivalence oracles are expressed.
//!
//! Suffixes: `*N` iterations per thread (default 64), `@S` RNG seed
//! (default 9), `!inc`/`!addK` the atomic update applied per element
//! (default `inc`), `+rN` extra plain (non-atomic) gathers per vector —
//! the read/write-mix knob (default 0).
//!
//! Parsing is total: any garbage input yields a typed [`ParseError`],
//! never a panic — specs cross the trust boundary of the serve protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use glsc_rng::rngs::StdRng;
use glsc_rng::{Rng, SeedableRng};

/// Default iterations per thread when a spec has no `*N` suffix.
pub const DEFAULT_ITERS: u32 = 64;
/// Default RNG seed when a spec has no `@S` suffix.
pub const DEFAULT_SEED: u64 = 9;
/// Default table length in words for kinds that allow omitting it.
pub const DEFAULT_LEN: u32 = 1024;

/// Largest counter table a spec may request, in 4-byte words (4 MiB).
pub const MAX_TABLE_WORDS: u32 = 1 << 20;
/// Largest per-thread iteration count.
pub const MAX_ITERS: u32 = 100_000;
/// Largest explicit trace list.
pub const MAX_TRACE_ENTRIES: usize = 65_536;
/// Largest stride.
pub const MAX_STRIDE: u32 = 4096;
/// Largest read-mix count (`+rN`).
pub const MAX_READS: u8 = 8;
/// Largest `!addK` amount.
pub const MAX_ADD: u32 = 1 << 20;

/// How a spec generates the word indices its atomic updates touch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexPattern {
    /// `stride:S[xN]` — uniform stride `S` over an `N`-word table.
    Stride {
        /// Stride in words between consecutive elements.
        stride: u32,
        /// Table length in words.
        len: u32,
    },
    /// `mostly:SxN/p=P` — the stride pattern with random outliers.
    MostlyStride {
        /// Stride in words between consecutive elements.
        stride: u32,
        /// Table length in words.
        len: u32,
        /// Outlier probability in per-mille (0..=1000).
        outlier_pm: u32,
    },
    /// `block:B/N` — random tiles of `B` consecutive words, `N` tiles.
    Block {
        /// Tile size in words.
        block: u32,
        /// Number of tiles (table length is `block * blocks`).
        blocks: u32,
    },
    /// `conflict:p=P[xN]` — seeded-random with intra-vector conflict
    /// density `P`.
    Conflict {
        /// Probability (per-mille) that a lane repeats its left
        /// neighbour's index.
        density_pm: u32,
        /// Table length in words.
        len: u32,
    },
    /// `trace:N:i,j,k,...` — explicit index list over an `N`-word table.
    Trace {
        /// Table length in words (every index must be below it).
        len: u32,
        /// The index stream, consumed modulo its length.
        indices: Vec<u32>,
    },
}

impl IndexPattern {
    /// Counter-table length in words.
    pub fn table_words(&self) -> u32 {
        match self {
            IndexPattern::Stride { len, .. }
            | IndexPattern::MostlyStride { len, .. }
            | IndexPattern::Conflict { len, .. }
            | IndexPattern::Trace { len, .. } => *len,
            IndexPattern::Block { block, blocks } => block.saturating_mul(*blocks),
        }
    }

    /// Short kind name (`"stride"`, `"mostly"`, `"block"`, `"conflict"`,
    /// `"trace"`) — used for job labels.
    pub fn kind(&self) -> &'static str {
        match self {
            IndexPattern::Stride { .. } => "stride",
            IndexPattern::MostlyStride { .. } => "mostly",
            IndexPattern::Block { .. } => "block",
            IndexPattern::Conflict { .. } => "conflict",
            IndexPattern::Trace { .. } => "trace",
        }
    }
}

/// The atomic update applied per touched element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateKind {
    /// `counters[idx] += 1` (the default).
    Inc,
    /// `counters[idx] += k`.
    Add(u32),
}

impl UpdateKind {
    /// The per-element increment amount.
    pub fn amount(self) -> u32 {
        match self {
            UpdateKind::Inc => 1,
            UpdateKind::Add(k) => k,
        }
    }
}

/// A complete pattern-workload description: index generation plus the
/// iteration count, seed, update kind, and read/write mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternSpec {
    /// How indices are generated.
    pub index: IndexPattern,
    /// Vectors processed per thread.
    pub iters: u32,
    /// Seed for all randomized kinds (one stream across threads, like
    /// the §5.2 microbenchmark's generator).
    pub seed: u64,
    /// Atomic update per element.
    pub update: UpdateKind,
    /// Extra plain (non-atomic) gathers of the index vector before each
    /// atomic update — the read/write-mix knob.
    pub reads: u8,
}

/// Why a spec string (or a decoded spec) was rejected. Parsing is total:
/// hostile input always lands here, never in a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The spec string was empty.
    Empty,
    /// The kind prefix is not one of the five pattern kinds.
    UnknownKind(String),
    /// A structural element was missing or misplaced.
    Malformed {
        /// What was being parsed.
        what: &'static str,
        /// The offending text.
        text: String,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// What was being parsed.
        what: &'static str,
        /// The offending text.
        text: String,
    },
    /// A probability was not a decimal in `[0, 1]` with ≤ 3 fraction
    /// digits.
    BadProbability(String),
    /// The same suffix option (`*`, `@`, `!`, `+r`) appeared twice.
    DuplicateOption(char),
    /// A field exceeded the crate's hard bounds.
    OutOfRange {
        /// Which field tripped.
        what: &'static str,
        /// The rejected value.
        value: u64,
        /// Inclusive upper bound.
        max: u64,
    },
    /// A field that must be non-zero was zero.
    Zero(&'static str),
    /// A trace spec with no indices.
    EmptyTrace,
    /// A trace index at or past the declared table length.
    TraceIndexOutOfRange {
        /// The offending index.
        index: u32,
        /// The declared table length.
        len: u32,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty pattern spec"),
            ParseError::UnknownKind(k) => write!(
                f,
                "unknown pattern kind {k:?} (want stride/mostly/block/conflict/trace)"
            ),
            ParseError::Malformed { what, text } => write!(f, "malformed {what}: {text:?}"),
            ParseError::BadNumber { what, text } => write!(f, "bad {what}: {text:?}"),
            ParseError::BadProbability(t) => write!(
                f,
                "bad probability {t:?} (want a decimal in [0, 1], ≤ 3 fraction digits)"
            ),
            ParseError::DuplicateOption(c) => write!(f, "duplicate {c:?} option"),
            ParseError::OutOfRange { what, value, max } => {
                write!(f, "{what} must be ≤ {max} (got {value})")
            }
            ParseError::Zero(what) => write!(f, "{what} must be non-zero"),
            ParseError::EmptyTrace => write!(f, "trace needs at least one index"),
            ParseError::TraceIndexOutOfRange { index, len } => {
                write!(f, "trace index {index} outside table of {len} words")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl PatternSpec {
    /// A spec with the given index pattern and every knob at its
    /// default (`*64@9!inc`, no extra reads). Bounds are *not* checked —
    /// call [`check`](Self::check) before trusting a constructed spec.
    pub fn new(index: IndexPattern) -> Self {
        Self {
            index,
            iters: DEFAULT_ITERS,
            seed: DEFAULT_SEED,
            update: UpdateKind::Inc,
            reads: 0,
        }
    }

    /// Parses the text grammar (see the crate docs). Total: never
    /// panics, and the result is already [`check`](Self::check)ed.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let text = text.trim();
        if text.is_empty() {
            return Err(ParseError::Empty);
        }
        // The kind body never contains the suffix markers: its alphabet
        // is digits, letters, ':', 'x', '/', '=', '.', ','.
        let head_end = text.find(['*', '@', '!', '+']).unwrap_or(text.len());
        let (head, mut tail) = text.split_at(head_end);

        let mut spec = Self::new(parse_kind(head)?);
        let (mut saw_iters, mut saw_seed, mut saw_update, mut saw_reads) =
            (false, false, false, false);
        while !tail.is_empty() {
            let marker = tail.chars().next().expect("non-empty tail");
            let body_start = &tail[marker.len_utf8()..];
            let body_end = body_start
                .find(['*', '@', '!', '+'])
                .unwrap_or(body_start.len());
            let (body, rest) = body_start.split_at(body_end);
            match marker {
                '*' => {
                    if saw_iters {
                        return Err(ParseError::DuplicateOption('*'));
                    }
                    saw_iters = true;
                    spec.iters = parse_num(body, "iteration count")? as u32;
                }
                '@' => {
                    if saw_seed {
                        return Err(ParseError::DuplicateOption('@'));
                    }
                    saw_seed = true;
                    spec.seed = parse_num(body, "seed")?;
                }
                '!' => {
                    if saw_update {
                        return Err(ParseError::DuplicateOption('!'));
                    }
                    saw_update = true;
                    spec.update = if body == "inc" {
                        UpdateKind::Inc
                    } else if let Some(k) = body.strip_prefix("add") {
                        UpdateKind::Add(parse_num(k, "add amount")? as u32)
                    } else {
                        return Err(ParseError::Malformed {
                            what: "update kind",
                            text: body.to_string(),
                        });
                    };
                }
                '+' => {
                    if saw_reads {
                        return Err(ParseError::DuplicateOption('+'));
                    }
                    saw_reads = true;
                    let Some(n) = body.strip_prefix('r') else {
                        return Err(ParseError::Malformed {
                            what: "read-mix option (want +rN)",
                            text: body.to_string(),
                        });
                    };
                    let n = parse_num(n, "read count")?;
                    if n > MAX_READS as u64 {
                        return Err(ParseError::OutOfRange {
                            what: "reads",
                            value: n,
                            max: MAX_READS as u64,
                        });
                    }
                    spec.reads = n as u8;
                }
                _ => unreachable!("head_end stops at a marker"),
            }
            tail = rest;
        }
        spec.check()?;
        Ok(spec)
    }

    /// Bounds-checks every field against the crate's hard limits, so a
    /// spec (parsed or hand-built) can never request an
    /// absurd table, trace, or iteration count.
    pub fn check(&self) -> Result<(), ParseError> {
        let range = |what, value: u64, max: u64| {
            if value == 0 {
                Err(ParseError::Zero(what))
            } else if value > max {
                Err(ParseError::OutOfRange { what, value, max })
            } else {
                Ok(())
            }
        };
        range("iterations", self.iters as u64, MAX_ITERS as u64)?;
        if let UpdateKind::Add(k) = self.update {
            range("add amount", k as u64, MAX_ADD as u64)?;
        }
        if self.reads > MAX_READS {
            return Err(ParseError::OutOfRange {
                what: "reads",
                value: self.reads as u64,
                max: MAX_READS as u64,
            });
        }
        match &self.index {
            IndexPattern::Stride { stride, len } => {
                range("stride", *stride as u64, MAX_STRIDE as u64)?;
                range("table length", *len as u64, MAX_TABLE_WORDS as u64)?;
            }
            IndexPattern::MostlyStride {
                stride,
                len,
                outlier_pm,
            } => {
                range("stride", *stride as u64, MAX_STRIDE as u64)?;
                range("table length", *len as u64, MAX_TABLE_WORDS as u64)?;
                if *outlier_pm > 1000 {
                    return Err(ParseError::BadProbability(format!(
                        "{}.{:03}",
                        outlier_pm / 1000,
                        outlier_pm % 1000
                    )));
                }
            }
            IndexPattern::Block { block, blocks } => {
                range("block size", *block as u64, MAX_TABLE_WORDS as u64)?;
                range("block count", *blocks as u64, MAX_TABLE_WORDS as u64)?;
                range(
                    "table length",
                    *block as u64 * *blocks as u64,
                    MAX_TABLE_WORDS as u64,
                )?;
            }
            IndexPattern::Conflict { density_pm, len } => {
                range("table length", *len as u64, MAX_TABLE_WORDS as u64)?;
                if *density_pm > 1000 {
                    return Err(ParseError::BadProbability(format!(
                        "{}.{:03}",
                        density_pm / 1000,
                        density_pm % 1000
                    )));
                }
            }
            IndexPattern::Trace { len, indices } => {
                range("table length", *len as u64, MAX_TABLE_WORDS as u64)?;
                if indices.is_empty() {
                    return Err(ParseError::EmptyTrace);
                }
                if indices.len() > MAX_TRACE_ENTRIES {
                    return Err(ParseError::OutOfRange {
                        what: "trace entries",
                        value: indices.len() as u64,
                        max: MAX_TRACE_ENTRIES as u64,
                    });
                }
                if let Some(&bad) = indices.iter().find(|&&i| i >= *len) {
                    return Err(ParseError::TraceIndexOutOfRange {
                        index: bad,
                        len: *len,
                    });
                }
            }
        }
        Ok(())
    }

    /// Generates the per-thread index sequences for a machine shape:
    /// `threads` sequences of `iters * width` word indices, all below
    /// [`IndexPattern::table_words`]. One RNG stream is drawn
    /// sequentially across threads (the same discipline as the §5.2
    /// microbenchmark), so the result is a pure function of
    /// `(spec, threads, width)` on every platform.
    pub fn gen_indices(&self, threads: usize, width: usize) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let iters = self.iters as usize;
        let mut pos: u64 = 0; // global element position across all threads
        let mut all = Vec::with_capacity(threads);
        for _t in 0..threads {
            let mut seq: Vec<u32> = Vec::with_capacity(iters * width);
            for _i in 0..iters {
                match &self.index {
                    IndexPattern::Stride { stride, len } => {
                        for _l in 0..width {
                            seq.push(((pos * *stride as u64) % *len as u64) as u32);
                            pos += 1;
                        }
                    }
                    IndexPattern::MostlyStride {
                        stride,
                        len,
                        outlier_pm,
                    } => {
                        let p = *outlier_pm as f64 / 1000.0;
                        for _l in 0..width {
                            if rng.random_bool(p) {
                                seq.push(rng.random_range(0..*len));
                            } else {
                                seq.push(((pos * *stride as u64) % *len as u64) as u32);
                            }
                            pos += 1;
                        }
                    }
                    IndexPattern::Block { block, blocks } => {
                        let tile = rng.random_range(0..*blocks);
                        for l in 0..width {
                            seq.push(tile * *block + (l as u32 % *block));
                            pos += 1;
                        }
                    }
                    IndexPattern::Conflict { density_pm, len } => {
                        let p = *density_pm as f64 / 1000.0;
                        for l in 0..width {
                            if l > 0 && rng.random_bool(p) {
                                let prev = *seq.last().expect("lane 0 already pushed");
                                seq.push(prev);
                            } else {
                                seq.push(rng.random_range(0..*len));
                            }
                            pos += 1;
                        }
                    }
                    IndexPattern::Trace { indices, .. } => {
                        for _l in 0..width {
                            seq.push(indices[(pos % indices.len() as u64) as usize]);
                            pos += 1;
                        }
                    }
                }
            }
            all.push(seq);
        }
        all
    }
}

impl std::str::FromStr for PatternSpec {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, ParseError> {
        Self::parse(s)
    }
}

/// Canonical text form: the kind, then `*iters@seed`, then `!addK` and
/// `+rN` only when non-default. `parse(format(spec)) == spec` holds for
/// every checked spec.
impl std::fmt::Display for PatternSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.index {
            IndexPattern::Stride { stride, len } => write!(f, "stride:{stride}x{len}")?,
            IndexPattern::MostlyStride {
                stride,
                len,
                outlier_pm,
            } => write!(f, "mostly:{stride}x{len}/p={}", fmt_pm(*outlier_pm))?,
            IndexPattern::Block { block, blocks } => write!(f, "block:{block}/{blocks}")?,
            IndexPattern::Conflict { density_pm, len } => {
                write!(f, "conflict:p={}x{len}", fmt_pm(*density_pm))?
            }
            IndexPattern::Trace { len, indices } => {
                write!(f, "trace:{len}:")?;
                for (i, idx) in indices.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{idx}")?;
                }
            }
        }
        write!(f, "*{}@{}", self.iters, self.seed)?;
        if let UpdateKind::Add(k) = self.update {
            write!(f, "!add{k}")?;
        }
        if self.reads > 0 {
            write!(f, "+r{}", self.reads)?;
        }
        Ok(())
    }
}

fn parse_kind(head: &str) -> Result<IndexPattern, ParseError> {
    let Some((kind, body)) = head.split_once(':') else {
        return Err(ParseError::UnknownKind(head.to_string()));
    };
    match kind {
        "stride" => {
            let (stride, len) = parse_stride_len(body)?;
            Ok(IndexPattern::Stride { stride, len })
        }
        "mostly" => {
            let Some((sl, prob)) = body.split_once('/') else {
                return Err(ParseError::Malformed {
                    what: "mostly pattern (want SxN/p=P)",
                    text: body.to_string(),
                });
            };
            let (stride, len) = parse_stride_len(sl)?;
            let Some(p) = prob.strip_prefix("p=") else {
                return Err(ParseError::Malformed {
                    what: "probability (want p=P)",
                    text: prob.to_string(),
                });
            };
            Ok(IndexPattern::MostlyStride {
                stride,
                len,
                outlier_pm: parse_pm(p)?,
            })
        }
        "block" => {
            let Some((b, n)) = body.split_once('/') else {
                return Err(ParseError::Malformed {
                    what: "block pattern (want B/N)",
                    text: body.to_string(),
                });
            };
            Ok(IndexPattern::Block {
                block: parse_num(b, "block size")? as u32,
                blocks: parse_num(n, "block count")? as u32,
            })
        }
        "conflict" => {
            let Some(p) = body.strip_prefix("p=") else {
                return Err(ParseError::Malformed {
                    what: "conflict pattern (want p=P[xN])",
                    text: body.to_string(),
                });
            };
            let (prob, len) = match p.split_once('x') {
                Some((prob, len)) => (prob, parse_num(len, "table length")? as u32),
                None => (p, DEFAULT_LEN),
            };
            Ok(IndexPattern::Conflict {
                density_pm: parse_pm(prob)?,
                len,
            })
        }
        "trace" => {
            let Some((len, list)) = body.split_once(':') else {
                return Err(ParseError::Malformed {
                    what: "trace pattern (want N:i,j,...)",
                    text: body.to_string(),
                });
            };
            let len = parse_num(len, "table length")? as u32;
            if list.is_empty() {
                return Err(ParseError::EmptyTrace);
            }
            let indices = list
                .split(',')
                .map(|i| parse_num(i, "trace index").map(|v| v as u32))
                .collect::<Result<Vec<u32>, ParseError>>()?;
            Ok(IndexPattern::Trace { len, indices })
        }
        other => Err(ParseError::UnknownKind(other.to_string())),
    }
}

/// Parses `SxN` or bare `S` (length defaults to [`DEFAULT_LEN`]).
fn parse_stride_len(text: &str) -> Result<(u32, u32), ParseError> {
    match text.split_once('x') {
        Some((s, n)) => Ok((
            parse_num(s, "stride")? as u32,
            parse_num(n, "table length")? as u32,
        )),
        None => Ok((parse_num(text, "stride")? as u32, DEFAULT_LEN)),
    }
}

/// Strict decimal u64: non-empty, digits only, and small enough that
/// narrowing to the field's real type cannot truncate (every numeric
/// field is bounds-checked against ≤ `2^32` limits right after).
fn parse_num(text: &str, what: &'static str) -> Result<u64, ParseError> {
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return Err(ParseError::BadNumber {
            what,
            text: text.to_string(),
        });
    }
    text.parse::<u64>().map_err(|_| ParseError::BadNumber {
        what,
        text: text.to_string(),
    })
}

/// Parses a probability like `0.25`, `1`, `0.125` into per-mille.
fn parse_pm(text: &str) -> Result<u32, ParseError> {
    let bad = || ParseError::BadProbability(text.to_string());
    let (int, frac) = match text.split_once('.') {
        Some((i, f)) => (i, f),
        None => (text, ""),
    };
    if int.is_empty()
        || !int.bytes().all(|b| b.is_ascii_digit())
        || frac.len() > 3
        || !frac.bytes().all(|b| b.is_ascii_digit())
        || (text.contains('.') && frac.is_empty())
    {
        return Err(bad());
    }
    let whole: u32 = int.parse().map_err(|_| bad())?;
    let mut milli: u32 = 0;
    for (i, b) in frac.bytes().enumerate() {
        milli += (b - b'0') as u32 * 10u32.pow(2 - i as u32);
    }
    let pm = whole.checked_mul(1000).ok_or_else(bad)? + milli;
    if pm > 1000 {
        return Err(bad());
    }
    Ok(pm)
}

/// Per-mille back to the canonical decimal text (`250` → `"0.25"`).
fn fmt_pm(pm: u32) -> String {
    if pm.is_multiple_of(1000) {
        (pm / 1000).to_string()
    } else {
        let frac = format!("{:03}", pm % 1000);
        format!("{}.{}", pm / 1000, frac.trim_end_matches('0'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> PatternSpec {
        PatternSpec::parse(s).unwrap_or_else(|e| panic!("{s:?}: {e}"))
    }

    #[test]
    fn grammar_examples_parse() {
        assert_eq!(
            parse("stride:4x1024").index,
            IndexPattern::Stride {
                stride: 4,
                len: 1024
            }
        );
        assert_eq!(
            parse("stride:7").index,
            IndexPattern::Stride {
                stride: 7,
                len: DEFAULT_LEN
            }
        );
        assert_eq!(
            parse("block:8/64").index,
            IndexPattern::Block {
                block: 8,
                blocks: 64
            }
        );
        assert_eq!(
            parse("conflict:p=0.25").index,
            IndexPattern::Conflict {
                density_pm: 250,
                len: DEFAULT_LEN
            }
        );
        assert_eq!(
            parse("mostly:1x512/p=0.05").index,
            IndexPattern::MostlyStride {
                stride: 1,
                len: 512,
                outlier_pm: 50
            }
        );
        let spec = parse("trace:64:0,16,32,48*10@3!add2+r1");
        assert_eq!(
            spec.index,
            IndexPattern::Trace {
                len: 64,
                indices: vec![0, 16, 32, 48]
            }
        );
        assert_eq!(
            (spec.iters, spec.seed, spec.update, spec.reads),
            (10, 3, UpdateKind::Add(2), 1)
        );
    }

    #[test]
    fn canonical_format_round_trips() {
        for s in [
            "stride:4x1024",
            "stride:1x512*40@72",
            "mostly:1x512/p=0.05*100@7",
            "block:8/64!add3",
            "conflict:p=0.25x256+r2",
            "conflict:p=1x16",
            "conflict:p=0x16",
            "trace:64:0,16,32,48*10@3!add2+r1",
        ] {
            let spec = parse(s);
            let canon = spec.to_string();
            assert_eq!(parse(&canon), spec, "{s} → {canon}");
            // Canonical form is a fixed point.
            assert_eq!(parse(&canon).to_string(), canon);
        }
    }

    #[test]
    fn probability_grammar_is_strict() {
        for bad in [
            "conflict:p=1.5",
            "conflict:p=0.1234",
            "conflict:p=.5",
            "conflict:p=0.",
            "conflict:p=-0.5",
            "conflict:p=nan",
        ] {
            assert!(
                matches!(PatternSpec::parse(bad), Err(ParseError::BadProbability(_))),
                "{bad}"
            );
        }
        assert_eq!(fmt_pm(250), "0.25");
        assert_eq!(fmt_pm(500), "0.5");
        assert_eq!(fmt_pm(125), "0.125");
        assert_eq!(fmt_pm(50), "0.05");
        assert_eq!(fmt_pm(0), "0");
        assert_eq!(fmt_pm(1000), "1");
    }

    #[test]
    fn hostile_garbage_yields_typed_errors_never_panics() {
        // Handcrafted near-misses.
        let hostile = [
            "",
            " ",
            "stride",
            "stride:",
            "stride:x",
            "stride:4x",
            "stride:0x16",
            "stride:4x0",
            "stride:4x1024*",
            "stride:4x1024*1*2",
            "stride:4x1024@a",
            "stride:4x1024!dec",
            "stride:4x1024+w1",
            "stride:4x1024+r99",
            "mostly:4x16/q=0.5",
            "mostly:4x16",
            "block:8",
            "block:/64",
            "block:0/64",
            "block:2048/2048",
            "conflict:0.5",
            "conflict:p=2",
            "trace:64",
            "trace:64:",
            "trace:64:64",
            "trace:64:1,,2",
            "trace:0:0",
            "pattern:stride:4",
            "stride:99999999999999999999",
            "stride:4x1024*999999999999999999999",
            "🦀", // non-ASCII
        ];
        for s in hostile {
            assert!(PatternSpec::parse(s).is_err(), "{s:?} must not parse");
        }
        // Fuzz-ish: seeded random byte soup and random mutations of a
        // valid spec. Parsing must return, never panic (a panic fails
        // the test harness).
        let mut rng = StdRng::seed_from_u64(0xF00D);
        let valid = "conflict:p=0.25x256*10@7!add2+r1";
        for _ in 0..2000 {
            let n = rng.random_range(0..40usize);
            let soup: String = (0..n)
                .map(|_| (rng.random_range(0x20u32..0x7F) as u8) as char)
                .collect();
            let _ = PatternSpec::parse(&soup);
            let mut mutated: Vec<char> = valid.chars().collect();
            let at = rng.random_range(0..mutated.len() as u32) as usize;
            mutated[at] = (rng.random_range(0x20u32..0x7F) as u8) as char;
            let _ = PatternSpec::parse(&mutated.into_iter().collect::<String>());
        }
    }

    #[test]
    fn index_generation_is_deterministic_and_in_bounds() {
        for s in [
            "stride:4x1024",
            "mostly:1x512/p=0.05",
            "block:8/64",
            "conflict:p=0.25x256",
            "trace:64:0,16,32,48",
        ] {
            let spec = parse(s);
            let a = spec.gen_indices(4, 4);
            let b = spec.gen_indices(4, 4);
            assert_eq!(a, b, "{s}: same spec, same indices");
            let len = spec.index.table_words();
            for seq in &a {
                assert_eq!(seq.len(), spec.iters as usize * 4);
                assert!(seq.iter().all(|&i| i < len), "{s}: index in bounds");
            }
        }
    }

    #[test]
    fn conflict_density_controls_intra_vector_aliasing() {
        let alias_rate = |pm: u32| {
            let spec = PatternSpec::new(IndexPattern::Conflict {
                density_pm: pm,
                len: 4096,
            });
            let seqs = spec.gen_indices(2, 8);
            let (mut dup, mut total) = (0usize, 0usize);
            for seq in &seqs {
                for chunk in seq.chunks(8) {
                    let mut sorted = chunk.to_vec();
                    sorted.sort_unstable();
                    sorted.dedup();
                    dup += chunk.len() - sorted.len();
                    total += chunk.len();
                }
            }
            dup as f64 / total as f64
        };
        let (lo, mid, hi) = (alias_rate(100), alias_rate(500), alias_rate(900));
        assert!(lo < mid && mid < hi, "alias rates {lo:.3} {mid:.3} {hi:.3}");
        assert!(hi > 0.5, "p=0.9 must alias most lanes, got {hi:.3}");
        // p=1 repeats lane 0 forever: exactly scenario-D behaviour.
        let spec = PatternSpec::new(IndexPattern::Conflict {
            density_pm: 1000,
            len: 64,
        });
        for seq in spec.gen_indices(1, 4) {
            for chunk in seq.chunks(4) {
                assert!(chunk.iter().all(|&i| i == chunk[0]));
            }
        }
    }

    #[test]
    fn stride_covers_the_table_without_rng() {
        let spec = parse("stride:1x16*4@1");
        let seqs = spec.gen_indices(1, 4);
        assert_eq!(
            seqs[0],
            (0..16).collect::<Vec<u32>>(),
            "stride 1 walks the table in order"
        );
        // Seed changes nothing for pure-stride kinds.
        let spec2 = parse("stride:1x16*4@999");
        assert_eq!(spec2.gen_indices(1, 4), seqs);
    }
}
