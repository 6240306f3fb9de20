//! Order statistics for host-time samples and the paper's speed-up
//! geomean.
//!
//! Host time on a shared machine comes in slow stretches, so timing
//! metrics aggregate samples spread across the run, and a tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it.

use std::collections::BTreeMap;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A nearest-rank percentile together with the sample counts behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `xs`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Percentile {
        value: v[rank - 1],
        samples: n,
        beyond,
    })
}

/// Geometric mean, or `None` for an empty set or a non-positive value.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// One simulated job's cycles, keyed by everything except its variant.
#[derive(Clone, Debug)]
pub struct PairSample {
    /// The job's identity without the variant (kernel or spec, machine).
    pub pair: String,
    /// `true` for GLSC, `false` for Base.
    pub glsc: bool,
    /// Simulated cycles.
    pub cycles: u64,
}

/// The paper's headline number: geomean over (Base, GLSC) pairs of Base
/// cycles ÷ GLSC cycles. Every pair must have exactly one job of each
/// variant; anything else is an error naming the pair.
pub fn glsc_speedup(samples: &[PairSample]) -> Result<f64, String> {
    let mut pairs: BTreeMap<&str, (Option<u64>, Option<u64>)> = BTreeMap::new();
    for s in samples {
        let slot = pairs.entry(&s.pair).or_default();
        let side = if s.glsc { &mut slot.1 } else { &mut slot.0 };
        if side.replace(s.cycles).is_some() {
            return Err(format!("pair {} has two {} jobs", s.pair, variant(s.glsc)));
        }
    }
    let mut ratios = Vec::with_capacity(pairs.len());
    for (pair, sides) in pairs {
        match sides {
            (Some(base), Some(glsc)) if glsc > 0 => ratios.push(base as f64 / glsc as f64),
            (Some(_), Some(_)) => return Err(format!("pair {pair} has a zero-cycle GLSC job")),
            (None, _) => return Err(format!("pair {pair} has no Base job")),
            (_, None) => return Err(format!("pair {pair} has no GLSC job")),
        }
    }
    geomean(&ratios).ok_or_else(|| "no (Base, GLSC) pairs".to_string())
}

fn variant(glsc: bool) -> &'static str {
    if glsc {
        "GLSC"
    } else {
        "Base"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=56).map(f64::from).collect();
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (28.0, 56, 28));
        // One sweep of 56 jobs: p80 has 11 samples beyond it, p90 only 5.
        let p80 = percentile(&xs, 80.0).unwrap();
        assert_eq!((p80.value, p80.beyond), (45.0, 11));
        assert_eq!(percentile(&xs, 90.0), None);
        // Exactly ten beyond is enough; nine is not.
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&fifty, 80.0).unwrap().beyond, 10);
        let forty_nine: Vec<f64> = (1..=49).map(f64::from).collect();
        assert_eq!(percentile(&forty_nine, 80.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs = [
            9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0,
        ];
        assert_eq!(percentile(&xs, 10.0).unwrap().value, 2.0);
    }

    fn sample(pair: &str, glsc: bool, cycles: u64) -> PairSample {
        PairSample {
            pair: pair.to_string(),
            glsc,
            cycles,
        }
    }

    #[test]
    fn speedup_pairs_base_with_glsc_by_key() {
        // Order does not matter; each pair contributes Base/GLSC.
        let s = [
            sample("HIP-1x1", true, 50),
            sample("GBC-1x1", false, 300),
            sample("HIP-1x1", false, 200),
            sample("GBC-1x1", true, 100),
        ];
        let got = glsc_speedup(&s).unwrap();
        assert!((got - (4.0f64 * 3.0).sqrt()).abs() < 1e-12, "{got}");
    }

    #[test]
    fn speedup_rejects_unpaired_and_duplicate_jobs() {
        let lone = [sample("HIP-1x1", false, 200)];
        assert!(glsc_speedup(&lone).unwrap_err().contains("no GLSC"));
        let twice = [
            sample("HIP-1x1", true, 50),
            sample("HIP-1x1", true, 60),
            sample("HIP-1x1", false, 200),
        ];
        assert!(glsc_speedup(&twice).unwrap_err().contains("two GLSC"));
        assert!(glsc_speedup(&[]).is_err());
    }
}
