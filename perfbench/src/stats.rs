//! Order statistics over per-operation samples.

/// `v` sorted ascending (NaN-free input).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A tail percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Whole percentile, nearest-rank.
    pub pct: u32,
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// The highest whole percentile that still leaves at least ten samples
/// beyond it (nearest-rank). With ten samples or fewer no percentile
/// qualifies; the maximum is returned with `beyond == 0` so the caller can
/// flag it.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n <= 10 {
        return Tail {
            pct: 100,
            value: s.last().copied().unwrap_or(0.0),
            samples: n,
            beyond: 0,
        };
    }
    let pct = (100 * (n - 10) / n) as u32;
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Tail {
        pct,
        value: s[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in 11..400 {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&v);
            assert!(t.beyond >= 10, "n={n} {t:?}");
            // one percentile higher would leave fewer than ten
            let next = ((t.pct as usize + 1) * n).div_ceil(100);
            assert!(t.pct == 99 || n - next < 10, "n={n} {t:?}");
        }
        assert_eq!(tail(&[3.0, 1.0, 2.0]).beyond, 0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
