//! Medians, quartiles and the compare verdict.

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads printed here match ones computed from the same
/// values with Python's `statistics` module.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d: Vec<f64> = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => [f64::NAN; 3],
        1 => [d[0]; 3],
        ld => {
            let (n, m) = (4usize, ld + 1);
            let mut out = [0.0; 3];
            for (i, q) in (1..n).zip(out.iter_mut()) {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                *q = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
            }
            out
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut d: Vec<f64> = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => d[n / 2],
        n => (d[n / 2 - 1] + d[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    (q[2] - q[0]) / q[1].abs()
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Does `a` read better than `b`? Ties are neither.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Outcome of comparing a change's runs with its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of the pairs and the medians differ by
    /// more than the parent's interquartile range.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Worse,
    /// Neither: the change is within the bound.
    Same,
    /// A side's spread exceeds the bound, so "same" cannot be told from
    /// noise (unless every run of one side beats every run of the other).
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest pairs on which a change can be called better.
pub const MIN_PAIRS: usize = 10;

/// Compare `new` runs against `old` runs of one metric. Runs pair up by
/// position (run i of each side is one alternating pair). `Better` needs
/// at least [`MIN_PAIRS`] pairs.
pub fn verdict(old: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (qo, qn) = (quartiles(old), quartiles(new));
    let (mo, mn) = (qo[1], qn[1]);
    let pairs = old.len().min(new.len());
    let wins = old
        .iter()
        .zip(new)
        .filter(|(o, n)| better.beats(**n, **o))
        .count();
    let all_new_beat =
        pairs >= MIN_PAIRS && new.iter().all(|n| old.iter().all(|o| better.beats(*n, *o)));
    let all_old_beat = old.iter().all(|o| new.iter().all(|n| better.beats(*o, *n)));
    let worse_by = match better {
        Better::Lower => (mn - mo) / mo.abs(),
        Better::Higher => (mo - mn) / mo.abs(),
    };
    if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better.beats(mn, mo)
        && (mn - mo).abs() > qo[2] - qo[0]
    {
        return Verdict::Better;
    }
    if spread(old) > bound || spread(new) > bound {
        return if all_new_beat {
            Verdict::Better
        } else if all_old_beat && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn runs(base: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| base * (1.0 + j)).collect()
    }

    const J: [f64; 10] = [
        0.01, -0.01, 0.005, -0.005, 0.0, 0.012, -0.012, 0.003, -0.003, 0.008,
    ];

    #[test]
    fn clear_speedup_is_better() {
        let old = runs(1.0, &J);
        let new = runs(0.8, &J);
        assert_eq!(verdict(&old, &new, Better::Lower, 0.1), Verdict::Better);
        // The same numbers read as a throughput are a regression.
        assert_eq!(verdict(&old, &new, Better::Higher, 0.1), Verdict::Worse);
    }

    #[test]
    fn small_shift_inside_noise_is_same() {
        let old = runs(1.0, &J);
        let mut new = runs(0.995, &J);
        new.reverse();
        assert_eq!(verdict(&old, &new, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn win_needs_nine_of_ten_pairs() {
        // Medians 20% apart, but the change wins only 8 of 10 pairs.
        let old = runs(1.0, &J);
        let mut new = runs(0.8, &J);
        new[0] = 2.0;
        new[1] = 2.0;
        assert_ne!(verdict(&old, &new, Better::Lower, 0.1), Verdict::Better);
    }

    #[test]
    fn too_few_pairs_are_never_better() {
        let old = runs(1.0, &J[..9]);
        let new = runs(0.5, &J[..9]);
        assert_eq!(verdict(&old, &new, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn noisy_metric_is_unresolved() {
        let wide = [0.3, -0.3, 0.2, -0.2, 0.0, 0.25, -0.25, 0.1, -0.1, 0.05];
        let old = runs(1.0, &wide);
        let mut new = runs(1.02, &wide);
        new.rotate_left(3);
        assert_eq!(verdict(&old, &new, Better::Lower, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn regression_beyond_bound_is_worse() {
        let old = runs(1.0, &J);
        let new = runs(1.3, &J);
        assert_eq!(verdict(&old, &new, Better::Lower, 0.1), Verdict::Worse);
    }
}
