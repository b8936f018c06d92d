//! Sample summaries and the regression rule the bounds in `BENCHMARK.json`
//! are applied with.

/// Median and quartiles of a sample, with its size. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method), so spreads computed here match the ones computed from the
/// result lines with Python.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; `None` for an empty sample. A single value is
    /// its own median and quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (v[0], v[0])
        } else {
            (quartile(&v, 1), quartile(&v, 3))
        };
        Some(Summary { median, q1, q3, n })
    }
}

/// The `i`-th quartile of sorted data (`len >= 2`) by the exclusive method.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let ld = sorted.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing a change's runs against its parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is no worse than the parent's by more than the
    /// allowance.
    Ok,
    /// Worse by more than the allowance.
    Regressed,
    /// The parent's own spread exceeds the allowance, so the comparison
    /// cannot tell, and not every change run beats every parent run.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Apply a relative bound with an absolute floor: the change may be worse
/// than the parent's median by `max(bound × |parent median|, floor)`.
/// Where the parent's quartile spread is wider than that allowance the
/// verdict is [`Verdict::Unresolved`], unless every change run reads
/// better than every parent run.
///
/// # Panics
/// Panics on an empty sample.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    let p = Summary::of(parent).expect("parent sample is empty");
    let c = Summary::of(change).expect("change sample is empty");
    let allowance = (bound * p.median.abs()).max(floor);
    // Positive `worse` means the change moved the wrong way.
    let (worse, all_better) = match better {
        Better::Lower => (
            c.median - p.median,
            change.iter().all(|x| parent.iter().all(|y| x < y)),
        ),
        Better::Higher => (
            p.median - c.median,
            change.iter().all(|x| parent.iter().all(|y| x > y)),
        ),
    };
    if p.q3 - p.q1 > allowance && !all_better {
        Verdict::Unresolved
    } else if worse > allowance {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // Order does not matter; odd count.
        let s = Summary::of(&[5.0, 1.0, 3.0, 4.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn relative_bound_with_absolute_floor() {
        let parent = [1.00, 1.01, 0.99, 1.00, 1.02];
        // 8% slower: within a 10% bound, outside a 5% one.
        let slower = [1.08, 1.09, 1.07, 1.08, 1.08];
        assert_eq!(
            judge(&parent, &slower, Better::Lower, 0.10, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(&parent, &slower, Better::Lower, 0.05, 0.0),
            Verdict::Regressed
        );
        // The floor wins over a small relative allowance.
        assert_eq!(
            judge(&parent, &slower, Better::Lower, 0.05, 0.1),
            Verdict::Ok
        );
        // Direction: a drop in a higher-is-better metric regresses.
        assert_eq!(
            judge(&slower, &parent, Better::Higher, 0.05, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&parent, &slower, Better::Higher, 0.05, 0.0),
            Verdict::Ok
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [0.6, 0.8, 1.0, 1.2, 1.4];
        let same = [0.7, 0.9, 1.0, 1.1, 1.3];
        assert_eq!(
            judge(&noisy, &same, Better::Lower, 0.10, 0.0),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let faster = [0.3, 0.35, 0.4, 0.45, 0.5];
        assert_eq!(
            judge(&noisy, &faster, Better::Lower, 0.10, 0.0),
            Verdict::Ok
        );
        // A floor wider than the spread resolves it.
        assert_eq!(judge(&noisy, &same, Better::Lower, 0.10, 1.0), Verdict::Ok);
    }
}
