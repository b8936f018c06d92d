//! Affine index sets and the disjointness decision procedure.
//!
//! The analyzer instantiates `thread_id` per hardware thread, so every loop
//! whose bounds become constants contributes a *term* `step · q, q ∈ [0,
//! count)` to each index expression it reaches. An [`IndexSet`] is therefore
//! a base offset plus an independent sum of such terms — exactly the access
//! shape of the paper's kernels (strided thread decompositions, tiled loops,
//! vector lanes, preload bursts).
//!
//! Two sets are proven disjoint by any of three criteria:
//!
//! 1. **Interval**: the attainable `[lo, hi]` ranges do not intersect.
//! 2. **Congruence**: with `m = gcd` of every step in both sets, all
//!    elements of a set are `≡ base (mod m)`; different residues ⇒ disjoint.
//! 3. **Factor decomposition**: pick a factor `F` (a step magnitude); if
//!    both sets split as `F·quotient + remainder` with remainders confined
//!    to `[0, F)`, the sets are disjoint when the quotient sets *or* the
//!    remainder sets are (recursively) disjoint. This is what separates
//!    `C[i·dim + j]` accesses by row and then by the thread stride inside a
//!    row.
//!
//! Everything is conservative: `unknown` sets overlap everything,
//! `empty` sets (a loop with zero trip count for this thread) overlap
//! nothing.

/// One independent affine term: contributes `step · q` for `q ∈ [0, count)`.
/// `count == None` means the trip count is unknown (unbounded for interval
/// purposes, still usable for congruence).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Term {
    pub step: i64,
    pub count: Option<u64>,
}

/// The set of element indices one access site touches for one thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexSet {
    pub base: i64,
    pub terms: Vec<Term>,
    /// Top: the index is not affine — any element may be touched.
    pub unknown: bool,
    /// Bottom: the access never executes for this thread (zero-trip loop).
    pub empty: bool,
}

impl IndexSet {
    /// The unanalyzable set (overlaps everything).
    pub fn unknown() -> Self {
        IndexSet {
            base: 0,
            terms: Vec::new(),
            unknown: true,
            empty: false,
        }
    }

    /// The never-executed set (overlaps nothing).
    pub fn empty() -> Self {
        IndexSet {
            base: 0,
            terms: Vec::new(),
            unknown: false,
            empty: true,
        }
    }

    /// Build from a base and raw terms, dropping degenerate ones.
    /// A term with `count == Some(0)` makes the whole set empty.
    pub fn new(base: i64, raw: Vec<Term>) -> Self {
        let mut terms = Vec::new();
        for t in raw {
            match t.count {
                Some(0) => return IndexSet::empty(),
                Some(1) => {} // q = 0 only: contributes nothing
                _ if t.step == 0 => {}
                _ => terms.push(t),
            }
        }
        terms.sort_by_key(|t| (t.step.abs(), t.step, t.count));
        IndexSet {
            base,
            terms,
            unknown: false,
            empty: false,
        }
    }

    /// `true` when the attainable bounds are exact: no unknown shape and
    /// every term has a known trip count. Exact sets attain both `lo()` and
    /// `hi()`, which is what makes NL004 a *proof* rather than a may-fact.
    pub fn is_exact(&self) -> bool {
        !self.unknown && !self.empty && self.terms.iter().all(|t| t.count.is_some())
    }

    /// Smallest attainable index (`None` = unbounded below / unknown).
    pub fn lo(&self) -> Option<i128> {
        if self.unknown || self.empty {
            return None;
        }
        let mut lo = self.base as i128;
        for t in &self.terms {
            if t.step >= 0 {
                continue; // q = 0 minimises
            }
            match t.count {
                Some(c) => lo += t.step as i128 * (c as i128 - 1),
                None => return None,
            }
        }
        Some(lo)
    }

    /// Largest attainable index (`None` = unbounded above / unknown).
    pub fn hi(&self) -> Option<i128> {
        if self.unknown || self.empty {
            return None;
        }
        let mut hi = self.base as i128;
        for t in &self.terms {
            if t.step <= 0 {
                continue;
            }
            match t.count {
                Some(c) => hi += t.step as i128 * (c as i128 - 1),
                None => return None,
            }
        }
        Some(hi)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Criterion 1: attainable intervals do not intersect.
fn interval_disjoint(a: &IndexSet, b: &IndexSet) -> bool {
    match (a.hi(), b.lo()) {
        (Some(ah), Some(bl)) if ah < bl => return true,
        _ => {}
    }
    match (b.hi(), a.lo()) {
        (Some(bh), Some(al)) if bh < al => return true,
        _ => {}
    }
    false
}

/// Criterion 2: all steps share a common modulus `m ≥ 2` and the bases fall
/// in different residue classes.
fn congruence_disjoint(a: &IndexSet, b: &IndexSet) -> bool {
    let mut m: u64 = 0;
    for t in a.terms.iter().chain(b.terms.iter()) {
        m = gcd(m, t.step.unsigned_abs());
    }
    m >= 2 && (a.base.rem_euclid(m as i64) != b.base.rem_euclid(m as i64))
}

/// Split `s` as `F · quotient + remainder` where the remainder part is
/// provably confined to `[0, F)`. Returns `None` when the remainder cannot
/// be confined (then the factorisation tells us nothing).
fn split(s: &IndexSet, f: i64) -> Option<(IndexSet, IndexSet)> {
    debug_assert!(f >= 2);
    let base_rem = s.base.rem_euclid(f);
    let base_quo = s.base.div_euclid(f);
    let mut quo_terms = Vec::new();
    let mut rem = IndexSet::new(base_rem, Vec::new());
    for t in &s.terms {
        if t.step % f == 0 {
            quo_terms.push(Term {
                step: t.step / f,
                count: t.count,
            });
        } else {
            rem.terms.push(*t);
        }
    }
    rem.terms.sort_by_key(|t| (t.step.abs(), t.step, t.count));
    // The remainder must provably stay inside [0, F).
    let (lo, hi) = (rem.lo()?, rem.hi()?);
    if !rem.is_exact() || lo < 0 || hi >= f as i128 {
        return None;
    }
    Some((IndexSet::new(base_quo, quo_terms), rem))
}

/// Criterion 3 driver: try every step magnitude of either set as a factor.
fn factor_disjoint(a: &IndexSet, b: &IndexSet, depth: u32) -> bool {
    let mut factors: Vec<i64> = a
        .terms
        .iter()
        .chain(b.terms.iter())
        .map(|t| t.step.abs())
        .filter(|&f| f >= 2)
        .collect();
    factors.sort_unstable();
    factors.dedup();
    // Largest factors first: they correspond to the outermost dimension.
    for &f in factors.iter().rev() {
        if let (Some((qa, ra)), Some((qb, rb))) = (split(a, f), split(b, f)) {
            // x = F·q + r with r ∈ [0, F) is unique, so the sets intersect
            // iff the quotient sets AND the remainder sets both intersect.
            if disjoint_at(&qa, &qb, depth + 1) || disjoint_at(&ra, &rb, depth + 1) {
                return true;
            }
        }
    }
    false
}

fn disjoint_at(a: &IndexSet, b: &IndexSet, depth: u32) -> bool {
    if a.empty || b.empty {
        return true;
    }
    if a.unknown || b.unknown {
        return false;
    }
    if interval_disjoint(a, b) || congruence_disjoint(a, b) {
        return true;
    }
    if depth < 8 && factor_disjoint(a, b, depth) {
        return true;
    }
    false
}

/// Are the two sets provably disjoint?
pub fn disjoint(a: &IndexSet, b: &IndexSet) -> bool {
    disjoint_at(a, b, 0)
}

/// Human rendering of a set for diagnostics: `{base + 4·[0,8) + 1·[0,4)}`.
pub fn describe(s: &IndexSet) -> String {
    if s.unknown {
        return "{unknown}".to_string();
    }
    if s.empty {
        return "{}".to_string();
    }
    let mut out = format!("{{{}", s.base);
    for t in &s.terms {
        match t.count {
            Some(c) => out.push_str(&format!(" + {}·[0,{})", t.step, c)),
            None => out.push_str(&format!(" + {}·[0,∞)", t.step)),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(base: i64, terms: &[(i64, Option<u64>)]) -> IndexSet {
        IndexSet::new(
            base,
            terms
                .iter()
                .map(|&(step, count)| Term { step, count })
                .collect(),
        )
    }

    #[test]
    fn interval_criterion() {
        // [0, 7] vs [8, 15]
        let a = set(0, &[(1, Some(8))]);
        let b = set(8, &[(1, Some(8))]);
        assert!(disjoint(&a, &b));
        assert!(!disjoint(&a, &a));
    }

    #[test]
    fn congruence_criterion() {
        // {0, 2, 4, …} vs {1, 3, 5, …}: same interval, different parity.
        let a = set(0, &[(2, Some(100))]);
        let b = set(1, &[(2, Some(100))]);
        assert!(disjoint(&a, &b));
        let c = set(2, &[(2, Some(100))]);
        assert!(!disjoint(&a, &c));
    }

    #[test]
    fn congruence_with_unknown_counts() {
        // Unknown trip counts still allow modular reasoning.
        let a = set(0, &[(4, None)]);
        let b = set(2, &[(4, None)]);
        assert!(disjoint(&a, &b));
    }

    #[test]
    fn factor_criterion_row_major() {
        // Threads t=0 and t=1 of C[i·16 + j], i = t + 2q, j ∈ [0,16):
        // rows have different parity, columns cover the full row.
        let t0 = set(0, &[(32, Some(8)), (1, Some(16))]);
        let t1 = set(16, &[(32, Some(8)), (1, Some(16))]);
        assert!(disjoint(&t0, &t1));
        // Same thread overlaps itself.
        assert!(!disjoint(&t0, &t0));
    }

    #[test]
    fn factor_criterion_requires_confined_remainder() {
        // j ∈ [0, 20) spills out of a row of 16: no proof, must overlap.
        let t0 = set(0, &[(32, Some(8)), (1, Some(20))]);
        let t1 = set(16, &[(32, Some(8)), (1, Some(20))]);
        assert!(!disjoint(&t0, &t1));
    }

    #[test]
    fn nested_factor_blocked_tiles() {
        // Blocked GEMM write-back: dim=16, bs=8, NT=2.
        // Thread t writes rows {t·8 + 16·q + r : r ∈ [0,8)}, cols [0,16)…
        // flattened: base t·8·16, terms 256·q, 16·r, 1·e.
        let t0 = set(0, &[(256, Some(1)), (16, Some(8)), (1, Some(8))]);
        let t1 = set(128, &[(256, Some(1)), (16, Some(8)), (1, Some(8))]);
        assert!(disjoint(&t0, &t1));
    }

    #[test]
    fn empty_and_unknown() {
        let e = IndexSet::empty();
        let u = IndexSet::unknown();
        let a = set(0, &[(1, Some(4))]);
        assert!(disjoint(&e, &a));
        assert!(disjoint(&e, &u));
        assert!(!disjoint(&u, &a));
        // Zero-count term collapses to empty.
        assert!(set(5, &[(3, Some(0))]).empty);
    }

    #[test]
    fn exactness_and_bounds() {
        let a = set(4, &[(8, Some(3)), (-1, Some(2))]);
        assert!(a.is_exact());
        assert_eq!(a.lo(), Some(3));
        assert_eq!(a.hi(), Some(20));
        let b = set(4, &[(8, None)]);
        assert!(!b.is_exact());
        assert_eq!(b.lo(), Some(4));
        assert_eq!(b.hi(), None);
    }

    #[test]
    fn describe_is_stable() {
        let a = set(3, &[(16, Some(8)), (1, None)]);
        assert_eq!(describe(&a), "{3 + 1·[0,∞) + 16·[0,8)}");
    }
}
