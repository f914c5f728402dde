//! Associative operators for scans and reductions.
//!
//! Operators are zero-sized marker types implementing [`ScanOp`]; kernels
//! are generic over them, so each (element, operator) pair monomorphises
//! to straight-line code — the Rust analog of the templated CUB/Thrust
//! primitives the paper's CUDA implementation would use.

use numc::Complex;
use simt::DeviceCopy;

/// An associative binary operator with identity, over device-resident
/// elements.
///
/// # Contract
///
/// `combine` must be associative and `identity()` must be its neutral
/// element. Commutativity is *not* required (scans preserve order), but
/// floating-point addition is only approximately associative: device and
/// host results may differ by rounding, which tests compare with
/// tolerances.
pub trait ScanOp<T: DeviceCopy>: 'static {
    /// Neutral element of [`ScanOp::combine`].
    fn identity() -> T;
    /// The associative combination.
    fn combine(a: T, b: T) -> T;
    /// Modeled flop cost of one `combine` (for the timing model).
    const FLOPS: u64;
    /// Name fragment used in kernel labels.
    const NAME: &'static str;
}

/// `f64` addition.
pub struct AddF64;
impl ScanOp<f64> for AddF64 {
    fn identity() -> f64 {
        0.0
    }
    fn combine(a: f64, b: f64) -> f64 {
        a + b
    }
    const FLOPS: u64 = 1;
    const NAME: &'static str = "add_f64";
}

/// `u32` addition (index arithmetic, compaction).
pub struct AddU32;
impl ScanOp<u32> for AddU32 {
    fn identity() -> u32 {
        0
    }
    fn combine(a: u32, b: u32) -> u32 {
        a + b
    }
    const FLOPS: u64 = 1;
    const NAME: &'static str = "add_u32";
}

/// Complex addition — the operator of the paper's backward sweep
/// (summing child branch currents).
pub struct AddComplex;
impl ScanOp<Complex> for AddComplex {
    fn identity() -> Complex {
        Complex::ZERO
    }
    fn combine(a: Complex, b: Complex) -> Complex {
        a + b
    }
    const FLOPS: u64 = Complex::ADD_FLOPS;
    const NAME: &'static str = "add_c64";
}

/// `f64` maximum — the operator of the convergence check (∞-norm of the
/// voltage update).
///
/// NaN *propagates*: if either operand is NaN the result is NaN. Rust's
/// `f64::max` silently drops NaN operands, which would let a solver whose
/// residual went NaN report a small (finite) ∞-norm and claim
/// convergence; an absorbing NaN keeps corrupt data visible all the way
/// up the reduction tree. The operator stays associative because NaN is
/// absorbing under this definition.
pub struct MaxF64;
impl ScanOp<f64> for MaxF64 {
    fn identity() -> f64 {
        f64::NEG_INFINITY
    }
    fn combine(a: f64, b: f64) -> f64 {
        if a.is_nan() {
            a
        } else if b.is_nan() {
            b
        } else {
            a.max(b)
        }
    }
    const FLOPS: u64 = 1;
    const NAME: &'static str = "max_f64";
}

/// `f64` minimum (voltage-profile reporting). NaN propagates, as in
/// [`MaxF64`].
pub struct MinF64;
impl ScanOp<f64> for MinF64 {
    fn identity() -> f64 {
        f64::INFINITY
    }
    fn combine(a: f64, b: f64) -> f64 {
        if a.is_nan() {
            a
        } else if b.is_nan() {
            b
        } else {
            a.min(b)
        }
    }
    const FLOPS: u64 = 1;
    const NAME: &'static str = "min_f64";
}

/// ∞-norm accumulator: NaN-propagating maximum of absolute values — the
/// operator of every solver's convergence reduction.
///
/// Inputs are the per-bus `|ΔV|` magnitudes (non-negative by
/// construction, or NaN when an update went `Inf − Inf`/`0/0`). On that
/// domain `0.0` is a true identity and the operator is associative:
/// results are non-negative, so the inner `abs` is idempotent, and NaN is
/// absorbing. For *signed* inputs the identity law would not hold
/// (`combine(x, 0) = |x|`), so keep this operator on magnitudes.
pub struct MaxAbsF64;
impl ScanOp<f64> for MaxAbsF64 {
    fn identity() -> f64 {
        0.0
    }
    fn combine(a: f64, b: f64) -> f64 {
        if a.is_nan() {
            a
        } else if b.is_nan() {
            b
        } else {
            a.abs().max(b.abs())
        }
    }
    const FLOPS: u64 = 1;
    const NAME: &'static str = "max_abs_f64";
}

/// `MaxAbsF64::combine(cur, x.abs())` for a running max of magnitudes,
/// bit for bit, without the `hypot` when the squared norm already
/// decides it. Inside `(1e-150, 1e150)` neither `cur²` nor a smaller
/// `|x|²` overflows or loses the comparison to underflow, and the
/// `1e-12` margin dwarfs the few ulps of rounding in `norm_sqr`, `cur²`
/// and `hypot`: a skipped `x` has `hypot(x) ≤ cur`, so the fold would
/// have returned `cur` anyway. NaN, ties and everything outside the
/// window take the exact path.
#[inline]
pub fn max_abs_fold(cur: f64, x: Complex) -> f64 {
    if cur > 1e-150 && cur < 1e150 && x.norm_sqr() < cur * cur * (1.0 - 1e-12) {
        return cur;
    }
    MaxAbsF64::combine(cur, x.abs())
}

/// `cur.min(x.abs())` for a running min of magnitudes, bit for bit —
/// the mirror of [`max_abs_fold`]: a skipped `x` has `hypot(x) ≥ cur`.
#[inline]
pub fn min_abs_fold(cur: f64, x: Complex) -> f64 {
    if cur > 1e-150 && cur < 1e150 && x.norm_sqr() > cur * cur * (1.0 + 1e-12) {
        return cur;
    }
    cur.min(x.abs())
}

/// The (flag, value) pair a segmented scan operates on, with the standard
/// lifted operator: a head flag resets accumulation at its element.
///
/// `(f1,v1) ⊗ (f2,v2) = (f1∨f2, if f2 { v2 } else { v1 ⊕ v2 })`
///
/// The lifted operator is associative whenever `⊕` is, which is what lets
/// segmented scan reuse unsegmented scan networks (Sengupta et al., 2007).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SegPair<T> {
    /// OR of head flags seen so far.
    pub flag: u32,
    /// Accumulated value.
    pub value: T,
}

/// Combines two segmented-scan pairs under operator `Op`.
#[inline]
pub fn seg_combine<T: DeviceCopy, Op: ScanOp<T>>(a: SegPair<T>, b: SegPair<T>) -> SegPair<T> {
    SegPair {
        flag: a.flag | b.flag,
        value: if b.flag != 0 { b.value } else { Op::combine(a.value, b.value) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numc::c;

    #[test]
    fn identities_are_neutral() {
        assert_eq!(AddF64::combine(AddF64::identity(), 3.5), 3.5);
        assert_eq!(AddU32::combine(7, AddU32::identity()), 7);
        assert_eq!(AddComplex::combine(AddComplex::identity(), c(1.0, 2.0)), c(1.0, 2.0));
        assert_eq!(MaxF64::combine(MaxF64::identity(), -1e300), -1e300);
        assert_eq!(MinF64::combine(MinF64::identity(), 1e300), 1e300);
    }

    #[test]
    fn max_min_behave() {
        assert_eq!(MaxF64::combine(2.0, 3.0), 3.0);
        assert_eq!(MinF64::combine(2.0, 3.0), 2.0);
    }

    #[test]
    fn max_min_propagate_nan_from_either_side() {
        assert!(MaxF64::combine(f64::NAN, 3.0).is_nan());
        assert!(MaxF64::combine(3.0, f64::NAN).is_nan());
        assert!(MaxF64::combine(f64::NAN, f64::NEG_INFINITY).is_nan());
        assert!(MinF64::combine(f64::NAN, 3.0).is_nan());
        assert!(MinF64::combine(3.0, f64::NAN).is_nan());
        assert!(MinF64::combine(f64::INFINITY, f64::NAN).is_nan());
    }

    #[test]
    fn max_min_keep_infinities() {
        assert_eq!(MaxF64::combine(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(MaxF64::combine(f64::NEG_INFINITY, 1.0), 1.0);
        assert_eq!(MinF64::combine(f64::NEG_INFINITY, 1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn max_abs_is_an_inf_norm_on_magnitudes() {
        assert_eq!(MaxAbsF64::combine(MaxAbsF64::identity(), 3.0), 3.0);
        assert_eq!(MaxAbsF64::combine(2.0, 5.0), 5.0);
        assert_eq!(MaxAbsF64::combine(-7.0, 2.0), 7.0, "signed inputs fold to magnitudes");
        assert!(MaxAbsF64::combine(f64::NAN, 0.0).is_nan());
        assert!(MaxAbsF64::combine(0.0, f64::NAN).is_nan());
        assert_eq!(MaxAbsF64::combine(f64::INFINITY, 1.0), f64::INFINITY);
    }

    #[test]
    fn nan_propagating_max_stays_associative_on_samples() {
        let vals = [1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0, 0.0];
        let eq = |a: f64, b: f64| (a.is_nan() && b.is_nan()) || a == b;
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    let left = MaxF64::combine(MaxF64::combine(a, b), c);
                    let right = MaxF64::combine(a, MaxF64::combine(b, c));
                    assert!(eq(left, right), "max: ({a}, {b}, {c})");
                    let left = MaxAbsF64::combine(MaxAbsF64::combine(a.abs(), b.abs()), c.abs());
                    let right = MaxAbsF64::combine(a.abs(), MaxAbsF64::combine(b.abs(), c.abs()));
                    assert!(eq(left, right), "max_abs: ({a}, {b}, {c})");
                }
            }
        }
    }

    #[test]
    fn seg_combine_no_flag_accumulates() {
        let a = SegPair { flag: 0, value: 2.0 };
        let b = SegPair { flag: 0, value: 3.0 };
        assert_eq!(seg_combine::<f64, AddF64>(a, b), SegPair { flag: 0, value: 5.0 });
    }

    #[test]
    fn seg_combine_right_flag_resets() {
        let a = SegPair { flag: 0, value: 100.0 };
        let b = SegPair { flag: 1, value: 3.0 };
        assert_eq!(seg_combine::<f64, AddF64>(a, b), SegPair { flag: 1, value: 3.0 });
    }

    #[test]
    fn seg_combine_left_flag_propagates() {
        let a = SegPair { flag: 1, value: 4.0 };
        let b = SegPair { flag: 0, value: 3.0 };
        assert_eq!(seg_combine::<f64, AddF64>(a, b), SegPair { flag: 1, value: 7.0 });
    }

    #[test]
    fn seg_combine_is_associative_on_samples() {
        // Exhaustive over flag patterns with integer-valued f64 (exact).
        let vals = [1.0, 2.0, 4.0];
        for fa in [0u32, 1] {
            for fb in [0u32, 1] {
                for fc in [0u32, 1] {
                    let a = SegPair { flag: fa, value: vals[0] };
                    let b = SegPair { flag: fb, value: vals[1] };
                    let c_ = SegPair { flag: fc, value: vals[2] };
                    let left = seg_combine::<f64, AddF64>(seg_combine::<f64, AddF64>(a, b), c_);
                    let right = seg_combine::<f64, AddF64>(a, seg_combine::<f64, AddF64>(b, c_));
                    assert_eq!(left, right, "flags {fa}{fb}{fc}");
                }
            }
        }
    }
}

/// Per-phase complex addition over three-phase triples — the backward
/// sweep operator of the unbalanced solver.
pub struct AddCVec3;
impl ScanOp<numc::CVec3> for AddCVec3 {
    fn identity() -> numc::CVec3 {
        numc::CVec3::ZERO
    }
    fn combine(a: numc::CVec3, b: numc::CVec3) -> numc::CVec3 {
        a + b
    }
    const FLOPS: u64 = numc::CVec3::ADD_FLOPS;
    const NAME: &'static str = "add_cv3";
}

#[cfg(test)]
mod fold_tests {
    use super::*;
    use numc::c;

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    /// `x` moved by `k` ulps (towards +∞ for positive `k`).
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    /// Magnitudes at and around every edge the folds care about.
    fn edges() -> Vec<f64> {
        let mut v = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            ulps(f64::MIN_POSITIVE, -1),
            1e-200,
            1e-154,
            0.5,
            1.0,
            3.0,
            1e154,
            1e200,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for e in [1e-150, 1e150] {
            v.extend((-3..=3).map(|k| ulps(e, k)));
        }
        let neg: Vec<f64> = v.iter().map(|x| -x).collect();
        v.extend(neg);
        v
    }

    fn check(cur: f64, x: Complex) {
        let max = max_abs_fold(cur, x);
        let want = MaxAbsF64::combine(cur, x.abs());
        assert!(same_bits(max, want), "max_abs_fold({cur:e}, {x:?}) = {max:e}, want {want:e}");
        let min = min_abs_fold(cur, x);
        let want = cur.min(x.abs());
        assert!(same_bits(min, want), "min_abs_fold({cur:e}, {x:?}) = {min:e}, want {want:e}");
    }

    #[test]
    fn folds_match_the_hypot_folds_on_edge_operands() {
        let e = edges();
        for &cur in &e {
            for &re in &e {
                for &im in &e {
                    check(cur, c(re, im));
                }
            }
        }
    }

    #[test]
    fn folds_match_the_hypot_folds_on_near_ties() {
        // |x| within a few ulps of `cur`, at several phase angles, across
        // the window and just outside it.
        let mut curs = vec![1e-149, 2.5e-100, 1e-3, 0.7, 1.0, 1.3, 7.0, 1e100, 1e149];
        curs.extend([1e-150, 1e150].iter().flat_map(|&e| (-2..=2).map(move |k| ulps(e, k))));
        for &cur in &curs {
            for angle in [0.0, 0.3, std::f64::consts::FRAC_PI_4, 1.1, std::f64::consts::FRAC_PI_2] {
                let (s, co) = f64::sin_cos(angle);
                for k in -4..=4 {
                    let m = ulps(cur, k);
                    check(cur, c(m * co, m * s));
                    check(cur, c(-m * s, m * co));
                }
            }
        }
    }
}

#[cfg(test)]
mod cvec3_tests {
    use super::*;
    use numc::{c, CVec3};

    #[test]
    fn add_cvec3_identity_and_combine() {
        let x = CVec3::new(c(1.0, 2.0), c(-1.0, 0.0), c(0.5, 0.5));
        assert_eq!(AddCVec3::combine(AddCVec3::identity(), x), x);
        let y = CVec3::splat(c(1.0, 1.0));
        let z = AddCVec3::combine(x, y);
        assert_eq!(z.a, c(2.0, 3.0));
        assert_eq!(z.b, c(0.0, 1.0));
    }
}
