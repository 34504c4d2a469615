//! Helpers shared by the integration tests that hold solves to the
//! natural-order oracle.

use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::Csr;

/// Solvable factors from a synthetic unit-lower-triangular dependency
/// matrix: `L` is its strict lower triangle, `U` its transpose's upper
/// triangle — structurally distinct sweeps, no factorization needed.
pub fn factors_from_pattern(m: &Csr) -> IluFactors {
    IluFactors {
        l: m.strict_lower(),
        u: m.transpose().upper(),
    }
}

/// The bit-exact reference every compiled result is held to:
/// natural-order sweeps with the compiled layout's arithmetic —
/// operand products subtracted in CSR order, and the backward row scaled by
/// `1.0 / d`. (`rtpl::sparse::triangular` divides, so it agrees only to
/// rounding.)
pub fn oracle_solve(f: &IluFactors, b: &[f64]) -> Vec<f64> {
    let n = f.n();
    let mut y = vec![0.0; n];
    for i in 0..n {
        y[i] = f.l.row(i).fold(b[i], |acc, (j, v)| acc - v * y[j]);
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let (mut acc, mut d) = (y[i], 0.0);
        for (j, v) in f.u.row(i) {
            match j.cmp(&i) {
                std::cmp::Ordering::Greater => acc -= v * x[j],
                std::cmp::Ordering::Equal => d = v,
                std::cmp::Ordering::Less => {}
            }
        }
        x[i] = acc * (1.0 / d);
    }
    x
}
