//! Workload inputs: solve pattern sets with seeded right-hand sides and
//! their forced-sequential reference answers.

use crate::util::reference_runtime;
use rtpl::runtime::Runtime;
use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::rng::SmallRng;
use rtpl::sparse::{Csr, PatternFingerprint};
use std::sync::Arc;

/// Solve patterns, one right-hand side each, and the reference solution
/// of every pattern.
pub struct SolveSet {
    pub factors: Vec<Arc<IluFactors>>,
    pub keys: Vec<PatternFingerprint>,
    pub rhs: Vec<Vec<f64>>,
    pub refs: Vec<Vec<f64>>,
}

impl SolveSet {
    /// Seeds one right-hand side per pattern and solves each once on the
    /// reference runtime.
    pub fn new(factors: Vec<IluFactors>, seed: u64) -> Result<SolveSet, String> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_7e57);
        let rhs: Vec<Vec<f64>> = factors
            .iter()
            .map(|f| seeded_vec(&mut rng, f.n()))
            .collect();
        let reference = reference_runtime();
        let refs = factors
            .iter()
            .zip(&rhs)
            .map(|(f, b)| {
                let mut x = vec![0.0; f.n()];
                reference
                    .solve(f, b, &mut x)
                    .map_err(|e| format!("reference solve: {e}"))?;
                Ok(x)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SolveSet {
            keys: factors.iter().map(Runtime::solve_key).collect(),
            factors: factors.into_iter().map(Arc::new).collect(),
            rhs,
            refs,
        })
    }

    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Stored entries of L and U over all patterns.
    pub fn nnz(&self) -> usize {
        self.factors.iter().map(|f| f.nnz()).sum()
    }

    /// Computed bytes the patterns occupy: CSR values and column indices,
    /// row pointers, and the rhs/solution vectors.
    pub fn working_set_bytes(&self) -> u64 {
        self.factors
            .iter()
            .map(|f| (12 * f.nnz() + 8 * 2 * (f.n() + 1) + 16 * f.n()) as u64)
            .sum()
    }
}

/// The triangular factors of a unit-lower-triangular dependency pattern
/// `m`: `L` is its strict lower part, `U = mᵀ` (upper, unit diagonal).
pub fn factors_of(m: &Csr) -> IluFactors {
    IluFactors {
        l: m.strict_lower(),
        u: m.transpose().upper(),
    }
}

/// A vector of `n` values in `[0.5, 1.5)`.
pub fn seeded_vec(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| 0.5 + rng.gen_f64()).collect()
}
