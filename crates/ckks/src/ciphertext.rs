//! CKKS ciphertexts.

use fhe_math::RnsPoly;

/// A degree-1 RLWE ciphertext `(c0, c1)` decrypting to `c0 + c1 * s`.
/// Both components hold canonical `[0, p)` residues, like every
/// `RnsPoly` at rest.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// Constant component (evaluation form).
    pub c0: RnsPoly,
    /// Linear component (evaluation form).
    pub c1: RnsPoly,
    /// Current level `l` (the polynomials live over `q_0..q_l`).
    pub level: usize,
    /// Current scale Delta.
    pub scale: f64,
}

impl Ciphertext {
    /// Ring degree.
    pub fn n(&self) -> usize {
        self.c0.n()
    }

    /// Number of RNS limbs (`level + 1`).
    pub fn limbs(&self) -> usize {
        self.c0.limbs()
    }
}

/// A degree-2 ciphertext produced by tensoring, before relinearisation:
/// decrypts to `d0 + d1 s + d2 s^2`. Its components are canonical, like
/// a [`Ciphertext`]'s.
#[derive(Debug, Clone)]
pub struct Ciphertext3 {
    /// Constant component.
    pub d0: RnsPoly,
    /// Degree-1 component.
    pub d1: RnsPoly,
    /// Degree-2 component.
    pub d2: RnsPoly,
    /// Level.
    pub level: usize,
    /// Scale (product of the operand scales).
    pub scale: f64,
}
