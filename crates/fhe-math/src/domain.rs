//! The shared residue-domain assertion: `debug_assert_domain!`.
//!
//! Every kernel entry point in this workspace sits on one side of the
//! lazy-reduction contract: strict kernels require canonical `[0, p)`
//! residues (everything at rest, every [`RnsPoly`](crate::RnsPoly)
//! included), lazy kernels require (and produce) `[0, 2p)`
//! representatives inside one engine call. Those contracts used to be
//! policed by hand-written per-entry `debug_assert!`s with drifting
//! messages; this macro is the single shared form, so the checks are
//! uniform and `trinity-lint`
//! (rule `missing-domain-assert`) has one anchor to verify — every
//! public `*_lazy` kernel entry must invoke it (or carry an explicit
//! `trinity-lint: allow(...)` with a reason).
//!
//! Variants, selected by the leading keyword:
//!
//! | form | checks |
//! |------|--------|
//! | `canonical: poly, kernel` | every residue of an [`RnsPoly`](crate::RnsPoly) is `< p` for its limb |
//! | `within_2p: poly, kernel` | every residue of an `RnsPoly` is `< 2p` for its limb |
//! | `slice_canonical: m, row, kernel` | every element of a `&[u64]` row is `< p` |
//! | `slice_within_2p: m, row, kernel` | every element of a `&[u64]` row is `< 2p` |
//! | `scalar_canonical: m, kernel, x...` | each scalar operand is `< p` |
//! | `scalar_within_2p: m, kernel, x...` | each scalar operand is `< 2p` |
//!
//! All variants compile to a `debug_assert!` — zero cost in release
//! builds, a panic naming the offending kernel under
//! `debug_assertions` (tier-1 tests run with `debug-assertions = true`
//! even at `opt-level = 2`).

/// Debug-asserts a kernel entry's residue-domain contract.
///
/// See the [module docs](crate::domain) for the variant table. The
/// `kernel` argument is the entry-point name used in the panic message.
///
/// # Examples
///
/// ```
/// use fhe_math::{debug_assert_domain, Modulus};
/// let m = Modulus::new(65537).unwrap();
/// let (a, b) = (3u64, 70000u64); // 70000 < 2p: a valid lazy operand
/// debug_assert_domain!(scalar_within_2p: m, "add_lazy", a, b);
/// let row = [1u64, 2, 65536];
/// debug_assert_domain!(slice_canonical: m, &row, "forward_strict");
/// ```
#[macro_export]
macro_rules! debug_assert_domain {
    (canonical: $poly:expr, $kernel:expr) => {
        debug_assert!(
            {
                let p = &$poly;
                p.flat()
                    .chunks_exact(p.n())
                    .zip(p.basis().moduli())
                    .all(|(row, m)| row.iter().all(|&x| x < m.value()))
            },
            "{} requires canonical residues — a word outside [0, p) leaked in",
            $kernel
        )
    };
    (within_2p: $poly:expr, $kernel:expr) => {
        debug_assert!(
            {
                let p = &$poly;
                p.flat()
                    .chunks_exact(p.n())
                    .zip(p.basis().moduli())
                    .all(|(row, m)| row.iter().all(|&x| x < 2 * m.value()))
            },
            "{}: input outside the [0, 2p) window",
            $kernel
        )
    };
    (slice_canonical: $m:expr, $row:expr, $kernel:expr) => {
        debug_assert!(
            $row.iter().all(|&x| x < $m.value()),
            "{} requires canonical input — a lazy [0, 2p) residue leaked in",
            $kernel
        )
    };
    (slice_within_2p: $m:expr, $row:expr, $kernel:expr) => {
        debug_assert!(
            $row.iter().all(|&x| x < 2 * $m.value()),
            "{}: input outside the [0, 2p) window",
            $kernel
        )
    };
    (scalar_canonical: $m:expr, $kernel:expr, $($x:expr),+ $(,)?) => {
        debug_assert!(
            true $(&& ($x) < $m.value())+,
            "{}: operand outside the canonical [0, p) range",
            $kernel
        )
    };
    (scalar_within_2p: $m:expr, $kernel:expr, $($x:expr),+ $(,)?) => {
        debug_assert!(
            true $(&& ($x) < 2 * $m.value())+,
            "{}: operand outside the [0, 2p) window",
            $kernel
        )
    };
}

#[cfg(test)]
mod tests {
    use crate::Modulus;

    #[test]
    fn scalar_variants_accept_in_window_operands() {
        let m = Modulus::new(97).unwrap();
        debug_assert_domain!(scalar_canonical: m, "add", 0u64, 96u64);
        debug_assert_domain!(scalar_within_2p: m, "add_lazy", 0u64, 193u64);
    }

    #[test]
    fn slice_variants_accept_in_window_rows() {
        let m = Modulus::new(97).unwrap();
        let canon = [0u64, 1, 96];
        let lazy = [0u64, 97, 193];
        debug_assert_domain!(slice_canonical: m, &canon, "forward_strict");
        debug_assert_domain!(slice_within_2p: m, &lazy, "forward");
    }

    #[test]
    #[should_panic(expected = "outside the [0, 2p) window")]
    #[cfg(debug_assertions)]
    fn scalar_within_2p_rejects_escaped_operand() {
        let m = Modulus::new(97).unwrap();
        debug_assert_domain!(scalar_within_2p: m, "add_lazy", 194u64);
    }

    #[test]
    #[should_panic(expected = "a lazy [0, 2p) residue leaked in")]
    #[cfg(debug_assertions)]
    fn slice_canonical_rejects_lazy_residue() {
        let m = Modulus::new(97).unwrap();
        let row = [0u64, 97];
        debug_assert_domain!(slice_canonical: m, &row, "forward_strict");
    }
}
