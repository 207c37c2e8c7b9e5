//! Cross-checks of the lazy-reduction NTT hot path against its strict
//! oracle, across the moduli shapes the workspace actually
//! uses: CKKS scale primes (30–50 bits), the big q0 primes (up to 60
//! bits), the near-2^62 ceiling, and TFHE's "closest prime to 2^32".
//!
//! The lazy forward/inverse keep butterfly operands in `[0, 4p)` /
//! `[0, 2p)`; these tests pin down that the canonicalised output is
//! *bit-identical* to the strict reference path, and that round-trips
//! are exact.

use fhe_math::prime::{ntt_primes, prime_near};
use fhe_math::{Modulus, NttTable};
use proptest::prelude::*;

/// One NTT-friendly modulus per bit-width class used across the
/// workspace, for a given ring degree.
fn workspace_moduli(n: usize) -> Vec<Modulus> {
    let mut primes: Vec<u64> = Vec::new();
    for bits in [30u32, 36, 40, 45, 50, 59, 61] {
        primes.push(ntt_primes(bits, n, 1)[0]);
    }
    // TFHE's FFT->NTT substitution prime (closest prime to 2^32).
    primes.push(prime_near(1u64 << 32, n));
    primes.sort_unstable();
    primes.dedup();
    primes
        .into_iter()
        .map(|p| Modulus::new(p).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lazy_agrees_with_all_variants(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for n in [16usize, 256, 1024] {
            for m in workspace_moduli(n) {
                let t = NttTable::new(m, n);
                let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();

                let mut lazy = a.clone();
                t.forward(&mut lazy);
                prop_assert!(
                    lazy.iter().all(|&x| x < m.value()),
                    "lazy output not canonical for p={} n={n}", m.value()
                );

                let mut strict = a.clone();
                t.forward_strict(&mut strict);
                prop_assert_eq!(&lazy, &strict, "strict mismatch p={} n={}", m.value(), n);

                // Round-trip: lazy inverse on the lazy spectrum recovers
                // the input exactly, and matches the strict inverse.
                let mut back = lazy.clone();
                t.inverse(&mut back);
                prop_assert_eq!(&back, &a, "roundtrip mismatch p={} n={}", m.value(), n);
                let mut back_strict = lazy;
                t.inverse_strict(&mut back_strict);
                prop_assert_eq!(&back_strict, &a, "strict inverse mismatch p={} n={}", m.value(), n);
            }
        }
    }

    #[test]
    fn lazy_linearity(seed in any::<u64>()) {
        // forward(a + b) == forward(a) + forward(b) on the lazy path —
        // catches any stage where the [0, 4p) window could leak.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 512;
        for m in workspace_moduli(n) {
            let t = NttTable::new(m, n);
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
            let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();
            let (mut fa, mut fb, mut fs) = (a, b, sum);
            t.forward(&mut fa);
            t.forward(&mut fb);
            t.forward(&mut fs);
            for i in 0..n {
                prop_assert_eq!(fs[i], m.add(fa[i], fb[i]), "slot {} p={}", i, m.value());
            }
        }
    }
}
