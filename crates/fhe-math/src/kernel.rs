//! Pluggable batched kernel backends for the flat-limb hot paths.
//!
//! The paper's pipelines run butterflies, MACs and slot permutations as
//! *wide, batched* passes over scratchpad rows, keeping operands in
//! redundant form between stages (the `[0, 4p)` butterfly window and
//! the `[0, 2p)` cross-kernel window) and folding only at memory
//! writeback. [`KernelBackend`] is that contract in software, with one
//! rule:
//!
//! * **Production dispatches `*_batch`.** Every caller outside this
//!   module hands [`active`] a whole flat limb-major buffer (`rows * n`
//!   words; a lone row is a 1-row batch): NTTs, folds, lazy
//!   MAC/add/sub/mul, slot permutes, the `BConv` matmul (sliced over
//!   *output* limb rows) and the TFHE gadget decomposition (sliced over
//!   input rows, never across the levels of the digit carry chain).
//! * **Row passes are the backend-internal SPI.** The `*_batch`
//!   defaults loop `self`'s row passes; a backend overrides the passes
//!   it accelerates.
//! * **Provided bodies are the reference.** Each row pass has a
//!   one-element-at-a-time provided body; every override must match it
//!   **bit for bit** (asserted against the NTT golden vectors).
//!
//! Two implementations ship: [`ScalarBackend`] (the provided bodies)
//! and [`LaneBackend`] (see below). Both run a batch's rows in order on
//! the calling thread; concurrency is whole jobs on the process pool
//! ([`crate::pool::shared`]), never the rows of one kernel call.
//!
//! # What `LaneBackend` is
//!
//! A row pass is overridden only where the `lane_row_passes` group of
//! `crates/bench/benches/micro.rs` shows a win over the reference (the
//! ledger test `lane_row_passes_beat_the_reference` holds every
//! committed row to it). The *portable overrides* are the 8-word
//! branchless `fold_4p_to_2p` and `fold_4p_to_canonical`, the 8-word
//! `permute` gather, the Gentleman–Sande `inverse_stages`, the BConv
//! matmul streamed row-wise over 8-word `u128` accumulator blocks, and
//! a division-free gadget decomposition with unit-stride digit passes.
//! Every other row pass — `forward_stages`, `fold_2p_to_canonical`,
//! `scale_shoup`, `scale_shoup_lazy`, the MAC, the pointwise multiply,
//! `add_lazy` and `sub_lazy` — is the reference body. Beside them sit
//! the *wide batch passes*: `forward_batch`,
//! `inverse_batch`, `mul_acc_lazy_batch`, `mul_lazy_batch`,
//! `convert_approx_batch`, `convert_exact_batch` and `decompose_batch`
//! pick, **per row**, the AVX-512 IFMA body of the private `wide`
//! module when
//!
//! * the CPU reports `avx512f` and `avx512ifma`,
//! * the row's modulus is at most [`WIDE_MAX_P`] `= 2^50` (`4p <= 2^52`:
//!   the whole butterfly window fits the 52-bit multiplier) and not a
//!   power of two — for a BConv output row also above `2^5` (identity
//!   3); for the decomposition `q < 2^32` with a gadget of depth
//!   `beta = base_log * levels` in `1 <= base_log`, `beta <= 31`,
//!   `2^beta < q` (identity 4),
//! * the row is a power-of-two `n >= 16` (NTT) or a multiple of 8 words
//!   (MAC, BConv, decomposition), and
//! * for BConv, every multiplier operand is below `2^52`: the row's at
//!   most 16 weights, and the batch's digit words and overshoot
//!   multiples — the kernel does not see the source moduli, so it scans
//!   those once per batch, in every build; for the decomposition, every
//!   word of the row is below `q`, scanned per row,
//!
//! and the row passes otherwise. Nothing selects between them but
//! the platform and the modulus: no backend name, environment value,
//! feature or flag. The wide bodies return the reference's words, not
//! merely congruent ones, by four identities:
//!
//! 1. **The Shoup quotient is exact in 52-bit pieces.**
//!    [`Modulus::mul_shoup_lazy`] returns `a*w - q*p` for
//!    `q = floor(a * ws / 2^64)`. Split `ws = h * 2^12 + l` (`l < 2^12`)
//!    and let `a * h = q' * 2^52 + f` — for `a < 2^52` two 52-bit
//!    multiply-adds. Then `a * ws = q' * 2^64 + (f * 2^12 + a * l)` with
//!    both terms below `2^64`, so `q = q' + c` where `c = 1` exactly when
//!    `f + floor(a*l / 2^12) >= 2^52`, and `floor(a*l / 2^12)` is the
//!    high half of the 52-bit product `a * (l * 2^40)`. The remainder is
//!    below `2p <= 2^51`, so taking it modulo `2^52` loses nothing. Every
//!    butterfly operand is below `4p <= 2^52`; hence each stage, the
//!    exit folds and the `n^{-1}` scaling reproduce the reference's own
//!    `[0, 2p)` / `[0, 4p)` representatives.
//! 2. **The reference MAC is canonical.** Over `a <= 4p^2 + 2p`
//!    [`Modulus::reduce_u128_lazy`] returns `a mod p` itself (its docs
//!    have the proof; `reduce_u128_lazy_is_canonical_over_the_mac_range`
//!    pins it), so *any* exact `(x*y + acc) mod p` is the MAC's word —
//!    the wide body uses a 52-bit Barrett step of its own.
//! 3. **BConv splits each product at bit 52 and folds once.** For
//!    `y, w < 2^52` the multiply-adds `lo += lo52(y*w)` and
//!    `hi += hi52(y*w)` keep `hi * 2^52 + lo` equal to the exact sum `S`
//!    of the row's products: at most 17, `alpha <= 16` plus the exact
//!    variant's correction `v * ((b - A mod b) mod b)`, which is `-v * A`
//!    modulo `b`. Each half adds below `2^52` per term, so
//!    `lo, hi < 17 * 2^52` do not wrap; with `L = lo mod 2^52` and
//!    `H = hi + floor(lo / 2^52) < 17 * 2^52`, `S = H * 2^52 + L`. For
//!    `2^s < b < 2^(s+1)`, identity 2's quotient estimate on one word
//!    `x` (`t = floor(x / 2^s)`, `q = floor(t * mu / 2^52)`) needs
//!    `t < 2^52`, i.e. `x < 2^(s+52)`. The bound on `H` meets that
//!    exactly when `2^s >= 17`, i.e. `s >= 5`: hence the lower bound
//!    `2^5 < b`. The raw remainder `x - q*b` then lies in `[0, 3b)`, so
//!    one subtraction takes `H` and `L` into `[0, 2b)`, and the
//!    canonical multiply-add of identity 2 returns
//!    `(H * (2^52 mod b) + L) mod b = S mod b`. The reference computes
//!    the same canonical `S mod b` — `reduce_u128` is exact on its
//!    `u128` sum (`reduce_u128_exact_over_bconv_accumulator_range`) and
//!    `bj.sub(.., bj.mul(..))` of canonical words is canonical — so the
//!    words are equal.
//! 4. **The decomposition's rounded quotient is one high multiply and
//!    one correction.** The reference digits are peeled from
//!    `y = floor(t / q)`, `t = x * 2^beta + floor(q/2)`. For `x < q < 2^32`
//!    and `2^beta < q`, `c = floor(2^(52+beta) / q)` is below `2^52`, and
//!    `est = floor(x * c / 2^52)` is one 52-bit high multiply-add. From
//!    `c <= 2^(52+beta) / q`, `est <= x * 2^beta / q <= t / q`; from
//!    `c > 2^(52+beta) / q - 1`,
//!    `est > x * 2^beta / q - x / 2^52 - 1 >= t / q - 1/2 - x / 2^52 - 1`.
//!    So `est <= t/q < est + 3/2 + x/2^52 < est + 2`, and
//!    `y - est` is `0` or `1`: `1` exactly when `r = t - est * q >= q`.
//!    With `est < 2^beta <= 2^31` and `q < 2^32`, `est * q` is one
//!    32 x 32-bit multiply, and `t < 2^63` and `r < 2q` are exact in a
//!    64-bit lane. The digits are then the reference's own integer
//!    steps on the same `y`.
//!
//! The portable overrides run on every host
//! (`lane_backend_is_bit_identical_to_scalar`);
//! `wide_passes_match_the_reference_words`,
//! `wide_bconv_matches_the_reference_words` and
//! `wide_decompose_matches_the_reference_words` sweep the batches over
//! every prime width on both sides of the rule.
//!
//! The active backend is process-wide and is [`LaneBackend`]: the
//! platform and the modulus pick its bodies, nothing else. Tests and
//! benches can call any backend directly, or swap the global with
//! [`force`] to run whole pipelines under each one in-process.
//!
//! # Window contracts
//!
//! | method                   | input window | output window |
//! |--------------------------|--------------|---------------|
//! | [`KernelBackend::forward_stages`]  | `[0, 2p)` | `[0, 4p)` |
//! | [`KernelBackend::inverse_stages`]  | `[0, 2p)` | `[0, 2p)` (pre-scaling) |
//! | [`KernelBackend::fold_4p_to_2p`]   | `[0, 4p)` | `[0, 2p)` |
//! | [`KernelBackend::fold_4p_to_canonical`] | `[0, 4p)` | `[0, p)` |
//! | [`KernelBackend::fold_2p_to_canonical`] | `[0, 2p)` | `[0, p)` |
//! | [`KernelBackend::scale_shoup`]      | any `u64`   | `[0, p)`  |
//! | [`KernelBackend::scale_shoup_lazy`] | any `u64`   | `[0, 2p)` |
//! | [`KernelBackend::mul_acc_lazy`] / [`KernelBackend::mul_lazy`] | `[0, 2p)` | `[0, 2p)` (*) |
//! | [`KernelBackend::add_lazy`] / [`KernelBackend::sub_lazy`] | `[0, 2p)` | `[0, 2p)` |
//! | [`KernelBackend::permute`]          | any         | unchanged |
//! | [`KernelBackend::convert_approx_batch`] / [`KernelBackend::convert_exact_batch`] | canonical `[0, a_i)` digits | canonical `[0, b_j)` (**) |
//! | [`KernelBackend::decompose_batch`]  | `[0, q)`    | digits in `[-B/2, B/2)` |
//!
//! (*) The contract callers may rely on. Both shipped bodies (the
//! reference and the wide one) return the canonical `[0, p)` word —
//! identity 2 above — which is what makes them bit-identical.
//!
//! (**) Every body, the wide one included (identity 3), returns the
//! canonical `S mod b_j`. The wide body takes a batch only when its
//! digit words are below `2^52` — a source modulus of at most 52 bits;
//! with a wider one (a digit holding the 60-bit `q_0` of
//! `bootstrap_test_params`) the portable body runs.
//!
//! A `*_batch` entry keeps the windows of the row passes it loops.
//! Callers (the [`crate::NttTable`] and [`crate::RnsPoly`] entry points)
//! own the debug-assert window checks; backends may assume their
//! contracts hold.

use std::sync::{PoisonError, RwLock};

use crate::modulus::Modulus;
use crate::ntt::NttTable;
#[cfg(target_arch = "x86_64")]
use crate::wide;

/// Unroll width of the [`LaneBackend`] passes. Eight `u64` words span
/// one cache line, and the branchless bodies below compile to straight
/// select chains LLVM can keep in flight (or vectorise where the ISA
/// allows).
const LANES: usize = 8;

/// Largest modulus the wide (AVX-512 IFMA) bodies take: `4p <= 2^52`,
/// so the whole `[0, 4p)` butterfly window fits the 52-bit multiplier.
/// A parameter set whose primes sit at or below it runs its NTT, MAC
/// and BConv rows on the wide unit where the CPU has one.
pub const WIDE_MAX_P: u64 = 1 << 50;

/// Which window a batched transform leaves its rows in.
///
/// The forward stages exit in `[0, 4p)` and the inverse stages need an
/// `n^{-1}` scaling pass; the exit fold picks whether that last pass
/// canonicalises (`[0, p)` out — the chain boundary) or stays in the
/// lazy `[0, 2p)` cross-kernel window (the chain interior).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitFold {
    /// Fold all the way to canonical `[0, p)` residues.
    Canonical,
    /// Stay in the `[0, 2p)` lazy window (one fewer conditional
    /// subtraction per residue; fold later at the ciphertext boundary).
    Lazy2p,
}

/// A batched kernel implementation over flat limb-major rows.
///
/// Production code dispatches the `*_batch` entry points only; the
/// twelve row passes are the SPI those entries loop, and their provided
/// bodies are the scalar reference. A backend overrides what it
/// accelerates — row passes and batches ([`LaneBackend`]) or nothing
/// ([`ScalarBackend`]) — and must stay element-wise **bit-identical**
/// to the provided bodies; the NTT golden-vector suite asserts this.
/// See the module docs for the window contract of every method.
///
/// # Examples
///
/// Backends are plain objects: tests and benches can drive one
/// directly instead of through [`active`]. A one-row lazy round-trip:
///
/// ```
/// use fhe_math::kernel::{ExitFold, KernelBackend, SCALAR};
/// use fhe_math::{prime, Modulus, NttTable};
///
/// let n = 64;
/// let p = prime::ntt_primes(40, n, 1)[0];
/// let table = NttTable::new(Modulus::new(p)?, n);
///
/// let expect: Vec<u64> = (0..n as u64).collect();
/// let mut flat = expect.clone();
///
/// // Chain interior: stay in the lazy [0, 2p) window.
/// SCALAR.forward_batch(&[&table], &mut flat, ExitFold::Lazy2p);
/// assert!(flat.iter().all(|&x| x < 2 * p));
///
/// // Chain boundary: the n^{-1} scaling pass canonicalises.
/// SCALAR.inverse_batch(&[&table], &mut flat, ExitFold::Canonical);
/// assert_eq!(flat, expect);
/// # Ok::<(), fhe_math::InvalidModulusError>(())
/// ```
pub trait KernelBackend: Send + Sync + std::fmt::Debug {
    /// Human-readable backend name (`"scalar"`, `"lanes"`, ...).
    fn name(&self) -> &'static str;

    // Row passes: the backend-internal SPI. The provided bodies are the
    // one-element-at-a-time reference every override is asserted against.
    // Operand lengths are equal: the `*_batch` entries assert them.

    /// The shared Cooley–Tukey butterfly stages of the forward
    /// negacyclic NTT: inputs in `[0, 2p)`, outputs in `[0, 4p)`.
    /// Callers fold into their target window afterwards.
    fn forward_stages(&self, t: &NttTable, a: &mut [u64]) {
        assert_eq!(a.len(), t.n());
        let m = t.modulus();
        let two_p = 2 * m.value();
        let (psi, psi_shoup) = t.psi_rev();
        let n = t.n();
        let mut len = n;
        let mut groups = 1usize;
        while groups < n {
            len >>= 1;
            for i in 0..groups {
                let (w, ws) = (psi[groups + i], psi_shoup[groups + i]);
                let j1 = 2 * i * len;
                for j in j1..j1 + len {
                    // u in [0, 4p) -> [0, 2p); v in [0, 2p) from the
                    // lazy multiply; outputs in [0, 4p).
                    let mut u = a[j];
                    if u >= two_p {
                        u -= two_p;
                    }
                    let v = m.mul_shoup_lazy(a[j + len], w, ws);
                    a[j] = u + v;
                    a[j + len] = u + two_p - v;
                }
            }
            groups <<= 1;
        }
    }

    /// The shared Gentleman–Sande stages of the inverse negacyclic NTT:
    /// inputs and outputs in `[0, 2p)` (before the `n^{-1}` scaling
    /// pass).
    fn inverse_stages(&self, t: &NttTable, a: &mut [u64]) {
        assert_eq!(a.len(), t.n());
        let m = t.modulus();
        let two_p = 2 * m.value();
        let (psi_inv, psi_inv_shoup) = t.psi_inv_rev();
        let mut len = 1usize;
        let mut groups = t.n();
        while groups > 1 {
            let h = groups >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let (w, ws) = (psi_inv[h + i], psi_inv_shoup[h + i]);
                for j in j1..j1 + len {
                    // u, v in [0, 2p); sum folded back below 2p; the
                    // lazy multiply accepts the [0, 4p) difference.
                    let u = a[j];
                    let v = a[j + len];
                    let mut s = u + v;
                    if s >= two_p {
                        s -= two_p;
                    }
                    a[j] = s;
                    a[j + len] = m.mul_shoup_lazy(u + two_p - v, w, ws);
                }
                j1 += 2 * len;
            }
            len <<= 1;
            groups = h;
        }
    }

    /// One conditional subtraction at `2p`: folds `[0, 4p)` residues
    /// into the `[0, 2p)` lazy window.
    fn fold_4p_to_2p(&self, m: &Modulus, a: &mut [u64]) {
        let two_p = 2 * m.value();
        for x in a.iter_mut() {
            if *x >= two_p {
                *x -= two_p;
            }
        }
    }

    /// Two conditional subtractions in a single pass: folds `[0, 4p)`
    /// residues all the way to canonical `[0, p)`.
    fn fold_4p_to_canonical(&self, m: &Modulus, a: &mut [u64]) {
        let p = m.value();
        let two_p = 2 * p;
        for x in a.iter_mut() {
            let mut v = *x;
            if v >= two_p {
                v -= two_p;
            }
            if v >= p {
                v -= p;
            }
            *x = v;
        }
    }

    /// The deferred canonicalisation pass of a lazy chain: folds
    /// `[0, 2p)` residues to canonical `[0, p)`.
    fn fold_2p_to_canonical(&self, m: &Modulus, a: &mut [u64]) {
        for x in a.iter_mut() {
            *x = m.reduce_2p(*x);
        }
    }

    /// Multiplies every residue by the Shoup pair `(w, w_shoup)`,
    /// canonicalising (`[0, p)` out) — the strict exit of the inverse
    /// transform's `n^{-1}` pass. Accepts any `u64` input (the Shoup
    /// lazy product is correct for the full butterfly window).
    fn scale_shoup(&self, m: &Modulus, w: u64, w_shoup: u64, a: &mut [u64]) {
        let p = m.value();
        for x in a.iter_mut() {
            let mut v = m.mul_shoup_lazy(*x, w, w_shoup);
            if v >= p {
                v -= p;
            }
            *x = v;
        }
    }

    /// As [`Self::scale_shoup`] but skipping the canonicalising
    /// subtraction (`[0, 2p)` out) — the lazy chain-tail exit.
    fn scale_shoup_lazy(&self, m: &Modulus, w: u64, w_shoup: u64, a: &mut [u64]) {
        for x in a.iter_mut() {
            *x = m.mul_shoup_lazy(*x, w, w_shoup);
        }
    }

    /// Lazy `IP` row pass: `acc[i] += a[i] * b[i]` with all operands in
    /// `[0, 2p)` and the accumulator kept in `[0, 2p)`.
    fn mul_acc_lazy(&self, m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        for ((x, &ya), &yb) in acc.iter_mut().zip(a).zip(b) {
            *x = m.reduce_u128_lazy(ya as u128 * yb as u128 + *x as u128);
        }
    }

    /// Lazy pointwise multiply: `a[i] *= b[i]`, operands and result in
    /// `[0, 2p)`.
    fn mul_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = m.mul_lazy(*x, y);
        }
    }

    /// Lazy addition: `a[i] += b[i]` with one conditional subtraction
    /// at `2p`.
    fn add_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = m.add_lazy(*x, y);
        }
    }

    /// Lazy subtraction: `a[i] = a[i] - b[i] (+ 2p)`.
    fn sub_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = m.sub_lazy(*x, y);
        }
    }

    /// Slot permutation (the eval-form `Auto` kernel): `dst[i] =
    /// src[perm[i]]`. A pure gather — reduction-agnostic, values pass
    /// through whatever window they are in (panics on an index out of
    /// range for `src`).
    fn permute(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        for (x, &s) in dst.iter_mut().zip(perm) {
            *x = src[s];
        }
    }

    // Batched (whole-poly) entry points — the surface production code
    // dispatches. One limb row per table/modulus; `flat` is the
    // limb-major buffer of an `RnsPoly` (`rows * n` words). Defaults
    // loop rows sequentially through `self`'s row passes;
    // `LaneBackend` overrides some with its wide bodies.

    /// Batched forward negacyclic NTT over all limb rows of `flat`
    /// (row `i` under `tables[i]`): butterfly stages plus the chosen
    /// exit fold (`[0, p)` or `[0, 2p)` out; `[0, 2p)` in).
    /// Implementations may assume `flat.len() == tables.len() * n` with
    /// every table sharing the ring degree `n` (callers assert).
    fn forward_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        let Some(n) = batch_rows(tables.len(), flat.len()) else {
            return;
        };
        for (row, t) in flat.chunks_exact_mut(n).zip(tables) {
            self.forward_stages(t, row);
            match exit {
                ExitFold::Canonical => self.fold_4p_to_canonical(t.modulus(), row),
                ExitFold::Lazy2p => self.fold_4p_to_2p(t.modulus(), row),
            }
        }
    }

    /// Batched inverse negacyclic NTT over all limb rows of `flat`:
    /// Gentleman–Sande stages plus the `n^{-1}` Shoup scaling pass,
    /// canonicalising ([`ExitFold::Canonical`]) or staying lazy
    /// ([`ExitFold::Lazy2p`]). Geometry as [`Self::forward_batch`].
    fn inverse_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        let Some(n) = batch_rows(tables.len(), flat.len()) else {
            return;
        };
        for (row, t) in flat.chunks_exact_mut(n).zip(tables) {
            self.inverse_stages(t, row);
            let (ni, nis) = t.n_inv();
            match exit {
                ExitFold::Canonical => self.scale_shoup(t.modulus(), ni, nis, row),
                ExitFold::Lazy2p => self.scale_shoup_lazy(t.modulus(), ni, nis, row),
            }
        }
    }

    /// Batched deferred canonicalisation: folds every `[0, 2p_i)` row
    /// of `flat` to canonical `[0, p_i)`.
    fn fold_2p_to_canonical_batch(&self, moduli: &[Modulus], flat: &mut [u64]) {
        let Some(n) = batch_rows(moduli.len(), flat.len()) else {
            return;
        };
        for (row, m) in flat.chunks_exact_mut(n).zip(moduli) {
            self.fold_2p_to_canonical(m, row);
        }
    }

    /// Batched lazy addition over all limb rows: `a[i] += b[i]` per row
    /// under its modulus, staying in `[0, 2p)`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != a.len()` (on every backend, before any
    /// row is touched).
    fn add_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        assert_operand_lens(a.len(), &[b.len()]);
        let Some(n) = batch_rows(moduli.len(), a.len()) else {
            return;
        };
        for ((row, orow), m) in a.chunks_exact_mut(n).zip(b.chunks_exact(n)).zip(moduli) {
            self.add_lazy(m, row, orow);
        }
    }

    /// Batched lazy subtraction over all limb rows (see
    /// [`Self::add_lazy_batch`], including its panic).
    fn sub_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        assert_operand_lens(a.len(), &[b.len()]);
        let Some(n) = batch_rows(moduli.len(), a.len()) else {
            return;
        };
        for ((row, orow), m) in a.chunks_exact_mut(n).zip(b.chunks_exact(n)).zip(moduli) {
            self.sub_lazy(m, row, orow);
        }
    }

    /// Batched lazy pointwise multiply over all limb rows (see
    /// [`Self::add_lazy_batch`], including its panic).
    fn mul_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        assert_operand_lens(a.len(), &[b.len()]);
        let Some(n) = batch_rows(moduli.len(), a.len()) else {
            return;
        };
        for ((row, orow), m) in a.chunks_exact_mut(n).zip(b.chunks_exact(n)).zip(moduli) {
            self.mul_lazy(m, row, orow);
        }
    }

    /// Batched lazy `IP` accumulation over all limb rows:
    /// `acc[i] += a[i] * b[i]` per row, accumulator kept in `[0, 2p)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` or `b.len()` differs from `acc.len()`.
    fn mul_acc_lazy_batch(&self, moduli: &[Modulus], acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert_operand_lens(acc.len(), &[a.len(), b.len()]);
        let Some(n) = batch_rows(moduli.len(), acc.len()) else {
            return;
        };
        for (((row, arow), brow), m) in acc
            .chunks_exact_mut(n)
            .zip(a.chunks_exact(n))
            .zip(b.chunks_exact(n))
            .zip(moduli)
        {
            self.mul_acc_lazy(m, row, arow, brow);
        }
    }

    /// Batched slot permutation: applies the same `perm` (length `n`)
    /// to every `n`-word row of `src` into `dst`. Reduction-agnostic,
    /// like [`Self::permute`].
    ///
    /// # Panics
    ///
    /// Panics, in every build, if `src.len() != dst.len()` or that
    /// length is not a multiple of `perm.len()` — before any word is
    /// written.
    fn permute_batch(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        assert_operand_lens(dst.len(), &[src.len()]);
        if perm.is_empty() || src.is_empty() {
            return;
        }
        assert_eq!(
            src.len() % perm.len(),
            0,
            "flat buffer not a multiple of the permutation length"
        );
        for (srow, drow) in src
            .chunks_exact(perm.len())
            .zip(dst.chunks_exact_mut(perm.len()))
        {
            self.permute(perm, srow, drow);
        }
    }

    /// Batched approximate fast base conversion (the HPS `BConv`
    /// matmul): for each output limb `j`,
    /// `out_j[c] = sum_i y_i[c] * weights[j*alpha + i] mod b_j`, where
    /// `y` is the premultiplied source digit buffer (`alpha` rows of
    /// `n` canonical residues) and `weights` is the row-major
    /// `to_moduli.len() x alpha` matrix of `|A/a_i| mod b_j` constants
    /// (`alpha` inferred as `weights.len() / to_moduli.len()`). Output
    /// rows are canonical: each word is `S mod b_j` for the exact
    /// integer sum `S`, which the reference accumulates in a `u128`
    /// (overflow-free for `alpha <= 16`, which `BasisConverter::new`
    /// enforces) and the wide body of [`LaneBackend`] in split 52-bit
    /// halves (module docs, identity 3). A word depends on its row
    /// alone, so any body and any row scheduling is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics, in every build, on a ragged buffer or unless `y` spans
    /// `alpha` rows of `n` words.
    fn convert_approx_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        let Some((n, alpha)) = bconv_geometry(to_moduli, weights, None, y, out.len()) else {
            return;
        };
        for ((orow, wrow), bj) in out
            .chunks_exact_mut(n)
            .zip(weights.chunks_exact(alpha))
            .zip(to_moduli)
        {
            bconv_row(bj, wrow, y, n, orow);
        }
    }

    /// Batched exact fast base conversion: the [`Self::convert_approx_batch`]
    /// matmul followed by the per-coefficient overshoot correction
    /// `out_j[c] -= v[c] * a_mod_b[j] mod b_j`. The overshoot multiples
    /// `v` (one per coefficient, `round(sum_i y_i/a_i)`) are computed
    /// **once by the caller** (`BasisConverter::convert_exact`) so every
    /// backend subtracts the identical correction regardless of how
    /// output rows are scheduled.
    ///
    /// # Panics
    ///
    /// As [`Self::convert_approx_batch`], and unless `a_mod_b` holds one
    /// word per output limb and `v` one per coefficient.
    fn convert_exact_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        a_mod_b: &[u64],
        v: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        let exact = Some((a_mod_b, v));
        let Some((n, alpha)) = bconv_geometry(to_moduli, weights, exact, y, out.len()) else {
            return;
        };
        for (((orow, wrow), bj), &am) in out
            .chunks_exact_mut(n)
            .zip(weights.chunks_exact(alpha))
            .zip(to_moduli)
            .zip(a_mod_b)
        {
            bconv_row(bj, wrow, y, n, orow);
            for (o, &vc) in orow.iter_mut().zip(v) {
                *o = bj.sub(*o, bj.mul(bj.reduce(vc), am));
            }
        }
    }

    /// Batched balanced gadget decomposition (the TFHE `Decomp`
    /// kernel): every coefficient of each `n`-word row of `src` is
    /// decomposed into `levels` balanced base-`2^base_log` digits,
    /// digit `j` of row `r` landing in `out[(r*levels + j)*n ..][..n]`
    /// — the exact row layout GGSW external products consume. See
    /// [`gadget_decompose_rows`] for the digit convention. The
    /// per-coefficient carry chain runs across levels, so parallel
    /// implementations slice across input rows, never across levels;
    /// results are bit-identical to the sequential reference either
    /// way.
    ///
    /// Precondition: the gadget is no deeper than the modulus,
    /// `base_log * levels <= bits(q)`, as `fhe-tfhe`'s
    /// `Ggsw::encrypt_scalar` and `LweKeySwitchKey::generate` assert.
    /// Deeper digits carry no precision, and past `beta = 64` the
    /// reference truncates its rounded quotient to a word.
    fn decompose_batch(
        &self,
        q: u64,
        base_log: u32,
        levels: usize,
        n: usize,
        src: &[u64],
        out: &mut [i64],
    ) {
        gadget_decompose_rows(q, base_log, levels, n, src, out);
    }
}

/// Row geometry of a batched call: `Some(n)` when there is work,
/// `None` for the empty batch.
///
/// # Panics
///
/// Panics, in every build, on a ragged buffer — `chunks_exact` would
/// silently leave its tail untouched.
#[inline]
fn batch_rows(rows: usize, flat_len: usize) -> Option<usize> {
    if rows == 0 || flat_len == 0 {
        None
    } else {
        assert_eq!(flat_len % rows, 0, "flat buffer not a multiple of rows");
        Some(flat_len / rows)
    }
}

/// The operand-length contract of the two-/three-operand batches:
/// every operand spans exactly the words of the output buffer. Checked
/// once per batch entry (before any fan-out), so no backend can
/// truncate a row pass or skip whole rows on a short operand.
#[inline]
fn assert_operand_lens(out_len: usize, operands: &[usize]) {
    for &len in operands {
        assert_eq!(len, out_len, "batch operand length mismatch");
    }
}

/// Row geometry of a BConv batch, `Some((n, alpha))` when there is
/// work: `out_len` words in `to_moduli.len()` rows of `n`, the weights
/// in as many rows of `alpha`. `exact` is the exact variant's
/// `(a_mod_b, v)`.
///
/// # Panics
///
/// Panics, in every build, unless `y` spans `alpha` rows of `n` words
/// and `exact` holds one `A mod b_j` per output limb and one overshoot
/// multiple per coefficient: on a short operand the reference's `zip`
/// would leave trailing rows or words unwritten, where a row-blocked
/// body would index past the end.
fn bconv_geometry(
    to_moduli: &[Modulus],
    weights: &[u64],
    exact: Option<(&[u64], &[u64])>,
    y: &[u64],
    out_len: usize,
) -> Option<(usize, usize)> {
    let n = batch_rows(to_moduli.len(), out_len)?;
    let alpha = batch_rows(to_moduli.len(), weights.len())?;
    assert_eq!(y.len(), alpha * n, "digit buffer size mismatch");
    if let Some((a_mod_b, v)) = exact {
        assert_eq!(a_mod_b.len(), to_moduli.len(), "one A mod b_j per limb");
        assert_eq!(v.len(), n, "one overshoot multiple per coefficient");
    }
    Some((n, alpha))
}

/// Branchless conditional subtraction: `x - bound` if `x >= bound`,
/// else `x`. Requires `bound <= 2^63` (all our windows satisfy this:
/// `4p < 2^64`, `2p <= 2^63`, `p < 2^62`), so the wrapped difference of
/// a not-yet-reducible value always exceeds `x` and `min` selects
/// correctly.
#[inline(always)]
fn csub(x: u64, bound: u64) -> u64 {
    x.min(x.wrapping_sub(bound))
}

/// One output-limb row of the HPS fast-base-conversion matmul:
/// `orow[c] = sum_i reduce_bj(y[i*n + c]) * wrow[i] mod b_j`. Each term
/// is below `2^124` and the source width is capped at 16 limbs
/// (`BasisConverter::new` asserts), so the `u128` sum cannot overflow;
/// integer accumulation is order-independent, so every backend computes
/// identical bits however the rows are scheduled.
#[inline]
fn bconv_row(bj: &Modulus, wrow: &[u64], y: &[u64], n: usize, orow: &mut [u64]) {
    for (c, o) in orow.iter_mut().enumerate() {
        let mut acc: u128 = 0;
        for (i, &w) in wrow.iter().enumerate() {
            acc += bj.reduce(y[i * n + c]) as u128 * w as u128;
        }
        *o = bj.reduce_u128(acc);
    }
}

/// Balanced base-`2^base_log` gadget decomposition of every coefficient
/// of `src`, viewed as rows of `n` words: `y = round(x * B^levels / q)`
/// is re-expressed as `y = sum_j d_j * B^(levels-1-j)` with every digit
/// `d_j` in `[-B/2, B/2)` (a final carry, if any, wraps mod `q` — the
/// approximate decomposition of the TFHE line of work, valid for any
/// `q`). Digit `j` of row `r` lands in `out[(r*levels + j)*n ..][..n]`.
///
/// This is the single scalar reference for the `Decomp` kernel:
/// `fhe-tfhe`'s `gadget_decompose` delegates here, and every
/// [`KernelBackend::decompose_batch`] implementation must match it
/// bit-for-bit. The digit carry propagates from the least-significant
/// level upward, so the only safe parallel axis is across rows.
///
/// # Panics
///
/// Panics when `src.len()` is not a multiple of `n`, or `out.len()`
/// differs from `src.len() * levels` (zero-work geometries return
/// early instead).
pub fn gadget_decompose_rows(
    q: u64,
    base_log: u32,
    levels: usize,
    n: usize,
    src: &[u64],
    out: &mut [i64],
) {
    if n == 0 || levels == 0 || src.is_empty() {
        return;
    }
    assert_eq!(src.len() % n, 0, "src not a multiple of the row length");
    assert_eq!(out.len(), src.len() * levels, "digit buffer size mismatch");
    let b = 1u64 << base_log;
    let half_b = (b / 2) as i64;
    // y = round(x * B^levels / q), an integer in [0, B^levels].
    let bl = 1u128 << (base_log as usize * levels);
    for (srow, orows) in src.chunks_exact(n).zip(out.chunks_exact_mut(levels * n)) {
        for (c, &x) in srow.iter().enumerate() {
            let mut rest = ((x as u128 * bl + q as u128 / 2) / q as u128) as u64;
            // Balanced base-B digits, most significant first:
            // peel least-significant digits, folding each into
            // [-B/2, B/2) with a carry into the next level.
            for j in (0..levels).rev() {
                let mut d = (rest % b) as i64;
                rest /= b;
                if d >= half_b {
                    d -= b as i64;
                    rest += 1;
                }
                orows[j * n + c] = d;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scalar reference backend.
// ---------------------------------------------------------------------

/// The reference backend: overrides nothing, so every call runs the
/// trait's provided one-element-at-a-time bodies — the readable
/// baseline every other backend is asserted against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl KernelBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }
}

// ---------------------------------------------------------------------
// Chunked/unrolled lane backend.
// ---------------------------------------------------------------------

/// Fixed-width-lane implementation. It overrides a row pass only where
/// the `lane_row_passes` micro group shows a win over the reference:
/// the two `[0, 4p)` folds, `permute` and `inverse_stages` run in
/// `LANES`-wide (8-word) branchless chunks, BConv rows accumulate in
/// `u128` blocks and the gadget decomposition is division-free; every
/// other row pass is the reference body. The NTT, MAC, BConv and
/// decomposition batches run an AVX-512 IFMA body on the rows it serves
/// (module docs: "What `LaneBackend` is"). Bit-identical to
/// [`ScalarBackend`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneBackend;

impl LaneBackend {
    /// One inverse-butterfly row (Gentleman–Sande).
    #[inline]
    fn inverse_row(m: &Modulus, two_p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64]) {
        let mut lc = lo.chunks_exact_mut(LANES);
        let mut hc = hi.chunks_exact_mut(LANES);
        for (lch, hch) in lc.by_ref().zip(hc.by_ref()) {
            for k in 0..LANES {
                let u = lch[k];
                let v = hch[k];
                lch[k] = csub(u + v, two_p);
                hch[k] = m.mul_shoup_lazy(u + two_p - v, w, ws);
            }
        }
        for (x, y) in lc
            .into_remainder()
            .iter_mut()
            .zip(hc.into_remainder().iter_mut())
        {
            let u = *x;
            let v = *y;
            *x = csub(u + v, two_p);
            *y = m.mul_shoup_lazy(u + two_p - v, w, ws);
        }
    }

    /// One output-limb row of the BConv matmul, row-wise: each 8-word
    /// block of `u128` accumulators streams every source row at unit
    /// stride (`acc[k] += y[i*n + c + k] * w_i`) and is reduced once per
    /// output word. The per-term `bj.reduce` of the reference
    /// [`bconv_row`] is skipped — with `y < 2^62`, `w < 2^62` and
    /// `alpha <= 16` the unreduced sum still fits a `u128`, and
    /// [`Modulus::reduce_u128`] is exact over that whole range
    /// (`modulus::tests::reduce_u128_exact_over_bconv_accumulator_range`),
    /// so the canonical result is the same word.
    #[inline]
    fn bconv_row(bj: &Modulus, wrow: &[u64], y: &[u64], n: usize, orow: &mut [u64]) {
        let mut chunks = orow.chunks_exact_mut(LANES);
        let mut c = 0usize;
        for och in chunks.by_ref() {
            let mut acc = [0u128; LANES];
            for (i, &w) in wrow.iter().enumerate() {
                let ych = &y[i * n + c..i * n + c + LANES];
                for k in 0..LANES {
                    acc[k] += ych[k] as u128 * w as u128;
                }
            }
            for k in 0..LANES {
                och[k] = bj.reduce_u128(acc[k]);
            }
            c += LANES;
        }
        for (o, c) in chunks.into_remainder().iter_mut().zip(c..) {
            let mut acc: u128 = 0;
            for (i, &w) in wrow.iter().enumerate() {
                acc += y[i * n + c] as u128 * w as u128;
            }
            *o = bj.reduce_u128(acc);
        }
    }

    /// Both BConv batches, one output limb `j` at a time: the wide body
    /// where `wide::takes_bconv` holds and every digit word is below
    /// `2^52` (scanned once per batch, when the first row could take
    /// it), else [`Self::bconv_row`] and, for the exact variant
    /// (`exact = Some((a_mod_b, v))`), the overshoot correction. Skipping
    /// the per-term reduce rests the `u128` sum bound on every digit
    /// word being a residue of some workspace modulus —
    /// `BasisConverter::premultiply`'s canonical output always is;
    /// debug-asserted here.
    fn bconv_rows(
        to_moduli: &[Modulus],
        weights: &[u64],
        exact: Option<(&[u64], &[u64])>,
        y: &[u64],
        out: &mut [u64],
    ) {
        let Some((n, alpha)) = bconv_geometry(to_moduli, weights, exact, y, out.len()) else {
            return;
        };
        debug_assert!(
            y.iter().all(|&x| x < Modulus::MAX),
            "BConv digit word outside [0, 2^62)"
        );
        #[cfg(target_arch = "x86_64")]
        let digits = std::cell::OnceCell::new();
        for (j, ((orow, wrow), bj)) in out
            .chunks_exact_mut(n)
            .zip(weights.chunks_exact(alpha))
            .zip(to_moduli)
            .enumerate()
        {
            #[cfg(target_arch = "x86_64")]
            if wide::takes_bconv(bj, n, wrow) {
                let v = exact.map_or(&[][..], |(_, v)| v);
                if let Some(d) = digits.get_or_init(|| wide::Digits::new(y, v)) {
                    // SAFETY: `takes_bconv` holds only on a CPU that
                    // reports avx512f and avx512ifma, the features
                    // `wide::bconv` is compiled for; the pass asserts
                    // its own shapes, and `Digits` bounds the words.
                    unsafe { wide::bconv(bj, wrow, exact.map(|(a, _)| a[j]), d, orow) };
                    continue;
                }
            }
            Self::bconv_row(bj, wrow, y, n, orow);
            if let Some((a_mod_b, v)) = exact {
                for (o, &vc) in orow.iter_mut().zip(v) {
                    *o = bj.sub(*o, bj.mul(bj.reduce(vc), a_mod_b[j]));
                }
            }
        }
    }

    /// One row of the division-free gadget decomposition (the
    /// [`KernelBackend::decompose_batch`] override states the
    /// arithmetic): `srow`, every word below `q`, into the `levels`
    /// digit rows of `orows`, through the leased row `rest`.
    /// `q_inv = ⌊(2^64 − 1) / q⌋`.
    #[inline]
    fn decompose_row(
        q: u64,
        q_inv: u64,
        base_log: u32,
        levels: usize,
        srow: &[u64],
        orows: &mut [i64],
        rest: &mut [u64],
    ) {
        let n = srow.len();
        let beta = base_log * levels as u32;
        let half_q = q / 2;
        for (y, &x) in rest.iter_mut().zip(srow) {
            let num = (x << beta) + half_q;
            let est = ((num as u128 * q_inv as u128) >> 64) as u64;
            *y = est + u64::from(num - est * q >= q);
        }
        let mask = (1u64 << base_log) - 1;
        for orow in orows.chunks_exact_mut(n).rev() {
            for (o, y) in orow.iter_mut().zip(rest.iter_mut()) {
                let d = *y & mask;
                let carry = d >> (base_log - 1);
                *o = d as i64 - ((carry << base_log) as i64);
                *y = (*y >> base_log) + carry;
            }
        }
    }
}

impl KernelBackend for LaneBackend {
    fn name(&self) -> &'static str {
        "lanes"
    }

    fn inverse_stages(&self, t: &NttTable, a: &mut [u64]) {
        assert_eq!(a.len(), t.n());
        let m = t.modulus();
        let two_p = 2 * m.value();
        let (psi_inv, psi_inv_shoup) = t.psi_inv_rev();
        let mut len = 1usize;
        let mut groups = t.n();
        while groups > 1 {
            let h = groups >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let (w, ws) = (psi_inv[h + i], psi_inv_shoup[h + i]);
                let (lo, hi) = a[j1..j1 + 2 * len].split_at_mut(len);
                Self::inverse_row(m, two_p, w, ws, lo, hi);
                j1 += 2 * len;
            }
            len <<= 1;
            groups = h;
        }
    }

    fn fold_4p_to_2p(&self, m: &Modulus, a: &mut [u64]) {
        let two_p = 2 * m.value();
        let mut chunks = a.chunks_exact_mut(LANES);
        for ch in chunks.by_ref() {
            for x in ch.iter_mut() {
                *x = csub(*x, two_p);
            }
        }
        for x in chunks.into_remainder() {
            *x = csub(*x, two_p);
        }
    }

    fn fold_4p_to_canonical(&self, m: &Modulus, a: &mut [u64]) {
        let p = m.value();
        let two_p = 2 * p;
        let mut chunks = a.chunks_exact_mut(LANES);
        for ch in chunks.by_ref() {
            for x in ch.iter_mut() {
                *x = csub(csub(*x, two_p), p);
            }
        }
        for x in chunks.into_remainder() {
            *x = csub(csub(*x, two_p), p);
        }
    }

    fn permute(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        assert_eq!(perm.len(), dst.len());
        let mut dc = dst.chunks_exact_mut(LANES);
        let mut pc = perm.chunks_exact(LANES);
        for (dch, pch) in dc.by_ref().zip(pc.by_ref()) {
            for k in 0..LANES {
                dch[k] = src[pch[k]];
            }
        }
        for (x, &s) in dc.into_remainder().iter_mut().zip(pc.remainder()) {
            *x = src[s];
        }
    }

    // The four batches below, and the two BConv batches through
    // `bconv_rows`, pick a body per row: the wide pass of `wide.rs`
    // where `wide::takes_*` holds, else what the provided batch runs
    // (this backend's row passes, the reference where it keeps none).

    fn forward_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        let Some(n) = batch_rows(tables.len(), flat.len()) else {
            return;
        };
        for (row, t) in flat.chunks_exact_mut(n).zip(tables) {
            #[cfg(target_arch = "x86_64")]
            if wide::takes_ntt(t.modulus(), n) {
                // SAFETY: `takes_ntt` holds only on a CPU that reports
                // avx512f and avx512ifma, the features `wide::forward`
                // is compiled for; the pass asserts its own shapes.
                unsafe { wide::forward(t, row, exit) };
                continue;
            }
            self.forward_stages(t, row);
            match exit {
                ExitFold::Canonical => self.fold_4p_to_canonical(t.modulus(), row),
                ExitFold::Lazy2p => self.fold_4p_to_2p(t.modulus(), row),
            }
        }
    }

    fn inverse_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        let Some(n) = batch_rows(tables.len(), flat.len()) else {
            return;
        };
        for (row, t) in flat.chunks_exact_mut(n).zip(tables) {
            #[cfg(target_arch = "x86_64")]
            if wide::takes_ntt(t.modulus(), n) {
                // SAFETY: as in `forward_batch`, for `wide::inverse`.
                unsafe { wide::inverse(t, row, exit) };
                continue;
            }
            self.inverse_stages(t, row);
            let (ni, nis) = t.n_inv();
            match exit {
                ExitFold::Canonical => self.scale_shoup(t.modulus(), ni, nis, row),
                ExitFold::Lazy2p => self.scale_shoup_lazy(t.modulus(), ni, nis, row),
            }
        }
    }

    fn mul_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        assert_operand_lens(a.len(), &[b.len()]);
        let Some(n) = batch_rows(moduli.len(), a.len()) else {
            return;
        };
        for ((row, orow), m) in a.chunks_exact_mut(n).zip(b.chunks_exact(n)).zip(moduli) {
            #[cfg(target_arch = "x86_64")]
            if wide::takes_mac(m, n) {
                // SAFETY: `takes_mac` holds only on a CPU that reports
                // avx512f and avx512ifma, the features `wide::mul` is
                // compiled for; the pass asserts its own shapes.
                unsafe { wide::mul(m, row, orow) };
                continue;
            }
            self.mul_lazy(m, row, orow);
        }
    }

    fn mul_acc_lazy_batch(&self, moduli: &[Modulus], acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert_operand_lens(acc.len(), &[a.len(), b.len()]);
        let Some(n) = batch_rows(moduli.len(), acc.len()) else {
            return;
        };
        for (((row, arow), brow), m) in acc
            .chunks_exact_mut(n)
            .zip(a.chunks_exact(n))
            .zip(b.chunks_exact(n))
            .zip(moduli)
        {
            #[cfg(target_arch = "x86_64")]
            if wide::takes_mac(m, n) {
                // SAFETY: as in `mul_lazy_batch`, for `wide::mul_acc`.
                unsafe { wide::mul_acc(m, row, arow, brow) };
                continue;
            }
            self.mul_acc_lazy(m, row, arow, brow);
        }
    }

    fn convert_approx_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        Self::bconv_rows(to_moduli, weights, None, y, out);
    }

    fn convert_exact_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        a_mod_b: &[u64],
        v: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        Self::bconv_rows(to_moduli, weights, Some((a_mod_b, v)), y, out);
    }

    /// The wide body where `wide::takes_decompose` holds and the row's
    /// words are below `q` (identity 4 of the module docs; every TFHE
    /// geometry of the paper's sets, bootstrapping and keyswitch).
    /// Otherwise the portable pass, division-free when `base_log >= 1`
    /// and `bits(q) + beta <= 63` for `beta = base_log * levels`, so
    /// that `num = x * 2^beta + ⌊q/2⌋ < 2^64` for every `x < q`.
    ///
    /// The rounded quotient `y = ⌊num / q⌋` is `mulhi(num, q_inv)`,
    /// `q_inv = ⌊(2^64 − 1) / q⌋`, plus one correction: `q_inv <=
    /// 2^64 / q` gives `mulhi <= y`, and `q_inv >= (2^64 − q) / q`
    /// gives `num * q_inv / 2^64 >= num / q − num / 2^64 > num / q − 1`,
    /// hence `mulhi >= y − 1` — the estimate is short by at most one,
    /// which `num − mulhi * q >= q` detects. The digits are then peeled
    /// one unit-stride pass per level, last level first; a digit is
    /// folded into `[-B/2, B/2)` exactly when its top bit is set.
    ///
    /// Any other geometry, and any row holding a word outside `[0, q)`,
    /// takes the reference body, so the digits are
    /// [`gadget_decompose_rows`]'s for every input it accepts.
    fn decompose_batch(
        &self,
        q: u64,
        base_log: u32,
        levels: usize,
        n: usize,
        src: &[u64],
        out: &mut [i64],
    ) {
        let bits = (u64::BITS - q.leading_zeros()) as usize;
        let in_window = base_log >= 1 && bits + base_log as usize * levels <= 63;
        if !in_window || n == 0 || levels == 0 || src.is_empty() {
            return gadget_decompose_rows(q, base_log, levels, n, src, out);
        }
        assert_eq!(src.len() % n, 0, "src not a multiple of the row length");
        assert_eq!(out.len(), src.len() * levels, "digit buffer size mismatch");
        let q_inv = u64::MAX / q;
        #[cfg(target_arch = "x86_64")]
        let wide = wide::takes_decompose(q, base_log, levels, n);
        crate::scratch::with_scratch(n, |rest| {
            for (srow, orows) in src.chunks_exact(n).zip(out.chunks_exact_mut(levels * n)) {
                // SAFETY: `takes_decompose` holds only on a CPU that
                // reports avx512f and avx512ifma, the features
                // `wide::decompose` is compiled for; the pass asserts
                // its own shapes and declines a row with a word >= q.
                #[cfg(target_arch = "x86_64")]
                if wide && unsafe { wide::decompose(q, base_log, levels, srow, orows) } {
                    continue;
                }
                if srow.iter().all(|&x| x < q) {
                    Self::decompose_row(q, q_inv, base_log, levels, srow, orows, rest);
                } else {
                    gadget_decompose_rows(q, base_log, levels, n, srow, orows);
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// The process-wide backend.
// ---------------------------------------------------------------------

/// The scalar reference backend instance.
pub static SCALAR: ScalarBackend = ScalarBackend;
/// The chunked/unrolled lane backend instance.
pub static LANES_BACKEND: LaneBackend = LaneBackend;

/// The process-wide active backend: [`LANES_BACKEND`] unless a bench or
/// test swapped it with [`force`]. A `RwLock` (not a constant) for that
/// swap — the uncontended read on the kernel dispatch path costs
/// nanoseconds against row passes of microseconds.
static ACTIVE: RwLock<&'static dyn KernelBackend> = RwLock::new(&LANES_BACKEND);

/// The lane backend, under the name the frozen `math.threaded_speedup`
/// probe of `benchmark/` swaps in. The row-sliced backend it once
/// returned is deleted, so that probe now times lanes against lanes
/// (1.0 up to its own noise); this shim leaves with the probe (ROADMAP
/// item 2(a)).
pub fn threaded(_threads: Option<usize>) -> &'static LaneBackend {
    &LANES_BACKEND
}

/// The process-wide active backend: [`LaneBackend`], whose bodies the
/// platform and the modulus pick (or whatever a bench or test
/// [`force`]d). All [`crate::NttTable`] and [`crate::RnsPoly`]
/// production entry points dispatch through this (the strict
/// `*_strict` oracles never do — the reference stays fixed while
/// backends evolve).
pub fn active() -> &'static dyn KernelBackend {
    *ACTIVE.read().unwrap_or_else(PoisonError::into_inner)
}

/// Swaps the process-wide backend, returning the previous one. For
/// benches and tests that run several backends in one process —
/// production code never swaps (lint rule `kernel-force-outside-test`),
/// and callers here must serialise against concurrent kernel work
/// themselves.
pub fn force(backend: &'static dyn KernelBackend) -> &'static dyn KernelBackend {
    std::mem::replace(
        &mut *ACTIVE.write().unwrap_or_else(PoisonError::into_inner),
        backend,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table(bits: u32, n: usize) -> NttTable {
        let p = ntt_primes(bits, n, 1)[0];
        NttTable::new(Modulus::new(p).unwrap(), n)
    }

    #[test]
    fn csub_matches_branchy_reference() {
        let p = (1u64 << 61) - 1;
        for bound in [p, 2 * p] {
            for x in [0u64, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, 4 * p - 1] {
                let want = if x >= bound { x - bound } else { x };
                assert_eq!(csub(x, bound), want, "x={x} bound={bound}");
            }
        }
    }

    /// The row passes must agree bit-for-bit between the scalar and lane
    /// backends on random data across sizes exercising both the chunked
    /// body and the remainders. The passes `LaneBackend` leaves to the
    /// reference (`forward_stages`, `fold_2p_to_canonical`, the two
    /// Shoup scalings, `add_lazy`, `sub_lazy`) have no arm here.
    #[test]
    fn lane_backend_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(0x1A7E5);
        for n in [4usize, 64, 256, 1024] {
            for bits in [30u32, 50, 61] {
                let t = table(bits, n);
                let m = *t.modulus();
                let p = m.value();
                let lift = |rng: &mut StdRng, x: u64| if rng.gen() { x + p } else { x };
                let poly: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
                let lifted: Vec<u64> = poly.iter().map(|&x| lift(&mut rng, x)).collect();
                let other: Vec<u64> = (0..n)
                    .map(|_| {
                        let x = rng.gen_range(0..p);
                        lift(&mut rng, x)
                    })
                    .collect();

                // Stage loops, from the reference's forward output.
                let mut s = lifted.clone();
                SCALAR.forward_stages(&t, &mut s);
                let mut l = s.clone();
                SCALAR.fold_4p_to_2p(&m, &mut s);
                LANES_BACKEND.fold_4p_to_2p(&m, &mut l);
                assert_eq!(s, l, "fold_4p_to_2p n={n} bits={bits}");
                SCALAR.inverse_stages(&t, &mut s);
                LANES_BACKEND.inverse_stages(&t, &mut l);
                assert_eq!(s, l, "inverse_stages n={n} bits={bits}");

                // The canonical fold from a fresh [0, 4p) buffer.
                let wide: Vec<u64> = poly
                    .iter()
                    .map(|&x| x + rng.gen_range(0..4u64) * p)
                    .collect();
                let (mut s, mut l) = (wide.clone(), wide.clone());
                SCALAR.fold_4p_to_canonical(&m, &mut s);
                LANES_BACKEND.fold_4p_to_canonical(&m, &mut l);
                assert_eq!(s, l, "fold_4p_to_canonical");

                // Pointwise families.
                let (mut s, mut l) = (lifted.clone(), lifted.clone());
                SCALAR.mul_acc_lazy(&m, &mut s, &other, &lifted);
                LANES_BACKEND.mul_acc_lazy(&m, &mut l, &other, &lifted);
                assert_eq!(s, l, "mul_acc_lazy");
                let (mut s, mut l) = (lifted.clone(), lifted.clone());
                SCALAR.mul_lazy(&m, &mut s, &other);
                LANES_BACKEND.mul_lazy(&m, &mut l, &other);
                assert_eq!(s, l, "mul_lazy");

                // Permute (random bijection).
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                let (mut s, mut l) = (vec![0u64; n], vec![0u64; n]);
                SCALAR.permute(&perm, &lifted, &mut s);
                LANES_BACKEND.permute(&perm, &lifted, &mut l);
                assert_eq!(s, l, "permute");
            }
        }
    }

    /// The row passes `LaneBackend` leaves to the reference keep the
    /// windows of the module docs' table on both backends, and return a
    /// representative of the canonical result (the transforms against
    /// the `*_strict` oracles).
    #[test]
    fn reference_row_passes_keep_their_windows() {
        let mut rng = StdRng::seed_from_u64(0xC0471);
        for (n, bits) in [(4usize, 30u32), (256, 50), (256, 61)] {
            let t = table(bits, n);
            let m = *t.modulus();
            let p = m.value();
            let x: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
            let y: Vec<u64> = (0..n).map(|_| rng.gen_range(0..2 * p)).collect();
            let (w, (ni, nis)) = (rng.gen_range(1..p), t.n_inv());
            let mut spectrum = x.clone();
            t.forward_strict(&mut spectrum);
            let want = |f: &dyn Fn(u64, u64) -> u64| -> Vec<u64> {
                x.iter().zip(&y).map(|(&a, &b)| f(a, b % p)).collect()
            };
            for b in [&SCALAR as &dyn KernelBackend, &LANES_BACKEND] {
                let what = format!("n={n} bits={bits} ({})", b.name());
                let within =
                    |v: &[u64], bound: u64| assert!(v.iter().all(|&e| e < bound), "{what}");
                let mut v = x.clone();
                b.forward_stages(&t, &mut v);
                within(&v, 4 * p);
                b.fold_4p_to_canonical(&m, &mut v);
                assert_eq!(v, spectrum, "forward_stages {what}");
                b.inverse_stages(&t, &mut v);
                b.scale_shoup(&m, ni, nis, &mut v);
                assert_eq!(v, x, "scale_shoup {what}");
                let mut lazy: [Vec<u64>; 3] = [y.clone(), x.clone(), x.clone()];
                b.scale_shoup_lazy(&m, w, m.shoup(w), &mut lazy[0]);
                b.add_lazy(&m, &mut lazy[1], &y);
                b.sub_lazy(&m, &mut lazy[2], &y);
                let canonical: [Vec<u64>; 3] = [
                    want(&|_, c| m.mul(c, w)),
                    want(&|a, c| m.add(a, c)),
                    want(&|a, c| m.sub(a, c)),
                ];
                for (mut v, c) in lazy.into_iter().zip(canonical) {
                    within(&v, 2 * p);
                    b.fold_2p_to_canonical(&m, &mut v);
                    assert_eq!(v, c, "lazy pass {what}");
                }
            }
        }
    }

    /// No unit test here forces the global, so it reads the default;
    /// the process pool is one instance with one lane per core.
    #[test]
    fn active_is_lanes_and_the_shared_pool_is_one_core_sized_instance() {
        assert_eq!(active().name(), "lanes");
        let pool = crate::pool::shared();
        assert!(std::ptr::eq(pool, crate::pool::shared()));
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(pool.threads(), cores.clamp(1, 256));
    }

    /// All batched entry points must be bit-identical between the
    /// sequential default (scalar) and the lane override, across batch
    /// geometries from one row to eight.
    #[test]
    fn batch_entry_points_are_bit_identical_across_backends() {
        let mut rng = StdRng::seed_from_u64(0xBA7C4);
        for (n, limbs) in [(64usize, 1usize), (64, 3), (256, 5), (128, 8)] {
            let primes = crate::prime::ntt_primes(45, n, limbs);
            let basis = crate::rns::RnsBasis::new(&primes, n);
            let tables: Vec<&NttTable> = basis.tables().iter().map(|t| t.as_ref()).collect();
            let moduli = basis.moduli().to_vec();
            let flat: Vec<u64> = moduli
                .iter()
                .flat_map(|m| {
                    let p = m.value();
                    (0..n)
                        .map(|_| {
                            let x = rng.gen_range(0..p);
                            if rng.gen() {
                                x + p
                            } else {
                                x
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let other: Vec<u64> = moduli
                .iter()
                .flat_map(|m| {
                    let p = m.value();
                    (0..n).map(|_| rng.gen_range(0..2 * p)).collect::<Vec<_>>()
                })
                .collect();
            let backends: [&dyn KernelBackend; 2] = [&SCALAR, &LANES_BACKEND];

            let apply = |f: &dyn Fn(&dyn KernelBackend, &mut Vec<u64>)| -> Vec<Vec<u64>> {
                backends
                    .iter()
                    .map(|b| {
                        let mut buf = flat.clone();
                        f(*b, &mut buf);
                        buf
                    })
                    .collect()
            };
            let assert_all_eq = |got: Vec<Vec<u64>>, what: &str| {
                for (b, g) in backends.iter().zip(&got) {
                    assert_eq!(g, &got[0], "{what} n={n} limbs={limbs} ({})", b.name());
                }
            };

            for exit in [ExitFold::Canonical, ExitFold::Lazy2p] {
                assert_all_eq(
                    apply(&|b, buf| b.forward_batch(&tables, buf, exit)),
                    "forward_batch",
                );
                assert_all_eq(
                    apply(&|b, buf| b.inverse_batch(&tables, buf, exit)),
                    "inverse_batch",
                );
            }
            assert_all_eq(
                apply(&|b, buf| b.fold_2p_to_canonical_batch(&moduli, buf)),
                "fold_2p_to_canonical_batch",
            );
            assert_all_eq(
                apply(&|b, buf| b.add_lazy_batch(&moduli, buf, &other)),
                "add_lazy_batch",
            );
            assert_all_eq(
                apply(&|b, buf| b.sub_lazy_batch(&moduli, buf, &other)),
                "sub_lazy_batch",
            );
            assert_all_eq(
                apply(&|b, buf| b.mul_lazy_batch(&moduli, buf, &other)),
                "mul_lazy_batch",
            );
            assert_all_eq(
                apply(&|b, buf| b.mul_acc_lazy_batch(&moduli, buf, &other, &flat)),
                "mul_acc_lazy_batch",
            );

            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            assert_all_eq(
                apply(&|b, buf| {
                    let src = buf.clone();
                    b.permute_batch(&perm, &src, buf);
                }),
                "permute_batch",
            );

            // BConv batches: random weight/digit buffers with the basis
            // moduli as output limbs — the HPS semantics live in
            // rns.rs; here only batch-vs-sequential bit-identity of
            // convert_approx_batch / convert_exact_batch matters.
            let alpha = 4usize;
            let weights: Vec<u64> = moduli
                .iter()
                .flat_map(|m| {
                    let p = m.value();
                    (0..alpha).map(|_| rng.gen_range(0..p)).collect::<Vec<_>>()
                })
                .collect();
            // Canonical digits as `BasisConverter::premultiply` emits
            // them: row `i` below a source modulus of 62 - i bits, wider
            // than every output limb (the ModDown shape).
            let digits: Vec<u64> = (0..alpha)
                .flat_map(|i| {
                    let bound = Modulus::MAX >> i;
                    (0..n).map(|_| rng.gen_range(0..bound)).collect::<Vec<_>>()
                })
                .collect();
            let a_mod: Vec<u64> = moduli.iter().map(|m| rng.gen_range(0..m.value())).collect();
            let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=alpha as u64)).collect();
            assert_all_eq(
                apply(&|b, buf| b.convert_approx_batch(&moduli, &weights, &digits, buf)),
                "convert_approx_batch",
            );
            assert_all_eq(
                apply(&|b, buf| b.convert_exact_batch(&moduli, &weights, &a_mod, &v, &digits, buf)),
                "convert_exact_batch",
            );

            // Gadget decomposition: signed digit rows, own buffers.
            let q = moduli[0].value();
            let src: Vec<u64> = (0..limbs * n).map(|_| rng.gen_range(0..q)).collect();
            let levels = 3usize;
            let digit_rows: Vec<Vec<i64>> = backends
                .iter()
                .map(|b| {
                    let mut o = vec![0i64; limbs * levels * n];
                    b.decompose_batch(q, 7, levels, n, &src, &mut o);
                    o
                })
                .collect();
            for (b, g) in backends.iter().zip(&digit_rows) {
                assert_eq!(
                    g,
                    &digit_rows[0],
                    "decompose_batch n={n} limbs={limbs} ({})",
                    b.name()
                );
            }
        }
    }

    /// `[0, 2p)` rows for `tables`, each opening with the edge words
    /// `0, 1, p - 1, p, p + 1, 2p - 1`.
    fn window_rows(rng: &mut StdRng, tables: &[&NttTable]) -> Vec<u64> {
        let mut flat = Vec::new();
        for t in tables {
            let p = t.modulus().value();
            let mut row: Vec<u64> = (0..t.n()).map(|_| rng.gen_range(0..2 * p)).collect();
            row[..6].copy_from_slice(&[0, 1, p - 1, p, p + 1, 2 * p - 1]);
            flat.extend(row);
        }
        flat
    }

    /// Both transforms under both exits, the MAC and the pointwise
    /// multiply of `backend` against the scalar reference, word for word.
    fn assert_ntt_and_mac_batches_match(
        backend: &dyn KernelBackend,
        tables: &[&NttTable],
        rng: &mut StdRng,
    ) {
        let moduli: Vec<Modulus> = tables.iter().map(|t| *t.modulus()).collect();
        let what = |op: &str| format!("{op} n={} moduli={moduli:?}", tables[0].n());
        let (x, y, z) = (
            window_rows(rng, tables),
            window_rows(rng, tables),
            window_rows(rng, tables),
        );
        for exit in [ExitFold::Canonical, ExitFold::Lazy2p] {
            let (mut want, mut got) = (x.clone(), x.clone());
            SCALAR.forward_batch(tables, &mut want, exit);
            backend.forward_batch(tables, &mut got, exit);
            assert_eq!(got, want, "{}", what("forward_batch"));
            let (mut want, mut got) = (x.clone(), x.clone());
            SCALAR.inverse_batch(tables, &mut want, exit);
            backend.inverse_batch(tables, &mut got, exit);
            assert_eq!(got, want, "{}", what("inverse_batch"));
        }
        let (mut want, mut got) = (x.clone(), x.clone());
        SCALAR.mul_acc_lazy_batch(&moduli, &mut want, &y, &z);
        backend.mul_acc_lazy_batch(&moduli, &mut got, &y, &z);
        assert_eq!(got, want, "{}", what("mul_acc_lazy_batch"));
        let (mut want, mut got) = (x.clone(), x);
        SCALAR.mul_lazy_batch(&moduli, &mut want, &y);
        backend.mul_lazy_batch(&moduli, &mut got, &y);
        assert_eq!(got, want, "{}", what("mul_lazy_batch"));
    }

    /// The wide passes of `LaneBackend`'s four overridden batches return
    /// the reference's words for every prime width they take, at every
    /// row length on both sides of their `n >= 16` / `n % 8 == 0` rules,
    /// and the first prime above `2^50` stays on the portable bodies.
    #[test]
    fn wide_passes_match_the_reference_words() {
        let mut rng = StdRng::seed_from_u64(0x1F3A);
        let table = |p: u64, n: usize| NttTable::new(Modulus::new(p).unwrap(), n);
        // The smallest NTT prime above 2^50 (for every n <= 4096).
        let above = (0..)
            .map(|i| WIDE_MAX_P + 1 + 8192 * i)
            .find(|&c| crate::prime::is_prime(c))
            .unwrap();
        #[cfg(target_arch = "x86_64")]
        let live = {
            assert!(!wide::takes_ntt(&Modulus::new(above).unwrap(), 1024));
            assert!(!wide::takes_mac(&Modulus::new(above).unwrap(), 1024));
            wide::takes_ntt(&Modulus::new(ntt_primes(50, 4096, 1)[0]).unwrap(), 1024)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let live = false;
        println!("wide passes live on this host: {live}");

        for bits in 20..=50u32 {
            // Scanned down from 2^bits: at 50 bits the first is the
            // largest NTT prime the wide passes take.
            let mut primes = ntt_primes(bits, 4096, 3);
            if bits == 50 {
                primes.push(above);
            }
            for p in primes {
                for n in [8usize, 16, 32, 1024, 4096] {
                    let t = table(p, n);
                    assert_ntt_and_mac_batches_match(&LANES_BACKEND, &[&t], &mut rng);
                }
            }
        }

        // One batch whose rows take different bodies.
        let n = 1024;
        let mixed = [
            table(ntt_primes(50, n, 1)[0], n),
            table(above, n),
            table(ntt_primes(32, n, 1)[0], n),
            table(ntt_primes(61, n, 1)[0], n),
        ];
        let mixed: Vec<&NttTable> = mixed.iter().collect();
        assert_ntt_and_mac_batches_match(&LANES_BACKEND, &mixed, &mut rng);
    }

    /// Both BConv batches of `backend` against the scalar reference, word
    /// for word, with the overshoot multiples `v` and the `A mod b_j`
    /// words drawn here.
    fn assert_bconv_batches_match(
        backend: &dyn KernelBackend,
        moduli: &[Modulus],
        weights: &[u64],
        y: &[u64],
        rng: &mut StdRng,
    ) {
        let alpha = weights.len() / moduli.len();
        let n = y.len() / alpha;
        let mut v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=alpha as u64)).collect();
        v[..2].copy_from_slice(&[0, alpha as u64]);
        let a_mod: Vec<u64> = moduli.iter().map(|m| rng.gen_range(0..m.value())).collect();
        let what = |op: &str| format!("{op} n={n} alpha={alpha} moduli={moduli:?}");
        let (mut want, mut got) = (vec![0; moduli.len() * n], vec![0; moduli.len() * n]);
        SCALAR.convert_approx_batch(moduli, weights, y, &mut want);
        backend.convert_approx_batch(moduli, weights, y, &mut got);
        assert_eq!(got, want, "{}", what("convert_approx_batch"));
        SCALAR.convert_exact_batch(moduli, weights, &a_mod, &v, y, &mut want);
        backend.convert_exact_batch(moduli, weights, &a_mod, &v, y, &mut got);
        assert_eq!(got, want, "{}", what("convert_exact_batch"));
    }

    /// The wide BConv body of `LaneBackend` returns the reference's
    /// words for every output width it takes, every source width up to
    /// `alpha = 16`, digit words at the top of their range and weights
    /// at the top of theirs (`b_j - 1`, and `2^52 - 1` for the largest
    /// fold); and rows it must not take — a prime above `2^50` or below
    /// `2^5`, a digit word of `2^52` — stay on the portable body.
    #[test]
    fn wide_bconv_matches_the_reference_words() {
        let mut rng = StdRng::seed_from_u64(0xBC0);
        let modulus = |p: u64| Modulus::new(p).unwrap();
        // The smallest NTT prime above 2^50 (for every n <= 4096).
        let above = (0..)
            .map(|i| WIDE_MAX_P + 1 + 8192 * i)
            .find(|&c| crate::prime::is_prime(c))
            .unwrap();
        #[cfg(target_arch = "x86_64")]
        let live = {
            assert!(!wide::takes_bconv(&modulus(above), 64, &[1]));
            assert!(!wide::takes_bconv(&modulus(31), 64, &[1]));
            wide::takes_bconv(&modulus(37), 64, &[1])
        };
        #[cfg(not(target_arch = "x86_64"))]
        let live = false;
        println!("wide BConv live on this host: {live}");

        let n = 64;
        let mut outputs: Vec<Vec<Modulus>> = (20..=50u32)
            .map(|bits| ntt_primes(bits, 4096, 2).into_iter().map(modulus).collect())
            .collect();
        outputs.push(vec![modulus(above), modulus(37), modulus(31)]);
        for alpha in [1usize, 2, 3, 8, 16] {
            // Source primes just below 2^52: their `a_i - 1` are the
            // widest canonical digits the wide body takes.
            let sources = ntt_primes(52, 4096, alpha);
            let rows = |word: &mut dyn FnMut(usize) -> u64| -> Vec<u64> {
                (0..alpha * n).map(|k| word(k / n)).collect()
            };
            let mut wide_word = rows(&mut |_| rng.gen_range(0..1 << 52));
            wide_word[n / 2] = 1 << 52;
            let digit_sets = [
                rows(&mut |_| rng.gen_range(0..1 << 52)),
                rows(&mut |i| sources[i] - 1),
                rows(&mut |_| (1 << 52) - 1),
                wide_word,
            ];
            for moduli in &outputs {
                let random: Vec<u64> = moduli
                    .iter()
                    .flat_map(|m| {
                        (0..alpha)
                            .map(|_| rng.gen_range(0..m.value()))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                let near_top: Vec<u64> = moduli
                    .iter()
                    .flat_map(|m| (0..alpha as u64).map(|i| m.value() - 1 - i % 3))
                    .collect();
                let widest = vec![(1 << 52) - 1; moduli.len() * alpha];
                for y in &digit_sets {
                    for weights in [&random, &near_top, &widest] {
                        assert_bconv_batches_match(&LANES_BACKEND, moduli, weights, y, &mut rng);
                    }
                }
            }
        }

        // One batch whose rows take different bodies.
        let (n, alpha) = (1024, 3);
        let mixed: Vec<Modulus> = [ntt_primes(50, n, 1)[0], above, ntt_primes(32, n, 1)[0]]
            .into_iter()
            .chain([ntt_primes(61, n, 1)[0], 31])
            .map(modulus)
            .collect();
        let weights: Vec<u64> = mixed
            .iter()
            .flat_map(|m| {
                (0..alpha)
                    .map(|_| rng.gen_range(0..m.value()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let y: Vec<u64> = (0..alpha * n).map(|_| rng.gen_range(0..1 << 52)).collect();
        assert_bconv_batches_match(&LANES_BACKEND, &mixed, &weights, &y, &mut rng);
    }

    /// The wide decomposition of `LaneBackend` returns the reference's
    /// digits for every modulus width it takes — the largest primes
    /// below `2^20`, `2^31` and `2^32` — at every gadget up to
    /// `beta = 31` and across the `2^beta < q` edge, on the quotient
    /// steps; moduli it must not take (the first prime above `2^32`, a
    /// 40-bit one) stay on the portable pass, and so does `n = 7`.
    #[test]
    fn wide_decompose_matches_the_reference_words() {
        let mut rng = StdRng::seed_from_u64(0xDEC4);
        let prime = |from: u64, step: i64| {
            (0..)
                .map(|i| from.wrapping_add_signed(step * i))
                .find(|&c| crate::prime::is_prime(c))
                .unwrap()
        };
        let wide_q = [(1u64 << 20) - 1, (1 << 31) - 1, (1 << 32) - 1].map(|c| prime(c, -1));
        let narrow_q = [prime((1 << 32) + 1, 1), prime((1 << 40) - 1, -1)];
        #[cfg(target_arch = "x86_64")]
        let live = {
            for q in narrow_q {
                assert!(!wide::takes_decompose(q, 8, 2, 1024), "q={q}");
            }
            assert!(!wide::takes_decompose(wide_q[1], 1, 31, 1024), "2^31 > q");
            assert!(!wide::takes_decompose(wide_q[2], 8, 2, 1020), "n % 8 != 0");
            wide::takes_decompose(wide_q[2], 1, 31, 1024)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let live = false;
        println!("wide decompose live on this host: {live}");

        let check =
            |b: &dyn KernelBackend, q: u64, base_log: u32, levels: usize, n, src: &[u64]| {
                let mut want = vec![0i64; src.len() * levels];
                let mut got = vec![i64::MIN; src.len() * levels];
                gadget_decompose_rows(q, base_log, levels, n, src, &mut want);
                b.decompose_batch(q, base_log, levels, n, src, &mut got);
                assert_eq!(got, want, "q={q} base_log={base_log} levels={levels} n={n}");
            };
        for q in wide_q.into_iter().chain(narrow_q) {
            for base_log in 1..=16u32 {
                for levels in 1..=31 / base_log as usize {
                    let beta = base_log * levels as u32;
                    let words = decompose_words(q, base_log, beta, &mut rng);
                    for n in [7usize, 8, 1024, 2048] {
                        let mut src = words.clone();
                        src.resize_with(src.len().div_ceil(n) * n, || rng.gen_range(0..q));
                        check(&LANES_BACKEND, q, base_log, levels, n, &src);
                    }
                }
            }
        }

        // A word equal to q in the middle row of three: that row alone
        // is declined by the wide body and takes the reference.
        let (q, base_log, levels, n) = (wide_q[2], 8, 3, 1024);
        let mut src: Vec<u64> = (0..3 * n).map(|_| rng.gen_range(0..q)).collect();
        src[n + 5] = q;
        #[cfg(target_arch = "x86_64")]
        if live {
            let mut digits = vec![0i64; levels * n];
            let took: Vec<bool> = src
                .chunks_exact(n)
                // SAFETY: `live` is `takes_decompose` at this geometry,
                // true only on a CPU with avx512f and avx512ifma.
                .map(|row| unsafe { wide::decompose(q, base_log, levels, row, &mut digits) })
                .collect();
            assert_eq!(took, [true, false, true]);
        }
        check(&LANES_BACKEND, q, base_log, levels, n, &src);
    }

    /// Decomposition inputs under `q` at depth `beta`: `0`, `1`, `q - 1`,
    /// the words on both sides of the steps where the rounded quotient
    /// changes, and 256 random words.
    fn decompose_words(q: u64, base_log: u32, beta: u32, rng: &mut StdRng) -> Vec<u64> {
        // The quotient steps from `j` to `j + 1` at the word
        // `ceil((2j + 1) * q / 2^(beta + 1))`.
        let steps = 1u128 << beta;
        let boundary = |j: u128| (((2 * j + 1) * q as u128) >> (beta + 1)) as u64 + 1;
        let mut js: Vec<u128> = if beta <= 8 {
            (0..steps).collect()
        } else {
            // Quotients whose low digits sit at 0, B/2 - 1, B/2 and
            // B - 1 (the balanced-digit carry), both ends of the range,
            // and random ones.
            let half = 1u128 << (base_log - 1);
            let mut js = vec![0, 1, half - 1, half, 2 * half - 1, 2 * half];
            js.extend([steps - 1, steps - half, steps - half - 1]);
            js.extend((0..64).map(|_| rng.gen::<u128>() % steps));
            js
        };
        js.retain(|&j| j < steps);
        let mut words = vec![0, 1, q - 1];
        for j in js {
            let x = boundary(j);
            words.extend([x - 1, x.min(q - 1)]);
        }
        words.extend((0..256).map(|_| rng.gen_range(0..q)));
        words
    }

    /// The lanes decomposition equals the reference on every geometry —
    /// inside the one-word window (division-free pass) and outside it
    /// (fallback) — on the words where the rounded quotient or a digit
    /// changes, and on a row holding a word outside `[0, q)`.
    #[test]
    fn lanes_decompose_matches_reference_on_every_geometry() {
        let mut rng = StdRng::seed_from_u64(0xDEC0);
        let check = |q: u64, base_log: u32, levels: usize, n: usize, src: &[u64]| {
            let mut want = vec![0i64; src.len() * levels];
            let mut got = want.clone();
            gadget_decompose_rows(q, base_log, levels, n, src, &mut want);
            LANES_BACKEND.decompose_batch(q, base_log, levels, n, src, &mut got);
            assert_eq!(got, want, "q={q} base_log={base_log} levels={levels} n={n}");
        };
        for bits in [20u32, 32, 33, 45, 62] {
            let q = (0..)
                .map(|i| (1u64 << bits) - 1 - i)
                .find(|&c| crate::prime::is_prime(c))
                .unwrap();
            for base_log in 1..=16u32 {
                for levels in 1..=6usize {
                    let beta = base_log * levels as u32;
                    if bits + beta > 127 {
                        // The reference's own `u128` numerator overflows.
                        continue;
                    }
                    let words = decompose_words(q, base_log, beta, &mut rng);
                    for n in [1usize, 7, 8, 1024] {
                        let mut src = words.clone();
                        let rows = src.len().div_ceil(n);
                        src.resize_with(rows * n, || rng.gen_range(0..q));
                        check(q, base_log, levels, n, &src);
                    }
                    // One word outside the window: that row takes the
                    // reference body, its neighbours the lanes pass.
                    let mut src: Vec<u64> = (0..3 * 8).map(|_| rng.gen_range(0..q)).collect();
                    src[11] = q;
                    check(q, base_log, levels, 8, &src);
                }
            }
        }
    }

    /// A buffer that is not a whole number of rows: three rows' worth
    /// of words plus one, handed over as a three-row batch.
    fn ragged_batch(backend: &dyn KernelBackend) {
        let t = table(45, 64);
        let mut flat = vec![1u64; 3 * 64 + 1];
        backend.forward_batch(&[&t, &t, &t], &mut flat, ExitFold::Lazy2p);
    }

    #[test]
    #[should_panic(expected = "not a multiple of rows")]
    fn ragged_batch_panics_on_scalar() {
        ragged_batch(&SCALAR);
    }

    #[test]
    #[should_panic(expected = "not a multiple of rows")]
    fn ragged_batch_panics_on_lanes() {
        ragged_batch(&LANES_BACKEND);
    }

    /// The operand-length contract holds at the batch boundary on every
    /// backend: a short operand panics before any row is touched
    /// instead of truncating a row pass (scalar `zip`) or skipping
    /// whole rows (`chunks_exact` in release builds).
    #[test]
    fn short_batch_operand_panics_on_every_backend() {
        let (n, limbs) = (64usize, 4usize);
        let moduli: Vec<Modulus> = ntt_primes(45, n, limbs)
            .iter()
            .map(|&p| Modulus::new(p).unwrap())
            .collect();
        let perm: Vec<usize> = (0..n).rev().collect();
        let full = vec![1u64; limbs * n];
        let short = &full[..(limbs - 1) * n];
        for b in [&SCALAR as &dyn KernelBackend, &LANES_BACKEND] {
            for op in 0..4 {
                let mut out = full.clone();
                let run = std::panic::AssertUnwindSafe(|| match op {
                    0 => b.add_lazy_batch(&moduli, &mut out, short),
                    1 => b.mul_acc_lazy_batch(&moduli, &mut out, short, &full),
                    2 => b.mul_acc_lazy_batch(&moduli, &mut out, &full, short),
                    _ => b.permute_batch(&perm, short, &mut out),
                });
                let panic = std::panic::catch_unwind(run).expect_err("short operand accepted");
                let msg = panic.downcast::<String>().expect("assert_eq! message");
                assert!(msg.contains("operand length"), "op {op}: {msg}");
                assert_eq!(out, full, "{} op {op} touched rows", b.name());
            }
        }
    }

    /// A ragged buffer — not a whole number of rows — panics on every
    /// backend in every build, before any output word is written,
    /// instead of returning with the tail rows unwritten.
    #[test]
    fn ragged_permute_and_decompose_panic_on_every_backend() {
        let perm = [3usize, 2, 1, 0];
        let src = [1u64; 6];
        let (n, levels) = (8usize, 2usize);
        let digits_src = [1u64; 35];
        for b in [&SCALAR as &dyn KernelBackend, &LANES_BACKEND] {
            let name = b.name();
            let mut dst = [7u64; 6];
            let run = std::panic::AssertUnwindSafe(|| b.permute_batch(&perm, &src, &mut dst));
            let panic = std::panic::catch_unwind(run).expect_err("ragged permute accepted");
            let msg = panic.downcast::<String>().expect("assert_eq! message");
            assert!(msg.contains("not a multiple"), "{name} permute: {msg}");
            assert_eq!(dst, [7; 6], "{name} permute touched words");

            let mut out = vec![7i64; digits_src.len() * levels];
            let run = std::panic::AssertUnwindSafe(|| {
                b.decompose_batch(1 << 20, 8, levels, n, &digits_src, &mut out)
            });
            let panic = std::panic::catch_unwind(run).expect_err("ragged decompose accepted");
            let msg = panic.downcast::<String>().expect("assert_eq! message");
            assert!(msg.contains("not a multiple"), "{name} decompose: {msg}");
            assert_eq!(out, [7; 70], "{name} decompose touched words");
        }
    }

    /// An exact BConv batch with one operand a word short: `y` the digit
    /// buffer, `v` the overshoot multiples, `a` the `A mod b_j` words.
    fn short_bconv_operand(backend: &dyn KernelBackend, short: char) {
        let (n, alpha) = (64usize, 2usize);
        let moduli: Vec<Modulus> = ntt_primes(45, n, 3)
            .iter()
            .map(|&p| Modulus::new(p).unwrap())
            .collect();
        let cut = |words: Vec<u64>, operand: char| {
            let keep = words.len() - usize::from(operand == short);
            words[..keep].to_vec()
        };
        let (y, v, a_mod) = (
            cut(vec![1; alpha * n], 'y'),
            cut(vec![1; n], 'v'),
            cut(vec![1; moduli.len()], 'a'),
        );
        let weights = vec![1u64; moduli.len() * alpha];
        let mut out = vec![0u64; moduli.len() * n];
        backend.convert_exact_batch(&moduli, &weights, &a_mod, &v, &y, &mut out);
    }

    #[test]
    #[should_panic(expected = "digit buffer size mismatch")]
    fn short_bconv_digits_panic_on_scalar() {
        short_bconv_operand(&SCALAR, 'y');
    }

    #[test]
    #[should_panic(expected = "digit buffer size mismatch")]
    fn short_bconv_digits_panic_on_lanes() {
        short_bconv_operand(&LANES_BACKEND, 'y');
    }

    #[test]
    #[should_panic(expected = "one overshoot multiple per coefficient")]
    fn short_bconv_multiples_panic_on_scalar() {
        short_bconv_operand(&SCALAR, 'v');
    }

    #[test]
    #[should_panic(expected = "one overshoot multiple per coefficient")]
    fn short_bconv_multiples_panic_on_lanes() {
        short_bconv_operand(&LANES_BACKEND, 'v');
    }

    #[test]
    #[should_panic(expected = "one A mod b_j per limb")]
    fn short_bconv_a_mod_b_panics_on_scalar() {
        short_bconv_operand(&SCALAR, 'a');
    }

    #[test]
    #[should_panic(expected = "one A mod b_j per limb")]
    fn short_bconv_a_mod_b_panics_on_lanes() {
        short_bconv_operand(&LANES_BACKEND, 'a');
    }
}
