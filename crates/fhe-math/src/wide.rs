//! The wide bodies of the kernels that are the machine: NTT butterflies,
//! the modular multiply-accumulate — the key inner product's and the
//! base conversion's — and the TFHE gadget decomposition, on the
//! 8 x 52-bit multiply-add unit of AVX-512 IFMA.
//!
//! [`crate::kernel::LaneBackend`] picks these passes per row, from what
//! it can observe ([`takes_ntt`] / [`takes_mac`] / [`takes_bconv`] /
//! [`takes_decompose`]: the CPU reports both features, the modulus is
//! at most `2^50` — below `2^32` for the decomposition — the row has a
//! supported length; for BConv also the operand words, [`Digits`], and
//! for the decomposition the row's words, which [`decompose`] scans),
//! and runs its portable row passes otherwise. Every pass returns, word
//! for word, what the scalar reference returns on the same input; the
//! [`crate::kernel`] module docs carry the four identities that rests
//! on, and `kernel::tests::wide_passes_match_the_reference_words` /
//! `wide_bconv_matches_the_reference_words` /
//! `wide_decompose_matches_the_reference_words` sweep them.
//!
//! Every operand of a 52-bit multiply must be below `2^52`. With
//! `4p <= 2^52` the whole `[0, 4p)` butterfly window is, and a remainder
//! known to lie below `4p` can be computed modulo `2^52`.
//!
//! This file is the only place that names an intrinsic or a target
//! feature. Its `unsafe` is the three memory accesses at the top
//! ([`load`], [`store`], [`store_digits`]), each over a borrowed array;
//! the passes themselves are safe code over array chunks, callable only
//! where both features are enabled — the seven call sites in
//! `kernel.rs` are `unsafe` for that reason alone.

use std::arch::x86_64::*;

use crate::kernel::ExitFold;
use crate::modulus::Modulus;
use crate::ntt::NttTable;

/// Largest modulus the wide passes take (`4p <= 2^52`).
const MAX_P: u64 = 1 << 50;

/// One past the largest 52-bit multiplier operand.
const WORD: u64 = 1 << 52;

/// Most source rows [`bconv`] accumulates — `BasisConverter::new`'s
/// bound; the exact variant's correction makes one term more.
const MAX_ALPHA: usize = 16;

/// [`bconv`]'s output modulus exceeds this: `2^5 < b` keeps the high
/// accumulator below `2^(s + 52)` (identity 3 of the kernel docs).
const MIN_BCONV_P: u64 = 1 << 5;

/// [`decompose`]'s modulus is below this: the remainder of its quotient
/// estimate is one 32 x 32-bit multiply away (identity 4).
const DECOMPOSE_Q_LIMIT: u64 = 1 << 32;

/// Deepest gadget [`decompose`] takes: `beta = base_log * levels <= 31`
/// keeps the rounded quotient, at most `2^beta`, a 32-bit multiplier.
const MAX_BETA: usize = 31;

/// Whether the modulus suits the 52-bit multiplier: `4p <= 2^52`, and
/// not a power of two (so `2^(b-1) < p` and the Barrett constant of
/// [`Barrett::new`] stays below `2^52`; no NTT modulus is one).
fn fits(m: &Modulus) -> bool {
    m.value() <= MAX_P && !m.value().is_power_of_two()
}

/// Whether this CPU has the two features every pass here is compiled
/// for (`std` probes CPUID once and caches the answer).
fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// Whether [`forward`] / [`inverse`] serve `n`-word rows under `m` on
/// this CPU.
pub(crate) fn takes_ntt(m: &Modulus, n: usize) -> bool {
    fits(m) && n.is_power_of_two() && n >= 16 && available()
}

/// Whether [`mul_acc`] / [`mul`] serve `n`-word rows under `m` on this
/// CPU.
pub(crate) fn takes_mac(m: &Modulus, n: usize) -> bool {
    fits(m) && n.is_multiple_of(8) && available()
}

/// Whether [`bconv`] serves an `n`-word output row under `m` with the
/// weights `w` on this CPU; the digit words are [`Digits`]' to check.
pub(crate) fn takes_bconv(m: &Modulus, n: usize, w: &[u64]) -> bool {
    bconv_fits(m, n, w) && available()
}

/// `2^5 < b <= 2^50` not a power of two, rows of 8-word chunks, and at
/// most 16 weights, each a 52-bit operand.
fn bconv_fits(m: &Modulus, n: usize, w: &[u64]) -> bool {
    fits(m)
        && m.value() > MIN_BCONV_P
        && n.is_multiple_of(8)
        && w.len() <= MAX_ALPHA
        && w.iter().all(|&x| x < WORD)
}

/// Whether [`decompose`] serves `n`-word rows of the base-`2^base_log`,
/// `levels`-deep gadget under `q` on this CPU; the words of each row are
/// [`decompose`]'s to check.
pub(crate) fn takes_decompose(q: u64, base_log: u32, levels: usize, n: usize) -> bool {
    decompose_fits(q, base_log, levels, n) && available()
}

/// `q < 2^32`, `base_log >= 1`, `beta = base_log * levels <= 31`,
/// `2^beta < q` (so `floor(2^(52 + beta) / q)` is a 52-bit operand),
/// rows of 8-word chunks.
fn decompose_fits(q: u64, base_log: u32, levels: usize, n: usize) -> bool {
    let beta = (base_log as usize).saturating_mul(levels);
    q < DECOMPOSE_Q_LIMIT
        && base_log >= 1
        && beta <= MAX_BETA
        && 1 << beta < q
        && n.is_multiple_of(8)
}

/// The `K <= 8` words of `c` in the low lanes, zero above.
#[inline]
#[target_feature(enable = "avx512f")]
fn load<const K: usize>(c: &[u64; K]) -> __m512i {
    const { assert!(K >= 1 && K <= 8) };
    // SAFETY: the mask selects lanes `0..K`, the `K` readable words `c`
    // borrows; a masked load does not touch the lanes it masks out and
    // has no alignment requirement.
    unsafe { _mm512_maskz_loadu_epi64(u8::MAX >> (8 - K), c.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn store(c: &mut [u64; 8], v: __m512i) {
    // SAFETY: `c` is 64 writable bytes; `storeu` has no alignment
    // requirement.
    unsafe { _mm512_storeu_epi64(c.as_mut_ptr().cast(), v) }
}

/// [`store`] for a row of signed digits.
#[inline]
#[target_feature(enable = "avx512f")]
fn store_digits(c: &mut [i64; 8], v: __m512i) {
    // SAFETY: `c` is 64 writable bytes; `storeu` has no alignment
    // requirement.
    unsafe { _mm512_storeu_epi64(c.as_mut_ptr(), v) }
}

/// `x - bound` where `x >= bound`, else `x` (`bound <= 2^63`, as
/// `kernel::csub`).
#[inline]
#[target_feature(enable = "avx512f")]
fn csub(x: __m512i, bound: __m512i) -> __m512i {
    _mm512_min_epu64(x, _mm512_sub_epi64(x, bound))
}

/// `idx`-gather across the 16 words of `(a, b)`: lane `i` of the result
/// is word `idx[i]` of `a ++ b`.
#[inline]
#[target_feature(enable = "avx512f")]
fn pick(a: __m512i, idx: &[u64; 8], b: __m512i) -> __m512i {
    _mm512_permutex2var_epi64(a, load(idx), b)
}

// Lane shuffles of the in-register stages, as `pick` indices. Two
// vectors hold 16 words of the row. `EXn` swaps between the arrangement
// in which words `2n` apart share a lane of the two vectors and the one
// in which words `n` apart do (the natural order is the first of these
// for `n = 4`); each is its own inverse, so the forward stages walk
// `EX4, EX2, EX1` and the inverse stages walk back.
const EX4: [[u64; 8]; 2] = [[0, 1, 2, 3, 8, 9, 10, 11], [4, 5, 6, 7, 12, 13, 14, 15]];
const EX2: [[u64; 8]; 2] = [[0, 1, 8, 9, 4, 5, 12, 13], [2, 3, 10, 11, 6, 7, 14, 15]];
const EX1: [[u64; 8]; 2] = [[0, 8, 2, 10, 4, 12, 6, 14], [1, 9, 3, 11, 5, 13, 7, 15]];
const EVEN_ODD: [[u64; 8]; 2] = [[0, 2, 4, 6, 8, 10, 12, 14], [1, 3, 5, 7, 9, 11, 13, 15]];
const INTERLEAVE: [[u64; 8]; 2] = [[0, 8, 1, 9, 2, 10, 3, 11], [4, 12, 5, 13, 6, 14, 7, 15]];

/// The per-modulus constants of the butterfly passes, broadcast.
#[derive(Clone, Copy)]
struct Lanes {
    p: __m512i,
    two_p: __m512i,
    /// `2^52 - p`: `madd52lo(x, q, neg_p) = x - q*p (mod 2^52)`.
    neg_p: __m512i,
    mask52: __m512i,
}

/// A vector of twiddles in the form [`Lanes::mul_shoup`] consumes: `w`
/// and the Shoup companion `ws` split as `ws = hi * 2^12 + lo12`.
#[derive(Clone, Copy)]
struct Twiddle {
    w: __m512i,
    /// `ws >> 12`, the 52-bit Shoup constant `floor(w * 2^52 / p)`.
    hi: __m512i,
    /// `ws << 40`: its low 52 bits are `lo12 * 2^40`.
    lo: __m512i,
}

impl Twiddle {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(w: __m512i, ws: __m512i) -> Self {
        Self {
            w,
            hi: _mm512_srli_epi64::<12>(ws),
            lo: _mm512_slli_epi64::<40>(ws),
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(w: u64, ws: u64) -> Self {
        Self::new(_mm512_set1_epi64(w as i64), _mm512_set1_epi64(ws as i64))
    }

    /// `K` consecutive twiddles, lane `i` taking twiddle `dup[i]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn spread<const K: usize>(w: &[u64; K], ws: &[u64; K], dup: &[u64; 8]) -> Self {
        let dup = load(dup);
        Self::new(
            _mm512_permutexvar_epi64(dup, load(w)),
            _mm512_permutexvar_epi64(dup, load(ws)),
        )
    }
}

impl Lanes {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(p: u64) -> Self {
        Self {
            p: _mm512_set1_epi64(p as i64),
            two_p: _mm512_set1_epi64(2 * p as i64),
            neg_p: _mm512_set1_epi64(((1 << 52) - p) as i64),
            mask52: _mm512_set1_epi64((1 << 52) - 1),
        }
    }

    /// [`Modulus::mul_shoup_lazy`] on eight words `a < 2^52`: the same
    /// quotient `q = floor(a * ws / 2^64)`, hence the same `[0, 2p)`
    /// representative `a*w - q*p`.
    ///
    /// `a * ws = (q' * 2^52 + f) * 2^12 + a * lo12` with
    /// `a * hi = q' * 2^52 + f`, so `q = q' + c` where the carry `c` is
    /// `1` exactly when `f + floor(a * lo12 / 2^12) >= 2^52` — and
    /// `floor(a * lo12 / 2^12)` is the high half of `a * (lo12 * 2^40)`.
    /// The remainder is below `2p <= 2^51`, so it is taken modulo `2^52`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_shoup(&self, a: __m512i, t: &Twiddle) -> __m512i {
        let zero = _mm512_setzero_si512();
        let q = _mm512_madd52hi_epu64(zero, a, t.hi);
        let f = _mm512_madd52lo_epu64(zero, a, t.hi);
        let carry = _mm512_srli_epi64::<52>(_mm512_madd52hi_epu64(f, a, t.lo));
        let q = _mm512_add_epi64(q, carry);
        let aw = _mm512_madd52lo_epu64(zero, a, t.w);
        _mm512_and_si512(_mm512_madd52lo_epu64(aw, q, self.neg_p), self.mask52)
    }

    /// One Harvey forward butterfly (`KernelBackend::forward_stages`):
    /// `x, y` in `[0, 4p)`, results in `[0, 4p)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn ct(&self, x: __m512i, y: __m512i, t: &Twiddle) -> (__m512i, __m512i) {
        let u = csub(x, self.two_p);
        let v = self.mul_shoup(y, t);
        (
            _mm512_add_epi64(u, v),
            _mm512_sub_epi64(_mm512_add_epi64(u, self.two_p), v),
        )
    }

    /// One Gentleman–Sande inverse butterfly
    /// (`KernelBackend::inverse_stages`): `x, y` and results in
    /// `[0, 2p)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn gs(&self, x: __m512i, y: __m512i, t: &Twiddle) -> (__m512i, __m512i) {
        let d = _mm512_sub_epi64(_mm512_add_epi64(x, self.two_p), y);
        (
            csub(_mm512_add_epi64(x, y), self.two_p),
            self.mul_shoup(d, t),
        )
    }

    /// One whole stage at butterfly distance `len >= 16` over the row
    /// `blocks`: group `i` (`2 * len` words) under the one twiddle
    /// `groups + i`, Cooley–Tukey if `FORWARD`, else Gentleman–Sande.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn broadcast_stage<const FORWARD: bool>(
        &self,
        blocks: &mut [[[u64; 8]; 2]],
        len: usize,
        w: &[u64],
        ws: &[u64],
    ) {
        let groups = blocks.len() * 8 / len;
        for (i, group) in blocks.chunks_exact_mut(len / 8).enumerate() {
            let tw = Twiddle::splat(w[groups + i], ws[groups + i]);
            let (lo, hi) = group.as_flattened_mut().split_at_mut(len / 8);
            for (x, y) in lo.iter_mut().zip(hi) {
                let (a, b) = if FORWARD {
                    self.ct(load(x), load(y), &tw)
                } else {
                    self.gs(load(x), load(y), &tw)
                };
                store(x, a);
                store(y, b);
            }
        }
    }

    /// The forward exit fold of a `[0, 4p)` vector.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn fold_4p(&self, x: __m512i, exit: ExitFold) -> __m512i {
        let x = csub(x, self.two_p);
        match exit {
            ExitFold::Canonical => csub(x, self.p),
            ExitFold::Lazy2p => x,
        }
    }
}

/// The twiddles the in-register stage with `K` groups per 16-word
/// block (`len = 8 / K`) applies to block `blk` — table words
/// `K * (n/16 + blk)` onward — each spread over its group's lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn block_twiddle<const K: usize>(w: &[u64], ws: &[u64], n: usize, blk: usize) -> Twiddle {
    let at = K * (n / 16 + blk);
    let dup: [u64; 8] = std::array::from_fn(|lane| (lane * K / 8) as u64);
    let (w, ws) = (w[at..].first_chunk::<K>(), ws[at..].first_chunk::<K>());
    let (Some(w), Some(ws)) = (w, ws) else {
        unreachable!("twiddle tables span n words");
    };
    Twiddle::spread(w, ws, &dup)
}

/// Checks what the NTT passes rely on and returns the row's 8-word
/// chunks grouped in 16-word blocks.
fn ntt_blocks<'a>(
    t: &NttTable,
    row: &'a mut [u64],
    w: &[u64],
    ws: &[u64],
) -> &'a mut [[[u64; 8]; 2]] {
    let n = t.n();
    assert!(fits(t.modulus()), "wide NTT needs p <= 2^50");
    assert!(
        n.is_power_of_two() && n >= 16,
        "wide NTT needs a power-of-two n >= 16"
    );
    assert_eq!(row.len(), n, "row length must equal the ring degree");
    assert!(w.len() == n && ws.len() == n, "twiddle tables span n words");
    row.as_chunks_mut::<8>().0.as_chunks_mut::<2>().0
}

/// Forward negacyclic NTT of one row plus its exit fold: the words of
/// `forward_stages` then `fold_4p_to_canonical` / `fold_4p_to_2p`.
/// Stages with `len >= 16` broadcast one twiddle per group; the last
/// four run in registers per 16-word block, the fold fused into the
/// store.
///
/// # Panics
///
/// Panics unless `p <= 2^50`, `n` is a power of two `>= 16` and
/// `row.len() == n`.
#[target_feature(enable = "avx512f,avx512ifma")]
pub(crate) fn forward(t: &NttTable, row: &mut [u64], exit: ExitFold) {
    let (w, ws) = t.psi_rev();
    let n = t.n();
    let blocks = ntt_blocks(t, row, w, ws);
    let k = Lanes::new(t.modulus().value());
    let mut len = n / 2;
    while len >= 16 {
        k.broadcast_stage::<true>(blocks, len, w, ws);
        len /= 2;
    }
    for (blk, [lo, hi]) in blocks.iter_mut().enumerate() {
        let (a, b) = k.ct(load(lo), load(hi), &block_twiddle::<1>(w, ws, n, blk));
        let (x, y) = (pick(a, &EX4[0], b), pick(a, &EX4[1], b));
        let (a, b) = k.ct(x, y, &block_twiddle::<2>(w, ws, n, blk));
        let (x, y) = (pick(a, &EX2[0], b), pick(a, &EX2[1], b));
        let (a, b) = k.ct(x, y, &block_twiddle::<4>(w, ws, n, blk));
        let (x, y) = (pick(a, &EX1[0], b), pick(a, &EX1[1], b));
        let (a, b) = k.ct(x, y, &block_twiddle::<8>(w, ws, n, blk));
        store(lo, k.fold_4p(pick(a, &INTERLEAVE[0], b), exit));
        store(hi, k.fold_4p(pick(a, &INTERLEAVE[1], b), exit));
    }
}

/// Inverse negacyclic NTT of one row plus the `n^{-1}` scaling: the
/// words of `inverse_stages` then `scale_shoup` / `scale_shoup_lazy`.
/// The mirror image of [`forward`]: four stages in registers per
/// 16-word block, broadcast stages from `len = 16` up, the scaling and
/// its fold as the last pass.
///
/// # Panics
///
/// As [`forward`].
#[target_feature(enable = "avx512f,avx512ifma")]
pub(crate) fn inverse(t: &NttTable, row: &mut [u64], exit: ExitFold) {
    let (w, ws) = t.psi_inv_rev();
    let n = t.n();
    let blocks = ntt_blocks(t, row, w, ws);
    let k = Lanes::new(t.modulus().value());
    for (blk, [lo, hi]) in blocks.iter_mut().enumerate() {
        let (a, b) = (load(lo), load(hi));
        let (x, y) = (pick(a, &EVEN_ODD[0], b), pick(a, &EVEN_ODD[1], b));
        let (a, b) = k.gs(x, y, &block_twiddle::<8>(w, ws, n, blk));
        let (x, y) = (pick(a, &EX1[0], b), pick(a, &EX1[1], b));
        let (a, b) = k.gs(x, y, &block_twiddle::<4>(w, ws, n, blk));
        let (x, y) = (pick(a, &EX2[0], b), pick(a, &EX2[1], b));
        let (a, b) = k.gs(x, y, &block_twiddle::<2>(w, ws, n, blk));
        let (x, y) = (pick(a, &EX4[0], b), pick(a, &EX4[1], b));
        let (a, b) = k.gs(x, y, &block_twiddle::<1>(w, ws, n, blk));
        store(lo, a);
        store(hi, b);
    }
    let mut len = 16;
    while len < n {
        k.broadcast_stage::<false>(blocks, len, w, ws);
        len *= 2;
    }
    let (ni, nis) = t.n_inv();
    let tw = Twiddle::splat(ni, nis);
    for x in blocks.as_flattened_mut() {
        let v = k.mul_shoup(load(x), &tw);
        store(
            x,
            match exit {
                ExitFold::Canonical => csub(v, k.p),
                ExitFold::Lazy2p => v,
            },
        );
    }
}

/// The per-modulus constants of the canonical multiply-accumulate.
#[derive(Clone, Copy)]
struct Barrett {
    k: Lanes,
    /// `s = bits(p) - 1`, so `2^s < p < 2^(s+1)`.
    s: __m512i,
    /// `2^(52 - s)`.
    pow: __m512i,
    /// `floor(2^(s + 52) / p)`, in `[2^51, 2^52)`.
    mu: __m512i,
}

impl Barrett {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(m: &Modulus) -> Self {
        let s = m.bits() - 1;
        Self {
            k: Lanes::new(m.value()),
            s: _mm512_set1_epi64(s as i64),
            pow: _mm512_set1_epi64(1 << (52 - s)),
            // floor(floor(2^128 / p) / 2^(76 - s)) = floor(2^(s+52) / p).
            mu: _mm512_set1_epi64((m.barrett_ratio() >> (76 - s)) as i64),
        }
    }

    /// `(x * y + acc) mod p`, canonical, for `x, y, acc` in `[0, 2p)` —
    /// the word [`Modulus::reduce_u128_lazy`] returns over that range.
    ///
    /// With `x` folded below `p`, `T = x*y + acc < 2p^2`. Its top
    /// `A = floor(T / 2^s) < 4p` fits 52 bits, and
    /// `q = floor(A * mu / 2^52)` satisfies `T/p - 3 < q <= T/p`: the
    /// three floors lose less than `2^s/p < 1`,
    /// `T / 2^(s+52) <= 2^(s-49) <= 1` and `1`. So `T - q*p` lies in
    /// `[0, 3p)`, below `2^52`, and can be taken modulo `2^52`; two
    /// conditional subtractions finish.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_add(&self, x: __m512i, y: __m512i, acc: __m512i) -> __m512i {
        let (zero, k) = (_mm512_setzero_si512(), &self.k);
        let x = csub(x, k.p);
        let lo = _mm512_madd52lo_epu64(acc, x, y);
        let hi = _mm512_madd52hi_epu64(zero, x, y);
        // T = hi * 2^52 + lo, so A = hi * 2^(52 - s) + floor(lo / 2^s).
        let top = _mm512_madd52lo_epu64(_mm512_srlv_epi64(lo, self.s), hi, self.pow);
        let q = _mm512_madd52hi_epu64(zero, top, self.mu);
        let r = _mm512_and_si512(_mm512_madd52lo_epu64(lo, q, k.neg_p), k.mask52);
        csub(csub(r, k.p), k.p)
    }

    /// A `[0, 2p)` representative of `x < 2^(s + 52)`: the quotient
    /// estimate of [`Self::mul_add`] with `T = x`, so
    /// `floor(x / 2^s) < 2^52`, the raw remainder lies in `[0, 3p)` and
    /// one subtraction is left.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn reduce(&self, x: __m512i) -> __m512i {
        let k = &self.k;
        let top = _mm512_srlv_epi64(x, self.s);
        let q = _mm512_madd52hi_epu64(_mm512_setzero_si512(), top, self.mu);
        csub(
            _mm512_and_si512(_mm512_madd52lo_epu64(x, q, k.neg_p), k.mask52),
            k.p,
        )
    }
}

/// `[0, 2p)` rows of equal length, a multiple of 8, under a modulus the
/// wide multiplier serves — what [`mul_acc`] and [`mul`] rely on.
fn assert_mac_rows(m: &Modulus, out: usize, operands: &[usize]) {
    assert!(fits(m), "wide MAC needs p <= 2^50, not a power of two");
    assert!(
        out.is_multiple_of(8),
        "wide MAC needs rows of 8-word chunks"
    );
    for &len in operands {
        assert_eq!(len, out, "operand rows must have equal lengths");
    }
}

/// `acc[i] = (a[i] * b[i] + acc[i]) mod p`: the words of
/// `KernelBackend::mul_acc_lazy`.
///
/// # Panics
///
/// Panics unless `p <= 2^50` is not a power of two and the three rows
/// have one length, a multiple of 8.
#[target_feature(enable = "avx512f,avx512ifma")]
pub(crate) fn mul_acc(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
    assert_mac_rows(m, acc.len(), &[a.len(), b.len()]);
    let k = Barrett::new(m);
    let rows = acc.as_chunks_mut::<8>().0.iter_mut();
    for ((x, a), b) in rows.zip(a.as_chunks::<8>().0).zip(b.as_chunks::<8>().0) {
        store(x, k.mul_add(load(a), load(b), load(x)));
    }
}

/// `a[i] = a[i] * b[i] mod p`: the words of `KernelBackend::mul_lazy`.
///
/// # Panics
///
/// As [`mul_acc`].
#[target_feature(enable = "avx512f,avx512ifma")]
pub(crate) fn mul(m: &Modulus, a: &mut [u64], b: &[u64]) {
    assert_mac_rows(m, a.len(), &[b.len()]);
    let k = Barrett::new(m);
    for (x, b) in a
        .as_chunks_mut::<8>()
        .0
        .iter_mut()
        .zip(b.as_chunks::<8>().0)
    {
        store(x, k.mul_add(load(x), load(b), _mm512_setzero_si512()));
    }
}

/// The digit rows of one BConv batch and, for the exact variant, its
/// overshoot multiples (empty for the approximate one), every word
/// checked below `2^52` when the batch builds it. The kernel does not
/// see the source moduli, so nothing else bounds them.
pub(crate) struct Digits<'a> {
    y: &'a [u64],
    v: &'a [u64],
}

impl<'a> Digits<'a> {
    /// `None` when a word of `y` or `v` is `2^52` or wider. One
    /// branch-free scan, `alpha * n` words against the
    /// `rows * alpha * n` products the batch multiplies.
    pub(crate) fn new(y: &'a [u64], v: &'a [u64]) -> Option<Self> {
        (y.iter().chain(v).fold(0, |or, &x| or | x) < WORD).then_some(Self { y, v })
    }
}

/// `out[c] = (sum_i y_i[c] * w[i] + v[c] * (-a mod b)) mod b`,
/// canonical, the last term present when `a_mod_b = Some(a)`: one output
/// row of `KernelBackend::convert_approx_batch` /
/// `convert_exact_batch`, with the words of the reference's
/// `reduce_u128` / `bj.sub(.., bj.mul(..))` (identity 3 of the kernel
/// docs). Per 8-word block every term adds the low and the high 52-bit
/// half of its product into two accumulators; each word is folded once.
///
/// # Panics
///
/// Panics unless `2^5 < b <= 2^50` is not a power of two, `out.len()`
/// is a multiple of 8, `w` holds at most 16 words below `2^52`, `d`
/// spans `w.len()` rows of `out.len()` words and, with `a_mod_b`, one
/// overshoot multiple per word.
#[target_feature(enable = "avx512f,avx512ifma")]
pub(crate) fn bconv(m: &Modulus, w: &[u64], a_mod_b: Option<u64>, d: &Digits, out: &mut [u64]) {
    let n = out.len();
    assert!(
        bconv_fits(m, n, w),
        "wide BConv needs 2^5 < b <= 2^50, 8-word chunks and <= 16 52-bit weights"
    );
    assert_eq!(
        d.y.len(),
        w.len() * n,
        "digit rows must span the output row"
    );
    let k = Barrett::new(m);
    // Term `t` reads the 8-word chunks `rows[t]` under the weight `ws[t]`.
    let mut rows: [&[[u64; 8]]; MAX_ALPHA + 1] = [&[]; MAX_ALPHA + 1];
    let mut ws = [_mm512_setzero_si512(); MAX_ALPHA + 1];
    let y = d.y.as_chunks::<8>().0;
    for (t, &wt) in w.iter().enumerate() {
        rows[t] = &y[t * n / 8..][..n / 8];
        ws[t] = _mm512_set1_epi64(wt as i64);
    }
    let mut terms = w.len();
    if let Some(a) = a_mod_b {
        assert_eq!(d.v.len(), n, "one overshoot multiple per word");
        rows[terms] = d.v.as_chunks::<8>().0;
        ws[terms] = _mm512_set1_epi64(m.neg(m.reduce(a)) as i64);
        terms += 1;
    }
    let two52 = _mm512_set1_epi64(m.reduce(WORD) as i64);
    let mask52 = k.k.mask52;
    for (c, o) in out.as_chunks_mut::<8>().0.iter_mut().enumerate() {
        let (mut lo, mut hi) = (_mm512_setzero_si512(), _mm512_setzero_si512());
        for (row, &wt) in rows[..terms].iter().zip(&ws[..terms]) {
            let x = load(&row[c]);
            lo = _mm512_madd52lo_epu64(lo, x, wt);
            hi = _mm512_madd52hi_epu64(hi, x, wt);
        }
        let h = _mm512_add_epi64(hi, _mm512_srli_epi64::<52>(lo));
        let l = _mm512_and_si512(lo, mask52);
        store(o, k.mul_add(k.reduce(h), two52, k.reduce(l)));
    }
}

/// The balanced base-`2^base_log` digits of one row, every word below
/// `q`: the `levels` digit rows `orows` that `gadget_decompose_rows`
/// writes for `srow`. Per 8 words, the rounded quotient
/// `y = floor((x * 2^beta + floor(q/2)) / q)` is a 52-bit high multiply
/// by `floor(2^(52 + beta) / q)` plus one correction (identity 4 of the
/// kernel docs); the digits are peeled from `y` in registers, last level
/// first, and each level's 8 go straight to its row.
///
/// Returns `false`, having written nothing, when a word of `srow` is
/// `q` or wider: the estimate holds only below `q`, and the reference
/// body takes such a row.
///
/// # Panics
///
/// Panics unless `q < 2^32`, `base_log >= 1`,
/// `beta = base_log * levels <= 31`, `2^beta < q`, `srow.len()` is a
/// multiple of 8 and `orows` spans `levels` rows of it.
#[target_feature(enable = "avx512f,avx512ifma")]
pub(crate) fn decompose(
    q: u64,
    base_log: u32,
    levels: usize,
    srow: &[u64],
    orows: &mut [i64],
) -> bool {
    let n = srow.len();
    assert!(
        decompose_fits(q, base_log, levels, n),
        "wide decompose needs q < 2^32, 1 <= base_log, base_log * levels <= 31, \
         2^(base_log * levels) < q and 8-word chunks"
    );
    assert_eq!(orows.len(), levels * n, "digit buffer size mismatch");
    let words = srow.as_chunks::<8>().0;
    let splat = |w: u64| _mm512_set1_epi64(w as i64);
    let (zero, qv) = (_mm512_setzero_si512(), splat(q));
    let top = words.iter().fold(zero, |m, x| _mm512_max_epu64(m, load(x)));
    if _mm512_cmpge_epu64_mask(top, qv) != 0 {
        return false;
    }
    let beta = base_log * levels as u32;
    let c = splat(((1u128 << (52 + beta)) / u128::from(q)) as u64);
    let (shl_beta, half_q, one) = (splat(beta.into()), splat(q / 2), splat(1));
    let (bl, top_bit) = (splat(base_log.into()), splat((base_log - 1).into()));
    let mask = splat((1 << base_log) - 1);
    let digits = orows.as_chunks_mut::<8>().0;
    for (c_at, x) in words.iter().enumerate() {
        let x = load(x);
        let est = _mm512_madd52hi_epu64(zero, x, c);
        let t = _mm512_add_epi64(_mm512_sllv_epi64(x, shl_beta), half_q);
        // est < 2^beta <= 2^31 and q < 2^32: one 32 x 32-bit product.
        let r = _mm512_sub_epi64(t, _mm512_mul_epu32(est, qv));
        let mut y = _mm512_mask_add_epi64(est, _mm512_cmpge_epu64_mask(r, qv), est, one);
        for level in (0..levels).rev() {
            let d = _mm512_and_si512(y, mask);
            let carry = _mm512_srlv_epi64(d, top_bit);
            y = _mm512_add_epi64(_mm512_srlv_epi64(y, bl), carry);
            let digit = _mm512_sub_epi64(d, _mm512_sllv_epi64(carry, bl));
            store_digits(&mut digits[level * n / 8 + c_at], digit);
        }
    }
    true
}
