//! The two `lib_*` workloads: closed loops of one client straight on
//! the library, no service. The seed picks the plaintexts only, so the
//! amount of work is the same for every seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trinity::ckks::bootstrap::bootstrap_test_params;
use trinity::ckks::{
    BootstrapParams, Bootstrapper, Ciphertext, CkksContext, CkksParams, Decryptor, Encoder,
    Encryptor, Evaluator, KeyGenerator, KeySet, Plaintext, SecretKey,
};
use trinity::convert::{extract_lwes, extracted_key, lwe_mod_switch, RlwePacker};
use trinity::math::{Modulus, RnsPoly};
use trinity::tfhe::{
    ClientKey, LweCiphertext, LweKeySwitchKey, MulBackend, ServerKey, TfheContext, TfheParams,
};

use crate::harness::{checksum, ct_checksum, median, Metrics, RepOut, Workload, KEY_SEED};
use crate::probes;
use crate::span::Tracer;

fn median_span_ms(tracer: &Tracer, name: &'static str) -> f64 {
    median(&tracer.durations_ms(name))
}

// ---------------------------------------------------------------------
// lib_bootstrap
// ---------------------------------------------------------------------

/// Iterations per repetition. One, of about a second: more repetitions
/// of a shorter phase fold to a steadier number than fewer of a longer.
const BOOTSTRAPS: usize = 1;
/// The tolerance the bootstrap's own tests assert per slot.
const REFRESH_TOLERANCE: f64 = 2e-2;
/// After squaring a value below 0.9: twice the slot error, rounded up.
const SQUARE_TOLERANCE: f64 = 5e-2;

pub struct Boot {
    ctx: Arc<CkksContext>,
    boot: Bootstrapper,
    keys: KeySet,
    enc: Encoder,
    eval: Evaluator,
    dec: Decryptor,
    /// Exhausted (level 0) ciphertexts and their sparse-slot values.
    inputs: Vec<(Ciphertext, Vec<f64>)>,
}

impl Boot {
    pub fn setup(seed: u64) -> Boot {
        let mut rng = StdRng::seed_from_u64(KEY_SEED);
        let ctx = CkksContext::new(bootstrap_test_params());
        let boot = Bootstrapper::new(ctx.clone(), BootstrapParams::default());
        let keys = boot.generate_keys(&mut rng);
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let eval = Evaluator::new(ctx.clone());

        let mut values = StdRng::seed_from_u64(seed);
        let sparse = boot.params().sparse_slots;
        let inputs = (0..BOOTSTRAPS)
            .map(|_| {
                let vals: Vec<f64> = (0..sparse).map(|_| values.gen_range(-0.9..0.9)).collect();
                let tiled: Vec<f64> = (0..ctx.n() / 2).map(|j| vals[j % sparse]).collect();
                let pt = enc.encode_real(&tiled, 0);
                (encryptor.encrypt_sk(&pt, &keys.secret, &mut rng), vals)
            })
            .collect();

        let w = Boot {
            dec: Decryptor::new(ctx.clone()),
            ctx,
            boot,
            keys,
            enc,
            eval,
            inputs,
        };
        // Warm-up: one keyswitch-bearing operation at this shape (a
        // whole bootstrap would double the set-up time).
        let fresh = &w.inputs[0].0;
        std::hint::black_box(w.boot.sub_sum(&w.boot.mod_raise(fresh), &w.eval, &w.keys));
        w
    }

    fn slots_match(
        &self,
        ct: &Ciphertext,
        want: impl Fn(f64) -> f64,
        vals: &[f64],
        tol: f64,
    ) -> bool {
        let back = self.dec.decrypt(ct, &self.keys.secret, &self.enc);
        vals.iter()
            .enumerate()
            .all(|(i, &v)| (back[i].re - want(v)).abs() < tol)
    }
}

impl Workload for Boot {
    fn rep(&self, tracer: &mut Tracer) -> RepOut {
        let mut out = RepOut::default();
        let phase = Instant::now();
        for (i, (ct, vals)) in self.inputs.iter().enumerate() {
            let id = Some(i as u64);
            let ((fresh, square), d) = tracer.span("job", id, |t| {
                let (fresh, _) = t.span("bootstrap", id, |_| {
                    self.boot.bootstrap(ct, &self.eval, &self.enc, &self.keys)
                });
                let (square, _) = t.span("hmult_rescale", id, |_| {
                    self.eval
                        .rescale(&self.eval.mul(&fresh, &fresh, &self.keys.relin))
                });
                (fresh, square)
            });
            out.headline.push((out.calls.len(), out.calls.len()));
            out.calls.push(d);
            out.attempted += 1;
            let (ok, d) = tracer.span("verify", id, |_| {
                self.slots_match(&fresh, |v| v, vals, REFRESH_TOLERANCE)
                    && self.slots_match(&square, |v| v * v, vals, SQUARE_TOLERANCE)
            });
            out.excluded += d;
            out.checks
                .push(checksum(&[ct_checksum(&fresh), ct_checksum(&square)]));
            if ok {
                out.jobs += 1;
            } else {
                out.failed += 1;
            }
        }
        out.phase = phase.elapsed();
        out
    }

    fn excluded_spans(&self) -> &'static [&'static str] {
        &["verify"]
    }

    fn layers(&self, traced: &Tracer, _: Duration, _: &[u64], out: &mut Metrics) -> bool {
        probes::ckks(&self.ctx, &self.keys.secret, out);
        out.set("ckks.bootstrap_ms", median_span_ms(traced, "bootstrap"));
        out.set(
            "ckks.hmult_rescale_ms",
            median_span_ms(traced, "hmult_rescale"),
        );
        true
    }
}

// ---------------------------------------------------------------------
// lib_hybrid
// ---------------------------------------------------------------------

/// Queries per repetition. One, of four Set-III bootstraps and about
/// 1.1 s, for the reason `BOOTSTRAPS` gives.
const QUERIES: usize = 1;
const ROWS: usize = 2;
/// TFHE message space of the table's columns.
const T: u64 = 16;
/// LWEs in the CKKS -> LWE -> CKKS round trip.
const NSLOT: usize = 8;
/// The tolerance the `scheme_conversion` example asserts.
const PACK_TOLERANCE: f64 = 0.01;

struct Query {
    prices: Vec<LweCiphertext>,
    quantities: Vec<LweCiphertext>,
    price_below: u64,
    quantity_from: u64,
    want_prices: i64,
    want_quantities: i64,
    /// Round-trip input: `messages` in its first `NSLOT` coefficients.
    packed: Ciphertext,
    messages: Vec<i64>,
}

pub struct Hybrid {
    ck: ClientKey,
    server: ServerKey,
    q_tfhe: Modulus,
    q0: Modulus,
    /// Scale of a filter bit in the TFHE domain.
    delta: u64,
    /// Scale of a round-trip message in the CKKS domain.
    pack_delta: i64,
    ctx: Arc<CkksContext>,
    sk: SecretKey,
    cross_ksk: LweKeySwitchKey,
    packer: RlwePacker,
    eval: Evaluator,
    dec: Decryptor,
    queries: Vec<Query>,
}

impl Hybrid {
    pub fn setup(seed: u64) -> Hybrid {
        let mut rng = StdRng::seed_from_u64(KEY_SEED);
        let ck = ClientKey::generate(TfheContext::new(TfheParams::set_iii()), &mut rng);
        let server = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
        let q_tfhe = *ck.ctx.q();
        let delta = q_tfhe.value() / 32;

        let ctx = CkksContext::new(CkksParams::tiny_params());
        let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
        let q0 = *ctx.level_basis(0).modulus(0);
        let cross_ksk = LweKeySwitchKey::generate(
            &q0,
            &ck.glwe_sk.extracted_lwe_key(),
            &extracted_key(&sk),
            2,
            16,
            1e-9,
            &mut rng,
        );
        let packer = RlwePacker::new(ctx.clone(), &sk, 1, &mut rng);
        let encryptor = Encryptor::new(ctx.clone());
        let n = ctx.n();
        let pack_delta = (q0.value() / (64 * n as u64)) as i64;

        let mut plain = StdRng::seed_from_u64(seed);
        let queries = (0..QUERIES)
            .map(|_| {
                let prices: Vec<u64> = (0..ROWS).map(|_| plain.gen_range(0..T)).collect();
                let quantities: Vec<u64> = (0..ROWS).map(|_| plain.gen_range(0..T)).collect();
                let price_below = plain.gen_range(1..T);
                let quantity_from = plain.gen_range(1..T);
                let messages: Vec<i64> = (0..NSLOT).map(|_| plain.gen_range(-4..4i64)).collect();
                let mut coeffs = vec![0i64; n];
                for (c, &m) in coeffs.iter_mut().zip(&messages) {
                    *c = m * pack_delta;
                }
                let mut poly = RnsPoly::from_signed_coeffs(ctx.level_basis(0).clone(), &coeffs);
                poly.to_eval();
                let pt = Plaintext {
                    poly,
                    scale: pack_delta as f64,
                    level: 0,
                };
                let mut encrypt = |col: &[u64]| -> Vec<LweCiphertext> {
                    col.iter()
                        .map(|&v| ck.encrypt_message(v, T, &mut rng))
                        .collect()
                };
                Query {
                    want_prices: prices.iter().filter(|&&p| p < price_below).count() as i64,
                    want_quantities: quantities.iter().filter(|&&q| q >= quantity_from).count()
                        as i64,
                    prices: encrypt(&prices),
                    quantities: encrypt(&quantities),
                    price_below,
                    quantity_from,
                    packed: encryptor.encrypt_sk(&pt, &sk, &mut rng),
                    messages,
                }
            })
            .collect();

        Hybrid {
            eval: Evaluator::new(ctx.clone()),
            dec: Decryptor::new(ctx.clone()),
            ck,
            server,
            q_tfhe,
            q0,
            delta,
            pack_delta,
            ctx,
            sk,
            cross_ksk,
            packer,
            queries,
        }
    }

    /// One column's filter: a predicate bootstrap per row, summed in
    /// the LWE domain; the sum encodes `(2 * matches - rows) * delta`.
    fn count(
        &self,
        t: &mut Tracer,
        id: Option<u64>,
        col: &[LweCiphertext],
        pred: &dyn Fn(u64) -> bool,
    ) -> LweCiphertext {
        let bits: Vec<LweCiphertext> = col
            .iter()
            .map(|ct| {
                t.span("pbs_predicate", id, |_| {
                    self.server
                        .bootstrap_predicate_unswitched(ct, T, pred, self.delta)
                })
                .0
            })
            .collect();
        t.span("aggregate", id, |_| {
            let mut acc = LweCiphertext::trivial(bits[0].dim(), 0);
            for b in &bits {
                acc.add_assign(&self.q_tfhe, b);
            }
            acc
        })
        .0
    }

    /// TFHE LWE -> CKKS RLWE: modulus switch, cross-scheme keyswitch,
    /// ring embedding.
    fn to_ckks(&self, t: &mut Tracer, id: Option<u64>, count: &LweCiphertext) -> Ciphertext {
        let (at_q0, _) = t.span("mod_switch", id, |_| {
            lwe_mod_switch(count, &self.q_tfhe, &self.q0)
        });
        let (under_ckks, _) = t.span("lwe_keyswitch", id, |_| {
            self.cross_ksk.switch(&self.q0, &at_q0)
        });
        let delta_q0 = self.delta as f64 * self.q0.value() as f64 / self.q_tfhe.value() as f64;
        t.span("ring_embed", id, |_| {
            self.packer.ring_embed(&under_ckks, delta_q0)
        })
        .0
    }

    /// Decodes coefficient 0 of `ct` as a match count over `rows` rows.
    fn decode_count(&self, ct: &Ciphertext, rows: usize) -> i64 {
        let raw = self.dec.decrypt_poly(ct, &self.sk).to_centered_f64()[0] / ct.scale;
        ((raw + rows as f64) / 2.0).round() as i64
    }

    fn round_trip_ok(&self, packed: &Ciphertext, messages: &[i64]) -> bool {
        let vals = self.dec.decrypt_poly(packed, &self.sk).to_centered_f64();
        let stride = self.ctx.n() / NSLOT;
        vals.iter().enumerate().all(|(i, v)| {
            let want = if i % stride == 0 {
                messages[i / stride] as f64
            } else {
                0.0
            };
            (v / packed.scale - want).abs() < PACK_TOLERANCE
        })
    }
}

struct QueryOut {
    prices: Ciphertext,
    quantities: Ciphertext,
    both: Ciphertext,
    repacked: Ciphertext,
}

impl Workload for Hybrid {
    fn rep(&self, tracer: &mut Tracer) -> RepOut {
        let mut out = RepOut::default();
        let phase = Instant::now();
        for (i, q) in self.queries.iter().enumerate() {
            let id = Some(i as u64);
            let (got, d) = tracer.span("job", id, |t| {
                let count_prices = self.count(t, id, &q.prices, &|m| m < q.price_below);
                let count_quantities = self.count(t, id, &q.quantities, &|m| m >= q.quantity_from);
                let prices = self.to_ckks(t, id, &count_prices);
                let quantities = self.to_ckks(t, id, &count_quantities);
                let (both, _) = t.span("ckks_add", id, |_| self.eval.add(&prices, &quantities));
                let (lwes, _) = t.span("extract8", id, |_| {
                    extract_lwes(&self.ctx, &q.packed, NSLOT)
                });
                let (repacked, _) = t.span("pack8", id, |_| {
                    self.packer.convert(&lwes, self.pack_delta as f64)
                });
                QueryOut {
                    prices,
                    quantities,
                    both,
                    repacked,
                }
            });
            out.headline.push((out.calls.len(), out.calls.len()));
            out.calls.push(d);
            out.attempted += 1;
            let (ok, d) = tracer.span("verify", id, |_| {
                self.decode_count(&got.prices, ROWS) == q.want_prices
                    && self.decode_count(&got.quantities, ROWS) == q.want_quantities
                    && self.decode_count(&got.both, 2 * ROWS) == q.want_prices + q.want_quantities
                    && self.round_trip_ok(&got.repacked, &q.messages)
            });
            out.excluded += d;
            out.checks.push(checksum(&[
                ct_checksum(&got.both),
                ct_checksum(&got.repacked),
            ]));
            if ok {
                out.jobs += 1;
            } else {
                out.failed += 1;
            }
        }
        out.phase = phase.elapsed();
        out
    }

    fn excluded_spans(&self) -> &'static [&'static str] {
        &["verify"]
    }

    fn layers(&self, traced: &Tracer, _: Duration, _: &[u64], out: &mut Metrics) -> bool {
        probes::ckks(&self.ctx, &self.sk, out);
        probes::tfhe(&self.ck, &self.server, out);
        out.set(
            "tfhe.pbs_predicate_ms",
            median_span_ms(traced, "pbs_predicate"),
        );
        out.set(
            "tfhe.lwe_keyswitch_ms",
            median_span_ms(traced, "lwe_keyswitch"),
        );
        out.set(
            "convert.extract8_us",
            median_span_ms(traced, "extract8") * 1e3,
        );
        out.set(
            "convert.mod_switch_us",
            median_span_ms(traced, "mod_switch") * 1e3,
        );
        out.set(
            "convert.ring_embed_ms",
            median_span_ms(traced, "ring_embed"),
        );
        out.set("convert.pack8_ms", median_span_ms(traced, "pack8"));
        true
    }
}
