//! Per-tenant sessions and the eviction-managed key cache.
//!
//! Tenant evaluation keys are the dominant memory consumer of an FHE
//! service — a single CKKS Galois key set or TFHE bootstrapping key
//! runs to megabytes — so the service holds them in a byte-budgeted
//! cache rather than growing without bound. Sizes are *measured*, not
//! estimated: the cache charges exactly what [`SwitchingKey::key_bytes`]
//! / [`ServerKey::key_bytes`] report (the heap-allocation sums the
//! key-accounting unit tests pin), so the budget tracks real memory.
//!
//! Eviction is LRU over *idle* sessions only: a session with queued or
//! in-flight work is pinned, because evicting keys mid-request would
//! fail the request after admission — the one thing admission control
//! exists to prevent. When every resident byte is pinned and a new
//! tenant does not fit, registration is refused with
//! [`AdmissionError::KeyCacheSaturated`] and the caller sheds load
//! instead of the cache shedding correctness.

use std::collections::HashMap;
use std::sync::Arc;

use fhe_ckks::{CkksContext, SwitchingKey};
use fhe_tfhe::ServerKey;

/// Why the service refused work at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The key cache cannot fit the tenant's keys even after evicting
    /// every idle session.
    KeyCacheSaturated,
    /// The job queue is at capacity.
    QueueSaturated,
    /// The tenant has no resident session (never registered, or
    /// evicted while idle — re-register to restore it).
    UnknownTenant,
    /// Re-registration was refused because the tenant has queued or
    /// in-flight jobs; swapping keys under them would invalidate work
    /// admission already validated. Retry once the jobs drain.
    SessionBusy,
    /// The request carries no work (an analytics scan with zero
    /// steps).
    EmptyWorkload,
    /// A ciphertext's shape does not match the tenant's session: a CKKS
    /// level the context lacks, a limb count other than `level + 1`, a
    /// foreign ring degree or coefficient form; an LWE mask of a length
    /// other than the server key's `n_lwe`.
    MalformedCiphertext,
    /// A rotation request names a step the tenant holds no Galois key
    /// for.
    MissingGaloisKey {
        /// The uncovered rotation step.
        step: i64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::KeyCacheSaturated => write!(f, "key cache saturated"),
            AdmissionError::QueueSaturated => write!(f, "job queue saturated"),
            AdmissionError::UnknownTenant => write!(f, "tenant has no resident session"),
            AdmissionError::SessionBusy => {
                write!(f, "tenant session has queued or in-flight jobs")
            }
            AdmissionError::EmptyWorkload => write!(f, "workload carries no steps"),
            AdmissionError::MalformedCiphertext => write!(f, "malformed ciphertext"),
            AdmissionError::MissingGaloisKey { step } => {
                write!(f, "no galois key covers rotation step {step}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

impl AdmissionError {
    /// The `reason` string written to the audit log on rejection.
    pub fn audit_reason(&self) -> &'static str {
        match self {
            AdmissionError::KeyCacheSaturated => "key_cache_saturated",
            AdmissionError::QueueSaturated => "queue_saturated",
            AdmissionError::UnknownTenant => "unknown_tenant",
            AdmissionError::SessionBusy => "session_busy",
            AdmissionError::EmptyWorkload => "empty_workload",
            AdmissionError::MalformedCiphertext => "malformed_ciphertext",
            AdmissionError::MissingGaloisKey { .. } => "missing_galois_key",
        }
    }
}

/// A tenant's server-side evaluation keys.
pub enum TenantKeys {
    /// A CKKS analytics tenant: a shared context plus per-step Galois
    /// keys. Tenants constructed over the *same* `Arc`'d context are
    /// coalescing candidates for one another.
    Ckks {
        /// The tenant's (possibly shared) CKKS context.
        ctx: Arc<CkksContext>,
        /// Galois keys by rotation step.
        galois: HashMap<i64, SwitchingKey>,
    },
    /// A TFHE boolean tenant: the server key (bootstrapping + LWE
    /// keyswitching key).
    Tfhe {
        /// The tenant's server key.
        server: ServerKey,
    },
}

impl TenantKeys {
    /// Measured heap bytes of the key material — what the cache
    /// charges against its budget.
    pub fn key_bytes(&self) -> usize {
        match self {
            TenantKeys::Ckks { galois, .. } => {
                galois.values().map(SwitchingKey::key_bytes).sum::<usize>()
            }
            TenantKeys::Tfhe { server } => server.key_bytes(),
        }
    }
}

struct Session {
    keys: TenantKeys,
    bytes: usize,
    /// Queued + in-flight jobs; non-zero pins the session.
    pinned: usize,
    last_touch: u64,
}

/// Byte-budgeted LRU cache of tenant sessions.
pub struct KeyCache {
    capacity: usize,
    used: usize,
    clock: u64,
    evictions: u64,
    sessions: HashMap<usize, Session>,
}

impl KeyCache {
    /// An empty cache with a `capacity`-byte budget.
    pub fn new(capacity: usize) -> Self {
        KeyCache {
            capacity,
            used: 0,
            clock: 0,
            evictions: 0,
            sessions: HashMap::new(),
        }
    }

    /// Registers (or replaces) `tenant`'s session, evicting idle LRU
    /// sessions as needed. Returns the measured key bytes charged.
    /// Replacement is refused with [`AdmissionError::SessionBusy`]
    /// while the tenant has queued or in-flight jobs — those jobs were
    /// admitted against the resident keys, and swapping the set under
    /// them (or making it evictable) would fail them after admission.
    pub fn insert(&mut self, tenant: usize, keys: TenantKeys) -> Result<usize, AdmissionError> {
        let bytes = keys.key_bytes();
        if self.sessions.get(&tenant).is_some_and(|s| s.pinned > 0) {
            return Err(AdmissionError::SessionBusy);
        }
        if let Some(old) = self.sessions.remove(&tenant) {
            self.used -= old.bytes;
        }
        while self.used + bytes > self.capacity {
            let victim = self
                .sessions
                .iter()
                .filter(|(_, s)| s.pinned == 0)
                .min_by_key(|(_, s)| s.last_touch)
                .map(|(&t, _)| t);
            match victim {
                Some(t) => {
                    let s = self.sessions.remove(&t).expect("victim is resident");
                    self.used -= s.bytes;
                    self.evictions += 1;
                }
                None => return Err(AdmissionError::KeyCacheSaturated),
            }
        }
        self.clock += 1;
        self.used += bytes;
        self.sessions.insert(
            tenant,
            Session {
                keys,
                bytes,
                pinned: 0,
                last_touch: self.clock,
            },
        );
        Ok(bytes)
    }

    /// The tenant's keys, if resident. Refreshes LRU recency.
    pub fn touch(&mut self, tenant: usize) -> Option<&TenantKeys> {
        self.clock += 1;
        let clock = self.clock;
        self.sessions.get_mut(&tenant).map(|s| {
            s.last_touch = clock;
            &s.keys
        })
    }

    /// The tenant's keys without refreshing recency.
    pub fn get(&self, tenant: usize) -> Option<&TenantKeys> {
        self.sessions.get(&tenant).map(|s| &s.keys)
    }

    /// Pins the tenant's session (one more queued/in-flight job).
    pub fn pin(&mut self, tenant: usize) {
        if let Some(s) = self.sessions.get_mut(&tenant) {
            s.pinned += 1;
        }
    }

    /// Releases one pin.
    pub fn unpin(&mut self, tenant: usize) {
        if let Some(s) = self.sessions.get_mut(&tenant) {
            s.pinned = s.pinned.saturating_sub(1);
        }
    }

    /// Bytes currently charged.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Sessions evicted since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether the tenant is resident.
    pub fn contains(&self, tenant: usize) -> bool {
        self.sessions.contains_key(&tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ckks::{CkksParams, KeyGenerator};
    use fhe_math::galois::rotation_galois_element;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ckks_keys(ctx: &Arc<CkksContext>, seed: u64, steps: &[i64]) -> TenantKeys {
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let galois = steps
            .iter()
            .map(|&r| {
                let g = rotation_galois_element(r, ctx.n());
                (r, kg.galois_key(&sk, g, &mut rng))
            })
            .collect();
        TenantKeys::Ckks {
            ctx: ctx.clone(),
            galois,
        }
    }

    #[test]
    fn lru_evicts_idle_sessions_but_never_pinned_ones() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let one = ckks_keys(&ctx, 1, &[1]).key_bytes();
        // Room for exactly two single-step sessions.
        let mut cache = KeyCache::new(2 * one);
        cache.insert(0, ckks_keys(&ctx, 1, &[1])).unwrap();
        cache.insert(1, ckks_keys(&ctx, 2, &[1])).unwrap();
        assert_eq!(cache.used_bytes(), 2 * one);

        // Tenant 0 is older; inserting tenant 2 evicts it.
        cache.insert(2, ckks_keys(&ctx, 3, &[1])).unwrap();
        assert!(!cache.contains(0) && cache.contains(1) && cache.contains(2));
        assert_eq!(cache.evictions(), 1);

        // Pin both residents: a third insert has nothing to evict.
        cache.pin(1);
        cache.pin(2);
        assert_eq!(
            cache.insert(3, ckks_keys(&ctx, 4, &[1])).unwrap_err(),
            AdmissionError::KeyCacheSaturated
        );
        // Unpinning restores evictability.
        cache.unpin(1);
        cache.insert(3, ckks_keys(&ctx, 4, &[1])).unwrap();
        assert!(!cache.contains(1) && cache.contains(3));
    }

    #[test]
    fn pinned_session_is_not_replaceable() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut cache = KeyCache::new(usize::MAX);
        let before = cache.insert(0, ckks_keys(&ctx, 1, &[1])).unwrap();
        cache.pin(0);
        assert_eq!(
            cache.insert(0, ckks_keys(&ctx, 2, &[1, 2])).unwrap_err(),
            AdmissionError::SessionBusy
        );
        // The resident session (and its charge) survived the refusal.
        assert!(cache.contains(0));
        assert_eq!(cache.used_bytes(), before);
        // Draining the jobs re-enables replacement.
        cache.unpin(0);
        cache.insert(0, ckks_keys(&ctx, 2, &[1, 2])).unwrap();
    }

    #[test]
    fn touch_refreshes_recency() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let one = ckks_keys(&ctx, 1, &[1]).key_bytes();
        let mut cache = KeyCache::new(2 * one);
        cache.insert(0, ckks_keys(&ctx, 1, &[1])).unwrap();
        cache.insert(1, ckks_keys(&ctx, 2, &[1])).unwrap();
        // Touching 0 makes 1 the LRU victim.
        assert!(cache.touch(0).is_some());
        cache.insert(2, ckks_keys(&ctx, 3, &[1])).unwrap();
        assert!(cache.contains(0) && !cache.contains(1));
    }

    #[test]
    fn charged_bytes_match_measured_key_bytes() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let keys = ckks_keys(&ctx, 9, &[1, 2]);
        let expect = keys.key_bytes();
        let mut cache = KeyCache::new(usize::MAX);
        assert_eq!(cache.insert(7, keys).unwrap(), expect);
        assert_eq!(cache.used_bytes(), expect);
    }
}
