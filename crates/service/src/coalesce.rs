//! Cross-request grouping of rotation jobs.
//!
//! A single small-`L` keyswitch is far too little work to occupy every
//! core. A multi-tenant queue fixes that *statistically*: independent
//! rotation requests from different tenants frequently share geometry,
//! so the service gathers same-geometry jobs (each under its own tenant
//! key) into one dispatch group and spreads the group over the cores,
//! one [`fhe_ckks::Evaluator::apply_galois`] per job — bit-identically
//! to running the jobs one dispatch each.
//!
//! Two jobs may share a dispatch exactly when they agree on
//! [`Geometry`]: the same context instance (same ring degree, RNS
//! chain and NTT tables — enforced by pointer identity on the shared
//! `Arc`), the same ciphertext level (same row count per job), and the
//! same Galois element (same permutation). Tenancy is *not* part of
//! the key: per-job switching keys are what makes cross-tenant
//! batching safe.

use std::sync::Arc;

use fhe_ckks::CkksContext;

/// The dispatch-compatibility key for a rotation/keyswitch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Identity of the shared context (`Arc` pointer).
    ctx: *const CkksContext,
    /// Ciphertext level the keyswitch runs at.
    level: usize,
    /// Galois element (the rotation's automorphism).
    galois: u64,
}

// SAFETY-free: the raw pointer is used only as an identity token (never
// dereferenced), so Geometry is plain comparable data.

impl Geometry {
    /// The geometry of a job at `level` applying Galois element `g`
    /// under `ctx`.
    pub fn new(ctx: &Arc<CkksContext>, level: usize, galois: u64) -> Self {
        Geometry {
            ctx: Arc::as_ptr(ctx),
            level,
            galois,
        }
    }

    /// The job's Galois element.
    pub fn galois(&self) -> u64 {
        self.galois
    }
}

/// Selects up to `max_batch` candidate indices whose geometry matches
/// `head`, preserving candidate order (FIFO fairness within a
/// geometry). The head job itself is not in `candidates`, so the
/// returned indices are *mates* joining its dispatch.
pub fn mates(head: Geometry, candidates: &[(usize, Geometry)], max_batch: usize) -> Vec<usize> {
    candidates
        .iter()
        .filter(|(_, g)| *g == head)
        .map(|&(i, _)| i)
        .take(max_batch.saturating_sub(1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ckks::CkksParams;

    #[test]
    fn geometry_requires_same_context_level_and_element() {
        let a = CkksContext::new(CkksParams::tiny_params());
        let b = CkksContext::new(CkksParams::tiny_params());
        let base = Geometry::new(&a, 1, 3);
        assert_eq!(
            base,
            Geometry::new(&a.clone(), 1, 3),
            "Arc clones share identity"
        );
        assert_ne!(
            base,
            Geometry::new(&b, 1, 3),
            "distinct contexts never coalesce"
        );
        assert_ne!(base, Geometry::new(&a, 0, 3));
        assert_ne!(base, Geometry::new(&a, 1, 5));
    }

    #[test]
    fn mates_filter_by_geometry_and_respect_the_batch_cap() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let g = Geometry::new(&ctx, 1, 3);
        let other = Geometry::new(&ctx, 0, 3);
        let candidates = vec![(10, g), (11, other), (12, g), (13, g)];
        assert_eq!(mates(g, &candidates, 8), vec![10, 12, 13]);
        assert_eq!(
            mates(g, &candidates, 3),
            vec![10, 12],
            "cap counts the head"
        );
        assert_eq!(mates(other, &candidates, 8), vec![11]);
        assert!(mates(g, &candidates, 1).is_empty(), "cap 1 = head only");
    }
}
