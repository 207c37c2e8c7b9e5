//! Reusable thread-local scratch buffers for kernel hot paths.
//!
//! Monomial multiplication, automorphisms, base conversion, gadget
//! decomposition and the CKKS keyswitch all need short-lived `Vec<u64>`
//! temporaries. Allocating them per call dominates the runtime of small
//! transforms, so this module leases buffers from a thread-local pool:
//! a lease pops a buffer (or creates one the first time), resizes it,
//! and returns it to the pool when the closure finishes. Nested leases
//! are fine — each pops its own buffer.

use std::cell::RefCell;

/// Upper bound on pooled buffers per thread; leases beyond this are
/// simply dropped (the pool never grows without bound).
const MAX_POOLED: usize = 16;

/// Upper bound on the **total capacity** (in words) the pool may retain
/// per thread — 16 MiB. The buffer count cap alone is not enough: one
/// era of huge leases (say, BConv digit buffers of `alpha * n` words on
/// every worker thread) would otherwise pin `MAX_POOLED` buffers of the
/// largest-ever size forever. A returned buffer that would push the
/// retained capacity past this cap is dropped instead, so oversized
/// buffers shed gradually as they come back.
const MAX_POOLED_WORDS: usize = 1 << 21;

thread_local! {
    static POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// Returns `buf` to this thread's pool unless doing so would exceed the
/// buffer-count or retained-capacity caps (the shrink policy: excess
/// capacity is released to the allocator rather than pinned).
fn give_back(buf: Vec<u64>) {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let retained: usize = pool.iter().map(|b| b.capacity()).sum();
        if pool.len() < MAX_POOLED && retained + buf.capacity() <= MAX_POOLED_WORDS {
            pool.push(buf);
        }
    });
}

/// Total capacity, in words, currently retained by this thread's pool.
/// Never exceeds `MAX_POOLED` buffers totalling 2^21 words —
/// introspection for the retention-cap tests.
pub fn retained_words() -> usize {
    POOL.with(|p| p.borrow().iter().map(|b| b.capacity()).sum())
}

/// Runs `f` with a zero-filled scratch buffer of length `len` leased
/// from the thread-local pool. After warm-up no allocation occurs as
/// long as `len` does not grow past the pooled capacity.
pub fn with_scratch<T>(len: usize, f: impl FnOnce(&mut [u64]) -> T) -> T {
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, 0);
    let out = f(&mut buf);
    give_back(buf);
    out
}

/// Leases a buffer initialised to a **copy of `data`** (skipping the
/// zero-fill of [`with_scratch`], which a copy would overwrite anyway)
/// and runs `f(copy, data)` — the gather pattern of in-place
/// permutations: read the snapshot, write the original.
pub fn with_scratch_copy<T>(data: &mut [u64], f: impl FnOnce(&[u64], &mut [u64]) -> T) -> T {
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(data);
    let out = f(&buf, data);
    give_back(buf);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_and_reused() {
        with_scratch(64, |a| {
            assert_eq!(a.len(), 64);
            assert!(a.iter().all(|&x| x == 0));
            a[0] = 7;
        });
        // The next lease must see zeros again despite reuse.
        with_scratch(64, |a| {
            assert!(a.iter().all(|&x| x == 0));
        });
    }

    #[test]
    fn scratch_copy_snapshots_and_allows_inplace_writes() {
        let mut data = [1u64, 2, 3, 4];
        with_scratch_copy(&mut data, |snapshot, out| {
            assert_eq!(snapshot, &[1, 2, 3, 4]);
            // Reverse through the snapshot — the gather pattern.
            for (i, x) in out.iter_mut().enumerate() {
                *x = snapshot[3 - i];
            }
        });
        assert_eq!(data, [4, 3, 2, 1]);
        // The pooled buffer must not leak the copy into a zero-fill
        // lease.
        with_scratch(4, |a| assert!(a.iter().all(|&x| x == 0)));
    }

    #[test]
    fn retained_capacity_is_capped() {
        // A fresh thread gets a fresh thread-local pool, so the
        // assertions below see exactly what this test retained.
        std::thread::spawn(|| {
            // A lease beyond the capacity cap must not stay pinned:
            // returning it would blow the retention budget, so it is
            // dropped on return.
            with_scratch(MAX_POOLED_WORDS + 1, |a| a[0] = 1);
            assert_eq!(retained_words(), 0);
            // Ordinary leases still pool and reuse.
            with_scratch(1024, |a| a[0] = 1);
            let r = retained_words();
            assert!((1024..=MAX_POOLED_WORDS).contains(&r), "retained {r}");
            // A burst of leases respects both the count and the
            // capacity cap.
            for _ in 0..MAX_POOLED + 4 {
                with_scratch(1024, |_| with_scratch(1024, |_| {}));
            }
            assert!(retained_words() <= MAX_POOLED_WORDS);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nested_leases_are_independent() {
        with_scratch(8, |a| {
            with_scratch(8, |b| {
                a[0] = 1;
                b[0] = 2;
                assert_ne!(a[0], b[0]);
            });
        });
        with_scratch(16, |a| {
            with_scratch(4, |b| {
                a[15] = 3;
                b[3] = 4;
                assert_eq!(a.len(), 16);
                assert_eq!(b.len(), 4);
            });
        });
    }
}
