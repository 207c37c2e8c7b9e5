// Fixture: rule `backend-coverage`. Linted under the path
// `crates/fhe-math/src/kernel.rs` so the rule engages (it only runs on
// the kernel backend module).
//
// `forward` and `convert_exact_batch` are swept by the test module
// below; the `forward_batch` and `convert_approx_batch` defaults are
// not referenced by any test — the classic way a batched entry
// silently diverges from its per-row loop. The BConv batch entries are
// trait methods like any other, so the rule picks them up with no
// special-casing.

pub trait KernelBackend {
    fn forward(&self, t: &NttTable, a: &mut [u64]);
    fn forward_batch(&self, t: &NttTable, rows: &mut [&mut [u64]]) {
        for row in rows {
            self.forward(t, row);
        }
    }
    fn convert_approx_batch(&self, to: &[Modulus], w: &[u64], y: &[u64], out: &mut [u64]) {
        let _ = (to, w, y, out);
    }
    fn convert_exact_batch(&self, to: &[Modulus], w: &[u64], y: &[u64], out: &mut [u64]) {
        let _ = (to, w, y, out);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn sweep_forward() {
        let b = backend();
        b.forward(&table(), &mut row());
        b.convert_exact_batch(&moduli(), &weights(), &digits(), &mut out());
    }
}
