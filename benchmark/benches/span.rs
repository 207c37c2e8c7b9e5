//! Outside-in tracing: driver spans around public calls, and a
//! [`SpanBackend`] that attributes kernel time to the paper's §III
//! kernel classes from the benchmark's side of the public
//! `KernelBackend` trait.
//!
//! Driver spans are kept one by one. Kernel calls are far too many for
//! that (thousands per TFHE gate), so `SpanBackend` adds each call to a
//! thread-local accumulator and the tracer moves the accumulator into
//! the innermost open driver span whenever a span opens or closes. A
//! span's `kernels` therefore hold only the calls made directly under
//! it, and its self time is its duration minus its children and its
//! own kernel busy time.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use trinity::math::kernel::{self, ExitFold, KernelBackend};
use trinity::math::{Modulus, NttTable};

/// The paper's kernel classes, as the `KernelBackend` methods map to
/// them (see the README's layer table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    NttFwd,
    NttInv,
    Mac,
    Bconv,
    Auto,
    Fold,
    Decompose,
    Ewise,
}

pub const CLASSES: [Class; 8] = [
    Class::NttFwd,
    Class::NttInv,
    Class::Mac,
    Class::Bconv,
    Class::Auto,
    Class::Fold,
    Class::Decompose,
    Class::Ewise,
];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::NttFwd => "ntt_fwd",
            Class::NttInv => "ntt_inv",
            Class::Mac => "mac",
            Class::Bconv => "bconv",
            Class::Auto => "auto",
            Class::Fold => "fold",
            Class::Decompose => "decompose",
            Class::Ewise => "ewise",
        }
    }
}

/// Work one kernel class did under one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassAcc {
    pub calls: u64,
    pub rows: u64,
    pub elems: u64,
    pub ns: u64,
}

/// Per-class work, indexed by `Class as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelAcc(pub [ClassAcc; CLASSES.len()]);

impl KernelAcc {
    pub fn add(&mut self, other: &KernelAcc) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.calls += b.calls;
            a.rows += b.rows;
            a.elems += b.elems;
            a.ns += b.ns;
        }
    }

    pub fn get(&self, class: Class) -> &ClassAcc {
        &self.0[class as usize]
    }

    pub fn busy_ns(&self) -> u64 {
        self.0.iter().map(|c| c.ns).sum()
    }

    pub fn calls(&self) -> u64 {
        self.0.iter().map(|c| c.calls).sum()
    }

    pub fn rows(&self) -> u64 {
        self.0.iter().map(|c| c.rows).sum()
    }
}

thread_local! {
    static ACC: RefCell<KernelAcc> = const { RefCell::new(KernelAcc([ClassAcc {
        calls: 0,
        rows: 0,
        elems: 0,
        ns: 0,
    }; CLASSES.len()])) };
}

fn take_acc() -> KernelAcc {
    ACC.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

/// A decorator over the process's active backend: every trait method
/// times its delegate and books calls / rows / elements / ns under its
/// class. The batch methods delegate to the inner backend's batch
/// methods, so the computation (and every bit of its result) is the
/// inner backend's.
#[derive(Debug)]
pub struct SpanBackend {
    inner: &'static dyn KernelBackend,
}

impl SpanBackend {
    /// Wraps the active backend and installs the wrapper in its place.
    /// [`SpanBackend::uninstall`] puts the wrapped backend back.
    pub fn install() -> &'static SpanBackend {
        let span: &'static SpanBackend = Box::leak(Box::new(SpanBackend {
            inner: kernel::active(),
        }));
        kernel::force(span);
        take_acc();
        span
    }

    pub fn uninstall(&self) {
        kernel::force(self.inner);
    }

    fn timed(&self, class: Class, rows: usize, elems: usize, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as u64;
        ACC.with(|a| {
            let c = &mut a.borrow_mut().0[class as usize];
            c.calls += 1;
            c.rows += rows as u64;
            c.elems += elems as u64;
            c.ns += ns;
        });
    }
}

impl KernelBackend for SpanBackend {
    fn name(&self) -> &'static str {
        "span"
    }

    fn forward_stages(&self, t: &NttTable, a: &mut [u64]) {
        let n = a.len();
        self.timed(Class::NttFwd, 1, n, || self.inner.forward_stages(t, a));
    }

    fn inverse_stages(&self, t: &NttTable, a: &mut [u64]) {
        let n = a.len();
        self.timed(Class::NttInv, 1, n, || self.inner.inverse_stages(t, a));
    }

    fn fold_4p_to_2p(&self, m: &Modulus, a: &mut [u64]) {
        let n = a.len();
        self.timed(Class::Fold, 1, n, || self.inner.fold_4p_to_2p(m, a));
    }

    fn fold_4p_to_canonical(&self, m: &Modulus, a: &mut [u64]) {
        let n = a.len();
        self.timed(Class::Fold, 1, n, || self.inner.fold_4p_to_canonical(m, a));
    }

    fn fold_2p_to_canonical(&self, m: &Modulus, a: &mut [u64]) {
        let n = a.len();
        self.timed(Class::Fold, 1, n, || self.inner.fold_2p_to_canonical(m, a));
    }

    fn scale_shoup(&self, m: &Modulus, w: u64, w_shoup: u64, a: &mut [u64]) {
        let n = a.len();
        self.timed(Class::Ewise, 1, n, || {
            self.inner.scale_shoup(m, w, w_shoup, a)
        });
    }

    fn scale_shoup_lazy(&self, m: &Modulus, w: u64, w_shoup: u64, a: &mut [u64]) {
        let n = a.len();
        self.timed(Class::Ewise, 1, n, || {
            self.inner.scale_shoup_lazy(m, w, w_shoup, a)
        });
    }

    fn mul_acc_lazy(&self, m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        let n = acc.len();
        self.timed(Class::Mac, 1, n, || self.inner.mul_acc_lazy(m, acc, a, b));
    }

    fn mul_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        let n = a.len();
        self.timed(Class::Ewise, 1, n, || self.inner.mul_lazy(m, a, b));
    }

    fn add_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        let n = a.len();
        self.timed(Class::Ewise, 1, n, || self.inner.add_lazy(m, a, b));
    }

    fn sub_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        let n = a.len();
        self.timed(Class::Ewise, 1, n, || self.inner.sub_lazy(m, a, b));
    }

    fn permute(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        let n = src.len();
        self.timed(Class::Auto, 1, n, || self.inner.permute(perm, src, dst));
    }

    fn forward_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        let n = flat.len();
        self.timed(Class::NttFwd, tables.len(), n, || {
            self.inner.forward_batch(tables, flat, exit)
        });
    }

    fn inverse_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        let n = flat.len();
        self.timed(Class::NttInv, tables.len(), n, || {
            self.inner.inverse_batch(tables, flat, exit)
        });
    }

    fn fold_2p_to_canonical_batch(&self, moduli: &[Modulus], flat: &mut [u64]) {
        let n = flat.len();
        self.timed(Class::Fold, moduli.len(), n, || {
            self.inner.fold_2p_to_canonical_batch(moduli, flat)
        });
    }

    fn add_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        let n = a.len();
        self.timed(Class::Ewise, moduli.len(), n, || {
            self.inner.add_lazy_batch(moduli, a, b)
        });
    }

    fn sub_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        let n = a.len();
        self.timed(Class::Ewise, moduli.len(), n, || {
            self.inner.sub_lazy_batch(moduli, a, b)
        });
    }

    fn mul_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        let n = a.len();
        self.timed(Class::Ewise, moduli.len(), n, || {
            self.inner.mul_lazy_batch(moduli, a, b)
        });
    }

    fn mul_acc_lazy_batch(&self, moduli: &[Modulus], acc: &mut [u64], a: &[u64], b: &[u64]) {
        let n = acc.len();
        self.timed(Class::Mac, moduli.len(), n, || {
            self.inner.mul_acc_lazy_batch(moduli, acc, a, b)
        });
    }

    fn permute_batch(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        let rows = src.len().checked_div(perm.len()).unwrap_or(0);
        self.timed(Class::Auto, rows, src.len(), || {
            self.inner.permute_batch(perm, src, dst)
        });
    }

    fn convert_approx_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        let n = out.len();
        self.timed(Class::Bconv, to_moduli.len(), n, || {
            self.inner.convert_approx_batch(to_moduli, weights, y, out)
        });
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
        let n = out.len();
        self.timed(Class::Bconv, to_moduli.len(), n, || {
            self.inner
                .convert_exact_batch(to_moduli, weights, a_mod_b, v, y, out)
        });
    }

    fn decompose_batch(
        &self,
        q: u64,
        base_log: u32,
        levels: usize,
        n: usize,
        src: &[u64],
        out: &mut [i64],
    ) {
        let rows = src.len().checked_div(n).unwrap_or(0);
        self.timed(Class::Decompose, rows, src.len(), || {
            self.inner.decompose_batch(q, base_log, levels, n, src, out)
        });
    }
}

/// One driver span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request or job id the span belongs to, when it has one.
    pub id: Option<u64>,
    /// Kernel work done directly under this span (not under a child).
    pub kernels: KernelAcc,
}

/// Records driver spans when on; when off it only times the call, so
/// the measured loop is the same code in both passes.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` as a span named `name`, returning its result and its
    /// duration. `f` gets the tracer back to open child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        if !self.on {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed());
        }
        self.flush_kernels();
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.t0).as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
            kernels: KernelAcc::default(),
        });
        self.stack.push(idx);
        let r = f(self);
        let d = start.elapsed();
        self.flush_kernels();
        self.stack.pop();
        self.spans[idx].end_ns = self.spans[idx].start_ns + d.as_nanos() as u64;
        (r, d)
    }

    /// Books the kernel calls made since the last flush under the
    /// innermost open span (or drops them when none is open).
    fn flush_kernels(&mut self) {
        let acc = take_acc();
        if let Some(&top) = self.stack.last() {
            self.spans[top].kernels.add(&acc);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Kernel work under every span for which `keep(name)` holds and
    /// none of whose ancestors is dropped by it.
    pub fn kernels_where(&self, keep: impl Fn(&'static str) -> bool) -> KernelAcc {
        let mut kept = vec![false; self.spans.len()];
        let mut total = KernelAcc::default();
        for (i, s) in self.spans.iter().enumerate() {
            kept[i] = keep(s.name) && s.parent.is_none_or(|p| kept[p]);
            if kept[i] {
                total.add(&s.kernels);
            }
        }
        total
    }

    /// Kernel work under the spans named `name` and their descendants.
    pub fn kernels_under(&self, name: &'static str) -> KernelAcc {
        let mut inside = vec![false; self.spans.len()];
        let mut total = KernelAcc::default();
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = s.name == name || s.parent.is_some_and(|p| inside[p]);
            if inside[i] {
                total.add(&s.kernels);
            }
        }
        total
    }

    /// Durations, in ms, of every span named `name`.
    pub fn durations_ms(&self, name: &'static str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.id.map_or("null".into(), |p| p.to_string()),
            );
            if s.kernels.calls() > 0 {
                out.push_str(",\"kernels\":{");
                let mut first = true;
                for class in CLASSES {
                    let c = s.kernels.get(class);
                    if c.calls == 0 {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "\"{}\":{{\"calls\":{},\"rows\":{},\"elems\":{},\"ns\":{}}}",
                        class.name(),
                        c.calls,
                        c.rows,
                        c.elems,
                        c.ns
                    );
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }
}
