// Fixture: rule `unsafe-missing-safety`.

pub fn undocumented(&self, t: Task<'_>) {
    let erased = unsafe { std::mem::transmute::<Task<'_>, ErasedTask>(t) };
    self.queue.push(erased);
}

pub fn documented(&self, t: Task<'_>) {
    // SAFETY: the erased task cannot outlive this call — dispatch
    // blocks until every worker acknowledges completion, so the
    // 'static lie never escapes the stack frame that owns `t`.
    let erased = unsafe { std::mem::transmute::<Task<'_>, ErasedTask>(t) };
    self.queue.push(erased);
}

/// Reads the word behind `p`.
pub unsafe fn undocumented_fn(p: *const u64) -> u64 {
    // SAFETY: the caller vouches for `p`.
    unsafe { p.read() }
}

/// Reads the word behind `p`.
///
/// # Safety
///
/// `p` must be valid for an aligned 8-byte read.
#[inline]
pub unsafe fn documented_fn(p: *const u64) -> u64 {
    // SAFETY: the caller vouches for `p` (see `# Safety`).
    unsafe { p.read() }
}

/// A function-pointer type and an `unsafe impl` are not function items.
pub struct Hook(pub unsafe fn(*const u64) -> u64);
// SAFETY: `Hook` holds a plain function pointer.
unsafe impl Send for Hook {}
