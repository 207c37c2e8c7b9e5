// Fixture: rule `kernel-force-outside-test`.
//
// Swapping the process-global kernel backend is a test/bench
// affordance; production code — the service layer above all — must
// run under `kernel::active()`'s one backend.

pub fn pin_backend_for_tenant() {
    fhe_math::kernel::force(&fhe_math::kernel::ScalarBackend);
}
