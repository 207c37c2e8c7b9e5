//! Metamorphic determinism suite: the replay harness that *proves*
//! concurrent in-flight dispatch is unobservable.
//!
//! One seeded mixed-tenant scenario (TFHE gates + CKKS timed/bulk
//! rotations, skewed deadlines) is replayed under every combination of
//! `max_in_flight` ∈ {1, 2, 4} and kernel backend ∈ {scalar, lanes,
//! threaded} — nine runs. The metamorphic relation: every run must
//! produce bit-identical result ciphertexts and a byte-identical audit
//! JSONL, ignoring only the schema-stamped `meta` line (which records
//! the configuration and therefore *must* differ). Each run separately
//! checks its results against isolated sequential oracles (inside
//! `run_mixed_scenario`), so agreement across runs is agreement with
//! ground truth, not nine-way groupthink.
//!
//! The suite also pins the traffic shape that makes the relation worth
//! testing: at least one Interactive dispatch batches >= 2 gates
//! through the shared blind rotation, and at least one rotation
//! dispatch coalesces >= 2 requests.

mod common;

use common::backends::under_each_backend;
use common::{
    json_u64, mixed_cfg, parse_completes, parse_dispatches, run_mixed_scenario, strip_meta,
};

#[test]
fn nine_way_replay_is_bit_and_byte_identical() {
    let mut runs = Vec::new();
    for n in [1usize, 2, 4] {
        for (backend, run) in under_each_backend(|| run_mixed_scenario(mixed_cfg(n))) {
            runs.push((format!("{backend}/max_in_flight={n}"), n, run));
        }
    }
    assert_eq!(runs.len(), 9);

    let (base_name, _, base) = &runs[0];
    let base_audit = strip_meta(&base.jsonl);

    // The scenario really exercises the machinery under test: a
    // batched gate dispatch (>= 2 blind rotations in one group) and a
    // coalesced keyswitch dispatch (>= 2 requests in one group).
    let dispatches = parse_dispatches(&base.jsonl);
    assert!(
        dispatches
            .iter()
            .any(|d| d.lane == "interactive" && d.jobs >= 2),
        "no Interactive dispatch batched >= 2 gates: {dispatches:?}"
    );
    assert!(
        dispatches
            .iter()
            .any(|d| d.lane != "interactive" && d.jobs >= 2),
        "no rotation dispatch coalesced >= 2 requests: {dispatches:?}"
    );
    // Canonical completion order: within one dispatch group,
    // completions are audited in ascending request id.
    let completes = parse_completes(&base.jsonl);
    for pair in completes.windows(2) {
        let ((_, g0, r0), (_, g1, r1)) = (pair[0], pair[1]);
        assert!(
            g0 != g1 || r0 < r1,
            "group {g0} completions out of canonical order: {r0} before {r1}"
        );
    }
    // Every completion's group correlates to a dispatched group wide
    // enough to have produced it. Gate groups retire every job they
    // carry; rotation groups may retire fewer (a chained job's
    // intermediate steps complete nothing — the result feeds its next
    // dispatch).
    for d in &dispatches {
        let retired = completes.iter().filter(|&&(_, g, _)| g == d.group).count();
        assert!(
            retired <= d.jobs,
            "group {} dispatched {} jobs but retired {retired}",
            d.group,
            d.jobs
        );
        if d.lane == "interactive" {
            assert_eq!(retired, d.jobs, "gate group {} retired short", d.group);
        }
    }

    for (name, n, run) in &runs {
        // The meta line stamps this run's configuration...
        let meta = run.jsonl.lines().next().expect("audit opens with meta");
        assert!(meta.contains("\"event\":\"meta\""), "{name}: {meta}");
        assert_eq!(
            json_u64(meta, "max_in_flight"),
            Some(*n as u64),
            "{name} meta line"
        );
        // ...and is the ONLY divergence: ciphertext bits and audit
        // bytes match the base run exactly.
        assert_eq!(
            run.flats, base.flats,
            "{name}: ciphertexts diverged from {base_name}"
        );
        assert_eq!(
            strip_meta(&run.jsonl),
            base_audit,
            "{name}: audit diverged from {base_name}"
        );
    }
}
