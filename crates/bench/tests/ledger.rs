//! The committed criterion snapshot, `BENCH_micro.json`, against the
//! code that produces it: one host, and exactly the groups
//! `benches/micro.rs` registers — so the ledger cannot keep a row the
//! code no longer produces, nor miss a group it does.

use std::collections::BTreeSet;

const SNAPSHOT: &str = include_str!("../../../BENCH_micro.json");
const MICRO: &str = include_str!("../benches/micro.rs");

/// The group names `micro.rs` opens with `benchmark_group("…")`.
fn registered_groups() -> BTreeSet<&'static str> {
    let open = "benchmark_group(\"";
    MICRO
        .match_indices(open)
        .map(|(at, _)| {
            let rest = &MICRO[at + open.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// Pulls `"key": <u64>` out of one rendered snapshot line.
fn field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let at = line.find(&tag)? + tag.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// One benchmark row: its `group/label` name and its three statistics.
struct Row {
    name: String,
    median_ns: u64,
    mad_ns: u64,
    samples: u64,
}

fn rows() -> Vec<Row> {
    SNAPSHOT
        .lines()
        .filter(|l| l.contains("\"name\": \""))
        .map(|l| {
            let rest = &l[l.find("\"name\": \"").unwrap() + "\"name\": \"".len()..];
            let stat = |key| field(l, key).unwrap_or_else(|| panic!("{key} missing: {l}"));
            Row {
                name: rest[..rest.find('"').unwrap()].to_owned(),
                median_ns: stat("median_ns"),
                mad_ns: stat("mad_ns"),
                samples: stat("samples"),
            }
        })
        .collect()
}

#[test]
fn snapshot_comes_from_one_host() {
    let metas: Vec<&str> = SNAPSHOT
        .lines()
        .filter(|l| l.contains("\"meta\""))
        .collect();
    assert_eq!(metas.len(), 1, "one meta header");
    let meta = metas[0];
    assert!(field(meta, "nproc").is_some_and(|n| n > 0), "{meta}");
    assert!(field(meta, "avx512ifma").is_some(), "{meta}");
    assert!(meta.contains("\"commit\": \""), "{meta}");
    // A second host's rows would come with a re-measurement block.
    assert!(!SNAPSHOT.contains("remeasured"));
}

#[test]
fn every_row_is_a_registered_group_and_every_group_has_a_row() {
    let groups = registered_groups();
    assert!(groups.contains("negacyclic_mul_n1024"), "{groups:?}");
    let rows = rows();
    assert!(!rows.is_empty());
    let mut seen = BTreeSet::new();
    for row in &rows {
        let group = row.name.split('/').next().unwrap();
        assert!(groups.contains(group), "{} is no micro.rs group", row.name);
        seen.insert(group);
        assert!(row.samples > 0 && row.median_ns > 0, "{}", row.name);
        assert!(row.mad_ns <= row.median_ns, "{}", row.name);
    }
    assert_eq!(seen, groups, "groups without a row");
    for name in ["negacyclic_mul_n1024/ntt", "negacyclic_mul_n1024/fft"] {
        assert!(rows.iter().any(|r| r.name == name), "{name} missing");
    }
}

/// `LaneBackend` overrides a row pass only where it beats the reference:
/// every `lane_row_passes/<pass>/lanes` row, one per kept override, has a
/// lower median than its `scalar` row. A regenerated snapshot in which an
/// override stops winning fails here, and that override is the next to go.
#[test]
fn lane_row_passes_beat_the_reference() {
    let rows = rows();
    let median = |name: &str| {
        let row = rows.iter().find(|r| r.name == name);
        row.unwrap_or_else(|| panic!("{name} missing")).median_ns
    };
    let passes = [
        "fold_4p_to_2p",
        "fold_4p_to_canonical",
        "permute",
        "inverse_stages",
        "convert_approx",
    ];
    for pass in passes {
        let lanes = median(&format!("lane_row_passes/{pass}/lanes"));
        let scalar = median(&format!("lane_row_passes/{pass}/scalar"));
        assert!(
            lanes < scalar,
            "{pass}: lanes {lanes} ns, scalar {scalar} ns"
        );
    }
    let group = rows
        .iter()
        .filter(|r| r.name.starts_with("lane_row_passes/"));
    assert_eq!(
        group.count(),
        2 * passes.len(),
        "a lane_row_passes row outside `passes`"
    );
}
