//! Golden-file test: DOT rendering of a 4-party, 3-round DAG is pinned
//! byte for byte. Any change to the renderer must update
//! `tests/golden/dag_4p_3r.dot` deliberately.
//!
//! The input, `tests/fixtures/trace_4p_3r.ndjson`, is the merged trace of a
//! benign 4-party, 3-round run: every party proposes each round with strong
//! edges to all four round-(r-1) vertices, p0's vertices are leaders, and
//! rounds 1-2 commit everywhere (round 3 stays certified-only).

use clanbft_inspect::{dot, parse_trace};

#[test]
fn dot_matches_golden_file() {
    let trace = parse_trace(include_str!("fixtures/trace_4p_3r.ndjson")).expect("trace parses");
    let rendered = dot(&trace, None, None);
    if std::env::var_os("BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dag_4p_3r.dot");
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let golden = include_str!("golden/dag_4p_3r.dot");
    assert_eq!(
        rendered, golden,
        "DOT output drifted from tests/golden/dag_4p_3r.dot; if the change \
         is intentional, regenerate with BLESS=1 cargo test -p clanbft-inspect"
    );
}
