//! Performance-profile rendering and two-profile regression diffing.
//!
//! Consumes the NDJSON a `clanbft_profiler::Report` exports (one
//! `{"prof":"meta",...}` header plus `{"prof":"scope",...}` lines) and
//! renders the three standard views — hot-scope table, indented scope tree,
//! allocation table — plus a baseline/candidate diff with per-stage %
//! deltas and a regression verdict.
//!
//! Diffs compare *self nanoseconds per call*, not absolute wall time: call
//! counts are deterministic for a fixed seed while total wall time moves
//! with host load, so per-call cost is the stable regression signal. Even
//! per-call time moves with the host, so the time verdict informs; what a
//! gate can rest on is the `counts:` line — calls, allocations and
//! allocated bytes per path repeat exactly between two same-seed runs.

use clanbft_telemetry::ndjson::{parse_line, Value};
use std::collections::BTreeMap;

/// One scope row of a parsed profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerfScope {
    /// Semicolon-joined scope path (`sim.deliver;rbc.handle`).
    pub path: String,
    /// Leaf name.
    pub name: String,
    /// Nesting depth (0 = top-level).
    pub depth: u64,
    /// Completed entries.
    pub calls: u64,
    /// Wall nanoseconds, children included.
    pub total_ns: u64,
    /// Wall nanoseconds, children excluded.
    pub self_ns: u64,
    /// Allocations attributed to the path (children included).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Peak live-byte growth above scope entry.
    pub peak_bytes: u64,
}

/// One captured profile: a labelled set of scope rows in tree order.
#[derive(Clone, Debug, Default)]
pub struct PerfProfile {
    /// The label the producer stamped (e.g. `fig5 c`, `clan50_sat`).
    pub label: String,
    /// Scope rows, parents before children.
    pub scopes: Vec<PerfScope>,
}

impl PerfProfile {
    /// Sum of self time across all scopes — the profiled wall total
    /// (saturating: the numbers come from a file).
    pub fn total_self_ns(&self) -> u64 {
        self.scopes
            .iter()
            .fold(0, |total, s| total.saturating_add(s.self_ns))
    }
}

fn field(map: &BTreeMap<String, Value>, key: &str) -> u64 {
    match map.get(key) {
        Some(Value::U64(v)) => *v,
        _ => 0,
    }
}

/// Parses every profile in `text` (a file may hold several appended runs;
/// each `{"prof":"meta"}` line starts a new one). Non-profile lines are
/// skipped so profiles can share a file with other NDJSON streams.
pub fn parse_profiles(text: &str) -> Result<Vec<PerfProfile>, String> {
    let mut profiles: Vec<PerfProfile> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let map = parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = match map.get("prof") {
            Some(Value::Str(s)) => s.as_str(),
            _ => continue,
        };
        match kind {
            "meta" => {
                let label = match map.get("label") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                profiles.push(PerfProfile {
                    label,
                    scopes: Vec::new(),
                });
            }
            "scope" => {
                let (path, name) = match (map.get("path"), map.get("name")) {
                    (Some(Value::Str(p)), Some(Value::Str(n))) => (p.clone(), n.clone()),
                    _ => return Err(format!("line {}: scope without path/name", i + 1)),
                };
                let scope = PerfScope {
                    // The nesting depth is how many separators the path
                    // has; the line's own `depth` number is not trusted
                    // (the tree view indents by it).
                    depth: path.matches(';').count() as u64,
                    path,
                    name,
                    calls: field(&map, "calls"),
                    total_ns: field(&map, "total_ns"),
                    self_ns: field(&map, "self_ns"),
                    allocs: field(&map, "allocs"),
                    alloc_bytes: field(&map, "alloc_bytes"),
                    peak_bytes: field(&map, "peak_bytes"),
                };
                match profiles.last_mut() {
                    Some(p) => p.scopes.push(scope),
                    None => {
                        // Headerless fragment: tolerate it under an
                        // anonymous profile rather than refuse the file.
                        profiles.push(PerfProfile {
                            label: String::new(),
                            scopes: vec![scope],
                        })
                    }
                }
            }
            _ => continue,
        }
    }
    Ok(profiles)
}

/// Parses `text` and returns its most recent profile (files accumulate one
/// profile per run; the last one describes the latest).
pub fn parse_profile(text: &str) -> Result<PerfProfile, String> {
    parse_profiles(text)?
        .pop()
        .ok_or_else(|| "no profile lines found (expected {\"prof\":...} NDJSON)".to_string())
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn fmt_pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "   -".to_string()
    } else {
        format!("{:4.1}", part as f64 / whole as f64 * 100.0)
    }
}

fn fmt_kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Renders the three standard views of one profile: hot scopes by self
/// time, the indented call tree, and the allocation table.
pub fn profile_report(p: &PerfProfile) -> String {
    let total = p.total_self_ns();
    let mut out = String::new();
    out.push_str(&format!(
        "profile {:?}: {} scopes, {} ms profiled self time\n\n",
        p.label,
        p.scopes.len(),
        fmt_ms(total)
    ));

    // Hot scopes: every path ranked by self time.
    out.push_str("hot scopes (by self time)\n");
    out.push_str(&format!(
        "{:<44} {:>10} {:>12} {:>6} {:>14}\n",
        "path", "calls", "self_ms", "self%", "ns/call"
    ));
    let mut hot: Vec<&PerfScope> = p.scopes.iter().collect();
    hot.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    for s in hot.iter().take(20) {
        let per_call = s.self_ns.checked_div(s.calls).unwrap_or(0);
        out.push_str(&format!(
            "{:<44} {:>10} {:>12} {:>6} {:>14}\n",
            s.path,
            s.calls,
            fmt_ms(s.self_ns),
            fmt_pct(s.self_ns, total),
            per_call
        ));
    }

    // Scope tree: report order is tree order (parents first).
    out.push_str("\nscope tree\n");
    out.push_str(&format!(
        "{:<44} {:>10} {:>12} {:>12}\n",
        "scope", "calls", "total_ms", "self_ms"
    ));
    for s in &p.scopes {
        let indent = "  ".repeat(s.depth as usize);
        out.push_str(&format!(
            "{:<44} {:>10} {:>12} {:>12}\n",
            format!("{indent}{}", s.name),
            s.calls,
            fmt_ms(s.total_ns),
            fmt_ms(s.self_ns)
        ));
    }

    // Allocation table: paths that allocated, ranked by bytes.
    let mut alloc: Vec<&PerfScope> = p.scopes.iter().filter(|s| s.allocs > 0).collect();
    alloc.sort_by(|a, b| b.alloc_bytes.cmp(&a.alloc_bytes).then(a.path.cmp(&b.path)));
    if alloc.is_empty() {
        out.push_str(
            "\nallocations: none recorded (profile captured without the counting allocator)\n",
        );
    } else {
        out.push_str("\nallocations (by bytes)\n");
        out.push_str(&format!(
            "{:<44} {:>12} {:>12} {:>12} {:>12}\n",
            "path", "allocs", "alloc_kb", "peak_kb", "bytes/call"
        ));
        for s in alloc.iter().take(15) {
            let per_call = s.alloc_bytes.checked_div(s.calls).unwrap_or(0);
            out.push_str(&format!(
                "{:<44} {:>12} {:>12} {:>12} {:>12}\n",
                s.path,
                s.allocs,
                fmt_kb(s.alloc_bytes),
                fmt_kb(s.peak_bytes),
                per_call
            ));
        }
    }
    out
}

/// One scope's baseline/candidate comparison.
struct DiffRow {
    path: String,
    base_ns_per_call: f64,
    cand_ns_per_call: f64,
    delta_pct: f64,
}

/// The self-ns-per-call increase, in percent, from which [`profile_diff`]'s
/// `verdict:` line names a stage as regressed.
const REGRESSION_PCT: f64 = 20.0;

/// Compares `cand` against `base` on self-nanoseconds-per-call and renders
/// per-stage % deltas plus a `verdict:` line naming the worst regression at
/// or above [`REGRESSION_PCT`] (or declaring the run clean), then a
/// `counts:` line saying whether calls, allocations and allocated bytes
/// agree on every path.
///
/// The two lines are the machine-readable hooks. `verdict:` is host time:
/// read it, do not gate on it. `counts: identical` is what two runs of one
/// seed and one build must print; CI greps for it.
pub fn profile_diff(base: &PerfProfile, cand: &PerfProfile) -> String {
    let base_by_path: BTreeMap<&str, &PerfScope> =
        base.scopes.iter().map(|s| (s.path.as_str(), s)).collect();
    let mut rows: Vec<DiffRow> = Vec::new();
    let mut only_cand: Vec<&str> = Vec::new();
    let exact = |s: &PerfScope| (s.calls, s.allocs, s.alloc_bytes);
    let mut miscounted: Vec<&str> = Vec::new();
    for s in &cand.scopes {
        let Some(b) = base_by_path.get(s.path.as_str()) else {
            only_cand.push(&s.path);
            continue;
        };
        if exact(b) != exact(s) {
            miscounted.push(&s.path);
        }
        if b.calls == 0 || s.calls == 0 {
            continue;
        }
        let bpc = b.self_ns as f64 / b.calls as f64;
        let cpc = s.self_ns as f64 / s.calls as f64;
        // Sub-microsecond stages are timer-noise dominated; a % delta
        // there is not a signal worth a verdict.
        if bpc < 100.0 && cpc < 100.0 {
            continue;
        }
        let delta = if bpc > 0.0 {
            (cpc - bpc) / bpc * 100.0
        } else {
            100.0
        };
        rows.push(DiffRow {
            path: s.path.clone(),
            base_ns_per_call: bpc,
            cand_ns_per_call: cpc,
            delta_pct: delta,
        });
    }
    let cand_paths: std::collections::BTreeSet<&str> =
        cand.scopes.iter().map(|s| s.path.as_str()).collect();
    let only_base: Vec<&str> = base
        .scopes
        .iter()
        .map(|s| s.path.as_str())
        .filter(|p| !cand_paths.contains(p))
        .collect();

    rows.sort_by(|a, b| {
        b.delta_pct
            .abs()
            .partial_cmp(&a.delta_pct.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });

    let mut out = String::new();
    out.push_str(&format!(
        "profile diff: base {:?} ({} ms) -> candidate {:?} ({} ms), threshold {:.0}%\n\n",
        base.label,
        fmt_ms(base.total_self_ns()),
        cand.label,
        fmt_ms(cand.total_self_ns()),
        REGRESSION_PCT
    ));
    out.push_str(&format!(
        "{:<44} {:>14} {:>14} {:>9}\n",
        "path", "base ns/call", "cand ns/call", "delta"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<44} {:>14.0} {:>14.0} {:>+8.1}%\n",
            r.path, r.base_ns_per_call, r.cand_ns_per_call, r.delta_pct
        ));
    }
    for p in &only_base {
        out.push_str(&format!("{p:<44} only in baseline\n"));
    }
    for p in &only_cand {
        out.push_str(&format!("{p:<44} only in candidate\n"));
    }

    let worst = rows
        .iter()
        .filter(|r| r.delta_pct >= REGRESSION_PCT)
        .max_by(|a, b| {
            a.delta_pct
                .partial_cmp(&b.delta_pct)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    out.push('\n');
    match worst {
        Some(r) => out.push_str(&format!(
            "verdict: REGRESSION {} {:+.1}% self ns/call (threshold {:.0}%)\n",
            r.path, r.delta_pct, REGRESSION_PCT
        )),
        None => out.push_str(&format!(
            "verdict: OK — no stage regressed {:.0}% or more on self ns/call\n",
            REGRESSION_PCT
        )),
    }
    let differing = miscounted.len() + only_base.len() + only_cand.len();
    match miscounted.first().or(only_base.first()).or(only_cand.first()) {
        Some(first) => out.push_str(&format!(
            "counts: MISMATCH — {differing} paths differ in calls, allocations or bytes (first: {first})\n"
        )),
        None => out.push_str(&format!(
            "counts: identical — calls, allocations and bytes agree on all {} paths\n",
            cand.scopes.len()
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(label: &str, insert_self: u64) -> String {
        format!(
            concat!(
                "{{\"prof\":\"meta\",\"label\":\"{label}\",\"scopes\":3,\"total_self_ns\":0}}\n",
                "{{\"prof\":\"scope\",\"path\":\"sim.deliver\",\"name\":\"sim.deliver\",",
                "\"depth\":0,\"calls\":100,\"total_ns\":9000000,\"self_ns\":2000000,",
                "\"allocs\":50,\"alloc_bytes\":8192,\"peak_bytes\":4096}}\n",
                "{{\"prof\":\"scope\",\"path\":\"sim.deliver;dag.insert\",\"name\":\"dag.insert\",",
                "\"depth\":1,\"calls\":80,\"total_ns\":{insert}000,\"self_ns\":{insert}000,",
                "\"allocs\":10,\"alloc_bytes\":2048,\"peak_bytes\":1024}}\n",
                "{{\"prof\":\"scope\",\"path\":\"sim.timer\",\"name\":\"sim.timer\",",
                "\"depth\":0,\"calls\":40,\"total_ns\":1000000,\"self_ns\":1000000,",
                "\"allocs\":0,\"alloc_bytes\":0,\"peak_bytes\":0}}\n",
            ),
            label = label,
            insert = insert_self,
        )
    }

    #[test]
    fn parses_meta_and_scopes() {
        let p = parse_profile(&sample("unit", 4000)).unwrap();
        assert_eq!(p.label, "unit");
        assert_eq!(p.scopes.len(), 3);
        let insert = &p.scopes[1];
        assert_eq!(insert.path, "sim.deliver;dag.insert");
        assert_eq!(insert.name, "dag.insert");
        assert_eq!(insert.depth, 1);
        assert_eq!(insert.calls, 80);
        assert_eq!(insert.self_ns, 4_000_000);
        assert_eq!(insert.alloc_bytes, 2048);
    }

    #[test]
    fn multiple_appended_profiles_yield_the_last() {
        let text = format!("{}{}", sample("first", 4000), sample("second", 5000));
        assert_eq!(parse_profiles(&text).unwrap().len(), 2);
        assert_eq!(parse_profile(&text).unwrap().label, "second");
    }

    #[test]
    fn non_profile_lines_are_skipped() {
        let text = format!(
            "{{\"kind\":\"telemetry\",\"x\":1}}\n{}",
            sample("mixed", 4000)
        );
        assert_eq!(parse_profile(&text).unwrap().label, "mixed");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse_profile("").is_err());
        assert!(parse_profile("{\"other\":\"line\"}\n").is_err());
    }

    #[test]
    fn report_renders_all_three_views() {
        let p = parse_profile(&sample("views", 4000)).unwrap();
        let r = profile_report(&p);
        assert!(r.contains("hot scopes"), "{r}");
        assert!(r.contains("scope tree"), "{r}");
        assert!(r.contains("allocations (by bytes)"), "{r}");
        // Tree indents the nested scope; hot table ranks by self time.
        assert!(r.contains("  dag.insert"), "{r}");
        let hot_pos = r.find("sim.deliver ").unwrap();
        let timer_pos = r.find("sim.timer").unwrap();
        assert!(hot_pos < timer_pos, "hot table is self-time ranked:\n{r}");
    }

    #[test]
    fn diff_flags_a_large_regression() {
        let base = parse_profile(&sample("base", 4000)).unwrap();
        // dag.insert self: 4ms -> 6ms over the same 80 calls = +50%/call.
        let cand = parse_profile(&sample("cand", 6000)).unwrap();
        let d = profile_diff(&base, &cand);
        assert!(
            d.contains("verdict: REGRESSION sim.deliver;dag.insert +50.0%"),
            "{d}"
        );
    }

    #[test]
    fn diff_passes_within_tolerance() {
        let base = parse_profile(&sample("base", 4000)).unwrap();
        let cand = parse_profile(&sample("cand", 4400)).unwrap();
        // +10% stays under the 20% threshold.
        let d = profile_diff(&base, &cand);
        assert!(d.contains("verdict: OK"), "{d}");
        assert!(d.contains("+10.0%"), "{d}");
    }

    #[test]
    fn diff_counts_line_is_exact_and_ignores_time() {
        let base = parse_profile(&sample("base", 4000)).unwrap();
        // Slower, same counts: the time verdict fires, the counts agree.
        let slow = parse_profile(&sample("cand", 9000)).unwrap();
        let d = profile_diff(&base, &slow);
        assert!(d.contains("verdict: REGRESSION"), "{d}");
        assert!(d.contains("counts: identical"), "{d}");
        assert!(d.contains("all 3 paths"), "{d}");
        // One allocation more on one path: a mismatch, named.
        let mut leaky = base.clone();
        leaky.scopes[1].allocs += 1;
        let d = profile_diff(&base, &leaky);
        assert!(d.contains("verdict: OK"), "{d}");
        assert!(
            d.contains("counts: MISMATCH — 1 paths differ")
                && d.contains("(first: sim.deliver;dag.insert)"),
            "{d}"
        );
    }

    #[test]
    fn diff_reports_asymmetric_scopes() {
        let base = parse_profile(&sample("base", 4000)).unwrap();
        let mut cand = parse_profile(&sample("cand", 4000)).unwrap();
        cand.scopes.remove(2);
        cand.scopes.push(PerfScope {
            path: "mempool.admit".to_string(),
            name: "mempool.admit".to_string(),
            depth: 0,
            calls: 5,
            total_ns: 1000,
            self_ns: 1000,
            allocs: 0,
            alloc_bytes: 0,
            peak_bytes: 0,
        });
        let d = profile_diff(&base, &cand);
        assert!(d.contains("sim.timer"), "{d}");
        assert!(d.contains("only in baseline"), "{d}");
        assert!(d.contains("only in candidate"), "{d}");
        assert!(d.contains("counts: MISMATCH — 2 paths differ"), "{d}");
    }
}
