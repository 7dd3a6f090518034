//! Behavioural tests for the profiler: tree shape, attribution, allocator
//! accounting, export formats, and the disabled-cost contract.
//!
//! The enable flag is process-wide while the harness runs tests on parallel
//! threads, so every test that flips it holds `GUARD`. Scope *data* is
//! thread-local, so a concurrent test thread can at worst see the flag on —
//! it cannot corrupt another thread's tree.

use clanbft_profiler as prof;
use std::sync::Mutex;
use std::time::Instant;

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

static GUARD: Mutex<()> = Mutex::new(());

/// Run `f` with the profiler enabled and a fresh tree; returns its report.
fn profiled(f: impl FnOnce()) -> prof::Report {
    let _g = GUARD.lock().unwrap();
    prof::reset();
    prof::enable();
    f();
    let report = prof::take_report();
    prof::disable();
    report
}

fn stat<'r>(r: &'r prof::Report, path: &str) -> &'r prof::ScopeStat {
    r.scopes
        .iter()
        .find(|s| s.path == path)
        .unwrap_or_else(|| panic!("missing scope {path}"))
}

#[test]
fn nested_scopes_build_paths_and_attribute_time() {
    let report = profiled(|| {
        let _a = prof::scope("outer");
        for _ in 0..3 {
            let _b = prof::scope("inner");
            std::hint::black_box(vec![0u8; 64]);
        }
    });
    let outer = stat(&report, "outer");
    let inner = stat(&report, "outer;inner");
    assert_eq!(outer.calls, 1);
    assert_eq!(inner.calls, 3);
    assert_eq!(inner.depth, 1);
    assert_eq!(inner.name, "inner");
    // Parent's total covers the children; self excludes them.
    assert!(outer.total_ns >= inner.total_ns);
    assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    assert_eq!(inner.self_ns, inner.total_ns);
}

#[test]
fn same_name_under_different_parents_is_two_paths() {
    let report = profiled(|| {
        {
            let _a = prof::scope("a");
            let _s = prof::scope("shared");
        }
        {
            let _b = prof::scope("b");
            let _s = prof::scope("shared");
            let _s2 = prof::scope("deeper");
        }
    });
    assert_eq!(stat(&report, "a;shared").calls, 1);
    assert_eq!(stat(&report, "b;shared").calls, 1);
    assert_eq!(stat(&report, "b;shared;deeper").depth, 2);
    // Parents precede children in report order.
    let order: Vec<&str> = report.scopes.iter().map(|s| s.path.as_str()).collect();
    assert_eq!(order, ["a", "a;shared", "b", "b;shared", "b;shared;deeper"]);
}

#[test]
fn allocations_attribute_to_the_active_scope() {
    let report = profiled(|| {
        let _a = prof::scope("allocating");
        std::hint::black_box(vec![0u8; 4096]);
        {
            let _b = prof::scope("quiet");
            // No allocation here.
            std::hint::black_box(1 + 1);
        }
    });
    let a = stat(&report, "allocating");
    assert!(a.alloc_count >= 1, "alloc_count = {}", a.alloc_count);
    assert!(a.alloc_bytes >= 4096, "alloc_bytes = {}", a.alloc_bytes);
    assert!(a.peak_bytes >= 4096, "peak_bytes = {}", a.peak_bytes);
    // The quiet child may see incidental allocations but not the vec.
    assert!(stat(&report, "allocating;quiet").alloc_bytes < 4096);
}

#[test]
fn peak_tracks_transient_growth_not_cumulative_bytes() {
    let report = profiled(|| {
        let _a = prof::scope("churn");
        // 8 sequential 1 KiB allocations, each freed before the next:
        // cumulative bytes ~8 KiB, but peak growth stays ~1 KiB.
        for _ in 0..8 {
            std::hint::black_box(vec![7u8; 1024]);
        }
    });
    let churn = stat(&report, "churn");
    assert!(churn.alloc_bytes >= 8 * 1024);
    assert!(
        churn.peak_bytes < 4 * 1024,
        "peak {} should be ~one buffer, not the sum",
        churn.peak_bytes
    );
}

#[test]
fn disabled_profiler_records_nothing() {
    let _g = GUARD.lock().unwrap();
    prof::disable();
    prof::reset();
    {
        let _a = prof::scope("ghost");
        let _b = prof::scope("ghost.child");
    }
    let report = prof::take_report();
    assert!(report.scopes.is_empty(), "{:?}", report.scopes);
}

#[test]
fn disabled_scope_is_near_zero_cost() {
    let _g = GUARD.lock().unwrap();
    prof::disable();
    prof::reset();
    // Warm up, then time 100k disabled scope entries. One relaxed load plus
    // guard construction must stay well under 200 ns/call even on a noisy
    // CI box (typical: low single-digit ns).
    for _ in 0..1_000 {
        let _s = prof::scope("warmup");
    }
    let iters = 100_000u32;
    let start = Instant::now();
    for _ in 0..iters {
        let _s = prof::scope("disabled.hot");
        std::hint::black_box(&_s);
    }
    let per_call = start.elapsed().as_nanos() as f64 / f64::from(iters);
    assert!(
        per_call < 200.0,
        "disabled scope costs {per_call:.1} ns/call"
    );
}

#[test]
fn take_report_while_scope_open_discards_the_open_sample_safely() {
    let _g = GUARD.lock().unwrap();
    prof::reset();
    prof::enable();
    let outer = prof::scope("survivor");
    {
        let _inner = prof::scope("closed");
    }
    let report = prof::take_report();
    // The closed child made it in; the still-open scope has no completed
    // call yet.
    assert_eq!(stat(&report, "survivor;closed").calls, 1);
    assert_eq!(stat(&report, "survivor").calls, 0);
    // Dropping the stale guard after the drain must not panic or pollute
    // the fresh tree.
    drop(outer);
    let after = prof::take_report();
    prof::disable();
    assert!(after.scopes.is_empty(), "{:?}", after.scopes);
}

#[test]
fn collapsed_export_is_flamegraph_shaped() {
    let report = profiled(|| {
        let _a = prof::scope("stage_a");
        let _b = prof::scope("stage_b");
        std::hint::black_box(vec![0u8; 32]);
    });
    let collapsed = report.to_collapsed();
    for line in collapsed.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack N` shape");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("trailing sample count");
    }
    assert!(collapsed.contains("stage_a;stage_b "), "{collapsed}");
}

#[test]
fn ndjson_export_has_meta_then_scopes() {
    let report = profiled(|| {
        let _a = prof::scope("ndjson.check");
    });
    let ndjson = report.to_ndjson("unit \"quoted\" label");
    let lines: Vec<&str> = ndjson.lines().collect();
    assert_eq!(lines.len(), 1 + report.scopes.len());
    assert!(lines[0].starts_with("{\"prof\":\"meta\""));
    assert!(lines[0].contains("\\\"quoted\\\""), "label must be escaped");
    assert!(lines[1].starts_with("{\"prof\":\"scope\""));
    assert!(lines[1].contains("\"path\":\"ndjson.check\""));
    for key in [
        "\"calls\":",
        "\"total_ns\":",
        "\"self_ns\":",
        "\"allocs\":",
        "\"alloc_bytes\":",
        "\"peak_bytes\":",
        "\"depth\":",
    ] {
        assert!(lines[1].contains(key), "missing {key} in {}", lines[1]);
    }
}

#[test]
fn counts_expose_paths_and_calls_in_report_order() {
    let report = profiled(|| {
        for _ in 0..5 {
            let _a = prof::scope("tick");
            let _b = prof::scope("tock");
        }
    });
    assert_eq!(
        report.counts(),
        vec![("tick".to_string(), 5), ("tick;tock".to_string(), 5)]
    );
}

#[test]
fn reset_discards_pending_data() {
    let _g = GUARD.lock().unwrap();
    prof::enable();
    {
        let _a = prof::scope("doomed");
    }
    prof::reset();
    let report = prof::take_report();
    prof::disable();
    assert!(report.scopes.is_empty());
}
