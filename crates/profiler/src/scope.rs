//! Thread-local hierarchical scoped timers.
//!
//! Each thread owns a scope tree rooted at a synthetic node. `scope(name)`
//! descends into (creating if needed) the child of the current node with
//! that name and returns a guard; dropping the guard ascends and adds the
//! elapsed nanoseconds plus the allocation deltas since entry to that node.
//! The same `&'static str` entered from two different parents yields two
//! nodes — paths, not names, identify scopes, exactly like collapsed
//! flamegraph stacks.

use crate::alloc;
use crate::clock;
use crate::report::{Report, ScopeStat};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide switch. Off by default; a disabled `scope()` is one relaxed
/// load and an inert guard.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One node of a thread's scope tree.
struct Node {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    total_ticks: u64,
    alloc_count: u64,
    alloc_bytes: u64,
    peak_bytes: u64,
}

impl Node {
    fn new(name: &'static str) -> Node {
        Node {
            name,
            children: Vec::new(),
            calls: 0,
            total_ticks: 0,
            alloc_count: 0,
            alloc_bytes: 0,
            peak_bytes: 0,
        }
    }
}

/// A thread's scope tree. Node 0 is the synthetic root (never reported).
struct Tree {
    nodes: Vec<Node>,
    current: usize,
}

impl Tree {
    /// The empty tree (`const`-constructible so the thread-local access
    /// path skips lazy initialisation); the synthetic root is pushed on
    /// first use by [`Tree::root`].
    const fn new() -> Tree {
        Tree {
            nodes: Vec::new(),
            current: 0,
        }
    }

    /// Index of the synthetic root, materialising it on first use.
    fn root(&mut self) -> usize {
        if self.nodes.is_empty() {
            self.nodes.push(Node::new(""));
        }
        0
    }

    /// Index of `parent`'s child named `name`, creating it on first entry.
    fn child_of(&mut self, parent: usize, name: &'static str) -> usize {
        // Linear scan: fan-out per node is small (a handful of stages), and
        // `&'static str` lets the pointer-equality fast path skip the string
        // compare for the overwhelmingly common repeat entry.
        for i in 0..self.nodes[parent].children.len() {
            let c = self.nodes[parent].children[i];
            let n = self.nodes[c].name;
            if std::ptr::eq(n.as_ptr(), name.as_ptr()) || n == name {
                return c;
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::new(name));
        self.nodes[parent].children.push(idx);
        idx
    }
}

thread_local! {
    static TREE: RefCell<Tree> = const { RefCell::new(Tree::new()) };
}

/// Turn profiling on for the whole process (scopes record on every thread;
/// allocation tracking starts if a [`crate::CountingAlloc`] is installed).
pub fn enable() {
    clock::mark_origin();
    ENABLED.store(true, Ordering::Relaxed);
    alloc::set_tracking(true);
}

/// Turn profiling off. Scopes already open keep recording into valid nodes;
/// scopes opened after this are inert.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    alloc::set_tracking(false);
}

/// Whether profiling is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drop this thread's accumulated tree without reporting it.
pub fn reset() {
    TREE.with(|t| *t.borrow_mut() = Tree::new());
}

/// Enter the named scope; the returned guard attributes wall time and
/// allocations to it until dropped.
///
/// Bind the guard — `let _scope = prof::scope("dag.insert");` — a bare
/// `let _ =` drops it immediately and times nothing.
#[must_use = "binding the guard defines the scope's extent; `let _ = ...` drops it immediately"]
pub fn scope(name: &'static str) -> ScopeGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return ScopeGuard {
            start_ticks: None,
            node: 0,
            prev: 0,
            entry_count: 0,
            entry_bytes: 0,
            entry_live: 0,
            saved_peak: 0,
        };
    }
    let (entry_count, entry_bytes, entry_live, saved_peak) = alloc::enter_scope();
    let (node, prev) = TREE.with(|t| {
        let mut t = t.borrow_mut();
        t.root();
        let prev = t.current;
        let node = t.child_of(prev, name);
        t.current = node;
        (node, prev)
    });
    ScopeGuard {
        // Read the clock last so tree bookkeeping lands in the parent's
        // self time, not this scope's.
        start_ticks: Some(clock::now_ticks()),
        node,
        prev,
        entry_count,
        entry_bytes,
        entry_live,
        saved_peak,
    }
}

/// RAII guard returned by [`scope`]; records on drop.
pub struct ScopeGuard {
    /// `None` = profiler was disabled at entry; drop is a no-op.
    start_ticks: Option<u64>,
    node: usize,
    prev: usize,
    entry_count: u64,
    entry_bytes: u64,
    entry_live: u64,
    saved_peak: u64,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let Some(start) = self.start_ticks else {
            return;
        };
        let elapsed_ticks = clock::now_ticks().wrapping_sub(start);
        let (count, bytes, window_peak) = alloc::exit_scope(self.saved_peak);
        TREE.with(|t| {
            let mut t = t.borrow_mut();
            // If `take_report`/`reset` fired while this scope was open the
            // index is stale (fresh tree, current == root): skip recording
            // rather than corrupt an unrelated node.
            if t.current != self.node || self.node >= t.nodes.len() {
                return;
            }
            let node = &mut t.nodes[self.node];
            node.calls += 1;
            node.total_ticks = node.total_ticks.saturating_add(elapsed_ticks);
            node.alloc_count += count.saturating_sub(self.entry_count);
            node.alloc_bytes += bytes.saturating_sub(self.entry_bytes);
            // Peak attributable to this scope: how far live bytes climbed
            // above the entry level while the window was open.
            let climb = window_peak.saturating_sub(self.entry_live);
            if climb > node.peak_bytes {
                node.peak_bytes = climb;
            }
            t.current = self.prev;
        });
    }
}

/// Drain this thread's scope tree into a [`Report`] and start fresh.
///
/// Call it with no scopes open (e.g. after a run completes); a guard still
/// open across the drain detects the swap and discards its own sample.
pub fn take_report() -> Report {
    let tree = TREE.with(|t| std::mem::replace(&mut *t.borrow_mut(), Tree::new()));
    // One wall-clock calibration per report converts the accumulated raw
    // ticks to nanoseconds (see `clock`).
    let ratio = clock::calibrate();
    let mut scopes = Vec::new();
    if !tree.nodes.is_empty() {
        flatten(&tree, 0, "", 0, ratio, &mut scopes);
    }
    Report { scopes }
}

/// Depth-first walk emitting one [`ScopeStat`] per node in discovery order
/// (deterministic for deterministic runs — the basis of the scope-count
/// pins in `tests/determinism.rs`).
fn flatten(
    tree: &Tree,
    idx: usize,
    prefix: &str,
    depth: usize,
    ratio: f64,
    out: &mut Vec<ScopeStat>,
) {
    let node = &tree.nodes[idx];
    let path = if idx == 0 {
        String::new()
    } else if prefix.is_empty() {
        node.name.to_string()
    } else {
        format!("{prefix};{}", node.name)
    };
    if idx != 0 {
        // Sum the children's *converted* totals so the reported numbers are
        // exactly additive (self = total − Σ child totals as printed),
        // immune to per-node tick→ns rounding.
        let child_ns: u64 = node
            .children
            .iter()
            .map(|&c| clock::ticks_to_ns(tree.nodes[c].total_ticks, ratio))
            .sum();
        let total_ns = clock::ticks_to_ns(node.total_ticks, ratio);
        out.push(ScopeStat {
            path: path.clone(),
            name: node.name.to_string(),
            depth,
            calls: node.calls,
            total_ns,
            self_ns: total_ns.saturating_sub(child_ns),
            alloc_count: node.alloc_count,
            alloc_bytes: node.alloc_bytes,
            peak_bytes: node.peak_bytes,
        });
    }
    let next_depth = if idx == 0 { 0 } else { depth + 1 };
    for &c in &node.children {
        flatten(tree, c, &path, next_depth, ratio, out);
    }
}
