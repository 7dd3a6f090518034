//! Drained profile data and its export formats.

/// One scope path's accumulated statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeStat {
    /// Semicolon-joined path from the root, e.g. `sim.deliver;rbc.handle`.
    pub path: String,
    /// Leaf name (last path segment).
    pub name: String,
    /// Nesting depth (0 = top-level scope).
    pub depth: usize,
    /// Completed entries into this exact path.
    pub calls: u64,
    /// Wall nanoseconds inside this scope, children included.
    pub total_ns: u64,
    /// Wall nanoseconds inside this scope, children excluded.
    pub self_ns: u64,
    /// Allocations performed while this path was innermost-or-above
    /// (children included), counted only when a
    /// [`CountingAlloc`](crate::CountingAlloc) is installed.
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Peak growth of live bytes above the entry level across all entries.
    pub peak_bytes: u64,
}

/// A drained scope tree in depth-first discovery order.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-path statistics; parents precede children.
    pub scopes: Vec<ScopeStat>,
}

impl Report {
    /// Sum of self time across all scopes — the profiled wall total
    /// (saturating: a report may also come from a file).
    pub fn total_self_ns(&self) -> u64 {
        self.scopes
            .iter()
            .fold(0, |total, s| total.saturating_add(s.self_ns))
    }

    /// Flamegraph collapsed-stack lines: `a;b;c <self_ns>`, one per path
    /// with nonzero self time. Feed straight to `flamegraph.pl` /
    /// `inferno-flamegraph`.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for s in &self.scopes {
            if s.self_ns > 0 {
                out.push_str(&s.path);
                out.push(' ');
                out.push_str(&s.self_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// NDJSON export: one `{"prof":"meta",...}` header line, then one
    /// `{"prof":"scope",...}` line per path. `clanbft-inspect profile`
    /// consumes this format.
    pub fn to_ndjson(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"prof\":\"meta\",\"label\":\"{}\",\"scopes\":{},\"total_self_ns\":{}}}\n",
            escape(label),
            self.scopes.len(),
            self.total_self_ns(),
        ));
        for s in &self.scopes {
            out.push_str(&format!(
                "{{\"prof\":\"scope\",\"path\":\"{}\",\"name\":\"{}\",\"depth\":{},\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"allocs\":{},\"alloc_bytes\":{},\"peak_bytes\":{}}}\n",
                escape(&s.path),
                escape(&s.name),
                s.depth,
                s.calls,
                s.total_ns,
                s.self_ns,
                s.alloc_count,
                s.alloc_bytes,
                s.peak_bytes,
            ));
        }
        out
    }

    /// `(path, calls)` pairs in report order — the deterministic shape of a
    /// run (times and allocation counts vary; paths and call counts do not
    /// for a fixed seed).
    pub fn counts(&self) -> Vec<(String, u64)> {
        self.scopes
            .iter()
            .map(|s| (s.path.clone(), s.calls))
            .collect()
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// the hand-rolled NDJSON writer; scope names are simple identifiers so
/// this is belt-and-braces.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
