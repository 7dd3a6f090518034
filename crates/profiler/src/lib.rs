//! Performance observability substrate for the clanbft workspace (zero
//! external deps).
//!
//! The telemetry layer records *protocol* events (what the nodes did); this
//! crate records *performance* facts (where the wall clock and the heap
//! went). It is the measuring stick for ROADMAP item 2 — making the
//! single-threaded event loop fast enough for n = 500–1000 runs — because a
//! speedup that is not attributed to a pipeline stage cannot be
//! regression-pinned.
//!
//! * [`scope`] — thread-local hierarchical scoped timers. Each
//!   `prof::scope("rbc.handle")` guard attributes the enclosed wall time
//!   (and, when the [`CountingAlloc`] wrapper is installed, allocation
//!   count / bytes / peak) to one node of a per-thread scope tree. Nesting
//!   builds paths (`sim.deliver;rbc.handle;dag.insert`) exactly like
//!   collapsed flamegraph stacks.
//! * [`CountingAlloc`] — a `#[global_allocator]` wrapper over
//!   [`std::alloc::System`] that counts allocations into thread-local
//!   cells the scope guards snapshot. Binaries opt in; libraries never
//!   install it.
//! * [`Report`] — the drained tree: per-path calls, total/self
//!   nanoseconds, allocation counters; exported as flamegraph
//!   collapsed-stack lines (`a;b;c 1234`) or as NDJSON for
//!   `clanbft-inspect profile`, which renders the tables.
//!
//! Cost discipline: a scope on a *disabled* profiler is one relaxed atomic
//! load and a `None` guard — no clock read, no thread-local access — so the
//! instrumentation can stay in the hot path permanently (same contract as
//! `Telemetry::null()`). Enabled scopes record raw TSC ticks (two `rdtsc`
//! reads, calibrated to nanoseconds once per report — see the internal
//! `clock` module) plus a thread-local tree touch: tens of nanoseconds per
//! scope, not hundreds. Call sites are placed at per-message/per-proposal
//! granularity, never per-byte, to keep the measured overhead under 5 % of
//! an instrumented run.
//!
//! Caveats (see DESIGN.md "Observability", "Host cost"):
//! * Scope trees are strictly per-thread; the report describes the thread
//!   that calls [`take_report`]. The simulator is single-threaded, so one
//!   report covers a whole run.
//! * Allocation numbers are zero unless the binary installs
//!   [`CountingAlloc`]; they then cover exactly the reporting thread's
//!   allocations (other threads count into their own cells).
//! * Recursive scopes accumulate into a chain of tree nodes
//!   (`a;a;a`), and a recursive node's `total_ns` double-counts nested
//!   activations, as in any tree profiler; `self_ns` stays additive.

mod alloc;
mod clock;
mod report;
mod scope;

pub use alloc::CountingAlloc;
pub use report::{Report, ScopeStat};
pub use scope::{disable, enable, enabled, reset, scope, take_report, ScopeGuard};
