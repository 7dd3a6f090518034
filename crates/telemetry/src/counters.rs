//! Canonical names for the rejection / hardening counters.
//!
//! The honest path never silently drops a message any more: every rejection
//! lands in exactly one of these counters, so adversarial tests can assert
//! that an attack actually fired and benign runs can assert the
//! attack-indicating ones stay at zero. Names are constants (not inline
//! literals) so call sites across rbc/consensus and assertions in tests
//! cannot drift apart.

/// A signature failed verification: a bad leader-vote or timeout signature,
/// or an echo signature pruned as a culprit out of an aggregate echo
/// certificate. Zero in benign runs with `verify_sigs` on.
pub const REJECTED_BAD_SIG: &str = "rejected.bad_sig";

/// A same-sender repeat carrying no new information: duplicate echo, ready,
/// vote or timeout from one party, a re-sent identical VAL, or a repeated
/// pull that was already served. May tick under benign replay-free runs
/// only through simulator redundancy races; the benign fingerprints in
/// `tests/determinism.rs` pin its exact count.
pub const REJECTED_DUPLICATE: &str = "rejected.duplicate";

/// A conflicting statement from one party: second distinct digest behind a
/// VAL/echo instance, or a conflicting leader vote. Always accompanied by a
/// recorded `Evidence`. Zero in benign runs.
pub const REJECTED_EQUIVOCATION: &str = "rejected.equivocation";

/// A message fell outside the bounded buffering window: round above the
/// admission horizon + window, round below the GC/prune horizon, or an
/// instance already tracking the per-instance digest cap. Zero in benign
/// runs sized within the window.
pub const REJECTED_BUFFER_FULL: &str = "rejected.buffer_full";

/// A payload failed structural validation (digest/proposer/round binding).
/// Zero in benign runs.
pub const REJECTED_BAD_PAYLOAD: &str = "rejected.bad_payload";

/// A pull deadline expired and the request was re-sent to rotated peers.
/// Can tick benignly on slow bulk links; not an attack indicator by itself.
pub const PULL_RETRIES: &str = "pull.retries";

/// Total `Evidence` records accumulated (deduplicated per culprit/round).
pub const EVIDENCE_RECORDED: &str = "evidence.recorded";

/// Events evicted from `MemRecorder`'s bounded ring. Non-zero means the
/// retained event log is a suffix of the run, not the whole run.
pub const EVENTS_DROPPED: &str = "events.dropped";

// --- client ingress / mempool ---------------------------------------------
//
// Ticked by `clanbft-mempool`. `MempoolStats` holds the whole admission
// tally (admitted, pulled, and rejected by reason); these are the samples
// read live.

/// Transactions admitted into the mempool.
pub const MEMPOOL_ADMITTED: &str = "mempool.admitted";

/// Submissions rejected because the pool hit its transaction or byte
/// capacity — the backpressure signal a real client sees as "retry later".
pub const MEMPOOL_REJECTED_FULL: &str = "mempool.rejected.full";

/// Histogram: admission → pull queueing delay, in microseconds.
pub const MEMPOOL_QUEUE_DELAY: &str = "mempool.queue_delay_us";

// --- durability / recovery -------------------------------------------------
//
// Ticked by `clanbft-storage` and the consensus recovery path. All zero in
// benign runs without a configured storage directory.

/// WAL records appended (one per durable state transition).
pub const WAL_APPENDS: &str = "wal.appends";

/// WAL bytes written, framing included.
pub const WAL_BYTES: &str = "wal.bytes";

/// Physical `fsync` calls issued by the WAL / checkpoint installer.
pub const WAL_FSYNCS: &str = "wal.fsyncs";

/// Checkpoints atomically installed (each one rotates the WAL).
pub const CHECKPOINT_WRITTEN: &str = "checkpoint.written";

/// Histogram: host-measured latency of each physical `fsync`, in
/// microseconds. The one host-clock metric in the catalogue — it feeds the
/// WAL-degradation detector and the bench durability columns, and is
/// excluded from byte-exact determinism pins for that reason.
pub const WAL_FSYNC_MICROS: &str = "wal.fsync_us";

/// Histogram: serialized size of each installed checkpoint, in bytes.
pub const CHECKPOINT_BYTES: &str = "checkpoint.bytes";

/// Vertices committed into the total order (ticked alongside the
/// `VertexCommitted` event so byte-per-commit ratios can be computed from
/// counters alone, without an event log).
pub const COMMIT_VERTICES: &str = "commit.vertices";

/// `StateRequest` messages handled by peers (rate-limited like Pull).
pub const STATE_TRANSFER_REQUESTS: &str = "state_transfer.requests";

/// Epoch boundaries at which the deterministic re-election actually
/// replaced a dead clan member.
pub const ELECTION_EPOCH_ROTATIONS: &str = "election.epoch_rotations";

// --- bounded-buffer occupancy gauges -------------------------------------
//
// Sampled by the consensus node once per round entry; the health monitor's
// buffer-growth detector reads every `buf.*` gauge by prefix, so an operator
// sees whether a stall coincided with a full window, an echo-digest flood,
// a pull backlog or a growing mempool.

/// RBC instances tracked inside the round window.
pub const BUF_RBC_INSTANCES: &str = "buf.rbc.instances";

/// Distinct echo digests tracked across RBC instances.
pub const BUF_RBC_ECHO_DIGESTS: &str = "buf.rbc.echo_digests";

/// Undelivered RBC instances with an armed pull-retry chain.
pub const BUF_RBC_PENDING_PULLS: &str = "buf.rbc.pending_pulls";

/// Vertices buffered by the DAG for missing causal parents.
pub const BUF_DAG_PENDING: &str = "buf.dag.pending";

/// Rounds retained by the DAG (round-window occupancy).
pub const BUF_DAG_ROUNDS: &str = "buf.dag.rounds";

/// Transactions queued in the mempool awaiting a proposal.
pub const BUF_MEMPOOL_DEPTH: &str = "buf.mempool.depth";
