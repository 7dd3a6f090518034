//! Every binary decoder as an attack surface (ROADMAP item 3c).
//!
//! `types` and `storage` decode what a crash left on disk (WAL records,
//! checkpoints, and the vertices, blocks and certificates inside them). One table row per
//! `Decode` impl outside `types::codec` (whose primitives every row is made
//! of), checked against the sources so an impl added without a generator
//! fails here. Per row:
//!
//! * a valid encoding decodes, and re-encodes byte for byte;
//! * seeded mutations of a valid encoding — truncation, flipped bits,
//!   hostile length prefixes, appended bytes — come back as `Err` or as a
//!   value that re-encodes to a fixed point. Never a panic, and never more
//!   than a fixed multiple of the input's length allocated: a length the
//!   input merely *wrote down* must not size anything.

use clanbft_crypto::{Digest, Signature};
use clanbft_profiler as prof;
use clanbft_storage::{Checkpoint, EpochEntry, ProposalEntry, WalRecord};
use clanbft_testkit::{check, check_shrink, tk_assert, tk_assert_eq, Gen};
use clanbft_types::{
    Block, Decode, DecodeError, Encode, Evidence, Micros, NoVoteCert, PartyId, Round, TimeoutCert,
    TxBatch, Vertex, VertexRef,
};

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

const CASES: u32 = 256;

/// Bytes a decoder may allocate per input byte (re-encoding what it
/// accepted included), plus a constant for inputs of a few bytes. A
/// collection reserves at most one element per input byte left, so the
/// worst element decides: a `Vertex` is under 256 bytes in memory.
const ALLOC_FACTOR: u64 = 256;
const ALLOC_SLACK: u64 = 1_024;

type Generator = Box<dyn Fn(&mut Gen) -> Vec<u8>>;

struct Row {
    /// The type as its `impl Decode for` line spells it.
    name: &'static str,
    /// A valid encoding.
    valid: Generator,
    /// Decodes and re-encodes.
    recode: fn(&[u8]) -> Result<Vec<u8>, DecodeError>,
}

fn row<T: Encode + Decode + 'static>(name: &'static str, arbitrary: fn(&mut Gen) -> T) -> Row {
    Row {
        name,
        valid: Box::new(move |g| arbitrary(g).to_bytes()),
        recode: |bytes| T::from_bytes(bytes).map(|v| v.to_bytes()),
    }
}

fn rows() -> Vec<Row> {
    vec![
        row("Block", block),
        row("VertexRef", vertex_ref),
        row("Vertex", vertex),
        row("TimeoutCert", timeout_cert),
        row("NoVoteCert", no_vote_cert),
        row("TxBatch", batch),
        row("Evidence", |g| evidence(g.usize_in(0, 4), g)),
        row("WalRecord", |g| wal_record(g.usize_in(0, WAL_VARIANTS), g)),
        row("ProposalEntry", proposal),
        row("EpochEntry", epoch),
        row("Checkpoint", checkpoint),
    ]
}

// --- generators ---------------------------------------------------------------

fn round(g: &mut Gen) -> Round {
    Round(if g.bool() { g.u64_in(0, 100) } else { g.u64() })
}

fn party(g: &mut Gen) -> PartyId {
    PartyId(if g.bool() { g.u32_in(0, 64) } else { g.u32() })
}

fn digest(g: &mut Gen) -> Digest {
    Digest::of(&g.u64().to_le_bytes())
}

fn vertex_ref(g: &mut Gen) -> VertexRef {
    VertexRef {
        round: round(g),
        source: party(g),
    }
}

fn batch(g: &mut Gen) -> TxBatch {
    let (creator, first_seq, at) = (party(g), g.u64_in(0, 1 << 40), Micros(g.u64()));
    if g.bool() {
        TxBatch::synthetic(
            creator,
            first_seq,
            g.u32_in(0, 5_000),
            g.u32_in(1, 4_096),
            at,
        )
    } else {
        let (count, tx_bytes) = (g.u32_in(1, 8), g.u32_in(1, 24));
        let payload = g.bytes((count * tx_bytes) as usize, (count * tx_bytes) as usize + 1);
        TxBatch::with_payload(creator, first_seq, count, tx_bytes, at, payload)
    }
}

fn block(g: &mut Gen) -> Block {
    Block::new(party(g), round(g), g.vec(0, 4, batch))
}

/// Round, capacity and `(signer, signature)` pairs of a certificate, with
/// the odd duplicate signer.
fn cert_parts(g: &mut Gen) -> (Round, usize, Vec<(usize, Signature)>) {
    let n = g.usize_in(1, 40);
    let pairs = g.vec(0, n + 2, |g| {
        let mut sig = [0u8; 64];
        g.rng().fill_bytes(&mut sig);
        (g.usize_in(0, n), Signature(sig))
    });
    (round(g), n, pairs)
}

fn timeout_cert(g: &mut Gen) -> TimeoutCert {
    let (round, n, pairs) = cert_parts(g);
    TimeoutCert::new(round, n, &pairs)
}

fn no_vote_cert(g: &mut Gen) -> NoVoteCert {
    let (round, n, pairs) = cert_parts(g);
    NoVoteCert::new(round, n, &pairs)
}

fn vertex(g: &mut Gen) -> Vertex {
    Vertex {
        round: round(g),
        source: party(g),
        block_digest: digest(g),
        block_bytes: g.u64(),
        block_tx_count: g.u64(),
        strong_edges: g.vec(0, 9, vertex_ref),
        weak_edges: g.vec(0, 3, vertex_ref),
        nvc: g.bool().then(|| Box::new(no_vote_cert(g))),
        tc: g.bool().then(|| Box::new(timeout_cert(g))),
    }
}

fn clans(g: &mut Gen) -> Vec<Vec<u32>> {
    g.vec(0, 4, |g| g.vec(0, 6, Gen::u32))
}

/// One of the four `Evidence` variants, by index.
fn evidence(variant: usize, g: &mut Gen) -> Evidence {
    match variant {
        0 => Evidence::EquivocatingSource {
            round: round(g),
            source: party(g),
            first: digest(g),
            second: digest(g),
        },
        1 => Evidence::DoubleVote {
            round: round(g),
            voter: party(g),
            first: digest(g),
            second: digest(g),
        },
        2 => Evidence::VoteTimeoutConflict {
            round: round(g),
            party: party(g),
        },
        3 => Evidence::MisboundPayload {
            round: round(g),
            source: party(g),
            named_round: round(g),
            named_source: party(g),
        },
        _ => unreachable!("variant index out of table range"),
    }
}

/// `WalRecord` has six tags, `Evidence` under the sixth has four.
const WAL_VARIANTS: usize = 9;

fn wal_record(variant: usize, g: &mut Gen) -> WalRecord {
    match variant {
        0 => WalRecord::Proposed {
            proposal: proposal(g),
        },
        1 => WalRecord::Voted { round: round(g) },
        2 => WalRecord::NoVoted { round: round(g) },
        3 => WalRecord::Accepted { vertex: vertex(g) },
        4 => WalRecord::Committed {
            leader_round: round(g),
        },
        5..=8 => WalRecord::Evidence {
            evidence: evidence(variant - 5, g),
        },
        _ => unreachable!("variant index out of table range"),
    }
}

fn proposal(g: &mut Gen) -> ProposalEntry {
    ProposalEntry {
        vertex: vertex(g),
        block: block(g),
    }
}

fn epoch(g: &mut Gen) -> EpochEntry {
    EpochEntry {
        epoch: g.u64(),
        from_round: round(g),
        clans: clans(g),
    }
}

fn checkpoint(g: &mut Gen) -> Checkpoint {
    Checkpoint {
        current_round: round(g),
        last_committed: g.bool().then(|| round(g)),
        commit_seq: g.u64(),
        next_tx_seq: g.u64(),
        stopped_proposing: g.bool(),
        voted: g.vec(0, 5, round),
        no_voted: g.vec(0, 3, round),
        last_proposal: g.bool().then(|| proposal(g)),
        horizon: round(g),
        vertices: g.vec(0, 4, vertex),
        ordered: g.vec(0, 6, vertex_ref),
        committed_round_by: g.vec(0, 8, Gen::u64),
        epochs: g.vec(0, 3, epoch),
        evidence: g.vec(0, 3, |g| evidence(g.usize_in(0, 4), g)),
    }
}

// --- the table is complete ------------------------------------------------------

#[test]
fn every_decode_impl_has_a_generator() {
    let mut impls: Vec<String> = Vec::new();
    for krate in ["types", "storage"] {
        let dir = format!("{}/../{krate}/src", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(&dir).expect("crate sources") {
            let path = entry.expect("directory entry").path();
            if path.ends_with("types/src/codec.rs") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("source file");
            let named = source
                .lines()
                .filter_map(|l| l.strip_prefix("impl Decode for "));
            impls.extend(named.map(|rest| rest.trim_end_matches(" {").to_string()));
            // A generic impl decodes each of the file's aliases of its type.
            let generic = source
                .lines()
                .filter(|l| l.starts_with("impl<"))
                .filter_map(|l| l.split_once("> Decode for "))
                .filter_map(|(_, rest)| rest.split_once('<'));
            for (ty, _) in generic {
                let aliases = source.lines().filter_map(|l| {
                    let (alias, of) = l.strip_prefix("pub type ")?.split_once(" = ")?;
                    of.starts_with(&format!("{ty}<")).then(|| alias.to_string())
                });
                impls.extend(aliases);
            }
        }
    }
    impls.sort();
    let mut generated: Vec<&str> = rows().iter().map(|r| r.name).collect();
    generated.sort_unstable();
    assert_eq!(impls, generated, "one table row per `impl Decode for`");
}

#[test]
fn wal_record_generators_cover_every_tag() {
    let mut g = Gen::for_case(1, 0);
    let heads: Vec<(u8, u8)> = (0..WAL_VARIANTS)
        .map(|v| {
            let bytes = wal_record(v, &mut g).to_bytes();
            (bytes[0], if bytes[0] == 6 { bytes[1] } else { 0 })
        })
        .collect();
    let expected = [1, 2, 3, 4, 5].map(|t| (t, 0));
    let expected = [&expected[..], &[(6, 1), (6, 2), (6, 3), (6, 4)]].concat();
    assert_eq!(heads, expected);
    // The next tag of each space is free: a variant added to the codec
    // without a generator above turns one of these into something else.
    let tag = |bytes: &[u8]| WalRecord::from_bytes(bytes).err();
    assert_eq!(tag(&[0]), Some(DecodeError::InvalidTag(0)));
    assert_eq!(tag(&[7]), Some(DecodeError::InvalidTag(7)));
    assert_eq!(tag(&[6, 0]), Some(DecodeError::InvalidTag(0)));
    assert_eq!(tag(&[6, 5]), Some(DecodeError::InvalidTag(5)));
}

// --- the properties -------------------------------------------------------------

#[test]
fn valid_encodings_round_trip_byte_for_byte() {
    for row in rows() {
        check(row.name, CASES, &row.valid, |bytes| {
            let again = (row.recode)(bytes).map_err(|e| format!("{}: {e}", row.name))?;
            tk_assert_eq!(&again, bytes);
            Ok(())
        });
    }
}

/// One to four mutations of a valid encoding.
fn mutate(mut bytes: Vec<u8>, g: &mut Gen) -> Vec<u8> {
    for _ in 0..g.usize_in(1, 5) {
        match g.u8_in(0, 5) {
            // Flip one bit, or a whole byte.
            0 | 1 if !bytes.is_empty() => {
                let at = g.usize_in(0, bytes.len());
                bytes[at] ^= if g.bool() {
                    1 << g.u8_in(0, 8)
                } else {
                    g.u8_in(1, 255)
                };
            }
            // Truncate.
            2 => bytes.truncate(g.usize_in(0, bytes.len() + 1)),
            // Overwrite what reads as a length prefix or a count (a small
            // little-endian u32), else any four bytes, with a number that
            // fits nothing or only just fits.
            3 if bytes.len() >= 4 => {
                let small = |at: &usize| bytes[*at] < 64 && bytes[at + 1..at + 4] == [0, 0, 0];
                let prefixes: Vec<usize> = (0..bytes.len() - 3).filter(small).collect();
                let at = match prefixes.len() {
                    0 => g.usize_in(0, bytes.len() - 3),
                    n => prefixes[g.usize_in(0, n)],
                };
                let hostile = [
                    u32::MAX,
                    (64 << 20) + 1,
                    64 << 20,
                    1 << 20,
                    4_097,
                    4_096,
                    bytes.len() as u32,
                ][g.usize_in(0, 7)];
                bytes[at..at + 4].copy_from_slice(&hostile.to_le_bytes());
            }
            // Append garbage.
            _ => bytes.extend(g.bytes(1, 16)),
        }
    }
    bytes
}

/// Decodes (and re-encodes) under a profiler scope: what came back, and
/// the bytes allocated on the way.
fn recode_counting(row: &Row, bytes: &[u8]) -> (Result<Vec<u8>, DecodeError>, u64) {
    // Decoders carry scopes of their own: drop what a decode outside this
    // function left in the tree, so that `decode` is its first node.
    prof::reset();
    let result = {
        let _scope = prof::scope("decode");
        (row.recode)(bytes)
    };
    let report = prof::take_report();
    (result, report.scopes.first().map_or(0, |s| s.alloc_bytes))
}

fn judge(row: &Row, bytes: &[u8]) -> Result<(), String> {
    let (result, allocated) = recode_counting(row, bytes);
    tk_assert!(
        allocated <= ALLOC_FACTOR * bytes.len() as u64 + ALLOC_SLACK,
        "{}: {allocated} bytes allocated for {} bytes of input",
        row.name,
        bytes.len()
    );
    if let Ok(again) = result {
        // Whatever was accepted is safe to hand on: its encoding decodes,
        // to the same thing.
        tk_assert_eq!((row.recode)(&again), Ok(again.clone()));
    }
    Ok(())
}

#[test]
fn mutated_encodings_never_panic_or_over_allocate() {
    prof::enable();
    for row in rows() {
        check_shrink(
            row.name,
            CASES * 4,
            |g| mutate((row.valid)(g), g),
            |bytes| judge(&row, bytes),
        );
    }
}

/// The shrunk inputs the property above found, kept as cases of their own.
#[test]
fn hostile_lengths_size_nothing() {
    prof::enable();
    assert!(std::mem::size_of::<Vertex>() as u64 <= ALLOC_FACTOR);
    let rows = rows();
    let row = |name: &str| rows.iter().find(|r| r.name == name).expect("row");
    // A collection prefix of 4 096 elements with none behind it used to
    // reserve 4 096 of them (a megabyte of vertices for a checkpoint's four
    // bytes)...
    let mut prefix_only = Checkpoint::default().to_bytes();
    // The vertex count sits before four more empty lists' prefixes.
    let vertices_at = prefix_only.len() - 20;
    prefix_only[vertices_at..vertices_at + 4].copy_from_slice(&4_096u32.to_le_bytes());
    // ...as did a certificate's signature count; and its signer capacity,
    // taken at its word up to 2^20, sized a 128 KiB bitmap from 16 bytes.
    let cert = |capacity: u32, count: u32| {
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend(capacity.to_le_bytes());
        bytes.extend(count.to_le_bytes());
        bytes
    };
    for (name, bytes) in [
        ("Checkpoint", prefix_only),
        ("TimeoutCert", cert(4, 4_096)),
        ("NoVoteCert", cert(1 << 20, 0)),
    ] {
        judge(row(name), &bytes).unwrap_or_else(|e| panic!("{e}"));
        assert!((row(name).recode)(&bytes).is_err(), "{name}");
    }
}
