//! The trace codec as a contract and as an attack surface.
//!
//! * Round trip: for every `Event` variant and every `RbcPhase`, with
//!   arbitrary field values, encode → decode → encode is byte-identical and
//!   the reader skips nothing. The variant list below is checked against
//!   the codec's own label table, so a variant added without a generator
//!   fails here (and one added without a table row cannot compile: the
//!   table *is* the enum).
//! * Outside input (ROADMAP item 5c): seeded mutations of a valid trace and
//!   a valid profile — truncation, flipped bytes, huge integers, long and
//!   nested values, duplicated keys — must come back as `Err` or as skipped
//!   lines. Never a panic, and never work or memory proportional to a
//!   number the input merely *wrote down*.

use clanbft_inspect::{
    alert_report, ascii, check, diff, dot, health_report, incident_report, parse_profiles,
    parse_trace, profile_report, waterfall,
};
use clanbft_telemetry::{Event, RbcPhase, RunMeta, Stamped};
use clanbft_testkit::{check as property, tk_assert, tk_assert_eq, Gen};
use clanbft_types::{Micros, PartyId, Round};
use std::collections::BTreeSet;

const CASES: u32 = 64;

fn party(g: &mut Gen) -> PartyId {
    // Mostly small ids, sometimes the extremes of the range.
    match g.u8_in(0, 8) {
        0 => PartyId(u32::MAX),
        1 => PartyId(g.u32()),
        _ => PartyId(g.u32_in(0, 64)),
    }
}

fn round(g: &mut Gen) -> Round {
    Round(if g.bool() { g.u64_in(0, 100) } else { g.u64() })
}

/// Message and evidence kinds: the ones this workspace emits (consensus,
/// t-RBC, state transfer, the straw-man, evidence) plus labels no table
/// anywhere lists.
fn kind(g: &mut Gen) -> &'static str {
    const KINDS: [&str; 12] = [
        "vote",
        "rbc.val",
        "rbc.pull_resp",
        "state.chunk",
        "block.push",
        "poa.ack",
        "slot.order",
        "equivocating_source",
        "double_vote",
        "vote_timeout_conflict",
        "from.the.future",
        "a \"quoted\\\" kind\n",
    ];
    KINDS[g.usize_in(0, KINDS.len())]
}

/// One generator per `Event` variant, in table order.
fn arbitrary_event(variant: usize, g: &mut Gen) -> Event {
    match variant {
        0 => Event::RoundEntered { round: round(g) },
        1 => Event::VertexProposed {
            round: round(g),
            tx_count: g.u64(),
            digest: g.u64(),
            strong: g.vec(0, 9, party),
            weak: g.u64_in(0, 8),
        },
        2 => Event::Rbc {
            phase: RbcPhase::ALL[g.usize_in(0, RbcPhase::ALL.len())],
            round: round(g),
            source: party(g),
        },
        3 => Event::LeaderVote {
            round: round(g),
            leader: party(g),
        },
        4 => Event::TimeoutAnnounced { round: round(g) },
        5 => Event::TimeoutCertFormed { round: round(g) },
        6 => Event::NoVoteCertFormed { round: round(g) },
        7 => Event::VertexCommitted {
            round: round(g),
            source: party(g),
            leader: g.bool(),
            sequence: g.u64(),
        },
        8 => Event::MsgDropped {
            src: party(g),
            dst: party(g),
            kind: kind(g),
            bytes: g.u64(),
        },
        9 => Event::PartitionHeld {
            src: party(g),
            dst: party(g),
            until: Micros(g.u64()),
        },
        10 => Event::EvidenceRecorded {
            kind: kind(g),
            round: round(g),
            culprit: party(g),
        },
        11 => Event::DagBuffered {
            round: round(g),
            source: party(g),
        },
        12 => Event::DagLive {
            round: round(g),
            source: party(g),
            pending: g.u64(),
        },
        13 => Event::RecoveryCompleted {
            round: round(g),
            wal_records: g.u64(),
            commit_seq: g.u64(),
            duration_us: g.u64(),
        },
        14 => Event::EpochRotated {
            epoch: g.u64(),
            from_round: round(g),
            replaced: g.u64_in(0, 16),
        },
        15 => Event::PoaFormed { seq: g.u64() },
        16 => Event::SlotCommitted {
            slot: g.u64(),
            txs: g.u64(),
        },
        _ => unreachable!("variant index out of table range"),
    }
}

fn arbitrary_stamped(variant: usize, g: &mut Gen) -> Stamped {
    Stamped {
        at: Micros(g.u64()),
        party: party(g),
        event: arbitrary_event(variant, g),
    }
}

#[test]
fn generators_cover_the_codec_table() {
    let mut g = Gen::for_case(1, 0);
    let generated: Vec<&str> = (0..Event::LABELS.len())
        .map(|v| arbitrary_event(v, &mut g).label())
        .collect();
    assert_eq!(generated, Event::LABELS, "one generator per table row");
    let distinct: BTreeSet<&str> = Event::LABELS.iter().copied().collect();
    assert_eq!(distinct.len(), Event::LABELS.len(), "labels are unique");
    let phases: BTreeSet<&str> = RbcPhase::ALL.iter().map(|p| p.label()).collect();
    assert_eq!(phases.len(), RbcPhase::ALL.len(), "phase labels are unique");
}

#[test]
fn every_event_round_trips_byte_for_byte() {
    property(
        "every_event_round_trips_byte_for_byte",
        CASES,
        |g| {
            // Every variant, and every RBC phase, in every case.
            let mut events: Vec<Stamped> = (0..Event::LABELS.len())
                .map(|v| arbitrary_stamped(v, g))
                .collect();
            for phase in RbcPhase::ALL {
                events.push(Stamped {
                    at: Micros(g.u64()),
                    party: party(g),
                    event: Event::Rbc {
                        phase,
                        round: round(g),
                        source: party(g),
                    },
                });
            }
            events
        },
        |events| {
            let encoded: String = events.iter().map(|s| s.to_ndjson() + "\n").collect();
            let trace = parse_trace(&encoded)?;
            tk_assert_eq!(trace.skipped, 0);
            tk_assert_eq!(trace.events.len(), events.len());
            let again: String = trace.events.iter().map(|s| s.to_ndjson() + "\n").collect();
            tk_assert_eq!(again, encoded);
            Ok(())
        },
    );
}

#[test]
fn run_meta_round_trips() {
    property(
        "run_meta_round_trips",
        CASES,
        |g| RunMeta {
            n: g.bool().then(|| g.u64()),
            seed: g.bool().then(|| g.u64()),
            clans: g.u64_in(0, 4),
            max_round: g.bool().then(|| g.u64()),
            attacks: g.vec(0, 4, |g| (g.u32(), format!("attack{}", g.u8()))),
        },
        |meta| {
            let line = meta.to_ndjson();
            let trace = parse_trace(&line)?;
            tk_assert_eq!(&trace.meta, meta);
            tk_assert_eq!(trace.meta.to_ndjson(), line);
            Ok(())
        },
    );
}

/// A valid trace exercising every line shape the reader knows: a meta
/// line, black-box framing, and one event per variant.
fn valid_trace(g: &mut Gen) -> String {
    let mut text = String::from(
        "{\"meta\":\"run\",\"n\":7,\"seed\":42,\"clans\":1,\"max_round\":8,\"attacks\":\"3:withhold\"}\n\
         {\"flight\":\"header\",\"events_retained\":17,\"events_dropped\":0,\"last_at\":9}\n\
         {\"flight\":\"gauge_sample\",\"at\":3,\"name\":\"buf.dag.pending\",\"value\":2}\n",
    );
    for variant in 0..Event::LABELS.len() {
        let mut s = arbitrary_stamped(variant, g);
        s.party = PartyId(g.u32_in(0, 7));
        text.push_str(&s.to_ndjson());
        text.push('\n');
    }
    text
}

const VALID_PROFILE: &str = concat!(
    "{\"prof\":\"meta\",\"label\":\"unit\",\"scopes\":2,\"total_self_ns\":3000000}\n",
    "{\"prof\":\"scope\",\"path\":\"sim.deliver\",\"name\":\"sim.deliver\",\"depth\":0,",
    "\"calls\":100,\"total_ns\":9000000,\"self_ns\":2000000,\"allocs\":50,",
    "\"alloc_bytes\":8192,\"peak_bytes\":4096}\n",
    "{\"prof\":\"scope\",\"path\":\"sim.deliver;dag.insert\",\"name\":\"dag.insert\",\"depth\":1,",
    "\"calls\":80,\"total_ns\":1000000,\"self_ns\":1000000,\"allocs\":10,",
    "\"alloc_bytes\":2048,\"peak_bytes\":1024}\n",
);

/// Applies one to four mutations, each to one randomly chosen line.
fn mutate(text: &str, g: &mut Gen) -> String {
    let mut lines: Vec<Vec<u8>> = text.lines().map(|l| l.as_bytes().to_vec()).collect();
    for _ in 0..g.usize_in(1, 5) {
        let i = g.usize_in(0, lines.len());
        let line = &mut lines[i];
        match g.u8_in(0, 7) {
            // Flip one byte anywhere.
            0 if !line.is_empty() => {
                let at = g.usize_in(0, line.len());
                line[at] ^= g.u8_in(1, 255);
            }
            // Truncate.
            1 => line.truncate(g.usize_in(0, line.len() + 1)),
            // Replace one of the line's numbers with one that fits nothing,
            // or only just fits.
            2 => {
                let huge = [
                    "99999999999999999999999999",
                    "18446744073709551615",
                    "4294967296",
                    "4294967295",
                    "20000000",
                ][g.usize_in(0, 5)];
                let from = g.usize_in(0, line.len() + 1);
                if let Some(start) = (from..line.len()).find(|i| line[*i].is_ascii_digit()) {
                    let end = (start..line.len())
                        .find(|i| !line[*i].is_ascii_digit())
                        .unwrap_or(line.len());
                    line.splice(start..end, huge.bytes());
                }
            }
            // Duplicate a key with a conflicting value.
            3 if !line.is_empty() => {
                let dup = ["\"party\":9,", "\"ev\":\"rbc\",", "\"n\":1,", "\"path\":7,"];
                line.splice(1..1, dup[g.usize_in(0, dup.len())].bytes());
            }
            // A very long string value.
            4 if !line.is_empty() => {
                let long = format!("\"kind\":\"{}\",", "k".repeat(g.usize_in(65, 70_000)));
                line.splice(1..1, long.bytes());
            }
            // Deep nesting where a flat value belongs.
            5 if !line.is_empty() => {
                let deep = format!("\"strong\":{}1,", "[".repeat(g.usize_in(1, 5_000)));
                line.splice(1..1, deep.bytes());
            }
            // Append garbage.
            _ => line.extend(g.bytes(1, 16)),
        }
    }
    let mut out = Vec::new();
    for line in lines {
        out.extend(line);
        out.push(b'\n');
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn mutated_traces_never_panic_the_reader() {
    property(
        "mutated_traces_never_panic_the_reader",
        CASES * 4,
        |g| {
            let valid = valid_trace(g);
            mutate(&valid, g)
        },
        |text| {
            let lines = text.lines().count();
            if let Ok(trace) = parse_trace(text) {
                tk_assert!(trace.events.len() as u64 + trace.skipped <= lines as u64);
                // Whatever decoded must be safe to hand on: every report runs,
                // and none may size its work from a number in the trace.
                let _ = check(&trace);
                let _ = waterfall(&trace);
                let _ = health_report(&trace);
                let _ = incident_report(&trace);
                let _ = diff(&trace, &trace);
                tk_assert!(dot(&trace, None, None).len() < 256 * text.len());
                tk_assert!(ascii(&trace, None, None).len() < 256 * text.len());
                let report = alert_report(&trace);
                tk_assert!(report.contains("verdict:"), "{report}");
            }
            Ok(())
        },
    );
}

#[test]
fn mutated_profiles_never_panic_the_reader() {
    property(
        "mutated_profiles_never_panic_the_reader",
        CASES * 4,
        |g| mutate(VALID_PROFILE, g),
        |text| {
            if let Ok(profiles) = parse_profiles(text) {
                for p in &profiles {
                    // The tree view indents by depth: it must stay bounded by
                    // the text, whatever `depth` the line claims.
                    tk_assert!(profile_report(p).len() < 64 * (text.len() + 1_024));
                }
            }
            Ok(())
        },
    );
}
