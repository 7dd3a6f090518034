//! The trace codec as a contract and as an attack surface.
//!
//! * Round trip: for every `Event` variant and every `RbcPhase`, with
//!   arbitrary field values, encode → decode → encode is byte-identical and
//!   the reader skips nothing. The variant list below is checked against
//!   the codec's own label table, so a variant added without a generator
//!   fails here (and one added without a table row cannot compile: the
//!   table *is* the enum).
//! * Every kind is read (ROADMAP item 5d): a variant that no fold,
//!   detector, report, benchmark or test names is an emitter's cost with
//!   nothing to show for it, and fails here by name.
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
use std::path::{Path, PathBuf};

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

/// Evidence kinds: the ones this workspace records plus labels no table
/// anywhere lists.
fn kind(g: &mut Gen) -> &'static str {
    const KINDS: [&str; 7] = [
        "equivocating_source",
        "misbound_payload",
        "double_vote",
        "vote_timeout_conflict",
        "rbc.val",
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
        3 => Event::TimeoutAnnounced { round: round(g) },
        4 => Event::VertexCommitted {
            round: round(g),
            source: party(g),
            leader: g.bool(),
            sequence: g.u64(),
        },
        5 => Event::EvidenceRecorded {
            kind: kind(g),
            round: round(g),
            culprit: party(g),
        },
        6 => Event::DagBuffered {
            round: round(g),
            source: party(g),
        },
        7 => Event::RecoveryCompleted {
            round: round(g),
            wal_records: g.u64(),
            commit_seq: g.u64(),
        },
        8 => Event::EpochRotated {
            epoch: g.u64(),
            from_round: round(g),
            replaced: g.u64_in(0, 16),
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

/// Where an event is read: the span fold, the detectors, the reports, the
/// benchmark and the integration tests (relative to the repository root).
/// The crates that emit events are not readers, nor is the codec
/// (`event.rs`), nor this file, whose generators name every variant by
/// construction.
const READERS: [&str; 5] = [
    "crates/telemetry/src/span.rs",
    "crates/monitor/src",
    "crates/inspect/src",
    "benchmark/src",
    "tests",
];

/// Every `.rs` file under `path` (or `path` itself), except this one.
fn reader_sources(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        entries.sort();
        for entry in entries {
            reader_sources(&entry, out);
        }
    } else if path.extension().is_some_and(|ext| ext == "rs")
        && path
            .file_name()
            .is_some_and(|name| name != "trace_codec.rs")
    {
        out.push(path.to_path_buf());
    }
}

/// Whether `text` names `needle` as a whole path or identifier (not as the
/// tail of another name, nor as a prefix of a longer one).
fn names_whole(text: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(needle).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + needle.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

/// The concatenated sources of `readers` (paths relative to the repository
/// root), each of which must exist.
fn reader_text(readers: &[PathBuf]) -> String {
    let mut files = Vec::new();
    for path in readers {
        assert!(path.exists(), "reader {} is missing", path.display());
        reader_sources(path, &mut files);
    }
    files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display())))
        .collect()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_event_kind_has_a_reader() {
    let root = repo_root();
    let text = reader_text(&READERS.map(|r| root.join(r)));
    let mut g = Gen::for_case(1, 0);
    let unread: Vec<String> = (0..Event::LABELS.len())
        .map(|v| {
            let debug = format!("{:?}", arbitrary_event(v, &mut g));
            debug.chars().take_while(|c| c.is_alphanumeric()).collect()
        })
        .filter(|variant: &String| !names_whole(&text, &format!("Event::{variant}")))
        .collect();
    assert!(
        unread.is_empty(),
        "event kinds that no reader ({}) names as `Event::<variant>`: {unread:?}",
        READERS.join(", ")
    );
}

/// Where a counter is read: the detectors, the reports, the experiment
/// harness, the figures, the benchmark and every integration test. The
/// crates that tick counters are not readers.
const COUNTER_READERS: [&str; 6] = [
    "crates/monitor/src",
    "crates/inspect/src",
    "crates/sim/src",
    "crates/bench/src",
    "benchmark/src",
    "tests",
];

/// Counters read under another name than their identifier: the
/// buffer-growth detector takes every `buf.*` gauge by prefix, and
/// `MemRecorder::dropped_events`, which the benchmark calls, is
/// `events.dropped`.
const READ_THROUGH: [(&str, &str); 2] = [
    ("buf.", r#"starts_with("buf.")"#),
    ("events.dropped", "dropped_events"),
];

#[test]
fn every_counter_has_a_reader() {
    let root = repo_root();
    let mut readers: Vec<PathBuf> = COUNTER_READERS.iter().map(|r| root.join(r)).collect();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates directory");
    let mut crate_tests: Vec<PathBuf> = crates
        .map(|entry| entry.expect("directory entry").path().join("tests"))
        .filter(|tests| tests.is_dir())
        .collect();
    crate_tests.sort();
    readers.extend(crate_tests);
    let text = reader_text(&readers);
    let table = include_str!("../crates/telemetry/src/counters.rs");
    let counters: Vec<(&str, &str)> = table
        .lines()
        .filter_map(|l| l.strip_prefix("pub const "))
        .map(|l| {
            let (ident, rest) = l.split_once(": &str = \"").expect("a named counter");
            (ident, rest.trim_end_matches("\";"))
        })
        .collect();
    assert!(counters.len() > 10, "the counter table did not parse");
    let unread: Vec<&str> = counters
        .iter()
        .filter(|(ident, name)| {
            let through = READ_THROUGH
                .iter()
                .any(|(prefix, needle)| name.starts_with(prefix) && text.contains(needle));
            !through && !names_whole(&text, ident)
        })
        .map(|(_, name)| *name)
        .collect();
    assert!(
        unread.is_empty(),
        "counters that no reader mentions by identifier: {unread:?}"
    );
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

/// A valid trace exercising every line shape the reader knows: a meta line
/// and one event per variant.
fn valid_trace(g: &mut Gen) -> String {
    let mut text = String::from(
        "{\"meta\":\"run\",\"n\":7,\"seed\":42,\"clans\":1,\"max_round\":8,\"attacks\":\"3:withhold\"}\n",
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
