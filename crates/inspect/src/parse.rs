//! Reading a trace file: lines in, a folded [`Trace`] out.
//!
//! The wire format belongs to `clanbft_telemetry` (`ndjson::parse_line` for
//! the flat-JSON lines, `Stamped::from_fields` / `RunMeta::from_fields` for
//! what they carry); this module only walks the file. Unknown keys and
//! unknown event labels are skipped, not errors: traces from newer
//! workspace revisions must stay readable.

use clanbft_telemetry::ndjson::parse_line;
use clanbft_telemetry::{RunMeta, SpanSet, Stamped};

/// A fully parsed trace: metadata, the merged stamped event stream, and
/// the stream folded into per-block lifecycles — once, here, for every
/// report to read.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Run metadata (zeroed if the trace has no meta line).
    pub meta: RunMeta,
    /// Events in file order (= deterministic emission order).
    pub events: Vec<Stamped>,
    /// `events` folded into spans.
    pub spans: SpanSet,
    /// Lines that parsed as JSON but carried no event this revision knows
    /// (an unknown label, or no label at all).
    pub skipped: u64,
}

/// Parses a whole trace. Blank lines are skipped; a malformed JSON line or
/// a known event with a missing, ill-typed or out-of-range field is an
/// error (traces are machine-written, so corruption should be loud);
/// well-formed lines with unknown event labels are counted in
/// [`Trace::skipped`]. The framing lines of a black-box dump
/// (`{"flight":...}`) are expected and ignored; the events among them parse
/// normally.
pub fn parse_trace(text: &str) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let located = |e: String| format!("line {}: {e}: {line}", i + 1);
        let map = parse_line(line).map_err(located)?;
        if map.contains_key("meta") {
            trace.meta = RunMeta::from_fields(&map);
        } else if !map.contains_key("flight") {
            match Stamped::from_fields(&map).map_err(located)? {
                Some(event) => trace.events.push(event),
                None => trace.skipped += 1,
            }
        }
    }
    trace.spans = SpanSet::from_events(&trace.events);
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_telemetry::Event;
    use clanbft_types::{Micros, PartyId, Round};

    #[test]
    fn roundtrips_writer_output() {
        let original = Stamped {
            at: Micros(77),
            party: PartyId(2),
            event: Event::VertexProposed {
                round: Round(3),
                tx_count: 9,
                digest: 0x0badcafe,
                strong: vec![PartyId(0), PartyId(1)],
                weak: 1,
            },
        };
        let text = format!("{}\n", original.to_ndjson());
        let trace = parse_trace(&text).expect("parses");
        assert_eq!(trace.events.len(), 1);
        let back = &trace.events[0];
        assert_eq!(back.at, Micros(77));
        assert_eq!(back.party, PartyId(2));
        match &back.event {
            Event::VertexProposed {
                round,
                tx_count,
                digest,
                strong,
                weak,
            } => {
                assert_eq!(*round, Round(3));
                assert_eq!(*tx_count, 9);
                assert_eq!(*digest, 0x0badcafe);
                assert_eq!(strong, &[PartyId(0), PartyId(1)]);
                assert_eq!(*weak, 1);
            }
            other => panic!("wrong event: {other:?}"),
        }
        // Re-rendering must be byte-identical (determinism pin).
        assert_eq!(back.to_ndjson(), original.to_ndjson());
        // The fold ran: the proposal opened its span.
        assert!(trace.spans.spans.contains_key(&(Round(3), PartyId(2))));
    }

    #[test]
    fn meta_line_and_unknown_events_are_handled() {
        let text = concat!(
            "{\"meta\":\"run\",\"n\":7,\"seed\":42,\"clans\":1,\"max_round\":8,",
            "\"attacks\":\"3:withhold\"}\n",
            "{\"at\":1,\"party\":0,\"ev\":\"round_entered\",\"round\":1}\n",
            "{\"at\":2,\"party\":0,\"ev\":\"from_the_future\",\"x\":9}\n",
        );
        let trace = parse_trace(text).expect("parses");
        assert_eq!(trace.meta.n, Some(7));
        assert_eq!(trace.meta.seed, Some(42));
        assert_eq!(trace.meta.clans, 1);
        assert_eq!(trace.meta.max_round, Some(8));
        assert_eq!(trace.meta.attacks, vec![(3, "withhold".to_string())]);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.skipped, 1);
    }

    #[test]
    fn malformed_json_is_a_loud_error() {
        assert!(parse_trace("{\"at\":1,").is_err());
        assert!(parse_trace("not json at all").is_err());
    }

    #[test]
    fn corrupt_known_events_are_loud_errors() {
        // A party id that does not fit is rejected with its line number,
        // never truncated into some other party.
        let err = parse_trace(concat!(
            "{\"at\":1,\"party\":0,\"ev\":\"round_entered\",\"round\":1}\n",
            "{\"at\":2,\"party\":4294967296,\"ev\":\"round_entered\",\"round\":1}\n",
        ))
        .expect_err("out-of-range party id");
        assert!(err.starts_with("line 2: bad value"), "{err}");
        assert!(parse_trace("{\"at\":1,\"party\":0,\"ev\":\"round_entered\"}\n").is_err());
    }

    #[test]
    fn unlisted_kinds_survive_and_dump_framing_is_not_skipped() {
        // A black-box dump: framing lines around ordinary events, one of
        // them carrying an evidence kind no table in this workspace lists.
        let text = concat!(
            "{\"flight\":\"header\",\"events_retained\":2,\"events_dropped\":0,\"last_at\":6}\n",
            "{\"flight\":\"counter\",\"name\":\"pull.retries\",\"value\":2}\n",
            "{\"at\":5,\"party\":1,\"ev\":\"evidence\",\"kind\":\"double_vote\",",
            "\"round\":2,\"culprit\":4}\n",
            "{\"at\":6,\"party\":1,\"ev\":\"evidence\",\"kind\":\"mystery\",",
            "\"round\":2,\"culprit\":4}\n",
        );
        let trace = parse_trace(text).expect("parses");
        assert_eq!(trace.skipped, 0);
        let kinds: Vec<&str> = trace
            .events
            .iter()
            .map(|s| match s.event {
                Event::EvidenceRecorded { kind, .. } => kind,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kinds, vec!["double_vote", "mystery"]);
    }
}
