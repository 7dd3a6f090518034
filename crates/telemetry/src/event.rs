//! The typed protocol event log and its wire format.
//!
//! Every event is stamped at emission with the simulated clock and the
//! observing party ([`Stamped`]). The taxonomy covers the three layers the
//! paper's latency arithmetic decomposes: consensus (rounds, votes,
//! commits), the tribe-assisted RBC phases, and the simulated network
//! (drops, partition holds). Event streams are deterministic: same seed,
//! byte-identical NDJSON.
//!
//! The trace format is defined here and nowhere else. [`Event`] is declared
//! through one table — variant, label, and per field its type and wire key —
//! from which the enum, [`Event::label`], the encoder behind
//! [`Stamped::to_ndjson`] and the decoder behind [`Stamped::from_fields`]
//! are all generated, so a variant cannot exist without a wire form and the
//! two directions cannot disagree. [`RunMeta`] is the trace's leading
//! metadata line, also with both directions.

use crate::ndjson::{Fields, JsonObj, Value};
use clanbft_types::{Micros, PartyId, Round};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// How a field of type `T` is written to and read back from a trace line.
/// Implemented on `T` itself, or on a marker type ([`Hex`]) for a field
/// whose wire form is not its type's default.
trait Wire<T> {
    fn put(obj: JsonObj, key: &str, v: &T) -> JsonObj;
    fn get(v: &Value) -> Option<T>;
}

impl Wire<u64> for u64 {
    fn put(obj: JsonObj, key: &str, v: &u64) -> JsonObj {
        obj.u64(key, *v)
    }
    fn get(v: &Value) -> Option<u64> {
        v.as_u64()
    }
}

/// A `u64` written as sixteen hex digits (block-digest prefixes).
struct Hex;

impl Wire<u64> for Hex {
    fn put(obj: JsonObj, key: &str, v: &u64) -> JsonObj {
        obj.str(key, &format!("{v:016x}"))
    }
    fn get(v: &Value) -> Option<u64> {
        u64::from_str_radix(v.as_str()?, 16).ok()
    }
}

impl Wire<Round> for Round {
    fn put(obj: JsonObj, key: &str, v: &Round) -> JsonObj {
        obj.u64(key, v.0)
    }
    fn get(v: &Value) -> Option<Round> {
        v.as_u64().map(Round)
    }
}

impl Wire<Micros> for Micros {
    fn put(obj: JsonObj, key: &str, v: &Micros) -> JsonObj {
        obj.u64(key, v.0)
    }
    fn get(v: &Value) -> Option<Micros> {
        v.as_u64().map(Micros)
    }
}

impl Wire<PartyId> for PartyId {
    fn put(obj: JsonObj, key: &str, v: &PartyId) -> JsonObj {
        obj.u64(key, u64::from(v.0))
    }
    /// An id that does not fit a `PartyId` is rejected, never truncated.
    fn get(v: &Value) -> Option<PartyId> {
        u32::try_from(v.as_u64()?).ok().map(PartyId)
    }
}

impl Wire<Vec<PartyId>> for Vec<PartyId> {
    fn put(obj: JsonObj, key: &str, v: &Vec<PartyId>) -> JsonObj {
        obj.arr_u64(key, &v.iter().map(|p| u64::from(p.0)).collect::<Vec<u64>>())
    }
    fn get(v: &Value) -> Option<Vec<PartyId>> {
        let Value::Arr(ids) = v else { return None };
        ids.iter()
            .map(|id| u32::try_from(*id).ok().map(PartyId))
            .collect()
    }
}

impl Wire<bool> for bool {
    fn put(obj: JsonObj, key: &str, v: &bool) -> JsonObj {
        obj.bool(key, *v)
    }
    fn get(v: &Value) -> Option<bool> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Wire<RbcPhase> for RbcPhase {
    fn put(obj: JsonObj, key: &str, v: &RbcPhase) -> JsonObj {
        obj.str(key, v.label())
    }
    fn get(v: &Value) -> Option<RbcPhase> {
        RbcPhase::from_label(v.as_str()?)
    }
}

/// Longest kind label the decoder will intern.
const MAX_LABEL_LEN: usize = 64;
/// Most distinct kind labels the decoder will intern per process.
const MAX_LABELS: usize = 4_096;

/// Message-kind and evidence-kind labels are `&'static str` in the event
/// type so emitting one costs nothing; the decoder therefore interns the
/// labels it reads in a process-wide table, whatever they are (a label this
/// revision has never heard of round-trips unchanged). Input from outside
/// cannot grow the table past [`MAX_LABELS`] labels of [`MAX_LABEL_LEN`]
/// bytes: beyond either bound the value is rejected.
impl Wire<&'static str> for &'static str {
    fn put(obj: JsonObj, key: &str, v: &&'static str) -> JsonObj {
        obj.str(key, v)
    }
    fn get(v: &Value) -> Option<&'static str> {
        static TABLE: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let label = v.as_str()?;
        let mut table = TABLE.lock().expect("label table lock");
        if let Some(known) = table.get(label) {
            return Some(known);
        }
        if label.len() > MAX_LABEL_LEN || table.len() >= MAX_LABELS {
            return None;
        }
        let leaked: &'static str = Box::leak(label.to_owned().into_boxed_str());
        table.insert(leaked);
        Some(leaked)
    }
}

/// The type whose [`Wire`] impl carries a field: the field's own type, or
/// the marker named after `as` in the table.
macro_rules! wire {
    ($t:ty) => {
        $t
    };
    ($t:ty as $w:ty) => {
        $w
    };
}

/// Reads field `key` of a known event; absent or ill-typed is an error (the
/// line claims a label this codec knows, so it is corrupt, not foreign).
fn field<W: Wire<T>, T>(map: &Fields, key: &str) -> Result<T, String> {
    let v = map
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    W::get(v).ok_or_else(|| format!("bad value {v:?} for field {key:?}"))
}

/// Declares a fieldless enum together with its stable labels — the names it
/// goes by in NDJSON lines, reports and metric series — as one table:
/// `Variant = "label"`. Generates `COUNT`, `ALL` (declaration order, which
/// is also the `as usize` order), `label` and `from_label`.
#[macro_export]
macro_rules! labelled {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $label:literal, )+
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// How many variants there are.
            pub const COUNT: usize = [$($label),+].len();

            /// Every variant, in declaration order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$variant),+];

            /// Stable label.
            pub fn label(self) -> &'static str {
                match self {
                    $( $name::$variant => $label, )+
                }
            }

            /// The variant a label names, if any.
            pub fn from_label(label: &str) -> Option<$name> {
                Self::ALL.into_iter().find(|v| v.label() == label)
            }
        }
    };
}

labelled! {
    /// Which phase of a broadcast instance an [`Event::Rbc`] marks.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum RbcPhase {
        /// The source pushed VAL/meta for the instance.
        ValSent = "val_sent",
        /// This party echoed the instance's digest.
        Echoed = "echoed",
        /// `2f+1` echoes incl. `f_c+1` clan echoes observed (early-pull gate).
        EchoQuorum = "echo_quorum",
        /// The digest is certified (2f+1 READYs or a valid echo certificate).
        Certified = "certified",
        /// `r_deliver` of the full payload.
        DeliverFull = "deliver_full",
        /// `r_deliver` of the meta view.
        DeliverMeta = "deliver_meta",
        /// A payload/meta pull was started.
        PullStarted = "pull_started",
        /// A pull deadline expired and the request was re-sent to rotated
        /// peers (the recovery stage a withholding sender forces victims into).
        PullRetry = "pull_retry",
    }
}

/// Declares [`Event`] from the wire table: per variant its label, per field
/// its type and wire key (fields are written in table order; `as Marker`
/// picks a non-default wire form).
macro_rules! events {
    (
        $(
            $(#[$vmeta:meta])*
            $variant:ident = $label:literal {
                $( $(#[$fmeta:meta])* $field:ident : $t:ty = $key:literal $(as $w:ty)?, )*
            }
        )+
    ) => {
        /// One protocol event (the un-stamped body).
        #[derive(Clone, Debug)]
        pub enum Event {
            $(
                $(#[$vmeta])*
                $variant {
                    $( $(#[$fmeta])* $field: $t, )*
                },
            )+
        }

        impl Event {
            /// Every event-type label, in declaration order.
            pub const LABELS: &'static [&'static str] = &[$($label),+];

            /// Stable event-type label used in the NDJSON stream.
            pub fn label(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $label, )+
                }
            }

            /// Appends the event's fields to `obj`, in table order.
            fn encode(&self, obj: JsonObj) -> JsonObj {
                match self {
                    $(
                        Event::$variant { $($field),* } => {
                            $( let obj = <wire!($t $(as $w)?) as Wire<$t>>::put(obj, $key, $field); )*
                            obj
                        }
                    )+
                }
            }

            /// Rebuilds the event labelled `label` from a parsed line;
            /// `Ok(None)` if this revision knows no such label.
            fn decode(label: &str, map: &Fields) -> Result<Option<Event>, String> {
                Ok(Some(match label {
                    $(
                        $label => Event::$variant {
                            $( $field: field::<wire!($t $(as $w)?), $t>(map, $key)?, )*
                        },
                    )+
                    _ => return Ok(None),
                }))
            }
        }
    };
}

events! {
    /// The party advanced into `round`.
    RoundEntered = "round_entered" {
        /// The round entered.
        round: Round = "round",
    }
    /// The party proposed its round-`round` vertex.
    VertexProposed = "vertex_proposed" {
        /// Proposal round.
        round: Round = "round",
        /// Transactions in the proposed block.
        tx_count: u64 = "txs",
        /// First eight bytes of the block digest (big-endian), enough to
        /// key the causal span and to tell equivocating twins apart while
        /// keeping the event log compact.
        digest: u64 = "digest" as Hex,
        /// Sources of the previous-round vertices the proposal strong-edges
        /// to (the DAG structure, reconstructible per round from the trace).
        strong: Vec<PartyId> = "strong",
        /// Number of weak edges (late arrivals swept in).
        weak: u64 = "weak",
    }
    /// A broadcast instance `(round, source)` reached `phase` at this party.
    Rbc = "rbc" {
        /// RBC phase reached.
        phase: RbcPhase = "phase",
        /// Instance round.
        round: Round = "round",
        /// Instance source.
        source: PartyId = "source",
    }
    /// The party voted for the round leader's vertex.
    LeaderVote = "leader_vote" {
        /// Voted round.
        round: Round = "round",
        /// The round's leader (vertex source voted for).
        leader: PartyId = "leader",
    }
    /// The party announced a timeout for `round` (it will never vote there).
    TimeoutAnnounced = "timeout_announced" {
        /// The round timed out on.
        round: Round = "round",
    }
    /// `2f+1` timeout announcements assembled into a timeout certificate.
    TimeoutCertFormed = "timeout_cert_formed" {
        /// Certified round.
        round: Round = "round",
    }
    /// `2f+1` no-vote announcements assembled into a no-vote certificate.
    NoVoteCertFormed = "no_vote_cert_formed" {
        /// Certified round.
        round: Round = "round",
    }
    /// A vertex entered this party's total order.
    VertexCommitted = "vertex_committed" {
        /// Vertex round.
        round: Round = "round",
        /// Vertex source.
        source: PartyId = "source",
        /// Whether this is the round leader's vertex (direct 3δ path) or a
        /// non-leader vertex swept in through the causal history (5δ path).
        leader: bool = "leader",
        /// Position in this party's total order.
        sequence: u64 = "seq",
    }
    /// The simulator dropped a message (crashed endpoint).
    MsgDropped = "msg_dropped" {
        /// Sender.
        src: PartyId = "src",
        /// Intended receiver.
        dst: PartyId = "dst",
        /// Message kind label.
        kind: &'static str = "kind",
        /// Wire bytes lost.
        bytes: u64 = "bytes",
    }
    /// A partition held a message; it will be delivered after healing.
    PartitionHeld = "partition_held" {
        /// Sender.
        src: PartyId = "src",
        /// Receiver.
        dst: PartyId = "dst",
        /// When the cut heals.
        until: Micros = "until",
    }
    /// Byzantine evidence recorded at this party (see
    /// `clanbft_types::Evidence` — carried here by its stable label to keep
    /// the event log digest-free).
    EvidenceRecorded = "evidence" {
        /// `Evidence::kind()` label.
        kind: &'static str = "kind",
        /// Round the conflict occurred in.
        round: Round = "round",
        /// The party the evidence points at.
        culprit: PartyId = "culprit",
    }
    /// A delivered vertex was buffered by the DAG layer because a causal
    /// parent is still missing (paper: causal-completeness gate).
    DagBuffered = "dag_buffered" {
        /// Vertex round.
        round: Round = "round",
        /// Vertex source.
        source: PartyId = "source",
    }
    /// A vertex became live in the DAG (inserted with its full causal
    /// history present, possibly unblocking previously buffered ones).
    DagLive = "dag_live" {
        /// Vertex round.
        round: Round = "round",
        /// Vertex source.
        source: PartyId = "source",
        /// Vertices still buffered as pending after this insertion — the
        /// live occupancy of the causal-completeness buffer.
        pending: u64 = "pending",
    }
    /// A restarted party finished rebuilding from checkpoint + WAL and
    /// rejoined the protocol.
    RecoveryCompleted = "recovery_completed" {
        /// The round the node resumed at.
        round: Round = "round",
        /// WAL records replayed on top of the checkpoint.
        wal_records: u64 = "wal_records",
        /// Restored commit-sequence frontier (next sequence to emit).
        commit_seq: u64 = "commit_seq",
        /// Wall-clock rebuild duration in microseconds. Host time, not
        /// simulated time — the one nondeterministic field in the stream,
        /// which is why determinism pins compare commit traces, not bytes.
        duration_us: u64 = "duration_us",
    }
    /// An epoch boundary deterministically replaced dead clan members.
    EpochRotated = "epoch_rotated" {
        /// The epoch decided.
        epoch: u64 = "epoch",
        /// First round the rotated topology governs.
        from_round: Round = "from_round",
        /// How many clan seats changed hands.
        replaced: u64 = "replaced",
    }
    /// Straw-man: a proof of availability completed (`f_c+1` acks).
    PoaFormed = "poa_formed" {
        /// Owner-local block sequence number.
        seq: u64 = "seq",
    }
    /// Straw-man: a sequencing slot committed at this party.
    SlotCommitted = "slot_committed" {
        /// The slot.
        slot: u64 = "slot",
        /// Transactions sequenced in it.
        txs: u64 = "txs",
    }
}

/// An event stamped with simulated time and the observing party.
#[derive(Clone, Debug)]
pub struct Stamped {
    /// Simulated time of emission.
    pub at: Micros,
    /// The party that observed/emitted the event.
    pub party: PartyId,
    /// The event body.
    pub event: Event,
}

impl Stamped {
    /// Renders the event as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        let obj = JsonObj::new()
            .u64("at", self.at.0)
            .u64("party", u64::from(self.party.0))
            .str("ev", self.event.label());
        self.event.encode(obj).finish()
    }

    /// Rebuilds the event one parsed trace line carries.
    ///
    /// `Ok(None)` means the line is not an event this revision knows (no
    /// `ev` key, or a label from a newer revision) and can be skipped.
    /// `Err` means it claims a known label but a field is missing,
    /// ill-typed or out of range — corruption, which should be loud.
    pub fn from_fields(map: &Fields) -> Result<Option<Stamped>, String> {
        let Some(label) = map.get("ev").and_then(Value::as_str) else {
            return Ok(None);
        };
        let Some(event) = Event::decode(label, map)? else {
            return Ok(None);
        };
        Ok(Some(Stamped {
            at: field::<Micros, _>(map, "at")?,
            party: field::<PartyId, _>(map, "party")?,
            event,
        }))
    }
}

/// Run metadata: the `{"meta":"run",...}` line that leads an exported
/// trace and tells the inspect toolchain how to judge the events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Tribe size, if the trace declared it.
    pub n: Option<u64>,
    /// Seed, if declared.
    pub seed: Option<u64>,
    /// Clan count (0 = whole-tribe baseline).
    pub clans: u64,
    /// Last proposing round, if declared.
    pub max_round: Option<u64>,
    /// Configured attacks as `(party, attack-name)` pairs.
    pub attacks: Vec<(u32, String)>,
}

impl RunMeta {
    /// Renders the meta line (no trailing newline). Undeclared fields and
    /// an empty attack set are omitted.
    pub fn to_ndjson(&self) -> String {
        let mut obj = JsonObj::new().str("meta", "run");
        let numbers = [
            ("n", self.n),
            ("seed", self.seed),
            ("clans", Some(self.clans)),
            ("max_round", self.max_round),
        ];
        for (key, value) in numbers {
            if let Some(v) = value {
                obj = obj.u64(key, v);
            }
        }
        if !self.attacks.is_empty() {
            let attacks: Vec<String> = self
                .attacks
                .iter()
                .map(|(party, name)| format!("{party}:{name}"))
                .collect();
            obj = obj.str("attacks", &attacks.join(","));
        }
        obj.finish()
    }

    /// Reads a parsed meta line; absent or unreadable fields default.
    pub fn from_fields(map: &Fields) -> RunMeta {
        let number = |key: &str| map.get(key).and_then(Value::as_u64);
        let attacks = map.get("attacks").and_then(Value::as_str).unwrap_or("");
        RunMeta {
            n: number("n"),
            seed: number("seed"),
            clans: number("clans").unwrap_or(0),
            max_round: number("max_round"),
            attacks: attacks
                .split(',')
                .filter_map(|pair| {
                    let (party, name) = pair.split_once(':')?;
                    Some((party.parse::<u32>().ok()?, name.to_string()))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndjson::parse_line;

    #[test]
    fn ndjson_lines_are_stable() {
        let s = Stamped {
            at: Micros(1_234),
            party: PartyId(3),
            event: Event::VertexCommitted {
                round: Round(7),
                source: PartyId(2),
                leader: true,
                sequence: 11,
            },
        };
        assert_eq!(
            s.to_ndjson(),
            r#"{"at":1234,"party":3,"ev":"vertex_committed","round":7,"source":2,"leader":true,"seq":11}"#
        );
        let r = Stamped {
            at: Micros(9),
            party: PartyId(0),
            event: Event::Rbc {
                phase: RbcPhase::Certified,
                round: Round(1),
                source: PartyId(4),
            },
        };
        assert_eq!(
            r.to_ndjson(),
            r#"{"at":9,"party":0,"ev":"rbc","phase":"certified","round":1,"source":4}"#
        );
        let p = Stamped {
            at: Micros(77),
            party: PartyId(2),
            event: Event::VertexProposed {
                round: Round(3),
                tx_count: 9,
                digest: 0x0bad_cafe,
                strong: vec![PartyId(0), PartyId(1)],
                weak: 1,
            },
        };
        assert_eq!(
            p.to_ndjson(),
            r#"{"at":77,"party":2,"ev":"vertex_proposed","round":3,"txs":9,"digest":"000000000badcafe","strong":[0,1],"weak":1}"#
        );
    }

    fn decode(line: &str) -> Result<Option<Stamped>, String> {
        Stamped::from_fields(&parse_line(line).expect("well-formed JSON"))
    }

    #[test]
    fn decode_inverts_encode_and_keeps_unlisted_kinds() {
        let line =
            r#"{"at":5,"party":1,"ev":"msg_dropped","src":0,"dst":2,"kind":"poa.ack","bytes":96}"#;
        let back = decode(line).expect("decodes").expect("known label");
        assert!(matches!(
            back.event,
            Event::MsgDropped {
                kind: "poa.ack",
                bytes: 96,
                ..
            }
        ));
        assert_eq!(back.to_ndjson(), line);
        for phase in RbcPhase::ALL {
            assert_eq!(RbcPhase::from_label(phase.label()), Some(phase));
        }
    }

    #[test]
    fn unknown_labels_skip_and_corrupt_fields_error() {
        assert!(matches!(
            decode(r#"{"report":"mempool","admitted":3}"#),
            Ok(None)
        ));
        assert!(matches!(
            decode(r#"{"at":2,"party":0,"ev":"from_the_future","x":9}"#),
            Ok(None)
        ));
        for corrupt in [
            // Missing field, ill-typed field, unknown phase.
            r#"{"at":1,"party":0,"ev":"round_entered"}"#,
            r#"{"at":1,"party":0,"ev":"round_entered","round":"one"}"#,
            r#"{"at":1,"party":0,"ev":"rbc","phase":"levitated","round":1,"source":0}"#,
            // Party ids that do not fit a PartyId: rejected, not truncated.
            r#"{"at":1,"party":4294967296,"ev":"round_entered","round":1}"#,
            r#"{"at":1,"party":0,"ev":"leader_vote","round":1,"leader":4294967296}"#,
            r#"{"at":1,"party":0,"ev":"vertex_proposed","round":1,"txs":0,"digest":"00","strong":[4294967296],"weak":0}"#,
            // An over-long kind label is not interned.
            &format!(
                r#"{{"at":1,"party":0,"ev":"evidence","kind":"{}","round":1,"culprit":0}}"#,
                "k".repeat(MAX_LABEL_LEN + 1)
            ),
        ] {
            assert!(decode(corrupt).is_err(), "{corrupt} decoded");
        }
    }

    #[test]
    fn run_meta_round_trips() {
        let meta = RunMeta {
            n: Some(7),
            seed: Some(42),
            clans: 1,
            max_round: Some(8),
            attacks: vec![(3, "withhold".to_string()), (5, "equivocate".to_string())],
        };
        let line = meta.to_ndjson();
        assert_eq!(
            line,
            r#"{"meta":"run","n":7,"seed":42,"clans":1,"max_round":8,"attacks":"3:withhold,5:equivocate"}"#
        );
        assert_eq!(RunMeta::from_fields(&parse_line(&line).unwrap()), meta);
        // Optional fields are omitted when unset and default when absent.
        let bare = RunMeta::default();
        assert_eq!(bare.to_ndjson(), r#"{"meta":"run","clans":0}"#);
        assert_eq!(
            RunMeta::from_fields(&parse_line(&bare.to_ndjson()).unwrap()),
            bare
        );
    }
}
