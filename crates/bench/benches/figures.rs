//! The paper's evaluation, one target:
//!
//! ```text
//! cargo bench -p clanbft-bench --bench figures -- [section] [--full] [--check] [--profile PATH]
//!
//!   section   fig1 | table1 | fig5 [a|b|c|d] | fig6 | sec62 | ablations | all   (default: all)
//!   --full          the paper's full load grid at 14 rounds (hours) instead of
//!                   the reduced grid at 8 (minutes)
//!   --check         write nothing; exit 1 unless every simulated column of the
//!                   section's points equals the committed line's
//!   --profile PATH  profile the run: scope tree as NDJSON at PATH (input of
//!                   `clanbft-inspect profile`), collapsed stacks at PATH.collapsed
//! ```
//!
//! Every simulated data point (fig5, fig6, the bandwidth ablation) is one
//! result line (`clanbft_bench::result_line`). Each run compares its lines with
//! the committed ones and says `simulated: identical` or which columns
//! moved; `all` then truncate-writes `crates/bench/BENCH_fig5.json` (every
//! point of the sweep) and `BENCH_summary.json` at the repository root (per
//! fig5 section and protocol, the best-throughput point's line). The
//! committed files are the reduced grid's: that is what CI checks against.
//! The other sections recompute or re-measure a table and print it.

use clanbft_bench::strawman::{StrawmanConfig, StrawmanNode};
use clanbft_bench::{judge, moved_columns, result_line, run_durable};
use clanbft_committee::hypergeom::{strict_dishonest_majority_prob, Tail};
use clanbft_committee::multiclan::{even_clan_sizes, partition_dishonest_prob};
use clanbft_committee::sizing::{clan_size_series, min_clan_size_tail};
use clanbft_crypto::{Authenticator, Registry, Scheme};
use clanbft_profiler as prof;
use clanbft_rbc::standalone::{AnyNode, StandaloneNode};
use clanbft_rbc::{BytesPayload, ClanTopology, EngineConfig};
use clanbft_sim::{
    build_tribe, collect_metrics, tribe::elect_clan, ExperimentSpec, Proto, RunMetrics, TribeSpec,
};
use clanbft_simnet::bandwidth::BandwidthModel;
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::net::{SimConfig, Simulator};
use clanbft_simnet::protocol::{Ctx, Message, Protocol};
use clanbft_simnet::regions::{LatencyMatrix, RTT_MS};
use clanbft_types::{Micros, PartyId, Round, TribeParams};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str =
    "usage: figures [fig1 | table1 | fig5 [a|b|c|d] | fig6 | sec62 | ablations | all] \
                     [--full] [--check] [--profile PATH]";

const POINTS_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fig5.json");
const SUMMARY_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_summary.json");

/// One measured data point: the repetition with the median wall time, and
/// the point as its result line.
struct Point {
    metrics: RunMetrics,
    line: String,
}

/// The simulated points of a run: every line, and the headline lines.
struct Sweep {
    full: bool,
    points: Vec<String>,
    headlines: Vec<String>,
}

impl Sweep {
    /// A figure data point's experiment: 8 rounds (14 in the full grid)
    /// with bench-standard warm-up and cool-down.
    fn spec(&self, proto: &Proto, n: usize, txs: u32) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(proto.clone(), n, txs);
        spec.rounds = if self.full { 14 } else { 8 };
        spec.warmup_rounds = 2;
        spec.cooldown_rounds = 2;
        spec
    }

    /// Measures one in-memory point: three repetitions at n = 50, one from
    /// n = 100 on, where a point costs most of a minute.
    fn point(&mut self, figure: &str, proto: &Proto, n: usize, txs: u32) -> Point {
        let spec = self.spec(proto, n, txs);
        let reps = if n <= 50 { 3 } else { 1 };
        self.measure((figure, &proto.label(), n, txs), reps, || spec.run())
    }

    /// Runs a point `reps` times, keeps the repetition with the median wall
    /// time, prints its row and records its line.
    ///
    /// # Panics
    ///
    /// Panics if two repetitions differ in a simulated column: the seed is
    /// the same, so the run is then not deterministic.
    fn measure(
        &mut self,
        at: (&str, &str, usize, u32),
        reps: usize,
        mut run: impl FnMut() -> RunMetrics,
    ) -> Point {
        let mut runs: Vec<RunMetrics> = (0..reps).map(|_| run()).collect();
        runs.sort_by_key(|m| m.wall_us);
        let spread = (reps, runs[0].wall_us, runs[reps - 1].wall_us);
        let mut lines: Vec<String> = runs.iter().map(|m| result_line(at, m, spread)).collect();
        for other in &lines[1..] {
            let moved = moved_columns(&lines[0], other);
            assert!(
                moved.is_empty(),
                "{at:?}: same-seed repetitions disagree: {moved:?}"
            );
        }
        let median = (reps - 1) / 2;
        let (metrics, line) = (runs.swap_remove(median), lines.swap_remove(median));
        println!(
            "{:<34} txs/proposal={:<5} throughput={:>8.1} kTPS   latency={:>8.1} ms   (p99 {:>8.1} ms, {} txs)",
            at.1,
            at.3,
            metrics.throughput_tps / 1e3,
            metrics.avg_latency.as_millis_f64(),
            metrics.p99_latency.as_millis_f64(),
            metrics.committed_txs
        );
        self.points.push(line.clone());
        Point { metrics, line }
    }
}

// --- Figure 1 ---------------------------------------------------------------

/// Clan sizes required for an honest majority with failure probability
/// below 1e-9, for tribe sizes 100..1000, under both tail conventions (the
/// paper's concrete numbers follow the strict-majority tail; Eq. 1 as
/// printed is one or two members more conservative at even sizes).
fn fig1() {
    let ns: Vec<u64> = (1..=10).map(|k| k * 100).collect();
    let threshold = 1e-9;
    println!("=== Figure 1: minimal clan size, failure probability < 1e-9 ===\n");
    println!(
        "{:>6} {:>6} {:>22} {:>22}",
        "n", "f", "clan (strict tail)", "clan (Eq.1 printed)"
    );
    let strict = clan_size_series(&ns, threshold, Tail::StrictDishonestMajority);
    let printed = clan_size_series(&ns, threshold, Tail::NoHonestMajority);
    for (s, p) in strict.iter().zip(&printed) {
        println!(
            "{:>6} {:>6} {:>14} ({:.2e}) {:>14} ({:.2e})",
            s.n, s.f, s.clan_size, s.prob, p.clan_size, p.prob
        );
    }
    println!(
        "\npaper anchor: n=500 → clan 184 (§1); our strict-tail minimum at n=500 is {}\n",
        strict
            .iter()
            .find(|r| r.n == 500)
            .expect("n=500 in series")
            .clan_size
    );
}

// --- Table 1 ----------------------------------------------------------------

#[derive(Clone, Debug)]
enum PingMsg {
    Ping,
    Pong,
}

impl Message for PingMsg {
    fn wire_bytes(&self) -> usize {
        64 // ICMP-ish probe
    }
}

struct PingNode {
    target: Option<PartyId>,
    sent_at: Micros,
    rtt: Option<Micros>,
}

impl Protocol<PingMsg> for PingNode {
    fn on_start(&mut self, ctx: &mut Ctx<PingMsg>) {
        if let Some(t) = self.target {
            self.sent_at = ctx.now();
            ctx.send(t, PingMsg::Ping);
        }
    }
    fn on_message(&mut self, from: PartyId, msg: PingMsg, ctx: &mut Ctx<PingMsg>) {
        match msg {
            PingMsg::Ping => ctx.send(from, PingMsg::Pong),
            PingMsg::Pong => self.rtt = Some(ctx.now() - self.sent_at),
        }
    }
    fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<PingMsg>) {}
}

/// The RTT from node `a` to node `b` of a 5-node tribe, one node per
/// region, over the simulator (uplink and CPU queues included).
fn ping(a: u32, b: u32) -> f64 {
    let mut cfg = SimConfig::benign(5, 1);
    cfg.latency = LatencyMatrix::evenly_distributed(5); // node i in region i
    cfg.cost = CostModel::free();
    cfg.jitter_frac = 0.0;
    let nodes: Vec<PingNode> = (0..5)
        .map(|i| PingNode {
            target: (i == a).then_some(PartyId(b)),
            sent_at: Micros::ZERO,
            rtt: None,
        })
        .collect();
    let mut sim = Simulator::new(cfg, nodes);
    sim.run_until(Micros::from_secs(5));
    let rtt = sim.node(PartyId(a)).rtt;
    rtt.map_or(f64::NAN, |r| r.as_millis_f64())
}

/// Ping latencies between the five GCP regions. The paper measured them;
/// the simulator takes them as input, so this validates the substrate end
/// to end: a real ping-pong per region pair, next to the paper's value.
fn table1() {
    let names = ["us-e-1", "us-w-1", "eu-n-1", "as-ne-1", "au-se-1"];
    println!("=== Table 1: ping latencies between GCP regions (ms) ===\n");
    println!(
        "{:<10} {}",
        "src\\dst",
        names.map(|n| format!("{n:>18}")).join("")
    );
    for (i, src) in names.iter().enumerate() {
        let mut row = format!("{src:<10}");
        for (j, &paper) in RTT_MS[i].iter().enumerate() {
            // The diagonal (two nodes of one region, sub-millisecond) is
            // taken from the matrix: the 5-node layout has one per region.
            let measured = if i == j {
                paper
            } else {
                ping(i as u32, j as u32)
            };
            row.push_str(&format!("{measured:>8.2} ({paper:>6.2})"));
        }
        println!("{row}");
    }
    println!("\nformat: measured-in-simulator (paper Table 1). Diagonal taken from the matrix.\n");
}

// --- Figure 5 ---------------------------------------------------------------

/// The paper's full load grid (transactions per proposal).
const PAPER_LOADS: [u32; 13] = [
    1, 32, 63, 125, 250, 500, 1000, 1500, 2000, 3000, 4000, 5000, 6000,
];

/// Throughput vs. latency at n = 50, 100, 150 (sections a, b, c): per
/// protocol a sweep over the load, with the paper's clan sizes (32/60/80 at
/// failure probability 1e-6) and two clans at n = 150. Section d is the
/// durability tax: one single-clan point with every node on a real WAL +
/// checkpoint directory (fsyncs on), reporting the fsync-latency
/// distribution and WAL bytes per commit the memory-only sections do not
/// pay. One modest point: fsync latency is a host property, not an axis.
fn fig5(sweep: &mut Sweep, only: Option<&str>) {
    println!("=== Figure 5: throughput vs latency ===\n");
    let single = |clan_size| Proto::SingleClan { clan_size };
    let sections = [
        ("5a", 50, vec![Proto::Sailfish, single(32)]),
        ("5b", 100, vec![Proto::Sailfish, single(60)]),
        (
            "5c",
            150,
            vec![Proto::Sailfish, single(80), Proto::MultiClan { clans: 2 }],
        ),
    ];
    for (figure, n, protos) in sections {
        if only.is_some_and(|s| !figure.ends_with(s)) {
            continue;
        }
        println!("--- Figure {figure}: n = {n} ---");
        let loads: &[u32] = match (sweep.full, n) {
            (true, _) => &PAPER_LOADS,
            // Three loads span the pre-saturation, knee and post-saturation
            // regimes where a point costs most of a minute.
            (false, 150) => &[125, 1500, 4000],
            (false, _) => &[125, 500, 1500, 4000],
        };
        for proto in &protos {
            let mut best: Option<Point> = None;
            for &txs in loads {
                let p = sweep.point(figure, proto, n, txs);
                // Past saturation Sailfish latency explodes; the paper stops
                // pushing when latency passes a few seconds. Mirror that to
                // keep runs bounded: skip the loads after one above 8 s.
                let saturated = p.metrics.avg_latency.as_secs_f64() > 8.0;
                if best.as_ref().map_or(true, |b| {
                    p.metrics.throughput_tps > b.metrics.throughput_tps
                }) {
                    best = Some(p);
                }
                if saturated {
                    println!("{:<34} (saturated; remaining loads skipped)", proto.label());
                    break;
                }
            }
            sweep.headlines.extend(best.map(|p| p.line));
            println!();
        }
    }
    if only.map_or(true, |s| s == "d") {
        println!("--- Figure 5d: durability cost (n = 50, WAL + fsync per node) ---");
        let spec = sweep.spec(&single(32), 50, 500);
        let run = || run_durable(spec.clone()).0;
        let p = sweep.measure(("5d", &spec.proto.label(), 50, 500), 3, run);
        println!(
            "{:<34} wal fsync p50={}us p99={}us   wal bytes/commit={}\n",
            spec.proto.label(),
            p.metrics.wal_fsync_p50_us,
            p.metrics.wal_fsync_p99_us,
            p.metrics.wal_bytes_per_commit
        );
        sweep.headlines.push(p.line);
    }
}

// --- Figure 6 ---------------------------------------------------------------

/// Throughput vs. transactions per proposal at n = 150 for Sailfish,
/// single-clan (clan 80) and multi-clan (two clans of 75). The paper's bar
/// chart omits Sailfish's 1500 point because its latency already exploded
/// at 1000; here it is printed anyway, annotated.
fn fig6(sweep: &mut Sweep) {
    let n = 150;
    let loads: &[u32] = if sweep.full {
        &[250, 500, 1000, 1500]
    } else {
        &[250, 1000]
    };
    println!("=== Figure 6: throughput vs txs/proposal at n = {n} ===\n");
    for proto in [
        Proto::Sailfish,
        Proto::SingleClan { clan_size: 80 },
        Proto::MultiClan { clans: 2 },
    ] {
        for &txs in loads {
            let p = sweep.point("6", &proto, n, txs);
            if p.metrics.avg_latency.as_secs_f64() > 4.0 {
                println!("{:<34} [saturated]", "");
            }
        }
        println!();
    }
    println!("paper shape: multi-clan ≈ 2× single-clan throughput at every load;");
    println!("Sailfish saturates by ~1000 txs/proposal while the clan protocols keep scaling.\n");
}

// --- §6.2 -------------------------------------------------------------------

/// Exact multi-clan dishonest-majority probabilities. The paper reports
/// n = 150 in two clans ≈ 4.015e-6 and n = 387 in three ≈ 1.11e-6; this
/// recomputes both with exact big-integer arithmetic, prints the evaluation
/// clan sizes (32/60/80 at 1e-6) and the single-vs-multi comparison the
/// paper's analysis of Arete turns on.
fn sec62() {
    println!("=== §6.2: multi-clan failure probabilities (exact) ===\n");
    for (n, q, paper) in [(150u64, 2u64, 4.015e-6), (387, 3, 1.11e-6)] {
        let f = (n - 1) / 3;
        let sizes = even_clan_sizes(n, q);
        let p = partition_dishonest_prob(n, f, &sizes);
        println!(
            "n={n:<4} q={q} sizes={sizes:?}: Pr[some clan dishonest-majority] = {p:.4e}  (paper: {paper:.3e})"
        );
    }

    println!("\n=== §7 evaluation clan sizes (failure budget 1e-6) ===\n");
    for (n, paper_nc) in [(50u64, 32u64), (100, 60), (150, 80)] {
        let f = (n - 1) / 3;
        let ours = min_clan_size_tail(n, f, 1e-6, Tail::StrictDishonestMajority).expect("solvable");
        let p_paper = strict_dishonest_majority_prob(n, f, paper_nc);
        println!(
            "n={n:<4}: paper clan {paper_nc} (prob {p_paper:.3e}); our minimal clan {ours} (prob {:.3e})",
            strict_dishonest_majority_prob(n, f, ours)
        );
    }

    println!("\n=== Arete comparison: why naive per-clan hypergeometrics mislead ===\n");
    // Applying Eq. 1 independently per clan (Arete's approach, per the
    // paper) underestimates the joint failure probability because the
    // Byzantine parties left for later clans depend on earlier draws.
    let (n, q) = (150u64, 2u64);
    let f = (n - 1) / 3;
    let naive_single = strict_dishonest_majority_prob(n, f, n / q);
    let naive_union = 1.0 - (1.0 - naive_single).powi(q as i32);
    let exact = partition_dishonest_prob(n, f, &even_clan_sizes(n, q));
    println!(
        "n={n} q={q}: naive independent-draw union bound {naive_union:.4e} vs exact {exact:.4e}\n"
    );
}

// --- Ablations --------------------------------------------------------------

/// Ablation 1, 2-round vs 3-round tribe-assisted RBC (paper §3 vs §4):
/// good-case certification latency of each construction on a 20-node tribe
/// with an 8-member clan.
fn rbc_round_ablation() {
    println!("--- ablation 1: 2-round vs 3-round tribe-assisted RBC ---");
    let n = 20usize;
    let clan: Vec<PartyId> = (0..8u32).map(|i| PartyId(2 * i)).collect();
    for two_round in [false, true] {
        let topology = Arc::new(ClanTopology::single_clan(TribeParams::new(n), clan.clone()));
        let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 3);
        let payload = BytesPayload::new(vec![7u8; 512 * 1024]);
        let nodes: Vec<AnyNode<BytesPayload>> = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| {
                let me = PartyId(i as u32);
                let auth = Arc::new(Authenticator::new(i, kp, Arc::clone(&registry)));
                let cfg = EngineConfig::new(me, Arc::clone(&topology), CostModel::default());
                let mut node = if two_round {
                    StandaloneNode::two(cfg, auth)
                } else {
                    StandaloneNode::three(cfg)
                };
                if i == 0 {
                    node = node.with_broadcast(Round(0), payload.clone());
                }
                AnyNode::Honest(node)
            })
            .collect();
        let mut sim = Simulator::new(SimConfig::benign(n, 5), nodes);
        sim.run_until(Micros::from_secs(10));
        let worst = (0..n as u32)
            .filter_map(|i| match sim.node(PartyId(i)) {
                AnyNode::Honest(h) => h.certified.first().map(|c| c.2),
                AnyNode::Byzantine(_) => None,
            })
            .max()
            .expect("certified everywhere");
        println!(
            "  {}: last party certified at {worst}",
            if two_round {
                "2-round (Fig. 3)"
            } else {
                "3-round (Fig. 2)"
            }
        );
    }
    println!();
}

/// Ablation 2, the fan-out bandwidth penalty on/off. Under a flat-bandwidth
/// model the clan protocols lose their saturation advantage (the n_c/n
/// cancellation DESIGN.md substitution 2 describes); this makes the
/// modelling assumption visible instead of baked-in. n = 50 at the full
/// 6000-tx load: Sailfish's fan-out (49) sits inside the penalty region
/// while the clan's (31) barely does.
fn bandwidth_model_ablation(sweep: &mut Sweep) {
    println!("--- ablation 2: fan-out bandwidth penalty on/off (n = 50, 6000 tx/prop) ---");
    for (figure, name, bandwidth) in [
        (
            "ablation-fanout",
            "fan-out penalty (default)",
            BandwidthModel::default(),
        ),
        (
            "ablation-flat",
            "flat 100 MB/s",
            BandwidthModel::flat(100.0e6),
        ),
    ] {
        println!("  {name}:");
        for (proto, clans) in [
            (Proto::Sailfish, None),
            (
                Proto::SingleClan { clan_size: 32 },
                Some(vec![elect_clan(50, 32, 2)]),
            ),
        ] {
            let mut spec = TribeSpec::new(50);
            spec.clans = clans;
            spec.txs_per_proposal = 6000;
            spec.max_round = Some(10);
            spec.bandwidth = bandwidth;
            let run = || {
                let mut built = build_tribe(&spec);
                let start = std::time::Instant::now();
                built.sim.run_until(Micros::from_secs(3_000));
                let wall = start.elapsed();
                let mut m = collect_metrics(&built.sim, &built.honest, 2, 8);
                m.attach_host_costs(wall, built.sim.stats().last_event_at);
                m
            };
            sweep.measure((figure, &proto.label(), 50, 6000), 3, run);
        }
    }
    println!("  (under flat bandwidth the clan advantage at saturation collapses — the\n   fan-out penalty is what the paper's measured gap implies; see DESIGN.md)\n");
}

/// Ablation 3b: the measured straw-man pipeline vs. pipelined single-clan
/// Sailfish at light load on the same 10-node tribe (clan of 5).
fn strawman_measured_ablation() {
    println!("--- ablation 3b: measured straw-man vs pipelined single-clan (n = 10) ---");
    let n = 10usize;
    let clan: Vec<PartyId> = [0, 2, 4, 6, 8].map(PartyId).to_vec();

    let topology = Arc::new(ClanTopology::single_clan(TribeParams::new(n), clan.clone()));
    let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 13);
    let nodes: Vec<StrawmanNode> = keypairs
        .into_iter()
        .enumerate()
        .map(|(i, kp)| {
            let me = PartyId(i as u32);
            let auth = Arc::new(Authenticator::new(i, kp, Arc::clone(&registry)));
            StrawmanNode::new(
                StrawmanConfig {
                    me,
                    topology: Arc::clone(&topology),
                    slot_interval: Micros::from_millis(300),
                    max_slots: 20,
                    txs_per_block: if topology.receives_full(me, me) {
                        50
                    } else {
                        0
                    },
                    tx_bytes: 512,
                },
                auth,
            )
        })
        .collect();
    let mut sim = Simulator::new(SimConfig::benign(n, 13), nodes);
    sim.run_until(Micros::from_secs(30));
    let node = sim.node(PartyId(1));
    let strawman_avg = node
        .committed
        .iter()
        .map(|c| c.committed_at.saturating_sub(c.created_at).as_secs_f64())
        .sum::<f64>()
        / node.committed.len().max(1) as f64;

    // Single-clan Sailfish run, same tribe and load.
    let mut spec = TribeSpec::new(n);
    spec.clans = Some(vec![clan]);
    spec.txs_per_proposal = 50;
    spec.max_round = Some(12);
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(60));
    let m = collect_metrics(&built.sim, &built.honest, 2, 10);
    println!(
        "  straw-man PoA pipeline:     avg latency {:.0} ms",
        strawman_avg * 1e3
    );
    println!(
        "  single-clan Sailfish:       avg latency {:.0} ms",
        m.avg_latency.as_millis_f64()
    );
    println!("  (the pipelined design folds dissemination into consensus — paper §1)\n");
}

/// Ablation 3: the §1 straw-man latency arithmetic — disseminate → certify
/// (2δ) → queue (δ) → consensus commit (3δ) ≈ 6δ against the pipelined
/// single-clan commit at 3δ — on the simulated network's own δ.
fn strawman_latency_ablation() {
    println!("--- ablation 3: straw-man PoA pipeline vs pipelined clan dissemination ---");
    // Average one-way delay δ across region pairs (the network's effective δ).
    let lat = LatencyMatrix::evenly_distributed(10);
    let mut sum = 0.0;
    for a in 0..10u32 {
        for b in (0..10u32).filter(|&b| b != a) {
            sum += lat.one_way(PartyId(a), PartyId(b)).as_millis_f64();
        }
    }
    let delta = sum / 90.0;
    println!("  mean one-way δ over Table 1 placement: {delta:.1} ms");
    println!(
        "  straw-man (separate PoA layer): 2δ (PoA) + 1δ (queueing) + 3δ (commit) = {:.0} ms",
        6.0 * delta
    );
    println!(
        "  pipelined single-clan Sailfish:                         1 RBC + 1δ = {:.0} ms",
        3.0 * delta
    );
    println!(
        "  Arete-style (PoA + Jolteon 5δ):                                 8δ = {:.0} ms\n",
        8.0 * delta
    );
}

/// The design choices DESIGN.md calls out, each switched off or priced.
fn ablations(sweep: &mut Sweep) {
    println!("=== Ablations ===\n");
    rbc_round_ablation();
    bandwidth_model_ablation(sweep);
    strawman_measured_ablation();
    strawman_latency_ablation();
}

// --- The runner -------------------------------------------------------------

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let (mut check, mut profile) = (false, None);
    let mut sweep = Sweep {
        full: false,
        points: Vec::new(),
        headlines: Vec::new(),
    };
    let mut section = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => {} // cargo's own, handed to every bench target
            "--full" => sweep.full = true,
            "--check" => check = true,
            "--profile" => profile = Some(args.next().unwrap_or_else(|| usage())),
            flag if flag.starts_with('-') => usage(),
            _ => section.push(arg),
        }
    }
    if profile.is_some() {
        prof::reset();
        prof::enable();
    }
    let section: Vec<&str> = section.iter().map(String::as_str).collect();
    match section[..] {
        ["fig1"] => fig1(),
        ["table1"] => table1(),
        ["fig5"] => fig5(&mut sweep, None),
        ["fig5", sub @ ("a" | "b" | "c" | "d")] => fig5(&mut sweep, Some(sub)),
        ["fig6"] => fig6(&mut sweep),
        ["sec62"] => sec62(),
        ["ablations"] => ablations(&mut sweep),
        [] | ["all"] => {
            fig1();
            table1();
            fig5(&mut sweep, None);
            fig6(&mut sweep);
            sec62();
            ablations(&mut sweep);
        }
        _ => usage(),
    }
    if let Some(path) = &profile {
        let report = prof::take_report();
        prof::disable();
        let write = |path: &str, text: String| {
            let dir = std::path::Path::new(path).parent();
            dir.map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, text))
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        };
        write(path, report.to_ndjson(&section.join(" ")));
        write(&format!("{path}.collapsed"), report.to_collapsed());
        println!(
            "profile: {} scopes -> {path} (+ .collapsed)",
            report.scopes.len()
        );
    }

    // Say what moved against the committed lines; rewrite them only from a
    // whole, unprofiled sweep.
    let mut identical = true;
    let rewrite = matches!(section[..], [] | ["all"]) && !check && profile.is_none();
    for (file, lines, identity) in [
        (
            POINTS_FILE,
            &sweep.points,
            &["figure", "proto", "txs_per_proposal"][..],
        ),
        (SUMMARY_FILE, &sweep.headlines, &["figure", "proto"][..]),
    ] {
        if lines.is_empty() {
            continue;
        }
        let committed = std::fs::read_to_string(file).unwrap_or_default();
        let (report, ok) = judge(&committed, lines, identity);
        println!("--- against {file} ---\n{report}");
        identical &= ok;
        if rewrite {
            let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(file, text).unwrap_or_else(|e| panic!("writing {file}: {e}"));
            println!("wrote {} lines -> {file}\n", lines.len());
        }
    }
    if check && !identical {
        eprintln!("figures --check: a simulated column differs from the committed line");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
