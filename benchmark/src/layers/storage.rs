//! `storage`: WAL append (with and without fsync), checkpoint install and
//! replay, in a scratch directory, on 784-byte records — what the repo's
//! durability bench point (`BENCH_summary.json`, figure 5d) writes to the
//! WAL per committed vertex.

use super::types::vertex;
use super::{Env, Out};
use crate::stats::{highest_supported_quantile, median};
use clanbft_storage::{Checkpoint, NodeStorage, Wal};
use clanbft_telemetry::Telemetry;
use clanbft_types::{Round, VertexRef};
use std::time::Instant;

const RECORD_BYTES: usize = 784;

pub fn run(env: &Env<'_>, out: &mut Out) {
    let dir = env.tmp.join("storage-driver");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir must be creatable");
    let record = vec![0x7e_u8; RECORD_BYTES];

    // fsync'd appends: one latency sample each. 1 000 samples support a
    // p99 (ten samples beyond it); a quick run reports the highest
    // percentile its smaller sample supports under the same name.
    let (mut wal, _) = Wal::open(&dir.join("sync.log"), true, Telemetry::null()).expect("open wal");
    let mut lat: Vec<f64> = (0..env.iters(1_000))
        .map(|_| {
            let t = Instant::now();
            wal.append(&record).expect("append");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    let tail = highest_supported_quantile(lat.len() as u64)
        .unwrap_or(0.5)
        .min(0.99);
    out.insert("storage.append_fsync_us_p50", median(&lat));
    out.insert(
        "storage.append_fsync_us_p99",
        lat[((lat.len() as f64 * tail).ceil() as usize).clamp(1, lat.len()) - 1],
    );

    let appends = env.iters(10_000);
    let path = dir.join("nosync.log");
    let (mut wal, _) = Wal::open(&path, false, Telemetry::null()).expect("open wal");
    let t = Instant::now();
    for _ in 0..appends {
        wal.append(&record).expect("append");
    }
    out.insert(
        "storage.append_nosync_ns",
        t.elapsed().as_nanos() as f64 / appends as f64,
    );
    drop(wal);

    // Replay of what was just written (from the page cache: this times
    // framing, CRC and copying, not the device).
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let (_, replay) = Wal::open(&path, false, Telemetry::null()).expect("reopen wal");
            assert_eq!(
                replay.records.len(),
                appends,
                "storage driver: replay is complete"
            );
            t.elapsed().as_secs_f64() * 1e3 * 10_000.0 / appends as f64
        })
        .collect();
    out.insert("storage.replay_ms_per_10k", median(&samples));

    // Checkpoint of a 16-party, 8-round live window (the durable
    // workload's checkpoint interval), fsync'd and atomically renamed.
    let (mut node, _) =
        NodeStorage::open(&dir.join("node"), true, Telemetry::null()).expect("open node storage");
    let vertices: Vec<_> = (1..=8u64)
        .flat_map(|r| (0..16).map(move |s| vertex(r, s, 16)))
        .collect();
    let cp = Checkpoint {
        current_round: Round(9),
        last_committed: Some(Round(8)),
        commit_seq: 128,
        ordered: vertices
            .iter()
            .map(|v| v.reference())
            .collect::<Vec<VertexRef>>(),
        vertices,
        committed_round_by: vec![9; 16],
        ..Checkpoint::default()
    };
    let samples: Vec<f64> = (0..env.iters(30).max(3))
        .map(|_| {
            let t = Instant::now();
            node.install_checkpoint(&cp).expect("install checkpoint");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.insert("storage.checkpoint_write_us", median(&samples));

    drop(node);
    let _ = std::fs::remove_dir_all(&dir);
}
