//! Crash-restart recovery sweep (snapshot interval × fault scenario).
//!
//! Each snapshot interval runs the closed-loop simulator with durability
//! on (WAL + featherweight snapshots) three ways: `BASELINE` (no fault),
//! `CRASH-BACKUP` (a backup replica goes dark at 150 ms and restarts
//! 60 ms later, recovering via snapshot + WAL replay + peer state
//! transfer) and `CRASH-PRIMARY` (the view-zero primary crashes, so
//! recovery overlaps the view change that replaces it). The crashed
//! series must stay live — committed transactions keep flowing while one
//! replica is dark and after it rejoins — and the recovery columns
//! (`replay_batches`, `state_transfer_batches`, `recoveries`) prove the
//! recovery path actually executed rather than the run merely surviving
//! on the remaining quorum.
//!
//! CI runs this binary as a smoke test: it asserts every row commits,
//! every crashed row records exactly one recovery, the WAL/snapshot
//! counters are non-zero where durability makes them so, and no
//! `BASELINE` row records a view change (the `view_changes` column).

use sbft_bench::{recovery_points, run_point_silent};

fn main() {
    println!(
        "figure,series,x,throughput_tps,avg_latency_s,p99_s,committed,wal_appends,snapshot_bytes,replay_batches,state_transfer_batches,recoveries,view_changes"
    );
    let snapshot_intervals = [4u64, 32, 1_000];
    for point in recovery_points(&snapshot_intervals) {
        let result = run_point_silent(point);
        println!(
            "{},{},{:.0},{:.0},{:.6},{:.6},{},{},{},{},{},{},{}",
            result.figure,
            result.series,
            result.x,
            result.metrics.throughput_tps(),
            result.metrics.avg_latency_secs(),
            result.metrics.latency.p99_secs(),
            result.metrics.committed_txns,
            result.metrics.wal_appends,
            result.metrics.snapshot_bytes,
            result.metrics.replay_batches,
            result.metrics.state_transfer_batches,
            result.metrics.recoveries,
            result.metrics.view_changes,
        );
    }
}
