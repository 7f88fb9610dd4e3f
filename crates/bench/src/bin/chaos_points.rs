//! Composed-chaos sweep (message loss × partition window × crash count).
//!
//! Every point runs the closed-loop simulator under one composed
//! `FaultPlan`: lossy/duplicating/delaying links and a directed partition
//! window around backup node 3, a disk-lag straggler at node 1, and up to
//! two staggered backup crash-restarts — all deterministic from the run
//! seed. The sweep is aimed at the backup side so the primary and a
//! quorum survive: every row must keep committing with zero divergent
//! state while the `faults.*` counters prove each configured fault family
//! actually fired and the recovery counters prove every scheduled crash
//! came back.
//!
//! CI runs this binary as a smoke test over the full grid and asserts
//! liveness (committed > 0), safety (divergent = 0), drops on every lossy
//! row, partition drops on every `P1` row, one recovery per scheduled
//! crash, and no view change on any `P0-C0` row (the `view_changes`
//! column): message loss alone must not make the backups suspect the
//! primary.

use sbft_bench::{chaos_points, run_point_silent};

fn main() {
    println!(
        "figure,series,x,committed,divergent,dropped,duplicated,delayed,partition_drops,fsync_lags,recoveries,bad_state_responses,state_request_retries,catch_ups,view_changes"
    );
    let loss_rates = [0.0, 0.10, 0.20];
    let partition_windows = [false, true];
    let crash_counts = [0usize, 1, 2];
    for point in chaos_points(&loss_rates, &partition_windows, &crash_counts) {
        let result = run_point_silent(point);
        let m = &result.metrics;
        println!(
            "{},{},{:.0},{},{},{},{},{},{},{},{},{},{},{},{}",
            result.figure,
            result.series,
            result.x,
            m.committed_txns,
            m.divergent_aborts,
            m.messages_dropped,
            m.messages_duplicated,
            m.messages_delayed,
            m.partition_drops,
            m.fsync_lags,
            m.recoveries,
            m.bad_state_responses,
            m.state_request_retries,
            m.catch_ups,
            m.view_changes,
        );
    }
}
