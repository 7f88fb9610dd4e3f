//! Run metrics: throughput, latency, aborts, traffic and cost.

use sbft_serverless::{CostModel, CostReport};
use sbft_telemetry::Histogram;
use sbft_types::{SimDuration, SimTime};

/// Latency statistics over the measured (post-warm-up) window.
///
/// A façade over the telemetry [`Histogram`]: recording is
/// allocation-free and percentile queries walk the fixed bucket table
/// (quantisation error ≤ 1/64) instead of cloning and sorting the sample
/// vector on every call. `Clone` shares the underlying histogram.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    histogram: Histogram,
}

impl LatencyStats {
    /// Records one client-observed latency.
    pub fn record(&mut self, latency: SimDuration) {
        self.histogram.record(latency.as_micros());
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.histogram.count() as usize
    }

    /// Average latency in seconds (0 when empty). Exact — the histogram
    /// keeps the true sum, not bucket representatives.
    #[must_use]
    pub fn avg_secs(&self) -> f64 {
        self.histogram.mean_us() / 1_000_000.0
    }

    /// The given percentile (0.0–1.0) in seconds, quantised to the
    /// histogram bucket's upper bound (≤ 1/64 above the true order
    /// statistic, never below).
    #[must_use]
    pub fn percentile_secs(&self, p: f64) -> f64 {
        self.histogram.percentile_us(p) as f64 / 1_000_000.0
    }

    /// The underlying shared histogram (for registry registration).
    #[must_use]
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Median latency in seconds.
    #[must_use]
    pub fn p50_secs(&self) -> f64 {
        self.percentile_secs(0.5)
    }

    /// 99th-percentile latency in seconds.
    #[must_use]
    pub fn p99_secs(&self) -> f64 {
        self.percentile_secs(0.99)
    }
}

/// Everything measured during one simulated run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Transactions committed inside the measurement window.
    pub committed_txns: u64,
    /// Transactions aborted inside the measurement window.
    pub aborted_txns: u64,
    /// Whole batches the verifier aborted because the executors' result
    /// digests diverged with no `f_E + 1` match — both the count-triggered
    /// form (every spawned executor answered) and the timer-triggered form
    /// (at least `2f_E + 1` answered before the abort timeout) of the
    /// Section VI-B divergence rule. Counted over the whole run, not just
    /// the measured window.
    pub divergent_aborts: u64,
    /// Batches the verifier validated over the whole run (commit or
    /// whole-batch abort).
    pub validated_batches: u64,
    /// Validated batches whose entire footprint lived on one shard — the
    /// complement is the cross-shard coordination rate the ordering-time
    /// planner drives down. Counted over the whole run.
    pub single_home_batches: u64,
    /// Batches applied through the verified ordering-time fast path
    /// (`SingleHome` tag that survived re-derivation).
    pub planned_batches: u64,
    /// `SingleHome` tags that failed re-derivation (byzantine primary or
    /// mis-declared read-write sets) and fell back to unplanned routing.
    pub plan_mismatches: u64,
    /// Executors placed by pinning (plan-aware placement against a
    /// geo-partitioned store), summed over the shim nodes.
    pub pinned_spawns: u64,
    /// Batches whose pin was refused (home region faulted, unavailable
    /// or over capacity) and that fell back to the round-robin rotation.
    pub placement_fallbacks: u64,
    /// Executor storage fetches served by the executor's own region's
    /// partition (geo-partitioned runs only).
    pub local_storage_fetches: u64,
    /// Executor storage fetches that crossed regions and paid the
    /// inter-region round trip (geo-partitioned runs only).
    pub remote_storage_fetches: u64,
    /// Client-observed latencies.
    pub latency: LatencyStats,
    /// Length of the measurement window.
    pub measured_duration: SimDuration,
    /// Total messages delivered (all kinds).
    pub messages_delivered: u64,
    /// Total bytes moved over the network.
    pub bytes_delivered: u64,
    /// Bytes sent node-to-node by whichever node was acting as primary at
    /// send time (charged sender-side, before fault-plan loss). This is
    /// the ordering-bandwidth bottleneck id-only proposals shrink.
    pub leader_egress_bytes: u64,
    /// Proposal transaction bodies found locally (body cache or log),
    /// summed over the shim nodes.
    pub body_cache_hits: u64,
    /// Proposal transaction bodies missing from the local cache.
    pub body_cache_misses: u64,
    /// `BATCHFETCH` requests sent to recover missing bodies.
    pub batch_fetches: u64,
    /// Executors spawned during the whole run.
    pub executors_spawned: u64,
    /// Spawn requests rejected by the cloud's concurrency limit.
    pub spawns_rejected: u64,
    /// Total executor busy time (for the Lambda bill).
    pub executor_busy: SimDuration,
    /// View changes observed: the most views any one shim node installed
    /// after the initial one (one primary replacement reads 1).
    pub view_changes: u64,
    /// Records appended to the shim nodes' write-ahead logs, summed.
    pub wal_appends: u64,
    /// Bytes reclaimed by WAL snapshot truncation, summed over nodes.
    pub snapshot_bytes: u64,
    /// Committed batches re-seated from WAL replay after crash restarts.
    pub replay_batches: u64,
    /// Committed batches adopted from peer state transfer after crash
    /// restarts.
    pub state_transfer_batches: u64,
    /// Crash-restart recoveries completed during the run.
    pub recoveries: u64,
    /// Messages dropped by fault-plan link loss rules.
    pub messages_dropped: u64,
    /// Extra message copies injected by fault-plan duplication.
    pub messages_duplicated: u64,
    /// Message copies that drew fault-plan extra link delay.
    pub messages_delayed: u64,
    /// Messages cut by an active fault-plan partition window.
    pub partition_drops: u64,
    /// Fsyncs stretched by a fault-plan disk-lag straggler.
    pub fsync_lags: u64,
    /// Garbage `STATERESPONSE` entries rejected during recovery, summed
    /// over the shim nodes.
    pub bad_state_responses: u64,
    /// `STATEREQUEST` retransmissions sent by recovering replicas.
    pub state_request_retries: u64,
    /// Checkpoint catch-ups: recoveries that adopted a peer's snapshot
    /// floor because their own log floor fell below peer retention.
    pub catch_ups: u64,
    /// Simulated time at which the run ended.
    pub end_time: SimTime,
}

impl RunMetrics {
    /// Committed transactions per second of measured (virtual) time.
    #[must_use]
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.measured_duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed_txns as f64 / secs
    }

    /// Fraction of transactions that aborted.
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let total = self.committed_txns + self.aborted_txns;
        if total == 0 {
            return 0.0;
        }
        self.aborted_txns as f64 / total as f64
    }

    /// Average client latency in seconds.
    #[must_use]
    pub fn avg_latency_secs(&self) -> f64 {
        self.latency.avg_secs()
    }

    /// Fraction of validated batches that needed cross-shard
    /// coordination (1 − single-home rate); 0 when nothing validated.
    #[must_use]
    pub fn cross_shard_fallback_rate(&self) -> f64 {
        if self.validated_batches == 0 {
            return 0.0;
        }
        1.0 - self.single_home_batches as f64 / self.validated_batches as f64
    }

    /// Fraction of executor storage fetches that crossed regions — the
    /// locality metric plan-aware placement drives down; 0 when storage
    /// is not geo-partitioned (no fetch is ever classified).
    #[must_use]
    pub fn remote_fetch_rate(&self) -> f64 {
        let total = self.local_storage_fetches + self.remote_storage_fetches;
        if total == 0 {
            return 0.0;
        }
        self.remote_storage_fetches as f64 / total as f64
    }

    /// Builds the Figure-8 style cost report for this run.
    #[must_use]
    pub fn cost_report(
        &self,
        model: &CostModel,
        machines: usize,
        cores: usize,
        memory_gib: f64,
    ) -> CostReport {
        let avg_exec = self
            .executor_busy
            .as_micros()
            .checked_div(self.executors_spawned)
            .map_or(SimDuration::ZERO, SimDuration::from_micros);
        CostReport {
            serverless_dollars: model.lambda_cost(self.executors_spawned, avg_exec),
            machine_dollars: model.machine_cost(
                machines,
                cores,
                memory_gib,
                self.end_time - SimTime::ZERO,
            ),
            committed_txns: self.committed_txns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_compute_percentiles() {
        let mut stats = LatencyStats::default();
        for ms in 1..=100u64 {
            stats.record(SimDuration::from_millis(ms));
        }
        assert_eq!(stats.count(), 100);
        assert!((stats.avg_secs() - 0.0505).abs() < 1e-6);
        assert!((stats.p50_secs() - 0.05).abs() < 0.002);
        assert!(stats.p99_secs() >= 0.098);
        assert!(stats.percentile_secs(0.0) <= 0.002);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = LatencyStats::default();
        assert_eq!(stats.avg_secs(), 0.0);
        assert_eq!(stats.p99_secs(), 0.0);
    }

    #[test]
    fn throughput_is_committed_over_window() {
        let metrics = RunMetrics {
            committed_txns: 5_000,
            measured_duration: SimDuration::from_millis(500),
            ..RunMetrics::default()
        };
        assert!((metrics.throughput_tps() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn cross_shard_fallback_rate_is_the_single_home_complement() {
        let metrics = RunMetrics::default();
        assert_eq!(metrics.cross_shard_fallback_rate(), 0.0);
        let metrics = RunMetrics {
            validated_batches: 10,
            single_home_batches: 7,
            ..RunMetrics::default()
        };
        assert!((metrics.cross_shard_fallback_rate() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn remote_fetch_rate_is_the_cross_region_share() {
        assert_eq!(RunMetrics::default().remote_fetch_rate(), 0.0);
        let metrics = RunMetrics {
            local_storage_fetches: 30,
            remote_storage_fetches: 10,
            ..RunMetrics::default()
        };
        assert!((metrics.remote_fetch_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn abort_rate_handles_zero_and_mixed() {
        let metrics = RunMetrics::default();
        assert_eq!(metrics.abort_rate(), 0.0);
        let metrics = RunMetrics {
            committed_txns: 75,
            aborted_txns: 25,
            ..RunMetrics::default()
        };
        assert!((metrics.abort_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn cost_report_accounts_for_spawns_and_machines() {
        let metrics = RunMetrics {
            committed_txns: 10_000,
            executors_spawned: 300,
            executor_busy: SimDuration::from_secs(30),
            end_time: SimTime::from_secs(10),
            measured_duration: SimDuration::from_secs(10),
            ..RunMetrics::default()
        };
        let report = metrics.cost_report(&CostModel::default(), 8, 16, 16.0);
        assert!(report.serverless_dollars > 0.0);
        assert!(report.machine_dollars > 0.0);
        assert!(report.cents_per_ktxn().is_finite());
    }
}
