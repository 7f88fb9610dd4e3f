//! Windows of the discrete-event simulator.

use crate::report::{Counts, Outcome};
use crate::workloads::{Workload, SIM_WARMUP, SIM_WINDOW};
use serverless_bft::core::SystemBuilder;
use serverless_bft::serverless::CostModel;
use serverless_bft::sim::{RunMetrics, SimHarness, SimParams};
use serverless_bft::telemetry::{MemorySink, SpanEvent, Stage, TraceSink};
use serverless_bft::types::SimTime;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One simulated window and what it left behind.
pub struct Window {
    pub setup: Duration,
    pub metrics: RunMetrics,
    pub counts: Counts,
    /// Lifecycle span events (empty when the tracer was not attached).
    pub events: Vec<SpanEvent>,
    pub wall: Duration,
    pub cost_cents_per_ktxn: f64,
}

impl Window {
    /// The longest stretch of the measured window with no client
    /// response, counting the window's edges as boundaries.
    pub fn unavailable(&self) -> Duration {
        let start = (SimTime::ZERO + SIM_WARMUP).as_micros();
        let end = (SimTime::ZERO + SIM_WARMUP + SIM_WINDOW).as_micros();
        let mut times: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.stage == Stage::Respond && e.shard.is_none())
            .map(|e| e.at.as_micros())
            .filter(|t| (start..end).contains(t))
            .collect();
        times.sort_unstable();
        let mut longest = 0;
        let mut last = start;
        for t in times.into_iter().chain([end]) {
            longest = longest.max(t - last);
            last = t;
        }
        Duration::from_micros(longest)
    }
}

/// Runs one window of `workload` with workload seed `seed`, with the
/// batch lifecycle tracer attached when `traced`.
pub fn window(workload: &Workload, seed: u64, traced: bool) -> Result<Window, String> {
    let config = workload.config();
    let t = Instant::now();
    let system = SystemBuilder::new(config.clone())
        .seed(seed)
        .clients(workload.clients)
        .build();
    let setup = t.elapsed();
    let registry = Arc::clone(&system.registry);
    let params = SimParams {
        duration: SIM_WINDOW,
        warmup: SIM_WARMUP,
        num_clients: workload.clients,
        seed,
        crash: workload.crash(),
        ..SimParams::default()
    };
    let mut harness = SimHarness::new(system, params);
    let sink = Arc::new(MemorySink::new());
    if traced {
        harness = harness.with_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>);
    }
    let t = Instant::now();
    let metrics = harness.run();
    let wall = t.elapsed();
    // Shim nodes plus the verifier, billed for the simulated run.
    let cost = metrics
        .cost_report(
            &CostModel::default(),
            config.fault.n_r + 1,
            config.shim_cores,
            16.0,
        )
        .cents_per_ktxn();
    Ok(Window {
        setup,
        metrics,
        counts: Counts::take(&registry),
        events: sink.events(),
        wall,
        cost_cents_per_ktxn: cost,
    })
}

/// The output checks every window must pass.
pub fn check(
    workload: &Workload,
    label: &str,
    w: &Window,
    out: &mut Outcome,
) -> Result<(), String> {
    w.counts
        .check_commits(label, w.metrics.committed_txns, out)?;
    // Every workload's transactions are non-conflicting.
    out.check(
        &format!("{label}: no transaction aborted"),
        w.metrics.aborted_txns == 0,
        format!("RunMetrics::aborted_txns = {}", w.metrics.aborted_txns),
    );
    if workload.crash().is_some() {
        let recoveries = w.counts.get("recovery.recoveries")?;
        out.check(
            &format!("{label}: exactly one recovery"),
            recoveries == 1,
            format!("recovery.recoveries = {recoveries}"),
        );
    }
    Ok(())
}
