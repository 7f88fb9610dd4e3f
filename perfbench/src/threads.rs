//! Runs of the thread runtime (`LocalCluster`).

use crate::host;
use crate::report::{Counts, Outcome};
use crate::workloads::Workload;
use serverless_bft::core::SystemBuilder;
use serverless_bft::runtime::{ClusterReport, LocalCluster};
use serverless_bft::telemetry::{MemorySink, SpanEvent, TraceSink};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One `LocalCluster::run` and what it left behind.
pub struct ClusterRun {
    pub report: ClusterReport,
    pub counts: Counts,
    pub cpu: Duration,
    /// Lifecycle span events (empty when no trace sink was attached).
    pub events: Vec<SpanEvent>,
}

impl ClusterRun {
    pub fn throughput(&self) -> f64 {
        self.report.throughput_tps()
    }
}

/// Where `LocalCluster` puts a durable deployment's WAL files: a
/// directory named after the process under the temp dir, never removed
/// by the runtime itself.
fn wal_dir() -> PathBuf {
    std::env::temp_dir().join(format!("sbft-wal-{}", std::process::id()))
}

/// Builds `workload`'s deployment and drives it for `secs` seconds of
/// wall clock, with a lifecycle trace sink when `traced`. Every run
/// starts without a WAL directory and removes the one it wrote, so no
/// run reopens an earlier run's logs.
pub fn run(
    workload: &Workload,
    seed: u64,
    secs: f64,
    traced: bool,
    label: &str,
    out: &mut Outcome,
) -> Result<ClusterRun, String> {
    let config = workload.config();
    let wal = wal_dir();
    if wal.exists() {
        return Err(format!(
            "{label}: WAL dir {} exists before the run",
            wal.display()
        ));
    }
    let system = SystemBuilder::new(config.clone())
        .seed(seed)
        .clients(workload.clients)
        .build();
    let registry = Arc::clone(&system.registry);
    let sink = Arc::new(MemorySink::new());
    let mut cluster = LocalCluster::new(system)
        .clients(workload.clients)
        .target_txns(u64::MAX)
        .deadline(Duration::from_secs_f64(secs));
    if traced {
        cluster = cluster.with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
    }
    let cpu0 = host::cpu_time()?;
    let report = cluster.run();
    let cpu = host::cpu_time()?.saturating_sub(cpu0);

    let wrote_wal = wal.exists();
    if wrote_wal {
        std::fs::remove_dir_all(&wal).map_err(|e| format!("removing {}: {e}", wal.display()))?;
    }
    out.check(
        &format!("{label}: WAL dir written only when durable, and removed"),
        wrote_wal == config.durability.enabled && !wal.exists(),
        format!(
            "durable = {}, WAL dir written = {wrote_wal}",
            config.durability.enabled
        ),
    );

    let counts = Counts::take(&registry);
    counts.check_commits(label, report.committed, out)?;
    Ok(ClusterRun {
        report,
        counts,
        cpu,
        events: sink.events(),
    })
}
