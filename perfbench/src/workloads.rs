//! The named workloads and the deployments they run.

use serverless_bft::serverless::CrashRestart;
use serverless_bft::types::{
    DurabilityConfig, NodeId, RegionSet, ShardingConfig, SimDuration, SystemConfig,
};

/// One named workload. Its end-to-end figures come from the
/// discrete-event simulator on its own clock; its traced run also drives
/// the deployment on the thread runtime and in the single-thread replay.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Closed-loop clients (every client waits for its reply).
    pub clients: usize,
    /// Transactions the single-threaded traced replay must commit.
    pub replay_target: u64,
}

/// Every workload the benchmark runs.
pub const ALL: [Workload; 2] = [
    Workload {
        name: "sim-failover",
        clients: 200,
        replay_target: 3_000,
    },
    Workload {
        name: "sim-durable",
        clients: 64,
        replay_target: 3_000,
    },
];

/// The YCSB table size of the paper.
const RECORDS: u64 = 600_000;

/// Simulated warm-up excluded from the measured window.
pub const SIM_WARMUP: SimDuration = SimDuration::from_millis(100);
/// Measured simulated window.
pub const SIM_WINDOW: SimDuration = SimDuration::from_secs(2);

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// The deployment this workload runs. Both workloads keep the default
    /// non-conflicting transactions, so no transaction may abort.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::with_shim_size(4);
        cfg.workload.num_records = RECORDS;
        cfg.workload.num_clients = self.clients;
        match self.name {
            "sim-durable" => {
                cfg.regions = RegionSet::home_only();
                cfg.workload.batch_size = 10;
                cfg.workload.ops_per_txn = 4;
                cfg.sharding = ShardingConfig::with_shards(8).with_workers(2);
                cfg.durability = DurabilityConfig::enabled();
            }
            "sim-failover" => {
                cfg.regions = RegionSet::first_n(3);
                cfg.workload.batch_size = 20;
                cfg.workload.ops_per_txn = 4;
                cfg.durability = DurabilityConfig::enabled();
                // Above the fault-free p99 (~50 ms), so timers fire only
                // when the primary is really gone.
                cfg.timers.client_timeout = SimDuration::from_millis(300);
                cfg.timers.node_timeout = SimDuration::from_millis(200);
                cfg.timers.retransmit_timeout = SimDuration::from_millis(200);
            }
            other => unreachable!("unknown workload {other}"),
        }
        cfg
    }

    /// The primary crash `sim-failover` injects: node 0 dies 500 ms into
    /// the run and stays dark for 1 s.
    pub fn crash(&self) -> Option<CrashRestart> {
        (self.name == "sim-failover").then(|| {
            CrashRestart::of(
                NodeId(0),
                SimDuration::from_millis(500),
                SimDuration::from_millis(1_000),
            )
        })
    }
}
