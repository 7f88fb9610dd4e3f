//! The thread-based local cluster.
//!
//! [`LocalCluster::run`] takes an assembled [`sbft_core::System`], spawns
//! one thread per shim node, one for the verifier and one executor-pool
//! thread, and drives a closed-loop client population from the calling
//! thread until the requested number of transactions has been committed
//! (or a wall-clock deadline passes).

use crossbeam_channel::{unbounded, Receiver, Sender};
use sbft_core::events::{Action, Destination, Envelope, ProtocolMessage};
use sbft_core::System;
use sbft_telemetry::{Stage, TraceSink, Tracer};
use sbft_types::{ClientId, ComponentId, NodeId, SeqNum, SimTime, TxnOutcome};
use sbft_workloads::YcsbWorkload;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What one node/verifier thread receives.
struct Delivery {
    from: ComponentId,
    msg: ProtocolMessage,
}

/// A unit of work handed to a role thread, or the shutdown marker.
///
/// Every thread holds a clone of the [`Router`] — and therefore a sender
/// to every other thread — so channels never disconnect on their own; the
/// explicit `Stop` marker is what ends the worker loops at shutdown.
enum Work<T> {
    Item(T),
    Stop,
}

/// Routing table: senders for every component plus the executor pool.
#[derive(Clone)]
struct Router {
    nodes: Vec<Sender<Work<Delivery>>>,
    verifier: Sender<Work<Delivery>>,
    clients: Sender<Delivery>,
    executor_pool: Sender<
        Work<(
            sbft_serverless::SpawnRequest,
            sbft_serverless::ExecuteRequest,
        )>,
    >,
    /// Lifecycle tracer; markers are stamped with wall-clock microseconds
    /// since `epoch` so exported traces line up with `ClusterReport`
    /// elapsed time.
    tracer: Tracer,
    epoch: Instant,
}

impl Router {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Marks the batch-lifecycle edges visible at routing time. The
    /// thread runtime has no discrete clock, so it traces the
    /// cross-thread handoffs (batch release, commit, executor spawn,
    /// verify ingest, client response) rather than the per-request
    /// admission edges the simulator can see.
    fn trace_action(&self, action: &Action) {
        let now = self.now();
        match action {
            Action::Send(Envelope { msg, .. }) => match msg {
                ProtocolMessage::Consensus(c) => {
                    if let Some(seq) = ordering_batch_seq(c) {
                        self.tracer.emit(seq.0, Stage::BatchRelease, now);
                    }
                }
                ProtocolMessage::Verify(v) => self.tracer.emit(v.seq.0, Stage::VerifyIngest, now),
                ProtocolMessage::Response(r) => self.tracer.emit(r.seq.0, Stage::Respond, now),
                ProtocolMessage::Abort(a) => self.tracer.emit(a.seq.0, Stage::Respond, now),
                _ => {}
            },
            Action::SpawnExecutor { execute, .. } => {
                self.tracer.emit(execute.seq.0, Stage::ExecuteSpawn, now);
            }
            Action::BatchCommitted { seq, .. } => {
                self.tracer.emit(seq.0, Stage::CommitQuorum, now);
            }
            _ => {}
        }
    }

    fn route(&self, origin: ComponentId, actions: Vec<Action>) {
        for action in actions {
            if self.tracer.enabled() {
                self.trace_action(&action);
            }
            match action {
                Action::Send(Envelope { from, to, msg }) => match to {
                    Destination::Node(n) => {
                        if let Some(tx) = self.nodes.get(n.0 as usize) {
                            let _ = tx.send(Work::Item(Delivery { from, msg }));
                        }
                    }
                    Destination::AllNodes => {
                        for (i, tx) in self.nodes.iter().enumerate() {
                            if ComponentId::Node(NodeId(i as u32)) != origin {
                                let _ = tx.send(Work::Item(Delivery {
                                    from,
                                    msg: msg.clone(),
                                }));
                            }
                        }
                    }
                    Destination::Verifier => {
                        let _ = self.verifier.send(Work::Item(Delivery { from, msg }));
                    }
                    Destination::Client(_) => {
                        let _ = self.clients.send(Delivery { from, msg });
                    }
                    Destination::Executor(_) => {}
                },
                Action::SpawnExecutor { request, execute } => {
                    let _ = self.executor_pool.send(Work::Item((request, execute)));
                }
                // Timers and metric hooks are not used on the happy path the
                // thread runtime covers.
                _ => {}
            }
        }
    }

    /// Tells every worker thread to exit its loop.
    fn stop_all(&self) {
        for tx in &self.nodes {
            let _ = tx.send(Work::Stop);
        }
        let _ = self.verifier.send(Work::Stop);
        let _ = self.executor_pool.send(Work::Stop);
    }
}

/// Summary of a local-cluster run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterReport {
    /// Transactions committed (client received a `RESPONSE`).
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Wall-clock time the run took.
    pub elapsed: Duration,
    /// Executors invoked by the pool.
    pub executor_invocations: u64,
    /// Transactions the verifier applied through the `ShardScheduler`
    /// worker pool (0 when the configuration runs the synchronous apply
    /// stage).
    pub pool_applied: u64,
}

impl ClusterReport {
    /// Committed transactions per wall-clock second.
    #[must_use]
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed as f64 / secs
    }
}

/// The thread-based cluster driver.
pub struct LocalCluster {
    system: System,
    num_clients: usize,
    target_txns: u64,
    deadline: Duration,
    workload_seed: u64,
    trace_sink: Option<Arc<dyn TraceSink>>,
}

impl LocalCluster {
    /// Creates a driver around an assembled system.
    #[must_use]
    pub fn new(system: System) -> Self {
        LocalCluster {
            system,
            num_clients: 8,
            target_txns: 200,
            deadline: Duration::from_secs(10),
            workload_seed: 1,
            trace_sink: None,
        }
    }

    /// Records batch lifecycle span events into `sink` (wall-clock
    /// microseconds since run start). Off by default: the router then
    /// pays one branch per action.
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Number of closed-loop clients to drive.
    #[must_use]
    pub fn clients(mut self, n: usize) -> Self {
        self.num_clients = n.max(1);
        self
    }

    /// Number of committed transactions to wait for.
    #[must_use]
    pub fn target_txns(mut self, n: u64) -> Self {
        self.target_txns = n.max(1);
        self
    }

    /// Wall-clock safety deadline.
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = d;
        self
    }

    /// Runs the cluster until `target_txns` transactions commit or the
    /// deadline passes, then shuts every thread down.
    #[must_use]
    pub fn run(self) -> ClusterReport {
        let LocalCluster {
            mut system,
            num_clients,
            target_txns,
            deadline,
            workload_seed,
            trace_sink,
        } = self;
        let num_clients = num_clients.min(system.clients.len()).max(1);
        let start = Instant::now();

        // Channels.
        let mut node_rx: Vec<Receiver<Work<Delivery>>> = Vec::new();
        let mut node_tx: Vec<Sender<Work<Delivery>>> = Vec::new();
        for _ in 0..system.nodes.len() {
            let (tx, rx) = unbounded();
            node_tx.push(tx);
            node_rx.push(rx);
        }
        let (verifier_tx, verifier_rx) = unbounded();
        let (client_tx, client_rx) = unbounded::<Delivery>();
        let (pool_tx, pool_rx) = unbounded::<
            Work<(
                sbft_serverless::SpawnRequest,
                sbft_serverless::ExecuteRequest,
            )>,
        >();
        let router = Router {
            nodes: node_tx,
            verifier: verifier_tx,
            clients: client_tx,
            executor_pool: pool_tx,
            tracer: match trace_sink {
                Some(sink) => Tracer::new(sink),
                None => Tracer::disabled(),
            },
            epoch: start,
        };

        let mut handles = Vec::new();

        // Shim node threads. Under durability each node writes a real
        // buffered WAL file (the in-memory backend attached at build time
        // is only the simulator's deterministic stand-in); an unopenable
        // file falls back to that in-memory log rather than failing the
        // run.
        let nodes = std::mem::take(&mut system.nodes);
        let wal_dir = system.config.durability.enabled.then(|| {
            let dir = std::env::temp_dir().join(format!("sbft-wal-{}", std::process::id()));
            let _ = std::fs::create_dir_all(&dir);
            dir
        });
        for (i, mut node) in nodes.into_iter().enumerate() {
            if let Some(dir) = &wal_dir {
                if let Ok(wal) = sbft_durability::FileWal::open(dir.join(format!("node-{i}.wal"))) {
                    node.attach_wal(Box::new(wal));
                }
            }
            let rx = node_rx.remove(0);
            let router = router.clone();
            handles.push(thread::spawn(move || {
                let origin = ComponentId::Node(NodeId(i as u32));
                while let Ok(Work::Item(delivery)) = rx.recv() {
                    let now = SimTime::from_micros(0);
                    let actions = match &delivery.msg {
                        ProtocolMessage::ClientRequest(req) => node.on_client_request(req, now),
                        ProtocolMessage::Consensus(c) => match delivery.from.as_node() {
                            Some(sender) => node.on_consensus_message(sender, c.clone()),
                            None => Vec::new(),
                        },
                        other => node.on_message_at(other, now),
                    };
                    router.route(origin, actions);
                    // Release any partial batch so small workloads finish.
                    let flush = node.poll_batcher(SimTime::from_micros(u64::MAX / 2));
                    router.route(origin, flush);
                }
            }));
        }

        // Executor pool thread: spawns an executor object per request and
        // forwards its VERIFY messages to the verifier.
        let invocations = Arc::new(std::sync::atomic::AtomicU64::new(0));
        {
            let router = router.clone();
            let provider = system.provider.clone();
            let storage = std::sync::Arc::clone(&system.storage);
            let n_r = system.config.fault.n_r;
            let cert_quorum = system.cert_quorum();
            let mut next_executor: u64 = 0;
            let invocations_pool = Arc::clone(&invocations);
            handles.push(thread::spawn(move || {
                while let Ok(Work::Item((request, execute))) = pool_rx.recv() {
                    let id = sbft_types::ExecutorId(next_executor);
                    next_executor += 1;
                    invocations_pool.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let executor = sbft_serverless::Executor::new(
                        id,
                        request.region,
                        sbft_serverless::ExecutorBehavior::Honest,
                        provider.handle(ComponentId::Executor(id)),
                        sbft_storage::StorageReader::new(std::sync::Arc::clone(&storage)),
                        n_r,
                        cert_quorum,
                    );
                    if let Ok(output) = executor.handle_execute(&execute) {
                        for verify in output.verify_messages {
                            router.route(
                                ComponentId::Executor(id),
                                vec![Action::send(
                                    ComponentId::Executor(id),
                                    Destination::Verifier,
                                    ProtocolMessage::Verify(verify),
                                )],
                            );
                        }
                    }
                }
            }));
        }

        // Verifier thread. With more than one configured shard worker the
        // apply stage runs on the ShardScheduler pool (real multi-core
        // commit parallelism); otherwise it stays synchronous on this
        // thread.
        let pool_applied = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        {
            let router = router.clone();
            let mut verifier = system.verifier;
            let apply_workers = system.config.sharding.workers;
            if apply_workers > 1 {
                verifier.attach_apply_pool(apply_workers);
                if let Some(pool) = verifier.apply_pool() {
                    pool.register_metrics(&system.registry);
                }
            }
            let pool_applied = std::sync::Arc::clone(&pool_applied);
            handles.push(thread::spawn(move || {
                while let Ok(Work::Item(delivery)) = verifier_rx.recv() {
                    let actions = verifier.on_message(&delivery.msg);
                    router.route(ComponentId::Verifier, actions);
                }
                pool_applied.store(
                    verifier.pool_applied_txns(),
                    std::sync::atomic::Ordering::Release,
                );
                // Dropping the verifier drains and joins the pool workers.
            }));
        }

        // Client driver (this thread).
        let mut workload_cfg = system.config.workload;
        workload_cfg.num_clients = num_clients;
        let mut workload = YcsbWorkload::new(workload_cfg, workload_seed);
        let mut clients: HashMap<ClientId, sbft_core::ClientRole> = system
            .clients
            .drain(..num_clients)
            .map(|c| (c.id(), c))
            .collect();

        for c in 0..num_clients as u32 {
            let id = ClientId(c);
            let txn = workload.next_transaction(id);
            let actions = clients.get_mut(&id).expect("client exists").submit(txn);
            router.route(ComponentId::Client(id), actions);
        }

        let mut report = ClusterReport::default();
        while report.committed + report.aborted < target_txns && start.elapsed() < deadline {
            match client_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(delivery) => {
                    let client_id = match &delivery.msg {
                        ProtocolMessage::Response(r) => r.txn.client,
                        ProtocolMessage::Abort(a) => a.txn.client,
                        _ => continue,
                    };
                    let Some(client) = clients.get_mut(&client_id) else {
                        continue;
                    };
                    let actions = client.on_message(&delivery.msg);
                    let mut completed = None;
                    for action in &actions {
                        if let Action::TxnCompleted { outcome, .. } = action {
                            completed = Some(*outcome);
                        }
                    }
                    match completed {
                        Some(TxnOutcome::Committed) => report.committed += 1,
                        Some(TxnOutcome::Aborted) => report.aborted += 1,
                        None => continue,
                    }
                    // Closed loop: issue the next request.
                    if report.committed + report.aborted < target_txns {
                        let txn = workload.next_transaction(client_id);
                        let actions = client.submit(txn);
                        router.route(ComponentId::Client(client_id), actions);
                    }
                }
                Err(_) => {
                    // Timed out waiting; keep going until the deadline.
                }
            }
        }
        report.elapsed = start.elapsed();

        // Every worker holds a Router clone (senders to every peer), so
        // channels never disconnect on their own: stop the loops
        // explicitly, then join.
        router.stop_all();
        drop(router);
        drop(clients);
        for handle in handles {
            let _ = handle.join();
        }
        report.pool_applied = pool_applied.load(std::sync::atomic::Ordering::Acquire);
        report.executor_invocations = invocations.load(std::sync::atomic::Ordering::Relaxed);
        report
    }
}

/// The sequence number of the batch an ordering-protocol message carries,
/// if it carries one (PBFT `PREPREPARE` / CFT accept).
fn ordering_batch_seq(msg: &sbft_consensus::ConsensusMessage) -> Option<SeqNum> {
    match msg {
        sbft_consensus::ConsensusMessage::PrePrepare(p) => Some(p.seq),
        sbft_consensus::ConsensusMessage::CftAccept(a) => Some(a.seq),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_core::SystemBuilder;
    use sbft_types::SystemConfig;

    fn config() -> SystemConfig {
        let mut cfg = SystemConfig::with_shim_size(4);
        cfg.workload.num_records = 1_000;
        cfg.workload.batch_size = 4;
        cfg.workload.num_clients = 8;
        cfg.regions = sbft_types::RegionSet::home_only();
        cfg
    }

    #[test]
    fn local_cluster_commits_transactions_over_threads() {
        let system = SystemBuilder::new(config()).clients(8).build();
        let report = LocalCluster::new(system)
            .clients(8)
            .target_txns(40)
            .deadline(Duration::from_secs(20))
            .run();
        assert!(
            report.committed >= 40,
            "committed only {} transactions",
            report.committed
        );
        assert!(report.throughput_tps() > 0.0);
        // Every committed batch ran at least the f_E + 1 executors whose
        // matching results the verifier needed (batches of 4 here).
        assert!(
            report.executor_invocations >= report.committed / 4 * 2,
            "pool ran {} executors for {} committed transactions",
            report.executor_invocations,
            report.committed
        );
    }

    #[test]
    fn report_throughput_handles_zero_elapsed() {
        let report = ClusterReport::default();
        assert_eq!(report.throughput_tps(), 0.0);
    }

    #[test]
    fn local_cluster_applies_batches_through_the_shard_pool() {
        // With more than one shard worker configured, the verifier's apply
        // stage must run on the ShardScheduler pool: every committed
        // transaction is applied by a pool worker, and the run still
        // commits its target (thread scaling itself needs a multi-core
        // host; correctness of the wiring does not).
        let mut cfg = config();
        cfg.sharding = sbft_types::ShardingConfig {
            num_shards: 8,
            workers: 4,
            ..sbft_types::ShardingConfig::default()
        };
        let system = SystemBuilder::new(cfg).clients(8).build();
        let report = LocalCluster::new(system)
            .clients(8)
            .target_txns(40)
            .deadline(Duration::from_secs(20))
            .run();
        assert!(
            report.committed >= 40,
            "committed only {} transactions",
            report.committed
        );
        assert!(
            report.pool_applied >= report.committed,
            "pool applied {} of {} committed",
            report.pool_applied,
            report.committed
        );
    }

    #[test]
    fn trace_sink_captures_the_cross_thread_lifecycle_edges() {
        let system = SystemBuilder::new(config()).clients(4).build();
        let sink = Arc::new(sbft_telemetry::MemorySink::new());
        let report = LocalCluster::new(system)
            .clients(4)
            .target_txns(12)
            .deadline(Duration::from_secs(20))
            .with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>)
            .run();
        assert!(report.committed >= 12);
        let events = sink.events();
        let stages: std::collections::HashSet<Stage> = events.iter().map(|e| e.stage).collect();
        for stage in [
            Stage::BatchRelease,
            Stage::CommitQuorum,
            Stage::ExecuteSpawn,
            Stage::VerifyIngest,
            Stage::Respond,
        ] {
            assert!(stages.contains(&stage), "missing {stage:?} markers");
        }
        // The PBFT proposal carries ids, not bodies; its release is still
        // marked, once per committed batch.
        let marks_per_seq = sbft_telemetry::export::marks(&events);
        for (seq, stage_times) in &marks_per_seq {
            if stage_times.contains_key(&Stage::CommitQuorum) {
                assert!(
                    stage_times.contains_key(&Stage::BatchRelease),
                    "batch {seq:?} committed without a BatchRelease marker"
                );
            }
        }
        // Within one trace the markers must be time-ordered the way the
        // pipeline runs.
        let marks = sbft_telemetry::export::marks(&events);
        let complete = marks
            .values()
            .filter(|m| m.contains_key(&Stage::BatchRelease) && m.contains_key(&Stage::Respond))
            .count();
        assert!(complete > 0, "no trace carried release..respond markers");
        for stage_times in marks.values() {
            if let (Some(release), Some(respond)) = (
                stage_times.get(&Stage::BatchRelease),
                stage_times.get(&Stage::Respond),
            ) {
                assert!(release <= respond, "respond before batch release");
            }
        }
    }

    #[test]
    fn durable_cluster_commits_through_file_backed_wals() {
        // With durability on, every node writes a file-backed WAL under the
        // process-scoped temp directory; the fsync tax must not stop the
        // cluster from committing its target.
        let mut cfg = config();
        cfg.durability = sbft_types::DurabilityConfig::enabled();
        let system = SystemBuilder::new(cfg).clients(4).build();
        let report = LocalCluster::new(system)
            .clients(4)
            .target_txns(12)
            .deadline(Duration::from_secs(20))
            .run();
        assert!(
            report.committed >= 12,
            "committed only {} transactions",
            report.committed
        );
        let dir = std::env::temp_dir().join(format!("sbft-wal-{}", std::process::id()));
        assert!(dir.join("node-0.wal").exists(), "WAL file was not created");
    }

    #[test]
    fn default_single_worker_config_keeps_the_synchronous_apply_stage() {
        let system = SystemBuilder::new(config()).clients(4).build();
        let report = LocalCluster::new(system)
            .clients(4)
            .target_txns(12)
            .deadline(Duration::from_secs(20))
            .run();
        assert!(report.committed >= 12);
        assert_eq!(report.pool_applied, 0, "no pool configured");
    }
}
