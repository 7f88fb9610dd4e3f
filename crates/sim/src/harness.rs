//! The discrete-event simulation harness.
//!
//! [`SimHarness`] drives a fully assembled [`sbft_core::System`] through
//! virtual time: it interprets the actions emitted by the role state
//! machines (sends, timers, executor spawns), applies the configured
//! byzantine attacks, models network and CPU delays, runs the closed-loop
//! client population, and collects [`RunMetrics`].

use crate::cpu::{CpuModel, ServiceStation};
use crate::faults::{FaultPlan, FaultState};
use crate::metrics::RunMetrics;
use crate::network::NetworkModel;
use sbft_core::events::{Action, Destination, Envelope, ProtocolMessage, ProtocolTimer};
use sbft_core::System;
use sbft_serverless::{CrashRestart, ExecuteRequest, ExecutorBehavior};
use sbft_storage::GeoPartitionedStore;
use sbft_telemetry::{Stage, TraceSink, Tracer};
use sbft_types::{
    ComponentId, ExecutorId, Region, SeqNum, SimDuration, SimTime, TxnId, TxnOutcome,
};
use sbft_workloads::{KeyDistribution, YcsbWorkload};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Parameters of one simulated run.
#[derive(Clone, Copy, Debug)]
pub struct SimParams {
    /// Length of the measured window (after warm-up).
    pub duration: SimDuration,
    /// Warm-up period excluded from the metrics.
    pub warmup: SimDuration,
    /// Number of closed-loop clients actively issuing requests (capped at
    /// the number of client roles in the system).
    pub num_clients: usize,
    /// Seed for the workload generator.
    pub seed: u64,
    /// How often the primary's batcher releases partial batches.
    pub batch_poll_interval: SimDuration,
    /// Safety cap on the number of processed events.
    pub max_events: u64,
    /// When set, executor compute time is serialised through a shared pool
    /// of this many execution threads instead of running fully in parallel.
    /// This models the paper's Figure 8 baselines where all execution
    /// happens on the edge devices with a fixed number of execution
    /// threads (`PBFT-k-ET`); `None` models serverless executors.
    pub edge_execution_threads: Option<usize>,
    /// When set, keys are drawn Zipfian with this exponent instead of
    /// uniformly (the skew axis of the planner experiments).
    pub zipf_theta: Option<f64>,
    /// When set, the given shim node crashes at the scheduled sim time
    /// (losing volatile state and the unsynced WAL tail), stays dark, and
    /// restarts after the configured delay — replaying its log and
    /// state-transferring the missing suffix from peers.
    pub crash: Option<CrashRestart>,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            num_clients: 200,
            seed: 1,
            batch_poll_interval: SimDuration::from_millis(2),
            max_events: 20_000_000,
            edge_execution_threads: None,
            zipf_theta: None,
            crash: None,
        }
    }
}

/// What happens at a point in virtual time.
///
/// `Deliver` dominates the event volume, so its inline `ProtocolMessage`
/// is deliberately not boxed: the size skew costs a little queue memory
/// but saves an allocation on the hottest path.
#[allow(clippy::large_enum_variant)]
enum EventKind {
    Deliver {
        from: ComponentId,
        to: ComponentId,
        msg: ProtocolMessage,
    },
    Timer {
        owner: ComponentId,
        timer: ProtocolTimer,
        generation: u64,
    },
    ExecutorRun {
        executor: ExecutorId,
        region: Region,
        behavior: ExecutorBehavior,
        execute: Box<ExecuteRequest>,
    },
    BatchTick {
        node: usize,
    },
    /// The node's process dies: volatile state and the unsynced WAL tail
    /// are lost, and deliveries/timers to it are dropped until `Restart`.
    Crash {
        node: usize,
    },
    /// The node restarts and recovers from its durable log.
    Restart {
        node: usize,
    },
}

struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The simulator.
pub struct SimHarness {
    system: System,
    params: SimParams,
    network: NetworkModel,
    cpu: CpuModel,
    clock: SimTime,
    queue: BinaryHeap<Reverse<Event>>,
    event_seq: u64,
    events_processed: u64,
    stations: HashMap<ComponentId, ServiceStation>,
    /// One service station per execution shard: the verifier's `ccheck`
    /// work for a validated batch is charged here, so shard counts scale
    /// the commit path the way cores scale a node (Figure 6(ix)).
    shard_stations: Vec<ServiceStation>,
    timer_generation: HashMap<(ComponentId, ProtocolTimer), u64>,
    workload: YcsbWorkload,
    submit_times: HashMap<TxnId, SimTime>,
    /// Shared execution station for the edge-execution baselines.
    edge_execution: Option<ServiceStation>,
    /// Whether CLIENT-REQUEST service at a shim node includes the
    /// ordering-time shard-routing classification.
    charge_routing: bool,
    /// The region-partitioned storage view, when the deployment
    /// geo-partitions: executor ⇄ storage fetches are classified (and
    /// counted) through it and pay the inter-region round trip to every
    /// remote partition they touch.
    geo: Option<GeoPartitionedStore>,
    /// Per-batch memo of the distinct storage partitions its keys are
    /// homed in — classified once, reused by every spawned executor of
    /// the batch (including re-spawns).
    touched_partitions: HashMap<SeqNum, std::collections::BTreeSet<Region>>,
    /// Batch lifecycle tracer. Disabled by default: every marker site
    /// pays one branch and nothing else.
    tracer: Tracer,
    /// Admission times of requests at the primary — (arrival, admission
    /// done) — consumed when the request's batch is released into
    /// ordering. Only populated while tracing is enabled.
    ingest_times: HashMap<TxnId, (SimTime, SimTime)>,
    /// Node indices currently crashed: deliveries and timer firings to
    /// them are dropped until their `Restart` event.
    down: std::collections::BTreeSet<usize>,
    /// The instantiated chaos plan, when one was attached: consulted on
    /// every node-to-node send and every fsync.
    faults: Option<FaultState>,
    metrics: RunMetrics,
}

impl SimHarness {
    /// Creates a harness around a system.
    #[must_use]
    pub fn new(system: System, params: SimParams) -> Self {
        Self::with_models(system, params, NetworkModel::default(), CpuModel::default())
    }

    /// Creates a harness with explicit network and CPU models.
    #[must_use]
    pub fn with_models(
        system: System,
        params: SimParams,
        network: NetworkModel,
        cpu: CpuModel,
    ) -> Self {
        let mut workload_cfg = system.config.workload;
        workload_cfg.num_clients = params.num_clients.min(system.clients.len()).max(1);
        let declare = matches!(
            system.config.conflict_handling,
            sbft_types::ConflictHandling::KnownRwSets
        );
        let mut workload = YcsbWorkload::new(workload_cfg, params.seed)
            .with_distribution(KeyDistribution::Uniform)
            .with_declared_rwsets(declare);
        if let Some(theta) = params.zipf_theta {
            workload = workload.with_zipf_theta(theta);
        }
        // The ordering-time shard planner classifies every client request
        // at the primary; charge that routing work in the CPU model.
        let charge_routing = declare
            && system.config.sharding.num_shards > 1
            && system.config.sharding.ordering_lanes;
        let mut stations = HashMap::new();
        for node in &system.nodes {
            stations.insert(
                ComponentId::Node(node.id()),
                ServiceStation::new(system.config.shim_cores),
            );
        }
        stations.insert(
            ComponentId::Verifier,
            ServiceStation::new(system.config.verifier_cores),
        );
        let sharding = system.config.sharding;
        let shard_stations = (0..sharding.num_shards)
            .map(|_| ServiceStation::new(sharding.workers))
            .collect();
        let edge_execution = params.edge_execution_threads.map(ServiceStation::new);
        let geo = system.config.region_partition().map(|p| {
            let mut geo = GeoPartitionedStore::new(std::sync::Arc::clone(&system.storage), p);
            geo.register_metrics(&system.registry);
            geo
        });
        let metrics = RunMetrics::default();
        system
            .registry
            .bind_histogram("client.latency_us", metrics.latency.histogram());
        SimHarness {
            system,
            params,
            network,
            cpu,
            clock: SimTime::ZERO,
            queue: BinaryHeap::new(),
            event_seq: 0,
            events_processed: 0,
            stations,
            shard_stations,
            timer_generation: HashMap::new(),
            workload,
            submit_times: HashMap::new(),
            edge_execution,
            charge_routing,
            geo,
            touched_partitions: HashMap::new(),
            tracer: Tracer::disabled(),
            ingest_times: HashMap::new(),
            down: std::collections::BTreeSet::new(),
            faults: None,
            metrics,
        }
    }

    /// Enables batch lifecycle tracing into `sink`. Span events carry sim
    /// timestamps, so two identical runs trace identically.
    #[must_use]
    pub fn with_tracer(mut self, sink: std::sync::Arc<dyn TraceSink>) -> Self {
        self.tracer = Tracer::new(sink);
        self
    }

    /// Attaches a composable chaos plan: per-link loss / duplication /
    /// extra delay, directed partition windows, disk-lag stragglers and
    /// (possibly simultaneous) crash-restarts. The plan's random draws
    /// derive from the run seed, so the full fault schedule is
    /// reproducible; injections surface as `faults.*` counters.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(FaultState::new(
            plan,
            self.params.seed,
            SimTime::ZERO,
            &self.system.registry,
        ));
        self
    }

    /// Read access to the system (after a run, for assertions).
    #[must_use]
    pub fn system(&self) -> &System {
        &self.system
    }

    fn end_time(&self) -> SimTime {
        SimTime::ZERO + self.params.warmup + self.params.duration
    }

    fn in_window(&self, t: SimTime) -> bool {
        t >= SimTime::ZERO + self.params.warmup && t < self.end_time()
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        self.event_seq += 1;
        self.queue.push(Reverse(Event {
            time,
            seq: self.event_seq,
            kind,
        }));
    }

    /// Runs the simulation to completion and returns the metrics.
    pub fn run(mut self) -> RunMetrics {
        let active_clients = self
            .params
            .num_clients
            .min(self.system.clients.len())
            .max(1);

        // Closed loop: every client issues its first request at t = 0.
        for c in 0..active_clients {
            let txn = self
                .workload
                .next_transaction(sbft_types::ClientId(c as u32));
            self.submit_times.insert(txn.id, SimTime::ZERO);
            let actions = self.system.clients[c].submit(txn);
            self.process_actions(
                ComponentId::Client(sbft_types::ClientId(c as u32)),
                SimTime::ZERO,
                actions,
            );
        }
        // Periodic batch ticks at every shim node (only the primary acts).
        for node in 0..self.system.nodes.len() {
            self.push_event(
                SimTime::ZERO + self.params.batch_poll_interval,
                EventKind::BatchTick { node },
            );
        }
        // The scheduled crash-restart faults: the single `SimParams`
        // crash plus everything the fault plan carries. The plan's
        // entries may overlap in time (simultaneous multi-node crashes).
        let mut crashes: Vec<CrashRestart> = self.params.crash.into_iter().collect();
        if let Some(faults) = &self.faults {
            crashes.extend_from_slice(faults.crashes());
        }
        for crash in crashes {
            let node = crash.node.0 as usize;
            if node < self.system.nodes.len() {
                self.push_event(SimTime::ZERO + crash.at, EventKind::Crash { node });
                self.push_event(
                    SimTime::ZERO + crash.at + crash.restart_after,
                    EventKind::Restart { node },
                );
            }
        }

        let hard_end = self.end_time() + SimDuration::from_millis(50);
        while let Some(Reverse(event)) = self.queue.pop() {
            if event.time > hard_end || self.events_processed >= self.params.max_events {
                break;
            }
            self.clock = event.time;
            self.events_processed += 1;
            self.handle_event(event);
        }

        self.metrics.measured_duration = self.params.duration;
        self.metrics.end_time = self.clock;
        self.metrics.executors_spawned = self.system.cloud.total_spawned();
        self.metrics.spawns_rejected = self.system.cloud.rejected();
        // Every component registered its counters into the system
        // registry at build time; the run report reads them back from
        // there (RunMetrics is a façade over the registry).
        let registry = &self.system.registry;
        self.metrics.divergent_aborts = registry.counter_value("verifier.divergent_aborts");
        self.metrics.validated_batches = registry.counter_value("verifier.validated_batches");
        self.metrics.single_home_batches = registry.counter_value("verifier.single_home_batches");
        self.metrics.planned_batches = registry.counter_value("verifier.planned_batches");
        self.metrics.plan_mismatches = registry.counter_value("verifier.plan_mismatches");
        self.metrics.pinned_spawns = registry.sum_counters("pinned_spawns");
        self.metrics.placement_fallbacks = registry.sum_counters("placement_fallbacks");
        if self.geo.is_some() {
            self.metrics.local_storage_fetches =
                registry.counter_value("storage.geo.local_fetches");
            self.metrics.remote_storage_fetches =
                registry.counter_value("storage.geo.remote_fetches");
        }
        self.metrics.wal_appends = registry.sum_counters("durability.wal_appends");
        self.metrics.snapshot_bytes = registry.sum_counters("durability.snapshot_bytes");
        self.metrics.replay_batches = registry.sum_counters("durability.replay_batches");
        self.metrics.state_transfer_batches =
            registry.sum_counters("durability.state_transfer_batches");
        self.metrics.recoveries = registry.counter_value("recovery.recoveries");
        self.metrics.messages_dropped = registry.counter_value("faults.messages_dropped");
        self.metrics.messages_duplicated = registry.counter_value("faults.messages_duplicated");
        self.metrics.messages_delayed = registry.counter_value("faults.messages_delayed");
        self.metrics.partition_drops = registry.counter_value("faults.partition_drops");
        self.metrics.fsync_lags = registry.counter_value("faults.fsync_lags");
        self.metrics.bad_state_responses = registry.sum_counters("faults.bad_state_responses");
        self.metrics.state_request_retries = registry.sum_counters("faults.state_request_retries");
        self.metrics.catch_ups = registry.sum_counters("faults.catch_ups");
        self.metrics.leader_egress_bytes = registry.counter_value("net.leader_egress_bytes");
        self.metrics.body_cache_hits = registry.sum_counters("digest.cache_hits");
        self.metrics.body_cache_misses = registry.sum_counters("digest.cache_misses");
        self.metrics.batch_fetches = registry.sum_counters("digest.fetches_sent");
        // Every node that took part installs the same views, so the most
        // any node counted is the number of view changes the run saw.
        self.metrics.view_changes = self
            .system
            .nodes
            .iter()
            .map(sbft_core::ShimNode::view_changes)
            .max()
            .unwrap_or(0);
        self.metrics
    }

    fn handle_event(&mut self, event: Event) {
        match event.kind {
            EventKind::Deliver { from, to, msg } => self.deliver(from, to, msg, event.time),
            EventKind::Timer {
                owner,
                timer,
                generation,
            } => {
                let current = self
                    .timer_generation
                    .get(&(owner, timer))
                    .copied()
                    .unwrap_or(0);
                if current != generation {
                    return; // cancelled or superseded
                }
                self.fire_timer(owner, timer, event.time);
            }
            EventKind::ExecutorRun {
                executor,
                region,
                behavior,
                execute,
            } => self.run_executor(executor, region, behavior, *execute, event.time),
            EventKind::BatchTick { node } => {
                let now = event.time;
                // A crashed node skips the poll but keeps its tick alive,
                // so batching resumes as soon as it restarts.
                if !self.down.contains(&node) {
                    let actions = self.system.nodes[node].poll_batcher(now);
                    let id = self.system.nodes[node].id();
                    let actions = self.system.injector.apply(id, actions);
                    self.process_actions(ComponentId::Node(id), now, actions);
                }
                if now < self.end_time() {
                    self.push_event(
                        now + self.params.batch_poll_interval,
                        EventKind::BatchTick { node },
                    );
                }
            }
            EventKind::Crash { node } => {
                self.down.insert(node);
                self.system.nodes[node].crash();
            }
            EventKind::Restart { node } => {
                self.down.remove(&node);
                let id = self.system.nodes[node].id();
                let actions = self.system.nodes[node].crash_restart();
                self.system.registry.counter("recovery.recoveries").inc();
                // The recover span: one event per recovery, keyed by the
                // restarting node (not part of the batch pipeline).
                self.tracer
                    .emit(u64::from(id.0), Stage::Recover, event.time);
                self.process_actions(ComponentId::Node(id), event.time, actions);
            }
        }
    }

    fn deliver(&mut self, from: ComponentId, to: ComponentId, msg: ProtocolMessage, now: SimTime) {
        // A crashed node is dark: anything addressed to it is lost.
        if let ComponentId::Node(node) = to {
            if self.down.contains(&(node.0 as usize)) {
                return;
            }
        }
        self.metrics.messages_delivered += 1;
        self.metrics.bytes_delivered += msg.wire_size() as u64;
        // CPU service at the receiving component.
        let cost =
            if let (ProtocolMessage::ClientRequest(req), ComponentId::Node(node)) = (&msg, to) {
                let is_primary = self
                    .system
                    .nodes
                    .get(node.0 as usize)
                    .is_some_and(sbft_core::ShimNode::is_primary);
                // The primary verifies client authentication as one aggregate
                // signature per batch (charged when the batch is released), so
                // admission pays only the per-request share; a non-primary
                // still verifies eagerly before forwarding.
                let mut cost = self.cpu.client_request_cost(msg.wire_size(), is_primary);
                if self.charge_routing && is_primary {
                    // Ordering-time shard routing: the primary classifies the
                    // declared read/write keys against the shard map (a
                    // forwarding non-primary never runs the classification).
                    let keys = req.txn.declared_rwset.as_ref().map_or_else(
                        || req.txn.num_ops(),
                        |rw| rw.read_keys.len() + rw.write_keys.len(),
                    );
                    cost += self.cpu.routing_cost(keys);
                }
                cost
            } else {
                self.cpu.message_cost(msg.kind(), msg.wire_size())
            };
        let done = match self.stations.get_mut(&to) {
            Some(station) => station.schedule(now, cost),
            None => now, // clients are not CPU-bound in the model
        };
        match to {
            ComponentId::Node(node_id) => {
                let idx = node_id.0 as usize;
                if idx >= self.system.nodes.len() {
                    return;
                }
                let actions = match &msg {
                    ProtocolMessage::ClientRequest(req) => {
                        if self.tracer.enabled() && self.system.nodes[idx].is_primary() {
                            // Remembered until the request's batch is
                            // released, then folded into its trace.
                            self.ingest_times.insert(req.txn.id, (now, done));
                        }
                        self.system.nodes[idx].on_client_request(req, done)
                    }
                    ProtocolMessage::Consensus(c) => {
                        if let Some(seq) = ordering_batch_seq(c) {
                            self.tracer.emit(seq.0, Stage::PrePrepare, done);
                        }
                        match from.as_node() {
                            Some(sender) => {
                                self.system.nodes[idx].on_consensus_message(sender, c.clone())
                            }
                            None => Vec::new(),
                        }
                    }
                    other => self.system.nodes[idx].on_message_at(other, done),
                };
                let actions = self.system.injector.apply(node_id, actions);
                self.process_actions(to, done, actions);
            }
            ComponentId::Verifier => {
                if let ProtocolMessage::Verify(v) = &msg {
                    self.tracer.emit(v.seq.0, Stage::VerifyIngest, now);
                }
                let actions = self.system.verifier.on_message(&msg);
                self.process_actions(to, done, actions);
            }
            ComponentId::Client(client_id) => {
                match &msg {
                    ProtocolMessage::Response(r) => {
                        self.tracer.emit(r.seq.0, Stage::Respond, now);
                    }
                    ProtocolMessage::Abort(a) => {
                        self.tracer.emit(a.seq.0, Stage::Respond, now);
                    }
                    _ => {}
                }
                let idx = client_id.0 as usize;
                if idx >= self.system.clients.len() {
                    return;
                }
                let actions = self.system.clients[idx].on_message(&msg);
                self.process_actions(to, done, actions);
            }
            _ => {}
        }
    }

    fn fire_timer(&mut self, owner: ComponentId, timer: ProtocolTimer, now: SimTime) {
        match owner {
            ComponentId::Node(node_id) => {
                let idx = node_id.0 as usize;
                if idx >= self.system.nodes.len() || self.down.contains(&idx) {
                    return;
                }
                let actions = self.system.nodes[idx].on_timer(timer, now);
                let actions = self.system.injector.apply(node_id, actions);
                self.process_actions(owner, now, actions);
            }
            ComponentId::Verifier => {
                let actions = self.system.verifier.on_timer(timer);
                self.process_actions(owner, now, actions);
            }
            ComponentId::Client(client_id) => {
                if let ProtocolTimer::ClientRequest(txn) = timer {
                    let idx = client_id.0 as usize;
                    if idx >= self.system.clients.len() {
                        return;
                    }
                    let actions = self.system.clients[idx].on_timeout(txn);
                    self.process_actions(owner, now, actions);
                }
            }
            _ => {}
        }
    }

    fn run_executor(
        &mut self,
        executor: ExecutorId,
        region: Region,
        behavior: ExecutorBehavior,
        execute: ExecuteRequest,
        now: SimTime,
    ) {
        let instance = self.system.make_executor_with(executor, region, behavior);
        let output = match instance.handle_execute(&execute) {
            Ok(output) => output,
            Err(_) => {
                self.system.cloud.release(executor);
                return;
            }
        };
        // The function's billable time: certificate validation + execution.
        let cert_cost = self.cpu.message_cost("EXECUTE", execute.wire_size());
        // Geo-partitioned storage: the executor bulk-fetches the batch's
        // read-write sets from every partition its keys are homed in.
        // Fetches to distinct partitions run in parallel, so the stall is
        // the worst round trip; a pinned executor whose batch is
        // single-home in its own region stalls only for the local hop.
        // The touched-partition set is a property of the batch alone, so
        // it is classified once per sequence number (every spawned
        // executor of the batch reuses it) through the storage view,
        // which also keeps the local/remote fetch counters.
        let fetch_stall = match &self.geo {
            Some(geo) => {
                let touched = self
                    .touched_partitions
                    .entry(execute.seq)
                    .or_insert_with(|| {
                        geo.regions_touched(
                            execute
                                .batch
                                .iter()
                                .flat_map(|t| t.ops.iter())
                                .map(|op| op.key()),
                        )
                    });
                let mut worst = SimDuration::ZERO;
                for home in touched.iter() {
                    let _remote = geo.record_partition_fetch(region, *home);
                    let rtt = self
                        .network
                        .inter_region_delay(region, *home, 256)
                        .saturating_mul(2);
                    worst = worst.max(rtt);
                }
                worst
            }
            None => SimDuration::ZERO,
        };
        let busy = cert_cost + fetch_stall + output.compute;
        self.metrics.executor_busy += busy;
        // Serverless executors run fully in parallel; the edge-execution
        // baselines funnel all execution through a fixed thread pool.
        let finished_at = match &mut self.edge_execution {
            Some(pool) => pool.schedule(now, busy),
            None => now + busy,
        };
        let busy = finished_at - now;
        let extra_delay = SimDuration::from_millis(behavior.extra_delay_ms());
        for verify in output.verify_messages {
            let msg = ProtocolMessage::Verify(verify);
            let delay = self.network.region_delay(region, msg.wire_size());
            self.push_event(
                now + busy + extra_delay + delay,
                EventKind::Deliver {
                    from: ComponentId::Executor(executor),
                    to: ComponentId::Verifier,
                    msg,
                },
            );
        }
        self.system.cloud.release(executor);
    }

    fn process_actions(&mut self, origin: ComponentId, now: SimTime, actions: Vec<Action>) {
        // Shard `ccheck` work announced in this action list gates the
        // sends that follow it: responses for a validated batch leave only
        // once every involved shard station has finished the batch's
        // validate-and-apply work. Unchained slices (single-home work) run
        // in parallel, each from `arrival`; chained slices are the
        // lock-ordered cross-shard staircase — shard i+1 starts only after
        // shard i grants, so `chain` carries the previous grant time. The
        // watermark `now` tracks the latest completion either way.
        let arrival = now;
        let mut chain = now;
        let mut now = now;
        // When the verifier's action list applies validated batches, the
        // whole list is their apply phase: mark each batch's start, the
        // shard slices, and (after the loop) each batch's end. One
        // quorum-completing VERIFY can release several queued batches
        // (ordered apply), so all of them are marked; the shard slices
        // are attributed to the first.
        let apply_seqs = if self.tracer.enabled() && origin == ComponentId::Verifier {
            let seqs = validated_batch_seqs(&actions);
            for seq in &seqs {
                self.tracer.emit(seq.0, Stage::ApplyStart, arrival);
            }
            seqs
        } else {
            Vec::new()
        };
        let apply_seq = apply_seqs.first().copied();
        for action in actions {
            match action {
                Action::ShardCcheck {
                    shard,
                    txns,
                    accesses,
                    planned,
                    chained,
                } => {
                    if self.shard_stations.is_empty() {
                        continue;
                    }
                    let idx = shard.0 as usize % self.shard_stations.len();
                    // The verified fast path skipped the per-transaction
                    // route sets and the probe key map; probed work pays
                    // for them.
                    let cost = if planned {
                        self.cpu.ccheck_cost(accesses as usize)
                    } else {
                        self.cpu
                            .ccheck_cost_probed(txns as usize, accesses as usize)
                    };
                    let start = if chained { chain } else { arrival };
                    let done = self.shard_stations[idx].schedule(start, cost);
                    if let Some(seq) = apply_seq {
                        self.tracer
                            .emit_shard(seq.0, Stage::ShardSliceStart, start, shard.0);
                        self.tracer
                            .emit_shard(seq.0, Stage::ShardSliceEnd, done, shard.0);
                    }
                    if chained {
                        chain = done;
                    }
                    now = now.max(done);
                }
                Action::Send(Envelope { from, to, msg }) => {
                    if let ProtocolMessage::Consensus(c) = &msg {
                        if let Some((seq, txn_ids)) = ordering_release(c) {
                            // Releasing a batch into ordering is where the
                            // primary verifies the one aggregate signature
                            // covering the batch's client authentication
                            // (the per-request share was charged at
                            // admission).
                            if let Some(station) = self.stations.get_mut(&origin) {
                                station.schedule(now, self.cpu.aggregate_batch_check_cost());
                            }
                            if self.tracer.enabled() {
                                self.mark_batch_release(seq, &txn_ids, now);
                            }
                        }
                    }
                    let targets: Vec<ComponentId> = match to {
                        Destination::Node(n) => vec![ComponentId::Node(n)],
                        Destination::AllNodes => self
                            .system
                            .nodes
                            .iter()
                            .map(|n| ComponentId::Node(n.id()))
                            .filter(|c| *c != origin)
                            .collect(),
                        Destination::Client(c) => vec![ComponentId::Client(c)],
                        Destination::Executor(e) => vec![ComponentId::Executor(e)],
                        Destination::Verifier => vec![ComponentId::Verifier],
                    };
                    // Sender-side egress accounting for node-to-node
                    // (ordering) traffic, charged per target before the
                    // fault plan arbitrates delivery. The leader counter is
                    // what id-only proposals exist to shrink.
                    if let Some(src) = origin.as_node() {
                        let node_targets = targets
                            .iter()
                            .filter(|t| matches!(t, ComponentId::Node(_)))
                            .count();
                        if node_targets > 0 {
                            let bytes = (msg.wire_size() * node_targets) as u64;
                            let registry = &self.system.registry;
                            registry
                                .counter(&format!("net.{}.egress_bytes", src.0))
                                .add(bytes);
                            let is_leader = self
                                .system
                                .nodes
                                .get(src.0 as usize)
                                .is_some_and(|n| n.primary() == src);
                            if is_leader {
                                registry.counter("net.leader_egress_bytes").add(bytes);
                            }
                        }
                    }
                    for target in targets {
                        let delay = self.network.local_delay(msg.wire_size());
                        // The chaos layer arbitrates node-to-node links
                        // only: client, executor and verifier traffic is
                        // out of scope for the fault plan. Each returned
                        // entry is one delivered copy (empty = dropped).
                        let copies: Vec<SimDuration> =
                            match (self.faults.as_mut(), origin.as_node(), target) {
                                (Some(faults), Some(src), ComponentId::Node(dst)) => {
                                    faults.deliveries(src, dst, now)
                                }
                                _ => vec![SimDuration::ZERO],
                            };
                        for extra in copies {
                            self.push_event(
                                now + delay + extra,
                                EventKind::Deliver {
                                    from,
                                    to: target,
                                    msg: msg.clone(),
                                },
                            );
                        }
                    }
                }
                Action::StartTimer { timer, duration } => {
                    let entry = self.timer_generation.entry((origin, timer)).or_insert(0);
                    *entry += 1;
                    let generation = *entry;
                    self.push_event(
                        now + duration,
                        EventKind::Timer {
                            owner: origin,
                            timer,
                            generation,
                        },
                    );
                }
                Action::CancelTimer(timer) => {
                    *self.timer_generation.entry((origin, timer)).or_insert(0) += 1;
                }
                Action::Persist { bytes, fsync } => {
                    // WAL writes run on the component's own station and
                    // gate every later action in this list: a synced vote
                    // is durable before its COMMIT leaves the node. A
                    // fault-plan disk-lag straggler stretches the fsync
                    // beyond the CPU model's fixed cost.
                    let lag = match (self.faults.as_mut(), fsync, origin.as_node()) {
                        (Some(faults), true, Some(node)) => faults.fsync_extra(node),
                        _ => SimDuration::ZERO,
                    };
                    if let Some(station) = self.stations.get_mut(&origin) {
                        let done = station.schedule(now, self.cpu.persist_cost(bytes, fsync) + lag);
                        now = now.max(done);
                    }
                }
                Action::SpawnExecutor { request, execute } => {
                    self.tracer.emit(execute.seq.0, Stage::ExecuteSpawn, now);
                    let spawn_region = request.region;
                    // Issuing the spawn costs CPU at the spawning node (the
                    // invoker signs and ships the request to the provider).
                    let spawn_issue_done = match self.stations.get_mut(&origin) {
                        Some(station) => station.schedule(now, self.cpu.spawn_cost),
                        None => now,
                    };
                    match self.system.cloud.spawn(request) {
                        Ok(outcome) => {
                            let spawn_delay = match origin.as_node() {
                                Some(node) => self.system.injector.spawn_delay(node),
                                None => SimDuration::ZERO,
                            };
                            let now = spawn_issue_done;
                            let ship = self
                                .network
                                .region_delay(outcome.region, execute.wire_size());
                            self.push_event(
                                now + spawn_delay + outcome.cold_start + ship,
                                EventKind::ExecutorRun {
                                    executor: outcome.executor,
                                    region: outcome.region,
                                    behavior: outcome.behavior,
                                    execute: Box::new(execute),
                                },
                            );
                        }
                        Err(_) => {
                            // Rejected; counted at the end of the run from
                            // the cloud's stats. If the cause is a region
                            // outage, the rejection doubles as the reactive
                            // outage signal: the spawning node marks the
                            // region down and probes it again later.
                            if self.system.cloud.region_is_down(spawn_region) {
                                if let Some(node) = origin.as_node() {
                                    let idx = node.0 as usize;
                                    if idx < self.system.nodes.len() {
                                        let reactions =
                                            self.system.nodes[idx].on_spawn_rejected(spawn_region);
                                        self.process_actions(origin, spawn_issue_done, reactions);
                                    }
                                }
                            }
                        }
                    }
                }
                Action::TxnCompleted { txn, outcome } => {
                    if self.in_window(now) {
                        match outcome {
                            TxnOutcome::Committed => self.metrics.committed_txns += 1,
                            TxnOutcome::Aborted => self.metrics.aborted_txns += 1,
                        }
                        if let Some(submitted) = self.submit_times.get(&txn) {
                            self.metrics.latency.record(now.since(*submitted));
                        }
                    }
                    self.submit_times.remove(&txn);
                    // Closed loop: the client immediately issues its next
                    // request (Section IX, Setup).
                    if now < self.end_time() {
                        let client = txn.client;
                        let idx = client.0 as usize;
                        if idx < self.system.clients.len() {
                            let next = self.workload.next_transaction(client);
                            self.submit_times.insert(next.id, now);
                            let actions = self.system.clients[idx].submit(next);
                            self.process_actions(ComponentId::Client(client), now, actions);
                        }
                    }
                }
                Action::BatchCommitted { seq, .. } => {
                    self.tracer.emit(seq.0, Stage::CommitQuorum, now);
                    // The NoShim baseline never sends an ordering message,
                    // so its once-per-batch aggregate client-authentication
                    // check lands at commit time instead.
                    if matches!(
                        self.system.protocol,
                        sbft_core::system::ShimProtocol::NoShim
                    ) {
                        if let Some(station) = self.stations.get_mut(&origin) {
                            station.schedule(now, self.cpu.aggregate_batch_check_cost());
                        }
                    }
                }
            }
        }
        for seq in &apply_seqs {
            self.tracer.emit(seq.0, Stage::ApplyEnd, now);
        }
    }

    /// Emits the batch-release markers: the batch's earliest member
    /// admission (shim ingest), earliest lane enqueue, and the release
    /// itself. The members' admission times are consumed here.
    fn mark_batch_release(&mut self, seq: SeqNum, txn_ids: &[TxnId], now: SimTime) {
        let mut first_arrival: Option<SimTime> = None;
        let mut first_enqueue: Option<SimTime> = None;
        for id in txn_ids {
            if let Some((arrival, enqueued)) = self.ingest_times.remove(id) {
                first_arrival = Some(first_arrival.map_or(arrival, |a| a.min(arrival)));
                first_enqueue = Some(first_enqueue.map_or(enqueued, |e| e.min(enqueued)));
            }
        }
        if let Some(at) = first_arrival {
            self.tracer.emit(seq.0, Stage::ShimIngest, at);
        }
        if let Some(at) = first_enqueue {
            self.tracer.emit(seq.0, Stage::LaneEnqueue, at);
        }
        self.tracer.emit(seq.0, Stage::BatchRelease, now);
    }
}

/// The sequence number and transaction ids of a batch-releasing ordering
/// message (the batch-release edge of PBFT and CFT), if this is one. A
/// PBFT proposal releases the batch without carrying the bodies — the ids
/// ride the message instead.
fn ordering_release(msg: &sbft_consensus::ConsensusMessage) -> Option<(SeqNum, Vec<TxnId>)> {
    match msg {
        sbft_consensus::ConsensusMessage::PrePrepare(p) => Some((p.seq, p.txn_ids.clone())),
        sbft_consensus::ConsensusMessage::CftAccept(a) => Some((a.seq, a.batch.txn_ids())),
        _ => None,
    }
}

/// The sequence number of a batch-releasing ordering message, if any.
fn ordering_batch_seq(msg: &sbft_consensus::ConsensusMessage) -> Option<SeqNum> {
    match msg {
        sbft_consensus::ConsensusMessage::PrePrepare(p) => Some(p.seq),
        sbft_consensus::ConsensusMessage::CftAccept(a) => Some(a.seq),
        _ => None,
    }
}

/// The batches a verifier action list validated, identified by their
/// outcome-bearing sends (response, abort or batch-validated broadcast),
/// deduplicated in first-seen order.
fn validated_batch_seqs(actions: &[Action]) -> Vec<SeqNum> {
    let mut seqs = Vec::new();
    for action in actions {
        let seq = match action {
            Action::Send(Envelope { msg, .. }) => match msg {
                ProtocolMessage::Response(r) => Some(r.seq),
                ProtocolMessage::Abort(a) => Some(a.seq),
                ProtocolMessage::BatchValidated(b) => Some(b.seq),
                _ => None,
            },
            _ => None,
        };
        if let Some(seq) = seq {
            if !seqs.contains(&seq) {
                seqs.push(seq);
            }
        }
    }
    seqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_core::system::ShimProtocol;
    use sbft_core::{ShimAttack, SystemBuilder};
    use sbft_types::{ConflictHandling, SystemConfig};
    use sbft_types::{NodeId, ShardId};

    fn tiny_config() -> SystemConfig {
        let mut cfg = SystemConfig::with_shim_size(4);
        cfg.workload.num_records = 2_000;
        cfg.workload.batch_size = 10;
        cfg.workload.num_clients = 40;
        cfg.regions = sbft_types::RegionSet::first_n(3);
        cfg
    }

    fn tiny_params() -> SimParams {
        SimParams {
            duration: SimDuration::from_millis(300),
            warmup: SimDuration::from_millis(100),
            num_clients: 40,
            seed: 7,
            ..SimParams::default()
        }
    }

    #[test]
    fn closed_loop_run_commits_transactions_end_to_end() {
        let system = SystemBuilder::new(tiny_config()).clients(40).build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(
            metrics.committed_txns > 50,
            "committed {}",
            metrics.committed_txns
        );
        assert_eq!(metrics.aborted_txns, 0);
        assert_eq!(
            metrics.divergent_aborts, 0,
            "honest executors never diverge"
        );
        assert!(metrics.throughput_tps() > 100.0);
        assert!(metrics.avg_latency_secs() > 0.001);
        assert!(metrics.latency.p99_secs() >= metrics.latency.p50_secs());
        assert!(metrics.executors_spawned > 0);
        assert!(metrics.messages_delivered > 100);
    }

    #[test]
    fn proposals_ship_ids_so_leader_egress_stays_below_the_bodies() {
        // Bigger batches than `tiny_config` so transaction bodies dominate
        // the proposal framing. The client broadcast keeps replica caches
        // warm, so proposals are rebuilt locally instead of shipping bodies.
        let mut cfg = tiny_config();
        cfg.workload.batch_size = 40;
        cfg.workload.num_clients = 80;
        let system = SystemBuilder::new(cfg).clients(80).build();
        let metrics = SimHarness::new(
            system,
            SimParams {
                num_clients: 80,
                ..tiny_params()
            },
        )
        .run();
        assert!(
            metrics.committed_txns > 50,
            "committed {}",
            metrics.committed_txns
        );
        assert_eq!(metrics.aborted_txns, 0);
        assert!(
            metrics.body_cache_hits > 0,
            "replicas rebuild proposals from their body caches"
        );
        assert_eq!(metrics.batch_fetches, 0, "warm caches never fetch");
        // The leader's bytes per committed transaction stay far below
        // re-shipping each body to the three replicas: a 1-op body is
        // 16 + 17 + 20 = 53 bytes on the wire.
        assert!(metrics.leader_egress_bytes > 0);
        let per_txn = metrics.leader_egress_bytes as f64 / metrics.committed_txns as f64;
        assert!(
            per_txn < 3.0 * 53.0,
            "leader egress {per_txn:.1} B/txn must stay below the bodies"
        );
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let run = || {
            let system = SystemBuilder::new(tiny_config()).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.committed_txns, b.committed_txns);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.executors_spawned, b.executors_spawned);
    }

    #[test]
    fn more_clients_do_not_reduce_throughput() {
        let few = {
            let system = SystemBuilder::new(tiny_config()).clients(10).build();
            SimHarness::new(
                system,
                SimParams {
                    num_clients: 10,
                    ..tiny_params()
                },
            )
            .run()
        };
        let many = {
            let system = SystemBuilder::new(tiny_config()).clients(80).build();
            SimHarness::new(
                system,
                SimParams {
                    num_clients: 80,
                    ..tiny_params()
                },
            )
            .run()
        };
        assert!(many.throughput_tps() >= few.throughput_tps() * 0.9);
        assert!(many.avg_latency_secs() >= few.avg_latency_secs() * 0.9);
    }

    #[test]
    fn cft_and_noshim_baselines_run_and_outperform_bft() {
        let bft = {
            let system = SystemBuilder::new(tiny_config()).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        let cft = {
            let system = SystemBuilder::new(tiny_config())
                .protocol(ShimProtocol::Cft)
                .clients(40)
                .build();
            SimHarness::new(system, tiny_params()).run()
        };
        let noshim = {
            let system = SystemBuilder::new(tiny_config())
                .protocol(ShimProtocol::NoShim)
                .clients(40)
                .build();
            SimHarness::new(system, tiny_params()).run()
        };
        assert!(cft.committed_txns > 0);
        assert!(noshim.committed_txns > 0);
        assert!(
            noshim.throughput_tps() >= bft.throughput_tps(),
            "NoShim {} vs BFT {}",
            noshim.throughput_tps(),
            bft.throughput_tps()
        );
        assert!(
            cft.throughput_tps() >= bft.throughput_tps() * 0.9,
            "CFT {} vs BFT {}",
            cft.throughput_tps(),
            bft.throughput_tps()
        );
    }

    #[test]
    fn byzantine_executors_do_not_block_progress() {
        use sbft_serverless::cloud::CloudFaultPlan;
        let system = SystemBuilder::new(tiny_config())
            .clients(40)
            .cloud_faults(CloudFaultPlan {
                byzantine_per_batch: 1,
                behavior: ExecutorBehavior::WrongResult,
            })
            .build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(
            metrics.committed_txns > 50,
            "committed {}",
            metrics.committed_txns
        );
    }

    #[test]
    fn crashing_executors_within_fe_do_not_block_progress() {
        use sbft_serverless::cloud::CloudFaultPlan;
        let system = SystemBuilder::new(tiny_config())
            .clients(40)
            .cloud_faults(CloudFaultPlan {
                byzantine_per_batch: 1,
                behavior: ExecutorBehavior::Crash,
            })
            .build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(metrics.committed_txns > 0);
    }

    #[test]
    fn suppressing_primary_is_replaced_and_progress_resumes() {
        let mut cfg = tiny_config();
        // Shorter timers so the recovery fits in the simulated window.
        cfg.timers.client_timeout = SimDuration::from_millis(40);
        cfg.timers.node_timeout = SimDuration::from_millis(30);
        cfg.timers.retransmit_timeout = SimDuration::from_millis(30);
        let system = SystemBuilder::new(cfg)
            .clients(40)
            .attack(NodeId(0), ShimAttack::SuppressRequests)
            .build();
        let params = SimParams {
            duration: SimDuration::from_millis(600),
            warmup: SimDuration::from_millis(50),
            num_clients: 40,
            seed: 3,
            ..SimParams::default()
        };
        let metrics = SimHarness::new(system, params).run();
        assert!(
            metrics.committed_txns > 0,
            "the shim must recover from a suppressing primary"
        );
    }

    #[test]
    fn conflicting_workload_aborts_some_transactions() {
        let mut cfg = tiny_config();
        cfg.conflict_handling = ConflictHandling::UnknownRwSets;
        cfg.workload.conflict_fraction = 0.5;
        let system = SystemBuilder::new(cfg).clients(40).build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(metrics.committed_txns > 0);
        assert!(
            metrics.aborted_txns > 0,
            "50% conflicts with unknown rw-sets must cause aborts"
        );
    }

    #[test]
    fn shard_count_scales_a_ccheck_bound_verifier() {
        // Make the per-transaction ccheck expensive enough that the shard
        // stations are the bottleneck, then check that adding shards
        // raises committed throughput (Figure 6(ix)-style core scaling,
        // applied to the sharded commit path).
        let run = |shards: usize| {
            let mut cfg = tiny_config();
            cfg.workload.num_clients = 240;
            cfg.sharding = sbft_types::ShardingConfig::with_shards(shards);
            let system = SystemBuilder::new(cfg).clients(240).build();
            let cpu = CpuModel {
                storage_access_cost: SimDuration::from_micros(400),
                ..CpuModel::default()
            };
            SimHarness::with_models(
                system,
                SimParams {
                    num_clients: 240,
                    ..tiny_params()
                },
                crate::network::NetworkModel::default(),
                cpu,
            )
            .run()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four.committed_txns as f64 >= one.committed_txns as f64 * 1.5,
            "4 shards ({}) must clearly beat 1 shard ({})",
            four.committed_txns,
            one.committed_txns
        );
    }

    #[test]
    fn chained_cchecks_climb_the_lock_ordered_staircase() {
        // Cross-shard (`chained`) ccheck slices model the lock-ordered
        // two-phase acquisition: shard i+1 starts only after shard i
        // grants, so completions form a strict staircase. Single-home
        // (unchained) slices keep running in parallel from arrival.
        let mk_harness = || {
            let system = SystemBuilder::new({
                let mut c = tiny_config();
                c.sharding = sbft_types::ShardingConfig::with_shards(4);
                c
            })
            .clients(4)
            .build();
            SimHarness::new(system, tiny_params())
        };
        let slice = |shard: u32, chained: bool| Action::ShardCcheck {
            shard: ShardId(shard),
            txns: 1,
            accesses: 10,
            planned: false,
            chained,
        };
        let probe = |h: &mut SimHarness| -> Vec<SimTime> {
            h.shard_stations
                .iter_mut()
                .map(|s| s.schedule(SimTime::ZERO, SimDuration::ZERO))
                .collect()
        };
        let cost = CpuModel::default().ccheck_cost_probed(1, 10);

        let mut chained = mk_harness();
        chained.process_actions(
            ComponentId::Verifier,
            SimTime::ZERO,
            vec![slice(0, true), slice(1, true), slice(2, true)],
        );
        let steps = probe(&mut chained);
        assert_eq!(steps[0], SimTime::ZERO + cost, "first lock from arrival");
        assert_eq!(
            steps[1],
            SimTime::ZERO + cost + cost,
            "shard 1 starts after shard 0 grants"
        );
        assert_eq!(steps[2], SimTime::ZERO + cost + cost + cost);

        let mut parallel = mk_harness();
        parallel.process_actions(
            ComponentId::Verifier,
            SimTime::ZERO,
            vec![slice(0, false), slice(1, false), slice(2, false)],
        );
        let flat = probe(&mut parallel);
        for done in &flat[..3] {
            assert_eq!(*done, SimTime::ZERO + cost, "unchained slices overlap");
        }
    }

    #[test]
    fn cross_shard_batches_pay_the_staircase_in_commit_latency() {
        // Metrics-level staircase: the same key-disjoint workload, once
        // as single-home transactions and once as 2-key cross-home
        // transactions over geo-unaware shards. With an expensive ccheck
        // the cross-home run's mean commit latency must carry the
        // serialised (chained) shard acquisitions instead of the
        // parallel charge.
        let run = |ops_per_txn: usize| {
            let mut cfg = tiny_config();
            cfg.workload.num_clients = 60;
            cfg.workload.ops_per_txn = ops_per_txn;
            cfg.sharding = sbft_types::ShardingConfig::with_shards(4);
            let system = SystemBuilder::new(cfg).clients(60).build();
            let cpu = CpuModel {
                storage_access_cost: SimDuration::from_micros(600),
                ..CpuModel::default()
            };
            SimHarness::with_models(
                system,
                SimParams {
                    num_clients: 60,
                    ..tiny_params()
                },
                crate::network::NetworkModel::default(),
                cpu,
            )
            .run()
        };
        let single = run(1);
        let cross = run(2);
        assert!(single.committed_txns > 0 && cross.committed_txns > 0);
        assert!(
            cross.avg_latency_secs() > single.avg_latency_secs() * 1.5,
            "lock-ordered chaining must show up in latency: cross {} vs single {}",
            cross.avg_latency_secs(),
            single.avg_latency_secs()
        );
    }

    #[test]
    fn geo_partitioning_charges_remote_fetches_and_pinning_removes_them() {
        // Plan-aware placement end to end in the simulator: same
        // single-home workload over geo-partitioned storage, once with
        // the invoker pinning SingleHome batches to their home region
        // and once with the round-robin baseline. Pinning must (a)
        // actually pin, (b) drive the remote-fetch rate down, and (c)
        // not raise the mean commit latency.
        let run = |pinned: bool| {
            let mut cfg = tiny_config();
            cfg.conflict_handling = ConflictHandling::KnownRwSets;
            cfg.regions = sbft_types::RegionSet::first_n(3);
            cfg.sharding = sbft_types::ShardingConfig::with_shards(6)
                .with_geo_partitioning()
                .with_pinned_placement(pinned);
            let system = SystemBuilder::new(cfg).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        let pinned = run(true);
        let rr = run(false);
        assert!(pinned.committed_txns > 0 && rr.committed_txns > 0);
        assert!(pinned.pinned_spawns > 0, "SingleHome batches must pin");
        assert_eq!(rr.pinned_spawns, 0, "the baseline never pins");
        assert!(
            pinned.remote_fetch_rate() < rr.remote_fetch_rate(),
            "pinning must cut cross-region fetches: {} vs {}",
            pinned.remote_fetch_rate(),
            rr.remote_fetch_rate()
        );
        assert!(
            pinned.avg_latency_secs() <= rr.avg_latency_secs(),
            "pinned placement must not be slower: {} vs {}",
            pinned.avg_latency_secs(),
            rr.avg_latency_secs()
        );
    }

    #[test]
    fn crash_restarted_backup_replays_its_wal_and_liveness_degrades_gracefully() {
        let mut cfg = tiny_config();
        // A wide snapshot interval keeps replayable entries in the log at
        // the crash point (truncation itself is pinned by
        // `snapshots_truncate_the_wal_during_a_run`).
        cfg.durability = sbft_types::DurabilityConfig::enabled().with_snapshot_interval(1_000);
        let baseline = {
            let system = SystemBuilder::new(cfg.clone()).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        let crashed = {
            let system = SystemBuilder::new(cfg.clone()).clients(40).build();
            let params = SimParams {
                crash: Some(CrashRestart::of(
                    NodeId(2),
                    SimDuration::from_millis(150),
                    SimDuration::from_millis(60),
                )),
                ..tiny_params()
            };
            SimHarness::new(system, params).run()
        };
        assert!(baseline.wal_appends > 0, "durability logs protocol steps");
        assert_eq!(baseline.recoveries, 0);
        assert_eq!(crashed.recoveries, 1);
        assert!(
            crashed.replay_batches > 0,
            "the restarted backup replays committed batches from its WAL"
        );
        assert!(
            crashed.state_transfer_batches > 0,
            "the suffix committed while the node was dark is state-transferred"
        );
        // One crashed backup must not stop the shim (quorum of 3 remains),
        // and throughput degrades gracefully rather than collapsing.
        assert!(
            crashed.committed_txns as f64 > baseline.committed_txns as f64 * 0.5,
            "crashed {} vs baseline {}",
            crashed.committed_txns,
            baseline.committed_txns
        );
    }

    #[test]
    fn snapshots_truncate_the_wal_during_a_run() {
        let mut cfg = tiny_config();
        cfg.durability = sbft_types::DurabilityConfig::enabled().with_snapshot_interval(4);
        let system = SystemBuilder::new(cfg).clients(40).build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(metrics.committed_txns > 0);
        assert!(
            metrics.snapshot_bytes > 0,
            "the snapshot rhythm reclaims log bytes"
        );
    }

    #[test]
    fn crash_restarting_the_primary_is_survivable() {
        let mut cfg = tiny_config();
        cfg.durability = sbft_types::DurabilityConfig::enabled();
        cfg.timers.client_timeout = SimDuration::from_millis(40);
        cfg.timers.node_timeout = SimDuration::from_millis(30);
        cfg.timers.retransmit_timeout = SimDuration::from_millis(30);
        let system = SystemBuilder::new(cfg).clients(40).build();
        let params = SimParams {
            duration: SimDuration::from_millis(600),
            warmup: SimDuration::from_millis(50),
            num_clients: 40,
            seed: 3,
            crash: Some(CrashRestart::of(
                NodeId(0),
                SimDuration::from_millis(120),
                SimDuration::from_millis(80),
            )),
            ..SimParams::default()
        };
        let metrics = SimHarness::new(system, params).run();
        assert_eq!(metrics.recoveries, 1);
        assert!(
            metrics.committed_txns > 0,
            "the shim must replace the crashed primary and keep committing"
        );
    }

    /// A durable deployment with short timers, optionally losing its
    /// primary to `crash`.
    fn failover_run(crash: Option<CrashRestart>) -> RunMetrics {
        let mut cfg = tiny_config();
        cfg.durability = sbft_types::DurabilityConfig::enabled();
        cfg.timers.client_timeout = SimDuration::from_millis(120);
        cfg.timers.node_timeout = SimDuration::from_millis(80);
        cfg.timers.retransmit_timeout = SimDuration::from_millis(80);
        let system = SystemBuilder::new(cfg).clients(40).build();
        let params = SimParams {
            duration: SimDuration::from_millis(1_200),
            warmup: SimDuration::from_millis(50),
            num_clients: 40,
            seed: 5,
            crash,
            ..SimParams::default()
        };
        SimHarness::new(system, params).run()
    }

    #[test]
    fn failover_keeps_half_the_fault_free_throughput() {
        // The primary is dark for most of the measured window. One view
        // change must replace it, and because PBFT clients address every
        // node, requests issued after the view change reach the new
        // primary directly: the shim keeps at least half of the
        // fault-free commits instead of routing every request around the
        // dead primary through client timeouts and the verifier.
        let fault_free = failover_run(None);
        let failover = failover_run(Some(CrashRestart::of(
            NodeId(0),
            SimDuration::from_millis(100),
            SimDuration::from_millis(1_000),
        )));
        assert_eq!(fault_free.view_changes, 0);
        assert_eq!(failover.recoveries, 1);
        assert_eq!(failover.view_changes, 1, "exactly one primary replacement");
        assert!(
            2 * failover.committed_txns >= fault_free.committed_txns,
            "failover committed {} of the fault-free {}",
            failover.committed_txns,
            fault_free.committed_txns
        );
    }

    #[test]
    fn durability_costs_bound_the_fsync_tax() {
        // The fsync-aware cost axis: a durable run pays for its synced
        // WAL writes, so it can never commit more than the identical run
        // without durability.
        let plain = {
            let system = SystemBuilder::new(tiny_config()).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        let durable = {
            let mut cfg = tiny_config();
            cfg.durability = sbft_types::DurabilityConfig::enabled();
            let system = SystemBuilder::new(cfg).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        assert!(durable.committed_txns > 0);
        assert!(
            durable.committed_txns <= plain.committed_txns,
            "durable {} vs plain {}",
            durable.committed_txns,
            plain.committed_txns
        );
    }

    #[test]
    fn concurrency_limit_rejections_are_counted() {
        let system = SystemBuilder::new(tiny_config())
            .clients(40)
            .cloud_concurrency_limit(2)
            .build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(metrics.spawns_rejected > 0);
    }
}
