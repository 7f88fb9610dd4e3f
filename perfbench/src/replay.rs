//! The traced replay: one workload's deployment driven on one thread.
//!
//! The replay mirrors `LocalCluster`'s delivery — every message routed
//! FIFO through one queue, the same per-message entry points, the batcher
//! polled after every shim delivery, one executor object per spawn — but
//! calls every role from this thread and times each call. Each call is a
//! span (layer, start, end, batch or transaction id, and the span that
//! caused it); WAL appends and syncs, seen through a timed
//! `WriteAheadLog` wrapper attached with `ShimNode::attach_wal`, are
//! spans nested inside the shim call that issued them. A span's self time
//! is its duration minus the part its children cover; the loop's wall
//! time minus every self time is the unattributed remainder (routing,
//! queueing, load generation).

use crate::report::Counts;
use crate::workloads::Workload;
use serverless_bft::consensus::ConsensusMessage;
use serverless_bft::core::{Action, Destination, Envelope, ProtocolMessage, SystemBuilder};
use serverless_bft::durability::{FileWal, WalRecord, WriteAheadLog};
use serverless_bft::serverless::{ExecuteRequest, Executor, ExecutorBehavior, SpawnRequest};
use serverless_bft::storage::StorageReader;
use serverless_bft::types::{
    ClientId, ComponentId, ConflictHandling, ExecutorId, NodeId, SeqNum, SimTime, TxnOutcome,
};
use serverless_bft::workloads::{KeyDistribution, YcsbWorkload};
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The layers a span can belong to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Client,
    ShimIngest,
    Batcher,
    Ordering,
    WalAppend,
    WalSync,
    Execute,
    Verifier,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Client,
        Layer::ShimIngest,
        Layer::Batcher,
        Layer::Ordering,
        Layer::WalAppend,
        Layer::WalSync,
        Layer::Execute,
        Layer::Verifier,
    ];

    /// The per-layer metric this layer's self time is reported under.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Client => "core.client.busy_us_per_txn",
            Layer::ShimIngest => "core.shim.ingest_busy_us_per_txn",
            Layer::Batcher => "consensus.batcher.busy_us_per_txn",
            Layer::Ordering => "consensus.ordering.busy_us_per_txn",
            Layer::WalAppend => "durability.wal.append_us_per_txn",
            Layer::WalSync => "durability.wal.sync_us_per_txn",
            Layer::Execute => "serverless.execute.busy_us_per_txn",
            Layer::Verifier => "core.verifier.busy_us_per_txn",
        }
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|l| *l == self).expect("listed")
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One timed call.
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    /// Batch sequence number, or the packed transaction id for client
    /// and ingest spans; 0 when the call carries neither.
    id: u64,
    parent: u32,
}

/// Spans kept in memory until the replay ends.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn time<R>(&mut self, layer: Layer, id: u64, parent: u32, f: impl FnOnce() -> R) -> (u32, R) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            id,
            parent,
        });
        (index, out)
    }

    /// Adopts the WAL calls made during span `parent` as its children.
    fn adopt_wal_calls(&mut self, calls: &Mutex<Vec<WalCall>>, parent: u32) {
        let id = self.spans[parent as usize].id;
        let drained: Vec<WalCall> = calls.lock().expect("WAL log poisoned").drain(..).collect();
        for call in drained {
            self.spans.push(Span {
                layer: if call.sync {
                    Layer::WalSync
                } else {
                    Layer::WalAppend
                },
                start_ns: call.start_ns,
                end_ns: call.end_ns,
                id,
                parent,
            });
        }
    }
}

/// One call into the WAL.
struct WalCall {
    /// An fsync: `sync`, or the rewrite-and-sync of `truncate_below`.
    sync: bool,
    start_ns: u64,
    end_ns: u64,
}

/// A `FileWal` that times its appends and syncs.
struct TimedWal {
    inner: FileWal,
    epoch: Instant,
    calls: Arc<Mutex<Vec<WalCall>>>,
    /// Fsyncs issued and bytes appended, over every node's log.
    totals: Arc<Mutex<(u64, u64)>>,
}

impl TimedWal {
    fn record(&self, sync: bool, start: Instant, bytes: u64) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.calls.lock().expect("WAL log poisoned").push(WalCall {
            sync,
            start_ns,
            end_ns,
        });
        let mut totals = self.totals.lock().expect("WAL totals poisoned");
        if sync {
            totals.0 += 1;
        } else {
            totals.1 += bytes;
        }
    }
}

impl WriteAheadLog for TimedWal {
    fn append(&mut self, record: &WalRecord) -> u64 {
        let start = Instant::now();
        let bytes = self.inner.append(record);
        self.record(false, start, bytes);
        bytes
    }

    fn sync(&mut self) {
        let start = Instant::now();
        self.inner.sync();
        self.record(true, start, 0);
    }

    fn replay(&self) -> Vec<WalRecord> {
        self.inner.replay()
    }

    fn truncate_below(&mut self, upto: SeqNum) -> u64 {
        let start = Instant::now();
        let dropped = self.inner.truncate_below(upto);
        self.record(true, start, 0);
        dropped
    }

    fn durable_len(&self) -> usize {
        self.inner.durable_len()
    }

    fn unsynced_len(&self) -> usize {
        self.inner.unsynced_len()
    }

    fn lose_unsynced(&mut self) {
        self.inner.lose_unsynced();
    }
}

/// What the replay measured.
pub struct Replay {
    pub committed: u64,
    pub aborted: u64,
    pub wall: Duration,
    /// Self time per layer, indexed like `Layer::ALL`.
    pub busy: [Duration; 8],
    /// Calls per layer, indexed like `Layer::ALL`.
    pub calls: [u64; 8],
    /// Node-to-node messages routed, their wire bytes, and the bytes the
    /// primary sent.
    pub messages: u64,
    pub bytes: u64,
    pub leader_bytes: u64,
    pub wal_bytes: u64,
    pub wal_syncs: u64,
    /// The replay deployment's registry after the run.
    pub counts: Counts,
}

impl Replay {
    pub fn busy(&self, layer: Layer) -> Duration {
        self.busy[layer.index()]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    pub fn unattributed(&self) -> Duration {
        self.wall.saturating_sub(self.busy.iter().sum())
    }
}

enum Work {
    Node {
        idx: usize,
        from: ComponentId,
        msg: ProtocolMessage,
    },
    Verifier(ProtocolMessage),
    Client(ProtocolMessage),
    Pool(Box<(SpawnRequest, ExecuteRequest)>),
}

/// The FIFO delivery queue and the message counts routing sees.
struct Queue {
    items: VecDeque<(Work, u32)>,
    nodes: usize,
    messages: u64,
    bytes: u64,
    leader_bytes: u64,
}

impl Queue {
    /// Routes `actions` the way `LocalCluster`'s router does: sends to
    /// nodes (broadcasts skip the origin), the verifier and clients;
    /// spawns to the executor pool; timers and metric hooks dropped.
    fn route(&mut self, origin: ComponentId, leader: bool, actions: Vec<Action>, cause: u32) {
        for action in actions {
            match action {
                Action::Send(Envelope { from, to, msg }) => match to {
                    Destination::Node(n) => {
                        let idx = n.0 as usize;
                        if idx < self.nodes {
                            self.count(origin, leader, &msg);
                            self.items.push_back((Work::Node { idx, from, msg }, cause));
                        }
                    }
                    Destination::AllNodes => {
                        for idx in 0..self.nodes {
                            if ComponentId::Node(NodeId(idx as u32)) != origin {
                                self.count(origin, leader, &msg);
                                let msg = msg.clone();
                                self.items.push_back((Work::Node { idx, from, msg }, cause));
                            }
                        }
                    }
                    Destination::Verifier => self.items.push_back((Work::Verifier(msg), cause)),
                    Destination::Client(_) => self.items.push_back((Work::Client(msg), cause)),
                    Destination::Executor(_) => {}
                },
                Action::SpawnExecutor { request, execute } => {
                    self.items
                        .push_back((Work::Pool(Box::new((request, execute))), cause));
                }
                _ => {}
            }
        }
    }

    fn count(&mut self, origin: ComponentId, leader: bool, msg: &ProtocolMessage) {
        if matches!(origin, ComponentId::Node(_)) {
            let bytes = msg.wire_size() as u64;
            self.messages += 1;
            self.bytes += bytes;
            if leader {
                self.leader_bytes += bytes;
            }
        }
    }
}

fn txn_key(txn: serverless_bft::types::TxnId) -> u64 {
    (u64::from(txn.client.0) << 40) | (txn.counter & ((1 << 40) - 1))
}

fn batch_seq(msg: &ConsensusMessage) -> u64 {
    match msg {
        ConsensusMessage::PrePrepare(p) => p.seq.0,
        ConsensusMessage::CftAccept(a) => a.seq.0,
        _ => 0,
    }
}

/// Replays `workload` until `target` transactions complete, writing the
/// spans to `spans_path`. `wal_dir` holds the replay's WAL files when
/// the deployment is durable; it is created empty and removed after.
pub fn run(
    workload: &Workload,
    seed: u64,
    target: u64,
    wal_dir: &Path,
    spans_path: &Path,
) -> Result<Replay, String> {
    let config = workload.config();
    let mut system = SystemBuilder::new(config.clone())
        .seed(seed)
        .clients(workload.clients)
        .build();
    let registry = Arc::clone(&system.registry);
    let cert_quorum = system.cert_quorum();
    let n_r = config.fault.n_r;
    let epoch = Instant::now();

    // Durable deployments get a timed file-backed log per node, as
    // `LocalCluster` gives them an untimed one.
    let wal_calls = Arc::new(Mutex::new(Vec::new()));
    let wal_totals = Arc::new(Mutex::new((0u64, 0u64)));
    let mut nodes = std::mem::take(&mut system.nodes);
    if config.durability.enabled {
        if wal_dir.exists() {
            return Err(format!(
                "replay WAL dir {} already exists",
                wal_dir.display()
            ));
        }
        std::fs::create_dir_all(wal_dir).map_err(|e| format!("creating WAL dir: {e}"))?;
        for (i, node) in nodes.iter_mut().enumerate() {
            let inner = FileWal::open(wal_dir.join(format!("node-{i}.wal")))
                .map_err(|e| format!("opening replay WAL: {e}"))?;
            node.attach_wal(Box::new(TimedWal {
                inner,
                epoch,
                calls: Arc::clone(&wal_calls),
                totals: Arc::clone(&wal_totals),
            }));
        }
    }
    let mut verifier = system.verifier;
    if config.sharding.workers > 1 {
        verifier.attach_apply_pool(config.sharding.workers);
        if let Some(pool) = verifier.apply_pool() {
            pool.register_metrics(&registry);
        }
    }

    // The key stream as the simulator draws it: seeded from the run, with
    // read-write sets declared only under known-rw-set conflict handling.
    let mut workload_cfg = config.workload;
    workload_cfg.num_clients = workload.clients;
    let mut generator = YcsbWorkload::new(workload_cfg, seed)
        .with_distribution(KeyDistribution::Uniform)
        .with_declared_rwsets(matches!(
            config.conflict_handling,
            ConflictHandling::KnownRwSets
        ));
    let mut clients: HashMap<ClientId, _> = system
        .clients
        .drain(..workload.clients.min(system.clients.len()))
        .map(|c| (c.id(), c))
        .collect();

    let mut spans = Spans {
        epoch,
        spans: Vec::with_capacity(target as usize * 64),
    };
    let mut queue = Queue {
        items: VecDeque::new(),
        nodes: nodes.len(),
        messages: 0,
        bytes: 0,
        leader_bytes: 0,
    };
    let poll_at = SimTime::from_micros(u64::MAX / 2);
    let mut next_executor = 0u64;
    let (mut committed, mut aborted) = (0u64, 0u64);

    let start = Instant::now();
    for c in 0..clients.len() as u32 {
        let id = ClientId(c);
        let txn = generator.next_transaction(id);
        let client = clients.get_mut(&id).expect("client exists");
        let (span, actions) = spans.time(Layer::Client, txn_key(txn.id), NO_PARENT, || {
            client.submit(txn)
        });
        queue.route(ComponentId::Client(id), false, actions, span);
    }

    while committed + aborted < target {
        let Some((work, cause)) = queue.items.pop_front() else {
            return Err(format!(
                "replay stalled after {} of {target} transactions",
                committed + aborted
            ));
        };
        match work {
            Work::Node { idx, from, msg } => {
                let node = &mut nodes[idx];
                let origin = ComponentId::Node(node.id());
                let now = SimTime::from_micros(0);
                let (span, actions) = match &msg {
                    ProtocolMessage::ClientRequest(req) => {
                        spans.time(Layer::ShimIngest, txn_key(req.txn.id), cause, || {
                            node.on_client_request(req, now)
                        })
                    }
                    ProtocolMessage::Consensus(c) => match from.as_node() {
                        Some(sender) => spans.time(Layer::Ordering, batch_seq(c), cause, || {
                            node.on_consensus_message(sender, c.clone())
                        }),
                        None => continue,
                    },
                    other => spans.time(Layer::ShimIngest, 0, cause, || {
                        node.on_message_at(other, now)
                    }),
                };
                spans.adopt_wal_calls(&wal_calls, span);
                queue.route(origin, node.is_primary(), actions, span);
                let (span, flush) =
                    spans.time(Layer::Batcher, 0, span, || node.poll_batcher(poll_at));
                spans.adopt_wal_calls(&wal_calls, span);
                queue.route(origin, node.is_primary(), flush, span);
            }
            Work::Pool(spawn) => {
                let (request, execute) = *spawn;
                let id = ExecutorId(next_executor);
                next_executor += 1;
                let (span, verifies) = spans.time(Layer::Execute, execute.seq.0, cause, || {
                    let executor = Executor::new(
                        id,
                        request.region,
                        ExecutorBehavior::Honest,
                        system.provider.handle(ComponentId::Executor(id)),
                        StorageReader::new(Arc::clone(&system.storage)),
                        n_r,
                        cert_quorum,
                    );
                    executor
                        .handle_execute(&execute)
                        .map(|out| out.verify_messages)
                        .unwrap_or_default()
                });
                let origin = ComponentId::Executor(id);
                let actions = verifies
                    .into_iter()
                    .map(|v| {
                        Action::send(origin, Destination::Verifier, ProtocolMessage::Verify(v))
                    })
                    .collect();
                queue.route(origin, false, actions, span);
            }
            Work::Verifier(msg) => {
                let seq = match &msg {
                    ProtocolMessage::Verify(v) => v.seq.0,
                    _ => 0,
                };
                let (span, actions) =
                    spans.time(Layer::Verifier, seq, cause, || verifier.on_message(&msg));
                queue.route(ComponentId::Verifier, false, actions, span);
            }
            Work::Client(msg) => {
                let client_id = match &msg {
                    ProtocolMessage::Response(r) => r.txn.client,
                    ProtocolMessage::Abort(a) => a.txn.client,
                    _ => continue,
                };
                let Some(client) = clients.get_mut(&client_id) else {
                    continue;
                };
                let key = match &msg {
                    ProtocolMessage::Response(r) => txn_key(r.txn),
                    ProtocolMessage::Abort(a) => txn_key(a.txn),
                    _ => 0,
                };
                let (span, actions) =
                    spans.time(Layer::Client, key, cause, || client.on_message(&msg));
                let outcome = actions.iter().find_map(|a| match a {
                    Action::TxnCompleted { outcome, .. } => Some(*outcome),
                    _ => None,
                });
                match outcome {
                    Some(TxnOutcome::Committed) => committed += 1,
                    Some(TxnOutcome::Aborted) => aborted += 1,
                    None => continue,
                }
                if committed + aborted < target {
                    let txn = generator.next_transaction(client_id);
                    let (span, actions) =
                        spans.time(Layer::Client, txn_key(txn.id), span, || client.submit(txn));
                    queue.route(ComponentId::Client(client_id), false, actions, span);
                }
            }
        }
    }
    let wall = start.elapsed();

    // Dropping the verifier joins its apply pool; the nodes close their
    // WAL files.
    drop(verifier);
    drop(nodes);
    if config.durability.enabled {
        std::fs::remove_dir_all(wal_dir).map_err(|e| format!("removing replay WAL dir: {e}"))?;
    }

    let (busy, calls) = self_times(&spans.spans);
    write_spans(&spans.spans, spans_path)?;
    let (wal_syncs, wal_bytes) = *wal_totals.lock().expect("WAL totals poisoned");
    Ok(Replay {
        committed,
        aborted,
        wall,
        busy,
        calls,
        messages: queue.messages,
        bytes: queue.bytes,
        leader_bytes: queue.leader_bytes,
        wal_bytes,
        wal_syncs,
        counts: Counts::take(&registry),
    })
}

/// Self time per layer: each span's duration minus the part of it its
/// children cover. Children caused by a span but run after it cover none
/// of it; WAL calls nested inside a shim call cover their whole length.
fn self_times(spans: &[Span]) -> ([Duration; 8], [u64; 8]) {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &spans[span.parent as usize];
            let from = span.start_ns.max(parent.start_ns);
            let to = span.end_ns.min(parent.end_ns);
            covered[span.parent as usize] += to.saturating_sub(from);
        }
    }
    let mut busy = [Duration::ZERO; 8];
    let mut calls = [0u64; 8];
    for (span, covered) in spans.iter().zip(covered) {
        let own = (span.end_ns - span.start_ns).saturating_sub(covered);
        busy[span.layer.index()] += Duration::from_nanos(own);
        calls[span.layer.index()] += 1;
    }
    (busy, calls)
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
    writeln!(out, "layer,start_ns,end_ns,id,parent").map_err(io)?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{},{},{},{},{parent}",
            s.layer.metric(),
            s.start_ns,
            s.end_ns,
            s.id
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)
}
