//! Crash-restart recovery equivalence.
//!
//! A replica that crashes, restarts, replays its durable log from the
//! last snapshot and fetches the suffix it missed from peers must end
//! with exactly the committed log of a replica that never crashed — and
//! therefore exactly the same KV state and client responses, since both
//! are deterministic functions of the committed batch sequence. The
//! proptest sweeps the crash point, the length of the dark window, the
//! snapshot interval and the shard-lane configuration.

use proptest::prelude::*;
use serverless_bft::consensus::{ConsensusMessage, OrderingProtocol, PbftReplica};
use serverless_bft::core::{Action, ClientRequest, Destination, ProtocolMessage, ShimNode};
use serverless_bft::crypto::CryptoProvider;
use serverless_bft::types::{
    Batch, ClientId, ComponentId, ConflictHandling, DurabilityConfig, Key, NodeId, Operation,
    SeqNum, ShardingConfig, SimDuration, SimTime, SystemConfig, Transaction, TxnId, Value,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The backup replica whose crash-restart the suite watches.
const OBSERVED: usize = 3;

/// Four PBFT-backed shim nodes driven synchronously, with the batches
/// and commits observed at node [`OBSERVED`] recorded off the wire.
/// Requests reach the primary only, so every replica rebuilds every
/// proposal from bodies it fetches.
struct Cluster {
    nodes: Vec<ShimNode>,
    provider: Arc<CryptoProvider>,
    /// Every transaction the test submitted, by id.
    submitted: BTreeMap<TxnId, Transaction>,
    /// Batch content per sequence as delivered to the observed node
    /// (`PREPREPARE` ids resolved against the submitted bodies live,
    /// `STATERESPONSE` entries after recovery).
    batches: BTreeMap<SeqNum, Batch>,
    /// Commit order observed at the watched node.
    committed: Vec<SeqNum>,
    /// Virtual submission clock (advances per batch so the batcher's
    /// lane timeouts stay meaningful).
    clock: SimTime,
}

fn config(shards: usize, snapshot_interval: u64) -> SystemConfig {
    let mut config = SystemConfig::with_shim_size(4);
    config.workload.batch_size = 2;
    config.durability = DurabilityConfig::enabled().with_snapshot_interval(snapshot_interval);
    if shards > 1 {
        config.sharding = ShardingConfig::with_shards(shards);
        config.conflict_handling = ConflictHandling::KnownRwSets;
    }
    config
}

impl Cluster {
    fn new(shards: usize, snapshot_interval: u64) -> Self {
        let config = config(shards, snapshot_interval);
        let provider = CryptoProvider::new(21);
        let nodes = (0..config.fault.n_r as u32)
            .map(|i| {
                let ordering: Box<dyn OrderingProtocol + Send> = Box::new(PbftReplica::new(
                    NodeId(i),
                    config.fault,
                    provider.handle(ComponentId::Node(NodeId(i))),
                    config.timers.node_timeout,
                    config.timers.checkpoint_interval,
                ));
                ShimNode::new(
                    NodeId(i),
                    config.clone(),
                    provider.handle(ComponentId::Node(NodeId(i))),
                    ordering,
                )
            })
            .collect();
        Cluster {
            nodes,
            provider,
            submitted: BTreeMap::new(),
            batches: BTreeMap::new(),
            committed: Vec::new(),
            clock: SimTime::ZERO,
        }
    }

    /// A deterministic signed request: a write and a read-modify-write
    /// over a small key space, with the read-write set declared so the
    /// shard-lane configurations have something to route.
    fn request(&self, i: u64) -> ClientRequest {
        let client = ClientId(i as u32);
        let txn = Transaction::new(
            TxnId::new(client, 0),
            vec![
                Operation::Write(Key(i % 7), Value::new(i * 11 + 1)),
                Operation::ReadModifyWrite(Key((i * 3) % 7), i + 5),
            ],
        )
        .with_inferred_rwset();
        let digest = ClientRequest::signing_digest(&txn);
        ClientRequest {
            signature: self
                .provider
                .handle(ComponentId::Client(client))
                .sign(&digest),
            txn,
        }
    }

    /// Routes consensus messages to quiescence, skipping nodes in
    /// `down`, recording the observed node's deliveries and commits.
    fn drive(&mut self, origin: usize, actions: Vec<Action>, down: &[usize]) {
        let n = self.nodes.len();
        let mut queue: VecDeque<(usize, usize, ConsensusMessage)> = VecDeque::new();
        self.absorb(origin, actions, &mut queue, n);
        while let Some((from, to, msg)) = queue.pop_front() {
            if down.contains(&to) {
                continue;
            }
            if to == OBSERVED {
                self.record(&msg);
            }
            let acts = self.nodes[to].on_consensus_message(NodeId(from as u32), msg);
            self.absorb(to, acts, &mut queue, n);
        }
    }

    /// Enqueues the consensus sends out of `actions` and records the
    /// observed node's commit stream.
    fn absorb(
        &mut self,
        origin: usize,
        actions: Vec<Action>,
        queue: &mut VecDeque<(usize, usize, ConsensusMessage)>,
        n: usize,
    ) {
        for a in actions {
            match &a {
                Action::Send(env) => match (&env.to, &env.msg) {
                    (Destination::AllNodes, ProtocolMessage::Consensus(msg)) => {
                        for to in 0..n {
                            if to != origin {
                                queue.push_back((origin, to, msg.clone()));
                            }
                        }
                    }
                    (Destination::Node(to), ProtocolMessage::Consensus(msg)) => {
                        queue.push_back((origin, to.0 as usize, msg.clone()));
                    }
                    _ => {}
                },
                Action::BatchCommitted { seq, .. } if origin == OBSERVED => {
                    // What the replica rebuilt is what the primary proposed.
                    assert_eq!(
                        self.nodes[OBSERVED].committed_batch(*seq),
                        self.batches.get(seq),
                        "observed node committed other content at {seq:?}"
                    );
                    self.committed.push(*seq);
                }
                _ => {}
            }
        }
    }

    /// Captures batch content delivered to the observed node, keyed by
    /// sequence: live proposals and state-transferred entries alike.
    fn record(&mut self, msg: &ConsensusMessage) {
        match msg {
            ConsensusMessage::PrePrepare(pp) => {
                let bodies = pp.txn_ids.iter().map(|id| self.submitted[id].clone());
                self.batches.insert(pp.seq, Batch::new(bodies.collect()));
            }
            ConsensusMessage::StateResponse(sr) => {
                for e in &sr.entries {
                    self.batches.insert(e.seq, e.batch.clone());
                }
            }
            _ => {}
        }
    }

    /// Submits one two-transaction batch to the primary and drives it to
    /// quiescence; a trailing poll drains lanes the pair straddled.
    fn submit_batch(&mut self, batch: u64, down: &[usize]) {
        self.clock += SimDuration::from_millis(100);
        let now = self.clock;
        for r in [self.request(batch * 2), self.request(batch * 2 + 1)] {
            self.submitted.insert(r.txn.id, r.txn.clone());
            let actions = self.nodes[0].on_client_request(&r, now);
            self.drive(0, actions, down);
        }
        let polled = self.nodes[0].poll_batcher(now + SimDuration::from_millis(10));
        self.drive(0, polled, down);
    }

    /// The run's observable outcome at the watched node: its commit
    /// order, the KV state derived by folding the committed operations
    /// in that order, and the client responses in response order.
    fn outcome(&self) -> (Vec<SeqNum>, BTreeMap<u64, u64>, Vec<TxnId>) {
        let mut kv: BTreeMap<u64, u64> = BTreeMap::new();
        let mut responses = Vec::new();
        for seq in &self.committed {
            let batch = self
                .batches
                .get(seq)
                .expect("observed node committed a batch it was never shown");
            for txn in batch.txns() {
                for op in &txn.ops {
                    match op {
                        Operation::Read(_) => {}
                        Operation::Write(k, v) => {
                            kv.insert(k.0, v.data);
                        }
                        Operation::ReadModifyWrite(k, s) => {
                            let slot = kv.entry(k.0).or_insert(0);
                            *slot = slot.wrapping_mul(31).wrapping_add(*s);
                        }
                    }
                }
                responses.push(txn.id);
            }
        }
        (self.committed.clone(), kv, responses)
    }
}

/// One crash-restart scenario: `crash_after` batches commit everywhere,
/// the observed backup goes dark for `dark` batches, recovers (WAL
/// replay + state transfer), then `tail` more batches commit.
fn crashed_run(
    shards: usize,
    snapshot_interval: u64,
    crash_after: u64,
    dark: u64,
    tail: u64,
) -> Cluster {
    let mut cluster = Cluster::new(shards, snapshot_interval);
    let mut batch = 0;
    for _ in 0..crash_after {
        cluster.submit_batch(batch, &[]);
        batch += 1;
    }
    cluster.nodes[OBSERVED].crash();
    for _ in 0..dark {
        cluster.submit_batch(batch, &[OBSERVED]);
        batch += 1;
    }
    let restart = cluster.nodes[OBSERVED].crash_restart();
    cluster.drive(OBSERVED, restart, &[]);
    for _ in 0..tail {
        cluster.submit_batch(batch, &[]);
        batch += 1;
    }
    cluster
}

/// The same workload with no crash anywhere.
fn baseline_run(shards: usize, snapshot_interval: u64, total: u64) -> Cluster {
    let mut cluster = Cluster::new(shards, snapshot_interval);
    for batch in 0..total {
        cluster.submit_batch(batch, &[]);
    }
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash + snapshot replay + peer state transfer is outcome-invisible:
    /// the recovered replica's commit order, derived KV state and client
    /// responses are byte-identical to the never-crashed run's, across
    /// random crash points, dark windows, snapshot intervals and shard
    /// configurations.
    #[test]
    fn recovered_replica_matches_the_never_crashed_run(
        crash_after in 0u64..4,
        dark in 0u64..3,
        tail in 1u64..3,
        // 1..5 plus "effectively never" (1000) for the snapshot rhythm.
        snapshot_interval in (0u64..6).prop_map(|i| if i == 0 { 1_000 } else { i }),
        shards in (0u8..2).prop_map(|i| if i == 0 { 1usize } else { 4 }),
    ) {
        let total = crash_after + dark + tail;
        let crashed = crashed_run(shards, snapshot_interval, crash_after, dark, tail);
        let baseline = baseline_run(shards, snapshot_interval, total);
        let (c_seqs, c_kv, c_resps) = crashed.outcome();
        let (b_seqs, b_kv, b_resps) = baseline.outcome();
        prop_assert_eq!(c_seqs, b_seqs, "commit order diverged after recovery");
        prop_assert_eq!(c_kv, b_kv, "derived KV state diverged after recovery");
        prop_assert_eq!(c_resps, b_resps, "client responses diverged after recovery");
        // The recovered node holds byte-identical batch content too.
        prop_assert_eq!(crashed.batches, baseline.batches);
    }
}

#[test]
fn recovery_splits_between_wal_replay_and_state_transfer() {
    // Two batches commit everywhere, two more while the backup is dark:
    // restart replays exactly the first two from the local log and
    // state-transfers exactly the two it missed.
    let cluster = crashed_run(1, 1_000, 2, 2, 1);
    let node = &cluster.nodes[OBSERVED];
    assert_eq!(node.replay_batches(), 2);
    assert_eq!(node.state_transfers(), 2);
    assert_eq!(node.batches_committed(), 5);
}

#[test]
fn snapshots_bound_what_recovery_replays() {
    // With a snapshot every batch, the pre-crash log holds only the
    // latest mark: replay re-seats at most one batch and the commit
    // stream still matches the baseline (covered by the proptest; the
    // counter shape is pinned here).
    let cluster = crashed_run(1, 1, 3, 0, 1);
    let node = &cluster.nodes[OBSERVED];
    assert!(
        node.replay_batches() <= 1,
        "snapshot truncation must bound replay, got {}",
        node.replay_batches()
    );
    assert!(node.snapshot_bytes() > 0, "truncation reclaims bytes");
}
