//! Leader-egress sweep: client count × cache-hit rate.
//!
//! Every point drives a 4-node PBFT shim synchronously (no simulator
//! clock, no faults) through the same deterministic workload and counts
//! the bytes the leader puts on the wire, sender-side, from the messages'
//! honest `wire_size` models. PBFT proposals carry transaction ids, not
//! bodies, so the yardstick is `body_bytes`: what re-shipping every
//! committed batch's bodies to the `n − 1` replicas would cost.
//!
//! The cache-hit rate models how much of the client broadcast reached the
//! replicas before the proposal did: at `hit_permille = 1000` every body
//! is rebuilt locally; lower rates force `BATCHFETCH` / `BATCHFILL`
//! recovery traffic, which is charged against the leader like everything
//! else it sends. Whatever the rate, every replica must commit exactly
//! the batches the leader committed (the bin asserts it), and CI checks
//! that each point commits as many batches as the 1000‰ point.
//!
//! CSV columns: `clients,hit_permille,leader_egress_bytes,proposal_bytes,
//! body_bytes,committed`. `proposal_bytes` is the leader's share of
//! `leader_egress_bytes` spent on `PREPREPARE` and `BATCHFILL`, the
//! traffic the proposal shape decides (votes cost the same either way).

use sbft_consensus::ConsensusMessage;
use sbft_core::{Action, ClientRequest, Destination, ProtocolMessage, SystemBuilder};
use sbft_crypto::CryptoProvider;
use sbft_types::{
    ClientId, ComponentId, Key, NodeId, Operation, SeqNum, SimTime, SystemConfig, Transaction,
    TxnId, Value,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// SplitMix64, so the cache-feed decisions replay exactly per point.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn chance(&mut self, permille: u64) -> bool {
        self.next() % 1_000 < permille
    }
}

/// One synchronously driven 4-node cluster with sender-side byte
/// accounting on the leader's node-to-node traffic.
struct Cluster {
    nodes: Vec<sbft_core::ShimNode>,
    provider: Arc<CryptoProvider>,
    leader_egress: u64,
    proposal_bytes: u64,
    /// Committed sequence numbers per node, in commit order.
    committed: Vec<Vec<SeqNum>>,
}

/// What one sweep point measured.
struct Point {
    leader_egress: u64,
    proposal_bytes: u64,
    body_bytes: u64,
    committed: u64,
}

impl Cluster {
    fn new(clients: u64) -> Self {
        let mut config = SystemConfig::with_shim_size(4);
        config.workload.batch_size = clients as usize;
        config.workload.num_clients = 1;
        config.workload.num_records = 64;
        let system = SystemBuilder::new(config).seed(4 + clients).build();
        let n = system.nodes.len();
        Cluster {
            nodes: system.nodes,
            provider: system.provider,
            leader_egress: 0,
            proposal_bytes: 0,
            committed: vec![Vec::new(); n],
        }
    }

    fn request(&self, client: u64, counter: u64) -> ClientRequest {
        let id = ClientId(client as u32);
        let txn = Transaction::new(
            TxnId::new(id, counter),
            vec![Operation::Write(Key(client % 64), Value::new(counter + 1))],
        );
        let digest = ClientRequest::signing_digest(&txn);
        ClientRequest {
            signature: self.provider.handle(ComponentId::Client(id)).sign(&digest),
            txn,
        }
    }

    /// Routes node-to-node consensus traffic to quiescence, charging every
    /// copy the leader sends at its honest wire size.
    fn drive(&mut self, origin: usize, actions: Vec<Action>) {
        let mut queue: VecDeque<(usize, usize, ConsensusMessage)> = VecDeque::new();
        self.absorb(origin, actions, &mut queue);
        while let Some((from, to, msg)) = queue.pop_front() {
            let acts = self.nodes[to].on_consensus_message(NodeId(from as u32), msg);
            self.absorb(to, acts, &mut queue);
        }
    }

    fn absorb(
        &mut self,
        origin: usize,
        actions: Vec<Action>,
        queue: &mut VecDeque<(usize, usize, ConsensusMessage)>,
    ) {
        let n = self.nodes.len();
        for a in actions {
            match a {
                Action::Send(env) => {
                    let ProtocolMessage::Consensus(msg) = env.msg else {
                        continue;
                    };
                    let targets: Vec<usize> = match env.to {
                        Destination::AllNodes => (0..n).filter(|t| *t != origin).collect(),
                        Destination::Node(id) => vec![id.0 as usize],
                        _ => Vec::new(),
                    };
                    if origin == 0 {
                        let bytes = (msg.wire_size() * targets.len()) as u64;
                        self.leader_egress += bytes;
                        if matches!(
                            msg,
                            ConsensusMessage::PrePrepare(_) | ConsensusMessage::BatchFill(_)
                        ) {
                            self.proposal_bytes += bytes;
                        }
                    }
                    for to in targets {
                        queue.push_back((origin, to, msg.clone()));
                    }
                }
                Action::BatchCommitted { seq, .. } => self.committed[origin].push(seq),
                _ => {}
            }
        }
    }

    /// Bodies re-shipped to every replica and the leader's commit count,
    /// after checking every node committed the leader's batches.
    fn finish(self) -> Point {
        let leader = &self.nodes[0];
        let body_bytes: u64 = self.committed[0]
            .iter()
            .map(|seq| {
                leader
                    .committed_batch(*seq)
                    .expect("leader batch")
                    .wire_size() as u64
            })
            .sum::<u64>()
            * (self.nodes.len() as u64 - 1);
        for (node, seqs) in self.nodes.iter().zip(&self.committed) {
            assert_eq!(
                seqs,
                &self.committed[0],
                "node {} commit order",
                node.id().0
            );
            for seq in seqs {
                let batch = node.committed_batch(*seq).expect("committed batch");
                assert_eq!(
                    Some(batch),
                    leader.committed_batch(*seq),
                    "node {} rebuilt other content at {seq:?}",
                    node.id().0
                );
            }
            assert!(
                node.pending_reconstructions().is_empty(),
                "every proposal must finish reconstructing"
            );
        }
        Point {
            leader_egress: self.leader_egress,
            proposal_bytes: self.proposal_bytes,
            body_bytes,
            committed: self.committed[0].len() as u64,
        }
    }
}

/// Drives `batches` batches of `clients` transactions through one cluster.
fn run_point(clients: u64, hit_permille: u64, batches: u64) -> Point {
    let mut cluster = Cluster::new(clients);
    let mut rng = SplitMix64(0x5eed ^ clients ^ (hit_permille << 16));
    for counter in 0..batches {
        for client in 0..clients {
            let req = cluster.request(client, counter);
            // The client broadcast: replicas hear it with the swept
            // probability (the primary always does — it orders).
            for replica in 1..cluster.nodes.len() {
                if rng.chance(hit_permille) {
                    let fed = cluster.nodes[replica].on_client_request(&req, SimTime::ZERO);
                    cluster.drive(replica, fed);
                }
            }
            let actions = cluster.nodes[0].on_client_request(&req, SimTime::ZERO);
            cluster.drive(0, actions);
        }
    }
    cluster.finish()
}

fn main() {
    println!("clients,hit_permille,leader_egress_bytes,proposal_bytes,body_bytes,committed");
    let client_counts = [50u64, 100, 200];
    let hit_rates = [250u64, 500, 750, 1_000];
    let batches = 5;
    for &clients in &client_counts {
        for &hit in &hit_rates {
            let p = run_point(clients, hit, batches);
            println!(
                "{clients},{hit},{},{},{},{}",
                p.leader_egress, p.proposal_bytes, p.body_bytes, p.committed
            );
            assert_eq!(p.committed, batches);
        }
    }
}
