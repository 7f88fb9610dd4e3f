//! The common interface implemented by every shim ordering protocol.

use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::messages::ConsensusMessage;
use sbft_durability::RecoveredEntry;
use sbft_telemetry::Registry;
use sbft_types::{Batch, NodeId, SeqNum, ShardPlan, Transaction, TxnId, ViewNumber};
use std::collections::HashSet;

/// Counters describing how adversarial a replica's recovery was. All are
/// cumulative over the replica's lifetime; the shim layer diffs
/// successive snapshots into its registry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Garbage `STATERESPONSE` entries rejected (bad certificate, digest
    /// mismatch, stale view), summed over senders.
    pub bad_state_responses: u64,
    /// `STATEREQUEST` retransmissions sent after the initial broadcast.
    pub state_request_retries: u64,
    /// Checkpoint catch-ups: times the replica adopted a peer's snapshot
    /// floor because its own floor fell below peer retention.
    pub catch_ups: u64,
}

/// A deterministic ordering-protocol state machine running on one shim
/// node. `PbftReplica`, `CftReplica` and `NoShim` all implement this trait,
/// which is what lets the Figure 7 baseline comparison swap the shim
/// protocol without touching the rest of the architecture.
pub trait OrderingProtocol {
    /// Submits a client batch for ordering, together with the
    /// ordering-time shard plan the batching front-end computed for it
    /// ([`ShardPlan::Unplanned`] when no planner runs). Only meaningful
    /// on the node currently acting as primary/leader; other nodes
    /// ignore it.
    fn submit_batch(&mut self, batch: Batch, plan: ShardPlan) -> Vec<ConsensusAction>;

    /// Handles a consensus message received from another shim node.
    fn handle_message(&mut self, from: NodeId, msg: ConsensusMessage) -> Vec<ConsensusAction>;

    /// Handles the expiry of a previously requested timer.
    fn handle_timer(&mut self, timer: ConsensusTimer) -> Vec<ConsensusAction>;

    /// Explicitly requests a primary replacement (used by the ServerlessBFT
    /// recovery paths: `REPLACE` messages from the verifier and expiry of
    /// the re-transmission timer `Υ`).
    fn request_view_change(&mut self) -> Vec<ConsensusAction>;

    /// The view (or ballot) this node is currently in.
    fn view(&self) -> ViewNumber;

    /// The primary/leader of the current view.
    fn primary(&self) -> NodeId;

    /// This node's identifier.
    fn node_id(&self) -> NodeId;

    /// Whether this node is the primary of the current view.
    fn is_primary(&self) -> bool {
        self.primary() == self.node_id()
    }

    /// Installs state reconstructed from a durable log after a crash
    /// restart: committed `entries` above the `stable` snapshot floor,
    /// resuming in `view`. Returns the actions needed to rejoin (for
    /// PBFT, a broadcast `STATEREQUEST` for the missing suffix).
    /// Protocols without a recovery path ignore it.
    fn install_recovered(
        &mut self,
        entries: Vec<RecoveredEntry>,
        stable: SeqNum,
        view: ViewNumber,
    ) -> Vec<ConsensusAction> {
        let _ = (entries, stable, view);
        Vec::new()
    }

    /// Cumulative adversarial-recovery counters (garbage responses
    /// rejected, request retransmissions, checkpoint catch-ups).
    /// Protocols without a recovery path report zeros.
    fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats::default()
    }

    /// Whether proposals carry ids instead of bodies, so every node keeps
    /// a body cache fed by the client broadcast (PBFT). Clients of such a
    /// protocol address every node; the others address the primary.
    fn caches_bodies(&self) -> bool {
        false
    }

    /// Offers a transaction body observed from client submission to the
    /// protocol's body cache, feeding proposal reconstruction. May return
    /// actions when the body completes an in-flight reconstruction (the
    /// proposal can race ahead of the client broadcast). Protocols without
    /// a body cache ignore it.
    fn offer_body(&mut self, txn: Transaction) -> Vec<ConsensusAction> {
        let _ = txn;
        Vec::new()
    }

    /// Garbage-collects cached transaction bodies, keeping only ids in
    /// `protected` (the shim calls this on its checkpoint-rhythm GC).
    /// Protocols without a body cache ignore it.
    fn gc_bodies(&mut self, protected: &HashSet<TxnId>) {
        let _ = protected;
    }

    /// Sequence numbers of proposals still waiting for bodies (tests and
    /// the retransmission drivers). Empty for protocols without a body
    /// cache.
    fn pending_reconstructions(&self) -> Vec<SeqNum> {
        Vec::new()
    }

    /// Transaction bodies currently cached for proposal reconstruction
    /// (tests and memory accounting). Zero for protocols without a body
    /// cache.
    fn cached_bodies(&self) -> usize {
        0
    }

    /// Re-homes the protocol's internal counters (body-cache hits/misses,
    /// fetch traffic) into `registry` under `prefix`. Protocols without
    /// counters ignore it.
    fn register_metrics(&mut self, registry: &Registry, prefix: &str) {
        let _ = (registry, prefix);
    }

    /// Short protocol name used in experiment output ("PBFT", "CFT",
    /// "NoShim").
    fn name(&self) -> &'static str;
}
