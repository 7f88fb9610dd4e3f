//! The client role.
//!
//! "Any user that accesses the edge application becomes a client in our
//! system" (Section IV-A). A client signs its transaction, sends it to the
//! shim, and waits for a `RESPONSE` from the trusted verifier. If the
//! client timer `τ_m` expires, the client forwards the request directly to
//! the verifier and keeps re-transmitting with exponential back-off until
//! it receives a `RESPONSE` (Figure 4, client role).
//!
//! Who a client addresses depends on the shim protocol, and is fixed when
//! the deployment is built:
//!
//! * **PBFT** clients address every shim node. The primary orders the
//!   request; every other node caches the body, because PBFT proposals
//!   carry transaction ids and replicas rebuild batches from what the
//!   clients sent them. After a view change the new primary receives
//!   every new request directly, so no client has to learn about it.
//! * **CFT** and **NoShim** clients address the initial primary, node 0.
//!   A non-primary that receives a request forwards it to the primary.

use crate::events::{Action, ClientRequest, Destination, ProtocolMessage, ProtocolTimer};
use sbft_crypto::CryptoHandle;
use sbft_types::{ClientId, ComponentId, SimDuration, Transaction, TxnId, TxnOutcome};
use std::collections::HashMap;

/// State of one outstanding request.
#[derive(Clone, Debug)]
struct Outstanding {
    txn: Transaction,
    retries: u32,
    current_timeout: SimDuration,
}

/// The client role state machine.
pub struct ClientRole {
    id: ClientId,
    crypto: CryptoHandle,
    /// Where requests go: every shim node (PBFT) or the primary.
    target: Destination,
    base_timeout: SimDuration,
    backoff_factor: f64,
    outstanding: HashMap<TxnId, Outstanding>,
    completed: u64,
    aborted: u64,
    retransmissions: u64,
}

impl ClientRole {
    /// Creates a client that will submit to `target`.
    #[must_use]
    pub fn new(
        id: ClientId,
        crypto: CryptoHandle,
        target: Destination,
        base_timeout: SimDuration,
        backoff_factor: f64,
    ) -> Self {
        assert!(backoff_factor >= 1.0, "back-off must not shrink timeouts");
        ClientRole {
            id,
            crypto,
            target,
            base_timeout,
            backoff_factor,
            outstanding: HashMap::new(),
            completed: 0,
            aborted: 0,
            retransmissions: 0,
        }
    }

    /// This client's identifier.
    #[must_use]
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Number of responses received (committed transactions).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of aborts received.
    #[must_use]
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Number of re-transmissions to the verifier so far.
    #[must_use]
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Number of requests still awaiting a response.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Submits a transaction: sign it, send `⟨T⟩_C` to the shim, and
    /// start the client timer `τ_m` (Figure 3 line 1, Figure 4 line 1).
    pub fn submit(&mut self, txn: Transaction) -> Vec<Action> {
        assert_eq!(
            txn.id.client, self.id,
            "clients only sign their own transactions"
        );
        let digest = ClientRequest::signing_digest(&txn);
        let request = ClientRequest {
            txn: txn.clone(),
            signature: self.crypto.sign(&digest),
        };
        let id = txn.id;
        self.outstanding.insert(
            id,
            Outstanding {
                txn,
                retries: 0,
                current_timeout: self.base_timeout,
            },
        );
        vec![
            Action::send(
                ComponentId::Client(self.id),
                self.target,
                ProtocolMessage::ClientRequest(request),
            ),
            Action::StartTimer {
                timer: ProtocolTimer::ClientRequest(id),
                duration: self.base_timeout,
            },
        ]
    }

    /// Handles a `RESPONSE` or `ABORT` from the verifier.
    pub fn on_message(&mut self, msg: &ProtocolMessage) -> Vec<Action> {
        let (txn, outcome) = match msg {
            ProtocolMessage::Response(r) => (r.txn, r.outcome),
            ProtocolMessage::Abort(a) => (a.txn, TxnOutcome::Aborted),
            _ => return Vec::new(),
        };
        if self.outstanding.remove(&txn).is_none() {
            // Duplicate response (e.g. re-sent by the verifier after a
            // retry); the request was already marked processed.
            return Vec::new();
        }
        match outcome {
            TxnOutcome::Committed => self.completed += 1,
            TxnOutcome::Aborted => self.aborted += 1,
        }
        vec![
            Action::CancelTimer(ProtocolTimer::ClientRequest(txn)),
            Action::TxnCompleted { txn, outcome },
        ]
    }

    /// Handles the expiry of the client timer for `txn`: forward the
    /// request to the verifier, back off, restart the timer.
    pub fn on_timeout(&mut self, txn: TxnId) -> Vec<Action> {
        let Some(entry) = self.outstanding.get_mut(&txn) else {
            return Vec::new(); // already answered
        };
        entry.retries += 1;
        entry.current_timeout = entry.current_timeout.mul_f64(self.backoff_factor);
        self.retransmissions += 1;
        let digest = ClientRequest::signing_digest(&entry.txn);
        let request = ClientRequest {
            txn: entry.txn.clone(),
            signature: self.crypto.sign(&digest),
        };
        let duration = entry.current_timeout;
        vec![
            Action::send(
                ComponentId::Client(self.id),
                Destination::Verifier,
                ProtocolMessage::ClientRequest(request),
            ),
            Action::StartTimer {
                timer: ProtocolTimer::ClientRequest(txn),
                duration,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ResponseMessage;
    use sbft_crypto::CryptoProvider;
    use sbft_types::{Key, NodeId, Operation, SeqNum, Signature};

    fn client() -> ClientRole {
        let provider = CryptoProvider::new(3);
        ClientRole::new(
            ClientId(7),
            provider.handle(ComponentId::Client(ClientId(7))),
            Destination::Node(NodeId(0)),
            SimDuration::from_millis(100),
            2.0,
        )
    }

    fn txn(counter: u64) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(7), counter),
            vec![Operation::Read(Key(1))],
        )
    }

    fn response(counter: u64, outcome: TxnOutcome) -> ProtocolMessage {
        ProtocolMessage::Response(ResponseMessage {
            txn: TxnId::new(ClientId(7), counter),
            seq: SeqNum(1),
            outcome,
            output: 9,
            signature: Signature::ZERO,
        })
    }

    #[test]
    fn submit_sends_signed_request_to_primary_and_starts_timer() {
        let mut c = client();
        let actions = c.submit(txn(0));
        assert_eq!(actions.len(), 2);
        let env = actions[0].as_send().unwrap();
        assert_eq!(env.to, Destination::Node(NodeId(0)));
        match &env.msg {
            ProtocolMessage::ClientRequest(r) => {
                // The signature must verify as this client's.
                let digest = ClientRequest::signing_digest(&r.txn);
                let provider = CryptoProvider::new(3);
                assert!(provider.verify(ComponentId::Client(ClientId(7)), &digest, &r.signature));
            }
            other => panic!("unexpected message {other:?}"),
        }
        assert!(matches!(actions[1], Action::StartTimer { .. }));
        assert_eq!(c.outstanding(), 1);
    }

    #[test]
    #[should_panic(expected = "own transactions")]
    fn submitting_a_foreign_transaction_panics() {
        let mut c = client();
        let foreign = Transaction::new(TxnId::new(ClientId(8), 0), vec![]);
        let _ = c.submit(foreign);
    }

    #[test]
    fn response_completes_request_and_cancels_timer() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let actions = c.on_message(&response(0, TxnOutcome::Committed));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::CancelTimer(ProtocolTimer::ClientRequest(_)))));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::TxnCompleted {
                outcome: TxnOutcome::Committed,
                ..
            }
        )));
        assert_eq!(c.completed(), 1);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn duplicate_responses_are_ignored() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let _ = c.on_message(&response(0, TxnOutcome::Committed));
        assert!(c.on_message(&response(0, TxnOutcome::Committed)).is_empty());
        assert_eq!(c.completed(), 1);
    }

    #[test]
    fn abort_counts_separately() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let _ = c.on_message(&response(0, TxnOutcome::Aborted));
        assert_eq!(c.aborted(), 1);
        assert_eq!(c.completed(), 0);
    }

    #[test]
    fn timeout_retransmits_to_verifier_with_backoff() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let first = c.on_timeout(TxnId::new(ClientId(7), 0));
        let env = first[0].as_send().unwrap();
        assert_eq!(env.to, Destination::Verifier);
        let d1 = match first[1] {
            Action::StartTimer { duration, .. } => duration,
            _ => panic!("expected timer restart"),
        };
        assert_eq!(d1, SimDuration::from_millis(200), "one doubling");
        let second = c.on_timeout(TxnId::new(ClientId(7), 0));
        let d2 = match second[1] {
            Action::StartTimer { duration, .. } => duration,
            _ => panic!("expected timer restart"),
        };
        assert_eq!(d2, SimDuration::from_millis(400), "exponential back-off");
        assert_eq!(c.retransmissions(), 2);
    }

    #[test]
    fn timeout_after_response_is_a_no_op() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let _ = c.on_message(&response(0, TxnOutcome::Committed));
        assert!(c.on_timeout(TxnId::new(ClientId(7), 0)).is_empty());
    }

    #[test]
    fn unrelated_messages_are_ignored() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let msg = ProtocolMessage::BatchValidated(crate::events::BatchValidated {
            seq: SeqNum(1),
            committed: 1,
            aborted: 0,
        });
        assert!(c.on_message(&msg).is_empty());
    }
}
