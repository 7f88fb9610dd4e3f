//! The trusted verifier `V`.
//!
//! The verifier is a lightweight wrapper around the on-premise data-store
//! (Section IV-D). It collects well-formed `VERIFY` messages from the
//! executors, waits for `f_E + 1` matching results, enforces the sequence
//! order the shim agreed on (`k_max` and the pending list `π`), runs the
//! concurrency-control check against storage, applies the writes, and
//! replies to the clients and the shim primary. It also implements:
//!
//! * the **flooding mitigation** of Section V-C (ignore further `VERIFY`
//!   messages once a request is matched),
//! * the **request-suppression recovery** of Figure 4 (client retries are
//!   answered with a re-sent `RESPONSE`, an `ERROR(k_max)`, an
//!   `ERROR(⟨T⟩_C)` or a `REPLACE`, followed by an `ACK` once resolved),
//! * the **byzantine-abort detection** of Section VI-B for conflicting
//!   transactions with unknown read-write sets (abort timer per batch,
//!   `REPLACE` when fewer than `2f_E + 1` executors answered, abort when
//!   enough answered but results do not match),
//! * **re-execution at the head of the order** in the other modes: when
//!   every spawned executor answered and no `f_E + 1` results match, the
//!   batch is re-spawned once it is next in order (see
//!   [`Verifier::reexecute_head`]); only a second disagreement aborts it.

use crate::events::{
    AbortMessage, AckMessage, Action, BatchValidated, ClientRequest, Destination, ErrorMessage,
    ProtocolMessage, ProtocolTimer, RecoverySubject, ReplaceMessage, ResponseMessage,
};
use sbft_crypto::CryptoHandle;
use sbft_serverless::VerifyMessage;
use sbft_sharding::{CommitOutcome, ShardId, ShardScheduler, ShardedCommitter};
use sbft_storage::VersionedStore;
use sbft_telemetry::{Counter, Registry};
use sbft_types::{
    ComponentId, ConflictHandling, ExecutorId, FaultParams, SeqNum, ShardPlan, ShardingConfig,
    SimDuration, TxnId, TxnOutcome,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Per-batch bookkeeping while `VERIFY` messages are being collected.
#[derive(Debug, Default)]
struct SeqState {
    verifies: BTreeMap<ExecutorId, VerifyMessage>,
    matched: Option<VerifyMessage>,
    abort_tagged: bool,
    timer_started: bool,
    /// Every spawned executor answered without an `f_E + 1` match; the
    /// batch is re-executed once it reaches the head of the order.
    diverged: bool,
    /// Executors whose results a re-execution discarded: their (late or
    /// duplicated) `VERIFY`s are ignored from then on.
    discarded: BTreeSet<ExecutorId>,
}

/// Protocol parameters of the verifier, fixed at deployment time.
#[derive(Clone, Copy, Debug)]
pub struct VerifierConfig {
    /// Fault-tolerance parameters.
    pub params: FaultParams,
    /// Conflict-handling mode.
    pub conflict_handling: ConflictHandling,
    /// Abort-detection timer duration (Section VI-B).
    pub abort_timeout: SimDuration,
    /// Commit-certificate quorum `VERIFY` messages must carry (0 for the
    /// CFT / NoShim baselines, which cannot produce certificates).
    pub cert_quorum: usize,
    /// Total executors the shim spawns per committed batch (depends on
    /// the spawning mode, so it is supplied by the deployment rather than
    /// re-derived from `FaultParams`). Once this many `VERIFY`s arrived
    /// without a matching quorum, the batch can never match.
    pub spawned_per_batch: usize,
    /// Sharded-execution parameters for the commit path.
    pub sharding: ShardingConfig,
    /// The shim's featherweight checkpoint interval. The verifier
    /// truncates its `responded` / `txn_location` maps in the same rhythm
    /// (keeping one closed interval of history for client retries), so
    /// long runs stop growing without bound. `0` disables the GC.
    pub checkpoint_interval: u64,
}

/// The verifier role state machine.
pub struct Verifier {
    crypto: CryptoHandle,
    /// The sharded commit path replacing the single global `ccheck`.
    /// `Arc`-held so a worker pool can drive the same engine.
    committer: Arc<ShardedCommitter>,
    /// When attached (thread runtime), matched batches apply through this
    /// worker pool with real multi-core parallelism instead of
    /// synchronously on the verifier's thread; `None` keeps the
    /// deterministic synchronous path (simulator, tests).
    apply_pool: Option<ShardScheduler>,
    config: VerifierConfig,

    /// Sequence number of the next request to be validated.
    kmax: SeqNum,
    /// The pending list `π` plus in-progress collection state.
    pending: BTreeMap<SeqNum, SeqState>,
    /// Responses already sent, kept to answer client re-transmissions.
    /// Truncated at the featherweight checkpoint interval (see
    /// [`VerifierConfig::checkpoint_interval`]).
    responded: HashMap<TxnId, ProtocolMessage>,
    /// Which batch each transaction was ordered in (learned from `VERIFY`).
    /// Truncated together with `responded`.
    txn_location: HashMap<TxnId, SeqNum>,
    /// Highest sequence number at or below which the retry maps have been
    /// garbage-collected.
    gc_floor: SeqNum,
    /// Recovery subjects we broadcast an `ERROR`/`REPLACE` for and still
    /// owe an `ACK`.
    outstanding: BTreeSet<RecoverySubject>,

    committed_txns: Counter,
    aborted_txns: Counter,
    ignored_verifies: Counter,
    validated_batches: Counter,
    divergent_aborts: Counter,
    reexecutions: Counter,
    pool_applied_txns: Counter,
    planned_batches: Counter,
    plan_mismatches: Counter,
    single_home_batches: Counter,
}

impl Verifier {
    /// Creates the verifier.
    #[must_use]
    pub fn new(crypto: CryptoHandle, store: Arc<VersionedStore>, config: VerifierConfig) -> Self {
        let committer = Arc::new(ShardedCommitter::new(store, &config.sharding));
        Verifier {
            crypto,
            committer,
            apply_pool: None,
            config,
            kmax: SeqNum(1),
            pending: BTreeMap::new(),
            responded: HashMap::new(),
            txn_location: HashMap::new(),
            gc_floor: SeqNum(0),
            outstanding: BTreeSet::new(),
            committed_txns: Counter::new(),
            aborted_txns: Counter::new(),
            ignored_verifies: Counter::new(),
            validated_batches: Counter::new(),
            divergent_aborts: Counter::new(),
            reexecutions: Counter::new(),
            pool_applied_txns: Counter::new(),
            planned_batches: Counter::new(),
            plan_mismatches: Counter::new(),
            single_home_batches: Counter::new(),
        }
    }

    /// Re-homes the verifier's counters into `registry` under
    /// `verifier.*`. Called once by the system builder.
    pub fn register_metrics(&mut self, registry: &Registry) {
        self.committed_txns = registry.counter("verifier.committed_txns");
        self.aborted_txns = registry.counter("verifier.aborted_txns");
        self.ignored_verifies = registry.counter("verifier.ignored_verifies");
        self.validated_batches = registry.counter("verifier.validated_batches");
        self.divergent_aborts = registry.counter("verifier.divergent_aborts");
        self.reexecutions = registry.counter("verifier.reexecutions");
        self.pool_applied_txns = registry.counter("verifier.pool_applied_txns");
        self.planned_batches = registry.counter("verifier.planned_batches");
        self.plan_mismatches = registry.counter("verifier.plan_mismatches");
        self.single_home_batches = registry.counter("verifier.single_home_batches");
    }

    /// The attached apply pool, when one is active (the runtime registers
    /// its metrics after attaching it).
    #[must_use]
    pub fn apply_pool(&self) -> Option<&ShardScheduler> {
        self.apply_pool.as_ref()
    }

    /// Attaches a [`ShardScheduler`] worker pool as the apply stage:
    /// matched batches are handed to the pool in one shared allocation
    /// and applied with real multi-core parallelism; the verifier blocks
    /// for the batch's per-transaction outcomes before answering clients,
    /// and `k_max`-ordered submission plus per-shard FIFO draining
    /// preserve per-shard commit order. Used by the thread runtime
    /// (`sbft-runtime`); the discrete-event simulator keeps the
    /// synchronous path.
    pub fn attach_apply_pool(&mut self, workers: usize) {
        let validate_reads = self.validate_reads();
        self.apply_pool = Some(ShardScheduler::new(
            Arc::clone(&self.committer),
            workers,
            validate_reads,
        ));
    }

    /// Whether an apply pool is attached.
    #[must_use]
    pub fn apply_pool_active(&self) -> bool {
        self.apply_pool.is_some()
    }

    /// Transactions applied through the attached worker pool.
    #[must_use]
    pub fn pool_applied_txns(&self) -> u64 {
        self.pool_applied_txns.get()
    }

    /// Sequence number of the next batch the verifier will validate.
    #[must_use]
    pub fn kmax(&self) -> SeqNum {
        self.kmax
    }

    /// Transactions whose writes have been applied.
    #[must_use]
    pub fn committed_txns(&self) -> u64 {
        self.committed_txns.get()
    }

    /// Transactions aborted (stale reads or byzantine-abort detection).
    #[must_use]
    pub fn aborted_txns(&self) -> u64 {
        self.aborted_txns.get()
    }

    /// `VERIFY` messages ignored by the flooding mitigation.
    #[must_use]
    pub fn ignored_verifies(&self) -> u64 {
        self.ignored_verifies.get()
    }

    /// Batches fully validated so far.
    #[must_use]
    pub fn validated_batches(&self) -> u64 {
        self.validated_batches.get()
    }

    /// Whole batches aborted because every spawned executor answered and
    /// no `f_E + 1` of the digests matched (the Section VI-B divergence
    /// rule, both the count-triggered and the timer-triggered form).
    #[must_use]
    pub fn divergent_aborts(&self) -> u64 {
        self.divergent_aborts.get()
    }

    /// Batches re-executed at the head of the order after their executors
    /// disagreed.
    #[must_use]
    pub fn reexecutions(&self) -> u64 {
        self.reexecutions.get()
    }

    /// Batches applied through the verified ordering-time fast path (a
    /// `SingleHome` plan tag that survived re-derivation: one shard, no
    /// per-transaction routing, no cross-home probe).
    #[must_use]
    pub fn planned_batches(&self) -> u64 {
        self.planned_batches.get()
    }

    /// `SingleHome` plan tags that failed re-derivation against the
    /// observed read-write sets (only a byzantine primary or mis-declared
    /// read-write sets produce these); each fell back deterministically
    /// to the unplanned routing path.
    #[must_use]
    pub fn plan_mismatches(&self) -> u64 {
        self.plan_mismatches.get()
    }

    /// Validated batches whose entire footprint lived on one shard —
    /// whether pre-planned or discovered by apply-time routing. The
    /// complement (over [`Self::validated_batches`]) is the cross-shard
    /// coordination rate the ordering-time planner drives down.
    #[must_use]
    pub fn single_home_batches(&self) -> u64 {
        self.single_home_batches.get()
    }

    /// Entries currently held for client-retry answering (tests and memory
    /// accounting).
    #[must_use]
    pub fn responded_len(&self) -> usize {
        self.responded.len()
    }

    /// Entries currently held in the transaction-location map (tests and
    /// memory accounting).
    #[must_use]
    pub fn txn_location_len(&self) -> usize {
        self.txn_location.len()
    }

    /// The sharded commit engine (router, per-shard states and counters).
    #[must_use]
    pub fn committer(&self) -> &ShardedCommitter {
        &self.committer
    }

    /// Number of batches sitting in the pending list `π` (matched or
    /// still collecting votes) ahead of `k_max`.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn validate_reads(&self) -> bool {
        !matches!(
            self.config.conflict_handling,
            ConflictHandling::NonConflicting
        )
    }

    fn me(&self) -> ComponentId {
        ComponentId::Verifier
    }

    fn sign_marker(&self, label: &str, a: u64, b: u64) -> sbft_types::Signature {
        self.crypto.sign(&sbft_crypto::digest_u64s(label, &[a, b]))
    }

    // ---- VERIFY handling ---------------------------------------------------

    /// Handles a `VERIFY` message from an executor (Figure 3, lines 21–29).
    pub fn on_verify(&mut self, msg: &VerifyMessage) -> Vec<Action> {
        // Well-formedness: executor signature and certificate.
        if !self.crypto.verify(
            ComponentId::Executor(msg.executor),
            &msg.result_digest,
            &msg.signature,
        ) {
            return Vec::new();
        }
        if self.config.cert_quorum > 0
            && msg
                .certificate
                .verify(
                    self.crypto.provider().key_store(),
                    self.config.cert_quorum,
                    self.config.params.n_r,
                )
                .is_err()
        {
            return Vec::new();
        }

        // Already validated requests and already matched batches: ignore
        // (the flooding mitigation of Section V-C).
        if msg.seq < self.kmax {
            self.ignored_verifies.inc();
            return Vec::new();
        }
        let quorum = self.config.params.verify_quorum();
        let spawned_per_batch = self.config.spawned_per_batch;
        let abort_timeout = self.config.abort_timeout;
        let track_aborts = matches!(
            self.config.conflict_handling,
            ConflictHandling::UnknownRwSets
        );
        let state = self.pending.entry(msg.seq).or_default();
        if state.matched.is_some() {
            self.ignored_verifies.inc();
            return Vec::new();
        }
        if state.verifies.contains_key(&msg.executor) || state.discarded.contains(&msg.executor) {
            // Duplicate VERIFY from the same executor (flooding attack), or
            // one whose results a re-execution discarded.
            self.ignored_verifies.inc();
            return Vec::new();
        }
        state.verifies.insert(msg.executor, msg.clone());

        let mut actions = Vec::new();
        // Start the abort-detection timer on the first VERIFY for this
        // batch (only needed when conflicts with unknown rw-sets are
        // possible, Section VI-B).
        if track_aborts && !state.timer_started {
            state.timer_started = true;
            actions.push(Action::StartTimer {
                timer: ProtocolTimer::VerifierAbort(msg.seq),
                duration: abort_timeout,
            });
        }

        // Record where each transaction lives for client-retry handling.
        for r in msg.results.iter() {
            self.txn_location.insert(r.txn, msg.seq);
        }

        // Count matching results.
        let state = self.pending.get_mut(&msg.seq).expect("state exists");
        let matching = state
            .verifies
            .values()
            .filter(|v| v.result_digest == msg.result_digest)
            .count();
        if matching >= quorum {
            state.matched = Some(msg.clone());
            if state.timer_started {
                actions.push(Action::CancelTimer(ProtocolTimer::VerifierAbort(msg.seq)));
            }
            actions.extend(self.advance_kmax());
        } else if state.verifies.len() >= spawned_per_batch {
            // Every spawned executor has answered and no digest reached
            // the f_E + 1 quorum: the batch can never match (executors of
            // one batch observed interleaved storage states, or byzantine
            // executors diverged). Abort it deterministically — the
            // count-triggered form of the Section VI-B divergence rule —
            // so k_max never blocks behind an unmatchable batch.
            let best = state
                .verifies
                .values()
                .map(|candidate| {
                    state
                        .verifies
                        .values()
                        .filter(|v| v.result_digest == candidate.result_digest)
                        .count()
                })
                .max()
                .unwrap_or(0);
            if best < quorum {
                // With unknown read-write sets the paper's divergence rule
                // aborts. Otherwise honest executors disagree only when
                // they read storage on both sides of an earlier batch's
                // apply, so the batch gets one re-execution at the head of
                // the order; a second disagreement aborts it.
                if track_aborts || !state.discarded.is_empty() {
                    state.abort_tagged = true;
                    if state.timer_started {
                        actions.push(Action::CancelTimer(ProtocolTimer::VerifierAbort(msg.seq)));
                    }
                } else {
                    state.diverged = true;
                }
                actions.extend(self.advance_kmax());
            }
        }
        actions
    }

    /// Validates every batch at the head of the order that is matched (or
    /// abort-tagged), advancing `k_max` (Figure 3, lines 24–29).
    fn advance_kmax(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        while let Some(state) = self.pending.get(&self.kmax) {
            if state.matched.is_none() && !state.abort_tagged {
                break;
            }
            let seq = self.kmax;
            let state = self.pending.remove(&seq).expect("present");
            if let Some(matched) = state.matched {
                actions.extend(self.apply_batch(seq, &matched));
            } else {
                actions.extend(self.abort_batch(seq, &state));
            }
            self.kmax = self.kmax.next();
        }
        self.gc_retry_maps();
        actions.extend(self.reexecute_head());
        actions
    }

    /// Re-executes the batch at the head of the order if its executors
    /// disagreed. Every earlier batch is applied and no later one can be
    /// until this one is, so the re-spawned executors all read one storage
    /// state. The disagreeing results are discarded, and the shim is asked
    /// through `ERROR(k_max)` to spawn the batch again; its primary then
    /// spawns all `spawned_per_batch` executors, whatever the spawning
    /// mode.
    fn reexecute_head(&mut self) -> Vec<Action> {
        let seq = self.kmax;
        let Some(state) = self.pending.get_mut(&seq) else {
            return Vec::new();
        };
        if !state.diverged {
            return Vec::new();
        }
        state.diverged = false;
        let discarded = std::mem::take(&mut state.verifies);
        state.discarded.extend(discarded.into_keys());
        self.reexecutions.inc();
        let subject = RecoverySubject::Seq(seq);
        self.outstanding.insert(subject);
        vec![Action::send(
            self.me(),
            Destination::AllNodes,
            ProtocolMessage::Error(ErrorMessage {
                subject,
                request: None,
                signature: self.sign_marker("error", seq.0, 2),
            }),
        )]
    }

    /// Whether the worker pool's per-home-shard FIFO ordering is exact
    /// for this batch: true iff no key is shared — with at least one
    /// writer — by transactions whose home shards differ. Transactions
    /// with the same home shard are applied in batch order by a single
    /// worker, and read-only sharing is order independent, so everything
    /// else commutes.
    fn pool_order_exact(results: &[sbft_types::TxnResult], routes: &[BTreeSet<ShardId>]) -> bool {
        /// Per-key summary: the first home shard that touched it, whether
        /// any *other* home touched it since, and whether anyone wrote it.
        struct Touch {
            first_home: ShardId,
            multi_home: bool,
            any_write: bool,
        }
        let mut touched: HashMap<sbft_types::Key, Touch> = HashMap::new();
        for (result, involved) in results.iter().zip(routes) {
            let Some(home) = involved.iter().next().copied() else {
                continue; // touches no data
            };
            let reads = result.rwset.reads.iter().map(|(key, _)| (*key, false));
            let writes = result.rwset.writes.iter().map(|(key, _)| (*key, true));
            for (key, writes_key) in reads.chain(writes) {
                match touched.entry(key) {
                    std::collections::hash_map::Entry::Occupied(mut entry) => {
                        let touch = entry.get_mut();
                        let differs = touch.first_home != home;
                        // Unsafe as soon as the key has (or now gains) a
                        // writer while being touched by two distinct
                        // homes — in either order.
                        if (touch.any_write || writes_key) && (touch.multi_home || differs) {
                            return false;
                        }
                        touch.multi_home |= differs;
                        touch.any_write |= writes_key;
                    }
                    std::collections::hash_map::Entry::Vacant(entry) => {
                        entry.insert(Touch {
                            first_home: home,
                            multi_home: false,
                            any_write: writes_key,
                        });
                    }
                }
            }
        }
        true
    }

    /// Truncates the client-retry maps in the rhythm of the shim's
    /// featherweight checkpoints. Entries for batches at or below the
    /// previous checkpoint (one closed interval behind the latest one
    /// `k_max` passed) are dropped: late duplicate requests inside the
    /// retained window are still answered with the stored `RESPONSE`,
    /// while anything older falls back to the `ERROR(⟨T⟩_C)` path — the
    /// primary recognises the duplicate and drops it.
    fn gc_retry_maps(&mut self) {
        let interval = self.config.checkpoint_interval;
        if interval == 0 {
            return;
        }
        let validated = self.kmax.0.saturating_sub(1);
        let stable = (validated / interval) * interval;
        let cutoff = SeqNum(stable.saturating_sub(interval));
        if cutoff <= self.gc_floor {
            return;
        }
        self.gc_floor = cutoff;
        let mut dropped = Vec::new();
        self.txn_location.retain(|txn, seq| {
            if *seq <= cutoff {
                dropped.push(*txn);
                false
            } else {
                true
            }
        });
        for txn in &dropped {
            self.responded.remove(txn);
        }
    }

    /// Applies a matched batch: per-transaction concurrency check through
    /// the shard router, storage update, client responses, primary
    /// notification, ACKs. The per-shard `ccheck` work is announced first
    /// (as [`Action::ShardCcheck`]) so CPU-modelling runtimes can charge
    /// it to the shard stations before the responses leave.
    ///
    /// With an [`Self::attach_apply_pool`]ed worker pool the OCC
    /// validation and writes run on the pool (one shared allocation per
    /// batch, per-transaction outcomes collected through the ticket);
    /// otherwise they run synchronously on the caller. Both paths produce
    /// identical outcomes — the pool drives the very same
    /// [`ShardedCommitter`].
    fn apply_batch(&mut self, seq: SeqNum, matched: &VerifyMessage) -> Vec<Action> {
        let mut actions = Vec::new();
        let validate_reads = self.validate_reads();
        let router = *self.committer.router();
        // Trust-but-verify the ordering-time plan tag: a `SingleHome`
        // claim is honoured only after re-deriving it from the read-write
        // sets the executors actually observed (a cheap single pass over
        // the keys — no sets, no allocation). Only a byzantine primary or
        // a mis-declared read-write set can fail this check; the failure
        // falls back deterministically to the unplanned routing path, so
        // a lying tag costs the fast path but can never corrupt state.
        let verified_home = match matched.plan {
            ShardPlan::SingleHome(home) => {
                let in_range = (home.0 as usize) < router.num_shards();
                let all_home = in_range
                    && matched.results.iter().all(|result| {
                        router.all_on(
                            home,
                            result
                                .rwset
                                .reads
                                .iter()
                                .map(|(k, _)| *k)
                                .chain(result.rwset.writes.iter().map(|(k, _)| *k)),
                        )
                    });
                if all_home {
                    Some(home)
                } else {
                    // Out-of-range homes are lies too: count them so the
                    // detection telemetry sees every forged tag.
                    self.plan_mismatches.inc();
                    None
                }
            }
            _ => None,
        };
        let (outcomes, via_pool): (Vec<CommitOutcome>, bool) = if let Some(home) = verified_home {
            // Verified single-home fast path: the whole batch's ccheck
            // lands on one shard, per-transaction routing and the
            // cross-home fallback probe are skipped, and the pool (when
            // attached) receives the VERIFY message's own allocation.
            self.planned_batches.inc();
            self.single_home_batches.inc();
            let txns = matched.results.len() as u32;
            let accesses: u32 = matched
                .results
                .iter()
                .map(|result| result.rwset.len() as u32)
                .sum();
            actions.push(Action::ShardCcheck {
                shard: home,
                txns,
                accesses,
                planned: true,
                chained: false,
            });
            if let Some(pool) = self.apply_pool.as_ref() {
                let homes: Vec<Option<ShardId>> = matched
                    .results
                    .iter()
                    .map(|result| (!result.rwset.is_empty()).then_some(home))
                    .collect();
                (
                    pool.submit_tracked_homed(seq.0, Arc::clone(&matched.results), &homes)
                        .wait(),
                    true,
                )
            } else {
                let home_set: BTreeSet<ShardId> = std::iter::once(home).collect();
                (
                    matched
                        .results
                        .iter()
                        .map(|result| {
                            if result.rwset.is_empty() {
                                CommitOutcome::Applied
                            } else {
                                self.committer.commit_routed(
                                    &result.rwset,
                                    validate_reads,
                                    &home_set,
                                )
                            }
                        })
                        .collect(),
                    false,
                )
            }
        } else {
            // Unplanned (or mis-tagged / cross-home) path: route every
            // transaction once; the sets drive both the ShardCcheck
            // accounting and the commit calls below.
            let routes: Vec<BTreeSet<ShardId>> = matched
                .results
                .iter()
                .map(|result| self.committer.shards_of(&result.rwset))
                .collect();
            // Split the announced ccheck work: single-home transactions
            // charge their one shard and run in parallel across stations,
            // while cross-shard transactions hold every involved shard's
            // execution lock in ascending shard order — their slices are
            // `chained`, so CPU-modelling runtimes serialise them (shard
            // i+1 starts only after shard i grants).
            let mut solo_work: BTreeMap<ShardId, (u32, u32)> = BTreeMap::new();
            let mut cross_work: BTreeMap<ShardId, (u32, u32)> = BTreeMap::new();
            let mut all_shards: BTreeSet<ShardId> = BTreeSet::new();
            for (result, involved) in matched.results.iter().zip(&routes) {
                all_shards.extend(involved.iter().copied());
                let work = if involved.len() > 1 {
                    &mut cross_work
                } else {
                    &mut solo_work
                };
                for shard in involved {
                    let entry = work.entry(*shard).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += result.rwset.len() as u32;
                }
            }
            if all_shards.len() <= 1 {
                // Discovered-late single-home batch (the planner would
                // have tagged it; without lanes this is the baseline
                // measurement the `planner_points` experiment compares).
                self.single_home_batches.inc();
            }
            for (shard, (txns, accesses)) in solo_work {
                actions.push(Action::ShardCcheck {
                    shard,
                    txns,
                    accesses,
                    planned: false,
                    chained: false,
                });
            }
            for (shard, (txns, accesses)) in cross_work {
                actions.push(Action::ShardCcheck {
                    shard,
                    txns,
                    accesses,
                    planned: false,
                    chained: true,
                });
            }
            // The pool preserves commit order *within* a home shard (FIFO
            // queues, one worker per shard at a time), which is exact for
            // batches whose key overlaps all live on one home shard. A batch
            // where the same key is touched by transactions with different
            // home shards would apply those transactions in nondeterministic
            // relative order, so such (rare, cross-shard-conflicting) batches
            // fall back to the synchronous in-order path.
            let use_pool =
                self.apply_pool.is_some() && Self::pool_order_exact(&matched.results, &routes);
            if use_pool {
                let pool = self.apply_pool.as_ref().expect("checked above");
                // The VERIFY message's own result allocation is shared with
                // the pool (refcount bump — no per-transaction read-write
                // set is cloned); this thread waits for the per-transaction
                // outcomes. Batches reach this point in k_max order, so
                // per-shard commit order is submission order.
                let homes: Vec<Option<ShardId>> = routes
                    .iter()
                    .map(|involved| involved.iter().next().copied())
                    .collect();
                (
                    pool.submit_tracked_homed(seq.0, Arc::clone(&matched.results), &homes)
                        .wait(),
                    true,
                )
            } else {
                (
                    matched
                        .results
                        .iter()
                        .zip(&routes)
                        .map(|(result, involved)| {
                            self.committer
                                .commit_routed(&result.rwset, validate_reads, involved)
                        })
                        .collect(),
                    false,
                )
            }
        };
        if via_pool {
            self.pool_applied_txns.add(outcomes.len() as u64);
        }
        let mut committed = 0u32;
        let mut aborted = 0u32;
        for (result, outcome) in matched.results.iter().zip(&outcomes) {
            let (msg, txn_outcome) = if outcome.is_applied() {
                committed += 1;
                self.committed_txns.inc();
                (
                    ProtocolMessage::Response(ResponseMessage {
                        txn: result.txn,
                        seq,
                        outcome: TxnOutcome::Committed,
                        output: result.output,
                        signature: self.sign_marker("response", seq.0, result.output),
                    }),
                    TxnOutcome::Committed,
                )
            } else {
                aborted += 1;
                self.aborted_txns.inc();
                (
                    ProtocolMessage::Abort(AbortMessage {
                        txn: result.txn,
                        seq,
                        signature: self.sign_marker("abort", seq.0, result.txn.counter),
                    }),
                    TxnOutcome::Aborted,
                )
            };
            let _ = txn_outcome;
            self.responded.insert(result.txn, msg.clone());
            actions.push(Action::send(
                self.me(),
                Destination::Client(result.txn.client),
                msg,
            ));
            actions.extend(self.resolve_subject(RecoverySubject::Txn(result.txn)));
        }
        self.validated_batches.inc();
        actions.push(Action::send(
            self.me(),
            Destination::AllNodes,
            ProtocolMessage::BatchValidated(BatchValidated {
                seq,
                committed,
                aborted,
            }),
        ));
        actions.extend(self.resolve_subject(RecoverySubject::Seq(seq)));
        actions
    }

    /// Aborts a whole batch (byzantine-abort detection, Section VI-B).
    fn abort_batch(&mut self, seq: SeqNum, state: &SeqState) -> Vec<Action> {
        let mut actions = Vec::new();
        // Any received VERIFY tells us which transactions (and clients) the
        // batch contains.
        let Some(sample) = state.verifies.values().next() else {
            return actions;
        };
        self.divergent_aborts.inc();
        let mut aborted = 0u32;
        for result in sample.results.iter() {
            aborted += 1;
            self.aborted_txns.inc();
            let msg = ProtocolMessage::Abort(AbortMessage {
                txn: result.txn,
                seq,
                signature: self.sign_marker("abort", seq.0, result.txn.counter),
            });
            self.responded.insert(result.txn, msg.clone());
            actions.push(Action::send(
                self.me(),
                Destination::Client(result.txn.client),
                msg,
            ));
            actions.extend(self.resolve_subject(RecoverySubject::Txn(result.txn)));
        }
        self.validated_batches.inc();
        actions.push(Action::send(
            self.me(),
            Destination::AllNodes,
            ProtocolMessage::BatchValidated(BatchValidated {
                seq,
                committed: 0,
                aborted,
            }),
        ));
        actions.extend(self.resolve_subject(RecoverySubject::Seq(seq)));
        actions
    }

    /// Broadcasts an `ACK` if the subject had an outstanding `ERROR`.
    fn resolve_subject(&mut self, subject: RecoverySubject) -> Vec<Action> {
        if !self.outstanding.remove(&subject) {
            return Vec::new();
        }
        vec![Action::send(
            self.me(),
            Destination::AllNodes,
            ProtocolMessage::Ack(AckMessage {
                subject,
                signature: self.sign_marker("ack", 0, 0),
            }),
        )]
    }

    // ---- abort-detection timer ----------------------------------------------

    /// Handles the expiry of the abort-detection timer for `seq`
    /// (Section VI-B, *Verifier Abort Detection*).
    pub fn on_abort_timeout(&mut self, seq: SeqNum) -> Vec<Action> {
        let blame_threshold = self.config.params.verify_blame_threshold();
        let Some(state) = self.pending.get_mut(&seq) else {
            return Vec::new(); // already validated
        };
        if state.matched.is_some() {
            return Vec::new();
        }
        if state.verifies.len() < blame_threshold {
            // Fewer than 2f_E + 1 executors answered: conservatively blame
            // the primary and ask the shim to replace it.
            let subject = RecoverySubject::Seq(seq);
            self.outstanding.insert(subject);
            return vec![Action::send(
                self.me(),
                Destination::AllNodes,
                ProtocolMessage::Replace(ReplaceMessage {
                    subject,
                    signature: self.sign_marker("replace", seq.0, 0),
                }),
            )];
        }
        // Enough executors answered but their results conflict: the
        // transaction(s) must be aborted. If this is the next batch in
        // order we abort immediately, otherwise we tag it in π.
        state.abort_tagged = true;
        self.advance_kmax()
    }

    // ---- client re-transmissions ----------------------------------------------

    /// Handles a client request re-transmitted directly to the verifier
    /// (Figure 4, verifier role).
    pub fn on_client_request(&mut self, req: &ClientRequest) -> Vec<Action> {
        let digest = ClientRequest::signing_digest(&req.txn);
        if !self.crypto.verify(
            ComponentId::Client(req.txn.id.client),
            &digest,
            &req.signature,
        ) {
            return Vec::new();
        }
        let txn = req.txn.id;
        // (i) Already answered: re-send the response.
        if let Some(msg) = self.responded.get(&txn) {
            return vec![Action::send(
                self.me(),
                Destination::Client(txn.client),
                msg.clone(),
            )];
        }
        match self.txn_location.get(&txn) {
            Some(seq) => {
                let matched = self
                    .pending
                    .get(seq)
                    .is_some_and(|state| state.matched.is_some());
                if matched {
                    // (ii) The request sits in π waiting for k_max: tell the
                    // shim which sequence number is missing.
                    let subject = RecoverySubject::Seq(self.kmax);
                    self.outstanding.insert(subject);
                    vec![Action::send(
                        self.me(),
                        Destination::AllNodes,
                        ProtocolMessage::Error(ErrorMessage {
                            subject,
                            request: None,
                            signature: self.sign_marker("error", self.kmax.0, 0),
                        }),
                    )]
                } else {
                    // (iii) Some VERIFY messages arrived but not f_E + 1
                    // matching ones: only a byzantine primary can cause
                    // this, ask for its replacement.
                    let subject = RecoverySubject::Txn(txn);
                    self.outstanding.insert(subject);
                    vec![Action::send(
                        self.me(),
                        Destination::AllNodes,
                        ProtocolMessage::Replace(ReplaceMessage {
                            subject,
                            signature: self.sign_marker("replace", txn.counter, 1),
                        }),
                    )]
                }
            }
            None => {
                // No VERIFY message mentions this transaction: the shim may
                // never have ordered it. The ERROR carries ⟨T⟩_C so the
                // primary can order it (Figure 4, line 12).
                let subject = RecoverySubject::Txn(txn);
                self.outstanding.insert(subject);
                vec![Action::send(
                    self.me(),
                    Destination::AllNodes,
                    ProtocolMessage::Error(ErrorMessage {
                        subject,
                        request: Some(req.clone()),
                        signature: self.sign_marker("error", txn.counter, 1),
                    }),
                )]
            }
        }
    }

    /// Entry point for all messages addressed to the verifier.
    pub fn on_message(&mut self, msg: &ProtocolMessage) -> Vec<Action> {
        match msg {
            ProtocolMessage::Verify(v) => self.on_verify(v),
            ProtocolMessage::ClientRequest(r) => self.on_client_request(r),
            _ => Vec::new(),
        }
    }

    /// Entry point for verifier timers.
    pub fn on_timer(&mut self, timer: ProtocolTimer) -> Vec<Action> {
        match timer {
            ProtocolTimer::VerifierAbort(seq) => self.on_abort_timeout(seq),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_crypto::certificate::commit_digest;
    use sbft_crypto::{CommitCertificate, CryptoProvider, SimSigner};
    use sbft_storage::YcsbTable;
    use sbft_types::{
        Batch, ClientId, Digest, Key, NodeId, Operation, ReadWriteSet, Transaction, TxnResult,
        Value, Version, ViewNumber,
    };

    struct Fixture {
        provider: Arc<CryptoProvider>,
        store: Arc<VersionedStore>,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                provider: CryptoProvider::new(5),
                store: YcsbTable::populate(100).store().clone(),
            }
        }

        fn verifier(&self, conflict: ConflictHandling) -> Verifier {
            self.verifier_sharded(conflict, ShardingConfig::default())
        }

        fn verifier_sharded(
            &self,
            conflict: ConflictHandling,
            sharding: ShardingConfig,
        ) -> Verifier {
            // Primary-only spawning: n_e executors per batch, or 3f_E + 1
            // when conflicting transactions have unknown rw-sets.
            let params = FaultParams::for_shim_size(4);
            let spawned = match conflict {
                ConflictHandling::UnknownRwSets => params.n_e.max(params.executors_for_conflicts()),
                _ => params.n_e,
            };
            Verifier::new(
                self.provider.handle(ComponentId::Verifier),
                Arc::clone(&self.store),
                VerifierConfig {
                    params,
                    conflict_handling: conflict,
                    abort_timeout: SimDuration::from_millis(100),
                    cert_quorum: 3,
                    spawned_per_batch: spawned,
                    sharding,
                    checkpoint_interval: 4,
                },
            )
        }

        fn certificate(&self, seq: u64, digest: Digest) -> std::sync::Arc<CommitCertificate> {
            let cd = commit_digest(ViewNumber(0), SeqNum(seq), &digest);
            let entries = (0..3u32)
                .map(|n| {
                    let kp = self
                        .provider
                        .key_store()
                        .keypair_for(ComponentId::Node(NodeId(n)));
                    (NodeId(n), SimSigner::sign(&kp, &cd))
                })
                .collect();
            std::sync::Arc::new(CommitCertificate::new(
                ViewNumber(0),
                SeqNum(seq),
                digest,
                entries,
            ))
        }

        /// Builds a VERIFY message from executor `executor` for batch `seq`
        /// containing a single committed write of `value` to key 1 read at
        /// `read_version`.
        fn verify_msg(
            &self,
            executor: u64,
            seq: u64,
            client: u32,
            value: u64,
            read_version: u64,
        ) -> VerifyMessage {
            let txn_id = TxnId::new(ClientId(client), seq);
            let mut rwset = ReadWriteSet::new();
            rwset.record_read(Key(1), Version(read_version));
            rwset.record_write(Key(2), Value::new(value));
            let results = vec![TxnResult {
                txn: txn_id,
                output: value,
                rwset,
            }];
            self.verify_msg_with_results(executor, seq, results)
        }

        /// Builds a VERIFY message carrying an arbitrary result list.
        fn verify_msg_with_results(
            &self,
            executor: u64,
            seq: u64,
            results: Vec<TxnResult>,
        ) -> VerifyMessage {
            let digest = Digest::from_bytes([seq as u8; 32]);
            let result_digest = VerifyMessage::digest_of_results(SeqNum(seq), &results);
            let handle = self
                .provider
                .handle(ComponentId::Executor(ExecutorId(executor)));
            let batch = Batch::single(Transaction::new(
                results[0].txn,
                vec![Operation::Read(Key(1))],
            ));
            VerifyMessage {
                executor: ExecutorId(executor),
                view: ViewNumber(0),
                seq: SeqNum(seq),
                batch_id: batch.id(),
                batch_digest: digest,
                results: results.into(),
                result_digest,
                certificate: self.certificate(seq, digest),
                plan: ShardPlan::Unplanned,
                signature: handle.sign(&result_digest),
            }
        }

        /// Like [`Self::verify_msg_with_results`], with an ordering-time
        /// plan tag attached (honest or lying — the verifier must not
        /// care for correctness).
        fn verify_msg_planned(
            &self,
            executor: u64,
            seq: u64,
            results: Vec<TxnResult>,
            plan: ShardPlan,
        ) -> VerifyMessage {
            let mut msg = self.verify_msg_with_results(executor, seq, results);
            msg.plan = plan;
            msg
        }
    }

    fn response_kinds(actions: &[Action]) -> Vec<&'static str> {
        crate::events::envelopes(actions)
            .iter()
            .map(|e| e.msg.kind())
            .collect()
    }

    #[test]
    fn two_matching_verifies_validate_and_respond() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let m1 = fx.verify_msg(1, 1, 0, 42, 1);
        let m2 = fx.verify_msg(2, 1, 0, 42, 1);
        assert!(v.on_verify(&m1).is_empty(), "one VERIFY is not enough");
        let actions = v.on_verify(&m2);
        let kinds = response_kinds(&actions);
        assert!(kinds.contains(&"RESPONSE"));
        assert!(kinds.contains(&"BATCH-VALIDATED"));
        assert_eq!(v.committed_txns(), 1);
        assert_eq!(v.kmax(), SeqNum(2));
        // The write was applied to storage.
        assert_eq!(fx.store.get(Key(2)).unwrap().value, Value::new(42));
    }

    #[test]
    fn mismatching_results_do_not_reach_quorum() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let honest = fx.verify_msg(1, 1, 0, 42, 1);
        let lying = fx.verify_msg(2, 1, 0, 999, 1);
        assert!(v.on_verify(&honest).is_empty());
        assert!(v.on_verify(&lying).is_empty());
        assert_eq!(v.committed_txns(), 0);
        // A third executor agreeing with the honest one resolves it.
        let honest2 = fx.verify_msg(3, 1, 0, 42, 1);
        let actions = v.on_verify(&honest2);
        assert!(response_kinds(&actions).contains(&"RESPONSE"));
        assert_eq!(fx.store.get(Key(2)).unwrap().value, Value::new(42));
    }

    #[test]
    fn out_of_order_batches_wait_in_pi() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        // Batch 2 matches first but must wait for batch 1.
        let _ = v.on_verify(&fx.verify_msg(1, 2, 1, 7, 1));
        let actions = v.on_verify(&fx.verify_msg(2, 2, 1, 7, 1));
        assert!(
            response_kinds(&actions).is_empty(),
            "batch 2 must wait for batch 1"
        );
        assert_eq!(v.kmax(), SeqNum(1));
        assert_eq!(v.pending_len(), 1);
        // Batch 1 arrives and both validate in order.
        let _ = v.on_verify(&fx.verify_msg(3, 1, 0, 5, 1));
        let actions = v.on_verify(&fx.verify_msg(4, 1, 0, 5, 1));
        assert_eq!(v.kmax(), SeqNum(3));
        let kinds = response_kinds(&actions);
        assert_eq!(kinds.iter().filter(|k| **k == "RESPONSE").count(), 2);
        assert_eq!(v.validated_batches(), 2);
    }

    #[test]
    fn flooding_duplicates_are_ignored() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let m1 = fx.verify_msg(1, 1, 0, 42, 1);
        let _ = v.on_verify(&m1);
        // The same executor floods the verifier with copies.
        let _ = v.on_verify(&m1);
        let _ = v.on_verify(&m1);
        assert_eq!(v.ignored_verifies(), 2);
        // Match the batch; further VERIFY messages for it are ignored too.
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 42, 1));
        let _ = v.on_verify(&fx.verify_msg(3, 1, 0, 42, 1));
        assert!(v.ignored_verifies() >= 3);
        assert_eq!(
            v.committed_txns(),
            1,
            "flooding does not double-apply writes"
        );
    }

    #[test]
    fn forged_executor_signature_rejected() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let mut m = fx.verify_msg(1, 1, 0, 42, 1);
        m.signature = sbft_types::Signature::ZERO;
        assert!(v.on_verify(&m).is_empty());
        assert_eq!(v.pending_len(), 0, "rejected messages are not stored");
    }

    #[test]
    fn bad_certificate_rejected() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let mut m = fx.verify_msg(1, 1, 0, 42, 1);
        std::sync::Arc::make_mut(&mut m.certificate)
            .entries
            .truncate(1);
        assert!(v.on_verify(&m).is_empty());
    }

    #[test]
    fn stale_reads_abort_the_transaction_when_conflicts_tracked() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::UnknownRwSets);
        // The executors read key 1 at version 1, but storage has moved on.
        fx.store.put(Key(1), Value::new(123));
        let m1 = fx.verify_msg(1, 1, 0, 42, 1);
        let _ = v.on_verify(&m1);
        let actions = v.on_verify(&fx.verify_msg(2, 1, 0, 42, 1));
        let kinds = response_kinds(&actions);
        assert!(kinds.contains(&"ABORT"));
        assert_eq!(v.aborted_txns(), 1);
        assert_eq!(v.committed_txns(), 0);
        // Key 2 was not written.
        assert_ne!(fx.store.get(Key(2)).unwrap().value, Value::new(42));
    }

    #[test]
    fn abort_timer_starts_only_in_unknown_rwset_mode() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::UnknownRwSets);
        let actions = v.on_verify(&fx.verify_msg(1, 1, 0, 42, 1));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::StartTimer {
                timer: ProtocolTimer::VerifierAbort(_),
                ..
            }
        )));
        let mut v2 = fx.verifier(ConflictHandling::NonConflicting);
        let actions = v2.on_verify(&fx.verify_msg(1, 1, 0, 42, 1));
        assert!(!actions.iter().any(|a| matches!(
            a,
            Action::StartTimer {
                timer: ProtocolTimer::VerifierAbort(_),
                ..
            }
        )));
    }

    #[test]
    fn abort_timeout_with_few_verifies_blames_the_primary() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::UnknownRwSets);
        // Only one executor answered (< 2f_E + 1 = 3).
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 42, 1));
        let actions = v.on_abort_timeout(SeqNum(1));
        assert!(actions.iter().any(|a| a.sends_kind("REPLACE")));
        assert_eq!(
            v.aborted_txns(),
            0,
            "blaming the primary does not abort yet"
        );
    }

    #[test]
    fn abort_timeout_with_enough_but_divergent_verifies_aborts() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::UnknownRwSets);
        // 3 executors answered (≥ 2f_E + 1) but no two match.
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 1, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 2, 1));
        let _ = v.on_verify(&fx.verify_msg(3, 1, 0, 3, 1));
        let actions = v.on_abort_timeout(SeqNum(1));
        assert!(actions.iter().any(|a| a.sends_kind("ABORT")));
        assert_eq!(v.aborted_txns(), 1);
        assert_eq!(v.divergent_aborts(), 1);
        assert_eq!(
            v.kmax(),
            SeqNum(2),
            "the aborted batch no longer blocks the order"
        );
    }

    #[test]
    fn client_retry_resends_existing_response() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let _ = v.on_verify(&fx.verify_msg(1, 1, 3, 42, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 3, 42, 1));
        // The client re-transmits its request to the verifier.
        let txn = Transaction::new(TxnId::new(ClientId(3), 1), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&txn);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(3)))
                .sign(&digest),
            txn,
        };
        let actions = v.on_client_request(&req);
        let env = actions[0].as_send().unwrap();
        assert_eq!(env.to, Destination::Client(ClientId(3)));
        assert_eq!(env.msg.kind(), "RESPONSE");
    }

    #[test]
    fn client_retry_for_unknown_txn_raises_error() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let txn = Transaction::new(TxnId::new(ClientId(5), 0), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&txn);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(5)))
                .sign(&digest),
            txn,
        };
        let actions = v.on_client_request(&req);
        assert!(actions.iter().any(|a| a.sends_kind("ERROR")));
    }

    #[test]
    fn client_retry_with_forged_signature_ignored() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let txn = Transaction::new(TxnId::new(ClientId(5), 0), vec![Operation::Read(Key(1))]);
        let req = ClientRequest {
            txn,
            signature: sbft_types::Signature::ZERO,
        };
        assert!(v.on_client_request(&req).is_empty());
    }

    #[test]
    fn client_retry_while_waiting_in_pi_reports_kmax_and_acks_later() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        // Batch 2 is matched but batch 1 has not arrived.
        let _ = v.on_verify(&fx.verify_msg(1, 2, 4, 9, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 2, 4, 9, 1));
        let txn = Transaction::new(TxnId::new(ClientId(4), 2), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&txn);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(4)))
                .sign(&digest),
            txn,
        };
        let actions = v.on_client_request(&req);
        let error = crate::events::envelopes(&actions)
            .into_iter()
            .find(|e| e.msg.kind() == "ERROR")
            .expect("error broadcast");
        match &error.msg {
            ProtocolMessage::Error(e) => {
                assert_eq!(
                    e.subject,
                    RecoverySubject::Seq(SeqNum(1)),
                    "reports the missing k_max"
                );
            }
            _ => unreachable!(),
        }
        // Batch 1 finally validates: the verifier ACKs the resolved subject.
        let _ = v.on_verify(&fx.verify_msg(3, 1, 0, 5, 1));
        let actions = v.on_verify(&fx.verify_msg(4, 1, 0, 5, 1));
        assert!(actions.iter().any(|a| a.sends_kind("ACK")));
    }

    #[test]
    fn client_retry_with_divergent_verifies_requests_replacement() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::UnknownRwSets);
        // Verifies exist for the transaction but they do not match.
        let _ = v.on_verify(&fx.verify_msg(1, 1, 6, 1, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 6, 2, 1));
        let txn = Transaction::new(TxnId::new(ClientId(6), 1), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&txn);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(6)))
                .sign(&digest),
            txn,
        };
        let actions = v.on_client_request(&req);
        assert!(actions.iter().any(|a| a.sends_kind("REPLACE")));
    }

    #[test]
    fn fully_divergent_verifies_reexecute_once_then_abort() {
        // All three spawned executors answered with three different
        // digests: no f_E + 1 quorum is possible. The head batch is
        // re-spawned once through ERROR(k_max); when the second wave
        // disagrees too, it aborts instead of blocking k_max forever.
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 1, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 2, 1));
        let actions = v.on_verify(&fx.verify_msg(3, 1, 0, 3, 1));
        assert!(actions.iter().any(|a| a.sends_kind("ERROR")));
        assert!(!actions.iter().any(|a| a.sends_kind("ABORT")));
        assert_eq!(v.reexecutions(), 1);
        assert_eq!(v.kmax(), SeqNum(1), "the batch waits for its second wave");
        // A late copy from the discarded wave does not count.
        assert!(v.on_verify(&fx.verify_msg(3, 1, 0, 2, 1)).is_empty());
        let _ = v.on_verify(&fx.verify_msg(4, 1, 0, 4, 1));
        let _ = v.on_verify(&fx.verify_msg(5, 1, 0, 5, 1));
        let actions = v.on_verify(&fx.verify_msg(6, 1, 0, 6, 1));
        assert!(actions.iter().any(|a| a.sends_kind("ABORT")));
        assert!(actions.iter().any(|a| a.sends_kind("ACK")));
        assert_eq!(v.aborted_txns(), 1);
        assert_eq!(v.divergent_aborts(), 1);
        assert_eq!(v.reexecutions(), 1);
        assert_eq!(
            v.kmax(),
            SeqNum(2),
            "the unmatchable batch no longer blocks"
        );
    }

    #[test]
    fn divergent_batch_reexecutes_at_the_head_and_commits() {
        // Batch 2's executors disagree while batch 1 is still open: no
        // re-execution yet, since batch 1's apply could still change what
        // a new wave reads. Once batch 1 applies, batch 2 is re-spawned;
        // the second wave reads one state, matches and commits.
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let _ = v.on_verify(&fx.verify_msg(1, 2, 0, 1, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 2, 0, 2, 1));
        let actions = v.on_verify(&fx.verify_msg(3, 2, 0, 3, 1));
        assert!(actions.is_empty(), "not at the head yet: {actions:?}");
        let _ = v.on_verify(&fx.verify_msg(4, 1, 1, 7, 1));
        let actions = v.on_verify(&fx.verify_msg(5, 1, 1, 7, 1));
        assert!(actions.iter().any(|a| a.sends_kind("ERROR")));
        assert_eq!(v.kmax(), SeqNum(2));
        let _ = v.on_verify(&fx.verify_msg(6, 2, 0, 9, 2));
        let actions = v.on_verify(&fx.verify_msg(7, 2, 0, 9, 2));
        assert!(actions.iter().any(|a| a.sends_kind("RESPONSE")));
        assert!(actions.iter().any(|a| a.sends_kind("ACK")));
        assert_eq!(v.committed_txns(), 2);
        assert_eq!(v.aborted_txns(), 0);
        assert_eq!(v.divergent_aborts(), 0);
        assert_eq!(v.reexecutions(), 1);
    }

    #[test]
    fn divergence_abort_waits_for_every_decentralized_spawn() {
        // Decentralized spawning over-spawns: 4 nodes × 1 executor = 4
        // per batch. Three divergent VERIFYs must NOT abort the batch,
        // because the fourth may still complete an f_E + 1 quorum.
        let fx = Fixture::new();
        let mut v = Verifier::new(
            fx.provider.handle(ComponentId::Verifier),
            Arc::clone(&fx.store),
            VerifierConfig {
                params: FaultParams::for_shim_size(4),
                conflict_handling: ConflictHandling::NonConflicting,
                abort_timeout: SimDuration::from_millis(100),
                cert_quorum: 3,
                // decentralized: n_r × decentralized_spawn_count()
                spawned_per_batch: 4,
                sharding: ShardingConfig::default(),
                checkpoint_interval: 4,
            },
        );
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 1, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 2, 1));
        let actions = v.on_verify(&fx.verify_msg(3, 1, 0, 3, 1));
        assert!(
            !actions.iter().any(|a| a.sends_kind("ABORT")),
            "three of four verifies must not trigger the divergence abort"
        );
        assert_eq!(v.aborted_txns(), 0);
        // The fourth executor agrees with one of them: quorum, commit.
        let actions = v.on_verify(&fx.verify_msg(4, 1, 0, 2, 1));
        assert!(actions.iter().any(|a| a.sends_kind("RESPONSE")));
        assert_eq!(v.committed_txns(), 1);
    }

    #[test]
    fn decentralized_divergent_wave_is_reexecuted_with_every_spawn() {
        // 4 executors per batch (4 nodes × 1). A fully divergent first
        // wave asks for the batch again instead of aborting; the second
        // wave is as large as the first, so it can reach the f_E + 1
        // match among its 4 answers.
        let fx = Fixture::new();
        let mut v = Verifier::new(
            fx.provider.handle(ComponentId::Verifier),
            Arc::clone(&fx.store),
            VerifierConfig {
                params: FaultParams::for_shim_size(4),
                conflict_handling: ConflictHandling::NonConflicting,
                abort_timeout: SimDuration::from_millis(100),
                cert_quorum: 3,
                spawned_per_batch: 4,
                sharding: ShardingConfig::default(),
                checkpoint_interval: 4,
            },
        );
        for executor in 1..=3 {
            assert!(v
                .on_verify(&fx.verify_msg(executor, 1, 0, executor, 1))
                .is_empty());
        }
        let actions = v.on_verify(&fx.verify_msg(4, 1, 0, 4, 1));
        assert!(actions.iter().any(|a| a.sends_kind("ERROR")));
        assert!(!actions.iter().any(|a| a.sends_kind("ABORT")));
        assert_eq!(v.reexecutions(), 1);
        let _ = v.on_verify(&fx.verify_msg(5, 1, 0, 5, 1));
        let _ = v.on_verify(&fx.verify_msg(6, 1, 0, 6, 1));
        let actions = v.on_verify(&fx.verify_msg(7, 1, 0, 6, 1));
        assert!(actions.iter().any(|a| a.sends_kind("RESPONSE")));
        assert_eq!(v.committed_txns(), 1);
        assert_eq!(v.aborted_txns(), 0);
        assert_eq!(v.kmax(), SeqNum(2));
    }

    #[test]
    fn sharded_verifier_announces_ccheck_work_before_responses() {
        let fx = Fixture::new();
        let mut v = fx.verifier_sharded(
            ConflictHandling::NonConflicting,
            sbft_types::ShardingConfig::with_shards(8),
        );
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 42, 1));
        let actions = v.on_verify(&fx.verify_msg(2, 1, 0, 42, 1));
        let ccheck_positions: Vec<usize> = actions
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, Action::ShardCcheck { .. }))
            .map(|(i, _)| i)
            .collect();
        assert!(!ccheck_positions.is_empty(), "shard work must be announced");
        let first_send = actions
            .iter()
            .position(|a| a.as_send().is_some())
            .expect("responses follow");
        assert!(
            ccheck_positions.iter().all(|p| *p < first_send),
            "shard work precedes the responses it gates"
        );
        // Every transaction of the batch is accounted to some shard.
        let total_txns: u32 = actions
            .iter()
            .filter_map(|a| match a {
                Action::ShardCcheck { txns, .. } => Some(*txns),
                _ => None,
            })
            .sum();
        assert!(total_txns >= 1);
        assert_eq!(v.committed_txns(), 1);
        assert_eq!(fx.store.get(Key(2)).unwrap().value, Value::new(42));
    }

    #[test]
    fn pool_apply_stage_matches_the_synchronous_path() {
        // The same VERIFY sequence (including a stale-read abort) through
        // the synchronous apply stage and through an attached
        // ShardScheduler pool must produce identical counters, responses
        // and storage state.
        let run = |attach_pool: bool| {
            let fx = Fixture::new();
            let mut v = fx.verifier_sharded(
                ConflictHandling::UnknownRwSets,
                sbft_types::ShardingConfig::with_shards(8),
            );
            if attach_pool {
                v.attach_apply_pool(4);
                assert!(v.apply_pool_active());
            }
            let mut kinds = Vec::new();
            for seq in 1..=6u64 {
                // Batch 4 reads a stale version and must abort.
                let read_version = if seq == 4 { 99 } else { 1 };
                let _ = v.on_verify(&fx.verify_msg(1, seq, 0, seq, read_version));
                let actions = v.on_verify(&fx.verify_msg(2, seq, 0, seq, read_version));
                kinds.extend(
                    crate::events::envelopes(&actions)
                        .iter()
                        .map(|e| e.msg.kind().to_string()),
                );
            }
            let state = fx.store.get(Key(2)).unwrap().value;
            (
                v.committed_txns(),
                v.aborted_txns(),
                v.validated_batches(),
                kinds,
                state,
                v.pool_applied_txns(),
            )
        };
        let sync = run(false);
        let pooled = run(true);
        assert_eq!(sync.0, pooled.0, "committed");
        assert_eq!(sync.1, pooled.1, "aborted");
        assert_eq!(sync.2, pooled.2, "validated batches");
        assert_eq!(sync.3, pooled.3, "response kinds");
        assert_eq!(sync.4, pooled.4, "final storage state");
        assert_eq!(sync.5, 0, "synchronous path never touches the pool");
        assert_eq!(pooled.5, 6, "every applied txn went through the pool");
    }

    #[test]
    fn pool_order_exactness_is_order_insensitive_to_the_writer_position() {
        // Key shared by (home-2 reader, home-0 reader, home-2 WRITER):
        // the writer arriving last, from the same home as the first
        // toucher, must still force the fallback because the home-0
        // reader races against it.
        let shared = Key(1);
        let result = |reads: Vec<Key>, writes: Vec<Key>, n: u64| {
            let mut rwset = ReadWriteSet::new();
            for k in reads {
                rwset.record_read(k, Version(1));
            }
            for k in writes {
                rwset.record_write(k, Value::new(n));
            }
            TxnResult {
                txn: TxnId::new(ClientId(n as u32), 1),
                output: n,
                rwset,
            }
        };
        use sbft_sharding::ShardId;
        let home = |ids: &[u32]| ids.iter().map(|i| ShardId(*i)).collect::<BTreeSet<_>>();
        let results = vec![
            result(vec![shared], vec![], 0),
            result(vec![shared], vec![Key(9)], 1),
            result(vec![], vec![shared], 2),
        ];
        let routes = vec![home(&[2]), home(&[0, 2]), home(&[2])];
        assert!(!Verifier::pool_order_exact(&results, &routes));
        // All on one home shard: exact, whatever the write pattern.
        let routes = vec![home(&[2]), home(&[2]), home(&[2])];
        assert!(Verifier::pool_order_exact(&results, &routes));
        // Read-only sharing across homes: order independent, exact.
        let read_only = vec![
            result(vec![shared], vec![], 0),
            result(vec![shared], vec![Key(9)], 1),
        ];
        let routes = vec![home(&[2]), home(&[0, 2])];
        assert!(Verifier::pool_order_exact(&read_only, &routes));
    }

    #[test]
    fn pool_falls_back_to_in_order_apply_for_cross_home_key_conflicts() {
        // Two transactions of one batch write/read the same key while
        // living on different home shards: the pool's per-shard FIFOs
        // could not order them, so the verifier must apply that batch
        // synchronously (in batch order) — txn B's read of the key txn A
        // just wrote is stale, deterministically.
        let fx = Fixture::new();
        // A conflict-tracking mode, so read validation is on and the
        // apply order is observable.
        let mut v = fx.verifier_sharded(
            ConflictHandling::UnknownRwSets,
            sbft_types::ShardingConfig::with_shards(8),
        );
        v.attach_apply_pool(4);
        let router = *v.committer().router();
        let k1 = Key(1);
        // A key on a *higher-numbered* shard than k1's, so txn A (which
        // touches both) homes on k1's shard while txn B homes on k2's.
        let k2 = (2..)
            .map(Key)
            .find(|k| router.shard_of(*k).0 > router.shard_of(k1).0)
            .expect("8 shards have a higher-numbered one");
        let mut rw_a = ReadWriteSet::new();
        rw_a.record_read(k1, Version(1));
        rw_a.record_write(k2, Value::new(77));
        let mut rw_b = ReadWriteSet::new();
        rw_b.record_read(k2, fx.store.version_of(k2));
        rw_b.record_write(k2, Value::new(88));
        let results = vec![
            TxnResult {
                txn: TxnId::new(ClientId(0), 1),
                output: 77,
                rwset: rw_a,
            },
            TxnResult {
                txn: TxnId::new(ClientId(1), 1),
                output: 88,
                rwset: rw_b,
            },
        ];
        let _ = v.on_verify(&fx.verify_msg_with_results(1, 1, results.clone()));
        let actions = v.on_verify(&fx.verify_msg_with_results(2, 1, results));
        let kinds = response_kinds(&actions);
        assert!(kinds.contains(&"RESPONSE"), "txn A commits");
        assert!(kinds.contains(&"ABORT"), "txn B reads A's write stale");
        assert_eq!(v.committed_txns(), 1);
        assert_eq!(v.aborted_txns(), 1);
        assert_eq!(
            v.pool_applied_txns(),
            0,
            "the conflicting batch must bypass the pool"
        );
        assert_eq!(fx.store.get(k2).unwrap().value, Value::new(77));
        // A conflict-free follow-up batch flows through the pool again.
        let _ = v.on_verify(&fx.verify_msg(1, 2, 2, 5, 1));
        let actions = v.on_verify(&fx.verify_msg(2, 2, 2, 5, 1));
        assert!(response_kinds(&actions).contains(&"RESPONSE"));
        assert_eq!(v.pool_applied_txns(), 1);
    }

    #[test]
    fn verifier_commits_identically_across_shard_counts() {
        for shards in [1usize, 4, 16] {
            let fx = Fixture::new();
            let mut v = fx.verifier_sharded(
                ConflictHandling::NonConflicting,
                sbft_types::ShardingConfig::with_shards(shards),
            );
            for seq in 1..=5u64 {
                let _ = v.on_verify(&fx.verify_msg(1, seq, 0, seq, 1));
                let _ = v.on_verify(&fx.verify_msg(2, seq, 0, seq, 1));
            }
            assert_eq!(v.committed_txns(), 5, "{shards} shards");
            assert_eq!(v.kmax(), SeqNum(6));
            assert_eq!(fx.store.get(Key(2)).unwrap().value, Value::new(5));
        }
    }

    #[test]
    fn retry_maps_truncate_at_the_checkpoint_interval() {
        // Fixture checkpoint interval is 4. Validate 9 batches: the last
        // stable checkpoint k_max passed is 8, so everything at or below
        // checkpoint 4 is dropped while the last closed interval (5..=8)
        // plus batch 9 is retained for client retries.
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        for seq in 1..=9u64 {
            let _ = v.on_verify(&fx.verify_msg(1, seq, 0, seq, 1));
            let _ = v.on_verify(&fx.verify_msg(2, seq, 0, seq, 1));
        }
        assert_eq!(v.kmax(), SeqNum(10));
        assert_eq!(v.responded_len(), 5, "seqs 5..=9 retained");
        assert_eq!(v.txn_location_len(), 5);

        // A late duplicate request inside the retained window is still
        // answered with the stored RESPONSE.
        let txn = Transaction::new(TxnId::new(ClientId(0), 7), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&txn);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(0)))
                .sign(&digest),
            txn,
        };
        let actions = v.on_client_request(&req);
        let env = actions[0].as_send().unwrap();
        assert_eq!(env.msg.kind(), "RESPONSE");

        // A duplicate older than the GC floor falls back to the
        // ERROR(⟨T⟩_C) recovery path (the primary recognises it as a
        // duplicate and drops it).
        let old = Transaction::new(TxnId::new(ClientId(0), 2), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&old);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(0)))
                .sign(&digest),
            txn: old,
        };
        let actions = v.on_client_request(&req);
        assert!(actions.iter().any(|a| a.sends_kind("ERROR")));
    }

    #[test]
    fn retry_maps_do_not_grow_without_bound() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        for seq in 1..=100u64 {
            let _ = v.on_verify(&fx.verify_msg(1, seq, 0, seq, 1));
            let _ = v.on_verify(&fx.verify_msg(2, seq, 0, seq, 1));
        }
        // One interval of history plus the open interval: never more than
        // two intervals' worth of entries with one transaction per batch.
        assert!(
            v.responded_len() <= 8,
            "responded holds {} entries",
            v.responded_len()
        );
        assert!(v.txn_location_len() <= 8);
        assert_eq!(v.committed_txns(), 100);
    }

    #[test]
    fn divergent_abort_counter_tracks_whole_batch_divergence() {
        // Count-triggered divergence (all spawned executors answered, no
        // quorum, in both the first and the re-executed wave) increments
        // the counter ...
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        for executor in 1..=6 {
            let _ = v.on_verify(&fx.verify_msg(executor, 1, 0, executor, 1));
        }
        assert_eq!(v.divergent_aborts(), 1);
        // ... and a matched batch does not.
        let _ = v.on_verify(&fx.verify_msg(1, 2, 0, 5, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 2, 0, 5, 1));
        assert_eq!(v.divergent_aborts(), 1);
        assert_eq!(v.committed_txns(), 1);
    }

    #[test]
    fn cert_quorum_zero_accepts_baseline_verifies() {
        let fx = Fixture::new();
        let mut v = Verifier::new(
            fx.provider.handle(ComponentId::Verifier),
            Arc::clone(&fx.store),
            VerifierConfig {
                params: FaultParams::for_shim_size(4),
                conflict_handling: ConflictHandling::NonConflicting,
                abort_timeout: SimDuration::from_millis(100),
                cert_quorum: 0,
                spawned_per_batch: 3,
                sharding: ShardingConfig::default(),
                checkpoint_interval: 4,
            },
        );
        let mut m = fx.verify_msg(1, 1, 0, 42, 1);
        std::sync::Arc::make_mut(&mut m.certificate).entries.clear();
        let mut m2 = fx.verify_msg(2, 1, 0, 42, 1);
        std::sync::Arc::make_mut(&mut m2.certificate)
            .entries
            .clear();
        let _ = v.on_verify(&m);
        let actions = v.on_verify(&m2);
        assert!(response_kinds(&actions).contains(&"RESPONSE"));
    }

    /// A result writing `key` after reading it at version 1.
    fn rmw_result(client: u32, key: Key, value: u64) -> TxnResult {
        let mut rwset = ReadWriteSet::new();
        rwset.record_read(key, Version(1));
        rwset.record_write(key, Value::new(value));
        TxnResult {
            txn: TxnId::new(ClientId(client), 1),
            output: value,
            rwset,
        }
    }

    /// `n` distinct keys all living on one shard of the verifier's router.
    fn keys_on_one_shard(v: &Verifier, n: usize) -> (sbft_sharding::ShardId, Vec<Key>) {
        let router = *v.committer().router();
        let home = router.shard_of(Key(1));
        let keys: Vec<Key> = (1..)
            .map(Key)
            .filter(|k| router.shard_of(*k) == home)
            .take(n)
            .collect();
        (home, keys)
    }

    #[test]
    fn verified_single_home_plan_takes_the_fast_path() {
        let fx = Fixture::new();
        let mut v = fx.verifier_sharded(
            ConflictHandling::KnownRwSets,
            sbft_types::ShardingConfig::with_shards(8),
        );
        let (home, keys) = keys_on_one_shard(&v, 3);
        let results: Vec<TxnResult> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| rmw_result(i as u32, *k, 10 + i as u64))
            .collect();
        let plan = ShardPlan::SingleHome(home);
        let _ = v.on_verify(&fx.verify_msg_planned(1, 1, results.clone(), plan));
        let actions = v.on_verify(&fx.verify_msg_planned(2, 1, results, plan));
        // Exactly one ShardCcheck, on the verified home shard.
        let cchecks: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::ShardCcheck { shard, txns, .. } => Some((*shard, *txns)),
                _ => None,
            })
            .collect();
        assert_eq!(cchecks, vec![(home, 3)]);
        assert_eq!(v.planned_batches(), 1);
        assert_eq!(v.plan_mismatches(), 0);
        assert_eq!(v.single_home_batches(), 1);
        assert_eq!(v.committed_txns(), 3);
        assert_eq!(fx.store.get(keys[0]).unwrap().value, Value::new(10));
    }

    #[test]
    fn lying_single_home_plan_falls_back_without_corrupting_state() {
        // A byzantine primary tags a genuinely cross-home batch as
        // SingleHome(0). The verifier must detect the mismatch and apply
        // the batch exactly as an untagged verifier would.
        let run = |plan: ShardPlan| {
            let fx = Fixture::new();
            let mut v = fx.verifier_sharded(
                ConflictHandling::KnownRwSets,
                sbft_types::ShardingConfig::with_shards(8),
            );
            let router = *v.committer().router();
            let k1 = Key(1);
            let k2 = (2..)
                .map(Key)
                .find(|k| router.shard_of(*k) != router.shard_of(k1))
                .expect("8 shards split the keys");
            let results = vec![rmw_result(0, k1, 5), rmw_result(1, k2, 6)];
            let _ = v.on_verify(&fx.verify_msg_planned(1, 1, results.clone(), plan));
            let actions = v.on_verify(&fx.verify_msg_planned(2, 1, results, plan));
            let kinds = response_kinds(&actions);
            (
                v.committed_txns(),
                v.aborted_txns(),
                v.plan_mismatches(),
                v.planned_batches(),
                kinds,
                fx.store.get(k1).unwrap().value,
                fx.store.get(k2).unwrap().value,
            )
        };
        let lied = run(ShardPlan::SingleHome(sbft_sharding::ShardId(0)));
        let honest = run(ShardPlan::Unplanned);
        assert_eq!(lied.2, 1, "the lie must be detected");
        assert_eq!(lied.3, 0, "a lying tag never earns the fast path");
        assert_eq!(honest.2, 0);
        // Outcomes, responses and state are identical either way.
        assert_eq!(lied.0, honest.0);
        assert_eq!(lied.1, honest.1);
        assert_eq!(lied.4, honest.4);
        assert_eq!(lied.5, honest.5);
        assert_eq!(lied.6, honest.6);
    }

    #[test]
    fn fast_path_drives_the_apply_pool_with_the_verify_allocation() {
        let fx = Fixture::new();
        let mut v = fx.verifier_sharded(
            ConflictHandling::KnownRwSets,
            sbft_types::ShardingConfig::with_shards(8),
        );
        v.attach_apply_pool(4);
        let (home, keys) = keys_on_one_shard(&v, 4);
        let results: Vec<TxnResult> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| rmw_result(i as u32, *k, 50 + i as u64))
            .collect();
        let plan = ShardPlan::SingleHome(home);
        let _ = v.on_verify(&fx.verify_msg_planned(1, 1, results.clone(), plan));
        let actions = v.on_verify(&fx.verify_msg_planned(2, 1, results, plan));
        assert!(response_kinds(&actions).contains(&"RESPONSE"));
        assert_eq!(v.planned_batches(), 1);
        assert_eq!(v.pool_applied_txns(), 4, "the pool applied the batch");
        assert_eq!(v.committed_txns(), 4);
        assert_eq!(fx.store.get(keys[3]).unwrap().value, Value::new(53));
    }

    #[test]
    fn out_of_range_home_tag_is_ignored_not_honoured() {
        // SingleHome(99) on an 8-shard verifier: neither a panic nor a
        // fast path — the batch routes like an unplanned one.
        let fx = Fixture::new();
        let mut v = fx.verifier_sharded(
            ConflictHandling::NonConflicting,
            sbft_types::ShardingConfig::with_shards(8),
        );
        let plan = ShardPlan::SingleHome(sbft_sharding::ShardId(99));
        let results = vec![rmw_result(0, Key(1), 7)];
        let _ = v.on_verify(&fx.verify_msg_planned(1, 1, results.clone(), plan));
        let actions = v.on_verify(&fx.verify_msg_planned(2, 1, results, plan));
        assert!(response_kinds(&actions).contains(&"RESPONSE"));
        assert_eq!(v.planned_batches(), 0);
        assert_eq!(v.plan_mismatches(), 1, "an impossible home is a lie too");
        assert_eq!(v.committed_txns(), 1);
    }

    #[test]
    fn verify_message_clones_share_the_result_allocation() {
        // The verifier stores every VERIFY twice (vote map + matched
        // slot); with `results` behind `Arc` those clones are refcount
        // bumps of the executor's allocation, never per-transaction
        // read-write set copies.
        let fx = Fixture::new();
        let msg = fx.verify_msg(1, 1, 0, 42, 1);
        let clone = msg.clone();
        assert!(std::sync::Arc::ptr_eq(&msg.results, &clone.results));
    }
}
