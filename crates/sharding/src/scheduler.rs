//! The shard worker pool.
//!
//! [`ShardScheduler`] drives a [`ShardedCommitter`] with a pool of OS
//! threads sized to the configured cores. Work arrives as batches of
//! read-write sets ([`ShardTask`]s): each transaction is queued on its
//! *home* shard (the lowest-numbered shard it touches) and the shard is
//! handed to the pool through the atomic `Idle → Pending` transition, so
//! a shard is in the work queue at most once and is drained by at most
//! one worker at a time. Cross-shard transactions are executed by their
//! home shard's worker through the committer's lock-ordered path.
//!
//! The scheduler is the real-parallelism counterpart of the simulator's
//! per-shard service stations: the `fig6_shards` benchmark uses it to
//! show raw thread scaling, and the thread runtime drives it as the
//! verifier's apply stage through [`ShardScheduler::submit_tracked`] /
//! [`ApplyTicket`] — committed batches apply across the worker pool and
//! the verifier collects the per-transaction OCC outcomes it needs to
//! answer clients.

use crate::committer::{CommitOutcome, ShardedCommitter};
use crate::router::ShardId;
use crate::state::{ShardTask, TaskWork};
use sbft_telemetry::{Counter, Registry};
use sbft_types::{ReadWriteSet, TxnResult};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Shared completion state behind an [`ApplyTicket`]: per-transaction
/// outcome slots plus a countdown the workers decrement as they apply.
#[derive(Debug)]
pub struct TicketState {
    outcomes: Mutex<Vec<Option<CommitOutcome>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

impl TicketState {
    fn new(total: usize) -> Self {
        TicketState {
            outcomes: Mutex::new(vec![None; total]),
            remaining: Mutex::new(total),
            done: Condvar::new(),
        }
    }

    /// Records the outcome of transaction `index` and wakes the waiter
    /// when the batch is fully applied.
    pub(crate) fn record(&self, index: usize, outcome: CommitOutcome) {
        self.outcomes.lock().expect("ticket outcomes")[index] = Some(outcome);
        self.count_down(1);
    }

    /// Records a whole shard task's outcomes with one acquisition of each
    /// lock, so pool workers do not serialize on the shared ticket once
    /// per transaction.
    pub(crate) fn record_all(&self, entries: Vec<(usize, CommitOutcome)>) {
        if entries.is_empty() {
            return;
        }
        let n = entries.len();
        {
            let mut outcomes = self.outcomes.lock().expect("ticket outcomes");
            for (index, outcome) in entries {
                outcomes[index] = Some(outcome);
            }
        }
        self.count_down(n);
    }

    fn count_down(&self, n: usize) {
        let mut remaining = self.remaining.lock().expect("ticket countdown");
        *remaining -= n;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// A handle on one tracked batch submitted to the pool via
/// [`ShardScheduler::submit_tracked`]. Waiting on it yields the
/// per-transaction [`CommitOutcome`]s in submission order — exactly what
/// the synchronous verifier apply loop produced, but computed by the
/// worker pool with real shard parallelism.
#[derive(Debug)]
pub struct ApplyTicket {
    state: Arc<TicketState>,
    txns: Arc<[TxnResult]>,
}

impl ApplyTicket {
    /// Blocks until every transaction of the batch has been applied and
    /// returns their outcomes, indexed like the submitted slice.
    #[must_use]
    pub fn wait(self) -> Vec<CommitOutcome> {
        let mut remaining = self.state.remaining.lock().expect("ticket countdown");
        while *remaining > 0 {
            remaining = self.state.done.wait(remaining).expect("ticket countdown");
        }
        drop(remaining);
        let mut outcomes = self.state.outcomes.lock().expect("ticket outcomes");
        outcomes
            .drain(..)
            .map(|o| o.expect("every slot recorded before the countdown hits zero"))
            .collect()
    }

    /// Whether this ticket still references the submitted batch
    /// allocation (pointer equality — the zero-copy hand-off proof:
    /// the `VERIFY` message's result slice is the very allocation the
    /// pool workers apply from).
    #[must_use]
    pub fn shares_txns(&self, txns: &Arc<[TxnResult]>) -> bool {
        Arc::ptr_eq(&self.txns, txns)
    }

    /// Number of transactions in the tracked batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the tracked batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }
}

struct SchedulerInner {
    committer: Arc<ShardedCommitter>,
    validate_reads: bool,
    work: Mutex<VecDeque<ShardId>>,
    work_available: Condvar,
    in_flight: Mutex<u64>,
    drained: Condvar,
    shutdown: AtomicBool,
    /// Batches that queued at least one transaction on a shard.
    batches_submitted: Counter,
    /// Transactions the workers finished applying.
    txns_applied: Counter,
}

impl SchedulerInner {
    fn push_work(&self, shard: ShardId) {
        self.work.lock().expect("work queue").push_back(shard);
        self.work_available.notify_one();
    }

    fn take_work(&self) -> Option<ShardId> {
        let mut queue = self.work.lock().expect("work queue");
        loop {
            if let Some(shard) = queue.pop_front() {
                return Some(shard);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            queue = self.work_available.wait(queue).expect("work queue");
        }
    }

    fn add_in_flight(&self, n: u64) {
        *self.in_flight.lock().expect("in-flight") += n;
    }

    fn complete(&self, n: u64) {
        self.txns_applied.add(n);
        let mut in_flight = self.in_flight.lock().expect("in-flight");
        *in_flight -= n;
        if *in_flight == 0 {
            self.drained.notify_all();
        }
    }

    fn worker_loop(&self) {
        while let Some(shard_id) = self.take_work() {
            let shard = &self.committer.shards()[shard_id.0 as usize];
            shard.begin_run();
            while let Some(task) = shard.pop_task() {
                match task.work {
                    TaskWork::Owned(txns) => {
                        let n = txns.len() as u64;
                        for rwset in &txns {
                            let _ = self.committer.commit(rwset, self.validate_reads);
                        }
                        self.complete(n);
                    }
                    TaskWork::Tracked {
                        txns,
                        indices,
                        ticket,
                    } => {
                        let n = indices.len() as u64;
                        let entries: Vec<(usize, CommitOutcome)> = indices
                            .iter()
                            .map(|&i| {
                                let i = i as usize;
                                (
                                    i,
                                    self.committer.commit(&txns[i].rwset, self.validate_reads),
                                )
                            })
                            .collect();
                        ticket.record_all(entries);
                        self.complete(n);
                    }
                }
            }
            if shard.finish_run() {
                // Work raced in behind the drain: back into the queue.
                self.push_work(shard_id);
            }
        }
    }
}

/// A worker pool draining shard queues in parallel.
pub struct ShardScheduler {
    inner: Arc<SchedulerInner>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardScheduler {
    /// Spawns `workers` threads (clamped to at least 1) over the given
    /// committer. `validate_reads` selects the OCC mode, exactly as in
    /// the unsharded verifier path.
    #[must_use]
    pub fn new(committer: Arc<ShardedCommitter>, workers: usize, validate_reads: bool) -> Self {
        let inner = Arc::new(SchedulerInner {
            committer,
            validate_reads,
            work: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            in_flight: Mutex::new(0),
            drained: Condvar::new(),
            shutdown: AtomicBool::new(false),
            batches_submitted: Counter::new(),
            txns_applied: Counter::new(),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();
        ShardScheduler { inner, workers }
    }

    /// The committer this pool drives.
    #[must_use]
    pub fn committer(&self) -> &Arc<ShardedCommitter> {
        &self.inner.committer
    }

    /// Shares the pool's counters into `registry` under `scheduler.*`.
    /// (The counters live inside the worker-shared state, so they are
    /// bound into the registry rather than re-homed.)
    pub fn register_metrics(&self, registry: &Registry) {
        registry.bind_counter("scheduler.batches_submitted", &self.inner.batches_submitted);
        registry.bind_counter("scheduler.txns_applied", &self.inner.txns_applied);
    }

    /// Batches that queued at least one transaction on a shard.
    #[must_use]
    pub fn batches_submitted(&self) -> u64 {
        self.inner.batches_submitted.get()
    }

    /// Transactions the workers have finished applying.
    #[must_use]
    pub fn txns_applied(&self) -> u64 {
        self.inner.txns_applied.get()
    }

    /// Submits one committed batch: every transaction is queued on its
    /// home shard and the touched shards are scheduled.
    pub fn submit(&self, seq: u64, txns: Vec<ReadWriteSet>) {
        let router = *self.inner.committer.router();
        let mut per_shard: Vec<Vec<ReadWriteSet>> = vec![Vec::new(); router.num_shards()];
        let mut submitted = 0u64;
        for rwset in txns {
            let Some(home) = router.shards_of(&rwset).into_iter().next() else {
                continue; // touches no data
            };
            per_shard[home.0 as usize].push(rwset);
            submitted += 1;
        }
        if submitted == 0 {
            return;
        }
        self.inner.batches_submitted.inc();
        self.inner.add_in_flight(submitted);
        for (idx, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let shard = &self.inner.committer.shards()[idx];
            if shard.enqueue(ShardTask {
                seq,
                work: TaskWork::Owned(batch),
            }) {
                self.inner.push_work(ShardId(idx as u32));
            }
        }
    }

    /// Submits one committed batch whose per-transaction outcomes the
    /// caller needs (the verifier's pooled apply stage): the result
    /// allocation — in production the `VERIFY` message's own
    /// `Arc<[TxnResult]>` — is shared with every shard task (zero-copy:
    /// workers read the read-write sets through `Arc` clones and only
    /// per-shard index lists are built), and the returned
    /// [`ApplyTicket`] yields the outcomes once the pool has applied
    /// everything.
    ///
    /// Per-shard FIFO queues drained by at most one worker at a time
    /// preserve commit order within a shard across successive
    /// submissions; cross-shard transactions run on their home shard's
    /// worker through the committer's lock-ordered path, exactly like the
    /// untracked [`Self::submit`] path.
    #[must_use]
    pub fn submit_tracked(&self, seq: u64, txns: Arc<[TxnResult]>) -> ApplyTicket {
        let router = *self.inner.committer.router();
        let homes: Vec<Option<ShardId>> = txns
            .iter()
            .map(|result| router.shards_of(&result.rwset).into_iter().next())
            .collect();
        self.submit_tracked_homed(seq, txns, &homes)
    }

    /// Like [`Self::submit_tracked`], but with the per-transaction home
    /// shards already decided (`None` = touches no data). Callers that
    /// routed the batch for their own bookkeeping — the verifier does,
    /// for `ShardCcheck` accounting — pass the homes in instead of paying
    /// for the key hashing again. (The worker still routes once inside
    /// `commit`, which needs the full involved-shard set for the
    /// cross-shard lock ordering.)
    ///
    /// # Panics
    /// Panics if `homes` is shorter than `txns`.
    #[must_use]
    pub fn submit_tracked_homed(
        &self,
        seq: u64,
        txns: Arc<[TxnResult]>,
        homes: &[Option<ShardId>],
    ) -> ApplyTicket {
        assert!(homes.len() >= txns.len(), "one home decision per txn");
        let num_shards = self.inner.committer.router().num_shards();
        let ticket = Arc::new(TicketState::new(txns.len()));
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
        let mut scheduled = 0u64;
        for (i, home) in homes.iter().take(txns.len()).enumerate() {
            match home {
                Some(home) => {
                    per_shard[home.0 as usize].push(i as u32);
                    scheduled += 1;
                }
                // Touches no data: applied trivially, mirroring the
                // committer's empty-route outcome.
                None => ticket.record(i, CommitOutcome::Applied),
            }
        }
        if scheduled > 0 {
            self.inner.batches_submitted.inc();
            self.inner.add_in_flight(scheduled);
            for (idx, indices) in per_shard.into_iter().enumerate() {
                if indices.is_empty() {
                    continue;
                }
                let shard = &self.inner.committer.shards()[idx];
                if shard.enqueue(ShardTask {
                    seq,
                    work: TaskWork::Tracked {
                        txns: Arc::clone(&txns),
                        indices,
                        ticket: Arc::clone(&ticket),
                    },
                }) {
                    self.inner.push_work(ShardId(idx as u32));
                }
            }
        }
        ApplyTicket {
            state: ticket,
            txns,
        }
    }

    /// Blocks until every submitted transaction has been executed.
    pub fn drain(&self) {
        let mut in_flight = self.inner.in_flight.lock().expect("in-flight");
        while *in_flight > 0 {
            in_flight = self.inner.drained.wait(in_flight).expect("in-flight");
        }
    }

    /// Drains outstanding work, stops the workers and joins them.
    pub fn shutdown(mut self) {
        self.drain();
        self.stop_workers();
    }

    /// Stops the workers and joins them. The flag is raised under the
    /// work-queue lock: a worker checks it and starts waiting while
    /// holding that lock, so raising it without the lock could land
    /// between the check and the wait and the wake-up would be lost.
    /// Runs from `Drop`, so a poisoned lock is taken over rather than
    /// panicked on: only the flag is written under it.
    fn stop_workers(&mut self) {
        {
            let _queue = self
                .inner
                .work
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.work_available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardScheduler {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_storage::VersionedStore;
    use sbft_types::{Key, ShardingConfig, Value, Version};

    fn pool(
        num_shards: usize,
        workers: usize,
        records: u64,
    ) -> (Arc<VersionedStore>, ShardScheduler) {
        let store = Arc::new(VersionedStore::new());
        store.load((0..records).map(|i| (Key(i), Value::new(0))));
        let committer = Arc::new(ShardedCommitter::new(
            Arc::clone(&store),
            &ShardingConfig {
                num_shards,
                workers,
                ..ShardingConfig::default()
            },
        ));
        (store, ShardScheduler::new(committer, workers, true))
    }

    fn write_txn(key: u64, value: u64) -> ReadWriteSet {
        let mut rw = ReadWriteSet::new();
        rw.record_write(Key(key), Value::new(value));
        rw
    }

    /// Wraps bare read-write sets as the `TxnResult`s a `VERIFY` message
    /// would carry (the tracked path's element type).
    fn tracked(rwsets: Vec<ReadWriteSet>) -> Arc<[TxnResult]> {
        rwsets
            .into_iter()
            .enumerate()
            .map(|(i, rwset)| TxnResult {
                txn: sbft_types::TxnId::new(sbft_types::ClientId(i as u32), 0),
                output: i as u64,
                rwset,
            })
            .collect()
    }

    #[test]
    fn pool_executes_every_submitted_transaction() {
        let (store, pool) = pool(8, 4, 1_000);
        for seq in 0..10u64 {
            pool.submit(seq, (0..100).map(|i| write_txn(seq * 100 + i, 7)).collect());
        }
        pool.drain();
        assert_eq!(pool.committer().committed(), 1_000);
        for k in 0..1_000 {
            assert_eq!(store.get(Key(k)).unwrap().value, Value::new(7));
        }
        pool.shutdown();
    }

    #[test]
    fn sharded_pool_matches_sequential_execution_on_conflict_free_batches() {
        // Disjoint key ranges per transaction → order cannot matter, so
        // the parallel pool must land on the same final store state as a
        // sequential single-shard run.
        let txns: Vec<ReadWriteSet> = (0..500)
            .map(|i| {
                let mut rw = ReadWriteSet::new();
                rw.record_read(Key(i), Version(1));
                rw.record_write(Key(i), Value::new(i * 3));
                rw
            })
            .collect();
        let run = |num_shards: usize, workers: usize| {
            let (store, pool) = pool(num_shards, workers, 500);
            pool.submit(1, txns.clone());
            pool.drain();
            let committed = pool.committer().committed();
            pool.shutdown();
            let state: Vec<u64> = (0..500)
                .map(|k| store.get(Key(k)).unwrap().value.data)
                .collect();
            (committed, state)
        };
        assert_eq!(run(1, 1), run(8, 4));
    }

    #[test]
    fn cross_shard_transactions_survive_the_pool() {
        let (store, pool) = pool(8, 4, 100);
        let router = *pool.committer().router();
        let far = (1..)
            .find(|k| router.shard_of(Key(*k)) != router.shard_of(Key(0)))
            .unwrap();
        let mut rw = ReadWriteSet::new();
        rw.record_write(Key(0), Value::new(1));
        rw.record_write(Key(far), Value::new(1));
        pool.submit(1, vec![rw]);
        pool.drain();
        assert_eq!(pool.committer().cross_shard_commits(), 1);
        assert_eq!(store.get(Key(far)).unwrap().value, Value::new(1));
        pool.shutdown();
    }

    #[test]
    fn empty_submit_and_immediate_shutdown_are_safe() {
        let (_, pool) = pool(4, 2, 10);
        pool.submit(1, Vec::new());
        pool.drain();
        pool.shutdown();
        let (_, pool) = pool_drop_path();
        drop(pool);
    }

    fn pool_drop_path() -> (Arc<VersionedStore>, ShardScheduler) {
        pool(2, 2, 10)
    }

    #[test]
    fn tracked_submit_returns_the_synchronous_outcomes() {
        // A batch with fresh reads, a stale read and a no-data transaction:
        // the tracked pool path must report exactly what the synchronous
        // committer reports for the same batch.
        let (store, pool) = pool(8, 4, 100);
        store.put(Key(5), Value::new(50)); // bump key 5 to version 2
        let mut fresh = ReadWriteSet::new();
        fresh.record_read(Key(1), Version(1));
        fresh.record_write(Key(1), Value::new(11));
        let mut stale = ReadWriteSet::new();
        stale.record_read(Key(5), Version(1));
        stale.record_write(Key(5), Value::new(55));
        let empty = ReadWriteSet::new();
        let txns = tracked(vec![fresh, stale, empty]);
        let outcomes = pool.submit_tracked(1, Arc::clone(&txns)).wait();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_applied());
        assert!(matches!(
            outcomes[1],
            crate::committer::CommitOutcome::StaleReads(_)
        ));
        assert!(
            outcomes[2].is_applied(),
            "no-data transactions apply trivially"
        );
        assert_eq!(store.get(Key(1)).unwrap().value, Value::new(11));
        assert_eq!(store.get(Key(5)).unwrap().value, Value::new(50));
        pool.shutdown();
    }

    #[test]
    fn tracked_submit_shares_the_submitted_allocation() {
        // Zero-copy hand-off, scheduler layer: the batch the verifier
        // submits is the very allocation the workers apply from — the
        // ticket still points at it and every shard task holds a refcount
        // bump, never a copy of the read-write sets.
        let (_, pool) = pool(8, 4, 1_000);
        let txns = tracked((0..100u64).map(|i| write_txn(i, i)).collect());
        let ticket = pool.submit_tracked(7, Arc::clone(&txns));
        assert!(
            ticket.shares_txns(&txns),
            "the ticket must reference the submitted allocation"
        );
        assert_eq!(ticket.len(), 100);
        assert!(!ticket.is_empty());
        let outcomes = ticket.wait();
        assert!(outcomes.iter().all(CommitOutcome::is_applied));
        // After the drain only the caller's handle remains.
        pool.drain();
        assert_eq!(Arc::strong_count(&txns), 1);
        pool.shutdown();
    }

    #[test]
    fn tracked_batches_preserve_per_shard_commit_order() {
        // 30 successive batches all write the same key without the caller
        // waiting in between: the shard's FIFO queue (drained by at most
        // one worker at a time) must apply them in submission order, so
        // the final value is the last batch's write.
        let (store, pool) = pool(4, 4, 10);
        let tickets: Vec<ApplyTicket> = (0..30u64)
            .map(|seq| pool.submit_tracked(seq, tracked(vec![write_txn(3, seq)])))
            .collect();
        for ticket in tickets {
            assert!(ticket.wait()[0].is_applied());
        }
        assert_eq!(store.get(Key(3)).unwrap().value, Value::new(29));
        // 1 load + 30 ordered writes.
        assert_eq!(store.version_of(Key(3)), Version(31));
        pool.shutdown();
    }

    #[test]
    fn contended_hot_key_still_commits_every_write() {
        // All transactions write the same key: they serialise on one
        // shard but none may be lost.
        let (store, pool) = pool(8, 4, 10);
        for seq in 0..20u64 {
            pool.submit(seq, (0..10).map(|_| write_txn(3, seq)).collect());
        }
        pool.drain();
        assert_eq!(pool.committer().committed(), 200);
        // 1 load + 200 writes.
        assert_eq!(store.version_of(Key(3)), Version(201));
        pool.shutdown();
    }
}
