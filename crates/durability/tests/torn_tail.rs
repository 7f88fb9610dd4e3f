//! Torn-tail hardening for the file-backed WAL.
//!
//! A crash can tear the last write anywhere (partial frame on disk) and a
//! failing disk can flip bits anywhere in the log. Whatever the damage,
//! [`FileWal::open`] must never panic: it replays exactly the intact frame
//! prefix, physically truncates the file at the first bad frame, and the
//! log stays appendable afterwards. [`recover`] over the replayed records
//! must likewise never panic. The fuzz below sweeps hundreds of random
//! truncation points and single-bit flips over a log holding every record
//! variant.

use sbft_crypto::CommitCertificate;
use sbft_durability::{codec, recover, FileWal, WalRecord, WriteAheadLog};
use sbft_types::{
    Batch, ClientId, Digest, Key, NodeId, Operation, SeqNum, ShardPlan, Signature, Transaction,
    TxnId, Value, ViewNumber,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// SplitMix64: deterministic corruption points, so a failure replays.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn committed(seq: u64) -> WalRecord {
    WalRecord::Committed {
        seq: SeqNum(seq),
        view: ViewNumber(seq / 4),
        plan: ShardPlan::Unplanned,
        batch: Batch::single(
            Transaction::new(
                TxnId::new(ClientId(seq as u32), 0),
                vec![
                    Operation::Write(Key(seq % 5), Value::new(seq * 13 + 1)),
                    Operation::ReadModifyWrite(Key((seq * 3) % 5), seq),
                ],
            )
            .with_inferred_rwset(),
        ),
        certificate: Arc::new(CommitCertificate::new(
            ViewNumber(seq / 4),
            SeqNum(seq),
            Digest::from_bytes([seq as u8; 32]),
            vec![
                (NodeId(0), Signature([seq as u8; 64])),
                (NodeId(1), Signature([seq as u8 + 1; 64])),
                (NodeId(2), Signature([seq as u8 + 2; 64])),
            ],
        )),
    }
}

/// A log exercising every record variant, in a realistic rhythm.
fn originals() -> Vec<WalRecord> {
    let mut records = Vec::new();
    for seq in 1..=8u64 {
        records.push(WalRecord::Released {
            seq: SeqNum(seq),
            view: ViewNumber(seq / 4),
            digest: Digest::from_bytes([seq as u8; 32]),
        });
        records.push(WalRecord::Vote {
            seq: SeqNum(seq),
            view: ViewNumber(seq / 4),
            digest: Digest::from_bytes([seq as u8; 32]),
        });
        records.push(committed(seq));
        if seq % 4 == 0 {
            records.push(WalRecord::ViewInstalled {
                view: ViewNumber(seq / 4),
            });
            records.push(WalRecord::SnapshotMark {
                upto: SeqNum(seq),
                view: ViewNumber(seq / 4),
            });
        }
    }
    records
}

/// Byte offset at which each frame ends in the on-disk encoding.
fn frame_ends(records: &[WalRecord]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 0usize;
    for r in records {
        pos += 12 + codec::encode(r).len();
        ends.push(pos);
    }
    ends
}

/// A scratch path unique to this call: tests run in parallel threads of
/// one process, so the process id alone would let them share a file.
fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sbft-torn-{}-{}-{}.wal",
        std::process::id(),
        n,
        name
    ))
}

/// Writes `records` through a real `FileWal` and returns the raw bytes.
fn pristine_bytes(records: &[WalRecord]) -> Vec<u8> {
    let path = scratch("pristine");
    let _ = std::fs::remove_file(&path);
    {
        let mut wal = FileWal::open(&path).expect("open");
        for r in records {
            wal.append(r);
        }
        wal.sync();
    }
    let raw = std::fs::read(&path).expect("read");
    let _ = std::fs::remove_file(&path);
    raw
}

/// Opens `bytes` as a WAL and checks the full hardening contract: replay
/// is exactly `records[..intact]`, `recover` does not panic, the file was
/// physically truncated to the intact prefix, and the log accepts (and
/// keeps) a fresh append.
fn check_damaged(name: &str, bytes: &[u8], records: &[WalRecord], intact: usize) {
    let path = scratch(name);
    std::fs::write(&path, bytes).expect("write damaged log");
    {
        let wal = FileWal::open(&path).expect("opening a damaged log is not an error");
        let replayed = wal.replay();
        assert_eq!(
            replayed,
            records[..intact],
            "replay must be exactly the intact frame prefix"
        );
        // Recovery over whatever survived must not panic either.
        let state = recover(&replayed);
        assert!(state.entries.iter().all(|e| e.seq > state.stable_seq));
    }
    let on_disk = std::fs::metadata(&path).expect("stat").len() as usize;
    let expected = frame_ends(&records[..intact]).last().copied().unwrap_or(0);
    assert_eq!(
        on_disk, expected,
        "the bad tail must be physically truncated"
    );
    // The truncated log must remain a working log.
    let probe = WalRecord::ViewInstalled {
        view: ViewNumber(99),
    };
    {
        let mut wal = FileWal::open(&path).expect("reopen");
        wal.append(&probe);
        wal.sync();
    }
    let wal = FileWal::open(&path).expect("reopen after append");
    let mut expected_records = records[..intact].to_vec();
    expected_records.push(probe);
    assert_eq!(
        wal.replay(),
        expected_records,
        "appends after tail truncation must survive a reopen"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn random_truncations_keep_the_intact_prefix() {
    let records = originals();
    let raw = pristine_bytes(&records);
    let ends = frame_ends(&records);
    assert_eq!(*ends.last().expect("frames"), raw.len());
    let mut rng = SplitMix64(0x70e4_7a11);
    for trial in 0..150 {
        let cut = (rng.next() as usize) % (raw.len() + 1);
        let intact = ends.partition_point(|e| *e <= cut);
        check_damaged(&format!("cut{trial}"), &raw[..cut], &records, intact);
    }
}

#[test]
fn random_bit_flips_keep_the_prefix_before_the_flip() {
    let records = originals();
    let raw = pristine_bytes(&records);
    let ends = frame_ends(&records);
    let mut rng = SplitMix64(0xb17_f11b);
    for trial in 0..150 {
        let byte = (rng.next() as usize) % raw.len();
        let bit = (rng.next() % 8) as u8;
        let mut damaged = raw.clone();
        damaged[byte] ^= 1 << bit;
        // The flipped frame and everything after it is suspect; the
        // checksum must fence off exactly the frames before it.
        let intact = ends.partition_point(|e| *e <= byte);
        check_damaged(&format!("flip{trial}"), &damaged, &records, intact);
    }
}

#[test]
fn torn_tail_on_top_of_a_bit_flip_is_still_survivable() {
    let records = originals();
    let raw = pristine_bytes(&records);
    let ends = frame_ends(&records);
    let mut rng = SplitMix64(0xdead_10cc);
    for trial in 0..100 {
        let cut = (rng.next() as usize) % (raw.len() + 1);
        let mut damaged = raw[..cut].to_vec();
        let intact = if damaged.is_empty() {
            0
        } else {
            let byte = (rng.next() as usize) % damaged.len();
            damaged[byte] ^= 1 << (rng.next() % 8) as u8;
            ends.partition_point(|e| *e <= byte)
                .min(ends.partition_point(|e| *e <= cut))
        };
        check_damaged(&format!("both{trial}"), &damaged, &records, intact);
    }
}
