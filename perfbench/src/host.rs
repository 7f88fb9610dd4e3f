//! Provenance (host, host speed, source revision) and process CPU time.

use serverless_bft::crypto::Sha256;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process, all threads included.
pub fn cpu_time() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The command name may contain spaces; the fields after it do not.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of the full line, utime 14, stime 15.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(Duration::from_secs_f64((ticks(11)? + ticks(12)?) / USER_HZ))
}

/// Single-thread SHA-256 speed of the host right now, in MB/s: a
/// yardstick for comparing wall-clock figures taken at different times on
/// a shared machine, whose speed drifts with its other tenants.
pub fn sha256_mb_per_s() -> f64 {
    const MB: usize = 16;
    let data = vec![0x5a_u8; 1 << 20];
    // Untimed pass: page in the buffer and let the core clock up.
    black_box(Sha256::digest(black_box(&data)));
    let start = Instant::now();
    for _ in 0..MB {
        black_box(Sha256::digest(black_box(&data)));
    }
    MB as f64 / start.elapsed().as_secs_f64()
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name, when the kernel reports one.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Identifies the measured source: the git commit when the checkout is a
/// repository, and always an FNV-1a hash over the program's sources
/// (`Cargo.toml`, `Cargo.lock`, `src/`, `crates/`, `vendor/`), which
/// identifies the code in an exported tree too.
pub fn revision() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let name = file.strip_prefix(&root).unwrap_or(file);
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in name.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    let tree = format!("src-fnv64:{hash:016x}");
    match git_head(&root) {
        Some(commit) => format!("{commit} ({tree})"),
        None => tree,
    }
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for entry in entries.flatten() {
                collect(&entry.path(), out);
            }
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        out.push(path.to_path_buf());
    }
}

/// Reads the checked-out commit from `.git` without running git.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}
