//! The ServerlessBFT reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-failover|sim-durable> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on the simulator's clock;
//! `--trace 1` measures the per-layer metrics (registry counts, stage
//! times and CPU cost of the deployment on both the thread runtime and the
//! simulator, and the traced single-thread replay's busy time). The last
//! line of standard output is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! the lines before it print the same metrics as a table, the output
//! checks and the provenance. Each run also writes its full record to
//! `perfbench/out/`. See `perfbench/README.md` for every metric.

mod host;
mod replay;
mod report;
mod sim;
mod threads;
mod workloads;

use replay::Layer;
use report::{interpolated_us, mean, ratio, Counts, Outcome};
use serverless_bft::sim::CpuModel;
use serverless_bft::telemetry::{export, Histogram, SpanEvent, Stage};
use std::path::Path;
use std::time::{Duration, Instant};
use workloads::{Workload, SIM_WINDOW};

/// Simulated windows per end-to-end measurement: at least this many,
/// more while `--seconds` lasts, at most `MAX_WINDOWS`.
const MIN_WINDOWS: usize = 3;
const MAX_WINDOWS: usize = 500;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        std::process::exit(1);
    }
    // `LocalCluster` writes durable deployments' WAL files under the temp
    // dir; point it inside the checkout, at this run's own directory.
    std::env::set_var("TMPDIR", &work);

    let mut out = Outcome::default();
    let measured = measure(&args, &work, &out_dir, &mut out);
    let cleaned = std::fs::remove_dir_all(&work);
    if let Err(e) = measured {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    check_declared(&mut out, args.trace);
    out.check(
        "work dir (WAL files) removed",
        cleaned.is_ok() && !work.exists(),
        format!("{}", work.display()),
    );

    print_table(&out);
    let record = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record, out.record()) {
        eprintln!("perfbench: writing {}: {e}", record.display());
        std::process::exit(1);
    }
    println!("{}", out.result_line());
    if !out.correct() {
        std::process::exit(1);
    }
}

fn measure(args: &Args, work: &Path, out_dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let w = &args.workload;
    out.note("workload", w.name);
    out.note("seed", args.seed.to_string());
    out.note("seconds", args.seconds.to_string());
    out.note("trace", u8::from(args.trace).to_string());
    out.note("host.nproc", host::nproc().to_string());
    out.note("host.cpu_model", host::cpu_model());
    out.note("revision", host::revision());
    let speed_before = host::sha256_mb_per_s();
    out.note(
        "seed_use",
        if args.trace {
            "--seed * 1000 seeds the simulator windows' and the replay's workload and \
             every build's key material; the thread runtime's key stream ignores it \
             (LocalCluster fixes its YCSB seed at 1 and has no setter)"
        } else {
            "--seed * 1000 + k seeds window k's workload and key material"
        },
    );
    let measured = if args.trace {
        layers(w, args.seed, args.seconds as f64, work, out_dir, out)
    } else {
        e2e_sim(w, args.seed, args.seconds as f64, out)
    };
    out.note(
        "host.sha256_mb_per_s",
        format!(
            "{speed_before:.1} before, {:.1} after the run (one thread)",
            host::sha256_mb_per_s()
        ),
    );
    measured
}

fn window_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(k as u64)
}

fn e2e_sim(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Attaching the tracer must change nothing simulated.
    let plain = sim::window(w, window_seed(seed, 0), false)?;
    let mut setup = vec![plain.setup.as_secs_f64()];
    let (mut committed, mut aborted) = (0, 0);
    let (mut p50, mut p99, mut gaps, mut costs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut k = 0;
    while k < MIN_WINDOWS || (Instant::now() < deadline && k < MAX_WINDOWS) {
        let window = sim::window(w, window_seed(seed, k), true)?;
        if k == 0 {
            out.check(
                "tracer leaves RunMetrics identical",
                format!("{:?}", plain.metrics) == format!("{:?}", window.metrics),
                "Debug rendering of RunMetrics with and without the tracer".into(),
            );
        }
        sim::check(w, &format!("window {k}"), &window, out)?;
        setup.push(window.setup.as_secs_f64());
        committed += window.metrics.committed_txns;
        aborted += window.metrics.aborted_txns;
        let latency = window.metrics.latency.histogram();
        p50.push(interpolated_us(latency, 0.5) / 1e3);
        p99.push(interpolated_us(latency, 0.99) / 1e3);
        gaps.push(window.unavailable().as_secs_f64() * 1e3);
        costs.push(window.cost_cents_per_ktxn);
        k += 1;
    }
    out.note("sim_windows", format!("{k} traced + 1 untraced"));

    // Closed loop: every client has one request in flight when a window
    // ends; it was attempted and is neither committed nor failed.
    out.attempted = committed + aborted + k as u64 * w.clients as u64;
    out.failed = aborted;
    out.metric(
        "throughput_tps",
        committed as f64 / (SIM_WINDOW.as_secs_f64() * k as f64),
        "txn/s",
    );
    // Interference from other work on the host only ever slows a build:
    // the fastest of the run's builds estimates the undisturbed set-up.
    out.metric(
        "setup_s",
        setup.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    // Windows are independent replicates: their mean keeps every digit,
    // where a median would return one window's histogram bucket.
    out.metric("latency_p50_ms", mean(&p50), "ms");
    out.metric("latency_p99_ms", mean(&p99), "ms");
    out.metric("unavailable_ms", mean(&gaps), "ms");
    out.metric("cost_cents_per_ktxn", mean(&costs), "cents/ktxn");
    Ok(())
}

/// The per-layer run: the workload's deployment on both interpreters
/// (registry counts from the workload's own), then the traced replay.
fn layers(
    w: &Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    out_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // Untraced, traced, traced, untraced on each interpreter: drift over
    // the four runs cancels out of the tracing-overhead ratio. The thread
    // runtime cannot crash a node, so `sim-failover`'s deployment runs
    // fault-free there.
    let seed = window_seed(seed, 0);
    let per_run = seconds * 0.15;
    let rt = threads::run(w, seed, per_run, false, "runtime untraced 0", out)?;
    let rt_traced = threads::run(w, seed, per_run, true, "runtime traced 0", out)?;
    let rt_traced_again = threads::run(w, seed, per_run, true, "runtime traced 1", out)?;
    let rt_again = threads::run(w, seed, per_run, false, "runtime untraced 1", out)?;
    out.note(
        "finding.executor_invocations",
        format!(
            "ClusterReport::executor_invocations = {} while the shims' executors_spawned \
             counters read {}: the field is never assigned",
            rt.report.executor_invocations,
            rt.counts.sum("executors_spawned")?
        ),
    );
    let sim = sim::window(w, seed, false)?;
    let sim_traced = sim::window(w, seed, true)?;
    let sim_traced_again = sim::window(w, seed, true)?;
    let sim_again = sim::window(w, seed, false)?;
    sim::check(w, "sim untraced", &sim, out)?;
    sim::check(w, "sim traced", &sim_traced, out)?;
    out.check(
        "tracer leaves RunMetrics identical",
        format!("{:?}", sim.metrics) == format!("{:?}", sim_traced.metrics),
        "Debug rendering of RunMetrics with and without the tracer".into(),
    );

    let m = &sim.metrics;
    out.attempted = m.committed_txns + m.aborted_txns + w.clients as u64;
    out.failed = m.aborted_txns;
    let counts = &sim.counts;
    count_metrics(counts, out)?;

    // Extra wall time per committed transaction with the tracer on.
    let rt_overhead = (rt.throughput() + rt_again.throughput())
        / (rt_traced.throughput() + rt_traced_again.throughput())
        - 1.0;
    let rt_committed = rt.counts.get("verifier.committed_txns")? as f64;
    out.metric(
        "runtime.cpu_us_per_txn",
        ratio(
            "runtime CPU per txn",
            rt.cpu.as_secs_f64() * 1e6,
            rt_committed,
        )?,
        "us/txn",
    );
    stage_metrics("runtime", &rt_traced.events, out)?;
    out.metric("runtime.trace_overhead_share", rt_overhead, "share");

    let sim_overhead = (sim_traced.wall + sim_traced_again.wall).as_secs_f64()
        / (sim.wall + sim_again.wall).as_secs_f64()
        - 1.0;
    let sim_committed = sim.counts.get("verifier.committed_txns")? as f64;
    out.metric(
        "sim.wall_ms_per_ktxn",
        ratio(
            "sim wall per ktxn",
            sim.wall.as_secs_f64() * 1e6,
            sim_committed,
        )?,
        "ms/ktxn",
    );
    stage_metrics("sim", &sim_traced.events, out)?;
    out.metric("sim.trace_overhead_share", sim_overhead, "share");

    let spans = out_dir.join(format!("spans-{}.csv", w.name));
    let replay = replay::run(w, seed, w.replay_target, &work.join("replay-wal"), &spans)?;
    out.note("spans", spans.display().to_string());
    replay_metrics(w, &replay, &rt.counts, out)
}

/// Ratios of registry counters from an untraced run.
fn count_metrics(counts: &Counts, out: &mut Outcome) -> Result<(), String> {
    let committed = counts.get("verifier.committed_txns")? as f64;
    let batches = counts.batches_released()? as f64;
    let spawned = counts.sum("executors_spawned")? as f64;
    out.metric(
        "consensus.txns_per_batch",
        ratio("txns per batch", committed, batches)?,
        "txn/batch",
    );
    out.metric(
        "serverless.executors_per_batch",
        ratio("executors per batch", spawned, batches)?,
        "1/batch",
    );
    out.metric(
        "core.verifier.ignored_verify_share",
        ratio(
            "ignored verifies",
            counts.get("verifier.ignored_verifies")? as f64,
            spawned,
        )?,
        "share",
    );
    out.metric(
        "durability.wal_appends_per_txn",
        ratio(
            "WAL appends",
            counts.sum("durability.wal_appends")? as f64,
            committed,
        )?,
        "1/txn",
    );
    out.metric(
        "recovery.replay_batches",
        counts.sum("durability.replay_batches")? as f64,
        "count",
    );
    out.metric(
        "recovery.state_transfer_batches",
        counts.sum("durability.state_transfer_batches")? as f64,
        "count",
    );
    Ok(())
}

/// p50 and p99 of three lifecycle stages, from the earliest marker of
/// each stage per batch, as `<interpreter>.stage.<stage>_<p>_ms`.
fn stage_metrics(interpreter: &str, events: &[SpanEvent], out: &mut Outcome) -> Result<(), String> {
    let marks = export::marks(events);
    for (name, from, to) in [
        ("ordering", Stage::BatchRelease, Stage::CommitQuorum),
        ("execute", Stage::ExecuteSpawn, Stage::VerifyIngest),
        ("verify", Stage::VerifyIngest, Stage::Respond),
    ] {
        let histogram = Histogram::new();
        for stages in marks.values() {
            if let (Some(a), Some(b)) = (stages.get(&from), stages.get(&to)) {
                histogram.record(b.since(*a).as_micros());
            }
        }
        if histogram.count() == 0 {
            return Err(format!("no batch carried both {from:?} and {to:?} markers"));
        }
        for (p, q) in [("p50", 0.5), ("p99", 0.99)] {
            let ms = histogram.percentile_us(q) as f64 / 1e3;
            out.metric(&format!("{interpreter}.stage.{name}_{p}_ms"), ms, "ms");
        }
    }
    Ok(())
}

fn replay_metrics(
    w: &Workload,
    r: &replay::Replay,
    runtime: &Counts,
    out: &mut Outcome,
) -> Result<(), String> {
    let done = r.committed + r.aborted;
    out.check(
        "traced replay reaches its target",
        done >= w.replay_target && r.committed > 0,
        format!(
            "{} committed + {} aborted of {}",
            r.committed, r.aborted, w.replay_target
        ),
    );
    let per_txn = |d: Duration| d.as_secs_f64() * 1e6 / r.committed as f64;
    for layer in Layer::ALL {
        out.metric(layer.metric(), per_txn(r.busy(layer)), "us/txn");
    }
    let n = r.committed as f64;
    out.metric(
        "durability.wal.syncs_per_txn",
        r.wal_syncs as f64 / n,
        "1/txn",
    );
    out.metric(
        "durability.wal.bytes_per_txn",
        r.wal_bytes as f64 / n,
        "B/txn",
    );
    out.metric("consensus.messages_per_txn", r.messages as f64 / n, "1/txn");
    out.metric("consensus.bytes_per_txn", r.bytes as f64 / n, "B/txn");
    out.metric(
        "consensus.leader_egress_bytes_per_txn",
        r.leader_bytes as f64 / n,
        "B/txn",
    );
    out.metric("traced.wall_us_per_txn", per_txn(r.wall), "us/txn");
    out.metric(
        "traced.unattributed_us_per_txn",
        per_txn(r.unattributed()),
        "us/txn",
    );
    let unattributed = r.unattributed().as_secs_f64() / r.wall.as_secs_f64();
    out.check(
        "unattributed replay time under a fifth of its wall time",
        unattributed < 0.2,
        format!("{:.1}% unattributed", unattributed * 100.0),
    );

    out.metric(
        "traced.txns_per_batch",
        ratio(
            "replay txns per batch",
            r.counts.get("verifier.committed_txns")? as f64,
            r.counts.batches_released()? as f64,
        )?,
        "txn/batch",
    );
    // The replay and the untraced thread-runtime run it mirrors must
    // batch alike, or the per-layer rows describe different work. Which
    // conflicting transactions abort depends on the interleaving, so the
    // comparison counts every validated transaction.
    let validated = |c: &Counts| -> Result<f64, String> {
        Ok((c.get("verifier.committed_txns")? + c.get("verifier.aborted_txns")?) as f64)
    };
    let replay_tpb = ratio(
        "replay batching",
        validated(&r.counts)?,
        r.counts.batches_released()? as f64,
    )?;
    let run_tpb = ratio(
        "runtime batching",
        validated(runtime)?,
        runtime.batches_released()? as f64,
    )?;
    // Batches still in flight when a thread-runtime run stops were
    // released but never validated, which can lower its ratio by up to
    // `clients / validated`.
    let in_flight = w.clients as f64 / validated(runtime)?;
    out.check(
        "replay batches like the thread runtime",
        replay_tpb >= run_tpb * 0.98 && replay_tpb <= run_tpb * (1.02 + in_flight),
        format!("validated txns per batch: replay {replay_tpb:.4}, thread runtime {run_tpb:.4}"),
    );
    // From the replay, which attaches the apply pool as `LocalCluster`
    // does. The pool validates aborted transactions too.
    out.metric(
        "sharding.pool_applied_share",
        ratio(
            "pool applied",
            r.counts.get("verifier.pool_applied_txns")? as f64,
            validated(&r.counts)?,
        )?,
        "share",
    );

    calibration(r, out);
    Ok(())
}

/// Measured µs per call next to the simulator's default `CpuModel`
/// constants. Read-only: nothing here changes the model.
fn calibration(r: &replay::Replay, out: &mut Outcome) {
    let model = CpuModel::default();
    let per_call = |layer: Layer| {
        let calls = r.calls(layer);
        if calls == 0 {
            "no calls".to_string()
        } else {
            format!(
                "{:.2} us/call over {calls} calls",
                r.busy(layer).as_secs_f64() * 1e6 / calls as f64
            )
        }
    };
    let rows = [
        (
            "wal_sync",
            per_call(Layer::WalSync),
            format!("fsync_cost = {} us", model.fsync_cost.as_micros()),
        ),
        (
            "handle_execute",
            per_call(Layer::Execute),
            format!(
                "signature_cost = {} us, storage_access_cost = {} us",
                model.signature_cost.as_micros(),
                model.storage_access_cost.as_micros()
            ),
        ),
        (
            "on_consensus_message",
            per_call(Layer::Ordering),
            format!(
                "mac_cost = {} us, signature_cost = {} us",
                model.mac_cost.as_micros(),
                model.signature_cost.as_micros()
            ),
        ),
    ];
    for (what, measured, constants) in rows {
        println!("calibration {what:<22} measured {measured:<34} CpuModel::default {constants}");
        out.note(
            &format!("calibration.{what}"),
            format!("measured {measured}; CpuModel::default {constants}"),
        );
    }
}

/// Every metric the run reports must be declared with its unit in
/// `BENCHMARK.json`, once, and the run must report its whole section
/// (`end_to_end` untraced, `per_layer` traced).
fn check_declared(out: &mut Outcome, trace: bool) {
    let path = host::repo_root().join("BENCHMARK.json");
    let declared = std::fs::read_to_string(&path).unwrap_or_default();
    let undeclared: Vec<&str> = out
        .metrics
        .iter()
        .filter(|(name, _, unit)| {
            !declared.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        })
        .map(|(name, ..)| name.as_str())
        .collect();
    let names: std::collections::BTreeSet<&str> =
        out.metrics.iter().map(|(name, ..)| name.as_str()).collect();
    let bounded = declared.matches("\"bound\"").count();
    let expected = if trace {
        declared
            .matches("\"better\"")
            .count()
            .saturating_sub(bounded)
    } else {
        bounded
    };
    out.check(
        "metrics match BENCHMARK.json",
        undeclared.is_empty() && names.len() == out.metrics.len() && names.len() == expected,
        format!(
            "{} reported, {expected} declared, undeclared: {undeclared:?}",
            out.metrics.len()
        ),
    );
}

fn print_table(out: &Outcome) {
    for (k, v) in &out.notes {
        println!("note  {k:<34} {v}");
    }
    let passed = out.checks.iter().filter(|(_, ok, _)| *ok).count();
    println!(
        "checks passed: {passed} of {} (all listed in the record)",
        out.checks.len()
    );
    for (name, _, detail) in out.checks.iter().filter(|(_, ok, _)| !*ok) {
        println!("check FAILED: {name} ({detail})");
    }
    for (name, value, unit) in &out.metrics {
        println!("metric {name:<42} {value:>14.4} {unit}");
    }
}
