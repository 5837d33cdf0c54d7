//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats one workload's cell for `--seconds` of host time and prints a
//! table of metrics, a provenance line and, last, one JSON result line.
//! `--trace 0` reports the end-to-end metrics of untraced runs;
//! `--trace 1` alternates untraced and traced runs and reports the
//! per-layer metrics. Exits 1 when any run panics, its digest differs
//! from the expected one, teardown leaks a frame or a checkpoint round
//! trip fails; exits 2 on a usage error.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use vulcan_json::{Map, Value};
use vulcan_perfbench::cell::{Cell, Workload, DEFAULT_SEED};
use vulcan_perfbench::ledger::{attempt, audit, Kind};
use vulcan_perfbench::rep::{self, Rep};
use vulcan_perfbench::stats::{median, percentile, TAIL_PERCENTILE};
use vulcan_perfbench::trace::self_times;

const USAGE: &str = "usage: perfbench --workload <colo_vulcan|colo_memtis|ckpt_3tier> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up is cheap; sample it this many times after each round of runs,
/// so that its samples span the same host time as the runs.
const SETUP_PER_ROUND: usize = 34;

/// Untraced runs (with `--trace 1`, untraced and traced pairs) every
/// process makes, however short its budget.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be a non-negative integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's resident-memory high-water mark, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One run's wall time cut into consecutive steps, in seconds: the
/// build, each quantum, each round trip, then teardown and summary.
fn steps(rep: &Rep) -> Vec<f64> {
    let mut out = vec![rep.build.as_secs_f64()];
    out.extend(rep.quanta.iter().map(Duration::as_secs_f64));
    out.extend(rep.roundtrips.iter().map(|t| t.time.as_secs_f64()));
    let covered: f64 = out.iter().sum();
    out.push(rep.wall.as_secs_f64() - covered);
    out
}

/// Each step's median over the runs: `per_run[r][i]` is step `i` of run
/// `r`. A step does the same work in every run of one seed, so a burst of
/// host load that slows some runs' steps drops out of its median.
fn step_medians(per_run: &[Vec<f64>]) -> Vec<f64> {
    let len = per_run.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            let samples: Vec<f64> = per_run.iter().filter_map(|s| s.get(i).copied()).collect();
            median(&samples)
        })
        .collect()
}

/// Host time of one run: the sum of its steps' medians over `reps`.
fn stepwise_wall(reps: &[&Rep]) -> f64 {
    let per_run: Vec<Vec<f64>> = reps.iter().map(|r| steps(r)).collect();
    step_medians(&per_run).iter().sum()
}

/// Host time of one round trip, in ms: the mean over a run's round trips
/// (by their place in the run) of each one's median over `reps`. Runs
/// without round trips add nothing; 0 when none has any.
fn stepwise_roundtrip_ms(reps: &[&Rep]) -> f64 {
    let per_run: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| r.roundtrips.iter().map(|t| ms(t.time)).collect())
        .collect();
    let medians = step_medians(&per_run);
    ratio(medians.iter().sum(), medians.len() as f64)
}

fn end_to_end(reps: &[&Rep], setup: &[f64], roundtrip_ms: f64, rss_mib: f64) -> Vec<Metric> {
    let quanta: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.quanta.iter().map(|&d| ms(d)))
        .collect();
    let sim = &reps[0].sim;
    vec![
        m("wall_s", stepwise_wall(reps), "s"),
        m("setup_s", median(setup), "s"),
        m("quantum_ms_p50", median(&quanta), "ms"),
        m(
            "quantum_ms_tail",
            percentile(&quanta, TAIL_PERCENTILE),
            "ms",
        ),
        m("peak_rss_mib", rss_mib, "MiB"),
        m("ckpt_roundtrip_ms", roundtrip_ms, "ms"),
        m("sim_cfi", sim.cfi, "index"),
        m("sim_fthr_min", sim.fthr_min, "ratio"),
        m("sim_ops_per_s", sim.ops_per_s, "ops/s"),
    ]
}

/// Per-layer metrics of one traced run, from its spans and counts.
fn layers(rep: &Rep) -> Vec<Metric> {
    let spans = &rep.spans;
    let own = self_times(spans);
    let lens = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.len))
            .collect()
    };
    let total_ms = |name: &str| lens(name).iter().sum::<f64>();
    let runtime_self_s: f64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "quantum")
        .map(|(_, d)| d.as_secs_f64())
        .sum();
    let policy = lens("policy");
    let policy_s = policy.iter().sum::<f64>() / 1e3;
    let wall = rep.wall.as_secs_f64();
    let top_level: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.len.as_secs_f64())
        .sum();
    let s = &rep.sim;
    let mig = &s.migrations;
    let moved = mig.promoted + mig.demoted + mig.async_committed;
    let bytes: Vec<f64> = rep.roundtrips.iter().map(|r| r.bytes as f64).collect();
    let total_bytes: f64 = bytes.iter().sum();
    vec![
        m("runtime.self_s", runtime_self_s, "s"),
        m(
            "runtime.ns_per_access",
            ratio(runtime_self_s * 1e9, s.accesses as f64),
            "ns",
        ),
        m("runtime.quanta", lens("quantum").len() as f64, "count"),
        m("policy.self_s", policy_s, "s"),
        m("policy.ms_p50", median(&policy), "ms"),
        m("policy.ms_tail", percentile(&policy, TAIL_PERCENTILE), "ms"),
        m("policy.share", ratio(policy_s, wall), "share"),
        m(
            "policy.ns_per_moved_page",
            ratio(policy_s * 1e9, moved as f64),
            "ns",
        ),
        m("migrate.promoted", mig.promoted as f64, "pages"),
        m("migrate.demoted", mig.demoted as f64, "pages"),
        m(
            "migrate.async_committed",
            mig.async_committed as f64,
            "pages",
        ),
        m("migrate.async_aborted", mig.async_aborted as f64, "count"),
        m(
            "migrate.async_abort_share",
            ratio(
                mig.async_aborted as f64,
                (mig.async_committed + mig.async_aborted) as f64,
            ),
            "share",
        ),
        m("vm.accesses", s.accesses as f64, "count"),
        m(
            "vm.fast_hit_share",
            ratio(s.fast_hits as f64, s.accesses as f64),
            "share",
        ),
        m(
            "vm.tlb_miss_share",
            ratio(s.tlb_misses as f64, (s.tlb_hits + s.tlb_misses) as f64),
            "share",
        ),
        m("profile.hint_faults", s.hint_faults as f64, "count"),
        m("runtime.stall_cycles", s.stall_cycles as f64, "cycles"),
        m("checkpoint.snapshot_ms", median(&lens("checkpoint")), "ms"),
        m("json.write_ms", median(&lens("to_json")), "ms"),
        m("json.parse_ms", median(&lens("parse_checkpoint")), "ms"),
        m("checkpoint.restore_ms", median(&lens("restore")), "ms"),
        m("checkpoint.bytes", median(&bytes), "bytes"),
        m(
            "json.write_mb_per_s",
            ratio(total_bytes / 1e3, total_ms("to_json")),
            "MB/s",
        ),
        m(
            "json.parse_mb_per_s",
            ratio(total_bytes / 1e3, total_ms("parse_checkpoint")),
            "MB/s",
        ),
        m(
            "checkpoint.roundtrips",
            rep.roundtrips.len() as f64,
            "count",
        ),
        m("runtime.build_ms", ms(rep.build), "ms"),
        m("metrics.into_result_ms", total_ms("into_result"), "ms"),
        m(
            "bench.unattributed_share",
            ratio(wall - top_level, wall),
            "share",
        ),
    ]
}

fn metrics_value(metrics: &[Metric]) -> Value {
    let mut map = Map::new();
    for x in metrics {
        map.insert(
            x.name,
            Value::Object(
                Map::new()
                    .with("value", Value::Float(x.value))
                    .with("unit", Value::Str(x.unit.to_string())),
            ),
        );
    }
    Value::Object(map)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cell = args.workload.cell(args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();

    // Probe runs only feed `ckpt_roundtrip_ms`, an end-to-end metric. The
    // first runs the probe's cell straight, the digest the others must
    // reproduce through their round trips.
    let probe_cell = args.workload.probe(args.seed).filter(|_| !args.trace);
    let mut attempts = Vec::new();
    if let Some(p) = probe_cell {
        let straight = Cell {
            roundtrips_at: &[],
            ..p
        };
        attempts.push(attempt(Kind::Probe, || rep::run(&straight, false)));
    }
    // Closed loop: the next run starts when the previous one returns, if
    // it is expected to end within the budget. Traced runs alternate with
    // untraced ones so their difference is the tracing overhead under the
    // same host conditions; probe runs alternate with timed ones so their
    // round trips sample the same span of host time. The memory high-water
    // mark is read after the first timed run, so that it does not depend
    // on how many runs fit the budget.
    let mut setup = Vec::new();
    let mut rss_mib = None;
    for round in 1.. {
        let round_start = Instant::now();
        attempts.push(attempt(Kind::Untraced, || rep::run(&cell, false)));
        rss_mib.get_or_insert_with(peak_rss_mib);
        if args.trace {
            attempts.push(attempt(Kind::Traced, || rep::run(&cell, true)));
        }
        if let Some(p) = &probe_cell {
            attempts.push(attempt(Kind::Probe, || rep::run(p, false)));
        }
        setup.extend((0..SETUP_PER_ROUND).map(|_| rep::build_only(&cell).as_secs_f64()));
        if round >= MIN_RUNS && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    let expected = (args.seed == DEFAULT_SEED).then(|| args.workload.recorded_digest());
    let ledger = audit(&attempts, expected);
    let ok = |kind: Kind| -> Vec<&Rep> {
        attempts
            .iter()
            .filter(|a| a.kind == kind)
            .filter_map(|a| a.rep.as_ref().ok())
            .collect()
    };
    let (untraced, traced, probe) = (ok(Kind::Untraced), ok(Kind::Traced), ok(Kind::Probe));
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        for e in &ledger.errors {
            eprintln!("error: {e}");
        }
        return ExitCode::from(1);
    }

    setup.extend(untraced.iter().map(|r| r.build.as_secs_f64()));
    let with_trips: Vec<&Rep> = untraced.iter().chain(&probe).copied().collect();
    let roundtrip_samples: usize = with_trips.iter().map(|r| r.roundtrips.len()).sum();
    let quanta_samples: usize = untraced.iter().map(|r| r.quanta.len()).sum();
    let overhead = args
        .trace
        .then(|| stepwise_wall(&traced) / stepwise_wall(&untraced) - 1.0);

    let metrics: Vec<Metric> = if args.trace {
        let per_rep: Vec<_> = traced.iter().map(|r| layers(r)).collect();
        let mut out: Vec<Metric> = per_rep[0]
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let values: Vec<f64> = per_rep.iter().map(|l| l[i].value).collect();
                m(x.name, median(&values), x.unit)
            })
            .collect();
        out.push(m(
            "bench.tracing_overhead_share",
            overhead.unwrap_or(0.0),
            "share",
        ));
        out
    } else {
        end_to_end(
            &untraced,
            &setup,
            stepwise_roundtrip_ms(&with_trips),
            rss_mib.unwrap_or(0.0),
        )
    };

    println!(
        "perfbench {} seed {}: {} untraced, {} traced, {} probe runs",
        args.workload.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        probe.len()
    );
    for x in &metrics {
        println!("  {:<28} {:>16.6} {}", x.name, x.value, x.unit);
    }
    // Printed, not in the JSON: the accesses are exact for a seed, so this
    // is a fixed function of `wall_s`, and gating both would gate one
    // number twice.
    if !args.trace {
        println!(
            "  {:<28} {:>16.6} Maccess/s (simulated accesses per host second of wall_s)",
            "sim_maccess_per_s",
            untraced[0].sim.accesses as f64 / stepwise_wall(&untraced) / 1e6
        );
    }
    println!(
        "  {:<28} {:>16.6} share ({} failed of {} attempted)",
        "failed_share",
        ledger.failed_share(),
        ledger.failed,
        ledger.attempted
    );
    if let Some(r) = with_trips.iter().find(|r| !r.roundtrips.is_empty()) {
        for t in &r.roundtrips {
            println!(
                "  round trip at q{:<4} {:>10} bytes {:>10.1} ms",
                t.quantum,
                t.bytes,
                ms(t.time)
            );
        }
    }
    for e in &ledger.errors {
        eprintln!("error: {e}");
    }

    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = Map::new()
        .with("workload", Value::Str(args.workload.name().to_string()))
        .with("seed", Value::Int(args.seed as i64))
        .with("seconds", Value::Int(args.seconds as i64))
        .with("trace", Value::Bool(args.trace))
        .with("host_cpus", Value::Int(host_cpus as i64))
        .with("git_commit", Value::Str(git_commit()))
        .with("rustc", Value::Str(env!("PERFBENCH_RUSTC").to_string()))
        .with(
            "build_profile",
            Value::Str(env!("PERFBENCH_PROFILE").to_string()),
        )
        .with("untraced_runs", Value::Int(untraced.len() as i64))
        .with("traced_runs", Value::Int(traced.len() as i64))
        .with("tail_percentile", Value::Float(TAIL_PERCENTILE))
        .with("tail_samples", Value::Int(quanta_samples as i64))
        .with("setup_samples", Value::Int(setup.len() as i64))
        .with("roundtrip_samples", Value::Int(roundtrip_samples as i64))
        .with(
            "tracing_overhead_share",
            overhead.map_or(Value::Null, Value::Float),
        )
        .with("digest", Value::Str(format!("{:016x}", untraced[0].digest)))
        .with(
            "digest_check",
            Value::Str(
                if expected.is_some() {
                    "recorded"
                } else {
                    "run-to-run"
                }
                .to_string(),
            ),
        )
        .with("attempted", Value::Int(ledger.attempted as i64))
        .with("failed", Value::Int(ledger.failed as i64))
        .with("failed_share", Value::Float(ledger.failed_share()));
    let provenance = Map::new().with("provenance", Value::Object(provenance));
    println!("{}", Value::Object(provenance).to_json());

    let correct = ledger.failed == 0;
    let result = Map::new()
        .with("correct", Value::Bool(correct))
        .with("attempted", Value::Int(ledger.attempted as i64))
        .with("failed", Value::Int(ledger.failed as i64))
        .with("metrics", metrics_value(&metrics));
    println!("{}", Value::Object(result).to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
