//! One repetition: build a cell's runner, step it quantum by quantum
//! (round-tripping through checkpoint text where the cell asks), audit
//! teardown, summarize, and digest the simulated output.

use std::rc::Rc;
use std::time::{Duration, Instant};

use vulcan::prelude::*;
use vulcan::runtime::checkpoint::parse_checkpoint;
use vulcan::runtime::MigrationCounts;
use vulcan::sim::CoreId;

use crate::cell::Cell;
use crate::digest::digest;
use crate::trace::{timed, Span, TimedPolicy, Tracer};

/// One checkpoint → text → parse → restore round trip.
#[derive(Clone, Copy, Debug)]
pub struct RoundTrip {
    /// Quanta run before it.
    pub quantum: u64,
    /// Host time from `checkpoint` to the restored runner.
    pub time: Duration,
    /// Size of the checkpoint text.
    pub bytes: usize,
}

/// Modelled counts and outcomes of one run; exact for a given seed.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Demand accesses (Σ fast + slow hits over the quantum outcomes).
    pub accesses: u64,
    /// Demand accesses served by the fast tier.
    pub fast_hits: u64,
    /// TLB hits and misses summed over every core.
    pub tlb_hits: u64,
    /// See `tlb_hits`.
    pub tlb_misses: u64,
    /// NUMA hint faults taken by the profilers.
    pub hint_faults: u64,
    /// Synchronous migration stall charged to workloads.
    pub stall_cycles: u64,
    /// Pages moved, summed over the quanta.
    pub migrations: MigrationCounts,
    /// FTHR-weighted cumulative fairness index (equation 4).
    pub cfi: f64,
    /// Lowest per-workload mean fast-tier hit ratio.
    pub fthr_min: f64,
    /// Operations completed per simulated second, all workloads.
    pub ops_per_s: f64,
}

/// Everything one repetition measured.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Digest of every quantum outcome and the run result.
    pub digest: u64,
    /// Host time from the start of the build to the summarized result.
    pub wall: Duration,
    /// Host time of the runner build.
    pub build: Duration,
    /// Host time of each `run_quantum`.
    pub quanta: Vec<Duration>,
    /// Round trips that succeeded.
    pub roundtrips: Vec<RoundTrip>,
    /// Round trips that failed, one line each (the run continues from
    /// the unrestored runner).
    pub roundtrip_errors: Vec<String>,
    /// Frames left allocated after teardown, one line per tier.
    pub leaks: Vec<String>,
    /// Modelled outcome.
    pub sim: SimStats,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

fn policy_for(cell: &Cell, tracer: Option<&Rc<Tracer>>) -> Box<dyn TieringPolicy> {
    let inner = cell.workload.policy().make();
    match tracer {
        Some(t) => Box::new(TimedPolicy::new(inner, Rc::clone(t))),
        None => inner,
    }
}

/// Round-trip `runner` through checkpoint text and return the restored
/// runner and the text's size.
pub fn round_trip(
    runner: &SimRunner,
    cell: &Cell,
    tracer: Option<&Rc<Tracer>>,
) -> Result<(SimRunner, usize), String> {
    let t = tracer.map(|t| &**t);
    let (snapshot, _) = timed(t, "checkpoint", || runner.checkpoint());
    let snapshot = snapshot.map_err(|e| format!("checkpoint: {e}"))?;
    let (text, _) = timed(t, "to_json", || snapshot.to_json());
    drop(snapshot);
    let (parsed, _) = timed(t, "parse_checkpoint", || parse_checkpoint(&text));
    let parsed = parsed.map_err(|e| e.to_string())?;
    let kind = cell.workload.policy();
    let policy = policy_for(cell, tracer);
    let (restored, _) = timed(t, "restore", || {
        SimRunner::restore(&parsed, policy, move |_| kind.profiler())
    });
    Ok((restored.map_err(|e| e.to_string())?, text.len()))
}

/// Time only the runner build (extra set-up samples).
pub fn build_only(cell: &Cell) -> Duration {
    let start = Instant::now();
    let runner = cell.build(cell.workload.policy().make());
    let took = start.elapsed();
    drop(runner);
    took
}

/// Run `cell` once. With `traced`, spans wrap the build, every quantum,
/// the policy's `on_quantum`, each round-trip step and `into_result`.
pub fn run(cell: &Cell, traced: bool) -> Rep {
    let tracer = traced.then(Tracer::new);
    let t = tracer.as_deref();
    let start = Instant::now();
    let (mut runner, build) = timed(t, "build", || cell.build(policy_for(cell, tracer.as_ref())));
    let mut outcomes = Vec::with_capacity(cell.quanta as usize);
    let mut quanta = Vec::with_capacity(cell.quanta as usize);
    let mut roundtrips = Vec::new();
    let mut roundtrip_errors = Vec::new();
    let mut leaks = Vec::new();
    while runner.state.quantum_index < cell.quanta {
        let (outcome, took) = timed(t, "quantum", || runner.run_quantum());
        outcomes.push(outcome);
        quanta.push(took);
        let q = runner.state.quantum_index;
        for _ in cell.roundtrips_at.iter().filter(|&&at| at == q) {
            let rt_start = Instant::now();
            match round_trip(&runner, cell, tracer.as_ref()) {
                Ok((restored, bytes)) => {
                    let time = rt_start.elapsed();
                    runner = restored;
                    roundtrips.push(RoundTrip {
                        quantum: q,
                        time,
                        bytes,
                    });
                }
                Err(e) => roundtrip_errors.push(format!("round trip at quantum {q}: {e}")),
            }
        }
    }

    let st = &runner.state;
    let mut sim = SimStats {
        hint_faults: st.workloads.iter().map(|w| w.stats.hint_faults).sum(),
        ..SimStats::default()
    };
    for c in 0..st.tlbs.len() {
        let (hits, misses) = st.tlbs.core_ref(CoreId(c as u16)).stats();
        sim.tlb_hits += hits;
        sim.tlb_misses += misses;
    }

    // Teardown audit: every workload down, no frame left on any tier.
    let chain = runner.state.machine.chain();
    for w in 0..runner.state.workloads.len() {
        runner.state.teardown(w);
    }
    for &tier in chain {
        let leaked = runner.state.machine.allocator(tier).used_frames();
        if leaked != 0 {
            leaks.push(format!(
                "{leaked} frames leaked at teardown on {}",
                tier.name()
            ));
        }
    }
    let (result, _) = timed(t, "into_result", || runner.into_result());
    let wall = start.elapsed();

    for o in &outcomes {
        let m = &o.migrations;
        sim.migrations.promoted += m.promoted;
        sim.migrations.demoted += m.demoted;
        sim.migrations.async_committed += m.async_committed;
        sim.migrations.async_aborted += m.async_aborted;
        for w in &o.workloads {
            sim.accesses += w.fast_hits + w.slow_hits;
            sim.fast_hits += w.fast_hits;
        }
    }
    sim.stall_cycles = result.per_workload.iter().map(|w| w.stall_cycles.0).sum();
    sim.cfi = result.cfi;
    sim.fthr_min = result
        .per_workload
        .iter()
        .map(|w| w.mean_fthr)
        .fold(f64::INFINITY, f64::min);
    let sim_secs = outcomes.last().map_or(0.0, |o| o.ended_at.as_secs_f64());
    let ops: u64 = result.per_workload.iter().map(|w| w.ops_total).sum();
    sim.ops_per_s = if sim_secs > 0.0 {
        ops as f64 / sim_secs
    } else {
        0.0
    };

    Rep {
        digest: digest(&outcomes, &result),
        wall,
        build,
        quanta,
        roundtrips,
        roundtrip_errors,
        leaks,
        sim,
        spans: tracer.map(|t| t.spans()).unwrap_or_default(),
    }
}
