//! A stable digest of a run's simulated output: 64-bit FNV-1a over every
//! field of every [`QuantumOutcome`] and of the [`RunResult`], floats by
//! their bit patterns. Host time never enters it.

use vulcan::prelude::*;
use vulcan::runtime::QuantumOutcome;

/// FNV-1a, 64-bit. Chosen over `std`'s hasher because its output is
/// fixed by definition, not by the standard library version.
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Fold one quantum's outcome in.
    fn outcome(&mut self, o: &QuantumOutcome) {
        let m = &o.migrations;
        for v in [
            o.quantum_index,
            o.ended_at.0,
            m.promoted,
            m.demoted,
            m.async_committed,
            m.async_aborted,
            o.fast_free,
            o.fast_capacity,
            o.workloads.len() as u64,
        ] {
            self.u64(v);
        }
        for w in &o.workloads {
            for v in [
                u64::from(w.live),
                w.ops,
                w.fast_hits,
                w.slow_hits,
                w.stall.0,
            ] {
                self.u64(v);
            }
            for v in [w.mean_latency_ns, w.ops_per_sec, w.fthr, w.hot_ratio] {
                self.f64(v);
            }
        }
    }

    /// Fold the run's summary in, series included.
    fn result(&mut self, r: &RunResult) {
        self.str(&r.policy);
        self.u64(r.per_workload.len() as u64);
        for w in &r.per_workload {
            self.str(&w.name);
            self.u64(match w.class {
                WorkloadClass::LatencyCritical => 0,
                WorkloadClass::BestEffort => 1,
            });
            for v in [
                w.mean_ops_per_sec,
                w.mean_latency_ns,
                w.mean_fthr,
                w.mean_hot_ratio,
                w.mean_read_gbps,
                w.mean_write_gbps,
            ] {
                self.f64(v);
            }
            for v in [w.ops_total, w.stall_cycles.0, w.replication_overhead_bytes] {
                self.u64(v);
            }
        }
        self.f64(r.cfi);
        self.u64(r.series.series.len() as u64);
        for s in &r.series.series {
            self.str(&s.name);
            self.u64(s.points.len() as u64);
            for &(t, v) in &s.points {
                self.f64(t);
                self.f64(v);
            }
        }
    }

    /// The digest so far.
    fn finish(self) -> u64 {
        self.0
    }
}

/// The digest of a whole run.
pub fn digest(outcomes: &[QuantumOutcome], result: &RunResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(outcomes.len() as u64);
    for o in outcomes {
        h.outcome(o);
    }
    h.result(result);
    h.finish()
}
