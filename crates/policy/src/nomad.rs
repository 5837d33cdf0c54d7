//! NOMAD (Xiang et al., OSDI'24), §2.1.
//!
//! Model of Nomad's non-exclusive transactional tiering on the shared
//! substrate:
//! * **Transactional async promotion** — hot slow-tier pages are copied
//!   in the background while the application keeps accessing the source;
//!   dirtied pages retry and eventually abort (the [`AsyncMigrator`]
//!   engine), keeping migration entirely off the critical path.
//! * **Page shadowing** — promoted pages retain their slow-tier copy, so
//!   clean demotions are remap-only (the technique §3.5 borrows).
//! * Hotness comes from hinting faults plus sampling, ranked by absolute
//!   counts — like TPP/Memtis, Nomad is workload-agnostic, so it shares
//!   the cold-page-dilemma behaviour under co-location.
//!
//! [`AsyncMigrator`]: vulcan_migrate::AsyncMigrator

use std::cmp::Ordering;
use vulcan_migrate::{MechanismConfig, PrepStrategy};
use vulcan_profile::top_n_by;
use vulcan_runtime::{SystemState, TieringPolicy};
use vulcan_sim::TierKind;
use vulcan_vm::{ShootdownScope, Vpn};

/// Nomad configuration.
#[derive(Clone, Debug)]
pub struct NomadConfig {
    /// Max async promotions started per workload per quantum.
    pub promotion_budget: usize,
    /// Free-fraction low watermark triggering demotion.
    pub low_watermark: f64,
    /// Free-fraction restored by demotion.
    pub high_watermark: f64,
    /// Minimum heat for a page to be promotion-eligible.
    pub heat_threshold: f64,
}

impl Default for NomadConfig {
    fn default() -> Self {
        NomadConfig {
            promotion_budget: 2_048,
            low_watermark: 0.02,
            high_watermark: 0.08,
            heat_threshold: 1.0,
        }
    }
}

/// The Nomad baseline policy.
#[derive(Clone, Debug, Default)]
pub struct Nomad {
    cfg: NomadConfig,
}

impl Nomad {
    /// Nomad with defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nomad with a custom configuration.
    pub fn with_config(cfg: NomadConfig) -> Self {
        Nomad { cfg }
    }

    /// Nomad's mechanism: vanilla preparation and process-wide shootdowns
    /// (it does not replicate page tables), but shadowing enabled.
    fn mech() -> MechanismConfig {
        MechanismConfig {
            prep: PrepStrategy::BaselineGlobal,
            scope: ShootdownScope::ProcessWide,
            shadowing: true,
            ..MechanismConfig::linux_baseline()
        }
    }
}

impl TieringPolicy for Nomad {
    fn name(&self) -> &'static str {
        "nomad"
    }

    fn on_quantum(&mut self, state: &mut SystemState) {
        let mech = Self::mech();

        // Drive in-flight transactions first (commits free up the queue).
        for w in 0..state.n_workloads() {
            if state.workloads[w].started {
                state.poll_async(w, &mech);
            }
        }

        // Transactional promotion of hot slow pages, hottest first.
        for w in 0..state.n_workloads() {
            if !state.workloads[w].started || state.fast_free() == 0 {
                continue;
            }
            let candidates: Vec<Vpn> = {
                let ws = &state.workloads[w];
                let hot: Vec<(Vpn, f64)> = ws
                    .heat()
                    .iter()
                    .filter(|(vpn, s)| {
                        s.heat >= self.cfg.heat_threshold
                            && ws.process.space.pte(*vpn).tier() == Some(TierKind::Slow)
                            && !ws.async_migrator.is_inflight(*vpn)
                    })
                    .map(|(vpn, s)| (vpn, s.heat))
                    .collect();
                top_n_by(hot, self.cfg.promotion_budget, hotter)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect()
            };
            if !candidates.is_empty() {
                state.migrate_async(w, &candidates, TierKind::Fast);
            }
        }

        // Watermark demotion, coldest first; shadow remaps make clean
        // demotions nearly free.
        let capacity = state.fast_capacity() as f64;
        if (state.fast_free() as f64) < self.cfg.low_watermark * capacity {
            let target_free = (self.cfg.high_watermark * capacity) as u64;
            for w in 0..state.n_workloads() {
                if state.fast_free() >= target_free {
                    break;
                }
                if !state.workloads[w].started {
                    continue;
                }
                let need = (target_free - state.fast_free()) as usize;
                let victims: Vec<Vpn> = {
                    let ws = &state.workloads[w];
                    let cold: Vec<(Vpn, f64)> = ws
                        .process
                        .space
                        .resident_vpns(TierKind::Fast)
                        .map(|v| (v, ws.heat().get(v).heat))
                        .collect();
                    top_n_by(cold, need, colder)
                        .into_iter()
                        .map(|(v, _)| v)
                        .collect()
                };
                if !victims.is_empty() {
                    state.migrate_background(w, &victims, TierKind::Slow, &mech);
                }
            }
        }
    }
}

/// Promotion order: heat descending, ties by VPN.
fn hotter(a: &(Vpn, f64), b: &(Vpn, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .expect("heat is never NaN")
        .then(a.0 .0.cmp(&b.0 .0))
}

/// Demotion order: heat ascending, ties by VPN.
fn colder(a: &(Vpn, f64), b: &(Vpn, f64)) -> Ordering {
    a.1.partial_cmp(&b.1)
        .expect("heat is never NaN")
        .then(a.0 .0.cmp(&b.0 .0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulcan_profile::HybridProfiler;
    use vulcan_runtime::{SimConfig, SimRunner};
    use vulcan_sim::{MachineSpec, Nanos};
    use vulcan_workloads::{microbench, MicroConfig};

    fn run(read_ratio: f64, n_quanta: u64) -> vulcan_runtime::RunResult {
        SimRunner::builder()
            .machine(MachineSpec::small(128, 4096, 8))
            .workloads(vec![microbench(
                "mb",
                MicroConfig {
                    rss_pages: 512,
                    wss_pages: 64,
                    read_ratio,
                    ..Default::default()
                },
                2,
            )
            .preallocated(vulcan_sim::TierKind::Slow)])
            .profiler_factory(|_| Box::new(HybridProfiler::vulcan_default()))
            .policy(Box::new(Nomad::new()))
            .config(SimConfig {
                quantum_active: Nanos::micros(500),
                n_quanta,
                ..Default::default()
            })
            .build()
            .run()
    }

    #[test]
    fn async_promotion_never_stalls_the_app() {
        let res = run(0.8, 25);
        assert_eq!(res.workload("mb").stall_cycles.0, 0, "fully async");
        let fthr = res.series.get("mb.fthr").unwrap().last().unwrap();
        assert!(fthr > 0.6, "hot set migrated transactionally: {fthr}");
    }

    #[test]
    fn read_intensive_converges_better_than_write_intensive() {
        let read = run(1.0, 25);
        let write = run(0.0, 25);
        let f_read = read.series.get("mb.fthr").unwrap().last().unwrap();
        let f_write = write.series.get("mb.fthr").unwrap().last().unwrap();
        assert!(
            f_read > f_write + 0.05,
            "dirty retries hurt write-heavy migration: read={f_read} write={f_write}"
        );
    }

    #[test]
    fn name() {
        assert_eq!(Nomad::new().name(), "nomad");
    }
}
