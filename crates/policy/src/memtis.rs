//! MEMTIS (Lee et al., SOSP'23), §2.1/§2.2.
//!
//! Model of Memtis's capacity-based classification on the shared
//! substrate: PEBS samples feed per-page access counts; pages are ranked
//! by **absolute** heat *globally across all co-located workloads*, and
//! the hottest pages up to fast-tier capacity form the hot set. Hot pages
//! below are promoted, cold pages above are demoted, both off the
//! critical path (Memtis's kmigrated threads).
//!
//! The global absolute ranking is precisely what Figure 1 indicts: a
//! high-intensity best-effort workload makes its whole working set look
//! "persistently hot" and evicts the latency-critical workload's
//! moderately-hot pages — the cold page dilemma.

use std::cmp::Ordering;
use vulcan_migrate::MechanismConfig;
use vulcan_profile::select_top_by;
use vulcan_runtime::{SystemState, TieringPolicy};
use vulcan_sim::TierKind;
use vulcan_vm::{AddressSpace, Vpn};

/// Memtis configuration.
#[derive(Clone, Debug)]
pub struct MemtisConfig {
    /// Fraction of fast capacity the hot set may fill (Memtis keeps a
    /// little headroom for new allocations).
    pub hot_set_fraction: f64,
    /// Max promotions per workload per quantum.
    pub promotion_budget: usize,
}

impl Default for MemtisConfig {
    fn default() -> Self {
        MemtisConfig {
            hot_set_fraction: 0.98,
            promotion_budget: 4_096,
        }
    }
}

/// The Memtis baseline policy.
#[derive(Clone, Debug, Default)]
pub struct Memtis {
    cfg: MemtisConfig,
}

impl Memtis {
    /// Memtis with defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memtis with a custom configuration.
    pub fn with_config(cfg: MemtisConfig) -> Self {
        Memtis { cfg }
    }
}

impl TieringPolicy for Memtis {
    fn name(&self) -> &'static str {
        "memtis"
    }

    fn on_quantum(&mut self, state: &mut SystemState) {
        let mech = MechanismConfig::linux_baseline();
        let budget = (state.fast_capacity() as f64 * self.cfg.hot_set_fraction) as usize;

        // Global absolute-heat ranking across every workload (the
        // workload-agnostic step that causes the dilemma).
        let mut heated: Vec<Ranked> = Vec::new();
        for (w, ws) in state.workloads.iter().enumerate() {
            if !ws.started {
                continue;
            }
            let space = &ws.process.space;
            heated.extend(
                ws.heat()
                    .iter()
                    .filter(|(vpn, s)| s.heat > 0.0 && space.pte(*vpn).present())
                    .map(|(vpn, s)| (w, vpn, s.heat)),
            );
        }
        let (hot, slow_hot) = rank_hot(heated, budget, |&(w, vpn, _)| {
            state.workloads[w].process.space.pte(vpn).tier() == Some(TierKind::Slow)
        });

        // Promotions: hot pages still in slow memory, hottest first.
        let mut promote: Vec<Vec<Vpn>> = vec![Vec::new(); state.n_workloads()];
        for &(w, vpn, _) in &slow_hot {
            if promote[w].len() < self.cfg.promotion_budget {
                promote[w].push(vpn);
            }
        }

        // Demote first to make room, then promote — both in background.
        // Cold victims are found lazily, workload by workload: a
        // migration of workload w never touches another workload's PTEs,
        // so each scan sees what a scan before any migration would.
        let wanted: usize = promote.iter().map(Vec::len).sum();
        let mut freed = state.fast_free() as usize;
        if freed < wanted {
            let mut hot_vpns: Vec<Vec<u64>> = vec![Vec::new(); state.n_workloads()];
            for &(w, vpn, _) in &hot {
                hot_vpns[w].push(vpn.0);
            }
            for (w, hot_w) in hot_vpns.iter_mut().enumerate() {
                if freed >= wanted {
                    break;
                }
                let ws = &state.workloads[w];
                if !ws.started {
                    continue;
                }
                hot_w.sort_unstable();
                let cold = cold_fast_pages(&ws.process.space, hot_w, wanted - freed);
                if !cold.is_empty() {
                    let out = state.migrate_background(w, &cold, TierKind::Slow, &mech);
                    freed += out.moved.len();
                }
            }
        }
        for (w, hot) in promote.iter().enumerate() {
            if !hot.is_empty() {
                state.migrate_background(w, hot, TierKind::Fast, &mech);
            }
        }
    }
}

/// A heated page in the global ranking: `(workload, vpn, heat)`.
type Ranked = (usize, Vpn, f64);

/// The global ranking order: heat descending, ties by `(workload, vpn)`.
/// Keys are unique, so this is a total order with no ties. Heated pages
/// have heat > 0, where `total_cmp` orders exactly as `partial_cmp`.
fn rank(a: &Ranked, b: &Ranked) -> Ordering {
    b.2.total_cmp(&a.2).then((a.0, a.1 .0).cmp(&(b.0, b.1 .0)))
}

/// Memtis's ranking step. Returns the hot set — the `budget` hottest
/// heated pages, in no particular order, since demotion needs only its
/// membership — and, hottest first, the hot pages `in_slow` marks for
/// promotion. Equal to sorting all of `heated` by [`rank`], keeping the
/// first `budget` and filtering them, without sorting more than the
/// promotion candidates.
fn rank_hot(
    mut heated: Vec<Ranked>,
    budget: usize,
    in_slow: impl Fn(&Ranked) -> bool,
) -> (Vec<Ranked>, Vec<Ranked>) {
    select_top_by(&mut heated, budget, rank);
    let mut slow: Vec<Ranked> = heated.iter().copied().filter(|r| in_slow(r)).collect();
    slow.sort_unstable_by(rank);
    (heated, slow)
}

/// Up to `limit` fast-resident pages of `space` outside `hot` (sorted
/// VPNs), in VPN order: one merge of the fast-resident pages against
/// `hot` that stops as soon as `limit` pages are found.
fn cold_fast_pages(space: &AddressSpace, hot: &[u64], limit: usize) -> Vec<Vpn> {
    let mut hot = hot.iter().copied().peekable();
    space
        .resident_vpns(TierKind::Fast)
        .filter(|vpn| {
            while hot.next_if(|&h| h < vpn.0).is_some() {}
            hot.peek() != Some(&vpn.0)
        })
        .take(limit)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulcan_profile::PebsProfiler;
    use vulcan_runtime::{SimConfig, SimRunner};
    use vulcan_sim::{MachineSpec, Nanos};
    use vulcan_workloads::{microbench, MicroConfig};

    #[test]
    fn promotes_hot_wss_into_fast() {
        let res = SimRunner::builder()
            .machine(MachineSpec::small(128, 4096, 8))
            .workloads(vec![microbench(
                "mb",
                MicroConfig {
                    rss_pages: 512,
                    wss_pages: 64,
                    skew: 0.99,
                    ..Default::default()
                },
                2,
            )])
            .profiler_factory(|_| Box::new(PebsProfiler::new(4)))
            .policy(Box::new(Memtis::new()))
            .config(SimConfig {
                quantum_active: Nanos::micros(500),
                n_quanta: 25,
                ..Default::default()
            })
            .build()
            .run();
        let fthr = res.series.get("mb.fthr").unwrap().last().unwrap();
        assert!(fthr > 0.85, "hot WSS should end up fast: fthr={fthr}");
        // Off the critical path: no sync stall charged to the app.
        assert_eq!(res.workload("mb").stall_cycles.0, 0);
    }

    #[test]
    fn intense_workload_monopolizes_fast_tier() {
        // Two identical-RSS workloads; "be" issues ~20x the accesses of
        // "lc" per unit time (tiny fixed op cost). Memtis's absolute
        // ranking should hand be nearly the whole fast tier.
        let lc = microbench(
            "lc",
            MicroConfig {
                rss_pages: 256,
                wss_pages: 128,
                fixed_op: Nanos(20_000),
                ..Default::default()
            },
            2,
        );
        let be = microbench(
            "be",
            MicroConfig {
                rss_pages: 256,
                wss_pages: 128,
                fixed_op: Nanos(0),
                ..Default::default()
            },
            2,
        );
        let res = SimRunner::builder()
            .machine(MachineSpec::small(128, 4096, 8))
            .workloads(vec![lc, be])
            .profiler_factory(|_| Box::new(PebsProfiler::new(4)))
            .policy(Box::new(Memtis::new()))
            .config(SimConfig {
                quantum_active: Nanos::micros(500),
                n_quanta: 25,
                ..Default::default()
            })
            .build()
            .run();
        let lc_fast = res.series.get("lc.fast_pages").unwrap().last().unwrap();
        let be_fast = res.series.get("be.fast_pages").unwrap().last().unwrap();
        assert!(
            be_fast > 3.0 * lc_fast.max(1.0),
            "cold page dilemma: be={be_fast} lc={lc_fast}"
        );
    }

    #[test]
    fn name() {
        assert_eq!(Memtis::new().name(), "memtis");
    }

    /// The reference ranking: sort every heated page with the original
    /// `partial_cmp` order, keep the prefix.
    fn full_sort_prefix(mut heated: Vec<Ranked>, budget: usize) -> Vec<Ranked> {
        heated.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap()
                .then((a.0, a.1 .0).cmp(&(b.0, b.1 .0)))
        });
        heated.truncate(budget);
        heated
    }

    /// `rank_hot` against the reference: the hot set is the reference
    /// prefix (as a set), and the promotion candidates are the prefix's
    /// slow pages in the prefix's order.
    fn check_rank_hot(heated: &[Ranked], budget: usize) {
        let in_slow = |r: &Ranked| !r.1 .0.is_multiple_of(3);
        let want = full_sort_prefix(heated.to_vec(), budget);
        let (mut hot, slow) = rank_hot(heated.to_vec(), budget, in_slow);
        let want_slow: Vec<Ranked> = want.iter().copied().filter(in_slow).collect();
        assert_eq!(slow, want_slow, "promotion order, budget {budget}");
        hot.sort_by(rank);
        assert_eq!(hot, want, "hot set, budget {budget}");
    }

    #[test]
    fn rank_hot_matches_full_sort_prefix() {
        // Heats drawn from a handful of values, so equal heats recur
        // within and across workloads and the (w, vpn) tie-break decides.
        let mut heated: Vec<Ranked> = (0..600u64)
            .map(|i| {
                let x = i.wrapping_mul(2_654_435_761) >> 5;
                (
                    ((x % 3) as usize, x % 997),
                    [0.5, 1.0, 2.0, 7.5][(x % 4) as usize],
                )
            })
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .map(|((w, vpn), h)| (w, Vpn(vpn), h))
            .collect();
        // Present them out of rank and key order, as a heat map would.
        heated.sort_by_key(|&(w, vpn, _)| (vpn.0.wrapping_mul(40_503) ^ w as u64) % 1_009);
        assert!(heated.len() > 100);
        for budget in [
            0,
            1,
            7,
            64,
            heated.len() - 1,
            heated.len(),
            heated.len() + 5,
        ] {
            check_rank_hot(&heated, budget);
        }
        // Equal heats across workloads: lower workload index first.
        let tied = vec![(1, Vpn(4), 4.0), (0, Vpn(8), 4.0), (0, Vpn(2), 4.0)];
        let (_, slow) = rank_hot(tied.clone(), 2, |_| true);
        assert_eq!(slow, vec![(0, Vpn(2), 4.0), (0, Vpn(8), 4.0)]);
        check_rank_hot(&tied, 2);
        assert_eq!(rank_hot(Vec::new(), 4, |_| true), (Vec::new(), Vec::new()));
    }

    #[test]
    fn cold_fast_pages_matches_full_scan_prefix() {
        use vulcan_sim::FrameId;
        use vulcan_vm::LocalTid;
        let mut space = AddressSpace::new(false);
        for v in 0..200u64 {
            let tier = if v % 3 == 0 {
                TierKind::Slow
            } else {
                TierKind::Fast
            };
            let frame = FrameId {
                tier,
                index: v as u32,
            };
            space.map(Vpn(v * 7), frame, LocalTid(0));
        }
        let hot: Vec<u64> = (0..200u64).filter(|v| v % 4 == 1).map(|v| v * 7).collect();
        // The reference: every cold fast page, then the first `limit`.
        let all: Vec<Vpn> = space
            .mapped_vpns()
            .filter(|&v| space.pte(v).tier() == Some(TierKind::Fast) && !hot.contains(&v.0))
            .collect();
        for limit in [0, 1, 10, all.len(), all.len() + 3] {
            let want = &all[..limit.min(all.len())];
            assert_eq!(cold_fast_pages(&space, &hot, limit), want, "limit {limit}");
        }
    }
}
