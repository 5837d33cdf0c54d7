//! The benchmark's workloads: the paper's §5.3 co-location mix on the
//! machines and policies each workload stresses.

use vulcan::prelude::*;
use vulcan::sim::PAGES_PER_PAPER_GB;

/// The seed the recorded digests were taken at (the paper configs' seed).
pub const DEFAULT_SEED: u64 = 42;

/// Quanta (simulated seconds) per run: the configs' 200-second horizon.
pub const QUANTA: u64 = 200;

/// `ckpt_3tier` round-trips its state through text after these quanta.
/// Its documents (1.5, 1.7 and 1.8 MB at seed 42) fit one core's 2 MiB
/// L2 cache. Larger ones make the parse stream from the shared L3 cache,
/// whose speed varies with what other tenants of the host do, and even
/// these vary more with the host's load than the quanta do (see
/// README.md, section 5).
pub const CKPT_ROUNDTRIPS: &[u64] = &[5, 10, 15];

/// Quanta of one `colo_*` probe run: five before its round trips and five
/// after, so the restored runner must also replay the straight run.
pub const PROBE_QUANTA: u64 = 10;

/// A `colo_*` probe run round-trips four times in a row after quantum 5
/// (a 1.0 MB document at seed 42).
pub const PROBE_ROUNDTRIPS: &[u64] = &[5; 4];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `configs/colocation.json`: 2-tier 32/256 GB under Vulcan.
    ColoVulcan,
    /// The same inputs under MEMTIS with its PEBS sampler.
    ColoMemtis,
    /// `configs/colocation_3tier.json` (DRAM/CXL/NVM) under Vulcan, with
    /// checkpoint round trips through text during the run.
    Ckpt3Tier,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColoVulcan,
        Workload::ColoMemtis,
        Workload::Ckpt3Tier,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColoVulcan => "colo_vulcan",
            Workload::ColoMemtis => "colo_memtis",
            Workload::Ckpt3Tier => "ckpt_3tier",
        }
    }

    /// Look a workload up by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tiering policy (and, through it, the profiler) the cell runs.
    pub fn policy(self) -> PolicyKind {
        match self {
            Workload::ColoMemtis => PolicyKind::Memtis,
            Workload::ColoVulcan | Workload::Ckpt3Tier => PolicyKind::Vulcan,
        }
    }

    /// The simulated machine, with the capacities of the repository's
    /// configs (paper-GB scaled to 256 pages each).
    pub fn machine(self) -> MachineSpec {
        let (mut spec, fast, slow, nvm) = match self {
            Workload::ColoVulcan | Workload::ColoMemtis => {
                (MachineSpec::paper_testbed(), 32, 256, None)
            }
            Workload::Ckpt3Tier => (MachineSpec::paper_3tier(), 32, 64, Some(512)),
        };
        spec.tier_mut(TierKind::Fast).capacity_pages = fast * PAGES_PER_PAPER_GB;
        spec.tier_mut(TierKind::Slow).capacity_pages = slow * PAGES_PER_PAPER_GB;
        if let Some(nvm) = nvm {
            spec.tier_mut(TierKind::Nvm).capacity_pages = nvm * PAGES_PER_PAPER_GB;
        }
        spec.n_cores = 32;
        spec
    }

    /// The digest of the full-length run at [`DEFAULT_SEED`]: a stable
    /// hash of every quantum outcome and the run result (see
    /// [`crate::digest`]). A change that only speeds the simulator up
    /// leaves it unchanged; a change to the modelled behaviour must
    /// re-record it here and say so.
    pub fn recorded_digest(self) -> u64 {
        match self {
            Workload::ColoVulcan => 0x2cd6_07e8_3479_d225,
            Workload::ColoMemtis => 0xd87a_df6f_2904_cdca,
            Workload::Ckpt3Tier => 0x115a_9df6_5c6a_a84a,
        }
    }

    /// The full-length cell this workload runs at `seed`.
    pub fn cell(self, seed: u64) -> Cell {
        Cell {
            workload: self,
            seed,
            quanta: QUANTA,
            roundtrips_at: match self {
                Workload::Ckpt3Tier => CKPT_ROUNDTRIPS,
                Workload::ColoVulcan | Workload::ColoMemtis => &[],
            },
        }
    }

    /// The untimed probe run that measures checkpoint round trips on a
    /// workload whose timed cell takes none: the cell's first
    /// [`PROBE_QUANTA`] quanta with [`PROBE_ROUNDTRIPS`]. Its digest must
    /// match the same prefix run straight (`roundtrips_at` emptied).
    /// `None` where the timed cell round-trips already.
    pub fn probe(self, seed: u64) -> Option<Cell> {
        let cell = self.cell(seed);
        cell.roundtrips_at.is_empty().then_some(Cell {
            quanta: PROBE_QUANTA,
            roundtrips_at: PROBE_ROUNDTRIPS,
            ..cell
        })
    }
}

/// One run's parameters. The benchmark runs [`Workload::cell`] and
/// [`Workload::probe`]; tests shorten `quanta` or drop the round trips.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Which machine, mix and policy.
    pub workload: Workload,
    /// The simulation seed (access streams, sampling, policy RNG).
    pub seed: u64,
    /// Quanta to run.
    pub quanta: u64,
    /// Round-trip the runner through checkpoint text after each of these
    /// quanta; a quantum listed twice round-trips twice in a row.
    pub roundtrips_at: &'static [u64],
}

impl Cell {
    /// Build the runner: closed loop, one thread, `shards = 1`, cold
    /// TLBs and first-touch placement.
    pub fn build(&self, policy: Box<dyn TieringPolicy>) -> SimRunner {
        let kind = self.workload.policy();
        SimRunner::builder()
            .machine(self.workload.machine())
            .workloads(mix())
            .profiler_factory(move |_| kind.profiler())
            .policy(policy)
            .config(SimConfig {
                n_quanta: self.quanta,
                seed: self.seed,
                shards: 1,
                ..Default::default()
            })
            .build()
    }
}

/// The co-located mix of every workload: Memcached from the start,
/// PageRank at 50 s and Liblinear at 110 s.
fn mix() -> Vec<WorkloadSpec> {
    vec![
        memcached(),
        pagerank().starting_at(Nanos::secs(50)),
        liblinear().starting_at(Nanos::secs(110)),
    ]
}
