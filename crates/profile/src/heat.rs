//! Per-page heat tracking with exponential decay.
//!
//! Profilers feed observed accesses into a [`HeatMap`]; migration
//! policies read hot sets and write-intensity out of it. Decay gives the
//! recency weighting that systems like Memtis apply to their access
//! histograms (§2.1: strategies based on "frequency, recency, or a
//! combination of both").
//!
//! # Representation
//!
//! `record` sits on the per-access simulation hot path (every PEBS
//! sample and every hint fault lands here), so the map is *not* a
//! `HashMap`: it is a dense, epoch-versioned flat table indexed
//! directly by VPN. Workload VPNs are footprint-relative offsets
//! starting at zero, so the dense part covers essentially every page;
//! a small open-addressed spill table absorbs sparse outliers above
//! [`DENSE_LIMIT`]. Both parts hold the same `Slot` and share one
//! record/decay/forget arithmetic. Liveness is an epoch stamp per slot:
//! `decay_epoch` bumps the map epoch and re-stamps survivors, so a
//! pruned page's slot is retired just by keeping its old stamp, and a
//! later `record` resurrects it from zero exactly like a fresh `HashMap`
//! entry. A `live` key list (first-record order) makes decay sweeps and
//! iteration proportional to the number of tracked pages, not table
//! capacity, and gives the map a deterministic iteration order.
//!
//! A map has a single owner — the profiler of one workload, driven by
//! one thread at a time — so every slot is plain data behind `&mut`.

use std::fmt;
use vulcan_vm::Vpn;

/// VPNs below this go in the dense direct-indexed table (2 Mi pages =
/// 8 GiB of 4 KiB-page footprint); anything above spills to the
/// open-addressed side table.
const DENSE_LIMIT: u64 = 1 << 21;

/// Pages whose decayed heat drops below this are pruned, matching the
/// prior `HashMap::retain` semantics.
const PRUNE_THRESHOLD: f64 = 1e-3;

/// Accumulated statistics for one page.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PageStats {
    /// Decayed access heat.
    pub heat: f64,
    /// Sampled reads since tracking began (decayed alongside heat).
    pub reads: f64,
    /// Sampled writes since tracking began (decayed alongside heat).
    pub writes: f64,
}

impl PageStats {
    /// Fraction of sampled accesses that were writes, in `[0, 1]`.
    pub fn write_ratio(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0.0 {
            0.0
        } else {
            self.writes / total
        }
    }

    /// Whether the page counts as write-intensive under `threshold`
    /// (Table 1 classifies pages read- vs write-intensive).
    pub fn write_intensive(&self, threshold: f64) -> bool {
        self.write_ratio() >= threshold
    }
}

/// One table entry (dense or spill): page statistics plus the liveness
/// epoch stamp. The slot is live iff `stamp` equals the map's current
/// epoch; 0 is never a current epoch.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    stats: PageStats,
    stamp: u64,
}

impl Slot {
    /// Add `weight` sampled accesses at `epoch`. A dead or never-seen
    /// slot first resurrects from zero, exactly like a fresh map entry;
    /// returns whether it did.
    #[inline]
    fn record(&mut self, epoch: u64, is_write: bool, weight: f64) -> bool {
        let fresh = self.stamp != epoch;
        if fresh {
            self.stats = PageStats::default();
            self.stamp = epoch;
        }
        self.stats.heat += weight;
        if is_write {
            self.stats.writes += weight;
        } else {
            self.stats.reads += weight;
        }
        fresh
    }

    /// Decay by `d`; a survivor is re-stamped live at `epoch`, a pruned
    /// slot keeps its old (now dead) stamp. Returns whether it survived.
    #[inline]
    fn decay(&mut self, d: f64, epoch: u64) -> bool {
        self.stats.heat *= d;
        self.stats.reads *= d;
        self.stats.writes *= d;
        let keep = self.stats.heat >= PRUNE_THRESHOLD;
        if keep {
            self.stamp = epoch;
        }
        keep
    }
}

/// Open-addressed (linear probe) spill table for VPNs above the dense
/// range. Entries are never physically removed — death and `forget` are
/// epoch-stamp transitions — so probing needs no tombstones; the table
/// grows at 70% occupancy of *distinct keys ever inserted*.
#[derive(Clone, Debug)]
struct Spill {
    keys: Vec<u64>,
    slots: Vec<Slot>,
    used: usize,
}

impl Spill {
    const EMPTY: u64 = u64::MAX;

    fn new() -> Spill {
        Spill {
            keys: Vec::new(),
            slots: Vec::new(),
            used: 0,
        }
    }

    /// SplitMix64 finalizer: cheap, deterministic, well-mixed.
    fn hash(key: u64) -> usize {
        let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x as usize
    }

    fn find(&self, key: u64) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::hash(key) & mask;
        loop {
            match self.keys[i] {
                k if k == key => return Some(i),
                Self::EMPTY => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The slot for `key`, inserting an empty one if absent.
    fn slot_mut(&mut self, key: u64) -> &mut Slot {
        debug_assert_ne!(key, Self::EMPTY, "sentinel VPN is unrepresentable");
        if self.keys.is_empty() || (self.used + 1) * 10 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::hash(key) & mask;
        loop {
            match self.keys[i] {
                k if k == key => return &mut self.slots[i],
                Self::EMPTY => {
                    self.keys[i] = key;
                    self.used += 1;
                    return &mut self.slots[i];
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let cap = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![Self::EMPTY; cap]);
        let old_slots = std::mem::replace(&mut self.slots, vec![Slot::default(); cap]);
        let mask = cap - 1;
        for (key, slot) in old_keys.into_iter().zip(old_slots) {
            if key == Self::EMPTY {
                continue;
            }
            let mut i = Self::hash(key) & mask;
            while self.keys[i] != Self::EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.slots[i] = slot;
        }
    }

    /// Rebuild the table around the slots live at `epoch`, reclaiming
    /// the capacity held by dead keys. `used` counts distinct keys ever
    /// inserted (death is an epoch-stamp transition, not a removal), so
    /// without this a workload churning through sparse VPNs grows the
    /// table with its *history* rather than its live set. Live slots
    /// move verbatim — stats stay byte-identical — and iteration order
    /// lives in `HeatMap::live`, so nothing observable changes.
    fn compact(&mut self, epoch: u64) {
        let live: Vec<(u64, Slot)> = self
            .keys
            .iter()
            .zip(&self.slots)
            .filter(|&(&key, slot)| key != Self::EMPTY && slot.stamp == epoch)
            .map(|(&key, &slot)| (key, slot))
            .collect();
        // Smallest power-of-two capacity keeping the live set under the
        // same 70% bound `slot_mut` grows at.
        let mut cap = 64;
        while (live.len() + 1) * 10 > cap * 7 {
            cap *= 2;
        }
        self.keys = vec![Self::EMPTY; cap];
        self.slots = vec![Slot::default(); cap];
        self.used = live.len();
        let mask = cap - 1;
        for (key, slot) in live {
            let mut i = Self::hash(key) & mask;
            while self.keys[i] != Self::EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.slots[i] = slot;
        }
    }
}

/// Keep only the first `n` items of `v` under `cmp`, in no particular
/// order, in O(len). `cmp` must be a total order with no ties between
/// distinct items (every caller ends it with a unique key such as the
/// VPN), so the kept set is exactly the first `n` of a full sort.
pub fn select_top_by<T>(v: &mut Vec<T>, n: usize, cmp: impl Fn(&T, &T) -> std::cmp::Ordering) {
    if n == 0 {
        v.clear();
    } else if n < v.len() {
        v.select_nth_unstable_by(n - 1, cmp);
        v.truncate(n);
    }
}

/// The first `n` items of `v` under `cmp`, in `cmp` order: select the
/// prefix, then sort only that prefix. Equals sorting all of `v` and
/// truncating to `n` (same precondition on `cmp` as [`select_top_by`]),
/// in O(len + n log n) instead of O(len log len).
pub fn top_n_by<T>(mut v: Vec<T>, n: usize, cmp: impl Fn(&T, &T) -> std::cmp::Ordering) -> Vec<T> {
    select_top_by(&mut v, n, &cmp);
    v.sort_unstable_by(cmp);
    v
}

/// Decayed per-page heat map over an epoch-versioned flat table (see
/// the module docs for the representation).
///
/// ```
/// use vulcan_profile::HeatMap;
/// use vulcan_vm::Vpn;
///
/// let mut heat = HeatMap::new(0.7);
/// heat.record(Vpn(1), false, 10.0);
/// heat.record(Vpn(2), true, 2.0);
/// assert_eq!(heat.hot_set(1), vec![Vpn(1)]);
/// heat.decay_epoch();
/// assert_eq!(heat.get(Vpn(1)).heat, 7.0); // decayed by 0.7
/// ```
#[derive(Clone)]
pub struct HeatMap {
    /// Multiplier applied at each epoch (0 = pure frequency of last epoch,
    /// 1 = pure cumulative frequency).
    decay: f64,
    /// Current liveness epoch; bumped by [`HeatMap::decay_epoch`].
    epoch: u64,
    /// Dense slots indexed by VPN (grown on demand).
    dense: Vec<Slot>,
    /// Spill table for VPNs at or above [`DENSE_LIMIT`].
    spill: Spill,
    /// Keys of currently-live pages in first-record order.
    live: Vec<u64>,
    /// Lockstep reference model (oracle builds only): the exact
    /// `HashMap` semantics this flat table replaced. Every mutation is
    /// mirrored into it and the affected state diffed immediately.
    #[cfg(feature = "oracle")]
    shadow: vulcan_oracle::RefHeat,
}

impl HeatMap {
    /// A heat map with per-epoch decay factor `decay` in `[0, 1]`.
    pub fn new(decay: f64) -> HeatMap {
        assert!((0.0..=1.0).contains(&decay), "decay must be in [0,1]");
        HeatMap {
            decay,
            epoch: 1,
            dense: Vec::new(),
            spill: Spill::new(),
            live: Vec::new(),
            #[cfg(feature = "oracle")]
            shadow: vulcan_oracle::RefHeat::new(),
        }
    }

    /// Grow the dense table to the power of two covering `key`.
    fn grow_dense(&mut self, key: u64) {
        let cap = (key as usize + 1).next_power_of_two().max(1024);
        self.dense.resize(cap, Slot::default());
    }

    /// Pre-size the dense table for a footprint of `pages` pages, so the
    /// first touches of a workload don't pay incremental regrowth.
    pub fn reserve(&mut self, pages: u64) {
        let pages = pages.min(DENSE_LIMIT);
        if pages as usize > self.dense.len() {
            self.grow_dense(pages - 1);
        }
    }

    /// The slot for `key`, live or not (`None` if it was never created).
    #[inline]
    fn slot(&self, key: u64) -> Option<&Slot> {
        if key < DENSE_LIMIT {
            self.dense.get(key as usize)
        } else {
            self.spill.find(key).map(|i| &self.spill.slots[i])
        }
    }

    /// Mutable [`slot`](Self::slot): never creates one.
    #[inline]
    fn slot_mut(&mut self, key: u64) -> Option<&mut Slot> {
        if key < DENSE_LIMIT {
            self.dense.get_mut(key as usize)
        } else {
            self.spill.find(key).map(|i| &mut self.spill.slots[i])
        }
    }

    /// The slot for `key`, creating an empty (dead) one if absent.
    #[inline]
    fn slot_entry(&mut self, key: u64) -> &mut Slot {
        if key < DENSE_LIMIT {
            if key as usize >= self.dense.len() {
                self.grow_dense(key);
            }
            &mut self.dense[key as usize]
        } else {
            self.spill.slot_mut(key)
        }
    }

    /// Record `weight` sampled accesses to `vpn`.
    #[inline]
    pub fn record(&mut self, vpn: Vpn, is_write: bool, weight: f64) {
        let epoch = self.epoch;
        if self.slot_entry(vpn.0).record(epoch, is_write, weight) {
            self.live.push(vpn.0);
        }
        #[cfg(feature = "oracle")]
        {
            self.shadow.record(vpn.0, is_write, weight);
            self.oracle_check_key(vpn.0);
        }
    }

    /// Apply one epoch of exponential decay, dropping negligible pages.
    ///
    /// Bumping the epoch retires every slot at once; survivors are
    /// re-stamped during the sweep, so pruning needs no removal.
    pub fn decay_epoch(&mut self) {
        self.epoch += 1;
        let (d, epoch) = (self.decay, self.epoch);
        let HeatMap {
            dense, spill, live, ..
        } = self;
        let mut live_spill = 0usize;
        live.retain(|&key| {
            if key < DENSE_LIMIT {
                dense[key as usize].decay(d, epoch)
            } else {
                let i = spill.find(key).expect("live key is in the spill table");
                let keep = spill.slots[i].decay(d, epoch);
                live_spill += keep as usize;
                keep
            }
        });
        // Reclaim spill capacity once dead keys dominate: `used` counts
        // distinct keys ever inserted, so sparse-VPN churn would grow
        // the table forever. The 2× hysteresis (compaction resets
        // `used` to the live count) keeps this amortized O(1).
        if spill.used > (2 * live_spill).max(64) {
            spill.compact(epoch);
        }
        #[cfg(feature = "oracle")]
        {
            self.shadow.decay(d, PRUNE_THRESHOLD);
            self.oracle_check_live_set();
        }
    }

    /// Statistics for one page (zero if never sampled).
    #[inline]
    pub fn get(&self, vpn: Vpn) -> PageStats {
        match self.slot(vpn.0) {
            Some(s) if s.stamp == self.epoch => s.stats,
            _ => PageStats::default(),
        }
    }

    /// Remove a page's statistics (e.g. after unmap).
    pub fn forget(&mut self, vpn: Vpn) {
        let epoch = self.epoch;
        match self.slot_mut(vpn.0) {
            Some(s) if s.stamp == epoch => s.stamp = 0, // 0 is never a current epoch
            _ => return,
        }
        self.live.retain(|&k| k != vpn.0);
        #[cfg(feature = "oracle")]
        {
            self.shadow.forget(vpn.0);
            self.oracle_check_key(vpn.0);
            vulcan_oracle::check(
                vulcan_oracle::Structure::Heat,
                self.live.len() == self.shadow.len(),
                Some(vpn.0),
                || {
                    format!(
                        "after forget: flat live count {} != reference {}",
                        self.live.len(),
                        self.shadow.len()
                    )
                },
            );
        }
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterate `(vpn, stats)` over live pages in first-record order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, PageStats)> + '_ {
        self.live.iter().map(move |&k| (Vpn(k), self.get(Vpn(k))))
    }

    /// The `n` extreme pages under `cmp`, best first (see [`top_n_by`]).
    fn top_by(
        &self,
        n: usize,
        cmp: impl Fn(&(Vpn, f64), &(Vpn, f64)) -> std::cmp::Ordering,
    ) -> Vec<(Vpn, f64)> {
        top_n_by(self.iter().map(|(vpn, s)| (vpn, s.heat)).collect(), n, cmp)
    }

    /// The `n` hottest pages, hottest first (ties by VPN for determinism).
    pub fn hottest(&self, n: usize) -> Vec<(Vpn, f64)> {
        let got = self.top_by(n, |a, b| {
            b.1.partial_cmp(&a.1)
                .expect("heat is never NaN")
                .then(a.0 .0.cmp(&b.0 .0))
        });
        #[cfg(feature = "oracle")]
        self.oracle_check_selection(&got, n, true);
        got
    }

    /// The `n` coldest pages among those tracked, coldest first.
    pub fn coldest(&self, n: usize) -> Vec<(Vpn, f64)> {
        let got = self.top_by(n, |a, b| {
            a.1.partial_cmp(&b.1)
                .expect("heat is never NaN")
                .then(a.0 .0.cmp(&b.0 .0))
        });
        #[cfg(feature = "oracle")]
        self.oracle_check_selection(&got, n, false);
        got
    }

    /// Oracle builds: diff one key's flat-table view against the shadow
    /// `HashMap` model — bitwise, since both sides apply the identical
    /// arithmetic in the identical order.
    #[cfg(feature = "oracle")]
    fn oracle_check_key(&self, key: u64) {
        let got = self.get(Vpn(key));
        let want = self.shadow.get(key);
        vulcan_oracle::check(
            vulcan_oracle::Structure::Heat,
            got.heat == want.heat && got.reads == want.reads && got.writes == want.writes,
            Some(key),
            || format!("flat {got:?} != reference {want:?}"),
        );
    }

    /// Oracle builds: after `decay_epoch`, the surviving live set (and
    /// every survivor's stats) must equal the reference's retained set.
    #[cfg(feature = "oracle")]
    fn oracle_check_live_set(&self) {
        vulcan_oracle::check(
            vulcan_oracle::Structure::Heat,
            self.live.len() == self.shadow.len(),
            None,
            || {
                format!(
                    "after decay: flat live count {} != reference {}",
                    self.live.len(),
                    self.shadow.len()
                )
            },
        );
        for &key in &self.live {
            vulcan_oracle::check(
                vulcan_oracle::Structure::Heat,
                self.shadow.contains(key),
                Some(key),
                || "flat live key not tracked by reference".to_string(),
            );
            self.oracle_check_key(key);
        }
    }

    /// Oracle builds: the `select_nth_unstable_by` selection must equal
    /// a full sort of the reference model.
    #[cfg(feature = "oracle")]
    fn oracle_check_selection(&self, got: &[(Vpn, f64)], n: usize, hottest: bool) {
        let want = self.shadow.top_heat(n, hottest);
        let ok = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.0 .0 == w.0 && g.1 == w.1);
        vulcan_oracle::check(vulcan_oracle::Structure::Heat, ok, None, || {
            format!("selection (n={n}, hottest={hottest}): flat {got:?} != reference {want:?}")
        });
    }

    /// Capacity of the spill table, in slots (diagnostics; bounded-growth
    /// tests assert churned-through sparse VPNs don't grow it forever).
    pub fn spill_capacity(&self) -> usize {
        self.spill.keys.len()
    }

    /// Total heat across all pages.
    pub fn total_heat(&self) -> f64 {
        self.iter().map(|(_, s)| s.heat).sum()
    }

    /// The hot set under a capacity budget: hottest pages whose count fits
    /// `budget_pages` (Memtis-style capacity-based classification).
    pub fn hot_set(&self, budget_pages: usize) -> Vec<Vpn> {
        self.hottest(budget_pages)
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }
}

impl vulcan_json::Snapshot for HeatMap {
    /// Live pages travel as the `live` key list (first-record order is
    /// behavioral: it is the map's iteration order) plus parallel
    /// bit-exact stat arrays. The spill table is serialized **verbatim**
    /// — keys (dead ones included), stamps, stats and the `used`
    /// counter — because compaction hysteresis depends on the history of
    /// distinct keys ever inserted, not just the live set, so it is
    /// hidden state. Dense table capacity is wall-clock-only and rebuilt
    /// on demand.
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        let mut heat = Vec::with_capacity(self.live.len());
        let mut reads = Vec::with_capacity(self.live.len());
        let mut writes = Vec::with_capacity(self.live.len());
        for &key in &self.live {
            let s = self.get(Vpn(key));
            heat.push(s.heat);
            reads.push(s.reads);
            writes.push(s.writes);
        }
        let spill_stamps: Vec<u64> = self.spill.slots.iter().map(|s| s.stamp).collect();
        let spill_heat: Vec<f64> = self.spill.slots.iter().map(|s| s.stats.heat).collect();
        let spill_reads: Vec<f64> = self.spill.slots.iter().map(|s| s.stats.reads).collect();
        let spill_writes: Vec<f64> = self.spill.slots.iter().map(|s| s.stats.writes).collect();
        snap::obj(vec![
            ("decay", snap::f64_value(self.decay)),
            ("epoch", snap::u64_value(self.epoch)),
            ("live", snap::u64_array(&self.live)),
            ("heat", snap::f64_array(&heat)),
            ("reads", snap::f64_array(&reads)),
            ("writes", snap::f64_array(&writes)),
            ("spill_keys", snap::u64_array(&self.spill.keys)),
            ("spill_stamps", snap::u64_array(&spill_stamps)),
            ("spill_heat", snap::f64_array(&spill_heat)),
            ("spill_reads", snap::f64_array(&spill_reads)),
            ("spill_writes", snap::f64_array(&spill_writes)),
            ("spill_used", snap::u64_value(self.spill.used as u64)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let decay = snap::field_f64(v, "decay")?;
        if !(0.0..=1.0).contains(&decay) {
            return Err(format!("decay {decay} out of [0,1]"));
        }
        let epoch = snap::field_u64(v, "epoch")?;
        if epoch == 0 {
            // Stamp 0 marks never-live slots; as the current epoch it
            // would make every untouched dense slot read as live.
            return Err("heat-map epoch 0 is reserved for never-live slots".into());
        }
        let live = snap::array_u64(snap::field(v, "live")?)?;
        let mut sorted = live.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate live key {} in heat map", w[0]));
        }
        let heat = snap::array_f64(snap::field(v, "heat")?)?;
        let reads = snap::array_f64(snap::field(v, "reads")?)?;
        let writes = snap::array_f64(snap::field(v, "writes")?)?;
        if heat.len() != live.len() || reads.len() != live.len() || writes.len() != live.len() {
            return Err("heat-map stat arrays disagree with live key list".into());
        }
        let spill_keys = snap::array_u64(snap::field(v, "spill_keys")?)?;
        if !spill_keys.is_empty() && !spill_keys.len().is_power_of_two() {
            return Err("spill capacity must be a power of two".into());
        }
        let spill_stamps = snap::array_u64(snap::field(v, "spill_stamps")?)?;
        let spill_heat = snap::array_f64(snap::field(v, "spill_heat")?)?;
        let spill_reads = snap::array_f64(snap::field(v, "spill_reads")?)?;
        let spill_writes = snap::array_f64(snap::field(v, "spill_writes")?)?;
        if [
            spill_stamps.len(),
            spill_heat.len(),
            spill_reads.len(),
            spill_writes.len(),
        ]
        .iter()
        .any(|&n| n != spill_keys.len())
        {
            return Err("spill arrays disagree with spill capacity".into());
        }
        let spill = Spill {
            slots: spill_stamps
                .iter()
                .zip(spill_heat.iter().zip(spill_reads.iter().zip(&spill_writes)))
                .map(|(&stamp, (&heat, (&reads, &writes)))| Slot {
                    stats: PageStats {
                        heat,
                        reads,
                        writes,
                    },
                    stamp,
                })
                .collect(),
            keys: spill_keys,
            used: usize::try_from(snap::field_u64(v, "spill_used")?)
                .map_err(|_| "spill_used out of range".to_string())?,
        };
        let mut map = HeatMap::new(decay);
        map.epoch = epoch;
        map.spill = spill;
        for (i, &key) in live.iter().enumerate() {
            let stats = PageStats {
                heat: heat[i],
                reads: reads[i],
                writes: writes[i],
            };
            if key < DENSE_LIMIT {
                *map.slot_entry(key) = Slot {
                    stats,
                    stamp: epoch,
                };
            } else {
                let j = map
                    .spill
                    .find(key)
                    .ok_or_else(|| format!("live spill key {key} missing from spill table"))?;
                if map.spill.slots[j].stamp != epoch {
                    return Err(format!("live spill key {key} has a dead stamp"));
                }
            }
            #[cfg(feature = "oracle")]
            map.shadow.set_exact(
                key,
                vulcan_oracle::RefStats {
                    heat: stats.heat,
                    reads: stats.reads,
                    writes: stats.writes,
                },
            );
        }
        map.live = live;
        Ok(map)
    }
}

impl fmt::Debug for HeatMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeatMap")
            .field("decay", &self.decay)
            .field("epoch", &self.epoch)
            .field("live_pages", &self.live.len())
            .field("spill_capacity", &self.spill.keys.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(1), false, 1.0);
        h.record(Vpn(1), true, 2.0);
        let s = h.get(Vpn(1));
        assert_eq!(s.heat, 3.0);
        assert_eq!(s.reads, 1.0);
        assert_eq!(s.writes, 2.0);
        assert!((s.write_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_page_is_cold() {
        let h = HeatMap::new(0.5);
        assert_eq!(h.get(Vpn(42)), PageStats::default());
        assert_eq!(h.get(Vpn(42)).write_ratio(), 0.0);
    }

    #[test]
    fn decay_halves_and_prunes() {
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(1), false, 8.0);
        h.record(Vpn(2), false, 0.001);
        h.decay_epoch();
        assert_eq!(h.get(Vpn(1)).heat, 4.0);
        assert_eq!(h.len(), 1, "negligible page pruned");
        for _ in 0..20 {
            h.decay_epoch();
        }
        assert!(h.is_empty(), "everything decays away eventually");
    }

    #[test]
    fn hottest_orders_and_breaks_ties_deterministically() {
        let mut h = HeatMap::new(1.0);
        h.record(Vpn(3), false, 5.0);
        h.record(Vpn(1), false, 9.0);
        h.record(Vpn(2), false, 5.0);
        let top = h.hottest(3);
        assert_eq!(top[0].0, Vpn(1));
        assert_eq!(top[1].0, Vpn(2), "tie broken by vpn");
        assert_eq!(top[2].0, Vpn(3));
        assert_eq!(h.hottest(1).len(), 1);
    }

    #[test]
    fn coldest_is_reverse_of_hottest_extremes() {
        let mut h = HeatMap::new(1.0);
        for (v, w) in [(1u64, 1.0), (2, 10.0), (3, 5.0)] {
            h.record(Vpn(v), false, w);
        }
        assert_eq!(h.coldest(1)[0].0, Vpn(1));
        assert_eq!(h.hottest(1)[0].0, Vpn(2));
    }

    #[test]
    fn hot_set_respects_budget() {
        let mut h = HeatMap::new(1.0);
        for v in 0..10u64 {
            h.record(Vpn(v), false, v as f64 + 1.0);
        }
        let hot = h.hot_set(3);
        assert_eq!(hot, vec![Vpn(9), Vpn(8), Vpn(7)]);
    }

    #[test]
    fn write_intensity_threshold() {
        let mut h = HeatMap::new(1.0);
        h.record(Vpn(1), true, 3.0);
        h.record(Vpn(1), false, 7.0);
        assert!(h.get(Vpn(1)).write_intensive(0.3));
        assert!(!h.get(Vpn(1)).write_intensive(0.5));
    }

    #[test]
    fn forget_removes() {
        let mut h = HeatMap::new(1.0);
        h.record(Vpn(1), false, 1.0);
        h.forget(Vpn(1));
        assert!(h.is_empty());
        assert_eq!(h.get(Vpn(1)), PageStats::default());
    }

    #[test]
    fn total_heat_sums() {
        let mut h = HeatMap::new(1.0);
        h.record(Vpn(1), false, 2.0);
        h.record(Vpn(2), true, 3.0);
        assert!((h.total_heat() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn spill_pages_behave_like_dense_pages() {
        let mut h = HeatMap::new(0.5);
        let far = Vpn(DENSE_LIMIT + 12_345);
        let farther = Vpn(DENSE_LIMIT * 3 + 7);
        h.record(far, false, 8.0);
        h.record(farther, true, 2.0);
        h.record(Vpn(3), false, 4.0);
        assert_eq!(h.len(), 3);
        assert_eq!(h.get(far).heat, 8.0);
        assert_eq!(h.get(farther).writes, 2.0);
        h.decay_epoch();
        assert_eq!(h.get(far).heat, 4.0);
        h.forget(far);
        assert_eq!(h.get(far), PageStats::default());
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn forget_never_grows_the_spill_table() {
        // 44 keys fill a 64-slot table to its growth threshold; the
        // capacity is checkpointed verbatim, so forgetting must not
        // trigger the insert path's regrowth.
        let mut h = HeatMap::new(1.0);
        for i in 0..44u64 {
            h.record(Vpn(DENSE_LIMIT + i), false, 1.0);
        }
        assert_eq!(h.spill_capacity(), 64);
        h.forget(Vpn(DENSE_LIMIT + 3));
        assert_eq!(h.spill_capacity(), 64);
        assert_eq!(h.len(), 43);
    }

    #[test]
    fn spill_survives_regrowth() {
        let mut h = HeatMap::new(1.0);
        // Enough distinct spill keys to force several table regrowths.
        for i in 0..500u64 {
            h.record(Vpn(DENSE_LIMIT + i * 97), false, i as f64 + 1.0);
        }
        assert_eq!(h.len(), 500);
        for i in 0..500u64 {
            assert_eq!(h.get(Vpn(DENSE_LIMIT + i * 97)).heat, i as f64 + 1.0);
        }
    }

    #[test]
    fn pruned_page_resurrects_from_zero() {
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(9), true, 0.001);
        h.decay_epoch(); // 0.0005 < threshold: pruned
        assert!(h.is_empty());
        h.record(Vpn(9), false, 1.0);
        let s = h.get(Vpn(9));
        assert_eq!(s.heat, 1.0, "no stale heat from the retired slot");
        assert_eq!(s.writes, 0.0, "no stale writes from the retired slot");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn iteration_order_is_first_record_order() {
        let mut h = HeatMap::new(1.0);
        for v in [5u64, 2, 9, DENSE_LIMIT + 1, 3] {
            h.record(Vpn(v), false, 1.0);
        }
        let order: Vec<u64> = h.iter().map(|(v, _)| v.0).collect();
        assert_eq!(order, vec![5, 2, 9, DENSE_LIMIT + 1, 3]);
    }

    /// The flat table must be observationally identical to the reference
    /// `HashMap` semantics: same survivors, same values, same selections.
    #[test]
    fn matches_reference_hashmap_semantics() {
        use std::collections::HashMap;
        let mut flat = HeatMap::new(0.7);
        let mut reference: HashMap<u64, PageStats> = HashMap::new();
        // Deterministic pseudo-random op stream (LCG).
        let mut x: u64 = 0x1234_5678;
        let mut step = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        for round in 0..50 {
            for _ in 0..200 {
                let r = step();
                let vpn = match r % 10 {
                    0..=7 => r % 512,            // dense
                    8 => DENSE_LIMIT + (r % 64), // spill
                    _ => 1024 + (r % 97),        // dense, sparser
                };
                let write = r % 3 == 0;
                let weight = ((r % 7) + 1) as f64;
                flat.record(Vpn(vpn), write, weight);
                let s = reference.entry(vpn).or_default();
                s.heat += weight;
                if write {
                    s.writes += weight;
                } else {
                    s.reads += weight;
                }
            }
            if round % 3 == 0 {
                flat.decay_epoch();
                reference.retain(|_, s| {
                    s.heat *= 0.7;
                    s.reads *= 0.7;
                    s.writes *= 0.7;
                    s.heat >= 1e-3
                });
            }
            if round % 7 == 0 {
                let victim = step() % 512;
                flat.forget(Vpn(victim));
                reference.remove(&victim);
            }
        }
        assert_eq!(flat.len(), reference.len());
        for (&vpn, s) in &reference {
            assert_eq!(flat.get(Vpn(vpn)), *s, "vpn {vpn}");
        }
        // Selection agrees with a full sort of the reference.
        let mut all: Vec<(u64, f64)> = reference.iter().map(|(&v, s)| (v, s.heat)).collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let want: Vec<(Vpn, f64)> = all.iter().take(10).map(|&(v, h)| (Vpn(v), h)).collect();
        assert_eq!(flat.hottest(10), want);
        all.reverse();
        let want: Vec<(Vpn, f64)> = all.iter().take(10).map(|&(v, h)| (Vpn(v), h)).collect();
        assert_eq!(flat.coldest(10), want);
    }

    #[test]
    fn spill_capacity_stays_bounded_under_churning_sparse_vpns() {
        // Long-run resource regression: `Spill::used` counts distinct
        // keys ever inserted. A workload churning through sparse VPNs
        // (mmap/munmap cycles, drifting footprints) inserts a stream of
        // distinct spill keys that all die at the next decay; without
        // dead-slot reclamation the table grows with *history*, not
        // with the live set.
        let mut h = HeatMap::new(0.0); // decay 0: everything pruned each epoch
        for round in 0..200u64 {
            for i in 0..100u64 {
                h.record(Vpn(DENSE_LIMIT + round * 1_000 + i * 7), false, 1.0);
            }
            h.decay_epoch();
            assert!(h.is_empty(), "decay 0 prunes every page");
        }
        // 20_000 distinct keys ever, zero live. The capacity must track
        // the live set (here: empty), not the insertion history, which
        // would need ≥ 32_768 slots at 70% occupancy.
        assert!(
            h.spill_capacity() <= 1_024,
            "spill capacity {} grew with history, not live set",
            h.spill_capacity()
        );
    }

    #[test]
    fn spill_compaction_preserves_live_stats_bitwise() {
        // Hot spill pages must survive compaction with bit-identical
        // stats while churned-through cold neighbours are reclaimed.
        use std::collections::HashMap;
        let mut h = HeatMap::new(0.5);
        let mut reference: HashMap<u64, PageStats> = HashMap::new();
        let hot: Vec<u64> = (0..40).map(|i| DENSE_LIMIT + 13 + i * 101).collect();
        for round in 0..120u64 {
            for (j, &key) in hot.iter().enumerate() {
                let w = (j + 1) as f64;
                h.record(Vpn(key), j % 3 == 0, w);
                let s = reference.entry(key).or_default();
                s.heat += w;
                if j % 3 == 0 {
                    s.writes += w;
                } else {
                    s.reads += w;
                }
            }
            // Transient sparse keys that die immediately.
            for i in 0..50u64 {
                h.record(
                    Vpn(DENSE_LIMIT + 1_000_000 + round * 500 + i * 9),
                    false,
                    0.001,
                );
            }
            h.decay_epoch();
            reference.retain(|_, s| {
                s.heat *= 0.5;
                s.reads *= 0.5;
                s.writes *= 0.5;
                s.heat >= 1e-3
            });
        }
        assert_eq!(h.len(), reference.len());
        for (&key, want) in &reference {
            assert_eq!(h.get(Vpn(key)), *want, "key {key}");
        }
        assert!(
            h.spill_capacity() <= 2_048,
            "capacity {} tracks history",
            h.spill_capacity()
        );
    }

    #[test]
    fn reserve_presizes_without_changing_semantics() {
        let mut h = HeatMap::new(1.0);
        h.reserve(4_096);
        assert!(h.is_empty());
        h.record(Vpn(4_000), false, 2.0);
        assert_eq!(h.get(Vpn(4_000)).heat, 2.0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn clone_is_deep_and_independent() {
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(1), false, 4.0);
        h.record(Vpn(DENSE_LIMIT + 5), true, 2.0);
        let mut c = h.clone();
        assert_eq!(c.get(Vpn(1)), h.get(Vpn(1)));
        assert_eq!(c.get(Vpn(DENSE_LIMIT + 5)), h.get(Vpn(DENSE_LIMIT + 5)));
        c.record(Vpn(1), false, 1.0);
        c.decay_epoch();
        assert_eq!(h.get(Vpn(1)).heat, 4.0, "original untouched by clone");
        assert_eq!(c.get(Vpn(1)).heat, 2.5);
    }

    /// `v` (a snapshot object) with `key` replaced by `value`.
    fn with_field(
        v: vulcan_json::Value,
        key: &str,
        value: vulcan_json::Value,
    ) -> vulcan_json::Value {
        match v {
            vulcan_json::Value::Object(m) => vulcan_json::Value::Object(m.with(key, value)),
            other => panic!("snapshot is not an object: {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_epoch_zero() {
        use vulcan_json::{snap, Snapshot};
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(1), false, 1.0);
        let v = with_field(h.snapshot(), "epoch", snap::u64_value(0));
        let err = HeatMap::restore(&v).unwrap_err();
        assert!(err.contains("epoch 0"), "{err}");
    }

    #[test]
    fn restore_rejects_duplicate_live_keys() {
        use vulcan_json::{snap, Snapshot};
        let mut h = HeatMap::new(0.5);
        h.record(Vpn(1), false, 1.0);
        h.record(Vpn(2), true, 2.0);
        // Two live entries, both naming VPN 1: the stat arrays still line up.
        let v = with_field(h.snapshot(), "live", snap::u64_array(&[1, 1]));
        let err = HeatMap::restore(&v).unwrap_err();
        assert!(err.contains("duplicate live key 1"), "{err}");
    }
}
