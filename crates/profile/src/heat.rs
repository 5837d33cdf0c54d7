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
//! [`DENSE_LIMIT`]. Liveness is an epoch stamp per slot: `decay_epoch`
//! bumps the map epoch and re-stamps survivors, so a pruned page's slot
//! is retired without being written at all, and a later `record`
//! resurrects it from zero exactly like a fresh `HashMap` entry.
//! A `live` key list (first-record order) makes decay sweeps and
//! iteration proportional to the number of tracked pages, not table
//! capacity, and gives the map a deterministic iteration order.
//!
//! # Sharding and the lock-free read side
//!
//! The dense table is split into [`N_SHARDS`] power-of-two shards keyed
//! by the VPN's low bits (`shard = vpn & (N_SHARDS - 1)`, `slot = vpn >>
//! SHARD_BITS`), so consecutive VPNs stripe across shards and each shard
//! grows independently. Every dense slot is a bundle of atomics guarded
//! by a per-slot seqlock:
//!
//! - **Who writes:** exactly one writer — whoever holds `&mut HeatMap`.
//!   `record`/`decay_epoch`/`forget` wrap each slot update in a seqlock
//!   section (`seq` goes odd, fields stored, `seq` goes even). There is
//!   never writer/writer contention, so writes are plain atomic stores,
//!   no RMWs, no locks.
//! - **Who reads:** the same-thread policy/profiler side reads through
//!   `&HeatMap` with relaxed loads (it *is* the writer thread, so no
//!   protocol is needed and reads stay exact). Concurrent observers take
//!   a [`HeatReader`] — an `Arc` snapshot of the shard arrays plus the
//!   shared epoch counter — and read through the seqlock: retry while
//!   `seq` is odd or changed across the read, so a snapshot never tears
//!   and never blocks the writer.
//! - **Epoch rules:** a slot is live iff its `stamp` equals the map
//!   epoch (an `Arc<AtomicU64>` both sides share). Readers that race a
//!   `decay_epoch` may transiently see a survivor as dead (stamp not yet
//!   re-bumped) — staleness, never a torn value. A shard that grows
//!   swaps in a fresh slot array; existing `HeatReader`s keep the old
//!   one and read pages recorded after their snapshot as cold.
//!
//! Spill VPNs (at or above [`DENSE_LIMIT`]) stay on a writer-private
//! non-atomic table: they are sparse outliers that no lock-free reader
//! needs, and [`HeatReader::get`] reports them as cold.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use vulcan_vm::Vpn;

/// VPNs below this go in the dense direct-indexed table (2 Mi pages =
/// 8 GiB of 4 KiB-page footprint); anything above spills to the
/// open-addressed side table.
const DENSE_LIMIT: u64 = 1 << 21;

/// Pages whose decayed heat drops below this are pruned, matching the
/// prior `HashMap::retain` semantics.
const PRUNE_THRESHOLD: f64 = 1e-3;

/// log2 of the dense shard count.
const SHARD_BITS: u32 = 3;

/// Power-of-two dense shard count; a VPN's shard is its low bits.
const N_SHARDS: usize = 1 << SHARD_BITS;

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

/// One spill-table entry: page statistics plus the liveness epoch stamp.
/// The slot is live iff `stamp` equals the map's current epoch.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    stats: PageStats,
    stamp: u64,
}

/// One dense-table entry: the same statistics and epoch stamp as
/// [`Slot`], but held in atomics behind a per-slot seqlock so a
/// [`HeatReader`] on another thread can read it lock-free while the
/// single writer updates it.
#[derive(Debug, Default)]
struct AtomicSlot {
    /// Seqlock word: odd while the writer is mid-update; bumped to the
    /// next even value when the update completes.
    seq: AtomicU64,
    /// Liveness epoch stamp (0 is never a current epoch).
    stamp: AtomicU64,
    /// `f64` bits of [`PageStats::heat`].
    heat: AtomicU64,
    /// `f64` bits of [`PageStats::reads`].
    reads: AtomicU64,
    /// `f64` bits of [`PageStats::writes`].
    writes: AtomicU64,
}

impl AtomicSlot {
    /// Plain loads — exact on the writer thread, and safe inside a
    /// validated seqlock read section.
    #[inline]
    fn stats_relaxed(&self) -> PageStats {
        PageStats {
            heat: f64::from_bits(self.heat.load(Ordering::Relaxed)),
            reads: f64::from_bits(self.reads.load(Ordering::Relaxed)),
            writes: f64::from_bits(self.writes.load(Ordering::Relaxed)),
        }
    }

    /// Single-writer seqlock update: take `seq` odd, store the fields,
    /// release it even. Concurrent [`HeatReader`]s that overlap this
    /// window retry; the writer never waits.
    #[inline]
    fn write(&self, stamp: u64, stats: PageStats) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        self.stamp.store(stamp, Ordering::Relaxed);
        self.heat.store(stats.heat.to_bits(), Ordering::Relaxed);
        self.reads.store(stats.reads.to_bits(), Ordering::Relaxed);
        self.writes.store(stats.writes.to_bits(), Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// A value-copy with a fresh (even) seqlock word.
    fn copy_of(&self) -> AtomicSlot {
        AtomicSlot {
            seq: AtomicU64::new(0),
            stamp: AtomicU64::new(self.stamp.load(Ordering::Relaxed)),
            heat: AtomicU64::new(self.heat.load(Ordering::Relaxed)),
            reads: AtomicU64::new(self.reads.load(Ordering::Relaxed)),
            writes: AtomicU64::new(self.writes.load(Ordering::Relaxed)),
        }
    }
}

/// One dense shard: a shared, immutable-length slot array. Growth swaps
/// in a bigger array; readers holding the old `Arc` keep a consistent
/// (if stale) view.
type DenseShard = Arc<[AtomicSlot]>;

/// `(shard, slot index)` of a dense VPN.
#[inline]
fn dense_pos(key: u64) -> (usize, usize) {
    (
        (key as usize) & (N_SHARDS - 1),
        (key >> SHARD_BITS) as usize,
    )
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

/// Decayed per-page heat map over a sharded, epoch-versioned flat table
/// whose dense slots are lock-free-readable (see the module docs for the
/// memory model).
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
pub struct HeatMap {
    /// Multiplier applied at each epoch (0 = pure frequency of last epoch,
    /// 1 = pure cumulative frequency).
    decay: f64,
    /// Current liveness epoch; bumped by [`HeatMap::decay_epoch`].
    /// Shared with [`HeatReader`]s so their stamp checks track decay.
    epoch: Arc<AtomicU64>,
    /// Dense slot shards, striped by VPN low bits (grown on demand).
    shards: Box<[DenseShard]>,
    /// Spill table for VPNs at or above [`DENSE_LIMIT`] (writer-private).
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
            epoch: Arc::new(AtomicU64::new(1)),
            shards: (0..N_SHARDS)
                .map(|_| Arc::from(Vec::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            spill: Spill::new(),
            live: Vec::new(),
            #[cfg(feature = "oracle")]
            shadow: vulcan_oracle::RefHeat::new(),
        }
    }

    #[inline]
    fn epoch_now(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Swap shard `sh`'s array for one that covers slot `idx`, copying
    /// existing values. Readers holding the old array keep a consistent
    /// pre-growth view.
    fn grow_shard(&mut self, sh: usize, idx: usize) {
        let cap = (idx + 1).next_power_of_two().max(128);
        let old = &self.shards[sh];
        let mut slots: Vec<AtomicSlot> = Vec::with_capacity(cap);
        slots.extend(old.iter().map(AtomicSlot::copy_of));
        slots.resize_with(cap, AtomicSlot::default);
        self.shards[sh] = Arc::from(slots);
    }

    /// Pre-size the dense table for a footprint of `pages` pages, so the
    /// first touches of a workload don't pay incremental regrowth.
    pub fn reserve(&mut self, pages: u64) {
        let per_shard = (pages.min(DENSE_LIMIT) as usize).div_ceil(N_SHARDS);
        for sh in 0..N_SHARDS {
            if per_shard > self.shards[sh].len() {
                self.grow_shard(sh, per_shard - 1);
            }
        }
    }

    /// Record `weight` sampled accesses to `vpn`.
    #[inline]
    pub fn record(&mut self, vpn: Vpn, is_write: bool, weight: f64) {
        let epoch = self.epoch_now();
        if vpn.0 < DENSE_LIMIT {
            let (sh, idx) = dense_pos(vpn.0);
            if idx >= self.shards[sh].len() {
                self.grow_shard(sh, idx);
            }
            let slot = &self.shards[sh][idx];
            let mut stats = if slot.stamp.load(Ordering::Relaxed) == epoch {
                slot.stats_relaxed()
            } else {
                // Dead or never-seen slot: resurrect from zero, exactly
                // like a fresh map entry.
                self.live.push(vpn.0);
                PageStats::default()
            };
            stats.heat += weight;
            if is_write {
                stats.writes += weight;
            } else {
                stats.reads += weight;
            }
            slot.write(epoch, stats);
        } else {
            let slot = self.spill.slot_mut(vpn.0);
            if slot.stamp != epoch {
                slot.stats = PageStats::default();
                slot.stamp = epoch;
                self.live.push(vpn.0);
            }
            slot.stats.heat += weight;
            if is_write {
                slot.stats.writes += weight;
            } else {
                slot.stats.reads += weight;
            }
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
    /// re-stamped during the sweep, so pruned pages cost no writes.
    pub fn decay_epoch(&mut self) {
        let epoch = self.epoch_now() + 1;
        self.epoch.store(epoch, Ordering::Relaxed);
        let d = self.decay;
        let HeatMap {
            shards,
            spill,
            live,
            ..
        } = self;
        let mut live_spill = 0usize;
        live.retain(|&key| {
            if key < DENSE_LIMIT {
                let (sh, idx) = dense_pos(key);
                let slot = &shards[sh][idx];
                let mut stats = slot.stats_relaxed();
                stats.heat *= d;
                stats.reads *= d;
                stats.writes *= d;
                if stats.heat >= PRUNE_THRESHOLD {
                    slot.write(epoch, stats);
                    true
                } else {
                    false
                }
            } else {
                let i = spill.find(key).expect("live key is in the spill table");
                let slot = &mut spill.slots[i];
                slot.stats.heat *= d;
                slot.stats.reads *= d;
                slot.stats.writes *= d;
                if slot.stats.heat >= PRUNE_THRESHOLD {
                    slot.stamp = epoch;
                    live_spill += 1;
                    true
                } else {
                    false
                }
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
        let epoch = self.epoch_now();
        if vpn.0 < DENSE_LIMIT {
            let (sh, idx) = dense_pos(vpn.0);
            match self.shards[sh].get(idx) {
                Some(s) if s.stamp.load(Ordering::Relaxed) == epoch => s.stats_relaxed(),
                _ => PageStats::default(),
            }
        } else {
            match self.spill.find(vpn.0) {
                Some(i) if self.spill.slots[i].stamp == epoch => self.spill.slots[i].stats,
                _ => PageStats::default(),
            }
        }
    }

    /// Remove a page's statistics (e.g. after unmap).
    pub fn forget(&mut self, vpn: Vpn) {
        let epoch = self.epoch_now();
        if vpn.0 < DENSE_LIMIT {
            let (sh, idx) = dense_pos(vpn.0);
            match self.shards[sh].get(idx) {
                Some(s) if s.stamp.load(Ordering::Relaxed) == epoch => {
                    s.write(0, PageStats::default()) // 0 is never a current epoch
                }
                _ => return,
            }
        } else {
            match self.spill.find(vpn.0) {
                Some(i) if self.spill.slots[i].stamp == epoch => self.spill.slots[i].stamp = 0,
                _ => return,
            }
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

    /// A lock-free read handle over the dense shards as they are now.
    /// See [`HeatReader`] for the visibility contract.
    pub fn reader(&self) -> HeatReader {
        HeatReader {
            epoch: Arc::clone(&self.epoch),
            shards: self.shards.clone(),
        }
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
    /// distinct keys ever inserted, not just the live set (ISSUE 10
    /// satellite: spillover compaction hysteresis is hidden state).
    /// Dense shard capacities are wall-clock-only and rebuilt on demand.
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
            ("epoch", snap::u64_value(self.epoch_now())),
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
        let live = snap::array_u64(snap::field(v, "live")?)?;
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
        map.epoch.store(epoch, Ordering::Relaxed);
        map.spill = spill;
        for (i, &key) in live.iter().enumerate() {
            let stats = PageStats {
                heat: heat[i],
                reads: reads[i],
                writes: writes[i],
            };
            if key < DENSE_LIMIT {
                let (sh, idx) = dense_pos(key);
                if idx >= map.shards[sh].len() {
                    map.grow_shard(sh, idx);
                }
                map.shards[sh][idx].write(epoch, stats);
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

impl Clone for HeatMap {
    /// Deep copy: fresh shard arrays and a fresh (unshared) epoch
    /// counter, so the clone's readers never observe the original.
    fn clone(&self) -> HeatMap {
        HeatMap {
            decay: self.decay,
            epoch: Arc::new(AtomicU64::new(self.epoch_now())),
            shards: self
                .shards
                .iter()
                .map(|sh| Arc::from(sh.iter().map(AtomicSlot::copy_of).collect::<Vec<_>>()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            spill: self.spill.clone(),
            live: self.live.clone(),
            #[cfg(feature = "oracle")]
            shadow: self.shadow.clone(),
        }
    }
}

impl fmt::Debug for HeatMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeatMap")
            .field("decay", &self.decay)
            .field("epoch", &self.epoch_now())
            .field("live_pages", &self.live.len())
            .field("spill_capacity", &self.spill.keys.len())
            .finish_non_exhaustive()
    }
}

/// A lock-free, concurrent read handle over a [`HeatMap`]'s dense
/// shards.
///
/// Reads go through each slot's seqlock: they spin (never block, never
/// take a lock) while an update is in flight and retry if one raced the
/// read, so a returned [`PageStats`] is always an untorn snapshot some
/// writer actually produced. The handle snapshots the shard arrays at
/// creation: pages first recorded after a shard *grows* past the
/// snapshot read as cold, as do spill-range VPNs (at or above the dense
/// limit) — monitoring-grade visibility, while the writer-thread
/// [`HeatMap::get`] stays exact.
#[derive(Clone)]
pub struct HeatReader {
    epoch: Arc<AtomicU64>,
    shards: Box<[DenseShard]>,
}

impl HeatReader {
    /// Statistics for one page (zero if never sampled, dead, beyond the
    /// snapshot, or in the spill range).
    pub fn get(&self, vpn: Vpn) -> PageStats {
        if vpn.0 >= DENSE_LIMIT {
            return PageStats::default();
        }
        let (sh, idx) = dense_pos(vpn.0);
        let Some(slot) = self.shards[sh].get(idx) else {
            return PageStats::default();
        };
        loop {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let stamp = slot.stamp.load(Ordering::Relaxed);
            let stats = slot.stats_relaxed();
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == s1 {
                return if stamp == self.epoch.load(Ordering::Relaxed) {
                    stats
                } else {
                    PageStats::default()
                };
            }
        }
    }
}

impl fmt::Debug for HeatReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeatReader")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
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

    #[test]
    fn reader_matches_writer_view_single_threaded() {
        let mut h = HeatMap::new(0.5);
        for v in 0..300u64 {
            h.record(Vpn(v), v % 4 == 0, (v % 9) as f64 + 1.0);
        }
        h.decay_epoch();
        for v in 0..50u64 {
            h.record(Vpn(v), false, 2.0);
        }
        let r = h.reader();
        for v in 0..300u64 {
            assert_eq!(r.get(Vpn(v)), h.get(Vpn(v)), "vpn {v}");
        }
        assert_eq!(r.get(Vpn(9_999)), PageStats::default(), "beyond snapshot");
        assert_eq!(
            r.get(Vpn(DENSE_LIMIT + 1)),
            PageStats::default(),
            "spill range is cold through the reader"
        );
    }

    #[test]
    fn reader_tracks_decay_through_shared_epoch() {
        let mut h = HeatMap::new(0.0); // decay 0: everything dies
        h.record(Vpn(7), false, 5.0);
        let r = h.reader();
        assert_eq!(r.get(Vpn(7)).heat, 5.0);
        h.decay_epoch();
        assert_eq!(r.get(Vpn(7)), PageStats::default(), "pruned page is cold");
        h.record(Vpn(7), false, 1.0);
        assert_eq!(r.get(Vpn(7)).heat, 1.0, "resurrection visible");
    }

    /// Satellite contract: concurrent lock-free reads during a record
    /// pass never tear and never deadlock. The writer only issues reads
    /// (`is_write = false`), so every consistent snapshot satisfies
    /// `heat == reads && writes == 0` bitwise — both fields go through
    /// the identical `+= weight` / `*= decay` sequence. A torn read
    /// (heat updated, reads not) breaks the equality.
    #[test]
    fn concurrent_reads_never_tear_or_deadlock() {
        use std::sync::atomic::AtomicBool;

        let mut h = HeatMap::new(0.5);
        h.reserve(512);
        let reader = h.reader();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let r = reader.clone();
                let done = &done;
                scope.spawn(move || {
                    let mut x: u64 = 0xDEAD_BEEF;
                    let mut observed_hot = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        let s = r.get(Vpn((x >> 33) % 512));
                        assert_eq!(s.heat.to_bits(), s.reads.to_bits(), "torn snapshot: {s:?}");
                        assert_eq!(s.writes, 0.0, "torn snapshot: {s:?}");
                        observed_hot += (s.heat > 0.0) as u64;
                    }
                    observed_hot
                });
            }
            // The single writer hammers records and decays concurrently.
            let mut x: u64 = 0x1234_5678;
            for round in 0..200 {
                for _ in 0..2_000 {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    h.record(Vpn((x >> 33) % 512), false, ((x % 7) + 1) as f64);
                }
                if round % 10 == 0 {
                    h.decay_epoch();
                }
            }
            done.store(true, Ordering::Relaxed);
        });
        // The writer-side view stays exact throughout.
        for v in 0..512u64 {
            let s = h.get(Vpn(v));
            assert_eq!(s.heat.to_bits(), s.reads.to_bits());
        }
    }
}
