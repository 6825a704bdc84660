//! Memoization of door-distance kernels over the VIP-tree.
//!
//! The efficient IFLS solvers (§5 of the paper) repeatedly ask two pure
//! questions of the tree: the per-door distance vector
//! [`VipTree::door_dists_to_partition`]`(source, part)` and the lower bound
//! `iMinD(source, node)`. Both depend only on the immutable tree — never on
//! the facility sets or the clients — so their values are globally valid:
//! they can be memoized once and reused across candidates, across the three
//! objectives, across queries, and across threads without any invalidation.
//!
//! Two tiers answer a lookup, probed in this order:
//!
//! * [`WarmTier`](crate::WarmTier) — an optional dense `door × partition`
//!   matrix plus the `partition × node` minima, owned by the tree itself
//!   (built at `index build` time and shipped inside `ifls-index/v2`
//!   snapshots); read-only, so every thread shares it without
//!   synchronization. This is the precomputed side.
//! * [`DistCache`]'s local table — a per-worker (or per-query) mutable
//!   memo with a bounded entry count and deterministic whole-generation
//!   eviction, filled on demand: every miss runs the kernel and inserts
//!   its result.
//!
//! The local table is an open-addressed, power-of-two flat table: packed
//! `(partition, partition)` / `(partition, node)` small-int keys, one
//! multiply-shift hash, linear probing, inline slots. Vector payloads live
//! in one append-only `f64` arena addressed by `(offset, len)` spans —
//! no per-entry allocation and no `BuildHasher` indirection on the hot
//! path.
//!
//! Because every cached value equals the recomputation bit-for-bit (same
//! pure function, same fold order), a hit can never change an answer —
//! cache on/off, warm tier present or absent, any eviction schedule and
//! any thread count produce identical bits, which the `ifls-core`
//! equivalence suites assert.

use ifls_indoor::{IndoorPoint, PartitionId};
use ifls_obs::{self as obs, Counter, Phase};

use crate::node::NodeId;
use crate::tree::VipTree;

/// Sentinel marking an empty slot. Real keys pack two dense `u32` ids,
/// both strictly below `u32::MAX`, so the sentinel can never collide.
const EMPTY_KEY: u64 = u64::MAX;

/// Multiply-shift hash constant (the odd golden-ratio mix word). One
/// multiply and one shift map a packed key to its home slot.
const HASH_MULT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Packs two dense ids into one table key.
#[inline]
fn pack(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Home slot of `key` in a table of `2^(64 - shift)` slots.
#[inline]
fn home_slot(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(HASH_MULT) >> shift) as usize
}

/// Open-addressed flat table mapping packed keys to `f64` vectors stored
/// as `(offset, len)` spans into one shared append-only arena.
///
/// Capacity is always a power of two, kept at most half full; lookups are
/// one multiply-shift hash plus a linear probe over inline slots. Slots
/// are allocated lazily on the first insert, and a whole-generation
/// [`clear`](FlatVecTable::clear) resets the key array and truncates the
/// arena without releasing capacity.
#[derive(Debug, Default)]
struct FlatVecTable {
    keys: Vec<u64>,
    spans: Vec<(u32, u32)>,
    arena: Vec<f64>,
    len: usize,
    shift: u32,
}

impl FlatVecTable {
    /// The stored span for `key`, if present.
    #[inline]
    fn span_of(&self, key: u64) -> Option<(u32, u32)> {
        if self.len == 0 {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = home_slot(key, self.shift);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.spans[i]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// The arena slice behind a span returned by `span_of`.
    #[inline]
    fn slice(&self, span: (u32, u32)) -> &[f64] {
        let (off, len) = (span.0 as usize, span.1 as usize);
        &self.arena[off..off + len]
    }

    /// Inserts `v` under `key` (the caller has already checked absence)
    /// and returns the arena-backed slice.
    fn insert(&mut self, key: u64, v: &[f64]) -> &[f64] {
        debug_assert!(self.span_of(key).is_none(), "flat-table double insert");
        self.grow_if_needed();
        let off = self.arena.len();
        debug_assert!(off + v.len() <= u32::MAX as usize, "arena span overflow");
        self.arena.extend_from_slice(v);
        let span = (off as u32, v.len() as u32);
        let mask = self.keys.len() - 1;
        let mut i = home_slot(key, self.shift);
        while self.keys[i] != EMPTY_KEY {
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.spans[i] = span;
        self.len += 1;
        self.slice(span)
    }

    /// Doubles the slot array whenever the next insert would cross the
    /// ½ load factor (allocating the first 64 slots lazily).
    fn grow_if_needed(&mut self) {
        if (self.len + 1) * 2 <= self.keys.len() {
            return;
        }
        let new_cap = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_spans = std::mem::replace(&mut self.spans, vec![(0, 0); new_cap]);
        self.shift = 64 - new_cap.trailing_zeros();
        let mask = new_cap - 1;
        for (k, s) in old_keys.into_iter().zip(old_spans) {
            if k == EMPTY_KEY {
                continue;
            }
            let mut i = home_slot(k, self.shift);
            while self.keys[i] != EMPTY_KEY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.spans[i] = s;
        }
    }

    /// Whole-generation flush: every key slot is reset and the arena is
    /// truncated; capacity is retained for the next generation.
    fn clear(&mut self) {
        self.keys.fill(EMPTY_KEY);
        self.arena.clear();
        self.len = 0;
    }

    #[inline]
    fn entries(&self) -> usize {
        self.len
    }

    /// Footprint: `capacity × slot size` (8-byte key + 8-byte span per
    /// slot) plus the live arena payload.
    #[inline]
    fn bytes(&self) -> usize {
        self.keys.len() * 16 + self.arena.len() * std::mem::size_of::<f64>()
    }
}

/// Open-addressed flat table mapping packed keys to inline `f64` scalars
/// (the `iMinD(partition, node)` memo). Same layout rules as
/// [`FlatVecTable`] with the value stored directly in the slot.
#[derive(Debug, Default)]
struct FlatMinTable {
    keys: Vec<u64>,
    vals: Vec<f64>,
    len: usize,
    shift: u32,
}

impl FlatMinTable {
    #[inline]
    fn get(&self, key: u64) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = home_slot(key, self.shift);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64, v: f64) {
        debug_assert!(self.get(key).is_none(), "flat-table double insert");
        if (self.len + 1) * 2 > self.keys.len() {
            let new_cap = (self.keys.len() * 2).max(64);
            let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
            let old_vals = std::mem::replace(&mut self.vals, vec![0.0; new_cap]);
            self.shift = 64 - new_cap.trailing_zeros();
            let mask = new_cap - 1;
            for (k, val) in old_keys.into_iter().zip(old_vals) {
                if k == EMPTY_KEY {
                    continue;
                }
                let mut i = home_slot(k, self.shift);
                while self.keys[i] != EMPTY_KEY {
                    i = (i + 1) & mask;
                }
                self.keys[i] = k;
                self.vals[i] = val;
            }
        }
        let mask = self.keys.len() - 1;
        let mut i = home_slot(key, self.shift);
        while self.keys[i] != EMPTY_KEY {
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.vals[i] = v;
        self.len += 1;
    }

    fn clear(&mut self) {
        self.keys.fill(EMPTY_KEY);
        self.len = 0;
    }

    #[inline]
    fn entries(&self) -> usize {
        self.len
    }

    /// Footprint: `capacity × slot size` (8-byte key + 8-byte value).
    #[inline]
    fn bytes(&self) -> usize {
        self.keys.len() * 16
    }
}

/// Snapshot of a cache's counters (cumulative since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DistCacheStats {
    /// Lookups answered from a cached entry (warm or local tier).
    pub hits: u64,
    /// Lookups that had to compute the kernel.
    pub misses: u64,
    /// Whole-generation flushes of the local tier.
    pub evictions: u64,
    /// Current local-tier entry count (the warm tier is accounted once,
    /// by the tree that owns it, not per consumer).
    pub entries: usize,
    /// Local-tier footprint: slot capacity × slot size + arena payload.
    pub bytes: usize,
}

/// Default bound on the mutable tier's entry count.
///
/// Sized so the serving-shaped streams on the largest named venue (MZB:
/// ~1.3k partitions, working sets of a few hundred thousand memo entries)
/// stop thrashing through whole-generation flushes; slots are 16 bytes and
/// allocated lazily, so small queries never pay for the headroom.
pub const DEFAULT_CACHE_ENTRIES: usize = 1 << 19;

/// The mutable cache tier: a bounded memo table over
/// `door_dists_to_partition` vectors and `iMinD(partition, node)` scalars,
/// backed by the tree's own [`WarmTier`](crate::WarmTier) when it has one.
///
/// When the entry bound is reached the whole local generation is flushed —
/// a deterministic policy whose timing cannot affect answers, because every
/// entry is a pure function of the tree.
#[derive(Debug)]
pub struct DistCache {
    vecs: FlatVecTable,
    mins: FlatMinTable,
    max_entries: usize,
    enabled: bool,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Recompute / warm-gather buffer for values not retained locally.
    scratch: Vec<f64>,
    /// The misses of the current sibling batch, in lookup order, and their
    /// values from one kernel call.
    batch_parts: Vec<PartitionId>,
    batch_nodes: Vec<NodeId>,
    batch_vals: Vec<f64>,
}

impl Default for DistCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_ENTRIES)
    }
}

impl DistCache {
    /// An enabled cache bounded to `max_entries` local entries
    /// (vectors + scalars combined). A bound of 0 behaves like 1.
    pub fn new(max_entries: usize) -> Self {
        Self {
            vecs: FlatVecTable::default(),
            mins: FlatMinTable::default(),
            max_entries: max_entries.max(1),
            enabled: true,
            hits: 0,
            misses: 0,
            evictions: 0,
            scratch: Vec::new(),
            batch_parts: Vec::new(),
            batch_nodes: Vec::new(),
            batch_vals: Vec::new(),
        }
    }

    /// A pass-through cache for ablation (`--no-dist-cache`): every lookup
    /// recomputes; no counters move.
    pub fn disabled() -> Self {
        let mut c = Self::new(1);
        c.enabled = false;
        c
    }

    /// Creates a cache honoring an on/off flag.
    pub fn with_enabled(enabled: bool) -> Self {
        if enabled {
            Self::default()
        } else {
            Self::disabled()
        }
    }

    /// Whether lookups memoize (false for the ablation pass-through).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The door-distance vector from each door of `p` to partition `q`
    /// (see [`VipTree::door_dists_to_partition`]), memoized.
    pub fn door_dists(&mut self, tree: &VipTree<'_>, p: PartitionId, q: PartitionId) -> &[f64] {
        self.door_dists_or(tree, p, q, None)
    }

    /// One lookup of the `(p, q)` door vector: a warm or local hit is
    /// counted as such, and a miss is counted, evicted for and inserted,
    /// with `pre` as its value when the caller computed it already (a
    /// sibling batch's) and the kernel run here otherwise.
    fn door_dists_or<'a>(
        &'a mut self,
        tree: &VipTree<'_>,
        p: PartitionId,
        q: PartitionId,
        pre: Option<&'a [f64]>,
    ) -> &'a [f64] {
        if !self.enabled {
            return pre.unwrap_or_else(|| {
                let _span = obs::span(Phase::CacheLookup);
                self.scratch = tree.door_dists_to_partition(p, q);
                &self.scratch
            });
        }
        if let Some(warm) = tree.warm_tier() {
            if warm.covers(q) {
                self.hits += 1;
                obs::counter_add(Counter::DistCacheHits, 1);
                warm.gather_into(tree.venue(), p, q, &mut self.scratch);
                return &self.scratch;
            }
        }
        let key = pack(p.raw(), q.raw());
        if let Some(span) = self.vecs.span_of(key) {
            self.hits += 1;
            obs::counter_add(Counter::DistCacheHits, 1);
            return self.vecs.slice(span);
        }
        self.misses += 1;
        obs::counter_add(Counter::DistCacheMisses, 1);
        self.maybe_evict();
        // The miss path is where the kernel actually runs (as is every
        // lookup with the cache off); hits are counted above but not timed
        // (a span per hit would dwarf the hit itself).
        let computed;
        let v = match pre {
            Some(v) => v,
            None => {
                let _span = obs::span(Phase::CacheLookup);
                computed = tree.door_dists_to_partition(p, q);
                &computed
            }
        };
        if ifls_fault::should_fail(ifls_fault::FaultPoint::CacheInsert) {
            panic!("injected fault: cache insert");
        }
        self.vecs.insert(key, v)
    }

    /// `iMinD(p, q)` through the cache — bit-identical to
    /// [`VipTree::min_dist_partition_to_partition`].
    pub fn min_dist_partition_to_partition(
        &mut self,
        tree: &VipTree<'_>,
        p: PartitionId,
        q: PartitionId,
    ) -> f64 {
        if p == q {
            return 0.0;
        }
        crate::kernels::min_fold(self.door_dists(tree, p, q))
    }

    /// `iMinD(p, n)` through the cache — bit-identical to
    /// [`VipTree::min_dist_partition_to_node`].
    pub fn min_dist_partition_to_node(
        &mut self,
        tree: &VipTree<'_>,
        p: PartitionId,
        n: NodeId,
    ) -> f64 {
        self.node_min_or(tree, p, n, None)
    }

    /// One lookup of `iMinD(p, n)`, as [`Self::door_dists_or`] is of a
    /// door vector.
    fn node_min_or(
        &mut self,
        tree: &VipTree<'_>,
        p: PartitionId,
        n: NodeId,
        pre: Option<f64>,
    ) -> f64 {
        let compute = || {
            pre.unwrap_or_else(|| {
                let _span = obs::span(Phase::CacheLookup);
                tree.min_dist_partition_to_node(p, n)
            })
        };
        if !self.enabled {
            return compute();
        }
        if let Some(warm) = tree.warm_tier() {
            if warm.has_node_mins() {
                self.hits += 1;
                obs::counter_add(Counter::DistCacheHits, 1);
                return warm.node_min(p, n);
            }
        }
        let key = pack(p.raw(), n.raw());
        if let Some(v) = self.mins.get(key) {
            self.hits += 1;
            obs::counter_add(Counter::DistCacheHits, 1);
            return v;
        }
        self.misses += 1;
        obs::counter_add(Counter::DistCacheMisses, 1);
        self.maybe_evict();
        let v = compute();
        self.mins.insert(key, v);
        v
    }

    /// `iMinD(p, q)` for every `q` of `qs`, in order, into `out`: the
    /// values, counters, inserts and evictions of calling
    /// [`Self::min_dist_partition_to_partition`] once per `q` in that
    /// order. The door vectors that would miss are computed first, in one
    /// sibling batch ([`VipTree::door_dists_to_partitions`]) under one
    /// span; a vector that a mid-batch eviction turns from a hit into a
    /// miss is recomputed per pair, to the same bits.
    pub fn min_dists_partition_to_partitions(
        &mut self,
        tree: &VipTree<'_>,
        p: PartitionId,
        qs: &[PartitionId],
        out: &mut Vec<f64>,
    ) {
        let warm = tree.warm_tier();
        self.batch_parts.clear();
        self.batch_parts.extend(qs.iter().copied().filter(|&q| {
            q != p
                && !(self.enabled
                    && (warm.is_some_and(|w| w.covers(q))
                        || self.vecs.span_of(pack(p.raw(), q.raw())).is_some()))
        }));
        let mut vals = std::mem::take(&mut self.batch_vals);
        if !self.batch_parts.is_empty() {
            let _span = obs::span(Phase::CacheLookup);
            tree.door_dists_to_partitions(p, &self.batch_parts, &mut vals);
        }
        let n = tree.venue().partition(p).doors().len();
        let mut k = 0;
        out.clear();
        for &q in qs {
            if q == p {
                out.push(0.0);
                continue;
            }
            let pre = (self.batch_parts.get(k) == Some(&q)).then(|| {
                k += 1;
                &vals[(k - 1) * n..k * n]
            });
            out.push(crate::kernels::min_fold(
                self.door_dists_or(tree, p, q, pre),
            ));
        }
        self.batch_vals = vals;
    }

    /// `iMinD(p, n)` for every `n` of `ns`, in order, into `out`: the
    /// values, counters, inserts and evictions of calling
    /// [`Self::min_dist_partition_to_node`] once per `n` in that order,
    /// with the misses computed first in one sibling batch
    /// ([`VipTree::min_dists_partition_to_nodes`]), as
    /// [`Self::min_dists_partition_to_partitions`] does.
    pub fn min_dists_partition_to_nodes(
        &mut self,
        tree: &VipTree<'_>,
        p: PartitionId,
        ns: &[NodeId],
        out: &mut Vec<f64>,
    ) {
        let warm = tree.warm_tier().is_some_and(|w| w.has_node_mins());
        self.batch_nodes.clear();
        self.batch_nodes.extend(ns.iter().copied().filter(|&n| {
            !(self.enabled && (warm || self.mins.get(pack(p.raw(), n.raw())).is_some()))
        }));
        if !self.batch_nodes.is_empty() {
            let _span = obs::span(Phase::CacheLookup);
            tree.min_dists_partition_to_nodes(p, &self.batch_nodes, &mut self.batch_vals);
        }
        let mut k = 0;
        out.clear();
        for &n in ns {
            let pre = (self.batch_nodes.get(k) == Some(&n)).then(|| {
                k += 1;
                self.batch_vals[k - 1]
            });
            out.push(self.node_min_or(tree, p, n, pre));
        }
    }

    /// Exact point-to-partition distance through the cache —
    /// bit-identical to [`VipTree::dist_point_to_partition`].
    pub fn dist_point_to_partition(
        &mut self,
        tree: &VipTree<'_>,
        a: &IndoorPoint,
        q: PartitionId,
    ) -> f64 {
        if a.partition == q {
            return 0.0;
        }
        let dd = self.door_dists(tree, a.partition, q);
        tree.dist_point_to_partition_via(a, dd)
    }

    fn maybe_evict(&mut self) {
        if self.vecs.entries() + self.mins.entries() >= self.max_entries {
            self.vecs.clear();
            self.mins.clear();
            self.evictions += 1;
            obs::counter_add(Counter::DistCacheEvictions, 1);
        }
    }

    /// Drops every local entry (the warm tier is untouched).
    pub fn clear(&mut self) {
        self.vecs.clear();
        self.mins.clear();
    }

    /// Cumulative counters and the current local-tier footprint.
    pub fn stats(&self) -> DistCacheStats {
        DistCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.vecs.entries() + self.mins.entries(),
            bytes: self.vecs.bytes() + self.mins.bytes(),
        }
    }
}

/// Combines precomputed client door legs with a shared door-distance
/// vector: `min_j legs[j] + door_dists[j]`. With `legs[j] =`
/// `point_to_door(client, doors[j])` in the client partition's door order,
/// this equals [`VipTree::dist_point_to_partition_via`] bit-for-bit.
#[inline]
pub fn combine_legs(legs: &[f64], door_dists: &[f64]) -> f64 {
    debug_assert_eq!(legs.len(), door_dists.len());
    crate::kernels::min_add2(legs, door_dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VipTreeConfig;
    use ifls_venues::GridVenueSpec;

    fn fixture() -> ifls_indoor::Venue {
        GridVenueSpec::new("t", 2, 24).build()
    }

    #[test]
    fn cached_vectors_are_bitwise_identical_to_recomputation() {
        let venue = fixture();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let mut cache = DistCache::default();
        for p in venue.partition_ids() {
            for q in venue.partition_ids().step_by(3) {
                if p == q {
                    continue;
                }
                let direct = tree.door_dists_to_partition(p, q);
                // First lookup computes, second must hit.
                let cached: Vec<f64> = cache.door_dists(&tree, p, q).to_vec();
                let again: Vec<f64> = cache.door_dists(&tree, p, q).to_vec();
                assert_eq!(direct.len(), cached.len());
                for ((a, b), c) in direct.iter().zip(&cached).zip(&again) {
                    assert_eq!(a.to_bits(), b.to_bits());
                    assert_eq!(a.to_bits(), c.to_bits());
                }
            }
        }
        let s = cache.stats();
        assert_eq!(s.hits, s.misses, "every pair looked up exactly twice");
        assert!(s.bytes > 0);
    }

    #[test]
    fn min_dists_match_tree_bitwise() {
        let venue = fixture();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let mut cache = DistCache::default();
        for p in venue.partition_ids().step_by(2) {
            for q in venue.partition_ids().step_by(3) {
                let a = tree.min_dist_partition_to_partition(p, q);
                let b = cache.min_dist_partition_to_partition(&tree, p, q);
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for n in tree.node_ids() {
                let a = tree.min_dist_partition_to_node(p, n);
                let b = cache.min_dist_partition_to_node(&tree, p, n);
                let c = cache.min_dist_partition_to_node(&tree, p, n);
                assert_eq!(a.to_bits(), b.to_bits());
                assert_eq!(a.to_bits(), c.to_bits());
            }
        }
    }

    #[test]
    fn bounded_cache_flushes_whole_generations() {
        let venue = fixture();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let mut cache = DistCache::new(4);
        let parts: Vec<_> = venue.partition_ids().collect();
        let p = parts[0];
        // Fill past the bound several times over.
        for &q in parts.iter().skip(1).take(13) {
            cache.door_dists(&tree, p, q);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 13, "all distinct pairs computed once");
        assert!(s.evictions >= 2, "bound of 4 must flush repeatedly");
        assert!(s.entries <= 4, "entry count stays within the bound");
        // Values survive eviction churn bit-identically.
        let direct = tree.door_dists_to_partition(p, parts[1]);
        for (a, b) in direct.iter().zip(cache.door_dists(&tree, p, parts[1])) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Runs every expansion shape (a leaf's partitions, a node's children)
    /// for a spread of sources, each twice in a row, batched through
    /// `batched` and one lookup at a time through `single`, asserting
    /// equal bits and equal stats after every batch. Returns how many
    /// batches evicted after their first lookup.
    fn expand_both_ways(
        tree: &VipTree<'_>,
        batched: &mut DistCache,
        single: &mut DistCache,
    ) -> u32 {
        let venue = tree.venue();
        let mut keys = Vec::new();
        let mut mid_batch = 0;
        for p in venue.partition_ids().step_by(5) {
            for n in tree.node_ids().flat_map(|n| [n, n]) {
                let mut want = Vec::new();
                let mut evicted_late = false;
                let mut lookup = |single: &mut DistCache, f: &dyn Fn(&mut DistCache) -> f64| {
                    let before = single.stats().evictions;
                    want.push(f(single));
                    evicted_late |= want.len() > 1 && single.stats().evictions > before;
                };
                match tree.children(n) {
                    crate::NodeChildren::Partitions(parts) => {
                        let qs: Vec<PartitionId> =
                            parts.iter().copied().filter(|&q| q != p).collect();
                        batched.min_dists_partition_to_partitions(tree, p, &qs, &mut keys);
                        for &q in &qs {
                            lookup(single, &|c| c.min_dist_partition_to_partition(tree, p, q));
                        }
                    }
                    crate::NodeChildren::Nodes(children) => {
                        batched.min_dists_partition_to_nodes(tree, p, children, &mut keys);
                        for &c in children {
                            lookup(single, &|s| s.min_dist_partition_to_node(tree, p, c));
                        }
                    }
                }
                assert_eq!(keys.len(), want.len());
                for (g, w) in keys.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "source {p}, expansion of {n}");
                }
                assert_eq!(
                    batched.stats(),
                    single.stats(),
                    "source {p}, expansion of {n}"
                );
                mid_batch += u32::from(evicted_late);
            }
        }
        mid_batch
    }

    #[test]
    fn batched_expansions_keep_the_one_at_a_time_protocol() {
        let venue = fixture();
        let mut tree = VipTree::build(&venue, VipTreeConfig::default());
        for bound in [1, 2, 3, 5, 64, DEFAULT_CACHE_ENTRIES] {
            let (mut batched, mut single) = (DistCache::new(bound), DistCache::new(bound));
            let mid_batch = expand_both_ways(&tree, &mut batched, &mut single);
            let s = batched.stats();
            assert!(s.misses > 0, "bound {bound}: {s:?}");
            if bound <= 5 {
                assert!(mid_batch > 0, "bound {bound} never evicted inside a batch");
            }
            if bound == DEFAULT_CACHE_ENTRIES {
                assert!(s.hits > 0 && s.evictions == 0, "{s:?}");
            }
        }
        let (mut batched, mut single) = (DistCache::disabled(), DistCache::disabled());
        expand_both_ways(&tree, &mut batched, &mut single);
        assert_eq!(batched.stats(), DistCacheStats::default());
        // A budget-truncated warm tier: covered columns hit, the rest and
        // the node bounds (dropped with the columns) go through the table.
        let budget = venue.num_partitions() * 4 + 5 * venue.num_doors() * 8;
        tree.set_warm_tier(Some(tree.build_warm_tier(budget, 1)));
        for bound in [3, DEFAULT_CACHE_ENTRIES] {
            let (mut batched, mut single) = (DistCache::new(bound), DistCache::new(bound));
            expand_both_ways(&tree, &mut batched, &mut single);
        }
    }

    #[test]
    fn disabled_cache_recomputes_and_counts_nothing() {
        let venue = fixture();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let mut cache = DistCache::disabled();
        let parts: Vec<_> = venue.partition_ids().collect();
        for _ in 0..3 {
            let v = cache.door_dists(&tree, parts[0], parts[5]).to_vec();
            let direct = tree.door_dists_to_partition(parts[0], parts[5]);
            assert_eq!(v.len(), direct.len());
            for (a, b) in v.iter().zip(&direct) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        assert!(!cache.is_enabled());
    }

    #[test]
    fn combine_legs_matches_point_via() {
        let venue = fixture();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        for p in venue.partitions().iter().step_by(2) {
            let a = ifls_indoor::IndoorPoint::new(p.id(), p.center());
            let legs: Vec<f64> = p
                .doors()
                .iter()
                .map(|&d| venue.point_to_door(&a, d))
                .collect();
            for q in venue.partition_ids().step_by(3) {
                if q == p.id() {
                    continue;
                }
                let dd = tree.door_dists_to_partition(p.id(), q);
                let via = tree.dist_point_to_partition_via(&a, &dd);
                let combined = combine_legs(&legs, &dd);
                assert_eq!(via.to_bits(), combined.to_bits());
            }
        }
    }

    #[test]
    fn flat_table_probe_survives_growth_and_clear() {
        let mut t = FlatVecTable::default();
        assert_eq!(t.bytes(), 0, "no allocation before the first insert");
        // Insert enough keys to force several doublings, with adversarial
        // clustered keys (sequential packs hash near each other).
        let n = 500u32;
        for i in 0..n {
            let key = pack(i / 7, i);
            let payload = [i as f64, (i * 2) as f64 + 0.5];
            t.insert(key, &payload);
        }
        assert_eq!(t.entries(), n as usize);
        assert!(t.keys.len().is_power_of_two());
        assert!(t.entries() * 2 <= t.keys.len(), "load factor stays ≤ ½");
        for i in 0..n {
            let got = t.span_of(pack(i / 7, i)).map(|s| t.slice(s).to_vec());
            assert_eq!(got, Some(vec![i as f64, (i * 2) as f64 + 0.5]));
        }
        assert!(t.span_of(pack(9999, 1)).is_none());
        let cap = t.keys.len();
        t.clear();
        assert_eq!(t.entries(), 0);
        assert_eq!(t.keys.len(), cap, "clear retains capacity");
        assert!(t.span_of(pack(0, 0)).is_none());
        // The min table follows the same rules.
        let mut m = FlatMinTable::default();
        for i in 0..n {
            m.insert(pack(i, i / 3), i as f64);
        }
        for i in 0..n {
            assert_eq!(m.get(pack(i, i / 3)), Some(i as f64));
        }
        assert_eq!(m.get(pack(n, 0)), None);
    }
}
