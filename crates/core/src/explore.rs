//! Shared bottom-up VIP-tree exploration machinery (Algorithm 3's queue),
//! used by the MinMax solver and the §7 extensions.
//!
//! The traversal maintains one global priority queue of
//! `(source partition, indoor entity)` pairs keyed by `iMinD`. Per source,
//! the expansion starts at the source's leaf and walks parents and
//! children, never enqueueing an entity twice for the same source. Because
//! every pushed key is at least its parent entry's key (ancestors of the
//! source have key 0 and are expanded first), dequeued keys are globally
//! non-decreasing — which makes the last dequeued key a valid global
//! distance bound `Gd` (§5.2).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use ifls_indoor::PartitionId;
use ifls_viptree::cache::combine_legs;
use ifls_viptree::{DistCache, NodeChildren, NodeId, VipTree};

use crate::stats::MemoryMeter;

/// An entity in the traversal queue: a VIP-tree node or a partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Entity {
    /// A VIP-tree node.
    Node(NodeId),
    /// An indoor partition (facility or not).
    Part(PartitionId),
}

/// Queue entry: `(source partition, entity, iMinD)` ordered by `iMinD`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct QEntry {
    /// `iMinD(source, entity)` — the global distance once dequeued.
    pub key: f64,
    /// The client partition this entry searches for.
    pub source: PartitionId,
    /// The entity to retrieve or expand.
    pub entity: Entity,
}

impl QEntry {
    fn tiebreak(&self) -> (u32, u8, u32) {
        let (t, id) = match self.entity {
            Entity::Part(p) => (0u8, p.raw()),
            Entity::Node(n) => (1u8, n.raw()),
        };
        (self.source.raw(), t, id)
    }
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behavior on BinaryHeap.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.tiebreak().cmp(&self.tiebreak()))
    }
}

/// A retrieval event: facility `facility` entered client `client`'s list at
/// distance `dist`. Min-ordered by distance.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Exact indoor distance of the retrieval.
    pub dist: f64,
    /// Client index.
    pub client: u32,
    /// The retrieved facility partition.
    pub facility: PartitionId,
}

impl Event {
    /// The retrieval of `facility` for `client` at distance `dist`.
    #[inline]
    pub fn new(client: u32, facility: PartitionId, dist: f64) -> Self {
        Self {
            dist,
            client,
            facility,
        }
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist.total_cmp(&self.dist).then_with(|| {
            (other.client, other.facility.raw()).cmp(&(self.client, self.facility.raw()))
        })
    }
}

/// Approximate byte sizes used by the structural memory meter.
pub(crate) const Q_ENTRY_BYTES: isize = std::mem::size_of::<QEntry>() as isize;
pub(crate) const EVENT_BYTES: isize = std::mem::size_of::<Event>() as isize;
pub(crate) const VISITED_BYTES: isize = 16;

/// Pops the closest event of `heap` if it lies within `bound`, taking its
/// bytes off `meter`.
#[inline]
pub(crate) fn pop_within(
    heap: &mut BinaryHeap<Event>,
    bound: f64,
    meter: &mut MemoryMeter,
) -> Option<Event> {
    if heap.peek()?.dist > bound {
        return None;
    }
    meter.add(-EVENT_BYTES);
    heap.pop()
}

/// Pending retrieval events split by facility kind and replayed in one
/// distance order (existing facilities first on ties): the event stream
/// MinMax's `increaseDist` and MinDist's decided totals consume.
#[derive(Default)]
pub(crate) struct Events {
    exist: BinaryHeap<Event>,
    cand: BinaryHeap<Event>,
}

impl Events {
    /// Queues one retrieval of an existing facility (`existing`) or of a
    /// candidate.
    #[inline]
    pub fn push(&mut self, e: Event, existing: bool) {
        if existing {
            self.exist.push(e);
        } else {
            self.cand.push(e);
        }
    }

    /// Pops the closest pending event within `bound`, flagged `true` when
    /// it retrieved an existing facility.
    #[inline]
    pub fn pop_within(&mut self, bound: f64, meter: &mut MemoryMeter) -> Option<(Event, bool)> {
        let existing = match (self.exist.peek(), self.cand.peek()) {
            (Some(a), Some(b)) => a.dist <= b.dist,
            (a, _) => a.is_some(),
        };
        let heap = if existing {
            &mut self.exist
        } else {
            &mut self.cand
        };
        pop_within(heap, bound, meter).map(|e| (e, existing))
    }

    /// Smallest pending event distance strictly above `d`, if any.
    #[inline]
    pub fn next_above(&self, d: f64) -> Option<f64> {
        [self.cand.peek(), self.exist.peek()]
            .into_iter()
            .flatten()
            .map(|e| e.dist)
            .filter(|&x| x > d)
            .fold(None, |acc: Option<f64>, x| {
                Some(acc.map_or(x, |a| a.min(x)))
            })
    }
}

/// The shared queue + visited-set machinery.
pub(crate) struct Explorer<'t, 'v> {
    tree: &'t VipTree<'v>,
    queue: BinaryHeap<QEntry>,
    visited: HashSet<(PartitionId, Entity)>,
    /// `iMinD` evaluations performed by `enqueue`.
    pub dist_computations: u64,
}

impl<'t, 'v> Explorer<'t, 'v> {
    /// Creates an empty explorer.
    pub fn new(tree: &'t VipTree<'v>) -> Self {
        Self {
            tree,
            queue: BinaryHeap::new(),
            visited: HashSet::new(),
            dist_computations: 0,
        }
    }

    /// Seeds a source partition: enqueues its leaf node at key 0
    /// (Algorithm 3 lines 3–6).
    pub fn seed_source(&mut self, p: PartitionId, meter: &mut MemoryMeter) {
        let leaf = self.tree.leaf_of_partition(p);
        if self.visited.insert((p, Entity::Node(leaf))) {
            self.queue.push(QEntry {
                key: 0.0,
                source: p,
                entity: Entity::Node(leaf),
            });
            meter.add(Q_ENTRY_BYTES + VISITED_BYTES);
        }
    }

    /// Pops the globally closest pending entry.
    #[inline]
    pub fn pop(&mut self, meter: &mut MemoryMeter) -> Option<QEntry> {
        let e = self.queue.pop()?;
        meter.add(-Q_ENTRY_BYTES);
        Some(e)
    }

    /// Expands a dequeued non-facility entity for its source: the parent
    /// and all children not equal to the source (Algorithm 3 lines 14–22).
    /// `iMinD` keys are computed through `cache`.
    pub fn expand(
        &mut self,
        source: PartitionId,
        entity: Entity,
        cache: &mut DistCache,
        meter: &mut MemoryMeter,
    ) {
        match entity {
            Entity::Part(part) => {
                let leaf = self.tree.leaf_of_partition(part);
                self.enqueue(source, Entity::Node(leaf), cache, meter);
            }
            Entity::Node(node) => {
                if let Some(parent) = self.tree.parent(node) {
                    self.enqueue(source, Entity::Node(parent), cache, meter);
                }
                match self.tree.children(node) {
                    NodeChildren::Partitions(parts) => {
                        for &ch in parts {
                            if ch != source {
                                self.enqueue(source, Entity::Part(ch), cache, meter);
                            }
                        }
                    }
                    NodeChildren::Nodes(ns) => {
                        for &ch in ns {
                            self.enqueue(source, Entity::Node(ch), cache, meter);
                        }
                    }
                }
            }
        }
    }

    /// Enqueues `(source, entity)` with its `iMinD` key unless already
    /// enqueued for this source.
    fn enqueue(
        &mut self,
        source: PartitionId,
        entity: Entity,
        cache: &mut DistCache,
        meter: &mut MemoryMeter,
    ) {
        if !self.visited.insert((source, entity)) {
            return;
        }
        self.dist_computations += 1;
        let key = match entity {
            Entity::Node(n) => cache.min_dist_partition_to_node(self.tree, source, n),
            Entity::Part(p) => cache.min_dist_partition_to_partition(self.tree, source, p),
        };
        self.queue.push(QEntry {
            key,
            source,
            entity,
        });
        meter.add(Q_ENTRY_BYTES + VISITED_BYTES);
    }
}

/// Per-client door legs, precomputed once per query: `legs[c][j]` is the
/// straight-line distance from client `c` to the `j`-th door of its
/// partition (the client→door half of every grouped distance combine).
pub(crate) struct ClientLegs {
    legs: Vec<Vec<f64>>,
}

impl ClientLegs {
    /// Computes every client's door legs.
    pub fn build(tree: &VipTree<'_>, clients: &[ifls_indoor::IndoorPoint]) -> Self {
        let venue = tree.venue();
        let legs = clients
            .iter()
            .map(|c| {
                venue
                    .partition(c.partition)
                    .doors()
                    .iter()
                    .map(|&d| venue.point_to_door(c, d))
                    .collect()
            })
            .collect();
        Self { legs }
    }

    /// The door legs of client `c`, in its partition's door order.
    #[inline]
    pub fn get(&self, c: usize) -> &[f64] {
        &self.legs[c]
    }

    /// Approximate heap footprint, for the structural memory meter.
    pub fn approx_bytes(&self) -> usize {
        self.legs
            .iter()
            .map(|l| l.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Vec<f64>>())
            .sum()
    }
}

/// Computes the exact distances from the given clients (all located in
/// `source`) to facility partition `part`, grouped per §5 when `group` is
/// set: the per-door distance vector is fetched once (through the cache)
/// and combined with each client's precomputed door legs.
///
/// Accounting: the shared vector counts as **one** distance computation;
/// each per-client combine counts as one `point_via` lookup. Ungrouped,
/// every client costs one full distance computation. This keeps grouped
/// and ungrouped `dist_computations` directly comparable.
#[allow(clippy::too_many_arguments)]
pub(crate) fn retrieval_dists(
    tree: &VipTree<'_>,
    clients: &[ifls_indoor::IndoorPoint],
    legs: &ClientLegs,
    ids: &[u32],
    source: PartitionId,
    part: PartitionId,
    group: bool,
    cache: &mut DistCache,
    dist_computations: &mut u64,
    point_via_lookups: &mut u64,
) -> Vec<(u32, f64)> {
    if ids.is_empty() {
        return Vec::new();
    }
    if group {
        *dist_computations += 1;
        let shared = cache.door_dists(tree, source, part);
        ids.iter()
            .map(|&c| {
                *point_via_lookups += 1;
                let d = if clients[c as usize].partition == part {
                    0.0
                } else {
                    combine_legs(legs.get(c as usize), shared)
                };
                (c, d)
            })
            .collect()
    } else {
        ids.iter()
            .map(|&c| {
                *dist_computations += 1;
                (
                    c,
                    cache.dist_point_to_partition(tree, &clients[c as usize], part),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifls_venues::GridVenueSpec;
    use ifls_viptree::VipTreeConfig;

    #[test]
    fn dequeue_keys_are_nondecreasing_and_cover_all_partitions() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let mut meter = MemoryMeter::default();
        let mut cache = DistCache::default();
        let mut ex = Explorer::new(&tree);
        let src = venue.partitions()[4].id();
        ex.seed_source(src, &mut meter);
        let mut last = 0.0f64;
        let mut seen_parts = HashSet::new();
        while let Some(e) = ex.pop(&mut meter) {
            assert!(
                e.key >= last - 1e-12,
                "keys regressed: {} after {last}",
                e.key
            );
            last = e.key;
            match e.entity {
                Entity::Part(p) => {
                    seen_parts.insert(p);
                    ex.expand(e.source, e.entity, &mut cache, &mut meter);
                }
                Entity::Node(_) => ex.expand(e.source, e.entity, &mut cache, &mut meter),
            }
        }
        // Every partition except the source itself is eventually dequeued.
        assert_eq!(seen_parts.len(), venue.num_partitions() - 1);
        assert!(!seen_parts.contains(&src));
    }

    #[test]
    fn keys_are_valid_lower_bounds() {
        let venue = GridVenueSpec::new("t", 2, 20).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let mut meter = MemoryMeter::default();
        let mut cache = DistCache::default();
        let mut ex = Explorer::new(&tree);
        let src = venue.partitions()[0].id();
        ex.seed_source(src, &mut meter);
        while let Some(e) = ex.pop(&mut meter) {
            if let Entity::Part(p) = e.entity {
                let exact = tree.min_dist_partition_to_partition(src, p);
                assert!(
                    (e.key - exact).abs() < 1e-9,
                    "partition keys are exact iMinD"
                );
            }
            ex.expand(e.source, e.entity, &mut cache, &mut meter);
        }
    }
}
