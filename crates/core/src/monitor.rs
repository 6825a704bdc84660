//! Continuous IFLS for moving clients — the paper's stated future work
//! (§8: "In future, we plan to consider moving clients for IFLS queries").
//!
//! [`IflsMonitor`] maintains the MinMax answer under client arrivals and
//! departures (a move is a removal plus an insertion). The structure keeps,
//! per candidate, a multiset of the clients' capped contributions
//! `min(nn_e(c), iDist(c, n))`, a total order over the candidates' current
//! objectives, and a per-(partition, candidate) cache of the shared door
//! distance vectors so that clients moving within the same partitions cost
//! `O(|Fn|)` multiset updates rather than fresh indoor distance
//! computations.
//!
//! Cost model: `insert` is `O(|Fn| · log |C|)` plus one nearest-existing
//! search (amortizing the per-partition distance cache); `remove` is
//! `O(|Fn| · log |C|)`; `answer` is `O(1)`. Memory is `O(|C| · |Fn|)` —
//! the price of exact maintenance under deletions, appropriate for the
//! monitoring scenarios the paper motivates (§1: "dynamic crowd scenarios
//! … where the position of a new facility needs to be updated constantly").

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ifls_indoor::{IndoorPoint, PartitionId};
use ifls_viptree::{DistCache, FacilityIndex, IncrementalNn, VipTree};

/// Bound on the monitor's door-distance memo: venues stay well below this,
/// so in practice the cache never cycles, while a pathological churn
/// pattern still cannot grow it without limit.
const MONITOR_CACHE_ENTRIES: usize = 1 << 20;

/// Handle to a client registered with an [`IflsMonitor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(u64);

/// A per-candidate multiset of contribution values with an `O(log)` max.
#[derive(Clone, Debug, Default)]
struct Contributions {
    /// Value bits → multiplicity. Keys are non-negative finite `f64`s, so
    /// their IEEE bit patterns order like the numbers themselves.
    values: BTreeMap<u64, u32>,
}

impl Contributions {
    fn insert(&mut self, v: f64) {
        debug_assert!(v >= 0.0 && v.is_finite());
        *self.values.entry(v.to_bits()).or_insert(0) += 1;
    }

    fn remove(&mut self, v: f64) {
        let bits = v.to_bits();
        // Invariant: `remove` is only ever called with a value previously
        // passed to `insert` and not yet removed (the monitor stores each
        // client's current contribution and removes exactly that bit
        // pattern), so the multiset entry must exist.
        let count = self.values.get_mut(&bits).expect("value was inserted");
        *count -= 1;
        if *count == 0 {
            self.values.remove(&bits);
        }
    }

    /// Current maximum (0 when empty — no client constrains the candidate).
    fn max(&self) -> f64 {
        self.values
            .last_key_value()
            .map_or(0.0, |(&bits, _)| f64::from_bits(bits))
    }
}

struct ClientEntry {
    point: IndoorPoint,
    /// Contribution per candidate ordinal, in `candidates` order.
    contribs: Vec<f64>,
}

/// Incrementally maintained MinMax IFLS answer over a dynamic client set.
pub struct IflsMonitor<'t, 'v> {
    tree: &'t VipTree<'v>,
    existing: Vec<PartitionId>,
    candidates: Vec<PartitionId>,
    fe_index: FacilityIndex,
    /// Door-distance memo per (client partition, facility), lazily filled —
    /// the §5 grouping idea carried over to monitoring, served by the same
    /// [`DistCache`] kernel the batch solvers use.
    cache: DistCache,
    clients: HashMap<ClientId, ClientEntry>,
    next_id: u64,
    /// Per-candidate contribution multisets.
    contribs: Vec<Contributions>,
    /// (objective bits, candidate ordinal), ordered: the first entry is the
    /// current answer.
    order: BTreeSet<(u64, u32)>,
}

impl<'t, 'v> IflsMonitor<'t, 'v> {
    /// Creates a monitor for fixed facility sets (candidates must be
    /// non-empty; duplicates are removed).
    pub fn new(
        tree: &'t VipTree<'v>,
        existing: impl IntoIterator<Item = PartitionId>,
        candidates: impl IntoIterator<Item = PartitionId>,
    ) -> Self {
        let existing: Vec<PartitionId> = existing.into_iter().collect();
        let mut candidates: Vec<PartitionId> = candidates.into_iter().collect();
        candidates.sort_unstable();
        candidates.dedup();
        assert!(
            !candidates.is_empty(),
            "a monitor needs candidate locations"
        );
        let fe_index = FacilityIndex::build(tree, existing.iter().copied());
        let contribs = vec![Contributions::default(); candidates.len()];
        let order = (0..candidates.len() as u32)
            .map(|j| (0.0f64.to_bits(), j))
            .collect();
        Self {
            tree,
            existing,
            candidates,
            fe_index,
            cache: DistCache::new(MONITOR_CACHE_ENTRIES),
            clients: HashMap::new(),
            next_id: 0,
            contribs,
            order,
        }
    }

    /// Number of registered clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// The candidate set, sorted.
    pub fn candidates(&self) -> &[PartitionId] {
        &self.candidates
    }

    /// The current answer: the candidate minimizing the maximum capped
    /// client contribution, with that objective value. With no clients the
    /// objective is 0 and the smallest candidate id is returned.
    pub fn answer(&self) -> (PartitionId, f64) {
        // Invariant: `new` asserts a non-empty candidate set and `order`
        // always holds one entry per candidate, so a first entry exists.
        let &(bits, ordinal) = self.order.first().expect("candidates non-empty");
        (self.candidates[ordinal as usize], f64::from_bits(bits))
    }

    /// Combines the (cached) shared door distances from `point`'s
    /// partition to candidate `to` with the point's door legs.
    fn cached_dist(&mut self, point: &IndoorPoint, to: PartitionId) -> f64 {
        let tree = self.tree;
        let dists = self.cache.door_dists(tree, point.partition, to);
        tree.dist_point_to_partition_via(point, dists)
    }

    fn update_candidate(&mut self, ordinal: usize, f: impl FnOnce(&mut Contributions)) {
        let old = self.contribs[ordinal].max();
        f(&mut self.contribs[ordinal]);
        let new = self.contribs[ordinal].max();
        if old != new {
            self.order.remove(&(old.to_bits(), ordinal as u32));
            self.order.insert((new.to_bits(), ordinal as u32));
        }
    }

    /// Registers a client and returns its handle.
    pub fn insert(&mut self, point: IndoorPoint) -> ClientId {
        // Exact nearest-existing distance (∞ with no existing facilities,
        // which every finite candidate distance then undercuts).
        let nn_e = if self.existing.is_empty() {
            f64::INFINITY
        } else {
            IncrementalNn::new(self.tree, &self.fe_index, point)
                .next()
                .expect("non-empty index")
                .dist
        };
        let mut contribs = Vec::with_capacity(self.candidates.len());
        for j in 0..self.candidates.len() {
            let n = self.candidates[j];
            let d = if point.partition == n {
                0.0
            } else {
                self.cached_dist(&point, n)
            };
            let v = d.min(nn_e);
            contribs.push(v);
            self.update_candidate(j, |c| c.insert(v));
        }
        let id = ClientId(self.next_id);
        self.next_id += 1;
        self.clients.insert(id, ClientEntry { point, contribs });
        id
    }

    /// Removes a client; returns its last position, or `None` for unknown
    /// (already removed) handles.
    pub fn remove(&mut self, id: ClientId) -> Option<IndoorPoint> {
        let entry = self.clients.remove(&id)?;
        for (j, v) in entry.contribs.iter().enumerate() {
            let v = *v;
            self.update_candidate(j, |c| c.remove(v));
        }
        Some(entry.point)
    }

    /// Moves a client: removal + insertion under a fresh handle.
    pub fn relocate(&mut self, id: ClientId, to: IndoorPoint) -> Option<ClientId> {
        self.remove(id)?;
        Some(self.insert(to))
    }

    /// Approximate memory footprint of the monitor's state, in bytes.
    pub fn approx_bytes(&self) -> usize {
        let per_client = self.candidates.len() * 8 + std::mem::size_of::<ClientEntry>();
        let multisets: usize = self
            .contribs
            .iter()
            .map(|c| c.values.len() * (8 + 4 + 32))
            .sum();
        let cache = self.cache.stats().bytes;
        self.clients.len() * per_client + multisets + cache + self.order.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use ifls_rng::StdRng;
    use ifls_venues::GridVenueSpec;
    use ifls_viptree::VipTreeConfig;
    use ifls_workloads::WorkloadBuilder;

    /// Recomputes the exact monitor objective from scratch.
    fn oracle(
        tree: &VipTree<'_>,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
    ) -> f64 {
        candidates
            .iter()
            .map(|&n| brute::evaluate_objective(tree, clients, existing, Some(n)))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn monitor_matches_oracle_under_random_churn() {
        let venue = GridVenueSpec::new("mon", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(60)
            .existing_uniform(4)
            .candidates_uniform(7)
            .seed(5)
            .build();
        let mut monitor = IflsMonitor::new(&tree, w.existing.clone(), w.candidates.clone());

        let mut rng = StdRng::seed_from_u64(99);
        let mut live: Vec<(ClientId, IndoorPoint)> = Vec::new();
        let mut pool = w.clients.clone();
        for step in 0..120 {
            let arrival = live.is_empty() || (rng.random_bool(0.6) && !pool.is_empty());
            if arrival {
                let p = pool.pop().unwrap_or_else(|| {
                    let part = venue.partitions()[rng.random_range(0..venue.num_partitions())].id();
                    IndoorPoint::new(part, venue.partition(part).center())
                });
                let id = monitor.insert(p);
                live.push((id, p));
            } else {
                let idx = rng.random_range(0..live.len());
                let (id, _) = live.swap_remove(idx);
                assert!(monitor.remove(id).is_some());
            }
            let points: Vec<IndoorPoint> = live.iter().map(|&(_, p)| p).collect();
            let (_, got) = monitor.answer();
            let want = if points.is_empty() {
                0.0
            } else {
                oracle(&tree, &points, &w.existing, &w.candidates)
            };
            assert!(
                (got - want).abs() < 1e-9,
                "step {step}: monitor {got} vs oracle {want} ({} clients)",
                points.len()
            );
        }
        assert_eq!(monitor.num_clients(), live.len());
    }

    #[test]
    fn monitor_agrees_with_batch_solver() {
        let venue = GridVenueSpec::new("mon", 2, 24).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(50)
            .existing_uniform(3)
            .candidates_uniform(6)
            .seed(8)
            .build();
        let mut monitor = IflsMonitor::new(&tree, w.existing.clone(), w.candidates.clone());
        for c in &w.clients {
            monitor.insert(*c);
        }
        let (_, objective) = monitor.answer();
        let batch = crate::EfficientIfls::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        // The batch solver reports the status-quo value when no candidate
        // improves it; the monitor always reports the best candidate's
        // objective. Both agree whenever an improvement exists.
        let batch_value = brute::evaluate_objective(&tree, &w.clients, &w.existing, batch.answer);
        assert!(objective <= batch_value + 1e-9);
        assert!((objective - batch_value).abs() < 1e-9 || batch.answer.is_none());
    }

    #[test]
    fn relocate_is_remove_plus_insert() {
        let venue = GridVenueSpec::new("mon", 1, 12).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(10)
            .existing_uniform(2)
            .candidates_uniform(3)
            .seed(2)
            .build();
        let mut monitor = IflsMonitor::new(&tree, w.existing.clone(), w.candidates.clone());
        let id = monitor.insert(w.clients[0]);
        let id2 = monitor.relocate(id, w.clients[1]).unwrap();
        assert_ne!(id, id2);
        assert_eq!(monitor.num_clients(), 1);
        // The old handle is dead.
        assert!(monitor.remove(id).is_none());
        assert!(monitor.remove(id2).is_some());
        assert_eq!(monitor.num_clients(), 0);
        let (_, objective) = monitor.answer();
        assert_eq!(objective, 0.0);
    }

    #[test]
    fn empty_existing_set_monitors_pure_one_center() {
        let venue = GridVenueSpec::new("mon", 1, 10).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(20)
            .existing_uniform(0)
            .candidates_uniform(4)
            .seed(6)
            .build();
        let mut monitor = IflsMonitor::new(&tree, [], w.candidates.clone());
        for c in &w.clients {
            monitor.insert(*c);
        }
        let (_, got) = monitor.answer();
        let want = oracle(&tree, &w.clients, &[], &w.candidates);
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "candidate locations")]
    fn monitor_rejects_empty_candidates() {
        let venue = GridVenueSpec::new("mon", 1, 8).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let _ = IflsMonitor::new(&tree, [], []);
    }

    #[test]
    fn memory_estimate_grows_with_clients() {
        let venue = GridVenueSpec::new("mon", 1, 12).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(30)
            .existing_uniform(2)
            .candidates_uniform(4)
            .seed(1)
            .build();
        let mut monitor = IflsMonitor::new(&tree, w.existing.clone(), w.candidates.clone());
        let before = monitor.approx_bytes();
        for c in &w.clients {
            monitor.insert(*c);
        }
        assert!(monitor.approx_bytes() > before);
    }
}
