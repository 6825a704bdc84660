//! The MinMax objective (§5): the paper's IFLS query, as a policy of the
//! shared search driver ([`crate::search`]).
//!
//! Once every client has some facility within `Gd` (`checkList`), the
//! lower bound `d_low` is raised step by step through the distinct
//! retrieved distances (`increaseDist`), covering clients (Lemma 5.1) and
//! checking for a *common candidate* covering all remaining clients
//! (`checkAnswer`). The first `d_low` admitting a common candidate is the
//! exact optimal objective value.

use std::collections::BinaryHeap;
use std::time::Instant;

use ifls_indoor::{IndoorPoint, PartitionId};
use ifls_obs::Phase;

use crate::api::{Algorithm, Objective};
use crate::brute;
use crate::budget::{record_degraded_obs, Budget, BudgetReason, Resolution};
use crate::explore::{pop_within, Event, Events, EVENT_BYTES};
use crate::outcome::MinMaxOutcome;
use crate::search::{EfficientConfig, EfficientSolver, Exit, ObjectivePolicy, Parts, Query};
use crate::stats::{MemoryMeter, QueryStats};
use crate::{BruteForce, ModifiedMinMax};

/// The efficient MinMax solver: [`EfficientSolver`] under the [`MinMax`]
/// policy.
pub type EfficientIfls<'t, 'v> = EfficientSolver<'t, 'v, MinMax>;

/// The MinMax objective policy (§5): minimize the maximum
/// client→nearest-facility distance; answers are [`MinMaxOutcome`]s.
///
/// When a budget fires mid-search the outcome carries the candidate
/// covering the most still-uncovered clients (ties to the lowest id), tagged
/// [`Resolution::Degraded`] with gap `objective − d_low`: `d_low` is the
/// search's running lower bound on the exact optimum, so the gap
/// upper-bounds the distance error.
pub struct MinMax {
    /// Per client: covered by an existing facility within the bound
    /// (Lemma 5.1 fired).
    covered: Vec<bool>,
    /// Per client: has *some* facility within `Gd` (checkList satisfied).
    satisfied: Vec<bool>,
    /// Per client: candidate partitions activated (within `d_low`).
    active_cands: Vec<Vec<PartitionId>>,
    /// Clients not yet covered.
    uncovered: usize,
    /// Clients not yet satisfied.
    unsatisfied: usize,
    /// Per candidate partition (dense by partition id): number of
    /// *uncovered* clients with the candidate within `d_low`.
    uncovered_have: Vec<u32>,
    /// Histogram of `uncovered_have` values: `count_by_value[v]` candidates
    /// currently have exactly `v` uncovered clients covered.
    count_by_value: Vec<u32>,
    /// Pending existing-facility coverage and candidate activation events.
    events: Events,
    /// Pending first-facility (any kind) events for checkList, ascending.
    first_events: BinaryHeap<Event>,
    /// Largest processed coverage distance: equals `max_c nn_e(c)` once
    /// every client is covered.
    last_cover_dist: f64,
    /// Candidates covered by every remaining client, in qualification
    /// order with the `d_low` at which they qualified (their exact
    /// objective value).
    qualified: Vec<(PartitionId, f64)>,
    /// Dense qualification flags per partition.
    is_qualified: Vec<bool>,
    /// Set once every client is covered (the paper's "C becomes empty").
    c_emptied: bool,
    clients_pruned: u64,
    /// The lower bound: no candidate qualified at or below it and no
    /// uncovered client has an existing facility within it, so the exact
    /// optimum (candidate or status quo) is ≥ this bound.
    d_low: f64,
    /// Whether every client has some facility within `Gd` (checkList).
    is_first: bool,
    /// Number of qualifiers to collect (top-k; 1 for a single answer).
    target: usize,
    /// Whether Lemma 5.1 pruning is counted (`EfficientConfig`).
    prune: bool,
}

impl MinMax {
    /// Processes checkList events: marks clients satisfied up to `gd`.
    fn check_list(&mut self, gd: f64, meter: &mut MemoryMeter) -> bool {
        while let Some(e) = pop_within(&mut self.first_events, gd, meter) {
            if !self.satisfied[e.client as usize] {
                self.satisfied[e.client as usize] = true;
                self.unsatisfied -= 1;
            }
        }
        self.unsatisfied == 0
    }

    /// Covers a client: it no longer needs a candidate.
    fn cover(&mut self, client: u32, dist: f64) {
        if self.covered[client as usize] {
            return;
        }
        self.covered[client as usize] = true;
        self.uncovered -= 1;
        if dist > self.last_cover_dist {
            self.last_cover_dist = dist;
        }
        for n in std::mem::take(&mut self.active_cands[client as usize]) {
            let v = self.uncovered_have[n.index()];
            self.count_by_value[v as usize] -= 1;
            self.count_by_value[v as usize - 1] += 1;
            self.uncovered_have[n.index()] = v - 1;
        }
        if !self.satisfied[client as usize] {
            // Coverage implies a facility within the bound.
            self.satisfied[client as usize] = true;
            self.unsatisfied -= 1;
        }
        if self.prune {
            self.clients_pruned += 1;
        }
    }

    /// Processes all pending events with distance ≤ `bound`.
    fn advance(&mut self, bound: f64, meter: &mut MemoryMeter) {
        while let Some((e, existing)) = self.events.pop_within(bound, meter) {
            if existing {
                self.cover(e.client, e.dist);
            } else if !self.covered[e.client as usize] {
                let v = self.uncovered_have[e.facility.index()];
                self.count_by_value[v as usize] -= 1;
                self.count_by_value[v as usize + 1] += 1;
                self.uncovered_have[e.facility.index()] = v + 1;
                self.active_cands[e.client as usize].push(e.facility);
                meter.add(4);
            }
        }
    }

    /// checkAnswer at `d_low`, generalized to top-k: collects candidates
    /// newly covered by every remaining client (their objective is exactly
    /// `d_low`) and reports whether the search can stop — either `target`
    /// qualifiers exist or no client is left to improve.
    ///
    /// A qualified candidate stays qualified: every later-covered client
    /// already had it within `d_low`, so its count tracks `uncovered`.
    fn update_answers(&mut self, candidates: &[PartitionId], d_low: f64) -> bool {
        if self.uncovered == 0 {
            self.c_emptied = true;
            return true;
        }
        if self.count_by_value[self.uncovered] as usize > self.qualified.len() {
            for &n in candidates {
                if !self.is_qualified[n.index()]
                    && self.uncovered_have[n.index()] as usize == self.uncovered
                {
                    self.is_qualified[n.index()] = true;
                    self.qualified.push((n, d_low));
                }
            }
        }
        self.qualified.len() >= self.target
    }

    /// Raises `d_low` through the pending event distances up to `bound`
    /// (`increaseDist`, Algorithm 3 lines 29–37), polling `budget` at each
    /// step when one is given. `Ok(true)` once `checkAnswer` stops the
    /// search.
    fn increase_dist(
        &mut self,
        candidates: &[PartitionId],
        bound: f64,
        budget: Option<(&Budget, u64)>,
        meter: &mut MemoryMeter,
    ) -> Result<bool, BudgetReason> {
        while let Some(next) = self.events.next_above(self.d_low) {
            if next > bound {
                break;
            }
            if let Some(reason) = budget.and_then(|(b, dists)| b.check(dists)) {
                return Err(reason);
            }
            self.d_low = next;
            self.advance(next, meter);
            if self.update_answers(candidates, next) {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl ObjectivePolicy for MinMax {
    type Outcome = MinMaxOutcome;
    const OBJECTIVE: Objective = Objective::MinMax;

    fn status_quo(q: &Query<'_>) -> f64 {
        brute::evaluate_objective(q.tree, q.clients, q.existing, None)
    }

    fn into_parts(o: MinMaxOutcome) -> Parts {
        (o.answer, o.objective, o.resolution, o.stats)
    }

    fn from_parts((answer, objective, resolution, stats): Parts) -> MinMaxOutcome {
        MinMaxOutcome {
            answer,
            objective,
            resolution,
            stats,
        }
    }

    fn new(
        q: &Query<'_>,
        config: &EfficientConfig,
        target: usize,
        meter: &mut MemoryMeter,
    ) -> Self {
        let (num_clients, num_partitions) = (q.clients.len(), q.tree.venue().num_partitions());
        let mut count_by_value = vec![0; num_clients + 1];
        count_by_value[0] = q.candidates.len() as u32;
        meter.add(
            (num_clients * (2 + std::mem::size_of::<Vec<PartitionId>>())
                + num_partitions * (4 + std::mem::size_of::<Vec<u32>>())
                + count_by_value.len() * 4) as isize,
        );
        // The driver's per-partition client lists.
        meter.add(4 * num_clients as isize);
        Self {
            covered: vec![false; num_clients],
            satisfied: vec![false; num_clients],
            active_cands: vec![Vec::new(); num_clients],
            uncovered: num_clients,
            unsatisfied: num_clients,
            uncovered_have: vec![0; num_partitions],
            count_by_value,
            events: Events::default(),
            first_events: BinaryHeap::new(),
            last_cover_dist: 0.0,
            qualified: Vec::new(),
            is_qualified: vec![false; num_partitions],
            c_emptied: false,
            clients_pruned: 0,
            d_low: 0.0,
            is_first: false,
            target,
            prune: config.prune_clients,
        }
    }

    #[inline]
    fn is_active(&self, client: u32) -> bool {
        !self.covered[client as usize]
    }

    #[inline]
    fn intake(&mut self, e: Event, existing: bool, meter: &mut MemoryMeter) {
        self.events.push(e, existing);
        self.first_events.push(e);
        meter.add(2 * EVENT_BYTES);
    }

    /// MinMax can answer at `d_low = 0` from in-facility clients alone.
    fn settle_intake(&mut self, q: &Query<'_>, meter: &mut MemoryMeter) -> bool {
        self.advance(0.0, meter);
        self.is_first = self.check_list(0.0, meter);
        self.is_first && self.update_answers(q.candidates, 0.0)
    }

    fn after_pop(&mut self, q: &Query<'_>, gd: f64, _pops: u64, meter: &mut MemoryMeter) -> bool {
        if !self.is_first {
            let _prune = ifls_obs::span(Phase::Prune);
            self.is_first = self.check_list(gd, meter);
        }
        if !self.is_first {
            // Lemma 5.1 pruning up to Gd (Algorithm 3 lines 26–28).
            let _prune = ifls_obs::span(Phase::Prune);
            self.advance(gd, meter);
            self.d_low = gd;
            return false;
        }
        let _refine = ifls_obs::span(Phase::Refine);
        self.increase_dist(q.candidates, gd, None, meter) == Ok(true)
    }

    /// Every `(source, facility)` pair has been retrieved: finish the
    /// `d_low` loop unbounded, polling the budget at each step.
    fn exhausted(
        &mut self,
        q: &Query<'_>,
        budget: &Budget,
        dists: u64,
        meter: &mut MemoryMeter,
    ) -> Option<BudgetReason> {
        let _refine = ifls_obs::span(Phase::Refine);
        self.increase_dist(q.candidates, f64::INFINITY, Some((budget, dists)), meter)
            .err()
    }

    fn clients_pruned(&self) -> u64 {
        self.clients_pruned
    }

    fn finish(self, q: &Query<'_>, stats: QueryStats, exit: Exit) -> MinMaxOutcome {
        if let Exit::Interrupted(reason) = exit {
            // Budget fired mid-search: report the candidate covering the
            // most still-uncovered clients (ties broken toward the lowest
            // id, so degraded answers are deterministic for a fixed trip
            // point) with its exact objective (one evaluation, outside the
            // timed loop) and a gap against the search's lower bound.
            let best_partial = q.candidates.iter().copied().max_by(|a, b| {
                self.uncovered_have[a.index()]
                    .cmp(&self.uncovered_have[b.index()])
                    .then_with(|| b.cmp(a))
            });
            let objective = brute::evaluate_objective(q.tree, q.clients, q.existing, best_partial);
            let resolution = Resolution::Degraded {
                gap: (objective - self.d_low).max(0.0),
                reason,
            };
            record_degraded_obs(&resolution);
            return MinMaxOutcome {
                answer: best_partial,
                objective,
                resolution,
                stats,
            };
        }
        let (answer, objective) = match self.qualified.first() {
            // Qualification order follows `d_low`, so every candidate tied
            // at the minimal objective sits in the leading run of entries
            // with bit-identical values. Break ties toward the lowest
            // `PartitionId` so serial and sharded runs agree exactly.
            Some(&(first, v)) => {
                let n = self
                    .qualified
                    .iter()
                    .take_while(|(_, q)| q.to_bits() == v.to_bits())
                    .map(|&(n, _)| n)
                    .min()
                    .unwrap_or(first);
                (Some(n), v)
            }
            None if self.c_emptied => (None, self.last_cover_dist),
            // Defensive: queue and events exhausted without an answer.
            None => (None, Self::status_quo(q)),
        };
        MinMaxOutcome {
            answer,
            objective,
            resolution: Resolution::Exact,
            stats,
        }
    }

    fn reference(q: &Query<'_>, algorithm: Algorithm, budget: &Budget) -> MinMaxOutcome {
        let (c, e, n) = (q.clients, q.existing, q.candidates);
        match algorithm {
            Algorithm::Baseline => ModifiedMinMax::new(q.tree).run_budgeted(c, e, n, budget),
            _ => BruteForce::new(q.tree).run_budgeted(c, e, n, budget),
        }
    }
}

impl<'t, 'v> EfficientSolver<'t, 'v, MinMax> {
    /// Top-k variant: the `k` candidates with the smallest objective
    /// values, best first, each paired with its exact objective.
    ///
    /// The `d_low` progression qualifies candidates in objective order, so
    /// collecting the first `k` qualifiers is exactly the top-k. Once no
    /// client can be improved anymore, every remaining candidate ties at
    /// the status-quo value and is appended in id order.
    pub fn run_topk(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
        k: usize,
    ) -> Vec<(PartitionId, f64)> {
        if k == 0 || candidates.is_empty() {
            return Vec::new();
        }
        if clients.is_empty() {
            let mut ids: Vec<PartitionId> = candidates.to_vec();
            ids.sort_unstable();
            ids.dedup();
            return ids.into_iter().take(k).map(|n| (n, 0.0)).collect();
        }
        // Budgets apply to single-answer runs; top-k rankings are always
        // computed to completion.
        let q = Query::new(self.tree, clients, existing, candidates);
        let mut cache = self.config.fresh_cache();
        let (st, _, _) = self.search(
            &q,
            k,
            &mut cache,
            &Budget::unlimited(),
            None,
            Instant::now(),
        );
        let mut out = st.qualified;
        if out.len() < k && st.c_emptied {
            let mut rest: Vec<PartitionId> = candidates
                .iter()
                .copied()
                .filter(|n| !out.iter().any(|(q, _)| q == n))
                .collect();
            rest.sort_unstable();
            rest.dedup();
            for n in rest {
                if out.len() >= k {
                    break;
                }
                out.push((n, st.last_cover_dist));
            }
        }
        // Qualification order already sorts by objective; normalize ties to
        // ascending id so the ranking is independent of input-slice order.
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use ifls_venues::{GridVenueSpec, RandomVenueSpec};
    use ifls_viptree::{VipTree, VipTreeConfig};
    use ifls_workloads::WorkloadBuilder;

    fn check_against_brute(
        venue: &ifls_indoor::Venue,
        seed: u64,
        clients: usize,
        fe: usize,
        fn_: usize,
        config: EfficientConfig,
    ) {
        let tree = VipTree::build(venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(venue)
            .clients_uniform(clients)
            .existing_uniform(fe)
            .candidates_uniform(fn_)
            .seed(seed)
            .build();
        let eff =
            EfficientIfls::with_config(&tree, config).run(&w.clients, &w.existing, &w.candidates);
        let brute = BruteForce::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        assert!(
            (eff.objective - brute.objective).abs() < 1e-9,
            "seed {seed}: efficient {} ({:?}) vs brute {} ({:?})",
            eff.objective,
            eff.answer,
            brute.objective,
            brute.answer
        );
        // The reported answer really achieves the reported objective.
        let eval = brute::evaluate_objective(&tree, &w.clients, &w.existing, eff.answer);
        assert!(
            (eff.objective - eval).abs() < 1e-9,
            "seed {seed}: internal {} vs evaluated {}",
            eff.objective,
            eval
        );
    }

    #[test]
    fn matches_brute_force_on_grid() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        for seed in 0..15 {
            check_against_brute(&venue, seed, 50, 4, 8, EfficientConfig::default());
        }
    }

    #[test]
    fn matches_brute_force_on_random_venues() {
        for seed in 0..8 {
            let venue = RandomVenueSpec {
                cells_x: 4,
                cells_y: 3,
                levels: 2,
                extra_door_prob: 0.35,
                cell_size: 9.0,
            }
            .build(seed);
            check_against_brute(&venue, seed + 100, 40, 3, 7, EfficientConfig::default());
        }
    }

    #[test]
    fn ablation_configs_do_not_change_answers() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        for (g, p) in [(false, true), (true, false), (false, false)] {
            for cache in [true, false] {
                for seed in 0..6 {
                    check_against_brute(
                        &venue,
                        seed,
                        40,
                        4,
                        8,
                        EfficientConfig {
                            group_clients: g,
                            prune_clients: p,
                            dist_cache: cache,
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn no_existing_facilities_is_one_center() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        for seed in 0..5 {
            check_against_brute(&venue, seed, 30, 0, 6, EfficientConfig::default());
        }
    }

    #[test]
    fn all_clients_inside_existing_facilities_means_no_answer() {
        let venue = GridVenueSpec::new("t", 1, 10).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let f = venue.partitions()[3].id();
        let clients = vec![ifls_indoor::IndoorPoint::new(f, venue.partition(f).center()); 5];
        let candidates = vec![venue.partitions()[5].id(), venue.partitions()[7].id()];
        let out = EfficientIfls::new(&tree).run(&clients, &[f], &candidates);
        assert_eq!(out.answer, None);
        assert_eq!(out.objective, 0.0);
        assert_eq!(out.stats.clients_pruned, 5);
    }

    #[test]
    fn degenerate_inputs() {
        let venue = GridVenueSpec::new("t", 1, 10).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(10)
            .existing_uniform(2)
            .candidates_uniform(3)
            .seed(0)
            .build();
        let out = EfficientIfls::new(&tree).run(&[], &w.existing, &w.candidates);
        assert_eq!(out.answer, None);
        assert_eq!(out.objective, 0.0);
        let out = EfficientIfls::new(&tree).run(&w.clients, &w.existing, &[]);
        assert_eq!(out.answer, None);
    }

    #[test]
    fn topk_matches_brute_force_objectives() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        for seed in 0..8 {
            let w = WorkloadBuilder::new(&venue)
                .clients_uniform(40)
                .existing_uniform(3)
                .candidates_uniform(9)
                .seed(seed)
                .build();
            for k in [1usize, 3, 9, 20] {
                let eff =
                    EfficientIfls::new(&tree).run_topk(&w.clients, &w.existing, &w.candidates, k);
                let brute =
                    BruteForce::new(&tree).run_topk(&w.clients, &w.existing, &w.candidates, k);
                assert_eq!(eff.len(), brute.len(), "seed {seed} k {k}");
                for (i, ((_, ev), (_, bv))) in eff.iter().zip(&brute).enumerate() {
                    assert!(
                        (ev - bv).abs() < 1e-6,
                        "seed {seed} k {k} rank {i}: {ev} vs {bv}"
                    );
                }
                // Objectives are non-decreasing.
                for w2 in eff.windows(2) {
                    assert!(w2[0].1 <= w2[1].1 + 1e-9);
                }
                // Each reported value is achieved by its candidate.
                for &(n, v) in &eff {
                    let eval =
                        crate::brute::evaluate_objective(&tree, &w.clients, &w.existing, Some(n));
                    assert!((v - eval).abs() < 1e-6, "seed {seed} {n}: {v} vs {eval}");
                }
            }
        }
    }

    #[test]
    fn topk_degenerate_inputs() {
        let venue = GridVenueSpec::new("t", 1, 10).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(10)
            .existing_uniform(2)
            .candidates_uniform(3)
            .seed(0)
            .build();
        let solver = EfficientIfls::new(&tree);
        assert!(solver
            .run_topk(&w.clients, &w.existing, &w.candidates, 0)
            .is_empty());
        assert!(solver.run_topk(&w.clients, &w.existing, &[], 5).is_empty());
        let no_clients = solver.run_topk(&[], &w.existing, &w.candidates, 2);
        assert_eq!(no_clients.len(), 2);
        assert!(no_clients.iter().all(|&(_, v)| v == 0.0));
    }

    #[test]
    fn pruning_reduces_retrievals() {
        let venue = GridVenueSpec::new("t", 3, 60).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(200)
            .existing_uniform(12)
            .candidates_uniform(10)
            .seed(4)
            .build();
        let with = EfficientIfls::with_config(
            &tree,
            EfficientConfig {
                group_clients: true,
                prune_clients: true,
                ..EfficientConfig::default()
            },
        )
        .run(&w.clients, &w.existing, &w.candidates);
        let without = EfficientIfls::with_config(
            &tree,
            EfficientConfig {
                group_clients: true,
                prune_clients: false,
                ..EfficientConfig::default()
            },
        )
        .run(&w.clients, &w.existing, &w.candidates);
        assert!((with.objective - without.objective).abs() < 1e-9);
        assert!(
            with.stats.facilities_retrieved <= without.stats.facilities_retrieved,
            "pruning should not retrieve more: {} vs {}",
            with.stats.facilities_retrieved,
            without.stats.facilities_retrieved
        );
        assert!(with.stats.clients_pruned > 0);
    }

    #[test]
    fn grouping_reduces_distance_computations() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(300)
            .existing_uniform(6)
            .candidates_uniform(8)
            .seed(5)
            .build();
        let grouped = EfficientIfls::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        let ungrouped = EfficientIfls::with_config(
            &tree,
            EfficientConfig {
                group_clients: false,
                prune_clients: true,
                ..EfficientConfig::default()
            },
        )
        .run(&w.clients, &w.existing, &w.candidates);
        assert!((grouped.objective - ungrouped.objective).abs() < 1e-9);
        // Grouping replaces one full distance computation per client with a
        // shared vector (counted once) plus a cheap per-client combine
        // (counted as a point_via lookup), so with many clients per
        // partition the grouped count must be strictly smaller.
        assert!(
            grouped.stats.dist_computations < ungrouped.stats.dist_computations,
            "grouped {} vs ungrouped {}",
            grouped.stats.dist_computations,
            ungrouped.stats.dist_computations
        );
        assert!(grouped.stats.point_via_lookups > 0);
        assert_eq!(ungrouped.stats.point_via_lookups, 0);
    }

    #[test]
    fn retrieval_accounting_pins_grouped_semantics() {
        // Pin the dist_computations semantics fixed in this revision: the
        // grouped path counts each shared door-distance vector once and
        // the per-client combines separately, making grouped and
        // ungrouped counts directly comparable.
        let venue = GridVenueSpec::new("t", 1, 12).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        // All clients in one partition, no pruning, so every retrieval
        // touches every client.
        let host = &venue.partitions()[0];
        let clients: Vec<ifls_indoor::IndoorPoint> =
            vec![ifls_indoor::IndoorPoint::new(host.id(), host.center()); 7];
        let existing = vec![venue.partitions()[4].id()];
        let candidates = vec![venue.partitions()[8].id(), venue.partitions()[10].id()];
        let cfg = |group| EfficientConfig {
            group_clients: group,
            prune_clients: false,
            dist_cache: false,
        };
        let grouped =
            EfficientIfls::with_config(&tree, cfg(true)).run(&clients, &existing, &candidates);
        let ungrouped =
            EfficientIfls::with_config(&tree, cfg(false)).run(&clients, &existing, &candidates);
        assert_eq!(grouped.answer, ungrouped.answer);
        // Both runs retrieve the same (source, facility) pairs and expand
        // the same entities; the iMinD evaluations are common. Grouped
        // spends 1 distance computation per retrieved pair, ungrouped
        // |clients| — and grouped reports exactly one point_via lookup per
        // retrieved facility entry.
        let retrievals = grouped.stats.facilities_retrieved;
        assert_eq!(
            grouped.stats.facilities_retrieved,
            ungrouped.stats.facilities_retrieved
        );
        assert_eq!(grouped.stats.point_via_lookups, retrievals);
        let per_pair = retrievals / clients.len() as u64;
        assert_eq!(
            ungrouped.stats.dist_computations - grouped.stats.dist_computations,
            per_pair * (clients.len() as u64 - 1),
            "grouped counts each shared vector once; ungrouped once per client"
        );
    }
}
