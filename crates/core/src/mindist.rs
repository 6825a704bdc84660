//! The MinDist extension (§7): select the candidate minimizing the *total*
//! (equivalently average) distance of the clients to their nearest
//! facilities.
//!
//! The workflow of §5.3 and the Lemma 5.1 client pruning carry over
//! unchanged; only the candidate bookkeeping and `checkAnswer` differ, as
//! the paper sketches:
//!
//! * Every candidate keeps a running **total** made of *decided*
//!   per-client contributions plus a lower bound (the global distance) for
//!   every undecided client. A `(client, candidate)` contribution is
//!   decided when either the candidate was retrieved for the client while
//!   the client was unpruned (the contribution is the exact `iDist`, which
//!   is below the client's nearest-existing distance), or the client is
//!   pruned (the contribution is its nearest-existing distance: any
//!   unretrieved candidate is provably farther).
//! * `checkAnswer` returns a candidate once its total is fully decided and
//!   no other candidate's lower bound beats it.

use std::time::Instant;

use ifls_indoor::{IndoorPoint, PartitionId};
use ifls_obs::Phase;
use ifls_viptree::VipTree;

use crate::api::{Algorithm, Objective};
use crate::brute;
use crate::budget::{record_degraded_obs, Budget, BudgetReason, Resolution};
use crate::explore::{Event, Events, EVENT_BYTES};
use crate::search::{EfficientConfig, EfficientSolver, Exit, ObjectivePolicy, Parts, Query};
use crate::stats::{MemoryMeter, QueryStats};

/// Result of a MinDist IFLS query.
#[derive(Clone, Debug)]
pub struct MinDistOutcome {
    /// The selected candidate (always present when `Fn` and `C` are
    /// non-empty).
    pub answer: Option<PartitionId>,
    /// The total distance `Σ_c iDist(c, NN(c, Fe ∪ answer))`.
    pub total: f64,
    /// Whether the answer is exact or a budget-degraded best-so-far
    /// candidate (gap in total-distance units).
    pub resolution: Resolution,
    /// Instrumentation.
    pub stats: QueryStats,
}

impl MinDistOutcome {
    /// The average per-client distance (the paper's "MinDist" objective is
    /// the average; minimizing the sum is equivalent).
    pub fn average(&self, num_clients: usize) -> f64 {
        MinDist::reported(self.total, num_clients)
    }
}

/// Exact MinDist total of placing the new facility at `candidate`
/// (status quo when `None`): the *sum* of client distances.
pub fn evaluate_total(
    tree: &VipTree<'_>,
    clients: &[IndoorPoint],
    existing: &[PartitionId],
    candidate: Option<PartitionId>,
) -> f64 {
    let mut per = brute::nearest_facility_dists(tree, clients, existing);
    if let Some(n) = candidate {
        brute::min_with_partition_dists(tree, clients, n, &mut per);
    }
    per.into_iter().sum()
}

/// Brute-force MinDist: evaluates every candidate exhaustively (the
/// correctness oracle for [`EfficientMinDist`]).
pub struct BruteForceMinDist<'t, 'v> {
    tree: &'t VipTree<'v>,
}

impl<'t, 'v> BruteForceMinDist<'t, 'v> {
    /// Creates a solver over the given index.
    pub fn new(tree: &'t VipTree<'v>) -> Self {
        Self { tree }
    }

    /// Answers the query by exhaustive evaluation (ties broken towards the
    /// smaller partition id).
    pub fn run(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
    ) -> MinDistOutcome {
        self.run_budgeted(clients, existing, candidates, &Budget::unlimited())
    }

    /// [`run`](Self::run) under a cooperative [`Budget`], polled once per
    /// candidate. The oracle has no pruning bounds, so a degraded outcome
    /// reports the conservative gap `total − 0` (any unevaluated candidate
    /// could in principle reach a zero total).
    pub fn run_budgeted(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
        budget: &Budget,
    ) -> MinDistOutcome {
        let start = Instant::now();
        let nn = brute::nearest_facility_dists(self.tree, clients, existing);
        let mut best: Option<(PartitionId, f64)> = None;
        let mut interrupted = None;
        let mut dists = (clients.len() * existing.len()) as u64;
        for &n in candidates {
            if let Some(reason) = budget.check(dists) {
                interrupted = Some(reason);
                break;
            }
            dists += clients.len() as u64;
            let mut per = nn.clone();
            brute::min_with_partition_dists(self.tree, clients, n, &mut per);
            let total: f64 = per.into_iter().sum();
            let better = match best {
                None => true,
                Some((bn, bt)) => total < bt || (total == bt && n < bn),
            };
            if better {
                best = Some((n, total));
            }
        }
        // `dists` tracks evaluations actually performed, so an interrupted
        // run reports truthful counters while an unbounded run reports
        // exactly `|C|·(|Fe| + |Fn|)` as before.
        let mut stats = QueryStats {
            dist_computations: dists,
            facilities_retrieved: dists - (clients.len() * existing.len()) as u64,
            peak_bytes: clients.len() * 16,
            ..QueryStats::default()
        };
        stats.record_elapsed(start.elapsed());
        stats.record_query_obs();
        let resolution = match interrupted {
            Some(reason) => {
                let achieved = best.map_or_else(|| nn.iter().sum(), |(_, t)| t);
                let r = Resolution::Degraded {
                    gap: achieved.max(0.0),
                    reason,
                };
                record_degraded_obs(&r);
                r
            }
            None => Resolution::Exact,
        };
        match best {
            Some((n, total)) => MinDistOutcome {
                answer: Some(n),
                total,
                resolution,
                stats,
            },
            None => MinDistOutcome {
                answer: None,
                total: nn.into_iter().sum(),
                resolution,
                stats,
            },
        }
    }
}

/// Per-candidate running totals with decided/undecided accounting.
///
/// Pruned clients are accumulated globally (`pruned_sum`/`pruned_cnt`) and
/// candidates that had already been counted for a pruned client carry a
/// per-candidate adjustment, so pruning one client is `O(|counted|)`, not
/// `O(|Fn|)`.
struct Totals {
    counted_sum: Vec<f64>,
    counted_cnt: Vec<u32>,
    pruned_adjust_sum: Vec<f64>,
    pruned_adjust_cnt: Vec<u32>,
    pruned_sum: f64,
    pruned_cnt: u32,
}

impl Totals {
    fn new(num_partitions: usize) -> Self {
        Self {
            counted_sum: vec![0.0; num_partitions],
            counted_cnt: vec![0; num_partitions],
            pruned_adjust_sum: vec![0.0; num_partitions],
            pruned_adjust_cnt: vec![0; num_partitions],
            pruned_sum: 0.0,
            pruned_cnt: 0,
        }
    }

    /// Decided portion of candidate `n`'s total.
    fn decided_sum(&self, n: PartitionId) -> f64 {
        self.counted_sum[n.index()] + self.pruned_sum - self.pruned_adjust_sum[n.index()]
    }

    /// Number of decided clients for candidate `n`.
    fn decided_cnt(&self, n: PartitionId) -> u32 {
        self.counted_cnt[n.index()] + self.pruned_cnt - self.pruned_adjust_cnt[n.index()]
    }

    /// Lower bound on candidate `n`'s total over `n_clients` clients when
    /// every undecided contribution is at least `bound`.
    fn lower_bound(&self, n: PartitionId, n_clients: usize, bound: f64) -> f64 {
        let undecided = n_clients as f64 - f64::from(self.decided_cnt(n));
        self.decided_sum(n) + undecided * bound
    }
}

/// The efficient MinDist solver (§7 over the §5 machinery):
/// [`EfficientSolver`] under the [`MinDist`] policy.
pub type EfficientMinDist<'t, 'v> = EfficientSolver<'t, 'v, MinDist>;

/// The MinDist objective policy (§7): minimize the total client distance;
/// answers are [`MinDistOutcome`]s.
///
/// When a budget fires, the candidate with the smallest running lower
/// bound (`decided total + undecided · Gd`) is reported with its exact
/// total; the gap is that total minus the smallest lower bound over all
/// candidates, which upper-bounds the error vs. the exact optimum.
pub struct MinDist {
    totals: Totals,
    pruned: Vec<bool>,
    counted: Vec<Vec<PartitionId>>,
    clients_pruned: u64,
    events: Events,
    /// The last `checkAnswer` result.
    answer: Option<(PartitionId, f64)>,
    /// The bound below which every contribution has been decided (the
    /// last `Gd` whose events were processed); the degraded lower bounds
    /// are taken at this bound.
    decided_bound: f64,
}

impl MinDist {
    /// Processes all pending events with distance ≤ `bound`.
    fn process_events(&mut self, bound: f64, meter: &mut MemoryMeter) {
        while let Some((e, existing)) = self.events.pop_within(bound, meter) {
            let c = e.client as usize;
            if self.pruned[c] {
                continue;
            }
            if existing {
                // Lemma 5.1: `e.dist` is the client's exact
                // nearest-existing distance (events arrive in distance
                // order and retrieval is complete below the bound).
                self.pruned[c] = true;
                self.clients_pruned += 1;
                self.totals.pruned_sum += e.dist;
                self.totals.pruned_cnt += 1;
                for n in self.counted[c].drain(..) {
                    self.totals.pruned_adjust_sum[n.index()] += e.dist;
                    self.totals.pruned_adjust_cnt[n.index()] += 1;
                }
            } else {
                self.totals.counted_sum[e.facility.index()] += e.dist;
                self.totals.counted_cnt[e.facility.index()] += 1;
                self.counted[c].push(e.facility);
                meter.add(4);
            }
        }
    }

    /// checkAnswer: the best fully-decided candidate must beat every other
    /// candidate's lower bound.
    fn check_answer(&self, candidates: &[PartitionId], bound: f64) -> Option<(PartitionId, f64)> {
        let n_clients = self.pruned.len();
        let mut best_exact: Option<(PartitionId, f64)> = None;
        for &n in candidates {
            if self.totals.decided_cnt(n) as usize == n_clients {
                let t = self.totals.decided_sum(n);
                let better = match best_exact {
                    None => true,
                    Some((bn, bt)) => t < bt || (t == bt && n < bn),
                };
                if better {
                    best_exact = Some((n, t));
                }
            }
        }
        let (bn, bt) = best_exact?;
        for &n in candidates {
            if n == bn {
                continue;
            }
            if self.totals.lower_bound(n, n_clients, bound) < bt {
                return None;
            }
        }
        Some((bn, bt))
    }
}

impl ObjectivePolicy for MinDist {
    type Outcome = MinDistOutcome;
    const OBJECTIVE: Objective = Objective::MinDist;

    fn status_quo(q: &Query<'_>) -> f64 {
        evaluate_total(q.tree, q.clients, q.existing, None)
    }

    fn into_parts(o: MinDistOutcome) -> Parts {
        (o.answer, o.total, o.resolution, o.stats)
    }

    fn from_parts((answer, total, resolution, stats): Parts) -> MinDistOutcome {
        MinDistOutcome {
            answer,
            total,
            resolution,
            stats,
        }
    }

    /// The paper's "MinDist" objective is the average; minimizing the sum
    /// is equivalent.
    fn reported(total: f64, clients: usize) -> f64 {
        if clients == 0 {
            0.0
        } else {
            total / clients as f64
        }
    }

    fn new(
        q: &Query<'_>,
        _config: &EfficientConfig,
        _target: usize,
        meter: &mut MemoryMeter,
    ) -> Self {
        let (n_clients, num_partitions) = (q.clients.len(), q.tree.venue().num_partitions());
        meter.add((num_partitions * 28) as isize);
        // Pruned flags, counted lists and the driver's per-partition
        // client lists.
        meter.add((n_clients * 8) as isize);
        Self {
            totals: Totals::new(num_partitions),
            pruned: vec![false; n_clients],
            counted: vec![Vec::new(); n_clients],
            clients_pruned: 0,
            events: Events::default(),
            answer: None,
            decided_bound: 0.0,
        }
    }

    #[inline]
    fn is_active(&self, client: u32) -> bool {
        !self.pruned[client as usize]
    }

    #[inline]
    fn intake(&mut self, e: Event, existing: bool, meter: &mut MemoryMeter) {
        self.events.push(e, existing);
        meter.add(EVENT_BYTES);
    }

    fn after_pop(&mut self, q: &Query<'_>, gd: f64, pops: u64, meter: &mut MemoryMeter) -> bool {
        {
            let _prune = ifls_obs::span(Phase::Prune);
            self.process_events(gd, meter);
        }
        self.decided_bound = gd;
        // The O(|Fn|) answer check is throttled; delaying it never
        // changes the answer, only when it is noticed.
        if pops.is_multiple_of(32) {
            let _refine = ifls_obs::span(Phase::Refine);
            self.answer = self.check_answer(q.candidates, gd);
            return self.answer.is_some();
        }
        false
    }

    /// Everything retrieved: decide all remaining contributions.
    fn exhausted(
        &mut self,
        q: &Query<'_>,
        _budget: &Budget,
        _dists: u64,
        meter: &mut MemoryMeter,
    ) -> Option<BudgetReason> {
        {
            let _prune = ifls_obs::span(Phase::Prune);
            self.process_events(f64::INFINITY, meter);
        }
        let _refine = ifls_obs::span(Phase::Refine);
        self.answer = self.check_answer(q.candidates, f64::INFINITY);
        None
    }

    fn clients_pruned(&self) -> u64 {
        self.clients_pruned
    }

    fn finish(self, q: &Query<'_>, stats: QueryStats, exit: Exit) -> MinDistOutcome {
        if let Exit::Interrupted(reason) = exit {
            // Budget fired: pick the candidate with the smallest lower
            // bound (`decided + undecided · decided_bound`, the same
            // bound `checkAnswer` uses), report its exact total (one
            // evaluation, outside the timed loop) and the gap against the
            // smallest lower bound over all candidates — a bound on the
            // distance error vs. the exact optimum.
            let mut best_n: Option<(PartitionId, f64)> = None;
            for &n in q.candidates {
                let lb = self
                    .totals
                    .lower_bound(n, q.clients.len(), self.decided_bound);
                let better = match best_n {
                    None => true,
                    Some((bn, blb)) => lb < blb || (lb == blb && n < bn),
                };
                if better {
                    best_n = Some((n, lb));
                }
            }
            let (n, global_lb) = best_n.expect("candidates checked non-empty above");
            let total = evaluate_total(q.tree, q.clients, q.existing, Some(n));
            let resolution = Resolution::Degraded {
                gap: (total - global_lb).max(0.0),
                reason,
            };
            record_degraded_obs(&resolution);
            return MinDistOutcome {
                answer: Some(n),
                total,
                resolution,
                stats,
            };
        }
        let (answer, total) = match self.answer {
            Some((n, total)) => (Some(n), total),
            // Defensive: evaluate the status quo.
            None => (None, Self::status_quo(q)),
        };
        MinDistOutcome {
            answer,
            total,
            resolution: Resolution::Exact,
            stats,
        }
    }

    fn reference(q: &Query<'_>, _algorithm: Algorithm, budget: &Budget) -> MinDistOutcome {
        BruteForceMinDist::new(q.tree).run_budgeted(q.clients, q.existing, q.candidates, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifls_venues::{GridVenueSpec, RandomVenueSpec};
    use ifls_viptree::VipTreeConfig;
    use ifls_workloads::WorkloadBuilder;

    fn check(venue: &ifls_indoor::Venue, seed: u64, clients: usize, fe: usize, fn_: usize) {
        let tree = VipTree::build(venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(venue)
            .clients_uniform(clients)
            .existing_uniform(fe)
            .candidates_uniform(fn_)
            .seed(seed)
            .build();
        let eff = EfficientMinDist::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        let brute = BruteForceMinDist::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        assert!(
            (eff.total - brute.total).abs() < 1e-6,
            "seed {seed}: efficient {} ({:?}) vs brute {} ({:?})",
            eff.total,
            eff.answer,
            brute.total,
            brute.answer
        );
        let eval = evaluate_total(&tree, &w.clients, &w.existing, eff.answer);
        assert!(
            (eff.total - eval).abs() < 1e-6,
            "internal {} vs eval {eval}",
            eff.total
        );
    }

    #[test]
    fn matches_brute_force_on_grid() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        for seed in 0..12 {
            check(&venue, seed, 40, 4, 8);
        }
    }

    #[test]
    fn matches_brute_force_on_random_venues() {
        for seed in 0..6 {
            let venue = RandomVenueSpec {
                cells_x: 4,
                cells_y: 3,
                levels: 2,
                extra_door_prob: 0.3,
                cell_size: 9.0,
            }
            .build(seed);
            check(&venue, seed + 50, 30, 3, 6);
        }
    }

    #[test]
    fn matches_brute_without_pruning_or_grouping() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(30)
            .existing_uniform(3)
            .candidates_uniform(6)
            .seed(9)
            .build();
        let brute = BruteForceMinDist::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        for (g, p) in [(false, true), (true, false), (false, false)] {
            for dc in [true, false] {
                let eff = EfficientMinDist::with_config(
                    &tree,
                    EfficientConfig {
                        group_clients: g,
                        prune_clients: p,
                        dist_cache: dc,
                        ..EfficientConfig::default()
                    },
                )
                .run(&w.clients, &w.existing, &w.candidates);
                assert!(
                    (eff.total - brute.total).abs() < 1e-6,
                    "g={g} p={p} dc={dc}"
                );
            }
        }
    }

    #[test]
    fn no_existing_facilities_is_one_median() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        for seed in 0..5 {
            check(&venue, seed, 25, 0, 6);
        }
    }

    #[test]
    fn average_accessor() {
        let o = MinDistOutcome {
            answer: None,
            total: 10.0,
            resolution: Resolution::Exact,
            stats: QueryStats::default(),
        };
        assert_eq!(o.average(4), 2.5);
        assert_eq!(o.average(0), 0.0);
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
        let out = EfficientMinDist::new(&tree).run(&[], &w.existing, &w.candidates);
        assert_eq!(out.answer, None);
        assert_eq!(out.total, 0.0);
        let out = EfficientMinDist::new(&tree).run(&w.clients, &w.existing, &[]);
        assert_eq!(out.answer, None);
        assert!(out.total.is_finite());
    }
}
