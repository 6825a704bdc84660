//! The MaxSum extension (§7): select the candidate maximizing the number
//! of clients that would have the *new* facility as their nearest one.
//!
//! A client `c` counts for candidate `n` iff `iDist(c, n) < nn_e(c)`
//! (strictly closer than every existing facility). The efficient solver
//! reuses the §5 traversal and decides each `(client, candidate)` pair the
//! moment the client's nearest-existing distance becomes known:
//!
//! * candidate retrievals for a still-unpruned client are buffered with
//!   their exact distances;
//! * when the client's first existing facility arrives (in distance
//!   order, so it *is* the nearest), every buffered distance is compared
//!   against it, and every unretrieved candidate is provably farther (its
//!   `iMinD` exceeds the bound) and therefore never a win;
//! * the paper's upper-bound refinement is an early exit: once some
//!   candidate's confirmed wins cannot be beaten by any other candidate's
//!   confirmed wins plus the remaining undecided clients, the answer is
//!   fixed.

use std::collections::BinaryHeap;
use std::time::Instant;

use ifls_indoor::{IndoorPoint, PartitionId};
use ifls_obs::Phase;
use ifls_viptree::VipTree;

use crate::api::{Algorithm, Objective};
use crate::brute;
use crate::budget::{record_degraded_obs, Budget, Resolution};
use crate::explore::{pop_within, Event, EVENT_BYTES};
use crate::search::{EfficientConfig, EfficientSolver, Exit, ObjectivePolicy, Parts, Query};
use crate::stats::{MemoryMeter, QueryStats};

/// Result of a MaxSum IFLS query.
#[derive(Clone, Debug)]
pub struct MaxSumOutcome {
    /// The selected candidate (`None` only when `Fn` or `C` is empty).
    pub answer: Option<PartitionId>,
    /// Number of clients whose nearest facility the answer would become.
    pub wins: u64,
    /// Whether the answer is exact or a budget-degraded best-so-far
    /// candidate (gap counted in client wins).
    pub resolution: Resolution,
    /// Instrumentation.
    pub stats: QueryStats,
}

/// Exact MaxSum score of a candidate: how many clients it would capture.
pub fn evaluate_wins(
    tree: &VipTree<'_>,
    clients: &[IndoorPoint],
    existing: &[PartitionId],
    candidate: PartitionId,
) -> u64 {
    let nn = brute::nearest_facility_dists(tree, clients, existing);
    let mut with = vec![f64::INFINITY; clients.len()];
    brute::min_with_partition_dists(tree, clients, candidate, &mut with);
    nn.iter().zip(&with).filter(|(e, d)| *d < *e).count() as u64
}

/// Brute-force MaxSum: evaluates every candidate exhaustively.
pub struct BruteForceMaxSum<'t, 'v> {
    tree: &'t VipTree<'v>,
}

impl<'t, 'v> BruteForceMaxSum<'t, 'v> {
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
    ) -> MaxSumOutcome {
        self.run_budgeted(clients, existing, candidates, &Budget::unlimited())
    }

    /// [`run`](Self::run) under a cooperative [`Budget`], polled once per
    /// candidate. The oracle has no pruning bounds, so a degraded outcome
    /// reports the conservative gap `|C| − wins` (an unevaluated candidate
    /// could in principle capture every client).
    pub fn run_budgeted(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
        budget: &Budget,
    ) -> MaxSumOutcome {
        let start = Instant::now();
        let nn = brute::nearest_facility_dists(self.tree, clients, existing);
        let mut best: Option<(PartitionId, u64)> = None;
        let mut interrupted = None;
        let mut dists = (clients.len() * existing.len()) as u64;
        for &n in candidates {
            if let Some(reason) = budget.check(dists) {
                interrupted = Some(reason);
                break;
            }
            dists += clients.len() as u64;
            let mut with = vec![f64::INFINITY; clients.len()];
            brute::min_with_partition_dists(self.tree, clients, n, &mut with);
            let wins = nn.iter().zip(&with).filter(|(e, d)| *d < *e).count() as u64;
            let better = match best {
                None => true,
                Some((bn, bw)) => wins > bw || (wins == bw && n < bn),
            };
            if better {
                best = Some((n, wins));
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
                let achieved = best.map_or(0, |(_, w)| w);
                let r = Resolution::Degraded {
                    gap: (clients.len() as u64).saturating_sub(achieved) as f64,
                    reason,
                };
                record_degraded_obs(&r);
                r
            }
            None => Resolution::Exact,
        };
        match best {
            Some((n, wins)) => MaxSumOutcome {
                answer: Some(n),
                wins,
                resolution,
                stats,
            },
            None => MaxSumOutcome {
                answer: None,
                wins: 0,
                resolution,
                stats,
            },
        }
    }
}

/// The efficient MaxSum solver (§7 over the §5 machinery):
/// [`EfficientSolver`] under the [`MaxSum`] policy.
pub type EfficientMaxSum<'t, 'v> = EfficientSolver<'t, 'v, MaxSum>;

/// The MaxSum objective policy (§7): maximize the number of captured
/// clients; answers are [`MaxSumOutcome`]s.
///
/// When a budget fires, the candidate with the most confirmed wins is
/// reported with its exact score; the gap is the best potential over all
/// candidates (`confirmed + undecided clients`) minus that score, an upper
/// bound on how many wins the exact optimum can exceed the answer by.
pub struct MaxSum {
    wins: Vec<u64>,
    /// Buffered candidate retrievals per undecided client.
    buffered: Vec<Vec<(PartitionId, f64)>>,
    decided: Vec<bool>,
    undecided: usize,
    clients_pruned: u64,
    /// Existing-facility events in distance order determine nn_e.
    exist_events: BinaryHeap<Event>,
    answer: Option<(PartitionId, u64)>,
    /// Whether `answer` came from the upper-bound early exit, whose
    /// confirmed count is only a lower bound of the winner's score.
    early_exit: bool,
}

impl MaxSum {
    /// Decides a client against its exact nearest-existing distance.
    fn decide(&mut self, client: u32, nn_e: f64, meter: &mut MemoryMeter) {
        let c = client as usize;
        if self.decided[c] {
            return;
        }
        self.decided[c] = true;
        self.undecided -= 1;
        if nn_e.is_finite() {
            self.clients_pruned += 1;
        }
        for (n, d) in self.buffered[c].drain(..) {
            meter.add(-12);
            if d < nn_e {
                self.wins[n.index()] += 1;
            }
        }
    }

    /// The candidate with the most confirmed wins (lowest id on ties).
    fn best_candidate(&self, candidates: &[PartitionId]) -> (PartitionId, u64) {
        candidates
            .iter()
            .map(|&n| (n, self.wins[n.index()]))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("candidates non-empty")
    }
}

impl ObjectivePolicy for MaxSum {
    type Outcome = MaxSumOutcome;
    const OBJECTIVE: Objective = Objective::MaxSum;

    /// No new facility captures no client.
    fn status_quo(_q: &Query<'_>) -> f64 {
        0.0
    }

    fn into_parts(o: MaxSumOutcome) -> Parts {
        (o.answer, o.wins as f64, o.resolution, o.stats)
    }

    fn from_parts((answer, wins, resolution, stats): Parts) -> MaxSumOutcome {
        MaxSumOutcome {
            answer,
            wins: wins as u64,
            resolution,
            stats,
        }
    }

    fn new(
        q: &Query<'_>,
        _config: &EfficientConfig,
        _target: usize,
        meter: &mut MemoryMeter,
    ) -> Self {
        let (n_clients, num_partitions) = (q.clients.len(), q.tree.venue().num_partitions());
        meter.add((num_partitions * 8 + n_clients * 32) as isize);
        Self {
            wins: vec![0; num_partitions],
            buffered: vec![Vec::new(); n_clients],
            decided: vec![false; n_clients],
            undecided: n_clients,
            clients_pruned: 0,
            exist_events: BinaryHeap::new(),
            answer: None,
            early_exit: false,
        }
    }

    #[inline]
    fn is_active(&self, client: u32) -> bool {
        !self.decided[client as usize]
    }

    /// Existing retrievals queue up to fix `nn_e`; candidate retrievals
    /// are buffered per client until it is decided (and dropped after).
    #[inline]
    fn intake(&mut self, e: Event, existing: bool, meter: &mut MemoryMeter) {
        if existing {
            self.exist_events.push(e);
            meter.add(EVENT_BYTES);
        } else if !self.decided[e.client as usize] {
            self.buffered[e.client as usize].push((e.facility, e.dist));
            meter.add(12);
        }
    }

    fn after_pop(&mut self, q: &Query<'_>, gd: f64, pops: u64, meter: &mut MemoryMeter) -> bool {
        // Existing events within the bound fix nn_e in distance order.
        {
            let _prune = ifls_obs::span(Phase::Prune);
            while let Some(e) = pop_within(&mut self.exist_events, gd, meter) {
                self.decide(e.client, e.dist, meter);
            }
        }
        // Early exit: best confirmed count is unbeatable. A rival that
        // could still *tie* also counts as beatable when its id is
        // smaller, so the lowest-id-wins tie-break stays exact.
        if pops.is_multiple_of(64) && self.undecided > 0 {
            let _refine = ifls_obs::span(Phase::Refine);
            let (bn, bw) = self.best_candidate(q.candidates);
            let beatable = q.candidates.iter().any(|&n| {
                if n == bn {
                    return false;
                }
                let potential = self.wins[n.index()] + self.undecided as u64;
                potential > bw || (potential == bw && n < bn)
            });
            if !beatable {
                // `bn` is the argmax even though its own count may
                // still grow; the exact count is evaluated after the
                // timed section.
                self.answer = Some((bn, bw));
                self.early_exit = true;
                return true;
            }
        }
        false
    }

    /// Queue exhausted: remaining existing events decide their clients;
    /// clients with no existing facility at all win with every buffered
    /// candidate (nn_e = ∞). Runs after the candidate loop closed.
    fn close(&mut self, q: &Query<'_>, exit: Exit, meter: &mut MemoryMeter) {
        if exit != Exit::Exhausted {
            return;
        }
        let _refine = ifls_obs::span(Phase::Refine);
        while let Some(e) = self.exist_events.pop() {
            meter.add(-EVENT_BYTES);
            self.decide(e.client, e.dist, meter);
        }
        for c in 0..q.clients.len() as u32 {
            self.decide(c, f64::INFINITY, meter);
        }
        self.answer = Some(self.best_candidate(q.candidates));
    }

    fn clients_pruned(&self) -> u64 {
        self.clients_pruned
    }

    fn finish(self, q: &Query<'_>, stats: QueryStats, exit: Exit) -> MaxSumOutcome {
        let interrupted = match exit {
            Exit::Interrupted(reason) => Some(reason),
            _ => None,
        };
        let (n, w) = match interrupted {
            // Budget fired: the best-so-far answer is the candidate with
            // the most confirmed wins (lowest id on ties, matching the
            // exact tie-break).
            Some(_) => self.best_candidate(q.candidates),
            None => self.answer.expect("the loop answered or ran dry"),
        };
        // No candidate can beat its confirmed wins plus the still
        // undecided clients, so the best potential bounds the exact
        // optimum from above (only needed for a degraded gap).
        let max_potential = q
            .candidates
            .iter()
            .map(|&c| self.wins[c.index()] + self.undecided as u64)
            .fold(0u64, u64::max);
        // On early exit (or a budget trip) the confirmed count is only a
        // lower bound of the winner's final score; report the exact value
        // (computed outside the timed query, like the baseline's objective
        // completion).
        let wins = if self.early_exit || interrupted.is_some() {
            evaluate_wins(q.tree, q.clients, q.existing, n)
        } else {
            w
        };
        let resolution = match interrupted {
            Some(reason) => {
                let r = Resolution::Degraded {
                    gap: (max_potential as f64 - wins as f64).max(0.0),
                    reason,
                };
                record_degraded_obs(&r);
                r
            }
            None => Resolution::Exact,
        };
        MaxSumOutcome {
            answer: Some(n),
            wins,
            resolution,
            stats,
        }
    }

    fn reference(q: &Query<'_>, _algorithm: Algorithm, budget: &Budget) -> MaxSumOutcome {
        BruteForceMaxSum::new(q.tree).run_budgeted(q.clients, q.existing, q.candidates, budget)
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
        let eff = EfficientMaxSum::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        let brute = BruteForceMaxSum::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        assert_eq!(
            eff.wins, brute.wins,
            "seed {seed}: efficient {:?} vs brute {:?}",
            eff.answer, brute.answer
        );
        // The reported count matches a from-scratch evaluation.
        let eval = evaluate_wins(&tree, &w.clients, &w.existing, eff.answer.unwrap());
        assert_eq!(eff.wins, eval, "seed {seed}");
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
            check(&venue, seed + 30, 30, 3, 6);
        }
    }

    #[test]
    fn no_existing_facilities_everyone_wins() {
        let venue = GridVenueSpec::new("t", 1, 12).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(25)
            .existing_uniform(0)
            .candidates_uniform(4)
            .seed(7)
            .build();
        let eff = EfficientMaxSum::new(&tree).run(&w.clients, &[], &w.candidates);
        // With no existing facilities every client is captured.
        assert_eq!(eff.wins, 25);
    }

    #[test]
    fn ablation_configs_do_not_change_counts() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(40)
            .existing_uniform(4)
            .candidates_uniform(6)
            .seed(3)
            .build();
        let brute = BruteForceMaxSum::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        for (g, p) in [(false, true), (true, false), (false, false)] {
            for dc in [true, false] {
                let eff = EfficientMaxSum::with_config(
                    &tree,
                    EfficientConfig {
                        group_clients: g,
                        prune_clients: p,
                        dist_cache: dc,
                    },
                )
                .run(&w.clients, &w.existing, &w.candidates);
                assert_eq!(eff.wins, brute.wins, "g={g} p={p} dc={dc}");
            }
        }
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
        let out = EfficientMaxSum::new(&tree).run(&[], &w.existing, &w.candidates);
        assert_eq!(out.answer, None);
        assert_eq!(out.wins, 0);
        let out = EfficientMaxSum::new(&tree).run(&w.clients, &w.existing, &[]);
        assert_eq!(out.answer, None);
    }
}
