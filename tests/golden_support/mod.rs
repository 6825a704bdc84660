//! The `BatchRunner` half of the golden solver table (`solver_golden.rs`):
//! the one path in that table without an objective-neutral front end, so
//! its per-objective dispatch lives here, apart from the table itself.

use ifls::core::maxsum::MaxSumOutcome;
use ifls::core::mindist::MinDistOutcome;
use ifls::core::{api::Objective, BatchRunner, EfficientConfig, IflsQuery, MinMaxOutcome};
use ifls::core::{MaxSum, MinDist, MinMax};
use ifls::core::{QueryStats, Resolution};
use ifls::prelude::{PartitionId, VipTree};

/// One batch answer in objective-neutral form: answer, value (MinMax
/// objective, MinDist total, MaxSum wins), resolution, stats.
pub type Neutral = (Option<PartitionId>, f64, Resolution, QueryStats);

/// Answers `queries` through a `BatchRunner` at `threads` workers.
pub fn batch_runner(
    tree: &VipTree<'_>,
    threads: usize,
    dist_cache: bool,
    objective: Objective,
    queries: &[IflsQuery],
) -> Vec<Neutral> {
    let runner = BatchRunner::with_threads(tree, threads).config(EfficientConfig {
        dist_cache,
        ..EfficientConfig::default()
    });
    match objective {
        Objective::MinMax => runner
            .run::<MinMax>(queries)
            .into_iter()
            .map(|o: MinMaxOutcome| (o.answer, o.objective, o.resolution, o.stats))
            .collect(),
        Objective::MinDist => runner
            .run::<MinDist>(queries)
            .into_iter()
            .map(|o: MinDistOutcome| (o.answer, o.total, o.resolution, o.stats))
            .collect(),
        Objective::MaxSum => runner
            .run::<MaxSum>(queries)
            .into_iter()
            .map(|o: MaxSumOutcome| (o.answer, o.wins as f64, o.resolution, o.stats))
            .collect(),
    }
}
