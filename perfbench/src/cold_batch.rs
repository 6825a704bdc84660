//! `cold-batch`: `api::solve_batch` on two worker threads over trees built
//! in-process with no warm tier — what `ifls serve` and `ifls query` do
//! without `--index`.
//!
//! Why: most distance lookups miss, so the VIP-tree distance kernel, the
//! per-query local cache tier and the `core::parallel` work-stealing
//! scheduler carry the time; no other workload runs them. Each batch is
//! one venue × objective, a what-if sweep: its queries share one client
//! set and draw `Fe`/`Fn` afresh from the venue's eligible partitions.
//! `Algorithm::Parallel` is left out: on two cores it ran several times
//! slower than serial on cold trees.

use std::time::Instant;

use ifls_core::api::{self, BatchQuery, Objective, SolveSpec};
use ifls_core::Budget;
use ifls_indoor::Venue;
use ifls_viptree::VipTree;
use ifls_workloads::WorkloadBuilder;

use crate::check::{self, Answer, Tally};
use crate::ledger::Ledger;
use crate::report::{Context, Metrics};
use crate::setup::{self, SetupTimes};
use crate::stats::{self, ratio};
use crate::venues::{VenueSpec, CH, CPH, MC, MZB};
use crate::{mix, Outcome, Rng, OBJECTIVES};

/// One venue's share of a cycle.
#[derive(Clone, Copy, Debug)]
pub struct VenuePlan {
    /// The venue and its `Fe`/`Fn` sizes.
    pub spec: VenueSpec,
    /// Queries per batch for MinMax, MinDist and MaxSum.
    pub batch: [usize; 3],
    /// Queries re-answered by single-query `api::solve` per run.
    pub references: usize,
}

/// How a cold-batch run is shaped.
#[derive(Clone, Debug)]
pub struct Config {
    /// Each cycle runs one batch per venue, venue `i` of cycle `c` with
    /// objective `(c + i) mod 3`; three cycles make a round, in which
    /// every venue runs every objective once.
    pub venues: Vec<VenuePlan>,
    /// Uniform clients shared by a batch's queries.
    pub clients: usize,
    /// Worker threads handed to `solve_batch`.
    pub threads: usize,
    /// Timed window (summed batch wall time), in seconds. Whole rounds
    /// run until the next one would end more than half a round past it,
    /// so every run answers the same venue × objective mix.
    pub seconds: f64,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Input seed.
    pub seed: u64,
}

/// Cycles per round: one per objective.
const ROUND: usize = 3;

impl Config {
    /// The configuration the benchmark command runs.
    ///
    /// Batch sizes give every batch about 1.6 s of wall time on two cores
    /// at the commit that introduced the benchmark, so each venue takes a
    /// comparable share of a round — except Melbourne Central, whose cold
    /// queries take ~3 s each: its batch is the smallest that keeps both
    /// workers busy, and MC still takes over a third of the time. With
    /// equal counts MC would be nearly all of it. A round is ~23 s, so
    /// a 20 s window runs one.
    pub fn standard(seed: u64, seconds: f64) -> Config {
        Config {
            venues: vec![
                VenuePlan {
                    spec: MC,
                    batch: [2, 2, 2],
                    references: 1,
                },
                VenuePlan {
                    spec: CH,
                    batch: [22, 24, 18],
                    references: 4,
                },
                VenuePlan {
                    spec: CPH,
                    batch: [170, 172, 114],
                    references: 8,
                },
                VenuePlan {
                    spec: MZB,
                    batch: [14, 12, 4],
                    references: 2,
                },
            ],
            clients: 1000,
            threads: 2,
            seconds,
            setup_reps: 5,
            seed,
        }
    }
}

/// One batch of the run, reproducible from its position.
#[derive(Clone, Copy, Debug)]
struct Batch {
    venue: usize,
    objective: Objective,
    size: usize,
    seed: u64,
}

fn batch_at(cfg: &Config, cycle: usize, i: usize) -> Batch {
    let objective = OBJECTIVES[(cycle + i) % 3];
    let k = objective_index(objective);
    Batch {
        venue: i,
        objective,
        size: cfg.venues[i].batch[k],
        seed: mix(cfg.seed, (cycle * cfg.venues.len() + i) as u64),
    }
}

fn objective_index(o: Objective) -> usize {
    OBJECTIVES
        .iter()
        .position(|&x| x == o)
        .expect("objective in the rotation")
}

/// The batch's queries: one client set, fresh facilities per query.
fn queries(cfg: &Config, venue: &Venue, b: &Batch) -> Vec<BatchQuery> {
    let spec = &cfg.venues[b.venue].spec;
    let clients = WorkloadBuilder::new(venue)
        .clients_uniform(cfg.clients)
        .existing_uniform(0)
        .candidates_uniform(0)
        .seed(b.seed)
        .build()
        .clients;
    (0..b.size)
        .map(|q| {
            let w = WorkloadBuilder::new(venue)
                .clients_uniform(0)
                .existing_uniform(spec.fe)
                .candidates_uniform(spec.fn_)
                .seed(mix(b.seed, q as u64 + 1))
                .build();
            BatchQuery {
                clients: clients.clone(),
                existing: w.existing,
                candidates: w.candidates,
                budget: Budget::unlimited(),
                ctx: None,
            }
        })
        .collect()
}

/// Times from one pass over whole rounds.
#[derive(Default)]
struct Pass {
    batches: Vec<Batch>,
    walls_ms: Vec<f64>,
    answers: Vec<Vec<Answer>>,
    busy_ns: u64,
    gen_ns: u64,
    cycles: usize,
}

impl Pass {
    /// Summed wall time of the batches `range` (indices into `batches`).
    fn walls_ns(&self, range: std::ops::Range<usize>) -> f64 {
        self.walls_ms[range].iter().sum::<f64>() * 1e6
    }
}

/// Runs cycles `0..max_cycles` while `more(cycles_done, busy_ns,
/// last_round_ns)` holds; `more` is asked at round boundaries only.
fn pass(
    cfg: &Config,
    venues: &[Venue],
    trees: &[VipTree<'_>],
    tally: &mut Tally,
    mut ledger: Option<&mut Ledger>,
    max_cycles: usize,
    more: impl Fn(usize, u64, u64) -> bool,
) -> Pass {
    let mut p = Pass::default();
    let mut round_start = 0;
    let mut last_round_ns = 0;
    while p.cycles < max_cycles
        && (p.cycles % ROUND != 0 || more(p.cycles, p.busy_ns, last_round_ns))
    {
        if p.cycles % ROUND == 0 {
            round_start = p.busy_ns;
        }
        for i in 0..cfg.venues.len() {
            let b = batch_at(cfg, p.cycles, i);
            let t = Instant::now();
            let qs = queries(cfg, &venues[i], &b);
            p.gen_ns += t.elapsed().as_nanos() as u64;
            let spec = SolveSpec {
                objective: b.objective,
                ..SolveSpec::default()
            };
            let t = Instant::now();
            let r = api::solve_batch(&trees[i], cfg.threads, &qs, &spec);
            let wall = t.elapsed().as_nanos() as u64;
            p.busy_ns += wall;
            p.walls_ms.push(wall as f64 / 1e6);
            let mut answers = Vec::with_capacity(b.size);
            match r {
                Ok(results) => {
                    for (summary, _) in &results {
                        tally.record(check::exact(summary));
                        answers.push(Answer::of(summary));
                        if let Some(l) = ledger.as_deref_mut() {
                            l.add_stats(&summary.stats, cfg.clients);
                        }
                    }
                    if let Some(l) = ledger.as_deref_mut() {
                        let workers = cfg.threads.min(b.size).max(1) as u64;
                        l.batches += 1;
                        l.add_sink(&ifls_obs::take_local(), workers * wall, b.objective);
                    }
                }
                Err(e) => {
                    for _ in 0..b.size {
                        tally.record(Err(format!("worker panic: {e}")));
                        answers.push(Answer {
                            id: None,
                            value: f64::NAN,
                        });
                    }
                }
            }
            p.batches.push(b);
            p.answers.push(answers);
        }
        p.cycles += 1;
        if p.cycles % ROUND == 0 {
            last_round_ns = p.busy_ns - round_start;
        }
    }
    p
}

/// Continue while the next round is expected to end less than half a
/// round past `target_ns`.
fn within(target_ns: u64) -> impl Fn(usize, u64, u64) -> bool {
    move |cycles, busy, last| cycles == 0 || busy + last / 2 < target_ns
}

/// Runs the workload.
pub fn run(cfg: &Config, trace: bool) -> Result<Outcome, String> {
    let reps_n = cfg.setup_reps.max(1);
    let mut reps = Vec::new();
    for rep in 0..reps_n - 1 {
        let start = setup::rep_start(rep);
        let mut t = SetupTimes::default();
        let venues = setup::build_venues(cfg.venues.iter().map(|p| &p.spec), &mut t);
        drop(
            venues
                .iter()
                .map(|v| setup::cold_tree(v, &mut t))
                .collect::<Vec<_>>(),
        );
        t.total_s = setup::secs(start);
        reps.push(t);
    }
    let start = setup::rep_start(reps_n - 1);
    let mut t = SetupTimes::default();
    let venues = setup::build_venues(cfg.venues.iter().map(|p| &p.spec), &mut t);
    let trees: Vec<VipTree<'_>> = venues.iter().map(|v| setup::cold_tree(v, &mut t)).collect();
    t.total_s = setup::secs(start);
    reps.push(t);
    let setup = SetupTimes::median(&reps);
    let _ = ifls_obs::take_local();

    let target_ns = (cfg.seconds * 1e9) as u64;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut ctx = Context::default();
    ifls_obs::set_enabled(false);
    let timed = if trace {
        // The traced pass runs the standard window; its first cycle runs
        // untraced beforehand, and the ratio of the two passes' wall
        // times over that cycle is the tracing overhead.
        let a = pass(cfg, &venues, &trees, &mut tally, None, 1, |_, _, _| true);
        let mut ledger = Ledger::default();
        ifls_obs::set_enabled(true);
        let _ = ifls_obs::take_local();
        let b = pass(
            cfg,
            &venues,
            &trees,
            &mut tally,
            Some(&mut ledger),
            usize::MAX,
            within(target_ns),
        );
        ifls_obs::set_enabled(false);
        for (x, y) in a.answers.iter().flatten().zip(b.answers.iter().flatten()) {
            if let Err(e) = check::compare(*y, *x) {
                tally.fail(format!("traced answer differs: {e}"));
            }
        }
        ledger.write(&mut metrics);
        metrics.set(
            "core.parallel.busy_share",
            ratio(ledger.solver_ns as f64, ledger.base_ns as f64),
        );
        let first = a.batches.len();
        metrics.set(
            "obs.trace_overhead",
            ratio(b.walls_ns(0..first), a.walls_ns(0..first)),
        );
        ctx.raw("ledger", ledger.balance_json());
        b
    } else {
        pass(
            cfg,
            &venues,
            &trees,
            &mut tally,
            None,
            usize::MAX,
            within(target_ns),
        )
    };

    // References: single-query `api::solve` on a seeded sample of each
    // venue's answers, outside the timed window.
    let mut rng = Rng::new(mix(cfg.seed, 0x5EF));
    let mut checked = 0;
    for (i, plan) in cfg.venues.iter().enumerate() {
        let mine: Vec<(usize, usize)> = timed
            .batches
            .iter()
            .enumerate()
            .filter(|(_, b)| b.venue == i)
            .flat_map(|(bi, b)| (0..b.size).map(move |q| (bi, q)))
            .collect();
        for pick in rng.sample(mine.len(), plan.references) {
            let (bi, q) = mine[pick];
            if timed.answers[bi][q].value.is_nan() {
                continue; // already counted as failed
            }
            let b = &timed.batches[bi];
            let query = queries(cfg, &venues[i], b).swap_remove(q);
            let spec = SolveSpec {
                objective: b.objective,
                ..SolveSpec::default()
            };
            checked += 1;
            match api::solve(
                &trees[i],
                &query.clients,
                &query.existing,
                &query.candidates,
                &spec,
                &Budget::unlimited(),
            ) {
                Ok(want) => {
                    if let Err(e) = check::compare(timed.answers[bi][q], Answer::of(&want)) {
                        tally.fail(format!(
                            "{e} ({} {} batch query {q})",
                            plan.spec.name,
                            b.objective.name()
                        ));
                    }
                }
                Err(e) => tally.fail(format!("reference panic: {e}")),
            }
        }
    }

    let queries_n: usize = timed.batches.iter().map(|b| b.size).sum();
    let busy_s = timed.busy_ns as f64 / 1e9;
    metrics.set("setup_s", setup.total_s);
    metrics.set(
        "p50_ms",
        stats::nearest_rank(&timed.walls_ms, 50.0).unwrap_or(0.0),
    );
    metrics.set(
        "p99_ms",
        stats::nearest_rank(&timed.walls_ms, 99.0).unwrap_or(0.0),
    );
    metrics.set("qps", ratio(queries_n as f64, busy_s));
    metrics.set(
        "workloads.gen_ms",
        ratio(timed.gen_ns as f64, queries_n as f64) / 1e6,
    );
    setup.write(&mut metrics);

    let plans: Vec<String> = cfg
        .venues
        .iter()
        .map(|p| {
            format!(
                "{}:{{\"fe\":{},\"fn\":{},\"batch\":[{},{},{}],\"references\":{}}}",
                crate::json::string(p.spec.name),
                p.spec.fe,
                p.spec.fn_,
                p.batch[0],
                p.batch[1],
                p.batch[2],
                p.references
            )
        })
        .collect();
    let batches: Vec<String> = timed
        .batches
        .iter()
        .zip(&timed.walls_ms)
        .map(|(b, ms)| {
            format!(
                "[{},{},{},{}]",
                crate::json::string(cfg.venues[b.venue].spec.name),
                crate::json::string(b.objective.name()),
                b.size,
                crate::json::num(*ms)
            )
        })
        .collect();
    ctx.raw("venues", format!("{{{}}}", plans.join(",")))
        .raw("batch_walls_ms", format!("[{}]", batches.join(",")))
        .num("clients", cfg.clients as f64)
        .num("threads", cfg.threads as f64)
        .num("setup_reps", reps_n as f64)
        .num("cycles", timed.cycles as f64)
        .num("batches", timed.batches.len() as f64)
        .num("queries", queries_n as f64)
        .num("timed_s", busy_s)
        .str("latency_unit", "batch")
        .num("references_checked", checked as f64);
    Ok(Outcome {
        tally,
        metrics,
        context: ctx,
    })
}
