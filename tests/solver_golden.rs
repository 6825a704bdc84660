//! Golden solver table: answers, resolutions, budget checkpoints and every
//! deterministic `QueryStats` counter for a fixed set of seeded queries.
//!
//! Refactors of the solver internals must leave every line of [`GOLDEN`]
//! unchanged. Each row renders one solve as one line of text; the test
//! rebuilds the table and reports every line that differs, with the
//! expected and the actual rendering side by side.
//!
//! Rows, per venue (a seeded grid and a seeded random venue):
//!
//! * every objective on the serial efficient solver, cache on and off,
//!   under three budgets: unlimited, a distance cap at half the unlimited
//!   run's `dist_computations`, and a deterministic cancel at half the
//!   checkpoints the unlimited run crosses (`ck` = checkpoints crossed);
//! * a 3-query batch through `api::solve_batch` and through `BatchRunner`,
//!   both at 2 threads. `BatchRunner` rows omit the cache counters: its
//!   persistent per-worker caches make the hit/miss split depend on which
//!   worker ran which query;
//! * MinMax top-3.
//!
//! Timing fields (`elapsed`, latency samples) are not deterministic and
//! are not recorded.

mod golden_support;

use ifls::core::api::{self, Algorithm, BatchQuery, Objective, QuerySummary, SolveSpec};
use ifls::core::{Budget, IflsQuery, QueryStats, Resolution};
use ifls::prelude::*;
use ifls::venues::{GridVenueSpec, RandomVenueSpec};

/// One seeded query plus a 3-query batch over the same venue.
struct Case {
    name: &'static str,
    tree: VipTree<'static>,
    query: IflsQuery,
    batch: Vec<IflsQuery>,
}

fn workload(venue: &Venue, clients: usize, fe: usize, fn_: usize, seed: u64) -> IflsQuery {
    let w = WorkloadBuilder::new(venue)
        .clients_uniform(clients)
        .existing_uniform(fe)
        .candidates_uniform(fn_)
        .seed(seed)
        .build();
    IflsQuery {
        clients: w.clients,
        existing: w.existing,
        candidates: w.candidates,
    }
}

/// The batch shares the main query's client set with its second query
/// (so batch paths share client legs) and adds an unrelated third query.
fn case(name: &'static str, venue: Venue, sizes: (usize, usize, usize), seed: u64) -> Case {
    let venue: &'static Venue = Box::leak(Box::new(venue));
    let tree = VipTree::build(venue, VipTreeConfig::default());
    let (c, fe, fn_) = sizes;
    let query = workload(venue, c, fe, fn_, seed);
    let other = workload(venue, c, fe, fn_, seed + 1);
    let shared_clients = IflsQuery {
        clients: query.clients.clone(),
        existing: other.existing,
        candidates: other.candidates,
    };
    let third = workload(venue, c / 2, fe, fn_, seed + 2);
    let batch = vec![query.clone(), shared_clients, third];
    Case {
        name,
        tree,
        query,
        batch,
    }
}

fn cases() -> Vec<Case> {
    let random = RandomVenueSpec {
        cells_x: 5,
        cells_y: 4,
        levels: 2,
        extra_door_prob: 0.35,
        cell_size: 9.0,
    }
    .build(0x901d_0002);
    vec![
        case(
            "grid",
            GridVenueSpec::new("golden-grid", 2, 30).build(),
            (80, 4, 10),
            0x901d_0001,
        ),
        case("random", random, (60, 3, 8), 0x901d_0010),
    ]
}

fn outcome_fields(answer: Option<PartitionId>, value: f64, res: &Resolution) -> String {
    let answer = answer.map_or_else(|| "none".to_string(), |n| n.index().to_string());
    let res_label = res.reason().map_or("exact", |r| r.label());
    format!(
        "answer={answer} value={:016x} res={res_label} gap={:016x}",
        value.to_bits(),
        res.gap().to_bits()
    )
}

fn stats_fields(s: &QueryStats, cache_fields: bool) -> String {
    let cache = if cache_fields {
        format!(
            "ch={} cm={} cb={}",
            s.cache_hits, s.cache_misses, s.cache_bytes
        )
    } else {
        "ch=- cm=- cb=-".to_string()
    };
    format!(
        "dc={} pv={} fr={} cp={} {cache} pk={}",
        s.dist_computations,
        s.point_via_lookups,
        s.facilities_retrieved,
        s.clients_pruned,
        s.peak_bytes
    )
}

fn summary_row(prefix: &str, ck: Option<u64>, s: &QuerySummary) -> String {
    let ck = ck.map_or_else(|| "-".to_string(), |k| k.to_string());
    format!(
        "{prefix} {} ck={ck} {}",
        outcome_fields(s.answer, s.value, &s.resolution),
        stats_fields(&s.stats, true)
    )
}

fn solve(case: &Case, spec: &SolveSpec, budget: &Budget) -> QuerySummary {
    let q = &case.query;
    api::solve(
        &case.tree,
        &q.clients,
        &q.existing,
        &q.candidates,
        spec,
        budget,
    )
    .expect("no worker panics in the golden runs")
}

fn rows_for(case: &Case) -> Vec<String> {
    let mut rows = Vec::new();
    let name = case.name;
    for objective in [Objective::MinMax, Objective::MinDist, Objective::MaxSum] {
        let obj = objective.name();
        for cache in [true, false] {
            let on = if cache { "on" } else { "off" };
            let spec = SolveSpec {
                objective,
                algorithm: Algorithm::Efficient,
                dist_cache: cache,
            };

            // Unlimited: stats from the free unlimited budget, the
            // checkpoint count from a budget that counts but never fires.
            let full = solve(case, &spec, &Budget::unlimited());
            let counting = Budget::unlimited().with_dist_cap(u64::MAX);
            let _ = solve(case, &spec, &counting);
            let crossed = counting.checkpoints_crossed();
            rows.push(summary_row(
                &format!("{name} {obj} serial cache={on} budget=unlimited"),
                Some(crossed),
                &full,
            ));

            let cap = full.stats.dist_computations / 2;
            let capped = Budget::unlimited().with_dist_cap(cap);
            let s = solve(case, &spec, &capped);
            rows.push(summary_row(
                &format!("{name} {obj} serial cache={on} budget=cap:{cap}"),
                Some(capped.checkpoints_crossed()),
                &s,
            ));

            let trip = crossed / 2;
            let cancel = Budget::unlimited().cancel_at_checkpoint(trip);
            let s = solve(case, &spec, &cancel);
            rows.push(summary_row(
                &format!("{name} {obj} serial cache={on} budget=cancel:{trip}"),
                Some(cancel.checkpoints_crossed()),
                &s,
            ));

            let batch: Vec<BatchQuery> = case
                .batch
                .iter()
                .map(|q| BatchQuery {
                    clients: q.clients.clone(),
                    existing: q.existing.clone(),
                    candidates: q.candidates.clone(),
                    budget: Budget::unlimited(),
                    ctx: None,
                })
                .collect();
            let out = api::solve_batch(&case.tree, 2, &batch, &spec)
                .expect("no worker panics in the golden runs");
            for (i, (s, _)) in out.iter().enumerate() {
                rows.push(summary_row(
                    &format!("{name} {obj} solve_batch2[{i}] cache={on} budget=unlimited"),
                    None,
                    s,
                ));
            }

            let out = golden_support::batch_runner(&case.tree, 2, cache, objective, &case.batch);
            for (i, (answer, value, res, stats)) in out.iter().enumerate() {
                rows.push(format!(
                    "{name} {obj} batch_runner2[{i}] cache={on} budget=unlimited {} ck=- {}",
                    outcome_fields(*answer, *value, res),
                    stats_fields(stats, false)
                ));
            }
        }
    }
    let q = &case.query;
    let top = EfficientIfls::new(&case.tree).run_topk(&q.clients, &q.existing, &q.candidates, 3);
    let top: Vec<String> = top
        .iter()
        .map(|(n, v)| format!("{}:{:016x}", n.index(), v.to_bits()))
        .collect();
    rows.push(format!("{name} minmax topk3 [{}]", top.join(",")));
    rows
}

#[test]
fn solver_outputs_match_the_golden_table() {
    let actual: Vec<String> = cases().iter().flat_map(rows_for).collect();
    let expected: Vec<&str> = GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mut diffs = Vec::new();
    for i in 0..actual.len().max(expected.len()) {
        let want = expected.get(i).copied().unwrap_or("<missing>");
        let got = actual.get(i).map_or("<missing>", String::as_str);
        if want != got {
            diffs.push(format!("row {i}\n  expected: {want}\n  actual:   {got}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} of {} golden rows differ:\n{}\n\nfull actual table:\n{}",
        diffs.len(),
        actual.len(),
        diffs.join("\n"),
        actual.join("\n")
    );
}

/// The expected table, one row per line.
const GOLDEN: &str = "
grid minmax serial cache=on budget=unlimited answer=28 value=4038c0644f8953b5 res=exact gap=0000000000000000 ck=636 dc=841 pv=312 fr=348 cp=73 ch=102 cm=739 cb=53072 pk=32662
grid minmax serial cache=on budget=cap:420 answer=32 value=4038c0644f8953b5 res=dist_cap gap=4038c0644f8953b5 ck=147 dc=424 pv=105 fr=141 cp=11 ch=14 cm=410 cb=31384 pk=25806
grid minmax serial cache=on budget=cancel:318 answer=28 value=4038c0644f8953b5 res=cancelled gap=402f10607d8278d0 ck=319 dc=685 pv=233 fr=269 cp=30 ch=69 cm=616 cb=35728 pk=32042
grid minmax solve_batch2[0] cache=on budget=unlimited answer=28 value=4038c0644f8953b5 res=exact gap=0000000000000000 ck=- dc=841 pv=312 fr=348 cp=73 ch=102 cm=739 cb=53072 pk=32662
grid minmax solve_batch2[1] cache=on budget=unlimited answer=26 value=403ea4bbe15d0154 res=exact gap=0000000000000000 ck=- dc=1002 pv=448 fr=475 cp=68 ch=173 cm=829 cb=53896 pk=33354
grid minmax solve_batch2[2] cache=on budget=unlimited answer=14 value=40342b1f899bad00 res=exact gap=0000000000000000 ck=- dc=635 pv=261 fr=270 cp=27 ch=95 cm=540 cb=31392 pk=23742
grid minmax batch_runner2[0] cache=on budget=unlimited answer=28 value=4038c0644f8953b5 res=exact gap=0000000000000000 ck=- dc=841 pv=312 fr=348 cp=73 ch=- cm=- cb=- pk=32662
grid minmax batch_runner2[1] cache=on budget=unlimited answer=26 value=403ea4bbe15d0154 res=exact gap=0000000000000000 ck=- dc=1002 pv=448 fr=475 cp=68 ch=- cm=- cb=- pk=33354
grid minmax batch_runner2[2] cache=on budget=unlimited answer=14 value=40342b1f899bad00 res=exact gap=0000000000000000 ck=- dc=635 pv=261 fr=270 cp=27 ch=- cm=- cb=- pk=23742
grid minmax serial cache=off budget=unlimited answer=28 value=4038c0644f8953b5 res=exact gap=0000000000000000 ck=636 dc=841 pv=312 fr=348 cp=73 ch=0 cm=0 cb=0 pk=32662
grid minmax serial cache=off budget=cap:420 answer=32 value=4038c0644f8953b5 res=dist_cap gap=4038c0644f8953b5 ck=147 dc=424 pv=105 fr=141 cp=11 ch=0 cm=0 cb=0 pk=25806
grid minmax serial cache=off budget=cancel:318 answer=28 value=4038c0644f8953b5 res=cancelled gap=402f10607d8278d0 ck=319 dc=685 pv=233 fr=269 cp=30 ch=0 cm=0 cb=0 pk=32042
grid minmax solve_batch2[0] cache=off budget=unlimited answer=28 value=4038c0644f8953b5 res=exact gap=0000000000000000 ck=- dc=841 pv=312 fr=348 cp=73 ch=0 cm=0 cb=0 pk=32662
grid minmax solve_batch2[1] cache=off budget=unlimited answer=26 value=403ea4bbe15d0154 res=exact gap=0000000000000000 ck=- dc=1002 pv=448 fr=475 cp=68 ch=0 cm=0 cb=0 pk=33354
grid minmax solve_batch2[2] cache=off budget=unlimited answer=14 value=40342b1f899bad00 res=exact gap=0000000000000000 ck=- dc=635 pv=261 fr=270 cp=27 ch=0 cm=0 cb=0 pk=23742
grid minmax batch_runner2[0] cache=off budget=unlimited answer=28 value=4038c0644f8953b5 res=exact gap=0000000000000000 ck=- dc=841 pv=312 fr=348 cp=73 ch=- cm=- cb=- pk=32662
grid minmax batch_runner2[1] cache=off budget=unlimited answer=26 value=403ea4bbe15d0154 res=exact gap=0000000000000000 ck=- dc=1002 pv=448 fr=475 cp=68 ch=- cm=- cb=- pk=33354
grid minmax batch_runner2[2] cache=off budget=unlimited answer=14 value=40342b1f899bad00 res=exact gap=0000000000000000 ck=- dc=635 pv=261 fr=270 cp=27 ch=- cm=- cb=- pk=23742
grid mindist serial cache=on budget=unlimited answer=32 value=4021ea2bad029a27 res=exact gap=0000000000000000 ck=640 dc=841 pv=312 fr=348 cp=74 ch=102 cm=739 cb=53072 pk=28034
grid mindist serial cache=on budget=cap:420 answer=4 value=4027110b11a113ef res=dist_cap gap=408cd54dd60958eb ck=147 dc=424 pv=105 fr=141 cp=11 ch=14 cm=410 cb=31384 pk=22042
grid mindist serial cache=on budget=cancel:320 answer=32 value=4021ea2bad029a25 res=cancelled gap=4066e0fec25f2448 ck=321 dc=693 pv=233 fr=269 cp=30 ch=69 cm=624 cb=35792 pk=27490
grid mindist solve_batch2[0] cache=on budget=unlimited answer=32 value=4021ea2bad029a27 res=exact gap=0000000000000000 ck=- dc=841 pv=312 fr=348 cp=74 ch=102 cm=739 cb=53072 pk=28034
grid mindist solve_batch2[1] cache=on budget=unlimited answer=26 value=40285e9949e3149d res=exact gap=0000000000000000 ck=- dc=1005 pv=451 fr=478 cp=74 ch=176 cm=829 cb=53896 pk=28486
grid mindist solve_batch2[2] cache=on budget=unlimited answer=14 value=40225f5567b182a2 res=exact gap=0000000000000000 ck=- dc=641 pv=267 fr=276 cp=32 ch=101 cm=540 cb=31392 pk=20474
grid mindist batch_runner2[0] cache=on budget=unlimited answer=32 value=408664b6984340b1 res=exact gap=0000000000000000 ck=- dc=841 pv=312 fr=348 cp=74 ch=- cm=- cb=- pk=28034
grid mindist batch_runner2[1] cache=on budget=unlimited answer=26 value=408e763f9c5bd9c4 res=exact gap=0000000000000000 ck=- dc=1005 pv=451 fr=478 cp=74 ch=- cm=- cb=- pk=28486
grid mindist batch_runner2[2] cache=on budget=unlimited answer=14 value=4076f72ac19de34a res=exact gap=0000000000000000 ck=- dc=641 pv=267 fr=276 cp=32 ch=- cm=- cb=- pk=20474
grid mindist serial cache=off budget=unlimited answer=32 value=4021ea2bad029a27 res=exact gap=0000000000000000 ck=640 dc=841 pv=312 fr=348 cp=74 ch=0 cm=0 cb=0 pk=28034
grid mindist serial cache=off budget=cap:420 answer=4 value=4027110b11a113ef res=dist_cap gap=408cd54dd60958eb ck=147 dc=424 pv=105 fr=141 cp=11 ch=0 cm=0 cb=0 pk=22042
grid mindist serial cache=off budget=cancel:320 answer=32 value=4021ea2bad029a25 res=cancelled gap=4066e0fec25f2448 ck=321 dc=693 pv=233 fr=269 cp=30 ch=0 cm=0 cb=0 pk=27490
grid mindist solve_batch2[0] cache=off budget=unlimited answer=32 value=4021ea2bad029a27 res=exact gap=0000000000000000 ck=- dc=841 pv=312 fr=348 cp=74 ch=0 cm=0 cb=0 pk=28034
grid mindist solve_batch2[1] cache=off budget=unlimited answer=26 value=40285e9949e3149d res=exact gap=0000000000000000 ck=- dc=1005 pv=451 fr=478 cp=74 ch=0 cm=0 cb=0 pk=28486
grid mindist solve_batch2[2] cache=off budget=unlimited answer=14 value=40225f5567b182a2 res=exact gap=0000000000000000 ck=- dc=641 pv=267 fr=276 cp=32 ch=0 cm=0 cb=0 pk=20474
grid mindist batch_runner2[0] cache=off budget=unlimited answer=32 value=408664b6984340b1 res=exact gap=0000000000000000 ck=- dc=841 pv=312 fr=348 cp=74 ch=- cm=- cb=- pk=28034
grid mindist batch_runner2[1] cache=off budget=unlimited answer=26 value=408e763f9c5bd9c4 res=exact gap=0000000000000000 ck=- dc=1005 pv=451 fr=478 cp=74 ch=- cm=- cb=- pk=28486
grid mindist batch_runner2[2] cache=off budget=unlimited answer=14 value=4076f72ac19de34a res=exact gap=0000000000000000 ck=- dc=641 pv=267 fr=276 cp=32 ch=- cm=- cb=- pk=20474
grid maxsum serial cache=on budget=unlimited answer=27 value=4037000000000000 res=exact gap=0000000000000000 ck=778 dc=850 pv=317 fr=353 cp=80 ch=103 cm=747 cb=53136 pk=28890
grid maxsum serial cache=on budget=cap:425 answer=4 value=4018000000000000 res=dist_cap gap=404f800000000000 ck=149 dc=426 pv=105 fr=141 cp=11 ch=14 cm=412 cb=31384 pk=23230
grid maxsum serial cache=on budget=cancel:389 answer=25 value=4033000000000000 res=cancelled gap=4031000000000000 ck=390 dc=737 pv=255 fr=291 cp=53 ch=80 cm=657 cb=36048 pk=28890
grid maxsum solve_batch2[0] cache=on budget=unlimited answer=27 value=4037000000000000 res=exact gap=0000000000000000 ck=- dc=850 pv=317 fr=353 cp=80 ch=103 cm=747 cb=53136 pk=28890
grid maxsum solve_batch2[1] cache=on budget=unlimited answer=25 value=4042800000000000 res=exact gap=0000000000000000 ck=- dc=1010 pv=470 fr=497 cp=80 ch=181 cm=829 cb=53896 pk=29566
grid maxsum solve_batch2[2] cache=on budget=unlimited answer=26 value=4035000000000000 res=exact gap=0000000000000000 ck=- dc=676 pv=304 fr=313 cp=40 ch=118 cm=558 cb=31528 pk=20378
grid maxsum batch_runner2[0] cache=on budget=unlimited answer=27 value=4037000000000000 res=exact gap=0000000000000000 ck=- dc=850 pv=317 fr=353 cp=80 ch=- cm=- cb=- pk=28890
grid maxsum batch_runner2[1] cache=on budget=unlimited answer=25 value=4042800000000000 res=exact gap=0000000000000000 ck=- dc=1010 pv=470 fr=497 cp=80 ch=- cm=- cb=- pk=29566
grid maxsum batch_runner2[2] cache=on budget=unlimited answer=26 value=4035000000000000 res=exact gap=0000000000000000 ck=- dc=676 pv=304 fr=313 cp=40 ch=- cm=- cb=- pk=20378
grid maxsum serial cache=off budget=unlimited answer=27 value=4037000000000000 res=exact gap=0000000000000000 ck=778 dc=850 pv=317 fr=353 cp=80 ch=0 cm=0 cb=0 pk=28890
grid maxsum serial cache=off budget=cap:425 answer=4 value=4018000000000000 res=dist_cap gap=404f800000000000 ck=149 dc=426 pv=105 fr=141 cp=11 ch=0 cm=0 cb=0 pk=23230
grid maxsum serial cache=off budget=cancel:389 answer=25 value=4033000000000000 res=cancelled gap=4031000000000000 ck=390 dc=737 pv=255 fr=291 cp=53 ch=0 cm=0 cb=0 pk=28890
grid maxsum solve_batch2[0] cache=off budget=unlimited answer=27 value=4037000000000000 res=exact gap=0000000000000000 ck=- dc=850 pv=317 fr=353 cp=80 ch=0 cm=0 cb=0 pk=28890
grid maxsum solve_batch2[1] cache=off budget=unlimited answer=25 value=4042800000000000 res=exact gap=0000000000000000 ck=- dc=1010 pv=470 fr=497 cp=80 ch=0 cm=0 cb=0 pk=29566
grid maxsum solve_batch2[2] cache=off budget=unlimited answer=26 value=4035000000000000 res=exact gap=0000000000000000 ck=- dc=676 pv=304 fr=313 cp=40 ch=0 cm=0 cb=0 pk=20378
grid maxsum batch_runner2[0] cache=off budget=unlimited answer=27 value=4037000000000000 res=exact gap=0000000000000000 ck=- dc=850 pv=317 fr=353 cp=80 ch=- cm=- cb=- pk=28890
grid maxsum batch_runner2[1] cache=off budget=unlimited answer=25 value=4042800000000000 res=exact gap=0000000000000000 ck=- dc=1010 pv=470 fr=497 cp=80 ch=- cm=- cb=- pk=29566
grid maxsum batch_runner2[2] cache=off budget=unlimited answer=26 value=4035000000000000 res=exact gap=0000000000000000 ck=- dc=676 pv=304 fr=313 cp=40 ch=- cm=- cb=- pk=20378
grid minmax topk3 [28:4038c0644f8953b5,29:4038c0644f8953b5,31:4038c0644f8953b5]
random minmax serial cache=on budget=unlimited answer=12 value=40457f30463cad1f res=exact gap=0000000000000000 ck=774 dc=958 pv=196 fr=215 cp=54 ch=104 cm=854 cb=53632 pk=25950
random minmax serial cache=on budget=cap:479 answer=29 value=404b40228018073e res=dist_cap gap=4046955c00eeac72 ck=251 dc=480 pv=73 fr=92 cp=17 ch=38 cm=442 cb=30240 pk=20158
random minmax serial cache=on budget=cancel:387 answer=12 value=40457f30463cad1f res=cancelled gap=4038ebb9b81f08fa ck=388 dc=653 pv=108 fr=127 cp=28 ch=55 cm=598 cb=33216 pk=22958
random minmax solve_batch2[0] cache=on budget=unlimited answer=12 value=40457f30463cad1f res=exact gap=0000000000000000 ck=- dc=958 pv=196 fr=215 cp=54 ch=104 cm=854 cb=53632 pk=25950
random minmax solve_batch2[1] cache=on budget=unlimited answer=8 value=4043927daf335364 res=exact gap=0000000000000000 ck=- dc=964 pv=239 fr=252 cp=48 ch=115 cm=849 cb=54496 pk=27150
random minmax solve_batch2[2] cache=on budget=unlimited answer=10 value=4040b6b3a6f55c37 res=exact gap=0000000000000000 ck=- dc=508 pv=68 fr=78 cp=25 ch=42 cm=466 cb=31008 pk=15010
random minmax batch_runner2[0] cache=on budget=unlimited answer=12 value=40457f30463cad1f res=exact gap=0000000000000000 ck=- dc=958 pv=196 fr=215 cp=54 ch=- cm=- cb=- pk=25950
random minmax batch_runner2[1] cache=on budget=unlimited answer=8 value=4043927daf335364 res=exact gap=0000000000000000 ck=- dc=964 pv=239 fr=252 cp=48 ch=- cm=- cb=- pk=27150
random minmax batch_runner2[2] cache=on budget=unlimited answer=10 value=4040b6b3a6f55c37 res=exact gap=0000000000000000 ck=- dc=508 pv=68 fr=78 cp=25 ch=- cm=- cb=- pk=15010
random minmax serial cache=off budget=unlimited answer=12 value=40457f30463cad1f res=exact gap=0000000000000000 ck=774 dc=958 pv=196 fr=215 cp=54 ch=0 cm=0 cb=0 pk=25950
random minmax serial cache=off budget=cap:479 answer=29 value=404b40228018073e res=dist_cap gap=4046955c00eeac72 ck=251 dc=480 pv=73 fr=92 cp=17 ch=0 cm=0 cb=0 pk=20158
random minmax serial cache=off budget=cancel:387 answer=12 value=40457f30463cad1f res=cancelled gap=4038ebb9b81f08fa ck=388 dc=653 pv=108 fr=127 cp=28 ch=0 cm=0 cb=0 pk=22958
random minmax solve_batch2[0] cache=off budget=unlimited answer=12 value=40457f30463cad1f res=exact gap=0000000000000000 ck=- dc=958 pv=196 fr=215 cp=54 ch=0 cm=0 cb=0 pk=25950
random minmax solve_batch2[1] cache=off budget=unlimited answer=8 value=4043927daf335364 res=exact gap=0000000000000000 ck=- dc=964 pv=239 fr=252 cp=48 ch=0 cm=0 cb=0 pk=27150
random minmax solve_batch2[2] cache=off budget=unlimited answer=10 value=4040b6b3a6f55c37 res=exact gap=0000000000000000 ck=- dc=508 pv=68 fr=78 cp=25 ch=0 cm=0 cb=0 pk=15010
random minmax batch_runner2[0] cache=off budget=unlimited answer=12 value=40457f30463cad1f res=exact gap=0000000000000000 ck=- dc=958 pv=196 fr=215 cp=54 ch=- cm=- cb=- pk=25950
random minmax batch_runner2[1] cache=off budget=unlimited answer=8 value=4043927daf335364 res=exact gap=0000000000000000 ck=- dc=964 pv=239 fr=252 cp=48 ch=- cm=- cb=- pk=27150
random minmax batch_runner2[2] cache=off budget=unlimited answer=10 value=4040b6b3a6f55c37 res=exact gap=0000000000000000 ck=- dc=508 pv=68 fr=78 cp=25 ch=- cm=- cb=- pk=15010
random mindist serial cache=on budget=unlimited answer=12 value=402e00c6a89d5e14 res=exact gap=0000000000000000 ck=800 dc=959 pv=198 fr=217 cp=55 ch=105 cm=854 cb=53632 pk=23958
random mindist serial cache=on budget=cap:479 answer=29 value=40348938067cccf4 res=dist_cap gap=408920a8826528f6 ck=251 dc=480 pv=73 fr=92 cp=17 ch=38 cm=442 cb=30240 pk=18146
random mindist serial cache=on budget=cancel:400 answer=12 value=402e00c6a89d5e14 res=cancelled gap=4063d21cf7560c7c ck=401 dc=661 pv=108 fr=127 cp=29 ch=55 cm=606 cb=33344 pk=21186
random mindist solve_batch2[0] cache=on budget=unlimited answer=12 value=402e00c6a89d5e14 res=exact gap=0000000000000000 ck=- dc=959 pv=198 fr=217 cp=55 ch=105 cm=854 cb=53632 pk=23958
random mindist solve_batch2[1] cache=on budget=unlimited answer=8 value=4030408562e110fe res=exact gap=0000000000000000 ck=- dc=975 pv=244 fr=257 cp=48 ch=118 cm=857 cb=54608 pk=23426
random mindist solve_batch2[2] cache=on budget=unlimited answer=16 value=40287a35a24cd5a4 res=exact gap=0000000000000000 ck=- dc=509 pv=69 fr=79 cp=26 ch=43 cm=466 cb=31008 pk=14002
random mindist batch_runner2[0] cache=on budget=unlimited answer=12 value=408c20ba3e138833 res=exact gap=0000000000000000 ck=- dc=959 pv=198 fr=217 cp=55 ch=- cm=- cb=- pk=23958
random mindist batch_runner2[1] cache=on budget=unlimited answer=8 value=408e78fa1965ffdc res=exact gap=0000000000000000 ck=- dc=975 pv=244 fr=257 cp=48 ch=- cm=- cb=- pk=23426
random mindist batch_runner2[2] cache=on budget=unlimited answer=16 value=4076f2924828084a res=exact gap=0000000000000000 ck=- dc=509 pv=69 fr=79 cp=26 ch=- cm=- cb=- pk=14002
random mindist serial cache=off budget=unlimited answer=12 value=402e00c6a89d5e14 res=exact gap=0000000000000000 ck=800 dc=959 pv=198 fr=217 cp=55 ch=0 cm=0 cb=0 pk=23958
random mindist serial cache=off budget=cap:479 answer=29 value=40348938067cccf4 res=dist_cap gap=408920a8826528f6 ck=251 dc=480 pv=73 fr=92 cp=17 ch=0 cm=0 cb=0 pk=18146
random mindist serial cache=off budget=cancel:400 answer=12 value=402e00c6a89d5e14 res=cancelled gap=4063d21cf7560c7c ck=401 dc=661 pv=108 fr=127 cp=29 ch=0 cm=0 cb=0 pk=21186
random mindist solve_batch2[0] cache=off budget=unlimited answer=12 value=402e00c6a89d5e14 res=exact gap=0000000000000000 ck=- dc=959 pv=198 fr=217 cp=55 ch=0 cm=0 cb=0 pk=23958
random mindist solve_batch2[1] cache=off budget=unlimited answer=8 value=4030408562e110fe res=exact gap=0000000000000000 ck=- dc=975 pv=244 fr=257 cp=48 ch=0 cm=0 cb=0 pk=23426
random mindist solve_batch2[2] cache=off budget=unlimited answer=16 value=40287a35a24cd5a4 res=exact gap=0000000000000000 ck=- dc=509 pv=69 fr=79 cp=26 ch=0 cm=0 cb=0 pk=14002
random mindist batch_runner2[0] cache=off budget=unlimited answer=12 value=408c20ba3e138833 res=exact gap=0000000000000000 ck=- dc=959 pv=198 fr=217 cp=55 ch=- cm=- cb=- pk=23958
random mindist batch_runner2[1] cache=off budget=unlimited answer=8 value=408e78fa1965ffdc res=exact gap=0000000000000000 ck=- dc=975 pv=244 fr=257 cp=48 ch=- cm=- cb=- pk=23426
random mindist batch_runner2[2] cache=off budget=unlimited answer=16 value=4076f2924828084a res=exact gap=0000000000000000 ck=- dc=509 pv=69 fr=79 cp=26 ch=- cm=- cb=- pk=14002
random maxsum serial cache=on budget=unlimited answer=6 value=403b000000000000 res=exact gap=0000000000000000 ck=903 dc=986 pv=208 fr=227 cp=60 ch=112 cm=874 cb=53920 pk=24478
random maxsum serial cache=on budget=cap:493 answer=37 value=4020000000000000 res=dist_cap gap=4044800000000000 ck=258 dc=494 pv=76 fr=95 cp=17 ch=40 cm=454 cb=30528 pk=19030
random maxsum serial cache=on budget=cancel:451 answer=29 value=4026000000000000 res=cancelled gap=403d000000000000 ck=452 dc=724 pv=125 fr=144 cp=31 ch=65 cm=659 cb=34224 pk=22634
random maxsum solve_batch2[0] cache=on budget=unlimited answer=6 value=403b000000000000 res=exact gap=0000000000000000 ck=- dc=986 pv=208 fr=227 cp=60 ch=112 cm=874 cb=53920 pk=24478
random maxsum solve_batch2[1] cache=on budget=unlimited answer=37 value=4042800000000000 res=exact gap=0000000000000000 ck=- dc=1016 pv=280 fr=293 cp=60 ch=129 cm=887 cb=55064 pk=24374
random maxsum solve_batch2[2] cache=on budget=unlimited answer=10 value=4026000000000000 res=exact gap=0000000000000000 ck=- dc=523 pv=81 fr=91 cp=30 ch=47 cm=476 cb=31136 pk=13934
random maxsum batch_runner2[0] cache=on budget=unlimited answer=6 value=403b000000000000 res=exact gap=0000000000000000 ck=- dc=986 pv=208 fr=227 cp=60 ch=- cm=- cb=- pk=24478
random maxsum batch_runner2[1] cache=on budget=unlimited answer=37 value=4042800000000000 res=exact gap=0000000000000000 ck=- dc=1016 pv=280 fr=293 cp=60 ch=- cm=- cb=- pk=24374
random maxsum batch_runner2[2] cache=on budget=unlimited answer=10 value=4026000000000000 res=exact gap=0000000000000000 ck=- dc=523 pv=81 fr=91 cp=30 ch=- cm=- cb=- pk=13934
random maxsum serial cache=off budget=unlimited answer=6 value=403b000000000000 res=exact gap=0000000000000000 ck=903 dc=986 pv=208 fr=227 cp=60 ch=0 cm=0 cb=0 pk=24478
random maxsum serial cache=off budget=cap:493 answer=37 value=4020000000000000 res=dist_cap gap=4044800000000000 ck=258 dc=494 pv=76 fr=95 cp=17 ch=0 cm=0 cb=0 pk=19030
random maxsum serial cache=off budget=cancel:451 answer=29 value=4026000000000000 res=cancelled gap=403d000000000000 ck=452 dc=724 pv=125 fr=144 cp=31 ch=0 cm=0 cb=0 pk=22634
random maxsum solve_batch2[0] cache=off budget=unlimited answer=6 value=403b000000000000 res=exact gap=0000000000000000 ck=- dc=986 pv=208 fr=227 cp=60 ch=0 cm=0 cb=0 pk=24478
random maxsum solve_batch2[1] cache=off budget=unlimited answer=37 value=4042800000000000 res=exact gap=0000000000000000 ck=- dc=1016 pv=280 fr=293 cp=60 ch=0 cm=0 cb=0 pk=24374
random maxsum solve_batch2[2] cache=off budget=unlimited answer=10 value=4026000000000000 res=exact gap=0000000000000000 ck=- dc=523 pv=81 fr=91 cp=30 ch=0 cm=0 cb=0 pk=13934
random maxsum batch_runner2[0] cache=off budget=unlimited answer=6 value=403b000000000000 res=exact gap=0000000000000000 ck=- dc=986 pv=208 fr=227 cp=60 ch=- cm=- cb=- pk=24478
random maxsum batch_runner2[1] cache=off budget=unlimited answer=37 value=4042800000000000 res=exact gap=0000000000000000 ck=- dc=1016 pv=280 fr=293 cp=60 ch=- cm=- cb=- pk=24374
random maxsum batch_runner2[2] cache=off budget=unlimited answer=10 value=4026000000000000 res=exact gap=0000000000000000 ck=- dc=523 pv=81 fr=91 cp=30 ch=- cm=- cb=- pk=13934
random minmax topk3 [12:40457f30463cad1f,3:40469b7f45ef7c61,6:4047525b48a3e258]
";
