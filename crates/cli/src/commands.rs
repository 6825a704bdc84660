//! Command execution for the `ifls` CLI.

use std::error::Error;
use std::fmt;

use ifls_core::api::{self, Algorithm, Objective, QuerySummary, SolveSpec, WorkloadIdent};
use ifls_core::{Budget, EfficientConfig, EfficientIfls, QueryStats, Resolution, WorkerPanic};
use ifls_indoor::{PartitionId, Venue};
use ifls_venues::{GridVenueSpec, McCategory, NamedVenue};
use ifls_viptree::{SnapshotInfo, VipTree, VipTreeConfig};
use ifls_workloads::{real_setting_facilities, Workload, WorkloadBuilder};

use crate::args::{Command, CommonArgs, MetricsFormat};

/// Errors raised while executing a command.
#[derive(Debug)]
pub enum CommandError {
    /// The venue spec could not be understood or loaded.
    BadVenueSpec(String),
    /// Reading or writing a file failed.
    Io(std::io::Error),
    /// The venue file failed to parse.
    Parse(ifls_indoor::VenueParseError),
    /// A semantic problem (bad partition id, unsupported combination…).
    Invalid(String),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::BadVenueSpec(s) => write!(
                f,
                "cannot interpret venue spec `{s}` (try named:mc, grid:3x40, or a file path)"
            ),
            CommandError::Io(e) => write!(f, "i/o: {e}"),
            CommandError::Parse(e) => write!(f, "venue file: {e}"),
            CommandError::Invalid(s) => write!(f, "{s}"),
        }
    }
}

impl Error for CommandError {}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

/// Loads a venue from a spec string.
pub fn load_venue(spec: &str) -> Result<Venue, CommandError> {
    if let Some(name) = spec.strip_prefix("named:") {
        let nv = match name.to_ascii_lowercase().as_str() {
            "mc" => NamedVenue::MC,
            "ch" => NamedVenue::CH,
            "cph" => NamedVenue::CPH,
            "mzb" => NamedVenue::MZB,
            _ => return Err(CommandError::BadVenueSpec(spec.to_string())),
        };
        return Ok(nv.build());
    }
    if let Some(dims) = spec.strip_prefix("grid:") {
        let (levels, rooms) = dims
            .split_once('x')
            .and_then(|(l, r)| Some((l.parse().ok()?, r.parse().ok()?)))
            .ok_or_else(|| CommandError::BadVenueSpec(spec.to_string()))?;
        return Ok(GridVenueSpec::new(format!("grid-{dims}"), levels, rooms).build());
    }
    let path = spec.strip_prefix("file:").unwrap_or(spec);
    let text = std::fs::read_to_string(path)?;
    Venue::from_text(&text).map_err(CommandError::Parse)
}

/// Obtains the query-serving VIP-tree: loaded from an `ifls-index/v1`
/// snapshot when `--index`/`--index-or-build` name one, built in-process
/// otherwise. A refused snapshot is fatal under `--index` (serving with a
/// silently rebuilt index would mask a stale artifact) and falls back to a
/// build only under `--index-or-build`. Returns whether the snapshot was
/// actually used.
fn obtain_tree<'v>(v: &'v Venue, a: &CommonArgs) -> Result<(VipTree<'v>, bool), CommandError> {
    if let Some(path) = &a.index {
        match VipTree::load_snapshot(v, std::path::Path::new(path)) {
            Ok(tree) => return Ok((tree, true)),
            Err(e) if a.index_or_build => {
                // The fallback is logged *and* counted: a fleet that silently
                // rebuilds on every start is a regression the snapshot
                // machinery exists to prevent.
                ifls_obs::counter_add(ifls_obs::Counter::SnapshotFallbacks, 1);
                eprintln!("index `{path}` refused ({e}); building in-process");
            }
            Err(e) => return Err(CommandError::Invalid(format!("index `{path}`: {e}"))),
        }
    }
    Ok((
        VipTree::build_with_threads(v, VipTreeConfig::default(), a.build_threads),
        false,
    ))
}

/// Builds the query budget from `--deadline-ms` / `--max-dist-computations`
/// (unlimited when neither is given). The deadline clock starts here, so it
/// covers solving only — index construction and workload generation are
/// provisioning, not serving.
fn build_budget(a: &CommonArgs) -> Budget {
    let mut b = Budget::unlimited();
    if let Some(ms) = a.deadline_ms {
        b = b.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(cap) = a.max_dist_computations {
        b = b.with_dist_cap(cap);
    }
    b
}

fn worker_panic_err(e: WorkerPanic) -> CommandError {
    CommandError::Invalid(format!("parallel worker failure: {e}"))
}

/// Extra report line for a degraded answer (empty for exact ones).
fn resolution_line(r: &Resolution, gap_unit: &str) -> String {
    match r {
        Resolution::Exact => String::new(),
        Resolution::Degraded { gap, reason } => format!(
            "\nDEGRADED answer ({}): best-so-far candidate, optimality gap <= {:.2} {gap_unit}",
            reason.label(),
            gap
        ),
    }
}

fn build_workload(venue: &Venue, a: &CommonArgs) -> Result<Workload, CommandError> {
    if let Some(path) = &a.workload_file {
        let text = std::fs::read_to_string(path)?;
        return ifls_workloads::workload_from_text(&text, venue)
            .map_err(|e| CommandError::Invalid(format!("workload file: {e}")));
    }
    if let Some(cat_idx) = a.category {
        let cat = McCategory::ALL
            .into_iter()
            .find(|c| c.index() == cat_idx)
            .ok_or_else(|| CommandError::Invalid(format!("no category {cat_idx} (0..=4)")))?;
        // Real setting needs a categorized venue; the helper panics
        // otherwise, so pre-check.
        if !venue.partitions().iter().any(|p| p.category().is_some()) {
            return Err(CommandError::Invalid(
                "the real setting (--category) needs a categorized venue (named:mc)".into(),
            ));
        }
        let (existing, candidates) = real_setting_facilities(venue, cat);
        let b = WorkloadBuilder::new(venue).seed(a.seed);
        let b = match a.sigma {
            Some(s) => b.clients_normal(a.clients, s),
            None => b.clients_uniform(a.clients),
        };
        let mut w = b.build();
        w.existing = existing;
        w.candidates = candidates;
        return Ok(w);
    }
    let b = WorkloadBuilder::new(venue)
        .existing_uniform(a.fe)
        .candidates_uniform(a.fn_)
        .seed(a.seed);
    let b = match a.sigma {
        Some(s) => b.clients_normal(a.clients, s),
        None => b.clients_uniform(a.clients),
    };
    Ok(b.build())
}

fn describe_partition(venue: &Venue, p: PartitionId) -> String {
    format!(
        "{p} (`{}`, level {})",
        venue.partition(p).name(),
        venue.partition(p).level_min()
    )
}

fn stats_line(stats: &QueryStats) -> String {
    let cache = match stats.cache_hit_rate() {
        Some(rate) => {
            let warm = if stats.cache_warm_bytes > 0 {
                format!(", warm {:.1} KiB", stats.cache_warm_bytes as f64 / 1024.0)
            } else {
                String::new()
            };
            format!(
                ", cache {:.0}% hits ({:.1} KiB{warm})",
                rate * 100.0,
                stats.cache_bytes as f64 / 1024.0
            )
        }
        None => String::new(),
    };
    // Percentiles come from the per-run latency histogram.
    let latency = if stats.latencies.count() > 0 {
        format!(
            ", latency p50/p95/p99 {:?}/{:?}/{:?} ({} samples)",
            std::time::Duration::from_nanos(stats.latencies.p50_ns()),
            std::time::Duration::from_nanos(stats.latencies.p95_ns()),
            std::time::Duration::from_nanos(stats.latencies.p99_ns()),
            stats.latencies.count()
        )
    } else {
        String::new()
    };
    let index = if stats.index_build_ns > 0 {
        format!(
            ", index {} in {:?}",
            if stats.index_from_snapshot {
                "loaded"
            } else {
                "built"
            },
            std::time::Duration::from_nanos(stats.index_build_ns)
        )
    } else {
        String::new()
    };
    format!(
        "time {:?}, {} distance computations, {} facilities retrieved, {} clients pruned, {:.2} MiB peak{cache}{latency}{index}",
        stats.elapsed,
        stats.dist_computations,
        stats.facilities_retrieved,
        stats.clients_pruned,
        stats.peak_mib()
    )
}

/// Serializes the final result and [`QueryStats`] as one JSON object via
/// the shared `ifls-stats/v1` encoder in [`ifls_core::api`] — the same
/// bytes `ifls serve` puts on the wire.
fn stats_json_line(
    venue: &Venue,
    a: &CommonArgs,
    w: &Workload,
    objective: Objective,
    algorithm: Algorithm,
    s: &QuerySummary,
) -> String {
    api::stats_json_line(
        &WorkloadIdent {
            venue: venue.name(),
            clients: w.clients.len(),
            existing: w.existing.len(),
            candidates: w.candidates.len(),
            seed: a.seed,
        },
        objective,
        algorithm,
        s,
    )
}

/// Renders the `ifls trace` report over a validated `ifls-trace/v1` dump:
/// headline counts, the top-N slowest-request table, and the per-phase
/// self-time breakdown — or one machine-readable summary object under
/// `--json`.
fn render_trace_report(
    input: &str,
    summary: &ifls_obs::TraceSummary,
    traces: &[ifls_obs::RequestTrace],
    top: usize,
    json: bool,
) -> String {
    if json {
        return format!(
            concat!(
                "{{\"schema\":\"ifls-trace-summary/v1\",\"requests\":{},",
                "\"degraded\":{},\"shed\":{},\"panicked\":{},",
                "\"slo_violations\":{},\"spans\":{}}}"
            ),
            summary.requests,
            summary.degraded,
            summary.shed,
            summary.panicked,
            summary.slo_violations,
            summary.spans,
        );
    }
    let mut out = format!(
        "trace dump `{input}`: {} request(s) ({} degraded, {} shed, {} panicked, {} SLO violations)\n",
        summary.requests, summary.degraded, summary.shed, summary.panicked, summary.slo_violations
    );
    let mut by_latency: Vec<&ifls_obs::RequestTrace> = traces.iter().collect();
    by_latency.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then(a.trace_id.cmp(&b.trace_id))
    });
    out.push_str("\nslowest requests:\n");
    out.push_str(&format!(
        "  {:>8} {:>6} {:>9} {:>10} {:>12} {:>12} {:>8}  flags\n",
        "trace", "status", "objective", "algorithm", "total", "queue wait", "dists"
    ));
    for t in by_latency.iter().take(top) {
        let mut flags = Vec::new();
        if t.degraded {
            flags.push(if t.reason.is_empty() {
                "degraded".to_string()
            } else {
                format!("degraded({})", t.reason)
            });
        }
        if t.shed {
            flags.push("shed".into());
        }
        if t.panicked {
            flags.push("panicked".into());
        }
        if t.slo_violation {
            flags.push("slo".into());
        }
        out.push_str(&format!(
            "  {:>8} {:>6} {:>9} {:>10} {:>12?} {:>12?} {:>8}  {}\n",
            t.trace_id,
            t.status,
            if t.objective.is_empty() {
                "-"
            } else {
                &t.objective
            },
            if t.algorithm.is_empty() {
                "-"
            } else {
                &t.algorithm
            },
            std::time::Duration::from_nanos(t.total_ns),
            std::time::Duration::from_nanos(t.queue_wait_ns),
            t.dist_computations,
            if flags.is_empty() {
                "-".to_string()
            } else {
                flags.join(",")
            },
        ));
    }
    // Self-times attribute each nanosecond to exactly one phase, so the
    // fold across requests is a sound where-did-the-time-go breakdown.
    let mut phases: Vec<(&'static str, u64, u64)> = Vec::new();
    for t in traces {
        for s in &t.spans {
            let name = s.phase.name();
            match phases.iter_mut().find(|e| e.0 == name) {
                Some(e) => {
                    e.1 += s.self_ns;
                    e.2 += s.count;
                }
                None => phases.push((name, s.self_ns, s.count)),
            }
        }
    }
    phases.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total_self: u64 = phases.iter().map(|e| e.1).sum();
    if !phases.is_empty() {
        out.push_str("\nper-phase self time (all requests):\n");
        out.push_str(&format!(
            "  {:<16} {:>12} {:>7} {:>10}\n",
            "phase", "self", "share", "spans"
        ));
        for (name, self_ns, count) in &phases {
            let share = if total_self > 0 {
                100.0 * *self_ns as f64 / total_self as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<16} {:>12?} {:>6.1}% {:>10}\n",
                name,
                std::time::Duration::from_nanos(*self_ns),
                share,
                count,
            ));
        }
    }
    out
}

/// Executes a parsed command, returning its human-readable output.
pub fn execute(cmd: &Command) -> Result<String, CommandError> {
    match cmd {
        Command::Info { venue } => {
            let v = load_venue(venue)?;
            let tree = VipTree::build(&v, VipTreeConfig::default());
            let s = tree.stats();
            Ok(format!(
                "venue `{}`\n  partitions: {}\n  doors:      {}\n  levels:     {}\n  footprint:  {:.0} m x {:.0} m\nVIP-tree\n  nodes:      {} ({} leaves)\n  height:     {}\n  access doors (total): {}\n  matrices:   {:.1} KiB",
                v.name(),
                v.num_partitions(),
                v.num_doors(),
                v.num_levels(),
                v.bounds().width(),
                v.bounds().height(),
                s.nodes,
                s.leaves,
                s.height,
                s.access_doors,
                s.matrix_bytes as f64 / 1024.0,
            ))
        }
        Command::Export { venue, out } => {
            let v = load_venue(venue)?;
            let text = v.to_text();
            match out {
                Some(path) => {
                    std::fs::write(path, &text)?;
                    Ok(format!(
                        "wrote `{}` ({} partitions, {} doors) to {path}",
                        v.name(),
                        v.num_partitions(),
                        v.num_doors()
                    ))
                }
                None => Ok(text),
            }
        }
        Command::Query { venue, args } => {
            let v = load_venue(venue)?;
            // Tracing stays enabled for the rest of the process once any
            // query asks for it (a global off-switch could race another
            // traced query in the same process); the sink is drained before
            // the index phase so the report covers exactly this execution,
            // construction included.
            let obs_wanted = args.trace || args.metrics_out.is_some();
            if obs_wanted {
                ifls_obs::set_enabled(true);
                let _ = ifls_obs::take_local();
            }
            let index_started = std::time::Instant::now();
            let (tree, index_from_snapshot) = obtain_tree(&v, args)?;
            let index_build_ns = index_started.elapsed().as_nanos() as u64;
            let stamp = |stats: &mut QueryStats| {
                stats.index_build_ns = index_build_ns;
                stats.index_from_snapshot = index_from_snapshot;
            };
            let w = build_workload(&v, args)?;
            if let Some(path) = &args.save_workload {
                std::fs::write(path, ifls_workloads::workload_to_text(&w, &v))?;
            }
            let config = EfficientConfig {
                dist_cache: args.dist_cache,
                ..EfficientConfig::default()
            };
            let (objective, algorithm) = (args.objective, args.algorithm);
            let spec = SolveSpec {
                objective,
                algorithm,
                dist_cache: args.dist_cache,
            };
            let header = format!(
                "{} query, {} algorithm: |C|={}, |Fe|={}, |Fn|={}, seed {}",
                objective.name(),
                algorithm.name(),
                w.clients.len(),
                w.existing.len(),
                w.candidates.len(),
                args.seed
            );
            let budget = build_budget(args);
            let (body, summary) = if objective == Objective::MinMax && args.top > 1 {
                if algorithm != Algorithm::Efficient {
                    return Err(CommandError::Invalid(
                        "--top is supported by the efficient algorithm only".into(),
                    ));
                }
                let top = EfficientIfls::with_config(&tree, config).run_topk(
                    &w.clients,
                    &w.existing,
                    &w.candidates,
                    args.top,
                );
                let mut out = String::new();
                for (rank, (n, v_)) in top.iter().enumerate() {
                    out.push_str(&format!(
                        "#{}: {} — max distance {:.2} m\n",
                        rank + 1,
                        describe_partition(&v, *n),
                        v_
                    ));
                }
                (out, None)
            } else {
                let mut s = api::solve(
                    &tree,
                    &w.clients,
                    &w.existing,
                    &w.candidates,
                    &spec,
                    &budget,
                )
                .map_err(worker_panic_err)?;
                stamp(&mut s.stats);
                let text = match (objective, s.answer) {
                    (Objective::MinMax, Some(n)) => format!(
                        "answer: {} — max client distance {:.2} m{}\n{}",
                        describe_partition(&v, n),
                        s.value,
                        resolution_line(&s.resolution, objective.gap_unit()),
                        stats_line(&s.stats)
                    ),
                    (Objective::MinMax, None) => format!(
                        "no candidate improves any client (max distance stays {:.2} m){}\n{}",
                        s.value,
                        resolution_line(&s.resolution, objective.gap_unit()),
                        stats_line(&s.stats)
                    ),
                    (Objective::MinDist, Some(n)) => format!(
                        "answer: {} — average distance {:.2} m{}\n{}",
                        describe_partition(&v, n),
                        s.value,
                        resolution_line(&s.resolution, objective.gap_unit()),
                        stats_line(&s.stats)
                    ),
                    (Objective::MaxSum, Some(n)) => format!(
                        "answer: {} — captures {} of {} clients{}\n{}",
                        describe_partition(&v, n),
                        s.value as u64,
                        w.clients.len(),
                        resolution_line(&s.resolution, objective.gap_unit()),
                        stats_line(&s.stats)
                    ),
                    (_, None) => "no candidates".to_string(),
                };
                (text, Some(s))
            };
            if args.strict {
                if let Some(s) = &summary {
                    if let Resolution::Degraded { gap, reason } = &s.resolution {
                        return Err(CommandError::Invalid(format!(
                            "budget exhausted ({}) and --strict is set: refusing the degraded answer (optimality gap <= {gap:.2})",
                            reason.label()
                        )));
                    }
                }
            }
            let sink = if obs_wanted {
                Some(ifls_obs::take_local())
            } else {
                None
            };
            if let (Some(path), Some(sink)) = (&args.metrics_out, &sink) {
                let rendered = match args.metrics_format {
                    MetricsFormat::Text => ifls_obs::to_text(sink),
                    MetricsFormat::Jsonl => ifls_obs::to_jsonl(sink),
                    MetricsFormat::Prom => ifls_obs::to_prometheus(sink),
                };
                std::fs::write(path, rendered)?;
            }
            if args.stats_json {
                // Machine-readable mode: exactly one JSON object on stdout.
                let summary = summary.ok_or_else(|| {
                    CommandError::Invalid("--stats-json is not supported with --top".into())
                })?;
                return Ok(stats_json_line(
                    &v, args, &w, objective, algorithm, &summary,
                ));
            }
            let mut out = format!("{header}\n{body}");
            if args.trace {
                let sink = sink.as_ref().expect("trace implies a drained sink");
                out.push_str("\n\n");
                out.push_str(&ifls_obs::to_text(sink));
            }
            Ok(out)
        }
        Command::Render {
            venue,
            level,
            scale,
        } => {
            let v = load_venue(venue)?;
            let (lo, hi) = v.levels();
            if *level < lo || *level > hi {
                return Err(CommandError::Invalid(format!(
                    "level {level} outside the venue's range {lo}..={hi}"
                )));
            }
            Ok(ifls_venues::AsciiFloorplan::new(&v, *level, *scale).render())
        }
        Command::Path { venue, from, to } => {
            let v = load_venue(venue)?;
            let np = v.num_partitions() as u32;
            if *from >= np || *to >= np {
                return Err(CommandError::Invalid(format!(
                    "partition ids must be below {np}"
                )));
            }
            let tree = VipTree::build(&v, VipTreeConfig::default());
            let a = ifls_indoor::IndoorPoint::new(
                PartitionId::new(*from),
                v.partition(PartitionId::new(*from)).center(),
            );
            let b = ifls_indoor::IndoorPoint::new(
                PartitionId::new(*to),
                v.partition(PartitionId::new(*to)).center(),
            );
            let path = tree.shortest_path(&a, &b);
            let mut out = format!(
                "route {} -> {}: {:.2} m, {} doors\n",
                describe_partition(&v, a.partition),
                describe_partition(&v, b.partition),
                path.dist,
                path.doors.len()
            );
            for d in &path.doors {
                let door = v.door(*d);
                out.push_str(&format!(
                    "  {} at ({:.1}, {:.1}, L{})\n",
                    d,
                    door.pos().x,
                    door.pos().y,
                    door.pos().level
                ));
            }
            Ok(out)
        }
        Command::IndexBuild {
            venue,
            out,
            threads,
            warm,
        } => {
            let v = load_venue(venue)?;
            let started = std::time::Instant::now();
            let mut tree = VipTree::build_with_threads(&v, VipTreeConfig::default(), *threads);
            if *warm {
                let tier = tree.build_warm_tier(ifls_viptree::DEFAULT_WARM_BUDGET_BYTES, *threads);
                tree.set_warm_tier(Some(tier));
            }
            let build = started.elapsed();
            tree.save_snapshot(std::path::Path::new(out))
                .map_err(|e| CommandError::Invalid(format!("saving `{out}`: {e}")))?;
            // Re-read through the validating path so the reported figures
            // describe the artifact actually on disk.
            let info = SnapshotInfo::read(std::path::Path::new(out))
                .map_err(|e| CommandError::Invalid(format!("re-reading `{out}`: {e}")))?;
            Ok(format!(
                "wrote `{out}` ({} bytes, schema {})\n  venue:       `{}` fingerprint {}\n  nodes:       {} ({} partitions, {} doors)\n  arena:       {} entries\n  warm tier:   {} targets ({} cells, {} node mins)\n  checksum:    {:016x}\n  build time:  {build:?}",
                info.file_bytes,
                ifls_viptree::SNAPSHOT_SCHEMA,
                v.name(),
                info.fingerprint,
                info.num_nodes,
                info.num_partitions,
                info.num_doors,
                info.arena_entries,
                info.warm_targets,
                info.warm_cells,
                info.warm_node_mins,
                info.checksum,
            ))
        }
        Command::Serve { venue, args } => {
            let v = load_venue(venue)?;
            let server = ifls_serve::Server::start(v, args.clone())
                .map_err(|e| CommandError::Invalid(e.to_string()))?;
            // The banner goes straight to stdout (not the returned report):
            // a daemon never returns, and wrapper scripts need the resolved
            // ephemeral port before any request can be sent.
            println!("ifls-serve listening on http://{}", server.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            // Serve until a drain completes (SIGTERM or `POST /shutdown`
            // flips the acceptor to refuse and `wait` returns once every
            // accepted request has been answered) or the process is killed
            // outright (SIGKILL / SIGINT never reach this point).
            server.wait();
            Ok("ifls-serve drained and stopped".to_string())
        }
        Command::Trace { input, top, json } => {
            let text = std::fs::read_to_string(input)?;
            let (summary, traces) = ifls_obs::parse_trace_jsonl(&text)
                .map_err(|e| CommandError::Invalid(format!("`{input}`: {e}")))?;
            Ok(render_trace_report(input, &summary, &traces, *top, *json))
        }
        Command::IndexInspect { path } => {
            let info = SnapshotInfo::read(std::path::Path::new(path))
                .map_err(|e| CommandError::Invalid(format!("`{path}`: {e}")))?;
            Ok(format!(
                "snapshot `{path}` ({} bytes, schema {} v{})\n  fingerprint: {}\n  config:      leaf_max={} fanout={} vivid={}\n  partitions:  {}\n  doors:       {}\n  nodes:       {}\n  arena:       {} entries\n  warm tier:   {} targets ({} cells, {} node mins)\n  checksum:    {:016x}",
                info.file_bytes,
                ifls_viptree::snapshot_schema_for(info.version),
                info.version,
                info.fingerprint,
                info.config.leaf_max_partitions,
                info.config.max_fanout,
                info.config.vivid,
                info.num_partitions,
                info.num_doors,
                info.num_nodes,
                info.arena_entries,
                info.warm_targets,
                info.warm_cells,
                info.warm_node_mins,
                info.checksum,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn load_named_and_grid_venues() {
        assert_eq!(load_venue("named:cph").unwrap().num_partitions(), 76);
        let g = load_venue("grid:2x12").unwrap();
        assert_eq!(g.num_levels(), 2);
        assert!(matches!(
            load_venue("named:atlantis"),
            Err(CommandError::BadVenueSpec(_))
        ));
        assert!(matches!(
            load_venue("grid:notdims"),
            Err(CommandError::BadVenueSpec(_))
        ));
        assert!(matches!(
            load_venue("/no/such/file"),
            Err(CommandError::Io(_))
        ));
    }

    #[test]
    fn info_command_reports_statistics() {
        let cmd = parse(&v(&["info", "--venue", "grid:2x12"])).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("partitions: 15"), "{out}");
        assert!(out.contains("VIP-tree"), "{out}");
    }

    #[test]
    fn export_and_reload_round_trip() {
        let dir = std::env::temp_dir().join("ifls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.venue");
        let cmd = parse(&v(&[
            "export",
            "--venue",
            "grid:1x6",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        execute(&cmd).unwrap();
        let reloaded = load_venue(path.to_str().unwrap()).unwrap();
        // 6 rooms + 1 corridor segment.
        assert_eq!(reloaded.num_partitions(), 7);
    }

    #[test]
    fn query_all_objectives_and_algorithms() {
        for objective in ["minmax", "mindist", "maxsum"] {
            for algorithm in ["efficient", "baseline", "brute"] {
                let cmd = parse(&v(&[
                    "query",
                    "--venue",
                    "grid:2x16",
                    "--objective",
                    objective,
                    "--algorithm",
                    algorithm,
                    "--clients",
                    "40",
                    "--fe",
                    "2",
                    "--fn",
                    "4",
                    "--seed",
                    "3",
                ]))
                .unwrap();
                let out = execute(&cmd).unwrap();
                assert!(out.contains("answer"), "{objective}/{algorithm}: {out}");
            }
        }
    }

    #[test]
    fn no_dist_cache_flag_does_not_change_answers() {
        let ans = |s: &str| {
            s.lines()
                .find(|l| l.contains("answer"))
                .unwrap()
                .to_string()
        };
        for objective in ["minmax", "mindist", "maxsum"] {
            let run = |extra: &[&str]| {
                let mut argv = v(&[
                    "query",
                    "--venue",
                    "grid:2x16",
                    "--objective",
                    objective,
                    "--clients",
                    "40",
                    "--fe",
                    "2",
                    "--fn",
                    "5",
                    "--seed",
                    "4",
                ]);
                argv.extend(extra.iter().map(|s| s.to_string()));
                execute(&parse(&argv).unwrap()).unwrap()
            };
            assert_eq!(
                ans(&run(&[])),
                ans(&run(&["--no-dist-cache"])),
                "{objective} diverged under --no-dist-cache"
            );
        }
    }

    #[test]
    fn query_topk_lists_ranked_candidates() {
        let cmd = parse(&v(&[
            "query",
            "--venue",
            "grid:2x16",
            "--clients",
            "30",
            "--fe",
            "2",
            "--fn",
            "5",
            "--top",
            "3",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("#1:"), "{out}");
        assert!(out.contains("#3:"), "{out}");
    }

    #[test]
    fn workload_save_and_replay_produce_identical_answers() {
        let dir = std::env::temp_dir().join("ifls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replay.workload");
        let save = parse(&v(&[
            "query",
            "--venue",
            "grid:2x16",
            "--clients",
            "30",
            "--fe",
            "2",
            "--fn",
            "4",
            "--seed",
            "5",
            "--save-workload",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let first = execute(&save).unwrap();
        let replay = parse(&v(&[
            "query",
            "--venue",
            "grid:2x16",
            "--workload",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let second = execute(&replay).unwrap();
        // Same answer line (the stats line differs in timing).
        let ans = |s: &str| {
            s.lines()
                .find(|l| l.contains("answer"))
                .unwrap()
                .to_string()
        };
        assert_eq!(ans(&first), ans(&second));
    }

    #[test]
    fn traced_query_writes_jsonl_metrics_with_all_phases() {
        let dir = std::env::temp_dir().join("ifls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let cmd = parse(&v(&[
            "query",
            "--venue",
            "grid:2x16",
            "--clients",
            "40",
            "--fe",
            "2",
            "--fn",
            "4",
            "--trace",
            "--metrics-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        // The trace report rides along on stdout…
        assert!(out.contains("phase"), "{out}");
        assert!(out.contains("candidate_loop"), "{out}");
        // …and the JSONL file validates and names all ten phases.
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = ifls_obs::validate_jsonl(&text).unwrap();
        assert!(summary.has_meta);
        for phase in ifls_obs::Phase::ALL {
            assert!(
                summary.span_phases.iter().any(|p| p == phase.name()),
                "phase {} missing from {text}",
                phase.name()
            );
        }
        // Tracing is enabled before the index is built, so the build
        // phases carry real counts: the coordinator records exactly one
        // row-fill span regardless of worker count.
        assert!(
            text.contains("\"phase\":\"build_row_fill\",\"count\":1"),
            "{text}"
        );
        assert!(
            text.contains("\"name\":\"build_dijkstras\",\"value\":"),
            "{text}"
        );
        assert!(summary
            .histograms_with_percentiles
            .iter()
            .any(|h| h == "query_latency_ns"));
    }

    #[test]
    fn metrics_format_prom_writes_exposition_text() {
        let dir = std::env::temp_dir().join("ifls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let cmd = parse(&v(&[
            "query",
            "--venue",
            "grid:2x12",
            "--clients",
            "20",
            "--fe",
            "2",
            "--fn",
            "3",
            "--metrics-out",
            path.to_str().unwrap(),
            "--metrics-format",
            "prom",
        ]))
        .unwrap();
        execute(&cmd).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("# TYPE ifls_span_time_ns_total counter"),
            "{text}"
        );
        assert!(text.contains("phase=\"candidate_loop\""), "{text}");
    }

    #[test]
    fn stats_json_emits_one_valid_object() {
        let cmd = parse(&v(&[
            "query",
            "--venue",
            "grid:2x16",
            "--clients",
            "40",
            "--fe",
            "2",
            "--fn",
            "4",
            "--stats-json",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert_eq!(out.lines().count(), 1, "{out}");
        ifls_obs::validate_json_line(&out).unwrap();
        assert!(out.contains("\"schema\":\"ifls-stats/v1\""), "{out}");
        assert!(out.contains("\"max_distance_m\":"), "{out}");
        assert!(out.contains("\"p99_ns\":"), "{out}");
        // --top produces a ranked list, not one answer: no JSON shape for it.
        let topk = parse(&v(&[
            "query",
            "--venue",
            "grid:2x16",
            "--clients",
            "20",
            "--fe",
            "2",
            "--fn",
            "4",
            "--top",
            "2",
            "--stats-json",
        ]))
        .unwrap();
        assert!(matches!(execute(&topk), Err(CommandError::Invalid(_))));
    }

    #[test]
    fn stats_line_reports_latency_percentiles() {
        let cmd = parse(&v(&[
            "query",
            "--venue",
            "grid:2x12",
            "--clients",
            "20",
            "--fe",
            "2",
            "--fn",
            "3",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("latency p50/p95/p99"), "{out}");
    }

    #[test]
    fn index_build_inspect_and_serve_round_trip() {
        let dir = std::env::temp_dir().join("ifls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid2x16.idx");
        let idx = path.to_str().unwrap();
        let built = execute(
            &parse(&v(&[
                "index",
                "build",
                "--venue",
                "grid:2x16",
                "--out",
                idx,
                "--build-threads",
                "2",
            ]))
            .unwrap(),
        )
        .unwrap();
        assert!(built.contains("fingerprint"), "{built}");
        assert!(built.contains("checksum"), "{built}");

        let inspected =
            execute(&parse(&v(&["index", "inspect", "--index", idx])).unwrap()).unwrap();
        assert!(inspected.contains("ifls-index/v2"), "{inspected}");
        assert!(inspected.contains("vivid=true"), "{inspected}");
        assert!(inspected.contains("warm tier:   0 targets"), "{inspected}");

        // Serving from the snapshot answers exactly like building fresh.
        let ans = |s: &str| {
            s.lines()
                .find(|l| l.contains("answer"))
                .unwrap()
                .to_string()
        };
        let base = &[
            "query",
            "--venue",
            "grid:2x16",
            "--clients",
            "30",
            "--fe",
            "2",
            "--fn",
            "4",
            "--seed",
            "6",
        ];
        let fresh = execute(&parse(&v(base)).unwrap()).unwrap();
        let mut argv = v(base);
        argv.extend(["--index".to_string(), idx.to_string()]);
        let served = execute(&parse(&argv).unwrap()).unwrap();
        assert_eq!(ans(&fresh), ans(&served));
        assert!(fresh.contains("index built in"), "{fresh}");
        assert!(served.contains("index loaded in"), "{served}");
    }

    #[test]
    fn missing_index_is_fatal_unless_fallback_is_requested() {
        let base = &[
            "query",
            "--venue",
            "grid:2x12",
            "--clients",
            "20",
            "--fe",
            "2",
            "--fn",
            "3",
        ];
        let mut hard = v(base);
        hard.extend(["--index".to_string(), "/no/such/index.idx".to_string()]);
        assert!(matches!(
            execute(&parse(&hard).unwrap()),
            Err(CommandError::Invalid(_))
        ));
        let mut soft = v(base);
        soft.extend([
            "--index-or-build".to_string(),
            "/no/such/index.idx".to_string(),
        ]);
        let out = execute(&parse(&soft).unwrap()).unwrap();
        assert!(out.contains("answer"), "{out}");
        assert!(out.contains("index built in"), "{out}");
    }

    #[test]
    fn stale_index_is_refused_with_a_fingerprint_error() {
        let dir = std::env::temp_dir().join("ifls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.idx");
        let idx = path.to_str().unwrap();
        execute(
            &parse(&v(&[
                "index",
                "build",
                "--venue",
                "grid:2x12",
                "--out",
                idx,
            ]))
            .unwrap(),
        )
        .unwrap();
        // Same snapshot, different venue: the fingerprint gate refuses it.
        let err = execute(
            &parse(&v(&[
                "query",
                "--venue",
                "grid:2x16",
                "--index",
                idx,
                "--clients",
                "10",
            ]))
            .unwrap(),
        )
        .unwrap_err();
        match err {
            CommandError::Invalid(msg) => {
                assert!(msg.contains("fingerprint"), "{msg}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_json_reports_index_provenance() {
        let dir = std::env::temp_dir().join("ifls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("json.idx");
        let idx = path.to_str().unwrap();
        execute(
            &parse(&v(&[
                "index",
                "build",
                "--venue",
                "grid:2x12",
                "--out",
                idx,
            ]))
            .unwrap(),
        )
        .unwrap();
        let base = &[
            "query",
            "--venue",
            "grid:2x12",
            "--clients",
            "20",
            "--fe",
            "2",
            "--fn",
            "3",
            "--stats-json",
        ];
        let fresh = execute(&parse(&v(base)).unwrap()).unwrap();
        ifls_obs::validate_json_line(&fresh).unwrap();
        assert!(fresh.contains("\"index_from_snapshot\":false"), "{fresh}");
        assert!(fresh.contains("\"index_build_ns\":"), "{fresh}");
        let mut argv = v(base);
        argv.extend(["--index".to_string(), idx.to_string()]);
        let served = execute(&parse(&argv).unwrap()).unwrap();
        ifls_obs::validate_json_line(&served).unwrap();
        assert!(served.contains("\"index_from_snapshot\":true"), "{served}");
    }

    #[test]
    fn budgeted_query_reports_degraded_answer() {
        // A one-distance cap trips the first checkpoint on every solver.
        let base = &[
            "query",
            "--venue",
            "grid:2x16",
            "--clients",
            "40",
            "--fe",
            "2",
            "--fn",
            "6",
            "--seed",
            "3",
            "--max-dist-computations",
            "1",
        ];
        let out = execute(&parse(&v(base)).unwrap()).unwrap();
        assert!(out.contains("DEGRADED"), "{out}");
        assert!(out.contains("dist_cap"), "{out}");
        // The JSON shape carries the same information.
        let mut argv = v(base);
        argv.push("--stats-json".into());
        let json = execute(&parse(&argv).unwrap()).unwrap();
        ifls_obs::validate_json_line(&json).unwrap();
        assert!(json.contains("\"degraded\":true"), "{json}");
        assert!(json.contains("\"budget_reason\":\"dist_cap\""), "{json}");
        assert!(json.contains("\"optimality_gap\":"), "{json}");
        // --strict turns the degraded answer into a hard error.
        argv.push("--strict".into());
        assert!(matches!(
            execute(&parse(&argv).unwrap()),
            Err(CommandError::Invalid(_))
        ));
    }

    #[test]
    fn unbudgeted_query_stays_exact_even_under_strict() {
        let base = &[
            "query",
            "--venue",
            "grid:2x12",
            "--clients",
            "20",
            "--fe",
            "2",
            "--fn",
            "3",
            "--strict",
            "--stats-json",
        ];
        let json = execute(&parse(&v(base)).unwrap()).unwrap();
        assert!(json.contains("\"degraded\":false"), "{json}");
        assert!(json.contains("\"budget_reason\":null"), "{json}");
    }

    #[test]
    fn trace_command_reports_slowest_requests_and_phase_breakdown() {
        let dir = std::env::temp_dir().join("ifls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let traces = vec![
            ifls_obs::RequestTrace {
                trace_id: 7,
                status: 200,
                objective: "minmax".into(),
                algorithm: "efficient".into(),
                total_ns: 5_000_000,
                queue_wait_ns: 1_000,
                dist_computations: 42,
                spans: vec![ifls_obs::TraceSpan {
                    phase: ifls_obs::Phase::CandidateLoop,
                    depth: 0,
                    count: 1,
                    total_ns: 4_000_000,
                    self_ns: 4_000_000,
                }],
                ..ifls_obs::RequestTrace::default()
            },
            ifls_obs::RequestTrace {
                trace_id: 9,
                status: 200,
                objective: "minmax".into(),
                algorithm: "efficient".into(),
                total_ns: 9_000_000,
                degraded: true,
                gap: 2.5,
                reason: "deadline".into(),
                slo_violation: true,
                ..ifls_obs::RequestTrace::default()
            },
        ];
        std::fs::write(&path, ifls_obs::to_trace_jsonl(&traces, 8)).unwrap();
        let input = path.to_str().unwrap();
        let out = execute(&parse(&v(&["trace", "--input", input, "--top", "5"])).unwrap()).unwrap();
        assert!(out.contains("2 request(s) (1 degraded"), "{out}");
        assert!(out.contains("degraded(deadline)"), "{out}");
        assert!(out.contains("candidate_loop"), "{out}");
        // The slowest (degraded) request sorts first.
        let slow_line = out.lines().position(|l| l.contains("9ms")).unwrap();
        let fast_line = out.lines().position(|l| l.contains("5ms")).unwrap();
        assert!(slow_line < fast_line, "{out}");
        let json = execute(&parse(&v(&["trace", "--input", input, "--json"])).unwrap()).unwrap();
        assert!(
            json.contains("\"schema\":\"ifls-trace-summary/v1\""),
            "{json}"
        );
        assert!(json.contains("\"requests\":2"), "{json}");
        assert!(json.contains("\"slo_violations\":1"), "{json}");
        // A corrupt dump is a typed error, not a panic.
        std::fs::write(&path, "{\"type\":\"nonsense\"}\n").unwrap();
        assert!(matches!(
            execute(&parse(&v(&["trace", "--input", input])).unwrap()),
            Err(CommandError::Invalid(_))
        ));
    }

    #[test]
    fn query_real_setting_requires_categorized_venue() {
        let cmd = parse(&v(&[
            "query",
            "--venue",
            "grid:2x16",
            "--category",
            "1",
            "--clients",
            "10",
        ]))
        .unwrap();
        assert!(matches!(execute(&cmd), Err(CommandError::Invalid(_))));
    }

    #[test]
    fn path_command_prints_route() {
        let cmd = parse(&v(&[
            "path",
            "--venue",
            "grid:2x12",
            "--from",
            "2",
            "--to",
            "10",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("route"), "{out}");
        assert!(out.contains("m,"), "{out}");
        let bad = parse(&v(&[
            "path", "--venue", "grid:1x4", "--from", "0", "--to", "99",
        ]))
        .unwrap();
        assert!(matches!(execute(&bad), Err(CommandError::Invalid(_))));
    }
}
