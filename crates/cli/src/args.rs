//! Hand-rolled argument parsing for the `ifls` CLI (keeping to the
//! approved dependency set — no clap).

use std::fmt;

use ifls_core::api::{Algorithm, Objective};
use ifls_serve::ServeOptions;

/// Usage text printed on parse errors.
pub const USAGE: &str = "\
usage: ifls <command> [options]

commands:
  info    --venue <spec>                       venue and index statistics
  export  --venue <spec> [--out FILE]          write the venue text format
  query   --venue <spec> [workload] [solver]   answer an IFLS query
  path    --venue <spec> --from P --to P       shortest indoor route
  render  --venue <spec> [--level N] [--scale M] ASCII floorplan
  index build   --venue <spec> --out FILE [--build-threads N] [--cache-warm]
                                               build + save an ifls-index/v2 snapshot
  index inspect --index FILE                   describe a snapshot without loading it
  serve   --venue <spec> [server options]      long-lived HTTP/1.1 query daemon
  trace   --input FILE [--top N] [--json]      inspect an ifls-trace/v1 dump

venue specs:
  named:mc | named:ch | named:cph | named:mzb  the paper's venues
  grid:<levels>x<rooms>                        parametric building
  file:<path> | <path>                         text-format venue file

query options:
  --objective minmax|mindist|maxsum   (default minmax)
  --algorithm efficient|baseline|brute   (default efficient)
  --clients N        number of clients (default 1000)
  --sigma S          normal distribution; omit for uniform clients
  --fe N             existing facilities (default 10)
  --fn N             candidate locations (default 20)
  --category 0..4    MC real setting: category index as Fe (overrides --fe/--fn)
  --seed N           RNG seed (default 0)
  --top K            report the top-K candidates (minmax/efficient only)
  --no-dist-cache    disable the distance-kernel memo cache (ablation)
  --workload FILE    load the workload from a saved file instead of generating
  --save-workload FILE  write the generated workload for replay
  --trace            enable phase tracing; print the span/metric report
  --metrics-out FILE write collected metrics to FILE (enables tracing)
  --metrics-format text|jsonl|prom   metrics file format (default jsonl)
  --stats-json       print the result as one JSON object on stdout
  --index FILE       serve from a saved ifls-index/v1 snapshot (refusal is fatal)
  --index-or-build FILE  like --index, but build in-process when the snapshot
                     is missing or refused
  --build-threads N  worker threads for index construction (0 = all cores;
                     the built index is bit-identical at any thread count)
  --deadline-ms N    soft wall-clock budget; on expiry the solver returns its
                     best-so-far answer tagged degraded with an optimality gap
  --max-dist-computations N  deterministic work cap with the same degraded-
                     answer semantics as --deadline-ms
  --strict           treat a degraded (budget-exhausted) answer as an error

serve options:
  --addr HOST:PORT   listen address (default 127.0.0.1:8787; port 0 = ephemeral)
  --workers N        worker threads serving connections (0 = min(4, cores))
  --queue-capacity N admission watermark: connections parked beyond the
                     workers; one more arrival is shed with 503 (default 64)
  --max-body-bytes N largest accepted request body (default 65536)
  --default-deadline-ms N  per-query deadline when the request names none
  --no-sighup        do not install the SIGHUP -> reload handler
  --index FILE       serve from a saved ifls-index/v1 snapshot (refusal is
                     fatal); also the default path for /reload and SIGHUP
  --index-or-build FILE  like --index, but build in-process when the snapshot
                     is refused; with --strict the fallback itself is refused
                     and the daemon exits with a typed error
  --build-threads N  worker threads for an in-process index build
  --strict           refuse the --index-or-build rebuild fallback at startup
  --slo-ms N         SLO latency target for /query; /metrics then tracks
                     slo_requests_good/bad and the remaining error budget
  --recorder-capacity N  flight-recorder size: request traces retained for
                     GET /debug/requests (default 64; 0 disables tracing)
  --trace-dump FILE  where SIGUSR1 dumps the recorder's traces as
                     ifls-trace/v1 JSONL (default ifls-trace-dump.jsonl);
                     also where a graceful drain writes its final dump (plus
                     a FILE.metrics.prom metrics snapshot)
  --no-trace-dump    do not install the SIGUSR1 dump handler
  --worker-wedge-ms N  heartbeat staleness after which the supervisor
                     declares a worker wedged, retires it, and respawns a
                     replacement (default 5000)
  --drain-deadline-ms N  how long a graceful drain (SIGTERM or
                     POST /shutdown) waits for queued + in-flight requests
                     to finish before tearing the pool down (default 5000)

trace options:
  --input FILE       ifls-trace/v1 JSONL dump (from GET /debug/requests or a
                     SIGUSR1 dump) to analyze offline
  --top N            rows in the slowest-requests table (default 10)
  --json             print a machine-readable summary object instead

index build options:
  --cache-warm       precompute the high-reuse door-vector warm tier and ship
                     it inside the snapshot (queries served from it start warm)";

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `ifls info`.
    Info {
        /// Venue specification.
        venue: String,
    },
    /// `ifls export`.
    Export {
        /// Venue specification.
        venue: String,
        /// Output path (stdout when `None`).
        out: Option<String>,
    },
    /// `ifls query`.
    Query {
        /// Venue specification.
        venue: String,
        /// Workload and solver options.
        args: CommonArgs,
    },
    /// `ifls path`.
    Path {
        /// Venue specification.
        venue: String,
        /// Source partition id.
        from: u32,
        /// Target partition id.
        to: u32,
    },
    /// `ifls render`.
    Render {
        /// Venue specification.
        venue: String,
        /// Level to draw.
        level: i32,
        /// Meters per character cell.
        scale: f64,
    },
    /// `ifls index build`.
    IndexBuild {
        /// Venue specification.
        venue: String,
        /// Snapshot output path.
        out: String,
        /// Worker threads for construction (0 = all cores).
        threads: usize,
        /// Precompute and ship the warm door-vector tier.
        warm: bool,
    },
    /// `ifls index inspect`.
    IndexInspect {
        /// Snapshot path.
        path: String,
    },
    /// `ifls serve`.
    Serve {
        /// Venue specification.
        venue: String,
        /// Daemon options.
        args: ServeOptions,
    },
    /// `ifls trace`.
    Trace {
        /// `ifls-trace/v1` JSONL dump to analyze.
        input: String,
        /// Rows in the slowest-requests table.
        top: usize,
        /// Print a machine-readable summary instead of the tables.
        json: bool,
    },
}

/// `ifls serve`'s defaults: the library's, listening on port 8787.
pub(crate) fn serve_defaults() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:8787".into(),
        ..ServeOptions::default()
    }
}

/// Workload and solver options for `ifls query`.
#[derive(Clone, Debug, PartialEq)]
pub struct CommonArgs {
    /// Objective (`--objective`, parsed by [`Objective::parse`]).
    pub objective: Objective,
    /// Solver family (`--algorithm`, parsed by [`Algorithm::parse`]).
    pub algorithm: Algorithm,
    /// Client count.
    pub clients: usize,
    /// Normal σ (uniform when `None`).
    pub sigma: Option<f64>,
    /// |Fe|.
    pub fe: usize,
    /// |Fn|.
    pub fn_: usize,
    /// MC shop-category index for the real setting.
    pub category: Option<u8>,
    /// RNG seed.
    pub seed: u64,
    /// Top-k (1 = single answer).
    pub top: usize,
    /// Whether the efficient solvers memoize distance kernels
    /// (`--no-dist-cache` clears it for ablation runs).
    pub dist_cache: bool,
    /// Load the workload from this file instead of generating it.
    pub workload_file: Option<String>,
    /// Save the (generated or loaded) workload to this file.
    pub save_workload: Option<String>,
    /// Enable phase tracing and print the observability report.
    pub trace: bool,
    /// Write collected metrics to this file (implies tracing).
    pub metrics_out: Option<String>,
    /// Metrics file format: `text`, `jsonl` or `prom`.
    pub metrics_format: MetricsFormat,
    /// Print the result as a single JSON object instead of the text report.
    pub stats_json: bool,
    /// Serve from this `ifls-index/v1` snapshot instead of building.
    pub index: Option<String>,
    /// Whether a refused snapshot falls back to an in-process build
    /// (`--index-or-build`) instead of aborting (`--index`).
    pub index_or_build: bool,
    /// Worker threads for index construction (0 = all cores).
    pub build_threads: usize,
    /// Soft wall-clock budget in milliseconds (`None` = unlimited).
    pub deadline_ms: Option<u64>,
    /// Cap on logical distance computations (`None` = unlimited).
    pub max_dist_computations: Option<u64>,
    /// Fail (exit non-zero) instead of reporting a degraded answer.
    pub strict: bool,
}

/// Output format for `--metrics-out`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Human-readable aligned text.
    Text,
    /// One JSON object per line (schema `ifls-obs/v1`).
    #[default]
    Jsonl,
    /// Prometheus text exposition format.
    Prom,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            objective: Objective::MinMax,
            algorithm: Algorithm::Efficient,
            clients: 1000,
            sigma: None,
            fe: 10,
            fn_: 20,
            category: None,
            seed: 0,
            top: 1,
            dist_cache: true,
            workload_file: None,
            save_workload: None,
            trace: false,
            metrics_out: None,
            metrics_format: MetricsFormat::default(),
            stats_json: false,
            index: None,
            index_or_build: false,
            build_threads: 0,
            deadline_ms: None,
            max_dist_computations: None,
            strict: false,
        }
    }
}

/// Argument parsing errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// No command given.
    MissingCommand,
    /// Unknown command word.
    UnknownCommand(String),
    /// Unknown option for the command.
    UnknownOption(String),
    /// An option is missing its value.
    MissingValue(String),
    /// An option value failed to parse.
    BadValue {
        /// The option name.
        option: String,
        /// The offending value.
        value: String,
    },
    /// A required option is absent.
    MissingOption(&'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => write!(f, "no command given"),
            ParseError::UnknownCommand(c) => write!(f, "unknown command `{c}`"),
            ParseError::UnknownOption(o) => write!(f, "unknown option `{o}`"),
            ParseError::MissingValue(o) => write!(f, "option `{o}` needs a value"),
            ParseError::BadValue { option, value } => {
                write!(f, "option `{option}`: cannot parse `{value}`")
            }
            ParseError::MissingOption(o) => write!(f, "missing required option `{o}`"),
        }
    }
}

impl std::error::Error for ParseError {}

struct Cursor<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let a = self.args.get(self.pos)?;
        self.pos += 1;
        Some(a)
    }

    fn value(&mut self, option: &str) -> Result<&'a str, ParseError> {
        self.next()
            .ok_or_else(|| ParseError::MissingValue(option.to_string()))
    }

    fn parsed<T: std::str::FromStr>(&mut self, option: &str) -> Result<T, ParseError> {
        self.named(option, |v| v.parse().ok())
    }

    /// Reads `option`'s value through `parse`, e.g. a name table such as
    /// [`Objective::parse`].
    fn named<T>(
        &mut self,
        option: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, ParseError> {
        let v = self.value(option)?;
        parse(v).ok_or_else(|| ParseError::BadValue {
            option: option.to_string(),
            value: v.to_string(),
        })
    }
}

/// Parses the CLI arguments (program name excluded).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut cur = Cursor { args, pos: 0 };
    let command = cur.next().ok_or(ParseError::MissingCommand)?;
    match command {
        "info" | "export" => {
            let mut venue = None;
            let mut out = None;
            while let Some(opt) = cur.next() {
                match opt {
                    "--venue" => venue = Some(cur.value("--venue")?.to_string()),
                    "--out" if command == "export" => out = Some(cur.value("--out")?.to_string()),
                    other => return Err(ParseError::UnknownOption(other.to_string())),
                }
            }
            let venue = venue.ok_or(ParseError::MissingOption("--venue"))?;
            Ok(if command == "info" {
                Command::Info { venue }
            } else {
                Command::Export { venue, out }
            })
        }
        "query" => {
            let mut venue = None;
            let mut a = CommonArgs::default();
            while let Some(opt) = cur.next() {
                match opt {
                    "--venue" => venue = Some(cur.value("--venue")?.to_string()),
                    "--objective" => a.objective = cur.named("--objective", Objective::parse)?,
                    "--algorithm" => a.algorithm = cur.named("--algorithm", Algorithm::parse)?,
                    "--clients" => a.clients = cur.parsed("--clients")?,
                    "--sigma" => a.sigma = Some(cur.parsed("--sigma")?),
                    "--fe" => a.fe = cur.parsed("--fe")?,
                    "--fn" => a.fn_ = cur.parsed("--fn")?,
                    "--category" => a.category = Some(cur.parsed("--category")?),
                    "--seed" => a.seed = cur.parsed("--seed")?,
                    "--top" => a.top = cur.parsed("--top")?,
                    "--no-dist-cache" => a.dist_cache = false,
                    "--workload" => a.workload_file = Some(cur.value("--workload")?.to_string()),
                    "--save-workload" => {
                        a.save_workload = Some(cur.value("--save-workload")?.to_string())
                    }
                    "--trace" => a.trace = true,
                    "--no-trace" => a.trace = false,
                    "--metrics-out" => {
                        a.metrics_out = Some(cur.value("--metrics-out")?.to_string())
                    }
                    "--metrics-format" => {
                        a.metrics_format = cur.named("--metrics-format", |v| match v {
                            "text" => Some(MetricsFormat::Text),
                            "jsonl" => Some(MetricsFormat::Jsonl),
                            "prom" => Some(MetricsFormat::Prom),
                            _ => None,
                        })?
                    }
                    "--stats-json" => a.stats_json = true,
                    "--index" => a.index = Some(cur.value("--index")?.to_string()),
                    "--index-or-build" => {
                        a.index = Some(cur.value("--index-or-build")?.to_string());
                        a.index_or_build = true;
                    }
                    "--build-threads" => a.build_threads = cur.parsed("--build-threads")?,
                    "--deadline-ms" => a.deadline_ms = Some(cur.parsed("--deadline-ms")?),
                    "--max-dist-computations" => {
                        a.max_dist_computations = Some(cur.parsed("--max-dist-computations")?)
                    }
                    "--strict" => a.strict = true,
                    other => return Err(ParseError::UnknownOption(other.to_string())),
                }
            }
            Ok(Command::Query {
                venue: venue.ok_or(ParseError::MissingOption("--venue"))?,
                args: a,
            })
        }
        "render" => {
            let mut venue = None;
            let mut level = 0i32;
            let mut scale = 2.0f64;
            while let Some(opt) = cur.next() {
                match opt {
                    "--venue" => venue = Some(cur.value("--venue")?.to_string()),
                    "--level" => level = cur.parsed("--level")?,
                    "--scale" => scale = cur.parsed("--scale")?,
                    other => return Err(ParseError::UnknownOption(other.to_string())),
                }
            }
            Ok(Command::Render {
                venue: venue.ok_or(ParseError::MissingOption("--venue"))?,
                level,
                scale,
            })
        }
        "path" => {
            let mut venue = None;
            let mut from = None;
            let mut to = None;
            while let Some(opt) = cur.next() {
                match opt {
                    "--venue" => venue = Some(cur.value("--venue")?.to_string()),
                    "--from" => from = Some(cur.parsed("--from")?),
                    "--to" => to = Some(cur.parsed("--to")?),
                    other => return Err(ParseError::UnknownOption(other.to_string())),
                }
            }
            Ok(Command::Path {
                venue: venue.ok_or(ParseError::MissingOption("--venue"))?,
                from: from.ok_or(ParseError::MissingOption("--from"))?,
                to: to.ok_or(ParseError::MissingOption("--to"))?,
            })
        }
        "index" => {
            let sub = cur.next().ok_or(ParseError::MissingCommand)?;
            match sub {
                "build" => {
                    let mut venue = None;
                    let mut out = None;
                    let mut threads = 0usize;
                    let mut warm = false;
                    while let Some(opt) = cur.next() {
                        match opt {
                            "--venue" => venue = Some(cur.value("--venue")?.to_string()),
                            "--out" => out = Some(cur.value("--out")?.to_string()),
                            "--build-threads" | "--threads" => {
                                threads = cur.parsed(opt)?;
                            }
                            "--cache-warm" => warm = true,
                            other => return Err(ParseError::UnknownOption(other.to_string())),
                        }
                    }
                    Ok(Command::IndexBuild {
                        venue: venue.ok_or(ParseError::MissingOption("--venue"))?,
                        out: out.ok_or(ParseError::MissingOption("--out"))?,
                        threads,
                        warm,
                    })
                }
                "inspect" => {
                    let mut path = None;
                    while let Some(opt) = cur.next() {
                        match opt {
                            "--index" => path = Some(cur.value("--index")?.to_string()),
                            other => return Err(ParseError::UnknownOption(other.to_string())),
                        }
                    }
                    Ok(Command::IndexInspect {
                        path: path.ok_or(ParseError::MissingOption("--index"))?,
                    })
                }
                other => Err(ParseError::UnknownCommand(format!("index {other}"))),
            }
        }
        "serve" => {
            let mut venue = None;
            let mut a = serve_defaults();
            while let Some(opt) = cur.next() {
                match opt {
                    "--venue" => venue = Some(cur.value("--venue")?.to_string()),
                    "--addr" => a.addr = cur.value("--addr")?.to_string(),
                    "--workers" => a.workers = cur.parsed("--workers")?,
                    "--queue-capacity" => a.queue_capacity = cur.parsed("--queue-capacity")?,
                    "--max-body-bytes" => a.max_body_bytes = cur.parsed("--max-body-bytes")?,
                    "--default-deadline-ms" => {
                        a.default_deadline_ms = Some(cur.parsed("--default-deadline-ms")?)
                    }
                    "--no-sighup" => a.sighup_reload = false,
                    "--index" => a.index = Some(cur.value("--index")?.into()),
                    "--index-or-build" => {
                        a.index = Some(cur.value("--index-or-build")?.into());
                        a.index_or_build = true;
                    }
                    "--build-threads" => a.build_threads = cur.parsed("--build-threads")?,
                    "--strict" => a.strict = true,
                    "--slo-ms" => a.slo_ms = Some(cur.parsed("--slo-ms")?),
                    "--recorder-capacity" => {
                        a.recorder_capacity = cur.parsed("--recorder-capacity")?
                    }
                    "--trace-dump" => a.trace_dump = Some(cur.value("--trace-dump")?.into()),
                    "--no-trace-dump" => a.trace_dump = None,
                    "--worker-wedge-ms" => a.worker_wedge_ms = cur.parsed("--worker-wedge-ms")?,
                    "--drain-deadline-ms" => {
                        a.drain_deadline_ms = cur.parsed("--drain-deadline-ms")?
                    }
                    other => return Err(ParseError::UnknownOption(other.to_string())),
                }
            }
            Ok(Command::Serve {
                venue: venue.ok_or(ParseError::MissingOption("--venue"))?,
                args: a,
            })
        }
        "trace" => {
            let mut input = None;
            let mut top = 10usize;
            let mut json = false;
            while let Some(opt) = cur.next() {
                match opt {
                    "--input" => input = Some(cur.value("--input")?.to_string()),
                    "--top" => top = cur.parsed("--top")?,
                    "--json" => json = true,
                    other => return Err(ParseError::UnknownOption(other.to_string())),
                }
            }
            Ok(Command::Trace {
                input: input.ok_or(ParseError::MissingOption("--input"))?,
                top,
                json,
            })
        }
        other => Err(ParseError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_info() {
        assert_eq!(
            parse(&v(&["info", "--venue", "named:mc"])).unwrap(),
            Command::Info {
                venue: "named:mc".into()
            }
        );
    }

    #[test]
    fn parses_export_with_out() {
        assert_eq!(
            parse(&v(&["export", "--venue", "named:cph", "--out", "x.venue"])).unwrap(),
            Command::Export {
                venue: "named:cph".into(),
                out: Some("x.venue".into())
            }
        );
    }

    #[test]
    fn parses_query_with_defaults_and_overrides() {
        let cmd = parse(&v(&[
            "query",
            "--venue",
            "grid:2x20",
            "--clients",
            "50",
            "--sigma",
            "0.5",
            "--top",
            "3",
        ]))
        .unwrap();
        match cmd {
            Command::Query { venue, args } => {
                assert_eq!(venue, "grid:2x20");
                assert_eq!(args.clients, 50);
                assert_eq!(args.sigma, Some(0.5));
                assert_eq!(args.top, 3);
                assert_eq!(args.objective, Objective::MinMax);
                assert_eq!(args.algorithm, Algorithm::Efficient);
                assert!(args.dist_cache);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_no_dist_cache_flag() {
        match parse(&v(&["query", "--venue", "grid:1x8", "--no-dist-cache"])).unwrap() {
            Command::Query { args, .. } => assert!(!args.dist_cache),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn refuses_no_cache_admission_flag() {
        // The cache's local tier admits every miss, so neither command
        // has an admission switch to set.
        for command in ["query", "serve"] {
            assert_eq!(
                parse(&v(&[
                    command,
                    "--venue",
                    "grid:1x8",
                    "--no-cache-admission"
                ])),
                Err(ParseError::UnknownOption("--no-cache-admission".into())),
                "{command}"
            );
        }
    }

    #[test]
    fn parses_trace_and_metrics_flags() {
        let cmd = parse(&v(&[
            "query",
            "--venue",
            "named:mc",
            "--trace",
            "--metrics-out",
            "m.jsonl",
            "--metrics-format",
            "prom",
            "--stats-json",
        ]))
        .unwrap();
        match cmd {
            Command::Query { args, .. } => {
                assert!(args.trace);
                assert_eq!(args.metrics_out.as_deref(), Some("m.jsonl"));
                assert_eq!(args.metrics_format, MetricsFormat::Prom);
                assert!(args.stats_json);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: tracing off, jsonl format, text report.
        match parse(&v(&["query", "--venue", "named:mc"])).unwrap() {
            Command::Query { args, .. } => {
                assert!(!args.trace);
                assert_eq!(args.metrics_out, None);
                assert_eq!(args.metrics_format, MetricsFormat::Jsonl);
                assert!(!args.stats_json);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&v(&["query", "--venue", "x", "--metrics-format", "xml"])),
            Err(ParseError::BadValue { .. })
        ));
    }

    #[test]
    fn no_trace_overrides_trace() {
        match parse(&v(&["query", "--venue", "x", "--trace", "--no-trace"])).unwrap() {
            Command::Query { args, .. } => assert!(!args.trace),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_index_flags_on_query() {
        match parse(&v(&["query", "--venue", "x", "--index", "a.idx"])).unwrap() {
            Command::Query { args, .. } => {
                assert_eq!(args.index.as_deref(), Some("a.idx"));
                assert!(!args.index_or_build);
                assert_eq!(args.build_threads, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&[
            "query",
            "--venue",
            "x",
            "--index-or-build",
            "b.idx",
            "--build-threads",
            "4",
        ]))
        .unwrap()
        {
            Command::Query { args, .. } => {
                assert_eq!(args.index.as_deref(), Some("b.idx"));
                assert!(args.index_or_build);
                assert_eq!(args.build_threads, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&v(&["query", "--venue", "x", "--index"])),
            Err(ParseError::MissingValue("--index".into()))
        );
    }

    #[test]
    fn parses_index_subcommands() {
        assert_eq!(
            parse(&v(&[
                "index",
                "build",
                "--venue",
                "named:mzb",
                "--out",
                "mzb.idx",
                "--build-threads",
                "2",
            ]))
            .unwrap(),
            Command::IndexBuild {
                venue: "named:mzb".into(),
                out: "mzb.idx".into(),
                threads: 2,
                warm: false,
            }
        );
        assert_eq!(
            parse(&v(&[
                "index",
                "build",
                "--venue",
                "named:mc",
                "--out",
                "mc.idx",
                "--cache-warm",
            ]))
            .unwrap(),
            Command::IndexBuild {
                venue: "named:mc".into(),
                out: "mc.idx".into(),
                threads: 0,
                warm: true,
            }
        );
        assert_eq!(
            parse(&v(&["index", "inspect", "--index", "mzb.idx"])).unwrap(),
            Command::IndexInspect {
                path: "mzb.idx".into()
            }
        );
        assert_eq!(
            parse(&v(&["index", "build", "--venue", "x"])),
            Err(ParseError::MissingOption("--out"))
        );
        assert_eq!(
            parse(&v(&["index", "inspect"])),
            Err(ParseError::MissingOption("--index"))
        );
        assert_eq!(
            parse(&v(&["index", "frobnicate"])),
            Err(ParseError::UnknownCommand("index frobnicate".into()))
        );
    }

    #[test]
    fn parses_budget_flags() {
        let cmd = parse(&v(&[
            "query",
            "--venue",
            "named:mc",
            "--deadline-ms",
            "250",
            "--max-dist-computations",
            "100000",
            "--strict",
        ]))
        .unwrap();
        match cmd {
            Command::Query { args, .. } => {
                assert_eq!(args.deadline_ms, Some(250));
                assert_eq!(args.max_dist_computations, Some(100_000));
                assert!(args.strict);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: unlimited, non-strict.
        match parse(&v(&["query", "--venue", "named:mc"])).unwrap() {
            Command::Query { args, .. } => {
                assert_eq!(args.deadline_ms, None);
                assert_eq!(args.max_dist_computations, None);
                assert!(!args.strict);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&v(&["query", "--venue", "x", "--deadline-ms", "soon"])),
            Err(ParseError::BadValue { .. })
        ));
    }

    #[test]
    fn parses_serve_command() {
        match parse(&v(&["serve", "--venue", "named:mc"])).unwrap() {
            Command::Serve { venue, args } => {
                assert_eq!(venue, "named:mc");
                assert_eq!(args, serve_defaults());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&[
            "serve",
            "--venue",
            "grid:2x20",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "8",
            "--queue-capacity",
            "16",
            "--max-body-bytes",
            "4096",
            "--default-deadline-ms",
            "250",
            "--no-sighup",
            "--index-or-build",
            "a.idx",
            "--build-threads",
            "2",
            "--strict",
            "--slo-ms",
            "50",
            "--recorder-capacity",
            "128",
            "--trace-dump",
            "dump.jsonl",
            "--worker-wedge-ms",
            "750",
            "--drain-deadline-ms",
            "1500",
        ]))
        .unwrap()
        {
            Command::Serve { args, .. } => {
                assert_eq!(args.addr, "127.0.0.1:0");
                assert_eq!(args.workers, 8);
                assert_eq!(args.queue_capacity, 16);
                assert_eq!(args.max_body_bytes, 4096);
                assert_eq!(args.default_deadline_ms, Some(250));
                assert!(!args.sighup_reload);
                assert_eq!(args.index.as_deref(), Some(Path::new("a.idx")));
                assert!(args.index_or_build);
                assert_eq!(args.build_threads, 2);
                assert!(args.strict);
                assert_eq!(args.slo_ms, Some(50));
                assert_eq!(args.recorder_capacity, 128);
                assert_eq!(args.trace_dump.as_deref(), Some(Path::new("dump.jsonl")));
                assert_eq!(args.worker_wedge_ms, 750);
                assert_eq!(args.drain_deadline_ms, 1500);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["serve", "--venue", "x", "--no-trace-dump"])).unwrap() {
            Command::Serve { args, .. } => assert_eq!(args.trace_dump, None),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&v(&["serve"])),
            Err(ParseError::MissingOption("--venue"))
        );
        assert_eq!(
            parse(&v(&["serve", "--venue", "x", "--top", "3"])),
            Err(ParseError::UnknownOption("--top".into()))
        );
    }

    #[test]
    fn parses_trace_command() {
        assert_eq!(
            parse(&v(&["trace", "--input", "dump.jsonl"])).unwrap(),
            Command::Trace {
                input: "dump.jsonl".into(),
                top: 10,
                json: false,
            }
        );
        assert_eq!(
            parse(&v(&["trace", "--input", "d.jsonl", "--top", "3", "--json"])).unwrap(),
            Command::Trace {
                input: "d.jsonl".into(),
                top: 3,
                json: true,
            }
        );
        assert_eq!(
            parse(&v(&["trace"])),
            Err(ParseError::MissingOption("--input"))
        );
        assert_eq!(
            parse(&v(&["trace", "--input", "d", "--venue", "x"])),
            Err(ParseError::UnknownOption("--venue".into()))
        );
    }

    #[test]
    fn rejects_bad_objective_and_algorithm() {
        assert!(matches!(
            parse(&v(&["query", "--venue", "x", "--objective", "mean"])),
            Err(ParseError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&v(&["query", "--venue", "x", "--algorithm", "magic"])),
            Err(ParseError::BadValue { .. })
        ));
        // One query runs on one thread: no sharded solver to select.
        assert_eq!(
            parse(&v(&["query", "--venue", "x", "--algorithm", "parallel"])),
            Err(ParseError::BadValue {
                option: "--algorithm".into(),
                value: "parallel".into()
            })
        );
    }

    #[test]
    fn rejects_missing_bits() {
        assert_eq!(parse(&[]), Err(ParseError::MissingCommand));
        assert_eq!(
            parse(&v(&["fly"])),
            Err(ParseError::UnknownCommand("fly".into()))
        );
        assert_eq!(
            parse(&v(&["info"])),
            Err(ParseError::MissingOption("--venue"))
        );
        assert_eq!(
            parse(&v(&["info", "--venue"])),
            Err(ParseError::MissingValue("--venue".into()))
        );
        assert_eq!(
            parse(&v(&["path", "--venue", "x", "--from", "1"])),
            Err(ParseError::MissingOption("--to"))
        );
    }

    #[test]
    fn rejects_unknown_options() {
        assert_eq!(
            parse(&v(&["info", "--venue", "x", "--frob", "y"])),
            Err(ParseError::UnknownOption("--frob".into()))
        );
        // --out is export-only.
        assert_eq!(
            parse(&v(&["info", "--venue", "x", "--out", "y"])),
            Err(ParseError::UnknownOption("--out".into()))
        );
        // A query has no worker count to set (`index build --threads`
        // is an alias of `--build-threads`).
        assert_eq!(
            parse(&v(&["query", "--venue", "x", "--threads", "2"])),
            Err(ParseError::UnknownOption("--threads".into()))
        );
        // The daemon answers every connection on its own: no batch size
        // to set.
        assert_eq!(
            parse(&v(&["serve", "--venue", "x", "--max-batch", "8"])),
            Err(ParseError::UnknownOption("--max-batch".into()))
        );
    }

    #[test]
    fn parse_errors_display() {
        assert!(ParseError::MissingCommand.to_string().contains("command"));
        assert!(ParseError::BadValue {
            option: "--fe".into(),
            value: "x".into()
        }
        .to_string()
        .contains("--fe"));
    }
}
