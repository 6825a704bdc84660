//! Per-request tracing and the slow-query flight recorder.
//!
//! A [`TraceContext`] names one request with a **deterministic trace id**
//! drawn from a seeded per-process counter (never the wall clock — two
//! runs of the same request stream mint the same ids in admission order).
//! Opening a [`TraceScope`] on a thread makes every span closed on that
//! thread (see [`crate::span`]) *additionally* fold into a per-request
//! span tree, aggregated by `(phase, depth)` so a query that opens
//! thousands of retrieval spans still yields a bounded record. The scope
//! only observes the same span closures the aggregate sink already sees,
//! so capture cannot change answers, span totals, or merge order.
//!
//! Completed [`RequestTrace`]s are *offered* to a [`FlightRecorder`]: a
//! fixed-capacity tail-sampling buffer that keeps the K slowest requests
//! plus **every** degraded/shed/panicked one. Retention is a pure
//! function of the offered multiset (a total order over traces), so the
//! retained set is identical at any worker count or interleaving. The
//! common case — a fast, healthy request that cannot possibly qualify —
//! is rejected by one relaxed atomic load without taking the lock.
//!
//! The recorder serializes as JSONL under schema [`TRACE_SCHEMA`]
//! (`ifls-trace/v1`, documented in DESIGN.md §13) and is validated /
//! parsed back by [`validate_trace_jsonl`] / [`parse_trace_jsonl`].

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::Counter;
use crate::{export, Phase};

/// Schema identifier stamped on every trace dump.
pub const TRACE_SCHEMA: &str = "ifls-trace/v1";

/// Deepest span nesting level a trace distinguishes; deeper spans clamp
/// to this depth (the aggregate sink is unaffected).
pub const MAX_TRACE_DEPTH: u16 = 32;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Resets the per-process trace-id counter so the next
/// [`TraceContext::next`] returns `next`. Ids are deterministic by
/// construction (a counter, never a wall clock); seeding exists so tests
/// and offline tools can pin the exact sequence.
pub fn seed_trace_ids(next: u64) {
    NEXT_TRACE_ID.store(next, Ordering::SeqCst);
}

/// The identity of one traced request: a deterministic trace id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    id: u64,
}

impl TraceContext {
    /// Mints the next trace id from the seeded per-process counter.
    pub fn next() -> Self {
        Self {
            id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A context with an explicit id (offline tools, tests).
    pub fn with_id(id: u64) -> Self {
        Self { id }
    }

    /// The trace id.
    pub fn trace_id(self) -> u64 {
        self.id
    }
}

/// One `(phase, depth)` cell of a per-request span tree: how many spans
/// of `phase` closed at nesting level `depth`, with their inclusive and
/// self nanoseconds (same attribution as [`crate::SpanAgg`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// The instrumented phase.
    pub phase: Phase,
    /// Nesting depth at close time (0 = outermost), clamped to
    /// [`MAX_TRACE_DEPTH`].
    pub depth: u16,
    /// Number of spans folded into this cell.
    pub count: u64,
    /// Total inclusive nanoseconds.
    pub total_ns: u64,
    /// Nanoseconds not attributed to nested child spans. Summed over a
    /// whole trace, self times partition the traced wall time, so
    /// `Σ self_ns ≤` the request's `total_ns`.
    pub self_ns: u64,
}

/// One completed request trace: identity, outcome, and the span tree.
///
/// `objective`/`algorithm`/`reason` are empty strings when not
/// applicable (a request that never reached the solver); they serialize
/// as JSON `null`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RequestTrace {
    /// Deterministic id from [`TraceContext`].
    pub trace_id: u64,
    /// HTTP status the request was answered with (0 when unknown, e.g. a
    /// panicked handler).
    pub status: u16,
    /// Objective name (`minmax`/`mindist`/`maxsum`), or empty.
    pub objective: String,
    /// Algorithm name (`efficient`/`baseline`/`brute`/`parallel`), or
    /// empty.
    pub algorithm: String,
    /// End-to-end request latency in nanoseconds (the recorder's ranking
    /// key for unflagged traces).
    pub total_ns: u64,
    /// Time the connection waited in the accept queue before a worker
    /// picked it up (0 for follow-up requests on a kept-alive
    /// connection).
    pub queue_wait_ns: u64,
    /// Distance kernels computed while solving.
    pub dist_computations: u64,
    /// Distance-cache hits while solving.
    pub cache_hits: u64,
    /// Distance-cache misses while solving.
    pub cache_misses: u64,
    /// Whether the answer was budget-degraded.
    pub degraded: bool,
    /// Optimality gap of a degraded answer (0 when exact).
    pub gap: f64,
    /// Budget reason label (`deadline`/`dist_cap`/…), or empty.
    pub reason: String,
    /// Whether admission control shed the request (503).
    pub shed: bool,
    /// Whether the handler panicked.
    pub panicked: bool,
    /// Whether the request exceeded the configured SLO target.
    pub slo_violation: bool,
    /// The span tree, aggregated by `(phase, depth)` in first-close
    /// order.
    pub spans: Vec<TraceSpan>,
}

impl RequestTrace {
    /// True when this trace must never be evicted by a merely-fast
    /// request: degraded, shed, or panicked.
    pub fn flagged(&self) -> bool {
        self.degraded || self.shed || self.panicked
    }
}

thread_local! {
    static CAPTURE: Cell<bool> = const { Cell::new(false) };
    static SPANS: RefCell<Vec<TraceSpan>> = const { RefCell::new(Vec::new()) };
}

/// Folds one closed span into the active trace, if any. Called from the
/// span stack's drop path *after* the aggregate sink recorded it; a
/// single thread-local flag check when no trace is active.
#[inline]
pub(crate) fn record_trace_span(phase: Phase, depth: usize, total_ns: u64, self_ns: u64) {
    if !CAPTURE.with(Cell::get) {
        return;
    }
    let depth = (depth.min(MAX_TRACE_DEPTH as usize)) as u16;
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(cell) = s.iter_mut().find(|c| c.phase == phase && c.depth == depth) {
            cell.count += 1;
            cell.total_ns += total_ns;
            cell.self_ns += self_ns;
        } else {
            s.push(TraceSpan {
                phase,
                depth,
                count: 1,
                total_ns,
                self_ns,
            });
        }
    });
}

/// RAII guard that captures this thread's span closures into a
/// per-request trace between [`TraceScope::begin`] and
/// [`TraceScope::finish`].
///
/// Inert when tracing is disabled or another scope is already active on
/// the thread (capture does not nest; the outer scope keeps recording).
/// Dropping without `finish` (e.g. a panic unwinding through the scope)
/// discards the partial capture.
#[must_use = "a trace scope captures nothing once dropped; call finish()"]
pub struct TraceScope {
    ctx: TraceContext,
    active: bool,
}

impl TraceScope {
    /// Starts capturing span closures on this thread under `ctx`.
    pub fn begin(ctx: TraceContext) -> TraceScope {
        if !crate::enabled() {
            return TraceScope { ctx, active: false };
        }
        let fresh = CAPTURE.with(|c| {
            if c.get() {
                false
            } else {
                c.set(true);
                true
            }
        });
        if fresh {
            SPANS.with(|s| s.borrow_mut().clear());
        }
        TraceScope { ctx, active: fresh }
    }

    /// Stops capturing and returns the trace (span tree only; the caller
    /// fills outcome fields). `None` when the scope was inert.
    pub fn finish(mut self) -> Option<RequestTrace> {
        if !self.active {
            return None;
        }
        self.active = false;
        CAPTURE.with(|c| c.set(false));
        let spans = SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()));
        Some(RequestTrace {
            trace_id: self.ctx.id,
            spans,
            ..RequestTrace::default()
        })
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.active {
            CAPTURE.with(|c| c.set(false));
            SPANS.with(|s| s.borrow_mut().clear());
        }
    }
}

/// Total order over traces: flagged first, then slowest, ties broken by
/// the (unique) trace id — lower id outranks. Because the order is
/// total, "the top `capacity` of everything offered" is a pure function
/// of the offered multiset, independent of thread interleaving.
fn rank(t: &RequestTrace) -> (bool, u64, Reverse<u64>) {
    (t.flagged(), t.total_ns, Reverse(t.trace_id))
}

/// Fixed-capacity tail-sampler of completed request traces.
///
/// Keeps the top-`capacity` traces under a total order in which every
/// *flagged* (degraded/shed/panicked) trace outranks every unflagged
/// one, and unflagged traces rank by latency — i.e. all anomalies plus
/// the K slowest healthy requests, up to capacity.
///
/// **Lock-light:** once full, the minimum retained unflagged latency is
/// published as an atomic admission floor. An unflagged offer strictly
/// below the floor can never qualify and returns without locking. The
/// floor only ever rises, so a stale read is conservative (an extra lock
/// acquisition, never a wrong rejection) and determinism is preserved.
pub struct FlightRecorder {
    capacity: usize,
    /// Admission floor for unflagged offers; `u64::MAX` once the buffer
    /// is full of flagged traces, 0 while not yet full.
    floor_ns: AtomicU64,
    inner: Mutex<Vec<RequestTrace>>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` traces (`0` records
    /// nothing).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            floor_ns: AtomicU64::new(0),
            inner: Mutex::new(Vec::with_capacity(capacity.min(1024))),
        }
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained traces.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<RequestTrace>> {
        // A panic while holding the lock cannot leave the buffer torn:
        // every mutation is a push or a whole-element replacement.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Offers a completed trace; returns whether it was retained.
    /// Ticks [`Counter::TracesRecorded`] / [`Counter::TracesDropped`] on
    /// the calling thread's sink.
    pub fn offer(&self, t: RequestTrace) -> bool {
        let kept = self.offer_inner(t);
        crate::counter_add(
            if kept {
                Counter::TracesRecorded
            } else {
                Counter::TracesDropped
            },
            1,
        );
        kept
    }

    fn offer_inner(&self, t: RequestTrace) -> bool {
        if self.capacity == 0 {
            return false;
        }
        // Fast path: a healthy trace strictly below the admission floor
        // cannot outrank the current minimum — skip the lock. `<` (not
        // `<=`) so equal-latency offers still reach the exact id
        // tie-break under the lock.
        if !t.flagged() && t.total_ns < self.floor_ns.load(Ordering::Relaxed) {
            return false;
        }
        let mut inner = self.lock();
        if inner.len() < self.capacity {
            inner.push(t);
            if inner.len() == self.capacity {
                self.publish_floor(&inner);
            }
            return true;
        }
        let min_idx = inner
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| rank(c))
            .map(|(i, _)| i)
            .expect("recorder is full, so non-empty");
        if rank(&t) > rank(&inner[min_idx]) {
            inner[min_idx] = t;
            self.publish_floor(&inner);
            true
        } else {
            false
        }
    }

    /// Recomputes the admission floor from a full buffer. The minimum-
    /// rank element is unflagged whenever any unflagged trace is
    /// retained (flagged always outranks unflagged); if even the minimum
    /// is flagged, no unflagged offer can ever qualify.
    fn publish_floor(&self, inner: &[RequestTrace]) {
        let floor = match inner.iter().min_by_key(|c| rank(c)) {
            Some(min) if !min.flagged() => min.total_ns,
            _ => u64::MAX,
        };
        self.floor_ns.store(floor, Ordering::Relaxed);
    }

    /// The retained traces, best-ranked first (flagged, then slowest;
    /// ties by ascending trace id). A deterministic order because ids
    /// are unique.
    pub fn snapshot(&self) -> Vec<RequestTrace> {
        let mut v = self.lock().clone();
        v.sort_by_key(|t| Reverse(rank(t)));
        v
    }
}

fn json_str(s: &str) -> String {
    if s.is_empty() {
        return "null".into();
    }
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders one trace as a single `ifls-trace/v1` request record.
pub fn trace_json_line(t: &RequestTrace) -> String {
    let spans: Vec<String> = t
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"phase\":\"{}\",\"depth\":{},\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                s.phase.name(),
                s.depth,
                s.count,
                s.total_ns,
                s.self_ns
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"type\":\"request\",\"trace_id\":{id},\"status\":{status},",
            "\"objective\":{objective},\"algorithm\":{algorithm},",
            "\"total_ns\":{total},\"queue_wait_ns\":{qwait},",
            "\"dist_computations\":{dist},\"cache_hits\":{hits},",
            "\"cache_misses\":{misses},\"degraded\":{degraded},",
            "\"gap\":{gap},\"reason\":{reason},\"shed\":{shed},",
            "\"panicked\":{panicked},\"slo_violation\":{slo},",
            "\"spans\":[{spans}]}}"
        ),
        id = t.trace_id,
        status = t.status,
        objective = json_str(&t.objective),
        algorithm = json_str(&t.algorithm),
        total = t.total_ns,
        qwait = t.queue_wait_ns,
        dist = t.dist_computations,
        hits = t.cache_hits,
        misses = t.cache_misses,
        degraded = t.degraded,
        gap = export::json_f64(t.gap),
        reason = json_str(&t.reason),
        shed = t.shed,
        panicked = t.panicked,
        slo = t.slo_violation,
        spans = spans.join(","),
    )
}

/// Renders a set of traces as `ifls-trace/v1` JSONL: one meta record,
/// then one request record per trace in the given order.
pub fn to_trace_jsonl(traces: &[RequestTrace], capacity: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"schema\":\"{TRACE_SCHEMA}\",\"capacity\":{capacity},\"count\":{}}}",
        traces.len()
    );
    for t in traces {
        out.push_str(&trace_json_line(t));
        out.push('\n');
    }
    out
}

/// What [`validate_trace_jsonl`] found in a trace dump.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of request records (all validated).
    pub requests: usize,
    /// Whether the `ifls-trace/v1` meta record is present.
    pub has_meta: bool,
    /// Budget-degraded requests.
    pub degraded: usize,
    /// Shed requests.
    pub shed: usize,
    /// Panicked requests.
    pub panicked: usize,
    /// Requests exceeding the SLO target.
    pub slo_violations: usize,
    /// Span cells across all requests.
    pub spans: usize,
}

fn extract_u64(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = s.find(&pat)? + pat.len();
    let digits: String = s[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn extract_bool(s: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let start = s.find(&pat)? + pat.len();
    if s[start..].starts_with("true") {
        Some(true)
    } else if s[start..].starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// `"key":"value"` → value; `"key":null` → empty string; absent → None.
fn extract_str_or_null(s: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let start = s.find(&pat)? + pat.len();
    let rest = &s[start..];
    if rest.starts_with("null") {
        return Some(String::new());
    }
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_owned())
}

fn parse_request_line(line: &str) -> Result<RequestTrace, String> {
    let (head, tail) = line
        .split_once("\"spans\":[")
        .ok_or("request record has no `spans` array")?;
    let need = |key: &str| extract_u64(head, key).ok_or_else(|| format!("missing `{key}`"));
    let need_bool = |key: &str| extract_bool(head, key).ok_or_else(|| format!("missing `{key}`"));
    let mut t = RequestTrace {
        trace_id: need("trace_id")?,
        status: need("status")? as u16,
        objective: extract_str_or_null(head, "objective").ok_or("missing `objective`")?,
        algorithm: extract_str_or_null(head, "algorithm").ok_or("missing `algorithm`")?,
        total_ns: need("total_ns")?,
        queue_wait_ns: need("queue_wait_ns")?,
        dist_computations: need("dist_computations")?,
        cache_hits: need("cache_hits")?,
        cache_misses: need("cache_misses")?,
        degraded: need_bool("degraded")?,
        gap: 0.0,
        reason: extract_str_or_null(head, "reason").ok_or("missing `reason`")?,
        shed: need_bool("shed")?,
        panicked: need_bool("panicked")?,
        slo_violation: need_bool("slo_violation")?,
        spans: Vec::new(),
    };
    if let Some(gap) = extract_str_or_null(head, "gap").filter(|s| s.is_empty()) {
        // `"gap":null` — leave 0.0.
        let _ = gap;
    } else {
        let pat = "\"gap\":";
        if let Some(start) = head.find(pat) {
            let num: String = head[start + pat.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
                .collect();
            t.gap = num
                .parse()
                .map_err(|_| format!("bad `gap` value `{num}`"))?;
        } else {
            return Err("missing `gap`".into());
        }
    }
    let body = tail
        .trim_end()
        .strip_suffix("]}")
        .ok_or("unterminated `spans` array")?;
    if !body.is_empty() {
        for item in body
            .trim_start_matches('{')
            .trim_end_matches('}')
            .split("},{")
        {
            let phase_name =
                extract_str_or_null(item, "phase").ok_or("span cell missing `phase`")?;
            let phase = Phase::ALL
                .into_iter()
                .find(|p| p.name() == phase_name)
                .ok_or_else(|| format!("unknown phase `{phase_name}`"))?;
            t.spans.push(TraceSpan {
                phase,
                depth: extract_u64(item, "depth").ok_or("span cell missing `depth`")? as u16,
                count: extract_u64(item, "count").ok_or("span cell missing `count`")?,
                total_ns: extract_u64(item, "total_ns").ok_or("span cell missing `total_ns`")?,
                self_ns: extract_u64(item, "self_ns").ok_or("span cell missing `self_ns`")?,
            });
        }
    }
    // Soundness: self times partition the traced wall time, so their sum
    // can never exceed the end-to-end request latency.
    let self_sum: u64 = t.spans.iter().map(|s| s.self_ns).sum();
    if self_sum > t.total_ns {
        return Err(format!(
            "span self-times sum to {self_sum} ns > total {} ns",
            t.total_ns
        ));
    }
    Ok(t)
}

/// Parses a whole `ifls-trace/v1` dump back into traces, validating as
/// it goes (JSON syntax, required fields, span self-time soundness,
/// unique trace ids).
pub fn parse_trace_jsonl(content: &str) -> Result<(TraceSummary, Vec<RequestTrace>), String> {
    let mut summary = TraceSummary::default();
    let mut traces = Vec::new();
    let mut seen_ids = std::collections::BTreeSet::new();
    for (lineno, raw) in content.lines().enumerate() {
        let line = raw.trim();
        let fail = |e: String| format!("line {}: {e}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        export::validate_json_line(line).map_err(fail)?;
        if line.contains("\"type\":\"meta\"") {
            if !line.contains(TRACE_SCHEMA) {
                return Err(fail(format!("meta record is not schema {TRACE_SCHEMA}")));
            }
            summary.has_meta = true;
            continue;
        }
        if !line.contains("\"type\":\"request\"") {
            return Err(fail("record is neither meta nor request".into()));
        }
        let t = parse_request_line(line).map_err(fail)?;
        if !seen_ids.insert(t.trace_id) {
            return Err(fail(format!("duplicate trace_id {}", t.trace_id)));
        }
        summary.requests += 1;
        summary.degraded += usize::from(t.degraded);
        summary.shed += usize::from(t.shed);
        summary.panicked += usize::from(t.panicked);
        summary.slo_violations += usize::from(t.slo_violation);
        summary.spans += t.spans.len();
        traces.push(t);
    }
    if !summary.has_meta {
        return Err(format!("no {TRACE_SCHEMA} meta record"));
    }
    Ok((summary, traces))
}

/// Validates an `ifls-trace/v1` dump (see [`parse_trace_jsonl`]).
pub fn validate_trace_jsonl(content: &str) -> Result<TraceSummary, String> {
    parse_trace_jsonl(content).map(|(s, _)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_enabled, span, take_local};
    use std::sync::Mutex as StdMutex;

    /// The enable flag is global; serialize tests that toggle it.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn trace(id: u64, total_ns: u64, flagged: bool) -> RequestTrace {
        RequestTrace {
            trace_id: id,
            total_ns,
            degraded: flagged,
            ..RequestTrace::default()
        }
    }

    #[test]
    fn trace_ids_are_a_deterministic_counter() {
        seed_trace_ids(100);
        assert_eq!(TraceContext::next().trace_id(), 100);
        assert_eq!(TraceContext::next().trace_id(), 101);
        seed_trace_ids(1);
    }

    #[test]
    fn scope_captures_spans_by_phase_and_depth() {
        let _l = LOCK.lock().unwrap();
        set_enabled(true);
        let _ = take_local();
        let scope = TraceScope::begin(TraceContext::with_id(7));
        {
            let _outer = span(Phase::CandidateLoop);
            for _ in 0..3 {
                let _inner = span(Phase::GroupRetrieval);
            }
        }
        let t = scope.finish().expect("scope was active");
        set_enabled(false);
        let _ = take_local();
        assert_eq!(t.trace_id, 7);
        // Three same-depth retrieval spans fold into one cell.
        let inner = t
            .spans
            .iter()
            .find(|s| s.phase == Phase::GroupRetrieval)
            .unwrap();
        assert_eq!((inner.depth, inner.count), (1, 3));
        let outer = t
            .spans
            .iter()
            .find(|s| s.phase == Phase::CandidateLoop)
            .unwrap();
        assert_eq!((outer.depth, outer.count), (0, 1));
        assert!(outer.total_ns >= inner.total_ns);
        let self_sum: u64 = t.spans.iter().map(|s| s.self_ns).sum();
        assert!(self_sum <= outer.total_ns + inner.total_ns);
    }

    #[test]
    fn nested_scopes_do_not_steal_capture() {
        let _l = LOCK.lock().unwrap();
        set_enabled(true);
        let _ = take_local();
        let outer = TraceScope::begin(TraceContext::with_id(1));
        let inner = TraceScope::begin(TraceContext::with_id(2));
        {
            let _s = span(Phase::Prune);
        }
        assert!(inner.finish().is_none(), "inner scope must be inert");
        let t = outer.finish().unwrap();
        set_enabled(false);
        let _ = take_local();
        assert_eq!(t.trace_id, 1);
        assert_eq!(t.spans.len(), 1);
    }

    #[test]
    fn dropped_scope_discards_partial_capture() {
        let _l = LOCK.lock().unwrap();
        set_enabled(true);
        let _ = take_local();
        {
            let _scope = TraceScope::begin(TraceContext::with_id(3));
            let _s = span(Phase::Refine);
            // scope dropped without finish
        }
        let scope = TraceScope::begin(TraceContext::with_id(4));
        let t = scope.finish().unwrap();
        set_enabled(false);
        let _ = take_local();
        assert!(t.spans.is_empty(), "stale spans leaked: {:?}", t.spans);
    }

    #[test]
    fn recorder_keeps_slowest_and_every_flagged() {
        let rec = FlightRecorder::new(3);
        for id in 1..=10u64 {
            rec.offer(trace(id, id * 100, false));
        }
        // Slowest three healthy traces retained.
        let ids: Vec<u64> = rec.snapshot().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![10, 9, 8]);
        // A fast flagged trace evicts the fastest healthy one and then
        // cannot be evicted by any healthy latency — even u64::MAX only
        // displaces another healthy trace.
        assert!(rec.offer(trace(11, 1, true)));
        assert!(rec.offer(trace(12, u64::MAX, false)));
        let ids: Vec<u64> = rec.snapshot().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![11, 12, 10]);
    }

    #[test]
    fn recorder_fast_path_rejects_below_floor_without_breaking_ties() {
        let rec = FlightRecorder::new(2);
        rec.offer(trace(1, 100, false));
        rec.offer(trace(2, 200, false));
        // Below the floor: rejected (fast path).
        assert!(!rec.offer(trace(3, 50, false)));
        // Equal to the floor with a *higher* id: loses the tie-break.
        assert!(!rec.offer(trace(4, 100, false)));
        // Equal latency, lower id than a retained trace? Not possible
        // here (ids are monotone), but strictly above the floor wins.
        assert!(rec.offer(trace(5, 150, false)));
        let ids: Vec<u64> = rec.snapshot().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![2, 5]);
    }

    #[test]
    fn recorder_retention_is_independent_of_worker_count() {
        // A synthetic stream with clashing latencies and a sprinkling of
        // flagged traces, offered to a small recorder from 1, 2, 4 and 8
        // threads under different partitions of the stream. Retention is
        // a total order over the offered multiset, so every partition
        // must converge on the same retained set, in the same order.
        fn synth(i: u64) -> RequestTrace {
            RequestTrace {
                trace_id: i,
                status: 200,
                total_ns: (i * 7919) % 13 * 1_000,
                degraded: i % 17 == 0,
                ..RequestTrace::default()
            }
        }
        const STREAM: u64 = 64;
        let ids = |threads: u64| -> Vec<u64> {
            let rec = FlightRecorder::new(8);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let rec = &rec;
                    s.spawn(move || {
                        // Worker `t` offers the t-th residue class: each
                        // thread count partitions the stream differently.
                        for i in (t..STREAM).step_by(threads as usize) {
                            rec.offer(synth(i));
                        }
                    });
                }
            });
            rec.snapshot().iter().map(|t| t.trace_id).collect()
        };
        let baseline = ids(1);
        assert_eq!(baseline.len(), 8);
        for threads in [2, 4, 8] {
            assert_eq!(ids(threads), baseline, "{threads} workers diverged");
        }
        // Every flagged trace survives, however fast it was.
        for i in (0..STREAM).filter(|i| i % 17 == 0) {
            assert!(baseline.contains(&i), "flagged trace {i} evicted");
        }
    }

    #[test]
    fn zero_capacity_recorder_records_nothing() {
        let rec = FlightRecorder::new(0);
        assert!(!rec.offer(trace(1, 1, true)));
        assert!(rec.is_empty());
    }

    #[test]
    fn trace_jsonl_round_trips() {
        let mut a = trace(5, 1_000_000, false);
        a.status = 200;
        a.objective = "minmax".into();
        a.algorithm = "efficient".into();
        a.queue_wait_ns = 42;
        a.dist_computations = 7;
        a.cache_hits = 3;
        a.cache_misses = 4;
        a.spans = vec![
            TraceSpan {
                phase: Phase::KnnInit,
                depth: 0,
                count: 1,
                total_ns: 500,
                self_ns: 500,
            },
            TraceSpan {
                phase: Phase::CandidateLoop,
                depth: 0,
                count: 1,
                total_ns: 900_000,
                self_ns: 600_000,
            },
        ];
        let mut b = trace(6, 2_000_000, true);
        b.status = 200;
        b.objective = "maxsum".into();
        b.algorithm = "brute".into();
        b.gap = 1.5;
        b.reason = "deadline".into();
        b.slo_violation = true;
        let out = to_trace_jsonl(&[a.clone(), b.clone()], 8);
        let (summary, parsed) = parse_trace_jsonl(&out).expect("dump must parse");
        assert!(summary.has_meta);
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.degraded, 1);
        assert_eq!(summary.slo_violations, 1);
        assert_eq!(summary.spans, 2);
        assert_eq!(parsed, vec![a, b]);
    }

    #[test]
    fn validator_rejects_unsound_self_times() {
        let mut t = trace(1, 100, false);
        t.spans = vec![TraceSpan {
            phase: Phase::Prune,
            depth: 0,
            count: 1,
            total_ns: 500,
            self_ns: 500,
        }];
        let out = to_trace_jsonl(&[t], 4);
        let err = validate_trace_jsonl(&out).unwrap_err();
        assert!(err.contains("self-times"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_meta_and_duplicates() {
        let t = trace(9, 10, false);
        let line = trace_json_line(&t);
        assert!(validate_trace_jsonl(&format!("{line}\n")).is_err());
        let dup = format!("{}\n{line}\n{line}\n", to_trace_jsonl(&[], 4).trim_end());
        let err = validate_trace_jsonl(&dup).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
