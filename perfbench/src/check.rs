//! Answer checking and the failure tally.
//!
//! Every answer a workload times is compared against a reference that
//! comes from a *different* path, computed after the timed window:
//! the brute-force oracle for the warm stream, and single-query
//! [`ifls_core::api::solve`] for batched and served answers. Answer ids
//! must match exactly; objective values must agree to within
//! [`VALUE_TOLERANCE`] relative.

use std::collections::BTreeMap;

use ifls_core::api::QuerySummary;

use crate::json::Json;

/// Relative tolerance on objective values (MinDist averages a sum whose
/// accumulation order differs between solver families).
pub const VALUE_TOLERANCE: f64 = 1e-9;

/// The part of an answer the checker compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answer {
    /// The chosen candidate partition id (`None`: no candidate improves).
    pub id: Option<u32>,
    /// The objective value.
    pub value: f64,
}

impl Answer {
    /// The comparable part of a solver summary.
    pub fn of(s: &QuerySummary) -> Answer {
        Answer {
            id: s.answer.map(|p| p.raw()),
            value: s.value,
        }
    }
}

/// Compares an answer against its reference.
pub fn compare(got: Answer, want: Answer) -> Result<(), String> {
    if got.id != want.id {
        return Err(format!(
            "wrong answer id: got {:?}, want {:?}",
            got.id, want.id
        ));
    }
    let scale = got.value.abs().max(want.value.abs());
    if (got.value - want.value).abs() > VALUE_TOLERANCE * scale || got.value.is_nan() {
        return Err(format!(
            "wrong objective value: got {}, want {}",
            got.value, want.value
        ));
    }
    Ok(())
}

/// A summary must be exact: no run sets a budget, so a degraded answer is
/// a failure.
pub fn exact(s: &QuerySummary) -> Result<(), String> {
    if s.resolution.is_exact() {
        Ok(())
    } else {
        Err("degraded answer without a budget".into())
    }
}

/// What the checker reads from one served `/query` response.
#[derive(Clone, Debug)]
pub struct Served {
    /// The answer the daemon returned.
    pub answer: Answer,
    /// The solver's own clock (`stats.elapsed_ns`).
    pub solve_ns: u64,
    /// Logical distance computations.
    pub dist_computations: u64,
    /// Facilities retrieved into per-client lists.
    pub facilities_retrieved: u64,
    /// Clients pruned by Lemma 5.1.
    pub clients_pruned: u64,
    /// Distance-cache hits and misses.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Local-tier cache footprint at the end of the query.
    pub cache_bytes: u64,
    /// Structural peak memory.
    pub peak_bytes: u64,
}

/// Validates one `/query` response: status 200, a complete
/// `ifls-stats/v1` body for the expected objective, and an exact (not
/// degraded) answer.
pub fn served(status: u16, body: &str, value_key: &str) -> Result<Served, String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    let doc = Json::parse(body.trim_end()).map_err(|e| format!("unparsable body: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("ifls-stats/v1") {
        return Err("body is not ifls-stats/v1".into());
    }
    if doc.get("degraded").and_then(Json::as_bool) != Some(false) {
        return Err("degraded answer without a budget".into());
    }
    let id = match doc.get("answer") {
        Some(Json::Null) => None,
        Some(Json::Num(v)) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u32),
        _ => return Err("body has no answer".into()),
    };
    let value = doc
        .get(value_key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("body has no `{value_key}`"))?;
    let stats = doc.get("stats").ok_or("body has no stats")?;
    let field = |k: &str| -> Result<u64, String> {
        stats
            .get(k)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("stats has no `{k}`"))
    };
    Ok(Served {
        answer: Answer { id, value },
        solve_ns: field("elapsed_ns")?,
        dist_computations: field("dist_computations")?,
        facilities_retrieved: field("facilities_retrieved")?,
        clients_pruned: field("clients_pruned")?,
        cache_hits: field("cache_hits")?,
        cache_misses: field("cache_misses")?,
        cache_bytes: field("cache_bytes")?,
        peak_bytes: field("peak_bytes")?,
    })
}

/// Attempted operations and the failures among them.
///
/// A workload records each timed operation once, with every check that
/// can be made at that moment; a reference comparison made after the
/// timed window calls [`Tally::fail`] on an operation that passed its
/// first checks, so no operation is counted twice.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted (queries, requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failure count per reason (the message up to its first `:`).
    pub reasons: BTreeMap<String, u64>,
    /// The first failure message, for the log.
    pub first: Option<String>,
}

impl Tally {
    /// Records one attempt and its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        let reason = msg.split(':').next().unwrap_or(&msg).trim().to_string();
        *self.reasons.entry(reason).or_default() += 1;
        self.first.get_or_insert(msg);
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}
