//! Deterministic fault injection for robustness tests.
//!
//! Production and test code call [`should_fail`] at a small set of named
//! [`FaultPoint`]s. Without the `fault-inject` cargo feature the call is a
//! constant `false` and the optimizer removes it entirely, so shipping
//! binaries carry zero overhead. With the feature enabled, tests *arm* a
//! point and the point fires when its trigger condition is met.
//!
//! Two arming styles exist:
//!
//! - The original fire-once API ([`arm`], [`arm_seeded`]): the point fires
//!   exactly once at the armed hit index and disarms itself.
//! - A [`FaultSchedule`]: a list of [`FaultSpec`] entries, each pairing a
//!   point with a [`Trigger`] (`Nth` fires once at hit *n*; `EveryK` fires
//!   repeatedly at every *k*-th crossing after a phase offset) and a
//!   [`FaultAction`] (`Fail` makes `should_fail` return `true` so the call
//!   site panics or errors; `Delay` injects a sleep at the crossing and
//!   returns `false`, so the call site proceeds — slowly). Schedules are
//!   reproducible from a single seed: [`FaultSchedule::seeded`] derives
//!   every randomized trigger index from `seed`, the entry index, and the
//!   point's slot number, so a red chaos run replays from the seed alone.
//!
//! The plan is process-global (fault points are crossed on worker threads
//! that the arming test does not control), so tests that arm points must
//! serialize on a lock of their own; see `crates/core/tests/fault_inject.rs`.

#![warn(missing_docs)]

use std::time::Duration;

/// A named site in the codebase where a fault can be injected.
///
/// The numbering is stable: it is used to index the global arming table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultPoint {
    /// Allocation of a solver's scratch state at the start of a query
    /// (the search driver's setup in `EfficientSolver::search`, crossed by
    /// every objective). Firing here panics inside a worker shard.
    ScratchAlloc = 0,
    /// Distance-cache insert on the miss path
    /// (`DistCache::door_dists`). Firing here panics mid-distance-kernel.
    CacheInsert = 1,
    /// Snapshot section read during `VipTree::from_snapshot_bytes`.
    /// Firing here surfaces as a typed `SnapshotError`, not a panic.
    SnapshotRead = 2,
    /// Worker thread startup in `try_run_indexed_state`, before the worker
    /// claims any item. Firing here kills the whole worker.
    WorkerStart = 3,
    /// Request read path in the serve daemon (`handle_connection`, before
    /// the request is parsed). `Fail` surfaces as a typed 400; `Delay`
    /// slows the read without corrupting it.
    IoRead = 4,
    /// Serve worker loop, crossed after a connection batch is popped and
    /// before it is handled. `Delay` simulates a wedged worker holding
    /// work; `Fail` kills the worker mid-batch (clients see a closed
    /// connection, so chaos suites use `Delay` here).
    QueueWedge = 5,
    /// Serve worker loop, crossed between connections with no work in
    /// hand. `Fail` kills the worker cleanly (no request is lost) and
    /// exercises supervisor respawn; `Delay` stalls the heartbeat and
    /// exercises wedge detection.
    WorkerHeartbeat = 6,
    /// Crossed while a serve-shared lock (tree version, metrics sink) is
    /// held. `Fail` poisons the lock via panic; subsequent requests must
    /// survive through the `lock_unpoisoned` recovery path.
    LockPoison = 7,
}

/// Number of distinct fault points.
pub const NUM_POINTS: usize = 8;

impl FaultPoint {
    /// Every fault point, in slot order.
    pub const ALL: [FaultPoint; NUM_POINTS] = [
        FaultPoint::ScratchAlloc,
        FaultPoint::CacheInsert,
        FaultPoint::SnapshotRead,
        FaultPoint::WorkerStart,
        FaultPoint::IoRead,
        FaultPoint::QueueWedge,
        FaultPoint::WorkerHeartbeat,
        FaultPoint::LockPoison,
    ];

    /// Stable snake_case name (for logs and test output).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::ScratchAlloc => "scratch_alloc",
            FaultPoint::CacheInsert => "cache_insert",
            FaultPoint::SnapshotRead => "snapshot_read",
            FaultPoint::WorkerStart => "worker_start",
            FaultPoint::IoRead => "io_read",
            FaultPoint::QueueWedge => "queue_wedge",
            FaultPoint::WorkerHeartbeat => "worker_heartbeat",
            FaultPoint::LockPoison => "lock_poison",
        }
    }
}

/// What an armed entry does at its trigger crossing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// `should_fail` returns `true`; the call site panics or errors.
    Fail,
    /// `should_fail` sleeps for the given duration at the crossing and
    /// returns `false`; the call site proceeds after the stall.
    Delay(Duration),
}

/// When an armed entry fires, counted in crossings of its point since
/// arming (0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Fire exactly once, at the `n`-th crossing, then disarm.
    Nth(u64),
    /// Fire at crossing `first`, then at every `k`-th crossing after it,
    /// without disarming. `k` is clamped to at least 1.
    EveryK {
        /// Period between firings, in crossings.
        k: u64,
        /// First crossing index that fires.
        first: u64,
    },
}

/// One armed entry of a [`FaultSchedule`]: a point, a trigger, an action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The site this entry arms.
    pub point: FaultPoint,
    /// When the entry fires.
    pub trigger: Trigger,
    /// What happens at each firing.
    pub action: FaultAction,
}

/// A reproducible multi-point fault plan.
///
/// Each point holds at most one armed entry (arming a point twice keeps the
/// later entry). [`install`](FaultSchedule::install) resets the global table
/// and arms every entry; crossings are counted from that moment.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    seed: u64,
    entries: Vec<FaultSpec>,
}

impl FaultSchedule {
    /// An empty schedule whose seeded triggers derive from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultSchedule {
            seed,
            entries: Vec::new(),
        }
    }

    /// The seed this schedule derives randomized triggers from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed entries, in arming order.
    pub fn entries(&self) -> &[FaultSpec] {
        &self.entries
    }

    /// Adds a fire-once entry at an explicit crossing index.
    pub fn nth(mut self, point: FaultPoint, n: u64, action: FaultAction) -> Self {
        self.entries.push(FaultSpec {
            point,
            trigger: Trigger::Nth(n),
            action,
        });
        self
    }

    /// Adds a fire-once entry at a seeded crossing index drawn uniformly
    /// from `0..window`. The draw mixes the schedule seed, the entry index,
    /// and the point's slot number, so each entry gets an independent,
    /// reproducible stream.
    pub fn nth_seeded(mut self, point: FaultPoint, window: u64, action: FaultAction) -> Self {
        let salt = self.entries.len() as u64;
        let mut rng = ifls_rng::StdRng::seed_from_u64(
            self.seed ^ (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ point as u64,
        );
        let n = rng.random_range(0..window.max(1));
        self.entries.push(FaultSpec {
            point,
            trigger: Trigger::Nth(n),
            action,
        });
        self
    }

    /// Adds a repeating entry: fires at crossing `first`, then every `k`
    /// crossings after it, until the table is reset.
    pub fn every(mut self, point: FaultPoint, k: u64, first: u64, action: FaultAction) -> Self {
        self.entries.push(FaultSpec {
            point,
            trigger: Trigger::EveryK { k, first },
            action,
        });
        self
    }

    /// Resets the global arming table and arms every entry. Crossing
    /// counts start from zero at this call. No-op without `fault-inject`.
    pub fn install(&self) {
        disarm_all();
        #[cfg(feature = "fault-inject")]
        for spec in &self.entries {
            imp::arm_spec(*spec);
        }
    }
}

/// Returns `true` when the given fault point should fail *now*.
///
/// Call sites decide what "fail" means (panic, typed error). A `Delay`
/// entry sleeps here and returns `false`. Without the `fault-inject`
/// feature this is a constant `false`.
#[inline(always)]
pub fn should_fail(point: FaultPoint) -> bool {
    #[cfg(feature = "fault-inject")]
    {
        imp::should_fail(point)
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = point;
        false
    }
}

/// `true` when the crate was compiled with the `fault-inject` feature.
pub const fn enabled() -> bool {
    cfg!(feature = "fault-inject")
}

/// Arms `point` to fire exactly once, at its `trigger_at`-th crossing
/// (0-based) counted from this call. No-op without `fault-inject`.
pub fn arm(point: FaultPoint, trigger_at: u64) {
    #[cfg(feature = "fault-inject")]
    imp::arm_spec(FaultSpec {
        point,
        trigger: Trigger::Nth(trigger_at),
        action: FaultAction::Fail,
    });
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = (point, trigger_at);
    }
}

/// Arms `point` at a seeded hit index drawn uniformly from
/// `0..window` with [`ifls_rng::StdRng`], so sweeps are reproducible from
/// the seed alone. Returns the chosen trigger index.
pub fn arm_seeded(point: FaultPoint, seed: u64, window: u64) -> u64 {
    let mut rng = ifls_rng::StdRng::seed_from_u64(seed ^ point as u64);
    let trigger = rng.random_range(0..window.max(1));
    arm(point, trigger);
    trigger
}

/// Disarms every fault point and resets hit/fire accounting.
pub fn disarm_all() {
    #[cfg(feature = "fault-inject")]
    imp::disarm_all();
}

/// How many times `point` has been crossed since the last [`disarm_all`].
/// Always 0 without `fault-inject`.
pub fn hits(point: FaultPoint) -> u64 {
    #[cfg(feature = "fault-inject")]
    {
        imp::hits(point)
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = point;
        0
    }
}

/// How many times `point` has fired since the last [`disarm_all`].
/// Always 0 without `fault-inject`.
pub fn fired(point: FaultPoint) -> u64 {
    #[cfg(feature = "fault-inject")]
    {
        imp::fired(point)
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = point;
        0
    }
}

#[cfg(feature = "fault-inject")]
mod imp {
    use super::{FaultAction, FaultPoint, FaultSpec, Trigger, NUM_POINTS};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
    use std::time::Duration;

    const MODE_NTH: u8 = 0;
    const MODE_EVERY: u8 = 1;
    const ACT_FAIL: u8 = 0;
    const ACT_DELAY: u8 = 1;

    struct Slot {
        armed: AtomicBool,
        mode: AtomicU8,
        trigger: AtomicU64,
        every_k: AtomicU64,
        action: AtomicU8,
        delay_ms: AtomicU64,
        hits: AtomicU64,
        fired: AtomicU64,
    }

    impl Slot {
        const fn new() -> Self {
            Slot {
                armed: AtomicBool::new(false),
                mode: AtomicU8::new(MODE_NTH),
                trigger: AtomicU64::new(0),
                every_k: AtomicU64::new(1),
                action: AtomicU8::new(ACT_FAIL),
                delay_ms: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            }
        }
    }

    static SLOTS: [Slot; NUM_POINTS] = [
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
    ];

    pub(super) fn should_fail(point: FaultPoint) -> bool {
        let slot = &SLOTS[point as usize];
        let hit = slot.hits.fetch_add(1, Ordering::Relaxed);
        if !slot.armed.load(Ordering::Relaxed) {
            return false;
        }
        let trigger = slot.trigger.load(Ordering::Relaxed);
        match slot.mode.load(Ordering::Relaxed) {
            MODE_NTH => {
                if hit != trigger {
                    return false;
                }
                // Fire once: the swap makes concurrent crossings of the
                // same hit index race safely (exactly one sees `true`).
                if !slot.armed.swap(false, Ordering::Relaxed) {
                    return false;
                }
            }
            _ => {
                // EveryK: fires at `first`, then every k crossings, and
                // stays armed.
                let k = slot.every_k.load(Ordering::Relaxed).max(1);
                if hit < trigger || !(hit - trigger).is_multiple_of(k) {
                    return false;
                }
            }
        }
        slot.fired.fetch_add(1, Ordering::Relaxed);
        match slot.action.load(Ordering::Relaxed) {
            ACT_DELAY => {
                let ms = slot.delay_ms.load(Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(ms));
                false
            }
            _ => true,
        }
    }

    pub(super) fn arm_spec(spec: FaultSpec) {
        let slot = &SLOTS[spec.point as usize];
        slot.armed.store(false, Ordering::Relaxed);
        slot.hits.store(0, Ordering::Relaxed);
        slot.fired.store(0, Ordering::Relaxed);
        match spec.trigger {
            Trigger::Nth(n) => {
                slot.mode.store(MODE_NTH, Ordering::Relaxed);
                slot.trigger.store(n, Ordering::Relaxed);
                slot.every_k.store(1, Ordering::Relaxed);
            }
            Trigger::EveryK { k, first } => {
                slot.mode.store(MODE_EVERY, Ordering::Relaxed);
                slot.trigger.store(first, Ordering::Relaxed);
                slot.every_k.store(k.max(1), Ordering::Relaxed);
            }
        }
        match spec.action {
            FaultAction::Fail => {
                slot.action.store(ACT_FAIL, Ordering::Relaxed);
                slot.delay_ms.store(0, Ordering::Relaxed);
            }
            FaultAction::Delay(d) => {
                slot.action.store(ACT_DELAY, Ordering::Relaxed);
                slot.delay_ms.store(
                    d.as_millis().min(u64::MAX as u128) as u64,
                    Ordering::Relaxed,
                );
            }
        }
        slot.armed.store(true, Ordering::Relaxed);
    }

    pub(super) fn disarm_all() {
        for slot in &SLOTS {
            slot.armed.store(false, Ordering::Relaxed);
            slot.mode.store(MODE_NTH, Ordering::Relaxed);
            slot.trigger.store(0, Ordering::Relaxed);
            slot.every_k.store(1, Ordering::Relaxed);
            slot.action.store(ACT_FAIL, Ordering::Relaxed);
            slot.delay_ms.store(0, Ordering::Relaxed);
            slot.hits.store(0, Ordering::Relaxed);
            slot.fired.store(0, Ordering::Relaxed);
        }
    }

    pub(super) fn hits(point: FaultPoint) -> u64 {
        SLOTS[point as usize].hits.load(Ordering::Relaxed)
    }

    pub(super) fn fired(point: FaultPoint) -> u64 {
        SLOTS[point as usize].fired.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The arming table is process-global; serialize every test that
    // touches it.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn noop_without_feature_or_arming() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        // Whether or not the feature is on, an un-armed point never fires.
        for p in FaultPoint::ALL {
            assert!(!should_fail(p), "{} fired while disarmed", p.name());
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fires_exactly_once_at_trigger() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        arm(FaultPoint::CacheInsert, 2);
        assert!(!should_fail(FaultPoint::CacheInsert)); // hit 0
        assert!(!should_fail(FaultPoint::CacheInsert)); // hit 1
        assert!(should_fail(FaultPoint::CacheInsert)); // hit 2 fires
        assert!(!should_fail(FaultPoint::CacheInsert)); // disarmed after fire
        assert_eq!(fired(FaultPoint::CacheInsert), 1);
        assert_eq!(hits(FaultPoint::CacheInsert), 4);
        disarm_all();
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn seeded_arming_is_reproducible() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        let a = arm_seeded(FaultPoint::ScratchAlloc, 42, 100);
        disarm_all();
        let b = arm_seeded(FaultPoint::ScratchAlloc, 42, 100);
        assert_eq!(a, b);
        assert!(a < 100);
        disarm_all();
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn every_k_fires_repeatedly_with_phase() {
        let _g = LOCK.lock().unwrap();
        FaultSchedule::seeded(7)
            .every(FaultPoint::WorkerStart, 3, 1, FaultAction::Fail)
            .install();
        let fires: Vec<bool> = (0..8)
            .map(|_| should_fail(FaultPoint::WorkerStart))
            .collect();
        // Crossings 1, 4, 7 fire; the entry stays armed throughout.
        assert_eq!(
            fires,
            vec![false, true, false, false, true, false, false, true]
        );
        assert_eq!(fired(FaultPoint::WorkerStart), 3);
        disarm_all();
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn delay_action_stalls_but_does_not_fail() {
        let _g = LOCK.lock().unwrap();
        FaultSchedule::seeded(7)
            .nth(
                FaultPoint::QueueWedge,
                0,
                FaultAction::Delay(Duration::from_millis(30)),
            )
            .install();
        let start = std::time::Instant::now();
        assert!(!should_fail(FaultPoint::QueueWedge));
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(fired(FaultPoint::QueueWedge), 1);
        // Nth entries disarm after firing even when the action is a delay.
        let start = std::time::Instant::now();
        assert!(!should_fail(FaultPoint::QueueWedge));
        assert!(start.elapsed() < Duration::from_millis(20));
        disarm_all();
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn seeded_schedule_is_reproducible() {
        let _g = LOCK.lock().unwrap();
        let a = FaultSchedule::seeded(99)
            .nth_seeded(FaultPoint::IoRead, 50, FaultAction::Fail)
            .nth_seeded(FaultPoint::IoRead, 50, FaultAction::Fail);
        let b = FaultSchedule::seeded(99)
            .nth_seeded(FaultPoint::IoRead, 50, FaultAction::Fail)
            .nth_seeded(FaultPoint::IoRead, 50, FaultAction::Fail);
        assert_eq!(a.entries(), b.entries());
        // Distinct entry indices draw from distinct streams.
        assert_ne!(a.entries()[0].trigger, a.entries()[1].trigger);
        disarm_all();
    }
}
