//! Core-engine instrumentation: the cached metric handles one
//! [`crate::world::World`] reports through when a
//! [`gamedb_metrics::MetricsRegistry`] is attached
//! ([`crate::world::World::attach_metrics`]).
//!
//! Handles are resolved **once** at attach time; every hot-path update
//! (a change record, a view refresh, a plan choice) is a relaxed atomic
//! op with no lock and no name lookup. Instrumentation is purely
//! observational — nothing in the engine branches on whether a handle
//! is present beyond the `Option` check itself, so a seeded workload is
//! bit-identical with and without metrics (enforced by
//! `tests/metrics_transparency.rs` at the workspace root).

use std::sync::Mutex;

use gamedb_metrics::{Counter, Gauge, Histogram, MetricsRegistry, SIZE_BUCKETS};

use crate::planner::Access;

/// Cached handles for one world. Held as `Option<Arc<CoreMetrics>>`
/// inside the change stream (every write path already flows through
/// it); world clones do **not** inherit the handle — like taps, a
/// metrics consumer observes the world it attached to, and a cloned
/// oracle double-reporting into the same registry would corrupt every
/// counter.
#[derive(Debug)]
pub(crate) struct CoreMetrics {
    registry: MetricsRegistry,
    // -- change stream --
    /// `change.records`: records committed to the stream.
    pub records: Counter,
    /// `change.batches`: multi-op segments committed via `apply_batch`.
    pub batches: Counter,
    /// `change.batch_ops`: ops per `apply_batch` segment.
    pub batch_ops: Histogram,
    /// `change.tap_evictions`: unpinned taps evicted by retention.
    pub tap_evictions: Counter,
    /// `change.retained`: records currently pinned by lagging consumers.
    pub retained: Gauge,
    /// `change.tap_drain`: records drained per tap ack (how far behind
    /// each consumer ran before consuming).
    pub tap_drain: Histogram,
    /// `change.tap{N}.lag`: per-tap lag at its most recent ack.
    tap_lag: Mutex<Vec<Option<Gauge>>>,
    // -- standing views --
    /// `view.refreshes`: delta batches folded into views.
    pub view_refreshes: Counter,
    /// `view.rescans`: refreshes that fell back to a planner rescan.
    pub view_rescans: Counter,
    /// `view.incremental`: refreshes maintained incrementally.
    pub view_incremental: Counter,
    /// `view.deltas_seen`: deltas inspected across all refreshes.
    pub view_deltas: Counter,
    /// `view.refresh_candidates`: candidate rows evaluated per refresh
    /// (the refresh cost, in the planner's row-visit units).
    pub view_candidates: Histogram,
    /// `view.entered` / `view.exited` / `view.changed`: changelog sizes.
    pub view_entered: Counter,
    pub view_exited: Counter,
    pub view_changed: Counter,
    // -- operator-tree views (differential view maintenance) --
    /// `view.op_scan.rows_in/rows_out`: candidate rows inspected by
    /// fused scan chains / source delta rows emitted (incremental
    /// batches only — a row view's rescan fallback counts in
    /// `view.rescans`).
    pub op_scan: OpMetrics,
    /// `view.op_filter.rows_in/rows_out`: candidates evaluated against
    /// fused filter predicates / candidates passing them.
    pub op_filter: OpMetrics,
    /// `view.op_join.rows_in/rows_out`: source delta rows entering join
    /// operators / pair changes applied.
    pub op_join: OpMetrics,
    /// `view.op_group.rows_in/rows_out`: source delta rows entering
    /// group aggregates / group rows entered+exited+changed.
    pub op_group: OpMetrics,
    /// `view.op_group.retract_recomputes`: min/max retractions of a
    /// group's current extreme (recomputed from the ordered multiset).
    pub op_group_retracts: Counter,
    /// `view.s{slot}.*`: per-view refresh/rescan/candidate counters.
    view_slots: Mutex<Vec<Option<ViewSlotMetrics>>>,
    // -- planner --
    /// `planner.plans`: cost-based plan selections executed.
    pub plans: Counter,
    /// `planner.full_scan` / `planner.spatial_index` /
    /// `planner.attribute_index`: chosen access paths.
    pub plan_full_scan: Counter,
    pub plan_spatial: Counter,
    pub plan_attr: Counter,
}

/// Rows-in/rows-out pair for one operator class of the differential
/// view engine.
#[derive(Debug)]
pub(crate) struct OpMetrics {
    pub rows_in: Counter,
    pub rows_out: Counter,
}

impl OpMetrics {
    fn new(registry: &MetricsRegistry, op: &str) -> OpMetrics {
        OpMetrics {
            rows_in: registry.counter(&format!("view.op_{op}.rows_in")),
            rows_out: registry.counter(&format!("view.op_{op}.rows_out")),
        }
    }

    /// Count one operator invocation's input and output row counts.
    #[inline]
    pub fn note(&self, rows_in: usize, rows_out: usize) {
        self.rows_in.add(rows_in as u64);
        self.rows_out.add(rows_out as u64);
    }
}

/// Per-view-slot handles, created lazily the first time a slot
/// refreshes under an attached registry.
#[derive(Debug, Clone)]
pub(crate) struct ViewSlotMetrics {
    pub refreshes: Counter,
    pub rescans: Counter,
    pub candidates: Counter,
    /// `view.s{slot}.delta_rows`: output delta rows this view emitted
    /// (its per-refresh delta-batch size, accumulated).
    pub delta_rows: Counter,
}

impl CoreMetrics {
    pub fn new(registry: &MetricsRegistry) -> Self {
        CoreMetrics {
            records: registry.counter("change.records"),
            batches: registry.counter("change.batches"),
            batch_ops: registry.histogram("change.batch_ops", SIZE_BUCKETS),
            tap_evictions: registry.counter("change.tap_evictions"),
            retained: registry.gauge("change.retained"),
            tap_drain: registry.histogram("change.tap_drain", SIZE_BUCKETS),
            tap_lag: Mutex::new(Vec::new()),
            view_refreshes: registry.counter("view.refreshes"),
            view_rescans: registry.counter("view.rescans"),
            view_incremental: registry.counter("view.incremental"),
            view_deltas: registry.counter("view.deltas_seen"),
            view_candidates: registry.histogram("view.refresh_candidates", SIZE_BUCKETS),
            view_entered: registry.counter("view.entered"),
            view_exited: registry.counter("view.exited"),
            view_changed: registry.counter("view.changed"),
            op_scan: OpMetrics::new(registry, "scan"),
            op_filter: OpMetrics::new(registry, "filter"),
            op_join: OpMetrics::new(registry, "join"),
            op_group: OpMetrics::new(registry, "group"),
            op_group_retracts: registry.counter("view.op_group.retract_recomputes"),
            view_slots: Mutex::new(Vec::new()),
            plans: registry.counter("planner.plans"),
            plan_full_scan: registry.counter("planner.full_scan"),
            plan_spatial: registry.counter("planner.spatial_index"),
            plan_attr: registry.counter("planner.attribute_index"),
            registry: registry.clone(),
        }
    }

    /// Count one executed plan choice.
    #[inline]
    pub fn note_access(&self, access: &Access) {
        self.plans.inc();
        match access {
            Access::FullScan => self.plan_full_scan.inc(),
            Access::SpatialIndex { .. } => self.plan_spatial.inc(),
            Access::AttributeIndex { .. } => self.plan_attr.inc(),
        }
    }

    /// Record a tap's lag at ack time on its `change.tap{N}.lag` gauge
    /// (created on first use) and in the shared drain histogram.
    pub fn note_tap_drain(&self, tap_index: usize, lag: u64) {
        self.tap_drain.observe(lag);
        let mut gauges = self.tap_lag.lock().expect("tap lag gauges poisoned");
        if gauges.len() <= tap_index {
            gauges.resize(tap_index + 1, None);
        }
        let gauge = gauges[tap_index]
            .get_or_insert_with(|| self.registry.gauge(&format!("change.tap{tap_index}.lag")));
        gauge.set(lag as i64);
    }

    /// Handles for one view slot (created on first refresh).
    pub fn view_slot(&self, slot: usize) -> ViewSlotMetrics {
        let mut slots = self.view_slots.lock().expect("view slot metrics poisoned");
        if slots.len() <= slot {
            slots.resize(slot + 1, None);
        }
        slots[slot]
            .get_or_insert_with(|| ViewSlotMetrics {
                refreshes: self.registry.counter(&format!("view.s{slot}.refreshes")),
                rescans: self.registry.counter(&format!("view.s{slot}.rescans")),
                candidates: self.registry.counter(&format!("view.s{slot}.candidates")),
                delta_rows: self.registry.counter(&format!("view.s{slot}.delta_rows")),
            })
            .clone()
    }
}
