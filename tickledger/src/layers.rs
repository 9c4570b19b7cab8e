//! Per-layer metrics of a traced run: span totals from the benchmark's
//! own [`Tracer`], counts the workload tallied at the call sites, and
//! deltas of the library's [`MetricsRegistry`] counters over the timed
//! loop. Every workload reports every metric; a layer a workload never
//! calls reads 0.

use gamedb::metrics::{MetricsRegistry, Snapshot};

use crate::ledger::{median, Report, Tracer};
use crate::probe::QueryLog;

/// Counts the workload adds up at its call sites.
#[derive(Default)]
pub struct Tally {
    pub script_runs: u64,
    pub script_effects: u64,
    /// Ops applied by `core.apply` calls (their return values).
    pub applied: u64,
    /// Planner access-path counts over the read bursts only.
    pub planner_full_scan: u64,
    pub planner_attribute: u64,
    pub snapshot_bytes: u64,
    pub replayed_records: u64,
    pub actions: u64,
    pub distributed: u64,
    pub handoff_bytes: u64,
    pub repl_bytes: u64,
    pub repl_client_ticks: u64,
    pub repl_gated: u64,
}

/// Planner counters read around each read burst, so view rescans and
/// recovery do not count as probe plans.
pub struct PlannerTap {
    full_scan: gamedb::metrics::Counter,
    attribute: gamedb::metrics::Counter,
    before: (u64, u64),
}

impl PlannerTap {
    pub fn new(reg: &MetricsRegistry) -> Self {
        PlannerTap {
            full_scan: reg.counter("planner.full_scan"),
            attribute: reg.counter("planner.attribute_index"),
            before: (0, 0),
        }
    }

    pub fn begin(&mut self) {
        self.before = (self.full_scan.get(), self.attribute.get());
    }

    pub fn end(&self, tally: &mut Tally) {
        tally.planner_full_scan += self.full_scan.get() - self.before.0;
        tally.planner_attribute += self.attribute.get() - self.before.1;
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Emit every per-layer metric. `log_bytes` is the WAL growth and
/// `loop_delta` the registry's change over the timed loop; `tick_walls`
/// are the traced tick wall times.
pub fn emit(
    report: &mut Report,
    tracer: &Tracer,
    tally: &Tally,
    queries: &QueryLog,
    log_bytes: u64,
    loop_delta: &Snapshot,
    tick_walls: &[f64],
) {
    let ticks = tick_walls.len().max(1) as f64;
    let per_tick = |v: f64| v / ticks;
    // `+ 0.0` turns the empty sum's -0.0 into 0.0
    let busy = |names: &[&str]| names.iter().map(|n| tracer.total_ms(n)).sum::<f64>() + 0.0;

    let script_ms = busy(&["script.run", "script.tick"]);
    report.metric("script.busy_ms", per_tick(script_ms), "ms");
    report.metric("script.runs", per_tick(tally.script_runs as f64), "count");
    report.metric(
        "script.vm_instrs",
        per_tick(loop_delta.counter("script.vm_instrs") as f64),
        "count",
    );
    report.metric(
        "script.effects",
        per_tick(tally.script_effects as f64),
        "count",
    );

    let apply_ms = busy(&["core.apply"]);
    report.metric("core.apply_ms", per_tick(apply_ms), "ms");
    report.metric(
        "core.writes",
        per_tick(loop_delta.counter("change.records") as f64),
        "count",
    );
    report.metric(
        "core.apply_ns_per_write",
        ratio(apply_ms * 1e6, tally.applied as f64),
        "ns",
    );

    let rescans = loop_delta.counter("view.rescans") as f64;
    let incremental = loop_delta.counter("view.incremental") as f64;
    report.metric("view.fold_ms", per_tick(busy(&["view.fold"])), "ms");
    report.metric(
        "view.delta_rows",
        per_tick(loop_delta.counter("view.deltas_seen") as f64),
        "count",
    );
    report.metric("view.rescans", per_tick(rescans), "count");
    report.metric(
        "view.incremental_frac",
        ratio(incremental, incremental + rescans),
        "ratio",
    );

    let (rows, queries) = (queries.rows as f64, queries.all_us.len() as f64);
    report.metric("query.rows_per_query", ratio(rows, queries), "count");
    report.metric(
        "query.full_scan_frac",
        ratio(tally.planner_full_scan as f64, queries),
        "ratio",
    );
    report.metric(
        "query.index_probe_frac",
        ratio(tally.planner_attribute as f64, queries),
        "ratio",
    );

    report.metric(
        "persist.commit_ms",
        per_tick(busy(&["persist.commit"])),
        "ms",
    );
    report.metric(
        "persist.flushes",
        per_tick(loop_delta.counter("wal.flushes") as f64),
        "count",
    );
    report.metric("persist.log_bytes", per_tick(log_bytes as f64), "B");
    report.metric(
        "persist.checkpoint_ms",
        ratio(
            busy(&["persist.checkpoint"]),
            tracer.count("persist.checkpoint") as f64,
        ),
        "ms",
    );
    report.metric("persist.snapshot_bytes", tally.snapshot_bytes as f64, "B");
    report.metric(
        "persist.replayed_records",
        tally.replayed_records as f64,
        "count",
    );
    let lag_p50 = loop_delta
        .histogram("wal.enqueue_to_durable_us")
        .map_or(0, |h| h.quantile_bound(0.5));
    report.metric("persist.durable_lag_p50_us", lag_p50 as f64, "us");

    report.metric("sync.assign_ms", per_tick(busy(&["sync.assign"])), "ms");
    report.metric("sync.execute_ms", per_tick(busy(&["sync.execute"])), "ms");
    report.metric(
        "sync.distributed_frac",
        ratio(tally.distributed as f64, tally.actions as f64),
        "ratio",
    );
    report.metric("sync.handoff_ms", per_tick(busy(&["sync.handoff"])), "ms");
    report.metric(
        "sync.handoff_bytes",
        per_tick(tally.handoff_bytes as f64),
        "B",
    );
    report.metric("sync.repl_ms", per_tick(busy(&["sync.repl"])), "ms");
    report.metric(
        "sync.repl_bytes_per_client_tick",
        ratio(tally.repl_bytes as f64, tally.repl_client_ticks as f64),
        "B",
    );
    report.metric(
        "sync.repl_gated",
        per_tick(tally.repl_gated as f64),
        "count",
    );
    report.metric(
        "sync.durable_wait_ms",
        per_tick(busy(&["sync.durable_wait"])),
        "ms",
    );

    let unaccounted = tracer.unaccounted_ms();
    let wall: f64 = tick_walls.iter().sum();
    report.metric(
        "tick.unaccounted_ms",
        per_tick(unaccounted.iter().sum()),
        "ms",
    );
    report.metric(
        "tick.span_coverage",
        ratio(wall - unaccounted.iter().sum::<f64>(), wall),
        "ratio",
    );
    report.metric("tick.traced_p50_ms", median(tick_walls), "ms");

    let by_layer = tracer.self_ms_by_layer();
    for layer in ["script", "core", "view", "query", "persist", "sync"] {
        let ms = by_layer
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, v)| *v);
        report.metric(format!("self.{layer}_ms"), per_tick(ms), "ms");
    }
}
