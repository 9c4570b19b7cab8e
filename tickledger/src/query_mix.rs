//! `query_mix`: the read side of the index, planner and spatial code.
//!
//! 100k entities whose `hp` spreads over ~1000 distinct values (sorted
//! index) and whose `team` has a hash index. A tick is one round of the
//! closed loop: a 64-write batch, a view refresh and a sync commit
//! (which keep the indexes and one standing view moving), then 100
//! queries back to back: ~60% `nearby` target selection, 25% point
//! lookups, 10% two-sided ranges, 5% counts.

use gamedb::content::{CmpOp, Value};
use gamedb::core::{EntityId, IndexKind, Query, ViewId, World, WriteBatch};
use gamedb::metrics::MetricsRegistry;
use gamedb::persist::{Backend, WalStore};
use gamedb_bench::constant_density_world;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, PlannerTap, Tally};
use crate::ledger::{debug_digest, ms_since, row_digest, Checks, Ops, Report, Tracer};
use crate::probe::{self, ProbeSpec, QueryLog, Sampled};
use crate::{
    checkpoint_and_compact, crash_check, query_metrics, tick_metrics, timed_setups, Args, Clock,
    Image, LoopStart, Recovery, Untimed,
};

const N: usize = 100_000;
const DENSITY: f32 = 0.05;
const HP_VALUES: i32 = 1000;
const QUERIES_PER_TICK: usize = 100;
/// One query in this many is checked against a full scan.
const VERIFY_EVERY: usize = 50;
const WRITES_PER_TICK: usize = 64;
const VIEW_CHECK_EVERY: usize = 50;
const WARMUP_TICKS: usize = 5;
/// Ticks committed after the pre-loop checkpoint: the WAL tail the
/// timed recoveries replay.
const RECOVERY_TAIL_TICKS: usize = 50;

fn random_hp(rng: &mut StdRng) -> Value {
    Value::Float(rng.gen_range(1..HP_VALUES + 1) as f32)
}

struct Sim {
    store: WalStore,
    ids: Vec<EntityId>,
    view: (ViewId, Query),
    write_rng: StdRng,
    query_rng: StdRng,
}

fn setup(args: &Args) -> Sim {
    let (mut world, ids) = constant_density_world(N, DENSITY, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x4a11);
    for &e in &ids {
        world
            .set(e, "hp", random_hp(&mut rng))
            .expect("hp is a float column");
    }
    world
        .create_index("hp", IndexKind::Sorted)
        .expect("hp index");
    world
        .create_index("team", IndexKind::Hash)
        .expect("team index");
    let low_q = Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0));
    let low = world.register_view(low_q.clone());
    let backend = Backend::open(args.store_dir()).expect("open backend");
    let store = WalStore::new(world, backend, 1).expect("open store");
    Sim {
        store,
        ids,
        view: (low, low_q),
        write_rng: StdRng::seed_from_u64(args.seed ^ 0x3b17e5),
        query_rng: StdRng::seed_from_u64(args.seed ^ 0x9e75),
    }
}

impl Sim {
    /// One round: a 64-write batch (drawn before the clock starts), view
    /// fold, tick bump, fsynced commit, then the query burst. Returns
    /// its wall time (ms) and the queries to check against scans.
    fn tick(
        &mut self,
        t: u32,
        tr: &mut Tracer,
        ops: &mut Ops,
        tally: &mut Tally,
        log: &mut QueryLog,
    ) -> (f64, Sampled) {
        let mut batch = WriteBatch::new();
        for _ in 0..WRITES_PER_TICK {
            let e = self.ids[self.write_rng.gen_range(0..self.ids.len())];
            batch.set(e, "hp", random_hp(&mut self.write_rng));
        }
        let start = std::time::Instant::now();
        let root = tr.open();
        let store = &mut self.store;
        let r = tr.span("core.apply", t, || store.world_mut().apply_batch(batch));
        tally.applied += ops.record("apply_batch", r).unwrap_or(0) as u64;
        tr.span("view.fold", t, || store.world_mut().refresh_views());
        let next = store.world().tick() + 1;
        tr.span("core.tick_to", t, || {
            store.world_mut().advance_tick_to(next)
        });
        let r = tr.span("persist.commit", t, || store.commit());
        ops.record("commit", r);
        let sampled = probe::burst(
            store.world(),
            &self.ids,
            &PROBES,
            QUERIES_PER_TICK,
            VERIFY_EVERY,
            &mut self.query_rng,
            t,
            tr,
            log,
            ops,
        );
        tr.close("tick", t, root);
        (ms_since(start), sampled)
    }
}

fn enemy_team(world: &World, e: EntityId) -> (&'static str, CmpOp, Value) {
    let enemy = match world.get(e, "team") {
        Some(Value::Str(t)) if t == "red" => "blue",
        _ => "red",
    };
    ("team", CmpOp::Eq, Value::Str(enemy.into()))
}

const PROBES: ProbeSpec = ProbeSpec {
    sorted: "hp",
    nearby_filter: enemy_team,
    radius: 30.0,
};

fn view_rows(world: &World, id: ViewId) -> Vec<EntityId> {
    let mut v = world.view_rows(id).to_vec();
    v.sort_unstable();
    v
}

fn check_view(world: &World, view: &(ViewId, Query), checks: &mut Checks, at: &str) {
    let mut scan = view.1.run_scan(world);
    scan.sort_unstable();
    checks.check(view_rows(world, view.0) == scan, || {
        format!("{at}: hp<50 view differs from its scan")
    });
}

/// What recovery must reproduce: rows, tick and the view.
fn image(world: &World, view: ViewId) -> Image {
    vec![
        ("rows", row_digest(world)),
        ("tick", world.tick()),
        ("view hp<50", debug_digest(&view_rows(world, view))),
    ]
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("query_mix");
    let mut sim = timed_setups(&mut report, || setup(args));
    let registry = MetricsRegistry::new();
    let mut planner = PlannerTap::new(&registry);
    if args.trace {
        sim.store.attach_metrics(&registry);
        sim.store.world_mut().attach_metrics(&registry);
    }
    let mut tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let mut untimed = Untimed::default();
    let mut untimed_log = QueryLog::default();
    let mut log = QueryLog::default();

    let mut t = 0u32;
    for _ in 0..WARMUP_TICKS {
        let (_, sampled) = sim.tick(
            t,
            &mut untimed.tracer,
            &mut report.ops,
            &mut untimed.tally,
            &mut untimed_log,
        );
        sampled.verify(sim.store.world(), t, &mut report.checks);
        t += 1;
    }
    checkpoint_and_compact(&mut sim.store, &mut report);
    for _ in 0..RECOVERY_TAIL_TICKS {
        let (_, sampled) = sim.tick(
            t,
            &mut untimed.tracer,
            &mut report.ops,
            &mut untimed.tally,
            &mut untimed_log,
        );
        sampled.verify(sim.store.world(), t, &mut report.checks);
        t += 1;
    }
    let view = sim.view.0;
    let img = |w: &World| image(w, view);
    let mut recovery = Recovery::capture(&sim.store, args, img(sim.store.world()));
    let loop_start = LoopStart::take(&sim.store, &registry);
    let clock = Clock::start(args);
    let mut walls = Vec::new();
    while clock.more(walls.len()) {
        planner.begin();
        let (wall, sampled) = sim.tick(t, &mut tracer, &mut report.ops, &mut tally, &mut log);
        planner.end(&mut tally);
        walls.push(wall);
        sampled.verify(sim.store.world(), t, &mut report.checks);
        if walls.len() % VIEW_CHECK_EVERY == 1 {
            check_view(
                sim.store.world(),
                &sim.view,
                &mut report.checks,
                &format!("tick {t}"),
            );
        }
        recovery.between_ticks(&mut report, &mut tally, &img);
        t += 1;
    }
    let (log_bytes, loop_delta) = loop_start.finish(&sim.store, &registry, &mut report);
    report.ticks = walls.len();
    check_view(sim.store.world(), &sim.view, &mut report.checks, "end");
    tick_metrics(&mut report, &walls);
    query_metrics(&mut report, &log);
    recovery.finish(&mut report, &mut tally, &img);

    report.digest = row_digest(sim.store.world());
    crash_check(sim.store, &mut report, img);

    if args.trace {
        layers::emit(
            &mut report,
            &tracer,
            &tally,
            &log,
            log_bytes,
            &loop_delta,
            &walls,
        );
        let path = args.data_dir.join("query_mix.spans.tsv");
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("cannot write spans: {e}");
        }
    }
    report
}
