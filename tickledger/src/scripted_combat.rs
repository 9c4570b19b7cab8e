//! `scripted_combat`: one scripted tick over 100k entities.
//!
//! Every entity runs one GSL combat script in the bytecode VM. Its
//! writes land in a low-cardinality `hp` column under a sorted index,
//! feed three standing views, and commit as one fsynced WAL frame per
//! tick. One checkpoint runs nine tenths into the timed ticks; the run
//! ends in crash and recovery with a non-empty log tail. No sync
//! code runs.

use gamedb::content::{CmpOp, Value};
use gamedb::core::{
    AggFn, EffectBuffer, EntityId, IndexKind, PlanNode, Query, ViewId, ViewPlan, World,
};
use gamedb::metrics::MetricsRegistry;
use gamedb::persist::{Backend, WalStore};
use gamedb::script::{Level, ScriptEngine};
use gamedb::spatial::Vec2;
use gamedb_bench::constant_density_world;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, PlannerTap, Tally};
use crate::ledger::{debug_digest, ms_since, row_digest, Checks, Ops, Report, Tracer};
use crate::probe::{self, ProbeSpec, QueryLog};
use crate::{
    checkpoint_and_compact, crash_check, query_metrics, tick_metrics, timed_setups, Args, Clock,
    Image, LoopStart, Recovery, Untimed,
};

const N: usize = 100_000;
const DENSITY: f32 = 0.05;
const BUBBLE_RADIUS: f32 = 150.0;
/// Untimed ticks before the loop: the first tick moves every entity out
/// of the single `hp = 100` index bucket.
const WARMUP_TICKS: usize = 2;
/// The read phase before the timed ticks: this many bursts of
/// `READ_BURST` queries, one query per burst
/// checked against a scan.
const READ_BURSTS: usize = 20;
const READ_BURST: usize = 150;
const VIEW_CHECK_EVERY: usize = 10;
/// The in-loop checkpoint runs this far into the timed ticks; the ticks
/// after it are the WAL tail of the end-of-run crash.
const CHECKPOINT_AT: f64 = 0.9;
/// Ticks committed after the pre-loop checkpoint: the WAL tail the
/// timed recoveries replay.
const RECOVERY_TAIL_TICKS: usize = 1;

/// Damage from nearby enemies plus the entity's own `dmg` wear; below
/// 5 hp the entity respawns at full health. Entities with no enemy in
/// reach follow one of five `dmg`-driven trajectories, so `hp` keeps a
/// handful of distinct values tick after tick.
const SCRIPT: &str = "let threat = count(2; other.team != self.team);\n\
                      let hit = self.dmg + threat * 3;\n\
                      if self.hp - hit < 5 {\n\
                        self.hp = 100;\n\
                      } else {\n\
                        self.hp -= hit;\n\
                        self.hp += 0.5;\n\
                      }";

#[derive(Clone)]
struct Views {
    low_hp: (ViewId, Query),
    bubble: (ViewId, Query),
    team_hp: ViewId,
}

struct Sim {
    store: WalStore,
    engine: ScriptEngine,
    ids: Vec<EntityId>,
    views: Views,
    /// Traced runs split `ScriptEngine::tick` into its public parts.
    split: bool,
}

fn setup(args: &Args) -> Sim {
    let (mut world, ids) = constant_density_world(N, DENSITY, args.seed);
    world
        .create_index("hp", IndexKind::Sorted)
        .expect("hp index");
    world
        .create_index("team", IndexKind::Hash)
        .expect("team index");
    let mut engine = ScriptEngine::new(Level::Restricted);
    engine.ensure_binding_component(&mut world);
    engine
        .load("combat", SCRIPT, &world)
        .expect("combat script loads");
    for &e in &ids {
        engine
            .bind(&mut world, e, "combat")
            .expect("bind combat script");
    }
    let low_hp_q = Query::select().filter("hp", CmpOp::Lt, Value::Float(25.0));
    let low_hp = world.register_view(low_hp_q.clone());
    let team_hp = world
        .register_view_plan(ViewPlan::group_by(
            PlanNode::scan(Query::select()),
            "team",
            AggFn::Sum("hp".into()),
        ))
        .expect("group-by plan");
    let map = (N as f32 / DENSITY).sqrt();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xb0bb1e);
    let center = Vec2::new(
        rng.gen_range(0.2..0.8f32) * map,
        rng.gen_range(0.2..0.8f32) * map,
    );
    let bubble_q = Query::select().within(center, BUBBLE_RADIUS);
    let bubble = world.register_view(bubble_q.clone());
    let backend = Backend::open(args.store_dir()).expect("open backend");
    let store = WalStore::new(world, backend, 1).expect("open store");
    Sim {
        store,
        engine,
        ids,
        views: Views {
            low_hp: (low_hp, low_hp_q),
            bubble: (bubble, bubble_q),
            team_hp,
        },
        split: args.trace,
    }
}

impl Sim {
    /// One full tick: script, apply, view fold, tick bump, fsynced
    /// commit, and the checkpoint when asked. Returns its wall time (ms).
    fn tick(
        &mut self,
        tick: u32,
        checkpoint: bool,
        tr: &mut Tracer,
        ops: &mut Ops,
        tally: &mut Tally,
    ) -> f64 {
        let start = std::time::Instant::now();
        let root = tr.open();
        if self.split {
            // one run_one per bound entity, in the order tick visits
            // them, into one buffer; then the buffer's apply
            let mut buf = EffectBuffer::new();
            let (world, engine) = (self.store.world(), &mut self.engine);
            let mut errors = Vec::new();
            tr.span("script.run", tick, || {
                for e in world.entities() {
                    if let Err(err) = engine.run_one(world, e, "combat", &mut buf) {
                        errors.push(err);
                    }
                }
            });
            let runs = world.len();
            ops.add(runs - errors.len());
            for err in errors {
                ops.record::<(), _>("script run", Err(err));
            }
            tally.script_runs += runs as u64;
            tally.script_effects += buf.len() as u64;
            let r = tr.span("core.apply", tick, || buf.apply(self.store.world_mut()));
            tally.applied += ops.record("effect apply", r).unwrap_or(0) as u64;
        } else {
            let r = self.engine.tick(self.store.world_mut());
            ops.record("script tick", r);
        }
        tr.span("view.fold", tick, || self.store.world_mut().refresh_views());
        let next = self.store.world().tick() + 1;
        tr.span("core.tick_to", tick, || {
            self.store.world_mut().advance_tick_to(next)
        });
        let r = tr.span("persist.commit", tick, || self.store.commit());
        ops.record("commit", r);
        if checkpoint {
            let r = tr.span("persist.checkpoint", tick, || self.store.checkpoint());
            ops.record("checkpoint", r);
        }
        tr.close("tick", tick, root);
        ms_since(start)
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

fn sorted(mut v: Vec<EntityId>) -> Vec<EntityId> {
    v.sort_unstable();
    v
}

/// Every view against its forced recompute.
fn check_views(world: &World, views: &Views, checks: &mut Checks, at: &str) {
    for (name, (id, q)) in [("hp<25", &views.low_hp), ("bubble", &views.bubble)] {
        checks.check(
            sorted(world.view_rows(*id).to_vec()) == sorted(q.run_scan(world)),
            || format!("{at}: view {name} differs from its scan"),
        );
    }
    let plan = world.view_plan(views.team_hp).expect("plan view").clone();
    checks.check(
        plan.evaluate(world).ok() == Some(world.view_output(views.team_hp)),
        || format!("{at}: team Sum(hp) view differs from ViewPlan::evaluate"),
    );
}

/// What recovery must reproduce: rows, tick and every view's output.
fn image(world: &World, views: &Views) -> Image {
    vec![
        ("rows", row_digest(world)),
        ("tick", world.tick()),
        (
            "view hp<25",
            debug_digest(&sorted(world.view_rows(views.low_hp.0).to_vec())),
        ),
        (
            "view bubble",
            debug_digest(&sorted(world.view_rows(views.bubble.0).to_vec())),
        ),
        (
            "view team Sum(hp)",
            debug_digest(&world.view_output(views.team_hp)),
        ),
    ]
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("scripted_combat");
    let mut sim = timed_setups(&mut report, || setup(args));
    let registry = MetricsRegistry::new();
    let mut planner = PlannerTap::new(&registry);
    if args.trace {
        sim.store.attach_metrics(&registry);
        sim.store.world_mut().attach_metrics(&registry);
        sim.engine.attach_metrics(&registry);
    }
    let mut tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let mut untimed = Untimed::default();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5c41_07ed);
    let mut log = QueryLog::default();

    let mut t = 0u32;
    for _ in 0..WARMUP_TICKS {
        sim.tick(
            t,
            false,
            &mut untimed.tracer,
            &mut report.ops,
            &mut untimed.tally,
        );
        t += 1;
    }
    checkpoint_and_compact(&mut sim.store, &mut report);
    for _ in 0..RECOVERY_TAIL_TICKS {
        sim.tick(
            t,
            false,
            &mut untimed.tracer,
            &mut report.ops,
            &mut untimed.tally,
        );
        t += 1;
    }
    let views = sim.views.clone();
    let img = |w: &World| image(w, &views);
    let recovery = Recovery::capture(&sim.store, args, img(sim.store.world()));

    // The reads run back to back before the timed ticks, on the world
    // every run reaches after the same untimed ticks. Between ticks each
    // query would start on caches a 100k-write tick has just flushed, and
    // its latency would follow the host's memory speed more than the code;
    // after them the world would depend on how many ticks fit in the run.
    planner.begin();
    for _ in 0..READ_BURSTS {
        probe::burst(
            sim.store.world(),
            &sim.ids,
            &PROBES,
            READ_BURST,
            READ_BURST,
            &mut rng,
            t,
            &mut tracer,
            &mut log,
            &mut report.ops,
        )
        .verify(sim.store.world(), t, &mut report.checks);
    }
    planner.end(&mut tally);
    let loop_start = LoopStart::take(&sim.store, &registry);
    let clock = Clock::start(args);
    let mut walls = Vec::new();
    let mut checkpointed = false;
    while clock.more(walls.len()) {
        let checkpoint = !checkpointed && clock.past(walls.len(), CHECKPOINT_AT);
        checkpointed |= checkpoint;
        walls.push(sim.tick(t, checkpoint, &mut tracer, &mut report.ops, &mut tally));
        if walls.len() % VIEW_CHECK_EVERY == 1 {
            check_views(
                sim.store.world(),
                &sim.views,
                &mut report.checks,
                &format!("tick {t}"),
            );
        }
        t += 1;
    }
    if args.trace {
        // run_one leaves the VM's instruction count pending; an engine
        // tick over an empty world publishes it as script.vm_instrs
        let r = sim.engine.tick(&mut World::new());
        report.ops.record("script tick", r);
    }
    let (log_bytes, loop_delta) = loop_start.finish(&sim.store, &registry, &mut report);
    report.ticks = walls.len();
    report.checks.check(checkpointed, || {
        "no checkpoint ran in the timed loop".into()
    });
    check_views(sim.store.world(), &sim.views, &mut report.checks, "end");
    tick_metrics(&mut report, &walls);
    query_metrics(&mut report, &log);
    // A recovery here takes about as long as two ticks and churns as much
    // memory, which would disturb the probes after it; so this workload
    // times its recoveries after the loop rather than between ticks.
    recovery.finish(&mut report, &mut tally, &img);

    report.digest = row_digest(sim.store.world());
    let replayed = crash_check(sim.store, &mut report, img);
    report
        .checks
        .check(replayed > 0, || "end-of-run crash found no WAL tail".into());

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
        let path = args.data_dir.join("scripted_combat.spans.tsv");
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("cannot write spans: {e}");
        }
    }
    report
}
