//! `shard_churn`: the cluster scenario scaled to 20k players.
//!
//! Each tick a third of the players act (move, attack, heal, trade);
//! a dynamic-bubble shard manager places them on four nodes, the
//! cluster executor runs the actions, an async WAL commits, a shard
//! router streams handoff segments to per-node state (with a warm
//! standby on node 0), and three streaming replicators ship interest
//! bubbles to clients. No script runs; the only view is one `Sum(gold)`.

use gamedb::content::{CmpOp, Value};
use gamedb::core::{AggFn, DurabilityWatermark, EntityId, IndexKind, Query, ViewId, World};
use gamedb::metrics::MetricsRegistry;
use gamedb::persist::{Backend, FlushPolicy, WalStore};
use gamedb::spatial::Vec2;
use gamedb::sync::{
    arena_world, node_oracle, Action, AssignPolicy, BubbleConfig, ClusterExecutor,
    ConsistencyLevel, Interest, Replica, Replicator, ShardAssignment, ShardManager, ShardRouter,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, PlannerTap, Tally};
use crate::ledger::{debug_digest, ms_since, row_digest, Checks, Ops, Report, Tracer};
use crate::probe::{self, ProbeSpec, QueryLog};
use crate::{
    checkpoint_and_compact, crash_check, query_metrics, tick_metrics, timed_setups, Args, Clock,
    Image, LoopStart, Recovery, Untimed,
};

const PLAYERS: usize = 20_000;
/// The cluster scenario's 400 players on a 1000-unit map, grown to keep
/// its density.
const MAP: f32 = 1000.0 * 7.071_068;
const NODES: usize = 4;
const BUBBLE_RADIUS: f32 = 170.0;
const QUEUE: usize = 32;
const CHECKPOINT_EVERY: usize = 50;
const STANDBY_LAG: usize = 4;
const WARMUP_TICKS: usize = 5;
const ORACLE_EVERY: usize = 25;
/// Ticks committed after the pre-loop checkpoint: the WAL tail the
/// timed recoveries replay.
const RECOVERY_TAIL_TICKS: usize = 20;
const PROBES_PER_TICK: usize = 50;
/// Radius of the hotspot's orbit around each player's home spot.
const DRIFT: f32 = 100.0;

const CLIENTS: [(ConsistencyLevel, f32); 3] = [
    (ConsistencyLevel::Strict, 0.0),
    (ConsistencyLevel::CoarseEpoch { pos_period: 2 }, 2.1),
    (ConsistencyLevel::CoarseEpoch { pos_period: 4 }, 4.2),
];

/// Client `phase`'s interest bubble at tick `t`: orbits the map center
/// so every bubble crosses shard boundaries.
fn bubble_at(phase: f32, t: usize) -> Interest {
    let theta = phase + t as f32 * 0.05;
    Interest {
        center: (
            MAP / 2.0 + 0.3 * MAP * theta.cos(),
            MAP / 2.0 + 0.3 * MAP * theta.sin(),
        ),
        radius: BUBBLE_RADIUS,
        margin: 25.0,
    }
}

/// One tick of seeded churn: 55% moves, 20% attacks, 15% heals, 10%
/// trades. A mover heads for its home spot shifted by a drifting
/// hotspot offset, so the crowd sways but keeps its density: a run's
/// ticks stay alike however many of them fit in it.
fn churn_batch(rng: &mut StdRng, players: &[EntityId], homes: &[Vec2], t: usize) -> Vec<Action> {
    let theta = t as f32 * 0.03;
    let drift = Vec2::new(DRIFT * theta.cos(), DRIFT * theta.sin());
    let mut batch = Vec::with_capacity(PLAYERS / 3);
    for _ in 0..PLAYERS / 3 {
        let i = rng.gen_range(0..players.len());
        let a = players[i];
        let b = players[rng.gen_range(0..players.len())];
        let roll = rng.gen_range(0..100u32);
        batch.push(match roll {
            0..=54 => Action::Move {
                who: a,
                to: homes[i]
                    + drift
                    + Vec2::new(rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0)),
                speed: rng.gen_range(2.0..8.0f32),
            },
            55..=74 => Action::Attack {
                attacker: a,
                target: b,
            },
            75..=89 => Action::Heal {
                healer: a,
                target: b,
            },
            _ => Action::Trade {
                from: a,
                to: b,
                amount: rng.gen_range(1..20i64),
            },
        });
    }
    batch
}

struct Sim {
    store: WalStore,
    players: Vec<EntityId>,
    homes: Vec<Vec2>,
    /// The `Sum(gold)` view and the gold total it must keep reading.
    gold: (ViewId, i64),
    shards: ShardManager,
    cluster: ClusterExecutor,
    router: ShardRouter,
    streams: Vec<Replicator>,
    replicas: Vec<Replica>,
    rng: StdRng,
    last: ShardAssignment,
}

fn setup(args: &Args) -> Sim {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let homes: Vec<Vec2> = (0..PLAYERS)
        .map(|_| Vec2::new(rng.gen::<f32>() * MAP, rng.gen::<f32>() * MAP))
        .collect();
    let (mut world, players) = arena_world(PLAYERS, |i| homes[i]);
    // balances spread wide enough that a run's trades barely change
    // their distribution, so gold probes cost the same all run long
    for &p in &players {
        world
            .set(p, "gold", Value::Int(rng.gen_range(0..1000i64)))
            .expect("gold is an int column");
    }
    world
        .create_index("gold", IndexKind::Sorted)
        .expect("gold index");
    let wealth = world
        .register_view_plan(
            Query::select()
                .into_aggregate_plan(AggFn::Sum("gold".into()))
                .expect("sum plan"),
        )
        .expect("register sum view");
    let gold_total = gold_sum(&world, &players);
    let backend = Backend::open(args.store_dir()).expect("open backend");
    let mut store = WalStore::new_async(world, backend, FlushPolicy::flush_every(64, 2), QUEUE)
        .expect("open async store");
    store.world_mut().set_tap_retention(Some(200_000));
    let shards = ShardManager::new(
        NODES,
        AssignPolicy::DynamicBubbles {
            cfg: BubbleConfig::default(),
            max_overload: 1.4,
        },
    );
    let mut router = ShardRouter::new(store.world_mut(), NODES);
    router.enable_standby(0, STANDBY_LAG);
    let streams = CLIENTS
        .iter()
        .map(|&(level, phase)| {
            let mut rep = Replicator::with_interest(level, bubble_at(phase, 0));
            rep.attach_stream(store.world_mut());
            rep
        })
        .collect();
    Sim {
        store,
        players,
        homes,
        gold: (wealth, gold_total),
        shards,
        cluster: ClusterExecutor::default(),
        router,
        streams,
        replicas: vec![Replica::default(); CLIENTS.len()],
        rng: StdRng::seed_from_u64(args.seed ^ 0x0c1a_57e2),
        last: ShardAssignment::default(),
    }
}

impl Sim {
    /// One full tick: placement, action execution, view fold, tick
    /// bump, async commit (and checkpoint when asked),
    /// handoff shipping and replication. The actions are drawn before
    /// the clock starts. Returns the tick's wall time (ms).
    fn tick(
        &mut self,
        t: u32,
        checkpoint: bool,
        tr: &mut Tracer,
        ops: &mut Ops,
        tally: &mut Tally,
    ) -> f64 {
        let actions = churn_batch(&mut self.rng, &self.players, &self.homes, t as usize);
        let start = std::time::Instant::now();
        let root = tr.open();
        let store = &mut self.store;
        let assignment = tr.span("sync.assign", t, || {
            self.shards.tick(store.world(), &actions)
        });
        let mut cstats = tr.span("sync.execute", t, || {
            self.cluster
                .execute(store.world_mut(), &assignment, &actions)
        });
        ops.add(actions.len());
        tr.span("view.fold", t, || store.world_mut().refresh_views());
        let next = store.world().tick() + 1;
        tr.span("core.tick_to", t, || {
            store.world_mut().advance_tick_to(next)
        });
        let r = tr.span("persist.commit", t, || store.commit());
        ops.record("commit", r);
        if checkpoint {
            let r = tr.span("persist.checkpoint", t, || store.checkpoint());
            ops.record("checkpoint", r);
        }
        let handoff = tr.span("sync.handoff", t, || {
            self.router.tick(store.world_mut(), &assignment)
        });
        self.cluster
            .bill_handoff(&mut cstats, handoff.total_bytes());
        for (i, &(_, phase)) in CLIENTS.iter().enumerate() {
            let (rep, replica) = (&mut self.streams[i], &mut self.replicas[i]);
            rep.interest = bubble_at(phase, t as usize);
            let mark = store.snapshot_watermark();
            if tr.span("sync.repl", t, || {
                rep.sync_stream_durable(store.world_mut(), replica, &mark)
            }) {
                ops.add(1);
                continue;
            }
            // Strict refused an undrained watermark: drain and retry.
            // The refusal is a retry, not a failure.
            tally.repl_gated += 1;
            let r = tr.span("sync.durable_wait", t, || {
                store.wait_durable(store.last_enqueued())
            });
            ops.record("durable wait", r);
            let mark = store.snapshot_watermark();
            if tr.span("sync.repl", t, || {
                rep.sync_stream_durable(store.world_mut(), replica, &mark)
            }) {
                ops.add(1);
            } else {
                ops.refused("strict sync after drain");
            }
        }
        tr.close("tick", t, root);
        let wall = ms_since(start);
        tally.actions += actions.len() as u64;
        tally.distributed += cstats.distributed as u64;
        tally.handoff_bytes += handoff.total_bytes() as u64;
        self.last = assignment;
        wall
    }

    fn repl_bytes(&self) -> usize {
        self.streams.iter().map(|r| r.bytes_sent).sum()
    }

    /// Node states against `node_oracle`, conserved gold, standby lag.
    fn check(&mut self, checks: &mut Checks, at: &str) {
        for n in 0..NODES {
            checks.check(
                self.router.node_state(n).rows == node_oracle(self.store.world(), &self.last, n),
                || format!("{at}: node {n} state differs from node_oracle"),
            );
        }
        check_gold(self.store.world_mut(), self.gold, &self.players, checks, at);
        checks.check(
            self.router.standby_lag(0).is_some_and(|l| l <= STANDBY_LAG),
            || format!("{at}: standby lag over its budget"),
        );
    }
}

fn gold_sum(world: &World, players: &[EntityId]) -> i64 {
    players
        .iter()
        .filter_map(|&p| world.get_i64(p, "gold"))
        .sum()
}

fn rich(_: &World, _: EntityId) -> (&'static str, CmpOp, Value) {
    ("gold", CmpOp::Ge, Value::Int(500))
}

const PROBES: ProbeSpec = ProbeSpec {
    sorted: "gold",
    nearby_filter: rich,
    radius: 100.0,
};

/// Gold is conserved by trades, in the rows and in the `Sum(gold)` view.
fn check_gold(
    world: &mut World,
    gold: (ViewId, i64),
    players: &[EntityId],
    checks: &mut Checks,
    at: &str,
) {
    let (wealth, want) = gold;
    let total = gold_sum(world, players);
    checks.check(total == want, || {
        format!("{at}: gold total {total} != initial {want}")
    });
    world.refresh_views();
    let view = world.view_group_value(wealth, None);
    checks.check(view == Some(want as f64), || {
        format!("{at}: Sum(gold) view reads {view:?}, want {want}")
    });
    let plan = world.view_plan(wealth).expect("plan view").clone();
    checks.check(
        plan.evaluate(world).ok() == Some(world.view_output(wealth)),
        || format!("{at}: Sum(gold) view differs from ViewPlan::evaluate"),
    );
}

/// What recovery must reproduce: rows, tick and the gold view.
fn image(world: &World, wealth: ViewId) -> Image {
    vec![
        ("rows", row_digest(world)),
        ("tick", world.tick()),
        ("view Sum(gold)", debug_digest(&world.view_output(wealth))),
    ]
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("shard_churn");
    let mut sim = timed_setups(&mut report, || setup(args));
    let registry = MetricsRegistry::new();
    let mut planner = PlannerTap::new(&registry);
    if args.trace {
        sim.store.attach_metrics(&registry);
        sim.store.world_mut().attach_metrics(&registry);
        sim.shards.attach_metrics(&registry);
        sim.router.attach_metrics(&registry);
        for rep in &mut sim.streams {
            rep.attach_metrics(&registry);
        }
    }
    let mut tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let mut untimed = Untimed::default();
    let mut probe_rng = StdRng::seed_from_u64(args.seed ^ 0x009e_0be5);
    let mut log = QueryLog::default();

    // warm-up: the first full handoff and stream priming run untimed
    let mut t = 0u32;
    let periodic = |t: u32| t as usize % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1;
    for _ in 0..WARMUP_TICKS {
        sim.tick(
            t,
            periodic(t),
            &mut untimed.tracer,
            &mut report.ops,
            &mut untimed.tally,
        );
        t += 1;
    }
    checkpoint_and_compact(&mut sim.store, &mut report);
    // no periodic checkpoint in the tail: every recovery replays all of it
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
    let r = sim.store.wait_durable(sim.store.last_enqueued());
    report.ops.record("durable wait", r);
    let wealth = sim.gold.0;
    let img = |w: &World| image(w, wealth);
    let mut recovery = Recovery::capture(&sim.store, args, img(sim.store.world()));
    let loop_start = LoopStart::take(&sim.store, &registry);
    let repl_before = sim.repl_bytes();
    let clock = Clock::start(args);
    let mut walls = Vec::new();
    while clock.more(walls.len()) {
        walls.push(sim.tick(t, periodic(t), &mut tracer, &mut report.ops, &mut tally));
        planner.begin();
        probe::burst(
            sim.store.world(),
            &sim.players,
            &PROBES,
            PROBES_PER_TICK,
            PROBES_PER_TICK,
            &mut probe_rng,
            t,
            &mut tracer,
            &mut log,
            &mut report.ops,
        )
        .verify(sim.store.world(), t, &mut report.checks);
        planner.end(&mut tally);
        if walls.len() % ORACLE_EVERY == 1 {
            sim.check(&mut report.checks, &format!("tick {t}"));
        }
        recovery.between_ticks(&mut report, &mut tally, &img);
        t += 1;
    }
    let r = sim.store.wait_durable(sim.store.last_enqueued());
    report.ops.record("durable wait", r);
    let (log_bytes, loop_delta) = loop_start.finish(&sim.store, &registry, &mut report);
    let repl_bytes = sim.repl_bytes() - repl_before;
    report.ticks = walls.len();
    tick_metrics(&mut report, &walls);
    query_metrics(&mut report, &log);
    recovery.finish(&mut report, &mut tally, &img);
    let client_ticks = walls.len() * CLIENTS.len();
    report.note(format!(
        "replication: {} B per client per tick",
        repl_bytes as f64 / client_ticks as f64
    ));

    // end of run: drained writer, no evicted tap, oracle equality,
    // conserved gold, standby failover
    let wm = sim.store.watermark_snapshot();
    report.checks.check(wm.lag == 0, || {
        format!("writer not drained: lag {}", wm.lag)
    });
    for (i, rep) in sim.streams.iter().enumerate() {
        let tap = rep.stream_tap().expect("stream attached");
        report
            .checks
            .check(!sim.store.world().tap_evicted(tap), || {
                format!("replicator {i}: tap evicted")
            });
    }
    sim.check(&mut report.checks, "end");
    let replayed = sim.router.fail_over(0);
    report
        .checks
        .check(replayed.is_some_and(|r| r <= STANDBY_LAG), || {
            format!("standby failover replayed {replayed:?}")
        });
    report.checks.check(
        sim.router.node_state(0).rows == node_oracle(sim.store.world(), &sim.last, 0),
        || "promoted standby differs from node 0's oracle".into(),
    );
    sim.router.detach(sim.store.world_mut());
    for rep in &mut sim.streams {
        rep.detach_stream(sim.store.world_mut());
    }
    report.digest = row_digest(sim.store.world());
    crash_check(sim.store, &mut report, img);

    if args.trace {
        tally.repl_bytes = repl_bytes as u64;
        tally.repl_client_ticks = client_ticks as u64;
        layers::emit(
            &mut report,
            &tracer,
            &tally,
            &log,
            log_bytes,
            &loop_delta,
            &walls,
        );
        let path = args.data_dir.join("shard_churn.spans.tsv");
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("cannot write spans: {e}");
        }
    }
    report
}
