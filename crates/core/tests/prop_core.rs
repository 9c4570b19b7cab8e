//! Property tests for the core engine:
//! * parallel ticks are bit-identical to sequential ticks (the state–effect
//!   determinism guarantee);
//! * the index join equals the naive nested-loop join;
//! * queries agree with a straightforward reference evaluation;
//! * secondary indexes are pure optimizations: any query over an indexed
//!   world returns exactly the forced-full-scan result, under arbitrary
//!   interleavings of writes, component removals, despawns, and ticks.

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{Effect, EffectBuffer, EntityId, IndexKind, Query, TickExecutor, World};
use gamedb_spatial::Vec2;
use proptest::prelude::*;

fn build_world(positions: &[(f32, f32)], hps: &[f32]) -> World {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("dmg", ValueType::Float).unwrap();
    for (i, &(x, y)) in positions.iter().enumerate() {
        let e = w.spawn_at(Vec2::new(x, y));
        w.set_f32(e, "hp", hps[i % hps.len()]).unwrap();
        w.set_f32(e, "dmg", 1.0 + (i % 4) as f32).unwrap();
    }
    w
}

fn combat(id: EntityId, world: &World, buf: &mut EffectBuffer) {
    let Some(p) = world.pos(id) else { return };
    let dmg = world.get_f32(id, "dmg").unwrap_or(0.0) as f64;
    let mut near = Vec::new();
    world.within(p, 8.0, &mut near);
    for other in near {
        if other != id {
            buf.push(other, "hp", Effect::Add(-dmg));
            buf.push(other, "hp", Effect::Max(0.0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_tick_deterministic(
        positions in proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 1..120),
        hps in proptest::collection::vec(1.0f32..200.0, 1..8),
        threads in 2usize..6,
        ticks in 1usize..4,
    ) {
        let mut w_seq = build_world(&positions, &hps);
        let mut w_par = build_world(&positions, &hps);
        let seq = TickExecutor::sequential();
        let par = TickExecutor::parallel(threads).with_min_chunk(4);
        for _ in 0..ticks {
            seq.run_tick(&mut w_seq, &[&combat]).unwrap();
            par.run_tick(&mut w_par, &[&combat]).unwrap();
        }
        prop_assert_eq!(w_seq.rows(), w_par.rows());
    }

    #[test]
    fn index_join_equals_naive_join(
        positions in proptest::collection::vec((-60.0f32..60.0, -60.0f32..60.0), 0..80),
        radius in 0.0f32..40.0,
    ) {
        let hps = [10.0];
        let w = build_world(&positions, &hps);
        prop_assert_eq!(w.pairs_within(radius), w.pairs_within_naive(radius));
    }

    #[test]
    fn query_matches_reference_scan(
        positions in proptest::collection::vec((-30.0f32..30.0, -30.0f32..30.0), 0..60),
        hps in proptest::collection::vec(0.0f32..100.0, 1..6),
        threshold in 0.0f32..100.0,
        cx in -30.0f32..30.0,
        cy in -30.0f32..30.0,
        r in 0.0f32..50.0,
    ) {
        let w = build_world(&positions, &hps);
        let q = Query::select()
            .filter("hp", CmpOp::Lt, Value::Float(threshold))
            .within(Vec2::new(cx, cy), r);
        let got = q.run(&w);
        // reference: full scan
        let expect: Vec<EntityId> = w.entities().filter(|&id| {
            let hp_ok = w.get_f32(id, "hp").is_some_and(|hp| hp < threshold);
            let pos_ok = w.pos(id).is_some_and(|p| p.dist(Vec2::new(cx, cy)) <= r);
            hp_ok && pos_ok
        }).collect();
        prop_assert_eq!(got, expect);
    }

    /// Spawning from random effect buffers and despawning never corrupts
    /// the world (len matches live iteration, rows never panic).
    #[test]
    fn spawn_despawn_consistency(
        seq in proptest::collection::vec(prop_oneof![
            (0u32..16).prop_map(|i| (true, i)),
            (0u32..16).prop_map(|i| (false, i)),
        ], 0..64),
    ) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let mut spawned: Vec<EntityId> = Vec::new();
        for (is_spawn, i) in seq {
            if is_spawn {
                let e = w.spawn_at(Vec2::new(i as f32, 0.0));
                w.set_f32(e, "hp", i as f32).unwrap();
                spawned.push(e);
            } else if !spawned.is_empty() {
                let idx = (i as usize) % spawned.len();
                let victim = spawned.swap_remove(idx);
                w.despawn(victim);
            }
        }
        prop_assert_eq!(w.len(), spawned.len());
        prop_assert_eq!(w.entities().count(), spawned.len());
        for e in &spawned {
            prop_assert!(w.is_live(*e));
        }
        let _ = w.rows();
    }
}

/// One mutation step of the index-equivalence workload.
#[derive(Debug, Clone)]
enum IndexOp {
    /// Spawn at (x, y) with hp and team picked by the payload.
    Spawn(f32, f32, f32, u8),
    /// Spawn from the shared designer template at (x, y).
    TemplateSpawn(f32, f32),
    /// Overwrite hp of the i-th live entity.
    SetHp(u16, f32),
    /// Overwrite team of the i-th live entity.
    SetTeam(u16, u8),
    /// Remove the hp component from the i-th live entity.
    RemoveHp(u16),
    /// Despawn the i-th live entity.
    Despawn(u16),
    /// Run one combat tick (effects, spawns nothing, may change hp).
    Tick,
}

fn index_op_strategy() -> impl Strategy<Value = IndexOp> {
    prop_oneof![
        (-40.0f32..40.0, -40.0f32..40.0, 0.0f32..100.0, 0u8..4)
            .prop_map(|(x, y, hp, t)| IndexOp::Spawn(x, y, hp, t)),
        (-40.0f32..40.0, -40.0f32..40.0).prop_map(|(x, y)| IndexOp::TemplateSpawn(x, y)),
        (0u16..64, 0.0f32..100.0).prop_map(|(i, hp)| IndexOp::SetHp(i, hp)),
        (0u16..64, 0u8..4).prop_map(|(i, t)| IndexOp::SetTeam(i, t)),
        (0u16..64).prop_map(IndexOp::RemoveHp),
        (0u16..64).prop_map(IndexOp::Despawn),
        Just(IndexOp::Tick),
    ]
}

/// The designer template `TemplateSpawn` instantiates (types match the
/// workload's columns: hp/dmg float, team str).
fn workload_template() -> &'static gamedb_content::ResolvedTemplate {
    use std::sync::OnceLock;
    static TPL: OnceLock<gamedb_content::ResolvedTemplate> = OnceLock::new();
    TPL.get_or_init(|| {
        gamedb_content::TemplateLibrary::from_gdml(
            &gamedb_content::gdml::parse(
                r#"<templates>
                     <template name="imp">
                       <component name="hp" type="float" default="35"/>
                       <component name="dmg" type="float" default="2"/>
                       <component name="team" type="str" default="green"/>
                     </template>
                   </templates>"#,
            )
            .unwrap(),
        )
        .unwrap()
        .resolve("imp")
        .unwrap()
    })
}

fn team_name(t: u8) -> &'static str {
    ["red", "blue", "green", "gold"][t as usize % 4]
}

fn apply_index_op(w: &mut World, live: &mut Vec<EntityId>, op: &IndexOp) {
    match *op {
        IndexOp::Spawn(x, y, hp, t) => {
            let e = w.spawn_at(Vec2::new(x, y));
            w.set_f32(e, "hp", hp).unwrap();
            w.set_f32(e, "dmg", 1.0).unwrap();
            w.set(e, "team", Value::Str(team_name(t).into())).unwrap();
            live.push(e);
        }
        IndexOp::TemplateSpawn(x, y) => {
            let e = w
                .spawn_from_template(workload_template(), Vec2::new(x, y))
                .unwrap();
            live.push(e);
        }
        IndexOp::SetHp(i, hp) if !live.is_empty() => {
            let e = live[i as usize % live.len()];
            w.set_f32(e, "hp", hp).unwrap();
        }
        IndexOp::SetTeam(i, t) if !live.is_empty() => {
            let e = live[i as usize % live.len()];
            w.set(e, "team", Value::Str(team_name(t).into())).unwrap();
        }
        IndexOp::RemoveHp(i) if !live.is_empty() => {
            let e = live[i as usize % live.len()];
            w.remove_component(e, "hp").unwrap();
        }
        IndexOp::Despawn(i) if !live.is_empty() => {
            let idx = i as usize % live.len();
            let e = live.swap_remove(idx);
            w.despawn(e);
        }
        IndexOp::Tick => {
            TickExecutor::sequential().run_tick(w, &[&combat]).unwrap();
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ISSUE-1 acceptance property: with secondary indexes on `hp`
    /// (sorted) and `team` (hash), every query run through the planner's
    /// index machinery returns exactly the entity set a forced full scan
    /// returns — after any interleaving of spawns, overwrites, component
    /// removals, despawns, and ticks.
    #[test]
    fn index_and_scan_agree_under_churn(
        ops in proptest::collection::vec(index_op_strategy(), 1..80),
        hp_bound in 0.0f32..100.0,
        team in 0u8..4,
        cx in -40.0f32..40.0,
        cy in -40.0f32..40.0,
        r in 0.5f32..120.0,
        sorted_team_index in any::<bool>(),
    ) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w.create_index(
            "team",
            if sorted_team_index { IndexKind::Sorted } else { IndexKind::Hash },
        )
        .unwrap();
        let mut live = Vec::new();
        for op in &ops {
            apply_index_op(&mut w, &mut live, op);
        }
        let queries = vec![
            Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound)),
            Query::select().filter("hp", CmpOp::Ge, Value::Float(hp_bound)),
            Query::select().filter("hp", CmpOp::Eq, Value::Float(hp_bound.floor())),
            Query::select().filter("team", CmpOp::Eq, Value::Str(team_name(team).into())),
            Query::select()
                .filter("team", CmpOp::Eq, Value::Str(team_name(team).into()))
                .filter("hp", CmpOp::Le, Value::Float(hp_bound)),
            Query::select()
                .within(Vec2::new(cx, cy), r)
                .filter("hp", CmpOp::Gt, Value::Float(hp_bound)),
        ];
        for q in queries {
            prop_assert_eq!(q.run(&w), q.run_scan(&w), "query: {:?}", q);
            prop_assert_eq!(q.count(&w), q.run_scan(&w).len());
        }
    }

    /// Creating an index on live data (backfill) and creating it before
    /// the data existed must produce identical probe behavior.
    #[test]
    fn backfilled_index_equals_incremental_index(
        ops in proptest::collection::vec(index_op_strategy(), 1..60),
        hp_bound in 0.0f32..100.0,
    ) {
        let fresh = || {
            let mut w = World::new();
            w.define_component("hp", ValueType::Float).unwrap();
            w.define_component("dmg", ValueType::Float).unwrap();
            w.define_component("team", ValueType::Str).unwrap();
            w
        };
        // incremental: index exists from the start
        let mut w_inc = fresh();
        w_inc.create_index("hp", IndexKind::Sorted).unwrap();
        let mut live = Vec::new();
        for op in &ops {
            apply_index_op(&mut w_inc, &mut live, op);
        }
        // backfilled: same history, index created at the end
        let mut w_back = fresh();
        let mut live2 = Vec::new();
        for op in &ops {
            apply_index_op(&mut w_back, &mut live2, op);
        }
        w_back.create_index("hp", IndexKind::Sorted).unwrap();

        let q = Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound));
        prop_assert_eq!(q.run(&w_inc), q.run(&w_back));
        prop_assert_eq!(
            w_inc.index_on("hp").unwrap().len(),
            w_back.index_on("hp").unwrap().len()
        );
        prop_assert_eq!(
            w_inc.index_on("hp").unwrap().ndv(),
            w_back.index_on("hp").unwrap().ndv()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// ISSUE-2 acceptance property: every registered standing view's
    /// materialized rows equal the `Query::run_scan` oracle after each
    /// tick (and at the end, after a final refresh), for random
    /// interleavings of writes, component removals, despawns, template
    /// spawns, and ticks. The changelog is simultaneously checked for
    /// coherence: replaying entered/exited over the previous membership
    /// set must reproduce the current one.
    #[test]
    fn views_track_scan_oracle_under_churn(
        ops in proptest::collection::vec(index_op_strategy(), 1..80),
        hp_bound in 0.0f32..100.0,
        team in 0u8..4,
        cx in -40.0f32..40.0,
        cy in -40.0f32..40.0,
        r in 0.5f32..120.0,
        index_hp in any::<bool>(),
    ) {
        use std::collections::BTreeSet;
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        if index_hp {
            // an index changes which refresh strategy the cost model
            // picks (rescans get cheap); equivalence must hold either way
            w.create_index("hp", IndexKind::Sorted).unwrap();
        }
        let queries = vec![
            Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound)),
            Query::select().filter("team", CmpOp::Eq, Value::Str(team_name(team).into())),
            Query::select()
                .within(Vec2::new(cx, cy), r)
                .filter("hp", CmpOp::Ge, Value::Float(hp_bound)),
            Query::select(), // membership = liveness (spawn/despawn stream)
        ];
        let views: Vec<_> = queries
            .iter()
            .map(|q| w.register_view(q.clone()))
            .collect();
        let mut shadows: Vec<BTreeSet<EntityId>> = views
            .iter()
            .map(|&v| w.view_rows(v).iter().copied().collect())
            .collect();

        let mut live = Vec::new();
        let check = |w: &mut World,
                         shadows: &mut Vec<BTreeSet<EntityId>>|
         -> Result<(), TestCaseError> {
            for ((&v, q), shadow) in views.iter().zip(&queries).zip(shadows.iter_mut()) {
                let oracle = q.run_scan(w);
                prop_assert_eq!(w.view_rows(v), oracle.as_slice(), "query: {:?}", q);
                let log = w.take_view_changelog(v);
                for e in &log.exited {
                    shadow.remove(e);
                }
                for e in &log.entered {
                    prop_assert!(shadow.insert(*e), "duplicate enter for {e:?}");
                }
                prop_assert_eq!(
                    shadow.iter().copied().collect::<Vec<_>>(),
                    oracle,
                    "changelog replay diverged for {:?}", q
                );
            }
            Ok(())
        };

        for op in &ops {
            apply_index_op(&mut w, &mut live, op);
            if matches!(op, IndexOp::Tick) {
                // bump_tick refreshed the views already
                prop_assert_eq!(w.pending_deltas(), 0);
                check(&mut w, &mut shadows)?;
            }
        }
        w.refresh_views();
        check(&mut w, &mut shadows)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ISSUE-10 acceptance property: operator-tree views — equi-join,
    /// spatial join, and group-by aggregates — maintained from Z-set
    /// deltas equal a forced `ViewPlan::evaluate` recompute after every
    /// tick (and at the end, after a final refresh), for random
    /// interleavings of writes, component removals, despawns, template
    /// spawns, and ticks. Pair and group changelogs are simultaneously
    /// checked for coherence: replaying them over the previous
    /// materialized state must reproduce the current one.
    #[test]
    fn operator_views_track_scan_oracle_under_churn(
        ops in proptest::collection::vec(index_op_strategy(), 1..80),
        hp_bound in 0.0f32..100.0,
        r in 0.5f32..60.0,
        index_hp in any::<bool>(),
    ) {
        use gamedb_core::{AggFn, JoinOn, PlanNode, ViewPlan};
        use std::collections::{BTreeMap, BTreeSet};
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        if index_hp {
            w.create_index("hp", IndexKind::Sorted).unwrap();
        }
        // healthy×anyone teammate pairs, proximity pairs, and per-team
        // head-counts + weakest member — one view per operator family
        let equi = w.register_view_plan(ViewPlan::join(
            PlanNode::scan(Query::select().filter("hp", CmpOp::Ge, Value::Float(hp_bound))),
            PlanNode::scan(Query::select()),
            JoinOn::Eq { left: "team".into(), right: "team".into() },
        )).unwrap();
        let spatial = w.register_view_plan(ViewPlan::join(
            PlanNode::scan(Query::select()),
            PlanNode::scan(Query::select()),
            JoinOn::Within { radius: r },
        )).unwrap();
        let count = w.register_view_plan(
            Query::select().into_grouped_plan("team", AggFn::Count).unwrap(),
        ).unwrap();
        let weakest = w.register_view_plan(
            Query::select().into_grouped_plan("team", AggFn::Min("hp".into())).unwrap(),
        ).unwrap();

        let pair_views = [equi, spatial];
        let group_views = [count, weakest];
        let mut pair_shadows: Vec<BTreeSet<(EntityId, EntityId)>> = pair_views
            .iter()
            .map(|&v| w.view_pairs(v).iter().copied().collect())
            .collect();
        // group keys shadowed by their debug form: `Value` is not `Ord`
        let mut group_shadows: Vec<BTreeMap<String, f64>> = group_views
            .iter()
            .map(|&v| {
                w.view_groups(v)
                    .iter()
                    .map(|g| (format!("{:?}", g.key), g.value))
                    .collect()
            })
            .collect();

        let mut live = Vec::new();
        let check = |w: &mut World,
                     pair_shadows: &mut [BTreeSet<(EntityId, EntityId)>],
                     group_shadows: &mut [BTreeMap<String, f64>]|
         -> Result<(), TestCaseError> {
            for (&v, shadow) in pair_views.iter().zip(pair_shadows.iter_mut()) {
                let forced = w.view_plan(v).unwrap().evaluate(w).unwrap();
                prop_assert_eq!(w.view_output(v), forced, "pair view {:?}", v);
                let log = w.take_view_pair_changelog(v);
                for p in &log.exited {
                    prop_assert!(shadow.remove(p), "exit without enter for {p:?}");
                }
                for p in &log.entered {
                    prop_assert!(shadow.insert(*p), "duplicate enter for {p:?}");
                }
                prop_assert_eq!(
                    shadow.iter().copied().collect::<Vec<_>>(),
                    w.view_pairs(v),
                    "pair changelog replay diverged for {:?}", v
                );
            }
            for (&v, shadow) in group_views.iter().zip(group_shadows.iter_mut()) {
                let forced = w.view_plan(v).unwrap().evaluate(w).unwrap();
                prop_assert_eq!(w.view_output(v), forced, "group view {:?}", v);
                let log = w.take_view_group_changelog(v);
                for g in &log.exited {
                    prop_assert!(
                        shadow.remove(&format!("{:?}", g.key)).is_some(),
                        "exit of unknown group {:?}", g.key
                    );
                }
                for g in &log.entered {
                    prop_assert!(
                        shadow.insert(format!("{:?}", g.key), g.value).is_none(),
                        "duplicate enter for group {:?}", g.key
                    );
                }
                for g in &log.changed {
                    prop_assert!(
                        shadow.insert(format!("{:?}", g.key), g.value).is_some(),
                        "change of unknown group {:?}", g.key
                    );
                }
                let replayed: Vec<(String, f64)> =
                    shadow.iter().map(|(k, &x)| (k.clone(), x)).collect();
                let actual: Vec<(String, f64)> = w
                    .view_groups(v)
                    .iter()
                    .map(|g| (format!("{:?}", g.key), g.value))
                    .collect();
                prop_assert_eq!(replayed, actual, "group changelog replay diverged for {:?}", v);
            }
            Ok(())
        };

        for op in &ops {
            apply_index_op(&mut w, &mut live, op);
            if matches!(op, IndexOp::Tick) {
                prop_assert_eq!(w.pending_deltas(), 0);
                check(&mut w, &mut pair_shadows, &mut group_shadows)?;
            }
        }
        w.refresh_views();
        check(&mut w, &mut pair_shadows, &mut group_shadows)?;
    }
}

/// Rebuild a world from its public recovery surface: schema + rows
/// restored entity-by-entity, then the catalog import that recovery
/// uses (indexes backfilled, views re-materialized at their original
/// slots, lineage + tick adopted). This is the core-level shape of what
/// the persistence layer does after a crash.
fn restore_via_catalog(w: &World) -> World {
    let mut r = World::new();
    for (name, ty) in w.schema().map(|(n, t)| (n.to_string(), t)).collect::<Vec<_>>() {
        if name != gamedb_core::POS {
            r.define_component(&name, ty).unwrap();
        }
    }
    for e in w.entity_vec() {
        r.restore_entity(e).unwrap();
    }
    for (e, comp, val) in w.rows() {
        r.set(e, &comp, val).unwrap();
    }
    r.import_catalog(&w.export_catalog()).unwrap();
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ISSUE-3 satellite: standing views survive a restore and keep
    /// tracking the `run_scan` oracle when the workload *resumes* on the
    /// recovered world — random writes, component removals, despawns,
    /// template spawns, and ticks split at an arbitrary crash point,
    /// with and without a secondary index (the index changes which
    /// maintenance strategy the cost model picks post-restore).
    #[test]
    fn restored_views_track_scan_oracle_when_workload_resumes(
        ops in proptest::collection::vec(index_op_strategy(), 2..70),
        split_at in 0usize..70,
        hp_bound in 0.0f32..100.0,
        team in 0u8..4,
        cx in -40.0f32..40.0,
        cy in -40.0f32..40.0,
        r in 0.5f32..120.0,
        index_hp in any::<bool>(),
    ) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        if index_hp {
            w.create_index("hp", IndexKind::Sorted).unwrap();
        }
        let queries = vec![
            Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound)),
            Query::select().filter("team", CmpOp::Eq, Value::Str(team_name(team).into())),
            Query::select()
                .within(Vec2::new(cx, cy), r)
                .filter("hp", CmpOp::Ge, Value::Float(hp_bound)),
        ];
        let views: Vec<_> = queries.iter().map(|q| w.register_view(q.clone())).collect();

        let split = split_at.min(ops.len());
        let mut live = Vec::new();
        for op in &ops[..split] {
            apply_index_op(&mut w, &mut live, op);
        }
        w.refresh_views();

        // "crash": rebuild from rows + catalog, then resume the
        // remaining workload on the restored world
        let mut rw = restore_via_catalog(&w);
        prop_assert_eq!(rw.tick(), w.tick());
        for (&v, q) in views.iter().zip(&queries) {
            // pre-restore handles resolve, rows carried over exactly
            prop_assert!(rw.has_view(v));
            prop_assert_eq!(rw.view_rows(v), w.view_rows(v), "at restore: {:?}", q);
            prop_assert!(rw.view_changelog(v).is_empty(), "changelogs re-anchor");
        }

        // resuming entity bookkeeping: the live list must be rebuilt
        // from the restored world, exactly as a restarted process would
        let mut live = rw.entity_vec();
        for op in &ops[split..] {
            apply_index_op(&mut rw, &mut live, op);
            if matches!(op, IndexOp::Tick) {
                for (&v, q) in views.iter().zip(&queries) {
                    let oracle = q.run_scan(&rw);
                    prop_assert_eq!(
                        rw.view_rows(v),
                        oracle.as_slice(),
                        "post-restore tick: {:?}", q
                    );
                }
            }
        }
        rw.refresh_views();
        for (&v, q) in views.iter().zip(&queries) {
            let oracle = q.run_scan(&rw);
            prop_assert_eq!(rw.view_rows(v), oracle.as_slice(), "final: {:?}", q);
        }
        // the restored index (if any) stayed a pure optimization
        let probe = Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound));
        prop_assert_eq!(probe.run(&rw), probe.run_scan(&rw));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cost-based planner must be a pure optimization: whatever
    /// access path and predicate order it picks, the result set equals
    /// the reference Query evaluation.
    #[test]
    fn planned_query_equals_reference(
        positions in proptest::collection::vec((-60.0f32..60.0, -60.0f32..60.0), 1..60),
        hps in proptest::collection::vec(0.0f32..100.0, 1..8),
        center in (-60.0f32..60.0, -60.0f32..60.0),
        radius in 0.5f32..200.0,
        hp_bound in 0.0f32..100.0,
        use_within in any::<bool>(),
        exclude_first in any::<bool>(),
    ) {
        use gamedb_core::{plan, TableStats};
        let w = build_world(&positions, &hps);
        let stats = TableStats::build(&w);
        let first = w.entities().next();
        let mut q = Query::select()
            .filter("hp", CmpOp::Le, Value::Float(hp_bound))
            .filter("dmg", CmpOp::Ge, Value::Float(2.0));
        if use_within {
            q = q.within(Vec2::new(center.0, center.1), radius);
        }
        if exclude_first {
            if let Some(e) = first {
                q = q.excluding(e);
            }
        }
        let p = plan(&q, &stats);
        prop_assert_eq!(p.run(&w), q.run(&w), "plan: {}", p.explain());
    }
}

/// Replay one change-stream record onto a world — the core-level shape
/// of what every stream consumer (WAL redo, stream-shipped replication)
/// does with a recorded segment.
fn replay_change(w: &mut World, op: &gamedb_core::ChangeOp) {
    use gamedb_core::ChangeOp;
    match op {
        ChangeOp::Set {
            id,
            component,
            new,
            ..
        } => {
            // records carry interned ids; a `ComponentDefined` record
            // always precedes the first use of a new id, so resolution
            // against the replay world cannot fail
            let name = w.component_name(*component).unwrap().to_string();
            w.set(*id, &name, new.clone()).unwrap();
        }
        ChangeOp::Removed { id, component, .. } => {
            let name = w.component_name(*component).unwrap().to_string();
            let _ = w.remove_component(*id, &name);
        }
        ChangeOp::Spawned { id } => {
            w.restore_entity(*id).unwrap();
        }
        ChangeOp::Despawned { id, .. } => {
            w.despawn(*id);
        }
        ChangeOp::ComponentDefined {
            component,
            name,
            ty,
        } => {
            w.ensure_component_at(*component, name, *ty).unwrap();
        }
        ChangeOp::CreateIndex { component, kind } => {
            let name = w.component_name(*component).unwrap().to_string();
            w.ensure_index(&name, *kind).unwrap();
        }
        ChangeOp::DropIndex { component } => {
            let name = w.component_name(*component).unwrap().to_string();
            w.drop_index(&name);
        }
        ChangeOp::RegisterPlanView { slot, plan } => {
            w.import_plan_view_at_slot(*slot, plan.clone()).unwrap();
        }
        ChangeOp::DropView { slot } => {
            w.drop_view_slot(*slot);
        }
        ChangeOp::RetargetView { slot, x, y, radius } => {
            w.retarget_view_slot(*slot, Vec2::new(*x, *y), *radius);
        }
        ChangeOp::TickTo { tick } => {
            w.advance_tick_to(*tick);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ISSUE-4 acceptance property: the change stream is a **complete**
    /// record of mutation — replaying a recorded stream onto the base
    /// state reconstructs rows, secondary indexes, standing views (at
    /// their slots), and the tick counter exactly, under random
    /// interleavings of writes, component removals, despawns, template
    /// spawns, ticks (whole effect batches), spatial-view retargets,
    /// and catalog churn.
    #[test]
    fn change_stream_replay_reconstructs_world(
        ops in proptest::collection::vec(index_op_strategy(), 1..70),
        hp_bound in 0.0f32..100.0,
        retarget_every in 2usize..7,
        index_hp in any::<bool>(),
    ) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        if index_hp {
            w.create_index("hp", IndexKind::Sorted).unwrap();
        }
        let bubble = w.register_view(Query::select().within(Vec2::ZERO, 25.0));
        w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound)));
        let mut live = Vec::new();
        for i in 0..5 {
            let e = w.spawn_at(Vec2::new(i as f32 * 6.0 - 12.0, 0.0));
            w.set_f32(e, "hp", 10.0 + i as f32 * 20.0).unwrap();
            w.set_f32(e, "dmg", 1.0).unwrap();
            live.push(e);
        }
        w.refresh_views();

        // the "base snapshot" the stream replays onto
        let base = w.clone();
        let tap = w.attach_tap();

        let mut extra_views: Vec<gamedb_core::ViewId> = Vec::new();
        for (k, op) in ops.iter().enumerate() {
            apply_index_op(&mut w, &mut live, op);
            if k % retarget_every == 1 {
                w.retarget_view(
                    bubble,
                    Vec2::new(k as f32 - 20.0, 3.0),
                    8.0 + (k % 30) as f32,
                );
            }
            // catalog churn mid-stream: index toggles, view lifecycle
            if k % 7 == 3 {
                if w.index_on("team").is_none() {
                    w.create_index("team", IndexKind::Hash).unwrap();
                } else {
                    w.drop_index("team");
                }
            }
            if k % 11 == 5 {
                extra_views.push(w.register_view(Query::select()));
            }
            if k % 13 == 7 {
                if let Some(v) = extra_views.pop() {
                    w.drop_view(v);
                }
            }
        }
        w.refresh_views();

        let changes: Vec<gamedb_core::Change> = w.tap_pending(tap).to_vec();
        // seq is gap-free and ordered — consumers rely on it
        for (i, c) in changes.iter().enumerate() {
            prop_assert_eq!(c.seq, changes[0].seq + i as u64);
        }

        let mut r = base;
        for c in &changes {
            replay_change(&mut r, &c.op);
        }
        r.refresh_views();

        prop_assert_eq!(r.rows(), w.rows(), "row dumps must match");
        prop_assert_eq!(r.tick(), w.tick(), "tick must match");
        prop_assert_eq!(r.export_catalog(), w.export_catalog(), "catalogs must match");
        for id in w.view_ids() {
            prop_assert_eq!(r.view_rows(id), w.view_rows(id), "view {:?}", id);
            let oracle = w.view_query(id).run_scan(&r);
            prop_assert_eq!(
                r.view_rows(id),
                oracle.as_slice(),
                "replayed view {:?} vs scan oracle", id
            );
        }
        // replayed indexes stay pure optimizations
        let probe = Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound));
        prop_assert_eq!(probe.run(&r), probe.run_scan(&r));
    }
}
