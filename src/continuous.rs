//! Continuous-query wiring across crate boundaries: driving designer
//! triggers from standing-view changelogs.
//!
//! `gamedb-content`'s `stat_below` triggers classically require the
//! engine to poll every watched entity every tick and synthesize
//! `StatChanged` events from before/after values. With the core's
//! continuous-query subsystem the polling disappears: each `stat_below`
//! trigger becomes a standing view over its threshold predicate
//! (`component < threshold`), and a downward crossing is precisely an
//! `entered` row in that view's per-tick changelog. The views fold the
//! world's unified change stream (`gamedb_core::change`) — the same
//! ordered record sequence the WAL taps for durability and the
//! replicator taps for shipping — so the watcher rides every write
//! path, scripted ticks and effect batches included, for free.
//!
//! Semantics note: the view defines a crossing as *the predicate
//! becoming true for a row*. For writes on existing entities this is
//! identical to the polling driver; an entity **spawned already below
//! the threshold** additionally counts as a crossing here (it entered
//! the view), where a poller that never saw a pre-spawn value would stay
//! silent. That is the set-oriented reading the paper advocates, and
//! [`ThresholdWatcher::pump`]'s equivalence test pins down both halves.

use gamedb_content::{Action, CmpOp, EventKind, GameEvent, TriggerSet, Value};
use gamedb_core::{EntityId, Query, ViewId, World};

/// One standing view per `stat_below` trigger, pumping changelog entries
/// into the trigger set.
#[derive(Debug, Clone)]
pub struct ThresholdWatcher {
    /// `(trigger id, view, component, threshold)` per watched trigger.
    entries: Vec<(String, ViewId, String, f64)>,
}

impl ThresholdWatcher {
    /// Register a standing `component < threshold` view for every
    /// `stat_below` trigger in `triggers`. Entities already below a
    /// threshold at registration are part of the initial
    /// materialization, not crossings — matching a poller that starts
    /// observing now.
    pub fn register(world: &mut World, triggers: &TriggerSet) -> Self {
        Self::build(world, triggers, false)
    }

    /// [`ThresholdWatcher::register`] for a world recovered from the
    /// persistence layer: the standing views survived the crash (the
    /// snapshot/WAL catalog re-materializes them with changelogs
    /// re-anchored at the recovery tick), so the watcher **re-attaches**
    /// to each existing view instead of registering duplicates. Entities
    /// already below a threshold at recovery are materialized rows, not
    /// crossings — exactly the pre-crash subscription state, so nothing
    /// double-fires on restart. Triggers whose views did not survive
    /// (e.g. first boot) register fresh ones.
    pub fn reattach(world: &mut World, triggers: &TriggerSet) -> Self {
        Self::build(world, triggers, true)
    }

    fn build(world: &mut World, triggers: &TriggerSet, adopt: bool) -> Self {
        let mut entries: Vec<(String, ViewId, String, f64)> = Vec::new();
        for t in triggers.iter() {
            if let EventKind::StatBelow {
                component,
                threshold,
            } = &t.event
            {
                let query = Query::select().filter(
                    component.clone(),
                    CmpOp::Lt,
                    Value::Float(*threshold as f32),
                );
                // The threshold predicate lowers into a single-operator
                // plan (Scan with the filter fused in). Adopt each
                // recovered view at most once: two triggers with the
                // same (component, threshold) registered two views on
                // first boot, and each must reclaim its own — sharing
                // one would leave the second trigger reading an
                // already-taken changelog (silent starvation) and the
                // other recovered view orphaned.
                let plan = query.into_plan();
                let view = adopt
                    .then(|| {
                        let used =
                            |v: ViewId| entries.iter().any(|(_, u, _, _)| *u == v);
                        world
                            .view_ids()
                            .into_iter()
                            .find(|&v| world.view_plan(v) == Some(&plan) && !used(v))
                    })
                    .flatten()
                    .unwrap_or_else(|| {
                        world
                            .register_view_plan(plan)
                            .expect("a bare scan plan is always valid")
                    });
                entries.push((t.id.clone(), view, component.clone(), *threshold));
            }
        }
        ThresholdWatcher { entries }
    }

    /// Number of watched triggers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no `stat_below` triggers were found.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fold pending deltas, then fire every watched trigger once per
    /// entity that crossed below its threshold since the last pump.
    /// Returns `(entity, trigger id, action)` for every requested
    /// action, in (view registration, entity id) order — deterministic
    /// because changelogs are.
    ///
    /// Crossings resolve at pump cadence: an entity that entered the
    /// view but left it again (recovered, lost the component, or
    /// despawned) before the pump is skipped — there is nothing sane to
    /// act on. The standing view *is* the event matcher, so the
    /// synthesized `StatChanged` payload is constructed to always pass
    /// the trigger's own crossing test (its guards and once-bookkeeping
    /// still apply); membership is decided in the engine's `f32` value
    /// domain, so a threshold that is not `f32`-representable resolves
    /// to its nearest-`f32` boundary rather than the trigger's `f64`
    /// reading of it.
    pub fn pump(
        &self,
        world: &mut World,
        triggers: &mut TriggerSet,
    ) -> Vec<(EntityId, String, Action)> {
        world.refresh_views();
        let mut out = Vec::new();
        for (trigger_id, view, component, threshold) in &self.entries {
            let log = world.take_view_changelog(*view);
            for &e in &log.entered {
                if !world.view_contains(*view, e) {
                    // entered and left again between pumps (despawn,
                    // recovery, component removal): nothing to fire on
                    continue;
                }
                let event = GameEvent::StatChanged {
                    component: component.clone(),
                    old: *threshold,
                    new: f64::NEG_INFINITY,
                };
                for (id, action) in triggers.fire_id(trigger_id, &event, &world.view(e)) {
                    out.push((e, id, action));
                }
            }
        }
        out
    }

    /// Drop the underlying views.
    pub fn release(self, world: &mut World) {
        for (_, view, _, _) in self.entries {
            world.drop_view(view);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamedb_content::{gdml, ComponentView, ValueType};
    use gamedb_spatial::Vec2;
    use std::collections::HashMap;

    const TRIGGERS: &str = r#"
      <triggers>
        <trigger id="low_hp" event="stat_below" component="hp" threshold="20">
          <action kind="run_script" script="flee"/>
        </trigger>
        <trigger id="critical_hp" event="stat_below" component="hp" threshold="5">
          <action kind="emit" event="last_stand"/>
        </trigger>
        <trigger id="oom" event="stat_below" component="mana" threshold="10">
          <when component="class" op="eq" value="mage"/>
          <action kind="emit" event="drink_potion"/>
        </trigger>
        <trigger id="door" event="enter_area" x="0" y="0" w="5" h="5">
          <action kind="emit" event="creak"/>
        </trigger>
      </triggers>"#;

    fn trigger_set() -> TriggerSet {
        TriggerSet::from_gdml(&gdml::parse(TRIGGERS).unwrap()).unwrap()
    }

    fn arena() -> (World, Vec<gamedb_core::EntityId>) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("mana", ValueType::Float).unwrap();
        w.define_component("class", ValueType::Str).unwrap();
        let mut ids = Vec::new();
        for i in 0..4 {
            let e = w.spawn_at(Vec2::new(i as f32 * 10.0, 0.0));
            w.set_f32(e, "hp", 100.0).unwrap();
            w.set_f32(e, "mana", 50.0).unwrap();
            w.set(
                e,
                "class",
                Value::Str(if i % 2 == 0 { "mage" } else { "rogue" }.into()),
            )
            .unwrap();
            ids.push(e);
        }
        (w, ids)
    }

    /// The classical polling driver: remember every entity's watched
    /// values, and after each tick synthesize `StatChanged` per entity
    /// whose value moved, addressed to each trigger individually (so
    /// both drivers fan out identically).
    struct Poller {
        last: HashMap<(gamedb_core::EntityId, String), f64>,
    }

    impl Poller {
        fn new() -> Self {
            Poller { last: HashMap::new() }
        }

        fn prime(&mut self, world: &World) {
            for e in world.entities() {
                for comp in ["hp", "mana"] {
                    if let Some(v) = world.get_number(e, comp) {
                        self.last.insert((e, comp.to_string()), v);
                    }
                }
            }
        }

        fn poll(
            &mut self,
            world: &World,
            triggers: &mut TriggerSet,
        ) -> Vec<(gamedb_core::EntityId, String, Action)> {
            let watched: Vec<String> = triggers
                .iter()
                .filter_map(|t| match &t.event {
                    EventKind::StatBelow { .. } => Some(t.id.clone()),
                    _ => None,
                })
                .collect();
            let mut out = Vec::new();
            for e in world.entities() {
                for comp in ["hp", "mana"] {
                    let Some(new) = world.get_number(e, comp) else { continue };
                    let old = self
                        .last
                        .insert((e, comp.to_string()), new)
                        .unwrap_or(new);
                    if old == new {
                        continue;
                    }
                    let event = GameEvent::StatChanged {
                        component: comp.to_string(),
                        old,
                        new,
                    };
                    for tid in &watched {
                        for (id, a) in triggers.fire_id(tid, &event, &world.view(e)) {
                            out.push((e, id, a));
                        }
                    }
                }
            }
            self.last.retain(|(e, _), _| world.is_live(*e));
            out
        }
    }

    fn fired_keys(fired: &[(gamedb_core::EntityId, String, Action)]) -> Vec<(gamedb_core::EntityId, String)> {
        let mut keys: Vec<_> = fired.iter().map(|(e, id, _)| (*e, id.clone())).collect();
        keys.sort();
        keys
    }

    #[test]
    fn watcher_fires_on_downward_crossings_only() {
        let (mut w, ids) = arena();
        let mut triggers = trigger_set();
        let watcher = ThresholdWatcher::register(&mut w, &triggers);
        assert_eq!(watcher.len(), 3, "three stat_below triggers");

        // drop ids[0] across both hp thresholds in one tick
        w.set_f32(ids[0], "hp", 2.0).unwrap();
        // ids[1] crosses only the outer threshold
        w.set_f32(ids[1], "hp", 15.0).unwrap();
        // ids[2] (a mage) runs out of mana
        w.set_f32(ids[2], "mana", 3.0).unwrap();
        // ids[3] (a rogue) also runs dry — the class guard must block it
        w.set_f32(ids[3], "mana", 3.0).unwrap();
        let fired = watcher.pump(&mut w, &mut triggers);
        assert_eq!(
            fired_keys(&fired),
            vec![
                (ids[0], "critical_hp".to_string()),
                (ids[0], "low_hp".to_string()),
                (ids[1], "low_hp".to_string()),
                (ids[2], "oom".to_string()),
            ]
        );

        // already below: further drops fire nothing
        w.set_f32(ids[0], "hp", 1.0).unwrap();
        assert!(watcher.pump(&mut w, &mut triggers).is_empty());

        // recover above, then cross again: fires again
        w.set_f32(ids[0], "hp", 50.0).unwrap();
        watcher.pump(&mut w, &mut triggers);
        w.set_f32(ids[0], "hp", 10.0).unwrap();
        let fired = watcher.pump(&mut w, &mut triggers);
        assert_eq!(fired_keys(&fired), vec![(ids[0], "low_hp".to_string())]);
        watcher.release(&mut w);
    }

    /// ISSUE-2 satellite: the changelog-driven watcher fires exactly the
    /// (entity, trigger) pairs the per-entity polling driver fires, tick
    /// for tick, over a scripted workload of writes on live entities.
    #[test]
    fn watcher_equals_polling_driver() {
        let (mut w_view, ids_v) = arena();
        let (mut w_poll, ids_p) = arena();
        let mut trig_view = trigger_set();
        let mut trig_poll = trigger_set();
        let watcher = ThresholdWatcher::register(&mut w_view, &trig_view);
        let mut poller = Poller::new();
        poller.prime(&w_poll);

        let script: Vec<Vec<(usize, &str, f32)>> = vec![
            vec![(0, "hp", 18.0), (1, "mana", 5.0)],
            vec![(0, "hp", 3.0)],          // second threshold
            vec![(0, "hp", 3.0)],          // no change: silence
            vec![(2, "mana", 9.0)],        // mage oom
            vec![(0, "hp", 90.0)],         // recovery: silence
            vec![(0, "hp", 19.5), (3, "hp", 1.0)],
        ];
        for (tick, writes) in script.iter().enumerate() {
            for &(i, comp, v) in writes {
                w_view.set_f32(ids_v[i], comp, v).unwrap();
                w_poll.set_f32(ids_p[i], comp, v).unwrap();
            }
            let from_view = fired_keys(&watcher.pump(&mut w_view, &mut trig_view));
            let from_poll = fired_keys(&poller.poll(&w_poll, &mut trig_poll));
            assert_eq!(from_view, from_poll, "tick {tick}");
        }
    }

    #[test]
    fn spawning_below_threshold_counts_as_entering() {
        let (mut w, _) = arena();
        let mut triggers = trigger_set();
        let watcher = ThresholdWatcher::register(&mut w, &triggers);
        let newborn = w.spawn_at(Vec2::ZERO);
        w.set_f32(newborn, "hp", 1.0).unwrap();
        let fired = watcher.pump(&mut w, &mut triggers);
        assert_eq!(
            fired_keys(&fired),
            vec![
                (newborn, "critical_hp".to_string()),
                (newborn, "low_hp".to_string()),
            ],
            "view semantics: the predicate became true for a new row"
        );
    }

    #[test]
    fn crossings_resolved_by_pump_time_do_not_fire() {
        let (mut w, ids) = arena();
        let mut triggers = trigger_set();
        let watcher = ThresholdWatcher::register(&mut w, &triggers);
        // crossed below, then despawned before the pump
        w.set_f32(ids[0], "hp", 1.0).unwrap();
        w.refresh_views();
        w.despawn(ids[0]);
        // crossed below, then recovered before the pump
        w.set_f32(ids[1], "hp", 1.0).unwrap();
        w.refresh_views();
        w.set_f32(ids[1], "hp", 80.0).unwrap();
        assert!(
            watcher.pump(&mut w, &mut triggers).is_empty(),
            "dead or recovered entities must not fire"
        );
    }

    #[test]
    fn reattach_gives_identical_triggers_their_own_views() {
        const DUPES: &str = r#"
          <triggers>
            <trigger id="flee" event="stat_below" component="hp" threshold="20">
              <action kind="emit" event="flee"/>
            </trigger>
            <trigger id="alarm" event="stat_below" component="hp" threshold="20">
              <action kind="emit" event="alarm"/>
            </trigger>
          </triggers>"#;
        let dupes = || TriggerSet::from_gdml(&gdml::parse(DUPES).unwrap()).unwrap();
        let (mut w, ids) = arena();
        let trig = dupes();
        let first_boot = ThresholdWatcher::register(&mut w, &trig);
        assert_eq!(w.view_ids().len(), 2, "one view per trigger");
        drop(first_boot); // "crash": both views survive in the world

        // restart: each trigger must reclaim its OWN view — sharing one
        // would hand the second trigger an already-taken changelog
        let mut trig2 = dupes();
        let watcher = ThresholdWatcher::reattach(&mut w, &trig2);
        assert_eq!(w.view_ids().len(), 2, "adopted, not re-registered");
        w.set_f32(ids[0], "hp", 5.0).unwrap();
        let fired = watcher.pump(&mut w, &mut trig2);
        assert_eq!(
            fired_keys(&fired),
            vec![
                (ids[0], "alarm".to_string()),
                (ids[0], "flee".to_string()),
            ],
            "both identical-threshold triggers fire after reattach"
        );
        let _ = trig;
    }

    #[test]
    fn preexisting_rows_are_not_crossings() {
        let (mut w, ids) = arena();
        w.set_f32(ids[0], "hp", 1.0).unwrap();
        let mut triggers = trigger_set();
        // registered after the drop: ids[0] is initial materialization
        let watcher = ThresholdWatcher::register(&mut w, &triggers);
        assert!(watcher.pump(&mut w, &mut triggers).is_empty());
    }

    #[test]
    fn world_entity_view_feeds_guards() {
        // the `oom` guard reads `class` through the world's ComponentView
        let (w, ids) = arena();
        assert_eq!(w.view(ids[0]).get("class"), Some(Value::Str("mage".into())));
    }
}
