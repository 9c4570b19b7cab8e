//! Standing views: the registry that maintains a world's materialized
//! views from its change stream.
//!
//! The paper's central pitch is that game computation is *declarative
//! set-at-a-time processing over a database* — yet every recurring
//! question an engine asks (invariant audits, aggro candidate sets,
//! trigger thresholds, replication interest) is classically answered by
//! re-running a full query each tick. This module gives those questions
//! the database answer: a **materialized view**. Callers register a
//! standing [`Query`](crate::query::Query) with
//! [`crate::world::World::register_view`] (or any operator tree with
//! [`crate::world::World::register_view_plan`]); every write path then
//! commits a typed [`crate::change::Change`] record (`entity, component,
//! old → new`) to the world's change stream, and
//! [`crate::world::World::refresh_views`] (called automatically at tick
//! end) folds the pending segment into each view, producing a per-tick
//! [`Changelog`] of `entered` / `exited` / `changed` rows. Every view is
//! an operator tree maintained by [`crate::dvm`]; a query view is the
//! one-operator plan `ViewPlan::scan(query)`. Views are one consumer of
//! the change stream among several — durability and replication tap the
//! very same records (see [`crate::change`]).
//!
//! ## Maintenance invariants
//!
//! * **Stream completeness** — every mutation of live-entity state flows
//!   through one of the world's primitive write paths (`set`, `set_pos`,
//!   `remove_component`, `despawn`, `spawn*`, `restore_entity`,
//!   `apply_batch`), and each of those commits exactly one row-op record
//!   while any view is registered. Effect application at tick end and
//!   snapshot/WAL recovery mutate the world through those same
//!   primitives, so they need no extra hooks.
//! * **Membership from current state** — a refresh re-evaluates
//!   membership against the *post-batch* world for every candidate
//!   entity, so stale or duplicate deltas can never corrupt a view; the
//!   log's old values exist for relevance filtering and observability,
//!   not as the source of truth.
//! * **Changelog ordering determinism** — within one refresh batch,
//!   `entered`, `exited`, and `changed` are each sorted by entity id and
//!   duplicate-free; successive batches append in refresh order. Two
//!   worlds with identical write histories produce identical changelogs.
//! * **Cost-based fallback** — a row view whose batch touches more rows
//!   than the planner expects a fresh evaluation to cost falls back to a
//!   planner-driven rescan and diffs the result (see [`crate::dvm`]).
//!
//! The equivalence contract — materialized rows ≡ `Query::run_scan` after
//! every refresh, under arbitrary interleavings of writes, removals,
//! despawns, template spawns, and ticks — is enforced by the property
//! tests in `tests/prop_core.rs`.

use crate::change::{Change, ChangeOp};
use crate::dvm::{PlanView, ViewPlan};
use crate::entity::EntityId;
use crate::metrics::CoreMetrics;
use crate::world::World;

/// Handle to a registered standing view. Ids are scoped to the world
/// (lineage) that issued them and slots are never reused, so a handle
/// presented to the wrong world or outliving
/// [`crate::world::World::drop_view`] is detectably stale rather than
/// silently rebound to an unrelated view. Clones of a world share its
/// lineage: a handle taken before the clone reads either copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId {
    pub(crate) world: u64,
    pub(crate) slot: u32,
}

impl ViewId {
    /// Slot index within the issuing world's registry — the stable
    /// address catalog records and recovery use
    /// ([`crate::world::World::view_id_at`] resolves it back).
    pub fn slot(self) -> u32 {
        self.slot
    }
}

/// Membership changes a row view accumulated since its changelog was
/// last taken — the per-tick changelog when consumed once per tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Changelog {
    /// Rows that joined the view (predicate became true / entity spawned
    /// into it). Sorted by id within each refresh batch.
    pub entered: Vec<EntityId>,
    /// Rows that left the view (predicate became false, component
    /// removed, entity despawned or excluded by a retarget).
    pub exited: Vec<EntityId>,
    /// Rows that stayed in the view but had at least one component delta
    /// this batch (any component — subscribers shipping state want every
    /// touched member, not only predicate columns).
    pub changed: Vec<EntityId>,
    /// How many of the contributing refresh batches used the rescan
    /// fallback instead of incremental maintenance.
    pub rescans: usize,
}

impl Changelog {
    /// True when nothing entered, exited, or changed.
    pub fn is_empty(&self) -> bool {
        self.entered.is_empty() && self.exited.is_empty() && self.changed.is_empty()
    }

    pub(crate) fn absorb_batch(
        &mut self,
        entered: Vec<EntityId>,
        exited: Vec<EntityId>,
        changed: Vec<EntityId>,
        rescanned: bool,
    ) {
        self.entered.extend(entered);
        self.exited.extend(exited);
        self.changed.extend(changed);
        if rescanned {
            self.rescans += 1;
        }
    }
}

/// Maintenance counters for one view.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ViewStats {
    /// Refresh batches folded into this view (retargets included).
    pub refreshes: u64,
    /// Batches that fell back to a planner-driven rescan, plus retargets
    /// (which always rescan). Only row views have a rescan path; join
    /// and group-aggregate views stay at 0.
    pub rescans: u64,
    /// Deltas inspected across all batches (relevant or not).
    pub deltas_seen: u64,
    /// Output delta rows this view emitted across all batches (entered,
    /// exited and changed rows; pair or group changes for join and
    /// group views) — the per-view delta-batch size the metrics catalog
    /// surfaces as `view.s{slot}.delta_rows`.
    pub delta_rows: u64,
}

/// Per-batch fold context shared by every view refresh: the entities a
/// change-stream segment touched, its structural (spawn/despawn) subset,
/// its per-component deltas (sorted by component then id, deduped), and
/// the row-op count.
#[derive(Clone, Copy)]
pub(crate) struct FoldCtx<'a> {
    pub(crate) touched: &'a [EntityId],
    pub(crate) structural: &'a [EntityId],
    pub(crate) comp_deltas: &'a [(crate::intern::ComponentId, EntityId)],
    pub(crate) batch_len: usize,
}

/// The set of standing views a world maintains. Owned by
/// [`crate::world::World`]; callers go through the world's `*_view`
/// methods, which keep delta recording and consumption in lockstep.
#[derive(Debug, Clone, Default)]
pub struct ViewRegistry {
    /// Slot per ever-registered view; dropped views leave `None` so ids
    /// stay stable.
    slots: Vec<Option<PlanView>>,
    active: usize,
}

impl ViewRegistry {
    /// True when at least one view is registered (the world records
    /// deltas only then).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active > 0
    }

    /// Number of live views.
    pub fn len(&self) -> usize {
        self.active
    }

    /// True when no views are registered.
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }

    pub(crate) fn register(&mut self, world_id: u64, view: PlanView) -> ViewId {
        let id = ViewId {
            world: world_id,
            slot: self.slots.len() as u32,
        };
        self.slots.push(Some(view));
        self.active += 1;
        id
    }

    /// Total slots ever issued, including dropped ones (the catalog
    /// records this so recovery burns the same slots and stale handles
    /// stay stale).
    pub(crate) fn slot_count(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Iterate `(slot, plan)` over live views in slot order (the
    /// catalog's view section).
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = (u32, &ViewPlan)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v.plan())))
    }

    /// Pad the slot table with dead slots up to `slots` total — recovery
    /// reserves every slot the pre-crash world ever issued before
    /// re-registering the live ones.
    pub(crate) fn reserve_slots(&mut self, slots: u32) {
        while self.slots.len() < slots as usize {
            self.slots.push(None);
        }
    }

    /// Install a view at an exact slot (recovery). The slot must be dead
    /// and within the reserved table; returns `false` when it is live.
    pub(crate) fn install_at_slot(&mut self, slot: u32, view: PlanView) -> bool {
        self.reserve_slots(slot + 1);
        let entry = &mut self.slots[slot as usize];
        if entry.is_some() {
            return false;
        }
        *entry = Some(view);
        self.active += 1;
        true
    }

    /// The operator tree at a slot, if the slot holds a live view.
    pub(crate) fn plan_at_slot(&self, slot: u32) -> Option<&ViewPlan> {
        self.slots.get(slot as usize)?.as_ref().map(PlanView::plan)
    }

    /// Drop every accumulated changelog — recovery re-anchors subscribers
    /// to the recovered materialization instead of replaying pre-crash
    /// history at them.
    pub(crate) fn clear_changelogs(&mut self) {
        for view in self.slots.iter_mut().flatten() {
            view.clear_logs();
        }
    }

    pub(crate) fn drop_view(&mut self, id: ViewId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.active -= 1;
                true
            }
            _ => false,
        }
    }

    /// The live view behind `id`.
    ///
    /// # Panics
    /// On unknown or dropped ids (programmer error).
    pub(crate) fn get(&self, id: ViewId) -> &PlanView {
        self.slots
            .get(id.slot as usize)
            .and_then(|s| s.as_ref())
            .unwrap_or_else(|| panic!("view {id:?} is not registered"))
    }

    /// Mutable [`ViewRegistry::get`].
    pub(crate) fn get_mut(&mut self, id: ViewId) -> &mut PlanView {
        self.slots
            .get_mut(id.slot as usize)
            .and_then(|s| s.as_mut())
            .unwrap_or_else(|| panic!("view {id:?} is not registered"))
    }

    pub(crate) fn contains_view(&self, id: ViewId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|s| s.is_some())
    }

    /// Fold one pending change-stream segment into every view. Only row
    /// ops participate (catalog and tick records pass through untouched
    /// — they exist for the stream's other taps). `world` is the
    /// post-segment state (the registry is temporarily moved out of the
    /// world while this runs, which is invisible here: refresh only
    /// reads columns, indexes, and the spatial grid). `metrics` is
    /// threaded in explicitly because the change stream — where the
    /// handle lives — is *also* moved out of the world during the fold,
    /// so `world.core_metrics()` would read `None` here.
    pub(crate) fn apply(
        &mut self,
        world: &World,
        changes: &[Change],
        metrics: Option<&CoreMetrics>,
    ) {
        if changes.is_empty() || self.active == 0 {
            return;
        }
        let mut touched: Vec<EntityId> = Vec::with_capacity(changes.len());
        let mut structural: Vec<EntityId> = Vec::new();
        let mut comp_deltas: Vec<(crate::intern::ComponentId, EntityId)> =
            Vec::with_capacity(changes.len());
        let mut row_ops = 0usize;
        for c in changes {
            match &c.op {
                ChangeOp::Spawned { id } | ChangeOp::Despawned { id, .. } => {
                    touched.push(*id);
                    structural.push(*id);
                    row_ops += 1;
                }
                ChangeOp::Set { id, component, .. }
                | ChangeOp::Removed { id, component, .. } => {
                    touched.push(*id);
                    comp_deltas.push((*component, *id));
                    row_ops += 1;
                }
                _ => {}
            }
        }
        if row_ops == 0 {
            return;
        }
        touched.sort_unstable();
        touched.dedup();
        structural.sort_unstable();
        structural.dedup();
        comp_deltas.sort_unstable();
        comp_deltas.dedup();
        let ctx = FoldCtx {
            touched: &touched,
            structural: &structural,
            comp_deltas: &comp_deltas,
            batch_len: row_ops,
        };
        for (slot, entry) in self.slots.iter_mut().enumerate() {
            if let Some(view) = entry {
                view.refresh(world, &ctx, slot, metrics);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::effect::{Effect, EffectBuffer, SpawnRequest};
    use crate::exec::TickExecutor;
    use crate::index::IndexKind;
    use gamedb_content::{CmpOp, Value, ValueType};
    use gamedb_spatial::Vec2;

    fn world_with(components: &[(&str, ValueType)]) -> World {
        let mut w = World::new();
        for (n, t) in components {
            w.define_component(n, *t).unwrap();
        }
        w
    }

    fn wounded_query() -> Query {
        Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0))
    }

    #[test]
    fn register_materializes_existing_rows() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set_f32(b, "hp", 90.0).unwrap();
        let v = w.register_view(wounded_query());
        assert_eq!(w.view_rows(v), &[a]);
        assert!(w.view_contains(v, a));
        assert!(!w.view_contains(v, b));
        assert!(w.view_changelog(v).is_empty(), "initial rows are not events");
    }

    #[test]
    fn writes_enter_and_exit_the_view() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 80.0).unwrap();
        w.set_f32(b, "hp", 80.0).unwrap();
        let v = w.register_view(wounded_query());
        assert!(w.view_rows(v).is_empty());

        w.set_f32(a, "hp", 20.0).unwrap(); // enters
        w.set_f32(b, "hp", 70.0).unwrap(); // stays out
        assert_eq!(w.pending_deltas(), 2);
        w.refresh_views();
        assert_eq!(w.pending_deltas(), 0);
        assert_eq!(w.view_rows(v), &[a]);
        let log = w.take_view_changelog(v);
        assert_eq!(log.entered, vec![a]);
        assert!(log.exited.is_empty());

        w.set_f32(a, "hp", 60.0).unwrap(); // exits
        w.refresh_views();
        let log = w.take_view_changelog(v);
        assert_eq!(log.exited, vec![a]);
        assert!(w.view_rows(v).is_empty());
    }

    #[test]
    fn changed_rows_reported_for_any_component() {
        let mut w = world_with(&[("hp", ValueType::Float), ("gold", ValueType::Int)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        let v = w.register_view(wounded_query());
        // a non-predicate component write on a member → changed, not a
        // membership event
        w.set(a, "gold", Value::Int(5)).unwrap();
        w.refresh_views();
        let log = w.take_view_changelog(v);
        assert!(log.entered.is_empty() && log.exited.is_empty());
        assert_eq!(log.changed, vec![a]);
        // a predicate write that keeps membership → changed as well
        w.set_f32(a, "hp", 11.0).unwrap();
        w.refresh_views();
        assert_eq!(w.take_view_changelog(v).changed, vec![a]);
    }

    #[test]
    fn removals_despawns_and_spawns_flow_through() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        let v = w.register_view(wounded_query());

        w.remove_component(a, "hp").unwrap();
        w.refresh_views();
        assert_eq!(w.take_view_changelog(v).exited, vec![a]);

        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(b, "hp", 1.0).unwrap();
        w.refresh_views();
        assert_eq!(w.take_view_changelog(v).entered, vec![b]);

        w.despawn(b);
        w.refresh_views();
        assert_eq!(w.take_view_changelog(v).exited, vec![b]);
        assert!(w.view_rows(v).is_empty());
    }

    #[test]
    fn enter_and_exit_within_one_batch_cancel_out() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 80.0).unwrap();
        let v = w.register_view(wounded_query());
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set_f32(a, "hp", 90.0).unwrap();
        w.refresh_views();
        let log = w.take_view_changelog(v);
        assert!(log.entered.is_empty(), "net membership did not change");
        assert!(log.exited.is_empty());
        assert!(w.view_rows(v).is_empty());
    }

    #[test]
    fn spatial_views_track_movement() {
        let mut w = World::new();
        let a = w.spawn_at(Vec2::new(0.0, 0.0));
        let b = w.spawn_at(Vec2::new(100.0, 0.0));
        let v = w.register_view(Query::select().within(Vec2::ZERO, 10.0));
        assert_eq!(w.view_rows(v), &[a]);
        w.set_pos(b, Vec2::new(5.0, 0.0)).unwrap();
        w.set_pos(a, Vec2::new(50.0, 0.0)).unwrap();
        w.refresh_views();
        let log = w.take_view_changelog(v);
        assert_eq!(log.entered, vec![b]);
        assert_eq!(log.exited, vec![a]);
        assert_eq!(w.view_rows(v), &[b]);
    }

    #[test]
    fn retarget_rediffs_the_view() {
        let mut w = World::new();
        let a = w.spawn_at(Vec2::new(0.0, 0.0));
        let b = w.spawn_at(Vec2::new(100.0, 0.0));
        let v = w.register_view(Query::select().within(Vec2::ZERO, 10.0));
        assert_eq!(w.view_rows(v), &[a]);
        w.retarget_view(v, Vec2::new(100.0, 0.0), 10.0);
        let log = w.take_view_changelog(v);
        assert_eq!(log.entered, vec![b]);
        assert_eq!(log.exited, vec![a]);
        assert_eq!(log.rescans, 1);
        assert_eq!(w.view_rows(v), &[b]);
        // the disk is rewritten in the stored plan (what the catalog
        // persists), not only in the materialization
        let moved = Query::select().within(Vec2::new(100.0, 0.0), 10.0);
        assert_eq!(w.view_plan(v), Some(&crate::dvm::ViewPlan::scan(moved)));
    }

    #[test]
    fn retarget_rewrites_the_scan_below_a_filter_chain() {
        use crate::dvm::{PlanNode, ViewPlan};
        use crate::query::Pred;
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::new(0.0, 0.0));
        let b = w.spawn_at(Vec2::new(100.0, 0.0));
        let c = w.spawn_at(Vec2::new(101.0, 0.0));
        for (e, hp) in [(a, 10.0), (b, 90.0), (c, 10.0)] {
            w.set_f32(e, "hp", hp).unwrap();
        }
        let chain = |center: Vec2| {
            ViewPlan::new(
                PlanNode::scan(Query::select().within(center, 10.0))
                    .filtered(Pred::new("hp", CmpOp::Lt, Value::Float(50.0))),
            )
        };
        let v = w.register_view_plan(chain(Vec2::ZERO)).unwrap();
        assert_eq!(w.view_rows(v), &[a]);
        w.retarget_view(v, Vec2::new(100.0, 0.0), 10.0);
        assert_eq!(w.view_rows(v), &[c]);
        assert_eq!(w.view_plan(v), Some(&chain(Vec2::new(100.0, 0.0))));
        assert_eq!(w.view_output(v), chain(Vec2::new(100.0, 0.0)).evaluate(&w).unwrap());
        // the fused query keeps the filter and carries the new disk
        assert_eq!(w.view_query(v).run_scan(&w), vec![c]);
    }

    #[test]
    fn join_views_do_not_retarget() {
        use crate::dvm::{JoinOn, PlanNode, ViewPlan};
        let mut w = World::new();
        w.spawn_at(Vec2::ZERO);
        let scan = || PlanNode::scan(Query::select());
        let v = w
            .register_view_plan(ViewPlan::join(scan(), scan(), JoinOn::Within { radius: 5.0 }))
            .unwrap();
        assert!(!w.retarget_view_slot(v.slot(), Vec2::ZERO, 1.0), "replay skips it");
        let mut clone = w.clone();
        assert!(
            std::panic::catch_unwind(move || clone.retarget_view(v, Vec2::ZERO, 1.0)).is_err(),
            "a join view follows its anchor instead"
        );
    }

    #[test]
    fn ticks_refresh_views_automatically() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 60.0).unwrap();
        let v = w.register_view(wounded_query());
        let drain: &crate::exec::System<'_> = &|id, _w, buf: &mut EffectBuffer| {
            buf.push(id, "hp", Effect::Add(-20.0));
        };
        TickExecutor::sequential().run_tick(&mut w, &[drain]).unwrap();
        // effect applied at tick end, view refreshed by the tick bump
        assert_eq!(w.pending_deltas(), 0);
        assert_eq!(w.take_view_changelog(v).entered, vec![a]);

        // spawns queued through effects land in the view the same tick
        let spawner: &crate::exec::System<'_> = &|_id, _w, buf: &mut EffectBuffer| {
            buf.spawn(SpawnRequest {
                components: vec![("hp".into(), Value::Float(5.0))],
                pos: Vec2::ZERO,
            });
        };
        TickExecutor::sequential().run_tick(&mut w, &[spawner]).unwrap();
        let log = w.take_view_changelog(v);
        assert_eq!(log.entered.len(), 1);
        assert_eq!(w.view_rows(v).len(), 2);
    }

    #[test]
    fn large_batches_fall_back_to_rescan() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let ids: Vec<EntityId> = (0..500)
            .map(|i| {
                let e = w.spawn_at(Vec2::new(i as f32, 0.0));
                w.set_f32(e, "hp", 100.0).unwrap();
                e
            })
            .collect();
        let v = w.register_view(wounded_query());
        // touch every row: incremental would evaluate 500 candidates,
        // the indexed rescan is priced far below that
        for &e in &ids {
            w.set_f32(e, "hp", if e.index() % 100 == 0 { 10.0 } else { 99.0 }).unwrap();
        }
        w.refresh_views();
        let stats = w.view_stats(v);
        assert_eq!(stats.rescans, 1, "write storm must trigger the rescan path");
        let log = w.take_view_changelog(v);
        assert_eq!(log.rescans, 1);
        assert_eq!(log.entered.len(), 5);
        assert_eq!(w.view_rows(v).len(), 5);
        assert_eq!(
            w.view_rows(v).to_vec(),
            wounded_query().run_scan(&w),
            "rescan fallback must agree with the oracle"
        );
        assert_eq!(w.view_plan(v), Some(&crate::dvm::ViewPlan::scan(wounded_query())));
    }

    #[test]
    fn small_batches_stay_incremental() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        for i in 0..500 {
            let e = w.spawn_at(Vec2::new(i as f32, 0.0));
            w.set_f32(e, "hp", 100.0).unwrap();
        }
        let v = w.register_view(wounded_query());
        let victim = w.entities().next().unwrap();
        w.set_f32(victim, "hp", 1.0).unwrap();
        w.refresh_views();
        let stats = w.view_stats(v);
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.rescans, 0, "one delta must not rescan 500 rows");
        assert_eq!(w.view_rows(v), &[victim]);
    }

    #[test]
    fn irrelevant_component_writes_do_not_reevaluate() {
        let mut w = world_with(&[("hp", ValueType::Float), ("gold", ValueType::Int)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 90.0).unwrap();
        let v = w.register_view(wounded_query());
        w.set(a, "gold", Value::Int(1)).unwrap();
        w.refresh_views();
        let log = w.take_view_changelog(v);
        assert!(log.is_empty(), "non-member touched by irrelevant write: no events");
        let _ = v;
    }

    #[test]
    fn drop_view_stops_recording_and_invalidates_handle() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let v = w.register_view(wounded_query());
        assert!(w.has_view(v));
        assert!(w.drop_view(v));
        assert!(!w.has_view(v));
        assert!(!w.drop_view(v));
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 1.0).unwrap();
        assert_eq!(w.pending_deltas(), 0, "no views ⇒ no delta recording");
        // a second registration gets a fresh id
        let v2 = w.register_view(wounded_query());
        assert_ne!(v, v2);
        assert_eq!(w.view_rows(v2), &[e]);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_membership() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 1.0).unwrap();
        let v = w.register_view(wounded_query());
        assert_eq!(w.view_rows(v), &[a]);
        w.despawn(a);
        let b = w.spawn(); // reuses a's slot, bumped generation
        assert_eq!(b.index(), a.index());
        w.refresh_views();
        let log = w.take_view_changelog(v);
        assert_eq!(log.exited, vec![a]);
        assert!(w.view_rows(v).is_empty(), "new tenant has no hp");
    }

    #[test]
    fn changelog_peek_does_not_consume() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let v = w.register_view(wounded_query());
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 1.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_changelog(v).entered, vec![a]);
        assert_eq!(w.view_changelog(v).entered, vec![a], "peek is repeatable");
        assert_eq!(w.take_view_changelog(v).entered, vec![a]);
        assert!(w.view_changelog(v).is_empty(), "take clears the log");
    }

    #[test]
    fn foreign_view_handles_are_rejected() {
        let mut w1 = world_with(&[("hp", ValueType::Float)]);
        let mut w2 = world_with(&[("hp", ValueType::Float)]);
        let v1 = w1.register_view(wounded_query());
        // w2 registers a view occupying the same slot index
        let v2 = w2.register_view(Query::select());
        let e = w2.spawn_at(Vec2::ZERO);
        w2.refresh_views();
        assert_eq!(w2.view_rows(v2), &[e]);
        // a w1 handle must never resolve against w2's slot 0
        assert!(!w2.has_view(v1));
        assert!(!w2.drop_view(v1));
        assert!(
            std::panic::catch_unwind(|| w2.view_rows(v1).len()).is_err(),
            "foreign handle must panic, not read an unrelated view"
        );
        // a clone shares the lineage: pre-clone handles read the copy
        let clone = w1.clone();
        assert!(clone.has_view(v1));
    }

    #[test]
    fn view_query_is_inspectable() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let q = wounded_query();
        let v = w.register_view(q.clone());
        assert_eq!(w.view_query(v), &q);
    }
}
