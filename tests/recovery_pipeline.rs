//! Cross-crate recovery pipeline: after a crash, the persistence layer
//! hands back a world whose catalog — secondary indexes and standing
//! views — survived, and every subscriber class (designer-trigger
//! watcher, exploit auditor, aggro candidate view, interest-bubble
//! replicator) re-attaches to its recovered view instead of registering
//! a duplicate or silently losing its subscription.

use gamedb::content::{gdml, CmpOp, TriggerSet, Value, ValueType};
use gamedb::core::{IndexKind, Query, World};
use gamedb::persist::{decode, encode, temp_dir, Backend, WalStore};
use gamedb::spatial::Vec2;
use gamedb::sync::{Auditor, CandidateView, ConsistencyLevel, Interest, Replica, Replicator};
use gamedb::ThresholdWatcher;

fn triggers() -> TriggerSet {
    TriggerSet::from_gdml(
        &gdml::parse(
            r#"<triggers>
                 <trigger id="low_hp" event="stat_below" component="hp" threshold="20">
                   <action kind="emit" event="flee"/>
                 </trigger>
               </triggers>"#,
        )
        .unwrap(),
    )
    .unwrap()
}

/// The watcher's standing views survive WAL recovery; a re-attached
/// watcher neither double-fires pre-crash crossings nor misses new ones,
/// and the recovered tick counter keeps crossing bookkeeping coherent.
#[test]
fn threshold_watcher_survives_crash_without_refiring() {
    let mut world = World::new();
    world.define_component("hp", ValueType::Float).unwrap();
    let mut trig = triggers();
    let backend = Backend::open(temp_dir("recovery-watcher")).unwrap();
    let mut store = WalStore::new(world, backend, 1).unwrap();

    // route the watcher's view THROUGH the store so it is committed to
    // the log; the watcher then adopts it (identical query)
    let watch_query = Query::select().filter("hp", CmpOp::Lt, Value::Float(20.0));
    store.ensure_view(watch_query.clone()).unwrap();
    let watcher = ThresholdWatcher::reattach(store.world_mut(), &trig);
    assert_eq!(watcher.len(), 1);

    let a = store.world_mut().spawn_at(Vec2::ZERO);
    let b = store.world_mut().spawn_at(Vec2::new(5.0, 0.0));
    store.world_mut().set(a, "hp", Value::Float(100.0)).unwrap();
    store.world_mut().set(b, "hp", Value::Float(100.0)).unwrap();
    // a crosses before the crash, and its firing is consumed
    store.world_mut().set(a, "hp", Value::Float(5.0)).unwrap();
    let t = store.world().tick();
    store.world_mut().advance_tick_to(t + 1);
    store.commit().unwrap();
    let fired = watcher.pump(store.world_mut(), &mut trig);
    assert_eq!(fired.len(), 1, "pre-crash crossing fires once");

    let tick_before = store.world().tick();
    let (mut store, _) = store.crash_and_recover().unwrap();
    assert_eq!(store.world().tick(), tick_before, "tick recovers exactly");

    // a fresh process re-attaches: same view, already-below rows are
    // materialization, not crossings — nothing re-fires
    let mut trig2 = triggers();
    let watcher2 = ThresholdWatcher::reattach(store.world_mut(), &trig2);
    assert_eq!(watcher2.len(), 1);
    assert_eq!(
        store.world().view_ids().len(),
        1,
        "re-attach must not register a duplicate view"
    );
    let refired = watcher2.pump(store.world_mut(), &mut trig2);
    assert!(refired.is_empty(), "recovered crossings must not double-fire");

    // but a genuinely new crossing after recovery fires exactly once
    store.world_mut().set(b, "hp", Value::Float(1.0)).unwrap();
    let t = store.world().tick();
    store.world_mut().advance_tick_to(t + 1);
    store.commit().unwrap();
    let fired = watcher2.pump(store.world_mut(), &mut trig2);
    assert_eq!(fired.len(), 1, "post-recovery crossings fire normally");
    assert_eq!(fired[0].0, b);
}

/// The auditor's `gold < 0` view survives a snapshot round-trip and a
/// fresh auditor adopts it rather than registering a second one.
#[test]
fn auditor_reattaches_to_recovered_overdraft_view() {
    let mut w = World::new();
    w.define_component("gold", ValueType::Int).unwrap();
    let e = w.spawn_at(Vec2::ZERO);
    w.set(e, "gold", Value::Int(-5)).unwrap();
    let mut auditor = Auditor::new(10.0);
    auditor.subscribe_overdrafts(&mut w);
    assert_eq!(w.view_ids().len(), 1);

    let (mut recovered, _) = decode(&encode(&w)).unwrap();
    let mut auditor2 = Auditor::new(10.0);
    auditor2.subscribe_overdrafts(&mut recovered);
    assert_eq!(
        recovered.view_ids().len(),
        1,
        "the recovered view is adopted, not duplicated"
    );
    let before = auditor2.snapshot(&recovered);
    let report = auditor2.audit_tick(&before, &mut recovered);
    assert_eq!(report.overdrafts, 1, "overdraft visible through the view");
}

/// A mob's aggro candidate view survives recovery; `reattach` finds it
/// by its excluded-mob fingerprint and keeps maintaining it.
#[test]
fn candidate_view_reattaches_after_recovery() {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    let mob = w.spawn_at(Vec2::ZERO);
    let prey = w.spawn_at(Vec2::new(3.0, 0.0));
    let cv = CandidateView::register(&mut w, mob, 10.0).unwrap();
    assert_eq!(cv.candidates(&w), &[prey]);

    let (mut recovered, _) = decode(&encode(&w)).unwrap();
    let cv2 = CandidateView::reattach(&mut recovered, mob, 10.0).unwrap();
    assert_eq!(cv2.view(), cv.view(), "same recovered view handle");
    assert_eq!(recovered.view_ids().len(), 1);
    assert_eq!(cv2.candidates(&recovered), &[prey]);
    // and it stays live: the prey leaves the radius
    let mut table = gamedb::sync::AggroTable::new();
    table.add_threat(prey, gamedb::sync::Role::Dps, 5.0);
    recovered.set_pos(prey, Vec2::new(100.0, 0.0)).unwrap();
    let mut cv2 = cv2;
    let log = cv2.sync(&mut recovered, &mut table);
    assert_eq!(log.exited, vec![prey]);
    assert!(table.is_empty(), "evicted from the threat table");
}

/// A replicator rebuilt after recovery adopts the surviving interest
/// view and ships the exact same replica a full-walk sync would.
#[test]
fn replicator_reattaches_interest_view_after_recovery() {
    let interest = Interest {
        center: (0.0, 0.0),
        radius: 12.0,
        margin: 2.0,
    };
    let mut w = World::new();
    w.define_component("gold", ValueType::Int).unwrap();
    w.create_index("gold", IndexKind::Sorted).unwrap();
    for i in 0..20 {
        let e = w.spawn_at(Vec2::new(i as f32 * 2.0, 0.0));
        w.set(e, "gold", Value::Int(i)).unwrap();
    }
    let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
    rep.attach_view(&mut w);
    assert_eq!(w.view_ids().len(), 1);

    let (mut recovered, _) = decode(&encode(&w)).unwrap();
    let mut rep2 = Replicator::with_interest(ConsistencyLevel::Strict, interest);
    rep2.reattach_view(&mut recovered);
    assert_eq!(
        recovered.view_ids().len(),
        1,
        "interest view adopted, not re-registered"
    );
    let mut via_view = Replica::default();
    rep2.sync_live(&mut recovered, &mut via_view);
    let mut plain = Replicator::with_interest(ConsistencyLevel::Strict, interest);
    let mut via_walk = Replica::default();
    plain.sync(&recovered, &mut via_walk);
    assert_eq!(via_view.rows, via_walk.rows, "identical replica state");
}
