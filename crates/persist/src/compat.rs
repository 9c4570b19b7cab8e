//! Backward-compatibility fixtures: pre-interning durable artifacts
//! must keep recovering bit-identically.
//!
//! The interned framing (ISSUE-5) changed what *new* snapshots and WAL
//! frames look like — v3 snapshots write the schema in id order, row
//! records carry varint column ids. Logs and snapshots written before
//! that (v2 snapshots with a name-ordered schema, string-named WAL
//! records under the legacy tags) still exist on disk in deployed
//! stores; recovery must decode them to the exact same world the old
//! code would have produced. These tests pin that contract with
//! byte-level fixtures:
//!
//! * a v2 snapshot assembled by a local copy of the v2 encoder,
//! * legacy WAL frames assembled both through [`CompRef::Name`]
//!   encoding (which preserves the old tags by design) and — for the
//!   hot `Set` record — from raw hand-written bytes, so the exact old
//!   layout is pinned independent of the encoder,
//! * a mixed log (legacy prefix, interned tail) — what a store looks
//!   like after an in-place upgrade without a fresh checkpoint,
//! * the durable state a pre-plan-lowering store left behind: a v4
//!   snapshot with query-view catalog entries next to its plan views,
//!   and a WAL tail with raw tag-8 `RegisterView` frames and a
//!   `RetargetView`. Every view now is an operator tree, so those
//!   entries must come back as scan plans at their original slots.

#![cfg(test)]

use bytes::{BufMut, BytesMut};
use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{
    AggFn, ComponentId, EntityId, IndexKind, PlanNode, Query, ViewPlan, World, WorldCatalog,
};
use gamedb_spatial::Vec2;

use crate::snapshot::{
    checksum, decode, kind_tag, put_plan, put_query, put_str, put_value,
};
use crate::wal::{decode_log, CompRef, WalRecord};
use crate::walstore::recover_from_parts;

const MAGIC_V2: u32 = 0x6744_4202;
const MAGIC_V4: u32 = 0x6744_4204;

/// The catalog section as encoders wrote it before every view became a
/// plan: bare scan plans (what `register_view` made) go in the
/// query-view section, every other plan in the trailing plan section,
/// which only v4 has.
fn put_legacy_catalog(buf: &mut BytesMut, cat: &WorldCatalog, with_plans: bool) {
    buf.put_u32_le(cat.indexes.len() as u32);
    for (component, kind) in &cat.indexes {
        put_str(buf, component);
        buf.put_u8(kind_tag(*kind));
    }
    buf.put_u32_le(cat.view_slots);
    let (queries, plans): (Vec<_>, Vec<_>) = cat
        .plan_views
        .iter()
        .partition(|(_, p)| matches!(p.root, PlanNode::Scan { only: None, .. }));
    buf.put_u32_le(queries.len() as u32);
    for (slot, plan) in queries {
        let PlanNode::Scan { query, .. } = &plan.root else {
            unreachable!("partitioned on bare scans")
        };
        buf.put_u32_le(*slot);
        put_query(buf, query);
    }
    if with_plans {
        buf.put_u32_le(plans.len() as u32);
        for (slot, plan) in plans {
            buf.put_u32_le(*slot);
            put_plan(buf, plan);
        }
    } else {
        assert!(plans.is_empty(), "pre-v4 layouts carry no plan views");
    }
}

/// The snapshot encoders before plan lowering, verbatim: v2 writes the
/// schema in **name** order and no plan section, v3 the schema in id
/// order, v4 adds the plan section. Then entities, rows by schema
/// index, catalog ([`put_legacy_catalog`]), checksum.
pub(crate) fn encode_legacy(world: &World, magic: u32) -> Vec<u8> {
    let type_tag = |ty: ValueType| -> u8 {
        match ty {
            ValueType::Float => 0,
            ValueType::Int => 1,
            ValueType::Bool => 2,
            ValueType::Str => 3,
            ValueType::Vec2 => 4,
        }
    };
    let mut body = BytesMut::new();
    let schema: Vec<(String, ValueType)> = if magic == MAGIC_V2 {
        world.schema().map(|(n, t)| (n.to_string(), t)).collect()
    } else {
        world.schema_by_id().map(|(_, n, t)| (n.to_string(), t)).collect()
    };
    body.put_u32_le(schema.len() as u32);
    for (name, ty) in &schema {
        put_str(&mut body, name);
        body.put_u8(type_tag(*ty));
    }
    let entities: Vec<EntityId> = world.entities().collect();
    body.put_u32_le(entities.len() as u32);
    for e in &entities {
        body.put_u64_le(e.to_bits());
    }
    for &e in &entities {
        let rows: Vec<(usize, Value)> = schema
            .iter()
            .enumerate()
            .filter_map(|(i, (name, _))| world.get(e, name).map(|v| (i, v)))
            .collect();
        body.put_u32_le(rows.len() as u32);
        for (i, v) in rows {
            body.put_u32_le(i as u32);
            put_value(&mut body, &v);
        }
    }
    put_legacy_catalog(&mut body, &world.export_catalog(), magic == MAGIC_V4);
    let mut out = BytesMut::with_capacity(body.len() + 28);
    out.put_u32_le(magic);
    out.put_u64_le(world.tick());
    out.put_u64_le(world.lineage());
    out.put_u32_le(body.len() as u32);
    let cksum = checksum(&body);
    out.put_slice(&body);
    out.put_u32_le(cksum);
    out.to_vec()
}

/// The pre-interning v2 snapshot encoder.
fn encode_v2(world: &World) -> Vec<u8> {
    encode_legacy(world, MAGIC_V2)
}

/// Wrap a record payload in the WAL frame: `len | payload | cksum`.
fn frame(payload: BytesMut) -> Vec<u8> {
    let mut framed = BytesMut::new();
    framed.put_u32_le(payload.len() as u32);
    let sum = checksum(&payload);
    framed.put_slice(&payload);
    framed.put_u32_le(sum);
    framed.to_vec()
}

/// A raw legacy `Set` frame, byte-by-byte from the old wire spec:
/// `len | tag=1 | entity | name_len | name | value_tag | value | cksum`.
fn raw_legacy_set_frame(entity: EntityId, name: &str, hp: f32) -> Vec<u8> {
    let mut payload = BytesMut::new();
    payload.put_u8(1); // TAG_SET
    payload.put_u64_le(entity.to_bits());
    payload.put_u32_le(name.len() as u32);
    payload.put_slice(name.as_bytes());
    payload.put_u8(0); // value tag: Float
    payload.put_f32_le(hp);
    frame(payload)
}

/// A raw query-view registration frame as written before plan
/// lowering: `len | tag=8 | slot | query | cksum`.
fn raw_register_view_frame(slot: u32, query: &Query) -> Vec<u8> {
    let mut payload = BytesMut::new();
    payload.put_u8(8); // TAG_REGISTER_VIEW
    payload.put_u32_le(slot);
    put_query(&mut payload, query);
    frame(payload)
}

fn sample_world() -> (World, Vec<EntityId>) {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("team", ValueType::Str).unwrap();
    w.define_component("gold", ValueType::Int).unwrap();
    let mut ids = Vec::new();
    for i in 0..6 {
        let e = w.spawn_at(Vec2::new(i as f32 * 3.0, -(i as f32)));
        w.set_f32(e, "hp", 10.0 * i as f32).unwrap();
        w.set(e, "team", Value::Str(if i % 2 == 0 { "red" } else { "blue" }.into()))
            .unwrap();
        w.set(e, "gold", Value::Int(i as i64 * 7)).unwrap();
        ids.push(e);
    }
    w.despawn(ids[3]);
    w.create_index("hp", IndexKind::Sorted).unwrap();
    w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(35.0)));
    w.advance_tick_to(9);
    (w, ids)
}

/// A v2 snapshot (name-ordered schema, no interner table) decodes to
/// the same database the old decoder produced: rows, ids, tick,
/// catalog, index probes, views.
#[test]
fn v2_snapshot_decodes_bit_identically() {
    let (w, _) = sample_world();
    let v2 = encode_v2(&w);
    let (decoded, tick) = decode(&v2).unwrap();
    assert_eq!(tick, w.tick());
    assert_eq!(decoded.rows(), w.rows());
    assert_eq!(decoded.tick(), w.tick());
    assert_eq!(decoded.lineage(), w.lineage());
    assert_eq!(decoded.export_catalog(), w.export_catalog());
    crate::crashpoint::assert_equivalent(&decoded, &w).unwrap();
}

/// v2 and v3 snapshots of one world decode to equal databases — the
/// format bump changes bytes, never meaning. (The interner tables may
/// assign different ids — v2 re-interns in name order — which is
/// invisible to every name-keyed surface and only matters to *new*
/// id-keyed WAL tails, which always follow a v3 snapshot.)
#[test]
fn v2_and_v3_snapshots_agree() {
    let (w, _) = sample_world();
    let (from_v2, _) = decode(&encode_v2(&w)).unwrap();
    let (from_v3, _) = decode(&crate::snapshot::encode(&w)).unwrap();
    assert_eq!(from_v2.rows(), from_v3.rows());
    assert_eq!(from_v2.export_catalog(), from_v3.export_catalog());
    // v3 restores the source interner verbatim
    for (id, name, ty) in w.schema_by_id() {
        assert_eq!(from_v3.component_id(name), Some(id));
        assert_eq!(from_v3.component_type(name), Some(ty));
    }
}

/// Pre-interning WAL frames — string-named records under the legacy
/// tags, including a raw hand-assembled `Set` frame — replay onto a v2
/// snapshot to the exact world the old code recovered.
#[test]
fn legacy_wal_frames_recover_bit_identically() {
    // the durable state: a v2 snapshot of the base, then legacy frames
    let mut base = World::new();
    base.define_component("hp", ValueType::Float).unwrap();
    let e0 = base.spawn_at(Vec2::ZERO);
    base.set_f32(e0, "hp", 50.0).unwrap();
    let snapshot = encode_v2(&base);

    let mut log: Vec<u8> = Vec::new();
    log.extend_from_slice(&WalRecord::CheckpointMark { seq: 0 }.encode());
    // a raw byte-level legacy Set frame (pins the old layout exactly)
    log.extend_from_slice(&raw_legacy_set_frame(e0, "hp", 12.5));
    // the rest of the legacy record family via CompRef::Name encoding
    let e1 = EntityId::from_bits(1);
    let wounded = Query::select().filter("hp", CmpOp::Lt, Value::Float(20.0));
    let records = [
        WalRecord::Spawn { entity: e1, x: 3.0, y: 4.0 },
        WalRecord::Set {
            entity: e1,
            component: "mana".into(), // legacy auto-define on replay
            value: Value::Float(9.0),
        },
        WalRecord::CreateIndex { component: "hp".into(), kind: IndexKind::Sorted },
    ];
    let tail = [
        WalRecord::RemoveComponent { entity: e1, component: "mana".into() },
        WalRecord::TickTo { tick: 4 },
        WalRecord::DropIndex { component: "hp".into() },
    ];
    for (i, r) in records.iter().chain(&tail).enumerate() {
        // legacy-form records must round-trip through the current codec
        // in legacy form (compaction re-frames decoded records)
        let bytes = r.encode();
        let (decoded, used) = decode_log(&bytes);
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, vec![r.clone()]);
        log.extend_from_slice(&bytes);
        if i + 1 == records.len() {
            // a raw query-view registration, which decodes as a scan plan
            let raw = raw_register_view_frame(0, &wounded);
            let (decoded, _) = decode_log(&raw);
            assert_eq!(
                decoded,
                vec![WalRecord::RegisterPlanView { slot: 0, plan: ViewPlan::scan(wounded.clone()) }]
            );
            log.extend_from_slice(&raw);
        }
    }

    let (recovered, seq, replayed) =
        recover_from_parts(&[(0u64, snapshot.as_slice())], &log).unwrap();
    assert_eq!((seq, replayed), (0, 8));

    // the oracle: the same history through the live write API
    let mut oracle = base;
    oracle.set_f32(e0, "hp", 12.5).unwrap();
    oracle.restore_entity(e1).unwrap();
    oracle.set_pos(e1, Vec2::new(3.0, 4.0)).unwrap();
    oracle.define_component("mana", ValueType::Float).unwrap();
    oracle.set_f32(e1, "mana", 9.0).unwrap();
    oracle.create_index("hp", IndexKind::Sorted).unwrap();
    oracle.import_plan_view_at_slot(0, ViewPlan::scan(wounded)).unwrap();
    oracle.remove_component(e1, "mana").unwrap();
    oracle.advance_tick_to(4);
    oracle.drop_index("hp");
    oracle.refresh_views();
    oracle.reset_view_changelogs();

    crate::crashpoint::assert_equivalent(&recovered, &oracle).unwrap();
}

/// The durable state of a store written before every view became an
/// operator tree: a v4 snapshot whose catalog keeps query views in its
/// query-view section (next to a group plan), and a WAL tail that
/// registers more query views with raw tag-8 frames and retargets one.
/// Recovery gives back scan plan views at the original slots — rows
/// equal to `run_scan`, the retarget applied — and the plan view.
#[test]
fn parent_v4_snapshot_and_query_view_wal_tail_recover_as_scan_plans() {
    let (mut w, ids) = sample_world();
    let bubble_q = Query::select().within(Vec2::ZERO, 4.0);
    let bubble = w.register_view(bubble_q.clone());
    let wealth = w
        .register_view_plan(ViewPlan::group_by(
            PlanNode::scan(Query::select()),
            "team",
            AggFn::Sum("gold".into()),
        ))
        .unwrap();
    let snapshot = encode_legacy(&w, MAGIC_V4);
    // the bytes really hold query-view entries: the current decoder
    // lowers them, the current encoder never writes them
    assert_ne!(snapshot, crate::snapshot::encode(&w).to_vec());

    let rich = Query::select().filter("gold", CmpOp::Ge, Value::Int(14));
    let reds = Query::select().filter("team", CmpOp::Eq, Value::Str("red".into()));
    let (rich_slot, reds_slot) = (w.export_catalog().view_slots, w.export_catalog().view_slots + 1);
    let mut log: Vec<u8> = Vec::new();
    log.extend_from_slice(&WalRecord::CheckpointMark { seq: 0 }.encode());
    log.extend_from_slice(&raw_register_view_frame(rich_slot, &rich));
    log.extend_from_slice(
        &WalRecord::Set { entity: ids[0], component: "gold".into(), value: Value::Int(99) }
            .encode(),
    );
    log.extend_from_slice(&raw_register_view_frame(reds_slot, &reds));
    log.extend_from_slice(
        &WalRecord::RetargetView { slot: bubble.slot(), x: 16.0, y: -5.0, radius: 1.5 }.encode(),
    );
    log.extend_from_slice(&WalRecord::DropView { slot: reds_slot }.encode());

    let (recovered, seq, replayed) =
        recover_from_parts(&[(0u64, snapshot.as_slice())], &log).unwrap();
    assert_eq!((seq, replayed), (0, 5));

    // the oracle: the same history through the live API
    let mut oracle = w;
    let rich_v = oracle.register_view(rich.clone());
    assert_eq!(rich_v.slot(), rich_slot);
    oracle.set(ids[0], "gold", Value::Int(99)).unwrap();
    let reds_v = oracle.register_view(reds);
    oracle.retarget_view(bubble, Vec2::new(16.0, -5.0), 1.5);
    oracle.drop_view(reds_v);
    oracle.refresh_views();
    oracle.reset_view_changelogs();
    crate::crashpoint::assert_equivalent(&recovered, &oracle).unwrap();
    assert_eq!(recovered.export_catalog(), oracle.export_catalog());

    // the pre-snapshot views and the tail's views sit at their slots
    // as scan plans, their rows equal to the scan oracle
    let moved = bubble_q.within(Vec2::new(16.0, -5.0), 1.5);
    for (slot, query) in [(bubble.slot(), &moved), (rich_slot, &rich)] {
        let v = recovered.view_id_at(slot).expect("view recovered at its slot");
        assert_eq!(recovered.view_plan(v), Some(&ViewPlan::scan(query.clone())));
        assert_eq!(recovered.view_rows(v), query.run_scan(&recovered));
    }
    assert_eq!(recovered.view_rows(bubble), &[ids[5]], "the retarget was applied");
    assert!(recovered.view_contains(rich_v, ids[0]));
    assert!(recovered.view_id_at(reds_slot).is_none(), "dropped slot stays dropped");
    assert_eq!(recovered.view_output(wealth), oracle.view_output(wealth));
}

/// The in-place-upgrade shape: a legacy log tail continued by the new
/// code (interned frames with `Define` records) after recovery from a
/// v2 snapshot. The mixed log must replay end-to-end.
#[test]
fn mixed_legacy_and_interned_log_replays() {
    let mut base = World::new();
    base.define_component("hp", ValueType::Float).unwrap();
    let e = base.spawn_at(Vec2::ZERO);
    base.set_f32(e, "hp", 1.0).unwrap();
    let snapshot = encode_v2(&base);

    // what the upgraded process's interner looks like after recovering
    // that v2 snapshot: name-order re-interning
    let (upgraded, _) = decode(&snapshot).unwrap();
    let hp = upgraded.component_id("hp").unwrap();
    let next = ComponentId::from_u32(upgraded.component_count() as u32);

    let mut log: Vec<u8> = Vec::new();
    log.extend_from_slice(&WalRecord::CheckpointMark { seq: 0 }.encode());
    // legacy prefix (written before the upgrade)
    log.extend_from_slice(&raw_legacy_set_frame(e, "hp", 33.0));
    // interned tail (written after): Define precedes first id use
    for r in [
        WalRecord::Set {
            entity: e,
            component: CompRef::Id(hp),
            value: Value::Float(44.0),
        },
        WalRecord::Define {
            component: next,
            name: "rage".into(),
            ty: ValueType::Int,
        },
        WalRecord::Set {
            entity: e,
            component: CompRef::Id(next),
            value: Value::Int(7),
        },
    ] {
        log.extend_from_slice(&r.encode());
    }

    let (recovered, _, replayed) =
        recover_from_parts(&[(0u64, snapshot.as_slice())], &log).unwrap();
    assert_eq!(replayed, 4);
    assert_eq!(recovered.get_f32(e, "hp"), Some(44.0));
    assert_eq!(recovered.get_i64(e, "rage"), Some(7));
    assert_eq!(recovered.component_id("rage"), Some(next));
}

/// Interned frames are strictly smaller than their legacy string
/// counterparts — the record-size claim at the wire level.
#[test]
fn interned_frames_shrink_encoded_records() {
    let e = EntityId::from_bits(5);
    let hp = ComponentId::from_u32(1);
    for (interned, legacy) in [
        (
            WalRecord::Set { entity: e, component: CompRef::Id(hp), value: Value::Float(1.0) },
            WalRecord::Set { entity: e, component: "hp".into(), value: Value::Float(1.0) },
        ),
        (
            WalRecord::RemoveComponent { entity: e, component: CompRef::Id(hp) },
            WalRecord::RemoveComponent { entity: e, component: "hp".into() },
        ),
        (
            WalRecord::CreateIndex { component: CompRef::Id(hp), kind: IndexKind::Sorted },
            WalRecord::CreateIndex { component: "hp".into(), kind: IndexKind::Sorted },
        ),
        (
            WalRecord::DropIndex { component: CompRef::Id(hp) },
            WalRecord::DropIndex { component: "hp".into() },
        ),
    ] {
        assert!(
            interned.encode().len() < legacy.encode().len(),
            "{interned:?} must encode smaller than {legacy:?}"
        );
    }
}
