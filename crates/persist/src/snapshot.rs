//! Binary world snapshots.
//!
//! A snapshot is the unit the in-memory layer periodically writes to the
//! durable backend — the paper's "only writes to the database
//! periodically". The format is length-prefixed and checksummed so a torn
//! write (crash mid-checkpoint) is detected rather than half-loaded.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{
    AggFn, EntityId, IndexKind, JoinOn, PlanNode, Pred, Query, ViewPlan, World, WorldCatalog,
};
use gamedb_spatial::Vec2;
use std::fmt;

/// Format magic + version. v2 appended the catalog (secondary indexes,
/// standing views, lineage) to the row image — recovery that restores
/// facts without the definitions deriving from them is not recovery.
/// v3 writes the schema section in **interned id order** instead of
/// name order: decoding defines columns in listed order, so the
/// recovered world's [`gamedb_core::ComponentId`] table matches the
/// snapshotted world's exactly and interned WAL-tail records decode to
/// the same columns they were recorded against. v4 appends the
/// operator-tree (plan) views of the differential view engine to the
/// catalog section, so joins and group aggregates survive recovery at
/// their exact slots. Every view is a plan now, so the catalog's older
/// query-view section is always written empty; the entries older
/// encoders put there (v2–v4) decode as scan plans at their slots, so
/// their snapshots still recover.
const MAGIC: u32 = 0x6744_4204; // "gDB" v4
const MAGIC_V3: u32 = 0x6744_4203;
const MAGIC_V2: u32 = 0x6744_4202;

/// Errors decoding a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    BadMagic(u32),
    Truncated,
    ChecksumMismatch { expected: u32, got: u32 },
    BadTypeTag(u8),
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::ChecksumMismatch { expected, got } => {
                write!(f, "checksum mismatch: expected {expected:#x}, got {got:#x}")
            }
            SnapshotError::BadTypeTag(t) => write!(f, "unknown type tag {t}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over the payload — cheap, deterministic corruption detection.
pub fn checksum(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Float => 0,
        ValueType::Int => 1,
        ValueType::Bool => 2,
        ValueType::Str => 3,
        ValueType::Vec2 => 4,
    }
}

fn tag_type(tag: u8) -> Result<ValueType, SnapshotError> {
    Ok(match tag {
        0 => ValueType::Float,
        1 => ValueType::Int,
        2 => ValueType::Bool,
        3 => ValueType::Str,
        4 => ValueType::Vec2,
        t => return Err(SnapshotError::BadTypeTag(t)),
    })
}

/// Public wrapper over the private type tag (delta encoding shares it).
pub(crate) fn type_tag_pub(ty: ValueType) -> u8 {
    type_tag(ty)
}

/// Public wrapper over the private tag decoder.
pub(crate) fn tag_type_pub(tag: u8) -> Result<ValueType, SnapshotError> {
    tag_type(tag)
}

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut Bytes) -> Result<String, SnapshotError> {
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(SnapshotError::Truncated);
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec())
        .map_err(|_| SnapshotError::Corrupt("non-utf8 string".into()))
}

/// Encode one value (type known from the schema).
pub(crate) fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Float(x) => buf.put_f32_le(*x),
        Value::Int(x) => buf.put_i64_le(*x),
        Value::Bool(b) => buf.put_u8(*b as u8),
        Value::Str(s) => put_str(buf, s),
        Value::Vec2(x, y) => {
            buf.put_f32_le(*x);
            buf.put_f32_le(*y);
        }
    }
}

/// Decode one value of a known type.
pub(crate) fn get_value(buf: &mut Bytes, ty: ValueType) -> Result<Value, SnapshotError> {
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(SnapshotError::Truncated);
            }
        };
    }
    Ok(match ty {
        ValueType::Float => {
            need!(4);
            Value::Float(buf.get_f32_le())
        }
        ValueType::Int => {
            need!(8);
            Value::Int(buf.get_i64_le())
        }
        ValueType::Bool => {
            need!(1);
            Value::Bool(buf.get_u8() != 0)
        }
        ValueType::Str => Value::Str(get_str(buf)?),
        ValueType::Vec2 => {
            need!(8);
            let x = buf.get_f32_le();
            let y = buf.get_f32_le();
            Value::Vec2(x, y)
        }
    })
}

fn op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn tag_op(tag: u8) -> Result<CmpOp, SnapshotError> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(SnapshotError::Corrupt(format!("unknown op tag {t}"))),
    })
}

pub(crate) fn kind_tag(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::Hash => 0,
        IndexKind::Sorted => 1,
    }
}

pub(crate) fn tag_kind(tag: u8) -> Result<IndexKind, SnapshotError> {
    Ok(match tag {
        0 => IndexKind::Hash,
        1 => IndexKind::Sorted,
        t => return Err(SnapshotError::Corrupt(format!("unknown index kind {t}"))),
    })
}

/// Encode a standing query: predicates, spatial restriction, exclusion
/// — the payload of a plan's scan leaf (and of the query-view catalog
/// entries and `RegisterView` WAL records older encoders wrote).
pub(crate) fn put_query(buf: &mut BytesMut, q: &Query) {
    buf.put_u32_le(q.predicates().len() as u32);
    for p in q.predicates() {
        put_str(buf, &p.component);
        buf.put_u8(op_tag(p.op));
        buf.put_u8(type_tag(p.value.value_type()));
        put_value(buf, &p.value);
    }
    match q.spatial() {
        Some((c, r)) => {
            buf.put_u8(1);
            buf.put_f32_le(c.x);
            buf.put_f32_le(c.y);
            buf.put_f32_le(r);
        }
        None => buf.put_u8(0),
    }
    match q.excluded() {
        Some(e) => {
            buf.put_u8(1);
            buf.put_u64_le(e.to_bits());
        }
        None => buf.put_u8(0),
    }
}

/// Inverse of [`put_query`].
pub(crate) fn get_query(buf: &mut Bytes) -> Result<Query, SnapshotError> {
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(SnapshotError::Truncated);
            }
        };
    }
    need!(4);
    let n_preds = buf.get_u32_le() as usize;
    let mut q = Query::select();
    for _ in 0..n_preds {
        let component = get_str(buf)?;
        need!(2);
        let op = tag_op(buf.get_u8())?;
        let ty = tag_type(buf.get_u8())?;
        let value = get_value(buf, ty)?;
        q = q.filter(component, op, value);
    }
    need!(1);
    if buf.get_u8() != 0 {
        need!(12);
        let x = buf.get_f32_le();
        let y = buf.get_f32_le();
        let r = buf.get_f32_le();
        q = q.within(Vec2::new(x, y), r);
    }
    need!(1);
    if buf.get_u8() != 0 {
        need!(8);
        q = q.excluding(EntityId::from_bits(buf.get_u64_le()));
    }
    Ok(q)
}

fn agg_tag(f: &AggFn) -> (u8, Option<&str>) {
    match f {
        AggFn::Count => (0, None),
        AggFn::Sum(c) => (1, Some(c)),
        AggFn::Min(c) => (2, Some(c)),
        AggFn::Max(c) => (3, Some(c)),
        AggFn::Avg(c) => (4, Some(c)),
        AggFn::ArgMin(c) => (5, Some(c)),
        AggFn::ArgMax(c) => (6, Some(c)),
    }
}

fn tag_agg(tag: u8, column: Option<String>) -> Result<AggFn, SnapshotError> {
    let col = || column.ok_or_else(|| SnapshotError::Corrupt("aggregate without column".into()));
    Ok(match tag {
        0 => AggFn::Count,
        1 => AggFn::Sum(col()?),
        2 => AggFn::Min(col()?),
        3 => AggFn::Max(col()?),
        4 => AggFn::Avg(col()?),
        5 => AggFn::ArgMin(col()?),
        6 => AggFn::ArgMax(col()?),
        t => return Err(SnapshotError::Corrupt(format!("unknown aggregate tag {t}"))),
    })
}

fn put_node(buf: &mut BytesMut, node: &PlanNode) {
    match node {
        PlanNode::Scan { query, only } => {
            buf.put_u8(0);
            put_query(buf, query);
            match only {
                Some(e) => {
                    buf.put_u8(1);
                    buf.put_u64_le(e.to_bits());
                }
                None => buf.put_u8(0),
            }
        }
        PlanNode::Filter { input, pred } => {
            buf.put_u8(1);
            put_node(buf, input);
            put_str(buf, &pred.component);
            buf.put_u8(op_tag(pred.op));
            buf.put_u8(type_tag(pred.value.value_type()));
            put_value(buf, &pred.value);
        }
        PlanNode::Project { input, columns } => {
            buf.put_u8(2);
            put_node(buf, input);
            buf.put_u32_le(columns.len() as u32);
            for c in columns {
                put_str(buf, c);
            }
        }
        PlanNode::Join { left, right, on } => {
            buf.put_u8(3);
            put_node(buf, left);
            put_node(buf, right);
            match on {
                JoinOn::Eq { left, right } => {
                    buf.put_u8(0);
                    put_str(buf, left);
                    put_str(buf, right);
                }
                JoinOn::Within { radius } => {
                    buf.put_u8(1);
                    buf.put_f32_le(*radius);
                }
            }
        }
        PlanNode::GroupAggregate {
            input,
            group_by,
            agg,
        } => {
            buf.put_u8(4);
            put_node(buf, input);
            match group_by {
                Some(g) => {
                    buf.put_u8(1);
                    put_str(buf, g);
                }
                None => buf.put_u8(0),
            }
            let (tag, col) = agg_tag(agg);
            buf.put_u8(tag);
            if let Some(c) = col {
                put_str(buf, c);
            }
        }
    }
}

fn get_node(buf: &mut Bytes, depth: usize) -> Result<PlanNode, SnapshotError> {
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(SnapshotError::Truncated);
            }
        };
    }
    // Parsed from disk: a corrupt length must not recurse unboundedly.
    if depth >= gamedb_core::dvm::MAX_PLAN_DEPTH {
        return Err(SnapshotError::Corrupt("plan exceeds depth bound".into()));
    }
    need!(1);
    Ok(match buf.get_u8() {
        0 => {
            let query = get_query(buf)?;
            need!(1);
            let only = if buf.get_u8() != 0 {
                need!(8);
                Some(EntityId::from_bits(buf.get_u64_le()))
            } else {
                None
            };
            PlanNode::Scan { query, only }
        }
        1 => {
            let input = Box::new(get_node(buf, depth + 1)?);
            let component = get_str(buf)?;
            need!(2);
            let op = tag_op(buf.get_u8())?;
            let ty = tag_type(buf.get_u8())?;
            let value = get_value(buf, ty)?;
            PlanNode::Filter {
                input,
                pred: Pred::new(component, op, value),
            }
        }
        2 => {
            let input = Box::new(get_node(buf, depth + 1)?);
            need!(4);
            let n = buf.get_u32_le() as usize;
            let mut columns = Vec::with_capacity(bounded_capacity(n, buf, 4));
            for _ in 0..n {
                columns.push(get_str(buf)?);
            }
            PlanNode::Project { input, columns }
        }
        3 => {
            let left = Box::new(get_node(buf, depth + 1)?);
            let right = Box::new(get_node(buf, depth + 1)?);
            need!(1);
            let on = match buf.get_u8() {
                0 => JoinOn::Eq {
                    left: get_str(buf)?,
                    right: get_str(buf)?,
                },
                1 => {
                    need!(4);
                    JoinOn::Within {
                        radius: buf.get_f32_le(),
                    }
                }
                t => return Err(SnapshotError::Corrupt(format!("unknown join tag {t}"))),
            };
            PlanNode::Join { left, right, on }
        }
        4 => {
            let input = Box::new(get_node(buf, depth + 1)?);
            need!(1);
            let group_by = if buf.get_u8() != 0 {
                Some(get_str(buf)?)
            } else {
                None
            };
            need!(1);
            let tag = buf.get_u8();
            let column = if tag != 0 { Some(get_str(buf)?) } else { None };
            PlanNode::GroupAggregate {
                input,
                group_by,
                agg: tag_agg(tag, column)?,
            }
        }
        t => return Err(SnapshotError::Corrupt(format!("unknown plan node tag {t}"))),
    })
}

/// Encode an operator-tree view plan. Shared by the snapshot catalog
/// section and the WAL's `RegisterPlanView` record.
pub(crate) fn put_plan(buf: &mut BytesMut, plan: &ViewPlan) {
    put_node(buf, &plan.root);
}

/// Inverse of [`put_plan`]. Structural validity (operator nesting,
/// column visibility) is re-checked by the core when the plan is
/// re-registered, so corruption surfaces as a registration error, not
/// undefined view state.
pub(crate) fn get_plan(buf: &mut Bytes) -> Result<ViewPlan, SnapshotError> {
    Ok(ViewPlan::new(get_node(buf, 0)?))
}

/// Capacity to reserve for `n` decoded items of at least `min_item`
/// encoded bytes each. Counts read from disk or the wire are untrusted:
/// the reservation never exceeds what the bytes left in `buf` could
/// hold, so a hostile count fails with [`SnapshotError::Truncated`] at
/// the first missing item instead of aborting on the allocation.
pub(crate) fn bounded_capacity(n: usize, buf: &Bytes, min_item: usize) -> usize {
    n.min(buf.remaining() / min_item.max(1))
}

/// Encode a world catalog (without lineage/tick, which the snapshot
/// header already carries). Shared with the delta format, which
/// carries the catalog wholesale per checkpoint — definitions are tiny
/// next to rows, and "diffing" them would buy complexity, not bytes.
/// The query-view section older encoders filled is written empty: every
/// view goes in the plan section.
pub(crate) fn put_catalog(buf: &mut BytesMut, cat: &WorldCatalog) {
    buf.put_u32_le(cat.indexes.len() as u32);
    for (component, kind) in &cat.indexes {
        put_str(buf, component);
        buf.put_u8(kind_tag(*kind));
    }
    buf.put_u32_le(cat.view_slots);
    buf.put_u32_le(0); // query-view section
    buf.put_u32_le(cat.plan_views.len() as u32);
    for (slot, plan) in &cat.plan_views {
        buf.put_u32_le(*slot);
        put_plan(buf, plan);
    }
}

/// Inverse of [`put_catalog`], also for the older layouts: query-view
/// entries lower to scan plans at their slots, and `with_plans: false`
/// (v2/v3 snapshots) reads no plan section.
pub(crate) fn get_catalog(
    buf: &mut Bytes,
    lineage: u64,
    tick: u64,
    with_plans: bool,
) -> Result<WorldCatalog, SnapshotError> {
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(SnapshotError::Truncated);
            }
        };
    }
    need!(4);
    let n_indexes = buf.get_u32_le() as usize;
    let mut indexes = Vec::with_capacity(bounded_capacity(n_indexes, buf, 5));
    for _ in 0..n_indexes {
        let name = get_str(buf)?;
        need!(1);
        indexes.push((name, tag_kind(buf.get_u8())?));
    }
    need!(8);
    let view_slots = buf.get_u32_le();
    let n_views = buf.get_u32_le() as usize;
    let mut plan_views = Vec::with_capacity(bounded_capacity(n_views, buf, 10));
    for _ in 0..n_views {
        need!(4);
        let slot = buf.get_u32_le();
        plan_views.push((slot, ViewPlan::scan(get_query(buf)?)));
    }
    if with_plans {
        need!(4);
        let n_plans = buf.get_u32_le() as usize;
        for _ in 0..n_plans {
            need!(4);
            let slot = buf.get_u32_le();
            plan_views.push((slot, get_plan(buf)?));
        }
    }
    plan_views.sort_by_key(|(slot, _)| *slot);
    Ok(WorldCatalog {
        lineage,
        tick,
        indexes,
        view_slots,
        plan_views,
    })
}

/// Serialize a world: header, schema, entities, rows, checksum.
///
/// The schema section lists components in **interned id order** (`pos`
/// first, then definition order) — this *is* the durable interner
/// table: decode re-interns in listed order, so every id the snapshot
/// lineage ever recorded (WAL tails, replication segments) resolves
/// identically after recovery.
pub fn encode(world: &World) -> Bytes {
    let mut body = BytesMut::new();
    // schema, in id order (see above)
    let schema: Vec<(String, ValueType)> = world
        .schema_by_id()
        .map(|(_, n, t)| (n.to_string(), t))
        .collect();
    body.put_u32_le(schema.len() as u32);
    for (name, ty) in &schema {
        put_str(&mut body, name);
        body.put_u8(type_tag(*ty));
    }
    // entities
    let entities: Vec<EntityId> = world.entities().collect();
    body.put_u32_le(entities.len() as u32);
    for e in &entities {
        body.put_u64_le(e.to_bits());
    }
    // rows: per entity, count + (schema index, value)
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
    // catalog: index definitions + standing views
    put_catalog(&mut body, &world.export_catalog());
    // frame: magic, tick, lineage, len, body, checksum
    let mut out = BytesMut::with_capacity(body.len() + 28);
    out.put_u32_le(MAGIC);
    out.put_u64_le(world.tick());
    out.put_u64_le(world.lineage());
    out.put_u32_le(body.len() as u32);
    let cksum = checksum(&body);
    out.put_slice(&body);
    out.put_u32_le(cksum);
    out.freeze()
}

/// Deserialize a world — rows *and* catalog: secondary indexes are
/// rebuilt (backfilled), standing views re-materialize at their original
/// slots with empty changelogs, and the lineage and tick counter are
/// restored into the world (the returned tick equals `world.tick()`).
pub fn decode(data: &[u8]) -> Result<(World, u64), SnapshotError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 24 {
        return Err(SnapshotError::Truncated);
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC && magic != MAGIC_V3 && magic != MAGIC_V2 {
        return Err(SnapshotError::BadMagic(magic));
    }
    let tick = buf.get_u64_le();
    let lineage = buf.get_u64_le();
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len + 4 {
        return Err(SnapshotError::Truncated);
    }
    let body = buf.copy_to_bytes(len);
    let expected = buf.get_u32_le();
    let got = checksum(&body);
    if expected != got {
        return Err(SnapshotError::ChecksumMismatch { expected, got });
    }

    let mut buf = body;
    let mut world = World::new();
    // schema
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let n_schema = buf.get_u32_le() as usize;
    let mut schema = Vec::with_capacity(bounded_capacity(n_schema, &buf, 5));
    for _ in 0..n_schema {
        let name = get_str(&mut buf)?;
        if buf.remaining() < 1 {
            return Err(SnapshotError::Truncated);
        }
        let ty = tag_type(buf.get_u8())?;
        if name != gamedb_core::POS {
            world
                .define_component(&name, ty)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        }
        schema.push((name, ty));
    }
    // entities
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let n_entities = buf.get_u32_le() as usize;
    let mut entities = Vec::with_capacity(bounded_capacity(n_entities, &buf, 8));
    for _ in 0..n_entities {
        if buf.remaining() < 8 {
            return Err(SnapshotError::Truncated);
        }
        let id = EntityId::from_bits(buf.get_u64_le());
        world
            .restore_entity(id)
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        entities.push(id);
    }
    // rows
    for &e in &entities {
        if buf.remaining() < 4 {
            return Err(SnapshotError::Truncated);
        }
        let n_rows = buf.get_u32_le() as usize;
        for _ in 0..n_rows {
            if buf.remaining() < 4 {
                return Err(SnapshotError::Truncated);
            }
            let idx = buf.get_u32_le() as usize;
            let (name, ty) = schema
                .get(idx)
                .ok_or_else(|| SnapshotError::Corrupt(format!("schema index {idx}")))?;
            let value = get_value(&mut buf, *ty)?;
            world
                .set(e, name, value)
                .map_err(|err| SnapshotError::Corrupt(err.to_string()))?;
        }
    }
    // catalog: rebuild indexes and views over the restored rows, adopt
    // the recorded lineage and tick
    let catalog = get_catalog(&mut buf, lineage, tick, magic == MAGIC)?;
    world
        .import_catalog(&catalog)
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    Ok((world, tick))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamedb_spatial::Vec2;

    fn sample_world() -> World {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("name", ValueType::Str).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        w.define_component("alive", ValueType::Bool).unwrap();
        for i in 0..20 {
            let e = w.spawn_at(Vec2::new(i as f32, -(i as f32)));
            w.set_f32(e, "hp", 10.0 * i as f32).unwrap();
            w.set(e, "name", Value::Str(format!("npc-{i}"))).unwrap();
            w.set(e, "gold", Value::Int(i as i64 * 7)).unwrap();
            w.set(e, "alive", Value::Bool(i % 2 == 0)).unwrap();
        }
        // holes in the id space exercise generation restore
        let victims: Vec<EntityId> = w.entities().skip(3).step_by(5).collect();
        for v in victims {
            w.despawn(v);
        }
        w
    }

    #[test]
    fn roundtrip_preserves_rows_and_ids() {
        let w = sample_world();
        let bytes = encode(&w);
        let (w2, _) = decode(&bytes).unwrap();
        assert_eq!(w.rows(), w2.rows());
        assert_eq!(w.len(), w2.len());
        let ids1: Vec<EntityId> = w.entities().collect();
        let ids2: Vec<EntityId> = w2.entities().collect();
        assert_eq!(ids1, ids2, "ids (with generations) must survive");
    }

    #[test]
    fn roundtrip_preserves_spatial_index() {
        let w = sample_world();
        let (w2, _) = decode(&encode(&w)).unwrap();
        let mut out1 = vec![];
        let mut out2 = vec![];
        w.within(Vec2::new(5.0, -5.0), 3.0, &mut out1);
        w2.within(Vec2::new(5.0, -5.0), 3.0, &mut out2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn tick_counter_roundtrips() {
        let w = sample_world();
        let bytes = encode(&w);
        let (_, tick) = decode(&bytes).unwrap();
        assert_eq!(tick, w.tick());
    }

    #[test]
    fn truncation_detected() {
        let w = sample_world();
        let bytes = encode(&w);
        for cut in [0, 3, 15, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::ChecksumMismatch { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let w = sample_world();
        let mut bytes = encode(&w).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }));
    }

    #[test]
    fn bad_magic_detected() {
        let w = sample_world();
        let mut bytes = encode(&w).to_vec();
        bytes[0] ^= 0x55;
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            SnapshotError::BadMagic(_)
        ));
    }

    #[test]
    fn empty_world_roundtrips() {
        let w = World::new();
        let (w2, _) = decode(&encode(&w)).unwrap();
        assert!(w2.is_empty());
    }

    #[test]
    fn catalog_roundtrips_indexes_views_lineage_and_tick() {
        use gamedb_content::CmpOp;
        let mut w = sample_world();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w.create_index("name", IndexKind::Hash).unwrap();
        let dropped = w.register_view(Query::select());
        let wounded =
            w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(100.0)));
        let first = w.entities().next().unwrap();
        let near = w.register_view(
            Query::select()
                .within(Vec2::new(5.0, -5.0), 8.0)
                .excluding(first),
        );
        w.drop_view(dropped);
        w.refresh_views();

        let (w2, _) = decode(&encode(&w)).unwrap();
        assert_eq!(w2.lineage(), w.lineage());
        assert_eq!(w2.tick(), w.tick());
        assert_eq!(
            w2.indexed_components().collect::<Vec<_>>(),
            w.indexed_components().collect::<Vec<_>>()
        );
        // pre-encode handles resolve against the decoded world
        for v in [wounded, near] {
            assert!(w2.has_view(v));
            assert_eq!(w2.view_rows(v), w.view_rows(v));
            assert_eq!(w2.view_query(v), w.view_query(v));
            assert!(w2.view_changelog(v).is_empty(), "changelogs re-anchor");
        }
        assert!(!w2.has_view(dropped), "burned slots stay burned");
        assert_eq!(w2.export_catalog(), w.export_catalog());
        // probe equivalence on the rebuilt index
        let q = Query::select().filter("hp", CmpOp::Ge, Value::Float(50.0));
        assert_eq!(q.run(&w2), q.run_scan(&w2));
        assert_eq!(q.run(&w2), q.run(&w));
    }

    #[test]
    fn decoded_views_stay_live_under_new_writes() {
        use gamedb_content::CmpOp;
        let mut w = sample_world();
        let v = w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(25.0)));
        let (mut w2, _) = decode(&encode(&w)).unwrap();
        let e = w2.entities().next().unwrap();
        w2.set_f32(e, "hp", 1.0).unwrap();
        w2.refresh_views();
        assert!(w2.view_contains(v, e), "restored view tracks new writes");
        assert_eq!(
            w2.view_rows(v).to_vec(),
            w2.view_query(v).run_scan(&w2),
            "restored view agrees with the scan oracle"
        );
    }

    #[test]
    fn plan_views_roundtrip_and_stay_live() {
        use gamedb_content::CmpOp;
        let mut w = sample_world();
        w.define_component("team", ValueType::Int).unwrap();
        for (i, e) in w.entities().collect::<Vec<_>>().into_iter().enumerate() {
            w.set(e, "team", Value::Int((i % 3) as i64)).unwrap();
        }
        let join = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select().filter("alive", CmpOp::Eq, Value::Bool(true))),
                PlanNode::scan(Query::select()),
                JoinOn::Eq {
                    left: "team".into(),
                    right: "team".into(),
                },
            ))
            .unwrap();
        let wealth = w
            .register_view_plan(
                Query::select()
                    .into_grouped_plan("team", AggFn::Sum("gold".into()))
                    .unwrap(),
            )
            .unwrap();

        let (mut w2, _) = decode(&encode(&w)).unwrap();
        assert_eq!(w2.view_plan(join), w.view_plan(join));
        assert_eq!(w2.view_pairs(join), w.view_pairs(join));
        assert_eq!(w2.view_groups(wealth), w.view_groups(wealth));
        assert_eq!(w2.export_catalog(), w.export_catalog());

        // restored operator trees keep maintaining incrementally
        let e = w2.entities().next().unwrap();
        w2.set(e, "gold", Value::Int(10_000)).unwrap();
        w2.refresh_views();
        assert_eq!(
            w2.view_output(wealth),
            w2.view_plan(wealth).unwrap().evaluate(&w2).unwrap(),
            "restored group view agrees with forced recompute"
        );
        assert_eq!(
            w2.view_output(join),
            w2.view_plan(join).unwrap().evaluate(&w2).unwrap(),
            "restored join view agrees with forced recompute"
        );
    }

    #[test]
    fn legacy_v3_snapshots_still_decode() {
        use gamedb_content::CmpOp;
        let mut w = sample_world();
        let v = w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(100.0)));
        w.refresh_views();
        // the v3 layout: query-view catalog entries, no plan section
        let legacy = crate::compat::encode_legacy(&w, MAGIC_V3);
        let (w2, tick) = decode(&legacy).unwrap();
        assert_eq!(tick, w.tick());
        assert_eq!(w2.rows(), w.rows());
        assert_eq!(w2.view_rows(v), w.view_rows(v));
        assert_eq!(w2.export_catalog(), w.export_catalog());
    }

    /// A checksum-valid body whose counts claim more items than its
    /// bytes could hold must fail with an error, never reserve memory
    /// for the claim (a `u32::MAX` schema count used to abort the
    /// process on a 100+ GB allocation).
    #[test]
    fn hostile_counts_fail_closed() {
        let frame = |body: &[u8]| {
            let mut out = BytesMut::new();
            out.put_u32_le(MAGIC);
            out.put_u64_le(0);
            out.put_u64_le(0);
            out.put_u32_le(body.len() as u32);
            out.put_slice(body);
            out.put_u32_le(checksum(body));
            out.to_vec()
        };
        let huge_schema = u32::MAX.to_le_bytes();
        assert_eq!(decode(&frame(&huge_schema)).unwrap_err(), SnapshotError::Truncated);
        // an empty schema, then a huge entity count
        let mut huge_entities = 0u32.to_le_bytes().to_vec();
        huge_entities.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&frame(&huge_entities)).unwrap_err(), SnapshotError::Truncated);
        // a valid row image, then a catalog with huge index/view counts
        let body = encode(&World::new());
        let rows = &body[24..body.len() - 4];
        let catalog_at = rows.len() - 16; // 4 counts + view_slots
        for field in [0usize, 8, 12] {
            let mut hostile = rows.to_vec();
            hostile[catalog_at + field..catalog_at + field + 4]
                .copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode(&frame(&hostile)).is_err(), "catalog field at +{field}");
        }
    }

    #[test]
    fn restored_ids_stay_valid_for_new_spawns() {
        let w = sample_world();
        let (mut w2, _) = decode(&encode(&w)).unwrap();
        // spawning after recovery must not collide with restored ids
        let fresh = w2.spawn_at(Vec2::ZERO);
        assert!(w2.is_live(fresh));
        assert_eq!(w2.len(), w.len() + 1);
    }
}
