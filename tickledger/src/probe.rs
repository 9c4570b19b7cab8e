//! The read side every workload runs between ticks: a seeded mix of
//! AI target selection (`nearby`), point lookups, two-sided ranges and
//! count aggregates against the live world, each timed on its own.

use std::time::Instant;

use gamedb::content::{CmpOp, Value};
use gamedb::core::{EntityId, Query, World};
use rand::rngs::StdRng;
use rand::Rng;

use crate::ledger::{Checks, Ops, Tracer};

/// Which columns a workload's queries read.
pub struct ProbeSpec {
    /// Column with a sorted index: lookups, ranges and counts probe it.
    pub sorted: &'static str,
    /// Residual filter of `nearby`, drawn per query from the focus
    /// entity (the enemy team, or a minimum balance).
    pub nearby_filter: fn(&World, EntityId) -> (&'static str, CmpOp, Value),
    pub radius: f32,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Nearby,
    Lookup,
    Range,
    Count,
}

const KINDS: [(Kind, &str); 4] = [
    (Kind::Nearby, "query.nearby"),
    (Kind::Lookup, "query.lookup"),
    (Kind::Range, "query.range"),
    (Kind::Count, "query.count"),
];

/// Latencies (µs) per query kind and over the whole mix.
#[derive(Default)]
pub struct QueryLog {
    per_kind: [Vec<f64>; 4],
    pub all_us: Vec<f64>,
    pub rows: u64,
}

impl QueryLog {
    pub fn kind_us(&self, name: &str) -> &[f64] {
        let i = KINDS
            .iter()
            .position(|(_, n)| *n == name)
            .expect("known kind");
        &self.per_kind[i]
    }
}

fn bump(v: &Value, by: f64) -> Value {
    match v {
        Value::Int(i) => Value::Int(i + by as i64),
        Value::Float(f) => Value::Float(f + by as f32),
        other => other.clone(),
    }
}

fn draw(rng: &mut StdRng, world: &World, ids: &[EntityId], spec: &ProbeSpec) -> (Kind, Query) {
    let focus = ids[rng.gen_range(0..ids.len())];
    let key = world.get(focus, spec.sorted).unwrap_or(Value::Int(0));
    let roll = rng.gen_range(0..100u32);
    match roll {
        0..=59 => {
            let (col, op, v) = (spec.nearby_filter)(world, focus);
            let center = world.pos(focus).unwrap_or_default();
            (
                Kind::Nearby,
                Query::select()
                    .within(center, spec.radius)
                    .filter(col, op, v),
            )
        }
        60..=84 => (
            Kind::Lookup,
            Query::select().filter(spec.sorted, CmpOp::Eq, key),
        ),
        85..=94 => (
            Kind::Range,
            Query::select()
                .filter(spec.sorted, CmpOp::Ge, key.clone())
                .filter(spec.sorted, CmpOp::Lt, bump(&key, 5.0)),
        ),
        _ => (
            Kind::Count,
            Query::select().filter(spec.sorted, CmpOp::Lt, key),
        ),
    }
}

/// Queries of a burst kept for checking, with what they returned.
pub struct Sampled(Vec<(Kind, Query, Vec<EntityId>, usize)>);

impl Sampled {
    /// Compare each kept query with [`Query::run_scan`]. Call before the
    /// world changes again, outside any timed region.
    pub fn verify(self, world: &World, tick: u32, checks: &mut Checks) {
        for (kind, q, mut rows, count) in self.0 {
            let mut scan = q.run_scan(world);
            if kind == Kind::Count {
                checks.check(count == scan.len(), || {
                    format!("tick {tick}: count query gave {count}, scan {}", scan.len())
                });
            } else {
                rows.sort_unstable();
                scan.sort_unstable();
                checks.check(rows == scan, || {
                    format!(
                        "tick {tick}: query returned {} rows, scan {}",
                        rows.len(),
                        scan.len()
                    )
                });
            }
        }
    }
}

/// Issue `n` queries back to back, timing each; every `verify_every`-th
/// is kept for [`Sampled::verify`].
#[allow(clippy::too_many_arguments)]
pub fn burst(
    world: &World,
    ids: &[EntityId],
    spec: &ProbeSpec,
    n: usize,
    verify_every: usize,
    rng: &mut StdRng,
    tick: u32,
    tracer: &mut Tracer,
    log: &mut QueryLog,
    ops: &mut Ops,
) -> Sampled {
    let queries: Vec<(Kind, Query)> = (0..n).map(|_| draw(rng, world, ids, spec)).collect();
    let mut sampled = Vec::new();
    for (i, (kind, q)) in queries.into_iter().enumerate() {
        let k = KINDS
            .iter()
            .position(|(kk, _)| *kk == kind)
            .expect("known kind");
        let t = Instant::now();
        let (rows, count) = tracer.span(KINDS[k].1, tick, || match kind {
            Kind::Count => (Vec::new(), q.count(world)),
            _ => {
                let r = q.run(world);
                let c = r.len();
                (r, c)
            }
        });
        let us = t.elapsed().as_secs_f64() * 1e6;
        ops.add(1);
        log.per_kind[k].push(us);
        log.all_us.push(us);
        log.rows += count as u64;
        if i % verify_every == verify_every / 2 {
            sampled.push((kind, q, rows, count));
        }
    }
    Sampled(sampled)
}
