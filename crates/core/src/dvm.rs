//! Differential view maintenance: the standing-view engine.
//!
//! Every recurring question a game asks of its state — "who is below a
//! health threshold", "who is in my interest bubble", "guild wealth
//! leaderboard", "players near any flagged mob" — is registered as a
//! relational **operator tree** ([`ViewPlan`]) and maintained by
//! per-operator delta rules in the DBSP / Z-set style: every operator
//! consumes its input's delta batch — rows carried with ±1 multiplicity
//! — and emits its own, folded from the world's change-stream segments.
//! A plain [`Query`] view ([`crate::world::World::register_view`]) is
//! the one-operator tree `ViewPlan::scan(query)`.
//!
//! ## Operator taxonomy
//!
//! * [`PlanNode::Scan`] — the leaf: a standing [`Query`] over the world,
//!   optionally pinned to one entity (`only`, the "self" side of an
//!   aggro join).
//! * [`PlanNode::Filter`] / [`PlanNode::Project`] — entity-keyed row
//!   transforms. They are **fused into their scan at compile time**: a
//!   `Scan → Filter* → Project*` chain compiles to one [`Source`] whose
//!   membership test is the conjunction of every predicate and whose
//!   stored tuple carries exactly the columns downstream operators read.
//!   Fusion keeps the hot path one hash probe + one membership check per
//!   candidate instead of one allocation per operator per delta.
//! * **Rows** — a plan whose root is such a chain materializes entity
//!   rows. It keeps only a sorted id vector (no tuples: nothing
//!   downstream reads them), tests candidates with the pre-resolved
//!   [`Query::matcher`], and is the one operator with a **cost-based
//!   rescan fallback**: when a batch touches more candidate rows than
//!   the planner expects a fresh evaluation to cost (churn large
//!   relative to view selectivity), the refresh runs the planner's
//!   access path ([`crate::planner::plan`]) and diffs the result — same
//!   changelog, better complexity. [`crate::world::World::retarget_view`]
//!   rewrites the scan's `within` disk in the stored plan and
//!   rescan-diffs the same way.
//! * [`PlanNode::Join`] — binary, over two source chains. Equi-joins
//!   ([`JoinOn::Eq`]) key both sides in the same coercion domain the
//!   secondary indexes use ([`crate::index::IndexKey`]), so `Int 3`
//!   joins `Float 3.0`. Spatial-radius joins ([`JoinOn::Within`]) pair
//!   rows within `radius` of each other via per-side uniform cell maps
//!   (cell edge = radius, 9-cell probe). Self-pairs (`l == r`) are
//!   excluded.
//! * [`PlanNode::GroupAggregate`] — group rows by an optional column and
//!   fold [`AggFn`] over each group. `count`/`sum`/`avg` maintain O(1)
//!   running state; `min`/`max` keep a per-group ordered multiset so a
//!   retraction of the current extreme **retracts-and-recomputes** from
//!   the next element instead of rescanning the base table (counted in
//!   `view.op_group.retract_recomputes`).
//!
//! ## Delta rules
//!
//! A source turns a change-stream segment into a net per-entity delta:
//! insert (`+row`), delete (`−row`, with the *remembered* old tuple — a
//! despawn never needs a row image), or update (`−old +new`). Joins
//! apply the bilinear rule `ΔJ = ΔL ⋈ R_old  +  L_new ⋈ ΔR`
//! sequentially — left deltas probe the pre-batch right state, right
//! deltas probe the post-batch left state — accumulating pair weights
//! that cancel to the net entered/exited sets. Group aggregates fold
//! each ±row into its group's running state and diff the rebuilt group
//! table. Membership itself is always re-evaluated against the
//! *post-batch* world (never trusted from the log), so duplicate or
//! stale deltas cannot corrupt a view.
//!
//! ## Equivalence and determinism
//!
//! [`ViewPlan::evaluate`] builds the same state from a cold start — the
//! forced-recompute oracle every operator is held equal to (unit tests
//! here, `views_track_scan_oracle_under_churn` and
//! `operator_views_track_scan_oracle_under_churn` in
//! `tests/prop_core.rs`, and the persist crash-point sweep). Outputs are
//! deterministically ordered: row views by entity id, pair views by
//! `(left, right)`, group views by group key. Incremental `sum`/`avg`
//! maintain a running `f64` — exact for integer-valued columns (the
//! leaderboard case), subject to the usual float re-association drift
//! otherwise; `min`/`max`/`count` are exact for every column type. NaN
//! aggregate inputs are skipped entirely (SQL NULL semantics, shared
//! with [`crate::query::aggregate`]), and a NaN join key joins nothing.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use gamedb_content::Value;
use gamedb_spatial::Vec2;

use crate::entity::EntityId;
use crate::index::{IndexKey, OrdF64};
use crate::intern::ComponentId;
use crate::metrics::CoreMetrics;
use crate::planner::{plan, Plan, TableStats};
use crate::query::{AggFn, Pred, Query};
use crate::view::{Changelog, FoldCtx, ViewStats};
use crate::world::{CoreError, World};

/// Decode safety bound on operator-chain depth (catalog records are
/// parsed from disk; a corrupt length must not recurse unboundedly).
pub const MAX_PLAN_DEPTH: usize = 16;

/// Join condition of a [`PlanNode::Join`].
#[derive(Debug, Clone, PartialEq)]
pub enum JoinOn {
    /// Equi-join: `left.column == right.column` in the numeric-coercion
    /// domain of [`crate::query::compare`].
    Eq { left: String, right: String },
    /// Spatial-radius join: pair rows whose positions are within
    /// `radius` of each other.
    Within { radius: f32 },
}

/// One node of an operator tree. Trees are built leaf-up with the
/// combinators on [`PlanNode`] / [`ViewPlan`] and are plain data —
/// serializable into the durable catalog by the persist crate.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Leaf: a standing query over the world, optionally pinned to a
    /// single entity (`only`) — the "self" side of an aggro join.
    Scan { query: Query, only: Option<EntityId> },
    /// Selection: keep rows passing `pred`.
    Filter { input: Box<PlanNode>, pred: Pred },
    /// Projection: narrow the visible columns to `columns`.
    Project { input: Box<PlanNode>, columns: Vec<String> },
    /// Binary join of two scan chains.
    Join {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        on: JoinOn,
    },
    /// Grouped aggregate over one scan chain. `group_by: None` is the
    /// single global group.
    GroupAggregate {
        input: Box<PlanNode>,
        group_by: Option<String>,
        agg: AggFn,
    },
}

impl PlanNode {
    /// Leaf over a standing query.
    pub fn scan(query: Query) -> PlanNode {
        PlanNode::Scan { query, only: None }
    }

    /// Leaf pinned to one entity: the row set is `{only}` intersected
    /// with the query's matches.
    pub fn scan_only(query: Query, only: EntityId) -> PlanNode {
        PlanNode::Scan {
            query,
            only: Some(only),
        }
    }

    /// Wrap in a filter.
    pub fn filtered(self, pred: Pred) -> PlanNode {
        PlanNode::Filter {
            input: Box::new(self),
            pred,
        }
    }

    /// Wrap in a projection.
    pub fn project(self, columns: Vec<String>) -> PlanNode {
        PlanNode::Project {
            input: Box::new(self),
            columns,
        }
    }
}

/// A complete operator tree, the unit the world registers, the catalog
/// persists, and recovery re-installs at its exact slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewPlan {
    /// Root operator. Public so the persist crate can encode the tree.
    pub root: PlanNode,
}

impl ViewPlan {
    /// Wrap a finished node tree.
    pub fn new(root: PlanNode) -> ViewPlan {
        ViewPlan { root }
    }

    /// One-operator plan over a standing [`Query`] — what
    /// [`crate::world::World::register_view`] registers.
    pub fn scan(query: Query) -> ViewPlan {
        ViewPlan::new(PlanNode::scan(query))
    }

    /// Join of two scan chains.
    pub fn join(left: PlanNode, right: PlanNode, on: JoinOn) -> ViewPlan {
        ViewPlan::new(PlanNode::Join {
            left: Box::new(left),
            right: Box::new(right),
            on,
        })
    }

    /// Grouped aggregate: one output row per distinct value of `column`.
    pub fn group_by(input: PlanNode, column: impl Into<String>, agg: AggFn) -> ViewPlan {
        ViewPlan::new(PlanNode::GroupAggregate {
            input: Box::new(input),
            group_by: Some(column.into()),
            agg,
        })
    }

    /// Global aggregate: a single output row over every input row.
    pub fn aggregate(input: PlanNode, agg: AggFn) -> ViewPlan {
        ViewPlan::new(PlanNode::GroupAggregate {
            input: Box::new(input),
            group_by: None,
            agg,
        })
    }

    /// Structural validation without touching a world: operator nesting,
    /// projection/column visibility, aggregate support, depth bound.
    pub fn validate(&self) -> Result<(), CoreError> {
        compile(self).map(|_| ())
    }

    /// Forced recompute from a cold start — the equivalence oracle every
    /// incrementally maintained instance of this plan is held equal to.
    pub fn evaluate(&self, world: &World) -> Result<PlanOutput, CoreError> {
        let view = PlanView::new(self.clone(), world)?;
        Ok(match view.state {
            OpState::Rows(s) => PlanOutput::Rows(s.out),
            OpState::Join(s) => PlanOutput::Pairs(s.pairs),
            OpState::Group(s) => PlanOutput::Groups(s.out),
        })
    }
}

/// One output row of a group-aggregate view: the (normalized) group key
/// — `None` for the global group — and the aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    pub key: Option<Value>,
    pub value: f64,
}

/// Materialized output of [`ViewPlan::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutput {
    /// Entity rows, ascending by id.
    Rows(Vec<EntityId>),
    /// Join pairs, ascending by `(left, right)`.
    Pairs(Vec<(EntityId, EntityId)>),
    /// Group rows, ascending by group key.
    Groups(Vec<GroupRow>),
}

impl PlanOutput {
    /// Row output, if this plan materializes entity rows.
    pub fn as_rows(&self) -> Option<&[EntityId]> {
        match self {
            PlanOutput::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// Pair output, if this plan is a join.
    pub fn as_pairs(&self) -> Option<&[(EntityId, EntityId)]> {
        match self {
            PlanOutput::Pairs(p) => Some(p),
            _ => None,
        }
    }

    /// Group output, if this plan is a grouped aggregate.
    pub fn as_groups(&self) -> Option<&[GroupRow]> {
        match self {
            PlanOutput::Groups(g) => Some(g),
            _ => None,
        }
    }
}

/// Membership changes a join view accumulated since its changelog was
/// last taken. Both vectors are sorted by `(left, right)` within each
/// refresh batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairChangelog {
    pub entered: Vec<(EntityId, EntityId)>,
    pub exited: Vec<(EntityId, EntityId)>,
}

impl PairChangelog {
    /// True when no pairs entered or exited.
    pub fn is_empty(&self) -> bool {
        self.entered.is_empty() && self.exited.is_empty()
    }
}

/// Group-level changes a group-aggregate view accumulated since its
/// changelog was last taken: groups that appeared, disappeared (with
/// their last value), or changed value (with the new value). Sorted by
/// group key within each refresh batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupChangelog {
    pub entered: Vec<GroupRow>,
    pub exited: Vec<GroupRow>,
    pub changed: Vec<GroupRow>,
}

impl GroupChangelog {
    /// True when no group appeared, disappeared, or changed value.
    pub fn is_empty(&self) -> bool {
        self.entered.is_empty() && self.exited.is_empty() && self.changed.is_empty()
    }
}

// ---------------------------------------------------------------------
// Compilation: plan → fused sources + operator kind
// ---------------------------------------------------------------------

/// A `Scan → Filter* → Project*` chain fused into one physical source:
/// membership is the conjunction of every predicate (scan + filters),
/// the stored tuple carries exactly the columns downstream consumers
/// read (`schema`), plus the position when a spatial join needs it.
#[derive(Debug, Clone)]
struct Source {
    query: Query,
    only: Option<EntityId>,
    schema: Vec<String>,
    needs_pos: bool,
}

/// Fuse the chain rooted at `node` down to its scan. `need` lists the
/// columns the consumer reads from each row; they must survive every
/// projection on the path, as must the column of any filter sitting
/// above that projection.
fn compile_source(node: &PlanNode, need: &[String], needs_pos: bool) -> Result<Source, CoreError> {
    let mut chain: Vec<&PlanNode> = Vec::new();
    let mut cur = node;
    loop {
        if chain.len() >= MAX_PLAN_DEPTH {
            return Err(CoreError::PlanInvalid("operator chain exceeds depth bound"));
        }
        match cur {
            PlanNode::Scan { .. } => break,
            PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => {
                chain.push(cur);
                cur = input;
            }
            PlanNode::Join { .. } | PlanNode::GroupAggregate { .. } => {
                return Err(CoreError::PlanInvalid(
                    "join and group-aggregate operators must be the plan root",
                ));
            }
        }
    }
    let (mut query, only) = match cur {
        PlanNode::Scan { query, only } => (query.clone(), *only),
        _ => unreachable!("loop breaks only on Scan"),
    };
    // Apply the chain in dataflow order (scan upward), tracking which
    // columns remain visible. `None` = every column.
    let mut visible: Option<BTreeSet<&str>> = None;
    for op in chain.iter().rev() {
        match op {
            PlanNode::Filter { pred, .. } => {
                if let Some(v) = &visible {
                    if !v.contains(pred.component.as_str()) {
                        return Err(CoreError::PlanInvalid(
                            "filter references a projected-away column",
                        ));
                    }
                }
                query = query.filter(pred.component.clone(), pred.op, pred.value.clone());
            }
            PlanNode::Project { columns, .. } => {
                let keep: BTreeSet<&str> = columns
                    .iter()
                    .map(|c| c.as_str())
                    .filter(|c| visible.as_ref().is_none_or(|v| v.contains(c)))
                    .collect();
                visible = Some(keep);
            }
            _ => unreachable!("chain holds only filters and projections"),
        }
    }
    if let Some(v) = &visible {
        for col in need {
            if !v.contains(col.as_str()) {
                return Err(CoreError::PlanInvalid(
                    "consumer column does not survive the projection",
                ));
            }
        }
    }
    let mut schema: Vec<String> = need.to_vec();
    schema.sort();
    schema.dedup();
    Ok(Source {
        query,
        only,
        schema,
        needs_pos,
    })
}

/// Compile a plan into its (empty) runtime state.
fn compile(plan: &ViewPlan) -> Result<OpState, CoreError> {
    match &plan.root {
        PlanNode::Join { left, right, on } => {
            let (l_src, r_src, on_c) = match on {
                JoinOn::Eq { left: lc, right: rc } => {
                    let l_src = compile_source(left, std::slice::from_ref(lc), false)?;
                    let r_src = compile_source(right, std::slice::from_ref(rc), false)?;
                    let l = l_src
                        .schema
                        .iter()
                        .position(|c| c == lc)
                        .expect("key column is in the schema it seeded");
                    let r = r_src
                        .schema
                        .iter()
                        .position(|c| c == rc)
                        .expect("key column is in the schema it seeded");
                    (l_src, r_src, JoinOnC::Eq { l, r })
                }
                JoinOn::Within { radius } => {
                    if !(radius.is_finite() && *radius > 0.0) {
                        return Err(CoreError::PlanInvalid(
                            "spatial join radius must be finite and positive",
                        ));
                    }
                    let l_src = compile_source(left, &[], true)?;
                    let r_src = compile_source(right, &[], true)?;
                    (l_src, r_src, JoinOnC::Within { radius: *radius })
                }
            };
            let mk_idx = || match on_c {
                JoinOnC::Eq { .. } => SideIndex::Keyed(HashMap::new()),
                JoinOnC::Within { radius } => SideIndex::Cells {
                    cell: radius,
                    map: HashMap::new(),
                },
            };
            Ok(OpState::Join(JoinState {
                l_idx: mk_idx(),
                r_idx: mk_idx(),
                left: SourceState::new(l_src),
                right: SourceState::new(r_src),
                on: on_c,
                pairs: Vec::new(),
                log: PairChangelog::default(),
            }))
        }
        PlanNode::GroupAggregate {
            input,
            group_by,
            agg,
        } => {
            let (kind, agg_col_name) = match agg {
                AggFn::Count => (AggKind::Count, None),
                AggFn::Sum(c) => (AggKind::Sum, Some(c.clone())),
                AggFn::Min(c) => (AggKind::Min, Some(c.clone())),
                AggFn::Max(c) => (AggKind::Max, Some(c.clone())),
                AggFn::Avg(c) => (AggKind::Avg, Some(c.clone())),
                AggFn::ArgMin(_) | AggFn::ArgMax(_) => {
                    return Err(CoreError::PlanInvalid(
                        "argmin/argmax aggregates are not supported in group-aggregate views",
                    ));
                }
            };
            let mut need: Vec<String> = Vec::new();
            if let Some(g) = group_by {
                need.push(g.clone());
            }
            if let Some(c) = &agg_col_name {
                need.push(c.clone());
            }
            let src = compile_source(input, &need, false)?;
            let key_col = group_by.as_ref().map(|g| {
                src.schema
                    .iter()
                    .position(|c| c == g)
                    .expect("group column is in the schema it seeded")
            });
            let agg_col = agg_col_name.map(|c| {
                src.schema
                    .iter()
                    .position(|s| *s == c)
                    .expect("aggregate column is in the schema it seeded")
            });
            Ok(OpState::Group(GroupState {
                source: SourceState::new(src),
                key_col,
                agg: kind,
                agg_col,
                groups: BTreeMap::new(),
                out: Vec::new(),
                out_keys: Vec::new(),
                log: GroupChangelog::default(),
                retracts: 0,
            }))
        }
        chain => {
            let src = compile_source(chain, &[], false)?;
            Ok(OpState::Rows(RowsState {
                src,
                out: Vec::new(),
                log: Changelog::default(),
            }))
        }
    }
}

// ---------------------------------------------------------------------
// Runtime: sources and their Z-set deltas
// ---------------------------------------------------------------------

/// One stored row: the schema columns (by position) plus the position
/// when a spatial join reads it. The remembered tuple is what lets a
/// retraction proceed without a row image — a despawned entity's old
/// join key / group value is read from here, never from the log.
#[derive(Debug, Clone, PartialEq)]
struct Tuple {
    cols: Vec<Option<Value>>,
    pos: Option<Vec2>,
}

/// Net ±1 delta for one entity in one batch: `(old, new)` with at least
/// one side present; both present means an in-place update (`−old +new`).
#[derive(Debug)]
struct RowDelta {
    id: EntityId,
    old: Option<Tuple>,
    new: Option<Tuple>,
}

impl Source {
    /// Interned ids of the components whose deltas can change this
    /// source's membership *or* stored tuples (sorted, deduped).
    fn tracked_ids(&self, world: &World) -> Vec<ComponentId> {
        let mut ids: Vec<ComponentId> = self
            .query
            .predicates()
            .iter()
            .filter_map(|p| world.component_id(&p.component))
            .collect();
        ids.extend(self.schema.iter().filter_map(|c| world.component_id(c)));
        if self.query.spatial().is_some() || self.needs_pos {
            ids.push(crate::world::POS_ID);
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Rows whose membership or tuple one batch may have changed: the
    /// structural deltas plus component deltas on tracked columns,
    /// restricted to the pinned entity — ascending, duplicate-free.
    fn candidates(&self, world: &World, ctx: &FoldCtx<'_>) -> Vec<EntityId> {
        let tracked = self.tracked_ids(world);
        let mut cands: Vec<EntityId> = ctx.structural.to_vec();
        let mut i = 0;
        while i < ctx.comp_deltas.len() {
            let comp = ctx.comp_deltas[i].0;
            let start = i;
            while i < ctx.comp_deltas.len() && ctx.comp_deltas[i].0 == comp {
                i += 1;
            }
            if tracked.binary_search(&comp).is_ok() {
                cands.extend(ctx.comp_deltas[start..i].iter().map(|&(_, e)| e));
            }
        }
        if let Some(o) = self.only {
            cands.retain(|&c| c == o);
        }
        cands.sort_unstable();
        cands.dedup();
        cands
    }

    /// The stored tuple of one row: the schema columns, plus the
    /// position when a spatial join reads it.
    fn read_tuple(&self, world: &World, id: EntityId) -> Tuple {
        Tuple {
            cols: self.schema.iter().map(|c| world.get(id, c)).collect(),
            pos: if self.needs_pos { world.pos(id) } else { None },
        }
    }

    /// Cold-start membership through the planner ([`Query::run`]),
    /// ascending by id.
    fn run(&self, world: &World) -> Vec<EntityId> {
        match self.only {
            Some(o) => {
                if self.query.matches(world, o) {
                    vec![o]
                } else {
                    Vec::new()
                }
            }
            None => self.query.run(world),
        }
    }
}

/// A fused source with its materialized row tuples (the input of a
/// join or group-aggregate operator).
#[derive(Debug, Clone)]
struct SourceState {
    src: Source,
    rows: HashMap<EntityId, Tuple>,
}

impl SourceState {
    fn new(src: Source) -> SourceState {
        SourceState {
            src,
            rows: HashMap::new(),
        }
    }

    /// Fold one change-stream segment into the source: each candidate's
    /// membership and tuple are re-read from the post-batch world and
    /// diffed against the stored row. Returns the net row deltas,
    /// ascending by entity id.
    fn fold(&mut self, world: &World, ctx: &FoldCtx<'_>) -> Vec<RowDelta> {
        use std::collections::hash_map::Entry;
        let cands = self.src.candidates(world, ctx);
        let matcher = self.src.query.matcher(world);
        let mut deltas = Vec::new();
        for &c in &cands {
            let delta = match (self.rows.entry(c), matcher(c)) {
                (Entry::Vacant(_), false) => None,
                (Entry::Vacant(slot), true) => {
                    let t = slot.insert(self.src.read_tuple(world, c)).clone();
                    Some((None, Some(t)))
                }
                (Entry::Occupied(slot), false) => Some((Some(slot.remove()), None)),
                (Entry::Occupied(mut slot), true) => {
                    let t = self.src.read_tuple(world, c);
                    (*slot.get() != t).then(|| {
                        let new = t.clone();
                        (Some(std::mem::replace(slot.get_mut(), t)), Some(new))
                    })
                }
            };
            if let Some((old, new)) = delta {
                deltas.push(RowDelta { id: c, old, new });
            }
        }
        deltas
    }

    /// Seed the row set from the live world (registration / recovery) —
    /// initial rows are state, not events.
    fn init(&mut self, world: &World) {
        for id in self.src.run(world) {
            let t = self.src.read_tuple(world, id);
            self.rows.insert(id, t);
        }
    }
}

// ---------------------------------------------------------------------
// Rows operator (fused scan/filter/project chain at the root)
// ---------------------------------------------------------------------

/// Apply a sorted membership diff to a sorted row set: `entered` holds
/// ids absent from `old`, `exited` ids present in it; all three inputs
/// are ascending. O(|old| + |entered|).
fn apply_diff(old: &[EntityId], entered: &[EntityId], exited: &[EntityId]) -> Vec<EntityId> {
    let mut out = Vec::with_capacity(old.len() + entered.len() - exited.len());
    let (mut e, mut x) = (0usize, 0usize);
    for &id in old {
        while e < entered.len() && entered[e] < id {
            out.push(entered[e]);
            e += 1;
        }
        if x < exited.len() && exited[x] == id {
            x += 1;
            continue;
        }
        out.push(id);
    }
    out.extend_from_slice(&entered[e..]);
    out
}

/// Diff two sorted row sets into `(entered, exited)`.
fn diff_sorted(old: &[EntityId], new: &[EntityId]) -> (Vec<EntityId>, Vec<EntityId>) {
    let mut entered = Vec::new();
    let mut exited = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(&o), Some(&n)) if o == n => {
                i += 1;
                j += 1;
            }
            (Some(&o), Some(&n)) if o < n => {
                exited.push(o);
                i += 1;
            }
            (Some(_), Some(&n)) => {
                entered.push(n);
                j += 1;
            }
            (Some(&o), None) => {
                exited.push(o);
                i += 1;
            }
            (None, Some(&n)) => {
                entered.push(n);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    (entered, exited)
}

/// A row view's whole state: the fused source and its members as a
/// sorted id vector — membership tests are binary searches, diffs are
/// merges, and subscribers borrow the slice without allocating.
#[derive(Debug, Clone)]
struct RowsState {
    src: Source,
    /// Materialized output, ascending by id.
    out: Vec<EntityId>,
    log: Changelog,
}

/// What one Rows refresh did, for the counters.
struct RowsFold {
    /// Candidate rows of the batch.
    cands: usize,
    /// Candidates passing the membership test (incremental batches).
    passed: usize,
    entered: usize,
    exited: usize,
    changed: usize,
    rescanned: bool,
}

impl RowsState {
    /// The planner's access path for a fresh evaluation of the view.
    fn planned(&self, world: &World) -> Plan {
        plan(&self.src.query, &TableStats::for_query(world, &self.src.query))
    }

    /// Replace the rows with a run of `chosen` and return the
    /// `(entered, exited)` diff against the old rows.
    fn rescan(
        &mut self,
        world: &World,
        chosen: &Plan,
        metrics: Option<&CoreMetrics>,
    ) -> (Vec<EntityId>, Vec<EntityId>) {
        if let Some(m) = metrics {
            m.note_access(&chosen.access);
        }
        let mut new_rows = chosen.run(world);
        if let Some(o) = self.src.only {
            new_rows.retain(|&e| e == o);
        }
        let diff = diff_sorted(&self.out, &new_rows);
        self.out = new_rows;
        diff
    }

    fn refresh(
        &mut self,
        world: &World,
        ctx: &FoldCtx<'_>,
        metrics: Option<&CoreMetrics>,
    ) -> RowsFold {
        let cands = self.src.candidates(world, ctx);
        let mut passed = 0usize;
        let (entered, exited, rescanned) = if cands.is_empty() {
            (Vec::new(), Vec::new(), false)
        } else {
            // Cost model, in the planner's row-visit units: incremental
            // maintenance pays one membership evaluation per candidate;
            // a rescan pays the planner's estimate for a fresh run plus
            // the diff against the current rows. When churn is large
            // relative to view selectivity the rescan wins (e.g. an
            // indexed 0.1% view under a 90% write storm). A pinned
            // source has at most one candidate and never rescans.
            let q = &self.src.query;
            let per_row =
                1.0 + q.predicates().len() as f64 + if q.spatial().is_some() { 1.0 } else { 0.0 };
            let chosen = self.planned(world);
            let rescan = self.src.only.is_none()
                && cands.len() as f64 * per_row > chosen.est_cost + self.out.len() as f64;
            if rescan {
                let (entered, exited) = self.rescan(world, &chosen, metrics);
                (entered, exited, true)
            } else {
                let matcher = self.src.query.matcher(world);
                let mut entered = Vec::new();
                let mut exited = Vec::new();
                // candidates are sorted, so entered/exited come out
                // sorted; `out` stays untouched until the diff applies.
                for &c in &cands {
                    let was = self.out.binary_search(&c).is_ok();
                    let now = matcher(c);
                    passed += now as usize;
                    if now && !was {
                        entered.push(c);
                    } else if !now && was {
                        exited.push(c);
                    }
                }
                if !entered.is_empty() || !exited.is_empty() {
                    self.out = apply_diff(&self.out, &entered, &exited);
                }
                (entered, exited, false)
            }
        };
        // `changed`: touched rows that are (still) members and did not
        // just enter — `touched` is sorted, so the output is too.
        let changed: Vec<EntityId> = ctx
            .touched
            .iter()
            .copied()
            .filter(|t| self.out.binary_search(t).is_ok() && entered.binary_search(t).is_err())
            .collect();
        let fold = RowsFold {
            cands: cands.len(),
            passed,
            entered: entered.len(),
            exited: exited.len(),
            changed: changed.len(),
            rescanned,
        };
        self.log.absorb_batch(entered, exited, changed, rescanned);
        fold
    }
}

// ---------------------------------------------------------------------
// Join operator
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum JoinOnC {
    /// Key column's position within each side's schema.
    Eq { l: usize, r: usize },
    Within { radius: f32 },
}

/// Per-side probe structure: key postings for equi-joins, a uniform
/// cell map (cell edge = radius) for spatial joins. Posting lists stay
/// sorted by id so probes return deterministic candidates.
#[derive(Debug, Clone)]
enum SideIndex {
    Keyed(HashMap<IndexKey, Vec<EntityId>>),
    Cells {
        cell: f32,
        map: HashMap<(i64, i64), Vec<EntityId>>,
    },
}

/// Join key of a value, in the same coercion domain as
/// [`crate::index::IndexKey::encode`]: ints and floats share numeric
/// keys, NaN (which `compare` rejects under every operator) has none.
fn value_key(v: &Value) -> Option<IndexKey> {
    match v {
        Value::Float(_) | Value::Int(_) => {
            v.as_number().and_then(OrdF64::new).map(IndexKey::Num)
        }
        Value::Bool(b) => Some(IndexKey::Bool(*b)),
        Value::Str(s) => Some(IndexKey::Str(s.clone())),
        Value::Vec2(x, y) if !x.is_nan() && !y.is_nan() => {
            let norm = |v: f32| if v == 0.0 { 0.0f32 } else { v };
            Some(IndexKey::Vec2([norm(*x).to_bits(), norm(*y).to_bits()]))
        }
        Value::Vec2(..) => None,
    }
}

fn eq_key(t: &Tuple, col: usize) -> Option<IndexKey> {
    t.cols[col].as_ref().and_then(value_key)
}

fn cell_of(p: Vec2, cell: f32) -> (i64, i64) {
    ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
}

fn posting_insert(list: &mut Vec<EntityId>, id: EntityId) {
    if let Err(pos) = list.binary_search(&id) {
        list.insert(pos, id);
    }
}

fn posting_remove(list: &mut Vec<EntityId>, id: EntityId) -> bool {
    match list.binary_search(&id) {
        Ok(pos) => {
            list.remove(pos);
            true
        }
        Err(_) => false,
    }
}

impl SideIndex {
    /// Fold one row delta into the index (`key_col` is this side's key
    /// position; unused for cell maps).
    fn apply(&mut self, key_col: usize, d: &RowDelta) {
        match self {
            SideIndex::Keyed(map) => {
                if let Some(k) = d.old.as_ref().and_then(|t| eq_key(t, key_col)) {
                    if let Some(list) = map.get_mut(&k) {
                        posting_remove(list, d.id);
                        if list.is_empty() {
                            map.remove(&k);
                        }
                    }
                }
                if let Some(k) = d.new.as_ref().and_then(|t| eq_key(t, key_col)) {
                    posting_insert(map.entry(k).or_default(), d.id);
                }
            }
            SideIndex::Cells { cell, map } => {
                if let Some(p) = d.old.as_ref().and_then(|t| t.pos) {
                    let c = cell_of(p, *cell);
                    if let Some(list) = map.get_mut(&c) {
                        posting_remove(list, d.id);
                        if list.is_empty() {
                            map.remove(&c);
                        }
                    }
                }
                if let Some(p) = d.new.as_ref().and_then(|t| t.pos) {
                    posting_insert(map.entry(cell_of(p, *cell)).or_default(), d.id);
                }
            }
        }
    }

    fn seed(&mut self, key_col: usize, rows: &HashMap<EntityId, Tuple>) {
        match self {
            SideIndex::Keyed(map) => {
                for (&id, t) in rows {
                    if let Some(k) = eq_key(t, key_col) {
                        posting_insert(map.entry(k).or_default(), id);
                    }
                }
            }
            SideIndex::Cells { cell, map } => {
                for (&id, t) in rows {
                    if let Some(p) = t.pos {
                        posting_insert(map.entry(cell_of(p, *cell)).or_default(), id);
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct JoinState {
    left: SourceState,
    right: SourceState,
    on: JoinOnC,
    l_idx: SideIndex,
    r_idx: SideIndex,
    /// Materialized pairs, ascending by `(left, right)`. Self-pairs are
    /// excluded.
    pairs: Vec<(EntityId, EntityId)>,
    log: PairChangelog,
}

impl JoinState {
    /// Rows of the *other* side matching tuple `t` of the probing side.
    /// `probing_left` says which side `t` belongs to; the probe runs
    /// against `idx` / `other_rows` of the opposite side. Output ids
    /// ascend (posting lists are sorted; cell probes re-sort).
    fn probe(
        on: JoinOnC,
        probing_left: bool,
        idx: &SideIndex,
        other_rows: &HashMap<EntityId, Tuple>,
        t: &Tuple,
    ) -> Vec<EntityId> {
        match (on, idx) {
            (JoinOnC::Eq { l, r }, SideIndex::Keyed(map)) => {
                let col = if probing_left { l } else { r };
                match eq_key(t, col) {
                    Some(k) => map.get(&k).cloned().unwrap_or_default(),
                    None => Vec::new(),
                }
            }
            (JoinOnC::Within { radius }, SideIndex::Cells { cell, map }) => {
                let Some(p) = t.pos else { return Vec::new() };
                let (cx, cy) = cell_of(p, *cell);
                let mut out = Vec::new();
                for dx in -1..=1i64 {
                    for dy in -1..=1i64 {
                        if let Some(ids) = map.get(&(cx + dx, cy + dy)) {
                            for &id in ids {
                                let close = other_rows
                                    .get(&id)
                                    .and_then(|o| o.pos)
                                    .is_some_and(|q| q.dist2(p) <= radius * radius);
                                if close {
                                    out.push(id);
                                }
                            }
                        }
                    }
                }
                out.sort_unstable();
                out
            }
            _ => unreachable!("index kind always matches join kind"),
        }
    }

    fn key_cols(&self) -> (usize, usize) {
        match self.on {
            JoinOnC::Eq { l, r } => (l, r),
            JoinOnC::Within { .. } => (0, 0),
        }
    }

    /// Bilinear delta rule, applied sequentially: left deltas probe the
    /// pre-batch right state, right deltas probe the post-batch left
    /// state; pair weights accumulate in ±1 steps and cancel to the net
    /// entered/exited sets. Returns `(rows_in, rows_out)`.
    fn refresh(&mut self, world: &World, ctx: &FoldCtx<'_>) -> (usize, usize) {
        let (l_col, r_col) = self.key_cols();
        // Deterministic iteration order for the weight map: pairs ascend.
        let mut weights: BTreeMap<(EntityId, EntityId), i64> = BTreeMap::new();

        // ΔL ⋈ R_old — the right source has not folded yet.
        let l_fold = self.left.fold(world, ctx);
        for d in &l_fold {
            if let Some(o) = &d.old {
                for r in Self::probe(self.on, true, &self.r_idx, &self.right.rows, o) {
                    *weights.entry((d.id, r)).or_default() -= 1;
                }
            }
            if let Some(n) = &d.new {
                for r in Self::probe(self.on, true, &self.r_idx, &self.right.rows, n) {
                    *weights.entry((d.id, r)).or_default() += 1;
                }
            }
            self.l_idx.apply(l_col, d);
        }

        // L_new ⋈ ΔR — the left side now reflects this batch.
        let r_fold = self.right.fold(world, ctx);
        for d in &r_fold {
            if let Some(o) = &d.old {
                for l in Self::probe(self.on, false, &self.l_idx, &self.left.rows, o) {
                    *weights.entry((l, d.id)).or_default() -= 1;
                }
            }
            if let Some(n) = &d.new {
                for l in Self::probe(self.on, false, &self.l_idx, &self.left.rows, n) {
                    *weights.entry((l, d.id)).or_default() += 1;
                }
            }
            self.r_idx.apply(r_col, d);
        }

        let mut entered = Vec::new();
        let mut exited = Vec::new();
        for ((l, r), w) in weights {
            if l == r {
                continue;
            }
            match w.cmp(&0) {
                std::cmp::Ordering::Greater => {
                    if let Err(pos) = self.pairs.binary_search(&(l, r)) {
                        self.pairs.insert(pos, (l, r));
                        entered.push((l, r));
                    }
                }
                std::cmp::Ordering::Less => {
                    if let Ok(pos) = self.pairs.binary_search(&(l, r)) {
                        self.pairs.remove(pos);
                        exited.push((l, r));
                    }
                }
                std::cmp::Ordering::Equal => {}
            }
        }
        let rows_out = entered.len() + exited.len();
        self.log.entered.extend(entered);
        self.log.exited.extend(exited);
        (l_fold.len() + r_fold.len(), rows_out)
    }

    /// Cold-start materialization (registration / recovery).
    fn init(&mut self, world: &World) {
        let (l_col, r_col) = self.key_cols();
        self.left.init(world);
        self.right.init(world);
        self.l_idx.seed(l_col, &self.left.rows);
        self.r_idx.seed(r_col, &self.right.rows);
        let mut pairs = Vec::new();
        for (&l, t) in &self.left.rows {
            for r in Self::probe(self.on, true, &self.r_idx, &self.right.rows, t) {
                if l != r {
                    pairs.push((l, r));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        self.pairs = pairs;
    }
}

// ---------------------------------------------------------------------
// Group-aggregate operator
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum AggKind {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// Running state of one group. `rows` counts member rows (Count's
/// answer); `vals` holds the non-NaN aggregate values as an ordered
/// multiset keyed `(value, entity)` — min/max read its ends, avg divides
/// `sum` by its length (NaN inputs are skipped, SQL NULL style).
#[derive(Debug, Clone, Default)]
struct GroupAgg {
    rows: usize,
    sum: f64,
    vals: BTreeSet<(OrdF64, EntityId)>,
}

impl GroupAgg {
    fn value(&self, kind: AggKind) -> f64 {
        match kind {
            AggKind::Count => self.rows as f64,
            AggKind::Sum => self.sum,
            AggKind::Min => self
                .vals
                .iter()
                .next()
                .map(|(v, _)| v.get())
                .unwrap_or(0.0),
            AggKind::Max => self
                .vals
                .iter()
                .next_back()
                .map(|(v, _)| v.get())
                .unwrap_or(0.0),
            AggKind::Avg => {
                if self.vals.is_empty() {
                    0.0
                } else {
                    self.sum / self.vals.len() as f64
                }
            }
        }
    }
}

/// Normalized group-key value for output rows: derived from the
/// coercion-domain key so `Int 3` and `Float 3.0` — one group — render
/// one deterministic representative.
fn key_repr(k: &IndexKey) -> Value {
    match k {
        IndexKey::Num(n) => {
            let f = n.get();
            if f.fract() == 0.0 && f.abs() < 9.0e15 {
                Value::Int(f as i64)
            } else {
                Value::Float(f as f32)
            }
        }
        IndexKey::Bool(b) => Value::Bool(*b),
        IndexKey::Str(s) => Value::Str(s.clone()),
        IndexKey::Vec2([a, b]) => Value::Vec2(f32::from_bits(*a), f32::from_bits(*b)),
    }
}

#[derive(Debug, Clone)]
struct GroupState {
    source: SourceState,
    /// Schema position of the group column (`None` = global group).
    key_col: Option<usize>,
    agg: AggKind,
    /// Schema position of the aggregated column (`None` for Count).
    agg_col: Option<usize>,
    groups: BTreeMap<Option<IndexKey>, GroupAgg>,
    /// Materialized output, ascending by group key; `out_keys` is the
    /// parallel key list the changelog diff merges on.
    out: Vec<GroupRow>,
    out_keys: Vec<Option<IndexKey>>,
    log: GroupChangelog,
    /// Min/max retractions of the current extreme — the "recompute from
    /// the ordered multiset" events the metrics surface.
    retracts: u64,
}

impl GroupState {
    /// Group key of a tuple. `None` on the outside means "no group":
    /// rows missing the group column (or carrying a NaN key, which
    /// `compare` can never select) belong to no group, matching the
    /// scan-side rule that a missing component fails every predicate.
    fn group_key(&self, t: &Tuple) -> Option<Option<IndexKey>> {
        match self.key_col {
            None => Some(None),
            Some(c) => t.cols[c].as_ref().and_then(value_key).map(Some),
        }
    }

    fn agg_val(&self, t: &Tuple) -> Option<(OrdF64, f64)> {
        let c = self.agg_col?;
        let v = t.cols[c].as_ref().and_then(|v| v.as_number())?;
        OrdF64::new(v).map(|o| (o, v))
    }

    fn insert(&mut self, id: EntityId, t: &Tuple) {
        let Some(key) = self.group_key(t) else { return };
        let val = self.agg_val(t);
        let g = self.groups.entry(key).or_default();
        g.rows += 1;
        if let Some((o, v)) = val {
            g.sum += v;
            g.vals.insert((o, id));
        }
    }

    fn retract(&mut self, id: EntityId, t: &Tuple) {
        let Some(key) = self.group_key(t) else { return };
        let val = self.agg_val(t);
        let Some(g) = self.groups.get_mut(&key) else {
            return;
        };
        g.rows = g.rows.saturating_sub(1);
        if let Some((o, v)) = val {
            let entry = (o, id);
            let was_extreme = match self.agg {
                AggKind::Min => g.vals.iter().next() == Some(&entry),
                AggKind::Max => g.vals.iter().next_back() == Some(&entry),
                _ => false,
            };
            if g.vals.remove(&entry) {
                g.sum -= v;
                if was_extreme {
                    // The new extreme is the multiset's next element —
                    // an O(log n) recompute, never a base-table rescan.
                    self.retracts += 1;
                }
            }
        }
        if g.rows == 0 {
            self.groups.remove(&key);
        }
    }

    /// Rebuild the materialized output and, when `log_diff`, absorb the
    /// old-vs-new diff into the changelog.
    fn rebuild(&mut self, log_diff: bool) -> usize {
        let mut new_out = Vec::with_capacity(self.groups.len());
        let mut new_keys = Vec::with_capacity(self.groups.len());
        for (k, g) in &self.groups {
            new_keys.push(k.clone());
            new_out.push(GroupRow {
                key: k.as_ref().map(key_repr),
                value: g.value(self.agg),
            });
        }
        let mut changes = 0usize;
        if log_diff {
            let (mut i, mut j) = (0usize, 0usize);
            while i < self.out_keys.len() || j < new_keys.len() {
                match (self.out_keys.get(i), new_keys.get(j)) {
                    (Some(a), Some(b)) if a == b => {
                        if self.out[i].value != new_out[j].value {
                            self.log.changed.push(new_out[j].clone());
                            changes += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                    (Some(a), Some(b)) if a < b => {
                        self.log.exited.push(self.out[i].clone());
                        changes += 1;
                        i += 1;
                    }
                    (Some(_), Some(_)) => {
                        self.log.entered.push(new_out[j].clone());
                        changes += 1;
                        j += 1;
                    }
                    (Some(_), None) => {
                        self.log.exited.push(self.out[i].clone());
                        changes += 1;
                        i += 1;
                    }
                    (None, Some(_)) => {
                        self.log.entered.push(new_out[j].clone());
                        changes += 1;
                        j += 1;
                    }
                    (None, None) => unreachable!("loop condition"),
                }
            }
        }
        self.out = new_out;
        self.out_keys = new_keys;
        changes
    }

    /// Returns `(rows_in, rows_out)`.
    fn refresh(&mut self, world: &World, ctx: &FoldCtx<'_>) -> (usize, usize) {
        let fold = self.source.fold(world, ctx);
        if fold.is_empty() {
            return (0, 0);
        }
        for d in &fold {
            if let Some(o) = &d.old {
                self.retract(d.id, o);
            }
            if let Some(n) = &d.new {
                self.insert(d.id, n);
            }
        }
        let changes = self.rebuild(true);
        (fold.len(), changes)
    }

    fn init(&mut self, world: &World) {
        self.source.init(world);
        let seed: Vec<(EntityId, Tuple)> = self
            .source
            .rows
            .iter()
            .map(|(&id, t)| (id, t.clone()))
            .collect();
        for (id, t) in seed {
            self.insert(id, &t);
        }
        self.retracts = 0;
        self.rebuild(false);
    }
}

// ---------------------------------------------------------------------
// The registered view
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum OpState {
    Rows(RowsState),
    Join(JoinState),
    Group(GroupState),
}

/// One registered operator-tree view: the plan (what the catalog
/// persists), the operator state, and the shared maintenance counters.
#[derive(Debug, Clone)]
pub(crate) struct PlanView {
    plan: ViewPlan,
    state: OpState,
    stats: ViewStats,
}

impl PlanView {
    /// Compile, validate, and materialize a plan against the current
    /// world. Initial rows are state, not changelog events.
    pub(crate) fn new(plan: ViewPlan, world: &World) -> Result<PlanView, CoreError> {
        let mut state = compile(&plan)?;
        match &mut state {
            OpState::Rows(s) => s.out = s.src.run(world),
            OpState::Join(s) => s.init(world),
            OpState::Group(s) => s.init(world),
        }
        Ok(PlanView {
            plan,
            state,
            stats: ViewStats::default(),
        })
    }

    pub(crate) fn plan(&self) -> &ViewPlan {
        &self.plan
    }

    pub(crate) fn stats(&self) -> ViewStats {
        self.stats
    }

    /// Fold one change-stream segment into the operator tree.
    pub(crate) fn refresh(
        &mut self,
        world: &World,
        ctx: &FoldCtx<'_>,
        slot: usize,
        metrics: Option<&CoreMetrics>,
    ) {
        self.stats.refreshes += 1;
        self.stats.deltas_seen += ctx.batch_len as u64;
        // (output delta rows, rescanned, candidates)
        let (rows_out, rescanned, cands) = match &mut self.state {
            OpState::Rows(s) => {
                let f = s.refresh(world, ctx, metrics);
                if let Some(m) = metrics {
                    // a rescan ran the planner's access path, not the
                    // operator pipeline: `view.rescans` counts it
                    if !f.rescanned {
                        m.op_scan.note(f.cands, f.entered + f.exited);
                        if !s.src.query.predicates().is_empty() {
                            m.op_filter.note(f.cands, f.passed);
                        }
                    }
                    m.view_candidates.observe(f.cands as u64);
                    m.view_entered.add(f.entered as u64);
                    m.view_exited.add(f.exited as u64);
                    m.view_changed.add(f.changed as u64);
                }
                (f.entered + f.exited + f.changed, f.rescanned, f.cands)
            }
            OpState::Join(s) => {
                let (rows_in, out) = s.refresh(world, ctx);
                if let Some(m) = metrics {
                    m.op_scan.note(rows_in, rows_in);
                    m.op_join.note(rows_in, out);
                }
                (out, false, 0)
            }
            OpState::Group(s) => {
                let retracts_before = s.retracts;
                let (rows_in, out) = s.refresh(world, ctx);
                if let Some(m) = metrics {
                    m.op_scan.note(rows_in, rows_in);
                    m.op_group.note(rows_in, out);
                    m.op_group_retracts.add(s.retracts - retracts_before);
                }
                (out, false, 0)
            }
        };
        self.stats.delta_rows += rows_out as u64;
        self.stats.rescans += rescanned as u64;
        if let Some(m) = metrics {
            m.view_refreshes.inc();
            m.view_deltas.add(ctx.batch_len as u64);
            let per_slot = m.view_slot(slot);
            per_slot.refreshes.inc();
            per_slot.candidates.add(cands as u64);
            per_slot.delta_rows.add(rows_out as u64);
            if rescanned {
                m.view_rescans.inc();
                per_slot.rescans.inc();
            } else {
                m.view_incremental.inc();
            }
        }
    }

    /// Move the `within` disk of a row view's scan — in the stored plan
    /// (what the catalog persists) and in the fused source — then
    /// rescan-diff; the membership diff lands in the changelog as
    /// `entered` / `exited`. Returns `false`, changing nothing, for join
    /// and group views (spatial joins follow their anchor's position
    /// deltas instead).
    pub(crate) fn retarget(
        &mut self,
        world: &World,
        center: Vec2,
        radius: f32,
        metrics: Option<&CoreMetrics>,
    ) -> bool {
        let OpState::Rows(s) = &mut self.state else {
            return false;
        };
        fn scan_query(node: &mut PlanNode) -> &mut Query {
            match node {
                PlanNode::Scan { query, .. } => query,
                PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => {
                    scan_query(input)
                }
                _ => unreachable!("a rows plan is a scan chain"),
            }
        }
        scan_query(&mut self.plan.root).retarget_within(center, radius);
        s.src.query.retarget_within(center, radius);
        let chosen = s.planned(world);
        let (entered, exited) = s.rescan(world, &chosen, metrics);
        s.log.absorb_batch(entered, exited, Vec::new(), true);
        self.stats.refreshes += 1;
        self.stats.rescans += 1;
        if let Some(m) = metrics {
            m.view_refreshes.inc();
            m.view_rescans.inc();
        }
        true
    }

    /// The fused standing query of a row view (its scan's query with
    /// every filter of the chain conjoined).
    pub(crate) fn query(&self) -> Option<&Query> {
        match &self.state {
            OpState::Rows(s) => Some(&s.src.query),
            _ => None,
        }
    }

    /// Entity rows, for plans whose root is a scan chain.
    pub(crate) fn rows(&self) -> Option<&[EntityId]> {
        match &self.state {
            OpState::Rows(s) => Some(&s.out),
            _ => None,
        }
    }

    pub(crate) fn contains_row(&self, e: EntityId) -> bool {
        matches!(&self.state, OpState::Rows(s) if s.out.binary_search(&e).is_ok())
    }

    /// Join pairs, for join plans.
    pub(crate) fn pairs(&self) -> Option<&[(EntityId, EntityId)]> {
        match &self.state {
            OpState::Join(s) => Some(&s.pairs),
            _ => None,
        }
    }

    /// Group rows, for group-aggregate plans.
    pub(crate) fn groups(&self) -> Option<&[GroupRow]> {
        match &self.state {
            OpState::Group(s) => Some(&s.out),
            _ => None,
        }
    }

    /// Retract-and-recompute count (min/max extreme retractions).
    pub(crate) fn retract_recomputes(&self) -> u64 {
        match &self.state {
            OpState::Group(s) => s.retracts,
            _ => 0,
        }
    }

    pub(crate) fn rows_log(&self) -> Option<&Changelog> {
        match &self.state {
            OpState::Rows(s) => Some(&s.log),
            _ => None,
        }
    }

    pub(crate) fn take_rows_log(&mut self) -> Option<Changelog> {
        match &mut self.state {
            OpState::Rows(s) => Some(std::mem::take(&mut s.log)),
            _ => None,
        }
    }

    pub(crate) fn pair_log(&self) -> Option<&PairChangelog> {
        match &self.state {
            OpState::Join(s) => Some(&s.log),
            _ => None,
        }
    }

    pub(crate) fn take_pair_log(&mut self) -> Option<PairChangelog> {
        match &mut self.state {
            OpState::Join(s) => Some(std::mem::take(&mut s.log)),
            _ => None,
        }
    }

    pub(crate) fn group_log(&self) -> Option<&GroupChangelog> {
        match &self.state {
            OpState::Group(s) => Some(&s.log),
            _ => None,
        }
    }

    pub(crate) fn take_group_log(&mut self) -> Option<GroupChangelog> {
        match &mut self.state {
            OpState::Group(s) => Some(std::mem::take(&mut s.log)),
            _ => None,
        }
    }

    /// Drop accumulated changelogs (recovery re-anchors subscribers).
    pub(crate) fn clear_logs(&mut self) {
        match &mut self.state {
            OpState::Rows(s) => s.log = Changelog::default(),
            OpState::Join(s) => s.log = PairChangelog::default(),
            OpState::Group(s) => s.log = GroupChangelog::default(),
        }
    }

    /// The incremental output as a [`PlanOutput`] — what the oracle
    /// comparison against [`ViewPlan::evaluate`] consumes.
    pub(crate) fn output(&self) -> PlanOutput {
        match &self.state {
            OpState::Rows(s) => PlanOutput::Rows(s.out.clone()),
            OpState::Join(s) => PlanOutput::Pairs(s.pairs.clone()),
            OpState::Group(s) => PlanOutput::Groups(s.out.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewId;
    use gamedb_content::{CmpOp, ValueType};

    fn world() -> World {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        w
    }

    /// The incremental state must equal a forced recompute of the same
    /// plan from a cold start — the module's central invariant.
    fn assert_oracle(w: &World, v: ViewId) {
        let plan = w.view_plan(v).unwrap().clone();
        assert_eq!(w.view_output(v), plan.evaluate(w).unwrap(), "maintained ≠ recomputed");
    }

    fn team(w: &mut World, e: EntityId, t: &str) {
        w.set(e, "team", Value::Str(t.into())).unwrap();
    }

    #[test]
    fn scan_plan_view_tracks_rows_and_changelog() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        let q = Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0));
        let v = w.register_view_plan(ViewPlan::scan(q.clone())).unwrap();
        assert_eq!(w.view_rows(v), &[a]);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(b, "hp", 20.0).unwrap();
        w.set_f32(a, "hp", 90.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_rows(v), &[b]);
        assert_eq!(w.view_rows(v), q.run(&w));
        let log = w.take_view_changelog(v);
        assert_eq!(log.entered, vec![b]);
        assert_eq!(log.exited, vec![a]);
        assert_oracle(&w, v);
    }

    #[test]
    fn filter_and_project_fuse_into_the_scan() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set(a, "gold", Value::Int(5)).unwrap();
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(b, "hp", 10.0).unwrap();
        let node = PlanNode::scan(Query::select())
            .filtered(Pred::new("hp", CmpOp::Lt, Value::Float(50.0)))
            .project(vec!["gold".into()])
            .filtered(Pred::new("gold", CmpOp::Gt, Value::Int(0)));
        let v = w.register_view_plan(ViewPlan::new(node)).unwrap();
        assert_eq!(w.view_rows(v), &[a]);
        w.set(b, "gold", Value::Int(3)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_rows(v), &[a, b]);
        assert_oracle(&w, v);
    }

    #[test]
    fn plan_validation_rejects_bad_shapes() {
        let scan = || PlanNode::scan(Query::select());
        // filter above a projection that dropped its column
        let p = ViewPlan::new(
            scan()
                .project(vec!["gold".into()])
                .filtered(Pred::new("hp", CmpOp::Lt, Value::Float(1.0))),
        );
        assert!(matches!(p.validate(), Err(CoreError::PlanInvalid(_))));
        // join below a filter: joins must be the root
        let nested = PlanNode::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            on: JoinOn::Within { radius: 1.0 },
        }
        .filtered(Pred::new("hp", CmpOp::Lt, Value::Float(1.0)));
        assert!(ViewPlan::new(nested).validate().is_err());
        // argmin/argmax have no incremental form here
        let p = ViewPlan::aggregate(scan(), AggFn::ArgMin("hp".into()));
        assert!(p.validate().is_err());
        // spatial join radius must be positive and finite
        let p = ViewPlan::join(scan(), scan(), JoinOn::Within { radius: 0.0 });
        assert!(p.validate().is_err());
        let p = ViewPlan::join(scan(), scan(), JoinOn::Within { radius: f32::NAN });
        assert!(p.validate().is_err());
        // depth bound (decode safety)
        let mut deep = scan();
        for _ in 0..=MAX_PLAN_DEPTH {
            deep = deep.project(vec!["gold".into()]);
        }
        assert!(ViewPlan::new(deep).validate().is_err());
        // consumer column must survive the projection
        let p = ViewPlan::group_by(
            scan().project(vec!["team".into()]),
            "team",
            AggFn::Sum("gold".into()),
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn equi_join_maintains_pairs_incrementally() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        let c = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set_f32(b, "hp", 90.0).unwrap();
        w.set_f32(c, "hp", 10.0).unwrap();
        team(&mut w, a, "red");
        team(&mut w, b, "red");
        team(&mut w, c, "blue");
        // wounded × everyone, matched on team
        let v = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0))),
                PlanNode::scan(Query::select()),
                JoinOn::Eq {
                    left: "team".into(),
                    right: "team".into(),
                },
            ))
            .unwrap();
        assert_eq!(w.view_pairs(v), &[(a, b)]);
        // b gets wounded: joins its red teammate a
        w.set_f32(b, "hp", 20.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(a, b), (b, a)]);
        let log = w.take_view_pair_changelog(v);
        assert_eq!(log.entered, vec![(b, a)]);
        assert!(log.exited.is_empty());
        assert_oracle(&w, v);
        // c switches to red: joins both sides of the red component
        team(&mut w, c, "red");
        w.refresh_views();
        assert_eq!(
            w.view_pairs(v),
            &[(a, b), (a, c), (b, a), (b, c), (c, a), (c, b)]
        );
        assert_oracle(&w, v);
        // a despawns: every pair touching a exits
        w.despawn(a);
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(b, c), (c, b)]);
        let log = w.take_view_pair_changelog(v);
        assert_eq!(log.exited, vec![(a, b), (a, c), (b, a), (c, a)]);
        assert_oracle(&w, v);
    }

    #[test]
    fn equi_join_coerces_int_and_float_keys() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set(a, "gold", Value::Int(3)).unwrap();
        w.set_f32(b, "hp", 3.0).unwrap();
        let v = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select().filter("gold", CmpOp::Gt, Value::Int(0))),
                PlanNode::scan(Query::select().filter("hp", CmpOp::Gt, Value::Float(0.0))),
                JoinOn::Eq {
                    left: "gold".into(),
                    right: "hp".into(),
                },
            ))
            .unwrap();
        // Int 3 and Float 3.0 share a key in the coercion domain
        assert_eq!(w.view_pairs(v), &[(a, b)]);
        // a NaN key joins nothing
        w.set_f32(b, "hp", f32::NAN).unwrap();
        w.refresh_views();
        assert!(w.view_pairs(v).is_empty());
        assert_oracle(&w, v);
    }

    #[test]
    fn spatial_join_pairs_follow_moves() {
        let mut w = World::new();
        let a = w.spawn_at(Vec2::new(0.0, 0.0));
        let b = w.spawn_at(Vec2::new(3.0, 0.0));
        let c = w.spawn_at(Vec2::new(100.0, 0.0));
        let v = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select()),
                PlanNode::scan(Query::select()),
                JoinOn::Within { radius: 5.0 },
            ))
            .unwrap();
        // symmetric, self-pairs excluded
        assert_eq!(w.view_pairs(v), &[(a, b), (b, a)]);
        w.set_pos(c, Vec2::new(1.0, 1.0)).unwrap();
        w.refresh_views();
        assert_eq!(
            w.view_pairs(v),
            &[(a, b), (a, c), (b, a), (b, c), (c, a), (c, b)]
        );
        assert_oracle(&w, v);
        w.set_pos(b, Vec2::new(50.0, 0.0)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(a, c), (c, a)]);
        let log = w.take_view_pair_changelog(v);
        assert_eq!(log.exited, vec![(a, b), (b, a), (b, c), (c, b)]);
        assert_oracle(&w, v);
    }

    #[test]
    fn anchored_spatial_join_follows_the_anchor() {
        // The aggro shape: one pinned mob joined to everyone nearby.
        let mut w = World::new();
        let mob = w.spawn_at(Vec2::ZERO);
        let p1 = w.spawn_at(Vec2::new(1.0, 0.0));
        let p2 = w.spawn_at(Vec2::new(30.0, 0.0));
        let v = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan_only(Query::select(), mob),
                PlanNode::scan(Query::select().excluding(mob)),
                JoinOn::Within { radius: 5.0 },
            ))
            .unwrap();
        assert_eq!(w.view_pairs(v), &[(mob, p1)]);
        // moving the anchor re-pairs without any retarget call
        w.set_pos(mob, Vec2::new(30.0, 0.0)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(mob, p2)]);
        assert_oracle(&w, v);
        // moving a candidate into range pairs it
        w.set_pos(p1, Vec2::new(29.0, 0.0)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(mob, p1), (mob, p2)]);
        assert_oracle(&w, v);
    }

    #[test]
    fn group_count_tracks_membership() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        let c = w.spawn_at(Vec2::ZERO);
        team(&mut w, a, "red");
        team(&mut w, b, "red");
        team(&mut w, c, "blue");
        let v = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Count,
            ))
            .unwrap();
        assert_eq!(w.view_group_value(v, Some(&Value::Str("red".into()))), Some(2.0));
        assert_eq!(w.view_group_value(v, Some(&Value::Str("blue".into()))), Some(1.0));
        // last blue row leaves: the group disappears
        w.despawn(c);
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&Value::Str("blue".into()))), None);
        let log = w.take_view_group_changelog(v);
        assert_eq!(
            log.exited,
            vec![GroupRow {
                key: Some(Value::Str("blue".into())),
                value: 1.0
            }]
        );
        assert_oracle(&w, v);
        // b switches teams: red shrinks, blue reappears
        team(&mut w, b, "blue");
        w.refresh_views();
        let log = w.take_view_group_changelog(v);
        assert_eq!(
            log.entered,
            vec![GroupRow {
                key: Some(Value::Str("blue".into())),
                value: 1.0
            }]
        );
        assert_eq!(
            log.changed,
            vec![GroupRow {
                key: Some(Value::Str("red".into())),
                value: 1.0
            }]
        );
        assert_oracle(&w, v);
    }

    #[test]
    fn group_sum_maintains_running_totals() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        team(&mut w, a, "red");
        team(&mut w, b, "red");
        w.set(a, "gold", Value::Int(5)).unwrap();
        w.set(b, "gold", Value::Int(7)).unwrap();
        let v = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Sum("gold".into()),
            ))
            .unwrap();
        let red = Value::Str("red".into());
        assert_eq!(w.view_group_value(v, Some(&red)), Some(12.0));
        w.set(a, "gold", Value::Int(20)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&red)), Some(27.0));
        // removing the component retracts its contribution
        w.remove_component(b, "gold").unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&red)), Some(20.0));
        assert_oracle(&w, v);
    }

    #[test]
    fn group_min_retracts_and_recomputes() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        team(&mut w, a, "red");
        team(&mut w, b, "red");
        w.set(a, "gold", Value::Int(5)).unwrap();
        w.set(b, "gold", Value::Int(10)).unwrap();
        let v = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Min("gold".into()),
            ))
            .unwrap();
        let red = Value::Str("red".into());
        assert_eq!(w.view_group_value(v, Some(&red)), Some(5.0));
        assert_eq!(w.view_retract_recomputes(v), 0);
        // raising the current minimum retracts the extreme: the new min
        // comes from the ordered multiset, and the event is counted
        w.set(a, "gold", Value::Int(20)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&red)), Some(10.0));
        assert_eq!(w.view_retract_recomputes(v), 1);
        // touching a non-extreme row does not
        w.set(a, "gold", Value::Int(15)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&red)), Some(10.0));
        assert_eq!(w.view_retract_recomputes(v), 1);
        assert_oracle(&w, v);
    }

    #[test]
    fn nan_aggregate_inputs_are_skipped() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set_f32(b, "hp", f32::NAN).unwrap();
        let sum = w
            .register_view_plan(ViewPlan::aggregate(
                PlanNode::scan(Query::select()),
                AggFn::Sum("hp".into()),
            ))
            .unwrap();
        let avg = w
            .register_view_plan(ViewPlan::aggregate(
                PlanNode::scan(Query::select()),
                AggFn::Avg("hp".into()),
            ))
            .unwrap();
        let count = w
            .register_view_plan(ViewPlan::aggregate(
                PlanNode::scan(Query::select()),
                AggFn::Count,
            ))
            .unwrap();
        assert_eq!(w.view_group_value(sum, None), Some(10.0));
        // NaN is excluded from the denominator too (SQL NULL style)
        assert_eq!(w.view_group_value(avg, None), Some(10.0));
        // Count counts rows, not non-NaN values
        assert_eq!(w.view_group_value(count, None), Some(2.0));
        w.set_f32(b, "hp", 30.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(sum, None), Some(40.0));
        assert_eq!(w.view_group_value(avg, None), Some(20.0));
        assert_oracle(&w, sum);
        assert_oracle(&w, avg);
    }

    #[test]
    fn global_group_disappears_when_empty() {
        let mut w = world();
        let v = w
            .register_view_plan(ViewPlan::aggregate(
                PlanNode::scan(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0))),
                AggFn::Count,
            ))
            .unwrap();
        assert!(w.view_groups(v).is_empty());
        assert_eq!(w.view_group_value(v, None), None);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, None), Some(1.0));
        w.set_f32(a, "hp", 90.0).unwrap();
        w.refresh_views();
        assert!(w.view_groups(v).is_empty());
        let log = w.take_view_group_changelog(v);
        assert_eq!(log.exited, vec![GroupRow { key: None, value: 1.0 }]);
        assert_oracle(&w, v);
    }

    #[test]
    fn plan_views_round_trip_through_the_catalog() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        team(&mut w, a, "red");
        w.set(a, "gold", Value::Int(5)).unwrap();
        let v = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Sum("gold".into()),
            ))
            .unwrap();
        let cat = w.export_catalog();
        assert_eq!(cat.plan_views.len(), 1);
        assert_eq!(cat.plan_views[0].0, v.slot());
        // reconcile restores a dropped plan view at its exact slot,
        // rematerialized from current state
        assert!(w.drop_view(v));
        assert!(w.view_id_at(v.slot()).is_none());
        w.reconcile_catalog(&cat).unwrap();
        assert_eq!(w.view_id_at(v.slot()), Some(v));
        assert_eq!(
            w.view_group_value(v, Some(&Value::Str("red".into()))),
            Some(5.0)
        );
        // and drops a plan view absent from the catalog
        let mut cat2 = cat.clone();
        cat2.plan_views.clear();
        w.reconcile_catalog(&cat2).unwrap();
        assert!(w.view_id_at(v.slot()).is_none());
    }

    #[test]
    fn find_plan_view_reattaches_by_plan() {
        let mut w = world();
        let plan = ViewPlan::group_by(PlanNode::scan(Query::select()), "team", AggFn::Count);
        assert_eq!(w.find_plan_view(&plan), None);
        let v = w.register_view_plan(plan.clone()).unwrap();
        assert_eq!(w.find_plan_view(&plan), Some(v));
    }

    #[test]
    fn maintained_state_matches_oracle_under_mixed_churn() {
        // A deterministic mini-churn across every operator kind; the
        // randomized version lives in tests/prop_core.rs.
        let mut w = world();
        let join = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0))),
                PlanNode::scan(Query::select()),
                JoinOn::Eq {
                    left: "team".into(),
                    right: "team".into(),
                },
            ))
            .unwrap();
        let near = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select()),
                PlanNode::scan(Query::select()),
                JoinOn::Within { radius: 8.0 },
            ))
            .unwrap();
        let wealth = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Sum("gold".into()),
            ))
            .unwrap();
        let mut ids = Vec::new();
        for i in 0..40i64 {
            let e = w.spawn_at(Vec2::new((i % 7) as f32 * 3.0, (i % 5) as f32 * 3.0));
            w.set_f32(e, "hp", (i % 11) as f32 * 10.0).unwrap();
            w.set(e, "gold", Value::Int(i % 13)).unwrap();
            team(&mut w, e, if i % 3 == 0 { "red" } else { "blue" });
            ids.push(e);
            if i % 4 == 0 {
                w.refresh_views();
            }
        }
        w.refresh_views();
        for (i, &e) in ids.iter().enumerate() {
            match i % 5 {
                0 => w.set_f32(e, "hp", ((i * 17) % 90) as f32).unwrap(),
                1 => {
                    w.despawn(e);
                }
                2 => w.set_pos(e, Vec2::new((i % 9) as f32 * 4.0, 1.0)).unwrap(),
                3 => w.set(e, "gold", Value::Int((i as i64 * 7) % 40)).unwrap(),
                _ => {
                    let _ = w.remove_component(e, "team");
                }
            }
            if i % 3 == 0 {
                w.refresh_views();
            }
        }
        w.refresh_views();
        assert_oracle(&w, join);
        assert_oracle(&w, near);
        assert_oracle(&w, wealth);
    }
}
