//! The durability tap: a WAL-backed store whose world is mutated
//! through the ordinary [`World`] write API — every mutation is captured
//! by the change stream and group-committed as one WAL frame per batch.
//!
//! Before the unified change pipeline this module mirrored the entire
//! `World` mutation API method-by-method, which meant any mutation that
//! *didn't* go through the mirror — a `ScriptEngine::tick`, an effect
//! batch, a subsystem holding `&mut World` — was silently not durable.
//! Now [`WalStore`] attaches a change-stream tap
//! ([`World::attach_tap_pinned`]): callers mutate [`WalStore::world_mut`]
//! however they like (individual writes, `World::apply_batch`, whole
//! scripted ticks) and [`WalStore::commit`] turns the pending stream
//! segment into **one** WAL frame ([`WalRecord::Batch`] when the
//! segment holds more than one op).
//!
//! ## Two durability modes
//!
//! * **Sync** ([`WalStore::new`]): frame encoding and the durable flush
//!   run on the caller's thread. The knob is `group_commit`: how many
//!   logged ops may sit in the OS buffer before a durable flush. 1 =
//!   synchronous logging (lose nothing committed, pay a flush per
//!   commit); N = group commit (lose at most the unflushed ops).
//! * **Async** ([`WalStore::new_async`]): [`WalStore::commit`] is
//!   *enqueue-and-return*. The pending segment is handed over a bounded
//!   channel to a background **writer thread** that encodes the frame,
//!   appends it, and issues the durable flush per a time/size
//!   group-commit policy ([`FlushPolicy::flush_every`]). Every commit
//!   is assigned a monotone [`CommitSeq`]; the writer publishes a
//!   **durable watermark** as flushes land. Callers ack-track with
//!   [`WalStore::last_enqueued`] / [`WalStore::last_durable`] /
//!   [`WalStore::wait_durable`]. A full queue **blocks** the committer
//!   (backpressure — never drops), and writer-side I/O errors are
//!   surfaced on the next commit/wait instead of being lost. This is
//!   the paper's tick-rate contract: the scripted tick never blocks on
//!   fsync; durability happens underneath, bounded by the unacked
//!   window `last_enqueued - last_durable`.
//!
//! In both modes the durability tap is **pinned**
//! ([`World::attach_tap_pinned`]): a tap-retention policy on the
//! store's world can never evict it, so a lagging flusher backpressures
//! instead of silently un-happening durability. Mutations not yet
//! [`WalStore::commit`]ted are lost by a crash outright — commit is the
//! durability boundary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use gamedb_core::{Change, CoreError, DurabilityWatermark, Query, TapId, ViewId, World};
use gamedb_metrics::MetricsRegistry;

use crate::backend::{Backend, BackendError};
use crate::metrics::WalMetrics;
use crate::snapshot;
use crate::wal::{decode_log, replay_after_checkpoint, WalRecord};

/// Recover a world from raw durable parts: `(seq, bytes)` snapshots in
/// ascending sequence order and the raw event log. This is the one
/// recovery algorithm — [`WalStore::crash_and_recover`] and the
/// crash-point sweep ([`crate::crashpoint`]) both run it:
///
/// 1. Decode the log into records, stopping cleanly at the first torn
///    or corrupt frame (a torn batch frame drops the whole batch —
///    batch commits are atomic).
/// 2. Take the newest snapshot that decodes; fall back to older ones if
///    a snapshot itself is unreadable.
/// 3. Replay the record tail after that snapshot's checkpoint mark —
///    nothing when the mark is absent (see
///    [`replay_after_checkpoint`]); catalog records rebuild indexes and
///    views along the way.
/// 4. Fold outstanding view changes and reset every changelog, so
///    subscribers re-anchor at the recovery tick instead of receiving
///    pre-crash churn twice.
///
/// Returns `(world, snapshot seq used, records replayed)`.
pub fn recover_from_parts<S: AsRef<[u8]>>(
    snapshots: &[(u64, S)],
    log: &[u8],
) -> Result<(World, u64, usize), StoreError> {
    let (records, _) = decode_log(log);
    let mut last_err: Option<StoreError> = None;
    for (seq, data) in snapshots.iter().rev() {
        let mut world = match snapshot::decode(data.as_ref()) {
            Ok((world, _tick)) => world,
            Err(e) => {
                last_err = Some(StoreError::Backend(BackendError::Io(
                    std::io::Error::other(e.to_string()),
                )));
                continue;
            }
        };
        let replayed = replay_after_checkpoint(&mut world, &records, *seq)?;
        world.refresh_views();
        world.reset_view_changelogs();
        return Ok((world, *seq, replayed));
    }
    Err(last_err.unwrap_or(StoreError::Backend(BackendError::NoSnapshot)))
}

/// A monotone commit sequence number: one per commit boundary handed to
/// the durability pipeline (frames and checkpoint marks both consume
/// one). `CommitSeq(0)` means "nothing committed yet". The durable
/// watermark ([`WalStore::last_durable`]) is the highest `CommitSeq`
/// whose frame has been durably flushed; everything at or below it
/// survives any crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CommitSeq(pub u64);

impl CommitSeq {
    /// The sequence as a bare integer.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for CommitSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The background writer's time/size group-commit policy: flush when
/// `every_ops` logged ops have accumulated **or** when the oldest
/// unflushed frame has waited `max_delay` — whichever comes first. A
/// [`WalStore::wait_durable`] call also hints the writer to flush
/// immediately, so waiters never sit out the full delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush once this many ops are buffered in the OS (size trigger).
    pub every_ops: usize,
    /// Flush once the oldest unflushed frame is this old (time trigger).
    pub max_delay: Duration,
}

impl FlushPolicy {
    /// One writer-clock tick of the time trigger (the granularity
    /// `flush_every`'s `max_delay_ticks` is denominated in).
    pub const TICK: Duration = Duration::from_millis(1);

    /// Build a policy: flush every `n_ops` ops or every
    /// `max_delay_ticks` writer-clock ticks (1 tick = 1 ms), whichever
    /// fires first.
    pub fn flush_every(n_ops: usize, max_delay_ticks: u64) -> FlushPolicy {
        FlushPolicy {
            every_ops: n_ops.max(1),
            max_delay: Self::TICK * (max_delay_ticks.max(1) as u32),
        }
    }
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy::flush_every(64, 2)
    }
}

/// One coherent reading of the durability watermark
/// ([`WalStore::watermark_snapshot`]): everything at or below `durable`
/// survives any crash; `lag` commit boundaries would be lost by a crash
/// right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalWatermark {
    /// Highest [`CommitSeq`] handed to the durability pipeline.
    pub enqueued: CommitSeq,
    /// Highest [`CommitSeq`] durably flushed.
    pub durable: CommitSeq,
    /// `enqueued - durable`, computed from one durable read.
    pub lag: u64,
}

/// Store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WalStats {
    /// WAL frames appended by commits (one per non-empty commit;
    /// checkpoint-mark frames are counted by `checkpoints`, not here).
    pub records: u64,
    /// Mutation ops captured across all committed frames.
    pub ops: u64,
    /// Durable flushes issued **on the caller's thread** (sync-mode
    /// commits, checkpoints, compaction). Async-writer flushes are
    /// counted by [`WalStore::writer_flushes`].
    pub flushes: u64,
    /// Snapshots written.
    pub checkpoints: u64,
}

/// What the background writer is told to do. Commands flow through one
/// FIFO channel, so ordering between frames and checkpoint snapshots is
/// the enqueue order — exactly the order the sync path would have
/// written them in.
enum WriterCmd {
    /// One commit's pending change-stream segment. The writer encodes
    /// it (one frame; `Batch` when multi-op) and appends it. `enqueued`
    /// stamps the commit boundary so the writer can report
    /// enqueue→durable latency once a flush covers the frame.
    Frame {
        seq: u64,
        changes: Vec<Change>,
        enqueued: Instant,
    },
    /// A checkpoint: install the pre-encoded snapshot, append its mark,
    /// and flush durably.
    Checkpoint {
        seq: u64,
        snapshot_seq: u64,
        snapshot: Bytes,
    },
    /// Flush now if anything is buffered (a `wait_durable` hint).
    Flush,
    /// Test hook: block until the gate closes — a deterministically
    /// stalled writer for backpressure regression tests.
    #[cfg(test)]
    Stall(Receiver<()>),
}

/// State the writer publishes back to the store.
#[derive(Debug, Default)]
struct WriterState {
    /// Highest [`CommitSeq`] durably flushed.
    durable: u64,
    /// Durable flushes the writer has issued.
    flushes: u64,
    /// A writer-side failure (I/O error, backend crash). Surfaced on
    /// the next commit/wait; the writer thread has exited.
    error: Option<String>,
}

#[derive(Debug, Default)]
struct WriterShared {
    state: Mutex<WriterState>,
    durable_cv: Condvar,
    /// Crash simulation: when set, the writer exits immediately without
    /// flushing — in-flight frames vanish like any other unflushed
    /// write.
    abort: AtomicBool,
    /// Instrumentation handles, installed by
    /// [`WalStore::attach_metrics`] after the writer is spawned. The
    /// writer reads this only at flush boundaries, never per frame.
    metrics: Mutex<Option<WalMetrics>>,
}

impl WriterShared {
    fn fail(&self, msg: String) {
        let mut st = self.state.lock().expect("writer state poisoned");
        if st.error.is_none() {
            st.error = Some(msg);
        }
        drop(st);
        if let Some(m) = &*self.metrics.lock().expect("writer metrics poisoned") {
            m.writer_errors.inc();
        }
        self.durable_cv.notify_all();
    }
}

/// Flush the backend and publish the durable watermark up to `upto`.
/// Returns false when the writer must stop (I/O error, or the backend
/// crashed at a scheduled fault — claiming durability past a crash
/// would be a lie, so the watermark freezes at the last clean flush).
/// `inflight` holds the (commit seq, enqueue instant) of every frame
/// appended but not yet durable; the covered prefix is drained into the
/// enqueue→durable latency histogram when metrics are attached.
fn writer_flush(
    backend: &Mutex<Backend>,
    shared: &WriterShared,
    upto: u64,
    inflight: &mut Vec<(u64, Instant)>,
) -> bool {
    {
        let mut b = backend.lock().expect("backend poisoned");
        if let Err(e) = b.flush() {
            drop(b);
            shared.fail(format!("writer flush failed: {e}"));
            return false;
        }
        if b.fault_fired() {
            drop(b);
            shared.fail(
                "backend crashed at a scheduled fault: durability stops at the last clean flush"
                    .into(),
            );
            return false;
        }
    }
    let mut st = shared.state.lock().expect("writer state poisoned");
    st.durable = st.durable.max(upto);
    st.flushes += 1;
    drop(st);
    let covered = inflight.iter().take_while(|(seq, _)| *seq <= upto).count();
    if let Some(m) = &*shared.metrics.lock().expect("writer metrics poisoned") {
        m.flushes.inc();
        m.flush_commits.observe(covered as u64);
        for (_, enqueued) in &inflight[..covered] {
            m.enqueue_to_durable_us
                .observe(enqueued.elapsed().as_micros() as u64);
        }
    }
    inflight.drain(..covered);
    shared.durable_cv.notify_all();
    true
}

/// The background writer: drain the command channel, append frames,
/// group-commit per the policy. Exits on clean disconnect (flushing
/// everything buffered first), on abort (flushing nothing — crash
/// semantics), or on a backend failure (error published).
fn writer_loop(
    rx: Receiver<WriterCmd>,
    backend: Arc<Mutex<Backend>>,
    shared: Arc<WriterShared>,
    policy: FlushPolicy,
) {
    let mut buffered_ops = 0usize;
    let mut appended_seq = 0u64;
    let mut deadline: Option<Instant> = None;
    // (commit seq, enqueue instant) of appended-but-not-durable frames,
    // in seq order — drained into the latency histogram at each flush
    let mut inflight: Vec<(u64, Instant)> = Vec::new();
    loop {
        if shared.abort.load(Ordering::SeqCst) {
            return;
        }
        let msg = match deadline {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    Err(RecvTimeoutError::Timeout)
                } else {
                    rx.recv_timeout(d - now)
                }
            }
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        if shared.abort.load(Ordering::SeqCst) {
            return;
        }
        match msg {
            Ok(WriterCmd::Frame {
                seq,
                changes,
                enqueued,
            }) => {
                // frame encoding happens here, off the mutating thread
                let mut ops: Vec<WalRecord> =
                    changes.iter().map(WalRecord::from_change).collect();
                let record = if ops.len() == 1 {
                    ops.pop().expect("len checked")
                } else {
                    WalRecord::Batch { ops }
                };
                backend
                    .lock()
                    .expect("backend poisoned")
                    .append_log(&record.encode());
                buffered_ops += changes.len();
                appended_seq = seq;
                inflight.push((seq, enqueued));
                if buffered_ops >= policy.every_ops {
                    if !writer_flush(&backend, &shared, appended_seq, &mut inflight) {
                        return;
                    }
                    buffered_ops = 0;
                    deadline = None;
                } else if deadline.is_none() {
                    deadline = Some(Instant::now() + policy.max_delay);
                }
            }
            Ok(WriterCmd::Checkpoint {
                seq,
                snapshot_seq,
                snapshot,
            }) => {
                {
                    let mut b = backend.lock().expect("backend poisoned");
                    b.put_snapshot(snapshot_seq, snapshot);
                    b.append_log(&WalRecord::CheckpointMark { seq: snapshot_seq }.encode());
                }
                appended_seq = seq;
                if !writer_flush(&backend, &shared, appended_seq, &mut inflight) {
                    return;
                }
                buffered_ops = 0;
                deadline = None;
            }
            Ok(WriterCmd::Flush) | Err(RecvTimeoutError::Timeout) => {
                if buffered_ops > 0 {
                    if !writer_flush(&backend, &shared, appended_seq, &mut inflight) {
                        return;
                    }
                    buffered_ops = 0;
                }
                deadline = None;
            }
            #[cfg(test)]
            Ok(WriterCmd::Stall(gate)) => {
                let _ = gate.recv();
            }
            Err(RecvTimeoutError::Disconnected) => {
                // clean shutdown: make everything enqueued durable
                if buffered_ops > 0 {
                    writer_flush(&backend, &shared, appended_seq, &mut inflight);
                }
                return;
            }
        }
    }
}

/// The background half of an async-mode store.
struct AsyncWriter {
    tx: Option<Sender<WriterCmd>>,
    shared: Arc<WriterShared>,
    handle: Option<JoinHandle<()>>,
    policy: FlushPolicy,
    queue_cap: usize,
}

impl AsyncWriter {
    fn spawn(backend: Arc<Mutex<Backend>>, policy: FlushPolicy, queue_cap: usize) -> AsyncWriter {
        let shared = Arc::new(WriterShared::default());
        let (tx, rx) = bounded(queue_cap);
        let shared2 = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("wal-writer".into())
            .spawn(move || writer_loop(rx, backend, shared2, policy))
            .expect("spawn wal writer thread");
        AsyncWriter {
            tx: Some(tx),
            shared,
            handle: Some(handle),
            policy,
            queue_cap,
        }
    }

    /// Surface a stored writer-side failure.
    fn check(&self) -> Result<(), StoreError> {
        let st = self.shared.state.lock().expect("writer state poisoned");
        match &st.error {
            Some(e) => Err(StoreError::Writer(e.clone())),
            None => Ok(()),
        }
    }

    /// Blocking enqueue (backpressure); a dead writer surfaces its
    /// stored error instead.
    fn send(&self, cmd: WriterCmd) -> Result<(), StoreError> {
        let tx = self.tx.as_ref().expect("writer channel open");
        if tx.send(cmd).is_err() {
            self.check()?;
            return Err(StoreError::Writer("wal writer exited".into()));
        }
        Ok(())
    }

    fn durable(&self) -> u64 {
        self.shared.state.lock().expect("writer state poisoned").durable
    }

    /// Frames waiting in the hand-off queue right now.
    fn queue_len(&self) -> usize {
        self.tx.as_ref().map_or(0, Sender::len)
    }

    fn wait_durable(&self, seq: u64) -> Result<(), StoreError> {
        {
            let st = self.shared.state.lock().expect("writer state poisoned");
            if st.durable >= seq {
                return Ok(());
            }
            if let Some(e) = &st.error {
                return Err(StoreError::Writer(e.clone()));
            }
        }
        // hint the writer so the waiter doesn't sit out max_delay
        if let Some(tx) = &self.tx {
            let _ = tx.send(WriterCmd::Flush);
        }
        let mut st = self.shared.state.lock().expect("writer state poisoned");
        loop {
            if st.durable >= seq {
                return Ok(());
            }
            if let Some(e) = &st.error {
                return Err(StoreError::Writer(e.clone()));
            }
            st = self
                .shared
                .durable_cv
                .wait(st)
                .expect("writer state poisoned");
        }
    }

    /// Crash simulation: the writer dies mid-flight. Nothing buffered
    /// is flushed; in-flight queue contents vanish with the thread.
    fn abort_for_crash(&mut self) {
        self.shared.abort.store(true, Ordering::SeqCst);
        self.tx = None; // wake a blocked recv via disconnect
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for AsyncWriter {
    fn drop(&mut self) {
        // clean shutdown: disconnect, let the writer flush the tail,
        // join. (A crashed store already aborted; both are None then.)
        self.tx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Durability mode (and its live state).
enum Mode {
    Sync {
        group_commit: usize,
        /// ops appended to the OS buffer since the last durable flush
        pending: usize,
        /// highest CommitSeq durably flushed
        durable: u64,
    },
    Async(AsyncWriter),
}

/// The mode parameters needed to rebuild a store after recovery.
enum Blueprint {
    Sync(usize),
    Async(FlushPolicy, usize),
}

/// A world whose mutations are redo-logged through a change-stream tap.
pub struct WalStore {
    /// The live world. Mutate it freely through [`WalStore::world_mut`];
    /// the tap captures every write path.
    world: World,
    tap: TapId,
    backend: Arc<Mutex<Backend>>,
    snapshot_seq: u64,
    mode: Mode,
    /// Highest CommitSeq handed to the durability pipeline.
    last_enqueued: u64,
    /// stats
    pub stats: WalStats,
    /// Instrumentation handles ([`WalStore::attach_metrics`]).
    metrics: Option<WalMetrics>,
    /// Sync mode's (commit seq, enqueue instant) of frames appended but
    /// not yet flushed — the caller-thread counterpart of the async
    /// writer's inflight list. Empty in async mode and when no metrics
    /// are attached.
    sync_inflight: Vec<(u64, Instant)>,
}

impl WalStore {
    /// Wrap a world in **sync** mode: attaches the pinned durability
    /// tap and writes the base snapshot immediately. Frame encoding and
    /// flushing run on the caller's thread; `group_commit` ops may sit
    /// in the OS buffer between flushes.
    pub fn new(
        world: World,
        backend: Backend,
        group_commit: usize,
    ) -> Result<Self, BackendError> {
        Self::build(world, backend, Blueprint::Sync(group_commit.max(1)))
    }

    /// Wrap a world in **async** mode: [`WalStore::commit`] becomes
    /// enqueue-and-return, and a background writer thread does frame
    /// encoding, appends, and time/size group commit per `policy`. The
    /// hand-off queue holds at most `queue_frames` commits; a full
    /// queue blocks the committer (backpressure — never drops).
    pub fn new_async(
        world: World,
        backend: Backend,
        policy: FlushPolicy,
        queue_frames: usize,
    ) -> Result<Self, BackendError> {
        Self::build(world, backend, Blueprint::Async(policy, queue_frames.max(1)))
    }

    fn build(mut world: World, mut backend: Backend, blueprint: Blueprint) -> Result<Self, BackendError> {
        let tap = world.attach_tap_pinned();
        backend.put_snapshot(0, snapshot::encode(&world));
        backend.append_log(&WalRecord::CheckpointMark { seq: 0 }.encode());
        backend.flush()?;
        Ok(Self::assemble(
            world,
            tap,
            Arc::new(Mutex::new(backend)),
            0,
            blueprint,
            WalStats::default(),
            None,
        ))
    }

    fn assemble(
        world: World,
        tap: TapId,
        backend: Arc<Mutex<Backend>>,
        snapshot_seq: u64,
        blueprint: Blueprint,
        stats: WalStats,
        metrics: Option<WalMetrics>,
    ) -> WalStore {
        let mode = match blueprint {
            Blueprint::Sync(group_commit) => Mode::Sync {
                group_commit,
                pending: 0,
                durable: 0,
            },
            Blueprint::Async(policy, queue_cap) => {
                let writer = AsyncWriter::spawn(Arc::clone(&backend), policy, queue_cap);
                *writer.shared.metrics.lock().expect("writer metrics poisoned") = metrics.clone();
                Mode::Async(writer)
            }
        };
        WalStore {
            world,
            tap,
            backend,
            snapshot_seq,
            mode,
            last_enqueued: 0,
            stats,
            metrics,
            sync_inflight: Vec::new(),
        }
    }

    /// Attach a metrics registry: commits, flush coalescing, the
    /// enqueue→durable latency histogram, watermark lag, and writer
    /// errors are reported into `registry` from here on (catalog in
    /// ARCHITECTURE.md § Observability). Purely observational. Replaces
    /// any previous attachment; survives
    /// [`WalStore::crash_and_recover`] like the rest of the blueprint.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let m = WalMetrics::new(registry);
        if let Mode::Async(w) = &self.mode {
            *w.shared.metrics.lock().expect("writer metrics poisoned") = Some(m.clone());
        }
        self.metrics = Some(m);
    }

    /// Detach the registry attached by [`WalStore::attach_metrics`].
    pub fn detach_metrics(&mut self) {
        if let Mode::Async(w) = &self.mode {
            *w.shared.metrics.lock().expect("writer metrics poisoned") = None;
        }
        self.metrics = None;
        self.sync_inflight.clear();
    }

    /// Read access to the world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access — the **only** mutation surface the store
    /// needs. Every write path (individual sets, `World::apply_batch`,
    /// effect application, scripted ticks, catalog operations) is
    /// captured by the attached tap; call [`WalStore::commit`] to make
    /// the accumulated mutations durable as one WAL frame. Mutations
    /// never committed are lost by a crash — that is the commit
    /// boundary, not a bypass.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Backend access (write-volume metrics, durable reads). The guard
    /// locks the async writer out of the backend while held — keep it
    /// short-lived.
    pub fn backend(&self) -> MutexGuard<'_, Backend> {
        self.backend.lock().expect("backend poisoned")
    }

    /// Mutable backend access — the crash-point sweep schedules byte-
    /// offset faults on the live backend through this.
    pub fn backend_mut(&mut self) -> MutexGuard<'_, Backend> {
        self.backend.lock().expect("backend poisoned")
    }

    /// True when commits are drained by the background writer.
    pub fn is_async(&self) -> bool {
        matches!(self.mode, Mode::Async(_))
    }

    /// Durable flushes the background writer has issued (0 in sync
    /// mode — see [`WalStats::flushes`] for caller-thread flushes).
    pub fn writer_flushes(&self) -> u64 {
        match &self.mode {
            Mode::Sync { .. } => 0,
            Mode::Async(w) => w.shared.state.lock().expect("writer state poisoned").flushes,
        }
    }

    /// Ops mutated since the last [`WalStore::commit`] (the exposure a
    /// crash right now would lose beyond the unacked window).
    pub fn uncommitted(&self) -> usize {
        self.world.tap_pending(self.tap).len()
    }

    /// The highest [`CommitSeq`] handed to the durability pipeline.
    pub fn last_enqueued(&self) -> CommitSeq {
        CommitSeq(self.last_enqueued)
    }

    /// The durable watermark: the highest [`CommitSeq`] whose frame has
    /// been durably flushed. Everything at or below it survives any
    /// crash; the unacked window `last_enqueued - last_durable` bounds
    /// the loss of a crash right now.
    pub fn last_durable(&self) -> CommitSeq {
        match &self.mode {
            Mode::Sync { durable, .. } => CommitSeq(*durable),
            Mode::Async(w) => CommitSeq(w.durable()),
        }
    }

    /// Commits enqueued but not yet durable (the ack-tracked loss
    /// window a crash right now would take, in commit boundaries).
    pub fn unacked(&self) -> u64 {
        self.last_enqueued - self.last_durable().0
    }

    /// One coherent reading of the durability watermark: the durable
    /// seq is read **once**, so `lag` is exactly `enqueued - durable`
    /// for the values returned — composing [`WalStore::last_enqueued`],
    /// [`WalStore::last_durable`], and [`WalStore::unacked`] yourself
    /// can tear when the background writer flushes between the calls.
    pub fn watermark_snapshot(&self) -> WalWatermark {
        let durable = self.last_durable();
        WalWatermark {
            enqueued: CommitSeq(self.last_enqueued),
            durable,
            lag: self.last_enqueued - durable.0,
        }
    }

    /// Block until commit `seq` is durable. In async mode this hints
    /// the writer to flush immediately (waiters never sit out the group
    /// delay) and surfaces any writer-side failure; in sync mode it
    /// issues the flush inline. A `seq` beyond
    /// [`WalStore::last_enqueued`] is clamped to it — waiting for a
    /// commit that was never enqueued would wait forever.
    pub fn wait_durable(&mut self, seq: CommitSeq) -> Result<(), StoreError> {
        let seq = seq.0.min(self.last_enqueued);
        match &mut self.mode {
            Mode::Sync { pending, durable, .. } => {
                if *durable < seq {
                    self.backend.lock().expect("backend poisoned").flush()?;
                    self.stats.flushes += 1;
                    *pending = 0;
                    *durable = self.last_enqueued;
                    if let Some(m) = &self.metrics {
                        m.flushes.inc();
                        m.flush_commits.observe(self.sync_inflight.len() as u64);
                        for (_, enqueued) in self.sync_inflight.drain(..) {
                            m.enqueue_to_durable_us
                                .observe(enqueued.elapsed().as_micros() as u64);
                        }
                        m.watermark_lag.set(0);
                    }
                }
                Ok(())
            }
            Mode::Async(w) => w.wait_durable(seq),
        }
    }

    /// Commit the pending change-stream segment: every op captured
    /// since the last commit lands in **one** WAL frame (a
    /// [`WalRecord::Batch`] when there is more than one). Sync mode
    /// appends and flushes here, per `group_commit`; async mode assigns
    /// a [`CommitSeq`], enqueues the segment for the background writer
    /// (blocking only when the bounded queue is full), and returns —
    /// the tick thread never waits on fsync. Returns the number of ops
    /// committed (0 = nothing pending).
    pub fn commit(&mut self) -> Result<usize, StoreError> {
        if self.world.tap_evicted(self.tap) {
            // unreachable with a pinned tap; kept as a loud invariant —
            // an evicted durability tap means records were dropped
            // unlogged, and that must never look like success.
            return Err(StoreError::DurabilityTapEvicted);
        }
        let n = match &mut self.mode {
            Mode::Sync {
                group_commit,
                pending,
                durable,
            } => {
                let mut ops: Vec<WalRecord> = self
                    .world
                    .tap_pending(self.tap)
                    .iter()
                    .map(WalRecord::from_change)
                    .collect();
                if ops.is_empty() {
                    return Ok(0);
                }
                self.world.ack_tap(self.tap);
                let n = ops.len();
                let record = if n == 1 {
                    ops.pop().expect("len checked")
                } else {
                    WalRecord::Batch { ops }
                };
                self.last_enqueued += 1;
                if self.metrics.is_some() {
                    self.sync_inflight.push((self.last_enqueued, Instant::now()));
                }
                let mut b = self.backend.lock().expect("backend poisoned");
                b.append_log(&record.encode());
                *pending += n;
                if *pending >= *group_commit {
                    b.flush()?;
                    drop(b);
                    self.stats.flushes += 1;
                    *pending = 0;
                    *durable = self.last_enqueued;
                    if let Some(m) = &self.metrics {
                        m.flushes.inc();
                        m.flush_commits.observe(self.sync_inflight.len() as u64);
                        for (_, enqueued) in self.sync_inflight.drain(..) {
                            m.enqueue_to_durable_us
                                .observe(enqueued.elapsed().as_micros() as u64);
                        }
                    }
                }
                n
            }
            Mode::Async(w) => {
                // surface writer-side failures from earlier flushes
                // BEFORE acking the tap, so no segment is consumed by a
                // dead pipeline
                w.check()?;
                let pending = self.world.tap_pending(self.tap);
                if pending.is_empty() {
                    return Ok(0);
                }
                let changes: Vec<Change> = pending.to_vec();
                self.world.ack_tap(self.tap);
                let n = changes.len();
                self.last_enqueued += 1;
                w.send(WriterCmd::Frame {
                    seq: self.last_enqueued,
                    changes,
                    enqueued: Instant::now(),
                })?;
                n
            }
        };
        self.stats.records += 1;
        self.stats.ops += n as u64;
        if let Some(m) = &self.metrics {
            m.commits.inc();
            m.commit_ops.add(n as u64);
            m.commit_batch_ops.observe(n as u64);
            let durable = match &self.mode {
                Mode::Sync { durable, .. } => *durable,
                Mode::Async(w) => w.durable(),
            };
            m.watermark_lag
                .set(self.last_enqueued.saturating_sub(durable) as i64);
            if let Mode::Async(w) = &self.mode {
                m.queue_depth.set(w.queue_len() as i64);
            }
        }
        Ok(n)
    }

    /// The subscriber attach point: adopt the live view already
    /// maintaining `query` (first boot registered it, or recovery
    /// re-materialized it), or register — and commit — a fresh one.
    /// Subscribers that take a query (threshold watchers, auditors,
    /// interest bubbles) route their registration through this so the
    /// subscription itself is durable without registering duplicates
    /// after a restart.
    pub fn ensure_view(&mut self, query: Query) -> Result<ViewId, StoreError> {
        match self.world.find_view(&query) {
            Some(id) => Ok(id),
            None => {
                let id = self.world.register_view(query);
                self.commit()?;
                Ok(id)
            }
        }
    }

    /// Write a checkpoint: pending mutations are committed first, then
    /// snapshot + mark. The log logically truncates at the mark (replay
    /// skips everything before it). Checkpoints are durably synchronous
    /// in both modes — the call returns only once the snapshot and its
    /// mark are on disk (in async mode the snapshot is encoded on the
    /// caller's thread, ordered through the writer's queue behind every
    /// enqueued frame, and waited on).
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.commit()?;
        self.snapshot_seq += 1;
        let snap = snapshot::encode(&self.world);
        self.last_enqueued += 1;
        let seq = self.last_enqueued;
        match &mut self.mode {
            Mode::Sync { pending, durable, .. } => {
                let mut b = self.backend.lock().expect("backend poisoned");
                b.put_snapshot(self.snapshot_seq, snap);
                b.append_log(
                    &WalRecord::CheckpointMark {
                        seq: self.snapshot_seq,
                    }
                    .encode(),
                );
                b.flush()?;
                drop(b);
                self.stats.flushes += 1;
                *pending = 0;
                *durable = seq;
                self.stats.checkpoints += 1;
                if let Some(m) = &self.metrics {
                    m.checkpoints.inc();
                    m.flushes.inc();
                    m.flush_commits.observe(self.sync_inflight.len() as u64);
                    for (_, enqueued) in self.sync_inflight.drain(..) {
                        m.enqueue_to_durable_us
                            .observe(enqueued.elapsed().as_micros() as u64);
                    }
                    m.watermark_lag.set(0);
                }
                Ok(())
            }
            Mode::Async(w) => {
                w.send(WriterCmd::Checkpoint {
                    seq,
                    snapshot_seq: self.snapshot_seq,
                    snapshot: snap,
                })?;
                self.stats.checkpoints += 1;
                if let Some(m) = &self.metrics {
                    m.checkpoints.inc();
                }
                w.wait_durable(seq)
            }
        }
    }

    /// Compact the event log: drop every record before the last
    /// checkpoint mark (replay never looks at them) and atomically
    /// rewrite the log as just that tail. Returns (bytes before, bytes
    /// after). The writer is quiesced first ([`WalStore::wait_durable`]
    /// of everything enqueued), so compaction never races an in-flight
    /// append. Without compaction the log grows without bound — this is
    /// the maintenance task a live MMO schedules alongside checkpoints.
    pub fn compact_log(&mut self) -> Result<(u64, u64), StoreError> {
        self.commit()?;
        self.wait_durable(CommitSeq(self.last_enqueued))?;
        let mut b = self.backend.lock().expect("backend poisoned");
        let before = b.log_len()?;
        let log = b.read_log()?;
        let (records, _) = decode_log(&log);
        let cut = records
            .iter()
            .rposition(
                |r| matches!(r, WalRecord::CheckpointMark { seq } if *seq == self.snapshot_seq),
            )
            .unwrap_or(0); // keep the mark itself: recovery anchors on it
        let mut tail = Vec::new();
        for r in &records[cut..] {
            tail.extend_from_slice(&r.encode());
        }
        b.replace_log(&tail);
        b.flush()?;
        let after = b.log_len()?;
        drop(b);
        self.stats.flushes += 1;
        Ok((before, after))
    }

    /// Crash (unflushed writes, in-flight writer frames, and
    /// uncommitted mutations all vanish) then recover: load the latest
    /// decodable durable snapshot — catalog included — and replay the
    /// durable log tail through [`recover_from_parts`]. In async mode
    /// the writer thread is **aborted at whatever it was doing** (no
    /// farewell flush — that is what a crash means) and a fresh writer
    /// is spawned for the recovered store. The recovered world carries
    /// its indexes, its standing views at their original slots
    /// (pre-crash [`ViewId`] handles keep resolving), its lineage, and
    /// its tick counter; view changelogs restart empty at the recovery
    /// tick, a fresh pinned durability tap is attached, and commit
    /// sequences restart at 0. Returns the recovered store and the
    /// number of records replayed.
    pub fn crash_and_recover(mut self) -> Result<(WalStore, usize), StoreError> {
        let blueprint = match &mut self.mode {
            Mode::Sync { group_commit, .. } => Blueprint::Sync(*group_commit),
            Mode::Async(w) => {
                let bp = Blueprint::Async(w.policy, w.queue_cap);
                w.abort_for_crash();
                bp
            }
        };
        let backend = Arc::clone(&self.backend);
        let stats = self.stats;
        let metrics = self.metrics.clone();
        let snapshot_parts;
        let log;
        {
            let mut b = backend.lock().expect("backend poisoned");
            b.crash();
            let mut snaps = Vec::new();
            for seq in b.snapshot_seqs()? {
                snaps.push((seq, b.read_snapshot(seq)?));
            }
            snapshot_parts = snaps;
            log = b.read_log()?;
        }
        drop(self); // old writer (if any) is already down; release the world
        let (mut world, seq, replayed) = recover_from_parts(&snapshot_parts, &log)?;
        let tap = world.attach_tap_pinned();
        Ok((
            Self::assemble(world, tap, backend, seq, blueprint, stats, metrics),
            replayed,
        ))
    }

    /// Deterministically stall the background writer until the returned
    /// gate is dropped — the backpressure regression hook.
    #[cfg(test)]
    fn stall_writer_for_test(&mut self) -> Sender<()> {
        let (gate_tx, gate_rx) = bounded(1);
        match &self.mode {
            Mode::Async(w) => w.send(WriterCmd::Stall(gate_rx)).expect("writer alive"),
            Mode::Sync { .. } => panic!("stall_writer_for_test requires async mode"),
        }
        gate_tx
    }
}

/// The ack-tracking surface consumers outside `persist` gate on — a
/// Strict-level replicator refuses to ship state past the durable
/// watermark (`gamedb-sync`'s `Replicator::sync_stream_durable`).
impl DurabilityWatermark for WalStore {
    fn enqueued_seq(&self) -> u64 {
        self.last_enqueued
    }

    fn durable_seq(&self) -> u64 {
        self.last_durable().0
    }
}

/// Errors from the WAL store.
#[derive(Debug)]
pub enum StoreError {
    Core(CoreError),
    Backend(BackendError),
    /// The world's tap-retention policy evicted the durability tap:
    /// mutations were dropped unlogged, so commits can no longer claim
    /// durability. Unreachable since the durability tap became pinned
    /// ([`World::attach_tap_pinned`]); kept as a loud invariant.
    DurabilityTapEvicted,
    /// The background writer failed (I/O error or backend crash) on an
    /// earlier flush; the message names the original failure. Surfaced
    /// on the first commit/wait after the failure, never lost.
    Writer(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Core(e) => write!(f, "world: {e}"),
            StoreError::Backend(e) => write!(f, "backend: {e}"),
            StoreError::DurabilityTapEvicted => write!(
                f,
                "durability tap evicted by the tap-retention policy: \
                 mutations were dropped unlogged"
            ),
            StoreError::Writer(msg) => write!(f, "wal writer: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CoreError> for StoreError {
    fn from(e: CoreError) -> Self {
        StoreError::Core(e)
    }
}

impl From<BackendError> for StoreError {
    fn from(e: BackendError) -> Self {
        StoreError::Backend(e)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::temp_dir;
    use gamedb_content::{CmpOp, Value, ValueType};
    use gamedb_core::{Effect, EffectBuffer, IndexKind, TickExecutor, WriteBatch};
    use gamedb_spatial::Vec2;

    fn fresh(group_commit: usize, label: &str) -> WalStore {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let backend = Backend::open(temp_dir(label)).unwrap();
        WalStore::new(w, backend, group_commit).unwrap()
    }

    #[test]
    fn compaction_shrinks_log_and_preserves_recovery() {
        let mut s = fresh(1, "wal-compact");
        let e = s.world_mut().spawn_at(Vec2::new(0.0, 0.0));
        s.commit().unwrap();
        for i in 0..200 {
            s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
            s.commit().unwrap();
        }
        s.checkpoint().unwrap();
        // post-checkpoint writes must survive compaction
        s.world_mut().set(e, "hp", Value::Float(777.0)).unwrap();
        s.commit().unwrap();
        let (before, after) = s.compact_log().unwrap();
        assert!(after < before / 4, "before={before} after={after}");
        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(777.0));
        assert_eq!(replayed, 1, "only the post-checkpoint record replays");
    }

    /// The regression the pinned tap closes: a tap-retention policy on
    /// the store's own world used to evict the durability tap under
    /// churn, turning every later commit into an error (and before
    /// that, into silent data loss). The durability tap is now pinned
    /// ([`World::attach_tap_pinned`]) — retention skips it, the window
    /// simply outgrows the limit, and every op still reaches the log.
    #[test]
    fn pinned_durability_tap_survives_retention_pressure() {
        let mut s = fresh(1, "wal-pinned");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap();
        // a retention window far smaller than the churn burst
        s.world_mut().set_tap_retention(Some(8));
        for i in 0..64 {
            s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
        }
        assert_eq!(s.uncommitted(), 64, "pinned tap kept every record");
        assert_eq!(s.commit().unwrap(), 64);
        s.checkpoint().unwrap();
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(63.0));
    }

    #[test]
    fn compaction_without_checkpoint_is_safe() {
        let mut s = fresh(1, "wal-compact2");
        let e = s.world_mut().spawn_at(Vec2::new(0.0, 0.0));
        s.world_mut().set(e, "hp", Value::Float(5.0)).unwrap();
        s.commit().unwrap();
        let (before, after) = s.compact_log().unwrap();
        assert_eq!(before, after, "nothing before the base mark to drop");
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(5.0));
    }

    #[test]
    fn repeated_compaction_is_idempotent() {
        let mut s = fresh(1, "wal-compact3");
        let e = s.world_mut().spawn_at(Vec2::new(0.0, 0.0));
        for i in 0..50 {
            s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
            s.commit().unwrap();
        }
        s.checkpoint().unwrap();
        let (_, first) = s.compact_log().unwrap();
        let (before2, second) = s.compact_log().unwrap();
        assert_eq!(first, before2);
        assert_eq!(first, second);
    }

    #[test]
    fn synchronous_logging_loses_nothing() {
        let mut s = fresh(1, "wal-sync");
        let e = s.world_mut().spawn_at(Vec2::new(1.0, 2.0));
        s.commit().unwrap();
        s.world_mut().set(e, "hp", Value::Float(33.0)).unwrap();
        s.commit().unwrap();
        s.world_mut().set_pos(e, Vec2::new(5.0, 5.0)).unwrap();
        s.commit().unwrap();
        let live_rows = s.world().rows();
        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().rows(), live_rows);
        assert_eq!(replayed, 3, "one frame per commit");
    }

    #[test]
    fn uncommitted_mutations_are_lost_committed_ones_are_not() {
        let mut s = fresh(1, "wal-uncommitted");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.world_mut().set(e, "hp", Value::Float(1.0)).unwrap();
        assert_eq!(s.uncommitted(), 3, "spawn + pos + hp captured");
        s.commit().unwrap();
        assert_eq!(s.uncommitted(), 0);
        // mutated but never committed: the crash eats it
        s.world_mut().set(e, "hp", Value::Float(99.0)).unwrap();
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(1.0));
    }

    #[test]
    fn group_commit_bounds_loss() {
        let mut s = fresh(10, "wal-group");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap(); // 2 ops buffered (spawn + pos)
        // 8 more single-op commits => exactly one flush of 10 fires
        for i in 0..8 {
            s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
            s.commit().unwrap();
        }
        // 3 committed-but-unflushed frames follow
        for i in 100..103 {
            s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
            s.commit().unwrap();
        }
        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(replayed, 9, "only the flushed group survives");
        assert_eq!(
            recovered.world().get_f32(e, "hp"),
            Some(7.0),
            "last durable write wins; the 3 unflushed are lost"
        );
    }

    #[test]
    fn batch_commit_is_one_frame_and_atomic() {
        let mut s = fresh(1, "wal-batchframe");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap();
        let frames_before = s.stats.records;
        // a multi-op mutation burst commits as one frame
        let mut batch = WriteBatch::new();
        for i in 0..10 {
            batch.set(e, "hp", Value::Float(i as f32));
        }
        s.world_mut().apply_batch(batch).unwrap();
        let n = s.commit().unwrap();
        assert_eq!(n, 10);
        assert_eq!(s.stats.records, frames_before + 1, "one frame per batch");
        // a torn batch frame drops the whole batch, not half of it
        let log = s.backend().read_log().unwrap();
        let (full, _) = decode_log(&log);
        let (torn, _) = decode_log(&log[..log.len() - 1]);
        assert_eq!(torn.len(), full.len() - 1, "batch frames are atomic");
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(9.0));
    }

    /// The durability hole the pipeline closes: an effect batch applied
    /// straight to `world_mut()` — the path the old mirrored API could
    /// not see — survives crash and recovery bit-identically.
    #[test]
    fn effect_batches_through_world_mut_are_durable() {
        let mut s = fresh(1, "wal-effects");
        let a = s.world_mut().spawn_at(Vec2::ZERO);
        let b = s.world_mut().spawn_at(Vec2::new(1.0, 0.0));
        s.world_mut().set(a, "hp", Value::Float(50.0)).unwrap();
        s.world_mut().set(b, "hp", Value::Float(50.0)).unwrap();
        s.commit().unwrap();

        let mut buf = EffectBuffer::new();
        buf.push(a, "hp", Effect::Add(-10.0));
        buf.push(b, "hp", Effect::Add(5.0));
        buf.push(b, "pos", Effect::AddVec2(2.0, 0.0));
        buf.apply(s.world_mut()).unwrap();
        s.commit().unwrap();

        let live = s.world().rows();
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().rows(), live);
        assert_eq!(recovered.world().get_f32(a, "hp"), Some(40.0));
    }

    /// A whole executor tick against the store's world — systems,
    /// merged effects, tick bump — is durable with one commit.
    #[test]
    fn executor_ticks_through_world_mut_are_durable() {
        let mut s = fresh(1, "wal-tick");
        for i in 0..4 {
            let e = s.world_mut().spawn_at(Vec2::new(i as f32, 0.0));
            s.world_mut().set(e, "hp", Value::Float(100.0)).unwrap();
        }
        s.commit().unwrap();
        let drain: &gamedb_core::System<'_> = &|id, _w, buf: &mut EffectBuffer| {
            buf.push(id, "hp", Effect::Add(-7.0));
        };
        for _ in 0..3 {
            TickExecutor::sequential()
                .run_tick(s.world_mut(), &[drain])
                .unwrap();
            s.commit().unwrap();
        }
        let live = s.world().rows();
        let tick = s.world().tick();
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().rows(), live);
        assert_eq!(recovered.world().tick(), tick, "tick counter recovers");
    }

    #[test]
    fn checkpoint_truncates_replay() {
        let mut s = fresh(1, "wal-cp");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap();
        for i in 0..50 {
            s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
            s.commit().unwrap();
        }
        s.checkpoint().unwrap();
        s.world_mut().set(e, "hp", Value::Float(999.0)).unwrap();
        s.commit().unwrap();
        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(replayed, 1, "only the post-checkpoint tail replays");
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(999.0));
    }

    #[test]
    fn checkpoint_commits_pending_mutations_first() {
        let mut s = fresh(1, "wal-cp-pending");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.world_mut().set(e, "hp", Value::Float(41.0)).unwrap();
        // no explicit commit: checkpoint must not strand these
        s.checkpoint().unwrap();
        assert_eq!(s.uncommitted(), 0);
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(41.0));
    }

    #[test]
    fn despawn_survives_recovery() {
        let mut s = fresh(1, "wal-despawn");
        let a = s.world_mut().spawn_at(Vec2::ZERO);
        let b = s.world_mut().spawn_at(Vec2::new(1.0, 0.0));
        s.world_mut().despawn(a);
        s.commit().unwrap();
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert!(!recovered.world().is_live(a));
        assert!(recovered.world().is_live(b));
        assert_eq!(recovered.world().len(), 1);
    }

    #[test]
    fn unpositioned_spawns_are_durable() {
        // spawn() (no position) was unloggable under the mirrored API
        let mut s = fresh(1, "wal-flag");
        let flag = s.world_mut().spawn();
        s.world_mut()
            .define_component("armed", ValueType::Bool)
            .unwrap();
        s.world_mut().set(flag, "armed", Value::Bool(true)).unwrap();
        s.commit().unwrap();
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert!(recovered.world().is_live(flag));
        assert_eq!(recovered.world().pos(flag), None);
        assert_eq!(recovered.world().get_bool(flag, "armed"), Some(true));
    }

    #[test]
    fn recovery_then_continue_then_recover_again() {
        let mut s = fresh(1, "wal-twice");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.world_mut().set(e, "hp", Value::Float(1.0)).unwrap();
        s.commit().unwrap();
        let (mut s, _) = s.crash_and_recover().unwrap();
        s.world_mut().set(e, "hp", Value::Float(2.0)).unwrap();
        let f = s.world_mut().spawn_at(Vec2::new(9.0, 9.0));
        s.commit().unwrap();
        let (s, _) = s.crash_and_recover().unwrap();
        assert_eq!(s.world().get_f32(e, "hp"), Some(2.0));
        assert!(s.world().is_live(f));
    }

    #[test]
    fn catalog_operations_survive_recovery() {
        let mut s = fresh(1, "wal-catalog");
        let a = s.world_mut().spawn_at(Vec2::ZERO);
        let b = s.world_mut().spawn_at(Vec2::new(50.0, 0.0));
        s.world_mut().set(a, "hp", Value::Float(5.0)).unwrap();
        s.world_mut().set(b, "hp", Value::Float(80.0)).unwrap();
        s.world_mut().create_index("hp", IndexKind::Sorted).unwrap();
        let wounded = s
            .world_mut()
            .register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0)));
        let near = s
            .world_mut()
            .register_view(Query::select().within(Vec2::ZERO, 10.0));
        s.world_mut()
            .retarget_view(near, Vec2::new(50.0, 0.0), 10.0);
        let t = s.world().tick();
        s.world_mut().advance_tick_to(t + 1);
        s.world_mut().remove_component(a, "hp").unwrap();
        let t = s.world().tick();
        s.world_mut().advance_tick_to(t + 1);
        s.commit().unwrap();

        let (recovered, _) = s.crash_and_recover().unwrap();
        let w = recovered.world();
        assert_eq!(w.tick(), 2, "tick counter recovers");
        // pre-crash handles resolve against the recovered world
        assert!(w.has_view(wounded));
        assert!(w.has_view(near));
        assert_eq!(w.view_rows(wounded), w.view_query(wounded).run_scan(w));
        assert!(w.view_rows(wounded).is_empty(), "a lost its hp component");
        assert_eq!(w.view_rows(near), &[b], "retarget survived");
        assert!(
            w.view_changelog(wounded).is_empty() && w.view_changelog(near).is_empty(),
            "changelogs re-anchor at the recovery tick"
        );
        // the rebuilt index answers probes exactly
        let mut out = vec![];
        assert!(w.index_probe("hp", CmpOp::Ge, &Value::Float(0.0), &mut out));
        assert_eq!(out, vec![b]);
    }

    #[test]
    fn dropped_catalog_entries_stay_dropped_after_recovery() {
        let mut s = fresh(1, "wal-catalog-drop");
        s.world_mut().create_index("hp", IndexKind::Hash).unwrap();
        let v = s.world_mut().register_view(Query::select());
        s.checkpoint().unwrap();
        s.world_mut().drop_view(v);
        s.world_mut().drop_index("hp");
        s.commit().unwrap();
        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(replayed, 1, "both drops share one batch frame");
        let w = recovered.world();
        assert!(!w.has_view(v), "dropped view stays dropped");
        assert!(w.index_on("hp").is_none(), "dropped index stays dropped");
        // the burned slot is not reused
        let cat = w.export_catalog();
        assert_eq!(cat.view_slots, 1);
        assert!(cat.plan_views.is_empty());
    }

    #[test]
    fn catalog_in_snapshot_and_in_tail_compose() {
        let mut s = fresh(1, "wal-catalog-compose");
        let a = s.world_mut().spawn_at(Vec2::ZERO);
        s.world_mut().set(a, "hp", Value::Float(5.0)).unwrap();
        // index before the checkpoint (arrives via snapshot catalog)
        s.world_mut().create_index("hp", IndexKind::Sorted).unwrap();
        s.checkpoint().unwrap();
        // view after the checkpoint (arrives via WAL replay)
        let v = s
            .world_mut()
            .register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0)));
        let b = s.world_mut().spawn_at(Vec2::ZERO);
        s.world_mut().set(b, "hp", Value::Float(1.0)).unwrap();
        s.commit().unwrap();
        let (recovered, _) = s.crash_and_recover().unwrap();
        let w = recovered.world();
        assert_eq!(
            w.indexed_components().collect::<Vec<_>>(),
            vec![("hp", IndexKind::Sorted)]
        );
        assert_eq!(w.view_rows(v), &[a, b]);
        assert_eq!(w.view_rows(v), w.view_query(v).run_scan(w));
    }

    #[test]
    fn recovery_tolerates_a_corrupt_latest_snapshot() {
        use std::io::Write;
        let mut s = fresh(1, "wal-snap-fallback");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.world_mut().set(e, "hp", Value::Float(3.0)).unwrap();
        s.checkpoint().unwrap();
        s.world_mut().set(e, "hp", Value::Float(9.0)).unwrap();
        s.commit().unwrap();
        // scribble over snapshot 1: recovery must fall back to snapshot 0
        // and replay the full tail (whose mark-1 record is a no-op)
        let path = s.backend().dir().join("snapshot-1.db");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(b"scribble").unwrap();
        drop(f);
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(9.0));
    }

    #[test]
    fn stats_track_activity() {
        let mut s = fresh(2, "wal-stats");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap(); // 1 frame, 2 ops
        s.world_mut().set(e, "hp", Value::Float(1.0)).unwrap();
        s.commit().unwrap();
        s.world_mut().set(e, "hp", Value::Float(2.0)).unwrap();
        s.commit().unwrap();
        s.checkpoint().unwrap();
        assert_eq!(s.stats.records, 3);
        assert_eq!(s.stats.ops, 4);
        assert!(s.stats.flushes >= 2);
        assert_eq!(s.stats.checkpoints, 1);
    }

    // ---- async writer mode ----

    fn fresh_async(policy: FlushPolicy, queue: usize, label: &str) -> WalStore {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let backend = Backend::open(temp_dir(label)).unwrap();
        WalStore::new_async(w, backend, policy, queue).unwrap()
    }

    #[test]
    fn async_commit_is_enqueue_and_watermark_catches_up() {
        let mut s = fresh_async(FlushPolicy::flush_every(512, 1000), 64, "wal-async-basic");
        assert!(s.is_async());
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap();
        for i in 0..20 {
            s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
            s.commit().unwrap();
        }
        assert_eq!(s.last_enqueued(), CommitSeq(21));
        assert!(s.last_durable() <= s.last_enqueued());
        s.wait_durable(s.last_enqueued()).unwrap();
        assert_eq!(s.last_durable(), CommitSeq(21));
        assert_eq!(s.unacked(), 0);
        assert!(s.writer_flushes() >= 1);
    }

    /// The headline contract: `wait_durable(last_enqueued())` then
    /// crash-and-recover loses **zero** ops, bit-identically.
    #[test]
    fn wait_durable_then_crash_loses_zero_ops() {
        let mut s = fresh_async(FlushPolicy::flush_every(512, 1000), 8, "wal-async-zeroloss");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap();
        for i in 0..100 {
            s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
            s.commit().unwrap();
        }
        s.wait_durable(s.last_enqueued()).unwrap();
        let live = s.world().rows();
        let tick = s.world().tick();
        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(replayed, 101, "every acked frame recovers");
        assert_eq!(recovered.world().rows(), live);
        assert_eq!(recovered.world().tick(), tick);
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(99.0));
        assert!(recovered.is_async(), "recovered store keeps its mode");
    }

    /// Without a wait, a crash loses at most the unacked window — and
    /// never an op at or below the published durable watermark.
    #[test]
    fn async_crash_loses_at_most_the_unacked_window() {
        let mut s = fresh_async(FlushPolicy::flush_every(4, 1000), 64, "wal-async-window");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap();
        for i in 0..50 {
            s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
            s.commit().unwrap();
        }
        let acked = s.last_durable().as_u64();
        let (_recovered, replayed) = s.crash_and_recover().unwrap();
        assert!(
            replayed as u64 >= acked,
            "acked {acked} commits, only {replayed} recovered"
        );
        assert!(replayed <= 51, "can't recover more than was committed");
    }

    /// A full queue blocks the committer (backpressure) — and while the
    /// writer is stalled, a tap-retention policy on the store's world
    /// must not evict the pinned durability tap.
    #[test]
    fn stalled_writer_backpressures_commit_and_never_evicts_the_tap() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut s = fresh_async(FlushPolicy::flush_every(1, 1), 2, "wal-async-stall");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap();
        s.wait_durable(s.last_enqueued()).unwrap();
        s.world_mut().set_tap_retention(Some(4));
        let gate = s.stall_writer_for_test();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let store = &mut s;
            let done_ref = &done;
            let worker = scope.spawn(move || {
                for i in 0..8 {
                    store
                        .world_mut()
                        .set(e, "hp", Value::Float(i as f32))
                        .unwrap();
                    store.commit().unwrap();
                }
                done_ref.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            // 8 commits into a queue of 2 behind a stalled writer
            // cannot all have completed (conservative: a false pass is
            // possible under extreme scheduling, a false fail is not)
            assert!(
                !done.load(Ordering::SeqCst),
                "commit must block on a full writer queue, not drop"
            );
            drop(gate); // un-stall: the queue drains
            worker.join().unwrap();
        });
        s.wait_durable(s.last_enqueued()).unwrap();
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert_eq!(
            recovered.world().get_f32(e, "hp"),
            Some(7.0),
            "no op was dropped by backpressure or tap retention"
        );
    }

    /// A writer-side backend fault freezes the watermark at the last
    /// clean flush and surfaces on wait and on the next commit — never
    /// silently lost.
    #[test]
    fn writer_fault_surfaces_on_wait_and_next_commit() {
        use crate::backend::FaultKind;
        let mut s = fresh_async(FlushPolicy::flush_every(1, 1000), 8, "wal-async-err");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap();
        s.wait_durable(s.last_enqueued()).unwrap();
        let acked = s.last_durable();
        let len = s.backend().log_len().unwrap();
        s.backend_mut().schedule_log_fault(len, FaultKind::Torn);
        s.world_mut().set(e, "hp", Value::Float(1.0)).unwrap();
        s.commit().unwrap();
        assert!(matches!(
            s.wait_durable(s.last_enqueued()),
            Err(StoreError::Writer(_))
        ));
        assert_eq!(s.last_durable(), acked, "watermark never claims past a fault");
        s.world_mut().set(e, "hp", Value::Float(2.0)).unwrap();
        assert!(matches!(s.commit(), Err(StoreError::Writer(_))));
        assert_eq!(s.uncommitted(), 1, "a dead pipeline consumes no segment");
    }

    /// Dropping an async store is a clean shutdown: the writer drains
    /// and flushes everything enqueued, so a reopened backend sees it.
    #[test]
    fn drop_drains_and_flushes_the_queue() {
        let dir;
        let e;
        {
            let mut s = fresh_async(FlushPolicy::flush_every(512, 1000), 64, "wal-async-drop");
            dir = s.backend().dir().to_path_buf();
            e = s.world_mut().spawn_at(Vec2::ZERO);
            for i in 0..30 {
                s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
            }
            s.commit().unwrap();
            assert!(s.last_durable() <= s.last_enqueued());
        } // drop: disconnect, writer flushes the tail, join
        let b = Backend::open(dir).unwrap();
        let log = b.read_log().unwrap();
        let snaps: Vec<(u64, Vec<u8>)> = b
            .snapshot_seqs()
            .unwrap()
            .into_iter()
            .map(|seq| (seq, b.read_snapshot(seq).unwrap()))
            .collect();
        let (world, _, _) = recover_from_parts(&snaps, &log).unwrap();
        assert_eq!(world.get_f32(e, "hp"), Some(29.0));
    }

    /// Async checkpoints are durably synchronous: snapshot + mark are
    /// on disk when the call returns, and replay truncates at the mark.
    #[test]
    fn async_checkpoint_is_durable_and_truncates_replay() {
        let mut s = fresh_async(FlushPolicy::flush_every(512, 1000), 8, "wal-async-cp");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        for i in 0..40 {
            s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
            s.commit().unwrap();
        }
        s.checkpoint().unwrap();
        assert_eq!(s.unacked(), 0, "checkpoint waits for its own flush");
        s.world_mut().set(e, "hp", Value::Float(777.0)).unwrap();
        s.commit().unwrap();
        s.wait_durable(s.last_enqueued()).unwrap();
        let (before, after) = s.compact_log().unwrap();
        assert!(after < before, "pre-checkpoint frames compact away");
        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(replayed, 1, "only the post-checkpoint tail replays");
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(777.0));
    }

    /// The async path must produce byte-identical WAL frames to the
    /// sync path for the same mutation sequence — recovery is the same
    /// algorithm over the same bytes.
    #[test]
    fn async_log_bytes_match_sync_log_bytes() {
        let run = |mut s: WalStore| -> Vec<u8> {
            let e = s.world_mut().spawn_at(Vec2::ZERO);
            s.commit().unwrap();
            for i in 0..10 {
                s.world_mut().set(e, "hp", Value::Float(i as f32)).unwrap();
                if i % 3 == 0 {
                    let t = s.world().tick();
                    s.world_mut().advance_tick_to(t + 1);
                }
                s.commit().unwrap();
            }
            s.wait_durable(s.last_enqueued()).unwrap();
            let log = s.backend().read_log().unwrap();
            log
        };
        let sync_log = run(fresh(1, "wal-bytes-sync"));
        let async_log = run(fresh_async(
            FlushPolicy::flush_every(4, 2),
            8,
            "wal-bytes-async",
        ));
        assert_eq!(sync_log, async_log, "frame encoding is mode-invariant");
    }

    #[test]
    fn durability_watermark_trait_reports_drained() {
        let mut s = fresh_async(FlushPolicy::flush_every(512, 1000), 8, "wal-async-trait");
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap();
        s.wait_durable(s.last_enqueued()).unwrap();
        assert!(DurabilityWatermark::is_drained(&s));
        s.world_mut().set(e, "hp", Value::Float(1.0)).unwrap();
        s.commit().unwrap();
        // may or may not have flushed yet; enqueued is authoritative
        assert_eq!(s.enqueued_seq(), 2);
        s.wait_durable(CommitSeq(2)).unwrap();
        assert!(s.is_drained());
        assert_eq!(s.durable_seq(), 2);
    }

    /// `wait_durable` past `last_enqueued` clamps instead of hanging.
    #[test]
    fn wait_durable_clamps_to_enqueued() {
        let mut s = fresh_async(FlushPolicy::flush_every(512, 1000), 8, "wal-async-clamp");
        s.wait_durable(CommitSeq(u64::MAX)).unwrap();
        let e = s.world_mut().spawn_at(Vec2::ZERO);
        s.commit().unwrap();
        s.wait_durable(CommitSeq(u64::MAX)).unwrap();
        assert_eq!(s.last_durable(), CommitSeq(1));
        let _ = e;
    }
}
