//! `tickledger`: one seeded game-server workload per process, timed end
//! to end (tracing off) or split into per-layer spans (tracing on).
//!
//! ```text
//! tickledger --workload scripted_combat|shard_churn|query_mix --seed N
//!            --seconds S --trace 0|1 --data-dir DIR [--ticks N]
//! ```
//!
//! Every input is generated from `--seed`. The timed loop runs for
//! `--seconds` (at least [`MIN_TICKS`] ticks), or for exactly `--ticks`
//! ticks when given — the traced run replays the untraced run's tick
//! count so both end in the same world state. The last stdout line is a
//! JSON object; `run.py` turns it into the benchmark's result line.

mod layers;
mod ledger;
mod probe;
mod query_mix;
mod scripted_combat;
mod shard_churn;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gamedb::core::World;
use gamedb::metrics::{MetricsRegistry, Snapshot};
use gamedb::persist::{recover_from_parts, WalStore};
use layers::Tally;
use ledger::{median, quantile, tail, Report, Tracer};
use probe::QueryLog;

/// Fewest timed ticks a run makes, so the tail percentile keeps ten
/// samples above it.
const MIN_TICKS: usize = 20;

/// Setups a run times; `setup_s` is their median. The count is fixed,
/// traced runs included: building and dropping worlds shapes the heap
/// the timed loop then runs on, so every run must do the same.
const SETUP_REPS: usize = 5;

/// Recoveries a run times: one every tenth of the timed loop, or every
/// four recovery durations when that is longer; at least three.
/// `recover_s` is their median.
const RECOVER_EVERY: (f64, f64, usize) = (0.1, 4.0, 3);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ticks: Option<usize>,
    pub data_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace, mut ticks, mut data_dir) =
            (None, None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => trace = Some(value == "1"),
                "--ticks" => ticks = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
                "--data-dir" => data_dir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            ticks,
            data_dir: data_dir.ok_or("--data-dir is required")?,
        })
    }

    /// A fresh backend directory under the data dir.
    pub fn store_dir(&self) -> PathBuf {
        let dir = self.data_dir.join("store");
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Decides when the timed loop stops.
pub struct Clock {
    start: Instant,
    budget: Duration,
    fixed: Option<usize>,
}

impl Clock {
    pub fn start(args: &Args) -> Clock {
        Clock {
            start: Instant::now(),
            budget: Duration::from_secs_f64(args.seconds),
            fixed: args.ticks,
        }
    }

    /// Whether tick number `done` (0-based) should run.
    pub fn more(&self, done: usize) -> bool {
        match self.fixed {
            Some(n) => done < n,
            None => done < MIN_TICKS || self.start.elapsed() < self.budget,
        }
    }

    /// True once `frac` of the budget has passed (or of the fixed ticks).
    pub fn past(&self, done: usize, frac: f64) -> bool {
        let of = |n: usize| (n as f64 * frac) as usize;
        match self.fixed {
            Some(n) => done >= of(n),
            None => self.start.elapsed() >= self.budget.mul_f64(frac) && done >= of(MIN_TICKS),
        }
    }
}

/// Build the workload [`SETUP_REPS`] times, keeping the last build;
/// reports `setup_s`. Each build is dropped before the next starts, so
/// only one lives at a time.
pub fn timed_setups<S>(report: &mut Report, mut build: impl FnMut() -> S) -> S {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&secs), "s");
    built.expect("at least one setup")
}

/// One component of what recovery must reproduce, as a digest.
pub type Image = Vec<(&'static str, u64)>;

/// Checkpoint, then drop the log before the checkpoint mark and every
/// older snapshot, so recovery reads one snapshot and replays only what
/// follows it.
pub fn checkpoint_and_compact(store: &mut WalStore, report: &mut Report) {
    let r = store.checkpoint();
    report.ops.record("checkpoint", r);
    let r = store.compact_log();
    report.ops.record("compact log", r);
    let r = store.backend_mut().prune_snapshots(1);
    report.ops.record("prune snapshots", r);
}

/// `recover_s`, sampled across the timed loop. [`Recovery::capture`]
/// reads the recovery input once, as a crash would leave it on disk
/// (the durable snapshots and log), with the [`Image`] the recovered
/// world must show. [`Recovery::between_ticks`] then recovers from that
/// input at intervals (snapshot decode, WAL tail replay, index and view
/// rebuild), so the median sees the whole run, not one moment of it.
pub struct Recovery {
    snapshots: Vec<(u64, Vec<u8>)>,
    log: Vec<u8>,
    expect: Image,
    every: Duration,
    next: Instant,
    secs: Vec<f64>,
}

impl Recovery {
    /// Call with everything committed and durable.
    pub fn capture(store: &WalStore, args: &Args, expect: Image) -> Recovery {
        let backend = store.backend();
        let seqs = backend.snapshot_seqs().expect("list snapshots");
        let snapshots = seqs
            .into_iter()
            .map(|seq| (seq, backend.read_snapshot(seq).expect("read snapshot")))
            .collect();
        let log = backend.read_log().expect("read log");
        let every = Duration::from_secs_f64(args.seconds * RECOVER_EVERY.0);
        Recovery {
            snapshots,
            log,
            expect,
            every,
            next: Instant::now() + every / 2,
            secs: Vec::new(),
        }
    }

    fn run(&mut self, report: &mut Report, tally: &mut Tally, image: &impl Fn(&World) -> Image) {
        let t0 = Instant::now();
        let recovered = recover_from_parts(&self.snapshots, &self.log);
        let secs = t0.elapsed().as_secs_f64();
        let i = self.secs.len();
        let (world, _, replayed) = match recovered {
            Ok(r) => r,
            Err(e) => {
                report
                    .checks
                    .check(false, || format!("recovery {i} failed: {e}"));
                return;
            }
        };
        self.secs.push(secs);
        report.checks.check(replayed > 0, || {
            format!("recovery {i} replayed no WAL tail")
        });
        for ((name, want), (_, got)) in self.expect.iter().zip(image(&world)) {
            report.checks.check(*want == got, || {
                format!("recovery {i}: {name} differs from the captured world")
            });
        }
        tally.replayed_records = replayed as u64;
        tally.snapshot_bytes = self.snapshots.last().map_or(0, |(_, b)| b.len() as u64);
        let gap = self
            .every
            .max(Duration::from_secs_f64(secs * RECOVER_EVERY.1));
        self.next = Instant::now() + gap;
    }

    /// Recover once when the next one is due.
    pub fn between_ticks(
        &mut self,
        report: &mut Report,
        tally: &mut Tally,
        image: &impl Fn(&World) -> Image,
    ) {
        if Instant::now() >= self.next {
            self.run(report, tally, image);
        }
    }

    /// Top up to the minimum count and report `recover_s`.
    pub fn finish(
        mut self,
        report: &mut Report,
        tally: &mut Tally,
        image: &impl Fn(&World) -> Image,
    ) {
        while self.secs.len() < RECOVER_EVERY.2 && report.checks.ok() {
            self.run(report, tally, image);
        }
        report.metric("recover_s", median(&self.secs), "s");
        report.note(format!("recover_s is the median of {:.3?}", self.secs));
    }
}

/// The end-of-run crash: `crash_and_recover` must give back the live
/// world at the last commit, as `image` sees it.
/// Returns the number of WAL records replayed.
pub fn crash_check(store: WalStore, report: &mut Report, image: impl Fn(&World) -> Image) -> usize {
    let live = image(store.world());
    match store.crash_and_recover() {
        Ok((recovered, replayed)) => {
            report.note(format!("end-of-run crash: {replayed} WAL records replayed"));
            for ((name, want), (_, got)) in live.iter().zip(image(recovered.world())) {
                report.checks.check(*want == got, || {
                    format!("end-of-run recovery: {name} differs from live")
                });
            }
            replayed
        }
        Err(e) => {
            report
                .checks
                .check(false, || format!("end-of-run recovery failed: {e}"));
            0
        }
    }
}

/// Where a tick's measurements go when the tick is not timed (warm-up
/// and the recovery tail).
pub struct Untimed {
    pub tracer: Tracer,
    pub tally: Tally,
}

impl Default for Untimed {
    fn default() -> Self {
        Untimed {
            tracer: Tracer::new(false),
            tally: Tally::default(),
        }
    }
}

/// WAL and registry readings at the start of the timed loop.
pub struct LoopStart {
    log_len: u64,
    ops: u64,
    registry: Snapshot,
}

impl LoopStart {
    pub fn take(store: &WalStore, registry: &MetricsRegistry) -> LoopStart {
        LoopStart {
            log_len: store.backend().log_len().expect("log length"),
            ops: store.stats.ops,
            registry: registry.snapshot(),
        }
    }

    /// Call right after the timed loop, with the writer drained.
    /// Reports `wal_bytes_per_write` (log growth ÷ ops committed since
    /// [`LoopStart::take`]) and `peak_rss_mb` (the process's peak so
    /// far: set-up and the timed loop, not the end-of-run log compaction
    /// and recovery, whose input grows with the run's length). Returns
    /// the log growth and the registry's change.
    pub fn finish(
        &self,
        store: &WalStore,
        registry: &MetricsRegistry,
        report: &mut Report,
    ) -> (u64, Snapshot) {
        report.metric("peak_rss_mb", ledger::peak_rss_mb(), "MB");
        let log_bytes = store.backend().log_len().expect("log length") - self.log_len;
        let ops = store.stats.ops - self.ops;
        report.metric(
            "wal_bytes_per_write",
            log_bytes as f64 / ops.max(1) as f64,
            "B",
        );
        report.note(format!(
            "{ops} ops committed in the timed loop, {log_bytes} log bytes"
        ));
        (log_bytes, registry.snapshot().delta(&self.registry))
    }
}

/// `tick_p50_ms` and `tick_tail_ms` from per-tick wall times.
pub fn tick_metrics(report: &mut Report, walls_ms: &[f64]) {
    report.metric("tick_p50_ms", median(walls_ms), "ms");
    match tail(walls_ms) {
        Some((v, pct)) => {
            report.metric("tick_tail_ms", v, "ms");
            report.note(format!(
                "tick_tail_ms is p{pct:.1} of {} timed ticks",
                walls_ms.len()
            ));
        }
        None => report.checks.check(false, || {
            format!("only {} timed ticks: no tail percentile", walls_ms.len())
        }),
    }
}

/// Per-kind medians and the whole-mix p99 of the queries.
pub fn query_metrics(report: &mut Report, log: &QueryLog) {
    for (metric, kind) in [
        ("query.lookup_p50_us", "query.lookup"),
        ("query.range_p50_us", "query.range"),
        ("query.nearby_p50_us", "query.nearby"),
    ] {
        let v = log.kind_us(kind);
        report
            .checks
            .check(!v.is_empty(), || format!("no {kind} samples"));
        report.metric(metric, median(v), "us");
    }
    report.metric("query_p99_us", quantile(&log.all_us, 0.99), "us");
    report.note(format!(
        "queries: {} total ({} nearby, {} lookup, {} range, {} count)",
        log.all_us.len(),
        log.kind_us("query.nearby").len(),
        log.kind_us("query.lookup").len(),
        log.kind_us("query.range").len(),
        log.kind_us("query.count").len(),
    ));
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tickledger: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.data_dir) {
        eprintln!("tickledger: cannot create {}: {e}", args.data_dir.display());
        std::process::exit(2);
    }
    let mut report = match args.workload.as_str() {
        "scripted_combat" => scripted_combat::run(&args),
        "shard_churn" => shard_churn::run(&args),
        "query_mix" => query_mix::run(&args),
        other => {
            eprintln!("tickledger: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let attempted = report.ops.attempted.max(1) as f64;
    report.note(format!(
        "failed_frac = {} ({} failed of {} attempted)",
        report.ops.failed as f64 / attempted,
        report.ops.failed,
        report.ops.attempted
    ));
    report.print();
    if !report.checks.ok() {
        std::process::exit(1);
    }
}
