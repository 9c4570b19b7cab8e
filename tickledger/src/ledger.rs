//! Measurement plumbing shared by the workloads: spans, order
//! statistics, failure accounting, output checks, world digests and the
//! report line `run.py` parses.

use std::fmt::{Display, Write as _};
use std::time::Instant;

use gamedb::core::World;

/// One timed call into a layer. `tick` is the loop iteration the call
/// belongs to; `name` is `layer.call` (the layer is the part before the
/// first dot).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub tick: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder. When off, [`Tracer::span`] only calls the
/// closure: the untraced run pays one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f`, recording a span around it when tracing is on.
    pub fn span<T>(&mut self, name: &'static str, tick: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tick,
            start_ns,
            end_ns,
        });
        out
    }

    /// Start of a span closed later by [`Tracer::close`] (0 when off).
    pub fn open(&self) -> u64 {
        if self.on {
            self.now_ns()
        } else {
            0
        }
    }

    /// Record a span from `start_ns` (from [`Tracer::open`]) to now.
    pub fn close(&mut self, name: &'static str, tick: u32, start_ns: u64) {
        if self.on {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                tick,
                start_ns,
                end_ns,
            });
        }
    }

    /// Total milliseconds of spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Every span with its self time in nanoseconds: its duration minus
    /// the part covered by the spans nested inside it.
    fn self_ns(&self) -> Vec<(&Span, u64)> {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut out = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            // spans nest, so the direct children are the later-starting
            // spans inside `s` that do not start inside an earlier child
            let mut child_ns = 0;
            let mut covered_to = s.start_ns;
            for c in spans[i + 1..].iter().take_while(|c| c.start_ns < s.end_ns) {
                if c.start_ns >= covered_to {
                    child_ns += c.end_ns.min(s.end_ns) - c.start_ns;
                    covered_to = c.end_ns;
                }
            }
            out.push((*s, s.end_ns - s.start_ns - child_ns));
        }
        out
    }

    /// Self time per layer in milliseconds (`tick` roots left out).
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, ns) in self.self_ns().into_iter().filter(|(s, _)| s.name != "tick") {
            let ms = ns as f64 / 1e6;
            match out.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some((_, v)) => *v += ms,
                None => out.push((s.layer(), ms)),
            }
        }
        out
    }

    /// Per `tick` span, the milliseconds no span inside it covers.
    pub fn unaccounted_ms(&self) -> Vec<f64> {
        self.self_ns()
            .into_iter()
            .filter(|(s, _)| s.name == "tick")
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Write every span as tab-separated `tick name start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("tick\tname\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(text, "{}\t{}\t{}\t{}", s.tick, s.name, s.start_ns, s.end_ns);
        }
        std::fs::write(path, text)
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest percentile of `v` with at least ten samples above it:
/// returns (value, percentile). `None` with fewer than eleven samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 11 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = s.len() - 11;
    Some((s[idx], 100.0 * (idx + 1) as f64 / s.len() as f64))
}

/// Operations attempted and failed, for `failed_frac`.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one attempted operation; an `Err` counts as failed and is
    /// reported on stderr.
    pub fn record<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("{what} failed: {e}");
                }
                None
            }
        }
    }

    /// Count `n` attempted operations that cannot fail individually.
    pub fn add(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Count one operation that was refused (not an `Err`).
    pub fn refused(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("{what} refused");
    }
}

/// Output checks: every mismatch is kept and reported; any makes the
/// run exit non-zero.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// FNV-1a, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every `(entity, component, value)` row, in the world's
/// deterministic dump order (no process-seeded hasher involved).
pub fn row_digest(world: &World) -> u64 {
    let mut h = FNV_OFFSET;
    let mut buf = String::new();
    for (id, name, value) in world.rows() {
        buf.clear();
        let _ = write!(buf, "{}|{name}|{value:?};", id.to_bits());
        h = fnv(h, buf.as_bytes());
    }
    h
}

/// Digest of a value's `Debug` form (view outputs, row lists).
pub fn debug_digest(v: &impl std::fmt::Debug) -> u64 {
    fnv(FNV_OFFSET, format!("{v:?}").as_bytes())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload process measured.
pub struct Report {
    pub workload: &'static str,
    pub ticks: usize,
    pub digest: u64,
    pub ops: Ops,
    pub checks: Checks,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            ticks: 0,
            digest: 0,
            ops: Ops::default(),
            checks: Checks::default(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Human-readable lines, then one JSON line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"ticks\": {}, \"digest\": \"{:016x}\", \"metrics\": {{{metrics}}}}}",
            self.workload,
            self.checks.ok(),
            self.ops.attempted,
            self.ops.failed,
            self.ticks,
            self.digest,
        );
    }
}
