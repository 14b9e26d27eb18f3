//! Measurement plumbing shared by every workload: seeded frames, order
//! statistics, per-thread CPU time and peak RSS from `/proc`, in-memory
//! spans, and the metric list printed at the end.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sesr_telemetry::{HistogramSnapshot, TelemetrySnapshot};
use sesr_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Weight seed of every served network. The workload seed only changes the
/// inputs, never the models.
pub const WEIGHTS_SEED: u64 = 7;

/// SplitMix64 finaliser: derives independent seeds from `(seed, stream)`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A never-repeating stream of `[1, 3, side, side]` frames.
pub struct Frames {
    rng: StdRng,
    side: usize,
}

impl Frames {
    pub fn new(seed: u64, stream: u64, side: usize) -> Self {
        Frames {
            rng: StdRng::seed_from_u64(mix(seed, stream)),
            side,
        }
    }

    /// A smooth gradient plus noise, in `[0, 1]`.
    pub fn next_frame(&mut self) -> Tensor {
        let s = self.side;
        let (fx, fy, phase): (f32, f32, f32) = (
            self.rng.gen_range(0.5..3.0),
            self.rng.gen_range(0.5..3.0),
            self.rng.gen(),
        );
        let mut data = Vec::with_capacity(3 * s * s);
        for c in 0..3 {
            for y in 0..s {
                for x in 0..s {
                    let u = x as f32 / s as f32 * fx + y as f32 / s as f32 * fy + phase + c as f32;
                    let noise: f32 = self.rng.gen_range(-0.1..0.1);
                    data.push((0.5 + 0.35 * (u * 3.1).sin() + noise).clamp(0.0, 1.0));
                }
            }
        }
        Tensor::from_vec(Shape::new(&[1, 3, s, s]), data).expect("frame shape matches its data")
    }
}

/// Nearest-rank quantile of `values` (`q` in `0..=1`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f` in a loop for about `budget` (at least `min_iters` calls) and
/// return the median call time in ms.
pub fn time_median_ms(budget: Duration, min_iters: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_iters || started.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(ms(t.elapsed()));
    }
    median(&times)
}

/// The kernel's thread id of the calling thread.
pub fn current_tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// Nanoseconds on CPU of every thread of `pid`, by thread id, from
/// `/proc/<pid>/task/*/schedstat`.
pub fn thread_cpu_ns(pid: u32) -> HashMap<u32, u64> {
    let mut out = HashMap::new();
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        let text = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
        if let Some(ns) = text.split_whitespace().next().and_then(|v| v.parse().ok()) {
            out.insert(tid, ns);
        }
    }
    out
}

/// CPU time the threads of `pid` spent between two [`thread_cpu_ns`]
/// readings, leaving out the threads in `exclude` (the load generator's).
pub fn cpu_between(before: &HashMap<u32, u64>, after: &HashMap<u32, u64>, exclude: &[u32]) -> u64 {
    after
        .iter()
        .filter(|(tid, _)| !exclude.contains(tid))
        .map(|(tid, &ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One recorded span. Spans of one request share `request`; `parent` is 0
/// for a root span.
#[derive(Clone)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span buffer over a shared clock and id source. Disabled logs
/// record nothing, so untraced runs pay only the `enabled` check.
#[derive(Clone)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    ids: Arc<AtomicU64>,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            ids: Arc::new(AtomicU64::new(1)),
            spans: Vec::new(),
        }
    }

    /// A log for another thread: same clock and ids, empty buffer.
    pub fn fork(&self) -> Self {
        SpanLog {
            spans: Vec::new(),
            ..self.clone()
        }
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(&mut self, name: &str, parent: u64, request: u64, start: Instant, end: Instant) {
        let id = self.reserve();
        self.record_reserved(id, name, parent, request, start, end);
    }

    /// Run `f` under a span and return its result and duration.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        (out, end - start)
    }

    /// Reserve an id for a parent span whose end is not known yet.
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            // lint: allow(atomic-ordering): span ids only need to be unique; they publish no other data
            self.ids.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a span under an id from [`SpanLog::reserve`].
    pub fn record_reserved(
        &mut self,
        id: u64,
        name: &str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let at =
            |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            request,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The harness's own threads, left out of the serving process's CPU time.
#[derive(Clone, Default)]
pub struct HarnessThreads(Arc<Mutex<Vec<u32>>>);

impl HarnessThreads {
    /// Register the calling thread.
    pub fn join(&self) {
        self.0
            .lock()
            .expect("harness thread list lock")
            .push(current_tid());
    }

    pub fn tids(&self) -> Vec<u32> {
        self.0.lock().expect("harness thread list lock").clone()
    }
}

/// What one measured window of traffic produced.
#[derive(Default)]
pub struct Window {
    /// Latency of every correct reply, ms.
    pub latencies_ms: Vec<f64>,
    /// How late the generator sent each request against its schedule, ms.
    pub late_ms: Vec<f64>,
    pub sent: u64,
    /// Replies with the route's output shape (wrong values are found later,
    /// by the reference check).
    pub ok: u64,
    /// Refused, expired, failed or undelivered requests.
    pub failed: u64,
    /// Replies without the route's output shape or with wrong values.
    pub wrong: u64,
    /// Correct replies, and the time from the window's start to the last of
    /// them.
    pub ok_in_window: u64,
    pub last_ok: Duration,
    pub cpu_ns: u64,
    pub spans: Vec<Span>,
}

impl Window {
    pub fn absorb(&mut self, other: Window) {
        self.latencies_ms.extend(other.latencies_ms);
        self.late_ms.extend(other.late_ms);
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.ok_in_window += other.ok_in_window;
        self.last_ok = self.last_ok.max(other.last_ok);
        self.spans.extend(other.spans);
    }

    pub fn fps(&self) -> f64 {
        self.ok_in_window as f64 / self.last_ok.as_secs_f64().max(1e-9)
    }

    pub fn cpu_ms_per_req(&self) -> f64 {
        self.cpu_ns as f64 / 1e6 / self.ok.max(1) as f64
    }

    pub fn p50_ms(&self) -> f64 {
        quantile(&self.latencies_ms, 0.5)
    }

    pub fn p95_ms(&self) -> f64 {
        quantile(&self.latencies_ms, 0.95)
    }

    /// Durations in ms of the window's spans called `name`.
    pub fn spans_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The end-to-end metrics of a window.
    pub fn end_to_end(window: &Window, setup_s: f64, peak_rss_mib: f64) -> Metrics {
        let mut m = Metrics::default();
        m.put("fps", window.fps(), "1/s");
        m.put("p50_ms", window.p50_ms(), "ms");
        m.put("p95_ms", window.p95_ms(), "ms");
        m.put("cpu_ms_per_req", window.cpu_ms_per_req(), "ms");
        // Reported as the success share: a benchmark metric may never be 0.
        m.put(
            "ok_frac",
            1.0 - (window.failed + window.wrong) as f64 / window.sent.max(1) as f64,
            "fraction",
        );
        m.put("setup_s", setup_s, "s");
        m.put("peak_rss_mib", peak_rss_mib, "MiB");
        m
    }
}

/// The difference of two telemetry snapshots of one serving process.
pub struct TelemetryDelta {
    pub before: TelemetrySnapshot,
    pub after: TelemetrySnapshot,
}

impl TelemetryDelta {
    /// The interval histogram of `name`, merged over every metric whose
    /// name starts with `prefix` and ends with `suffix`.
    pub fn histogram(&self, prefix: &str, suffix: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (name, after) in &self.after.histograms {
            if name.starts_with(prefix) && name.ends_with(suffix) {
                let delta = match self.before.histogram(name) {
                    Some(before) => after.delta_since(before),
                    None => after.clone(),
                };
                merged.merge(&delta);
            }
        }
        merged
    }

    /// Sum of the interval change of every matching counter.
    pub fn counter(&self, prefix: &str, suffix: &str) -> u64 {
        self.after
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
            .map(|(name, v)| v.saturating_sub(self.before.counter(name).unwrap_or(0)))
            .sum()
    }

    /// Sum of every matching gauge at the end of the interval.
    pub fn gauge(&self, prefix: &str, suffix: &str) -> i64 {
        self.after
            .gauges
            .iter()
            .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    }
}

/// Quantile of a nanosecond histogram, in ms.
pub fn hist_ms(h: &HistogramSnapshot, q: f64) -> f64 {
    h.quantile(q) as f64 / 1e6
}
