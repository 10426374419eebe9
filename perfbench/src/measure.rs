//! Measurement plumbing shared by the workloads: host-time spans around
//! calls into the program, telemetry snapshot deltas, percentiles, the
//! FNV determinism signature and the `/proc` readers for memory and
//! scheduler accounting.

use netfpga_core::telemetry::StatRegistry;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span: a call (or a batch of consecutive calls of the same
/// kind) into one layer, or a slice of the benchmark's own loop.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: &'static str,
    /// Offsets from the tracer's epoch, in nanoseconds.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers (a batch of `send`s counts each frame).
    pub calls: u64,
}

/// Host-time accounting for the traced run. With tracing off every method
/// just runs its closure; with tracing on each call the benchmark makes
/// into a layer is recorded as a span whose parent is the span enclosing
/// it on the same thread (or an explicit parent for work the fabric runner
/// moves onto its shard threads). Spans are kept in memory and written out
/// when the benchmark ends.
pub struct Tracer {
    tracing: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

impl Tracer {
    pub fn new(tracing: bool) -> Tracer {
        Tracer {
            tracing,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    fn offset(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The span enclosing the caller on this thread, if any.
    pub fn current(&self) -> Option<usize> {
        CURRENT.get()
    }

    /// Run `f` — a call, or a batch of `calls` consecutive calls of one
    /// kind, into `layer` — as a span nested in the caller's current span.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span_under(CURRENT.get(), layer, name, calls, f)
    }

    /// Like [`Tracer::span`], with an explicit parent.
    pub fn span_under<R>(
        &self,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.tracing {
            return f();
        }
        let start_ns = self.offset();
        let id = {
            let mut spans = self.spans.lock().expect("span sink poisoned");
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                layer,
                name,
                start_ns,
                end_ns: start_ns,
                calls,
            });
            id
        };
        let outer = CURRENT.replace(Some(id));
        let r = f();
        CURRENT.set(outer);
        let end_ns = self.offset();
        self.spans.lock().expect("span sink poisoned")[id].end_ns = end_ns;
        r
    }

    /// Take every span recorded so far; ids restart at zero.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Per-span-name totals and per-layer self time of a set of spans.
#[derive(Debug, Default, Clone)]
pub struct SpanSums {
    /// `name` → (total ns, calls).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// `layer` → self ns: each span's duration minus the part of its
    /// interval its children cover.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl SpanSums {
    pub fn reduce(spans: &[Span]) -> SpanSums {
        let mut sums = SpanSums::default();
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            let e = sums.by_name.entry(s.name).or_insert((0, 0));
            e.0 += s.end_ns - s.start_ns;
            e.1 += s.calls;
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        for s in spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *sums.self_ns.entry(s.layer).or_insert(0) += (s.end_ns - s.start_ns) - covered;
        }
        sums
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |&(ns, _)| ns)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]` (children on
/// other threads may overlap each other).
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Write spans as JSON lines, each tagged with its round and phase (span
/// ids are per round and phase).
pub fn write_spans(
    path: &std::path::Path,
    parts: &[(usize, &str, &[Span])],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (round, phase, spans) in parts {
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"round\":{round},\"phase\":\"{phase}\",\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.id, s.layer, s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
    }
    out.flush()
}

/// A telemetry snapshot keyed by stat path.
pub type Snapshot = BTreeMap<String, u64>;

pub fn snapshot(registry: &StatRegistry) -> Snapshot {
    registry.snapshot().into_iter().collect()
}

/// `after − before` for every path in `after` (monotonic counters).
pub fn delta(before: &Snapshot, after: &Snapshot) -> Snapshot {
    after
        .iter()
        .map(|(k, &v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Sum of a per-port MAC stat (`port{i}.mac.{dir}.{field}`) over all ports.
pub fn mac_sum(s: &Snapshot, dir: &str, field: &str) -> u64 {
    let suffix = format!(".mac.{dir}.{field}");
    s.iter()
        .filter(|(k, _)| k.starts_with("port") && k.ends_with(&suffix))
        .map(|(_, &v)| v)
        .sum()
}

/// The deepest output queue (`port*.q0.depth`) of `registry` right now.
pub fn max_queue_depth(registry: &StatRegistry) -> u64 {
    let snap = snapshot(registry);
    let depths = snap
        .iter()
        .filter(|(k, _)| k.starts_with("port") && k.ends_with(".q0.depth"));
    depths.map(|(_, &v)| v).max().unwrap_or(0)
}

/// Add every entry of `d` into `acc`.
pub fn accumulate(acc: &mut Snapshot, d: &Snapshot) {
    for (k, &v) in d {
        *acc.entry(k.clone()).or_insert(0) += v;
    }
}

/// Nearest-rank percentile of an unsorted sample (sorts it).
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Nearest-rank quantile of floats.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a accumulator for the determinism signature.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// FNV-1a of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.0
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The calling thread's scheduler accounting: (on-CPU ns, runnable-wait ns).
/// Zero where `/proc/thread-self/schedstat` is unavailable.
pub fn thread_schedstat() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Host cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, layer, s, e| Span {
            id,
            parent,
            layer,
            name: layer,
            start_ns: s,
            end_ns: e,
            calls: 1,
        };
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "core", 10, 40),
            span(2, Some(0), "projects", 30, 60),
        ];
        let sums = SpanSums::reduce(&spans);
        assert_eq!(sums.self_ns["bench"], 50);
        assert_eq!(sums.self_ns["core"], 30);
        assert_eq!(sums.self_ns["projects"], 30);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut v, 0.5), 500);
        assert_eq!(percentile(&mut v, 0.999), 999);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
