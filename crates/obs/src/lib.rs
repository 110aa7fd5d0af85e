//! Zero-dependency instrumentation: spans, counters, histograms, traces.
//!
//! The campaign engine needs to answer "where did the time go?" — how much
//! of an attack cell was SAT solving vs. oracle queries vs. scheme
//! materialization, and whether the worker pool starves. The build
//! environment has no external registry, so this crate hand-rolls the
//! usual tracing/metrics stack from `std` alone:
//!
//! - **Counters** ([`count`]) — lock-free [`AtomicU64`]s registered by
//!   name, monotonically increasing event totals.
//! - **Histograms** ([`record`]) — log2-bucketed value distributions
//!   (65 buckets: one for zero, one per power of two up to `u64::MAX`),
//!   each bucket a relaxed atomic. Used for latencies in nanoseconds and
//!   size distributions such as DIPs-per-batch.
//! - **Spans** ([`span`]) — RAII guards timing a scoped region on a
//!   monotonic clock. Every span records its duration into a histogram of
//!   the same name, and, when tracing is on, appends a complete
//!   (`"ph":"X"`) Chrome trace event to a per-thread buffer. Nesting depth
//!   is tracked per thread so traces reconstruct the hierarchy.
//!
//! Everything sits behind a **global runtime switch**: the disabled fast
//! path is a single relaxed atomic load ([`enabled`]) and no allocation,
//! no lock, no clock read happens until the switch is flipped with
//! [`enable`]. Tracing (event buffering) is a second, independent switch
//! ([`enable_tracing`]) because traces cost memory proportional to event
//! count while counters and histograms are O(1) space.
//!
//! Instrumentation never perturbs workloads: it only reads clocks and
//! increments atomics, so RNG streams, oracle query counts, and campaign
//! reports' deterministic JSON are byte-identical whether the switch is on
//! or off (pinned by the `obs_determinism` integration test).
//!
//! # Event schema
//!
//! [`trace_json`] emits the Chrome trace-event format, loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev):
//!
//! ```json
//! {"traceEvents":[
//!   {"name":"pool.task","cat":"obs","ph":"X","pid":1,"tid":3,
//!    "ts":1520.4,"dur":318.7,"args":{"depth":0}}
//! ],"displayTimeUnit":"ms"}
//! ```
//!
//! - `name` — the span name passed to [`span`] (e.g. `attack.solve`,
//!   `attack.oracle`, `pool.task`, `job.materialize`).
//! - `ph:"X"` — complete event; `ts`/`dur` are microseconds (fractional)
//!   relative to the process-wide trace epoch.
//! - `tid` — a small sequential id assigned per OS thread on first event.
//! - `args.depth` — span nesting depth on that thread at open time.
//!
//! [`metrics_json`] emits a machine-readable snapshot:
//!
//! ```json
//! {"counters":{"attack.rounds":42},
//!  "histograms":{"sat.solve.conflicts":
//!    {"count":7,"sum":98,"buckets":[[1,1],[8,3],[16,3]]}}}
//! ```
//!
//! Histogram `buckets` are `[lower_bound, count]` pairs for non-empty
//! buckets only; a value `v` lands in the bucket whose lower bound is the
//! largest power of two `<= v` (zero has its own bucket with bound 0).
//!
//! # Span names used across the workspace
//!
//! | span | layer | wraps |
//! |------|-------|-------|
//! | `pool.task` | `campaign::pool` | one task on a pool worker |
//! | `job.attack` | `campaign::job` | one campaign job (an attack cell) |
//! | `job.materialize` | `campaign::job` | camouflaged-netlist materialization |
//! | `job.oracle_build` | `campaign::job` | every chip's oracle-stack construction (a rotating chip's correct-key resolution included) |
//! | `job.verify` | `campaign::job` | the recovered key's equivalence proof |
//! | `session.materialize` | `campaign` | benchmark netlist generation |
//! | `attack.coi_build` | `attacks::dip_engine` | the cone-of-influence projection |
//! | `attack.encode` | `attacks::dip_engine` | the initial key-copy and miter encode, one DIP's fixed copies, or one AppSAT reinforcement |
//! | `attack.solve` | `attacks::dip_engine` | one conflict-sliced solver call |
//! | `attack.oracle` | `attacks::dip_engine` | one oracle `query_block` |
//! | `search.trial` | `campaign::search` | one candidate-scoring attack trial |
//!
//! The SAT layer itself is dependency-free; its simplification work
//! surfaces through `attacks::dip_engine` as counters
//! (`sat.elim_vars`, `sat.subsumed`, `sat.strengthened`) and histograms
//! (`sat.simplify_ns` — nanoseconds per attack spent in preprocessing,
//! `sat.lbd` — final learnt-clause LBD distribution, `sat.solve.*` —
//! per-solve conflict/decision/propagation deltas). Key verification
//! counts the output pairs it is asked about (`verify.outputs`) and those
//! structural hashing leaves for the solver (`verify.open_outputs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Global metrics switch. Off by default; the disabled fast path of every
/// instrumentation call is this one relaxed load.
static METRICS_ON: AtomicBool = AtomicBool::new(false);
/// Global tracing switch (event buffering); implies nothing about
/// [`METRICS_ON`] — binaries enable both for `--trace-out`.
static TRACING_ON: AtomicBool = AtomicBool::new(false);

/// Turns metrics (counters, histograms, span timing) on.
pub fn enable() {
    METRICS_ON.store(true, Ordering::Relaxed);
}

/// Turns metrics off. In-flight spans finish as no-ops on drop.
pub fn disable() {
    METRICS_ON.store(false, Ordering::Relaxed);
    TRACING_ON.store(false, Ordering::Relaxed);
}

/// Whether metrics collection is on. A single relaxed atomic load — this
/// is the entire disabled-path cost of every instrumentation point.
#[inline]
pub fn enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Turns trace-event buffering on (and metrics with it — spans feed both).
pub fn enable_tracing() {
    METRICS_ON.store(true, Ordering::Relaxed);
    TRACING_ON.store(true, Ordering::Relaxed);
    let _ = epoch(); // pin the trace epoch before the first event
}

/// Whether trace-event buffering is on.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING_ON.load(Ordering::Relaxed)
}

/// A named monotonically-increasing event counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current counter value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Counter name as registered.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Number of log2 buckets: index 0 holds zero, index `k >= 1` holds
/// values in `[2^(k-1), 2^k)`, so index 64 holds `[2^63, u64::MAX]`.
const BUCKETS: usize = 65;

/// A named log2-bucketed histogram of `u64` samples.
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// Log2 bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Lower bound of bucket `index` (inverse of [`bucket_index`]).
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (saturating only at `u64` wraparound).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Count in the bucket holding `value`-sized samples.
    pub fn bucket_count(&self, value: u64) -> u64 {
        self.buckets[bucket_index(value)].load(Ordering::Relaxed)
    }

    /// Histogram name as registered.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// One buffered trace event (complete span).
struct TraceEvent {
    name: &'static str,
    tid: u64,
    /// Nanoseconds since the trace epoch at span open.
    ts_ns: u64,
    /// Span duration in nanoseconds.
    dur_ns: u64,
    /// Span nesting depth on its thread at open time.
    depth: usize,
}

/// Registry of every named instrument plus all per-thread trace buffers.
/// Instruments are leaked (`&'static`) so hot paths can hold references
/// across [`reset`]; reset zeroes values instead of dropping entries.
struct Registry {
    counters: Vec<&'static Counter>,
    histograms: Vec<&'static Histogram>,
    buffers: Vec<Arc<Mutex<Vec<TraceEvent>>>>,
    next_tid: u64,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            counters: Vec::new(),
            histograms: Vec::new(),
            buffers: Vec::new(),
            next_tid: 1,
        })
    })
}

/// Monotonic epoch all trace timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Looks up (registering on first use) the counter named `name`.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().unwrap();
    if let Some(c) = reg.counters.iter().find(|c| c.name == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        name,
        value: AtomicU64::new(0),
    }));
    reg.counters.push(c);
    c
}

/// Looks up (registering on first use) the histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry().lock().unwrap();
    if let Some(h) = reg.histograms.iter().find(|h| h.name == name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram {
        name,
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
    }));
    reg.histograms.push(h);
    h
}

/// Adds `n` to counter `name`; no-op (one atomic load) when disabled.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        counter(name).add(n);
    }
}

/// Records `value` into histogram `name`; no-op when disabled.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if enabled() {
        histogram(name).record(value);
    }
}

/// A thread's trace registration: its sequential tid plus the shared
/// event buffer also reachable from the global registry.
type LocalBuffer = (u64, Arc<Mutex<Vec<TraceEvent>>>);

std::thread_local! {
    /// This thread's span nesting depth.
    static DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// This thread's (tid, shared trace buffer), registered lazily.
    static LOCAL_BUFFER: std::cell::RefCell<Option<LocalBuffer>> =
        const { std::cell::RefCell::new(None) };
}

/// Appends a finished span to this thread's trace buffer.
fn push_event(name: &'static str, start: Instant, dur_ns: u64, depth: usize) {
    let ts_ns = start.saturating_duration_since(epoch()).as_nanos() as u64;
    LOCAL_BUFFER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let (tid, buffer) = slot.get_or_insert_with(|| {
            let buffer = Arc::new(Mutex::new(Vec::new()));
            let mut reg = registry().lock().unwrap();
            let tid = reg.next_tid;
            reg.next_tid += 1;
            reg.buffers.push(Arc::clone(&buffer));
            (tid, buffer)
        });
        buffer.lock().unwrap().push(TraceEvent {
            name,
            tid: *tid,
            ts_ns,
            dur_ns,
            depth,
        });
    });
}

/// RAII guard for a timed span; created by [`span`]. On drop it records
/// the elapsed nanoseconds into the histogram of the same name and, when
/// tracing is on, buffers a Chrome trace event.
pub struct SpanGuard {
    name: &'static str,
    /// `None` when instrumentation was disabled at open — drop is free.
    start: Option<Instant>,
    depth: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        DEPTH.with(|d| d.set(self.depth));
        let dur_ns = start.elapsed().as_nanos() as u64;
        if enabled() {
            histogram(self.name).record(dur_ns);
        }
        if tracing_enabled() {
            push_event(self.name, start, dur_ns, self.depth);
        }
    }
}

/// Opens a timed span named `name`. When instrumentation is disabled this
/// costs one relaxed atomic load and returns an inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start: None,
            depth: 0,
        };
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    SpanGuard {
        name,
        start: Some(Instant::now()),
        depth,
    }
}

/// Zeroes every counter and histogram and clears all trace buffers,
/// dropping those of threads that have exited. Registered instruments
/// stay valid (references held by hot paths keep working), and live
/// threads keep their ids.
pub fn reset() {
    let mut reg = registry().lock().unwrap();
    // An exited thread's slot has dropped its handle: the registry's is
    // the last one.
    reg.buffers.retain(|buffer| Arc::strong_count(buffer) > 1);
    for c in &reg.counters {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in &reg.histograms {
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
    for buffer in &reg.buffers {
        buffer.lock().unwrap().clear();
    }
}

/// Serializes all buffered trace events as Chrome trace-event JSON
/// (see the module doc for the schema). Stable ordering: events sort by
/// `(tid, ts)` so output does not depend on buffer registration order.
pub fn trace_json() -> String {
    let reg = registry().lock().unwrap();
    let mut events: Vec<(u64, u64, u64, &'static str, usize)> = Vec::new();
    for buffer in &reg.buffers {
        for e in buffer.lock().unwrap().iter() {
            events.push((e.tid, e.ts_ns, e.dur_ns, e.name, e.depth));
        }
    }
    drop(reg);
    events.sort_unstable();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, (tid, ts_ns, dur_ns, name, depth)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"depth\":{}}}}}",
            name,
            tid,
            *ts_ns as f64 / 1e3,
            *dur_ns as f64 / 1e3,
            depth
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Serializes every counter and histogram as a JSON metrics snapshot
/// (see the module doc for the schema). Instruments sort by name.
pub fn metrics_json() -> String {
    let reg = registry().lock().unwrap();
    let mut counters: Vec<(&'static str, u64)> =
        reg.counters.iter().map(|c| (c.name, c.get())).collect();
    // (name, count, sum, non-empty [lower_bound, count] buckets)
    type HistogramRow = (&'static str, u64, u64, Vec<(u64, u64)>);
    let mut histograms: Vec<HistogramRow> = reg
        .histograms
        .iter()
        .map(|h| {
            let buckets = (0..BUCKETS)
                .filter_map(|i| {
                    let n = h.buckets[i].load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_lower_bound(i), n))
                })
                .collect();
            (h.name, h.count(), h.sum(), buckets)
        })
        .collect();
    drop(reg);
    counters.sort_unstable();
    histograms.sort_unstable();

    let mut out = String::from("{\"counters\":{");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, count, sum, buckets)) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"count\":{count},\"sum\":{sum},\"buckets\":["
        ));
        for (j, (lo, n)) in buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{lo},{n}]"));
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Obs state is global; tests that flip the switch share this lock so
    /// `cargo test` threads don't interleave enable/reset.
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Minimal recursive-descent JSON well-formedness checker: consumes
    /// one value and returns the rest, panicking on malformed input.
    fn check_json(s: &str) {
        fn skip_ws(s: &str) -> &str {
            s.trim_start()
        }
        fn value(s: &str) -> &str {
            let s = skip_ws(s);
            match s.as_bytes().first() {
                Some(b'{') => object(&s[1..]),
                Some(b'[') => array(&s[1..]),
                Some(b'"') => string(&s[1..]),
                _ => scalar(s),
            }
        }
        fn object(mut s: &str) -> &str {
            s = skip_ws(s);
            if let Some(rest) = s.strip_prefix('}') {
                return rest;
            }
            loop {
                s = skip_ws(s);
                s = string(s.strip_prefix('"').expect("object key"));
                s = skip_ws(s);
                s = s.strip_prefix(':').expect("colon");
                s = value(s);
                s = skip_ws(s);
                if let Some(rest) = s.strip_prefix(',') {
                    s = rest;
                } else {
                    return s.strip_prefix('}').expect("object close");
                }
            }
        }
        fn array(mut s: &str) -> &str {
            s = skip_ws(s);
            if let Some(rest) = s.strip_prefix(']') {
                return rest;
            }
            loop {
                s = value(s);
                s = skip_ws(s);
                if let Some(rest) = s.strip_prefix(',') {
                    s = rest;
                } else {
                    return s.strip_prefix(']').expect("array close");
                }
            }
        }
        fn string(s: &str) -> &str {
            let mut chars = s.char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => return &s[i + 1..],
                    '\\' => {
                        chars.next();
                    }
                    _ => {}
                }
            }
            panic!("unterminated string");
        }
        fn scalar(s: &str) -> &str {
            let end = s
                .find(|c: char| ",]}".contains(c) || c.is_whitespace())
                .unwrap_or(s.len());
            let token = &s[..end];
            assert!(
                token == "true"
                    || token == "false"
                    || token == "null"
                    || token.parse::<f64>().is_ok(),
                "bad scalar: {token:?}"
            );
            &s[end..]
        }
        let rest = value(s);
        assert!(skip_ws(rest).is_empty(), "trailing garbage: {rest:?}");
    }

    #[test]
    fn bucket_index_is_log2_with_zero_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            if i > 0 {
                assert_eq!(bucket_index(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn histogram_records_into_matching_buckets() {
        let _guard = obs_lock();
        enable();
        reset();
        let h = histogram("test.histogram_buckets");
        for v in [0, 1, 5, 5, 700] {
            h.record(v);
        }
        disable();
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 711);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(5), 2); // [4, 8)
        assert_eq!(h.bucket_count(700), 1); // [512, 1024)
        assert_eq!(h.bucket_count(2), 0);
    }

    #[test]
    fn disabled_instrumentation_is_inert() {
        let _guard = obs_lock();
        disable();
        reset();
        count("test.disabled_counter", 3);
        record("test.disabled_histogram", 9);
        drop(span("test.disabled_span"));
        assert_eq!(counter("test.disabled_counter").get(), 0);
        assert_eq!(histogram("test.disabled_histogram").count(), 0);
    }

    #[test]
    fn nested_spans_time_hierarchically() {
        let _guard = obs_lock();
        enable_tracing();
        reset();
        {
            let _outer = span("test.outer_span");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span("test.inner_span");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        disable();
        let outer = histogram("test.outer_span");
        let inner = histogram("test.inner_span");
        assert_eq!(outer.count(), 1);
        assert_eq!(inner.count(), 1);
        // The outer span strictly contains the inner one.
        assert!(
            outer.sum() >= inner.sum() + 1_000_000,
            "outer {} ns vs inner {} ns",
            outer.sum(),
            inner.sum()
        );
        // Depth recorded in the trace reflects nesting.
        let trace = trace_json();
        assert!(trace.contains("\"name\":\"test.outer_span\",\"cat\":\"obs\""));
        assert!(trace.contains("\"args\":{\"depth\":1}"), "{trace}");
    }

    #[test]
    fn span_depth_recovers_after_drop() {
        let _guard = obs_lock();
        enable();
        reset();
        drop(span("test.depth_a"));
        let s = span("test.depth_b");
        assert_eq!(DEPTH.with(|d| d.get()), 1);
        drop(s);
        assert_eq!(DEPTH.with(|d| d.get()), 0);
        disable();
    }

    #[test]
    fn trace_and_metrics_json_are_well_formed() {
        let _guard = obs_lock();
        enable_tracing();
        reset();
        count("test.json_counter", 2);
        record("test.json_histogram", 77);
        {
            let _s = span("test.json_span");
        }
        let worker = std::thread::spawn(|| {
            let _s = span("test.json_span_other_thread");
        });
        worker.join().unwrap();
        disable();
        let trace = trace_json();
        check_json(&trace);
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"test.json_span\""));
        assert!(trace.contains("\"name\":\"test.json_span_other_thread\""));
        let metrics = metrics_json();
        check_json(&metrics);
        assert!(metrics.contains("\"test.json_counter\":2"));
        assert!(metrics
            .contains("\"test.json_histogram\":{\"count\":1,\"sum\":77,\"buckets\":[[64,1]]}"));
    }

    #[test]
    fn reset_drops_the_buffers_of_exited_threads() {
        let _guard = obs_lock();
        enable_tracing();
        std::thread::spawn(|| drop(span("test.exited_thread_span")))
            .join()
            .unwrap();
        disable();
        let exited = |reg: &Registry| {
            reg.buffers
                .iter()
                .filter(|buffer| Arc::strong_count(buffer) == 1)
                .count()
        };
        assert!(exited(&registry().lock().unwrap()) >= 1);
        reset();
        assert_eq!(exited(&registry().lock().unwrap()), 0);
    }

    #[test]
    fn reset_zeroes_but_keeps_references_valid() {
        let _guard = obs_lock();
        enable();
        let c = counter("test.reset_counter");
        c.add(5);
        reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        assert_eq!(counter("test.reset_counter").get(), 2);
        disable();
    }
}
