//! The recorder sink and the [`Trace`] handle instrumented code holds.
//!
//! This module is one of the workspace's **sanctioned parallelism seams**
//! (with `core::experiment` — enforced by the root `clippy.toml`'s thread
//! and lock bans): the recorder's interior is a `Mutex<State>` behind an
//! `Arc`, so a `Trace` handle is `Send + Sync` and may be cloned into
//! scoped workers. Determinism does not come from the lock, though — it
//! comes from the **emission discipline**: hot parallel regions emit
//! nothing (the replication workers compute; their spans are emitted
//! serially afterwards, in replication order), so the logical clock
//! assigns the same sequence numbers in the same order for every worker
//! count. Anything that
//! legitimately varies with worker count or machine (the worker count
//! itself, wall-clock attachments) is emitted as a *volatile* event, which does not
//! advance the logical clock and is excluded from the deterministic export.

use std::collections::BTreeMap;
#[expect(
    clippy::disallowed_types,
    reason = "obs::recorder is a parallelism seam: trace handles share one locked buffer"
)]
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{Event, EventKind, FieldValue};
use crate::metrics::{BucketLayout, Metric};

/// Everything the recorder accumulates, behind one lock.
#[derive(Debug, Default)]
struct State {
    /// The logical clock: sequence number of the next deterministic event.
    next_seq: u64,
    /// Next span id to hand out (ids start at 1; 0 means "no span").
    next_span: u64,
    /// Stack of currently-open span ids.
    stack: Vec<u64>,
    /// The recorded event log, in emission order.
    events: Vec<Event>,
    /// Aggregated metrics, keyed by name (BTreeMap: export order is the
    /// name order, never insertion or hash order).
    metrics: BTreeMap<&'static str, Metric>,
}

impl State {
    fn current_span(&self) -> u64 {
        self.stack.last().copied().unwrap_or(0)
    }

    fn push_event(
        &mut self,
        kind: EventKind,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
        volatile: bool,
    ) {
        let seq = self.next_seq;
        if !volatile {
            self.next_seq += 1;
        }
        self.events.push(Event {
            seq,
            span: self.current_span(),
            kind,
            name,
            fields,
            volatile,
        });
    }
}

#[derive(Debug, Default)]
struct Shared {
    #[expect(
        clippy::disallowed_types,
        reason = "obs::recorder is a parallelism seam: trace handles share one locked buffer"
    )]
    state: Mutex<State>,
}

impl Shared {
    /// Lock the state; a poisoned lock (a panicking emitter) still yields
    /// the data recorded so far — a trace must never add a panic path of
    /// its own to the code it observes.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An in-memory event/metric sink.
///
/// Create one per run you want observed, hand [`Recorder::trace`] handles
/// to the code under observation, then export with
/// [`deterministic_json`](Recorder::deterministic_json) (the CI-diffable
/// artifact) or [`full_json`](Recorder::full_json) (volatile events
/// included).
///
/// # Example
/// ```
/// use burstcap_obs::Recorder;
///
/// let recorder = Recorder::new();
/// let trace = recorder.trace();
/// {
///     let span = trace.span("solve");
///     assert_eq!(span.id(), 1);
///     trace.event("sweep", vec![("iter", 0_u64.into())]);
///     trace.add("sweeps", 1);
/// }
/// let events = recorder.events();
/// assert_eq!(events.len(), 3); // span_start, sweep, span_end
/// assert_eq!(events[1].span, 1);
/// let json = recorder.deterministic_json();
/// assert!(json.contains("\"name\": \"sweep\""));
/// ```
#[derive(Debug, Default)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Recorder {
    /// A fresh, empty recorder.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// A recording [`Trace`] handle feeding this recorder. Handles are
    /// cheap to clone and `Send + Sync`.
    #[must_use]
    pub fn trace(&self) -> Trace {
        Trace {
            shared: Some(Arc::clone(&self.shared)),
        }
    }

    /// Snapshot of the recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.shared.lock().events.clone()
    }

    /// Number of events recorded so far (volatile included).
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.shared.lock().events.len()
    }

    /// The deterministic export: volatile events filtered out, metrics
    /// appended sorted by name, one field per line (the workspace's
    /// grep-diff contract). Byte-identical across worker counts for
    /// instrumentation that follows the serial-emission discipline.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        self.render(false)
    }

    /// The full export: volatile events included (marked
    /// `"volatile": true`), for human diagnosis — not a diffable artifact.
    #[must_use]
    pub fn full_json(&self) -> String {
        self.render(true)
    }

    fn render(&self, include_volatile: bool) -> String {
        let state = self.shared.lock();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"burstcap-obs-trace-v1\",\n");
        out.push_str(if include_volatile {
            "  \"deterministic\": false,\n"
        } else {
            "  \"deterministic\": true,\n"
        });
        let events: Vec<&Event> = state
            .events
            .iter()
            .filter(|e| include_volatile || !e.volatile)
            .collect();
        if events.is_empty() {
            out.push_str("  \"events\": [],\n");
        } else {
            out.push_str("  \"events\": [\n");
            for (i, event) in events.iter().enumerate() {
                out.push_str("    ");
                event.render_into(&mut out, 2);
                out.push_str(if i + 1 == events.len() { "\n" } else { ",\n" });
            }
            out.push_str("  ],\n");
        }
        if state.metrics.is_empty() {
            out.push_str("  \"metrics\": []\n");
        } else {
            out.push_str("  \"metrics\": [\n");
            for (i, (name, metric)) in state.metrics.iter().enumerate() {
                out.push_str("    ");
                metric.render_into(name, &mut out, 2);
                out.push_str(if i + 1 == state.metrics.len() {
                    "\n"
                } else {
                    ",\n"
                });
            }
            out.push_str("  ]\n");
        }
        out.push_str("}\n");
        out
    }
}

/// The handle instrumented code emits through.
///
/// A `Trace` is either recording (obtained from [`Recorder::trace`]) or a
/// no-op ([`Trace::noop`], also the `Default`). Every instrumented entry
/// point in the workspace takes a `&Trace`; uninstrumented callers pass
/// the no-op, whose every operation is a single `Option` discriminant
/// check — the `bench_obs` binary pins that cost below 3% on the hot
/// paths.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    shared: Option<Arc<Shared>>,
}

impl Trace {
    /// The no-op trace: records nothing, costs (almost) nothing.
    #[must_use]
    pub fn noop() -> Trace {
        Trace { shared: None }
    }

    /// Whether this handle records anywhere. Instrumentation may use this
    /// to skip building an expensive payload.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Open a span: emits `span_start` now and `span_end` when the
    /// returned guard drops. Guards must nest (close in reverse order of
    /// opening), which scoped usage gives for free.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_with(name, Vec::new())
    }

    /// [`span`](Trace::span) with payload fields on the `span_start` event.
    #[must_use]
    pub fn span_with(
        &self,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> SpanGuard {
        let Some(shared) = &self.shared else {
            return SpanGuard {
                trace: Trace::noop(),
                id: 0,
                name,
            };
        };
        let mut state = shared.lock();
        state.next_span += 1;
        let id = state.next_span;
        let mut all = Vec::with_capacity(fields.len() + 1);
        all.push(("id", FieldValue::U64(id)));
        all.extend(fields);
        state.push_event(EventKind::SpanStart, name, all, false);
        state.stack.push(id);
        SpanGuard {
            trace: self.clone(),
            id,
            name,
        }
    }

    /// Emit a point event inside the currently-open span.
    pub fn event(&self, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        if let Some(shared) = &self.shared {
            shared
                .lock()
                .push_event(EventKind::Point, name, fields, false);
        }
    }

    /// Emit a **volatile** point event: recorded in the full export only,
    /// and the logical clock does not advance. Use for anything that may
    /// legitimately differ across worker counts or machines
    /// (worker counts, wall-clock attachments via `bench::timing`).
    pub fn volatile_event(&self, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        if let Some(shared) = &self.shared {
            shared
                .lock()
                .push_event(EventKind::Point, name, fields, true);
        }
    }

    /// Add `delta` to the counter `name` (created at zero on first use).
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(shared) = &self.shared {
            let mut state = shared.lock();
            let cell = state.metrics.entry(name).or_insert(Metric::Counter(0));
            if let Metric::Counter(v) = cell {
                *v = v.saturating_add(delta);
            }
        }
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(shared) = &self.shared {
            let mut state = shared.lock();
            let cell = state.metrics.entry(name).or_insert(Metric::Gauge(0.0));
            if let Metric::Gauge(v) = cell {
                *v = value;
            }
        }
    }

    /// Observe `value` into the fixed-layout histogram `name`. The layout
    /// is bound on first observation; later observations bin into it.
    pub fn observe(&self, name: &'static str, layout: BucketLayout, value: f64) {
        if let Some(shared) = &self.shared {
            let mut state = shared.lock();
            let cell = state
                .metrics
                .entry(name)
                .or_insert_with(|| Metric::histogram(layout));
            if let Metric::Histogram {
                layout,
                counts,
                total,
                sum,
            } = cell
            {
                counts[layout.bucket_of(value)] += 1;
                *total += 1;
                *sum += value;
            }
        }
    }
}

/// Guard for an open span; emits the matching `span_end` on drop.
#[derive(Debug)]
pub struct SpanGuard {
    trace: Trace,
    id: u64,
    name: &'static str,
}

impl SpanGuard {
    /// The span's id — 0 for a no-op trace. This is what
    /// `SolveDiagnostics::trace_id` carries to link a solution to its span
    /// tree in the recorded trace.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(shared) = &self.trace.shared {
            let mut state = shared.lock();
            if let Some(pos) = state.stack.iter().rposition(|&s| s == self.id) {
                state.stack.remove(pos);
            }
            let fields = vec![("id", FieldValue::U64(self.id))];
            state.push_event(EventKind::SpanEnd, self.name, fields, false);
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "a unit test drives trace handles from scoped threads"
)]
mod tests {
    use super::*;
    use crate::metrics::RESIDUAL_DECADES;

    #[test]
    fn noop_trace_records_nothing() {
        let trace = Trace::noop();
        assert!(!trace.is_enabled());
        let span = trace.span("x");
        assert_eq!(span.id(), 0);
        trace.event("e", vec![]);
        trace.add("c", 1);
        trace.observe("h", RESIDUAL_DECADES, 0.5);
        drop(span);
        // Nothing to assert against — the point is that none of it panics
        // and a default Trace is the no-op.
        assert!(!Trace::default().is_enabled());
    }

    #[test]
    fn spans_nest_and_events_attach_to_the_open_span() {
        let recorder = Recorder::new();
        let trace = recorder.trace();
        {
            let outer = trace.span("outer");
            trace.event("in_outer", vec![]);
            {
                let inner = trace.span_with("inner", vec![("k", 7_u64.into())]);
                assert_eq!((outer.id(), inner.id()), (1, 2));
                trace.event("in_inner", vec![]);
            }
            trace.event("back_in_outer", vec![]);
        }
        let events = recorder.events();
        let spans: Vec<u64> = events.iter().map(|e| e.span).collect();
        // span_start(outer) has parent 0; inner start has parent 1; the
        // inner point sits in span 2; after inner ends, span 1 again.
        assert_eq!(spans, vec![0, 1, 1, 2, 1, 1, 0]);
        assert_eq!(events[3].name, "in_inner");
        assert_eq!(events[6].kind, EventKind::SpanEnd);
        // Logical clock: consecutive, starting at 0.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn volatile_events_do_not_advance_the_clock_and_are_filtered() {
        let recorder = Recorder::new();
        let trace = recorder.trace();
        trace.event("a", vec![]);
        trace.volatile_event("partition", vec![("workers", 3_u64.into())]);
        trace.volatile_event("partition", vec![("workers", 3_u64.into())]);
        trace.event("b", vec![]);
        let events = recorder.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].seq, 1, "volatile events consumed no seq");
        let det = recorder.deterministic_json();
        assert!(!det.contains("partition"));
        let full = recorder.full_json();
        assert!(full.contains("partition") && full.contains("\"volatile\": true"));
    }

    #[test]
    fn deterministic_export_is_invariant_to_volatile_interleaving() {
        let run = |volatiles: usize| {
            let recorder = Recorder::new();
            let trace = recorder.trace();
            let span = trace.span("solve");
            for w in 0..volatiles {
                trace.volatile_event("partition", vec![("worker", w.into())]);
            }
            trace.event("sweep", vec![("iter", 0_u64.into())]);
            drop(span);
            recorder.deterministic_json()
        };
        assert_eq!(run(1), run(3), "volatile count must not skew the export");
    }

    #[test]
    fn metrics_aggregate_and_export_sorted_by_name() {
        let recorder = Recorder::new();
        let trace = recorder.trace();
        trace.add("z.counter", 2);
        trace.add("z.counter", 3);
        trace.gauge("a.gauge", 1.5);
        trace.gauge("a.gauge", 2.5);
        trace.observe("m.hist", RESIDUAL_DECADES, 1e-13);
        trace.observe("m.hist", RESIDUAL_DECADES, 0.5);
        let json = recorder.deterministic_json();
        let a = json.find("a.gauge").expect("gauge exported");
        let m = json.find("m.hist").expect("histogram exported");
        let z = json.find("z.counter").expect("counter exported");
        assert!(a < m && m < z, "metrics sort by name");
        assert!(json.contains("\"value\": 5"), "counter summed");
        assert!(json.contains("\"value\": 2.5"), "gauge last-write-wins");
        assert!(json.contains("\"le_1e-12\": 1"));
    }

    #[test]
    fn trace_handles_work_across_scoped_threads() {
        // The seam contract: handles may cross into scoped workers. (Real
        // instrumentation keeps hot parallel regions silent; this only
        // checks nothing deadlocks or drops events.)
        let recorder = Recorder::new();
        let trace = recorder.trace();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let t = trace.clone();
                scope.spawn(move || t.add("spawned", 1));
            }
        });
        let json = recorder.deterministic_json();
        assert!(json.contains("\"value\": 3"));
    }

    #[test]
    fn exports_render_valid_empty_shapes() {
        let recorder = Recorder::new();
        let json = recorder.deterministic_json();
        assert!(json.contains("\"events\": []"));
        assert!(json.contains("\"metrics\": []"));
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert_eq!(recorder.event_count(), 0);
    }
}
