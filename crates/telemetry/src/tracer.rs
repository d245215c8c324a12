//! Span-based tracing with parent/child nesting and a Chrome
//! `trace_event` exporter.
//!
//! `tracer.span("validate.block")` returns a guard; dropping it records a
//! complete span into a bounded ring buffer (oldest spans evicted first).
//! Parentage is tracked per thread with a thread-local stack, so nested
//! guards form the block → tx → phase hierarchy Perfetto renders as a
//! flamegraph. Discrete-event code that runs "at" a virtual time records
//! finished spans directly with [`Tracer::record_manual`] on a named
//! track, or with [`Tracer::record_linked`] when the span belongs to a
//! cross-node causal trace (see [`TraceContext`]).
//!
//! Cross-node traces never mint ids from the tracer's counter: a
//! [`TraceContext`] derives its trace id and every stage's span id from
//! the submission seed with SplitMix64, so the ids on the wire are
//! bit-identical whether or not a tracer is attached — tracing cannot
//! perturb consensus state.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::WallClock;
use crate::registry::json_string;

/// Default Perfetto process lane for guard spans and plain manual records.
pub const DEFAULT_PROCESS: u64 = 1;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
/// Used to derive trace and span ids deterministically from seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identity of one transaction's cross-node trace: a trace id shared by
/// every span on the journey plus the span id of the stage that produced
/// this context (0 = root, no parent).
///
/// Both ids are SplitMix64-derived from the submission seed and index —
/// never from a tracer counter or a clock — so the context encoded into
/// an `OrderedBatch` is byte-identical with telemetry on or off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by all spans of one submission's journey.
    pub trace_id: u64,
    /// Span id of the upstream stage (0 when this context is a root).
    pub parent_span: u64,
}

impl TraceContext {
    /// Root context for the `index`-th submission under `seed`.
    pub fn root(seed: u64, index: u64) -> TraceContext {
        TraceContext {
            trace_id: splitmix64(splitmix64(seed ^ 0x6c76_5f74_7261_6365) ^ index),
            parent_span: 0,
        }
    }

    /// The deterministic span id this trace uses for pipeline `stage`.
    /// Stages are small per-pipeline constants (submit = 1, queue = 2, …);
    /// mixing them through SplitMix64 keeps ids unique across stages and
    /// disjoint (with overwhelming probability) from tracer-counter ids.
    pub fn span_id(&self, stage: u64) -> u64 {
        splitmix64(self.trace_id ^ splitmix64(stage))
    }

    /// This context re-parented under `parent_span` (the id of the stage
    /// that just ran).
    pub fn with_parent(self, parent_span: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span,
        }
    }

    /// The parent span id, if any.
    pub fn parent(&self) -> Option<u64> {
        (self.parent_span != 0).then_some(self.parent_span)
    }
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id within this tracer (or a SplitMix64-derived id for
    /// linked records).
    pub id: u64,
    /// Id of the span that was open on the same thread when this one
    /// started (None for roots and plain manual records).
    pub parent: Option<u64>,
    /// Span name, e.g. `validate.block`.
    pub name: String,
    /// Start time in clock microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Track the span renders on: a per-thread lane for guard spans, a
    /// named lane for manual records.
    pub track: u64,
    /// Perfetto process lane ([`DEFAULT_PROCESS`] unless recorded via
    /// [`Tracer::record_linked`] / [`Tracer::record_on_process`]).
    pub process: u64,
    /// Cross-node trace this span belongs to, if any.
    pub trace_id: Option<u64>,
}

struct Ring {
    spans: VecDeque<SpanRecord>,
    evicted: u64,
}

/// A span tracer: bounded ring buffer of recent [`SpanRecord`]s, timed
/// against a [`WallClock`].
pub struct Tracer {
    clock: Arc<WallClock>,
    capacity: usize,
    ring: Mutex<Ring>,
    next_id: AtomicU64,
    /// Track id + display name per OS thread / named manual track.
    tracks: Mutex<HashMap<TrackKey, u64>>,
    /// (track id, owning process id, display name).
    track_names: Mutex<Vec<(u64, u64, String)>>,
    next_track: AtomicU64,
    /// Registered process lanes: name → id, plus display order.
    processes: Mutex<HashMap<String, u64>>,
    process_names: Mutex<Vec<(u64, String)>>,
    next_process: AtomicU64,
}

#[derive(PartialEq, Eq, Hash)]
enum TrackKey {
    Thread(std::thread::ThreadId),
    /// A named lane scoped to a process (the same track name on two
    /// processes is two distinct lanes).
    Named(u64, String),
}

thread_local! {
    /// Stack of (tracer identity, span id) for the spans currently open on
    /// this thread; the top entry for a given tracer is the parent of its
    /// next span.
    static OPEN_SPANS: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("spans", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Tracer {
    /// A tracer over `clock` keeping at most `capacity` recent spans.
    pub fn new(clock: Arc<WallClock>, capacity: usize) -> Tracer {
        Tracer {
            clock,
            capacity: capacity.max(1),
            ring: Mutex::new(Ring {
                spans: VecDeque::new(),
                evicted: 0,
            }),
            next_id: AtomicU64::new(1),
            tracks: Mutex::new(HashMap::new()),
            track_names: Mutex::new(Vec::new()),
            next_track: AtomicU64::new(1),
            processes: Mutex::new(HashMap::new()),
            process_names: Mutex::new(Vec::new()),
            next_process: AtomicU64::new(DEFAULT_PROCESS + 1),
        }
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().spans.len()
    }

    /// True if no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring-buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans evicted so far to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.ring.lock().unwrap().evicted
    }

    /// Intern a named Perfetto process lane (one per orderer/peer node)
    /// and return its pid. The same name always resolves to the same id.
    pub fn process(&self, name: &str) -> u64 {
        let mut processes = self.processes.lock().unwrap();
        if let Some(&id) = processes.get(name) {
            return id;
        }
        let id = self.next_process.fetch_add(1, Ordering::Relaxed);
        processes.insert(name.to_string(), id);
        self.process_names
            .lock()
            .unwrap()
            .push((id, name.to_string()));
        id
    }

    /// A stable identity for thread-local parent bookkeeping.
    fn identity(&self) -> usize {
        self as *const Tracer as usize
    }

    fn track_id(&self, key: TrackKey, process: u64, name: impl FnOnce() -> String) -> u64 {
        let mut tracks = self.tracks.lock().unwrap();
        if let Some(&id) = tracks.get(&key) {
            return id;
        }
        let id = self.next_track.fetch_add(1, Ordering::Relaxed);
        tracks.insert(key, id);
        self.track_names.lock().unwrap().push((id, process, name()));
        id
    }

    /// Open a span; dropping the returned guard records it. Spans opened
    /// while another guard is live on the same thread become its children.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find(|(t, _)| *t == self.identity())
                .map(|&(_, id)| id);
            stack.push((self.identity(), id));
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name: name.to_string(),
            start_us: self.clock.now_us(),
        }
    }

    /// Record an already-finished span on a named track — how simulator
    /// code reports work that "happened" between two virtual timestamps.
    pub fn record_manual(&self, name: &str, start_us: u64, end_us: u64, track: &str) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record_raw(
            name,
            start_us,
            end_us,
            DEFAULT_PROCESS,
            track,
            id,
            None,
            None,
        );
    }

    /// [`Tracer::record_manual`] on an explicit process lane; returns the
    /// span id for use as a parent of later manual records.
    pub fn record_on_process(
        &self,
        name: &str,
        start_us: u64,
        end_us: u64,
        process: u64,
        track: &str,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record_raw(name, start_us, end_us, process, track, id, None, None);
        id
    }

    /// Record a finished span that belongs to a cross-node trace. The
    /// span id is caller-supplied (derived via [`TraceContext::span_id`],
    /// not minted here) so the causal chain is identical on every node
    /// and with telemetry on or off; `ctx.parent_span` links upstream.
    #[allow(clippy::too_many_arguments)]
    pub fn record_linked(
        &self,
        name: &str,
        start_us: u64,
        end_us: u64,
        process: u64,
        track: &str,
        span_id: u64,
        ctx: TraceContext,
    ) {
        self.record_raw(
            name,
            start_us,
            end_us,
            process,
            track,
            span_id,
            ctx.parent(),
            Some(ctx.trace_id),
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn record_raw(
        &self,
        name: &str,
        start_us: u64,
        end_us: u64,
        process: u64,
        track: &str,
        span_id: u64,
        parent: Option<u64>,
        trace_id: Option<u64>,
    ) {
        let track_id = self.track_id(TrackKey::Named(process, track.to_string()), process, || {
            track.to_string()
        });
        self.push(SpanRecord {
            id: span_id,
            parent,
            name: name.to_string(),
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            track: track_id,
            process,
            trace_id,
        });
    }

    fn push(&self, record: SpanRecord) {
        let mut ring = self.ring.lock().unwrap();
        if ring.spans.len() == self.capacity {
            ring.spans.pop_front();
            ring.evicted += 1;
        }
        ring.spans.push_back(record);
    }

    /// A copy of the buffered spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.ring.lock().unwrap().spans.iter().cloned().collect()
    }

    /// Export buffered spans as Chrome `trace_event` JSON (the
    /// `traceEvents` array format). Open the output in `chrome://tracing`
    /// or <https://ui.perfetto.dev> — each registered process renders as
    /// its own lane group (one per orderer/peer node), spans nest by time
    /// containment per track, and spans that carry a [`TraceContext`]
    /// expose `trace`/`parent` args linking the cross-node journey.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.recent();
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (pid, name) in self.process_names.lock().unwrap().iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":{}}}}}",
                json_string(name)
            ));
        }
        for (track, process, name) in self.track_names.lock().unwrap().iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{process},\"tid\":{track},\"args\":{{\"name\":{}}}}}",
                json_string(name)
            ));
        }
        for s in &spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"id\":{}{}{}}}}}",
                json_string(&s.name),
                s.start_us,
                s.dur_us.max(1),
                s.process,
                s.track,
                s.id,
                match s.parent {
                    Some(p) => format!(",\"parent\":{p}"),
                    None => String::new(),
                },
                match s.trace_id {
                    Some(t) => format!(",\"trace\":{t}"),
                    None => String::new(),
                }
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Guard for an open span; records the span when dropped.
#[must_use = "a span guard records on drop; binding it to _ ends the span immediately"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: u64,
}

impl SpanGuard<'_> {
    /// This span's id (usable as a parent for manual records).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_us = self.tracer.clock.now_us();
        OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Tolerate out-of-order drops: remove *this* span wherever it
            // sits, not blindly the top of the stack.
            if let Some(pos) = stack
                .iter()
                .rposition(|&(t, id)| t == self.tracer.identity() && id == self.id)
            {
                stack.remove(pos);
            }
        });
        let thread = std::thread::current();
        let track = self
            .tracer
            .track_id(TrackKey::Thread(thread.id()), DEFAULT_PROCESS, || {
                thread
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("{:?}", thread.id()))
            });
        self.tracer.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            dur_us: end_us.saturating_sub(self.start_us),
            track,
            process: DEFAULT_PROCESS,
            trace_id: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall_tracer(capacity: usize) -> Tracer {
        Tracer::new(Arc::new(WallClock::new()), capacity)
    }

    #[test]
    fn nested_guards_record_parentage() {
        let t = wall_tracer(64);
        {
            let outer = t.span("block");
            let outer_id = outer.id();
            {
                let inner = t.span("tx");
                assert_ne!(inner.id(), outer_id);
            }
            let _sibling = t.span("tx2");
        }
        let spans = t.recent();
        assert_eq!(spans.len(), 3);
        // Drop order: tx, tx2, block.
        let block = spans.iter().find(|s| s.name == "block").unwrap();
        let tx = spans.iter().find(|s| s.name == "tx").unwrap();
        let tx2 = spans.iter().find(|s| s.name == "tx2").unwrap();
        assert_eq!(block.parent, None);
        assert_eq!(tx.parent, Some(block.id));
        assert_eq!(tx2.parent, Some(block.id));
        assert!(tx.start_us >= block.start_us);
        assert!(spans.iter().all(|s| s.process == DEFAULT_PROCESS));
    }

    #[test]
    fn after_guards_drop_new_spans_are_roots() {
        let t = wall_tracer(64);
        drop(t.span("first"));
        drop(t.span("second"));
        let spans = t.recent();
        assert!(spans.iter().all(|s| s.parent.is_none()), "{spans:?}");
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let t = wall_tracer(4);
        for i in 0..10 {
            drop(t.span(&format!("s{i}")));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.evicted(), 6);
        let names: Vec<_> = t.recent().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["s6", "s7", "s8", "s9"]);
    }

    #[test]
    fn manual_records_use_virtual_time_and_named_tracks() {
        let t = wall_tracer(64);
        t.record_manual("order.batch", 250, 900, "orderer");
        t.record_manual("validate.block", 900, 1_000, "validator");
        let spans = t.recent();
        assert_eq!(spans[0].start_us, 250);
        assert_eq!(spans[0].dur_us, 650);
        assert_ne!(spans[0].track, spans[1].track);
        // Same track name resolves to the same lane.
        t.record_manual("order.batch", 1_000, 1_100, "orderer");
        assert_eq!(t.recent()[2].track, spans[0].track);
    }

    #[test]
    fn chrome_trace_is_wellformed_json_shape() {
        let t = wall_tracer(64);
        {
            let _outer = t.span("block \"quoted\"");
            let _inner = t.span("tx");
        }
        t.record_manual("order", 1, 2, "orderer");
        let json = t.chrome_trace_json();
        assert!(
            json.starts_with("{\"traceEvents\":[") && json.trim_end().ends_with("]}"),
            "{json}"
        );
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("block \\\"quoted\\\""), "{json}");
        // Balanced braces/brackets (cheap structural check without a parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn spans_on_different_threads_do_not_share_parents() {
        let t = Arc::new(wall_tracer(64));
        let _outer = t.span("main");
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            drop(t2.span("worker"));
        })
        .join()
        .unwrap();
        let worker = t.recent().into_iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, None);
    }

    #[test]
    fn trace_context_ids_are_deterministic_and_distinct() {
        let a = TraceContext::root(42, 0);
        let b = TraceContext::root(42, 0);
        assert_eq!(a, b);
        assert_ne!(a.trace_id, TraceContext::root(42, 1).trace_id);
        assert_ne!(a.trace_id, TraceContext::root(43, 0).trace_id);
        assert_eq!(a.parent(), None);
        // Stage span ids are stable and pairwise distinct.
        assert_eq!(a.span_id(1), b.span_id(1));
        assert_ne!(a.span_id(1), a.span_id(2));
        let child = a.with_parent(a.span_id(1));
        assert_eq!(child.trace_id, a.trace_id);
        assert_eq!(child.parent(), Some(a.span_id(1)));
    }

    #[test]
    fn linked_records_carry_process_lane_and_trace_args() {
        let t = wall_tracer(64);
        let orderer = t.process("orderer-0");
        let peer = t.process("peer-1");
        assert_ne!(orderer, peer);
        assert_eq!(t.process("orderer-0"), orderer);

        let ctx = TraceContext::root(7, 0);
        let submit = ctx.span_id(1);
        t.record_linked("submit", 10, 20, orderer, "client", submit, ctx);
        let commit = ctx.span_id(2);
        t.record_linked(
            "peer.commit",
            20,
            40,
            peer,
            "commit",
            commit,
            ctx.with_parent(submit),
        );

        let spans = t.recent();
        assert_eq!(spans[0].process, orderer);
        assert_eq!(spans[0].trace_id, Some(ctx.trace_id));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].process, peer);
        assert_eq!(spans[1].parent, Some(submit));
        // Same track name on two processes is two distinct lanes.
        let a = t.record_on_process("x", 0, 1, orderer, "commit");
        let b = t.record_on_process("x", 0, 1, peer, "commit");
        assert_ne!(a, b);
        let spans = t.recent();
        assert_ne!(spans[2].track, spans[3].track);

        let json = t.chrome_trace_json();
        assert!(json.contains("\"process_name\""), "{json}");
        assert!(
            json.contains(&format!("\"trace\":{}", ctx.trace_id)),
            "{json}"
        );
        assert!(json.contains(&format!("\"pid\":{peer}")), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
