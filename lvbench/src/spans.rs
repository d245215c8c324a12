//! Benchmark-side spans: name, start, end, the span that caused it, and
//! the id of the operation it belongs to, kept in memory until the run
//! ends. Spans wrap calls into the crates' public functions from the
//! benchmark's own files; nothing inside the program is instrumented.
//! A recorder that is off runs the closure and records nothing, so the
//! untraced run executes the same code path.

use std::sync::Arc;
use std::time::Instant;

use ledgerview_telemetry::{profile_spans, Profile, TraceContext, Tracer, WallClock};

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    pub done: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans::new(false)
    }

    pub fn on() -> Spans {
        Spans::new(true)
    }

    fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            done: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` for operation `op`; spans opened
    /// by `f` through the recorder it is handed become children.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.done.len();
        self.done.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.done[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Durations of every span called `name`, milliseconds.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.done
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Total seconds inside spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.ms(name).iter().sum::<f64>() / 1e3
    }

    /// Seconds inside top-level spans: what the ledger rows must tile.
    pub fn root_total_s(&self) -> f64 {
        self.done
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Replay the spans into the telemetry tracer, which owns the Chrome
    /// trace encoding and the folded-stack profiler.
    fn export(&self) -> Tracer {
        let tracer = Tracer::new(Arc::new(WallClock::new()), self.done.len().max(1));
        let lane = tracer.process("lvbench");
        for (i, s) in self.done.iter().enumerate() {
            let ctx = TraceContext {
                trace_id: s.op,
                parent_span: s.parent.map_or(0, |p| p as u64 + 1),
            };
            tracer.record_linked(
                s.name,
                s.start_ns / 1_000,
                s.end_ns / 1_000,
                lane,
                "driver",
                i as u64 + 1,
                ctx,
            );
        }
        tracer
    }

    /// Chrome-trace JSON (load in Perfetto or `chrome://tracing`).
    pub fn chrome_trace_json(&self) -> String {
        self.export().chrome_trace_json()
    }

    /// Per-path totals and self times (self = span minus its children).
    pub fn profile(&self) -> Profile {
        profile_spans(&self.export().recent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn off_records_nothing_and_returns_the_value() {
        let mut s = Spans::off();
        assert_eq!(s.time("a", 1, |_| 7), 7);
        assert!(s.done.is_empty());
    }

    #[test]
    fn nesting_parents_and_self_time() {
        let mut s = Spans::on();
        s.time("outer", 9, |s| {
            spin(300);
            s.time("inner", 9, |_| spin(700));
        });
        assert_eq!(s.done.len(), 2);
        assert_eq!(s.done[1].parent, Some(0));
        assert_eq!(s.done[0].parent, None);
        let outer = s.total_s("outer");
        let inner = s.total_s("inner");
        assert!(outer > inner && inner >= 0.0007, "{outer} {inner}");
        assert!((s.root_total_s() - outer).abs() < 1e-9);

        let profile = s.profile();
        let p = profile.phase("outer").expect("outer phase");
        let c = profile
            .phase("outer;inner")
            .expect("inner phase under outer");
        assert_eq!(p.count, 1);
        assert!(p.self_us + c.total_us <= p.total_us + 1);
        assert!(
            p.self_us >= 250,
            "outer self time excludes inner: {}",
            p.self_us
        );
        let json = s.chrome_trace_json();
        assert!(json.contains("\"outer\"") && json.contains("\"inner\""));
        assert!(json.contains("\"trace\":9"), "{json}");
    }
}
