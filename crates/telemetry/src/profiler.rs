//! Deterministic self-profiler: hierarchical phase cost accounting over
//! the span tracer's ring buffer.
//!
//! [`profile_spans`] folds a slice of [`SpanRecord`]s into a tree of
//! *phases* keyed by the span-name path from the root (`cut.block` →
//! `cut.block;validate.block` → …), charging each span's duration to its
//! path and its *self time* (duration minus direct children) to the
//! leaf. The result answers "where does a committed tx spend its time"
//! without external tooling:
//!
//! * [`Profile::folded`] — `flamegraph.pl`-compatible folded stacks
//!   (`a;b;c <self_us>` per line), self-time-weighted.
//! * [`Profile::table`] — an aligned per-phase cost table with count,
//!   total/self microseconds, p50/p99, and optional attributed bytes.
//!
//! The profiler is pure aggregation: given the same spans it produces
//! byte-identical output (phases sort by path, quantiles come from the
//! deterministic [`Histogram`]), so profiles
//! taken from a seeded simulation run are reproducible artifacts.

use std::collections::{BTreeMap, HashMap};

use crate::histogram::Histogram;
use crate::tracer::SpanRecord;

/// Aggregate cost of one phase (a unique span-name path).
#[derive(Clone, Debug)]
pub struct PhaseCost {
    /// Semicolon-joined name path from the root, e.g.
    /// `cut.block;validate.block`.
    pub path: String,
    /// Leaf span name.
    pub name: String,
    /// Number of path components minus one (roots are depth 0).
    pub depth: usize,
    /// Spans aggregated into this phase.
    pub count: u64,
    /// Total microseconds across those spans.
    pub total_us: u64,
    /// Microseconds not covered by direct children (flamegraph weight).
    pub self_us: u64,
    /// Median span duration.
    pub p50_us: u64,
    /// 99th-percentile span duration.
    pub p99_us: u64,
    /// Bytes attributed to this phase via [`Profile::attribute_bytes`].
    pub bytes: u64,
}

/// A folded profile: phases sorted by path plus the root total.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// All phases, sorted by `path` (parents sort before children).
    pub phases: Vec<PhaseCost>,
    /// Sum of root-span durations (spans with no buffered parent).
    pub root_total_us: u64,
}

struct Agg {
    name: String,
    depth: usize,
    count: u64,
    total_us: u64,
    self_us: u64,
    hist: Histogram,
}

/// Maximum parent-chain depth followed when building paths; bounds work
/// on malformed (cyclic) parent links, which truncate to a root at this
/// depth instead of looping.
const MAX_DEPTH: usize = 64;

/// Fold `spans` into a hierarchical [`Profile`]. Parent links that point
/// outside the slice (evicted or cross-buffer) make the span a root.
pub fn profile_spans(spans: &[SpanRecord]) -> Profile {
    // Last span wins for duplicate ids (deterministic: slice order).
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_id.insert(s.id, i);
    }
    // Direct-children time per parent id, for self-time accounting.
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            if by_id.contains_key(&p) {
                *child_us.entry(p).or_insert(0) += s.dur_us;
            }
        }
    }

    let mut phases: BTreeMap<String, Agg> = BTreeMap::new();
    let mut root_total_us = 0u64;
    for s in spans {
        let mut names: Vec<&str> = vec![&s.name];
        let mut cursor = s;
        for _ in 0..MAX_DEPTH {
            let Some(p) = cursor.parent.and_then(|p| by_id.get(&p)) else {
                break;
            };
            cursor = &spans[*p];
            names.push(&cursor.name);
        }
        if names.len() == 1 {
            root_total_us += s.dur_us;
        }
        names.reverse();
        // Semicolons delimit the folded stack; scrub them from names.
        let path = names
            .iter()
            .map(|n| n.replace(';', ":"))
            .collect::<Vec<_>>()
            .join(";");
        let depth = names.len() - 1;
        let self_us = s
            .dur_us
            .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
        let agg = phases.entry(path).or_insert_with(|| Agg {
            name: s.name.clone(),
            depth,
            count: 0,
            total_us: 0,
            self_us: 0,
            hist: Histogram::new(),
        });
        agg.count += 1;
        agg.total_us += s.dur_us;
        agg.self_us += self_us;
        agg.hist.record(s.dur_us);
    }

    Profile {
        phases: phases
            .into_iter()
            .map(|(path, a)| PhaseCost {
                path,
                name: a.name,
                depth: a.depth,
                count: a.count,
                total_us: a.total_us,
                self_us: a.self_us,
                p50_us: a.hist.quantile(0.50),
                p99_us: a.hist.quantile(0.99),
                bytes: 0,
            })
            .collect(),
        root_total_us,
    }
}

impl Profile {
    /// Attribute `bytes` (from an allocation or wire byte counter) to
    /// every phase whose leaf name is `name`. Returns the number of
    /// phases credited.
    pub fn attribute_bytes(&mut self, name: &str, bytes: u64) -> usize {
        let mut hits = 0;
        for p in &mut self.phases {
            if p.name == name {
                p.bytes += bytes;
                hits += 1;
            }
        }
        hits
    }

    /// Look up a phase by exact path.
    pub fn phase(&self, path: &str) -> Option<&PhaseCost> {
        self.phases.iter().find(|p| p.path == path)
    }

    /// `flamegraph.pl`-compatible folded stacks, one `path self_us` line
    /// per phase with nonzero self time, sorted by path.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            if p.self_us > 0 {
                out.push_str(&p.path);
                out.push(' ');
                out.push_str(&p.self_us.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// An aligned per-phase cost table (indented by depth), for humans.
    pub fn table(&self) -> String {
        let mut rows: Vec<[String; 7]> = vec![[
            "phase".into(),
            "count".into(),
            "total_us".into(),
            "self_us".into(),
            "p50_us".into(),
            "p99_us".into(),
            "bytes".into(),
        ]];
        for p in &self.phases {
            rows.push([
                format!("{}{}", "  ".repeat(p.depth), p.name),
                p.count.to_string(),
                p.total_us.to_string(),
                p.self_us.to_string(),
                p.p50_us.to_string(),
                p.p99_us.to_string(),
                p.bytes.to_string(),
            ]);
        }
        let mut widths = [0usize; 7];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for row in &rows {
            for (i, (w, cell)) in widths.iter().zip(row.iter()).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    out.push_str(&format!("{cell:<w$}"));
                } else {
                    out.push_str(&format!("{cell:>w$}"));
                }
            }
            // Trailing alignment spaces on the last column are noise.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us: start,
            dur_us: dur,
            track: 1,
            process: 1,
            trace_id: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span(1, None, "cut.block", 0, 100),
            span(2, Some(1), "validate.block", 0, 60),
            span(3, Some(2), "verify.sig", 0, 40),
            span(4, Some(1), "persist.block", 60, 30),
        ];
        let p = profile_spans(&spans);
        assert_eq!(p.root_total_us, 100);
        let root = p.phase("cut.block").unwrap();
        assert_eq!(root.total_us, 100);
        assert_eq!(root.self_us, 10); // 100 - 60 - 30
        let validate = p.phase("cut.block;validate.block").unwrap();
        assert_eq!(validate.self_us, 20); // 60 - 40
        assert_eq!(validate.depth, 1);
        let sig = p.phase("cut.block;validate.block;verify.sig").unwrap();
        assert_eq!(sig.self_us, 40);
        assert_eq!(sig.depth, 2);
    }

    #[test]
    fn folded_output_is_flamegraph_shaped_and_deterministic() {
        let spans = vec![
            span(1, None, "a", 0, 10),
            span(2, Some(1), "b", 0, 4),
            span(3, None, "a", 10, 6),
        ];
        let p = profile_spans(&spans);
        assert_eq!(p.folded(), "a 12\na;b 4\n");
        // Same input → byte-identical output.
        assert_eq!(p.folded(), profile_spans(&spans).folded());
        assert_eq!(p.table(), profile_spans(&spans).table());
    }

    #[test]
    fn missing_parents_become_roots_and_cycles_terminate() {
        let spans = vec![
            span(5, Some(999), "orphan", 0, 7),
            span(6, Some(7), "x", 0, 3),
            span(7, Some(6), "y", 0, 3),
        ];
        let p = profile_spans(&spans);
        assert_eq!(p.phase("orphan").unwrap().total_us, 7);
        assert_eq!(p.root_total_us, 7);
        // The x↔y cycle aggregates without hanging.
        assert!(p.phases.len() >= 3);
    }

    #[test]
    fn quantiles_and_byte_attribution() {
        let mut spans = vec![];
        for i in 0..100u64 {
            spans.push(span(i + 1, None, "order.queue", i, i + 1));
        }
        let mut p = profile_spans(&spans);
        let q = p.phase("order.queue").unwrap();
        assert_eq!(q.count, 100);
        assert!(q.p50_us >= 40 && q.p50_us <= 60, "{}", q.p50_us);
        assert!(q.p99_us >= 90, "{}", q.p99_us);
        assert_eq!(p.attribute_bytes("order.queue", 4096), 1);
        assert_eq!(p.phase("order.queue").unwrap().bytes, 4096);
        assert_eq!(p.attribute_bytes("nope", 1), 0);
        let table = p.table();
        assert!(table.contains("order.queue"), "{table}");
        assert!(table.lines().next().unwrap().contains("p99_us"), "{table}");
    }
}
