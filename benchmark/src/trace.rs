//! In-memory spans for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. They stay in memory while the pass runs and are written to
//! `benchmark/out/trace-<workload>.jsonl` when it ends. A disabled recorder
//! runs the same closures without touching the clock, which is the untraced
//! arm `trace.overhead_share` is measured against.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a request's root).
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans with parent links taken from the call nesting.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `request` named `layer`/`name`; spans `f`
    /// opens through the recorder it is handed become children.
    pub fn span<T>(
        &mut self,
        request: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `layer`/`name`.
    pub fn durations_ns(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, by index: its duration minus the part of its
/// interval that its child spans cover (children are clipped to the parent
/// and overlapping siblings are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Share of the root spans' time that their descendants account for:
/// Σ (root duration − root self time) ÷ Σ root duration.
pub fn coverage_share(spans: &[Span]) -> f64 {
    let self_times = self_times_ns(spans);
    let (mut covered, mut total) = (0u64, 0u64);
    for (span, own) in spans.iter().zip(&self_times) {
        if span.parent.is_none() {
            total += span.duration_ns();
            covered += span.duration_ns() - own;
        }
    }
    crate::stats::share(covered as f64, total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            layer: "test",
            name: "span",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_on_a_synthetic_tree() {
        let spans = vec![
            span(0, None, 0, 100),     // root
            span(1, Some(0), 10, 50),  // child with a nested grandchild
            span(2, Some(1), 20, 30),  // grandchild
            span(3, Some(0), 40, 70),  // overlaps sibling 1 on [40, 50)
            span(4, Some(0), 80, 80),  // zero-length
            span(5, Some(0), 90, 120), // runs past its parent: clipped to 100
        ];
        let own = self_times_ns(&spans);
        // Root: children cover [10,70) and [90,100) → 70 of 100.
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 30); // 40 minus the grandchild's 10
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 0);
        assert_eq!(own[5], 30);
        assert!((coverage_share(&spans) - 0.70).abs() < 1e-12);
    }

    #[test]
    fn recorder_links_parents_by_nesting_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        let value = rec.span(7, "a", "outer", |rec| rec.span(7, "b", "inner", |_| 41) + 1);
        assert_eq!(value, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.durations_ns("b", "inner").len(), 1);

        let mut off = Recorder::new(false);
        assert_eq!(off.span(0, "a", "outer", |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
