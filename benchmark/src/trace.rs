//! Spans around the harness's calls into each layer.
//!
//! Spans are recorded only from this crate, around public library
//! calls; nothing inside the simulator is instrumented. They are held
//! in memory and written out once, when the run ends. A disabled tracer
//! records nothing and only calls the body, so the untraced run pays
//! one branch per call site.

use serde::{Map, Number, Value};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` indexes the span that was open when this
/// one started (its line in the written file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span called `name`, a child of whichever
    /// span is open.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return body(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name` among span indices
    /// `range`.
    pub fn total_s(&self, name: &str, range: Range<usize>) -> f64 {
        self.spans[range]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> Result<(), String> {
        let self_ns = self_times(&self.spans);
        let mut text = String::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let mut m = Map::new();
            let int = |v: u64| Value::Number(Number::PosInt(v));
            m.insert("name".into(), Value::String(span.name.into()));
            m.insert("start_ns".into(), int(span.start_ns));
            m.insert("end_ns".into(), int(span.end_ns));
            m.insert(
                "parent".into(),
                span.parent.map_or(Value::Null, |p| int(p as u64)),
            );
            m.insert("workload".into(), Value::String(workload.into()));
            m.insert("self_ns".into(), int(own));
            text.push_str(
                &serde_json::to_string(&Value::Object(m)).map_err(|e| format!("span: {e}"))?,
            );
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Self time of each span: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(0, 100, None),    // root: two children, one grandchild
            span(10, 40, Some(0)), // first sibling
            span(15, 25, Some(1)), // nested inside the first sibling
            span(50, 90, Some(0)), // second sibling
            span(200, 230, None),  // a second root, no children
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40, 30]);
        // self times add up to the roots' durations
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100 + 30);
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut t = Tracer::new(true);
        let got = t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |t| t.span("leaf", |_| 7))
        });
        assert_eq!(got, 7);
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("inner", Some(0)),
                ("leaf", Some(2))
            ]
        );
        for s in t.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(t.total_s("inner", 0..4) <= t.total_s("outer", 0..4));
        assert_eq!(t.total_s("inner", 3..4), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn written_spans_parse_back() {
        let mut t = Tracer::new(true);
        t.span("setup", |t| t.span("data.rmat_gen", |_| ()));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path, "bfs-rmat11").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        let child = lines[1].as_object().unwrap();
        assert_eq!(child.get("name").unwrap().as_str(), Some("data.rmat_gen"));
        assert_eq!(child.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(child.get("workload").unwrap().as_str(), Some("bfs-rmat11"));
        assert_eq!(
            lines[0].as_object().unwrap().get("parent"),
            Some(&Value::Null)
        );
    }
}
