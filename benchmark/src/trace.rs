//! In-memory spans for the traced run.
//!
//! Every timed call of a traced run is one span: name, parent, workload,
//! instance, start and end. Spans stay in memory while the run measures and
//! are written as JSON lines when it ends. The end-to-end runs never create a
//! `Tracer`, so they record no spans at all.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// What the call worked on: a cell id, a scenario, a CLI argument list.
    pub instance: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Per-name totals: calls, summed duration, and summed self time (duration
/// minus the part covered by child spans).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span whose parent is the innermost open span.
    pub fn span<T>(&mut self, name: &str, instance: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            instance: instance.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`, in call order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Summed duration of every span called `name` (a fold from 0.0: the sum
    /// of no floats is -0.0).
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |sum, d| sum + d)
    }

    pub fn totals_by_name(&self) -> BTreeMap<String, NameTotals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.seconds();
            }
        }
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_s) {
            let t = out.entry(s.name.clone()).or_default();
            t.calls += 1;
            t.total_s += s.seconds();
            t.self_s += s.seconds() - children;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":{},\"parent\":{parent},\"workload\":{},\"instance\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json_string(&s.name),
                json_string(&self.workload),
                json_string(&s.instance),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new("w");
        tr.span("outer", "a", |tr| {
            tr.span("inner", "a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tr.span("inner", "b", |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let totals = tr.totals_by_name();
        assert_eq!(totals["inner"].calls, 2);
        assert!(totals["inner"].total_s >= 0.005);
        let outer = totals["outer"];
        assert!((outer.self_s - (outer.total_s - totals["inner"].total_s)).abs() < 1e-12);
        assert_eq!(tr.durations("inner").len(), 2);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_every_field() {
        let mut tr = Tracer::new("lm_serial");
        tr.span("cell", "Fat tree/1/LM", |tr| {
            tr.span("tb_flow.solve", "x\"y", |_| ())
        });
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("scratch")
            .join(format!("trace-test-{}.jsonl", std::process::id()));
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"cell\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[0].contains("\"workload\":\"lm_serial\""));
        assert!(lines[0].contains("\"instance\":\"Fat tree/1/LM\""));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"instance\":\"x\\\"y\""));
        for key in ["\"start_ns\":", "\"end_ns\":"] {
            assert!(lines.iter().all(|l| l.contains(key)));
        }
    }
}
