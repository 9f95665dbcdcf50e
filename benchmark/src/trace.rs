//! Spans recorded from the benchmark's own side of each call.
//!
//! The traced pass wraps every call into the system in a span: one root
//! per operation, a child around the service or durable call carrying
//! the counters that call returned, a child around the answer check,
//! and one span per layer-probe loop with its call count. Spans stay in
//! memory and are written as JSON lines when the run ends. A span's self
//! time is its duration minus its children's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = u32;

pub struct Span {
    pub id: SpanId,
    /// 0 for a root.
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

/// `None` spans cost one branch: the untraced pass runs the same code
/// with a disabled recorder, so the two passes differ only in tracing.
pub struct Recorder {
    spans: Option<Vec<Span>>,
    origin: Instant,
}

impl Recorder {
    pub fn enabled() -> Recorder {
        Recorder {
            spans: Some(Vec::new()),
            origin: Instant::now(),
        }
    }

    pub fn disabled() -> Recorder {
        Recorder {
            spans: None,
            origin: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; ids start at 1 so 0 can mean "no parent".
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if self.spans.is_none() {
            return 0;
        }
        let now = self.now_ns();
        let spans = self.spans.as_mut().expect("checked above");
        let id = spans.len() as SpanId + 1;
        spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        id
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_with(id, &[]);
    }

    pub fn end_with(&mut self, id: SpanId, counts: &[(&'static str, u64)]) {
        if self.spans.is_none() {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans.as_mut().expect("checked above")[id as usize - 1];
        span.end_ns = now;
        span.counts.extend_from_slice(counts);
    }

    /// Time `f` as a child-less span named `name` with `calls` calls.
    pub fn probe<R>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, 0);
        let out = f();
        self.end_with(id, &[("calls", calls)]);
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.as_ref().map_or(0, Vec::len)
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            let mut pairs = vec![
                ("id".to_string(), Json::Num(f64::from(s.id))),
                ("parent".to_string(), Json::Num(f64::from(s.parent))),
                ("name".to_string(), Json::str(s.name)),
                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
            ];
            pairs.extend(
                s.counts
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Num(v as f64))),
            );
            writeln!(out, "{}", Json::Obj(pairs))?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_root() {
        let mut r = Recorder::enabled();
        let root = r.begin("petq", 0);
        let call = r.begin("service.petq", root);
        r.end_with(call, &[("postings_scanned", 7)]);
        r.end(root);
        let spans = r.spans.as_ref().unwrap();
        assert_eq!((spans[0].id, spans[0].parent), (1, 0));
        assert_eq!((spans[1].id, spans[1].parent), (2, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].counts, vec![("postings_scanned", 7)]);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        let id = r.begin("petq", 0);
        r.end(id);
        assert_eq!((id, r.span_count()), (0, 0));
    }
}
