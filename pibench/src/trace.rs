//! Span recording for the traced run. The benchmark records a span around
//! each call it makes into a layer's public functions — name, start, end,
//! the span that caused it, and the op it belongs to — into a buffer
//! allocated up front, and writes the buffer out when the run ends. Spans
//! inside the program are a later change; nothing here touches it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
}

/// Per-name totals over all recorded spans.
#[derive(Default, Clone, Copy)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// The open span new spans are children of.
    current: u32,
    enabled: bool,
    dropped: u64,
}

impl Recorder {
    /// A recorder that records nothing: `span` runs its body and `open`
    /// and `close` return at once. The untraced run uses this, so both
    /// runs execute the same benchmark code.
    pub fn off() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            current: NO_PARENT,
            enabled: false,
            dropped: 0,
        }
    }

    /// A recorder with room for `capacity` spans; later spans are counted
    /// as dropped, never allocated for.
    pub fn on(capacity: usize) -> Self {
        Recorder {
            spans: Vec::with_capacity(capacity),
            enabled: true,
            ..Recorder::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under until it is closed.
    pub fn open(&mut self, name: &'static str, op: usize) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            op: op as u32,
        });
        self.current = id;
        id
    }

    pub fn close(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    /// Records a leaf span around `body`, one call into a layer.
    pub fn span<T>(&mut self, name: &'static str, op: usize, body: impl FnOnce() -> T) -> T {
        let id = self.open(name, op);
        let out = body();
        self.close(id);
        out
    }

    /// Totals per span name, with self time = duration minus child spans;
    /// with `under`, only over spans whose parent has that name.
    pub fn totals(&self, under: Option<&str>) -> BTreeMap<&'static str, SpanTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let parent = self.spans.get(span.parent as usize).map(|p| p.name);
            if under.is_some() && under != parent {
                continue;
            }
            let duration = span.end_ns - span.start_ns;
            let total = totals.entry(span.name).or_default();
            total.count += 1;
            total.total_ns += duration;
            total.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// Writes every span as one JSON document.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{},\"spans\":[",
            self.dropped
        )?;
        for (id, span) in self.spans.iter().enumerate() {
            let comma = if id == 0 { "" } else { "," };
            let parent = match span.parent {
                NO_PARENT => "null".to_string(),
                parent => parent.to_string(),
            };
            write!(
                out,
                "{comma}\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::on(8);
        let root = rec.open("root", 3);
        rec.span("leaf", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.span("leaf", 3, || ());
        rec.close(root);
        let totals = rec.totals(None);
        assert_eq!(totals["leaf"].count, 2);
        assert_eq!(totals["leaf"].self_ns, totals["leaf"].total_ns);
        assert!(totals["leaf"].total_ns >= 2_000_000);
        assert_eq!(
            totals["root"].self_ns,
            totals["root"].total_ns - totals["leaf"].total_ns
        );
        let nested = rec.totals(Some("root"));
        assert_eq!(nested.len(), 1);
        assert_eq!(nested["leaf"].count, 2);
    }

    #[test]
    fn a_full_buffer_drops_spans_and_an_off_recorder_records_none() {
        let mut rec = Recorder::on(1);
        assert_eq!(rec.span("a", 0, || 1), 1);
        assert_eq!(rec.span("b", 0, || 2), 2);
        assert_eq!(rec.totals(None).len(), 1);
        assert_eq!(rec.dropped, 1);
        let mut off = Recorder::off();
        let root = off.open("root", 0);
        off.close(root);
        assert!(off.totals(None).is_empty());
    }
}
