//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the per-layer self times derived from them.
//!
//! A span is (name, start, end, parent, request). Spans of one request share
//! the request id; a layer's **self time** is its span's duration minus the
//! part of that interval its child spans cover. Spans stay in memory while
//! the run is timed and are written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Index of a span inside its [`Recorder`]; `NO_PARENT` for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Append-only span store with its own clock origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    /// Nanoseconds since this recorder's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span from two clock readings the caller already
    /// took, so adjacent stages share one reading at their boundary.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        debug_assert!(end_ns >= start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Open a root span whose end is set later by [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, start_ns: u64, request: u64) -> SpanId {
        self.push(name, start_ns, start_ns, NO_PARENT, request)
    }

    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write at most `limit` spans as JSON lines; returns how many. Ids (and
    /// parents) are shifted by `first_id`, so that several recorders can
    /// share one file.
    pub fn write_jsonl(
        &self,
        w: &mut impl Write,
        first_id: usize,
        limit: usize,
    ) -> io::Result<usize> {
        let n = self.spans.len().min(limit);
        for (k, s) in self.spans[..n].iter().enumerate() {
            write!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}",
                first_id + k,
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            )?;
            if s.parent != NO_PARENT {
                write!(w, ",\"parent\":{}", first_id + s.parent as usize)?;
            }
            writeln!(w, "}}")?;
        }
        Ok(n)
    }
}

/// Self time of every span: duration minus the part covered by its direct
/// children (each clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let covered = s
            .end_ns
            .min(p.end_ns)
            .saturating_sub(s.start_ns.max(p.start_ns));
        own[s.parent as usize] = own[s.parent as usize].saturating_sub(covered);
    }
    own
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Per-name totals, in name order.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::with_capacity(8);
        let root = r.open("get_plan", 100, 7);
        r.push("svector", 100, 130, root, 7);
        let decide = r.push("decide", 130, 400, root, 7);
        r.push("recost", 200, 300, decide, 7);
        r.close(root, 450);
        let own = self_times(r.spans());
        // root: 350 − 30 − 270 = 50; decide: 270 − 100 = 170.
        assert_eq!(own, vec![50, 30, 170, 100]);
        let layers = by_layer(r.spans());
        assert_eq!(layers["get_plan"].self_ns, 50);
        assert_eq!(layers["get_plan"].total_ns, 350);
        assert_eq!(layers["decide"].mean_self_ns(), 170.0);
        // Every nanosecond of the root is attributed exactly once.
        let attributed: u64 = layers.values().map(|t| t.self_ns).sum();
        assert_eq!(attributed, 350);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut r = Recorder::with_capacity(4);
        let root = r.open("rtt", 0, 1);
        r.close(root, 100);
        // A child that overruns its parent covers only the shared part.
        r.push("read", 60, 140, root, 1);
        assert_eq!(self_times(r.spans()), vec![60, 80]);
    }

    #[test]
    fn jsonl_names_parent_only_for_children_and_honours_the_limit() {
        let mut r = Recorder::with_capacity(4);
        let root = r.open("rtt", 5, 9);
        r.push("write", 5, 8, root, 9);
        r.close(root, 20);
        let mut buf = Vec::new();
        assert_eq!(r.write_jsonl(&mut buf, 0, 10).unwrap(), 2);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"id\":0,\"name\":\"rtt\",\"start_ns\":5,\"end_ns\":20,\"request\":9}"
        );
        assert!(lines[1].ends_with(",\"request\":9,\"parent\":0}"));
        let mut shifted = Vec::new();
        assert_eq!(r.write_jsonl(&mut shifted, 100, 2).unwrap(), 2);
        let text = String::from_utf8(shifted).unwrap();
        assert!(text.lines().nth(1).unwrap().starts_with("{\"id\":101,"));
        assert!(text.lines().nth(1).unwrap().ends_with(",\"parent\":100}"));
        let mut one = Vec::new();
        assert_eq!(r.write_jsonl(&mut one, 0, 1).unwrap(), 1);
    }
}
