//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The spans wrap public functions from outside, so a span's children are
//! only the layer calls the *benchmark* makes inside it.  A layer's self
//! time is therefore derived by subtracting separately measured same-input
//! calls into the layers beneath it, not read off nested spans.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// An in-memory span recorder; switched off it only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Starts the next request: the spans that follow share its identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; spans `f` opens are its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// A span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Median duration in seconds of the spans called `name`.
    pub fn median_s(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent,
    /// request}` objects, `parent` being an index into the array or null.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{comma}",
                span.name, span.start_ns, span.end_ns, span.request
            )
            .expect("writing to a String cannot fail");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_request_identifier() {
        let mut tracer = Tracer::new(true);
        tracer.next_request();
        let out = tracer.span("outer", |t| t.leaf("inner", || 7));
        assert_eq!(out, 7);
        assert_eq!(tracer.spans.len(), 2);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[1].request, 1);
        assert!(tracer.spans[0].end_ns >= tracer.spans[1].end_ns);
        assert_eq!(tracer.durations("inner").len(), 1);
        assert!(tracer.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.leaf("x", || 1), 1);
        assert!(tracer.spans.is_empty());
        assert_eq!(tracer.median_s("x"), 0.0);
    }
}
