//! In-memory span recorder for the traced run.
//!
//! Spans sit around the benchmark's own calls into each crate's public
//! functions; nothing inside the crates is instrumented. Each span keeps
//! its name, start, end, parent span, the id of the operation it belongs
//! to, and a work count (sectors, bytes, series…) that per-layer metrics
//! divide by. Spans stay in memory until [`Tracer::write_chrome`] writes
//! them out at the end of the run. A disabled tracer records nothing and
//! only calls through.

use std::cell::RefCell;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Operation id shared by every span of one workload operation.
    pub op: u64,
    /// Units of work done inside the span.
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// A fresh operation id.
    pub fn next_op(&self) -> u64 {
        let mut st = self.state.borrow_mut();
        st.next_op += 1;
        st.next_op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, charging `work` units to it.
    pub fn span<T>(&self, name: &'static str, op: u64, work: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut st = self.state.borrow_mut();
            let parent = st.open.last().copied();
            let idx = st.spans.len();
            st.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
                work,
            });
            st.open.push(idx);
            idx
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut st = self.state.borrow_mut();
        st.open.pop();
        let span = &mut st.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Record a span measured elsewhere (e.g. a phase duration a layer
    /// reports about itself), under the currently open span.
    pub fn record(&self, name: &'static str, op: u64, work: u64, start_ns: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut st = self.state.borrow_mut();
        let parent = st.open.last().copied();
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            op,
            work,
        });
    }

    /// Set the work count of the latest span named `name`, for work
    /// known only once the call has returned.
    pub fn set_last_work(&self, name: &str, work: u64) {
        let mut st = self.state.borrow_mut();
        if let Some(s) = st.spans.iter_mut().rev().find(|s| s.name == name) {
            s.work = work;
        }
    }

    /// Nanoseconds since the tracer's epoch (for [`Tracer::record`]).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// `f` applied to every span named `name`.
    pub fn map<T>(&self, name: &str, f: impl Fn(&Span) -> T) -> Vec<T> {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(f)
            .collect()
    }

    /// Per-span duration divided by its work count, in nanoseconds per
    /// unit, for every span named `name`.
    pub fn ns_per_unit(&self, name: &str) -> Vec<f64> {
        self.map(name, |s| s.dur_ns() as f64 / s.work.max(1) as f64)
    }

    /// The spans as a Chrome trace-event document.
    pub fn chrome_json(&self) -> String {
        let st = self.state.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{},\"work\":{}}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                s.work,
                if i + 1 < st.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true);
        let op = t.next_op();
        t.span("outer", op, 1, || t.span("inner", op, 4, || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.ns_per_unit("inner").len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 1, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
