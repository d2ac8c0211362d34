//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end and parent. Nothing is written until the run
//! ends. With tracing off, [`Tracer::span`] only calls its closure.

use std::cell::RefCell;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps (e.g. `"qn.solve"`).
    pub name: &'static str,
    /// Start, in seconds since the tracer's origin.
    pub start: f64,
    /// End, in seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Option<Instant>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            origin: None,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    /// Run `f` inside a span named `name`, nested in the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(origin) = self.origin else {
            return f();
        };
        let index = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                start: origin.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: open.last().copied(),
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = origin.elapsed().as_secs_f64();
        out
    }

    /// Number of spans opened so far; the next span gets this index.
    pub fn count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the time its direct children
/// cover. Children of one parent never overlap (one thread), so the self
/// times of a tree sum exactly to its root's duration.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let t = Tracer::on();
        t.span("root", || {
            t.span("a", || t.span("b", || std::hint::black_box(1 + 1)));
            t.span("c", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        let own = self_times(&spans);
        let sum: f64 = own.iter().sum();
        assert!((sum - spans[0].secs()).abs() < 1e-9);
        assert!(own.iter().all(|&x| x >= -1e-9));
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
