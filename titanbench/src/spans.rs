//! Benchmark-side spans: the benchmark times each public call it makes
//! into a layer, keeps the spans in memory, and writes them out at exit.
//! Nothing inside the program is instrumented.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// The root span of the operation this span belongs to.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans while enabled; timing itself is always on, because the
/// untraced run needs the same end-to-end times.
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Guard::finish`] closes it and returns its length.
pub struct Guard<'r> {
    rec: &'r Recorder,
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start: Instant,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a root span.
    pub fn root(&self, name: &'static str) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Guard {
            rec: self,
            id,
            parent: 0,
            trace: id,
            name,
            start: Instant::now(),
        }
    }

    /// Times `f` as a root span; returns its result and milliseconds.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let g = self.root(name);
        let out = f();
        (out, g.finish())
    }

    /// Finished spans so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                format!(
                    r#"{{"id":{},"parent":{},"trace":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                    s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

impl<'r> Guard<'r> {
    /// Opens a child span of this one.
    pub fn child(&self, name: &'static str) -> Guard<'r> {
        let id = self.rec.next_id.fetch_add(1, Ordering::Relaxed);
        Guard {
            rec: self.rec,
            id,
            parent: self.id,
            trace: self.trace,
            name,
            start: Instant::now(),
        }
    }

    /// Times `f` as a child span; returns its result and milliseconds.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let g = self.child(name);
        let out = f();
        (out, g.finish())
    }

    /// Closes the span, records it if the recorder is on, and returns its
    /// length in milliseconds.
    pub fn finish(self) -> f64 {
        let end = Instant::now();
        if self.rec.enabled() {
            let ns = |t: Instant| t.duration_since(self.rec.epoch).as_nanos() as u64;
            self.rec
                .spans
                .lock()
                .expect("span store poisoned")
                .push(Span {
                    id: self.id,
                    parent: self.parent,
                    trace: self.trace,
                    name: self.name,
                    start_ns: ns(self.start),
                    end_ns: ns(end),
                });
        }
        end.duration_since(self.start).as_secs_f64() * 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_off_records_nothing() {
        let rec = Recorder::new();
        let (_, ms) = rec.time("off", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(ms >= 1.0);
        assert!(rec.spans().is_empty());

        rec.set_enabled(true);
        let root = rec.root("op");
        let (_, child) = root.time("layer", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        let total = root.finish();
        assert!(total >= child && child >= 3.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let (layer, op) = (&spans[0], &spans[1]);
        assert_eq!((layer.name, op.name), ("layer", "op"));
        assert_eq!(layer.parent, op.id);
        assert_eq!(layer.trace, op.trace);
        assert!(op.start_ns <= layer.start_ns && layer.end_ns <= op.end_ns);
        assert!(rec.to_json().contains(r#""name":"layer""#));
    }
}
