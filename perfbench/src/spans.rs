//! Spans recorded from the benchmark's own code, around calls into the
//! repository's layers.  Kept in memory while the workload runs and
//! written once at exit in the Chrome trace-event format (viewable in
//! Perfetto or `chrome://tracing`).

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

/// One timed interval.  `id` is the span's index in [`Recorder::spans`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed: a layer call (`read`, `submit`, …) or a phase.
    pub name: &'static str,
    /// The unit of work it belongs to (sort iteration, job id, run).
    pub unit: u64,
    /// Enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, in nanoseconds since the recorder's origin.
    pub start: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur(&self) -> Duration {
        Duration::from_nanos(self.end.saturating_sub(self.start))
    }
}

/// An in-memory span log with an open-span stack, so a span begun while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new(Instant::now())
    }
}

impl Recorder {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Unit id stamped on spans begun from now on.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent,
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything still open inside it).
    pub fn end(&mut self, id: u32) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Record an interval measured elsewhere, under `parent`.
    pub fn add(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        let id = self.spans.len() as u32;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent,
            start: ns(start),
            end: ns(end),
        });
        id
    }

    /// Rename span `id`, e.g. once its role is known.
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: duration minus the part of it covered by the
/// span's children.  `spans` may be a tail of a log: `base` is the id of
/// its first span, and parents before it are ignored.  Children must
/// come after their parent in start order, as [`Recorder`] logs them.
pub fn self_times(spans: &[Span], base: u32) -> Vec<Duration> {
    // Per span: (time covered by children, end of the last child seen).
    let mut cover: Vec<(u64, u64)> = spans.iter().map(|s| (0, s.start)).collect();
    for s in spans {
        let Some(p) = s.parent.checked_sub(base).map(|p| p as usize) else {
            continue;
        };
        if s.parent == ROOT || p >= spans.len() {
            continue;
        }
        let (covered, reach) = &mut cover[p];
        let (a, b) = (s.start.max(*reach), s.end.min(spans[p].end));
        if b > a {
            *covered += b - a;
            *reach = b;
        }
    }
    spans
        .iter()
        .zip(&cover)
        .map(|(s, &(covered, _))| s.dur().saturating_sub(Duration::from_nanos(covered)))
        .collect()
}

/// Write `spans` (a log from its first span on) as Chrome trace events
/// (`ph: "X"`, microseconds), leaving out spans named in `skip`.  Each
/// event carries its id, parent id and self time in `args`; the unit id
/// becomes the thread id so each unit gets its own track.  Returns the
/// number of events written.
pub fn write_chrome_trace(path: &Path, spans: &[Span], skip: &[&str]) -> std::io::Result<usize> {
    let selfs = self_times(spans, 0);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut written = 0;
    for (i, (s, self_t)) in spans.iter().zip(&selfs).enumerate() {
        if skip.contains(&s.name) {
            continue;
        }
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
            if written == 0 { "" } else { "," },
            s.name,
            s.unit,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            self_t.as_secs_f64() * 1e6,
        )?;
        written += 1;
    }
    writeln!(out, "]}}")?;
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            Span {
                name: "p",
                unit: 0,
                parent: ROOT,
                start: 0,
                end: 100,
            },
            Span {
                name: "a",
                unit: 0,
                parent: 0,
                start: 10,
                end: 30,
            },
            Span {
                name: "b",
                unit: 0,
                parent: 0,
                start: 20,
                end: 50,
            },
            Span {
                name: "c",
                unit: 0,
                parent: 0,
                start: 90,
                end: 120,
            },
        ];
        let selfs = self_times(&spans, 0);
        // Children cover [10, 50) and [90, 100) of the parent.
        assert_eq!(selfs[0], Duration::from_nanos(50));
        assert_eq!(selfs[1], Duration::from_nanos(20));
    }

    #[test]
    fn nested_begin_records_parent() {
        let mut r = Recorder::default();
        let outer = r.begin("outer");
        let inner = r.begin("inner");
        r.end(inner);
        r.end(outer);
        assert_eq!(r.spans()[inner as usize].parent, outer);
        assert_eq!(r.spans()[outer as usize].parent, ROOT);
    }
}
