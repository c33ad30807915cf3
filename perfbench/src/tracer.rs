//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer's public functions: name, start, end, parent span and the build
//! (`run`) they belong to.  They stay in memory while the workload runs and
//! are written out once at the end.  With tracing off the recorder keeps
//! nothing; the callers still time the calls the end-to-end metrics need.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a top-level span (and the id returned when tracing is off).
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Build (repetition) the span belongs to.
    pub run: u32,
    /// Layer-qualified name, e.g. `gossip.advance`.
    pub name: &'static str,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time (0 while the span is still open).
    pub end_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            run: 0,
            spans: Vec::with_capacity(if on { 1 << 14 } else { 0 }),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags later spans with build number `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens an enclosing span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.offset(Instant::now());
        self.push(name, parent, start_ns, 0)
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            let end_ns = self.offset(Instant::now());
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` as span `name` under `parent`; returns its result and its
    /// wall time in nanoseconds (timed whether or not tracing is on).
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.on {
            let (s, e) = (self.offset(start), self.offset(end));
            self.push(name, parent, s, e);
        }
        (out, end.duration_since(start).as_nanos() as u64)
    }

    fn push(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            run: self.run,
            name,
            parent,
            start_ns,
            end_ns,
        });
        id
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect()
    }

    /// Σ durations of the direct children of every span called `parent`,
    /// and Σ durations of those parents.
    pub fn child_cover(&self, parent: &str) -> (u64, u64) {
        let mut children = 0;
        let mut parents = 0;
        for (id, span) in self.spans.iter().enumerate() {
            if span.name == parent {
                parents += span.end_ns.saturating_sub(span.start_ns);
                children += self
                    .spans
                    .iter()
                    .filter(|c| c.parent == id as u32)
                    .map(|c| c.end_ns.saturating_sub(c.start_ns))
                    .sum::<u64>();
            }
        }
        (children, parents)
    }

    /// Writes the spans as tab-separated lines:
    /// `run id parent name start_ns end_ns` (parent `-` for top level).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "run\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
