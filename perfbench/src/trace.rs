//! In-memory spans recorded from outside the program, around calls into
//! each layer's public functions.
//!
//! A span carries its name, host start and end (ns since the run's
//! epoch), parent, op id and thread. Spans stay in memory until the run
//! ends and are then written out as JSON lines. A span's *self time* is
//! its duration minus the part of its interval its children cover.

use std::io::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same [`Tracer`], if any.
    pub parent: Option<usize>,
    /// Op id: the op's position in the replayed stream.
    pub op: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread of one leg.
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Self {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Records a call timed elsewhere: it started at `start` and took
    /// `ns`.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        ns: u64,
    ) {
        let start_ns = self.ns_at(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent,
            op,
            thread: self.thread,
        });
    }

    /// Opens a span and returns its index; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }
}

/// Self time of `parent`: its duration minus the union of its children's
/// intervals clipped to its own.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.dur_ns() - covered
}

/// Places another leg's spans for the same op end to end inside
/// `parent`, starting at its start: the layout a nested call would have
/// had. Used to attribute an engine op's latency to the volume and log
/// work the bare-volume leg measured for the same op id.
pub fn nest_within(parent: &Span, parts: &[&Span]) -> Vec<Span> {
    let mut at = parent.start_ns;
    parts
        .iter()
        .map(|p| {
            let s = Span {
                start_ns: at,
                end_ns: at + p.dur_ns(),
                ..(*p).clone()
            };
            at = s.end_ns;
            s
        })
        .collect()
}

/// Writes spans as JSON lines, one per span, tagged with their leg.
pub fn write_jsonl(path: &std::path::Path, legs: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (leg, spans) in legs {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"leg\": \"{leg}\", \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"thread\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.thread
            )?;
        }
    }
    out.flush()
}
