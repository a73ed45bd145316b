//! Span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code around each call into
//! a layer's public functions, plus spans derived from the timings the
//! daemon already reports (`TaskStats.wait_usec` for the engine queue,
//! `elapsed_usec` for the data plane). Nothing inside the daemon is
//! instrumented. Each span names its layer, its parent (the end-to-end
//! unit it belongs to) and the request id; spans stay in memory and are
//! written out when the run ends.
//!
//! Layers nest from the outside in: `gen` ⊃ `client` ⊃ `engine` ⊃ the
//! data plane (`transfer`, `remote`), and `gen` ⊃ the workflow's own
//! `flow` ⊃ `body`. A layer's self time within a unit is the part of its
//! spans no deeper layer's span covers; time inside a unit that no span
//! covers is `unaccounted`. The self times and `unaccounted` therefore
//! add up to the end-to-end time exactly. While a request is with the
//! daemon outside its queue wait and data-plane execution (reactor,
//! frame I/O, socket hand-offs, wake-ups) no span covers it: the daemon
//! itself is not instrumented, so that time is `unaccounted`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The end-to-end unit itself (root span).
    Unit,
    Gen,
    Client,
    Flow,
    Engine,
    Transfer,
    Remote,
    /// The workflow's job body (application compute).
    Body,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unit => "unit",
            Layer::Gen => "gen",
            Layer::Client => "client",
            Layer::Flow => "flow",
            Layer::Engine => "engine",
            Layer::Transfer => "transfer",
            Layer::Remote => "remote",
            Layer::Body => "body",
        }
    }

    /// Nesting depth: a deeper layer's span claims the time it covers.
    fn depth(self) -> u8 {
        match self {
            Layer::Unit => 0,
            Layer::Gen => 1,
            Layer::Client => 2,
            Layer::Flow => 3,
            Layer::Engine => 4,
            Layer::Transfer | Layer::Remote | Layer::Body => 5,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the unit span this span belongs to.
    pub parent: Option<u32>,
    pub req: u64,
}

/// Per-thread span store. A disabled recorder records nothing, so the
/// untraced run pays only a branch.
pub struct Recorder {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant) -> Recorder {
        Recorder {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index (meaningless when off).
    pub fn span(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: Option<u32>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            layer,
            start,
            end: end.max(start),
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Record a span of `dur_us` microseconds that ends at `end`: the
    /// derived engine-queue and data-plane spans, whose durations the
    /// daemon reports but whose clock readings it does not.
    pub fn derived(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: Option<u32>,
        req: u64,
        dur_us: u64,
        end: Instant,
    ) -> Instant {
        let start = end
            .checked_sub(std::time::Duration::from_micros(dur_us))
            .unwrap_or(self.epoch);
        self.span(name, layer, parent, req, start, end);
        start
    }

    /// Median duration in microseconds of the spans called `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect();
        crate::util::median(&d)
    }

    /// Append another thread's spans, re-pointing their parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write every span as one tab-separated line:
    /// `name layer start_ns end_ns parent req`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("# name\tlayer\tstart_ns\tend_ns\tparent\treq\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.layer.name(),
                s.start,
                s.end,
                parent,
                s.req
            );
        }
        std::fs::write(path, out)
    }

    /// Self time per layer over every unit span, as a share (percent)
    /// of the summed unit durations; the `unit` entry is `unaccounted`.
    pub fn self_shares(&self) -> BTreeMap<Layer, f64> {
        let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(s);
            }
        }
        let mut totals: BTreeMap<Layer, u64> = BTreeMap::new();
        let mut unit_total = 0u64;
        for (idx, root) in self.spans.iter().enumerate() {
            if root.layer != Layer::Unit {
                continue;
            }
            unit_total += root.end - root.start;
            let kids = children
                .get(&(idx as u32))
                .map_or(&[][..], |v| v.as_slice());
            // Sweep the unit's interval: every elementary piece goes to
            // the deepest layer whose span covers it.
            let mut cuts: Vec<u64> = vec![root.start, root.end];
            for k in kids {
                cuts.push(k.start.clamp(root.start, root.end));
                cuts.push(k.end.clamp(root.start, root.end));
            }
            cuts.sort_unstable();
            cuts.dedup();
            for w in cuts.windows(2) {
                let (a, b) = (w[0], w[1]);
                let owner = kids
                    .iter()
                    .filter(|k| k.start <= a && k.end >= b)
                    .map(|k| k.layer)
                    .max_by_key(|l| l.depth())
                    .unwrap_or(Layer::Unit);
                *totals.entry(owner).or_default() += b - a;
            }
        }
        totals
            .into_iter()
            .map(|(l, t)| (l, 100.0 * t as f64 / unit_total.max(1) as f64))
            .collect()
    }
}
