//! In-memory span recording for the traced run.
//!
//! Spans are the benchmark's own timers around calls into the program's
//! public functions. Coarse calls (a world build, an episode, a daemon run)
//! are kept one span each; hot calls made millions of times (one probe
//! lookup, one blame evaluation) are kept as per-name tallies so that
//! recording them stays cheap. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `sim.run_episode`.
    pub name: &'static str,
    /// Qualifier within the name, e.g. the grid arm; empty when none.
    pub label: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Count and total duration of a hot call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Calls recorded.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

impl Tally {
    /// Mean duration per call, µs (0 when nothing was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// The span store of one run.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    tallies: BTreeMap<&'static str, Tally>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            tallies: BTreeMap::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Recorder::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        label: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes the span at `index` and returns its duration in seconds.
    pub fn end(&mut self, index: usize) -> f64 {
        self.spans[index].end_ns = self.now_ns();
        self.spans[index].secs()
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        label: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.begin(name, label, parent);
        let out = f();
        self.end(index);
        out
    }

    /// Runs `f` and adds its duration to the tally `name`. The result passes
    /// through `black_box`, so a call whose result the caller drops is still
    /// made and timed.
    pub fn tally<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let ns = start.elapsed().as_nanos() as u64;
        let t = self.tallies.entry(name).or_default();
        t.calls += 1;
        t.total_ns += ns;
        out
    }

    /// Durations (s) of the spans called `name`, in recording order.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration (s) of the spans called `name` with `label`.
    pub fn total_secs(&self, name: &str, label: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.label == label)
            .map(Span::secs)
            .sum()
    }

    /// The tally `name` (empty if never recorded).
    pub fn tally_of(&self, name: &str) -> Tally {
        self.tallies.get(name).copied().unwrap_or_default()
    }

    /// Every span and tally as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.label, s.start_ns, s.end_ns
            );
        }
        for (name, t) in &self.tallies {
            let _ = writeln!(
                out,
                "{{\"tally\":\"{name}\",\"calls\":{},\"total_ns\":{}}}",
                t.calls, t.total_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_and_tallies_accumulate() {
        let mut rec = Recorder::default();
        let root = rec.begin("stage", "", None);
        rec.span("step", "a", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.span("step", "b", Some(root), || ());
        let stage = rec.end(root);
        assert!(stage >= rec.total_secs("step", "a") + rec.total_secs("step", "b"));
        for _ in 0..3 {
            rec.tally("hot", || ());
        }
        assert_eq!(rec.secs_of("step").len(), 2);
        assert!(rec.total_secs("step", "a") >= 0.002);
        assert_eq!(rec.tally_of("hot").calls, 3);
        assert_eq!(rec.tally_of("cold").calls, 0);
        assert_eq!(rec.to_jsonl().lines().count(), 4);
    }
}
