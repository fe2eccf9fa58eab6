//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out once when the run ends.
//!
//! The program under test has no tracing hooks, so spans exist only at the
//! boundaries the benchmark itself can see. A span whose parent is a real
//! call (`cluster.get`) and whose own work is a re-issue of one part of that
//! call through a public function (`erasure.decode`) is a *shadow* child: it
//! runs after the parent returned, not inside it. Self time therefore
//! subtracts child *durations*, not interval overlap.

use std::io::Write;
use std::time::Instant;

/// One recorded span. `parent` indexes into the tracer's span list;
/// `request` is shared by every span of one scheduled operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Not thread-safe on purpose: only the benchmark's own
/// generator / walker thread records.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `work` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        work: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(name, parent, request);
        let out = work();
        self.close(id);
        (id, out)
    }

    /// Mean duration of the spans named `name`, in microseconds (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        mean_us(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration_ns),
        )
    }

    /// The `q`-quantile (nearest rank) of the durations of the spans named
    /// `name`, in microseconds (0 if none).
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        let mut durations: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect();
        if durations.is_empty() {
            return 0.0;
        }
        durations.sort_unstable();
        let rank = ((q * durations.len() as f64).ceil() as usize).clamp(1, durations.len());
        durations[rank - 1] as f64 / 1_000.0
    }

    /// Mean self time of the spans named `name`, in microseconds: duration
    /// minus the summed durations of the span's direct children, floored at
    /// zero per span.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let self_ns = self_times_ns(&self.spans);
        mean_us(
            self.spans
                .iter()
                .zip(self_ns)
                .filter(|(s, _)| s.name == name)
                .map(|(_, ns)| ns),
        )
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

fn mean_us(durations_ns: impl Iterator<Item = u64>) -> f64 {
    let (sum, n) = durations_ns.fold((0u64, 0u64), |(sum, n), d| (sum + d, n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1_000.0
    }
}

/// Self time of every span: its duration minus its direct children's.
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // get [0, 100) with shadow children lookup 10, fetch 20, decode 50;
        // decode has its own child mul_acc 30. Grandchildren are charged to
        // their parent only.
        let spans = vec![
            span("get", 0, 100, None),
            span("lookup", 100, 110, Some(0)),
            span("fetch", 110, 130, Some(0)),
            span("decode", 130, 180, Some(0)),
            span("mul_acc", 180, 210, Some(3)),
            // Children that outweigh the parent floor at zero.
            span("get", 300, 310, None),
            span("decode", 310, 350, Some(5)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 20, 20, 30, 0, 40]);

        let tracer = Tracer {
            origin: Instant::now(),
            spans,
        };
        assert!((tracer.mean_us("get") - 0.055).abs() < 1e-12);
        assert!((tracer.mean_self_us("get") - 0.010).abs() < 1e-12);
        assert!((tracer.mean_self_us("decode") - 0.030).abs() < 1e-12);
        assert_eq!(tracer.quantile_us("get", 0.99), 0.1);
        assert_eq!(tracer.mean_us("absent"), 0.0);
    }
}
