//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span: name
//! (`<layer>.<operation>`), start, end, the parent span and the campaign
//! or submission the call served. Spans stay in memory while the run
//! measures and are written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub campaign: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` receives the span's id so calls it
    /// makes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        campaign: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            campaign,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Runs `f` inside a span when a tracer is given, bare otherwise.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    campaign: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, None, campaign, |_| f()),
        None => f(),
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its children cover (children may overlap one another
/// when they ran on parallel threads; covered time is counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<usize, f64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let total = s.end_ns.saturating_sub(s.start_ns);
            (s.id, total.saturating_sub(covered) as f64 * 1e-9)
        })
        .collect()
}

/// Summed self time per layer, seconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0.0) += own[&s.id];
    }
    out
}

/// Summed self time of the spans called `name`, seconds.
pub fn name_self_time(spans: &[Span], name: &str) -> f64 {
    let own = self_times(spans);
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |sum, s| sum + own[&s.id])
}

/// Durations of the spans called `name`, seconds, in id order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// One JSON object per line, in id order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"campaign\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, parent, s.campaign
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            campaign: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, "core.pool", 0, 100, None),
            // Two overlapping children (parallel threads) cover 10..60.
            span(1, "core.cell", 10, 50, Some(0)),
            span(2, "core.cell", 30, 60, Some(0)),
            // A child that outlives its parent is clipped to it.
            span(3, "core.cell", 90, 120, Some(0)),
            // A grandchild only reduces its own parent.
            span(4, "snn.train", 20, 40, Some(1)),
        ];
        let own = self_times(&spans);
        assert!((own[&0] - 40e-9).abs() < 1e-15);
        assert!((own[&1] - 20e-9).abs() < 1e-15);
        assert!((own[&2] - 30e-9).abs() < 1e-15);
        assert!((own[&3] - 30e-9).abs() < 1e-15);
        assert!((own[&4] - 20e-9).abs() < 1e-15);

        let layers = layer_self_times(&spans);
        assert!((layers["core"] - 120e-9).abs() < 1e-15);
        assert!((layers["snn"] - 20e-9).abs() < 1e-15);
        assert!((name_self_time(&spans, "core.cell") - 80e-9).abs() < 1e-15);
        assert_eq!(durations(&spans, "core.cell").len(), 3);
    }

    #[test]
    fn tracer_records_parents_and_campaigns() {
        let tracer = Tracer::default();
        let inner = tracer.span("core.pool", None, 7, |pool| {
            tracer.span("core.cell", Some(pool), 7, |_| 42)
        });
        assert_eq!(inner, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.campaign == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }
}
