//! The traced run's span tree: each span has a name, a layer, start and
//! end on the benchmark clock, its parent, and a round or request id. The
//! spans stay in memory and are written as one Chrome trace (readable by
//! `skm trace summarize`) when the run ends.

use scalable_kmeans::obs::{arg_str, arg_u64, write_chrome_trace, SpanEvent};
use std::io::Write;
use std::path::Path;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

#[derive(Default)]
pub struct Ledger {
    spans: Vec<Span>,
}

impl Ledger {
    /// Adds a span and returns its index (the handle children refer to).
    pub fn add(
        &mut self,
        name: &'static str,
        layer: &'static str,
        (start, end): (u64, u64),
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            start,
            end: end.max(start),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    pub fn duration(&self, span: usize) -> u64 {
        self.spans[span].end - self.spans[span].start
    }

    /// A span's self time: its duration minus the part of it that its
    /// children cover (overlapping children counted once).
    pub fn self_time(&self, span: usize) -> u64 {
        let parent = &self.spans[span];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        self.duration(span) - covered
    }

    /// Writes every span as a Chrome trace-event document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let events: Vec<SpanEvent> = self
            .spans
            .iter()
            .map(|s| SpanEvent {
                name: s.name.to_string(),
                cat: s.layer.to_string(),
                start_ns: s.start,
                dur_ns: (s.end - s.start).max(1),
                args: vec![
                    arg_str(
                        "parent",
                        &s.parent
                            .map_or("-".into(), |p| self.spans[p].name.to_string()),
                    ),
                    arg_u64("id", s.id),
                ],
            })
            .collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write_chrome_trace(&mut out, &events)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut l = Ledger::default();
        let root = l.add("fit", "bench", (0, 100), None, 0);
        l.add("a", "x", (10, 40), Some(root), 0);
        l.add("b", "x", (30, 60), Some(root), 0);
        l.add("c", "x", (90, 120), Some(root), 0);
        assert_eq!(l.self_time(root), 100 - 50 - 10);
    }
}
