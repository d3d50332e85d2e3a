//! Hierarchical span profiler with self/total cycle attribution.
//!
//! Spans are explicit `enter`/`exit` brackets against the virtual cycle
//! clock (`veil_snp::cost`), so nesting and durations are bit-reproducible
//! under `VEIL_TEST_SEED`. Aggregation is keyed by the full `;`-joined
//! call path rooted at the domain that entered the outermost span — the
//! exact shape flamegraph tooling consumes (`vmpl3;gate.request;gate.switch
//! 7135` per folded-stack line).
//!
//! Call paths are interned: each distinct path is one node whose string
//! is built once, open frames carry node ids, and each (node, root
//! domain) pair finds its stat slot once. The stats themselves sit behind
//! a `(path, domain)`-ordered index, so exports read exactly as if every
//! span had been keyed by its path string.

use crate::hist::Histogram;
use crate::registry::domain_label;
use std::collections::BTreeMap;

/// One open span on the stack.
#[derive(Debug, Clone)]
struct Frame {
    name: &'static str,
    /// Interned call path including this frame.
    node: u32,
    start: u64,
    /// Cycles consumed by already-closed children (subtracted from total
    /// to obtain self time).
    child_cycles: u64,
}

/// One interned call path.
#[derive(Debug, Clone)]
struct PathNode {
    name: &'static str,
    /// `;`-joined path including this frame.
    path: String,
    /// Nodes of the paths one frame deeper.
    children: Vec<u32>,
    /// Stat slot per root domain that has closed a span on this path.
    slots: Vec<(u8, u32)>,
}

/// Aggregated statistics for one `(path, domain)` series.
#[derive(Debug, Clone, Default)]
pub struct SpanStat {
    /// Completed span count.
    pub count: u64,
    /// Total cycles inside the span (children included).
    pub total_cycles: u64,
    /// Cycles attributed to the span itself (total minus children).
    pub self_cycles: u64,
    /// Distribution of per-invocation total durations.
    pub durations: Histogram,
}

/// The profiler: an open-span stack plus per-path aggregates.
///
/// Runtime gated like the registry: `enter`/`exit` inline to one branch
/// when disabled, and the recording runs out of line. Unbalanced exits (a
/// name that does not match the top of the stack) are ignored rather than
/// corrupting attribution, so a span leaked through an error path degrades
/// gracefully.
///
/// Aggregates live in a `Vec` behind a `BTreeMap<(path, domain), slot>`
/// index that fixes export order. Two call paths whose joined strings
/// coincide (a span name containing `;`) share one series, as they would
/// if the path string were the key.
#[derive(Debug, Clone, Default)]
pub struct SpanProfiler {
    enabled: bool,
    stack: Vec<Frame>,
    /// Domain that entered the current outermost span (the flamegraph
    /// root frame).
    root_domain: u8,
    /// Interned call paths; `roots` are the outermost ones.
    nodes: Vec<PathNode>,
    roots: Vec<u32>,
    index: BTreeMap<(String, u8), u32>,
    stats: Vec<SpanStat>,
}

impl SpanProfiler {
    /// A disabled, empty profiler.
    pub fn new() -> Self {
        SpanProfiler::default()
    }

    /// Whether the profiler is recording.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables recording. Enabling **resets** all aggregates
    /// and abandons any open spans (same contract as the registry).
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled {
            *self = SpanProfiler::default();
        }
        self.enabled = enabled;
    }

    /// Opens a span named `name` at virtual-cycle time `now`, attributed
    /// to `domain` when it is the outermost span.
    #[inline]
    pub fn enter(&mut self, name: &'static str, domain: u8, now: u64) {
        if self.enabled {
            self.enter_enabled(name, domain, now);
        }
    }

    /// [`SpanProfiler::enter`] on an enabled profiler.
    #[inline(never)]
    fn enter_enabled(&mut self, name: &'static str, domain: u8, now: u64) {
        let parent = self.stack.last().map(|f| f.node);
        if parent.is_none() {
            self.root_domain = domain;
        }
        let node = self.intern(parent, name);
        self.stack.push(Frame { name, node, start: now, child_cycles: 0 });
    }

    /// The node of path `parent;name` (or of `name` alone at the root),
    /// created on first sight.
    fn intern(&mut self, parent: Option<u32>, name: &'static str) -> u32 {
        let siblings = match parent {
            Some(p) => &self.nodes[p as usize].children,
            None => &self.roots,
        };
        if let Some(&id) = siblings.iter().find(|&&id| self.nodes[id as usize].name == name) {
            return id;
        }
        let path = match parent {
            Some(p) => {
                let parent_path = &self.nodes[p as usize].path;
                let mut path = String::with_capacity(parent_path.len() + 1 + name.len());
                path.push_str(parent_path);
                path.push(';');
                path.push_str(name);
                path
            }
            None => name.to_string(),
        };
        let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 call paths");
        self.nodes.push(PathNode { name, path, children: Vec::new(), slots: Vec::new() });
        match parent {
            Some(p) => self.nodes[p as usize].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Closes the span named `name` at virtual-cycle time `now`. Ignored
    /// if `name` is not the innermost open span.
    #[inline]
    pub fn exit(&mut self, name: &'static str, now: u64) {
        if self.enabled {
            self.exit_enabled(name, now);
        }
    }

    /// [`SpanProfiler::exit`] on an enabled profiler.
    #[inline(never)]
    fn exit_enabled(&mut self, name: &'static str, now: u64) {
        if self.stack.last().map(|f| f.name) != Some(name) {
            return;
        }
        let frame = self.stack.pop().expect("checked non-empty");
        let total = now.saturating_sub(frame.start);
        let self_cycles = total.saturating_sub(frame.child_cycles);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_cycles += total;
        }
        let stat = self.stat_mut(frame.node);
        stat.count += 1;
        stat.total_cycles += total;
        stat.self_cycles += self_cycles;
        stat.durations.record(total);
    }

    /// The aggregate of `node` under the current root domain, created on
    /// first sight.
    fn stat_mut(&mut self, node: u32) -> &mut SpanStat {
        let domain = self.root_domain;
        let node = &mut self.nodes[node as usize];
        let slot = match node.slots.iter().find(|&&(d, _)| d == domain) {
            Some(&(_, slot)) => slot,
            None => {
                let next = u32::try_from(self.stats.len()).expect("fewer than 2^32 span series");
                let slot = *self.index.entry((node.path.clone(), domain)).or_insert(next);
                if slot == next {
                    self.stats.push(SpanStat::default());
                }
                node.slots.push((domain, slot));
                slot
            }
        };
        &mut self.stats[slot as usize]
    }

    /// Number of currently open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Aggregated series in `(path, domain)` order.
    pub fn stats(&self) -> impl Iterator<Item = (&str, u8, &SpanStat)> {
        self.index
            .iter()
            .map(|((path, domain), &slot)| (path.as_str(), *domain, &self.stats[slot as usize]))
    }

    /// The aggregate for one exact path and domain.
    pub fn stat(&self, path: &str, domain: u8) -> Option<&SpanStat> {
        let slot = *self.index.get(&(path.to_string(), domain))?;
        Some(&self.stats[slot as usize])
    }

    /// Whether no span has completed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Renders the aggregates in folded-stack format, one line per
    /// `(path, domain)` series: `vmplN;path;sub self_cycles`. Lines are
    /// emitted in deterministic key order and series with zero self time
    /// are kept (flamegraph tools treat them as structure-only frames).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, domain, stat) in self.stats() {
            out.push_str(domain_label(domain));
            out.push(';');
            out.push_str(path);
            out.push(' ');
            out.push_str(&stat.self_cycles.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = SpanProfiler::new();
        p.enter("a", 0, 0);
        p.exit("a", 10);
        assert!(p.is_empty());
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut p = SpanProfiler::new();
        p.set_enabled(true);
        p.enter("gate.request", 3, 0);
        p.enter("gate.switch", 3, 100);
        p.exit("gate.switch", 7235); // child total 7135
        p.exit("gate.request", 8000); // parent total 8000
        let parent = p.stat("gate.request", 3).unwrap();
        assert_eq!(parent.total_cycles, 8000);
        assert_eq!(parent.self_cycles, 8000 - 7135);
        let child = p.stat("gate.request;gate.switch", 3).unwrap();
        assert_eq!(child.total_cycles, 7135);
        assert_eq!(child.self_cycles, 7135);
        assert_eq!(child.durations.count(), 1);
    }

    #[test]
    fn sibling_children_both_subtract_from_parent() {
        let mut p = SpanProfiler::new();
        p.set_enabled(true);
        p.enter("root", 0, 0);
        p.enter("a", 0, 10);
        p.exit("a", 30);
        p.enter("b", 0, 40);
        p.exit("b", 90);
        p.exit("root", 100);
        let root = p.stat("root", 0).unwrap();
        assert_eq!(root.total_cycles, 100);
        assert_eq!(root.self_cycles, 100 - 20 - 50);
    }

    #[test]
    fn mismatched_exit_is_ignored() {
        let mut p = SpanProfiler::new();
        p.set_enabled(true);
        p.enter("a", 0, 0);
        p.exit("b", 5);
        assert_eq!(p.depth(), 1);
        p.exit("a", 10);
        assert_eq!(p.stat("a", 0).unwrap().total_cycles, 10);
    }

    #[test]
    fn folded_lines_root_at_domain() {
        let mut p = SpanProfiler::new();
        p.set_enabled(true);
        p.enter("gate.request", 3, 0);
        p.enter("gate.switch", 3, 0);
        p.exit("gate.switch", 7135);
        p.exit("gate.request", 7135);
        let folded = p.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["vmpl3;gate.request 0", "vmpl3;gate.request;gate.switch 7135"]);
        for line in lines {
            let (stack, n) = line.rsplit_once(' ').expect("folded line has a count");
            assert!(!stack.is_empty());
            n.parse::<u64>().expect("count is integer");
        }
    }

    #[test]
    fn reenable_resets_and_abandons_open_spans() {
        let mut p = SpanProfiler::new();
        p.set_enabled(true);
        p.enter("a", 0, 0);
        p.set_enabled(true);
        assert_eq!(p.depth(), 0);
        assert!(p.is_empty());
    }
}
