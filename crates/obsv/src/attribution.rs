//! Attribution: turning the flat event journal back into a span tree and
//! summing virtual time per phase.
//!
//! Everything here is derived from [`build_tree`], so the three consumers
//! (the `repro` attribution table, the coverage acceptance check, and the
//! per-timestep table) agree on one parse of the journal.

use crate::trace::{Event, EventKind};

/// One node of the reconstructed span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span label.
    pub name: &'static str,
    /// Begin timestamp (virtual ns).
    pub t0: u64,
    /// End timestamp (virtual ns).
    pub t1: u64,
    /// Optional numeric argument from the Begin event.
    pub arg: Option<u64>,
    /// Child spans in journal order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Inclusive duration.
    pub fn dur_ns(&self) -> u64 {
        self.t1 - self.t0
    }
}

/// Rebuild the span forest from a journal. Instant events are dropped;
/// imbalanced or time-crossing journals are an error.
pub fn build_tree(events: &[Event]) -> Result<Vec<SpanNode>, String> {
    crate::chrome::validate_events(events)?;
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Begin => stack.push(SpanNode {
                name: e.name,
                t0: e.t_ns,
                t1: e.t_ns,
                arg: e.arg,
                children: Vec::new(),
            }),
            EventKind::End => {
                let mut node = stack.pop().expect("validated journal");
                node.t1 = e.t_ns;
                match stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => roots.push(node),
                }
            }
            EventKind::Instant => {}
        }
    }
    Ok(roots)
}

/// One row of the flat attribution table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrRow {
    /// Span label.
    pub name: &'static str,
    /// Total inclusive virtual time over all *outermost* occurrences
    /// (an occurrence nested under a same-named ancestor is not counted
    /// again, so rows never double-count recursion).
    pub total_ns: u64,
    /// Number of outermost occurrences.
    pub count: u64,
}

fn walk_totals(node: &SpanNode, active: &mut Vec<&'static str>, rows: &mut Vec<AttrRow>) {
    let outermost = !active.contains(&node.name);
    if outermost {
        match rows.iter_mut().find(|r| r.name == node.name) {
            Some(r) => {
                r.total_ns += node.dur_ns();
                r.count += 1;
            }
            None => rows.push(AttrRow { name: node.name, total_ns: node.dur_ns(), count: 1 }),
        }
        active.push(node.name);
    }
    for c in &node.children {
        walk_totals(c, active, rows);
    }
    if outermost {
        active.pop();
    }
}

/// Inclusive virtual time per span name, counting only outermost
/// occurrences, sorted by descending total.
pub fn inclusive_totals(events: &[Event]) -> Result<Vec<AttrRow>, String> {
    let roots = build_tree(events)?;
    let mut rows = Vec::new();
    let mut active = Vec::new();
    for r in &roots {
        walk_totals(r, &mut active, &mut rows);
    }
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    Ok(rows)
}

fn collect_named<'t>(nodes: &'t [SpanNode], name: &str, out: &mut Vec<&'t SpanNode>) {
    for n in nodes {
        if n.name == name {
            out.push(n);
        } else {
            collect_named(&n.children, name, out);
        }
    }
}

/// Coverage of a parent phase by its direct children: returns
/// `(parent_total_ns, direct_children_total_ns)` summed over every
/// occurrence of `parent` in the journal. The acceptance criterion
/// "`persist::*` spans sum to within 3% of total persist cost" is
/// `children_total >= 0.97 * parent_total` on `coverage(ev, "persist")`.
pub fn coverage(events: &[Event], parent: &str) -> Result<(u64, u64), String> {
    let roots = build_tree(events)?;
    let mut parents = Vec::new();
    collect_named(&roots, parent, &mut parents);
    let parent_total = parents.iter().map(|n| n.dur_ns()).sum();
    let child_total =
        parents.iter().map(|n| n.children.iter().map(|c| c.dur_ns()).sum::<u64>()).sum();
    Ok((parent_total, child_total))
}

/// Attribution of one solver step: the step's span plus inclusive totals
/// of its direct children (`step::refine`, `step::solve`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepAttr {
    /// Step index (the `arg` stamped on the `step` span).
    pub step: u64,
    /// Inclusive duration of the whole step.
    pub total_ns: u64,
    /// `(child name, summed inclusive ns)` for direct children, in first-
    /// appearance order.
    pub phases: Vec<(&'static str, u64)>,
}

/// Per-timestep attribution table: one [`StepAttr`] per `step` span.
pub fn step_table(events: &[Event]) -> Result<Vec<StepAttr>, String> {
    let roots = build_tree(events)?;
    let mut steps = Vec::new();
    collect_named(&roots, "step", &mut steps);
    Ok(steps
        .iter()
        .map(|s| {
            let mut phases: Vec<(&'static str, u64)> = Vec::new();
            for c in &s.children {
                match phases.iter_mut().find(|(n, _)| *n == c.name) {
                    Some((_, ns)) => *ns += c.dur_ns(),
                    None => phases.push((c.name, c.dur_ns())),
                }
            }
            StepAttr { step: s.arg.unwrap_or(0), total_ns: s.dur_ns(), phases }
        })
        .collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn b(t: u64, name: &'static str, arg: Option<u64>) -> Event {
        Event { t_ns: t, kind: EventKind::Begin, name, arg }
    }
    fn e(t: u64, name: &'static str) -> Event {
        Event { t_ns: t, kind: EventKind::End, name, arg: None }
    }

    fn sample() -> Vec<Event> {
        vec![
            b(0, "step", Some(0)),
            b(10, "step::persist", None),
            b(20, "persist", None),
            b(20, "persist::merge", None),
            e(50, "persist::merge"),
            b(50, "gc::sweep", None),
            e(80, "gc::sweep"),
            e(90, "persist"),
            e(95, "step::persist"),
            e(100, "step"),
            b(100, "step", Some(1)),
            b(110, "step::solve", None),
            e(140, "step::solve"),
            e(150, "step"),
        ]
    }

    #[test]
    fn tree_and_totals() {
        let ev = sample();
        let roots = build_tree(&ev).unwrap();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].children[0].children[0].name, "persist");
        let rows = inclusive_totals(&ev).unwrap();
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().total_ns;
        assert_eq!(get("step"), 150);
        assert_eq!(get("persist"), 70);
        assert_eq!(get("gc::sweep"), 30);
        assert_eq!(rows.iter().find(|r| r.name == "step").unwrap().count, 2);
    }

    #[test]
    fn coverage_counts_direct_children_only() {
        let (parent, children) = coverage(&sample(), "persist").unwrap();
        assert_eq!(parent, 70);
        assert_eq!(children, 60); // merge 30 + gc 30; the 10ns tail is uncovered
    }

    #[test]
    fn per_step_table() {
        let t = step_table(&sample()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].step, 0);
        assert_eq!(t[0].total_ns, 100);
        assert_eq!(t[0].phases, vec![("step::persist", 85)]);
        assert_eq!(t[1].phases, vec![("step::solve", 30)]);
    }

    #[test]
    fn recursion_not_double_counted() {
        let ev = vec![
            b(0, "gc::sweep", None),
            b(10, "gc::sweep", None),
            e(20, "gc::sweep"),
            e(40, "gc::sweep"),
        ];
        let rows = inclusive_totals(&ev).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].total_ns, 40);
        assert_eq!(rows[0].count, 1);
    }
}
