//! Acceptance tests for the observability layer (ISSUE.md tentpole):
//!
//! 1. the exported Chrome trace is valid,
//! 2. `persist::*` child spans cover ≥97% of the total persist cost and
//!    the `step::persist` spans agree with the driver's breakdown,
//! 3. two same-seed runs produce byte-identical traces,
//! 4. tracing inflates the virtual clock by exactly 0 (the tracer is a
//!    pure observer; only arena operations advance the clock), and the
//!    persistent flight recorder by at most 5%,
//! 5. a traced two-rank cluster run exports a valid trace (its
//!    worker-count invariance is `pmoctree-cluster`'s
//!    `thread_invariance` test).

use pmoctree_bench::{check_trace, droplet_traced, droplet_untraced, recorder_overhead, sim_cfg};
use pmoctree_cluster::{ClusterSim, Scheme};
use pmoctree_obsv::{chrome, coverage, inclusive_totals, step_table};

const STEPS: usize = 3;
const LEVEL: u8 = 4;

#[test]
fn exported_trace_is_valid_chrome_json() {
    let run = droplet_traced(STEPS, LEVEL);
    chrome::validate_events(&run.events).expect("journal well-formed");
    let json = chrome::trace_json(&[(0, run.events.clone())]);
    let summary = check_trace(&json).expect("exporter output re-validates");
    assert_eq!(summary.events, run.events.len());
    assert_eq!(summary.threads, 1);
    assert!(summary.spans > 0);
}

#[test]
fn persist_spans_cover_the_persist_cost() {
    let run = droplet_traced(STEPS, LEVEL);

    // The persist::* children must account for ≥97% of the persist span
    // itself (in virtual time the gap is exactly zero: only arena ops
    // advance the clock, and inside persist they all sit in a child).
    let (parent_ns, child_ns) = coverage(&run.events, "persist").expect("persist spans present");
    assert!(parent_ns > 0, "no persist cost recorded");
    assert!(
        child_ns as f64 >= 0.97 * parent_ns as f64,
        "persist children cover only {child_ns} of {parent_ns} ns"
    );

    // And the step::persist spans must agree with the driver breakdown.
    let persist_report_ns: u64 = run.report.steps.iter().map(|s| s.persist_ns).sum();
    let rows = inclusive_totals(&run.events).expect("journal well-formed");
    let span_ns = rows.iter().find(|r| r.name == "step::persist").map_or(0, |r| r.total_ns);
    assert_eq!(span_ns, persist_report_ns, "span tree disagrees with the driver breakdown");
}

#[test]
fn step_table_matches_driver_breakdown() {
    let run = droplet_traced(STEPS, LEVEL);
    let table = step_table(&run.events).expect("journal well-formed");
    assert_eq!(table.len(), run.report.steps.len());
    for (st, rep) in table.iter().zip(&run.report.steps) {
        assert_eq!(st.total_ns, rep.total_ns());
        let get = |n: &str| st.phases.iter().find(|(p, _)| *p == n).map_or(0, |(_, ns)| *ns);
        assert_eq!(get("step::refine"), rep.refine_ns);
        assert_eq!(get("step::balance"), rep.balance_ns);
        assert_eq!(get("step::solve"), rep.solve_ns);
        assert_eq!(get("step::persist"), rep.persist_ns);
    }
}

#[test]
fn same_seed_runs_emit_byte_identical_traces() {
    let a = droplet_traced(STEPS, LEVEL);
    let b = droplet_traced(STEPS, LEVEL);
    assert_eq!(a.events, b.events, "journals diverge between identical runs");
    let ja = chrome::trace_json(&[(0, a.events)]);
    let jb = chrome::trace_json(&[(0, b.events)]);
    assert_eq!(ja, jb, "exported traces diverge between identical runs");
}

#[test]
fn traced_cluster_run_exports_a_valid_trace() {
    let mut c = ClusterSim::new(Scheme::pm_default(), 2, sim_cfg(2, 4), 32 << 20);
    c.enable_tracing();
    c.run(2);
    let summary =
        check_trace(&chrome::trace_json(&c.trace_threads())).expect("cluster trace must validate");
    assert_eq!(summary.threads, 2, "one stream per rank");
    assert!(summary.spans > 0, "cluster trace must contain spans");
}

#[test]
fn tracing_does_not_inflate_the_virtual_clock() {
    let traced = droplet_traced(STEPS, LEVEL);
    let untraced = droplet_untraced(STEPS, LEVEL);
    assert!(untraced.events.is_empty(), "disabled tracer must journal nothing");
    // Not "<3%": exactly equal. The tracer reads the virtual clock but
    // never advances it, so the workload cost is bit-identical.
    assert_eq!(
        traced.report.component_secs(),
        untraced.report.component_secs(),
        "tracing changed the virtual phase costs"
    );
    assert_eq!(traced.report.total_secs(), untraced.report.total_secs());
    assert_eq!(traced.summary.elements, untraced.summary.elements);
}

#[test]
fn flight_recorder_inflates_the_virtual_clock_at_most_5_percent() {
    let o = recorder_overhead(STEPS, LEVEL);
    println!(
        "recorder overhead: {:.2}% ({} vs {} virtual s)",
        o.inflation_percent(),
        o.on_secs,
        o.off_secs
    );
    assert!(o.on_secs > o.off_secs, "the recorder's line writes must cost something: {o:?}");
    assert!(o.inflation_percent() <= 5.0, "recorder inflates the droplet run by {o:?}");
}
