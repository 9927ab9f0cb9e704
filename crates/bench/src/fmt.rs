//! Table printers: render experiment rows in the paper's shape.

use crate::experiments::*;

/// Render Table 2.
pub fn table2_str(t: &Table2) -> String {
    let mut s = String::new();
    s.push_str("Table 2: DRAM/NVBM characteristics (model in force)\n");
    s.push_str(&format!(
        "  DRAM : read {} ns, write {} ns per cacheline\n",
        t.model.dram.read_ns, t.model.dram.write_ns
    ));
    s.push_str(&format!(
        "  NVBM : read {} ns, write {} ns per cacheline (write = {:.1}x DRAM)\n",
        t.model.nvbm.read_ns,
        t.model.nvbm.write_ns,
        t.model.nvbm.write_ns as f64 / t.model.dram.write_ns as f64
    ));
    s.push_str(&format!(
        "  endurance: {:.0e} writes/bit\n  measured: one-line write {} ns, read {} ns\n",
        t.model.endurance_writes_per_bit as f64, t.measured_write_ns, t.measured_read_ns
    ));
    s
}

/// Render the Figure 3 series.
pub fn fig3_str(rows: &[Fig3Row]) -> String {
    let mut s = String::from(
        "Fig 3: overlap ratio & memory per 1000 octants over time steps\n\
         step | elements | overlap | mem/1000 oct (B) | 2-copies (B) | reduction\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>4} | {:>8} | {:>6.1}% | {:>16.0} | {:>12.0} | {:>8.2}x\n",
            r.step,
            r.elements,
            100.0 * r.overlap,
            r.mem_per_1000,
            r.two_copies_per_1000,
            r.two_copies_per_1000 / r.mem_per_1000.max(1.0),
        ));
    }
    let min = rows.iter().map(|r| r.overlap).fold(1.0, f64::min);
    let max = rows.iter().map(|r| r.overlap).fold(0.0, f64::max);
    s.push_str(&format!(
        "overlap range {:.0}%..{:.0}%  (paper: 39%..99%)\n",
        100.0 * min,
        100.0 * max
    ));
    s
}

/// Render the write-fraction statistic plus the traversal counters.
pub fn write_fraction_str(w: &WriteFraction) -> String {
    format!(
        "S1 write fraction during meshing+solve: avg {:.0}%, max {:.0}% (paper: 41% avg, 72% max); \
         whole-run aggregate incl. balance verification: {:.0}%\n\
         octant location: {} root descents, {} leaf-index hits \
         ({} index rebuilds over {} octants)\n\
         descent cost: {} lines charged over {} descents => {:.2} charged lines/descent\n",
        100.0 * w.avg,
        100.0 * w.max,
        100.0 * w.aggregate,
        w.trav.root_descents,
        w.trav.index_hits,
        w.trav.index_rebuilds,
        w.trav.index_rebuild_octants,
        w.trav.descent_lines,
        w.trav.root_descents,
        w.trav.charged_lines_per_descent(),
    )
}

/// Render the layout ablation.
pub fn layout_str(l: &LayoutAblation) -> String {
    format!(
        "S3.3 layout ablation: refinement burst served {} NVBM write-lines (oblivious) vs {} \
         (locality-aware) => oblivious does +{:.0}% more NVBM writes (paper: +89%)\n",
        l.oblivious_writes,
        l.aware_writes,
        l.extra_percent()
    )
}

/// Render scaling rows (Figs 6/8/9), grouped by processor count.
pub fn scaling_str(title: &str, rows: &[ScalingRow]) -> String {
    let mut s = format!(
        "{title}\nprocs | elements | scheme       | exec (virt s) | refine% bal% part% solve% persist%\n"
    );
    for r in rows {
        s.push_str(&format!(
            "{:>5} | {:>8} | {:<12} | {:>13.3} | {:>6.1} {:>5.1} {:>5.1} {:>6.1} {:>7.1}\n",
            r.procs,
            r.elements,
            r.scheme,
            r.exec_secs,
            r.phase_percent[0],
            r.phase_percent[1],
            r.phase_percent[2],
            r.phase_percent[3],
            r.phase_percent[4],
        ));
    }
    s
}

/// Render the cluster smoke: the scaling rows plus the wall-clock /
/// worker-count line (stdout only — these two never enter the JSON, so
/// the emitted file stays byte-identical across worker counts).
pub fn cluster_smoke_str(s: &ClusterSmoke) -> String {
    let mut out = scaling_str("Cluster smoke (fixed 4-rank point; determinism gate)", &s.rows);
    out.push_str(&format!(
        "workers: {}  wall-clock: {:.3}s (reported here only; never serialized)\n",
        s.workers, s.wall_secs
    ));
    out
}

/// Render Figure 10.
pub fn fig10_str(rows: &[Fig10Row]) -> String {
    let mut s = String::from(
        "Fig 10: impact of DRAM (C0) size\nconfig             | exec (virt s) | merges\n",
    );
    for r in rows {
        let label = match r.c0_octants {
            Some(n) => format!("pm C0={:>7} oct", n),
            None => format!("{:<18}", r.scheme),
        };
        s.push_str(&format!("{label:<18} | {:>13.3} | {:>6}\n", r.exec_secs, r.merges));
    }
    s
}

/// Render Figure 11.
pub fn fig11_str(rows: &[Fig11Row]) -> String {
    let mut s = String::from(
        "Fig 11: dynamic transformation off/on\nelements | without (s) | with (s) | time saved | NVBM writes saved\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>8} | {:>11.3} | {:>8.3} | {:>9.1}% | {:>16.1}%\n",
            r.elements,
            r.without_secs,
            r.with_secs,
            r.time_saving_percent(),
            r.write_saving_percent(),
        ));
    }
    s.push_str("(paper: ~0% at small sizes; -24.7% time, -31% writes at the largest)\n");
    s
}

/// Render the §5.6 recovery table.
pub fn recovery_str(rows: &[pmoctree_cluster::RecoveryReport]) -> String {
    let mut s =
        String::from("S5.6 failure recovery (virtual s)\nscheme       | same node | new node\n");
    for r in rows {
        s.push_str(&format!(
            "{:<12} | {:>9.4} | {}\n",
            r.scheme,
            r.same_node_secs,
            r.new_node_secs.map_or("unrecoverable".to_string(), |t| format!("{t:>8.4}")),
        ));
    }
    s.push_str("(paper: in-core 42.9s / 42.9s; pm 2.1s / 3.48s; etree ~0 / unrecoverable)\n");
    s
}

/// Render the sampling ablation.
pub fn sampling_str(rows: &[SamplingRow]) -> String {
    let mut s = String::from("Ablation: N_sample sweep\nN    | detected | sampling NVBM reads\n");
    for r in rows {
        s.push_str(&format!("{:<4} | {:>8} | {:>6}\n", r.n_sample, r.detected, r.sample_reads));
    }
    s
}

/// Render the snapshot-cadence ablation.
pub fn snapshot_interval_str(rows: &[SnapshotRow]) -> String {
    let mut s = String::from(
        "Ablation: checkpoint cadence (in-core snapshots vs per-step PM persist)\n\
         scheme            | exec (virt s) | max steps lost on crash\n",
    );
    for r in rows {
        let label = match r.interval {
            Some(i) => format!("in-core every {i:>2}"),
            None => "pm-octree (every)".to_string(),
        };
        s.push_str(&format!("{label:<17} | {:>13.4} | {}\n", r.exec_secs, r.max_lost_steps));
    }
    s
}

/// Render the version-count ablation.
pub fn versions_str(rows: &[VersionRow]) -> String {
    let mut s =
        String::from("Ablation: retained versions vs live NVBM bytes\nversions | live bytes\n");
    for r in rows {
        s.push_str(&format!("{:>8} | {:>10}\n", r.versions, r.live_bytes));
    }
    s.push_str("(PM-octree keeps 2; each extra version retains its exclusive delta)\n");
    s
}

/// Render the traced droplet run: flat span attribution, persist
/// coverage, and the per-timestep table reconstructed from the journal.
pub fn droplet_str(run: &DropletRun) -> String {
    let mut s = format!(
        "Traced droplet run: {} steps, {} elements, {:.3} virtual s, {} journal events\n",
        run.report.steps.len(),
        run.elements,
        run.report.total_secs(),
        run.events.len()
    );
    match pmoctree_obsv::inclusive_totals(&run.events) {
        Ok(rows) => {
            s.push_str("span                  | total (ms) |  count\n");
            for r in rows.iter().take(16) {
                s.push_str(&format!(
                    "{:<21} | {:>10.3} | {:>6}\n",
                    r.name,
                    r.total_ns as f64 * 1e-6,
                    r.count
                ));
            }
        }
        Err(e) => s.push_str(&format!("span journal invalid: {e}\n")),
    }
    if let Ok((parent, children)) = pmoctree_obsv::coverage(&run.events, "persist") {
        let pct = if parent > 0 { 100.0 * children as f64 / parent as f64 } else { 100.0 };
        s.push_str(&format!(
            "persist coverage: {:.3} ms in persist children of {:.3} ms total ({pct:.2}%)\n",
            children as f64 * 1e-6,
            parent as f64 * 1e-6,
        ));
    }
    if let Ok(steps) = pmoctree_obsv::step_table(&run.events) {
        s.push_str("step |  total (ms) |  refine | balance |   solve | persist\n");
        for st in &steps {
            let get = |n: &str| {
                st.phases.iter().find(|(p, _)| *p == n).map_or(0.0, |(_, ns)| *ns as f64 * 1e-6)
            };
            s.push_str(&format!(
                "{:>4} | {:>11.3} | {:>7.3} | {:>7.3} | {:>7.3} | {:>7.3}\n",
                st.step,
                st.total_ns as f64 * 1e-6,
                get("step::refine"),
                get("step::balance"),
                get("step::solve"),
                get("step::persist"),
            ));
        }
    }
    s
}

/// Render a trace-check verdict.
pub fn trace_check_str(path: &str, s: &crate::trace_check::TraceSummary) -> String {
    format!(
        "{path}: valid Chrome trace — {} events, {} threads, {} complete spans, {} counters\n",
        s.events, s.threads, s.spans, s.counters
    )
}

/// Render the whole-application restart experiment.
pub fn recovery_rt_str(r: &crate::recovery_rt::RecoveryRt) -> String {
    let mut s = format!(
        "Whole-application restart (pm-rt): {} steps, {} elements, {} crash opportunities\n",
        r.steps, r.elements, r.opportunities
    );
    s.push_str("crash at    | label            | resumed at | identical report\n");
    for row in &r.rows {
        s.push_str(&format!(
            "{:>11} | {:<16} | {:<10} | {}\n",
            row.opportunity,
            row.label.as_deref().unwrap_or("-"),
            row.resumed_at.map_or("scratch".to_string(), |at| format!("step {at}")),
            if row.identical { "yes" } else { "NO" },
        ));
    }
    s.push_str(&format!(
        "restart latency (virtual s): pm-rt reattach {:.6} vs file checkpoint {:.6} \
         (read + rebuild + {} replayed steps) => {:.1}x\n",
        r.pm_restart_secs,
        r.baseline_restart_secs,
        r.baseline_lost_steps,
        r.speedup()
    ));
    s
}

/// Render the multi-tenant service crash sweep.
pub fn service_sweep_str(sweep: &crate::crash_sweep::ServiceSweep) -> String {
    let mut s = format!(
        "Service crash sweep: {} opportunities x {} modes over {} batches ({} tenants)\n",
        sweep.opportunities,
        sweep.rows.len(),
        sweep.batches,
        sweep.tenants
    );
    s.push_str("mode                          |  checked | V_i-1 | V_i | violations\n");
    for r in &sweep.rows {
        s.push_str(&format!(
            "{:<29} | {:>8} | {:>5} | {:>3} | {:>10}\n",
            r.mode, r.checked, r.recovered_committed, r.recovered_in_flight, r.violations
        ));
    }
    s.push_str("failpoint coverage: ");
    let cov: Vec<String> = sweep.label_counts.iter().map(|(l, n)| format!("{l} x{n}")).collect();
    s.push_str(&cov.join(", "));
    s.push('\n');
    for v in &sweep.violations {
        s.push_str(&format!(
            "VIOLATION at opportunity {} ({}) under {}: {}\n",
            v.opportunity,
            v.label.unwrap_or("unlabelled"),
            v.mode,
            v.reason
        ));
    }
    s.push_str(&format!(
        "flight recorder: {} recovered dumps validated against the injected crash points\n",
        sweep.recorder_checked
    ));
    if sweep.total_violations() == 0 {
        s.push_str("every crash recovers a batch all-or-nothing for every tenant\n");
    }
    s
}

/// Render the multi-tenant service benchmark.
pub fn service_str(b: &crate::service_bench::ServiceBench) -> String {
    let mut s = format!(
        "Multi-tenant service: {} tenants, Zipf s={:.2} (hottest tenant took {:.1}% of ops)\n",
        b.tenants,
        b.zipf_s,
        100.0 * b.hot_tenant_share
    );
    s.push_str(&format!(
        "{} ops in {:.4} virtual s => {:.0} ops/s; latency p50 {} ns, p99 {} ns\n",
        b.ops, b.total_virtual_secs, b.ops_per_virtual_sec, b.p50_ns, b.p99_ns
    ));
    s.push_str(&format!(
        "batch-flush (root swap) latency: p50 {} ns, p99 {} ns\n",
        b.commit_p50_ns, b.commit_p99_ns
    ));
    s.push_str(&format!(
        "{} root swaps, {} bytes written => {:.0} bytes/commit; {} quota rejections\n",
        b.commits, b.bytes_written, b.bytes_per_commit, b.quota_rejections
    ));
    s.push_str(&format!(
        "snapshot isolation: {} pinned rereads, {}\n",
        b.snapshot_checks,
        if b.snapshot_ok { "all byte-identical" } else { "VIOLATED" }
    ));
    s.push_str(&format!("per-tenant telemetry: {} labelled series\n", b.labeled_series));
    s.push_str(&wear_str(&b.wear));
    s
}

/// Render the wear-leveling benchmark: both endurance readouts against
/// their recorded pre-log baselines, plus the wear GC's counters.
pub fn wear_level_str(b: &crate::wear_bench::WearLevelBench) -> String {
    let mut s = format!(
        "Wear leveling: service {} commits, {} bytes => {:.0} bytes/commit \
         (baseline {:.0}, {:.1}% reduction)\n",
        b.service_commits,
        b.service_bytes_written,
        b.service_bytes_per_commit,
        b.baseline_bytes_per_commit,
        b.bytes_per_commit_reduction_percent
    );
    s.push_str(&format!(
        "droplet flatness (hottest/mean block wear): {:.3} (baseline {:.2}); \
         {} steps, {} elements\n",
        b.droplet_flatness, b.baseline_flatness, b.droplet_steps, b.droplet_elements
    ));
    s.push_str(&format!(
        "wear GC: watermark {:.2}, {} relocations, {} bytes moved; snapshots {}\n",
        b.leveling.occupancy_watermark,
        b.leveling.relocations,
        b.leveling.bytes_moved,
        if b.service_snapshot_ok { "byte-identical under relocation" } else { "VIOLATED" }
    ));
    s.push_str(&wear_str(&b.wear));
    s
}

/// Render a wear / write-amplification report: per-region and per-phase
/// committed bytes plus the block-wear histogram.
pub fn wear_str(w: &pmoctree_nvbm::WearReport) -> String {
    let mut s = format!(
        "wear: {} bytes committed over {} blocks (mean {:.1} commits/block, \
         hottest block {} commits at offset {:#x})\n",
        w.bytes_committed, w.blocks_touched, w.mean_wear, w.max_wear, w.max_wear_offset
    );
    let row = |items: &[pmoctree_nvbm::NamedBytes]| {
        items.iter().map(|r| format!("{} {}", r.name, r.bytes)).collect::<Vec<_>>().join(", ")
    };
    s.push_str(&format!("  bytes by region: {}\n", row(&w.bytes_by_region)));
    s.push_str(&format!("  bytes by phase:  {}\n", row(&w.bytes_by_phase)));
    let hist: Vec<String> = w
        .wear_hist
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| format!("2^{i}:{n}"))
        .collect();
    s.push_str(&format!("  wear histogram (log2 buckets): {}\n", hist.join(" ")));
    s
}

/// Render the blackbox (flight recorder) run: the recovered ring and the
/// recorder's measured overhead.
pub fn blackbox_str(b: &crate::experiments::BlackboxRun) -> String {
    let mut s = format!(
        "Blackbox: droplet run, {} steps, {} elements; recovered flight recorder holds \
         {} entries ({} slots, {} dropped, {} truncated)\n",
        b.steps,
        b.elements,
        b.dump.entries.len(),
        b.dump.slots,
        b.dump.dropped_slots,
        b.dump.truncated
    );
    s.push_str("   seq |        t_ns | kind       | label                      | arg\n");
    for e in b.dump.entries.iter().rev().take(20).rev() {
        s.push_str(&format!(
            "{:>6} | {:>11} | {:<10} | {:<26} | {}\n",
            e.seq,
            e.t_ns,
            e.kind.as_str(),
            e.label,
            e.arg
        ));
    }
    if b.dump.entries.len() > 20 {
        s.push_str(&format!("   ... ({} older entries not shown)\n", b.dump.entries.len() - 20));
    }
    s.push_str(&format!(
        "recorder overhead: {:.4} virtual s on vs {:.4} off => {:.2}% inflation (bound: 5%)\n",
        b.overhead.on_secs,
        b.overhead.off_secs,
        b.overhead.inflation_percent()
    ));
    s.push_str(&wear_str(&b.wear));
    s
}

/// Render the crash-point sweep outcome.
pub fn crash_sweep_str(sweep: &crate::crash_sweep::CrashSweep) -> String {
    let mut s = format!(
        "Crash-point sweep: {} opportunities ({} interleaving) x {} modes over {} steps \
         ({} final elements)\n",
        sweep.opportunities,
        sweep.interleavings,
        sweep.rows.len(),
        sweep.steps,
        sweep.elements
    );
    s.push_str("mode                          |  checked | V_i-1 | V_i | violations\n");
    for r in &sweep.rows {
        s.push_str(&format!(
            "{:<29} | {:>8} | {:>5} | {:>3} | {:>10}\n",
            r.mode, r.checked, r.recovered_committed, r.recovered_in_flight, r.violations
        ));
    }
    s.push_str("failpoint coverage: ");
    let cov: Vec<String> = sweep.label_counts.iter().map(|(l, n)| format!("{l} x{n}")).collect();
    s.push_str(&cov.join(", "));
    s.push('\n');
    for v in &sweep.violations {
        s.push_str(&format!(
            "VIOLATION at opportunity {} ({}) under {}: {}\n",
            v.opportunity,
            v.label.unwrap_or("unlabelled"),
            v.mode,
            v.reason
        ));
    }
    s.push_str(&format!(
        "flight recorder: {} recovered dumps validated against the injected crash points\n",
        sweep.recorder_checked
    ));
    if sweep.total_violations() == 0 {
        s.push_str("every crash recovers to exactly V_i or V_i-1 with invariants intact\n");
    }
    s
}
