//! Printers: render experiment results in the paper's shape. Every row
//! table goes through [`table`]; prose outputs are single `format!`s.

use crate::experiments::*;

/// One table row: the `Display` text of each cell.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// Render a table: `title`, the `header` line, then one line per row.
/// Cells are joined by `" | "` and padded to the width of their column in
/// `header` — left-aligned when the column's name is padded with trailing
/// blanks, right-aligned otherwise. A cell wider than its column is kept
/// whole.
fn table(title: &str, header: &str, rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let mut s = format!("{title}\n{header}\n");
    for row in rows {
        let cells: Vec<String> = header
            .split(" | ")
            .zip(row)
            .map(|(h, c)| {
                if h.ends_with(' ') {
                    format!("{c:<w$}", w = h.len())
                } else {
                    format!("{c:>w$}", w = h.len())
                }
            })
            .collect();
        s.push_str(&cells.join(" | "));
        s.push('\n');
    }
    s
}

/// Render Table 2.
pub fn table2_str(t: &Table2) -> String {
    let (dram, nvbm) = (t.model.dram, t.model.nvbm);
    format!(
        "Table 2: DRAM/NVBM characteristics (model in force)\n  \
         DRAM : read {} ns, write {} ns per cacheline\n  \
         NVBM : read {} ns, write {} ns per cacheline (write = {:.1}x DRAM)\n  \
         endurance: {:.0e} writes/bit\n  measured: one-line write {} ns, read {} ns\n",
        dram.read_ns,
        dram.write_ns,
        nvbm.read_ns,
        nvbm.write_ns,
        nvbm.write_ns as f64 / dram.write_ns as f64,
        t.model.endurance_writes_per_bit as f64,
        t.measured_write_ns,
        t.measured_read_ns
    )
}

/// Render the Figure 3 series.
pub fn fig3_str(rows: &[Fig3Row]) -> String {
    let min = rows.iter().map(|r| r.overlap).fold(1.0, f64::min);
    let max = rows.iter().map(|r| r.overlap).fold(0.0, f64::max);
    table(
        "Fig 3: overlap ratio & memory per 1000 octants over time steps",
        "step | elements | overlap | mem/1000 oct (B) | 2-copies (B) | reduction",
        rows.iter().map(|r| {
            let reduction = r.two_copies_per_1000 / r.mem_per_1000.max(1.0);
            let overlap = format!("{:.1}%", 100.0 * r.overlap);
            let (mem, two) =
                (format!("{:.0}", r.mem_per_1000), format!("{:.0}", r.two_copies_per_1000));
            row![r.step, r.elements, overlap, mem, two, format!("{reduction:.2}x")]
        }),
    ) + &format!("overlap range {:.0}%..{:.0}%  (paper: 39%..99%)\n", 100.0 * min, 100.0 * max)
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
    table(
        title,
        "procs | elements | scheme       | exec (virt s) | refine% bal% part% solve% persist%",
        rows.iter().map(|r| {
            let p = r.phase_percent;
            let phases =
                format!("{:>6.1} {:>5.1} {:>5.1} {:>6.1} {:>7.1}", p[0], p[1], p[2], p[3], p[4]);
            row![r.procs, r.elements, r.scheme, format!("{:.3}", r.exec_secs), phases]
        }),
    )
}

/// Render the Fig. 8 ideal-speedup check: the PM rows normalized to the
/// smallest processor count.
pub fn speedup_str(rows: &[ScalingRow]) -> String {
    let pm: Vec<&ScalingRow> = rows.iter().filter(|r| r.scheme == "pm-octree").collect();
    let Some(base) = pm.first() else { return String::new() };
    table(
        "Fig 8 ideal-speedup check (pm-octree):",
        "procs | exec (s) | speedup | ideal",
        pm.iter().map(|r| {
            let speedup = base.exec_secs / r.exec_secs;
            let ideal = r.procs as f64 / base.procs as f64;
            row![
                r.procs,
                format!("{:.3}", r.exec_secs),
                format!("{speedup:.2}"),
                format!("{ideal:.2}")
            ]
        }),
    )
}

/// Render Figure 10.
pub fn fig10_str(rows: &[Fig10Row]) -> String {
    table(
        "Fig 10: impact of DRAM (C0) size",
        "config             | exec (virt s) | merges",
        rows.iter().map(|r| {
            let config = r.c0_octants.map_or(r.scheme.to_string(), |n| format!("pm C0={n:>7} oct"));
            row![config, format!("{:.3}", r.exec_secs), r.merges]
        }),
    )
}

/// Render Figure 11.
pub fn fig11_str(rows: &[Fig11Row]) -> String {
    table(
        "Fig 11: dynamic transformation off/on",
        "elements | without (s) | with (s) | time saved | NVBM writes saved",
        rows.iter().map(|r| {
            let (without, with) = (format!("{:.3}", r.without_secs), format!("{:.3}", r.with_secs));
            let time = format!("{:.1}%", r.time_saving_percent());
            row![r.elements, without, with, time, format!("{:.1}%", r.write_saving_percent())]
        }),
    ) + "(paper: ~0% at small sizes; -24.7% time, -31% writes at the largest)\n"
}

/// Render the §5.6 recovery table.
pub fn recovery_str(rows: &[pmoctree_cluster::RecoveryReport]) -> String {
    table(
        "S5.6 failure recovery (virtual s)",
        "scheme       | same node | new node",
        rows.iter().map(|r| {
            let new_node = r.new_node_secs.map_or("unrecoverable".into(), |t| format!("{t:.4}"));
            row![r.scheme, format!("{:.4}", r.same_node_secs), new_node]
        }),
    ) + "(paper: in-core 42.9s / 42.9s; pm 2.1s / 3.48s; etree ~0 / unrecoverable)\n"
}

/// Render the sampling ablation.
pub fn sampling_str(rows: &[SamplingRow]) -> String {
    table(
        "Ablation: N_sample sweep",
        "N    | detected | sampling NVBM reads",
        rows.iter().map(|r| row![r.n_sample, r.detected, r.sample_reads]),
    )
}

/// Render the snapshot-cadence ablation.
pub fn snapshot_interval_str(rows: &[SnapshotRow]) -> String {
    table(
        "Ablation: checkpoint cadence (in-core snapshots vs per-step PM persist)",
        "scheme            | exec (virt s) | max steps lost on crash",
        rows.iter().map(|r| {
            let scheme =
                r.interval.map_or("pm-octree (every)".into(), |i| format!("in-core every {i:>2}"));
            row![scheme, format!("{:.4}", r.exec_secs), r.max_lost_steps]
        }),
    )
}

/// Render the version-count ablation.
pub fn versions_str(rows: &[VersionRow]) -> String {
    table(
        "Ablation: retained versions vs live NVBM bytes",
        "versions | live bytes",
        rows.iter().map(|r| row![r.versions, r.live_bytes]),
    ) + "(PM-octree keeps 2; each extra version retains its exclusive delta)\n"
}

/// Render the traced droplet run: flat span attribution, persist
/// coverage, and the per-timestep table reconstructed from the journal.
pub fn droplet_str(run: &DropletRun) -> String {
    let d = &run.summary;
    let ms = |ns: u64| format!("{:.3}", ns as f64 * 1e-6);
    let spans = table(
        &format!(
            "Traced droplet run: {} steps, {} elements, {:.3} virtual s, {} journal events",
            d.steps,
            d.elements,
            d.total_secs,
            run.events.len()
        ),
        "span                  | total (ms) |  count",
        d.attribution.iter().take(16).map(|r| row![r.name, ms(r.total_ns), r.count]),
    );
    let (parent, children) = (d.persist_ns, d.persist_covered_ns);
    let pct = if parent > 0 { 100.0 * children as f64 / parent as f64 } else { 100.0 };
    let steps = pmoctree_obsv::step_table(&run.events).expect("the journal's spans nest");
    spans
        + &table(
            &format!(
                "persist coverage: {} ms in persist children of {} ms total ({pct:.2}%)",
                ms(children),
                ms(parent)
            ),
            "step |  total (ms) |  refine | balance |   solve | persist",
            steps.iter().map(|st| {
                let phase =
                    |n: &str| ms(st.phases.iter().find(|(p, _)| *p == n).map_or(0, |(_, ns)| *ns));
                let (refine, balance) = (phase("step::refine"), phase("step::balance"));
                row![
                    st.step,
                    ms(st.total_ns),
                    refine,
                    balance,
                    phase("step::solve"),
                    phase("step::persist")
                ]
            }),
        )
}

/// Render a trace-check verdict.
pub fn trace_check_str(path: &str, s: &crate::trace_check::TraceSummary) -> String {
    format!(
        "{path}: valid Chrome trace — {} events, {} threads, {} complete spans\n",
        s.events, s.threads, s.spans
    )
}

/// Render a wear / write-amplification report: per-region and per-phase
/// committed bytes plus the block-wear histogram.
pub fn wear_str(w: &pmoctree_nvbm::WearReport) -> String {
    let row = |items: &[pmoctree_nvbm::NamedBytes]| {
        items.iter().map(|r| format!("{} {}", r.name, r.bytes)).collect::<Vec<_>>().join(", ")
    };
    let hist: Vec<String> = w
        .wear_hist
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| format!("2^{i}:{n}"))
        .collect();
    format!(
        "wear: {} bytes committed over {} blocks (mean {:.1} commits/block, \
         hottest block {} commits at offset {:#x})\n  bytes by region: {}\n  \
         bytes by phase:  {}\n  wear histogram (log2 buckets): {}\n",
        w.bytes_committed,
        w.blocks_touched,
        w.mean_wear,
        w.max_wear,
        w.max_wear_offset,
        row(&w.bytes_by_region),
        row(&w.bytes_by_phase),
        hist.join(" ")
    )
}

/// Render a crash sweep's outcome (droplet or service).
pub fn crash_sweep_str(sweep: &crate::crash_sweep::CrashSweep) -> String {
    let [name, steps, elements] = sweep.names;
    let mut s = table(
        &format!(
            "{name}: {} opportunities x {} modes over {} {steps} ({} {elements})",
            sweep.opportunities,
            sweep.rows.len(),
            sweep.steps,
            sweep.elements
        ),
        "mode                          |  checked | V_i-1 | V_i | violations",
        sweep.rows.iter().map(|r| {
            let (committed, in_flight) = (r.recovered_committed, r.recovered_in_flight);
            row![r.mode, r.checked, committed, in_flight, r.violations]
        }),
    );
    let cov: Vec<String> = sweep.label_counts.iter().map(|(l, n)| format!("{l} x{n}")).collect();
    s += &format!("failpoint coverage: {}\n", cov.join(", "));
    for v in &sweep.violations {
        s += &format!(
            "VIOLATION at opportunity {} ({}) under {}: {}\n",
            v.opportunity,
            v.label.unwrap_or("unlabelled"),
            v.mode,
            v.reason
        );
    }
    s += &format!(
        "flight recorder: {} recovered dumps validated against the injected crash points\n",
        sweep.recorder_checked
    );
    if sweep.total_violations() == 0 {
        s += sweep.contract;
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_pads_cells_to_their_header() {
        let rows = [row![1, "a", 12345678], row![10, "bb", "x"]];
        let s = table("T", "n   | col | wide", rows);
        assert_eq!(s, "T\nn   | col | wide\n1   |   a | 12345678\n10  |  bb |    x\n");
    }
}
