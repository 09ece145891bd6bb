//! The paper's tables and figures, rendered from suite reports.

use clfp_limits::{harmonic_mean, MachineKind, MispredictionStats, Report};
use clfp_workloads::{suite, WorkloadClass};

use crate::WorkloadReport;

pub(crate) fn fmt_parallelism(p: f64) -> String {
    if p >= 1000.0 {
        format!("{p:.0}")
    } else if p >= 100.0 {
        format!("{p:.1}")
    } else {
        format!("{p:.2}")
    }
}

/// Renders a program × machine table: the header over the seven machines,
/// then one `| label | cell | … |` row per entry. Every table whose
/// columns are the machines goes through here.
pub(crate) fn machine_table<'a>(rows: impl IntoIterator<Item = (&'a str, Vec<String>)>) -> String {
    let mut out = String::from(
        "| program | BASE | CD | CD-MF | SP | SP-CD | SP-CD-MF | ORACLE |\n\
         |---------|------|----|-------|----|-------|----------|--------|\n",
    );
    for (label, cells) in rows {
        out.push_str(&format!("| {label} |"));
        for cell in cells {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// A report's parallelism on every machine, in `MachineKind::ALL` order.
pub(crate) fn parallelism_cells(report: &Report) -> Vec<String> {
    MachineKind::ALL
        .iter()
        .map(|&kind| fmt_parallelism(report.parallelism(kind)))
        .collect()
}

/// The harmonic-mean row over `reports`, machine by machine.
pub(crate) fn harmonic_mean_row(reports: &[&Report]) -> (&'static str, Vec<String>) {
    let cells = MachineKind::ALL
        .iter()
        .map(|&kind| fmt_parallelism(harmonic_mean(reports.iter().map(|r| r.parallelism(kind)))))
        .collect();
    ("**harmonic mean**", cells)
}

/// Static inventory of the suite: text size, basic blocks, procedures,
/// natural loops, and how many instructions the trace transformations
/// delete. Not a paper table, but the reviewer's first question.
pub fn static_inventory() -> String {
    let mut out = String::from(
        "## Static Inventory\n\n\
         | program | instrs | blocks | procs | loops | induction-marked | inline-marked |\n\
         |---------|--------|--------|-------|-------|------------------|---------------|\n",
    );
    for w in suite() {
        let program = w.compile().expect("suite compiles");
        let info = clfp_cfg::StaticInfo::analyze(&program);
        let unroll = (0..program.text.len() as u32)
            .filter(|&pc| info.masks.unroll_ignored(pc))
            .count();
        let inline = (0..program.text.len() as u32)
            .filter(|&pc| info.masks.inline_ignored(pc))
            .count();
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            w.name,
            program.text.len(),
            info.cfg.blocks().len(),
            info.cfg.procs().len(),
            info.loops.loops().len(),
            unroll,
            inline,
        ));
    }
    out
}

/// Table 1: the benchmark suite.
pub fn table1() -> String {
    let mut out = String::from(
        "## Table 1: Benchmark Programs\n\n\
         | program | paper analogue | class | description |\n\
         |---------|----------------|-------|-------------|\n",
    );
    for w in suite() {
        let class = match w.class {
            WorkloadClass::NonNumeric => "non-numeric",
            WorkloadClass::Numeric => "numeric",
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            w.name, w.paper_analog, class, w.description
        ));
    }
    out
}

/// Table 2: branch statistics (prediction rate, instructions between
/// branches).
pub fn table2(reports: &[WorkloadReport]) -> String {
    let mut out = String::from(
        "## Table 2: Branch Statistics\n\n\
         | program | prediction rate (%) | dynamic instrs between branches |\n\
         |---------|---------------------|--------------------------------|\n",
    );
    for r in reports {
        out.push_str(&format!(
            "| {} | {:.2} | {:.1} |\n",
            r.workload.name,
            r.unrolled.branches.prediction_rate(),
            r.unrolled.branches.instrs_between_branches()
        ));
    }
    out
}

/// Table 3: parallelism for every machine model, harmonic mean over the
/// non-numeric group.
pub fn table3(reports: &[WorkloadReport]) -> String {
    let class = |class| reports.iter().filter(move |r| r.workload.class == class);
    let row = |r: &WorkloadReport| (r.workload.name, parallelism_cells(&r.unrolled));
    let non_numeric: Vec<&Report> = class(WorkloadClass::NonNumeric)
        .map(|r| &r.unrolled)
        .collect();
    // Harmonic mean over the non-numeric group, like the paper.
    let rows = class(WorkloadClass::NonNumeric)
        .map(row)
        .chain([harmonic_mean_row(&non_numeric)])
        .chain(class(WorkloadClass::Numeric).map(row));
    format!(
        "## Table 3: Parallelism for each Machine Model\n\n{}",
        machine_table(rows)
    )
}

/// Table 4: percent change in parallelism due to perfect unrolling.
pub fn table4(reports: &[WorkloadReport]) -> String {
    let rows = reports.iter().map(|r| {
        let cells = MachineKind::ALL
            .iter()
            .map(|&kind| {
                let with = r.unrolled.parallelism(kind);
                let without = r.rolled.parallelism(kind);
                format!("{:.0}", 100.0 * (with - without) / without)
            })
            .collect();
        (r.workload.name, cells)
    });
    format!(
        "## Table 4: Percent Change in Parallelism due to Perfect Loop Unrolling\n\n{}",
        machine_table(rows)
    )
}

/// Figure 4: parallelism with control dependence analysis (CD vs BASE and
/// CD-MF vs CD), as a data series.
pub fn figure4(reports: &[WorkloadReport]) -> String {
    let mut out = String::from(
        "## Figure 4: Parallelism with Control Dependence Analysis\n\n\
         | program | BASE | CD | CD-MF | CD/BASE | CD-MF/CD |\n\
         |---------|------|----|-------|---------|----------|\n",
    );
    for r in reports
        .iter()
        .filter(|r| r.workload.class == WorkloadClass::NonNumeric)
    {
        let base = r.unrolled.parallelism(MachineKind::Base);
        let cd = r.unrolled.parallelism(MachineKind::Cd);
        let cdmf = r.unrolled.parallelism(MachineKind::CdMf);
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2}x | {:.2}x |\n",
            r.workload.name,
            fmt_parallelism(base),
            fmt_parallelism(cd),
            fmt_parallelism(cdmf),
            cd / base,
            cdmf / cd
        ));
    }
    out
}

/// Figure 5: parallelism with speculative execution (SP family), as a data
/// series.
pub fn figure5(reports: &[WorkloadReport]) -> String {
    let mut out = String::from(
        "## Figure 5: Parallelism with Speculative Execution\n\n\
         | program | BASE | SP | SP-CD | SP-CD-MF | SP/BASE | SP-CD/SP | SP-CD-MF/SP-CD |\n\
         |---------|------|----|-------|----------|---------|----------|----------------|\n",
    );
    for r in reports
        .iter()
        .filter(|r| r.workload.class == WorkloadClass::NonNumeric)
    {
        let base = r.unrolled.parallelism(MachineKind::Base);
        let sp = r.unrolled.parallelism(MachineKind::Sp);
        let spcd = r.unrolled.parallelism(MachineKind::SpCd);
        let spcdmf = r.unrolled.parallelism(MachineKind::SpCdMf);
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.2}x | {:.2}x | {:.2}x |\n",
            r.workload.name,
            fmt_parallelism(base),
            fmt_parallelism(sp),
            fmt_parallelism(spcd),
            fmt_parallelism(spcdmf),
            sp / base,
            spcd / sp,
            spcdmf / spcd
        ));
    }
    out
}

/// Figure 6: cumulative distribution of misprediction distances.
pub fn figure6(reports: &[WorkloadReport]) -> String {
    let mut out = String::from(
        "## Figure 6: Cumulative Distribution of Misprediction Distances\n\n\
         Fraction of mispredictions within N instructions:\n\n\
         | program | ≤10 | ≤30 | ≤100 | ≤300 | ≤1000 | ≤10000 |\n\
         |---------|-----|-----|------|------|-------|--------|\n",
    );
    for r in reports
        .iter()
        .filter(|r| r.workload.class == WorkloadClass::NonNumeric)
    {
        let Some(stats) = &r.unrolled.mispred_stats else {
            continue;
        };
        let mut line = format!("| {} |", r.workload.name);
        for d in [10, 30, 100, 300, 1000, 10000] {
            line.push_str(&format!(" {:.2} |", stats.fraction_within(d)));
        }
        line.push('\n');
        out.push_str(&line);
    }
    out
}

/// Figure 7: harmonic-mean parallelism per misprediction distance, all
/// benchmarks combined.
pub fn figure7(reports: &[WorkloadReport]) -> String {
    let mut combined = MispredictionStats::new();
    for r in reports {
        if let Some(stats) = &r.unrolled.mispred_stats {
            combined.merge(stats);
        }
    }
    let mut out = String::from(
        "## Figure 7: Parallelism vs. Misprediction Distance (all programs combined)\n\n\
         | distance bucket | harmonic mean parallelism | segments |\n\
         |-----------------|---------------------------|----------|\n",
    );
    for (bucket, hmean, count) in combined.parallelism_by_distance() {
        out.push_str(&format!("| {bucket}+ | {hmean:.2} | {count} |\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_suite, tiny_config};

    #[test]
    fn static_inventory_covers_suite() {
        let inventory = static_inventory();
        for w in suite() {
            assert!(inventory.contains(w.name));
        }
        // Inline-marked instructions exist everywhere (every program
        // calls); induction-marked exist in the loop-heavy programs.
        assert!(inventory.lines().count() > 12);
    }

    #[test]
    fn table1_lists_everything() {
        let table = table1();
        for w in suite() {
            assert!(table.contains(w.name));
            assert!(table.contains(w.paper_analog));
        }
    }

    #[test]
    fn suite_runs_and_formats() {
        let reports = run_suite(&tiny_config()).unwrap();
        assert_eq!(reports.len(), 10);
        let t2 = table2(&reports);
        let t3 = table3(&reports);
        let t4 = table4(&reports);
        assert!(t2.contains("scan"));
        assert!(t3.contains("harmonic mean"));
        assert!(t4.contains("matmul"));
        let f4 = figure4(&reports);
        let f5 = figure5(&reports);
        let f6 = figure6(&reports);
        let f7 = figure7(&reports);
        assert!(f4.contains("CD-MF/CD"));
        assert!(f5.contains("SP-CD-MF"));
        assert!(f6.contains("qsort"));
        assert!(f7.contains("harmonic"));
    }
}
