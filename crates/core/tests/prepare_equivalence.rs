//! Equivalence suite for the shared preparation walk and the public
//! entry points around it: the branch profile the walk derives from the
//! measured trace must equal a separate profiling execution's, and
//! `Analyzer::run` must agree with preparing and reporting explicitly.
//! (The schedules themselves are pinned against the reference pass by
//! the root `lane_equivalence` suite.)

use clfp_limits::{AnalysisConfig, Analyzer, MachineKind};
use clfp_predict::BranchProfile;
use clfp_vm::{Vm, VmOptions};

/// Workloads chosen to cover data-dependent control (scan), recursion +
/// calls (qsort), dense branching (logic), and numeric loop nests
/// (matmul).
const WORKLOADS: [&str; 4] = ["scan", "qsort", "logic", "matmul"];

fn config() -> AnalysisConfig {
    // Small enough to keep the suite fast, large enough that every
    // workload executes thousands of dynamic branches.
    AnalysisConfig::quick().with_max_instrs(60_000)
}

/// The branch profile derived from the measured trace must be identical to
/// the profile a separate profiling execution would have collected — the
/// seed's two-execution path. The VM is deterministic and the paper
/// profiles "with the same inputs used in the simulations", so eliminating
/// the second execution is semantics-preserving.
#[test]
fn profile_from_trace_equals_separate_profiling_run() {
    for name in WORKLOADS {
        let workload = clfp_workloads::by_name(name).expect(name);
        let program = workload.compile().expect(name);
        let config = config();
        let options = VmOptions {
            mem_words: config.mem_words,
        };

        let separate =
            BranchProfile::collect_with(&program, config.max_instrs, options).unwrap();
        let mut vm = Vm::new(&program, options);
        let trace = vm.trace(config.max_instrs).unwrap();
        let derived = BranchProfile::from_trace(&program, &trace);

        let mut lhs: Vec<_> = separate.iter().collect();
        let mut rhs: Vec<_> = derived.iter().collect();
        lhs.sort_unstable();
        rhs.sort_unstable();
        assert_eq!(lhs, rhs, "{name}: profile counts diverge");
        assert_eq!(
            separate.total_branches(),
            derived.total_branches(),
            "{name}"
        );
    }
}

/// The analyzer end-to-end (`run`) must agree with preparing and
/// reporting explicitly, and the machine hierarchy must hold on its
/// output — guarding the public entry points around the kernel.
#[test]
fn run_prepare_report_and_hierarchy_agree() {
    let workload = clfp_workloads::by_name("qsort").unwrap();
    let program = workload.compile().unwrap();
    let config = config();
    let analyzer = Analyzer::new(&program, config.clone()).unwrap();

    let report = analyzer.run().unwrap();
    let mut vm = Vm::new(
        &program,
        VmOptions {
            mem_words: config.mem_words,
        },
    );
    let trace = vm.trace(config.max_instrs).unwrap();
    let explicit = analyzer
        .prepare(&trace)
        .report_with_unrolling(config.unrolling);

    assert_eq!(report.seq_instrs, explicit.seq_instrs);
    assert_eq!(report.branches, explicit.branches);
    for (a, b) in report.results.iter().zip(&explicit.results) {
        assert_eq!(a.cycles, b.cycles, "{}", a.kind);
    }
    for kind in MachineKind::ALL {
        for &weaker in kind.dominates() {
            assert!(
                report.parallelism(weaker) <= report.parallelism(kind) + 1e-9,
                "{weaker} > {kind}"
            );
        }
    }
}
