//! Randomized property test for lane grouping (behind the
//! `external-tests` feature): for *any* machine subset in *any* request
//! order, over any suite workload and either unroll setting, the lane
//! kernel must produce the identical per-machine results as the reference
//! pass. This exercises the CD/non-CD split, partial lane groups
//! (1–8 lanes, padding lanes replicated from lane 0), and the scatter of
//! group results back into request order — including the singleton and
//! full-14-lane extremes the deterministic suite pins explicitly.
#![cfg(feature = "external-tests")]

use clfp_limits::{AnalysisConfig, Analyzer, MachineKind};

/// Minimal SplitMix64 PRNG — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn random_machine_subsets_match_reference() {
    let names = ["qsort", "scan", "sparse", "matmul", "eventsim"];
    let mut programs = Vec::new();
    for name in names {
        let workload = clfp_workloads::by_name(name).expect(name);
        programs.push((name, workload.compile().expect(name)));
    }
    let base = AnalysisConfig::quick().with_max_instrs(10_000);
    let mut traces = Vec::new();
    for (_, program) in &programs {
        let mut vm = clfp_vm::Vm::new(
            program,
            clfp_vm::VmOptions {
                mem_words: base.mem_words,
            },
        );
        traces.push(vm.trace(base.max_instrs).unwrap());
    }

    let mut rng = Rng(0x1992_0515_C0FF_EE00);
    for round in 0..48 {
        let pi = rng.below(programs.len());
        let (name, program) = &programs[pi];

        // A random non-empty subset in a random order (Fisher-Yates over
        // ALL, then a random prefix).
        let mut pool: Vec<MachineKind> = MachineKind::ALL.to_vec();
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng.below(i + 1));
        }
        let machines: Vec<MachineKind> = pool[..1 + rng.below(pool.len())].to_vec();

        let config = AnalysisConfig {
            machines: machines.clone(),
            ..base.clone()
        };
        let analyzer = Analyzer::new(program, config).unwrap();
        let prepared = analyzer.prepare(&traces[pi]);
        let (lane_unrolled, lane_rolled) = prepared.report_both();
        for (unrolling, lane) in [(true, &lane_unrolled), (false, &lane_rolled)] {
            let reference = Analyzer::new(
                program,
                AnalysisConfig {
                    machines: machines.clone(),
                    unrolling,
                    ..base.clone()
                },
            )
            .unwrap()
            .run_on_trace_reference(&traces[pi]);
            let tag = format!("round {round} {name} {machines:?} unroll={unrolling}");
            assert_eq!(lane.seq_instrs, reference.seq_instrs, "{tag}");
            assert_eq!(lane.mispred_stats, reference.mispred_stats, "{tag}");
            assert_eq!(lane.results.len(), reference.results.len(), "{tag}");
            for (g, w) in lane.results.iter().zip(&reference.results) {
                assert_eq!(g.kind, w.kind, "{tag}: request order");
                assert_eq!(g.cycles, w.cycles, "{tag} {}", g.kind);
                assert_eq!(
                    g.parallelism.to_bits(),
                    w.parallelism.to_bits(),
                    "{tag} {}",
                    g.kind
                );
            }
        }
    }
}
