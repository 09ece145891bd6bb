use clfp_isa::Program;
use clfp_vm::{Trace, Vm, VmError, VmOptions};

/// Per-branch taken/not-taken counts from a profiling run.
///
/// The paper collects these "from running the benchmarks with the same
/// inputs used in the simulations", making the derived static predictions
/// an upper bound for profile-guided prediction.
///
/// The counts are stored densely, indexed by pc up to the highest pc
/// recorded: recording a branch outcome is one indexed add. A pc with no
/// recorded outcome holds `(0, 0)` and counts as unprofiled.
#[derive(Clone, Debug, Default)]
pub struct BranchProfile {
    counts: Vec<(u64, u64)>, // indexed by pc: (taken, not taken)
}

impl BranchProfile {
    /// Creates an empty profile.
    pub fn new() -> BranchProfile {
        BranchProfile::default()
    }

    /// Profiles `program` by executing up to `limit` instructions.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from execution.
    pub fn collect(program: &Program, limit: u64) -> Result<BranchProfile, VmError> {
        BranchProfile::collect_with(program, limit, VmOptions::default())
    }

    /// Like [`BranchProfile::collect`] with explicit VM options.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from execution.
    pub fn collect_with(
        program: &Program,
        limit: u64,
        options: VmOptions,
    ) -> Result<BranchProfile, VmError> {
        let mut profile = BranchProfile::new();
        let mut vm = Vm::new(program, options);
        let text = &program.text;
        vm.run_with(limit, |event| {
            if text[event.pc as usize].is_cond_branch() {
                profile.record(event.pc, event.taken);
            }
        })?;
        Ok(profile)
    }

    /// Profiles directly from an already-captured trace.
    ///
    /// The paper profiles "with the same inputs used in the simulations" —
    /// so the measured trace itself *is* the profiling run, and re-deriving
    /// the counts from it gives bit-identical predictions to
    /// [`BranchProfile::collect`] on the same program and limit without a
    /// second execution.
    pub fn from_trace(program: &Program, trace: &Trace) -> BranchProfile {
        let mut profile = BranchProfile::new();
        let text = &program.text;
        for event in trace.iter() {
            if text[event.pc as usize].is_cond_branch() {
                profile.record(event.pc, event.taken);
            }
        }
        profile
    }

    /// Records one dynamic branch outcome.
    pub fn record(&mut self, pc: u32, taken: bool) {
        let index = pc as usize;
        if index >= self.counts.len() {
            self.counts.resize(index + 1, (0, 0));
        }
        let entry = &mut self.counts[index];
        if taken {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }

    /// The majority prediction for the branch at `pc`.
    ///
    /// Branches never seen in the profile predict not-taken (ties predict
    /// taken, the common loop-branch direction).
    pub fn majority(&self, pc: u32) -> bool {
        let (taken, not_taken) = self.counts(pc);
        taken + not_taken > 0 && taken >= not_taken
    }

    /// `(taken, not_taken)` counts for a branch.
    pub fn counts(&self, pc: u32) -> (u64, u64) {
        self.counts.get(pc as usize).copied().unwrap_or((0, 0))
    }

    /// Total dynamic conditional branches profiled.
    pub fn total_branches(&self) -> u64 {
        self.counts.iter().map(|&(t, n)| t + n).sum()
    }

    /// The accuracy the majority predictor achieves on the profiled run
    /// itself — the paper's Table 2 "prediction rate".
    pub fn accuracy(&self) -> f64 {
        let total = self.total_branches();
        if total == 0 {
            return 1.0;
        }
        let correct: u64 = self
            .counts
            .iter()
            .map(|&(taken, not_taken)| taken.max(not_taken))
            .sum();
        correct as f64 / total as f64
    }

    /// Iterates over `(pc, taken, not_taken)` for every profiled branch,
    /// in ascending pc order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &(t, n))| t + n > 0)
            .map(|(pc, &(t, n))| (pc as u32, t, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clfp_isa::assemble;

    #[test]
    fn profiles_loop_branch() {
        let program = assemble(
            ".text\nmain: li r8, 10\nloop: addi r8, r8, -1\n bgt r8, r0, loop\n halt",
        )
        .unwrap();
        let profile = BranchProfile::collect(&program, 1_000_000).unwrap();
        let (taken, not_taken) = profile.counts(2);
        assert_eq!(taken, 9);
        assert_eq!(not_taken, 1);
        assert!(profile.majority(2));
        assert!((profile.accuracy() - 0.9).abs() < 1e-12);
        assert_eq!(profile.total_branches(), 10);
    }

    #[test]
    fn from_trace_matches_collect() {
        let program = assemble(
            ".text\nmain: li r8, 10\nloop: addi r8, r8, -1\n bgt r8, r0, loop\n halt",
        )
        .unwrap();
        let collected = BranchProfile::collect(&program, 1_000_000).unwrap();
        let mut vm = Vm::new(&program, VmOptions::default());
        let trace = vm.trace(1_000_000).unwrap();
        let derived = BranchProfile::from_trace(&program, &trace);
        let mut lhs: Vec<_> = collected.iter().collect();
        let mut rhs: Vec<_> = derived.iter().collect();
        lhs.sort_unstable();
        rhs.sort_unstable();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn unseen_branch_predicts_not_taken() {
        let profile = BranchProfile::new();
        assert!(!profile.majority(42));
        assert_eq!(profile.counts(42), (0, 0));
        assert_eq!(profile.accuracy(), 1.0);
    }

    #[test]
    fn ties_predict_taken() {
        let mut profile = BranchProfile::new();
        profile.record(0, true);
        profile.record(0, false);
        assert!(profile.majority(0));
    }

    #[test]
    fn iter_yields_all_branches() {
        let mut profile = BranchProfile::new();
        profile.record(3, true);
        profile.record(7, false);
        let mut pcs: Vec<u32> = profile.iter().map(|(pc, _, _)| pc).collect();
        pcs.sort_unstable();
        assert_eq!(pcs, vec![3, 7]);
    }

    /// The dense storage holds a slot for every pc up to the highest one
    /// recorded; the unrecorded slots below it read as unprofiled.
    #[test]
    fn dense_storage_gaps_read_as_unprofiled() {
        let mut profile = BranchProfile::new();
        profile.record(9, true);
        profile.record(2, false);
        profile.record(9, true);
        profile.record(5, true);
        profile.record(5, false);
        for gap in [0, 1, 3, 4, 6, 7, 8] {
            assert_eq!(profile.counts(gap), (0, 0), "pc {gap}");
            assert!(!profile.majority(gap), "pc {gap} predicts not-taken");
        }
        assert_eq!(profile.counts(10), (0, 0), "above the highest pc");
        assert!(!profile.majority(10));
        // Recorded pcs only, in ascending order, whatever the recording
        // order was.
        let listed: Vec<(u32, u64, u64)> = profile.iter().collect();
        assert_eq!(listed, vec![(2, 0, 1), (5, 1, 1), (9, 2, 0)]);
        assert!(!profile.majority(2));
        assert!(profile.majority(5), "a tie predicts taken");
        assert!(profile.majority(9));
        assert_eq!(profile.total_branches(), 5);
        assert!((profile.accuracy() - 4.0 / 5.0).abs() < 1e-12);
    }
}
