use std::fmt;

/// One of the paper's seven abstract machine models (Section 3).
///
/// Each model is defined purely by the control-flow constraint it imposes
/// on instructions in a dynamic trace; all other constraints (true data
/// dependences, unit latency, unlimited window) are shared.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MachineKind {
    /// No special handling: an instruction cannot execute before any
    /// preceding conditional branch resolves.
    Base,
    /// Perfect control dependence analysis; instructions wait only for
    /// their immediate control-dependence branch, but all branches execute
    /// in sequential order (single flow of control).
    Cd,
    /// Control dependence plus multiple flows of control: no branch
    /// ordering at all.
    CdMf,
    /// Speculative execution down the predicted path: instructions wait
    /// only for the last preceding *mispredicted* branch; mispredictions
    /// resolve one per cycle.
    Sp,
    /// Speculation plus control dependence: instructions wait for their
    /// nearest mispredicted control-dependence ancestor; mispredictions
    /// still resolve in order.
    SpCd,
    /// Speculation, control dependence, and multiple flows:
    /// mispredictions resolve in parallel.
    SpCdMf,
    /// Perfect branch prediction: no control constraints whatsoever. The
    /// upper bound of the study.
    Oracle,
}

impl MachineKind {
    /// All seven machines, in the paper's Table 3 column order.
    pub const ALL: [MachineKind; 7] = [
        MachineKind::Base,
        MachineKind::Cd,
        MachineKind::CdMf,
        MachineKind::Sp,
        MachineKind::SpCd,
        MachineKind::SpCdMf,
        MachineKind::Oracle,
    ];

    /// The paper's name for the machine (`BASE`, `CD`, `CD-MF`, ...).
    pub fn name(self) -> &'static str {
        match self {
            MachineKind::Base => "BASE",
            MachineKind::Cd => "CD",
            MachineKind::CdMf => "CD-MF",
            MachineKind::Sp => "SP",
            MachineKind::SpCd => "SP-CD",
            MachineKind::SpCdMf => "SP-CD-MF",
            MachineKind::Oracle => "ORACLE",
        }
    }

    /// Whether the machine speculates past predicted branches.
    pub fn speculates(self) -> bool {
        matches!(
            self,
            MachineKind::Sp | MachineKind::SpCd | MachineKind::SpCdMf | MachineKind::Oracle
        )
    }

    /// Whether the machine uses control dependence analysis.
    pub fn uses_control_deps(self) -> bool {
        matches!(
            self,
            MachineKind::Cd | MachineKind::CdMf | MachineKind::SpCd | MachineKind::SpCdMf
        )
    }

    /// Whether the machine can follow multiple flows of control.
    pub fn multiple_flows(self) -> bool {
        matches!(
            self,
            MachineKind::CdMf | MachineKind::SpCdMf | MachineKind::Oracle
        )
    }

    /// Machines whose parallelism is *never above* this machine's, for any
    /// trace — the partial order the randomized suite asserts:
    /// `BASE ≤ CD ≤ CD-MF ≤ ORACLE`, `BASE ≤ SP ≤ SP-CD ≤ SP-CD-MF ≤
    /// ORACLE`, `CD ≤ SP-CD`, `CD-MF ≤ SP-CD-MF`.
    pub fn dominates(self) -> &'static [MachineKind] {
        match self {
            MachineKind::Base => &[],
            MachineKind::Cd => &[MachineKind::Base],
            MachineKind::CdMf => &[MachineKind::Cd],
            MachineKind::Sp => &[MachineKind::Base],
            MachineKind::SpCd => &[MachineKind::Sp, MachineKind::Cd],
            MachineKind::SpCdMf => &[MachineKind::SpCd, MachineKind::CdMf],
            MachineKind::Oracle => &[MachineKind::SpCdMf, MachineKind::CdMf],
        }
    }
}

impl fmt::Display for MachineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = MachineKind::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn feature_matrix_matches_paper() {
        use MachineKind::*;
        assert!(!Base.speculates() && !Base.uses_control_deps() && !Base.multiple_flows());
        assert!(Cd.uses_control_deps() && !Cd.multiple_flows() && !Cd.speculates());
        assert!(CdMf.uses_control_deps() && CdMf.multiple_flows());
        assert!(Sp.speculates() && !Sp.uses_control_deps());
        assert!(SpCd.speculates() && SpCd.uses_control_deps() && !SpCd.multiple_flows());
        assert!(SpCdMf.speculates() && SpCdMf.uses_control_deps() && SpCdMf.multiple_flows());
        assert!(Oracle.speculates() && Oracle.multiple_flows());
    }

    #[test]
    fn dominance_is_acyclic_and_rooted_at_base() {
        for machine in MachineKind::ALL {
            let mut seen = vec![machine];
            let mut frontier = machine.dominates().to_vec();
            while let Some(m) = frontier.pop() {
                if !seen.contains(&m) {
                    seen.push(m);
                    frontier.extend_from_slice(m.dominates());
                }
            }
            // Every chain bottoms out at BASE (except BASE itself).
            if machine != MachineKind::Base {
                assert!(seen.contains(&MachineKind::Base), "{machine} chain misses BASE");
            }
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(MachineKind::SpCdMf.to_string(), "SP-CD-MF");
    }
}
