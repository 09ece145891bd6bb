use clfp_isa::Program;
use clfp_predict::{
    AlwaysTaken, Bimodal, BranchPredictor, BranchProfile, Btfn, Gshare, LastValuePredictor,
    ProfilePredictor, StridePredictor, TwoLevel, ValuePredictor,
};

use crate::MachineKind;

/// Which branch predictor drives the speculative machines.
///
/// The paper uses profile-based static prediction with the measurement
/// input (an upper bound for static techniques); the alternatives exist
/// for predictor-sensitivity ablations (`--example predictor_ablation`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PredictorChoice {
    /// Profile-based static majority prediction (the paper's predictor).
    Profile,
    /// Predict every branch taken.
    AlwaysTaken,
    /// Backward taken, forward not taken.
    Btfn,
    /// 2-bit saturating counters indexed by branch address.
    Bimodal {
        /// Table entries (power of two).
        entries: usize,
    },
    /// Gshare: counters indexed by address XOR global history.
    Gshare {
        /// Table entries (power of two).
        entries: usize,
        /// Global history bits (≤ 16).
        history_bits: u32,
    },
    /// Two-level local predictor (PAg): per-branch history registers over
    /// a shared pattern table.
    TwoLevel {
        /// History-register table entries (power of two).
        entries: usize,
        /// Local history bits (≤ 14).
        history_bits: u32,
    },
}

impl PredictorChoice {
    /// Instantiates the predictor for a program and profile.
    pub fn build(
        self,
        program: &Program,
        profile: &BranchProfile,
    ) -> Box<dyn BranchPredictor> {
        match self {
            PredictorChoice::Profile => Box::new(ProfilePredictor::new(profile)),
            PredictorChoice::AlwaysTaken => Box::new(AlwaysTaken),
            PredictorChoice::Btfn => Box::new(Btfn::new(program)),
            PredictorChoice::Bimodal { entries } => Box::new(Bimodal::new(entries)),
            PredictorChoice::Gshare {
                entries,
                history_bits,
            } => Box::new(Gshare::new(entries, history_bits)),
            PredictorChoice::TwoLevel {
                entries,
                history_bits,
            } => Box::new(TwoLevel::new(entries, history_bits)),
        }
    }

    /// Whether the predictor fixes one direction per static branch, so
    /// its answer for a pc never depends on the dynamic instance.
    pub(crate) fn is_static(self) -> bool {
        matches!(
            self,
            PredictorChoice::Profile | PredictorChoice::AlwaysTaken | PredictorChoice::Btfn
        )
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PredictorChoice::Profile => "profile",
            PredictorChoice::AlwaysTaken => "always-taken",
            PredictorChoice::Btfn => "btfn",
            PredictorChoice::Bimodal { .. } => "bimodal",
            PredictorChoice::Gshare { .. } => "gshare",
            PredictorChoice::TwoLevel { .. } => "two-level",
        }
    }
}

/// How the scheduler's last-write memory lookup is keyed — the
/// memory-disambiguation axis.
///
/// The paper assumes *perfect* disambiguation: dependences exist only
/// between accesses to the same dynamic address. `Static` replaces that
/// oracle with what the interprocedural alias analysis
/// (`clfp_cfg::AliasAnalysis`) can prove from the object code: the table
/// is keyed by alias scheduler class, so every may-aliased store acts as
/// a barrier for every load in its region class. `None` models no
/// disambiguation at all: all of memory is one location and every store
/// serializes every later access.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum MemDisambiguation {
    /// Oracle disambiguation by dynamic address (the paper's model).
    #[default]
    Perfect,
    /// Static alias-analysis disambiguation by region class.
    Static,
    /// No disambiguation: memory is a single location.
    None,
}

impl MemDisambiguation {
    /// All modes, in report order.
    pub const ALL: [MemDisambiguation; 3] = [
        MemDisambiguation::Perfect,
        MemDisambiguation::Static,
        MemDisambiguation::None,
    ];

    /// Short name for reports and fingerprints.
    pub fn name(self) -> &'static str {
        match self {
            MemDisambiguation::Perfect => "perfect",
            MemDisambiguation::Static => "static",
            MemDisambiguation::None => "none",
        }
    }

    /// Whether stores fold into the last-write table with `max` instead
    /// of overwriting it, when `Perfect` keys are `granularity_bytes`
    /// wide ([`AnalysisConfig::disambiguation_bytes`]). Only a one-word
    /// key (`Perfect` at 4 bytes) names a single location: the latest
    /// store to it *is* the load's true producer, so overwrite is exact.
    /// Every coarser key (`Static`, `None`, or a `Perfect` block wider
    /// than a word) covers several words, and a later store to a
    /// *different* word under the same key would hide the true
    /// producer's completion time — a machine without the oracle must
    /// hold every load until all earlier may-aliasing stores complete, so
    /// the table tracks their running maximum. This is what makes
    /// `perfect >= static >= none`, and a finer granularity at least as
    /// parallel as a coarser one, pointwise theorems rather than
    /// empirical trends. The lane kernel and the reference pass both read
    /// this one rule.
    pub fn accumulates(self, granularity_bytes: u32) -> bool {
        !matches!(self, MemDisambiguation::Perfect) || granularity_bytes > 4
    }
}

/// The value-speculation axis: whether (and how well) result values are
/// predicted at fetch, breaking true data dependences the way ORACLE
/// breaks control dependences.
///
/// A correctly predicted producer releases its consumers immediately:
/// its completion time is *not* published into the register last-write
/// table (consumers see time 0), while the producer itself still
/// executes on schedule — verification is charged at resolve time, like
/// a mispredicted branch. `Off` is the paper's model (no value
/// speculation) and is bit-identical to a build without this axis.
///
/// The realistic modes nest by construction: the correct set of
/// [`Stride`](ValuePrediction::Stride) (a hybrid last-value + stride
/// predictor, see `clfp_predict::StridePredictor`) contains that of
/// [`LastValue`](ValuePrediction::LastValue), which contains the empty
/// set (`Off`), and [`Perfect`](ValuePrediction::Perfect) predicts every
/// produced value. Since every scheduling fold is a monotone `max`, the
/// parallelism ordering `perfect >= stride >= last-value >= off` is a
/// pointwise theorem — the same construction that makes the
/// [`MemDisambiguation`] axis ordered.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ValuePrediction {
    /// No value speculation (the paper's model).
    #[default]
    Off,
    /// Per-pc last-value prediction.
    LastValue,
    /// Per-pc hybrid last-value + stride prediction.
    Stride,
    /// Oracle: every produced value known at fetch.
    Perfect,
}

impl ValuePrediction {
    /// All modes, weakest to strongest (report order).
    pub const ALL: [ValuePrediction; 4] = [
        ValuePrediction::Off,
        ValuePrediction::LastValue,
        ValuePrediction::Stride,
        ValuePrediction::Perfect,
    ];

    /// Short name for reports and fingerprints.
    pub fn name(self) -> &'static str {
        match self {
            ValuePrediction::Off => "off",
            ValuePrediction::LastValue => "last-value",
            ValuePrediction::Stride => "stride",
            ValuePrediction::Perfect => "perfect",
        }
    }

    /// Instantiates the trained predictor for a program of `text_len`
    /// static instructions. `Off` and `Perfect` need no table (nothing
    /// or everything is predicted) and return `None`.
    pub fn build(self, text_len: usize) -> Option<Box<dyn ValuePredictor>> {
        match self {
            ValuePrediction::Off | ValuePrediction::Perfect => None,
            ValuePrediction::LastValue => Some(Box::new(LastValuePredictor::new(text_len))),
            ValuePrediction::Stride => Some(Box::new(StridePredictor::new(text_len))),
        }
    }
}

/// Configuration for an [`Analyzer`](crate::Analyzer) run.
///
/// Every axis defaults to the paper's setting, so
/// `AnalysisConfig::default()` reproduces the published tables; the
/// builder methods compose to explore one idealization at a time:
///
/// ```
/// use clfp_limits::{
///     AnalysisConfig, Latencies, MachineKind, MemDisambiguation, ValuePrediction,
/// };
///
/// let config = AnalysisConfig::default()
///     .with_max_instrs(500_000)
///     .with_unrolling(false)
///     .with_machines(&[MachineKind::Sp, MachineKind::Oracle])
///     .with_disambiguation(MemDisambiguation::Static)
///     .with_value_prediction(ValuePrediction::Stride)
///     .with_latency(Latencies::realistic());
/// assert_eq!(config.machines.len(), 2);
/// // Every axis is recorded in the provenance fingerprint.
/// assert!(config.fingerprint().contains("value_prediction=stride"));
/// ```
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Maximum dynamic instructions to trace (the paper used 100M; our
    /// workloads converge far earlier).
    pub max_instrs: u64,
    /// Apply perfect loop unrolling (Section 4.2). The paper's headline
    /// Table 3 has it on; Table 4 compares both settings.
    pub unrolling: bool,
    /// Apply perfect inlining. Always on in the paper; exposed for
    /// ablation only.
    pub inlining: bool,
    /// Machines to analyze.
    pub machines: Vec<MachineKind>,
    /// Simulated memory size in words.
    pub mem_words: usize,
    /// Branch predictor for the SP machines.
    pub predictor: PredictorChoice,
    /// Instructions fetchable per cycle; `None` (the paper's setting —
    /// Section 5 explicitly excludes fetch limitations) means unlimited.
    /// With `Some(w)`, dynamic instruction *n* cannot execute before cycle
    /// `n/w + 1`, modeling a finite-bandwidth front end.
    pub fetch_bandwidth: Option<u64>,
    /// Memory-disambiguation granularity in bytes (power of two, ≥ 4).
    /// The paper assumes *perfect* disambiguation = word granularity (4).
    /// Coarser values model imperfect alias analysis: accesses within the
    /// same block conflict, adding false dependences, and a load waits
    /// for every earlier store to its block, not only the latest
    /// ([`MemDisambiguation::accumulates`]).
    pub disambiguation_bytes: u32,
    /// How the last-write table is keyed: by dynamic address (the paper's
    /// perfect oracle), by static alias region class, or not at all.
    /// Orthogonal to `disambiguation_bytes`, which coarsens the *address*
    /// key and is ignored by the other two modes.
    pub disambiguation: MemDisambiguation,
    /// The value-speculation axis: whether predicted result values break
    /// true data dependences. `Off` is the paper's model.
    pub value_prediction: ValuePrediction,
    /// Whether anti (write-after-read) and output (write-after-write)
    /// dependences are removed by renaming. The paper's setting is `true`
    /// ("we have eliminated all the anti-dependences and output
    /// dependences", Section 4.1); `false` enforces them, modeling a
    /// machine without register renaming.
    pub rename: bool,
    /// Operation latencies. The paper uses one cycle for everything
    /// ("since we want to measure the actual parallelism ... we use one
    /// clock cycle latencies", Section 4.4); realistic latencies consume
    /// parallelism to fill pipeline bubbles.
    pub latency: Latencies,
}

/// Per-class operation latencies in cycles.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Latencies {
    /// Loads.
    pub load: u64,
    /// Multiplies, divides, remainders.
    pub mul_div: u64,
    /// Everything else.
    pub other: u64,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            load: 1,
            mul_div: 1,
            other: 1,
        }
    }
}

impl Latencies {
    /// The paper's unit-latency model.
    pub fn unit() -> Latencies {
        Latencies::default()
    }

    /// A plausible early-90s pipeline: 2-cycle loads, 4-cycle
    /// multiply/divide.
    pub fn realistic() -> Latencies {
        Latencies {
            load: 2,
            mul_div: 4,
            other: 1,
        }
    }

    /// Completion latency of `instr` under this model.
    pub(crate) fn of(self, instr: clfp_isa::Instr) -> u64 {
        use clfp_isa::{AluOp, Instr};
        match instr {
            Instr::Lw { .. } => self.load,
            Instr::Alu {
                op: AluOp::Mul | AluOp::Div | AluOp::Rem,
                ..
            }
            | Instr::AluI {
                op: AluOp::Mul | AluOp::Div | AluOp::Rem,
                ..
            } => self.mul_div,
            _ => self.other,
        }
    }
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            max_instrs: 2_000_000,
            unrolling: true,
            inlining: true,
            machines: MachineKind::ALL.to_vec(),
            mem_words: 4 << 20,
            predictor: PredictorChoice::Profile,
            fetch_bandwidth: None,
            disambiguation_bytes: 4,
            disambiguation: MemDisambiguation::Perfect,
            value_prediction: ValuePrediction::Off,
            rename: true,
            latency: Latencies::unit(),
        }
    }
}

impl AnalysisConfig {
    /// A configuration tuned for fast unit tests: small trace cap, small
    /// memory.
    pub fn quick() -> AnalysisConfig {
        AnalysisConfig {
            max_instrs: 200_000,
            mem_words: 1 << 20,
            ..AnalysisConfig::default()
        }
    }

    /// Builder-style: set the trace cap.
    pub fn with_max_instrs(mut self, max_instrs: u64) -> AnalysisConfig {
        self.max_instrs = max_instrs;
        self
    }

    /// Builder-style: toggle perfect unrolling.
    pub fn with_unrolling(mut self, unrolling: bool) -> AnalysisConfig {
        self.unrolling = unrolling;
        self
    }

    /// Builder-style: choose the predictor.
    pub fn with_predictor(mut self, predictor: PredictorChoice) -> AnalysisConfig {
        self.predictor = predictor;
        self
    }

    /// Builder-style: restrict the analyzed machines.
    pub fn with_machines(mut self, machines: &[MachineKind]) -> AnalysisConfig {
        self.machines = machines.to_vec();
        self
    }

    /// Builder-style: impose a fetch-bandwidth limit.
    pub fn with_fetch_bandwidth(mut self, width: u64) -> AnalysisConfig {
        self.fetch_bandwidth = Some(width);
        self
    }

    /// Builder-style: set the memory-disambiguation granularity.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is a power of two ≥ 4.
    pub fn with_disambiguation_bytes(mut self, bytes: u32) -> AnalysisConfig {
        assert!(
            bytes >= 4 && bytes.is_power_of_two(),
            "granularity must be a power of two >= 4"
        );
        self.disambiguation_bytes = bytes;
        self
    }

    /// Builder-style: choose the memory-disambiguation mode.
    pub fn with_disambiguation(mut self, mode: MemDisambiguation) -> AnalysisConfig {
        self.disambiguation = mode;
        self
    }

    /// Builder-style: choose the value-prediction mode.
    pub fn with_value_prediction(mut self, mode: ValuePrediction) -> AnalysisConfig {
        self.value_prediction = mode;
        self
    }

    /// Builder-style: toggle register/memory renaming.
    pub fn with_rename(mut self, rename: bool) -> AnalysisConfig {
        self.rename = rename;
        self
    }

    /// Builder-style: set operation latencies.
    pub fn with_latency(mut self, latency: Latencies) -> AnalysisConfig {
        self.latency = latency;
        self
    }

    /// A canonical, stable rendering of every field that affects analysis
    /// results. `clfp-metrics` hashes it (FNV-1a) into the run manifest's
    /// `config_hash`, which is how `regen` detects that an existing
    /// results file was produced under a different configuration. Any
    /// change to the format string must bump the leading version tag.
    pub fn fingerprint(&self) -> String {
        let machines = self
            .machines
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join("+");
        let predictor = match self.predictor {
            PredictorChoice::Profile => "profile".to_string(),
            PredictorChoice::AlwaysTaken => "always-taken".to_string(),
            PredictorChoice::Btfn => "btfn".to_string(),
            PredictorChoice::Bimodal { entries } => format!("bimodal/{entries}"),
            PredictorChoice::Gshare {
                entries,
                history_bits,
            } => format!("gshare/{entries}/{history_bits}"),
            PredictorChoice::TwoLevel {
                entries,
                history_bits,
            } => format!("two-level/{entries}/{history_bits}"),
        };
        let fetch = match self.fetch_bandwidth {
            None => "unlimited".to_string(),
            Some(width) => width.to_string(),
        };
        format!(
            "clfp-config-v3;max_instrs={};unrolling={};inlining={};machines={};mem_words={};predictor={};fetch={};disambiguation_bytes={};disambiguation={};value_prediction={};rename={};latency={}/{}/{}",
            self.max_instrs,
            self.unrolling,
            self.inlining,
            machines,
            self.mem_words,
            predictor,
            fetch,
            self.disambiguation_bytes,
            self.disambiguation.name(),
            self.value_prediction.name(),
            self.rename,
            self.latency.load,
            self.latency.mul_div,
            self.latency.other,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runs_all_machines() {
        let config = AnalysisConfig::default();
        assert_eq!(config.machines.len(), 7);
        assert!(config.unrolling);
        assert!(config.inlining);
        assert_eq!(config.predictor.name(), "profile");
        assert_eq!(config.value_prediction, ValuePrediction::Off);
    }

    #[test]
    fn value_prediction_modes_build_as_documented() {
        assert_eq!(ValuePrediction::ALL.len(), 4);
        assert!(ValuePrediction::Off.build(16).is_none());
        assert!(ValuePrediction::Perfect.build(16).is_none());
        assert_eq!(
            ValuePrediction::LastValue.build(16).unwrap().name(),
            "last-value"
        );
        assert_eq!(ValuePrediction::Stride.build(16).unwrap().name(), "stride");
    }

    #[test]
    fn fingerprint_separates_configs_and_is_stable() {
        let base = AnalysisConfig::default();
        assert_eq!(base.fingerprint(), AnalysisConfig::default().fingerprint());
        assert!(base.fingerprint().starts_with("clfp-config-v3;"));
        for changed in [
            base.clone().with_max_instrs(1),
            base.clone().with_unrolling(false),
            base.clone().with_machines(&[MachineKind::Sp]),
            base.clone().with_predictor(PredictorChoice::Btfn),
            base.clone().with_fetch_bandwidth(8),
            base.clone().with_disambiguation_bytes(64),
            base.clone().with_disambiguation(MemDisambiguation::Static),
            base.clone().with_disambiguation(MemDisambiguation::None),
            base.clone().with_value_prediction(ValuePrediction::LastValue),
            base.clone().with_value_prediction(ValuePrediction::Stride),
            base.clone().with_value_prediction(ValuePrediction::Perfect),
            base.clone().with_rename(false),
            base.clone().with_latency(Latencies::realistic()),
        ] {
            assert_ne!(base.fingerprint(), changed.fingerprint());
        }
    }

    #[test]
    fn builders_compose() {
        let config = AnalysisConfig::quick()
            .with_max_instrs(123)
            .with_unrolling(false)
            .with_predictor(PredictorChoice::Btfn)
            .with_machines(&[MachineKind::Sp]);
        assert_eq!(config.max_instrs, 123);
        assert!(!config.unrolling);
        assert_eq!(config.machines, vec![MachineKind::Sp]);
        assert_eq!(config.predictor.name(), "btfn");
    }
}
