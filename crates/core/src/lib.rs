//! # clfp-limits
//!
//! The paper's primary contribution: a trace-driven analyzer computing the
//! **limits of parallelism under control-flow constraints** for seven
//! abstract machine models (Lam & Wilson, *Limits of Control Flow on
//! Parallelism*, ISCA 1992, Section 3):
//!
//! | machine | speculation | control dependence | multiple flows |
//! |---------|-------------|--------------------|----------------|
//! | [`MachineKind::Base`]   | — | — | — |
//! | [`MachineKind::Cd`]     | — | ✓ | — (branches totally ordered) |
//! | [`MachineKind::CdMf`]   | — | ✓ | ✓ |
//! | [`MachineKind::Sp`]     | ✓ | — | — (mispredictions ordered) |
//! | [`MachineKind::SpCd`]   | ✓ | ✓ | — (mispredictions ordered) |
//! | [`MachineKind::SpCdMf`] | ✓ | ✓ | ✓ |
//! | [`MachineKind::Oracle`] | perfect prediction | — | — |
//!
//! Every machine enforces only **true data dependences** (registers and
//! perfectly disambiguated word-granular memory via a last-write table,
//! Section 4.1) plus its own control-flow rule (Figure 1), under unit
//! latencies and an unlimited scheduling window. Perfect inlining is
//! always applied; perfect unrolling is configurable (Section 4.2 /
//! Table 4). Parallelism is sequential instruction count divided by the
//! critical-path length.
//!
//! ## One kernel, one oracle
//!
//! Every schedule the crate reports comes from one scheduling kernel: the
//! lane kernel walks the pre-decoded event stream once and schedules
//! every requested machine × unroll slot in parallel lanes, in memory
//! ([`PreparedTrace::report_both`]) or chunk by chunk
//! ([`Analyzer::run_streamed`], which [`Analyzer::run`] is), through one
//! lane driver. Every pipeline is pinned bit for bit
//! against one independent oracle, [`Analyzer::run_on_trace_reference`]:
//! the paper's one-machine-at-a-time pass, which shares no scheduling
//! code with the kernel.
//!
//! The kernel is generic over the `clfp-metrics` sink:
//! [`PreparedTrace::machine_metrics`] re-runs the machines in one walk of
//! recording groups, one collector per lane, to produce cycle-occupancy
//! histograms and critical-path attribution (re-exported here as
//! [`MachineMetrics`]); a recording group carries each chain's hop counts
//! forward beside the times it stores, so nothing is kept per event. The
//! throughput paths use the statically-eliminated null sink and pay
//! nothing for the instrumentation.
//!
//! ## Example
//!
//! ```
//! use clfp_lang::compile;
//! use clfp_limits::{AnalysisConfig, Analyzer, MachineKind};
//!
//! let program = compile(
//!     "fn main() -> int {
//!          var s: int = 0;
//!          for (var i: int = 0; i < 100; i = i + 1) {
//!              if (i % 3 == 0) { s = s + i; }
//!          }
//!          return s;
//!      }",
//! )?;
//! let report = Analyzer::new(&program, AnalysisConfig::default())?.run()?;
//! // The machine hierarchy must hold.
//! assert!(report.parallelism(MachineKind::Base) <= report.parallelism(MachineKind::Cd));
//! assert!(report.parallelism(MachineKind::SpCdMf) <= report.parallelism(MachineKind::Oracle));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod analyzer;
mod config;
mod error;
mod lane;
mod lastwrite;
mod machine;
mod meta;
mod pass;
mod stats;
mod stream;

pub use analyzer::{Analyzer, CdSource, MachineResult, PreparedTrace, Report};
pub use clfp_metrics::{
    json, CriticalPathAttribution, EdgeKind, FlowCounters, MachineMetrics, OccupancyHistogram,
};
pub use config::{AnalysisConfig, Latencies, MemDisambiguation, PredictorChoice, ValuePrediction};
pub use error::AnalyzeError;
pub use lane::kernel_isa;
pub use lastwrite::LastWriteTable;
pub use machine::MachineKind;
pub use stats::{harmonic_mean, BranchReport, MispredictionStats};
pub use stream::{StreamOptions, StreamedReports};
