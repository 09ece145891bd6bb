//! # clfp-vm
//!
//! A tracing interpreter for the clfp instruction set — the study's
//! equivalent of tracing MIPS binaries with `pixie`.
//!
//! The original experiment captured dynamic instruction traces (up to 100M
//! instructions) recording, for every executed instruction, its static
//! identity, the actual memory address of any load/store, and the actual
//! outcome of any conditional branch. That is exactly what [`Vm`] produces
//! as a stream of [`TraceEvent`]s: everything the limit analyzer in
//! `clfp-limits` consumes.
//!
//! ## Example
//!
//! ```
//! use clfp_isa::assemble;
//! use clfp_vm::{Vm, VmOptions};
//!
//! let program = assemble(
//!     ".text\nmain: li r8, 3\nloop: addi r8, r8, -1\n bgt r8, r0, loop\n halt",
//! )?;
//! let mut vm = Vm::new(&program, VmOptions::default());
//! let trace = vm.trace(u64::MAX)?;
//! // li + 3 × (addi, bgt) + halt
//! assert_eq!(trace.len(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cache;
mod error;
mod io;
mod memory;
mod source;
mod trace;
#[allow(clippy::module_inception)]
mod vm;

pub use cache::{CacheEntry, TraceCache};
pub use error::VmError;
pub use io::{FileTraceSource, TraceFileError, TRACE_FORMAT_VERSION};
pub use memory::Memory;
pub use source::{ProgramSource, TraceSource};
pub use trace::{Trace, TraceEvent, TraceSummary};
pub use vm::{ExecOutcome, Vm, VmOptions};
