//! # clfp-cfg
//!
//! Static analyses on clfp object code, reproducing Section 4 of Lam &
//! Wilson (ISCA 1992):
//!
//! * **Control-flow graphs** recovered from the binary ([`Cfg`]): basic
//!   blocks, successor edges, and a partition of blocks into procedures
//!   (the paper used `pixie` block boundaries plus object-code decoding).
//! * **Dominators and postdominators** via the Cooper–Harvey–Kennedy
//!   iterative algorithm ([`dom`]).
//! * **Control dependence** as the reverse dominance frontier of each basic
//!   block ([`ControlDeps`]), the paper's citation \[3\] (Cytron et al.).
//! * **Natural loops** found from dominator back edges ([`loops`]).
//! * **Induction-variable analysis** ([`induction`]): registers incremented
//!   by a constant exactly once per loop iteration, the comparisons of such
//!   registers against loop invariants, and the branches on those
//!   comparisons — the instructions deleted by the study's *perfect loop
//!   unrolling*.
//! * **Ignore masks** ([`IgnoreMasks`]): the per-instruction sets removed
//!   from traces by perfect inlining (calls, returns, stack-pointer
//!   arithmetic) and by perfect unrolling.
//! * **Iterative dataflow** ([`dataflow`]): a generic gen/kill worklist
//!   solver with bitset lattices, plus reaching definitions, register
//!   liveness, and maybe-uninitialized-read client analyses used by the
//!   `clfp-verify` lint pass.
//! * **Interprocedural alias analysis** ([`alias`]): whole-program call
//!   graph, abstract-region partition of the address space, Andersen-style
//!   points-to solved per procedure in rounds, and the per-access
//!   alias classification behind the `Static` memory-disambiguation mode.
//!
//! ## Example
//!
//! ```
//! use clfp_isa::assemble;
//! use clfp_cfg::{Cfg, ControlDeps};
//!
//! let program = assemble(
//!     ".text\nmain: li r8, 10\nloop: addi r8, r8, -1\n bgt r8, r0, loop\n halt",
//! )?;
//! let cfg = Cfg::build(&program);
//! assert_eq!(cfg.blocks().len(), 3);
//! let deps = ControlDeps::compute(&cfg);
//! // The loop body is control dependent on the loop branch (pc 2).
//! let body = cfg.block_of_instr(1);
//! assert_eq!(deps.rdf_branches(body), &[2]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod alias;
mod controldep;
pub mod dataflow;
pub mod dom;
mod graph;
pub mod induction;
pub mod loops;
mod mask;

pub use alias::{AliasAnalysis, AliasKind, CallGraph, MemAccess, RegionUniverse};
pub use controldep::{CdViolation, CdViolationReason, ControlDeps};
pub use dataflow::{BitSet, DefSite, Liveness, MaybeUninit, ReachingDefs, UninitRead};
pub use graph::{Block, BlockId, Cfg, Proc, ProcId};
pub use induction::InductionInfo;
pub use loops::{Loop, LoopForest};
pub use mask::{IgnoreMasks, StaticInfo};
