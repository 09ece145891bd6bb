use clfp_isa::{Instr, Program, Reg};

use crate::{Memory, Trace, TraceEvent, VmError};

/// Events [`Vm::trace`] reserves room for up front: the smallest power of
/// two above the study's default 2M-instruction cap (32 MiB of events), so
/// a capped trace fills one allocation instead of copying itself through
/// every doubling. Pages the trace never reaches are never touched.
///
/// Under glibc, freeing a block just under 32 MiB (the default cap's)
/// raises malloc's mmap threshold, so later traces reuse its pages instead
/// of faulting in fresh ones; the heap keeps that memory. On a 2-vCPU
/// x86-64 host a cold `regen --out` peaks about 5 MB higher on one thread
/// and about 20 MB higher on two.
const TRACE_RESERVE_EVENTS: usize = 1 << 21;

/// Configuration for a [`Vm`].
#[derive(Copy, Clone, Debug)]
pub struct VmOptions {
    /// Simulated memory size in words (default 4M words = 16 MiB).
    pub mem_words: usize,
}

impl Default for VmOptions {
    fn default() -> VmOptions {
        VmOptions {
            mem_words: 4 << 20,
        }
    }
}

/// Why execution stopped.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ExecOutcome {
    /// The program executed a `halt` instruction.
    Halted,
    /// The instruction limit was reached first (the study caps traces, as
    /// the original did at 100M instructions).
    LimitReached,
}

/// The tracing interpreter.
///
/// Executes a [`Program`] one instruction at a time, producing a
/// [`TraceEvent`] per executed instruction. Initial state: all registers
/// zero except `sp`, which starts at the top of memory; the data segment is
/// loaded at [`DATA_BASE`](clfp_isa::DATA_BASE).
#[derive(Debug)]
pub struct Vm<'a> {
    program: &'a Program,
    regs: [i32; Reg::COUNT],
    mem: Memory,
    pc: u32,
    halted: bool,
    executed: u64,
}

impl<'a> Vm<'a> {
    /// Creates a VM ready to execute `program` from its entry point.
    pub fn new(program: &'a Program, options: VmOptions) -> Vm<'a> {
        let mem = Memory::new(options.mem_words, program);
        let mut regs = [0i32; Reg::COUNT];
        regs[Reg::SP.index()] = mem.size_bytes() as i32;
        regs[Reg::FP.index()] = mem.size_bytes() as i32;
        Vm {
            program,
            regs,
            mem,
            pc: program.entry,
            halted: false,
            executed: 0,
        }
    }

    /// The current program counter (instruction index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether the VM has executed a `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Reads a register.
    pub fn reg(&self, reg: Reg) -> i32 {
        self.regs[reg.index()]
    }

    /// Writes a register (writes to `r0` are ignored).
    pub fn set_reg(&mut self, reg: Reg, value: i32) {
        if !reg.is_zero() {
            self.regs[reg.index()] = value;
        }
    }

    /// Loads a word from simulated memory, for inspection in tests and
    /// harnesses.
    ///
    /// # Errors
    ///
    /// Propagates alignment and range errors.
    pub fn load_word(&self, addr: u32) -> Result<i32, VmError> {
        self.mem.load(self.pc, addr)
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(None)` if the machine has already halted.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on invalid memory accesses, invalid computed
    /// jump targets, or a program counter outside the text segment.
    pub fn step(&mut self) -> Result<Option<TraceEvent>, VmError> {
        if self.halted {
            return Ok(None);
        }
        self.execute().map(Some)
    }

    /// Executes the instruction at `pc` on a machine that has not halted.
    /// Inlined into every run loop, so the event and the error travel in
    /// registers instead of through an out-of-line call's return slot.
    #[inline(always)]
    fn execute(&mut self) -> Result<TraceEvent, VmError> {
        let pc = self.pc;
        let instr = *self
            .program
            .text
            .get(pc as usize)
            .ok_or(VmError::BadPc { pc })?;

        let mut event = TraceEvent {
            pc,
            mem_addr: 0,
            value: 0,
            taken: false,
        };
        let mut next_pc = pc + 1;

        match instr {
            Instr::Alu { op, rd, rs, rt } => {
                let value = op.eval(self.reg(rs), self.reg(rt));
                self.set_reg(rd, value);
            }
            Instr::AluI { op, rd, rs, imm } => {
                let value = op.eval(self.reg(rs), imm);
                self.set_reg(rd, value);
            }
            Instr::Li { rd, imm } => self.set_reg(rd, imm),
            Instr::CMovN { rd, rs, rt } => {
                if self.reg(rt) != 0 {
                    let value = self.reg(rs);
                    self.set_reg(rd, value);
                }
            }
            Instr::CMovZ { rd, rs, rt } => {
                if self.reg(rt) == 0 {
                    let value = self.reg(rs);
                    self.set_reg(rd, value);
                }
            }
            Instr::Lw { rd, base, offset } => {
                let addr = (self.reg(base)).wrapping_add(offset) as u32;
                event.mem_addr = addr;
                let value = self.mem.load(pc, addr)?;
                self.set_reg(rd, value);
            }
            Instr::Sw { rs, base, offset } => {
                let addr = (self.reg(base)).wrapping_add(offset) as u32;
                event.mem_addr = addr;
                self.mem.store(pc, addr, self.reg(rs))?;
            }
            Instr::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                let taken = cond.eval(self.reg(rs), self.reg(rt));
                event.taken = taken;
                if taken {
                    next_pc = target;
                }
            }
            Instr::Jump { target } => next_pc = target,
            Instr::JumpR { rs } => {
                next_pc = self.checked_target(pc, self.reg(rs))?;
            }
            Instr::Call { target } => {
                self.set_reg(Reg::RA, (pc + 1) as i32);
                next_pc = target;
            }
            Instr::CallR { rs } => {
                let target = self.checked_target(pc, self.reg(rs))?;
                self.set_reg(Reg::RA, (pc + 1) as i32);
                next_pc = target;
            }
            Instr::Ret => {
                next_pc = self.checked_target(pc, self.reg(Reg::RA))?;
            }
            Instr::Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Instr::Nop => {}
        }

        // Record the produced value for value-prediction training: the
        // architectural state of the destination register after this
        // instruction (a cmov that kept the old value "produces" it too;
        // r0 defs read back 0).
        if let Some(rd) = instr.def() {
            event.value = self.reg(rd) as u32;
        }

        self.pc = next_pc;
        self.executed += 1;
        Ok(event)
    }

    fn checked_target(&self, pc: u32, target: i32) -> Result<u32, VmError> {
        if target < 0 || target as usize >= self.program.text.len() {
            Err(VmError::BadJumpTarget { pc, target })
        } else {
            Ok(target as u32)
        }
    }

    /// Runs until `halt` or until `limit` instructions have executed,
    /// passing every event to `sink`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`].
    pub fn run_with<F>(&mut self, limit: u64, mut sink: F) -> Result<ExecOutcome, VmError>
    where
        F: FnMut(TraceEvent),
    {
        let stop_at = self.executed.saturating_add(limit);
        while !self.halted && self.executed < stop_at {
            sink(self.execute()?);
        }
        if self.halted {
            Ok(ExecOutcome::Halted)
        } else {
            Ok(ExecOutcome::LimitReached)
        }
    }

    /// Runs to completion (or `limit`), discarding events.
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`].
    pub fn run(&mut self, limit: u64) -> Result<ExecOutcome, VmError> {
        self.run_with(limit, |_| {})
    }

    /// Runs to completion (or `limit`), capturing the full trace.
    ///
    /// The event vector is reserved once, for `limit` events up to 2^21;
    /// only a longer trace grows it.
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`].
    pub fn trace(&mut self, limit: u64) -> Result<Trace, VmError> {
        let span = clfp_metrics::trace::span("vm.trace", "vm").arg("limit", limit);
        let mut events = Vec::with_capacity(limit.min(TRACE_RESERVE_EVENTS as u64) as usize);
        self.run_with(limit, |event| events.push(event))?;
        drop(span.arg("events", events.len()));
        Ok(Trace::from_events(events))
    }

    /// Runs to completion (or `limit`), delivering the trace as fixed-size
    /// chunks instead of one materialized vector: every chunk except
    /// possibly the last holds exactly `chunk_events` events, in trace
    /// order. Concatenating the chunks reproduces [`Vm::trace`] exactly,
    /// with memory bounded by one chunk — the streaming producer behind
    /// [`TraceSource`](crate::TraceSource).
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`].
    ///
    /// # Panics
    ///
    /// Panics if `chunk_events` is zero.
    pub fn trace_chunks<F>(
        &mut self,
        limit: u64,
        chunk_events: usize,
        mut sink: F,
    ) -> Result<ExecOutcome, VmError>
    where
        F: FnMut(&[TraceEvent]),
    {
        assert!(chunk_events > 0, "chunk size must be non-zero");
        let mut buf: Vec<TraceEvent> = Vec::with_capacity(chunk_events);
        let outcome = self.run_with(limit, |event| {
            buf.push(event);
            if buf.len() == chunk_events {
                sink(&buf);
                buf.clear();
            }
        })?;
        if !buf.is_empty() {
            sink(&buf);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clfp_isa::{assemble, DATA_BASE};

    fn exec(source: &str) -> (Program, Trace, Vec<i32>) {
        let program = assemble(source).unwrap();
        let mut vm = Vm::new(&program, VmOptions { mem_words: 1 << 16 });
        let trace = vm.trace(1_000_000).unwrap();
        let regs: Vec<i32> = Reg::all().map(|r| vm.reg(r)).collect();
        (program, trace, regs)
    }

    #[test]
    fn arithmetic_and_branches() {
        let (_, trace, regs) = exec(
            r#"
            .text
            main:
                li r8, 0
                li r9, 5
            loop:
                add r8, r8, r9
                addi r9, r9, -1
                bgt r9, r0, loop
                halt
            "#,
        );
        // 5 + 4 + 3 + 2 + 1 = 15
        assert_eq!(regs[8], 15);
        assert_eq!(trace.len(), 2 + 5 * 3 + 1);
    }

    #[test]
    fn loads_and_stores() {
        let (_, trace, regs) = exec(
            r#"
            .data
            x: .word 21
            y: .word 0
            .text
            main:
                li r8, x
                lw r9, 0(r8)
                add r9, r9, r9
                sw r9, 4(r8)
                lw r10, 4(r8)
                halt
            "#,
        );
        assert_eq!(regs[10], 42);
        let load_event = trace.events()[1];
        assert_eq!(load_event.mem_addr, DATA_BASE);
    }

    #[test]
    fn call_and_return() {
        let (_, _, regs) = exec(
            r#"
            .text
            main:
                li a0, 7
                call double
                mv r8, v0
                halt
            double:
                add v0, a0, a0
                ret
            "#,
        );
        assert_eq!(regs[8], 14);
    }

    #[test]
    fn recursion_via_stack() {
        // Computes factorial(5) recursively, spilling ra and a0.
        let (_, _, regs) = exec(
            r#"
            .text
            main:
                li a0, 5
                call fact
                mv r8, v0
                halt
            fact:
                addi sp, sp, -8
                sw ra, 0(sp)
                sw a0, 4(sp)
                li v0, 1
                ble a0, r0, base
                addi a0, a0, -1
                call fact
                lw a0, 4(sp)
                mul v0, v0, a0
            base:
                lw ra, 0(sp)
                addi sp, sp, 8
                ret
            "#,
        );
        assert_eq!(regs[8], 120);
    }

    #[test]
    fn computed_jump() {
        let (_, _, regs) = exec(
            r#"
            .text
            main:
                li r8, target
                jr r8
                li r9, 1
            target:
                li r9, 2
                halt
            "#,
        );
        assert_eq!(regs[9], 2);
    }

    #[test]
    fn branch_events_record_outcome() {
        let (program, trace, _) = exec(
            ".text\nmain: li r8, 1\n beq r8, r0, skip\n nop\nskip: halt",
        );
        let branch = trace
            .iter()
            .find(|e| e.instr(&program).is_cond_branch())
            .unwrap();
        assert!(!branch.taken);
    }

    #[test]
    fn limit_reached() {
        let program = assemble(".text\nmain: j main").unwrap();
        let mut vm = Vm::new(&program, VmOptions { mem_words: 1 << 12 });
        assert_eq!(vm.run(100).unwrap(), ExecOutcome::LimitReached);
        assert_eq!(vm.executed(), 100);
        assert!(!vm.halted());
    }

    #[test]
    fn trace_stops_at_its_limit() {
        let program = assemble(
            ".text\nmain: li r8, 6\nloop: addi r8, r8, -1\n sw r8, 0x1000(r0)\n bgt r8, r0, loop\n halt",
        )
        .unwrap();
        let options = VmOptions { mem_words: 1 << 12 };
        let full = Vm::new(&program, options).trace(u64::MAX).unwrap();
        let natural = full.len() as u64;
        for limit in [0, 1, natural - 1, natural, u64::MAX] {
            let mut traced = Vm::new(&program, options);
            let trace = traced.trace(limit).unwrap();
            let kept = limit.min(natural) as usize;
            assert_eq!(trace.events(), &full.events()[..kept], "limit {limit}");
            let mut ran = Vm::new(&program, options);
            ran.run(limit).unwrap();
            assert_eq!(traced.executed(), ran.executed(), "limit {limit}");
            assert_eq!(traced.halted(), ran.halted(), "limit {limit}");
        }
    }

    #[test]
    fn halted_is_sticky() {
        let program = assemble(".text\nmain: halt").unwrap();
        let mut vm = Vm::new(&program, VmOptions { mem_words: 1 << 12 });
        assert_eq!(vm.run(10).unwrap(), ExecOutcome::Halted);
        assert!(vm.halted());
        assert_eq!(vm.step().unwrap(), None);
    }

    #[test]
    fn bad_computed_jump_reports_error() {
        let program = assemble(".text\nmain: li r8, -3\n jr r8").unwrap();
        let mut vm = Vm::new(&program, VmOptions { mem_words: 1 << 12 });
        let err = vm.run(10).unwrap_err();
        assert_eq!(err, VmError::BadJumpTarget { pc: 1, target: -3 });
    }

    #[test]
    fn cmov_guards() {
        let (_, _, regs) = exec(
            r#"
            .text
            main:
                li r8, 11
                li r9, 22
                li r10, 1          # guard true
                li r11, 0          # guard false
                li r12, 100
                li r13, 100
                cmovn r12, r8, r10 # taken: r12 = 11
                cmovn r13, r8, r11 # not taken: r13 stays 100
                li r14, 100
                li r15, 100
                cmovz r14, r9, r11 # taken: r14 = 22
                cmovz r15, r9, r10 # not taken: r15 stays 100
                halt
            "#,
        );
        assert_eq!(regs[12], 11);
        assert_eq!(regs[13], 100);
        assert_eq!(regs[14], 22);
        assert_eq!(regs[15], 100);
    }

    #[test]
    fn cmov_to_zero_register_is_noop() {
        let (_, _, regs) = exec(
            ".text\nmain: li r8, 5\n li r9, 1\n cmovn r0, r8, r9\n halt",
        );
        assert_eq!(regs[0], 0);
    }

    #[test]
    fn zero_register_is_immutable() {
        let (_, _, regs) = exec(".text\nmain: addi r0, r0, 7\n halt");
        assert_eq!(regs[0], 0);
    }

    #[test]
    fn sp_starts_at_top_of_memory() {
        let program = assemble(".text\nmain: halt").unwrap();
        let vm = Vm::new(&program, VmOptions { mem_words: 1 << 12 });
        assert_eq!(vm.reg(Reg::SP), (1 << 12) * 4);
    }
}
