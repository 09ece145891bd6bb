use clfp_isa::{Instr, Program};

/// One dynamically executed instruction.
///
/// An event identifies the static instruction by index (`pc`); the dynamic
/// facts the limit analyzer needs are the actual memory address of a
/// load/store, the actual outcome of a conditional branch, and the value
/// the instruction wrote to its destination register (the training input
/// for the value-prediction axis). This is the same information `pixie`
/// traces carried in the original study, plus produced values.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Static instruction index into the program's text segment.
    pub pc: u32,
    /// Byte address accessed, valid only for loads and stores.
    pub mem_addr: u32,
    /// Architectural value of the destination register after execution,
    /// valid only for instructions that define a register (0 otherwise).
    pub value: u32,
    /// Branch outcome, valid only for conditional branches.
    pub taken: bool,
}

impl TraceEvent {
    /// Looks up the static instruction this event executed.
    pub fn instr(&self, program: &Program) -> Instr {
        program.text[self.pc as usize]
    }
}

/// A captured instruction trace plus summary statistics.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates a trace from raw events.
    pub fn from_events(events: Vec<TraceEvent>) -> Trace {
        Trace { events }
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The raw events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Computes the instruction-mix summary of this trace.
    pub fn summarize(&self, program: &Program) -> TraceSummary {
        let mut builder = SummaryBuilder::new(program);
        builder.push_chunk(&self.events);
        builder.finish()
    }
}

/// A growable word-granular membership bitmap over memory word indices
/// (`mem_addr >> 2`). Replaces the `HashSet` the summary walk used for
/// `distinct_mem_words`: membership is one shift/mask instead of a hash,
/// and the footprint is one bit per word of the touched address range.
#[derive(Clone, Debug, Default)]
struct WordBitmap {
    bits: Vec<u64>,
    count: u64,
}

impl WordBitmap {
    /// Marks `word` as touched, counting it the first time only.
    #[inline]
    fn insert(&mut self, word: u32) {
        let index = (word / 64) as usize;
        if index >= self.bits.len() {
            self.bits.resize(index + 1, 0);
        }
        let mask = 1u64 << (word % 64);
        if self.bits[index] & mask == 0 {
            self.bits[index] |= mask;
            self.count += 1;
        }
    }
}

/// Incremental [`TraceSummary`] computation that composes per-chunk: feed
/// event chunks in trace order with [`SummaryBuilder::push_chunk`] and
/// [`SummaryBuilder::finish`] at the end. `Trace::summarize` is the
/// whole-trace special case (one chunk), so streaming pipelines get
/// bit-identical summaries without materializing the trace.
#[derive(Clone, Debug)]
pub struct SummaryBuilder<'a> {
    program: &'a Program,
    summary: TraceSummary,
    depth: u64,
    words: WordBitmap,
}

impl<'a> SummaryBuilder<'a> {
    /// Creates an empty builder for a program's trace.
    pub fn new(program: &'a Program) -> SummaryBuilder<'a> {
        SummaryBuilder {
            program,
            summary: TraceSummary::default(),
            depth: 0,
            words: WordBitmap::default(),
        }
    }

    /// Folds one event into the summary.
    #[inline]
    pub fn push(&mut self, event: &TraceEvent) {
        let summary = &mut self.summary;
        summary.total += 1;
        match event.instr(self.program) {
            Instr::Branch { .. } => {
                summary.cond_branches += 1;
                if event.taken {
                    summary.taken_branches += 1;
                }
            }
            Instr::JumpR { .. } => summary.computed_jumps += 1,
            Instr::Jump { .. } => summary.jumps += 1,
            Instr::Call { .. } | Instr::CallR { .. } => {
                summary.calls += 1;
                self.depth += 1;
                summary.max_call_depth = summary.max_call_depth.max(self.depth);
            }
            Instr::Ret => {
                summary.returns += 1;
                self.depth = self.depth.saturating_sub(1);
            }
            Instr::Lw { .. } => {
                summary.loads += 1;
                self.words.insert(event.mem_addr >> 2);
            }
            Instr::Sw { .. } => {
                summary.stores += 1;
                self.words.insert(event.mem_addr >> 2);
            }
            _ => summary.alu += 1,
        }
    }

    /// Folds a chunk of consecutive events into the summary.
    pub fn push_chunk(&mut self, events: &[TraceEvent]) {
        for event in events {
            self.push(event);
        }
    }

    /// The finished summary.
    pub fn finish(self) -> TraceSummary {
        let mut summary = self.summary;
        summary.distinct_mem_words = self.words.count;
        summary
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Trace {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

/// Instruction-mix statistics for a trace (input to the paper's Table 2).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceSummary {
    /// Total dynamic instructions.
    pub total: u64,
    /// Conditional branches executed.
    pub cond_branches: u64,
    /// Conditional branches that were taken.
    pub taken_branches: u64,
    /// Computed jumps executed.
    pub computed_jumps: u64,
    /// Direct unconditional jumps executed.
    pub jumps: u64,
    /// Calls executed (direct and indirect).
    pub calls: u64,
    /// Returns executed.
    pub returns: u64,
    /// Word loads executed.
    pub loads: u64,
    /// Word stores executed.
    pub stores: u64,
    /// All remaining (ALU and immediate) instructions.
    pub alu: u64,
    /// Deepest dynamic call nesting observed (0 for leaf-only traces).
    pub max_call_depth: u64,
    /// Distinct memory words touched by loads and stores — the live
    /// footprint the analyzer's last-write tables must cover.
    pub distinct_mem_words: u64,
}

impl TraceSummary {
    /// Average dynamic instructions between conditional branches — the
    /// right-hand column of the paper's Table 2.
    pub fn instrs_between_branches(&self) -> f64 {
        if self.cond_branches == 0 {
            self.total as f64
        } else {
            self.total as f64 / self.cond_branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clfp_isa::assemble;

    #[test]
    fn summary_counts_classes() {
        let program = assemble(
            r#"
            .text
            main:
                li r8, 1
                beq r8, r0, skip
                lw r9, 0x1000(r0)
                sw r9, 0x1004(r0)
            skip:
                halt
            "#,
        )
        .unwrap();
        let events = vec![
            TraceEvent { pc: 0, mem_addr: 0, value: 0, taken: false },
            TraceEvent { pc: 1, mem_addr: 0, value: 0, taken: false },
            TraceEvent { pc: 2, mem_addr: 0x1000, value: 0, taken: false },
            TraceEvent { pc: 3, mem_addr: 0x1004, value: 0, taken: false },
            TraceEvent { pc: 4, mem_addr: 0, value: 0, taken: false },
        ];
        let trace = Trace::from_events(events);
        let summary = trace.summarize(&program);
        assert_eq!(summary.total, 5);
        assert_eq!(summary.cond_branches, 1);
        assert_eq!(summary.loads, 1);
        assert_eq!(summary.stores, 1);
        assert_eq!(summary.alu, 2); // li + halt both count as "other"
        assert_eq!(summary.max_call_depth, 0);
        assert_eq!(summary.distinct_mem_words, 2); // 0x1000 and 0x1004
    }

    #[test]
    fn summary_tracks_call_depth() {
        let program = assemble(
            r#"
            .text
            main:
                call outer
                halt
            outer:
                call inner
                ret
            inner:
                ret
            "#,
        )
        .unwrap();
        // main -> outer -> inner -> back out.
        let events: Trace = [0u32, 2, 4, 3, 1]
            .into_iter()
            .map(|pc| TraceEvent { pc, mem_addr: 0, value: 0, taken: false })
            .collect();
        let summary = events.summarize(&program);
        assert_eq!(summary.calls, 2);
        assert_eq!(summary.returns, 2);
        assert_eq!(summary.max_call_depth, 2);
        assert_eq!(summary.distinct_mem_words, 0);
    }

    #[test]
    fn instrs_between_branches() {
        let summary = TraceSummary {
            total: 60,
            cond_branches: 10,
            ..TraceSummary::default()
        };
        assert!((summary.instrs_between_branches() - 6.0).abs() < 1e-12);
        let no_branches = TraceSummary {
            total: 42,
            ..TraceSummary::default()
        };
        assert!((no_branches.instrs_between_branches() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn summary_builder_composes_per_chunk() {
        let program = assemble(
            r#"
            .text
            main:
                li r8, 1
                beq r8, r0, skip
                lw r9, 0x1000(r0)
                sw r9, 0x1004(r0)
                call f
            skip:
                halt
            f:
                sw r9, 0x1000(r0)
                ret
            "#,
        )
        .unwrap();
        let events: Vec<TraceEvent> = vec![
            TraceEvent { pc: 0, mem_addr: 0, value: 0, taken: false },
            TraceEvent { pc: 1, mem_addr: 0, value: 0, taken: false },
            TraceEvent { pc: 2, mem_addr: 0x1000, value: 0, taken: false },
            TraceEvent { pc: 3, mem_addr: 0x1004, value: 0, taken: false },
            TraceEvent { pc: 4, mem_addr: 0, value: 0, taken: false },
            TraceEvent { pc: 6, mem_addr: 0x1000, value: 0, taken: false },
            TraceEvent { pc: 7, mem_addr: 0, value: 0, taken: false },
            TraceEvent { pc: 5, mem_addr: 0, value: 0, taken: false },
        ];
        let whole = Trace::from_events(events.clone()).summarize(&program);
        // Every chunking — including sizes that straddle the call and the
        // store revisiting 0x1000 — must produce the identical summary.
        for chunk in [1, 2, 3, 5, events.len()] {
            let mut builder = SummaryBuilder::new(&program);
            for part in events.chunks(chunk) {
                builder.push_chunk(part);
            }
            assert_eq!(builder.finish(), whole, "chunk size {chunk}");
        }
        assert_eq!(whole.distinct_mem_words, 2);
        assert_eq!(whole.max_call_depth, 1);
    }

    #[test]
    fn word_bitmap_counts_first_touch_only() {
        let mut bitmap = WordBitmap::default();
        for word in [0, 63, 64, 65, 0, 64, 1 << 20] {
            bitmap.insert(word);
        }
        assert_eq!(bitmap.count, 5);
    }

    #[test]
    fn trace_collects_from_iterator() {
        let trace: Trace = (0..3)
            .map(|pc| TraceEvent { pc, mem_addr: 0, value: 0, taken: false })
            .collect();
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert_eq!(trace.iter().count(), 3);
    }
}
