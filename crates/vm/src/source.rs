//! Streaming trace sources.
//!
//! The materialize-then-analyze pipeline (`Vm::trace` → `Vec<TraceEvent>`
//! → analyzer) hits a memory wall long before the paper's 100M-instruction
//! traces: 16 bytes per [`TraceEvent`] plus the analyzer's per-event
//! metadata. A [`TraceSource`] instead delivers the event sequence as
//! fixed-size chunks, so a consumer's trace-side memory is O(chunk), and
//! — because the VM is deterministic — the same source can be streamed
//! repeatedly, producing the identical sequence every time. That
//! determinism is what lets the analyzer run two passes (profile, then
//! schedule) without ever holding the trace.
//!
//! Implementations:
//!
//! * [`Trace`] — an already-captured trace streams its slice in chunks
//!   (the in-memory path expressed as the degenerate source);
//! * [`ProgramSource`] — a deterministic execution replayed from a fresh
//!   [`Vm`] on every [`TraceSource::stream`] call, optionally
//!   [`repeated`](ProgramSource::repeated) back-to-back to synthesize
//!   paper-length streams from workloads that halt earlier.

use clfp_isa::Program;

use crate::{Trace, TraceEvent, Vm, VmError, VmOptions};

/// A deterministic, replayable producer of a trace-event sequence.
///
/// Every call to [`TraceSource::stream`] must deliver the *identical*
/// event sequence, in order, as chunks of at most `chunk_events` events
/// where every chunk except possibly the last is exactly `chunk_events`
/// long. Consumers rely on replay determinism to make multiple passes
/// (e.g. branch profiling, then scheduling) without materializing events.
pub trait TraceSource {
    /// Streams the event sequence into `sink`, chunk by chunk.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from producing the events.
    fn stream(
        &self,
        chunk_events: usize,
        sink: &mut dyn FnMut(&[TraceEvent]),
    ) -> Result<(), VmError>;

    /// The exact total event count, when known without executing.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

impl TraceSource for Trace {
    fn stream(
        &self,
        chunk_events: usize,
        sink: &mut dyn FnMut(&[TraceEvent]),
    ) -> Result<(), VmError> {
        assert!(chunk_events > 0, "chunk size must be non-zero");
        for chunk in self.events().chunks(chunk_events) {
            sink(chunk);
        }
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.len() as u64)
    }
}

/// A [`TraceSource`] that replays a program's deterministic execution from
/// a fresh [`Vm`] on every stream call, capped at `limit` events — the
/// streaming equivalent of `Vm::trace(limit)` with O(chunk) memory.
///
/// With [`ProgramSource::repeated`], a program that halts before `limit`
/// is re-executed back-to-back until exactly `limit` events have been
/// delivered. Our workloads converge well before 100M instructions; the
/// scaling benchmark uses repetition to measure genuine paper-length
/// streams through the full pipeline (the analyzer is honest about this —
/// repeated execution measures throughput and memory, not new program
/// behavior).
#[derive(Copy, Clone, Debug)]
pub struct ProgramSource<'a> {
    program: &'a Program,
    options: VmOptions,
    limit: u64,
    repeat: bool,
}

impl<'a> ProgramSource<'a> {
    /// A source replaying one execution of `program`, capped at `limit`
    /// events.
    pub fn new(program: &'a Program, options: VmOptions, limit: u64) -> ProgramSource<'a> {
        ProgramSource {
            program,
            options,
            limit,
            repeat: false,
        }
    }

    /// Re-executes the program back-to-back until exactly `limit` events
    /// have been streamed (a program that produces no events at all ends
    /// the stream instead of spinning).
    pub fn repeated(mut self) -> ProgramSource<'a> {
        self.repeat = true;
        self
    }
}

impl TraceSource for ProgramSource<'_> {
    fn stream(
        &self,
        chunk_events: usize,
        sink: &mut dyn FnMut(&[TraceEvent]),
    ) -> Result<(), VmError> {
        assert!(chunk_events > 0, "chunk size must be non-zero");
        if !self.repeat {
            let mut vm = Vm::new(self.program, self.options);
            vm.trace_chunks(self.limit, chunk_events, |chunk| sink(chunk))?;
            return Ok(());
        }
        // Repetition: carry the partial chunk across VM restarts so chunk
        // boundaries stay exact regardless of where executions end.
        let mut buf: Vec<TraceEvent> = Vec::with_capacity(chunk_events);
        let mut remaining = self.limit;
        while remaining > 0 {
            let mut vm = Vm::new(self.program, self.options);
            vm.run_with(remaining, |event| {
                buf.push(event);
                if buf.len() == chunk_events {
                    sink(&buf);
                    buf.clear();
                }
            })?;
            if vm.executed() == 0 {
                break;
            }
            remaining -= vm.executed();
        }
        if !buf.is_empty() {
            sink(&buf);
        }
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        // Exact only when repeating (and the program makes progress); a
        // single execution may halt before the cap.
        self.repeat.then_some(self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clfp_isa::assemble;

    const LOOP: &str =
        ".text\nmain: li r8, 5\nloop: addi r8, r8, -1\n call f\n bgt r8, r0, loop\n halt\nf: ret";

    fn collect(source: &impl TraceSource, chunk: usize) -> (Vec<TraceEvent>, Vec<usize>) {
        let mut events = Vec::new();
        let mut sizes = Vec::new();
        source
            .stream(chunk, &mut |part: &[TraceEvent]| {
                events.extend_from_slice(part);
                sizes.push(part.len());
            })
            .unwrap();
        (events, sizes)
    }

    #[test]
    fn trace_chunks_concatenate_to_trace() {
        let program = assemble(LOOP).unwrap();
        let options = VmOptions { mem_words: 1 << 12 };
        let trace = Vm::new(&program, options).trace(1_000_000).unwrap();
        assert!(!trace.len().is_multiple_of(7), "want a boundary-straddling size");
        for chunk in [1, 7, 4096] {
            let mut vm = Vm::new(&program, options);
            let mut events = Vec::new();
            let mut sizes = Vec::new();
            vm.trace_chunks(1_000_000, chunk, |part| {
                events.extend_from_slice(part);
                sizes.push(part.len());
            })
            .unwrap();
            assert_eq!(events, trace.events(), "chunk {chunk}");
            // Every chunk but the last is full.
            for &size in &sizes[..sizes.len() - 1] {
                assert_eq!(size, chunk);
            }
            assert!(*sizes.last().unwrap() <= chunk);
        }
    }

    #[test]
    fn program_source_matches_vm_trace() {
        let program = assemble(LOOP).unwrap();
        let options = VmOptions { mem_words: 1 << 12 };
        let trace = Vm::new(&program, options).trace(1_000_000).unwrap();
        let source = ProgramSource::new(&program, options, 1_000_000);
        for chunk in [1, 3, 1024] {
            let (events, _) = collect(&source, chunk);
            assert_eq!(events, trace.events(), "chunk {chunk}");
        }
        // Replays are identical.
        assert_eq!(collect(&source, 5).0, collect(&source, 5).0);
    }

    #[test]
    fn trace_is_its_own_source() {
        let program = assemble(LOOP).unwrap();
        let options = VmOptions { mem_words: 1 << 12 };
        let trace = Vm::new(&program, options).trace(1_000_000).unwrap();
        let (events, sizes) = collect(&trace, 7);
        assert_eq!(events, trace.events());
        assert_eq!(sizes.iter().sum::<usize>(), trace.len());
        assert_eq!(trace.len_hint(), Some(trace.len() as u64));
    }

    #[test]
    fn repeated_source_replays_to_exact_limit() {
        let program = assemble(LOOP).unwrap();
        let options = VmOptions { mem_words: 1 << 12 };
        let one_run = Vm::new(&program, options).trace(1_000_000).unwrap();
        let limit = one_run.len() as u64 * 2 + 5;
        let source = ProgramSource::new(&program, options, limit).repeated();
        assert_eq!(source.len_hint(), Some(limit));
        let (events, _) = collect(&source, 16);
        assert_eq!(events.len() as u64, limit);
        // The stream is the one-run sequence tiled back-to-back.
        for (i, event) in events.iter().enumerate() {
            assert_eq!(*event, one_run.events()[i % one_run.len()], "event {i}");
        }
    }

    #[test]
    fn repeated_source_with_limit_under_one_run() {
        let program = assemble(LOOP).unwrap();
        let options = VmOptions { mem_words: 1 << 12 };
        let source = ProgramSource::new(&program, options, 4).repeated();
        let (events, _) = collect(&source, 16);
        assert_eq!(events.len(), 4);
    }
}
