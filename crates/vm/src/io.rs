//! Binary trace files.
//!
//! The original study captured `pixie` traces once and analyzed them many
//! times. This module provides the same workflow: [`Trace::save`] writes a
//! compact binary file carrying a fingerprint of the traced program, and
//! [`Trace::load`] replays it — refusing a trace that was captured from a
//! different binary.
//!
//! Format (all little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "CLFPTRC2"
//! 8       8     program fingerprint (Program::fingerprint)
//! 16      8     event count N
//! 24      13*N  events: pc u32, mem_addr u32, value u32, taken u8
//! ```
//!
//! `CLFPTRC1` files (9-byte records, no produced value) predate the
//! value-prediction axis and are rejected as [`TraceFileError::BadMagic`];
//! recapture the trace to upgrade. The file must end exactly after the
//! N-th record: a file that is shorter or longer is
//! [`TraceFileError::Truncated`], so a damaged count field cannot read
//! back as a shorter trace. A record whose pc lies outside the program's
//! text is rejected as [`TraceFileError::BadPc`]; the records carry no
//! checksum, so damage that leaves every pc in range is read back as
//! executed.

use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use clfp_isa::Program;

use crate::{Trace, TraceEvent};

const MAGIC: &[u8; 8] = b"CLFPTRC2";

/// Error loading a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a clfp trace.
    BadMagic,
    /// The trace was captured from a different program.
    FingerprintMismatch {
        /// Fingerprint stored in the file.
        stored: u64,
        /// Fingerprint of the program supplied for replay.
        expected: u64,
    },
    /// The file's length disagrees with the declared event count.
    Truncated,
    /// An event's pc lies outside the program's text segment.
    BadPc {
        /// Index of the event in the trace.
        index: u64,
        /// The out-of-range pc.
        pc: u32,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(err) => write!(f, "trace i/o error: {err}"),
            TraceFileError::BadMagic => write!(f, "not a clfp trace file"),
            TraceFileError::FingerprintMismatch { stored, expected } => write!(
                f,
                "trace was captured from a different program \
                 (stored {stored:#018x}, expected {expected:#018x})"
            ),
            TraceFileError::Truncated => {
                write!(f, "trace file length disagrees with its event count")
            }
            TraceFileError::BadPc { index, pc } => write!(
                f,
                "trace event {index} has pc {pc}, outside the program's text segment"
            ),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(err: io::Error) -> TraceFileError {
        TraceFileError::Io(err)
    }
}

impl Trace {
    /// Writes the trace to `writer` in the binary trace format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, program: &Program, writer: W) -> io::Result<()> {
        let mut out = BufWriter::new(writer);
        out.write_all(MAGIC)?;
        out.write_all(&program.fingerprint().to_le_bytes())?;
        out.write_all(&(self.len() as u64).to_le_bytes())?;
        for event in self.iter() {
            out.write_all(&event.pc.to_le_bytes())?;
            out.write_all(&event.mem_addr.to_le_bytes())?;
            out.write_all(&event.value.to_le_bytes())?;
            out.write_all(&[event.taken as u8])?;
        }
        out.flush()
    }

    /// Reads a trace from `reader`, verifying it belongs to `program`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError`] on I/O failure, wrong magic, fingerprint
    /// mismatch, a length that disagrees with the declared event count,
    /// or an event whose pc lies outside the program's text.
    pub fn read_from<R: Read>(program: &Program, reader: R) -> Result<Trace, TraceFileError> {
        let mut input = BufReader::new(reader);
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic).map_err(|_| TraceFileError::BadMagic)?;
        if &magic != MAGIC {
            return Err(TraceFileError::BadMagic);
        }
        let mut word = [0u8; 8];
        input.read_exact(&mut word)?;
        let stored = u64::from_le_bytes(word);
        let expected = program.fingerprint();
        if stored != expected {
            return Err(TraceFileError::FingerprintMismatch { stored, expected });
        }
        input.read_exact(&mut word)?;
        let count = u64::from_le_bytes(word) as usize;
        let mut events = Vec::with_capacity(count.min(1 << 24));
        let mut record = [0u8; 13];
        for index in 0..count as u64 {
            input
                .read_exact(&mut record)
                .map_err(|_| TraceFileError::Truncated)?;
            let pc = u32::from_le_bytes(record[0..4].try_into().expect("4 bytes"));
            if pc as usize >= program.text.len() {
                return Err(TraceFileError::BadPc { index, pc });
            }
            events.push(TraceEvent {
                pc,
                mem_addr: u32::from_le_bytes(record[4..8].try_into().expect("4 bytes")),
                value: u32::from_le_bytes(record[8..12].try_into().expect("4 bytes")),
                taken: record[12] != 0,
            });
        }
        if input.read(&mut [0u8; 1])? != 0 {
            return Err(TraceFileError::Truncated);
        }
        Ok(Trace::from_events(events))
    }

    /// Saves the trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save<P: AsRef<Path>>(&self, program: &Program, path: P) -> io::Result<()> {
        self.write_to(program, std::fs::File::create(path)?)
    }

    /// Loads a trace from a file, verifying it belongs to `program`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError`] as in [`Trace::read_from`].
    pub fn load<P: AsRef<Path>>(program: &Program, path: P) -> Result<Trace, TraceFileError> {
        Trace::read_from(program, std::fs::File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Vm, VmOptions};
    use clfp_isa::assemble;

    fn sample() -> (Program, Trace) {
        let program = assemble(
            ".text\nmain: li r8, 5\nloop: addi r8, r8, -1\n lw r9, 0x1000(r0)\n bgt r8, r0, loop\n halt",
        )
        .unwrap();
        let mut vm = Vm::new(&program, VmOptions { mem_words: 1 << 12 });
        let trace = vm.trace(10_000).unwrap();
        (program, trace)
    }

    #[test]
    fn roundtrip_preserves_events() {
        let (program, trace) = sample();
        let mut buffer = Vec::new();
        trace.write_to(&program, &mut buffer).unwrap();
        let loaded = Trace::read_from(&program, buffer.as_slice()).unwrap();
        assert_eq!(loaded.events(), trace.events());
    }

    #[test]
    fn rejects_wrong_program() {
        let (program, trace) = sample();
        let other = assemble(".text\nmain: halt").unwrap();
        let mut buffer = Vec::new();
        trace.write_to(&program, &mut buffer).unwrap();
        let err = Trace::read_from(&other, buffer.as_slice()).unwrap_err();
        assert!(matches!(err, TraceFileError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("different program"));
    }

    #[test]
    fn rejects_bad_magic() {
        let (program, _) = sample();
        let err = Trace::read_from(&program, &b"NOTATRACE123456789"[..]).unwrap_err();
        assert!(matches!(err, TraceFileError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let (program, trace) = sample();
        let mut clean = Vec::new();
        trace.write_to(&program, &mut clean).unwrap();
        // A file cut short; a count field lowered by one, which would
        // otherwise read back as a shorter trace; an appended record.
        let cut = clean[..clean.len() - 5].to_vec();
        let mut shortened = clean.clone();
        shortened[16..24].copy_from_slice(&(trace.len() as u64 - 1).to_le_bytes());
        let appended = [&clean[..], &clean[24..37]].concat();
        for bytes in [cut, shortened, appended] {
            let err = Trace::read_from(&program, bytes.as_slice()).unwrap_err();
            assert!(matches!(err, TraceFileError::Truncated), "{err}");
        }
    }

    #[test]
    fn flipped_pc_bits_are_rejected() {
        let (program, trace) = sample();
        let mut clean = Vec::new();
        trace.write_to(&program, &mut clean).unwrap();
        for (index, event) in trace.events().iter().enumerate() {
            for bit in 0..32 {
                let pc = event.pc ^ (1 << bit);
                let mut bytes = clean.clone();
                bytes[24 + 13 * index + bit / 8] ^= 1 << (bit % 8);
                let loaded = Trace::read_from(&program, bytes.as_slice());
                if (pc as usize) < program.text.len() {
                    assert_eq!(loaded.unwrap().events()[index].pc, pc);
                } else {
                    let err = loaded.unwrap_err();
                    let expected = (index as u64, pc);
                    assert!(
                        matches!(err, TraceFileError::BadPc { index, pc } if (index, pc) == expected),
                        "event {index} bit {bit}: {err}"
                    );
                    assert!(err.to_string().contains("outside the program's text"));
                }
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let (program, trace) = sample();
        let dir = std::env::temp_dir().join(format!("clfp-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.trc");
        trace.save(&program, &path).unwrap();
        let loaded = Trace::load(&program, &path).unwrap();
        assert_eq!(loaded.len(), trace.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
