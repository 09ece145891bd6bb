use std::fmt;
use std::io;

/// Error raised by the interpreter, or by a trace source replaying its
/// events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VmError {
    /// The program counter left the text segment.
    BadPc {
        /// The offending instruction index.
        pc: u32,
    },
    /// A load or store touched an address outside the simulated memory.
    OutOfRange {
        /// Instruction index performing the access.
        pc: u32,
        /// Offending byte address.
        addr: u32,
    },
    /// A load or store used an address that is not word-aligned.
    Unaligned {
        /// Instruction index performing the access.
        pc: u32,
        /// Offending byte address.
        addr: u32,
    },
    /// A computed jump or indirect call targeted a negative or out-of-range
    /// instruction index.
    BadJumpTarget {
        /// Instruction index of the jump.
        pc: u32,
        /// The register value used as target.
        target: i32,
    },
    /// A trace source could not read its events back: a cache file
    /// removed or shortened after it was looked up, for instance.
    TraceRead {
        /// The kind of I/O error the read failed with.
        kind: io::ErrorKind,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VmError::BadPc { pc } => write!(f, "program counter {pc} outside text segment"),
            VmError::OutOfRange { pc, addr } => {
                write!(f, "memory access at {addr:#x} out of range (pc {pc})")
            }
            VmError::Unaligned { pc, addr } => {
                write!(f, "unaligned memory access at {addr:#x} (pc {pc})")
            }
            VmError::BadJumpTarget { pc, target } => {
                write!(f, "computed jump to invalid target {target} (pc {pc})")
            }
            VmError::TraceRead { kind } => write!(f, "cannot read the trace back ({kind})"),
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(VmError::BadPc { pc: 9 }.to_string().contains("9"));
        assert!(VmError::OutOfRange { pc: 1, addr: 0xffff_0000 }
            .to_string()
            .contains("out of range"));
        assert!(VmError::Unaligned { pc: 1, addr: 3 }
            .to_string()
            .contains("unaligned"));
        assert!(VmError::BadJumpTarget { pc: 1, target: -2 }
            .to_string()
            .contains("-2"));
        let read = VmError::TraceRead {
            kind: io::ErrorKind::NotFound,
        };
        assert!(read.to_string().contains("not found"));
    }
}
