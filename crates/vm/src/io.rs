//! Trace files: the one on-disk format for captured traces.
//!
//! The original study captured `pixie` traces once and analyzed them many
//! times. Trace files serve that workflow in two places: [`Trace::save`]
//! writes one for `clfp trace`, and the [`TraceCache`](crate::TraceCache)
//! keeps one per program and instruction budget. Every file is opened by
//! [`FileTraceSource::open`], which refuses a file captured from a
//! different binary, and is then either streamed ([`FileTraceSource`] is a
//! [`TraceSource`]) or read whole ([`FileTraceSource::load_trace`],
//! [`Trace::load`]).
//!
//! Format (all little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "CLFPCCH1"
//! 8       4     trace format version (TRACE_FORMAT_VERSION)
//! 12      8     program fingerprint (Program::fingerprint)
//! 20      8     instruction budget the trace was captured under
//! 28      8     event count N
//! 36      8     FNV-1a hash of bytes 0..36
//! 44      13*N  events: pc u32, mem_addr u32, value u32, taken u8
//! ```
//!
//! [`Trace::save`] records the trace's own length as its budget, a budget
//! under which the VM reproduces it. Opening checks the magic, the header
//! hash, the version, the fingerprint against the program in hand, and
//! that the file ends exactly after the N-th record; each failure is its
//! own [`TraceFileError`]. The hash covers the count field and the length
//! check covers the records, so no damage reads back as a shorter trace.
//! `.trc` files of the earlier CLFPTRC2 layout (a 24-byte header) are
//! rejected as [`TraceFileError::BadMagic`]; recapture them with
//! `clfp trace`.
//!
//! The records carry no checksum: hashing the payload would slow the load
//! that makes the cache worth having. A record whose pc lies outside the
//! program's text is rejected as [`TraceFileError::BadPc`] (the damage
//! that would otherwise panic the analyzer), but a flipped bit that leaves
//! a record well-formed (an address, a value, a branch outcome, or a pc
//! moved to another valid instruction) is read back as executed.
//!
//! The writer encodes 4096 records into one buffer per `write_all`. A
//! reader fills a block with one `read_exact`, decodes it while folding a
//! running pc maximum, and compares that maximum with the text length once
//! per block. Only a block that fails is scanned again, to name its first
//! out-of-range record.

use std::fmt;
use std::fs;
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use clfp_isa::Program;

use crate::{Trace, TraceEvent, TraceSource, VmError};

const MAGIC: &[u8; 8] = b"CLFPCCH1";
pub(crate) const HEADER_LEN: usize = 44;

/// Version of the 13-byte record layout. Part of the trace cache's key:
/// bumping it invalidates every cached trace, which is exactly what a
/// record-format change requires.
pub const TRACE_FORMAT_VERSION: u32 = 2;

/// Bytes per event record: pc u32, mem_addr u32, value u32, taken u8.
pub(crate) const RECORD_LEN: usize = 13;

/// Records per block where the codec picks the block size (the writer and
/// the whole-trace reader): 52 KiB of bytes per system call.
const BLOCK_EVENTS: usize = 4096;

/// FNV-1a over raw bytes — the same construction as
/// [`Program::fingerprint`], applied to the header so that a partial write
/// or bit flip in its fields is detected before any record is trusted.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Writes a trace file of `program` captured under `max_instrs`: the
/// header, then `events` as consecutive records, one `write_all` per
/// block. The one writer of the format.
pub(crate) fn write_file<W: Write>(
    out: &mut W,
    program: &Program,
    max_instrs: u64,
    events: &[TraceEvent],
) -> io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(MAGIC);
    header[8..12].copy_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&program.fingerprint().to_le_bytes());
    header[20..28].copy_from_slice(&max_instrs.to_le_bytes());
    header[28..36].copy_from_slice(&(events.len() as u64).to_le_bytes());
    let hash = fnv1a(&header[0..36]);
    header[36..44].copy_from_slice(&hash.to_le_bytes());
    out.write_all(&header)?;
    let mut bytes = vec![0u8; events.len().min(BLOCK_EVENTS) * RECORD_LEN];
    for block in events.chunks(BLOCK_EVENTS) {
        let raw = &mut bytes[..block.len() * RECORD_LEN];
        for (record, event) in raw.chunks_exact_mut(RECORD_LEN).zip(block) {
            record[0..4].copy_from_slice(&event.pc.to_le_bytes());
            record[4..8].copy_from_slice(&event.mem_addr.to_le_bytes());
            record[8..12].copy_from_slice(&event.value.to_le_bytes());
            record[12] = event.taken as u8;
        }
        out.write_all(raw)?;
    }
    Ok(())
}

/// The fields of a header whose magic and hash checked out.
pub(crate) struct Header {
    pub(crate) version: u32,
    pub(crate) fingerprint: u64,
    pub(crate) max_instrs: u64,
    pub(crate) events: u64,
}

/// Reads and decodes a header — the one decoder of the layout
/// [`write_file`] writes. A short read or a wrong magic is
/// [`TraceFileError::BadMagic`], a hash that does not match
/// [`TraceFileError::BadHeader`]; the version, key and count are returned
/// unchecked.
pub(crate) fn read_header(reader: &mut impl Read) -> Result<Header, TraceFileError> {
    let mut header = [0u8; HEADER_LEN];
    if reader.read_exact(&mut header).is_err() || &header[0..8] != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let u64_at = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    if u64_at(36) != fnv1a(&header[0..36]) {
        return Err(TraceFileError::BadHeader);
    }
    Ok(Header {
        version: u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")),
        fingerprint: u64_at(12),
        max_instrs: u64_at(20),
        events: u64_at(28),
    })
}

/// Reads a known number of records from a trace file, block by block.
struct RecordReader {
    input: BufReader<fs::File>,
    bytes: Vec<u8>,
    block_events: usize,
    /// Records read so far: the trace index of the next one.
    read: u64,
    /// Records to read in all.
    count: u64,
    /// Every decoded pc must lie below this.
    text_len: usize,
}

impl RecordReader {
    /// Reads the next block and appends its events to `out`, returning
    /// how many it appended: `block_events`, fewer for the last block, 0
    /// once every record has been read. Fails with
    /// [`TraceFileError::Io`] or [`TraceFileError::BadPc`].
    fn read_block(&mut self, out: &mut Vec<TraceEvent>) -> Result<usize, TraceFileError> {
        let take = (self.count - self.read).min(self.block_events as u64) as usize;
        if take == 0 {
            return Ok(0);
        }
        self.bytes.resize(take * RECORD_LEN, 0);
        self.input.read_exact(&mut self.bytes)?;
        let start = out.len();
        // A running maximum keeps the per-record loop branch-free.
        let mut max_pc = 0;
        out.extend(self.bytes.chunks_exact(RECORD_LEN).map(|record| {
            let event = decode_record(record);
            max_pc = max_pc.max(event.pc);
            event
        }));
        if max_pc as usize >= self.text_len {
            let (offset, pc) = out[start..]
                .iter()
                .enumerate()
                .find_map(|(i, event)| {
                    (event.pc as usize >= self.text_len).then_some((i, event.pc))
                })
                .expect("the block's largest pc lies outside the text");
            return Err(TraceFileError::BadPc {
                index: self.read + offset as u64,
                pc,
            });
        }
        self.read += take as u64;
        Ok(take)
    }
}

fn decode_record(record: &[u8]) -> TraceEvent {
    let word = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().expect("4 bytes"));
    TraceEvent {
        pc: word(0),
        mem_addr: word(4),
        value: word(8),
        taken: record[12] != 0,
    }
}

/// Why a trace file could not be opened or read.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a clfp trace file: a wrong magic, or shorter than
    /// the header.
    BadMagic,
    /// The header hash does not match the header's fields.
    BadHeader,
    /// Written with a different record-format version.
    WrongVersion {
        /// Version stored in the file.
        stored: u32,
    },
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
            TraceFileError::BadHeader => write!(f, "damaged trace file header"),
            TraceFileError::WrongVersion { stored } => write!(
                f,
                "trace format version {stored} (want {TRACE_FORMAT_VERSION})"
            ),
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

/// A trace file error as an I/O error: an I/O failure unwrapped, anything
/// else as [`io::ErrorKind::InvalidData`].
fn into_io(err: TraceFileError) -> io::Error {
    match err {
        TraceFileError::Io(err) => err,
        err => io::Error::new(io::ErrorKind::InvalidData, err),
    }
}

/// A trace file whose header and length checked out, streaming its events
/// back as a [`TraceSource`].
///
/// Handed out by [`FileTraceSource::open`] and by the trace cache, so
/// holding one implies the checks passed at open time. The file is
/// re-opened on every [`TraceSource::stream`] call, and every block's pcs
/// are checked against the program's text as it is decoded; replay
/// determinism holds because the bytes on disk do not change. A file
/// removed or shortened since is an error, not a panic.
#[derive(Clone, Debug)]
pub struct FileTraceSource {
    pub(crate) path: PathBuf,
    pub(crate) events: u64,
    /// The instruction budget stored in the header.
    pub(crate) max_instrs: u64,
    /// Text length of the program the file was opened for: every decoded
    /// pc must lie below it.
    pub(crate) text_len: usize,
}

impl FileTraceSource {
    /// Opens the trace file at `path`, captured from `program`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError`] on I/O failure, a wrong magic, a damaged
    /// header, another format version, a fingerprint other than
    /// `program`'s, or a length that disagrees with the event count.
    pub fn open<P: AsRef<Path>>(
        program: &Program,
        path: P,
    ) -> Result<FileTraceSource, TraceFileError> {
        let path = path.as_ref();
        let mut file = fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let header = read_header(&mut file)?;
        if header.version != TRACE_FORMAT_VERSION {
            return Err(TraceFileError::WrongVersion {
                stored: header.version,
            });
        }
        let expected = program.fingerprint();
        if header.fingerprint != expected {
            return Err(TraceFileError::FingerprintMismatch {
                stored: header.fingerprint,
                expected,
            });
        }
        let records_len = header.events.checked_mul(RECORD_LEN as u64);
        if records_len.and_then(|len| len.checked_add(HEADER_LEN as u64)) != Some(file_len) {
            return Err(TraceFileError::Truncated);
        }
        Ok(FileTraceSource {
            path: path.to_path_buf(),
            events: header.events,
            max_instrs: header.max_instrs,
            text_len: program.text.len(),
        })
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of events stored in the file.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Opens the file and reads past its header, for a reader of its
    /// records in blocks of `block_events`. The buffer serves small
    /// blocks; a block larger than its 8 KiB goes straight from the file.
    fn records(&self, block_events: usize) -> io::Result<RecordReader> {
        let mut input = BufReader::new(fs::File::open(&self.path)?);
        input.read_exact(&mut [0u8; HEADER_LEN])?;
        Ok(RecordReader {
            input,
            bytes: Vec::new(),
            block_events,
            read: 0,
            count: self.events,
            text_len: self.text_len,
        })
    }

    fn read_trace(&self) -> Result<Trace, TraceFileError> {
        let mut events = Vec::with_capacity((self.events as usize).min(1 << 24));
        let mut records = self.records(BLOCK_EVENTS)?;
        while records.read_block(&mut events)? > 0 {}
        Ok(Trace::from_events(events))
    }

    /// Materializes the whole file as a [`Trace`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (the file was checked at open, so one here
    /// means it changed since), and reports a record whose pc lies outside
    /// the program's text as [`io::ErrorKind::InvalidData`].
    pub fn load_trace(&self) -> io::Result<Trace> {
        self.read_trace().map_err(into_io)
    }
}

impl TraceSource for FileTraceSource {
    /// Streams the stored events. The file was checked when this source
    /// was handed out, so a read that fails now means the file was removed
    /// or changed since: that is reported as [`VmError::TraceRead`], a
    /// record pc outside the text as [`VmError::BadPc`].
    fn stream(
        &self,
        chunk_events: usize,
        sink: &mut dyn FnMut(&[TraceEvent]),
    ) -> Result<(), VmError> {
        assert!(chunk_events > 0, "chunk size must be non-zero");
        let read_failed = |err: io::Error| VmError::TraceRead { kind: err.kind() };
        let mut records = self.records(chunk_events).map_err(read_failed)?;
        let mut buf: Vec<TraceEvent> = Vec::with_capacity(chunk_events.min(self.events as usize));
        loop {
            buf.clear();
            match records.read_block(&mut buf) {
                Ok(0) => return Ok(()),
                Ok(_) => sink(&buf),
                Err(TraceFileError::BadPc { pc, .. }) => return Err(VmError::BadPc { pc }),
                Err(err) => return Err(read_failed(into_io(err))),
            }
        }
    }
}

impl Trace {
    /// Saves the trace to a file, recording its own length as the
    /// instruction budget.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save<P: AsRef<Path>>(&self, program: &Program, path: P) -> io::Result<()> {
        write_file(
            &mut fs::File::create(path)?,
            program,
            self.len() as u64,
            self.events(),
        )
    }

    /// Loads a trace file (one [`Trace::save`] wrote, or a trace cache
    /// entry), verifying it belongs to `program`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError`] as [`FileTraceSource::open`] does, or
    /// for an event whose pc lies outside the program's text.
    pub fn load<P: AsRef<Path>>(program: &Program, path: P) -> Result<Trace, TraceFileError> {
        FileTraceSource::open(program, path)?.read_trace()
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

    /// A fresh directory for one test's files.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("clfp-trace-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn saved_trace_reads_back_under_its_own_length() {
        let (program, trace) = sample();
        let dir = temp_dir("roundtrip");
        let path = dir.join("sample.trc");
        trace.save(&program, &path).unwrap();
        assert_eq!(
            Trace::load(&program, &path).unwrap().events(),
            trace.events()
        );
        let source = FileTraceSource::open(&program, &path).unwrap();
        assert_eq!(source.events(), trace.len() as u64);
        // The recorded budget reproduces the trace.
        let mut vm = Vm::new(&program, VmOptions { mem_words: 1 << 12 });
        assert_eq!(
            vm.trace(source.max_instrs).unwrap().events(),
            trace.events()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_checks_program_header_and_length() {
        let (program, trace) = sample();
        let dir = temp_dir("open");
        let path = dir.join("sample.trc");
        trace.save(&program, &path).unwrap();
        let clean = fs::read(&path).unwrap();
        let open = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            FileTraceSource::open(&program, &path).unwrap_err()
        };

        fs::write(&path, &clean).unwrap();
        let other = assemble(".text\nmain: halt").unwrap();
        let err = FileTraceSource::open(&other, &path).unwrap_err();
        assert!(matches!(err, TraceFileError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("different program"), "{err}");

        // The earlier CLFPTRC2 layout: magic, fingerprint, count, records.
        let mut parent_format = b"CLFPTRC2".to_vec();
        parent_format.extend(program.fingerprint().to_le_bytes());
        parent_format.extend((trace.len() as u64).to_le_bytes());
        parent_format.extend(&clean[HEADER_LEN..]);
        assert!(matches!(open(&parent_format), TraceFileError::BadMagic));
        assert!(matches!(open(b"NOTATRACE"), TraceFileError::BadMagic));

        // A count field lowered by one would otherwise read back as a
        // shorter trace; the header hash catches it.
        let mut shortened = clean.clone();
        shortened[28..36].copy_from_slice(&(trace.len() as u64 - 1).to_le_bytes());
        assert!(matches!(open(&shortened), TraceFileError::BadHeader));

        let appended = [&clean[..], &clean[HEADER_LEN..HEADER_LEN + RECORD_LEN]].concat();
        for bytes in [
            &clean[..clean.len() - RECORD_LEN],
            &clean[..clean.len() - 5],
            &appended[..],
        ] {
            let err = open(bytes);
            assert!(matches!(err, TraceFileError::Truncated), "{err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_pc_bits_name_their_record() {
        let (program, trace) = sample();
        let dir = temp_dir("pcflip");
        let path = dir.join("sample.trc");
        trace.save(&program, &path).unwrap();
        let clean = fs::read(&path).unwrap();
        for (index, event) in trace.events().iter().enumerate() {
            for bit in 0..32 {
                let pc = event.pc ^ (1 << bit);
                let mut bytes = clean.clone();
                bytes[HEADER_LEN + RECORD_LEN * index + bit / 8] ^= 1 << (bit % 8);
                fs::write(&path, &bytes).unwrap();
                let loaded = Trace::load(&program, &path);
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
        fs::remove_dir_all(&dir).ok();
    }
}
