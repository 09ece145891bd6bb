//! On-disk binary trace cache.
//!
//! Capturing a trace costs about twice as much as reading it back:
//! perfbench's per-layer run (`--trace 1`, pinned to one CPU of a 2-vCPU
//! x86-64 host) puts VM capture of its three programs (3.67M events) at
//! about 54 ms and their cache load at about 28 ms. The VM interprets
//! every instruction, while a cache hit reads 13-byte records a block at
//! a time. The original study leaned on the same asymmetry — `pixie`
//! traces were captured once and analyzed many times. [`TraceCache`]
//! makes that workflow automatic: the first run of a workload stores its
//! CLFPTRC2 event stream under a key derived from the program
//! fingerprint, the instruction budget, and the trace format version;
//! later runs stream the file back through [`FileTraceSource`] and skip
//! VM execution entirely.
//!
//! Cache files are *hints*: every lookup re-validates an FNV-1a hash over
//! the 36-byte key header and the exact byte length implied by the event
//! count, and a stale, truncated, or header-damaged file is deleted with a
//! warning while the caller re-executes. The event records themselves
//! carry no checksum — hashing the payload would slow the load that makes
//! the cache worth having. Loading rejects a record whose pc lies outside
//! the program's text (the damage that would otherwise panic the
//! analyzer), but a flipped bit that leaves a record well-formed — an
//! address, a value, a branch outcome, or a pc moved to another valid
//! instruction — is read back as if it had been executed. Clear the cache
//! (`clfp cache clear`) when the disk it lives on is in doubt.
//!
//! File format (all little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "CLFPCCH1"
//! 8       4     trace format version (TRACE_FORMAT_VERSION)
//! 12      8     program fingerprint (Program::fingerprint)
//! 20      8     max_instrs the trace was captured with
//! 28      8     event count N
//! 36      8     FNV-1a hash of bytes 0..36
//! 44      13*N  events: pc u32, mem_addr u32, value u32, taken u8
//! ```
//!
//! The records are the `.trc` file's CLFPTRC2 records, written and read by
//! the same block codec (see [`Trace::write_to`]): [`TraceCache::store`]
//! writes 4096 encoded records per `write_all`, and
//! [`FileTraceSource::load_trace`] and [`FileTraceSource::stream`] read a
//! block with one `read_exact` and check its pcs against the text once.

use std::fmt;
use std::fs;
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use clfp_isa::Program;

use crate::io::{write_records, RecordError, RecordReader, BLOCK_EVENTS, RECORD_LEN};
use crate::{Trace, TraceEvent, TraceSource, Vm, VmError, VmOptions};

const MAGIC: &[u8; 8] = b"CLFPCCH1";
const HEADER_LEN: usize = 44;

/// Version of the event record layout stored in cache files (the CLFPTRC2
/// 13-byte record). Part of the cache key: bumping it invalidates every
/// cached trace, which is exactly what a record-format change requires.
pub const TRACE_FORMAT_VERSION: u32 = 2;

/// FNV-1a over raw bytes — the same construction as
/// [`Program::fingerprint`], applied to the cache header so that a partial
/// write or bit flip in the key fields is detected before any record is
/// trusted.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn encode_header(fingerprint: u64, max_instrs: u64, events: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(MAGIC);
    header[8..12].copy_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&fingerprint.to_le_bytes());
    header[20..28].copy_from_slice(&max_instrs.to_le_bytes());
    header[28..36].copy_from_slice(&events.to_le_bytes());
    let hash = fnv1a(&header[0..36]);
    header[36..44].copy_from_slice(&hash.to_le_bytes());
    header
}

/// Why a cache file was rejected (and deleted) at lookup.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CacheFileError {
    /// Wrong magic or header hash — not a cache file, or a damaged one.
    Corrupt,
    /// Written by a different record-format version.
    WrongVersion {
        /// Version stored in the file.
        stored: u32,
    },
    /// Key fields do not match the requested program / budget.
    StaleKey,
    /// File length disagrees with the declared event count.
    Truncated,
}

impl fmt::Display for CacheFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CacheFileError::Corrupt => write!(f, "corrupt cache header"),
            CacheFileError::WrongVersion { stored } => {
                write!(f, "cache format version {stored} (want {TRACE_FORMAT_VERSION})")
            }
            CacheFileError::StaleKey => write!(f, "cache key does not match request"),
            CacheFileError::Truncated => write!(f, "cache file length disagrees with header"),
        }
    }
}

/// A validated cache entry streaming its events back as a [`TraceSource`].
///
/// Constructed only by [`TraceCache::lookup`] / [`TraceCache::store`], so
/// holding one implies the header hash and byte length checked out at open
/// time. The file is re-opened on every [`TraceSource::stream`] call, and
/// every block's pcs are checked against the program's text as it is
/// decoded; replay determinism holds because the bytes on disk do not
/// change. A file removed or shortened since is an error, not a panic.
#[derive(Clone, Debug)]
pub struct FileTraceSource {
    path: PathBuf,
    events: u64,
    /// Text length of the program the entry was keyed by: every decoded
    /// pc must lie below it.
    text_len: usize,
}

impl FileTraceSource {
    /// Path of the underlying cache file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of events stored in the file.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Opens the file and verifies header hash, version, key, and length,
    /// returning the event count.
    fn open_checked(
        path: &Path,
        fingerprint: u64,
        max_instrs: u64,
    ) -> io::Result<Result<u64, CacheFileError>> {
        let mut file = fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN];
        if file.read_exact(&mut header).is_err() {
            return Ok(Err(CacheFileError::Corrupt));
        }
        if &header[0..8] != MAGIC {
            return Ok(Err(CacheFileError::Corrupt));
        }
        let stored_hash = u64::from_le_bytes(header[36..44].try_into().expect("8 bytes"));
        if stored_hash != fnv1a(&header[0..36]) {
            return Ok(Err(CacheFileError::Corrupt));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != TRACE_FORMAT_VERSION {
            return Ok(Err(CacheFileError::WrongVersion { stored: version }));
        }
        let stored_fp = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        let stored_max = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));
        if stored_fp != fingerprint || stored_max != max_instrs {
            return Ok(Err(CacheFileError::StaleKey));
        }
        let events = u64::from_le_bytes(header[28..36].try_into().expect("8 bytes"));
        let records_len = events.checked_mul(RECORD_LEN as u64);
        if records_len.and_then(|len| len.checked_add(HEADER_LEN as u64)) != Some(file_len) {
            return Ok(Err(CacheFileError::Truncated));
        }
        Ok(Ok(events))
    }

    /// Opens the file and reads past its header, for a reader of its
    /// records in blocks of `block_events`. The buffer serves small
    /// blocks; a block larger than its 8 KiB goes straight from the file.
    fn records(&self, block_events: usize) -> io::Result<RecordReader<BufReader<fs::File>>> {
        let mut reader = BufReader::new(fs::File::open(&self.path)?);
        reader.read_exact(&mut [0u8; HEADER_LEN])?;
        Ok(RecordReader::new(
            reader,
            self.events,
            block_events,
            self.text_len,
        ))
    }

    /// Materializes the whole file as a [`Trace`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (the header was validated at open, so one
    /// here means the file changed underneath us), and reports a record
    /// whose pc lies outside the program's text as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load_trace(&self) -> io::Result<Trace> {
        let mut events = Vec::with_capacity((self.events as usize).min(1 << 24));
        self.records(BLOCK_EVENTS)?
            .read_all(&mut events)
            .map_err(|err| match err {
                RecordError::Io(err) => err,
                RecordError::BadPc { index, pc } => io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("record {index} has pc {pc}, outside the program's text"),
                ),
            })?;
        Ok(Trace::from_events(events))
    }
}

impl TraceSource for FileTraceSource {
    /// Streams the stored events. The header was validated when this
    /// source was handed out, so a read that fails now means the file was
    /// removed or changed since: that is reported as
    /// [`VmError::TraceRead`], a record pc outside the text as
    /// [`VmError::BadPc`].
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
                Err(RecordError::Io(err)) => return Err(read_failed(err)),
                Err(RecordError::BadPc { pc, .. }) => return Err(VmError::BadPc { pc }),
            }
        }
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.events)
    }
}

/// One file in the cache directory, as listed by [`TraceCache::entries`].
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Path of the cache file.
    pub path: PathBuf,
    /// Program fingerprint component of the key.
    pub fingerprint: u64,
    /// Instruction-budget component of the key.
    pub max_instrs: u64,
    /// Number of stored events.
    pub events: u64,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// A directory of cached traces keyed by program fingerprint, instruction
/// budget, and [`TRACE_FORMAT_VERSION`].
#[derive(Clone, Debug)]
pub struct TraceCache {
    dir: PathBuf,
}

impl TraceCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new<P: Into<PathBuf>>(dir: P) -> TraceCache {
        TraceCache { dir: dir.into() }
    }

    /// The default cache directory: `$CLFP_CACHE_DIR` if set, otherwise
    /// `target/clfp-cache/` relative to the working directory.
    pub fn default_dir() -> PathBuf {
        match std::env::var_os("CLFP_CACHE_DIR") {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from("target").join("clfp-cache"),
        }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, fingerprint: u64, max_instrs: u64) -> PathBuf {
        self.dir
            .join(format!("{fingerprint:016x}-{max_instrs}-v{TRACE_FORMAT_VERSION}.clfpc"))
    }

    /// Looks up a cached trace for `program` at `max_instrs`.
    ///
    /// Returns `None` on a miss. A file that exists but fails validation
    /// (corrupt, truncated, stale, wrong version) is deleted with a
    /// warning on stderr and reported as a miss — it is never trusted.
    pub fn lookup(&self, program: &Program, max_instrs: u64) -> Option<FileTraceSource> {
        let path = self.entry_path(program.fingerprint(), max_instrs);
        if !path.exists() {
            clfp_metrics::trace::tally("cache.miss", "cache", 1);
            return None;
        }
        match FileTraceSource::open_checked(&path, program.fingerprint(), max_instrs) {
            Ok(Ok(events)) => {
                clfp_metrics::trace::tally("cache.hit", "cache", 1);
                Some(FileTraceSource {
                    path,
                    events,
                    text_len: program.text.len(),
                })
            }
            Ok(Err(why)) => {
                clfp_metrics::trace::tally("cache.miss", "cache", 1);
                eprintln!(
                    "warning: discarding invalid trace cache file {} ({why}); re-executing",
                    path.display()
                );
                fs::remove_file(&path).ok();
                None
            }
            Err(err) => {
                clfp_metrics::trace::tally("cache.miss", "cache", 1);
                eprintln!(
                    "warning: cannot read trace cache file {} ({err}); re-executing",
                    path.display()
                );
                None
            }
        }
    }

    /// Stores `trace` for `program` at `max_instrs`, atomically: the file
    /// is written to a temporary sibling and renamed into place, so a
    /// crash mid-write leaves no half-valid entry under the real key.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn store(
        &self,
        program: &Program,
        max_instrs: u64,
        trace: &Trace,
    ) -> io::Result<FileTraceSource> {
        let _span = clfp_metrics::trace::span("cache.store", "cache")
            .arg("fingerprint", format!("{:016x}", program.fingerprint()))
            .arg("events", trace.len());
        fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(program.fingerprint(), max_instrs);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        {
            let mut out = fs::File::create(&tmp)?;
            out.write_all(&encode_header(
                program.fingerprint(),
                max_instrs,
                trace.len() as u64,
            ))?;
            write_records(&mut out, trace.events())?;
        }
        fs::rename(&tmp, &path)?;
        Ok(FileTraceSource {
            path,
            events: trace.len() as u64,
            text_len: program.text.len(),
        })
    }

    /// Returns the cached trace for `program` at `max_instrs`, capturing
    /// and storing it on a miss. The boolean is `true` on a warm hit.
    ///
    /// A store failure (e.g. read-only cache directory) degrades to a
    /// warning: the freshly captured trace is still returned, uncached.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError`] from a cold-path execution.
    pub fn ensure(
        &self,
        program: &Program,
        options: VmOptions,
        max_instrs: u64,
    ) -> Result<(Trace, bool), VmError> {
        if let Some(source) = self.lookup(program, max_instrs) {
            let span = clfp_metrics::trace::span("cache.load", "cache")
                .arg("fingerprint", format!("{:016x}", program.fingerprint()))
                .arg("events", source.events());
            match source.load_trace() {
                Ok(trace) => return Ok((trace, true)),
                Err(err) => {
                    drop(span);
                    eprintln!(
                        "warning: cannot load trace cache file {} ({err}); re-executing",
                        source.path.display()
                    );
                }
            }
        }
        let trace = Vm::new(program, options).trace(max_instrs)?;
        if let Err(err) = self.store(program, max_instrs, &trace) {
            eprintln!(
                "warning: cannot write trace cache under {} ({err}); continuing uncached",
                self.dir.display()
            );
        }
        Ok((trace, false))
    }

    /// Lists every parseable entry in the cache directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the directory not existing (an
    /// absent directory is an empty cache).
    pub fn entries(&self) -> io::Result<Vec<CacheEntry>> {
        let mut out = Vec::new();
        let dir = match fs::read_dir(&self.dir) {
            Ok(dir) => dir,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(err) => return Err(err),
        };
        for entry in dir {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("clfpc") {
                continue;
            }
            let bytes = entry.metadata()?.len();
            let mut file = match fs::File::open(&path) {
                Ok(file) => file,
                Err(_) => continue,
            };
            let mut header = [0u8; HEADER_LEN];
            if file.read_exact(&mut header).is_err()
                || &header[0..8] != MAGIC
                || u64::from_le_bytes(header[36..44].try_into().expect("8 bytes"))
                    != fnv1a(&header[0..36])
            {
                continue;
            }
            out.push(CacheEntry {
                path,
                fingerprint: u64::from_le_bytes(header[12..20].try_into().expect("8 bytes")),
                max_instrs: u64::from_le_bytes(header[20..28].try_into().expect("8 bytes")),
                events: u64::from_le_bytes(header[28..36].try_into().expect("8 bytes")),
                bytes,
            });
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    /// Deletes every cache file, returning how many were removed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the directory not existing.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0;
        let dir = match fs::read_dir(&self.dir) {
            Ok(dir) => dir,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(err) => return Err(err),
        };
        for entry in dir {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("clfpc") {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clfp_isa::assemble;

    const LOOP: &str = ".text\nmain: li r8, 9\nloop: addi r8, r8, -1\n lw r9, 0x1000(r0)\n sw r8, 0x1004(r0)\n bgt r8, r0, loop\n halt";

    fn temp_cache(tag: &str) -> TraceCache {
        let dir = std::env::temp_dir().join(format!("clfp-cache-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TraceCache::new(dir)
    }

    fn sample() -> (Program, Trace) {
        let program = assemble(LOOP).unwrap();
        let trace = Vm::new(&program, VmOptions::default()).trace(10_000).unwrap();
        (program, trace)
    }

    #[test]
    fn warm_hit_is_bit_identical() {
        let cache = temp_cache("warm");
        let (program, trace) = sample();
        let (cold, warm) = cache.ensure(&program, VmOptions::default(), 10_000).unwrap();
        assert!(!warm, "first run must miss");
        assert_eq!(cold.events(), trace.events());
        let (reloaded, warm) = cache.ensure(&program, VmOptions::default(), 10_000).unwrap();
        assert!(warm, "second run must hit");
        assert_eq!(reloaded.events(), trace.events());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn streamed_chunks_match_trace() {
        let cache = temp_cache("stream");
        let (program, trace) = sample();
        cache.store(&program, 10_000, &trace).unwrap();
        let source = cache.lookup(&program, 10_000).unwrap();
        assert_eq!(source.len_hint(), Some(trace.len() as u64));
        for chunk in [1usize, 7, 4096] {
            let mut events = Vec::new();
            let mut sizes = Vec::new();
            source
                .stream(chunk, &mut |part: &[TraceEvent]| {
                    events.extend_from_slice(part);
                    sizes.push(part.len());
                })
                .unwrap();
            assert_eq!(events, trace.events(), "chunk {chunk}");
            for &size in &sizes[..sizes.len() - 1] {
                assert_eq!(size, chunk, "all but the last chunk must be full");
            }
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn stale_key_misses() {
        let cache = temp_cache("stale");
        let (program, trace) = sample();
        cache.store(&program, 10_000, &trace).unwrap();
        // Different budget → different key → miss.
        assert!(cache.lookup(&program, 20_000).is_none());
        // Different program → different key → miss.
        let other = assemble(".text\nmain: halt").unwrap();
        assert!(cache.lookup(&other, 10_000).is_none());
        // The original entry is untouched by those misses.
        assert!(cache.lookup(&program, 10_000).is_some());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn truncated_file_is_discarded_and_rebuilt() {
        let cache = temp_cache("trunc");
        let (program, trace) = sample();
        let source = cache.store(&program, 10_000, &trace).unwrap();
        let path = source.path().to_path_buf();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        // Truncation detected, file removed, reported as a miss.
        assert!(cache.lookup(&program, 10_000).is_none());
        assert!(!path.exists(), "invalid file must be deleted");
        // The cold path rebuilds a valid entry with identical events.
        let (rebuilt, warm) = cache.ensure(&program, VmOptions::default(), 10_000).unwrap();
        assert!(!warm);
        assert_eq!(rebuilt.events(), trace.events());
        assert!(cache.lookup(&program, 10_000).is_some());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn corrupted_header_is_discarded() {
        let cache = temp_cache("corrupt");
        let (program, trace) = sample();
        let source = cache.store(&program, 10_000, &trace).unwrap();
        let path = source.path().to_path_buf();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xff; // flip a key byte without fixing the hash
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.lookup(&program, 10_000).is_none());
        assert!(!path.exists());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn flipped_pc_bits_are_rejected_and_rebuilt() {
        let cache = temp_cache("pcflip");
        let (program, trace) = sample();
        let source = cache.store(&program, 10_000, &trace).unwrap();
        let path = source.path().to_path_buf();
        let clean = std::fs::read(&path).unwrap();
        let text_len = program.text.len() as u32;
        for record in [0, 5, trace.len() - 1] {
            for bit in 0..32 {
                let pc = trace.events()[record].pc ^ (1 << bit);
                let mut bytes = clean.clone();
                let at = HEADER_LEN + record * RECORD_LEN + bit / 8;
                bytes[at] ^= 1 << (bit % 8);
                std::fs::write(&path, &bytes).unwrap();
                // Only the header is hashed, so the damaged entry still
                // looks valid at lookup.
                let source = cache.lookup(&program, 10_000).expect("header intact");
                let loaded = source.load_trace();
                let streamed = source.stream(7, &mut |_| {});
                let tag = format!("record {record} bit {bit}");
                if pc < text_len {
                    assert_eq!(loaded.unwrap().events()[record].pc, pc, "{tag}");
                    assert!(streamed.is_ok(), "{tag}");
                } else {
                    let err = loaded.unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tag}");
                    assert_eq!(streamed, Err(VmError::BadPc { pc }), "{tag}");
                    // The cold path replaces the damaged entry.
                    let (rebuilt, warm) = cache
                        .ensure(&program, VmOptions::default(), 10_000)
                        .unwrap();
                    assert!(!warm, "{tag}");
                    assert_eq!(rebuilt.events(), trace.events(), "{tag}");
                    assert_eq!(std::fs::read(&path).unwrap(), clean, "{tag}");
                }
            }
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn entry_changed_after_lookup_is_a_read_error() {
        let cache = temp_cache("changed");
        let (program, trace) = sample();
        let clean = std::fs::read(cache.store(&program, 10_000, &trace).unwrap().path()).unwrap();
        let source = cache.lookup(&program, 10_000).unwrap();
        let read_error = |kind| Err(VmError::TraceRead { kind });
        // One record cut off: the last block comes up short.
        std::fs::write(source.path(), &clean[..clean.len() - RECORD_LEN]).unwrap();
        for chunk in [1, 7, trace.len()] {
            let streamed = source.stream(chunk, &mut |_| {});
            assert_eq!(
                streamed,
                read_error(io::ErrorKind::UnexpectedEof),
                "chunk {chunk}"
            );
        }
        assert_eq!(
            source.load_trace().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // The entry removed, as `clfp cache clear` or another process's
        // lookup would.
        std::fs::remove_file(source.path()).unwrap();
        assert_eq!(
            source.stream(7, &mut |_| {}),
            read_error(io::ErrorKind::NotFound)
        );
        assert_eq!(
            source.load_trace().unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn entries_and_clear() {
        let cache = temp_cache("entries");
        let (program, trace) = sample();
        assert!(cache.entries().unwrap().is_empty(), "absent dir is empty");
        cache.store(&program, 10_000, &trace).unwrap();
        cache.store(&program, 5_000, &trace).unwrap();
        let entries = cache.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.fingerprint == program.fingerprint()));
        assert_eq!(cache.clear().unwrap(), 2);
        assert!(cache.entries().unwrap().is_empty());
        std::fs::remove_dir_all(cache.dir()).ok();
    }
}
