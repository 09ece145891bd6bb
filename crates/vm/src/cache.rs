//! On-disk trace cache: a directory of trace files.
//!
//! Capturing a trace costs about twice as much as reading it back:
//! perfbench's per-layer run (`--trace 1`, pinned to one CPU of a 2-vCPU
//! x86-64 host) puts VM capture of its three programs (3.67M events) at
//! about 54 ms and their cache load at about 28 ms. The VM interprets
//! every instruction, while a cache hit reads 13-byte records a block at
//! a time. The original study leaned on the same asymmetry — `pixie`
//! traces were captured once and analyzed many times. [`TraceCache`]
//! makes that workflow automatic: the first run of a workload stores its
//! trace as a trace file (the one format, see [`FileTraceSource`]) named
//! after a key derived from the program fingerprint, the instruction
//! budget, and the trace format version; later runs stream the file back
//! through [`FileTraceSource`] and skip VM execution entirely.
//!
//! Cache files are *hints*: every lookup opens the file with
//! [`FileTraceSource::open`] (magic, header hash, version, fingerprint,
//! exact length) and checks the stored budget, and a file that fails is
//! deleted with a warning while the caller re-executes. The records carry
//! no checksum, so a flipped bit that leaves a record well-formed is read
//! back as if it had been executed. Clear the cache (`clfp cache clear`)
//! when the disk it lives on is in doubt.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use clfp_isa::Program;

use crate::io::{read_header, write_file, TRACE_FORMAT_VERSION};
use crate::{FileTraceSource, Trace, TraceFileError, Vm, VmError, VmOptions};

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
    /// Returns `None` on a miss. A file that exists but fails
    /// [`FileTraceSource::open`] or holds another budget is deleted with a
    /// warning on stderr and reported as a miss — it is never trusted.
    pub fn lookup(&self, program: &Program, max_instrs: u64) -> Option<FileTraceSource> {
        let path = self.entry_path(program.fingerprint(), max_instrs);
        if !path.exists() {
            clfp_metrics::trace::tally("cache.miss", "cache", 1);
            return None;
        }
        let why = match FileTraceSource::open(program, &path) {
            Ok(source) if source.max_instrs == max_instrs => {
                clfp_metrics::trace::tally("cache.hit", "cache", 1);
                return Some(source);
            }
            Ok(source) => format!("captured under a budget of {}", source.max_instrs),
            Err(TraceFileError::Io(err)) => {
                clfp_metrics::trace::tally("cache.miss", "cache", 1);
                eprintln!(
                    "warning: cannot read trace cache file {} ({err}); re-executing",
                    path.display()
                );
                return None;
            }
            Err(why) => why.to_string(),
        };
        clfp_metrics::trace::tally("cache.miss", "cache", 1);
        eprintln!(
            "warning: discarding invalid trace cache file {} ({why}); re-executing",
            path.display()
        );
        fs::remove_file(&path).ok();
        None
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
            write_file(&mut out, program, max_instrs, trace.events())?;
        }
        fs::rename(&tmp, &path)?;
        Ok(FileTraceSource {
            path,
            events: trace.len() as u64,
            max_instrs,
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
                        source.path().display()
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
            let Ok(mut file) = fs::File::open(&path) else {
                continue;
            };
            // Any version is listed: `clfp cache` shows what `clear` would
            // remove.
            let Ok(header) = read_header(&mut file) else {
                continue;
            };
            out.push(CacheEntry {
                path,
                fingerprint: header.fingerprint,
                max_instrs: header.max_instrs,
                events: header.events,
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
    use crate::io::{HEADER_LEN, RECORD_LEN};
    use crate::{TraceEvent, TraceSource};
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
    fn saved_and_cached_traces_are_one_format() {
        let cache = temp_cache("format");
        let (program, trace) = sample();
        let stored = cache.store(&program, 10_000, &trace).unwrap();
        assert_eq!(
            Trace::load(&program, stored.path()).unwrap().events(),
            trace.events()
        );
        // `Trace::save` writes what the cache stores under the trace's own
        // length as its budget.
        let saved = cache.dir().join("saved.trc");
        trace.save(&program, &saved).unwrap();
        let cached = cache.store(&program, trace.len() as u64, &trace).unwrap();
        assert_eq!(fs::read(&saved).unwrap(), fs::read(cached.path()).unwrap());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn streamed_chunks_match_trace() {
        let cache = temp_cache("stream");
        let (program, trace) = sample();
        cache.store(&program, 10_000, &trace).unwrap();
        let source = cache.lookup(&program, 10_000).unwrap();
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
        let stored = cache.store(&program, 10_000, &trace).unwrap();
        // Different budget → different key → miss.
        assert!(cache.lookup(&program, 20_000).is_none());
        // Different program → different key → miss.
        let other = assemble(".text\nmain: halt").unwrap();
        assert!(cache.lookup(&other, 10_000).is_none());
        // The original entry is untouched by those misses.
        assert!(cache.lookup(&program, 10_000).is_some());
        // A file under another budget's key holds the wrong budget: it is
        // discarded.
        let misplaced = cache.entry_path(program.fingerprint(), 30_000);
        fs::copy(stored.path(), &misplaced).unwrap();
        assert!(cache.lookup(&program, 30_000).is_none());
        assert!(!misplaced.exists());
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
