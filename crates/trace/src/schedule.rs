//! The binary schedule sidecar format (`.cvsc`).
//!
//! The Oracle cache bound (§VI-A) needs each neighborhood's *future*
//! accesses. Streaming replays used to materialize those futures fully in
//! RAM during a pre-pass — the one remaining auxiliary structure whose
//! size grew with trace length. This module defines the on-disk **sidecar**
//! a streaming run spills them to instead: a per-neighborhood, time-ordered,
//! chunked file of future-access events that a windowed reader can replay
//! with only one chunk per neighborhood resident.
//!
//! Like the columnar trace format ([`crate::columnar`]), the sidecar is
//! **dependency-free by design**: written and read with `std::fs::File`
//! only, because the build environment vendors offline stand-ins for
//! third-party crates (see `vendor/README.md`).
//!
//! # What is stored
//!
//! One event per session record: `(time, program)`, grouped by the
//! record's neighborhood and time-ordered within each neighborhood —
//! exactly what the Oracle's look-ahead window consumes. The slot **cost**
//! of an access is a pure function of its program (segment count ×
//! replication), so costs are stored once as a catalog-wide table in the
//! header region rather than per event; readers hand the table to every
//! window. Storing it in the file keeps a sidecar self-describing: it was
//! produced for one `(segment length, replication)` configuration and
//! carries the costs that configuration implies.
//!
//! # Format specification (version 2)
//!
//! All integers are **little-endian**, packed with no padding.
//!
//! ## File layout
//!
//! ```text
//! +-----------------+
//! | header          |  fixed 40 bytes
//! | cost table      |  4 * program_count bytes
//! | chunk 0 columns |
//! | chunk 1 columns |
//! | ...             |
//! | chunk directory |  36 * chunk_count bytes, at header.directory_offset
//! +-----------------+
//! ```
//!
//! ## Header (40 bytes)
//!
//! | offset | size | field              | notes                                  |
//! |-------:|-----:|--------------------|----------------------------------------|
//! |      0 |    4 | magic              | `b"CVSC"`                              |
//! |      4 |    4 | version            | `u32` = 2                              |
//! |      8 |    4 | neighborhood_count | `u32`, dense ids `0..count`            |
//! |     12 |    4 | chunk_size         | `u32` events per chunk (chunks may be short) |
//! |     16 |    8 | event_count        | `u64` total events                     |
//! |     24 |    4 | chunk_count        | `u32`                                  |
//! |     28 |    8 | directory_offset   | `u64` file offset of the directory     |
//! |     36 |    4 | program_count      | `u32`, dense ids `0..count`            |
//!
//! ## Cost table
//!
//! `program_count` × `u32`: program `p`'s size in slots.
//!
//! ## Chunk columns
//!
//! Each chunk holds `n` events of exactly **one neighborhood** as
//! contiguous column arrays, in this order:
//!
//! | column     | element | bytes per element |
//! |------------|---------|------------------:|
//! | time_secs  | `u64`   | 8                 |
//! | program    | `u32`   | 4                 |
//!
//! ## Chunk directory (36 bytes per chunk)
//!
//! | field        | type  | meaning                                  |
//! |--------------|-------|------------------------------------------|
//! | file_offset  | `u64` | where the chunk's columns begin          |
//! | event_count  | `u32` | events in this chunk                     |
//! | neighborhood | `u32` | the one neighborhood this chunk belongs to |
//! | first_time   | `u64` | time of the chunk's first (earliest) event |
//! | last_time    | `u64` | time of the chunk's last event           |
//! | crc          | `u32` | CRC-32 (IEEE) of the chunk's column bytes |
//!
//! The checksum covers exactly the `n * 12` column bytes at
//! `file_offset` and is verified on every chunk read, so corruption
//! fails as a [`TraceError::Format`] naming the chunk instead of
//! decoding into a silently wrong broadcast schedule.
//!
//! Ordering invariants (writer-enforced, reader-validated): within each
//! neighborhood, event times are non-decreasing within a chunk **and**
//! across its chunks in directory order (`first_time` at or after the
//! neighborhood's previous `last_time`); chunks of different neighborhoods
//! may interleave freely in the file. The reader's directory doubles as a
//! per-neighborhood chunk index ([`ScheduleSidecarReader::chunks_of`]),
//! so a windowed consumer fetches exactly its neighborhood's chunks in
//! time order, one positioned read each.
//!
//! An unfinished file (writer dropped before
//! [`ScheduleSidecarWriter::finish`]) keeps an `event_count` sentinel and
//! is rejected at open, exactly like the columnar format's torn files.
//!
//! # Examples
//!
//! ```no_run
//! use cablevod_trace::schedule::{ScheduleSidecarReader, ScheduleSidecarWriter};
//! use cablevod_hfc::ids::ProgramId;
//! use cablevod_hfc::units::SimTime;
//!
//! let mut w = ScheduleSidecarWriter::create("future.cvsc", 2, &[3, 5], 4_096)?;
//! w.push(0, SimTime::from_secs(10), ProgramId::new(1))?;
//! w.push(1, SimTime::from_secs(12), ProgramId::new(0))?;
//! w.finish()?;
//! let reader = ScheduleSidecarReader::open("future.cvsc")?;
//! assert_eq!(reader.event_count(), 2);
//! # Ok::<(), cablevod_trace::TraceError>(())
//! ```

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::SimTime;

use crate::checksum::{crc32, Crc32};
use crate::error::TraceError;
use crate::source::DecodeStats;

/// The four magic bytes opening every schedule sidecar file.
pub const MAGIC: [u8; 4] = *b"CVSC";
/// The format version this module writes and reads.
pub const VERSION: u32 = 2;
/// Default events per chunk: 4 Ki events = 48 KiB of columns — small
/// enough that a serial run holding one in-flight chunk *per
/// neighborhood's window* stays a rounding error, large enough to
/// amortize positioned reads.
pub const DEFAULT_EVENTS_PER_CHUNK: u32 = 4_096;

const HEADER_LEN: u64 = 40;
const DIR_ENTRY_LEN: usize = 36;
const BYTES_PER_EVENT: usize = 12;
/// Writer buffers below this many events per chunk stop being worth a
/// positioned read; [`events_per_chunk`] floors here.
const MIN_EVENTS_PER_CHUNK: u32 = 256;

fn format_err(reason: impl Into<String>) -> TraceError {
    TraceError::Format {
        reason: reason.into(),
    }
}

/// A chunk size for [`ScheduleSidecarWriter`] that bounds the writer's
/// resident set: the largest size at or below `preferred` whose per-
/// neighborhood in-progress buffers (`neighborhoods × chunk_size × 12 B`)
/// fit in `budget_bytes`, floored at 256 events so chunks stay worth a
/// positioned read (compare [`crate::rechunk::import_chunk_size`]).
pub fn events_per_chunk(neighborhoods: u32, preferred: u32, budget_bytes: u64) -> u32 {
    let groups = u64::from(neighborhoods.max(1));
    let per_group = budget_bytes / (groups * BYTES_PER_EVENT as u64);
    u64::from(preferred)
        .min(per_group)
        .max(u64::from(MIN_EVENTS_PER_CHUNK)) as u32
}

/// One directory entry: where a chunk lives and what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleChunkMeta {
    /// File offset of the chunk's column data.
    pub file_offset: u64,
    /// Events in this chunk.
    pub event_count: u32,
    /// The one neighborhood this chunk's events belong to.
    pub neighborhood: u32,
    /// Time of the chunk's first (earliest) event.
    pub first_time: SimTime,
    /// Time of the chunk's last event; every event in this
    /// neighborhood's later chunks is at or after this.
    pub last_time: SimTime,
    /// CRC-32 of the chunk's column bytes, verified on every read.
    pub crc: u32,
}

/// One in-progress chunk's column buffers.
#[derive(Debug, Default)]
struct EventBuf {
    times: Vec<u64>,
    programs: Vec<u32>,
    last_time: u64,
    any: bool,
}

/// Streaming sidecar writer: events go to disk chunk by chunk; nothing
/// but the in-progress chunk buffers (one per neighborhood) and the
/// (small) directory is ever resident. Push events in per-neighborhood
/// time order, then [`finish`](ScheduleSidecarWriter::finish).
#[derive(Debug)]
pub struct ScheduleSidecarWriter {
    out: BufWriter<File>,
    neighborhood_count: u32,
    program_count: u32,
    chunk_size: u32,
    bufs: Vec<EventBuf>,
    directory: Vec<ScheduleChunkMeta>,
    next_offset: u64,
    event_count: u64,
}

impl ScheduleSidecarWriter {
    /// Creates `path` for `neighborhood_count` neighborhoods with the
    /// given per-program cost table, writing the header and costs.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for a zero `chunk_size` or zero
    /// neighborhoods and propagates I/O failures.
    pub fn create(
        path: impl AsRef<Path>,
        neighborhood_count: u32,
        costs: &[u32],
        chunk_size: u32,
    ) -> Result<Self, TraceError> {
        if chunk_size == 0 {
            return Err(format_err("chunk size must be at least 1 event"));
        }
        if neighborhood_count == 0 {
            return Err(format_err(
                "a schedule sidecar needs at least 1 neighborhood",
            ));
        }
        let file = File::create(path)?;
        let mut out = BufWriter::with_capacity(1 << 16, file);

        // Header; event_count / chunk_count / directory_offset are patched
        // by `finish`. Until then event_count holds a sentinel so a torn
        // file is rejected at open.
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&neighborhood_count.to_le_bytes())?;
        out.write_all(&chunk_size.to_le_bytes())?;
        out.write_all(&u64::MAX.to_le_bytes())?; // event_count sentinel
        out.write_all(&0u32.to_le_bytes())?; // chunk_count
        out.write_all(&0u64.to_le_bytes())?; // directory_offset
        out.write_all(&(costs.len() as u32).to_le_bytes())?;
        for &c in costs {
            out.write_all(&c.to_le_bytes())?;
        }

        Ok(ScheduleSidecarWriter {
            out,
            neighborhood_count,
            program_count: costs.len() as u32,
            chunk_size,
            bufs: (0..neighborhood_count)
                .map(|_| EventBuf::default())
                .collect(),
            directory: Vec::new(),
            next_offset: HEADER_LEN + 4 * costs.len() as u64,
            event_count: 0,
        })
    }

    /// Appends one future-access event for `neighborhood`; flushes a full
    /// chunk to disk.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] when the event breaks its
    /// neighborhood's time ordering or references an out-of-range
    /// neighborhood, [`TraceError::DanglingProgram`] for a program beyond
    /// the cost table, and propagates I/O failures.
    pub fn push(
        &mut self,
        neighborhood: u32,
        time: SimTime,
        program: ProgramId,
    ) -> Result<(), TraceError> {
        if neighborhood >= self.neighborhood_count {
            return Err(format_err(format!(
                "event names neighborhood {neighborhood}, file declares {}",
                self.neighborhood_count
            )));
        }
        if program.value() >= self.program_count {
            return Err(TraceError::DanglingProgram { program });
        }
        let secs = time.as_secs();
        let buf = &mut self.bufs[neighborhood as usize];
        if buf.any && secs < buf.last_time {
            return Err(format_err(format!(
                "events must be written in time order within a neighborhood: {secs}s after {}s",
                buf.last_time
            )));
        }
        buf.times.push(secs);
        buf.programs.push(program.value());
        buf.last_time = secs;
        buf.any = true;
        self.event_count += 1;
        if self.bufs[neighborhood as usize].times.len() == self.chunk_size as usize {
            self.flush_neighborhood(neighborhood as usize)?;
        }
        Ok(())
    }

    /// Events written so far.
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    fn flush_neighborhood(&mut self, neighborhood: usize) -> Result<(), TraceError> {
        let buf = &mut self.bufs[neighborhood];
        let n = buf.times.len();
        if n == 0 {
            return Ok(());
        }
        // The checksum runs over the exact byte sequence the chunk puts
        // on disk: the times column then the programs column.
        let mut crc = Crc32::new();
        for &t in &buf.times {
            crc.update(&t.to_le_bytes());
            self.out.write_all(&t.to_le_bytes())?;
        }
        for &p in &buf.programs {
            crc.update(&p.to_le_bytes());
            self.out.write_all(&p.to_le_bytes())?;
        }
        self.directory.push(ScheduleChunkMeta {
            file_offset: self.next_offset,
            event_count: n as u32,
            neighborhood: neighborhood as u32,
            first_time: SimTime::from_secs(buf.times[0]),
            last_time: SimTime::from_secs(buf.times[n - 1]),
            crc: crc.finish(),
        });
        self.next_offset += (n * BYTES_PER_EVENT) as u64;
        buf.times.clear();
        buf.programs.clear();
        Ok(())
    }

    /// Flushes the tail chunks (one per neighborhood still holding
    /// events), writes the directory, and patches the header counts,
    /// completing the file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(mut self) -> Result<(), TraceError> {
        for n in 0..self.bufs.len() {
            self.flush_neighborhood(n)?;
        }
        let directory_offset = self.next_offset;
        for meta in &self.directory {
            self.out.write_all(&meta.file_offset.to_le_bytes())?;
            self.out.write_all(&meta.event_count.to_le_bytes())?;
            self.out.write_all(&meta.neighborhood.to_le_bytes())?;
            self.out
                .write_all(&meta.first_time.as_secs().to_le_bytes())?;
            self.out
                .write_all(&meta.last_time.as_secs().to_le_bytes())?;
            self.out.write_all(&meta.crc.to_le_bytes())?;
        }
        self.out.flush()?;

        // Patch event_count, chunk_count and directory_offset in place.
        let mut file = self.out.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(16))?;
        file.write_all(&self.event_count.to_le_bytes())?;
        file.write_all(&(self.directory.len() as u32).to_le_bytes())?;
        file.write_all(&directory_offset.to_le_bytes())?;
        file.sync_all()?;
        Ok(())
    }
}

fn read_array<const N: usize>(r: &mut impl Read) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u32(r: &mut impl Read) -> Result<u32, TraceError> {
    Ok(u32::from_le_bytes(read_array(r)?))
}

fn read_u64(r: &mut impl Read) -> Result<u64, TraceError> {
    Ok(u64::from_le_bytes(read_array(r)?))
}

/// Reader over a schedule sidecar: the header, cost table and chunk
/// directory live in memory; event columns are read one chunk at a time
/// with positioned reads, so one reader serves every neighborhood's
/// window concurrently through a shared reference. Decodes are counted
/// ([`ScheduleSidecarReader::decode_stats`]) so schedule I/O shows up in
/// the same accounting as trace decode work.
#[derive(Debug)]
pub struct ScheduleSidecarReader {
    file: File,
    #[cfg(not(unix))]
    read_lock: std::sync::Mutex<()>,
    neighborhood_count: u32,
    chunk_size: u32,
    event_count: u64,
    costs: Vec<u32>,
    directory: Vec<ScheduleChunkMeta>,
    /// `per_neighborhood[n]` — chunk ids holding neighborhood `n`'s
    /// events, in time order.
    per_neighborhood: Vec<Vec<u32>>,
    chunks_decoded: AtomicU64,
    bytes_decoded: AtomicU64,
}

impl ScheduleSidecarReader {
    /// Opens and validates `path`: magic, version, directory shape and
    /// per-neighborhood time ordering.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for corrupt or foreign files and
    /// propagates I/O failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let mut file = File::open(path)?;
        if read_array::<4>(&mut file)? != MAGIC {
            return Err(format_err("bad magic: not a schedule sidecar file"));
        }
        let version = read_u32(&mut file)?;
        if version != VERSION {
            return Err(format_err(format!(
                "unsupported sidecar version {version} (expected {VERSION})"
            )));
        }
        let neighborhood_count = read_u32(&mut file)?;
        let chunk_size = read_u32(&mut file)?;
        let event_count = read_u64(&mut file)?;
        let chunk_count = read_u32(&mut file)?;
        let directory_offset = read_u64(&mut file)?;
        let program_count = read_u32(&mut file)?;
        if event_count == u64::MAX || (event_count > 0 && directory_offset == 0) {
            return Err(format_err(
                "unfinished sidecar: the writer never reached finish()",
            ));
        }
        if neighborhood_count == 0 || chunk_size == 0 {
            return Err(format_err("zero neighborhood count or chunk size"));
        }
        // Every size field is untrusted: bound it against the physical
        // file length before it sizes an allocation.
        let file_len = file.metadata()?.len();
        if event_count > file_len / BYTES_PER_EVENT as u64 {
            return Err(format_err(format!(
                "header claims {event_count} events, more than the file can hold"
            )));
        }
        if u64::from(program_count) > file_len / 4 {
            return Err(format_err(format!(
                "cost table claims {program_count} programs, more than the file can hold"
            )));
        }
        if directory_offset
            .checked_add(u64::from(chunk_count) * DIR_ENTRY_LEN as u64)
            .is_none_or(|end| end > file_len)
        {
            return Err(format_err(format!(
                "directory ({chunk_count} chunks at offset {directory_offset}) exceeds the file"
            )));
        }
        let mut costs = Vec::with_capacity(program_count as usize);
        for _ in 0..program_count {
            costs.push(read_u32(&mut file)?);
        }

        file.seek(SeekFrom::Start(directory_offset))?;
        let mut last_time = vec![0u64; neighborhood_count as usize];
        let mut any = vec![false; neighborhood_count as usize];
        let mut per_neighborhood: Vec<Vec<u32>> = vec![Vec::new(); neighborhood_count as usize];
        let mut covered = 0u64;
        let mut directory = Vec::with_capacity(chunk_count as usize);
        for c in 0..chunk_count {
            let file_offset = read_u64(&mut file)?;
            let events = read_u32(&mut file)?;
            let neighborhood = read_u32(&mut file)?;
            let first_time = read_u64(&mut file)?;
            let chunk_last = read_u64(&mut file)?;
            let crc = read_u32(&mut file)?;
            if neighborhood >= neighborhood_count {
                return Err(format_err(format!(
                    "chunk {c} claims neighborhood {neighborhood}, file has {neighborhood_count}"
                )));
            }
            let n = neighborhood as usize;
            if (any[n] && first_time < last_time[n]) || chunk_last < first_time {
                return Err(format_err(format!("chunk {c} breaks time ordering")));
            }
            if file_offset
                .checked_add(u64::from(events) * BYTES_PER_EVENT as u64)
                .is_none_or(|end| end > directory_offset)
            {
                return Err(format_err(format!(
                    "chunk {c} ({events} events at offset {file_offset}) overruns the directory"
                )));
            }
            last_time[n] = chunk_last;
            any[n] = true;
            covered += u64::from(events);
            per_neighborhood[n].push(c);
            directory.push(ScheduleChunkMeta {
                file_offset,
                event_count: events,
                neighborhood,
                first_time: SimTime::from_secs(first_time),
                last_time: SimTime::from_secs(chunk_last),
                crc,
            });
        }
        if covered != event_count {
            return Err(format_err(format!(
                "directory covers {covered} events, header says {event_count}"
            )));
        }

        Ok(ScheduleSidecarReader {
            file,
            #[cfg(not(unix))]
            read_lock: std::sync::Mutex::new(()),
            neighborhood_count,
            chunk_size,
            event_count,
            costs,
            directory,
            per_neighborhood,
            chunks_decoded: AtomicU64::new(0),
            bytes_decoded: AtomicU64::new(0),
        })
    }

    /// Neighborhoods this sidecar covers (dense ids `0..count`).
    pub fn neighborhood_count(&self) -> u32 {
        self.neighborhood_count
    }

    /// The nominal events-per-chunk the file was written with.
    pub fn chunk_size(&self) -> u32 {
        self.chunk_size
    }

    /// Total events on file.
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// The per-program slot cost table.
    pub fn costs(&self) -> &[u32] {
        &self.costs
    }

    /// The chunk directory (offsets, counts, neighborhoods, time spans).
    pub fn directory(&self) -> &[ScheduleChunkMeta] {
        &self.directory
    }

    /// The chunk ids holding `neighborhood`'s events, in time order
    /// (empty for neighborhoods with no scheduled accesses, and for ids
    /// beyond the file's neighborhood count).
    pub fn chunks_of(&self, neighborhood: usize) -> &[u32] {
        self.per_neighborhood
            .get(neighborhood)
            .map_or(&[], Vec::as_slice)
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<(), TraceError> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::Read as _;
            let _guard = self.read_lock.lock().expect("reader lock poisoned");
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)?;
        }
        Ok(())
    }

    /// Reads chunk `chunk` into `out` (cleared first) as time-ordered
    /// `(time, program)` events, counting the decode.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for out-of-range chunks or corrupt
    /// columns and propagates I/O failures.
    pub fn read_chunk(
        &self,
        chunk: usize,
        out: &mut Vec<(SimTime, ProgramId)>,
    ) -> Result<(), TraceError> {
        let meta = self
            .directory
            .get(chunk)
            .copied()
            .ok_or_else(|| format_err(format!("schedule chunk {chunk} out of range")))?;
        let n = meta.event_count as usize;
        let mut bytes = vec![0u8; n * BYTES_PER_EVENT];
        self.read_at(&mut bytes, meta.file_offset)?;
        let computed = crc32(&bytes);
        if computed != meta.crc {
            return Err(format_err(format!(
                "schedule chunk {chunk} failed checksum verification \
                 (stored {:#010x}, computed {computed:#010x})",
                meta.crc
            )));
        }
        self.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        self.bytes_decoded
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let (times, programs) = bytes.split_at(8 * n);
        out.clear();
        out.reserve(n);
        let mut prev = meta.first_time.as_secs();
        for i in 0..n {
            let t = u64::from_le_bytes(times[8 * i..8 * i + 8].try_into().expect("8-byte slice"));
            let p =
                u32::from_le_bytes(programs[4 * i..4 * i + 4].try_into().expect("4-byte slice"));
            // The columns are untrusted: enforce the writer's invariants
            // (in-chunk time order inside the directory's span, programs
            // within the cost table) at decode.
            if t < prev || t > meta.last_time.as_secs() {
                return Err(format_err(format!(
                    "schedule chunk {chunk} carries a corrupt time column (value {t} at row {i})"
                )));
            }
            if p >= self.costs.len() as u32 {
                return Err(TraceError::DanglingProgram {
                    program: ProgramId::new(p),
                });
            }
            prev = t;
            out.push((SimTime::from_secs(t), ProgramId::new(p)));
        }
        Ok(())
    }

    /// Cumulative decode counters (chunks and bytes fetched).
    pub fn decode_stats(&self) -> DecodeStats {
        DecodeStats {
            chunks: self.chunks_decoded.load(Ordering::Relaxed),
            bytes: self.bytes_decoded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cvsc_{}_{name}.cvsc", std::process::id()));
        p
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn p(i: u32) -> ProgramId {
        ProgramId::new(i)
    }

    #[test]
    fn round_trip_preserves_per_neighborhood_event_order() {
        // Interleaved pushes across 3 neighborhoods, chunk size 4 so every
        // neighborhood spans several chunks.
        let path = tmp_path("round_trip");
        let costs = vec![2u32, 3, 5];
        let mut w = ScheduleSidecarWriter::create(&path, 3, &costs, 4).expect("create");
        let mut expected: Vec<Vec<(SimTime, ProgramId)>> = vec![Vec::new(); 3];
        for i in 0..50u64 {
            let nbhd = (i % 3) as u32;
            let ev = (t(i * 7), p((i % 3) as u32));
            w.push(nbhd, ev.0, ev.1).expect("push");
            expected[nbhd as usize].push(ev);
        }
        assert_eq!(w.event_count(), 50);
        w.finish().expect("finish");

        let r = ScheduleSidecarReader::open(&path).expect("open");
        assert_eq!(r.event_count(), 50);
        assert_eq!(r.neighborhood_count(), 3);
        assert_eq!(r.costs(), &costs[..]);
        let mut buf = Vec::new();
        for (n, expected_events) in expected.iter().enumerate() {
            let mut events = Vec::new();
            for &c in r.chunks_of(n) {
                assert_eq!(r.directory()[c as usize].neighborhood, n as u32);
                r.read_chunk(c as usize, &mut buf).expect("read");
                events.extend_from_slice(&buf);
            }
            assert_eq!(&events, expected_events, "neighborhood {n}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Pins the documented layout: a finished sidecar is exactly header +
    /// cost table + 12 bytes per event + one 36-byte directory entry per
    /// chunk, and carries [`VERSION`] at bytes 4..8.
    #[test]
    fn finished_sidecar_matches_the_documented_layout() {
        let path = tmp_path("layout");
        let costs = [1u32, 2, 3, 4, 5];
        let mut w = ScheduleSidecarWriter::create(&path, 2, &costs, 4).expect("create");
        for i in 0..11u64 {
            w.push((i % 2) as u32, t(i), p((i % 5) as u32))
                .expect("push");
        }
        w.finish().expect("finish");
        let r = ScheduleSidecarReader::open(&path).expect("open");
        let (programs, events, chunks) = (costs.len(), r.event_count(), r.directory().len());
        let bytes = std::fs::read(&path).expect("read back");
        assert_eq!(
            bytes.len() as u64,
            40 + 4 * programs as u64 + 12 * events + 36 * chunks as u64
        );
        assert_eq!(&bytes[4..8], &VERSION.to_le_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn idle_neighborhoods_have_no_chunks() {
        let path = tmp_path("idle");
        let mut w = ScheduleSidecarWriter::create(&path, 4, &[1], 8).expect("create");
        w.push(0, t(1), p(0)).expect("push");
        w.push(2, t(2), p(0)).expect("push");
        w.finish().expect("finish");
        let r = ScheduleSidecarReader::open(&path).expect("open");
        assert_eq!(r.chunks_of(0).len(), 1);
        assert!(r.chunks_of(1).is_empty());
        assert_eq!(r.chunks_of(2).len(), 1);
        assert!(r.chunks_of(3).is_empty());
        assert!(
            r.chunks_of(99).is_empty(),
            "out of range is empty, not a panic"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_and_dangling_events_are_rejected() {
        let path = tmp_path("order");
        let mut w = ScheduleSidecarWriter::create(&path, 2, &[1, 1], 8).expect("create");
        w.push(0, t(100), p(0)).expect("push");
        // Time regression within a neighborhood.
        let err = w.push(0, t(50), p(0)).unwrap_err();
        assert!(matches!(err, TraceError::Format { .. }), "{err}");
        // Other neighborhoods keep their own clocks.
        w.push(1, t(50), p(1)).expect("independent ordering");
        // Dangling program / bad neighborhood.
        assert!(matches!(
            w.push(0, t(200), p(9)),
            Err(TraceError::DanglingProgram { .. })
        ));
        assert!(matches!(
            w.push(7, t(200), p(0)),
            Err(TraceError::Format { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_and_foreign_files_are_rejected() {
        let path = tmp_path("unfinished");
        let mut w = ScheduleSidecarWriter::create(&path, 1, &[1], 2).expect("create");
        for i in 0..5u64 {
            w.push(0, t(i), p(0)).expect("push");
        }
        drop(w); // never finished
        let err = ScheduleSidecarReader::open(&path).unwrap_err();
        assert!(
            matches!(&err, TraceError::Format { reason } if reason.contains("unfinished")),
            "{err}"
        );
        std::fs::write(&path, b"not a sidecar").expect("write");
        let err = ScheduleSidecarReader::open(&path).unwrap_err();
        assert!(matches!(err, TraceError::Format { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_stats_count_chunks_and_bytes() {
        let path = tmp_path("decode_stats");
        let mut w = ScheduleSidecarWriter::create(&path, 1, &[1], 4).expect("create");
        for i in 0..8u64 {
            w.push(0, t(i), p(0)).expect("push");
        }
        w.finish().expect("finish");
        let r = ScheduleSidecarReader::open(&path).expect("open");
        assert_eq!(r.decode_stats().chunks, 0);
        let mut buf = Vec::new();
        r.read_chunk(0, &mut buf).expect("read");
        r.read_chunk(1, &mut buf).expect("read");
        let stats = r.decode_stats();
        assert_eq!(stats.chunks, 2);
        assert_eq!(stats.bytes, 2 * 4 * BYTES_PER_EVENT as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_sidecars_round_trip() {
        let path = tmp_path("empty");
        let w = ScheduleSidecarWriter::create(&path, 2, &[], 16).expect("create");
        w.finish().expect("finish");
        let r = ScheduleSidecarReader::open(&path).expect("open");
        assert_eq!(r.event_count(), 0);
        assert!(r.chunks_of(0).is_empty() && r.chunks_of(1).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn events_per_chunk_bounds_writer_buffers() {
        // Few neighborhoods: keep the preferred size.
        assert_eq!(events_per_chunk(30, 4_096, 64 << 20), 4_096);
        // 2,000 neighborhoods against a 4 MiB budget: capped.
        let capped = events_per_chunk(2_000, 4_096, 4 << 20);
        assert!(capped < 4_096);
        assert!(
            u64::from(capped) * 2_000 * 12 <= 2 * (4 << 20),
            "near budget"
        );
        // The floor keeps chunks worth a positioned read.
        assert_eq!(events_per_chunk(u32::MAX, 4_096, 1 << 20), 256);
    }
}
