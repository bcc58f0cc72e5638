//! Crash-safe durable state: checkpointed detector windows and
//! corruption-tolerant restore.
//!
//! A restarted monitor that re-learns every peer's inter-arrival window
//! from scratch answers queries from the small-sample bootstrap prior for
//! minutes at scale — inflated detection time, spurious wrong suspicions.
//! This module checkpoints the per-peer durable state (window moments,
//! last arrival, replay sequence) and restores it so phi/Chen answer at
//! pre-crash quality on the very first post-restore query.
//!
//! # Architecture
//!
//! - **Dump path**: [`Checkpointer::checkpoint`] reads each shard's
//!   published epoch snapshot through [`SnapshotReader`] — the
//!   double-buffered seqlocked banks the tick writer publishes into. The
//!   dumper therefore never touches worker-owned detector state and runs
//!   entirely off the hot path; workers pay nothing beyond the durable
//!   columns they already publish per tick.
//! - **Format**: one *segment* per shard (length-prefixed record table,
//!   CRC-32 trailer) plus a *manifest* binding the segment set to a
//!   generation and epoch. Every file is installed atomically by the
//!   [`SegmentSink`] (`DirSink`: write tmp → fsync → rename), so a crash
//!   at any byte boundary leaves either the previous complete generation
//!   or the new one — never a half-installed mix the restore would trust.
//! - **Restore**: [`Checkpointer::restore`] walks manifest generations
//!   newest-first, verifies every checksum, quarantines (skips and
//!   counts) any segment that fails, and returns the surviving peers for
//!   bulk import via [`ShardedMonitor::restore`](crate::shard::ShardedMonitor::restore)
//!   or [`ParallelShardEngine::restore`](crate::engine::ParallelShardEngine::restore).
//!
//! Storage faults are exercised deterministically with [`FaultySink`],
//! the storage sibling of the network
//! [`FaultInjector`](crate::fault::FaultInjector).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use afd_core::accrual::DetectorSeed;
use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_sim::rng::SimRng;

use crate::clock::Clock;
use crate::snapshot::{PeerDurable, SnapshotReader};

/// Magic prefix of a segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"AFDSEG01";
/// Magic prefix of a manifest file.
const MANIFEST_MAGIC: &[u8; 8] = b"AFDMAN01";
/// On-disk format version.
const FORMAT_VERSION: u32 = 1;
/// Bytes per peer record in a segment.
const RECORD_BYTES: usize = 64;
/// Segment header bytes before the record table.
const SEGMENT_HEADER: usize = 40;
/// Manifest header bytes before the entry table.
const MANIFEST_HEADER: usize = 32;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), hand-rolled: the workspace is zero-dependency by charter.
// ---------------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a persistence operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The underlying storage failed (message carries the OS detail).
    Io(String),
    /// A file failed structural or checksum validation.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "storage error: {msg}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt persistent state: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn io_err(e: std::io::Error) -> PersistError {
    PersistError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// SegmentSink: the storage abstraction
// ---------------------------------------------------------------------------

/// Atomically-installing blob storage for checkpoint files.
///
/// The single contract that makes checkpoints crash-safe:
/// [`put`](SegmentSink::put) is **all-or-nothing** — after a crash at any
/// point, a later [`get`](SegmentSink::get) returns either the complete
/// new bytes, the complete previous bytes, or nothing, never a prefix.
/// [`DirSink`] realises this with write-tmp → fsync → atomic rename;
/// [`MemSink`] trivially; [`FaultySink`] deliberately violates it to
/// exercise the restore path's checksum rejection.
pub trait SegmentSink {
    /// Atomically installs `bytes` under `name`, replacing any previous
    /// content.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the storage failed.
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError>;

    /// Reads the blob named `name` (`None` if absent).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the storage failed.
    fn get(&self, name: &str) -> Result<Option<Vec<u8>>, PersistError>;

    /// Lists all installed blob names, ascending.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the storage failed.
    fn list(&self) -> Result<Vec<String>, PersistError>;

    /// Removes the blob named `name` (absent is not an error).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the storage failed.
    fn delete(&mut self, name: &str) -> Result<(), PersistError>;
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        // A poisoned sink mutex means another checkpoint thread panicked
        // mid-put; the blob layer is still structurally sound (puts are
        // atomic), so recover the guard rather than propagate the poison.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Shared-sink forwarding so a checkpointing monitor and the restore
/// after its restart can use one store: clones of the `Arc` are one
/// logical sink.
impl<S: SegmentSink> SegmentSink for Arc<Mutex<S>> {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        lock_unpoisoned(self).put(name, bytes)
    }
    fn get(&self, name: &str) -> Result<Option<Vec<u8>>, PersistError> {
        lock_unpoisoned(self).get(name)
    }
    fn list(&self) -> Result<Vec<String>, PersistError> {
        lock_unpoisoned(self).list()
    }
    fn delete(&mut self, name: &str) -> Result<(), PersistError> {
        lock_unpoisoned(self).delete(name)
    }
}

/// Durable directory-backed sink: write `<name>.tmp`, fsync, atomically
/// rename to `<name>`, then fsync the directory so the rename itself
/// survives power loss.
///
/// This is the **only** place in `afd-runtime` allowed to touch
/// `std::fs` (enforced by the `io-discipline` lint rule).
#[derive(Debug)]
pub struct DirSink {
    root: PathBuf,
}

impl DirSink {
    /// Opens (creating if needed) `root` as a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(io_err)?;
        Ok(DirSink { root })
    }

    /// The directory this sink installs into.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn checked(&self, name: &str) -> Result<PathBuf, PersistError> {
        if name.is_empty() || name.contains(['/', '\\']) || name.contains("..") {
            return Err(PersistError::Io(format!("invalid blob name {name:?}")));
        }
        Ok(self.root.join(name))
    }
}

impl SegmentSink for DirSink {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        use std::io::Write;
        let path = self.checked(name)?;
        let tmp = self.root.join(format!("{name}.tmp"));
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(bytes).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        drop(file);
        std::fs::rename(&tmp, &path).map_err(io_err)?;
        // Make the rename durable: fsync the containing directory. Best
        // effort — some filesystems refuse directory handles.
        if let Ok(dir) = std::fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Option<Vec<u8>>, PersistError> {
        match std::fs::read(self.checked(name)?) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(e)),
        }
    }

    fn list(&self) -> Result<Vec<String>, PersistError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            if let Some(name) = entry.file_name().to_str() {
                // Leftover tmp files are uninstalled garbage from a crash
                // mid-put; they are invisible to readers.
                if !name.ends_with(".tmp") {
                    out.push(name.to_string());
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn delete(&mut self, name: &str) -> Result<(), PersistError> {
        match std::fs::remove_file(self.checked(name)?) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(e)),
        }
    }
}

/// In-memory sink for tests, benches, and the chaos harness.
#[derive(Debug, Clone, Default)]
pub struct MemSink {
    blobs: BTreeMap<String, Vec<u8>>,
}

impl MemSink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        MemSink::default()
    }

    /// Number of installed blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// `true` if nothing is installed.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }
}

impl SegmentSink for MemSink {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.blobs.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }
    fn get(&self, name: &str) -> Result<Option<Vec<u8>>, PersistError> {
        Ok(self.blobs.get(name).cloned())
    }
    fn list(&self) -> Result<Vec<String>, PersistError> {
        Ok(self.blobs.keys().cloned().collect())
    }
    fn delete(&mut self, name: &str) -> Result<(), PersistError> {
        self.blobs.remove(name);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FaultySink: deterministic storage fault injection
// ---------------------------------------------------------------------------

/// Which storage faults a [`FaultySink`] injects, as per-put
/// probabilities — the storage sibling of
/// [`FaultPlan`](crate::fault::FaultPlan).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultySinkPlan {
    /// Probability a put is truncated at a random byte offset.
    pub short_write: f64,
    /// Probability the tail of a put, from a random byte offset on, is
    /// replaced with garbage (a torn write across sectors).
    pub torn_write: f64,
    /// Probability exactly one random bit of a put is flipped.
    pub bit_flip: f64,
    /// Probability a put is silently discarded — the crash-before-rename
    /// case where the tmp file was written but never installed.
    pub drop_install: f64,
}

impl FaultySinkPlan {
    /// A plan injecting nothing.
    pub fn new() -> Self {
        FaultySinkPlan::default()
    }

    /// Sets the short-write (truncation) probability.
    #[must_use]
    pub fn with_short_write(mut self, p: f64) -> Self {
        self.short_write = p;
        self
    }

    /// Sets the torn-write probability.
    #[must_use]
    pub fn with_torn_write(mut self, p: f64) -> Self {
        self.torn_write = p;
        self
    }

    /// Sets the bit-flip probability.
    #[must_use]
    pub fn with_bit_flip(mut self, p: f64) -> Self {
        self.bit_flip = p;
        self
    }

    /// Sets the drop-install (crash before rename) probability.
    #[must_use]
    pub fn with_drop_install(mut self, p: f64) -> Self {
        self.drop_install = p;
        self
    }
}

/// Counters describing what a [`FaultySink`] actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultySinkStats {
    /// Puts observed (faulted or not).
    pub puts: u64,
    /// Puts truncated short.
    pub short_writes: u64,
    /// Puts with a garbage tail.
    pub torn_writes: u64,
    /// Puts with one bit flipped.
    pub bit_flips: u64,
    /// Puts silently discarded before install.
    pub dropped_installs: u64,
}

/// A [`SegmentSink`] wrapper injecting seeded, deterministic storage
/// faults on the write path, so every corruption branch of the restore
/// logic is exercised reproducibly.
#[derive(Debug)]
pub struct FaultySink<S> {
    inner: S,
    plan: FaultySinkPlan,
    rng: SimRng,
    stats: FaultySinkStats,
    filter: Option<String>,
}

impl<S: SegmentSink> FaultySink<S> {
    /// Wraps `inner`, applying `plan` with randomness seeded by `seed`.
    pub fn new(inner: S, plan: FaultySinkPlan, seed: u64) -> Self {
        FaultySink {
            inner,
            plan,
            rng: SimRng::seed_from_u64(seed),
            stats: FaultySinkStats::default(),
            filter: None,
        }
    }

    /// Restricts fault injection to puts whose name contains
    /// `substring` — e.g. `"seg-g2-"` to corrupt exactly one generation's
    /// segments while leaving its manifest intact.
    #[must_use]
    pub fn with_filter(mut self, substring: impl Into<String>) -> Self {
        self.filter = Some(substring.into());
        self
    }

    /// What the sink has done so far.
    pub fn stats(&self) -> FaultySinkStats {
        self.stats
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps into the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Publishes the fault counters into `registry` under
    /// `persist.fault.*`.
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        registry.counter("persist.fault.puts").set(self.stats.puts);
        registry
            .counter("persist.fault.short_writes")
            .set(self.stats.short_writes);
        registry
            .counter("persist.fault.torn_writes")
            .set(self.stats.torn_writes);
        registry
            .counter("persist.fault.bit_flips")
            .set(self.stats.bit_flips);
        registry
            .counter("persist.fault.dropped_installs")
            .set(self.stats.dropped_installs);
    }
}

impl<S: SegmentSink> SegmentSink for FaultySink<S> {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.stats.puts += 1;
        let targeted = self.filter.as_deref().is_none_or(|f| name.contains(f));
        if !targeted {
            return self.inner.put(name, bytes);
        }
        if self.rng.bernoulli(self.plan.drop_install) {
            // Crash before rename: the tmp file dies with the process and
            // nothing is installed.
            self.stats.dropped_installs += 1;
            return Ok(());
        }
        let mut data = bytes.to_vec();
        if !data.is_empty() && self.rng.bernoulli(self.plan.short_write) {
            data.truncate(self.rng.index(data.len()));
            self.stats.short_writes += 1;
        }
        if !data.is_empty() && self.rng.bernoulli(self.plan.torn_write) {
            let from = self.rng.index(data.len());
            for b in &mut data[from..] {
                *b = self.rng.index(256) as u8;
            }
            self.stats.torn_writes += 1;
        }
        if !data.is_empty() && self.rng.bernoulli(self.plan.bit_flip) {
            let at = self.rng.index(data.len());
            data[at] ^= 1 << self.rng.index(8);
            self.stats.bit_flips += 1;
        }
        self.inner.put(name, &data)
    }

    fn get(&self, name: &str) -> Result<Option<Vec<u8>>, PersistError> {
        self.inner.get(name)
    }
    fn list(&self) -> Result<Vec<String>, PersistError> {
        self.inner.list()
    }
    fn delete(&mut self, name: &str) -> Result<(), PersistError> {
        self.inner.delete(name)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

fn segment_name(generation: u64, shard: usize) -> String {
    format!("seg-g{generation}-s{shard}.afds")
}

fn manifest_name(generation: u64) -> String {
    format!("manifest-g{generation}.afdm")
}

/// Parses `manifest-g{N}.afdm` back to `N`.
fn parse_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix("manifest-g")?
        .strip_suffix(".afdm")?
        .parse()
        .ok()
}

/// Parses `seg-g{N}-s{S}.afds` back to `N`.
fn parse_segment_generation(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-g")?.strip_suffix(".afds")?;
    let (generation, _shard) = rest.split_once("-s")?;
    generation.parse().ok()
}

fn encode_segment(
    shard: u32,
    generation: u64,
    epoch: Timestamp,
    records: &[(ProcessId, PeerDurable)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER + records.len() * RECORD_BYTES + 4);
    out.extend_from_slice(SEGMENT_MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u32(&mut out, shard);
    push_u64(&mut out, generation);
    push_u64(&mut out, epoch.as_nanos());
    push_u64(&mut out, records.len() as u64);
    for (p, d) in records {
        push_u64(&mut out, u64::from(p.as_u32()));
        for word in d.words() {
            push_u64(&mut out, word);
        }
    }
    let crc = crc32(&out);
    push_u32(&mut out, crc);
    out
}

struct SegmentData {
    shard: u32,
    generation: u64,
    #[allow(dead_code)]
    epoch: Timestamp,
    crc: u32,
    records: Vec<(ProcessId, PeerDurable)>,
}

fn decode_segment(buf: &[u8]) -> Result<SegmentData, PersistError> {
    let corrupt = |why: &str| PersistError::Corrupt(format!("segment: {why}"));
    if buf.len() < SEGMENT_HEADER + 4 {
        return Err(corrupt("truncated header"));
    }
    if &buf[..8] != SEGMENT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    if read_u32(buf, 8) != Some(FORMAT_VERSION) {
        return Err(corrupt("unsupported version"));
    }
    let count = read_u64(buf, 32).ok_or_else(|| corrupt("missing count"))?;
    let body = usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(RECORD_BYTES))
        .and_then(|b| b.checked_add(SEGMENT_HEADER))
        .ok_or_else(|| corrupt("count overflow"))?;
    let expected = body
        .checked_add(4)
        .ok_or_else(|| corrupt("count overflow"))?;
    if buf.len() != expected {
        return Err(corrupt("length prefix does not match file size"));
    }
    let stored_crc = read_u32(buf, body).ok_or_else(|| corrupt("missing checksum"))?;
    if crc32(&buf[..body]) != stored_crc {
        return Err(corrupt("checksum mismatch"));
    }
    let shard = read_u32(buf, 12).ok_or_else(|| corrupt("missing shard"))?;
    let generation = read_u64(buf, 16).ok_or_else(|| corrupt("missing generation"))?;
    let epoch = read_u64(buf, 24).ok_or_else(|| corrupt("missing epoch"))?;
    let mut records = Vec::with_capacity(count as usize);
    let mut at = SEGMENT_HEADER;
    for _ in 0..count {
        let word = |k: usize| read_u64(buf, at + 8 * k).ok_or_else(|| corrupt("short record"));
        let peer = u32::try_from(word(0)?).map_err(|_| corrupt("peer id out of range"))?;
        let peer = ProcessId::new(peer);
        let mut words = [0u64; 7];
        for (k, w) in words.iter_mut().enumerate() {
            *w = word(k + 1)?;
        }
        records.push((peer, PeerDurable::from_words(words)));
        at += RECORD_BYTES;
    }
    Ok(SegmentData {
        shard,
        generation,
        epoch: Timestamp::from_nanos(epoch),
        crc: stored_crc,
        records,
    })
}

/// One segment's entry in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    name: String,
    records: u64,
    crc: u32,
}

struct ManifestData {
    generation: u64,
    // Read by format tests; restore keys on per-segment epochs instead.
    #[allow(dead_code)]
    epoch: Timestamp,
    segments: Vec<ManifestEntry>,
}

fn encode_manifest(generation: u64, epoch: Timestamp, segments: &[ManifestEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MANIFEST_HEADER + segments.len() * 48 + 4);
    out.extend_from_slice(MANIFEST_MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u32(&mut out, segments.len() as u32);
    push_u64(&mut out, generation);
    push_u64(&mut out, epoch.as_nanos());
    for entry in segments {
        push_u32(&mut out, entry.name.len() as u32);
        out.extend_from_slice(entry.name.as_bytes());
        push_u64(&mut out, entry.records);
        push_u32(&mut out, entry.crc);
    }
    let crc = crc32(&out);
    push_u32(&mut out, crc);
    out
}

fn decode_manifest(buf: &[u8]) -> Result<ManifestData, PersistError> {
    let corrupt = |why: &str| PersistError::Corrupt(format!("manifest: {why}"));
    if buf.len() < MANIFEST_HEADER + 4 {
        return Err(corrupt("truncated header"));
    }
    if &buf[..8] != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    if read_u32(buf, 8) != Some(FORMAT_VERSION) {
        return Err(corrupt("unsupported version"));
    }
    let body = buf.len() - 4;
    let stored_crc = read_u32(buf, body).ok_or_else(|| corrupt("missing checksum"))?;
    if crc32(&buf[..body]) != stored_crc {
        return Err(corrupt("checksum mismatch"));
    }
    let count = read_u32(buf, 12).ok_or_else(|| corrupt("missing count"))?;
    let generation = read_u64(buf, 16).ok_or_else(|| corrupt("missing generation"))?;
    let epoch = read_u64(buf, 24).ok_or_else(|| corrupt("missing epoch"))?;
    // A CRC is no MAC: the count is outside input until the entries bear
    // it out, so it may not size an allocation the body cannot fill. An
    // entry with an empty name is 16 bytes.
    if count as usize > (body - MANIFEST_HEADER) / 16 {
        return Err(corrupt("entry count exceeds the body"));
    }
    let mut segments = Vec::with_capacity(count as usize);
    let mut at = MANIFEST_HEADER;
    for _ in 0..count {
        let name_len = read_u32(buf, at).ok_or_else(|| corrupt("short entry"))? as usize;
        at += 4;
        let name_bytes = buf
            .get(at..at + name_len)
            .ok_or_else(|| corrupt("short entry name"))?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| corrupt("entry name not utf-8"))?
            .to_string();
        at += name_len;
        let records = read_u64(buf, at).ok_or_else(|| corrupt("short entry"))?;
        at += 8;
        let crc = read_u32(buf, at).ok_or_else(|| corrupt("short entry"))?;
        at += 4;
        segments.push(ManifestEntry { name, records, crc });
    }
    if at != body {
        return Err(corrupt("trailing bytes after entries"));
    }
    Ok(ManifestData {
        generation,
        epoch: Timestamp::from_nanos(epoch),
        segments,
    })
}

// ---------------------------------------------------------------------------
// Checkpointer
// ---------------------------------------------------------------------------

/// Tuning for a [`Checkpointer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// How many complete manifest generations to retain (floored at 1).
    /// Two is the crash-safe minimum *plus* one fallback: if the newest
    /// generation's segments turn out corrupt, restore can still fall
    /// back a generation.
    pub keep_generations: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            keep_generations: 2,
        }
    }
}

/// What one [`Checkpointer::checkpoint`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The manifest generation installed.
    pub generation: u64,
    /// Peers dumped across all segments.
    pub peers: usize,
    /// Segments written (one per shard).
    pub segments: usize,
    /// Total bytes written, segments plus manifest.
    pub bytes: usize,
    /// Oldest shard epoch bound into the manifest.
    pub epoch: Timestamp,
    /// Clock time the dump took (zero under an unadvanced virtual clock).
    pub elapsed: Duration,
}

/// One peer recovered from a checkpoint, ready for bulk import.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoredPeer {
    /// The monitored process.
    pub process: ProcessId,
    /// Its replay-rejection state, if one was recorded.
    pub highest_seq: Option<u64>,
    /// Its detector seed, if the detector persisted one.
    pub seed: Option<DetectorSeed>,
}

/// What [`Checkpointer::restore`] recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct Restored {
    /// The manifest generation restored from (`None`: no usable
    /// manifest — cold start).
    pub generation: Option<u64>,
    /// Every peer recovered from segments that passed their checksums.
    pub peers: Vec<RestoredPeer>,
    /// Segments rejected by checksum/structure and quarantined (their
    /// peers are absent from `peers`; the rest of the generation is
    /// restored regardless).
    pub segments_rejected: u64,
    /// Manifests skipped as corrupt while walking generations
    /// newest-first.
    pub manifests_rejected: u64,
    /// Clock time the restore took.
    pub elapsed: Duration,
}

/// Outcome of bulk-importing restored peers into a monitor or engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreImport {
    /// Peers re-watched.
    pub watched: u64,
    /// Peers whose detector was re-seeded with saved moments.
    pub seeded: u64,
    /// Peers dropped because their target shard was at capacity.
    pub capacity_rejected: u64,
}

struct PersistMetrics {
    dump_nanos: afd_obs::Histogram,
    restore_nanos: afd_obs::Histogram,
    bytes: afd_obs::Counter,
    segments_rejected: afd_obs::Counter,
    checkpoints: afd_obs::Counter,
    errors: afd_obs::Counter,
}

/// Dumps and restores checkpoint generations through a [`SegmentSink`].
///
/// The dump side reads only published epoch snapshots (via
/// [`SnapshotReader`]); the restore side walks manifest generations
/// newest-first and never imports bytes that fail their checksum.
pub struct Checkpointer<S> {
    sink: S,
    config: CheckpointConfig,
    /// Last generation this process wrote or observed on the sink.
    generation: Option<u64>,
    metrics: Option<PersistMetrics>,
}

impl<S> std::fmt::Debug for Checkpointer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("generation", &self.generation)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<S: SegmentSink> Checkpointer<S> {
    /// Creates a checkpointer over `sink`. Generation numbering continues
    /// above whatever the sink already holds (scanned lazily on first
    /// use), so restarts never clobber an earlier process's checkpoints.
    pub fn new(sink: S, config: CheckpointConfig) -> Self {
        Checkpointer {
            sink,
            config: CheckpointConfig {
                keep_generations: config.keep_generations.max(1),
            },
            generation: None,
            metrics: None,
        }
    }

    /// The sink, e.g. to inspect [`FaultySink::stats`].
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Unwraps into the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// The last generation written or restored, if any.
    pub fn generation(&self) -> Option<u64> {
        self.generation
    }

    /// Binds `persist.*` counters and histograms so every subsequent
    /// checkpoint/restore records its cost into `registry`.
    pub fn bind_metrics(&mut self, registry: &afd_obs::Registry) {
        let nanos_bounds = &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];
        self.metrics = Some(PersistMetrics {
            dump_nanos: registry.histogram("persist.dump_nanos", nanos_bounds),
            restore_nanos: registry.histogram("persist.restore_nanos", nanos_bounds),
            bytes: registry.counter("persist.bytes"),
            segments_rejected: registry.counter("persist.segments_rejected"),
            checkpoints: registry.counter("persist.checkpoints"),
            errors: registry.counter("persist.errors"),
        });
    }

    /// Highest generation present on the sink, parsed from names.
    fn latest_on_sink(&self) -> Result<Option<u64>, PersistError> {
        let names = self.sink.list()?;
        Ok(names
            .iter()
            .filter_map(|n| parse_manifest_name(n).or_else(|| parse_segment_generation(n)))
            .max())
    }

    /// Dumps every shard's published durable table as a new checkpoint
    /// generation: one CRC-trailed segment per shard, then the manifest
    /// that makes the generation visible, then garbage-collection of
    /// generations beyond [`CheckpointConfig::keep_generations`].
    ///
    /// Because the manifest is installed *last* (and atomically), a crash
    /// anywhere in the dump leaves the previous generation's manifest as
    /// the newest complete one — partial segments of the dead generation
    /// are unreferenced garbage, collected by the next successful dump.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] if the sink fails; the snapshot read side
    /// cannot fail.
    pub fn checkpoint<C: Clock>(
        &mut self,
        reader: &SnapshotReader,
        clock: &C,
    ) -> Result<CheckpointReport, PersistError> {
        let started = clock.now();
        let result = self.checkpoint_inner(reader, started);
        let elapsed = clock.now().saturating_duration_since(started);
        if let Some(m) = &self.metrics {
            match &result {
                Ok(report) => {
                    m.dump_nanos.observe(elapsed.as_nanos() as f64);
                    m.bytes.add(report.bytes as u64);
                    m.checkpoints.inc();
                }
                Err(_) => m.errors.inc(),
            }
        }
        result.map(|mut report| {
            report.elapsed = elapsed;
            report
        })
    }

    fn checkpoint_inner(
        &mut self,
        reader: &SnapshotReader,
        _started: Timestamp,
    ) -> Result<CheckpointReport, PersistError> {
        let generation = match self.generation {
            Some(g) => g + 1,
            None => self.latest_on_sink()?.map_or(1, |g| g + 1),
        };
        let mut scratch = Vec::new();
        let mut entries = Vec::new();
        let mut peers = 0usize;
        let mut bytes = 0usize;
        let mut epoch = Timestamp::MAX;
        for shard in 0..reader.shard_count() {
            let Some(at) = reader.durable_shard(shard, &mut scratch) else {
                break;
            };
            epoch = epoch.min(at);
            let name = segment_name(generation, shard);
            let encoded = encode_segment(shard as u32, generation, at, &scratch);
            let crc = read_u32(&encoded, encoded.len() - 4).unwrap_or(0);
            self.sink.put(&name, &encoded)?;
            peers += scratch.len();
            bytes += encoded.len();
            entries.push(ManifestEntry {
                name,
                records: scratch.len() as u64,
                crc,
            });
        }
        if epoch == Timestamp::MAX {
            epoch = Timestamp::ZERO;
        }
        let manifest = encode_manifest(generation, epoch, &entries);
        bytes += manifest.len();
        // Installing the manifest is the commit point of the generation.
        self.sink.put(&manifest_name(generation), &manifest)?;
        self.generation = Some(generation);
        self.collect_garbage(generation);
        Ok(CheckpointReport {
            generation,
            peers,
            segments: entries.len(),
            bytes,
            epoch,
            elapsed: Duration::ZERO,
        })
    }

    /// Deletes generations older than the retention window. Best effort:
    /// a delete failure leaves garbage, never breaks a checkpoint.
    fn collect_garbage(&mut self, newest: u64) {
        let cutoff = newest.saturating_sub(self.config.keep_generations.max(1) - 1);
        let Ok(names) = self.sink.list() else {
            return;
        };
        for name in names {
            let generation = parse_manifest_name(&name).or_else(|| parse_segment_generation(&name));
            if let Some(g) = generation {
                if g < cutoff {
                    let _ = self.sink.delete(&name);
                }
            }
        }
    }

    /// Restores from the newest complete manifest generation.
    ///
    /// Walks manifests newest-first; a manifest that fails its checksum is
    /// skipped (counted in [`Restored::manifests_rejected`]) and the walk
    /// falls back a generation. Within the chosen generation, each segment
    /// is verified against both its own CRC trailer and the CRC recorded
    /// in the manifest; failures are quarantined — skipped and counted in
    /// [`Restored::segments_rejected`] (`persist.segments_rejected`) —
    /// while every passing segment is restored. Corrupt bytes are never
    /// silently imported.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] only if the sink itself fails;
    /// corruption and absence degrade to a (possibly empty) [`Restored`].
    pub fn restore<C: Clock>(&mut self, clock: &C) -> Result<Restored, PersistError> {
        let started = clock.now();
        let result = self.restore_inner();
        let elapsed = clock.now().saturating_duration_since(started);
        if let Some(m) = &self.metrics {
            match &result {
                Ok(restored) => {
                    m.restore_nanos.observe(elapsed.as_nanos() as f64);
                    m.segments_rejected.add(restored.segments_rejected);
                }
                Err(_) => m.errors.inc(),
            }
        }
        result.map(|mut restored| {
            restored.elapsed = elapsed;
            restored
        })
    }

    fn restore_inner(&mut self) -> Result<Restored, PersistError> {
        let names = self.sink.list()?;
        // Continue numbering above everything present — including a
        // possibly-corrupt newer generation we fall back past, so the
        // next checkpoint never collides with its leftovers.
        self.generation = names
            .iter()
            .filter_map(|n| parse_manifest_name(n).or_else(|| parse_segment_generation(n)))
            .max()
            .or(self.generation);
        let mut generations: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_manifest_name(n))
            .collect();
        generations.sort_unstable();
        let mut segments_rejected = 0u64;
        let mut manifests_rejected = 0u64;
        for &generation in generations.iter().rev() {
            let Some(bytes) = self.sink.get(&manifest_name(generation))? else {
                continue;
            };
            let manifest = match decode_manifest(&bytes) {
                Ok(m) if m.generation == generation => m,
                _ => {
                    manifests_rejected += 1;
                    continue;
                }
            };
            let mut peers = Vec::new();
            for entry in &manifest.segments {
                let Ok(Some(seg_bytes)) = self.sink.get(&entry.name) else {
                    segments_rejected += 1;
                    continue;
                };
                match decode_segment(&seg_bytes) {
                    Ok(seg)
                        if seg.generation == generation
                            && seg.crc == entry.crc
                            && seg.records.len() as u64 == entry.records =>
                    {
                        let _ = seg.shard; // records re-route by current shard count
                        peers.extend(seg.records.iter().map(|&(process, d)| RestoredPeer {
                            process,
                            highest_seq: d.highest(),
                            seed: d.seed(),
                        }));
                    }
                    _ => segments_rejected += 1,
                }
            }
            return Ok(Restored {
                generation: Some(generation),
                peers,
                segments_rejected,
                manifests_rejected,
                elapsed: Duration::ZERO,
            });
        }
        Ok(Restored {
            generation: None,
            peers: Vec::new(),
            segments_rejected,
            manifests_rejected,
            elapsed: Duration::ZERO,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn durable(seq: u64, samples: u64, mean: f64, var: f64) -> PeerDurable {
        PeerDurable::from_state(
            Some(DetectorSeed {
                last_heartbeat: Some(Timestamp::from_secs(seq)),
                samples,
                mean,
                population_variance: var,
                heartbeats_seen: seq,
            }),
            Some(seq),
        )
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn segment_roundtrip_preserves_records() {
        let records = vec![
            (ProcessId::new(1), durable(5, 10, 1.0, 0.25)),
            (ProcessId::new(9), durable(7, 3, 2.5, 0.0)),
        ];
        let bytes = encode_segment(3, 42, Timestamp::from_secs(100), &records);
        let seg = decode_segment(&bytes).unwrap();
        assert_eq!(seg.shard, 3);
        assert_eq!(seg.generation, 42);
        assert_eq!(seg.epoch, Timestamp::from_secs(100));
        assert_eq!(seg.records, records);
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let records = vec![(ProcessId::new(1), durable(5, 10, 1.0, 0.25))];
        let good = encode_segment(0, 1, Timestamp::from_secs(1), &records);
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_segment(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        // Truncation at every length is also detected.
        for len in 0..good.len() {
            assert!(decode_segment(&good[..len]).is_err(), "truncate to {len}");
        }
    }

    /// A valid one-record segment of generation 1 for peer 7, its id word
    /// patched to 2³² + 7 and its CRC re-sealed.
    fn segment_with_forged_id() -> Vec<u8> {
        let records = vec![(ProcessId::new(7), durable(5, 10, 1.0, 0.25))];
        let mut bytes = encode_segment(0, 1, Timestamp::from_secs(1), &records);
        let body = bytes.len() - 4;
        bytes[SEGMENT_HEADER..SEGMENT_HEADER + 8]
            .copy_from_slice(&((1u64 << 32) + 7).to_le_bytes());
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn a_peer_id_above_u32_max_is_corrupt_not_truncated() {
        match decode_segment(&segment_with_forged_id()) {
            Err(PersistError::Corrupt(why)) => assert!(why.contains("peer id out of range")),
            Err(other) => panic!("wrong error: {other}"),
            Ok(seg) => panic!("restored {:?}", seg.records),
        }
    }

    #[test]
    fn restore_rejects_a_segment_whose_peer_id_would_alias() {
        let forged = segment_with_forged_id();
        let entry = ManifestEntry {
            name: segment_name(1, 0),
            records: 1,
            crc: read_u32(&forged, forged.len() - 4).unwrap(),
        };
        let mut sink = MemSink::new();
        sink.put(&entry.name, &forged).unwrap();
        let manifest = encode_manifest(1, Timestamp::from_secs(1), &[entry]);
        sink.put(&manifest_name(1), &manifest).unwrap();
        let mut ckpt = Checkpointer::new(sink, CheckpointConfig::default());
        let restored = ckpt.restore(&VirtualClock::new()).unwrap();
        assert_eq!(restored.segments_rejected, 1);
        assert!(restored
            .peers
            .iter()
            .all(|p| p.process != ProcessId::new(7)));
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let entries = vec![
            ManifestEntry {
                name: segment_name(7, 0),
                records: 3,
                crc: 0xDEAD_BEEF,
            },
            ManifestEntry {
                name: segment_name(7, 1),
                records: 0,
                crc: 1,
            },
        ];
        let bytes = encode_manifest(7, Timestamp::from_secs(9), &entries);
        let m = decode_manifest(&bytes).unwrap();
        assert_eq!(m.generation, 7);
        assert_eq!(m.epoch, Timestamp::from_secs(9));
        assert_eq!(m.segments, entries);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode_manifest(&bad).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn name_parsing_roundtrips() {
        assert_eq!(parse_manifest_name(&manifest_name(12)), Some(12));
        assert_eq!(parse_segment_generation(&segment_name(12, 4)), Some(12));
        assert_eq!(parse_manifest_name("seg-g1-s0.afds"), None);
        assert_eq!(parse_segment_generation("manifest-g1.afdm"), None);
        assert_eq!(parse_segment_generation("seg-gX-s0.afds"), None);
    }

    #[test]
    fn mem_sink_put_get_list_delete() {
        let mut sink = MemSink::new();
        assert!(sink.is_empty());
        sink.put("b", &[2]).unwrap();
        sink.put("a", &[1]).unwrap();
        assert_eq!(sink.get("a").unwrap(), Some(vec![1]));
        assert_eq!(sink.get("missing").unwrap(), None);
        assert_eq!(sink.list().unwrap(), vec!["a", "b"]);
        sink.delete("a").unwrap();
        sink.delete("a").unwrap(); // idempotent
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn dir_sink_installs_atomically_named_files() {
        let root = std::env::temp_dir().join(format!("afd-persist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut sink = DirSink::new(&root).unwrap();
        sink.put("seg-g1-s0.afds", b"hello").unwrap();
        sink.put("seg-g1-s0.afds", b"world").unwrap(); // replace
        assert_eq!(sink.get("seg-g1-s0.afds").unwrap(), Some(b"world".to_vec()));
        assert_eq!(sink.list().unwrap(), vec!["seg-g1-s0.afds"]);
        assert!(sink.put("../escape", b"x").is_err());
        assert!(sink.put("a/b", b"x").is_err());
        sink.delete("seg-g1-s0.afds").unwrap();
        assert_eq!(sink.get("seg-g1-s0.afds").unwrap(), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn faulty_sink_drop_install_leaves_nothing() {
        let plan = FaultySinkPlan::new().with_drop_install(1.0);
        let mut sink = FaultySink::new(MemSink::new(), plan, 1);
        sink.put("x", b"data").unwrap();
        assert_eq!(sink.get("x").unwrap(), None);
        assert_eq!(sink.stats().dropped_installs, 1);
    }

    #[test]
    fn faulty_sink_corruptions_are_deterministic_and_filtered() {
        let plan = FaultySinkPlan::new().with_bit_flip(1.0);
        let run = |seed: u64| {
            let mut sink = FaultySink::new(MemSink::new(), plan, seed).with_filter("target");
            sink.put("target-1", &[0u8; 16]).unwrap();
            sink.put("clean-1", &[0u8; 16]).unwrap();
            (
                sink.get("target-1").unwrap().unwrap(),
                sink.get("clean-1").unwrap().unwrap(),
                sink.stats(),
            )
        };
        let (a1, c1, s1) = run(7);
        let (a2, _, _) = run(7);
        assert_eq!(a1, a2, "same seed, same corruption");
        assert_ne!(a1, vec![0u8; 16], "targeted put was corrupted");
        assert_eq!(c1, vec![0u8; 16], "filtered-out put untouched");
        assert_eq!(s1.bit_flips, 1);
        assert_eq!(s1.puts, 2);
    }

    #[test]
    fn faulty_sink_short_and_torn_writes() {
        let mut short = FaultySink::new(
            MemSink::new(),
            FaultySinkPlan::new().with_short_write(1.0),
            3,
        );
        short.put("s", &[7u8; 64]).unwrap();
        let got = short.get("s").unwrap().unwrap();
        assert!(got.len() < 64, "short write must truncate");
        assert!(got.iter().all(|&b| b == 7), "prefix is intact");

        let mut torn = FaultySink::new(
            MemSink::new(),
            FaultySinkPlan::new().with_torn_write(1.0),
            3,
        );
        torn.put("t", &[7u8; 64]).unwrap();
        let got = torn.get("t").unwrap().unwrap();
        assert_eq!(got.len(), 64, "torn write keeps the length");
        assert_ne!(got, vec![7u8; 64], "tail is garbage");
    }

    #[test]
    fn restore_empty_sink_is_a_clean_cold_start() {
        let clock = VirtualClock::new();
        let mut ckpt = Checkpointer::new(MemSink::new(), CheckpointConfig::default());
        let restored = ckpt.restore(&clock).unwrap();
        assert_eq!(restored.generation, None);
        assert!(restored.peers.is_empty());
        assert_eq!(restored.segments_rejected, 0);
    }

    #[test]
    fn a_manifest_claiming_more_entries_than_it_holds_is_rejected() {
        // Header and checksum only, valid CRC, `u32::MAX` entries: it is
        // rejected before anything is sized by the count, and restore
        // falls back to the generation below it.
        let mut forged = Vec::new();
        forged.extend_from_slice(MANIFEST_MAGIC);
        push_u32(&mut forged, FORMAT_VERSION);
        push_u32(&mut forged, u32::MAX);
        push_u64(&mut forged, 2);
        push_u64(&mut forged, 0);
        let crc = crc32(&forged);
        push_u32(&mut forged, crc);
        assert_eq!(forged.len(), MANIFEST_HEADER + 4);
        assert!(decode_manifest(&forged).is_err());

        let mut sink = MemSink::new();
        let older = encode_manifest(1, Timestamp::from_secs(1), &[]);
        sink.put(&manifest_name(1), &older).unwrap();
        sink.put(&manifest_name(2), &forged).unwrap();
        let mut ckpt = Checkpointer::new(sink, CheckpointConfig::default());
        let restored = ckpt.restore(&VirtualClock::new()).unwrap();
        assert_eq!(restored.manifests_rejected, 1);
        assert_eq!(restored.generation, Some(1));
    }

    #[test]
    fn export_metrics_names_are_bound() {
        let registry = afd_obs::Registry::new();
        let mut ckpt = Checkpointer::new(MemSink::new(), CheckpointConfig::default());
        ckpt.bind_metrics(&registry);
        let clock = VirtualClock::new();
        let _ = ckpt.restore(&clock).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("persist.segments_rejected"), Some(0));
        assert!(snap.get("persist.restore_nanos").is_some());
    }
}
