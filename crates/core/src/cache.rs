//! The content-addressed compile cache: compiled artifacts keyed on
//! `(circuit content hash, compiler fingerprint)`, stored as their
//! versioned wire encodings in an in-memory LRU tier with an optional
//! on-disk store underneath.
//!
//! Both tiers hold **encoded bytes**, not live artifacts: every hit runs
//! the full [`waltz_codec`] decode path, so a replayed artifact is
//! guaranteed to be whatever the wire format can represent — the same
//! guarantee a fresh process loading the disk store gets. The memory
//! tier shares its bytes (`Arc<Vec<u8>>`): a store moves the encoding in
//! and a hit decodes straight from the shared buffer, so neither copies
//! it (a qram-21q artifact encodes to 5.4 MB). Everything
//! the compile derived (fusion decisions, occupancy profiles, windowed
//! segments) is captured inside the stored artifact, never re-derived on
//! a hit. The compiler half of the key is a pure function of the target,
//! the options and the checked-in cost constants, so a default compiler
//! in a fresh process computes the same key and a disk store hits across
//! restarts.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use waltz_codec::{decode_versioned, encode_versioned};

use crate::artifact::CompileArtifact;

/// Default capacity of the in-memory tier, in artifacts.
const DEFAULT_MEMORY_CAPACITY: usize = 64;

/// The cache key: the circuit's content hash and the compiler's
/// fingerprint (target + resolved options), both 64-bit FNV-1a.
pub(crate) type CacheKey = (u64, u64);

/// The memory tier: key → (LRU tick, shared versioned artifact bytes).
type MemoryTier = HashMap<CacheKey, (u64, Arc<Vec<u8>>)>;

#[derive(Debug)]
struct ArtifactCacheInner {
    /// Memory tier.
    map: Mutex<MemoryTier>,
    /// Memory-tier capacity in artifacts; 0 disables the memory tier.
    capacity: usize,
    /// Monotonic LRU clock.
    tick: AtomicU64,
    /// Lookups answered from either tier.
    hits: AtomicU64,
    /// Lookups that found nothing (or only corrupt bytes).
    misses: AtomicU64,
    /// Memory-tier entries displaced to make room.
    evictions: AtomicU64,
    /// Disk-tier entries pruned to respect `disk_capacity`.
    evictions_disk: AtomicU64,
    /// Disk tier root; one file per key.
    dir: Option<PathBuf>,
    /// Disk-tier capacity in artifacts; `None` leaves the tier unbounded.
    disk_capacity: Option<usize>,
}

/// A content-addressed store of compiled artifacts, shared by every
/// clone (the store sits behind an `Arc`): attach one to a
/// [`crate::Compiler`] via [`crate::Compiler::with_artifact_cache`] and
/// repeat compilations of the same circuit against the same target skip
/// the whole pass pipeline, replaying the artifact from its stored wire
/// encoding instead (marked via [`CompileArtifact::is_cached`]).
///
/// # Example
///
/// ```
/// use waltz_core::{ArtifactCache, Compiler, Strategy, Target};
/// use waltz_circuit::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.h(0).ccx(0, 1, 2);
/// let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()))
///     .with_artifact_cache(ArtifactCache::new());
/// let cold = compiler.compile(&c).unwrap();
/// assert!(!cold.is_cached());
/// let warm = compiler.compile(&c).unwrap();
/// assert!(warm.is_cached());
/// ```
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    inner: Arc<ArtifactCacheInner>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

impl ArtifactCache {
    /// A memory-only cache with the default capacity (64 artifacts).
    pub fn new() -> Self {
        ArtifactCache::with_capacity(DEFAULT_MEMORY_CAPACITY)
    }

    /// A memory-only cache holding at most `capacity` artifacts (least
    /// recently used evicted first). Capacity 0 disables the memory tier
    /// entirely — useful to force every hit through the disk store.
    pub fn with_capacity(capacity: usize) -> Self {
        ArtifactCache {
            inner: Arc::new(ArtifactCacheInner {
                map: Mutex::new(HashMap::new()),
                capacity,
                tick: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                evictions_disk: AtomicU64::new(0),
                dir: None,
                disk_capacity: None,
            }),
        }
    }

    /// Adds an on-disk tier under `dir` (created on first store): every
    /// stored artifact is also written to one file per key
    /// (`<circuit-hash>-<fingerprint>.waltz`, written via a temp file and
    /// rename so readers never see a half-written artifact), and a
    /// memory miss falls through to the directory before reporting a
    /// miss. A disk hit is promoted into the memory tier. Corrupt,
    /// truncated or version-mismatched files count as misses, never
    /// errors.
    pub fn with_disk_dir(self, dir: impl Into<PathBuf>) -> Self {
        let inner = ArtifactCacheInner {
            map: Mutex::new(HashMap::new()),
            capacity: self.inner.capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evictions_disk: AtomicU64::new(0),
            dir: Some(dir.into()),
            disk_capacity: self.inner.disk_capacity,
        };
        ArtifactCache {
            inner: Arc::new(inner),
        }
    }

    /// Caps the on-disk tier at `max_entries` artifacts: every store that
    /// pushes the directory over the cap prunes the oldest files first
    /// (by modification time — the disk tier's write order), counted in
    /// [`ArtifactCache::evictions_disk`]. Without a cap the disk tier
    /// grows without bound, which is fine for a developer cache but not
    /// for a long-lived server. A cap of 0 keeps the tier write-through
    /// but immediately pruned — effectively disabling it.
    pub fn with_disk_capacity(self, max_entries: usize) -> Self {
        let inner = ArtifactCacheInner {
            map: Mutex::new(HashMap::new()),
            capacity: self.inner.capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evictions_disk: AtomicU64::new(0),
            dir: self.inner.dir.clone(),
            disk_capacity: Some(max_entries),
        };
        ArtifactCache {
            inner: Arc::new(inner),
        }
    }

    /// Artifacts currently in the memory tier.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from either tier since construction.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing since construction.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Memory-tier evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Disk-tier entries pruned (oldest first) to respect
    /// [`ArtifactCache::with_disk_capacity`], since construction.
    pub fn evictions_disk(&self) -> u64 {
        self.inner.evictions_disk.load(Ordering::Relaxed)
    }

    /// The on-disk tier's root, when one was configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.inner.dir.as_deref()
    }

    /// The disk tier's max-entries cap, when one was configured.
    pub fn disk_capacity(&self) -> Option<usize> {
        self.inner.disk_capacity
    }

    /// One aggregated snapshot of every counter — what
    /// [`crate::Supervisor::cache_stats`] and the serving stack's stats
    /// endpoint surface, replacing the habit of digging the same numbers
    /// out of per-job Lower-pass diagnostics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions_memory: self.evictions(),
            evictions_disk: self.evictions_disk(),
            memory_entries: self.len(),
        }
    }

    /// The map lock, tolerating poisoning: a panicked compilation thread
    /// can only ever have inserted whole entries.
    fn lock(&self) -> MutexGuard<'_, MemoryTier> {
        match self.inner.map.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The disk tier's file for a key.
    fn path_for(dir: &Path, key: CacheKey) -> PathBuf {
        dir.join(format!("{:016x}-{:016x}.waltz", key.0, key.1))
    }

    /// Looks up a stored artifact by its content address — the circuit's
    /// [`waltz_codec::content_hash`] and the owning compiler's
    /// [`crate::Compiler::fingerprint`] — decoding it from its stored
    /// bytes. This is the keyed entry point remote fronts use to resolve
    /// artifact references without re-submitting the circuit; the
    /// returned artifact is marked [`CompileArtifact::is_cached`], and a
    /// lookup counts as a hit or miss like any other.
    pub fn get(&self, circuit_hash: u64, fingerprint: u64) -> Option<CompileArtifact> {
        self.lookup((circuit_hash, fingerprint))
    }

    /// Looks up an artifact, decoding it from its stored bytes; the
    /// returned artifact is marked [`CompileArtifact::is_cached`].
    pub(crate) fn lookup(&self, key: CacheKey) -> Option<CompileArtifact> {
        let bytes = self.lookup_bytes(key);
        let artifact = bytes.and_then(|b| decode_versioned::<CompileArtifact>(&b).ok());
        match artifact {
            Some(mut artifact) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                artifact.set_cached(true);
                Some(artifact)
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The stored bytes for a key: memory tier first (bumping its LRU
    /// tick), then the disk tier (promoting a hit into memory). The lock
    /// is held only to share the buffer, never to decode it.
    fn lookup_bytes(&self, key: CacheKey) -> Option<Arc<Vec<u8>>> {
        {
            let mut map = self.lock();
            if let Some((tick, bytes)) = map.get_mut(&key) {
                *tick = self.inner.tick.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(bytes));
            }
        }
        let dir = self.inner.dir.as_ref()?;
        let bytes = std::fs::read(Self::path_for(dir, key)).ok()?;
        // Validate before promoting so corrupt files never enter memory.
        decode_versioned::<CompileArtifact>(&bytes).ok()?;
        let bytes = Arc::new(bytes);
        self.insert_memory(key, Arc::clone(&bytes));
        Some(bytes)
    }

    /// Stores an artifact's versioned encoding in both tiers.
    pub(crate) fn store(&self, key: CacheKey, artifact: &CompileArtifact) {
        let bytes = Arc::new(encode_versioned(artifact));
        if let Some(dir) = &self.inner.dir {
            // Best-effort: a read-only or full disk degrades the cache,
            // never the compilation.
            let _ = std::fs::create_dir_all(dir);
            let path = Self::path_for(dir, key);
            let tmp = path.with_extension("tmp");
            if std::fs::write(&tmp, bytes.as_slice()).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
            if let Some(cap) = self.inner.disk_capacity {
                self.prune_disk(dir, cap, &path);
            }
        }
        self.insert_memory(key, bytes);
    }

    /// Prunes the disk tier down to `cap` entries, removing the oldest
    /// files (by modification time) first and never the entry just
    /// written. Directory scans are per-store and O(entries) — cheap next
    /// to a compilation, and only walked when a cap is configured.
    fn prune_disk(&self, dir: &Path, cap: usize, just_written: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                if path.extension().is_some_and(|x| x == "waltz") {
                    let modified = e.metadata().and_then(|m| m.modified()).ok()?;
                    Some((modified, path))
                } else {
                    None
                }
            })
            .collect();
        if files.len() <= cap {
            return;
        }
        // Oldest first; ties broken by path so pruning is deterministic
        // even on filesystems with coarse mtime granularity.
        files.sort();
        let mut excess = files.len() - cap;
        for (_, path) in files {
            if excess == 0 {
                break;
            }
            // Never prune the entry this store just wrote (mtime ties on
            // coarse-granularity filesystems could sort it early) —
            // unless the cap is 0, where nothing may stay.
            if cap > 0 && path == just_written {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                self.inner.evictions_disk.fetch_add(1, Ordering::Relaxed);
                excess -= 1;
            }
        }
    }

    /// Inserts into the memory tier, evicting the least recently used
    /// entry when full.
    fn insert_memory(&self, key: CacheKey, bytes: Arc<Vec<u8>>) {
        if self.inner.capacity == 0 {
            return;
        }
        let mut map = self.lock();
        if map.len() >= self.inner.capacity && !map.contains_key(&key) {
            if let Some(oldest) = map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| *k)
            {
                map.remove(&oldest);
                self.inner.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed);
        map.insert(key, (tick, bytes));
    }
}

/// One aggregated snapshot of an [`ArtifactCache`]'s counters
/// ([`ArtifactCache::stats`]). Implements the wire format, so a serving
/// front can ship it inside a stats frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from either tier.
    pub hits: u64,
    /// Lookups that found nothing (or only corrupt bytes).
    pub misses: u64,
    /// Memory-tier entries displaced to make room.
    pub evictions_memory: u64,
    /// Disk-tier entries pruned to respect the max-entries cap.
    pub evictions_disk: u64,
    /// Artifacts currently held in the memory tier.
    pub memory_entries: usize,
}

#[cfg(test)]
mod tests {
    use waltz_circuit::Circuit;

    use super::*;
    use crate::{Compiler, Strategy, Target};

    fn artifact_for(seedling: u64) -> (CacheKey, CompileArtifact) {
        let mut c = Circuit::new(3);
        c.h(0).ccx(0, 1, 2);
        let artifact = Compiler::new(Target::paper(Strategy::qubit_only()))
            .compile(&c)
            .unwrap();
        ((seedling, 42), artifact)
    }

    #[test]
    fn memory_tier_hits_and_counts() {
        let cache = ArtifactCache::with_capacity(4);
        let (key, artifact) = artifact_for(1);
        assert!(cache.lookup(key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.store(key, &artifact);
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup(key).expect("stored key must hit");
        assert!(hit.is_cached());
        assert_eq!(hit.stats, artifact.stats);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Clones share the store and the counters.
        let clone = cache.clone();
        assert!(clone.lookup(key).is_some());
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn lru_eviction_keeps_the_recently_used_entry() {
        let cache = ArtifactCache::with_capacity(1);
        let (k1, artifact) = artifact_for(1);
        let k2 = (2u64, 42u64);
        cache.store(k1, &artifact);
        cache.store(k2, &artifact);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(k1).is_none(), "k1 was evicted");
        assert!(cache.lookup(k2).is_some());
    }

    #[test]
    fn zero_capacity_disables_the_memory_tier() {
        let cache = ArtifactCache::with_capacity(0);
        let (key, artifact) = artifact_for(1);
        cache.store(key, &artifact);
        assert!(cache.is_empty());
        assert!(cache.lookup(key).is_none());
    }

    #[test]
    fn disk_capacity_prunes_oldest_first_and_counts_evictions() {
        let dir = std::env::temp_dir().join(format!("waltz-cache-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Memory tier off: every lookup must go to disk.
        let cache = ArtifactCache::with_capacity(0)
            .with_disk_dir(&dir)
            .with_disk_capacity(2);
        assert_eq!(cache.disk_capacity(), Some(2));
        let (_, artifact) = artifact_for(1);
        for k in 1..=4u64 {
            cache.store((k, 42), &artifact);
            // Distinct mtimes even on coarse-granularity filesystems.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(cache.evictions_disk(), 2, "two oldest entries pruned");
        assert!(cache.lookup((1, 42)).is_none());
        assert!(cache.lookup((2, 42)).is_none());
        assert!(cache.lookup((3, 42)).is_some());
        assert!(cache.lookup((4, 42)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions_disk, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_round_trips_and_survives_memory_eviction() {
        let dir = std::env::temp_dir().join(format!("waltz-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::with_capacity(1).with_disk_dir(&dir);
        let (k1, artifact) = artifact_for(1);
        let k2 = (2u64, 42u64);
        cache.store(k1, &artifact);
        cache.store(k2, &artifact); // evicts k1 from memory, not disk
        let hit = cache.lookup(k1).expect("disk tier must answer");
        assert!(hit.is_cached());
        assert_eq!(hit.stats, artifact.stats);
        // Corrupt file counts as a miss, not an error.
        std::fs::write(ArtifactCache::path_for(&dir, (9, 9)), b"garbage").unwrap();
        assert!(cache.lookup((9, 9)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_file_from_another_codec_version_is_a_miss() {
        use waltz_codec::CODEC_VERSION;
        let dir = std::env::temp_dir().join(format!("waltz-cache-version-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (_, artifact) = artifact_for(1);
        let circuit = artifact.logical.clone();
        let compiler = || {
            Compiler::new(Target::paper(Strategy::qubit_only()))
                .with_artifact_cache(ArtifactCache::new().with_disk_dir(&dir))
        };
        // The same artifact's payload in the previous format version's
        // envelope, at the key the compile looks up.
        let first = compiler();
        let key = (waltz_codec::content_hash(&circuit), first.fingerprint());
        let path = ArtifactCache::path_for(&dir, key);
        let mut stale = encode_versioned(&artifact);
        stale[4..8].copy_from_slice(&(CODEC_VERSION - 1).to_le_bytes());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, &stale).unwrap();
        let cold = first.compile(&circuit).unwrap();
        assert!(!cold.is_cached());
        let cache = first.artifact_cache().unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // The compile replaced the stale file with a current one...
        let fresh = std::fs::read(&path).unwrap();
        assert_eq!(fresh[4..8], CODEC_VERSION.to_le_bytes());
        assert!(decode_versioned::<CompileArtifact>(&fresh).is_ok());
        // ...which a second compiler over the same directory hits.
        let second = compiler();
        assert!(second.compile(&circuit).unwrap().is_cached());
        let cache = second.artifact_cache().unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
