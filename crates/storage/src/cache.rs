//! Shared page cache for demand-paged restore.
//!
//! A restore storm — N processes-worth of readers in one address space all
//! reviving the same checkpoint — would hit storage once *per reader* per
//! page without a shared cache. [`PageCache`] sits between the restore
//! fillers and the backend's page reads (a miss is a run of one of
//! [`crate::StorageBackend::read_pages_at`]): keyed by
//! `(checkpoint, page)`, sharded to keep lock contention off the fill hot
//! path, LRU-evicted against a byte budget, with per-key single-flight
//! loading so concurrent misses on one page collapse into a single disk
//! read.
//!
//! Payloads are handed out as `Arc<[u8]>`: every reader fills from the same
//! immutable buffer, so the storm's memory footprint is one copy per page
//! plus the restored regions themselves.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of independent shards. Keys spread by a cheap hash, so N fillers
/// rarely contend on one lock.
const SHARDS: usize = 16;

/// Cache key: `(namespace, page)`. The namespace is the checkpoint number —
/// two restores of different checkpoints never share entries.
type Key = (u64, u64);

#[derive(Debug)]
struct Entry {
    data: Arc<[u8]>,
    /// LRU stamp: the shard's logical clock at last touch.
    stamp: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Key, Entry>,
    /// stamp → key, oldest first. Stamps are unique per shard, so this is a
    /// faithful recency order.
    lru: BTreeMap<u64, Key>,
    clock: u64,
    bytes: usize,
    /// Per-key single-flight locks: the first missing reader loads, the
    /// rest block on the key's mutex and then hit the cache.
    loading: HashMap<Key, Arc<Mutex<()>>>,
}

impl Shard {
    fn touch(&mut self, key: Key) -> Option<Arc<[u8]>> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(&key)?;
        self.lru.remove(&entry.stamp);
        entry.stamp = clock;
        self.lru.insert(clock, key);
        Some(Arc::clone(&entry.data))
    }

    fn insert(&mut self, key: Key, data: Arc<[u8]>, budget: usize) {
        if let Some(old) = self.entries.remove(&key) {
            self.lru.remove(&old.stamp);
            self.bytes -= old.data.len();
        }
        self.clock += 1;
        self.bytes += data.len();
        self.lru.insert(self.clock, key);
        self.entries.insert(
            key,
            Entry {
                data,
                stamp: self.clock,
            },
        );
        // Evict oldest-first down to the budget, but always keep the entry
        // just inserted — a single page larger than the whole budget must
        // still be servable.
        while self.bytes > budget && self.lru.len() > 1 {
            let (&stamp, &victim) = self.lru.iter().next().expect("lru non-empty");
            self.lru.remove(&stamp);
            let gone = self.entries.remove(&victim).expect("entry for lru key");
            self.bytes -= gone.data.len();
        }
    }
}

/// Point-in-time counters of a [`PageCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to load from the backend.
    pub misses: u64,
    /// Payload bytes currently resident.
    pub bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// Sharded LRU cache of decoded page payloads, shared by concurrent
/// restores (see the module docs).
#[derive(Debug)]
pub struct PageCache {
    shards: Box<[Mutex<Shard>]>,
    /// Byte budget per shard (total budget / [`SHARDS`]).
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PageCache {
    /// Cache bounded by `capacity_bytes` of payload across all shards.
    pub fn new(capacity_bytes: usize) -> Self {
        let shards = (0..SHARDS)
            .map(|_| Mutex::new(Shard::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            shard_budget: capacity_bytes.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: Key) -> &Mutex<Shard> {
        // Cheap avalanching mix of both key halves; fixed odd constants.
        let h = key
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        &self.shards[(h >> 56) as usize % SHARDS]
    }

    /// Cached payload for `(ns, page)`, refreshing its recency, or `None`.
    pub fn get(&self, ns: u64, page: u64) -> Option<Arc<[u8]>> {
        let key = (ns, page);
        let got = self.shard(key).lock().touch(key);
        match &got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Insert (or refresh) a payload.
    pub fn insert(&self, ns: u64, page: u64, data: Arc<[u8]>) {
        let key = (ns, page);
        self.shard(key).lock().insert(key, data, self.shard_budget);
    }

    /// Look up `(ns, page)`; on a miss run `load` and cache its result.
    /// Concurrent misses on one key are single-flighted: exactly one caller
    /// runs `load`, the rest wait and then hit the cache. `Ok(None)` (page
    /// absent from the epoch) is **not** cached — the caller resolves
    /// absence through its locator before ever asking, so in practice this
    /// path only fires on caller bugs and re-probing is the safe behaviour.
    /// `load` may hand over any owned payload an `Arc<[u8]>` is made from.
    pub fn get_or_load<T: Into<Arc<[u8]>>>(
        &self,
        ns: u64,
        page: u64,
        load: impl FnOnce() -> io::Result<Option<T>>,
    ) -> io::Result<Option<Arc<[u8]>>> {
        let key = (ns, page);
        if let Some(hit) = self.shard(key).lock().touch(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(hit));
        }
        // Miss: take (or create) the key's single-flight lock *outside* the
        // shard lock, so a slow load never blocks unrelated pages.
        let flight = {
            let mut shard = self.shard(key).lock();
            Arc::clone(
                shard
                    .loading
                    .entry(key)
                    .or_insert_with(|| Arc::new(Mutex::new(()))),
            )
        };
        let _guard = flight.lock();
        // Re-check: a racing loader may have filled the entry while we
        // waited for the flight lock.
        if let Some(hit) = self.shard(key).lock().touch(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let loaded = load();
        let mut shard = self.shard(key).lock();
        shard.loading.remove(&key);
        match loaded {
            Ok(Some(data)) => {
                let data: Arc<[u8]> = data.into();
                shard.insert(key, Arc::clone(&data), self.shard_budget);
                Ok(Some(data))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Drop `(ns, page)` if cached. Repair rewrote the stored bytes; a
    /// stale payload must not outlive them.
    pub fn remove(&self, ns: u64, page: u64) {
        let key = (ns, page);
        let mut shard = self.shard(key).lock();
        if let Some(old) = shard.entries.remove(&key) {
            shard.lru.remove(&old.stamp);
            shard.bytes -= old.data.len();
        }
    }

    /// Drop every cached page of `ns` — a whole-segment rewrite (or a
    /// quarantine) invalidates the epoch wholesale.
    pub fn remove_ns(&self, ns: u64) {
        for shard in self.shards.iter() {
            let mut s = shard.lock();
            let victims: Vec<Key> = s.entries.keys().copied().filter(|k| k.0 == ns).collect();
            for key in victims {
                if let Some(old) = s.entries.remove(&key) {
                    s.lru.remove(&old.stamp);
                    s.bytes -= old.data.len();
                }
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let mut bytes = 0u64;
        let mut entries = 0u64;
        for shard in self.shards.iter() {
            let s = shard.lock();
            bytes += s.bytes as u64;
            entries += s.entries.len() as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn hit_after_insert_and_namespace_isolation() {
        let c = PageCache::new(1 << 20);
        c.insert(1, 7, Arc::from(vec![1, 2, 3]));
        assert_eq!(c.get(1, 7).unwrap().as_ref(), &[1, 2, 3]);
        assert!(c.get(2, 7).is_none(), "other checkpoint, other entry");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 3));
    }

    #[test]
    fn get_or_load_loads_once_then_hits() {
        let c = PageCache::new(1 << 20);
        let loads = AtomicUsize::new(0);
        for _ in 0..3 {
            let got = c
                .get_or_load(5, 9, || {
                    loads.fetch_add(1, Ordering::SeqCst);
                    Ok(Some(vec![42]))
                })
                .unwrap()
                .unwrap();
            assert_eq!(got.as_ref(), &[42]);
        }
        assert_eq!(loads.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_misses_single_flight() {
        let c = Arc::new(PageCache::new(1 << 20));
        let loads = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let loads = Arc::clone(&loads);
                s.spawn(move || {
                    let got = c
                        .get_or_load(1, 3, || {
                            loads.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            Ok(Some(vec![7; 64]))
                        })
                        .unwrap()
                        .unwrap();
                    assert_eq!(got.len(), 64);
                });
            }
        });
        assert_eq!(loads.load(Ordering::SeqCst), 1, "one disk read, N readers");
    }

    #[test]
    fn evicts_oldest_when_over_budget() {
        // Budget of one shard ≈ 64 bytes; everything below hashes wherever
        // it likes, so drive a single key-space hard and check global bytes
        // stay bounded.
        let c = PageCache::new(SHARDS * 64);
        for page in 0..256u64 {
            c.insert(9, page, Arc::from(vec![page as u8; 32]));
        }
        let s = c.stats();
        assert!(
            s.bytes <= (SHARDS * 64) as u64 + 32,
            "resident {} exceeds budget",
            s.bytes
        );
        assert!(s.entries < 256);
    }

    #[test]
    fn error_loads_are_not_cached() {
        let c = PageCache::new(1 << 20);
        let err = c
            .get_or_load::<Vec<u8>>(1, 1, || Err(io::Error::other("disk gone")))
            .unwrap_err();
        assert_eq!(err.to_string(), "disk gone");
        // Next attempt retries the load.
        let got = c.get_or_load(1, 1, || Ok(Some(vec![5]))).unwrap().unwrap();
        assert_eq!(got.as_ref(), &[5]);
    }

    #[test]
    fn repair_invalidation_evicts_stale_entries() {
        let c = PageCache::new(1 << 20);
        c.insert(3, 1, Arc::from(vec![1; 8]));
        c.insert(3, 2, Arc::from(vec![2; 8]));
        c.insert(4, 1, Arc::from(vec![3; 8]));
        // Page-granular invalidation after a targeted repair.
        c.remove(3, 1);
        assert!(c.get(3, 1).is_none(), "repaired page evicted");
        assert_eq!(c.get(3, 2).unwrap().as_ref(), &[2; 8]);
        // Whole-epoch invalidation after a segment rewrite.
        c.remove_ns(3);
        assert!(c.get(3, 2).is_none());
        assert_eq!(
            c.get(4, 1).unwrap().as_ref(),
            &[3; 8],
            "other epochs keep their entries"
        );
        let s = c.stats();
        assert_eq!((s.entries, s.bytes), (1, 8));
    }

    /// The degraded-read regression guard: when the level behind a fill
    /// is failing, every concurrent waiter piled on the single-flight
    /// lock must observe the error itself — none may be handed a poisoned
    /// (or phantom) cache entry — and the failure must leave no residue
    /// that would mask a later, healthy level.
    #[test]
    fn concurrent_waiters_all_observe_a_failing_fill() {
        let c = Arc::new(PageCache::new(1 << 20));
        let loads = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(std::sync::Barrier::new(8));
        let errors = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let loads = Arc::clone(&loads);
                let start = Arc::clone(&start);
                let errors = Arc::clone(&errors);
                s.spawn(move || {
                    start.wait();
                    let got = c.get_or_load::<Vec<u8>>(2, 11, || {
                        loads.fetch_add(1, Ordering::SeqCst);
                        // Widen the window so waiters stack up on the
                        // flight lock while a failing load is running.
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        Err(io::Error::other("level down"))
                    });
                    match got {
                        Err(e) => {
                            assert_eq!(e.to_string(), "level down");
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(hit) => panic!("poisoned fill surfaced as {hit:?}"),
                    }
                });
            }
        });
        assert_eq!(
            errors.load(Ordering::SeqCst),
            8,
            "every waiter observes the failure, not a cached phantom"
        );
        assert!(
            loads.load(Ordering::SeqCst) >= 1,
            "at least one real load attempt ran"
        );
        let s = c.stats();
        assert_eq!((s.entries, s.bytes), (0, 0), "poisoned fill was not cached");

        // The level heals (or a slower level serves the page): the next
        // fill must succeed and only then become a cache hit.
        let healthy = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let healthy = Arc::clone(&healthy);
            let got = c
                .get_or_load(2, 11, move || {
                    healthy.fetch_add(1, Ordering::SeqCst);
                    Ok(Some(vec![9; 16]))
                })
                .unwrap()
                .unwrap();
            assert_eq!(got.as_ref(), &[9; 16]);
        }
        assert_eq!(healthy.load(Ordering::SeqCst), 1, "healthy fill cached");
    }
}
