//! Fingerprint-keyed result caching.
//!
//! Two tiers, both keyed off the netlist's structural fingerprint
//! ([`milo_netlist::structural_hash`]) extended with constraint data
//! via the FNV-1a chain:
//!
//! * **Exact tier** — key covers the full structure *and* the full
//!   constraint set ([`Constraints::cache_summary`]). A hit means an
//!   identical job already ran: the stored [`FlowOutput`] JSON is
//!   returned verbatim, no passes execute. Covering constraints in the
//!   key is load-bearing — two jobs differing only in `max_delay` must
//!   not alias.
//! * **Prefix tier** — key covers the structure and only the *tightest
//!   delay bound*. Of the five standard passes, only `micro-critic`
//!   (reads `Constraints::tightest_delay`) and `timing-area` (reads the
//!   full set) look at constraints at all; `compile`,
//!   `bottom-up-logic` and `fanout-repair` are constraint-blind. So
//!   the flow state right after `fanout-repair` is reusable across any
//!   two jobs that agree on structure and tightest bound — a near-miss
//!   resubmission restores that snapshot and runs only `timing-area`,
//!   the first constraint-dirty pass, plus the (always identical)
//!   driver epilogue.
//!
//! # Bounded memory
//!
//! Both tiers live under one byte budget ([`ResultCache::bounded`]).
//! Every entry is size-accounted — exact entries by their stored
//! response bytes (which is their real footprint), prefix snapshots by
//! an estimated netlist+artifact footprint — and when the combined
//! resident total exceeds the budget, the globally least-recently-used
//! entry is evicted, regardless of tier. Eviction never changes
//! response bytes: an evicted exact entry replays from disk (when a
//! [`DiskCache`] is attached) or re-runs the flow, and determinism
//! makes both byte-identical to the original; an evicted prefix
//! snapshot only costs re-running the constraint-blind prefix.
//!
//! Exact entries are written through to the disk tier on store, so
//! eviction from memory is a pure drop — the spill already happened,
//! on the non-latency-critical store path.
//!
//! Byte-identity: the resumed flow reconstructs exactly the
//! `FlowContext` a full run would have at the same point, and the
//! epilogue is shared, so the `SynthesisResult` JSON is byte-identical
//! to an offline `synthesize_batch_results` run — the contract the
//! loopback tests pin.

use crate::disk::DiskCache;
use milo_core::netlist::{fnv1a, structural_hash, DesignDb, Netlist};
use milo_core::{Constraints, FlowContext, MiloError, Pass, PassReport};
use milo_trace::{Counter, Registry};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Registry name of the LRU eviction counter (entries dropped from
/// memory, either tier).
pub const EVICTIONS: &str = "serve.cache.evictions";
/// Registry name of the disk spill counter (records written to the
/// disk store).
pub const SPILLED: &str = "serve.cache.spilled";

/// Exact-tier cache key: structure ⊕ full constraint rendering.
pub fn job_key(nl: &Netlist, constraints: &Constraints) -> u64 {
    let h = fnv1a(structural_hash(nl), b"|constraints|");
    fnv1a(h, constraints.cache_summary().as_bytes())
}

/// Prefix-tier cache key: structure ⊕ tightest delay bound only (the
/// single scalar the constraint-reading prefix pass, `micro-critic`,
/// consumes).
pub fn prefix_key(nl: &Netlist, constraints: &Constraints) -> u64 {
    let h = fnv1a(structural_hash(nl), b"|prefix|");
    let tag = match constraints.tightest_delay() {
        Some(ns) => format!("t{:016x}", ns.to_bits()),
        None => "t-".to_owned(),
    };
    fnv1a(h, tag.as_bytes())
}

/// A finished job's wire payload: the `FlowOutput` JSON exactly as the
/// first run rendered it, plus the result fingerprint for cheap
/// identity checks.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// `FlowOutput::to_json()` of the original run, spliced verbatim
    /// into cache-hit responses.
    pub json: String,
    /// `structural_hash` of the result netlist.
    pub result_hash: Option<u64>,
}

/// Flow state captured right after `fanout-repair` — everything a
/// resumed run needs to reconstruct the context for `timing-area`.
/// The database snapshot is `Arc`-backed (name-table copy), so the
/// expensive clone here is the work netlist.
#[derive(Clone)]
pub struct PrefixSnapshot {
    work: Netlist,
    db: DesignDb,
    top_name: Option<String>,
    mapped: bool,
    critic: Option<milo_core::microarch::CriticReport>,
    levels: Vec<milo_core::opt::LevelReport>,
    buffers_inserted: usize,
}

/// Fixed bookkeeping charged per cache entry on top of its payload.
const ENTRY_OVERHEAD: usize = 64;

impl PrefixSnapshot {
    /// Estimated resident footprint in bytes. A deliberate estimate,
    /// not a measurement: netlists are slot-counted at a conservative
    /// per-slot cost, and the `Arc`-shared database snapshot is charged
    /// shallowly (name-table entries only, an undercount of the designs
    /// it keeps alive). What matters for the budget is that the
    /// estimate is deterministic and scales with the real footprint.
    pub fn estimated_bytes(&self) -> usize {
        let netlist = 256
            + self.work.net_slot_count() * 96
            + self.work.component_slot_count() * 128
            + self.work.ports().len() * 48;
        let artifacts = self.levels.len() * 64
            + if self.critic.is_some() { 256 } else { 0 }
            + self.db.len() * 48;
        ENTRY_OVERHEAD + netlist + artifacts
    }
}

/// Which tier answered an exact-cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitTier {
    /// Served from resident memory.
    Memory,
    /// Memory-evicted (or never resident this boot); replayed from the
    /// disk store and re-promoted into memory.
    Disk,
}

/// One resident entry of either tier.
struct Slot<T> {
    val: Arc<T>,
    bytes: usize,
    tick: u64,
}

/// Identifies which tier an LRU victim belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Exact,
    Prefix,
}

/// Everything that moves together under the cache lock: both tier
/// maps, their recency orders, and the byte accounting. A single lock
/// (rather than the old one-per-tier) is what makes *global* LRU —
/// evict the coldest entry of either tier — race-free.
struct Inner {
    exact: HashMap<u64, Slot<CachedResult>>,
    prefix: HashMap<u64, Slot<PrefixSnapshot>>,
    /// tick → key, oldest first. Ticks are unique, so this is a exact
    /// recency order.
    exact_lru: BTreeMap<u64, u64>,
    prefix_lru: BTreeMap<u64, u64>,
    tick: u64,
    resident: usize,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The globally least-recently-used entry across both tiers.
    fn coldest(&self) -> Option<(Tier, u64, u64)> {
        let exact = self
            .exact_lru
            .first_key_value()
            .map(|(&t, &k)| (Tier::Exact, t, k));
        let prefix = self
            .prefix_lru
            .first_key_value()
            .map(|(&t, &k)| (Tier::Prefix, t, k));
        match (exact, prefix) {
            (Some(e), Some(p)) => Some(if e.1 <= p.1 { e } else { p }),
            (e, p) => e.or(p),
        }
    }
}

/// The two cache tiers behind one lock, with optional byte budget and
/// disk spill.
pub struct ResultCache {
    inner: Mutex<Inner>,
    /// `usize::MAX` means unbounded (the pre-v1.1 behavior).
    budget: usize,
    disk: Option<DiskCache>,
    evictions: Arc<Counter>,
    spilled: Arc<Counter>,
}

/// A point-in-time snapshot of what is read under the cache's locks —
/// the sizes the `stats` response reports under `"cache"` next to the
/// registry counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Bytes resident in memory across both tiers (size-accounted).
    pub resident_bytes: usize,
    /// Exact-tier entries resident in memory.
    pub exact_entries: usize,
    /// Prefix-tier entries resident in memory.
    pub prefix_entries: usize,
    /// Distinct keys in the disk store (0 without `--cache-dir`).
    pub disk_entries: usize,
}

impl ResultCache {
    /// A cache with an optional byte `budget` (both tiers combined;
    /// `None` = unbounded) and an optional disk store for the exact
    /// tier. Evictions and spills are counted in `registry` under
    /// [`EVICTIONS`] and [`SPILLED`].
    pub fn bounded(budget: Option<usize>, disk: Option<DiskCache>, registry: &Registry) -> Self {
        Self {
            inner: Mutex::new(Inner {
                exact: HashMap::new(),
                prefix: HashMap::new(),
                exact_lru: BTreeMap::new(),
                prefix_lru: BTreeMap::new(),
                tick: 0,
                resident: 0,
            }),
            budget: budget.unwrap_or(usize::MAX),
            disk,
            evictions: registry.counter(EVICTIONS),
            spilled: registry.counter(SPILLED),
        }
    }

    /// The disk store, when one is attached.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Exact-tier lookup: memory first, then the disk store. A disk
    /// hit is re-promoted into memory (and may evict colder entries to
    /// make room). The caller counts the outcome by the returned tier.
    pub fn lookup(&self, key: u64) -> Option<(Arc<CachedResult>, HitTier)> {
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(slot) = inner.exact.get(&key) {
                let (old, val) = (slot.tick, slot.val.clone());
                let fresh = inner.next_tick();
                inner.exact_lru.remove(&old);
                inner.exact_lru.insert(fresh, key);
                if let Some(slot) = inner.exact.get_mut(&key) {
                    slot.tick = fresh;
                }
                return Some((val, HitTier::Memory));
            }
        }
        // Memory miss: probe the disk tier without holding the memory
        // lock across the read.
        let payload = Arc::new(self.disk.as_ref()?.get(key)?);
        self.insert_exact(key, payload.clone(), false);
        Some((payload, HitTier::Disk))
    }

    /// Stores a finished job's payload under its exact key, writing
    /// through to the disk store when one is attached.
    pub fn store(&self, key: u64, payload: Arc<CachedResult>) {
        self.insert_exact(key, payload, true);
    }

    fn insert_exact(&self, key: u64, payload: Arc<CachedResult>, spill: bool) {
        if spill {
            if let Some(disk) = &self.disk {
                if disk.append(key, &payload) {
                    self.spilled.inc();
                    milo_trace::instant("cache.spill");
                }
            }
        }
        let bytes = ENTRY_OVERHEAD + payload.json.len();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let tick = inner.next_tick();
        if let Some(old) = inner.exact.insert(
            key,
            Slot {
                val: payload,
                bytes,
                tick,
            },
        ) {
            // Racing stores of the same key carry identical bytes;
            // only the accounting needs reconciling.
            inner.exact_lru.remove(&old.tick);
            inner.resident -= old.bytes;
        }
        inner.exact_lru.insert(tick, key);
        inner.resident += bytes;
        self.enforce_budget(&mut inner);
    }

    /// Prefix-tier lookup.
    pub fn lookup_prefix(&self, key: u64) -> Option<Arc<PrefixSnapshot>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let slot = inner.prefix.get(&key)?;
        let (old, val) = (slot.tick, slot.val.clone());
        let fresh = inner.next_tick();
        inner.prefix_lru.remove(&old);
        inner.prefix_lru.insert(fresh, key);
        if let Some(slot) = inner.prefix.get_mut(&key) {
            slot.tick = fresh;
        }
        Some(val)
    }

    /// Stores a prefix snapshot (first writer wins — all writers for a
    /// key hold equivalent state, so there is nothing to prefer).
    pub fn store_prefix(&self, key: u64, snap: Arc<PrefixSnapshot>) {
        let bytes = snap.estimated_bytes();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.prefix.contains_key(&key) {
            return;
        }
        let tick = inner.next_tick();
        inner.prefix.insert(
            key,
            Slot {
                val: snap,
                bytes,
                tick,
            },
        );
        inner.prefix_lru.insert(tick, key);
        inner.resident += bytes;
        self.enforce_budget(&mut inner);
    }

    /// Evicts globally-coldest entries until the resident total fits
    /// the budget (or nothing is left — a single over-budget entry is
    /// stored, served once, and immediately dropped).
    fn enforce_budget(&self, inner: &mut Inner) {
        while inner.resident > self.budget {
            let Some((tier, tick, key)) = inner.coldest() else {
                break;
            };
            let freed = match tier {
                Tier::Exact => {
                    inner.exact_lru.remove(&tick);
                    inner.exact.remove(&key).map_or(0, |s| s.bytes)
                }
                Tier::Prefix => {
                    inner.prefix_lru.remove(&tick);
                    inner.prefix.remove(&key).map_or(0, |s| s.bytes)
                }
            };
            inner.resident -= freed;
            self.evictions.inc();
            milo_trace::instant("cache.evict");
        }
    }

    /// Snapshot of the resident sizes and entry counts, for `stats`.
    pub fn stats(&self) -> CacheStats {
        let (resident, exact_entries, prefix_entries) = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            (inner.resident, inner.exact.len(), inner.prefix.len())
        };
        CacheStats {
            resident_bytes: resident,
            exact_entries,
            prefix_entries,
            disk_entries: self.disk.as_ref().map_or(0, DiskCache::len),
        }
    }
}

/// A pass that records the flow state into a shared slot and changes
/// nothing. The server inserts it after `fanout-repair` on full runs;
/// the worker moves the captured snapshot into the prefix tier once
/// the run succeeds (a failed run must not poison the cache).
pub struct CapturePrefix {
    slot: Arc<Mutex<Option<PrefixSnapshot>>>,
}

impl CapturePrefix {
    /// Creates the pass and the slot the snapshot lands in.
    pub fn new() -> (Self, Arc<Mutex<Option<PrefixSnapshot>>>) {
        let slot = Arc::new(Mutex::new(None));
        (Self { slot: slot.clone() }, slot)
    }
}

impl Pass for CapturePrefix {
    fn name(&self) -> &str {
        "capture-prefix"
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        let snap = PrefixSnapshot {
            work: ctx.work.clone(),
            db: ctx.db.clone(),
            top_name: ctx.top_name.clone(),
            mapped: ctx.mapped,
            critic: ctx.critic.clone(),
            levels: ctx.levels.clone(),
            buffers_inserted: ctx.buffers_inserted,
        };
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(snap);
        Ok(PassReport::noted(0, "snapshot captured"))
    }
}

/// A pass that overwrites the flow state with a [`PrefixSnapshot`],
/// placing the context exactly where a full run stands after
/// `fanout-repair`. Used as the first pass of the resume flow
/// (`restore-prefix` → `timing-area`).
pub struct RestorePrefix {
    snap: Arc<PrefixSnapshot>,
}

impl RestorePrefix {
    /// Creates the restore pass for `snap`.
    pub fn new(snap: Arc<PrefixSnapshot>) -> Self {
        Self { snap }
    }
}

impl Pass for RestorePrefix {
    fn name(&self) -> &str {
        "restore-prefix"
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        ctx.work = self.snap.work.clone();
        ctx.db.merge_from(&self.snap.db);
        ctx.top_name = self.snap.top_name.clone();
        ctx.mapped = self.snap.mapped;
        ctx.critic = self.snap.critic.clone();
        ctx.levels = self.snap.levels.clone();
        ctx.timing = None;
        ctx.buffers_inserted = self.snap.buffers_inserted;
        Ok(PassReport::noted(0, "prefix restored"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(name: &str, nets: usize) -> Netlist {
        let mut nl = Netlist::new(name);
        for i in 0..nets {
            nl.add_net(format!("n{i}"));
        }
        nl
    }

    fn payload(json: &str) -> Arc<CachedResult> {
        Arc::new(CachedResult {
            json: json.to_owned(),
            result_hash: Some(7),
        })
    }

    /// A cache on a fresh registry, plus the registry for counter reads.
    fn fresh(budget: Option<usize>, disk: Option<DiskCache>) -> (ResultCache, Registry) {
        let registry = Registry::new();
        (ResultCache::bounded(budget, disk, &registry), registry)
    }

    /// (exact, prefix) entries resident in memory.
    fn sizes(cache: &ResultCache) -> (usize, usize) {
        let stats = cache.stats();
        (stats.exact_entries, stats.prefix_entries)
    }

    fn snapshot(nets: usize) -> Arc<PrefixSnapshot> {
        Arc::new(PrefixSnapshot {
            work: toy("snap", nets),
            db: DesignDb::new(),
            top_name: None,
            mapped: false,
            critic: None,
            levels: Vec::new(),
            buffers_inserted: 0,
        })
    }

    /// The regression the exact key exists for: identical structure,
    /// different constraints, distinct keys. Before constraints were
    /// folded in, these aliased and a cached answer for one delay
    /// budget was served for another.
    #[test]
    fn job_key_covers_constraints() {
        let nl = toy("t", 3);
        let loose = Constraints::none().with_max_delay(9.0);
        let tight = Constraints::none().with_max_delay(4.5);
        assert_ne!(job_key(&nl, &loose), job_key(&nl, &tight));
        assert_ne!(
            job_key(&nl, &Constraints::none()),
            job_key(&nl, &Constraints::none().with_max_area(50.0)),
            "area-only difference still diverges"
        );
        assert_eq!(job_key(&nl, &loose), job_key(&nl, &loose), "deterministic");
    }

    #[test]
    fn job_key_covers_structure() {
        let c = Constraints::none();
        assert_ne!(job_key(&toy("t", 3), &c), job_key(&toy("t", 4), &c));
        assert_ne!(job_key(&toy("t", 3), &c), job_key(&toy("u", 3), &c));
    }

    #[test]
    fn prefix_key_tracks_only_the_tightest_delay() {
        let nl = toy("t", 3);
        let a = Constraints::none().with_max_delay(4.5);
        let b = Constraints::none().with_max_delay(4.5).with_max_area(50.0);
        let c = Constraints::none().with_max_delay(9.0);
        assert_eq!(
            prefix_key(&nl, &a),
            prefix_key(&nl, &b),
            "area budget does not dirty the prefix"
        );
        assert_ne!(prefix_key(&nl, &a), prefix_key(&nl, &c), "delay bound does");
        assert_ne!(
            prefix_key(&nl, &a),
            prefix_key(&nl, &Constraints::none()),
            "unconstrained is its own bucket"
        );
    }

    #[test]
    fn exact_and_prefix_keys_never_share_a_chain() {
        let nl = toy("t", 3);
        let c = Constraints::none();
        assert_ne!(job_key(&nl, &c), prefix_key(&nl, &c));
    }

    #[test]
    fn cache_tiers_store_and_return() {
        let (cache, _) = fresh(None, None);
        assert!(cache.lookup(1).is_none());
        cache.store(1, payload("{}"));
        let (got, tier) = cache.lookup(1).expect("stored entry returns");
        assert_eq!(got.result_hash, Some(7));
        assert_eq!(tier, HitTier::Memory);
        assert_eq!(sizes(&cache), (1, 0));
        assert!(cache.stats().resident_bytes > 0);
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        // Each entry costs ENTRY_OVERHEAD + 100 bytes; budget fits two.
        let body = "x".repeat(100);
        let (cache, registry) = fresh(Some(2 * (ENTRY_OVERHEAD + 100)), None);
        cache.store(1, payload(&body));
        cache.store(2, payload(&body));
        assert_eq!(sizes(&cache).0, 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(1).is_some());
        cache.store(3, payload(&body));
        assert!(cache.lookup(2).is_none(), "LRU entry evicted");
        assert!(cache.lookup(1).is_some(), "recently-touched survives");
        assert!(cache.lookup(3).is_some(), "newest survives");
        assert_eq!(registry.counter(EVICTIONS).get(), 1);
        assert!(cache.stats().resident_bytes <= 2 * (ENTRY_OVERHEAD + 100));
    }

    #[test]
    fn budget_spans_both_tiers() {
        // A large prefix snapshot and a budget that can't also hold two
        // exact entries: storing exacts must push the cold snapshot out.
        let snap = snapshot(64);
        let snap_bytes = snap.estimated_bytes();
        let body = "y".repeat(200);
        let (cache, registry) = fresh(Some(snap_bytes + 2 * (ENTRY_OVERHEAD + 200)), None);
        cache.store_prefix(9, snap);
        cache.store(1, payload(&body));
        cache.store(2, payload(&body));
        assert_eq!(sizes(&cache), (2, 1), "everything fits so far");
        cache.store(3, payload(&body));
        assert!(registry.counter(EVICTIONS).get() >= 1);
        assert_eq!(
            sizes(&cache).1,
            0,
            "the cold prefix snapshot was the global LRU victim"
        );
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn zero_budget_keeps_nothing_resident_but_disk_still_serves() {
        let dir = std::env::temp_dir().join(format!(
            "milo-serve-cache-zero-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = DiskCache::open(&dir).expect("disk opens");
        let (cache, registry) = fresh(Some(0), Some(disk));
        cache.store(5, payload("{\"z\": 0}"));
        assert_eq!(sizes(&cache), (0, 0), "nothing stays resident");
        let (got, tier) = cache.lookup(5).expect("disk replays");
        assert_eq!(got.json, "{\"z\": 0}");
        assert_eq!(tier, HitTier::Disk);
        assert_eq!(registry.counter(SPILLED).get(), 1);
        assert!(registry.counter(EVICTIONS).get() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_write_through_and_promotion() {
        let dir = std::env::temp_dir().join(format!(
            "milo-serve-cache-wt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = DiskCache::open(&dir).expect("disk opens");
        let body = "w".repeat(50);
        let (cache, registry) = fresh(Some(ENTRY_OVERHEAD + 50), Some(disk));
        cache.store(1, payload(&body));
        cache.store(2, payload(&body)); // evicts 1 from memory
        assert_eq!(
            registry.counter(SPILLED).get(),
            2,
            "write-through spills on store"
        );
        let (got, tier) = cache.lookup(1).expect("evicted entry replays from disk");
        assert_eq!(tier, HitTier::Disk);
        assert_eq!(got.json, body);
        // Promotion made 1 resident again, evicting 2.
        assert_eq!(cache.lookup(2).map(|(_, t)| t), Some(HitTier::Disk));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefix_snapshot_estimate_scales_with_the_netlist() {
        let small = snapshot(4).estimated_bytes();
        let large = snapshot(400).estimated_bytes();
        assert!(large > small + 300 * 96, "estimate tracks net count");
    }
}
