//! Service metrics: job counters, cache effectiveness, per-pass wall
//! time, and worker utilization — everything the `stats` request
//! reports.
//!
//! Every number lives in one private [`milo_trace::Registry`] per
//! server: job and cache-outcome counters (`serve.jobs.*`,
//! `serve.cache.*`, including the cache's own eviction and spill
//! counters), the `running` gauge, worker busy time, and log-bucketed
//! histograms for per-pass wall time (`serve.pass_ns.<pass>`) and
//! per-band queue wait (`serve.queue_wait_ns.<band>`), so `stats` can
//! report p50/p95/p99 without the server smoothing anything away.
//! Handles are resolved once in [`Metrics::new`], so recording is one
//! relaxed atomic with no registry lookup on the submit or claim path.
//! The registry is per-instance, not [`milo_trace::Registry::global`],
//! so concurrent servers in one test process never see each other's
//! samples. The per-pass counts double as the cache-effectiveness
//! oracle in tests: a cache-hit job moves job counters but no pass
//! histogram.

use crate::cache::{CacheStats, EVICTIONS, SPILLED};
use crate::scheduler::QueueStats;
use milo_core::{FlowReport, PassOutcome};
use milo_trace::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Registry prefix for per-pass wall-time histograms.
const PASS_PREFIX: &str = "serve.pass_ns.";
/// Registry prefix for per-band queue-wait histograms.
const WAIT_PREFIX: &str = "serve.queue_wait_ns.";
/// Band names, indexed by [`crate::protocol::Priority::index`].
const BAND_NAMES: [&str; 3] = ["high", "normal", "low"];

/// Live service counters: handles into the server's registry.
pub struct Metrics {
    started: Instant,
    workers: u64,
    registry: Registry,
    submitted: Arc<Counter>,
    running: Arc<Gauge>,
    done: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
    busy_ns: Arc<Counter>,
    hits: Arc<Counter>,
    prefix_hits: Arc<Counter>,
    disk_hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    spilled: Arc<Counter>,
    queue_wait: [Arc<Histogram>; 3],
}

impl Metrics {
    /// Fresh counters for a server with `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        let registry = Registry::new();
        let counter = |name: &str| registry.counter(&format!("serve.{name}"));
        Self {
            started: Instant::now(),
            workers: workers as u64,
            submitted: counter("jobs.submitted"),
            running: registry.gauge("serve.jobs.running"),
            done: counter("jobs.done"),
            failed: counter("jobs.failed"),
            cancelled: counter("jobs.cancelled"),
            busy_ns: counter("busy_ns"),
            hits: counter("cache.hits"),
            prefix_hits: counter("cache.prefix_hits"),
            disk_hits: counter("cache.disk_hits"),
            misses: counter("cache.misses"),
            evictions: registry.counter(EVICTIONS),
            spilled: registry.counter(SPILLED),
            queue_wait: std::array::from_fn(|i| {
                registry.histogram(&format!("{WAIT_PREFIX}{}", BAND_NAMES[i]))
            }),
            registry,
        }
    }

    /// This server's private metric registry (the result cache takes
    /// its eviction and spill counters from it).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A job entered the queue.
    pub fn submitted(&self) {
        self.submitted.inc();
    }

    /// A worker picked a job up.
    pub fn running(&self) {
        self.running.add(1);
    }

    /// A job left the running state, successfully.
    pub fn done(&self) {
        self.running.add(-1);
        self.done.inc();
    }

    /// A job left the running state with an error.
    pub fn failed(&self) {
        self.running.add(-1);
        self.failed.inc();
    }

    /// A job was cancelled before (or instead of) running.
    pub fn cancelled(&self) {
        self.cancelled.inc();
    }

    /// Exact-tier cache hit (no passes ran).
    pub fn cache_hit(&self) {
        self.hits.inc();
    }

    /// Prefix-tier hit (resume flow ran from the first dirty pass).
    pub fn prefix_hit(&self) {
        self.prefix_hits.inc();
    }

    /// Exact hit served from the disk spill store (no passes ran; the
    /// entry was promoted back into memory).
    pub fn disk_hit(&self) {
        self.disk_hits.inc();
    }

    /// Full synthesis run.
    pub fn cache_miss(&self) {
        self.misses.inc();
    }

    /// Worker busy time spent on one job.
    pub fn busy(&self, ns: u64) {
        self.busy_ns.add(ns);
    }

    /// Records how long a work unit sat queued in `band` (a
    /// [`crate::protocol::Priority::index`]) before a worker claimed
    /// it.
    pub fn queue_wait(&self, band: usize, wait_ns: u64) {
        if let Some(h) = self.queue_wait.get(band) {
            h.record(wait_ns);
        }
    }

    /// Folds one finished flow's per-pass wall times in. A pass its
    /// skip predicate skipped records nothing.
    pub fn record_passes(&self, report: &FlowReport) {
        for p in &report.passes {
            if p.outcome == PassOutcome::Skipped {
                continue;
            }
            self.registry
                .histogram(&format!("{PASS_PREFIX}{}", p.name))
                .record(u64::try_from(p.wall.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Renders the `stats` object from the registry, plus the
    /// scheduler and cache-lock snapshots the caller took. Cache hit
    /// rate is exact hits (memory or disk) over terminal lookups;
    /// utilization is busy time over `workers × uptime`. Histograms
    /// (per-band queue wait and per-pass wall time) are each
    /// summarized as `{"count", "sum", "mean", "p50", "p95", "p99"}`.
    pub fn to_json(&self, queue: &QueueStats, cache: &CacheStats) -> String {
        let (hits, disk_hits) = (self.hits.get(), self.disk_hits.get());
        let (prefix, misses) = (self.prefix_hits.get(), self.misses.get());
        let looked = hits + disk_hits + prefix + misses;
        let hit_rate = if looked == 0 {
            0.0
        } else {
            (hits + disk_hits) as f64 / looked as f64
        };
        let uptime_ns = self.started.elapsed().as_nanos() as u64;
        let capacity = self.workers.saturating_mul(uptime_ns);
        let utilization = if capacity == 0 {
            0.0
        } else {
            (self.busy_ns.get() as f64 / capacity as f64).min(1.0)
        };
        let pass_summaries = self
            .registry
            .histograms_with_prefix(PASS_PREFIX)
            .iter()
            .map(|(name, snap)| {
                let short = milo_core::json_string(&name[PASS_PREFIX.len()..]);
                format!("{short}: {}", snap.summary_json())
            })
            .collect::<Vec<_>>()
            .join(", ");
        let queue_wait = BAND_NAMES
            .iter()
            .zip(&self.queue_wait)
            .map(|(name, h)| format!("\"{name}\": {}", h.snapshot().summary_json()))
            .collect::<Vec<_>>()
            .join(", ");
        let bands = BAND_NAMES
            .iter()
            .zip(&queue.bands)
            .map(|(name, b)| {
                format!(
                    "\"{name}\": {{\"depth\": {}, \"scheduled\": {}}}",
                    b.depth, b.scheduled
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"workers\": {}, \"uptime_ns\": {}, \"jobs\": {{\"submitted\": {}, \"running\": {}, \"done\": {}, \"failed\": {}, \"cancelled\": {}}}, \
             \"cache\": {{\"hits\": {}, \"prefix_hits\": {}, \"disk_hits\": {}, \"misses\": {}, \"hit_rate\": {}, \"evictions\": {}, \"spilled\": {}, \"resident_bytes\": {}, \"exact_entries\": {}, \"prefix_entries\": {}, \"disk_entries\": {}}}, \
             \"queue\": {{\"depth\": {}, \"clients\": {}, \"bands\": {{{}}}}}, \
             \"histograms\": {{\"queue_wait\": {{{}}}, \"passes\": {{{}}}}}, \
             \"worker_utilization\": {}}}",
            self.workers,
            uptime_ns,
            self.submitted.get(),
            self.running.get(),
            self.done.get(),
            self.failed.get(),
            self.cancelled.get(),
            hits,
            prefix,
            disk_hits,
            misses,
            hit_rate,
            self.evictions.get(),
            self.spilled.get(),
            cache.resident_bytes,
            cache.exact_entries,
            cache.prefix_entries,
            cache.disk_entries,
            queue.depth,
            queue.clients,
            bands,
            queue_wait,
            pass_summaries,
            utilization,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CachedResult, HitTier, ResultCache};
    use crate::disk::DiskCache;
    use crate::json::Value;
    use milo_core::PassReport;
    use std::time::Duration;

    fn report(passes: &[(&str, PassOutcome, u64)]) -> FlowReport {
        FlowReport {
            passes: passes
                .iter()
                .map(|&(name, outcome, wall_ns)| PassReport {
                    name: name.to_owned(),
                    outcome,
                    wall: Duration::from_nanos(wall_ns),
                    ..PassReport::default()
                })
                .collect(),
            ..FlowReport::default()
        }
    }

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new(2);
        m.submitted();
        m.submitted();
        m.running();
        m.cache_miss();
        m.done();
        m.running();
        m.cache_hit();
        m.done();
        m.busy(1_000);
        m.record_passes(&report(&[
            ("compile", PassOutcome::Completed, 500),
            ("timing-area", PassOutcome::Completed, 300),
        ]));
        m.record_passes(&report(&[
            ("compile", PassOutcome::Completed, 100),
            ("skipped", PassOutcome::Skipped, 9),
        ]));
        m.disk_hit();
        m.queue_wait(1, 2_000);
        m.queue_wait(1, 4_000);
        m.registry().counter(EVICTIONS).add(2);
        m.registry().counter(SPILLED).add(3);

        let queue = QueueStats {
            depth: 3,
            clients: 2,
            bands: {
                let mut bands = [crate::scheduler::BandStats::default(); 3];
                bands[1].depth = 3;
                bands[1].scheduled = 7;
                bands
            },
        };
        let cache_stats = CacheStats {
            resident_bytes: 4096,
            exact_entries: 1,
            prefix_entries: 0,
            disk_entries: 5,
        };
        let json = m.to_json(&queue, &cache_stats);
        let v = crate::json::parse(&json).expect("stats json parses");
        let jobs = v.get("jobs").expect("jobs object");
        assert_eq!(jobs.get("submitted").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(jobs.get("running").and_then(|x| x.as_u64()), Some(0));
        assert_eq!(jobs.get("done").and_then(|x| x.as_u64()), Some(2));
        assert!(jobs.get("queued").is_none(), "no flat jobs.queued key");
        assert!(
            v.get("passes").is_none(),
            "no legacy top-level passes table"
        );
        let Value::Obj(members) = &v else {
            panic!("stats is an object: {json}")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "workers",
                "uptime_ns",
                "jobs",
                "cache",
                "queue",
                "histograms",
                "worker_utilization"
            ],
            "no top-level key beyond the schema (no design-store sizes)"
        );
        let cache = v.get("cache").expect("cache object");
        assert_eq!(cache.get("hits").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(cache.get("disk_hits").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(cache.get("misses").and_then(|x| x.as_u64()), Some(1));
        // 1 memory hit + 1 disk hit over 3 terminal lookups.
        assert_eq!(
            cache.get("hit_rate").and_then(|x| x.as_f64()),
            Some(2.0 / 3.0)
        );
        assert_eq!(cache.get("evictions").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(cache.get("spilled").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(
            cache.get("resident_bytes").and_then(|x| x.as_u64()),
            Some(4096)
        );
        assert_eq!(cache.get("disk_entries").and_then(|x| x.as_u64()), Some(5));
        let q = v.get("queue").expect("queue object");
        assert_eq!(q.get("depth").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(q.get("clients").and_then(|x| x.as_u64()), Some(2));
        let normal = q.get("bands").and_then(|b| b.get("normal")).expect("band");
        assert_eq!(normal.get("depth").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(normal.get("scheduled").and_then(|x| x.as_u64()), Some(7));
        let hists = v.get("histograms").expect("histograms object");
        let wait = hists
            .get("queue_wait")
            .and_then(|w| w.get("normal"))
            .expect("normal-band queue wait");
        assert_eq!(wait.get("count").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(wait.get("sum").and_then(|x| x.as_u64()), Some(6_000));
        assert!(
            wait.get("p95").and_then(|x| x.as_u64()).expect("p95") >= 4_000,
            "p95 bound covers the slowest wait"
        );
        let passes = hists.get("passes").expect("pass summaries");
        let compile = passes.get("compile").expect("compile summary");
        assert_eq!(compile.get("count").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(compile.get("sum").and_then(|x| x.as_u64()), Some(600));
        assert!(compile.get("p50").is_some());
        let timing = passes.get("timing-area").expect("timing-area summary");
        assert_eq!(timing.get("count").and_then(|x| x.as_u64()), Some(1));
        assert!(passes.get("skipped").is_none(), "skipped slots don't count");
    }

    /// A disk hit goes through the cache (which only reports the tier)
    /// and then the server's outcome counter: `cache.disk_hits` moves
    /// by exactly one, and the cache's spill and eviction counters land
    /// in the same registry.
    #[test]
    fn one_disk_hit_counts_once() {
        let dir = std::env::temp_dir().join(format!("milo-serve-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = Metrics::new(1);
        let disk = DiskCache::open(&dir).expect("disk opens");
        let cache = ResultCache::bounded(Some(0), Some(disk), m.registry());
        let payload = CachedResult {
            json: "{}".to_owned(),
            result_hash: None,
        };
        cache.store(1, Arc::new(payload));
        let cache_counter = |key: &str| {
            let v = crate::json::parse(&m.to_json(&QueueStats::default(), &cache.stats()))
                .expect("stats json parses");
            v.get("cache")
                .and_then(|c| c.get(key))
                .and_then(|x| x.as_u64())
                .expect("cache counter")
        };
        assert_eq!(cache_counter("disk_hits"), 0);

        let (_, tier) = cache.lookup(1).expect("disk replays");
        assert_eq!(tier, HitTier::Disk);
        assert_eq!(cache_counter("disk_hits"), 0, "the cache counts nothing");
        m.disk_hit();
        assert_eq!(cache_counter("disk_hits"), 1);
        assert_eq!(cache_counter("spilled"), 1);
        assert!(cache_counter("evictions") >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
