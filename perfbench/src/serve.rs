//! The `serve-mix` workload: an in-process `milo-serve` with one worker
//! per CPU, driven by a closed loop of one blocking `Client` connection
//! per CPU. Each job is `submit` followed by `result`, timed on the
//! client side. A fresh server starts for every repetition, so each
//! repetition meets the same cache outcomes.
//!
//! Service counters come only from the v1.1 `stats` keys (`cache`,
//! `queue`, `histograms`).

use crate::check::check_against_reference;
use crate::flows::{setup_batch, warm, Quality, SETUP_BATCHES};
use crate::report::{median, nproc, quantile, Metrics, Outcome};
use crate::workload::{library, serve_plan, JobKind, ServePlan, Size};
use milo_core::netlist::{DesignDb, Netlist};
use milo_core::techmap::TechLibrary;
use milo_core::timing::DesignStats;
use milo_core::{Constraints, Flow, Milo};
use milo_serve::{spawn, Client, ServerConfig, ServerHandle, SubmitOptions, Value};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

/// Starts a server on a free loopback port with `workers` synthesis
/// workers, an unbounded in-memory cache and no disk tier, whatever the
/// environment says.
pub fn spawn_server(lib: &TechLibrary, workers: usize) -> Result<ServerHandle, String> {
    let mut config = ServerConfig::new(lib.clone())
        .with_addr("127.0.0.1:0")
        .with_workers(workers);
    config.cache_bytes = None;
    config.cache_dir = None;
    spawn(config).map_err(|e| format!("spawn server: {e}"))
}

/// One answered job, as read off the wire.
#[derive(Clone, Debug)]
pub struct Served {
    /// Cache tier the server reports (`miss`, `hit`, `prefix-hit`, ...).
    pub tier: String,
    /// The result's structural hash (`"0x..."`).
    pub hash: String,
    /// Client-side latency, submit to result.
    pub latency_ms: f64,
    /// Flow wall time the report carries (the original run's, on hits).
    pub flow_total_s: f64,
    /// Result statistics and the baseline arm's.
    pub stats: DesignStats,
    /// Baseline statistics.
    pub baseline: DesignStats,
    /// Whether timing was met.
    pub timing_met: bool,
}

fn stats_of(v: Option<&Value>) -> DesignStats {
    let f = |k: &str| {
        v.and_then(|s| s.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    DesignStats {
        area: f("area"),
        delay: f("delay"),
        power: f("power"),
        cells: f("cells") as usize,
    }
}

/// Submits one design and blocks for its result.
pub fn submit_and_wait(
    client: &mut Client,
    text: &str,
    constraints: &Constraints,
) -> Result<Served, String> {
    let t = Instant::now();
    let job = client
        .submit_with(text, constraints, &SubmitOptions::new())
        .map_err(|e| format!("submit: {e}"))?;
    let v = client
        .result(job)
        .map_err(|e| format!("result of job {job}: {e}"))?;
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    if v.get("state").and_then(Value::as_str) != Some("done") {
        return Err(format!("job {job} did not finish: {v:?}"));
    }
    let output = v.get("output");
    let result = output.and_then(|o| o.get("result"));
    let flow = output.and_then(|o| o.get("flow"));
    Ok(Served {
        tier: v
            .get("cache")
            .and_then(Value::as_str)
            .unwrap_or("none")
            .to_owned(),
        hash: flow
            .and_then(|f| f.get("structural_hash"))
            .and_then(Value::as_str)
            .ok_or_else(|| format!("job {job}: no structural_hash in the report"))?
            .to_owned(),
        latency_ms,
        flow_total_s: flow
            .and_then(|f| f.get("total_ns"))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
            / 1e9,
        stats: stats_of(result.and_then(|r| r.get("stats"))),
        baseline: stats_of(result.and_then(|r| r.get("baseline"))),
        timing_met: result
            .and_then(|r| r.get("timing"))
            .and_then(|t| t.get("met"))
            .and_then(Value::as_bool)
            .unwrap_or(false),
    })
}

/// The service counters one repetition leaves behind, read from the
/// v1.1 `stats` keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// `cache.hits`.
    pub hits: f64,
    /// `cache.prefix_hits`.
    pub prefix_hits: f64,
    /// `cache.misses`.
    pub misses: f64,
    /// `cache.resident_bytes`.
    pub resident_bytes: f64,
    /// Sum of `histograms.queue_wait.*.sum`, in ns.
    pub queue_wait_ns: f64,
    /// Sum of `histograms.queue_wait.*.count`.
    pub queue_waits: f64,
}

/// Reads the service counters through a fresh connection.
pub fn service_stats(server: &ServerHandle) -> Result<ServiceStats, String> {
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let v = client.stats().map_err(|e| format!("stats: {e}"))?;
    let cache = v.get("cache");
    let c = |k: &str| {
        cache
            .and_then(|c| c.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    let mut s = ServiceStats {
        hits: c("hits"),
        prefix_hits: c("prefix_hits"),
        misses: c("misses"),
        resident_bytes: c("resident_bytes"),
        ..ServiceStats::default()
    };
    if let Some(Value::Obj(bands)) = v.get("histograms").and_then(|h| h.get("queue_wait")) {
        for (_, summary) in bands {
            s.queue_wait_ns += summary.get("sum").and_then(Value::as_f64).unwrap_or(0.0);
            s.queue_waits += summary.get("count").and_then(Value::as_f64).unwrap_or(0.0);
        }
    }
    Ok(s)
}

/// One repetition of the closed loop against a fresh server.
pub struct Rep {
    /// First submit to last result.
    pub wall_s: f64,
    /// Every answered job: (pair index, planned kind, answer).
    pub served: Vec<(usize, JobKind, Served)>,
    /// Jobs that errored.
    pub failures: Vec<String>,
    /// The counters the server reported afterwards.
    pub stats: ServiceStats,
}

/// A started server with one connected client per loop connection.
pub struct Ready {
    server: ServerHandle,
    clients: Vec<Client>,
}

/// The set-up of one repetition: generate the plan, start a server and
/// connect the clients.
pub fn setup(lib: &TechLibrary, size: Size, seed: u64) -> Result<(ServePlan, Ready), String> {
    warm(lib);
    let n = nproc();
    let plan = serve_plan(lib, size, seed, n)?;
    let server = spawn_server(lib, n)?;
    let clients = (0..n)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((plan, Ready { server, clients }))
}

/// Runs every connection's job list concurrently, then shuts the
/// server down.
pub fn run_rep(plan: &ServePlan, ready: Ready) -> Rep {
    let Ready {
        mut server,
        clients,
    } = ready;
    let barrier = Barrier::new(clients.len());
    type Answers = Vec<(usize, JobKind, Result<Served, String>)>;
    let per_conn: Vec<(Instant, Instant, Answers)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&plan.connections)
            .map(|(mut client, jobs)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let answers: Answers = jobs
                        .iter()
                        .map(|job| {
                            let pair = &plan.pairs[job.pair];
                            let answer = submit_and_wait(
                                &mut client,
                                &plan.pool[pair.design].text,
                                &pair.constraints,
                            );
                            (job.pair, job.kind, answer)
                        })
                        .collect();
                    (start, Instant::now(), answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let first = per_conn.iter().map(|(s, _, _)| *s).min();
    let last = per_conn.iter().map(|(_, e, _)| *e).max();
    let wall_s = match (first, last) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => f64::NAN,
    };
    let mut served = Vec::new();
    let mut failures = Vec::new();
    for (_, _, answers) in per_conn {
        for (pair, kind, answer) in answers {
            match answer {
                Ok(a) => served.push((pair, kind, a)),
                Err(e) => failures.push(e),
            }
        }
    }
    let stats = service_stats(&server).unwrap_or_else(|e| {
        failures.push(e);
        ServiceStats::default()
    });
    server.shutdown();
    Rep {
        wall_s,
        served,
        failures,
        stats,
    }
}

/// One offline run of a (design, constraints) pair whose result passed
/// the output check.
#[derive(Clone)]
pub struct Reference {
    /// Its result hash (`"0x..."`).
    pub hash: String,
    /// Its result statistics.
    pub stats: DesignStats,
    /// Whether it met timing.
    pub timing_met: bool,
}

/// The checked offline runs a served pair may match.
pub struct PairReference {
    /// `Flow::standard().run` on a fresh `Milo`.
    pub fresh: Reference,
    /// The same flow on a `Milo` whose database holds what every other
    /// pool design compiled (the service seeds each job with what
    /// earlier jobs compiled); `None` when it equals `fresh`.
    pub seeded: Option<Reference>,
}

impl Reference {
    /// Whether a served answer is this run's result.
    pub fn matches(&self, s: &Served) -> bool {
        s.hash == self.hash && s.stats == self.stats && s.timing_met == self.timing_met
    }
}

/// One offline `Flow::standard().run` on `milo`, with the output check
/// of its result.
pub fn checked_run(
    milo: &mut Milo,
    design: &Netlist,
    constraints: &Constraints,
    sequential: bool,
    seed: u64,
) -> Result<Reference, String> {
    let name = &design.name;
    let out = Flow::standard()
        .run(milo, design, constraints)
        .map_err(|e| format!("{name}: offline flow failed: {e}"))?;
    check_against_reference(
        milo.library(),
        design,
        &out.result.netlist,
        sequential,
        seed,
    )?;
    Ok(Reference {
        hash: format!("{:#018x}", out.report.result_hash.unwrap_or(0)),
        stats: out.result.stats,
        timing_met: out.result.timing.met,
    })
}

/// `db` without the designs a flow of `design` itself publishes
/// (`<name>__milo`, `<name>__elab`, ...): what the service's database
/// holds when that design is first seen, once every other design ran.
fn without_own(db: &DesignDb, design: &str) -> DesignDb {
    let own = format!("{design}__");
    let mut out = DesignDb::new();
    for (name, d) in db.entries() {
        if !name.starts_with(&own) {
            out.insert_shared(name, d.clone());
        }
    }
    out
}

/// The offline references of every pair the loop submits, each checked:
/// a fresh run, and a run seeded with what every other pool design
/// compiled (the service seeds each job with the designs earlier jobs
/// compiled, and which ones came earlier depends on job timing).
pub fn references(
    lib: &TechLibrary,
    plan: &ServePlan,
    seed: u64,
) -> Vec<Result<PairReference, String>> {
    let mut warm = Milo::new(lib.clone());
    for pd in &plan.pool {
        let first = Constraints::none().with_max_delay(pd.max_delay);
        if let Err(e) = Flow::standard().run(&mut warm, &pd.parsed, &first) {
            return vec![Err(format!("{}: offline flow failed: {e}", pd.parsed.name))];
        }
    }
    let warm = warm.into_database();
    plan.pairs
        .iter()
        .map(|pair| {
            let pd = &plan.pool[pair.design];
            let run = |milo: &mut Milo| {
                checked_run(milo, &pd.parsed, &pair.constraints, pd.sequential, seed)
            };
            let fresh = run(&mut Milo::new(lib.clone()))?;
            let seeded = run(&mut Milo::with_database(
                lib.clone(),
                without_own(&warm, &pd.parsed.name),
            ))?;
            Ok(PairReference {
                seeded: (seeded.hash != fresh.hash).then_some(seeded),
                fresh,
            })
        })
        .collect()
}

/// What [`check_reps`] found besides failures.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServedCheck {
    /// Pairs served as only the database-seeded offline run computes
    /// them: the service promises byte identity with the fresh one.
    pub seeded_only: usize,
    /// Pairs served as the fresh run in one repetition and as the seeded
    /// run in another: which one a job gets depends on job timing.
    pub unstable: usize,
}

/// Checks every answer. The service returns no netlist, so a served
/// result passes when its hash, statistics and timing verdict equal
/// those of a checked offline run of the same pair: the fresh one or the
/// database-seeded one. A result that matches neither is a failure.
pub fn check_reps(
    references: &[Result<PairReference, String>],
    reps: &[Rep],
    failures: &mut Vec<String>,
) -> ServedCheck {
    let mut hashes: BTreeMap<usize, std::collections::BTreeSet<&str>> = BTreeMap::new();
    let mut seeded_only = std::collections::BTreeSet::new();
    for (pair, reference) in references.iter().enumerate() {
        if let Err(e) = reference {
            failures.push(format!("pair {pair}: {e}"));
        }
    }
    for rep in reps {
        for (pair, kind, served) in &rep.served {
            hashes.entry(*pair).or_default().insert(&served.hash);
            let Ok(want) = &references[*pair] else {
                continue;
            };
            if want.fresh.matches(served) {
                continue;
            }
            if want.seeded.as_ref().is_some_and(|r| r.matches(served)) {
                seeded_only.insert(*pair);
            } else {
                failures.push(format!(
                    "pair {pair} ({kind:?}, served as {}): hash {} {:?} matches no checked \
                     offline run (fresh {} {:?})",
                    served.tier, served.hash, served.stats, want.fresh.hash, want.fresh.stats
                ));
            }
        }
    }
    ServedCheck {
        seeded_only: seeded_only.len(),
        unstable: hashes.values().filter(|h| h.len() > 1).count(),
    }
}

/// Per-tier client-side p50 latencies, tier shares, queue wait and
/// cache residency, as per-layer metrics.
pub fn record_layer_metrics(served: &[&Served], stats: &[ServiceStats], m: &mut Metrics) {
    let lat = |tier: &str| -> Vec<f64> {
        served
            .iter()
            .filter(|s| s.tier == tier)
            .map(|s| s.latency_ms)
            .collect()
    };
    m.set("serve.hit_p50_ms", quantile(&lat("hit"), 0.5), "ms");
    m.set(
        "serve.prefix_p50_ms",
        quantile(&lat("prefix-hit"), 0.5),
        "ms",
    );
    m.set("serve.miss_p50_ms", quantile(&lat("miss"), 0.5), "ms");
    let sum = |f: fn(&ServiceStats) -> f64| stats.iter().map(f).sum::<f64>();
    let (hits, prefix, misses) = (sum(|s| s.hits), sum(|s| s.prefix_hits), sum(|s| s.misses));
    let total = (hits + prefix + misses).max(1.0);
    m.set("serve.hit_share", hits / total, "share");
    m.set("serve.prefix_share", prefix / total, "share");
    m.set("serve.miss_share", misses / total, "share");
    m.set(
        "serve.queue_wait_mean_ms",
        sum(|s| s.queue_wait_ns) / sum(|s| s.queue_waits).max(1.0) / 1e6,
        "ms",
    );
    m.set(
        "serve.resident_mb",
        median(&stats.iter().map(|s| s.resident_bytes).collect::<Vec<_>>()) / 1e6,
        "MB",
    );
}

/// The untraced run of `serve-mix`: repetitions (each with its own
/// set-up and fresh server) while another one fits in `seconds`, at
/// least one; then the offline reference check. The set-up of each
/// repetition is a timed batch (topped up at the end to
/// [`SETUP_BATCHES`] batches); the servers of a batch's other set-ups
/// are shut down outside the timed region.
pub fn measure(size: Size, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let lib = library();
    let set_up = || setup(&lib, size, seed);
    let discard = |(_, mut ready): (ServePlan, Ready)| ready.server.shutdown();
    let mut setup_batches = Vec::new();
    let mut reps = Vec::new();
    let started = Instant::now();
    let mut plan = None;
    let mut peak_rss_mb = f64::NAN;
    let mut rep_costs = Vec::new();
    // Start another repetition only if it should end within the window.
    while reps.is_empty() || started.elapsed().as_secs_f64() + median(&rep_costs) <= seconds {
        let t = Instant::now();
        let (batch_s, (p, ready)) = setup_batch(set_up, discard)?;
        setup_batches.push(batch_s);
        reps.push(run_rep(&p, ready));
        rep_costs.push(t.elapsed().as_secs_f64());
        plan = Some(p);
        if reps.len() == 1 {
            peak_rss_mb = crate::report::peak_rss_mb();
        }
    }
    while setup_batches.len() < SETUP_BATCHES {
        let (batch_s, set) = setup_batch(set_up, discard)?;
        setup_batches.push(batch_s);
        discard(set);
    }
    let plan = plan.expect("at least one repetition ran");
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    let served = check_reps(&references(&lib, &plan, seed), &reps, &mut failures);

    let attempted = plan.jobs() * reps.len();
    let job_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.served.iter().map(|(_, _, s)| s.latency_ms))
        .collect();
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_batches), "s");
    m.set(
        "wall_s",
        median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        "s",
    );
    m.set(
        "jobs_per_s",
        median(
            &reps
                .iter()
                .map(|r| plan.jobs() as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        ),
        "1/s",
    );
    m.set("job_p50_ms", quantile(&job_ms, 0.5), "ms");
    m.set("job_p99_ms", quantile(&job_ms, 0.99), "ms");
    m.set("peak_rss_mb", peak_rss_mb, "MB");
    quality(&reps[0]).record(&mut m);
    let tiers = |r: &Rep| (r.stats.hits, r.stats.prefix_hits, r.stats.misses);
    eprintln!(
        "perfbench: repetition walls {:.3?} s, set-up batch means {setup_batches:.4?} s",
        reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()
    );
    eprintln!(
        "perfbench: {} repetitions x {} jobs on {} connections; {} distinct pairs, {:?}; \
         cache (hits, prefix hits, misses) per repetition: {:?}; {} failed",
        reps.len(),
        plan.jobs(),
        plan.connections.len(),
        plan.pairs.len(),
        served,
        reps.iter().map(tiers).collect::<Vec<_>>(),
        failures.len()
    );
    Ok(Outcome {
        attempted,
        failures,
        metrics: m,
    })
}

/// Quality of what one repetition served for each design's first
/// submission (one result per pool design).
fn quality(rep: &Rep) -> Quality {
    Quality::of(
        &rep.served
            .iter()
            .filter(|(_, kind, _)| *kind == JobKind::First)
            .map(|(_, _, s)| (s.stats, s.baseline, s.timing_met))
            .collect::<Vec<_>>(),
    )
}
