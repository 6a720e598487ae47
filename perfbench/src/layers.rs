//! The traced run: per-layer numbers for each workload.
//!
//! Tracing is switched on (`milo_trace`), and every flow runs with four
//! probe passes inserted around `bottom-up-logic` and `timing-area`
//! that snapshot what those passes receive and hash what they produce.
//! The layers are then timed from the benchmark's own code by replaying
//! each pass through the layer's public functions on its snapshot:
//! the rule engine with a counting wrapper around every logic rule, the
//! timing-path and area-path optimizers, one STA, and the compilers,
//! technology mapper and micro-level feedback measurement on the entry
//! design. A replay that does not reproduce its pass (applied count and
//! result hash) is a failure. Counters the program keeps in
//! `Registry::global()` are read as before/after deltas around the
//! traced flows, since they are process-wide and cumulative.

use crate::check::{check_result, reference};
use crate::flows::{self, FlowSetup};
use crate::report::{median, Metrics, Outcome};
use crate::serve::{
    self as serve_wl, checked_run, spawn_server, submit_and_wait, Reference, Served,
};
use crate::workload::{library, Case, Size, Workload};
use milo_core::compilers::expand_micro_components;
use milo_core::netlist::{
    structural_hash, ComponentId, ComponentKind, DesignDb, Netlist, NetlistError,
};
use milo_core::opt::logic_rules;
use milo_core::rules::{
    Engine, HashRuleTable, LibraryRef, Locality, Rule, RuleClass, RuleCtx, RuleMatch, Selection, Tx,
};
use milo_core::techmap::{enforce_fanout, map_netlist, TechLibrary};
use milo_core::timing::{analyze, statistics, Endpoint};
use milo_core::trace::{self, Registry};
use milo_core::{
    Constraints, Flow, FlowContext, FlowEvent, FlowOutput, Milo, MiloError, Pass, PassReport,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The five paper passes, in flow order.
pub const PASSES: [&str; 5] = [
    "micro-critic",
    "compile",
    "bottom-up-logic",
    "fanout-repair",
    "timing-area",
];

/// The six logic rules `bottom-up-logic` runs, in `logic_rules` order.
pub const RULES: [&str; 6] = [
    "inverter-pair-elimination",
    "buffer-elimination",
    "duplicate-gate-merge",
    "mux-dff-merge",
    "mux-into-muxdff",
    "dead-cell-removal",
];

/// `NetlistError` kinds, as metric-name suffixes.
pub const REJECT_KINDS: [&str; 9] = [
    "no_such_component",
    "no_such_net",
    "no_such_pin",
    "pin_already_connected",
    "pin_not_connected",
    "net_in_use",
    "no_such_port",
    "combinational_cycle",
    "hierarchy_present",
];

fn kind_index(e: &NetlistError) -> usize {
    match e {
        NetlistError::NoSuchComponent(_) => 0,
        NetlistError::NoSuchNet(_) => 1,
        NetlistError::NoSuchPin(_) => 2,
        NetlistError::PinAlreadyConnected(_) => 3,
        NetlistError::PinNotConnected(_) => 4,
        NetlistError::NetInUse(_) => 5,
        NetlistError::NoSuchPort(_) => 6,
        NetlistError::CombinationalCycle => 7,
        NetlistError::HierarchyPresent(_) => 8,
    }
}

// ---------------------------------------------------------------------
// Counting rule wrapper
// ---------------------------------------------------------------------

/// What the counting wrapper saw of one rule.
#[derive(Default)]
pub struct RuleTally {
    /// Calls to `apply`.
    pub attempts: Cell<u64>,
    /// `apply` errors, by `NetlistError` kind (see [`REJECT_KINDS`]).
    pub rejects: [Cell<u64>; 9],
    /// Time inside `apply`.
    pub apply_ns: Cell<u64>,
    /// Time inside `matches` and `matches_at`.
    pub match_ns: Cell<u64>,
}

fn add_elapsed(cell: &Cell<u64>, since: Instant) {
    cell.set(cell.get() + since.elapsed().as_nanos() as u64);
}

/// Forwards every `Rule` method to the wrapped rule, so matching and
/// STA behaviour are unchanged, and counts and times what passes
/// through.
pub struct CountingRule {
    inner: Box<dyn Rule>,
    tally: Rc<RuleTally>,
}

impl CountingRule {
    /// Wraps `inner`; the returned tally fills in as the engine runs.
    pub fn wrap(inner: Box<dyn Rule>) -> (Self, Rc<RuleTally>) {
        let tally = Rc::new(RuleTally::default());
        (
            Self {
                inner,
                tally: tally.clone(),
            },
            tally,
        )
    }
}

impl Rule for CountingRule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn class(&self) -> RuleClass {
        self.inner.class()
    }

    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        let t = Instant::now();
        let out = self.inner.matches(ctx);
        add_elapsed(&self.tally.match_ns, t);
        out
    }

    fn locality(&self) -> Locality {
        self.inner.locality()
    }

    fn uses_sta(&self) -> bool {
        self.inner.uses_sta()
    }

    fn matches_at(&self, ctx: &RuleCtx, anchor: ComponentId) -> Vec<RuleMatch> {
        let t = Instant::now();
        let out = self.inner.matches_at(ctx, anchor);
        add_elapsed(&self.tally.match_ns, t);
        out
    }

    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        self.tally.attempts.set(self.tally.attempts.get() + 1);
        let t = Instant::now();
        let out = self.inner.apply(tx, m);
        add_elapsed(&self.tally.apply_ns, t);
        if let Err(e) = &out {
            let slot = &self.tally.rejects[kind_index(e)];
            slot.set(slot.get() + 1);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Probed flow
// ---------------------------------------------------------------------

/// What a probe saw at its point in the flow.
#[derive(Clone)]
pub struct Snapshot {
    /// The work netlist.
    pub work: Netlist,
    /// The design database.
    pub db: DesignDb,
    /// The compiled top's database name, once published.
    pub top_name: Option<String>,
    /// `structural_hash(work)`.
    pub hash: u64,
}

type SnapshotSlot = Arc<Mutex<Option<Snapshot>>>;

/// A pass that records the flow state and changes nothing.
struct Probe {
    name: &'static str,
    slot: SnapshotSlot,
    keep_netlist: bool,
}

impl Pass for Probe {
    fn name(&self) -> &str {
        self.name
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        let snap = Snapshot {
            work: if self.keep_netlist {
                ctx.work.clone()
            } else {
                Netlist::default()
            },
            db: if self.keep_netlist {
                ctx.db.clone()
            } else {
                DesignDb::new()
            },
            top_name: ctx.top_name.clone(),
            hash: structural_hash(&ctx.work),
        };
        *self.slot.lock().expect("probe slot is never poisoned") = Some(snap);
        Ok(PassReport::noted(0, "benchmark probe"))
    }
}

/// A traced flow with its probe snapshots and pass reports.
pub struct Probed {
    /// The flow's output.
    pub out: FlowOutput,
    /// `PassFinished` reports of the five paper passes, by name.
    pub passes: BTreeMap<String, PassReport>,
    /// Sum of the probe passes' own wall time.
    pub probe_s: f64,
    /// What `bottom-up-logic` received.
    pub before_bottom_up: Snapshot,
    /// Hash of what `bottom-up-logic` produced.
    pub after_bottom_up: u64,
    /// What `timing-area` received.
    pub before_timing_area: Snapshot,
    /// Hash of what `timing-area` produced.
    pub after_timing_area: u64,
}

/// Runs `Flow::standard()` with the four probes and a pass observer.
pub fn probed_flow(lib: &TechLibrary, case: &Case) -> Result<Probed, String> {
    let slots: [SnapshotSlot; 4] = Default::default();
    let mut flow = Flow::standard();
    let probe = |name, i: usize, keep_netlist| Probe {
        name,
        slot: slots[i].clone(),
        keep_netlist,
    };
    flow.insert_before("bottom-up-logic", probe("probe:before-bottom-up", 0, true));
    flow.insert_after("bottom-up-logic", probe("probe:after-bottom-up", 1, false));
    flow.insert_before("timing-area", probe("probe:before-timing-area", 2, true));
    flow.insert_after("timing-area", probe("probe:after-timing-area", 3, false));
    let reports: Arc<Mutex<Vec<PassReport>>> = Arc::default();
    let sink = reports.clone();
    flow.observe(move |ev| {
        if let FlowEvent::PassFinished { report, .. } = ev {
            sink.lock()
                .expect("observer sink is never poisoned")
                .push((*report).clone());
        }
    });
    let mut milo = Milo::new(lib.clone());
    let out = flow
        .run(&mut milo, &case.design, &case.constraints)
        .map_err(|e| format!("{}: traced flow failed: {e}", case.design.name))?;
    let take = |i: usize| {
        slots[i]
            .lock()
            .expect("probe slot is never poisoned")
            .take()
            .ok_or_else(|| format!("{}: probe {i} did not run", case.design.name))
    };
    let reports = std::mem::take(&mut *reports.lock().expect("observer sink is never poisoned"));
    let probe_s = reports
        .iter()
        .filter(|r| r.name.starts_with("probe:"))
        .map(|r| r.wall.as_secs_f64())
        .sum();
    Ok(Probed {
        passes: reports
            .into_iter()
            .filter(|r| !r.name.starts_with("probe:"))
            .map(|r| (r.name.clone(), r))
            .collect(),
        probe_s,
        before_bottom_up: take(0)?,
        after_bottom_up: take(1)?.hash,
        before_timing_area: take(2)?,
        after_timing_area: take(3)?.hash,
        out,
    })
}

// ---------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------

/// Designs instantiated by `nl`.
fn instance_deps(nl: &Netlist) -> Vec<String> {
    let mut out = Vec::new();
    for id in nl.component_ids() {
        if let Ok(c) = nl.component(id) {
            if let ComponentKind::Instance { design, .. } = &c.kind {
                if !out.contains(design) {
                    out.push(design.clone());
                }
            }
        }
    }
    out
}

/// Leaf-first order of the designs reachable from `top`, the order
/// `optimize_bottom_up` visits them in.
fn dependency_order(top: &str, db: &DesignDb) -> Vec<String> {
    fn visit(name: &str, db: &DesignDb, order: &mut Vec<String>, visiting: &mut Vec<String>) {
        if order.iter().any(|n| n == name) || visiting.iter().any(|n| n == name) {
            return;
        }
        visiting.push(name.to_owned());
        if let Some(design) = db.get(name) {
            for dep in instance_deps(design) {
                visit(&dep, db, order, visiting);
            }
        }
        visiting.pop();
        order.push(name.to_owned());
    }
    let mut order = Vec::new();
    visit(top, db, &mut order, &mut Vec::new());
    order
}

/// Rule-engine totals of a bottom-up replay.
#[derive(Default)]
pub struct EngineTally {
    /// Wall time of the `Engine::run` calls.
    pub run_s: f64,
    /// Per rule (in [`RULES`] order): `apply` calls.
    pub attempts: [u64; 6],
    /// Per rule: `apply` errors.
    pub rejects: [u64; 6],
    /// Per rule: firings the engine recorded.
    pub fired: [u64; 6],
    /// All rules: `apply` errors by kind.
    pub rejects_by_kind: [u64; 9],
    /// All rules: time in `apply`.
    pub apply_s: f64,
    /// All rules: time in `matches` / `matches_at`.
    pub match_s: f64,
}

/// Replays `bottom-up-logic` from its snapshot: publish the compiled
/// top, then for every design leaf-first flatten, map and run the rule
/// engine over counting-wrapped `logic_rules`, exactly as
/// `optimize_bottom_up` does. Adds to `tally`; returns the firings and
/// the hash of the flattened top.
pub fn replay_bottom_up(
    lib: &TechLibrary,
    snap: &Snapshot,
    tally: &mut EngineTally,
) -> Result<(u64, u64), String> {
    if snap.top_name.is_none() {
        return Err("bottom-up replay: the compiled top was never published".to_owned());
    }
    let mut db = snap.db.clone();
    let top = db.insert(snap.work.clone());
    let mut fired = 0;
    for name in dependency_order(&top, &db) {
        let flat = db
            .flatten(&name)
            .map_err(|e| format!("flatten {name}: {e}"))?;
        let mut mapped = map_netlist(&flat, lib).map_err(|e| format!("map {name}: {e}"))?;
        let mut tallies = Vec::new();
        let rules: Vec<Box<dyn Rule>> = logic_rules(lib)
            .into_iter()
            .map(|r| {
                let (wrapped, t) = CountingRule::wrap(r);
                tallies.push(t);
                Box::new(wrapped) as Box<dyn Rule>
            })
            .collect();
        let mut engine = Engine::new(rules);
        let t = Instant::now();
        engine.run(&mut mapped, Selection::OpsOrder, None, 10_000);
        tally.run_s += t.elapsed().as_secs_f64();
        for (i, rule_tally) in tallies.iter().enumerate() {
            let slot = RULES.iter().position(|r| *r == engine.rules()[i].name());
            let Some(slot) = slot else {
                return Err(format!("unknown logic rule {}", engine.rules()[i].name()));
            };
            tally.attempts[slot] += rule_tally.attempts.get();
            for (k, c) in rule_tally.rejects.iter().enumerate() {
                tally.rejects[slot] += c.get();
                tally.rejects_by_kind[k] += c.get();
            }
            tally.apply_s += rule_tally.apply_ns.get() as f64 / 1e9;
            tally.match_s += rule_tally.match_ns.get() as f64 / 1e9;
        }
        for firing in &engine.firings {
            if let Some(slot) = RULES.iter().position(|r| *r == firing.rule) {
                tally.fired[slot] += 1;
            }
        }
        fired += engine.firings.len() as u64;
        mapped.name = name.clone();
        db.insert(mapped);
    }
    let top_flat = db
        .flatten(&top)
        .map_err(|e| format!("flatten {top}: {e}"))?;
    Ok((fired, structural_hash(&top_flat)))
}

/// Times and results of a `timing-area` replay.
pub struct TimingAreaReplay {
    /// Time in `optimize_timing_paths`.
    pub timing_s: f64,
    /// Strategies it applied.
    pub timing_applied: usize,
    /// Time in `optimize_area_paths`.
    pub area_s: f64,
    /// Steps it applied.
    pub area_applied: usize,
    /// The timing verdict of `optimize_timing_paths`.
    pub timing_met: bool,
    /// The netlist it produced.
    pub work: Netlist,
}

/// The per-endpoint required time `timing-area` derives from the
/// constraints.
fn required_at(c: &Constraints) -> impl Fn(&Endpoint) -> Option<f64> + '_ {
    move |e| match e {
        Endpoint::Port(p) => c.required_for(p),
        Endpoint::SeqInput(_) => c.max_delay,
    }
}

/// Replays `timing-area` from its snapshot: `optimize_timing_paths`
/// then `optimize_area_paths`, with the pass's arguments. Without a
/// timing constraint the pass skips the first call; the replay still
/// makes it, and it returns at once having applied nothing (its time is
/// one STA build).
pub fn replay_timing_area(
    lib: &TechLibrary,
    snap: &Snapshot,
    constraints: &Constraints,
) -> TimingAreaReplay {
    let mut work = snap.work.clone();
    let hash = HashRuleTable::cached(&LibraryRef { cells: lib.cells() });
    let required = required_at(constraints);
    let t = Instant::now();
    let timing = milo_core::opt::optimize_timing_paths(&mut work, lib, &hash, &required, 200);
    let timing_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let area_applied = milo_core::opt::optimize_area_paths(&mut work, lib, &required, 200);
    TimingAreaReplay {
        timing_s,
        timing_applied: timing.applied.len(),
        area_s: t.elapsed().as_secs_f64(),
        area_applied,
        timing_met: timing.met,
        work,
    }
}

/// The flow's fixed epilogue on a mapped netlist (fanout repair, dead
/// net sweep), as the result a finished run reports.
fn epilogue(lib: &TechLibrary, mut work: Netlist, timing_met: bool) -> Result<Reference, String> {
    enforce_fanout(&mut work, lib).map_err(|e| format!("fanout repair: {e}"))?;
    work.sweep_dead_nets();
    Ok(Reference {
        hash: format!("{:#018x}", structural_hash(&work)),
        stats: statistics(&work).map_err(|e| format!("statistics: {e}"))?,
        timing_met,
    })
}

// ---------------------------------------------------------------------
// Registry deltas
// ---------------------------------------------------------------------

/// The process-wide counters the program keeps.
#[derive(Clone, Copy, Default)]
struct Counters {
    rewrites: u64,
    match_repairs: u64,
    repair_ns: u64,
    sta_refreshes: u64,
    sta_full_rebuilds: u64,
    par_jobs: u64,
    par_steals: u64,
}

impl Counters {
    fn read() -> Self {
        let r = Registry::global();
        Self {
            rewrites: r.counter("engine.rewrites").get(),
            match_repairs: r.counter("engine.match_repairs").get(),
            repair_ns: r.histogram("engine.repair_ns").sum(),
            sta_refreshes: r.counter("sta.refreshes").get(),
            sta_full_rebuilds: r.counter("sta.full_rebuilds").get(),
            par_jobs: r.counter("par.jobs").get(),
            par_steals: r.counter("par.steals").get(),
        }
    }

    /// Adds what the counters gained between `before` and `after`.
    fn add_delta(&mut self, before: Counters, after: Counters) {
        self.rewrites += after.rewrites - before.rewrites;
        self.match_repairs += after.match_repairs - before.match_repairs;
        self.repair_ns += after.repair_ns - before.repair_ns;
        self.sta_refreshes += after.sta_refreshes - before.sta_refreshes;
        self.sta_full_rebuilds += after.sta_full_rebuilds - before.sta_full_rebuilds;
        self.par_jobs += after.par_jobs - before.par_jobs;
        self.par_steals += after.par_steals - before.par_steals;
    }
}

// ---------------------------------------------------------------------
// The per-layer probe of a set of designs
// ---------------------------------------------------------------------

/// What the serve leg needs of one traced flow.
struct TracedCase {
    /// The traced flow's result: what a miss and an exact hit return.
    result: Reference,
    /// The `timing-area` replay plus the flow epilogue: what a near miss
    /// that only changes `max_area` returns.
    near_miss: Result<Reference, String>,
}

/// Per-layer sums over a set of traced flows and their replays.
#[derive(Default)]
struct LayerSums {
    pass_s: [f64; 5],
    pass_applied: [f64; 5],
    epilogue_s: f64,
    baseline_s: f64,
    traced_wall_s: f64,
    counters: Counters,
    engine: EngineTally,
    sta_analyze_s: f64,
    timing_s: f64,
    timing_applied: f64,
    area_s: f64,
    area_applied: f64,
    measure_s: f64,
    expand_s: f64,
    map_s: f64,
}

/// Traced flows of `cases`, each followed by its replays and the layer
/// calls on its entry design.
fn probe_cases(
    lib: &TechLibrary,
    cases: &[Case],
    seed: u64,
    attempted: &mut usize,
    failures: &mut Vec<String>,
) -> (LayerSums, Vec<TracedCase>) {
    let mut sums = LayerSums::default();
    let mut traced = Vec::new();
    for case in cases {
        let name = &case.design.name;
        let before = Counters::read();
        *attempted += 1;
        let probed = {
            let _span = trace::span("perfbench:traced-flow");
            probed_flow(lib, case)
        };
        sums.counters.add_delta(before, Counters::read());
        let probed = match probed {
            Ok(p) => p,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };

        let total = probed.out.report.total_wall.as_secs_f64();
        let mut passes_s = probed.probe_s;
        for (i, pass) in PASSES.iter().enumerate() {
            match probed.passes.get(*pass) {
                Some(r) => {
                    sums.pass_s[i] += r.wall.as_secs_f64();
                    sums.pass_applied[i] += r.rules_applied as f64;
                    passes_s += r.wall.as_secs_f64();
                }
                None => failures.push(format!("{name}: no report for pass {pass}")),
            }
        }
        sums.epilogue_s += total - passes_s;
        sums.traced_wall_s += total - probed.probe_s;

        // Rule engine: replay bottom-up-logic with counting rules.
        *attempted += 1;
        let replay = {
            let _span = trace::span("perfbench:replay:bottom-up-logic");
            replay_bottom_up(lib, &probed.before_bottom_up, &mut sums.engine)
        };
        let bu_applied = probed
            .passes
            .get("bottom-up-logic")
            .map_or(0, |r| r.rules_applied as u64);
        match replay {
            Ok((fired, hash)) => {
                if fired != bu_applied || hash != probed.after_bottom_up {
                    failures.push(format!(
                        "{name}: bottom-up replay fired {fired} (pass applied {bu_applied}), \
                         hash {hash:#x} (pass {:#x})",
                        probed.after_bottom_up
                    ));
                }
            }
            Err(e) => failures.push(format!("{name}: {e}")),
        }

        // Timing: one full analysis of what timing-area receives.
        let t = Instant::now();
        let sta = {
            let _span = trace::span("perfbench:timing.analyze");
            analyze(&probed.before_timing_area.work)
        };
        sums.sta_analyze_s += t.elapsed().as_secs_f64();
        if let Err(e) = sta {
            failures.push(format!("{name}: analyze: {e}"));
        }

        // Path optimizers: replay timing-area.
        *attempted += 1;
        let ta = {
            let _span = trace::span("perfbench:replay:timing-area");
            replay_timing_area(lib, &probed.before_timing_area, &case.constraints)
        };
        let ta_applied = probed
            .passes
            .get("timing-area")
            .map_or(0, |r| r.rules_applied);
        let ta_hash = structural_hash(&ta.work);
        if ta.timing_applied + ta.area_applied != ta_applied || ta_hash != probed.after_timing_area
        {
            failures.push(format!(
                "{name}: timing-area replay applied {} + {} (pass {ta_applied}), \
                 hash {ta_hash:#x} (pass {:#x})",
                ta.timing_applied, ta.area_applied, probed.after_timing_area
            ));
        }
        sums.timing_s += ta.timing_s;
        sums.timing_applied += ta.timing_applied as f64;
        sums.area_s += ta.area_s;
        sums.area_applied += ta.area_applied as f64;

        // Compilers, technology mapping, micro-level feedback, and the
        // unoptimized baseline, on the entry design.
        let t = Instant::now();
        let measured = {
            let _span = trace::span("perfbench:microarch.measure");
            milo_core::microarch::measure(&case.design, &mut DesignDb::new(), lib)
        };
        sums.measure_s += t.elapsed().as_secs_f64();
        if let Err(e) = measured {
            failures.push(format!("{name}: measure: {e}"));
        }
        let mut compiled = case.design.clone();
        let mut db = DesignDb::new();
        let t = Instant::now();
        let expanded = {
            let _span = trace::span("perfbench:compilers.expand");
            expand_micro_components(&mut compiled, &mut db)
        };
        sums.expand_s += t.elapsed().as_secs_f64();
        match expanded {
            Ok(()) => {
                let top = db.insert(compiled);
                match db.flatten(&top) {
                    Ok(flat) => {
                        let t = Instant::now();
                        let mapped = {
                            let _span = trace::span("perfbench:techmap.map");
                            map_netlist(&flat, lib)
                        };
                        sums.map_s += t.elapsed().as_secs_f64();
                        if let Err(e) = mapped {
                            failures.push(format!("{name}: map: {e}"));
                        }
                    }
                    Err(e) => failures.push(format!("{name}: flatten: {e}")),
                }
            }
            Err(e) => failures.push(format!("{name}: expand: {e}")),
        }
        let t = Instant::now();
        let baseline = {
            let _span = trace::span("perfbench:baseline");
            reference(lib, &case.design)
        };
        sums.baseline_s += t.elapsed().as_secs_f64();
        match baseline {
            Ok(r) => {
                if let Err(e) = check_result(&r, &probed.out.result.netlist, case.sequential, seed)
                {
                    failures.push(format!("{name}: traced result: {e}"));
                }
            }
            Err(e) => failures.push(e),
        }
        traced.push(TracedCase {
            result: Reference {
                hash: format!("{:#018x}", probed.out.report.result_hash.unwrap_or(0)),
                stats: probed.out.result.stats,
                timing_met: probed.out.result.timing.met,
            },
            near_miss: epilogue(lib, ta.work, ta.timing_met),
        });
    }
    (sums, traced)
}

fn record_sums(s: &LayerSums, m: &mut Metrics) {
    for (i, pass) in PASSES.iter().enumerate() {
        m.set(format!("pass.{pass}.s"), s.pass_s[i], "s");
        m.set(format!("pass.{pass}.applied"), s.pass_applied[i], "count");
    }
    m.set("flow.epilogue.s", s.epilogue_s, "s");
    m.set("flow.baseline.s", s.baseline_s, "s");
    let c = &s.counters;
    m.set("engine.rewrites", c.rewrites as f64, "count");
    m.set("engine.match_repairs", c.match_repairs as f64, "count");
    m.set("engine.repair.s", c.repair_ns as f64 / 1e9, "s");
    m.set("sta.refreshes", c.sta_refreshes as f64, "count");
    m.set("sta.full_rebuilds", c.sta_full_rebuilds as f64, "count");
    m.set("par.jobs", c.par_jobs as f64, "count");
    m.set("par.steals", c.par_steals as f64, "count");
    let e = &s.engine;
    let attempts: u64 = e.attempts.iter().sum();
    let accepts: u64 = e.fired.iter().sum();
    m.set("engine.attempts", attempts as f64, "count");
    m.set("engine.accepts", accepts as f64, "count");
    m.set(
        "engine.accept_ratio",
        if attempts == 0 {
            1.0
        } else {
            accepts as f64 / attempts as f64
        },
        "ratio",
    );
    m.set("engine.apply.s", e.apply_s, "s");
    m.set("engine.match.s", e.match_s, "s");
    m.set("engine.overhead.s", e.run_s - e.apply_s - e.match_s, "s");
    for (k, kind) in REJECT_KINDS.iter().enumerate() {
        m.set(
            format!("engine.rejects.{kind}"),
            e.rejects_by_kind[k] as f64,
            "count",
        );
    }
    for (i, rule) in RULES.iter().enumerate() {
        m.set(
            format!("rule.{rule}.attempts"),
            e.attempts[i] as f64,
            "count",
        );
        m.set(format!("rule.{rule}.rejects"), e.rejects[i] as f64, "count");
        m.set(format!("rule.{rule}.fired"), e.fired[i] as f64, "count");
    }
    m.set("sta.analyze.s", s.sta_analyze_s, "s");
    m.set("opt.timing_paths.s", s.timing_s, "s");
    m.set("opt.timing_paths.applied", s.timing_applied, "count");
    m.set("opt.area_paths.s", s.area_s, "s");
    m.set("opt.area_paths.applied", s.area_applied, "count");
    m.set("microarch.measure.s", s.measure_s, "s");
    m.set(
        "microarch.measure_equiv",
        s.pass_s[0] / s.measure_s.max(1e-12),
        "ratio",
    );
    m.set("compilers.expand.s", s.expand_s, "s");
    m.set("techmap.map.s", s.map_s, "s");
}

// ---------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------

/// Where the Chrome trace of a traced run goes.
fn trace_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    let dir =
        std::env::var("PERFBENCH_OUT").unwrap_or_else(|_| ".bench_build/perfbench".to_owned());
    std::path::Path::new(&dir).join(format!("{}-seed{seed}.trace.json", workload.name()))
}

fn write_trace(workload: Workload, seed: u64, failures: &mut Vec<String>) {
    let path = trace_path(workload, seed);
    let json = trace::drain_chrome_json();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => eprintln!("perfbench: Chrome trace written to {}", path.display()),
        Err(e) => failures.push(format!("write {}: {e}", path.display())),
    }
}

/// The serve leg of a flow workload's traced run: a fresh server gets
/// each design three times, as a miss, an exact hit, and a near miss
/// (same delay target, another `max_area`) that hits the prefix tier.
/// Runs with tracing off; returns the misses' flow time, an untraced run
/// of the same flows (inside a service worker, after the traced run).
/// `serve.unstable_pairs` needs each pair served by two servers, which
/// the leg does not do: it is recorded as 0 here.
fn serve_leg(
    lib: &TechLibrary,
    cases: &[Case],
    traced: &[TracedCase],
    seed: u64,
    attempted: &mut usize,
    failures: &mut Vec<String>,
    m: &mut Metrics,
) -> f64 {
    let mut untraced_s = 0.0;
    let mut server = match spawn_server(lib, crate::report::nproc()) {
        Ok(s) => s,
        Err(e) => {
            failures.push(e);
            return f64::NAN;
        }
    };
    let mut served: Vec<Served> = Vec::new();
    let mut seeded_only = 0;
    // What the service's database holds before case `folded`, rebuilt
    // offline only when an answer differs from the fresh traced run.
    let mut db = DesignDb::new();
    let mut folded = 0;
    let leg = (|| -> Result<(), String> {
        let mut client =
            milo_serve::Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        for (i, (case, t)) in cases.iter().zip(traced).enumerate() {
            let name = &case.design.name;
            let near = case
                .constraints
                .clone()
                .with_max_area(1.1 * t.result.stats.area);
            // The near miss changes only `max_area`, which timing-area
            // never reads, so its replay is the one already made.
            if near.max_delay != case.constraints.max_delay
                || near.path_delays != case.constraints.path_delays
            {
                return Err(format!("{name}: near miss changed the delay targets"));
            }
            let near_expected = t.near_miss.as_ref().map_err(|e| format!("{name}: {e}"))?;
            for (constraints, tier, want) in [
                (&case.constraints, "miss", &t.result),
                (&case.constraints, "hit", &t.result),
                (&near, "prefix-hit", near_expected),
            ] {
                *attempted += 1;
                let s = submit_and_wait(&mut client, &case.text, constraints)?;
                if s.tier != tier {
                    eprintln!(
                        "perfbench: {name}: expected a {tier}, the service reports {}",
                        s.tier
                    );
                }
                if !want.matches(&s) {
                    while folded < i {
                        let mut milo = Milo::with_database(lib.clone(), db);
                        let earlier = &cases[folded];
                        Flow::standard()
                            .run(&mut milo, &earlier.design, &earlier.constraints)
                            .map_err(|e| {
                                format!("{}: offline flow failed: {e}", earlier.design.name)
                            })?;
                        db = milo.into_database();
                        folded += 1;
                    }
                    let mut milo = Milo::with_database(lib.clone(), db.clone());
                    let seeded =
                        checked_run(&mut milo, &case.design, constraints, case.sequential, seed)?;
                    if seeded.matches(&s) {
                        seeded_only += 1;
                    } else {
                        failures.push(format!(
                            "{name}: served {} {} {:?} matches neither the traced run {} {:?} \
                             nor the database-seeded run {} {:?}",
                            s.tier,
                            s.hash,
                            s.stats,
                            want.hash,
                            want.stats,
                            seeded.hash,
                            seeded.stats
                        ));
                    }
                }
                if tier == "miss" {
                    untraced_s += s.flow_total_s;
                }
                served.push(s);
            }
        }
        Ok(())
    })();
    if let Err(e) = leg {
        failures.push(e);
    }
    let stats = serve_wl::service_stats(&server).unwrap_or_else(|e| {
        failures.push(e);
        Default::default()
    });
    server.shutdown();
    serve_wl::record_layer_metrics(&served.iter().collect::<Vec<_>>(), &[stats], m);
    m.set("serve.seeded_only_pairs", seeded_only as f64, "count");
    m.set("serve.unstable_pairs", 0.0, "count");
    untraced_s
}

/// An untraced in-process repetition of `cases`: returns its summed
/// flow time. Each result must reproduce the traced run's hash.
fn untraced_repetition(
    lib: &TechLibrary,
    cases: &[Case],
    traced: &[TracedCase],
    attempted: &mut usize,
    failures: &mut Vec<String>,
) -> f64 {
    let mut untraced_s = 0.0;
    for (case, t) in cases.iter().zip(traced) {
        *attempted += 1;
        match flows::run_flow(lib, case) {
            Ok(out) => {
                untraced_s += out.report.total_wall.as_secs_f64();
                let hash = format!("{:#018x}", out.report.result_hash.unwrap_or(0));
                if hash != t.result.hash {
                    failures.push(format!(
                        "{}: untraced result hash {hash}, traced {}",
                        case.design.name, t.result.hash
                    ));
                }
            }
            Err(e) => failures.push(e),
        }
    }
    untraced_s
}

/// The traced run of a flow workload: the traced flows with their
/// replays, an untraced in-process repetition of the same flows (the
/// reference for the tracing overhead), then the serve leg. On
/// `ctrl10k` the untraced repetition would add a whole flow to a run
/// that already holds two and a half, so there the serve leg's misses
/// stand in for it.
pub fn traced_flow_workload(workload: Workload, size: Size, seed: u64) -> Result<Outcome, String> {
    let FlowSetup { lib, cases } = flows::setup(workload, size, seed)?;
    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut m = Metrics::default();
    trace::set_enabled(true);
    let (sums, traced) = probe_cases(&lib, &cases, seed, &mut attempted, &mut failures);
    trace::set_enabled(false);
    record_sums(&sums, &mut m);
    if traced.len() != cases.len() {
        return Ok(Outcome {
            attempted,
            failures,
            metrics: m,
        });
    }
    let in_process_s = (workload != Workload::Ctrl10k)
        .then(|| untraced_repetition(&lib, &cases, &traced, &mut attempted, &mut failures));
    let serve_misses_s = serve_leg(
        &lib,
        &cases,
        &traced,
        seed,
        &mut attempted,
        &mut failures,
        &mut m,
    );
    m.set(
        "trace.overhead_share",
        sums.traced_wall_s / in_process_s.unwrap_or(serve_misses_s) - 1.0,
        "share",
    );
    write_trace(workload, seed, &mut failures);
    Ok(Outcome {
        attempted,
        failures,
        metrics: m,
    })
}

/// The traced run of `serve-mix`: three untraced and three traced
/// repetitions, alternating (service metrics come from the untraced
/// ones, the tracing overhead from the ratio of median walls), then the
/// flow-layer probe of every pool design under its first-sight
/// constraints.
pub fn traced_serve_mix(size: Size, seed: u64) -> Result<Outcome, String> {
    let lib = library();
    let mut failures = Vec::new();
    let mut m = Metrics::default();
    let (mut untraced, mut traced, mut plan) = (Vec::new(), Vec::new(), None);
    for _ in 0..3 {
        for on in [false, true] {
            let (p, ready) = serve_wl::setup(&lib, size, seed)?;
            trace::set_enabled(on);
            let rep = serve_wl::run_rep(&p, ready);
            trace::set_enabled(false);
            if on { &mut traced } else { &mut untraced }.push(rep);
            plan = Some(p);
        }
    }
    let plan = plan.expect("repetitions ran");
    trace::set_enabled(true);
    let cases: Vec<Case> = plan
        .pool
        .iter()
        .map(|d| Case {
            text: d.text.clone(),
            design: d.parsed.clone(),
            constraints: Constraints::none().with_max_delay(d.max_delay),
            sequential: d.sequential,
        })
        .collect();
    let mut attempted = 6 * plan.jobs();
    let (sums, _) = probe_cases(&lib, &cases, seed, &mut attempted, &mut failures);
    trace::set_enabled(false);
    record_sums(&sums, &mut m);
    serve_wl::record_layer_metrics(
        &untraced
            .iter()
            .flat_map(|r| r.served.iter().map(|(_, _, s)| s))
            .collect::<Vec<_>>(),
        &untraced.iter().map(|r| r.stats).collect::<Vec<_>>(),
        &mut m,
    );
    let median_wall =
        |reps: &[serve_wl::Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    m.set(
        "trace.overhead_share",
        median_wall(&traced) / median_wall(&untraced) - 1.0,
        "share",
    );
    let reps: Vec<serve_wl::Rep> = untraced.into_iter().chain(traced).collect();
    for r in &reps {
        failures.extend(r.failures.iter().cloned());
    }
    let served = serve_wl::check_reps(
        &serve_wl::references(&lib, &plan, seed),
        &reps,
        &mut failures,
    );
    m.set(
        "serve.seeded_only_pairs",
        served.seeded_only as f64,
        "count",
    );
    m.set("serve.unstable_pairs", served.unstable as f64, "count");
    write_trace(Workload::ServeMix, seed, &mut failures);
    Ok(Outcome {
        attempted,
        failures,
        metrics: m,
    })
}
