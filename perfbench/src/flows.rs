//! The two flow workloads (`ctrl10k`, `timed-mix`): set-up, the timed
//! loop of `Flow::standard().run` calls, and the output check.

use crate::check::check_against_reference;
use crate::report::{geomean, median, quantile, Metrics, Outcome};
use crate::workload::{ctrl10k_cases, library, timed_mix_cases, Case, Size, Workload};
use milo_core::rules::{HashRuleTable, LibraryRef};
use milo_core::techmap::TechLibrary;
use milo_core::timing::DesignStats;
use milo_core::{Flow, FlowOutput, Milo};
use std::time::Instant;

/// Everything a flow workload runs on.
pub struct FlowSetup {
    /// The target library.
    pub lib: TechLibrary,
    /// The designs and their constraints.
    pub cases: Vec<Case>,
}

/// Forces the process-wide lazy state the first flow would otherwise
/// build inside the timed region: the hash-rule table and the
/// `milo-par` worker pool.
pub fn warm(lib: &TechLibrary) {
    let _ = HashRuleTable::cached(&LibraryRef { cells: lib.cells() });
    let _ = milo_par::join(|| 1, || 2);
}

/// Generates the workload's inputs and derives their constraints.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Result<FlowSetup, String> {
    let lib = library();
    warm(&lib);
    let cases = match workload {
        Workload::Ctrl10k => ctrl10k_cases(size, seed)?,
        Workload::TimedMix => timed_mix_cases(&lib, size, seed)?,
        Workload::ServeMix => return Err("serve-mix is not a flow workload".to_owned()),
    };
    Ok(FlowSetup { lib, cases })
}

/// Set-ups timed back to back in one batch. `setup_s` is the median,
/// over at least [`SETUP_BATCHES`] batches, of the mean set-up time in a
/// batch: a single set-up takes tens of milliseconds, short enough for
/// the host's momentary speed to decide it, and a batch averages that
/// out.
pub const SETUP_BATCH: usize = 3;

/// Fewest set-up batches per run.
pub const SETUP_BATCHES: usize = 10;

/// Runs [`SETUP_BATCH`] set-ups, handing all but the last to `discard`
/// outside the timed region, and returns the mean time of one set-up
/// with the last set-up.
pub fn setup_batch<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(f64, T), String> {
    let mut total_s = 0.0;
    let mut last = None;
    for _ in 0..SETUP_BATCH {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let t = Instant::now();
        last = Some(set_up()?);
        total_s += t.elapsed().as_secs_f64();
    }
    let last = last.expect("a batch holds at least one set-up");
    Ok((total_s / SETUP_BATCH as f64, last))
}

/// One `Flow::standard().run` on a fresh `Milo`, the way a user calls it.
pub fn run_flow(lib: &TechLibrary, case: &Case) -> Result<FlowOutput, String> {
    let mut milo = Milo::new(lib.clone());
    Flow::standard()
        .run(&mut milo, &case.design, &case.constraints)
        .map_err(|e| format!("{}: flow failed: {e}", case.design.name))
}

/// Quality of one repetition's results: total cells, geometric-mean
/// area and delay against the flow's own unoptimized arm, and the share
/// of designs that met timing.
pub struct Quality {
    /// Sum of result cells.
    pub cells: f64,
    /// Geometric mean of result area / baseline area.
    pub area_vs_baseline: f64,
    /// Geometric mean of result delay / baseline delay.
    pub delay_vs_baseline: f64,
    /// Share of results whose timing report says met.
    pub timing_met_share: f64,
}

impl Quality {
    /// Quality of a set of results, each given as (result statistics,
    /// baseline statistics, timing met).
    pub fn of(results: &[(DesignStats, DesignStats, bool)]) -> Self {
        let geo = |f: fn(&DesignStats) -> f64| {
            geomean(
                &results
                    .iter()
                    .map(|(r, b, _)| f(r) / f(b))
                    .collect::<Vec<_>>(),
            )
        };
        Self {
            cells: results.iter().map(|(r, _, _)| r.cells as f64).sum(),
            area_vs_baseline: geo(|s| s.area),
            delay_vs_baseline: geo(|s| s.delay),
            timing_met_share: results.iter().filter(|(_, _, met)| *met).count() as f64
                / results.len().max(1) as f64,
        }
    }

    /// Adds the four quality metrics.
    pub fn record(&self, m: &mut Metrics) {
        m.set("cells", self.cells, "count");
        m.set("area_vs_baseline", self.area_vs_baseline, "ratio");
        m.set("delay_vs_baseline", self.delay_vs_baseline, "ratio");
        m.set("timing_met_share", self.timing_met_share, "share");
    }
}

/// Checks every output of the first repetition against its reference.
/// Later repetitions must reproduce the first one's result hashes.
pub fn check_outputs(
    lib: &TechLibrary,
    cases: &[Case],
    outs: &[FlowOutput],
    seed: u64,
    failures: &mut Vec<String>,
) {
    for (case, out) in cases.iter().zip(outs) {
        if let Err(e) = check_against_reference(
            lib,
            &case.design,
            &out.result.netlist,
            case.sequential,
            seed,
        ) {
            failures.push(e);
        }
    }
}

/// The untraced run of a flow workload: run repetitions (one flow per
/// design each) while another one fits in `seconds`, at least one;
/// check outputs outside the timed region. Peak memory is read after the
/// first repetition, so the repetition count (which varies with machine
/// speed) does not move it. The host's speed drifts over seconds, so the
/// set-up batches are spread over the run like the repetitions: half of
/// [`SETUP_BATCHES`] before the first repetition, one before each later
/// one, and at the end as many as it takes to reach [`SETUP_BATCHES`]
/// (on `ctrl10k`, which runs one long flow, that puts half before it
/// and half after).
pub fn measure(workload: Workload, size: Size, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let set_up = || setup(workload, size, seed);
    let mut setup_batches = Vec::new();
    for _ in 1..SETUP_BATCHES / 2 {
        setup_batches.push(setup_batch(set_up, drop)?.0);
    }
    let (batch_s, FlowSetup { lib, cases }) = setup_batch(set_up, drop)?;
    setup_batches.push(batch_s);
    let mut setups_in_loop_s = 0.0;
    let mut failures = Vec::new();
    let mut rep_walls = Vec::new();
    let mut first: Option<Vec<FlowOutput>> = None;
    let mut peak_rss_mb = f64::NAN;
    let started = Instant::now();
    loop {
        if !rep_walls.is_empty() {
            let t = Instant::now();
            setup_batches.push(setup_batch(set_up, drop)?.0);
            setups_in_loop_s += t.elapsed().as_secs_f64();
        }
        let rep_start = Instant::now();
        let mut outs = Vec::with_capacity(cases.len());
        for case in &cases {
            match run_flow(&lib, case) {
                Ok(o) => outs.push(o),
                Err(e) => failures.push(e),
            }
        }
        rep_walls.push(rep_start.elapsed().as_secs_f64());
        if rep_walls.len() == 1 {
            peak_rss_mb = crate::report::peak_rss_mb();
        }
        if outs.len() == cases.len() {
            match &first {
                None => first = Some(outs),
                Some(f) => {
                    for (a, b) in f.iter().zip(&outs) {
                        if a.report.result_hash != b.report.result_hash {
                            failures.push(format!(
                                "{}: result hash changed between repetitions",
                                a.report.design
                            ));
                        }
                    }
                }
            }
        }
        // Start another repetition only if it should end within the window.
        if started.elapsed().as_secs_f64() + median(&rep_walls) > seconds {
            break;
        }
    }
    let measured_s = started.elapsed().as_secs_f64() - setups_in_loop_s;
    let attempted = rep_walls.len() * cases.len();
    let mut m = Metrics::default();
    m.set("peak_rss_mb", peak_rss_mb, "MB");
    match &first {
        Some(outs) => {
            check_outputs(&lib, &cases, outs, seed, &mut failures);
            Quality::of(
                &outs
                    .iter()
                    .map(|o| (o.result.stats, o.result.baseline, o.result.timing.met))
                    .collect::<Vec<_>>(),
            )
            .record(&mut m);
            for o in outs {
                eprintln!(
                    "perfbench: {} -> {} cells, hash {:#018x}, {:.3} s",
                    o.report.design,
                    o.result.stats.cells,
                    o.report.result_hash.unwrap_or(0),
                    o.report.total_wall.as_secs_f64()
                );
            }
        }
        None => failures.push("no repetition produced a full set of results".to_owned()),
    }
    while setup_batches.len() < SETUP_BATCHES {
        setup_batches.push(setup_batch(set_up, drop)?.0);
    }
    m.set("setup_s", median(&setup_batches), "s");
    m.set("wall_s", median(&rep_walls), "s");
    // A job is one repetition: the set of flows a user waits for.
    let rep_ms: Vec<f64> = rep_walls.iter().map(|w| w * 1e3).collect();
    m.set("jobs_per_s", rep_walls.len() as f64 / measured_s, "1/s");
    m.set("job_p50_ms", quantile(&rep_ms, 0.5), "ms");
    m.set("job_p99_ms", quantile(&rep_ms, 0.99), "ms");
    eprintln!("perfbench: set-up batch means {setup_batches:.4?} s");
    eprintln!("perfbench: repetition walls {rep_walls:.3?} s");
    eprintln!(
        "perfbench: {} repetitions, {} flows, {} failed",
        rep_walls.len(),
        attempted,
        failures.len()
    );
    Ok(Outcome {
        attempted,
        failures,
        metrics: m,
    })
}
