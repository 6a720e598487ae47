//! The MILO end-to-end benchmark: workloads generated from a seed, timed
//! runs through the public entry points (`Flow::standard().run`, and
//! `milo_serve::spawn` with the blocking `Client`), an independent
//! output check, and a traced run that breaks time down by layer.
//! `main.rs` parses the command line; the self-tests call the same
//! functions at tiny sizes.

pub mod check;
pub mod flows;
pub mod layers;
pub mod report;
pub mod serve;
pub mod workload;

use workload::{Size, Workload};

/// Runs one workload: the untraced measurement (`traced == false`,
/// end-to-end metrics) or the traced run (per-layer metrics).
pub fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<report::Outcome, String> {
    match (workload, traced) {
        (Workload::ServeMix, false) => serve::measure(size, seed, seconds),
        (Workload::ServeMix, true) => layers::traced_serve_mix(size, seed),
        (w, false) => flows::measure(w, size, seed, seconds),
        (w, true) => layers::traced_flow_workload(w, size, seed),
    }
}
