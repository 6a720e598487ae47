//! The output check: an optimized netlist must validate and must behave
//! like the unoptimized elaboration of the same entry design.
//!
//! The reference is `Milo::elaborate_unoptimized` (compile and map, no
//! optimizer). Stimulus comes from the benchmark: every input port gets
//! its own random stream, seeded from the benchmark seed and the port
//! name, so inputs never alias however many ports a design has.
//! Sequential designs are clocked from the all-zero reset state, and
//! outputs are compared before and after every edge.

use crate::workload::SplitMix;
use milo_core::netlist::{fnv1a, validate, Netlist, PinDir, Simulator, Violation, FNV_OFFSET};
use milo_core::techmap::TechLibrary;
use milo_core::Milo;

/// The unoptimized elaboration of `design` that optimized results are
/// checked against.
pub fn reference(lib: &TechLibrary, design: &Netlist) -> Result<Netlist, String> {
    Milo::new(lib.clone())
        .elaborate_unoptimized(design)
        .map_err(|e| format!("{}: reference elaboration failed: {e}", design.name))
}

/// Validation problems other than dangling outputs (which are legitimate
/// where the optimizer removed an unused cone).
pub fn violations(nl: &Netlist) -> Vec<Violation> {
    validate(nl, true)
        .into_iter()
        .filter(|v| !matches!(v, Violation::DanglingOutput { .. }))
        .collect()
}

fn port_names(nl: &Netlist, dir: PinDir) -> Vec<String> {
    let mut names: Vec<String> = nl
        .ports()
        .iter()
        .filter(|p| p.dir == dir)
        .map(|p| p.name.clone())
        .collect();
    names.sort();
    names
}

/// How many stimulus vectors to apply: more for small designs, at least
/// 64 for the largest, so the check stays a fraction of a flow's time.
pub fn vectors_for(nl: &Netlist) -> usize {
    let comps = nl.component_ids().count().max(1);
    (1_000_000 / comps).clamp(64, 512)
}

/// Simulates `reference` and `candidate` side by side under the same
/// per-input random streams and reports the first output that differs.
pub fn same_behaviour(
    reference: &Netlist,
    candidate: &Netlist,
    sequential: bool,
    vectors: usize,
    seed: u64,
) -> Result<(), String> {
    let inputs = port_names(reference, PinDir::In);
    let outputs = port_names(reference, PinDir::Out);
    if inputs != port_names(candidate, PinDir::In) {
        return Err("input ports differ from the reference".to_owned());
    }
    if outputs != port_names(candidate, PinDir::Out) {
        return Err("output ports differ from the reference".to_owned());
    }
    let mut sim_r = Simulator::new(reference).map_err(|e| format!("reference: {e}"))?;
    let mut sim_c = Simulator::new(candidate).map_err(|e| format!("candidate: {e}"))?;
    let mut streams: Vec<(SplitMix, u64)> = inputs
        .iter()
        .map(|name| {
            (
                SplitMix(fnv1a(
                    fnv1a(FNV_OFFSET, &seed.to_le_bytes()),
                    name.as_bytes(),
                )),
                0,
            )
        })
        .collect();
    let compare = |sim_r: &Simulator<'_>, sim_c: &Simulator<'_>, at: &str| -> Result<(), String> {
        for o in &outputs {
            let r = sim_r.output(o).map_err(|e| e.to_string())?;
            let c = sim_c.output(o).map_err(|e| e.to_string())?;
            if r != c {
                return Err(format!(
                    "output {o} differs {at}: reference={r} optimized={c}"
                ));
            }
        }
        Ok(())
    };
    for v in 0..vectors {
        for (name, (stream, word)) in inputs.iter().zip(streams.iter_mut()) {
            if v % 64 == 0 {
                *word = stream.next_u64();
            }
            let bit = (*word >> (v % 64)) & 1 == 1;
            sim_r.set_input(name, bit).map_err(|e| e.to_string())?;
            sim_c.set_input(name, bit).map_err(|e| e.to_string())?;
        }
        sim_r.settle();
        sim_c.settle();
        compare(&sim_r, &sim_c, &format!("at vector {v}"))?;
        if sequential {
            sim_r.step();
            sim_c.step();
            compare(&sim_r, &sim_c, &format!("after clock edge {v}"))?;
        }
    }
    Ok(())
}

/// The full check of one optimized result against its reference.
pub fn check_result(
    reference: &Netlist,
    optimized: &Netlist,
    sequential: bool,
    seed: u64,
) -> Result<(), String> {
    let bad = violations(optimized);
    if !bad.is_empty() {
        return Err(format!("result fails validation: {bad:?}"));
    }
    same_behaviour(
        reference,
        optimized,
        sequential,
        vectors_for(reference),
        seed,
    )
}

/// Elaborates the reference of `design` and checks `optimized` against
/// it; errors name the design.
pub fn check_against_reference(
    lib: &TechLibrary,
    design: &Netlist,
    optimized: &Netlist,
    sequential: bool,
    seed: u64,
) -> Result<(), String> {
    let reference = reference(lib, design)?;
    check_result(&reference, optimized, sequential, seed)
        .map_err(|e| format!("{}: {e}", design.name))
}
