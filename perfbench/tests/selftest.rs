//! Self-tests of the benchmark: the output check must catch a corrupted
//! result, and a tiny-size run of every workload must print every
//! metric `BENCHMARK.json` names, with its unit.

use milo_core::netlist::{CellFunction, ComponentKind, GateFn, Netlist, PinDir};
use milo_core::Milo;
use milo_perfbench::check::check_result;
use milo_perfbench::flows::{run_flow, setup};
use milo_perfbench::workload::{Size, Workload};
use milo_serve::{parse_json, Value};

/// The complementary gate function, whose output differs on every input.
fn complement(f: GateFn) -> GateFn {
    match f {
        GateFn::And => GateFn::Nand,
        GateFn::Nand => GateFn::And,
        GateFn::Or => GateFn::Nor,
        GateFn::Nor => GateFn::Or,
        GateFn::Xor => GateFn::Xnor,
        GateFn::Xnor => GateFn::Xor,
        GateFn::Inv => GateFn::Buf,
        GateFn::Buf => GateFn::Inv,
    }
}

/// Flips the function of the first gate that drives an output port.
fn corrupt_output_gate(nl: &mut Netlist) -> bool {
    let out_nets: Vec<_> = nl
        .ports()
        .iter()
        .filter(|p| p.dir == PinDir::Out)
        .map(|p| p.net)
        .collect();
    let ids: Vec<_> = nl.component_ids().collect();
    for id in ids {
        let comp = nl.component_mut(id).expect("live id");
        let drives_output = comp
            .pins
            .iter()
            .any(|p| p.dir == PinDir::Out && p.net.is_some_and(|n| out_nets.contains(&n)));
        if let ComponentKind::Tech(cell) = &mut comp.kind {
            if let CellFunction::Gate(f, n) = cell.function {
                if drives_output {
                    cell.function = CellFunction::Gate(complement(f), n);
                    return true;
                }
            }
        }
    }
    false
}

#[test]
fn output_check_reports_a_corrupted_gate() {
    let s = setup(Workload::Ctrl10k, Size::Tiny, 7).expect("set-up");
    let case = &s.cases[0];
    let out = run_flow(&s.lib, case).expect("flow runs");
    let reference = Milo::new(s.lib.clone())
        .elaborate_unoptimized(&case.design)
        .expect("reference elaborates");
    check_result(&reference, &out.result.netlist, case.sequential, 7)
        .expect("the untouched result passes");

    let mut corrupted = out.result.netlist.clone();
    assert!(
        corrupt_output_gate(&mut corrupted),
        "found a gate to corrupt"
    );
    let verdict = check_result(&reference, &corrupted, case.sequential, 7);
    assert!(verdict.is_err(), "the check must report the corrupted gate");
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let spec = parse_json(&text).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Value::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_prints(workload: Workload, traced: bool, list: &str) {
    let outcome = milo_perfbench::run(workload, Size::Tiny, 7, 0.2, traced).expect("run starts");
    assert!(
        outcome.failures.is_empty(),
        "{} (traced {traced}) failed: {:?}",
        workload.name(),
        outcome.failures
    );
    let line = parse_json(&outcome.result_line()).expect("result line parses");
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    let metrics = line.get("metrics").expect("metrics object");
    for (name, unit) in declared(list) {
        let m = metrics.get(&name).unwrap_or_else(|| {
            panic!(
                "{} (traced {traced}) does not print {name}",
                workload.name()
            )
        });
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name} unit"
        );
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{} (traced {traced}): {name} is not a finite number",
            workload.name()
        );
    }
}

#[test]
fn tiny_runs_print_every_declared_metric() {
    // Traced runs write a Chrome trace; keep it out of the source tree.
    std::env::set_var("PERFBENCH_OUT", env!("CARGO_TARGET_TMPDIR"));
    for w in Workload::ALL {
        assert_prints(w, false, "end_to_end");
        assert_prints(w, true, "per_layer");
    }
}
