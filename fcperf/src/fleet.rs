//! `fleet-sweep`: the paper's own experiment. A seeded Table-1
//! population is swept over the standard grid, one two-chip slice
//! (one chip per shard) per operation.

use crate::gen::{derive, Rng};
use crate::spans::Tracer;
use crate::{Budget, Report};
use characterize::sweep::{chip_sweep, run_fleet_sweep, ChipResult, FleetReport, SweepConfig};
use characterize::ModuleCtx;
use dram_core::fleet::{ChipSpec, FleetConfig};
use dram_core::{LogicOp, Manufacturer};
use fcdram::SuccessAccumulator;
use std::time::Instant;

const SHARDS: usize = 2;

/// Paper figures the population means are checked against (percent):
/// NOT at one destination row, and the 16-input logic operations.
const PAPER_NOT_1: f64 = 98.37;
const PAPER_16: [(LogicOp, f64); 4] = [
    (LogicOp::Nand, 94.94),
    (LogicOp::Nor, 95.87),
    (LogicOp::And, 94.94),
    (LogicOp::Or, 95.85),
];
/// Allowed distance of a modeled population mean from the paper, in
/// percentage points.
const TOLERANCE_PP: f64 = 1.5;
/// Slices the destination-row checks sweep (NOT only, outside the
/// timed loop).
const NOT_CHECK_SLICES: usize = 16;

/// The population as two-chip slices. Table 1's 256 chips (176 SK
/// Hynix, 80 Samsung) are each drawn once; every Samsung chip shares a
/// slice with an SK Hynix chip and the remaining SK Hynix chips pair
/// up, so no slice is Samsung-only and every slice costs about one SK
/// Hynix chip sweep. Each slice is a reseeded two-module fleet, so its
/// chips' process variation derives from the benchmark seed.
pub fn population(seed: u64) -> Vec<FleetConfig> {
    let mut rng = Rng::new(derive(seed, 0xF1EE7));
    let (mut hynix, mut other) = (Vec::new(), Vec::new());
    for m in dram_core::config::table1() {
        for _ in 0..m.chips {
            if m.manufacturer == Manufacturer::SkHynix {
                hynix.push(m.clone());
            } else {
                other.push(m.clone());
            }
        }
    }
    assert!(
        other.len() <= hynix.len(),
        "Table 1 has more SK Hynix chips"
    );
    rng.shuffle(&mut hynix);
    rng.shuffle(&mut other);
    let mut pairs = Vec::new();
    let mut hynix = hynix.into_iter();
    for s in other {
        pairs.push([hynix.next().expect("checked above"), s]);
    }
    let rest: Vec<_> = hynix.collect();
    for pair in rest.chunks(2) {
        pairs.push([pair[0].clone(), pair[pair.len() - 1].clone()]);
    }
    rng.shuffle(&mut pairs);
    pairs
        .into_iter()
        .enumerate()
        .map(|(j, [a, b])| FleetConfig::custom(vec![a, b], 2).with_seed(derive(seed, j as u64) | 1))
        .collect()
}

/// The set-up's warm-up slice: the same two Table-1 modules for every
/// seed (the first SK Hynix and the first Samsung module, reseeded),
/// so the set-up cost does not depend on which modules the seeded
/// population happens to put first.
fn warm_up_slice(seed: u64) -> FleetConfig {
    let modules = dram_core::config::table1();
    let first = |m: Manufacturer| {
        modules
            .iter()
            .find(|c| c.manufacturer == m)
            .expect("Table 1 has both manufacturers")
            .clone()
    };
    FleetConfig::custom(
        vec![first(Manufacturer::SkHynix), first(Manufacturer::Samsung)],
        2,
    )
    .with_seed(derive(seed, 0x3A53) | 1)
}

fn sweep_cfg() -> SweepConfig {
    SweepConfig::standard().with_shards(SHARDS)
}

fn report_json(report: &FleetReport) -> String {
    serde_json::to_string(&report.tables()).expect("tables serialize")
}

/// One slice through the public front door.
fn slice_op(fleet: &FleetConfig, cfg: &SweepConfig) -> (FleetReport, usize) {
    let report = run_fleet_sweep(fleet, cfg);
    let json = report_json(&report);
    (report, json.len())
}

fn empty_result(spec: &ChipSpec) -> ChipResult {
    ChipResult {
        label: spec.label(),
        module: spec.cfg.name.clone(),
        chip: spec.chip.index(),
        manufacturer: spec.cfg.manufacturer.to_string(),
        not: SuccessAccumulator::new(),
        logic: SuccessAccumulator::new(),
        logic_shapes: Vec::new(),
        conditions: 0,
        failures: 0,
    }
}

/// The traced slice: the same per-chip public calls `run_fleet_sweep`
/// makes (`ModuleCtx::build_chip`, then `chip_sweep`), one chip per
/// scoped thread, each timed on its own thread.
fn traced_op(fleet: &FleetConfig, cfg: &SweepConfig, t: &mut Tracer, op: u64) -> FleetReport {
    let start = Instant::now();
    let per_chip: Vec<(ChipResult, [Instant; 3])> = std::thread::scope(|s| {
        let handles: Vec<_> = fleet
            .specs()
            .into_iter()
            .map(|spec| {
                s.spawn(move || {
                    let mut out = empty_result(&spec);
                    let t0 = Instant::now();
                    let ctx = ModuleCtx::build_chip(&spec.cfg, spec.chip, &cfg.scale);
                    let t1 = Instant::now();
                    match ctx {
                        Ok(mut ctx) => chip_sweep(&mut ctx, cfg, &mut out),
                        Err(_) => {
                            out.conditions = 1;
                            out.failures = 1;
                        }
                    }
                    (out, [t0, t1, Instant::now()])
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let slice = t.record("characterize.slice", start, Instant::now(), None, op);
    let mut serial = 0.0;
    let mut chips = Vec::new();
    for (out, [t0, t1, t2]) in per_chip {
        t.record("fcdram.build_chip", t0, t1, Some(slice), op);
        t.record("characterize.chip_sweep", t1, t2, Some(slice), op);
        t.sample("fcdram.discover_ms", "ms", (t1 - t0).as_secs_f64() * 1e3);
        t.sample(
            "characterize.chip_sweep_ms",
            "ms",
            (t2 - t1).as_secs_f64() * 1e3,
        );
        t.sample(
            "fcdram.cells",
            "count",
            (out.not.count() + out.logic.count()) as f64,
        );
        serial += (t2 - t0).as_secs_f64();
        chips.push(out);
    }
    t.sample(
        "characterize.shard_efficiency",
        "ratio",
        serial / (SHARDS as f64 * wall),
    );
    let report = FleetReport {
        shards: chips.len(),
        chips,
    };
    let (json, us) = t.span("characterize.report", Some(slice), op, || {
        report_json(&report)
    });
    std::hint::black_box(json.len());
    t.sample("characterize.report_ms", "ms", us / 1e3);
    report
}

fn chip_failures(report: &FleetReport) -> usize {
    report.chips.iter().map(|c| c.failures).sum()
}

pub fn run(seed: u64, budget: Budget, mut tracer: Option<&mut Tracer>) -> Report {
    let cfg = sweep_cfg();
    let setup = || {
        let slices = population(seed);
        std::hint::black_box(slice_op(&warm_up_slice(seed), &cfg).1);
        slices
    };
    let (slices, setup_times) = crate::stats::repeated_setup(budget.setups, setup);
    let mut rep = Report::new(setup_times);
    // Population accumulators per (op, inputs) over the first walk.
    let mut shapes: Vec<(LogicOp, usize, SuccessAccumulator)> = Vec::new();
    let mut chips_seen = 0usize;
    let round = slices.len();
    let loop_start = Instant::now();
    while !budget.done(loop_start, rep.attempted, round) {
        let i = rep.attempted as usize % round;
        let t = Instant::now();
        let report = match tracer.as_deref_mut() {
            Some(tr) => traced_op(&slices[i], &cfg, tr, rep.attempted),
            None => slice_op(&slices[i], &cfg).0,
        };
        rep.op_done(crate::stats::secs(t) * 1e6, chip_failures(&report) > 0);
        if rep.attempted as usize <= round {
            chips_seen += report.chips.len();
            for s in report.chips.iter().flat_map(|c| &c.logic_shapes) {
                match shapes
                    .iter_mut()
                    .find(|(op, n, _)| *op == s.op && *n == s.inputs)
                {
                    Some((_, _, acc)) => acc.merge(&s.acc),
                    None => shapes.push((s.op, s.inputs, s.acc.clone())),
                }
            }
        }
    }
    if !budget.checks {
        return rep;
    }
    rep.setups_after(budget, setup);

    // Output checks, outside the timed loop.
    rep.note(format!(
        "population: {round} slices, {chips_seen} chips swept in the first walk"
    ));
    shapes.sort_by_key(|(op, n, _)| (*n, op.name()));
    let means: Vec<String> = shapes
        .iter()
        .map(|(op, n, acc)| format!("{}{n} {:.2}%", op.name(), acc.mean() * 100.0))
        .collect();
    rep.note(format!("population logic means: {}", means.join(", ")));
    for (op, paper) in PAPER_16 {
        let acc = shapes.iter().find(|(o, n, _)| *o == op && *n == 16);
        let got = acc.map_or(f64::NAN, |(_, _, a)| a.mean() * 100.0);
        rep.check(
            &format!(
                "{}16 population mean {got:.2}% within {TOLERANCE_PP} pp of paper {paper}%",
                op.name()
            ),
            (got - paper).abs() <= TOLERANCE_PP,
        );
    }
    let not_means: Vec<f64> = [1usize, 4, 16]
        .iter()
        .map(|&d| {
            let cfg = SweepConfig {
                dest_rows: vec![d],
                logic_inputs: Vec::new(),
                ..sweep_cfg()
            };
            let mut acc = SuccessAccumulator::new();
            for fleet in slices.iter().take(NOT_CHECK_SLICES) {
                for c in &run_fleet_sweep(fleet, &cfg).chips {
                    // Samsung parts only measure one destination row.
                    if c.manufacturer == Manufacturer::SkHynix.to_string() || d == 1 {
                        acc.merge(&c.not);
                    }
                }
            }
            acc.mean() * 100.0
        })
        .collect();
    rep.note(format!(
        "NOT mean at 1/4/16 destination rows ({NOT_CHECK_SLICES} slices): {:.2}% / {:.2}% / {:.2}%",
        not_means[0], not_means[1], not_means[2]
    ));
    rep.check(
        &format!(
            "NOT at 1 destination row {:.2}% within {TOLERANCE_PP} pp of paper {PAPER_NOT_1}%",
            not_means[0]
        ),
        (not_means[0] - PAPER_NOT_1).abs() <= TOLERANCE_PP,
    );
    rep.check(
        "NOT success falls as destination rows grow (1 > 4 > 16)",
        not_means[0] > not_means[1] && not_means[1] > not_means[2],
    );
    let one = run_fleet_sweep(&slices[0], &sweep_cfg().with_shards(1));
    let two = run_fleet_sweep(&slices[0], &cfg);
    rep.check(
        "slice report identical at 1 and 2 shards",
        one.chips == two.chips && one.population() == two.population() && two.shards == SHARDS,
    );
    rep
}
