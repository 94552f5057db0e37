//! `device-exec`: fcexec's prepared path on the two DRAM backends.
//! The paper's functionally complete set plus the tenant expressions
//! are prepared once on one Table-1 chip; one operation is one pass of
//! the mix through `BenderBackend` and through `SimdVm<DramSubstrate>`
//! at the same 256 lanes.

use crate::gen::{self, derive, Rng, Tree};
use crate::spans::Tracer;
use crate::{Budget, Report};
use dram_core::{BankId, SimConfig, SubarrayId};
use fcdram::{BulkEngine, Fcdram, PackedBits};
use fcexec::{run_prepared, BenderBackend, ExecBackend, PreparedProgram};
use fcsynth::{CostModel, SynthProgram};
use simdram::{DramSubstrate, HostSubstrate, SimdVm};
use std::time::Instant;

const LANES: usize = 256;
/// Operand sets per program; pass `i` uses set `i % POOL`.
const POOL: usize = 16;

/// The paper's published success rates, percent: NOT at one
/// destination row, and the 16-input operations. Narrower shapes have
/// no single published figure; their rates are reported, not checked.
fn paper_rate(shape: &str) -> Option<f64> {
    match shape {
        "not" => Some(98.37),
        "nand16" => Some(94.94),
        "nor16" => Some(95.87),
        "and16" => Some(94.94),
        "or16" => Some(95.85),
        _ => None,
    }
}

/// Allowed distance of one chip's lane-match rate from the paper's
/// population mean, in percentage points: one chip sits anywhere in
/// the population's spread.
const TOLERANCE_PP: f64 = 5.0;

struct Program {
    name: String,
    tree: Tree,
    /// Whether this is one of the paper's single-gate shapes.
    paper: bool,
    prog: SynthProgram,
    inputs: Vec<String>,
}

struct State {
    progs: Vec<Program>,
    bender: BenderBackend,
    vm: SimdVm<DramSubstrate>,
    bender_preps: Vec<PreparedProgram>,
    vm_preps: Vec<PreparedProgram>,
    host: Option<(SimdVm<HostSubstrate>, Vec<PreparedProgram>)>,
    /// `operands[p][k]`: operand set `p` of program `k`.
    operands: Vec<Vec<Vec<PackedBits>>>,
    /// `words[p][k]`: the per-variable words behind `operands[p][k]`.
    words: Vec<Vec<Vec<Vec<u64>>>>,
}

fn engine() -> BulkEngine {
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(2 * LANES);
    BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0))
        .expect("Table-1 SK Hynix chip maps")
        .with_sim_config(SimConfig::fast())
}

fn prepare_all<B: ExecBackend>(
    b: &mut B,
    progs: &[Program],
    name: &'static str,
    mut tracer: Option<&mut Tracer>,
) -> Vec<PreparedProgram> {
    progs
        .iter()
        .map(|p| {
            let prep = match tracer.as_deref_mut() {
                Some(t) => {
                    let (prep, us) = t.span(name, None, 0, || b.prepare(&p.prog));
                    t.sample("fcexec.prepare_us", "us", us);
                    prep
                }
                None => b.prepare(&p.prog),
            };
            prep.expect("mix prepares")
        })
        .collect()
}

fn setup(seed: u64, mut tracer: Option<&mut Tracer>) -> State {
    let mut bender = BenderBackend::new(engine()).expect("bender backend builds");
    let mut vm = SimdVm::new(DramSubstrate::new(engine())).expect("vm backend builds");
    assert_eq!(bender.lanes(), LANES);
    assert_eq!(vm.lanes(), LANES);
    let fan_in = bender.max_fan_in();
    let cost = CostModel::table1_defaults();
    let shapes = gen::paper_shapes(seed)
        .into_iter()
        .map(|(n, t)| (n, t, true));
    let tenants = gen::tenant_exprs(seed)
        .into_iter()
        .map(|e| (e.name.to_string(), e.tree, false));
    let progs: Vec<Program> = shapes
        .chain(tenants)
        .map(|(name, tree, paper)| {
            let c = fcsynth::compile(&tree.text(), &cost, fan_in).expect("mix compiles");
            Program {
                name,
                tree,
                paper,
                prog: c.mapping.program,
                inputs: c.circuit.inputs().to_vec(),
            }
        })
        .collect();
    let bender_preps = prepare_all(
        &mut bender,
        &progs,
        "fcexec.prepare.bender",
        tracer.as_deref_mut(),
    );
    let vm_preps = prepare_all(
        &mut vm,
        &progs,
        "fcexec.prepare.vm_dram",
        tracer.as_deref_mut(),
    );
    let host = tracer.map(|_| {
        let mut host = SimdVm::new(HostSubstrate::new(LANES, 512)).expect("host VM builds");
        let preps = prepare_all(&mut host, &progs, "fcexec.prepare.host", None);
        (host, preps)
    });
    let mut rng = Rng::new(derive(seed, 0xDE71));
    let words: Vec<Vec<Vec<Vec<u64>>>> = (0..POOL)
        .map(|_| {
            progs
                .iter()
                .map(|_| gen::operand_words(&mut rng, LANES))
                .collect()
        })
        .collect();
    let operands = words
        .iter()
        .map(|set| {
            progs
                .iter()
                .zip(set)
                .map(|(p, w)| gen::program_operands(&p.inputs, w, LANES))
                .collect()
        })
        .collect();
    let mut st = State {
        progs,
        bender,
        vm,
        bender_preps,
        vm_preps,
        host,
        operands,
        words,
    };
    // Warm-up: every operand set once.
    for p in 0..POOL {
        std::hint::black_box(pass(&mut st, p).is_ok());
    }
    st
}

type Outputs = Vec<(PackedBits, PackedBits)>;

/// One pass of the mix through both DRAM backends.
fn pass(st: &mut State, p: usize) -> Result<Outputs, String> {
    let ops = &st.operands[p];
    let mut out = Vec::with_capacity(st.progs.len());
    for (k, ops) in ops.iter().enumerate() {
        let b =
            run_prepared(&mut st.bender, &st.bender_preps[k], ops).map_err(|e| e.to_string())?;
        let v = run_prepared(&mut st.vm, &st.vm_preps[k], ops).map_err(|e| e.to_string())?;
        out.push((b, v));
    }
    Ok(out)
}

/// The traced pass: each backend's walk of the mix is one span, and
/// the host VM runs the same mix at the same lanes for the
/// equal-lane device/host ratio.
fn traced_pass(st: &mut State, p: usize, t: &mut Tracer, id: u64) -> Result<Outputs, String> {
    let ops = &st.operands[p];
    let n = st.progs.len();
    let native_before = st.bender.native_ops();
    let (bender_out, bender_us) = t.span("fcexec.bender_pass", None, id, || {
        (0..n)
            .map(|k| run_prepared(&mut st.bender, &st.bender_preps[k], &ops[k]))
            .collect::<Result<Vec<_>, _>>()
    });
    let native = st.bender.native_ops() - native_before;
    let (vm_out, vm_us) = t.span("fcexec.vm_dram_pass", None, id, || {
        (0..n)
            .map(|k| run_prepared(&mut st.vm, &st.vm_preps[k], &ops[k]))
            .collect::<Result<Vec<_>, _>>()
    });
    let (host, host_preps) = st.host.as_mut().expect("traced set-up builds the host VM");
    let (host_out, host_us) = t.extra("fcexec.host_pass", id, || {
        (0..n)
            .map(|k| run_prepared(host, &host_preps[k], &ops[k]))
            .collect::<Result<Vec<_>, _>>()
    });
    t.sample("fcexec.bender_pass_us", "us", bender_us);
    t.sample("fcexec.vm_dram_pass_us", "us", vm_us);
    t.sample("fcexec.host_pass_us", "us", host_us);
    t.sample("fcexec.device_ratio", "ratio", bender_us / host_us);
    t.sample("bender.native_ops", "count", native as f64);
    let host_out = host_out.map_err(|e| e.to_string())?;
    for (k, h) in host_out.iter().enumerate() {
        if *h != st.progs[k].tree.eval(&st.words[p][k], LANES) {
            return Err(format!(
                "host VM result of {} differs from the evaluator",
                st.progs[k].name
            ));
        }
    }
    let b = bender_out.map_err(|e| e.to_string())?;
    let v = vm_out.map_err(|e| e.to_string())?;
    Ok(b.into_iter().zip(v).collect())
}

pub fn run(seed: u64, budget: Budget, mut tracer: Option<&mut Tracer>) -> Report {
    let (mut st, setup_times) =
        crate::stats::repeated_setup(budget.setups, || setup(seed, tracer.as_deref_mut()));
    let expected: Vec<Vec<PackedBits>> = st
        .words
        .iter()
        .map(|set| {
            st.progs
                .iter()
                .zip(set)
                .map(|(p, w)| p.tree.eval(w, LANES))
                .collect()
        })
        .collect();
    let mut rep = Report::new(setup_times);
    // Per program: lanes matching the evaluator, lanes run.
    let mut matches = vec![(0usize, 0usize); st.progs.len()];
    let mut disagreements = 0usize;
    let loop_start = Instant::now();
    while !budget.done(loop_start, rep.attempted, POOL) {
        let p = rep.attempted as usize % POOL;
        let t = Instant::now();
        let out = match tracer.as_deref_mut() {
            Some(tr) => traced_pass(&mut st, p, tr, rep.attempted),
            None => pass(&mut st, p),
        };
        let us =
            crate::stats::secs(t) * 1e6 - tracer.as_deref_mut().map_or(0.0, Tracer::take_extra_us);
        let failed = match out {
            Ok(out) => {
                let mut agree = true;
                for (k, (b, v)) in out.iter().enumerate() {
                    agree &= b == v;
                    matches[k].0 += b.count_matches(&expected[p][k]);
                    matches[k].1 += LANES;
                }
                disagreements += usize::from(!agree);
                if !agree && rep.notes.len() < 4 {
                    rep.note(format!("pass {}: backends disagree", rep.attempted));
                }
                !agree
            }
            Err(e) => {
                if rep.notes.len() < 4 {
                    rep.note(format!("pass {}: {e}", rep.attempted));
                }
                true
            }
        };
        rep.op_done(us, failed);
    }
    if !budget.checks {
        return rep;
    }
    rep.setups_after(budget, || setup(seed, tracer.as_deref_mut()));
    let mut rates = Vec::new();
    for (prog, (hit, total)) in st.progs.iter().zip(&matches) {
        let rate = 100.0 * *hit as f64 / (*total).max(1) as f64;
        rates.push(format!("{} {rate:.2}%", prog.name));
        if let Some(paper) = paper_rate(&prog.name).filter(|_| prog.paper) {
            rep.check(
                &format!(
                    "{} lane-match {rate:.2}% within {TOLERANCE_PP} pp of paper {paper}%",
                    prog.name
                ),
                (rate - paper).abs() <= TOLERANCE_PP,
            );
        }
    }
    rep.note(format!("lane-match rates: {}", rates.join(", ")));
    rep.check(
        "both DRAM backends agree bit for bit on every pass",
        disagreements == 0,
    );
    rep
}
