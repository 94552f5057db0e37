//! `serve-batch`: fcsched's throughput path on the host VM. One
//! operation compiles the batch's distinct expressions, plans the
//! batch, executes the plan on two shards, and serializes the report.

use crate::gen::{self, derive, Rng, TenantExpr};
use crate::spans::Tracer;
use crate::{Budget, Report};
use dram_core::FleetConfig;
use fcdram::PackedBits;
use fcsched::{execute_plan, Batch, BatchReport, Plan, Planner, SchedPolicy};
use fcsynth::{Compiled, CostModel};
use std::time::Instant;

const JOBS: usize = 256;
const LANES: usize = 256;
const CHIPS: usize = 16;
const FAN_IN: usize = 16;
/// Distinct batches per run; the loop cycles through them.
const POOL: usize = 8;

/// One pre-built batch: per job, the tenant expression and the packed
/// operands in the compiled program's input order.
struct PoolBatch {
    seed: u64,
    jobs: Vec<(usize, Vec<PackedBits>)>,
    words: Vec<Vec<Vec<u64>>>,
}

struct State {
    fleet: FleetConfig,
    cost: CostModel,
    policy: SchedPolicy,
    exprs: Vec<TenantExpr>,
    texts: Vec<String>,
    pool: Vec<PoolBatch>,
}

/// Scheduler policy: the defaults, on two shards.
pub fn policy() -> SchedPolicy {
    SchedPolicy {
        shards: 2,
        ..SchedPolicy::default()
    }
}

fn setup(seed: u64) -> State {
    let cost = CostModel::table1_defaults();
    let exprs = gen::tenant_exprs(seed);
    let texts: Vec<String> = exprs.iter().map(|e| e.tree.text()).collect();
    let inputs: Vec<Vec<String>> = texts
        .iter()
        .map(|t| {
            let c = fcsynth::compile(t, &cost, FAN_IN).expect("generated expressions compile");
            c.circuit.inputs().to_vec()
        })
        .collect();
    let mut rng = Rng::new(derive(seed, 0x5E7E));
    let pool = (0..POOL)
        .map(|p| {
            // Jobs cycle through the expressions in a fixed order and
            // the batch seed (which keys the modeled retry draws) is
            // fixed too: plans and retries are the same for every
            // benchmark seed, which varies the operand data.
            let mut jobs = Vec::with_capacity(JOBS);
            let mut words = Vec::with_capacity(JOBS);
            for j in 0..JOBS {
                let e = j % exprs.len();
                let w = gen::operand_words(&mut rng, LANES);
                jobs.push((e, gen::program_operands(&inputs[e], &w, LANES)));
                words.push(w);
            }
            PoolBatch {
                seed: derive(0x5E12_BA7C, p as u64),
                jobs,
                words,
            }
        })
        .collect();
    State {
        fleet: FleetConfig::table1(CHIPS),
        cost,
        policy: policy(),
        exprs,
        texts,
        pool,
    }
}

type OpResult = Result<(Batch, Plan, BatchReport), String>;

fn compile_all(st: &State) -> Result<Vec<Compiled>, String> {
    st.texts
        .iter()
        .map(|t| fcsynth::compile(t, &st.cost, FAN_IN).map_err(|e| e.to_string()))
        .collect()
}

fn build_batch(st: &State, pb: &PoolBatch, compiled: &[Compiled]) -> Result<Batch, String> {
    let mut batch = Batch::new(pb.seed);
    for (e, ops) in &pb.jobs {
        batch
            .push(st.exprs[*e].name, &compiled[*e].mapping, ops.clone(), LANES)
            .map_err(|e| e.to_string())?;
    }
    Ok(batch)
}

fn op(st: &State, pb: &PoolBatch) -> OpResult {
    let compiled = compile_all(st)?;
    let batch = build_batch(st, pb, &compiled)?;
    let plan = Planner::new(&st.fleet, &st.cost, &st.policy)
        .plan(&batch)
        .map_err(|e| e.to_string())?;
    let report = execute_plan(&batch, &plan, &st.policy).map_err(|e| e.to_string())?;
    std::hint::black_box(report.to_json().len());
    Ok((batch, plan, report))
}

fn traced(st: &State, pb: &PoolBatch, t: &mut Tracer, id: u64) -> OpResult {
    let start = Instant::now();
    let (compiled, compile_us) = t.span("fcsynth.compile", None, id, || compile_all(st));
    let compiled = compiled?;
    let (batch, _) = t.span("fcsched.batch_push", None, id, || {
        build_batch(st, pb, &compiled)
    });
    let batch = batch?;
    let planner = Planner::new(&st.fleet, &st.cost, &st.policy);
    let (plan, plan_us) = t.span("fcsched.plan", None, id, || planner.plan(&batch));
    let plan = plan.map_err(|e| e.to_string())?;
    let (report, exec_us) = t.span("fcsched.execute_plan", None, id, || {
        execute_plan(&batch, &plan, &st.policy)
    });
    let report = report.map_err(|e| e.to_string())?;
    let (json, json_us) = t.span("fcsched.report_json", None, id, || report.to_json());
    std::hint::black_box(json.len());
    t.record("serve.batch", start, Instant::now(), None, id);
    // The compute floor: the reference evaluator over the same jobs.
    let (floor, floor_us) = t.extra("fcsynth.eval_packed", id, || {
        pb.jobs
            .iter()
            .map(|(e, ops)| compiled[*e].circuit.eval_packed(ops).words()[0])
            .fold(0u64, |a, w| a ^ w)
    });
    std::hint::black_box(floor);
    t.sample("fcsynth.compile_us", "us", compile_us);
    t.sample("fcsched.plan_us", "us", plan_us);
    t.sample("fcsched.execute_us", "us", exec_us);
    t.sample("fcsched.report_json_us", "us", json_us);
    t.sample("fcsynth.eval_floor_us", "us", floor_us);
    t.sample("fcsched.floor_ratio", "ratio", exec_us / floor_us);
    t.sample("fcsched.native_ops", "count", report.native_ops() as f64);
    t.sample(
        "fcsched.fused_jobs",
        "count",
        fcsched::fused_jobs(&batch, &plan) as f64,
    );
    Ok((batch, plan, report))
}

/// Jobs that exhausted their retry budget, and jobs whose bits differ
/// from the benchmark evaluator's.
fn job_faults(expected: &[PackedBits], report: &BatchReport) -> (usize, usize) {
    let mismatched = report.outcomes.len().abs_diff(expected.len())
        + report
            .outcomes
            .iter()
            .zip(expected)
            .filter(|(o, want)| o.result != **want)
            .count();
    (report.failed_jobs(), mismatched)
}

pub fn run(seed: u64, budget: Budget, mut tracer: Option<&mut Tracer>) -> Report {
    let warmed_up = || {
        let st = setup(seed);
        // Warm-up: every pool batch once.
        for pb in &st.pool {
            std::hint::black_box(op(&st, pb).is_ok());
        }
        st
    };
    let (st, setup_times) = crate::stats::repeated_setup(budget.setups, warmed_up);
    let expected: Vec<Vec<PackedBits>> = st
        .pool
        .iter()
        .map(|pb| {
            pb.jobs
                .iter()
                .zip(&pb.words)
                .map(|((e, _), w)| st.exprs[*e].tree.eval(w, LANES))
                .collect()
        })
        .collect();
    let mut rep = Report::new(setup_times);
    let mut mismatched = 0usize;
    let loop_start = Instant::now();
    while !budget.done(loop_start, rep.attempted, POOL) {
        let p = rep.attempted as usize % POOL;
        let t = Instant::now();
        let out = match tracer.as_deref_mut() {
            Some(tr) => traced(&st, &st.pool[p], tr, rep.attempted),
            None => op(&st, &st.pool[p]),
        };
        let us =
            crate::stats::secs(t) * 1e6 - tracer.as_deref_mut().map_or(0.0, Tracer::take_extra_us);
        let failed = match &out {
            Ok((_, _, report)) => {
                let (failed_jobs, wrong) = job_faults(&expected[p], report);
                mismatched += wrong;
                if failed_jobs + wrong > 0 && rep.notes.len() < 4 {
                    rep.note(format!(
                        "pool batch {p}: {failed_jobs} job(s) out of retries, {wrong} result mismatch(es)"
                    ));
                }
                failed_jobs + wrong > 0
            }
            Err(e) => {
                if rep.notes.len() < 4 {
                    rep.note(format!("pool batch {p}: {e}"));
                }
                true
            }
        };
        rep.op_done(us, failed);
    }
    if !budget.checks {
        return rep;
    }
    rep.setups_after(budget, warmed_up);
    rep.check(
        "every served job's bits equal the benchmark evaluator's",
        mismatched == 0,
    );
    if let Ok((batch, plan, report)) = op(&st, &st.pool[0]) {
        let lat = report.latency();
        rep.note(format!(
            "pool batch 0: {} jobs, {} native ops, {} fused jobs, {} remapped, {} flagged, \
             {} retries; modeled job latency mean {:.3} us, p90 {:.3} us, total {:.2} us",
            report.jobs(),
            report.native_ops(),
            fcsched::fused_jobs(&batch, &plan),
            report.remapped(),
            report.flagged(),
            report.total_retries(),
            lat.mean_ns / 1e3,
            lat.p90_ns / 1e3,
            report.total_latency_ns() / 1e3,
        ));
    }
    rep
}
