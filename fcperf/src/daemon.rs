//! `daemon-replay`: recorded multi-tier tenant sessions replayed
//! through fcserve with fcobs tracing and metrics on. One operation is
//! one session: replay, Chrome export, report JSON and the metrics
//! exposition.

use crate::gen::{self, derive, TenantExpr, Tree};
use crate::spans::Tracer;
use crate::{Budget, Report};
use dram_core::math::{mix2, mix3};
use dram_core::FleetConfig;
use fcdram::PackedBits;
use fcobs::{Observability, Phase, TraceEvent};
use fcserve::{
    replay_obs, Daemon, DaemonConfig, DaemonKnobs, DaemonReport, IngestEvent, SessionLog,
    TenantSpec, TierClass,
};
use fcsynth::CostModel;
use std::collections::VecDeque;
use std::time::Instant;

const CHIPS: usize = 8;
const LANES: usize = 64;
const TICKS: usize = 64;
/// Recorded sessions per run; the loop cycles through them.
const POOL: usize = 4;
const TRACE_CAPACITY: usize = 1 << 20;

/// The tenant fleet: three tiers, every expression admissible under
/// its tenant's reliability floor, queue bounds far above what the
/// arrival rates (about 6 jobs per tick against a micro-batch budget
/// of 12) can fill, so nothing is rejected, shed or left undrained.
fn tenants(exprs: &[TenantExpr]) -> Vec<TenantSpec> {
    let pick = |names: &[&str]| -> Vec<String> {
        names
            .iter()
            .map(|n| {
                exprs
                    .iter()
                    .find(|e| e.name == *n)
                    .expect("tenant expression exists")
                    .tree
                    .text()
            })
            .collect()
    };
    let spec = |name: &str, tier, exprs, rate, burst, slo_us| TenantSpec {
        name: name.into(),
        tier,
        exprs,
        rate,
        burst,
        slo_us,
        queue_cap: 64,
        sheddable: false,
        min_success: 0.75,
    };
    vec![
        spec(
            "interactive",
            TierClass::Gold,
            pick(&["majority", "nand4", "nor3"]),
            2.0,
            0,
            150.0,
        ),
        spec(
            "analytics",
            TierClass::Silver,
            pick(&["xor4", "and4-xor-or4", "nand2-or-xor2"]),
            1.5,
            2,
            400.0,
        ),
        spec(
            "reports",
            TierClass::Silver,
            pick(&["majority", "xor4"]),
            1.0,
            1,
            400.0,
        ),
        spec("bulk", TierClass::Bronze, pick(&["and16"]), 1.0, 2, 2000.0),
    ]
}

struct State {
    fleet: FleetConfig,
    cost: CostModel,
    logs: Vec<SessionLog>,
    /// Per tenant, per expression: the benchmark's tree and the
    /// compiled program's input names.
    programs: Vec<Vec<(Tree, Vec<String>)>>,
}

/// Builds one recorded session. Arrivals and the session seed (which
/// keys the micro-batch retry draws) are fixed per pool slot; the
/// operand seed of every job comes from the benchmark seed.
fn session(seed: u64, slot: usize, specs: &[TenantSpec]) -> SessionLog {
    let cfg = DaemonConfig {
        seed: derive(0xDAE0, slot as u64),
        lanes: LANES,
        fan_in: 16,
        knobs: DaemonKnobs {
            ticks: TICKS,
            ..DaemonKnobs::default()
        },
        policy: crate::serve::policy(),
    };
    let mut log = SessionLog::for_config(&cfg, specs, CHIPS, 0, None, None);
    for tick in 0..TICKS {
        for (t, spec) in specs.iter().enumerate() {
            for k in 0..spec.arrivals(t, cfg.seed, tick) {
                log.events.push(IngestEvent {
                    tick,
                    tenant: t,
                    expr: spec.pick_expr(t, cfg.seed, tick, k),
                    job_seed: derive(seed, mix3(slot as u64, tick as u64, (t * 64 + k) as u64)),
                });
            }
        }
    }
    log
}

fn setup(seed: u64) -> State {
    let exprs = gen::tenant_exprs(seed);
    let specs = tenants(&exprs);
    let cost = CostModel::table1_defaults();
    let programs = specs
        .iter()
        .map(|s| {
            s.exprs
                .iter()
                .map(|text| {
                    let tree = exprs
                        .iter()
                        .find(|e| e.tree.text() == *text)
                        .expect("expression from the set")
                        .tree
                        .clone();
                    let c = fcsynth::compile(text, &cost, 16).expect("tenant expression compiles");
                    (tree, c.circuit.inputs().to_vec())
                })
                .collect()
        })
        .collect();
    let st = State {
        fleet: FleetConfig::table1(CHIPS),
        cost,
        logs: (0..POOL).map(|s| session(seed, s, &specs)).collect(),
        programs,
    };
    // Warm-up: every recorded session once.
    for log in &st.logs {
        std::hint::black_box(op(&st, log).is_ok());
    }
    st
}

fn obs() -> Observability {
    Observability::disabled()
        .with_trace(TRACE_CAPACITY)
        .with_metrics(None)
}

/// What a session produced: the report, its trace, and the sizes of
/// the serialized artifacts.
struct Session {
    report: DaemonReport,
    events: Vec<TraceEvent>,
    dropped: u64,
}

fn finish(report: DaemonReport, mut o: Observability) -> (Session, Option<String>) {
    let buf = o.trace.take().expect("tracing is on");
    let dropped = buf.dropped();
    let metrics = o.last_metrics.take();
    (
        Session {
            report,
            events: buf.finish(),
            dropped,
        },
        metrics,
    )
}

fn op(st: &State, log: &SessionLog) -> Result<Session, String> {
    let (report, o) =
        replay_obs(&st.fleet, &st.cost, log, None, None, obs()).map_err(|e| e.to_string())?;
    let (s, metrics) = finish(report, o);
    let chrome = fcobs::chrome::to_chrome(&s.events);
    let json = s.report.to_json();
    std::hint::black_box(chrome.len() + json.len() + metrics.map_or(0, |m| m.len()));
    Ok(s)
}

/// The traced session: the same public calls `replay_obs` makes, each
/// timed.
fn traced(st: &State, log: &SessionLog, t: &mut Tracer, id: u64) -> Result<Session, String> {
    let start = Instant::now();
    log.validate().map_err(|e| e.to_string())?;
    let cfg = log.config(None, None);
    let mut by_tick: Vec<Vec<IngestEvent>> = vec![Vec::new(); cfg.knobs.ticks];
    for e in &log.events {
        by_tick[e.tick].push(*e);
    }
    let (mut daemon, us) = t.span("fcserve.daemon_new", None, id, || {
        Daemon::new(&st.fleet, &st.cost, cfg, log.tenants.clone()).with_obs(obs())
    });
    t.sample("fcserve.daemon_new_us", "us", us);
    for (tick, events) in by_tick.iter().enumerate() {
        let (r, us) = t.span("fcserve.step", None, id, || daemon.step(tick, events));
        r.map_err(|e| e.to_string())?;
        t.sample("fcserve.step_us", "us", us);
    }
    let (r, us) = t.span("fcserve.drain_and_finish", None, id, || {
        daemon.drain_and_finish_obs()
    });
    t.sample("fcserve.drain_us", "us", us);
    let (report, o) = r.map_err(|e| e.to_string())?;
    let (s, metrics) = finish(report, o);
    let (chrome, us) = t.span("fcobs.to_chrome", None, id, || {
        fcobs::chrome::to_chrome(&s.events)
    });
    t.sample("fcobs.chrome_us", "us", us);
    let (json, us) = t.span("fcserve.report_json", None, id, || s.report.to_json());
    t.sample("fcserve.report_json_us", "us", us);
    std::hint::black_box(chrome.len() + json.len() + metrics.map_or(0, |m| m.len()));
    t.record("daemon.session", start, Instant::now(), None, id);
    t.sample("fcobs.trace_events", "count", s.events.len() as f64);
    t.sample(
        "fcserve.jobs_completed",
        "count",
        s.report.totals.completed as f64,
    );
    Ok(s)
}

/// The result digest the daemon must report if every served job's bits
/// equal the benchmark evaluator's. Jobs are matched to their ingest
/// events through the trace: each job span names its tenant, and a
/// tenant's queue is first in, first out.
fn expected_digest(st: &State, log: &SessionLog, events: &[TraceEvent]) -> Option<u64> {
    let mut queues: Vec<VecDeque<IngestEvent>> = vec![VecDeque::new(); log.tenants.len()];
    for e in &log.events {
        queues[e.tenant].push_back(*e);
    }
    let mut digest = 0x5E12_FEED_u64;
    let jobs = events
        .iter()
        .filter(|e| e.phase == Phase::Span && e.cat == "sched" && e.job > 0 && e.step == 0);
    for ev in jobs {
        let tenant = ev.name.split(':').next()?;
        let t = log.tenants.iter().position(|s| s.name == tenant)?;
        let ie = queues[t].pop_front()?;
        let (tree, inputs) = &st.programs[t][ie.expr];
        // Operand bit `l` of program input `k` is bit 0 of
        // mix3(job_seed, k, l), as recorded sessions define it.
        let mut words = vec![vec![0u64; LANES.div_ceil(64)]; gen::VARS];
        for (k, name) in inputs.iter().enumerate() {
            let row = &mut words[gen::var_index(name)];
            for l in 0..LANES {
                row[l / 64] |= (mix3(ie.job_seed, k as u64, l as u64) & 1) << (l % 64);
            }
        }
        let want: PackedBits = tree.eval(&words, LANES);
        digest = mix2(digest, fcsched::digest(&want));
    }
    queues.iter().all(VecDeque::is_empty).then_some(digest)
}

pub fn run(seed: u64, budget: Budget, mut tracer: Option<&mut Tracer>) -> Report {
    let (st, setup_times) = crate::stats::repeated_setup(budget.setups, || setup(seed));
    let mut digests: Vec<Option<Option<u64>>> = vec![None; POOL];
    let mut rep = Report::new(setup_times);
    let mut wrong_bits = 0usize;
    let loop_start = Instant::now();
    while !budget.done(loop_start, rep.attempted, POOL) {
        let p = rep.attempted as usize % POOL;
        let log = &st.logs[p];
        let t = Instant::now();
        let out = match tracer.as_deref_mut() {
            Some(tr) => traced(&st, log, tr, rep.attempted),
            None => op(&st, log),
        };
        let us = crate::stats::secs(t) * 1e6;
        let failed = match out {
            Ok(s) => {
                let tot = &s.report.totals;
                let want = *digests[p].get_or_insert_with(|| expected_digest(&st, log, &s.events));
                let bits_ok = s.dropped == 0 && want == Some(tot.result_digest);
                wrong_bits += usize::from(!bits_ok);
                let jobs_ok = tot.rejected == 0
                    && tot.shed == 0
                    && tot.undrained == 0
                    && tot.failed == 0
                    && tot.completed == tot.submitted
                    && tot.submitted == log.events.len();
                if !(bits_ok && jobs_ok) && rep.notes.len() < 4 {
                    rep.note(format!(
                        "session {p}: submitted {} completed {} failed {} rejected {} shed {} undrained {}, digest {}",
                        tot.submitted,
                        tot.completed,
                        tot.failed,
                        tot.rejected,
                        tot.shed,
                        tot.undrained,
                        if bits_ok { "ok" } else { "differs" }
                    ));
                }
                !(bits_ok && jobs_ok)
            }
            Err(e) => {
                if rep.notes.len() < 4 {
                    rep.note(format!("session {p}: {e}"));
                }
                true
            }
        };
        rep.op_done(us, failed);
    }
    if !budget.checks {
        return rep;
    }
    rep.setups_after(budget, || setup(seed));
    rep.check(
        "every served job's bits equal the benchmark evaluator's (session result digest)",
        wrong_bits == 0,
    );
    if let Ok(s) = op(&st, &st.logs[0]) {
        let tot = &s.report.totals;
        rep.note(format!(
            "session 0: {} jobs in {} micro-batches, {} native ops, {} narrowed, {} retries, \
             {} trace events; modeled {:.0} jobs/s",
            tot.completed,
            tot.batches,
            tot.native_ops,
            tot.narrowed,
            tot.retries,
            s.events.len(),
            tot.modeled_jobs_per_s
        ));
    }
    rep
}
