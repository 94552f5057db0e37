//! End-to-end and per-layer host-time benchmark of the FCDRAM stack.
//!
//! ```text
//! fcperf --workload <fleet-sweep|serve-batch|device-exec|daemon-replay>
//!        --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a single closed-loop client: the next operation
//! starts when the previous one returns. `--trace 0` measures the
//! end-to-end metrics with no instrumentation in the program path.
//! `--trace 1` times every call into a layer's public function from
//! this crate, keeps the spans in memory, writes them to
//! `fcperf/out/spans-<workload>-<seed>.json` at the end, and prints the
//! per-layer metrics instead. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod daemon;
mod device;
mod fleet;
mod gen;
mod serve;
mod spans;
mod stats;

use spans::Tracer;
use std::time::Instant;

/// How long a workload's loop runs and what it does around it.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Minimum loop wall time.
    pub seconds: f64,
    /// Minimum operations.
    pub min_ops: u64,
    /// Whether the loop ends only after whole rounds over the
    /// workload's operation pool (so the failed share of a run is the
    /// same however long it runs).
    pub whole_rounds: bool,
    /// Set-ups measured before the timed loop (the last one's state is
    /// used) and again after it; the median of all is reported.
    pub setups: usize,
    /// Whether the output checks run after the loop.
    pub checks: bool,
}

/// Operations every measured run times at least; the memory mark is
/// read once this many have completed, so that it measures a fixed
/// amount of work however fast the run goes.
const MIN_OPS: u64 = 100;

impl Budget {
    fn full(seconds: f64) -> Budget {
        Budget {
            seconds,
            min_ops: MIN_OPS,
            whole_rounds: true,
            setups: 6,
            checks: true,
        }
    }

    /// A short traced pass of a workload other than the measured one,
    /// so that every traced run reports every per-layer metric.
    fn brief(min_ops: u64) -> Budget {
        Budget {
            seconds: 0.0,
            min_ops,
            whole_rounds: false,
            setups: 1,
            checks: false,
        }
    }

    pub fn done(&self, loop_start: Instant, attempted: u64, round: usize) -> bool {
        stats::secs(loop_start) >= self.seconds
            && attempted >= self.min_ops
            && (!self.whole_rounds || attempted.is_multiple_of(round as u64))
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Host time of every operation, microseconds.
    pub latencies_us: Vec<f64>,
    /// Host time of every measured set-up, seconds.
    pub setup_times: Vec<f64>,
    /// `VmHWM` in MB once `MIN_OPS` operations had completed.
    pub peak_rss_mb: Option<f64>,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(setup_times: Vec<f64>) -> Report {
        Report {
            setup_times,
            ..Report::default()
        }
    }

    /// Records an operation that took `us` microseconds of host time.
    pub fn op_done(&mut self, us: f64, failed: bool) {
        self.latencies_us.push(us);
        self.attempted += 1;
        self.failed += u64::from(failed);
        if self.attempted == MIN_OPS {
            self.peak_rss_mb = Some(stats::peak_rss_mb());
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds `budget.setups` more set-ups, timed after the loop and
    /// dropped, so that the reported median samples the host at both
    /// ends of the run.
    pub fn setups_after<T>(&mut self, budget: Budget, setup: impl FnMut() -> T) {
        self.setup_times
            .extend(stats::repeated_setup(budget.setups, setup).1);
    }

    fn setup_s(&self) -> f64 {
        stats::median(&self.setup_times)
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    fn busy_s(&self) -> f64 {
        self.latencies_us.iter().sum::<f64>() / 1e6
    }
}

const WORKLOADS: [&str; 4] = ["fleet-sweep", "serve-batch", "device-exec", "daemon-replay"];

/// Every per-layer metric a traced run reports.
const PER_LAYER: [&str; 26] = [
    "fcdram.discover_ms",
    "characterize.chip_sweep_ms",
    "characterize.report_ms",
    "characterize.shard_efficiency",
    "fcdram.cells",
    "fcsynth.compile_us",
    "fcsched.plan_us",
    "fcsched.execute_us",
    "fcsched.report_json_us",
    "fcsynth.eval_floor_us",
    "fcsched.floor_ratio",
    "fcsched.native_ops",
    "fcsched.fused_jobs",
    "fcexec.prepare_us",
    "fcexec.bender_pass_us",
    "fcexec.vm_dram_pass_us",
    "fcexec.host_pass_us",
    "fcexec.device_ratio",
    "bender.native_ops",
    "fcserve.daemon_new_us",
    "fcserve.step_us",
    "fcserve.drain_us",
    "fcobs.chrome_us",
    "fcserve.report_json_us",
    "fcobs.trace_events",
    "fcserve.jobs_completed",
];

fn run_workload(name: &str, seed: u64, budget: Budget, tracer: Option<&mut Tracer>) -> Report {
    match name {
        "fleet-sweep" => fleet::run(seed, budget, tracer),
        "serve-batch" => serve::run(seed, budget, tracer),
        "device-exec" => device::run(seed, budget, tracer),
        "daemon-replay" => daemon::run(seed, budget, tracer),
        _ => unreachable!("workload names are validated"),
    }
}

/// Operations of a brief secondary traced pass, per workload.
fn brief_ops(name: &str) -> u64 {
    match name {
        "fleet-sweep" => 4,
        "daemon-replay" => 8,
        _ => 32,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn print_checks(rep: &Report) {
    for (what, ok) in &rep.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for n in &rep.notes {
        println!("note: {n}");
    }
}

/// The end-to-end figures of a run: throughput, p50, p90.
fn e2e(rep: &Report) -> (f64, f64, f64) {
    let completed = (rep.attempted - rep.failed) as f64;
    (
        completed / rep.busy_s(),
        stats::quantile(&rep.latencies_us, 0.5),
        stats::quantile(&rep.latencies_us, 0.9),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fcperf: {e}");
            std::process::exit(2);
        }
    };
    let budget = Budget::full(args.seconds);
    let mut tracer = args.trace.then(Tracer::new);
    let rep = run_workload(&args.workload, args.seed, budget, tracer.as_mut());
    print_checks(&rep);
    let (tput, p50, p90) = e2e(&rep);
    let samples = rep.latencies_us.len();
    println!(
        "{} seed {}{}: {} ops ({} failed), {samples} latency samples ({} beyond p90), \
         setup {:.4} s",
        args.workload,
        args.seed,
        if args.trace { " traced" } else { "" },
        rep.attempted,
        rep.failed,
        samples - (samples as f64 * 0.9).ceil() as usize,
        rep.setup_s(),
    );
    // The run's own end-to-end figures, traced or not, for comparing
    // a traced run with an untraced one.
    println!(
        "e2e {{\"throughput_per_s\": {tput}, \"latency_p50_us\": {p50}, \"latency_p90_us\": {p90}}}"
    );

    let mut correct = rep.correct();
    let metrics: Vec<String> = match tracer.as_mut() {
        None => vec![
            metric("throughput_per_s", tput, "1/s"),
            metric("latency_p50_us", p50, "us"),
            metric("latency_p90_us", p90, "us"),
            metric("setup_s", rep.setup_s(), "s"),
            metric(
                "peak_rss_mb",
                rep.peak_rss_mb
                    .expect("every measured run times MIN_OPS operations"),
                "MB",
            ),
        ],
        Some(t) => {
            for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
                let r = run_workload(other, args.seed, Budget::brief(brief_ops(other)), Some(t));
                correct &= r.correct() && r.failed == 0;
            }
            let path = format!("fcperf/out/spans-{}-{}.json", args.workload, args.seed);
            match t.write(std::path::Path::new(&path)) {
                Ok(()) => println!("{} spans written to {path}", t.span_count()),
                Err(e) => {
                    eprintln!("fcperf: cannot write {path}: {e}");
                    correct = false;
                }
            }
            let measured = t.metrics();
            for (name, value, unit, n) in &measured {
                println!("layer {name} = {value:.4} {unit} (median of {n})");
            }
            for name in PER_LAYER {
                if !measured.iter().any(|(n, ..)| *n == name) {
                    println!("layer {name} missing");
                    correct = false;
                }
            }
            measured
                .iter()
                .map(|(name, value, unit, _)| metric(name, *value, unit))
                .collect()
        }
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
}
