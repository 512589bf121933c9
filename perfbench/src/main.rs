//! `perfbench` — the service benchmark for the k-ECSS workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! With `--trace 0` it sets the workload's service up (several times; the
//! median is `setup_s`), drives the workload's jobs through it for
//! `--seconds`, checks every payload byte for byte against an in-process
//! `job::run` oracle, and prints the end-to-end metrics. With `--trace 1` it
//! times, from outside, the calls into each layer's public functions and
//! prints per-layer tables (see [`layers`]). The last line of standard
//! output is always one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any failed, refused, unverified or mismatching job makes the
//! run incorrect and the exit code 1.

mod layers;
mod service;
mod stats;
mod workload;

use kecss_runtime::Executor;
use kecss_server::job::{self, JobSpec};
use service::{Pass, Payloads, Service};
use stats::Metric;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Workload;

/// Set-ups per run: at least [`SETUP_MIN_REPEATS`], and more until
/// [`SETUP_MIN_SECONDS`] have passed (at most [`SETUP_MAX_REPEATS`]). The
/// host's speed swings by a quarter from one half-second to the next, so
/// the median is taken over set-ups spread across two seconds rather than
/// over a burst that samples one swing.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPEATS: usize = 400;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

/// The workload's service, job plan and lower bounds, ready to measure.
pub struct SetUp {
    /// The running service, warmed up.
    pub service: Service,
    /// The first payload of each plan entry the warm-up jobs reached.
    pub payloads: Payloads,
    /// Warm-up jobs, over every set-up, that failed, were refused or
    /// returned a payload that differs from an earlier one of their entry.
    pub warmup_errors: u64,
    /// The distinct job specs, in submission order.
    pub plan: Vec<JobSpec>,
    /// `lower_bounds::k_ecss_lower_bound` of each plan entry's instance.
    pub lower_bounds: Vec<u64>,
    /// Median wall time of one set-up, in seconds.
    pub setup_s: f64,
    /// The fixture file, removed by [`remove_fixture`].
    pub fixture: Option<PathBuf>,
}

/// Removes the set-up fixture file, if any.
pub fn remove_fixture(fixture: Option<&Path>) {
    if let Some(path) = fixture {
        let _ = std::fs::remove_file(path);
    }
}

/// Writes the `KGB1` fixture the `file:` jobs stream.
fn write_fixture(path: &Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut sink = std::io::BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    kecss_bench::workloads::e14_write_synthetic_kgb1(
        &mut sink,
        workload::FIXTURE_VERTICES,
        workload::FIXTURE_EDGES,
    )?;
    sink.flush()
}

/// Sets the workload up repeatedly (fixture, instances and their lower
/// bounds, service, connection, warm-up jobs), stopping all but the last
/// set-up; see [`SETUP_MIN_REPEATS`].
///
/// # Panics
///
/// Panics if the fixture cannot be written or an instance cannot be built.
pub fn set_up(workload: &Workload, seed: u64, work_dir: &Path) -> SetUp {
    std::fs::create_dir_all(work_dir).expect("create the work directory");
    let fixture = workload
        .needs_fixture()
        .then(|| work_dir.join(format!("fixture-{}.graphb", std::process::id())));
    let fixture_field = fixture
        .as_ref()
        .map_or(String::new(), |p| p.display().to_string());
    let mut times: Vec<f64> = Vec::new();
    let mut payloads = Payloads::new(workload.plan(seed, &fixture_field).len());
    let mut warmup_errors = 0;
    let mut kept: Option<(Service, Vec<JobSpec>, Vec<u64>)> = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        if let Some((service, ..)) = kept.take() {
            service.stop();
        }
        let start = Instant::now();
        if let Some(path) = &fixture {
            write_fixture(path).expect("write the fixture");
        }
        let plan = workload.plan(seed, &fixture_field);
        let lower_bounds: Vec<u64> = plan
            .iter()
            .map(|spec| {
                let graph = spec
                    .instance
                    .build(spec.k, spec.seed)
                    .expect("workload instances build");
                kecss::lower_bounds::k_ecss_lower_bound(&graph, spec.algorithm.certified_k(spec.k))
            })
            .collect();
        let mut service = Service::start(workload, None);
        warmup_errors += service::warm_up(&mut service, &plan, workload.warmup_jobs, &mut payloads);
        times.push(start.elapsed().as_secs_f64());
        kept = Some((service, plan, lower_bounds));
    }
    let (service, plan, lower_bounds) = kept.expect("at least one set-up");
    println!(
        "setup: median of {} set-ups, each with {} warm-up jobs ({warmup_errors} failed)",
        times.len(),
        workload.warmup_jobs
    );
    SetUp {
        service,
        payloads,
        warmup_errors,
        plan,
        lower_bounds,
        setup_s: stats::median(&times),
        fixture,
    }
}

/// The in-process oracle: `job::run` with the sequential executor.
pub fn oracle(spec: &JobSpec) -> Result<Vec<u8>, String> {
    job::run(spec, &Executor::Sequential)
}

/// Whether a payload carries an accepted exact verification verdict.
pub fn verified(payload: &[u8]) -> bool {
    String::from_utf8_lossy(payload)
        .lines()
        .any(|l| l.starts_with("verified k=") && l.ends_with(" yes"))
}

/// The solution weight a payload reports.
pub fn solution_weight(payload: &[u8]) -> Option<u64> {
    String::from_utf8_lossy(payload)
        .lines()
        .find_map(|l| l.strip_prefix("solution "))
        .and_then(|l| l.split_whitespace().find_map(|w| w.strip_prefix("weight=")))
        .and_then(|w| w.parse().ok())
}

/// The result of checking a pass against the oracle.
pub struct Checked {
    /// Jobs that failed, were refused, were unverified or mismatched.
    pub errors: u64,
    /// Σ solution weight over the jobs that returned a payload.
    pub weight: u64,
    /// Σ lower bound over the same jobs.
    pub lower_bound: u64,
}

/// Checks `pass` against the oracle: a job is good when it returned a
/// payload byte-identical to the first payload of its plan entry (compared
/// on arrival, see [`Payloads`]), and that first payload equals the
/// oracle's (`oracle(i)` for entry `i`) and is verified. Busy, failed and
/// mismatched jobs all count as errors. Prints each entry that misses.
pub fn check(
    pass: &Pass,
    plan: &[JobSpec],
    payloads: &Payloads,
    lower_bounds: &[u64],
    mut oracle: impl FnMut(usize) -> Result<Vec<u8>, String>,
) -> Checked {
    let mut checked = Checked {
        errors: pass.busy + pass.failed + pass.mismatched,
        weight: 0,
        lower_bound: 0,
    };
    for (i, first) in payloads.0.iter().enumerate() {
        let Some(first) = first else { continue };
        let miss = match oracle(i) {
            Err(e) => Some(format!("oracle failed: {e}")),
            Ok(bytes) if bytes != *first => Some("payload differs from the oracle".to_string()),
            Ok(_) if !verified(first) => Some("payload is not verified".to_string()),
            Ok(_) => None,
        };
        if let Some(why) = miss {
            eprintln!("miss: {}: {why}", plan[i].canonical());
            checked.errors += pass.delivered[i];
        } else {
            checked.weight += pass.delivered[i] * solution_weight(first).unwrap_or(0);
            checked.lower_bound += pass.delivered[i] * lower_bounds[i];
        }
    }
    if pass.busy + pass.mismatched > 0 {
        eprintln!(
            "miss: {} BUSY replies, {} payloads that differ from an earlier one of the same spec",
            pass.busy, pass.mismatched
        );
    }
    checked
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    kecss_bench::rss::peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The untraced run: end-to-end metrics only.
fn end_to_end(args: &Args) -> (bool, u64, u64, Vec<Metric>) {
    let w = args.workload;
    let mut setup = set_up(w, args.seed, &args.work_dir);
    let ticks_before = cpu_ticks();
    let pass = service::drive(
        &mut setup.service,
        &setup.plan,
        0,
        w.window,
        args.seconds,
        &mut setup.payloads,
        false,
    );
    // Over set-up and the first `RSS_JOBS` jobs, or the whole run if shorter.
    let rss = pass.rss_at_jobs_mb.unwrap_or_else(peak_rss_mb);
    println!(
        "peak_rss_mb is read after {} jobs",
        pass.attempted.min(service::RSS_JOBS)
    );
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        // Time the hypervisor ran other guests on this host's vCPUs: when it
        // is high, every wall-clock figure of the run is inflated.
        let steal = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("host steal during the run: {steal:.1}% of CPU time");
    }
    let counters = setup.service.stop();
    let checked = check(
        &pass,
        &setup.plan,
        &setup.payloads,
        &setup.lower_bounds,
        |i| oracle(&setup.plan[i]),
    );
    remove_fixture(setup.fixture.as_deref());

    let attempted = pass.attempted;
    let samples = pass.latency.len();
    let tail_q = stats::tail_percentile(samples);
    println!(
        "workload {}: {} jobs in {:.3} s, {} busy, {} retries",
        w.name,
        attempted,
        pass.makespan.as_secs_f64(),
        counters.busy,
        counters.retries
    );
    println!(
        "latency_tail_ms is p{tail_q} over {samples} samples ({} beyond it)",
        (samples as f64 * (1.0 - tail_q / 100.0)).floor()
    );
    let ladder: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9]
        .iter()
        .map(|q| format!("p{q} {:.4}", pass.latency.percentile_ms(*q)))
        .collect();
    println!("latency percentiles (ms): {}", ladder.join(", "));
    let metrics = vec![
        Metric {
            name: "latency_p50_ms",
            value: pass.latency.percentile_ms(50.0),
            unit: "ms",
        },
        Metric {
            name: "latency_tail_ms",
            value: pass.latency.percentile_ms(tail_q),
            unit: "ms",
        },
        Metric {
            name: "throughput_jobs_per_s",
            value: pass.throughput(),
            unit: "1/s",
        },
        Metric {
            name: "success_rate",
            value: (attempted - checked.errors) as f64 / attempted.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "weight_ratio",
            value: checked.weight as f64 / checked.lower_bound.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MB",
        },
        Metric {
            name: "setup_s",
            value: setup.setup_s,
            unit: "s",
        },
    ];
    for m in &metrics {
        println!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed = checked.errors + setup.warmup_errors;
    let correct = failed == 0 && attempted > 0;
    (correct, attempted, failed, metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 [--work-dir <dir>]"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "# perfbench {} seed {} ({} s, trace {})",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", w.why);
    println!("loads: {}", w.loads);
    println!("bypasses: {}", w.bypasses);
    for (layer, why) in workload::UNMEASURED {
        println!("unmeasured: {layer}: {why}");
    }
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        if let Some(cpus) = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        {
            println!("cpus allowed: {}", cpus.trim());
        }
    }
    let (correct, attempted, failed, metrics) = if args.trace {
        layers::traced(w, args.seed, args.seconds, &args.work_dir)
    } else {
        end_to_end(&args)
    };
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
