//! The traced run: per-layer times and counts, taken from outside.
//!
//! Nothing inside the program is instrumented for this. The run drives the
//! workload in alternating chunks through a fresh untraced service, a fresh
//! service whose scheduler start hook records when each job starts, and an
//! in-process `Scheduler` loop (`submit` → start hook → `wait`), so drift of
//! the host over the run hits all three alike. It then replays each job of
//! the plan in process, timing the public call that implements each layer:
//!
//! * `job::run` with observability on and off, alternating which runs first;
//! * `InstanceSpec::build`, `job::dispatch`, `verification::verify_exact`;
//! * the solver's cost-model diameter and its `*_with_model` entry point,
//!   and for `kecss` the level loop of `kecss::solve_with_enumerator`
//!   (connectivity check, MST, then per level `CutFamily` enumeration and
//!   `augk::augment_with_enumerator`); the replay must reproduce the
//!   dispatched edge set and round count exactly;
//! * the `KGW1` and text codecs on the job's request and payload.
//!
//! A layer's self time is its span minus the child spans it covers. The
//! layer-sum table adds the mean self times and prints the residual: the
//! client latency no timed layer covers (front end, coordinator queue).

use crate::service::{self, Pass, Payloads, Service};
use crate::stats::{self, Metric};
use crate::workload::{Topology, Workload};
use congest::{CostModel, RoundLedger};
use graphs::{connectivity, mst, EdgeSet, Graph};
use kecss::baselines::thurimella;
use kecss::cuts::CutFamily;
use kecss::{augk, three_ecss, two_ecss, verification};
use kecss_runtime::Executor;
use kecss_server::job::{self, Algorithm, JobSpec, SOLVER_SEED_SALT, VERIFY_SEED_SALT};
use kecss_server::protocol::{Request, Response};
use kecss_server::scheduler::Outcome;
use kecss_server::{wire, JobId, Scheduler};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, us(start.elapsed()))
}

/// One `Aug_k` level of a replayed `kecss` job.
#[derive(Clone, Debug, PartialEq)]
pub struct Level {
    /// The connectivity level (2..=k).
    pub level: usize,
    /// `CutFamily::enumerate_with_enumerator` of the level's (level-1)-cuts.
    pub enumerate_us: f64,
    /// Cuts it enumerated.
    pub cuts: usize,
    /// `augk::augment_with_enumerator` (enumeration, cover, certification).
    pub augment_us: f64,
}

/// The solver part of a replayed job.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Calls to `graphs::bfs::diameter`/`diameter_hint` the solver's cost
    /// model needs.
    pub diameter_calls: u64,
    /// Their time.
    pub diameter_us: f64,
    /// `connectivity::is_k_edge_connected` (`kecss` only).
    pub check_us: f64,
    /// `mst::kruskal` (`kecss` only).
    pub kruskal_us: f64,
    /// The `Aug_k` levels (`kecss` only).
    pub levels: Vec<Level>,
    /// `solver_augment_retries_total` increments during the replay.
    pub retries: u64,
}

/// Replays `job::dispatch` for `spec` on `graph` through the solver's public
/// calls, and checks that it reproduces `edges` and `rounds`.
///
/// # Errors
///
/// A solver error, an algorithm without a replay, or a replay that differs.
pub fn replay(
    spec: &JobSpec,
    graph: &Graph,
    edges: &EdgeSet,
    rounds: Option<u64>,
) -> Result<Replay, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ SOLVER_SEED_SALT);
    let n = graph.n();
    let mut r = Replay {
        diameter_calls: 1,
        ..Replay::default()
    };
    let (diameter, t) = timed(|| match spec.algorithm {
        Algorithm::Thurimella => graphs::bfs::diameter_hint(graph),
        _ => graphs::bfs::diameter(graph),
    });
    r.diameter_us = t;
    let model = CostModel::new(n, diameter.unwrap_or(n));
    let (got, got_rounds) = match spec.algorithm {
        Algorithm::TwoEcss => {
            let sol =
                two_ecss::solve_with_model(graph, model, &mut rng).map_err(|e| e.to_string())?;
            (sol.subgraph, sol.ledger.total())
        }
        Algorithm::ThreeEcss => {
            let sol =
                three_ecss::solve_with_model(graph, model, &mut rng).map_err(|e| e.to_string())?;
            (sol.subgraph, sol.ledger.total())
        }
        Algorithm::Thurimella => {
            let sol = thurimella::sparse_certificate_with_model(graph, spec.k, model);
            (sol.edges, sol.ledger.total())
        }
        Algorithm::KEcss => replay_kecss(spec, graph, model, &mut rng, &mut r)?,
        other => return Err(format!("no replay for algorithm {other}")),
    };
    if &got != edges || Some(got_rounds) != rounds {
        return Err(format!(
            "replay of {} differs from job::dispatch ({} vs {} edges, rounds {got_rounds} vs {rounds:?})",
            spec.canonical(),
            got.len(),
            edges.len()
        ));
    }
    Ok(r)
}

/// The level loop of `kecss::solve_with_enumerator`, one public call at a
/// time, with each level's cut family also enumerated on its own.
fn replay_kecss(
    spec: &JobSpec,
    graph: &Graph,
    model: CostModel,
    rng: &mut ChaCha8Rng,
    r: &mut Replay,
) -> Result<(EdgeSet, u64), String> {
    let exec = Executor::Sequential;
    let enumerator = spec.enumerator.build();
    let (ok, t) = timed(|| connectivity::is_k_edge_connected(graph, spec.k));
    r.check_us = t;
    if !ok {
        return Err(format!(
            "{} is not {}-edge-connected",
            spec.canonical(),
            spec.k
        ));
    }
    let (mut h, t) = timed(|| mst::kruskal(graph));
    r.kruskal_us = t;
    let mut ledger = RoundLedger::new(model);
    ledger.charge("kecss/mst", model.mst_kutten_peleg());
    let retries = kecss_obs::counter("solver_augment_retries_total");
    let before = retries.get();
    for level in 2..=spec.k {
        let (family, enumerate_us) = timed(|| {
            CutFamily::enumerate_with_enumerator(
                graph,
                &h,
                level - 1,
                enumerator.as_ref(),
                0,
                &exec,
            )
        });
        let cuts = family.map_err(|e| e.to_string())?.len();
        let (aug, augment_us) = timed(|| {
            augk::augment_with_enumerator(graph, &h, level, model, rng, &exec, enumerator.as_ref())
        });
        let aug = aug.map_err(|e| e.to_string())?;
        ledger.absorb(&aug.ledger);
        h.union_with(&aug.added);
        r.levels.push(Level {
            level,
            enumerate_us,
            cuts,
            augment_us,
        });
    }
    r.retries = retries.get() - before;
    Ok((h, ledger.total()))
}

/// Everything measured for one job of the plan.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the plan.
    pub spec: usize,
    /// `job::run` with observability on (the service's default).
    pub run_us: f64,
    /// `job::run` with observability off.
    pub run_off_us: f64,
    /// `InstanceSpec::build`.
    pub build_us: f64,
    /// `job::dispatch`.
    pub dispatch_us: f64,
    /// `verification::verify_exact`.
    pub verify_us: f64,
    /// The verifier's cost-model diameter (`diameter_hint`).
    pub verify_diameter_us: f64,
    /// The replayed solver.
    pub replay: Replay,
    /// `KGW1` encode + decode of the request and the result frame.
    pub codec_ns: f64,
    /// Bytes of those two frames.
    pub wire_bytes: u64,
    /// `Request::parse` of the text `SUBMIT` line + `Response::render_text`
    /// of the result.
    pub text_codec_us: f64,
    /// Size of the instance file a `file:` job streams.
    pub file_bytes: Option<u64>,
}

impl Sample {
    /// Diameter time of the job (solver and verifier).
    pub fn diameter_us(&self) -> f64 {
        self.replay.diameter_us + self.verify_diameter_us
    }

    /// Diameter calls of the job (solver and verifier).
    pub fn diameter_calls(&self) -> u64 {
        self.replay.diameter_calls + 1
    }

    /// `job::run` minus build, dispatch and verify: rendering the payload.
    pub fn render_us(&self) -> f64 {
        self.run_us - self.build_us - self.dispatch_us - self.verify_us
    }

    /// Σ enumeration time over the levels.
    pub fn enumerate_us(&self) -> f64 {
        self.replay.levels.iter().map(|l| l.enumerate_us).sum()
    }

    /// Σ (augment − enumerate) over the levels: covering and certifying.
    pub fn cover_us(&self) -> f64 {
        self.replay
            .levels
            .iter()
            .map(|l| l.augment_us - l.enumerate_us)
            .sum()
    }
}

/// Records when each job of a scheduler starts.
#[derive(Clone, Default)]
struct StartTimes(Arc<Mutex<HashMap<JobId, Instant>>>);

impl StartTimes {
    fn hook(&self) -> kecss_server::scheduler::StartHook {
        let map = Arc::clone(&self.0);
        Arc::new(move |id| {
            map.lock()
                .expect("start map lock")
                .insert(id, Instant::now());
        })
    }

    fn take(&self, id: JobId) -> Option<Instant> {
        self.0.lock().expect("start map lock").remove(&id)
    }
}

/// One job of the in-process scheduler loop.
#[derive(Clone, Copy, Debug)]
pub struct SchedJob {
    /// Index into the plan.
    pub spec: usize,
    /// `Scheduler::submit` → `Scheduler::wait`.
    pub total_us: f64,
    /// `Scheduler::submit` → start hook.
    pub queue_us: f64,
}

/// What the layer pass measured.
pub struct LayerPass {
    /// One sample per job, cycling over the plan.
    pub samples: Vec<Sample>,
    /// The `job::run` payload of each plan entry.
    pub oracle: Vec<Vec<u8>>,
}

/// The layer pass: measures every plan entry once and keeps cycling until
/// `seconds` have passed; the first sample of each entry also yields the
/// oracle payload.
///
/// # Errors
///
/// The first job whose layers fail or disagree.
pub fn measure(plan: &[JobSpec], seconds: f64) -> Result<LayerPass, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    let mut oracle: Vec<Vec<u8>> = Vec::new();
    let mut i = 0;
    while i < plan.len() || Instant::now() < deadline {
        let spec = &plan[i % plan.len()];
        let (sample, payload) = measure_one(spec, i % plan.len(), i % 2 == 1)?;
        if i < plan.len() {
            oracle.push(payload);
        } else if payload != oracle[i % plan.len()] {
            return Err(format!(
                "{}: payload changed between samples",
                spec.canonical()
            ));
        }
        samples.push(sample);
        i += 1;
    }
    Ok(LayerPass { samples, oracle })
}

/// A closed loop of in-process `Scheduler::submit` → `wait` over the plan,
/// from entry `first`, for `seconds` (at least one job). Payloads join the
/// service's in `payloads`; returns the jobs and how many failed or
/// differed.
fn scheduler_loop(
    scheduler: &Scheduler,
    starts: &StartTimes,
    plan: &[JobSpec],
    first: usize,
    seconds: f64,
    payloads: &mut Payloads,
) -> (Vec<SchedJob>, u64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut jobs, mut errors) = (Vec::new(), 0);
    let mut i = first;
    while i == first || Instant::now() < deadline {
        let spec = i % plan.len();
        i += 1;
        let sent = Instant::now();
        let id = match scheduler.submit(plan[spec].clone()) {
            Ok(id) => id,
            Err(e) => {
                eprintln!("scheduler refused {}: {e}", plan[spec].canonical());
                return (jobs, errors + 1);
            }
        };
        let outcome = scheduler.wait(id);
        let total_us = us(sent.elapsed());
        scheduler.take_result(id);
        match (outcome, starts.take(id)) {
            (Some(Outcome::Done(bytes)), Some(started))
                if payloads.record(spec, bytes.to_vec()) =>
            {
                jobs.push(SchedJob {
                    spec,
                    total_us,
                    queue_us: us(started.duration_since(sent)),
                });
            }
            (other, _) => {
                eprintln!(
                    "scheduler job {} returned {other:?}",
                    plan[spec].canonical()
                );
                errors += 1;
            }
        }
    }
    (jobs, errors)
}

fn measure_one(spec: &JobSpec, index: usize, off_first: bool) -> Result<(Sample, Vec<u8>), String> {
    let exec = Executor::Sequential;
    let run_with = |on: bool| {
        kecss_obs::set_enabled(on);
        let out = timed(|| job::run(spec, &exec));
        kecss_obs::set_enabled(true);
        out
    };
    let (off, on) = if off_first {
        let off = run_with(false);
        (off, run_with(true))
    } else {
        let on = run_with(true);
        (run_with(false), on)
    };
    let payload = on.0?;
    if off.0? != payload {
        return Err(format!(
            "{}: payload depends on observability",
            spec.canonical()
        ));
    }

    let (graph, build_us) = timed(|| spec.instance.build(spec.k, spec.seed));
    let graph = graph?;
    let (dispatched, dispatch_us) = timed(|| {
        job::dispatch(
            &graph,
            spec.algorithm,
            spec.k,
            spec.seed ^ SOLVER_SEED_SALT,
            &exec,
            spec.enumerator,
        )
    });
    let (edges, rounds, _) = dispatched.map_err(|e| e.to_string())?;
    let target = spec.algorithm.certified_k(spec.k).max(1);
    let mut verify_rng = ChaCha8Rng::seed_from_u64(spec.seed ^ VERIFY_SEED_SALT);
    let (verdict, verify_us) =
        timed(|| verification::verify_exact(&graph, &edges, target, &mut verify_rng));
    if !verdict.accepted {
        return Err(format!(
            "{}: verify_exact rejected the solution",
            spec.canonical()
        ));
    }
    let (_, verify_diameter_us) = timed(|| black_box(graphs::bfs::diameter_hint(&graph)));
    let replay = replay(spec, &graph, &edges, rounds)?;

    let request = Request::SubmitWait(spec.clone());
    let response = Response::Result {
        id: 1,
        payload: Arc::new(payload.clone()),
    };
    let (bytes, codec_ns) = timed(|| codec_round_trip(&request, &response));
    let wire_bytes = bytes?;
    let line = Request::Submit(spec.clone()).to_line();
    let (_, text_codec_us) = timed(|| {
        black_box(Request::parse(black_box(&line)).is_ok());
        black_box(response.render_text().len());
    });
    let file_bytes = match &spec.instance {
        kecss_server::instance::InstanceSpec::File { path } => {
            std::fs::metadata(path).ok().map(|m| m.len())
        }
        _ => None,
    };
    Ok((
        Sample {
            spec: index,
            run_us: on.1,
            run_off_us: off.1,
            build_us,
            dispatch_us,
            verify_us,
            verify_diameter_us,
            replay,
            codec_ns: codec_ns * 1e3,
            wire_bytes,
            text_codec_us,
            file_bytes,
        },
        payload,
    ))
}

/// Encodes and decodes one request frame and one response frame; returns
/// the two frames' bytes.
fn codec_round_trip(request: &Request, response: &Response) -> Result<u64, String> {
    let mut total = 0;
    for frame in [
        wire::encode_request(request),
        wire::encode_response(response),
    ] {
        let header: [u8; wire::FRAME_HEADER_BYTES] = frame[..wire::FRAME_HEADER_BYTES]
            .try_into()
            .map_err(|_| "short frame")?;
        let (opcode, flags, len) = wire::parse_frame_header(&header)?;
        let body = &frame[wire::FRAME_HEADER_BYTES..];
        if body.len() != len {
            return Err("frame length mismatch".into());
        }
        if total == 0 {
            black_box(wire::decode_request(opcode, flags, body)?);
        } else {
            black_box(wire::decode_response(opcode, body)?);
        }
        total += frame.len() as u64;
    }
    Ok(total)
}

/// Service chunks per side: the untraced and traced services take turns
/// this many times, so drift over the run hits both alike.
const CHUNKS: usize = 4;

fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&items.iter().map(f).collect::<Vec<_>>())
}

fn mean_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).sum::<f64>() / items.len().max(1) as f64
}

/// Σ `part` ÷ Σ `job::run` over the samples: the share of job time a
/// layer takes, weighting every job by its length.
fn share(samples: &[Sample], part: impl Fn(&Sample) -> f64) -> f64 {
    samples.iter().map(part).sum::<f64>() / samples.iter().map(|s| s.run_us).sum::<f64>()
}

/// Per plan entry, the median of `f` over the items of that entry.
fn per_spec<T>(
    items: &[T],
    plan_len: usize,
    spec_of: impl Fn(&T) -> usize,
    f: impl Fn(&T) -> f64,
) -> Vec<f64> {
    (0..plan_len)
        .map(|s| {
            let v: Vec<f64> = items.iter().filter(|x| spec_of(x) == s).map(&f).collect();
            stats::median(&v)
        })
        .collect()
}

/// Deterministic counts of one pass over the plan (first sample of each
/// entry): they repeat exactly for a given seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Cuts enumerated per level, summed over the plan.
    pub cuts_per_level: BTreeMap<usize, u64>,
    /// `Aug_k` retries over the plan.
    pub augment_retries: u64,
    /// `KGW1` request + result frame bytes over the plan.
    pub wire_bytes: u64,
    /// Diameter calls over the plan.
    pub diameter_calls: u64,
}

/// The deterministic counts of the first `plan_len` samples.
pub fn counts(samples: &[Sample], plan_len: usize) -> Counts {
    let first = &samples[..plan_len.min(samples.len())];
    let mut cuts_per_level = BTreeMap::new();
    for s in first {
        for l in &s.replay.levels {
            *cuts_per_level.entry(l.level).or_insert(0) += l.cuts as u64;
        }
    }
    Counts {
        cuts_per_level,
        augment_retries: first.iter().map(|s| s.replay.retries).sum(),
        wire_bytes: first.iter().map(|s| s.wire_bytes).sum(),
        diameter_calls: first.iter().map(Sample::diameter_calls).sum(),
    }
}

fn row(name: &str, value: f64, unit: &str) {
    println!("  {name:<48} {value:>14.3} {unit}");
}

/// The level-`level` entry of a sample, through `f` (0 without one).
fn at_level(s: &Sample, level: usize, f: fn(&Level) -> f64) -> f64 {
    s.replay
        .levels
        .iter()
        .find(|l| l.level == level)
        .map_or(0.0, f)
}

/// The traced run of `workload`; returns the result-line fields.
pub fn traced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
) -> (bool, u64, u64, Vec<Metric>) {
    let setup = crate::set_up(workload, seed, work_dir);
    let plan = setup.plan.clone();
    let mut counters = setup.service.stop();
    let chunk = seconds / 2.0 / CHUNKS as f64;
    let mut untraced = Pass::new(plan.len(), chunk);
    let mut traced = Pass::new(plan.len(), chunk);
    let mut payloads = setup.payloads;
    let mut service_queue_waits = Vec::new();
    let sched_starts = StartTimes::default();
    let scheduler = Scheduler::with_start_hook(1, 2, Some(sched_starts.hook()));
    let (mut sched, mut sched_errors) = (Vec::new(), 0);
    let mut next = 0;
    for _ in 0..CHUNKS {
        // Fresh services per chunk, so where the scheduler places their
        // threads is drawn anew each time rather than favouring one side.
        for traced_side in [false, true] {
            let starts = StartTimes::default();
            let mut service = Service::start(workload, traced_side.then(|| starts.hook()));
            let w = workload.window;
            let chunk = service::drive(
                &mut service,
                &plan,
                next,
                w,
                chunk,
                &mut payloads,
                traced_side,
            );
            let c = service.stop();
            counters.busy += c.busy;
            counters.retries += c.retries;
            next += chunk.attempted as usize;
            service_queue_waits.extend(
                chunk
                    .records
                    .iter()
                    .filter_map(|j| starts.take(j.id).map(|t| us(t.duration_since(j.sent)))),
            );
            if traced_side {
                traced.extend(chunk)
            } else {
                untraced.extend(chunk)
            }
        }
        // In-process scheduler jobs in the same stretch of time as the
        // service's, so host drift over the run does not skew their
        // difference (the front-end overhead).
        let (jobs, errors) = scheduler_loop(
            &scheduler,
            &sched_starts,
            &plan,
            next,
            chunk / 2.0,
            &mut payloads,
        );
        next += jobs.len();
        sched.extend(jobs);
        sched_errors += errors;
    }
    // Long jobs leave some entries out of the short loops above; give each
    // at least one scheduler job, as every per-entry median needs one.
    for spec in 0..plan.len() {
        if sched.iter().any(|j| j.spec == spec) {
            continue;
        }
        let (jobs, errors) =
            scheduler_loop(&scheduler, &sched_starts, &plan, spec, 0.0, &mut payloads);
        sched.extend(jobs);
        sched_errors += errors;
    }
    scheduler.shutdown();

    let measured = measure(&plan, seconds / 2.0);
    crate::remove_fixture(setup.fixture.as_deref());
    let attempted = untraced.attempted + traced.attempted;
    let LayerPass { samples, oracle } = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("layer pass failed: {e}");
            return (false, attempted, attempted, Vec::new());
        }
    };
    let failed = [&untraced, &traced]
        .iter()
        .map(|pass| {
            crate::check(pass, &plan, &payloads, &setup.lower_bounds, |i| {
                Ok(oracle[i].clone())
            })
            .errors
        })
        .sum::<u64>()
        + sched_errors
        + setup.warmup_errors;

    let run_med = per_spec(&samples, plan.len(), |s| s.spec, |s| s.run_us);
    let sched_med = per_spec(&sched, plan.len(), |j| j.spec, |j| j.total_us);
    // The job's own run time, taken beside the service passes: submit →
    // wait minus the queue wait (the wake-up after the job stays in).
    let sched_run_med = per_spec(&sched, plan.len(), |j| j.spec, |j| j.total_us - j.queue_us);
    let done = &traced.records;
    let latency_us: Vec<f64> = done.iter().map(|j| us(j.latency)).collect();
    let front_end = median_by(done, |j| us(j.latency) - sched_med[j.spec]);
    let dispatch_overhead = median_by(done, |j| us(j.latency) - sched_run_med[j.spec]);
    let queue_waits: Vec<f64> = match workload.topology {
        Topology::Standalone => service_queue_waits,
        Topology::Fleet { .. } => sched.iter().map(|j| j.queue_us).collect(),
    };
    let queue_wait = stats::median(&queue_waits);
    let queue_wait_mean = mean_by(&queue_waits, |q| *q);
    let e2e_mean = mean_by(&latency_us, |l| *l);
    let workers = match workload.topology {
        Topology::Standalone => 1,
        Topology::Fleet { workers } => workers,
    };
    let busy_share = done.iter().map(|j| sched_run_med[j.spec]).sum::<f64>()
        / (workers as f64 * us(traced.makespan)).max(1e-9);
    let counts = counts(&samples, plan.len());
    let p50_traced = traced.latency.percentile_ms(50.0) * 1e3;
    let p50_untraced = untraced.latency.percentile_ms(50.0) * 1e3;
    let kecss_levels = samples
        .iter()
        .flat_map(|s| s.replay.levels.iter().map(|l| l.level))
        .max()
        .unwrap_or(1);

    println!(
        "traced: {attempted} service jobs ({} untraced, {} traced), {} layer samples and {} \
         scheduler jobs over {} plan entries",
        untraced.attempted,
        traced.attempted,
        samples.len(),
        sched.len(),
        plan.len()
    );
    println!("layer-sum check (mean self time per job; means add up, medians need not)");
    let mut rows: Vec<(String, f64)> = vec![
        ("server.scheduler.queue_wait".into(), queue_wait_mean),
        (
            "server.scheduler (after the job, to wake-up)".into(),
            mean_by(&sched, |j| j.total_us - j.queue_us - run_med[j.spec]),
        ),
        (
            "server.instance.build".into(),
            mean_by(&samples, |s| s.build_us),
        ),
        (
            "graphs.bfs.diameter (solver cost model)".into(),
            mean_by(&samples, |s| s.replay.diameter_us),
        ),
    ];
    if kecss_levels > 1 {
        rows.push((
            "graphs.connectivity.check".into(),
            mean_by(&samples, |s| s.replay.check_us),
        ));
        rows.push((
            "graphs.mst.kruskal".into(),
            mean_by(&samples, |s| s.replay.kruskal_us),
        ));
        for level in 2..=kecss_levels {
            rows.push((
                format!("core.cuts.enumerate (level {level})"),
                mean_by(&samples, |s| at_level(s, level, |l| l.enumerate_us)),
            ));
            rows.push((
                format!("core.cover (level {level})"),
                mean_by(&samples, |s| {
                    at_level(s, level, |l| l.augment_us - l.enumerate_us)
                }),
            ));
        }
    }
    rows.push((
        "core solve self (dispatch minus the rows above)".into(),
        mean_by(&samples, |s| {
            s.dispatch_us
                - s.replay.diameter_us
                - s.replay.check_us
                - s.replay.kruskal_us
                - s.replay.levels.iter().map(|l| l.augment_us).sum::<f64>()
        }),
    ));
    rows.push((
        "core.verification.verify self".into(),
        mean_by(&samples, |s| s.verify_us - s.verify_diameter_us),
    ));
    rows.push((
        "graphs.bfs.diameter_hint (verify cost model)".into(),
        mean_by(&samples, |s| s.verify_diameter_us),
    ));
    rows.push((
        "server.job.render".into(),
        mean_by(&samples, Sample::render_us),
    ));
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    for (name, v) in &rows {
        println!("  {name:<48} {v:>14.3} us {:>7.2}%", 100.0 * v / e2e_mean);
    }
    row("sum of layer self times", sum, "us");
    row("end-to-end client latency (traced, mean)", e2e_mean, "us");
    row(
        "residual (front end, coordinator queue)",
        e2e_mean - sum,
        "us",
    );
    row("end-to-end client latency p50 (traced)", p50_traced, "us");
    row(
        "end-to-end client latency p50 (untraced)",
        p50_untraced,
        "us",
    );
    row(
        "tracing overhead (traced - untraced p50)",
        p50_traced - p50_untraced,
        "us",
    );

    println!("per-layer detail (medians over the jobs that run the layer)");
    for (alg, name, scale, unit) in [
        (Algorithm::TwoEcss, "core.two_ecss.solve_us", 1.0, "us"),
        (Algorithm::ThreeEcss, "core.three_ecss.solve_ms", 1e-3, "ms"),
        (
            Algorithm::Thurimella,
            "core.baselines.thurimella_ms",
            1e-3,
            "ms",
        ),
        (Algorithm::KEcss, "core.kecss.solve_ms", 1e-3, "ms"),
    ] {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| plan[s.spec].algorithm == alg)
            .map(|s| s.dispatch_us * scale)
            .collect();
        if !v.is_empty() {
            row(name, stats::median(&v), unit);
        }
    }
    if kecss_levels > 1 {
        let k: Vec<&Sample> = samples
            .iter()
            .filter(|s| !s.replay.levels.is_empty())
            .collect();
        row(
            "graphs.connectivity.check_ms",
            median_by(&k, |s| s.replay.check_us) * 1e-3,
            "ms",
        );
        row(
            "graphs.mst.kruskal_us",
            median_by(&k, |s| s.replay.kruskal_us),
            "us",
        );
        for (&level, &cuts) in &counts.cuts_per_level {
            let ms = |f: fn(&Level) -> f64| median_by(&k, |s| at_level(s, level, f)) * 1e-3;
            row(
                &format!("core.cuts.enumerate_ms (level {level})"),
                ms(|l| l.enumerate_us),
                "ms",
            );
            row(
                &format!("core.augk.augment_ms (level {level})"),
                ms(|l| l.augment_us),
                "ms",
            );
            row(
                &format!("core.cover.cover_ms (level {level})"),
                ms(|l| l.augment_us - l.enumerate_us),
                "ms",
            );
            row(
                &format!("core.cuts.cuts_total (level {level})"),
                cuts as f64,
                "count",
            );
        }
        row(
            "core.cover.cover_ms",
            median_by(&k, |s| s.cover_us()) * 1e-3,
            "ms",
        );
    }
    let ingest: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.file_bytes.map(|b| b as f64 / s.build_us))
        .collect();
    if !ingest.is_empty() {
        row(
            "graphs.stream.ingest_mb_per_s",
            stats::median(&ingest),
            "MB/s",
        );
    }
    println!(
        "deterministic counts: cuts per level {:?}, augment retries {}, wire bytes {}, \
         diameter calls {}, busy {}, coordinator retries {}",
        counts.cuts_per_level,
        counts.augment_retries,
        counts.wire_bytes,
        counts.diameter_calls,
        counters.busy,
        counters.retries
    );
    println!(
        "obs.overhead_ratio over {} alternating pairs",
        samples.len()
    );

    let plan_len = plan.len() as f64;
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("server.front_end.overhead_us", front_end, "us"),
        metric(
            "server.wire.codec_ns",
            median_by(&samples, |s| s.codec_ns),
            "ns",
        ),
        metric(
            "server.wire.bytes_per_job",
            counts.wire_bytes as f64 / plan_len,
            "bytes",
        ),
        metric(
            "server.protocol.text_codec_us",
            median_by(&samples, |s| s.text_codec_us),
            "us",
        ),
        metric("server.scheduler.queue_wait_us", queue_wait, "us"),
        metric("server.scheduler.busy_total", counters.busy as f64, "count"),
        metric(
            "server.instance.build_us",
            median_by(&samples, |s| s.build_us),
            "us",
        ),
        metric(
            "graphs.bfs.diameter_us",
            median_by(&samples, Sample::diameter_us),
            "us",
        ),
        metric(
            "graphs.bfs.diameter_calls_per_job",
            counts.diameter_calls as f64 / plan_len,
            "count",
        ),
        metric(
            "accounting.diameter_share",
            share(&samples, Sample::diameter_us),
            "ratio",
        ),
        metric(
            "server.job.dispatch_us",
            median_by(&samples, |s| s.dispatch_us),
            "us",
        ),
        metric(
            "core.verification.verify_us",
            median_by(&samples, |s| s.verify_us),
            "us",
        ),
        metric(
            "server.job.render_us",
            median_by(&samples, Sample::render_us),
            "us",
        ),
        metric(
            "core.cuts.enumerate_share",
            share(&samples, Sample::enumerate_us),
            "ratio",
        ),
        metric(
            "core.cover.cover_share",
            share(&samples, Sample::cover_us),
            "ratio",
        ),
        metric(
            "core.cuts.cuts_total",
            counts.cuts_per_level.values().sum::<u64>() as f64,
            "count",
        ),
        metric(
            "core.augk.retries_total",
            counts.augment_retries as f64,
            "count",
        ),
        metric(
            "server.coordinator.dispatch_overhead_ms_per_job",
            dispatch_overhead * 1e-3,
            "ms",
        ),
        metric(
            "server.coordinator.retries_total",
            counters.retries as f64,
            "count",
        ),
        metric("server.worker.busy_share", busy_share, "ratio"),
        metric(
            "obs.overhead_ratio",
            median_by(&samples, |s| s.run_us / s.run_off_us),
            "ratio",
        ),
    ];
    for m in &metrics {
        row(m.name, m.value, m.unit);
    }
    (failed == 0 && attempted > 0, attempted, failed, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, FIXTURE};

    fn plan(body: &str, seeds: u64) -> Vec<JobSpec> {
        (0..seeds)
            .map(
                |seed| match Request::parse(&format!("SUBMIT {body} {seed}")) {
                    Ok(Request::Submit(spec)) => spec,
                    other => panic!("{other:?}"),
                },
            )
            .collect()
    }

    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        let small = workload::find("small_kgw1").unwrap().plan(11, FIXTURE);
        let cuts = plan("hypercube:16 4 kecss auto", 2);
        for plan in [&small[..4], &cuts[..]] {
            let a = measure(plan, 0.0).unwrap();
            let b = measure(plan, 0.0).unwrap();
            assert_eq!(
                counts(&a.samples, plan.len()),
                counts(&b.samples, plan.len())
            );
            assert_eq!(a.oracle, b.oracle);
        }
        let c = counts(&measure(&cuts, 0.0).unwrap().samples, cuts.len());
        assert_eq!(
            c.cuts_per_level.keys().copied().collect::<Vec<_>>(),
            [2, 3, 4]
        );
        assert!(c.cuts_per_level.values().all(|&n| n > 0), "{c:?}");
        assert_eq!(c.diameter_calls, 2 * cuts.len() as u64);
    }

    #[test]
    fn the_replay_reproduces_every_algorithm_the_workloads_run() {
        for body in [
            "ring:20 2 2ecss auto",
            "torus:16 3 3ecss auto",
            "random:24:30 3 kecss auto",
            "harary:24 2 thurimella auto",
        ] {
            let spec = &plan(body, 1)[0];
            let graph = spec.instance.build(spec.k, spec.seed).unwrap();
            let exec = Executor::Sequential;
            let salted = spec.seed ^ SOLVER_SEED_SALT;
            let (edges, rounds, _) = job::dispatch(
                &graph,
                spec.algorithm,
                spec.k,
                salted,
                &exec,
                spec.enumerator,
            )
            .unwrap();
            let r = replay(spec, &graph, &edges, rounds).unwrap();
            assert_eq!(r.diameter_calls, 1, "{body}");
            assert_eq!(r.levels.len(), if body.contains("kecss") { 2 } else { 0 });
        }
    }

    #[test]
    fn a_wrong_solution_fails_the_replay() {
        let spec = &plan("ring:20 2 2ecss auto", 1)[0];
        let graph = spec.instance.build(spec.k, spec.seed).unwrap();
        let err = replay(spec, &graph, &graph.full_edge_set(), Some(1)).unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }
}
