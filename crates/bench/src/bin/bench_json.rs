//! `kecss-bench-json` — the machine-readable bench trajectory emitter.
//!
//! Runs a quick-mode subset of the experiment workloads (E10 parallel
//! scaling's solver kernel, E12's service throughput, E13's compact-core
//! parse and removal kernels, E14's out-of-core streaming ingest, E15's
//! observability overhead, E16's Karger-Stein enumeration) and writes
//! median nanoseconds per workload as JSON, so CI can upload a
//! `BENCH_PR<N>.json` artifact and successive PRs accumulate a comparable
//! perf trajectory.
//!
//! Usage: `kecss-bench-json [--out FILE] [--samples N]`
//!
//! The JSON is hand-rendered (no serde in the offline vendor set):
//!
//! ```json
//! {
//!   "schema": "kecss-bench-v1",
//!   "workloads": [
//!     { "name": "...", "median_ns": 123, "samples": 7 },
//!     ...
//!   ]
//! }
//! ```
//!
//! E14's rows additionally carry a `"peak_rss_kb"` field — the `VmHWM`
//! high-water delta over the ingest (the trajectory's memory axis) — on
//! kernels exposing `/proc/self/status`; the field is simply absent
//! elsewhere, so `kecss-bench-v1` consumers stay compatible.

use kecss::cuts::{CutEnumerator, EnumeratorPolicy, KargerSteinEnumerator};
use kecss_runtime::Executor;
use kecss_server::instance::InstanceSpec;
use kecss_server::job::{Algorithm, JobSpec};
use kecss_server::scheduler::{Outcome, Scheduler};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// One measured workload.
struct Measurement {
    name: &'static str,
    median_ns: u128,
    samples: usize,
    /// Peak-RSS delta over the workload (E14 only; `None` where `/proc`
    /// probing is unavailable or the axis is not meaningful).
    peak_rss_kb: Option<u64>,
}

/// Times `routine` `samples` times and returns the median duration in ns.
fn median_ns<F: FnMut()>(samples: usize, mut routine: F) -> u128 {
    // One untimed warm-up iteration.
    routine();
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// E10's solver kernel: a full k-ECSS solve (k = 4) on a seeded random
/// instance, sequential executor.
fn e10_kecss_solve(samples: usize) -> Measurement {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let g = graphs::generators::random_k_edge_connected(48, 4, 96, &mut rng);
    Measurement {
        name: "e10_parallel_scaling/kecss_k4_random48",
        median_ns: median_ns(samples, || {
            let mut solve_rng = ChaCha8Rng::seed_from_u64(7);
            let sol = kecss::kecss::solve_with_exec(&g, 4, &mut solve_rng, &Executor::Sequential)
                .expect("instance is 4-edge-connected");
            assert!(!sol.subgraph.is_empty());
        }),
        samples,
        peak_rss_kb: None,
    }
}

/// E12's service path: one real solver job through the in-process scheduler
/// (submit → pool dispatch → job runner → payload), queue depth 1.
fn e12_submit_to_result(samples: usize) -> Measurement {
    let scheduler = Scheduler::new(2, 1);
    let spec = JobSpec {
        instance: InstanceSpec::parse("ring:20").unwrap(),
        k: 2,
        algorithm: Algorithm::TwoEcss,
        enumerator: EnumeratorPolicy::Auto,
        seed: 1,
    };
    let median = median_ns(samples, || {
        let id = scheduler
            .submit(spec.clone())
            .expect("depth-1 queue is free");
        match scheduler.wait(id) {
            Some(Outcome::Done(payload)) => assert!(!payload.is_empty()),
            other => panic!("job {id} did not complete: {other:?}"),
        }
    });
    scheduler.shutdown();
    Measurement {
        name: "e12_service_throughput/submit_ring20_depth1",
        median_ns: median,
        samples,
        peak_rss_kb: None,
    }
}

/// E12's scheduling floor: a batch of 8 trivial jobs through the scheduler at
/// queue depth 8 (pure dispatch overhead, no solving).
fn e12_scheduler_overhead(samples: usize) -> Measurement {
    let scheduler = Scheduler::new(2, 8);
    let median = median_ns(samples, || {
        let ids: Vec<u64> = (0..8)
            .map(|_| {
                scheduler
                    .submit_with(Box::new(|| Ok(Vec::new())))
                    .expect("batch fits the depth")
            })
            .collect();
        for id in ids {
            assert!(matches!(scheduler.wait(id), Some(Outcome::Done(_))));
        }
    });
    scheduler.shutdown();
    Measurement {
        name: "e12_service_throughput/trivial_batch8_depth8",
        median_ns: median,
        samples,
        peak_rss_kb: None,
    }
}

/// E13a's parse kernels: decode a 30k-vertex / 60k-edge ring-of-cliques
/// instance from each on-disk format (the binary one is the new `KGB1`
/// fixed-stride decode; text is the seed's line parser). The fixture is
/// [`kecss_bench::workloads::e13_parse_instance`], shared with the Criterion
/// bench so the trajectory and the series measure the same workload.
fn e13_parse(samples: usize) -> (Measurement, Measurement) {
    let g = kecss_bench::workloads::e13_parse_instance(7_500);
    let mut text = Vec::new();
    graphs::io::write_text(&mut text, &g).expect("encode text");
    let text = String::from_utf8(text).expect("text is UTF-8");
    let mut binary = Vec::new();
    graphs::io::write_binary(&mut binary, &g).expect("encode binary");
    let text_m = Measurement {
        name: "e13_compact_core/parse_text_60k_edges",
        median_ns: median_ns(samples, || {
            assert_eq!(graphs::io::read_text(&text).unwrap().m(), g.m());
        }),
        samples,
        peak_rss_kb: None,
    };
    let binary_m = Measurement {
        name: "e13_compact_core/parse_binary_60k_edges",
        median_ns: median_ns(samples, || {
            assert_eq!(graphs::io::read_binary(&binary).unwrap().m(), g.m());
        }),
        samples,
        peak_rss_kb: None,
    };
    (text_m, binary_m)
}

/// E13b's removal kernel: 64 word-wise exact removal tests of a sparse
/// 4-connected certificate masked over a dense instance — the innermost loop
/// of cut-candidate verification, in the mask shape `Aug_k` probes. Fixture
/// shared with the Criterion bench
/// ([`kecss_bench::workloads::e13_kernel_instance`]).
fn e13_removal_kernel(samples: usize) -> Measurement {
    let (g, h) = kecss_bench::workloads::e13_kernel_instance();
    let probe: Vec<graphs::EdgeId> = h.iter().take(64).collect();
    Measurement {
        name: "e13_compact_core/removal_test_sparse_mask_64x",
        median_ns: median_ns(samples, || {
            let connected = probe
                .iter()
                .filter(|&&id| graphs::connectivity::is_connected_after_removal(&g, &h, &[id]))
                .count();
            assert_eq!(connected, probe.len(), "H is 4-edge-connected");
        }),
        samples,
        peak_rss_kb: None,
    }
}

/// E15's observability overhead: the E12 submit→result path with metric
/// recording enabled vs disabled at runtime (`kecss_obs::set_enabled`). The
/// two rows bound the cost of the instrumentation on the hottest service
/// path; the acceptance budget is a ≤2% median delta (EXPERIMENTS.md E15).
fn e15_observability_overhead(samples: usize) -> (Measurement, Measurement) {
    let run_mode = |name: &'static str, enabled: bool| -> Measurement {
        let was = kecss_obs::set_enabled(enabled);
        let scheduler = Scheduler::new(2, 1);
        let spec = JobSpec {
            instance: InstanceSpec::parse("ring:20").unwrap(),
            k: 2,
            algorithm: Algorithm::TwoEcss,
            enumerator: EnumeratorPolicy::Auto,
            seed: 1,
        };
        let median = median_ns(samples, || {
            let id = scheduler
                .submit(spec.clone())
                .expect("depth-1 queue is free");
            match scheduler.wait(id) {
                Some(Outcome::Done(payload)) => assert!(!payload.is_empty()),
                other => panic!("job {id} did not complete: {other:?}"),
            }
        });
        scheduler.shutdown();
        kecss_obs::set_enabled(was);
        Measurement {
            name,
            median_ns: median,
            samples,
            peak_rss_kb: None,
        }
    };
    (
        run_mode(
            "e15_observability_overhead/submit_ring20_depth1_instrumented",
            true,
        ),
        run_mode(
            "e15_observability_overhead/submit_ring20_depth1_noop",
            false,
        ),
    )
}

/// The env-var handshake for E14's child-process memory probe.
const E14_PROBE_VAR: &str = "KECSS_BENCH_JSON_E14_PROBE";

/// E14's fixture size (10⁶ edges — the quick-mode point of the bench's
/// 10⁶–10⁷ sweep) and ingest kernels, shared between the parent
/// measurement and the probe child.
const E14_EDGES: u64 = 1_000_000;

fn e14_fixture_path() -> std::path::PathBuf {
    std::env::temp_dir().join("kecss_bench_json_e14.graphb")
}

fn e14_stream_ingest(path: &std::path::Path) -> graphs::Graph {
    let g = graphs::io::read_graph(path).expect("stream ingest");
    assert_eq!(g.m(), E14_EDGES as usize);
    g
}

fn e14_slurp_ingest(path: &std::path::Path) -> graphs::Graph {
    let bytes = std::fs::read(path).expect("read fixture");
    let g = graphs::io::read_binary(&bytes).expect("slurp ingest");
    assert_eq!(g.m(), E14_EDGES as usize);
    // Freeze the CSR so both modes deliver the same end state (the
    // streamed graph arrives frozen by construction).
    g.freeze();
    g
}

/// E14's out-of-core ingest: stream a 10⁶-edge synthetic `KGB1` file through
/// the two-pass builder vs slurping it into memory first. Wall time is the
/// in-process median; the `peak_rss_kb` axis comes from one fresh child
/// process per mode (re-executing this binary with [`E14_PROBE_VAR`] set),
/// since a long-lived parent retains heap from earlier workloads and would
/// understate the peak. Fixture shared with `benches/e14_out_of_core.rs`
/// via [`kecss_bench::workloads::e14_write_synthetic_kgb1`].
fn e14_out_of_core(samples: usize) -> (Measurement, Measurement) {
    use std::io::Write;
    let path = e14_fixture_path();
    let file = std::fs::File::create(&path).expect("create e14 fixture");
    let mut sink = std::io::BufWriter::with_capacity(1 << 20, file);
    kecss_bench::workloads::e14_write_synthetic_kgb1(
        &mut sink,
        (E14_EDGES / 5) as usize,
        E14_EDGES,
    )
    .expect("write e14 fixture");
    sink.flush().expect("flush e14 fixture");

    let measure = |name: &'static str,
                   mode: &str,
                   ingest: &dyn Fn(&std::path::Path) -> graphs::Graph|
     -> Measurement {
        let probe = kecss_bench::rss::spawn_child_probe(E14_PROBE_VAR, mode);
        Measurement {
            name,
            median_ns: median_ns(samples, || {
                assert_eq!(ingest(&path).m(), E14_EDGES as usize);
            }),
            samples,
            peak_rss_kb: probe.map(|(peak, _live)| peak),
        }
    };
    let stream = measure(
        "e14_out_of_core/stream_ingest_binary_1e6_edges",
        "stream",
        &|p| e14_stream_ingest(p),
    );
    let slurp = measure(
        "e14_out_of_core/slurp_ingest_binary_1e6_edges",
        "slurp",
        &|p| e14_slurp_ingest(p),
    );
    std::fs::remove_file(&path).ok();
    (stream, slurp)
}

/// E16's headline row: the recursive Karger–Stein enumerator on the `Q_5`
/// size-5 workload (the first size beyond the exact specializations).
fn e16_ks_q5(samples: usize) -> Measurement {
    let g = graphs::generators::hypercube(5, 1);
    let h = g.full_edge_set();
    Measurement {
        name: "e16_karger_stein/ks_q5_size5",
        median_ns: median_ns(samples, || {
            let cuts = KargerSteinEnumerator::default()
                .cuts(&g, &h, 5, 0, &Executor::Sequential)
                .expect("enumeration succeeds");
            assert!(!cuts.is_empty());
        }),
        samples,
        peak_rss_kb: None,
    }
}

/// E16's scale point: Karger–Stein on `Q_8` size-8 — the `k = 8` regime.
fn e16_ks_q8(samples: usize) -> Measurement {
    let g = graphs::generators::hypercube(8, 1);
    let h = g.full_edge_set();
    Measurement {
        name: "e16_karger_stein/ks_q8_size8",
        median_ns: median_ns(samples, || {
            let cuts = KargerSteinEnumerator::default()
                .cuts(&g, &h, 8, 0, &Executor::Sequential)
                .expect("enumeration succeeds");
            assert!(!cuts.is_empty());
        }),
        samples,
        peak_rss_kb: None,
    }
}

/// E17's fleet throughput pair: a 16-job `ring:20 2ecss` batch through an
/// in-process coordinator fleet at 1 worker vs 2 workers (jobs/s is
/// `16 / median`; the worker-count scaling table is in the `e17_fleet` bench
/// and EXPERIMENTS.md E17). The fixture is built once per worker count so
/// the measured routine is submit→drain, not registration.
fn e17_fleet(samples: usize) -> (Measurement, Measurement, Measurement) {
    let measure = |name: &'static str, workers: usize, spec: &str| -> Measurement {
        let mut fixture = kecss_bench::workloads::FleetFixture::new(workers, 32);
        Measurement {
            name,
            median_ns: median_ns(samples, || fixture.batch(16, spec)),
            samples,
            peak_rss_kb: None,
        }
    };
    (
        // Dispatch overhead: the solve is ~1 ms, so this row is the fleet
        // plumbing itself (assignment, worker round trip, result write-back).
        measure(
            "e17_fleet/batch16_ring20_1worker",
            1,
            "ring:20 2 2ecss auto",
        ),
        // Compute-bound scaling pair: ~65 ms of solver work per job, so the
        // 2-worker median should approach half the 1-worker one.
        measure(
            "e17_fleet/batch16_q7k5_1worker",
            1,
            "hypercube:128 5 kecss auto",
        ),
        measure(
            "e17_fleet/batch16_q7k5_2workers",
            2,
            "hypercube:128 5 kecss auto",
        ),
    )
}

/// E18's front-end rows: submit→result through the readiness-loop socket
/// front-end at queue depths {1, 64, 1024}, binary frame mode, plus the
/// text-mode depth-1 twin for the wire-format comparison. Depth 1 is the
/// bare round trip (`median_ns` is one job); the deeper rows pipeline a
/// whole window and report per-job cost (`median_ns` = batch median /
/// batch size), so every row is comparable to E12's per-job latencies.
fn e18_front_end(samples: usize) -> (Measurement, Measurement, Measurement, Measurement) {
    const SPEC: &str = "ring:20 2 2ecss auto";
    let depth_row = |name: &'static str, binary: bool, depth: usize| -> Measurement {
        let mut fixture = kecss_bench::workloads::FrontEndFixture::new(binary, depth);
        let jobs = depth; // one full window per timed iteration
        Measurement {
            name,
            median_ns: median_ns(samples, || fixture.pump(jobs, depth, SPEC)) / jobs as u128,
            samples,
            peak_rss_kb: None,
        }
    };
    (
        depth_row("e18_front_end/submit_ring20_binary_depth1", true, 1),
        depth_row("e18_front_end/submit_ring20_binary_depth64", true, 64),
        depth_row("e18_front_end/submit_ring20_binary_depth1024", true, 1024),
        depth_row("e18_front_end/submit_ring20_text_depth1", false, 1),
    )
}

/// Child side of the E14 probe: ingest the fixture the parent just wrote
/// and report the resident-set deltas.
fn run_e14_probe(mode: &str) {
    let path = e14_fixture_path();
    match mode {
        "stream" => kecss_bench::rss::report_child_probe(|| e14_stream_ingest(&path)),
        "slurp" => kecss_bench::rss::report_child_probe(|| e14_slurp_ingest(&path)),
        other => panic!("unknown probe mode '{other}'"),
    }
}

fn render_json(measurements: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"kecss-bench-v1\",\n  \"workloads\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let rss = match m.peak_rss_kb {
            Some(kb) => format!(", \"peak_rss_kb\": {kb}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"median_ns\": {}, \"samples\": {}{} }}{}\n",
            m.name,
            m.median_ns,
            m.samples,
            rss,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    // Child-process memory probe for E14: answer and exit.
    if let Ok(mode) = std::env::var(E14_PROBE_VAR) {
        run_e14_probe(&mode);
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH.json".to_string();
    let mut samples = 7usize;
    let mut i = 0;
    while i < args.len() {
        match (args[i].as_str(), args.get(i + 1)) {
            ("--out", Some(path)) => out_path = path.clone(),
            ("--samples", Some(n)) => {
                samples = n.parse().unwrap_or_else(|_| {
                    eprintln!("error: --samples expects a number");
                    std::process::exit(2);
                })
            }
            (flag, _) => {
                eprintln!("error: unknown or valueless flag '{flag}'");
                eprintln!("usage: kecss-bench-json [--out FILE] [--samples N]");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let (e13_text, e13_binary) = e13_parse(samples);
    let (e14_stream, e14_slurp) = e14_out_of_core(samples);
    let (e15_instrumented, e15_noop) = e15_observability_overhead(samples);
    let (e17_ring, e17_solo, e17_duo) = e17_fleet(samples);
    let (e18_b1, e18_b64, e18_b1024, e18_t1) = e18_front_end(samples);
    let measurements = [
        e10_kecss_solve(samples),
        e12_submit_to_result(samples),
        e12_scheduler_overhead(samples),
        e13_text,
        e13_binary,
        e13_removal_kernel(samples),
        e14_stream,
        e14_slurp,
        e15_instrumented,
        e15_noop,
        e16_ks_q5(samples),
        e16_ks_q8(samples),
        e17_ring,
        e17_solo,
        e17_duo,
        e18_b1,
        e18_b64,
        e18_b1024,
        e18_t1,
    ];
    for m in &measurements {
        let rss = match m.peak_rss_kb {
            Some(kb) => format!("   peak {kb} KiB"),
            None => String::new(),
        };
        println!(
            "{:<50} median {:>14} ns   ({} samples){rss}",
            m.name, m.median_ns, m.samples
        );
    }
    let json = render_json(&measurements);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out_path}");
}
