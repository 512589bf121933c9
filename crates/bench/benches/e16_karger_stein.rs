//! E16 — the recursive Karger–Stein cut enumerator (DESIGN.md §12).
//!
//! `ks` contracts to `⌈n/√2⌉ + 1`, recurses twice and shares the expensive
//! shallow contraction prefix. This bench times it on the `Aug_k`
//! enumeration workloads that dominate high-`k` solves:
//!
//! * `Q_5` size-5 — the first size beyond the exact specializations;
//! * `harary(7, 16)` size-7 and `Q_8` size-8 — the `k = 8` regime;
//! * an end-to-end `k = 8` solve of `Q_8` through the default `auto` policy
//!   (label budget trips → Karger–Stein fallback).
//!
//! Every cut is exactly verified, so wherever the deterministically complete
//! `label` enumerator finishes within E11's table budget the two must agree
//! cut-for-cut; the table asserts it and shows `-` where `label` overflows.
//! Criterion then times `ks` on the `Q_5` workload.

use criterion::{criterion_group, criterion_main, Criterion};
use graphs::generators;
use kecss::cuts::{CutEnumerator, KargerSteinEnumerator, LabelEnumerator};
use kecss_bench::table::Table;
use kecss_runtime::Executor;
use std::time::{Duration, Instant};

/// The label budget of E11's table: the agreement oracle runs only where
/// `label` completes within it.
const TABLE_LABEL_BUDGET: u64 = 100_000_000;

fn print_series() {
    let mut table = Table::new([
        "workload", "n", "m", "size", "strategy", "wall ms", "cuts", "agree",
    ]);
    let workloads: Vec<(&str, graphs::Graph, usize)> = vec![
        ("Q_5", generators::hypercube(5, 1), 5),
        ("harary(7,16)", generators::harary(7, 16, 1), 7),
        ("Q_8", generators::hypercube(8, 1), 8),
    ];
    for (name, g, size) in workloads {
        let h = g.full_edge_set();
        let start = Instant::now();
        let ks = KargerSteinEnumerator::default()
            .cuts(&g, &h, size, 0, &Executor::Sequential)
            .expect("enumeration succeeds");
        let ks_ms = start.elapsed().as_millis();
        let label = LabelEnumerator::with_budget(TABLE_LABEL_BUDGET);
        let label = label.cuts(&g, &h, size, 0, &Executor::Sequential);
        let agree = match label {
            Ok(label) => {
                assert_eq!(
                    ks, label,
                    "{name}: ks and label must agree after verification"
                );
                "yes"
            }
            Err(kecss::Error::CandidateOverflow { .. }) => "-",
            Err(e) => panic!("{name}: unexpected label error: {e}"),
        };
        table.push([
            name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            size.to_string(),
            "ks".to_string(),
            ks_ms.to_string(),
            ks.len().to_string(),
            agree.to_string(),
        ]);
    }

    // End-to-end k = 8 solve through the default auto policy (exact → label
    // → Karger–Stein fallback).
    use rand::SeedableRng;
    let g = generators::hypercube(8, 1);
    let start = Instant::now();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let sol = kecss::kecss::solve(&g, 8, &mut rng).expect("Q_8 is 8-edge-connected");
    let solve_ms = start.elapsed().as_millis();
    table.push([
        "Q_8 solve k=8".to_string(),
        g.n().to_string(),
        g.m().to_string(),
        "auto".to_string(),
        "auto(ks)".to_string(),
        solve_ms.to_string(),
        sol.subgraph.len().to_string(),
        "-".to_string(),
    ]);
    table.print("E16: recursive Karger-Stein enumeration (and the k=8 end-to-end solve)");
}

fn bench(c: &mut Criterion) {
    print_series();
    let g = generators::hypercube(5, 1);
    let h = g.full_edge_set();
    c.bench_function("e16/ks_q5_size5", |b| {
        b.iter(|| {
            KargerSteinEnumerator::default()
                .cuts(&g, &h, 5, 0, &Executor::Sequential)
                .unwrap()
                .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
