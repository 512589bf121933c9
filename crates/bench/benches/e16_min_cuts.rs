//! E16 — the deterministic minimum-cut enumerator (DESIGN.md §12).
//!
//! `auto` lists the cuts of size ≥ 4 that `Aug_k` must cover as the
//! minimum cuts of `H`, from the residual graphs of `n - 1` unit flows.
//! This bench times it on the enumeration workloads that dominate high-`k`
//! solves:
//!
//! * `Q_5` size-5 — the first size beyond the exact specializations;
//! * `harary(7, 16)` size-7 and `Q_8` size-8 — the `k = 8` regime;
//! * an end-to-end `k = 8` solve of `Q_8` through the default `auto` policy.
//!
//! Wherever the deterministically complete `label` enumerator finishes
//! within E11's table budget the two must agree cut-for-cut; the table
//! asserts it and shows `-` where `label` overflows. Criterion then times
//! the enumerator on `Q_5` size 5 and `Q_8` size 8.

use criterion::{criterion_group, criterion_main, Criterion};
use graphs::generators;
use kecss::cuts::{CutEnumerator, LabelEnumerator, MinCutEnumerator};
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
        let cuts = MinCutEnumerator
            .cuts(&g, &h, size, 0, &Executor::Sequential)
            .expect("enumeration succeeds");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let label = LabelEnumerator::with_budget(TABLE_LABEL_BUDGET);
        let agree = match label.cuts(&g, &h, size, 0, &Executor::Sequential) {
            Ok(label) => {
                assert_eq!(cuts, label, "{name}: mincut and label must agree");
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
            "mincut".to_string(),
            format!("{wall_ms:.1}"),
            cuts.len().to_string(),
            agree.to_string(),
        ]);
    }

    // End-to-end k = 8 solve through the default auto policy.
    use rand::SeedableRng;
    let g = generators::hypercube(8, 1);
    let start = Instant::now();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let sol = kecss::kecss::solve(&g, 8, &mut rng).expect("Q_8 is 8-edge-connected");
    let solve_ms = start.elapsed().as_secs_f64() * 1e3;
    table.push([
        "Q_8 solve k=8".to_string(),
        g.n().to_string(),
        g.m().to_string(),
        "1..7".to_string(),
        "auto".to_string(),
        format!("{solve_ms:.1}"),
        sol.subgraph.len().to_string(),
        "-".to_string(),
    ]);
    table.print("E16: deterministic minimum-cut enumeration (and the k=8 end-to-end solve)");
}

fn bench(c: &mut Criterion) {
    print_series();
    for (name, dim) in [("e16/mincut_q5_size5", 5), ("e16/mincut_q8_size8", 8)] {
        let g = generators::hypercube(dim, 1);
        let h = g.full_edge_set();
        c.bench_function(name, |b| {
            b.iter(|| {
                MinCutEnumerator
                    .cuts(&g, &h, dim, 0, &Executor::Sequential)
                    .unwrap()
                    .len()
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
