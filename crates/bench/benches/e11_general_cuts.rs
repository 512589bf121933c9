//! E11 — the pluggable cut-enumerator strategies beyond the former `k ≤ 4`
//! cap (DESIGN.md §5/§6).
//!
//! For `k ∈ {4, 6, 8}` the last `Aug_k` level enumerates the cuts of size
//! `k - 1` of a `(k-1)`-edge-connected `H`. This bench runs that enumeration
//! on two known-structure families — `harary(k-1, n)` (minimum
//! `(k-1)`-edge-connected circulants) and `hypercube(k-1)` (edge connectivity
//! exactly `k-1`, so the size-`(k-1)` cuts include every vertex star) — with
//! each applicable strategy:
//!
//! * `exact` — only defined for sizes `1..=3`, i.e. `k = 4`;
//! * `label` — the general XOR-zero subset enumerator, deterministically
//!   complete but with `O(binom(m, k-2))` candidate generation (an enlarged
//!   budget is used here so the table can show the cost growing).
//!
//! Strategies that produce a result must agree cut-for-cut (they are all
//! exactly verified); the table reports wall time, candidate counts and the
//! agreement check. The minimum-cut enumerator behind `auto` has its own
//! series and Criterion timing in E16, so this bench only prints its table.

use graphs::generators;
use kecss::cuts::{Cut, CutEnumerator, ExactEnumerator, LabelEnumerator};
use kecss_bench::table::Table;
use kecss_runtime::Executor;
use std::time::Instant;

/// The label budget used for the table: large enough that `label` completes
/// everywhere except the genuinely explosive hypercube `k = 8` row, which
/// documents where the label pool explodes.
const TABLE_LABEL_BUDGET: u64 = 100_000_000;

fn run_strategy(
    name: &str,
    enumerator: &dyn CutEnumerator,
    g: &graphs::Graph,
    size: usize,
) -> (String, String, Option<Vec<Cut>>) {
    let h = g.full_edge_set();
    let start = Instant::now();
    match enumerator.cuts(g, &h, size, 0, &Executor::Sequential) {
        Ok(cuts) => {
            let ms = start.elapsed().as_millis();
            (format!("{ms}"), cuts.len().to_string(), Some(cuts))
        }
        Err(kecss::Error::InvalidCutRequest { .. }) => ("-".into(), "n/a".into(), None),
        Err(kecss::Error::CandidateOverflow { .. }) => ("-".into(), "overflow".into(), None),
        Err(e) => panic!("{name}: unexpected enumeration error: {e}"),
    }
}

fn main() {
    let mut table = Table::new([
        "family", "k", "size", "n", "m", "strategy", "wall ms", "cuts", "agree",
    ]);
    for k in [4usize, 6, 8] {
        let size = k - 1;
        let instances: Vec<(&str, graphs::Graph)> = vec![
            ("harary", generators::harary(size, 16, 1)),
            ("hypercube", generators::hypercube(size, 1)),
        ];
        for (family, g) in instances {
            let exact = ExactEnumerator;
            let label = LabelEnumerator::with_budget(TABLE_LABEL_BUDGET);
            let strategies: [(&str, &dyn CutEnumerator); 2] =
                [("exact", &exact), ("label", &label)];
            let mut reference: Option<Vec<Cut>> = None;
            for (name, enumerator) in strategies {
                let (ms, cuts, result) = run_strategy(name, enumerator, &g, size);
                let agree = match (&reference, &result) {
                    (Some(r), Some(c)) => {
                        assert_eq!(r, c, "{family} k={k}: {name} disagrees");
                        "yes".to_string()
                    }
                    (None, Some(_)) => {
                        reference = result.clone();
                        "ref".to_string()
                    }
                    _ => "-".to_string(),
                };
                table.push([
                    family.to_string(),
                    k.to_string(),
                    size.to_string(),
                    g.n().to_string(),
                    g.m().to_string(),
                    name.to_string(),
                    ms,
                    cuts,
                    agree,
                ]);
            }
        }
    }
    table.print("E11: cut-enumerator strategies at k in {4, 6, 8} (cuts of size k-1)");
}
