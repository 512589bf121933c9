//! Distributed approximation of minimum k-edge-connected spanning subgraphs.
//!
//! This crate reproduces the algorithms of
//! *Distributed Approximation of Minimum k-edge-connected Spanning Subgraphs*
//! (Michal Dory, PODC 2018) in the CONGEST model:
//!
//! | Paper result | API entry point | Guarantee |
//! |---|---|---|
//! | Theorem 1.1 — weighted 2-ECSS | [`two_ecss::solve`] | O(log n)-approx, O((D+√n) log² n) rounds |
//! | Theorem 3.12 — weighted TAP | [`tap::solve`] | O(log n)-approx, O((D+√n) log² n) rounds |
//! | Theorem 1.2 — weighted k-ECSS | [`kecss::solve`] | O(k log n)-approx (expected), O(k(D log³ n + n)) rounds |
//! | Theorem 1.3 — unweighted 3-ECSS | [`three_ecss::solve`] | O(log n)-approx (expected), O(D log³ n) rounds |
//!
//! Every algorithm returns both the computed subgraph (as a
//! [`graphs::EdgeSet`] over the input graph) and a [`congest::RoundLedger`]
//! recording the CONGEST rounds charged, broken down by phase, so the
//! benchmark harness can reproduce the round-complexity claims.
//!
//! The supporting machinery is also public:
//!
//! * [`cycle_space`] — Pritchard–Thurimella cycle-space sampling (Section 5.1).
//! * [`cuts`] — pluggable [`cuts::CutEnumerator`] strategies (exact
//!   specializations, general label classes, deterministic minimum cuts) for the
//!   cuts that must be covered, at *any* cut size.
//! * [`decomposition`] — the segment / skeleton-tree decomposition of the MST
//!   (Section 3.2, Figure 1).
//! * [`cover`] — cost-effectiveness and its rounding (Section 2.1).
//! * [`baselines`] — prior work and reference solvers used in the evaluation.
//! * [`lower_bounds`] — certified lower bounds on OPT for ratio measurements.
//!
//! # Quickstart
//!
//! ```
//! use graphs::generators;
//! use kecss::two_ecss;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let g = generators::random_weighted_k_edge_connected(24, 2, 30, 100, &mut rng);
//! let solution = two_ecss::solve(&g, &mut rng).expect("input is 2-edge-connected");
//! assert!(graphs::connectivity::is_k_edge_connected_in(&g, &solution.subgraph, 2));
//! println!("weight {} in {} rounds", solution.weight, solution.ledger.total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augk;
pub mod baselines;
pub mod cover;
pub mod cuts;
pub mod cycle_space;
pub mod decomposition;
pub mod error;
pub mod kecss;
pub mod lower_bounds;
pub mod metrics;
pub mod tap;
pub mod three_ecss;
pub mod two_ecss;
pub mod verification;

pub use error::{Error, Result};
