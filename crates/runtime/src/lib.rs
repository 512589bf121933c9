//! `kecss_runtime` — a deterministic parallel execution engine for the
//! k-ECSS workspace.
//!
//! The paper's structure is embarrassingly parallel in two places: nodes
//! within a synchronous CONGEST round are independent by definition, and the
//! candidate-cut removal tests of `Aug_k` are independent per candidate. This
//! crate exploits both — plus whole-instance parallelism for workload sweeps
//! — without giving up the workspace's determinism guarantee (DESIGN.md §4):
//! for every entry point, `Threaded(n)` produces **bit-identical** results to
//! `Sequential`.
//!
//! The crate is std-only (no rayon): [`std::thread::scope`] with fixed
//! contiguous chunking and chunk-order merging is all that is needed for
//! scheduling-independent results, and it keeps the dependency budget at
//! zero.
//!
//! * [`Executor`] — the execution policy (`Sequential` / `Threaded(n)`)
//!   threaded through the simulator, the solvers and the sweep drivers.
//! * [`engine`] — a parallel round engine with the exact semantics, error
//!   behavior and [`congest::RunReport`] accounting of
//!   [`congest::Network::run`].
//! * [`sweep`] — concurrent grids of independent cells (instances ×
//!   algorithms × seeds) with [`congest::RunReport`] aggregation, plus the
//!   job-granular scheduling seam ([`sweep::run_jobs`] for fixed grids,
//!   [`JobPool`] for open-ended job streams such as the `kecss serve`
//!   front-end).
//!
//! # Example
//!
//! ```
//! use graphs::generators;
//! use congest::{Network, programs::flood::FloodMinElection};
//! use kecss_runtime::{engine, Executor};
//!
//! let g = generators::cycle(16, 1);
//! let net = Network::new(&g);
//! let sequential = net.run(FloodMinElection::programs(16), 100).unwrap();
//! let parallel = engine::run(
//!     &net,
//!     FloodMinElection::programs(16),
//!     100,
//!     &Executor::from_threads(4),
//! )
//! .unwrap();
//! assert_eq!(parallel.nodes, sequential.nodes);
//! assert_eq!(parallel.report, sequential.report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod executor;
pub mod sweep;

pub use executor::Executor;
pub use sweep::JobPool;
