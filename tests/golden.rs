//! Golden outputs of the Section 5 3-ECSS solvers.
//!
//! The byte-identity suites compare two runs of the same build, so they
//! cannot see a change to the solver that alters its output. These tests
//! pin the output itself: an FNV-1a digest of the selected edge ids, the
//! iteration count and the charged CONGEST rounds of `three_ecss::solve`
//! and `three_ecss::solve_weighted` on fixed instances and seeds, and the
//! digest of one service payload. A performance rewrite of the augmentation
//! loop must leave every value here unchanged.

use graphs::{generators, EdgeSet};
use kecss::three_ecss::{self, ThreeEcssSolution};
use kecss_runtime::Executor;
use kecss_server::protocol::Request;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the edge-id list of `set`, each id as a little-endian `u64`.
fn edge_digest(set: &EdgeSet) -> u64 {
    fnv1a(set.iter().flat_map(|id| (id.index() as u64).to_le_bytes()))
}

/// `(edge digest, iterations, ledger total)` of a solution.
fn pin(sol: &ThreeEcssSolution) -> (u64, u64, u64) {
    (
        edge_digest(&sol.subgraph),
        sol.iterations,
        sol.ledger.total(),
    )
}

#[test]
fn unweighted_three_ecss_on_torus_is_pinned() {
    let g = generators::torus(20, 20, 1);
    let expected = [
        (1u64, (7_902_925_850_367_083_396u64, 973u64, 123_697u64)),
        (2, (12_832_790_042_878_991_105, 1028, 130_682)),
    ];
    for (seed, want) in expected {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sol = three_ecss::solve(&g, &mut rng).unwrap();
        assert_eq!(pin(&sol), want, "torus(20, 20) seed {seed}");
    }
}

#[test]
fn weighted_three_ecss_on_random_graphs_is_pinned() {
    let expected = [
        (1u64, (5_212_389_476_400_732_112u64, 212u64, 13_462u64)),
        (2, (11_048_060_614_125_207_259, 225, 10_413)),
    ];
    for (seed, want) in expected {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_weighted_k_edge_connected(40, 3, 80, 30, &mut rng);
        let sol = three_ecss::solve_weighted(&g, &mut rng).unwrap();
        assert_eq!(pin(&sol), want, "random weighted n=40 seed {seed}");
    }
}

#[test]
fn torus_three_ecss_service_payload_is_pinned() {
    let Request::Submit(spec) = Request::parse("SUBMIT torus:400 3 3ecss auto 7").unwrap() else {
        panic!("not a SUBMIT line")
    };
    let payload = kecss_server::job::run(&spec, &Executor::Sequential).unwrap();
    assert_eq!(
        (fnv1a(payload.iter().copied()), payload.len()),
        (2_484_618_760_383_269_931, 9453),
        "torus:400 3ecss payload"
    );
}
