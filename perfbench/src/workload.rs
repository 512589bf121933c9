//! The benchmark's workloads: why each exists, which layers it loads and
//! which it bypasses, and the job plan it derives from the workload seed.

use kecss_server::job::JobSpec;
use kecss_server::protocol::Request;

/// Where the jobs of a workload are served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One standalone `Server` (one scheduler thread), one `KGW1` binary
    /// connection doing `submit_wait`.
    Standalone,
    /// One coordinator with `workers` workers (one scheduler thread each),
    /// one text-protocol connection doing `SUBMIT` + `RESULT WAIT`.
    Fleet {
        /// Registered workers.
        workers: usize,
    },
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// The layers that dominate its jobs.
    pub loads: &'static str,
    /// The layers it bypasses or leaves negligible.
    pub bypasses: &'static str,
    /// Where its jobs are served.
    pub topology: Topology,
    /// Jobs in flight on the one connection (1 = closed loop).
    pub window: usize,
    /// `SUBMIT` bodies without the seed, rotated job by job. [`FIXTURE`]
    /// stands for the path of the `KGB1` fixture written at set-up.
    pub bodies: &'static [&'static str],
    /// Distinct job seeds per body; the job plan cycles through them.
    pub seeds_per_body: u64,
    /// Jobs each set-up sends through the fresh service before the timed
    /// loop (the plan's first entries, one at a time). Their payloads join
    /// the run's oracle check, and their time is part of `setup_s`, so the
    /// set-up is mostly work the service does rather than thread spawns and
    /// socket calls, whose sub-millisecond times swing by half from one
    /// stretch of host load to the next.
    pub warmup_jobs: usize,
}

/// Placeholder for the set-up fixture's path in [`Workload::bodies`].
pub const FIXTURE: &str = "{fixture}";

/// Edges of the `KGB1` fixture `mixed_fleet` streams from disk.
pub const FIXTURE_EDGES: u64 = 200_000;

/// Vertices of the fixture (the E14 ratio of five edges per vertex).
pub const FIXTURE_VERTICES: usize = (FIXTURE_EDGES / 5) as usize;

/// Layers no workload measures, and why.
pub const UNMEASURED: &[(&str, &str)] = &[
    (
        "congest",
        "job::run charges rounds through CostModel formulas; the round engine never runs",
    ),
    (
        "runtime",
        "every job runs with Executor::Sequential, so the executor adds no work to time",
    ),
];

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small_kgw1",
        why: "Small jobs over one KGW1 connection: the service plumbing and the \
              round-accounting diameter are most of each job's latency.",
        loads: "server.front_end, server.wire, server.scheduler, graphs.bfs.diameter, \
                core.two_ecss, core.verification, server.job render, obs",
        bypasses: "core.cuts and core.cover (no cuts are enumerated), graphs.stream, \
                   server.coordinator",
        topology: Topology::Standalone,
        window: 1,
        bodies: &["ring:20 2 2ecss auto"],
        seeds_per_body: 64,
        // One pass over the plan: ~10 ms of service work per set-up.
        warmup_jobs: 64,
    },
    Workload {
        name: "heavy_cuts_q7",
        why: "Stands in for the Q_8 k=8 path at a size where one run holds >= 10 jobs: \
              cut enumeration and covering are almost all of each job.",
        loads: "core.cuts enumerate and core.cover per Aug_k level, graphs.connectivity, \
                graphs.mst",
        bypasses: "server.front_end and accounting are ~0 of a job (the diameter is ~0.6 ms \
                   of ~0.8 s); graphs.stream, server.coordinator",
        topology: Topology::Standalone,
        window: 1,
        bodies: &["hypercube:128 7 kecss auto"],
        seeds_per_body: 8,
        // One job (~0.8 s) proves the service ready; a pass would be ~7 s.
        warmup_jobs: 1,
    },
    Workload {
        name: "mixed_fleet",
        why: "The same layers run differently: jobs queue across two workers, dispatch goes \
              through the coordinator, text replaces binary framing, payloads reach ~1.5 MB.",
        loads: "server.coordinator, server.protocol text codec, graphs.stream ingest, \
                graphs.bfs.diameter (ring:2000), core.three_ecss, core.baselines.thurimella, \
                core.cuts (random kecss)",
        bypasses: "server.wire (binary framing), obs is a small share",
        topology: Topology::Fleet { workers: 2 },
        window: 8,
        bodies: &[
            "ring:2000 2 2ecss auto",
            "torus:400 3 3ecss auto",
            "random:200:30 4 kecss auto",
            "file:{fixture} 2 thurimella auto",
        ],
        seeds_per_body: 2,
        // Writing and ingesting the fixture already make its set-up ~70 ms.
        warmup_jobs: 0,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: spreads a workload seed into a job-seed base.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The distinct job specs of one run, in the order the loop submits
    /// them: job `i` is `plan[i % plan.len()]`. Bodies rotate fastest, so
    /// every window of `bodies.len()` jobs holds one job of each kind.
    ///
    /// # Panics
    ///
    /// Panics if a body is not a well-formed `SUBMIT` body.
    pub fn plan(&self, seed: u64, fixture: &str) -> Vec<JobSpec> {
        let base = splitmix64(seed) % 1_000_000_000;
        let mut plan = Vec::new();
        for s in 0..self.seeds_per_body {
            for body in self.bodies {
                let line = format!("SUBMIT {} {}", body.replace(FIXTURE, fixture), base + s);
                match Request::parse(&line) {
                    Ok(Request::Submit(spec)) => plan.push(spec),
                    other => panic!("workload {}: bad body {line:?}: {other:?}", self.name),
                }
            }
        }
        plan
    }

    /// Whether a job plan names the set-up fixture.
    pub fn needs_fixture(&self) -> bool {
        self.bodies.iter().any(|b| b.contains(FIXTURE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        for w in &WORKLOADS {
            let a = w.plan(7, "fixture.graphb");
            assert_eq!(a, w.plan(7, "fixture.graphb"));
            assert_ne!(a, w.plan(8, "fixture.graphb"));
            assert_eq!(a.len() as u64, w.seeds_per_body * w.bodies.len() as u64);
        }
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }
}
