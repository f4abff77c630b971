//! Storage contention models for the two evaluation testbeds.
//!
//! * **PVFS model** (Grid'5000, Figures 3/4a): `S` storage servers behind a
//!   network; every page write is a synchronous round trip — client-side
//!   overhead (FUSE + TCP latency), then FIFO service at one server
//!   (striping) costing a per-request overhead plus `bytes/bandwidth`. The
//!   paper's Fig. 3a behaviour — synchronous checkpointing collapsing under
//!   many concurrent 4 KiB writes while asynchronous flushing stays flat —
//!   is queueing at these servers.
//! * **Local-disk model** (Shamrock, Figures 4b/5): one FIFO disk per node,
//!   shared by that node's ranks only; no cross-node coupling.
//!
//! Both reduce to the same mechanism: a set of FIFO bandwidth servers with
//! per-request overhead, differing in how a rank's request is routed.

use ai_ckpt_core::rng::SplitMix64;

use crate::time::SimTime;

/// Parameters of one storage service point (a PVFS server or a node-local
/// disk).
#[derive(Debug, Clone, Copy)]
pub struct ServiceParams {
    /// Fixed per-request service cost (request processing, seek, FUSE).
    pub overhead_ns: u64,
    /// Sustained bandwidth for payload bytes.
    pub bytes_per_sec: f64,
    /// Uniform service-time variability: each request costs
    /// `base * (1 + jitter * u)`, `u ∈ [0,1)`. Disk seeks and PVFS request
    /// handling have heavy variance; this is what turns hard saturation
    /// cliffs into the gradual degradation real parallel file systems show.
    pub jitter: f64,
}

impl ServiceParams {
    /// Deterministic-cost parameters.
    pub fn fixed(overhead_ns: u64, bytes_per_sec: f64) -> Self {
        Self {
            overhead_ns,
            bytes_per_sec,
            jitter: 0.0,
        }
    }

    /// Base service time for one request of `bytes` (before jitter).
    pub fn service_ns(&self, bytes: u64) -> u64 {
        self.overhead_ns + (bytes as f64 / self.bytes_per_sec * 1e9) as u64
    }
}

/// How a rank's requests find a service point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Stripe across all servers (parallel file system): the server is a
    /// hash of (rank, request), modelling offset-based striping of many
    /// independent files — collisions are what create queueing below full
    /// saturation.
    Striped,
    /// Node-local: rank `r` on node `n` always uses server `n`.
    NodeLocal,
}

/// The shared storage fabric of a simulated cluster.
#[derive(Debug, Clone)]
pub struct StorageModel {
    params: ServiceParams,
    routing: Routing,
    /// Per-server "busy until" horizon.
    busy_until: Vec<SimTime>,
    /// Client-side request overhead (network latency, syscall, FUSE hop).
    pub client_overhead_ns: u64,
    /// Multiplier on the client overhead while the *application* of the
    /// requesting rank is running (asynchronous flushing competes with the
    /// application's MPI traffic for the NIC — §4.4.1 of the paper notes
    /// exactly this interference). 1.0 = no interference.
    pub interference: f64,
    /// Total requests served (diagnostics).
    requests: u64,
    /// Deterministic stream for routing hashes and service jitter.
    rng: SplitMix64,
}

impl StorageModel {
    /// Build a model with `servers` service points.
    pub fn new(
        servers: usize,
        params: ServiceParams,
        routing: Routing,
        client_overhead_ns: u64,
        interference: f64,
    ) -> Self {
        assert!(servers > 0);
        Self {
            params,
            routing,
            busy_until: vec![SimTime::ZERO; servers],
            client_overhead_ns,
            interference,
            requests: 0,
            rng: SplitMix64::new(0x5707_A6E5_u64),
        }
    }

    /// The paper's Grid'5000 PVFS deployment: 10 storage servers, ~55 MB/s
    /// disks, GbE round trips. Overheads calibrated so one rank sustains
    /// ≈ 4.7k page-writes/s (400 MB of 4 KiB pages in ≈ 22 s, Fig. 3a) and
    /// ten servers saturate at ≈ 76k requests/s.
    pub fn pvfs_grid5000(servers: usize) -> Self {
        Self::new(
            servers,
            ServiceParams {
                overhead_ns: 60_000,
                bytes_per_sec: 55.0 * 1024.0 * 1024.0,
                jitter: 0.5,
            },
            Routing::Striped,
            84_000,
            1.25,
        )
    }

    /// The Shamrock local-disk setup: one HDD per node shared by the node's
    /// ranks; ~100 MB/s sequential, small per-request overhead, no network.
    pub fn local_disk(nodes: usize) -> Self {
        Self::new(
            nodes,
            ServiceParams {
                overhead_ns: 20_000,
                bytes_per_sec: 100.0 * 1024.0 * 1024.0,
                jitter: 0.4,
            },
            Routing::NodeLocal,
            5_000,
            1.1,
        )
    }

    /// Number of service points.
    pub fn servers(&self) -> usize {
        self.busy_until.len()
    }

    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Effective client overhead for a rank whose application is currently
    /// computing (`true`) or blocked (`false`).
    pub fn client_overhead(&self, app_running: bool) -> u64 {
        if app_running {
            (self.client_overhead_ns as f64 * self.interference) as u64
        } else {
            self.client_overhead_ns
        }
    }

    /// Submit one write request and return its completion time.
    ///
    /// `rank`/`node`/`seq` drive routing; `issue` is when the client sends
    /// it (already including client overhead).
    pub fn submit(
        &mut self,
        issue: SimTime,
        rank: usize,
        node: usize,
        seq: u64,
        bytes: u64,
    ) -> SimTime {
        let s = match self.routing {
            Routing::Striped => {
                // Hash (rank, seq) for offset-striping collisions.
                let h = SplitMix64::new(((rank as u64) << 32) ^ seq).next_u64();
                (h % self.busy_until.len() as u64) as usize
            }
            Routing::NodeLocal => node % self.busy_until.len(),
        };
        let base = self.params.service_ns(bytes);
        let service = if self.params.jitter > 0.0 {
            base + (base as f64 * self.params.jitter * self.rng.next_f64()) as u64
        } else {
            base
        };
        let start = self.busy_until[s].max(issue);
        let done = start + service;
        self.busy_until[s] = done;
        self.requests += 1;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ServiceParams {
        ServiceParams::fixed(1_000, 1e9) // 1 GB/s => 1 ns/byte
    }

    #[test]
    fn service_time_includes_overhead_and_transfer() {
        assert_eq!(params().service_ns(1_000), 1_000 + 1_000);
    }

    #[test]
    fn fifo_queueing_on_one_server() {
        let mut m = StorageModel::new(1, params(), Routing::NodeLocal, 0, 1.0);
        let t0 = SimTime::ZERO;
        let a = m.submit(t0, 0, 0, 0, 1000); // done at 2000
        let b = m.submit(t0, 1, 0, 0, 1000); // queued: done at 4000
        assert_eq!(a.as_nanos(), 2_000);
        assert_eq!(b.as_nanos(), 4_000);
        // Idle gap: a request arriving later starts at its arrival.
        let c = m.submit(SimTime(10_000), 0, 0, 1, 1000);
        assert_eq!(c.as_nanos(), 12_000);
        assert_eq!(m.requests(), 3);
    }

    #[test]
    fn striping_spreads_requests_across_servers() {
        let mut m = StorageModel::new(8, params(), Routing::Striped, 0, 1.0);
        // 800 idle-submitted requests from one rank: hashed routing must use
        // every server a reasonable number of times (no hot spot, no hole).
        let mut per_server_load = [0u64; 8];
        for seq in 0..800u64 {
            let done = m.submit(SimTime(seq * 1_000_000), 0, 0, seq, 1000);
            // Identify the server by matching its busy horizon.
            let s = (0..8).find(|&i| m.busy_until[i] == done).unwrap();
            per_server_load[s] += 1;
        }
        for (s, &n) in per_server_load.iter().enumerate() {
            assert!(
                (50..=150).contains(&n),
                "server {s} got {n} of 800 requests — not spread"
            );
        }
    }

    #[test]
    fn service_jitter_is_bounded_and_deterministic() {
        let p = ServiceParams {
            overhead_ns: 1_000,
            bytes_per_sec: 1e9,
            jitter: 0.5,
        };
        let mut a = StorageModel::new(1, p, Routing::NodeLocal, 0, 1.0);
        let mut b = StorageModel::new(1, p, Routing::NodeLocal, 0, 1.0);
        for seq in 0..100 {
            let t = SimTime(seq * 1_000_000);
            let da = a.submit(t, 0, 0, seq, 1000);
            let db = b.submit(t, 0, 0, seq, 1000);
            assert_eq!(da, db, "same seed, same jitter stream");
            let service = da - t;
            assert!((2_000..3_000).contains(&service), "service {service}ns");
        }
    }

    #[test]
    fn node_local_isolates_nodes() {
        let mut m = StorageModel::new(2, params(), Routing::NodeLocal, 0, 1.0);
        let t0 = SimTime::ZERO;
        let a = m.submit(t0, 0, 0, 0, 1000);
        let b = m.submit(t0, 5, 1, 0, 1000);
        assert_eq!(a.as_nanos(), 2_000);
        assert_eq!(b.as_nanos(), 2_000, "different node, no contention");
        let c = m.submit(t0, 7, 1, 1, 1000);
        assert_eq!(c.as_nanos(), 4_000, "same node queues");
    }

    #[test]
    fn interference_raises_client_overhead() {
        let m = StorageModel::new(1, params(), Routing::NodeLocal, 10_000, 1.5);
        assert_eq!(m.client_overhead(false), 10_000);
        assert_eq!(m.client_overhead(true), 15_000);
    }
}
