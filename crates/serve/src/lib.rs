//! A multi-threaded job service for the crosstalk-mitigation toolchain.
//!
//! This crate turns the library pipeline (characterize → schedule → run)
//! into a long-lived network service, std-only and dependency-free:
//!
//! * **Wire protocol** — line-delimited JSON over TCP with a hand-rolled
//!   codec ([`protocol`], [`json`]). Requests: `ping`, `stats`,
//!   `shutdown`, `advance_day`, `sleep`, `characterize`, `schedule`,
//!   `run`, `swap_demo`, `cancel`.
//! * **End-to-end deadlines** — any heavy request may carry
//!   `"deadline_ms"` (and a `"job"` label for `cancel`); the budget is
//!   pinned at arrival so queue wait counts against it, requests whose
//!   budget is already smaller than the observed queue-wait p90 are
//!   refused at admission (`rejected_admission`, retryable), and jobs
//!   whose budget expires mid-flight come back `ok: true` with
//!   `"budget_exhausted": true` plus exact progress provenance
//!   (`shots_completed`, `leaves`, `slept_ms`) — see [`xtalk_budget`].
//! * **Worker pool** — a supervised, fixed-size set of OS threads pulling
//!   from one bounded queue ([`pool`]); when the queue is full the server
//!   answers `{"ok":false,"busy":true}` instead of buffering unboundedly.
//!   A worker that dies mid-job is respawned and its in-flight job
//!   quarantined with an explicit retryable response; shutdown drains the
//!   queue (jobs complete or get `{"shutting_down":true}` — nothing is
//!   silently dropped).
//! * **Fault injection** — named injection points (`codec.read`,
//!   `codec.write`, `pool.spawn`, `pool.job`, `cache.lookup`,
//!   `charac.run`, `sim.batch`) driven by
//!   [`xtalk-fault`](xtalk_fault)'s seeded decision streams; chaos runs
//!   replay bit-identically from a seed.
//! * **Retry/backoff** — [`Client::request_with_retry`] with a
//!   [`RetryPolicy`]: retryable responses (`busy`, `shutting_down`,
//!   `quarantined`, caught panics) and transient I/O errors are retried
//!   with seeded decorrelated-jitter backoff and transparent reconnects.
//! * **Characterization cache and degradation ladder** — results keyed
//!   by device, policy, a measured policy's RB settings
//!   `(seed, seqs, shots)` and the calibration epoch, plus a
//!   last-known-good table; [`cache`] resolves every job's error tables
//!   fresh, stale (a failed rebuild serves the newest earlier epoch's
//!   tables within the TTL) or independent-only (scheduling jobs with no
//!   usable fallback run `par` over the live calibration's independent
//!   rates), and tags each reply with that [`cache::Provenance`].
//!   `advance_day` drifts every device through
//!   [`xtalk_device::Device::on_day`] (the daily-drift model of the
//!   paper's Section 5.1), invalidates the cache and prunes
//!   last-known-good entries past the TTL.
//! * **Typed names** — a request's policy and scheduler are parsed once,
//!   in [`Request::parse`], through `xtalk-charac`'s
//!   [`PolicyName`](xtalk_charac::PolicyName) table and `xtalk-core`'s
//!   [`SchedulerName`](xtalk_core::SchedulerName) table (with ω); an
//!   unknown name is a bad request that never reaches a worker. The
//!   `xtalk` CLI shares both tables.
//! * **Metrics** — request/latency/queue-depth/cache counters surfaced by
//!   the `stats` request and the shutdown summary ([`metrics`]).
//! * **Determinism** — `run` jobs execute through
//!   [`xtalk-sim`](xtalk_sim)'s parallel trajectory executor, whose
//!   per-shot seed derivation makes counts bit-identical for a fixed seed
//!   regardless of worker or executor thread count.
//!
//! ```no_run
//! use xtalk_serve::{Client, ServeConfig, Server};
//!
//! let mut config = ServeConfig::default();
//! config.addr = "127.0.0.1:0".to_string();
//! let server = Server::start(config).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let bell = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0]->c[0];\nmeasure q[1]->c[1];\n";
//! let resp = client.run_qasm(bell, "poughkeepsie", "xtalk", 2048, 7).unwrap();
//! println!("{}", resp.dump());
//! client.shutdown().unwrap();
//! println!("{}", server.join());
//! ```

pub mod cache;
pub mod client;
pub mod jobs;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod state;

pub use client::{is_busy, Client, RetryPolicy};
pub use json::Json;
pub use protocol::{is_retryable, JobEnvelope, Request};
pub use server::Server;
pub use state::{ServeConfig, ServeState};

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes unit tests that install a process-global fault plan;
    /// tests touching fault-instrumented paths (characterization, codec)
    /// must hold this for their whole body.
    pub fn fault_gate() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }
}
