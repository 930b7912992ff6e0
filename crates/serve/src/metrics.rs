//! Lock-free service metrics, reported through `stats` requests and the
//! shutdown summary.

use crate::json::{obj, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use xtalk_obs::Histogram;

/// Counter registry. All counters are monotonic except `queue_depth`,
/// which tracks the jobs currently waiting in (or admitted to) the pool.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests decoded, of any type.
    pub requests: AtomicU64,
    /// Requests rejected with the busy (backpressure) response.
    pub busy_rejections: AtomicU64,
    /// Malformed frames / undecodable requests.
    pub bad_requests: AtomicU64,
    /// Jobs a worker finished successfully.
    pub jobs_ok: AtomicU64,
    /// Jobs that returned an error (including worker panics).
    pub jobs_failed: AtomicU64,
    /// Jobs currently queued or running.
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    pub queue_peak: AtomicU64,
    /// Characterization cache hits.
    pub cache_hits: AtomicU64,
    /// Characterization cache misses (characterization actually ran).
    pub cache_misses: AtomicU64,
    /// Sum of worker job latencies, microseconds.
    pub job_micros: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Workers the supervisor respawned after a panic.
    pub workers_respawned: AtomicU64,
    /// In-flight jobs quarantined because their worker died.
    pub jobs_quarantined: AtomicU64,
    /// Queued jobs answered `shutting_down` during the shutdown drain.
    pub jobs_drained: AtomicU64,
    /// Characterization builds that failed (panicked or errored).
    pub charac_failures: AtomicU64,
    /// Requests served from a stale last-known-good characterization.
    pub degraded_stale: AtomicU64,
    /// Requests degraded all the way to the independent-error model.
    pub degraded_independent: AtomicU64,
    /// Heavy requests refused on arrival because the observed queue wait
    /// already exceeded their deadline.
    pub rejected_admission: AtomicU64,
    /// Jobs whose cancel token a `cancel` request tripped while they were
    /// queued or running.
    pub jobs_cancelled: AtomicU64,
    /// Jobs answered with a `budget_exhausted` best-effort partial.
    pub partial_results: AtomicU64,
    /// Queue wait (admission → dequeue) in microseconds; its p90 drives
    /// admission control for every heavy request.
    pub queue_wait_micros: Histogram,
}

impl Metrics {
    /// Bumps a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a job entering the pool, maintaining the high-water mark.
    pub fn job_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Reverses a [`Metrics::job_enqueued`] whose submission was then
    /// rejected (queue full / pool gone).
    pub fn job_rejected(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| Some(d.saturating_sub(1)));
    }

    /// Records how long a job sat queued before a worker picked it up.
    pub fn queue_wait_recorded(&self, micros: u64) {
        self.queue_wait_micros.record(micros);
    }

    /// The observed 90th-percentile queue wait in whole milliseconds
    /// (octave resolution; 0 until any job has been dequeued).
    pub fn queue_wait_p90_ms(&self) -> u64 {
        self.queue_wait_micros.quantile(0.90) / 1000
    }

    /// Notes a job leaving the pool after `micros` of work.
    pub fn job_finished(&self, micros: u64, ok: bool) {
        // Saturating: a job submitted without `job_enqueued` (as some unit
        // tests do) must not wrap the gauge.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| Some(d.saturating_sub(1)));
        self.job_micros.fetch_add(micros, Ordering::Relaxed);
        Metrics::inc(if ok { &self.jobs_ok } else { &self.jobs_failed });
    }

    /// Point-in-time snapshot as a JSON object (the `stats` payload).
    pub fn snapshot(&self) -> Json {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let jobs = load(&self.jobs_ok) + load(&self.jobs_failed);
        let mean_ms = if jobs == 0 {
            0.0
        } else {
            load(&self.job_micros) as f64 / jobs as f64 / 1000.0
        };
        obj([
            ("requests", load(&self.requests).into()),
            ("connections", load(&self.connections).into()),
            ("busy_rejections", load(&self.busy_rejections).into()),
            ("bad_requests", load(&self.bad_requests).into()),
            ("jobs_ok", load(&self.jobs_ok).into()),
            ("jobs_failed", load(&self.jobs_failed).into()),
            ("queue_depth", load(&self.queue_depth).into()),
            ("queue_peak", load(&self.queue_peak).into()),
            ("cache_hits", load(&self.cache_hits).into()),
            ("cache_misses", load(&self.cache_misses).into()),
            ("workers_respawned", load(&self.workers_respawned).into()),
            ("jobs_quarantined", load(&self.jobs_quarantined).into()),
            ("jobs_drained", load(&self.jobs_drained).into()),
            ("charac_failures", load(&self.charac_failures).into()),
            ("degraded_stale", load(&self.degraded_stale).into()),
            ("degraded_independent", load(&self.degraded_independent).into()),
            ("rejected_admission", load(&self.rejected_admission).into()),
            ("jobs_cancelled", load(&self.jobs_cancelled).into()),
            ("partial_results", load(&self.partial_results).into()),
            ("queue_wait_p50_ms", (self.queue_wait_micros.quantile(0.50) / 1000).into()),
            ("queue_wait_p90_ms", self.queue_wait_p90_ms().into()),
            ("queue_wait_p99_ms", (self.queue_wait_micros.quantile(0.99) / 1000).into()),
            ("queue_wait_max_ms", (self.queue_wait_micros.max() / 1000).into()),
            ("mean_job_ms", Json::Num((mean_ms * 1000.0).round() / 1000.0)),
        ])
    }

    /// One-line human summary for the shutdown log. Resilience counters
    /// (respawns, quarantines, drains, degradations) are appended only
    /// when non-zero, keeping the happy-path line unchanged.
    pub fn summary(&self) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut line = format!(
            "served {} requests over {} connections: {} jobs ok, {} failed, \
             {} shed (queue peak {}); cache {} hits / {} misses",
            load(&self.requests),
            load(&self.connections),
            load(&self.jobs_ok),
            load(&self.jobs_failed),
            load(&self.busy_rejections),
            load(&self.queue_peak),
            load(&self.cache_hits),
            load(&self.cache_misses),
        );
        let resilience = [
            ("respawned", load(&self.workers_respawned)),
            ("quarantined", load(&self.jobs_quarantined)),
            ("drained", load(&self.jobs_drained)),
            ("charac failures", load(&self.charac_failures)),
            ("stale-degraded", load(&self.degraded_stale)),
            ("independent-degraded", load(&self.degraded_independent)),
            ("admission-rejected", load(&self.rejected_admission)),
            ("cancelled", load(&self.jobs_cancelled)),
            ("partial", load(&self.partial_results)),
        ];
        if resilience.iter().any(|&(_, n)| n > 0) {
            let parts: Vec<String> = resilience
                .iter()
                .filter(|&&(_, n)| n > 0)
                .map(|&(label, n)| format!("{n} {label}"))
                .collect();
            line.push_str(&format!("; resilience: {}", parts.join(", ")));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::default();
        Metrics::inc(&m.requests);
        Metrics::inc(&m.requests);
        m.job_enqueued();
        m.job_enqueued();
        m.job_finished(1500, true);
        m.job_finished(500, false);
        let s = m.snapshot();
        assert_eq!(s.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(s.get("jobs_ok").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("jobs_failed").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("queue_depth").and_then(Json::as_u64), Some(0));
        assert_eq!(s.get("queue_peak").and_then(Json::as_u64), Some(2));
        assert_eq!(s.get("mean_job_ms").and_then(Json::as_f64), Some(1.0));
        assert!(m.summary().contains("2 requests"));
    }

    #[test]
    fn queue_wait_percentiles_drive_admission() {
        let m = Metrics::default();
        assert_eq!(m.queue_wait_p90_ms(), 0, "no samples: always admit");
        // 8 fast dequeues (~1 ms) and two slow (~1 s): the p90 lands in
        // the slow octave, the p50 in the fast one.
        for _ in 0..8 {
            m.queue_wait_recorded(1_000);
        }
        m.queue_wait_recorded(1_000_000);
        m.queue_wait_recorded(1_000_000);
        let s = m.snapshot();
        let p50 = s.get("queue_wait_p50_ms").and_then(Json::as_u64).unwrap();
        let p90 = s.get("queue_wait_p90_ms").and_then(Json::as_u64).unwrap();
        assert!(p50 <= 2, "p50 {p50} ms");
        assert!(p90 >= 500, "p90 {p90} ms");
        assert_eq!(s.get("queue_wait_max_ms").and_then(Json::as_u64), Some(1_000));
        // New counters surface in the snapshot and the summary.
        Metrics::inc(&m.rejected_admission);
        Metrics::inc(&m.jobs_cancelled);
        Metrics::inc(&m.partial_results);
        let s = m.snapshot();
        assert_eq!(s.get("rejected_admission").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("jobs_cancelled").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("partial_results").and_then(Json::as_u64), Some(1));
        let line = m.summary();
        assert!(line.contains("1 admission-rejected"), "{line}");
        assert!(line.contains("1 cancelled"), "{line}");
        assert!(line.contains("1 partial"), "{line}");
    }
}
