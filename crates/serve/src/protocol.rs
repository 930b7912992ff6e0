//! Wire protocol: line-delimited JSON requests and responses.
//!
//! Every frame is one JSON document followed by `\n`. Requests are
//! objects with a `"type"` discriminator; responses always carry an
//! `"ok"` boolean, plus `"error"` when `ok` is false.
//!
//! # Error taxonomy
//!
//! Failure responses fall into two classes, distinguished by a
//! `"retryable"` flag so clients can decide mechanically:
//!
//! * **Retryable** — transient server conditions a backoff-and-retry is
//!   expected to clear: `"busy": true` (queue full), `"shutting_down":
//!   true` (drained at shutdown), `"quarantined": true` (the worker
//!   executing the job died; a respawned worker can take the retry), and
//!   caught job panics. All carry `"retryable": true`.
//! * **Fatal** — the request itself is wrong (unknown device, bad QASM,
//!   unparseable frame); retrying the same bytes cannot succeed. These
//!   omit the flag ([`is_retryable`] reads that as `false`).
//!
//! The codec functions [`read_frame`]/[`write_frame`] carry the
//! `codec.read`/`codec.write` fault-injection points; an injected fault
//! surfaces as [`io::ErrorKind::ConnectionReset`], exactly like a peer
//! vanishing mid-frame.
//!
//! # Budget envelope
//!
//! Any heavy request may additionally carry a [`JobEnvelope`]:
//! `"deadline_ms"` (an end-to-end budget measured from arrival, queue
//! wait included) and `"job"` (a client-chosen label a later
//! `{"type":"cancel","job":...}` can name). Every heavy job's deadline is
//! its `deadline_ms` capped at the server's job timeout (the timeout
//! alone when the request sets none). A job whose deadline expires
//! mid-job comes back `ok: true` with `"budget_exhausted": true` plus
//! provenance (`shots_completed`, `leaves`, `slept_ms`, ...) describing
//! the best-effort partial result. Requests refused on arrival because
//! the observed queue wait already exceeds their deadline get
//! [`rejected_admission_response`] (retryable).

use crate::json::{obj, Json};
use std::io::{self, BufRead, Read, Write};
use xtalk_charac::PolicyName;
use xtalk_core::SchedulerName;

/// Upper bound on one frame, to keep a misbehaving peer from ballooning
/// memory. Generous enough for any QASM payload this toolchain emits.
pub const MAX_FRAME_BYTES: u64 = 8 * 1024 * 1024;

/// A decoded job request.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Metrics snapshot.
    Stats,
    /// Graceful server shutdown.
    Shutdown,
    /// Advances the simulated calibration day: drifts every device's
    /// calibration (deterministically, by the new epoch) and invalidates
    /// the characterization cache.
    AdvanceDay,
    /// Sleeps on a worker for `ms` milliseconds — a deterministic stand-in
    /// for a slow job, used to exercise backpressure and deadlines. It
    /// polls its budget every 10 ms and stops early at the job's deadline.
    Sleep {
        /// How long to hold the worker.
        ms: u64,
    },
    /// Runs (or fetches from cache) a crosstalk characterization.
    Characterize {
        /// Device name (`poughkeepsie` | `johannesburg` | `boeblingen`).
        device: String,
        /// Characterization policy (`truth` | `all` | `onehop` |
        /// `binpacked`).
        policy: PolicyName,
        /// RB seed (with `seqs` and `shots`, part of a measured policy's
        /// cache key; `truth` ignores all three).
        seed: u64,
        /// Random sequences per RB length.
        seqs: usize,
        /// Shots per RB circuit.
        shots: u64,
    },
    /// Schedules a QASM circuit and reports the schedule.
    Schedule {
        /// Device name.
        device: String,
        /// OpenQASM 2.0 source.
        qasm: String,
        /// Scheduler (`xtalk` | `par` | `serial`), with XtalkSched's
        /// crosstalk/decoherence weight ω.
        scheduler: SchedulerName,
        /// Characterization policy feeding the scheduler.
        policy: PolicyName,
        /// Characterization seed (part of a measured policy's cache key).
        seed: u64,
    },
    /// Schedules and executes a QASM circuit, returning counts.
    Run {
        /// Device name.
        device: String,
        /// OpenQASM 2.0 source.
        qasm: String,
        /// Scheduler (`xtalk` | `par` | `serial`), with XtalkSched's ω.
        scheduler: SchedulerName,
        /// Characterization policy feeding the scheduler.
        policy: PolicyName,
        /// Trajectories to sample.
        shots: u64,
        /// Executor base seed.
        seed: u64,
        /// Executor threads (0 = all available parallelism).
        threads: usize,
    },
    /// Cancels an in-flight (queued or running) job by its client-chosen
    /// `"job"` label, tripping the cancel token its budget polls.
    Cancel {
        /// The label the job was submitted with.
        job: String,
    },
    /// The SWAP-circuit benchmark between two qubits, comparing all three
    /// schedulers (the paper's Figure 5 demo).
    SwapDemo {
        /// Device name.
        device: String,
        /// Source qubit.
        from: u32,
        /// Destination qubit.
        to: u32,
        /// Shots per tomography basis.
        shots: u64,
        /// Base seed.
        seed: u64,
    },
}

impl Request {
    /// Decodes a request object, validating the `"type"` discriminator.
    pub fn parse(v: &Json) -> Result<Request, String> {
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("request needs a string `type` field")?;
        let str_field = |key: &str, default: &str| -> String {
            v.get(key).and_then(Json::as_str).unwrap_or(default).to_string()
        };
        let u64_field = |key: &str, default: u64| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(default),
                Some(x) => x.as_u64().ok_or(format!("`{key}` must be a non-negative integer")),
            }
        };
        // Parsed here, once: an unknown name is a bad request that never
        // reaches a worker.
        let policy_field = |default: PolicyName| match v.get("policy").and_then(Json::as_str) {
            None => Ok(default),
            Some(name) => PolicyName::parse(name),
        };
        let f64_field = |key: &str, default: f64| -> Result<f64, String> {
            match v.get(key) {
                None => Ok(default),
                Some(x) => x.as_f64().ok_or(format!("`{key}` must be a number")),
            }
        };
        // Likewise for the scheduler and its weight: an unknown name or
        // a weight outside [0, 1] never reaches a worker.
        let scheduler_field =
            || SchedulerName::parse(&str_field("scheduler", "xtalk"), f64_field("omega", 0.5)?);
        match kind {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "advance_day" => Ok(Request::AdvanceDay),
            "sleep" => Ok(Request::Sleep { ms: u64_field("ms", 10)?.min(60_000) }),
            "characterize" => Ok(Request::Characterize {
                device: str_field("device", "poughkeepsie"),
                policy: policy_field(PolicyName::BinPacked)?,
                seed: u64_field("seed", 7)?,
                seqs: u64_field("seqs", 3)? as usize,
                shots: u64_field("shots", 96)?,
            }),
            "schedule" => Ok(Request::Schedule {
                device: str_field("device", "poughkeepsie"),
                qasm: v
                    .get("qasm")
                    .and_then(Json::as_str)
                    .ok_or("`schedule` needs a `qasm` string")?
                    .to_string(),
                scheduler: scheduler_field()?,
                policy: policy_field(PolicyName::Truth)?,
                seed: u64_field("seed", 7)?,
            }),
            "run" => Ok(Request::Run {
                device: str_field("device", "poughkeepsie"),
                qasm: v
                    .get("qasm")
                    .and_then(Json::as_str)
                    .ok_or("`run` needs a `qasm` string")?
                    .to_string(),
                scheduler: scheduler_field()?,
                policy: policy_field(PolicyName::Truth)?,
                shots: u64_field("shots", 2048)?,
                seed: u64_field("seed", 7)?,
                threads: u64_field("threads", 0)? as usize,
            }),
            "cancel" => Ok(Request::Cancel {
                job: v
                    .get("job")
                    .and_then(Json::as_str)
                    .ok_or("`cancel` needs a `job` string")?
                    .to_string(),
            }),
            "swap_demo" => Ok(Request::SwapDemo {
                device: str_field("device", "poughkeepsie"),
                from: u64_field("from", 0)? as u32,
                to: u64_field("to", 13)? as u32,
                shots: u64_field("shots", 256)?,
                seed: u64_field("seed", 42)?,
            }),
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    /// Stable label used for metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::AdvanceDay => "advance_day",
            Request::Sleep { .. } => "sleep",
            Request::Characterize { .. } => "characterize",
            Request::Schedule { .. } => "schedule",
            Request::Run { .. } => "run",
            Request::Cancel { .. } => "cancel",
            Request::SwapDemo { .. } => "swap_demo",
        }
    }

    /// `true` if the request must go through the worker pool (may take
    /// seconds); light requests are answered on the connection thread.
    pub fn is_heavy(&self) -> bool {
        matches!(
            self,
            Request::Sleep { .. }
                | Request::Characterize { .. }
                | Request::Schedule { .. }
                | Request::Run { .. }
                | Request::SwapDemo { .. }
        )
    }
}

/// Budget/cancellation envelope accepted alongside any heavy request,
/// parsed separately from the request body so every job type carries it
/// uniformly (see the module docs).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct JobEnvelope {
    /// End-to-end deadline in milliseconds, measured from request
    /// arrival — queue wait counts against it. The server caps it at its
    /// job timeout.
    pub deadline_ms: Option<u64>,
    /// Client-chosen label a `cancel` request can name while the job is
    /// queued or running. Labels are expected to be unique among
    /// in-flight jobs; a duplicate simply retargets `cancel` at the
    /// newest holder.
    pub job: Option<String>,
}

impl JobEnvelope {
    /// Decodes the envelope fields from a request object. Absent fields
    /// are fine; present fields must be well-typed.
    pub fn parse(v: &Json) -> Result<JobEnvelope, String> {
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(x) => {
                Some(x.as_u64().ok_or("`deadline_ms` must be a non-negative integer")?)
            }
        };
        let job = match v.get("job") {
            None => None,
            Some(x) => Some(x.as_str().ok_or("`job` must be a string")?.to_string()),
        };
        Ok(JobEnvelope { deadline_ms, job })
    }
}

/// A successful response carrying extra fields.
pub fn ok_response<const N: usize>(fields: [(&str, Json); N]) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(pairs)
}

/// A fatal failure response: the request itself cannot succeed.
pub fn err_response(message: impl Into<String>) -> Json {
    obj([("ok", false.into()), ("error", Json::Str(message.into()))])
}

/// A retryable failure response: a transient server condition.
pub fn retryable_err_response(message: impl Into<String>) -> Json {
    obj([
        ("ok", false.into()),
        ("retryable", true.into()),
        ("error", Json::Str(message.into())),
    ])
}

/// The backpressure response: queue full, try again later.
pub fn busy_response() -> Json {
    obj([
        ("ok", false.into()),
        ("busy", true.into()),
        ("retryable", true.into()),
        ("error", "server busy: job queue full".into()),
    ])
}

/// The shutdown response: the job was accepted but the pool is draining;
/// resubmit elsewhere (or to the restarted server).
pub fn shutting_down_response() -> Json {
    obj([
        ("ok", false.into()),
        ("shutting_down", true.into()),
        ("retryable", true.into()),
        ("error", "server shutting down: job not executed".into()),
    ])
}

/// The admission-control rejection: the queue's observed wait already
/// exceeds the job's deadline (its `deadline_ms` capped at the server's
/// job timeout), so executing it could only yield an expired result.
/// Retryable — the queue may drain, or the client can resubmit with a
/// larger budget.
pub fn rejected_admission_response(deadline_ms: u64, wait_p90_ms: u64) -> Json {
    obj([
        ("ok", false.into()),
        ("rejected_admission", true.into()),
        ("retryable", true.into()),
        ("deadline_ms", deadline_ms.into()),
        ("queue_wait_p90_ms", wait_p90_ms.into()),
        (
            "error",
            Json::Str(format!(
                "admission control: observed queue wait (p90 {wait_p90_ms} ms) \
                 already exceeds the {deadline_ms} ms deadline"
            )),
        ),
    ])
}

/// The quarantine response: the worker executing this job died; the job
/// is *not* silently retried server-side (it may be the poison that
/// killed the worker) but a client retry lands on a fresh worker.
pub fn quarantined_response(kind: &str, reason: &str) -> Json {
    obj([
        ("ok", false.into()),
        ("quarantined", true.into()),
        ("retryable", true.into()),
        ("error", Json::Str(format!("worker died executing `{kind}` job: {reason}"))),
    ])
}

/// `true` if a failure response is flagged as retryable. Successful
/// responses are never retryable.
pub fn is_retryable(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(false)
        && resp.get("retryable").and_then(Json::as_bool) == Some(true)
}

/// Writes one frame. Carries the `codec.write` injection point.
pub fn write_frame(w: &mut impl Write, v: &Json) -> io::Result<()> {
    if let Some(msg) = xtalk_fault::fire("codec.write") {
        return Err(io::Error::new(io::ErrorKind::ConnectionReset, msg));
    }
    let mut line = v.dump();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on clean EOF; malformed JSON is an
/// `InvalidData` error (the line framing survives, so the connection can
/// keep going). Carries the `codec.read` injection point.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Json>> {
    if let Some(msg) = xtalk_fault::fire("codec.read") {
        return Err(io::Error::new(io::ErrorKind::ConnectionReset, msg));
    }
    let mut line = String::new();
    let n = r.by_ref().take(MAX_FRAME_BYTES).read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n as u64 >= MAX_FRAME_BYTES && !line.ends_with('\n') {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    let trimmed = line.trim();
    if trimmed.is_empty() {
        // Tolerate blank keep-alive lines.
        return read_frame(r);
    }
    Json::parse(trimmed)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_request_with_defaults() {
        let v = Json::parse(r#"{"type":"run","qasm":"OPENQASM 2.0;"}"#).unwrap();
        let req = Request::parse(&v).unwrap();
        match req {
            Request::Run { device, scheduler, shots, threads, .. } => {
                assert_eq!(device, "poughkeepsie");
                assert_eq!(scheduler, SchedulerName::Xtalk { omega: 0.5 });
                assert_eq!(shots, 2048);
                assert_eq!(threads, 0);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            r#"{"no_type":1}"#,
            r#"{"type":"frobnicate"}"#,
            r#"{"type":"run"}"#,
            r#"{"type":"sleep","ms":-3}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::parse(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn policies_are_parsed_once_at_the_edge() {
        let parse = |text: &str| Request::parse(&Json::parse(text).unwrap());
        match parse(r#"{"type":"schedule","qasm":"x"}"#).unwrap() {
            Request::Schedule { policy, .. } => assert_eq!(policy, PolicyName::Truth),
            other => panic!("wrong variant {other:?}"),
        }
        match parse(r#"{"type":"characterize","policy":"onehop"}"#).unwrap() {
            Request::Characterize { policy, .. } => assert_eq!(policy, PolicyName::OneHop),
            other => panic!("wrong variant {other:?}"),
        }
        for kind in ["characterize", "schedule", "run"] {
            let text = format!(r#"{{"type":"{kind}","qasm":"x","policy":"psychic"}}"#);
            assert_eq!(parse(&text), Err("unknown policy `psychic`".to_string()), "{kind}");
        }
    }

    #[test]
    fn schedulers_are_parsed_once_at_the_edge() {
        let parse = |text: &str| Request::parse(&Json::parse(text).unwrap());
        match parse(r#"{"type":"schedule","qasm":"x","scheduler":"par","omega":0.25}"#).unwrap() {
            Request::Schedule { scheduler, .. } => assert_eq!(scheduler, SchedulerName::Par),
            other => panic!("wrong variant {other:?}"),
        }
        match parse(r#"{"type":"run","qasm":"x","omega":0.25}"#).unwrap() {
            Request::Run { scheduler, .. } => {
                assert_eq!(scheduler, SchedulerName::Xtalk { omega: 0.25 })
            }
            other => panic!("wrong variant {other:?}"),
        }
        for kind in ["schedule", "run"] {
            let text = format!(r#"{{"type":"{kind}","qasm":"x","scheduler":"warp"}}"#);
            assert_eq!(parse(&text), Err("unknown scheduler `warp`".to_string()), "{kind}");
            let text = format!(r#"{{"type":"{kind}","qasm":"x","scheduler":"par","omega":1.5}}"#);
            assert_eq!(parse(&text), Err("omega must be in [0,1], got 1.5".to_string()), "{kind}");
        }
    }

    #[test]
    fn heavy_classification() {
        assert!(!Request::Ping.is_heavy());
        assert!(!Request::Stats.is_heavy());
        assert!(!Request::Cancel { job: "j".into() }.is_heavy());
        assert!(Request::Sleep { ms: 1 }.is_heavy());
    }

    #[test]
    fn envelope_parses_and_validates() {
        let v = Json::parse(r#"{"type":"run","qasm":"x","deadline_ms":250,"job":"bell-1"}"#)
            .unwrap();
        let env = JobEnvelope::parse(&v).unwrap();
        assert_eq!(env.deadline_ms, Some(250));
        assert_eq!(env.job.as_deref(), Some("bell-1"));
        // Absent fields are fine.
        let bare = Json::parse(r#"{"type":"ping"}"#).unwrap();
        assert_eq!(JobEnvelope::parse(&bare).unwrap(), JobEnvelope::default());
        // Mis-typed fields are loud.
        let bad = Json::parse(r#"{"deadline_ms":"soon"}"#).unwrap();
        assert!(JobEnvelope::parse(&bad).is_err());
        let bad = Json::parse(r#"{"job":3}"#).unwrap();
        assert!(JobEnvelope::parse(&bad).is_err());
    }

    #[test]
    fn cancel_request_needs_a_job_label() {
        let v = Json::parse(r#"{"type":"cancel","job":"bell-1"}"#).unwrap();
        assert_eq!(Request::parse(&v).unwrap(), Request::Cancel { job: "bell-1".into() });
        let v = Json::parse(r#"{"type":"cancel"}"#).unwrap();
        assert!(Request::parse(&v).is_err());
    }

    #[test]
    fn frame_roundtrip() {
        let v = ok_response([("answer", 42u64.into())]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &busy_response()).unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap(), Some(v));
        let busy = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(busy.get("busy").and_then(Json::as_bool), Some(true));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let buf = b"\n  \n{\"type\":\"ping\"}\n".to_vec();
        let mut r = std::io::BufReader::new(&buf[..]);
        let v = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("ping"));
    }

    #[test]
    fn taxonomy_separates_retryable_from_fatal() {
        assert!(is_retryable(&busy_response()));
        assert!(is_retryable(&shutting_down_response()));
        assert!(is_retryable(&rejected_admission_response(50, 120)));
        assert!(is_retryable(&quarantined_response("run", "injected")));
        assert!(is_retryable(&retryable_err_response("worker hiccup")));
        assert!(!is_retryable(&err_response("unknown device")));
        assert!(!is_retryable(&ok_response([])));
        let q = quarantined_response("run", "boom");
        assert!(q.get("error").and_then(Json::as_str).unwrap().contains("`run`"));
        assert_eq!(
            shutting_down_response().get("shutting_down").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn malformed_frame_is_invalid_data() {
        let buf = b"{nope\n".to_vec();
        let mut r = std::io::BufReader::new(&buf[..]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
