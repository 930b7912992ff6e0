//! The TCP front end: accept loop, connection threads, dispatch.

use crate::json::Json;
use crate::metrics::Metrics;
use crate::pool::{Job, Pool, PoolHandle, Submit};
use crate::protocol::{
    busy_response, err_response, ok_response, read_frame, rejected_admission_response,
    shutting_down_response, write_frame, JobEnvelope, Request,
};
use crate::state::{ServeConfig, ServeState};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xtalk_budget::CancelToken;

/// A running job server.
///
/// ```no_run
/// use xtalk_serve::{Client, ServeConfig, Server};
/// let mut config = ServeConfig::default();
/// config.addr = "127.0.0.1:0".to_string(); // ephemeral port
/// let server = Server::start(config).unwrap();
/// let mut client = Client::connect(server.local_addr()).unwrap();
/// assert!(client.ping().unwrap());
/// client.shutdown().unwrap();
/// println!("{}", server.join());
/// ```
pub struct Server {
    state: Arc<ServeState>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    pool: Pool,
}

impl Server {
    /// Binds the configured address, spawns the worker pool and the
    /// accept loop, and returns immediately.
    pub fn start(mut config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // Rewrite to the bound address so ephemeral ports (":0") resolve
        // everywhere the config is consulted (e.g. the shutdown poke).
        config.addr = local_addr.to_string();
        let workers = config.effective_workers();
        let queue_cap = config.queue_cap;
        if config.profile {
            xtalk_obs::set_enabled(true);
        }
        let state = ServeState::new(config);
        let pool = Pool::new(workers, queue_cap, state.clone());
        let acceptor = {
            let state = state.clone();
            let handle = pool.handle();
            std::thread::Builder::new()
                .name("xtalk-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &state, &handle))?
        };
        Ok(Server { state, local_addr, acceptor, pool })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared state (metrics, cache, devices).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Requests shutdown from this process (equivalent to a client
    /// sending `{"type":"shutdown"}`).
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        poke(self.local_addr);
    }

    /// Waits for the accept loop to exit (after a shutdown request),
    /// drains the worker pool, and returns the metrics summary.
    pub fn join(self) -> String {
        let _ = self.acceptor.join();
        self.pool.shutdown();
        self.state.metrics.summary()
    }
}

/// Wakes a listener blocked in `accept` by connecting and hanging up.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServeState>, pool: &PoolHandle) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        Metrics::inc(&state.metrics.connections);
        let state = state.clone();
        let pool = pool.clone();
        let _ = std::thread::Builder::new()
            .name("xtalk-conn".to_string())
            .spawn(move || {
                let peer = stream.peer_addr().ok();
                if let Err(e) = serve_connection(stream, &state, &pool) {
                    // Connection errors are per-client noise, not server
                    // failures; record and move on.
                    let _ = (peer, e);
                }
            });
    }
}

fn serve_connection(
    stream: TcpStream,
    state: &Arc<ServeState>,
    pool: &PoolHandle,
) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(None) => return Ok(()), // clean EOF
            Ok(Some(v)) => v,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Framing survives a bad line: report and keep serving.
                Metrics::inc(&state.metrics.bad_requests);
                write_frame(&mut writer, &err_response(format!("bad request: {e}")))?;
                continue;
            }
            Err(e) => return Err(e),
        };
        Metrics::inc(&state.metrics.requests);
        let request = match Request::parse(&frame) {
            Ok(r) => r,
            Err(msg) => {
                Metrics::inc(&state.metrics.bad_requests);
                write_frame(&mut writer, &err_response(msg))?;
                continue;
            }
        };
        let envelope = match JobEnvelope::parse(&frame) {
            Ok(e) => e,
            Err(msg) => {
                Metrics::inc(&state.metrics.bad_requests);
                write_frame(&mut writer, &err_response(msg))?;
                continue;
            }
        };
        let response = dispatch(state, pool, request, envelope);
        write_frame(&mut writer, &response)?;
    }
}

/// Routes one request: light ones inline, heavy ones through the pool
/// with backpressure, admission control for deadline-bearing requests,
/// and a reply timeout.
fn dispatch(
    state: &Arc<ServeState>,
    pool: &PoolHandle,
    request: Request,
    envelope: JobEnvelope,
) -> Json {
    if !request.is_heavy() {
        return match request {
            Request::Ping => ok_response([("pong", true.into())]),
            Request::Cancel { job } => {
                let cancelled = state.cancel_job(&job);
                ok_response([
                    ("job", Json::Str(job)),
                    ("cancelled", cancelled.into()),
                ])
            }
            Request::Stats => {
                let mut snapshot = state.metrics.snapshot();
                if let Json::Obj(pairs) = &mut snapshot {
                    pairs.insert(0, ("ok".to_string(), Json::Bool(true)));
                    pairs.push(("epoch".to_string(), state.epoch().into()));
                    pairs.push(("cache_entries".to_string(), state.cache.len().into()));
                    if xtalk_obs::enabled() {
                        // Round-trip through our own parser: the obs JSON
                        // export is stable and line-oriented by design.
                        if let Ok(profile) = Json::parse(&xtalk_obs::snapshot().to_json()) {
                            pairs.push(("profile".to_string(), profile));
                        }
                    }
                }
                snapshot
            }
            Request::AdvanceDay => {
                let epoch = state.advance_day();
                ok_response([("epoch", epoch.into())])
            }
            Request::Shutdown => {
                state.shutdown.store(true, Ordering::SeqCst);
                poke(state_local_addr(state));
                ok_response([("stopping", true.into())])
            }
            heavy => err_response(format!("`{}` misclassified as light", heavy.kind())),
        };
    }

    // Admission control: a request whose budget is already smaller than
    // the queue's observed wait can only come back expired — refuse it up
    // front (retryable) instead of wasting a worker on it.
    let arrival = Instant::now();
    if let Some(deadline_ms) = envelope.deadline_ms {
        let wait_p90_ms = state.metrics.queue_wait_p90_ms();
        if wait_p90_ms > deadline_ms {
            Metrics::inc(&state.metrics.rejected_admission);
            xtalk_obs::counter!("serve.admission.rejected");
            return rejected_admission_response(deadline_ms, wait_p90_ms);
        }
    }
    let deadline = envelope.deadline_ms.map(|ms| arrival + Duration::from_millis(ms));
    // Register the cancel label before the job can start: a `cancel` must
    // be able to reach a job that is still queued.
    let cancel = match envelope.job.as_deref() {
        Some(label) => state.register_cancel(label),
        None => CancelToken::new(),
    };

    let (reply_tx, reply_rx) = mpsc::channel();
    // Gauge up *before* submitting: a fast worker may finish (and
    // decrement) before a post-submit increment would land.
    state.metrics.job_enqueued();
    let submitted = pool.try_submit(Job {
        request,
        reply: reply_tx,
        enqueued_at: arrival,
        deadline,
        cancel,
    });
    let response = match submitted {
        Submit::Accepted => match reply_rx.recv_timeout(state.config.job_timeout) {
            Ok(response) => response,
            Err(RecvTimeoutError::Timeout) => {
                Metrics::inc(&state.metrics.jobs_timed_out);
                err_response(format!(
                    "job timed out after {:?} (it keeps running; raise the server's job timeout for long jobs)",
                    state.config.job_timeout
                ))
            }
            Err(RecvTimeoutError::Disconnected) => err_response("worker dropped the job"),
        },
        Submit::Full => {
            state.metrics.job_rejected();
            Metrics::inc(&state.metrics.busy_rejections);
            busy_response()
        }
        Submit::ShuttingDown => {
            state.metrics.job_rejected();
            shutting_down_response()
        }
    };
    if let Some(label) = envelope.job.as_deref() {
        state.unregister_cancel(label);
    }
    response
}

/// The server's own listen address, for the shutdown self-poke. The
/// configured string re-resolves to the bound port because ephemeral
/// binds rewrite `config.addr` at startup — see [`ServeState`].
fn state_local_addr(state: &Arc<ServeState>) -> SocketAddr {
    state
        .config
        .addr
        .parse()
        .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0)))
}
