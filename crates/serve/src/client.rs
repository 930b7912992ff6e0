//! Blocking client for the job service, with deadlines, reconnects and
//! seeded retry/backoff.
//!
//! # Resilience model
//!
//! A [`Client`] remembers the address it connected to and the I/O
//! timeouts it was given, so it can transparently **reconnect** when the
//! connection drops mid-request. [`Client::request_with_retry`] layers a
//! [`RetryPolicy`] on top:
//!
//! * **retryable responses** (`"retryable": true` — busy, shutting_down,
//!   quarantined, caught worker panics) are retried on the same
//!   connection after a backoff;
//! * **transient I/O errors** (timeouts, resets, broken pipes, refused
//!   connections) trigger a reconnect before the retry;
//! * anything else — fatal responses or unrecoverable I/O errors — is
//!   returned immediately.
//!
//! Backoff uses *decorrelated jitter* (sleep = `uniform(base, prev*3)`
//! capped) driven by a seeded [`xtalk_fault::SplitMix64`], so chaos-test
//! runs replay bit-identically.

use crate::json::{obj, Json};
use crate::protocol::{is_retryable, read_frame, write_frame};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use xtalk_fault::SplitMix64;

/// Retry/backoff parameters for [`Client::request_with_retry`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Lower bound of every backoff sleep.
    pub base: Duration,
    /// Upper bound of any backoff sleep.
    pub cap: Duration,
    /// Seed for the jitter stream; a fixed seed makes the whole backoff
    /// schedule reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(20),
            cap: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// One connection to a running server. Requests are strictly
/// request/response over the same connection, so a client is cheap and a
/// caller wanting concurrency opens several.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Resolved peer address, kept for reconnects.
    addr: SocketAddr,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let addr = resolve(addr)?;
        let stream = TcpStream::connect(addr)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            addr,
            read_timeout: None,
            write_timeout: None,
        })
    }

    /// Connects with a deadline governing the connect itself and both
    /// I/O directions — a client that can never hang on a dead server.
    pub fn connect_with_deadline<A: ToSocketAddrs>(addr: A, deadline: Duration) -> io::Result<Client> {
        let addr = resolve(addr)?;
        let stream = TcpStream::connect_timeout(&addr, deadline)?;
        let mut client = Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            addr,
            read_timeout: None,
            write_timeout: None,
        };
        client.set_io_timeouts(Some(deadline), Some(deadline))?;
        Ok(client)
    }

    /// The peer address this client (re)connects to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bounds how long [`Client::request`] waits for a response
    /// (`None` = forever).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        self.writer.set_read_timeout(timeout)
    }

    /// Sets both socket timeouts; they survive reconnects.
    pub fn set_io_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        self.read_timeout = read;
        self.write_timeout = write;
        self.writer.set_read_timeout(read)?;
        self.writer.set_write_timeout(write)
    }

    /// Drops the current connection and dials the remembered address
    /// again, reapplying the configured timeouts.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(
            &self.addr,
            self.write_timeout.unwrap_or(Duration::from_secs(10)),
        )?;
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        Ok(())
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        write_frame(&mut self.writer, request)?;
        read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"))
    }

    /// Sends a request, retrying retryable failures with seeded
    /// decorrelated-jitter backoff and reconnecting across transient I/O
    /// errors. Returns the last response when attempts run out (so the
    /// caller still sees the `busy`/`shutting_down`/`quarantined` flag),
    /// or the last error if the final attempt failed at the I/O layer.
    pub fn request_with_retry(&mut self, request: &Json, policy: &RetryPolicy) -> io::Result<Json> {
        let attempts = policy.max_attempts.max(1);
        let mut jitter = SplitMix64::new(policy.seed);
        let mut prev_sleep = policy.base;
        let mut backoff = |prev: Duration| -> Duration {
            // Decorrelated jitter: uniform in [base, prev*3], capped.
            let lo = policy.base.as_millis() as u64;
            let hi = (prev.as_millis() as u64).saturating_mul(3).max(lo + 1);
            let span = hi - lo;
            let sleep = Duration::from_millis(lo + (jitter.next_u64() % span));
            sleep.min(policy.cap)
        };
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                prev_sleep = backoff(prev_sleep);
                std::thread::sleep(prev_sleep);
            }
            match self.request(request) {
                Ok(resp) => {
                    if !is_retryable(&resp) || attempt + 1 == attempts {
                        return Ok(resp);
                    }
                    // Retryable response: same connection, after backoff.
                }
                Err(e) if transient_io(&e) => {
                    // The connection may be wedged or gone; redial. A
                    // failed reconnect is itself retried next attempt.
                    last_err = Some(e);
                    if let Err(re) = self.reconnect() {
                        last_err = Some(re);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "retries exhausted without a response")
        }))
    }

    /// Liveness probe; `Ok(true)` if the server answered the ping.
    pub fn ping(&mut self) -> io::Result<bool> {
        let resp = self.request(&obj([("type", "ping".into())]))?;
        Ok(resp.get("ok").and_then(Json::as_bool).unwrap_or(false))
    }

    /// Fetches the metrics snapshot.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(&obj([("type", "stats".into())]))
    }

    /// Advances the simulated calibration day, returning the new epoch.
    pub fn advance_day(&mut self) -> io::Result<u64> {
        let resp = self.request(&obj([("type", "advance_day".into())]))?;
        resp.get("epoch")
            .and_then(Json::as_u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no epoch in response"))
    }

    /// Asks the server to stop accepting connections.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request(&obj([("type", "shutdown".into())]))
    }

    /// Submits a `run` job for a QASM source with the given options.
    pub fn run_qasm(
        &mut self,
        qasm: &str,
        device: &str,
        scheduler: &str,
        shots: u64,
        seed: u64,
    ) -> io::Result<Json> {
        self.request(&obj([
            ("type", "run".into()),
            ("qasm", qasm.into()),
            ("device", device.into()),
            ("scheduler", scheduler.into()),
            ("shots", shots.into()),
            ("seed", seed.into()),
        ]))
    }

    /// Cancels the in-flight job submitted under `label`, tripping the
    /// cancel token its budget polls. `Ok(true)` when a queued or
    /// running job was found; `Ok(false)` means it already finished (or
    /// was never submitted) — cancels race completions by nature.
    pub fn cancel(&mut self, label: &str) -> io::Result<bool> {
        let resp =
            self.request(&obj([("type", "cancel".into()), ("job", label.into())]))?;
        Ok(resp.get("cancelled").and_then(Json::as_bool).unwrap_or(false))
    }
}

fn resolve<A: ToSocketAddrs>(addr: A) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing"))
}

/// I/O error kinds a reconnect-and-retry can plausibly clear. Everything
/// else (permission, unsupported, invalid input...) is fatal.
fn transient_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

/// `true` if a response is the backpressure (queue-full) rejection.
pub fn is_busy(resp: &Json) -> bool {
    resp.get("busy").and_then(Json::as_bool).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_reproducible_and_bounded() {
        let policy = RetryPolicy { seed: 42, ..RetryPolicy::default() };
        let schedule = |p: &RetryPolicy| -> Vec<u64> {
            let mut jitter = SplitMix64::new(p.seed);
            let mut prev = p.base;
            (0..6)
                .map(|_| {
                    let lo = p.base.as_millis() as u64;
                    let hi = (prev.as_millis() as u64).saturating_mul(3).max(lo + 1);
                    let sleep = Duration::from_millis(lo + (jitter.next_u64() % (hi - lo)));
                    prev = sleep.min(p.cap);
                    prev.as_millis() as u64
                })
                .collect()
        };
        let a = schedule(&policy);
        let b = schedule(&policy);
        assert_eq!(a, b, "same seed must give the same backoff schedule");
        for &ms in &a {
            assert!(ms >= policy.base.as_millis() as u64);
            assert!(ms <= policy.cap.as_millis() as u64);
        }
        let c = schedule(&RetryPolicy { seed: 43, ..policy });
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn transient_kinds_are_classified() {
        assert!(transient_io(&io::Error::new(io::ErrorKind::ConnectionReset, "x")));
        assert!(transient_io(&io::Error::new(io::ErrorKind::TimedOut, "x")));
        assert!(transient_io(&io::Error::new(io::ErrorKind::UnexpectedEof, "x")));
        assert!(!transient_io(&io::Error::new(io::ErrorKind::InvalidData, "x")));
        assert!(!transient_io(&io::Error::new(io::ErrorKind::PermissionDenied, "x")));
    }
}
