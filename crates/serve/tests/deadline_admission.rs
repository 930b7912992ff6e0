//! Admission control for requests without `deadline_ms`: their deadline
//! is the server's job timeout, so a queue whose observed wait already
//! exceeds it refuses them up front, and a larger `deadline_ms` is capped
//! at it.
//!
//! The queue is saturated through a `sim.batch` delay fault, so the wait
//! it builds does not depend on how fast the host simulates. The fault
//! plan is process-global, which is why this test has a binary of its
//! own.

use std::time::Duration;
use xtalk_serve::json::{obj, Json};
use xtalk_serve::{Client, ServeConfig, Server};

const BELL: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n";

fn run_request() -> Json {
    obj([
        ("type", "run".into()),
        ("qasm", BELL.into()),
        ("scheduler", "par".into()),
        ("policy", "truth".into()),
        ("shots", 256u64.into()),
        ("seed", 7u64.into()),
        ("threads", 1u64.into()),
    ])
}

#[test]
fn requests_without_a_deadline_are_refused_past_the_job_timeout() {
    xtalk_fault::install_spec("sim.batch:delay:1.0:300", 1).expect("valid fault spec");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        job_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // Saturate the single worker. The first run starts its first shot
    // batch inside its 100 ms deadline and that batch stalls 300 ms; the
    // runs queued behind it wait that long, then find their deadline
    // gone and answer zero-shot partials without running a batch.
    let runs: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || Client::connect(addr).unwrap().request(&run_request()).unwrap())
        })
        .collect();
    for run in runs {
        let resp = run.join().unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());
        assert_eq!(resp.get("budget_exhausted").and_then(Json::as_bool), Some(true));
    }
    xtalk_fault::clear();
    let mut client = Client::connect(addr).unwrap();
    let p90 = client.stats().unwrap().get("queue_wait_p90_ms").and_then(Json::as_u64).unwrap();
    assert!(p90 > 100, "runs queued behind a 300 ms batch, p90 was {p90} ms");

    // Neither a request without `deadline_ms` nor one whose deadline the
    // job timeout caps gets a worker; both report the capped deadline.
    for deadline_ms in [None, Some(60_000u64)] {
        let mut req = obj([("type", "sleep".into()), ("ms", 1u64.into())]);
        if let (Json::Obj(pairs), Some(ms)) = (&mut req, deadline_ms) {
            pairs.push(("deadline_ms".to_string(), ms.into()));
        }
        let resp = client.request(&req).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            resp.get("rejected_admission").and_then(Json::as_bool),
            Some(true),
            "{deadline_ms:?}: {}",
            resp.dump()
        );
        assert_eq!(resp.get("retryable").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("deadline_ms").and_then(Json::as_u64), Some(100));
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("rejected_admission").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("jobs_ok").and_then(Json::as_u64), Some(4));
    server.shutdown();
    server.join();
}
