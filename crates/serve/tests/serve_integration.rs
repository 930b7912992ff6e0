//! End-to-end tests of the job service over real TCP sockets.
//!
//! Every test starts its own server on an ephemeral port so tests run in
//! parallel without interference.

use std::sync::{Arc, Barrier};
use std::time::Duration;
use xtalk_serve::json::{obj, Json};
use xtalk_serve::{is_busy, Client, ServeConfig, Server};

const BELL: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n";

fn start(configure: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    };
    configure(&mut config);
    Server::start(config).expect("server binds an ephemeral port")
}

fn counts_map(resp: &Json) -> Vec<(String, u64)> {
    match resp.get("counts") {
        Some(Json::Obj(pairs)) => {
            pairs.iter().map(|(k, v)| (k.clone(), v.as_u64().unwrap())).collect()
        }
        other => panic!("no counts object in {other:?}"),
    }
}

#[test]
fn served_run_matches_direct_execution() {
    let server = start(|_| {});
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client.run_qasm(BELL, "poughkeepsie", "par", 512, 9).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());

    // Reproduce the exact pipeline locally: same device seed (the
    // config default), same preparation, same scheduler, same executor
    // seed, same backend dispatch — the counts must agree bit for bit.
    let device = xtalk_device::Device::poughkeepsie(ServeConfig::default().device_seed);
    let ctx = xtalk_core::SchedulerContext::from_ground_truth(&device);
    let compiler = xtalk_core::Compiler::new(&device, ctx.clone());
    let circuit = xtalk_serve::jobs::prepare_circuit(BELL, &compiler).unwrap();
    let sched = xtalk_core::scheduler_by_name("par", 0.5)
        .unwrap()
        .schedule(&circuit, &ctx)
        .unwrap();
    let cfg = xtalk_sim::ExecutorConfig { shots: 512, seed: 9, ..Default::default() };
    let exec = xtalk_sim::Executor::with_config(&device, cfg);
    let unlimited = xtalk_budget::Budget::unlimited();
    let direct = exec.sample(&exec.program(&sched), 1, &unlimited).counts;

    let served = counts_map(&resp);
    assert_eq!(served.iter().map(|(_, n)| n).sum::<u64>(), direct.shots());
    for (bits, n) in &served {
        let outcome = u64::from_str_radix(bits, 2).unwrap();
        assert_eq!(direct.count(outcome), *n, "mismatch at outcome {bits}");
    }

    client.shutdown().unwrap();
    let summary = server.join();
    assert!(summary.contains("jobs ok"), "summary: {summary}");
}

#[test]
fn concurrent_clients_get_identical_deterministic_results() {
    let server = start(|c| c.workers = 4);
    let addr = server.local_addr();
    let barrier = Arc::new(Barrier::new(3));
    let mut handles = Vec::new();
    for _ in 0..3 {
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            barrier.wait();
            client.run_qasm(BELL, "boeblingen", "xtalk", 256, 21).unwrap()
        }));
    }
    let responses: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for resp in &responses {
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());
        assert_eq!(counts_map(resp), counts_map(&responses[0]), "non-deterministic result");
    }
    // `threads` must not change the counts either.
    let mut client = Client::connect(addr).unwrap();
    let resp = client
        .request(&obj([
            ("type", "run".into()),
            ("qasm", BELL.into()),
            ("device", "boeblingen".into()),
            ("scheduler", "xtalk".into()),
            ("shots", 256u64.into()),
            ("seed", 21u64.into()),
            ("threads", 4u64.into()),
        ]))
        .unwrap();
    assert_eq!(counts_map(&resp), counts_map(&responses[0]));
    server.shutdown();
    server.join();
}

#[test]
fn full_queue_sheds_load_and_recovers() {
    let server = start(|c| {
        c.workers = 1;
        c.queue_cap = 1;
    });
    let addr = server.local_addr();
    let barrier = Arc::new(Barrier::new(4));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            barrier.wait();
            client.request(&obj([("type", "sleep".into()), ("ms", 600u64.into())])).unwrap()
        }));
    }
    let responses: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let busy = responses.iter().filter(|r| is_busy(r)).count();
    let ok = responses
        .iter()
        .filter(|r| r.get("ok").and_then(Json::as_bool) == Some(true))
        .count();
    assert!(busy >= 1, "no request was shed: {responses:?}");
    assert!(ok >= 1, "no request got through: {responses:?}");
    assert_eq!(busy + ok, 4);

    // After the backlog drains the server accepts work again and the
    // stats expose the shed requests.
    let mut client = Client::connect(addr).unwrap();
    let resp = client.request(&obj([("type", "sleep".into()), ("ms", 1u64.into())])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let stats = client.stats().unwrap();
    assert!(stats.get("busy_rejections").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(
        stats.get("busy_rejections").and_then(Json::as_u64).unwrap() as usize,
        busy
    );
    server.shutdown();
    let summary = server.join();
    assert!(summary.contains("shed"), "summary: {summary}");
}

#[test]
fn characterization_cache_hits_and_drift_invalidation() {
    let server = start(|_| {});
    let mut client = Client::connect(server.local_addr()).unwrap();
    let schedule_req = obj([
        ("type", "schedule".into()),
        ("qasm", BELL.into()),
        ("device", "johannesburg".into()),
        ("scheduler", "xtalk".into()),
        ("policy", "truth".into()),
        ("seed", 5u64.into()),
    ]);

    let first = client.request(&schedule_req).unwrap();
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true), "{}", first.dump());
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));

    let second = client.request(&schedule_req).unwrap();
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        first.get("makespan_ns").and_then(Json::as_u64),
        second.get("makespan_ns").and_then(Json::as_u64)
    );

    let stats = client.stats().unwrap();
    assert!(stats.get("cache_hits").and_then(Json::as_u64).unwrap() >= 1);
    assert!(stats.get("cache_misses").and_then(Json::as_u64).unwrap() >= 1);

    // A new calibration day drifts the device and invalidates the cache.
    let epoch = client.advance_day().unwrap();
    assert_eq!(epoch, 1);
    let third = client.request(&schedule_req).unwrap();
    assert_eq!(third.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(third.get("epoch").and_then(Json::as_u64), Some(1));

    server.shutdown();
    server.join();
}

/// The job timeout is every job's deadline: a job without `deadline_ms`
/// that outlives it answers a flagged partial and frees its worker, so a
/// follow-up on the same single worker runs at once.
#[test]
fn slow_jobs_stop_at_the_job_timeout_and_free_the_worker() {
    let server = start(|c| {
        c.workers = 1;
        c.job_timeout = Duration::from_millis(100);
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp =
        client.request(&obj([("type", "sleep".into()), ("ms", 800u64.into())])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());
    assert_eq!(resp.get("budget_exhausted").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("budget_reason").and_then(Json::as_str), Some("deadline"));
    let slept = resp.get("slept_ms").and_then(Json::as_u64).unwrap();
    assert!(slept < 800, "slept {slept} ms past a 100 ms job timeout");

    // The only worker is free again: a heavy follow-up starts within its
    // own 100 ms deadline and completes in full.
    let follow_up =
        client.request(&obj([("type", "sleep".into()), ("ms", 1u64.into())])).unwrap();
    assert_eq!(follow_up.get("ok").and_then(Json::as_bool), Some(true), "{}", follow_up.dump());
    assert_eq!(follow_up.get("budget_exhausted"), None, "{}", follow_up.dump());

    // Each job is counted once.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("jobs_ok").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("partial_results").and_then(Json::as_u64), Some(1));
    server.shutdown();
    server.join();
}

#[test]
fn malformed_lines_do_not_break_framing() {
    use std::io::{BufRead, BufReader, Write};
    let server = start(|_| {});
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(b"{this is not json\n{\"type\":\"ping\"}\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let err = Json::parse(line.trim()).unwrap();
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
    line.clear();
    reader.read_line(&mut line).unwrap();
    let pong = Json::parse(line.trim()).unwrap();
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
    server.join();
}

#[test]
fn unknown_device_and_scheduler_are_reported() {
    let server = start(|_| {});
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client.run_qasm(BELL, "narnia", "par", 16, 1).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert!(resp.get("error").and_then(Json::as_str).unwrap().contains("unknown device"));
    let resp = client.run_qasm(BELL, "poughkeepsie", "warp", 16, 1).unwrap();
    assert!(resp.get("error").and_then(Json::as_str).unwrap().contains("unknown scheduler"));
    server.shutdown();
    server.join();
}

/// An unknown policy is a bad request: answered before any
/// characterization, so neither the ladder nor a worker sees it.
#[test]
fn unknown_scheduler_is_a_bad_request() {
    // A measured policy would cost a characterization build: the name is
    // rejected before it starts.
    let server = start(|_| {});
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client
        .request(&obj([
            ("type", "schedule".into()),
            ("qasm", BELL.into()),
            ("scheduler", "warp".into()),
            ("policy", "onehop".into()),
        ]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(resp.get("error").and_then(Json::as_str), Some("unknown scheduler `warp`"));
    let stats = client.stats().unwrap();
    for (counter, expected) in [("bad_requests", 1), ("cache_misses", 0), ("jobs_failed", 0)] {
        assert_eq!(stats.get(counter).and_then(Json::as_u64), Some(expected), "{counter}");
    }
    server.shutdown();
    server.join();
}

#[test]
fn unknown_policy_is_a_bad_request() {
    let server = start(|_| {});
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client
        .request(&obj([
            ("type", "schedule".into()),
            ("qasm", BELL.into()),
            ("policy", "psychic".into()),
        ]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(resp.get("error").and_then(Json::as_str), Some("unknown policy `psychic`"));
    let stats = client.stats().unwrap();
    let counters = [
        ("bad_requests", 1),
        ("jobs_failed", 0),
        ("charac_failures", 0),
        ("degraded_independent", 0),
    ];
    for (counter, expected) in counters {
        assert_eq!(stats.get(counter).and_then(Json::as_u64), Some(expected), "{counter}");
    }
    server.shutdown();
    server.join();
}
