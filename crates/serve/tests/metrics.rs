//! Telemetry integration tests: the ledger balances across mixed job
//! outcomes (histogram counts == jobs admitted == recorder finished +
//! run-stage failures), gauges drain back to zero and end-to-end
//! quantiles agree with client-measured latency, concurrent scrapes
//! are well-formed and monotone, the Prometheus and Chrome renderings
//! are reachable through the protocol, run responses carry placement
//! metadata, and the TCP accept loop counts its wakeups.

use futhark::DeviceProfile;
use futhark_serve::daemon::serve_tcp;
use futhark_serve::metrics::COUNTER_KEYS;
use futhark_serve::{Daemon, DaemonConfig};
use futhark_trace::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const MAP_SRC: &str = "fun main (n: i64) (xs: [n]i64): [n]i64 =\n\
                       map (\\(x: i64) -> if x % 3 == 0 then x * 2 else x - 1) xs";
const SCAN_SRC: &str = "fun main (n: i64) (xs: [n]i64): i64 =\n\
                        let a = map (\\x -> x * 3 + 1) xs\n\
                        let b = scan (+) 0 a\n\
                        in reduce (+) 0 b";
const REPL_SRC: &str = "fun main (n: i64): [n]i64 = replicate n 7";
const OOB_SRC: &str = "fun main (n: i64) (xs: [n]i64): i64 = xs[n]";

fn daemon(devices: usize) -> Daemon {
    Daemon::new(DaemonConfig {
        devices: (0..devices)
            .map(|i| {
                let mut d = DeviceProfile::gtx780();
                d.name = format!("gtx780#{i}");
                d
            })
            .collect(),
        workers: devices.max(2),
        cache_capacity: 32,
        ..DaemonConfig::default()
    })
}

fn quote(s: &str) -> String {
    Json::Str(s.to_string()).render()
}

fn run_line(id: &str, source: &str, n: i64, with_array: bool) -> String {
    let args = if with_array {
        let xs: Vec<String> = (0..n).map(|i| (i * 7 % 1001).to_string()).collect();
        format!(
            r#"[{{"i64":{n}}},{{"array":{{"elem":"i64","shape":[{n}],"data":[{}]}}}}]"#,
            xs.join(",")
        )
    } else {
        format!(r#"[{{"i64":{n}}}]"#)
    };
    format!(
        r#"{{"op":"run","id":"{id}","source":{},"args":{args}}}"#,
        quote(source)
    )
}

/// Runs the tests of this file one at a time: the client/daemon latency
/// comparison in [`gauges_return_to_zero_after_drain`] must not share
/// the host's cores with another test's threads, which would preempt a
/// client between the daemon's end-to-end span and the client's clock.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that failed while holding the guard leaves nothing to repair.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn parse(resp: &str) -> Json {
    Json::parse(resp).unwrap_or_else(|e| panic!("bad response JSON {resp:?}: {e}"))
}

/// Scrapes the registry through the protocol and returns the body.
fn scrape(d: &Daemon) -> Json {
    let resp = parse(&d.handle_line(r#"{"op":"metrics","id":"m","tail":512}"#));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    resp.get("metrics").expect("metrics body").clone()
}

fn counter(m: &Json, key: &str) -> u64 {
    m.get("counters")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counter {key} missing"))
}

fn hist_count(m: &Json, name: &str) -> u64 {
    m.get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("histogram {name} missing"))
}

fn recorder_total(m: &Json, kind: &str) -> u64 {
    m.get("recorder")
        .and_then(|r| r.get("totals"))
        .and_then(|t| t.get(kind))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Mixed outcomes — successes (with a cache hit), a compile error, an
/// admission rejection, and a runtime fault — and the ledger balances:
/// every admitted job is observed exactly once by each latency
/// histogram, and recorder totals agree with the counters.
#[test]
fn ledger_balances_across_mixed_outcomes() {
    let _serial = serial();
    let d = daemon(1);
    let ok = |resp: &Json| resp.get("status").and_then(Json::as_str) == Some("ok");

    assert!(ok(&parse(
        &d.handle_line(&run_line("g1", MAP_SRC, 32, true))
    )));
    assert!(ok(&parse(
        &d.handle_line(&run_line("g2", MAP_SRC, 32, true))
    ))); // cache hit
    assert!(ok(&parse(
        &d.handle_line(&run_line("g3", SCAN_SRC, 32, true))
    )));
    let bad = format!(
        r#"{{"op":"run","id":"c","source":{},"args":[]}}"#,
        quote("fun main (x: i64): i64 = y")
    );
    assert!(!ok(&parse(&d.handle_line(&bad)))); // compile error
    assert!(!ok(&parse(&d.handle_line(&run_line(
        "r",
        REPL_SRC,
        1 << 30,
        false
    ))))); // rejected
    assert!(!ok(&parse(
        &d.handle_line(&run_line("o", OOB_SRC, 4, true))
    ))); // run fault

    let m = scrape(&d);
    assert_eq!(counter(&m, "jobs.received"), 6);
    assert_eq!(counter(&m, "jobs.admitted"), 4);
    assert_eq!(counter(&m, "jobs.completed"), 3);
    assert_eq!(counter(&m, "jobs.rejected"), 1);
    assert_eq!(counter(&m, "jobs.failed"), 2);
    assert_eq!(counter(&m, "jobs.failed.compile"), 1);
    assert_eq!(counter(&m, "jobs.failed.run"), 1);

    // Histogram ledger: one observation per admitted job, whatever the
    // outcome; the compile histogram sees every successful compile (a
    // failed compile is a cache miss with nothing to time).
    for h in ["queue_wait_us", "execute_us", "e2e_us"] {
        assert_eq!(hist_count(&m, h), 4, "{h}");
    }
    assert_eq!(
        hist_count(&m, "compile_us"),
        counter(&m, "cache.misses") - counter(&m, "jobs.failed.compile")
    );

    // Recorder totals agree with the counters.
    assert_eq!(recorder_total(&m, "received"), 6);
    assert_eq!(recorder_total(&m, "admitted"), 4);
    assert_eq!(recorder_total(&m, "started"), 4);
    assert_eq!(recorder_total(&m, "finished"), 3);
    assert_eq!(recorder_total(&m, "rejected"), 1);
    assert_eq!(recorder_total(&m, "failed"), 2);
    // finished + run-stage failures == admitted (compile failures never
    // reach admission).
    assert_eq!(
        recorder_total(&m, "finished") + recorder_total(&m, "failed")
            - counter(&m, "jobs.failed.compile"),
        counter(&m, "jobs.admitted")
    );

    // The tail carries the full lifecycle of the last successful job.
    let events = m
        .get("recorder")
        .and_then(|r| r.get("events"))
        .and_then(Json::as_arr)
        .expect("recorder events");
    let g3: Vec<&str> = events
        .iter()
        .filter(|e| e.get("job").and_then(Json::as_str) == Some("g3"))
        .map(|e| e.get("event").and_then(Json::as_str).expect("event kind"))
        .collect();
    assert_eq!(g3, vec!["received", "admitted", "started", "finished"]);
    let fin = events
        .iter()
        .find(|e| {
            e.get("job").and_then(Json::as_str) == Some("g3")
                && e.get("event").and_then(Json::as_str) == Some("finished")
        })
        .expect("finished event");
    assert!(fin
        .get("predicted_peak_bytes")
        .and_then(Json::as_u64)
        .is_some());
    assert!(fin
        .get("measured_peak_bytes")
        .and_then(Json::as_u64)
        .is_some());
}

/// After a concurrent burst drains, every point-in-time gauge is back to
/// zero and per-device busy flags are down; device utilization is a
/// fraction of uptime; and the daemon's end-to-end p50 and p99 agree
/// with the client-measured ones.
#[test]
fn gauges_return_to_zero_after_drain() {
    let _serial = serial();
    let d = daemon(2);
    // No more clients than cores (at least two, at most four): a client
    // waiting for a core between the daemon's end-to-end span and its own
    // clock would make the comparison below measure the scheduler. (Four
    // clients on a two-core host failed about one run in two hundred.)
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut client_ms = Vec::new();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..cores.clamp(2, 4))
            .map(|i| {
                let d = d.clone();
                scope.spawn(move || {
                    (0..3)
                        .map(|j| {
                            let line = run_line(&format!("t{i}-{j}"), MAP_SRC, 64, true);
                            // The clock covers the call only.
                            let t0 = Instant::now();
                            let out = d.handle_line(&line);
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            let resp = parse(&out);
                            assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
                            ms
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        for c in clients {
            client_ms.extend(c.join().expect("client thread"));
        }
    });
    let m = scrape(&d);
    let gauges = m.get("gauges").expect("gauges");
    for g in ["inflight", "queue_depth", "devices_busy"] {
        assert_eq!(
            gauges.get(g).and_then(Json::as_u64),
            Some(0),
            "{g} after drain"
        );
    }
    assert!(
        gauges
            .get("uptime_us")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
    assert!(
        gauges
            .get("cache_artifacts")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1
    );
    let devices = m.get("devices").and_then(Json::as_arr).expect("devices");
    assert_eq!(devices.len(), 2);
    let mut device_jobs = 0;
    for dev in devices {
        assert_eq!(dev.get("busy"), Some(&Json::Bool(false)));
        let u = dev
            .get("utilization")
            .and_then(Json::as_f64)
            .expect("utilization");
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
        device_jobs += dev.get("jobs").and_then(Json::as_u64).expect("device jobs");
    }
    assert_eq!(device_jobs, counter(&m, "jobs.admitted"));

    // A quantile estimate lies in the bucket of the true order statistic,
    // so within 2x of it, and the daemon's end-to-end span nests inside
    // the client's call: the two agree within 2x both ways, plus 1 ms
    // for the client-side parse and render around the span.
    assert_eq!(hist_count(&m, "e2e_us"), client_ms.len() as u64);
    client_ms.sort_by(f64::total_cmp);
    let e2e = m
        .get("histograms")
        .and_then(|h| h.get("e2e_us"))
        .expect("e2e_us");
    for (q, key) in [(0.50, "p50_us"), (0.99, "p99_us")] {
        // The client's order statistic at the histogram's rank ceil(q·n).
        let client = client_ms[(q * client_ms.len() as f64).ceil() as usize - 1];
        let daemon = e2e.get(key).and_then(Json::as_f64).expect(key) / 1e3;
        assert!(
            daemon <= 2.0 * client + 1.0,
            "daemon {key} {daemon:.3} ms exceeds 2x client {client:.3} ms + 1 ms"
        );
        assert!(
            client <= 2.0 * daemon + 1.0,
            "client {key} {client:.3} ms exceeds 2x daemon {daemon:.3} ms + 1 ms"
        );
    }
}

/// Sixteen clients scraping while jobs run: every scrape parses, carries
/// the full declared counter set, and each client's consecutive scrapes
/// are monotone (counters never go backwards, admitted never trails the
/// end-to-end histogram).
#[test]
fn concurrent_scrapes_are_well_formed_and_monotone() {
    let _serial = serial();
    let d = daemon(2);
    std::thread::scope(|scope| {
        for i in 0..4 {
            let d = d.clone();
            scope.spawn(move || {
                for j in 0..6 {
                    d.handle_line(&run_line(&format!("w{i}-{j}"), MAP_SRC, 48, true));
                }
            });
        }
        for _ in 0..16 {
            let d = d.clone();
            scope.spawn(move || {
                let mut prev_received = 0u64;
                let mut prev_e2e = 0u64;
                for _ in 0..5 {
                    let m = scrape(&d);
                    for key in COUNTER_KEYS {
                        assert!(
                            m.get("counters").and_then(|c| c.get(key)).is_some(),
                            "scrape missing declared counter {key}"
                        );
                    }
                    let received = counter(&m, "jobs.received");
                    let e2e = hist_count(&m, "e2e_us");
                    assert!(received >= prev_received, "jobs.received went backwards");
                    assert!(e2e >= prev_e2e, "e2e count went backwards");
                    assert!(
                        counter(&m, "jobs.admitted") >= e2e,
                        "admitted ({}) behind e2e observations ({e2e})",
                        counter(&m, "jobs.admitted")
                    );
                    prev_received = received;
                    prev_e2e = e2e;
                }
            });
        }
    });
    // Final state: everything drained and balanced.
    let m = scrape(&d);
    assert_eq!(counter(&m, "jobs.completed"), 24);
    assert_eq!(hist_count(&m, "e2e_us"), 24);
}

/// The Prometheus rendering is reachable through the protocol and has
/// the text-format shape: typed families, zero-valued counters present,
/// cumulative buckets ending at `+Inf`.
#[test]
fn prometheus_rendering_through_the_protocol() {
    let _serial = serial();
    let d = daemon(1);
    parse(&d.handle_line(&run_line("a", MAP_SRC, 32, true)));
    let resp = parse(&d.handle_line(r#"{"op":"metrics","id":"p","format":"prometheus"}"#));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    let text = resp
        .get("metrics")
        .and_then(|m| m.get("text"))
        .and_then(Json::as_str)
        .expect("prometheus text body");
    assert!(text.contains("# TYPE futharkd_jobs_received_total counter"));
    assert!(text.contains("futharkd_jobs_received_total 1"));
    assert!(
        text.contains("futharkd_jobs_rejected_total 0"),
        "zeros rendered"
    );
    assert!(text.contains("# TYPE futharkd_e2e_us histogram"));
    assert!(text.contains("futharkd_e2e_us_bucket{le=\"+Inf\"} 1"));
    assert!(text.contains("futharkd_e2e_us_count 1"));
    assert!(text.contains("futharkd_device_jobs_total{device=\"gtx780#0\"} 1"));
    // Counters are monotone between scrapes: a second scrape renders the
    // same counter lines (only time-derived gauges may move).
    let again = parse(&d.handle_line(r#"{"op":"metrics","id":"p2","format":"prometheus"}"#));
    let text2 = again
        .get("metrics")
        .and_then(|m| m.get("text"))
        .and_then(Json::as_str)
        .expect("prometheus text body");
    for line in text.lines().filter(|l| l.contains("_total")) {
        assert!(text2.contains(line), "counter line changed: {line}");
    }
}

/// The Chrome export lays finished jobs on named device tracks with a
/// queue track and queue-depth counter samples.
#[test]
fn chrome_timeline_through_the_protocol() {
    let _serial = serial();
    let d = daemon(2);
    parse(&d.handle_line(&run_line("a", MAP_SRC, 32, true)));
    parse(&d.handle_line(&run_line("b", SCAN_SRC, 32, true)));
    let resp = parse(&d.handle_line(r#"{"op":"metrics","id":"c","format":"chrome"}"#));
    let events = resp
        .get("metrics")
        .and_then(|m| m.get("traceEvents"))
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
        })
        .collect();
    assert!(names.contains(&"queue"), "queue track named, got {names:?}");
    assert!(names.contains(&"device gtx780#0"));
    assert!(names.contains(&"device gtx780#1"));
    let slices = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("cat").and_then(Json::as_str) == Some("job")
        })
        .count();
    assert_eq!(slices, 2, "one execution slice per finished job");
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
}

/// Run responses report where the job landed and how deep the device
/// queue was at admission.
#[test]
fn run_response_carries_placement_metadata() {
    let _serial = serial();
    let d = daemon(1);
    let resp = parse(&d.handle_line(&run_line("a", MAP_SRC, 32, true)));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(resp.get("device").and_then(Json::as_str), Some("gtx780#0"));
    assert_eq!(
        resp.get("queue_depth_at_admission").and_then(Json::as_u64),
        Some(0)
    );
}

/// `stats` is derived from the registry but keeps its original key set
/// and values.
#[test]
fn stats_agrees_with_the_registry() {
    let _serial = serial();
    let d = daemon(1);
    parse(&d.handle_line(&run_line("a", MAP_SRC, 32, true)));
    parse(&d.handle_line(&run_line("b", MAP_SRC, 32, true)));
    let stats = parse(&d.handle_line(r#"{"op":"stats","id":"s"}"#));
    let body = stats.get("stats").expect("stats body");
    let m = scrape(&d);
    assert_eq!(
        body.get("jobs_completed").and_then(Json::as_u64),
        Some(counter(&m, "jobs.completed"))
    );
    assert_eq!(
        body.get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64),
        Some(counter(&m, "cache.hits"))
    );
}

/// The TCP accept loop polls at the configured interval and counts its
/// idle wakeups in the registry.
#[test]
fn accept_loop_wakeups_are_counted() {
    let _serial = serial();
    let d = Daemon::new(DaemonConfig {
        devices: vec![DeviceProfile::gtx780()],
        workers: 2,
        cache_capacity: 8,
        accept_poll_ms: 1,
        ..DaemonConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let d = d.clone();
        std::thread::spawn(move || serve_tcp(&d, listener))
    };
    // Let the accept loop spin idle for a few polls before connecting.
    std::thread::sleep(Duration::from_millis(50));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    stream
        .write_all(format!("{}\n", run_line("t", MAP_SRC, 16, true)).as_bytes())
        .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert_eq!(
        parse(&line).get("status").and_then(Json::as_str),
        Some("ok")
    );
    stream
        .write_all(b"{\"op\":\"shutdown\",\"id\":\"z\"}\n")
        .expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    server.join().expect("server thread").expect("serve_tcp");

    assert!(
        d.metrics().get("accept.wakeups") > 0,
        "idle polls must be counted"
    );
}
