//! Integration tests for `futharkd`: the artifact cache is observable
//! through the span list, concurrent mixed-tenant execution is
//! bit-identical to sequential, admission control rejects over-capacity
//! jobs before execution with the prediction attached, an `options`
//! object or more `threads` than the host can run is a protocol error,
//! shutdown drains the queue, the TCP front-end round-trips, and job
//! failures are job errors — never daemon deaths.

use futhark::DeviceProfile;
use futhark_serve::daemon::{serve_lines, serve_tcp};
use futhark_serve::{Daemon, DaemonConfig};
use futhark_trace::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const MAP_SRC: &str = "fun main (n: i64) (xs: [n]i64): [n]i64 =\n\
                       map (\\(x: i64) -> if x % 3 == 0 then x * 2 else x - 1) xs";
const SCAN_SRC: &str = "fun main (n: i64) (xs: [n]i64): i64 =\n\
                        let a = map (\\x -> x * 3 + 1) xs\n\
                        let b = scan (+) 0 a\n\
                        in reduce (+) 0 b";
const REPL_SRC: &str = "fun main (n: i64): [n]i64 = replicate n 7";

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

fn quote(s: &str) -> String {
    Json::Str(s.to_string()).render()
}

fn parse(resp: &str) -> Json {
    Json::parse(resp).unwrap_or_else(|e| panic!("bad response JSON {resp:?}: {e}"))
}

fn span_names(j: &Json) -> Vec<String> {
    j.get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .map(|s| {
            s.get("name")
                .and_then(Json::as_str)
                .expect("span name")
                .to_string()
        })
        .collect()
}

/// Repeat submission of the same source hits the artifact cache: the
/// second response reports `"cache":"hit"` and its span list has no
/// `compile` entry, while the run replays bit for bit: the same outputs,
/// modelled time and measured peak. The hit reuses the kernels its
/// artifact decoded when it was compiled.
#[test]
fn repeat_submission_hits_the_cache_and_skips_compile() {
    let d = daemon(1);
    let first = parse(&d.handle_line(&run_line("a", MAP_SRC, 64, true)));
    let second = parse(&d.handle_line(&run_line("b", MAP_SRC, 64, true)));

    assert_eq!(first.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    assert!(span_names(&first).contains(&"compile".to_string()));

    assert_eq!(second.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
    assert!(
        !span_names(&second).contains(&"compile".to_string()),
        "cache hit must not carry a compile span, got {:?}",
        span_names(&second)
    );
    assert_eq!(first.get("outputs"), second.get("outputs"));
    for field in ["total_us", "measured_peak_bytes"] {
        assert!(first.get(field).is_some(), "a run reports {field}");
        assert_eq!(
            first.get(field),
            second.get(field),
            "{field} differs on the hit"
        );
    }

    let stats = d.stats();
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.jobs_completed, 2);
}

/// `schedule` is the only way to send a compilation schedule: a request
/// carrying an `options` object is a protocol error naming `schedule`,
/// never a run under a configuration the client did not ask for.
#[test]
fn options_object_is_a_protocol_error_naming_schedule() {
    let d = daemon(1);
    let line = format!(
        r#"{{"op":"run","id":"o","source":{},"args":[{{"i64":4}}],"options":{{"fusion":false}}}}"#,
        quote(REPL_SRC)
    );
    let resp = parse(&d.handle_line(&line));
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("o"));
    assert_eq!(resp.get("kind").and_then(Json::as_str), Some("protocol"));
    let message = resp.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(
        message.contains("\"schedule\""),
        "names schedule: {message}"
    );
    assert_eq!(d.stats().cache.misses, 0, "nothing was compiled");
}

/// A request's `threads` is bounded by the host's available parallelism:
/// the bound itself runs, one more is a protocol error naming the bound,
/// and zero is still rejected.
#[test]
fn threads_are_bounded_by_host_parallelism() {
    let d = daemon(1);
    let bound = std::thread::available_parallelism().map_or(1, |n| n.get());
    let line = |id: &str, threads: usize| {
        format!(
            r#"{{"op":"run","id":"{id}","source":{},"args":[{{"i64":4}}],"threads":{threads}}}"#,
            quote(REPL_SRC)
        )
    };
    let ok = parse(&d.handle_line(&line("at", bound)));
    assert_eq!(
        ok.get("status").and_then(Json::as_str),
        Some("ok"),
        "{ok:?}"
    );
    let over = parse(&d.handle_line(&line("over", bound + 1)));
    assert_eq!(over.get("kind").and_then(Json::as_str), Some("protocol"));
    let message = over.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(
        message.contains(&format!("<= {bound}")),
        "names the bound: {message}"
    );
    let zero = parse(&d.handle_line(&line("zero", 0)));
    assert_eq!(zero.get("kind").and_then(Json::as_str), Some("protocol"));
    assert_eq!(d.stats().protocol_errors, 2);
    assert_eq!(d.stats().jobs_completed, 1);
}

/// Schedules are part of the cache key: two schedules for the same
/// source occupy distinct cache entries, an explicit default schedule
/// shares the implicit default's entry, and every schedule computes the
/// same outputs.
#[test]
fn schedules_occupy_distinct_cache_entries() {
    use futhark::Schedule;
    let d = daemon(1);
    let line_with_schedule = |id: &str, sched: &Schedule| {
        let xs: Vec<String> = (0..32).map(|i| (i * 7 % 1001).to_string()).collect();
        format!(
            r#"{{"op":"run","id":"{id}","source":{},"args":[{{"i64":32}},{{"array":{{"elem":"i64","shape":[32],"data":[{}]}}}}],"schedule":{}}}"#,
            quote(MAP_SRC),
            xs.join(","),
            quote(&sched.label())
        )
    };
    let default = Schedule::default();
    let unfused = Schedule {
        fusion_pass: false,
        ..Schedule::default()
    };

    // Implicit default compiles once…
    let implicit = parse(&d.handle_line(&run_line("a", MAP_SRC, 32, true)));
    assert_eq!(implicit.get("cache").and_then(Json::as_str), Some("miss"));
    // …and an explicit default schedule is the *same* artifact: a hit.
    let explicit = parse(&d.handle_line(&line_with_schedule("b", &default)));
    assert_eq!(
        explicit.get("cache").and_then(Json::as_str),
        Some("hit"),
        "explicit default schedule must share the implicit entry"
    );
    // A different schedule for the same source is a different artifact.
    let other = parse(&d.handle_line(&line_with_schedule("c", &unfused)));
    assert_eq!(
        other.get("cache").and_then(Json::as_str),
        Some("miss"),
        "a distinct schedule must occupy a distinct cache entry"
    );
    // …which is itself cached under its own key.
    let again = parse(&d.handle_line(&line_with_schedule("d", &unfused)));
    assert_eq!(again.get("cache").and_then(Json::as_str), Some("hit"));

    // Both entries live side by side and agree on outputs.
    let stats = d.stats();
    assert_eq!(stats.cache.misses, 2);
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(implicit.get("outputs"), other.get("outputs"));
    assert_eq!(other.get("outputs"), again.get("outputs"));

    // A malformed schedule label is a protocol error, not a daemon death.
    let bad = format!(
        r#"{{"op":"run","id":"e","source":{},"args":[{{"i64":4}},{{"array":{{"elem":"i64","shape":[4],"data":[1,2,3,4]}}}}],"schedule":"sched1,bogus"}}"#,
        quote(MAP_SRC)
    );
    let j = parse(&d.handle_line(&bad));
    assert_eq!(j.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("protocol"));
}

/// Concurrent mixed-tenant load produces bit-identical responses to the
/// same jobs run sequentially: no cross-request state (thread count,
/// cache) bleeds between tenants. Jobs naming the engine and jobs leaving
/// it out share one artifact, and its decoded kernels, across four
/// devices; outputs and modelled time must both match. The per-lane
/// engine is not reachable from the wire.
#[test]
fn concurrent_mixed_tenants_match_sequential_bit_for_bit() {
    // Tenant mix: two programs, three sizes, engine named or absent.
    let line = |id: &str, src: &str, n: i64, engine: &str| {
        let xs: Vec<String> = (0..n).map(|i| (i * 7 % 1001).to_string()).collect();
        format!(
            r#"{{"op":"run","id":"{id}","source":{},"args":[{{"i64":{n}}},{{"array":{{"elem":"i64","shape":[{n}],"data":[{}]}}}}]{engine}}}"#,
            quote(src),
            xs.join(",")
        )
    };
    let mut jobs = Vec::new();
    for (p, src) in [("map", MAP_SRC), ("scan", SCAN_SRC)] {
        for n in [16i64, 64, 256] {
            for (label, engine) in [("warp", r#","engine":"warp""#), ("absent", "")] {
                let id = format!("{p}-{n}-{label}");
                jobs.push((id.clone(), line(&id, src, n, engine)));
            }
        }
    }
    assert_eq!(jobs.len(), 12);

    // Sequential reference on a fresh daemon.
    let seq = daemon(1);
    let mut expect = std::collections::BTreeMap::new();
    let replay = |j: &Json| {
        (
            j.get("outputs").expect("outputs").clone(),
            j.get("total_us").expect("total_us").clone(),
        )
    };
    for (id, line) in &jobs {
        let j = parse(&seq.handle_line(line));
        assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"), "{id}");
        expect.insert(id.clone(), replay(&j));
    }

    // Concurrent run on a pool of four devices.
    let conc = daemon(4);
    let got = std::sync::Mutex::new(std::collections::BTreeMap::new());
    std::thread::scope(|scope| {
        for (id, line) in &jobs {
            let conc = conc.clone();
            let (got, replay) = (&got, &replay);
            scope.spawn(move || {
                let j = parse(&conc.handle_line(line));
                assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"), "{id}");
                got.lock()
                    .expect("results lock")
                    .insert(id.clone(), replay(&j));
            });
        }
    });
    let got = got.into_inner().expect("results lock");
    assert_eq!(got.len(), expect.len());
    for (id, out) in &expect {
        assert_eq!(
            got.get(id),
            Some(out),
            "{id}: concurrent outputs or total_us differ from sequential"
        );
    }

    // The retired per-lane engine is a protocol error naming the field.
    let j = parse(&conc.handle_line(&line("lane", MAP_SRC, 16, r#","engine":"lane""#)));
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("protocol"));
    let message = j.get("message").and_then(Json::as_str).expect("message");
    assert!(message.contains("engine"), "{message}");
}

/// A job whose predicted footprint exceeds every device's capacity is
/// rejected at admission — before any device time — with the prediction
/// and the capacity in the structured error.
#[test]
fn over_capacity_jobs_are_rejected_at_admission() {
    let d = daemon(1);
    let n = 1i64 << 30; // 8 GiB of i64s vs the 3 GiB GTX 780 profile
    let resp = parse(&d.handle_line(&run_line("big", REPL_SRC, n, false)));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(resp.get("kind").and_then(Json::as_str), Some("admission"));
    let predicted = resp
        .get("predicted_peak_bytes")
        .and_then(Json::as_u64)
        .expect("admission error carries predicted_peak_bytes");
    let capacity = resp
        .get("capacity")
        .and_then(Json::as_u64)
        .expect("admission error carries capacity");
    assert!(predicted > capacity);
    assert_eq!(capacity, DeviceProfile::gtx780().global_mem_bytes);
    let stats = d.stats();
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.jobs_completed, 0);

    // The same program at an admissible size still runs.
    let ok = parse(&d.handle_line(&run_line("small", REPL_SRC, 64, false)));
    assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
}

/// A private array sized by a request argument stops at the device's
/// capacity: the 32 GB request is a `run` error instead of an aborted
/// daemon, and the requests on either side of it are answered. What it
/// asked for is learned, so its resubmission is rejected at admission.
/// A bool array is charged the 8 bytes an element the host holds, so
/// 3e9 bools (3 GB at one byte, under the 3 GiB device) stop as well.
#[test]
fn private_arrays_sized_by_an_argument_stop_at_device_capacity() {
    let d = Daemon::new(DaemonConfig {
        devices: vec![DeviceProfile::gtx780()],
        workers: 1,
        ..DaemonConfig::default()
    });
    let i64_src = "fun main (n: i64) (k: i64) (xs: [n]i64): [n]i64 =\n\
                   map (\\(x: i64) ->\n\
                     let a = replicate k x\n\
                     let b = loop (acc = a) for j < 2 do (acc with [j] <- j)\n\
                     in b[0] + b[1]) xs";
    let bool_src = "fun main (n: i64) (k: i64) (xs: [n]i64): [n]i64 =\n\
                    map (\\(x: i64) ->\n\
                      let a = replicate k (x > 0)\n\
                      let b = loop (acc = a) for j < 2 do (acc with [j] <- j == 1)\n\
                      in if b[1] then 1 else 0) xs";
    let run = |id: &str, src: &str, k: u64| {
        format!(
            r#"{{"op":"run","id":"{id}","source":{},"args":[{{"i64":4}},{{"i64":{k}}},{{"array":{{"elem":"i64","shape":[4],"data":[1,2,3,4]}}}}]}}"#,
            quote(src)
        )
    };
    let input = [
        run("a", i64_src, 3),
        run("b", i64_src, 4_000_000_000),
        run("c", i64_src, 3),
        run("b-again", i64_src, 4_000_000_000),
        run("d", bool_src, 3),
        run("e", bool_src, 3_000_000_000),
        r#"{"op":"shutdown","id":"z"}"#.to_string(),
    ]
    .join("\n");
    let mut out: Vec<u8> = Vec::new();
    serve_lines(&d, std::io::Cursor::new(input), &mut out).expect("serves");
    let lines: Vec<Json> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(parse)
        .collect();
    let by_id = |id: &str| {
        lines
            .iter()
            .find(|j| j.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}"))
    };
    for id in ["a", "c", "d"] {
        let j = by_id(id);
        assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"), "{id}");
        let data = j
            .get("outputs")
            .and_then(Json::as_arr)
            .and_then(|o| o[0].get("array"))
            .and_then(|a| a.get("data"))
            .and_then(Json::as_arr)
            .expect("array output");
        assert!(data.iter().all(|x| x.as_u64() == Some(1)), "{id}: {data:?}");
    }
    for (id, bytes) in [("b", "32000000000"), ("e", "24000000000")] {
        let j = by_id(id);
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("run"), "{id}");
        let msg = j.get("message").and_then(Json::as_str).expect("message");
        assert!(
            msg.starts_with(&format!("out of device memory: requested {bytes} bytes")),
            "{id}: {msg}"
        );
    }
    let again = by_id("b-again");
    assert_eq!(
        again.get("kind").and_then(Json::as_str),
        Some("admission"),
        "{again:?}"
    );
    let predicted = again
        .get("predicted_peak_bytes")
        .and_then(Json::as_u64)
        .expect("admission error carries predicted_peak_bytes");
    assert!(predicted >= 32_000_000_000, "{predicted}");
}

/// Shutdown drains: jobs accepted before the shutdown complete and get
/// their responses; the acknowledgement arrives only after the queue is
/// empty; later submissions are refused.
#[test]
fn shutdown_drains_queued_jobs_first() {
    // A host loop of several hundred launches: slow enough that all four
    // jobs are still in flight (one running, three queued on the single
    // device) when the shutdown arrives.
    const SLOW_SRC: &str = "fun main (n: i64) (k: i64) (xs: [n]i64): [n]i64 =\n\
                            loop (cur = xs) for i < k do map (\\x -> x * 3 + 1) cur";
    let slow_line = |id: &str| {
        let n = 1024;
        let xs: Vec<String> = (0..n).map(|i| (i % 97).to_string()).collect();
        format!(
            r#"{{"op":"run","id":"{id}","source":{},"args":[{{"i64":{n}}},{{"i64":400}},{{"array":{{"elem":"i64","shape":[{n}],"data":[{}]}}}}]}}"#,
            quote(SLOW_SRC),
            xs.join(",")
        )
    };
    let d = daemon(1); // one device => later jobs genuinely queue
    let jobs = 4;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..jobs {
            let d = d.clone();
            let line = slow_line(&format!("j{i}"));
            handles.push(scope.spawn(move || parse(&d.handle_line(&line))));
        }
        // Wait until every job is registered in flight, then shut down.
        let t0 = Instant::now();
        while d.inflight() < jobs && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(d.inflight(), jobs, "jobs should be queued before shutdown");
        let ack = parse(&d.handle_line(r#"{"op":"shutdown","id":"bye"}"#));
        assert_eq!(ack.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            ack.get("jobs_completed").and_then(Json::as_u64),
            Some(jobs),
            "shutdown must drain every accepted job before acknowledging"
        );
        for h in handles {
            let j = h.join().expect("job thread");
            assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"));
        }
    });
    // After the drain, new work is refused.
    let refused = parse(&d.handle_line(&run_line("late", MAP_SRC, 16, true)));
    assert_eq!(refused.get("status").and_then(Json::as_str), Some("error"));
    assert!(d.stopped());
}

/// The line front-end over an in-memory stream: concurrent responses,
/// the shutdown acknowledgement last, all ids answered.
#[test]
fn serve_lines_answers_every_request_and_acks_shutdown_last() {
    let d = daemon(2);
    let mut input = String::new();
    for i in 0..5 {
        input.push_str(&run_line(&format!("r{i}"), MAP_SRC, 32, true));
        input.push('\n');
    }
    input.push_str(r#"{"op":"stats","id":"s"}"#);
    input.push('\n');
    input.push_str(r#"{"op":"shutdown","id":"z"}"#);
    input.push('\n');

    let mut out: Vec<u8> = Vec::new();
    serve_lines(&d, std::io::Cursor::new(input), &mut out).expect("serves");
    let lines: Vec<Json> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(parse)
        .collect();
    assert_eq!(lines.len(), 7);
    let mut ids: Vec<&str> = lines
        .iter()
        .map(|j| j.get("id").and_then(Json::as_str).expect("id"))
        .collect();
    let last = ids.pop();
    assert_eq!(last, Some("z"), "shutdown acknowledgement must come last");
    ids.sort_unstable();
    assert_eq!(ids, vec!["r0", "r1", "r2", "r3", "r4", "s"]);
    for j in &lines {
        assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"));
    }
}

/// TCP round-trip: a client connects, runs a job twice (second is a
/// cache hit), reads stats, shuts the server down.
#[test]
fn tcp_round_trip_with_cache_and_shutdown() {
    let d = daemon(1);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let d = d.clone();
        std::thread::spawn(move || serve_tcp(&d, listener))
    };

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let mut send = |line: &str| {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
    };
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        parse(&line)
    };

    send(&run_line("t1", MAP_SRC, 48, true));
    let first = recv();
    assert_eq!(first.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));

    send(&run_line("t2", MAP_SRC, 48, true));
    let second = recv();
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(first.get("outputs"), second.get("outputs"));

    send(r#"{"op":"stats","id":"st"}"#);
    let stats = recv();
    let cache = stats
        .get("stats")
        .and_then(|s| s.get("cache"))
        .expect("cache stats");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));

    send(r#"{"op":"shutdown","id":"down"}"#);
    let ack = recv();
    assert_eq!(ack.get("id").and_then(Json::as_str), Some("down"));
    assert_eq!(ack.get("status").and_then(Json::as_str), Some("ok"));
    server.join().expect("server thread").expect("serve_tcp");
}

/// Failures are job-scoped: a compile error, a runtime fault, and a
/// malformed line each produce a structured error response, and the
/// daemon keeps serving afterwards.
#[test]
fn failures_are_job_errors_not_daemon_deaths() {
    let d = daemon(1);

    let bad_compile = format!(
        r#"{{"op":"run","id":"c","source":{},"args":[]}}"#,
        quote("fun main (x: i64): i64 = y")
    );
    let j = parse(&d.handle_line(&bad_compile));
    assert_eq!(j.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("compile"));

    // Out-of-bounds host read: a runtime fault, reported as kind "run".
    let oob = format!(
        r#"{{"op":"run","id":"o","source":{},"args":[{{"i64":4}},{{"array":{{"elem":"i64","shape":[4],"data":[1,2,3,4]}}}}]}}"#,
        quote("fun main (n: i64) (xs: [n]i64): i64 = xs[n]")
    );
    let j = parse(&d.handle_line(&oob));
    assert_eq!(j.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("run"));

    let j = parse(&d.handle_line("this is not json"));
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("protocol"));

    // Still alive and correct.
    let ok = parse(&d.handle_line(&run_line("alive", MAP_SRC, 16, true)));
    assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
    let stats = d.stats();
    assert_eq!(stats.jobs_failed, 2);
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.jobs_completed, 1);
}
