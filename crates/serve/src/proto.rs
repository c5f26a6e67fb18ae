//! The `futharkd` wire protocol: line-delimited JSON.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line, correlated by the client-chosen `id`. Three
//! operations exist:
//!
//! - `{"op":"run", "id":..., "source":..., "args":[...], ...}` —
//!   compile (or hit the artifact cache) and execute a program.
//! - `{"op":"stats", "id":...}` — server counters: cache hits/misses,
//!   jobs completed/rejected/failed, per-device capacities.
//! - `{"op":"metrics", "id":..., "format":..., "tail":...}` — the full
//!   telemetry registry. `format` is `"json"` (default: counters,
//!   gauges, latency histograms, per-device counters, and the flight
//!   recorder's most recent `tail` events), `"prometheus"` (the
//!   plaintext exposition under a `text` key), or `"chrome"` (the
//!   daemon timeline as a Chrome/Perfetto trace document).
//! - `{"op":"shutdown", "id":...}` — stop accepting work, drain the
//!   queue, reply, exit.
//!
//! Values cross the wire in a typed encoding: scalars as
//! `{"i64": 42}` / `{"f32": 1.5}` / `{"bool": true}` …, arrays as
//! `{"array": {"elem": "i64", "shape": [2,3], "data": [...]}}`.
//!
//! A successful `run` response carries the outputs, a span list (wall
//! timings per stage; the `compile` span is **absent** on a cache hit),
//! the cache verdict, the admission prediction, and a perf summary. A
//! failed `run` carries a structured error with a `kind` of
//! `"admission"`, `"compile"`, `"run"`, or `"protocol"`; admission
//! errors include `predicted_peak_bytes` and the best device `capacity`
//! the job did not fit.

use futhark::{schedule_from_json, Schedule};
use futhark_core::{ArrayVal, Buffer, Scalar, ScalarType, Value};
use futhark_trace::Json;

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile-and-execute (boxed: a run carries source, args, and a
    /// schedule, far larger than the control-plane variants).
    Run(Box<RunRequest>),
    /// Server counters.
    Stats {
        /// Correlation id.
        id: String,
    },
    /// The telemetry registry and flight recorder.
    Metrics {
        /// Correlation id.
        id: String,
        /// Requested rendering.
        format: MetricsFormat,
        /// Flight-recorder tail length for the JSON format.
        tail: usize,
    },
    /// Drain and exit.
    Shutdown {
        /// Correlation id.
        id: String,
    },
}

/// The rendering of a `metrics` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The full registry as JSON (default).
    Json,
    /// Prometheus plaintext exposition (under a `text` key).
    Prometheus,
    /// The daemon timeline as a Chrome/Perfetto trace document.
    Chrome,
}

/// A `run` request.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// Futhark source text (must define `main`).
    pub source: String,
    /// Entry arguments.
    pub args: Vec<Value>,
    /// The compilation schedule: the wire `schedule`, or the default
    /// schedule when the request carries none.
    pub schedule: Schedule,
    /// Host worker threads for group execution (default 1 — a server
    /// parallelises across jobs, not within them).
    pub threads: usize,
}

/// One timed stage of a job's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name: `queue`, `compile`, or `execute`.
    pub name: &'static str,
    /// Wall-clock duration in microseconds.
    pub us: f64,
}

/// Structured failure categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Rejected before execution: the predicted footprint fits no device.
    Admission,
    /// The pipeline rejected the program.
    Compile,
    /// Execution failed (including post-run capacity violations).
    Run,
    /// The request line was not a valid protocol message.
    Protocol,
}

impl ErrorKind {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Admission => "admission",
            ErrorKind::Compile => "compile",
            ErrorKind::Run => "run",
            ErrorKind::Protocol => "protocol",
        }
    }
}

/// A server response.
#[derive(Debug, Clone)]
pub enum Response {
    /// A completed `run`.
    RunOk {
        /// Echoed correlation id.
        id: String,
        /// Entry results.
        outputs: Vec<Value>,
        /// Timed stages; no `compile` span on a cache hit.
        spans: Vec<Span>,
        /// Whether the artifact cache served the compile.
        cache_hit: bool,
        /// The admission-time footprint prediction (bytes).
        predicted_peak_bytes: u64,
        /// The device the job ran on.
        device: String,
        /// Admitted jobs already waiting for a device slot when this job
        /// joined the queue — a single response explains its own
        /// latency without a `metrics` scrape.
        queue_depth_at_admission: u64,
        /// Measured peak device bytes.
        measured_peak_bytes: u64,
        /// Modelled execution time in microseconds.
        total_us: f64,
    },
    /// A failed request.
    Error {
        /// Echoed correlation id (empty if the line had none).
        id: String,
        /// Failure category.
        kind: ErrorKind,
        /// Human-readable description.
        message: String,
        /// For admission errors: the predicted footprint.
        predicted_peak_bytes: Option<u64>,
        /// For admission/run capacity errors: the largest capacity tried.
        capacity: Option<u64>,
    },
    /// Server counters.
    Stats {
        /// Echoed correlation id.
        id: String,
        /// The counters object (already JSON-shaped).
        body: Json,
    },
    /// The telemetry registry.
    Metrics {
        /// Echoed correlation id.
        id: String,
        /// The rendered registry (shape depends on the requested
        /// [`MetricsFormat`]).
        body: Json,
    },
    /// Shutdown acknowledged; the queue has drained.
    ShutdownOk {
        /// Echoed correlation id.
        id: String,
        /// Jobs completed over the server's lifetime.
        jobs_completed: u64,
    },
}

/// Encodes a value for the wire.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Scalar(s) => scalar_to_json(s),
        Value::Array(a) => Json::obj(vec![(
            "array",
            Json::obj(vec![
                ("elem", Json::Str(elem_name(a.elem_type()).into())),
                (
                    "shape",
                    Json::Arr(a.shape.iter().map(|&d| Json::U64(d as u64)).collect()),
                ),
                ("data", buffer_to_json(&a.data)),
            ]),
        )]),
    }
}

fn scalar_to_json(s: &Scalar) -> Json {
    match s {
        Scalar::Bool(b) => Json::obj(vec![("bool", Json::Bool(*b))]),
        Scalar::I32(k) => Json::obj(vec![("i32", Json::I64(*k as i64))]),
        Scalar::I64(k) => Json::obj(vec![("i64", Json::I64(*k))]),
        Scalar::F32(x) => Json::obj(vec![("f32", Json::F64(*x as f64))]),
        Scalar::F64(x) => Json::obj(vec![("f64", Json::F64(*x))]),
    }
}

fn buffer_to_json(b: &Buffer) -> Json {
    Json::Arr(match b {
        Buffer::Bool(v) => v.iter().map(|&x| Json::Bool(x)).collect(),
        Buffer::I32(v) => v.iter().map(|&x| Json::I64(x as i64)).collect(),
        Buffer::I64(v) => v.iter().map(|&x| Json::I64(x)).collect(),
        Buffer::F32(v) => v.iter().map(|&x| Json::F64(x as f64)).collect(),
        Buffer::F64(v) => v.iter().map(|&x| Json::F64(x)).collect(),
    })
}

fn elem_name(t: ScalarType) -> &'static str {
    match t {
        ScalarType::Bool => "bool",
        ScalarType::I32 => "i32",
        ScalarType::I64 => "i64",
        ScalarType::F32 => "f32",
        ScalarType::F64 => "f64",
    }
}

fn elem_of_name(s: &str) -> Option<ScalarType> {
    Some(match s {
        "bool" => ScalarType::Bool,
        "i32" => ScalarType::I32,
        "i64" => ScalarType::I64,
        "f32" => ScalarType::F32,
        "f64" => ScalarType::F64,
        _ => return None,
    })
}

/// Decodes a wire value.
pub fn value_from_json(j: &Json) -> Option<Value> {
    if let Some(a) = j.get("array") {
        let elem = elem_of_name(a.get("elem")?.as_str()?)?;
        let shape: Vec<usize> = a
            .get("shape")?
            .as_arr()?
            .iter()
            .map(|d| d.as_u64().map(|d| d as usize))
            .collect::<Option<_>>()?;
        let data = a.get("data")?.as_arr()?;
        if shape.iter().product::<usize>() != data.len() {
            return None;
        }
        let buf = match elem {
            ScalarType::Bool => Buffer::Bool(
                data.iter()
                    .map(|x| match x {
                        Json::Bool(b) => Some(*b),
                        _ => None,
                    })
                    .collect::<Option<_>>()?,
            ),
            ScalarType::I32 => Buffer::I32(
                data.iter()
                    .map(|x| as_i64(x).and_then(|k| i32::try_from(k).ok()))
                    .collect::<Option<_>>()?,
            ),
            ScalarType::I64 => Buffer::I64(data.iter().map(as_i64).collect::<Option<_>>()?),
            ScalarType::F32 => Buffer::F32(
                data.iter()
                    .map(|x| x.as_f64().map(|f| f as f32))
                    .collect::<Option<_>>()?,
            ),
            ScalarType::F64 => Buffer::F64(data.iter().map(Json::as_f64).collect::<Option<_>>()?),
        };
        return Some(Value::Array(ArrayVal::new(shape, buf)));
    }
    let s = if let Some(b) = j.get("bool") {
        match b {
            Json::Bool(x) => Scalar::Bool(*x),
            _ => return None,
        }
    } else if let Some(k) = j.get("i32") {
        Scalar::I32(i32::try_from(as_i64(k)?).ok()?)
    } else if let Some(k) = j.get("i64") {
        Scalar::I64(as_i64(k)?)
    } else if let Some(x) = j.get("f32") {
        Scalar::F32(x.as_f64()? as f32)
    } else if let Some(x) = j.get("f64") {
        Scalar::F64(x.as_f64()?)
    } else {
        return None;
    };
    Some(Value::Scalar(s))
}

fn as_i64(j: &Json) -> Option<i64> {
    match j {
        Json::I64(k) => Some(*k),
        Json::U64(k) => i64::try_from(*k).ok(),
        _ => None,
    }
}

/// An optional string field of a request: `None` when absent, a
/// protocol error naming the field when present but not a string.
fn opt_str<'j>(
    j: &'j Json,
    id: &str,
    op: &str,
    key: &str,
) -> Result<Option<&'j str>, (String, String)> {
    let not_str = || (id.to_string(), format!("{op}: \"{key}\" must be a string"));
    j.get(key)
        .map(|v| v.as_str().ok_or_else(not_str))
        .transpose()
}

/// Parses a request line. `Err` carries a protocol-error message (and the
/// correlation id when one was recoverable).
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let j = Json::parse(line).map_err(|e| (String::new(), format!("invalid JSON: {e}")))?;
    let id = j
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let op = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| (id.clone(), "missing \"op\"".to_string()))?;
    match op {
        "stats" => Ok(Request::Stats { id }),
        "metrics" => {
            let format = match opt_str(&j, &id, "metrics", "format")? {
                None | Some("json") => MetricsFormat::Json,
                Some("prometheus") => MetricsFormat::Prometheus,
                Some("chrome") => MetricsFormat::Chrome,
                Some(other) => {
                    return Err((id, format!("metrics: unknown format {other:?}")));
                }
            };
            let tail = match j.get("tail") {
                Some(t) => t
                    .as_u64()
                    .ok_or_else(|| (id.clone(), "metrics: \"tail\" must be >= 0".to_string()))?
                    as usize,
                None => 64,
            };
            Ok(Request::Metrics { id, format, tail })
        }
        "shutdown" => Ok(Request::Shutdown { id }),
        "run" => {
            let source = j
                .get("source")
                .and_then(Json::as_str)
                .ok_or_else(|| (id.clone(), "run: missing \"source\"".to_string()))?
                .to_string();
            let args = match j.get("args") {
                Some(a) => a
                    .as_arr()
                    .ok_or_else(|| (id.clone(), "run: \"args\" must be an array".to_string()))?
                    .iter()
                    .map(value_from_json)
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| (id.clone(), "run: malformed argument value".to_string()))?,
                None => Vec::new(),
            };
            if j.get("options").is_some() {
                return Err((
                    id,
                    "run: \"options\" is not supported; send a \"schedule\"".to_string(),
                ));
            }
            let schedule = match j.get("schedule") {
                Some(s) => schedule_from_json(s)
                    .map_err(|e| (id.clone(), format!("run: malformed \"schedule\": {e}")))?,
                None => Schedule::default(),
            };
            let threads = match j.get("threads") {
                Some(t) => t
                    .as_u64()
                    .filter(|&t| t >= 1)
                    .ok_or_else(|| (id.clone(), "run: \"threads\" must be >= 1".to_string()))?
                    as usize,
                None => 1,
            };
            // The warp engine is the only one; naming it is allowed.
            if let Some(other) = opt_str(&j, &id, "run", "engine")?.filter(|&e| e != "warp") {
                return Err((
                    id,
                    format!("run: unknown engine {other:?} (only \"warp\" exists)"),
                ));
            }
            Ok(Request::Run(Box::new(RunRequest {
                id,
                source,
                args,
                schedule,
                threads,
            })))
        }
        other => Err((id, format!("unknown op {other:?}"))),
    }
}

impl Response {
    /// Renders the response as one compact JSON line (no newline).
    pub fn to_json(&self) -> Json {
        match self {
            Response::RunOk {
                id,
                outputs,
                spans,
                cache_hit,
                predicted_peak_bytes,
                device,
                queue_depth_at_admission,
                measured_peak_bytes,
                total_us,
            } => Json::obj(vec![
                ("id", Json::Str(id.clone())),
                ("status", Json::Str("ok".into())),
                (
                    "outputs",
                    Json::Arr(outputs.iter().map(value_to_json).collect()),
                ),
                (
                    "spans",
                    Json::Arr(
                        spans
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("name", Json::Str(s.name.into())),
                                    ("us", Json::F64(s.us)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "cache",
                    Json::Str(if *cache_hit { "hit" } else { "miss" }.into()),
                ),
                ("predicted_peak_bytes", Json::U64(*predicted_peak_bytes)),
                ("device", Json::Str(device.clone())),
                (
                    "queue_depth_at_admission",
                    Json::U64(*queue_depth_at_admission),
                ),
                ("measured_peak_bytes", Json::U64(*measured_peak_bytes)),
                ("total_us", Json::F64(*total_us)),
            ]),
            Response::Error {
                id,
                kind,
                message,
                predicted_peak_bytes,
                capacity,
            } => {
                let mut pairs = vec![
                    ("id", Json::Str(id.clone())),
                    ("status", Json::Str("error".into())),
                    ("kind", Json::Str(kind.as_str().into())),
                    ("message", Json::Str(message.clone())),
                ];
                if let Some(p) = predicted_peak_bytes {
                    pairs.push(("predicted_peak_bytes", Json::U64(*p)));
                }
                if let Some(c) = capacity {
                    pairs.push(("capacity", Json::U64(*c)));
                }
                Json::obj(pairs)
            }
            Response::Stats { id, body } => Json::obj(vec![
                ("id", Json::Str(id.clone())),
                ("status", Json::Str("ok".into())),
                ("stats", body.clone()),
            ]),
            Response::Metrics { id, body } => Json::obj(vec![
                ("id", Json::Str(id.clone())),
                ("status", Json::Str("ok".into())),
                ("metrics", body.clone()),
            ]),
            Response::ShutdownOk { id, jobs_completed } => Json::obj(vec![
                ("id", Json::Str(id.clone())),
                ("status", Json::Str("ok".into())),
                ("shutdown", Json::Bool(true)),
                ("jobs_completed", Json::U64(*jobs_completed)),
            ]),
        }
    }

    /// Renders as a wire line.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let vals = vec![
            Value::i64(-3),
            Value::Scalar(Scalar::Bool(true)),
            Value::Scalar(Scalar::F32(1.5)),
            Value::Scalar(Scalar::F64(-0.25)),
            Value::Scalar(Scalar::I32(7)),
            Value::Array(ArrayVal::from_i64s(vec![1, 2, 3])),
            Value::Array(ArrayVal::new(
                vec![2, 2],
                Buffer::F64(vec![0.5, 1.5, 2.5, 3.5]),
            )),
            Value::Array(ArrayVal::new(vec![2], Buffer::Bool(vec![true, false]))),
        ];
        for v in vals {
            let j = value_to_json(&v);
            let parsed = Json::parse(&j.render()).expect("valid JSON");
            let back = value_from_json(&parsed).expect("decodes");
            assert!(v.bit_eq(&back), "{v:?} did not round-trip");
        }
    }

    #[test]
    fn run_request_parses_with_defaults() {
        let line =
            r#"{"op":"run","id":"j1","source":"fun main (x: i64): i64 = x","args":[{"i64":5}]}"#;
        match parse_request(line).expect("parses") {
            Request::Run(r) => {
                assert_eq!(r.id, "j1");
                assert_eq!(r.threads, 1);
                assert!(r.schedule.is_default());
                assert_eq!(r.args, vec![Value::i64(5)]);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn metrics_request_parses_formats_and_tail() {
        match parse_request(r#"{"op":"metrics","id":"m"}"#).expect("parses") {
            Request::Metrics { id, format, tail } => {
                assert_eq!(id, "m");
                assert_eq!(format, MetricsFormat::Json);
                assert_eq!(tail, 64);
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        match parse_request(r#"{"op":"metrics","id":"p","format":"prometheus","tail":5}"#)
            .expect("parses")
        {
            Request::Metrics { format, tail, .. } => {
                assert_eq!(format, MetricsFormat::Prometheus);
                assert_eq!(tail, 5);
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        match parse_request(r#"{"op":"metrics","id":"c","format":"chrome"}"#).expect("parses") {
            Request::Metrics { format, .. } => assert_eq!(format, MetricsFormat::Chrome),
            other => panic!("expected metrics, got {other:?}"),
        }
        let (id, msg) = parse_request(r#"{"op":"metrics","id":"x","format":"xml"}"#).unwrap_err();
        assert_eq!(id, "x");
        assert!(msg.contains("unknown format"));
    }

    #[test]
    fn malformed_lines_are_protocol_errors_with_recovered_ids() {
        assert!(parse_request("not json").is_err());
        let (id, msg) = parse_request(r#"{"id":"x","op":"nope"}"#).unwrap_err();
        assert_eq!(id, "x");
        assert!(msg.contains("unknown op"));
        let (id, _) = parse_request(r#"{"id":"y","op":"run"}"#).unwrap_err();
        assert_eq!(id, "y");
    }

    #[test]
    fn enumerated_fields_accept_only_their_values() {
        let run = |field: &str| {
            format!(r#"{{"op":"run","id":"r","source":"fun main (x: i64): i64 = x",{field}}}"#)
        };
        let metrics = |field: &str| format!(r#"{{"op":"metrics","id":"r",{field}}}"#);
        // (request line, the field a rejection must name; None = accepted)
        let cases = [
            (run(r#""engine":"warp""#), None),
            // `profile` is not a field: ignored like any unknown key.
            (run(r#""profile":"yes""#), None),
            (metrics(r#""format":"chrome""#), None),
            (run(r#""engine":"lane""#), Some("engine")),
            (run(r#""engine":"gpu""#), Some("engine")),
            (run(r#""engine":5"#), Some("engine")),
            (run(r#""engine":null"#), Some("engine")),
            (run(r#""engine":["warp"]"#), Some("engine")),
            (metrics(r#""format":5"#), Some("format")),
            (metrics(r#""format":null"#), Some("format")),
            (metrics(r#""format":"xml""#), Some("format")),
        ];
        for (line, names) in &cases {
            match (parse_request(line), names) {
                (Ok(_), None) => {}
                (Err((id, msg)), Some(field)) => {
                    assert_eq!(id, "r", "{line}");
                    assert!(msg.contains(field), "{line}: {msg}");
                }
                (got, _) => panic!("{line}: got {got:?}"),
            }
        }
    }
}
