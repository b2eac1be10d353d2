//! Golden-schema test for the JSONL trace format: a recorded session is
//! replayed through [`JsonlRecorder::from_writer`] into a buffer, then
//! every emitted line is re-parsed with the vendored `serde_json` and
//! checked field by field. Consumers (the bench harness, CI validation,
//! ad-hoc `jq`) key on this schema; changing it must fail here first and
//! bump [`TRACE_FORMAT_VERSION`].

use serde_json::Value;
use std::io::Write;
use std::sync::{Arc, Mutex};
use thermaware_obs::{JsonlRecorder, Recorder, SpanRecord, TRACE_FORMAT_VERSION};

static GLOBAL: Mutex<()> = Mutex::new(());

/// A `Write` that tees into a shared buffer the test can inspect after
/// the recorder is done with it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .expect("trace is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Record a deterministic session and return the raw trace text.
fn record_session() -> String {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let buf = SharedBuf::default();
    let rec = Arc::new(JsonlRecorder::from_writer(Box::new(buf.clone())).expect("recorder"));
    {
        let _install = thermaware_obs::install(rec.clone());
        {
            let _outer = thermaware_obs::span("solve");
            let _inner = thermaware_obs::span("stage1");
            thermaware_obs::counter_add("lp.solves", 3);
            thermaware_obs::observe("lp.solve_us", 125.0);
            thermaware_obs::observe("lp.solve_us", 2000.0);
        }
        thermaware_obs::gauge_set("core.reward_rate", 42.5);
        thermaware_obs::gauge_set("core.worst_margin", f64::NEG_INFINITY);
    }
    rec.finish().expect("finish");
    buf.contents()
}

fn str_field<'a>(v: &'a Value, k: &str) -> &'a str {
    v.get(k)
        .and_then(|x| x.as_str())
        .unwrap_or_else(|| panic!("missing string field '{k}' in {v:?}"))
}

fn num_field(v: &Value, k: &str) -> f64 {
    v.get(k)
        .and_then(|x| x.as_f64())
        .unwrap_or_else(|| panic!("missing numeric field '{k}' in {v:?}"))
}

#[test]
fn trace_matches_the_published_schema() {
    let text = record_session();
    let lines: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("unparseable line {l:?}: {e}")))
        .collect();

    // Line 1 — the meta header, byte-for-byte (the golden line).
    assert_eq!(
        text.lines().next().expect("meta line"),
        format!(
            "{{\"type\":\"meta\",\"format\":\"thermaware-obs-trace\",\
             \"version\":{TRACE_FORMAT_VERSION},\"clock\":\"us\"}}"
        )
    );

    // Spans stream in drop order: stage1 closes before solve.
    let spans: Vec<&Value> = lines.iter().filter(|v| str_field(v, "type") == "span").collect();
    assert_eq!(spans.len(), 2);
    assert_eq!(str_field(spans[0], "name"), "stage1");
    assert_eq!(str_field(spans[0], "path"), "solve/stage1");
    assert_eq!(num_field(spans[0], "depth"), 1.0);
    assert_eq!(str_field(spans[1], "name"), "solve");
    assert_eq!(str_field(spans[1], "path"), "solve");
    assert_eq!(num_field(spans[1], "depth"), 0.0);
    for s in &spans {
        assert!(num_field(s, "dur_us") >= 0.0);
        assert!(num_field(s, "start_us") >= 0.0);
        assert!(num_field(s, "thread") >= 0.0);
    }
    // The child's window nests inside the parent's.
    assert!(num_field(spans[0], "start_us") >= num_field(spans[1], "start_us"));

    // finish() appends the metric summaries after all spans.
    let summaries: Vec<&Value> =
        lines.iter().filter(|v| matches!(str_field(v, "type"), "counter" | "gauge" | "hist")).collect();
    let last_span_idx = lines
        .iter()
        .rposition(|v| str_field(v, "type") == "span")
        .expect("spans present");
    let first_summary_idx = lines
        .iter()
        .position(|v| matches!(str_field(v, "type"), "counter" | "gauge" | "hist"))
        .expect("summaries present");
    assert!(first_summary_idx > last_span_idx, "summaries must follow the spans");

    let counter = summaries
        .iter()
        .find(|v| str_field(v, "type") == "counter" && str_field(v, "name") == "lp.solves")
        .expect("lp.solves counter");
    assert_eq!(num_field(counter, "value"), 3.0);

    let gauge = summaries
        .iter()
        .find(|v| str_field(v, "type") == "gauge" && str_field(v, "name") == "core.reward_rate")
        .expect("reward gauge");
    assert_eq!(num_field(gauge, "value"), 42.5);

    // Non-finite values follow the workspace JSON convention: strings.
    let neg_inf = summaries
        .iter()
        .find(|v| str_field(v, "type") == "gauge" && str_field(v, "name") == "core.worst_margin")
        .expect("-inf gauge");
    assert_eq!(str_field(neg_inf, "value"), "-inf");

    let hist = summaries
        .iter()
        .find(|v| str_field(v, "type") == "hist" && str_field(v, "name") == "lp.solve_us")
        .expect("lp.solve_us histogram");
    assert_eq!(num_field(hist, "count"), 2.0);
    assert_eq!(num_field(hist, "sum"), 2125.0);
    assert_eq!(num_field(hist, "min"), 125.0);
    assert_eq!(num_field(hist, "max"), 2000.0);
    assert_eq!(num_field(hist, "mean"), 1062.5);
    for q in ["p50", "p95", "p99"] {
        assert!(num_field(hist, q) > 0.0, "{q} must be positive");
    }
    let buckets = hist.get("buckets").and_then(|b| b.as_array()).expect("buckets array");
    assert_eq!(buckets.len(), 2, "125 and 2000 land in different buckets");
    for b in buckets {
        let pair = b.as_array().expect("bucket is [edge, count]");
        assert_eq!(pair.len(), 2);
    }
}

#[test]
fn every_line_type_is_known() {
    let text = record_session();
    for line in text.lines() {
        let v: Value = serde_json::from_str(line).expect("parseable");
        let t = str_field(&v, "type");
        assert!(
            matches!(t, "meta" | "span" | "counter" | "gauge" | "hist"),
            "unknown line type {t}"
        );
    }
}

/// Names that need escaping: a quote, a backslash, a control character
/// and a non-ASCII letter.
const ODD: &str = "q\"b\\c\u{1}é";

/// The whole trace of fixed spans and metrics, byte for byte: string
/// escapes, every kind of `f64` a gauge or histogram prints (shortest
/// digits, `-0`, a large and a subnormal value, the three non-finite
/// strings), an integer at 2^53, and the open last bucket's `"inf"` edge.
#[test]
fn fixed_records_print_these_bytes() {
    let buf = SharedBuf::default();
    let rec = JsonlRecorder::from_writer(Box::new(buf.clone())).expect("recorder");
    rec.record_span(&SpanRecord {
        name: "stage1",
        path: format!("solve/{ODD}/stage1"),
        depth: 2,
        start_us: 12,
        dur_us: 3456,
        thread: 1,
    });
    rec.record_span(&SpanRecord {
        name: ODD,
        path: ODD.to_string(),
        depth: 0,
        start_us: 0,
        dur_us: 1 << 53,
        thread: 0,
    });
    rec.counter_add("lp.solves", 18);
    rec.counter_add("two^53", 1 << 53);
    rec.counter_add(ODD, 0);
    for (name, value) in [
        ("g.tenth", 0.1),
        ("g.neg_zero", -0.0),
        ("g.big", 1e21),
        ("g.tiny", 5e-324),
        ("g.inf", f64::INFINITY),
        ("g.neg_inf", f64::NEG_INFINITY),
        ("g.nan", f64::NAN),
        (ODD, 88.25),
    ] {
        rec.gauge_set(name, value);
    }
    for v in [0.75, 3.0, 125.0, 2000.5, 1e13] {
        rec.observe("lp.solve_us", v);
    }
    rec.observe(ODD, -1.0);
    rec.finish().expect("finish");
    let expected = [
        r#"{"type":"meta","format":"thermaware-obs-trace","version":1,"clock":"us"}"#.to_string(),
        r#"{"type":"span","path":"solve/q\"b\\c\u0001é/stage1","name":"stage1","depth":2,"thread":1,"start_us":12,"dur_us":3456}"#.to_string(),
        r#"{"type":"span","path":"q\"b\\c\u0001é","name":"q\"b\\c\u0001é","depth":0,"thread":0,"start_us":0,"dur_us":9007199254740992}"#.to_string(),
        r#"{"type":"counter","name":"lp.solves","value":18}"#.to_string(),
        r#"{"type":"counter","name":"q\"b\\c\u0001é","value":0}"#.to_string(),
        r#"{"type":"counter","name":"two^53","value":9007199254740992}"#.to_string(),
        r#"{"type":"gauge","name":"g.big","value":1000000000000000000000}"#.to_string(),
        r#"{"type":"gauge","name":"g.inf","value":"inf"}"#.to_string(),
        r#"{"type":"gauge","name":"g.nan","value":"NaN"}"#.to_string(),
        r#"{"type":"gauge","name":"g.neg_inf","value":"-inf"}"#.to_string(),
        r#"{"type":"gauge","name":"g.neg_zero","value":-0}"#.to_string(),
        r#"{"type":"gauge","name":"g.tenth","value":0.1}"#.to_string(),
        format!(r#"{{"type":"gauge","name":"g.tiny","value":0.{}5}}"#, "0".repeat(323)),
        r#"{"type":"gauge","name":"q\"b\\c\u0001é","value":88.25}"#.to_string(),
        r#"{"type":"hist","name":"lp.solve_us","count":5,"sum":10000000002129.25,"min":0.75,"max":10000000000000,"mean":2000000000425.85,"p50":128,"p95":"inf","p99":"inf","buckets":[[1,1],[4,1],[128,1],[2048,1],["inf",1]]}"#.to_string(),
        r#"{"type":"hist","name":"q\"b\\c\u0001é","count":1,"sum":-1,"min":-1,"max":-1,"mean":-1,"p50":0.00000095367431640625,"p95":0.00000095367431640625,"p99":0.00000095367431640625,"buckets":[[0.00000095367431640625,1]]}"#.to_string(),
    ];
    assert_eq!(buf.contents(), expected.join("\n") + "\n");
}
