//! Metric names, units and the result line.
//!
//! The names here are the contract with `BENCHMARK.json`; a test keeps the
//! two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 2] = ["resnet18-b1", "mobilenet-b1"];

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_ips", "inferences/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("onnx.import_ms", "ms"),
    ("onnx.model_bytes", "bytes"),
    ("graph.simplify_ms", "ms"),
    ("graph.nodes_in", "count"),
    ("graph.nodes_out", "count"),
    ("verify.graph_ms", "ms"),
    ("core.load_ms", "ms"),
    ("core.session_ms", "ms"),
    ("core.first_run_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.arena_kib", "KiB"),
    ("core.arena_measured_kib", "KiB"),
    ("core.bucket1_us_per_input", "us"),
    ("core.bucket2_us_per_input", "us"),
    ("core.bucket4_us_per_input", "us"),
    ("core.bucket8_us_per_input", "us"),
    ("ops.conv_gemm_ms", "ms"),
    ("ops.conv_depthwise_ms", "ms"),
    ("ops.pool_ms", "ms"),
    ("ops.dense_ms", "ms"),
    ("ops.other_ms", "ms"),
    ("ops.coverage", "ratio"),
    ("gemm.im2col_ms", "ms"),
    ("gemm.prepacked_ms", "ms"),
    ("gemm.gflops", "GFLOP/s"),
    ("gemm.pct_peak", "%"),
    ("gemm.peak_gflops", "GFLOP/s"),
    ("gemm.small_n_gflops", "GFLOP/s"),
    ("gemm.flops", "FLOP-computed"),
    ("gemm.bytes", "bytes-computed"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.batch_mean", "requests"),
    ("serve.batched_frac", "ratio"),
    ("serve.reference_frac", "ratio"),
    ("serve.backlog_max", "requests"),
    ("serve.gen_late_ms", "ms"),
    ("serve.requests", "count"),
    ("setup.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric values collected during a run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric. Names outside both tables are a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// JSON number: finite values verbatim with every digit, anything else as 0
/// (a non-finite value would make the line unparseable).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `spec` in table order.
///
/// # Panics
///
/// Panics if a metric of `spec` was never set, which is a harness bug.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    spec: &[(&str, &str)],
) -> String {
    let body: Vec<String> = spec
        .iter()
        .map(|(name, unit)| {
            let value = metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                number(value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader, enough to read `BENCHMARK.json` back.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
                _ => panic!("not an object"),
            }
        }
        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => panic!("not a string"),
            }
        }
        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                _ => panic!("not an array"),
            }
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }
        fn peek(&mut self) -> u8 {
            self.ws();
            self.s[self.i]
        }
        fn string(&mut self) -> String {
            self.eat(b'"');
            let mut out = String::new();
            while self.s[self.i] != b'"' {
                if self.s[self.i] == b'\\' {
                    self.i += 1;
                }
                out.push(self.s[self.i] as char);
                self.i += 1;
            }
            self.i += 1;
            out
        }
        fn value(&mut self) -> Json {
            match self.peek() {
                b'{' => {
                    self.eat(b'{');
                    let mut fields = Vec::new();
                    while self.peek() != b'}' {
                        let key = self.string();
                        self.eat(b':');
                        fields.push((key, self.value()));
                        if self.peek() == b',' {
                            self.eat(b',');
                        }
                    }
                    self.eat(b'}');
                    Json::Obj(fields)
                }
                b'[' => {
                    self.eat(b'[');
                    let mut items = Vec::new();
                    while self.peek() != b']' {
                        items.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        }
                    }
                    self.eat(b']');
                    Json::Arr(items)
                }
                b'"' => Json::Str(self.string()),
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    match std::str::from_utf8(&self.s[start..self.i]).expect("utf8") {
                        "null" => Json::Null,
                        "true" => Json::Bool(true),
                        "false" => Json::Bool(false),
                        n => Json::Num(n.parse().expect("number")),
                    }
                }
            }
        }
    }

    fn parse(text: &str) -> Json {
        Parser {
            s: text.as_bytes(),
            i: 0,
        }
        .value()
    }

    fn pairs(section: &Json) -> Vec<(String, String)> {
        section
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    }

    fn owned(spec: &[(&str, &str)]) -> Vec<(String, String)> {
        spec.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(pairs(spec.get("end_to_end")), owned(&END_TO_END));
        assert_eq!(pairs(spec.get("per_layer")), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 0.25 + i as f64);
        }
        let line = result_line(true, 3, 1, &m, &END_TO_END);
        let parsed = parse(&line);
        assert_eq!(parsed.get("correct"), &Json::Bool(true));
        assert_eq!(parsed.get("attempted"), &Json::Num(3.0));
        assert_eq!(parsed.get("failed"), &Json::Num(1.0));
        let metrics = parsed.get("metrics");
        assert_eq!(metrics.get("setup_s").get("value"), &Json::Num(0.25));
        assert_eq!(metrics.get("peak_rss_mib").get("unit").str(), "MiB");
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }
}
