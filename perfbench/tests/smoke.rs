//! A smoke-size run of every workload, untraced and traced: each exits 0,
//! its last line parses, every check passes, and it reports exactly the
//! metrics `BENCHMARK.json` lists, each with a valid name and its unit.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// Just enough JSON for the result line and `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    List(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn text(&self) -> &str {
        match self {
            Json::Text(t) => t,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::List(items) => items,
            other => panic!("{other:?} is not a list"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.space();
        assert_eq!(parser.at, parser.bytes.len(), "trailing input in {text}");
        value
    }

    fn space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.space();
        assert_eq!(self.bytes[self.at], byte, "at byte {}", self.at);
        self.at += 1;
    }

    fn value(&mut self) -> Json {
        self.space();
        match self.bytes[self.at] {
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                self.space();
                if self.bytes[self.at] == b'}' {
                    self.at += 1;
                    return Json::Object(fields);
                }
                loop {
                    self.space();
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.space();
                    self.at += 1;
                    if self.bytes[self.at - 1] == b'}' {
                        return Json::Object(fields);
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.bytes[self.at] == b']' {
                    self.at += 1;
                    return Json::List(items);
                }
                loop {
                    items.push(self.value());
                    self.space();
                    self.at += 1;
                    if self.bytes[self.at - 1] == b']' {
                        return Json::List(items);
                    }
                }
            }
            b'"' => Json::Text(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
                Json::Number(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Json {
        assert!(self.bytes[self.at..].starts_with(word.as_bytes()));
        self.at += word.len();
        value
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.bytes[self.at] != b'"' {
            if self.bytes[self.at] == b'\\' {
                self.at += 1;
            }
            out.push(self.bytes[self.at] as char);
            self.at += 1;
        }
        self.at += 1;
        out
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn listed(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").text().to_string(),
                m.get("unit").text().to_string(),
            )
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Parser::parse(last);
    let Json::Object(fields) = &result else {
        panic!("result is not an object: {last}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
    let Json::Number(attempted) = result.get("attempted") else {
        panic!("attempted is not a number")
    };
    assert!(*attempted >= 1.0 && attempted.fract() == 0.0);
    assert!(matches!(result.get("failed"), Json::Number(f) if f.fract() == 0.0));

    let Json::Object(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let reported: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, metric)| {
            assert!(valid_name(name), "invalid metric name {name}");
            assert!(
                matches!(metric.get("value"), Json::Number(v) if v.is_finite()),
                "{name} has no finite value"
            );
            let unit = metric.get("unit").text();
            assert!(valid_unit(unit), "invalid unit {unit} of {name}");
            (name.clone(), unit.to_string())
        })
        .collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(reported, listed(section), "{workload} trace {trace}");
}

#[test]
fn benchmark_json_lists_every_workload() {
    let names: Vec<String> = benchmark()
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").text().to_string())
        .collect();
    assert_eq!(names, ["wire-open", "audited-hot-users", "query-sliding"]);
}

#[test]
fn wire_open_smoke() {
    smoke("wire-open", false);
    smoke("wire-open", true);
}

#[test]
fn audited_hot_users_smoke() {
    smoke("audited-hot-users", false);
    smoke("audited-hot-users", true);
}

#[test]
fn query_sliding_smoke() {
    smoke("query-sliding", false);
    smoke("query-sliding", true);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
