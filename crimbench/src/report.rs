//! The result line and the run record, written as JSON by hand.

use crate::inputs::Shape;
use crate::util::nproc;

/// A JSON scalar.
#[derive(Debug, Clone)]
pub enum Val {
    Int(u64),
    Num(f64),
    Str(String),
}

impl From<u64> for Val {
    fn from(v: u64) -> Val {
        Val::Int(v)
    }
}

impl From<usize> for Val {
    fn from(v: usize) -> Val {
        Val::Int(v as u64)
    }
}

impl From<f64> for Val {
    fn from(v: f64) -> Val {
        Val::Num(v)
    }
}

impl From<&str> for Val {
    fn from(v: &str) -> Val {
        Val::Str(v.to_string())
    }
}

impl From<String> for Val {
    fn from(v: String) -> Val {
        Val::Str(v)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Val {
    fn json(&self) -> String {
        match self {
            Val::Int(v) => v.to_string(),
            // Rust prints the shortest text that reads back as the same
            // double, so no digit is lost.
            Val::Num(v) if v.is_finite() => format!("{v:?}"),
            Val::Num(_) => "null".to_string(),
            Val::Str(s) => quote(s),
        }
    }
}

/// The shape that produced a report: printed with every report so a
/// number is never read without it.
#[derive(Debug, Clone, Default)]
pub struct Record(Vec<(String, Val)>);

impl Record {
    pub fn new(shape: &Shape, seed: u64, seconds: u64) -> Record {
        Record::default()
            .with("workload", shape.workload.name())
            .with("seed", seed)
            .with("seconds", seconds)
            .with("nproc", nproc())
            .with(
                "build_profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
            )
            .with("served_leaves", shape.leaves)
            .with("gold_sites", shape.gold_sites)
            .with("pool_pages", shape.pool_pages)
            .with("dispatch_workers", shape.workers)
            .with("pipeline_depth", shape.depth)
            .with("setups", shape.setups)
            .with("stream_len", shape.stream_len)
            .with("load_leaves", shape.load_leaves)
            .with("scheduled_loads", shape.loads)
            .with("sweep_every", shape.sweep_every)
            .with("sweep_cells_each", shape.sweep.cells())
    }

    pub fn with(mut self, key: &str, v: impl Into<Val>) -> Record {
        self.0.push((key.to_string(), v.into()));
        self
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), v.json()))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation prints.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub record: Record,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    Val::Num(m.value).json(),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
