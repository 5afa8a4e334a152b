//! The combined lint report the CLI prints: diagnostics + memory analysis.

use orpheus_graph::Graph;
use orpheus_observe::json::JsonValue;

use crate::dataflow::{self, MemoryReport};
use crate::diagnostic::{Diagnostic, Severity};
use crate::plan::{self, ArenaReport};
use crate::plan_check::PlanCheckReport;
use crate::verifier::Verifier;

/// Version of the lint `--json` schema. Bumped whenever a field is added,
/// removed, or changes meaning, so downstream parsers can gate. Version 2
/// added the field itself plus the `plan` execution-plan verdict object.
pub const LINT_SCHEMA_VERSION: u32 = 2;

/// Everything `orpheus-cli lint` reports for one model.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Model name (from the graph).
    pub model: String,
    /// Node count at lint time.
    pub nodes: usize,
    /// Total weight parameters.
    pub parameters: usize,
    /// All verifier findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Static memory analysis; `None` when errors prevent shape inference.
    pub memory: Option<MemoryReport>,
    /// Planned buffer-reuse arena (the shared planner's static prediction);
    /// `None` when errors prevent shape inference.
    pub arena: Option<ArenaReport>,
    /// Per-batch-bucket arena predictions, `(batch, report)` in ladder
    /// order. Empty unless the report was produced by [`lint_with_batch`]
    /// with a max batch above the model's declared batch.
    pub bucket_arenas: Vec<(usize, ArenaReport)>,
    /// Execution-plan soundness verdicts (`lint --check-plan`): the model
    /// is lowered through the engine and every bucket's memory plan is
    /// verified by [`check_plan`](crate::check_plan). `None` when the check
    /// was not requested (or the model failed to load).
    pub plan: Option<PlanCheckReport>,
}

impl LintReport {
    /// Number of error-severity findings (including plan-check verdicts).
    pub fn errors(&self) -> usize {
        self.count(Severity::Error) + self.plan.as_ref().map_or(0, PlanCheckReport::errors)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "lint {}: {} node(s), {} parameter(s)\n",
            self.model, self.nodes, self.parameters
        );
        for diagnostic in &self.diagnostics {
            out.push_str(&format!("  {diagnostic}\n"));
        }
        if let Some(memory) = &self.memory {
            out.push_str("static memory report:\n");
            out.push_str(&memory.render());
        }
        if let Some(arena) = &self.arena {
            out.push_str(&arena.render());
        }
        for (batch, arena) in &self.bucket_arenas {
            out.push_str(&format!(
                "  batch bucket {batch}: {} ({}) in {} buffer(s), reuse {:.2}x\n",
                arena.arena_bytes,
                crate::dataflow::human_bytes(arena.arena_bytes),
                arena.num_buffers,
                arena.reuse_ratio()
            ));
        }
        if let Some(plan) = &self.plan {
            out.push_str(&plan.render());
        }
        out.push_str(&format!(
            "result: {} error(s), {} warning(s)\n",
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// The report as one JSON object (the `lint --json` schema).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("schema_version", u64::from(LINT_SCHEMA_VERSION).into()),
            ("model", self.model.as_str().into()),
            ("nodes", self.nodes.into()),
            ("parameters", self.parameters.into()),
            ("errors", self.errors().into()),
            ("warnings", self.warnings().into()),
            (
                "diagnostics",
                self.diagnostics.iter().map(Diagnostic::to_json).collect(),
            ),
            (
                "memory",
                self.memory.as_ref().map(MemoryReport::to_json).into(),
            ),
            (
                "arena",
                self.arena.as_ref().map(ArenaReport::to_json).into(),
            ),
            (
                "bucket_arenas",
                self.bucket_arenas
                    .iter()
                    .map(|(batch, arena)| {
                        JsonValue::obj([("batch", (*batch).into()), ("arena", arena.to_json())])
                    })
                    .collect(),
            ),
            (
                "plan",
                self.plan.as_ref().map(PlanCheckReport::to_json).into(),
            ),
        ])
    }
}

/// Lints a graph: full verification plus, when the graph is sound enough to
/// infer shapes, the static memory report.
pub fn lint(graph: &Graph) -> LintReport {
    lint_base(graph, 1)
}

/// Shared body of [`lint`] and [`lint_with_batch`]: verify (iterating the
/// batch ladder up to `max_batch`), then derive the memory reports when the
/// graph is sound.
fn lint_base(graph: &Graph, max_batch: usize) -> LintReport {
    let diagnostics = Verifier::new().with_max_batch(max_batch).verify(graph);
    let (memory, arena) = if crate::diagnostic::has_errors(&diagnostics) {
        (None, None)
    } else {
        (
            dataflow::memory_report(graph).ok(),
            plan::arena_report(graph).ok(),
        )
    };
    LintReport {
        model: graph.name.clone(),
        nodes: graph.nodes().len(),
        parameters: graph.num_parameters(),
        diagnostics,
        memory,
        arena,
        bucket_arenas: Vec::new(),
        plan: None,
    }
}

/// [`lint`], plus per-batch-bucket arena predictions up to `max_batch`.
///
/// The ladder is [`batch_buckets`](crate::batch_buckets) from the graph's
/// declared input batch — the exact rungs the engine plans at
/// `Engine::load` with the same `max_batch`, computed by the same shared
/// planner, so `lint --json --max-batch N` and the runtime agree bucket by
/// bucket. A rung the model cannot serve (batch-pinning ops, non-linear
/// scaling) is an ORV008/ORV009 error — exactly the load the engine would
/// reject with the same `max_batch` — and its arena prediction is skipped.
pub fn lint_with_batch(graph: &Graph, max_batch: usize) -> LintReport {
    let mut report = lint_base(graph, max_batch);
    if report.errors() > 0 {
        return report;
    }
    let base = graph
        .inputs()
        .first()
        .and_then(|info| info.dims.first())
        .copied()
        .unwrap_or(1);
    let ladder = crate::plan::batch_buckets(base, max_batch);
    if ladder.len() < 2 {
        return report;
    }
    for batch in ladder {
        if let Ok(arena) = plan::arena_report_with_batch(graph, batch) {
            report.bucket_arenas.push((batch, arena));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Code;
    use crate::plan_check::BucketVerdict;
    use orpheus_graph::{Node, OpKind, ValueInfo};

    fn parsed(report: &LintReport) -> JsonValue {
        JsonValue::parse(&report.to_json().to_string()).unwrap()
    }

    fn tiny() -> Graph {
        let mut g = Graph::new("tiny");
        g.add_input(ValueInfo::new("x", &[1, 4]));
        g.add_node(Node::new("relu", OpKind::Relu, &["x"], &["y"]));
        g.add_output("y");
        g
    }

    #[test]
    fn clean_report_has_memory_and_no_findings() {
        let report = lint(&tiny());
        assert_eq!(report.errors(), 0);
        assert_eq!(report.warnings(), 0);
        let memory = report.memory.as_ref().expect("memory report");
        assert_eq!(memory.peak_bytes, 32);
        assert!(report.render().contains("0 error(s)"));
        assert_eq!(parsed(&report).get("errors").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn batched_lint_reports_every_bucket() {
        let report = lint_with_batch(&tiny(), 4);
        let batches: Vec<usize> = report.bucket_arenas.iter().map(|(b, _)| *b).collect();
        assert_eq!(batches, vec![1, 2, 4]);
        let base = report.arena.as_ref().unwrap().arena_bytes;
        for (batch, arena) in &report.bucket_arenas {
            assert_eq!(arena.arena_bytes, base * batch, "bucket {batch}");
        }
        assert!(
            report.render().contains("batch bucket 4:"),
            "{}",
            report.render()
        );
        let json = parsed(&report);
        let rows = json.get("bucket_arenas").unwrap().as_array().unwrap();
        let row_batches: Vec<Option<u64>> = rows
            .iter()
            .map(|row| row.get("batch").unwrap().as_u64())
            .collect();
        assert_eq!(row_batches, vec![Some(1), Some(2), Some(4)]);
        // Plain lint stays bucket-free (and so does max_batch 1).
        assert!(lint(&tiny()).bucket_arenas.is_empty());
        assert!(lint_with_batch(&tiny(), 1).bucket_arenas.is_empty());
        assert_eq!(
            parsed(&lint(&tiny())).get("bucket_arenas"),
            Some(&JsonValue::Arr(vec![]))
        );
    }

    #[test]
    fn broken_report_skips_memory() {
        let mut g = tiny();
        g.add_node(Node::new("b", OpKind::Relu, &["ghost"], &["z"]));
        g.add_output("z");
        let report = lint(&g);
        assert!(report.errors() > 0);
        assert!(report.memory.is_none());
        assert_eq!(parsed(&report).get("memory"), Some(&JsonValue::Null));
        assert!(report.render().contains("ORV002"));
    }

    #[test]
    fn every_verify_artifact_parses_back() {
        let mut broken = tiny();
        broken.add_node(Node::new("b", OpKind::Relu, &["ghost"], &["z"]));
        let broken = lint(&broken);
        let plan = PlanCheckReport {
            model: "tiny".into(),
            buckets: vec![BucketVerdict {
                batch: 2,
                diagnostics: vec![Diagnostic::at(Code::UndefinedValue, "n\"0\n", "m")],
            }],
            ladder: vec![Diagnostic::graph(Code::Cycle, "ladder")],
        };
        let mut checked = lint_with_batch(&tiny(), 2);
        checked.plan = Some(plan.clone());
        let memory = checked.memory.clone().unwrap();
        let arena = checked.arena.clone().unwrap();
        let lint_keys = [
            "schema_version",
            "model",
            "nodes",
            "parameters",
            "errors",
            "warnings",
            "diagnostics",
            "memory",
            "arena",
            "bucket_arenas",
            "plan",
        ];
        // (artifact, tree, every key in schema order, spot-checked values)
        type Case<'a> = (&'a str, JsonValue, &'a [&'a str], Vec<(&'a str, JsonValue)>);
        let cases: Vec<Case> = vec![
            (
                "lint",
                checked.to_json(),
                &lint_keys,
                vec![
                    ("schema_version", 2u64.into()),
                    ("model", "tiny".into()),
                    ("errors", 2u64.into()),
                ],
            ),
            (
                "broken lint",
                broken.to_json(),
                &lint_keys,
                vec![("memory", JsonValue::Null), ("plan", JsonValue::Null)],
            ),
            (
                "plan check",
                plan.to_json(),
                &["model", "errors", "buckets", "ladder"],
                vec![("model", "tiny".into()), ("errors", 2u64.into())],
            ),
            (
                "diagnostic",
                plan.buckets[0].diagnostics[0].to_json(),
                &["code", "severity", "node", "message"],
                vec![
                    ("code", "ORV002".into()),
                    ("severity", "error".into()),
                    ("node", "n\"0\n".into()),
                ],
            ),
            (
                "memory",
                memory.to_json(),
                &[
                    "peak_bytes",
                    "peak_node",
                    "total_allocated_bytes",
                    "parameter_bytes",
                    "num_activations",
                ],
                vec![("peak_bytes", 32u64.into())],
            ),
            (
                "arena",
                arena.to_json(),
                &[
                    "arena_bytes",
                    "num_buffers",
                    "num_values",
                    "total_value_bytes",
                    "reuse_ratio",
                ],
                vec![("arena_bytes", arena.arena_bytes.into())],
            ),
        ];
        for (artifact, tree, keys, values) in cases {
            let back = JsonValue::parse(&tree.to_string())
                .unwrap_or_else(|e| panic!("{artifact} does not parse: {e}"));
            assert_eq!(back, tree, "{artifact} round trip");
            let JsonValue::Obj(members) = &back else {
                panic!("{artifact} is not an object");
            };
            let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, keys, "{artifact} keys");
            for (key, value) in values {
                assert_eq!(back.get(key), Some(&value), "{artifact}.{key}");
            }
        }
    }
}
