//! Machine-readable diagnostics emitted by the verifier and lints.

use std::fmt;

use orpheus_observe::json::JsonValue;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: the graph is executable but wasteful or suspicious.
    Warning,
    /// The graph violates an invariant the backends rely on.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Stable diagnostic codes (`ORV0xx`).
///
/// Every code maps to exactly one invariant; tests pin codes, tools match on
/// them, and ARCHITECTURE.md documents each one. Codes are append-only —
/// never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// ORV001: a value name has more than one producer.
    DuplicateValue,
    /// ORV002: a node consumes a value no input, initializer, or node
    /// produces.
    UndefinedValue,
    /// ORV003: a declared graph output is never produced.
    MissingGraphOutput,
    /// ORV004: the node dependencies contain a cycle.
    Cycle,
    /// ORV005: two nodes share a name.
    DuplicateNodeName,
    /// ORV006: a node declares no outputs, or an empty output name.
    MissingNodeOutput,
    /// ORV007: an operator attribute is malformed for its op.
    MalformedAttribute,
    /// ORV008: shape inference fails on the graph.
    ShapeInference,
    /// ORV009: a value's inferred shape diverges from the recorded baseline.
    ShapeMismatch,
    /// ORV010: a node cannot affect any graph output.
    DeadNode,
    /// ORV011: an initializer is read by no node or output.
    UnusedInitializer,
    /// ORV012: a node output overwrites a graph input or initializer name
    /// (single-writer violation).
    ImmutableOverwrite,
    /// ORV013: a declared graph input is read by nothing.
    UnusedGraphInput,
    /// ORV014: the graph declares no outputs.
    NoGraphOutputs,
    /// ORV015: a plan step reads a slot after its buffer was reclaimed (or
    /// the reclaim is scheduled before the slot's final read).
    PlanUseAfterReclaim,
    /// ORV016: a plan materializes a slot into an arena buffer still owned
    /// by another live slot.
    PlanBufferAliasing,
    /// ORV017: a view-move on a step whose input is not a dying
    /// single-reader alias of the output.
    PlanInvalidViewMove,
    /// ORV018: a plan step reads a slot before any step writes it (or the
    /// output slot is never produced).
    PlanReadBeforeWrite,
    /// ORV019: a slot is written more than once (or a step overwrites the
    /// input slot) within one liveness interval.
    PlanMultipleWriters,
    /// ORV020: an arena buffer's extent is smaller than the footprint of a
    /// slot it hosts (or a slot names a buffer the plan does not have).
    PlanExtentOverflow,
    /// ORV021: a reclaim is missing, duplicated, or targets a slot that is
    /// not a dying live value — the buffer never returns to the arena
    /// (or returns at the wrong time).
    PlanReclaimLeak,
    /// ORV022: the batch-bucket ladder is inconsistent — non-monotone arena
    /// bytes, differing view-move/reclaim schedules, or malformed per-bucket
    /// tables.
    PlanBucketMismatch,
}

impl Code {
    /// The stable `ORV0xx` string.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::DuplicateValue => "ORV001",
            Code::UndefinedValue => "ORV002",
            Code::MissingGraphOutput => "ORV003",
            Code::Cycle => "ORV004",
            Code::DuplicateNodeName => "ORV005",
            Code::MissingNodeOutput => "ORV006",
            Code::MalformedAttribute => "ORV007",
            Code::ShapeInference => "ORV008",
            Code::ShapeMismatch => "ORV009",
            Code::DeadNode => "ORV010",
            Code::UnusedInitializer => "ORV011",
            Code::ImmutableOverwrite => "ORV012",
            Code::UnusedGraphInput => "ORV013",
            Code::NoGraphOutputs => "ORV014",
            Code::PlanUseAfterReclaim => "ORV015",
            Code::PlanBufferAliasing => "ORV016",
            Code::PlanInvalidViewMove => "ORV017",
            Code::PlanReadBeforeWrite => "ORV018",
            Code::PlanMultipleWriters => "ORV019",
            Code::PlanExtentOverflow => "ORV020",
            Code::PlanReclaimLeak => "ORV021",
            Code::PlanBucketMismatch => "ORV022",
        }
    }

    /// The severity this code is reported at.
    pub fn severity(&self) -> Severity {
        match self {
            Code::DeadNode | Code::UnusedInitializer | Code::UnusedGraphInput => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line human description of the invariant, used by docs and `--json`
    /// consumers that want a legend.
    pub fn description(&self) -> &'static str {
        match self {
            Code::DuplicateValue => "value name has more than one producer",
            Code::UndefinedValue => "node consumes a value nothing produces",
            Code::MissingGraphOutput => "graph output is never produced",
            Code::Cycle => "node dependencies form a cycle",
            Code::DuplicateNodeName => "two nodes share a name",
            Code::MissingNodeOutput => "node declares no (or an empty) output",
            Code::MalformedAttribute => "operator attribute malformed for its op",
            Code::ShapeInference => "shape inference failed",
            Code::ShapeMismatch => "inferred shape diverges from baseline annotation",
            Code::DeadNode => "node cannot affect any graph output",
            Code::UnusedInitializer => "initializer is never read",
            Code::ImmutableOverwrite => "node output overwrites an input or initializer",
            Code::UnusedGraphInput => "graph input is never read",
            Code::NoGraphOutputs => "graph declares no outputs",
            Code::PlanUseAfterReclaim => "plan reads a slot after its buffer was reclaimed",
            Code::PlanBufferAliasing => "plan maps two simultaneously-live slots to one buffer",
            Code::PlanInvalidViewMove => "view-move input is not a dying single-reader alias",
            Code::PlanReadBeforeWrite => "plan reads a slot before any step writes it",
            Code::PlanMultipleWriters => "slot is written more than once per liveness interval",
            Code::PlanExtentOverflow => "buffer extent is smaller than a hosted slot's footprint",
            Code::PlanReclaimLeak => "buffer is never (or wrongly) returned to the arena",
            Code::PlanBucketMismatch => "batch-bucket ladder is inconsistent across rungs",
        }
    }

    /// Whether the code belongs to the execution-plan checker
    /// (`ORV015`–`ORV022`) rather than the graph IR verifier.
    pub fn is_plan_code(&self) -> bool {
        matches!(
            self,
            Code::PlanUseAfterReclaim
                | Code::PlanBufferAliasing
                | Code::PlanInvalidViewMove
                | Code::PlanReadBeforeWrite
                | Code::PlanMultipleWriters
                | Code::PlanExtentOverflow
                | Code::PlanReclaimLeak
                | Code::PlanBucketMismatch
        )
    }

    /// Every code, in numbering order (docs and legends iterate this).
    pub const ALL: [Code; 22] = [
        Code::DuplicateValue,
        Code::UndefinedValue,
        Code::MissingGraphOutput,
        Code::Cycle,
        Code::DuplicateNodeName,
        Code::MissingNodeOutput,
        Code::MalformedAttribute,
        Code::ShapeInference,
        Code::ShapeMismatch,
        Code::DeadNode,
        Code::UnusedInitializer,
        Code::ImmutableOverwrite,
        Code::UnusedGraphInput,
        Code::NoGraphOutputs,
        Code::PlanUseAfterReclaim,
        Code::PlanBufferAliasing,
        Code::PlanInvalidViewMove,
        Code::PlanReadBeforeWrite,
        Code::PlanMultipleWriters,
        Code::PlanExtentOverflow,
        Code::PlanReclaimLeak,
        Code::PlanBucketMismatch,
    ];
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (derived from the code).
    pub severity: Severity,
    /// The node the finding anchors to, when one is identifiable.
    pub node: Option<String>,
    /// What went wrong, with concrete names and shapes.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic anchored to a node.
    pub fn at(code: Code, node: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            node: Some(node.to_string()),
            message: message.into(),
        }
    }

    /// Creates a graph-level diagnostic.
    pub fn graph(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            node: None,
            message: message.into(),
        }
    }

    /// The diagnostic as one JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("code", self.code.as_str().into()),
            ("severity", JsonValue::Str(self.severity.to_string())),
            ("node", self.node.as_deref().into()),
            ("message", self.message.as_str().into()),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity, self.code)?;
        if let Some(node) = &self.node {
            write!(f, " at {node:?}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Whether any diagnostic in the slice is an error.
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for code in Code::ALL {
            assert!(seen.insert(code.as_str()), "duplicate code {code}");
            assert!(code.as_str().starts_with("ORV"));
            assert!(!code.description().is_empty());
        }
        assert_eq!(seen.len(), Code::ALL.len());
    }

    #[test]
    fn display_names_node_and_code() {
        let d = Diagnostic::at(Code::UndefinedValue, "conv0", "reads ghost value \"w\"");
        let text = d.to_string();
        assert!(text.contains("ORV002"));
        assert!(text.contains("conv0"));
        assert!(text.contains("error"));
    }

    #[test]
    fn json_escapes_names() {
        let d = Diagnostic::at(Code::DeadNode, "a\"b", "x");
        let text = d.to_json().to_string();
        assert!(text.contains("a\\\"b"));
        let json = JsonValue::parse(&text).unwrap();
        assert_eq!(json.get("node").unwrap().as_str(), Some("a\"b"));
        assert_eq!(json.get("severity").unwrap().as_str(), Some("warning"));
        let g = Diagnostic::graph(Code::NoGraphOutputs, "empty");
        let json = JsonValue::parse(&g.to_json().to_string()).unwrap();
        assert_eq!(json.get("node"), Some(&JsonValue::Null));
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let warn = Diagnostic::graph(Code::DeadNode, "w");
        let err = Diagnostic::graph(Code::Cycle, "e");
        assert!(!has_errors(std::slice::from_ref(&warn)));
        assert!(has_errors(&[warn, err]));
    }
}
