//! Def-use chains and dataflow analyses over the graph IR.
//!
//! Everything here is read-only: analyses compute facts (liveness, peak
//! activation memory, reachability) that the verifier, the lint report, and
//! tests consume. The liveness model mirrors the engine's session executor —
//! a value is materialized when its producer runs and its buffer reclaimed
//! right after its last consumer — so the static peak estimate is directly
//! comparable with the planned arena `Network::run_profiled` reports as its
//! peak, without running the model.

use std::collections::{HashMap, HashSet};

use orpheus_graph::{infer_shapes, Graph, GraphError};
use orpheus_observe::json::JsonValue;

/// Bytes per activation element (the engine executes in `f32`).
const BYTES_PER_ELEMENT: usize = 4;

/// Def-use chains: who produces and who consumes every value.
#[derive(Debug, Default)]
pub struct DefUse {
    /// Value name → producing node index (first producer wins on duplicates;
    /// the verifier reports duplicates separately).
    pub producers: HashMap<String, usize>,
    /// Value name → consuming node indices, in node order.
    pub consumers: HashMap<String, Vec<usize>>,
}

impl DefUse {
    /// Builds the chains for a graph.
    pub fn build(graph: &Graph) -> DefUse {
        let mut def_use = DefUse::default();
        for (idx, node) in graph.nodes().iter().enumerate() {
            for out in &node.outputs {
                def_use.producers.entry(out.clone()).or_insert(idx);
            }
            for input in node.inputs.iter().filter(|i| !i.is_empty()) {
                def_use
                    .consumers
                    .entry(input.clone())
                    .or_default()
                    .push(idx);
            }
        }
        def_use
    }
}

/// Node indices that cannot affect any graph output (backward reachability
/// from the outputs). Independent reimplementation of the `DeadCodeElim`
/// marking phase, so the two cross-check each other.
pub fn dead_nodes(graph: &Graph) -> Vec<usize> {
    let def_use = DefUse::build(graph);
    let mut live: HashSet<usize> = HashSet::new();
    let mut stack: Vec<&str> = graph.outputs().iter().map(String::as_str).collect();
    let mut seen: HashSet<&str> = stack.iter().copied().collect();
    while let Some(value) = stack.pop() {
        if let Some(&idx) = def_use.producers.get(value) {
            if live.insert(idx) {
                for input in graph.nodes()[idx].inputs.iter().filter(|i| !i.is_empty()) {
                    if seen.insert(input.as_str()) {
                        stack.push(input.as_str());
                    }
                }
            }
        }
    }
    (0..graph.nodes().len())
        .filter(|idx| !live.contains(idx))
        .collect()
}

/// Initializer names no node input or graph output reads.
pub fn unused_initializers(graph: &Graph) -> Vec<String> {
    let consumed: HashSet<&str> = graph
        .nodes()
        .iter()
        .flat_map(|n| n.inputs.iter())
        .map(String::as_str)
        .chain(graph.outputs().iter().map(String::as_str))
        .collect();
    graph
        .initializers()
        .keys()
        .filter(|name| !consumed.contains(name.as_str()))
        .cloned()
        .collect()
}

/// Graph input names no node input or graph output reads.
pub fn unused_inputs(graph: &Graph) -> Vec<String> {
    let consumed: HashSet<&str> = graph
        .nodes()
        .iter()
        .flat_map(|n| n.inputs.iter())
        .map(String::as_str)
        .chain(graph.outputs().iter().map(String::as_str))
        .collect();
    graph
        .inputs()
        .iter()
        .filter(|info| !consumed.contains(info.name.as_str()))
        .map(|info| info.name.clone())
        .collect()
}

/// Static activation-memory report, from liveness over the inferred shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryReport {
    /// Peak bytes of simultaneously-live activations.
    pub peak_bytes: usize,
    /// The node whose execution hits the peak.
    pub peak_node: Option<String>,
    /// Sum of all activation allocations over one inference.
    pub total_allocated_bytes: usize,
    /// Bytes held by weight initializers (static, always resident).
    pub parameter_bytes: usize,
    /// Number of activation values tracked.
    pub num_activations: usize,
}

impl MemoryReport {
    /// Renders the report as indented text lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  peak activations: {:>10} ({})",
            self.peak_bytes,
            human_bytes(self.peak_bytes)
        ));
        if let Some(node) = &self.peak_node {
            out.push_str(&format!(" at node {node:?}"));
        }
        out.push('\n');
        out.push_str(&format!(
            "  total allocated:  {:>10} ({}) across {} activation(s)\n",
            self.total_allocated_bytes,
            human_bytes(self.total_allocated_bytes),
            self.num_activations
        ));
        out.push_str(&format!(
            "  parameters:       {:>10} ({})\n",
            self.parameter_bytes,
            human_bytes(self.parameter_bytes)
        ));
        out
    }

    /// The report as one JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("peak_bytes", self.peak_bytes.into()),
            ("peak_node", self.peak_node.as_deref().into()),
            ("total_allocated_bytes", self.total_allocated_bytes.into()),
            ("parameter_bytes", self.parameter_bytes.into()),
            ("num_activations", self.num_activations.into()),
        ])
    }
}

/// Formats a byte count with a binary-unit suffix.
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

/// Computes the static activation-memory report.
///
/// Walks the nodes in topological order; a value becomes live when produced
/// (graph inputs at step 0) and dies after its last consumer, except graph
/// outputs which stay live to the end — the same policy the executor's
/// liveness-driven reclamation applies.
///
/// # Errors
///
/// Propagates cycle and shape-inference failures; the verifier reports those
/// structurally first.
pub fn memory_report(graph: &Graph) -> Result<MemoryReport, GraphError> {
    let shapes = infer_shapes(graph)?;
    let order = graph.topo_order()?;
    let value_bytes = |name: &str| -> usize {
        shapes
            .get(name)
            .map(|dims| dims.iter().product::<usize>() * BYTES_PER_ELEMENT)
            .unwrap_or(0)
    };

    // Last (topo-position) use of every activation; graph outputs never die.
    let graph_outputs: HashSet<&str> = graph.outputs().iter().map(String::as_str).collect();
    let mut last_use: HashMap<&str, usize> = HashMap::new();
    for (pos, &idx) in order.iter().enumerate() {
        for input in graph.nodes()[idx].inputs.iter().filter(|i| !i.is_empty()) {
            last_use.insert(input.as_str(), pos);
        }
    }

    let initializer_names: HashSet<&str> =
        graph.initializers().keys().map(String::as_str).collect();
    let mut live: HashMap<&str, usize> = HashMap::new();
    let mut live_bytes = 0usize;
    let mut total_allocated = 0usize;
    let mut num_activations = 0usize;
    for info in graph.inputs() {
        let bytes = value_bytes(&info.name);
        live.insert(info.name.as_str(), bytes);
        live_bytes += bytes;
        total_allocated += bytes;
        num_activations += 1;
    }
    let mut peak_bytes = live_bytes;
    let mut peak_node = None;

    for (pos, &idx) in order.iter().enumerate() {
        let node = &graph.nodes()[idx];
        for out in &node.outputs {
            // A pass may have folded a node output into an initializer under
            // the same name; initializers are parameters, not activations.
            if initializer_names.contains(out.as_str()) {
                continue;
            }
            let bytes = value_bytes(out);
            if live.insert(out.as_str(), bytes).is_none() {
                live_bytes += bytes;
                total_allocated += bytes;
                num_activations += 1;
            }
        }
        if live_bytes > peak_bytes {
            peak_bytes = live_bytes;
            peak_node = Some(node.name.clone());
        }
        // Reclaim everything whose final consumer just ran.
        let dead: Vec<&str> = live
            .keys()
            .filter(|name| {
                !graph_outputs.contains(*name) && last_use.get(*name).is_none_or(|&l| l <= pos)
            })
            .copied()
            .collect();
        for name in dead {
            if let Some(bytes) = live.remove(name) {
                live_bytes -= bytes;
            }
        }
    }

    let parameter_bytes = graph
        .initializers()
        .values()
        .map(|t| t.len() * BYTES_PER_ELEMENT)
        .sum();
    Ok(MemoryReport {
        peak_bytes,
        peak_node,
        total_allocated_bytes: total_allocated,
        parameter_bytes,
        num_activations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_graph::{Node, OpKind, ValueInfo};
    use orpheus_tensor::Tensor;

    fn chain() -> Graph {
        // x[16] -> relu -> y[16] -> sigmoid -> z[16]; peak = two live values.
        let mut g = Graph::new("chain");
        g.add_input(ValueInfo::new("x", &[1, 16]));
        g.add_node(Node::new("a", OpKind::Relu, &["x"], &["y"]));
        g.add_node(Node::new("b", OpKind::Sigmoid, &["y"], &["z"]));
        g.add_output("z");
        g
    }

    #[test]
    fn def_use_maps_producers_and_consumers() {
        let du = DefUse::build(&chain());
        assert_eq!(du.producers["y"], 0);
        assert_eq!(du.producers["z"], 1);
        assert_eq!(du.consumers["x"], vec![0]);
        assert_eq!(du.consumers["y"], vec![1]);
    }

    #[test]
    fn chain_peak_is_two_values() {
        let report = memory_report(&chain()).unwrap();
        // 16 floats = 64 bytes per value; at any step exactly two are live.
        assert_eq!(report.peak_bytes, 128);
        assert_eq!(report.total_allocated_bytes, 192);
        assert_eq!(report.num_activations, 3);
        assert_eq!(report.parameter_bytes, 0);
    }

    #[test]
    fn diamond_holds_both_branches_live() {
        let mut g = Graph::new("diamond");
        g.add_input(ValueInfo::new("x", &[1, 8]));
        g.add_node(Node::new("l", OpKind::Relu, &["x"], &["a"]));
        g.add_node(Node::new("r", OpKind::Sigmoid, &["x"], &["b"]));
        g.add_node(Node::new("j", OpKind::Add, &["a", "b"], &["y"]));
        g.add_output("y");
        let report = memory_report(&g).unwrap();
        // While "r" runs, x + a + b are live = 3 * 32 bytes (x is reclaimed
        // only after its last consumer finishes).
        assert_eq!(report.peak_bytes, 96);
        assert_eq!(report.peak_node.as_deref(), Some("r"));
    }

    #[test]
    fn dead_node_detection_matches_reachability() {
        let mut g = chain();
        g.add_node(Node::new("orphan", OpKind::Relu, &["x"], &["w"]));
        assert_eq!(dead_nodes(&g), vec![2]);
        assert!(dead_nodes(&chain()).is_empty());
    }

    #[test]
    fn unused_initializer_and_input_detection() {
        let mut g = chain();
        g.add_initializer("w_dead", Tensor::ones(&[4]));
        g.add_input(ValueInfo::new("unused_in", &[1]));
        assert_eq!(unused_initializers(&g), vec!["w_dead".to_string()]);
        assert_eq!(unused_inputs(&g), vec!["unused_in".to_string()]);
    }

    #[test]
    fn human_bytes_picks_sensible_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert!(human_bytes(3 * 1024 * 1024).contains("MiB"));
    }
}
