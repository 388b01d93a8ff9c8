//! Graph exporters: Graphviz DOT, Mermaid, and JSON.
//!
//! All three render from a [`GraphSnapshot`], so anything holding a
//! snapshot — `/api/dfg`, the `exp_dfg` experiment, tests — exports
//! identically. Node fill colors encode the syscall class (Table I);
//! edge pen width scales with the transition count and the label carries
//! `count @ p50` of the destination-call latency.

use std::fmt::Write as _;

use dio_telemetry::format_ns;

use crate::dfg::{DfgSnapshot, GraphSnapshot};

/// Graphviz fill color per syscall class.
fn class_color(class: &str) -> &'static str {
    match class {
        "data" => "#a7c7e7",
        "metadata" => "#b5e7a7",
        "extended attributes" => "#e7d7a7",
        "directory management" => "#e7a7c7",
        _ => "#dddddd",
    }
}

/// Renders a graph as Graphviz DOT (`digraph`).
pub fn to_dot(graph: &GraphSnapshot, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph dfg {{");
    let _ = writeln!(out, "  label=\"{}\";", title.replace('"', "'"));
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, style=filled, fontname=\"monospace\"];");
    for node in &graph.nodes {
        let _ = writeln!(
            out,
            "  \"{}\" [fillcolor=\"{}\", tooltip=\"{} ({}), {} calls\"];",
            node.syscall,
            class_color(&node.class),
            node.syscall,
            node.class,
            node.count
        );
    }
    let max_count = graph.edges.iter().map(|e| e.count).max().unwrap_or(1).max(1);
    for edge in &graph.edges {
        let width = 1.0 + 4.0 * edge.count as f64 / max_count as f64;
        let _ = writeln!(
            out,
            "  \"{}\" -> \"{}\" [label=\"{} @ {}\", penwidth={:.2}];",
            edge.from,
            edge.to,
            edge.count,
            format_ns(edge.latency.p50),
            width
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders a graph as a Mermaid flowchart (`graph LR`).
pub fn to_mermaid(graph: &GraphSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph LR");
    for node in &graph.nodes {
        let _ = writeln!(out, "  {}[\"{} ({})\"]", node.syscall, node.syscall, node.count);
    }
    for edge in &graph.edges {
        let _ = writeln!(
            out,
            "  {} -->|\"{} @ {}\"| {}",
            edge.from,
            edge.count,
            format_ns(edge.latency.p50),
            edge.to
        );
    }
    out
}

/// Serializes a full miner snapshot as a JSON value (the `/api/dfg`
/// payload).
pub fn to_json(snapshot: &DfgSnapshot) -> serde_json::Value {
    serde_json::to_value(snapshot).expect("snapshot serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::{DfgMiner, ProfileConfig};
    use serde_json::json;

    fn mined() -> DfgSnapshot {
        let miner = DfgMiner::new(ProfileConfig::default());
        miner.observe_batch(&[
            json!({"time": 10, "pid": 1, "tid": 1, "syscall": "write", "latency_ns": 100,
                   "proc_name": "app", "file_tag": "7|1|1"}),
            json!({"time": 20, "pid": 1, "tid": 1, "syscall": "fsync", "latency_ns": 900,
                   "proc_name": "app", "file_tag": "7|1|1"}),
        ]);
        miner.snapshot()
    }

    #[test]
    fn dot_is_well_formed() {
        let snap = mined();
        let dot = to_dot(&snap.global, "test session");
        assert!(dot.starts_with("digraph dfg {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("\"write\" -> \"fsync\""));
        assert!(dot.contains("label=\"1 @ 900ns\""));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn mermaid_lists_nodes_and_edges() {
        let snap = mined();
        let mermaid = to_mermaid(&snap.global);
        assert!(mermaid.starts_with("graph LR"));
        assert!(mermaid.contains("write -->"));
        assert!(mermaid.contains("| fsync"));
    }

    #[test]
    fn json_roundtrips_the_snapshot() {
        let snap = mined();
        let value = to_json(&snap);
        assert_eq!(value["transitions"], 1);
        let back: DfgSnapshot = serde_json::from_value(&value).unwrap();
        assert_eq!(back, snap);
    }
}
