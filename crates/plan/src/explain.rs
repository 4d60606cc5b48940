//! Deterministic plan renderings: the text tree behind `:explain` and the
//! machine-readable JSON behind `nestdb explain --format json`.
//!
//! Both renderings are stable by construction — no hashing, no pointer
//! identity, no map iteration order — so they can be snapshot-tested as
//! goldens.

use crate::ir::{NodeId, Op, Plan};
use no_algebra::Pred;
use no_core::print::Printer;

/// Render a cardinality estimate (`u64::MAX` means "saturated").
fn est_str(est: u64) -> String {
    if est == u64::MAX {
        "≥2^63".to_string()
    } else {
        est.to_string()
    }
}

/// Human rendering of an algebra predicate (`#n` is column `n`, 1-based).
pub fn pred_str(p: &Pred) -> String {
    let printer = Printer::new();
    match p {
        Pred::EqCols(a, b) => format!("#{a} = #{b}"),
        Pred::EqConst(a, v) => format!("#{a} = {}", printer.value(v)),
        Pred::InCols(a, b) => format!("#{a} ∈ #{b}"),
        Pred::SubsetCols(a, b) => format!("#{a} ⊆ #{b}"),
        Pred::Not(inner) => format!("¬({})", pred_str(inner)),
        Pred::And(x, y) => format!("({} ∧ {})", pred_str(x), pred_str(y)),
        Pred::Or(x, y) => format!("({} ∨ {})", pred_str(x), pred_str(y)),
    }
}

/// The one-line operator description used by both renderings.
pub fn op_detail(op: &Op) -> String {
    match op {
        Op::Scan { rel } => format!("scan {rel}"),
        Op::DeltaScan { rel } => format!("delta-scan Δ{rel}"),
        Op::Lookup { rel, key, rest } => {
            let key = Pred::EqConst(1, key.clone());
            match rest {
                Some(p) => format!(
                    "lookup {rel}[{}], filter σ[{}]",
                    pred_str(&key),
                    pred_str(p)
                ),
                None => format!("lookup {rel}[{}]", pred_str(&key)),
            }
        }
        Op::Select { pred } => format!("select σ[{}]", pred_str(pred)),
        Op::Filter { desc } => format!("filter {desc}"),
        Op::Project { cols } => format!(
            "project π[{}]",
            cols.iter()
                .map(|c| format!("#{c}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Op::Join => "join ×".to_string(),
        Op::Union => "union ∪".to_string(),
        Op::Difference => "difference ∖".to_string(),
        Op::Intersect => "intersect ∩".to_string(),
        Op::Nest { col } => format!("nest ν[#{col}]"),
        Op::Unnest { col } => format!("unnest μ[#{col}]"),
        Op::Powerset => "powerset Π".to_string(),
        Op::Const { rows, .. } => format!("const ({} rows)", rows.len()),
        Op::Range {
            var,
            rule,
            citation,
        } => format!("range {var} ← rule {rule} ({citation})"),
        Op::ActiveDomain { var, ty } => format!("active-domain {var}: {ty}"),
        Op::Enumerate { vars } => format!("enumerate ({})", vars.join(", ")),
        Op::Quantify { quant, var } => format!("quantify {quant}{var}"),
        Op::Fixpoint { op, rel } => format!("fixpoint {op} {rel}"),
        Op::Rule { head, delta_pos } => match delta_pos {
            Some(k) => format!("rule {head} [Δ at body literal {k}]"),
            None => format!("rule {head}"),
        },
        Op::Program { semantics } => format!("program [{semantics}]"),
    }
}

/// Render the plan as an indented tree.
pub fn plan_tree_text(plan: &Plan) -> String {
    let mut out = String::new();
    render_text(plan, plan.root, "", true, true, &mut out);
    out
}

fn render_text(
    plan: &Plan,
    id: NodeId,
    prefix: &str,
    is_last: bool,
    is_root: bool,
    out: &mut String,
) {
    let node = plan.node(id);
    let (branch, child_prefix) = if is_root {
        (String::new(), String::new())
    } else if is_last {
        (format!("{prefix}└─ "), format!("{prefix}   "))
    } else {
        (format!("{prefix}├─ "), format!("{prefix}│  "))
    };
    let mut line = format!("{branch}{}", op_detail(&node.op));
    if let Some(est) = node.est {
        line.push_str(&format!(" [est {}]", est_str(est)));
    }
    if let Some(note) = &node.note {
        line.push_str(&format!(" — {note}"));
    }
    out.push_str(&line);
    out.push('\n');
    let n = node.children.len();
    for (i, &c) in node.children.iter().enumerate() {
        render_text(plan, c, &child_prefix, i + 1 == n, false, out);
    }
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one node (and its subtree) as a JSON object.
pub fn node_json(plan: &Plan, id: NodeId) -> String {
    let node = plan.node(id);
    let mut fields = vec![
        format!("\"op\": \"{}\"", json_escape(node.op.name())),
        format!("\"detail\": \"{}\"", json_escape(&op_detail(&node.op))),
    ];
    if let Some(est) = node.est {
        fields.push(format!("\"est\": {est}"));
    }
    if let Some(note) = &node.note {
        fields.push(format!("\"note\": \"{}\"", json_escape(note)));
    }
    if !node.children.is_empty() {
        let children: Vec<String> = node.children.iter().map(|&c| node_json(plan, c)).collect();
        fields.push(format!("\"children\": [{}]", children.join(", ")));
    }
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_renders_every_occurrence_in_full() {
        let mut p = Plan::new();
        let a = p.add_est(
            Op::Scan {
                rel: "G".to_string(),
            },
            vec![],
            Some(5),
        );
        p.root = p.add(Op::Join, vec![a, a]);
        let text = plan_tree_text(&p);
        assert_eq!(text, "join ×\n├─ scan G [est 5]\n└─ scan G [est 5]\n");
    }

    #[test]
    fn json_is_escaped_and_nested() {
        let mut p = Plan::new();
        let a = p.add(
            Op::Filter {
                desc: "\"quoted\"".to_string(),
            },
            vec![],
        );
        p.root = p.add(Op::Powerset, vec![a]);
        let json = node_json(&p, p.root);
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"children\": ["), "{json}");
    }

    #[test]
    fn estimates_saturate_visibly() {
        assert_eq!(est_str(u64::MAX), "≥2^63");
        assert_eq!(est_str(42), "42");
    }
}
