//! dio-rules: a declarative diagnosis rule DSL with a verifier-grade
//! static analysis pass.
//!
//! Rules are small text programs over the 42-syscall event-document
//! contract:
//!
//! ```text
//! rule data_loss
//!   when syscall in (read, pread64) and first_read and generation > 1
//!        and offset > 0 and ret_val == 0
//!   then alert(critical, data_loss, "stale-offset read returned 0 bytes")
//!
//! rule error_rate on window(1s) by class
//!   when count >= 20 and error_fraction >= 0.25
//!   then alert(warning, error_rate_anomaly, "class error rate over 25%")
//! ```
//!
//! Loading follows the same load-time philosophy as the eBPF verifier
//! (and `dio-verify`'s filter checking): a rule file is **statically
//! verified before it may touch the engine**. The pipeline is
//!
//! 1. [`parse_rules`] — lexer + recursive-descent parser with spanned
//!    errors; the pretty-printer ([`Rule`]'s `Display`) is canonical,
//!    `print → reparse` is a fixpoint;
//! 2. [`verify_rules`] — the typed semantic pass over the field catalog
//!    ([`catalog`]) derived from the syscall contract: unknown fields,
//!    enum-domain violations, type and unit errors, window-cost bounds,
//!    scope errors, duplicate/shadowed rules, and abstract-interpretation
//!    proofs of statically-empty and tautological predicates
//!    ([`RuleCheck`] lists all thirteen checks);
//! 3. [`compile()`] — only a file with no rejecting diagnostic becomes a
//!    [`RuleSet`], a `DynDetector` that installs into the
//!    `DiagnosisEngine` and emits typed `Alert` documents.
//!
//! At runtime predicates evaluate in Kleene's strong three-valued logic
//! (a missing field is *unknown*, and only a definitely-true predicate
//! fires), which makes the classical unsatisfiability proofs of the
//! static pass sound against the live stream: a rejected rule provably
//! never fires, so rejecting it loses nothing.

pub mod analysis;
pub mod ast;
pub mod catalog;
pub mod check;
pub mod compile;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod shipped;

pub use ast::{Action, BinOp, Expr, ExprKind, KeyDim, Rule, RuleFile, SeverityLit, Span, Trigger};
pub use check::{
    verify_rules, RuleCheck, RuleDiagnostic, RulesError, RulesReport, MAX_WINDOW_NS,
    MAX_WINDOW_OVERLAP,
};
pub use compile::{compile, compile_file, compile_unchecked, CompileError, RuleSet};
pub use lexer::ParseError;
pub use parser::{parse_expr, parse_rules};

/// Generated reference for the DSL: the field catalog and the static
/// diagnostic catalog, as markdown tables.
///
/// `dio-verify --write-docs` splices this between the
/// `dio-rules:reference` markers in the documentation, keeping the docs
/// in lock-step with the implementation.
pub fn reference_markdown() -> String {
    let mut out = String::new();
    out.push_str("**Predicate fields** (typed against the event-document contract):\n\n");
    out.push_str("| field | type | domain |\n|---|---|---|\n");
    for field in catalog::FIELDS {
        let domain = field.domain.map(|d| d.describe()).unwrap_or("—");
        out.push_str(&format!("| `{}` | {} | {} |\n", field.name, field.ty.describe(), domain));
    }
    out.push_str("\n**Stream atoms** (`on stream` rules only): ");
    let atoms: Vec<String> = catalog::STREAM_ATOMS.iter().map(|&(n, _)| format!("`{n}`")).collect();
    out.push_str(&atoms.join(", "));
    out.push_str(", `follows(<syscall>)`.\n");
    out.push_str("\n**Window aggregates** (`on window` rules only): ");
    let aggs: Vec<String> = catalog::AGGREGATES.iter().map(|&(n, _)| format!("`{n}`")).collect();
    out.push_str(&aggs.join(", "));
    out.push_str(&format!(
        ".\n\nA rule that reads `mean_when` and has matched nothing by end of stream has its \
         sealed windows (the newest {}) judged once more, `mean_when` taken over the whole \
         stream; each match fires with its window's bounds.\n",
        compile::MAX_RETAINED_WINDOWS
    ));
    out.push_str("\n**Static checks** (reject = the file never reaches the engine):\n\n");
    out.push_str("| check | level | flags |\n|---|---|---|\n");
    for check in RuleCheck::ALL {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            check.name(),
            if check.rejects() { "reject" } else { "warn" },
            check.describe()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_markdown_covers_fields_and_checks() {
        let md = reference_markdown();
        assert!(md.contains("| `latency_ns` | nanoseconds |"), "{md}");
        assert!(md.contains("`unsatisfiable-predicate`"), "{md}");
        assert!(md.contains("| `unit-confusion` | warn |"), "{md}");
        assert_eq!(md.matches("| `").count(), catalog::FIELDS.len() + RuleCheck::ALL.len());
    }

    #[test]
    fn end_to_end_compile_pipeline() {
        let set = compile(shipped::FIG2_DATA_LOSS).unwrap();
        assert_eq!(set.names(), ["data_loss", "stale_offset_resume", "validated_restart"]);
    }
}
