//! The verifier: typed semantic diagnostics over parsed rule files.
//!
//! Mirrors the load-time contract of `dio-verify`: every finding is a
//! typed [`RuleDiagnostic`] naming its [`RuleCheck`], and a file with any
//! rejecting diagnostic never compiles onto the engine. Warnings
//! (`unit-confusion`, `shadowed-rule`, `gappy-window`) surface without
//! blocking the load.

use dio_diagnose::AlertKind;

use crate::analysis;
use crate::ast::{Action, BinOp, Expr, ExprKind, Rule, RuleFile, Span, Trigger};
use crate::catalog::{self, FieldTy};

/// Widest admissible window (bounds per-window memory and seal latency).
pub const MAX_WINDOW_NS: u64 = 600_000_000_000;

/// Most concurrently-open sliding windows per key (`width / slide`).
pub const MAX_WINDOW_OVERLAP: u64 = 64;

/// The typed static checks a rule file is verified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleCheck {
    /// A name that resolves to no catalog field, atom, or aggregate.
    UnknownField,
    /// A literal outside an enum field's finite domain (syscall names,
    /// classes, file types, alert kinds).
    UnknownEnumValue,
    /// An operator applied to operands of incompatible types.
    TypeMismatch,
    /// A nanosecond-valued expression compared against a bare numeric
    /// literal (or a duration against a non-time quantity).
    UnitConfusion,
    /// A predicate that provably can never evaluate to true.
    UnsatisfiablePredicate,
    /// A predicate that provably always evaluates to true.
    TautologicalPredicate,
    /// Two rules in one file sharing a name.
    DuplicateRule,
    /// A rule whose trigger, key, and predicate match an earlier rule.
    ShadowedRule,
    /// A window specification the engine refuses to pay for (zero width
    /// or slide, width over [`MAX_WINDOW_NS`], overlap over
    /// [`MAX_WINDOW_OVERLAP`]).
    WindowCost,
    /// A slide larger than the width: events can fall between windows.
    GappyWindow,
    /// A window aggregate outside a window context (stream rule, or
    /// nested inside an event predicate).
    AggregateWithoutWindow,
    /// A raw event field at window scope, where only aggregates have a
    /// per-window value.
    EventFieldOutsideAggregate,
    /// A stream sequence atom (`generation`, `first_read`, `follows`)
    /// inside a windowed rule.
    SequenceAtomInWindowRule,
}

impl RuleCheck {
    /// Every check, in documentation order.
    pub const ALL: &'static [RuleCheck] = &[
        RuleCheck::UnknownField,
        RuleCheck::UnknownEnumValue,
        RuleCheck::TypeMismatch,
        RuleCheck::UnitConfusion,
        RuleCheck::UnsatisfiablePredicate,
        RuleCheck::TautologicalPredicate,
        RuleCheck::DuplicateRule,
        RuleCheck::ShadowedRule,
        RuleCheck::WindowCost,
        RuleCheck::GappyWindow,
        RuleCheck::AggregateWithoutWindow,
        RuleCheck::EventFieldOutsideAggregate,
        RuleCheck::SequenceAtomInWindowRule,
    ];

    /// Stable kebab-case name used in reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            RuleCheck::UnknownField => "unknown-field",
            RuleCheck::UnknownEnumValue => "unknown-enum-value",
            RuleCheck::TypeMismatch => "type-mismatch",
            RuleCheck::UnitConfusion => "unit-confusion",
            RuleCheck::UnsatisfiablePredicate => "unsatisfiable-predicate",
            RuleCheck::TautologicalPredicate => "tautological-predicate",
            RuleCheck::DuplicateRule => "duplicate-rule",
            RuleCheck::ShadowedRule => "shadowed-rule",
            RuleCheck::WindowCost => "window-cost",
            RuleCheck::GappyWindow => "gappy-window",
            RuleCheck::AggregateWithoutWindow => "aggregate-without-window",
            RuleCheck::EventFieldOutsideAggregate => "event-field-outside-aggregate",
            RuleCheck::SequenceAtomInWindowRule => "sequence-atom-in-window-rule",
        }
    }

    /// One-line description for the generated reference table.
    pub fn describe(self) -> &'static str {
        match self {
            RuleCheck::UnknownField => {
                "a name that resolves to no document field, stream atom, or aggregate \
                 (with a did-you-mean suggestion)"
            }
            RuleCheck::UnknownEnumValue => {
                "a literal outside an enum field's finite domain: the 42 syscall names, \
                 the 4 classes, the 8 file types, or the typed alert kinds"
            }
            RuleCheck::TypeMismatch => "an operator applied to operands of incompatible types",
            RuleCheck::UnitConfusion => {
                "a nanosecond-valued expression compared against a bare numeric literal, \
                 or a duration literal against a unit-less quantity"
            }
            RuleCheck::UnsatisfiablePredicate => {
                "a predicate proven statically empty — it can never evaluate to true, \
                 and the proof is part of the diagnostic"
            }
            RuleCheck::TautologicalPredicate => "a predicate proven to fire on every evaluation",
            RuleCheck::DuplicateRule => "two rules in one file sharing a name",
            RuleCheck::ShadowedRule => {
                "a rule whose trigger, key, and canonical predicate match an earlier rule"
            }
            RuleCheck::WindowCost => {
                "a window the engine refuses to pay for: zero width or slide, width over \
                 600s, or more than 64 concurrently-open windows per key"
            }
            RuleCheck::GappyWindow => {
                "a slide larger than the width, leaving events no window ever evaluates"
            }
            RuleCheck::AggregateWithoutWindow => {
                "a window aggregate in a stream rule or nested inside an event predicate"
            }
            RuleCheck::EventFieldOutsideAggregate => {
                "a raw event field at window scope, where only aggregates have a value"
            }
            RuleCheck::SequenceAtomInWindowRule => {
                "a stream sequence atom (generation, first_read, follows) in a windowed rule"
            }
        }
    }

    /// Whether a finding of this check rejects the file (vs warning).
    pub fn rejects(self) -> bool {
        !matches!(self, RuleCheck::UnitConfusion | RuleCheck::ShadowedRule | RuleCheck::GappyWindow)
    }
}

impl std::fmt::Display for RuleCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding of the static pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDiagnostic {
    /// Which check fired.
    pub check: RuleCheck,
    /// Name of the offending rule.
    pub rule: String,
    /// Position the finding points at.
    pub span: Span,
    /// Human-readable explanation (with proof, for satisfiability checks).
    pub message: String,
}

impl RuleDiagnostic {
    /// Whether this finding rejects the file.
    pub fn rejects(&self) -> bool {
        self.check.rejects()
    }
}

impl std::fmt::Display for RuleDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let level = if self.rejects() { "error" } else { "warning" };
        write!(
            f,
            "{level}[{}]: rule `{}`: {} ({})",
            self.check.name(),
            self.rule,
            self.message,
            self.span
        )
    }
}

/// The full result of statically verifying a rule file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RulesReport {
    diagnostics: Vec<RuleDiagnostic>,
}

impl RulesReport {
    /// All findings, in rule order.
    pub fn diagnostics(&self) -> &[RuleDiagnostic] {
        &self.diagnostics
    }

    /// The rejecting findings.
    pub fn errors(&self) -> impl Iterator<Item = &RuleDiagnostic> {
        self.diagnostics.iter().filter(|d| d.rejects())
    }

    /// The non-rejecting findings.
    pub fn warnings(&self) -> impl Iterator<Item = &RuleDiagnostic> {
        self.diagnostics.iter().filter(|d| !d.rejects())
    }

    /// Whether the file passed (no rejecting findings).
    pub fn is_ok(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Whether `rule` was proven statically empty (can never fire).
    pub fn statically_empty(&self, rule: &str) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.check == RuleCheck::UnsatisfiablePredicate && d.rule == rule)
    }

    /// Appends `other`'s findings (a joined set's reports, in set order).
    pub(crate) fn extend(&mut self, other: RulesReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Converts into a result, rejecting on any error-level finding.
    pub fn into_result(self) -> Result<RulesReport, RulesError> {
        if self.is_ok() {
            Ok(self)
        } else {
            Err(RulesError { report: self })
        }
    }
}

/// A rule file rejected by the static pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RulesError {
    report: RulesReport,
}

impl RulesError {
    /// The full report behind the rejection.
    pub fn report(&self) -> &RulesReport {
        &self.report
    }

    /// Whether any finding is of the given check.
    pub fn violates(&self, check: RuleCheck) -> bool {
        self.report.diagnostics.iter().any(|d| d.check == check)
    }
}

impl std::fmt::Display for RulesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let errors = self.report.errors().count();
        writeln!(f, "rule file rejected: {errors} error(s)")?;
        for diag in &self.report.diagnostics {
            writeln!(f, "  {diag}")?;
        }
        Ok(())
    }
}

impl std::error::Error for RulesError {}

/// Runs every static check over a parsed rule file.
pub fn verify_rules(file: &RuleFile) -> RulesReport {
    let mut report = RulesReport::default();
    let mut seen_names: Vec<&str> = Vec::new();
    // (signature, name) of earlier rules, for shadowing detection.
    let mut signatures: Vec<(String, &str)> = Vec::new();
    for rule in &file.rules {
        let before = report.diagnostics.len();
        if seen_names.contains(&rule.name.as_str()) {
            report.diagnostics.push(RuleDiagnostic {
                check: RuleCheck::DuplicateRule,
                rule: rule.name.clone(),
                span: rule.name_span,
                message: format!("a rule named `{}` is already defined in this file", rule.name),
            });
        }
        seen_names.push(&rule.name);

        check_trigger(rule, &mut report.diagnostics);
        check_action(rule, &mut report.diagnostics);

        let windowed = matches!(rule.trigger, Trigger::Window { .. });
        let mut checker = Checker { rule, windowed, diags: &mut report.diagnostics };
        let top_ctx = if windowed { Ctx::Window } else { Ctx::Event };
        if let Some(ty) = checker.ty(&rule.when, top_ctx) {
            if ty != FieldTy::Bool {
                report.diagnostics.push(RuleDiagnostic {
                    check: RuleCheck::TypeMismatch,
                    rule: rule.name.clone(),
                    span: rule.when.span,
                    message: format!(
                        "rule predicate must be boolean, but this one is {}",
                        ty.describe()
                    ),
                });
            }
        }

        // Satisfiability analysis only over rules that type-check — a
        // reject above already blocks the load, and analyzing ill-typed
        // predicates would produce noise.
        let rejected = report.diagnostics[before..].iter().any(|d| d.rejects());
        if !rejected {
            if let Some(proof) = analysis::prove_unsat(&rule.when) {
                report.diagnostics.push(RuleDiagnostic {
                    check: RuleCheck::UnsatisfiablePredicate,
                    rule: rule.name.clone(),
                    span: rule.when.span,
                    message: format!("predicate is statically empty and can never fire: {proof}"),
                });
            } else if let Some(proof) = analysis::prove_taut(&rule.when) {
                report.diagnostics.push(RuleDiagnostic {
                    check: RuleCheck::TautologicalPredicate,
                    rule: rule.name.clone(),
                    span: rule.when.span,
                    message: format!(
                        "predicate is a tautology and fires on every evaluation: {proof}"
                    ),
                });
            }
        }

        // Structural shadowing: same trigger, key, and canonical predicate
        // as an earlier rule.
        let trigger_txt = match &rule.trigger {
            Trigger::Stream => "stream".to_string(),
            Trigger::Window { width, slide } => match slide {
                Some(s) => format!("window({width}, {s})"),
                None => format!("window({width})"),
            },
        };
        let key_txt = rule.key.map(|k| k.keyword()).unwrap_or("-");
        let signature = format!("{trigger_txt}|{key_txt}|{}", rule.when);
        if let Some((_, earlier)) = signatures.iter().find(|(sig, _)| *sig == signature) {
            report.diagnostics.push(RuleDiagnostic {
                check: RuleCheck::ShadowedRule,
                rule: rule.name.clone(),
                span: rule.name_span,
                message: format!(
                    "trigger, key, and predicate are identical to rule `{earlier}`; \
                     both rules fire on exactly the same matches"
                ),
            });
        } else {
            signatures.push((signature, &rule.name));
        }
    }
    report
}

/// Window-cost and key checks on the trigger clause.
fn check_trigger(rule: &Rule, diags: &mut Vec<RuleDiagnostic>) {
    match &rule.trigger {
        Trigger::Stream => {
            // `by` only keys windows; a stream rule evaluates per event.
            if let Some(key) = rule.key {
                diags.push(RuleDiagnostic {
                    check: RuleCheck::TypeMismatch,
                    rule: rule.name.clone(),
                    span: rule.name_span,
                    message: format!(
                        "`by {}` requires a window trigger; stream rules evaluate per event",
                        key.keyword()
                    ),
                });
            }
        }
        Trigger::Window { width, slide } => {
            if width.as_ns() == 0 {
                diags.push(RuleDiagnostic {
                    check: RuleCheck::WindowCost,
                    rule: rule.name.clone(),
                    span: width.span,
                    message: "zero-width window never contains an event".to_string(),
                });
            } else if width.as_ns() > MAX_WINDOW_NS {
                diags.push(RuleDiagnostic {
                    check: RuleCheck::WindowCost,
                    rule: rule.name.clone(),
                    span: width.span,
                    message: format!(
                        "window width {width} exceeds the {}s bound on per-window state",
                        MAX_WINDOW_NS / 1_000_000_000
                    ),
                });
            }
            if let Some(slide) = slide {
                if slide.as_ns() == 0 {
                    diags.push(RuleDiagnostic {
                        check: RuleCheck::WindowCost,
                        rule: rule.name.clone(),
                        span: slide.span,
                        message: "zero slide would open unboundedly many windows".to_string(),
                    });
                } else {
                    let overlap = width.as_ns().div_ceil(slide.as_ns());
                    if overlap > MAX_WINDOW_OVERLAP {
                        diags.push(RuleDiagnostic {
                            check: RuleCheck::WindowCost,
                            rule: rule.name.clone(),
                            span: slide.span,
                            message: format!(
                                "width {width} over slide {slide} keeps {overlap} windows \
                                 open per key, above the {MAX_WINDOW_OVERLAP} bound"
                            ),
                        });
                    }
                    if slide.as_ns() > width.as_ns() {
                        diags.push(RuleDiagnostic {
                            check: RuleCheck::GappyWindow,
                            rule: rule.name.clone(),
                            span: slide.span,
                            message: format!(
                                "slide {slide} exceeds width {width}; events between \
                                 windows are never evaluated"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Validates the alert-kind ident against the typed [`AlertKind`] set.
fn check_action(rule: &Rule, diags: &mut Vec<RuleDiagnostic>) {
    if let Action::Alert { kind: Some(kind), kind_span, .. } = &rule.action {
        if AlertKind::parse(kind).is_none() {
            diags.push(RuleDiagnostic {
                check: RuleCheck::UnknownEnumValue,
                rule: rule.name.clone(),
                span: *kind_span,
                message: format!(
                    "unknown alert kind `{kind}`; expected one of data_loss, \
                     stale_offset_resume, contention_skew, syscall_rate_anomaly, \
                     error_rate_anomaly, rule_match"
                ),
            });
        }
    }
}

/// Where an expression sits, which decides what names are in scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    /// Per-event scope: stream predicates and aggregate event arguments.
    Event,
    /// Per-window scope: window-rule predicates and `mean_when` conditions.
    Window,
}

struct Checker<'a> {
    rule: &'a Rule,
    windowed: bool,
    diags: &'a mut Vec<RuleDiagnostic>,
}

impl Checker<'_> {
    fn push(&mut self, check: RuleCheck, span: Span, message: String) {
        self.diags.push(RuleDiagnostic { check, rule: self.rule.name.clone(), span, message });
    }

    /// Infers the type of `e`, emitting diagnostics along the way.
    /// `None` means "already diagnosed" and suppresses cascades.
    fn ty(&mut self, e: &Expr, ctx: Ctx) -> Option<FieldTy> {
        match &e.kind {
            ExprKind::Int(_) => Some(FieldTy::Int),
            ExprKind::Float(_) => Some(FieldTy::Float),
            ExprKind::Str(_) => Some(FieldTy::Str),
            ExprKind::Dur(_) => Some(FieldTy::Ns),
            ExprKind::Ident(name) => self.ident_ty(name, e.span, ctx),
            ExprKind::Call { name, args } => self.call_ty(name, args, e.span, ctx),
            ExprKind::Neg(inner) => {
                let t = self.ty(inner, ctx)?;
                if !t.is_numeric() {
                    self.push(
                        RuleCheck::TypeMismatch,
                        inner.span,
                        format!("cannot negate a {}", t.describe()),
                    );
                    return None;
                }
                Some(if t == FieldTy::UInt { FieldTy::Int } else { t })
            }
            ExprKind::Not(inner) => {
                if let Some(t) = self.ty(inner, ctx) {
                    if t != FieldTy::Bool {
                        self.push(
                            RuleCheck::TypeMismatch,
                            inner.span,
                            format!("`not` needs a boolean operand, got {}", t.describe()),
                        );
                    }
                }
                Some(FieldTy::Bool)
            }
            ExprKind::Binary { op, lhs, rhs } => self.binary_ty(*op, lhs, rhs, ctx),
            ExprKind::In { lhs, items } => {
                if let Some(t) = self.ty(lhs, ctx) {
                    if t != FieldTy::Str {
                        self.push(
                            RuleCheck::TypeMismatch,
                            lhs.span,
                            format!("`in` tests string membership, got {}", t.describe()),
                        );
                    }
                }
                self.check_enum_values(lhs, items.iter().map(String::as_str), e.span);
                Some(FieldTy::Bool)
            }
            ExprKind::StartsWith { lhs, prefix } => {
                if let Some(t) = self.ty(lhs, ctx) {
                    if t != FieldTy::Str {
                        self.push(
                            RuleCheck::TypeMismatch,
                            lhs.span,
                            format!("`starts_with` tests strings, got {}", t.describe()),
                        );
                    }
                }
                let _ = prefix;
                Some(FieldTy::Bool)
            }
        }
    }

    fn ident_ty(&mut self, name: &str, span: Span, ctx: Ctx) -> Option<FieldTy> {
        if let Some(field) = catalog::field(name) {
            if field.ty == FieldTy::Object {
                self.push(
                    RuleCheck::TypeMismatch,
                    span,
                    format!("field `{name}` is a nested object and cannot be tested directly"),
                );
                return None;
            }
            if ctx == Ctx::Window {
                self.push(
                    RuleCheck::EventFieldOutsideAggregate,
                    span,
                    format!(
                        "event field `{name}` has no single value at window scope; \
                         wrap it in an aggregate such as `p95({name})` or `count(<predicate>)`"
                    ),
                );
            }
            return Some(field.ty);
        }
        if let Some(&(_, ty)) = catalog::STREAM_ATOMS.iter().find(|(n, _)| *n == name) {
            if self.windowed {
                self.push(
                    RuleCheck::SequenceAtomInWindowRule,
                    span,
                    format!(
                        "sequence atom `{name}` tracks per-event order and is only \
                         defined in `on stream` rules"
                    ),
                );
            }
            return Some(ty);
        }
        if catalog::is_aggregate(name) {
            // Only the nullary aggregates read well as bare idents.
            if !matches!(name, "count" | "errors" | "error_fraction" | "rate") {
                self.push(
                    RuleCheck::TypeMismatch,
                    span,
                    format!("aggregate `{name}` requires arguments, e.g. `{name}(...)`"),
                );
                return None;
            }
            self.check_aggregate_scope(name, span, ctx);
            return catalog::aggregate_ty(name);
        }
        if name == "follows" {
            self.push(
                RuleCheck::TypeMismatch,
                span,
                "`follows` needs a syscall argument, e.g. `follows(write)`".to_string(),
            );
            return None;
        }
        let suggestion =
            catalog::suggest(name).map(|s| format!("; did you mean `{s}`?")).unwrap_or_default();
        self.push(
            RuleCheck::UnknownField,
            span,
            format!("`{name}` is not a document field, stream atom, or aggregate{suggestion}"),
        );
        None
    }

    fn call_ty(&mut self, name: &str, args: &[Expr], span: Span, ctx: Ctx) -> Option<FieldTy> {
        match name {
            "follows" => {
                if self.windowed {
                    self.push(
                        RuleCheck::SequenceAtomInWindowRule,
                        span,
                        "sequence atom `follows(...)` tracks per-event order and is only \
                         defined in `on stream` rules"
                            .to_string(),
                    );
                }
                if args.len() != 1 {
                    self.push(
                        RuleCheck::TypeMismatch,
                        span,
                        "`follows` takes exactly one syscall name".to_string(),
                    );
                    return Some(FieldTy::Bool);
                }
                match &args[0].kind {
                    ExprKind::Ident(sys) if catalog::Domain::Syscalls.contains(sys) => {}
                    ExprKind::Ident(sys) => self.push(
                        RuleCheck::UnknownEnumValue,
                        args[0].span,
                        format!("`{sys}` is not one of the 42 traced syscalls"),
                    ),
                    _ => self.push(
                        RuleCheck::TypeMismatch,
                        args[0].span,
                        "`follows` takes a bare syscall name, e.g. `follows(write)`".to_string(),
                    ),
                }
                Some(FieldTy::Bool)
            }
            "count" => {
                self.check_aggregate_scope(name, span, ctx);
                match args {
                    [] => {}
                    [pred] => self.expect_bool(pred, Ctx::Event, "the `count` predicate"),
                    _ => self.push(
                        RuleCheck::TypeMismatch,
                        span,
                        "`count` takes at most one event predicate".to_string(),
                    ),
                }
                Some(FieldTy::UInt)
            }
            "errors" | "error_fraction" | "rate" => {
                self.check_aggregate_scope(name, span, ctx);
                if !args.is_empty() {
                    self.push(
                        RuleCheck::TypeMismatch,
                        span,
                        format!("`{name}` takes no arguments"),
                    );
                }
                catalog::aggregate_ty(name)
            }
            "p50" | "p95" | "p99" => {
                self.check_aggregate_scope(name, span, ctx);
                if args.len() != 1 {
                    self.push(
                        RuleCheck::TypeMismatch,
                        span,
                        format!("`{name}` takes exactly one numeric event expression"),
                    );
                } else if let Some(t) = self.ty(&args[0], Ctx::Event) {
                    if !t.is_numeric() {
                        self.push(
                            RuleCheck::TypeMismatch,
                            args[0].span,
                            format!("`{name}` aggregates numbers, got {}", t.describe()),
                        );
                    } else if t == FieldTy::Ns {
                        // Percentile of a nanosecond field stays time-typed
                        // so unit-confusion keeps tracking it.
                        return Some(FieldTy::Ns);
                    }
                }
                Some(FieldTy::Float)
            }
            "distinct" => {
                self.check_aggregate_scope(name, span, ctx);
                match args {
                    [value] => {
                        self.ty(value, Ctx::Event);
                    }
                    [value, pred] => {
                        self.ty(value, Ctx::Event);
                        self.expect_bool(pred, Ctx::Event, "the `distinct` predicate");
                    }
                    _ => self.push(
                        RuleCheck::TypeMismatch,
                        span,
                        "`distinct` takes an event expression and an optional predicate"
                            .to_string(),
                    ),
                }
                Some(FieldTy::UInt)
            }
            "baseline" => {
                self.check_aggregate_scope(name, span, ctx);
                if args.len() != 2 {
                    self.push(
                        RuleCheck::TypeMismatch,
                        span,
                        "`baseline` takes an aggregate and a window count, e.g. \
                         `baseline(count, 3)`"
                            .to_string(),
                    );
                    return Some(FieldTy::Float);
                }
                self.expect_plain_aggregate(&args[0], "baseline");
                match &args[1].kind {
                    ExprKind::Int(n) if *n >= 1 => {}
                    _ => self.push(
                        RuleCheck::TypeMismatch,
                        args[1].span,
                        "the `baseline` window count must be an integer literal >= 1".to_string(),
                    ),
                }
                Some(FieldTy::Float)
            }
            "mean_when" => {
                self.check_aggregate_scope(name, span, ctx);
                if args.len() != 2 {
                    self.push(
                        RuleCheck::TypeMismatch,
                        span,
                        "`mean_when` takes an aggregate and a window condition, e.g. \
                         `mean_when(count, errors == 0)`"
                            .to_string(),
                    );
                    return Some(FieldTy::Float);
                }
                self.expect_plain_aggregate(&args[0], "mean_when");
                self.expect_bool(&args[1], Ctx::Window, "the `mean_when` condition");
                Some(FieldTy::Float)
            }
            _ => {
                let suggestion = catalog::suggest(name)
                    .map(|s| format!("; did you mean `{s}`?"))
                    .unwrap_or_default();
                self.push(
                    RuleCheck::UnknownField,
                    span,
                    format!("`{name}` is not a known aggregate or atom{suggestion}"),
                );
                None
            }
        }
    }

    /// Aggregates only have a value at window scope of a windowed rule.
    fn check_aggregate_scope(&mut self, name: &str, span: Span, ctx: Ctx) {
        if !self.windowed {
            self.push(
                RuleCheck::AggregateWithoutWindow,
                span,
                format!(
                    "aggregate `{name}` needs a window to aggregate over; \
                     give the rule an `on window(...)` trigger"
                ),
            );
        } else if ctx == Ctx::Event {
            self.push(
                RuleCheck::AggregateWithoutWindow,
                span,
                format!(
                    "aggregate `{name}` cannot nest inside an event predicate, \
                     which is evaluated once per event"
                ),
            );
        }
    }

    /// First argument of `baseline`/`mean_when`: a plain (non-derived)
    /// aggregate expression.
    fn expect_plain_aggregate(&mut self, e: &Expr, outer: &str) {
        let ok = match &e.kind {
            ExprKind::Ident(n) => {
                matches!(n.as_str(), "count" | "errors" | "error_fraction" | "rate")
            }
            ExprKind::Call { name, .. } => {
                catalog::is_aggregate(name) && !matches!(name.as_str(), "baseline" | "mean_when")
            }
            _ => false,
        };
        if ok {
            self.ty(e, Ctx::Window);
        } else {
            self.push(
                RuleCheck::TypeMismatch,
                e.span,
                format!("the first argument of `{outer}` must be a plain window aggregate"),
            );
        }
    }

    fn expect_bool(&mut self, e: &Expr, ctx: Ctx, what: &str) {
        if let Some(t) = self.ty(e, ctx) {
            if t != FieldTy::Bool {
                self.push(
                    RuleCheck::TypeMismatch,
                    e.span,
                    format!("{what} must be boolean, got {}", t.describe()),
                );
            }
        }
    }

    fn binary_ty(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, ctx: Ctx) -> Option<FieldTy> {
        let lt = self.ty(lhs, ctx);
        let rt = self.ty(rhs, ctx);
        match op {
            BinOp::And | BinOp::Or => {
                for (t, side) in [(lt, lhs), (rt, rhs)] {
                    if let Some(t) = t {
                        if t != FieldTy::Bool {
                            self.push(
                                RuleCheck::TypeMismatch,
                                side.span,
                                format!(
                                    "`{}` needs boolean operands, got {}",
                                    op.symbol(),
                                    t.describe()
                                ),
                            );
                        }
                    }
                }
                Some(FieldTy::Bool)
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if let (Some(a), Some(b)) = (lt, rt) {
                    match (a.is_numeric(), b.is_numeric()) {
                        (true, true) => self.unit_check(lt, lhs, rt, rhs),
                        _ if a == FieldTy::Str && b == FieldTy::Str => {
                            self.check_string_eq_domain(lhs, rhs);
                        }
                        _ if a == FieldTy::Bool && b == FieldTy::Bool => {
                            if !matches!(op, BinOp::Eq | BinOp::Ne) {
                                self.push(
                                    RuleCheck::TypeMismatch,
                                    lhs.span,
                                    "booleans only support `==` and `!=`".to_string(),
                                );
                            }
                        }
                        _ => self.push(
                            RuleCheck::TypeMismatch,
                            lhs.span,
                            format!("cannot compare {} with {}", a.describe(), b.describe()),
                        ),
                    }
                }
                Some(FieldTy::Bool)
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let mut result = FieldTy::Int;
                for (t, side) in [(lt, lhs), (rt, rhs)] {
                    if let Some(t) = t {
                        if !t.is_numeric() {
                            self.push(
                                RuleCheck::TypeMismatch,
                                side.span,
                                format!(
                                    "`{}` needs numeric operands, got {}",
                                    op.symbol(),
                                    t.describe()
                                ),
                            );
                            return None;
                        }
                        if t == FieldTy::Ns {
                            result = FieldTy::Ns;
                        } else if t == FieldTy::Float && result != FieldTy::Ns {
                            result = FieldTy::Float;
                        }
                    }
                }
                Some(result)
            }
        }
    }

    /// Ns-typed quantities must meet duration literals, not bare numbers.
    fn unit_check(&mut self, lt: Option<FieldTy>, lhs: &Expr, rt: Option<FieldTy>, rhs: &Expr) {
        for (t_a, e_a, t_b, e_b) in [(lt, lhs, rt, rhs), (rt, rhs, lt, lhs)] {
            if t_a == Some(FieldTy::Ns) && !contains_dur_lit(e_a) {
                if let Some(v) = bare_num_lit(e_b) {
                    if v != 0.0 {
                        self.push(
                            RuleCheck::UnitConfusion,
                            e_b.span,
                            format!(
                                "`{e_a}` is nanosecond-valued but compared against the bare \
                                 literal `{e_b}`; write a duration such as `5ms` to make the \
                                 unit explicit"
                            ),
                        );
                    }
                }
            }
            if contains_dur_lit(e_a) && t_b.is_some_and(|t| t.is_numeric() && t != FieldTy::Ns) {
                self.push(
                    RuleCheck::UnitConfusion,
                    e_a.span,
                    format!(
                        "duration literal `{e_a}` compared against `{e_b}`, which is not \
                         nanosecond-valued"
                    ),
                );
            }
        }
    }

    /// `==`/`!=` between an enum field and a string literal: the literal
    /// must be a domain member.
    fn check_string_eq_domain(&mut self, lhs: &Expr, rhs: &Expr) {
        for (field_side, lit_side) in [(lhs, rhs), (rhs, lhs)] {
            if let ExprKind::Str(lit) = &lit_side.kind {
                self.check_enum_values(field_side, std::iter::once(lit.as_str()), lit_side.span);
            }
        }
    }

    /// Checks literal values against the lhs field's finite domain.
    fn check_enum_values<'v>(
        &mut self,
        lhs: &Expr,
        values: impl Iterator<Item = &'v str>,
        span: Span,
    ) {
        let ExprKind::Ident(name) = &lhs.kind else { return };
        let Some(domain) = catalog::field(name).and_then(|f| f.domain) else { return };
        for value in values {
            if !domain.contains(value) {
                self.push(
                    RuleCheck::UnknownEnumValue,
                    span,
                    format!("`{value}` is not a member of {} (`{name}`)", domain.describe()),
                );
            }
        }
    }
}

/// The numeric value of a bare (unit-less) literal, if `e` is one.
fn bare_num_lit(e: &Expr) -> Option<f64> {
    match &e.kind {
        ExprKind::Int(v) => Some(*v as f64),
        ExprKind::Float(v) => Some(*v),
        ExprKind::Neg(inner) => bare_num_lit(inner).map(|v| -v),
        _ => None,
    }
}

/// Whether the expression contains a duration literal (units explicit).
fn contains_dur_lit(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Dur(_) => true,
        ExprKind::Neg(inner) | ExprKind::Not(inner) => contains_dur_lit(inner),
        ExprKind::Binary { lhs, rhs, .. } => contains_dur_lit(lhs) || contains_dur_lit(rhs),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;

    fn checks_of(src: &str) -> Vec<RuleCheck> {
        verify_rules(&parse_rules(src).unwrap()).diagnostics().iter().map(|d| d.check).collect()
    }

    fn assert_single(src: &str, check: RuleCheck) {
        let checks = checks_of(src);
        assert_eq!(checks, vec![check], "for: {src}");
    }

    #[test]
    fn clean_rules_pass() {
        let report = verify_rules(
            &parse_rules(
                "rule r when syscall == \"read\" and latency_ns > 5ms \
                 then alert(warning, \"slow read\")\n\
                 rule w on window(1s) by class when count >= 100 and error_fraction >= 0.25 \
                 then alert(warning, error_rate_anomaly, \"errors\")",
            )
            .unwrap(),
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics());
        assert!(report.diagnostics().is_empty());
    }

    #[test]
    fn unknown_field_with_suggestion() {
        let report =
            verify_rules(&parse_rules("rule r when ofset > 0 then record(\"x\")").unwrap());
        let diag = &report.diagnostics()[0];
        assert_eq!(diag.check, RuleCheck::UnknownField);
        assert!(diag.message.contains("did you mean `offset`"), "{}", diag.message);
        assert!(!report.is_ok());
    }

    #[test]
    fn unknown_enum_values_reject() {
        assert_single(
            "rule r when syscall == \"futex\" then record(\"x\")",
            RuleCheck::UnknownEnumValue,
        );
        assert_single(
            "rule r when class in (data, \"bogus\") then record(\"x\")",
            RuleCheck::UnknownEnumValue,
        );
        assert_single("rule r when follows(futex) then record(\"x\")", RuleCheck::UnknownEnumValue);
        assert_single(
            "rule r when offset > 0 then alert(info, not_a_kind, \"x\")",
            RuleCheck::UnknownEnumValue,
        );
    }

    #[test]
    fn type_mismatches_reject() {
        assert_single("rule r when syscall > 4 then record(\"x\")", RuleCheck::TypeMismatch);
        assert_single("rule r when offset + 1 then record(\"x\")", RuleCheck::TypeMismatch);
        assert_single("rule r when not offset then record(\"x\")", RuleCheck::TypeMismatch);
        assert_single("rule r when args == \"x\" then record(\"x\")", RuleCheck::TypeMismatch);
        assert_single(
            "rule r by class when offset > 0 then record(\"x\")",
            RuleCheck::TypeMismatch,
        );
    }

    #[test]
    fn unit_confusion_warns_but_passes() {
        let report = verify_rules(
            &parse_rules("rule r when latency_ns > 5000000 then record(\"slow\")").unwrap(),
        );
        assert_eq!(report.diagnostics()[0].check, RuleCheck::UnitConfusion);
        assert!(report.is_ok(), "unit confusion is a warning");
        // Comparing against zero carries no unit.
        assert!(checks_of("rule r when latency_ns > 0 then record(\"x\")").is_empty());
        // Duration literal against a unit-less count.
        assert_single(
            "rule w on window(1s) when count > 5ms then record(\"x\")",
            RuleCheck::UnitConfusion,
        );
    }

    #[test]
    fn satisfiability_checks_carry_proofs() {
        let report = verify_rules(
            &parse_rules("rule r when offset > 10 and offset < 5 then record(\"x\")").unwrap(),
        );
        let diag = &report.diagnostics()[0];
        assert_eq!(diag.check, RuleCheck::UnsatisfiablePredicate);
        assert!(diag.message.contains("offset"), "{}", diag.message);
        assert!(report.statically_empty("r"));

        assert_single(
            "rule r when offset >= 0 then record(\"x\")",
            RuleCheck::TautologicalPredicate,
        );
    }

    #[test]
    fn duplicate_and_shadowed_rules() {
        assert_eq!(
            checks_of(
                "rule r when offset > 0 then record(\"a\")\n\
                 rule r when offset > 1 then record(\"b\")"
            ),
            vec![RuleCheck::DuplicateRule]
        );
        let checks = checks_of(
            "rule a when offset > 0 then record(\"a\")\n\
             rule b when offset > 0 then record(\"b\")",
        );
        assert_eq!(checks, vec![RuleCheck::ShadowedRule]);
    }

    #[test]
    fn window_cost_checks() {
        assert_single(
            "rule w on window(0s) when count > 1 then record(\"x\")",
            RuleCheck::WindowCost,
        );
        assert_single(
            "rule w on window(700s) when count > 1 then record(\"x\")",
            RuleCheck::WindowCost,
        );
        assert_single(
            "rule w on window(100s, 1s) when count > 1 then record(\"x\")",
            RuleCheck::WindowCost,
        );
        assert_single(
            "rule w on window(1s, 2s) when count > 1 then record(\"x\")",
            RuleCheck::GappyWindow,
        );
    }

    #[test]
    fn scope_checks() {
        assert_single(
            "rule r when count > 5 then record(\"x\")",
            RuleCheck::AggregateWithoutWindow,
        );
        assert_single(
            "rule w on window(1s) when count(count > 1) > 1 then record(\"x\")",
            RuleCheck::AggregateWithoutWindow,
        );
        assert_single(
            "rule w on window(1s) when offset > 5 then record(\"x\")",
            RuleCheck::EventFieldOutsideAggregate,
        );
        assert_single(
            "rule w on window(1s) when first_read then record(\"x\")",
            RuleCheck::SequenceAtomInWindowRule,
        );
        assert_single(
            "rule w on window(1s) when count(follows(write)) > 1 then record(\"x\")",
            RuleCheck::SequenceAtomInWindowRule,
        );
    }

    #[test]
    fn rejected_rules_skip_satisfiability_noise() {
        // `bogus < 0` would "prove" unsat if analyzed; the unknown-field
        // reject must be the only diagnostic.
        assert_single(
            "rule r when bogus < 0 and offset > 0 and offset < 0 then record(\"x\")",
            RuleCheck::UnknownField,
        );
    }

    #[test]
    fn error_reports_render_and_convert() {
        let report = verify_rules(&parse_rules("rule r when nope > 1 then record(\"x\")").unwrap());
        let err = report.into_result().unwrap_err();
        assert!(err.violates(RuleCheck::UnknownField));
        assert!(!err.violates(RuleCheck::TypeMismatch));
        let text = err.to_string();
        assert!(text.contains("error[unknown-field]"), "{text}");
        assert!(text.contains("rule `r`"), "{text}");
    }

    #[test]
    fn check_names_are_kebab_case_and_unique() {
        let mut names: Vec<&str> = RuleCheck::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 13);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13, "names must be unique");
    }
}
