//! The typed AST of the rule DSL, plus its canonical pretty-printer.
//!
//! The printer is the *canonical form* of a rule file: `print → reparse`
//! is a fixpoint (property-tested), which is what makes structural
//! rule comparison (`shadowed-rule`) and the analysis variable keys
//! (an aggregate is identified by its printed form) well-defined.

/// Source position of a token (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}, col {}", self.line, self.col)
    }
}

/// Unit suffix of a duration literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurUnit {
    /// Nanoseconds.
    Ns,
    /// Microseconds.
    Us,
    /// Milliseconds.
    Ms,
    /// Seconds.
    S,
}

impl DurUnit {
    /// Nanoseconds per unit.
    pub fn ns(self) -> u64 {
        match self {
            DurUnit::Ns => 1,
            DurUnit::Us => 1_000,
            DurUnit::Ms => 1_000_000,
            DurUnit::S => 1_000_000_000,
        }
    }

    /// The suffix as written (`ns`/`us`/`ms`/`s`).
    pub fn suffix(self) -> &'static str {
        match self {
            DurUnit::Ns => "ns",
            DurUnit::Us => "us",
            DurUnit::Ms => "ms",
            DurUnit::S => "s",
        }
    }
}

/// A duration literal (`250ms`), kept with its written unit so the
/// printer round-trips the source form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurLit {
    /// Value as written (before unit scaling).
    pub value: u64,
    /// Unit suffix as written.
    pub unit: DurUnit,
    /// Position of the literal.
    pub span: Span,
}

impl DurLit {
    /// The duration in nanoseconds.
    pub fn as_ns(&self) -> u64 {
        self.value.saturating_mul(self.unit.ns())
    }
}

impl std::fmt::Display for DurLit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.value, self.unit.suffix())
    }
}

/// Binary operators, lowest-to-highest precedence tier noted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical or (tier 1).
    Or,
    /// Logical and (tier 2).
    And,
    /// Equality (tier 4, non-associative).
    Eq,
    /// Inequality (tier 4).
    Ne,
    /// Less-than (tier 4).
    Lt,
    /// Less-or-equal (tier 4).
    Le,
    /// Greater-than (tier 4).
    Gt,
    /// Greater-or-equal (tier 4).
    Ge,
    /// Addition (tier 5).
    Add,
    /// Subtraction (tier 5).
    Sub,
    /// Multiplication (tier 6).
    Mul,
    /// Division (tier 6).
    Div,
}

impl BinOp {
    /// The operator as written.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// Printing precedence tier (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div => 6,
        }
    }

    /// Whether this is a comparison operator.
    pub fn is_cmp(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// The comparison with flipped operand order (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }

    /// The negated comparison (`!(a < b)` ⇔ `a >= b`).
    pub fn negated_cmp(self) -> BinOp {
        match self {
            BinOp::Eq => BinOp::Ne,
            BinOp::Ne => BinOp::Eq,
            BinOp::Lt => BinOp::Ge,
            BinOp::Le => BinOp::Gt,
            BinOp::Gt => BinOp::Le,
            BinOp::Ge => BinOp::Lt,
            other => other,
        }
    }
}

/// An expression node with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression variant.
    pub kind: ExprKind,
    /// Position of the expression's first token.
    pub span: Span,
}

/// Expression variants of the rule DSL.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Duration literal (`250ms`).
    Dur(DurLit),
    /// A bare name: catalog field, stream atom, or nullary aggregate.
    Ident(String),
    /// A call: aggregate (`count(...)`, `p95(...)`) or sequence atom
    /// (`follows(write)`).
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// String membership: `syscall in (read, pread64)`.
    In {
        /// Tested expression.
        lhs: Box<Expr>,
        /// Member values (bare idents and quoted strings both land here).
        items: Vec<String>,
    },
    /// String prefix test: `proc_name starts_with "db_bench"`.
    StartsWith {
        /// Tested expression.
        lhs: Box<Expr>,
        /// Required prefix.
        prefix: String,
    },
}

impl Expr {
    /// Builds an expression with a default span (used by tests/builders).
    pub fn new(kind: ExprKind) -> Expr {
        Expr { kind, span: Span::default() }
    }

    /// Printing precedence of this node (higher binds tighter).
    fn precedence(&self) -> u8 {
        match &self.kind {
            ExprKind::Binary { op, .. } => op.precedence(),
            ExprKind::In { .. } | ExprKind::StartsWith { .. } => 4,
            ExprKind::Not(_) => 3,
            ExprKind::Neg(_) => 7,
            _ => 8,
        }
    }

    fn fmt_prec(&self, f: &mut std::fmt::Formatter<'_>, min: u8) -> std::fmt::Result {
        let prec = self.precedence();
        let parens = prec < min;
        if parens {
            f.write_str("(")?;
        }
        match &self.kind {
            ExprKind::Int(v) => write!(f, "{v}")?,
            ExprKind::Float(v) => write!(f, "{v:?}")?,
            ExprKind::Str(s) => write!(f, "{}", quote(s))?,
            ExprKind::Dur(d) => write!(f, "{d}")?,
            ExprKind::Ident(name) => f.write_str(name)?,
            ExprKind::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    a.fmt_prec(f, 0)?;
                }
                f.write_str(")")?;
            }
            ExprKind::Neg(inner) => {
                f.write_str("-")?;
                inner.fmt_prec(f, 8)?;
            }
            ExprKind::Not(inner) => {
                f.write_str("not ")?;
                inner.fmt_prec(f, 3)?;
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // Left-associative: the left child may sit at the same
                // tier, the right child must bind strictly tighter.
                // Comparisons are non-associative: both sides go up a tier.
                let (lmin, rmin) =
                    if op.is_cmp() { (5, 5) } else { (op.precedence(), op.precedence() + 1) };
                lhs.fmt_prec(f, lmin)?;
                write!(f, " {} ", op.symbol())?;
                rhs.fmt_prec(f, rmin)?;
            }
            ExprKind::In { lhs, items } => {
                lhs.fmt_prec(f, 5)?;
                f.write_str(" in (")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    if is_bare_ident(item) {
                        f.write_str(item)?;
                    } else {
                        write!(f, "{}", quote(item))?;
                    }
                }
                f.write_str(")")?;
            }
            ExprKind::StartsWith { lhs, prefix } => {
                lhs.fmt_prec(f, 5)?;
                write!(f, " starts_with {}", quote(prefix))?;
            }
        }
        if parens {
            f.write_str(")")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// Whether `s` can print as a bare identifier inside an `in (...)` list.
fn is_bare_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Quotes and escapes a string literal for printing.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

/// When a rule evaluates: per event, or per sealed window.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Evaluate the predicate on every event (the default).
    Stream,
    /// Evaluate the predicate when a window seals.
    Window {
        /// Window width.
        width: DurLit,
        /// Window slide; `None` = tumbling.
        slide: Option<DurLit>,
    },
}

/// The `by` key dimension of a windowed rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDim {
    /// Key windows by the `pid` field.
    Pid,
    /// Key windows by the `file_tag` field.
    File,
    /// Key windows by the `class` field.
    Class,
    /// Key windows by the `proc_name` field.
    Proc,
}

impl KeyDim {
    /// The keyword as written after `by`.
    pub fn keyword(self) -> &'static str {
        match self {
            KeyDim::Pid => "pid",
            KeyDim::File => "file",
            KeyDim::Class => "class",
            KeyDim::Proc => "proc",
        }
    }

    /// The document field this dimension reads.
    pub fn field(self) -> dio_syscall::Field {
        use dio_syscall::Field;
        match self {
            KeyDim::Pid => Field::Pid,
            KeyDim::File => Field::FileTag,
            KeyDim::Class => Field::Class,
            KeyDim::Proc => Field::ProcName,
        }
    }
}

/// Alert severity named in an `alert(...)` action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeverityLit {
    /// Informational.
    Info,
    /// Warning.
    Warning,
    /// Critical.
    Critical,
}

impl SeverityLit {
    /// The keyword as written.
    pub fn keyword(self) -> &'static str {
        match self {
            SeverityLit::Info => "info",
            SeverityLit::Warning => "warning",
            SeverityLit::Critical => "critical",
        }
    }
}

/// What a matching rule does.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Raise a typed alert.
    Alert {
        /// Severity keyword.
        severity: SeverityLit,
        /// Optional alert-kind ident (defaults to `rule_match`).
        kind: Option<String>,
        /// Position of the kind ident, when present.
        kind_span: Span,
        /// Human-readable message.
        message: String,
    },
    /// Count the match without alerting (e.g. validated restarts).
    Record {
        /// Label of the counted condition.
        label: String,
    },
}

/// One parsed rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (unique per file).
    pub name: String,
    /// Position of the name token.
    pub name_span: Span,
    /// Evaluation trigger.
    pub trigger: Trigger,
    /// Optional window key dimension.
    pub key: Option<KeyDim>,
    /// The predicate.
    pub when: Expr,
    /// The action on match.
    pub action: Action,
    /// Optional cap on fired alerts (beyond it, matches are suppressed).
    pub limit: Option<u64>,
    /// Whether alerts fired by this rule opt into DFG critical-path
    /// attribution (`attribution on`). Off by default: attribution is a
    /// decoration, so rules must ask for it explicitly.
    pub attribution: bool,
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rule {}", self.name)?;
        match &self.trigger {
            Trigger::Stream => {}
            Trigger::Window { width, slide } => {
                write!(f, " on window({width}")?;
                if let Some(s) = slide {
                    write!(f, ", {s}")?;
                }
                f.write_str(")")?;
            }
        }
        if let Some(key) = self.key {
            write!(f, " by {}", key.keyword())?;
        }
        write!(f, " when {} then ", self.when)?;
        match &self.action {
            Action::Alert { severity, kind, message, .. } => {
                write!(f, "alert({}", severity.keyword())?;
                if let Some(k) = kind {
                    write!(f, ", {k}")?;
                }
                write!(f, ", {})", quote(message))?;
            }
            Action::Record { label } => write!(f, "record({})", quote(label))?,
        }
        if let Some(limit) = self.limit {
            write!(f, " limit {limit}")?;
        }
        if self.attribution {
            f.write_str(" attribution on")?;
        }
        Ok(())
    }
}

/// A parsed rule file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleFile {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl std::fmt::Display for RuleFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(kind: ExprKind) -> Box<Expr> {
        Box::new(Expr::new(kind))
    }

    #[test]
    fn printer_parenthesizes_by_precedence() {
        // a + (b + c): right-nested Add needs parens.
        let expr = Expr::new(ExprKind::Binary {
            op: BinOp::Add,
            lhs: e(ExprKind::Ident("a".into())),
            rhs: Box::new(Expr::new(ExprKind::Binary {
                op: BinOp::Add,
                lhs: e(ExprKind::Ident("b".into())),
                rhs: e(ExprKind::Ident("c".into())),
            })),
        });
        assert_eq!(expr.to_string(), "a + (b + c)");
        // (a or b) and c: Or under And needs parens.
        let expr = Expr::new(ExprKind::Binary {
            op: BinOp::And,
            lhs: Box::new(Expr::new(ExprKind::Binary {
                op: BinOp::Or,
                lhs: e(ExprKind::Ident("a".into())),
                rhs: e(ExprKind::Ident("b".into())),
            })),
            rhs: e(ExprKind::Ident("c".into())),
        });
        assert_eq!(expr.to_string(), "(a or b) and c");
    }

    #[test]
    fn printer_quotes_non_ident_in_items() {
        let expr = Expr::new(ExprKind::In {
            lhs: e(ExprKind::Ident("class".into())),
            items: vec!["data".into(), "extended attributes".into()],
        });
        assert_eq!(expr.to_string(), "class in (data, \"extended attributes\")");
    }

    #[test]
    fn floats_print_distinguishably_from_ints() {
        assert_eq!(Expr::new(ExprKind::Float(4.0)).to_string(), "4.0");
        assert_eq!(Expr::new(ExprKind::Int(4)).to_string(), "4");
    }

    #[test]
    fn duration_literals_round_trip_their_unit() {
        let d = DurLit { value: 250, unit: DurUnit::Ms, span: Span::default() };
        assert_eq!(d.to_string(), "250ms");
        assert_eq!(d.as_ns(), 250_000_000);
    }
}
