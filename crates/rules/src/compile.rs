//! Compilation of verified rule files onto the streaming engine.
//!
//! A [`RuleSet`] implements [`DynDetector`]: installed into the
//! `DiagnosisEngine` it sees the session's event stream and publishes
//! typed [`Alert`] documents. Stream rules evaluate per event over shared
//! [`StreamState`], which computes only the atoms they read; window rules
//! compile their aggregates into per-window accumulators on
//! [`SlidingWindows`] (its watermark and sealing semantics are theirs). The
//! window rules of a set with one `(width, slide, key field)` share one
//! router: one [`SlidingWindows`] accumulating the union of their base
//! aggregates, so an event is routed once per router, not once per rule.
//! [`RuleSet::join`] makes one set of several, so the shipped files and a
//! session's own rules share routers too.
//!
//! Compiling resolves every name a rule mentions — event fields, stream
//! atoms, aggregates — to a slot ([`Node`]), and the set reads events
//! through [`EventView`]: the typed events of the tracer's consumer and the
//! documents of any other feed run the same code, which per event looks
//! keys up by borrowed string and allocates only for a key or window it
//! has not seen.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use dio_diagnose::{Alert, AlertKind, DynDetector, Severity, SlidingWindows};
use dio_syscall::{EventView, Field, Scalar, Text};
use dio_telemetry::{Counter, MetricsRegistry};
use serde_json::{json, Value};

use crate::ast::{Action, Expr, ExprKind, Rule, RuleFile, SeverityLit, Trigger};
use crate::check::{verify_rules, RulesError, RulesReport};
use crate::exec::{eval, AtomReads, EventAtoms, Node, Scope, StreamState, V};
use crate::lexer::ParseError;
use crate::parser::parse_rules;

/// Why a rule source failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The source did not parse.
    Parse(ParseError),
    /// The file parsed but the static pass rejected it.
    Verify(RulesError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<RulesError> for CompileError {
    fn from(e: RulesError) -> Self {
        CompileError::Verify(e)
    }
}

/// Parses, verifies, and compiles rule source. The only path onto the
/// engine: a statically rejected file never produces a [`RuleSet`].
pub fn compile(src: &str) -> Result<RuleSet, CompileError> {
    let file = parse_rules(src)?;
    let report = verify_rules(&file).into_result()?;
    Ok(RuleSet::build(file, report))
}

/// Compiles an already-parsed file, still enforcing the static pass.
pub fn compile_file(file: &RuleFile) -> Result<RuleSet, RulesError> {
    let report = verify_rules(file).into_result()?;
    Ok(RuleSet::build(file.clone(), report))
}

/// Compiles without the static pass.
///
/// Only for tests (the never-fires property runs statically-rejected
/// rules on purpose); evaluation is total and unknown-tolerant, so even
/// ill-typed predicates execute without panicking — they just never
/// evaluate to true.
pub fn compile_unchecked(file: &RuleFile) -> RuleSet {
    RuleSet::build(file.clone(), verify_rules(file))
}

// ------------------------------------------------------------ aggregates

/// One base (per-window) aggregate, identified by its printed form; its
/// arguments are per-event predicates.
#[derive(Debug, Clone)]
enum AggSpec {
    Count(Option<Node>),
    Errors,
    ErrorFraction,
    Rate,
    Pct(f64, Node),
    Distinct(Node, Option<Node>),
    /// Malformed under `compile_unchecked`: accumulates nothing,
    /// evaluates to unknown.
    Invalid,
}

/// A derived aggregate computed at seal time from per-key history.
#[derive(Debug, Clone)]
enum PostSpec {
    /// Mean of `inner` over the previous `n` sealed windows of the key;
    /// defined only once exactly `n` windows of history exist.
    Baseline { inner: Expr, n: usize },
    /// Running mean of `inner` over past windows where `cond` held.
    MeanWhen { inner: Expr, cond: Expr },
}

/// Per-window per-key accumulator state, parallel to the spec list.
#[derive(Debug, Clone)]
enum AggAcc {
    Count(u64),
    Errors(u64),
    ErrorFraction {
        ops: u64,
        errs: u64,
    },
    Rate(u64),
    Pct(Vec<f64>),
    /// The distinct values' texts, and the buffer a number is printed into
    /// before it is looked up.
    Distinct(BTreeSet<String>, String),
    Invalid,
}

impl AggSpec {
    fn fresh_acc(&self) -> AggAcc {
        match self {
            AggSpec::Count(_) => AggAcc::Count(0),
            AggSpec::Errors => AggAcc::Errors(0),
            AggSpec::ErrorFraction => AggAcc::ErrorFraction { ops: 0, errs: 0 },
            AggSpec::Rate => AggAcc::Rate(0),
            AggSpec::Pct(..) => AggAcc::Pct(Vec::new()),
            AggSpec::Distinct(..) => AggAcc::Distinct(BTreeSet::new(), String::new()),
            AggSpec::Invalid => AggAcc::Invalid,
        }
    }

    fn observe(&self, acc: &mut AggAcc, event: &dyn EventView) {
        let scope = Scope::Event(event, None);
        let failed = || event.ret_val().is_some_and(|r| r < 0);
        match (self, acc) {
            (AggSpec::Count(pred), AggAcc::Count(n)) => {
                *n += u64::from(pred.as_ref().is_none_or(|p| eval(p, scope).is_true()));
            }
            (AggSpec::Errors, AggAcc::Errors(n)) => *n += u64::from(failed()),
            (AggSpec::ErrorFraction, AggAcc::ErrorFraction { ops, errs }) => {
                *ops += 1;
                *errs += u64::from(failed());
            }
            (AggSpec::Rate, AggAcc::Rate(n)) => *n += 1,
            (AggSpec::Pct(_, expr), AggAcc::Pct(values)) => {
                if let V::Num(v) = eval(expr, scope) {
                    values.push(v);
                }
            }
            (AggSpec::Distinct(value, pred), AggAcc::Distinct(seen, number)) => {
                if !pred.as_ref().is_none_or(|p| eval(p, scope).is_true()) {
                    return;
                }
                // A value is copied into the set only when it is new.
                let mut note = |text: &str| {
                    if !seen.contains(text) {
                        seen.insert(text.to_string());
                    }
                };
                match eval(value, scope) {
                    V::Num(n) => {
                        number.clear();
                        let _ = write!(number, "{n}");
                        note(number);
                    }
                    V::Bool(b) => note(if b { "true" } else { "false" }),
                    V::Unknown => {}
                    text => {
                        text.with_str(note);
                    }
                }
            }
            _ => {}
        }
    }

    fn value(&self, acc: &AggAcc, width_ns: u64) -> Option<f64> {
        match acc {
            AggAcc::Count(n) | AggAcc::Errors(n) => Some(*n as f64),
            AggAcc::ErrorFraction { ops: 0, .. } => None,
            AggAcc::ErrorFraction { ops, errs } => Some(*errs as f64 / *ops as f64),
            AggAcc::Rate(n) => Some(*n as f64 / (width_ns.max(1) as f64 / 1e9)),
            AggAcc::Pct(values) => {
                let AggSpec::Pct(q, _) = self else { return None };
                let mut sorted = values.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                dio_telemetry::quantile_sorted(&sorted, q / 100.0)
            }
            AggAcc::Distinct(seen, _) => Some(seen.len() as f64),
            AggAcc::Invalid => None,
        }
    }
}

/// The aggregate program of one window rule: base aggregates keyed by
/// printed form, then derived aggregates in dependency order. A sealed
/// window's values are laid out in that order, base then derived, and
/// [`WindowProgram::lower`] resolves an aggregate to its place among them.
#[derive(Debug, Clone, Default)]
struct WindowProgram {
    aggs: Vec<(String, AggSpec)>,
    posts: Vec<(String, PostSpec)>,
}

impl WindowProgram {
    fn collect(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Ident(name) if is_nullary_agg(name) => {
                self.register_base(name.clone(), base_spec(name, &[]));
            }
            ExprKind::Call { name, args } if crate::catalog::is_aggregate(name) => {
                let key = e.to_string();
                match name.as_str() {
                    "baseline" | "mean_when" => {
                        if self.posts.iter().any(|(k, _)| *k == key) {
                            return;
                        }
                        let Some(first) = args.first() else {
                            self.register_base(key, AggSpec::Invalid);
                            return;
                        };
                        // The inner aggregate (and any aggregates inside a
                        // mean_when condition) must be computed first.
                        self.collect(first);
                        let inner = first.clone();
                        let post = match name.as_str() {
                            "baseline" => {
                                let n = match args.get(1).map(|a| &a.kind) {
                                    Some(ExprKind::Int(n)) if *n >= 1 => *n as usize,
                                    _ => 1,
                                };
                                PostSpec::Baseline { inner, n }
                            }
                            _ => {
                                let cond = match args.get(1) {
                                    Some(c) => {
                                        self.collect(c);
                                        c.clone()
                                    }
                                    None => Expr::new(ExprKind::Int(0)),
                                };
                                PostSpec::MeanWhen { inner, cond }
                            }
                        };
                        self.posts.push((key, post));
                    }
                    _ => self.register_base(key, base_spec(name, args)),
                }
            }
            ExprKind::Neg(inner) | ExprKind::Not(inner) => self.collect(inner),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.collect(lhs);
                self.collect(rhs);
            }
            ExprKind::In { lhs, .. } | ExprKind::StartsWith { lhs, .. } => self.collect(lhs),
            _ => {}
        }
    }

    fn register_base(&mut self, key: String, spec: AggSpec) {
        if !self.aggs.iter().any(|(k, _)| *k == key) {
            self.aggs.push((key, spec));
        }
    }

    /// The aggregates' printed forms, in slot order.
    fn names(&self) -> impl Iterator<Item = &str> {
        self.aggs
            .iter()
            .map(|(k, _)| k)
            .chain(self.posts.iter().map(|(k, _)| k))
            .map(String::as_str)
    }

    /// Lowers a window-scope predicate: an `Ident`/`Call` leaf is the
    /// aggregate it prints as, anything else is unknown to a window.
    fn lower(&self, e: &Expr) -> Node {
        Node::lower(e, &|leaf| {
            let printed = leaf.to_string();
            self.names().position(|name| name == printed).map_or(Node::Unknown, Node::Slot)
        })
    }
}

fn is_nullary_agg(name: &str) -> bool {
    matches!(name, "count" | "errors" | "error_fraction" | "rate")
}

fn base_spec(name: &str, args: &[Expr]) -> AggSpec {
    match (name, args) {
        ("count", []) => AggSpec::Count(None),
        ("count", [pred]) => AggSpec::Count(Some(Node::of_event(pred))),
        ("errors", []) => AggSpec::Errors,
        ("error_fraction", []) => AggSpec::ErrorFraction,
        ("rate", []) => AggSpec::Rate,
        ("p50", [v]) => AggSpec::Pct(50.0, Node::of_event(v)),
        ("p95", [v]) => AggSpec::Pct(95.0, Node::of_event(v)),
        ("p99", [v]) => AggSpec::Pct(99.0, Node::of_event(v)),
        ("distinct", [v]) => AggSpec::Distinct(Node::of_event(v), None),
        ("distinct", [v, pred]) => AggSpec::Distinct(Node::of_event(v), Some(Node::of_event(pred))),
        _ => AggSpec::Invalid,
    }
}

// ---------------------------------------------------------- compiled rule

/// A derived aggregate, linked: its inner aggregate by slot.
#[derive(Debug, Clone)]
struct Post {
    inner: Option<usize>,
    kind: PostKind,
    /// Per key value: trailing inner values (baseline), or running
    /// sum/count of inner values over matching windows (mean_when).
    state: BTreeMap<String, PostState>,
}

#[derive(Debug, Clone)]
enum PostKind {
    /// `baseline(inner, n)`.
    Baseline(usize),
    /// `mean_when(inner, cond)`, the condition lowered in window scope.
    MeanWhen(Node),
}

#[derive(Debug, Clone, Default)]
struct PostState {
    hist: VecDeque<f64>,
    sum: f64,
    n: u64,
}

#[derive(Debug, Default)]
struct RuleStats {
    evaluated: u64,
    fired: u64,
    suppressed: u64,
    records: u64,
}

struct CompiledRule {
    rule: Rule,
    /// `rule.when`, lowered in the rule's scope: the event's for a stream
    /// rule, the sealed window's for a window rule.
    when: Node,
    /// The field `rule.key` reads.
    key: Option<Field>,
    program: WindowProgram,
    /// The set's router this window rule reads, and where each of its base
    /// aggregates sits among the router's; `None` for a stream rule.
    router: Option<usize>,
    slots: Vec<usize>,
    posts: Vec<Post>,
    /// What a `mean_when` rule that has not matched yet keeps of its sealed
    /// windows for [`CompiledRule::judge_retained`]; `None` for any other
    /// rule, and from the first match on.
    retained: Option<VecDeque<SealedWindow>>,
    stats: RuleStats,
    fired_counter: Option<Arc<Counter>>,
    suppressed_counter: Option<Arc<Counter>>,
}

/// A sealed window as it was judged: start, key, its aggregates' values.
type SealedWindow = (u64, String, Vec<Option<f64>>);

/// Sealed windows a silent `mean_when` rule keeps for its end-of-stream
/// pass; beyond it the oldest go.
pub(crate) const MAX_RETAINED_WINDOWS: usize = 1_024;

impl CompiledRule {
    fn new(rule: Rule) -> CompiledRule {
        let mut program = WindowProgram::default();
        let when = match &rule.trigger {
            Trigger::Stream => Node::of_event(&rule.when),
            Trigger::Window { .. } => {
                program.collect(&rule.when);
                program.lower(&rule.when)
            }
        };
        let slot = |e: &Expr| match program.lower(e) {
            Node::Slot(slot) => Some(slot),
            _ => None,
        };
        let posts = program
            .posts
            .iter()
            .map(|(_, post)| {
                let (inner, kind) = match post {
                    PostSpec::Baseline { inner, n } => (inner, PostKind::Baseline(*n)),
                    PostSpec::MeanWhen { inner, cond } => {
                        (inner, PostKind::MeanWhen(program.lower(cond)))
                    }
                };
                Post { inner: slot(inner), kind, state: BTreeMap::new() }
            })
            .collect::<Vec<Post>>();
        let has_mean = posts.iter().any(|post| matches!(post.kind, PostKind::MeanWhen(_)));
        CompiledRule {
            when,
            key: rule.key.map(|dim| dim.field()),
            rule,
            program,
            router: None,
            slots: Vec::new(),
            retained: has_mean.then(VecDeque::new),
            posts,
            stats: RuleStats::default(),
            fired_counter: None,
            suppressed_counter: None,
        }
    }

    fn width_ns(&self) -> u64 {
        match &self.rule.trigger {
            Trigger::Window { width, .. } => width.as_ns(),
            Trigger::Stream => 0,
        }
    }

    /// Evaluates one window its router sealed, raising alerts for definite
    /// matches; `aggs` are the router's aggregates, `keys` their values per
    /// key.
    fn seal(
        &mut self,
        start: u64,
        keys: &WindowKeys,
        aggs: &[(String, AggSpec)],
        out: &mut Vec<Alert>,
    ) {
        let width = self.width_ns();
        for (key, accs) in keys {
            self.stats.evaluated += 1;
            // 1. Base aggregate values, read from the router's slots.
            let mut values: Vec<Option<f64>> =
                self.slots.iter().map(|&at| aggs[at].1.value(&accs[at], width)).collect();
            // 2. Derived aggregates, in dependency order, reading history
            //    from *before* this window.
            for post in &self.posts {
                let state = post.state.get(key);
                values.push(match post.kind {
                    PostKind::Baseline(n) => state
                        .filter(|s| s.hist.len() == n)
                        .map(|s| s.hist.iter().sum::<f64>() / n as f64),
                    PostKind::MeanWhen(_) => state.filter(|s| s.n > 0).map(|s| s.sum / s.n as f64),
                });
            }
            // 3. Evaluate the predicate in window scope.
            if eval(&self.when, Scope::Window(&values)).is_true() {
                self.retained = None;
                self.fire_window(start, key, &values, out);
            }
            // 4. Update derived-aggregate state *after* evaluation, so a
            //    window never contributes to its own baseline.
            for post in &mut self.posts {
                let Some(inner) = post.inner.and_then(|slot| values[slot]) else { continue };
                match &post.kind {
                    PostKind::Baseline(n) => {
                        let state = post.state.entry(key.clone()).or_default();
                        state.hist.push_back(inner);
                        while state.hist.len() > *n {
                            state.hist.pop_front();
                        }
                    }
                    PostKind::MeanWhen(cond) => {
                        if eval(cond, Scope::Window(&values)).is_true() {
                            let state = post.state.entry(key.clone()).or_default();
                            state.sum += inner;
                            state.n += 1;
                        }
                    }
                }
            }
            // 5. A `mean_when` rule still waiting for its first match keeps
            //    the window for its end-of-stream pass.
            if let Some(retained) = &mut self.retained {
                if retained.len() == MAX_RETAINED_WINDOWS {
                    retained.pop_front();
                }
                retained.push_back((start, key.clone(), values));
            }
        }
    }

    /// The end-of-stream pass of a `mean_when` rule that stayed silent: a
    /// streaming mean knows only the windows before the one it judges, so a
    /// dip whose calm baseline came later (or after an empty warm-up window
    /// had put a 0 into it) is missed. Each retained window is judged once
    /// more with every `mean_when` read from the whole stream, and fires
    /// with its own bounds.
    fn judge_retained(&mut self, out: &mut Vec<Alert>) {
        for (start, key, mut values) in self.retained.take().into_iter().flatten() {
            for (slot, post) in (self.program.aggs.len()..).zip(&self.posts) {
                if matches!(post.kind, PostKind::MeanWhen(_)) {
                    let state = post.state.get(&key).filter(|s| s.n > 0);
                    values[slot] = state.map(|s| s.sum / s.n as f64);
                }
            }
            if eval(&self.when, Scope::Window(&values)).is_true() {
                self.fire_window(start, &key, &values, out);
            }
        }
    }

    fn fire_window(&mut self, start: u64, key: &str, values: &[Option<f64>], out: &mut Vec<Alert>) {
        let end = start + self.width_ns();
        let subject = (!key.is_empty()).then_some(key);
        self.fire(subject, end, Some((start, end)), values, None, out);
    }

    fn observe_stream(&mut self, event: &dyn EventView, atoms: &EventAtoms, out: &mut Vec<Alert>) {
        self.stats.evaluated += 1;
        if eval(&self.when, Scope::Event(event, Some(atoms))).is_true() {
            self.fire(None, event.time(), None, &[], Some(event), out);
        }
    }

    /// Carries out the rule's action. The alert's subject is the window's
    /// key, else the triggering event's file tag, else the rule's name; a
    /// triggering event becomes a document here, if the alert is raised.
    fn fire(
        &mut self,
        key: Option<&str>,
        time_ns: u64,
        window: Option<(u64, u64)>,
        values: &[Option<f64>],
        trigger: Option<&dyn EventView>,
        out: &mut Vec<Alert>,
    ) {
        match &self.rule.action {
            Action::Record { .. } => {
                self.stats.records += 1;
            }
            Action::Alert { severity, kind, message, .. } => {
                if self.rule.limit.is_some_and(|l| self.stats.fired >= l) {
                    self.stats.suppressed += 1;
                    if let Some(c) = &self.suppressed_counter {
                        c.inc();
                    }
                    return;
                }
                self.stats.fired += 1;
                if let Some(c) = &self.fired_counter {
                    c.inc();
                }
                let kind =
                    kind.as_deref().and_then(AlertKind::parse).unwrap_or(AlertKind::RuleMatch);
                let subject = match key {
                    Some(key) => key.to_string(),
                    None => trigger
                        .and_then(|event| event.scalar(Field::FileTag)?.text())
                        .map_or_else(|| self.rule.name.clone(), |tag| tag.to_string()),
                };
                let mut named = serde_json::Map::new();
                for (name, value) in self.program.names().zip(values) {
                    let number = value.and_then(serde_json::Number::from_f64);
                    named.insert(name.to_string(), number.map_or(Value::Null, Value::Number));
                }
                out.push(Alert {
                    seq: 0,
                    detector: "rules",
                    kind,
                    severity: match severity {
                        SeverityLit::Info => Severity::Info,
                        SeverityLit::Warning => Severity::Warning,
                        SeverityLit::Critical => Severity::Critical,
                    },
                    time_ns,
                    window_start_ns: window.map(|(s, _)| s),
                    window_end_ns: window.map(|(_, e)| e),
                    subject,
                    message: message.clone(),
                    fields: json!({ "rule": self.rule.name, "values": Value::Object(named) }),
                    evidence: trigger.map(|event| event.document()).into_iter().collect(),
                    attribution: None,
                });
            }
        }
    }

    /// The rule's status; `open_windows` is its router's.
    fn report(&self, open_windows: usize) -> Value {
        let (trigger, window_ns, slide_ns) = match &self.rule.trigger {
            Trigger::Stream => ("stream", None, None),
            Trigger::Window { width, slide } => {
                ("window", Some(width.as_ns()), slide.map(|s| s.as_ns()))
            }
        };
        let (action, severity, kind) = match &self.rule.action {
            Action::Alert { severity, kind, .. } => {
                ("alert", Some(severity.keyword()), Some(kind.as_deref().unwrap_or("rule_match")))
            }
            Action::Record { .. } => ("record", None, None),
        };
        json!({
            "rule": self.rule.name,
            "trigger": trigger,
            "window_ns": window_ns,
            "slide_ns": slide_ns,
            "key": self.rule.key.map(|k| k.keyword()),
            "when": self.rule.when.to_string(),
            "action": action,
            "severity": severity,
            "alert_kind": kind,
            "limit": self.rule.limit,
            "attribution": self.rule.attribution,
            "evaluated": self.stats.evaluated,
            "fired": self.stats.fired,
            "suppressed": self.stats.suppressed,
            "records": self.stats.records,
            "open_windows": open_windows,
        })
    }
}

// ----------------------------------------------------------------- router

/// Window start → key value → accumulators, one per router aggregate.
type WindowKeys = BTreeMap<String, Vec<AggAcc>>;

/// The windows of every window rule of a set with one `(width, slide, key
/// field)`: an event is keyed and routed once for all of them, into
/// accumulators for the union of their base aggregates (one per printed
/// form). Sealing is the windows' own, so each rule sees the windows it
/// would have sealed alone.
struct Router {
    width_ns: u64,
    slide_ns: u64,
    key: Option<Field>,
    aggs: Vec<(String, AggSpec)>,
    windows: SlidingWindows<WindowKeys>,
    /// What the last drain sealed, until each of the router's rules has
    /// judged it.
    sealed: Vec<(u64, WindowKeys)>,
}

impl Router {
    /// Assigns every window rule of `rules` to a router, making one per
    /// distinct `(width, slide, key field)` in rule order.
    fn assign(rules: &mut [CompiledRule]) -> Vec<Router> {
        let mut routers: Vec<Router> = Vec::new();
        for rule in rules {
            let Trigger::Window { width, slide } = &rule.rule.trigger else { continue };
            let shape = (width.as_ns(), slide.map_or(0, |s| s.as_ns()), rule.key);
            let at = match routers.iter().position(|r| (r.width_ns, r.slide_ns, r.key) == shape) {
                Some(at) => at,
                None => {
                    routers.push(Router {
                        width_ns: shape.0,
                        slide_ns: shape.1,
                        key: shape.2,
                        aggs: Vec::new(),
                        windows: SlidingWindows::new(shape.0, shape.1),
                        sealed: Vec::new(),
                    });
                    routers.len() - 1
                }
            };
            let aggs = &mut routers[at].aggs;
            rule.slots = (rule.program.aggs.iter())
                .map(|(name, spec)| match aggs.iter().position(|(known, _)| known == name) {
                    Some(slot) => slot,
                    None => {
                        aggs.push((name.clone(), spec.clone()));
                        aggs.len() - 1
                    }
                })
                .collect();
            rule.router = Some(at);
        }
        routers
    }

    /// Routes one event; returns whether it was late. An event without the
    /// key field is skipped; an unkeyed router has the one key "".
    fn observe(&mut self, event: &dyn EventView) -> bool {
        let key = match self.key {
            Some(field) => match event.scalar(field).and_then(Scalar::key) {
                Some(key) => key,
                None => return false,
            },
            None => Text::Lent(""),
        };
        let aggs = &self.aggs;
        // Missing timestamps bucket at 0.
        self.windows.observe(event.time(), |keys| {
            // The empty key (an unkeyed router's one key) is the least
            // string, so it is found as the first entry, by its length:
            // comparing with an empty string that owns no buffer (its
            // pointer dangles) measured 110–140 ns where a one-byte key
            // takes 3 ns (x86-64 Linux, the 2-core benchmark VM).
            let known = if key.is_empty() {
                keys.first_entry().filter(|first| first.key().is_empty()).map(|e| e.into_mut())
            } else {
                keys.get_mut(&*key)
            };
            let accs = match known {
                Some(accs) => accs,
                None => keys
                    .entry(key.to_string())
                    .or_insert_with(|| aggs.iter().map(|(_, s)| s.fresh_acc()).collect()),
            };
            for ((_, spec), slot) in aggs.iter().zip(accs.iter_mut()) {
                spec.observe(slot, event);
            }
        })
    }
}

// --------------------------------------------------------------- rule set

/// A compiled set of rules, installable into the engine as a detector.
pub struct RuleSet {
    rules: Vec<CompiledRule>,
    routers: Vec<Router>,
    stream: StreamState,
    has_stream_rules: bool,
    report: RulesReport,
}

impl RuleSet {
    fn build(file: RuleFile, report: RulesReport) -> RuleSet {
        RuleSet::of(file.rules.into_iter().map(CompiledRule::new).collect(), report)
    }

    fn of(mut rules: Vec<CompiledRule>, report: RulesReport) -> RuleSet {
        let routers = Router::assign(&mut rules);
        let (mut reads, mut has_stream_rules) = (AtomReads::default(), false);
        for rule in rules.iter().filter(|r| r.router.is_none()) {
            reads.add(&rule.when);
            has_stream_rules = true;
        }
        RuleSet { rules, routers, stream: StreamState::reading(reads), has_stream_rules, report }
    }

    /// One set of every rule of `sets`, in order, its window rules routed
    /// anew: rules of different sets with one `(width, slide, key field)`
    /// share a router. The sets must not have observed an event yet (their
    /// windows are not carried over). Alerts, their order, reports and late
    /// counts are what the sets installed one after the other would give.
    pub fn join(sets: impl IntoIterator<Item = RuleSet>) -> RuleSet {
        let (mut rules, mut report) = (Vec::new(), RulesReport::default());
        for set in sets {
            rules.extend(set.rules);
            report.extend(set.report);
        }
        RuleSet::of(rules, report)
    }

    /// The static-analysis report the set was admitted under (carries any
    /// warnings; rejecting reports never reach a `RuleSet` via [`compile`]).
    pub fn verify_report(&self) -> &RulesReport {
        &self.report
    }

    /// Number of compiled rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of window routers an event is routed through: one per
    /// distinct `(width, slide, key field)` among the window rules.
    pub fn routers(&self) -> usize {
        self.routers.len()
    }

    /// Rule names, in file order.
    pub fn names(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.rule.name.as_str()).collect()
    }

    /// Names of rules carrying `attribution on`, in file order.
    pub fn attribution_rules(&self) -> Vec<&str> {
        self.rules.iter().filter(|r| r.rule.attribution).map(|r| r.rule.name.as_str()).collect()
    }

    /// Each window rule judges what its router sealed, in rule order.
    fn judge_sealed(&mut self, out: &mut Vec<Alert>, end_of_stream: bool) {
        for rule in &mut self.rules {
            let Some(router) = rule.router.map(|at| &self.routers[at]) else { continue };
            for (start, keys) in &router.sealed {
                rule.seal(*start, keys, &router.aggs, out);
            }
            if end_of_stream {
                rule.judge_retained(out);
            }
        }
        self.routers.iter_mut().for_each(|router| router.sealed.clear());
    }

    /// Events the set's routers refused as late, counted once per window
    /// rule that reads the router — as if each rule had its own.
    pub fn late_events(&self) -> u64 {
        self.rules.iter().filter_map(|r| self.router_of(r)).map(|r| r.windows.late_events()).sum()
    }

    /// A window rule's router.
    fn router_of(&self, rule: &CompiledRule) -> Option<&Router> {
        rule.router.map(|at| &self.routers[at])
    }
}

impl DynDetector for RuleSet {
    fn name(&self) -> &str {
        "rules"
    }

    fn attribution_optins(&self) -> Vec<String> {
        self.attribution_rules().iter().map(|s| s.to_string()).collect()
    }

    fn observe(&mut self, event: &dyn EventView, out: &mut Vec<Alert>) -> bool {
        if self.has_stream_rules {
            // Sequence atoms advance once per event, shared across rules.
            let atoms = self.stream.advance(event);
            for rule in self.rules.iter_mut().filter(|r| r.router.is_none()) {
                rule.observe_stream(event, &atoms, out);
            }
        }
        let mut late = false;
        for router in &mut self.routers {
            late |= router.observe(event);
        }
        late
    }

    fn evaluate_ready(&mut self, out: &mut Vec<Alert>) {
        for router in &mut self.routers {
            router.sealed = router.windows.drain_ready();
        }
        self.judge_sealed(out, false);
    }

    fn evaluate_all(&mut self, out: &mut Vec<Alert>) {
        for router in &mut self.routers {
            router.sealed = router.windows.drain_all();
        }
        self.judge_sealed(out, true);
    }

    /// Open windows per window rule: a router's count once for each rule
    /// that reads it, as if each rule had its own.
    fn open_windows(&self) -> usize {
        self.rules.iter().filter_map(|r| self.router_of(r)).map(|r| r.windows.open_count()).sum()
    }

    fn reports(&self) -> Vec<Value> {
        let open = |rule| self.router_of(rule).map_or(0, |r| r.windows.open_count());
        self.rules.iter().map(|rule| rule.report(open(rule))).collect()
    }

    fn bind_telemetry(&mut self, registry: &MetricsRegistry) {
        for rule in &mut self.rules {
            let name = &rule.rule.name;
            rule.fired_counter = Some(registry.counter(&format!("diagnose.rule.{name}.fired")));
            rule.suppressed_counter =
                Some(registry.counter(&format!("diagnose.rule.{name}.suppressed")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn doc(t: u64, syscall: &str, extra: Value) -> Value {
        let mut d = json!({
            "syscall": syscall,
            "class": "data",
            "pid": 10,
            "tid": 10,
            "proc_name": "app",
            "time": t,
            "ret_val": 1,
        });
        if let (Value::Object(base), Value::Object(e)) = (&mut d, extra) {
            for (k, v) in e.iter() {
                base.insert(k.clone(), v.clone());
            }
        }
        d
    }

    /// The shipped file `name`, its windows 1 µs wide.
    fn shipped_at_1us(name: &str) -> RuleSet {
        let at = crate::shipped::ALL.iter().position(|(n, _)| *n == name).expect("shipped");
        crate::shipped::compile_all(1_000).swap_remove(at)
    }

    fn run(set: &mut RuleSet, docs: &[Value]) -> Vec<Alert> {
        let mut out = Vec::new();
        for d in docs {
            set.observe(d, &mut out);
        }
        set.evaluate_ready(&mut out);
        set.evaluate_all(&mut out);
        out
    }

    #[test]
    fn rejected_sources_never_compile() {
        let Err(err) = compile("rule r when offset > 0 and offset < 0 then record(\"x\")") else {
            panic!("statically empty rule must not compile")
        };
        assert!(matches!(err, CompileError::Verify(_)));
        assert!(compile("rule r when (((").is_err());
    }

    #[test]
    fn stream_rule_fires_and_carries_evidence() {
        let mut set = compile(
            "rule slow when latency_ns > 5ms and ret_val < 0 \
             then alert(warning, \"slow failing call\")",
        )
        .unwrap();
        let alerts = run(
            &mut set,
            &[
                doc(10, "read", json!({"latency_ns": 6_000_000, "ret_val": -5})),
                doc(20, "read", json!({"latency_ns": 1_000, "ret_val": -5})),
            ],
        );
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::RuleMatch);
        assert_eq!(alerts[0].severity, Severity::Warning);
        assert_eq!(alerts[0].time_ns, 10);
        assert_eq!(alerts[0].evidence.len(), 1);
        assert_eq!(alerts[0].fields["rule"], "slow");

        // The shipped Fig. 2 rules: `(time, proc, syscall, ret, generation, offset)`.
        let fig2 = |events: &[(u64, &str, &str, i64, u64, u64)]| {
            let docs: Vec<Value> = events
                .iter()
                .map(|&(t, proc_name, syscall, ret_val, generation, offset)| {
                    let file_tag = format!("1|5|{generation}00");
                    doc(
                        t,
                        syscall,
                        json!({"proc_name": proc_name, "ret_val": ret_val,
                                           "file_tag": file_tag, "offset": offset}),
                    )
                })
                .collect();
            let mut set = compile(crate::shipped::FIG2_DATA_LOSS).unwrap();
            let alerts = run(&mut set, &docs);
            (alerts, set.reports()[2]["records"].as_u64())
        };
        // A tailer polling EOF on a file's first generation is benign.
        let (alerts, restarts) = fig2(&[
            (1, "app", "write", 10, 1, 0),
            (2, "tailer", "read", 10, 1, 0),
            (3, "tailer", "read", 0, 1, 10),
        ]);
        assert!(alerts.is_empty() && restarts == Some(0), "{alerts:?}");
        // The Fig. 2a sequence fires on the stale read, and carries it.
        let (alerts, _) = fig2(&[
            (1, "app", "write", 26, 1, 0),
            (2, "fluent-bit", "read", 26, 1, 0),
            (3, "fluent-bit", "read", 0, 1, 26),
            (4, "app", "write", 16, 2, 0),
            (5, "fluent-bit", "read", 0, 2, 26),
        ]);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!((alerts[0].kind, alerts[0].severity), (AlertKind::DataLoss, Severity::Critical));
        assert_eq!((alerts[0].time_ns, alerts[0].subject.as_str()), (5, "1|5|200"));
        assert_eq!(
            alerts[0].evidence,
            [json!({
                "syscall": "read", "class": "data", "pid": 10, "tid": 10, "proc_name": "fluent-bit",
                "time": 5, "ret_val": 0, "file_tag": "1|5|200", "offset": 26,
            })]
        );
        // A stale resume that still finds bytes is a warning; the fixed
        // tailer's restart from 0 is recorded, not alerted.
        let (alerts, _) = fig2(&[
            (1, "app", "write", 30, 1, 0),
            (2, "tailer", "read", 30, 1, 0),
            (3, "app", "write", 30, 2, 0),
            (4, "tailer", "read", 20, 2, 10),
        ]);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(
            (alerts[0].kind, alerts[0].severity),
            (AlertKind::StaleOffsetResume, Severity::Warning)
        );
        let (alerts, restarts) = fig2(&[
            (1, "app", "write", 26, 1, 0),
            (2, "flb-pipeline", "read", 26, 1, 0),
            (3, "app", "write", 16, 2, 0),
            (4, "flb-pipeline", "read", 16, 2, 0),
            (5, "flb-pipeline", "read", 0, 2, 16),
        ]);
        assert!(alerts.is_empty() && restarts == Some(1), "{alerts:?}");
    }

    #[test]
    fn window_rule_counts_per_key() {
        let mut set = compile(
            "rule burst on window(1us) by pid when count >= 3 \
             then alert(info, \"bursty\")",
        )
        .unwrap();
        let mut docs: Vec<Value> = (0..5).map(|i| doc(100 + i, "read", json!({}))).collect();
        docs.push(doc(50, "read", json!({"pid": 99})));
        let alerts = run(&mut set, &docs);
        assert_eq!(alerts.len(), 1, "only pid 10 bursts");
        assert_eq!(alerts[0].subject, "10");
        assert_eq!(alerts[0].window_start_ns, Some(0));
        assert_eq!(alerts[0].window_end_ns, Some(1_000));
        assert_eq!(alerts[0].time_ns, 1_000);
    }

    #[test]
    fn baseline_needs_full_history_then_detects_spikes() {
        let mut set = compile(
            "rule spike on window(1us) when count > baseline(count, 2) * 3.0 \
             then alert(warning, syscall_rate_anomaly, \"spike\")",
        )
        .unwrap();
        // Windows: 2, 2, then 50 events.
        let mut docs = Vec::new();
        for w in 0..2u64 {
            for i in 0..2u64 {
                docs.push(doc(w * 1_000 + i, "read", json!({})));
            }
        }
        for i in 0..50u64 {
            docs.push(doc(2_000 + i, "read", json!({})));
        }
        let alerts = run(&mut set, &docs);
        assert_eq!(alerts.len(), 1, "first two windows build the baseline");
        assert_eq!(alerts[0].kind, AlertKind::SyscallRateAnomaly);
        assert_eq!(alerts[0].window_start_ns, Some(2_000));
        assert_eq!(alerts[0].fields["values"]["baseline(count, 2)"], 2.0);

        // The shipped rate rules (factor 4, a full 3-window baseline, 100
        // ops/window floor), their windows 1 µs wide.
        let rate = |ops_per_window: &[u64]| {
            let mut set = shipped_at_1us("rate_anomaly");
            let windows = (0u64..).zip(ops_per_window);
            let docs: Vec<Value> = windows
                .flat_map(|(w, &ops)| (0..ops).map(move |i| doc(w * 1_000 + i, "read", json!({}))))
                .collect();
            run(&mut set, &docs)
        };
        // 600 ops after one window of history is no verdict; after three
        // it is a spike, and 10 ops against three of 120 a collapse.
        let alerts = rate(&[120, 600, 120, 120, 120, 600, 120, 120, 120, 10, 120]);
        let verdicts: Vec<_> = alerts
            .iter()
            .map(|a| (a.fields["rule"].as_str().unwrap(), a.severity, a.window_start_ns.unwrap()))
            .collect();
        assert_eq!(
            verdicts,
            [("rate_spike", Severity::Warning, 5_000), ("rate_collapse", Severity::Info, 9_000)]
        );
        assert!(alerts
            .iter()
            .all(|a| a.kind == AlertKind::SyscallRateAnomaly && a.subject == "data"));
        assert_eq!(alerts[0].fields["values"]["baseline(count, 3)"], 120.0);
        // Under the floor a 25-fold jump and the fall back from it are silent.
        let alerts = rate(&[2, 2, 2, 50, 2, 2, 2]);
        assert!(alerts.is_empty(), "the floor keeps tiny traces silent: {alerts:?}");
    }

    /// A burst for a window that was sealed long ago is counted late and
    /// leaves the key's baseline — and so the verdicts that follow — as it
    /// was: no ghost window, no false collapse now, the true spike later.
    #[test]
    fn a_late_burst_leaves_the_rate_baseline_unchanged() {
        let run = |late_burst: bool| {
            let mut set = shipped_at_1us("rate_anomaly");
            let mut out = Vec::new();
            for win in 0..10u64 {
                for i in 0..if win == 8 { 600 } else { 120 } {
                    set.observe(&doc(win * 1_000 + i, "read", json!({})), &mut out);
                }
                if late_burst && win == 5 {
                    for i in 0..2 {
                        set.observe(&doc(1_500 + i, "read", json!({})), &mut out);
                    }
                }
                set.evaluate_ready(&mut out);
            }
            set.evaluate_all(&mut out);
            (out, set.late_events())
        };
        let (alerts, late) = run(true);
        assert_eq!(late, 4, "two events, refused by the routers of both rules");
        assert_eq!(alerts.len(), 1, "a ghost window of 2 ops would be a collapse: {alerts:?}");
        assert_eq!(alerts[0].fields["rule"], "rate_spike");
        assert_eq!(alerts[0].window_start_ns, Some(8_000));
        assert_eq!((alerts, 0), run(false));
    }

    #[test]
    fn mean_when_tracks_only_matching_windows() {
        // Calm mean over windows with no errors; fire when a clean window
        // dips below the calm mean.
        let mut set = compile(
            "rule dip on window(1us) when errors == 0 and count * 2 < \
             mean_when(count, errors == 0) then alert(info, \"dip\")",
        )
        .unwrap();
        let mut docs = Vec::new();
        // Window 0: 10 clean events. Window 1: 10 events with errors
        // (excluded from the mean). Window 2: 1 clean event → dip.
        for i in 0..10u64 {
            docs.push(doc(i, "read", json!({})));
        }
        for i in 0..10u64 {
            docs.push(doc(1_000 + i, "read", json!({"ret_val": -1})));
        }
        docs.push(doc(2_000, "read", json!({})));
        let alerts = run(&mut set, &docs);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window_start_ns, Some(2_000));
        assert_eq!(alerts[0].fields["values"]["mean_when(count, errors == 0)"], 10.0);
    }

    #[test]
    fn attribution_optins_name_only_opted_rules() {
        let set = compile(
            "rule opted when ret_val >= 0 then alert(info, \"hit\") attribution on\n\
             rule plain when ret_val >= 0 then alert(info, \"hit\")\n\
             rule explicit_off when ret_val >= 0 then alert(info, \"hit\") attribution off",
        )
        .unwrap();
        assert_eq!(set.attribution_rules(), vec!["opted"]);
        assert_eq!(set.attribution_optins(), vec!["opted".to_string()]);
        let report = &set.reports()[0];
        assert_eq!(report["rule"], "opted");
        assert_eq!(report["attribution"], true);
        assert_eq!(set.reports()[1]["attribution"], false);
    }

    #[test]
    fn limit_suppresses_and_counts() {
        let mut set =
            compile("rule all when ret_val >= 0 then alert(info, \"hit\") limit 2").unwrap();
        let docs: Vec<Value> = (0..5).map(|i| doc(i, "read", json!({}))).collect();
        let alerts = run(&mut set, &docs);
        assert_eq!(alerts.len(), 2);
        let report = &set.reports()[0];
        assert_eq!(report["fired"], 2);
        assert_eq!(report["suppressed"], 3);
        assert_eq!(report["evaluated"], 5);
    }

    #[test]
    fn record_rules_count_without_alerting() {
        let mut set = compile("rule seen when syscall == \"read\" then record(\"reads\")").unwrap();
        let alerts = run(&mut set, &[doc(1, "read", json!({})), doc(2, "write", json!({}))]);
        assert!(alerts.is_empty());
        assert_eq!(set.reports()[0]["records"], 1);
    }

    #[test]
    fn telemetry_counters_track_fires() {
        let registry = MetricsRegistry::new();
        let mut set = compile("rule r when ret_val >= 0 then alert(info, \"x\")").unwrap();
        set.bind_telemetry(&registry);
        run(&mut set, &[doc(1, "read", json!({}))]);
        assert_eq!(registry.snapshot().counter("diagnose.rule.r.fired"), 1);
    }

    #[test]
    fn percentile_and_error_fraction_aggregates() {
        let mut set = compile(
            "rule slow on window(1us) when p95(latency_ns) > 5ms and error_fraction >= 0.5 \
             then alert(warning, \"slow and failing\")",
        )
        .unwrap();
        let mut docs = Vec::new();
        for i in 0..10u64 {
            let ret = if i < 5 { -1 } else { 1 };
            docs.push(doc(i, "read", json!({"latency_ns": 10_000_000, "ret_val": ret})));
        }
        let alerts = run(&mut set, &docs);
        assert_eq!(alerts.len(), 1);

        // The shipped error-rate rule (a quarter failing, 20 ops/window
        // floor): `(ops, failures)` per 1 µs window. Half of 40 failing
        // alerts, with the numbers behind the verdict; 19 of 19 is under
        // the floor and 9 of 40 under the threshold.
        let mut set = shipped_at_1us("error_rate");
        let windows = (0u64..).zip([(40u64, 20u64), (19, 19), (40, 9), (20, 5)]);
        let docs: Vec<Value> = windows
            .flat_map(|(w, (ops, failures))| {
                (0..ops).map(move |i| {
                    let ret_val = if i < failures { -5 } else { 1 };
                    doc(w * 1_000 + i, "read", json!({"ret_val": ret_val}))
                })
            })
            .collect();
        let alerts = run(&mut set, &docs);
        let flagged: Vec<_> = alerts.iter().map(|a| a.window_start_ns.unwrap()).collect();
        assert_eq!(flagged, [0, 3_000], "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::ErrorRateAnomaly);
        assert_eq!(alerts[0].fields["values"], json!({"count": 40.0, "error_fraction": 0.5}));
        assert_eq!(alerts[1].fields["values"], json!({"count": 20.0, "error_fraction": 0.25}));
    }

    /// A Fig. 3-shaped stream for the shipped contention rule at 1 µs:
    /// `(client ops, background threads)` per window, one op per thread.
    fn contention_docs(windows: &[(u64, u64)]) -> Vec<Value> {
        let named = |t: u64, name: String| doc(t, "pread64", json!({"proc_name": name}));
        (0u64..)
            .zip(windows)
            .flat_map(|(w, &(clients, background))| {
                let clients = (0..clients).map(move |i| named(w * 1_000 + i, "db_bench".into()));
                let background = (0..background)
                    .map(move |t| named(w * 1_000 + 500 + t, format!("rocksdb:low{t}")));
                clients.chain(background)
            })
            .collect()
    }

    /// A streaming `mean_when` knows only the windows before the one it
    /// judges. A rule it kept silent is judged again at end of stream
    /// against the mean of the whole stream, and fires per window.
    #[test]
    fn a_silent_mean_when_rule_is_judged_again_at_end_of_stream() {
        for (stream, flagged) in [
            // The dips first, their calm baseline after.
            (vec![(3, 6), (2, 5), (8, 2), (8, 1)], vec![0, 1_000]),
            // A warm-up window without a client op puts a 0 into the calm
            // mean: (0 + 8 + 8) / 3 is above 3 only once the stream ended.
            (vec![(0, 1), (3, 6), (8, 2), (8, 2)], vec![1_000]),
            // Never calm, or never below the calm mean: silent both times.
            (vec![(3, 6), (2, 5)], vec![]),
            (vec![(3, 2), (9, 6), (4, 1)], vec![]),
        ] {
            let mut set = shipped_at_1us("fig3_contention");
            let mut out = Vec::new();
            for event in contention_docs(&stream) {
                set.observe(&event, &mut out);
                set.evaluate_ready(&mut out);
            }
            assert!(out.is_empty(), "silent while streaming: {out:?}");
            set.evaluate_all(&mut out);
            let windows: Vec<_> = out
                .iter()
                .map(|a| (a.window_start_ns.unwrap(), a.window_end_ns.unwrap()))
                .collect();
            let expected: Vec<_> = flagged.iter().map(|&start| (start, start + 1_000)).collect();
            assert_eq!(windows, expected, "{stream:?}");
            assert!(out.iter().all(|a| a.time_ns == a.window_end_ns.unwrap()));
            if let Some(alert) = out.first() {
                let calm = stream.iter().filter(|w| w.1 < 5).map(|w| w.0 as f64);
                let mean = calm.clone().sum::<f64>() / calm.count() as f64;
                let values = alert.fields["values"].as_object().unwrap();
                let (_, read) =
                    values.iter().find(|(name, _)| name.starts_with("mean_when(")).unwrap();
                assert_eq!(read.as_f64(), Some(mean), "the whole stream's calm mean");
            }
            // The pass runs once: the windows are gone with it.
            set.evaluate_all(&mut out);
            assert_eq!(out.len(), flagged.len(), "a second end of stream raises nothing new");
            assert_eq!(set.reports()[0]["fired"], flagged.len());
        }
    }

    #[test]
    fn a_rule_that_matched_while_streaming_gets_no_second_pass() {
        // Calm at 8, a dip to 3 that fires, then a contended window at 9:
        // above the calm mean so far (8), below the whole stream's (14).
        let mut set = shipped_at_1us("fig3_contention");
        assert!(set.rules[0].retained.is_some(), "a mean_when rule starts out retaining");
        let alerts = run(&mut set, &contention_docs(&[(8, 1), (3, 6), (9, 6), (20, 1), (20, 1)]));
        let windows: Vec<_> = alerts.iter().map(|a| a.window_start_ns.unwrap()).collect();
        assert_eq!(windows, [1_000], "{alerts:?}");
        assert!(set.rules[0].retained.is_none(), "nothing is kept after the first match");
        // A rule without `mean_when` never retains.
        let spike =
            compile("rule r on window(1us) when count > 3 then alert(info, \"r\")").unwrap();
        assert!(spike.rules[0].retained.is_none());
    }

    #[test]
    fn retention_of_sealed_windows_is_bounded() {
        let mut set = shipped_at_1us("fig3_contention");
        let mut out = Vec::new();
        let windows = MAX_RETAINED_WINDOWS as u64 + 76;
        for w in 0..windows {
            set.observe(&doc(w * 1_000, "pread64", json!({"proc_name": "db_bench"})), &mut out);
            set.evaluate_ready(&mut out);
        }
        let retained = set.rules[0].retained.as_ref().expect("silent so far");
        assert_eq!(retained.len(), MAX_RETAINED_WINDOWS);
        let newest_sealed = (windows - 3) * 1_000;
        assert_eq!(
            retained.back().map(|(start, ..)| *start),
            Some(newest_sealed),
            "the newest stay"
        );
        set.evaluate_all(&mut out);
        assert!(out.is_empty() && set.rules[0].retained.is_none());
    }

    #[test]
    fn unchecked_compilation_of_rejected_rules_never_fires() {
        let file = parse_rules(
            "rule empty when offset > 10 and offset < 5 then alert(critical, \"never\")",
        )
        .unwrap();
        let mut set = compile_unchecked(&file);
        assert!(set.verify_report().statically_empty("empty"));
        let docs: Vec<Value> = (0..20).map(|i| doc(i, "read", json!({"offset": i * 3}))).collect();
        let alerts = run(&mut set, &docs);
        assert!(alerts.is_empty(), "statically empty rule must never fire");
    }

    #[test]
    fn unchecked_ill_typed_rules_execute_without_panicking() {
        let file = parse_rules(
            "rule bad when nonsense > syscall + 3 or p95(args) > 1 then alert(info, \"x\")",
        )
        .unwrap();
        let mut set = compile_unchecked(&file);
        let alerts = run(&mut set, &[doc(1, "read", json!({}))]);
        assert!(alerts.is_empty());
    }
}
