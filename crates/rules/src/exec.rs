//! Three-valued runtime evaluation of rule predicates.
//!
//! Evaluation uses Kleene's strong three-valued logic: a missing document
//! field (or any expression the event cannot answer) evaluates to
//! *unknown*, `and` is false-dominant, `or` is true-dominant, and a rule
//! fires only when its predicate is definitely true. Kleene evaluation is
//! monotone in the unknowns, which is what makes the static pass sound:
//! a predicate proven classically unsatisfiable cannot become true under
//! any assignment, so it can never fire at runtime either.
//!
//! A predicate is evaluated as a [`Node`] tree, lowered from its [`Expr`]
//! once when the rule is compiled: every name is resolved then — to a field
//! of the event schema, a stream atom or a window aggregate's slot — so an
//! evaluation looks nothing up by name. The event is read through
//! [`EventView`], typed event and document alike, and values borrow from
//! it: evaluating a predicate allocates nothing.

use std::borrow::Cow;
use std::collections::BTreeMap;

use dio_syscall::{EventView, Field, FileTag, Scalar, SyscallKind};

use crate::ast::{BinOp, Expr, ExprKind};

/// A runtime value in the three-valued domain; strings are lent by the
/// event or the rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum V<'a> {
    /// A number (integers, floats, and nanosecond quantities unify here).
    Num(f64),
    /// A string.
    Str(&'a str),
    /// A typed event's file tag: the string a document spells it as,
    /// rendered only if something reads it.
    Tag(FileTag),
    /// A boolean.
    Bool(bool),
    /// The third truth value: the event cannot answer this expression.
    Unknown,
}

impl<'a> From<Scalar<'a>> for V<'a> {
    fn from(value: Scalar<'a>) -> Self {
        match value {
            Scalar::Str(s) => V::Str(s),
            Scalar::Tag(tag) => V::Tag(tag),
            Scalar::Bool(b) => V::Bool(b),
            number => number.as_f64().map_or(V::Unknown, V::Num),
        }
    }
}

impl V<'_> {
    /// The definite truth value, if any.
    pub fn truth(self) -> Option<bool> {
        match self {
            V::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Whether this value is definitely true.
    pub fn is_true(self) -> bool {
        matches!(self, V::Bool(true))
    }

    fn num(self) -> Option<f64> {
        match self {
            V::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Calls `f` with the value's text when it is a string.
    pub fn with_str<R>(self, f: impl FnOnce(&str) -> R) -> Option<R> {
        match self {
            V::Str(s) => Some(f(s)),
            V::Tag(tag) => Some(f(&tag.text())),
            _ => None,
        }
    }
}

/// A predicate ready to evaluate: its [`Expr`] with every name resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A numeric literal (integers, floats and durations in ns).
    Num(f64),
    /// A string literal.
    Str(String),
    /// A field of the event.
    Field(Field),
    /// The `generation` stream atom.
    Generation,
    /// The `first_read` stream atom.
    FirstRead,
    /// `follows(<syscall>)`.
    Follows(String),
    /// A window aggregate, by its slot among the sealed window's values.
    Slot(usize),
    /// A name its scope cannot answer.
    Unknown,
    /// Arithmetic negation.
    Neg(Box<Node>),
    /// Logical negation.
    Not(Box<Node>),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Node>,
        /// Right operand.
        rhs: Box<Node>,
    },
    /// String membership.
    In {
        /// Tested expression.
        lhs: Box<Node>,
        /// Member values.
        items: Vec<String>,
    },
    /// String prefix test.
    StartsWith {
        /// Tested expression.
        lhs: Box<Node>,
        /// Required prefix.
        prefix: String,
    },
}

impl Node {
    /// Lowers `e`, resolving every `Ident`/`Call` leaf through `leaf`.
    /// Lowering is total, whatever the expression — the escape hatch
    /// `compile_unchecked` feeds arbitrary (even ill-typed) predicates
    /// through here; what a scope cannot answer becomes [`Node::Unknown`].
    pub fn lower(e: &Expr, leaf: &dyn Fn(&Expr) -> Node) -> Node {
        let lower = |e: &Expr| Box::new(Node::lower(e, leaf));
        match &e.kind {
            ExprKind::Int(v) => Node::Num(*v as f64),
            ExprKind::Float(v) => Node::Num(*v),
            ExprKind::Dur(d) => Node::Num(d.as_ns() as f64),
            ExprKind::Str(s) => Node::Str(s.clone()),
            ExprKind::Ident(_) | ExprKind::Call { .. } => leaf(e),
            ExprKind::Neg(inner) => Node::Neg(lower(inner)),
            ExprKind::Not(inner) => Node::Not(lower(inner)),
            ExprKind::Binary { op, lhs, rhs } => {
                Node::Binary { op: *op, lhs: lower(lhs), rhs: lower(rhs) }
            }
            ExprKind::In { lhs, items } => Node::In { lhs: lower(lhs), items: items.clone() },
            ExprKind::StartsWith { lhs, prefix } => {
                Node::StartsWith { lhs: lower(lhs), prefix: prefix.clone() }
            }
        }
    }

    /// Lowers a per-event predicate: names are fields of the event schema
    /// and the stream atoms.
    pub fn of_event(e: &Expr) -> Node {
        Node::lower(e, &|leaf| match &leaf.kind {
            ExprKind::Ident(name) => match name.as_str() {
                "generation" => Node::Generation,
                "first_read" => Node::FirstRead,
                _ => Field::named(name).map_or(Node::Unknown, Node::Field),
            },
            ExprKind::Call { name, args } if name == "follows" => {
                match args.first().map(|a| &a.kind) {
                    Some(ExprKind::Ident(syscall)) => Node::Follows(syscall.clone()),
                    _ => Node::Unknown,
                }
            }
            _ => Node::Unknown,
        })
    }
}

/// Which stream atoms predicates read: [`StreamState`] computes only these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtomReads {
    /// `generation` is read.
    pub generation: bool,
    /// `first_read` is read.
    pub first_read: bool,
    /// `follows(..)` is read.
    pub follows: bool,
}

impl AtomReads {
    /// Every atom.
    pub const ALL: AtomReads = AtomReads { generation: true, first_read: true, follows: true };

    /// Adds the atoms `node` reads.
    pub fn add(&mut self, node: &Node) {
        match node {
            Node::Generation => self.generation = true,
            Node::FirstRead => self.first_read = true,
            Node::Follows(_) => self.follows = true,
            Node::Neg(inner) | Node::Not(inner) => self.add(inner),
            Node::Binary { lhs, rhs, .. } => {
                self.add(lhs);
                self.add(rhs);
            }
            Node::In { lhs, .. } | Node::StartsWith { lhs, .. } => self.add(lhs),
            Node::Num(_) | Node::Str(_) | Node::Field(_) | Node::Slot(_) | Node::Unknown => {}
        }
    }
}

/// What a predicate is evaluated against.
#[derive(Clone, Copy)]
pub enum Scope<'a> {
    /// One event, with the stream atoms when the rule is a stream rule.
    Event(&'a dyn EventView, Option<&'a EventAtoms>),
    /// A sealed window: its aggregates' values by slot.
    Window(&'a [Option<f64>]),
}

impl<'a> Scope<'a> {
    fn atoms(self) -> Option<&'a EventAtoms> {
        match self {
            Scope::Event(_, atoms) => atoms,
            Scope::Window(_) => None,
        }
    }
}

/// Evaluates `node` in `scope`. Evaluation never panics and never
/// allocates.
pub fn eval<'a>(node: &'a Node, scope: Scope<'a>) -> V<'a> {
    match node {
        Node::Num(v) => V::Num(*v),
        Node::Str(s) => V::Str(s),
        Node::Field(field) => match scope {
            Scope::Event(event, _) => event.scalar(*field).map_or(V::Unknown, V::from),
            Scope::Window(_) => V::Unknown,
        },
        Node::Generation => {
            scope.atoms().and_then(|a| a.generation).map_or(V::Unknown, |g| V::Num(g as f64))
        }
        Node::FirstRead => scope.atoms().and_then(|a| a.first_read).map_or(V::Unknown, V::Bool),
        Node::Follows(syscall) => scope
            .atoms()
            .and_then(|a| a.prev_syscall.as_deref())
            .map_or(V::Unknown, |prev| V::Bool(prev == syscall)),
        Node::Slot(slot) => match scope {
            Scope::Window(values) => {
                values.get(*slot).copied().flatten().map_or(V::Unknown, V::Num)
            }
            Scope::Event(..) => V::Unknown,
        },
        Node::Unknown => V::Unknown,
        Node::Neg(inner) => eval(inner, scope).num().map_or(V::Unknown, |n| V::Num(-n)),
        Node::Not(inner) => eval(inner, scope).truth().map_or(V::Unknown, |b| V::Bool(!b)),
        Node::Binary { op, lhs, rhs } => {
            let lhs = eval(lhs, scope);
            // Kleene: false dominates `and`, true dominates `or` — whatever
            // the other side is, so it is not evaluated (most events fail a
            // rule's first conjunct).
            match (op, lhs.truth()) {
                (BinOp::And, Some(false)) => return V::Bool(false),
                (BinOp::Or, Some(true)) => return V::Bool(true),
                _ => {}
            }
            let rhs = eval(rhs, scope);
            match op {
                BinOp::And => match (lhs.truth(), rhs.truth()) {
                    (_, Some(false)) => V::Bool(false),
                    (Some(true), Some(true)) => V::Bool(true),
                    _ => V::Unknown,
                },
                BinOp::Or => match (lhs.truth(), rhs.truth()) {
                    (_, Some(true)) => V::Bool(true),
                    (Some(false), Some(false)) => V::Bool(false),
                    _ => V::Unknown,
                },
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    cmp(*op, lhs, rhs)
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => match (lhs.num(), rhs.num()) {
                    (Some(a), Some(b)) => match op {
                        BinOp::Add => V::Num(a + b),
                        BinOp::Sub => V::Num(a - b),
                        BinOp::Mul => V::Num(a * b),
                        _ if b == 0.0 => V::Unknown,
                        _ => V::Num(a / b),
                    },
                    _ => V::Unknown,
                },
            }
        }
        Node::In { lhs, items } => eval(lhs, scope)
            .with_str(|s| items.iter().any(|item| item == s))
            .map_or(V::Unknown, V::Bool),
        Node::StartsWith { lhs, prefix } => eval(lhs, scope)
            .with_str(|s| s.starts_with(prefix.as_str()))
            .map_or(V::Unknown, V::Bool),
    }
}

fn cmp(op: BinOp, a: V<'_>, b: V<'_>) -> V<'static> {
    let ord = match (a, b) {
        (V::Num(x), V::Num(y)) => x.partial_cmp(&y),
        (V::Bool(x), V::Bool(y)) => match op {
            BinOp::Eq | BinOp::Ne => Some(x.cmp(&y)),
            _ => None,
        },
        // Strings with strings; anything else is not comparable.
        _ => a.with_str(|x| b.with_str(|y| x.cmp(y))).flatten(),
    };
    match ord {
        Some(ord) => V::Bool(match op {
            BinOp::Eq => ord.is_eq(),
            BinOp::Ne => !ord.is_eq(),
            BinOp::Lt => ord.is_lt(),
            BinOp::Le => ord.is_le(),
            BinOp::Gt => ord.is_gt(),
            BinOp::Ge => ord.is_ge(),
            // Non-comparison operators never reach `cmp`.
            _ => return V::Unknown,
        }),
        None => V::Unknown,
    }
}

// -------------------------------------------------------- stream atoms

/// Per-event values of the stream sequence atoms.
#[derive(Debug, Clone, Default)]
pub struct EventAtoms {
    /// 1-based reuse generation of the event's file tag, when defined.
    pub generation: Option<u64>,
    /// Whether this is the first read observed for the tag, when defined.
    pub first_read: Option<bool>,
    /// The previous syscall on this event's thread, when known.
    pub prev_syscall: Option<Cow<'static, str>>,
}

/// Shared sequence state across all stream rules of a rule set.
///
/// The streaming form of the Fig. 2 analysis' bookkeeping (its offline form is
/// the oracle in `tests/common/oracle.rs`): generations are registered per
/// `(dev, ino)` pair for the four data-path calls carrying a parseable
/// `file_tag`, and first reads are tracked per tag. A tag's generation and
/// whether it was read live in one entry keyed by the tag. Everything is keyed
/// by values that copy — the tag, the catalog's name of a thread's last
/// syscall — so folding an event in allocates only for a tag or thread not
/// seen before, and only the atoms its rules read are kept: a set
/// whose rules never read `follows` remembers no thread's last syscall.
#[derive(Debug)]
pub struct StreamState {
    reads: AtomReads,
    tags: BTreeMap<FileTag, TagAtoms>,
    /// Generations registered so far per `(dev, ino)`.
    inodes: BTreeMap<(u64, u64), u64>,
    last_syscall_by_tid: BTreeMap<u64, Cow<'static, str>>,
}

/// What the stream knows of one data-path tag.
#[derive(Debug, Clone, Copy)]
struct TagAtoms {
    /// 1-based reuse generation among its `(dev, ino)`'s tags.
    generation: u64,
    /// Whether a read of the tag was seen.
    read: bool,
}

/// Every atom is computed.
impl Default for StreamState {
    fn default() -> Self {
        StreamState::reading(AtomReads::ALL)
    }
}

impl StreamState {
    /// State that computes only the atoms in `reads`.
    pub fn reading(reads: AtomReads) -> StreamState {
        StreamState {
            reads,
            tags: BTreeMap::new(),
            inodes: BTreeMap::new(),
            last_syscall_by_tid: BTreeMap::new(),
        }
    }

    /// Computes this event's atom values, then folds the event into the
    /// sequence state (atoms describe the stream *up to and including*
    /// this event). An atom it was not asked to read stays undefined.
    pub fn advance(&mut self, event: &dyn EventView) -> EventAtoms {
        let kind = event.kind();
        let mut atoms = EventAtoms::default();
        if let Some(tid) = event.uint(Field::Tid).filter(|_| self.reads.follows) {
            // A catalog syscall is remembered by its static name; only a
            // document can name another, and that name is copied.
            let syscall = match kind {
                Some(kind) => Some(Cow::Borrowed(kind.name())),
                None => event
                    .str(Field::Syscall)
                    .filter(|name| !name.is_empty())
                    .map(|name| Cow::Owned(name.to_string())),
            };
            // Remembering this syscall hands back the one before it.
            atoms.prev_syscall = match syscall {
                Some(syscall) => self.last_syscall_by_tid.insert(tid, syscall),
                None => self.last_syscall_by_tid.get(&tid).cloned(),
            };
        }
        if !(self.reads.generation || self.reads.first_read) {
            return atoms;
        }
        use SyscallKind::{Pread64, Pwrite64, Read, Write};
        // The data-path syscalls define `generation`/`first_read`.
        if let (Some(kind @ (Read | Write | Pread64 | Pwrite64)), Some(tag)) =
            (kind, event.file_tag())
        {
            let inodes = &mut self.inodes;
            let known = self.tags.entry(tag).or_insert_with(|| {
                let registered = inodes.entry((tag.dev, tag.ino)).or_insert(0);
                *registered += 1;
                TagAtoms { generation: *registered, read: false }
            });
            atoms.generation = Some(known.generation);
            if matches!(kind, Read | Pread64) {
                atoms.first_read = Some(!std::mem::replace(&mut known.read, true));
            }
        }
        atoms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use serde_json::{json, Value};

    fn eval_on(src: &str, doc: &Value, atoms: Option<&EventAtoms>) -> V<'static> {
        let node = Node::of_event(&parse_expr(src).unwrap());
        // Truth values and numbers borrow nothing.
        match eval(&node, Scope::Event(doc, atoms)) {
            V::Num(n) => V::Num(n),
            V::Bool(b) => V::Bool(b),
            V::Unknown => V::Unknown,
            text => panic!("a predicate evaluated to {text:?}"),
        }
    }

    #[test]
    fn field_comparisons_evaluate() {
        let doc = json!({"syscall": "read", "ret_val": -5, "latency_ns": 7_000_000});
        assert_eq!(eval_on("ret_val < 0", &doc, None), V::Bool(true));
        assert_eq!(eval_on("latency_ns > 5ms", &doc, None), V::Bool(true));
        assert_eq!(eval_on("syscall in (read, write)", &doc, None), V::Bool(true));
        assert_eq!(eval_on("syscall starts_with \"pw\"", &doc, None), V::Bool(false));
    }

    #[test]
    fn missing_fields_are_unknown_and_do_not_fire() {
        let doc = json!({"syscall": "read"});
        assert_eq!(eval_on("offset > 0", &doc, None), V::Unknown);
        // False dominates and: the rule is definitely not firing.
        assert_eq!(eval_on("offset > 0 and ret_val == 1", &doc, None), V::Unknown);
        assert_eq!(
            eval_on("offset > 0 and syscall == \"write\"", &doc, None),
            V::Bool(false),
            "a definite false short-circuits the unknown"
        );
        // True dominates or.
        assert_eq!(eval_on("offset > 0 or syscall == \"read\"", &doc, None), V::Bool(true));
        assert_eq!(eval_on("not (offset > 0)", &doc, None), V::Unknown);
    }

    #[test]
    fn arithmetic_and_division_guard() {
        let doc = json!({"ret_val": 10, "offset": 3});
        assert_eq!(eval_on("ret_val * 2 + offset == 23", &doc, None), V::Bool(true));
        assert_eq!(eval_on("ret_val / 0 > 1", &doc, None), V::Unknown);
        assert_eq!(eval_on("-ret_val < 0", &doc, None), V::Bool(true));
    }

    #[test]
    fn stream_state_tracks_generations_and_first_reads() {
        let mut state = StreamState::default();
        let write_g1 = json!({"syscall": "write", "tid": 1, "file_tag": "7|12|100", "ret_val": 4});
        let read_g2 = json!({"syscall": "read", "tid": 1, "file_tag": "7|12|900", "ret_val": 0});
        let a = state.advance(&write_g1);
        assert_eq!(a.generation, Some(1));
        assert_eq!(a.first_read, None, "writes do not define first_read");
        let a = state.advance(&read_g2);
        assert_eq!(a.generation, Some(2), "same (dev, ino), new tag");
        assert_eq!(a.first_read, Some(true));
        assert_eq!(a.prev_syscall.as_deref(), Some("write"));
        let a = state.advance(&read_g2);
        assert_eq!(a.first_read, Some(false), "second read of the tag");
    }

    #[test]
    fn atoms_undefined_off_the_data_path() {
        let mut state = StreamState::default();
        let openat = json!({"syscall": "openat", "tid": 1, "file_tag": "7|12|100"});
        let atoms = state.advance(&openat);
        assert_eq!(atoms.generation, None);
        let doc = json!({"syscall": "openat"});
        assert_eq!(eval_on("generation > 1", &doc, Some(&atoms)), V::Unknown);
        assert_eq!(eval_on("first_read", &doc, Some(&atoms)), V::Unknown);
    }

    #[test]
    fn follows_matches_the_previous_syscall_per_tid() {
        let mut state = StreamState::default();
        state.advance(&json!({"syscall": "write", "tid": 7}));
        state.advance(&json!({"syscall": "openat", "tid": 8}));
        let atoms = state.advance(&json!({"syscall": "fsync", "tid": 7}));
        let doc = json!({"syscall": "fsync"});
        assert_eq!(eval_on("follows(write)", &doc, Some(&atoms)), V::Bool(true));
        assert_eq!(eval_on("follows(read)", &doc, Some(&atoms)), V::Bool(false));
        let first = state.advance(&json!({"syscall": "read", "tid": 9}));
        assert_eq!(eval_on("follows(read)", &doc, Some(&first)), V::Unknown);
        // A name outside the catalog is remembered as the document spells it.
        state.advance(&json!({"syscall": "fork", "tid": 9}));
        let after = state.advance(&json!({"syscall": "read", "tid": 9}));
        assert_eq!(after.prev_syscall.as_deref(), Some("fork"));
    }

    /// A set that reads only some atoms computes only those: without
    /// `follows` no thread's last syscall is remembered, and the atoms it
    /// does read take the values full state gives them.
    #[test]
    fn state_computes_only_the_atoms_it_reads() {
        let node = |src: &str| Node::of_event(&parse_expr(src).unwrap());
        let mut reads = AtomReads::default();
        reads.add(&node("syscall == \"read\" and first_read and generation > 1"));
        assert_eq!(reads, AtomReads { generation: true, first_read: true, follows: false });
        reads.add(&node("not follows(write)"));
        assert_eq!(reads, AtomReads::ALL);

        let stream = [
            json!({"syscall": "write", "tid": 1, "file_tag": "7|12|100"}),
            json!({"syscall": "read", "tid": 2, "file_tag": "7|12|100"}),
            json!({"syscall": "write", "tid": 1, "file_tag": "7|12|900"}),
            json!({"syscall": "pread64", "tid": 1, "file_tag": "7|12|900"}),
            json!({"syscall": "read", "tid": 2, "file_tag": "7|12|900"}),
        ];
        let data_path = AtomReads { generation: true, first_read: true, follows: false };
        let (mut full, mut lean) = (StreamState::default(), StreamState::reading(data_path));
        for doc in &stream {
            let (a, b) = (full.advance(doc), lean.advance(doc));
            assert_eq!((a.generation, a.first_read), (b.generation, b.first_read), "{doc}");
            assert_eq!(b.prev_syscall, None);
        }
        assert!(lean.last_syscall_by_tid.is_empty() && lean.tags.len() == 2);
        let mut none = StreamState::reading(AtomReads::default());
        assert!(stream.iter().all(|doc| none.advance(doc).generation.is_none()));
        assert!(none.tags.is_empty() && none.inodes.is_empty());
    }

    /// The typed event and its document evaluate alike, the tag included:
    /// a document spells it as a string, an event renders it on demand.
    #[test]
    fn a_typed_event_evaluates_as_its_document() {
        use dio_syscall::{FileTag, SyscallEvent, SyscallKind};
        let mut event = SyscallEvent::synthetic(SyscallKind::Pread64);
        event.comm = "db_bench".into();
        event.ret = -5;
        event.offset = Some(26);
        event.file_tag = Some(FileTag::new(7, 12, 900));
        let doc = event.to_document();
        for (src, expected) in [
            ("syscall in (read, pread64) and ret_val < 0", V::Bool(true)),
            ("proc_name starts_with \"db_\" and offset * 2 == 52", V::Bool(true)),
            ("file_tag == \"7|12|900\"", V::Bool(true)),
            ("file_tag starts_with \"7|13\"", V::Bool(false)),
            ("file_tag in (a, b)", V::Bool(false)),
            ("file_tag > proc_name", V::Bool(false)),
            ("file_path == \"/x\"", V::Unknown),
            ("args == 1 or nonsense > 2", V::Unknown),
            ("class == \"data\" and latency_ns == 0", V::Bool(true)),
        ] {
            let node = Node::of_event(&parse_expr(src).unwrap());
            assert_eq!(eval(&node, Scope::Event(&event, None)), expected, "{src}");
            assert_eq!(eval(&node, Scope::Event(&doc, None)), expected, "{src} on the document");
        }
        let (mut typed, mut loose) = (StreamState::default(), StreamState::default());
        let (a, b) = (typed.advance(&event), loose.advance(&doc));
        assert_eq!((a.generation, a.first_read), (Some(1), Some(true)));
        assert_eq!((b.generation, b.first_read), (Some(1), Some(true)));
    }
}
