//! ASL abstract syntax.

use ats_trace::CollOp;
use std::fmt;

/// The record type a property ranges over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Context {
    /// One matched send/receive pair.
    P2pPair,
    /// One member record of a collective instance; optionally restricted
    /// to a set of operations (empty = all).
    Collective(Vec<CollOp>),
    /// One critical-section visit.
    Critical,
    /// One init/finalize occupation.
    Setup,
}

/// Where a triggered property is located.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locate {
    /// The sender side of a pair.
    Sender,
    /// The receiver side of a pair.
    Receiver,
    /// The member record itself (collectives).
    Member,
    /// The record's own location (critical/setup).
    SelfLoc,
}

/// An ASL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal (seconds).
    Num(f64),
    /// Context variable or LET binding.
    Var(String),
    /// Binary operation.
    Bin(Box<Expr>, BinOp, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// `max(a, b)`.
    Max(Box<Expr>, Box<Expr>),
    /// `min(a, b)`.
    Min(Box<Expr>, Box<Expr>),
    /// `clamp(x, lo, hi)`.
    Clamp(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction (saturating at 0 is NOT implied; ASL works in f64).
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Greater-than (1.0 / 0.0).
    Gt,
    /// Less-than.
    Lt,
    /// Greater-or-equal.
    Ge,
    /// Less-or-equal.
    Le,
    /// Equality.
    Eq,
}

/// One property declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Property {
    /// Property name (reported on findings).
    pub name: String,
    /// Record type it ranges over.
    pub context: Context,
    /// `LET` bindings, in order.
    pub lets: Vec<(String, Expr)>,
    /// The waiting-time expression.
    pub wait: Expr,
    /// All `CONDITION`s must hold (evaluate nonzero). The special variable
    /// `wait` is bound to the evaluated WAIT value.
    pub conditions: Vec<Expr>,
    /// Localization.
    pub locate: Locate,
}

/// A parsed set of property declarations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PropertySet {
    /// The declarations, in source order.
    pub properties: Vec<Property>,
}

impl PropertySet {
    /// Find a property by name.
    pub fn find(&self, name: &str) -> Option<&Property> {
        self.properties.iter().find(|p| p.name == name)
    }
}

/// Binding strength of a leaf, call or negation: above every operator.
const ATOM: u8 = 4;

impl BinOp {
    /// Binding strength: comparisons 1, `+ -` 2, `* /` 3.
    fn precedence(self) -> u8 {
        match self {
            BinOp::Gt | BinOp::Lt | BinOp::Ge | BinOp::Le | BinOp::Eq => 1,
            BinOp::Add | BinOp::Sub => 2,
            BinOp::Mul | BinOp::Div => 3,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Gt => ">",
            BinOp::Lt => "<",
            BinOp::Ge => ">=",
            BinOp::Le => "<=",
            BinOp::Eq => "==",
        }
    }
}

/// An operand printed in parentheses only when it binds looser than its
/// place needs. The parser counts each parenthesis as a nesting level,
/// so printing no more of them than the tree needs keeps every parsed
/// expression within the cap when it is printed and parsed again.
struct Operand<'a>(&'a Expr, u8);

impl fmt::Display for Operand<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Operand(e, needs) = *self;
        let binds = match e {
            Expr::Bin(_, op, _) => op.precedence(),
            _ => ATOM,
        };
        if binds < needs {
            write!(f, "({e})")
        } else {
            write!(f, "{e}")
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Neg(e) => write!(f, "-{}", Operand(e, ATOM)),
            Expr::Max(a, b) => write!(f, "max({a}, {b})"),
            Expr::Min(a, b) => write!(f, "min({a}, {b})"),
            Expr::Clamp(x, lo, hi) => write!(f, "clamp({x}, {lo}, {hi})"),
            Expr::Bin(a, op, b) => {
                // Arithmetic associates to the left, so only a left
                // operand may share the node's level; comparisons do not
                // chain, so neither of theirs may.
                let p = op.precedence();
                let left = if p == 1 { 2 } else { p };
                let (a, b) = (Operand(a, left), Operand(b, p + 1));
                write!(f, "{a} {} {b}", op.symbol())
            }
        }
    }
}

impl fmt::Display for Property {
    /// Pretty-print back to parseable ASL source.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ctx = match &self.context {
            Context::P2pPair => "p2p_pair".to_owned(),
            Context::Critical => "critical".to_owned(),
            Context::Setup => "setup".to_owned(),
            Context::Collective(ops) if ops.is_empty() => "collective".to_owned(),
            Context::Collective(ops) => {
                // The parser's op keywords are the enum variant names.
                let mapped: Vec<String> = ops.iter().map(|o| format!("{o:?}")).collect();
                format!("collective({})", mapped.join(", "))
            }
        };
        writeln!(f, "PROPERTY {} OVER {ctx} {{", self.name)?;
        for (name, e) in &self.lets {
            writeln!(f, "    LET {name} = {e};")?;
        }
        writeln!(f, "    WAIT {};", self.wait)?;
        for c in &self.conditions {
            writeln!(f, "    CONDITION {c};")?;
        }
        let loc = match self.locate {
            Locate::Sender => "sender",
            Locate::Receiver => "receiver",
            Locate::Member => "member",
            Locate::SelfLoc => "self",
        };
        writeln!(f, "    LOCATE {loc};")?;
        write!(f, "}}")
    }
}

impl fmt::Display for PropertySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.properties {
            writeln!(f, "{p}\n")?;
        }
        Ok(())
    }
}

/// Parse or evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AslError {
    /// Human-readable message with position information.
    pub message: String,
}

impl fmt::Display for AslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ASL error: {}", self.message)
    }
}

impl std::error::Error for AslError {}

impl AslError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        AslError {
            message: message.into(),
        }
    }
}
