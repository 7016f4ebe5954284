//! ASL compilation and evaluation over the analyzer's extracted records.
//!
//! A declaration compiles once: each variable becomes a slot and each
//! literal a scaled integer. Evaluation then runs in exact integers, one
//! slot array per record, with no map or string built on the way.

use super::ast::{AslError, BinOp, Context, Expr, Locate, Property, PropertySet};
use crate::callpath::PathId;
use crate::extract::Extract;
use crate::patterns::{match_messages, EarlyArrivals, MatchedPair};
use crate::property::PropertyKind;
use ats_runtime::{VDur, VTime};
use ats_trace::{LocationId, Trace};
use std::collections::BTreeMap;

/// One located wait: a declaration's finding on one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AslFinding {
    /// Index of the triggered declaration in its set.
    pub property: usize,
    /// Call path of the located side.
    pub path: PathId,
    /// Blamed location.
    pub loc: LocationId,
    /// The instant the wait starts: the located record's start.
    pub start: VTime,
    /// The waiting time, always positive.
    pub wait: VDur,
}

/// What a value measures: a time (an instant or span, held in
/// nanoseconds) or a plain number `x` (held as `x · 10⁹`). An expression
/// of literals alone has neither kind: it takes the kind of what it
/// meets, and its value is the same either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Time,
    Plain,
}

use Kind::{Plain, Time};

/// The scale of every value: a time in nanoseconds is seconds times
/// `UNIT`, and a plain number is held the same way, so only `*` and `/`
/// need to rescale.
const UNIT: i128 = 1_000_000_000;

const OVERFLOW: &str = "arithmetic overflow";

/// The facts each record of a context supplies, in slot order; all are
/// times but the `PLAIN` ones.
const P2P: &str = "send_post send_enter send_exit recv_posted recv_enter recv_exit \
                   recv_completion bytes early_overlap";
/// A collective member's `root_entry` and `is_root` exist only where the
/// instance's root is in the trace.
const COLLECTIVE: &str =
    "entered exit max_entry prefix_entry bytes max_nonroot_entry root_entry is_root";

const PLAIN: [&str; 2] = ["bytes", "is_root"];
/// The slots of `root_entry` and `is_root`.
const ROOT_FACTS: u32 = 0b11 << 6;

impl Context {
    fn facts(&self) -> std::str::SplitWhitespace<'static> {
        match self {
            Context::P2pPair => P2P,
            Context::Collective(_) => COLLECTIVE,
            Context::Critical => "arrive acquired released",
            Context::Setup => "time",
        }
        .split_whitespace()
    }
}

/// One instruction of a compiled expression, which runs in postfix
/// order on a stack above the slots: slots for variables, scaled
/// integers for literals, `-x` as `0 - x` and `clamp` as
/// `min(max(x, lo), hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Instr {
    Lit(i128),
    Slot(usize),
    Apply(Op),
}

type Code = Vec<Instr>;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Max,
    Min,
    Bin(BinOp),
}

/// One compiled declaration. Its slots are the context's facts, then
/// one per `LET`, then `wait`: `body` computes each LET and the WAIT in
/// turn, and each value it leaves on the stack lands in its slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Program {
    body: Code,
    conditions: Vec<Code>,
    /// The facts the declaration reads, one bit per slot: a record that
    /// lacks one yields no finding.
    reads: u32,
    /// The analyzer property its name declares, if any.
    kind: Option<PropertyKind>,
}

/// Compile one declaration, checking every name and kind.
pub(super) fn compile(p: &Property) -> Result<Program, AslError> {
    let kind = |n| Some(if PLAIN.contains(&n) { Plain } else { Time });
    let names: Vec<_> = p.context.facts().map(|n| (n, kind(n))).collect();
    let mut scope = Scope {
        facts: names.len(),
        names,
        reads: 0,
    };
    let named = |e: String| AslError::new(format!("{}: {e}", p.name));
    let mut body = Code::new();
    for (name, e) in &p.lets {
        let kind = scope.compile(e, &mut body).map_err(named)?;
        scope.names.push((name, kind));
    }
    if scope.compile(&p.wait, &mut body).map_err(named)? == Some(Plain) {
        return Err(named("WAIT is a plain number, not a time".into()));
    }
    scope.names.push(("wait", Some(Time)));
    let mut conditions = Vec::with_capacity(p.conditions.len());
    for c in &p.conditions {
        let mut code = Code::new();
        scope.compile(c, &mut code).map_err(named)?;
        // `wait > 0` holds for every finding: drop it.
        let gt = Instr::Apply(Op::Bin(BinOp::Gt));
        if code != [Instr::Slot(scope.names.len() - 1), Instr::Lit(0), gt] {
            conditions.push(code);
        }
    }
    Ok(Program {
        body,
        conditions,
        reads: scope.reads,
        kind: p.name.parse().ok(),
    })
}

type Inferred = Result<Option<Kind>, String>;

/// The names one declaration can see, indexed by slot.
struct Scope<'a> {
    names: Vec<(&'a str, Option<Kind>)>,
    /// How many leading slots are context facts.
    facts: usize,
    reads: u32,
}

impl Scope<'_> {
    /// Compile `e` onto `out` and infer its kind (`None`: literals only).
    fn compile(&mut self, e: &Expr, out: &mut Code) -> Inferred {
        Ok(match e {
            Expr::Num(x) => {
                let v = (x * 1e9).round();
                if !v.is_finite() || v.abs() >= 1e36 {
                    return Err(format!("literal {x} is out of range"));
                }
                out.push(Instr::Lit(v as i128));
                None
            }
            Expr::Var(name) => {
                let slot = self
                    .names
                    .iter()
                    .rposition(|(n, _)| n == name)
                    .ok_or_else(|| format!("unknown variable `{name}` in this context"))?;
                if slot < self.facts {
                    self.reads |= 1 << slot;
                }
                out.push(Instr::Slot(slot));
                self.names[slot].1
            }
            Expr::Neg(x) => {
                out.push(Instr::Lit(0));
                let kind = self.compile(x, out)?;
                out.push(Instr::Apply(Op::Bin(BinOp::Sub)));
                kind
            }
            Expr::Max(a, b) => self.apply(a, Op::Max, b, out)?,
            Expr::Min(a, b) => self.apply(a, Op::Min, b, out)?,
            Expr::Clamp(x, lo, hi) => {
                let low = self.apply(x, Op::Max, lo, out)?;
                let high = self.compile(hi, out)?;
                out.push(Instr::Apply(Op::Min));
                join(low, high)?
            }
            Expr::Bin(a, op, b) => self.apply(a, Op::Bin(*op), b, out)?,
        })
    }

    fn apply(&mut self, a: &Expr, op: Op, b: &Expr, out: &mut Code) -> Inferred {
        let ka = self.compile(a, out)?;
        let kb = self.compile(b, out)?;
        out.push(Instr::Apply(op));
        Ok(match op {
            Op::Bin(BinOp::Mul) => match (ka, kb) {
                (Some(Time), Some(Time)) => return Err("`*` of two times".into()),
                (Some(Time), _) | (_, Some(Time)) => Some(Time),
                (Some(Plain), Some(Plain)) => Some(Plain),
                _ => None,
            },
            Op::Bin(BinOp::Div) if kb == Some(Time) => return Err("`/` by a time".into()),
            Op::Bin(BinOp::Div) => ka,
            Op::Max | Op::Min | Op::Bin(BinOp::Add | BinOp::Sub) => join(ka, kb)?,
            Op::Bin(_) => join(ka, kb).map(|_| Some(Plain))?,
        })
    }
}

/// The kind two operands share: only `*` and `/` mix a time with a
/// plain number.
fn join(a: Option<Kind>, b: Option<Kind>) -> Inferred {
    match (a, b) {
        (Some(x), Some(y)) if x != y => Err("a time and a plain number mixed".into()),
        _ => Ok(a.or(b)),
    }
}

const WELL_FORMED: &str = "compiled code never underflows its stack";

/// Run `code` on the stack above `slots`, leaving one value per
/// expression it holds.
fn exec(code: &[Instr], slots: &mut Vec<i128>) -> Result<(), &'static str> {
    for &instr in code {
        match instr {
            Instr::Lit(v) => slots.push(v),
            Instr::Slot(i) => slots.push(slots[i]),
            Instr::Apply(op) => {
                let b = slots.pop().expect(WELL_FORMED);
                let a = slots.last_mut().expect(WELL_FORMED);
                *a = apply(op, *a, b)?;
            }
        }
    }
    Ok(())
}

fn apply(op: Op, a: i128, b: i128) -> Result<i128, &'static str> {
    let truth = |t: bool| if t { UNIT } else { 0 };
    Ok(match op {
        Op::Max => a.max(b),
        Op::Min => a.min(b),
        Op::Bin(BinOp::Add) => a.checked_add(b).ok_or(OVERFLOW)?,
        Op::Bin(BinOp::Sub) => a.checked_sub(b).ok_or(OVERFLOW)?,
        Op::Bin(BinOp::Mul) => div_round(a.checked_mul(b).ok_or(OVERFLOW)?, UNIT)?,
        Op::Bin(BinOp::Div) => div_round(a.checked_mul(UNIT).ok_or(OVERFLOW)?, b)?,
        Op::Bin(BinOp::Gt) => truth(a > b),
        Op::Bin(BinOp::Lt) => truth(a < b),
        Op::Bin(BinOp::Ge) => truth(a >= b),
        Op::Bin(BinOp::Le) => truth(a <= b),
        Op::Bin(BinOp::Eq) => truth(a == b),
    })
}

/// `n / d` rounded to the nearest integer, halves away from zero.
fn div_round(n: i128, d: i128) -> Result<i128, &'static str> {
    if d == 0 {
        return Err("division by zero");
    }
    let (q, r) = (n.checked_div(d).ok_or(OVERFLOW)?, n % d);
    let away = if (n < 0) == (d < 0) { 1 } else { -1 };
    Ok(q + away * i128::from(r.unsigned_abs() * 2 >= d.unsigned_abs()))
}

impl Program {
    /// The wait on a record whose facts are `slots`, `present` marking
    /// the ones it has; `None` if the declaration does not trigger.
    /// Conditions run in order and stop at the first that fails.
    fn run(&self, slots: &mut Vec<i128>, present: u32) -> Result<Option<VDur>, &'static str> {
        if self.reads & !present != 0 {
            return Ok(None);
        }
        exec(&self.body, slots)?;
        let wait = *slots.last().expect(WELL_FORMED);
        if wait <= 0 {
            return Ok(None);
        }
        for c in &self.conditions {
            exec(c, slots)?;
            if slots.pop() == Some(0) {
                return Ok(None);
            }
        }
        u64::try_from(wait)
            .map(|w| Some(VDur(w)))
            .map_err(|_| OVERFLOW)
    }
}

fn ns(t: VTime) -> i128 {
    i128::from(t.0)
}

impl PropertySet {
    /// The analyzer property declaration `property` names, if any.
    pub(crate) fn kind(&self, property: usize) -> Option<PropertyKind> {
        self.programs[property].kind
    }

    /// Evaluate the set over a trace's extracted records.
    pub fn evaluate(&self, ex: &Extract, trace: &Trace) -> Result<Vec<AslFinding>, AslError> {
        let mut out = Vec::new();
        self.each_finding(ex, &match_messages(ex), trace, |f| out.push(f))?;
        Ok(out)
    }

    /// Total waiting time per declared name.
    pub fn totals(&self, findings: &[AslFinding]) -> BTreeMap<&str, VDur> {
        let mut out = BTreeMap::new();
        for f in findings {
            *out.entry(self.properties[f.property].name.as_str())
                .or_default() += f.wait;
        }
        out
    }

    /// Hand every finding on `ex` and its matched `pairs` to `emit`.
    /// `trace` resolves collective roots.
    pub(crate) fn each_finding(
        &self,
        ex: &Extract,
        pairs: &[MatchedPair],
        trace: &Trace,
        mut emit: impl FnMut(AslFinding),
    ) -> Result<(), AslError> {
        self.each_pair_finding(pairs, &mut emit)?;
        let mut slots = Vec::new();
        for inst in &ex.colls {
            let over = |c: &Context| match c {
                Context::Collective(ops) => ops.is_empty() || ops.contains(&inst.op),
                _ => false,
            };
            if !self.properties.iter().any(|p| over(&p.context)) {
                continue;
            }
            let max_entry = inst.members.iter().map(|m| m.entered).max().map_or(0, ns);
            let root = inst.root_member(trace).map(|m| (m.loc, m.entered));
            // With no other member, the root's own entry.
            let max_nonroot = (inst.members.iter())
                .filter(|m| root.is_none_or(|(loc, _)| loc != m.loc))
                .map(|m| m.entered)
                .max()
                .or(root.map(|(_, t)| t));
            let present = if root.is_some() { !0 } else { !ROOT_FACTS };
            let mut prefix = VTime::ZERO;
            for m in &inst.members {
                prefix = prefix.max(m.entered);
                let facts = [
                    ns(m.entered),
                    ns(m.exit),
                    max_entry,
                    ns(prefix),
                    UNIT * i128::from(m.bytes),
                    max_nonroot.map_or(0, ns),
                    root.map_or(0, |(_, t)| ns(t)),
                    UNIT * i128::from(root.is_some_and(|(loc, _)| loc == m.loc)),
                ];
                let at = |_| (m.path, m.loc, m.entered);
                self.record(&mut slots, (&facts, present), over, at, &mut emit)?;
            }
        }
        for v in &ex.criticals {
            let facts = [ns(v.arrive), ns(v.acquired), ns(v.released)];
            let over = |c: &Context| *c == Context::Critical;
            let at = |_| (v.path, v.loc, v.arrive);
            self.record(&mut slots, (&facts, !0), over, at, &mut emit)?;
        }
        for s in &ex.setup {
            let over = |c: &Context| *c == Context::Setup;
            let at = |_| (s.path, s.loc, s.entered);
            let facts = [i128::from(s.time.0)];
            self.record(&mut slots, (&facts, !0), over, at, &mut emit)?;
        }
        Ok(())
    }

    /// The p2p part of [`Self::each_finding`].
    pub(crate) fn each_pair_finding(
        &self,
        pairs: &[MatchedPair],
        emit: &mut impl FnMut(AslFinding),
    ) -> Result<(), AslError> {
        let over = |c: &Context| *c == Context::P2pPair;
        let early = EarlyArrivals::new(pairs);
        let mut slots = Vec::new();
        for p in pairs {
            let (s, r) = (&p.send, &p.recv);
            let facts = [
                ns(s.post),
                ns(s.enter),
                ns(s.exit),
                ns(r.posted),
                ns(r.enter),
                ns(r.exit),
                ns(r.completion),
                UNIT * i128::from(s.bytes),
                i128::try_from(early.overlap(p)).unwrap_or(i128::MAX),
            ];
            let at = |locate| match locate {
                Locate::Sender => (s.path, s.loc, s.post),
                _ => (r.path, r.loc, r.posted),
            };
            self.record(&mut slots, (&facts, !0), over, at, emit)?;
        }
        Ok(())
    }

    /// Run each declaration whose context `over` accepts on one record:
    /// `facts` fill the first slots, `present` marks the ones the record
    /// has, and each finding goes to `emit` at the `(path, location,
    /// start)` its LOCATE target names.
    fn record(
        &self,
        slots: &mut Vec<i128>,
        (facts, present): (&[i128], u32),
        over: impl Fn(&Context) -> bool,
        at: impl Fn(Locate) -> (PathId, LocationId, VTime),
        emit: &mut impl FnMut(AslFinding),
    ) -> Result<(), AslError> {
        slots.clear();
        slots.extend_from_slice(facts);
        for (i, (prop, program)) in self.properties.iter().zip(&self.programs).enumerate() {
            if !over(&prop.context) {
                continue;
            }
            slots.truncate(facts.len());
            let wait = (program.run(slots, present))
                .map_err(|e| AslError::new(format!("{}: {e}", prop.name)))?;
            if let Some(wait) = wait {
                let (path, loc, start) = at(prop.locate);
                emit(AslFinding {
                    property: i,
                    path,
                    loc,
                    start,
                    wait,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{default_property_set, parse};
    use super::*;
    use crate::cfg;
    use crate::extract::extract;
    use ats_core::{properties::mpi_coll, properties::mpi_p2p, BaseComm, Distr};
    use ats_runtime::MachineModel;
    use std::collections::BTreeSet;

    fn late_sender_trace() -> Trace {
        ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.002, 0.02, 2, &c);
        })
    }

    /// The total wait of each declared name of `src` on `trace`.
    fn totals(src: &str, trace: &Trace) -> Vec<(String, VDur)> {
        let set = parse(src).unwrap();
        let findings = set.evaluate(&extract(trace), trace).unwrap();
        let totals = set.totals(&findings).into_iter();
        totals.map(|(n, w)| (n.to_owned(), w)).collect()
    }

    #[test]
    fn the_default_set_declares_exactly_the_leaves() {
        let set = default_property_set();
        let declared: BTreeSet<_> = (0..set.properties().len()).map(|i| set.kind(i)).collect();
        let leaves = PropertyKind::leaves().iter().map(|&k| Some(k)).collect();
        assert_eq!(declared, leaves);
    }

    #[test]
    fn custom_property_definitions_work() {
        // A user-defined property: "slow transfer" — any pair whose
        // delivery takes longer than 1ms after both sides are ready.
        let set = parse(
            r"PROPERTY SlowTransfer OVER p2p_pair {
                LET ready = max(send_post, recv_posted);
                WAIT recv_completion - ready;
                CONDITION wait > 0.001;
                LOCATE receiver;
            }",
        )
        .unwrap();
        // With a 2ms latency model, every transfer is 'slow'.
        let mut config = cfg(2);
        config.model = MachineModel {
            latency: VDur::from_millis(2),
            ..MachineModel::zero()
        };
        let trace = ats_mpi::run(config, |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.001, 0.004, 3, &c);
        });
        let findings = set.evaluate(&extract(&trace), &trace).unwrap();
        assert_eq!(findings.len(), 3, "one per repetition");
        for f in &findings {
            assert_eq!(set.properties()[f.property].name, "SlowTransfer");
            assert!(f.wait >= VDur::from_millis(2));
        }
    }

    /// A literal next to a time is seconds, next to a plain number a
    /// plain number; `*` and `/` scale a time by a plain number.
    #[test]
    fn literals_take_the_kind_of_what_they_meet() {
        let trace = late_sender_trace();
        // 2 pairs x 2 reps x 20ms late.
        let w = "(clamp(send_post, recv_posted, recv_completion) - recv_posted)";
        for (wait, cond, ms) in [
            (w.to_owned(), "wait > 0.019", 80.0),
            (w.to_owned(), "wait > 0.021", 0.0),
            (w.to_owned(), "bytes >= 0", 80.0),
            (w.to_owned(), "bytes < 0", 0.0),
            (format!("{w} * 3 / 2"), "1", 120.0),
            (format!("2 * {w} - 0.01"), "1", 120.0),
            // A third of 20ms, to the nearest nanosecond.
            (format!("{w} / 3"), "1", 4.0 * 6.666667),
        ] {
            let src = format!(
                "PROPERTY X OVER p2p_pair {{ WAIT {wait}; CONDITION {cond}; LOCATE receiver; }}"
            );
            let got = totals(&src, &trace).first().map_or(VDur::ZERO, |t| t.1);
            assert_eq!(got, VDur::from_secs(ms / 1e3), "{wait} if {cond}");
        }
    }

    #[test]
    fn unknown_variable_is_reported_with_property_name() {
        let err = parse("PROPERTY Broken OVER setup { WAIT nonsense; LOCATE self; }").unwrap_err();
        assert_eq!(
            err.message,
            "Broken: unknown variable `nonsense` in this context"
        );
        // `wait` is bound for the conditions only.
        let err = parse("PROPERTY Early OVER setup { LET x = wait; WAIT time; LOCATE self; }");
        assert!(err
            .unwrap_err()
            .message
            .starts_with("Early: unknown variable `wait`"));
    }

    #[test]
    fn kinds_overflow_and_division_by_zero_fail_naming_the_property() {
        let trace = late_sender_trace();
        for (body, reason) in [
            ("WAIT recv_posted * send_post;", "`*` of two times"),
            ("WAIT recv_posted / recv_enter;", "`/` by a time"),
            ("WAIT bytes;", "WAIT is a plain number, not a time"),
            (
                "WAIT recv_posted > 0;",
                "WAIT is a plain number, not a time",
            ),
            (
                "WAIT recv_posted + bytes;",
                "a time and a plain number mixed",
            ),
            (
                "WAIT recv_exit; CONDITION max(bytes, wait) > 0;",
                "a time and a plain number mixed",
            ),
            (
                "WAIT recv_exit + 1000000000000000000000000000;",
                "literal 1000000000000000000000000000 is out of range",
            ),
            (
                "WAIT recv_exit * 1000000000000000000000;",
                "arithmetic overflow",
            ),
            ("WAIT recv_exit / (bytes - bytes);", "division by zero"),
            // Longer than a duration can hold.
            ("WAIT recv_exit + 18446744073.71;", "arithmetic overflow"),
        ] {
            let src = format!("PROPERTY P OVER p2p_pair {{ {body} LOCATE receiver; }}");
            let err = parse(&src).and_then(|set| set.evaluate(&extract(&trace), &trace));
            assert_eq!(err.unwrap_err().message, format!("P: {reason}"), "{body}");
        }
    }

    #[test]
    fn a_record_without_a_fact_yields_no_finding() {
        // A barrier has no root, so a declaration reading `root_entry`
        // never triggers on one; one that does not read it still does.
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_coll::imbalance_at_mpi_barrier(p, &Distr::linear(0.0, 0.03), 1, &c);
        });
        let src =
            "PROPERTY Rooted OVER collective { WAIT root_entry - entered + 1; LOCATE member; }
                   PROPERTY Any OVER collective { WAIT max_entry - entered; LOCATE member; }";
        let got = totals(src, &trace);
        assert_eq!(got, [("Any".to_owned(), VDur::from_millis(60))]);
    }

    #[test]
    fn an_expression_at_the_nesting_bound_evaluates() {
        // LateSender's wait is two levels deep (a clamp under a
        // subtraction); 126 parentheses put it at the 128-level bound.
        let wait = "clamp(send_post, recv_posted, recv_completion) - recv_posted";
        let deep = format!("{}{wait}{}", "(".repeat(126), ")".repeat(126));
        let set = |w: &str| format!("PROPERTY Deep OVER p2p_pair {{ WAIT {w}; LOCATE receiver; }}");
        let trace = late_sender_trace();
        let deep = totals(&set(&deep), &trace);
        assert!(deep[0].1 > VDur::ZERO);
        assert_eq!(deep, totals(&set(wait), &trace));
    }

    #[test]
    fn negative_programs_trigger_nothing() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            ats_core::properties::negative::balanced_mpi_barrier(p, 0.01, 2, &c);
            mpi_coll::imbalance_at_mpi_barrier(p, &Distr::same(0.005), 1, &c);
        });
        let findings = (default_property_set().evaluate(&extract(&trace), &trace)).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }
}
