//! A hand-rolled recursive-descent parser for the ASL subset.

use super::ast::{AslError, BinOp, Context, Expr, Locate, Property, PropertySet};
use ats_trace::CollOp;

/// How many levels an expression may nest, as `Json::parse` caps its
/// nesting: every parenthesis, unary minus, function call and binary
/// operator above a leaf is one level. Evaluating, printing and dropping
/// an [`Expr`] recurse once per level, so an unbounded tree would
/// overflow the stack.
const MAX_LEVELS: usize = 128;

/// Parse a property-set source text.
pub fn parse(src: &str) -> Result<PropertySet, AslError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut properties = Vec::new();
    while !p.at_end() {
        properties.push(p.property()?);
    }
    let set = PropertySet { properties };
    // Reject duplicate names early.
    for (i, a) in set.properties.iter().enumerate() {
        if set.properties[..i].iter().any(|b| b.name == a.name) {
            return Err(AslError::new(format!("duplicate property `{}`", a.name)));
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Sym(char),
    // two-char comparison operators
    Ge,
    Le,
    EqEq,
}

fn lex(src: &str) -> Result<Vec<Tok>, AslError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.push(Tok::Ident(bytes[start..i].iter().collect()));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let n = text
                    .parse::<f64>()
                    .map_err(|_| AslError::new(format!("bad number `{text}`")))?;
                out.push(Tok::Num(n));
            }
            '>' if bytes.get(i + 1) == Some(&'=') => {
                out.push(Tok::Ge);
                i += 2;
            }
            '<' if bytes.get(i + 1) == Some(&'=') => {
                out.push(Tok::Le);
                i += 2;
            }
            '=' if bytes.get(i + 1) == Some(&'=') => {
                out.push(Tok::EqEq);
                i += 2;
            }
            '{' | '}' | '(' | ')' | ';' | ',' | '=' | '+' | '-' | '*' | '/' | '>' | '<' => {
                out.push(Tok::Sym(c));
                i += 1;
            }
            other => return Err(AslError::new(format!("unexpected character `{other}`"))),
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, AslError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| AslError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_sym(&mut self, c: char) -> Result<(), AslError> {
        match self.next()? {
            Tok::Sym(s) if s == c => Ok(()),
            other => Err(AslError::new(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), AslError> {
        match self.next()? {
            Tok::Ident(w) if w == kw => Ok(()),
            other => Err(AslError::new(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String, AslError> {
        match self.next()? {
            Tok::Ident(w) => Ok(w),
            other => Err(AslError::new(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn property(&mut self) -> Result<Property, AslError> {
        self.expect_kw("PROPERTY")?;
        let name = self.ident()?;
        self.expect_kw("OVER")?;
        let context = self.context()?;
        self.expect_sym('{')?;
        let mut lets = Vec::new();
        let mut wait = None;
        let mut conditions = Vec::new();
        let mut locate = None;
        loop {
            match self.peek() {
                Some(Tok::Sym('}')) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Ident(kw)) => match kw.as_str() {
                    "LET" => {
                        self.pos += 1;
                        let var = self.ident()?;
                        self.expect_sym('=')?;
                        let e = self.expr_of(&name)?;
                        self.expect_sym(';')?;
                        lets.push((var, e));
                    }
                    "WAIT" => {
                        self.pos += 1;
                        let e = self.expr_of(&name)?;
                        self.expect_sym(';')?;
                        if wait.replace(e).is_some() {
                            return Err(AslError::new(format!("{name}: duplicate WAIT")));
                        }
                    }
                    "CONDITION" => {
                        self.pos += 1;
                        let e = self.expr_of(&name)?;
                        self.expect_sym(';')?;
                        conditions.push(e);
                    }
                    "LOCATE" => {
                        self.pos += 1;
                        let target = self.ident()?;
                        self.expect_sym(';')?;
                        let l = match target.as_str() {
                            "sender" => Locate::Sender,
                            "receiver" => Locate::Receiver,
                            "member" => Locate::Member,
                            "root" => Locate::Member,
                            "self" => Locate::SelfLoc,
                            other => {
                                return Err(AslError::new(format!(
                                    "{name}: unknown LOCATE target `{other}`"
                                )))
                            }
                        };
                        if locate.replace(l).is_some() {
                            return Err(AslError::new(format!("{name}: duplicate LOCATE")));
                        }
                    }
                    other => {
                        return Err(AslError::new(format!(
                            "{name}: unknown statement `{other}`"
                        )))
                    }
                },
                other => return Err(AslError::new(format!("{name}: unexpected {other:?}"))),
            }
        }
        let wait = wait.ok_or_else(|| AslError::new(format!("{name}: missing WAIT")))?;
        let locate = locate.ok_or_else(|| AslError::new(format!("{name}: missing LOCATE")))?;
        // Locate must fit the context.
        let ok = matches!(
            (&context, locate),
            (Context::P2pPair, Locate::Sender | Locate::Receiver)
                | (Context::Collective(_), Locate::Member)
                | (Context::Critical, Locate::SelfLoc)
                | (Context::Setup, Locate::SelfLoc)
        );
        if !ok {
            return Err(AslError::new(format!(
                "{name}: LOCATE target does not fit context {context:?}"
            )));
        }
        Ok(Property {
            name,
            context,
            lets,
            wait,
            conditions,
            locate,
        })
    }

    fn context(&mut self) -> Result<Context, AslError> {
        let name = self.ident()?;
        match name.as_str() {
            "p2p_pair" => Ok(Context::P2pPair),
            "critical" => Ok(Context::Critical),
            "setup" => Ok(Context::Setup),
            "collective" => {
                let mut ops = Vec::new();
                if self.peek() == Some(&Tok::Sym('(')) {
                    self.pos += 1;
                    loop {
                        let op = self.ident()?;
                        ops.push(coll_op(&op)?);
                        match self.next()? {
                            Tok::Sym(',') => continue,
                            Tok::Sym(')') => break,
                            other => {
                                return Err(AslError::new(format!(
                                    "expected `,` or `)`, found {other:?}"
                                )))
                            }
                        }
                    }
                }
                Ok(Context::Collective(ops))
            }
            other => Err(AslError::new(format!("unknown context `{other}`"))),
        }
    }

    /// One expression of property `name`; an error names the property.
    fn expr_of(&mut self, name: &str) -> Result<Expr, AslError> {
        self.expr(MAX_LEVELS)
            .map(|(e, _)| e)
            .map_err(|e| AslError::new(format!("{name}: {}", e.message)))
    }

    // expr := cmp ; cmp := sum ((>|<|>=|<=|==) sum)? ; sum := term ((+|-) term)* ;
    // term := factor ((*|/) factor)* ; factor := NUM | IDENT | call | (expr) | -factor
    //
    // Each returns the expression and its height, at most `levels`.
    fn expr(&mut self, levels: usize) -> Result<(Expr, usize), AslError> {
        let lhs = self.sum(levels)?;
        let op = match self.peek() {
            Some(Tok::Sym('>')) => Some(BinOp::Gt),
            Some(Tok::Sym('<')) => Some(BinOp::Lt),
            Some(Tok::Ge) => Some(BinOp::Ge),
            Some(Tok::Le) => Some(BinOp::Le),
            Some(Tok::EqEq) => Some(BinOp::Eq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.sum(levels)?;
            bin(lhs, op, rhs, levels)
        } else {
            Ok(lhs)
        }
    }

    fn sum(&mut self, levels: usize) -> Result<(Expr, usize), AslError> {
        let mut e = self.term(levels)?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym('+')) => BinOp::Add,
                Some(Tok::Sym('-')) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.term(levels)?;
            e = bin(e, op, rhs, levels)?;
        }
        Ok(e)
    }

    fn term(&mut self, levels: usize) -> Result<(Expr, usize), AslError> {
        let mut e = self.factor(levels)?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym('*')) => BinOp::Mul,
                Some(Tok::Sym('/')) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.factor(levels)?;
            e = bin(e, op, rhs, levels)?;
        }
        Ok(e)
    }

    fn factor(&mut self, levels: usize) -> Result<(Expr, usize), AslError> {
        match self.next()? {
            Tok::Num(n) => Ok((Expr::Num(n), 0)),
            Tok::Sym('-') => {
                let (e, height) = self.factor(below(levels)?)?;
                Ok((Expr::Neg(Box::new(e)), height + 1))
            }
            Tok::Sym('(') => {
                let (e, height) = self.expr(below(levels)?)?;
                self.expect_sym(')')?;
                Ok((e, height + 1))
            }
            Tok::Ident(name) => {
                if self.peek() == Some(&Tok::Sym('(')) {
                    self.pos += 1;
                    let inner = below(levels)?;
                    let mut args = Vec::new();
                    let mut height = 0;
                    loop {
                        let (arg, h) = self.expr(inner)?;
                        args.push(arg);
                        height = height.max(h + 1);
                        match self.next()? {
                            Tok::Sym(',') => continue,
                            Tok::Sym(')') => break,
                            other => {
                                return Err(AslError::new(format!(
                                    "expected `,` or `)`, found {other:?}"
                                )))
                            }
                        }
                    }
                    let call = match (name.as_str(), args.len()) {
                        ("max", 2) => {
                            let mut it = args.into_iter();
                            Expr::Max(
                                Box::new(it.next().expect("len 2")),
                                Box::new(it.next().expect("len 2")),
                            )
                        }
                        ("min", 2) => {
                            let mut it = args.into_iter();
                            Expr::Min(
                                Box::new(it.next().expect("len 2")),
                                Box::new(it.next().expect("len 2")),
                            )
                        }
                        ("clamp", 3) => {
                            let mut it = args.into_iter();
                            Expr::Clamp(
                                Box::new(it.next().expect("len 3")),
                                Box::new(it.next().expect("len 3")),
                                Box::new(it.next().expect("len 3")),
                            )
                        }
                        (other, n) => {
                            return Err(AslError::new(format!(
                                "unknown function `{other}` with {n} arguments"
                            )))
                        }
                    };
                    Ok((call, height))
                } else {
                    Ok((Expr::Var(name), 0))
                }
            }
            other => Err(AslError::new(format!("unexpected token {other:?}"))),
        }
    }
}

/// The levels left beneath a node that takes one of `levels`.
fn below(levels: usize) -> Result<usize, AslError> {
    levels.checked_sub(1).ok_or_else(too_deep)
}

/// `lhs op rhs` as one node, if it fits in `levels`.
fn bin(
    (lhs, lh): (Expr, usize),
    op: BinOp,
    (rhs, rh): (Expr, usize),
    levels: usize,
) -> Result<(Expr, usize), AslError> {
    let height = lh.max(rh) + 1;
    if height > levels {
        return Err(too_deep());
    }
    Ok((Expr::Bin(Box::new(lhs), op, Box::new(rhs)), height))
}

fn too_deep() -> AslError {
    AslError::new(format!("expression nests deeper than {MAX_LEVELS} levels"))
}

fn coll_op(name: &str) -> Result<CollOp, AslError> {
    Ok(match name {
        "Barrier" => CollOp::Barrier,
        "Bcast" => CollOp::Bcast,
        "Scatter" => CollOp::Scatter,
        "Scatterv" => CollOp::Scatterv,
        "Gather" => CollOp::Gather,
        "Gatherv" => CollOp::Gatherv,
        "Reduce" => CollOp::Reduce,
        "Allreduce" => CollOp::Allreduce,
        "Allgather" => CollOp::Allgather,
        "Alltoall" => CollOp::Alltoall,
        "Alltoallv" => CollOp::Alltoallv,
        "Scan" => CollOp::Scan,
        "OmpBarrier" => CollOp::OmpBarrier,
        "OmpFork" => CollOp::OmpFork,
        "OmpJoin" => CollOp::OmpJoin,
        other => return Err(AslError::new(format!("unknown collective op `{other}`"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_default_set() {
        let set = parse(super::super::DEFAULT_PROPERTY_SET).unwrap();
        assert!(set.properties.len() >= 12);
        let ls = set.find("LateSender").unwrap();
        assert_eq!(ls.context, Context::P2pPair);
        assert_eq!(ls.locate, Locate::Receiver);
        assert_eq!(ls.lets.len(), 1);
        assert_eq!(ls.conditions.len(), 1);
    }

    #[test]
    fn collective_op_filters_parse() {
        let set = parse(
            "PROPERTY X OVER collective(Barrier, OmpBarrier) { WAIT max_entry - entered; LOCATE member; }",
        )
        .unwrap();
        match &set.properties[0].context {
            Context::Collective(ops) => {
                assert_eq!(ops, &vec![CollOp::Barrier, CollOp::OmpBarrier])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let set = parse("PROPERTY X OVER setup { WAIT 1 + 2 * 3; LOCATE self; }").unwrap();
        // 1 + (2*3), not (1+2)*3.
        match &set.properties[0].wait {
            Expr::Bin(_, BinOp::Add, rhs) => {
                assert!(matches!(**rhs, Expr::Bin(_, BinOp::Mul, _)))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_missing_wait() {
        let err = parse("PROPERTY X OVER setup { LOCATE self; }").unwrap_err();
        assert!(err.message.contains("missing WAIT"));
    }

    #[test]
    fn rejects_bad_locate_for_context() {
        let err = parse("PROPERTY X OVER setup { WAIT time; LOCATE sender; }").unwrap_err();
        assert!(err.message.contains("does not fit"));
    }

    #[test]
    fn rejects_duplicates_and_unknowns() {
        assert!(parse("PROPERTY X OVER bogus { WAIT 1; LOCATE self; }").is_err());
        assert!(parse(
            "PROPERTY X OVER setup { WAIT 1; LOCATE self; } PROPERTY X OVER setup { WAIT 1; LOCATE self; }"
        )
        .is_err());
        assert!(parse("PROPERTY X OVER collective(Bogus) { WAIT 1; LOCATE member; }").is_err());
    }

    /// `recv_posted` inside `n` pairs of parentheses.
    fn parens(n: usize) -> String {
        format!("{}recv_posted{}", "(".repeat(n), ")".repeat(n))
    }

    /// A subtraction (one level) followed by `n` times `+ 0` (one level
    /// each).
    fn chain(n: usize) -> String {
        format!("recv_completion - recv_posted{}", " + 0".repeat(n))
    }

    /// `n` unary minuses before `1`.
    fn negations(n: usize) -> String {
        format!("{}1", "-".repeat(n))
    }

    /// The source of a set of one property, `Deep`, whose WAIT is `wait`.
    fn deep_source(wait: &str) -> String {
        format!("PROPERTY Deep OVER p2p_pair {{ WAIT {wait}; LOCATE receiver; }}")
    }

    fn with_wait(wait: &str) -> Result<PropertySet, AslError> {
        parse(&deep_source(wait))
    }

    /// Every set that parses prints to a source that parses back to it,
    /// including sets at the nesting cap and operands that need their
    /// parentheses.
    #[test]
    fn default_set_roundtrips_through_display() {
        let mut sources = vec![
            super::super::DEFAULT_PROPERTY_SET.to_owned(),
            include_str!("../../../../examples/custom_properties.asl").to_owned(),
            "PROPERTY Mixed OVER setup { WAIT (time - (1 + 2)) * -(3 - 1) / (4 * 5); \
             CONDITION (wait > 0) == (1 - -1 >= 2); LOCATE self; }"
                .to_owned(),
        ];
        for wait in [
            chain(MAX_LEVELS - 1),
            parens(MAX_LEVELS),
            negations(MAX_LEVELS),
        ] {
            sources.push(deep_source(&wait));
        }
        for src in &sources {
            let set = parse(src).unwrap_or_else(|e| panic!("{e}\n---\n{src}"));
            let printed = set.to_string();
            let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{e}\n---\n{printed}"));
            assert_eq!(set, reparsed);
        }
    }

    #[test]
    fn expression_nesting_is_capped_at_max_levels() {
        assert!(with_wait(&parens(MAX_LEVELS)).is_ok());
        assert!(with_wait(&chain(MAX_LEVELS - 1)).is_ok());
        assert!(with_wait(&negations(MAX_LEVELS)).is_ok());
        for deep in [
            parens(MAX_LEVELS + 1),
            chain(MAX_LEVELS),
            negations(MAX_LEVELS + 1),
            parens(100_000),
            chain(100_000),
        ] {
            let err = with_wait(&deep).unwrap_err();
            assert_eq!(err.message, "Deep: expression nests deeper than 128 levels");
        }
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let set =
            parse("// a comment\nPROPERTY X OVER setup { // inner\n WAIT time; LOCATE self; }\n")
                .unwrap();
        assert_eq!(set.properties.len(), 1);
    }
}
