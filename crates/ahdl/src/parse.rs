//! Recursive-descent parser for the AHDL subset.
//!
//! Nesting is bounded: past [`MAX_DEPTH`] levels the parser returns a
//! typed error, so neither it nor a later pass over the tree (checker,
//! compiler, evaluator, drop) can exhaust the stack on crafted input.

use crate::ast::{BinOp, Expr, MathFn, Module, Param, Stmt, UnOp};
use crate::error::{AhdlError, Result};
use crate::lex::{lex, Token, TokenKind};

/// Deepest nesting the parser accepts. Each parenthesis, unary
/// operator, conditional branch, call, statement block and binary
/// operator in a chain opens one level, and every level of the syntax
/// tree sits under at least one, so the tree is at most this deep.
pub const MAX_DEPTH: usize = 256;

/// Parses AHDL source containing one or more modules.
///
/// # Errors
///
/// Returns [`AhdlError::Lex`] or [`AhdlError::Parse`] with line
/// information, the latter also for nesting deeper than [`MAX_DEPTH`].
///
/// # Example
///
/// ```
/// let src = "module amp(in, out) { input in; output out;
///            parameter real gain = 2.0;
///            analog { V(out) <- gain * V(in); } }";
/// let modules = ahfic_ahdl::parse::parse(src)?;
/// assert_eq!(modules[0].name, "amp");
/// # Ok::<(), ahfic_ahdl::error::AhdlError>(())
/// ```
pub fn parse(src: &str) -> Result<Vec<Module>> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        state_counter: 0,
        depth: 0,
    };
    let mut modules = Vec::new();
    while !p.at_eof() {
        modules.push(p.module()?);
    }
    Ok(modules)
}

/// Parses a single module (errors if the source holds none or several).
///
/// # Errors
///
/// As [`parse`], plus a parse error when module count != 1.
pub fn parse_module(src: &str) -> Result<Module> {
    let mut mods = parse(src)?;
    if mods.len() != 1 {
        return Err(AhdlError::Parse {
            line: 1,
            message: format!("expected exactly one module, found {}", mods.len()),
        });
    }
    Ok(mods.remove(0))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    state_counter: usize,
    /// Nesting levels open at the current token.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(AhdlError::Parse {
            line: self.line(),
            message: message.into(),
        })
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => self.err(format!("expected {what}, found {other:?}")),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        match self.peek() {
            TokenKind::Ident(name) if name == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{kw}`, found {other:?}")),
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(name) if name == kw)
    }

    /// Opens one nesting level, failing past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    /// Runs `f` one nesting level down.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.descend()?;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn module(&mut self) -> Result<Module> {
        self.state_counter = 0;
        self.keyword("module")?;
        let name = self.ident("module name")?;
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut ports = vec![self.ident("port name")?];
        while matches!(self.peek(), TokenKind::Comma) {
            self.bump();
            ports.push(self.ident("port name")?);
        }
        self.expect(&TokenKind::RParen, "`)`")?;
        self.expect(&TokenKind::LBrace, "`{`")?;

        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut params = Vec::new();
        loop {
            if self.is_keyword("input") || self.is_keyword("output") {
                let is_input = self.is_keyword("input");
                self.bump();
                loop {
                    let port = self.ident("port name")?;
                    if is_input {
                        inputs.push(port);
                    } else {
                        outputs.push(port);
                    }
                    if matches!(self.peek(), TokenKind::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(&TokenKind::Semi, "`;`")?;
            } else if self.is_keyword("node") {
                // Compatibility with the paper's `node [V, I] IN, OUT;`
                // style: consume tokens up to the semicolon.
                self.bump();
                while !matches!(self.peek(), TokenKind::Semi | TokenKind::Eof) {
                    self.bump();
                }
                self.expect(&TokenKind::Semi, "`;`")?;
            } else if self.is_keyword("parameter") {
                self.bump();
                self.keyword("real")?;
                let pname = self.ident("parameter name")?;
                self.expect(&TokenKind::Assign, "`=`")?;
                let expr = self.expr()?;
                let default = const_eval(&expr).ok_or_else(|| AhdlError::Parse {
                    line: self.line(),
                    message: format!("parameter {pname} default must be a constant"),
                })?;
                self.expect(&TokenKind::Semi, "`;`")?;
                params.push(Param {
                    name: pname,
                    default,
                });
            } else {
                break;
            }
        }

        self.keyword("analog")?;
        self.expect(&TokenKind::LBrace, "`{`")?;
        let body = self.stmt_block()?;
        self.expect(&TokenKind::RBrace, "`}` closing module")?;
        Ok(Module {
            name,
            ports,
            inputs,
            outputs,
            params,
            body,
        })
    }

    /// Parses statements until the closing `}` (which is consumed).
    fn stmt_block(&mut self) -> Result<Vec<Stmt>> {
        let mut stmts = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::RBrace => {
                    self.bump();
                    return Ok(stmts);
                }
                TokenKind::Eof => return self.err("unexpected end of input in block"),
                _ => stmts.push(self.stmt()?),
            }
        }
    }

    fn stmt(&mut self) -> Result<Stmt> {
        if self.is_keyword("real") {
            self.bump();
            let name = self.ident("local variable name")?;
            self.expect(&TokenKind::Assign, "`=`")?;
            let value = self.expr()?;
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(Stmt::Local { name, value });
        }
        if self.is_keyword("if") {
            self.bump();
            self.expect(&TokenKind::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            self.expect(&TokenKind::LBrace, "`{`")?;
            let then_body = self.nested(Self::stmt_block)?;
            let else_body = if self.is_keyword("else") {
                self.bump();
                self.expect(&TokenKind::LBrace, "`{`")?;
                self.nested(Self::stmt_block)?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_body,
                else_body,
            });
        }
        if self.is_keyword("V") {
            self.bump();
            self.expect(&TokenKind::LParen, "`(`")?;
            let port = self.ident("port name")?;
            self.expect(&TokenKind::RParen, "`)`")?;
            self.expect(&TokenKind::Arrow, "`<-`")?;
            let value = self.expr()?;
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(Stmt::Assign { port, value });
        }
        self.err("expected a statement (`real`, `if` or `V(port) <-`)")
    }

    fn expr(&mut self) -> Result<Expr> {
        let cond = self.or_expr()?;
        if matches!(self.peek(), TokenKind::Question) {
            self.bump();
            let a = self.nested(Self::expr)?;
            self.expect(&TokenKind::Colon, "`:`")?;
            let b = self.nested(Self::expr)?;
            return Ok(Expr::Cond(Box::new(cond), Box::new(a), Box::new(b)));
        }
        Ok(cond)
    }

    /// Parses `operand (op operand)*`, left-associative, with `op_of`
    /// naming the binary operator a token stands for.
    fn chain(
        &mut self,
        operand: impl Fn(&mut Self) -> Result<Expr>,
        op_of: impl Fn(&TokenKind) -> Option<BinOp>,
    ) -> Result<Expr> {
        let depth = self.depth;
        let mut lhs = operand(self)?;
        while let Some(op) = op_of(self.peek()) {
            self.bump();
            // Each operator puts the chain so far one level deeper.
            self.descend()?;
            let rhs = operand(self)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        self.chain(Self::and_expr, |t| {
            matches!(t, TokenKind::OrOr).then_some(BinOp::Or)
        })
    }

    fn and_expr(&mut self) -> Result<Expr> {
        self.chain(Self::cmp_expr, |t| {
            matches!(t, TokenKind::AndAnd).then_some(BinOp::And)
        })
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::NotEq => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.nested(Self::add_expr)?;
        Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<Expr> {
        self.chain(Self::mul_expr, |t| match t {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        self.chain(Self::unary_expr, |t| match t {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            TokenKind::Percent => Some(BinOp::Rem),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Not => UnOp::Not,
            _ => return self.primary(),
        };
        self.bump();
        Ok(Expr::Un(op, Box::new(self.nested(Self::unary_expr)?)))
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Number(v) => {
                self.bump();
                Ok(Expr::Number(v))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Dollar(name) => {
                self.bump();
                match name.as_str() {
                    "time" => Ok(Expr::Time),
                    "dt" => Ok(Expr::Dt),
                    other => self.err(format!("unknown system variable ${other}")),
                }
            }
            TokenKind::Ident(name) => {
                self.bump();
                if matches!(self.peek(), TokenKind::LParen) {
                    self.nested(|p| p.call(&name))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => self.err(format!("expected an expression, found {other:?}")),
        }
    }

    fn call(&mut self, name: &str) -> Result<Expr> {
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut args = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            args.push(self.expr()?);
            while matches!(self.peek(), TokenKind::Comma) {
                self.bump();
                args.push(self.expr()?);
            }
        }
        self.expect(&TokenKind::RParen, "`)`")?;

        match name {
            "V" => {
                if args.len() != 1 {
                    return self.err("V() takes exactly one port");
                }
                match args.remove(0) {
                    Expr::Var(port) => Ok(Expr::PortV(port)),
                    _ => self.err("V() argument must be a port name"),
                }
            }
            "idt" => {
                if args.is_empty() || args.len() > 2 {
                    return self.err("idt(expr [, initial]) takes 1 or 2 arguments");
                }
                let state = self.next_state();
                let mut it = args.into_iter();
                // Non-emptiness checked two lines up.
                #[allow(clippy::expect_used)]
                let arg = Box::new(it.next().expect("checked length"));
                let initial = it.next().map(Box::new);
                Ok(Expr::Idt {
                    arg,
                    initial,
                    state,
                })
            }
            "ddt" => {
                if args.len() != 1 {
                    return self.err("ddt(expr) takes exactly one argument");
                }
                let state = self.next_state();
                Ok(Expr::Ddt {
                    arg: Box::new(args.remove(0)),
                    state,
                })
            }
            "delay" => {
                if args.len() != 2 {
                    return self.err("delay(expr, seconds) takes two arguments");
                }
                // Length checked to be exactly 2 just above.
                #[allow(clippy::expect_used)]
                let seconds_expr = args.pop().expect("two args");
                let seconds = const_eval(&seconds_expr)
                    .filter(|&s| s >= 0.0)
                    .ok_or_else(|| AhdlError::Parse {
                        line: self.line(),
                        message: "delay time must be a non-negative constant".into(),
                    })?;
                let state = self.next_state();
                Ok(Expr::Delay {
                    arg: Box::new(args.remove(0)),
                    seconds,
                    state,
                })
            }
            _ => match MathFn::by_name(name) {
                Some(f) => {
                    if args.len() != f.arity() {
                        return self.err(format!(
                            "{name}() takes {} argument(s), got {}",
                            f.arity(),
                            args.len()
                        ));
                    }
                    Ok(Expr::Call(f, args))
                }
                None => self.err(format!("unknown function `{name}`")),
            },
        }
    }

    fn next_state(&mut self) -> usize {
        let s = self.state_counter;
        self.state_counter += 1;
        s
    }
}

/// Folds a constant expression (numbers, `PI`, math functions) to a
/// value; returns `None` if it references runtime state.
pub fn const_eval(e: &Expr) -> Option<f64> {
    match e {
        Expr::Number(v) => Some(*v),
        Expr::Var(name) if name == "PI" => Some(std::f64::consts::PI),
        Expr::Var(name) if name == "TWO_PI" => Some(2.0 * std::f64::consts::PI),
        Expr::Bin(op, a, b) => {
            let (a, b) = (const_eval(a)?, const_eval(b)?);
            Some(crate::eval::apply_bin(*op, a, b))
        }
        Expr::Un(op, a) => {
            let a = const_eval(a)?;
            Some(match op {
                UnOp::Neg => -a,
                UnOp::Not => {
                    if a == 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            })
        }
        Expr::Cond(c, a, b) => {
            let c = const_eval(c)?;
            if c != 0.0 {
                const_eval(a)
            } else {
                const_eval(b)
            }
        }
        Expr::Call(f, args) => {
            let vals: Option<Vec<f64>> = args.iter().map(const_eval).collect();
            Some(f.eval(&vals?))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_style_amp() {
        let m = parse_module(
            "module amp(in, out) {
                input in; output out;
                parameter real gain = 1;
                analog { V(out) <- gain * V(in); }
            }",
        )
        .unwrap();
        assert_eq!(m.name, "amp");
        assert_eq!(m.ports, vec!["in", "out"]);
        assert_eq!(m.inputs, vec!["in"]);
        assert_eq!(m.outputs, vec!["out"]);
        assert_eq!(m.params[0].name, "gain");
        assert_eq!(m.params[0].default, 1.0);
        assert_eq!(m.body.len(), 1);
    }

    #[test]
    fn node_declarations_are_tolerated() {
        let m = parse_module(
            "module amp(in, out) {
                node in, out;
                input in; output out;
                analog { V(out) <- V(in); }
            }",
        )
        .unwrap();
        assert_eq!(m.outputs, vec!["out"]);
    }

    #[test]
    fn parses_if_else_and_locals() {
        let m = parse_module(
            "module lim(x, y) {
                input x; output y;
                parameter real clip = 1.0;
                analog {
                    real v = V(x);
                    if (v > clip) { V(y) <- clip; }
                    else { V(y) <- v < -clip ? -clip : v; }
                }
            }",
        )
        .unwrap();
        assert_eq!(m.body.len(), 2);
        assert!(matches!(m.body[1], Stmt::If { .. }));
    }

    #[test]
    fn precedence_is_conventional() {
        let m = parse_module(
            "module p(a, y) { input a; output y;
             analog { V(y) <- 1 + 2 * 3 - 4 / 2; } }",
        )
        .unwrap();
        match &m.body[0] {
            Stmt::Assign { value, .. } => {
                assert_eq!(const_eval(value), Some(5.0));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn stateful_operators_get_distinct_slots() {
        let m = parse_module(
            "module i(x, y) { input x; output y;
             analog { V(y) <- idt(V(x)) + ddt(V(x)) + delay(V(x), 1e-9); } }",
        )
        .unwrap();
        let mut slots = Vec::new();
        fn collect(e: &Expr, out: &mut Vec<usize>) {
            match e {
                Expr::Idt { state, arg, .. } => {
                    out.push(*state);
                    collect(arg, out);
                }
                Expr::Ddt { state, arg } => {
                    out.push(*state);
                    collect(arg, out);
                }
                Expr::Delay { state, arg, .. } => {
                    out.push(*state);
                    collect(arg, out);
                }
                Expr::Bin(_, a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
                _ => {}
            }
        }
        if let Stmt::Assign { value, .. } = &m.body[0] {
            collect(value, &mut slots);
        }
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2]);
    }

    #[test]
    fn parses_multiple_modules() {
        let mods = parse(
            "module a(x, y) { input x; output y; analog { V(y) <- V(x); } }
             module b(x, y) { input x; output y; analog { V(y) <- -V(x); } }",
        )
        .unwrap();
        assert_eq!(mods.len(), 2);
        assert_eq!(mods[1].name, "b");
    }

    #[test]
    fn error_cases() {
        assert!(parse_module("module a(x) { analog { V(y) < - 1; } }").is_err());
        assert!(parse_module("module a(x) { analog { bogus; } }").is_err());
        assert!(parse_module("module a(x) { analog { V(y) <- sin(1, 2); } }").is_err());
        assert!(parse_module("module a(x) { analog { V(y) <- nope(1); } }").is_err());
        assert!(
            parse_module("module a(x) { analog { V(y) <- delay(V(x), V(x)); } }").is_err(),
            "delay time must be constant"
        );
        assert!(parse_module("").is_err());
    }

    #[test]
    fn const_eval_handles_pi_and_functions() {
        let m = parse_module(
            "module c(x, y) { input x; output y;
             parameter real w = 2 * PI * max(1, 2);
             analog { V(y) <- w * V(x); } }",
        )
        .unwrap();
        assert!((m.params[0].default - 4.0 * std::f64::consts::PI).abs() < 1e-12);
    }
}
