//! AHDL module evaluation: compiled modules and their per-instance
//! runtime state.

use crate::ast::{BinOp, Expr, Module, Stmt, UnOp};
use crate::block::Block;
use crate::check::check;
use crate::error::{AhdlError, Result};
use crate::parse::parse_module;
use std::collections::VecDeque;
use std::sync::Arc;

/// Applies a binary operator; booleans are encoded as `0.0` / `1.0`.
pub fn apply_bin(op: BinOp, a: f64, b: f64) -> f64 {
    let flag = |c: bool| if c { 1.0 } else { 0.0 };
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        BinOp::Lt => flag(a < b),
        BinOp::Le => flag(a <= b),
        BinOp::Gt => flag(a > b),
        BinOp::Ge => flag(a >= b),
        BinOp::Eq => flag(a == b),
        BinOp::Ne => flag(a != b),
        BinOp::And => flag(a != 0.0 && b != 0.0),
        BinOp::Or => flag(a != 0.0 || b != 0.0),
    }
}

/// A parsed and semantically checked AHDL module, ready to instantiate.
///
/// # Example
///
/// ```
/// use ahfic_ahdl::eval::CompiledModule;
/// use ahfic_ahdl::block::Block;
/// let amp = CompiledModule::compile(
///     "module amp(in, out) { input in; output out;
///      parameter real gain = 1.0;
///      analog { V(out) <- gain * V(in); } }",
/// )?;
/// let mut inst = amp.instantiate(&[("gain", 3.0)])?;
/// let mut out = [0.0];
/// inst.tick(0.0, 1e-9, &[2.0], &mut out);
/// assert_eq!(out[0], 6.0);
/// # Ok::<(), ahfic_ahdl::error::AhdlError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CompiledModule {
    module: Arc<Module>,
    num_states: usize,
}

impl CompiledModule {
    /// Parses and checks a single-module source.
    ///
    /// # Errors
    ///
    /// Propagates lex/parse/check errors.
    pub fn compile(src: &str) -> Result<CompiledModule> {
        Self::from_module(parse_module(src)?)
    }

    /// Wraps an already-parsed module after checking it.
    ///
    /// # Errors
    ///
    /// Propagates [`AhdlError::Check`].
    pub fn from_module(module: Module) -> Result<CompiledModule> {
        check(&module)?;
        let mut max_state = 0usize;
        for s in &module.body {
            walk_states_stmt(s, &mut max_state);
        }
        Ok(CompiledModule {
            module: Arc::new(module),
            num_states: max_state,
        })
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.module.name
    }

    /// Number of stateful-operator slots (`idt`/`ddt`/`delay`) the module
    /// uses; `0` means the module is memoryless.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Declared parameters `(name, default)`.
    pub fn params(&self) -> Vec<(String, f64)> {
        self.module
            .params
            .iter()
            .map(|p| (p.name.clone(), p.default))
            .collect()
    }

    /// Input port names, in port order.
    pub fn inputs(&self) -> &[String] {
        &self.module.inputs
    }

    /// Output port names, in port order.
    pub fn outputs(&self) -> &[String] {
        &self.module.outputs
    }

    /// Creates an instance with parameter overrides.
    ///
    /// # Errors
    ///
    /// Returns [`AhdlError::Instantiate`] for unknown parameter names.
    pub fn instantiate(&self, overrides: &[(&str, f64)]) -> Result<ModuleBlock> {
        let mut params: Vec<(String, f64)> = self
            .module
            .params
            .iter()
            .map(|p| (p.name.clone(), p.default))
            .collect();
        for (name, value) in overrides {
            match params.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 = *value,
                None => {
                    return Err(AhdlError::Instantiate(format!(
                        "module {} has no parameter `{name}`",
                        self.module.name
                    )))
                }
            }
        }
        Ok(ModuleBlock {
            module: Arc::clone(&self.module),
            params,
            states: vec![OperatorState::Unused; self.num_states],
            scope: Vec::new(),
            out_buf: vec![0.0; self.module.outputs.len()],
        })
    }
}

fn walk_states_stmt(stmt: &Stmt, max: &mut usize) {
    match stmt {
        Stmt::Local { value, .. } | Stmt::Assign { value, .. } => walk_states_expr(value, max),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            walk_states_expr(cond, max);
            for s in then_body.iter().chain(else_body.iter()) {
                walk_states_stmt(s, max);
            }
        }
    }
}

fn walk_states_expr(expr: &Expr, max: &mut usize) {
    match expr {
        Expr::Idt {
            arg,
            initial,
            state,
        } => {
            *max = (*max).max(state + 1);
            walk_states_expr(arg, max);
            if let Some(i) = initial {
                walk_states_expr(i, max);
            }
        }
        Expr::Ddt { arg, state } | Expr::Delay { arg, state, .. } => {
            *max = (*max).max(state + 1);
            walk_states_expr(arg, max);
        }
        Expr::Bin(_, a, b) => {
            walk_states_expr(a, max);
            walk_states_expr(b, max);
        }
        Expr::Un(_, a) => walk_states_expr(a, max),
        Expr::Cond(c, a, b) => {
            walk_states_expr(c, max);
            walk_states_expr(a, max);
            walk_states_expr(b, max);
        }
        Expr::Call(_, args) => {
            for a in args {
                walk_states_expr(a, max);
            }
        }
        _ => {}
    }
}

/// Per-instance state of one stateful operator occurrence.
#[derive(Clone, Debug)]
enum OperatorState {
    /// Not yet touched.
    Unused,
    /// Trapezoidal integrator.
    Idt {
        /// Accumulated integral.
        acc: f64,
        /// Previous integrand sample.
        prev: f64,
    },
    /// Backward-difference differentiator.
    Ddt {
        /// Previous sample.
        prev: f64,
    },
    /// Transport delay ring buffer.
    Delay {
        /// Stored samples.
        buf: VecDeque<f64>,
    },
}

/// Mutable evaluation context threaded through the interpreter so the
/// (immutable) AST can be borrowed separately from instance state.
struct RunCtx<'a> {
    module: &'a Module,
    params: &'a [(String, f64)],
    scope: &'a mut Vec<(String, f64)>,
    states: &'a mut [OperatorState],
    out_buf: &'a mut [f64],
    inputs: &'a [f64],
    t: f64,
    dt: f64,
}

impl RunCtx<'_> {
    fn lookup(&self, name: &str) -> f64 {
        for (n, v) in self.scope.iter().rev() {
            if n == name {
                return *v;
            }
        }
        for (n, v) in self.params {
            if n == name {
                return *v;
            }
        }
        match name {
            "PI" => std::f64::consts::PI,
            "TWO_PI" => 2.0 * std::f64::consts::PI,
            _ => f64::NAN,
        }
    }

    fn port_value(&self, port: &str) -> f64 {
        if let Some(i) = self.module.inputs.iter().position(|p| p == port) {
            return self.inputs[i];
        }
        if let Some(o) = self.module.outputs.iter().position(|p| p == port) {
            return self.out_buf[o];
        }
        0.0
    }
}

fn eval_expr(expr: &Expr, ctx: &mut RunCtx) -> f64 {
    match expr {
        Expr::Number(v) => *v,
        Expr::Var(name) => ctx.lookup(name),
        Expr::PortV(port) => ctx.port_value(port),
        Expr::Time => ctx.t,
        Expr::Dt => ctx.dt,
        Expr::Bin(op, a, b) => match op {
            BinOp::And => {
                if eval_expr(a, ctx) == 0.0 {
                    0.0
                } else if eval_expr(b, ctx) != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            BinOp::Or => {
                if eval_expr(a, ctx) != 0.0 || eval_expr(b, ctx) != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            _ => {
                let av = eval_expr(a, ctx);
                let bv = eval_expr(b, ctx);
                apply_bin(*op, av, bv)
            }
        },
        Expr::Un(op, a) => {
            let v = eval_expr(a, ctx);
            match op {
                UnOp::Neg => -v,
                UnOp::Not => {
                    if v == 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            }
        }
        Expr::Cond(c, a, b) => {
            if eval_expr(c, ctx) != 0.0 {
                eval_expr(a, ctx)
            } else {
                eval_expr(b, ctx)
            }
        }
        Expr::Call(f, args) => {
            // All math functions take 1 or 2 arguments.
            let a0 = eval_expr(&args[0], ctx);
            let a1 = if args.len() > 1 {
                eval_expr(&args[1], ctx)
            } else {
                0.0
            };
            f.eval(&[a0, a1])
        }
        Expr::Idt {
            arg,
            initial,
            state,
        } => {
            let x = eval_expr(arg, ctx);
            let init = match initial {
                Some(i) => eval_expr(i, ctx),
                None => 0.0,
            };
            let slot = &mut ctx.states[*state];
            match slot {
                OperatorState::Idt { acc, prev } => {
                    *acc += ctx.dt * (x + *prev) / 2.0;
                    *prev = x;
                    *acc
                }
                _ => {
                    *slot = OperatorState::Idt { acc: init, prev: x };
                    init
                }
            }
        }
        Expr::Ddt { arg, state } => {
            let x = eval_expr(arg, ctx);
            let slot = &mut ctx.states[*state];
            match slot {
                OperatorState::Ddt { prev } => {
                    let d = (x - *prev) / ctx.dt;
                    *prev = x;
                    d
                }
                _ => {
                    *slot = OperatorState::Ddt { prev: x };
                    0.0
                }
            }
        }
        Expr::Delay {
            arg,
            seconds,
            state,
        } => {
            let x = eval_expr(arg, ctx);
            let n = (seconds / ctx.dt).round() as usize;
            if n == 0 {
                return x;
            }
            let slot = &mut ctx.states[*state];
            if !matches!(slot, OperatorState::Delay { .. }) {
                *slot = OperatorState::Delay {
                    buf: VecDeque::with_capacity(n + 1),
                };
            }
            match slot {
                OperatorState::Delay { buf } => {
                    buf.push_back(x);
                    if buf.len() > n {
                        buf.pop_front().unwrap_or(0.0)
                    } else {
                        0.0
                    }
                }
                _ => unreachable!("just initialized"),
            }
        }
    }
}

fn exec_stmts(stmts: &[Stmt], ctx: &mut RunCtx) {
    for stmt in stmts {
        match stmt {
            Stmt::Local { name, value } => {
                let v = eval_expr(value, ctx);
                ctx.scope.push((name.clone(), v));
            }
            Stmt::Assign { port, value } => {
                let v = eval_expr(value, ctx);
                if let Some(o) = ctx.module.outputs.iter().position(|p| p == port) {
                    ctx.out_buf[o] = v;
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = eval_expr(cond, ctx);
                let mark = ctx.scope.len();
                if c != 0.0 {
                    exec_stmts(then_body, ctx);
                } else {
                    exec_stmts(else_body, ctx);
                }
                ctx.scope.truncate(mark);
            }
        }
    }
}

/// An instantiated AHDL module usable as a behavioral [`Block`].
#[derive(Clone, Debug)]
pub struct ModuleBlock {
    module: Arc<Module>,
    params: Vec<(String, f64)>,
    states: Vec<OperatorState>,
    scope: Vec<(String, f64)>,
    out_buf: Vec<f64>,
}

impl ModuleBlock {
    /// Current value of a parameter.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Updates a parameter between runs.
    ///
    /// # Errors
    ///
    /// Returns [`AhdlError::Instantiate`] for unknown parameters.
    pub fn set_param(&mut self, name: &str, value: f64) -> Result<()> {
        match self.params.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                Ok(())
            }
            None => Err(AhdlError::Instantiate(format!(
                "module {} has no parameter `{name}`",
                self.module.name
            ))),
        }
    }
}

impl Block for ModuleBlock {
    fn num_inputs(&self) -> usize {
        self.module.inputs.len()
    }

    fn num_outputs(&self) -> usize {
        self.module.outputs.len()
    }

    fn tick(&mut self, t: f64, dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        self.scope.clear();
        let module = Arc::clone(&self.module);
        let mut ctx = RunCtx {
            module: &module,
            params: &self.params,
            scope: &mut self.scope,
            states: &mut self.states,
            out_buf: &mut self.out_buf,
            inputs,
            t,
            dt,
        };
        exec_stmts(&module.body, &mut ctx);
        outputs.copy_from_slice(&self.out_buf);
    }

    fn reset(&mut self) {
        for s in &mut self.states {
            *s = OperatorState::Unused;
        }
        self.out_buf.fill(0.0);
    }

    fn kind(&self) -> &str {
        &self.module.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> CompiledModule {
        CompiledModule::compile(src).unwrap()
    }

    #[test]
    fn gain_block_with_override() {
        let m = compile(
            "module amp(in, out) { input in; output out;
             parameter real gain = 1;
             analog { V(out) <- gain * V(in); } }",
        );
        let mut b = m.instantiate(&[("gain", -2.5)]).unwrap();
        let mut out = [0.0];
        b.tick(0.0, 1e-9, &[4.0], &mut out);
        assert_eq!(out[0], -10.0);
        assert_eq!(b.param("gain"), Some(-2.5));
        assert!(m.instantiate(&[("nope", 1.0)]).is_err());
    }

    #[test]
    fn mixer_multiplies() {
        let m = compile(
            "module mixer(rf, lo, if_out) { input rf, lo; output if_out;
             parameter real k = 1.0;
             analog { V(if_out) <- k * V(rf) * V(lo); } }",
        );
        let mut b = m.instantiate(&[("k", 2.0)]).unwrap();
        let mut out = [0.0];
        b.tick(0.0, 1e-9, &[3.0, 5.0], &mut out);
        assert_eq!(out[0], 30.0);
    }

    #[test]
    fn time_driven_oscillator() {
        let m = compile(
            "module osc(out) { output out;
             parameter real f = 1.0;
             analog { V(out) <- sin(2 * PI * f * $time); } }",
        );
        let mut b = m.instantiate(&[]).unwrap();
        let mut out = [0.0];
        b.tick(0.25, 1e-3, &[], &mut out);
        assert!((out[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idt_integrates_a_ramp() {
        let m = compile(
            "module i(x, y) { input x; output y;
             analog { V(y) <- idt(V(x)); } }",
        );
        let mut b = m.instantiate(&[]).unwrap();
        let dt = 1e-3;
        let mut out = [0.0];
        // integrate x(t) = t over [0, 1]: expect ~0.5
        let n = 1000;
        for k in 0..=n {
            let t = k as f64 * dt;
            b.tick(t, dt, &[t], &mut out);
        }
        assert!((out[0] - 0.5).abs() < 1e-6, "got {}", out[0]);
    }

    #[test]
    fn ddt_differentiates() {
        let m = compile(
            "module d(x, y) { input x; output y;
             analog { V(y) <- ddt(V(x)); } }",
        );
        let mut b = m.instantiate(&[]).unwrap();
        let dt = 1e-3;
        let mut out = [0.0];
        for k in 0..10 {
            let t = k as f64 * dt;
            b.tick(t, dt, &[3.0 * t], &mut out);
        }
        assert!((out[0] - 3.0).abs() < 1e-9, "got {}", out[0]);
    }

    #[test]
    fn delay_shifts_by_n_samples() {
        let m = compile(
            "module d(x, y) { input x; output y;
             analog { V(y) <- delay(V(x), 3e-9); } }",
        );
        let mut b = m.instantiate(&[]).unwrap();
        let dt = 1e-9;
        let mut out = [0.0];
        let seq = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut got = Vec::new();
        for (k, &x) in seq.iter().enumerate() {
            b.tick(k as f64 * dt, dt, &[x], &mut out);
            got.push(out[0]);
        }
        assert_eq!(got, vec![0.0, 0.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn if_else_limiter() {
        let m = compile(
            "module lim(x, y) { input x; output y;
             parameter real c = 1.0;
             analog {
                real v = V(x);
                if (v > c) { V(y) <- c; }
                else { V(y) <- v < -c ? -c : v; }
             } }",
        );
        let mut b = m.instantiate(&[]).unwrap();
        let mut out = [0.0];
        for (x, want) in [(0.5, 0.5), (2.0, 1.0), (-3.0, -1.0)] {
            b.tick(0.0, 1e-9, &[x], &mut out);
            assert_eq!(out[0], want);
        }
    }

    #[test]
    fn reset_clears_state() {
        let m = compile(
            "module i(x, y) { input x; output y;
             analog { V(y) <- idt(V(x), 5.0); } }",
        );
        let mut b = m.instantiate(&[]).unwrap();
        let mut out = [0.0];
        for k in 0..100 {
            b.tick(k as f64, 1.0, &[1.0], &mut out);
        }
        assert!(out[0] > 50.0);
        b.reset();
        b.tick(0.0, 1.0, &[1.0], &mut out);
        assert_eq!(out[0], 5.0, "initial value restored after reset");
    }

    #[test]
    fn multiple_outputs() {
        let m = compile(
            "module split(x, a, b) { input x; output a, b;
             analog { V(a) <- V(x) + 1; V(b) <- V(x) - 1; } }",
        );
        let mut blk = m.instantiate(&[]).unwrap();
        let mut out = [0.0, 0.0];
        blk.tick(0.0, 1e-9, &[10.0], &mut out);
        assert_eq!(out, [11.0, 9.0]);
    }

    #[test]
    fn set_param_between_runs() {
        let m = compile(
            "module amp(in, out) { input in; output out;
             parameter real g = 1;
             analog { V(out) <- g * V(in); } }",
        );
        let mut b = m.instantiate(&[]).unwrap();
        let mut out = [0.0];
        b.tick(0.0, 1e-9, &[1.0], &mut out);
        assert_eq!(out[0], 1.0);
        b.set_param("g", 7.0).unwrap();
        b.tick(0.0, 1e-9, &[1.0], &mut out);
        assert_eq!(out[0], 7.0);
        assert!(b.set_param("zz", 0.0).is_err());
    }

    #[test]
    fn short_circuit_logic() {
        // 1/0 on the right of && must not be evaluated... division by
        // zero yields inf, not a crash, but short-circuiting keeps the
        // boolean clean.
        let m = compile(
            "module l(x, y) { input x; output y;
             analog { V(y) <- (V(x) > 0) && (1 / V(x) > 0.5) ? 1 : 0; } }",
        );
        let mut b = m.instantiate(&[]).unwrap();
        let mut out = [0.0];
        b.tick(0.0, 1.0, &[1.0], &mut out);
        assert_eq!(out[0], 1.0);
        b.tick(0.0, 1.0, &[-1.0], &mut out);
        assert_eq!(out[0], 0.0);
        b.tick(0.0, 1.0, &[4.0], &mut out);
        assert_eq!(out[0], 0.0);
    }
}
