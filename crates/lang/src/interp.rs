//! A reference interpreter for MiniC.
//!
//! Executes the AST directly, with the same word-oriented memory model the
//! compiled code sees (globals at [`DATA_BASE`], local arrays on a
//! simulated stack, wrapping arithmetic, division by zero yielding zero).
//! Its purpose is **differential testing**: for any program whose result
//! does not depend on concrete code addresses, the interpreter and the
//! compiled program must produce the same `main` result and the same final
//! global values. The workspace test suite checks this on both handwritten
//! programs and seeded random programs (`tests/random_programs.rs`).

use std::collections::HashMap;

use clfp_isa::{DATA_BASE, WORD};

use crate::ast::{BinOp, Block, Expr, Func, LValue, Module, Stmt, UnOp};
use crate::LangError;

/// Result of interpreting a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InterpOutcome {
    /// The value returned by `main`.
    pub result: i32,
    /// Final contents of the globals area, in declaration order (arrays
    /// flattened).
    pub globals: Vec<i32>,
    /// Number of statements and expressions evaluated (a fuel measure, not
    /// an instruction count).
    pub steps: u64,
}

/// Interprets a checked module, with an evaluation-fuel limit.
///
/// # Errors
///
/// Returns a [`LangError`] if the fuel runs out, the call stack exceeds its
/// limit, or a memory access leaves the simulated address space.
pub fn interpret(module: &Module, fuel: u64) -> Result<InterpOutcome, LangError> {
    // The interpreter recurses on the Rust stack; run it on a thread with
    // enough room for the documented 4096-call depth limit.
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("minic-interp".into())
            .stack_size(64 << 20)
            .spawn_scoped(scope, || interpret_inner(module, fuel))
            .expect("spawn interpreter thread")
            .join()
            .expect("interpreter thread panicked")
    })
}

fn interpret_inner(module: &Module, fuel: u64) -> Result<InterpOutcome, LangError> {
    let mem_words = 1usize << 20;
    let mut interp = Interp {
        module,
        mem: vec![0; mem_words],
        sp: (mem_words as u32) * WORD,
        scopes: Vec::new(),
        global_addrs: HashMap::new(),
        fuel,
        steps: 0,
        depth: 0,
    };
    // Lay out globals exactly like the code generator.
    let mut addr = DATA_BASE;
    let mut global_addrs = HashMap::new();
    for global in &module.globals {
        global_addrs.insert(global.name.clone(), (addr, global.array_len.is_some()));
        for (i, &value) in global.init.iter().enumerate() {
            let index = (addr / WORD) as usize + i;
            interp.mem[index] = value;
        }
        addr += global.words() * WORD;
    }
    let globals_end = addr;
    interp.global_addrs = global_addrs;

    let main = module.func("main").ok_or_else(|| LangError::internal("no main"))?;
    let result = interp.call(main, &[])?.unwrap_or_default();
    let globals = interp.mem[(DATA_BASE / WORD) as usize..(globals_end / WORD) as usize].to_vec();
    Ok(InterpOutcome {
        result,
        globals,
        steps: interp.steps,
    })
}

/// Convenience: parse, check, and interpret source text.
///
/// # Errors
///
/// Propagates front-end and interpretation errors.
pub fn interpret_source(source: &str, fuel: u64) -> Result<InterpOutcome, LangError> {
    let module = crate::parse(source)?;
    crate::check(&module)?;
    interpret(&module, fuel)
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(i32),
}

struct Interp<'a> {
    module: &'a Module,
    mem: Vec<i32>,
    sp: u32,
    /// Lexical scopes of the *current* function frame only.
    scopes: Vec<HashMap<String, i32>>,
    /// Global name -> (address, is_array).
    global_addrs: HashMap<String, (u32, bool)>,
    fuel: u64,
    steps: u64,
    depth: usize,
}

impl<'a> Interp<'a> {
    fn tick(&mut self) -> Result<(), LangError> {
        self.steps += 1;
        if self.steps > self.fuel {
            Err(LangError::internal("interpreter fuel exhausted"))
        } else {
            Ok(())
        }
    }

    fn load(&self, addr: i32) -> Result<i32, LangError> {
        let index = (addr as u32 / WORD) as usize;
        if !(addr as u32).is_multiple_of(WORD) || index >= self.mem.len() {
            return Err(LangError::internal(format!("bad load address {addr:#x}")));
        }
        Ok(self.mem[index])
    }

    fn store(&mut self, addr: i32, value: i32) -> Result<(), LangError> {
        let index = (addr as u32 / WORD) as usize;
        if !(addr as u32).is_multiple_of(WORD) || index >= self.mem.len() {
            return Err(LangError::internal(format!("bad store address {addr:#x}")));
        }
        self.mem[index] = value;
        Ok(())
    }

    fn func_addr(&self, name: &str) -> i32 {
        // Function "addresses" are small ids; consistent within a run,
        // which is all indirect calls need.
        self.module
            .funcs
            .iter()
            .position(|f| f.name == name)
            .expect("checked by sema") as i32
            + 1
    }

    fn func_by_addr(&self, addr: i32) -> Result<&'a Func, LangError> {
        self.module
            .funcs
            .get((addr - 1) as usize)
            .ok_or_else(|| LangError::internal(format!("indirect call to bad address {addr}")))
    }

    fn call(&mut self, func: &'a Func, args: &[i32]) -> Result<Option<i32>, LangError> {
        self.depth += 1;
        if self.depth > 4096 {
            return Err(LangError::internal("call stack overflow"));
        }
        let saved_scopes = std::mem::take(&mut self.scopes);
        let saved_sp = self.sp;
        let mut top = HashMap::new();
        for (param, &value) in func.params.iter().zip(args) {
            top.insert(param.clone(), value);
        }
        self.scopes.push(top);
        let flow = self.block_in_scope(&func.body)?;
        let result = match flow {
            Flow::Return(v) => Some(v),
            _ => Some(0),
        };
        self.scopes = saved_scopes;
        self.sp = saved_sp;
        self.depth -= 1;
        Ok(result)
    }

    fn lookup(&self, name: &str) -> Option<i32> {
        for scope in self.scopes.iter().rev() {
            if let Some(&value) = scope.get(name) {
                return Some(value);
            }
        }
        None
    }

    fn assign_var(&mut self, name: &str, value: i32) -> Result<(), LangError> {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return Ok(());
            }
        }
        // Global scalar.
        let (addr, _) = *self
            .global_addrs
            .get(name)
            .ok_or_else(|| LangError::internal(format!("undefined `{name}`")))?;
        self.store(addr as i32, value)
    }

    fn block(&mut self, block: &'a Block) -> Result<Flow, LangError> {
        self.scopes.push(HashMap::new());
        let flow = self.block_in_scope(block);
        self.scopes.pop();
        flow
    }

    fn block_in_scope(&mut self, block: &'a Block) -> Result<Flow, LangError> {
        for stmt in &block.stmts {
            match self.stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn stmt(&mut self, stmt: &'a Stmt) -> Result<Flow, LangError> {
        self.tick()?;
        match stmt {
            Stmt::VarDecl {
                name,
                array_len,
                init,
                ..
            } => {
                let value = match (array_len, init) {
                    (Some(len), _) => {
                        // Allocate the array on the simulated stack; the
                        // variable holds its address.
                        self.sp -= len * WORD;
                        let base = self.sp;
                        // Stack memory is not zeroed by real frames, but our
                        // VM memory starts zeroed and frames are fresh on
                        // first use; zero here for deterministic reuse.
                        for i in 0..*len {
                            self.store((base + i * WORD) as i32, 0)?;
                        }
                        base as i32
                    }
                    (None, Some(init)) => self.expr(init)?,
                    (None, None) => 0,
                };
                self.scopes
                    .last_mut()
                    .expect("inside function")
                    .insert(name.clone(), value);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value, .. } => {
                match target {
                    LValue::Var(name) => {
                        let value = self.expr(value)?;
                        self.assign_var(name, value)?;
                    }
                    LValue::Index { base, index } => {
                        let value = self.expr(value)?;
                        let addr = self.element_addr(base, index)?;
                        self.store(addr, value)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(expr) => {
                self.expr(expr)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                if self.expr(cond)? != 0 {
                    self.block(then_blk)
                } else if let Some(else_blk) = else_blk {
                    self.block(else_blk)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body, .. } => {
                while self.expr(cond)? != 0 {
                    self.tick()?;
                    match self.block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.scopes.push(HashMap::new());
                let result = (|| {
                    if let Some(init) = init {
                        self.stmt(init)?;
                    }
                    loop {
                        let go = match cond {
                            Some(cond) => self.expr(cond)? != 0,
                            None => true,
                        };
                        if !go {
                            break;
                        }
                        self.tick()?;
                        match self.block(body)? {
                            Flow::Break => break,
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            Flow::Normal | Flow::Continue => {}
                        }
                        if let Some(step) = step {
                            self.stmt(step)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                self.scopes.pop();
                result
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
            Stmt::Return(value, _) => {
                let v = match value {
                    Some(value) => self.expr(value)?,
                    None => 0,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Block(block) => self.block(block),
        }
    }

    fn element_addr(&mut self, base: &'a Expr, index: &'a Expr) -> Result<i32, LangError> {
        let base_value = match base {
            Expr::Var(name, _) => match self.lookup(name) {
                Some(value) => value, // scalar local (pointer) or local array base
                None => {
                    let (addr, _) = *self
                        .global_addrs
                        .get(name)
                        .ok_or_else(|| LangError::internal(format!("undefined `{name}`")))?;
                    let (_, is_array) = self.global_addrs[name];
                    if is_array {
                        addr as i32
                    } else {
                        self.load(addr as i32)? // global scalar holding a pointer
                    }
                }
            },
            other => self.expr(other)?,
        };
        let index_value = self.expr(index)?;
        Ok(base_value.wrapping_add(index_value.wrapping_mul(4)))
    }

    fn expr(&mut self, expr: &'a Expr) -> Result<i32, LangError> {
        self.tick()?;
        match expr {
            Expr::Int(v, _) => Ok(*v),
            Expr::Var(name, _) => {
                if let Some(value) = self.lookup(name) {
                    return Ok(value);
                }
                let (addr, is_array) = *self
                    .global_addrs
                    .get(name)
                    .ok_or_else(|| LangError::internal(format!("undefined `{name}`")))?;
                if is_array {
                    Ok(addr as i32)
                } else {
                    self.load(addr as i32)
                }
            }
            Expr::Index { base, index, .. } => {
                let addr = self.element_addr(base, index)?;
                self.load(addr)
            }
            Expr::Unary { op, expr, .. } => match op {
                UnOp::Neg => Ok(self.expr(expr)?.wrapping_neg()),
                UnOp::Not => Ok((self.expr(expr)? == 0) as i32),
                UnOp::AddrOf => {
                    let Expr::Var(name, _) = expr.as_ref() else {
                        unreachable!("checked by sema");
                    };
                    Ok(self.func_addr(name))
                }
            },
            Expr::Binary { op, lhs, rhs, .. } => {
                match op {
                    BinOp::LogAnd => {
                        if self.expr(lhs)? == 0 {
                            return Ok(0);
                        }
                        return Ok((self.expr(rhs)? != 0) as i32);
                    }
                    BinOp::LogOr => {
                        if self.expr(lhs)? != 0 {
                            return Ok(1);
                        }
                        return Ok((self.expr(rhs)? != 0) as i32);
                    }
                    _ => {}
                }
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                Ok(eval_binop(*op, a, b))
            }
            Expr::Call { name, args, .. } => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(self.expr(arg)?);
                }
                let func = if self.module.func(name).is_some() {
                    self.module.func(name).expect("just checked")
                } else {
                    // Indirect call through a variable.
                    let addr = match self.lookup(name) {
                        Some(value) => value,
                        None => {
                            let (gaddr, _) = *self
                                .global_addrs
                                .get(name)
                                .ok_or_else(|| {
                                    LangError::internal(format!("undefined `{name}`"))
                                })?;
                            self.load(gaddr as i32)?
                        }
                    };
                    self.func_by_addr(addr)?
                };
                Ok(self.call(func, &values)?.unwrap_or(0))
            }
        }
    }
}

/// Evaluates a non-logical binary operator with the exact semantics of the
/// ISA's [`AluOp`](clfp_isa::AluOp).
pub(crate) fn eval_binop(op: BinOp, a: i32, b: i32) -> i32 {
    use clfp_isa::AluOp;
    match op {
        BinOp::Add => AluOp::Add.eval(a, b),
        BinOp::Sub => AluOp::Sub.eval(a, b),
        BinOp::Mul => AluOp::Mul.eval(a, b),
        BinOp::Div => AluOp::Div.eval(a, b),
        BinOp::Rem => AluOp::Rem.eval(a, b),
        BinOp::Shl => AluOp::Sll.eval(a, b),
        BinOp::Shr => AluOp::Sra.eval(a, b),
        BinOp::Lt => AluOp::Slt.eval(a, b),
        BinOp::Le => AluOp::Sle.eval(a, b),
        BinOp::Gt => AluOp::Slt.eval(b, a),
        BinOp::Ge => AluOp::Sle.eval(b, a),
        BinOp::Eq => AluOp::Seq.eval(a, b),
        BinOp::Ne => AluOp::Sne.eval(a, b),
        BinOp::BitAnd => AluOp::And.eval(a, b),
        BinOp::BitOr => AluOp::Or.eval(a, b),
        BinOp::BitXor => AluOp::Xor.eval(a, b),
        BinOp::LogAnd | BinOp::LogOr => unreachable!("handled by caller"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(source: &str) -> i32 {
        interpret_source(source, 10_000_000).unwrap().result
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("fn main() -> int { return 2 + 3 * 4; }"), 14);
        assert_eq!(run("fn main() -> int { return (2 + 3) * 4; }"), 20);
        assert_eq!(run("fn main() -> int { return 7 / 2; }"), 3);
        assert_eq!(run("fn main() -> int { return 7 % 0; }"), 0);
        assert_eq!(run("fn main() -> int { return -7 >> 1; }"), -4);
    }

    #[test]
    fn locals_and_loops() {
        let source = r#"
            fn main() -> int {
                var s: int = 0;
                for (var i: int = 1; i <= 10; i = i + 1) { s = s + i; }
                return s;
            }
        "#;
        assert_eq!(run(source), 55);
    }

    #[test]
    fn globals_and_arrays() {
        let source = r#"
            var total: int;
            var data: int[5] = {3, 1, 4, 1, 5};
            fn main() -> int {
                for (var i: int = 0; i < 5; i = i + 1) { total = total + data[i]; }
                return total;
            }
        "#;
        let outcome = interpret_source(source, 1_000_000).unwrap();
        assert_eq!(outcome.result, 14);
        assert_eq!(outcome.globals[0], 14); // `total` is the first global
    }

    #[test]
    fn recursion() {
        let source = r#"
            fn fib(n: int) -> int {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() -> int { return fib(12); }
        "#;
        assert_eq!(run(source), 144);
    }

    #[test]
    fn short_circuit() {
        // Division by zero guarded by &&: never evaluated.
        let source = r#"
            fn boom() -> int { return 1 / 0; }
            fn main() -> int {
                var x: int = 0;
                if (x != 0 && boom() > 0) { return 1; }
                return 2;
            }
        "#;
        assert_eq!(run(source), 2);
    }

    #[test]
    fn indirect_calls() {
        let source = r#"
            fn double(x: int) -> int { return x * 2; }
            fn triple(x: int) -> int { return x * 3; }
            fn main() -> int {
                var f: int = &double;
                var g: int = &triple;
                return f(10) + g(10);
            }
        "#;
        assert_eq!(run(source), 50);
    }

    #[test]
    fn local_arrays_and_pointers() {
        let source = r#"
            fn sum(p: int, n: int) -> int {
                var s: int = 0;
                for (var i: int = 0; i < n; i = i + 1) { s = s + p[i]; }
                return s;
            }
            fn main() -> int {
                var buf: int[4];
                buf[0] = 10; buf[1] = 20; buf[2] = 30; buf[3] = 40;
                return sum(buf, 4);
            }
        "#;
        assert_eq!(run(source), 100);
    }

    #[test]
    fn break_and_continue() {
        let source = r#"
            fn main() -> int {
                var s: int = 0;
                for (var i: int = 0; i < 100; i = i + 1) {
                    if (i == 10) { break; }
                    if (i % 2 == 1) { continue; }
                    s = s + i;
                }
                return s;
            }
        "#;
        assert_eq!(run(source), 2 + 4 + 6 + 8);
    }

    #[test]
    fn fuel_limit() {
        let source = "fn main() -> int { while (1) { } return 0; }";
        let err = interpret_source(source, 1000).unwrap_err();
        assert!(err.to_string().contains("fuel"));
    }

    #[test]
    fn while_with_memory() {
        let source = r#"
            var heap: int[16];
            fn main() -> int {
                // Build a linked list 3 -> 2 -> 1 in the heap arena.
                var hp: int = heap;
                var head: int = 0;
                for (var i: int = 1; i <= 3; i = i + 1) {
                    hp[0] = i;       // value
                    hp[1] = head;    // next
                    head = hp;
                    hp = hp + 8;
                }
                var s: int = 0;
                while (head != 0) {
                    s = s * 10 + head[0];
                    head = head[1];
                }
                return s;
            }
        "#;
        assert_eq!(run(source), 321);
    }
}
