//! Reference interpreter for the core IR.
//!
//! This is the executable form of the paper's array-combinator calculus
//! (Section 2.1): a direct, sequential implementation of the semantics used
//! as the correctness oracle for every compiler pass and for the GPU
//! simulator. It also counts *work* (scalar operations and element
//! touches), which the evaluation harness uses to report asymptotic
//! effects such as the O(n·k) vs O(n) K-means formulations of Figure 4.
//!
//! Streaming SOACs are chunked according to a configurable
//! [`Interpreter::set_chunk_size`]; by the paper's well-definedness argument
//! (Section 2.1, `sFold`), a correct program yields the same result for any
//! partitioning — a property the test suite exercises directly.

pub mod scalar;

use futhark_core::{
    ArrayVal, Body, Buffer, Exp, FunDef, Lambda, LoopForm, Name, Program, Scalar, Soac, SubExp,
    Type, Value,
};
use scalar::{eval_binop, eval_cmp, eval_convert, eval_unop};
use std::collections::HashMap;
use std::fmt;

/// An interpretation error.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Array index out of bounds.
    OutOfBounds {
        /// Description of the access.
        what: String,
    },
    /// Division or remainder by zero.
    DivisionByZero,
    /// A `map` produced rows of different shapes (irregular array).
    Irregular,
    /// A dynamically checked size postcondition failed.
    SizeMismatch(String),
    /// Ill-typed IR reached the interpreter (a compiler bug).
    Type(String),
    /// Unknown function.
    UnknownFunction(String),
    /// Negative size passed to `iota`/`replicate`.
    NegativeSize(i64),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfBounds { what } => write!(f, "index out of bounds: {what}"),
            InterpError::DivisionByZero => write!(f, "division by zero"),
            InterpError::Irregular => write!(f, "irregular array constructed"),
            InterpError::SizeMismatch(m) => write!(f, "size mismatch: {m}"),
            InterpError::Type(m) => write!(f, "type error at runtime: {m}"),
            InterpError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            InterpError::NegativeSize(k) => write!(f, "negative size {k}"),
        }
    }
}

impl std::error::Error for InterpError {}

type IResult<T> = Result<T, InterpError>;

/// The reference interpreter.
///
/// ```
/// use futhark_interp::Interpreter;
/// use futhark_core::Value;
///
/// let (prog, _) = futhark_frontend::parse_program(
///     "fun main (x: i64): i64 = let y = x * x in y").unwrap();
/// let mut interp = Interpreter::new(&prog);
/// let out = interp.run("main", &[Value::i64(7)]).unwrap();
/// assert_eq!(out, vec![Value::i64(49)]);
/// ```
#[derive(Debug)]
pub struct Interpreter<'a> {
    prog: &'a Program,
    work: u64,
    /// Chunk size for streaming SOACs; `None` means one single chunk.
    chunk: Option<usize>,
}

type Env = HashMap<Name, Value>;

impl<'a> Interpreter<'a> {
    /// Creates an interpreter for a program.
    pub fn new(prog: &'a Program) -> Self {
        Interpreter {
            prog,
            work: 0,
            chunk: None,
        }
    }

    /// Sets the chunk size used for `stream_*` SOACs (default: the whole
    /// input as one chunk). Any positive size must produce the same results
    /// for well-formed programs.
    pub fn set_chunk_size(&mut self, c: usize) -> &mut Self {
        self.chunk = if c == 0 { None } else { Some(c) };
        self
    }

    /// Total work performed since construction.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Runs a named function on the given arguments.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] for runtime failures (bounds, zero
    /// division, irregular arrays) or ill-formed IR.
    pub fn run(&mut self, func: &str, args: &[Value]) -> IResult<Vec<Value>> {
        let f = self
            .prog
            .function(func)
            .ok_or_else(|| InterpError::UnknownFunction(func.to_string()))?;
        if f.params.len() != args.len() {
            return Err(InterpError::Type(format!(
                "`{func}` expects {} arguments, got {}",
                f.params.len(),
                args.len()
            )));
        }
        let mut env: Env = HashMap::new();
        bind_params(&mut env, f, args)?;
        self.eval_body(&env, &f.body)
    }

    /// Runs `main`.
    ///
    /// # Errors
    ///
    /// As [`Interpreter::run`].
    pub fn run_main(&mut self, args: &[Value]) -> IResult<Vec<Value>> {
        self.run("main", args)
    }

    /// Evaluates a single expression under the given variable bindings
    /// (used by the GPU runtime's host-side scalar evaluation).
    ///
    /// # Errors
    ///
    /// As [`Interpreter::run`].
    pub fn eval_exp_with(
        &mut self,
        bindings: &HashMap<Name, Value>,
        exp: &Exp,
    ) -> IResult<Vec<Value>> {
        self.eval_exp(bindings, exp)
    }

    fn eval_body(&mut self, env: &Env, body: &Body) -> IResult<Vec<Value>> {
        let mut env = env.clone();
        for stm in &body.stms {
            let vals = self.eval_exp(&env, &stm.exp)?;
            if vals.len() != stm.pat.len() {
                return Err(InterpError::Type(format!(
                    "statement pattern of {} names bound to {} values",
                    stm.pat.len(),
                    vals.len()
                )));
            }
            for (pe, v) in stm.pat.iter().zip(vals) {
                env.insert(pe.name.clone(), v);
            }
        }
        let mut out = Vec::with_capacity(body.result.len());
        for se in &body.result {
            out.push(self.eval_subexp(&env, se)?);
        }
        Ok(out)
    }

    fn eval_subexp(&self, env: &Env, se: &SubExp) -> IResult<Value> {
        match se {
            SubExp::Const(k) => Ok(Value::Scalar(*k)),
            SubExp::Var(v) => env
                .get(v)
                .cloned()
                .ok_or_else(|| InterpError::Type(format!("unbound variable {v}"))),
        }
    }

    fn scalar(&self, env: &Env, se: &SubExp) -> IResult<Scalar> {
        self.eval_subexp(env, se)?
            .as_scalar()
            .ok_or_else(|| InterpError::Type("expected scalar".into()))
    }

    fn array(&self, env: &Env, name: &Name) -> IResult<ArrayVal> {
        match env.get(name) {
            Some(Value::Array(a)) => Ok(a.clone()),
            Some(Value::Scalar(_)) => Err(InterpError::Type(format!("{name} is not an array"))),
            None => Err(InterpError::Type(format!("unbound variable {name}"))),
        }
    }

    fn index_of(&self, env: &Env, se: &SubExp) -> IResult<i64> {
        self.scalar(env, se)?
            .as_i64()
            .ok_or_else(|| InterpError::Type("expected integer index".into()))
    }

    fn eval_exp(&mut self, env: &Env, exp: &Exp) -> IResult<Vec<Value>> {
        match exp {
            Exp::SubExp(se) => Ok(vec![self.eval_subexp(env, se)?]),
            Exp::UnOp(op, a) => {
                self.work += 1;
                let v = self.scalar(env, a)?;
                Ok(vec![Value::Scalar(eval_unop(*op, v)?)])
            }
            Exp::BinOp(op, a, b) => {
                self.work += 1;
                let x = self.scalar(env, a)?;
                let y = self.scalar(env, b)?;
                Ok(vec![Value::Scalar(eval_binop(*op, x, y)?)])
            }
            Exp::Cmp(op, a, b) => {
                self.work += 1;
                let x = self.scalar(env, a)?;
                let y = self.scalar(env, b)?;
                Ok(vec![Value::Scalar(eval_cmp(*op, x, y)?)])
            }
            Exp::Convert(t, a) => {
                self.work += 1;
                let v = self.scalar(env, a)?;
                Ok(vec![Value::Scalar(eval_convert(*t, v)?)])
            }
            Exp::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = self
                    .scalar(env, cond)?
                    .as_bool()
                    .ok_or_else(|| InterpError::Type("if condition not boolean".into()))?;
                if c {
                    self.eval_body(env, then_body)
                } else {
                    self.eval_body(env, else_body)
                }
            }
            Exp::Apply { func, args } => {
                let f = self
                    .prog
                    .function(func)
                    .ok_or_else(|| InterpError::UnknownFunction(func.clone()))?;
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.eval_subexp(env, a)?);
                }
                let mut fenv = Env::new();
                bind_params(&mut fenv, f, &vals)?;
                self.eval_body(&fenv, &f.body)
            }
            Exp::Index { array, indices } => {
                self.work += 1;
                let arr = self.array(env, array)?;
                let idx: Vec<i64> = indices
                    .iter()
                    .map(|i| self.index_of(env, i))
                    .collect::<IResult<_>>()?;
                let v = if idx.len() == arr.rank() {
                    arr.index_scalar(&idx).map(Value::Scalar)
                } else {
                    arr.index_slice(&idx).map(Value::Array)
                };
                v.map(|v| vec![v]).ok_or_else(|| InterpError::OutOfBounds {
                    what: format!("{array}{idx:?} (shape {:?})", arr.shape),
                })
            }
            Exp::Update {
                array,
                indices,
                value,
            } => {
                // The uniqueness type system guarantees this is an O(element)
                // operation at runtime; the interpreter clones for purity but
                // accounts in-place cost.
                self.work += 1;
                let mut arr = self.array(env, array)?;
                let idx: Vec<i64> = indices
                    .iter()
                    .map(|i| self.index_of(env, i))
                    .collect::<IResult<_>>()?;
                let ok = match self.eval_subexp(env, value)? {
                    Value::Scalar(s) => arr.update_scalar(&idx, s),
                    Value::Array(v) => arr.update_slice(&idx, &v),
                };
                if !ok {
                    return Err(InterpError::OutOfBounds {
                        what: format!("update {array}{idx:?} (shape {:?})", arr.shape),
                    });
                }
                Ok(vec![Value::Array(arr)])
            }
            Exp::Iota(n) => {
                let n = self.index_of(env, n)?;
                if n < 0 {
                    return Err(InterpError::NegativeSize(n));
                }
                self.work += n as u64;
                Ok(vec![Value::Array(ArrayVal::from_i64s((0..n).collect()))])
            }
            Exp::Replicate(n, v) => {
                let n = self.index_of(env, n)?;
                if n < 0 {
                    return Err(InterpError::NegativeSize(n));
                }
                let v = self.eval_subexp(env, v)?;
                let arr = match v {
                    Value::Scalar(s) => {
                        self.work += n as u64;
                        let t = s.scalar_type();
                        ArrayVal::new(vec![n as usize], Buffer::from_scalars(t, (0..n).map(|_| s)))
                    }
                    Value::Array(a) => {
                        self.work += n as u64 * a.data.len() as u64;
                        let mut shape = vec![n as usize];
                        shape.extend(&a.shape);
                        let total = n as usize * a.data.len();
                        let mut buf = Buffer::zeros(a.elem_type(), total);
                        for i in 0..n as usize {
                            buf.copy_from(i * a.data.len(), &a.data, 0, a.data.len());
                        }
                        ArrayVal::new(shape, buf)
                    }
                };
                Ok(vec![Value::Array(arr)])
            }
            Exp::Rearrange { perm, array } => {
                let arr = self.array(env, array)?;
                self.work += arr.data.len() as u64;
                Ok(vec![Value::Array(arr.rearrange(perm))])
            }
            Exp::Reshape { shape, array } => {
                let arr = self.array(env, array)?;
                let dims: Vec<usize> = shape
                    .iter()
                    .map(|s| self.index_of(env, s).map(|k| k as usize))
                    .collect::<IResult<_>>()?;
                arr.reshape(dims.clone())
                    .map(|a| vec![Value::Array(a)])
                    .ok_or_else(|| {
                        InterpError::SizeMismatch(format!("reshape {:?} -> {:?}", arr.shape, dims))
                    })
            }
            Exp::Concat { arrays } => {
                let arrs: Vec<ArrayVal> = arrays
                    .iter()
                    .map(|a| self.array(env, a))
                    .collect::<IResult<_>>()?;
                let refs: Vec<&ArrayVal> = arrs.iter().collect();
                self.work += arrs.iter().map(|a| a.data.len() as u64).sum::<u64>();
                Ok(vec![Value::Array(ArrayVal::concat(&refs))])
            }
            Exp::Copy(a) => {
                let arr = self.array(env, a)?;
                self.work += arr.data.len() as u64;
                Ok(vec![Value::Array(arr)])
            }
            Exp::Loop { params, form, body } => self.eval_loop(env, params, form, body),
            Exp::Soac(soac) => self.eval_soac(env, soac),
        }
    }

    fn eval_loop(
        &mut self,
        env: &Env,
        params: &[(futhark_core::Param, SubExp)],
        form: &LoopForm,
        body: &Body,
    ) -> IResult<Vec<Value>> {
        let mut env = env.clone();
        let mut merge: Vec<Value> = params
            .iter()
            .map(|(_, init)| self.eval_subexp(&env, init))
            .collect::<IResult<_>>()?;
        match form {
            LoopForm::For { var, bound } => {
                let n = self.index_of(&env, bound)?;
                for i in 0..n {
                    for ((p, _), v) in params.iter().zip(&merge) {
                        env.insert(p.name.clone(), v.clone());
                    }
                    env.insert(var.clone(), Value::i64(i));
                    merge = self.eval_body(&env, body)?;
                }
            }
            LoopForm::While(cond) => loop {
                for ((p, _), v) in params.iter().zip(&merge) {
                    env.insert(p.name.clone(), v.clone());
                }
                let cvals = self.eval_body(&env, cond)?;
                let c = cvals
                    .first()
                    .and_then(Value::as_scalar)
                    .and_then(|s| s.as_bool())
                    .ok_or_else(|| InterpError::Type("while condition not boolean".into()))?;
                if !c {
                    break;
                }
                merge = self.eval_body(&env, body)?;
            },
        }
        Ok(merge)
    }

    /// Applies a lambda to argument values. Lambdas capture the enclosing
    /// scope, so evaluation extends `env`.
    fn apply_lambda(&mut self, env: &Env, lam: &Lambda, args: &[Value]) -> IResult<Vec<Value>> {
        if lam.params.len() != args.len() {
            return Err(InterpError::Type(format!(
                "lambda of {} params applied to {} values",
                lam.params.len(),
                args.len()
            )));
        }
        let mut env = env.clone();
        for (p, a) in lam.params.iter().zip(args) {
            env.insert(p.name.clone(), a.clone());
        }
        self.eval_body(&env, &lam.body)
    }

    fn width_of(&self, env: &Env, width: &SubExp, arrs: &[Name]) -> IResult<usize> {
        let n = self.index_of(env, width)?;
        if n < 0 {
            return Err(InterpError::NegativeSize(n));
        }
        for a in arrs {
            let arr = self.array(env, a)?;
            if arr.shape[0] != n as usize {
                return Err(InterpError::SizeMismatch(format!(
                    "SOAC width {n} but input {a} has outer size {}",
                    arr.shape[0]
                )));
            }
        }
        Ok(n as usize)
    }

    /// Extracts row `i` of each input array.
    fn rows_at(&self, env: &Env, arrs: &[Name], i: i64) -> IResult<Vec<Value>> {
        arrs.iter()
            .map(|a| {
                let arr = self.array(env, a)?;
                if arr.rank() == 1 {
                    arr.index_scalar(&[i]).map(Value::Scalar)
                } else {
                    arr.index_slice(&[i]).map(Value::Array)
                }
                .ok_or_else(|| InterpError::OutOfBounds {
                    what: format!("row {i} of {a}"),
                })
            })
            .collect()
    }

    /// Assembles per-iteration results into result arrays, enforcing
    /// regularity.
    fn assemble(&mut self, n: usize, per_iter: Vec<Vec<Value>>, k: usize) -> IResult<Vec<Value>> {
        let mut out = Vec::with_capacity(k);
        for j in 0..k {
            let first = &per_iter[0][j];
            match first {
                Value::Scalar(s0) => {
                    let t = s0.scalar_type();
                    let mut buf = Buffer::zeros(t, n);
                    for (i, row) in per_iter.iter().enumerate() {
                        let s = row[j].as_scalar().ok_or(InterpError::Irregular)?;
                        if s.scalar_type() != t {
                            return Err(InterpError::Irregular);
                        }
                        buf.set(i, s);
                    }
                    out.push(Value::Array(ArrayVal::new(vec![n], buf)));
                }
                Value::Array(a0) => {
                    let inner = a0.shape.clone();
                    let t = a0.elem_type();
                    let row_len = a0.data.len();
                    let mut shape = vec![n];
                    shape.extend(&inner);
                    let mut buf = Buffer::zeros(t, n * row_len);
                    for (i, row) in per_iter.iter().enumerate() {
                        let a = row[j].as_array().ok_or(InterpError::Irregular)?;
                        if a.shape != inner || a.elem_type() != t {
                            return Err(InterpError::Irregular);
                        }
                        buf.copy_from(i * row_len, &a.data, 0, row_len);
                    }
                    out.push(Value::Array(ArrayVal::new(shape, buf)));
                }
            }
        }
        Ok(out)
    }

    /// Splits inputs into chunks for the streaming SOACs.
    fn chunk_bounds(&self, n: usize) -> Vec<(usize, usize)> {
        let c = self.chunk.unwrap_or(n.max(1));
        let mut out = Vec::new();
        let mut at = 0;
        while at < n {
            let len = c.min(n - at);
            out.push((at, len));
            at += len;
        }
        if out.is_empty() {
            out.push((0, 0));
        }
        out
    }

    fn chunk_values(&self, env: &Env, arrs: &[Name], at: usize, len: usize) -> IResult<Vec<Value>> {
        arrs.iter()
            .map(|a| {
                let arr = self.array(env, a)?;
                let row = arr.row_elems();
                let mut shape = arr.shape.clone();
                shape[0] = len;
                let mut buf = Buffer::zeros(arr.elem_type(), len * row);
                buf.copy_from(0, &arr.data, at * row, len * row);
                Ok(Value::Array(ArrayVal::new(shape, buf)))
            })
            .collect()
    }

    fn eval_soac(&mut self, env: &Env, soac: &Soac) -> IResult<Vec<Value>> {
        match soac {
            Soac::Map { width, lam, arrs } => {
                let n = self.width_of(env, width, arrs)?;
                if n == 0 {
                    return self.empty_map_results(lam);
                }
                let mut per_iter = Vec::with_capacity(n);
                for i in 0..n as i64 {
                    let args = self.rows_at(env, arrs, i)?;
                    per_iter.push(self.apply_lambda(env, lam, &args)?);
                }
                self.assemble(n, per_iter, lam.ret.len())
            }
            Soac::Reduce {
                width,
                lam,
                neutral,
                arrs,
                ..
            } => {
                let n = self.width_of(env, width, arrs)?;
                let mut acc: Vec<Value> = neutral
                    .iter()
                    .map(|e| self.eval_subexp(env, e))
                    .collect::<IResult<_>>()?;
                for i in 0..n as i64 {
                    let mut args = acc;
                    args.extend(self.rows_at(env, arrs, i)?);
                    acc = self.apply_lambda(env, lam, &args)?;
                }
                Ok(acc)
            }
            Soac::Scan {
                width,
                lam,
                neutral,
                arrs,
            } => {
                let n = self.width_of(env, width, arrs)?;
                let mut acc: Vec<Value> = neutral
                    .iter()
                    .map(|e| self.eval_subexp(env, e))
                    .collect::<IResult<_>>()?;
                let mut per_iter = Vec::with_capacity(n);
                for i in 0..n as i64 {
                    let mut args = acc;
                    args.extend(self.rows_at(env, arrs, i)?);
                    let vals = self.apply_lambda(env, lam, &args)?;
                    per_iter.push(vals.clone());
                    acc = vals;
                }
                if n == 0 {
                    self.empty_scan_results(env, neutral)
                } else {
                    self.assemble(n, per_iter, lam.ret.len())
                }
            }
            Soac::Redomap {
                width,
                red_lam,
                map_lam,
                neutral,
                arrs,
                ..
            } => {
                let n = self.width_of(env, width, arrs)?;
                let k = neutral.len();
                let mut acc: Vec<Value> = neutral
                    .iter()
                    .map(|e| self.eval_subexp(env, e))
                    .collect::<IResult<_>>()?;
                let mut extras: Vec<Vec<Value>> = Vec::with_capacity(n);
                for i in 0..n as i64 {
                    let args = self.rows_at(env, arrs, i)?;
                    let mapped = self.apply_lambda(env, map_lam, &args)?;
                    let (red_part, extra) = mapped.split_at(k);
                    let mut rargs = acc;
                    rargs.extend(red_part.iter().cloned());
                    acc = self.apply_lambda(env, red_lam, &rargs)?;
                    if !extra.is_empty() {
                        extras.push(extra.to_vec());
                    }
                }
                let mut out = acc;
                if map_lam.ret.len() > k {
                    if n == 0 {
                        return Err(InterpError::SizeMismatch(
                            "redomap with mapped-out results over empty input".into(),
                        ));
                    }
                    out.extend(self.assemble(n, extras, map_lam.ret.len() - k)?);
                }
                Ok(out)
            }
            Soac::StreamMap { width, lam, arrs } => {
                let n = self.width_of(env, width, arrs)?;
                let mut parts: Vec<Vec<Value>> = Vec::new();
                for (at, len) in self.chunk_bounds(n) {
                    let mut args = vec![Value::i64(len as i64)];
                    args.extend(self.chunk_values(env, arrs, at, len)?);
                    parts.push(self.apply_lambda(env, lam, &args)?);
                }
                concat_chunk_results(&parts, lam.ret.len())
            }
            Soac::StreamRed {
                width,
                red_lam,
                fold_lam,
                accs,
                arrs,
            } => {
                let n = self.width_of(env, width, arrs)?;
                let init: Vec<Value> = accs
                    .iter()
                    .map(|e| self.eval_subexp(env, e))
                    .collect::<IResult<_>>()?;
                let k = init.len();
                let mut combined = init.clone();
                let mut parts: Vec<Vec<Value>> = Vec::new();
                for (at, len) in self.chunk_bounds(n) {
                    let mut args = vec![Value::i64(len as i64)];
                    args.extend(init.iter().cloned());
                    args.extend(self.chunk_values(env, arrs, at, len)?);
                    let vals = self.apply_lambda(env, fold_lam, &args)?;
                    let (accs_out, arrs_out) = vals.split_at(k);
                    let mut rargs = combined;
                    rargs.extend(accs_out.iter().cloned());
                    combined = self.apply_lambda(env, red_lam, &rargs)?;
                    parts.push(arrs_out.to_vec());
                }
                let mut out = combined;
                if fold_lam.ret.len() > k {
                    out.extend(concat_chunk_results(&parts, fold_lam.ret.len() - k)?);
                }
                Ok(out)
            }
            Soac::StreamSeq {
                width,
                lam,
                accs,
                arrs,
            } => {
                let n = self.width_of(env, width, arrs)?;
                let mut acc: Vec<Value> = accs
                    .iter()
                    .map(|e| self.eval_subexp(env, e))
                    .collect::<IResult<_>>()?;
                let k = acc.len();
                let mut parts: Vec<Vec<Value>> = Vec::new();
                for (at, len) in self.chunk_bounds(n) {
                    let mut args = vec![Value::i64(len as i64)];
                    args.extend(acc.iter().cloned());
                    args.extend(self.chunk_values(env, arrs, at, len)?);
                    let vals = self.apply_lambda(env, lam, &args)?;
                    let (accs_out, arrs_out) = vals.split_at(k);
                    acc = accs_out.to_vec();
                    parts.push(arrs_out.to_vec());
                }
                let mut out = acc;
                if lam.ret.len() > k {
                    out.extend(concat_chunk_results(&parts, lam.ret.len() - k)?);
                }
                Ok(out)
            }
            Soac::Scatter {
                width,
                dest,
                indices,
                values,
            } => {
                let n = self.index_of(env, width)? as usize;
                let mut d = self.array(env, dest)?;
                let is = self.array(env, indices)?;
                let vs = self.array(env, values)?;
                self.work += n as u64;
                for i in 0..n as i64 {
                    let ix = is
                        .index_scalar(&[i])
                        .and_then(|s| s.as_i64())
                        .ok_or_else(|| InterpError::OutOfBounds {
                            what: format!("scatter index {i}"),
                        })?;
                    if ix < 0 || ix as usize >= d.shape[0] {
                        continue; // out-of-bounds scatter writes are ignored
                    }
                    if vs.rank() == 1 {
                        let v = vs
                            .index_scalar(&[i])
                            .ok_or_else(|| InterpError::OutOfBounds {
                                what: format!("scatter value {i}"),
                            })?;
                        d.update_scalar(&[ix], v);
                    } else {
                        let v = vs
                            .index_slice(&[i])
                            .ok_or_else(|| InterpError::OutOfBounds {
                                what: format!("scatter value {i}"),
                            })?;
                        d.update_slice(&[ix], &v);
                    }
                }
                Ok(vec![Value::Array(d)])
            }
        }
    }

    /// Result arrays of a zero-width map: empty arrays of the lambda's
    /// return element types.
    fn empty_map_results(&mut self, lam: &Lambda) -> IResult<Vec<Value>> {
        let mut out = Vec::new();
        for t in &lam.ret {
            let elem = t.elem();
            out.push(Value::Array(ArrayVal::new(vec![0], Buffer::zeros(elem, 0))));
        }
        Ok(out)
    }

    fn empty_scan_results(&mut self, env: &Env, neutral: &[SubExp]) -> IResult<Vec<Value>> {
        let mut out = Vec::new();
        for e in neutral {
            let v = self.eval_subexp(env, e)?;
            let t = match v {
                Value::Scalar(s) => s.scalar_type(),
                Value::Array(a) => a.elem_type(),
            };
            out.push(Value::Array(ArrayVal::new(vec![0], Buffer::zeros(t, 0))));
        }
        Ok(out)
    }
}

/// Concatenates each column of per-chunk array results.
fn concat_chunk_results(parts: &[Vec<Value>], k: usize) -> IResult<Vec<Value>> {
    let mut out = Vec::with_capacity(k);
    for j in 0..k {
        let arrs: Vec<&ArrayVal> = parts
            .iter()
            .map(|p| p[j].as_array().ok_or(InterpError::Irregular))
            .collect::<IResult<_>>()?;
        out.push(Value::Array(ArrayVal::concat(&arrs)));
    }
    Ok(out)
}

fn bind_params(env: &mut Env, f: &FunDef, args: &[Value]) -> IResult<()> {
    // Bind value parameters first.
    for (p, a) in f.params.iter().zip(args) {
        env.insert(p.name.clone(), a.clone());
    }
    // Dynamic size postconditions: check declared shapes against actual
    // shapes, binding size variables that are not value parameters.
    for (p, a) in f.params.iter().zip(args) {
        if let (Type::Array(at), Value::Array(arr)) = (&p.ty, a) {
            if at.rank() != arr.rank() {
                return Err(InterpError::SizeMismatch(format!(
                    "parameter {} has rank {} but argument has rank {}",
                    p.name,
                    at.rank(),
                    arr.rank()
                )));
            }
            for (d, &actual) in at.dims.iter().zip(&arr.shape) {
                match d {
                    futhark_core::Size::Const(k) => {
                        if *k != actual as i64 {
                            return Err(InterpError::SizeMismatch(format!(
                                "parameter {} dimension {k} != {actual}",
                                p.name
                            )));
                        }
                    }
                    futhark_core::Size::Var(v) => match env.get(v) {
                        Some(Value::Scalar(s)) => {
                            if s.as_i64() != Some(actual as i64) {
                                return Err(InterpError::SizeMismatch(format!(
                                    "size {v} = {s} but dimension is {actual}",
                                )));
                            }
                        }
                        _ => {
                            env.insert(v.clone(), Value::i64(actual as i64));
                        }
                    },
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
