//! The core intermediate representation (Figure 1 of the paper), in
//! A-normal form: every intermediate value is let-bound, and expression
//! operands are [`SubExp`]s (constants or variables).
//!
//! A [`Stm`] binds a *pattern* of one or more names, since core-language
//! SOACs may produce several arrays at once (the compiler transforms
//! arrays-of-tuples to tuples-of-arrays at an early stage, per Section 2.2).

use crate::name::Name;
use crate::prov::Prov;
use crate::types::{DeclType, ScalarType, Size, Type};
use std::fmt;

/// A compile-time scalar constant.
#[derive(Debug, Clone, Copy)]
pub enum Scalar {
    /// A boolean constant.
    Bool(bool),
    /// A 32-bit integer constant.
    I32(i32),
    /// A 64-bit integer constant.
    I64(i64),
    /// A 32-bit float constant.
    F32(f32),
    /// A 64-bit float constant.
    F64(f64),
}

impl Scalar {
    /// The type of this constant.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            Scalar::Bool(_) => ScalarType::Bool,
            Scalar::I32(_) => ScalarType::I32,
            Scalar::I64(_) => ScalarType::I64,
            Scalar::F32(_) => ScalarType::F32,
            Scalar::F64(_) => ScalarType::F64,
        }
    }

    /// The value as an `i64`, if integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Scalar::I32(k) => Some(*k as i64),
            Scalar::I64(k) => Some(*k),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::I32(k) => Some(*k as f64),
            Scalar::I64(k) => Some(*k as f64),
            Scalar::F32(x) => Some(*x as f64),
            Scalar::F64(x) => Some(*x),
            Scalar::Bool(_) => None,
        }
    }

    /// The value as a `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The zero of the given numeric type, or `false` for booleans.
    pub fn zero(t: ScalarType) -> Scalar {
        match t {
            ScalarType::Bool => Scalar::Bool(false),
            ScalarType::I32 => Scalar::I32(0),
            ScalarType::I64 => Scalar::I64(0),
            ScalarType::F32 => Scalar::F32(0.0),
            ScalarType::F64 => Scalar::F64(0.0),
        }
    }

    /// The one of the given numeric type, or `true` for booleans.
    pub fn one(t: ScalarType) -> Scalar {
        match t {
            ScalarType::Bool => Scalar::Bool(true),
            ScalarType::I32 => Scalar::I32(1),
            ScalarType::I64 => Scalar::I64(1),
            ScalarType::F32 => Scalar::F32(1.0),
            ScalarType::F64 => Scalar::F64(1.0),
        }
    }
}

impl PartialEq for Scalar {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Scalar::Bool(a), Scalar::Bool(b)) => a == b,
            (Scalar::I32(a), Scalar::I32(b)) => a == b,
            (Scalar::I64(a), Scalar::I64(b)) => a == b,
            // Bitwise comparison: equality is reflexive (a NaN equals
            // itself), zeros of opposite sign differ, and `Hash` agrees.
            // CSE keys constant operands on this equality, except that all
            // NaNs of one type share one key (`futhark_opt::simplify`).
            (Scalar::F32(a), Scalar::F32(b)) => a.to_bits() == b.to_bits(),
            (Scalar::F64(a), Scalar::F64(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for Scalar {}

impl std::hash::Hash for Scalar {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Scalar::Bool(b) => b.hash(state),
            Scalar::I32(k) => k.hash(state),
            Scalar::I64(k) => k.hash(state),
            Scalar::F32(x) => x.to_bits().hash(state),
            Scalar::F64(x) => x.to_bits().hash(state),
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Bool(b) => write!(f, "{b}"),
            Scalar::I32(k) => write!(f, "{k}i32"),
            Scalar::I64(k) => write!(f, "{k}i64"),
            Scalar::F32(x) => write!(f, "{x:?}f32"),
            Scalar::F64(x) => write!(f, "{x:?}f64"),
        }
    }
}

/// An atomic operand: a constant or a variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SubExp {
    /// A scalar constant.
    Const(Scalar),
    /// A variable in scope.
    Var(Name),
}

impl SubExp {
    /// Shorthand for an `i64` constant (sizes, indices).
    pub fn i64(k: i64) -> SubExp {
        SubExp::Const(Scalar::I64(k))
    }

    /// The variable, if this is one.
    pub fn as_var(&self) -> Option<&Name> {
        match self {
            SubExp::Var(v) => Some(v),
            SubExp::Const(_) => None,
        }
    }
}

impl From<Name> for SubExp {
    fn from(v: Name) -> Self {
        SubExp::Var(v)
    }
}

impl From<Scalar> for SubExp {
    fn from(k: Scalar) -> Self {
        SubExp::Const(k)
    }
}

impl From<&Size> for SubExp {
    fn from(s: &Size) -> Self {
        match s {
            Size::Const(k) => SubExp::i64(*k),
            Size::Var(v) => SubExp::Var(v.clone()),
        }
    }
}

impl fmt::Display for SubExp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubExp::Const(k) => write!(f, "{k}"),
            SubExp::Var(v) => write!(f, "{v}"),
        }
    }
}

/// Binary operators. All are type-homogeneous: both operands and the result
/// share one scalar type, checked by `futhark-check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition. Associative and commutative; usable as a reduction operator.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication. Associative and commutative.
    Mul,
    /// Division (float division or integer quotient).
    Div,
    /// Remainder.
    Rem,
    /// Minimum. Associative and commutative.
    Min,
    /// Maximum. Associative and commutative.
    Max,
    /// `x` raised to the power `y` (floats only).
    Pow,
    /// Logical conjunction (bools only).
    And,
    /// Logical disjunction (bools only).
    Or,
    /// Two-argument arctangent (floats only).
    Atan2,
}

impl BinOp {
    /// Whether the operator is associative (and thus usable in `reduce`,
    /// `scan`, and `stream_red`).
    pub fn is_associative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max | BinOp::And | BinOp::Or
        )
    }

    /// The textual operator name used by the pretty-printer and parser.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Pow => "pow",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Atan2 => "atan2",
        }
    }
}

/// Comparison operators; result type is `bool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// The textual operator used by the pretty-printer and parser.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation (bools only).
    Not,
    /// Absolute value.
    Abs,
    /// Sign (-1, 0, or 1).
    Signum,
    /// Square root (floats only).
    Sqrt,
    /// Natural exponential (floats only).
    Exp,
    /// Natural logarithm (floats only).
    Log,
    /// Sine (floats only).
    Sin,
    /// Cosine (floats only).
    Cos,
    /// Hyperbolic tangent (floats only).
    Tanh,
}

impl UnOp {
    /// The textual operator name used by the pretty-printer and parser.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "!",
            UnOp::Abs => "abs",
            UnOp::Signum => "signum",
            UnOp::Sqrt => "sqrt",
            UnOp::Exp => "exp",
            UnOp::Log => "log",
            UnOp::Sin => "sin",
            UnOp::Cos => "cos",
            UnOp::Tanh => "tanh",
        }
    }
}

/// One element of a statement's pattern: a bound name with its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatElem {
    /// The bound name.
    pub name: Name,
    /// Its (shape-annotated) type.
    pub ty: Type,
}

impl PatElem {
    /// Convenience constructor.
    pub fn new(name: Name, ty: Type) -> Self {
        PatElem { name, ty }
    }
}

/// A function or lambda parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The parameter name.
    pub name: Name,
    /// Its type.
    pub ty: Type,
    /// Uniqueness attribute: whether the function takes ownership (`*`),
    /// allowing the body to consume this parameter (Section 3.1).
    pub unique: bool,
}

impl Param {
    /// A non-unique parameter.
    pub fn new(name: Name, ty: Type) -> Self {
        Param {
            name,
            ty,
            unique: false,
        }
    }

    /// A unique (consumable) parameter.
    pub fn unique(name: Name, ty: Type) -> Self {
        Param {
            name,
            ty,
            unique: true,
        }
    }
}

/// An anonymous function used as a SOAC operator.
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda {
    /// Parameters bound by the lambda.
    pub params: Vec<Param>,
    /// The body.
    pub body: Body,
    /// Result types, one per body result.
    pub ret: Vec<Type>,
}

/// The sequential loop form (Figure 1); semantically a tail-recursive
/// function (Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub enum LoopForm {
    /// `loop (pat = init) for i < bound do body`.
    For {
        /// Loop counter, bound in the body, of type `i64`.
        var: Name,
        /// Iteration bound.
        bound: SubExp,
    },
    /// `loop (pat = init) while cond do body`; `cond` is evaluated with the
    /// merge parameters in scope before each iteration.
    While(Body),
}

/// Second-order array combinators (Sections 2.1 and 4, Figure 8).
///
/// Each SOAC records the outer `width` of its inputs so transformation
/// passes need not look it up.
#[derive(Debug, Clone, PartialEq)]
pub enum Soac {
    /// `map f xs₁ … xsₖ`: apply `lam` elementwise across `arrs`.
    Map {
        /// Outer size of all inputs.
        width: SubExp,
        /// The mapped function; one parameter per input array.
        lam: Lambda,
        /// Input arrays, all of outer size `width`.
        arrs: Vec<Name>,
    },
    /// `reduce ⊕ 0⊕ xs`: fold with an associative operator.
    Reduce {
        /// Outer size of all inputs.
        width: SubExp,
        /// The reduction operator, of type `(a…, a…) -> a…`.
        lam: Lambda,
        /// Neutral elements, one per result.
        neutral: Vec<SubExp>,
        /// Input arrays.
        arrs: Vec<Name>,
        /// Whether the user asserts commutativity in addition to
        /// associativity (footnote 4 in the paper).
        comm: bool,
    },
    /// `scan ⊕ 0⊕ xs`: all prefix sums.
    Scan {
        /// Outer size of all inputs.
        width: SubExp,
        /// The (associative) operator.
        lam: Lambda,
        /// Neutral elements.
        neutral: Vec<SubExp>,
        /// Input arrays.
        arrs: Vec<Name>,
    },
    /// The fused `map ∘ reduce` composition the fusion engine produces
    /// (Section 4: “the technique centers on the redomap SOAC”).
    ///
    /// Semantics: `reduce red_lam neutral (map map_lam arrs)`, where
    /// `map_lam` may additionally produce mapped-out arrays beyond the
    /// reduced values.
    Redomap {
        /// Outer size of all inputs.
        width: SubExp,
        /// The reduction operator over the first `neutral.len()` results of
        /// `map_lam`.
        red_lam: Lambda,
        /// The mapped function.
        map_lam: Lambda,
        /// Neutral elements for the reduced results.
        neutral: Vec<SubExp>,
        /// Input arrays.
        arrs: Vec<Name>,
        /// Commutativity assertion for `red_lam`.
        comm: bool,
    },
    /// `stream_map f xss`: partition inputs into chunks, apply `lam` to each
    /// chunk, concatenate the per-chunk array results (Figure 8).
    ///
    /// `lam`'s parameters are `(chunk_size: i64, chunk₁, …, chunkₖ)` where
    /// each `chunkᵢ` has outer size `chunk_size`.
    StreamMap {
        /// Outer size of all inputs.
        width: SubExp,
        /// Per-chunk function.
        lam: Lambda,
        /// Input arrays.
        arrs: Vec<Name>,
    },
    /// `stream_red ⊕ f acc xss`: like `stream_map` but each chunk also
    /// produces accumulator values, combined across chunks with the
    /// associative `red_lam` (Figure 8).
    ///
    /// `fold_lam`'s parameters are `(chunk_size, acc₁…accₘ, chunk₁…chunkₖ)`
    /// and its first `accs.len()` results are the new accumulator values.
    StreamRed {
        /// Outer size of all inputs.
        width: SubExp,
        /// The cross-chunk (associative) reduction operator.
        red_lam: Lambda,
        /// The per-chunk fold function.
        fold_lam: Lambda,
        /// Initial accumulator values (also the neutral elements).
        accs: Vec<SubExp>,
        /// Input arrays.
        arrs: Vec<Name>,
    },
    /// `stream_seq f acc xss`: process chunks sequentially, threading the
    /// accumulator from chunk `i` to chunk `i+1` (Figure 8).
    StreamSeq {
        /// Outer size of all inputs.
        width: SubExp,
        /// The per-chunk function; parameters as in [`Soac::StreamRed`].
        lam: Lambda,
        /// Initial accumulator values.
        accs: Vec<SubExp>,
        /// Input arrays.
        arrs: Vec<Name>,
    },
    /// `scatter dest is vs`: bulk in-place update writing `vs[i]` at
    /// position `is[i]` of `dest`, consuming `dest`. Out-of-bounds indices
    /// are ignored. (Mentioned in footnote 4 as supported; included as the
    /// extension the evaluation's Pathfinder/HotSpot ports use.)
    Scatter {
        /// Number of index/value pairs.
        width: SubExp,
        /// Destination array (consumed).
        dest: Name,
        /// Indices (`i64`), outer size `width`.
        indices: Name,
        /// Values, outer size `width`.
        values: Name,
    },
}

impl Soac {
    /// The outer width of the SOAC's inputs.
    pub fn width(&self) -> &SubExp {
        match self {
            Soac::Map { width, .. }
            | Soac::Reduce { width, .. }
            | Soac::Scan { width, .. }
            | Soac::Redomap { width, .. }
            | Soac::StreamMap { width, .. }
            | Soac::StreamRed { width, .. }
            | Soac::StreamSeq { width, .. }
            | Soac::Scatter { width, .. } => width,
        }
    }

    /// The input arrays.
    pub fn input_arrays(&self) -> Vec<&Name> {
        match self {
            Soac::Map { arrs, .. }
            | Soac::Reduce { arrs, .. }
            | Soac::Scan { arrs, .. }
            | Soac::Redomap { arrs, .. }
            | Soac::StreamMap { arrs, .. }
            | Soac::StreamRed { arrs, .. }
            | Soac::StreamSeq { arrs, .. } => arrs.iter().collect(),
            Soac::Scatter {
                dest,
                indices,
                values,
                ..
            } => vec![dest, indices, values],
        }
    }

    /// A short human-readable tag for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Soac::Map { .. } => "map",
            Soac::Reduce { .. } => "reduce",
            Soac::Scan { .. } => "scan",
            Soac::Redomap { .. } => "redomap",
            Soac::StreamMap { .. } => "stream_map",
            Soac::StreamRed { .. } => "stream_red",
            Soac::StreamSeq { .. } => "stream_seq",
            Soac::Scatter { .. } => "scatter",
        }
    }
}

/// An expression (the right-hand side of a let binding, Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub enum Exp {
    /// A bare operand.
    SubExp(SubExp),
    /// A unary operation.
    UnOp(UnOp, SubExp),
    /// A binary operation.
    BinOp(BinOp, SubExp, SubExp),
    /// A comparison.
    Cmp(CmpOp, SubExp, SubExp),
    /// A scalar conversion (cast) to the given type.
    Convert(ScalarType, SubExp),
    /// `if c then e₁ else e₂`; both branches produce `ret`-typed results.
    If {
        /// Condition.
        cond: SubExp,
        /// Then-branch.
        then_body: Body,
        /// Else-branch.
        else_body: Body,
        /// Result types of both branches.
        ret: Vec<Type>,
    },
    /// A call of a named (top-level) function.
    Apply {
        /// The callee's name as declared in the program.
        func: String,
        /// Arguments.
        args: Vec<SubExp>,
    },
    /// `a[i₁, …, iₖ]`: indexing; fewer indices than the rank yields a slice.
    Index {
        /// The indexed array.
        array: Name,
        /// The indices (`i64`).
        indices: Vec<SubExp>,
    },
    /// `a with [i₁, …, iₖ] <- v`: in-place update, consuming `array`
    /// (Section 3).
    Update {
        /// The updated (consumed) array.
        array: Name,
        /// Element position.
        indices: Vec<SubExp>,
        /// New value (a scalar, or an array for bulk row updates).
        value: SubExp,
    },
    /// `iota n`: `[0, 1, …, n-1]` of type `[n]i64`.
    Iota(SubExp),
    /// `replicate n v`: `[v, …, v]` of outer size `n`.
    Replicate(SubExp, SubExp),
    /// `rearrange (k₀, …) a`: reorder dimensions by a static permutation.
    /// `transpose` is `rearrange (1,0,…)` (Section 5.1).
    Rearrange {
        /// The permutation; `perm.len()` equals the array rank.
        perm: Vec<usize>,
        /// The rearranged array.
        array: Name,
    },
    /// `reshape (d₁, …) a`: view `a` with a different (same-element-count)
    /// shape; used by flattening's curry/uncurry isomorphism (Section 2.1).
    Reshape {
        /// The new shape.
        shape: Vec<SubExp>,
        /// The reshaped array.
        array: Name,
    },
    /// `concat a₁ … aₖ`: concatenation along the outer dimension.
    Concat {
        /// The concatenated arrays.
        arrays: Vec<Name>,
    },
    /// An explicit deep copy, yielding a fresh (alias-free, hence uniquely
    /// owned) array.
    Copy(Name),
    /// A sequential loop (Figure 1); see [`LoopForm`].
    Loop {
        /// Merge parameters with their initial values.
        params: Vec<(Param, SubExp)>,
        /// For- or while-form.
        form: LoopForm,
        /// The body; its results become the next iteration's merge values.
        body: Body,
    },
    /// A second-order array combinator.
    Soac(Soac),
}

impl Exp {
    /// The nested bodies of this expression (branches, loop and lambda
    /// bodies), for generic traversal.
    pub fn inner_bodies(&self) -> Vec<&Body> {
        let mut out = Vec::new();
        match self {
            Exp::If {
                then_body,
                else_body,
                ..
            } => {
                out.push(then_body);
                out.push(else_body);
            }
            Exp::Loop { form, body, .. } => {
                if let LoopForm::While(cond) = form {
                    out.push(cond);
                }
                out.push(body);
            }
            Exp::Soac(soac) => match soac {
                Soac::Map { lam, .. }
                | Soac::Scan { lam, .. }
                | Soac::Reduce { lam, .. }
                | Soac::StreamMap { lam, .. }
                | Soac::StreamSeq { lam, .. } => out.push(&lam.body),
                Soac::Redomap {
                    red_lam, map_lam, ..
                } => {
                    out.push(&red_lam.body);
                    out.push(&map_lam.body);
                }
                Soac::StreamRed {
                    red_lam, fold_lam, ..
                } => {
                    out.push(&red_lam.body);
                    out.push(&fold_lam.body);
                }
                Soac::Scatter { .. } => {}
            },
            _ => {}
        }
        out
    }

    /// Mutable variant of [`Exp::inner_bodies`].
    pub fn inner_bodies_mut(&mut self) -> Vec<&mut Body> {
        let mut out = Vec::new();
        match self {
            Exp::If {
                then_body,
                else_body,
                ..
            } => {
                out.push(then_body);
                out.push(else_body);
            }
            Exp::Loop { form, body, .. } => {
                if let LoopForm::While(cond) = form {
                    out.push(cond);
                }
                out.push(body);
            }
            Exp::Soac(soac) => match soac {
                Soac::Map { lam, .. }
                | Soac::Scan { lam, .. }
                | Soac::Reduce { lam, .. }
                | Soac::StreamMap { lam, .. }
                | Soac::StreamSeq { lam, .. } => out.push(&mut lam.body),
                Soac::Redomap {
                    red_lam, map_lam, ..
                } => {
                    out.push(&mut red_lam.body);
                    out.push(&mut map_lam.body);
                }
                Soac::StreamRed {
                    red_lam, fold_lam, ..
                } => {
                    out.push(&mut red_lam.body);
                    out.push(&mut fold_lam.body);
                }
                Soac::Scatter { .. } => {}
            },
            _ => {}
        }
        out
    }

    /// Whether this expression is cheap and pure enough to duplicate or
    /// hoist freely (no arrays constructed, no control flow).
    pub fn is_scalar_cheap(&self) -> bool {
        matches!(
            self,
            Exp::SubExp(_)
                | Exp::UnOp(..)
                | Exp::BinOp(..)
                | Exp::Cmp(..)
                | Exp::Convert(..)
                | Exp::Index { .. }
        )
    }
}

/// One let binding: `let (p₁, …, pₙ) = e`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stm {
    /// The bound pattern.
    pub pat: Vec<PatElem>,
    /// The right-hand side.
    pub exp: Exp,
    /// Source provenance: which source lines this binding descends from.
    /// Empty for compiler-synthesised scaffolding until the fill pass runs.
    pub prov: Prov,
}

impl Stm {
    /// Convenience constructor (no provenance; see [`Stm::with_prov`]).
    pub fn new(pat: Vec<PatElem>, exp: Exp) -> Self {
        Stm {
            pat,
            exp,
            prov: Prov::none(),
        }
    }

    /// A single-binding statement.
    pub fn single(name: Name, ty: Type, exp: Exp) -> Self {
        Stm {
            pat: vec![PatElem::new(name, ty)],
            exp,
            prov: Prov::none(),
        }
    }

    /// Attaches source provenance (builder style).
    pub fn with_prov(mut self, prov: Prov) -> Self {
        self.prov = prov;
        self
    }
}

/// A sequence of bindings with a (possibly multi-valued) result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Body {
    /// The bindings, in order.
    pub stms: Vec<Stm>,
    /// The result operands.
    pub result: Vec<SubExp>,
}

impl Body {
    /// Convenience constructor.
    pub fn new(stms: Vec<Stm>, result: Vec<SubExp>) -> Self {
        Body { stms, result }
    }
}

/// A top-level function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunDef {
    /// The function's name.
    pub name: String,
    /// Parameters, each possibly with a uniqueness attribute.
    pub params: Vec<Param>,
    /// Return types, each possibly with a uniqueness attribute.
    pub ret: Vec<DeclType>,
    /// The body.
    pub body: Body,
}

/// A whole program: a set of functions, one of which is conventionally
/// called `main`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// The functions, in declaration order.
    pub functions: Vec<FunDef>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&FunDef> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The entry point (the function named `main`).
    pub fn main(&self) -> Option<&FunDef> {
        self.function("main")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NameSource;

    #[test]
    fn scalar_constants_compare_bitwise() {
        assert_eq!(Scalar::F32(f32::NAN), Scalar::F32(f32::NAN));
        assert_ne!(Scalar::F32(0.0), Scalar::F32(-0.0));
        assert_eq!(Scalar::I64(3).as_i64(), Some(3));
        assert_eq!(Scalar::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn zero_and_one_match_types() {
        for t in [
            ScalarType::I32,
            ScalarType::I64,
            ScalarType::F32,
            ScalarType::F64,
        ] {
            assert_eq!(Scalar::zero(t).scalar_type(), t);
            assert_eq!(Scalar::one(t).scalar_type(), t);
        }
    }

    #[test]
    fn associative_ops() {
        assert!(BinOp::Add.is_associative());
        assert!(BinOp::Min.is_associative());
        assert!(!BinOp::Sub.is_associative());
        assert!(!BinOp::Div.is_associative());
    }

    #[test]
    fn inner_bodies_of_if_and_loop() {
        let mut ns = NameSource::new();
        let body = Body::new(vec![], vec![SubExp::i64(0)]);
        let e = Exp::If {
            cond: SubExp::Const(Scalar::Bool(true)),
            then_body: body.clone(),
            else_body: body.clone(),
            ret: vec![Type::Scalar(ScalarType::I64)],
        };
        assert_eq!(e.inner_bodies().len(), 2);

        let i = ns.fresh("i");
        let l = Exp::Loop {
            params: vec![],
            form: LoopForm::For {
                var: i,
                bound: SubExp::i64(10),
            },
            body,
        };
        assert_eq!(l.inner_bodies().len(), 1);
    }

    #[test]
    fn soac_accessors() {
        let mut ns = NameSource::new();
        let xs = ns.fresh("xs");
        let p = ns.fresh("x");
        let lam = Lambda {
            params: vec![Param::new(p.clone(), Type::Scalar(ScalarType::I64))],
            body: Body::new(vec![], vec![SubExp::Var(p)]),
            ret: vec![Type::Scalar(ScalarType::I64)],
        };
        let soac = Soac::Map {
            width: SubExp::i64(4),
            lam,
            arrs: vec![xs.clone()],
        };
        assert_eq!(soac.width(), &SubExp::i64(4));
        assert_eq!(soac.input_arrays(), vec![&xs]);
        assert_eq!(soac.kind_name(), "map");
    }

    #[test]
    fn program_function_lookup() {
        let prog = Program {
            functions: vec![FunDef {
                name: "main".into(),
                params: vec![],
                ret: vec![],
                body: Body::default(),
            }],
        };
        assert!(prog.main().is_some());
        assert!(prog.function("nope").is_none());
    }
}
