//! The surface abstract syntax tree.
//!
//! Unlike the core IR, surface expressions nest freely; the elaborator
//! (`crate::elab`) performs the desugaring into A-normal form that the
//! paper's Figure 3 pipeline calls "Desugaring", while also computing types.

use futhark_core::ScalarType;

/// A surface binary operator (arithmetic, comparison, or logical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `min`
    Min,
    /// `max`
    Max,
    /// `pow`
    Pow,
    /// `atan2`
    Atan2,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A surface unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UUnOp {
    /// `-e`
    Neg,
    /// `!e`
    Not,
}

/// A surface array dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum USize {
    /// Constant extent.
    Const(i64),
    /// A named size variable.
    Var(String),
}

/// A surface type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UType {
    /// A scalar.
    Scalar(ScalarType),
    /// An array `[d₁]…[dₖ]t`.
    Array(Vec<USize>, ScalarType),
}

/// A surface type with a uniqueness attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UDeclType {
    /// Whether marked unique (`*`).
    pub unique: bool,
    /// The type proper.
    pub ty: UType,
}

/// One element of a let-binding pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct UPatElem {
    /// The bound name.
    pub name: String,
    /// Optional annotation; inferred from the right-hand side if absent.
    pub ty: Option<UType>,
}

/// A surface lambda.
#[derive(Debug, Clone, PartialEq)]
pub struct ULambda {
    /// Parameters; annotations may be omitted in operator positions, where
    /// the elaborator fills them in from the SOAC's input types.
    pub params: Vec<(String, Option<UType>)>,
    /// Optional return types (inferred from the body if absent).
    pub ret: Option<Vec<UType>>,
    /// The body expression.
    pub body: Box<UExp>,
}

/// The loop form.
#[derive(Debug, Clone, PartialEq)]
pub enum ULoopForm {
    /// `for i < bound do`.
    For(String, Box<UExp>),
    /// `while cond do`.
    While(Box<UExp>),
}

/// A surface SOAC application.
#[derive(Debug, Clone, PartialEq)]
pub enum USoac {
    /// `map f xs…`
    Map {
        /// The operator (lambda or section).
        op: Box<UExp>,
        /// The input arrays.
        arrs: Vec<UExp>,
    },
    /// `reduce ⊕ e xs…` / `reduce_comm …`
    Reduce {
        /// Commutativity assertion.
        comm: bool,
        /// The operator.
        op: Box<UExp>,
        /// The neutral element(s); a tuple for multi-value reductions.
        neutral: Box<UExp>,
        /// The input arrays.
        arrs: Vec<UExp>,
    },
    /// `scan ⊕ e xs…`
    Scan {
        /// The operator.
        op: Box<UExp>,
        /// The neutral element(s).
        neutral: Box<UExp>,
        /// The input arrays.
        arrs: Vec<UExp>,
    },
    /// `redomap ⊕ f e xs…` (mostly for pretty-printer round trips).
    Redomap {
        /// Commutativity assertion.
        comm: bool,
        /// The reduction operator.
        red: Box<UExp>,
        /// The map operator.
        map: Box<UExp>,
        /// The neutral element(s).
        neutral: Box<UExp>,
        /// The input arrays.
        arrs: Vec<UExp>,
    },
    /// `stream_map f xs…`
    StreamMap {
        /// The chunk operator (first parameter is the chunk size).
        op: Box<UExp>,
        /// The input arrays.
        arrs: Vec<UExp>,
    },
    /// `stream_red ⊕ f accs xs…`
    StreamRed {
        /// The cross-chunk reduction operator.
        red: Box<UExp>,
        /// The per-chunk fold.
        fold: Box<UExp>,
        /// Initial accumulator(s).
        accs: Box<UExp>,
        /// The input arrays.
        arrs: Vec<UExp>,
    },
    /// `stream_seq f accs xs…`
    StreamSeq {
        /// The per-chunk fold.
        fold: Box<UExp>,
        /// Initial accumulator(s).
        accs: Box<UExp>,
        /// The input arrays.
        arrs: Vec<UExp>,
    },
    /// `filter p xs`: keep the elements satisfying `p`, in order. Desugared
    /// by the elaborator into flags + scan + scatter (there is no core
    /// `filter` node), so the result's outer size is a dynamically computed
    /// binding.
    Filter {
        /// The predicate (lambda or section), of type `t -> bool`.
        op: Box<UExp>,
        /// The input array.
        arr: Box<UExp>,
    },
    /// `scatter dest is vs`
    Scatter {
        /// Destination (consumed).
        dest: Box<UExp>,
        /// Indices.
        indices: Box<UExp>,
        /// Values.
        values: Box<UExp>,
    },
}

/// A surface expression.
#[derive(Debug, Clone, PartialEq)]
pub enum UExp {
    /// A variable reference.
    Var(String),
    /// An integer literal with optional suffix.
    IntLit(i64, Option<ScalarType>),
    /// A float literal with optional suffix.
    FloatLit(f64, Option<ScalarType>),
    /// A boolean literal.
    BoolLit(bool),
    /// A tuple (only meaningful in multi-value positions).
    Tuple(Vec<UExp>),
    /// A binary operation.
    BinOp(UBinOp, Box<UExp>, Box<UExp>),
    /// A unary operation.
    UnOp(UUnOp, Box<UExp>),
    /// Prefix application `f a b …` of a function or builtin.
    Apply(String, Vec<UExp>),
    /// `if c then e₁ else e₂`.
    If(Box<UExp>, Box<UExp>, Box<UExp>),
    /// `let pat = rhs in body` (the `in` may be elided before another let).
    Let {
        /// The bound pattern.
        pat: Vec<UPatElem>,
        /// Right-hand side.
        rhs: Box<UExp>,
        /// Continuation.
        body: Box<UExp>,
    },
    /// `let x[i…] = v in body` — sugar for `let x = x with [i…] <- v`.
    LetUpdate {
        /// The updated array variable.
        name: String,
        /// Indices.
        indices: Vec<UExp>,
        /// New value.
        value: Box<UExp>,
        /// Continuation.
        body: Box<UExp>,
    },
    /// `a[i…]` indexing.
    Index(String, Vec<UExp>),
    /// `a with [i…] <- v` (non-binding form).
    With {
        /// The consumed array.
        array: String,
        /// Indices.
        indices: Vec<UExp>,
        /// New value.
        value: Box<UExp>,
    },
    /// A loop.
    Loop {
        /// Merge parameters: name, optional declared type, initial value.
        params: Vec<(String, Option<UDeclType>, UExp)>,
        /// For/while form.
        form: ULoopForm,
        /// The loop body.
        body: Box<UExp>,
    },
    /// A lambda (only valid in operator positions).
    Lambda(ULambda),
    /// An operator section: `(+)`, `(+e)`, or `(e+)`.
    Section(UBinOp, Option<Box<UExp>>, Option<Box<UExp>>),
    /// A SOAC.
    Soac(USoac),
    /// `rearrange (k…) a` with a static permutation.
    Rearrange(Vec<usize>, Box<UExp>),
    /// `reshape (d…) a`.
    Reshape(Vec<UExp>, Box<UExp>),
    /// A source-position marker: the wrapped expression starts on the given
    /// 1-based line. Inserted by the parser at binding sites (function
    /// bodies, `let`s, lambda bodies); semantically transparent.
    At(u32, Box<UExp>),
}

/// A surface function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct UFunDef {
    /// Function name.
    pub name: String,
    /// Parameters: name, uniqueness-attributed type.
    pub params: Vec<(String, UDeclType)>,
    /// Return types.
    pub ret: Vec<UDeclType>,
    /// Body.
    pub body: UExp,
}

/// A surface program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UProgram {
    /// The functions in declaration order.
    pub functions: Vec<UFunDef>,
}
