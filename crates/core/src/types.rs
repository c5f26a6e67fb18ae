//! The monomorphic, shape-annotated type system of the paper's Figure 1.
//!
//! Array types carry their exact shape as a sequence of [`Size`]s, each
//! either a constant or a variable in scope (`[n][m]f32`). Parameter and
//! return types additionally carry a *uniqueness* attribute ([`DeclType`]),
//! written `*[n]i32`, which is the basis of the in-place update type system
//! of Section 3.

use crate::name::Name;
use std::fmt;

/// Primitive scalar types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// Booleans.
    Bool,
    /// 32-bit signed integers.
    I32,
    /// 64-bit signed integers (also used for sizes and indices).
    I64,
    /// 32-bit IEEE-754 floats.
    F32,
    /// 64-bit IEEE-754 floats.
    F64,
}

impl ScalarType {
    /// Whether this is one of the integer types.
    pub fn is_integral(self) -> bool {
        matches!(self, ScalarType::I32 | ScalarType::I64)
    }

    /// Whether this is one of the floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }

    /// Whether values of this type support arithmetic.
    pub fn is_numeric(self) -> bool {
        self.is_integral() || self.is_float()
    }

    /// Size of one element in bytes, as laid out in simulated GPU memory.
    pub fn byte_size(self) -> usize {
        match self {
            ScalarType::Bool => 1,
            ScalarType::I32 | ScalarType::F32 => 4,
            ScalarType::I64 | ScalarType::F64 => 8,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::Bool => "bool",
            ScalarType::I32 => "i32",
            ScalarType::I64 => "i64",
            ScalarType::F32 => "f32",
            ScalarType::F64 => "f64",
        };
        f.write_str(s)
    }
}

/// A symbolic array dimension: a constant or a scalar variable in scope.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Size {
    /// A statically known extent.
    Const(i64),
    /// The value of an `i64` variable in scope.
    Var(Name),
}

impl Size {
    /// Returns the size variable, if symbolic.
    pub fn as_var(&self) -> Option<&Name> {
        match self {
            Size::Const(_) => None,
            Size::Var(v) => Some(v),
        }
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Size::Const(k) => write!(f, "{k}"),
            Size::Var(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Size {
    fn from(k: i64) -> Self {
        Size::Const(k)
    }
}

impl From<Name> for Size {
    fn from(v: Name) -> Self {
        Size::Var(v)
    }
}

/// A regular multi-dimensional array type with an exact symbolic shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayType {
    /// Element type.
    pub elem: ScalarType,
    /// Outermost-first dimensions; always non-empty.
    pub dims: Vec<Size>,
}

impl ArrayType {
    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The type obtained by indexing away the outermost dimension.
    pub fn row_type(&self) -> Type {
        if self.dims.len() == 1 {
            Type::Scalar(self.elem)
        } else {
            Type::Array(ArrayType {
                elem: self.elem,
                dims: self.dims[1..].to_vec(),
            })
        }
    }

    /// The type with an extra outermost dimension of extent `n`.
    pub fn with_outer(&self, n: Size) -> ArrayType {
        let mut dims = Vec::with_capacity(self.dims.len() + 1);
        dims.push(n);
        dims.extend(self.dims.iter().cloned());
        ArrayType {
            elem: self.elem,
            dims,
        }
    }
}

impl fmt::Display for ArrayType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.dims {
            write!(f, "[{d}]")?;
        }
        write!(f, "{}", self.elem)
    }
}

/// The type of a value: a scalar or a regular array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A primitive scalar.
    Scalar(ScalarType),
    /// A regular multi-dimensional array.
    Array(ArrayType),
}

impl Type {
    /// Builds an array type from element type and dimensions. With no
    /// dimensions, yields the scalar type itself.
    pub fn array_of(elem: ScalarType, dims: Vec<Size>) -> Type {
        if dims.is_empty() {
            Type::Scalar(elem)
        } else {
            Type::Array(ArrayType { elem, dims })
        }
    }

    /// The underlying scalar/element type.
    pub fn elem(&self) -> ScalarType {
        match self {
            Type::Scalar(s) => *s,
            Type::Array(a) => a.elem,
        }
    }

    /// Number of array dimensions (0 for scalars).
    pub fn rank(&self) -> usize {
        match self {
            Type::Scalar(_) => 0,
            Type::Array(a) => a.rank(),
        }
    }

    /// Whether this is a scalar type.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Scalar(_))
    }

    /// The array type, if this is an array.
    pub fn as_array(&self) -> Option<&ArrayType> {
        match self {
            Type::Scalar(_) => None,
            Type::Array(a) => Some(a),
        }
    }

    /// The type after indexing with `n` indices.
    ///
    /// Indexing a rank-`r` array with `n < r` indices yields a slice
    /// (A<span>LIAS</span>-S<span>LICE</span>A<span>RRAY</span> in Figure 5);
    /// with `n == r` indices it yields a scalar.
    pub fn index_type(&self, n: usize) -> Option<Type> {
        match self {
            Type::Scalar(_) => {
                if n == 0 {
                    Some(self.clone())
                } else {
                    None
                }
            }
            Type::Array(a) => {
                if n > a.rank() {
                    None
                } else {
                    Some(Type::array_of(a.elem, a.dims[n..].to_vec()))
                }
            }
        }
    }

    /// The outermost dimension, if any.
    pub fn outer_dim(&self) -> Option<&Size> {
        self.as_array().and_then(|a| a.dims.first())
    }

    /// Structural equality ignoring the exact identity of symbolic sizes.
    ///
    /// Used where the checker cannot prove two symbolic sizes equal and
    /// falls back to a dynamically checked postcondition, as described in
    /// Section 2.2.
    pub fn eq_modulo_sizes(&self, other: &Type) -> bool {
        match (self, other) {
            (Type::Scalar(a), Type::Scalar(b)) => a == b,
            (Type::Array(a), Type::Array(b)) => a.elem == b.elem && a.rank() == b.rank(),
            _ => false,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Array(a) => write!(f, "{a}"),
        }
    }
}

impl From<ScalarType> for Type {
    fn from(s: ScalarType) -> Self {
        Type::Scalar(s)
    }
}

/// A type with a uniqueness attribute, used for function parameters and
/// return types (`*[n]i32` in the paper's concrete syntax).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeclType {
    /// The underlying type.
    pub ty: Type,
    /// Whether the value is unique (`*`): ownership is transferred and the
    /// value may be consumed by in-place updates.
    pub unique: bool,
}

impl DeclType {
    /// A non-unique declaration of the given type.
    pub fn nonunique(ty: Type) -> Self {
        DeclType { ty, unique: false }
    }

    /// A unique declaration of the given type.
    pub fn unique(ty: Type) -> Self {
        DeclType { ty, unique: true }
    }
}

impl fmt::Display for DeclType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unique {
            write!(f, "*")?;
        }
        write!(f, "{}", self.ty)
    }
}

impl From<Type> for DeclType {
    fn from(ty: Type) -> Self {
        DeclType::nonunique(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NameSource;

    #[test]
    fn row_type_peels_one_dimension() {
        let mut ns = NameSource::new();
        let n = ns.fresh("n");
        let m = ns.fresh("m");
        let t = ArrayType {
            elem: ScalarType::F32,
            dims: vec![Size::Var(n), Size::Var(m)],
        };
        let row = t.row_type();
        assert_eq!(row.rank(), 1);
        assert_eq!(row.elem(), ScalarType::F32);
        assert_eq!(row.index_type(1), Some(Type::Scalar(ScalarType::F32)));
    }

    #[test]
    fn index_type_produces_slices_and_scalars() {
        let t = Type::array_of(
            ScalarType::I32,
            vec![Size::Const(4), Size::Const(5), Size::Const(6)],
        );
        assert_eq!(t.index_type(0), Some(t.clone()));
        assert_eq!(
            t.index_type(2),
            Some(Type::array_of(ScalarType::I32, vec![Size::Const(6)]))
        );
        assert_eq!(t.index_type(3), Some(Type::Scalar(ScalarType::I32)));
        assert_eq!(t.index_type(4), None);
    }

    #[test]
    fn display_matches_paper_syntax() {
        let mut ns = NameSource::new();
        let n = ns.fresh("n");
        let t = Type::array_of(ScalarType::F32, vec![Size::Var(n.clone()), Size::Const(3)]);
        assert_eq!(t.to_string(), format!("[{n}][3]f32"));
        assert_eq!(DeclType::unique(t).to_string(), format!("*[{n}][3]f32"));
    }

    #[test]
    fn eq_modulo_sizes_ignores_size_identity() {
        let mut ns = NameSource::new();
        let a = Type::array_of(ScalarType::F32, vec![Size::Var(ns.fresh("n"))]);
        let b = Type::array_of(ScalarType::F32, vec![Size::Const(10)]);
        assert!(a.eq_modulo_sizes(&b));
        let c = Type::array_of(ScalarType::F64, vec![Size::Const(10)]);
        assert!(!a.eq_modulo_sizes(&c));
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(ScalarType::Bool.byte_size(), 1);
        assert_eq!(ScalarType::I32.byte_size(), 4);
        assert_eq!(ScalarType::F64.byte_size(), 8);
    }

    #[test]
    fn with_outer_prepends_dimension() {
        let t = ArrayType {
            elem: ScalarType::I64,
            dims: vec![Size::Const(2)],
        };
        let t2 = t.with_outer(Size::Const(9));
        assert_eq!(t2.dims, vec![Size::Const(9), Size::Const(2)]);
    }
}
