//! Runtime values: scalars and regular multi-dimensional arrays.
//!
//! Arrays are stored flat in row-major order with a typed [`Buffer`], the
//! same layout the GPU simulator uses for global memory, so the interpreter
//! and simulator results are directly comparable.

use crate::ir::Scalar;
use crate::types::ScalarType;
use std::fmt;

/// A flat, homogeneously typed data buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    /// Booleans.
    Bool(Vec<bool>),
    /// 32-bit integers.
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
}

impl Buffer {
    /// An all-zero buffer of `n` elements of type `t`.
    pub fn zeros(t: ScalarType, n: usize) -> Buffer {
        match t {
            ScalarType::Bool => Buffer::Bool(vec![false; n]),
            ScalarType::I32 => Buffer::I32(vec![0; n]),
            ScalarType::I64 => Buffer::I64(vec![0; n]),
            ScalarType::F32 => Buffer::F32(vec![0.0; n]),
            ScalarType::F64 => Buffer::F64(vec![0.0; n]),
        }
    }

    /// The element type.
    pub fn elem_type(&self) -> ScalarType {
        match self {
            Buffer::Bool(_) => ScalarType::Bool,
            Buffer::I32(_) => ScalarType::I32,
            Buffer::I64(_) => ScalarType::I64,
            Buffer::F32(_) => ScalarType::F32,
            Buffer::F64(_) => ScalarType::F64,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Buffer::Bool(v) => v.len(),
            Buffer::I32(v) => v.len(),
            Buffer::I64(v) => v.len(),
            Buffer::F32(v) => v.len(),
            Buffer::F64(v) => v.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads element `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> Scalar {
        match self {
            Buffer::Bool(v) => Scalar::Bool(v[i]),
            Buffer::I32(v) => Scalar::I32(v[i]),
            Buffer::I64(v) => Scalar::I64(v[i]),
            Buffer::F32(v) => Scalar::F32(v[i]),
            Buffer::F64(v) => Scalar::F64(v[i]),
        }
    }

    /// Writes element `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or the scalar's type mismatches.
    pub fn set(&mut self, i: usize, s: Scalar) {
        match (self, s) {
            (Buffer::Bool(v), Scalar::Bool(b)) => v[i] = b,
            (Buffer::I32(v), Scalar::I32(k)) => v[i] = k,
            (Buffer::I64(v), Scalar::I64(k)) => v[i] = k,
            (Buffer::F32(v), Scalar::F32(x)) => v[i] = x,
            (Buffer::F64(v), Scalar::F64(x)) => v[i] = x,
            (b, s) => panic!(
                "buffer type mismatch: writing {:?} into {:?} buffer",
                s.scalar_type(),
                b.elem_type()
            ),
        }
    }

    /// Copies `count` elements from `src[src_at..]` into `self[dst_at..]`.
    ///
    /// # Panics
    /// Panics on range or type mismatch.
    pub fn copy_from(&mut self, dst_at: usize, src: &Buffer, src_at: usize, count: usize) {
        match (self, src) {
            (Buffer::Bool(d), Buffer::Bool(s)) => {
                d[dst_at..dst_at + count].copy_from_slice(&s[src_at..src_at + count])
            }
            (Buffer::I32(d), Buffer::I32(s)) => {
                d[dst_at..dst_at + count].copy_from_slice(&s[src_at..src_at + count])
            }
            (Buffer::I64(d), Buffer::I64(s)) => {
                d[dst_at..dst_at + count].copy_from_slice(&s[src_at..src_at + count])
            }
            (Buffer::F32(d), Buffer::F32(s)) => {
                d[dst_at..dst_at + count].copy_from_slice(&s[src_at..src_at + count])
            }
            (Buffer::F64(d), Buffer::F64(s)) => {
                d[dst_at..dst_at + count].copy_from_slice(&s[src_at..src_at + count])
            }
            (d, s) => panic!(
                "buffer type mismatch in copy: {:?} from {:?}",
                d.elem_type(),
                s.elem_type()
            ),
        }
    }

    /// Collects scalars into a buffer of type `t`.
    ///
    /// # Panics
    /// Panics if any scalar has a different type than `t`.
    pub fn from_scalars<I: IntoIterator<Item = Scalar>>(t: ScalarType, items: I) -> Buffer {
        let mut buf = Buffer::zeros(t, 0);
        match &mut buf {
            Buffer::Bool(v) => {
                for s in items {
                    v.push(s.as_bool().expect("bool scalar"));
                }
            }
            Buffer::I32(v) => {
                for s in items {
                    match s {
                        Scalar::I32(k) => v.push(k),
                        other => panic!("expected i32, got {other}"),
                    }
                }
            }
            Buffer::I64(v) => {
                for s in items {
                    match s {
                        Scalar::I64(k) => v.push(k),
                        other => panic!("expected i64, got {other}"),
                    }
                }
            }
            Buffer::F32(v) => {
                for s in items {
                    match s {
                        Scalar::F32(x) => v.push(x),
                        other => panic!("expected f32, got {other}"),
                    }
                }
            }
            Buffer::F64(v) => {
                for s in items {
                    match s {
                        Scalar::F64(x) => v.push(x),
                        other => panic!("expected f64, got {other}"),
                    }
                }
            }
        }
        buf
    }
}

/// A regular multi-dimensional array value with row-major flat storage.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayVal {
    /// The shape, outermost first. Never empty.
    pub shape: Vec<usize>,
    /// The flat data; `data.len() == shape.iter().product()`.
    pub data: Buffer,
}

impl ArrayVal {
    /// Creates an array, checking that data length matches the shape.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.iter().product()`.
    pub fn new(shape: Vec<usize>, data: Buffer) -> ArrayVal {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "array data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        ArrayVal { shape, data }
    }

    /// An all-zero array.
    pub fn zeros(t: ScalarType, shape: Vec<usize>) -> ArrayVal {
        let n = shape.iter().product();
        ArrayVal {
            shape,
            data: Buffer::zeros(t, n),
        }
    }

    /// Builds a rank-1 array from `i64` values.
    pub fn from_i64s(v: Vec<i64>) -> ArrayVal {
        ArrayVal {
            shape: vec![v.len()],
            data: Buffer::I64(v),
        }
    }

    /// Builds a rank-1 array from `f32` values.
    pub fn from_f32s(v: Vec<f32>) -> ArrayVal {
        ArrayVal {
            shape: vec![v.len()],
            data: Buffer::F32(v),
        }
    }

    /// The element type.
    pub fn elem_type(&self) -> ScalarType {
        self.data.elem_type()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of elements in one outermost row.
    pub fn row_elems(&self) -> usize {
        self.shape[1..].iter().product()
    }

    /// Converts multi-dimensional indices to a flat offset, checking bounds.
    pub fn flat_index(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() > self.shape.len() {
            return None;
        }
        let mut off = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            if i < 0 || i as usize >= self.shape[d] {
                return None;
            }
            off = off * self.shape[d] + i as usize;
        }
        // Scale by the remaining (unindexed) dimensions.
        let rest: usize = self.shape[idx.len()..].iter().product();
        Some(off * rest)
    }

    /// Reads a scalar at fully specified indices.
    pub fn index_scalar(&self, idx: &[i64]) -> Option<Scalar> {
        if idx.len() != self.shape.len() {
            return None;
        }
        self.flat_index(idx).map(|off| self.data.get(off))
    }

    /// Takes a slice with a prefix of indices, producing the sub-array.
    pub fn index_slice(&self, idx: &[i64]) -> Option<ArrayVal> {
        if idx.len() >= self.shape.len() {
            return None;
        }
        let off = self.flat_index(idx)?;
        let shape: Vec<usize> = self.shape[idx.len()..].to_vec();
        let count: usize = shape.iter().product();
        let mut data = Buffer::zeros(self.elem_type(), count);
        data.copy_from(0, &self.data, off, count);
        Some(ArrayVal { shape, data })
    }

    /// Writes a scalar at fully specified indices, in place.
    pub fn update_scalar(&mut self, idx: &[i64], v: Scalar) -> bool {
        if idx.len() != self.shape.len() {
            return false;
        }
        match self.flat_index(idx) {
            Some(off) => {
                self.data.set(off, v);
                true
            }
            None => false,
        }
    }

    /// Writes a whole sub-array at a prefix of indices, in place (the bulk
    /// update generalisation of footnote 3).
    pub fn update_slice(&mut self, idx: &[i64], v: &ArrayVal) -> bool {
        if idx.len() >= self.shape.len() || self.shape[idx.len()..] != v.shape[..] {
            return false;
        }
        match self.flat_index(idx) {
            Some(off) => {
                self.data.copy_from(off, &v.data, 0, v.data.len());
                true
            }
            None => false,
        }
    }

    /// Reorders dimensions by the given permutation (`rearrange`): a typed
    /// strided copy, one match on the element type and then an odometer
    /// over the permuted shape. Each step of the odometer copies one plane
    /// spanned by the output's innermost dimension and the dimension that
    /// walks the source contiguously, in square tiles, so both sides are
    /// read and written in short contiguous runs.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn rearrange(&self, perm: &[usize]) -> ArrayVal {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        let shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        // Source strides; stepping new dimension d steps source dimension
        // perm[d].
        let mut strides = vec![1usize; self.rank()];
        for d in (0..self.rank().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * self.shape[d + 1];
        }
        let step: Vec<usize> = perm.iter().map(|&p| strides[p]).collect();
        let data = match &self.data {
            Buffer::Bool(v) => Buffer::Bool(permute(v, &shape, &step)),
            Buffer::I32(v) => Buffer::I32(permute(v, &shape, &step)),
            Buffer::I64(v) => Buffer::I64(permute(v, &shape, &step)),
            Buffer::F32(v) => Buffer::F32(permute(v, &shape, &step)),
            Buffer::F64(v) => Buffer::F64(permute(v, &shape, &step)),
        };
        ArrayVal { shape, data }
    }

    /// Views the data with a new shape of the same element count.
    pub fn reshape(&self, shape: Vec<usize>) -> Option<ArrayVal> {
        if shape.iter().product::<usize>() != self.data.len() {
            return None;
        }
        Some(ArrayVal {
            shape,
            data: self.data.clone(),
        })
    }

    /// Concatenates along the outer dimension.
    ///
    /// # Panics
    /// Panics if inner shapes or element types disagree, or `parts` is empty.
    pub fn concat(parts: &[&ArrayVal]) -> ArrayVal {
        assert!(!parts.is_empty(), "concat of zero arrays");
        let inner = &parts[0].shape[1..];
        let t = parts[0].elem_type();
        let mut outer = 0usize;
        for p in parts {
            assert_eq!(&p.shape[1..], inner, "concat inner shape mismatch");
            assert_eq!(p.elem_type(), t, "concat element type mismatch");
            outer += p.shape[0];
        }
        let mut shape = vec![outer];
        shape.extend_from_slice(inner);
        let total: usize = shape.iter().product();
        let mut data = Buffer::zeros(t, total);
        let mut at = 0;
        for p in parts {
            data.copy_from(at, &p.data, 0, p.data.len());
            at += p.data.len();
        }
        ArrayVal { shape, data }
    }
}

/// The elements of `src` in the row-major order of `shape`, where stepping
/// dimension `d` of `shape` steps `step[d]` elements of `src`.
fn permute<T: Copy>(src: &[T], shape: &[usize], step: &[usize]) -> Vec<T> {
    const TILE: usize = 32;
    let (Some(&fill), Some(o)) = (src.first(), shape.len().checked_sub(1)) else {
        return src.to_vec();
    };
    // The plane: output dimension `o` is contiguous in the output, and
    // dimension `c` (if any has extent > 1) in the source.
    let c = (0..o).find(|&d| step[d] == 1 && shape[d] > 1).unwrap_or(o);
    let mut ostep = vec![1usize; shape.len()];
    for d in (0..o).rev() {
        ostep[d] = ostep[d + 1] * shape[d + 1];
    }
    let rest: Vec<usize> = (0..o).filter(|&d| d != c).collect();
    let mut idx = vec![0usize; shape.len()];
    let mut out = vec![fill; src.len()];
    loop {
        let at = |steps: &[usize]| rest.iter().map(|&d| idx[d] * steps[d]).sum::<usize>();
        let (s0, o0) = (at(step), at(&ostep));
        if c == o {
            for j in 0..shape[o] {
                out[o0 + j] = src[s0 + j * step[o]];
            }
        } else {
            for i0 in (0..shape[c]).step_by(TILE) {
                for j0 in (0..shape[o]).step_by(TILE) {
                    for i in i0..(i0 + TILE).min(shape[c]) {
                        let (si, oi) = (s0 + i, o0 + i * ostep[c]);
                        for j in j0..(j0 + TILE).min(shape[o]) {
                            out[oi + j] = src[si + j * step[o]];
                        }
                    }
                }
            }
        }
        // Advance the odometer over the other dimensions.
        let Some(&d) = rest.iter().rev().find(|&&d| idx[d] + 1 < shape[d]) else {
            return out;
        };
        idx[d] += 1;
        for &e in rest.iter().filter(|&&e| e > d) {
            idx[e] = 0;
        }
    }
}

/// A runtime value: a scalar or an array.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar value.
    Scalar(Scalar),
    /// An array value.
    Array(ArrayVal),
}

impl Value {
    /// Shorthand for an `i64` scalar.
    pub fn i64(k: i64) -> Value {
        Value::Scalar(Scalar::I64(k))
    }

    /// Shorthand for an `f32` scalar.
    pub fn f32(x: f32) -> Value {
        Value::Scalar(Scalar::F32(x))
    }

    /// The scalar, if this is one.
    pub fn as_scalar(&self) -> Option<Scalar> {
        match self {
            Value::Scalar(s) => Some(*s),
            Value::Array(_) => None,
        }
    }

    /// The array, if this is one.
    pub fn as_array(&self) -> Option<&ArrayVal> {
        match self {
            Value::Scalar(_) => None,
            Value::Array(a) => Some(a),
        }
    }

    /// Exact bitwise equality: shapes, element types, and every element
    /// identical, with floats compared by bit pattern (so `NaN == NaN` and
    /// `0.0 != -0.0`). This is the differential-fuzzing oracle's notion of
    /// agreement: any optimisation configuration that changes even one bit
    /// of output is a bug by construction.
    pub fn bit_eq(&self, other: &Value) -> bool {
        fn scalar_bits(a: &Scalar, b: &Scalar) -> bool {
            match (a, b) {
                (Scalar::Bool(x), Scalar::Bool(y)) => x == y,
                (Scalar::I32(x), Scalar::I32(y)) => x == y,
                (Scalar::I64(x), Scalar::I64(y)) => x == y,
                (Scalar::F32(x), Scalar::F32(y)) => x.to_bits() == y.to_bits(),
                (Scalar::F64(x), Scalar::F64(y)) => x.to_bits() == y.to_bits(),
                _ => false,
            }
        }
        match (self, other) {
            (Value::Scalar(a), Value::Scalar(b)) => scalar_bits(a, b),
            (Value::Array(a), Value::Array(b)) => {
                a.shape == b.shape
                    && a.elem_type() == b.elem_type()
                    && (0..a.data.len()).all(|i| scalar_bits(&a.data.get(i), &b.data.get(i)))
            }
            _ => false,
        }
    }

    /// The first element position (row-major) where two values differ under
    /// [`Value::bit_eq`], for diagnostics; `None` when equal or when the
    /// difference is structural (shape or type).
    pub fn first_mismatch(&self, other: &Value) -> Option<usize> {
        if let (Value::Array(a), Value::Array(b)) = (self, other) {
            if a.shape == b.shape && a.elem_type() == b.elem_type() {
                return (0..a.data.len()).find(|&i| {
                    !Value::Scalar(a.data.get(i)).bit_eq(&Value::Scalar(b.data.get(i)))
                });
            }
        }
        None
    }

    /// Approximate equality: arrays/scalars equal up to a relative float
    /// tolerance. Used to compare interpreter and simulator outputs.
    pub fn approx_eq(&self, other: &Value, tol: f64) -> bool {
        fn close(a: f64, b: f64, tol: f64) -> bool {
            if a == b {
                return true;
            }
            if a.is_nan() && b.is_nan() {
                return true;
            }
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        }
        fn scalar_close(a: &Scalar, b: &Scalar, tol: f64) -> bool {
            match (a, b) {
                (Scalar::Bool(x), Scalar::Bool(y)) => x == y,
                (Scalar::I32(x), Scalar::I32(y)) => x == y,
                (Scalar::I64(x), Scalar::I64(y)) => x == y,
                (Scalar::F32(x), Scalar::F32(y)) => close(*x as f64, *y as f64, tol),
                (Scalar::F64(x), Scalar::F64(y)) => close(*x, *y, tol),
                _ => false,
            }
        }
        match (self, other) {
            (Value::Scalar(a), Value::Scalar(b)) => scalar_close(a, b, tol),
            (Value::Array(a), Value::Array(b)) => {
                a.shape == b.shape
                    && a.elem_type() == b.elem_type()
                    && (0..a.data.len()).all(|i| scalar_close(&a.data.get(i), &b.data.get(i), tol))
            }
            _ => false,
        }
    }
}

impl From<Scalar> for Value {
    fn from(s: Scalar) -> Self {
        Value::Scalar(s)
    }
}

impl From<ArrayVal> for Value {
    fn from(a: ArrayVal) -> Self {
        Value::Array(a)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Scalar(s) => write!(f, "{s}"),
            Value::Array(a) => {
                // Print nested brackets for low ranks, else a summary.
                if a.data.len() > 64 {
                    write!(
                        f,
                        "<{}{}>",
                        a.shape.iter().map(|d| format!("[{d}]")).collect::<String>(),
                        a.elem_type()
                    )
                } else {
                    fmt_array(f, a, &mut 0, 0)
                }
            }
        }
    }
}

fn fmt_array(
    f: &mut fmt::Formatter<'_>,
    a: &ArrayVal,
    offset: &mut usize,
    dim: usize,
) -> fmt::Result {
    write!(f, "[")?;
    let extent = a.shape[dim];
    for i in 0..extent {
        if i > 0 {
            write!(f, ", ")?;
        }
        if dim + 1 == a.shape.len() {
            write!(f, "{}", a.data.get(*offset))?;
            *offset += 1;
        } else {
            fmt_array(f, a, offset, dim + 1)?;
        }
    }
    write!(f, "]")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-element `rearrange` the strided copy replaced, kept as its
    /// oracle: a div/mod per dimension and a boxed `Scalar` per element.
    fn rearrange_per_element(a: &ArrayVal, perm: &[usize]) -> ArrayVal {
        let new_shape: Vec<usize> = perm.iter().map(|&p| a.shape[p]).collect();
        let n = a.data.len();
        let mut out = Buffer::zeros(a.elem_type(), n);
        let mut strides = vec![1usize; a.rank()];
        for d in (0..a.rank().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * a.shape[d + 1];
        }
        let mut idx = vec![0usize; a.rank()];
        for flat_new in 0..n {
            let mut rem = flat_new;
            for (d, &extent) in new_shape.iter().enumerate().rev() {
                idx[d] = rem % extent;
                rem /= extent;
            }
            let mut src = 0usize;
            for (d, &p) in perm.iter().enumerate() {
                src += idx[d] * strides[p];
            }
            out.set(flat_new, a.data.get(src));
        }
        ArrayVal {
            shape: new_shape,
            data: out,
        }
    }

    #[test]
    fn rearrange_matches_the_per_element_oracle() {
        let mut rng = crate::Rng64::seed_from_u64(3);
        for case in 0..400 {
            let rank = 1 + case % 4;
            let shape: Vec<usize> = (0..rank).map(|_| rng.pick(6)).collect();
            let n: usize = shape.iter().product();
            let mut perm: Vec<usize> = (0..rank).collect();
            for i in (1..rank).rev() {
                perm.swap(i, rng.pick(i + 1));
            }
            let data = match case % 5 {
                0 => Buffer::Bool((0..n).map(|_| rng.chance(1, 2)).collect()),
                1 => Buffer::I32((0..n).map(|_| rng.gen_i64(-999, 999) as i32).collect()),
                2 => Buffer::I64((0..n).map(|_| rng.gen_i64(-999, 999)).collect()),
                3 => Buffer::F32((0..n).map(|i| i as f32 * -0.5).collect()),
                _ => Buffer::F64((0..n).map(|i| i as f64 * 0.25).collect()),
            };
            let a = ArrayVal::new(shape.clone(), data);
            let got = a.rearrange(&perm);
            assert_eq!(
                got,
                rearrange_per_element(&a, &perm),
                "case {case}: shape {shape:?} perm {perm:?}"
            );
            // Every permutation round-trips through its inverse.
            let mut inv = vec![0; rank];
            for (d, &p) in perm.iter().enumerate() {
                inv[p] = d;
            }
            assert_eq!(got.rearrange(&inv), a, "case {case}: inverse");
        }
    }

    #[test]
    fn flat_indexing_row_major() {
        let a = ArrayVal::new(vec![2, 3], Buffer::I64((0..6).collect()));
        assert_eq!(a.index_scalar(&[0, 0]), Some(Scalar::I64(0)));
        assert_eq!(a.index_scalar(&[1, 2]), Some(Scalar::I64(5)));
        assert_eq!(a.index_scalar(&[2, 0]), None);
        assert_eq!(a.index_scalar(&[0, -1]), None);
    }

    #[test]
    fn slicing_returns_rows() {
        let a = ArrayVal::new(vec![2, 3], Buffer::I64((0..6).collect()));
        let row = a.index_slice(&[1]).unwrap();
        assert_eq!(row.shape, vec![3]);
        assert_eq!(row.data, Buffer::I64(vec![3, 4, 5]));
    }

    #[test]
    fn in_place_updates() {
        let mut a = ArrayVal::new(vec![4], Buffer::I64(vec![0; 4]));
        assert!(a.update_scalar(&[2], Scalar::I64(9)));
        assert_eq!(a.data, Buffer::I64(vec![0, 0, 9, 0]));
        assert!(!a.update_scalar(&[4], Scalar::I64(1)));

        let mut m = ArrayVal::zeros(ScalarType::I64, vec![2, 2]);
        let row = ArrayVal::from_i64s(vec![7, 8]);
        assert!(m.update_slice(&[1], &row));
        assert_eq!(m.data, Buffer::I64(vec![0, 0, 7, 8]));
    }

    #[test]
    fn rearrange_transposes() {
        let a = ArrayVal::new(vec![2, 3], Buffer::I64((0..6).collect()));
        let t = a.rearrange(&[1, 0]);
        assert_eq!(t.shape, vec![3, 2]);
        assert_eq!(t.data, Buffer::I64(vec![0, 3, 1, 4, 2, 5]));
        // Transposing twice is the identity.
        assert_eq!(t.rearrange(&[1, 0]), a);
    }

    #[test]
    fn rearrange_rank3() {
        let a = ArrayVal::new(vec![2, 3, 4], Buffer::I64((0..24).collect()));
        let r = a.rearrange(&[2, 0, 1]);
        assert_eq!(r.shape, vec![4, 2, 3]);
        // Element at new [i][j][k] equals source [j][k][i].
        assert_eq!(r.index_scalar(&[1, 1, 2]), a.index_scalar(&[1, 2, 1]));
    }

    #[test]
    fn reshape_preserves_data() {
        let a = ArrayVal::new(vec![2, 3], Buffer::I64((0..6).collect()));
        let b = a.reshape(vec![6]).unwrap();
        assert_eq!(b.shape, vec![6]);
        assert_eq!(b.data, a.data);
        assert!(a.reshape(vec![4]).is_none());
    }

    #[test]
    fn concat_outer() {
        let a = ArrayVal::from_i64s(vec![1, 2]);
        let b = ArrayVal::from_i64s(vec![3]);
        let c = ArrayVal::concat(&[&a, &b]);
        assert_eq!(c.shape, vec![3]);
        assert_eq!(c.data, Buffer::I64(vec![1, 2, 3]));
    }

    #[test]
    fn bit_eq_is_exact() {
        let a = Value::Array(ArrayVal::from_i64s(vec![1, 2, 3]));
        let b = Value::Array(ArrayVal::from_i64s(vec![1, 2, 3]));
        let c = Value::Array(ArrayVal::from_i64s(vec![1, 2, 4]));
        assert!(a.bit_eq(&b));
        assert!(!a.bit_eq(&c));
        assert_eq!(a.first_mismatch(&c), Some(2));
        // NaNs agree bitwise; signed zeros do not.
        let n1 = Value::Array(ArrayVal::from_f32s(vec![f32::NAN]));
        let n2 = Value::Array(ArrayVal::from_f32s(vec![f32::NAN]));
        assert!(n1.bit_eq(&n2));
        let z1 = Value::f32(0.0);
        let z2 = Value::f32(-0.0);
        assert!(!z1.bit_eq(&z2));
        // Shape mismatches are structural, not positional.
        let flat = Value::Array(ArrayVal::from_i64s(vec![1, 2, 3, 4]));
        let mat = Value::Array(ArrayVal::new(vec![2, 2], Buffer::I64(vec![1, 2, 3, 4])));
        assert!(!flat.bit_eq(&mat));
        assert_eq!(flat.first_mismatch(&mat), None);
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = Value::Array(ArrayVal::from_f32s(vec![1.0, 2.0]));
        let b = Value::Array(ArrayVal::from_f32s(vec![1.0 + 1e-7, 2.0]));
        assert!(a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn display_small_arrays() {
        let a = Value::Array(ArrayVal::new(vec![2, 2], Buffer::I64(vec![1, 2, 3, 4])));
        assert_eq!(a.to_string(), "[[1i64, 2i64], [3i64, 4i64]]");
    }
}
