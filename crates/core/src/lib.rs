//! Core intermediate representation for `futhark-rs`, a Rust reproduction of
//! the compiler described in *Futhark: Purely Functional GPU-Programming with
//! Nested Parallelism and In-Place Array Updates* (PLDI 2017).
//!
//! This crate defines the data types shared by every other crate in the
//! workspace:
//!
//! - [`Name`] and [`NameSource`]: interned-ish variable names with globally
//!   unique identifiers, so transformation passes can generate fresh names.
//! - [`types`]: the monomorphic, shape-annotated array type system of the
//!   paper's Figure 1, including uniqueness attributes (`*[n]i32`).
//! - [`ir`]: the A-normal-form core language — let bindings, loops, in-place
//!   updates, and the second-order array combinators (SOACs) `map`, `reduce`,
//!   `scan`, `stream_map`, `stream_red`, and `stream_seq`.
//! - [`value`]: runtime values (scalars and regular multi-dimensional
//!   arrays) used by the interpreter and the GPU simulator.
//! - [`pretty`]: a pretty-printer whose output is re-parseable by
//!   `futhark-frontend`.
//! - [`schedule`]: every decision of the optimisation pipeline as one
//!   value, with a canonical label.
//!
//! # Example
//!
//! ```
//! use futhark_core::{ChoiceClass, Schedule};
//!
//! let sched = Schedule::default().with_default(ChoiceClass::Tile, false);
//! assert_eq!(Schedule::parse_label(&sched.label()), Ok(sched));
//! ```

pub mod ir;
pub mod name;
pub mod pretty;
pub mod prov;
pub mod rng;
pub mod schedule;
pub mod traverse;
pub mod types;
pub mod value;

pub use ir::{
    BinOp, Body, CmpOp, Exp, FunDef, Lambda, LoopForm, Param, PatElem, Program, Scalar, Soac, Stm,
    SubExp, UnOp,
};
pub use name::{Name, NameSource};
pub use prov::Prov;
pub use rng::Rng64;
pub use schedule::{ChoiceClass, Schedule, ScheduleCursor, SimplifyToggles, SiteDecisions};
pub use types::{ArrayType, DeclType, ScalarType, Size, Type};
pub use value::{ArrayVal, Buffer, Value};
