//! The primitive lightweight compression schemes.
//!
//! Each module implements one scheme as a [`crate::scheme::Scheme`]:
//! compression, exact-inverse decompression, an operator-DAG plan where
//! the decompression is naturally columnar, and a proven size floor for the
//! chooser. The set covers everything the paper names:
//!
//! | Module | Scheme | Paper anchor |
//! |---|---|---|
//! | [`id`] | ID — "not applying any compression" | §II-A |
//! | [`ns`] | NS — null suppression / bit packing | §I |
//! | [`delta`] | DELTA — adjacent differences | §I |
//! | [`rle`] | RLE — run lengths + values | §II-A, Alg. 1 |
//! | [`rpe`] | RPE — run *positions* + values | §II-A |
//! | [`dict`] | DICT — dictionary + codes | §I |
//! | [`step`] | STEPFUNCTION — the model part of FOR | §II-B |
//! | [`for_`] | FOR — frame of reference + offsets | §II-B, Alg. 2 |
//! | [`patch`] | Patched FOR — L0-metric exceptions | §II-B |
//! | [`pstep`] | Patched STEPFUNCTION — "really a step function, with the occasional divergent element" | §II-B |
//! | [`varwidth`] | Variable-width NS — per-block widths | §II-B |
//! | [`linear`] | Piecewise-linear frames + residuals | §II-B |
//! | [`poly`] | Piecewise degree-2 polynomial frames | §II-B |
//!
//! ...plus four schemes that carry out the generalisation program §II-B
//! sketches (each a named instantiation of a paper sentence):
//!
//! | Module | Scheme | Paper anchor |
//! |---|---|---|
//! | [`const_`] | CONST - one repeated value; the degenerate model | §II-B (model ladder) |
//! | [`sparse`] | SPARSE - constant model + L0-metric patches | §II-B, L0 metric |
//! | [`dfor`] | DFOR - per-segment restarted delta chains | Lessons 2, "generalizing a subscheme" |
//! | [`vstep`] | VSTEP - variable-length step frames (width budget) | §II-B, "enrich the space of models" |

pub mod const_;
pub mod delta;
pub mod dfor;
pub mod dict;
pub mod for_;
pub mod id;
pub mod linear;
pub mod ns;
pub mod patch;
pub mod poly;
pub mod pstep;
pub mod rle;
pub mod rpe;
pub mod sparse;
pub mod step;
pub mod varwidth;
pub mod vstep;

pub use const_::Const;
pub use delta::Delta;
pub use dfor::DeltaFor;
pub use dict::Dict;
pub use for_::For;
pub use id::Id;
pub use linear::LinearFor;
pub use ns::Ns;
pub use patch::PatchedFor;
pub use poly::PolyFor;
pub use pstep::PatchedStep;
pub use rle::Rle;
pub use rpe::Rpe;
pub use sparse::Sparse;
pub use step::StepFunction;
pub use varwidth::VarWidthNs;
pub use vstep::VarStep;
