//! # lcdc-core — the scheme algebra
//!
//! The paper's central move is representational: a compressed column is
//! nothing but a small set of *plain columns* plus scalar parameters, and
//! decompression is a small DAG of ordinary columnar operators. Once
//! schemes are viewed this way they stop being monolithic:
//!
//! * they **compose** — apply a scheme to a *part* of another scheme's
//!   output ([`compose::Cascade`], e.g. the §I example
//!   `rle[values=delta]`), and
//! * they **decompose** — a prefix of one scheme's decompression DAG is
//!   itself the decompression of a *different* scheme
//!   ([`rewrite`], e.g. `RLE ≡ (ID, DELTA) ∘ RPE` and
//!   `FOR ≡ STEPFUNCTION + NS`).
//!
//! Module map:
//!
//! * [`column`](mod@column) — the dynamically-typed plain column ([`column::ColumnData`]),
//! * [`scheme`] — the [`scheme::Scheme`] trait and the columnar
//!   compressed form ([`scheme::Compressed`]: parts + params),
//! * [`schemes`] — the primitive schemes: ID, NS, FOR, DELTA, RLE, RPE,
//!   DICT, STEPFUNCTION, patched FOR, variable-width NS, linear frames,
//! * [`parts`] — the part reader decompression goes through: any part,
//!   plain, packed or nested, as a stream of unpacked chunks,
//! * [`compose`] — the cascade combinator,
//! * [`rewrite`] — the paper's decomposition identities, executable,
//! * [`morph`](mod@morph) — transcoding between compressed forms, structurally
//!   where an identity provides a path, via the plain column otherwise,
//! * [`plan`] — decompression as an operator DAG over `lcdc-colops`
//!   kernels, with an interpreter (lesson 1: *"decompression can often be
//!   implemented using the same columnar operations which show up in
//!   query execution plans"*),
//! * [`stats`]/[`chooser`] — the cost model and per-column scheme choice,
//! * [`expr`] — a textual scheme-expression language
//!   (`"rle[values=delta[deltas=ns]]"`) for tools and tests.

#![forbid(unsafe_code)]

pub mod access;
pub mod bytes;
pub mod chooser;
pub mod column;
pub mod compose;
pub mod concat;
pub mod error;
pub mod expr;
pub mod morph;
pub mod parts;
pub mod plan;
pub mod planopt;
pub mod rewrite;
pub mod scheme;
pub mod schemes;
pub mod shared;
pub mod stats;

pub use column::{ColumnData, DType};
pub use compose::Cascade;
pub use concat::{concat, ConcatPath};
pub use error::{CoreError, Result};
pub use expr::{parse_scheme, SchemeExpr};
pub use morph::{morph, morph_expr, MorphPath};
pub use parts::{PartStream, Parts};
pub use plan::{Node, Plan};
pub use planopt::{optimize, OptStats};
pub use scheme::{Compressed, Part, PartData, Scheme};
pub use shared::{SharedDict, SharedRef};
pub use stats::ColumnStats;
