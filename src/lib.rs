//! # lcdc — Lightweight Compression, Decomposed & Composed
//!
//! Facade crate for the reproduction of *“Decomposing and Re-Composing
//! Lightweight Compression Schemes — And Why It Matters”* (E. Rozenberg,
//! ICDE 2018). It re-exports the workspace crates under stable names:
//!
//! * [`colops`] — the columnar operator kernels of Algorithms 1 & 2,
//! * [`bitpack`] — bit-packing kernels (the NS backend),
//! * [`core`] — the scheme algebra: primitive schemes, composition,
//!   decomposition identities, operator-DAG decompression plans,
//! * [`store`] — a miniature column store with compression-aware scans,
//! * [`datagen`] — seeded synthetic workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use lcdc::core::column::ColumnData;
//! use lcdc::core::expr::parse_scheme;
//!
//! // A shipped-orders date column: long runs of a monotone sequence.
//! let dates: Vec<u32> = (0..1000u32).flat_map(|d| [20180101 + d; 50]).collect();
//! let col = ColumnData::U32(dates);
//!
//! // The paper's §I composition: RLE, then DELTA on the run values.
//! let scheme = parse_scheme("rle[values=delta[deltas=ns], lengths=ns]").unwrap();
//! let compressed = scheme.compress(&col).unwrap();
//! assert!(compressed.compressed_bytes() * 20 < col.uncompressed_bytes());
//! assert_eq!(scheme.decompress(&compressed).unwrap(), col);
//! ```

#![forbid(unsafe_code)]

pub use lcdc_bitpack as bitpack;
pub use lcdc_colops as colops;
pub use lcdc_core as core;
pub use lcdc_datagen as datagen;
pub use lcdc_store as store;
