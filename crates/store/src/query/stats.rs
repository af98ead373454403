//! The execution ledgers, each counter declared exactly once.
//!
//! `ledger!` derives from one declaration everything that must visit
//! every counter: the merge (`absorb`), the wire order (`NAMES`,
//! `values`, `values_mut`; a nested ledger's counters follow) and the
//! report (`Display`). A counter is merged, shipped and printed the
//! moment it is declared; there is no second list to forget.

use std::fmt;

/// Declare a ledger: `pub name: usize` counters inside the braces, then
/// optionally one nested ledger, merged, shipped and reported last.
macro_rules! ledger {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$doc:meta])* pub $field:ident: usize, )*
        }
        $( $(#[$ndoc:meta])* pub $nested:ident: $nty:ident, )?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$doc])* pub $field: usize, )*
            $( $(#[$ndoc])* pub $nested: $nty, )?
        }

        impl $name {
            /// Counter names in declaration order (the wire and report
            /// order), without the nested ledger's.
            pub const NAMES: [&'static str; [$(stringify!($field)),*].len()] =
                [$(stringify!($field)),*];

            /// Counter values, in [`Self::NAMES`] order.
            pub fn values(&self) -> [usize; $name::NAMES.len()] {
                [$(self.$field),*]
            }

            /// Mutable counter handles, in [`Self::NAMES`] order.
            pub fn values_mut(&mut self) -> [&mut usize; $name::NAMES.len()] {
                [$(&mut self.$field),*]
            }

            /// Add another record into this one (a job's lease slots, a
            /// server's per-connection totals).
            pub fn absorb(&mut self, other: &$name) {
                for (mine, theirs) in self.values_mut().into_iter().zip(other.values()) {
                    *mine += theirs;
                }
                $( self.$nested.absorb(&other.$nested); )?
            }
        }

        /// The non-zero counters as space-separated `name=value`, in
        /// declaration order; nested ones last, prefixed `field.`.
        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut sep = "";
                for (name, value) in $name::NAMES.iter().zip(self.values()) {
                    if value != 0 {
                        write!(f, "{sep}{name}={value}")?;
                        sep = " ";
                    }
                }
                $( for entry in self.$nested.to_string().split_whitespace() {
                    write!(f, "{sep}{}.{entry}", stringify!($nested))?;
                    sep = " ";
                } )?
                Ok(())
            }
        }
    };
}

ledger! {
    /// Counters for which pushdown tier handled each segment.
    pub struct PushdownStats {
        /// Segments answered from the zone map alone.
        pub zonemap_hits: usize,
        /// Segments evaluated per run.
        pub run_granularity: usize,
        /// Segments evaluated on dictionary codes.
        pub code_granularity: usize,
        /// Segments tested value by value off their value stream.
        pub row_granularity: usize,
    }
}

impl PushdownStats {
    /// Total segments inspected.
    pub fn total(&self) -> usize {
        self.values().iter().sum()
    }
}

ledger! {
    /// Counters describing how a query executed, unified across every
    /// operator the planner can run.
    pub struct QueryStats {
        /// Segments visited (pruned or not).
        pub segments: usize,
        /// Segments that contributed no rows: zone-map disjoint, emptied by
        /// the filter conjunction (at whatever tier decided it), or outbid
        /// by the running top-k threshold.
        pub segments_pruned: usize,
        /// Segments answered from part columns alone (run values, dictionary
        /// entries, ...) with no row materialisation.
        pub segments_structural: usize,
        /// Segment payloads fetched from their source — the unit of I/O for
        /// lazily-backed tables. Counted once per `(column, segment)` pair
        /// per visit; zone-map-pruned segments fetch nothing.
        pub segments_loaded: usize,
        /// Rows decompressed into a plain column. Only the decoded baseline
        /// ([`crate::QueryBuilder::execute_naive`]) builds one: it counts
        /// per *row*, once per segment however many of its columns decode,
        /// plus the rows of each decoded right-side join segment. Pushdown
        /// always reports 0 — masked sinks fold and row-tier predicates
        /// test their values off the value streams.
        pub rows_materialized: usize,
        /// Values fed to the sink operator — run/dictionary/part entries on
        /// the structural paths, every selected value of a streamed column
        /// otherwise.
        pub values_processed: usize,
        /// Queries answered from the catalog's result cache instead of
        /// executing (0 or 1 per [`crate::Catalog::execute`] call; stats
        /// from the original execution are replaced by this marker).
        pub result_cache_hits: usize,
        /// Payload fetches served from a frame the job's prefetcher
        /// had already warmed — the proof that I/O overlapped the scan.
        /// Only lazily-backed sources ever report these.
        pub prefetch_hits: usize,
        /// Frames the prefetcher loaded that no fetch consumed (the segment
        /// turned out pruned at a data tier, or a top-k threshold outbid
        /// it). The cost side of the overlap ledger.
        pub prefetch_wasted: usize,
        /// Queued prefetch warms the fetcher *dropped before loading*
        /// because the shared top-k bound had already outbid the segment —
        /// the zone test the executor would run at visit time, applied at
        /// warm time. Each cancellation is I/O that `prefetch_wasted` would
        /// otherwise have charged; the bound is monotonic, so a segment
        /// prunable at warm time is still prunable at visit time.
        pub prefetch_cancelled: usize,
        /// Runs (shards) of a sharded table of which no segment became a
        /// morsel: segment zone-map pruning excluded every one, so none of
        /// the shard's sources was touched. Their segments are counted
        /// under `segments` / `segments_pruned` like any zone-pruned
        /// segment. A one-run table reports 0, and so do top-k and join
        /// plans, which keep every segment a morsel (their visits
        /// zone-check the filters before any fetch).
        pub shards_pruned: usize,
        /// Group-key units the group-by sink folded *structurally* —
        /// distinct dictionary codes aggregated in code space, RLE/RPE runs
        /// folded with run-length multiplicity, constant segments folded
        /// whole — instead of hashing one key per row. Each folded unit
        /// decodes its key at most once, at merge time.
        pub groups_folded: usize,
        /// Rows whose group key was consumed by a code-space or
        /// run-structural tier without ever decompressing the key column.
        /// The decompression-avoidance ledger of the aggregation tier: a
        /// decoded (naive) group-by always reports 0 here.
        pub rows_undecoded: usize,
        /// Segments skipped against the *shared* top-k bound — the
        /// job-wide threshold every lease slot publishes into, letting
        /// late leases prune with early ones' heaps. Every top-k job has
        /// one, sequential [`crate::QueryBuilder::execute`] included: at
        /// one slot the bound is that slot's own published threshold, so
        /// every skip counted here is a segment its heap prunes anyway.
        pub topk_segments_skipped: usize,
        /// `(left segment, right segment)` pairs a join dismissed from
        /// resident zone maps alone — the key ranges don't overlap, so the
        /// pair contributes nothing and neither side's payload is fetched
        /// for it. Counted per visited non-empty left segment against every
        /// non-empty right segment; the naive join never prunes (0 here).
        pub join_pairs_pruned: usize,
        /// Rows a join side consumed through a structural tier — dictionary
        /// codes, RLE/RPE runs, const segments — without decompressing the
        /// key column: the selected rows of each structural left build plus
        /// the whole rows of each structural right build (once per worker).
        /// The decompression-avoidance ledger of the join sink: a naive
        /// (decoded) join always reports 0 here.
        pub join_rows_undecoded: usize,
        /// DICT⋈DICT segment pairs the join folded through a code→code
        /// translation of the two dictionaries — left codes that translate
        /// multiply counts in code space; codes with no translation drop
        /// without decoding — instead of a value-space hash probe per key.
        pub join_code_translations: usize,
        /// Fully selected segments the aggregate sink answered from their
        /// metadata alone — every aggregated column's exact summary
        /// (`rows`, `min`, `max`, `sum`; a bare count needs only `rows`) —
        /// without fetching a payload. Each is also counted in
        /// `segments_structural`, never in `segments_loaded` or
        /// `values_processed`.
        pub segments_from_metadata: usize,
    }
    /// Which predicate-evaluation tier fired, per filter step.
    pub pushdown: PushdownStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_lists_nonzero_counters_nested_last() {
        let mut s = QueryStats {
            segments: 5,
            ..QueryStats::default()
        };
        s.pushdown.zonemap_hits = 2;
        assert_eq!(s.to_string(), "segments=5 pushdown.zonemap_hits=2");
        assert_eq!(QueryStats::default().to_string(), "");
    }
}
