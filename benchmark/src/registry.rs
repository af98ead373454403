//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, each declared once. `BENCHMARK.json` at the
//! repository root lists the same names (the self-test holds the two
//! together); what only the harness knows — which end-to-end metric a
//! layer metric should move, on which workload, and where it should
//! stay flat — lives here and is printed by `--list`.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const CODEC: &str = "codec";
pub const SERVE_POINT: &str = "serve_point";
pub const SERVE_SINKS: &str = "serve_sinks";
pub const SERVE_COLD: &str = "serve_cold";
pub const SERVE_INGEST: &str = "serve_ingest";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: CODEC,
        why: "the paper's experiment, in-process: bitpack/colops/core do all the work, store and server none",
    },
    Workload {
        name: SERVE_POINT,
        why: "selective queries, everything cached: wire, admission, lease, parse, compile dominate; decode idle",
    },
    Workload {
        name: SERVE_SINKS,
        why: "full-table group-by/top-k/distinct/join/row scan: sink tiers, morsel pool and decode dominate; wire <5%",
    },
    Workload {
        name: SERVE_COLD,
        why: "range scans with an 8-segment LRU: FileSource misses, frame validation and decompress dominate",
    },
    Workload {
        name: SERVE_INGEST,
        why: "ingest beside reads on a fresh server: chooser+compress on the write path, version churn on the read path",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const OPS_PER_S: &str = "ops_per_s";
pub const OP_P50_MS: &str = "op_p50_ms";
pub const ENCODE_MVALUES_PER_S: &str = "encode_mvalues_per_s";
pub const STORED_RATIO: &str = "stored_bytes_per_user_byte";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: OP_P50_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: ENCODE_MVALUES_PER_S,
        unit: "Mvalues/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: STORED_RATIO,
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    pub moves: &'static [(&'static str, &'static str)],
    /// Workloads on which no move is predicted.
    pub flat: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
    flat: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        flat,
    }
}

use Better::{Higher, Lower};

// The interaction table, written once per layer and shared by that
// layer's metrics.
const KERNELS: &[(&str, &str)] = &[
    (OPS_PER_S, CODEC),
    (ENCODE_MVALUES_PER_S, CODEC),
    (OPS_PER_S, SERVE_COLD),
    (OPS_PER_S, SERVE_SINKS),
];
const DECODE: &[(&str, &str)] = &[(OPS_PER_S, CODEC), (OP_P50_MS, CODEC)];
const ENCODE: &[(&str, &str)] = &[
    (ENCODE_MVALUES_PER_S, CODEC),
    (ENCODE_MVALUES_PER_S, SERVE_INGEST),
    (SETUP_S, SERVE_POINT),
];
const CHOOSE: &[(&str, &str)] = &[
    (ENCODE_MVALUES_PER_S, SERVE_INGEST),
    (ENCODE_MVALUES_PER_S, SERVE_POINT),
    (SETUP_S, SERVE_POINT),
];
const FRAMES: &[(&str, &str)] = &[(OPS_PER_S, CODEC), (OPS_PER_S, SERVE_COLD)];
const SEGMENT: &[(&str, &str)] = &[
    (ENCODE_MVALUES_PER_S, SERVE_INGEST),
    (OPS_PER_S, SERVE_COLD),
];
const SOURCE: &[(&str, &str)] = &[(OPS_PER_S, SERVE_COLD), (OP_P50_MS, SERVE_COLD)];
const FILE: &[(&str, &str)] = &[
    (SETUP_S, SERVE_POINT),
    (SETUP_S, SERVE_SINKS),
    (SETUP_S, SERVE_COLD),
    (SETUP_S, SERVE_INGEST),
];
const WRITE_PATH: &[(&str, &str)] = &[(ENCODE_MVALUES_PER_S, SERVE_INGEST)];
const CATALOG: &[(&str, &str)] = &[
    (OP_P50_MS, SERVE_POINT),
    (ENCODE_MVALUES_PER_S, SERVE_INGEST),
    (OPS_PER_S, SERVE_INGEST),
];
const PLANNING: &[(&str, &str)] = &[(OP_P50_MS, SERVE_POINT), (OPS_PER_S, SERVE_POINT)];
const SINKS: &[(&str, &str)] = &[(OPS_PER_S, SERVE_SINKS)];
const WIRE: &[(&str, &str)] = &[(OP_P50_MS, SERVE_POINT), (OPS_PER_S, SERVE_POINT)];
const WIRE_PAYLOAD: &[(&str, &str)] = &[
    (OP_P50_MS, SERVE_POINT),
    (OPS_PER_S, SERVE_POINT),
    (OPS_PER_S, SERVE_SINKS),
];
const INGEST_WIRE: &[(&str, &str)] = &[(ENCODE_MVALUES_PER_S, SERVE_INGEST)];
// Trace metrics describe whichever workload was traced.
const TRACED: &[(&str, &str)] = &[
    (OP_P50_MS, SERVE_POINT),
    (OP_P50_MS, SERVE_SINKS),
    (OP_P50_MS, SERVE_COLD),
    (OP_P50_MS, SERVE_INGEST),
];
const TRACED_CODEC: &[(&str, &str)] = &[(OPS_PER_S, CODEC), (ENCODE_MVALUES_PER_S, CODEC)];

const NOT_POINT: &[&str] = &[SERVE_POINT];
const NOT_CODEC: &[&str] = &[CODEC];
const NOT_SERVE: &[&str] = &[SERVE_POINT, SERVE_SINKS, SERVE_COLD, SERVE_INGEST];
const NOT_COLD_PATH: &[&str] = &[CODEC, SERVE_POINT];
const NONE: &[&str] = &[];

pub const FAMILIES: [&str; 6] = ["rle_delta", "for_ns", "pfor", "varwidth", "linear", "dict"];
pub const CLASSES: [&str; 7] = [
    "point",
    "groupby_dict",
    "groupby_run",
    "topk",
    "distinct",
    "join",
    "rowscan",
];

// One line per metric reads as the table it is.
#[rustfmt::skip]
pub const PER_LAYER: &[Layer] = &[
    // -- bitpack ------------------------------------------------------
    layer("bitpack.pack_gbps", "GB/s", Higher, KERNELS, NOT_POINT),
    layer("bitpack.unpack_gbps", "GB/s", Higher, KERNELS, NOT_POINT),
    layer("bitpack.memcpy_ceiling_gbps", "GB/s", Higher, KERNELS, NOT_POINT),
    // -- colops -------------------------------------------------------
    layer("colops.prefix_sum_gbps", "GB/s", Higher, DECODE, NOT_POINT),
    layer("colops.run_expand_gbps", "GB/s", Higher, DECODE, NOT_POINT),
    layer("colops.gather_gbps", "GB/s", Higher, DECODE, NOT_POINT),
    layer("colops.select_gbps", "GB/s", Higher, DECODE, NOT_POINT),
    // -- core ---------------------------------------------------------
    layer("core.decompress_mvps.rle_delta", "Mvalues/s", Higher, DECODE, NOT_POINT),
    layer("core.decompress_mvps.for_ns", "Mvalues/s", Higher, DECODE, NOT_POINT),
    layer("core.decompress_mvps.pfor", "Mvalues/s", Higher, DECODE, NOT_POINT),
    layer("core.decompress_mvps.varwidth", "Mvalues/s", Higher, DECODE, NOT_POINT),
    layer("core.decompress_mvps.linear", "Mvalues/s", Higher, DECODE, NOT_POINT),
    layer("core.decompress_mvps.dict", "Mvalues/s", Higher, DECODE, NOT_POINT),
    layer("core.compress_mvps.rle_delta", "Mvalues/s", Higher, ENCODE, NONE),
    layer("core.compress_mvps.for_ns", "Mvalues/s", Higher, ENCODE, NONE),
    layer("core.compress_mvps.pfor", "Mvalues/s", Higher, ENCODE, NONE),
    layer("core.compress_mvps.varwidth", "Mvalues/s", Higher, ENCODE, NONE),
    layer("core.compress_mvps.linear", "Mvalues/s", Higher, ENCODE, NONE),
    layer("core.compress_mvps.dict", "Mvalues/s", Higher, ENCODE, NONE),
    layer("core.choose_ms_per_mvalue", "ms", Lower, CHOOSE, NOT_CODEC),
    layer("core.to_bytes_gbps", "GB/s", Higher, TRACED_CODEC, NOT_SERVE),
    layer("core.from_bytes_gbps", "GB/s", Higher, FRAMES, NOT_POINT),
    layer("core.plan_overhead_ratio.rle_delta", "ratio", Lower, DECODE, NOT_POINT),
    layer("core.plan_overhead_ratio.for_ns", "ratio", Lower, DECODE, NOT_POINT),
    // -- segment ------------------------------------------------------
    layer("segment.build_us", "us", Lower, SEGMENT, NOT_CODEC),
    layer("segment.decompress_us", "us", Lower, SEGMENT, NOT_CODEC),
    // -- source -------------------------------------------------------
    layer("source.fetch_cold_us", "us", Lower, SOURCE, NOT_COLD_PATH),
    layer("source.fetch_warm_us", "us", Lower, SOURCE, NOT_COLD_PATH),
    layer("source.io_reads_per_query", "count", Lower, SOURCE, NOT_COLD_PATH),
    layer("source.cache_hit_ratio", "ratio", Higher, SOURCE, NOT_COLD_PATH),
    layer("source.prefetch_hit_ratio", "ratio", Higher, SOURCE, NOT_COLD_PATH),
    // -- file ---------------------------------------------------------
    layer("file.open_lazy_ms", "ms", Lower, FILE, NOT_CODEC),
    layer("file.save_mbps", "MB/s", Higher, FILE, NOT_CODEC),
    // -- table --------------------------------------------------------
    layer("table.append_us", "us", Lower, WRITE_PATH, NOT_CODEC),
    // -- catalog ------------------------------------------------------
    layer("catalog.result_cache_hit_ratio", "ratio", Higher, CATALOG, NOT_CODEC),
    layer("catalog.cache_hit_us", "us", Lower, CATALOG, NOT_CODEC),
    layer("catalog.ingest_us", "us", Lower, CATALOG, NOT_CODEC),
    layer("catalog.shards_pruned_per_query", "count", Higher, CATALOG, NOT_CODEC),
    // -- query --------------------------------------------------------
    layer("query.logical.parse_us", "us", Lower, PLANNING, NOT_CODEC),
    layer("query.logical.fingerprint_ns", "ns", Lower, PLANNING, NOT_CODEC),
    layer("query.physical.compile_us", "us", Lower, PLANNING, NOT_CODEC),
    layer("query.physical.exec_us.point", "us", Lower, PLANNING, NOT_CODEC),
    layer("query.physical.exec_us.groupby_dict", "us", Lower, SINKS, NOT_POINT),
    layer("query.physical.exec_us.groupby_run", "us", Lower, SINKS, NOT_POINT),
    layer("query.physical.exec_us.topk", "us", Lower, SINKS, NOT_POINT),
    layer("query.physical.exec_us.distinct", "us", Lower, SINKS, NOT_POINT),
    layer("query.physical.exec_us.join", "us", Lower, SINKS, NOT_POINT),
    layer("query.physical.exec_us.rowscan", "us", Lower, SINKS, NOT_POINT),
    layer("query.physical.naive_over_pushdown.point", "ratio", Higher, PLANNING, NOT_CODEC),
    layer("query.physical.naive_over_pushdown.groupby_dict", "ratio", Higher, SINKS, NOT_POINT),
    layer("query.physical.naive_over_pushdown.groupby_run", "ratio", Higher, SINKS, NOT_POINT),
    layer("query.physical.naive_over_pushdown.topk", "ratio", Higher, SINKS, NOT_POINT),
    layer("query.physical.naive_over_pushdown.distinct", "ratio", Higher, SINKS, NOT_POINT),
    layer("query.physical.naive_over_pushdown.join", "ratio", Higher, SINKS, NOT_POINT),
    layer("query.physical.naive_over_pushdown.rowscan", "ratio", Higher, SINKS, NOT_POINT),
    layer("query.physical.rows_undecoded_ratio", "ratio", Higher, SINKS, NOT_CODEC),
    layer("query.physical.rows_materialized_per_query", "count", Lower, SINKS, NOT_CODEC),
    layer("query.physical.segments_pruned_ratio", "ratio", Higher, PLANNING, NOT_CODEC),
    layer("query.morsel.speedup_2w.groupby_dict", "ratio", Higher, SINKS, NOT_POINT),
    layer("query.morsel.speedup_2w.rowscan", "ratio", Higher, SINKS, NOT_POINT),
    // -- server -------------------------------------------------------
    layer("server.rtt_ping_us", "us", Lower, WIRE, NOT_CODEC),
    layer("server.protocol_encode_us", "us", Lower, WIRE_PAYLOAD, NOT_CODEC),
    layer("server.protocol_decode_us", "us", Lower, WIRE_PAYLOAD, NOT_CODEC),
    layer("server.overhead_us", "us", Lower, WIRE, NOT_CODEC),
    layer("server.concurrent_over_sequential", "ratio", Higher, WIRE, NOT_CODEC),
    layer("server.query_p99_ms", "ms", Lower, WIRE, NOT_CODEC),
    layer("server.ingest_p50_ms", "ms", Lower, INGEST_WIRE, NOT_CODEC),
    layer("server.ingest_p99_ms", "ms", Lower, INGEST_WIRE, NOT_CODEC),
    layer("server.reported_p50_us", "us", Lower, WIRE, NOT_CODEC),
    layer("server.peak_leases", "count", Higher, SINKS, NOT_CODEC),
    layer("server.rejected", "count", Lower, WIRE, NOT_CODEC),
    // -- traced run ---------------------------------------------------
    layer("trace.overhead_ratio", "ratio", Higher, TRACED, NONE),
    layer("trace.decode_share", "ratio", Lower, SOURCE, NOT_POINT),
    layer("trace.server_overhead_share", "ratio", Lower, WIRE, &[SERVE_SINKS]),
    layer("trace.self_us.request", "us", Lower, TRACED, NONE),
    layer("trace.self_us.client.encode", "us", Lower, TRACED, NOT_CODEC),
    layer("trace.self_us.client.wait", "us", Lower, TRACED, NOT_CODEC),
    layer("trace.self_us.client.decode", "us", Lower, TRACED, NOT_CODEC),
    layer("trace.self_us.verify", "us", Lower, TRACED, NONE),
    layer("trace.self_us.query.logical.parse", "us", Lower, PLANNING, NOT_CODEC),
    layer("trace.self_us.query.physical.compile", "us", Lower, PLANNING, NOT_CODEC),
    layer("trace.self_us.catalog.execute", "us", Lower, TRACED, NOT_CODEC),
    layer("trace.self_us.catalog.ingest", "us", Lower, WRITE_PATH, NOT_CODEC),
    layer("trace.self_us.source.fetch", "us", Lower, SOURCE, NOT_COLD_PATH),
    layer("trace.self_us.core.from_bytes", "us", Lower, FRAMES, NOT_POINT),
    layer("trace.self_us.segment.decompress", "us", Lower, SOURCE, NOT_POINT),
    layer("trace.self_us.core.compress", "us", Lower, TRACED_CODEC, NOT_SERVE),
    layer("trace.self_us.core.to_bytes", "us", Lower, TRACED_CODEC, NOT_SERVE),
    layer("trace.self_us.core.decompress", "us", Lower, TRACED_CODEC, NOT_SERVE),
];

/// The spans the traced run records, in reporting order. Each has a
/// `trace.self_us.<name>` metric above.
pub const SPANS: &[&str] = &[
    "request",
    "client.encode",
    "client.wait",
    "client.decode",
    "verify",
    "query.logical.parse",
    "query.physical.compile",
    "catalog.execute",
    "catalog.ingest",
    "source.fetch",
    "core.from_bytes",
    "segment.decompress",
    "core.compress",
    "core.to_bytes",
    "core.decompress",
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric's `(unit, direction, bound)`; only end-to-end metrics have
/// a bound.
pub fn describe(name: &str) -> Option<(&'static str, Better, Option<f64>)> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.better, Some(m.bound)))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|l| l.name == name)
                .map(|l| (l.unit, l.better, None))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|l| l.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn every_layer_metric_names_what_it_should_move() {
        for l in PER_LAYER {
            assert!(!l.moves.is_empty(), "{} moves nothing", l.name);
            for (metric, wl) in l.moves {
                assert!(
                    describe(metric).is_some_and(|d| d.2.is_some()),
                    "{}: {metric}",
                    l.name
                );
                assert!(workload(wl).is_some(), "{}: {wl}", l.name);
            }
            for wl in l.flat {
                assert!(workload(wl).is_some(), "{}: {wl}", l.name);
            }
        }
    }

    #[test]
    fn every_span_family_and_class_has_its_metrics() {
        for span in SPANS {
            assert!(
                describe(&format!("trace.self_us.{span}")).is_some(),
                "{span}"
            );
        }
        for f in FAMILIES {
            assert!(describe(&format!("core.decompress_mvps.{f}")).is_some());
            assert!(describe(&format!("core.compress_mvps.{f}")).is_some());
        }
        for c in CLASSES {
            assert!(describe(&format!("query.physical.exec_us.{c}")).is_some());
            assert!(describe(&format!("query.physical.naive_over_pushdown.{c}")).is_some());
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(setup.bound <= 0.25);
    }
}
