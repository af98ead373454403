//! Interactive scheme exploration: compress a generated workload with a
//! scheme expression and inspect the columnar anatomy of the result.
//!
//! ```text
//! cargo run --release --example scheme_explorer -- \
//!     "for(l=128)[offsets=ns]" steps
//! cargo run --release --example scheme_explorer -- \
//!     "rle[values=delta[deltas=ns_zz],lengths=ns]" dates
//! ```
//!
//! Workloads: `dates`, `runs`, `steps`, `trend`, `outliers`, `zipf`,
//! `uniform`, `sorted`.

use lcdc::bitpack::Widths;
use lcdc::core::{parse_scheme, ColumnData, PartData};

fn workload(name: &str) -> Option<ColumnData> {
    let n = 200_000;
    Some(ColumnData::U64(match name {
        "dates" => lcdc::datagen::shipped_order_dates(2000, 50, 20_180_101, 1),
        "runs" => lcdc::datagen::runs::runs_over_domain(n, 50, 100, 1),
        "steps" => lcdc::datagen::step_column(n, 128, 1 << 40, 64, 1),
        "trend" => lcdc::datagen::sawtooth_trend(n, 4096, 7, 1 << 20, 16, 1),
        "outliers" => {
            lcdc::datagen::locally_varying_with_outliers(n, 128, 1 << 20, 16, 0.01, 1 << 44, 1)
        }
        "zipf" => lcdc::datagen::zipf_codes(n, 64, 1.2, 1),
        "uniform" => lcdc::datagen::uniform(n, 1 << 20, 1),
        "sorted" => lcdc::datagen::sorted_unique(n, 1_000_000, 8, 1),
        _ => return None,
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let expr = args
        .first()
        .map(String::as_str)
        .unwrap_or("rle[values=ns,lengths=ns]");
    let wl_name = args.get(1).map(String::as_str).unwrap_or("dates");

    let Some(col) = workload(wl_name) else {
        eprintln!(
            "unknown workload {wl_name:?}; try dates/runs/steps/trend/outliers/zipf/uniform/sorted"
        );
        std::process::exit(1);
    };
    let scheme = match parse_scheme(expr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad scheme expression: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "workload {wl_name:?}: {} rows, {} plain bytes",
        col.len(),
        col.uncompressed_bytes()
    );
    let compressed = match scheme.compress(&col) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("scheme {expr} cannot compress this column: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "scheme  {expr}: {} bytes, ratio {:.2}x\n",
        compressed.compressed_bytes(),
        compressed.ratio().unwrap_or(f64::NAN)
    );

    println!("columnar anatomy (the paper's 'pure columns' view):");
    for part in &compressed.parts {
        let kind = match &part.data {
            PartData::Plain(c) => format!("plain {} x{}", c.dtype().name(), c.len()),
            PartData::Packed(p) => match p.widths() {
                Widths::One(w) => format!("packed {w}bit x{}", p.len()),
                Widths::Blocks(b) => format!("block-packed x{} ({} blocks)", p.len(), b.len()),
            },
            PartData::Nested(n) => format!("nested {} (n={})", n.scheme_id, n.n),
            PartData::Shared(s) => format!("shared dictionary x{}", s.len),
        };
        println!(
            "  part {:<14} {:<34} {:>9} bytes",
            part.role,
            kind,
            part.data.bytes()
        );
    }
    for (key, value) in compressed.params.iter() {
        println!("  param {key} = {value}");
    }

    match scheme.plan(&compressed) {
        Ok(plan) => println!("\ndecompression plan:\n{}", plan.display()),
        Err(_) => println!("\n(no operator-DAG plan for this scheme)"),
    }

    let restored = scheme.decompress(&compressed).expect("round-trips");
    assert_eq!(restored, col);
    println!("round-trip verified ✓");
}
