//! `lcdc` — command-line compression tool over the scheme algebra.
//!
//! Columns are raw little-endian binaries of a fixed element type;
//! compressed files are the `lcdc_core::bytes` wire format (self-
//! describing: the scheme expression travels in the frame).
//!
//! ```text
//! lcdc compress   <in.bin> -o <out.lcdc> --dtype u64 [--scheme EXPR]
//! lcdc decompress <in.lcdc> -o <out.bin>
//! lcdc info       <in.lcdc>
//! lcdc choose     <in.bin> --dtype u64
//! lcdc shard      <table-dir> -o <catalog-dir> --table NAME --shards N
//! lcdc ingest     <dir> [--table NAME [--key COL]] [--scheme EXPR]
//!                 <col1.bin> <col2.bin> ...
//! lcdc query      <dir> [--table NAME] [--lazy] [--cache N] [--repeat N]
//!                 [--filter c=lo..hi | c=value | c=in:v1,v2,..]...
//!                 [--any c=..,c=..] [--sum c] [--count]
//!                 [--group-by c | --top-k c:k | --distinct c]
//!                 [--join TABLE --on COL]
//!                 [--naive] [--threads N] [--prefetch N]
//!                 [--ordered-filters] [--explain]
//! lcdc gen        <dir> [--table NAME] [--rows N] [--shards N]
//!                 [--seg-rows N] [--seed N]
//! lcdc serve      <dir> [--addr HOST:PORT] [--threads N]
//!                 [--max-inflight N] [--lazy] [--cache N]
//!                 [--session-timeout-ms N] [--deadline-ms N]
//!                 [--faults SPEC] [--fault-seed N]
//! lcdc client     --addr HOST:PORT [--deadline-ms N] [--retries N]
//!                 (--ping | --stats | --shutdown |
//!                 --table NAME <query flags...>)
//! ```
//!
//! Without `--scheme`, `compress` runs the chooser and records its pick.
//! `query` runs a logical plan against a table directory written by
//! `lcdc::store::save_table` — or, with `--table NAME`, against the
//! named (possibly sharded) table under a catalog directory written by
//! `lcdc shard`, routed through `lcdc::store::Catalog` (result cache;
//! the shards read as one table). `--lazy` opens columns as lazy `FileSource`s so only
//! the segments the plan touches are read from disk; `--repeat 2`
//! demonstrates the result cache on the second run. A query runs under
//! two execution settings and nothing else: `--threads N` leases at
//! once and `--prefetch N` lazily-backed segments warmed ahead of the
//! scan. `ingest` appends a
//! row batch — one raw binary per column, in schema order — to a saved
//! table without rewriting existing frames; against a *sharded* catalog
//! table it routes the batch along the shards' `--key` ranges and
//! appends each piece to its owning shard's directory.
//!
//! `serve` turns a catalog directory into a long-lived query service:
//! every `<name>/` or `<name>.shard<i>/` table under the root is
//! registered, queries from any number of `lcdc client` connections
//! run on **one** shared worker pool (`--threads`), and admission
//! control (`--max-inflight`) answers overload with a typed BUSY
//! instead of queueing without bound. `client` speaks the same query
//! flags as `query` — the flag vector travels verbatim over the wire —
//! plus `--ping`, `--stats` (the server's per-endpoint report) and
//! `--shutdown` (graceful drain). `gen` writes a deterministic demo
//! table (day/qty/price) to feed walkthroughs and smoke tests.

#![forbid(unsafe_code)]

use lcdc::core::{bytes, chooser, parse_scheme, ColumnData, DType};
use lcdc::store::{
    load_table, open_table_lazy, save_table, shard_table, Catalog, Client, CompressionPolicy,
    FaultPlan, QueryArgs, QuerySpec, QueryStats, Response, RetryPolicy, Rows, Server, ServerConfig,
    ShardedTable, Table, TableSchema,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("lcdc: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  lcdc compress   <in.bin> -o <out.lcdc> --dtype <u32|u64|i32|i64> [--scheme EXPR]
  lcdc decompress <in.lcdc> -o <out.bin>
  lcdc info       <in.lcdc>
  lcdc choose     <in.bin> --dtype <u32|u64|i32|i64>
  lcdc shard      <table-dir> -o <catalog-dir> --table NAME --shards N
  lcdc ingest     <dir> [--table NAME [--key COL]] [--scheme EXPR] <col.bin>...
  lcdc query      <dir> [--table NAME] [--lazy] [--cache N] [--repeat N]
                  [--filter col=lo..hi | col=value | col=in:v1,v2,..]...
                  [--any col=spec,col=spec]
                  [--sum col] [--min col] [--max col] [--count]
                  [--group-by col | --top-k col:k | --distinct col]
                  [--join TABLE --on COL]
                  [--naive] [--threads N] [--prefetch N] [--ordered-filters] [--explain]
  lcdc gen        <dir> [--table NAME] [--rows N] [--shards N] [--seg-rows N] [--seed N]
  lcdc serve      <dir> [--addr HOST:PORT] [--threads N] [--max-inflight N]
                  [--lazy] [--cache N] [--session-timeout-ms N] [--deadline-ms N]
                  [--faults SPEC] [--fault-seed N]
  lcdc client     --addr HOST:PORT [--deadline-ms N] [--retries N]
                  (--ping | --stats | --shutdown |
                  --table NAME <query flags...>)

scheme expressions: e.g. 'rle[values=delta[deltas=ns_zz],lengths=ns]',
'for(l=128)[offsets=ns]', 'vstep(w=8)[offsets=ns]', 'sparse', ...";

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    let rest = &args[1..];
    match command.as_str() {
        "compress" => compress(rest),
        "decompress" => decompress(rest),
        "info" => info(rest),
        "choose" => choose(rest),
        "shard" => shard(rest),
        "ingest" => ingest(rest),
        "query" => query(rest),
        "gen" => gen(rest),
        "serve" => serve(rest),
        "client" => client(rest),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Minimal flag parser: one positional input plus `--flag value` pairs.
struct Opts {
    input: String,
    output: Option<String>,
    dtype: Option<DType>,
    scheme: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let (mut output, mut dtype, mut scheme) = (None, None, None);
    let positionals = read_flags(args, |flag, value| {
        match flag {
            "-o" | "--output" => output = Some(value.text()?),
            "--dtype" => dtype = Some(parse_dtype(&value.text()?)?),
            "--scheme" => scheme = Some(value.text()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Opts {
        input: one_positional(positionals, "input file")?,
        output,
        dtype,
        scheme,
    })
}

/// One flag's value, read off the argument list on demand.
struct FlagValue<'a, 'i> {
    flag: &'a str,
    rest: &'i mut std::slice::Iter<'a, String>,
}

impl FlagValue<'_, '_> {
    /// The next argument, verbatim.
    fn text(&mut self) -> Result<String, String> {
        (self.rest.next().cloned()).ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The next argument, parsed.
    fn parse<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        self.text()?
            .parse()
            .map_err(|_| format!("bad {}", self.flag))
    }
}

/// Read a subcommand's arguments left to right: each `-`-led one goes
/// to `on_flag` with the reader of its value, and `on_flag` answers
/// `false` for a flag the subcommand does not know, which is an error.
/// Every other argument comes back as a positional, in order.
fn read_flags(
    args: &[String],
    mut on_flag: impl FnMut(&str, &mut FlagValue) -> Result<bool, String>,
) -> Result<Vec<String>, String> {
    let mut positionals = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value = FlagValue {
            flag: arg,
            rest: &mut rest,
        };
        if !arg.starts_with('-') {
            positionals.push(arg.clone());
        } else if !on_flag(arg, &mut value)? {
            return Err(format!("unknown flag {arg:?}"));
        }
    }
    Ok(positionals)
}

/// The one positional argument, or an error naming `what` is missing
/// or given twice.
fn one_positional(positionals: Vec<String>, what: &str) -> Result<String, String> {
    let mut positionals = positionals.into_iter();
    match (positionals.next(), positionals.next()) {
        (Some(one), None) => Ok(one),
        (None, _) => Err(format!("missing {what}")),
        (Some(_), Some(_)) => Err(format!("more than one {what} given")),
    }
}

fn parse_dtype(s: &str) -> Result<DType, String> {
    Ok(match s {
        "u32" => DType::U32,
        "u64" => DType::U64,
        "i32" => DType::I32,
        "i64" => DType::I64,
        other => return Err(format!("unknown dtype {other:?} (u32|u64|i32|i64)")),
    })
}

fn read_raw_column(path: &str, dtype: DType) -> Result<ColumnData, String> {
    let raw = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let width = dtype.bytes();
    if raw.len() % width != 0 {
        return Err(format!(
            "{path}: {} bytes is not a multiple of the {width}-byte element size",
            raw.len()
        ));
    }
    // Little-endian elements, zero-extended into transport words.
    let words = raw.chunks_exact(width).map(|element| {
        let mut word = [0u8; 8];
        word[..width].copy_from_slice(element);
        u64::from_le_bytes(word)
    });
    Ok(ColumnData::from_transport(dtype, words.collect()))
}

fn write_raw_column(path: &str, col: &ColumnData) -> Result<(), String> {
    let width = col.dtype().bytes();
    let mut out = Vec::with_capacity(col.uncompressed_bytes());
    for word in col.as_transport().iter() {
        out.extend_from_slice(&word.to_le_bytes()[..width]);
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

fn compress(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let dtype = opts.dtype.ok_or("compress requires --dtype")?;
    let output = opts.output.ok_or("compress requires -o <out.lcdc>")?;
    let col = read_raw_column(&opts.input, dtype)?;

    let (expr, compressed) = match &opts.scheme {
        Some(expr) => {
            let scheme = parse_scheme(expr).map_err(|e| e.to_string())?;
            let c = scheme.compress(&col).map_err(|e| e.to_string())?;
            (expr.clone(), c)
        }
        None => {
            let choice = chooser::choose_best(&col).map_err(|e| e.to_string())?;
            (choice.expr, choice.compressed)
        }
    };
    let frame = bytes::to_bytes(&compressed);
    std::fs::write(&output, &frame).map_err(|e| format!("{output}: {e}"))?;
    let (rows, plain, stored) = (col.len(), col.uncompressed_bytes(), frame.len());
    let ratio = plain as f64 / stored.max(1) as f64;
    eprintln!("{rows} rows, {plain} -> {stored} bytes ({ratio:.2}x) with {expr}");
    Ok(())
}

fn decompress(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let output = opts.output.ok_or("decompress requires -o <out.bin>")?;
    let frame = std::fs::read(&opts.input).map_err(|e| format!("{}: {e}", opts.input))?;
    let compressed = bytes::from_bytes(&frame).map_err(|e| e.to_string())?;
    let scheme = parse_scheme(&compressed.scheme_id).map_err(|e| e.to_string())?;
    let col = scheme.decompress(&compressed).map_err(|e| e.to_string())?;
    write_raw_column(&output, &col)?;
    eprintln!(
        "{} rows of {} restored from {}",
        col.len(),
        col.dtype().name(),
        compressed.scheme_id
    );
    Ok(())
}

fn info(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let frame = std::fs::read(&opts.input).map_err(|e| format!("{}: {e}", opts.input))?;
    let c = bytes::from_bytes(&frame).map_err(|e| e.to_string())?;
    println!("scheme : {}", c.scheme_id);
    println!("dtype  : {}", c.dtype.name());
    println!("rows   : {}", c.n);
    println!(
        "size   : {} compressed / {} plain ({:.2}x)",
        c.compressed_bytes(),
        c.uncompressed_bytes(),
        c.ratio().unwrap_or(0.0)
    );
    if !c.params.is_empty() {
        let params: Vec<String> = c.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("params : {}", params.join(", "));
    }
    println!("parts  :");
    for part in &c.parts {
        println!(
            "  {:<14} {:>8} elements {:>10} bytes",
            part.role,
            part.data.len(),
            part.data.bytes()
        );
    }
    // Show the decompression DAG where the scheme has one.
    let scheme = parse_scheme(&c.scheme_id).map_err(|e| e.to_string())?;
    if let Ok(plan) = scheme.plan(&c) {
        println!("plan   :");
        for line in plan.display().lines() {
            println!("  {line}");
        }
    }
    Ok(())
}

/// Split one saved table into a sharded catalog entry:
/// `<catalog-dir>/<NAME>.shard<i>`, one saved table per shard.
fn shard(args: &[String]) -> Result<(), String> {
    let (mut output, mut name, mut shards) = (None, None, 2usize);
    let positionals = read_flags(args, |flag, value| {
        match flag {
            "-o" | "--output" => output = Some(value.text()?),
            "--table" => name = Some(value.text()?),
            "--shards" => shards = value.parse()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let input = one_positional(positionals, "table directory")?;
    let output = output.ok_or("shard requires -o <catalog-dir>")?;
    let name = name.ok_or("shard requires --table NAME")?;
    let table = load_table(Path::new(&input)).map_err(|e| e.to_string())?;
    let pieces = shard_table(&table, shards).map_err(|e| e.to_string())?;
    let dirs = save_shards(Path::new(&output), &name, &pieces)?;
    for (i, (piece, dir)) in pieces.iter().zip(&dirs).enumerate() {
        eprintln!(
            "shard {i}: {} rows, {} segments -> {}",
            piece.num_rows(),
            piece.num_segments(),
            dir.display()
        );
    }
    Ok(())
}

/// Save `pieces` as `<root>/<name>.shard<i>` directories, first
/// removing every `<name>.shard<k>` a previous run left: leftovers at
/// indices past the new count would pass `table_dirs`' contiguity check
/// and silently add their rows to every query. Writes go highest index
/// first, so a run killed partway leaves a shard set that does not
/// start at index 0, which `table_dirs` rejects instead of querying a
/// truncated table. Returns the directories in shard order.
fn save_shards(root: &Path, name: &str, pieces: &[Table]) -> Result<Vec<PathBuf>, String> {
    for entry in std::fs::read_dir(root).into_iter().flatten().flatten() {
        if shard_index(&entry.file_name(), name).is_some() {
            std::fs::remove_dir_all(entry.path()).map_err(|e| e.to_string())?;
        }
    }
    let dirs: Vec<PathBuf> = (0..pieces.len())
        .map(|i| root.join(format!("{name}.shard{i}")))
        .collect();
    for (piece, dir) in pieces.iter().zip(&dirs).rev() {
        save_table(piece, dir).map_err(|e| e.to_string())?;
    }
    Ok(dirs)
}

/// Append a row batch to a saved table (or a sharded catalog table):
/// one raw little-endian binary per column, positional, in schema
/// order — dtypes come from the manifest. Sharded targets require
/// `--key`: the batch splits along the shards' key ranges and each
/// piece lands in its owning shard's directory, mirroring what
/// `Catalog::ingest` does in memory.
///
/// Commit semantics: each *directory* commits atomically (see
/// `append_table` — frames first, manifest installed last by rename),
/// but a multi-shard ingest commits shard by shard, in shard order.
/// A crash mid-run can therefore leave a batch half-applied: every
/// directory is individually consistent, and the progress lines below
/// name each shard as it commits, so the operator knows exactly which
/// pieces landed. Re-running the same ingest re-appends the already
/// committed pieces (duplicating those rows) — recover by re-ingesting
/// only the *unreported* shards' rows. Cross-directory atomicity needs
/// a journal above the filesystem layout; the in-memory
/// `Catalog::ingest` (one version bump) is the atomic path.
fn ingest(args: &[String]) -> Result<(), String> {
    let (mut table_name, mut key, mut scheme) = (None, None, None);
    let mut positionals = read_flags(args, |flag, value| {
        match flag {
            "--table" => table_name = Some(value.text()?),
            "--key" => key = Some(value.text()?),
            "--scheme" => scheme = Some(value.text()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if positionals.len() < 2 {
        return Err("ingest wants a directory plus one raw binary per column".into());
    }
    let root = PathBuf::from(positionals.remove(0));
    let files = positionals;
    let policy = match &scheme {
        Some(expr) => {
            parse_scheme(expr).map_err(|e| e.to_string())?; // fail early, not mid-append
            CompressionPolicy::Fixed(expr.clone())
        }
        None => CompressionPolicy::Auto,
    };

    // Resolve the target directories (manifest-only opens throughout).
    let dirs = match &table_name {
        None => vec![root.clone()],
        Some(name) => table_dirs(&root, name)?,
    };
    let open = opener(true, 1);
    let shards: Vec<Table> = dirs.iter().map(|d| open(d)).collect::<Result<_, _>>()?;
    let schema = shards[0].schema().clone();
    if files.len() != schema.width() {
        return Err(format!(
            "{} column files given, table has {} columns ({})",
            files.len(),
            schema.width(),
            schema
                .columns
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let batch: Vec<ColumnData> = files
        .iter()
        .zip(&schema.columns)
        .map(|(path, col)| read_raw_column(path, col.dtype))
        .collect::<Result<_, String>>()?;
    let policies = vec![policy; schema.width()];
    let parts = if dirs.len() == 1 {
        vec![batch]
    } else {
        // Sharded: derive routing from the shards' key ranges and split.
        let key = key.ok_or("ingest into a sharded table requires --key COL")?;
        let sharded = ShardedTable::with_key(shards, &key).map_err(|e| e.to_string())?;
        sharded.partition_batch(&batch).map_err(|e| e.to_string())?
    };
    for (dir, part) in dirs.iter().zip(&parts) {
        let part_rows = part.first().map(|c| c.len()).unwrap_or(0);
        if part_rows == 0 && parts.len() > 1 {
            continue;
        }
        let total = lcdc::store::append_table(dir, part, &policies).map_err(|e| e.to_string())?;
        eprintln!(
            "appended {part_rows} rows -> {total} total in {}",
            dir.display()
        );
    }
    Ok(())
}

/// `k` when `file_name` is `<name>.shard<k>`.
fn shard_index(file_name: &std::ffi::OsStr, name: &str) -> Option<usize> {
    let rest = file_name.to_str()?.strip_prefix(name)?;
    rest.strip_prefix(".shard")?.parse().ok()
}

/// Locate a named table under a catalog root: either a single saved
/// table at `<root>/<name>` or shard directories `<root>/<name>.shard<i>`.
/// Shard indices must be contiguous from 0 — a gap means a lost shard,
/// and silently querying a partial table would be silently wrong. Both
/// layouts at once is refused for the same reason: either one could be
/// a stale leftover, and reading it would answer from the wrong rows.
fn table_dirs(root: &Path, name: &str) -> Result<Vec<PathBuf>, String> {
    let single = root.join(name);
    let single = single.join("MANIFEST.lcdc").exists().then_some(single);
    let prefix = format!("{name}.shard");
    let mut indices: Vec<usize> = Vec::new();
    for entry in std::fs::read_dir(root).map_err(|e| format!("{}: {e}", root.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let Some(idx) = shard_index(&entry.file_name(), name) else {
            continue;
        };
        if entry.path().join("MANIFEST.lcdc").exists() {
            indices.push(idx);
        }
    }
    if let Some(single) = single {
        if indices.is_empty() {
            return Ok(vec![single]);
        }
        return Err(format!(
            "table {name:?} is both {} and {}: remove the stale one",
            single.display(),
            root.join(format!("{prefix}*")).display()
        ));
    }
    if indices.is_empty() {
        return Err(format!(
            "no table {name:?} under {} (expected {name}/ or {name}.shard0/)",
            root.display()
        ));
    }
    indices.sort_unstable();
    indices.dedup();
    if indices[0] != 0 || *indices.last().expect("non-empty") != indices.len() - 1 {
        return Err(format!(
            "table {name:?} has a shard gap: found indices {indices:?} (expected 0..{})",
            indices.len()
        ));
    }
    Ok(indices
        .iter()
        .map(|i| root.join(format!("{prefix}{i}")))
        .collect())
}

fn query(args: &[String]) -> Result<(), String> {
    let q = QueryArgs::parse(args)?;
    let dir = q.dir.clone().ok_or("missing table directory")?;
    let root = Path::new(&dir);
    let cache = q.cache.unwrap_or(lcdc::store::file::DEFAULT_SEGMENT_CACHE);
    let spec = q.spec.clone();

    let open = opener(q.lazy, cache);
    match &q.table {
        None => {
            // Direct mode: the positional path *is* the table directory.
            if let Some(join) = spec.join_spec() {
                return Err(format!(
                    "--join {:?} needs catalog mode (--table NAME): the right \
                     side is resolved by name against the catalog root",
                    join.table
                ));
            }
            let table = open(root)?;
            let builder = spec.bind(&table);
            if q.explain {
                println!("{}", builder.explain().map_err(|e| e.to_string())?);
                println!();
            }
            for _ in 0..q.repeat.max(1) {
                let result = if q.naive {
                    builder.execute_naive()
                } else {
                    builder.execute_opts(&q.opts)
                }
                .map_err(|e| e.to_string())?;
                print_result(&result.rows, &q.labels);
                print_stats(&result.stats, table.io_reads());
            }
        }
        Some(name) => {
            // Catalog mode: the positional path is a catalog root
            // holding `<name>/` or `<name>.shard<i>/` table dirs.
            if q.naive {
                return Err("--naive applies to direct table queries only".into());
            }
            let catalog = Catalog::new();
            let shards = register(&catalog, name, &table_dirs(root, name)?, &open)?;
            // A join names its right side; it must exist in the same
            // catalog, so resolve and register it alongside the left.
            if let Some(join) = spec.join_spec() {
                if join.table != *name {
                    let dirs = table_dirs(root, &join.table)?;
                    register(&catalog, &join.table, &dirs, &open)?;
                }
            }
            if q.explain {
                println!("{}", explain_entry(&catalog, name, &spec)?);
                println!("fingerprint: {:#018x}", spec.fingerprint());
                println!();
            }
            let (handle, version) = catalog.get(name).ok_or("table vanished")?;
            eprintln!(
                "-- table {name:?} v{version}: {shards} shards, {} rows",
                handle.table().num_rows()
            );
            for _ in 0..q.repeat.max(1) {
                let result = catalog
                    .execute_opts(name, &spec, &q.opts)
                    .map_err(|e| e.to_string())?;
                print_result(&result.rows, &q.labels);
                print_stats(&result.stats, handle.io_reads());
            }
        }
    }
    Ok(())
}

/// Opens a table directory whole, or with `lazy` behind a
/// `cache`-frame LRU per column.
fn opener(lazy: bool, cache: usize) -> impl Fn(&Path) -> Result<Table, String> {
    move |dir| {
        let table = if lazy {
            open_table_lazy(dir, cache)
        } else {
            load_table(dir)
        };
        table.map_err(|e| e.to_string())
    }
}

/// Open the shard directories `dirs` of table `name` (see
/// [`table_dirs`]) and register them in `catalog` as one entry. Returns
/// the shard count.
fn register(
    catalog: &Catalog,
    name: &str,
    dirs: &[PathBuf],
    open: &dyn Fn(&Path) -> Result<Table, String>,
) -> Result<usize, String> {
    let shards: Vec<Table> = dirs.iter().map(|d| open(d)).collect::<Result<_, _>>()?;
    catalog
        .register_sharded(name, shards)
        .map_err(|e| e.to_string())?;
    Ok(dirs.len())
}

/// The plan a catalog query over `name` runs: compiled once against the
/// entry's one table, with a join's whole right table bound.
fn explain_entry(catalog: &Catalog, name: &str, spec: &QuerySpec) -> Result<String, String> {
    let table = |name: &str| {
        catalog
            .get(name)
            .map(|(entry, _)| Arc::clone(entry.table()))
            .ok_or_else(|| format!("no table {name:?}"))
    };
    let left = table(name)?;
    let mut builder = spec.bind(&left);
    if let Some(join) = spec.join_spec() {
        builder = builder.join(&join.table, table(&join.table)?, &join.on);
    }
    builder.explain().map_err(|e| e.to_string())
}

/// Write a deterministic demo table — `day` (u64, slowly ascending),
/// `qty` (u64, pseudo-random 1..=50), `price` (i64, pseudo-random
/// around 0) — as `<dir>/<name>/` or, with `--shards N`, as
/// `<dir>/<name>.shard<i>/` directories ready for `lcdc serve`.
/// The ascending `day` makes the shards' key ranges disjoint, so the
/// sharded form supports keyed ingest routing and shard pruning out of
/// the box.
fn gen(args: &[String]) -> Result<(), String> {
    let mut name = "orders".to_string();
    let (mut rows, mut shards, mut seg_rows, mut seed) = (10_000usize, 0usize, 512usize, 42u64);
    let positionals = read_flags(args, |flag, value| {
        match flag {
            "--table" => name = value.text()?,
            "--rows" => rows = value.parse()?,
            "--shards" => shards = value.parse()?,
            "--seg-rows" => seg_rows = value.parse()?,
            "--seed" => seed = value.parse()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let root = PathBuf::from(one_positional(positionals, "output directory")?);
    if rows == 0 || seg_rows == 0 {
        return Err("--rows and --seg-rows must be positive".into());
    }
    // A splitmix-style generator: fully deterministic per seed, so
    // walkthroughs and smoke scripts can assert exact answers.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let day = ColumnData::U64((0..rows as u64).map(|i| 1 + i / 100).collect());
    let qty = ColumnData::U64((0..rows).map(|_| 1 + next() % 50).collect());
    let price = ColumnData::I64((0..rows).map(|_| (next() % 1000) as i64 - 300).collect());
    let schema = TableSchema::new(&[
        ("day", DType::U64),
        ("qty", DType::U64),
        ("price", DType::I64),
    ]);
    let table = Table::build(
        schema,
        &[day, qty, price],
        &[
            CompressionPolicy::Auto,
            CompressionPolicy::Auto,
            CompressionPolicy::Auto,
        ],
        seg_rows,
    )
    .map_err(|e| e.to_string())?;
    if shards <= 1 {
        let dir = root.join(&name);
        save_table(&table, &dir).map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {rows} rows ({} segments) -> {}",
            table.num_segments(),
            dir.display()
        );
    } else {
        let pieces = shard_table(&table, shards).map_err(|e| e.to_string())?;
        save_shards(&root, &name, &pieces)?;
        eprintln!(
            "wrote {rows} rows across {shards} shards -> {}/{name}.shard*",
            root.display()
        );
    }
    Ok(())
}

/// Every table under a catalog root: single `<name>/` directories and
/// `<name>.shard<i>/` groups, each resolved through `table_dirs` so
/// shard gaps are rejected at startup, not at query time.
fn discover_tables(root: &Path) -> Result<Vec<(String, Vec<PathBuf>)>, String> {
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(root).map_err(|e| format!("{}: {e}", root.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if !entry.path().join("MANIFEST.lcdc").exists() {
            continue;
        }
        let Some(dir_name) = entry.file_name().to_str().map(str::to_string) else {
            continue;
        };
        let base = match dir_name.rsplit_once(".shard") {
            Some((base, idx)) if idx.parse::<usize>().is_ok() => base.to_string(),
            _ => dir_name,
        };
        if !names.contains(&base) {
            names.push(base);
        }
    }
    names.sort();
    names
        .into_iter()
        .map(|name| table_dirs(root, &name).map(|dirs| (name, dirs)))
        .collect()
}

/// `lcdc serve`: register every table under the catalog root and serve
/// queries until a `lcdc client --shutdown` arrives, then print the
/// per-endpoint report. The bound address goes to stdout (and is
/// flushed) so scripts can wait for readiness by reading one line.
fn serve(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut lazy = false;
    let mut cache = lcdc::store::file::DEFAULT_SEGMENT_CACHE;
    let (mut fault_spec, mut fault_seed) = (None, 0u64);
    let positionals = read_flags(args, |flag, value| {
        match flag {
            "--addr" => addr = value.text()?,
            "--threads" => config.threads = value.parse()?,
            "--max-inflight" => config.max_inflight = value.parse()?,
            "--lazy" => lazy = true,
            "--cache" => cache = value.parse()?,
            "--session-timeout-ms" => {
                let ms: u64 = value.parse()?;
                config.session_timeout = std::time::Duration::from_millis(ms.max(1));
            }
            "--deadline-ms" => config.default_deadline_ms = Some(value.parse()?),
            "--faults" => fault_spec = Some(value.text()?),
            "--fault-seed" => fault_seed = value.parse()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let faults = match fault_spec {
        Some(spec) => Some(Arc::new(
            FaultPlan::parse(&spec, fault_seed).map_err(|e| format!("bad --faults: {e}"))?,
        )),
        None => None,
    };
    config.faults = faults.clone();
    let root = PathBuf::from(one_positional(positionals, "catalog directory")?);
    let tables = discover_tables(&root)?;
    if tables.is_empty() {
        return Err(format!(
            "no tables under {} (expected <name>/ or <name>.shard0/ directories)",
            root.display()
        ));
    }
    let open = opener(lazy, cache);
    let catalog = Arc::new(Catalog::new());
    for (name, dirs) in &tables {
        let shards = register(&catalog, name, dirs, &open)?;
        let (entry, _) = catalog.get(name).ok_or("table vanished")?;
        if let Some(plan) = &faults {
            entry.table().inject_faults(plan);
        }
        let rows = entry.table().num_rows();
        eprintln!("-- table {name:?}: {shards} shards, {rows} rows");
    }
    if let Some(plan) = &faults {
        eprintln!("-- fault injection armed: {}", plan.describe());
    }
    let server = Server::start(catalog, &addr, config).map_err(|e| e.to_string())?;
    // Scripts block on this exact line to learn the (possibly
    // ephemeral) port and know the server is accepting.
    println!("listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!(
        "-- stop with: lcdc client --addr {} --shutdown",
        server.addr()
    );
    server.wait();
    eprintln!("-- draining...");
    let report = server.shutdown();
    eprintln!("{report}");
    Ok(())
}

/// What `lcdc client` extracted from its command line: where to
/// connect, which action to take, and the flag vector to forward
/// verbatim for a query.
struct ClientArgs {
    addr: String,
    table: Option<String>,
    action: Option<&'static str>,
    deadline_ms: Option<u64>,
    retries: u32,
    forward: Vec<String>,
}

fn split_client_args(args: &[String]) -> Result<ClientArgs, String> {
    let (mut addr, mut table, mut action, mut deadline_ms) = (None, None, None, None);
    let (mut retries, mut forward) = (0u32, Vec::new());
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value = FlagValue {
            flag: arg,
            rest: &mut rest,
        };
        match arg.as_str() {
            "--addr" => addr = Some(value.text()?),
            "--table" => table = Some(value.text()?),
            "--deadline-ms" => deadline_ms = Some(value.parse()?),
            "--retries" => retries = value.parse()?,
            "--ping" | "--stats" | "--shutdown" => {
                let name = ["ping", "stats", "shutdown"]
                    .into_iter()
                    .find(|n| arg.ends_with(n));
                if std::mem::replace(&mut action, name).is_some() {
                    return Err("pick one of --ping / --stats / --shutdown".into());
                }
            }
            other => forward.push(other.to_string()),
        }
    }
    Ok(ClientArgs {
        addr: addr.ok_or("client requires --addr HOST:PORT")?,
        table,
        action,
        deadline_ms,
        retries,
        forward,
    })
}

/// `lcdc client`: one connection, one request, scriptable output.
/// Query flags travel to the server verbatim (the server parses them
/// with the same grammar as `lcdc query`); BUSY and error answers
/// become nonzero exits with typed messages.
fn client(args: &[String]) -> Result<(), String> {
    let parsed = split_client_args(args)?;
    let policy = RetryPolicy {
        max_retries: parsed.retries,
        ..RetryPolicy::default()
    };
    let mut client = Client::connect_with(&parsed.addr, policy).map_err(|e| e.to_string())?;
    client.set_deadline_ms(parsed.deadline_ms);
    match parsed.action {
        Some("ping") => {
            client.ping().map_err(|e| e.to_string())?;
            println!("pong");
            return Ok(());
        }
        Some("stats") => {
            let report = client.stats().map_err(|e| e.to_string())?;
            println!("{report}");
            return Ok(());
        }
        Some("shutdown") => {
            client.shutdown().map_err(|e| e.to_string())?;
            eprintln!("server acknowledged shutdown and is draining");
            return Ok(());
        }
        _ => {}
    }
    let table = parsed
        .table
        .ok_or("client requires --table NAME (or --ping/--stats/--shutdown)")?;
    // Parse locally too: catches malformed flags before a round-trip
    // and yields the aggregate labels for presentation.
    let local = QueryArgs::parse(&parsed.forward)?;
    match client
        .query(&table, &parsed.forward)
        .map_err(|e| e.to_string())?
    {
        Response::Rows {
            version,
            rows,
            stats,
        } => {
            print_result(&rows, &local.labels);
            eprintln!("-- table version {version}: {stats}");
            Ok(())
        }
        Response::Busy {
            in_flight,
            max,
            retry_after_ms,
        } => Err(format!(
            "server busy: {in_flight}/{max} requests in flight — retry after {retry_after_ms}ms"
        )),
        Response::Deadline { deadline_ms } => Err(format!("deadline of {deadline_ms}ms exceeded")),
        Response::Cancelled => Err("request cancelled by the server".into()),
        Response::ShuttingDown => Err("server is shutting down".into()),
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

fn print_result(rows: &Rows, labels: &[String]) {
    let show = |v: &Option<i128>| v.map_or("null".to_string(), |x| x.to_string());
    match rows {
        Rows::Aggregates(values) => {
            for (label, v) in labels.iter().zip(values) {
                println!("{label:<16} {}", show(v));
            }
        }
        Rows::Groups(groups) => {
            println!("{:<16} {}", "group", labels.join("  "));
            for (key, values) in groups {
                let cells: Vec<String> = values.iter().map(&show).collect();
                println!("{key:<16} {}", cells.join("  "));
            }
        }
        Rows::TopK(values) | Rows::Distinct(values) => {
            for v in values {
                println!("{v}");
            }
        }
        Rows::Joined(pairs) => {
            println!("{:<16} pairs", "key");
            for (key, count) in pairs {
                println!("{key:<16} {count}");
            }
        }
    }
}

fn print_stats(stats: &QueryStats, io_reads: usize) {
    eprintln!("-- {stats} ({io_reads} frames read from disk so far)");
}

fn choose(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let dtype = opts.dtype.ok_or("choose requires --dtype")?;
    let col = read_raw_column(&opts.input, dtype)?;
    let choice = chooser::choose_best(&col).map_err(|e| e.to_string())?;
    print!("{}", choice_report(&choice, col.uncompressed_bytes()));
    Ok(())
}

/// Every candidate once, in ranking order: its exact size and ratio, or
/// the floor it was pruned by, or that it cannot encode the column;
/// then the winner.
fn choice_report(choice: &chooser::Choice, uncompressed: usize) -> String {
    let mut out = format!("{:<52} {:>20} {:>8}\n", "scheme", "bytes", "ratio");
    for (expr, size) in &choice.ranking {
        let ratio = match size {
            chooser::Size::Exact(n) => format!("{:.2}x", uncompressed as f64 / *n.max(&1) as f64),
            _ => String::new(),
        };
        out += format!("{expr:<52} {:>20} {ratio:>8}", size.to_string()).trim_end();
        out.push('\n');
    }
    out + &format!("\nwinner: {}\n", choice.expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_lists_every_candidate_and_what_was_pruned() {
        let col = ColumnData::U64((0..100u64).flat_map(|d| [d * 7; 40]).collect());
        let choice = chooser::choose_best(&col).unwrap();
        let report = choice_report(&choice, col.uncompressed_bytes());
        let line = |expr: &str| {
            let lines: Vec<&str> = report
                .lines()
                .filter(|l| l.starts_with(&format!("{expr} ")))
                .collect();
            assert_eq!(lines.len(), 1, "{expr} listed {} times", lines.len());
            lines[0].to_string()
        };
        assert!(choice.expr.starts_with("rle["), "chose {}", choice.expr);
        for expr in chooser::default_candidates() {
            line(expr);
        }
        assert!(line("sparse").contains("(pruned)"));
        assert!(line("pstep(l=128)").contains("(pruned)"));
        assert!(line("id").contains(">= 32000 (pruned)"));
        assert!(line("const").contains("not representable"));
        assert!(line(&choice.expr).ends_with('x'));
        assert!(report.ends_with(&format!("\nwinner: {}\n", choice.expr)));
    }

    #[test]
    fn dtype_parsing() {
        assert_eq!(parse_dtype("u64").unwrap(), DType::U64);
        assert!(parse_dtype("f32").is_err());
    }

    #[test]
    fn opts_parsing() {
        let args: Vec<String> = [
            "in.bin", "-o", "out.lcdc", "--dtype", "i32", "--scheme", "rle",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_opts(&args).unwrap();
        assert_eq!(opts.input, "in.bin");
        assert_eq!(opts.output.as_deref(), Some("out.lcdc"));
        assert_eq!(opts.dtype, Some(DType::I32));
        assert_eq!(opts.scheme.as_deref(), Some("rle"));
        assert!(parse_opts(&["a".into(), "b".into()]).is_err());
        assert!(parse_opts(&["--bogus".into()]).is_err());
    }

    #[test]
    fn raw_column_round_trip() {
        let dir = std::env::temp_dir().join(format!("lcdc_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("col.bin");
        for col in [
            ColumnData::U32(vec![7, 0, u32::MAX]),
            ColumnData::U64(vec![7, 0, u64::MAX]),
            ColumnData::I32(vec![-5, 0, i32::MIN, i32::MAX]),
            ColumnData::I64(vec![-5, 0, 1 << 40, i64::MIN]),
        ] {
            write_raw_column(path.to_str().unwrap(), &col).unwrap();
            let back = read_raw_column(path.to_str().unwrap(), col.dtype()).unwrap();
            assert_eq!(back, col);
        }
        // Misaligned length rejected.
        std::fs::write(&path, [0u8; 7]).unwrap();
        assert!(read_raw_column(path.to_str().unwrap(), DType::U64).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn end_to_end_compress_decompress() {
        let dir = std::env::temp_dir().join(format!("lcdc_cli_e2e_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("in.bin");
        let packed = dir.join("out.lcdc");
        let restored = dir.join("back.bin");
        let col = ColumnData::U64((0..5000u64).map(|i| 20_180_101 + i / 40).collect());
        write_raw_column(raw.to_str().unwrap(), &col).unwrap();

        let s = |p: &std::path::Path| p.to_str().unwrap().to_string();
        run(&[
            "compress".into(),
            s(&raw),
            "-o".into(),
            s(&packed),
            "--dtype".into(),
            "u64".into(),
        ])
        .unwrap();
        assert!(std::fs::metadata(&packed).unwrap().len() < 5000 * 8 / 10);
        run(&["info".into(), s(&packed)]).unwrap();
        run(&["decompress".into(), s(&packed), "-o".into(), s(&restored)]).unwrap();
        assert_eq!(
            read_raw_column(restored.to_str().unwrap(), DType::U64).unwrap(),
            col
        );
        run(&["choose".into(), s(&raw), "--dtype".into(), "u64".into()]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_commands_error() {
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate".into()]).is_err());
        assert!(run(&["compress".into(), "nope.bin".into()]).is_err());
    }

    #[test]
    fn predicate_specs_parse() {
        // The grammar lives in lcdc::store::query::args now (shared
        // with the serving layer); the CLI keeps one sanity probe.
        use lcdc::store::query::args::{parse_disjunction, parse_predicate};
        use lcdc::store::Predicate;
        assert_eq!(
            parse_predicate("day=5..9").unwrap(),
            ("day".to_string(), Predicate::Range { lo: 5, hi: 9 })
        );
        assert_eq!(
            parse_predicate("qty=-3").unwrap(),
            ("qty".to_string(), Predicate::Eq(-3))
        );
        assert!(parse_predicate("no-equals").is_err());
        let any = parse_disjunction("day=1..5,qty=7").unwrap();
        assert_eq!(any.len(), 2);
        // in: inside --any is ambiguous and rejected with a clear error.
        let err = parse_disjunction("day=in:1,5,qty=7").unwrap_err();
        assert!(err.contains("--any cannot contain an in:"), "{err}");
    }

    #[test]
    fn query_subcommand_end_to_end() {
        use lcdc::store::{Agg, Predicate};

        let dir = std::env::temp_dir().join(format!("lcdc_cli_query_{}", std::process::id()));
        let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
        let day = ColumnData::U64((0..2000u64).map(|i| 1 + i / 100).collect());
        let qty = ColumnData::U64((0..2000u64).map(|i| 1 + i % 7).collect());
        let table = Table::build(
            schema,
            &[day, qty],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            256,
        )
        .unwrap();
        save_table(&table, &dir).unwrap();

        let s = |t: &str| t.to_string();
        let d = dir.to_str().unwrap().to_string();
        // Filtered grouped aggregate, explained, sequential and parallel.
        for extra in [
            vec![],
            vec![s("--naive")],
            vec![s("--threads"), s("4")],
            vec![
                s("--threads"),
                s("2"),
                s("--prefetch"),
                s("4"),
                s("--ordered-filters"),
            ],
        ] {
            let mut args = vec![
                d.clone(),
                s("--filter"),
                s("day=3..7"),
                s("--group-by"),
                s("day"),
                s("--sum"),
                s("qty"),
                s("--count"),
                s("--explain"),
            ];
            args.extend(extra);
            query(&args).unwrap();
        }
        // Top-k and distinct sinks, the = spelling of a flag, and a
        // prefetch depth that is not a number refused.
        query(&[d.clone(), s("--top-k"), s("qty:5")]).unwrap();
        query(&[d.clone(), s("--top-k=qty:5"), s("--threads"), s("4")]).unwrap();
        assert!(query(&[d.clone(), s("--top-k=qty:5"), s("--prefetch=auto")]).is_err());
        query(&[d.clone(), s("--distinct"), s("day")]).unwrap();
        // IN and OR filters, lazily opened.
        query(&[
            d.clone(),
            s("--lazy"),
            s("--filter"),
            s("day=in:3,5,9"),
            s("--any"),
            s("day=1..2,qty=7"),
            s("--count"),
        ])
        .unwrap();
        // `--table NAME --explain` prints the plan that runs: compiled
        // once over every shard, it is the unsharded table's plan.
        let root = dir.join("catalog");
        for (i, shard) in shard_table(&table, 3).unwrap().iter().enumerate() {
            save_table(shard, &root.join(format!("orders.shard{i}"))).unwrap();
        }
        let spec = QuerySpec::new()
            .filter("qty", Predicate::Range { lo: 1, hi: 3 })
            .filter("day", Predicate::Range { lo: 1, hi: 7 })
            .aggregate(&[Agg::Count]);
        let catalog = Catalog::new();
        let dirs = table_dirs(&root, "orders").unwrap();
        assert_eq!(
            register(&catalog, "orders", &dirs, &opener(false, 8)),
            Ok(3)
        );
        assert_eq!(
            explain_entry(&catalog, "orders", &spec),
            spec.bind(&table).explain().map_err(|e| e.to_string())
        );
        // Errors surface instead of panicking.
        assert!(query(&[d.clone(), s("--sum"), s("nope")]).is_err());
        assert!(query(std::slice::from_ref(&d)).is_err()); // no sink
        assert!(query(&[s("--sum"), s("qty")]).is_err()); // no table dir
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_subcommand_end_to_end() {
        use lcdc::store::{save_table, Table, TableSchema};

        let root = std::env::temp_dir().join(format!("lcdc_cli_ingest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
        let build = |day0: u64| {
            let day = ColumnData::U64((0..1000u64).map(|i| day0 + i / 100).collect());
            let qty = ColumnData::U64((0..1000u64).map(|i| 1 + i % 7).collect());
            Table::build(
                schema.clone(),
                &[day, qty],
                &[CompressionPolicy::Auto, CompressionPolicy::Auto],
                256,
            )
            .unwrap()
        };
        let plain_dir = root.join("orders");
        save_table(&build(1), &plain_dir).unwrap();

        // Batch files: days spanning both future shard ranges.
        let day_bin = root.join("day.bin");
        let qty_bin = root.join("qty.bin");
        write_raw_column(
            day_bin.to_str().unwrap(),
            &ColumnData::U64(vec![5, 1005, 9]),
        )
        .unwrap();
        write_raw_column(qty_bin.to_str().unwrap(), &ColumnData::U64(vec![7, 7, 7])).unwrap();

        let s = |t: &str| t.to_string();
        let p = |pb: &std::path::Path| pb.to_str().unwrap().to_string();
        // Direct mode: append to the single saved table.
        run(&[s("ingest"), p(&plain_dir), p(&day_bin), p(&qty_bin)]).unwrap();
        assert_eq!(load_table(&plain_dir).unwrap().num_rows(), 1003);

        // Sharded catalog mode: two keyed shard dirs, batch split by day.
        save_table(&build(1), &root.join("sharded.shard0")).unwrap();
        save_table(&build(1001), &root.join("sharded.shard1")).unwrap();
        run(&[
            s("ingest"),
            p(&root),
            s("--table"),
            s("sharded"),
            s("--key"),
            s("day"),
            p(&day_bin),
            p(&qty_bin),
        ])
        .unwrap();
        assert_eq!(
            load_table(&root.join("sharded.shard0")).unwrap().num_rows(),
            1002,
            "days 5 and 9 route to the low shard"
        );
        assert_eq!(
            load_table(&root.join("sharded.shard1")).unwrap().num_rows(),
            1001,
            "day 1005 routes to the high shard"
        );
        // And the grown sharded table queries coherently end to end.
        query(&[
            p(&root),
            s("--table"),
            s("sharded"),
            s("--lazy"),
            s("--filter"),
            s("day=5..5"),
            s("--count"),
        ])
        .unwrap();

        // Errors: sharded without --key, wrong file count, bad scheme.
        assert!(run(&[
            s("ingest"),
            p(&root),
            s("--table"),
            s("sharded"),
            p(&day_bin),
            p(&qty_bin)
        ])
        .is_err());
        assert!(run(&[s("ingest"), p(&plain_dir), p(&day_bin)]).is_err());
        assert!(run(&[
            s("ingest"),
            p(&plain_dir),
            s("--scheme"),
            s("zstd"),
            p(&day_bin),
            p(&qty_bin)
        ])
        .is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gen_discover_and_serve_roundtrip() {
        let root = std::env::temp_dir().join(format!("lcdc_cli_gen_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let s = |t: &str| t.to_string();
        let r = root.to_str().unwrap().to_string();
        // A single table and a sharded one under the same root.
        gen(&[r.clone(), s("--rows"), s("2000"), s("--seg-rows"), s("256")]).unwrap();
        gen(&[
            r.clone(),
            s("--table"),
            s("events"),
            s("--rows"),
            s("3000"),
            s("--shards"),
            s("3"),
            s("--seed"),
            s("7"),
        ])
        .unwrap();
        // Same seed, same bytes: generation is deterministic.
        let other = root.join("again");
        std::fs::create_dir_all(&other).unwrap();
        gen(&[
            other.to_str().unwrap().to_string(),
            s("--rows"),
            s("2000"),
            s("--seg-rows"),
            s("256"),
        ])
        .unwrap();
        let a = std::fs::read(root.join("orders/MANIFEST.lcdc")).unwrap();
        let b = std::fs::read(other.join("orders/MANIFEST.lcdc")).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&other).unwrap();

        let tables = discover_tables(&root).unwrap();
        let names: Vec<&str> = tables.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["events", "orders"]);
        assert_eq!(tables[0].1.len(), 3, "events resolves to its 3 shards");
        assert_eq!(tables[1].1.len(), 1);

        // Serve the generated root end to end over a real socket.
        let catalog = Arc::new(Catalog::new());
        for (name, dirs) in &tables {
            register(&catalog, name, dirs, &opener(false, 8)).unwrap();
        }
        let server = Server::start(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr().to_string();
        // The client subcommand drives ping, a query, stats, shutdown.
        client(&[s("--addr"), addr.clone(), s("--ping")]).unwrap();
        client(&[
            s("--addr"),
            addr.clone(),
            s("--table"),
            s("orders"),
            s("--filter"),
            s("day=2..5"),
            s("--sum"),
            s("qty"),
            s("--count"),
        ])
        .unwrap();
        client(&[s("--addr"), addr.clone(), s("--stats")]).unwrap();
        // Storage flags are refused by the server, loudly.
        let err = client(&[
            s("--addr"),
            addr.clone(),
            s("--table"),
            s("orders"),
            s("--lazy"),
            s("--count"),
        ])
        .unwrap_err();
        assert!(err.contains("--lazy"), "{err}");
        client(&[s("--addr"), addr.clone(), s("--shutdown")]).unwrap();
        server.wait();
        let report = server.shutdown();
        assert_eq!(report.rejected, 0);
        assert!(report.served >= 4);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn client_args_split() {
        let s = |t: &str| t.to_string();
        let split = split_client_args(&[
            s("--addr"),
            s("127.0.0.1:7878"),
            s("--table"),
            s("orders"),
            s("--filter"),
            s("day=1..2"),
            s("--count"),
        ])
        .unwrap();
        assert_eq!(split.addr, "127.0.0.1:7878");
        assert_eq!(split.table.as_deref(), Some("orders"));
        assert_eq!(split.action, None);
        // --table is extracted — it must NOT travel to the server,
        // where it is a rejected storage flag.
        assert_eq!(split.forward, ["--filter", "day=1..2", "--count"]);
        let split = split_client_args(&[s("--addr"), s("x:1"), s("--stats")]).unwrap();
        assert_eq!(split.action, Some("stats"));
        assert!(split_client_args(&[s("--ping")]).is_err(), "addr required");
        assert!(
            split_client_args(&[s("--addr"), s("x:1"), s("--ping"), s("--stats")]).is_err(),
            "one action at a time"
        );
    }

    #[test]
    fn a_stale_single_dir_beside_shards_is_refused() {
        let root = std::env::temp_dir().join(format!("lcdc_cli_stale_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let s = |t: &str| t.to_string();
        let r = root.to_str().unwrap().to_string();
        run(&[s("gen"), r.clone(), s("--rows"), s("1000")]).unwrap();
        let gen_sharded = [
            s("gen"),
            r.clone(),
            s("--rows"),
            s("3000"),
            s("--shards"),
            s("2"),
        ];
        run(&gen_sharded).unwrap();
        let err = table_dirs(&root, "orders").unwrap_err();
        let single = root.join("orders");
        assert!(err.contains(single.to_str().unwrap()), "{err}");
        assert!(err.contains("orders.shard"), "{err}");
        assert!(query(&[r.clone(), s("--table"), s("orders"), s("--count")]).is_err());
        assert!(discover_tables(&root).is_err(), "serve refuses it too");
        // Without the stale directory, the shards resolve.
        std::fs::remove_dir_all(&single).unwrap();
        assert_eq!(table_dirs(&root, "orders").unwrap().len(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Regenerating a sharded table with fewer shards removes the
    /// shards past the new count, so a count reads only the new rows.
    #[test]
    fn regenerating_with_fewer_shards_leaves_no_stale_shard() {
        let root = std::env::temp_dir().join(format!("lcdc_cli_regen_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let s = |t: &str| t.to_string();
        let r = root.to_str().unwrap().to_string();
        for shards in ["4", "2"] {
            run(&[
                s("gen"),
                r.clone(),
                s("--rows"),
                s("3000"),
                s("--shards"),
                s(shards),
            ])
            .unwrap();
        }
        let dirs = table_dirs(&root, "orders").unwrap();
        assert_eq!(dirs.len(), 2);
        let catalog = Catalog::new();
        register(&catalog, "orders", &dirs, &opener(false, 8)).unwrap();
        let count = QuerySpec::new().aggregate(&[lcdc::store::Agg::Count]);
        let result = catalog.execute("orders", &count).unwrap();
        assert_eq!(result.aggregates().unwrap(), &[Some(3000)]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shard_and_catalog_query_end_to_end() {
        use lcdc::store::{CompressionPolicy, Table, TableSchema};

        let root = std::env::temp_dir().join(format!("lcdc_cli_catalog_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let plain_dir = root.join("orders_plain");
        let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
        let day = ColumnData::U64((0..4000u64).map(|i| 1 + i / 100).collect());
        let qty = ColumnData::U64((0..4000u64).map(|i| 1 + i % 7).collect());
        let table = Table::build(
            schema,
            &[day, qty],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            256,
        )
        .unwrap();
        save_table(&table, &plain_dir).unwrap();

        let s = |t: &str| t.to_string();
        let r = root.to_str().unwrap().to_string();
        // Split into 3 shard dirs under the catalog root.
        run(&[
            s("shard"),
            plain_dir.to_str().unwrap().to_string(),
            s("-o"),
            r.clone(),
            s("--table"),
            s("orders"),
            s("--shards"),
            s("3"),
        ])
        .unwrap();
        assert!(root.join("orders.shard0/MANIFEST.lcdc").exists());
        assert!(root.join("orders.shard2/MANIFEST.lcdc").exists());
        // Query the sharded table through the catalog, lazily, twice
        // (the second run hits the result cache).
        query(&[
            r.clone(),
            s("--table"),
            s("orders"),
            s("--lazy"),
            s("--repeat"),
            s("2"),
            s("--threads"),
            s("3"),
            s("--prefetch"),
            s("4"),
            s("--filter"),
            s("day=5..9"),
            s("--sum"),
            s("qty"),
            s("--count"),
            s("--explain"),
        ])
        .unwrap();
        // Equi-join through the catalog: sharded left, single right
        // (the unsharded source doubles as the right table), explained.
        query(&[
            r.clone(),
            s("--table"),
            s("orders"),
            s("--join"),
            s("orders_plain"),
            s("--on"),
            s("day"),
            s("--filter"),
            s("day=5..9"),
            s("--lazy"),
            s("--explain"),
        ])
        .unwrap();
        // Self-join resolves the same catalog entry on both sides.
        query(&[
            r.clone(),
            s("--table"),
            s("orders"),
            s("--join"),
            s("orders"),
            s("--on"),
            s("day"),
        ])
        .unwrap();
        // Direct mode refuses --join: the right side is a catalog name
        // and there is no catalog to resolve it against.
        let err = query(&[
            plain_dir.to_str().unwrap().to_string(),
            s("--join"),
            s("orders"),
            s("--on"),
            s("day"),
        ])
        .unwrap_err();
        assert!(err.contains("catalog mode"), "{err}");
        // A missing middle shard is a hard error, never a silently
        // partial answer.
        std::fs::remove_dir_all(root.join("orders.shard1")).unwrap();
        assert!(query(&[r.clone(), s("--table"), s("orders"), s("--count")]).is_err());
        // Unknown table errors; --naive is direct-mode only.
        assert!(query(&[r.clone(), s("--table"), s("nope"), s("--count")]).is_err());
        assert!(query(&[
            r.clone(),
            s("--table"),
            s("orders"),
            s("--naive"),
            s("--count")
        ])
        .is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
