//! The write path's contract, end to end: batches route to the owning
//! shards by key range, visibility flips under exactly one catalog
//! version bump, pre-ingest cached results are never served
//! post-ingest, and ingest works the same over lazily-backed
//! (file-sourced) shards as over resident ones.

use lcdc::core::{ColumnData, DType};
use lcdc::store::{
    append_table, open_table_lazy, save_table, Agg, Catalog, CatalogTable, CompressionPolicy,
    Predicate, QuerySpec, ShardedTable, Table, TableSchema,
};
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

/// Orders for `days` consecutive days starting at `first_day`:
/// `rows_per_day` rows each, qty cycling 1..=50.
fn orders(first_day: u64, days: u64, rows_per_day: u64) -> Table {
    let n = days * rows_per_day;
    let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
    let day = ColumnData::U64((0..n).map(|i| first_day + i / rows_per_day).collect());
    let qty = ColumnData::U64((0..n).map(|i| 1 + i % 50).collect());
    Table::build(
        schema,
        &[day, qty],
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        256,
    )
    .expect("table builds")
}

fn batch(days: &[u64], qty: u64) -> Vec<ColumnData> {
    vec![
        ColumnData::U64(days.to_vec()),
        ColumnData::U64(vec![qty; days.len()]),
    ]
}

fn count_in(catalog: &Catalog, name: &str, lo: i128, hi: i128) -> (i128, usize) {
    let spec = QuerySpec::new()
        .filter("day", Predicate::Range { lo, hi })
        .aggregate(&[Agg::Count]);
    let result = catalog.execute(name, &spec).expect("executes");
    (
        result.aggregates().expect("aggregate sink")[0].expect("count"),
        result.stats.result_cache_hits,
    )
}

/// Save keyed shards as lazy directories under `root` and register.
fn lazy_keyed_catalog(root: &Path, shards: &[Table], key: &str) -> Catalog {
    let mut lazy = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let dir = root.join(format!("orders.shard{i}"));
        save_table(shard, &dir).expect("saves");
        lazy.push(open_table_lazy(&dir, 8).expect("opens"));
    }
    let catalog = Catalog::new();
    catalog
        .register_sharded_keyed("orders", lazy, key)
        .expect("registers");
    catalog
}

/// The acceptance scenario: a sharded, *lazily-backed* catalog table
/// takes one batch spanning two shard key ranges. Rows land in the
/// correct shards (proved by per-shard row counts and per-shard
/// `QueryStats` over each range), the version bumps exactly once, and
/// the pre-ingest cached result is re-executed, returning the new rows.
#[test]
fn spanning_batch_into_lazy_sharded_catalog() {
    let root = std::env::temp_dir().join(format!("lcdc_ingest_accept_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Shard 0: days 1..=10, shard 1: days 1001..=1010.
    let catalog = lazy_keyed_catalog(&root, &[orders(1, 10, 100), orders(1001, 10, 100)], "day");
    let v1 = catalog.version("orders").expect("registered");

    // Warm the cache on both ranges, then prove the hits.
    let (low_before, _) = count_in(&catalog, "orders", 1, 500);
    let (high_before, _) = count_in(&catalog, "orders", 1001, 1500);
    assert_eq!((low_before, high_before), (1000, 1000));
    assert_eq!(count_in(&catalog, "orders", 1, 500).1, 1, "cache warm");

    // One batch spanning both key ranges: 3 rows for shard 0 (one on
    // the boundary day 10), 2 rows for shard 1.
    let v2 = catalog
        .ingest("orders", &batch(&[5, 1005, 10, 9, 2000], 7))
        .expect("ingests");
    assert_eq!(v2, v1 + 1, "exactly one version bump for the whole batch");

    // Rows landed in the correct shards...
    let (table, _) = catalog.get("orders").expect("registered");
    let CatalogTable::Sharded(sharded) = &table else {
        panic!("stays sharded");
    };
    assert_eq!(sharded.shards()[0].num_rows(), 1003);
    assert_eq!(sharded.shards()[1].num_rows(), 1002);

    // ...proved through per-shard QueryStats as well: a range query
    // over one shard's keys prunes the other shard wholesale, so the
    // count it returns was answered by the owning shard alone.
    let low = QuerySpec::new()
        .filter("day", Predicate::Range { lo: 1, hi: 500 })
        .aggregate(&[Agg::Count]);
    let after_low = catalog.execute("orders", &low).expect("executes");
    assert_eq!(after_low.stats.result_cache_hits, 0, "stale cache dropped");
    assert_eq!(after_low.stats.shards_pruned, 1, "{:?}", after_low.stats);
    assert_eq!(after_low.aggregates().unwrap(), &[Some(1003)]);
    let high = QuerySpec::new()
        .filter("day", Predicate::Range { lo: 1001, hi: 1500 })
        .aggregate(&[Agg::Count]);
    let after_high = catalog.execute("orders", &high).expect("executes");
    assert_eq!(after_high.stats.shards_pruned, 1, "{:?}", after_high.stats);
    assert_eq!(after_high.aggregates().unwrap(), &[Some(1001)]);
    // The out-of-every-range row (day 2000) went to the last shard.
    let (beyond, _) = count_in(&catalog, "orders", 1501, 5000);
    assert_eq!(beyond, 1);

    // And the new result re-caches under the new version.
    assert_eq!(
        catalog
            .execute("orders", &low)
            .unwrap()
            .stats
            .result_cache_hits,
        1
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn empty_batch_is_invisible() {
    let catalog = Catalog::new();
    let v1 = catalog
        .register_sharded_keyed(
            "orders",
            vec![orders(1, 10, 50), orders(1001, 10, 50)],
            "day",
        )
        .expect("registers");
    let before = count_in(&catalog, "orders", 1, 5000);
    let same = catalog.ingest("orders", &batch(&[], 0)).expect("no-op");
    assert_eq!(same, v1, "no version bump");
    let after = count_in(&catalog, "orders", 1, 5000);
    assert_eq!(after.0, before.0);
    assert_eq!(after.1, 1, "the cached result keeps being served");
}

#[test]
fn boundary_batch_lands_in_the_lower_shard() {
    let catalog = Catalog::new();
    catalog
        .register_sharded_keyed(
            "orders",
            vec![orders(1, 10, 50), orders(1001, 10, 50)],
            "day",
        )
        .expect("registers");
    // Every key exactly on shard 0's upper bound (day 10): all of it
    // belongs to shard 0, none leaks into shard 1.
    catalog
        .ingest("orders", &batch(&[10, 10, 10], 1))
        .expect("ingests");
    let (table, _) = catalog.get("orders").expect("registered");
    let CatalogTable::Sharded(sharded) = &table else {
        panic!("sharded");
    };
    assert_eq!(sharded.shards()[0].num_rows(), 503);
    assert_eq!(sharded.shards()[1].num_rows(), 500);
    // The key one past the boundary goes high.
    catalog.ingest("orders", &batch(&[11], 1)).expect("ingests");
    let (table, _) = catalog.get("orders").expect("registered");
    let CatalogTable::Sharded(sharded) = &table else {
        panic!("sharded");
    };
    assert_eq!(sharded.shards()[1].num_rows(), 501);
}

#[test]
fn lazy_table_ingest_reads_no_frames() {
    // Appending to a file-backed table must not load any existing
    // segment: encoding touches only the batch, and each column keeps
    // its file-backed base lazy beneath the appended segments.
    let root = std::env::temp_dir().join(format!("lcdc_ingest_lazy_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("orders");
    save_table(&orders(1, 20, 100), &dir).expect("saves");
    let lazy = open_table_lazy(&dir, 8).expect("opens");

    let catalog = Catalog::new();
    catalog.register("orders", lazy);
    catalog
        .ingest("orders", &batch(&[3, 7], 9))
        .expect("ingests");
    let (table, _) = catalog.get("orders").expect("registered");
    assert_eq!(table.table().num_rows(), 2002);
    assert_eq!(table.io_reads(), 0, "ingest fetched no existing frame");

    // A zone-pruned query over the appended region reads only the
    // frames its tiers touch; the appended rows are visible.
    let (count, _) = count_in(&catalog, "orders", 3, 3);
    assert_eq!(count, 101);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn on_disk_ingest_matches_in_memory_append() {
    // The CLI-facing path: append_table on a saved directory, reopened
    // lazily, equals Table::append of the same batch.
    let root = std::env::temp_dir().join(format!("lcdc_ingest_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("t");
    let table = orders(1, 12, 70);
    save_table(&table, &dir).expect("saves");
    let extra = batch(&[4, 9, 2], 3);
    let total = append_table(
        &dir,
        &extra,
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
    )
    .expect("appends");
    assert_eq!(total, 843);
    let want = table.append(&extra).expect("appends in memory");
    let reopened = open_table_lazy(&dir, 8).expect("reopens");
    for col in ["day", "qty"] {
        assert_eq!(
            reopened.materialize(col).unwrap(),
            want.materialize(col).unwrap(),
            "{col}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn routed_on_disk_ingest_places_like_the_catalog() {
    // lcdc ingest's sharded mode in library form: derive routing from
    // the shard manifests, split, append per directory — then verify
    // the directories answer like a catalog that ingested in memory.
    let root = std::env::temp_dir().join(format!("lcdc_ingest_route_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let shards = [orders(1, 10, 40), orders(1001, 10, 40)];
    let dirs: Vec<_> = (0..2)
        .map(|i| root.join(format!("orders.shard{i}")))
        .collect();
    for (shard, dir) in shards.iter().zip(&dirs) {
        save_table(shard, dir).expect("saves");
    }
    let lazy: Vec<Table> = dirs
        .iter()
        .map(|d| open_table_lazy(d, 4).expect("opens"))
        .collect();
    let sharded = ShardedTable::with_key(lazy, "day").expect("keys");
    let parts = sharded
        .partition_batch(&batch(&[2, 1002, 10, 11], 5))
        .expect("splits");
    for (dir, part) in dirs.iter().zip(&parts) {
        append_table(
            dir,
            part,
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        )
        .expect("appends");
    }
    let s0 = open_table_lazy(&dirs[0], 4).expect("reopens");
    let s1 = open_table_lazy(&dirs[1], 4).expect("reopens");
    assert_eq!(s0.num_rows(), 402, "days 2 and 10 route low");
    assert_eq!(s1.num_rows(), 402, "days 1002 and 11 route high");
    std::fs::remove_dir_all(&root).ok();
}

/// A random spec cached at version v must never be served after an
/// ingest: the post-ingest execution runs for real and reflects the
/// appended rows whenever they fall inside the spec's window.
fn spec_for(lo: i128, width: i128, operator: usize) -> QuerySpec {
    let filtered = QuerySpec::new().filter("day", Predicate::Range { lo, hi: lo + width });
    match operator % 3 {
        0 => filtered.aggregate(&[Agg::Count, Agg::Sum("qty")]),
        1 => filtered.group_by("day").aggregate(&[Agg::Count]),
        _ => filtered.distinct("day"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_results_never_survive_an_ingest(
        lo in 1i128..1900,
        width in 0i128..600,
        operator in 0usize..3,
        day in 1u64..1900,
        copies in 1usize..40,
    ) {
        let catalog = Catalog::new();
        catalog
            .register_sharded_keyed(
                "orders",
                vec![orders(1, 10, 50), orders(1001, 10, 50)],
                "day",
            )
            .expect("registers");
        let spec = spec_for(lo, width, operator);
        let first = catalog.execute("orders", &spec).expect("runs");
        prop_assert_eq!(first.stats.result_cache_hits, 0);
        let warm = catalog.execute("orders", &spec).expect("repeats");
        prop_assert_eq!(warm.stats.result_cache_hits, 1);

        let days = vec![day; copies];
        catalog.ingest("orders", &batch(&days, 13)).expect("ingests");
        let after = catalog.execute("orders", &spec).expect("re-runs");
        prop_assert_eq!(
            after.stats.result_cache_hits, 0,
            "a pre-ingest result was served post-ingest"
        );
        // When the ingested day falls inside the window, the fresh
        // execution must differ from the cached one exactly where the
        // batch says it should.
        if operator % 3 == 0 && (lo..=lo + width).contains(&(day as i128)) {
            let before_vals = first.aggregates().expect("agg");
            let after_vals = after.aggregates().expect("agg");
            prop_assert_eq!(after_vals[0], before_vals[0].map(|c| c + copies as i128));
            prop_assert_eq!(
                after_vals[1],
                before_vals[1].map(|s| s + 13 * copies as i128)
            );
        }
    }
}

/// What one catalog entry should hold: each shard's `(day, qty)` rows
/// in order, and the routing boundaries when the entry is routed.
struct Model {
    shards: Vec<Vec<(u64, u64)>>,
    uppers: Option<Vec<u64>>,
}

/// A table's `(day, qty)` rows, in order.
fn rows_of(table: &Table) -> Vec<(u64, u64)> {
    let column = |name| table.materialize(name).expect("materializes");
    let (day, qty) = (column("day"), column("qty"));
    (0..table.num_rows())
        .map(|i| {
            (
                day.get_numeric(i).unwrap() as u64,
                qty.get_numeric(i).unwrap() as u64,
            )
        })
        .collect()
}

/// The `[min, max]` of the rows' days, if there are rows.
fn day_range(rows: &[(u64, u64)]) -> Option<(u64, u64)> {
    let days = rows.iter().map(|&(day, _)| day);
    Some((days.clone().min()?, days.max()?))
}

impl Model {
    fn new(shards: &[Table], routed: bool) -> Model {
        let mut model = Model {
            shards: shards.iter().map(rows_of).collect(),
            uppers: routed.then(Vec::new),
        };
        assert!(model.derive_uppers(), "the registered shards route");
        model
    }

    /// Re-derive a routed entry's boundaries from its shards' day
    /// ranges; `false` when they do not ascend without overlapping.
    fn derive_uppers(&mut self) -> bool {
        let Some(uppers) = &mut self.uppers else {
            return true;
        };
        let ranges: Option<Vec<(u64, u64)>> = self.shards.iter().map(|s| day_range(s)).collect();
        let Some(ranges) = ranges else {
            return false;
        };
        if ranges.windows(2).any(|w| w[0].1 > w[1].0) {
            return false;
        }
        *uppers = ranges.iter().map(|&(_, hi)| hi).collect();
        uppers.pop();
        true
    }

    /// Each row to the shard its day routes to, or to the last shard.
    fn ingest(&mut self, days: &[u64], qty: u64) {
        for &day in days {
            let shard = match &self.uppers {
                Some(uppers) => uppers.partition_point(|&upper| upper < day),
                None => self.shards.len() - 1,
            };
            self.shards[shard].push((day, qty));
        }
    }

    /// Whether `shard` is accepted; a refused one changes nothing.
    fn add_shard(&mut self, shard: &Table) -> bool {
        self.shards.push(rows_of(shard));
        let accepted = self.derive_uppers();
        if !accepted {
            self.shards.pop();
        }
        accepted
    }
}

/// `[count, sum(qty)]` over the rows whose day is in `lo..=hi`.
fn count_sum(rows: &[(u64, u64)], (lo, hi): (u64, u64)) -> Vec<Option<i128>> {
    let hits = rows.iter().filter(|&&(day, _)| (lo..=hi).contains(&day));
    let (count, sum) = hits.fold((0, 0), |(n, s), &(_, qty)| (n + 1, s + i128::from(qty)));
    vec![Some(count), Some(sum)]
}

/// Every shard of `name` holds its model's rows: per-shard row counts,
/// and count and sum over each shard's day range, read from the shard
/// alone and from the whole entry.
fn check_against(catalog: &Catalog, name: &str, model: &Model) {
    let (entry, _) = catalog.get(name).expect("registered");
    let shards = match &entry {
        CatalogTable::Single(table) => vec![Arc::clone(table)],
        CatalogTable::Sharded(sharded) => sharded.shards(),
    };
    assert_eq!(shards.len(), model.shards.len(), "{name}: shard count");
    let everything: Vec<(u64, u64)> = model.shards.concat();
    for (i, (shard, rows)) in shards.iter().zip(&model.shards).enumerate() {
        assert_eq!(shard.num_rows(), rows.len(), "{name} shard {i}: rows");
        let Some(range) = day_range(rows) else {
            continue;
        };
        let spec = QuerySpec::new()
            .filter(
                "day",
                Predicate::Range {
                    lo: range.0.into(),
                    hi: range.1.into(),
                },
            )
            .aggregate(&[Agg::Count, Agg::Sum("qty")]);
        let alone = spec.bind(shard).execute().expect("runs");
        assert_eq!(
            alone.aggregates().expect("agg"),
            count_sum(rows, range),
            "{name} shard {i} alone over {range:?}"
        );
        let whole = catalog.execute(name, &spec).expect("runs");
        assert_eq!(
            whole.aggregates().expect("agg"),
            count_sum(&everything, range),
            "{name} over shard {i}'s {range:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random batches into a routed, an unrouted and a single entry,
    /// interleaved with `add_shard` (one that extends the key order,
    /// or one anywhere, which a routed entry refuses when it overlaps):
    /// after every step each shard holds exactly its model's rows.
    #[test]
    fn every_shard_holds_its_model_rows(
        steps in prop::collection::vec(
            (0usize..6, 0usize..3, prop::collection::vec(0u64..4000, 0..40), 0u64..4000),
            1..10,
        ),
    ) {
        let shards = || vec![orders(1, 10, 30), orders(1001, 10, 30)];
        let catalog = Catalog::new();
        catalog.register_sharded_keyed("routed", shards(), "day").expect("registers");
        catalog.register_sharded("unrouted", shards()).expect("registers");
        catalog.register("single", orders(1, 10, 30));
        let mut models = [
            ("routed", Model::new(&shards(), true)),
            ("unrouted", Model::new(&shards(), false)),
            ("single", Model::new(&[orders(1, 10, 30)], false)),
        ];
        for (kind, entry, days, start) in steps {
            match kind {
                // Add a shard to a sharded entry: past every day it
                // holds, or at `start`.
                4 | 5 => {
                    let (name, model) = &mut models[entry % 2];
                    let past = model.shards.concat().iter().map(|&(day, _)| day).max();
                    let first = if kind == 4 { past.unwrap_or(0) + 1 } else { start };
                    let shard = orders(first, 3, 20);
                    let accepted = model.add_shard(&shard);
                    prop_assert_eq!(catalog.add_shard(name, shard).is_ok(), accepted, "{}", name);
                }
                _ => {
                    let (name, model) = &mut models[entry];
                    catalog.ingest(name, &batch(&days, start % 50)).expect("ingests");
                    model.ingest(&days, start % 50);
                }
            }
            for (name, model) in &models {
                check_against(&catalog, name, model);
            }
        }
    }
}
