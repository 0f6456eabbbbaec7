//! Indexed columnar view of a table, built once and queried many times.
//!
//! The candidate generator executes hundreds of lambda DCS formulas per
//! question and the SQL engine re-runs translated queries for cross
//! validation; both used to re-scan table rows for every join, comparison and
//! superlative. A [`TableIndex`] materializes, per column:
//!
//! * an **inverted index** (normalized value → sorted record list) answering
//!   `Column.value` joins and `WHERE Column = v` filters in O(1),
//! * a **value-sorted permutation** of the records answering superlatives
//!   (`argmax` / `argmin`) without scanning the whole record set,
//! * a **sorted numeric projection** (`(number, record)` pairs) answering
//!   range comparisons (`Games.(> 4)`) by binary search,
//!
//! plus a lowercase column-name map so `column_index` is a hash lookup
//! instead of a linear case-insensitive scan, and — built on the first
//! question — the entity-linking [`LexiconIndex`] over the distinct values.
//!
//! The index holds no reference to the table, so it can be built once and
//! shared (e.g. behind an `Arc`) between the knowledge-base view, the lambda
//! DCS evaluator and the SQL engine. Tables are immutable after construction,
//! so an index never needs invalidation: it lives exactly as long as the
//! table it summarizes is in use.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::cell::CellRef;
use crate::lexicon::LexiconIndex;
use crate::table::{ColumnType, RecordIdx, Table};
use crate::value::Value;

/// Per-column indexes: inverted value index, value-sorted permutation and
/// sorted numeric projection.
#[derive(Debug, Clone)]
pub struct ColumnIndex {
    column_type: ColumnType,
    by_value: HashMap<Value, Vec<RecordIdx>>,
    /// Records sorted ascending by their cell value (stable, so ties keep
    /// table order), built lazily on first superlative use (the sort keys
    /// allocate, and most columns are never a superlative key). `None` once
    /// built when the column contains a NaN numeric cell, which has no
    /// consistent position in the value order.
    value_order: OnceLock<Option<Vec<RecordIdx>>>,
    /// Whether a value order exists (no NaN cells); decided at build time.
    sortable: bool,
    /// `(number, record)` for every cell with numeric content (via
    /// [`Value::as_number`]), sorted ascending by number then record. NaN
    /// cells are excluded: no comparison operator ever matches them.
    numeric: Vec<(f64, RecordIdx)>,
}

impl ColumnIndex {
    /// Records whose cell in this column equals `value` (the `C.v` join),
    /// in ascending record order.
    pub fn records(&self, value: &Value) -> &[RecordIdx] {
        self.by_value.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct values in the column.
    pub fn num_distinct(&self) -> usize {
        self.by_value.len()
    }

    /// Iterate over `(value, records)` pairs in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (&Value, &Vec<RecordIdx>)> {
        self.by_value.iter()
    }

    /// The column's inferred type.
    pub fn column_type(&self) -> ColumnType {
        self.column_type
    }

    /// All `(number, record)` pairs of the column's numeric cells, sorted
    /// ascending by number.
    pub fn numeric_entries(&self) -> &[(f64, RecordIdx)] {
        &self.numeric
    }

    /// Numeric cells with `number < threshold` (or `<=` when `inclusive`),
    /// as a slice of the sorted numeric projection.
    pub fn numeric_below(&self, threshold: f64, inclusive: bool) -> &[(f64, RecordIdx)] {
        if threshold.is_nan() {
            return &[];
        }
        let cut = if inclusive {
            self.numeric.partition_point(|(n, _)| *n <= threshold)
        } else {
            self.numeric.partition_point(|(n, _)| *n < threshold)
        };
        &self.numeric[..cut]
    }

    /// Numeric cells with `number > threshold` (or `>=` when `inclusive`),
    /// as a slice of the sorted numeric projection.
    pub fn numeric_above(&self, threshold: f64, inclusive: bool) -> &[(f64, RecordIdx)] {
        if threshold.is_nan() {
            return &[];
        }
        let cut = if inclusive {
            self.numeric.partition_point(|(n, _)| *n < threshold)
        } else {
            self.numeric.partition_point(|(n, _)| *n <= threshold)
        };
        &self.numeric[cut..]
    }
}

/// The indexed columnar view of one table. See the module docs for what is
/// precomputed; build cost is `O(cells · log rows)`, query cost is `O(1)` for
/// name and value lookups and `O(log rows)` for numeric ranges.
#[derive(Debug, Clone)]
pub struct TableIndex {
    by_name: HashMap<String, usize>,
    columns: Vec<ColumnIndex>,
    numeric_columns: Vec<usize>,
    text_columns: Vec<usize>,
    num_records: usize,
    /// The indexed table's precomputed shape fingerprint
    /// ([`Table::fingerprint`]), making [`TableIndex::describes`] a single
    /// integer comparison on every cache lookup.
    fingerprint: u64,
    /// Entity-linking lookups, built on first use (the first question on
    /// the table pays for it, not the table load) and shared by every
    /// session holding this index.
    lexicon: OnceLock<LexiconIndex>,
}

impl TableIndex {
    /// Build the index for `table` in one pass over its cells (plus one sort
    /// per column).
    pub fn new(table: &Table) -> Self {
        let by_name = table
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.to_ascii_lowercase(), i))
            .collect();
        let columns: Vec<ColumnIndex> = (0..table.num_columns())
            .map(|column| build_column(table, column))
            .collect();
        let numeric_columns = (0..table.num_columns())
            .filter(|&c| matches!(table.column_type(c), ColumnType::Number | ColumnType::Date))
            .collect();
        let text_columns = (0..table.num_columns())
            .filter(|&c| matches!(table.column_type(c), ColumnType::Text | ColumnType::Mixed))
            .collect();
        TableIndex {
            by_name,
            columns,
            numeric_columns,
            text_columns,
            num_records: table.num_records(),
            fingerprint: table.fingerprint(),
            lexicon: OnceLock::new(),
        }
    }

    /// Index of the column with the given (case-insensitive) header — the
    /// O(1) counterpart of [`Table::column_index`].
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(&name.trim().to_ascii_lowercase()).copied()
    }

    /// Per-column indexes for `column`.
    pub fn column(&self, column: usize) -> &ColumnIndex {
        &self.columns[column]
    }

    /// Number of indexed columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of records in the indexed table.
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Inferred type of `column` (mirrors [`Table::column_type`] without
    /// needing the table).
    pub fn column_type(&self, column: usize) -> ColumnType {
        self.columns[column].column_type
    }

    /// Columns whose dominant type is numeric or date — the columns eligible
    /// for aggregates, comparisons and superlative keys.
    pub fn numeric_columns(&self) -> &[usize] {
        &self.numeric_columns
    }

    /// Columns whose dominant type is text (or mixed) — the columns eligible
    /// for most-common-value questions.
    pub fn text_columns(&self) -> &[usize] {
        &self.text_columns
    }

    /// Whether this index plausibly describes `table`: same record count,
    /// column count and (case-normalized) headers, compared through the
    /// precomputed shape fingerprints — a single integer comparison, cheap
    /// enough for the thread-safe [`IndexCache`] to run on every lookup. It
    /// cannot detect a table that differs only in cell contents, so caches
    /// must still be scoped to one catalog.
    pub fn describes(&self, table: &Table) -> bool {
        self.fingerprint == table.fingerprint()
    }

    /// Records of `column` in ascending cell-value order (stable: ties keep
    /// table order), if the column's values admit a total order (they always
    /// do unless a cell holds a NaN number). Built on first use and
    /// memoized; `table` must be the table this index was built from.
    pub fn value_order(&self, table: &Table, column: usize) -> Option<&[RecordIdx]> {
        debug_assert_eq!(table.num_records(), self.num_records);
        let entry = &self.columns[column];
        entry
            .value_order
            .get_or_init(|| {
                entry.sortable.then(|| {
                    let mut order: Vec<RecordIdx> = (0..table.num_records()).collect();
                    // Sort by a precomputed key equivalent to `Value::cmp` —
                    // avoids per-comparison lowercase allocations.
                    order.sort_by_cached_key(|&record| {
                        SortKey::of(&table.value_at(record, column).expect("in range"))
                    });
                    order
                })
            })
            .as_deref()
    }

    /// The entity-linking lexicon over every distinct cell value: exact
    /// text links and word postings. Built on first use and memoized.
    pub fn lexicon(&self) -> &LexiconIndex {
        self.lexicon
            .get_or_init(|| LexiconIndex::build(&self.columns))
    }

    /// Records whose cell in `column` equals `value`, ascending.
    pub fn records_with_value(&self, column: usize, value: &Value) -> &[RecordIdx] {
        self.columns[column].records(value)
    }

    /// Cells in `column` whose value equals `value`, ascending by record.
    pub fn matching_cells(&self, column: usize, value: &Value) -> Vec<CellRef> {
        self.records_with_value(column, value)
            .iter()
            .map(|&record| CellRef::new(record, column))
            .collect()
    }
}

fn build_column(table: &Table, column: usize) -> ColumnIndex {
    let mut by_value: HashMap<Value, Vec<RecordIdx>> = HashMap::new();
    let mut numeric: Vec<(f64, RecordIdx)> = Vec::new();
    let mut sortable = true;
    for record in table.record_indices() {
        let value = table
            .value_at(record, column)
            .expect("record index in range");
        if let Some(number) = value.as_number() {
            if number.is_nan() {
                sortable = false;
            } else {
                numeric.push((number, record));
            }
        }
        by_value.entry(value).or_default().push(record);
    }
    numeric.sort_by(|a, b| a.partial_cmp(b).expect("NaN keys excluded"));
    ColumnIndex {
        column_type: table.column_type(column),
        by_value,
        value_order: OnceLock::new(),
        sortable,
        numeric,
    }
}

/// Default number of tables an [`IndexCache`] retains before evicting the
/// least-recently-used entry.
pub const DEFAULT_INDEX_CACHE_CAPACITY: usize = 256;

/// Hit / miss / eviction counters of an [`IndexCache`], for instrumentation
/// of serving and training loops. Serializable so stats endpoints can embed
/// a snapshot directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups answered from a cached index.
    pub hits: u64,
    /// Lookups that had to build (or rebuild) an index.
    pub misses: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
}

/// One cached index plus its LRU recency stamp. The stamp is an atomic so a
/// cache *hit* only needs the read lock — concurrent readers bump recency
/// without serializing on a write lock.
#[derive(Debug)]
struct CacheEntry {
    index: Arc<TableIndex>,
    last_used: AtomicU64,
}

/// Memoized per-table indexes, keyed by table name. Training, deployment and
/// serving loops parse many questions over a set of immutable tables;
/// holding one cache per catalog amortizes the index build across every
/// question on the same table. Table names are unique within a
/// [`crate::Catalog`] — use one cache per catalog.
///
/// The cache is **thread-safe** (`&self` everywhere, internally an
/// [`RwLock`]ed map): one instance can be shared by a pool of worker threads
/// answering questions concurrently, with per-table lazy builds and an LRU
/// capacity bound (default [`DEFAULT_INDEX_CACHE_CAPACITY`] tables) so
/// memory does not grow without limit under traffic over a large catalog.
/// Indexes are built *outside* the lock; if two threads race to index the
/// same table, one build is discarded — both threads end up sharing a single
/// `Arc`.
#[derive(Debug)]
pub struct IndexCache {
    by_table: RwLock<HashMap<String, CacheEntry>>,
    capacity: usize,
    /// Monotonic recency clock; higher = more recently used.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for IndexCache {
    fn default() -> Self {
        IndexCache::with_capacity(DEFAULT_INDEX_CACHE_CAPACITY)
    }
}

impl IndexCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        IndexCache::default()
    }

    /// An empty cache retaining at most `capacity` tables (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        IndexCache {
            by_table: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The maximum number of tables retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shared index for `table`, building it on first request. A cached
    /// entry is reused only when its shape fingerprint matches `table`; a
    /// same-named but different table replaces the stale entry instead of
    /// silently answering from it. Inserting beyond capacity evicts the
    /// least-recently-used entry.
    pub fn get_or_build(&self, table: &Table) -> Arc<TableIndex> {
        if let Some(index) = self.lookup(table) {
            return index;
        }
        // Build outside any lock: index construction is the expensive part,
        // and holding the write lock across it would serialize every miss.
        let built = Arc::new(TableIndex::new(table));
        let mut map = self.by_table.write().expect("index cache poisoned");
        // Another thread may have finished the same build first; share its
        // entry so all sessions hold one Arc per table.
        if let Some(existing) = map.get(table.name()) {
            if existing.index.describes(table) {
                existing.last_used.store(self.tick(), Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return existing.index.clone();
            }
        }
        map.insert(
            table.name().to_string(),
            CacheEntry {
                index: built.clone(),
                last_used: AtomicU64::new(self.tick()),
            },
        );
        self.misses.fetch_add(1, Ordering::Relaxed);
        while map.len() > self.capacity {
            let oldest = map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
                .map(|(name, _)| name.clone())
                .expect("map over capacity is non-empty");
            map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        built
    }

    /// Read-lock fast path: a hit bumps the entry's recency stamp through
    /// its atomic, so concurrent hits never contend on the write lock.
    fn lookup(&self, table: &Table) -> Option<Arc<TableIndex>> {
        let map = self.by_table.read().expect("index cache poisoned");
        let entry = map.get(table.name())?;
        if !entry.index.describes(table) {
            return None;
        }
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.index.clone())
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Hit / miss / eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of tables currently cached.
    pub fn len(&self) -> usize {
        self.by_table.read().expect("index cache poisoned").len()
    }

    /// Whether no index is currently cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Precomputed sort key whose ordering is identical to [`Value::cmp`] for
/// NaN-free values: numbers and dates interleave by numeric magnitude (a
/// number sorting before an equal-year date), strings sort last by their
/// lowercase form.
#[derive(Debug, Clone, PartialEq)]
enum SortKey {
    /// `(magnitude, is_date, month, day)` — mirrors the `Num`/`Date` arms of
    /// `Value::cmp`, including the `then(Less)` tie-break that puts a number
    /// before the equal-year date.
    Numeric(f64, u8, u8, u8),
    /// Lowercased string; `Value::cmp` orders strings after all numerics.
    Text(String),
}

impl SortKey {
    fn of(value: &Value) -> SortKey {
        match value {
            Value::Num(n) => SortKey::Numeric(*n, 0, 0, 0),
            Value::Date(d) => SortKey::Numeric(
                f64::from(d.year),
                1,
                d.month.unwrap_or(0),
                d.day.unwrap_or(0),
            ),
            Value::Str(s) => SortKey::Text(s.to_ascii_lowercase()),
        }
    }
}

impl Eq for SortKey {}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (SortKey::Numeric(a, ad, am, aday), SortKey::Numeric(b, bd, bm, bday)) => a
                .partial_cmp(b)
                .expect("NaN keys excluded from sortable columns")
                .then_with(|| (ad, am, aday).cmp(&(bd, bm, bday))),
            (SortKey::Numeric(..), SortKey::Text(_)) => Ordering::Less,
            (SortKey::Text(_), SortKey::Numeric(..)) => Ordering::Greater,
            (SortKey::Text(a), SortKey::Text(b)) => a.cmp(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn olympics() -> Table {
        Table::from_rows(
            "olympics",
            &["Year", "Country", "City"],
            &[
                vec!["1896", "Greece", "Athens"],
                vec!["1900", "France", "Paris"],
                vec!["2004", "Greece", "Athens"],
                vec!["2008", "China", "Beijing"],
                vec!["2012", "UK", "London"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_name_lookup_matches_table_scan() {
        let table = olympics();
        let index = TableIndex::new(&table);
        for query in ["Year", "country", " CITY ", "Missing", ""] {
            assert_eq!(index.column_index(query), table.column_index(query));
        }
    }

    #[test]
    fn inverted_index_matches_scan() {
        let table = olympics();
        let index = TableIndex::new(&table);
        for column in 0..table.num_columns() {
            for value in table.distinct_column_values(column) {
                assert_eq!(
                    index.records_with_value(column, &value),
                    table.filter_eq(column, &value).as_slice()
                );
            }
        }
        assert!(index
            .records_with_value(1, &Value::str("Atlantis"))
            .is_empty());
    }

    #[test]
    fn value_order_sorts_each_column() {
        let table = olympics();
        let index = TableIndex::new(&table);
        for column in 0..table.num_columns() {
            let order = index.value_order(&table, column).expect("no NaN cells");
            assert_eq!(order.len(), table.num_records());
            for pair in order.windows(2) {
                let a = table.value_at(pair[0], column).unwrap();
                let b = table.value_at(pair[1], column).unwrap();
                assert!(a.cmp(&b) != std::cmp::Ordering::Greater);
            }
        }
    }

    #[test]
    fn numeric_ranges_match_scan() {
        let table = olympics();
        let index = TableIndex::new(&table);
        let year = table.column_index("Year").unwrap();
        let col = index.column(year);
        assert_eq!(col.numeric_entries().len(), 5);
        // > 1900 → 2004, 2008, 2012.
        assert_eq!(col.numeric_above(1900.0, false).len(), 3);
        // >= 1900 → four records.
        assert_eq!(col.numeric_above(1900.0, true).len(), 4);
        // < 1900 → 1896 only; <= 1900 → two.
        assert_eq!(col.numeric_below(1900.0, false).len(), 1);
        assert_eq!(col.numeric_below(1900.0, true).len(), 2);
        // NaN thresholds match nothing.
        assert!(col.numeric_below(f64::NAN, true).is_empty());
        assert!(col.numeric_above(f64::NAN, true).is_empty());
    }

    #[test]
    fn column_type_partitions() {
        let table = olympics();
        let index = TableIndex::new(&table);
        assert_eq!(index.numeric_columns(), &[0]);
        assert_eq!(index.text_columns(), &[1, 2]);
        assert_eq!(index.column_type(0), ColumnType::Number);
        assert_eq!(index.column(2).column_type(), ColumnType::Text);
    }

    #[test]
    fn index_cache_reuses_matching_and_replaces_stale_entries() {
        let table = olympics();
        let cache = IndexCache::new();
        let first = cache.get_or_build(&table);
        let again = cache.get_or_build(&table);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        // A same-named table with a different shape must not reuse the entry.
        let other =
            Table::from_rows("olympics", &["Athlete", "Medal"], &[vec!["Louis", "Gold"]]).unwrap();
        let rebuilt = cache.get_or_build(&other);
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(rebuilt.num_columns(), 2);
        assert!(!cache.is_empty());
        assert_eq!(cache.stats().misses, 2);
    }

    fn named(name: &str) -> Table {
        Table::from_rows(name, &["A"], &[vec!["1"]]).unwrap()
    }

    #[test]
    fn index_cache_evicts_least_recently_used_beyond_capacity() {
        let cache = IndexCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let (a, b, c) = (named("a"), named("b"), named("c"));
        cache.get_or_build(&a);
        cache.get_or_build(&b);
        // Touch `a` so `b` becomes the LRU entry, then overflow with `c`.
        cache.get_or_build(&a);
        cache.get_or_build(&c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // `a` and `c` are still cached (hits); `b` was evicted (miss).
        let hits_before = cache.stats().hits;
        cache.get_or_build(&a);
        cache.get_or_build(&c);
        assert_eq!(cache.stats().hits, hits_before + 2);
        let misses_before = cache.stats().misses;
        cache.get_or_build(&b);
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn index_cache_capacity_is_clamped_to_one() {
        let cache = IndexCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        cache.get_or_build(&named("a"));
        cache.get_or_build(&named("b"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn index_cache_is_shared_across_threads() {
        let cache = IndexCache::new();
        let tables: Vec<Table> = (0..4).map(|i| named(&format!("t{i}"))).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for table in &tables {
                        let index = cache.get_or_build(table);
                        assert!(index.describes(table));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 4);
        let stats = cache.stats();
        // Every lookup either hit or missed; racing builds may each count a
        // miss, but the total accounts for all 16 lookups.
        assert_eq!(stats.hits + stats.misses, 16);
        assert!(stats.misses >= 4);
    }

    #[test]
    fn describes_matches_fingerprint_semantics() {
        let table = olympics();
        let index = TableIndex::new(&table);
        assert!(index.describes(&table));
        // Same shape, different cell contents: indistinguishable by design.
        let same_shape = Table::from_rows(
            "other",
            &["year", "COUNTRY", "City"],
            &[
                vec!["1", "x", "y"],
                vec!["2", "x", "y"],
                vec!["3", "x", "y"],
                vec!["4", "x", "y"],
                vec!["5", "x", "y"],
            ],
        )
        .unwrap();
        assert!(index.describes(&same_shape));
        // Different record count, headers or column order: rejected.
        let fewer_rows = Table::from_rows(
            "olympics",
            &["Year", "Country", "City"],
            &[vec!["1896", "Greece", "Athens"]],
        )
        .unwrap();
        assert!(!index.describes(&fewer_rows));
        let renamed = Table::from_rows(
            "olympics",
            &["Year", "Country", "Town"],
            &[
                vec!["1896", "Greece", "Athens"],
                vec!["1900", "France", "Paris"],
                vec!["2004", "Greece", "Athens"],
                vec!["2008", "China", "Beijing"],
                vec!["2012", "UK", "London"],
            ],
        )
        .unwrap();
        assert!(!index.describes(&renamed));
    }

    #[test]
    fn sort_key_order_is_identical_to_value_cmp() {
        let values: Vec<Value> = [
            "2004",
            "1896",
            "-3",
            "2004.5",
            "0",
            "Athens",
            "athens",
            "ZZ",
            "",
            "June 8, 2013",
            "October 1983",
            "2013-06-08",
            "1983-01-01",
            "1e300",
        ]
        .iter()
        .map(|t| Value::parse(t))
        .chain([Value::year(2004), Value::num(f64::INFINITY)])
        .collect();
        for a in &values {
            for b in &values {
                assert_eq!(
                    SortKey::of(a).cmp(&SortKey::of(b)),
                    a.cmp(b),
                    "keys diverge for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn nan_cells_disable_value_order_but_not_joins() {
        use crate::table::TableBuilder;
        let table = TableBuilder::new("nan")
            .column("A")
            .row(vec![Value::Num(1.0)])
            .unwrap()
            .row(vec![Value::Num(f64::NAN)])
            .unwrap()
            .row(vec![Value::Num(2.0)])
            .unwrap()
            .build()
            .unwrap();
        let index = TableIndex::new(&table);
        assert!(index.value_order(&table, 0).is_none());
        // NaN is excluded from the numeric projection (no comparison matches
        // it) but plain value joins still work for the finite cells.
        assert_eq!(index.column(0).numeric_entries().len(), 2);
        assert_eq!(index.records_with_value(0, &Value::num(2.0)), &[2]);
    }
}
