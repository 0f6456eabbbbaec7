//! # wtq-table
//!
//! Web table data model for the *Explaining Queries over Web Tables to
//! Non-Experts* reproduction (Berant et al., ICDE 2019, §3.1).
//!
//! A web table is a single relation whose records are ordered top-to-bottom.
//! Every record has a unique `Index` (0, 1, 2, …) and a `Prev` pointer to the
//! record above it. Cell values are strings, numbers or dates. The table can
//! also be viewed as a knowledge base `K ⊆ E × P × E`: the entity set `E`
//! contains all table cells and all table records, and the property set `P`
//! contains the column headers, each acting as a binary relation from a cell
//! value to the records in which it appears.
//!
//! The crate provides:
//!
//! * [`Value`] — typed cell values (string / number / date) with a total order
//!   used by superlatives and comparisons,
//! * [`Table`] and [`TableBuilder`] — the ordered relation itself, stored as
//!   typed column vectors ([`column::ColumnData`]: flat `f64`s + null bitmap,
//!   dictionary-encoded strings, packed date ordinals) behind an accessor
//!   API with batch kernels (`filter_eq` / `filter_in` / `filter_num` /
//!   `stats_sum|min|max`),
//! * [`CellRef`] — a (record, column) coordinate used by the provenance model,
//! * [`index::TableIndex`] — the indexed columnar view (inverted indexes,
//!   value-sorted permutations, sorted numeric projections, O(1) column-name
//!   lookup) built once per table and shared by every engine,
//! * [`lexicon::LexiconIndex`] — the entity-linking lookups (exact text
//!   links and word postings) the index builds on first question,
//! * [`kb::KnowledgeBase`] — the KB view over that index,
//! * [`csv`] — a small TSV/CSV reader and writer (no external dependency),
//! * [`catalog::Catalog`] — a named collection of tables,
//! * [`samples`] — the example tables used throughout the paper's figures.

pub mod catalog;
pub mod cell;
pub mod column;
pub mod csv;
pub mod error;
pub mod index;
pub mod kb;
pub mod lexicon;
pub mod samples;
pub mod table;
pub mod value;

pub use catalog::{Catalog, TableSummary};
pub use cell::CellRef;
pub use column::{DateColumn, DictColumn, DictId, F64Column};
pub use error::TableError;
pub use index::{CacheStats, ColumnIndex, IndexCache, TableIndex, DEFAULT_INDEX_CACHE_CAPACITY};
pub use kb::KnowledgeBase;
pub use lexicon::LexiconIndex;
pub use table::{Column, ColumnType, RecordIdx, Table, TableBuilder};
pub use value::{Date, Value};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, TableError>;
