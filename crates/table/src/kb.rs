//! Knowledge-base view of a table (§3.1).
//!
//! The paper views a table as `K ⊆ E × P × E`: entities `E` are all cell
//! values plus all records, and each column header is a binary property
//! mapping a cell value to the records in which it appears. This module is a
//! thin view over the shared [`TableIndex`] (which materializes the inverted
//! indexes): the evaluator and the semantic parser answer `Column.value`
//! joins and entity-linking lookups without scanning the table repeatedly,
//! and — because the index is behind an `Arc` — without rebuilding it per
//! question or per evaluation session.

use std::sync::Arc;

use crate::cell::CellRef;
use crate::index::TableIndex;
use crate::table::{RecordIdx, Table};
use crate::value::Value;

pub use crate::index::ColumnIndex;

/// The knowledge-base view of one table.
#[derive(Debug, Clone)]
pub struct KnowledgeBase<'a> {
    table: &'a Table,
    index: Arc<TableIndex>,
}

impl<'a> KnowledgeBase<'a> {
    /// Build the KB view of `table`, constructing a fresh [`TableIndex`].
    /// When an index for the table already exists, use
    /// [`KnowledgeBase::with_index`] to share it instead.
    pub fn new(table: &'a Table) -> Self {
        KnowledgeBase {
            table,
            index: Arc::new(TableIndex::new(table)),
        }
    }

    /// Build the KB view around an existing shared index of the same table.
    pub fn with_index(table: &'a Table, index: Arc<TableIndex>) -> Self {
        debug_assert_eq!(index.num_records(), table.num_records());
        debug_assert_eq!(index.num_columns(), table.num_columns());
        KnowledgeBase { table, index }
    }

    /// The underlying table (borrowed for the view's full lifetime).
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// The shared columnar index backing this view.
    pub fn index(&self) -> &Arc<TableIndex> {
        &self.index
    }

    /// Index for a column.
    pub fn column(&self, column: usize) -> &ColumnIndex {
        self.index.column(column)
    }

    /// Records with `value` in `column` — the binary relation application
    /// `Column.value` (e.g. `Country.Greece`).
    pub fn join(&self, column: usize, value: &Value) -> &[RecordIdx] {
        self.index.records_with_value(column, value)
    }

    /// All cells in `column` whose value equals `value` (used by the
    /// provenance rule for *Column Records* in Table 10).
    pub fn matching_cells(&self, column: usize, value: &Value) -> Vec<CellRef> {
        self.index.matching_cells(column, value)
    }

    /// Every `(column, value)` pair whose value matches `text`
    /// ([`Value::matches_text`]), ordered by column, then by value — used
    /// for entity linking of question phrases to the table. Answered from
    /// the index's shared [`LexiconIndex`](crate::LexiconIndex).
    pub fn link_text(&self, text: &str) -> Vec<(usize, Value)> {
        self.index.lexicon().link_text(text)
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
    fn join_returns_matching_records() {
        let table = olympics();
        let kb = KnowledgeBase::new(&table);
        let country = table.column_index("Country").unwrap();
        assert_eq!(kb.join(country, &Value::str("Greece")), &[0, 2]);
        assert_eq!(kb.join(country, &Value::str("Atlantis")), &[] as &[usize]);
    }

    #[test]
    fn matching_cells_point_into_the_right_column() {
        let table = olympics();
        let kb = KnowledgeBase::new(&table);
        let city = table.column_index("City").unwrap();
        let cells = kb.matching_cells(city, &Value::str("Athens"));
        assert_eq!(cells, vec![CellRef::new(0, city), CellRef::new(2, city)]);
    }

    #[test]
    fn link_text_finds_entities_case_insensitively() {
        let table = olympics();
        let kb = KnowledgeBase::new(&table);
        let links = kb.link_text("greece");
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].0, table.column_index("Country").unwrap());
        assert_eq!(links[0].1, Value::str("Greece"));
        // Numbers link too.
        let links = kb.link_text("2008");
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].0, table.column_index("Year").unwrap());
    }

    #[test]
    fn link_text_numbers_match_within_tolerance_and_formatting() {
        let table = Table::from_rows(
            "prizes",
            &["Prize", "Rating", "Share"],
            &[vec!["$150,000", "2.945", "85%"], vec!["1,000", "7", "5%"]],
        )
        .unwrap();
        let kb = KnowledgeBase::new(&table);
        let prize = vec![(0, Value::num(150_000.0))];
        for text in [
            "150000",
            "$150,000",
            "150,000",
            " 150000 ",
            "150000.0000001",
        ] {
            assert_eq!(kb.link_text(text), prize, "on {text:?}");
        }
        assert!(kb.link_text("150001").is_empty());
        assert!(kb.link_text("150000.001").is_empty());
        assert_eq!(
            kb.link_text("2.9450000000001"),
            vec![(1, Value::num(2.945))]
        );
        assert_eq!(kb.link_text("$1,000"), vec![(0, Value::num(1000.0))]);
        // `%` is stripped on both sides: "85" and "85%" both link the cell.
        assert_eq!(kb.link_text("85"), vec![(2, Value::num(85.0))]);
        assert_eq!(kb.link_text("85%"), vec![(2, Value::num(85.0))]);
        assert_eq!(kb.link_text("5"), vec![(2, Value::num(5.0))]);
        assert_eq!(kb.link_text("7"), vec![(1, Value::num(7.0))]);
        assert!(kb.link_text("seven").is_empty());
    }

    #[test]
    fn link_text_year_only_dates_link_through_their_display_text() {
        use crate::table::TableBuilder;
        let table = TableBuilder::new("seasons")
            .column("Season")
            .column("Goals")
            .row(vec![Value::year(2004), Value::num(2004.0)])
            .unwrap()
            .row(vec![Value::year(2008), Value::num(12.0)])
            .unwrap()
            .build()
            .unwrap();
        let kb = KnowledgeBase::new(&table);
        // The year-only date renders as "2004", so the number text links it
        // as well as the numeric cell of the same magnitude.
        assert_eq!(
            kb.link_text("2004"),
            vec![(0, Value::year(2004)), (1, Value::num(2004.0))]
        );
        assert_eq!(kb.link_text(" 2008 "), vec![(0, Value::year(2008))]);
        // A date matches by text, not by number: other spellings of the
        // same magnitude only reach the numeric cell.
        assert_eq!(kb.link_text("2004.0"), vec![(1, Value::num(2004.0))]);
        assert_eq!(kb.link_text("2,004"), vec![(1, Value::num(2004.0))]);
    }

    #[test]
    fn link_text_full_dates_match_parsed_and_display_forms() {
        let table = Table::from_rows(
            "events",
            &["Date", "Founded"],
            &[
                vec!["June 8, 2013", "October 1983"],
                vec!["March 3, 2001", "1990"],
            ],
        )
        .unwrap();
        let kb = KnowledgeBase::new(&table);
        let june = vec![(0, Value::date(2013, 6, 8))];
        // Through `parse_date`, in every format it reads…
        for text in ["June 8, 2013", "8 June 2013", "jun 8 2013", "2013/06/08"] {
            assert_eq!(kb.link_text(text), june, "on {text:?}");
        }
        // …and through the ISO display text (which `parse_date` reads too).
        assert_eq!(kb.link_text("2013-06-08"), june);
        assert_eq!(
            kb.link_text("March 3, 2001"),
            vec![(0, Value::date(2001, 3, 3))]
        );
        assert!(kb.link_text("March 4, 2001").is_empty());
        // A month-precision date displays as "1983-10", which only the
        // display-text path matches; "Oct 1983" goes through `parse_date`.
        let october = vec![(1, Value::parse("October 1983"))];
        assert_eq!(kb.link_text("1983-10"), october);
        assert_eq!(kb.link_text("Oct 1983"), october);
        assert!(kb.link_text("1983").is_empty());
    }

    #[test]
    fn link_text_strings_fold_ascii_case_only() {
        let table = Table::from_rows(
            "places",
            &["City", "Street", "Group"],
            &[
                vec!["İstanbul", "STRASSE", "Ärzte"],
                vec!["Greece", "Main St", "greece"],
            ],
        )
        .unwrap();
        let kb = KnowledgeBase::new(&table);
        assert_eq!(kb.link_text("İSTANBUL"), vec![(0, Value::str("İstanbul"))]);
        // Unicode lowercasing turns "İ" into "i̇", which is not ASCII-equal.
        assert!(kb.link_text("i̇stanbul").is_empty());
        assert!(kb.link_text("istanbul").is_empty());
        assert_eq!(kb.link_text("strasse"), vec![(1, Value::str("STRASSE"))]);
        assert!(kb.link_text("straße").is_empty());
        assert_eq!(kb.link_text("ÄRZTE"), vec![(2, Value::str("Ärzte"))]);
        assert!(kb.link_text("ärzte").is_empty());
        // Surrounding whitespace is trimmed; one text links every column
        // holding it, in column order.
        assert_eq!(
            kb.link_text("  GREECE "),
            vec![(0, Value::str("Greece")), (2, Value::str("greece"))]
        );
        assert!(kb.link_text("gree").is_empty());
        assert!(kb.link_text("").is_empty());
    }

    #[test]
    fn distinct_counts_match_table() {
        let table = olympics();
        let kb = KnowledgeBase::new(&table);
        let country = table.column_index("Country").unwrap();
        assert_eq!(kb.column(country).num_distinct(), 4);
    }

    #[test]
    fn with_index_shares_one_build() {
        let table = olympics();
        let index = Arc::new(TableIndex::new(&table));
        let kb = KnowledgeBase::with_index(&table, index.clone());
        assert_eq!(Arc::strong_count(kb.index()), 2);
        let country = table.column_index("Country").unwrap();
        assert_eq!(kb.join(country, &Value::str("Greece")), &[0, 2]);
    }
}
