//! Entity-linking lookups over a table's distinct cell values.
//!
//! The semantic parser links question phrases to the table in two ways:
//!
//! * **exact links** — a phrase *is* a value ([`Value::matches_text`]:
//!   ASCII-case-insensitive strings, numbers within [`numbers_equal`]
//!   tolerance after `$` / `,` / `%` cleanup, dates by parsed form or display
//!   text), and
//! * **partial links** — a content word occurs as a whole word *inside* a
//!   value's text ("Erie" → "Lake Erie", Figure 9 of the paper).
//!
//! Testing every distinct value costs O(cells) per phrase. A
//! [`LexiconIndex`] answers both from hash maps and one sorted numeric
//! projection over the table's distinct values, so linking a question costs
//! O(tokens × postings) instead. It is built once per table, lazily, by
//! [`TableIndex::lexicon`](crate::TableIndex::lexicon), and shared with the
//! rest of the index.

use std::collections::HashMap;

use crate::index::ColumnIndex;
use crate::value::{numbers_equal, parse_date, parse_number, Date, Value};

/// Position of a distinct `(column, value)` pair in [`LexiconIndex`]'s
/// entry list.
type EntryId = u32;

/// Exact-link and word-posting lookups over every distinct `(column,
/// value)` pair of one table. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct LexiconIndex {
    /// Every distinct `(column, value)` pair, ordered by column, then by the
    /// value's first appearance in the column. The value is the column
    /// index's representative (its first occurrence).
    entries: Vec<(usize, Value)>,
    /// ASCII-lowercased text → string entries.
    strings: HashMap<String, Vec<EntryId>>,
    /// `(number, entry)` for every finite numeric entry, ascending.
    numbers: Vec<(f64, EntryId)>,
    /// Infinite numeric entries: within [`numbers_equal`] tolerance of every
    /// finite number.
    infinite: Vec<EntryId>,
    /// Date → date entries.
    dates: HashMap<Date, Vec<EntryId>>,
    /// Display text (`2013-06-08`, `1983-10`, `2004`) → date entries.
    date_texts: HashMap<String, Vec<EntryId>>,
    /// Lowercased word → entries whose text contains it as a word but is not
    /// the word itself, in entry order.
    words: HashMap<String, Vec<EntryId>>,
}

impl LexiconIndex {
    /// Shortest word (in bytes) with a posting list: the parser never
    /// partially links shorter tokens. Words that read as numbers are not
    /// posted either, since numeric tokens never link partially.
    pub const MIN_WORD_LEN: usize = 3;

    /// Build the lexicon from a table's per-column inverted indexes.
    pub(crate) fn build(columns: &[ColumnIndex]) -> LexiconIndex {
        let mut lexicon = LexiconIndex::default();
        for (column, index) in columns.iter().enumerate() {
            let mut distinct: Vec<(&Value, usize)> = index
                .entries()
                .map(|(value, records)| (value, records[0]))
                .collect();
            distinct.sort_unstable_by_key(|&(_, first)| first);
            lexicon.entries.extend(
                distinct
                    .into_iter()
                    .map(|(value, _)| (column, value.clone())),
            );
        }
        for (id, (_, value)) in lexicon.entries.iter().enumerate() {
            let id = EntryId::try_from(id).expect("fewer than 2^32 distinct cells");
            match value {
                Value::Str(s) => post(&mut lexicon.strings, &s.to_ascii_lowercase(), id),
                Value::Num(n) if n.is_finite() => lexicon.numbers.push((*n, id)),
                Value::Num(n) if n.is_infinite() => lexicon.infinite.push(id),
                // NaN is not equal to any number.
                Value::Num(_) => {}
                Value::Date(d) => {
                    lexicon.dates.entry(*d).or_default().push(id);
                    post(&mut lexicon.date_texts, &d.to_string(), id);
                }
            }
            let text = value.to_string().to_lowercase();
            for word in text.split(|c: char| !c.is_alphanumeric()) {
                if word.len() >= Self::MIN_WORD_LEN && word != text && word.parse::<f64>().is_err()
                {
                    post(&mut lexicon.words, word, id);
                }
            }
        }
        lexicon.numbers.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        lexicon
    }

    /// Every `(column, value)` pair whose value matches `text`
    /// ([`Value::matches_text`]), ordered by column, then by value.
    pub fn link_text(&self, text: &str) -> Vec<(usize, Value)> {
        let trimmed = text.trim();
        let mut ids: Vec<EntryId> = Vec::new();
        if let Some(hits) = self.strings.get(&trimmed.to_ascii_lowercase()) {
            ids.extend(hits);
        }
        if let Some(number) = parse_number(text) {
            // Any number within tolerance lies inside this window, since
            // |n - m| ≤ 1e-9 · max(|n|, |m|, 1) implies
            // |n - m| < 2e-9 · max(|m|, 1).
            let slack = 2e-9 * number.abs().max(1.0);
            let lo = self.numbers.partition_point(|&(n, _)| n < number - slack);
            let hi = self.numbers.partition_point(|&(n, _)| n <= number + slack);
            ids.extend(
                self.numbers[lo..hi]
                    .iter()
                    .filter(|&&(n, _)| numbers_equal(n, number))
                    .map(|&(_, id)| id),
            );
            ids.extend(&self.infinite);
        }
        if let Some(hits) = parse_date(text).and_then(|date| self.dates.get(&date)) {
            ids.extend(hits);
        }
        if let Some(hits) = self.date_texts.get(trimmed) {
            ids.extend(hits);
        }
        ids.sort_unstable_by(|&a, &b| {
            let (a_column, a_value) = &self.entries[a as usize];
            let (b_column, b_value) = &self.entries[b as usize];
            a_column
                .cmp(b_column)
                .then_with(|| a_value.cmp(b_value))
                .then(a.cmp(&b))
        });
        ids.dedup();
        ids.into_iter()
            .map(|id| self.entries[id as usize].clone())
            .collect()
    }

    /// `(column, value)` pairs whose lowercased text (`to_string()` then
    /// Unicode `to_lowercase`) contains `word` among its
    /// non-alphanumeric-separated words without being exactly `word`,
    /// ordered by column, then by first appearance. Empty for words shorter
    /// than [`LexiconIndex::MIN_WORD_LEN`] and for words that read as
    /// numbers.
    pub fn word_postings<'s>(
        &'s self,
        word: &str,
    ) -> impl Iterator<Item = (usize, &'s Value)> + 's {
        self.words
            .get(word)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .map(|&id| {
                let (column, value) = &self.entries[id as usize];
                (*column, value)
            })
    }
}

/// Append `id` to the posting list of `key`, once.
fn post(map: &mut HashMap<String, Vec<EntryId>>, key: &str, id: EntryId) {
    match map.get_mut(key) {
        Some(postings) => {
            if postings.last() != Some(&id) {
                postings.push(id);
            }
        }
        None => {
            map.insert(key.to_string(), vec![id]);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::index::TableIndex;
    use crate::table::Table;
    use crate::value::Value;

    fn lakes() -> Table {
        Table::from_rows(
            "lakes",
            &["Lake", "Ship", "Year"],
            &[
                vec!["Lake Erie", "Erie Belle", "1883"],
                vec!["Lake Huron", "Argus", "1913"],
                vec!["Erie", "Lake Erie Lake", "1883"],
                vec!["Lake Erie", "Huron-Erie", "June 8, 2013"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn word_postings_follow_column_then_first_appearance() {
        let table = lakes();
        let index = TableIndex::new(&table);
        let postings: Vec<(usize, Value)> = index
            .lexicon()
            .word_postings("erie")
            .map(|(column, value)| (column, value.clone()))
            .collect();
        // "Erie" alone is excluded: its whole text is the word. A value
        // repeating the word is posted once.
        assert_eq!(
            postings,
            vec![
                (0, Value::str("Lake Erie")),
                (1, Value::str("Erie Belle")),
                (1, Value::str("Lake Erie Lake")),
                (1, Value::str("Huron-Erie")),
            ]
        );
        assert_eq!(index.lexicon().word_postings("lake").count(), 3);
        // Too short, numeric, or absent: no postings.
        assert_eq!(index.lexicon().word_postings("la").count(), 0);
        assert_eq!(index.lexicon().word_postings("2013").count(), 0);
        assert_eq!(index.lexicon().word_postings("superior").count(), 0);
    }

    #[test]
    fn lexicon_is_built_once_per_index() {
        let table = lakes();
        let index = TableIndex::new(&table);
        let first: *const _ = index.lexicon();
        assert!(std::ptr::eq(first, index.lexicon()));
        assert_eq!(
            index.lexicon().link_text("LAKE ERIE"),
            vec![(0, Value::str("Lake Erie"))]
        );
        assert_eq!(
            index.lexicon().link_text("1883"),
            vec![(2, Value::num(1883.0))]
        );
    }
}
