//! Differential suite: entity linking through the table's lexicon index
//! must reproduce the retained all-cells scan
//! (`wtq_parser::reference::link_stage_scan`) exactly — the same value
//! links in the same order, the same column links and the same numbers.
//!
//! Inputs cover random tables from every domain plus a 2000-row table,
//! generated questions, questions assembled from cell words, and hostile
//! text where ASCII and Unicode case folding disagree, money and percent
//! forms, year-only dates next to numbers, and spelled-out and ISO dates.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::{all_domains, generate_questions, generate_table};
use wtq_parser::lexicon::tokenize;
use wtq_parser::reference::{link_stage_scan, link_text_scan};
use wtq_parser::{analyze_question_with, normalize_question, QuestionAnalysis};
use wtq_table::{KnowledgeBase, Table, TableBuilder, Value};

/// Value links as exact `(column, value, phrase)` triples: `Debug` keeps
/// the representative's spelling, which `Value`'s case-insensitive
/// equality would not.
fn exact_links(analysis: &QuestionAnalysis) -> Vec<(usize, String, String)> {
    analysis
        .value_links
        .iter()
        .map(|l| (l.column, format!("{:?}", l.value), l.phrase.clone()))
        .collect()
}

/// Assert indexed analysis equals the scan on one question, and that every
/// n-gram the linker looks up links identically through both paths.
fn assert_same_links(kb: &KnowledgeBase<'_>, question: &str) -> Result<(), TestCaseError> {
    let indexed = analyze_question_with(question, kb);
    let lowered = normalize_question(question);
    let tokens = tokenize(&lowered);
    let scanned = link_stage_scan(lowered, tokens.clone(), kb);
    prop_assert_eq!(&indexed.tokens, &scanned.tokens, "tokens of {:?}", question);
    prop_assert_eq!(&indexed.lowered, &scanned.lowered);
    prop_assert_eq!(
        exact_links(&indexed),
        exact_links(&scanned),
        "value links of {:?}",
        question
    );
    prop_assert_eq!(
        &indexed.column_links,
        &scanned.column_links,
        "column links of {:?}",
        question
    );
    let bits = |numbers: &[f64]| numbers.iter().map(|n| n.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&indexed.numbers), bits(&scanned.numbers));
    for n in 1..=4usize.min(tokens.len()) {
        for window in tokens.windows(n) {
            assert_same_text_links(kb, &window.join(" "))?;
        }
    }
    Ok(())
}

fn assert_same_text_links(kb: &KnowledgeBase<'_>, text: &str) -> Result<(), TestCaseError> {
    let exact = |links: Vec<(usize, Value)>| {
        links
            .into_iter()
            .map(|(column, value)| (column, format!("{value:?}")))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(
        exact(kb.link_text(text)),
        exact(link_text_scan(kb, text)),
        "link_text({:?})",
        text
    );
    Ok(())
}

/// Questions assembled from the words of random cells: whole cell texts,
/// single words inside multi-word cells (partial links), upper-cased
/// variants and neighbouring cells glued together.
fn cell_word_questions(table: &Table, count: usize, rng: &mut ChaCha8Rng) -> Vec<String> {
    if table.num_records() == 0 {
        return Vec::new();
    }
    let templates = [
        "Which rows mention {}?",
        "How many times did {} win?",
        "what is the total for {} and {}",
        "Was {} before {}?",
        "{}",
    ];
    let mut questions = Vec::with_capacity(count);
    for _ in 0..count {
        let template = *templates.choose(rng).expect("templates");
        let mut fill = || {
            let record = rng.gen_range(0..table.num_records());
            let column = rng.gen_range(0..table.num_columns());
            let text = table
                .value_at(record, column)
                .map(|v| v.to_string())
                .unwrap_or_default();
            let words: Vec<&str> = text.split_whitespace().collect();
            match rng.gen_range(0..4) {
                0 => text.clone(),
                1 => words.choose(rng).copied().unwrap_or_default().to_string(),
                2 => text.to_uppercase(),
                _ => table.column_name(column).to_string(),
            }
        };
        let mut question = String::new();
        for (i, part) in template.split("{}").enumerate() {
            if i > 0 {
                question.push_str(&fill());
            }
            question.push_str(part);
        }
        questions.push(question);
    }
    questions
}

/// A table of cells where the two case foldings, number formats and date
/// representations disagree with each other, and where one text matches
/// values of several types in one column (`Code`) in a different order
/// than they first appear.
fn hostile_table() -> Table {
    let rows: [[Value; 5]; 8] = [
        [
            Value::str("İstanbul"),
            Value::parse("$1,000"),
            Value::year(2001),
            Value::parse("March 3, 2001"),
            Value::str("2001"),
        ],
        [
            Value::str("STRASSE"),
            Value::parse("5%"),
            Value::num(2001.0),
            Value::parse("2001-03-03"),
            Value::num(2001.0),
        ],
        [
            Value::str("straße"),
            Value::num(1000.0000000001),
            Value::year(1999),
            Value::parse("October 1983"),
            Value::str("March 3, 2001"),
        ],
        [
            Value::str("Große Straße Nord"),
            Value::num(5.0),
            Value::num(1999.5),
            Value::parse("8 June 2013"),
            Value::date(2001, 3, 3),
        ],
        [
            Value::str("ΣΟΦΟΣ Σοφός"),
            Value::parse("2.945"),
            Value::str("2001"),
            Value::str("Lake Erie"),
            Value::str("ÄRZTE"),
        ],
        [
            Value::str("lake ERIE"),
            Value::parse("-17"),
            Value::str("1,000 islands"),
            Value::str("Erie-Huron canal"),
            Value::str("ΣΟΦΟΣ"),
        ],
        [
            Value::str("Ǆemal"),
            Value::num(f64::INFINITY),
            Value::str("nan"),
            Value::str("Σ"),
            Value::str("Ǆ"),
        ],
        [
            Value::str("ǆemal"),
            Value::num(f64::NAN),
            Value::str("the one"),
            Value::str(""),
            Value::str("1000"),
        ],
    ];
    let mut builder = TableBuilder::new("hostile")
        .column("City")
        .column("Amount")
        .column("Year")
        .column("When")
        .column("Code");
    for row in rows {
        builder = builder.row(row.to_vec()).expect("five cells");
    }
    builder.build().expect("hostile table")
}

const HOSTILE_QUESTIONS: &[&str] = &[
    "Was İstanbul bigger than STRASSE?",
    "which city is i̇stanbul",
    "How many straße rows are there?",
    "how many in STRASSE or strasse or straße",
    "Which row has große and nord?",
    "What about $1,000 and 5%?",
    "was it 1,000 or 1000 or 1000.0000000001",
    "amount of 5 percent",
    "what happened in 2001",
    "What happened on March 3, 2001?",
    "what happened on 2001-03-03",
    "was it 2001/03/03 or 3 march 2001",
    "What happened in October 1983 or 1983-10?",
    "what about 8 june 2013 and 2013-06-08",
    "Is 1999 or 1999.5 or 2,001 listed?",
    "which is σοφός or ΣΟΦΟΣ or σοφοσ",
    "compare lake erie with erie and huron",
    "what about the canal",
    "is ǆemal the same as Ǆemal or ǅemal",
    "were the ärzte or the σοφος or the σοφοσ there",
    "code 2001 or march 3 2001",
    "what is nan or inf or infinity or -17",
    "Which has the one",
    "islands",
    "σ",
    "",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A random table from every domain: generated questions and questions
    /// built from cell words link identically through index and scan.
    #[test]
    fn indexed_linking_matches_scan_on_random_tables(seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for domain in &all_domains() {
            let table = generate_table(domain, seed as usize, &mut rng);
            let kb = KnowledgeBase::new(&table);
            let mut questions: Vec<String> = generate_questions(&table, 3, &mut rng)
                .into_iter()
                .map(|q| q.question)
                .collect();
            questions.extend(cell_word_questions(&table, 6, &mut rng));
            for question in &questions {
                assert_same_links(&kb, question)?;
            }
        }
    }
}

#[test]
fn indexed_linking_matches_scan_on_a_2000_row_table() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let domain = &all_domains()[0];
    let table = generate_table_with_rows(domain, 0, 2000, &mut rng);
    let kb = KnowledgeBase::new(&table);
    let mut questions: Vec<String> = generate_questions(&table, 4, &mut rng)
        .into_iter()
        .map(|q| q.question)
        .collect();
    questions.extend(cell_word_questions(&table, 4, &mut rng));
    for question in &questions {
        assert_same_links(&kb, question).unwrap();
    }
}

#[test]
fn indexed_linking_matches_scan_on_hostile_text() {
    let table = hostile_table();
    let kb = KnowledgeBase::new(&table);
    for question in HOSTILE_QUESTIONS {
        assert_same_links(&kb, question).unwrap();
    }
    // Every cell's own text, raw and case-shifted, as a lookup key.
    for record in 0..table.num_records() {
        for column in 0..table.num_columns() {
            let text = table.value_at(record, column).unwrap().to_string();
            for variant in [
                text.clone(),
                text.to_lowercase(),
                text.to_uppercase(),
                format!("  {text} "),
            ] {
                assert_same_text_links(&kb, &variant).unwrap();
                assert_same_links(&kb, &variant).unwrap();
            }
        }
    }
}
