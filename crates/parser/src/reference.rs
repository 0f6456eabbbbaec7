//! The string-keyed reference pipeline (executable specification).
//!
//! This module preserves the original `BTreeMap<String, f64>` feature
//! extraction, scoring, ranking and AdaGrad training, exactly as they were
//! before feature names were interned ([`crate::symbols`]), and the original
//! entity-linking scan ([`link_stage_scan`]) from before linking moved onto
//! the table's [`wtq_table::LexiconIndex`]. It exists for the same two
//! reasons as `wtq_dcs::reference`:
//!
//! 1. **Differential testing** — the proptest suites assert that the
//!    interned pipeline produces candidate scores, ranking orders and
//!    trained weights *byte-identical* to this implementation on random
//!    tables and questions, and that indexed linking produces the scan's
//!    links in the scan's order.
//! 2. **Benchmark baseline** — the `parse_regression` CI gate and the
//!    `parsing` experiment section report interned-vs-string speedups
//!    against this implementation.
//!
//! Keep this module boring: it must stay a faithful copy of the historical
//! behavior, string allocations, B-tree walks, repeated `sub_formulas()`
//! traversals, `to_string()` in the sort comparator and all.

use std::collections::{BTreeMap, HashSet};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wtq_dcs::{AggregateOp, Answer, Evaluator, Formula, SuperlativeOp};
use wtq_table::{Catalog, IndexCache, KnowledgeBase, Table, Value};

use crate::candidates::{generate_candidates_with, CandidateConfig, RawCandidate};
use crate::lexicon::{analyze_question_with, QuestionAnalysis, ValueLink, STOP_WORDS};
use crate::model::{softmax, LogLinearModel};
use crate::train::{reward, TrainConfig, TrainExample};

/// The original sparse feature vector: name → value.
pub type ReferenceFeatures = BTreeMap<String, f64>;

fn bump(features: &mut ReferenceFeatures, name: &str, delta: f64) {
    *features.entry(name.to_string()).or_insert(0.0) += delta;
}

fn set(features: &mut ReferenceFeatures, name: &str, value: f64) {
    features.insert(name.to_string(), value);
}

/// Root operator label used for the `family:` feature.
fn root_label(formula: &Formula) -> &'static str {
    match formula {
        Formula::Const(_) => "const",
        Formula::AllRecords => "all_records",
        Formula::Join { .. } => "join",
        Formula::CompareJoin { .. } => "compare_join",
        Formula::ColumnValues { .. } => "column_values",
        Formula::Prev(_) => "prev",
        Formula::Next(_) => "next",
        Formula::Intersect(_, _) => "intersect",
        Formula::Union(_, _) => "union",
        Formula::Aggregate {
            op: AggregateOp::Count,
            ..
        } => "count",
        Formula::Aggregate { .. } => "aggregate",
        Formula::SuperlativeRecords { .. } => "superlative",
        Formula::RecordIndexSuperlative { .. } => "index_superlative",
        Formula::MostCommonValue { .. } => "most_common",
        Formula::CompareValues { .. } => "compare_values",
        Formula::Sub(_, _) => "difference",
    }
}

fn operators_used(formula: &Formula) -> Vec<&'static str> {
    formula
        .sub_formulas()
        .iter()
        .map(|f| root_label(f))
        .collect()
}

/// Constants appearing anywhere in the formula, rendered as lower-case text.
fn constants_of(formula: &Formula) -> Vec<String> {
    formula
        .sub_formulas()
        .iter()
        .filter_map(|f| match f {
            Formula::Const(value) => Some(value.to_string().to_lowercase()),
            _ => None,
        })
        .collect()
}

/// Extract the feature vector of one candidate — the original string-keyed
/// extractor, kept verbatim.
pub fn extract_features_reference(
    analysis: &QuestionAnalysis,
    table: &Table,
    candidate: &RawCandidate,
) -> ReferenceFeatures {
    let mut features = ReferenceFeatures::new();
    let formula = &candidate.formula;

    // ---- Formula shape -----------------------------------------------------
    set(
        &mut features,
        &format!("family:{}", root_label(formula)),
        1.0,
    );
    let operators = operators_used(formula);
    for op in &operators {
        bump(&mut features, &format!("op:{op}"), 1.0);
    }
    set(&mut features, "size", formula.size() as f64 / 8.0);

    // ---- Question / formula alignment ---------------------------------------
    let constants = constants_of(formula);
    let mut grounded = 0usize;
    for constant in &constants {
        if analysis.lowered.contains(constant)
            || analysis
                .numbers
                .iter()
                .any(|n| wtq_table::Value::Num(*n).to_string() == *constant)
        {
            grounded += 1;
        } else {
            bump(&mut features, "const_not_in_question", 1.0);
        }
    }
    if !constants.is_empty() {
        set(
            &mut features,
            "const_coverage",
            grounded as f64 / constants.len() as f64,
        );
    }
    // Linked values the formula fails to use (a correct parse usually uses
    // every linked entity).
    let unused_links = analysis
        .value_links
        .iter()
        .filter(|link| {
            let text = link.value.to_string().to_lowercase();
            !constants.iter().any(|c| c == &text)
        })
        .count();
    set(&mut features, "unused_links", unused_links as f64);

    let mut columns_in_question = 0usize;
    let mentioned_columns = formula.columns_mentioned();
    for column in &mentioned_columns {
        if analysis.lowered.contains(&column.to_lowercase()) {
            columns_in_question += 1;
        } else {
            bump(&mut features, "col_not_in_question", 1.0);
        }
    }
    if !mentioned_columns.is_empty() {
        set(
            &mut features,
            "col_coverage",
            columns_in_question as f64 / mentioned_columns.len() as f64,
        );
    }
    let _ = table;

    // ---- Trigger phrase / operator agreement --------------------------------
    let triggers: &[(&str, &[&str])] = &[
        (
            "count",
            &["how many", "number of", "how often", "how many times"],
        ),
        (
            "difference",
            &["difference", "how many more", "how much more", "more rows"],
        ),
        (
            "aggregate_max",
            &["highest", "most", "largest", "greatest", "maximum", "top"],
        ),
        (
            "aggregate_min",
            &["lowest", "least", "smallest", "fewest", "minimum", "bottom"],
        ),
        (
            "sum",
            &["total", "sum", "in total", "altogether", "combined"],
        ),
        ("avg", &["average", "mean"]),
        ("prev", &["before", "above", "previous", "prior"]),
        ("next", &["after", "below", "next", "following"]),
        ("last", &["last", "latest", "final", "most recent"]),
        ("first", &["first", "earliest"]),
        (
            "compare",
            &[
                "higher", "lower", "older", "younger", "bigger", "smaller", "longer", "shorter",
            ],
        ),
        (
            "most_common",
            &[
                "most common",
                "appears the most",
                "most frequent",
                "most often",
            ],
        ),
        ("union", &[" or "]),
        ("intersect", &[" and also ", " both "]),
        (
            "comparison",
            &[
                "more than",
                "less than",
                "at least",
                "at most",
                "over",
                "under",
            ],
        ),
    ];
    let has_op = |name: &str| operators.contains(&name);
    let uses_max_aggregate = formula.sub_formulas().iter().any(|f| {
        matches!(
            f,
            Formula::Aggregate {
                op: AggregateOp::Max,
                ..
            }
        )
    });
    let uses_min_aggregate = formula.sub_formulas().iter().any(|f| {
        matches!(
            f,
            Formula::Aggregate {
                op: AggregateOp::Min,
                ..
            }
        )
    });
    let uses_sum = formula.sub_formulas().iter().any(|f| {
        matches!(
            f,
            Formula::Aggregate {
                op: AggregateOp::Sum,
                ..
            }
        )
    });
    let uses_avg = formula.sub_formulas().iter().any(|f| {
        matches!(
            f,
            Formula::Aggregate {
                op: AggregateOp::Avg,
                ..
            }
        )
    });
    let uses_argmax = formula.sub_formulas().iter().any(|f| {
        matches!(
            f,
            Formula::SuperlativeRecords {
                op: SuperlativeOp::Argmax,
                ..
            } | Formula::CompareValues {
                op: SuperlativeOp::Argmax,
                ..
            }
        )
    });
    let uses_argmin = formula.sub_formulas().iter().any(|f| {
        matches!(
            f,
            Formula::SuperlativeRecords {
                op: SuperlativeOp::Argmin,
                ..
            } | Formula::CompareValues {
                op: SuperlativeOp::Argmin,
                ..
            }
        )
    });
    let uses_last = formula.sub_formulas().iter().any(|f| {
        matches!(
            f,
            Formula::RecordIndexSuperlative {
                op: SuperlativeOp::Argmax,
                ..
            }
        )
    });
    let uses_first = formula.sub_formulas().iter().any(|f| {
        matches!(
            f,
            Formula::RecordIndexSuperlative {
                op: SuperlativeOp::Argmin,
                ..
            }
        )
    });
    for (kind, phrases) in triggers {
        let triggered = analysis.mentions_any(phrases);
        let used = match *kind {
            "count" => has_op("count"),
            "difference" => has_op("difference"),
            "aggregate_max" => uses_max_aggregate || uses_argmax || uses_last,
            "aggregate_min" => uses_min_aggregate || uses_argmin || uses_first,
            "sum" => uses_sum,
            "avg" => uses_avg,
            "prev" => has_op("prev"),
            "next" => has_op("next"),
            "last" => uses_last || uses_max_aggregate || uses_argmax,
            "first" => uses_first || uses_min_aggregate || uses_argmin,
            "compare" => has_op("compare_values"),
            "most_common" => has_op("most_common"),
            "union" => has_op("union"),
            "intersect" => has_op("intersect"),
            "comparison" => has_op("compare_join"),
            _ => false,
        };
        match (triggered, used) {
            (true, true) => bump(&mut features, &format!("trig+op:{kind}"), 1.0),
            (true, false) => bump(&mut features, &format!("trig-op:{kind}"), 1.0),
            (false, true) => bump(&mut features, &format!("op-trig:{kind}"), 1.0),
            (false, false) => {}
        }
    }

    // ---- Denotation features -------------------------------------------------
    match &candidate.answer {
        Answer::Number(_) => set(&mut features, "answer:number", 1.0),
        Answer::Values(values) => {
            set(&mut features, "answer:values", 1.0);
            set(
                &mut features,
                "answer_size",
                (values.len() as f64).min(6.0) / 6.0,
            );
            if values.len() == 1 {
                set(&mut features, "answer:singleton", 1.0);
            }
            if values.iter().all(|v| v.as_number().is_some()) {
                set(&mut features, "answer:numeric_values", 1.0);
            }
        }
        Answer::Records(_) => set(&mut features, "answer:records", 1.0),
    }
    let wants_number = analysis.mentions_any(&["how many", "how much", "number of", "difference"]);
    let is_number = matches!(candidate.answer, Answer::Number(_));
    match (wants_number, is_number) {
        (true, true) => set(&mut features, "wh:number_match", 1.0),
        (true, false) => set(&mut features, "wh:number_mismatch", 1.0),
        (false, true) => set(&mut features, "wh:unexpected_number", 1.0),
        (false, false) => {}
    }

    features
}

/// Dot product of a string-keyed feature vector with a string-keyed weight
/// map — the original scoring walk.
pub fn dot_reference(features: &ReferenceFeatures, weights: &BTreeMap<String, f64>) -> f64 {
    features
        .iter()
        .map(|(name, value)| value * weights.get(name).copied().unwrap_or(0.0))
        .sum()
}

/// The original model representation: a sparse name → weight map.
#[derive(Debug, Clone, Default)]
pub struct ReferenceModel {
    /// The weight map (zero-weight entries included, as historically).
    pub weights: BTreeMap<String, f64>,
}

impl ReferenceModel {
    /// The string-keyed view of an interned model.
    pub fn from_model(model: &LogLinearModel) -> Self {
        ReferenceModel {
            weights: model.sorted_weights(),
        }
    }

    /// Score a reference feature vector.
    pub fn score(&self, features: &ReferenceFeatures) -> f64 {
        dot_reference(features, &self.weights)
    }
}

/// One candidate ranked by the reference pipeline.
#[derive(Debug, Clone)]
pub struct ReferenceCandidate {
    /// The candidate lambda DCS formula.
    pub formula: Formula,
    /// Its canonical answer on the table.
    pub answer: Answer,
    /// The string-keyed feature vector.
    pub features: ReferenceFeatures,
    /// The model score.
    pub score: f64,
}

/// Rank raw candidates exactly like the original `SemanticParser::rank` —
/// including the `formula.to_string()` computed inside the sort comparator.
pub fn rank_reference(
    model: &ReferenceModel,
    raw: Vec<RawCandidate>,
    analysis: &QuestionAnalysis,
    table: &Table,
) -> Vec<ReferenceCandidate> {
    let mut candidates: Vec<ReferenceCandidate> = raw
        .into_iter()
        .map(|RawCandidate { formula, answer }| {
            let features = extract_features_reference(
                analysis,
                table,
                &RawCandidate {
                    formula: formula.clone(),
                    answer: answer.clone(),
                },
            );
            let score = model.score(&features);
            ReferenceCandidate {
                formula,
                answer,
                features,
                score,
            }
        })
        .collect();
    candidates.sort_by(|a, b| {
        crate::model::ranking_order(
            (a.score, a.formula.size(), &a.formula.to_string()),
            (b.score, b.formula.size(), &b.formula.to_string()),
        )
    });
    candidates
}

/// End-to-end reference parse sharing an evaluator session: the original
/// analyze → generate → string-keyed rank path.
pub fn parse_in_session_reference(
    model: &ReferenceModel,
    config: &CandidateConfig,
    question: &str,
    evaluator: &Evaluator<'_>,
) -> Vec<ReferenceCandidate> {
    let analysis = analyze_question_with(question, evaluator.kb());
    let raw = generate_candidates_with(&analysis, evaluator, config);
    rank_reference(model, raw, &analysis, evaluator.table())
}

/// A prepared candidate of the reference trainer (mirrors the interned
/// trainer's `PreparedCandidate`).
struct PreparedReference {
    formula: Formula,
    answer: Answer,
    features: ReferenceFeatures,
    size: usize,
    key: String,
}

fn prepare_reference(
    config: &CandidateConfig,
    indexes: &IndexCache,
    example: &TrainExample,
    catalog: &Catalog,
) -> Option<Vec<PreparedReference>> {
    let table = catalog.get(&example.table)?;
    let index = indexes.get_or_build(table);
    let evaluator = Evaluator::with_index(table, index);
    let analysis = analyze_question_with(&example.question, evaluator.kb());
    let raw = generate_candidates_with(&analysis, &evaluator, config);
    Some(
        raw.into_iter()
            .map(|raw_candidate| {
                let features = extract_features_reference(&analysis, table, &raw_candidate);
                PreparedReference {
                    size: raw_candidate.formula.size(),
                    key: raw_candidate.formula.to_string(),
                    formula: raw_candidate.formula,
                    answer: raw_candidate.answer,
                    features,
                }
            })
            .collect(),
    )
}

/// The original AdaGrad trainer over string-keyed weight maps. Training
/// schedules (shuffle order, epochs, parallel preparation) match
/// [`crate::Trainer`] exactly, so trained weights must come out
/// byte-identical.
pub struct ReferenceTrainer {
    adagrad: BTreeMap<String, f64>,
    indexes: IndexCache,
    config: TrainConfig,
}

impl ReferenceTrainer {
    /// A reference trainer with the given hyper-parameters.
    pub fn new(config: TrainConfig) -> Self {
        ReferenceTrainer {
            adagrad: BTreeMap::new(),
            indexes: IndexCache::new(),
            config,
        }
    }

    /// Train `model` in place on `examples` — the original training loop.
    pub fn train(
        &mut self,
        model: &mut ReferenceModel,
        config: &CandidateConfig,
        examples: &[TrainExample],
        catalog: &Catalog,
    ) {
        let prepared: Vec<Option<Vec<PreparedReference>>> = {
            let indexes = &self.indexes;
            wtq_runtime::run_batch(
                self.config.workers,
                examples.iter().collect(),
                |_, example| prepare_reference(config, indexes, example, catalog),
            )
        };
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for &index in &order {
                if let Some(prepared) = &prepared[index] {
                    self.step(model, prepared, &examples[index]);
                }
            }
        }
    }

    fn step(
        &mut self,
        model: &mut ReferenceModel,
        prepared: &[PreparedReference],
        example: &TrainExample,
    ) -> bool {
        if prepared.is_empty() {
            return false;
        }
        let mut ranked: Vec<(&PreparedReference, f64)> = prepared
            .iter()
            .map(|candidate| (candidate, model.score(&candidate.features)))
            .collect();
        ranked.sort_by(|(a, a_score), (b, b_score)| {
            crate::model::ranking_order((*a_score, a.size, &a.key), (*b_score, b.size, &b.key))
        });
        let scores: Vec<f64> = ranked.iter().map(|(_, score)| *score).collect();
        let probabilities = softmax(&scores);
        let rewards: Vec<f64> = ranked
            .iter()
            .map(|(candidate, _)| reward(&candidate.formula, &candidate.answer, example))
            .collect();
        let reward_mass: f64 = probabilities.iter().zip(&rewards).map(|(p, r)| p * r).sum();
        if reward_mass <= 0.0 {
            return false;
        }
        let posterior: Vec<f64> = probabilities
            .iter()
            .zip(&rewards)
            .map(|(p, r)| p * r / reward_mass)
            .collect();
        let mut gradient: BTreeMap<String, f64> = BTreeMap::new();
        for (((candidate, _), q), p) in ranked.iter().zip(&posterior).zip(&probabilities) {
            let delta = q - p;
            if delta == 0.0 {
                continue;
            }
            for (name, value) in &candidate.features {
                *gradient.entry(name.clone()).or_insert(0.0) += delta * value;
            }
        }
        for (name, g) in gradient {
            let accumulated = self.adagrad.entry(name.clone()).or_insert(0.0);
            *accumulated += g * g;
            let step = self.config.learning_rate / (accumulated.sqrt() + 1e-8);
            let entry = model.weights.entry(name).or_insert(0.0);
            *entry += step * g;
            let shrink = self.config.l1 * step;
            if *entry > shrink {
                *entry -= shrink;
            } else if *entry < -shrink {
                *entry += shrink;
            } else {
                *entry = 0.0;
            }
        }
        true
    }
}

/// The original entity-linking stage: every n-gram scans every distinct
/// value of every column ([`link_text_scan`]), and the partial-link pass
/// renders and word-splits every distinct value once per content token.
/// Takes the output of normalization and tokenization, like the indexed
/// stage it specifies.
pub fn link_stage_scan(
    lowered: String,
    tokens: Vec<String>,
    kb: &KnowledgeBase<'_>,
) -> QuestionAnalysis {
    let table = kb.table();
    let mut column_links = Vec::new();
    for column in 0..table.num_columns() {
        let header = table.column_name(column).to_lowercase();
        if !header.is_empty() && lowered.contains(&header) {
            column_links.push(column);
        }
    }

    let mut value_links: Vec<ValueLink> = Vec::new();
    let mut consumed: HashSet<usize> = HashSet::new();
    for n in (1..=4usize).rev() {
        if n > tokens.len() {
            continue;
        }
        for start in 0..=(tokens.len() - n) {
            if (start..start + n).any(|i| consumed.contains(&i)) {
                continue;
            }
            let phrase = tokens[start..start + n].join(" ");
            if n == 1 && (STOP_WORDS.contains(&phrase.as_str()) || phrase.len() < 2) {
                continue;
            }
            let links = link_text_scan(kb, &phrase);
            if links.is_empty() {
                continue;
            }
            for (column, value) in links {
                if !value_links
                    .iter()
                    .any(|l| l.column == column && l.value == value)
                {
                    value_links.push(ValueLink {
                        column,
                        value,
                        phrase: phrase.clone(),
                    });
                }
            }
            for i in start..start + n {
                consumed.insert(i);
            }
        }
    }

    let distinct_per_column: Vec<Vec<Value>> = (0..table.num_columns())
        .map(|column| table.distinct_column_values(column))
        .collect();
    for (i, token) in tokens.iter().enumerate() {
        if consumed.contains(&i) || token.len() < 3 || STOP_WORDS.contains(&token.as_str()) {
            continue;
        }
        if token.parse::<f64>().is_ok() {
            continue;
        }
        for (column, distinct) in distinct_per_column.iter().enumerate() {
            for value in distinct {
                let text = value.to_string().to_lowercase();
                let is_word_inside = text != *token
                    && text
                        .split(|c: char| !c.is_alphanumeric())
                        .any(|word| word == token);
                if is_word_inside
                    && !value_links
                        .iter()
                        .any(|l| l.column == column && l.value == *value)
                {
                    value_links.push(ValueLink {
                        column,
                        value: value.clone(),
                        phrase: token.clone(),
                    });
                }
            }
        }
    }

    let mut numbers: Vec<f64> = tokens
        .iter()
        .filter_map(|t| t.parse::<f64>().ok())
        .collect();
    numbers.dedup();

    QuestionAnalysis {
        tokens,
        lowered,
        value_links,
        column_links,
        numbers,
    }
}

/// The original `KnowledgeBase::link_text`: every `(column, value)` pair
/// whose value matches `text` ([`Value::matches_text`]), found by testing
/// every distinct value of every column, sorted by column then value.
pub fn link_text_scan(kb: &KnowledgeBase<'_>, text: &str) -> Vec<(usize, Value)> {
    let mut out = Vec::new();
    for column in 0..kb.index().num_columns() {
        for (value, _records) in kb.column(column).entries() {
            if value.matches_text(text) {
                out.push((column, value.clone()));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    out
}
