//! Parse-pipeline micro-benchmarks: the interned feature pipeline vs the
//! string-keyed reference.
//!
//! Shared by the `experiments` binary's `parse` section (which embeds the
//! report under `parsing` in `BENCH_exec.json`) and the
//! `parse_regression` CI gate. Each of the five operator workloads —
//! named after the execution-layer workloads they exercise — parses a
//! batch of generated questions of one [`QuestionFamily`] end to end
//! (lexicon → candidates → features → scoring), timed two ways in
//! interleaved rounds:
//!
//! * **reference** — the string-keyed pipeline
//!   (`wtq_parser::reference::parse_in_session_reference`), feature maps
//!   keyed by owned `String`s, the executable pre-interning semantics,
//! * **interned** — the production pipeline
//!   (`SemanticParser::parse_in_session_with`): `FeatureId` symbol table,
//!   sorted sparse vectors, dense weights and a reused [`ScratchSpace`].
//!
//! Both run over the same warm evaluator session, so the comparison
//! isolates the feature representation. The report also snapshots the
//! [`wtq_parser::ParseStats`] stage counters accumulated by the interned
//! runs — the tokenize/lexicon/candidates/eval/features/score breakdown.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use wtq_dataset::questions::{generate_for_family, QuestionFamily};
use wtq_dcs::Evaluator;
use wtq_parser::reference::{parse_in_session_reference, ReferenceModel};
use wtq_parser::{ParseStats, ScratchSpace, SemanticParser};
use wtq_table::Table;

use crate::exec::interleaved_us;
use crate::EXPERIMENT_SEED;

/// The five parse workloads, named after the execution-layer workload each
/// question family's gold formula exercises.
pub fn parse_workloads() -> Vec<(&'static str, QuestionFamily)> {
    vec![
        ("join", QuestionFamily::Lookup),
        ("compare", QuestionFamily::ComparisonCount),
        ("superlative", QuestionFamily::SuperlativeLookup),
        ("intersect", QuestionFamily::IntersectionCount),
        ("project_aggregate", QuestionFamily::ExtremeValue),
    ]
}

/// The table every parse workload runs against (a regular generated table,
/// matching the candidate-throughput measurement in [`crate::exec`]).
pub fn parse_table() -> Table {
    let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED + 3);
    let domain = &wtq_dataset::all_domains()[0];
    wtq_dataset::generate_table(domain, 1, &mut rng)
}

/// Up to `count` distinct questions of `family` about `table`.
pub fn family_questions(
    table: &Table,
    family: QuestionFamily,
    count: usize,
    seed: u64,
) -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out: Vec<String> = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 40 {
        attempts += 1;
        let Some(generated) = generate_for_family(table, family, &mut rng) else {
            continue;
        };
        if !out.contains(&generated.question) {
            out.push(generated.question);
        }
    }
    out
}

/// One workload's timings, microseconds per question.
#[derive(Debug, Clone, Serialize)]
pub struct ParseCase {
    /// Workload name (mirrors the execution-layer workload names).
    pub name: String,
    /// The question family parsed.
    pub family: String,
    /// Questions in the batch.
    pub questions: usize,
    /// String-keyed reference pipeline, µs per question.
    pub reference_us: f64,
    /// Interned pipeline, µs per question.
    pub interned_us: f64,
    /// `reference_us / interned_us`.
    pub speedup: f64,
}

/// Per-question mean of each parse stage, derived from the process-wide
/// [`ParseStats`] counters accumulated while the interned variant ran.
#[derive(Debug, Clone, Serialize)]
pub struct StageBreakdown {
    /// Questions the counters cover.
    pub questions: u64,
    /// Normalization + tokenization, µs per question.
    pub tokenize_us: f64,
    /// Entity linking, µs per question.
    pub lexicon_us: f64,
    /// Candidate composition (excluding execution), µs per question.
    pub candidates_us: f64,
    /// Formula execution during candidate generation, µs per question.
    pub eval_us: f64,
    /// Feature extraction, µs per question.
    pub features_us: f64,
    /// Scoring + ranking, µs per question.
    pub score_us: f64,
    /// Sum of all spans, µs per question.
    pub total_us: f64,
}

impl StageBreakdown {
    /// Per-question means of a counter snapshot.
    pub fn from_stats(stats: &ParseStats) -> Self {
        let n = stats.questions.max(1) as f64;
        let us = |ns: u64| ns as f64 / n / 1e3;
        StageBreakdown {
            questions: stats.questions,
            tokenize_us: us(stats.tokenize_ns),
            lexicon_us: us(stats.lexicon_ns),
            candidates_us: us(stats.candidates_ns),
            eval_us: us(stats.eval_ns),
            features_us: us(stats.features_ns),
            score_us: us(stats.score_ns),
            total_us: us(stats.total_ns()),
        }
    }
}

/// The parse-section report (embedded under `parsing` in `BENCH_exec.json`).
#[derive(Debug, Clone, Serialize)]
pub struct ParsingReport {
    /// Questions per workload batch.
    pub questions_per_workload: usize,
    /// The five per-workload comparisons.
    pub cases: Vec<ParseCase>,
    /// Aggregate interned questions/second across all workloads.
    pub interned_qps: f64,
    /// Aggregate string-keyed reference questions/second.
    pub reference_qps: f64,
    /// `interned_qps / reference_qps`.
    pub speedup: f64,
    /// Stage breakdown of the interned pipeline over the measured parses.
    pub stages: StageBreakdown,
}

/// Run the interned-vs-reference parse comparison, `questions_per_workload`
/// generated questions per family.
pub fn parsing_report(questions_per_workload: usize) -> ParsingReport {
    let table = parse_table();
    let parser = SemanticParser::with_prior();
    let reference = ReferenceModel::from_model(&parser.model);

    let mut cases = Vec::new();
    let mut interned_total_us = 0.0;
    let mut reference_total_us = 0.0;
    let mut total_questions = 0usize;
    for (name, family) in parse_workloads() {
        let questions = family_questions(
            &table,
            family,
            questions_per_workload,
            EXPERIMENT_SEED + cases.len() as u64,
        );
        assert!(!questions.is_empty(), "no {name} questions generated");
        // Both variants share one warm evaluator session (and therefore its
        // cross-candidate denotation cache), so the measured difference is
        // the feature representation, not execution.
        let evaluator = Evaluator::new(&table);
        let mut scratch = ScratchSpace::new();
        for question in &questions {
            let _ = parser.parse_in_session_with(question, &evaluator, &mut scratch);
            let _ = parse_in_session_reference(&reference, &parser.config, question, &evaluator);
        }
        let timings = interleaved_us(&mut [
            &mut || {
                for question in &questions {
                    let _ = parse_in_session_reference(
                        &reference,
                        &parser.config,
                        question,
                        &evaluator,
                    );
                }
            },
            &mut || {
                for question in &questions {
                    let _ = parser.parse_in_session_with(question, &evaluator, &mut scratch);
                }
            },
        ]);
        let per_question = questions.len() as f64;
        let (reference_us, interned_us) = (timings[0] / per_question, timings[1] / per_question);
        interned_total_us += interned_us * per_question;
        reference_total_us += reference_us * per_question;
        total_questions += questions.len();
        cases.push(ParseCase {
            name: name.to_string(),
            family: family.name().to_string(),
            questions: questions.len(),
            reference_us,
            interned_us,
            speedup: reference_us / interned_us,
        });
    }
    let stages = StageBreakdown::from_stats(&parser.counters().snapshot());

    let interned_qps = 1e6 * total_questions as f64 / interned_total_us;
    let reference_qps = 1e6 * total_questions as f64 / reference_total_us;
    ParsingReport {
        questions_per_workload,
        cases,
        interned_qps,
        reference_qps,
        speedup: interned_qps / reference_qps,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_five_workloads_with_sane_numbers() {
        let report = parsing_report(2);
        assert_eq!(report.cases.len(), 5);
        let names: Vec<&str> = report.cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "join",
                "compare",
                "superlative",
                "intersect",
                "project_aggregate"
            ]
        );
        for case in &report.cases {
            assert!(case.questions > 0, "{}", case.name);
            assert!(case.reference_us > 0.0, "{}", case.name);
            assert!(case.interned_us > 0.0, "{}", case.name);
        }
        assert!(report.interned_qps > 0.0);
        assert!(report.reference_qps > 0.0);
        // The interned runs recorded their stage spans.
        assert!(report.stages.questions > 0);
        assert!(report.stages.total_us > 0.0);
        assert!(report.stages.features_us > 0.0);
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        assert!(json.contains("interned_qps"));
        assert!(json.contains("tokenize_us"));
    }
}
