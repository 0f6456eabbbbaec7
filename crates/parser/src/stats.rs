//! Parse-pipeline observability: timing spans for each stage of question
//! parsing, counted per parser.
//!
//! Every [`crate::SemanticParser::parse_in_session`] call is decomposed
//! into monotonic-clock spans — tokenize, lexicon (entity linking),
//! candidate composition, candidate execution (`eval`), feature extraction
//! and scoring/ranking — accumulated into the parser's [`ParseCounters`]
//! set (plain relaxed atomics, one batch of `fetch_add`s per question,
//! nothing on the per-candidate path) and snapshotted into a serializable
//! [`ParseStats`] that the core engine embeds in its stats surface.
//!
//! Like `wtq_sql::PlannerCounters`, the counters are per owner, not
//! process-wide: every parser is built with a fresh set (its clones share
//! it), and [`crate::SemanticParser::with_counters`] hands it another, so
//! two engines — or interleaved tests and benches — never bleed counts into
//! each other.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// A point-in-time snapshot of the parse-stage timing counters.
/// Serializable so stats endpoints can embed it directly; all spans are
/// cumulative nanoseconds across every question counted in the set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseStats {
    /// Questions parsed end to end (`parse_in_session` calls).
    pub questions: u64,
    /// Normalization + tokenization time.
    pub tokenize_ns: u64,
    /// Entity linking time (value links, column links, numbers).
    pub lexicon_ns: u64,
    /// Candidate composition time, *excluding* formula execution.
    pub candidates_ns: u64,
    /// Formula execution time during candidate generation (the evaluator
    /// calls that filter record bases and denote candidates).
    pub eval_ns: u64,
    /// Feature extraction time (question context + per-candidate vectors).
    pub features_ns: u64,
    /// Scoring and ranking time (dot products + sort).
    pub score_ns: u64,
}

impl ParseStats {
    /// Total time across all spans.
    pub fn total_ns(&self) -> u64 {
        self.tokenize_ns
            + self.lexicon_ns
            + self.candidates_ns
            + self.eval_ns
            + self.features_ns
            + self.score_ns
    }
}

/// One parse's span measurements, flushed to a [`ParseCounters`] set in a
/// single batch by [`ParseCounters::record`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ParseSpans {
    pub tokenize_ns: u64,
    pub lexicon_ns: u64,
    pub candidates_ns: u64,
    pub eval_ns: u64,
    pub features_ns: u64,
    pub score_ns: u64,
}

thread_local! {
    /// The most recent parse's spans on this thread, for callers that want
    /// the *per-question* breakdown (request tracing) rather than the
    /// cumulative counters. Thread-local is exact here: a parse
    /// runs inline on its calling thread, so the caller that triggered it
    /// reads back precisely its own spans.
    static LAST_PARSE: Cell<Option<ParseSpans>> = const { Cell::new(None) };
}

/// One parser's stage counters. Records are relaxed atomics, so a set can
/// be shared across threads behind an `Arc` (an engine's sessions all parse
/// through the engine's one parser).
#[derive(Debug, Default)]
pub struct ParseCounters {
    questions: AtomicU64,
    tokenize_ns: AtomicU64,
    lexicon_ns: AtomicU64,
    candidates_ns: AtomicU64,
    eval_ns: AtomicU64,
    features_ns: AtomicU64,
    score_ns: AtomicU64,
}

impl ParseCounters {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> ParseStats {
        ParseStats {
            questions: self.questions.load(Ordering::Relaxed),
            tokenize_ns: self.tokenize_ns.load(Ordering::Relaxed),
            lexicon_ns: self.lexicon_ns.load(Ordering::Relaxed),
            candidates_ns: self.candidates_ns.load(Ordering::Relaxed),
            eval_ns: self.eval_ns.load(Ordering::Relaxed),
            features_ns: self.features_ns.load(Ordering::Relaxed),
            score_ns: self.score_ns.load(Ordering::Relaxed),
        }
    }

    /// Count one parse, and leave its spans for [`take_last_parse_stats`]
    /// on this thread.
    pub(crate) fn record(&self, spans: &ParseSpans) {
        self.questions.fetch_add(1, Ordering::Relaxed);
        self.tokenize_ns
            .fetch_add(spans.tokenize_ns, Ordering::Relaxed);
        self.lexicon_ns
            .fetch_add(spans.lexicon_ns, Ordering::Relaxed);
        self.candidates_ns
            .fetch_add(spans.candidates_ns, Ordering::Relaxed);
        self.eval_ns.fetch_add(spans.eval_ns, Ordering::Relaxed);
        self.features_ns
            .fetch_add(spans.features_ns, Ordering::Relaxed);
        self.score_ns.fetch_add(spans.score_ns, Ordering::Relaxed);
        LAST_PARSE.with(|last| last.set(Some(*spans)));
    }
}

/// Take the stage breakdown of the most recent parse on *this thread* (the
/// parse pipeline runs inline on its caller), clearing it so a second take
/// cannot attribute one parse to two requests. `None` when no parse has
/// completed on this thread since the last take.
pub fn take_last_parse_stats() -> Option<ParseStats> {
    LAST_PARSE.with(|last| last.take()).map(|spans| ParseStats {
        questions: 1,
        tokenize_ns: spans.tokenize_ns,
        lexicon_ns: spans.lexicon_ns,
        candidates_ns: spans.candidates_ns,
        eval_ns: spans.eval_ns,
        features_ns: spans.features_ns,
        score_ns: spans.score_ns,
    })
}
