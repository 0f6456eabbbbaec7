//! # wtq-parser
//!
//! A log-linear semantic parser mapping natural-language questions over a web
//! table to ranked candidate lambda DCS queries. It stands in for the
//! state-of-the-art parser of Zhang et al. [37] used by the paper (§2, §6.2):
//! the paper's contribution only requires a parser that (a) produces a ranked
//! list of candidate formal queries, (b) is imperfect at rank 1, and (c) can
//! be retrained from question–answer pairs (weak supervision, Eq. 6) and from
//! question–query annotations procured through query explanations (Eq. 7–8).
//!
//! Pipeline:
//!
//! 1. [`lexicon`] links question tokens to table cells, column headers and
//!    numbers,
//! 2. [`candidates`] composes typed lambda DCS formulas anchored to those
//!    links (joins, comparisons, projections, aggregates, superlatives,
//!    differences, …), keeping only formulas that execute to a non-empty
//!    result,
//! 3. [`features`] extracts the sparse feature vector `φ(x, T, z)` of Eq. 4
//!    as interned `(FeatureId, f64)` pairs over the [`symbols`] feature
//!    symbol table,
//! 4. [`model`] scores candidates with a log-linear distribution
//!    `p_θ(z | x, T) ∝ exp(φ(x, T, z)ᵀ θ)` (dense weights indexed by
//!    [`FeatureId`]) and ranks them,
//! 5. [`train`] optimizes `θ` with AdaGrad and L1 regularization using the
//!    weak-supervision objective of Eq. 6, or the annotation-aware objective
//!    of Eq. 8 when user feedback is available.
//!
//! Feature ids are assigned in lexicographic name order, so every id-ordered
//! walk (scoring, serialization, gradient updates) reproduces the historical
//! string-keyed pipeline bit for bit — pinned by [`reference`], which keeps
//! the original `BTreeMap<String, f64>` implementation alive as a
//! differential oracle (with the original entity-linking scan). [`stats`]
//! counts per-stage parse timing spans per parser and [`scratch`] carries
//! the reusable per-session working buffers.

pub mod candidates;
pub mod features;
pub mod lexicon;
pub mod model;
pub mod reference;
pub mod scratch;
pub mod stats;
pub mod symbols;
pub mod train;

pub use candidates::{generate_candidates, generate_candidates_with, CandidateConfig};
pub use features::{extract_features, FeatureVec, QuestionContext};
pub use lexicon::{analyze_question, analyze_question_with, normalize_question, QuestionAnalysis};
pub use model::{formulas_equivalent, Candidate, LogLinearModel, SemanticParser};
pub use scratch::ScratchSpace;
pub use stats::{take_last_parse_stats, ParseCounters, ParseStats};
pub use symbols::{feature_name, intern, lookup, FeatureId};
pub use train::{ParserEvaluation, TrainConfig, TrainExample, Trainer};
