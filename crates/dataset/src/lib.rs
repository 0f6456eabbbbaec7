//! # wtq-dataset
//!
//! Synthetic WikiTableQuestions-style dataset (the substitution for the
//! benchmark of §6.1; see the `wtq-dataset` row of README.md's *Workspace
//! layout*).
//!
//! The real WikiTableQuestions corpus pairs 22,033 crowd-sourced questions
//! with ~2,100 Wikipedia tables (each at least 8 rows × 5 columns) and keeps
//! the train and test tables disjoint. This crate generates data with the
//! same structural profile so the rest of the reproduction (semantic parser,
//! user study, retraining experiments) can run offline:
//!
//! * [`domains`] — a catalogue of table schemas across distinct domains
//!   (sports, geography, media, commerce, …) with realistic vocabulary,
//! * [`tablegen`] — random table generation from a domain (≥ 8 rows, ≥ 5
//!   columns, mixed string / number / date columns),
//! * [`questions`] — templated question families covering the operator mix of
//!   the paper (lookup, aggregation, superlatives, arithmetic difference,
//!   previous/next row, counting, comparisons, intersection, union), each
//!   producing an NL question, its gold lambda DCS formula and gold answer,
//! * [`dataset`] — example records, disjoint-table train/test splits and JSON
//!   persistence.
//!
//! All generation is seeded and deterministic.

pub mod dataset;
pub mod domains;
pub mod questions;
pub mod tablegen;

pub use dataset::{Dataset, Example, Split};
pub use domains::{all_domains, Domain};
pub use questions::{generate_questions, QuestionFamily};
pub use tablegen::generate_table;
