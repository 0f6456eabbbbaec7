//! The two-tier serving architecture: a shared [`Engine`] and per-request
//! [`Session`]s.
//!
//! The paper's system is a *serving* workload — a user asks a question over
//! a table and interactively inspects the explanations — so the pipeline is
//! split along the axis of sharing:
//!
//! * [`Engine`] is the immutable, `Send + Sync` tier: the trained
//!   [`SemanticParser`] (model weights + lexicon/candidate configuration)
//!   and a thread-safe, LRU-bounded [`IndexCache`] of per-table columnar
//!   indexes. One `Engine` lives behind an `Arc` (or a `&'static`) and is
//!   shared by every worker thread; nothing in it mutates under `&self`
//!   except the interior-mutable cache, which is safe by construction.
//! * [`Session`] is the cheap per-request tier: a lambda DCS evaluator
//!   session holding the cross-candidate denotation memos for one table.
//!   Sessions are deliberately **not** `Sync` (the memo table is a
//!   `RefCell`) — each request owns one and drops it at the end, so there
//!   is no cross-request invalidation protocol at all.
//!
//! On top of the split sits a worker-pool batch runtime
//! ([`Engine::explain_batch`], built on [`wtq_runtime::run_batch`]):
//! requests fan out over `std::thread` workers pulling from a shared queue,
//! and results come back **in input order**, byte-identical to what the
//! sequential path produces — parsing and explanation are rng-free pure
//! functions of `(question, table, model)`, so scheduling cannot leak into
//! the output.

use serde::{Deserialize, Serialize};
use wtq_dcs::{Evaluator, Formula};
use wtq_parser::{Candidate, SemanticParser};
use wtq_runtime::{BatchError, CancelToken};
use wtq_table::{Catalog, IndexCache, Table, TableIndex};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::pipeline::ExplainedCandidate;

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Default number of candidates explained per question (the paper's
    /// k = 7), used when a request does not specify its own.
    pub top_k: usize,
    /// Default worker count for [`Engine::explain_batch`].
    pub workers: usize,
    /// Maximum number of table indexes retained by the engine's cache
    /// before least-recently-used eviction.
    pub index_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            top_k: 7,
            workers: wtq_runtime::default_workers(),
            index_cache_capacity: wtq_table::DEFAULT_INDEX_CACHE_CAPACITY,
        }
    }
}

/// One question to explain in a batch, addressed to a table by catalog name.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// The natural-language question.
    pub question: String,
    /// Name of the table in the catalog the batch runs against.
    pub table: String,
    /// Candidates to explain; `None` uses the engine's default `top_k`.
    pub top_k: Option<usize>,
}

impl ExplainRequest {
    /// A request with the engine's default `top_k`.
    pub fn new(question: impl Into<String>, table: impl Into<String>) -> Self {
        ExplainRequest {
            question: question.into(),
            table: table.into(),
            top_k: None,
        }
    }
}

/// The explained candidates of one batch request, in rank order.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The question asked.
    pub question: String,
    /// The table name it was asked against.
    pub table: String,
    /// The explained top-k candidates (empty when the table is unknown).
    pub candidates: Vec<ExplainedCandidate>,
    /// Why the request produced no candidates, when it failed outright
    /// (currently only: the catalog has no table of that name).
    pub error: Option<String>,
}

/// A serializable point-in-time snapshot of an [`Engine`]'s configuration
/// and serving counters — the single stats surface instrumentation (and a
/// server's `stats` endpoint) reads instead of poking at ad-hoc accessors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Configured default top-k ([`EngineConfig::top_k`]).
    pub top_k: usize,
    /// Configured default worker count ([`EngineConfig::workers`]).
    pub workers: usize,
    /// LRU capacity of the index cache.
    pub index_cache_capacity: usize,
    /// Tables currently resident in the index cache.
    pub cached_tables: usize,
    /// Index-cache hit / miss / eviction counters since construction.
    pub index_cache: wtq_table::CacheStats,
    /// Questions answered through the engine's entry points
    /// ([`Engine::explain_question`] and the batch paths).
    pub questions_served: u64,
    /// Batch calls answered ([`Engine::explain_batch`] and variants).
    pub batches_served: u64,
    /// Engine entry-point calls currently executing.
    pub in_flight: u64,
    /// SQL planner decision counters: scan vs index vs columnar-kernel
    /// choices and estimated vs actual selectivity. Snapshotted from this
    /// engine's own [`wtq_sql::PlannerCounters`] set
    /// ([`Engine::planner_counters`]); anything executing SQL on the
    /// engine's behalf shares that set, so the numbers cover exactly this
    /// engine's activity, not the whole process.
    pub planner: wtq_sql::PlannerStats,
    /// Parse-pipeline stage timings: tokenize, lexicon, candidate
    /// composition, formula execution, feature extraction and scoring spans
    /// per question. Counted in a set the engine gives its parser on
    /// construction, so they cover this engine's parses only.
    pub parsing: wtq_parser::ParseStats,
    /// Deduplicating answer-cache counters, populated when the engine is
    /// served through a [`crate::CachedEngine`]; all-zero on a bare engine
    /// (which has no answer cache).
    pub answer_cache: wtq_cache::CacheStats,
}

/// Serving counters of an [`Engine`] (all atomics: incremented under
/// `&self` from any worker thread).
#[derive(Debug, Default)]
struct EngineCounters {
    questions_served: AtomicU64,
    batches_served: AtomicU64,
    in_flight: AtomicU64,
}

/// RAII in-flight marker: increments on entry, decrements on drop (panic
/// included, so a panicking request never leaks an in-flight count).
struct InFlightGuard<'a>(&'a AtomicU64);

impl<'a> InFlightGuard<'a> {
    fn enter(counter: &'a AtomicU64) -> Self {
        counter.fetch_add(1, Ordering::Relaxed);
        InFlightGuard(counter)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shared, immutable tier of the pipeline: trained parser + lexicon and
/// candidate configuration + thread-safe index cache. `Send + Sync` by
/// construction (a compile-time test in this module enforces it), so one
/// engine serves any number of concurrent sessions:
///
/// ```
/// use wtq_core::{Engine, ExplainRequest};
/// use wtq_table::{samples, Catalog};
///
/// let engine = Engine::new();
/// let catalog: Catalog = [samples::olympics(), samples::medals()].into_iter().collect();
/// let requests = vec![
///     ExplainRequest::new("Greece held its last Olympics in what year?", "olympics"),
///     ExplainRequest::new("What is the difference in Total between Fiji and Tonga?", "medals"),
/// ];
/// let explanations = engine.explain_batch(&catalog, &requests);
/// assert_eq!(explanations.len(), 2);
/// assert!(!explanations[0].candidates.is_empty());
/// ```
#[derive(Debug)]
pub struct Engine {
    parser: SemanticParser,
    indexes: IndexCache,
    config: EngineConfig,
    counters: EngineCounters,
    /// SQL planner decision counters attributed to this engine. The engine
    /// itself only *translates* formulas to SQL; callers that execute the
    /// translations (benches, validation suites) share this set via
    /// [`Engine::planner_counters`] so the activity lands on the engine's
    /// stats surface.
    planner: Arc<wtq_sql::PlannerCounters>,
}

impl Default for Engine {
    /// An engine around the baseline (prior-weighted) parser.
    fn default() -> Self {
        Engine::new()
    }
}

impl Clone for Engine {
    /// Clones the model and configuration; the clone starts with a fresh,
    /// empty index cache (cached indexes are a transparent optimization and
    /// rebuild on demand).
    fn clone(&self) -> Self {
        Engine::with_config(self.parser.clone(), self.config.clone())
    }
}

impl Engine {
    /// An engine around the baseline (prior-weighted) parser.
    pub fn new() -> Self {
        Engine::with_parser(SemanticParser::with_prior())
    }

    /// An engine around an already-trained parser.
    pub fn with_parser(parser: SemanticParser) -> Self {
        Engine::with_config(parser, EngineConfig::default())
    }

    /// An engine with explicit configuration.
    pub fn with_config(parser: SemanticParser, config: EngineConfig) -> Self {
        Engine {
            parser: parser.with_counters(Arc::default()),
            indexes: IndexCache::with_capacity(config.index_cache_capacity),
            config,
            counters: EngineCounters::default(),
            planner: Arc::new(wtq_sql::PlannerCounters::new()),
        }
    }

    /// This engine's SQL planner decision counters. Hand a clone of the
    /// `Arc` to any [`wtq_sql::SqlEngine`] executing translated formulas on
    /// this engine's behalf (via
    /// [`SqlEngine::with_counters`][wtq_sql::SqlEngine::with_counters]) and
    /// the decisions show up in [`Engine::stats`].
    pub fn planner_counters(&self) -> Arc<wtq_sql::PlannerCounters> {
        Arc::clone(&self.planner)
    }

    /// A serializable snapshot of the engine's configuration, index-cache
    /// counters and serving counters — see [`EngineStats`].
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            top_k: self.config.top_k,
            workers: self.config.workers,
            index_cache_capacity: self.config.index_cache_capacity,
            cached_tables: self.indexes.len(),
            index_cache: self.indexes.stats(),
            questions_served: self.counters.questions_served.load(Ordering::Relaxed),
            batches_served: self.counters.batches_served.load(Ordering::Relaxed),
            in_flight: self.counters.in_flight.load(Ordering::Relaxed),
            planner: self.planner.snapshot(),
            parsing: self.parser.counters().snapshot(),
            answer_cache: wtq_cache::CacheStats::default(),
        }
    }

    /// The shared semantic parser.
    pub fn parser(&self) -> &SemanticParser {
        &self.parser
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The thread-safe index cache (for instrumentation: hit / miss /
    /// eviction counters via [`IndexCache::stats`]).
    pub fn index_cache(&self) -> &IndexCache {
        &self.indexes
    }

    /// The shared columnar index for `table`, built on first use and then
    /// served from the LRU cache.
    pub fn index_for(&self, table: &Table) -> Arc<TableIndex> {
        self.indexes.get_or_build(table)
    }

    /// Open a per-request [`Session`] on `table`. Cheap: the table's index
    /// comes from the shared cache; only the (empty) denotation memo table
    /// is allocated per session.
    pub fn session<'a>(&'a self, table: &'a Table) -> Session<'a> {
        Session {
            parser: &self.parser,
            evaluator: Evaluator::with_index(table, self.index_for(table)),
            scratch: std::cell::RefCell::new(wtq_parser::ScratchSpace::new()),
        }
    }

    /// Parse and explain one question — the single-question serving path,
    /// equivalent to a one-request batch.
    pub fn explain_question(
        &self,
        question: &str,
        table: &Table,
        top_k: usize,
    ) -> Vec<ExplainedCandidate> {
        let _in_flight = InFlightGuard::enter(&self.counters.in_flight);
        let explained = self.session(table).explain_question(question, top_k);
        self.counters
            .questions_served
            .fetch_add(1, Ordering::Relaxed);
        explained
    }

    /// Explain a single, already-known formula (used when a query is written
    /// by hand rather than parsed from a question).
    pub fn explain_formula(
        &self,
        formula: &Formula,
        table: &Table,
    ) -> wtq_dcs::Result<ExplainedCandidate> {
        self.session(table).explain_formula(formula)
    }

    /// Explain a batch of requests on the engine's configured worker pool.
    /// Results are returned in request order and are byte-identical to
    /// explaining each request sequentially — see [`Engine::explain_batch_with`].
    pub fn explain_batch(
        &self,
        catalog: &Catalog,
        requests: &[ExplainRequest],
    ) -> Vec<Explanation> {
        self.explain_batch_with(self.config.workers, catalog, requests)
    }

    /// [`Engine::explain_batch`] with an explicit worker count. Each worker
    /// opens one [`Session`] per request against the shared engine; because
    /// parsing and explaining are pure functions of the request and the
    /// immutable model/table, the output does not depend on `workers`.
    pub fn explain_batch_with(
        &self,
        workers: usize,
        catalog: &Catalog,
        requests: &[ExplainRequest],
    ) -> Vec<Explanation> {
        let _in_flight = InFlightGuard::enter(&self.counters.in_flight);
        let explanations =
            wtq_runtime::run_batch(workers, requests.iter().collect(), |_, request| {
                self.explain_one(catalog, request)
            });
        self.record_batch(requests.len());
        explanations
    }

    /// [`Engine::explain_batch`] under a [`CancelToken`] — the
    /// graceful-shutdown hook for serving layers: cancelling mid-batch stops
    /// queued questions and returns [`BatchError::Cancelled`], and a panic in
    /// any worker surfaces as [`BatchError::JobPanicked`] instead of
    /// unwinding into the caller's accept loop.
    pub fn explain_batch_cancellable(
        &self,
        catalog: &Catalog,
        requests: &[ExplainRequest],
        cancel: &CancelToken,
    ) -> Result<Vec<Explanation>, BatchError> {
        let _in_flight = InFlightGuard::enter(&self.counters.in_flight);
        let explanations = wtq_runtime::run_batch_cancellable(
            self.config.workers,
            requests.iter().collect(),
            cancel,
            |_, request| self.explain_one(catalog, request),
        )?;
        self.record_batch(requests.len());
        Ok(explanations)
    }

    /// Answer one batch request (the per-item body shared by every batch
    /// entry point).
    fn explain_one(&self, catalog: &Catalog, request: &ExplainRequest) -> Explanation {
        let Some(table) = catalog.get(&request.table) else {
            return Explanation {
                question: request.question.clone(),
                table: request.table.clone(),
                candidates: Vec::new(),
                error: Some(format!("unknown table: {}", request.table)),
            };
        };
        let top_k = request.top_k.unwrap_or(self.config.top_k);
        Explanation {
            question: request.question.clone(),
            table: request.table.clone(),
            candidates: self
                .session(table)
                .explain_question(&request.question, top_k),
            error: None,
        }
    }

    fn record_batch(&self, questions: usize) {
        self.counters.batches_served.fetch_add(1, Ordering::Relaxed);
        self.counters
            .questions_served
            .fetch_add(questions as u64, Ordering::Relaxed);
    }
}

/// The per-request tier: one evaluator session (with its cross-candidate
/// denotation memos) bound to one table, borrowing the shared [`Engine`]
/// state. Intentionally not `Sync` — a session belongs to exactly one
/// request/thread and dies with it.
pub struct Session<'a> {
    parser: &'a SemanticParser,
    evaluator: Evaluator<'a>,
    /// Reusable parse working buffers — allocated once per session, reused
    /// by every question it answers (another reason sessions are not `Sync`).
    scratch: std::cell::RefCell<wtq_parser::ScratchSpace>,
}

impl<'a> Session<'a> {
    /// The table this session answers questions about.
    pub fn table(&self) -> &Table {
        self.evaluator.table()
    }

    /// The underlying evaluator session (exposed for advanced callers that
    /// evaluate formulas directly against the warm denotation cache).
    pub fn evaluator(&self) -> &Evaluator<'a> {
        &self.evaluator
    }

    /// `(hits, misses)` of this session's denotation memo table.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.evaluator.cache_stats()
    }

    /// Parse a question into ranked candidates, sharing this session's
    /// index and denotation memos.
    pub fn parse(&self, question: &str) -> Vec<Candidate> {
        self.parser
            .parse_in_session_with(question, &self.evaluator, &mut self.scratch.borrow_mut())
    }

    /// Parse `question` and explain the top-k candidates (utterance, SQL
    /// rendering and provenance highlights for each).
    pub fn explain_question(&self, question: &str, top_k: usize) -> Vec<ExplainedCandidate> {
        let mut candidates = self.parse(question);
        candidates.truncate(top_k);
        candidates
            .into_iter()
            .filter_map(|candidate| ExplainedCandidate::from_candidate(candidate, self.table()))
            .collect()
    }

    /// Explain a single, already-known formula.
    pub fn explain_formula(&self, formula: &Formula) -> wtq_dcs::Result<ExplainedCandidate> {
        ExplainedCandidate::from_formula(formula, self.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::{parse_formula, Answer};
    use wtq_table::samples;

    /// The compile-time thread-safety contract of the shared tier: `Engine`
    /// (and the request/response types that cross worker threads) must be
    /// `Send + Sync`. A `Session` deliberately is not.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn engine_is_send_sync() {
        assert_send_sync::<Engine>();
        assert_send_sync::<EngineConfig>();
        assert_send_sync::<ExplainRequest>();
        assert_send_sync::<Explanation>();
    }

    #[test]
    fn engine_explains_like_the_pipeline() {
        let engine = Engine::new();
        let table = samples::olympics();
        let explained =
            engine.explain_question("Greece held its last Olympics in what year?", &table, 7);
        assert!(!explained.is_empty());
        let gold = parse_formula("max(R[Year].Country.Greece)").unwrap();
        let gold_candidate = explained
            .iter()
            .find(|c| wtq_parser::formulas_equivalent(&c.formula, &gold))
            .expect("gold candidate explained");
        assert_eq!(gold_candidate.answer, Answer::number(2004.0));
        // A second question on the same table hits the index cache.
        let stats = engine.index_cache().stats();
        assert_eq!(stats.misses, 1);
        engine.explain_question("In what year did France hold the Olympics?", &table, 3);
        assert_eq!(engine.index_cache().stats().hits, 1);
    }

    #[test]
    fn session_shares_denotation_memos_across_questions() {
        let engine = Engine::new();
        let table = samples::olympics();
        let session = engine.session(&table);
        let first = session.parse("Greece held its last Olympics in what year?");
        assert!(!first.is_empty());
        let (_, misses_after_first) = session.cache_stats();
        let again = session.parse("Greece held its last Olympics in what year?");
        assert_eq!(first.len(), again.len());
        let (hits, misses) = session.cache_stats();
        // The repeat question re-used memoized record denotations instead of
        // re-evaluating them.
        assert_eq!(misses, misses_after_first);
        assert!(hits > 0);
    }

    #[test]
    fn batch_results_are_input_ordered_and_match_sequential() {
        let engine = Engine::new();
        let catalog: Catalog = [samples::olympics(), samples::medals()]
            .into_iter()
            .collect();
        let requests = vec![
            ExplainRequest::new("Greece held its last Olympics in what year?", "olympics"),
            ExplainRequest::new(
                "What is the difference in Total between Fiji and Tonga?",
                "medals",
            ),
            ExplainRequest::new("Which city hosted in 2008?", "olympics"),
            ExplainRequest::new("total Gold of Fiji?", "medals"),
        ];
        let parallel = engine.explain_batch_with(4, &catalog, &requests);
        let sequential = engine.explain_batch_with(1, &catalog, &requests);
        assert_eq!(parallel.len(), requests.len());
        for ((parallel, sequential), request) in parallel.iter().zip(&sequential).zip(&requests) {
            assert_eq!(parallel.question, request.question);
            assert_eq!(parallel.table, request.table);
            assert_eq!(parallel.candidates.len(), sequential.candidates.len());
            for (a, b) in parallel.candidates.iter().zip(&sequential.candidates) {
                assert_eq!(a.formula, b.formula);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.utterance, b.utterance);
                assert_eq!(a.sql, b.sql);
            }
        }
    }

    #[test]
    fn unknown_table_reports_an_error_instead_of_panicking() {
        let engine = Engine::new();
        let catalog: Catalog = [samples::olympics()].into_iter().collect();
        let requests = vec![
            ExplainRequest::new("anything", "no-such-table"),
            ExplainRequest::new("Which city hosted in 2008?", "olympics"),
        ];
        let explanations = engine.explain_batch(&catalog, &requests);
        assert!(explanations[0]
            .error
            .as_deref()
            .unwrap()
            .contains("no-such-table"));
        assert!(explanations[0].candidates.is_empty());
        assert!(explanations[1].error.is_none());
        assert!(!explanations[1].candidates.is_empty());
    }

    #[test]
    fn per_request_top_k_overrides_the_default() {
        let engine = Engine::new();
        let catalog: Catalog = [samples::olympics()].into_iter().collect();
        let mut request = ExplainRequest::new("Which city hosted in 2008?", "olympics");
        request.top_k = Some(1);
        let explanations = engine.explain_batch(&catalog, &[request]);
        assert_eq!(explanations[0].candidates.len(), 1);
    }

    #[test]
    fn stats_snapshot_tracks_cache_and_serving_counters() {
        let engine = Engine::new();
        let catalog: Catalog = [samples::olympics()].into_iter().collect();
        let fresh = engine.stats();
        assert_eq!(fresh.top_k, engine.config().top_k);
        assert_eq!(
            fresh.index_cache_capacity,
            engine.config().index_cache_capacity
        );
        assert_eq!(fresh.questions_served, 0);
        assert_eq!(fresh.batches_served, 0);
        assert_eq!(fresh.in_flight, 0);
        assert_eq!(fresh.cached_tables, 0);

        let table = samples::olympics();
        engine.explain_question("Which city hosted in 2008?", &table, 1);
        engine.explain_batch(
            &catalog,
            &[
                ExplainRequest::new("Which city hosted in 2008?", "olympics"),
                ExplainRequest::new("In what year did France hold the Olympics?", "olympics"),
            ],
        );
        let stats = engine.stats();
        assert_eq!(stats.questions_served, 3);
        assert_eq!(stats.batches_served, 1);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.cached_tables, 1);
        assert_eq!(stats.index_cache.misses, 1);
        assert!(stats.index_cache.hits >= 2);

        // The snapshot is serde-serializable and round-trips.
        let json = serde_json::to_string(&stats).expect("stats serialize");
        let back: EngineStats = serde_json::from_str(&json).expect("stats parse");
        assert_eq!(back, stats);
    }

    #[test]
    fn cancellable_batch_matches_plain_batch_and_cancels() {
        let engine = Engine::new();
        let catalog: Catalog = [samples::olympics()].into_iter().collect();
        let requests = vec![
            ExplainRequest::new("Which city hosted in 2008?", "olympics"),
            ExplainRequest::new("Greece held its last Olympics in what year?", "olympics"),
        ];
        let cancel = CancelToken::new();
        let checked = engine
            .explain_batch_cancellable(&catalog, &requests, &cancel)
            .expect("uncancelled batch succeeds");
        let plain = engine.explain_batch(&catalog, &requests);
        assert_eq!(checked.len(), plain.len());
        for (a, b) in checked.iter().zip(&plain) {
            assert_eq!(a.candidates.len(), b.candidates.len());
        }

        cancel.cancel();
        assert!(matches!(
            engine.explain_batch_cancellable(&catalog, &requests, &cancel),
            Err(BatchError::Cancelled)
        ));
    }

    #[test]
    fn engines_count_their_own_parses() {
        let table = samples::olympics();
        let first = Engine::new();
        let second = Engine::new();
        first.explain_question("Which city hosted in 2008?", &table, 1);
        first.explain_question("Greece held its last Olympics in what year?", &table, 1);
        second.explain_question("Which city hosted in 2008?", &table, 1);
        // A clone, and an engine around a clone of the parser, start from
        // zero too.
        let clone = first.clone();
        let rebuilt = Engine::with_parser(first.parser().clone());
        assert_eq!(first.stats().parsing.questions, 2);
        assert_eq!(second.stats().parsing.questions, 1);
        assert_eq!(clone.stats().parsing.questions, 0);
        assert_eq!(rebuilt.stats().parsing.questions, 0);
        assert!(first.stats().parsing.lexicon_ns > 0);
    }

    #[test]
    fn cloned_engines_share_nothing_but_the_model() {
        let engine = Engine::new();
        let table = samples::olympics();
        engine.explain_question("Which city hosted in 2008?", &table, 1);
        let clone = engine.clone();
        assert_eq!(clone.index_cache().stats().misses, 0);
        assert!(clone.index_cache().is_empty());
        assert_eq!(clone.config().top_k, engine.config().top_k);
    }
}
