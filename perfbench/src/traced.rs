//! The traced run: the server's per-request path replayed in-process on
//! one thread through public calls only, with a span around each call.
//!
//! Per request, following the server: `CachedEngine::key_for` + `probe`;
//! on a miss `begin`, then `Engine::session(table).parse`; for each top-k
//! candidate `Highlights::compute`, `utter` and `translate(..).to_sql()`;
//! then `CachedCandidates::new` and `FlightGuard::complete`. An untraced
//! replay of the same requests through the real path,
//! `CachedEngine::explain_question`, runs alongside for the overhead
//! ratio, and the assembled answer must be byte-identical to
//! `candidates_json` of the candidates `Engine::explain_question` gave
//! that path. The server itself is timed from outside: a `ListTables`
//! round trip, and a served hit against the in-process one.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wtq_cache::{Begin, CacheConfig};
use wtq_core::{CachedCandidates, CachedEngine, Engine, ExplainedCandidate};
use wtq_server::{Client, Server};
use wtq_table::{Catalog, TableIndex};

use crate::served::{after_head, explain_body, server_config, Conn};
use crate::spans::{self, Recorder};
use crate::stats;
use crate::workload::{Expect, Request, Workload, TOP_K};
use crate::Metric;

/// The traced replay always covers at least this many timed requests,
/// even when loading the hot set used up the time.
const MIN_REQUESTS: usize = 30;
/// Index builds timed for `table.index_build_ms`.
const INDEX_BUILDS: usize = 5;
/// `ListTables` round trips timed for `server.rtt_us`.
const RTT_SAMPLES: usize = 2000;
/// Distinct questions and served hits timed for `server.hit_overhead_us`.
const HIT_QUESTIONS: usize = 16;
const HIT_SAMPLES: usize = 2000;
/// Largest accepted gap between a request span and the sum of the self
/// times in its tree, as a share of the request span.
const BALANCE_TOLERANCE: f64 = 1e-3;

/// Everything a traced run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub problems: Vec<String>,
}

/// Per-miss counts gathered outside the spans.
#[derive(Default)]
struct Counts {
    misses: usize,
    candidates: usize,
    memo_hits: u64,
    memo_lookups: u64,
    body_bytes: usize,
    answers: usize,
}

/// The traced path for one request on `cached`; returns the answer body
/// and whether the cache answered it.
fn traced_request(
    rec: &mut Recorder,
    id: u32,
    cached: &CachedEngine,
    workload: &Workload,
    request: Request,
    counts: &mut Counts,
    problems: &mut Vec<String>,
) -> (Arc<Vec<u8>>, bool) {
    let table = &workload.table;
    let question = workload.pool[request.question].question.as_str();
    let root = rec.open("request", id, None);
    let (key, probed) = rec.time("cache.probe", id, Some(root), || {
        let key = cached.key_for(question, table, Some(TOP_K));
        let probed = cached.probe(&key);
        (key, probed)
    });
    let hit = probed.is_some();
    let answer = match probed {
        Some(answer) => {
            if request.expect == Expect::Miss {
                problems.push(format!("request {id}: designed miss hit the cache"));
            }
            answer
        }
        None => {
            if request.expect == Expect::Hit {
                problems.push(format!("request {id}: designed hit missed the cache"));
            }
            let begun = rec.time("cache.begin", id, Some(root), || cached.begin(&key));
            let Begin::Lead(guard) = begun else {
                panic!("a single-threaded replay cannot join another flight");
            };
            let engine = cached.engine();
            let (mut candidates, memo) = rec.time("parser.parse", id, Some(root), || {
                let session = engine.session(table);
                let candidates = session.parse(question);
                let memo = session.cache_stats();
                (candidates, memo)
            });
            counts.misses += 1;
            counts.candidates += candidates.len();
            counts.memo_hits += memo.0;
            counts.memo_lookups += memo.0 + memo.1;
            candidates.truncate(TOP_K);
            let mut explained = Vec::with_capacity(candidates.len());
            for candidate in candidates {
                let formula = &candidate.formula;
                let highlights = rec.time("provenance.highlights", id, Some(root), || {
                    wtq_provenance::Highlights::compute(formula, table)
                });
                let Ok(highlights) = highlights else {
                    continue;
                };
                let utterance = rec.time("explain.utter", id, Some(root), || {
                    wtq_explain::utter(formula)
                });
                let sql = rec.time("sql.translate", id, Some(root), || {
                    wtq_sql::translate(formula).ok().map(|query| query.to_sql())
                });
                explained.push(ExplainedCandidate {
                    formula: candidate.formula,
                    score: candidate.score,
                    answer: candidate.answer,
                    utterance,
                    sql,
                    highlights,
                });
            }
            let value = rec.time("core.encode", id, Some(root), || {
                CachedCandidates::new(explained, table)
            });
            let bytes = value.body().len();
            rec.time("cache.complete", id, Some(root), || {
                guard.complete(value, bytes)
            })
        }
    };
    rec.close(root);
    counts.body_bytes += answer.body().len();
    counts.answers += 1;
    (Arc::clone(answer.body()), hit)
}

/// Lexicon and candidate generation timed again on a fresh session, as
/// sibling calls outside the request span.
fn sibling_calls(
    rec: &mut Recorder,
    id: u32,
    engine: &Engine,
    workload: &Workload,
    question: &str,
) {
    let session = engine.session(&workload.table);
    let kb = session.evaluator().kb();
    let analysis = rec.time("parser.lexicon", id, None, || {
        wtq_parser::analyze_question_with(question, kb)
    });
    let config = wtq_parser::CandidateConfig::default();
    rec.time("parser.candidates", id, None, || {
        wtq_parser::generate_candidates_with(&analysis, session.evaluator(), &config)
    });
}

fn fresh_cached_engine(workload: &Workload) -> CachedEngine {
    let engine = Arc::new(Engine::new());
    engine.index_for(&workload.table);
    let capacity = server_config().cache_capacity;
    CachedEngine::new(
        engine,
        CacheConfig {
            capacity,
            ..CacheConfig::default()
        },
    )
}

/// Median microseconds of `samples` nanosecond timings.
fn median_us(samples: &[u64]) -> Option<f64> {
    let us: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e3).collect();
    stats::median(&us)
}

/// `server.rtt_us` and `server.hit_overhead_us`: a served `ListTables`
/// round trip, and a served hit minus the in-process hit path
/// (`key_for` + `probe` on `cached`) for the same questions.
fn server_metrics(
    workload: &Workload,
    cached: &CachedEngine,
    questions: &[usize],
    problems: &mut Vec<String>,
) -> (Metric, Metric) {
    let table = &workload.table;
    let catalog: Arc<Catalog> = Arc::new([table.clone()].into_iter().collect());
    let handle = Server::bind(
        "127.0.0.1:0",
        Arc::new(Engine::new()),
        catalog,
        server_config(),
    )
    .expect("bind loopback server");
    let addr = handle.local_addr();

    let mut client = Client::connect(addr).expect("connect to server");
    let mut rtt = Vec::with_capacity(RTT_SAMPLES);
    for _ in 0..RTT_SAMPLES {
        let start = Instant::now();
        client.list_tables().expect("list tables");
        rtt.push(start.elapsed().as_nanos() as u64);
    }

    let bodies: Vec<String> = questions
        .iter()
        .map(|&q| explain_body(&workload.pool[q].question, table.name()))
        .collect();
    let mut conn = Conn::connect(addr).expect("connect to server");
    let mut served = Vec::with_capacity(HIT_SAMPLES);
    let mut local = Vec::with_capacity(HIT_SAMPLES);
    for round in 0..bodies.len() + HIT_SAMPLES {
        let slot = round % bodies.len();
        let start = Instant::now();
        let id = conn.call(&bodies[slot]).expect("served request");
        let elapsed = start.elapsed().as_nanos() as u64;
        if after_head(conn.response(), id).is_none() {
            problems.push(format!("server: response to request {id} does not echo it"));
        }
        // The first pass over the questions loads them into the cache.
        if round >= bodies.len() {
            served.push(elapsed);
            let question = workload.pool[questions[slot]].question.as_str();
            let start = Instant::now();
            let key = cached.key_for(question, table, Some(TOP_K));
            let hit = cached.probe(&key);
            local.push(start.elapsed().as_nanos() as u64);
            if hit.is_none() {
                problems.push("server: in-process hit path missed".to_string());
            }
        }
    }
    drop(conn);
    drop(client);
    handle.shutdown();
    let overhead = median_us(&served)
        .zip(median_us(&local))
        .map(|(served, local)| served - local);
    (
        Metric::new("server.rtt_us", "us", median_us(&rtt), rtt.len()),
        Metric::new("server.hit_overhead_us", "us", overhead, served.len()),
    )
}

/// Run the traced replay of `workload` for about `seconds`.
pub fn run(workload: &Workload, seconds: f64) -> Outcome {
    let table = &workload.table;
    let mut problems = Vec::new();

    let builds: Vec<f64> = (0..INDEX_BUILDS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(TableIndex::new(table));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let traced = fresh_cached_engine(workload);
    let untraced = fresh_cached_engine(workload);
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut traced_ns = 0u64;
    let mut untraced_ns = 0u64;
    let mut window = (0usize, 0usize); // (requests, hits)
    let mut first_questions: Vec<usize> = Vec::new();
    let mut references: HashMap<usize, Vec<u8>> = HashMap::new();

    let loads = workload.load_requests();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let sequence = loads
        .iter()
        .map(|r| (r, true))
        .chain(workload.requests.iter().map(|r| (r, false)));
    for (id, (&request, loading)) in sequence.enumerate() {
        if !loading && window.0 >= MIN_REQUESTS && start.elapsed() >= budget {
            break;
        }
        let id = id as u32;
        let question = workload.pool[request.question].question.as_str();
        // Alternate which path runs first, so neither always finds the
        // processor caches warm.
        let mut traced_body = Arc::default();
        let mut untraced_answer = None;
        let mut hit = false;
        for turn in 0..2 {
            if (turn == 0) == id.is_multiple_of(2) {
                let spans_before = rec.spans().len();
                let (body, answered_by_cache) = traced_request(
                    &mut rec,
                    id,
                    &traced,
                    workload,
                    request,
                    &mut counts,
                    &mut problems,
                );
                traced_body = body;
                hit = answered_by_cache;
                traced_ns += rec.spans()[spans_before].duration();
            } else {
                let t = Instant::now();
                untraced_answer = Some(untraced.explain_question(question, table, TOP_K));
                untraced_ns += t.elapsed().as_nanos() as u64;
            }
        }
        // The reference is encoded afresh from the candidates the real
        // path got from `Engine::explain_question`, untimed.
        let reference = references.entry(request.question).or_insert_with(|| {
            let answer = untraced_answer.expect("the untraced path ran");
            wtq_core::candidates_json(answer.candidates(), table)
        });
        if traced_body.as_slice() != reference.as_slice() {
            problems.push(format!(
                "request {id} ({question:?}): traced answer differs from \
                 candidates_json(Engine::explain_question)"
            ));
        }
        if request.expect == Expect::Miss {
            sibling_calls(&mut rec, id, traced.engine(), workload, question);
        }
        if !loading {
            window.0 += 1;
            window.1 += usize::from(hit);
        }
        if first_questions.len() < HIT_QUESTIONS && !first_questions.contains(&request.question) {
            first_questions.push(request.question);
        }
    }

    // Per-request self time of each layer.
    let spans = rec.spans();
    let self_ns = spans::self_times(spans);
    for (duration, sum) in spans::tree_balance(spans, &self_ns, "request") {
        let gap = duration.abs_diff(sum) as f64;
        if gap > BALANCE_TOLERANCE * duration as f64 {
            problems.push(format!(
                "layer self times sum to {sum} ns in a {duration} ns request"
            ));
        }
    }
    let mut per_request: HashMap<(&str, u32), u64> = HashMap::new();
    for (span, &own) in spans.iter().zip(&self_ns) {
        let name = if span.name == "request" {
            "core.residual"
        } else {
            span.name
        };
        *per_request.entry((name, span.request)).or_default() += own;
    }
    let misses: HashSet<u32> = spans
        .iter()
        .filter(|span| span.name == "parser.parse")
        .map(|span| span.request)
        .collect();
    let layer_over = |metric: &'static str, span: &'static str, counts: &dyn Fn(u32) -> bool| {
        let samples: Vec<u64> = per_request
            .iter()
            .filter(|((name, request), _)| *name == span && counts(*request))
            .map(|(_, &ns)| ns)
            .collect();
        Metric::new(metric, "us", median_us(&samples), samples.len())
    };
    let layer_metric = |metric, span| layer_over(metric, span, &|_| true);

    let (rtt, hit_overhead) = server_metrics(workload, &traced, &first_questions, &mut problems);
    let metrics = vec![
        rtt,
        hit_overhead,
        // The probe over the workload's own requests, so the hot-set load
        // does not decide whether the median is a hit or a miss.
        layer_over("cache.probe_us", "cache.probe", &|request| {
            request as usize >= loads.len()
        }),
        Metric::new(
            "cache.hit_frac",
            "1",
            Some(window.1 as f64 / window.0.max(1) as f64),
            window.0,
        ),
        layer_metric("cache.begin_us", "cache.begin"),
        layer_metric("cache.complete_us", "cache.complete"),
        layer_metric("parser.parse_us", "parser.parse"),
        layer_metric("parser.lexicon_us", "parser.lexicon"),
        layer_metric("parser.candidates_us", "parser.candidates"),
        Metric::new(
            "parser.candidates_per_question",
            "count",
            Some(counts.candidates as f64 / counts.misses.max(1) as f64),
            counts.misses,
        ),
        Metric::new(
            "dcs.memo_hit_frac",
            "1",
            Some(counts.memo_hits as f64 / counts.memo_lookups.max(1) as f64),
            counts.memo_lookups as usize,
        ),
        layer_metric("provenance.highlights_us", "provenance.highlights"),
        layer_metric("core.encode_us", "core.encode"),
        Metric::new(
            "core.response_bytes",
            "bytes",
            Some(counts.body_bytes as f64 / counts.answers.max(1) as f64),
            counts.answers,
        ),
        layer_over("core.residual_us", "core.residual", &|request| {
            misses.contains(&request)
        }),
        layer_metric("explain.utter_us", "explain.utter"),
        layer_metric("sql.translate_us", "sql.translate"),
        Metric::new(
            "table.index_build_ms",
            "ms",
            stats::median(&builds),
            builds.len(),
        ),
        Metric::new(
            "trace.overhead_frac",
            "1",
            Some(traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0),
            counts.answers,
        ),
    ];
    Outcome {
        metrics,
        attempted: counts.answers,
        problems,
    }
}
