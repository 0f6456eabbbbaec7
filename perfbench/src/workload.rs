//! The three workloads, generated from the seed alone.
//!
//! Each workload draws on one question pool over `bench_table(rows)`,
//! generated by `wtq-dataset` one question per family at a time:
//! position 0 is the set-up question, the next `hot` positions are the hot
//! set, and the rest are fresh questions. The pool is deduplicated after
//! `normalize_question`, so no fresh question repeats and none collides
//! with the hot set: every hot request after loading is a cache hit and
//! every fresh request a miss, by construction.

use std::collections::HashSet;
use std::ops::Range;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wtq_bench::cache::Zipf;
use wtq_dataset::questions::{generate_for_family, GeneratedQuestion};
use wtq_dataset::QuestionFamily;
use wtq_table::Table;

/// Candidates requested per question.
pub const TOP_K: usize = 3;
/// Size of the hot set of `hit_warm` and `zipf_mixed`.
pub const HOT_SET: usize = 256;
/// Attempts per family and chunk before the family is skipped.
const FAMILY_TRIES: usize = 12;
/// Seed of the set-up question.
const SETUP_SEED: u64 = 0;
/// Generation threads (the reference machine has 2 cores).
const GEN_THREADS: usize = 2;

/// What a workload looks like, independent of the seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub rows: usize,
    /// Hot-set size (0: no hot set).
    pub hot: usize,
    /// One request in every `fresh_every` is a fresh question (0: none),
    /// at a seeded position within its block.
    pub fresh_every: usize,
    /// Zipf skew of hot draws; `None` draws the hot set uniformly.
    pub zipf_skew: Option<f64>,
    /// Served requests per second on the reference machine, used only to
    /// size the generated request list (see [`Spec::requests_for`]).
    pub reference_qps: f64,
    /// The same for the single-threaded traced replay.
    pub traced_qps: f64,
}

pub const MISS_COLD: Spec = Spec {
    name: "miss_cold",
    rows: 2000,
    hot: 0,
    fresh_every: 1,
    zipf_skew: None,
    reference_qps: 44.0,
    traced_qps: 10.0,
};

pub const HIT_WARM: Spec = Spec {
    name: "hit_warm",
    rows: 512,
    hot: HOT_SET,
    fresh_every: 0,
    zipf_skew: None,
    reference_qps: 25_000.0,
    traced_qps: 10_000.0,
};

pub const ZIPF_MIXED: Spec = Spec {
    name: "zipf_mixed",
    rows: 512,
    hot: HOT_SET,
    fresh_every: 5,
    zipf_skew: Some(1.1),
    reference_qps: 530.0,
    traced_qps: 50.0,
};

pub const ALL: [Spec; 3] = [MISS_COLD, HIT_WARM, ZIPF_MIXED];

pub fn by_name(name: &str) -> Option<Spec> {
    ALL.into_iter().find(|spec| spec.name == name)
}

/// Headroom over the reference rate, so a faster build does not run out
/// of generated requests before the measured window ends. A served run
/// that does run out fails: its window would be shorter than the parent's.
const HEADROOM: f64 = 2.0;
/// Share of a reference window after which the served run reads its peak
/// RSS: a fixed amount of work, reached well within the window even on a
/// host at half the reference speed.
const RSS_SHARE: f64 = 0.4;

impl Spec {
    /// Requests to generate for a window of `seconds`.
    pub fn requests_for(&self, seconds: f64) -> usize {
        (seconds * self.reference_qps * HEADROOM).ceil() as usize + 1
    }

    /// The timed request at which the served run reads its peak RSS.
    pub fn rss_at(&self, seconds: f64) -> usize {
        (seconds * self.reference_qps * RSS_SHARE) as usize
    }

    /// Requests to generate for a traced replay of about `seconds`.
    pub fn traced_requests_for(&self, seconds: f64) -> usize {
        (seconds * self.traced_qps * HEADROOM).ceil() as usize + 1
    }

    /// Fresh questions `requests` requests can consume.
    fn fresh_for(&self, requests: usize) -> usize {
        match self.fresh_every {
            0 => 0,
            every => requests.div_ceil(every),
        }
    }
}

/// Whether the cache is expected to answer a request when it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Hit,
    Miss,
}

/// One request: a pool position and its designed cache outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub question: usize,
    pub expect: Expect,
}

/// A generated workload.
pub struct Workload {
    pub spec: Spec,
    pub table: Table,
    /// `[set-up, hot…, fresh…]`.
    pub pool: Vec<GeneratedQuestion>,
    /// The timed request list, in sending order.
    pub requests: Vec<Request>,
}

impl Workload {
    /// Generate `requests` requests of `spec` from `seed`.
    pub fn generate(spec: Spec, seed: u64, requests: usize) -> Workload {
        let table = wtq_bench::exec::bench_table(spec.rows);
        let fresh = spec.fresh_for(requests);
        // The set-up question is the same for every seed, so `setup_s`
        // compares like with like; the seeded questions exclude it.
        let families = viable_families(&table);
        let setup = question_pool(&table, &families, SETUP_SEED, 1);
        let setup_key = wtq_parser::normalize_question(&setup[0].question);
        let pool: Vec<GeneratedQuestion> = setup
            .into_iter()
            .chain(
                question_pool(&table, &families, seed, spec.hot + fresh + 1)
                    .into_iter()
                    .filter(|q| wtq_parser::normalize_question(&q.question) != setup_key)
                    .take(spec.hot + fresh),
            )
            .collect();
        assert!(
            pool.len() > spec.hot,
            "{}: the table yields only {} distinct questions",
            spec.name,
            pool.len()
        );
        let requests = request_list(&spec, seed, requests, pool.len() - 1 - spec.hot);
        Workload {
            spec,
            table,
            pool,
            requests,
        }
    }

    pub fn hot(&self) -> Range<usize> {
        1..1 + self.spec.hot
    }

    /// The cache-loading requests: every hot question once, each a miss.
    pub fn load_requests(&self) -> Vec<Request> {
        self.hot()
            .map(|question| Request {
                question,
                expect: Expect::Miss,
            })
            .collect()
    }
}

fn chunk_rng(seed: u64, chunk: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ chunk as u64)
}

/// `count` questions of `families` over `table`, distinct after
/// `normalize_question`, in chunk order. Fewer when the table cannot
/// yield that many.
pub fn question_pool(
    table: &Table,
    families: &[QuestionFamily],
    seed: u64,
    count: usize,
) -> Vec<GeneratedQuestion> {
    assert!(!families.is_empty(), "the table yields no questions");
    let mut pool = Vec::with_capacity(count);
    let mut seen = HashSet::new();
    let mut next_chunk = 0;
    let mut barren = 0;
    while pool.len() < count && barren < 64 {
        let missing = count - pool.len();
        let chunks = missing.div_ceil(families.len()).max(GEN_THREADS);
        let first = next_chunk;
        next_chunk += chunks;
        let batches: Vec<Vec<GeneratedQuestion>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..GEN_THREADS)
                .map(|worker| {
                    scope.spawn(move || {
                        (first + worker..first + chunks)
                            .step_by(GEN_THREADS)
                            .map(|chunk| {
                                let mut rng = chunk_rng(seed, chunk);
                                (chunk, stratified_chunk(table, families, &mut rng))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut out: Vec<(usize, Vec<GeneratedQuestion>)> = workers
                .into_iter()
                .flat_map(|worker| worker.join().expect("generation thread"))
                .collect();
            out.sort_by_key(|(chunk, _)| *chunk);
            out.into_iter().map(|(_, questions)| questions).collect()
        });
        for question in batches.into_iter().flatten() {
            if pool.len() == count {
                break;
            }
            if seen.insert(wtq_parser::normalize_question(&question.question)) {
                pool.push(question);
                barren = 0;
            } else {
                barren += 1;
            }
        }
    }
    pool
}

/// The families `table` can phrase questions of (some yield only
/// degenerate answers on large tables), found with a fixed seed.
fn viable_families(table: &Table) -> Vec<QuestionFamily> {
    let mut rng = chunk_rng(SETUP_SEED, usize::MAX);
    QuestionFamily::all()
        .into_iter()
        .filter(|&family| {
            (0..FAMILY_TRIES).any(|_| generate_for_family(table, family, &mut rng).is_some())
        })
        .collect()
}

/// One question of every viable family, in family order: every seed then
/// asks the same mix of operators, and differs only in the questions'
/// values. A family that fails [`FAMILY_TRIES`] times is skipped.
fn stratified_chunk(
    table: &Table,
    families: &[QuestionFamily],
    rng: &mut ChaCha8Rng,
) -> Vec<GeneratedQuestion> {
    let mut chunk: Vec<GeneratedQuestion> = Vec::new();
    for &family in families {
        let fresh = (0..FAMILY_TRIES)
            .filter_map(|_| generate_for_family(table, family, rng))
            .find(|q| chunk.iter().all(|other| other.question != q.question));
        chunk.extend(fresh);
    }
    chunk
}

/// The timed request list: fresh slots take fresh questions in pool
/// order, hot slots draw from the hot set (uniform or Zipf). Each block of
/// `fresh_every` requests holds exactly one fresh slot, placed by the
/// seed, so the miss share is the same in every run and at every point of
/// a run. Ends early if the fresh questions run out.
fn request_list(spec: &Spec, seed: u64, requests: usize, fresh: usize) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0000_0000_0001);
    let zipf = spec.zipf_skew.map(|skew| Zipf::new(spec.hot, skew));
    let first_fresh = 1 + spec.hot;
    let mut used_fresh = 0;
    let mut out = Vec::with_capacity(requests);
    let mut fresh_slot = 0;
    for slot in 0..requests {
        let block_slot = slot % spec.fresh_every.max(1);
        if spec.fresh_every > 0 && block_slot == 0 {
            fresh_slot = rng.gen_range(0..spec.fresh_every);
        }
        let is_fresh = spec.fresh_every > 0 && block_slot == fresh_slot;
        if is_fresh {
            if used_fresh == fresh {
                break;
            }
            out.push(Request {
                question: first_fresh + used_fresh,
                expect: Expect::Miss,
            });
            used_fresh += 1;
        } else {
            let rank = match &zipf {
                Some(zipf) => zipf.sample(&mut rng),
                None => rng.gen_range(0..spec.hot),
            };
            out.push(Request {
                question: 1 + rank,
                expect: Expect::Hit,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small version of `zipf_mixed`, so the tests generate quickly.
    const SMALL: Spec = Spec {
        name: "small",
        rows: 128,
        hot: 24,
        fresh_every: 5,
        zipf_skew: Some(1.1),
        reference_qps: 1.0,
        traced_qps: 1.0,
    };

    fn questions(workload: &Workload) -> Vec<&str> {
        workload
            .requests
            .iter()
            .map(|request| workload.pool[request.question].question.as_str())
            .collect()
    }

    #[test]
    fn same_seed_same_requests() {
        let a = Workload::generate(SMALL, 7, 200);
        let b = Workload::generate(SMALL, 7, 200);
        assert_eq!(a.requests, b.requests);
        assert_eq!(questions(&a), questions(&b));
        assert_eq!(a.requests.len(), 200);
    }

    #[test]
    fn another_seed_gives_another_list() {
        let a = Workload::generate(SMALL, 7, 200);
        let b = Workload::generate(SMALL, 8, 200);
        assert_eq!(b.requests.len(), 200);
        assert_ne!(questions(&a), questions(&b));
    }

    #[test]
    fn hot_and_fresh_are_disjoint_and_fresh_never_repeats() {
        for seed in [1, 2] {
            let workload = Workload::generate(SMALL, seed, 300);
            let normal =
                |index: usize| wtq_parser::normalize_question(&workload.pool[index].question);
            let hot: HashSet<String> = workload.hot().map(normal).collect();
            assert_eq!(hot.len(), SMALL.hot);
            assert!(!hot.contains(&normal(0)), "set-up question is hot");
            let mut fresh = HashSet::new();
            for request in &workload.requests {
                let question = normal(request.question);
                match request.expect {
                    Expect::Hit => assert!(hot.contains(&question)),
                    Expect::Miss => {
                        assert!(!hot.contains(&question), "fresh question in hot set");
                        assert_ne!(question, normal(0), "fresh question is the set-up one");
                        assert!(fresh.insert(question), "fresh question repeats");
                    }
                }
            }
            assert_eq!(fresh.len(), workload.requests.len() / 5);
            for block in workload.requests.chunks(5) {
                let misses = block.iter().filter(|r| r.expect == Expect::Miss).count();
                assert_eq!(misses, 1, "one fresh request in every block of five");
            }
        }
    }

    #[test]
    fn pool_is_prefix_stable() {
        let table = wtq_bench::exec::bench_table(128);
        let families = viable_families(&table);
        let long = question_pool(&table, &families, 3, 60);
        let short = question_pool(&table, &families, 3, 20);
        assert_eq!(long.len(), 60);
        let long: Vec<&str> = long.iter().map(|q| q.question.as_str()).collect();
        let short: Vec<&str> = short.iter().map(|q| q.question.as_str()).collect();
        assert_eq!(short, long[..20]);
    }

    #[test]
    fn uniform_hot_replay_is_all_hits() {
        let spec = Spec {
            fresh_every: 0,
            zipf_skew: None,
            ..SMALL
        };
        let workload = Workload::generate(spec, 5, 100);
        assert!(workload.requests.iter().all(|r| r.expect == Expect::Hit));
        assert!(workload
            .requests
            .iter()
            .all(|r| workload.hot().contains(&r.question)));
    }
}
