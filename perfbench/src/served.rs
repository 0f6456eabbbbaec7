//! The served run: the real `wtq-server` on loopback, driven by a closed
//! loop of two framed connections, with every answer checked afterwards
//! against the in-process engine.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use wtq_cache::CacheStats;
use wtq_core::Engine;
use wtq_server::{
    Client, ExplainBody, RequestBody, ResponseBody, ResponseEnvelope, Server, ServerConfig,
    ServerHandle, PROTOCOL_VERSION,
};
use wtq_table::{Catalog, Table};

use crate::calibrate::Calibrator;
use crate::workload::{self, Expect, Request, Workload, TOP_K};
use crate::Metric;
use crate::{stats, usage};

/// Closed-loop client connections, one thread each.
pub const CONNECTIONS: usize = 2;
/// Servers set up per run; `setup_s` is their median. Half are set up
/// before the window and half after the answer check.
const SETUPS: usize = 32;
/// Pause before each set-up. On a shared host the speed of a single
/// request shifts in streaks of a few hundred milliseconds; spreading the
/// set-ups over the run lets their median see many streaks.
const SETUP_GAP: Duration = Duration::from_millis(100);
/// Share of `--seconds` spent replaying hits after a window that has
/// none of its own.
const HIT_PROBE_SHARE: f64 = 0.2;
/// Load between two calibration bursts.
const SEGMENT: Duration = Duration::from_millis(1000);
/// No single response may take longer than this.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The served configuration: the default with request tracing off.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        trace_sample_rate: 0.0,
        ..ServerConfig::default()
    }
}

/// A framed connection that keeps each response's raw bytes.
pub struct Conn {
    stream: TcpStream,
    frame: Vec<u8>,
    response: Vec<u8>,
    next_id: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            frame: Vec::new(),
            response: Vec::new(),
            next_id: 1,
        })
    }

    /// Send one request whose body is the JSON `body`; the response payload
    /// is left in [`Conn::response`]. Returns the request id.
    pub fn call(&mut self, body: &str) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.frame.clear();
        self.frame.extend_from_slice(&[0; 4]);
        write!(
            self.frame,
            "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"body\":{body}}}"
        )?;
        let len = (self.frame.len() - 4) as u32;
        self.frame[..4].copy_from_slice(&len.to_be_bytes());
        self.stream.write_all(&self.frame)?;
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix)?;
        let len = u32::from_be_bytes(prefix);
        if len > wtq_server::wire::DEFAULT_MAX_FRAME_LEN {
            return Err(std::io::Error::other(format!(
                "response frame of {len} bytes"
            )));
        }
        self.response.resize(len as usize, 0);
        self.stream.read_exact(&mut self.response)?;
        Ok(id)
    }

    pub fn response(&self) -> &[u8] {
        &self.response
    }
}

/// The JSON body of an `Explain` request for `question`.
pub fn explain_body(question: &str, table: &str) -> String {
    serde_json::to_string(&RequestBody::Explain(ExplainBody {
        question: question.to_string(),
        table: table.to_string(),
        top_k: Some(TOP_K),
    }))
    .expect("request body serializes")
}

/// The response after its `{"v":…,"id":…,` head, when the head matches.
/// Everything after the head depends only on the request's question and
/// table, so two answers to one question must agree on it byte for byte.
pub fn after_head(response: &[u8], id: u64) -> Option<&[u8]> {
    let head = format!("{{\"v\":{PROTOCOL_VERSION},\"id\":{id},");
    response.strip_prefix(head.as_bytes())
}

const EXPLANATION: &[u8] = b"\"body\":{\"Explanation\":";

/// One answered (or failed) request of a phase.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    request: u32,
    /// Saturates at about 4.3 s.
    latency_ns: u32,
    /// Completion time since the phase started, in microseconds.
    done_us: u32,
    ok: bool,
}

/// Per-connection answer store: the first response tail seen for each
/// pool question, and every failed request or disagreement.
struct Answers {
    first: Vec<Option<Vec<u8>>>,
    problems: Vec<String>,
}

/// Characters of a failed response quoted in its problem.
const QUOTED: usize = 200;

impl Answers {
    fn new(pool: usize) -> Answers {
        Answers {
            first: vec![None; pool],
            problems: Vec::new(),
        }
    }

    /// Record the response to `question` sent with `id`; `false` when it
    /// is not a successful explanation, which is a problem: a build that
    /// refuses work must not pass.
    fn record(&mut self, question: usize, id: u64, response: &[u8]) -> bool {
        let Some(tail) = after_head(response, id) else {
            self.problems.push(format!(
                "question {question}: response does not echo id {id}"
            ));
            return false;
        };
        if !tail.starts_with(EXPLANATION) {
            let quoted: String = String::from_utf8_lossy(tail).chars().take(QUOTED).collect();
            self.problems
                .push(format!("question {question}: not an explanation: {quoted}"));
            return false;
        }
        match &self.first[question] {
            Some(first) if first.as_slice() != tail => {
                self.problems.push(format!(
                    "question {question}: two responses to one question differ"
                ));
            }
            Some(_) => {}
            None => self.first[question] = Some(tail.to_vec()),
        }
        true
    }
}

/// One timed stretch of a phase, between two calibration bursts.
#[derive(Debug, Clone, Copy)]
struct Segment {
    seconds: f64,
    /// Process CPU seconds (server and clients) spent in it.
    cpu_s: f64,
}

/// Outcome of one closed-loop phase.
struct Phase {
    samples: Vec<Sample>,
    segments: Vec<Segment>,
    /// Peak RSS (MiB) when the phase's `rss_at`-th request was sent.
    peak_rss_mb: Option<f64>,
}

impl Phase {
    fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    /// Latencies (ms) of successful requests designed as `expect`, in
    /// completion order.
    fn latencies(&self, requests: &[Request], expect: Option<Expect>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && expect.is_none_or(|e| requests[s.request as usize].expect == e))
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect()
    }

    /// Sum of `value` over the segments.
    fn total(&self, value: fn(&Segment) -> f64) -> f64 {
        self.segments.iter().map(value).sum()
    }
}

/// Lets the clients send only while a segment is open, and tells the
/// coordinator when every client has stopped sending.
struct Gate {
    open: AtomicBool,
    state: Mutex<GateState>,
    changed: Condvar,
}

struct GateState {
    open: bool,
    done: bool,
    /// Clients waiting for the gate to open.
    waiting: usize,
    /// Clients that have not left.
    running: usize,
}

impl Gate {
    fn new(clients: usize) -> Gate {
        Gate {
            open: AtomicBool::new(false),
            state: Mutex::new(GateState {
                open: false,
                done: false,
                waiting: 0,
                running: clients,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().expect("gate lock")
    }

    /// Wait for an open segment; `false` once the phase is over. A request
    /// started in a segment ends before the segment does.
    fn enter(&self) -> bool {
        if self.open.load(Ordering::Acquire) {
            return true;
        }
        let mut state = self.lock();
        if !state.open && !state.done {
            state.waiting += 1;
            self.changed.notify_all();
            state = self
                .changed
                .wait_while(state, |s| !s.open && !s.done)
                .expect("gate lock");
            state.waiting -= 1;
        }
        !state.done
    }

    fn leave(&self) {
        self.lock().running -= 1;
        self.changed.notify_all();
    }

    /// Wait until every running client waits, or none is left.
    fn quiet(&self) -> MutexGuard<'_, GateState> {
        self.changed
            .wait_while(self.lock(), |s| s.waiting < s.running)
            .expect("gate lock")
    }

    fn set_open(&self, state: &mut GateState, open: bool) {
        state.open = open;
        self.open.store(open, Ordering::Release);
        self.changed.notify_all();
    }
}

/// Drive `requests` through the connections in a closed loop until they
/// run out or `window` has passed, reading the peak RSS as request
/// `rss_at` is sent. The load runs in segments of [`SEGMENT`] with a
/// calibration burst before and after each, while no request is in flight,
/// so the host's speed is sampled while the phase runs.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    addr: SocketAddr,
    conns: &mut [Conn],
    answers: &mut [Answers],
    calibrator: &mut Calibrator,
    bodies: &[String],
    requests: &[Request],
    window: Option<Duration>,
    rss_at: Option<usize>,
) -> Phase {
    let next = AtomicUsize::new(0);
    let gate = Gate::new(conns.len());
    let start = Instant::now();
    let mut segments = Vec::new();
    let per_thread: Vec<(Vec<Sample>, Option<f64>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(answers.iter_mut())
            .map(|(conn, answers)| {
                let (next, gate) = (&next, &gate);
                scope.spawn(move || {
                    // Touch room for every request up front, so the
                    // benchmark's own memory does not grow with throughput
                    // and move `peak_rss_mb`.
                    let mut samples = vec![Sample::default(); requests.len()];
                    samples.clear();
                    let mut rss = None;
                    while gate.enter() {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(index) else {
                            break;
                        };
                        if rss_at == Some(index) {
                            rss = usage::peak_rss_mb();
                        }
                        let sent = Instant::now();
                        let outcome = conn.call(&bodies[request.question]);
                        let mut sample = Sample {
                            request: index as u32,
                            latency_ns: u32::try_from(sent.elapsed().as_nanos())
                                .unwrap_or(u32::MAX),
                            done_us: start.elapsed().as_micros() as u32,
                            ok: false,
                        };
                        match outcome {
                            Ok(id) => {
                                sample.ok = answers.record(request.question, id, conn.response())
                            }
                            Err(err) => {
                                answers
                                    .problems
                                    .push(format!("question {}: i/o: {err}", request.question));
                                if let Ok(fresh) = Conn::connect(addr) {
                                    *conn = fresh;
                                } else {
                                    samples.push(sample);
                                    break;
                                }
                            }
                        }
                        samples.push(sample);
                    }
                    gate.leave();
                    (samples, rss)
                })
            })
            .collect();

        // The coordinator: burst, open a segment, close it, wait for the
        // requests in flight, and again, until the window ends or the
        // clients have left.
        drop(gate.quiet());
        calibrator.burst();
        loop {
            let mut state = gate.lock();
            if state.running == 0 || window.is_some_and(|w| start.elapsed() >= w) {
                state.done = true;
                gate.changed.notify_all();
                break;
            }
            let length = window.map_or(SEGMENT, |w| SEGMENT.min(w.saturating_sub(start.elapsed())));
            let opened = Instant::now();
            let cpu_s = usage::cpu_s();
            gate.set_open(&mut state, true);
            let (mut state, _) = gate
                .changed
                .wait_timeout_while(state, length, |s| s.running > 0)
                .expect("gate lock");
            gate.set_open(&mut state, false);
            drop(state);
            drop(gate.quiet());
            let seconds = opened.elapsed().as_secs_f64();
            let cpu_s = usage::cpu_s() - cpu_s;
            calibrator.burst();
            segments.push(Segment { seconds, cpu_s });
        }
        workers
            .into_iter()
            .map(|worker| worker.join().expect("client thread"))
            .collect()
    });
    let peak_rss_mb = per_thread.iter().find_map(|(_, rss)| *rss);
    let mut samples: Vec<Sample> = per_thread.into_iter().flat_map(|(s, _)| s).collect();
    samples.sort_by_key(|s| s.done_us);
    Phase {
        samples,
        segments,
        peak_rss_mb,
    }
}

fn cache_stats(addr: SocketAddr) -> CacheStats {
    Client::connect(addr)
        .expect("stats connection")
        .stats()
        .expect("stats request")
        .engine
        .answer_cache
}

/// Check that the server's cache saw exactly the designed outcomes of the
/// phase's successful requests.
fn check_outcomes(
    name: &str,
    before: &CacheStats,
    after: &CacheStats,
    phase: &Phase,
    requests: &[Request],
    problems: &mut Vec<String>,
) {
    let expected = |expect| {
        phase
            .samples
            .iter()
            .filter(|s| s.ok && requests[s.request as usize].expect == expect)
            .count() as u64
    };
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    if hits != expected(Expect::Hit) || misses != expected(Expect::Miss) {
        problems.push(format!(
            "{name}: server counted {hits} hits / {misses} misses, designed {} / {}",
            expected(Expect::Hit),
            expected(Expect::Miss)
        ));
    }
}

/// Boot a server on a fresh engine and answer the set-up question;
/// returns the handle, the engine and the seconds that took.
fn set_up(
    table: &Table,
    body: &str,
    answers: &mut Answers,
) -> (ServerHandle, Arc<Engine>, f64, bool) {
    let catalog: Arc<Catalog> = Arc::new([table.clone()].into_iter().collect());
    let start = Instant::now();
    let engine = Arc::new(Engine::new());
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine), catalog, server_config())
        .expect("bind loopback server");
    let answered = Conn::connect(handle.local_addr()).and_then(|mut conn| {
        let id = conn.call(body)?;
        Ok((conn, id))
    });
    let seconds = start.elapsed().as_secs_f64();
    let ok = match answered {
        Ok((conn, id)) => answers.record(0, id, conn.response()),
        Err(err) => {
            answers.problems.push(format!("set-up i/o: {err}"));
            false
        }
    };
    (handle, engine, seconds, ok)
}

/// Run `count` set-ups, [`SETUP_GAP`] apart and each after a calibration
/// burst, pushing their seconds onto `setups`; returns the last server,
/// still running, and the number of set-ups that failed.
fn set_up_servers(
    count: usize,
    table: &Table,
    body: &str,
    answers: &mut Answers,
    calibrator: &mut Calibrator,
    setups: &mut Vec<f64>,
) -> ((ServerHandle, Arc<Engine>), usize) {
    let mut serving = None;
    let mut failed = 0;
    for _ in 0..count {
        std::thread::sleep(SETUP_GAP);
        calibrator.burst();
        let (handle, engine, secs, ok) = set_up(table, body, answers);
        failed += usize::from(!ok);
        setups.push(secs);
        if let Some((previous, _)) = serving.replace((handle, engine)) {
            ServerHandle::shutdown(previous);
        }
    }
    (serving.expect("at least one set-up"), failed)
}

/// Parse a stored answer and return its `candidates` JSON bytes, after
/// checking that it echoes the question and table.
fn candidates_of<'a>(tail: &'a [u8], question: &str, table: &str) -> Result<&'a [u8], String> {
    let mut whole = format!("{{\"v\":{PROTOCOL_VERSION},\"id\":0,").into_bytes();
    whole.extend_from_slice(tail);
    let text = std::str::from_utf8(&whole).map_err(|_| "response is not UTF-8".to_string())?;
    let envelope: ResponseEnvelope =
        serde_json::from_str(text).map_err(|err| format!("unparseable response: {err}"))?;
    let ResponseBody::Explanation(explanation) = envelope.body else {
        return Err("not an explanation".to_string());
    };
    if explanation.question != question || explanation.table != table {
        return Err(format!(
            "echoed ({:?}, {:?})",
            explanation.question, explanation.table
        ));
    }
    if let Some(error) = explanation.error {
        return Err(format!("explanation error: {error}"));
    }
    const KEY: &[u8] = b"\"candidates\":";
    const END: &[u8] = b",\"error\":null}}}";
    let start = tail
        .windows(KEY.len())
        .position(|w| w == KEY)
        .ok_or("no candidates field")?
        + KEY.len();
    if !tail.ends_with(END) || start > tail.len() - END.len() {
        return Err("candidates are not the last field".to_string());
    }
    Ok(&tail[start..tail.len() - END.len()])
}

/// Per-question verdict of the in-process check.
struct Verdict {
    top1: bool,
    topk: bool,
}

/// Compare every distinct answer with `candidates_json` of
/// `Engine::explain_question`, computed in-process on `CONNECTIONS`
/// threads.
fn verify(
    engine: &Engine,
    workload: &Workload,
    answers: &[Answers],
    problems: &mut Vec<String>,
) -> HashMap<usize, Verdict> {
    let table = &workload.table;
    let mut distinct: Vec<(usize, &[u8])> = Vec::new();
    for question in 0..workload.pool.len() {
        let mut tails = answers.iter().filter_map(|a| a.first[question].as_deref());
        if let Some(first) = tails.next() {
            if tails.any(|other| other != first) {
                problems.push(format!(
                    "question {question}: connections got different answers"
                ));
            }
            distinct.push((question, first));
        }
    }
    let next = AtomicUsize::new(0);
    let results: Vec<(usize, Result<Verdict, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (next, distinct) = (&next, &distinct);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(&(question, tail)) =
                        distinct.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let generated = &workload.pool[question];
                        let explained = engine.explain_question(&generated.question, table, TOP_K);
                        let expected = wtq_core::candidates_json(&explained, table);
                        let verdict = candidates_of(tail, &generated.question, table.name())
                            .and_then(|served| {
                                if served == expected.as_slice() {
                                    Ok(Verdict {
                                        top1: explained
                                            .first()
                                            .is_some_and(|c| c.answer == generated.answer),
                                        topk: explained
                                            .iter()
                                            .any(|c| c.answer == generated.answer),
                                    })
                                } else {
                                    Err("candidates differ from Engine::explain_question"
                                        .to_string())
                                }
                            });
                        out.push((question, verdict));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("verify thread"))
            .collect()
    });
    let mut verdicts = HashMap::new();
    for (question, verdict) in results {
        match verdict {
            Ok(verdict) => {
                verdicts.insert(question, verdict);
            }
            Err(err) => problems.push(format!(
                "question {question} ({:?}): {err}",
                workload.pool[question].question
            )),
        }
    }
    verdicts
}

/// Everything a served run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
}

/// Run `workload` for `seconds`.
pub fn run(workload: &Workload, seconds: f64) -> Outcome {
    let table = &workload.table;
    let bodies: Vec<String> = workload
        .pool
        .iter()
        .map(|q| explain_body(&q.question, table.name()))
        .collect();
    let mut answers: Vec<Answers> = (0..CONNECTIONS)
        .map(|_| Answers::new(workload.pool.len()))
        .collect();
    let mut calibrator = Calibrator::default();
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    // Pool questions sent at least once, the set-up one included.
    let mut sent = vec![false; workload.pool.len()];
    sent[0] = true;

    // Set-up: a fresh engine and server each time. The last of the first
    // half serves the workload; the second half runs after the check.
    let mut setups = Vec::with_capacity(SETUPS);
    let early = SETUPS / 2;
    let ((handle, engine), setup_failures) = set_up_servers(
        early,
        table,
        &bodies[0],
        &mut answers[0],
        &mut calibrator,
        &mut setups,
    );
    attempted += early;
    failed += setup_failures;
    let addr = handle.local_addr();
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::connect(addr).expect("connect to server"))
        .collect();

    let mut phase =
        |name: &str, requests: &[Request], window: Option<Duration>, rss_at: Option<usize>| {
            let before = cache_stats(addr);
            let phase = run_phase(
                addr,
                &mut conns,
                &mut answers,
                &mut calibrator,
                &bodies,
                requests,
                window,
                rss_at,
            );
            let after = cache_stats(addr);
            check_outcomes(name, &before, &after, &phase, requests, &mut problems);
            for sample in &phase.samples {
                sent[requests[sample.request as usize].question] = true;
            }
            attempted += phase.samples.len();
            failed += phase.samples.len() - phase.ok();
            phase
        };

    let load_requests = workload.load_requests();
    let load = phase("load", &load_requests, None, None);
    // Peak memory covers a fixed number of timed requests: not the
    // set-ups, the inputs, the cache loading nor the check after the
    // window. Every miss adds an answer to the cache, so a peak over the
    // whole window would grow with throughput and count a faster build as
    // a heavier one.
    let reset = usage::reset_peak_rss();
    let rss_at = workload.spec.rss_at(seconds);
    let window = phase(
        "window",
        &workload.requests,
        Some(Duration::from_secs_f64(seconds)),
        Some(rss_at),
    );
    let mut hit_latencies = window.latencies(&workload.requests, Some(Expect::Hit));
    if hit_latencies.is_empty() {
        // A window of misses leaves its questions cached: replaying them
        // measures the hit path on this workload's table.
        let answered: Vec<usize> = window
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| workload.requests[s.request as usize].question)
            .collect();
        let probe_requests: Vec<Request> = answered
            .iter()
            .cycle()
            .take(workload::HIT_WARM.requests_for(seconds * HIT_PROBE_SHARE))
            .map(|&question| Request {
                question,
                expect: Expect::Hit,
            })
            .collect();
        let probe = phase(
            "hit probe",
            &probe_requests,
            Some(Duration::from_secs_f64(seconds * HIT_PROBE_SHARE)),
            None,
        );
        hit_latencies = probe.latencies(&probe_requests, Some(Expect::Hit));
    }
    let mut miss_latencies = window.latencies(&workload.requests, Some(Expect::Miss));
    if miss_latencies.is_empty() {
        miss_latencies = load.latencies(&load_requests, Some(Expect::Miss));
    }
    drop(conns);
    handle.shutdown();
    if let Err(err) = reset {
        problems.push(format!("cannot reset the peak RSS: {err}"));
    }
    if window.samples.len() <= rss_at {
        problems.push(format!(
            "the window ended after {} requests, before request {rss_at} that reads the peak RSS",
            window.samples.len()
        ));
    }
    if window.samples.len() == workload.requests.len() {
        // A shorter window would be compared with a full one.
        problems.push(format!(
            "all {} generated requests were sent before the window ended: \
             raise `reference_qps` of {}",
            workload.requests.len(),
            workload.spec.name
        ));
    }

    let verdicts = verify(&engine, workload, &answers, &mut problems);
    drop(engine);
    let ((late, _), setup_failures) = set_up_servers(
        SETUPS - early,
        table,
        &bodies[0],
        &mut answers[0],
        &mut calibrator,
        &mut setups,
    );
    late.shutdown();
    attempted += SETUPS - early;
    failed += setup_failures;
    for answers in &answers {
        problems.extend(answers.problems.iter().cloned());
    }

    // Every time is scaled to the reference machine's speed by the median
    // burst of the run (see `calibrate.rs`).
    let factor = calibrator.factor();
    let mut all = window.latencies(&workload.requests, None);
    for latencies in [&mut all, &mut hit_latencies, &mut miss_latencies] {
        latencies.iter_mut().for_each(|latency| *latency *= factor);
    }
    // Answer quality counts each distinct question sent once, and one left
    // unanswered as wrong: weighting by replays would let the few head
    // questions of a Zipf draw decide it.
    let asked = sent.iter().filter(|&&sent| sent).count();
    let share = |pick: fn(&Verdict) -> bool| {
        verdicts.values().filter(|v| pick(v)).count() as f64 / asked as f64
    };
    let metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            stats::median(&setups).map(|s| s * factor),
            setups.len(),
        ),
        Metric::new(
            "throughput_qps",
            "1/s",
            Some(window.ok() as f64 / (window.total(|s| s.seconds) * factor)),
            window.ok(),
        ),
        Metric::new("latency_p50_ms", "ms", stats::median(&all), all.len()),
        Metric::tail("latency_p99_ms", "ms", &all, 0.99),
        Metric::tail("hit_latency_p99_ms", "ms", &hit_latencies, 0.99),
        Metric::new(
            "miss_latency_p50_ms",
            "ms",
            stats::median(&miss_latencies),
            miss_latencies.len(),
        ),
        Metric::new(
            "error_frac",
            "1",
            Some(failed as f64 / attempted.max(1) as f64),
            attempted,
        ),
        Metric::new("answer_top1_frac", "1", Some(share(|v| v.top1)), asked),
        Metric::new("answer_topk_frac", "1", Some(share(|v| v.topk)), asked),
        Metric::new(
            "cpu_ms_per_request",
            "ms",
            Some(window.total(|s| s.cpu_s) * factor * 1e3 / window.ok().max(1) as f64),
            window.ok(),
        ),
        {
            let mut metric = Metric::new("host.speed", "1", Some(factor), calibrator.bursts());
            metric.note = "times above are scaled by it (see calibrate.rs)".to_string();
            metric
        },
        {
            let mut metric = Metric::new("peak_rss_mb", "MB", window.peak_rss_mb, 1);
            metric.note = format!("over the first {rss_at} timed requests");
            metric
        },
    ];
    Outcome {
        metrics,
        attempted,
        failed,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_holds_requests_to_open_segments() {
        let gate = Gate::new(2);
        let in_flight = AtomicUsize::new(0);
        let sent = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while gate.enter() {
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        sent.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(200));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                    gate.leave();
                });
            }
            drop(gate.quiet());
            assert_eq!(
                sent.load(Ordering::SeqCst),
                0,
                "sent before the first segment"
            );
            for _ in 0..5 {
                gate.set_open(&mut gate.lock(), true);
                std::thread::sleep(Duration::from_millis(5));
                gate.set_open(&mut gate.lock(), false);
                drop(gate.quiet());
                // Between segments nothing is in flight and nothing starts.
                assert_eq!(in_flight.load(Ordering::SeqCst), 0);
                let before = sent.load(Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                assert_eq!(sent.load(Ordering::SeqCst), before);
            }
            assert!(sent.load(Ordering::SeqCst) > 0);
            let mut state = gate.lock();
            state.done = true;
            gate.changed.notify_all();
        });
        assert_eq!(gate.lock().running, 0);
    }

    #[test]
    fn head_must_echo_the_id() {
        let response = br#"{"v":1,"id":12,"body":{"Explanation":{}}}"#;
        assert_eq!(
            after_head(response, 12),
            Some(&br#""body":{"Explanation":{}}}"#[..])
        );
        assert_eq!(after_head(response, 1), None);
        assert_eq!(after_head(response, 123), None);
    }

    #[test]
    fn candidates_are_cut_out_verbatim() {
        let tail = br#""body":{"Explanation":{"question":"q \"candidates\":","table":"t","candidates":[],"error":null}}}"#;
        assert_eq!(
            candidates_of(tail, "q \"candidates\":", "t"),
            Ok(&b"[]"[..])
        );
        assert!(candidates_of(tail, "other", "t").is_err());
        let failed = br#""body":{"Explanation":{"question":"q","table":"t","candidates":[],"error":"boom"}}}"#;
        assert!(candidates_of(failed, "q", "t").is_err());
    }
}
