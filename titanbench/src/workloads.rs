//! The three workloads. Each makes a warm-up round and then enough
//! measured rounds to fill the run length; a round is set-up, a measured
//! phase and untimed output checks. Set-up builds a fresh framework every
//! round, so `setup_s` is a median over rounds.

use crate::checks::{self, Check};
use crate::fixture::{
    expected_import, expected_readback, explore_deck, framework, panels, render, round_order,
    Fixture, Request, DEFAULT_BLOCK_BYTES, EXPLORE_BLOCK_BYTES, TYPES,
};
use crate::spans::Recorder;
use crate::stats;
use crate::walk::{self, Counters, LoopFacts, StreamFacts};
use hpclog_core::etl::batch::ImportOptions;
use hpclog_core::etl::stream::{publish_lines, StreamConfig, StreamIngester};
use hpclog_core::framework::Framework;
use hpclog_core::model::keys::hour_of;
use hpclog_core::server::cache::DEFAULT_RESULT_CACHE_BYTES;
use hpclog_core::server::{HttpConfig, HttpServer, QueryEngine};
use loggen::events::EVENT_CATALOG;
use loggen::trace::RawLine;
use rasdb::error::DbError;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Measured rounds every run makes after its warm-up round, so the
/// medians over rounds have at least three samples.
pub const MIN_ROUNDS: usize = 3;

/// Measured rounds a traced run makes: untraced and traced rounds
/// alternate, two of each at least, to measure the tracing overhead.
pub const MIN_TRACED_ROUNDS: usize = 4;

/// Nominal length of one measured round: a whole-corpus import, one
/// `explore_cold` deck, one `live_dashboard` replay.
const IMPORT_S: f64 = 1.5;
const DECK_S: f64 = 3.75;
const REPLAY_S: f64 = 3.0;

/// Records one `StreamIngester::step` may poll.
const STEP_RECORDS: usize = 1024;

/// What one run asks for.
pub struct RunSpec<'r> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rec: &'r Recorder,
}

/// How one round counts.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Round 0: warms the process up (allocator, code, page cache); its
    /// outputs are checked but its times are not reported.
    Warmup,
    Measured {
        traced: bool,
    },
}

impl RunSpec<'_> {
    /// Rounds to make, warm-up included: enough measured rounds of about
    /// `nominal_s` each (their length on a 2-vCPU box) to fill the run
    /// length. The count depends only on the arguments, so every run of a
    /// workload has the same shape: the same samples, and the same
    /// allocation history behind `peak_rss_mb`.
    fn rounds(&self, nominal_s: f64) -> usize {
        let min = if self.trace {
            MIN_TRACED_ROUNDS
        } else {
            MIN_ROUNDS
        };
        1 + min.max((self.seconds / nominal_s).round() as usize)
    }

    /// Traced runs record spans in every second measured round.
    fn begin_round(&self, round: usize) -> Phase {
        let traced = self.trace && round.is_multiple_of(2);
        self.rec.set_enabled(traced);
        if round == 0 {
            Phase::Warmup
        } else {
            Phase::Measured { traced }
        }
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything a workload measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// First failed output check.
    pub check: Check,
    /// The workload's main rate: import lines/s, queries/s, or stream lines/s.
    pub throughput: f64,
    /// The workload's operation latencies: imports, or queries.
    pub latency_ms: Vec<f64>,
    /// Named metrics of the human-readable report: (name, value, unit).
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            attempted: 0,
            failed: 0,
            check: Ok(()),
            throughput: 0.0,
            latency_ms: Vec::new(),
            report: Vec::new(),
            layers: Vec::new(),
        }
    }
}

/// Primary end-to-end time of each measured round, split by whether
/// spans were on.
#[derive(Default)]
struct RoundTimes {
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

impl RoundTimes {
    fn push(&mut self, phase: Phase, ms: f64) {
        match phase {
            Phase::Measured { traced: true } => self.traced.push(ms),
            Phase::Measured { traced: false } => self.untraced.push(ms),
            Phase::Warmup => {}
        }
    }

    /// Traced against untraced round time, as a fraction.
    fn overhead(&self) -> f64 {
        stats::ratio(stats::median(&self.traced), stats::median(&self.untraced)) - 1.0
    }
}

/// A layer call that failed in the walk fails the run.
fn set_layers(o: &mut Outcome, layers: Result<Vec<Metric>, String>) {
    match layers {
        Ok(l) => o.layers = l,
        Err(e) => {
            o.failed += 1;
            if o.check.is_ok() {
                o.check = Err(e);
            }
        }
    }
}

/// Amounts stored per `(type, hour bucket)` over the whole scenario, read
/// through `Framework::events_by_type` (the row path).
pub fn read_back(fw: &Framework, fx: &Fixture) -> Result<BTreeMap<(String, i64), u64>, DbError> {
    let mut out = BTreeMap::new();
    for t in EVENT_CATALOG {
        for e in fw.events_by_type(t.name, fx.start_ms, fx.end_ms)? {
            *out.entry((t.name.to_owned(), hour_of(e.ts_ms)))
                .or_insert(0) += e.amount as u64;
        }
    }
    Ok(out)
}

/// Sum of stored amounts over every event type in `[from_ms, to_ms)`.
pub fn stored_amount(fw: &Framework, from_ms: i64, to_ms: i64) -> Result<u64, DbError> {
    let mut total = 0;
    for t in EVENT_CATALOG {
        total += fw
            .events_by_type(t.name, from_ms, to_ms)?
            .iter()
            .map(|e| e.amount as u64)
            .sum::<u64>();
    }
    Ok(total)
}

/// Turns every cache tier of `fw` off, so a [`QueryEngine`] over it is
/// the uncached reference.
pub fn disable_caches(fw: &Framework) {
    fw.cluster().set_block_cache_budget(0);
    fw.columnar().set_budget(0);
    fw.result_cache().set_budget(0);
}

fn restore_caches(fw: &Framework, block_bytes: usize) {
    fw.cluster().set_block_cache_budget(block_bytes);
    fw.columnar().set_budget(block_bytes);
    fw.result_cache().set_budget(DEFAULT_RESULT_CACHE_BYTES);
}

/// `ingest_batch`: the whole corpus through `Framework::batch_import_bytes`
/// into a fresh framework each round.
pub fn ingest_batch(spec: &RunSpec) -> Outcome {
    let fx = Fixture::titan(spec.seed);
    let want_report = expected_import(&fx.scenario);
    let want_rows = expected_readback(&fx.scenario);
    let lines = fx.scenario.lines.len() as f64;
    let mut o = Outcome::default();
    let mut rounds = RoundTimes::default();
    let mut last: Option<(Framework, Counters)> = None;
    let mut round = 0;
    while round < spec.rounds(IMPORT_S) && o.check.is_ok() {
        let phase = spec.begin_round(round);
        round += 1;
        drop(last.take());
        let t = Instant::now();
        let fw = framework(&fx.topo, DEFAULT_BLOCK_BYTES);
        o.setup_s.push(t.elapsed().as_secs_f64());

        let corpus = fx.corpus.clone();
        let before = Counters::take(&fw);
        let (res, ms) = spec.rec.time("etl.batch_import_bytes", || {
            fw.batch_import_bytes(corpus, &ImportOptions::default())
        });
        let delta = Counters::take(&fw).since(&before);
        o.attempted += 1;
        match res {
            Ok(report) => {
                o.check = checks::import_report(&report, &want_report);
                // The readback costs about as much as an import: once per run.
                if phase == Phase::Warmup && o.check.is_ok() {
                    o.check = read_back(&fw, &fx)
                        .map_err(|e| format!("readback failed: {e}"))
                        .and_then(|got| checks::readback(&got, &want_rows));
                }
                if phase != Phase::Warmup {
                    o.latency_ms.push(ms);
                    rounds.push(phase, ms);
                }
            }
            Err(e) => {
                o.failed += 1;
                eprintln!("import failed: {e}");
            }
        }
        last = Some((fw, delta));
    }
    spec.rec.set_enabled(false);
    let median_ms = stats::median(&o.latency_ms);
    let tail = stats::tail(&o.latency_ms);
    o.throughput = stats::ratio(lines, median_ms / 1000.0);
    o.report = vec![
        ("import_lines_per_s", o.throughput, "1/s"),
        ("import_ms_median", median_ms, "ms"),
        ("import_ms_tail", tail.value, "ms"),
        ("import_tail_pct", tail.pct, "percentile"),
        ("imports", o.latency_ms.len() as f64, "count"),
        ("corpus_lines", lines, "count"),
        (
            "corpus_mib",
            fx.corpus.len() as f64 / (1 << 20) as f64,
            "MiB",
        ),
        ("corpus_events", fx.scenario.truth.len() as f64, "count"),
        ("corpus_jobs", fx.scenario.jobs.len() as f64, "count"),
    ];
    if spec.trace {
        if let Some((fw, counters)) = last {
            let partitions = (0..fx.hours())
                .flat_map(|k| TYPES.iter().map(move |t| (*t, k)))
                .collect();
            let facts = LoopFacts {
                counters,
                stream: None,
                overhead: rounds.overhead(),
                requests: panels(&fx),
                partitions,
                block_bytes: DEFAULT_BLOCK_BYTES,
            };
            set_layers(
                &mut o,
                walk::layers(
                    spec.rec,
                    &fx,
                    &Arc::new(fw),
                    facts,
                    walk::Coverage::Import {
                        import_ms: median_ms,
                    },
                ),
            );
        }
    }
    o
}

/// `explore_cold`: a seeded deck of distinct analytics requests through
/// `QueryEngine::handle`, one closed-loop client, with hours 0-3 closed
/// and a 4 MiB block budget.
pub fn explore_cold(spec: &RunSpec) -> Outcome {
    let fx = Fixture::titan(spec.seed);
    let mut o = Outcome::default();
    let mut rounds = RoundTimes::default();
    let mut last: Option<(Arc<Framework>, Counters, Vec<f64>)> = None;
    // One deck per run, replayed cold in every round in a new order; its
    // uncached reference answers are computed once, after the warm-up round.
    let deck = explore_deck(&fx, spec.seed);
    let mut reference: Vec<String> = Vec::new();
    let mut rates = Vec::new();
    let mut round = 0;
    while round < spec.rounds(DECK_S) && o.check.is_ok() {
        let phase = spec.begin_round(round);
        round += 1;
        drop(last.take());
        let t = Instant::now();
        let fw = Arc::new(framework(&fx.topo, EXPLORE_BLOCK_BYTES));
        if let Err(e) = fw.batch_import_bytes(fx.corpus.clone(), &ImportOptions::default()) {
            o.check = Err(format!("set-up import failed: {e}"));
            break;
        }
        fw.note_ingest_commit(fx.hour(4));
        let engine = QueryEngine::new(Arc::clone(&fw));
        o.setup_s.push(t.elapsed().as_secs_f64());

        let before = Counters::take(&fw);
        // Indexed by request, sent in this round's order.
        let mut bodies = vec![String::new(); deck.len()];
        let mut deck_ms = vec![0.0; deck.len()];
        for i in round_order(deck.len(), spec.seed, round as u64) {
            let (body, ms) = spec
                .rec
                .time("server.handle", || engine.handle(&deck[i].body));
            o.attempted += 1;
            if !checks::envelope_ok(&body) {
                o.failed += 1;
            }
            deck_ms[i] = ms;
            bodies[i] = body;
        }
        let delta = Counters::take(&fw).since(&before);
        if phase != Phase::Warmup {
            let round_ms: f64 = deck_ms.iter().sum();
            rounds.push(phase, round_ms);
            rates.push(stats::ratio(deck.len() as f64, round_ms / 1000.0));
            o.latency_ms.extend_from_slice(&deck_ms);
        }

        if reference.is_empty() {
            disable_caches(&fw);
            let uncached = QueryEngine::new(Arc::clone(&fw));
            reference = deck.iter().map(|r| uncached.handle(&r.body)).collect();
            restore_caches(&fw, EXPLORE_BLOCK_BYTES);
        }
        o.check = deck
            .iter()
            .zip(bodies.iter().zip(&reference))
            .try_for_each(|(req, (body, want))| checks::same_data(&req.body, body, want));
        last = Some((fw, delta, deck_ms));
    }
    spec.rec.set_enabled(false);
    o.throughput = stats::median(&rates);
    let tail = stats::tail(&o.latency_ms);
    o.report = vec![
        ("queries_per_s", o.throughput, "1/s"),
        ("query_p50_ms", stats::median(&o.latency_ms), "ms"),
        ("query_tail_ms", tail.value, "ms"),
        ("query_tail_pct", tail.pct, "percentile"),
        ("queries", o.latency_ms.len() as f64, "count"),
        ("block_budget_bytes", EXPLORE_BLOCK_BYTES as f64, "bytes"),
    ];
    if spec.trace {
        if let Some((fw, counters, deck_ms)) = last {
            // Eight requests of each op, with their loop times.
            let mut per_op: BTreeMap<&str, usize> = BTreeMap::new();
            let (requests, loop_ms): (Vec<Request>, Vec<f64>) = deck
                .iter()
                .zip(&deck_ms)
                .filter(|(r, _)| {
                    let n = per_op.entry(r.op).or_insert(0);
                    *n += 1;
                    *n <= 8
                })
                .map(|(r, ms)| (r.clone(), *ms))
                .unzip();
            let facts = LoopFacts {
                counters,
                stream: None,
                overhead: rounds.overhead(),
                partitions: walk::partitions_of(&fx, &requests),
                requests,
                block_bytes: EXPLORE_BLOCK_BYTES,
            };
            set_layers(
                &mut o,
                walk::layers(
                    spec.rec,
                    &fx,
                    &fw,
                    facts,
                    walk::Coverage::Requests { loop_ms },
                ),
            );
        }
    }
    o
}

/// A keep-alive HTTP/1.1 client on one connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// POSTs a query; returns the status code and body.
    pub fn query(&mut self, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut buf = vec![0; length.ok_or_else(|| bad("no content-length"))?];
        self.reader.read_exact(&mut buf)?;
        String::from_utf8(buf)
            .map(|b| (status, b))
            .map_err(|_| bad("non-UTF-8 body"))
    }
}

/// `live_dashboard`: hours 0-1 batch-imported; hours 2-4 replayed through
/// the bus one event-time second per tick, while one keep-alive HTTP
/// client refreshes the panels in a closed loop.
pub fn live_dashboard(spec: &RunSpec) -> Outcome {
    let fx = Fixture::titan(spec.seed);
    let imported = render(&fx.lines_in(i64::MIN, fx.hour(2)));
    let replay = fx.lines_in(fx.hour(2), fx.end_ms);
    // One tick per event-time second, aligned with the 1 s stream windows.
    let ticks: Vec<&[RawLine]> = replay
        .chunk_by(|a, b| a.ts_ms.div_euclid(1000) == b.ts_ms.div_euclid(1000))
        .collect();
    let published = fx.events_in(fx.hour(2), fx.end_ms);
    let panels = panels(&fx);
    let http_cfg = HttpConfig {
        workers: 2,
        // One closed-loop client must never be shed: size its token
        // bucket far above any rate it can reach on localhost.
        rate_per_sec: 1e6,
        rate_burst: 1e6,
        ..HttpConfig::default()
    };
    let lag_gauge = telemetry::global().gauge("etl.stream.ingest_lag");

    let mut o = Outcome::default();
    let mut rounds = RoundTimes::default();
    let mut stream = StreamFacts::default();
    let mut last: Option<(Arc<Framework>, Counters)> = None;
    let (mut stream_s, mut queries, mut late, mut dead) = (0.0, 0usize, 0u64, 0u64);
    let mut rates = Vec::new();
    let mut reference: Vec<String> = Vec::new();
    let mut round = 0;
    while round < spec.rounds(REPLAY_S) && o.check.is_ok() {
        let phase = spec.begin_round(round);
        round += 1;
        drop(last.take());
        let t = Instant::now();
        let fw = Arc::new(framework(&fx.topo, DEFAULT_BLOCK_BYTES));
        if let Err(e) = fw.batch_import_bytes(imported.clone(), &ImportOptions::default()) {
            o.check = Err(format!("set-up import failed: {e}"));
            break;
        }
        let engine = Arc::new(QueryEngine::new(Arc::clone(&fw)));
        let server = match HttpServer::start_with(Arc::clone(&engine), 0, http_cfg.clone()) {
            Ok(s) => s,
            Err(e) => {
                o.check = Err(format!("server failed to start: {e}"));
                break;
            }
        };
        let mut client = match Client::connect(server.addr()) {
            Ok(c) => c,
            Err(e) => {
                o.check = Err(format!("client failed to connect: {e}"));
                break;
            }
        };
        o.setup_s.push(t.elapsed().as_secs_f64());

        let before = Counters::take(&fw);
        let stop = AtomicBool::new(false);
        let (stream_result, dash) = std::thread::scope(|s| {
            let dashboard = s.spawn(|| {
                let (mut lat, mut failed, mut lost) = (Vec::new(), 0u64, None);
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    let body = &panels[i % panels.len()].body;
                    i += 1;
                    let (res, ms) = spec.rec.time("server.http_query", || client.query(body));
                    match res {
                        Ok((status, resp)) => {
                            if status != 200 || !checks::envelope_ok(&resp) {
                                failed += 1;
                            }
                            lat.push(ms);
                        }
                        Err(e) => {
                            failed += 1;
                            lost = Some(e);
                            break;
                        }
                    }
                }
                (lat, failed, i, lost)
            });
            let t = Instant::now();
            let result = replay_ticks(spec.rec, &fw, &ticks, &mut stream, &lag_gauge);
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            stop.store(true, Ordering::Relaxed);
            (
                result.map(|r| (r, ms)),
                dashboard.join().expect("dashboard thread panicked"),
            )
        });
        let delta = Counters::take(&fw).since(&before);
        let (lat, dash_failed, dash_attempted, lost) = dash;
        o.attempted += dash_attempted as u64 + stream.ops;
        o.failed += dash_failed + stream.failed;
        stream.ops = 0;
        stream.failed = 0;
        let (report, ms) = match stream_result {
            Ok(r) => r,
            Err(e) => {
                o.check = Err(format!("stream failed to drain: {e}"));
                break;
            }
        };
        stream.wall_ms += ms;
        if phase != Phase::Warmup {
            queries += lat.len();
            o.latency_ms.extend(lat);
            stream_s += ms / 1000.0;
            rates.push(stats::ratio(replay.len() as f64, ms / 1000.0));
            rounds.push(phase, ms);
        }
        late += report.late_drops;
        dead += report.dlq_events as u64;

        o.check = (|| {
            if let Some(e) = lost {
                return Err(format!("dashboard connection lost: {e}"));
            }
            checks::count("panel responses not 200 and ok", dash_failed, 0)?;
            checks::count("stream events parsed", report.events_in as u64, published)?;
            checks::count("stream parse failures", report.parse_failures, 0)?;
            let stored = stored_amount(&fw, fx.hour(2), fx.end_ms).map_err(|e| e.to_string())?;
            checks::conservation(
                stored,
                report.late_drops,
                report.dlq_events as u64,
                published,
            )?;
            let mut served = Vec::new();
            for p in &panels {
                let (status, body) = client.query(&p.body).map_err(|e| e.to_string())?;
                checks::count("panel HTTP status", status as u64, 200)?;
                served.push(body);
            }
            // Every round drains to the same tables: the uncached reference
            // answers are computed once.
            if reference.is_empty() {
                disable_caches(&fw);
                let uncached = QueryEngine::new(Arc::clone(&fw));
                reference = panels.iter().map(|p| uncached.handle(&p.body)).collect();
                restore_caches(&fw, DEFAULT_BLOCK_BYTES);
            }
            for (p, (body, want)) in panels.iter().zip(served.iter().zip(&reference)) {
                checks::same_data(&p.body, body, want)?;
            }
            Ok(())
        })();
        drop(client);
        drop(server);
        last = Some((fw, delta));
    }
    spec.rec.set_enabled(false);
    o.throughput = stats::median(&rates);
    let tail = stats::tail(&o.latency_ms);
    let events = published as f64 * round as f64;
    o.report = vec![
        ("stream_lines_per_s", o.throughput, "1/s"),
        (
            "stream_loss_ratio",
            stats::ratio((late + dead) as f64, events),
            "ratio",
        ),
        (
            "queries_per_s",
            stats::ratio(queries as f64, stream_s),
            "1/s",
        ),
        ("query_p50_ms", stats::median(&o.latency_ms), "ms"),
        ("query_tail_ms", tail.value, "ms"),
        ("query_tail_pct", tail.pct, "percentile"),
        ("queries", o.latency_ms.len() as f64, "count"),
        ("replay_lines", replay.len() as f64, "count"),
        ("replay_ticks", ticks.len() as f64, "count"),
    ];
    if spec.trace {
        if let Some((fw, counters)) = last {
            let facts = LoopFacts {
                counters,
                stream: Some(stream),
                overhead: rounds.overhead(),
                partitions: walk::partitions_of(&fx, &panels),
                requests: panels,
                block_bytes: DEFAULT_BLOCK_BYTES,
            };
            set_layers(
                &mut o,
                walk::layers(spec.rec, &fx, &fw, facts, walk::Coverage::Stream),
            );
        }
    }
    o
}

/// Publishes each tick, then steps the ingester until idle; flushes at
/// the end. Every publish and step is one operation; failures are
/// counted, not retried.
pub fn replay_ticks(
    rec: &Recorder,
    fw: &Framework,
    ticks: &[&[RawLine]],
    facts: &mut StreamFacts,
    lag_gauge: &telemetry::Gauge,
) -> Result<hpclog_core::etl::stream::StreamReport, String> {
    let mut ing = StreamIngester::with_config(fw, "titanbench", StreamConfig::default())
        .map_err(|e| format!("ingester failed to join: {e}"))?;
    for tick in ticks {
        let (res, ms) = rec.time("logbus.publish_lines", || publish_lines(fw, tick));
        facts.publish_ms.push(ms);
        facts.ops += 1;
        if res.is_err() {
            facts.failed += 1;
        }
        loop {
            let (res, ms) = rec.time("etl.stream.step", || ing.step(STEP_RECORDS));
            facts.step_ms.push(ms);
            facts.ops += 1;
            facts.max_lag = facts.max_lag.max(lag_gauge.get());
            match res {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => {
                    facts.failed += 1;
                    break;
                }
            }
        }
    }
    ing.finish().map_err(|e| format!("final flush failed: {e}"))
}
