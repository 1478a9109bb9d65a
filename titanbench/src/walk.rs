//! The per-layer table of a traced run. Counters come from the workload's
//! last round (public stats read before and after its measured phase);
//! times come from a walk that calls each layer's public entry point on
//! the workload's own fixture, requests and partitions, one layer at a
//! time. Stream-layer times come from the workload loop when it streamed.

use crate::fixture::{framework, Fixture, Request, DEFAULT_BLOCK_BYTES};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{replay_ticks, Client, Metric};
use hpclog_core::analytics::distribution::{distribution_of, GroupBy};
use hpclog_core::analytics::{correlation, heatmap, histogram, text};
use hpclog_core::columnar::ColumnBlock;
use hpclog_core::context::Context;
use hpclog_core::etl::fastpath::{FastParser, Lines, ScanPredicate, ScanStats};
use hpclog_core::etl::parsers::ParsedLine;
use hpclog_core::framework::Framework;
use hpclog_core::model::keys::hour_of;
use hpclog_core::server::cache::DEFAULT_RESULT_CACHE_BYTES;
use hpclog_core::server::{HttpConfig, HttpServer, QueryEngine};
use rasdb::error::DbError;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Public counters of one framework at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    writes: u64,
    flushes: u64,
    compactions: u64,
    block_hits: u64,
    block_misses: u64,
    columnar_hits: u64,
    columnar_misses: u64,
    columnar_evictions: u64,
    columnar_bytes: u64,
    local_dispatches: u64,
    other_dispatches: u64,
    result_hits: u64,
    result_misses: u64,
}

impl Counters {
    pub fn take(fw: &Framework) -> Counters {
        let db = fw.cluster().stats();
        let block = fw.cluster().block_cache_stats();
        let col = fw.columnar().stats();
        let (local, other) = fw.engine().pool_stats();
        let result = fw.result_cache().stats();
        Counters {
            writes: db.writes,
            flushes: db.flushes,
            compactions: db.compactions,
            block_hits: block.hits(),
            block_misses: block.misses(),
            columnar_hits: col.hits,
            columnar_misses: col.misses,
            columnar_evictions: col.blocks_evicted,
            columnar_bytes: col.bytes_resident,
            local_dispatches: local,
            other_dispatches: other,
            result_hits: result.hits(),
            result_misses: result.misses(),
        }
    }

    /// Activity since `before`; `columnar_bytes` stays the current level.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            writes: self.writes - before.writes,
            flushes: self.flushes - before.flushes,
            compactions: self.compactions - before.compactions,
            block_hits: self.block_hits - before.block_hits,
            block_misses: self.block_misses - before.block_misses,
            columnar_hits: self.columnar_hits - before.columnar_hits,
            columnar_misses: self.columnar_misses - before.columnar_misses,
            columnar_evictions: self.columnar_evictions - before.columnar_evictions,
            columnar_bytes: self.columnar_bytes,
            local_dispatches: self.local_dispatches - before.local_dispatches,
            other_dispatches: self.other_dispatches - before.other_dispatches,
            result_hits: self.result_hits - before.result_hits,
            result_misses: self.result_misses - before.result_misses,
        }
    }
}

fn hit_ratio(hits: u64, misses: u64) -> f64 {
    stats::ratio(hits as f64, (hits + misses) as f64)
}

/// Timed publish and step calls of a stream replay.
#[derive(Debug, Clone, Default)]
pub struct StreamFacts {
    pub publish_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub max_lag: i64,
    pub wall_ms: f64,
    /// Publish and step calls made, and how many returned an error.
    pub ops: u64,
    pub failed: u64,
}

/// What a workload's rounds hand to the walk.
pub struct LoopFacts {
    /// Counter deltas over the last round's measured phase.
    pub counters: Counters,
    /// The loop's own stream calls, when it streamed.
    pub stream: Option<StreamFacts>,
    /// Traced against untraced rounds.
    pub overhead: f64,
    /// Requests to decompose into layers.
    pub requests: Vec<Request>,
    /// `(type, hour k)` partitions the workload read.
    pub partitions: Vec<(&'static str, i64)>,
    pub block_bytes: usize,
}

/// What the layer self times are compared with.
pub enum Coverage {
    /// Parse pass plus store writes against the median batch import.
    Import { import_ms: f64 },
    /// Scan, kernel and engine self times against the loop latency of
    /// each request.
    Requests { loop_ms: Vec<f64> },
    /// Publish plus step time against the replay's wall time.
    Stream,
}

/// Every `(type, hour k)` partition the requests' windows touch.
pub fn partitions_of(fx: &Fixture, requests: &[Request]) -> Vec<(&'static str, i64)> {
    let mut set = BTreeSet::new();
    for r in requests {
        for t in r.types() {
            for h in hour_of(r.from)..=hour_of(r.to - 1) {
                set.insert((t, h - fx.h0));
            }
        }
    }
    set.into_iter().collect()
}

/// Calls the analytics kernel behind a request the way the engine does.
fn kernel(fw: &Framework, r: &Request) -> Result<(), DbError> {
    match r.op {
        "heatmap" => {
            black_box(heatmap::cabinet_heatmap(fw, r.etype, r.from, r.to)?);
        }
        "histogram" => {
            black_box(histogram::event_histogram(
                fw, r.etype, r.from, r.to, r.bin_ms,
            )?);
        }
        "distribution" => {
            let events = Context::window(r.from, r.to)
                .with_type(r.etype)
                .fetch_events(fw)?;
            black_box(distribution_of(fw, &events, GroupBy::Cabinet)?);
        }
        "wordcount" => {
            let counts = text::word_count_events(fw, r.etype, r.from, r.to)?;
            black_box(text::top_k(&counts, 20));
        }
        "cross_correlation" => {
            black_box(correlation::event_cross_correlation(
                fw, r.etype, r.partner, r.from, r.to, r.bin_ms, 10,
            )?);
        }
        other => unreachable!("no kernel for op {other}"),
    }
    Ok(())
}

fn err(what: &'static str) -> impl Fn(DbError) -> String {
    move |e| format!("{what}: {e}")
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// Builds the per-layer table (see `NOTES.md` for each metric's meaning).
/// A layer call that fails ends the walk with its error.
pub fn layers(
    rec: &Recorder,
    fx: &Fixture,
    fw: &Arc<Framework>,
    facts: LoopFacts,
    coverage: Coverage,
) -> Result<Vec<Metric>, String> {
    let c = facts.counters;

    // etl: one fast-path scan pass over the corpus.
    let parser = FastParser::new();
    let pred = ScanPredicate::default();
    let mut scan_stats = ScanStats::default();
    let t = Instant::now();
    for line in Lines::new(&fx.corpus) {
        black_box(parser.scan_line(line, &pred, &mut scan_stats));
    }
    let scan_ms = ms_since(t);

    // etl.stream + logbus: the loop's own calls, or a replay of the last
    // hour bucket into a fresh framework.
    let stream = match facts.stream {
        Some(s) => s,
        None => {
            let probe = framework(&fx.topo, DEFAULT_BLOCK_BYTES);
            let tail = fx.lines_in(fx.hour(4), fx.end_ms);
            let ticks: Vec<&[loggen::trace::RawLine]> = tail
                .chunk_by(|a, b| a.ts_ms.div_euclid(1000) == b.ts_ms.div_euclid(1000))
                .collect();
            let mut s = StreamFacts::default();
            let gauge = telemetry::global().gauge("etl.stream.ingest_lag");
            let t = Instant::now();
            replay_ticks(&Recorder::new(), &probe, &ticks, &mut s, &gauge)?;
            s.wall_ms = ms_since(t);
            s
        }
    };

    // rasdb writes: the corpus events through insert_events into a fresh
    // framework, then once more one insert_event call at a time.
    let events: Vec<_> = Lines::new(&fx.corpus)
        .filter_map(|l| match parser.parse_line(l) {
            Some(ParsedLine::Event(ev)) => Some(ev),
            _ => None,
        })
        .collect();
    let probe = framework(&fx.topo, DEFAULT_BLOCK_BYTES);
    let t = Instant::now();
    probe.insert_events(&events).map_err(err("insert_events"))?;
    let insert_ms = ms_since(t);
    let mut call_us = Vec::with_capacity(events.len());
    for ev in &events {
        let t = Instant::now();
        probe.insert_event(ev).map_err(err("insert_event"))?;
        call_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(probe);

    // rasdb reads and columnar builds of the partitions the workload
    // touched, with the block cache off so every read reaches replicas.
    fw.cluster().set_block_cache_budget(0);
    let (mut read_ms, mut build_ms, mut read_rows, mut working_set) = (0.0, 0.0, 0usize, 0usize);
    for &(t_name, k) in &facts.partitions {
        let plans =
            Framework::window_plans("event_by_time", Some(t_name), fx.hour(k), fx.hour(k + 1));
        let t = Instant::now();
        let batches = fw
            .cluster()
            .read_multi(&plans, fw.consistency())
            .map_err(err("read_multi"))?;
        read_ms += ms_since(t);
        let rows = batches.into_iter().flatten().collect::<Vec<_>>();
        read_rows += rows.len();
        let t = Instant::now();
        let block = ColumnBlock::build(fx.h0 + k, t_name, &rows);
        build_ms += ms_since(t);
        working_set += block.footprint();
    }
    fw.cluster().set_block_cache_budget(facts.block_bytes);

    // sparklet: RDD scans of the open tail (hour 4) for each type read.
    let types: BTreeSet<&str> = facts.requests.iter().flat_map(Request::types).collect();
    let t = Instant::now();
    for t_name in &types {
        black_box(fw.scan_events_rdd(t_name, fx.hour(4), fx.end_ms).collect());
    }
    let rdd_ms = ms_since(t);

    // analytics + server: per request, a cold and a warm scan_window, the
    // kernel, then QueryEngine::handle (a result-cache miss).
    fw.result_cache().set_budget(0);
    fw.result_cache().set_budget(DEFAULT_RESULT_CACHE_BYTES);
    let engine = Arc::new(QueryEngine::new(Arc::clone(fw)));
    let (mut scan_cold, mut kernel_ms, mut handle_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut self_ms = 0.0;
    let mut per_op: Vec<(&str, Vec<f64>)> = crate::fixture::OPS
        .iter()
        .map(|op| (*op, Vec::new()))
        .collect();
    rec.set_enabled(true);
    for r in &facts.requests {
        let root = rec.root("walk.request");
        let scan = |name| -> Result<f64, String> {
            let (res, ms) = root.time(name, || {
                r.types().into_iter().try_for_each(|t_name| {
                    fw.scan_window(t_name, r.from, r.to)
                        .map(|s| drop(black_box(s)))
                })
            });
            res.map_err(err("scan_window"))?;
            Ok(ms)
        };
        let cold = scan("analytics.scan_window")?;
        let warm = scan("analytics.scan_window.warm")?;
        let (res, k) = root.time("analytics.kernel", || kernel(fw, r));
        res.map_err(err(r.op))?;
        let (body, h) = root.time("server.handle", || engine.handle(&r.body));
        root.finish();
        if !crate::checks::envelope_ok(&body) {
            return Err(format!("walk request failed: {}", r.body));
        }
        self_ms += cold + (k - warm).max(0.0) + (h - k).max(0.0);
        scan_cold.push(cold);
        kernel_ms.push(k);
        handle_ms.push(h);
        if let Some((_, v)) = per_op.iter_mut().find(|(op, _)| *op == r.op) {
            v.push(k);
        }
    }
    rec.set_enabled(false);
    let engine_overhead: Vec<f64> = handle_ms
        .iter()
        .zip(&kernel_ms)
        .map(|(h, k)| h - k)
        .collect();

    // server: HTTP round trip against handle() of the same (now cached) body.
    let server = HttpServer::start_with(
        Arc::clone(&engine),
        0,
        HttpConfig {
            workers: 2,
            rate_per_sec: 1e6,
            rate_burst: 1e6,
            ..HttpConfig::default()
        },
    )
    .map_err(|e| format!("walk server: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("walk client: {e}"))?;
    let mut http_overhead = Vec::new();
    for _ in 0..5 {
        for r in &facts.requests {
            let t = Instant::now();
            let (status, _) = client
                .query(&r.body)
                .map_err(|e| format!("walk query: {e}"))?;
            let rt = ms_since(t);
            if status != 200 {
                return Err(format!("walk query status {status}: {}", r.body));
            }
            let t = Instant::now();
            black_box(engine.handle(&r.body));
            http_overhead.push(rt - ms_since(t));
        }
    }
    drop(client);
    drop(server);

    let coverage = match coverage {
        Coverage::Import { import_ms } => stats::ratio(scan_ms + insert_ms, import_ms),
        Coverage::Requests { loop_ms } => stats::ratio(self_ms, loop_ms.iter().sum()),
        Coverage::Stream => stats::ratio(
            stream.publish_ms.iter().sum::<f64>() + stream.step_ms.iter().sum::<f64>(),
            stream.wall_ms,
        ),
    };
    let op_ms = |op: &str| stats::mean(&per_op.iter().find(|(o, _)| *o == op).expect("known op").1);
    Ok(vec![
        ("etl.scan_ms", scan_ms, "ms"),
        ("etl.stream.step_ms", stats::mean(&stream.step_ms), "ms"),
        ("etl.stream.steps", stream.step_ms.len() as f64, "count"),
        ("logbus.publish_ms", stats::mean(&stream.publish_ms), "ms"),
        ("logbus.max_lag", stream.max_lag as f64, "count"),
        ("rasdb.insert_ms", insert_ms, "ms"),
        (
            "rasdb.insert_call_p99_us",
            stats::percentile(&call_us, 99.0),
            "us",
        ),
        ("rasdb.writes", c.writes as f64, "count"),
        ("rasdb.flushes", c.flushes as f64, "count"),
        ("rasdb.compactions", c.compactions as f64, "count"),
        ("rasdb.read_multi_ms", read_ms, "ms"),
        ("rasdb.read_rows", read_rows as f64, "count"),
        (
            "rasdb.block_cache.hit_ratio",
            hit_ratio(c.block_hits, c.block_misses),
            "ratio",
        ),
        ("columnar.build_ms", build_ms, "ms"),
        ("columnar.working_set_bytes", working_set as f64, "bytes"),
        (
            "columnar.hit_ratio",
            hit_ratio(c.columnar_hits, c.columnar_misses),
            "ratio",
        ),
        ("columnar.evictions", c.columnar_evictions as f64, "count"),
        ("columnar.bytes_resident", c.columnar_bytes as f64, "bytes"),
        ("sparklet.rdd_scan_ms", rdd_ms, "ms"),
        (
            "sparklet.local_dispatch_ratio",
            hit_ratio(c.local_dispatches, c.other_dispatches),
            "ratio",
        ),
        ("analytics.scan_window_ms", stats::mean(&scan_cold), "ms"),
        ("analytics.heatmap_ms", op_ms("heatmap"), "ms"),
        ("analytics.histogram_ms", op_ms("histogram"), "ms"),
        ("analytics.distribution_ms", op_ms("distribution"), "ms"),
        ("analytics.wordcount_ms", op_ms("wordcount"), "ms"),
        (
            "analytics.cross_correlation_ms",
            op_ms("cross_correlation"),
            "ms",
        ),
        (
            "server.engine_overhead_ms",
            stats::median(&engine_overhead),
            "ms",
        ),
        (
            "server.http_overhead_ms",
            stats::median(&http_overhead),
            "ms",
        ),
        (
            "server.result_cache.hit_ratio",
            hit_ratio(c.result_hits, c.result_misses),
            "ratio",
        ),
        ("trace.coverage", coverage, "ratio"),
        ("trace.overhead", facts.overhead, "ratio"),
    ])
}
