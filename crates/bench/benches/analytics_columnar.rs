//! Cold analytics with resident columnar blocks vs without: the same
//! five-panel analytics sweep (heatmap, distribution, histogram,
//! wordcount, cross_correlation) over a fixed 24-hour closed window, with
//! the result cache disabled on both sides so every refresh re-runs the
//! kernels. The uncached engine has every cache tier off, so each scan
//! pays the simulated replica read per hour partition and rebuilds every
//! block; the cached engine builds its blocks lazily on the priming pass
//! and then scans the resident columns with predicate pushdown.
//!
//! Per-read replica service latency is simulated (as in the query_cache
//! bench) to stand in for the RPC + disk time a networked ring pays per
//! partition read — the cost the columnar layer amortizes to one build
//! per closed hour.
//!
//! Emits `BENCH_analytics_columnar.json` at the workspace root (skipped
//! in smoke mode: `ANALYTICS_COLUMNAR_SMOKE=1` runs a fast correctness +
//! speedup check without touching the committed artifact or criterion).

use criterion::{criterion_group, criterion_main, Criterion};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::event::EventRecord;
use hpclog_core::server::QueryEngine;
use loggen::topology::Topology;
use rasdb::ring::NodeId;
use std::sync::Arc;
use std::time::Instant;

const T0: i64 = 1_500_000_000_000;
const HOURS: i64 = 24;
const HOUR_MS: i64 = 3_600_000;
/// Simulated per-read replica service time (RPC + disk) in microseconds.
const READ_LATENCY_US: u64 = 200;

fn smoke() -> bool {
    std::env::var("ANALYTICS_COLUMNAR_SMOKE").as_deref() == Ok("1")
}

fn seeded(cached: bool) -> QueryEngine {
    let block = if cached { 32 << 20 } else { 0 };
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 3,
        vnodes: 16,
        topology: Topology::scaled(2, 2),
        block_cache_bytes: block,
        // The result cache stays off on both sides: this bench times the
        // kernels, not response memoization (query_cache covers that).
        result_cache_bytes: 0,
        ..Default::default()
    })
    .unwrap();
    let topo = fw.topology().clone();
    let mut events = Vec::new();
    for hour in 0..HOURS {
        for i in 0..40i64 {
            let (etype, raw) = if i % 3 == 0 {
                ("MCE", "Machine Check Exception: bank 1: b2 addr 3f cpu 0")
            } else {
                (
                    "LUSTRE_ERR",
                    "LustreError: 11-0: atlas1-OST0041-osc: operation failed",
                )
            };
            events.push(EventRecord {
                ts_ms: T0 + hour * HOUR_MS + i * 90_000 % HOUR_MS,
                event_type: etype.into(),
                source: topo
                    .node(((hour * 40 + i) as usize) % topo.node_count())
                    .cname,
                amount: 1,
                raw: raw.into(),
            });
        }
    }
    fw.insert_events(&events).unwrap();
    // Batch inserts do not move the ingest watermark; commit it past the
    // window so every hour is closed and eligible for columnar blocks.
    fw.note_ingest_commit(T0 + HOURS * HOUR_MS);
    // Simulated service latency goes on AFTER seeding so the writes above
    // stay fast.
    for n in 0..fw.cluster().node_count() {
        fw.cluster()
            .node(NodeId(n))
            .set_read_latency_us(READ_LATENCY_US);
    }
    QueryEngine::new(Arc::new(fw))
}

fn panels() -> Vec<String> {
    let (a, b) = (T0, T0 + HOURS * HOUR_MS);
    vec![
        format!(r#"{{"op":"heatmap","type":"LUSTRE_ERR","from":{a},"to":{b}}}"#),
        format!(
            r#"{{"op":"distribution","type":"LUSTRE_ERR","from":{a},"to":{b},"by":"cabinet"}}"#
        ),
        format!(
            r#"{{"op":"histogram","type":"LUSTRE_ERR","from":{a},"to":{b},"bin_ms":{HOUR_MS}}}"#
        ),
        format!(r#"{{"op":"wordcount","type":"LUSTRE_ERR","from":{a},"to":{b},"top":10}}"#),
        format!(
            r#"{{"op":"cross_correlation","x":"MCE","y":"LUSTRE_ERR","from":{a},"to":{b},"bin_ms":{HOUR_MS},"max_lag":3}}"#
        ),
    ]
}

fn sweep(engine: &QueryEngine, panels: &[String]) -> usize {
    panels.iter().map(|q| engine.handle(q).len()).sum()
}

fn measure(mut f: impl FnMut() -> usize, iters: u32) -> f64 {
    let t = Instant::now();
    let mut total = 0;
    for _ in 0..iters {
        total += f();
    }
    assert!(total > 0);
    t.elapsed().as_secs_f64() * 1000.0 / f64::from(iters)
}

fn bench_analytics_columnar(c: &mut Criterion) {
    let uncached = seeded(false);
    let col = seeded(true);
    let queries = panels();

    // Correctness before timing: every panel must be byte-identical
    // uncached vs cached (modulo the per-request trace id) — on the
    // priming pass that builds the blocks and again on the resident-block
    // pass.
    let sans_trace = |resp: String| {
        let mut v = jsonlite::parse(&resp).expect("valid response JSON");
        v.remove("trace_id");
        v.to_string()
    };
    for pass in ["build", "resident"] {
        for q in &queries {
            assert_eq!(
                sans_trace(uncached.handle(q)),
                sans_trace(col.handle(q)),
                "{pass}: {q}"
            );
        }
    }
    let stats = col.framework().columnar().stats();
    assert!(
        stats.blocks_built >= HOURS as u64,
        "priming must build a block per closed hour (built {})",
        stats.blocks_built
    );
    assert!(
        stats.hits > 0,
        "the second pass must scan resident columnar blocks"
    );

    let iters = if smoke() { 3 } else { 10 };
    let uncached_ms = measure(|| sweep(&uncached, &queries), iters);
    let col_ms = measure(|| sweep(&col, &queries), iters);
    let speedup = uncached_ms / col_ms;
    println!(
        "24h analytics sweep: uncached {uncached_ms:.3} ms, columnar {col_ms:.3} ms, speedup {speedup:.1}x"
    );
    let floor = if smoke() { 2.0 } else { 5.0 };
    assert!(
        speedup >= floor,
        "cached columnar analytics must be at least {floor}x faster than uncached (got {speedup:.1}x)"
    );

    if smoke() {
        return;
    }

    let stats = col.framework().columnar().stats();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"analytics_columnar\",\n",
            "  \"panels\": [\"heatmap\", \"distribution\", \"histogram\", \"wordcount\", \"cross_correlation\"],\n",
            "  \"window_hours\": {},\n",
            "  \"events_seeded\": {},\n",
            "  \"nodes\": 4,\n",
            "  \"replication_factor\": 3,\n",
            "  \"read_latency_us\": {},\n",
            "  \"uncached_sweep_ms\": {:.3},\n",
            "  \"columnar_sweep_ms\": {:.3},\n",
            "  \"speedup\": {:.2},\n",
            "  \"blocks_built\": {},\n",
            "  \"bytes_resident\": {},\n",
            "  \"dict_compression\": {:.2},\n",
            "  \"zone_skips\": {}\n",
            "}}\n"
        ),
        HOURS,
        HOURS * 40,
        READ_LATENCY_US,
        uncached_ms,
        col_ms,
        speedup,
        stats.blocks_built,
        stats.bytes_resident,
        stats.dict_compression(),
        stats.zone_skips,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_analytics_columnar.json"
    );
    std::fs::write(path, &json).expect("write BENCH_analytics_columnar.json");

    let mut group = c.benchmark_group("analytics_columnar");
    group.sample_size(10);
    group.bench_function("sweep_uncached_24h", |b| {
        b.iter(|| sweep(&uncached, &queries))
    });
    group.bench_function("sweep_columnar_24h", |b| b.iter(|| sweep(&col, &queries)));
    group.finish();
}

criterion_group!(benches, bench_analytics_columnar);
criterion_main!(benches);
