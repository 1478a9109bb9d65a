//! The shared Titan corpus fixture, the framework shape every workload
//! runs on, the request mixes, and the answers each output check expects,
//! all derived from the generated scenario of one seed.

use hpclog_core::etl::batch::ImportReport;
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::keys::{hour_of, HOUR_MS};
use loggen::topology::Topology;
use loggen::trace::{RawLine, Scenario, ScenarioConfig};
use rand::{Rng, SeedableRng, StdRng};
use std::collections::{BTreeMap, BTreeSet};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1977;

/// Block (and columnar) budget of `explore_cold`: below its columnar
/// working set, so blocks are evicted and the storm-hour block is never
/// retained.
pub const EXPLORE_BLOCK_BYTES: usize = 4 << 20;

/// Block (and columnar) budget of `ingest_batch` and `live_dashboard`:
/// the framework default, which holds the working set.
pub const DEFAULT_BLOCK_BYTES: usize = rasdb::cluster::DEFAULT_BLOCK_CACHE_BYTES;

/// The event types the analytics requests cover.
pub const TYPES: [&str; 8] = [
    "MCE",
    "MEM_ECC",
    "GPU_DBE",
    "GPU_OFF_BUS",
    "LUSTRE_ERR",
    "LUSTRE_EVICT",
    "DVS_ERR",
    "NET_LINK",
];

/// The analytics ops the requests cover.
pub const OPS: [&str; 5] = [
    "heatmap",
    "histogram",
    "distribution",
    "wordcount",
    "cross_correlation",
];

/// One generated corpus with its ground truth.
pub struct Fixture {
    pub topo: Topology,
    pub scenario: Scenario,
    /// The scenario rendered as the newline-separated corpus batch ETL reads.
    pub corpus: Vec<u8>,
    /// Scenario window `[start_ms, end_ms)`.
    pub start_ms: i64,
    pub end_ms: i64,
    /// Hour bucket holding `start_ms`; "hour k" below is bucket `h0 + k`.
    pub h0: i64,
}

impl Fixture {
    /// The benchmark corpus: Titan, a 4-hour storm day at 3x background.
    pub fn titan(seed: u64) -> Fixture {
        Fixture::generate(Topology::titan(), seed)
    }

    /// A storm day of the same shape over any machine (tests use a small one).
    pub fn generate(topo: Topology, seed: u64) -> Fixture {
        let cfg = ScenarioConfig {
            rate_scale: 3.0,
            ..ScenarioConfig::storm_day(4, 41)
        };
        let scenario = Scenario::generate(&topo, &cfg, seed);
        let corpus = scenario.render_corpus();
        Fixture {
            topo,
            corpus,
            scenario,
            start_ms: cfg.start_ms,
            end_ms: cfg.start_ms + cfg.duration_ms,
            h0: hour_of(cfg.start_ms),
        }
    }

    /// Start of hour bucket `k` of the scenario.
    pub fn hour(&self, k: i64) -> i64 {
        (self.h0 + k) * HOUR_MS
    }

    /// Hour buckets the scenario touches.
    pub fn hours(&self) -> i64 {
        hour_of(self.end_ms - 1) - self.h0 + 1
    }

    /// Lines with event time in `[from_ms, to_ms)`.
    pub fn lines_in(&self, from_ms: i64, to_ms: i64) -> Vec<RawLine> {
        self.scenario
            .lines
            .iter()
            .filter(|l| l.ts_ms >= from_ms && l.ts_ms < to_ms)
            .cloned()
            .collect()
    }

    /// Ground-truth event occurrences in `[from_ms, to_ms)`.
    pub fn events_in(&self, from_ms: i64, to_ms: i64) -> u64 {
        self.scenario
            .truth
            .iter()
            .filter(|o| o.ts_ms >= from_ms && o.ts_ms < to_ms)
            .count() as u64
    }
}

/// The framework every workload runs on: 4 storage nodes, RF 2, 8 vnodes,
/// 2 executors, no simulated network, and the given block budget.
pub fn framework(topo: &Topology, block_cache_bytes: usize) -> Framework {
    Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 2,
        vnodes: 8,
        workers: Some(2),
        topology: topo.clone(),
        remote_link_bytes_per_sec: None,
        block_cache_bytes,
        ..Default::default()
    })
    .expect("a fresh framework boots")
}

/// Renders lines as a batch-ETL corpus.
pub fn render(lines: &[RawLine]) -> Vec<u8> {
    let mut out = Vec::new();
    for l in lines {
        out.extend_from_slice(l.render().as_bytes());
        out.push(b'\n');
    }
    out
}

/// What importing the whole scenario must report: every line parses,
/// each event lands in both table views, and every job pairs up.
pub fn expected_import(sc: &Scenario) -> ImportReport {
    ImportReport {
        parsed: sc.truth.len() + 2 * sc.jobs.len(),
        skipped: 0,
        filtered: 0,
        fallbacks: 0,
        event_rows: 2 * sc.truth.len(),
        jobs: sc.jobs.len(),
        unmatched_jobs: 0,
    }
}

/// Rows per `(type, hour bucket)` the store must hold after a batch
/// import: one per distinct `(ts, node)` occurrence, since the table key
/// is `(hour, type, ts, source)`.
pub fn expected_readback(sc: &Scenario) -> BTreeMap<(String, i64), u64> {
    let keys: BTreeSet<(&str, i64, i64, usize)> = sc
        .truth
        .iter()
        .map(|o| (o.event_type, hour_of(o.ts_ms), o.ts_ms, o.node))
        .collect();
    let mut out = BTreeMap::new();
    for (t, h, _, _) in keys {
        *out.entry((t.to_owned(), h)).or_insert(0) += 1;
    }
    out
}

/// One analytics request as sent to the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub op: &'static str,
    pub etype: &'static str,
    /// Second series of `cross_correlation`.
    pub partner: &'static str,
    pub from: i64,
    pub to: i64,
    /// Histogram and correlation bin width.
    pub bin_ms: i64,
    pub body: String,
}

impl Request {
    pub fn new(
        op: &'static str,
        etype: &'static str,
        partner: &'static str,
        from: i64,
        to: i64,
        bin_ms: i64,
    ) -> Request {
        let extra = match op {
            "histogram" => format!(r#","bin_ms":{bin_ms}"#),
            "distribution" => r#","by":"cabinet""#.to_owned(),
            "wordcount" => r#","top":20"#.to_owned(),
            "cross_correlation" => {
                format!(r#","x":"{etype}","y":"{partner}","bin_ms":{bin_ms},"max_lag":10"#)
            }
            _ => String::new(),
        };
        let body = format!(r#"{{"op":"{op}","type":"{etype}","from":{from},"to":{to}{extra}}}"#);
        Request {
            op,
            etype,
            partner,
            from,
            to,
            bin_ms,
            body,
        }
    }

    /// Event types whose partitions the request reads.
    pub fn types(&self) -> Vec<&'static str> {
        if self.op == "cross_correlation" {
            vec![self.etype, self.partner]
        } else {
            vec![self.etype]
        }
    }
}

/// One deck of `explore_cold` requests: every op x type x hour bucket
/// once (sent in the order [`round_order`] gives). Each request covers a minute-aligned
/// window of 1 to 60 minutes inside the part of its bucket the scenario
/// covers (20 minutes of hour 0 and 40 of hour 4), so no window is empty
/// by construction. Window lengths are stratified: the hours of one op
/// and type draw their lengths from distinct equal slices of their span,
/// in seeded order. So every deck has the same mix of ops, hours,
/// storm-hour requests and window lengths, and whole decks measure the
/// same work at any seed. No two requests of a deck share a result-cache
/// key.
pub fn explore_deck(fx: &Fixture, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hours = fx.hours();
    let mut deck = Vec::new();
    for op in OPS {
        for (i, etype) in TYPES.iter().enumerate() {
            let partner = TYPES[(i + 1) % TYPES.len()];
            let mut strata: Vec<i64> = (0..hours).collect();
            shuffle(&mut strata, &mut rng);
            for (k, stratum) in (0..hours).zip(strata) {
                let lo = fx.hour(k).max(fx.start_ms);
                let span = (fx.hour(k + 1).min(fx.end_ms) - lo) / 60_000;
                let slice = (span / hours).max(1);
                let minutes = (1 + stratum * slice + rng.gen_range(0..slice)).min(span);
                let from = lo + rng.gen_range(0..=span - minutes) * 60_000;
                deck.push(Request::new(
                    op,
                    etype,
                    partner,
                    from,
                    from + minutes * 60_000,
                    60_000,
                ));
            }
        }
    }
    deck
}

/// The order in which round `round` sends a deck of `n` requests: a fresh
/// seeded permutation per round, so which request first touches (and
/// builds) each column block varies between rounds and averages out
/// within a run.
pub fn round_order(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    shuffle(&mut order, &mut rng);
    order
}

/// Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The `live_dashboard` panels. Five cover hours 0-1, which the batch
/// import loads and the stream never writes; two reach from hour 2 into
/// the open tail the stream is filling.
pub fn panels(fx: &Fixture) -> Vec<Request> {
    let (closed_from, closed_to) = (fx.hour(0), fx.hour(2));
    let (open_from, open_to) = (fx.hour(2), fx.end_ms);
    vec![
        Request::new("heatmap", "MCE", "", closed_from, closed_to, 0),
        Request::new("histogram", "MEM_ECC", "", closed_from, closed_to, 300_000),
        Request::new("distribution", "LUSTRE_ERR", "", closed_from, closed_to, 0),
        Request::new("wordcount", "LUSTRE_ERR", "", closed_from, closed_to, 0),
        Request::new(
            "cross_correlation",
            "MCE",
            "MEM_ECC",
            closed_from,
            closed_to,
            60_000,
        ),
        Request::new("histogram", "LUSTRE_ERR", "", open_from, open_to, 60_000),
        Request::new("heatmap", "LUSTRE_ERR", "", open_from, open_to, 0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_cover_every_combination_once() {
        let fx = Fixture::generate(Topology::scaled(2, 2), 3);
        let deck = explore_deck(&fx, 3);
        assert_eq!(deck.len(), OPS.len() * TYPES.len() * fx.hours() as usize);
        let keys: BTreeSet<&str> = deck.iter().map(|r| r.body.as_str()).collect();
        assert_eq!(keys.len(), deck.len(), "requests are distinct");
        for r in &deck {
            assert!(r.to > r.from && r.to - r.from <= HOUR_MS);
            assert_eq!(hour_of(r.from), hour_of(r.to - 1), "one bucket per request");
        }
        // Windows stay inside the scenario, and one op and type draws its
        // lengths from distinct slices: one short, one long.
        assert!(deck
            .iter()
            .all(|r| r.from >= fx.start_ms && r.to <= fx.end_ms));
        let lengths: Vec<i64> = deck
            .iter()
            .filter(|r| r.op == "wordcount" && r.etype == "MCE")
            .map(|r| (r.to - r.from) / 60_000)
            .collect();
        assert_eq!(lengths.len(), fx.hours() as usize);
        let (min, max) = (lengths.iter().min().unwrap(), lengths.iter().max().unwrap());
        assert!(*min <= 12 && *max > 12, "{lengths:?}");
        assert_ne!(deck, explore_deck(&fx, 4), "seeds draw other windows");
        let order = round_order(deck.len(), 3, 1);
        assert_ne!(order, round_order(deck.len(), 3, 2), "rounds reorder");
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, (0..deck.len()).collect::<Vec<_>>());
    }

    #[test]
    fn readback_expectation_dedups_store_keys() {
        let fx = Fixture::generate(Topology::scaled(2, 2), 5);
        let want = expected_readback(&fx.scenario);
        let rows: u64 = want.values().sum();
        assert!(rows > 0 && rows <= fx.scenario.truth.len() as u64);
    }
}
