//! Row oracle: every window kernel, which reads column blocks, must agree
//! with the same result computed from plain event rows
//! ([`Framework::events_by_type`]) by the list-based helpers —
//! `bin_counts`, `distribution_of`, `word_count_serial` and
//! `correlation::cross_correlation` — plus per-cabinet sums for the heat
//! map and distinct sources for the synopsis.
//!
//! Windows are random and always straddle the ingest watermark, so every
//! scan mixes closed-hour blocks with open-hour transient blocks. Each
//! case runs at a zero, a small and a large block budget (nothing
//! retained, partial retention with evictions, everything resident), and
//! with scan tasks both pinned to their data owners and placed
//! round-robin, so open-hour rows also take the marshalled remote path.

use hpclog_core::analytics::bin_counts;
use hpclog_core::analytics::correlation::{cross_correlation, event_cross_correlation};
use hpclog_core::analytics::distribution::{distribution, distribution_of, GroupBy};
use hpclog_core::analytics::heatmap::{cabinet_heatmap, node_heatmap};
use hpclog_core::analytics::histogram::event_histogram;
use hpclog_core::analytics::synopsis::{build_synopsis, read_synopsis};
use hpclog_core::analytics::text::{word_count_events, word_count_serial};
use hpclog_core::analytics::transfer_entropy::{
    binarize, event_transfer_entropy, transfer_entropy_binary,
};
use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::apprun::AppRun;
use hpclog_core::model::event::EventRecord;
use hpclog_core::model::keys::{hour_of, DAY_MS, HOUR_MS};
use loggen::events::EVENT_CATALOG;
use loggen::topology::{Topology, NODES_PER_CABINET};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const T0: i64 = 1_500_000_000_000;
const SPAN_MS: i64 = 4 * HOUR_MS;
const BIN_MS: i64 = 600_000;
const BUDGETS: [usize; 3] = [0, 2048, 4 << 20];

/// A framework seeded with a deterministic mix of MCE and LUSTRE_ERR
/// events across the span (a few from a non-compute source, amounts
/// 1-3, varied messages) plus application runs for attribution.
fn seeded(seed: u64) -> Framework {
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 3,
        replication_factor: 2,
        vnodes: 8,
        topology: Topology::scaled(2, 2),
        result_cache_bytes: 0,
        remote_link_bytes_per_sec: None,
        ..Default::default()
    })
    .unwrap();
    let topo = fw.topology().clone();
    let mut x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move |bound: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % bound
    };
    let events: Vec<EventRecord> = (0..600)
        .map(|i| {
            let etype = if i % 3 == 0 { "MCE" } else { "LUSTRE_ERR" };
            let source = if i % 17 == 0 {
                "mds01".to_owned()
            } else {
                topo.node(next(topo.node_count() as u64) as usize).cname
            };
            EventRecord {
                ts_ms: T0 + next(SPAN_MS as u64) as i64,
                event_type: etype.into(),
                source,
                amount: 1 + next(3) as i32,
                raw: format!(
                    "{etype} OST{:04x} timeout op{} on node{}",
                    next(5),
                    next(3),
                    i % 7
                ),
            }
        })
        .collect();
    fw.insert_events(&events).unwrap();
    for apid in 0..4 {
        fw.insert_app_run(&AppRun {
            apid,
            user: format!("usr{apid}"),
            app: ["VASP", "LAMMPS"][apid as usize % 2].into(),
            start_ms: T0 + apid * HOUR_MS,
            end_ms: T0 + apid * HOUR_MS + 50 * 60_000,
            node_first: apid * 40,
            node_last: apid * 40 + 63,
            exit_code: 0,
            other_info: Default::default(),
        })
        .unwrap();
    }
    fw
}

fn amount_sums(
    fw: &Framework,
    events: &[EventRecord],
    size: usize,
    group: impl Fn(usize) -> usize,
) -> Vec<f64> {
    let mut slots = vec![0.0; size];
    for e in events {
        if let Some(idx) = fw.topology().parse_cname(&e.source) {
            slots[group(idx)] += e.amount as f64;
        }
    }
    slots
}

/// Checks every kernel over `[from, to)` against the row oracle.
fn check_window(fw: &Framework, from: i64, to: i64) {
    let rows = |t: &str| fw.events_by_type(t, from, to).unwrap();
    let (mce, lustre) = (rows("MCE"), rows("LUSTRE_ERR"));

    let ncab = fw.topology().cabinet_count();
    let hm = cabinet_heatmap(fw, "LUSTRE_ERR", from, to).unwrap();
    assert_eq!(
        hm.cabinets,
        amount_sums(fw, &lustre, ncab, |i| i / NODES_PER_CABINET)
    );
    assert_eq!(
        node_heatmap(fw, "LUSTRE_ERR", from, to).unwrap(),
        amount_sums(fw, &lustre, fw.topology().node_count(), |i| i)
    );

    let want_mce = bin_counts(&mce, from, to, BIN_MS);
    let want_lustre = bin_counts(&lustre, from, to, BIN_MS);
    assert_eq!(
        &event_histogram(fw, "MCE", from, to, BIN_MS).unwrap().bins,
        &want_mce
    );

    for by in [
        GroupBy::Cabinet,
        GroupBy::Blade,
        GroupBy::Node,
        GroupBy::Application,
    ] {
        assert_eq!(
            distribution(fw, "LUSTRE_ERR", from, to, by).unwrap(),
            distribution_of(fw, &lustre, by).unwrap(),
            "group by {:?}",
            by
        );
    }

    let messages: Vec<String> = lustre.iter().map(|e| e.raw.clone()).collect();
    assert_eq!(
        word_count_events(fw, "LUSTRE_ERR", from, to).unwrap(),
        word_count_serial(&messages)
    );

    assert_eq!(
        event_cross_correlation(fw, "MCE", "LUSTRE_ERR", from, to, BIN_MS, 3).unwrap(),
        cross_correlation(&want_mce, &want_lustre, 3)
    );
    let te = event_transfer_entropy(fw, "MCE", "LUSTRE_ERR", from, to, BIN_MS, 1).unwrap();
    let (x, y) = (binarize(&want_mce), binarize(&want_lustre));
    assert_eq!(te.x_to_y, transfer_entropy_binary(&x, &y, 1));
    assert_eq!(te.y_to_x, transfer_entropy_binary(&y, &x, 1));

    // Synopsis: one row per non-empty (type, hour) with the amount sum and
    // the distinct-source count of that hour's in-window events.
    let mut want: BTreeMap<(String, i64), (i64, BTreeSet<String>)> = BTreeMap::new();
    for t in EVENT_CATALOG {
        for e in rows(t.name) {
            let slot = want
                .entry((t.name.to_owned(), hour_of(e.ts_ms)))
                .or_default();
            slot.0 += e.amount as i64;
            slot.1.insert(e.source);
        }
    }
    assert_eq!(build_synopsis(fw, from, to).unwrap(), want.len());
    let days: BTreeSet<i64> = want.keys().map(|(_, h)| h * HOUR_MS / DAY_MS).collect();
    let got: BTreeMap<(String, i64), (i64, i64)> = days
        .into_iter()
        .flat_map(|d| read_synopsis(fw, d).unwrap())
        .map(|r| ((r.event_type, r.hour), (r.events, r.nodes)))
        .collect();
    for (key, (events, sources)) in &want {
        assert_eq!(
            got.get(key).copied(),
            Some((*events, sources.len() as i64)),
            "synopsis {:?}",
            key
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn window_kernels_match_the_row_oracle_across_the_watermark(
        seed in 0u64..1_000,
        wm_dt in HOUR_MS / 2..SPAN_MS - HOUR_MS / 2,
        on_hour in any::<bool>(),
        a in 0i64..1_000,
        b in 0i64..1_000,
    ) {
        let fw = seeded(seed);
        // The watermark sits mid-hour or on an hour boundary; the window
        // starts before it (sometimes before the data) and ends after it
        // (sometimes past the data).
        let wm = if on_hour {
            (hour_of(T0 + wm_dt) + 1) * HOUR_MS
        } else {
            T0 + wm_dt
        };
        fw.note_ingest_commit(wm);
        let from = T0 - HOUR_MS / 4 + (wm - T0 + HOUR_MS / 4) * a / 1_000;
        let to = wm + 1 + 2 * HOUR_MS * b / 1_000;
        prop_assert!(from < wm && wm < to);
        for budget in BUDGETS {
            fw.columnar().set_budget(budget);
            // The second pass reads whatever the first left resident.
            for locality in [true, false] {
                fw.engine().set_locality(locality);
                check_window(&fw, from, to);
            }
        }
        if (hour_of(from) + 1) * HOUR_MS <= wm {
            let stats = fw.columnar().stats();
            prop_assert!(stats.blocks_built > 0, "closed hours built blocks");
            prop_assert!(stats.hits > 0, "the large budget served resident blocks");
        }
    }
}
