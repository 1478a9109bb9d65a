//! Output checks. Each compares what the program returned with what the
//! generated inputs imply (or with the uncached reference engine) and
//! names the first mismatch.

use hpclog_core::etl::batch::ImportReport;
use jsonlite::Value as Json;
use std::collections::BTreeMap;

/// A failed check: what differed, first mismatch only.
pub type Check = Result<(), String>;

/// The import report must equal the expectation field for field.
pub fn import_report(got: &ImportReport, want: &ImportReport) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!("import report {got:?}, expected {want:?}"))
    }
}

/// Rows read back per `(type, hour)` must equal the expectation.
pub fn readback(got: &BTreeMap<(String, i64), u64>, want: &BTreeMap<(String, i64), u64>) -> Check {
    for (key, w) in want {
        let g = got.get(key).copied().unwrap_or(0);
        if g != *w {
            return Err(format!("readback {key:?}: {g} rows, expected {w}"));
        }
    }
    match got.keys().find(|k| !want.contains_key(*k)) {
        Some(key) => Err(format!("readback {key:?}: rows where none were generated")),
        None => Ok(()),
    }
}

/// True when a response is a successful v2 envelope.
pub fn envelope_ok(body: &str) -> bool {
    jsonlite::parse(body).is_ok_and(|v| v["status"].as_str() == Some("ok"))
}

fn data_of(body: &str) -> Result<String, String> {
    let v: Json = jsonlite::parse(body).map_err(|e| format!("unparseable response: {e}"))?;
    if v["status"].as_str() != Some("ok") {
        return Err(format!("non-ok response: {body}"));
    }
    Ok(v["data"].to_string())
}

/// The response's `data` must be byte-equal to the reference response's.
pub fn same_data(request: &str, got: &str, reference: &str) -> Check {
    let (g, r) = (data_of(got)?, data_of(reference)?);
    if g == r {
        Ok(())
    } else {
        Err(format!(
            "request {request}: data differs from the uncached reference\n  got       {}\n  reference {}",
            clip(&g),
            clip(&r)
        ))
    }
}

fn clip(s: &str) -> &str {
    let mut end = s.len().min(300);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Events published to the stream must all be accounted for: stored
/// (by amount, since coalescing merges duplicates), late-dropped, or
/// dead-lettered.
pub fn conservation(stored_amount: u64, late_drops: u64, dlq_events: u64, published: u64) -> Check {
    let accounted = stored_amount + late_drops + dlq_events;
    if accounted == published {
        Ok(())
    } else {
        Err(format!(
            "stream lost or invented events: stored {stored_amount} + late {late_drops} + \
             dead-lettered {dlq_events} = {accounted}, published {published}"
        ))
    }
}

/// A count the program reports must equal the generated one.
pub fn count(what: &str, got: u64, want: u64) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got}, expected {want}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{expected_import, expected_readback, explore_deck, framework, Fixture};
    use crate::spans::Recorder;
    use crate::walk::StreamFacts;
    use crate::workloads::{disable_caches, read_back, replay_ticks, stored_amount};
    use hpclog_core::etl::batch::ImportOptions;
    use hpclog_core::server::QueryEngine;
    use loggen::topology::Topology;
    use std::sync::Arc;

    fn ok_body(data: &str) -> String {
        format!(r#"{{"v":2,"status":"ok","data":{data},"trace_id":"01"}}"#)
    }

    #[test]
    fn import_check_rejects_one_count_off() {
        let want = ImportReport {
            parsed: 10,
            event_rows: 16,
            jobs: 1,
            ..Default::default()
        };
        assert!(import_report(&want, &want).is_ok());
        let off = ImportReport {
            event_rows: 15,
            ..want
        };
        assert!(import_report(&off, &want).is_err());
    }

    #[test]
    fn readback_check_rejects_a_dropped_or_invented_row() {
        let want = BTreeMap::from([(("MCE".to_owned(), 7), 3), (("MEM_ECC".to_owned(), 7), 1)]);
        assert!(readback(&want, &want).is_ok());
        let mut dropped = want.clone();
        *dropped.get_mut(&("MCE".to_owned(), 7)).unwrap() -= 1;
        assert!(readback(&dropped, &want).is_err());
        let mut missing = want.clone();
        missing.remove(&("MEM_ECC".to_owned(), 7));
        assert!(readback(&missing, &want).is_err());
        let mut extra = want.clone();
        extra.insert(("GPU_DBE".to_owned(), 8), 1);
        assert!(readback(&extra, &want).is_err());
    }

    #[test]
    fn data_check_rejects_one_value_off_and_errors() {
        let reference = ok_body(r#"{"bins":[1,2,3]}"#);
        assert!(same_data("q", &ok_body(r#"{"bins":[1,2,3]}"#), &reference).is_ok());
        assert!(same_data("q", &ok_body(r#"{"bins":[1,2,4]}"#), &reference).is_err());
        assert!(same_data("q", &ok_body(r#"{"bins":[1,2]}"#), &reference).is_err());
        let err = r#"{"v":2,"status":"error","error":{"code":"BAD_REQUEST"}}"#;
        assert!(same_data("q", err, &reference).is_err());
        assert!(same_data("q", "not json", &reference).is_err());
        assert!(envelope_ok(&reference) && !envelope_ok(err));
    }

    #[test]
    fn conservation_check_rejects_a_lost_event() {
        assert!(conservation(90, 7, 3, 100).is_ok());
        assert!(conservation(89, 7, 3, 100).is_err());
        assert!(conservation(91, 7, 3, 100).is_err());
        assert!(count("events", 4, 4).is_ok() && count("events", 4, 5).is_err());
    }

    /// Two seeds generate different corpora, and a real import of each
    /// passes both ingest checks against its own expectation.
    #[test]
    fn checks_pass_on_two_seeds_with_different_inputs() {
        let a = Fixture::generate(Topology::scaled(2, 2), 1977);
        let b = Fixture::generate(Topology::scaled(2, 2), 2024);
        assert_ne!(a.corpus, b.corpus);
        for fx in [&a, &b] {
            let fw = framework(&fx.topo, 1 << 20);
            let report = fw
                .batch_import_bytes(fx.corpus.clone(), &ImportOptions::default())
                .unwrap();
            import_report(&report, &expected_import(&fx.scenario)).unwrap();
            readback(
                &read_back(&fw, fx).unwrap(),
                &expected_readback(&fx.scenario),
            )
            .unwrap();
        }
        assert_ne!(
            expected_readback(&a.scenario),
            expected_readback(&b.scenario)
        );
    }

    /// Cached answers over closed and open hours equal the uncached
    /// reference; one value changed in an answer is caught.
    #[test]
    fn engine_answers_match_the_uncached_reference() {
        let fx = Fixture::generate(Topology::scaled(2, 2), 11);
        let fw = Arc::new(framework(&fx.topo, 1 << 20));
        fw.batch_import_bytes(fx.corpus.clone(), &ImportOptions::default())
            .unwrap();
        fw.note_ingest_commit(fx.hour(4));
        let engine = QueryEngine::new(Arc::clone(&fw));
        let deck = explore_deck(&fx, 11);
        let served: Vec<String> = deck.iter().map(|r| engine.handle(&r.body)).collect();
        disable_caches(&fw);
        let reference = QueryEngine::new(Arc::clone(&fw));
        let want: Vec<String> = deck.iter().map(|r| reference.handle(&r.body)).collect();
        for ((r, got), want) in deck.iter().zip(&served).zip(&want) {
            same_data(&r.body, got, want).unwrap();
        }
        let (i, planted) = served
            .iter()
            .enumerate()
            .find_map(|(i, b)| {
                b.contains(r#""total":"#)
                    .then(|| (i, b.replacen(r#""total":"#, r#""total":1"#, 1)))
            })
            .expect("the deck has heatmaps");
        assert!(same_data(&deck[i].body, &planted, &want[i]).is_err());
    }

    /// A real replay conserves every published event; one event short is
    /// caught.
    #[test]
    fn stream_replay_conserves_events() {
        let fx = Fixture::generate(Topology::scaled(2, 2), 7);
        let fw = framework(&fx.topo, 1 << 20);
        let lines = fx.lines_in(fx.hour(2), fx.end_ms);
        let ticks: Vec<_> = lines
            .chunk_by(|a, b| a.ts_ms.div_euclid(1000) == b.ts_ms.div_euclid(1000))
            .collect();
        let gauge = telemetry::global().gauge("etl.stream.ingest_lag");
        let mut facts = StreamFacts::default();
        let report = replay_ticks(&Recorder::new(), &fw, &ticks, &mut facts, &gauge).unwrap();
        let published = fx.events_in(fx.hour(2), fx.end_ms);
        let stored = stored_amount(&fw, fx.hour(2), fx.end_ms).unwrap();
        let (late, dlq) = (report.late_drops, report.dlq_events as u64);
        assert!(published > 0 && facts.failed == 0);
        conservation(stored, late, dlq, published).unwrap();
        assert!(conservation(stored - 1, late, dlq, published).is_err());
    }
}
