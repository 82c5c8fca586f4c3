//! Handler-invocation ingest keeps the relational `Requests` table and the
//! in-memory request archive in step.
//!
//! A `HandlerEnd` closes the newest open invocation of its (request,
//! handler): the archive finds it, and its start timestamp completes the
//! `Requests` primary key for a point update. These tests ingest
//! interleaved, nested and malformed handler events, then redaction and
//! retention, and check after every step that both views agree field by
//! field and hold the expected invocations.

use trod_db::Value;
use trod_provenance::{ProvenanceStore, RequestRecord};
use trod_trace::TraceEvent;

fn start(req: &str, handler: &str, ts: i64) -> TraceEvent {
    TraceEvent::HandlerStart {
        req_id: req.into(),
        handler: handler.into(),
        parent: None,
        args: format!("args-{req}-{ts}"),
        timestamp: ts,
    }
}

fn end(req: &str, handler: &str, output: &str, ts: i64) -> TraceEvent {
    TraceEvent::HandlerEnd {
        req_id: req.into(),
        handler: handler.into(),
        output: output.into(),
        ok: true,
        timestamp: ts,
    }
}

fn text(v: &Value) -> Option<String> {
    v.as_text().map(str::to_string)
}

/// The `Requests` rows, read back through SQL as records.
fn relational_records(store: &ProvenanceStore) -> Vec<RequestRecord> {
    let rs = store
        .query(
            "SELECT ReqId, HandlerName, Parent, Args, Output, Ok, StartTs, EndTs \
             FROM Requests",
        )
        .expect("Requests query");
    rs.rows()
        .iter()
        .map(|r| RequestRecord {
            req_id: text(&r[0]).expect("ReqId"),
            handler: text(&r[1]).expect("HandlerName"),
            parent: text(&r[2]),
            args: text(&r[3]).expect("Args"),
            output: text(&r[4]),
            ok: r[5].as_bool(),
            start_ts: r[6].as_int().expect("StartTs"),
            end_ts: r[7].as_int(),
        })
        .collect()
}

fn sorted(mut records: Vec<RequestRecord>) -> Vec<RequestRecord> {
    records.sort_by(|a, b| {
        (a.start_ts, &a.req_id, &a.handler).cmp(&(b.start_ts, &b.req_id, &b.handler))
    });
    records
}

/// One invocation as `(req_id, start_ts, end_ts, output)`.
type Inv = (String, i64, Option<i64>, Option<String>);

/// Both views agree field by field; returns them in start order.
fn agreed(store: &ProvenanceStore) -> Vec<Inv> {
    let relational = sorted(relational_records(store));
    let archive = sorted(store.all_request_records());
    assert_eq!(relational, archive, "Requests rows and archive disagree");
    archive
        .into_iter()
        .map(|r| (r.req_id, r.start_ts, r.end_ts, r.output))
        .collect()
}

fn inv(req: &str, start: i64, end: Option<i64>, out: Option<&str>) -> Inv {
    (req.to_string(), start, end, out.map(str::to_string))
}

#[test]
fn two_requests_open_at_once_close_independently() {
    let store = ProvenanceStore::new();
    store.ingest(vec![start("R1", "checkout", 1), start("R2", "checkout", 2)]);
    assert_eq!(
        agreed(&store),
        vec![inv("R1", 1, None, None), inv("R2", 2, None, None)]
    );

    // R2 ends first, then R1: each end finds its own request's row.
    store.ingest(vec![
        end("R2", "checkout", "o2", 3),
        end("R1", "checkout", "o1", 4),
    ]);
    assert_eq!(
        agreed(&store),
        vec![
            inv("R1", 1, Some(4), Some("o1")),
            inv("R2", 2, Some(3), Some("o2"))
        ]
    );
}

#[test]
fn nested_invocations_of_one_handler_close_innermost_first() {
    let store = ProvenanceStore::new();
    store.ingest(vec![
        start("R1", "h", 10),
        start("R1", "h", 11),
        end("R1", "h", "inner", 12),
    ]);
    assert_eq!(
        agreed(&store),
        vec![
            inv("R1", 10, None, None),
            inv("R1", 11, Some(12), Some("inner"))
        ]
    );
    store.ingest(vec![end("R1", "h", "outer", 13)]);
    assert_eq!(
        agreed(&store),
        vec![
            inv("R1", 10, Some(13), Some("outer")),
            inv("R1", 11, Some(12), Some("inner"))
        ]
    );
}

#[test]
fn end_without_start_and_duplicated_end_change_nothing() {
    let store = ProvenanceStore::new();
    store.ingest(vec![end("R0", "h", "orphan", 1)]);
    assert_eq!(agreed(&store), vec![]);

    store.ingest(vec![
        start("R1", "h", 2),
        end("R1", "h", "first", 3),
        end("R1", "h", "second", 4),
    ]);
    assert_eq!(agreed(&store), vec![inv("R1", 2, Some(3), Some("first"))]);
    assert_eq!(store.stats().handler_invocations, 1);
}

#[test]
fn redaction_then_ingest_keeps_both_views_equal() {
    let store = ProvenanceStore::new();
    store.ingest(vec![
        start("R1", "h", 1),
        end("R1", "h", "secret", 2),
        start("R2", "h", 3),
    ]);
    let report = store.redact_request("R1").expect("redact R1");
    assert_eq!(report.requests_redacted, 1);
    // R2 is still open while it is redacted; its end arrives afterwards.
    store.redact_request("R2").expect("redact R2");
    store.ingest(vec![end("R2", "h", "late", 4)]);

    let records = sorted(store.all_request_records());
    assert_ne!(records[0].args, "args-R1-1");
    assert_ne!(records[0].output.as_deref(), Some("secret"));
    assert_eq!(
        agreed(&store)[1],
        inv("R2", 3, Some(4), Some("late")),
        "an end ingested after redaction still closes the open row"
    );
}

#[test]
fn retention_then_ingest_keeps_both_views_equal() {
    let store = ProvenanceStore::new();
    store.ingest(vec![
        start("R1", "h", 1),
        end("R1", "h", "o1", 2),
        start("R2", "h", 3),
        start("R3", "h", 10),
    ]);
    let report = store.retain_since(5).expect("retain");
    assert_eq!(report.requests_dropped, 2);
    assert_eq!(agreed(&store), vec![inv("R3", 10, None, None)]);

    // The end of a dropped invocation finds nothing; a kept one closes.
    store.ingest(vec![end("R2", "h", "o2", 11), end("R3", "h", "o3", 12)]);
    assert_eq!(agreed(&store), vec![inv("R3", 10, Some(12), Some("o3"))]);
    assert_eq!(store.request_ids(), vec!["R3".to_string()]);
}

#[test]
fn a_start_repeated_with_the_same_key_keeps_its_first_end() {
    // Both starts share one `Requests` primary key, so the table holds one
    // row while the archive holds two records. The first end closes the
    // row; the second finds it already closed and leaves it alone.
    let store = ProvenanceStore::new();
    store.ingest(vec![
        start("R1", "h", 1),
        start("R1", "h", 1),
        end("R1", "h", "first", 2),
        end("R1", "h", "second", 3),
    ]);
    let relational = relational_records(&store);
    assert_eq!(relational.len(), 1);
    assert_eq!(relational[0].end_ts, Some(2));
    assert_eq!(relational[0].output.as_deref(), Some("first"));
    assert!(store
        .all_request_records()
        .iter()
        .all(|r| r.end_ts.is_some()));
}
