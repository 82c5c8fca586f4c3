//! Experiment E5: provenance ingest throughput and privacy-operation cost.
//!
//! The paper's Tables 1–2 are populated by the always-on tracing pipeline:
//! trace events are flushed off the request path into the provenance
//! database. This benchmark measures (a) how fast the provenance store
//! ingests transaction traces (rows of Table 1 + Table 2 per second),
//! (b) how fast it ingests whole requests (handler start, transaction,
//! handler end), whose per-request cost must not grow with history, and
//! (c) the cost of the §5 privacy operations — redacting one user's
//! provenance and applying a retention cutoff — as the store grows.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use trod_db::{ChangeRecord, Key, Row, Value};
use trod_provenance::ProvenanceStore;
use trod_trace::{ReadTrace, TraceEvent, TxnContext, TxnTrace};

fn forum_schema() -> trod_db::Schema {
    trod_db::Schema::builder()
        .column("sub_id", trod_db::DataType::Text)
        .column("user_id", trod_db::DataType::Text)
        .column("forum", trod_db::DataType::Text)
        .primary_key(&["sub_id"])
        .build()
        .expect("static schema")
}

fn fresh_store() -> ProvenanceStore {
    let store = ProvenanceStore::new();
    store
        .register_table_as("forum_sub", "ForumEvents", &forum_schema())
        .expect("fresh store");
    store
}

/// One synthetic transaction trace (one read + one insert) of request
/// `R{i}`.
fn synthetic_trace(i: usize, timestamp: i64) -> TraceEvent {
    let user = format!("U{}", i % 500);
    let forum = format!("F{}", i % 50);
    TraceEvent::Txn(Box::new(TxnTrace {
        txn_id: i as u64 + 1,
        ctx: TxnContext::new(format!("R{i}"), "subscribeUser", "func:DB.insert"),
        timestamp,
        snapshot_ts: i as u64,
        commit_ts: i as u64 + 1,
        committed: true,
        reads: vec![ReadTrace {
            table: "forum_sub".into(),
            query: format!("Check if ({user}, {forum}) exists"),
            read_ts: i as u64,
            rows: vec![],
        }],
        writes: vec![ChangeRecord::insert(
            "forum_sub",
            Key::single(format!("S{i}")),
            Row::from(vec![
                Value::Text(format!("S{i}")),
                Value::Text(user),
                Value::Text(forum),
            ]),
        )],
    }))
}

/// Builds `n` synthetic transaction traces.
fn synthetic_traces(n: usize) -> Vec<TraceEvent> {
    (0..n).map(|i| synthetic_trace(i, i as i64 + 1)).collect()
}

/// Builds `n` request-shaped event streams, each `HandlerStart` + one
/// transaction + `HandlerEnd`, as the always-on tracer emits them.
fn synthetic_requests(n: usize) -> Vec<TraceEvent> {
    (0..n)
        .flat_map(|i| {
            let ts = 3 * i as i64;
            [
                TraceEvent::HandlerStart {
                    req_id: format!("R{i}"),
                    handler: "subscribeUser".into(),
                    parent: None,
                    args: format!("{{\"user\":\"U{}\"}}", i % 500),
                    timestamp: ts + 1,
                },
                synthetic_trace(i, ts + 2),
                TraceEvent::HandlerEnd {
                    req_id: format!("R{i}"),
                    handler: "subscribeUser".into(),
                    output: "true".into(),
                    ok: true,
                    timestamp: ts + 3,
                },
            ]
        })
        .collect()
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_ingest/transactions");
    for &batch in &[100usize, 1_000, 10_000] {
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_function(BenchmarkId::from_parameter(batch), |b| {
            b.iter_batched(
                || (fresh_store(), synthetic_traces(batch)),
                |(store, events)| {
                    store.ingest(events);
                    assert_eq!(store.txn_count(), batch);
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Ingest of whole requests: the per-request cost (time / elements)
/// must stay flat as the batch, and so the history, grows tenfold.
fn bench_ingest_requests(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_ingest/requests");
    group.sample_size(10);
    for &requests in &[1_000usize, 10_000] {
        group.throughput(Throughput::Elements(requests as u64));
        group.bench_function(BenchmarkId::from_parameter(requests), |b| {
            b.iter_batched(
                || (fresh_store(), synthetic_requests(requests)),
                |(store, events)| {
                    store.ingest(events);
                    assert_eq!(store.stats().handler_invocations, requests);
                    // Returned, so the store is dropped outside the timing.
                    store
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_redaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_ingest/redact_one_user");
    group.sample_size(20);
    for &events in &[1_000usize, 10_000] {
        group.bench_function(BenchmarkId::from_parameter(events), |b| {
            b.iter_batched(
                || {
                    let store = fresh_store();
                    store.ingest(synthetic_traces(events));
                    store
                },
                |store| {
                    // U0 owns 1/500th of all events.
                    let report = store
                        .redact_rows("forum_sub", &[("user_id", Value::Text("U0".into()))])
                        .expect("redaction");
                    assert!(report.event_rows_redacted > 0);
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_retention(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_ingest/retention_cutoff");
    group.sample_size(20);
    for &events in &[1_000usize, 10_000] {
        group.bench_function(BenchmarkId::from_parameter(events), |b| {
            b.iter_batched(
                || {
                    let store = fresh_store();
                    store.ingest(synthetic_traces(events));
                    store
                },
                |store| {
                    // Drop the oldest half of the history.
                    let report = store.retain_since(events as i64 / 2).expect("retention");
                    assert!(report.transactions_dropped > 0);
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_ingest_requests,
    bench_redaction,
    bench_retention
);
criterion_main!(benches);
