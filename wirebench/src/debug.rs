//! `debug_session`: one developer on one connection, working against a
//! fixed, traced, durable shop history. Set-up drives that history
//! in-process, forces one checkpoint half-way, and syncs provenance; no
//! other traffic runs. Each session step is three debugger actions:
//! `trod_fork` at a drawn timestamp + `fork_sql` + `fork_drop`;
//! `trod_replay` of a drawn checkout + `fork_drop` of its dev fork; and a
//! declarative `trod_sql` over provenance. Each round also reopens
//! copies of the WAL directory, as a fresh environment would.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use trod_apps::shop::{INVENTORY_TABLE, ORDERS_TABLE};
use trod_core::json::Json;
use trod_core::Trod;
use trod_db::segment::SegmentedWal;
use trod_db::{Predicate, RecoveryReport, SyncMode, TrodError, Ts, WalOptions};
use trod_kv::Session;
use trod_query::QueryEngine;
use trod_server::{ServerBuilder, ServerState};

use crate::client::{self, Conn, Reply};
use crate::layers::{
    front_end_metrics, ingest_timed, IngestClock, Layers, SyncFn, TracedServer, WriteMark,
    WritePath,
};
use crate::shop::{environment, generate, Expected, BLOCK};
use crate::util::{copy_dir, mean, median, percentile, Rng, Scratch};
use crate::{Metrics, Outcome, Round, Run};

/// The fixed history: 25 blocks of the shop mix (1,500 requests, 675
/// checkouts) over 32 customers, drawn by the same generator as
/// `shop_traffic`'s.
const HISTORY_BLOCKS: usize = 25;
const HISTORY: usize = HISTORY_BLOCKS * BLOCK;
const CUSTOMERS: usize = 32;
/// Session steps per round.
const STEPS: usize = 25;
/// WAL-directory reopenings per round.
const REOPENS: usize = 3;

const FORK_SQL: &str = "SELECT COUNT(*) AS n FROM orders";
const PROVENANCE_SQL: &str =
    "SELECT HandlerName, COUNT(*) AS n FROM Requests GROUP BY HandlerName ORDER BY HandlerName";
const CHECKOUT_STEPS: [&str; 3] = [
    "func:reserveInventory",
    "func:chargePayment",
    "func:createOrder",
];

/// What the generator knows about the history it drove.
struct History {
    /// Timestamp after each request, and the checkouts up to it.
    points: Vec<(Ts, i64)>,
    /// Request ids of the checkouts, for replay.
    checkouts: Vec<String>,
    /// Handler invocations per handler name.
    handlers: BTreeMap<String, i64>,
    reserved_total: i64,
    checkpoint_ts: Ts,
}

/// Drives the fixed history in-process, checking every answer. With
/// `layers`, each request is timed as a `runtime.handle_request` span.
fn drive_history(trod: &Trod, seed: u64, layers: Option<&Layers>, out: &mut Outcome) -> History {
    let runtime = trod.runtime();
    let mut expected = Expected::default();
    let ops = generate(seed, 0, CUSTOMERS, HISTORY_BLOCKS, &mut expected);
    let mut history = History {
        points: Vec::with_capacity(HISTORY),
        checkouts: Vec::new(),
        handlers: BTreeMap::new(),
        reserved_total: expected.reserved.values().sum(),
        checkpoint_ts: 0,
    };
    for (n, op) in ops.iter().enumerate() {
        let handler = op.handler();
        let result = match layers {
            Some(l) => l.time(0, "runtime.handle_request", "setup", || {
                runtime.handle_request(handler, op.args())
            }),
            None => runtime.handle_request(handler, op.args()),
        };
        let output = result
            .output
            .unwrap_or_else(|e| panic!("history request {handler} failed: {e}"));
        if output != op.expected() {
            out.wrong.push(format!(
                "history {handler} returned {output:?}, expected {:?}",
                op.expected()
            ));
        }
        *history.handlers.entry(handler.to_string()).or_insert(0) += 1;
        if handler == "checkout" {
            for child in CHECKOUT_STEPS {
                let name = child.trim_start_matches("func:");
                *history.handlers.entry(name.to_string()).or_insert(0) += 1;
            }
            history.checkouts.push(result.req_id);
        }
        history.points.push((
            trod.production_db().current_ts(),
            history.checkouts.len() as i64,
        ));
        if n + 1 == HISTORY / 2 {
            let (ts, _) = trod
                .checkpoint()
                .expect("checkpoint")
                .expect("a checkpoint is written");
            history.checkpoint_ts = ts;
        }
    }
    history
}

/// One drawn session step.
struct Step {
    point: usize,
    checkout: usize,
}

fn steps(seed: u64, history: &History) -> Vec<Step> {
    let mut rng = Rng::new(seed.wrapping_add(0xDEB6));
    (0..STEPS)
        .map(|_| Step {
            point: rng.below(history.points.len()),
            checkout: rng.below(history.checkouts.len()),
        })
        .collect()
}

/// Per-action round-trip times of one step, in seconds.
#[derive(Default)]
struct StepTimes {
    fork: f64,
    replay: f64,
    query: f64,
}

fn expect_ok(reply: Reply, what: &'static str, out: &mut Outcome) -> Option<Json> {
    out.count(what, reply.result.is_err(), 0);
    match reply.result {
        Ok(v) => Some(v),
        Err(e) => {
            out.wrong.push(format!("{what} failed: {e}"));
            None
        }
    }
}

/// Runs the session steps over one connection, checking every answer.
fn session(
    addr: &str,
    history: &History,
    steps: &[Step],
    out: &mut Outcome,
    layers: Option<&Layers>,
) -> Vec<StepTimes> {
    let mut conn = Conn::connect(addr);
    let mut id = 0u64;
    let mut call = |method: &str, params: Json, spent: &mut f64| {
        id += 1;
        let request = client::encode(id, method, params);
        let sent = Instant::now();
        let reply = conn.call(&request);
        if let Some(l) = layers {
            l.span(id, "rpc", "client", sent, sent + reply.elapsed);
        }
        *spent += reply.elapsed.as_secs_f64();
        reply
    };
    let expected_groups: Vec<Json> = history
        .handlers
        .iter()
        .map(|(name, n)| Json::Array(vec![Json::str(name.clone()), Json::Int(*n)]))
        .collect();
    let mut times = Vec::with_capacity(steps.len());
    for (n, step) in steps.iter().enumerate() {
        if n % 5 == 4 {
            crate::util::probe();
        }
        let mut t = StepTimes::default();
        // Fork at a past timestamp and count the orders there.
        let (ts, orders) = history.points[step.point];
        let reply = call(
            "trod_fork",
            Json::obj(vec![("ts", Json::from(ts))]),
            &mut t.fork,
        );
        if let Some(fork) = expect_ok(reply, "trod_fork", out) {
            let fork_id = fork.get("fork_id").cloned().unwrap_or(Json::Null);
            let reply = call(
                "fork_sql",
                Json::obj(vec![
                    ("fork", fork_id.clone()),
                    ("sql", Json::str(FORK_SQL)),
                ]),
                &mut t.fork,
            );
            if let Some(rs) = expect_ok(reply, "fork_sql", out) {
                let got = rs
                    .get("rows")
                    .and_then(|r| r.as_array())
                    .map(|r| r.to_vec());
                let want = [Json::Array(vec![Json::Int(orders)])];
                if got.as_deref() != Some(&want[..]) {
                    out.wrong
                        .push(format!("orders at ts {ts}: {got:?}, expected {orders}"));
                }
            }
            let reply = call("fork_drop", Json::obj(vec![("fork", fork_id)]), &mut t.fork);
            expect_ok(reply, "fork_drop", out);
        }

        // Replay a past checkout.
        let req = &history.checkouts[step.checkout];
        let reply = call(
            "trod_replay",
            Json::obj(vec![("req_id", Json::str(req.clone()))]),
            &mut t.replay,
        );
        if let Some(report) = expect_ok(reply, "trod_replay", out) {
            let functions: Vec<&str> = report
                .get("steps")
                .and_then(|s| s.as_array())
                .unwrap_or(&[])
                .iter()
                .filter_map(|s| s.get("function").and_then(Json::as_str))
                .collect();
            if report.get("faithful") != Some(&Json::Bool(true))
                || report.get("writes_skipped").and_then(Json::as_u64) != Some(0)
                || functions != CHECKOUT_STEPS
            {
                out.wrong.push(format!("replay of {req}: {report}"));
            }
            let fork_id = report.get("fork_id").cloned().unwrap_or(Json::Null);
            let reply = call(
                "fork_drop",
                Json::obj(vec![("fork", fork_id)]),
                &mut t.replay,
            );
            expect_ok(reply, "fork_drop", out);
        }

        // A declarative question over provenance.
        let reply = call(
            "trod_sql",
            Json::obj(vec![
                ("sql", Json::str(PROVENANCE_SQL)),
                ("target", Json::str("provenance")),
            ]),
            &mut t.query,
        );
        if let Some(rs) = expect_ok(reply, "trod_sql", out) {
            let got = rs
                .get("rows")
                .and_then(|r| r.as_array())
                .map(|r| r.to_vec());
            if got.as_deref() != Some(&expected_groups[..]) {
                out.wrong.push(format!(
                    "provenance counts {got:?}, expected {expected_groups:?}"
                ));
            }
        }
        times.push(t);
    }
    times
}

/// Opens a copy of the WAL directory as a fresh environment would.
fn reopen(copy: &Path) -> Result<(Session, RecoveryReport), TrodError> {
    Session::open_durable(copy, WalOptions::with_sync_mode(SyncMode::Flush))
}

/// Checks a reopened copy: it restored from the checkpoint and holds the
/// history's totals. Returns the commits recovery replayed.
fn check_reopened(
    opened: Result<(Session, RecoveryReport), TrodError>,
    history: &History,
    out: &mut Outcome,
) -> usize {
    out.count("reopen", opened.is_err(), 0);
    let (session, report) = match opened {
        Ok(ok) => ok,
        Err(e) => {
            out.wrong.push(format!("reopen failed: {e}"));
            return 0;
        }
    };
    if report.checkpoint_ts != Some(history.checkpoint_ts) {
        out.wrong.push(format!(
            "reopen restored from {:?}, expected the checkpoint at {}",
            report.checkpoint_ts, history.checkpoint_ts
        ));
    }
    let db = session.database();
    let orders = db
        .scan_latest(ORDERS_TABLE, &Predicate::True)
        .unwrap()
        .len() as i64;
    let reserved: i64 = db
        .scan_latest(INVENTORY_TABLE, &Predicate::True)
        .unwrap()
        .iter()
        .map(|(_, row)| row[2].as_int().unwrap_or(0))
        .sum();
    let want_orders = history.checkouts.len() as i64;
    if orders != want_orders || reserved != history.reserved_total {
        out.wrong.push(format!(
            "reopened copy holds {orders} orders and {reserved} reserved, expected {want_orders} and {}",
            history.reserved_total
        ));
    }
    report.commits
}

pub fn run(run: &Run) -> Outcome {
    if run.trace {
        return layer_run(run);
    }
    let scratch = Scratch::new();
    let mut out = Outcome::default();
    let mut rounds = Vec::new();
    let (mut fork, mut replay, mut query, mut recover) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let begun = Instant::now();
    while out.rounds == 0 || begun.elapsed() < run.seconds {
        crate::util::probe();
        let t = Instant::now();
        let path = scratch.fresh("debug");
        let trod = environment(&path);
        let history = drive_history(&trod, run.seed, None, &mut out);
        trod.sync();
        let copies: Vec<PathBuf> = (0..REOPENS)
            .map(|_| {
                let copy = scratch.fresh("copy");
                copy_dir(&path, &copy);
                copy
            })
            .collect();
        let server = ServerBuilder::new(trod).serve("127.0.0.1:0").expect("bind");
        let setup = t.elapsed();
        let steps = steps(run.seed, &history);

        // The timed phase is the session and then the reopenings; the
        // latencies are the session steps'.
        let mut reopened = Vec::with_capacity(REOPENS);
        let round = Round::measure(setup, || {
            let times = session(&server.addr(), &history, &steps, &mut out, None);
            for copy in &copies {
                let start = Instant::now();
                reopened.push(reopen(copy));
                recover.push(start.elapsed().as_secs_f64() * 1e3);
            }
            times
                .iter()
                .map(|t| {
                    fork.push(t.fork * 1e3);
                    replay.push(t.replay * 1e3);
                    query.push(t.query * 1e3);
                    (t.fork + t.replay + t.query) * 1e6
                })
                .collect()
        });
        server.shutdown();
        for opened in reopened {
            check_reopened(opened, &history, &mut out);
        }
        for copy in copies {
            let _ = std::fs::remove_dir_all(copy);
        }
        let _ = std::fs::remove_dir_all(&path);
        rounds.push(round.close());
        out.rounds += 1;
    }
    out.note(format!(
        "fork p50 {:.3} ms p90 {:.3} ms; replay p50 {:.3} ms p90 {:.3} ms; query p50 {:.3} ms; recover {:.3} ms",
        median(&mut fork),
        percentile(&mut fork, 0.9),
        median(&mut replay),
        percentile(&mut replay, 0.9),
        median(&mut query),
        median(&mut recover),
    ));
    out.end_to_end(rounds);
    out
}

/// The in-process calls behind one step, each timed on its own.
fn time_step(trod: &Trod, history: &History, step: &Step, layers: &Layers) {
    let (ts, _) = history.points[step.point];
    let fork = layers.time(0, "core.fork_at", "step", || trod.fork_at(ts).unwrap());
    black_box(layers.time(0, "kv.session_fork_at", "step", || {
        trod.session().fork_at(ts).unwrap()
    }));
    black_box(layers.time(0, "db.fork_at", "step", || {
        trod.production_db().fork_at(ts).unwrap()
    }));
    let engine = QueryEngine::new(fork.database().clone());
    black_box(layers.time(0, "query.fork_sql", "step", || {
        engine.execute(FORK_SQL).unwrap()
    }));

    let req = &history.checkouts[step.checkout];
    let mut replay = layers.time(0, "core.replay_open", "step", || trod.replay(req).unwrap());
    black_box(layers.time(0, "core.replay_run", "step", || {
        replay.run_to_end().unwrap()
    }));
    let provenance = trod.provenance();
    black_box(layers.time(0, "provenance.request_ids", "step", || {
        provenance.request_ids()
    }));
    black_box(layers.time(0, "provenance.txns_for_request", "step", || {
        provenance.txns_for_request(req)
    }));
    black_box(layers.time(0, "query.provenance_sql", "step", || {
        provenance.query(PROVENANCE_SQL).unwrap()
    }));
}

fn layer_run(run: &Run) -> Outcome {
    let scratch = Scratch::new();
    let layers = Layers::new();
    let mut out = Outcome::default();
    let mut write_path = WritePath::default();
    let mut commits_replayed = Vec::new();
    let begun = Instant::now();
    while out.rounds == 0 || begun.elapsed() < run.seconds {
        let path = scratch.fresh("debug");
        let trod = Arc::new(environment(&path));
        let mark = WriteMark::take(&trod);
        let history = drive_history(&trod, run.seed, Some(&layers), &mut out);
        let clock = Mutex::new(IngestClock::default());
        ingest_timed(&trod, &clock);
        let requests = HISTORY as u64;
        write_path.add(
            &trod,
            mark,
            &clock.into_inner().unwrap(),
            requests,
            requests,
            &path,
        );

        let state = Arc::new(ServerState::new(trod.clone(), HashMap::new()));
        let sync: SyncFn = {
            let state = state.clone();
            Arc::new(move || {
                state.sync_provenance();
            })
        };
        let steps = steps(run.seed, &history);
        let server = TracedServer::start(state, layers.clone(), sync);
        let times = session(&server.addr(), &history, &steps, &mut out, Some(&layers));
        server.stop();
        for t in times {
            layers.sample("session.fork", t.fork);
            layers.sample("session.replay", t.replay);
            layers.sample("session.query", t.query);
        }
        for step in &steps {
            time_step(&trod, &history, step, &layers);
        }
        drop(trod);

        for _ in 0..REOPENS {
            let (a, b) = (scratch.fresh("copy"), scratch.fresh("copy"));
            copy_dir(&path, &a);
            copy_dir(&path, &b);
            let opts = WalOptions::with_sync_mode(SyncMode::Flush);
            layers.time(0, "segment.open", "reopen", || {
                black_box(SegmentedWal::open_path(&a, opts).unwrap())
            });
            let start = Instant::now();
            let opened = reopen(&b);
            layers.sample("session.recover", start.elapsed().as_secs_f64());
            commits_replayed.push(check_reopened(opened, &history, &mut out) as f64);
            let _ = std::fs::remove_dir_all(&a);
            let _ = std::fs::remove_dir_all(&b);
        }
        let _ = std::fs::remove_dir_all(&path);
        out.rounds += 1;
    }
    let ms = |name: &str| layers.mean_s(name) * 1e3;
    let mut m: Metrics = Vec::new();
    front_end_metrics(&layers, &mut m);
    write_path.metrics(&layers, &mut m);
    for name in [
        "core.fork_at",
        "kv.session_fork_at",
        "db.fork_at",
        "query.fork_sql",
        "core.replay_open",
        "provenance.request_ids",
        "provenance.txns_for_request",
        "core.replay_run",
        "server.sync_provenance",
        "query.provenance_sql",
        "segment.open",
    ] {
        m.push((format!("{name}_ms"), ms(name), "ms"));
    }
    let mut recover = layers.samples("session.recover");
    let recover_ms = mean(&recover) * 1e3;
    m.push((
        "recovery.apply_ms".into(),
        recover_ms - ms("segment.open"),
        "ms",
    ));
    m.push((
        "recovery.commits_replayed".into(),
        mean(&commits_replayed),
        "count",
    ));
    for (name, tail) in [("fork", true), ("replay", true), ("query", false)] {
        let mut s: Vec<f64> = layers
            .samples(&format!("session.{name}"))
            .iter()
            .map(|x| x * 1e3)
            .collect();
        m.push((format!("session.{name}_p50_ms"), median(&mut s), "ms"));
        if tail {
            m.push((
                format!("session.{name}_p90_ms"),
                percentile(&mut s, 0.9),
                "ms",
            ));
        }
    }
    m.push((
        "session.recover_ms".into(),
        median(&mut recover) * 1e3,
        "ms",
    ));
    out.layers = Some((layers, m));
    out
}
