//! `wire_reads`: read-only front-end traffic. One keep-alive connection
//! sends uniform `trod_get` (latest and `as_of`) and `kv_get` calls
//! against an environment seeded at set-up, with no traced traffic, in
//! rounds of a fixed number of reads.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use trod_core::json::Json;
use trod_core::wire;
use trod_core::Trod;
use trod_db::{row, DataType, Database, Key, Row, Schema, Ts};
use trod_kv::{KvStore, Session};
use trod_runtime::{HandlerRegistry, Runtime};
use trod_server::{ServerBuilder, ServerState};

use crate::client::{self, Conn, Reply, Request};
use crate::layers::{front_end_metrics, Layers, SyncFn, TracedServer};
use crate::util::Rng;
use crate::{Metrics, Outcome, Round, Run};

const TABLE: &str = "accounts";
const NAMESPACE: &str = "profiles";
/// Rows and kv keys seeded at set-up.
const KEYS: usize = 2_000;
/// Versions written per row and per key, one commit each.
const VERSIONS: usize = 4;
/// Reads per round and kind: a third each of `trod_get` latest,
/// `trod_get` `as_of` and `kv_get`.
const READS_PER_KIND: usize = 2_500;

/// The seeded history: every version of every row and kv value, and the
/// commit timestamp of each version.
struct History {
    balances: Vec<Vec<i64>>,
    profiles: Vec<Vec<String>>,
    ts: Vec<Ts>,
}

impl History {
    fn generate(seed: u64) -> History {
        let mut rng = Rng::new(seed);
        let balances = (0..KEYS)
            .map(|_| (0..VERSIONS).map(|_| rng.below(1_000_000) as i64).collect())
            .collect();
        let profiles = (0..KEYS)
            .map(|_| {
                (0..VERSIONS)
                    .map(|_| format!("tier-{}-{:x}", rng.below(5), rng.next_u64()))
                    .collect()
            })
            .collect();
        History {
            balances,
            profiles,
            ts: Vec::new(),
        }
    }

    fn row(&self, key: usize, version: usize) -> Row {
        row![account(key), self.balances[key][version], version as i64]
    }
}

fn account(key: usize) -> String {
    format!("acct-{key:05}")
}

fn profile(key: usize) -> String {
    format!("user-{key:05}")
}

/// Seeds a fresh in-memory environment with `VERSIONS` commits, each
/// writing every row and every kv key, and records their timestamps.
fn environment(history: &mut History) -> Trod {
    let session = Session::with_kv(Database::new(), KvStore::new());
    session
        .database()
        .create_table(
            TABLE,
            Schema::builder()
                .column("id", DataType::Text)
                .column("balance", DataType::Int)
                .column("version", DataType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
    session.create_namespace(NAMESPACE).unwrap();
    history.ts.clear();
    for v in 0..VERSIONS {
        let mut txn = session.begin();
        for k in 0..KEYS {
            if v == 0 {
                txn.insert(TABLE, history.row(k, v)).unwrap();
            } else {
                let key = Key::single(account(k));
                txn.update(TABLE, &key, history.row(k, v)).unwrap();
            }
            txn.kv_put(NAMESPACE, &profile(k), &history.profiles[k][v])
                .unwrap();
        }
        history.ts.push(txn.commit().unwrap().commit_ts);
    }
    let runtime = Runtime::builder(session.database().clone(), HandlerRegistry::new())
        .kv(session.kv().clone())
        .build();
    Trod::attach(runtime).unwrap()
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Latest,
    AsOf,
    Kv,
}

struct Read {
    kind: Kind,
    key: usize,
    version: usize,
}

fn generate_reads(seed: u64) -> Vec<Read> {
    let mut rng = Rng::new(seed.wrapping_add(0x5EED));
    let kinds = rng.mix(&[
        (Kind::Latest, READS_PER_KIND),
        (Kind::AsOf, READS_PER_KIND),
        (Kind::Kv, READS_PER_KIND),
    ]);
    kinds
        .into_iter()
        .map(|kind| {
            let version = match kind {
                Kind::AsOf => rng.below(VERSIONS),
                _ => VERSIONS - 1,
            };
            Read {
                kind,
                key: rng.below(KEYS),
                version,
            }
        })
        .collect()
}

fn encode(reads: &[Read], history: &History) -> Vec<Request> {
    reads
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let id = i as u64 + 1;
            match r.kind {
                Kind::Latest | Kind::AsOf => {
                    let mut params = vec![
                        ("table", Json::str(TABLE)),
                        ("key", Json::Array(vec![Json::str(account(r.key))])),
                    ];
                    if r.kind == Kind::AsOf {
                        params.push(("as_of", Json::from(history.ts[r.version])));
                    }
                    client::encode(id, "trod_get", Json::obj(params))
                }
                Kind::Kv => client::encode(
                    id,
                    "kv_get",
                    Json::obj(vec![
                        ("namespace", Json::str(NAMESPACE)),
                        ("key", Json::str(profile(r.key))),
                    ]),
                ),
            }
        })
        .collect()
}

/// The answer the generator expects for one read.
fn expected(read: &Read, history: &History) -> Json {
    match read.kind {
        Kind::Latest | Kind::AsOf => Json::obj(vec![(
            "row",
            wire::row_to_json(&history.row(read.key, read.version)),
        )]),
        Kind::Kv => Json::obj(vec![(
            "value",
            Json::str(history.profiles[read.key][read.version].clone()),
        )]),
    }
}

/// Decodes and checks every answer of a round (outside the timed phase).
fn check(
    bodies: &[Vec<u8>],
    requests: &[Request],
    reads: &[Read],
    history: &History,
    out: &mut Outcome,
) {
    for ((body, request), read) in bodies.iter().zip(requests).zip(reads) {
        let reply = Reply::decode(body, request.id);
        let kind = match read.kind {
            Kind::Latest => "trod_get",
            Kind::AsOf => "trod_get as_of",
            Kind::Kv => "kv_get",
        };
        out.count(kind, reply.result.is_err(), 0);
        match reply.result {
            Ok(got) => {
                let want = expected(read, history);
                if got != want {
                    out.wrong.push(format!(
                        "read {} returned {got}, expected {want}",
                        request.id
                    ));
                }
            }
            Err(e) => {
                out.wrong.push(format!("read {} failed: {e}", request.id));
            }
        }
    }
}

/// Sends every request in order; returns the bodies and latencies.
fn drive(addr: &str, requests: &[Request], layers: Option<&Layers>) -> (Vec<Vec<u8>>, Vec<f64>) {
    let mut conn = Conn::connect(addr);
    let mut bodies = Vec::with_capacity(requests.len());
    let mut latencies = Vec::with_capacity(requests.len());
    for (n, request) in requests.iter().enumerate() {
        if n % 1000 == 999 {
            crate::util::probe();
        }
        let sent = Instant::now();
        let (body, elapsed) = conn.round_trip(request);
        if let Some(layers) = layers {
            layers.span(request.id, "rpc", "client", sent, sent + elapsed);
        }
        latencies.push(elapsed.as_secs_f64() * 1e6);
        bodies.push(body);
    }
    (bodies, latencies)
}

pub fn run(run: &Run) -> Outcome {
    if run.trace {
        return layer_run(run);
    }
    let mut history = History::generate(run.seed);
    let reads = generate_reads(run.seed);
    let mut out = Outcome::default();
    let mut rounds = Vec::new();
    let begun = Instant::now();
    while out.rounds == 0 || begun.elapsed() < run.seconds {
        crate::util::probe();
        let t = Instant::now();
        let trod = environment(&mut history);
        let server = ServerBuilder::new(trod).serve("127.0.0.1:0").expect("bind");
        let setup = t.elapsed();
        let requests = encode(&reads, &history);

        let mut bodies = Vec::new();
        let round = Round::measure(setup, || {
            let (b, latencies) = drive(&server.addr(), &requests, None);
            bodies = b;
            latencies
        });
        check(&bodies, &requests, &reads, &history, &mut out);
        server.shutdown();
        rounds.push(round.close());
        out.rounds += 1;
    }
    out.end_to_end(rounds);
    out
}

/// Engine calls timed in batches: one read costs about as much as
/// reading the clock, so each span covers `BATCH` calls.
const BATCH: usize = 256;

fn time_engine(trod: &Trod, reads: &[Read], history: &History, layers: &Layers) {
    let db = trod.production_db();
    let kv = trod.session().kv();
    let mut by_kind: HashMap<Kind, Vec<&Read>> = HashMap::new();
    for r in reads {
        by_kind.entry(r.kind).or_default().push(r);
    }
    for (kind, reads) in by_kind {
        for chunk in reads.chunks(BATCH) {
            let keys: Vec<(Key, String, Ts)> = chunk
                .iter()
                .map(|r| {
                    (
                        Key::single(account(r.key)),
                        profile(r.key),
                        history.ts[r.version],
                    )
                })
                .collect();
            let start = Instant::now();
            match kind {
                Kind::Latest => {
                    for (key, _, _) in &keys {
                        black_box(db.get_latest(TABLE, key).unwrap());
                    }
                }
                Kind::AsOf => {
                    for (key, _, ts) in &keys {
                        black_box(db.get_as_of(TABLE, key, *ts).unwrap());
                    }
                }
                Kind::Kv => {
                    for (_, name, _) in &keys {
                        black_box(kv.get_latest(NAMESPACE, name).unwrap());
                    }
                }
            }
            let name = match kind {
                Kind::Latest => "db.get_latest",
                Kind::AsOf => "db.get_as_of",
                Kind::Kv => "kv.get_latest",
            };
            layers.batch(name, keys.len() as u64, start, Instant::now());
        }
    }
}

fn layer_run(run: &Run) -> Outcome {
    let layers = Layers::new();
    let mut history = History::generate(run.seed);
    let reads = generate_reads(run.seed);
    let mut out = Outcome::default();
    let begun = Instant::now();
    while out.rounds == 0 || begun.elapsed() < run.seconds {
        let trod = Arc::new(environment(&mut history));
        let requests = encode(&reads, &history);
        let state = Arc::new(ServerState::new(trod.clone(), HashMap::new()));
        let sync: SyncFn = {
            let state = state.clone();
            Arc::new(move || {
                state.sync_provenance();
            })
        };
        let server = TracedServer::start(state, layers.clone(), sync);
        let (bodies, _) = drive(&server.addr(), &requests, Some(&layers));
        server.stop();
        check(&bodies, &requests, &reads, &history, &mut out);
        time_engine(&trod, &reads, &history, &layers);
        out.rounds += 1;
    }
    let mut m: Metrics = Vec::new();
    front_end_metrics(&layers, &mut m);
    for name in ["db.get_latest", "db.get_as_of", "kv.get_latest"] {
        m.push((format!("{name}_ns"), layers.mean_s(name) * 1e9, "ns"));
    }
    out.layers = Some((layers, m));
    out
}
