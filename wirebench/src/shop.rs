//! `shop_traffic`: production write traffic. Two keep-alive connections
//! send the shop mix as `trod_invoke` calls to a server over a durable
//! segmented WAL in `SyncMode::Flush`, in rounds of a fixed number of
//! operations on a fresh environment, so every round ends with the same
//! history size. A round's timed phase ends when the provenance store
//! holds every event the round produced.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use trod_apps::shop::{
    checkout_args, create_schema, registry, seed_inventory, CARTS_NAMESPACE, INVENTORY_TABLE,
    ORDERS_TABLE, PAYMENTS_TABLE,
};
use trod_core::json::Json;
use trod_core::Trod;
use trod_db::{Key, Predicate, SyncMode, Value, WalOptions};
use trod_kv::Session;
use trod_runtime::{Args, Runtime};
use trod_server::{ServerBuilder, ServerState};

use crate::client::{self, Conn, Reply, Request};
use crate::layers::{
    front_end_metrics, ingest_timed, IngestClock, Layers, SyncFn, TracedServer, WriteMark,
    WritePath,
};
use crate::util::{dir_bytes, mean, Rng, Scratch};
use crate::{Metrics, Outcome, Round, Run};

const CONNECTIONS: usize = 2;
const CUSTOMERS_PER_CONNECTION: usize = 16;
pub const ITEMS: usize = 64;
/// Never runs out: no checkout fails for stock.
const STOCK: i64 = 1_000_000;

/// One shop operation with the answer the generator expects.
#[derive(Clone)]
pub enum Op {
    Checkout {
        order: String,
        customer: String,
        item: String,
    },
    AddToCart {
        customer: String,
        item: String,
    },
    GetCart {
        customer: String,
        expect: Option<String>,
    },
    GetOrder {
        order: String,
        expect: String,
    },
    ListOrders {
        customer: String,
        expect: i64,
    },
}

impl Op {
    pub fn handler(&self) -> &'static str {
        match self {
            Op::Checkout { .. } => "checkout",
            Op::AddToCart { .. } => "addToCart",
            Op::GetCart { .. } => "getCart",
            Op::GetOrder { .. } => "getOrder",
            Op::ListOrders { .. } => "listOrders",
        }
    }

    pub fn args(&self) -> Args {
        match self {
            Op::Checkout {
                order,
                customer,
                item,
            } => checkout_args(order, customer, item, 1),
            Op::AddToCart { customer, item } => Args::new()
                .with("customer", customer.as_str())
                .with("item", item.as_str()),
            Op::GetCart { customer, .. } | Op::ListOrders { customer, .. } => {
                Args::new().with("customer", customer.as_str())
            }
            Op::GetOrder { order, .. } => Args::new().with("order_id", order.as_str()),
        }
    }

    /// The handler output this operation must return.
    pub fn expected(&self) -> Value {
        match self {
            Op::Checkout { order, .. } => Value::Text(order.clone()),
            Op::AddToCart { .. } => Value::Bool(true),
            Op::GetCart { expect, .. } => expect.clone().map(Value::Text).unwrap_or(Value::Null),
            Op::GetOrder { expect, .. } => Value::Text(expect.clone()),
            Op::ListOrders { expect, .. } => Value::Int(*expect),
        }
    }

    fn params(&self) -> Json {
        Json::obj(vec![
            ("handler", Json::str(self.handler())),
            ("args", trod_server::load::args_to_json(&self.args())),
        ])
    }
}

/// The generator's own bookkeeping of what a round must leave behind.
#[derive(Default)]
pub struct Expected {
    pub reserved: HashMap<String, i64>,
    checkouts: usize,
    /// customer → cart after the customer's last cart operation
    carts: HashMap<String, Option<String>>,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Checkout,
    AddToCart,
    GetCart,
    GetOrder,
    ListOrders,
}

/// The shop mix per block of 60 requests. It keeps the proportions of the
/// repository's own shop traffic (`trod_apps::workload::shop_workload`):
/// nine requests in ten are writes, one in ten reads, and every checkout
/// buys quantity 1. There the writes are all checkouts and the reads all
/// `getOrder`; here each checkout is matched by one `addToCart`, the
/// write that fills the cart a checkout empties, and the reads are split
/// evenly among `getOrder`, `getCart` and `listOrders`, so every shop
/// handler runs. Both shop workloads use this mix.
const MIX: [(Kind, usize); 5] = [
    (Kind::Checkout, 27),
    (Kind::AddToCart, 27),
    (Kind::GetOrder, 2),
    (Kind::GetCart, 2),
    (Kind::ListOrders, 2),
];

/// Requests in one block of [`MIX`].
pub const BLOCK: usize = 60;

/// `blocks` blocks of the shop mix for connection `conn`, shuffled by the
/// seed with a checkout first, over `customers` customers of its own
/// (`c{conn}-*`), so no two connections touch one customer's cart or
/// orders. Adds what the operations must leave behind to `expected`.
pub fn generate(
    seed: u64,
    conn: usize,
    customers: usize,
    blocks: usize,
    expected: &mut Expected,
) -> Vec<Op> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(conn as u64));
    let customers: Vec<String> = (0..customers).map(|i| format!("c{conn}-{i}")).collect();
    let mut carts: HashMap<String, Option<String>> =
        customers.iter().map(|c| (c.clone(), None)).collect();
    let mut order_counts: HashMap<String, i64> = HashMap::new();
    let mut orders: Vec<(String, String)> = Vec::new();
    let counts: Vec<(Kind, usize)> = MIX.iter().map(|&(k, n)| (k, n * blocks)).collect();
    let mut kinds = rng.mix(&counts);
    // getOrder reads an order this connection already created.
    let first = kinds.iter().position(|k| *k == Kind::Checkout).unwrap();
    kinds.swap(0, first);
    let mut ops = Vec::with_capacity(kinds.len());
    for (n, kind) in kinds.into_iter().enumerate() {
        let customer = customers[rng.below(customers.len())].clone();
        let item = format!("item-{}", rng.below(ITEMS));
        ops.push(match kind {
            Kind::Checkout => {
                let order = format!("o{conn}-{n}");
                *expected.reserved.entry(item.clone()).or_insert(0) += 1;
                expected.checkouts += 1;
                carts.insert(customer.clone(), None);
                *order_counts.entry(customer.clone()).or_insert(0) += 1;
                orders.push((order.clone(), format!("{customer}:{item}:confirmed")));
                Op::Checkout {
                    order,
                    customer,
                    item,
                }
            }
            Kind::AddToCart => {
                carts.insert(customer.clone(), Some(item.clone()));
                Op::AddToCart { customer, item }
            }
            Kind::GetCart => {
                let expect = carts[&customer].clone();
                Op::GetCart { customer, expect }
            }
            Kind::GetOrder => {
                let (order, expect) = orders[rng.below(orders.len())].clone();
                Op::GetOrder { order, expect }
            }
            Kind::ListOrders => {
                let expect = order_counts.get(&customer).copied().unwrap_or(0);
                Op::ListOrders { customer, expect }
            }
        });
    }
    expected.carts.extend(carts);
    ops
}

/// A fresh durable shop environment.
pub fn environment(path: &Path) -> Trod {
    let session = Session::create_durable(path, WalOptions::with_sync_mode(SyncMode::Flush))
        .expect("create durable environment");
    create_schema(session.database());
    session
        .create_namespace(CARTS_NAMESPACE)
        .expect("carts namespace");
    seed_inventory(session.database(), ITEMS, STOCK);
    let runtime = Runtime::builder(session.database().clone(), registry())
        .kv(session.kv().clone())
        .build();
    Trod::attach(runtime).expect("attach debugger")
}

/// One connection's operations encoded as `trod_invoke` requests, once
/// per run and before any clock starts.
fn encode(conn: usize, ops: &[Op]) -> Vec<Request> {
    let base = (conn as u64 + 1) * 1_000_000_000;
    ops.iter()
        .enumerate()
        .map(|(n, op)| client::encode(base + n as u64 + 1, "trod_invoke", op.params()))
        .collect()
}

/// What one connection saw: per operation, its latency, the final reply
/// body and the conflicts it retried.
#[derive(Default)]
struct ConnReport {
    latencies_us: Vec<f64>,
    bodies: Vec<Vec<u8>>,
    conflicts: Vec<u64>,
}

/// Sends one connection's requests, re-sending a request whose reply is a
/// retryable conflict (a conflicted checkout aborted in
/// `reserveInventory`, before anything committed). An operation's latency
/// is the sum of its attempts' round trips. Replies are decoded and
/// checked later, by [`tally`].
fn drive(addr: &str, requests: &[Request], layers: Option<&Layers>) -> ConnReport {
    let mut c = Conn::connect(addr);
    let mut report = ConnReport::default();
    for request in requests {
        let mut conflicts = 0;
        let mut latency = Duration::ZERO;
        let body = loop {
            let sent = Instant::now();
            let (body, elapsed) = c.round_trip(request);
            latency += elapsed;
            if let Some(layers) = layers {
                layers.span(request.id, "rpc", "client", sent, sent + elapsed);
            }
            if !client::is_retryable(&body) {
                break body;
            }
            conflicts += 1;
        };
        report.latencies_us.push(latency.as_secs_f64() * 1e6);
        report.bodies.push(body);
        report.conflicts.push(conflicts);
    }
    report
}

/// Compares the environment with the generator's counts; returns what
/// differs.
fn check(trod: &Trod, expected: &Expected, invokes: u64, attempts: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let db = trod.production_db();
    for i in 0..ITEMS {
        let item = format!("item-{i}");
        let row = db
            .get_latest(INVENTORY_TABLE, &Key::single(item.as_str()))
            .unwrap()
            .expect("seeded item");
        let want = expected.reserved.get(&item).copied().unwrap_or(0);
        if row[2].as_int() != Some(want) {
            bad.push(format!("{item}: reserved {:?}, expected {want}", row[2]));
        }
    }
    for table in [ORDERS_TABLE, PAYMENTS_TABLE] {
        let n = db.scan_latest(table, &Predicate::True).unwrap().len();
        if n != expected.checkouts {
            bad.push(format!(
                "{table}: {n} rows, expected {}",
                expected.checkouts
            ));
        }
    }
    let kv = trod.session().kv();
    for (customer, want) in &expected.carts {
        let got = kv
            .get_latest(CARTS_NAMESPACE, &format!("cart:{customer}"))
            .unwrap();
        if &got != want {
            bad.push(format!("cart of {customer}: {got:?}, expected {want:?}"));
        }
    }
    let roots: Vec<_> = trod
        .provenance()
        .all_request_records()
        .into_iter()
        .filter(|r| r.parent.is_none())
        .collect();
    let ok_roots = roots.iter().filter(|r| r.ok == Some(true)).count() as u64;
    if ok_roots != invokes || roots.len() as u64 != attempts {
        bad.push(format!(
            "provenance holds {} root requests ({ok_roots} ok), expected {attempts} ({invokes} ok)",
            roots.len()
        ));
    }
    bad
}

/// Operations per connection and round: ten blocks of the shop mix.
const BLOCKS_PER_CONNECTION: usize = 10;

/// Every connection's operations and encoded requests, and what a round
/// must leave behind.
struct Traffic {
    ops: Vec<Vec<Op>>,
    requests: Vec<Vec<Request>>,
    expected: Expected,
}

impl Traffic {
    fn new(seed: u64) -> Traffic {
        let mut expected = Expected::default();
        let ops: Vec<Vec<Op>> = (0..CONNECTIONS)
            .map(|c| {
                generate(
                    seed,
                    c,
                    CUSTOMERS_PER_CONNECTION,
                    BLOCKS_PER_CONNECTION,
                    &mut expected,
                )
            })
            .collect();
        let requests = ops.iter().enumerate().map(|(c, o)| encode(c, o)).collect();
        Traffic {
            ops,
            requests,
            expected,
        }
    }

    /// Drives every connection's requests concurrently against `addr`.
    fn drive(&self, addr: &str, layers: Option<&Arc<Layers>>) -> Vec<ConnReport> {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .requests
                .iter()
                .map(|requests| {
                    let layers = layers.cloned();
                    s.spawn(move || drive(addr, requests, layers.as_deref()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Decodes and checks every reply of a round and counts each operation
    /// in the outcome; returns (successful invokes, attempts including
    /// conflicted ones).
    fn tally(&self, reports: &[ConnReport], out: &mut Outcome) -> (u64, u64) {
        let mut invokes = 0;
        let mut attempts = 0;
        for ((report, ops), requests) in reports.iter().zip(&self.ops).zip(&self.requests) {
            for (((body, &conflicts), op), request) in report
                .bodies
                .iter()
                .zip(&report.conflicts)
                .zip(ops)
                .zip(requests)
            {
                let reply = Reply::decode(body, request.id);
                out.count(op.handler(), reply.result.is_err(), conflicts);
                invokes += reply.result.is_ok() as u64;
                attempts += 1 + conflicts;
                match reply.result {
                    Ok(result) => {
                        let want = trod_core::wire::value_to_json(&op.expected());
                        if result.get("output") != Some(&want) {
                            out.wrong.push(format!(
                                "{} returned {:?}, expected {want}",
                                op.handler(),
                                result.get("output")
                            ));
                        }
                    }
                    Err(e) => out.wrong.push(format!("{} failed: {e}", op.handler())),
                }
            }
        }
        (invokes, attempts)
    }
}

pub fn run(run: &Run) -> Outcome {
    if run.trace {
        return layer_run(run);
    }
    let scratch = Scratch::new();
    let traffic = Traffic::new(run.seed);
    let mut out = Outcome::default();
    let mut rounds = Vec::new();
    let mut disk_per_op = Vec::new();
    let begun = Instant::now();
    while out.rounds == 0 || begun.elapsed() < run.seconds {
        crate::util::probe();
        let t = Instant::now();
        let path = scratch.fresh("shop");
        let trod = environment(&path);
        let server = ServerBuilder::new(trod).serve("127.0.0.1:0").expect("bind");
        let setup = t.elapsed();

        let mut reports = Vec::new();
        let round = Round::measure(setup, || {
            reports = traffic.drive(&server.addr(), None);
            server.state().sync_provenance();
            reports
                .iter_mut()
                .flat_map(|r| std::mem::take(&mut r.latencies_us))
                .collect()
        });

        let (invokes, attempts) = traffic.tally(&reports, &mut out);
        out.wrong.extend(check(
            &server.state().trod,
            &traffic.expected,
            invokes,
            attempts,
        ));
        server.shutdown();
        disk_per_op.push(dir_bytes(&path) as f64 / invokes.max(1) as f64);
        let _ = std::fs::remove_dir_all(&path);
        rounds.push(round.close());
        out.rounds += 1;
    }
    out.note(format!("disk_bytes_per_op {:.1}", mean(&disk_per_op)));
    out.end_to_end(rounds);
    out
}

/// The layer run: each round drives the operations over the wire through
/// the traced server (front end, ingest, WAL), then once more in-process
/// straight into `Runtime::handle_request` on a fresh environment.
fn layer_run(run: &Run) -> Outcome {
    let scratch = Scratch::new();
    let layers = Layers::new();
    let traffic = Traffic::new(run.seed);
    let mut out = Outcome::default();
    let mut write_path = WritePath::default();
    let begun = Instant::now();
    while out.rounds == 0 || begun.elapsed() < run.seconds {
        // Over the wire.
        let path = scratch.fresh("shop");
        let trod = Arc::new(environment(&path));
        let mark = WriteMark::take(&trod);
        let clock = Arc::new(Mutex::new(IngestClock::default()));
        let state = Arc::new(ServerState::new(trod.clone(), HashMap::new()));
        let sync: SyncFn = {
            let (trod, clock) = (trod.clone(), clock.clone());
            Arc::new(move || ingest_timed(&trod, &clock))
        };
        let server = TracedServer::start(state, layers.clone(), sync);
        let reports = traffic.drive(&server.addr(), Some(&layers));
        ingest_timed(&trod, &clock);
        server.stop();
        let (invokes, attempts) = traffic.tally(&reports, &mut out);
        out.wrong
            .extend(check(&trod, &traffic.expected, invokes, attempts));
        write_path.add(
            &trod,
            mark,
            &clock.lock().unwrap(),
            attempts,
            invokes,
            &path,
        );
        drop(trod);
        let _ = std::fs::remove_dir_all(&path);

        // In-process: the runtime alone, with the default 25 ms sync.
        let path = scratch.fresh("shop");
        let trod = Arc::new(environment(&path));
        let stop = Arc::new(AtomicBool::new(false));
        let syncer = {
            let (trod, stop) = (trod.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(25));
                    trod.sync();
                }
            })
        };
        std::thread::scope(|s| {
            for conn_ops in &traffic.ops {
                let (trod, layers) = (&trod, &layers);
                s.spawn(move || {
                    for op in conn_ops {
                        loop {
                            let result = layers.time(0, "runtime.handle_request", "client", || {
                                trod.runtime().handle_request(op.handler(), op.args())
                            });
                            match &result.output {
                                Err(e) if e.is_retryable() => layers.count("conflicts", 1.0),
                                Ok(v) if *v == op.expected() => break,
                                other => {
                                    layers.count("wrong", 1.0);
                                    eprintln!("in-process {} returned {other:?}", op.handler());
                                    break;
                                }
                            }
                        }
                    }
                });
            }
        });
        stop.store(true, Ordering::Relaxed);
        syncer.join().unwrap();
        drop(trod);
        let _ = std::fs::remove_dir_all(&path);
        out.rounds += 1;
    }
    if layers.counted("wrong") > 0.0 {
        out.wrong.push(format!(
            "{} in-process answers differ",
            layers.counted("wrong")
        ));
    }
    let handled = layers.calls("runtime.handle_request") as f64;
    let conflicts = layers.counted("conflicts");
    let mut m: Metrics = Vec::new();
    front_end_metrics(&layers, &mut m);
    write_path.metrics(&layers, &mut m);
    m.push((
        "runtime.conflicts_per_request".into(),
        conflicts / (handled - conflicts).max(1.0),
        "count",
    ));
    out.layers = Some((layers, m));
    out
}
