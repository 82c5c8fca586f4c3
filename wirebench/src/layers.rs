//! The layer run's instruments, all in the benchmark's own code: a span
//! recorder, and a traced stand-in for the server's connection loop that
//! calls the same public functions `trod-server` calls for every request
//! (`http::read_request`, `Json::parse`, `rpc::dispatch`,
//! `Json::to_string` of the envelope, `http::write_response`) and times
//! each one. Nothing here runs during an end-to-end run.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trod_core::json::Json;
use trod_core::Trod;
use trod_db::WalStats;
use trod_server::http::{self, Limits};
use trod_server::{rpc, ServerState};
use trod_trace::TraceEvent;

use crate::util::{dir_bytes, mean};
use crate::Metrics;

/// Spans kept for the trace file; the per-name totals keep counting past
/// this, so the metrics never depend on the cap.
const MAX_SPANS: usize = 100_000;

/// One timed call: which request it served (`trace`), what it timed,
/// the span that caused it, and its interval in ns since the run began.
struct Span {
    trace: u64,
    name: &'static str,
    parent: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// name → (calls, total seconds)
    totals: HashMap<&'static str, (u64, f64)>,
    /// name → count
    counts: HashMap<&'static str, f64>,
    /// name → every duration, for layers reported as a median
    samples: HashMap<&'static str, Vec<f64>>,
}

/// Spans and counts recorded at the layer boundaries.
pub struct Layers {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Layers {
    pub fn new() -> Arc<Layers> {
        Arc::new(Layers {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Records a span from `start` to `end`.
    pub fn span(
        &self,
        trace: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.record(trace, name, parent, 1, start, end);
    }

    fn record(
        &self,
        trace: u64,
        name: &'static str,
        parent: &'static str,
        calls: u64,
        start: Instant,
        end: Instant,
    ) {
        let mut inner = self.inner.lock().unwrap();
        let total = inner.totals.entry(name).or_insert((0, 0.0));
        total.0 += calls;
        total.1 += (end - start).as_secs_f64();
        if inner.spans.len() < MAX_SPANS {
            let start_ns = (start - self.epoch).as_nanos() as u64;
            let end_ns = (end - self.epoch).as_nanos() as u64;
            inner.spans.push(Span {
                trace,
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &self,
        trace: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(trace, name, parent, start, Instant::now());
        out
    }

    /// Records one span that timed `calls` calls in a row, counting each
    /// call (used where a single call costs about as much as reading the
    /// clock). The span's `trace` is the call count.
    pub fn batch(&self, name: &'static str, calls: u64, start: Instant, end: Instant) {
        self.record(calls, name, "batch", calls, start, end);
    }

    /// Keeps one duration of a layer reported as a median.
    pub fn sample(&self, name: &'static str, secs: f64) {
        self.inner
            .lock()
            .unwrap()
            .samples
            .entry(name)
            .or_default()
            .push(secs);
    }

    pub fn count(&self, name: &'static str, n: f64) {
        *self.inner.lock().unwrap().counts.entry(name).or_insert(0.0) += n;
    }

    /// Mean seconds per call of a span name (0 when never called).
    pub fn mean_s(&self, name: &str) -> f64 {
        match self.inner.lock().unwrap().totals.get(name) {
            Some(&(calls, total)) if calls > 0 => total / calls as f64,
            _ => 0.0,
        }
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .totals
            .get(name)
            .map(|t| t.0)
            .unwrap_or(0)
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.inner
            .lock()
            .unwrap()
            .counts
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Every recorded duration of a span name, in seconds.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.inner
            .lock()
            .unwrap()
            .samples
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Writes the spans as tab-separated lines
    /// `trace name parent start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let inner = self.inner.lock().unwrap();
        let mut out = String::with_capacity(inner.spans.len() * 48);
        out.push_str("trace\tname\tparent\tstart_ns\tend_ns\n");
        for s in &inner.spans {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                s.trace, s.name, s.parent, s.start_ns, s.end_ns
            ));
        }
        std::fs::write(path, out)?;
        Ok(inner.spans.len())
    }
}

/// The front-end span names, in request order.
pub const FRONT_END: [&str; 5] = [
    "http.parse",
    "json.decode",
    "rpc.dispatch",
    "json.encode",
    "http.write",
];

/// Debugger calls sync provenance before they run; the traced server
/// performs that sync itself, as its own span, so `rpc.dispatch` of
/// these calls finds no backlog left.
fn syncs_first(method: &str, params: &Json) -> bool {
    match method {
        "trod_fork" | "trod_replay" | "trod_reenact" | "trod_anomalies" | "trod_retroactive"
        | "trod_trace" | "sys_dump" => true,
        "trod_sql" => params.get("target").and_then(Json::as_str) == Some("provenance"),
        _ => false,
    }
}

/// What the traced server's background thread does every 25 ms (the
/// server's default sync interval).
pub type SyncFn = Arc<dyn Fn() + Send + Sync>;

/// A traced stand-in for `trod-server`'s thread-per-connection loop.
pub struct TracedServer {
    addr: String,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    sync: Option<JoinHandle<()>>,
}

impl TracedServer {
    pub fn start(state: Arc<ServerState>, layers: Arc<Layers>, sync: SyncFn) -> TracedServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let sync_thread = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(25));
                    sync();
                }
            })
        };
        let acceptor = {
            let stop = stop.clone();
            let workers = workers.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    let state = state.clone();
                    let layers = layers.clone();
                    let handle = std::thread::spawn(move || serve(&state, &layers, stream));
                    workers.lock().unwrap().push(handle);
                }
            })
        };
        TracedServer {
            addr,
            stop,
            acceptor: Some(acceptor),
            workers,
            sync: Some(sync_thread),
        }
    }

    pub fn addr(&self) -> String {
        self.addr.clone()
    }

    /// Stops accepting and joins every thread. Clients must have closed
    /// their connections first.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(&self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in std::mem::take(&mut *self.workers.lock().unwrap()) {
            let _ = w.join();
        }
        if let Some(s) = self.sync.take() {
            let _ = s.join();
        }
    }
}

/// Reads one request's raw bytes (head through body) off the socket:
/// the transport's share, which no layer span covers. `None` at EOF.
fn read_raw(reader: &mut BufReader<TcpStream>) -> Option<Vec<u8>> {
    let mut raw = Vec::with_capacity(512);
    let mut content_length = 0usize;
    loop {
        let start = raw.len();
        match reader.read_until(b'\n', &mut raw) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
        let line = std::str::from_utf8(&raw[start..]).ok()?.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let start = raw.len();
    raw.resize(start + content_length, 0);
    reader.read_exact(&mut raw[start..]).ok()?;
    Some(raw)
}

fn serve(state: &ServerState, layers: &Layers, stream: TcpStream) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;
    let limits = Limits::default();
    while let Some(raw) = read_raw(&mut reader) {
        let t0 = Instant::now();
        let request = http::read_request(&mut Cursor::new(&raw[..]), &limits)
            .expect("the load generator sends valid HTTP")
            .expect("a whole request");
        let t1 = Instant::now();
        let text = std::str::from_utf8(&request.body).expect("UTF-8 body");
        let doc = Json::parse(text).expect("the load generator sends valid JSON");
        let id = doc.get("id").cloned().unwrap_or(Json::Null);
        let method = doc
            .get("method")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let params = doc.get("params").cloned().unwrap_or(Json::Null);
        let t2 = Instant::now();
        let trace = id.as_u64().unwrap_or(0);
        if syncs_first(&method, &params) {
            layers.time(trace, "server.sync_provenance", "rpc", || {
                state.sync_provenance()
            });
        }
        let t3 = Instant::now();
        let result = rpc::dispatch(state, &method, &params);
        let t4 = Instant::now();
        let status = match &result {
            Ok(_) => 200,
            Err(e) => e.http_status(),
        };
        let mut fields = vec![
            ("jsonrpc".to_string(), Json::str("2.0")),
            ("id".to_string(), id),
        ];
        match result {
            Ok(value) => fields.push(("result".to_string(), value)),
            Err(e) => fields.push(("error".to_string(), e.to_json())),
        }
        let body = Json::Object(fields).to_string();
        let t5 = Instant::now();
        let mut out = Vec::with_capacity(body.len() + 128);
        http::write_response(&mut out, status, body.as_bytes(), true).expect("write to memory");
        let t6 = Instant::now();
        for (name, (a, b)) in
            FRONT_END
                .iter()
                .zip([(t0, t1), (t1, t2), (t3, t4), (t4, t5), (t5, t6)])
        {
            layers.span(trace, name, "rpc", a, b);
        }
        if writer.write_all(&out).is_err() {
            break;
        }
    }
}

/// The front-end metrics of a layer run: the mean of each layer in µs,
/// and what the client's round trip (`rpc` spans) leaves unattributed.
pub fn front_end_metrics(layers: &Layers, metrics: &mut Metrics) {
    let mut attributed = 0.0;
    let names = [
        "http.parse_us",
        "json.decode_us",
        "rpc.dispatch_us",
        "json.encode_us",
        "http.write_us",
    ];
    for (span, metric) in FRONT_END.iter().zip(names) {
        let us = layers.mean_s(span) * 1e6;
        attributed += us;
        metrics.push((metric.to_string(), us, "us"));
    }
    // Debugger calls add the sync the traced server runs before them.
    let sync_calls = layers.calls("server.sync_provenance") as f64;
    let rpc_calls = layers.calls("rpc").max(1) as f64;
    attributed += layers.mean_s("server.sync_provenance") * 1e6 * sync_calls / rpc_calls;
    let round_trip = layers.mean_s("rpc") * 1e6;
    let transport = round_trip - attributed;
    metrics.push(("transport_us".to_string(), transport, "us"));
    let share = if round_trip > 0.0 {
        100.0 * transport / round_trip
    } else {
        0.0
    };
    metrics.push(("transport_share_pct".to_string(), share, "%"));
}

/// Per-request ingest timing: the layer run's stand-in for the server's
/// background sync drains the tracer and ingests event by event, adding
/// each call's time to the request the event belongs to.
#[derive(Default)]
pub struct IngestClock {
    /// req_id → (root handler, seconds so far)
    open: HashMap<String, (String, f64)>,
    /// Seconds per request, in completion order.
    pub done: Vec<f64>,
    /// Committed transactions that wrote (the ones the WAL logs).
    pub commits: u64,
}

impl IngestClock {
    /// Mean ingest seconds per request over the first and the last tenth
    /// of the requests, in completion order.
    pub fn first_last(&self) -> (&[f64], &[f64]) {
        let tenth = (self.done.len() / 10).max(1).min(self.done.len());
        (&self.done[..tenth], &self.done[self.done.len() - tenth..])
    }
}

pub fn ingest_timed(trod: &Trod, clock: &Mutex<IngestClock>) {
    let mut clock = clock.lock().unwrap();
    let events = trod.runtime().tracer().drain();
    for event in events {
        let req = event.req_id().to_string();
        let finished = match &event {
            TraceEvent::HandlerStart {
                parent: None,
                handler,
                ..
            } => {
                clock.open.insert(req.clone(), (handler.clone(), 0.0));
                false
            }
            TraceEvent::HandlerEnd { handler, .. } => clock
                .open
                .get(&req)
                .is_some_and(|(root, _)| root == handler),
            TraceEvent::Txn(t) => {
                if t.committed && !t.writes.is_empty() {
                    clock.commits += 1;
                }
                false
            }
            _ => false,
        };
        let start = Instant::now();
        trod.provenance().ingest(vec![event]);
        let secs = start.elapsed().as_secs_f64();
        if let Some(entry) = clock.open.get_mut(&req) {
            entry.1 += secs;
        }
        if finished {
            let (_, secs) = clock.open.remove(&req).unwrap();
            clock.done.push(secs);
        }
    }
}

/// The tracer's and the WAL's counters when a round of traced requests
/// began on a fresh durable environment.
pub struct WriteMark {
    pushed: usize,
    wal: WalStats,
}

impl WriteMark {
    pub fn take(trod: &Trod) -> WriteMark {
        WriteMark {
            pushed: trod.runtime().tracer().stats().pushed,
            wal: trod.production_db().wal().expect("durable").stats(),
        }
    }
}

/// The write-path figures of a layer run, summed over its rounds: what
/// the traced requests of each round cost the tracer, provenance ingest,
/// the commit path and the WAL.
#[derive(Default)]
pub struct WritePath {
    rounds: u64,
    requests: u64,
    ops: u64,
    events: u64,
    commits: u64,
    wal_bytes: u64,
    rotations: u64,
    checkpoints: u64,
    disk_bytes: u64,
    ingest_first: Vec<f64>,
    ingest_last: Vec<f64>,
}

impl WritePath {
    /// Adds one round since `mark`: `requests` traced requests (conflicted
    /// attempts included) making `ops` operations, ingested by `clock`,
    /// with the environment's WAL directory at `dir`.
    pub fn add(
        &mut self,
        trod: &Trod,
        mark: WriteMark,
        clock: &IngestClock,
        requests: u64,
        ops: u64,
        dir: &Path,
    ) {
        let wal = trod.production_db().wal().expect("durable").stats();
        self.rounds += 1;
        self.requests += requests;
        self.ops += ops;
        self.events += (trod.runtime().tracer().stats().pushed - mark.pushed) as u64;
        self.commits += clock.commits;
        self.wal_bytes += wal.appended - mark.wal.appended;
        self.rotations += wal.rotations - mark.wal.rotations;
        self.checkpoints += wal.checkpoint_writes - mark.wal.checkpoint_writes;
        self.disk_bytes += dir_bytes(dir);
        let (first, last) = clock.first_last();
        self.ingest_first.extend_from_slice(first);
        self.ingest_last.extend_from_slice(last);
    }

    /// Pushes `runtime.handle_request_us` (from the layer spans) and the
    /// write-path metrics.
    pub fn metrics(&self, layers: &Layers, m: &mut Metrics) {
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        m.push((
            "runtime.handle_request_us".into(),
            layers.mean_s("runtime.handle_request") * 1e6,
            "us",
        ));
        m.push((
            "trace.events_per_request".into(),
            per(self.events, self.requests),
            "count",
        ));
        m.push((
            "provenance.ingest_us_first".into(),
            mean(&self.ingest_first) * 1e6,
            "us",
        ));
        m.push((
            "provenance.ingest_us_last".into(),
            mean(&self.ingest_last) * 1e6,
            "us",
        ));
        m.push((
            "db.commits_per_request".into(),
            per(self.commits, self.requests),
            "count",
        ));
        m.push((
            "wal.bytes_per_commit".into(),
            per(self.wal_bytes, self.commits),
            "B",
        ));
        m.push((
            "wal.rotations".into(),
            per(self.rotations, self.rounds),
            "count",
        ));
        m.push((
            "wal.checkpoint_writes".into(),
            per(self.checkpoints, self.rounds),
            "count",
        ));
        m.push((
            "disk_bytes_per_op".into(),
            per(self.disk_bytes, self.ops),
            "B",
        ));
    }
}
