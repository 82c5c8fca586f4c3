//! The application workloads (shop, Moodle, MediaWiki) driven over the
//! wire: N concurrent keep-alive connections, every request a
//! `trod_invoke`. Conflict failures under contention are expected and
//! must be typed retryable; fatal failures mean a broken mapping, unless
//! they are an application error the app raises on purpose.

use trod_apps::{mediawiki, moodle, shop, workload};
use trod_core::json::Json;
use trod_core::Trod;
use trod_runtime::Runtime;
use trod_server::{drive_workload, error, Client, ServerBuilder, ServerHandle};

fn serve(trod: Trod) -> ServerHandle {
    ServerBuilder::new(trod).serve("127.0.0.1:0").expect("bind")
}

#[test]
fn shop_workload_over_the_wire() {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 10, 10_000);
    let runtime = Runtime::builder(db, shop::registry())
        .kv(shop::shop_kv())
        .build();
    let server = serve(Trod::attach(runtime).expect("attach"));

    let cfg = workload::WorkloadConfig {
        requests: 120,
        users: 10,
        items: 8,
        conflict_rate: 0.2,
        seed: 11,
    };
    let report = drive_workload(&server.addr(), workload::shop_workload(&cfg), 8).expect("drive");

    assert_eq!(report.requests, cfg.requests);
    // getOrder requests may race the checkout that creates the order —
    // those fail as application errors; checkouts only ever fail
    // retryably. A fatal failure rate above the read share means the
    // wire mapping itself is broken.
    assert!(report.ok > cfg.requests / 2, "report: {report:?}");
    assert!(
        report.fatal_failures <= cfg.requests / 10 + 1,
        "unexpected fatal failures: {report:?}"
    );

    let shutdown = server.shutdown();
    assert_eq!(shutdown.requests_served as usize, cfg.requests);
}

#[test]
fn moodle_workload_over_the_wire() {
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::builder(db, moodle::registry()).build();
    let server = serve(Trod::attach_with(runtime, provenance));

    let cfg = workload::WorkloadConfig {
        requests: 100,
        users: 12,
        items: 6,
        conflict_rate: 0.3,
        seed: 23,
    };
    let report = drive_workload(&server.addr(), workload::moodle_workload(&cfg), 8).expect("drive");

    assert_eq!(report.requests, cfg.requests);
    assert!(report.ok > cfg.requests / 2, "report: {report:?}");
    // The moodle app carries the MDL-59854 race on purpose: concurrent
    // `subscribeUser` calls can both pass the existence check and insert
    // the same (user, forum) pair, and a later `fetchSubscribers` of that
    // forum fails with a typed application error. That is the only fatal
    // failure allowed, and each one must name a forum whose duplicate
    // subscription is really in the database.
    let mut client = Client::connect(&server.addr()).expect("connect");
    for (code, message) in &report.fatal_errors {
        assert_eq!(*code, error::HANDLER, "report: {report:?}");
        let forum = message
            .strip_prefix("application error: duplicate subscribers detected for forum ")
            .unwrap_or_else(|| panic!("undocumented fatal failure {message:?}: {report:?}"));
        let rs = client
            .call(
                "trod_sql",
                Json::obj(vec![(
                    "sql",
                    Json::str(format!(
                        "SELECT user_id FROM forum_sub WHERE forum = '{forum}'"
                    )),
                )]),
            )
            .expect("sql");
        let mut users: Vec<String> = rs
            .get("rows")
            .and_then(Json::as_array)
            .expect("rows")
            .iter()
            .map(|row| {
                row.as_array().expect("row")[0]
                    .as_str()
                    .expect("user")
                    .to_string()
            })
            .collect();
        users.sort();
        assert!(
            users.windows(2).any(|w| w[0] == w[1]),
            "forum {forum} has no duplicated subscription: {users:?}"
        );
    }
    server.shutdown();
}

#[test]
fn mediawiki_workload_over_the_wire() {
    let runtime = Runtime::builder(mediawiki::mediawiki_db(), mediawiki::registry()).build();
    let server = serve(Trod::attach(runtime).expect("attach"));

    let cfg = workload::WorkloadConfig {
        requests: 100,
        users: 8,
        items: 5,
        conflict_rate: 0.25,
        seed: 31,
    };
    let mut requests = workload::mediawiki_workload(&cfg);
    // Warm up the page pool serially (as a deployment would), then race
    // the edit/read mix over the wire.
    let rest = requests.split_off(cfg.items.min(cfg.requests));
    let warmup = drive_workload(&server.addr(), requests, 1).expect("warmup");
    assert_eq!(warmup.fatal_failures, 0, "warmup: {warmup:?}");

    let report = drive_workload(&server.addr(), rest, 8).expect("drive");
    assert_eq!(report.requests + warmup.requests, cfg.requests);
    assert_eq!(report.fatal_failures, 0, "report: {report:?}");
    assert!(report.ok > 0, "report: {report:?}");
    server.shutdown();
}
