//! Faithful bug replay (paper §3.5) over the whole polyglot environment.
//!
//! Replaying a past request means re-experiencing its execution in a
//! development environment: TROD forks the *session environment* — the
//! relational database and, when the application is polyglot, the
//! key-value store, both at the same point of the aligned history — from
//! the state the request's first transaction saw, then walks the
//! request's transactions in their original order. Before each
//! transaction it *injects* the state changes made by concurrently
//! committed transactions that the original execution observed (the
//! paper's "breakpoint before the beginning of each transaction"),
//! verifies that the development environment now shows exactly the rows
//! *and key-value entries* the original transaction read (fidelity), and
//! then applies the transaction's own recorded changes — `kv:<namespace>`
//! records re-applied through the same participant commit path live
//! commits take, so the development environment's aligned log mirrors
//! production's.
//!
//! **Forking below the GC watermark.** A fork materialises live state, so
//! it is only sound at or above the database's truncation floor
//! ([`trod_db::Database::log_truncated_below`]). When the request
//! predates the floor and the aligned history was spilled to the
//! provenance store by a retention policy
//! ([`trod_db::RetentionPolicy`]; see `Trod::enable_retention`), the
//! replay transparently reconstructs the environment instead: an empty
//! fork of both stores, brought to the snapshot timestamp by replaying
//! the stitched spilled + live aligned entries. Debugging reach is then
//! bounded by retention, not by GC pressure.
//!
//! The session exposes a [`ReplaySession::step`] API so a developer (or a
//! test acting as one) can stop between transactions, inspect the
//! development environment, and see precisely which concurrent requests
//! modified the data in between — which is how the Moodle duplication
//! becomes obvious (Figure 3, top).

use std::fmt;
use std::sync::Arc;

use trod_db::{Database, DbError, KvError, TrodError, Ts, TxnId};
use trod_kv::{KvStore, Session};
use trod_provenance::ProvenanceStore;
use trod_trace::TxnTrace;

/// Errors raised while preparing or running a replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The request id does not appear in the provenance database.
    UnknownRequest(String),
    /// The request has no traced transactions to replay.
    NoTransactions(String),
    /// The request's snapshot predates the GC truncation floor and no
    /// spilled aligned history covers it (no retention policy was
    /// installed, or it was installed after the history was truncated).
    HistoryTruncated { snapshot_ts: Ts, floor: Ts },
    /// An underlying relational storage error.
    Storage(DbError),
    /// An underlying key-value storage error.
    KeyValue(KvError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownRequest(r) => write!(f, "no traced request with id `{r}`"),
            ReplayError::NoTransactions(r) => {
                write!(f, "request `{r}` has no traced transactions")
            }
            ReplayError::HistoryTruncated { snapshot_ts, floor } => write!(
                f,
                "cannot fork at ts {snapshot_ts}: history below ts {floor} was \
                 garbage-collected and no spilled aligned history covers it \
                 (enable a retention policy before truncating)"
            ),
            ReplayError::Storage(e) => write!(f, "storage error during replay: {e}"),
            ReplayError::KeyValue(e) => write!(f, "key-value error during replay: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<DbError> for ReplayError {
    fn from(e: DbError) -> Self {
        ReplayError::Storage(e)
    }
}

impl From<TrodError> for ReplayError {
    fn from(e: TrodError) -> Self {
        match e {
            TrodError::Relational(e) => ReplayError::Storage(e),
            TrodError::KeyValue(e) => ReplayError::KeyValue(e),
            TrodError::Storage(e) => ReplayError::Storage(DbError::Storage(e)),
        }
    }
}

/// A single replayed transaction with its injected dependencies.
#[derive(Debug, Clone)]
pub struct ReplayStep {
    /// The original transaction trace being replayed.
    pub txn: TxnTrace,
    /// Concurrently committed transactions (from *other* requests) whose
    /// changes must be injected before this transaction so the replayed
    /// execution sees the same state the original saw.
    pub injected: Vec<TxnTrace>,
    /// True if this step's transaction, or one of its injected
    /// dependencies, had provenance removed by a privacy-erasure request
    /// (paper §5): the replay proceeds on partial data and fidelity
    /// mismatches are expected rather than alarming.
    pub partial_data: bool,
}

/// The report produced by replaying one step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    pub txn_id: TxnId,
    pub handler: String,
    pub function: String,
    /// (txn id, request id) pairs injected before this step — the answer
    /// to "who changed the database between my transactions?".
    pub injected: Vec<(TxnId, String)>,
    /// Reads the original transaction performed — relational rows and
    /// key-value entries alike — that were verified against the
    /// development environment.
    pub reads_checked: usize,
    /// Human-readable descriptions of any fidelity mismatches.
    pub mismatches: Vec<String>,
    /// Number of CDC records applied for the transaction itself.
    pub writes_applied: usize,
    /// CDC records (of this transaction or its injected dependencies)
    /// that could not be applied: row images erased by privacy redaction,
    /// or `kv:` records when the development environment has no key-value
    /// store (a relational-only replay of a polyglot trace). Zero for
    /// polyglot requests replayed in a full session environment.
    pub writes_skipped: usize,
    /// True if the step ran on provenance that was partially redacted
    /// (privacy erasure, §5); see [`ReplayStep::partial_data`].
    pub partial_data: bool,
}

impl StepReport {
    /// True if every checked read matched the original execution.
    pub fn is_faithful(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The report for a whole replayed request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    pub req_id: String,
    pub steps: Vec<StepReport>,
}

impl ReplayReport {
    /// True if every step was faithful.
    pub fn is_faithful(&self) -> bool {
        self.steps.iter().all(StepReport::is_faithful)
    }

    /// Total injected concurrent transactions across all steps.
    pub fn injected_count(&self) -> usize {
        self.steps.iter().map(|s| s.injected.len()).sum()
    }

    /// Total records skipped across all steps (zero for a faithful
    /// polyglot replay in a full environment).
    pub fn writes_skipped(&self) -> usize {
        self.steps.iter().map(|s| s.writes_skipped).sum()
    }

    /// True if any step ran on partially redacted provenance, in which
    /// case a non-faithful replay may be the expected consequence of a
    /// privacy-erasure request rather than a bug in the application.
    pub fn has_partial_data(&self) -> bool {
        self.steps.iter().any(|s| s.partial_data)
    }
}

/// An in-progress replay of one request.
pub struct ReplaySession {
    req_id: String,
    /// The forked development environment: relational database plus — for
    /// polyglot sessions — the key-value store, forked at one timestamp.
    dev: Session,
    steps: Vec<ReplayStep>,
    position: usize,
    reports: Vec<StepReport>,
}

impl ReplaySession {
    /// Prepares a replay of `req_id` against a relational-only
    /// development database forked from `production_db`. Key-value
    /// records in the trace are skipped and counted; use
    /// [`ReplaySession::for_session`] for polyglot-complete replay.
    pub fn for_request(
        provenance: &ProvenanceStore,
        production_db: &Database,
        req_id: &str,
    ) -> Result<Self, ReplayError> {
        ReplaySession::for_session(provenance, &Session::new(production_db.clone()), req_id)
    }

    /// Prepares a replay of `req_id`: forks the development environment —
    /// both stores of `production`, at the snapshot the request's first
    /// transaction saw — and computes, for each of the request's
    /// transactions, the concurrent transactions whose changes must be
    /// injected before it. When the snapshot predates the GC truncation
    /// floor, the environment is reconstructed from spilled + live
    /// aligned history instead (see the module docs).
    pub fn for_session(
        provenance: &ProvenanceStore,
        production: &Session,
        req_id: &str,
    ) -> Result<Self, ReplayError> {
        let own_txns = provenance.txns_for_request(req_id);
        if own_txns.is_empty() {
            return if provenance.request_ids().iter().any(|r| r == req_id) {
                Err(ReplayError::NoTransactions(req_id.to_string()))
            } else {
                Err(ReplayError::UnknownRequest(req_id.to_string()))
            };
        }
        let committed: Vec<TxnTrace> = own_txns.into_iter().filter(|t| t.committed).collect();
        if committed.is_empty() {
            return Err(ReplayError::NoTransactions(req_id.to_string()));
        }

        let base_ts = committed.iter().map(|t| t.snapshot_ts).min().unwrap_or(0);
        // The development environment starts from the snapshot the
        // request began against. TROD only needs the data items the
        // replay touches; forking at a timestamp gives the same
        // observable behaviour with the simple in-memory engine.
        let dev = fork_environment(provenance, production, base_ts)?;

        let mut steps = Vec::with_capacity(committed.len());
        let mut watermark: Ts = base_ts;
        for txn in committed {
            // Under snapshot isolation and serializable every read was
            // served at the snapshot; under read committed a read can
            // observe commits up to its own recorded `read_ts`, so the
            // step's injection horizon is the latest point the
            // transaction actually observed (reenactment-style replay of
            // weak-isolation histories).
            let horizon = txn
                .reads
                .iter()
                .map(|r| r.read_ts)
                .fold(txn.snapshot_ts, Ts::max);
            let injected: Vec<TxnTrace> = provenance
                .txns_between(watermark, horizon)
                .into_iter()
                .filter(|other| other.ctx.req_id != req_id)
                .collect();
            watermark = watermark.max(horizon);
            let partial_data = provenance.is_redacted(txn.txn_id)
                || injected.iter().any(|t| provenance.is_redacted(t.txn_id));
            steps.push(ReplayStep {
                txn,
                injected,
                partial_data,
            });
        }

        Ok(ReplaySession {
            req_id: req_id.to_string(),
            dev,
            steps,
            position: 0,
            reports: Vec::new(),
        })
    }

    /// The request being replayed.
    pub fn req_id(&self) -> &str {
        &self.req_id
    }

    /// The development environment's relational database. Between steps a
    /// developer can inspect it freely (the programmatic stand-in for
    /// attaching GDB or a SQL shell during replay).
    pub fn dev_db(&self) -> &Database {
        self.dev.database()
    }

    /// The development environment's key-value store, when the replayed
    /// session is polyglot.
    pub fn dev_kv(&self) -> Option<&KvStore> {
        self.dev.kv_store()
    }

    /// The whole forked development environment.
    pub fn dev_session(&self) -> &Session {
        &self.dev
    }

    /// The planned steps (before execution).
    pub fn steps(&self) -> &[ReplayStep] {
        &self.steps
    }

    /// Number of steps already executed.
    pub fn position(&self) -> usize {
        self.position
    }

    /// True if every step has been executed.
    pub fn is_finished(&self) -> bool {
        self.position >= self.steps.len()
    }

    /// Executes the next step: injects concurrent changes, verifies the
    /// original read set (both stores) against the development
    /// environment, applies the transaction's own writes. Returns `None`
    /// when the replay is done.
    pub fn step(&mut self) -> Result<Option<StepReport>, ReplayError> {
        if self.is_finished() {
            return Ok(None);
        }
        let step = self.steps[self.position].clone();
        self.position += 1;

        // Interleave injection with the fidelity checks: before each read
        // is verified, apply the concurrent transactions that committed at
        // or below that read's recorded timestamp — no earlier (the read
        // could not have seen them removed/changed) and no later (the
        // read could not have seen them yet). Under snapshot isolation
        // and serializable every read_ts equals the snapshot and this
        // degenerates to "inject everything, then check", the original
        // behaviour; under read committed it reproduces exactly the
        // states the transaction's reads actually observed.
        let mut writes_skipped = 0usize;
        let mut injected = Vec::with_capacity(step.injected.len());
        let mut pending = step.injected.iter().peekable();
        let mut reads_checked = 0;
        let mut mismatches = Vec::new();
        for read in &step.txn.reads {
            while let Some(other) = pending.peek() {
                if other.commit_ts > read.read_ts {
                    break;
                }
                let other = pending.next().expect("peeked");
                writes_skipped +=
                    apply_tolerating_redaction(&self.dev, &other.writes, step.partial_data)?;
                injected.push((other.txn_id, other.ctx.req_id.clone()));
            }
            // Fidelity check: everything the original transaction read
            // must be present, with identical contents, in the
            // development environment. Key-value reads are verified
            // against the forked store; in a relational-only environment
            // they remain uncheckable and are left to `writes_skipped`
            // accounting.
            if let Some(namespace) = read.table.strip_prefix(trod_db::KV_TABLE_PREFIX) {
                let Some(kv) = self.dev.kv_store() else {
                    continue;
                };
                for (key, original_row) in &read.rows {
                    reads_checked += 1;
                    let Some(key_text) = trod_kv::kv_image_key(key) else {
                        mismatches.push(format!(
                            "{}: traced kv read has a non-text key {key}",
                            read.table
                        ));
                        continue;
                    };
                    let original_value = trod_kv::kv_image_value(original_row);
                    match kv.get_latest(namespace, key_text) {
                        Ok(Some(dev_value)) if Some(dev_value.as_str()) == original_value => {}
                        Ok(Some(dev_value)) => mismatches.push(format!(
                            "{}[{key_text}]: original read {} but development store has {dev_value}",
                            read.table,
                            original_value.unwrap_or("<non-text>"),
                        )),
                        Ok(None) => mismatches.push(format!(
                            "{}[{key_text}]: original read {} but key is missing in development store",
                            read.table,
                            original_value.unwrap_or("<non-text>"),
                        )),
                        Err(e) => mismatches.push(format!(
                            "{}[{key_text}]: cannot verify against development store: {e}",
                            read.table
                        )),
                    }
                }
                continue;
            }
            for (key, original_row) in &read.rows {
                reads_checked += 1;
                match self.dev_db().get_latest(&read.table, key)? {
                    Some(dev_row) if &dev_row == original_row => {}
                    Some(dev_row) => mismatches.push(format!(
                        "{}{}: original read {} but development database has {}",
                        read.table, key, original_row, dev_row
                    )),
                    None => mismatches.push(format!(
                        "{}{}: original read {} but row is missing in development database",
                        read.table, key, original_row
                    )),
                }
            }
        }
        // Inject whatever the transaction's reads never reached (e.g.
        // write-only transactions) so the development environment still
        // ends the step at the state the transaction committed against.
        for other in pending {
            writes_skipped +=
                apply_tolerating_redaction(&self.dev, &other.writes, step.partial_data)?;
            injected.push((other.txn_id, other.ctx.req_id.clone()));
        }

        let own_skipped =
            apply_tolerating_redaction(&self.dev, &step.txn.writes, step.partial_data)?;
        writes_skipped += own_skipped;

        let report = StepReport {
            txn_id: step.txn.txn_id,
            handler: step.txn.ctx.handler.clone(),
            function: step.txn.ctx.function.clone(),
            injected,
            reads_checked,
            mismatches,
            writes_applied: step.txn.writes.len() - own_skipped,
            writes_skipped,
            partial_data: step.partial_data,
        };
        self.reports.push(report.clone());
        Ok(Some(report))
    }

    /// Runs all remaining steps and returns the full report.
    pub fn run_to_end(&mut self) -> Result<ReplayReport, ReplayError> {
        while self.step()?.is_some() {}
        Ok(ReplayReport {
            req_id: self.req_id.clone(),
            steps: self.reports.clone(),
        })
    }

    /// Reports for the steps executed so far.
    pub fn reports(&self) -> &[StepReport] {
        &self.reports
    }
}

/// Forks the development environment at `ts`.
///
/// At or above the GC truncation floor this is a direct
/// [`Session::fork_at`]: both stores materialise the state visible at
/// `ts`. Below the floor the live stores can no longer answer, so the
/// environment is *reconstructed* from retained history. With a durable
/// environment checkpoint at `C <= ts`
/// ([`trod_db::SegmentedWal::load_checkpoint_at_or_before`]), the
/// reconstruction is nearest-snapshot + delta: materialise the
/// checkpoint ([`Session::from_checkpoint`]) and replay only the spilled
/// aligned entries in `(C, ts]` — cost bounded by the checkpoint
/// cadence, however deep the fork. Without one, it is the full replay:
/// an empty fork ([`Session::fork_empty`]) brought to `ts` by replaying
/// every spilled entry up to `ts`, through [`Session::apply_changes`],
/// the same injection primitive replay uses. (Entries still in the live
/// log all sit *above* the floor — truncation drains every entry at or
/// below it — so below the floor the spill plus the checkpoint is the
/// whole story.) Retroactive programming forks through here too, so
/// every debugger feature shares one retention-aware fork path.
pub(crate) fn fork_environment(
    provenance: &ProvenanceStore,
    production: &Session,
    ts: Ts,
) -> Result<Session, ReplayError> {
    let db = production.database();
    let mut floor = db.log_truncated_below();
    if ts >= floor {
        let fork = production.fork_at(ts)?;
        // Re-check the floor AFTER materialising: `gc_before` raises the
        // floor before it drops any version, so if the floor still
        // covers `ts` now, no GC took versions at `ts` out from under
        // the walk — the fork is sound. If a concurrent GC overtook us
        // the fork may be torn; discard it and reconstruct from the
        // spill instead (the floor only ever rises, so retrying the
        // direct fork could never succeed).
        floor = db.log_truncated_below();
        if ts >= floor {
            return Ok(fork);
        }
    }
    // Nearest durable checkpoint at or before `ts`, if the environment
    // is durable at all. A checkpoint that fails validation is skipped
    // (counted in the WAL stats) in favour of an older one inside
    // `load_checkpoint_at_or_before`; none at all just means full
    // replay.
    let checkpoint = match db.wal() {
        Some(wal) => wal
            .load_checkpoint_at_or_before(ts)
            .map_err(|e| ReplayError::Storage(DbError::Storage(e)))?,
        None => None,
    };
    let ckpt_ts = checkpoint.as_ref().map(|c| c.ts).unwrap_or(0);
    // The snapshot predates truncation: only the checkpoint plus spilled
    // history can cover it (the live log holds nothing at or below the
    // floor). Reconstruction is sound only when the spill (a) covers
    // everything after the checkpoint — the retention policy was
    // installed while the truncation floor was still at or below the
    // checkpoint timestamp (without a checkpoint: coverage floor 0,
    // complete from the first commit) — and (b) actually IS this
    // debugger's provenance store: a foreign policy's coverage says
    // nothing about our spill. Otherwise rebuilding would silently
    // produce a wrong fork; refuse instead. (An empty spill under a
    // sufficient coverage floor is fine: nothing had committed in the
    // window.)
    let spill_covers_delta_and_is_ours = db.retention_policy().is_some_and(|(policy, cov)| {
        cov <= ckpt_ts
            && std::ptr::addr_eq(Arc::as_ptr(&policy), provenance as *const ProvenanceStore)
    });
    if !spill_covers_delta_and_is_ours {
        return Err(ReplayError::HistoryTruncated {
            snapshot_ts: ts,
            floor,
        });
    }
    let dev = match &checkpoint {
        Some(ck) => {
            // Mirror the production environment's shape: a relational-only
            // production session gets a relational-only dev environment
            // (kv records are skipped and counted, as in the full-replay
            // path), a polyglot one gets the checkpoint's kv half too.
            let dev = if production.kv_store().is_some() {
                Session::from_checkpoint(ck)?
            } else {
                let dev_db = Database::new();
                dev_db.restore_checkpoint(ck)?;
                Session::new(dev_db)
            };
            // Commits in `(C, ts]` may touch objects created after the
            // checkpoint was taken; graft production's catalog (tables,
            // indexes, namespaces) onto the restored base, like
            // `fork_empty` copies it onto an empty one.
            augment_catalog_from(production, &dev)?;
            dev
        }
        None => production.fork_empty()?,
    };
    let kv_capable = dev.kv_store().is_some();
    // Only the delta after the checkpoint (everything at or below
    // `ckpt_ts` is already materialised by the restored snapshot);
    // without a checkpoint this is the whole spilled history up to `ts`.
    for entry in provenance.spilled_between(ckpt_ts, ts) {
        // Relational-only environments (the legacy `for_request` path)
        // cannot reconstruct kv records, exactly as a direct fork would
        // not materialise them — drop them from the base state rather
        // than failing the whole replay (the per-step skip accounting
        // covers the traced records).
        let changes: std::borrow::Cow<'_, [trod_db::ChangeRecord]> = if kv_capable {
            std::borrow::Cow::Borrowed(&entry.changes)
        } else {
            std::borrow::Cow::Owned(
                entry
                    .changes
                    .iter()
                    .filter(|c| !trod_db::is_kv_table(&c.table))
                    .cloned()
                    .collect(),
            )
        };
        if dev.apply_changes(&changes).is_err() {
            // A record in the entry cannot be re-applied — its images
            // were erased by privacy redaction after spilling. Rebuild
            // from whatever survives, record by record: below-floor
            // replays of *unrelated* requests keep working, and replays
            // that did depend on the erased rows surface the gap as
            // fidelity mismatches — the paper's §5 "debugging from
            // partial data" behaviour, same as the step-level tolerance.
            for change in changes.iter() {
                let _ = dev.apply_changes(std::slice::from_ref(change));
            }
        }
    }
    Ok(dev)
}

/// Grafts production's current catalog — tables, indexes, kv namespaces —
/// onto a dev environment restored from a checkpoint, so delta entries
/// that touch objects created after the checkpoint was taken find them.
/// State is *not* copied: the rows and values those objects held at the
/// fork timestamp arrive through the delta replay itself, exactly as in
/// the full-replay path (where `fork_empty` copies the same catalog onto
/// an empty environment).
fn augment_catalog_from(production: &Session, dev: &Session) -> Result<(), ReplayError> {
    let src = production.database();
    let dst = dev.database();
    for name in src.table_names() {
        if !dst.has_table(&name) {
            dst.create_table(name.clone(), src.schema_of(&name)?)?;
        }
        let from = src.table(&name)?;
        let to = dst.table(&name)?;
        for column in from.indexed_columns() {
            if !to.indexed_columns().contains(&column) {
                to.create_index(&column)?;
            }
        }
        for column in from.range_indexed_columns() {
            if !to.range_indexed_columns().contains(&column) {
                to.create_range_index(&column)?;
            }
        }
    }
    if let (Some(src_kv), Some(dst_kv)) = (production.kv_store(), dev.kv_store()) {
        for namespace in src_kv.namespaces() {
            if !dst_kv.has_namespace(&namespace) {
                dst_kv
                    .create_namespace(&namespace)
                    .map_err(ReplayError::KeyValue)?;
            }
        }
    }
    Ok(())
}

/// Applies CDC records to the development environment, through the
/// participant commit path for `kv:` records when the environment has a
/// key-value store. Records that cannot be applied are skipped and
/// counted instead of failing the replay:
///
/// * `kv:` records in a relational-only environment (legacy
///   [`ReplaySession::for_request`] replays);
/// * on steps that run on redacted provenance (`tolerate = true`), records
///   whose row or value images were erased — the "debugging from partial
///   data" behaviour of the paper's §5.
///
/// Returns the number of skipped records.
fn apply_tolerating_redaction(
    dev: &Session,
    writes: &[trod_db::ChangeRecord],
    tolerate: bool,
) -> Result<usize, ReplayError> {
    let kv_unapplyable = if dev.kv_store().is_some() {
        0
    } else {
        writes
            .iter()
            .filter(|c| trod_db::is_kv_table(&c.table))
            .count()
    };
    if !tolerate && kv_unapplyable == 0 {
        // The common (unredacted, fully-equipped environment) case: apply
        // the whole transaction as one aligned injection.
        dev.apply_changes(writes)?;
        return Ok(0);
    }
    let mut skipped = kv_unapplyable;
    if !tolerate {
        let applyable: Vec<_> = writes
            .iter()
            .filter(|c| !trod_db::is_kv_table(&c.table))
            .cloned()
            .collect();
        dev.apply_changes(&applyable)?;
        return Ok(skipped);
    }
    for change in writes {
        if kv_unapplyable > 0 && trod_db::is_kv_table(&change.table) {
            continue;
        }
        if dev.apply_changes(std::slice::from_ref(change)).is_err() {
            skipped += 1;
        }
    }
    Ok(skipped)
}

impl fmt::Debug for ReplaySession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplaySession")
            .field("req_id", &self.req_id)
            .field("polyglot", &self.dev.kv_store().is_some())
            .field("steps", &self.steps.len())
            .field("position", &self.position)
            .finish()
    }
}
