//! The campaign event layer: observe a detection session while it runs.
//!
//! Everything a session, its driver, a daemon coordinator or a flight
//! recorder has to say is one [`CampaignEvent`] value, delivered to a
//! [`CampaignObserver`] through its single method, `on_event`. The enum is
//! the whole vocabulary — each variant's doc says when it is emitted — and
//! it is also what gets persisted: its [`Persist`] impl is the payload of a
//! telemetry journal record and of the daemon's `Result` / `Event` wire
//! frames, so what an observer sees is exactly what a journal reloads.
//!
//! The vocabulary is declared once, as a table: each row gives a variant's
//! persist tag, its journal name, whether it is deterministic, and its
//! fields in order. The enum, [`CampaignEvent::name`],
//! [`CampaignEvent::is_deterministic`], the [`Persist`] codec and the field
//! walk a journal's JSON lines are written from
//! ([`CampaignEvent::for_each_field`]) are generated from that table. How a
//! field is written — its bytes and its JSON keys — is chosen by its type,
//! not by its variant.
//!
//! Events are emitted on the session's coordinating thread, in
//! deterministic order, and observers never affect campaign results. Two
//! groups are *operational* rather than part of the deterministic stream
//! ([`CampaignEvent::is_deterministic`]): the daemon's worker / shard
//! lifecycle with its [`Forwarded`](CampaignEvent::Forwarded) live copies,
//! and a recorder's own [`JournalFlushed`](CampaignEvent::JournalFlushed).
//! Neither feeds campaign-total counters, so forwarding can never
//! double-count.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use csnake_inject::{FaultId, TestId};

use crate::beam::Cycle;
use crate::cluster::ClusterStats;
use crate::edge::{CausalEdge, EdgeKind};
use crate::error::{CsnakeError, Result};
use crate::fca::ExperimentOutcome;
use crate::session::Stage;
use crate::snapshot::{Persist, Reader, Writer};
use crate::workload::WorkloadSummary;

/// Declares [`CampaignEvent`] from its table and generates everything keyed
/// by the vocabulary: `name`, `is_deterministic`, `for_each_field` and the
/// [`Persist`] impl.
///
/// A row is `tag "name" deterministic|operational`, then the variant's doc
/// and `Variant { field: Type, … }`, or `Variant(field: Type)` for a tuple
/// variant, whose one field is keyed `field` in JSON. The row's field order
/// is the format: `put` writes, `load` reads and `for_each_field` visits in
/// it, each field through its type's [`EventField`]. `load` builds each
/// variant's literal and `put` matches each variant's fields without `..`,
/// so a field left out of a row does not compile.
macro_rules! campaign_events {
    (@det deterministic) => { true };
    (@det operational) => { false };
    // A tuple row: its one field is member `0`.
    (@row $head:tt [$($done:tt)*]
        $tag:tt $name:tt $det:ident $(#[$doc:meta])* $variant:ident($field:ident: $t:ty),
        $($rest:tt)*
    ) => {
        campaign_events!(@row $head [$($done)*
            [$(#[$doc])* $variant($t)] $tag $name $det $variant { 0 $field: $t }
        ] $($rest)*);
    };
    (@row $head:tt [$($done:tt)*]
        $tag:tt $name:tt $det:ident $(#[$doc:meta])* $variant:ident {
            $($(#[$fdoc:meta])* $field:ident: $t:ty),* $(,)?
        },
        $($rest:tt)*
    ) => {
        campaign_events!(@row $head [$($done)*
            [$(#[$doc])* $variant { $($(#[$fdoc])* $field: $t),* }]
            $tag $name $det $variant { $($field $field: $t),* }
        ] $($rest)*);
    };
    // Every row normalised: `[declaration] tag name det Variant { member binding: Type, … }`.
    (@row [$(#[$meta:meta])* $vis:vis $ty:ident] [$(
        [$($decl:tt)*] $tag:tt $name:tt $det:ident $variant:ident { $($member:tt $field:ident: $t:ty),* }
    )*]) => {
        $(#[$meta])*
        $vis enum $ty {
            $($($decl)*,)*
        }

        impl $ty {
            /// The event's `event` discriminator in JSON output. A forwarded
            /// copy is named after what it carries.
            #[allow(unused_variables)]
            pub fn name(&self) -> &'static str {
                match self {
                    $($ty::$variant { $($member: $field),* } => $name,)*
                }
            }

            /// Whether the event belongs to the *deterministic* campaign
            /// stream: same target / config / seed ⇒ same sequence of
            /// deterministic events, in the same order, regardless of thread
            /// counts or fleet size.
            ///
            /// Operational events (worker lifecycle, shard leases, forwarded
            /// copies, retries under chaos, checkpoint cadence, journal
            /// flushes) depend on scheduling and topology and are excluded;
            /// the determinism tests compare only the deterministic subset.
            pub fn is_deterministic(&self) -> bool {
                match self {
                    $($ty::$variant { .. } => campaign_events!(@det $det),)*
                }
            }

            /// Hands the event's fields to `visit` in journal order, as the
            /// keys and values of its JSONL line after the envelope. A
            /// forwarded copy is its `worker` followed by the fields of what
            /// it carries.
            pub fn for_each_field(&self, visit: &mut dyn FnMut(&'static str, FieldValue<'_>)) {
                match self {
                    $($ty::$variant { $($member: $field),* } => {
                        $(EventField::visit($field, stringify!($field), visit);)*
                    })*
                }
            }

            /// Decodes the fields of the variant `tag` names.
            fn load_variant(tag: u8, r: &mut Reader<'_>) -> Result<Self> {
                Ok(match tag {
                    $($tag => $ty::$variant { $($member: EventField::decode(r)?),* },)*
                    n => {
                        return Err(CsnakeError::SnapshotCorrupt(format!(
                            "bad campaign event tag {n}"
                        )))
                    }
                })
            }
        }

        /// The one encoding of the vocabulary: journal record payloads and
        /// the daemon's wire frames both go through it. A `u8` tag, then the
        /// row's fields in order.
        impl Persist for $ty {
            fn put(&self, w: &mut Writer) {
                match self {
                    $($ty::$variant { $($member: $field),* } => {
                        <u8 as Persist>::put(&$tag, w);
                        $(EventField::encode($field, w);)*
                    })*
                }
            }

            fn load(r: &mut Reader<'_>) -> Result<Self> {
                Self::load_variant(u8::load(r)?, r)
            }
        }
    };
    ($(#[$meta:meta])* $vis:vis enum $ty:ident { $($rows:tt)* }) => {
        campaign_events!(@row [$(#[$meta])* $vis $ty] [] $($rows)*);
    };
}

/// Persist tag of [`CampaignEvent::Forwarded`], the one event a forwarded
/// copy may not carry.
const FORWARDED: u8 = 18;

campaign_events! {
    /// One thing that happened in a campaign: the unit every observer
    /// receives and every journal stores.
    ///
    /// Events are owned summaries — ids and counts, never borrowed outcomes —
    /// so they can be cloned into a journal, sent over the daemon's wire and
    /// compared in tests. Paths are carried as display strings for the same
    /// reason.
    ///
    /// Persist tags are stable and append-only: 19–21 were the per-kind
    /// forwarded records of journal version 1 and stay retired.
    #[derive(Debug, Clone, PartialEq)]
    pub enum CampaignEvent {
        0 "stage_started" deterministic
        /// A session stage began (opens a span).
        StageStarted(stage: Stage),
        1 "stage_finished" deterministic
        /// A session stage ended (closes the matching span).
        StageFinished(stage: Stage),
        2 "phase_started" deterministic
        /// An allocation phase is about to execute its planned batch (opens
        /// a span).
        PhaseStarted {
            /// Strategy phase label (3PA: 1–3; baselines: 0).
            phase: u8,
            /// Experiments planned for the batch.
            planned: usize,
        },
        3 "phase_finished" deterministic
        /// An allocation phase executed its batch (closes the matching span).
        PhaseFinished {
            /// Strategy phase label.
            phase: u8,
            /// Experiments that actually ran.
            executed: usize,
        },
        4 "experiment_completed" deterministic
        /// One `(fault, test)` experiment completed fault-causality analysis.
        /// A daemon worker also originates this kind, once per experiment of
        /// a finished shard (see [`Forwarded`](CampaignEvent::Forwarded)).
        ExperimentCompleted {
            /// The injected fault.
            fault: FaultId,
            /// The workload the fault was injected into.
            test: TestId,
            /// Interference-list size.
            interference: usize,
            /// Causal edges the experiment's FCA produced (before
            /// deduplication against the campaign database).
            edges: usize,
        },
        5 "edge_emitted" deterministic
        /// A *new* causal edge entered the database (sweep repeats are
        /// deduplicated first).
        EdgeEmitted {
            /// Cause fault.
            cause: FaultId,
            /// Effect fault.
            effect: FaultId,
            /// Edge kind.
            kind: EdgeKind,
            /// Workload the edge was observed in.
            test: TestId,
            /// 3PA phase of discovery.
            phase: u8,
        },
        6 "cycle_found" deterministic
        /// The stitcher reported a deduplicated cycle.
        CycleFound {
            /// Edge count of the cycle.
            edges: usize,
            /// Chain score.
            score: f64,
        },
        7 "budget_spent" deterministic
        /// The allocation strategy's budget counters moved.
        BudgetSpent {
            /// Budget spent so far.
            spent: usize,
            /// Total budget.
            total: usize,
        },
        8 "trace_cache" deterministic
        /// The driver's injection-run cache counters
        /// ([`DriverConfig::cache_injections`](crate::driver::DriverConfig::cache_injections)),
        /// emitted when an allocation stage finishes; both stay zero while
        /// the cache is disabled. A daemon worker originates its own
        /// cumulative counters with each finished shard (last value wins).
        TraceCache {
            /// Experiments that reused a recorded run set.
            hits: usize,
            /// Experiments that simulated and indexed one.
            misses: usize,
        },
        9 "clustering" deterministic
        /// The phase-one clustering ran (§5.2); emitted once per allocation
        /// stage, after the cluster cut, with the sparse-run size counters.
        Clustering(stats: ClusterStats),
        10 "batch_retried" operational
        /// The retry supervisor quarantined panicked / stalled jobs of an
        /// experiment batch and scheduled a retry. The backoff paces
        /// wall-clock execution only; it never enters campaign results.
        BatchRetried {
            /// Batch ordinal. In the deterministic stream it is assigned by
            /// whoever merges (the driver, or the daemon coordinator in shard
            /// order); inside a [`Forwarded`](CampaignEvent::Forwarded) copy
            /// it is the worker's own counter.
            batch: usize,
            /// Jobs that failed and were re-queued.
            failed_jobs: usize,
            /// Retry attempt (1-based).
            attempt: u32,
            /// Backoff pause before the retry.
            backoff_ms: u64,
        },
        11 "batch_failed" operational
        /// A `(fault, test)` cell exhausted its retry budget and was recorded
        /// as a gap. The campaign continues degraded — see
        /// [`Degraded`](CampaignEvent::Degraded).
        BatchFailed {
            /// Batch ordinal (numbered like [`BatchRetried`](CampaignEvent::BatchRetried)).
            batch: usize,
            /// The abandoned cell's fault.
            fault: FaultId,
            /// The abandoned cell's test.
            test: TestId,
            /// The abandoned cell's 3PA phase.
            phase: u8,
            /// Final panic message.
            reason: String,
        },
        12 "checkpoint_written" operational
        /// A mid-phase checkpoint reached disk: emitted *after* the atomic
        /// temp-file + rename completed, so the file at `path` is a complete,
        /// resumable snapshot by the time an observer sees the event.
        CheckpointWritten {
            /// Checkpoint file path.
            path: String,
            /// Allocation phase of the checkpoint.
            phase: u8,
            /// Experiments of that phase the checkpoint covers.
            executed_in_phase: usize,
        },
        13 "degraded" deterministic
        /// The campaign completed with permanently failed cells. Emitted at
        /// most once, while the report stage assembles the annotated partial
        /// [`DetectionReport`](crate::DetectionReport), which enumerates them.
        Degraded {
            /// Number of `(fault, test, phase)` cells without an outcome.
            missing: usize,
        },
        14 "worker_connected" operational
        /// A daemon worker completed its handshake and is ready for shards.
        /// Worker membership never influences campaign results.
        WorkerConnected {
            /// Worker id.
            worker: u32,
        },
        15 "worker_lost" operational
        /// A daemon worker's lease expired (stalled heartbeat) or its
        /// connection dropped; its unacknowledged shard will be reassigned.
        WorkerLost {
            /// Worker id.
            worker: u32,
            /// Loss reason.
            reason: String,
        },
        16 "shard_assigned" operational
        /// The daemon coordinator leased a shard to a worker.
        ShardAssigned {
            /// Shard ordinal.
            shard: u32,
            /// Worker id.
            worker: u32,
            /// Experiments in the shard.
            jobs: usize,
        },
        17 "shard_reassigned" operational
        /// The daemon coordinator moved a shard off a lost worker.
        /// Reassignment replays the identical jobs, so results are
        /// unaffected.
        ShardReassigned {
            /// Shard ordinal.
            shard: u32,
            /// New worker id.
            worker: u32,
            /// Reassignment attempt (1-based).
            attempt: u32,
        },
        FORWARDED { forwarded_name(event) } operational
        /// The daemon coordinator relayed an event a worker originated, as it
        /// happened on the fleet. The deterministic stream reports the same
        /// work at shard-merge time — which lags the fleet by up to one
        /// in-flight shard per worker — so a forwarded copy is for per-worker
        /// attribution and liveness only: fold it into campaign totals and
        /// you double-count. A worker may originate only
        /// [`ExperimentCompleted`](CampaignEvent::ExperimentCompleted),
        /// [`BatchRetried`](CampaignEvent::BatchRetried),
        /// [`BatchFailed`](CampaignEvent::BatchFailed) and
        /// [`TraceCache`](CampaignEvent::TraceCache); the coordinator drops
        /// anything else, and a `Forwarded` inside a `Forwarded` does not
        /// decode.
        Forwarded {
            /// The worker the event came from.
            worker: u32,
            /// What it reported.
            event: Box<CampaignEvent>,
        },
        22 "journal_flushed" operational
        /// A telemetry flight recorder flushed its journal to disk. Emitted
        /// by the recorder itself (not the session), after the bytes reached
        /// the file.
        JournalFlushed {
            /// Journal path.
            path: String,
            /// Records flushed.
            records: usize,
        },
        23 "workload_summary" deterministic
        /// An open-loop workload run's latency summary was drained from the
        /// target: emitted by the [`Driver`](crate::Driver) after each
        /// experiment batch, in deterministic `(test, seed)` order. Telemetry
        /// only — summaries never feed FCA or campaign results.
        WorkloadSummary {
            /// Workload the summary belongs to.
            test: TestId,
            /// Seed of the run.
            seed: u64,
            /// Requests the arrival source offered.
            offered: u64,
            /// Requests that completed within their deadline.
            completed: u64,
            /// Requests shed or timed out.
            dropped: u64,
            /// Whole-run median latency, µs.
            p50_us: u64,
            /// Whole-run p99 latency, µs.
            p99_us: u64,
            /// Start of the first latency window whose p99 inflected
            /// ([`WorkloadSummary::p99_inflection_milli`]), ms — the cascade
            /// onset signal — or `None` when latency stayed flat.
            inflection_ms: Option<u64>,
        },
    }
}

/// A forwarded copy's name: `forwarded_` and the kind it carries.
fn forwarded_name(event: &CampaignEvent) -> &'static str {
    match event {
        CampaignEvent::ExperimentCompleted { .. } => "forwarded_experiment",
        CampaignEvent::BatchRetried { .. } => "forwarded_retry",
        CampaignEvent::BatchFailed { .. } => "forwarded_failure",
        CampaignEvent::TraceCache { .. } => "forwarded_cache",
        _ => "forwarded",
    }
}

/// One event field as a journal's JSON line shows it; see
/// [`CampaignEvent::for_each_field`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// An id, count, tag or duration.
    Uint(u64),
    /// A score.
    Float(f64),
    /// A path, reason or stage name.
    Str(&'a str),
    /// An absent optional.
    Null,
}

type Visit<'v> = dyn FnMut(&'static str, FieldValue<'_>) + 'v;

/// How a field of one type travels in a [`CampaignEvent`]: its bytes and its
/// JSON keys. Most types are their own [`Persist`] encoding under the
/// field's key; the impls below that are not say why.
trait EventField: Sized {
    fn encode(&self, w: &mut Writer);
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
    /// Hands the field to `visit` under `key`, the field's name in the
    /// table.
    fn visit(&self, key: &'static str, visit: &mut Visit<'_>);
}

macro_rules! plain_event_fields {
    ($($t:ty => |$v:ident| $value:expr),* $(,)?) => {$(
        impl EventField for $t {
            fn encode(&self, w: &mut Writer) {
                Persist::put(self, w);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Persist::load(r)
            }
            fn visit(&self, key: &'static str, visit: &mut Visit<'_>) {
                let $v = self;
                visit(key, $value);
            }
        }
    )*};
}

plain_event_fields! {
    u8 => |v| FieldValue::Uint(u64::from(*v)),
    u32 => |v| FieldValue::Uint(u64::from(*v)),
    u64 => |v| FieldValue::Uint(*v),
    usize => |v| FieldValue::Uint(*v as u64),
    f64 => |v| FieldValue::Float(*v),
    String => |v| FieldValue::Str(v),
    EdgeKind => |v| FieldValue::Uint(*v as u64),
    Option<u64> => |v| v.map_or(FieldValue::Null, FieldValue::Uint),
}

/// Ids are fixed-width `u32`s here, as journals always wrote them, not the
/// varints of their own [`Persist`] impls.
macro_rules! fixed_width_id_fields {
    ($($id:ident),*) => {$(
        impl EventField for $id {
            fn encode(&self, w: &mut Writer) {
                self.0.put(w);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok($id(u32::load(r)?))
            }
            fn visit(&self, key: &'static str, visit: &mut Visit<'_>) {
                visit(key, FieldValue::Uint(u64::from(self.0)));
            }
        }
    )*};
}

fixed_width_id_fields!(FaultId, TestId);

/// Journal tag of a session stage. Distinct from the snapshot's
/// `Stage::tag`, which collapses `Stitched` and `Reported` because a
/// snapshot never stores a report; the journal keeps them apart (0–4)
/// because their spans are distinct.
fn stage_tag(stage: Stage) -> u8 {
    match stage {
        Stage::Built => 0,
        Stage::Profiled => 1,
        Stage::Allocated => 2,
        Stage::Stitched => 3,
        Stage::Reported => 4,
    }
}

/// A stage's name in JSON output and span names.
fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Built => "built",
        Stage::Profiled => "profiled",
        Stage::Allocated => "allocated",
        Stage::Stitched => "stitched",
        Stage::Reported => "reported",
    }
}

/// A stage displays as its journal name (`built` … `reported`).
impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(stage_name(*self))
    }
}

/// A stage travels as its journal tag ([`stage_tag`]) and shows its name.
impl EventField for Stage {
    fn encode(&self, w: &mut Writer) {
        stage_tag(*self).put(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match u8::load(r)? {
            0 => Stage::Built,
            1 => Stage::Profiled,
            2 => Stage::Allocated,
            3 => Stage::Stitched,
            4 => Stage::Reported,
            n => {
                return Err(CsnakeError::SnapshotCorrupt(format!(
                    "bad journal stage tag {n}"
                )))
            }
        })
    }
    fn visit(&self, key: &'static str, visit: &mut Visit<'_>) {
        visit(key, FieldValue::Str(stage_name(*self)));
    }
}

crate::persist_struct!(ClusterStats {
    vectors,
    groups,
    candidate_edges,
    merges,
    hot_dims,
    hot_pairs,
    matrix_bytes,
    sparse_graph_bytes
});

/// All eight counters in the binary record, in the order declared above;
/// the JSONL line carries the four a reader of the line asks about, under
/// their own keys.
impl EventField for ClusterStats {
    fn encode(&self, w: &mut Writer) {
        Persist::put(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Persist::load(r)
    }
    fn visit(&self, _key: &'static str, visit: &mut Visit<'_>) {
        visit("vectors", FieldValue::Uint(self.vectors as u64));
        visit("groups", FieldValue::Uint(self.groups as u64));
        visit(
            "candidate_edges",
            FieldValue::Uint(self.candidate_edges as u64),
        );
        visit("merges", FieldValue::Uint(self.merges as u64));
    }
}

/// A forwarded copy's payload: the event's own bytes and fields, except
/// that a `Forwarded` inside a `Forwarded` does not decode, so hostile
/// bytes cannot choose the recursion depth.
impl EventField for Box<CampaignEvent> {
    fn encode(&self, w: &mut Writer) {
        Persist::put(&**self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match u8::load(r)? {
            FORWARDED => Err(CsnakeError::SnapshotCorrupt(
                "forwarded event nested inside a forwarded event".into(),
            )),
            tag => CampaignEvent::load_variant(tag, r).map(Box::new),
        }
    }
    fn visit(&self, _key: &'static str, visit: &mut Visit<'_>) {
        self.for_each_field(visit);
    }
}

impl CampaignEvent {
    /// Summary of a finished experiment.
    pub fn experiment_completed(outcome: &ExperimentOutcome) -> Self {
        CampaignEvent::ExperimentCompleted {
            fault: outcome.fault,
            test: outcome.test,
            interference: outcome.interference.len(),
            edges: outcome.edges.len(),
        }
    }

    /// Summary of an edge accepted into the database.
    pub(crate) fn edge_emitted(edge: &CausalEdge) -> Self {
        CampaignEvent::EdgeEmitted {
            cause: edge.cause,
            effect: edge.effect,
            kind: edge.kind,
            test: edge.test,
            phase: edge.phase,
        }
    }

    /// Summary of a reported cycle.
    pub(crate) fn cycle_found(cycle: &Cycle) -> Self {
        CampaignEvent::CycleFound {
            edges: cycle.edges.len(),
            score: cycle.score,
        }
    }

    /// Summary of a drained workload run.
    pub(crate) fn workload_summary(summary: &WorkloadSummary) -> Self {
        CampaignEvent::WorkloadSummary {
            test: summary.test,
            seed: summary.seed,
            offered: summary.offered,
            completed: summary.completed,
            dropped: summary.dropped,
            p50_us: summary.p50_us,
            p99_us: summary.p99_us,
            inflection_ms: summary.p99_inflection_milli(),
        }
    }
}

/// Receives [`CampaignEvent`]s from a running detection session.
///
/// Implementations `match` on the variants they care about and ignore the
/// rest. They must be `Send + Sync`: the session itself calls `on_event`
/// from one thread at a time, but sessions (and their observers) may be
/// driven from worker threads.
pub trait CampaignObserver: Send + Sync {
    /// One event happened.
    fn on_event(&self, event: &CampaignEvent);
}

/// Fans every event out to a list of observers, in order.
///
/// Sessions accept exactly one observer; campaigns that want both the
/// counting [`ProgressCollector`] and a telemetry recorder (or any other
/// combination) wrap them in a fanout:
///
/// ```
/// use std::sync::Arc;
/// use csnake_core::{CampaignEvent, CampaignObserver, FanoutObserver, ProgressCollector};
///
/// let progress = Arc::new(ProgressCollector::new());
/// let observer: Arc<dyn CampaignObserver> =
///     Arc::new(FanoutObserver::new(vec![progress.clone()]));
/// observer.on_event(&CampaignEvent::BudgetSpent { spent: 1, total: 8 });
/// assert_eq!(progress.snapshot().budget_spent, 1);
/// ```
#[derive(Default)]
pub struct FanoutObserver {
    sinks: Vec<Arc<dyn CampaignObserver>>,
}

impl FanoutObserver {
    /// A fanout over `sinks`; events are delivered in vector order.
    pub fn new(sinks: Vec<Arc<dyn CampaignObserver>>) -> Self {
        FanoutObserver { sinks }
    }

    /// Appends another sink.
    pub fn push(&mut self, sink: Arc<dyn CampaignObserver>) {
        self.sinks.push(sink);
    }
}

impl CampaignObserver for FanoutObserver {
    fn on_event(&self, event: &CampaignEvent) {
        for sink in &self.sinks {
            sink.on_event(event);
        }
    }
}

/// The default observer: ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl CampaignObserver for NoopObserver {
    fn on_event(&self, _event: &CampaignEvent) {}
}

/// Monotonic counters of campaign progress, filled in by a
/// [`ProgressCollector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Stages finished so far.
    pub stages_finished: usize,
    /// Allocation phases finished so far.
    pub phases_finished: usize,
    /// Experiments completed.
    pub experiments: usize,
    /// Causal edges accepted into the database.
    pub edges: usize,
    /// Cycles reported by the stitcher.
    pub cycles: usize,
    /// Budget spent (last seen value).
    pub budget_spent: usize,
    /// Total budget (last seen value).
    pub budget_total: usize,
    /// Injection-run cache hits (last seen value).
    pub trace_cache_hits: usize,
    /// Injection-run cache misses (last seen value).
    pub trace_cache_misses: usize,
    /// Largest vector count any clustering run saw.
    pub clustering_peak_vectors: usize,
    /// Peak `8·n²` bytes a dense distance matrix would have needed
    /// (what the sparse formulation avoids allocating).
    pub clustering_peak_matrix_bytes: u64,
    /// Peak sparse-graph working-set bytes actually implied by the run
    /// counts (see [`crate::ClusterStats::sparse_graph_bytes`]).
    pub clustering_peak_sparse_bytes: u64,
    /// Open-loop workload summaries drained from the target.
    pub workload_summaries: usize,
    /// Requests those workload runs completed, in total.
    pub workload_completed: u64,
    /// Worst whole-run p99 latency any workload summary reported, µs.
    pub workload_peak_p99_us: u64,
    /// Workload runs whose windowed p99 showed an inflection
    /// ([`WorkloadSummary::p99_inflection_milli`]).
    pub workload_inflections: usize,
    /// Retry rounds the supervisor scheduled.
    pub batch_retries: usize,
    /// `(fault, test)` cells that exhausted retries and became gaps.
    pub batch_failures: usize,
    /// Mid-phase checkpoints written to disk.
    pub checkpoints_written: usize,
    /// Whether a degraded completion was reported.
    pub degraded: bool,
    /// Daemon workers that completed their handshake.
    pub workers_connected: usize,
    /// Daemon workers lost to lease expiry or dropped connections.
    pub workers_lost: usize,
    /// Shards the daemon coordinator assigned (first leases only).
    pub shards_assigned: usize,
    /// Shards moved off dead workers.
    pub shards_reassigned: usize,
    /// Worker-side events relayed live by the daemon coordinator.
    pub events_forwarded: usize,
    /// Telemetry journal flushes reported by a flight recorder.
    pub journal_flushes: usize,
}

/// Per-worker live state accumulated by a [`ProgressCollector`] from the
/// daemon lifecycle and [`CampaignEvent::Forwarded`] streams. Operational telemetry
/// only — none of it feeds campaign results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerProgress {
    /// Whether the worker currently holds a live connection.
    pub connected: bool,
    /// Why the worker was lost, when it was (`None` while live).
    pub lost_reason: Option<String>,
    /// Shards ever leased to this worker (first leases + reassignments).
    pub shards_assigned: usize,
    /// The shard ordinal the worker was most recently leased.
    pub current_shard: Option<u32>,
    /// Experiments the worker has reported via forwarded events.
    pub experiments: usize,
    /// Causal edges the worker's experiments produced (pre-dedup).
    pub edges: usize,
    /// Retry rounds the worker's supervisor reported.
    pub retries: usize,
    /// Cells the worker abandoned as gaps.
    pub failures: usize,
    /// Last-seen injection-cache hit counter from the worker.
    pub cache_hits: usize,
    /// Last-seen injection-cache miss counter from the worker.
    pub cache_misses: usize,
}

/// The bundled metrics observer: counts events with atomics so a monitoring
/// thread can poll [`ProgressCollector::snapshot`] while the campaign runs.
#[derive(Debug, Default)]
pub struct ProgressCollector {
    stages_finished: AtomicUsize,
    phases_finished: AtomicUsize,
    experiments: AtomicUsize,
    edges: AtomicUsize,
    cycles: AtomicUsize,
    /// Budget `spent`/`total` packed into one word (`total` in the high 32
    /// bits, `spent` in the low 32) so a polling thread can never observe
    /// a torn pair — the two values always come from the same
    /// [`CampaignEvent::BudgetSpent`] event.
    budget: AtomicU64,
    trace_cache_hits: AtomicUsize,
    trace_cache_misses: AtomicUsize,
    clustering_peak_vectors: AtomicUsize,
    clustering_peak_matrix_bytes: AtomicU64,
    clustering_peak_sparse_bytes: AtomicU64,
    workload_summaries: AtomicUsize,
    workload_completed: AtomicU64,
    workload_peak_p99_us: AtomicU64,
    workload_inflections: AtomicUsize,
    batch_retries: AtomicUsize,
    batch_failures: AtomicUsize,
    checkpoints_written: AtomicUsize,
    degraded: AtomicBool,
    workers_connected: AtomicUsize,
    workers_lost: AtomicUsize,
    shards_assigned: AtomicUsize,
    shards_reassigned: AtomicUsize,
    events_forwarded: AtomicUsize,
    journal_flushes: AtomicUsize,
    /// Per-worker attribution (forwarded events, lease state, loss
    /// reasons). A mutex, not atomics: observer calls may block briefly,
    /// they just must never perturb campaign results.
    workers: Mutex<BTreeMap<u32, WorkerProgress>>,
    /// Reason string of the most recent [`CampaignEvent::WorkerLost`].
    last_loss_reason: Mutex<Option<String>>,
}

/// Packs a budget pair into one `u64` word (`total` high, `spent` low).
fn pack_budget(spent: usize, total: usize) -> u64 {
    let spent = u64::try_from(spent)
        .unwrap_or(u64::MAX)
        .min(u32::MAX as u64);
    let total = u64::try_from(total)
        .unwrap_or(u64::MAX)
        .min(u32::MAX as u64);
    (total << 32) | spent
}

impl ProgressCollector {
    /// A fresh collector with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reason of the most recent [`CampaignEvent::WorkerLost`], if any
    /// worker has been lost.
    pub fn last_loss_reason(&self) -> Option<String> {
        self.last_loss_reason
            .lock()
            .expect("loss reason poisoned")
            .clone()
    }

    /// Per-worker live state (sorted by worker id), accumulated from the
    /// daemon lifecycle events and forwarded worker events.
    pub fn worker_progress(&self) -> Vec<(u32, WorkerProgress)> {
        self.workers
            .lock()
            .expect("worker table poisoned")
            .iter()
            .map(|(&w, p)| (w, p.clone()))
            .collect()
    }

    fn with_worker(&self, worker: u32, f: impl FnOnce(&mut WorkerProgress)) {
        let mut table = self.workers.lock().expect("worker table poisoned");
        f(table.entry(worker).or_default());
    }

    fn leased(&self, worker: u32, shard: u32) {
        self.with_worker(worker, |p| {
            p.shards_assigned += 1;
            p.current_shard = Some(shard);
        });
    }

    /// Current counter values.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let budget = self.budget.load(Ordering::Relaxed);
        ProgressSnapshot {
            stages_finished: self.stages_finished.load(Ordering::Relaxed),
            phases_finished: self.phases_finished.load(Ordering::Relaxed),
            experiments: self.experiments.load(Ordering::Relaxed),
            edges: self.edges.load(Ordering::Relaxed),
            cycles: self.cycles.load(Ordering::Relaxed),
            budget_spent: (budget & u32::MAX as u64) as usize,
            budget_total: (budget >> 32) as usize,
            trace_cache_hits: self.trace_cache_hits.load(Ordering::Relaxed),
            trace_cache_misses: self.trace_cache_misses.load(Ordering::Relaxed),
            clustering_peak_vectors: self.clustering_peak_vectors.load(Ordering::Relaxed),
            clustering_peak_matrix_bytes: self.clustering_peak_matrix_bytes.load(Ordering::Relaxed),
            clustering_peak_sparse_bytes: self.clustering_peak_sparse_bytes.load(Ordering::Relaxed),
            workload_summaries: self.workload_summaries.load(Ordering::Relaxed),
            workload_completed: self.workload_completed.load(Ordering::Relaxed),
            workload_peak_p99_us: self.workload_peak_p99_us.load(Ordering::Relaxed),
            workload_inflections: self.workload_inflections.load(Ordering::Relaxed),
            batch_retries: self.batch_retries.load(Ordering::Relaxed),
            batch_failures: self.batch_failures.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            workers_connected: self.workers_connected.load(Ordering::Relaxed),
            workers_lost: self.workers_lost.load(Ordering::Relaxed),
            shards_assigned: self.shards_assigned.load(Ordering::Relaxed),
            shards_reassigned: self.shards_reassigned.load(Ordering::Relaxed),
            events_forwarded: self.events_forwarded.load(Ordering::Relaxed),
            journal_flushes: self.journal_flushes.load(Ordering::Relaxed),
        }
    }
}

impl CampaignObserver for ProgressCollector {
    fn on_event(&self, event: &CampaignEvent) {
        let bump = |counter: &AtomicUsize| {
            counter.fetch_add(1, Ordering::Relaxed);
        };
        match event {
            CampaignEvent::StageStarted(_) | CampaignEvent::PhaseStarted { .. } => {}
            CampaignEvent::StageFinished(_) => bump(&self.stages_finished),
            CampaignEvent::PhaseFinished { .. } => bump(&self.phases_finished),
            CampaignEvent::ExperimentCompleted { .. } => bump(&self.experiments),
            CampaignEvent::EdgeEmitted { .. } => bump(&self.edges),
            CampaignEvent::CycleFound { .. } => bump(&self.cycles),
            CampaignEvent::BudgetSpent { spent, total } => {
                // One store for the pair: a concurrent snapshot() sees
                // either the previous pair or this one, never a mix.
                self.budget
                    .store(pack_budget(*spent, *total), Ordering::Relaxed);
            }
            CampaignEvent::TraceCache { hits, misses } => {
                self.trace_cache_hits.store(*hits, Ordering::Relaxed);
                self.trace_cache_misses.store(*misses, Ordering::Relaxed);
            }
            CampaignEvent::Clustering(stats) => {
                self.clustering_peak_vectors
                    .fetch_max(stats.vectors, Ordering::Relaxed);
                self.clustering_peak_matrix_bytes
                    .fetch_max(stats.matrix_bytes, Ordering::Relaxed);
                self.clustering_peak_sparse_bytes
                    .fetch_max(stats.sparse_graph_bytes, Ordering::Relaxed);
            }
            CampaignEvent::WorkloadSummary {
                completed,
                p99_us,
                inflection_ms,
                ..
            } => {
                bump(&self.workload_summaries);
                self.workload_completed
                    .fetch_add(*completed, Ordering::Relaxed);
                self.workload_peak_p99_us
                    .fetch_max(*p99_us, Ordering::Relaxed);
                if inflection_ms.is_some() {
                    bump(&self.workload_inflections);
                }
            }
            CampaignEvent::BatchRetried { .. } => bump(&self.batch_retries),
            CampaignEvent::BatchFailed { .. } => bump(&self.batch_failures),
            CampaignEvent::CheckpointWritten { .. } => bump(&self.checkpoints_written),
            CampaignEvent::Degraded { .. } => self.degraded.store(true, Ordering::Relaxed),
            CampaignEvent::WorkerConnected { worker } => {
                bump(&self.workers_connected);
                self.with_worker(*worker, |p| {
                    p.connected = true;
                    p.lost_reason = None;
                });
            }
            CampaignEvent::WorkerLost { worker, reason } => {
                bump(&self.workers_lost);
                *self.last_loss_reason.lock().expect("loss reason poisoned") = Some(reason.clone());
                self.with_worker(*worker, |p| {
                    p.connected = false;
                    p.lost_reason = Some(reason.clone());
                    p.current_shard = None;
                });
            }
            CampaignEvent::ShardAssigned { shard, worker, .. } => {
                bump(&self.shards_assigned);
                self.leased(*worker, *shard);
            }
            CampaignEvent::ShardReassigned { shard, worker, .. } => {
                bump(&self.shards_reassigned);
                self.leased(*worker, *shard);
            }
            // Attribution only: the deterministic stream reports the same
            // work at merge time, so nothing here touches a campaign total.
            CampaignEvent::Forwarded { worker, event } => {
                bump(&self.events_forwarded);
                self.with_worker(*worker, |p| match **event {
                    CampaignEvent::ExperimentCompleted { edges, .. } => {
                        p.experiments += 1;
                        p.edges += edges;
                    }
                    CampaignEvent::BatchRetried { .. } => p.retries += 1,
                    CampaignEvent::BatchFailed { .. } => p.failures += 1,
                    CampaignEvent::TraceCache { hits, misses } => {
                        p.cache_hits = hits;
                        p.cache_misses = misses;
                    }
                    _ => {}
                });
            }
            CampaignEvent::JournalFlushed { .. } => bump(&self.journal_flushes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative value per event kind — the four forwardable
    /// kinds also wrapped in `Forwarded` — in persist-tag order. Tests of
    /// anything keyed by the vocabulary (codecs, JSON, fan-out, counters)
    /// iterate this instead of enumerating the enum again.
    fn samples() -> Vec<CampaignEvent> {
        use CampaignEvent::*;
        // Wildcard-free on purpose: a new variant fails to compile here
        // until it has been given a sample below.
        fn has_a_sample(event: &CampaignEvent) {
            match event {
                StageStarted(_) | StageFinished(_) | PhaseStarted { .. } => {}
                PhaseFinished { .. } | ExperimentCompleted { .. } | EdgeEmitted { .. } => {}
                CycleFound { .. } | BudgetSpent { .. } | TraceCache { .. } | Clustering(_) => {}
                BatchRetried { .. } | BatchFailed { .. } | CheckpointWritten { .. } => {}
                Degraded { .. } | WorkerConnected { .. } | WorkerLost { .. } => {}
                ShardAssigned { .. } | ShardReassigned { .. } | Forwarded { .. } => {}
                JournalFlushed { .. } | WorkloadSummary { .. } => {}
            }
        }
        let (fault, test) = (FaultId(7), TestId(2));
        let experiment = ExperimentCompleted {
            fault,
            test,
            interference: 3,
            edges: 5,
        };
        let cache = TraceCache {
            hits: 40,
            misses: 9,
        };
        let retried = BatchRetried {
            batch: 6,
            failed_jobs: 2,
            attempt: 1,
            backoff_ms: 10,
        };
        let failed = BatchFailed {
            batch: 6,
            fault,
            test,
            phase: 3,
            reason: "chaos: \"boom\"\n".into(),
        };
        let forwarded = |event: &CampaignEvent| Forwarded {
            worker: 1,
            event: Box::new(event.clone()),
        };
        let all = vec![
            StageStarted(Stage::Profiled),
            StageFinished(Stage::Reported),
            PhaseStarted {
                phase: 1,
                planned: 12,
            },
            PhaseFinished {
                phase: 2,
                executed: 11,
            },
            experiment.clone(),
            EdgeEmitted {
                cause: fault,
                effect: FaultId(9),
                kind: EdgeKind::EI,
                test,
                phase: 1,
            },
            CycleFound {
                edges: 4,
                score: 0.25,
            },
            BudgetSpent {
                spent: 17,
                total: 64,
            },
            cache.clone(),
            Clustering(ClusterStats {
                vectors: 120,
                groups: 80,
                candidate_edges: 300,
                hot_dims: 2,
                hot_pairs: 14,
                merges: 21,
                matrix_bytes: 115_200,
                sparse_graph_bytes: 15_680,
            }),
            retried.clone(),
            failed.clone(),
            CheckpointWritten {
                path: "/tmp/c.csnake".into(),
                phase: 2,
                executed_in_phase: 8,
            },
            Degraded { missing: 3 },
            WorkerConnected { worker: 1 },
            WorkerLost {
                worker: 1,
                reason: "lease expired".into(),
            },
            ShardAssigned {
                shard: 14,
                worker: 0,
                jobs: 2,
            },
            ShardReassigned {
                shard: 14,
                worker: 1,
                attempt: 1,
            },
            forwarded(&experiment),
            forwarded(&retried),
            forwarded(&failed),
            forwarded(&cache),
            JournalFlushed {
                path: "/tmp/j.jsonl".into(),
                records: 99,
            },
            WorkloadSummary {
                test: TestId(1),
                seed: 42,
                offered: 6_000,
                completed: 5_900,
                dropped: 100,
                p50_us: 300,
                p99_us: 41_000,
                inflection_ms: Some(4_250),
            },
        ];
        all.iter().for_each(has_a_sample);
        all
    }

    fn feed(c: &ProgressCollector, events: &[CampaignEvent]) {
        for e in events {
            c.on_event(e);
        }
    }

    fn edge() -> CampaignEvent {
        CampaignEvent::EdgeEmitted {
            cause: FaultId(1),
            effect: FaultId(2),
            kind: EdgeKind::EI,
            test: TestId(0),
            phase: 1,
        }
    }

    fn workload(p99_us: u64, completed: u64, inflection_ms: Option<u64>) -> CampaignEvent {
        CampaignEvent::WorkloadSummary {
            test: TestId(0),
            seed: 1,
            offered: 50,
            completed,
            dropped: 0,
            p50_us: 100,
            p99_us,
            inflection_ms,
        }
    }

    #[test]
    fn samples_name_every_kind_once() {
        let samples = samples();
        let names: std::collections::BTreeSet<&str> = samples.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), samples.len(), "two samples share a name");
        assert_eq!(samples.len(), 24);
        assert!(
            !names.contains("forwarded"),
            "a sample forwards a kind no worker originates"
        );
    }

    #[test]
    fn every_sample_roundtrips_exactly() {
        for event in samples() {
            let mut w = Writer::new();
            event.put(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = CampaignEvent::load(&mut r).expect("sample decodes");
            assert!(r.finished(), "{}: trailing bytes", event.name());
            assert_eq!(back, event);
        }
    }

    #[test]
    fn a_forwarded_inside_a_forwarded_does_not_decode() {
        let inner = CampaignEvent::Forwarded {
            worker: 1,
            event: Box::new(CampaignEvent::TraceCache { hits: 1, misses: 2 }),
        };
        let nested = CampaignEvent::Forwarded {
            worker: 2,
            event: Box::new(inner),
        };
        let mut w = Writer::new();
        nested.put(&mut w);
        let bytes = w.into_bytes();
        match CampaignEvent::load(&mut Reader::new(&bytes)) {
            Err(CsnakeError::SnapshotCorrupt(msg)) => assert!(msg.contains("nested"), "{msg}"),
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
        // Retired and unknown tags are corrupt too, not silently skipped.
        for tag in [19u8, 20, 21, 24, 255] {
            let mut r = Reader::new(std::slice::from_ref(&tag));
            assert!(matches!(
                CampaignEvent::load(&mut r),
                Err(CsnakeError::SnapshotCorrupt(_))
            ));
        }
    }

    #[test]
    fn noop_observer_accepts_everything() {
        for event in samples() {
            NoopObserver.on_event(&event);
        }
    }

    /// Records what it is handed, tagged with who it is.
    struct Tap(u8, Arc<Mutex<Vec<(u8, CampaignEvent)>>>);

    impl CampaignObserver for Tap {
        fn on_event(&self, event: &CampaignEvent) {
            self.1.lock().expect("tap").push((self.0, event.clone()));
        }
    }

    #[test]
    fn fanout_delivers_every_event_to_every_sink() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut fan = FanoutObserver::new(vec![Arc::new(Tap(0, seen.clone()))]);
        fan.push(Arc::new(Tap(1, seen.clone())));
        let samples = samples();
        for event in &samples {
            fan.on_event(event);
        }
        let want: Vec<(u8, CampaignEvent)> = samples
            .iter()
            .flat_map(|e| [(0, e.clone()), (1, e.clone())])
            .collect();
        assert_eq!(*seen.lock().expect("tap"), want);
    }

    #[test]
    fn forwarded_events_attribute_per_worker_without_touching_totals() {
        let c = ProgressCollector::new();
        let forwarded: Vec<CampaignEvent> = samples()
            .into_iter()
            .filter(|e| matches!(e, CampaignEvent::Forwarded { .. }))
            .collect();
        assert_eq!(forwarded.len(), 4);
        feed(&c, &forwarded);
        // Forwarding is attribution, not accounting: only its own counter
        // and the per-worker view move.
        assert_eq!(
            c.snapshot(),
            ProgressSnapshot {
                events_forwarded: 4,
                ..ProgressSnapshot::default()
            }
        );
        let workers = c.worker_progress();
        assert_eq!(workers.len(), 1);
        let (id, w1) = &workers[0];
        assert_eq!(*id, 1);
        assert_eq!((w1.experiments, w1.edges), (1, 5));
        assert_eq!((w1.retries, w1.failures), (1, 1));
        assert_eq!((w1.cache_hits, w1.cache_misses), (40, 9));
    }

    #[test]
    fn progress_collector_counts_events() {
        let c = ProgressCollector::new();
        feed(
            &c,
            &[
                CampaignEvent::StageFinished(Stage::Profiled),
                CampaignEvent::PhaseFinished {
                    phase: 1,
                    executed: 3,
                },
                CampaignEvent::PhaseFinished {
                    phase: 2,
                    executed: 4,
                },
            ],
        );
        feed(&c, &vec![edge(); 5]);
        feed(
            &c,
            &[
                CampaignEvent::CycleFound {
                    edges: 1,
                    score: 0.5,
                },
                CampaignEvent::BudgetSpent {
                    spent: 7,
                    total: 24,
                },
            ],
        );
        let s = c.snapshot();
        assert_eq!(s.stages_finished, 1);
        assert_eq!(s.phases_finished, 2);
        assert_eq!(s.edges, 5);
        assert_eq!(s.cycles, 1);
        assert_eq!(s.budget_spent, 7);
        assert_eq!(s.budget_total, 24);
    }

    #[test]
    fn progress_collector_counts_supervisor_events() {
        let c = ProgressCollector::new();
        let retried = |failed_jobs, attempt, backoff_ms| CampaignEvent::BatchRetried {
            batch: 0,
            failed_jobs,
            attempt,
            backoff_ms,
        };
        feed(
            &c,
            &[
                retried(3, 1, 10),
                retried(1, 2, 20),
                CampaignEvent::BatchFailed {
                    batch: 0,
                    fault: FaultId(1),
                    test: TestId(2),
                    phase: 3,
                    reason: "chaos: boom".into(),
                },
                CampaignEvent::CheckpointWritten {
                    path: "/tmp/c.csnake".into(),
                    phase: 2,
                    executed_in_phase: 8,
                },
            ],
        );
        let s = c.snapshot();
        assert_eq!(s.batch_retries, 2);
        assert_eq!(s.batch_failures, 1);
        assert_eq!(s.checkpoints_written, 1);
        assert!(!s.degraded);
        c.on_event(&CampaignEvent::Degraded { missing: 1 });
        assert!(c.snapshot().degraded);
    }

    #[test]
    fn progress_collector_counts_daemon_events() {
        let c = ProgressCollector::new();
        let assigned = |shard, worker, jobs| CampaignEvent::ShardAssigned {
            shard,
            worker,
            jobs,
        };
        feed(
            &c,
            &[
                CampaignEvent::WorkerConnected { worker: 0 },
                CampaignEvent::WorkerConnected { worker: 1 },
                assigned(0, 0, 12),
                assigned(1, 1, 12),
                assigned(2, 0, 11),
                CampaignEvent::WorkerLost {
                    worker: 1,
                    reason: "lease expired".into(),
                },
                CampaignEvent::ShardReassigned {
                    shard: 1,
                    worker: 0,
                    attempt: 1,
                },
            ],
        );
        let s = c.snapshot();
        assert_eq!(s.workers_connected, 2);
        assert_eq!(s.workers_lost, 1);
        assert_eq!(s.shards_assigned, 3);
        assert_eq!(s.shards_reassigned, 1);

        // Loss reasons survive as more than a counter.
        assert_eq!(c.last_loss_reason().as_deref(), Some("lease expired"));
        let workers = c.worker_progress();
        let w1 = &workers.iter().find(|(w, _)| *w == 1).expect("worker 1").1;
        assert!(!w1.connected);
        assert_eq!(w1.lost_reason.as_deref(), Some("lease expired"));
        let w0 = &workers.iter().find(|(w, _)| *w == 0).expect("worker 0").1;
        assert!(w0.connected);
        assert_eq!(w0.shards_assigned, 3); // two leases + one reassignment
        assert_eq!(w0.current_shard, Some(1));
    }

    #[test]
    fn budget_pair_is_never_torn() {
        // The packed store means a snapshot between two budget events sees
        // a consistent (spent, total) pair even under a concurrent writer.
        let c = Arc::new(ProgressCollector::new());
        c.on_event(&CampaignEvent::BudgetSpent { spent: 0, total: 7 });
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for spent in 0..=1000usize {
                    // Total moves with spent so a torn read is detectable.
                    c.on_event(&CampaignEvent::BudgetSpent {
                        spent,
                        total: spent + 7,
                    });
                }
            })
        };
        for _ in 0..1000 {
            let s = c.snapshot();
            assert_eq!(
                s.budget_total,
                s.budget_spent + 7,
                "snapshot observed a torn budget pair"
            );
        }
        writer.join().expect("writer thread");
    }

    #[test]
    fn progress_collector_tracks_workload_summaries() {
        let c = ProgressCollector::new();
        feed(
            &c,
            &[workload(9_000, 40, Some(100)), workload(140, 20, None)],
        );
        let s = c.snapshot();
        assert_eq!(s.workload_summaries, 2);
        assert_eq!(s.workload_completed, 60);
        assert_eq!(s.workload_peak_p99_us, 9_000);
        assert_eq!(s.workload_inflections, 1);
    }

    #[test]
    fn workload_event_carries_the_summary_inflection() {
        use crate::workload::WorkloadWindow;
        let window = |start_ms, p99_us| WorkloadWindow {
            start_ms,
            completed: 10,
            p50_us: p99_us / 2,
            p99_us,
        };
        let summary = WorkloadSummary {
            test: TestId(0),
            seed: 1,
            offered: 50,
            completed: 40,
            dropped: 10,
            p50_us: 100,
            p90_us: 200,
            p99_us: 9_000,
            max_us: 12_000,
            windows: vec![window(0, 150), window(100, 9_000)],
        };
        match CampaignEvent::workload_summary(&summary) {
            CampaignEvent::WorkloadSummary {
                completed,
                dropped,
                p99_us,
                inflection_ms,
                ..
            } => assert_eq!(
                (completed, dropped, p99_us, inflection_ms),
                (40, 10, 9_000, Some(100))
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn progress_collector_tracks_clustering_peaks() {
        let c = ProgressCollector::new();
        let run = |vectors, matrix_bytes, sparse_graph_bytes| {
            CampaignEvent::Clustering(ClusterStats {
                vectors,
                matrix_bytes,
                sparse_graph_bytes,
                ..ClusterStats::default()
            })
        };
        // A smaller later run must not lower the peaks.
        feed(&c, &[run(100, 80_000, 5_000), run(10, 800, 50)]);
        let s = c.snapshot();
        assert_eq!(s.clustering_peak_vectors, 100);
        assert_eq!(s.clustering_peak_matrix_bytes, 80_000);
        assert_eq!(s.clustering_peak_sparse_bytes, 5_000);
    }
}
