//! Mini-HDFS 2: a miniature reproduction of HDFS 2.10.2's fault-handling
//! architecture.
//!
//! Components (all on one deterministic simulated cluster):
//!
//! * **NameNode** — datanode monitor (staleness detector), lease manager,
//!   edit-log sync, cache replication monitor, replication monitor,
//!   incremental-block-report (IBR) processing, optional active/standby
//!   failover;
//! * **DataNodes** — heartbeat/offer service (with command-processing and
//!   IBR-send sub-loops, giving the Table 1 `ICFG`/`CFG` structure), write
//!   pipeline (packet receive + ack), block recovery worker;
//! * **Clients** — open-loop write/read workloads with status checks,
//!   pipeline rebuild and lease recovery on failure.
//!
//! The six seeded self-sustaining cascading failures mirror the HDFS 2 rows
//! of the paper's Table 3 (lease recovery, edit-log flushing, block
//! recovery, write pipeline, block cache, IBR throttle bypass — the §8.3.2
//! case study). Each is a genuine logic flaw; the detector discovers them
//! from traces.

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use csnake_core::{KnownBug, TargetSystem, TestCase};
use csnake_inject::{
    Agent, BoolSource, BranchId, ExceptionCategory, Fault, FaultId, FnId, InjectionPlan, Registry,
    RegistryBuilder, RunTrace, TestId,
};
use csnake_sim::{Clock, Sim, VirtualTime, World};

use crate::common::{run_world, timeouts};

/// Which HDFS lineage a world simulates; HDFS 3 adds erasure-coding
/// reconstruction and an async deletion service on the same codebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HdfsVersion {
    V2,
    V3,
}

/// Instrumentation ids shared by mini-HDFS2 and mini-HDFS3.
#[derive(Debug, Clone, Copy)]
pub struct HdfsIds {
    // Functions.
    pub(crate) fn_monitor: FnId,
    pub(crate) fn_lease: FnId,
    pub(crate) fn_editlog: FnId,
    pub(crate) fn_cache: FnId,
    pub(crate) fn_repl: FnId,
    pub(crate) fn_ibr_proc: FnId,
    pub(crate) fn_offer: FnId,
    pub(crate) fn_pipeline: FnId,
    pub(crate) fn_write_check: FnId,
    pub(crate) fn_blockrec: FnId,
    pub(crate) fn_client: FnId,
    pub(crate) fn_recon: FnId,
    pub(crate) fn_deleter: FnId,
    // Loops.
    /// NameNode lease-manager loop.
    pub l_lease: FaultId,
    /// NameNode edit-log sync loop.
    pub l_editlog: FaultId,
    /// DataNode block-recovery worker loop.
    pub l_blockrec: FaultId,
    /// DataNode pipeline packet/ack processing loop.
    pub l_pipeline_ack: FaultId,
    /// NameNode cache replication monitor rescan loop.
    pub l_cache: FaultId,
    /// NameNode IBR processing loop (per report).
    pub l_ibr_process: FaultId,
    /// DataNode IBR send loop (per report).
    pub l_ibr_send: FaultId,
    /// NameNode datanode monitor loop.
    pub l_dn_monitor: FaultId,
    /// NameNode replication monitor loop.
    pub l_repl_monitor: FaultId,
    /// DataNode offer-service outer loop (one iteration per heartbeat).
    pub l_offer: FaultId,
    /// DataNode command-processing loop (child of `l_offer`).
    pub l_cmd_proc: FaultId,
    /// Client read chunk loop (expected contention).
    pub l_client_read: FaultId,
    /// Client write chunk loop (expected contention).
    pub l_client_write: FaultId,
    /// Constant-bound retry loop (analyzer-filtered).
    pub l_retry_const: FaultId,
    /// HDFS3 only: erasure-coding reconstruction loop.
    pub l_recon: FaultId,
    /// HDFS3 only: async block deletion loop.
    pub l_deleter: FaultId,
    // Throw points.
    /// Write pipeline IOE (status check).
    pub tp_pipeline_ioe: FaultId,
    /// IBR RPC IOE (NameNode processing timeout).
    pub tp_ibr_ioe: FaultId,
    /// IBR IOE during standby catch-up (failover window).
    pub tp_ibr_standby_ioe: FaultId,
    /// Block recovery IOE (timeout or insufficient replicas).
    pub tp_blockrec_ioe: FaultId,
    /// HDFS3 only: replication command IOE.
    pub tp_repl_ioe: FaultId,
    /// Library-call site (socket read in pipeline).
    pub tp_sock_read: FaultId,
    /// Reflection exception (analyzer-filtered).
    pub tp_reflect: FaultId,
    /// Security exception (analyzer-filtered).
    pub tp_security: FaultId,
    /// Test-only throw (analyzer-filtered).
    pub tp_test_only: FaultId,
    // Negation points.
    /// `DatanodeManager.isStale` (error when `true`).
    pub np_dn_stale: FaultId,
    /// JDK utility boolean (analyzer-filtered).
    pub np_contains: FaultId,
    /// Final-config-only boolean (analyzer-filtered).
    pub np_is_ha: FaultId,
    /// Primitive utility boolean (analyzer-filtered).
    pub np_is_sorted: FaultId,
    // Branches.
    pub(crate) br_has_pending_ibr: BranchId,
    pub(crate) br_queue_nonempty: BranchId,
    pub(crate) br_is_client_op: BranchId,
}

pub(crate) fn build_registry(version: HdfsVersion) -> (Registry, HdfsIds) {
    let name = match version {
        HdfsVersion::V2 => "mini-hdfs2",
        HdfsVersion::V3 => "mini-hdfs3",
    };
    let mut b = RegistryBuilder::new(name);
    let fn_monitor = b.func("DatanodeManager.heartbeatCheck");
    let fn_lease = b.func("LeaseManager.checkLeases");
    let fn_editlog = b.func("FSEditLog.logSync");
    let fn_cache = b.func("CacheReplicationMonitor.rescan");
    let fn_repl = b.func("ReplicationMonitor.computeWork");
    let fn_ibr_proc = b.func("BlockManager.processIncrementalBlockReport");
    let fn_offer = b.func("BPServiceActor.offerService");
    let fn_pipeline = b.func("BlockReceiver.receivePacket");
    let fn_write_check = b.func("DataStreamer.checkStatus");
    let fn_blockrec = b.func("DataNode.recoverBlocks");
    let fn_client = b.func("DFSClient.transfer");
    let fn_recon = b.func("ErasureCodingWorker.reconstruct");
    let fn_deleter = b.func("FsDatasetAsyncDiskService.deleteAsync");

    let l_lease = b.workload_loop(fn_lease, 310, false, "lease_loop");
    let l_editlog = b.workload_loop(fn_editlog, 620, true, "editlog_loop");
    let l_blockrec = b.workload_loop(fn_blockrec, 2710, true, "blockrec_loop");
    let l_pipeline_ack = b.workload_loop(fn_pipeline, 901, true, "pipeline_ack_loop");
    let l_cache = b.workload_loop(fn_cache, 404, false, "cache_loop");
    let l_ibr_process = b.workload_loop(fn_ibr_proc, 2433, true, "ibr_process_loop");
    let l_offer = b.workload_loop(fn_offer, 711, true, "offer_loop");
    let l_cmd_proc = b.workload_loop(fn_offer, 724, false, "cmd_proc_loop");
    let l_ibr_send = b.workload_loop(fn_offer, 760, true, "ibr_send_loop");
    b.set_parent(l_cmd_proc, l_offer);
    b.set_parent(l_ibr_send, l_offer);
    b.set_sibling(l_cmd_proc, l_ibr_send);
    let l_dn_monitor = b.workload_loop(fn_monitor, 150, false, "dn_monitor_loop");
    let l_repl_monitor = b.workload_loop(fn_repl, 530, false, "repl_monitor_loop");
    let l_client_read = b.workload_loop(fn_client, 88, true, "client_read_loop");
    let l_client_write = b.workload_loop(fn_client, 95, true, "client_write_loop");
    let l_retry_const = b.const_loop(fn_client, 99, 3, "retry3");
    let l_recon = b.workload_loop(fn_recon, 211, true, "recon_loop");
    let l_deleter = b.workload_loop(fn_deleter, 77, true, "deleter_loop");

    let tp_pipeline_ioe = b.throw_point(
        fn_write_check,
        933,
        "IOException",
        ExceptionCategory::SystemSpecific,
        "write_pipeline_ioe",
    );
    let tp_ibr_ioe = b.throw_point(
        fn_ibr_proc,
        2440,
        "IOException",
        ExceptionCategory::SystemSpecific,
        "ibr_rpc_ioe",
    );
    let tp_ibr_standby_ioe = b.throw_point(
        fn_ibr_proc,
        2461,
        "StandbyException",
        ExceptionCategory::SystemSpecific,
        "ibr_standby_ioe",
    );
    let tp_blockrec_ioe = b.throw_point(
        fn_blockrec,
        2733,
        "IOException",
        ExceptionCategory::SystemSpecific,
        "blockrec_ioe",
    );
    let tp_repl_ioe = b.throw_point(
        fn_repl,
        560,
        "IOException",
        ExceptionCategory::SystemSpecific,
        "repl_ioe",
    );
    let tp_sock_read = b.lib_call(fn_pipeline, 905, "SocketTimeoutException", "sock_read");
    let tp_reflect = b.throw_point(
        fn_client,
        12,
        "ReflectiveOperationException",
        ExceptionCategory::Reflection,
        "reflect",
    );
    let tp_security = b.throw_point(
        fn_client,
        14,
        "AccessControlException",
        ExceptionCategory::Security,
        "security",
    );
    let tp_test_only = b.test_only_throw(fn_client, 16, "AssertionError", "test_only");

    let np_dn_stale =
        b.negation_point(fn_monitor, 161, true, BoolSource::ErrorDetector, "dn_stale");
    let np_contains = b.negation_point(fn_monitor, 170, true, BoolSource::JdkUtility, "contains");
    let np_is_ha = b.negation_point(fn_editlog, 600, true, BoolSource::FinalConfigOnly, "is_ha");
    let np_is_sorted = b.negation_point(
        fn_repl,
        522,
        true,
        BoolSource::PrimitiveUtility,
        "is_sorted",
    );

    let br_has_pending_ibr = b.branch(fn_offer, 755);
    let br_queue_nonempty = b.branch(fn_blockrec, 2712);
    let br_is_client_op = b.branch(fn_client, 90);

    let ids = HdfsIds {
        fn_monitor,
        fn_lease,
        fn_editlog,
        fn_cache,
        fn_repl,
        fn_ibr_proc,
        fn_offer,
        fn_pipeline,
        fn_write_check,
        fn_blockrec,
        fn_client,
        fn_recon,
        fn_deleter,
        l_lease,
        l_editlog,
        l_blockrec,
        l_pipeline_ack,
        l_cache,
        l_ibr_process,
        l_ibr_send,
        l_dn_monitor,
        l_repl_monitor,
        l_offer,
        l_cmd_proc,
        l_client_read,
        l_client_write,
        l_retry_const,
        l_recon,
        l_deleter,
        tp_pipeline_ioe,
        tp_ibr_ioe,
        tp_ibr_standby_ioe,
        tp_blockrec_ioe,
        tp_repl_ioe,
        tp_sock_read,
        tp_reflect,
        tp_security,
        tp_test_only,
        np_dn_stale,
        np_contains,
        np_is_ha,
        np_is_sorted,
        br_has_pending_ibr,
        br_queue_nonempty,
        br_is_client_op,
    };
    (b.build(), ids)
}

/// Per-test cluster configuration.
#[derive(Debug, Clone)]
pub(crate) struct HdfsCfg {
    pub dns: usize,
    pub blocks_per_dn: u32,
    pub writes: u32,
    pub write_interval_ms: u64,
    pub read_chunks: u32,
    pub lease_load: u32,
    pub recoveries: u32,
    pub cache_directives: u32,
    pub failover_enabled: bool,
    /// Proper (journal-syncing) IBR retry path — bug 2's back edge.
    pub ibr_retry_journal: bool,
    /// IBR throttle interval; 0 = send with every heartbeat.
    pub ibr_throttle_ms: u64,
    /// Retry timed-out block recoveries (bug 3's amplifier).
    pub recovery_retry: bool,
    /// Resend pending packets when a write stays uncommitted (bug 4's
    /// amplifier).
    pub pipeline_retry: bool,
    /// Queue a lease recovery when a write fails (bug 1's amplifier).
    pub lease_recovery_on_failure: bool,
    /// Ask all DNs for a block re-sync when a recovery fails (bug 4's
    /// middle edge).
    pub resync_on_recovery_failure: bool,
    /// DataNode restarts its block-pool service (pausing heartbeats) on a
    /// fatal pipeline error (bug 5's middle edge).
    pub restart_on_pipeline_failure: bool,
    /// Queue a block recovery when a pipeline fails.
    pub recovery_on_pipeline_failure: bool,
    /// Strict commit checking: a block whose IBR failed is rejected as
    /// corrupt instead of silently waiting for the retry (bug 1's and
    /// bug 4's middle edges).
    pub corrupt_on_ibr_failure: bool,
    /// Routine metadata-churn reports sent by DNs independent of client
    /// writes (off in the IBR-cadence tests to keep their counts exact).
    pub background_reports: bool,
    /// HDFS3: erasure-coding reconstruction tasks.
    pub recon_tasks: u32,
    /// HDFS3: async deletion requests.
    pub deletions: u32,
    pub horizon_s: u64,
}

impl Default for HdfsCfg {
    fn default() -> Self {
        HdfsCfg {
            dns: 3,
            blocks_per_dn: 120,
            writes: 15,
            write_interval_ms: 400,
            read_chunks: 0,
            lease_load: 6,
            recoveries: 4,
            cache_directives: 6,
            failover_enabled: false,
            ibr_retry_journal: false,
            ibr_throttle_ms: 0,
            recovery_retry: false,
            pipeline_retry: false,
            lease_recovery_on_failure: false,
            resync_on_recovery_failure: false,
            restart_on_pipeline_failure: false,
            recovery_on_pipeline_failure: false,
            corrupt_on_ibr_failure: false,
            background_reports: true,
            recon_tasks: 0,
            deletions: 0,
            horizon_s: 45,
        }
    }
}

const HB_INTERVAL: VirtualTime = VirtualTime::from_millis(500);
const MONITOR_INTERVAL: VirtualTime = VirtualTime::from_millis(1000);
const TICK: VirtualTime = VirtualTime::from_millis(250);
const WRITE_PACKETS: u32 = 3;
/// Client chunk re-request threshold (expected read/write contention).
const CHUNK_SLOW: VirtualTime = VirtualTime::from_secs(6);

#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    Heartbeat(usize),
    Monitor,
    LeaseTick,
    EditTick,
    CacheTick,
    ReplTick,
    RecTick,
    PipeTick,
    ClientTick,
    WriteStart(u32),
    WriteCheck(u32),
    ReadStart,
    RecoveryStart,
    LeaseStart,
    NnIbr {
        dn: usize,
        sent_us: u64,
        entries: u32,
        journal: bool,
    },
    IbrProcTick,
    ReconTick,
    DeleteTick,
    DeleteStart,
}

#[derive(Debug, Clone, Copy)]
struct WriteOp {
    started: VirtualTime,
    packets_left: u32,
    committed: bool,
    failed: bool,
    /// The NameNode rejected the block commit after an IBR failure
    /// (strict-commit configurations).
    commit_rejected: bool,
    dn: usize,
}

#[derive(Debug, Clone, Copy)]
struct RecoveryItem {
    created: VirtualTime,
    attempts: u8,
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    created: VirtualTime,
    attempts: u8,
    is_read: bool,
}

pub(crate) struct HdfsWorld {
    agent: Rc<Agent>,
    ids: HdfsIds,
    cfg: HdfsCfg,
    version: HdfsVersion,
    // NameNode state.
    dn_last_hb: Vec<VirtualTime>,
    dn_excluded: Vec<bool>,
    dn_suspect: Vec<bool>,
    dn_hb_paused_until: Vec<VirtualTime>,
    last_edit_tick: VirtualTime,
    last_repl_tick: VirtualTime,
    standby_until: VirtualTime,
    lease_queue: VecDeque<VirtualTime>,
    pending_edits: u64,
    cache_queue: u64,
    under_replicated: u64,
    standby_active: bool,
    failed_over: bool,
    // NameNode IBR inbox: reports wait here for the processing tick, so
    // they age realistically across any clock advance.
    ibr_inbox: VecDeque<(usize, VirtualTime, u32, bool)>,
    // DataNode state.
    ibr_pending: Vec<u32>,
    /// Failed reports queued for next-heartbeat retransmission — the
    /// throttle-bypass bug (§8.3.2) in code form.
    ibr_retry_reports: Vec<Vec<u32>>,
    last_ibr_sent: Vec<VirtualTime>,
    last_routine_report: Vec<VirtualTime>,
    /// Cadence-anchored next heartbeat time per DN: the DN is its own node,
    /// so its timers do not stretch when the (single-threaded) NameNode is
    /// busy; late heartbeats pop in a burst with *old* send timestamps.
    hb_intended: Vec<VirtualTime>,
    dn_cmd_queue: Vec<u32>,
    packet_queue: VecDeque<u32>,
    recovery_queue: VecDeque<RecoveryItem>,
    // Client state.
    writes: Vec<WriteOp>,
    chunk_queue: VecDeque<Chunk>,
    reads_issued: u32,
    // HDFS3 services.
    recon_queue: u64,
    delete_queue: u64,
    writes_started: u32,
}

impl HdfsWorld {
    pub(crate) fn new(agent: Rc<Agent>, ids: HdfsIds, cfg: HdfsCfg, version: HdfsVersion) -> Self {
        let dns = cfg.dns;
        HdfsWorld {
            agent,
            ids,
            version,
            dn_last_hb: vec![VirtualTime::ZERO; dns],
            dn_excluded: vec![false; dns],
            dn_suspect: vec![false; dns],
            dn_hb_paused_until: vec![VirtualTime::ZERO; dns],
            last_edit_tick: VirtualTime::ZERO,
            last_repl_tick: VirtualTime::ZERO,
            standby_until: VirtualTime::ZERO,
            lease_queue: VecDeque::new(),
            pending_edits: 0,
            cache_queue: 0,
            under_replicated: 0,
            standby_active: false,
            failed_over: false,
            ibr_inbox: VecDeque::new(),
            ibr_pending: vec![0; dns],
            ibr_retry_reports: vec![Vec::new(); dns],
            last_ibr_sent: vec![VirtualTime::ZERO; dns],
            last_routine_report: vec![VirtualTime::ZERO; dns],
            hb_intended: (0..dns)
                .map(|dn| HB_INTERVAL + VirtualTime::from_millis(17 * dn as u64))
                .collect(),
            dn_cmd_queue: vec![0; dns],
            packet_queue: VecDeque::new(),
            recovery_queue: VecDeque::new(),
            writes: Vec::new(),
            chunk_queue: VecDeque::new(),
            reads_issued: 0,
            recon_queue: 0,
            delete_queue: 0,
            writes_started: 0,
            cfg,
        }
    }

    pub(crate) fn bootstrap(cfg: &HdfsCfg, sim: &mut Sim<Ev>) {
        for i in 0..cfg.writes {
            sim.schedule_at(
                VirtualTime::from_millis(cfg.write_interval_ms) * (i as u64 + 1),
                Ev::WriteStart(i),
            );
        }
        for i in 0..cfg.read_chunks {
            sim.schedule_at(
                VirtualTime::from_millis(150) * (i as u64 + 1),
                Ev::ReadStart,
            );
        }
        for i in 0..cfg.recoveries {
            sim.schedule_at(
                VirtualTime::from_millis(800) * (i as u64 + 1),
                Ev::RecoveryStart,
            );
        }
        for i in 0..cfg.lease_load {
            sim.schedule_at(
                VirtualTime::from_millis(150) * (i as u64 + 1),
                Ev::LeaseStart,
            );
        }
        for i in 0..cfg.deletions {
            sim.schedule_at(
                VirtualTime::from_millis(300) * (i as u64 + 1),
                Ev::DeleteStart,
            );
        }
        for dn in 0..cfg.dns {
            sim.schedule_at(
                HB_INTERVAL + VirtualTime::from_millis(17 * dn as u64),
                Ev::Heartbeat(dn),
            );
        }
        sim.schedule(MONITOR_INTERVAL, Ev::Monitor);
        sim.schedule(TICK, Ev::LeaseTick);
        sim.schedule(TICK, Ev::EditTick);
        sim.schedule(TICK * 2, Ev::CacheTick);
        sim.schedule(TICK * 2, Ev::ReplTick);
        sim.schedule(TICK * 2, Ev::RecTick);
        sim.schedule(TICK / 2, Ev::PipeTick);
        sim.schedule(VirtualTime::from_millis(100), Ev::IbrProcTick);
        sim.schedule(TICK, Ev::ClientTick);
        sim.schedule(TICK * 3, Ev::ReconTick);
        sim.schedule(TICK * 3, Ev::DeleteTick);
    }

    /// A write failed fatally: run the configured recovery reactions.
    fn on_write_failure(&mut self, sim: &mut Sim<Ev>, wid: u32) {
        let dn = self.writes[wid as usize].dn;
        self.writes[wid as usize].failed = true;
        // Recovery must avoid the DN that just failed the pipeline.
        self.dn_suspect[dn] = true;
        if self.cfg.lease_recovery_on_failure {
            // The file stays under construction; the lease manager must
            // recover it (bug 1's amplifier).
            for _ in 0..4 {
                self.lease_queue.push_back(sim.now());
            }
        }
        if self.cfg.recovery_on_pipeline_failure {
            self.recovery_queue.push_back(RecoveryItem {
                created: sim.now(),
                attempts: 0,
            });
        }
        if self.cfg.restart_on_pipeline_failure {
            // Fatal pipeline error: the DN restarts its block-pool service
            // and misses heartbeats (bug 5's middle edge).
            self.dn_hb_paused_until[dn] = sim.now() + timeouts::STALE + VirtualTime::from_secs(6);
        }
    }

    fn exclude_dn(&mut self, dn: usize) {
        if !self.dn_excluded[dn] {
            self.dn_excluded[dn] = true;
            // Re-replication of the node's blocks.
            self.under_replicated += (self.cfg.blocks_per_dn / 10).max(4) as u64;
            // Cached blocks on the node must be re-placed (bug 5's back edge).
            self.cache_queue += (self.cfg.cache_directives * 3) as u64;
            // HDFS3: replicas on a stale node are invalidated asynchronously
            // (bug hdfs3-1's back edge).
            if self.version == HdfsVersion::V3 {
                self.delete_queue += (self.cfg.blocks_per_dn / 8).max(6) as u64;
            }
        }
    }

    fn handle_ibr_failure(&mut self, sim: &mut Sim<Ev>, dn: usize, entries: u32, journal: bool) {
        // Seeded bug: the whole failed report is queued for immediate
        // retransmission at the next heartbeat, ignoring the configured
        // report interval.
        self.ibr_retry_reports[dn].push(entries);
        if journal || self.cfg.ibr_retry_journal {
            // Proper retry path: re-journal the report (bug 2's back edge).
            self.pending_edits += (entries as u64 * 2).max(8);
        }
        if self.cfg.corrupt_on_ibr_failure || self.cfg.pipeline_retry {
            // Strict mode treats the reported replicas as corrupt (their
            // writes fail the status check); otherwise pipeline-retry mode
            // re-streams the affected blocks through the pipeline.
            let mut left = entries;
            let mut restream: Vec<u32> = Vec::new();
            for (wid, w) in self.writes.iter_mut().enumerate() {
                if left == 0 {
                    break;
                }
                if w.dn == dn && w.packets_left == 0 && !w.committed && !w.failed {
                    left -= 1;
                    if self.cfg.corrupt_on_ibr_failure {
                        w.commit_rejected = true;
                    } else {
                        w.packets_left = WRITE_PACKETS;
                        restream.push(wid as u32);
                    }
                }
            }
            for wid in restream {
                for _ in 0..WRITE_PACKETS {
                    self.packet_queue.push_back(wid);
                }
            }
        }
        let _ = sim;
    }

    fn schedule_next_heartbeat(&mut self, sim: &mut Sim<Ev>, dn: usize) {
        let step = sim.rng().jitter(HB_INTERVAL, 0.1);
        self.hb_intended[dn] += step;
        sim.schedule_at(self.hb_intended[dn], Ev::Heartbeat(dn));
    }

    fn heartbeat(&mut self, sim: &mut Sim<Ev>, dn: usize) {
        let intended = self.hb_intended[dn];
        self.schedule_next_heartbeat(sim, dn);
        if intended < self.dn_hb_paused_until[dn] {
            // Block-pool service restarting: skip this beat.
            return;
        }
        let _f = self.agent.frame(self.ids.fn_offer);
        let offer = self.agent.loop_enter(self.ids.l_offer);
        offer.iter(sim);
        self.dn_last_hb[dn] = sim.now();
        if self.dn_excluded[dn] {
            // Re-registration after exclusion: full report follows.
            self.dn_excluded[dn] = false;
            self.ibr_pending[dn] += (self.cfg.blocks_per_dn / 20).max(4);
        }
        // Command processing (child loop; replication commands from the NN).
        {
            let cmds = self.dn_cmd_queue[dn];
            self.dn_cmd_queue[dn] = 0;
            let lg = self.agent.loop_enter(self.ids.l_cmd_proc);
            for _ in 0..cmds {
                lg.iter(sim);
                sim.advance(VirtualTime::from_micros(400));
            }
        }
        // IBR send (consecutive sibling loop). The throttle-bypass bug:
        // a failed IBR is retried at the *next heartbeat*, ignoring the
        // configured interval (seeded bug 6, §8.3.2).
        // Routine metadata churn: blocks finalize, replicas verify, and the
        // DN reports it — IBR traffic exists even without client writes.
        if self.cfg.background_reports
            && intended.saturating_sub(self.last_routine_report[dn]) >= VirtualTime::from_secs(2)
        {
            self.last_routine_report[dn] = intended;
            self.ibr_pending[dn] += (self.cfg.blocks_per_dn / 100).max(1);
        }
        let throttle = VirtualTime::from_millis(self.cfg.ibr_throttle_ms);
        let due = intended.saturating_sub(self.last_ibr_sent[dn]) >= throttle;
        let has_pending = self.ibr_pending[dn] > 0;
        let retries = std::mem::take(&mut self.ibr_retry_reports[dn]);
        self.agent.branch(
            self.ids.br_has_pending_ibr,
            has_pending || !retries.is_empty(),
        );
        if has_pending && due || !retries.is_empty() {
            let lg = self.agent.loop_enter(self.ids.l_ibr_send);
            // Retransmit failed reports first — the seeded throttle bypass.
            for entries in retries {
                lg.iter(sim);
                sim.advance(VirtualTime::from_micros(200));
                let sent_us = intended.as_micros();
                sim.send(
                    VirtualTime::from_millis(2),
                    0.5,
                    Ev::NnIbr {
                        dn,
                        sent_us,
                        entries,
                        journal: false,
                    },
                );
            }
            if has_pending && due {
                // One report per volume-ish batch; the iteration count is
                // per *report*, matching the case study's observable.
                let entries = self.ibr_pending[dn];
                self.ibr_pending[dn] = 0;
                self.last_ibr_sent[dn] = intended;
                let per_report = 4u32;
                let mut left = entries;
                while left > 0 {
                    lg.iter(sim);
                    let batch = left.min(per_report);
                    left -= batch;
                    sim.advance(VirtualTime::from_micros(200));
                    let sent_us = intended.as_micros();
                    sim.send(
                        VirtualTime::from_millis(2),
                        0.5,
                        Ev::NnIbr {
                            dn,
                            sent_us,
                            entries: batch,
                            journal: false,
                        },
                    );
                }
            }
        }
    }

    fn ibr_proc_tick(&mut self, sim: &mut Sim<Ev>) {
        let _f = self.agent.frame(self.ids.fn_ibr_proc);
        self.standby_active = sim.now() < self.standby_until;
        let lg = self.agent.loop_enter(self.ids.l_ibr_process);
        let n = self.ibr_inbox.len().min(32);
        for _ in 0..n {
            lg.iter(sim);
            let (dn, sent, entries, journal) = self.ibr_inbox.pop_front().expect("sized loop");
            sim.advance(VirtualTime::from_millis(2 * entries as u64));
            // Standby window: reports during failover catch-up are rejected.
            if self
                .agent
                .throw_guard(self.ids.tp_ibr_standby_ioe)
                .is_some()
            {
                self.handle_ibr_failure(sim, dn, entries, true);
                continue;
            }
            if self.standby_active {
                let _ = self.agent.throw_fired(self.ids.tp_ibr_standby_ioe);
                self.handle_ibr_failure(sim, dn, entries, true);
                continue;
            }
            // RPC-level timeout: the sender has already given up waiting.
            if self.agent.throw_guard(self.ids.tp_ibr_ioe).is_some() {
                self.handle_ibr_failure(sim, dn, entries, journal);
                continue;
            }
            if sim.now().saturating_sub(sent) > timeouts::RPC {
                let _ = self.agent.throw_fired(self.ids.tp_ibr_ioe);
                self.handle_ibr_failure(sim, dn, entries, journal);
                continue;
            }
            // Committing blocks completes waiting writes and journals edits.
            self.pending_edits += 1;
            let mut to_commit = entries;
            for w in self.writes.iter_mut() {
                if to_commit == 0 {
                    break;
                }
                if w.dn == dn
                    && w.packets_left == 0
                    && !w.committed
                    && !w.failed
                    && !w.commit_rejected
                {
                    w.committed = true;
                    to_commit -= 1;
                }
            }
        }
        drop(lg);
        sim.schedule(VirtualTime::from_millis(100), Ev::IbrProcTick);
    }

    fn monitor(&mut self, sim: &mut Sim<Ev>) {
        let _f = self.agent.frame(self.ids.fn_monitor);
        let lg = self.agent.loop_enter(self.ids.l_dn_monitor);
        for dn in 0..self.cfg.dns {
            lg.iter(sim);
            let raw_stale = sim.now().saturating_sub(self.dn_last_hb[dn]) > timeouts::STALE;
            let stale = self.agent.negation_point(self.ids.np_dn_stale, raw_stale);
            let _ = self
                .agent
                .negation_point(self.ids.np_contains, self.dn_excluded[dn]);
            if stale {
                self.exclude_dn(dn);
            }
        }
        drop(lg);
        sim.schedule(MONITOR_INTERVAL, Ev::Monitor);
    }

    fn lease_tick(&mut self, sim: &mut Sim<Ev>) {
        let _f = self.agent.frame(self.ids.fn_lease);
        let lg = self.agent.loop_enter(self.ids.l_lease);
        let n = self.lease_queue.len().min(8);
        for _ in 0..n {
            lg.iter(sim);
            sim.advance(VirtualTime::from_micros(300));
            let item = self.lease_queue.pop_front().expect("sized loop");
            // Leases younger than the grace period go back to the queue.
            if sim.now().saturating_sub(item) < VirtualTime::from_secs(2) {
                self.lease_queue.push_back(item);
            } else {
                self.pending_edits += 1;
            }
        }
        drop(lg);
        sim.schedule(TICK, Ev::LeaseTick);
    }

    fn edit_tick(&mut self, sim: &mut Sim<Ev>) {
        let _f = self.agent.frame(self.ids.fn_editlog);
        let _ = self
            .agent
            .negation_point(self.ids.np_is_ha, self.cfg.failover_enabled);
        let lg = self.agent.loop_enter(self.ids.l_editlog);
        let n = self.pending_edits.min(16);
        self.pending_edits -= n;
        for _ in 0..n {
            lg.iter(sim);
            sim.advance(VirtualTime::from_micros(250));
        }
        drop(lg);
        // A sync loop that has fallen far behind its cadence trips the
        // failover controller; the standby rejects IBRs while catching up.
        let behind = sim.now().saturating_sub(self.last_edit_tick) > timeouts::STALE;
        if behind && self.cfg.failover_enabled && !self.failed_over {
            self.failed_over = true;
            self.standby_until = sim.now() + VirtualTime::from_secs(8);
        }
        self.standby_active = sim.now() < self.standby_until;
        self.last_edit_tick = sim.now();
        sim.schedule(TICK, Ev::EditTick);
    }

    fn cache_tick(&mut self, sim: &mut Sim<Ev>) {
        let _f = self.agent.frame(self.ids.fn_cache);
        let lg = self.agent.loop_enter(self.ids.l_cache);
        let drain = self.cache_queue.min(24);
        self.cache_queue -= drain;
        let n = self.cfg.cache_directives as u64 + drain;
        for _ in 0..n {
            lg.iter(sim);
            sim.advance(VirtualTime::from_micros(200));
        }
        drop(lg);
        sim.schedule(TICK * 2, Ev::CacheTick);
    }

    fn repl_tick(&mut self, sim: &mut Sim<Ev>) {
        let _f = self.agent.frame(self.ids.fn_repl);
        let _ = self.agent.negation_point(self.ids.np_is_sorted, true);
        if let Some(e) = self.agent.throw_guard(self.ids.tp_repl_ioe) {
            let _ = e;
            // Failed replication batch: reconstruction must take over
            // (HDFS3 bug 2's back edge).
            self.recon_queue += 6;
            self.under_replicated += 4;
            sim.schedule(TICK * 2, Ev::ReplTick);
            return;
        }
        // A replication monitor running far behind its cadence means its
        // command RPCs have already timed out (HDFS3 reconstruction path).
        let behind = self.last_repl_tick > VirtualTime::ZERO
            && sim.now().saturating_sub(self.last_repl_tick) > timeouts::RPC * 2;
        if behind && self.version == HdfsVersion::V3 {
            let _ = self.agent.throw_fired(self.ids.tp_repl_ioe);
            self.recon_queue += 6;
            self.under_replicated += 4;
        }
        let lg = self.agent.loop_enter(self.ids.l_repl_monitor);
        let n = self.under_replicated.min(16);
        self.under_replicated -= n;
        for i in 0..n {
            lg.iter(sim);
            sim.advance(VirtualTime::from_micros(250));
            // Replication work is dispatched as DN commands.
            let dn = (i as usize) % self.cfg.dns;
            self.dn_cmd_queue[dn] += 1;
        }
        drop(lg);
        self.last_repl_tick = sim.now();
        sim.schedule(TICK * 2, Ev::ReplTick);
    }

    fn rec_tick(&mut self, sim: &mut Sim<Ev>) {
        let _f = self.agent.frame(self.ids.fn_blockrec);
        self.agent
            .branch(self.ids.br_queue_nonempty, !self.recovery_queue.is_empty());
        let lg = self.agent.loop_enter(self.ids.l_blockrec);
        let n = self.recovery_queue.len().min(8);
        for _ in 0..n {
            lg.iter(sim);
            sim.advance(VirtualTime::from_millis(1));
            let item = self.recovery_queue.pop_front().expect("sized loop");
            let result = self.recover_one(sim, item);
            if let Err(_e) = result {
                if self.cfg.resync_on_recovery_failure {
                    // Ask every DN for an immediate full block re-sync,
                    // delivered as urgent (unthrottled) reports.
                    for dn in 0..self.cfg.dns {
                        let total = self.cfg.blocks_per_dn.max(8);
                        let mut left = total;
                        while left > 0 {
                            let batch = left.min(64);
                            left -= batch;
                            self.ibr_retry_reports[dn].push(batch);
                        }
                    }
                }
                if self.cfg.recovery_retry && item.attempts < 4 {
                    // Blind retry (bug 3's amplifier).
                    self.recovery_queue.push_back(RecoveryItem {
                        created: sim.now(),
                        attempts: item.attempts + 1,
                    });
                }
            }
        }
        drop(lg);
        sim.schedule(TICK * 2, Ev::RecTick);
    }

    fn recover_one(&self, sim: &mut Sim<Ev>, item: RecoveryItem) -> Result<(), Fault> {
        if let Some(e) = self.agent.throw_guard(self.ids.tp_blockrec_ioe) {
            return Err(e);
        }
        // Timeout, or not enough live replica holders (2-node clusters
        // cannot recover once the pipeline DN is suspect).
        let live = (0..self.cfg.dns)
            .filter(|&d| !self.dn_excluded[d] && !self.dn_suspect[d])
            .count();
        let timed_out = sim.now().saturating_sub(item.created) > timeouts::OPERATION;
        if timed_out || live < 2 {
            return Err(self.agent.throw_fired(self.ids.tp_blockrec_ioe));
        }
        Ok(())
    }

    fn pipe_tick(&mut self, sim: &mut Sim<Ev>) {
        let _f = self.agent.frame(self.ids.fn_pipeline);
        if let Some(_e) = self.agent.throw_guard(self.ids.tp_sock_read) {
            // Socket hiccup: drop this tick's work; packets stay queued.
            sim.schedule(TICK / 2, Ev::PipeTick);
            return;
        }
        let lg = self.agent.loop_enter(self.ids.l_pipeline_ack);
        let n = self.packet_queue.len();
        for _ in 0..n {
            lg.iter(sim);
            sim.advance(VirtualTime::from_micros(500));
            let wid = self.packet_queue.pop_front().expect("sized loop");
            let w = &mut self.writes[wid as usize];
            if w.failed {
                continue;
            }
            if w.packets_left > 0 {
                w.packets_left -= 1;
            }
            if w.packets_left == 0 && !w.committed {
                // Block complete → IBR entry for the NN.
                self.ibr_pending[w.dn] += 1;
            }
        }
        drop(lg);
        sim.schedule(TICK / 2, Ev::PipeTick);
    }

    fn write_check(&mut self, sim: &mut Sim<Ev>, wid: u32) {
        let _f = self.agent.frame(self.ids.fn_write_check);
        // The guard sits at the head of the status check (the if-statement
        // of Fig. 4), so it is reached for every checked write.
        if let Some(e) = self.agent.throw_guard(self.ids.tp_pipeline_ioe) {
            let _ = e;
            self.on_write_failure(sim, wid);
            return;
        }
        let w = self.writes[wid as usize];
        if w.committed || w.failed {
            return;
        }
        if w.commit_rejected || sim.now().saturating_sub(w.started) > timeouts::OPERATION {
            let _ = self.agent.throw_fired(self.ids.tp_pipeline_ioe);
            self.on_write_failure(sim, wid);
            return;
        }
        // Still in flight: if packets are done but the commit is missing and
        // pipeline-retry is configured, resend the tail packets (bug 4's
        // back edge).
        if self.cfg.pipeline_retry && w.packets_left == 0 && !w.committed {
            for _ in 0..WRITE_PACKETS {
                self.packet_queue.push_back(wid);
            }
            self.writes[wid as usize].packets_left = WRITE_PACKETS;
        }
        sim.schedule(VirtualTime::from_secs(4), Ev::WriteCheck(wid));
    }

    fn client_tick(&mut self, sim: &mut Sim<Ev>) {
        let _f = self.agent.frame(self.ids.fn_client);
        self.agent
            .branch(self.ids.br_is_client_op, !self.chunk_queue.is_empty());
        // Constant-bound retry loop: analyzer-filtered decoy.
        {
            let lg = self.agent.loop_enter(self.ids.l_retry_const);
            for _ in 0..3 {
                lg.iter(sim);
            }
        }
        let n = self.chunk_queue.len();
        let reads: Vec<Chunk> = {
            let lg = self.agent.loop_enter(self.ids.l_client_read);
            let mut next = Vec::new();
            for _ in 0..n {
                let c = self.chunk_queue.pop_front().expect("sized loop");
                if !c.is_read {
                    next.push(c);
                    continue;
                }
                lg.iter(sim);
                sim.advance(VirtualTime::from_micros(400));
                if sim.now().saturating_sub(c.created) > CHUNK_SLOW && c.attempts < 2 {
                    // Slow read: re-request the chunk.
                    next.push(Chunk {
                        created: sim.now(),
                        attempts: c.attempts + 1,
                        is_read: true,
                    });
                }
            }
            next
        };
        let writes: Vec<Chunk> = {
            let lg = self.agent.loop_enter(self.ids.l_client_write);
            let mut next = Vec::new();
            for c in reads {
                if c.is_read {
                    next.push(c);
                    continue;
                }
                lg.iter(sim);
                sim.advance(VirtualTime::from_micros(400));
                if sim.now().saturating_sub(c.created) > CHUNK_SLOW && c.attempts < 2 {
                    next.push(Chunk {
                        created: sim.now(),
                        attempts: c.attempts + 1,
                        is_read: false,
                    });
                }
            }
            next
        };
        for c in writes {
            self.chunk_queue.push_back(c);
        }
        sim.schedule(TICK, Ev::ClientTick);
    }

    fn recon_tick(&mut self, sim: &mut Sim<Ev>) {
        if self.version != HdfsVersion::V3 {
            return;
        }
        let _f = self.agent.frame(self.ids.fn_recon);
        let lg = self.agent.loop_enter(self.ids.l_recon);
        let n = self.recon_queue;
        self.recon_queue = 0;
        for _ in 0..n {
            lg.iter(sim);
            sim.advance(VirtualTime::from_millis(1));
        }
        drop(lg);
        sim.schedule(TICK * 3, Ev::ReconTick);
    }

    fn delete_tick(&mut self, sim: &mut Sim<Ev>) {
        if self.version != HdfsVersion::V3 {
            return;
        }
        let _f = self.agent.frame(self.ids.fn_deleter);
        let lg = self.agent.loop_enter(self.ids.l_deleter);
        let n = self.delete_queue;
        self.delete_queue = 0;
        for _ in 0..n {
            lg.iter(sim);
            sim.advance(VirtualTime::from_micros(600));
        }
        drop(lg);
        sim.schedule(TICK * 3, Ev::DeleteTick);
    }
}

impl World for HdfsWorld {
    type Event = Ev;

    fn handle(&mut self, sim: &mut Sim<Ev>, ev: Ev) {
        match ev {
            Ev::Heartbeat(dn) => self.heartbeat(sim, dn),
            Ev::Monitor => self.monitor(sim),
            Ev::LeaseTick => self.lease_tick(sim),
            Ev::EditTick => self.edit_tick(sim),
            Ev::CacheTick => self.cache_tick(sim),
            Ev::ReplTick => self.repl_tick(sim),
            Ev::RecTick => self.rec_tick(sim),
            Ev::PipeTick => self.pipe_tick(sim),
            Ev::ClientTick => self.client_tick(sim),
            Ev::WriteStart(i) => {
                let intended = VirtualTime::from_millis(self.cfg.write_interval_ms)
                    * (self.writes_started as u64 + 1);
                let _ = i;
                let dn = (self.writes_started as usize) % self.cfg.dns;
                let wid = self.writes.len() as u32;
                self.writes.push(WriteOp {
                    started: intended,
                    packets_left: WRITE_PACKETS,
                    committed: false,
                    failed: false,
                    commit_rejected: false,
                    dn,
                });
                self.writes_started += 1;
                for _ in 0..WRITE_PACKETS {
                    self.packet_queue.push_back(wid);
                }
                // Writes journal an edit and occupy a lease slot.
                self.pending_edits += 1;
                if self.cfg.lease_load > 0 && wid.is_multiple_of(2) {
                    self.lease_queue.push_back(intended);
                }
                sim.schedule_at(intended + VirtualTime::from_secs(4), Ev::WriteCheck(wid));
            }
            Ev::WriteCheck(wid) => self.write_check(sim, wid),
            Ev::ReadStart => {
                self.reads_issued += 1;
                self.chunk_queue.push_back(Chunk {
                    created: sim.now(),
                    attempts: 0,
                    is_read: true,
                });
                // Mixed clients interleave writes as chunks too.
                if self.reads_issued.is_multiple_of(2) {
                    self.chunk_queue.push_back(Chunk {
                        created: sim.now(),
                        attempts: 0,
                        is_read: false,
                    });
                }
            }
            Ev::RecoveryStart => {
                self.recovery_queue.push_back(RecoveryItem {
                    created: sim.now(),
                    attempts: 0,
                });
            }
            Ev::LeaseStart => {
                self.lease_queue.push_back(sim.now());
            }
            Ev::NnIbr {
                dn,
                sent_us,
                entries,
                journal,
            } => {
                self.ibr_inbox
                    .push_back((dn, VirtualTime::from_micros(sent_us), entries, journal));
            }
            Ev::IbrProcTick => self.ibr_proc_tick(sim),
            Ev::ReconTick => self.recon_tick(sim),
            Ev::DeleteTick => self.delete_tick(sim),
            Ev::DeleteStart => {
                self.delete_queue += 3;
            }
        }
    }
}

/// Seed the HDFS3 reconstruction backlog.
pub(crate) fn seed_leases(world: &mut HdfsWorld) {
    world.recon_queue = world.cfg.recon_tasks as u64;
}

/// The mini-HDFS2 target.
pub struct MiniHdfs2 {
    registry: Arc<Registry>,
    ids: HdfsIds,
}

impl Default for MiniHdfs2 {
    fn default() -> Self {
        Self::new()
    }
}

impl MiniHdfs2 {
    /// Builds the system and registry.
    pub fn new() -> Self {
        let (reg, ids) = build_registry(HdfsVersion::V2);
        MiniHdfs2 {
            registry: Arc::new(reg),
            ids,
        }
    }

    /// Instrumentation ids.
    pub fn ids(&self) -> HdfsIds {
        self.ids
    }

    /// Per-test configuration (shared with mini-HDFS3).
    pub(crate) fn cfg_for(test: TestId) -> HdfsCfg {
        let d = HdfsCfg::default();
        match test.0 {
            // t0: broad default coverage.
            0 => HdfsCfg {
                writes: 20,
                read_chunks: 10,
                recovery_on_pipeline_failure: true,
                ..d
            },
            // t1: write-pipeline heavy.
            1 => HdfsCfg {
                writes: 50,
                write_interval_ms: 200,
                lease_load: 0,
                recoveries: 6,
                corrupt_on_ibr_failure: true,
                ..d
            },
            // t2: lease recovery heavy.
            2 => HdfsCfg {
                lease_load: 48,
                writes: 18,
                ..d
            },
            // t3: block recovery with blind retry.
            3 => HdfsCfg {
                recoveries: 24,
                recovery_retry: true,
                writes: 6,
                ..d
            },
            // t4: HA failover; IBR journal retry off.
            4 => HdfsCfg {
                failover_enabled: true,
                writes: 30,
                write_interval_ms: 250,
                ..d
            },
            // t5: cache-directive heavy.
            5 => HdfsCfg {
                cache_directives: 60,
                writes: 18,
                ..d
            },
            // t6: balancer-style volume test, IBR unthrottled.
            6 => HdfsCfg {
                blocks_per_dn: 1600,
                writes: 60,
                write_interval_ms: 50,
                ibr_throttle_ms: 0,
                lease_load: 0,
                cache_directives: 0,
                background_reports: false,
                ..d
            },
            // t7: IBR interval configuration test (throttled, tiny volume).
            7 => HdfsCfg {
                blocks_per_dn: 8,
                writes: 8,
                write_interval_ms: 900,
                ibr_throttle_ms: 6000,
                lease_load: 0,
                recoveries: 0,
                cache_directives: 0,
                background_reports: false,
                horizon_s: 60,
                ..d
            },
            // t8: staleness handling (block-pool restart on fatal error).
            8 => HdfsCfg {
                restart_on_pipeline_failure: true,
                writes: 24,
                ..d
            },
            // t9: two-node cluster recovery.
            9 => HdfsCfg {
                dns: 2,
                recovery_on_pipeline_failure: true,
                recoveries: 8,
                writes: 16,
                ..d
            },
            // t10: recovery-failure resync with large volumes.
            10 => HdfsCfg {
                blocks_per_dn: 2400,
                resync_on_recovery_failure: true,
                recoveries: 10,
                recovery_retry: false,
                writes: 10,
                ..d
            },
            // t11: mixed read/write clients (expected contention).
            11 => HdfsCfg {
                read_chunks: 60,
                writes: 10,
                lease_load: 0,
                recoveries: 0,
                ..d
            },
            // t12: proper IBR retry with journal sync.
            12 => HdfsCfg {
                ibr_retry_journal: true,
                writes: 30,
                write_interval_ms: 250,
                ..d
            },
            // t13: lease recovery reaction to write failures.
            13 => HdfsCfg {
                lease_recovery_on_failure: true,
                writes: 30,
                lease_load: 12,
                ..d
            },
            // t14: pipeline re-streaming after report failures.
            _ => HdfsCfg {
                pipeline_retry: true,
                writes: 40,
                write_interval_ms: 250,
                ..d
            },
        }
    }

    fn test_list() -> Vec<TestCase> {
        let names: [(&'static str, &'static str); 15] = [
            ("test_basic_read_write", "3 DNs, mixed ops, default config"),
            ("test_write_pipeline_heavy", "50 writes at 200ms"),
            ("test_lease_recovery", "48 lease-manager items plus writes"),
            ("test_block_recovery", "24 recoveries with blind retry"),
            ("test_editlog_failover", "HA enabled, journal-heavy writes"),
            ("test_cache_directives", "60 cache directives plus writes"),
            (
                "test_balancer_many_blocks",
                "1600 blocks/DN, unthrottled IBR",
            ),
            ("test_ibr_interval_config", "8 blocks, 6s IBR throttle"),
            ("test_dn_staleness", "block-pool restart on pipeline error"),
            ("test_small_cluster_recovery", "2-node cluster recoveries"),
            (
                "test_recovery_resync",
                "re-sync on recovery failure, big volumes",
            ),
            ("test_client_mixed", "read/write client contention"),
            ("test_ibr_retry_journal", "journal-syncing IBR retry path"),
            (
                "test_lease_on_failure",
                "lease recovery reacting to failures",
            ),
            (
                "test_pipeline_rebuild",
                "block re-streaming after report failures",
            ),
        ];
        names
            .iter()
            .enumerate()
            .map(|(i, (name, description))| TestCase {
                id: TestId(i as u32),
                name,
                description,
            })
            .collect()
    }
}

pub(crate) fn run_hdfs(
    registry: &Arc<Registry>,
    ids: HdfsIds,
    version: HdfsVersion,
    cfg: HdfsCfg,
    plan: Option<InjectionPlan>,
    seed: u64,
) -> RunTrace {
    let horizon = VirtualTime::from_secs(cfg.horizon_s) + VirtualTime::from_secs(600);
    run_world(registry, plan, seed, horizon, |agent, sim| {
        HdfsWorld::bootstrap(&cfg, sim);
        // Stop periodic services at the nominal horizon by bounding events:
        // the workload itself is finite; periodic ticks past the nominal
        // horizon are cheap no-ops, and the hard horizon bounds the run.
        let mut w = HdfsWorld::new(agent, ids, cfg, version);
        seed_leases(&mut w);
        w
    })
}

impl TargetSystem for MiniHdfs2 {
    fn name(&self) -> &'static str {
        "mini-hdfs2"
    }

    fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    fn tests(&self) -> Vec<TestCase> {
        Self::test_list()
    }

    fn run(&self, test: TestId, plan: Option<InjectionPlan>, seed: u64) -> RunTrace {
        run_hdfs(
            &self.registry,
            self.ids,
            HdfsVersion::V2,
            Self::cfg_for(test),
            plan,
            seed,
        )
    }

    fn known_bugs(&self) -> Vec<KnownBug> {
        hdfs2_bugs()
    }

    fn expected_contention_labels(&self) -> Vec<&'static str> {
        vec!["client_read_loop", "client_write_loop"]
    }
}

pub(crate) fn hdfs2_bugs() -> Vec<KnownBug> {
    vec![
        KnownBug {
            id: "hdfs2-lease-recovery",
            jira: "HDFS-17661",
            summary: "lease-manager delay backs up IBR processing; failed IBRs abort writes whose lease recovery re-loads the lease manager",
            labels: vec!["lease_loop", "ibr_rpc_ioe", "write_pipeline_ioe"],
        },
        KnownBug {
            id: "hdfs2-editlog-failover",
            jira: "HDFS-17836",
            summary: "edit-log sync delay triggers failover; standby-rejected IBRs are re-journaled, re-loading the sync loop",
            labels: vec!["editlog_loop", "ibr_standby_ioe"],
        },
        KnownBug {
            id: "hdfs2-block-recovery",
            jira: "HDFS-17662",
            summary: "block recovery delay times out recoveries that are blindly retried",
            labels: vec!["blockrec_loop", "blockrec_ioe"],
        },
        KnownBug {
            id: "hdfs2-write-pipeline",
            jira: "HDFS-17837",
            summary: "pipeline ack delay fails writes; recovery and IBR failures resend packets into the ack loop",
            labels: vec![
                "pipeline_ack_loop",
                "write_pipeline_ioe",
                "blockrec_ioe",
                "ibr_rpc_ioe",
            ],
        },
        KnownBug {
            id: "hdfs2-block-cache",
            jira: "HDFS-17660",
            summary: "cache rescan delay fails writes; block-pool restarts go stale and re-load the rescan loop",
            labels: vec!["cache_loop", "write_pipeline_ioe", "dn_stale"],
        },
        KnownBug {
            id: "hdfs2-ibr-throttle",
            jira: "HDFS-17780",
            summary: "failed IBR retried at the next heartbeat, bypassing the configured report interval",
            labels: vec!["ibr_process_loop", "ibr_rpc_ioe"],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MiniHdfs2 {
        MiniHdfs2::new()
    }

    fn run_t(test: u32, plan: Option<InjectionPlan>, seed: u64) -> RunTrace {
        sys().run(TestId(test), plan, seed)
    }

    #[test]
    fn profiles_are_clean_of_errors() {
        let s = sys();
        let ids = s.ids();
        for t in 0..14 {
            let trace = s.run(TestId(t), None, 11 + t as u64);
            for tp in [
                ids.tp_pipeline_ioe,
                ids.tp_ibr_ioe,
                ids.tp_ibr_standby_ioe,
                ids.np_dn_stale,
            ] {
                assert!(
                    !trace.occurred(tp),
                    "test {t}: unexpected natural fault at {tp}"
                );
            }
        }
    }

    #[test]
    fn profile_covers_core_points() {
        let ids = sys().ids();
        let trace = run_t(0, None, 5);
        for p in [
            ids.l_lease,
            ids.l_editlog,
            ids.l_pipeline_ack,
            ids.l_ibr_process,
            ids.l_ibr_send,
            ids.l_dn_monitor,
            ids.tp_pipeline_ioe,
            ids.tp_ibr_ioe,
            ids.np_dn_stale,
        ] {
            assert!(trace.coverage.contains(&p), "t0 must cover {p}");
        }
    }

    #[test]
    fn lease_delay_breaks_ibr_in_lease_test() {
        let ids = sys().ids();
        let plan = InjectionPlan::delay(ids.l_lease, VirtualTime::from_millis(3200));
        let t = run_t(2, Some(plan), 3);
        assert!(t.injected.is_some());
        assert!(t.occurred(ids.tp_ibr_ioe), "lease delay must time out IBRs");
    }

    #[test]
    fn injected_ibr_failure_fails_writes() {
        let ids = sys().ids();
        let t = run_t(1, Some(InjectionPlan::throw(ids.tp_ibr_ioe)), 3);
        assert!(t.injected.is_some());
        assert!(
            t.occurred(ids.tp_pipeline_ioe),
            "uncommitted write must trip its status check"
        );
    }

    #[test]
    fn pipeline_failure_loads_lease_manager_when_configured() {
        let ids = sys().ids();
        let base = run_t(13, None, 3).loop_count(ids.l_lease);
        let t = run_t(13, Some(InjectionPlan::throw(ids.tp_pipeline_ioe)), 3);
        assert!(
            t.loop_count(ids.l_lease) > base,
            "lease queue must grow: {} vs {base}",
            t.loop_count(ids.l_lease)
        );
    }

    #[test]
    fn editlog_delay_causes_standby_rejections_under_failover() {
        let ids = sys().ids();
        let plan = InjectionPlan::delay(ids.l_editlog, VirtualTime::from_millis(3200));
        let t = run_t(4, Some(plan), 3);
        assert!(
            t.occurred(ids.tp_ibr_standby_ioe),
            "failover window must reject IBRs"
        );
    }

    #[test]
    fn standby_rejection_reloads_editlog_when_journal_retry_on() {
        let ids = sys().ids();
        let base = run_t(12, None, 3).loop_count(ids.l_editlog);
        let t = run_t(12, Some(InjectionPlan::throw(ids.tp_ibr_standby_ioe)), 3);
        assert!(
            t.loop_count(ids.l_editlog) > base + 4,
            "re-journal must grow the sync loop: {} vs {base}",
            t.loop_count(ids.l_editlog)
        );
    }

    #[test]
    fn recovery_delay_retries_grow_recovery_loop() {
        let ids = sys().ids();
        let base = run_t(3, None, 3).loop_count(ids.l_blockrec);
        let plan = InjectionPlan::delay(ids.l_blockrec, VirtualTime::from_millis(3200));
        let t = run_t(3, Some(plan), 3);
        assert!(t.occurred(ids.tp_blockrec_ioe), "recoveries must time out");
        assert!(
            t.loop_count(ids.l_blockrec) > base,
            "blind retry must amplify: {} vs {base}",
            t.loop_count(ids.l_blockrec)
        );
    }

    #[test]
    fn small_cluster_pipeline_failure_breaks_recovery() {
        let ids = sys().ids();
        let t = run_t(9, Some(InjectionPlan::throw(ids.tp_pipeline_ioe)), 3);
        assert!(
            t.occurred(ids.tp_blockrec_ioe),
            "2-node cluster cannot recover after a pipeline failure"
        );
    }

    #[test]
    fn recovery_failure_resync_overloads_ibr() {
        let ids = sys().ids();
        let t = run_t(10, Some(InjectionPlan::throw(ids.tp_blockrec_ioe)), 3);
        assert!(
            t.occurred(ids.tp_ibr_ioe),
            "resync burst must time out IBR processing"
        );
    }

    #[test]
    fn ibr_failure_restreams_packets_in_rebuild_test() {
        let ids = sys().ids();
        let base = run_t(14, None, 3).loop_count(ids.l_pipeline_ack);
        let t = run_t(14, Some(InjectionPlan::throw(ids.tp_ibr_ioe)), 3);
        assert!(
            t.loop_count(ids.l_pipeline_ack) > base,
            "re-streaming must grow the ack loop: {} vs {base}",
            t.loop_count(ids.l_pipeline_ack)
        );
    }

    #[test]
    fn cache_delay_fails_writes_in_cache_test() {
        let ids = sys().ids();
        let plan = InjectionPlan::delay(ids.l_cache, VirtualTime::from_millis(3200));
        let t = run_t(5, Some(plan), 3);
        assert!(t.occurred(ids.tp_pipeline_ioe));
    }

    #[test]
    fn pipeline_failure_pauses_heartbeats_to_staleness() {
        let ids = sys().ids();
        let t = run_t(8, Some(InjectionPlan::throw(ids.tp_pipeline_ioe)), 3);
        assert!(
            t.occurred(ids.np_dn_stale),
            "block-pool restart must trip the staleness detector"
        );
    }

    #[test]
    fn stale_injection_grows_cache_rescan() {
        let ids = sys().ids();
        let base = run_t(5, None, 3).loop_count(ids.l_cache);
        let t = run_t(5, Some(InjectionPlan::negate(ids.np_dn_stale)), 3);
        assert!(
            t.loop_count(ids.l_cache) > base,
            "stale exclusion must re-place cached blocks: {} vs {base}",
            t.loop_count(ids.l_cache)
        );
    }

    #[test]
    fn ibr_delay_times_out_reports_in_volume_test() {
        let ids = sys().ids();
        let plan = InjectionPlan::delay(ids.l_ibr_process, VirtualTime::from_millis(3200));
        let t = run_t(6, Some(plan), 3);
        assert!(t.occurred(ids.tp_ibr_ioe));
    }

    #[test]
    fn ibr_failure_bypasses_throttle_only_when_throttled() {
        let ids = sys().ids();
        // Throttled test: send count grows.
        let base7 = run_t(7, None, 3).loop_count(ids.l_ibr_send);
        let inj7 = run_t(7, Some(InjectionPlan::throw(ids.tp_ibr_ioe)), 3);
        assert!(
            inj7.loop_count(ids.l_ibr_send) > base7,
            "throttle bypass must add sends: {} vs {base7}",
            inj7.loop_count(ids.l_ibr_send)
        );
        // Unthrottled volume test: cadence unchanged.
        let base6 = run_t(6, None, 3).loop_count(ids.l_ibr_send);
        let inj6 = run_t(6, Some(InjectionPlan::throw(ids.tp_ibr_ioe)), 3);
        let delta = inj6.loop_count(ids.l_ibr_send) as i64 - base6 as i64;
        assert!(
            delta.abs() <= 2,
            "unthrottled cadence must not change materially: {delta}"
        );
    }

    #[test]
    fn stale_negation_grows_replication_and_commands() {
        let ids = sys().ids();
        let base = run_t(0, None, 3);
        let t = run_t(0, Some(InjectionPlan::negate(ids.np_dn_stale)), 3);
        assert!(t.loop_count(ids.l_repl_monitor) > base.loop_count(ids.l_repl_monitor));
        assert!(t.loop_count(ids.l_cmd_proc) > base.loop_count(ids.l_cmd_proc));
    }

    #[test]
    fn client_contention_is_mutual() {
        let ids = sys().ids();
        let base = run_t(11, None, 3);
        let plan = InjectionPlan::delay(ids.l_client_read, VirtualTime::from_millis(3200));
        let t = run_t(11, Some(plan), 3);
        assert!(
            t.loop_count(ids.l_client_write) > base.loop_count(ids.l_client_write),
            "read delay must slow writes into re-requests: {} vs {}",
            t.loop_count(ids.l_client_write),
            base.loop_count(ids.l_client_write)
        );
    }

    #[test]
    fn offer_loop_nesting_is_declared() {
        let s = sys();
        let reg = s.registry();
        let ids = s.ids();
        let meta = reg.point(ids.l_cmd_proc).loop_meta.as_ref().unwrap();
        assert_eq!(meta.parent, Some(ids.l_offer));
        assert_eq!(meta.next_sibling, Some(ids.l_ibr_send));
    }
}
