//! Traced set-up and layer replays.
//!
//! For every job of the traced pass this module
//!
//! 1. re-does the job's set-up in spans: `workload.trace.synthesize`
//!    (trace jobs) and `sim.experiments.build` (the spec executed with
//!    zero warm-up and one measured transaction);
//! 2. replays the job's inputs into single layers through their public
//!    APIs, each call batch in a span: `workload.draw` (the job's own
//!    generator), `node.buffer.lookup` (per-node buffers fed the drawn
//!    references), `storage.call` (the misses, commit writes, log
//!    writes and write-backs of that buffer replay), `lockmgr.request`
//!    and `lockmgr.release` (the GEM table or the PCL GLAs, fed the
//!    drawn lock requests), and `desim.calendar.op` (a hold model).
//!
//! Replay sizes and shapes come from the workload's generator or from
//! the job's own observed run (`RunReport`): the number of transactions
//! drawn is the run's admissions, the lock window is the run's mean
//! number of active transactions (throughput × response time, Little's
//! law), and the calendar holds that many transactions' events plus one
//! arrival per node, with hold times matching the run's event rate.

use crate::run::{JobOutcome, Pass};
use crate::spans::Tracer;
use crate::workloads::{truncated, BenchJob};
use dbshare_lockmgr::pcl::GlaState;
use dbshare_lockmgr::{GemLockTable, LockMode, LockReply};
use dbshare_model::{
    CouplingMode, NodeId, PageId, StorageAllocation, SystemConfig, TxnId, TxnSpec, UpdateStrategy,
};
use dbshare_node::buffer::{BufferManager, Lookup};
use dbshare_sim::experiments::{BtStorage, RunSpec};
use dbshare_sim::RunReport;
use dbshare_storage::StorageSubsystem;
use dbshare_workload::trace::{Trace, TraceGenConfig};
use dbshare_workload::{DebitCredit, DebitCreditWorkload, TraceWorkload, Workload};
use desim::{Calendar, Rng, SimDuration, SimTime};

/// Transactions drawn per `workload.draw` span.
const DRAW_CHUNK: usize = 1024;
/// Transactions per `node.buffer.lookup` span.
const BUFFER_CHUNK: usize = 256;
/// Storage calls per `storage.call` span.
const STORAGE_CHUNK: usize = 1024;
/// Calendar holds per `desim.calendar.op` span.
const CALENDAR_CHUNK: usize = 4096;
/// Upper bound on calendar holds replayed per job (the 128-node runs
/// process millions of events; a quarter million holds is plenty to
/// time the calendar at their depth).
const CALENDAR_HOLDS_MAX: u64 = 1 << 18;

/// Counts summed over every replayed job, plus the engine's own
/// per-transaction counts weighted the same way, for fidelity checks.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Transactions drawn from the jobs' generators.
    pub draws: u64,
    /// Page references of those transactions.
    pub refs: u64,
    /// Record accesses of those transactions.
    pub records: u64,
    /// Buffer lookups.
    pub lookups: u64,
    /// Lookups that found a valid copy.
    pub hits: u64,
    /// Lookups that displaced a buffered page.
    pub evictions: u64,
    /// Lock requests issued.
    pub lock_requests: u64,
    /// Locks released.
    pub lock_releases: u64,
    /// Requests that had to queue.
    pub lock_conflicts: u64,
    /// Storage calls (reads, commit writes, log writes, write-backs).
    pub storage_calls: u64,
    /// Storage reads, commit writes and log writes: the calls the
    /// engine's `reads_per_txn + writes_per_txn` counts.
    pub storage_rw: u64,
    /// Calendar schedules plus pops.
    pub calendar_ops: u64,
    /// Calendar depth weighted by operations.
    pub calendar_depth_ops: f64,
    /// Σ draws × `Workload::mean_accesses` (engine-side records).
    pub engine_records: f64,
    /// Σ draws × `RunReport::lock_requests_per_txn`.
    pub engine_lock_requests: f64,
    /// Σ draws × (`reads_per_txn` + `writes_per_txn`).
    pub engine_storage_rw: f64,
}

impl Replay {
    /// Mean calendar depth over all replayed operations.
    pub fn calendar_depth(&self) -> f64 {
        self.calendar_depth_ops / self.calendar_ops.max(1) as f64
    }

    /// One line per replay: its per-transaction count beside
    /// the engine's, with the ratio and its base.
    pub fn fidelity_lines(&self) -> Vec<String> {
        let per = |x: f64| x / self.draws.max(1) as f64;
        let line = |what: &str, replay: f64, engine: f64, base: &str| {
            format!(
                "{what}: replay {:.4}/txn vs engine {:.4}/txn, ratio {:.4} (base: {base}, {} txns)",
                per(replay),
                per(engine),
                replay / engine.max(f64::MIN_POSITIVE),
                self.draws
            )
        };
        vec![
            line(
                "workload records",
                self.records as f64,
                self.engine_records,
                "Workload::mean_accesses of the job's generator",
            ),
            line(
                "lockmgr requests",
                self.lock_requests as f64,
                self.engine_lock_requests,
                "RunReport::lock_requests_per_txn",
            ),
            line(
                "storage reads+writes",
                self.storage_rw as f64,
                self.engine_storage_rw,
                "RunReport::reads_per_txn + writes_per_txn",
            ),
        ]
    }
}

/// Replays every completed job of `pass` (see the module docs).
pub fn replay_all(jobs: &[BenchJob], pass: &Pass, tracer: &mut Tracer) -> Replay {
    let mut acc = Replay::default();
    for (i, (job, outcome)) in jobs.iter().zip(&pass.jobs).enumerate() {
        if let JobOutcome {
            result: Some(result),
            ..
        } = outcome
        {
            replay_job(i as u32, job, &result.report, tracer, &mut acc);
        }
    }
    acc
}

fn replay_job(id: u32, job: &BenchJob, report: &RunReport, tracer: &mut Tracer, acc: &mut Replay) {
    let trace = tracer.span(id, "setup", |t| {
        let trace = match job.spec {
            RunSpec::Trace(p) => Some(t.span(id, "workload.trace.synthesize", |_| {
                Trace::synthesize(&TraceGenConfig::default(), p.seed)
            })),
            _ => None,
        };
        t.span(id, "sim.experiments.build", |_| {
            std::hint::black_box(truncated(job.spec).execute().events_processed)
        });
        trace
    });
    let (cfg, mut wl) = layer_config(&job.spec, trace);
    tracer.span(id, "replay", |t| {
        let txns = draw(id, t, wl.as_mut(), report, job.spec.seed(), acc);
        acc.engine_records += txns.len() as f64 * wl.mean_accesses();
        acc.engine_lock_requests += txns.len() as f64 * report.lock_requests_per_txn;
        acc.engine_storage_rw += txns.len() as f64 * (report.reads_per_txn + report.writes_per_txn);
        let ops = buffer(id, t, &cfg, &txns, acc);
        storage(id, t, &cfg, &ops, acc);
        locks(id, t, &cfg, wl.as_ref(), &txns, report, acc);
        calendar(id, t, cfg.nodes as usize, report, job.spec.seed(), acc);
    });
}

/// The job's system configuration and a fresh instance of its workload
/// generator, assembled as the experiment presets assemble them.
fn layer_config(spec: &RunSpec, trace: Option<Trace>) -> (SystemConfig, Box<dyn Workload>) {
    match *spec {
        RunSpec::DebitCredit(p) | RunSpec::LockEngine { params: p, .. } => {
            let mut cfg = SystemConfig::debit_credit(p.nodes);
            cfg.coupling = p.coupling;
            cfg.update = p.update;
            cfg.routing = p.routing;
            cfg.buffer_pages_per_node = p.buffer;
            cfg.page_transfer = p.transfer;
            cfg.log_storage = p.log;
            let dc = DebitCredit::new(p.nodes, cfg.arrival_tps_per_node);
            let bt_pages = dc.bt_pages();
            let mut wl = DebitCreditWorkload::new(dc, cfg.arrival_tps_per_node, p.routing);
            if !p.clustered {
                wl = wl.unclustered();
            }
            cfg.partitions = wl.partitions().to_vec();
            let bt = &mut cfg.partitions[dbshare_workload::debit_credit::BT.index()];
            let disks = match bt.storage {
                StorageAllocation::Disk { disks }
                | StorageAllocation::CachedDisk { disks, .. }
                | StorageAllocation::WriteBufferedDisk { disks, .. } => disks,
                StorageAllocation::Gem => 0,
            };
            bt.storage = match p.bt {
                BtStorage::Disk => bt.storage.clone(),
                BtStorage::Gem => StorageAllocation::Gem,
                BtStorage::VolatileCache | BtStorage::NvCache => StorageAllocation::CachedDisk {
                    disks,
                    cache_pages: bt_pages,
                    nonvolatile: p.bt == BtStorage::NvCache,
                },
                BtStorage::GemWriteBuffer => StorageAllocation::WriteBufferedDisk {
                    disks,
                    buffer_pages: (bt_pages / 4).max(16),
                },
            };
            (cfg, Box::new(wl))
        }
        RunSpec::Trace(p) => {
            let mut cfg = SystemConfig::debit_credit(p.nodes);
            cfg.arrival_tps_per_node = 50.0;
            cfg.coupling = p.coupling;
            cfg.update = UpdateStrategy::NoForce;
            cfg.routing = p.routing;
            cfg.buffer_pages_per_node = 1_000;
            cfg.pcl_read_optimization = p.read_optimization;
            let trace = trace.expect("trace jobs synthesize their trace during set-up");
            let wl = TraceWorkload::new(trace, p.nodes, p.routing);
            cfg.partitions = wl.partitions().to_vec();
            (cfg, Box::new(wl))
        }
        RunSpec::Scale(p) => {
            let mut cfg = SystemConfig::debit_credit(p.nodes);
            cfg.arrival_tps_per_node = p.tps_per_node;
            cfg.coupling = p.coupling;
            cfg.page_metadata_budget = Some(p.page_metadata_budget);
            let dc = DebitCredit::with_accounts(p.nodes, p.accounts);
            let wl = DebitCreditWorkload::new(dc, p.tps_per_node, cfg.routing);
            cfg.partitions = wl.partitions().to_vec();
            (cfg, Box::new(wl))
        }
    }
}

/// Draws as many transactions as the observed run admitted.
fn draw(
    id: u32,
    t: &mut Tracer,
    wl: &mut dyn Workload,
    report: &RunReport,
    seed: u64,
    acc: &mut Replay,
) -> Vec<(NodeId, TxnSpec)> {
    let n = report.profile.arrivals as usize;
    let mut rng = Rng::seed_from_u64(seed);
    let mut txns = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let len = DRAW_CHUNK.min(n - start);
        t.span(id, "workload.draw", |_| {
            for _ in 0..len {
                txns.push(wl.next(&mut rng));
            }
        });
        start += len;
    }
    acc.draws += n as u64;
    for (_, spec) in &txns {
        acc.refs += spec.refs().len() as u64;
        acc.records += spec
            .refs()
            .iter()
            .map(|r| u64::from(r.records))
            .sum::<u64>();
    }
    txns
}

/// A storage call produced by the buffer replay.
#[derive(Debug, Clone, Copy)]
enum StorageOp {
    /// A new transaction arrives: advance the replay clock.
    Arrival,
    /// Buffer miss on a page that must be read.
    Read(PageId),
    /// Commit-time force write of a modified page.
    Force(PageId),
    /// Write-back of a dirty page displaced from the buffer.
    WriteBack(PageId),
    /// Commit log write of the transaction's node.
    Log(NodeId),
}

/// Feeds every reference through its node's buffer, versioned by a
/// per-page sequence number bumped at each committed write, and
/// returns the storage calls that result.
fn buffer(
    id: u32,
    t: &mut Tracer,
    cfg: &SystemConfig,
    txns: &[(NodeId, TxnSpec)],
    acc: &mut Replay,
) -> Vec<StorageOp> {
    let locking: Vec<bool> = cfg.partitions.iter().map(|p| p.locking).collect();
    let capacity = cfg.buffer_pages_per_node as usize;
    let force = cfg.update == UpdateStrategy::Force;
    let mut bufs: Vec<BufferManager> = (0..cfg.nodes)
        .map(|_| BufferManager::new(cfg.buffer_pages_per_node, cfg.partitions.len()))
        .collect();
    let mut seqno: desim::fxhash::FxHashMap<PageId, u64> = Default::default();
    let mut ops = Vec::with_capacity(txns.len() * 8);
    let mut written: Vec<PageId> = Vec::new();
    let (mut lookups, mut hits, mut evictions) = (0u64, 0u64, 0u64);
    for chunk in txns.chunks(BUFFER_CHUNK) {
        t.span(id, "node.buffer.lookup", |_| {
            for (node, spec) in chunk {
                ops.push(StorageOp::Arrival);
                let buf = &mut bufs[node.index()];
                for r in spec.refs() {
                    lookups += 1;
                    let versioned = locking[r.page.partition().index()];
                    let current = seqno.get(&r.page).copied().unwrap_or(0);
                    let found = if versioned {
                        buf.lookup(r.page, current)
                    } else {
                        buf.lookup_unversioned(r.page)
                    };
                    if found == Lookup::Hit {
                        hits += 1;
                        continue;
                    }
                    if buf.len() >= capacity {
                        evictions += 1;
                    }
                    if !r.append {
                        ops.push(StorageOp::Read(r.page));
                    }
                    if let Some((page, _)) = buf.insert(r.page, current, false) {
                        ops.push(StorageOp::WriteBack(page));
                    }
                }
                written.clear();
                for r in spec.refs().iter().filter(|r| r.mode.is_write()) {
                    if written.contains(&r.page) {
                        continue;
                    }
                    written.push(r.page);
                    let s = seqno.entry(r.page).or_insert(0);
                    *s += 1;
                    if let Some((page, _)) = buf.mark_dirty(r.page, *s) {
                        ops.push(StorageOp::WriteBack(page));
                    }
                    if force {
                        buf.mark_clean(r.page);
                        ops.push(StorageOp::Force(r.page));
                    }
                }
                ops.push(StorageOp::Log(*node));
            }
        });
    }
    acc.lookups += lookups;
    acc.hits += hits;
    acc.evictions += evictions;
    ops
}

/// Issues the buffer replay's storage calls at the workload's arrival
/// spacing.
fn storage(id: u32, t: &mut Tracer, cfg: &SystemConfig, ops: &[StorageOp], acc: &mut Replay) {
    let mut st = StorageSubsystem::new(cfg);
    let gap = SimDuration::from_secs_f64(1.0 / (cfg.arrival_tps_per_node * f64::from(cfg.nodes)));
    let mut now = SimTime::ZERO;
    let (mut calls, mut rw) = (0u64, 0u64);
    for chunk in ops.chunks(STORAGE_CHUNK) {
        t.span(id, "storage.call", |_| {
            for op in chunk {
                let served = match *op {
                    StorageOp::Arrival => {
                        now += gap;
                        continue;
                    }
                    StorageOp::Read(page) => {
                        rw += 1;
                        st.read_page(now, page)
                    }
                    StorageOp::Force(page) => {
                        rw += 1;
                        st.write_page(now, page)
                    }
                    StorageOp::Log(node) => {
                        rw += 1;
                        st.write_log(now, node)
                    }
                    StorageOp::WriteBack(page) => st.write_page(now, page),
                };
                std::hint::black_box(served.done);
                calls += 1;
            }
        });
    }
    acc.storage_calls += calls;
    acc.storage_rw += rw;
}

/// Mean number of transactions in the observed run's system
/// (throughput × mean response time).
fn active_txns(report: &RunReport) -> usize {
    (report.throughput_tps * report.mean_response_ms / 1000.0).round() as usize
}

/// Lock requests of one transaction: page, mode, GLA node.
type Requests = Vec<(PageId, LockMode, NodeId)>;

/// Requests the drawn transactions' locks in windows of the run's
/// mean active transactions, releasing each window after the next
/// one has requested (so between one and two windows hold locks).
fn locks(
    id: u32,
    t: &mut Tracer,
    cfg: &SystemConfig,
    wl: &dyn Workload,
    txns: &[(NodeId, TxnSpec)],
    report: &RunReport,
    acc: &mut Replay,
) {
    let gla = wl.gla_map();
    let locking: Vec<bool> = cfg.partitions.iter().map(|p| p.locking).collect();
    // A request is issued unless a covering lock is already held.
    let reqs: Vec<Requests> = txns
        .iter()
        .map(|(_, spec)| {
            let mut out: Requests = Vec::new();
            for r in spec
                .refs()
                .iter()
                .filter(|r| locking[r.page.partition().index()])
            {
                let mode = if r.mode.is_write() {
                    LockMode::Write
                } else {
                    LockMode::Read
                };
                let held = out
                    .iter()
                    .find(|(p, _, _)| *p == r.page)
                    .map(|&(_, m, _)| m);
                if held.is_some_and(|m| m.covers(mode)) {
                    continue;
                }
                out.push((r.page, mode, gla.gla_of(r.page)));
            }
            out
        })
        .collect();
    // Per transaction: the GLA nodes it locked at and how many locks it
    // releases, worked out here so the release spans time only the
    // lock-table calls.
    let release_plan: Vec<(Vec<NodeId>, u64)> = reqs
        .iter()
        .map(|r| {
            let mut nodes: Vec<NodeId> = r.iter().map(|&(_, _, node)| node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            let mut pages: Vec<PageId> = r.iter().map(|&(page, _, _)| page).collect();
            pages.sort_unstable();
            pages.dedup();
            (nodes, pages.len() as u64)
        })
        .collect();
    let pcl = cfg.coupling == CouplingMode::Pcl;
    let read_opt = cfg.pcl_read_optimization;
    let mut gem = GemLockTable::new();
    let mut glas: Vec<GlaState> = (0..cfg.nodes).map(|_| GlaState::new()).collect();
    let mut queued: Vec<Vec<PageId>> = vec![Vec::new(); txns.len()];
    let window = active_txns(report).max(1);
    let (mut requests, mut releases, mut conflicts) = (0u64, 0u64, 0u64);

    let mut release = |t: &mut Tracer,
                       range: std::ops::Range<usize>,
                       gem: &mut GemLockTable,
                       glas: &mut [GlaState],
                       queued: &[Vec<PageId>]| {
        t.span(id, "lockmgr.release", |_| {
            for k in range {
                let txn = TxnId::new(k as u64 + 1);
                let (nodes, locks) = &release_plan[k];
                if pcl {
                    for node in nodes {
                        glas[node.index()].release_all(txn);
                    }
                    for &page in &queued[k] {
                        glas[gla.gla_of(page).index()].release(txn, page);
                    }
                } else {
                    gem.release_all(txn);
                    for &page in &queued[k] {
                        gem.release(txn, page);
                    }
                }
                releases += locks;
            }
        });
    };

    let mut previous: Option<std::ops::Range<usize>> = None;
    let mut start = 0;
    while start < txns.len() {
        let range = start..(start + window).min(txns.len());
        t.span(id, "lockmgr.request", |_| {
            for k in range.clone() {
                let txn = TxnId::new(k as u64 + 1);
                let from = txns[k].0;
                for &(page, mode, node) in &reqs[k] {
                    requests += 1;
                    let reply = if pcl {
                        glas[node.index()]
                            .request(txn, from, page, mode, node == from, read_opt)
                            .reply
                    } else {
                        gem.request(txn, page, mode).reply
                    };
                    if reply == LockReply::Queued {
                        conflicts += 1;
                        queued[k].push(page);
                    }
                }
            }
        });
        if let Some(prev) = previous.take() {
            release(t, prev, &mut gem, &mut glas, &queued);
        }
        start = range.end;
        previous = Some(range);
    }
    if let Some(prev) = previous {
        release(t, prev, &mut gem, &mut glas, &queued);
    }
    acc.lock_requests += requests;
    acc.lock_releases += releases;
    acc.lock_conflicts += conflicts;
}

/// Hold model at the observed run's calendar occupancy: one pending
/// event per active transaction plus one arrival per node, each held
/// for an exponential time whose mean makes the pop rate equal the
/// run's events per simulated second.
fn calendar(
    id: u32,
    t: &mut Tracer,
    nodes: usize,
    report: &RunReport,
    seed: u64,
    acc: &mut Replay,
) {
    let depth = active_txns(report) + nodes;
    let events = report.events_processed;
    if events == 0 || report.sim_seconds <= 0.0 {
        return;
    }
    let holds = events.min(CALENDAR_HOLDS_MAX) as usize;
    let mean_hold_ns = depth as f64 * report.sim_seconds * 1e9 / events as f64;
    let mut rng = Rng::seed_from_u64(seed ^ 0xCA1E_0DA5);
    let incs: Vec<u64> = (0..depth + holds)
        .map(|_| rng.exp(mean_hold_ns).max(1.0) as u64)
        .collect();
    let mut cal: Calendar<u32> = Calendar::new();
    t.span(id, "desim.calendar.op", |_| {
        for (k, &inc) in incs[..depth].iter().enumerate() {
            cal.schedule(SimTime::from_nanos(inc), k as u32);
        }
    });
    for chunk in incs[depth..].chunks(CALENDAR_CHUNK) {
        t.span(id, "desim.calendar.op", |_| {
            for &inc in chunk {
                let (now, e) = cal.pop().expect("hold model keeps the calendar non-empty");
                cal.schedule(now + SimDuration::from_nanos(inc), e);
            }
        });
    }
    let ops = (depth + 2 * holds) as u64;
    acc.calendar_ops += ops;
    acc.calendar_depth_ops += depth as f64 * ops as f64;
}
