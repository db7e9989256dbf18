//! The threaded execution engine.
//!
//! Every node of the virtual platform is a small **worker pool** draining a
//! shared per-node ready heap ([`NodeScheduler`]): workers pull the
//! highest-priority ready task, execute its kernel against the node's tile
//! stores, resolve successors and push producer outputs to remote consumer
//! nodes. The ready heap is keyed by upward-rank critical-path priorities
//! ([`Policy::CriticalPath`], the StarPU list-scheduler heuristic) or by
//! plain submission order ([`Policy::SubmissionOrder`]).
//!
//! The interconnect is abstract: workers talk only to the
//! [`sbc_net::Transport`] trait. [`Executor::try_run`] meshes the nodes up
//! in-process over [`sbc_net::InProc`] channels (the historical
//! configuration); [`Executor::run_rank`] executes a *single* rank over any
//! endpoint — including `sbc-net`'s TCP/UDS stream backends, where each
//! rank is a separate OS process — and gathers results to rank 0 with the
//! transport's `Result`/`Done` control protocol.
//!
//! Communication is *schedule-invariant*: which tiles cross node boundaries
//! is decided by placement (the data edges of the graph plus the initial
//! fetches), never by execution order, so [`CommStats`] is bit-identical at
//! any worker count, under either policy, and over every transport backend.

use sbc_kernels::{KernelBackend, KernelError, Kernels, Tile, Trans};
use sbc_matrix::generate;
use sbc_net::{inproc_mesh, Clock, Message, Payload, PeerStats, RealClock, RecvTimeout, Transport};
use sbc_obs::{FaultKind, GaugeKind, NodeRecorder, Recorder};
use sbc_taskgraph::{
    flops_priorities, EdgeKind, FieldHashMap, TaskGraph, TaskId, TaskKind, TileRef,
};
use sbc_topo::{SchedCtx, Scheduler};
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// Communication statistics of one distributed execution.
///
/// Every payload message — producer-output tiles (`Data`) *and*
/// original-tile fetches (`Orig`) — is counted at its actual byte size on
/// the sending and the receiving side. On a clean run over a faithful
/// transport the receive total equals `messages`; after an aborted run
/// (kernel failure) it may be smaller, and under a duplicate-injecting
/// [`sbc_net::Faulty`] transport `messages` may exceed the applied count
/// (receivers deduplicate, so `recv_per_node` stays at the analytic value).
///
/// These counts depend only on the task graph (placement), not on the
/// schedule: they are identical at every `workers_per_node` and under
/// either [`Policy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommStats {
    /// Total inter-node messages (tiles sent).
    pub messages: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Messages sent per node.
    pub sent_per_node: Vec<u64>,
    /// Messages received (and applied) per node.
    pub recv_per_node: Vec<u64>,
    /// Bytes sent per node (sums to `bytes`).
    pub bytes_per_node: Vec<u64>,
}

/// Result of a distributed execution: the final content of every node's
/// tile store, merged, plus communication statistics.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Final tile values keyed by logical tile. For each tile the entry
    /// comes from the single node that owned (wrote or generated) it.
    pub tiles: HashMap<TileRef, Tile>,
    /// Measured communication.
    pub stats: CommStats,
}

/// A failure during (or after) distributed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A kernel failed on a node, localized to the task and node where it
    /// occurred. All other nodes are shut down cleanly before this is
    /// returned.
    Kernel {
        /// The failing task's index in the graph.
        task: TaskId,
        /// The node executing it.
        node: u32,
        /// The kernel error (e.g. a non-SPD pivot).
        error: KernelError,
    },
    /// A tile expected in the gathered result was never produced by the
    /// execution — the graph did not cover the requested output.
    MissingTile {
        /// The absent tile.
        tile: TileRef,
    },
    /// Another rank of a multi-process run aborted (a poison arrived over
    /// the transport, or the endpoint closed). The originating error is
    /// reported by the failing rank's own process.
    Remote,
    /// The liveness watchdog fired: a rank made no progress for longer
    /// than the configured [`FaultPolicy::deadline`] while waiting on
    /// undelivered messages — the deadlock-free replacement for a silent
    /// hang over a lossy transport without a reliability session.
    Stalled {
        /// The rank whose watchdog fired.
        rank: u32,
        /// What the rank was blocked on, for diagnosis.
        waiting_on: String,
    },
}

/// Liveness policy of an execution: how long a rank may go without
/// progress (applying a message or completing a task) before its watchdog
/// aborts the run with [`ExecError::Stalled`] instead of hanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Maximum time without progress before a rank declares itself
    /// stalled; `None` (the default) disables the watchdog and restores
    /// blocking receives.
    pub deadline: Option<Duration>,
    /// How often a blocked rank wakes to check its deadline (and, under a
    /// reliability session, to drive retransmissions).
    pub heartbeat: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            deadline: None,
            heartbeat: Duration::from_millis(50),
        }
    }
}

impl FaultPolicy {
    /// A policy with the given no-progress deadline and the default
    /// heartbeat.
    pub fn with_deadline(deadline: Duration) -> Self {
        FaultPolicy {
            deadline: Some(deadline),
            ..Default::default()
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Kernel { task, node, error } => {
                write!(f, "task {task} on node {node} failed: {error}")
            }
            ExecError::MissingTile { tile } => {
                write!(f, "result tile {tile:?} was never produced")
            }
            ExecError::Remote => {
                write!(
                    f,
                    "a remote rank aborted; see its process output for the cause"
                )
            }
            ExecError::Stalled { rank, waiting_on } => {
                write!(f, "rank {rank} stalled past its deadline: {waiting_on}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Scheduling policy for each node's ready heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Pop ready tasks in submission (TaskId) order — deterministic and
    /// close to the sequential schedule; the historical behavior.
    SubmissionOrder,
    /// Pop ready tasks by upward-rank critical-path priority (flop-costed),
    /// the paper's StarPU list-scheduler configuration. The default.
    #[default]
    CriticalPath,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WaitKey {
    Task(TaskId),
    Orig(TileRef),
}

/// Where a local task's read operand comes from, resolved once per rank
/// by the [`DispatchPlan`] instead of by scanning the task's predecessors
/// on every read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// Written by a task on this rank: the current version in `local`.
    Local,
    /// Output of the given remote task, received into `cache`.
    Remote(TaskId),
    /// Original data: a fetched copy in `cache`, or, on its home rank,
    /// generated into `local` on first use.
    Original,
}

/// Per-task lists packed end to end (CSR), indexed by [`TaskId`]; tasks
/// of other ranks have empty lists.
struct Packed<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Packed<T> {
    fn with_tasks(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        Packed {
            offsets,
            items: Vec::new(),
        }
    }

    /// Ends the list of the next task in id order.
    fn close(&mut self) {
        self.offsets.push(self.items.len() as u32);
    }

    fn get(&self, t: TaskId) -> &[T] {
        let t = t as usize;
        &self.items[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }
}

/// One rank's dispatch plan, built once from the graph before its workers
/// start, so that dispatching a task only indexes into it: no predecessor
/// scans per read, no successor walks per completion, no hashing of task
/// ids.
struct DispatchPlan {
    /// Source of each read operand, in [`sbc_taskgraph::Task::reads`] order.
    operands: Packed<Operand>,
    /// Successors on this rank (data and ordering edges alike).
    local_succs: Packed<TaskId>,
    /// Distinct remote nodes the task's output is shipped to.
    dests: Packed<u32>,
    /// Which local tasks each remote arrival unblocks.
    waits: FieldHashMap<WaitKey, Vec<TaskId>>,
}

impl DispatchPlan {
    fn new(g: &TaskGraph, me: u32) -> Self {
        let n = g.len();
        let node = |t: TaskId| g.tasks()[t as usize].node;
        let mut plan = DispatchPlan {
            operands: Packed::with_tasks(n),
            local_succs: Packed::with_tasks(n),
            dests: Packed::with_tasks(n),
            waits: FieldHashMap::default(),
        };
        let mut remote = Vec::new();
        for t in 0..n as TaskId {
            let task = g.tasks()[t as usize];
            if task.node == me {
                for (p, kind) in g.preds(t) {
                    if node(p) != me {
                        debug_assert_eq!(kind, EdgeKind::Data);
                        let w = plan.waits.entry(WaitKey::Task(p)).or_default();
                        if w.last() != Some(&t) {
                            w.push(t);
                        }
                    }
                }
                for &r in task.reads(g.slices).as_slice() {
                    let producer = g.preds(t).find(|&(p, kind)| {
                        kind == EdgeKind::Data && g.tasks()[p as usize].output(g.slices) == r
                    });
                    plan.operands.items.push(match producer {
                        Some((p, _)) if node(p) == me => Operand::Local,
                        Some((p, _)) => Operand::Remote(p),
                        None => Operand::Original,
                    });
                }
                plan.local_succs
                    .items
                    .extend(g.succs(t).map(|(s, _)| s).filter(|&s| node(s) == me));
                g.remote_consumer_nodes(t, &mut remote);
                plan.dests.items.extend_from_slice(&remote);
            }
            plan.operands.close();
            plan.local_succs.close();
            plan.dests.close();
        }
        for f in g.initial_fetches() {
            if f.dest == me {
                plan.waits
                    .entry(WaitKey::Orig(f.tile))
                    .or_default()
                    .extend(f.consumers.iter().copied());
            }
        }
        plan
    }
}

/// A ready heap entry: priority (descending), then TaskId (ascending) so
/// pops are deterministic. Priorities are non-negative f32s stored as raw
/// bits, which preserves their order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct ReadyTask {
    prio: u32,
    task: std::cmp::Reverse<TaskId>,
}

/// Mutable scheduler state shared by one node's workers, guarded by
/// [`NodeScheduler::state`].
struct SchedState {
    ready: BinaryHeap<ReadyTask>,
    /// Outstanding dependencies per task, indexed by [`TaskId`] (graph
    /// in-degree plus original-tile fetches); only this rank's entries
    /// are ever decremented.
    deps: Vec<u32>,
    /// Local tasks not yet completed; the node is done at zero.
    remaining: u64,
    /// Workers currently executing a kernel.
    active: u32,
    /// A worker is blocked on (or draining) the transport's receive side.
    receiving: bool,
    /// Worker 0 has shipped the node's original-tile fetches. No task may
    /// run before this: a local task could overwrite a tile whose original
    /// value a remote consumer still needs.
    shipped: bool,
    /// Set on local kernel failure or a received poison; workers exit.
    poisoned: bool,
    error: Option<ExecError>,
}

impl SchedState {
    /// Counts one satisfied dependency of local task `t`, queueing it once
    /// none remain.
    fn release(&mut self, t: TaskId, prio: u32) {
        let d = &mut self.deps[t as usize];
        *d -= 1;
        if *d == 0 {
            self.ready.push(ReadyTask {
                prio,
                task: std::cmp::Reverse(t),
            });
        }
    }
}

/// Per-node scheduler: the dependency bookkeeping and message-apply loop
/// factored out of the worker threads. Workers take the `state` lock only
/// to pop/push ready tasks and update counters; tiles live in `RwLock`
/// stores that readers share. Message traffic goes through the rank's
/// [`Transport`] endpoint, which keeps its own wire-level accounting.
struct NodeScheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
    /// Tiles owned (generated or written) by this node.
    local: RwLock<FieldHashMap<TileRef, Tile>>,
    /// Tiles received from other nodes, keyed by producer task or fetched
    /// original.
    cache: RwLock<FieldHashMap<WaitKey, Tile>>,
    /// The rank's precomputed dispatch plan (immutable).
    plan: DispatchPlan,
    /// Original tiles this node must ship to remote consumers at startup.
    fetch_sends: Vec<(TileRef, u32)>,
    /// Payload messages received *and applied* (transport-injected
    /// duplicates are received but never applied).
    applied: AtomicU64,
    /// `Result` tiles that arrived while this rank was still executing —
    /// only rank 0 of a multi-process gather ever sees these.
    gathered: Mutex<Vec<(TileRef, Tile)>>,
    /// `Done` reports that arrived while this rank was still executing.
    dones: Mutex<Vec<(u32, PeerStats)>>,
    /// Watchdog epoch: when this rank's scheduler was built, per the
    /// executor's injected clock.
    started: Instant,
    /// The executor's time source; the watchdog is a pure function of it.
    clock: Arc<dyn Clock>,
    /// Nanoseconds after `started` at which progress (a task completed or
    /// a message applied) last happened.
    progress_ns: AtomicU64,
}

impl NodeScheduler {
    /// Time since the watchdog epoch, per the injected clock.
    fn epoch_elapsed(&self) -> Duration {
        self.clock.now().saturating_duration_since(self.started)
    }

    fn touch_progress(&self) {
        self.progress_ns
            .store(self.epoch_elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Time since this rank last made progress.
    fn stalled_for(&self) -> Duration {
        self.epoch_elapsed().saturating_sub(Duration::from_nanos(
            self.progress_ns.load(Ordering::Relaxed),
        ))
    }

    /// A human-readable account of the remote arrivals this rank is still
    /// missing, for [`ExecError::Stalled`].
    fn describe_waiting(&self) -> String {
        let cache = self
            .cache
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut missing: Vec<String> = self
            .plan
            .waits
            .keys()
            .filter(|k| !cache.contains_key(k))
            .map(|k| format!("{k:?}"))
            .collect();
        if missing.is_empty() {
            return "no undelivered remote dependencies".to_string();
        }
        missing.sort();
        format!(
            "{} undelivered remote arrivals, first {}",
            missing.len(),
            missing[0]
        )
    }
}

/// What one rank's execution produced, before any cross-rank merge.
struct RankRun {
    tiles: FieldHashMap<TileRef, Tile>,
    applied: u64,
    gathered: Vec<(TileRef, Tile)>,
    dones: Vec<(u32, PeerStats)>,
    poisoned: bool,
    error: Option<ExecError>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Provides original (input) tile contents to the executor.
///
/// The default provider generates the seeded random SPD matrix and RHS of
/// `sbc_matrix::generate`; custom providers let callers factor real data
/// or inject failures (see the failure-injection tests). Providers must be
/// pure functions of the [`TileRef`]: with several workers per node a tile
/// may be generated concurrently on overlapping paths, and every
/// generation must agree.
pub type TileProvider<'a> = dyn Fn(TileRef) -> Tile + Sync + 'a;

/// Executes a [`TaskGraph`] with a pool of worker threads per node and a
/// pluggable [`sbc_net::Transport`] as the interconnect.
///
/// Configure through [`Executor::builder`]:
///
/// ```
/// # let g = sbc_taskgraph::build_potrf(&sbc_dist::SbcExtended::new(4), 6);
/// use sbc_runtime::{Executor, Policy};
/// let out = Executor::builder(&g)
///     .block(8)
///     .seeds(42, 43)
///     .workers(2)
///     .priorities(Policy::CriticalPath)
///     .build()
///     .run();
/// assert_eq!(out.stats.messages, g.count_messages());
/// ```
pub struct Executor<'g> {
    graph: &'g TaskGraph,
    /// Tile dimension.
    pub b: usize,
    provider: Box<TileProvider<'g>>,
    recorder: Option<&'g Recorder>,
    workers: Option<usize>,
    policy: Policy,
    sched: Option<Arc<dyn Scheduler + Send + Sync>>,
    fault: FaultPolicy,
    clock: Arc<dyn Clock>,
    /// Kernel backend worker threads dispatch through.
    pub kernels: KernelBackend,
}

/// Configures and builds an [`Executor`] — the single surface for every
/// knob: block size, seeds, tile provider, recorder, worker count,
/// scheduling policy and kernel backend.
pub struct ExecutorBuilder<'g> {
    graph: &'g TaskGraph,
    b: usize,
    seed: u64,
    seed_rhs: Option<u64>,
    provider: Option<Box<TileProvider<'g>>>,
    recorder: Option<&'g Recorder>,
    workers: Option<usize>,
    policy: Policy,
    sched: Option<Arc<dyn Scheduler + Send + Sync>>,
    fault: FaultPolicy,
    clock: Arc<dyn Clock>,
    kernels: KernelBackend,
}

impl<'g> ExecutorBuilder<'g> {
    /// Tile dimension of the matrices being executed (default 32).
    pub fn block(mut self, b: usize) -> Self {
        self.b = b;
        self
    }

    /// Seeds for the default input generators: `seed` for the SPD matrix,
    /// `seed_rhs` for right-hand sides. Ignored when a custom provider is
    /// set.
    pub fn seeds(mut self, seed: u64, seed_rhs: u64) -> Self {
        self.seed = seed;
        self.seed_rhs = Some(seed_rhs);
        self
    }

    /// Seed for the default SPD generator; the RHS seed is derived from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Custom original-tile provider, replacing the seeded generators. It
    /// is called on a tile's *home* node the first time the tile is needed
    /// and must be a pure function of the [`TileRef`].
    pub fn provider(mut self, provider: impl Fn(TileRef) -> Tile + Sync + 'g) -> Self {
        self.provider = Some(Box::new(provider));
        self
    }

    /// Attaches an [`sbc_obs::Recorder`]: every worker thread records task
    /// spans (on its own per-worker track), message sends/receives,
    /// dependency waits and scheduler gauges into it.
    pub fn recorder(mut self, recorder: &'g Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Worker threads per node (clamped to at least 1). Default: available
    /// cores divided by the node count, at least 1.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Ready-heap ordering (default [`Policy::CriticalPath`]).
    pub fn priorities(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Ranks the ready heaps with an `sbc-topo` [`Scheduler`] instead of
    /// [`Policy`]. Task costs are flop counts at this executor's block size
    /// and the communication cost is one GEMM's flops (a dimensionless
    /// surrogate: only relative magnitudes matter for ordering). Stealing
    /// schedulers run without stealing here — placement is fixed by the
    /// graph, so only the ranks apply. Since every scheduler assigns
    /// priorities deterministically, swapping schedulers changes execution
    /// order but never results (tested bit-exactly).
    pub fn scheduler(mut self, sched: Arc<dyn Scheduler + Send + Sync>) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Liveness policy: watchdog deadline and heartbeat (default: no
    /// watchdog, blocking receives).
    pub fn fault_policy(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }

    /// Shorthand: arms the watchdog with the given no-progress deadline,
    /// keeping the default heartbeat.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.fault.deadline = Some(deadline);
        self
    }

    /// The time source the watchdog (progress epochs, stall deadlines,
    /// gather pacing) reads — default [`RealClock`]. Injecting an
    /// [`sbc_net::VirtualClock`] makes stall detection a pure function of
    /// explicitly advanced time: deterministic tests can fire a
    /// 1000-second deadline in milliseconds of real time.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Kernel backend the worker threads dispatch through (default
    /// [`KernelBackend::Blocked`]). The `SBC_KERNELS` environment variable,
    /// when set, overrides this value at [`build`](Self::build) time. All
    /// backends produce bit-identical tiles, so this knob changes speed,
    /// never results.
    pub fn kernels(mut self, kernels: KernelBackend) -> Self {
        self.kernels = kernels;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> Executor<'g> {
        let (nt, b) = (self.graph.nt, self.b);
        let seed = self.seed;
        let seed_rhs = self.seed_rhs.unwrap_or(seed ^ 0x05EE_D0FB);
        let provider = self
            .provider
            .unwrap_or_else(|| Box::new(move |r| default_original(r, nt, b, seed, seed_rhs)));
        Executor {
            graph: self.graph,
            b,
            provider,
            recorder: self.recorder,
            workers: self.workers,
            policy: self.policy,
            sched: self.sched,
            fault: self.fault,
            clock: self.clock,
            kernels: KernelBackend::resolve(self.kernels),
        }
    }
}

impl<'g> Executor<'g> {
    /// Starts configuring an execution of `graph`. See
    /// [`ExecutorBuilder`] for the knobs and their defaults.
    pub fn builder(graph: &'g TaskGraph) -> ExecutorBuilder<'g> {
        ExecutorBuilder {
            graph,
            b: 32,
            seed: 42,
            seed_rhs: None,
            provider: None,
            recorder: None,
            workers: None,
            policy: Policy::default(),
            sched: None,
            fault: FaultPolicy::default(),
            clock: Arc::new(RealClock),
            kernels: KernelBackend::default(),
        }
    }

    fn original(&self, r: TileRef) -> Tile {
        let t = (self.provider)(r);
        assert_eq!(
            t.dim(),
            self.b,
            "provider returned a tile of wrong dimension"
        );
        t
    }

    /// Worker threads per node for this run.
    fn workers_per_node(&self, n_nodes: usize) -> usize {
        self.workers.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            (cores / n_nodes.max(1)).max(1)
        })
    }

    /// Critical-path priorities as raw f32 bits (non-negative floats order
    /// like their bit patterns); empty = submission order. An attached
    /// [`Scheduler`] overrides the [`Policy`].
    fn priorities(&self) -> Vec<u32> {
        if let Some(sched) = &self.sched {
            let costs: Vec<f64> = self
                .graph
                .tasks()
                .iter()
                .map(|t| t.kind.flops(self.b))
                .collect();
            let ctx = SchedCtx {
                graph: self.graph,
                task_cost: &costs,
                comm_cost: sbc_kernels::flops::flops_gemm(self.b),
            };
            return sched.ranks(&ctx).into_iter().map(f32::to_bits).collect();
        }
        match self.policy {
            Policy::SubmissionOrder => Vec::new(),
            Policy::CriticalPath => flops_priorities(self.graph, self.b)
                .into_iter()
                .map(f32::to_bits)
                .collect(),
        }
    }

    /// Runs the graph to completion.
    ///
    /// # Panics
    /// Panics on kernel failure (e.g. a non-SPD input); use [`Self::try_run`]
    /// to handle that case.
    pub fn run(&self) -> ExecOutcome {
        self.try_run().expect("distributed execution failed")
    }

    /// Runs the graph to completion over an in-process channel mesh,
    /// propagating kernel failures.
    ///
    /// On failure every node is shut down via poison messages and the first
    /// failure (in node order) is returned.
    pub fn try_run(&self) -> Result<ExecOutcome, ExecError> {
        let n_nodes = self.graph.num_nodes();
        let mesh = inproc_mesh(n_nodes);
        let prio = self.priorities();
        let prio: &[u32] = &prio;

        let runs: Vec<RankRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = mesh
                .iter()
                .map(|net| scope.spawn(move || self.rank_loop(net, prio)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });

        // merge per-rank stores and the transports' accounting
        let mut tiles = HashMap::new();
        let mut sent_per_node = vec![0u64; n_nodes];
        let mut recv_per_node = vec![0u64; n_nodes];
        let mut bytes_per_node = vec![0u64; n_nodes];
        let mut first_error: Option<ExecError> = None;
        for (node, (run, net)) in runs.into_iter().zip(&mesh).enumerate() {
            let s = net.stats();
            sent_per_node[node] = s.sent_messages;
            bytes_per_node[node] = s.sent_payload_bytes;
            recv_per_node[node] = run.applied;
            if let (None, Some(e)) = (&first_error, run.error) {
                first_error = Some(e);
            }
            for (r, tile) in run.tiles {
                let prev = tiles.insert(r, tile);
                debug_assert!(prev.is_none(), "tile {r:?} stored on two nodes");
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(ExecOutcome {
            tiles,
            stats: CommStats {
                messages: sent_per_node.iter().sum(),
                bytes: bytes_per_node.iter().sum(),
                sent_per_node,
                recv_per_node,
                bytes_per_node,
            },
        })
    }

    /// Executes *this rank's* share of the graph over `net` — the entry
    /// point for multi-process runs, where each rank is its own OS process
    /// holding one transport endpoint (see `sbc_net::launch`).
    ///
    /// Every rank of the mesh must call this with the same graph and
    /// configuration. Worker ranks (`net.rank() != 0`) ship their final
    /// tiles and a [`PeerStats`] report to rank 0 and return `Ok(None)`;
    /// rank 0 waits for every report and returns the merged
    /// [`ExecOutcome`]. A failure on any rank poisons the whole mesh: the
    /// failing rank returns its own [`ExecError`], every other rank
    /// [`ExecError::Remote`].
    pub fn run_rank(&self, net: &dyn Transport) -> Result<Option<ExecOutcome>, ExecError> {
        let n = net.num_nodes();
        let me = net.rank();
        let prio = self.priorities();
        let run = self.rank_loop(net, &prio);

        if me != 0 {
            if let Some(e) = run.error {
                return Err(e);
            }
            if run.poisoned {
                return Err(ExecError::Remote);
            }
            for (r, tile) in run.tiles {
                net.send_result(0, r, tile);
            }
            let s = net.stats();
            net.send_done(
                0,
                PeerStats {
                    sent: s.sent_messages,
                    sent_bytes: s.sent_payload_bytes,
                    applied: run.applied,
                },
            );
            return Ok(None);
        }

        // rank 0: fold in anything that arrived during the run, then drain
        // the inbox until every worker rank has reported
        let mut tiles: HashMap<TileRef, Tile> = run.tiles.into_iter().collect();
        tiles.extend(run.gathered);
        let mut peer: Vec<Option<PeerStats>> = vec![None; n];
        let mut done = 0usize;
        for (src, s) in run.dones {
            if peer[src as usize].replace(s).is_none() {
                done += 1;
            }
        }
        let mut poisoned = run.poisoned;
        let mut last_report = self.clock.now();
        while done < n - 1 && !poisoned {
            let msg = match self.fault.deadline {
                None => net.recv(),
                Some(deadline) => match net.recv_timeout(self.fault.heartbeat) {
                    RecvTimeout::Msg(m) => Some(m),
                    RecvTimeout::Closed => None,
                    RecvTimeout::TimedOut => {
                        if self.clock.now().saturating_duration_since(last_report) <= deadline {
                            continue;
                        }
                        // the gather itself stalled: missing worker
                        // reports will never arrive — abort the mesh
                        for r in 1..n as u32 {
                            net.send_poison(r);
                        }
                        return Err(ExecError::Stalled {
                            rank: 0,
                            waiting_on: format!("gather: {done}/{} worker reports received", n - 1),
                        });
                    }
                },
            };
            match msg {
                Some(Message::Result { tile_ref, tile }) => {
                    tiles.insert(tile_ref, tile);
                    last_report = self.clock.now();
                }
                Some(Message::Done { src, stats }) => {
                    if peer[src as usize].replace(stats).is_none() {
                        done += 1;
                    }
                    last_report = self.clock.now();
                }
                Some(Message::Poison) | None => poisoned = true,
                // stray wakes from our own completion, a duplicate payload
                // injected after our run finished, or leftover session
                // traffic — all harmless
                Some(Message::Wake)
                | Some(Message::Payload { .. })
                | Some(Message::Seq { .. })
                | Some(Message::Ack { .. }) => {}
            }
        }
        if let Some(e) = run.error {
            return Err(e);
        }
        if poisoned {
            return Err(ExecError::Remote);
        }

        let own = net.stats();
        let mut sent_per_node = vec![0u64; n];
        let mut recv_per_node = vec![0u64; n];
        let mut bytes_per_node = vec![0u64; n];
        sent_per_node[0] = own.sent_messages;
        bytes_per_node[0] = own.sent_payload_bytes;
        recv_per_node[0] = run.applied;
        for (r, s) in peer.iter().enumerate().skip(1) {
            let s = s.expect("every worker rank reported");
            sent_per_node[r] = s.sent;
            bytes_per_node[r] = s.sent_bytes;
            recv_per_node[r] = s.applied;
        }
        Ok(Some(ExecOutcome {
            tiles,
            stats: CommStats {
                messages: sent_per_node.iter().sum(),
                bytes: bytes_per_node.iter().sum(),
                sent_per_node,
                recv_per_node,
                bytes_per_node,
            },
        }))
    }

    /// Builds one rank's scheduler from the graph and drains it with a
    /// worker pool over `net`.
    fn rank_loop(&self, net: &dyn Transport, prio: &[u32]) -> RankRun {
        let g = self.graph;
        let me = net.rank();
        let c = g.slices;
        let workers = self.workers_per_node(net.num_nodes());
        let prio_of = |t: TaskId| prio.get(t as usize).copied().unwrap_or(0);

        // dependency counters of every task; only this rank's are used
        let mut deps = g.in_degrees();
        for (t, extra) in g.fetch_deps().into_iter().enumerate() {
            deps[t] += extra;
        }
        let mut ready = BinaryHeap::new();
        let mut remaining = 0u64;
        for t in 0..g.len() as TaskId {
            if g.tasks()[t as usize].node == me {
                remaining += 1;
                if deps[t as usize] == 0 {
                    ready.push(ReadyTask {
                        prio: prio_of(t),
                        task: std::cmp::Reverse(t),
                    });
                }
            }
        }
        let fetch_sends: Vec<(TileRef, u32)> = g
            .initial_fetches()
            .iter()
            .filter(|f| f.home == me)
            .map(|f| (f.tile, f.dest))
            .collect();

        let sched = NodeScheduler {
            state: Mutex::new(SchedState {
                ready,
                deps,
                remaining,
                active: 0,
                receiving: false,
                shipped: fetch_sends.is_empty(),
                poisoned: false,
                error: None,
            }),
            cv: Condvar::new(),
            local: RwLock::new(FieldHashMap::default()),
            cache: RwLock::new(FieldHashMap::default()),
            plan: DispatchPlan::new(g, me),
            fetch_sends,
            applied: AtomicU64::new(0),
            gathered: Mutex::new(Vec::new()),
            dones: Mutex::new(Vec::new()),
            started: self.clock.now(),
            clock: Arc::clone(&self.clock),
            progress_ns: AtomicU64::new(0),
        };

        std::thread::scope(|scope| {
            for widx in 0..workers {
                let ctx = WorkerCtx {
                    exec: self,
                    g,
                    me,
                    c,
                    sched: &sched,
                    net,
                    prio,
                };
                scope.spawn(move || ctx.worker_loop(widx as u32));
            }
        });

        let state = into_inner(sched.state);
        RankRun {
            tiles: sched
                .local
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            applied: sched.applied.into_inner(),
            gathered: into_inner(sched.gathered),
            dones: into_inner(sched.dones),
            poisoned: state.poisoned,
            error: state.error,
        }
    }
}

/// Default original-tile contents: seeded SPD matrix, zero buffers, seeded
/// RHS. General (full-matrix) tiles for the LU substrate come from the
/// diagonally dominant generator.
pub(crate) fn default_original(r: TileRef, nt: usize, b: usize, seed: u64, seed_rhs: u64) -> Tile {
    match r {
        TileRef::A { phase: 0, i, j, .. } if j <= i => {
            generate::spd_tile(seed, nt, b, i as usize, j as usize)
        }
        TileRef::A { phase: 0, i, j, .. } => {
            // strictly-upper tile: only the LU (full-matrix) graphs read
            // these; mirror of the dominant generator
            generate::general_tile(seed, nt, b, i as usize, j as usize)
        }
        TileRef::A { phase, .. } => {
            panic!("phase-{phase} tiles are always produced by Move tasks")
        }
        TileRef::Buf { .. } => Tile::zeros(b),
        TileRef::B { i } => generate::rhs_tile(seed_rhs, b, i as usize),
    }
}

/// What a worker decides to do after inspecting the scheduler state.
enum Step {
    Run(TaskId),
    Receive,
    Wait,
    Exit,
}

/// Outcome of a (possibly watchdog-guarded) blocking receive.
enum Watched {
    /// A message arrived.
    Msg(Message),
    /// The rank finished or was poisoned while this worker was parked;
    /// nothing to apply.
    Interrupted,
    /// The endpoint closed.
    Closed,
    /// No progress for longer than the deadline: the watchdog fired.
    Stalled,
}

/// Everything one worker thread needs: the executor, its rank's scheduler
/// and the rank's transport endpoint.
#[derive(Clone, Copy)]
struct WorkerCtx<'w, 'g> {
    exec: &'w Executor<'g>,
    g: &'g TaskGraph,
    me: u32,
    c: usize,
    sched: &'w NodeScheduler,
    net: &'w dyn Transport,
    prio: &'w [u32],
}

impl WorkerCtx<'_, '_> {
    fn prio_of(&self, t: TaskId) -> u32 {
        self.prio.get(t as usize).copied().unwrap_or(0)
    }

    /// Blocks for the next message; with an armed watchdog, wakes every
    /// heartbeat to re-check the exit conditions and the no-progress
    /// deadline instead of parking forever.
    fn recv_watched(&self, obs: &mut Option<NodeRecorder<'_>>) -> Watched {
        let Some(deadline) = self.exec.fault.deadline else {
            return match self.net.recv() {
                Some(m) => Watched::Msg(m),
                None => Watched::Closed,
            };
        };
        loop {
            match self.net.recv_timeout(self.exec.fault.heartbeat) {
                RecvTimeout::Msg(m) => return Watched::Msg(m),
                RecvTimeout::Closed => return Watched::Closed,
                RecvTimeout::TimedOut => {
                    {
                        let st = lock(&self.sched.state);
                        if st.poisoned || st.remaining == 0 {
                            return Watched::Interrupted;
                        }
                    }
                    let stalled = self.sched.stalled_for();
                    if stalled > deadline {
                        if let Some(o) = obs.as_mut() {
                            let end = o.now();
                            o.fault(FaultKind::Stall, end - stalled.as_secs_f64(), end);
                        }
                        return Watched::Stalled;
                    }
                }
            }
        }
    }

    /// Sends one payload message. The transport counts it at its real byte
    /// size (control messages have their own untallied entry points —
    /// [`Transport::send_poison`] and friends — so the payload-vs-control
    /// split is enforced by types, not by a match at the call site).
    fn send_payload(&self, dest: u32, payload: Payload, obs: &mut Option<NodeRecorder<'_>>) {
        let orig = payload.is_orig();
        if let Some(bytes) = self.net.send_payload(dest, payload) {
            if let Some(o) = obs.as_mut() {
                o.send(dest, bytes, orig);
            }
        }
    }

    /// Main loop of one worker thread.
    fn worker_loop(&self, widx: u32) {
        let mut obs: Option<NodeRecorder<'_>> = self.exec.recorder.map(|r| r.worker(self.me, widx));

        // Worker 0 ships originals to remote consumers before any local
        // task may run (a local write could otherwise clobber an original
        // a remote consumer still needs); the other workers hold at the
        // condvar until `shipped` flips.
        if widx == 0 && !self.sched.fetch_sends.is_empty() {
            for &(tile_ref, dest) in &self.sched.fetch_sends {
                let tile = {
                    let mut local = self
                        .sched
                        .local
                        .write()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    local
                        .entry(tile_ref)
                        .or_insert_with(|| self.exec.original(tile_ref))
                        .clone()
                };
                self.send_payload(
                    dest,
                    Payload::Orig {
                        job: 0,
                        tile_ref,
                        tile,
                    },
                    &mut obs,
                );
            }
            let mut st = lock(&self.sched.state);
            st.shipped = true;
            drop(st);
            self.sched.touch_progress();
            self.sched.cv.notify_all();
        }

        loop {
            let step = {
                let mut st = lock(&self.sched.state);
                if st.poisoned || st.remaining == 0 {
                    Step::Exit
                } else if !st.shipped {
                    Step::Wait
                } else if let Some(rt) = st.ready.pop() {
                    st.active += 1;
                    if let Some(o) = obs.as_mut() {
                        o.gauge(GaugeKind::ActiveWorkers, st.active as f64);
                    }
                    Step::Run(rt.task.0)
                } else if !st.receiving {
                    st.receiving = true;
                    Step::Receive
                } else {
                    Step::Wait
                }
            };
            match step {
                Step::Exit => break,
                Step::Run(t) => self.run_task(t, &mut obs),
                Step::Receive => {
                    if !self.receive_and_apply(&mut obs) {
                        break;
                    }
                }
                Step::Wait => {
                    let st = lock(&self.sched.state);
                    if !(st.poisoned || st.remaining == 0)
                        && (!st.shipped || (st.ready.is_empty() && st.receiving))
                    {
                        // spurious wakeups only cost a loop iteration
                        drop(
                            self.sched
                                .cv
                                .wait(st)
                                .unwrap_or_else(std::sync::PoisonError::into_inner),
                        );
                    }
                }
            }
        }
        // flush this worker's event buffer into the recorder
        drop(obs);
    }

    /// Blocks on the transport as the designated receiver, applies the
    /// arrived batch and wakes the other workers. Returns `false` when the
    /// endpoint is closed or this rank's watchdog declared it stalled.
    fn receive_and_apply(&self, obs: &mut Option<NodeRecorder<'_>>) -> bool {
        let wait_start = obs.as_ref().map(|o| o.now());
        let mut batch = Vec::new();
        let alive = match self.recv_watched(obs) {
            Watched::Msg(m) => {
                batch.push(m);
                while let Some(m) = self.net.try_recv() {
                    batch.push(m);
                }
                true
            }
            Watched::Interrupted => true,
            Watched::Closed => false,
            Watched::Stalled => {
                if let Some(o) = obs.as_mut() {
                    let end = o.now();
                    o.dep_wait(wait_start.unwrap_or(end), end);
                }
                self.fail(
                    ExecError::Stalled {
                        rank: self.me,
                        waiting_on: self.sched.describe_waiting(),
                    },
                    false,
                );
                return false;
            }
        };
        if let Some(o) = obs.as_mut() {
            let end = o.now();
            o.dep_wait(wait_start.unwrap_or(end), end);
        }

        // Stash payload tiles into the cache *before* releasing any waiting
        // task (under the state lock below), so a task that becomes ready
        // always finds its operands.
        let mut arrived: Vec<WaitKey> = Vec::with_capacity(batch.len());
        let mut poisoned = !alive;
        for msg in batch {
            match msg {
                // a bare Seq means no session is wrapping this endpoint;
                // the cache's occupancy check below deduplicates it anyway
                Message::Payload { src, payload } | Message::Seq { src, payload, .. } => {
                    let key = match &payload {
                        Payload::Data { producer, .. } => WaitKey::Task(*producer),
                        Payload::Orig { tile_ref, .. } => WaitKey::Orig(*tile_ref),
                    };
                    let orig = payload.is_orig();
                    let bytes = payload.payload_bytes();
                    let tile = match payload {
                        Payload::Data { tile, .. } | Payload::Orig { tile, .. } => tile,
                    };
                    // Each producer output / original fetch arrives at most
                    // once per rank by protocol, so an occupied cache slot
                    // means a transport-injected duplicate: drop it without
                    // touching dependency counts or the applied tally.
                    let duplicate = {
                        let mut cache = self
                            .sched
                            .cache
                            .write()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        match cache.entry(key) {
                            Entry::Occupied(_) => true,
                            Entry::Vacant(slot) => {
                                slot.insert(tile);
                                false
                            }
                        }
                    };
                    if duplicate {
                        continue;
                    }
                    self.sched.applied.fetch_add(1, Ordering::Relaxed);
                    self.sched.touch_progress();
                    if let Some(o) = obs.as_mut() {
                        o.recv(src, bytes, orig);
                    }
                    arrived.push(key);
                }
                Message::Poison => poisoned = true,
                Message::Wake | Message::Ack { .. } => {}
                // gather traffic reaching rank 0 before its own run ends
                Message::Result { tile_ref, tile } => {
                    lock(&self.sched.gathered).push((tile_ref, tile));
                }
                Message::Done { src, stats } => {
                    lock(&self.sched.dones).push((src, stats));
                }
            }
        }

        // the store size only feeds the TileStore gauge
        let store_tiles = obs.is_some().then(|| {
            self.sched
                .local
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len()
        });
        let mut st = lock(&self.sched.state);
        if poisoned {
            st.poisoned = true;
        }
        for key in arrived {
            if let Some(waiting) = self.sched.plan.waits.get(&key) {
                for &t in waiting {
                    st.release(t, self.prio_of(t));
                }
            }
        }
        st.receiving = false;
        if let (Some(o), Some(store_tiles)) = (obs.as_mut(), store_tiles) {
            // sample scheduler state once per wakeup, not per task
            o.gauge(GaugeKind::TileStore, store_tiles as f64);
            o.gauge(GaugeKind::ReadyQueue, st.ready.len() as f64);
            o.gauge(GaugeKind::ActiveWorkers, st.active as f64);
        }
        let poisoned = st.poisoned;
        drop(st);
        self.sched.cv.notify_all();
        !poisoned
    }

    /// Executes one popped task, then resolves successors, publishes the
    /// output to remote consumers and updates completion bookkeeping.
    fn run_task(&self, t: TaskId, obs: &mut Option<NodeRecorder<'_>>) {
        let span_start = obs.as_ref().map(|o| o.now());
        match self.execute_task(t) {
            Ok(()) => {}
            Err(e) => {
                self.fail(
                    ExecError::Kernel {
                        task: t,
                        node: self.me,
                        error: e,
                    },
                    true,
                );
                return;
            }
        }
        self.sched.touch_progress();
        if let Some(o) = obs.as_mut() {
            let end = o.now();
            o.task(
                t,
                self.g.tasks()[t as usize].kind,
                span_start.unwrap_or(end),
                end,
            );
        }

        // successors: remote nodes get a copy of the output (one message
        // per distinct consumer node), local ones a dependency decrement
        let plan = &self.sched.plan;
        if let Some((&last, rest)) = plan.dests.get(t).split_last() {
            let out = self
                .sched
                .local
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .get(&self.g.tasks()[t as usize].output(self.c))
                .expect("task output in local store")
                .clone();
            let data = |tile| Payload::Data {
                job: 0,
                producer: t,
                tile,
            };
            for &dest in rest {
                self.send_payload(dest, data(out.clone()), obs);
            }
            self.send_payload(last, data(out), obs);
        }

        let done = {
            let mut st = lock(&self.sched.state);
            st.active -= 1;
            st.remaining -= 1;
            for &s in plan.local_succs.get(t) {
                st.release(s, self.prio_of(s));
            }
            if let Some(o) = obs.as_mut() {
                o.gauge(GaugeKind::ActiveWorkers, st.active as f64);
            }
            st.remaining == 0 && !st.poisoned
        };
        self.sched.cv.notify_all();
        if done {
            // unblock our own receiver, if one is parked in recv
            self.net.wake();
        }
    }

    /// Records a local failure, poisons every other rank and unblocks this
    /// rank's receiver. `dec_active` is true only when called from a task
    /// execution path, which incremented the active-worker count.
    fn fail(&self, e: ExecError, dec_active: bool) {
        {
            let mut st = lock(&self.sched.state);
            if dec_active {
                st.active -= 1;
            } else {
                // called from the receive path: this worker was the
                // designated receiver and is abandoning that role
                st.receiving = false;
            }
            if st.error.is_none() {
                st.error = Some(e);
            }
            st.poisoned = true;
        }
        self.sched.cv.notify_all();
        for n in 0..self.net.num_nodes() as u32 {
            if n != self.me {
                self.net.send_poison(n);
            }
        }
        self.net.wake();
    }

    /// Copies read operand `r` out of the store the dispatch plan names:
    /// local producer output (local store), remote producer output (data
    /// cache), or original data (fetch cache, or the local store,
    /// generated on first use).
    fn resolve_read(&self, operand: Operand, r: TileRef) -> Tile {
        let local = || {
            self.sched
                .local
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        let cache = || {
            self.sched
                .cache
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        match operand {
            Operand::Local => local()
                .get(&r)
                .expect("local producer wrote the tile")
                .clone(),
            Operand::Remote(p) => cache()
                .get(&WaitKey::Task(p))
                .expect("dependency ensured arrival")
                .clone(),
            Operand::Original => {
                if let Some(tile) = cache().get(&WaitKey::Orig(r)) {
                    return tile.clone();
                }
                self.sched
                    .local
                    .write()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .entry(r)
                    .or_insert_with(|| self.exec.original(r))
                    .clone()
            }
        }
    }

    /// Executes one task's kernel against the node-local stores.
    ///
    /// The target tile is *removed* from the store for the kernel call and
    /// reinserted afterwards; this is safe because the graph's ordering
    /// edges guarantee no same-node reader of the current version is
    /// running concurrently with its writer (remote readers use received
    /// copies).
    fn execute_task(&self, t: TaskId) -> Result<(), KernelError> {
        let task = self.g.tasks()[t as usize];
        let reads = task.reads(self.c);
        let read_tiles: Vec<Tile> = reads
            .as_slice()
            .iter()
            .zip(self.sched.plan.operands.get(t))
            .map(|(&r, &operand)| self.resolve_read(operand, r))
            .collect();
        let target_ref = task.output(self.c);
        let mut target = {
            let mut local = self
                .sched
                .local
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            local.remove(&target_ref).unwrap_or_else(|| {
                if matches!(task.kind, TaskKind::Move { .. }) {
                    // a Move fully overwrites its target; never generate
                    // data for a later-phase tile
                    Tile::zeros(self.exec.b)
                } else {
                    self.exec.original(target_ref)
                }
            })
        };

        let result = run_kernel(self.exec.kernels, task.kind, &read_tiles, &mut target);
        self.sched
            .local
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(target_ref, target);
        result
    }
}

/// Dispatches one task kind to its kernel on the given backend.
pub(crate) fn run_kernel(
    kernels: KernelBackend,
    kind: TaskKind,
    read_tiles: &[Tile],
    target: &mut Tile,
) -> Result<(), KernelError> {
    match kind {
        TaskKind::Potrf { .. } => kernels.potrf(target)?,
        TaskKind::Trsm { .. } => kernels.trsm_right_lower_trans(1.0, &read_tiles[0], target),
        TaskKind::Syrk { .. } => kernels.syrk(Trans::No, -1.0, &read_tiles[0], 1.0, target),
        TaskKind::Gemm { .. } => kernels.gemm(
            Trans::No,
            Trans::Yes,
            -1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::Reduce { .. } => target.add_assign(&read_tiles[0]),
        TaskKind::TrsmFwd { .. } => kernels.trsm_left_lower(1.0, &read_tiles[0], target),
        TaskKind::GemmFwd { .. } => kernels.gemm(
            Trans::No,
            Trans::No,
            -1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::TrsmBwd { .. } => kernels.trsm_left_lower_trans(1.0, &read_tiles[0], target),
        TaskKind::GemmBwd { .. } => kernels.gemm(
            Trans::Yes,
            Trans::No,
            -1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::TrsmRInv { .. } => kernels.trsm_right_lower(-1.0, &read_tiles[0], target),
        TaskKind::GemmInv { .. } => kernels.gemm(
            Trans::No,
            Trans::No,
            1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::TrsmLInv { .. } => kernels.trsm_left_lower(1.0, &read_tiles[0], target),
        TaskKind::TrtriDiag { .. } => kernels.trtri(target)?,
        TaskKind::SyrkLu { .. } => kernels.syrk(Trans::Yes, 1.0, &read_tiles[0], 1.0, target),
        TaskKind::GemmLu { .. } => kernels.gemm(
            Trans::Yes,
            Trans::No,
            1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::TrmmLu { .. } => kernels.trmm_left_lower_trans(&read_tiles[0], target),
        TaskKind::LauumDiag { .. } => kernels.lauum(target),
        TaskKind::Getrf { .. } => kernels.getrf(target)?,
        TaskKind::TrsmRow { .. } => kernels.trsm_left_unit_lower(&read_tiles[0], target),
        TaskKind::TrsmCol { .. } => kernels.trsm_right_upper(&read_tiles[0], target),
        TaskKind::GemmTrail { .. } => kernels.gemm(
            Trans::No,
            Trans::No,
            -1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::Move { .. } => *target = read_tiles[0].clone(),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_dist::{SbcExtended, TwoDBlockCyclic};
    use sbc_net::{FaultConfig, Faulty};
    use sbc_taskgraph::build_potrf;

    #[test]
    fn ready_heap_pops_high_priority_then_low_task_id() {
        let mut heap = BinaryHeap::new();
        for (prio, task) in [(1.0f32, 5u32), (3.0, 9), (3.0, 2), (0.0, 0)] {
            heap.push(ReadyTask {
                prio: prio.to_bits(),
                task: std::cmp::Reverse(task),
            });
        }
        let order: Vec<TaskId> = std::iter::from_fn(|| heap.pop().map(|r| r.task.0)).collect();
        assert_eq!(order, vec![2, 9, 5, 0]);
    }

    type TileSnapshot = Vec<(TileRef, Vec<f64>)>;

    #[test]
    fn worker_counts_do_not_change_results_or_traffic() {
        let d = SbcExtended::new(5); // 10 nodes
        let g = build_potrf(&d, 12);
        let mut base: Option<(TileSnapshot, CommStats)> = None;
        for workers in [1usize, 2, 4] {
            let out = Executor::builder(&g)
                .block(8)
                .seeds(2022, 7)
                .workers(workers)
                .build()
                .run();
            let mut tiles: TileSnapshot = out
                .tiles
                .iter()
                .map(|(r, t)| (*r, t.as_slice().to_vec()))
                .collect();
            tiles.sort_by_key(|(r, _)| format!("{r:?}"));
            match &base {
                None => base = Some((tiles, out.stats)),
                Some((t0, s0)) => {
                    assert_eq!(t0, &tiles, "tiles differ at workers={workers}");
                    assert_eq!(s0, &out.stats, "stats differ at workers={workers}");
                }
            }
        }
    }

    #[test]
    fn policies_agree_on_results_and_traffic() {
        let d = TwoDBlockCyclic::new(3, 2);
        let g = build_potrf(&d, 10);
        let run = |p: Policy| {
            Executor::builder(&g)
                .block(8)
                .seeds(1, 2)
                .workers(2)
                .priorities(p)
                .build()
                .run()
        };
        let a = run(Policy::CriticalPath);
        let b = run(Policy::SubmissionOrder);
        assert_eq!(a.stats, b.stats);
        for (r, t) in &a.tiles {
            assert_eq!(
                t.as_slice(),
                b.tiles[r].as_slice(),
                "tile {r:?} differs between policies"
            );
        }
    }

    #[test]
    fn builder_defaults_match_explicit_configuration() {
        let d = SbcExtended::new(4);
        let g = build_potrf(&d, 8);
        let a = Executor::builder(&g).block(8).seed(9).build().run();
        let b = Executor::builder(&g)
            .block(8)
            .seeds(9, 9 ^ 0x05EE_D0FB)
            .build()
            .run();
        assert_eq!(a.stats, b.stats);
        for (r, t) in &a.tiles {
            assert_eq!(t.as_slice(), b.tiles[r].as_slice());
        }
    }

    /// Drives `run_rank` over a caller-owned mesh, one thread per rank,
    /// returning rank 0's gathered outcome.
    fn run_ranks<T: Transport>(exec: &Executor<'_>, mesh: &[T]) -> ExecOutcome {
        std::thread::scope(|scope| {
            let handles: Vec<_> = mesh
                .iter()
                .map(|net| scope.spawn(move || exec.run_rank(net)))
                .collect();
            let mut out = None;
            for h in handles {
                if let Some(o) = h.join().expect("rank thread panicked").unwrap() {
                    out = Some(o);
                }
            }
            out.expect("rank 0 gathered an outcome")
        })
    }

    #[test]
    fn run_rank_gather_matches_try_run() {
        let d = SbcExtended::new(4); // 6 nodes
        let g = build_potrf(&d, 10);
        let exec = Executor::builder(&g)
            .block(8)
            .seeds(2022, 7)
            .workers(1)
            .build();
        let expected = exec.try_run().unwrap();
        let mesh = inproc_mesh(g.num_nodes());
        let outcome = run_ranks(&exec, &mesh);
        assert_eq!(outcome.stats, expected.stats);
        assert_eq!(outcome.tiles.len(), expected.tiles.len());
        for (r, t) in &expected.tiles {
            assert_eq!(outcome.tiles[r], *t, "tile {r:?} differs");
        }
    }

    #[test]
    fn duplicating_and_delaying_transport_does_not_change_the_result() {
        let d = TwoDBlockCyclic::new(2, 2);
        let g = build_potrf(&d, 8);
        let exec = Executor::builder(&g)
            .block(8)
            .seeds(3, 4)
            .workers(2)
            .build();
        let clean = exec.try_run().unwrap();
        let cfg = FaultConfig {
            dup_every: 2,
            delay: Some(std::time::Duration::from_micros(50)),
            ..Default::default()
        };
        let mesh: Vec<_> = inproc_mesh(g.num_nodes())
            .into_iter()
            .map(|t| Faulty::new(t, cfg))
            .collect();
        let outcome = run_ranks(&exec, &mesh);
        // duplicates inflate the wire counts but are never applied, so the
        // result and the applied totals stay at the clean run's values
        let injected: u64 = mesh.iter().map(|t| t.duplicated()).sum();
        assert!(injected > 0, "the fault plan injected nothing");
        assert_eq!(outcome.stats.messages, clean.stats.messages + injected);
        assert_eq!(outcome.stats.recv_per_node, clean.stats.recv_per_node);
        for (r, t) in &clean.tiles {
            assert_eq!(outcome.tiles[r], *t, "tile {r:?} differs under faults");
        }
    }
}
