//! The unified entry point: one builder for every distributed operation.
//!
//! [`Run`] replaces the old family of `run_*` free functions (each a
//! slightly different signature) with a single fluent surface:
//!
//! ```
//! use sbc_dist::SbcExtended;
//! use sbc_runtime::{Policy, Run};
//!
//! let dist = SbcExtended::new(4);
//! let out = Run::potrf(&dist, 8)
//!     .block(8)
//!     .seed(2022)
//!     .workers(2)
//!     .priorities(Policy::CriticalPath)
//!     .execute()
//!     .unwrap();
//! let l = out.factor(); // lower tiles hold L
//! assert!(out.stats.messages > 0);
//! assert_eq!(l.tile(0, 0).dim(), 8);
//! ```
//!
//! A `Run` owns its task graph (built at construction, so it can be
//! inspected via [`Run::graph`] before executing), and `execute` gathers
//! the workload's result fallibly: a tile missing from the merged stores
//! surfaces as [`ExecError::MissingTile`] instead of a panic.

use crate::executor::{
    CommStats, ExecError, ExecOutcome, Executor, FaultPolicy, Policy, TileProvider,
};
use sbc_dist::{Distribution, RowCyclic, TwoPointFiveD};
use sbc_kernels::{KernelBackend, Tile};
use sbc_matrix::{generate, FullTiledMatrix, SymmetricTiledMatrix, TiledPanel};
use sbc_net::Transport;
use sbc_obs::Recorder;
use sbc_taskgraph::{
    build_lauum, build_lu, build_posv, build_potrf, build_potrf_25d, build_potri,
    build_potri_remap, build_trtri, TaskGraph, TileRef,
};
use std::collections::HashMap;

/// Which distributed operation a [`Run`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cholesky factorization (`A = L·Lᵀ`).
    Potrf,
    /// 2.5D Cholesky with accumulation slices (paper Section IV).
    Potrf25d,
    /// Factorize and solve against a right-hand-side panel.
    Posv,
    /// LU factorization without pivoting (diagonally dominant input).
    Lu,
    /// Inversion of the lower-triangular factor.
    Trtri,
    /// `Lᵀ·L` product of the lower triangle.
    Lauum,
    /// Full SPD inverse (POTRF + TRTRI + LAUUM).
    Potri,
    /// POTRI with the paper's "SBC remap 2DBC" redistribution
    /// (Section V-F.2).
    PotriRemap,
}

/// The gathered result of a [`Run`], by workload shape.
pub enum RunResult {
    /// A symmetric tiled matrix (factor, inverse, …) — every workload
    /// except POSV and LU.
    Factor(SymmetricTiledMatrix),
    /// The solution panel of a POSV run.
    Solution(TiledPanel),
    /// The packed LU factors of an LU run.
    Full(FullTiledMatrix),
}

impl std::fmt::Debug for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunResult::Factor(_) => "Factor(SymmetricTiledMatrix)",
            RunResult::Solution(_) => "Solution(TiledPanel)",
            RunResult::Full(_) => "Full(FullTiledMatrix)",
        })
    }
}

/// What [`Run::execute`] returns: the gathered result plus the measured
/// communication.
#[derive(Debug)]
pub struct RunOutput {
    /// Measured communication statistics (schedule-invariant: identical at
    /// every worker count and scheduling policy).
    pub stats: CommStats,
    result: RunResult,
}

impl RunOutput {
    /// The symmetric result matrix.
    ///
    /// # Panics
    /// Panics if the workload was POSV or LU — use [`Self::solution`] /
    /// [`Self::lu_factors`] for those.
    pub fn factor(&self) -> &SymmetricTiledMatrix {
        match &self.result {
            RunResult::Factor(m) => m,
            other => panic!("workload produced {other:?}, not a symmetric matrix"),
        }
    }

    /// The POSV solution panel.
    ///
    /// # Panics
    /// Panics if the workload was not POSV.
    pub fn solution(&self) -> &TiledPanel {
        match &self.result {
            RunResult::Solution(x) => x,
            other => panic!("workload produced {other:?}, not a solution panel"),
        }
    }

    /// The packed LU factors.
    ///
    /// # Panics
    /// Panics if the workload was not LU.
    pub fn lu_factors(&self) -> &FullTiledMatrix {
        match &self.result {
            RunResult::Full(m) => m,
            other => panic!("workload produced {other:?}, not LU factors"),
        }
    }

    /// Decomposes into the result and the statistics.
    pub fn into_parts(self) -> (RunResult, CommStats) {
        (self.result, self.stats)
    }
}

/// A configured distributed operation, ready to execute.
///
/// Construct with one of the workload constructors ([`Run::potrf`],
/// [`Run::posv`], …), adjust the knobs, then [`Run::execute`]. Defaults:
/// tile size 32, seed 42 (RHS seed derived), worker count and scheduling
/// policy from [`Executor`]'s defaults.
pub struct Run<'a> {
    graph: TaskGraph,
    workload: Workload,
    nt: usize,
    slices: usize,
    gather_phase: u8,
    b: usize,
    seed: u64,
    seed_rhs: Option<u64>,
    workers: Option<usize>,
    policy: Policy,
    sched: Option<std::sync::Arc<dyn sbc_topo::Scheduler + Send + Sync>>,
    fault: FaultPolicy,
    clock: Option<std::sync::Arc<dyn sbc_net::Clock>>,
    recorder: Option<&'a Recorder>,
    provider: Option<Box<TileProvider<'a>>>,
    kernels: KernelBackend,
}

impl<'a> Run<'a> {
    fn with_graph(graph: TaskGraph, workload: Workload, nt: usize) -> Self {
        Run {
            graph,
            workload,
            nt,
            slices: 1,
            gather_phase: 0,
            b: 32,
            seed: 42,
            seed_rhs: None,
            workers: None,
            policy: Policy::default(),
            sched: None,
            fault: FaultPolicy::default(),
            clock: None,
            recorder: None,
            provider: None,
            kernels: KernelBackend::default(),
        }
    }

    /// Cholesky factorization of the seeded SPD matrix under `dist`.
    pub fn potrf<D: Distribution>(dist: &D, nt: usize) -> Self {
        Self::with_graph(build_potrf(dist, nt), Workload::Potrf, nt)
    }

    /// 2.5D Cholesky factorization (Section IV). The final value of tile
    /// `(i, j)` lives on the slice that executed iteration `j`.
    pub fn potrf_25d<D: Distribution>(d25: &TwoPointFiveD<D>, nt: usize) -> Self {
        let mut run = Self::with_graph(build_potrf_25d(d25, nt), Workload::Potrf25d, nt);
        run.slices = d25.slices();
        run
    }

    /// POSV: factorize the seeded SPD matrix and solve against the seeded
    /// right-hand side distributed by `rhs_dist`.
    pub fn posv<D: Distribution>(dist: &D, rhs_dist: &RowCyclic, nt: usize) -> Self {
        Self::with_graph(build_posv(dist, rhs_dist, nt), Workload::Posv, nt)
    }

    /// LU factorization (no pivoting) of the seeded diagonally dominant
    /// general matrix.
    pub fn lu<D: Distribution>(dist: &D, nt: usize) -> Self {
        Self::with_graph(build_lu(dist, nt), Workload::Lu, nt)
    }

    /// TRTRI of the lower triangle of the seeded matrix.
    pub fn trtri<D: Distribution>(dist: &D, nt: usize) -> Self {
        Self::with_graph(build_trtri(dist, nt), Workload::Trtri, nt)
    }

    /// LAUUM of the lower triangle of the seeded matrix.
    pub fn lauum<D: Distribution>(dist: &D, nt: usize) -> Self {
        Self::with_graph(build_lauum(dist, nt), Workload::Lauum, nt)
    }

    /// POTRI (full SPD inverse) under one distribution.
    pub fn potri<D: Distribution>(dist: &D, nt: usize) -> Self {
        Self::with_graph(build_potri(dist, nt), Workload::Potri, nt)
    }

    /// POTRI with the paper's "SBC remap 2DBC" strategy: factor under
    /// `sym`, remap to `bc` for the inversion, remap back.
    pub fn potri_remap<A: Distribution, B: Distribution>(sym: &A, bc: &B, nt: usize) -> Self {
        let mut run = Self::with_graph(build_potri_remap(sym, bc, nt), Workload::PotriRemap, nt);
        run.gather_phase = 2;
        run
    }

    /// Tile dimension (default 32).
    pub fn block(mut self, b: usize) -> Self {
        self.b = b;
        self
    }

    /// Seed of the generated input matrix (default 42). The RHS seed is
    /// derived from it unless [`Self::seed_rhs`] is set.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seed of the generated right-hand-side panel (POSV).
    pub fn seed_rhs(mut self, seed_rhs: u64) -> Self {
        self.seed_rhs = Some(seed_rhs);
        self
    }

    /// Worker threads per node (clamped to at least 1). Default: available
    /// cores divided by the node count, at least 1.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Ready-heap scheduling policy (default [`Policy::CriticalPath`]).
    pub fn priorities(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Ranks the ready heaps with an `sbc-topo` [`Scheduler`](sbc_topo::Scheduler)
    /// from the zoo, overriding [`Self::priorities`]. Results are
    /// bit-identical under every scheduler; only execution order changes.
    pub fn scheduler(
        mut self,
        sched: std::sync::Arc<dyn sbc_topo::Scheduler + Send + Sync>,
    ) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Liveness watchdog configuration (default: no deadline — blocking
    /// receives never time out).
    pub fn fault_policy(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }

    /// Shorthand: arm the watchdog with `deadline` as the maximum time a
    /// rank may sit without progress before the run fails with
    /// [`ExecError::Stalled`] instead of hanging.
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.fault.deadline = Some(deadline);
        self
    }

    /// The time source the watchdog reads (default: real time). See
    /// [`ExecutorBuilder::clock`](crate::ExecutorBuilder::clock).
    pub fn clock(mut self, clock: std::sync::Arc<dyn sbc_net::Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Kernel backend the worker threads dispatch through (default
    /// [`KernelBackend::Blocked`]); the `SBC_KERNELS` environment variable
    /// overrides it. Backends are bit-identical — factors, residuals and
    /// communication statistics do not depend on this knob, only speed
    /// does.
    pub fn kernels(mut self, kernels: KernelBackend) -> Self {
        self.kernels = kernels;
        self
    }

    /// Record the execution: task spans per worker, message events,
    /// dependency waits, scheduler gauges.
    pub fn recorder(mut self, recorder: &'a Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Custom original-tile provider replacing the seeded generators. Must
    /// be a pure function of the [`TileRef`].
    pub fn provider(mut self, provider: impl Fn(TileRef) -> Tile + Sync + 'a) -> Self {
        self.provider = Some(Box::new(provider));
        self
    }

    /// The workload this run executes.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The task graph this run will execute — inspectable before
    /// [`Self::execute`] (e.g. for message-count assertions).
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Executes the graph and gathers the workload's result.
    ///
    /// Kernel failures and missing result tiles surface as [`ExecError`];
    /// every node shuts down cleanly first.
    pub fn execute(self) -> Result<RunOutput, ExecError> {
        self.run_with(|e| e.try_run().map(Some))
            .map(|o| o.expect("try_run always returns an outcome"))
    }

    /// Executes *this rank's* share of the graph over `net` — the
    /// multi-process counterpart of [`Self::execute`], one OS process (or
    /// caller-managed thread) per rank.
    ///
    /// Every rank must construct an identical `Run` and call this with its
    /// own transport endpoint. Worker ranks return `Ok(None)` after
    /// shipping their tiles to rank 0; rank 0 gathers and returns
    /// `Ok(Some(output))`. See [`Executor::run_rank`].
    pub fn execute_rank(self, net: &dyn Transport) -> Result<Option<RunOutput>, ExecError> {
        self.run_with(|e| e.run_rank(net))
    }

    fn run_with(
        self,
        f: impl FnOnce(&Executor<'_>) -> Result<Option<ExecOutcome>, ExecError>,
    ) -> Result<Option<RunOutput>, ExecError> {
        let Run {
            graph,
            workload,
            nt,
            slices,
            gather_phase,
            b,
            seed,
            seed_rhs,
            workers,
            policy,
            sched,
            fault,
            clock,
            recorder,
            provider,
            kernels,
        } = self;
        let seed_rhs = seed_rhs.unwrap_or(seed ^ 0x05EE_D0FB);

        let mut builder = Executor::builder(&graph)
            .block(b)
            .seeds(seed, seed_rhs)
            .priorities(policy)
            .fault_policy(fault)
            .kernels(kernels);
        if let Some(s) = sched {
            builder = builder.scheduler(s);
        }
        if let Some(c) = clock {
            builder = builder.clock(c);
        }
        if let Some(w) = workers {
            builder = builder.workers(w);
        }
        if let Some(r) = recorder {
            builder = builder.recorder(r);
        }
        let lu_provider;
        if let Some(p) = provider {
            builder = builder.provider(p);
        } else if workload == Workload::Lu {
            // LU inputs are general (non-symmetric) tiles everywhere,
            // unlike the symmetric operations' default provider
            lu_provider = move |r: TileRef| match r {
                TileRef::A { phase: 0, i, j, .. } => {
                    generate::general_tile(seed, nt, b, i as usize, j as usize)
                }
                _ => unreachable!("LU graphs only touch phase-0 matrix tiles"),
            };
            builder = builder.provider(lu_provider);
        }

        let out = match f(&builder.build())? {
            None => return Ok(None),
            Some(out) => out,
        };
        let result = match workload {
            Workload::Potrf | Workload::Trtri | Workload::Lauum | Workload::Potri => {
                RunResult::Factor(gather_symmetric(&out.tiles, nt, b, 0, |_| 0)?)
            }
            Workload::PotriRemap => {
                RunResult::Factor(gather_symmetric(&out.tiles, nt, b, gather_phase, |_| 0)?)
            }
            Workload::Potrf25d => RunResult::Factor(gather_symmetric(&out.tiles, nt, b, 0, |j| {
                (j % slices) as u8
            })?),
            Workload::Posv => RunResult::Solution(gather_panel(&out.tiles, nt, b)?),
            Workload::Lu => RunResult::Full(gather_full(&out.tiles, nt, b)?),
        };
        Ok(Some(RunOutput {
            stats: out.stats,
            result,
        }))
    }
}

/// Looks a result tile up, reporting absence as an error instead of
/// panicking (the executor's stores only hold what the graph produced).
fn require(tiles: &HashMap<TileRef, Tile>, r: TileRef) -> Result<&Tile, ExecError> {
    tiles.get(&r).ok_or(ExecError::MissingTile { tile: r })
}

/// Assembles the lower-triangular factor from an execution's merged tile
/// stores: tile `(i, j)` is `TileRef::A { phase, slice: slice_of(j), .. }`.
/// Used by [`Run`] for its own gathers and by the resident service to
/// materialize per-job factors.
pub fn gather_symmetric(
    tiles: &HashMap<TileRef, Tile>,
    nt: usize,
    b: usize,
    phase: u8,
    slice_of: impl Fn(usize) -> u8,
) -> Result<SymmetricTiledMatrix, ExecError> {
    let tile_ref = |i: usize, j: usize| TileRef::A {
        phase,
        slice: slice_of(j),
        i: i as u32,
        j: j as u32,
    };
    for i in 0..nt {
        for j in 0..=i {
            require(tiles, tile_ref(i, j))?;
        }
    }
    Ok(SymmetricTiledMatrix::from_tile_fn(nt, b, |i, j| {
        tiles[&tile_ref(i, j)].clone()
    }))
}

fn gather_panel(
    tiles: &HashMap<TileRef, Tile>,
    nt: usize,
    b: usize,
) -> Result<TiledPanel, ExecError> {
    for i in 0..nt {
        require(tiles, TileRef::B { i: i as u32 })?;
    }
    Ok(TiledPanel::from_tile_fn(nt, b, |i| {
        tiles[&TileRef::B { i: i as u32 }].clone()
    }))
}

fn gather_full(
    tiles: &HashMap<TileRef, Tile>,
    nt: usize,
    b: usize,
) -> Result<FullTiledMatrix, ExecError> {
    let tile_ref = |i: usize, j: usize| TileRef::A {
        phase: 0,
        slice: 0,
        i: i as u32,
        j: j as u32,
    };
    for i in 0..nt {
        for j in 0..nt {
            require(tiles, tile_ref(i, j))?;
        }
    }
    Ok(FullTiledMatrix::from_tile_fn(nt, b, |i, j| {
        tiles[&tile_ref(i, j)].clone()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_dist::comm;
    use sbc_dist::{SbcExtended, TwoDBlockCyclic};
    use sbc_matrix::{potrf_tiled, random_spd};

    #[test]
    fn builder_run_matches_sequential_and_analytic_counts() {
        let dist = SbcExtended::new(5);
        let nt = 12;
        let run = Run::potrf(&dist, nt).block(8).seed(2022);
        let expected_messages = run.graph().count_messages();
        let out = run.execute().unwrap();
        assert_eq!(out.stats.messages, expected_messages);
        assert_eq!(out.stats.messages, comm::potrf_messages(&dist, nt));
        let mut seq = random_spd(2022, nt, 8);
        potrf_tiled(&mut seq).unwrap();
        for (i, j) in seq.tile_coords() {
            assert_eq!(out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)), 0.0);
        }
    }

    #[test]
    fn gather_reports_missing_tiles_instead_of_panicking() {
        // a graph covering only 4 tiles cannot gather a 6-tile matrix
        let dist = TwoDBlockCyclic::new(2, 2);
        let mut run = Run::potrf(&dist, 2).block(8).seed(1);
        run.nt = 3; // ask the gather for more than the graph produced
        let err = run.execute().unwrap_err();
        match err {
            ExecError::MissingTile { tile } => {
                assert!(matches!(tile, TileRef::A { i: 2, .. }), "{tile:?}");
            }
            other => panic!("expected MissingTile, got {other:?}"),
        }
    }

    #[test]
    fn accessor_panics_carry_workload_context() {
        let dist = TwoDBlockCyclic::new(1, 1);
        let out = Run::potrf(&dist, 2).block(8).execute().unwrap();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = out.solution();
        }));
        assert!(res.is_err());
        let (result, stats) = out.into_parts();
        assert!(matches!(result, RunResult::Factor(_)));
        assert_eq!(stats.messages, 0);
    }
}
