//! Differential oracle runner.
//!
//! A [`DiffSubject`] is a pair of supposedly equivalent implementations plus
//! a proptest-backed scenario generator. [`run_differential`] executes the
//! pair on seeded generated cases; on the first mismatch it greedily shrinks
//! the case while the divergence persists, then reports the first diverging
//! step, the minimized counterexample, and the `xr_obs` span context at the
//! divergence point — and writes the whole report to
//! [`crate::artifact_dir`] so CI can upload it.
//!
//! Shipped subjects cover the workspace's four equivalence-sensitive kernel
//! pairs (naive vs. blocked matmul, dense vs. CSR SpMM, brute-force vs.
//! spatial-grid ORCA neighbors, serial vs. parallel runner), the POSHGNN
//! hot-path pairs (cached vs. fresh MIA, tape-free vs. tape step, pooled
//! vs. fresh tape) and the scene and server pairs. Case generation is
//! deterministic — case `i` always draws from the same seed — so failures
//! reproduce exactly across runs, machines, and thread counts.

use proptest::collection::vec as pvec;
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xr_crowd::{Agent, CrowdSimulator, Room, SimConfig};
use xr_datasets::{Dataset, DatasetKind, ScenarioConfig};
use xr_graph::geom::Point2;
use xr_tensor::{CsrAdj, Matrix};

/// Seed stream for case generation: fixed base, decorrelated per index.
fn case_seed(case_index: usize) -> u64 {
    0x5EED_D1FF_0000_0000 ^ (case_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The first step at which the two implementations disagree.
#[derive(Debug, Clone)]
pub struct StepDivergence {
    /// Subject-defined step index (time step, element index, cell index…).
    pub step: usize,
    /// What disagreed, with both values.
    pub detail: String,
}

/// A fully described divergence, as returned by [`run_differential`].
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which implementation pair diverged.
    pub pair: String,
    /// Index of the originally failing generated case.
    pub case_index: usize,
    /// RNG seed that regenerates the original case.
    pub case_seed: u64,
    /// First diverging step of the **minimized** case.
    pub step: usize,
    /// Mismatch detail at that step.
    pub detail: String,
    /// Description of the originally generated case.
    pub original_case: String,
    /// Description of the greedily minimized case.
    pub minimized_case: String,
    /// Number of successful shrink steps applied.
    pub shrink_steps: usize,
    /// `xr_obs` span path active at the divergence point.
    pub span_path: String,
}

impl Divergence {
    /// The artifact / panic-message rendering.
    pub fn render(&self) -> String {
        format!(
            "differential divergence: {}\n\
             case #{} (seed {:#x})\n\
             first diverging step: {}\n\
             detail: {}\n\
             span context: {}\n\
             original case: {}\n\
             minimized case ({} shrink steps): {}\n",
            self.pair,
            self.case_index,
            self.case_seed,
            self.step,
            self.detail,
            if self.span_path.is_empty() { "(no active obs context)" } else { &self.span_path },
            self.original_case,
            self.shrink_steps,
            self.minimized_case
        )
    }
}

/// A differential pair: scenario generation, comparison, and shrinking.
pub trait DiffSubject {
    /// One generated scenario.
    type Case;

    /// Name of the implementation pair (used in reports and artifacts).
    fn pair(&self) -> String;

    /// Draws one case from `rng` (typically via proptest strategies).
    fn generate(&self, rng: &mut StdRng) -> Self::Case;

    /// Runs both implementations; `Some` describes the first diverging step.
    fn compare(&self, case: &Self::Case) -> Option<StepDivergence>;

    /// Strictly smaller candidate cases, tried in order during shrinking.
    fn shrink(&self, _case: &Self::Case) -> Vec<Self::Case> {
        Vec::new()
    }

    /// One-line description of a case for the report.
    fn describe(&self, case: &Self::Case) -> String;
}

/// Result of a differential run.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The pair that was exercised.
    pub pair: String,
    /// Cases executed before stopping (all of them when no divergence).
    pub cases_run: usize,
    /// The minimized divergence, if any case disagreed.
    pub divergence: Option<Divergence>,
}

/// Runs `subject` on `cases` generated scenarios, stopping at (and
/// minimizing) the first divergence. Shrinking is greedy: the first shrink
/// candidate that still diverges becomes the new case, until none does.
pub fn run_differential<S: DiffSubject>(subject: &S, cases: usize) -> DiffReport {
    let pair = subject.pair();
    // run under *some* observability context so the flight recorder has the
    // recent span/event history to dump when a case diverges; harnesses that
    // installed their own context keep it. The panic hook covers assertion
    // panics (assert_no_divergence, golden replays) when AFTER_FLIGHT_DUMP
    // is set — CI points it into the artifact dir.
    xr_obs::recorder::install_panic_hook();
    let own_ctx = if xr_obs::is_active() { None } else { Some(xr_obs::ObsCtx::new(true, false)) };
    let _own_guard = own_ctx.as_ref().map(xr_obs::ObsCtx::install);
    let _span = xr_obs::span!("xr_check.diff", cases = cases);
    for case_index in 0..cases {
        xr_obs::counter_add("xr_check.diff.cases", &[("pair", pair.as_str())], 1);
        let seed = case_seed(case_index);
        let mut rng = StdRng::seed_from_u64(seed);
        let case = subject.generate(&mut rng);
        let Some(first) = subject.compare(&case) else { continue };
        // capture the obs span context at the divergence point, before any
        // shrinking re-runs overwrite it
        let span_path = xr_obs::current_span_path();
        let original_desc = subject.describe(&case);

        let mut minimized = case;
        let mut at = first;
        let mut shrink_steps = 0usize;
        'shrinking: loop {
            for candidate in subject.shrink(&minimized) {
                if let Some(d) = subject.compare(&candidate) {
                    minimized = candidate;
                    at = d;
                    shrink_steps += 1;
                    continue 'shrinking;
                }
            }
            break;
        }

        let divergence = Divergence {
            pair: pair.clone(),
            case_index,
            case_seed: seed,
            step: at.step,
            detail: at.detail,
            original_case: original_desc,
            minimized_case: subject.describe(&minimized),
            shrink_steps,
            span_path,
        };
        let file = format!("counterexample-{}.txt", sanitize(&pair));
        crate::write_artifact(&file, &divergence.render());
        // drop the flight recorder next to the counterexample: the recent
        // span/event ring shows what the process was doing when it diverged
        let flight = crate::artifact_dir().join(format!("flight-{}.json", sanitize(&pair)));
        xr_obs::recorder::dump_to(&flight, "diff_divergence");
        return DiffReport { pair, cases_run: case_index + 1, divergence: Some(divergence) };
    }
    DiffReport { pair, cases_run: cases, divergence: None }
}

/// [`run_differential`] that panics with the rendered report on divergence —
/// the assertion form the test suites use.
pub fn assert_no_divergence<S: DiffSubject>(subject: &S, cases: usize) {
    let report = run_differential(subject, cases);
    if let Some(d) = report.divergence {
        panic!("{}\n(artifact in {})", d.render(), crate::artifact_dir().display());
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect()
}

/// Bitwise comparison of two matrices; `Some` carries the first differing
/// element as a linear "step".
fn first_bit_mismatch(label: &str, a: &Matrix, b: &Matrix) -> Option<StepDivergence> {
    debug_assert_eq!(a.shape(), b.shape());
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        if x.to_bits() != y.to_bits() {
            let (r, c) = (i / a.cols(), i % a.cols());
            return Some(StepDivergence {
                step: i,
                detail: format!("{label}[{r},{c}]: {x:?} ({:#x}) vs {y:?} ({:#x})", x.to_bits(), y.to_bits()),
            });
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Kernel pair 1: naive vs. register-tiled dense matmul (bit-identical claim).
// ---------------------------------------------------------------------------

/// `Matrix::matmul_naive` vs. the register-tiled `Matrix::matmul`.
/// Dimensions in `1..80` cover full and partial 2×8 register tiles and the
/// single-column path.
pub struct MatmulNaiveVsBlocked;

/// A generated matmul case.
pub struct MatmulCase {
    /// Left operand.
    pub a: Matrix,
    /// Right operand.
    pub b: Matrix,
}

impl DiffSubject for MatmulNaiveVsBlocked {
    type Case = MatmulCase;

    fn pair(&self) -> String {
        "matmul: naive vs blocked".to_string()
    }

    fn generate(&self, rng: &mut StdRng) -> MatmulCase {
        let (m, k, n) = (1usize..80, 1usize..80, 1usize..80).generate(rng);
        let a = pvec(-2.0f64..2.0, m * k).generate(rng);
        let b = pvec(-2.0f64..2.0, k * n).generate(rng);
        MatmulCase { a: Matrix::from_vec(m, k, a).unwrap(), b: Matrix::from_vec(k, n, b).unwrap() }
    }

    fn compare(&self, case: &MatmulCase) -> Option<StepDivergence> {
        first_bit_mismatch("product", &case.a.matmul_naive(&case.b), &case.a.matmul(&case.b))
    }

    fn shrink(&self, case: &MatmulCase) -> Vec<MatmulCase> {
        // halve each dimension in turn (top-left submatrices)
        let (m, k) = case.a.shape();
        let n = case.b.cols();
        let sub = |mat: &Matrix, rows: usize, cols: usize| Matrix::from_fn(rows, cols, |r, c| mat.row(r)[c]);
        let mut out = Vec::new();
        if m > 1 {
            out.push(MatmulCase { a: sub(&case.a, m / 2, k), b: case.b.clone() });
        }
        if k > 1 {
            out.push(MatmulCase { a: sub(&case.a, m, k / 2), b: sub(&case.b, k / 2, n) });
        }
        if n > 1 {
            out.push(MatmulCase { a: case.a.clone(), b: sub(&case.b, k, n / 2) });
        }
        out
    }

    fn describe(&self, case: &MatmulCase) -> String {
        let (m, k) = case.a.shape();
        format!("A({m}×{k}) · B({k}×{})", case.b.cols())
    }
}

// ---------------------------------------------------------------------------
// Kernel pair 2: CSR SpMM vs. dense matmul (tolerance claim: the sparse
// kernel skips explicit zeros, so accumulation order differs).
// ---------------------------------------------------------------------------

/// `CsrAdj::matmul_dense` vs. `Matrix::matmul_naive` on the densified
/// operand, compared within `tol · scale`.
pub struct SpmmVsDense {
    /// Elementwise tolerance (scaled by the inner dimension).
    pub tol: f64,
}

impl Default for SpmmVsDense {
    fn default() -> Self {
        SpmmVsDense { tol: 1e-12 }
    }
}

/// A generated SpMM case.
pub struct SpmmCase {
    /// Sparse entries `(row, col, value)` of the left operand.
    pub entries: Vec<(usize, usize, f64)>,
    /// Left-operand dimension (square, adjacency-like).
    pub n: usize,
    /// Dense right operand (`n × f`).
    pub rhs: Matrix,
}

impl SpmmCase {
    fn csr(&self) -> CsrAdj {
        CsrAdj::from_entries(self.n, self.n, &self.entries)
    }

    fn dense(&self) -> Matrix {
        self.csr().to_dense()
    }
}

impl DiffSubject for SpmmVsDense {
    type Case = SpmmCase;

    fn pair(&self) -> String {
        "spmm: csr vs dense".to_string()
    }

    fn generate(&self, rng: &mut StdRng) -> SpmmCase {
        let (n, f, nnz) = (2usize..24, 1usize..9, 0usize..80).generate(rng);
        let entries: Vec<(usize, usize, f64)> = pvec((0usize..n, 0usize..n, -2.0f64..2.0), nnz).generate(rng);
        let rhs = Matrix::from_vec(n, f, pvec(-2.0f64..2.0, n * f).generate(rng)).unwrap();
        SpmmCase { entries, n, rhs }
    }

    fn compare(&self, case: &SpmmCase) -> Option<StepDivergence> {
        let sparse = case.csr().matmul_dense(&case.rhs);
        let dense = case.dense().matmul_naive(&case.rhs);
        let scale = case.n as f64;
        for (i, (s, d)) in sparse.as_slice().iter().zip(dense.as_slice()).enumerate() {
            if (s - d).abs() > self.tol * scale {
                let (r, c) = (i / sparse.cols(), i % sparse.cols());
                return Some(StepDivergence {
                    step: i,
                    detail: format!("spmm[{r},{c}]: sparse {s:?} vs dense {d:?}"),
                });
            }
        }
        None
    }

    fn shrink(&self, case: &SpmmCase) -> Vec<SpmmCase> {
        let mut out = Vec::new();
        if !case.entries.is_empty() {
            // drop the second half of the nonzeros
            let half = case.entries.len() / 2;
            out.push(SpmmCase { entries: case.entries[..half].to_vec(), n: case.n, rhs: case.rhs.clone() });
        }
        if case.rhs.cols() > 1 {
            let f = case.rhs.cols() / 2;
            out.push(SpmmCase {
                entries: case.entries.clone(),
                n: case.n,
                rhs: Matrix::from_fn(case.n, f, |r, c| case.rhs.row(r)[c]),
            });
        }
        out
    }

    fn describe(&self, case: &SpmmCase) -> String {
        format!("A({0}×{0}, {1} raw entries) · B({0}×{2})", case.n, case.entries.len(), case.rhs.cols())
    }
}

// ---------------------------------------------------------------------------
// Kernel pair 3: brute-force vs. spatial-grid ORCA neighbor search
// (bit-identical trajectory claim).
// ---------------------------------------------------------------------------

/// Two [`CrowdSimulator`]s over the same agents — `use_spatial_grid` off vs.
/// on — stepped in lockstep and compared bitwise each step.
pub struct OrcaGridVsBrute;

/// A generated crowd case.
pub struct OrcaCase {
    /// `(position, goal)` per agent, inside the room.
    pub agents: Vec<(Point2, Point2)>,
    /// Square room side length.
    pub side: f64,
    /// Steps to simulate.
    pub steps: usize,
}

impl DiffSubject for OrcaGridVsBrute {
    type Case = OrcaCase;

    fn pair(&self) -> String {
        "orca neighbors: brute vs grid".to_string()
    }

    fn generate(&self, rng: &mut StdRng) -> OrcaCase {
        let (n, steps, side) = (2usize..12, 1usize..7, 4.0f64..10.0).generate(rng);
        let coord = 0.2f64..(side - 0.2);
        let agents = pvec((coord.clone(), coord.clone(), coord.clone(), coord), n)
            .generate(rng)
            .into_iter()
            .map(|(px, py, gx, gy)| (Point2::new(px, py), Point2::new(gx, gy)))
            .collect();
        OrcaCase { agents, side, steps }
    }

    fn compare(&self, case: &OrcaCase) -> Option<StepDivergence> {
        let build = |grid: bool| {
            let agents = case.agents.iter().map(|&(p, g)| Agent::new(p, g)).collect();
            let room = Room::new(case.side, case.side);
            CrowdSimulator::new(agents, room, SimConfig { use_spatial_grid: grid, ..SimConfig::default() })
        };
        let mut brute = build(false);
        let mut grid = build(true);
        for step in 0..case.steps {
            brute.step();
            grid.step();
            for (i, (a, b)) in brute.positions().iter().zip(grid.positions()).enumerate() {
                if a.x.to_bits() != b.x.to_bits() || a.y.to_bits() != b.y.to_bits() {
                    return Some(StepDivergence {
                        step,
                        detail: format!(
                            "agent {i} at step {step}: brute ({:?}, {:?}) vs grid ({:?}, {:?})",
                            a.x, a.y, b.x, b.y
                        ),
                    });
                }
            }
        }
        None
    }

    fn shrink(&self, case: &OrcaCase) -> Vec<OrcaCase> {
        let mut out = Vec::new();
        if case.agents.len() > 2 {
            let half = (case.agents.len() / 2).max(2);
            out.push(OrcaCase { agents: case.agents[..half].to_vec(), side: case.side, steps: case.steps });
        }
        if case.steps > 1 {
            out.push(OrcaCase { agents: case.agents.clone(), side: case.side, steps: case.steps / 2 });
        }
        out
    }

    fn describe(&self, case: &OrcaCase) -> String {
        format!("{} agents, {} steps, {:.2}m room", case.agents.len(), case.steps, case.side)
    }
}

// ---------------------------------------------------------------------------
// Kernel pair 4: serial vs. parallel runner (identical-tables claim).
// ---------------------------------------------------------------------------

/// `xr_eval::par_map_indexed(1, …)` vs. `(workers, …)` over a workload
/// of independent seeded cells (each cell: a seeded mini matmul reduced to
/// one f64), compared bitwise per cell — the same per-cell-seed discipline
/// the comparison tables rely on.
pub struct SerialVsParallelRunner {
    /// Worker count for the parallel side.
    pub workers: usize,
}

impl Default for SerialVsParallelRunner {
    fn default() -> Self {
        SerialVsParallelRunner { workers: 8 }
    }
}

/// A generated parallel workload: one seed per independent cell.
pub struct ParCase {
    /// Per-cell seeds.
    pub cell_seeds: Vec<u64>,
}

/// A deterministic, order-sensitive per-cell computation: seeded matrices,
/// a product, a reduction.
fn par_cell(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::from_vec(6, 6, pvec(-1.0f64..1.0, 36).generate(&mut rng)).unwrap();
    let b = Matrix::from_vec(6, 6, pvec(-1.0f64..1.0, 36).generate(&mut rng)).unwrap();
    a.matmul(&b).as_slice().iter().enumerate().map(|(i, v)| v * (i as f64 + 0.5)).sum()
}

impl DiffSubject for SerialVsParallelRunner {
    type Case = ParCase;

    fn pair(&self) -> String {
        format!("par runner: 1 vs {} workers", self.workers)
    }

    fn generate(&self, rng: &mut StdRng) -> ParCase {
        ParCase { cell_seeds: pvec(0u64..u64::MAX, 1usize..33).generate(rng) }
    }

    fn compare(&self, case: &ParCase) -> Option<StepDivergence> {
        let n = case.cell_seeds.len();
        let serial = xr_eval::par_map_indexed(1, n, |i| par_cell(case.cell_seeds[i]));
        let parallel = xr_eval::par_map_indexed(self.workers, n, |i| par_cell(case.cell_seeds[i]));
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            if s.to_bits() != p.to_bits() {
                return Some(StepDivergence {
                    step: i,
                    detail: format!("cell {i}: serial {s:?} vs {} workers {p:?}", self.workers),
                });
            }
        }
        None
    }

    fn shrink(&self, case: &ParCase) -> Vec<ParCase> {
        if case.cell_seeds.len() > 1 {
            vec![ParCase { cell_seeds: case.cell_seeds[..case.cell_seeds.len() / 2].to_vec() }]
        } else {
            Vec::new()
        }
    }

    fn describe(&self, case: &ParCase) -> String {
        format!("{} cells", case.cell_seeds.len())
    }
}

// ---------------------------------------------------------------------------
// POSHGNN episode cases, shared by every POSHGNN-level subject below.
// ---------------------------------------------------------------------------

/// A generated POSHGNN episode scenario.
pub struct PoshCase {
    /// Dataset seed.
    pub dataset_seed: u64,
    /// Scenario sampling config.
    pub scenario: ScenarioConfig,
    /// Target user.
    pub target: usize,
}

/// Draws one POSHGNN episode case (shared by every POSHGNN-level subject).
fn generate_posh_case(rng: &mut StdRng) -> PoshCase {
    let (n, steps, seeds) = (6usize..14, 2usize..6, (0u64..1_000_000, 0u64..1_000_000)).generate(rng);
    let target = (0usize..n).generate(rng);
    PoshCase {
        dataset_seed: seeds.0,
        scenario: ScenarioConfig {
            n_participants: n,
            vr_fraction: 0.5,
            time_steps: steps,
            room_side: 6.0,
            body_radius: 0.2,
            seed: seeds.1,
        },
        target,
    }
}

/// Shrinks a POSHGNN episode case (halve steps, then halve participants).
fn shrink_posh_case(case: &PoshCase) -> Vec<PoshCase> {
    let mut out = Vec::new();
    if case.scenario.time_steps > 2 {
        let mut scenario = case.scenario;
        scenario.time_steps /= 2;
        out.push(PoshCase { dataset_seed: case.dataset_seed, scenario, target: case.target });
    }
    if case.scenario.n_participants > 6 {
        let mut scenario = case.scenario;
        scenario.n_participants = (scenario.n_participants / 2).max(6);
        out.push(PoshCase {
            dataset_seed: case.dataset_seed,
            scenario,
            target: case.target.min(scenario.n_participants - 1),
        });
    }
    out
}

fn describe_posh_case(case: &PoshCase) -> String {
    format!(
        "Hubs seed {}, N={}, T={}, target {}",
        case.dataset_seed, case.scenario.n_participants, case.scenario.time_steps, case.target
    )
}

/// Samples the scenario of a [`PoshCase`].
fn posh_scenario(case: &PoshCase) -> xr_datasets::Scenario {
    Dataset::generate(DatasetKind::Hubs, case.dataset_seed).sample_scenario(&case.scenario)
}

/// Materializes the episode context of a [`PoshCase`].
fn posh_context(case: &PoshCase) -> poshgnn::TargetContext {
    poshgnn::TargetContext::new(&posh_scenario(case), case.target, 0.5)
}

// ---------------------------------------------------------------------------
// Hot-path pair 1: cached-MIA vs. fresh-MIA episode loss (bit-identical).
// ---------------------------------------------------------------------------

/// The same identically seeded POSHGNN differentiated through
/// [`poshgnn::PoshGnn::episode_loss_cached`] (one precomputed
/// `Mia::compute_episode` slab) vs. [`poshgnn::PoshGnn::episode_loss`]
/// (MIA recomputed at every step). MIA is parameter-free, so the loss scalar
/// and every parameter gradient must match bit for bit.
pub struct CachedVsFreshMia;

impl DiffSubject for CachedVsFreshMia {
    type Case = PoshCase;

    fn pair(&self) -> String {
        "poshgnn: cached vs fresh MIA".to_string()
    }

    fn generate(&self, rng: &mut StdRng) -> PoshCase {
        generate_posh_case(rng)
    }

    fn compare(&self, case: &PoshCase) -> Option<StepDivergence> {
        use poshgnn::{Mia, PoshGnn, PoshGnnConfig};
        use xr_tensor::Tape;

        let ctx = posh_context(case);
        let cfg = PoshGnnConfig { fresh_mia: false, fresh_tape: false, ..Default::default() };

        let mut fresh = PoshGnn::new(cfg);
        let tape_f = Tape::new();
        let loss_f = fresh.episode_loss(&tape_f, &ctx);
        let lf = loss_f.scalar();
        loss_f.backward(fresh.params_mut());

        let mut cached = PoshGnn::new(cfg);
        let slab = Mia.compute_episode(&ctx);
        let tape_c = Tape::new();
        let loss_c = cached.episode_loss_cached(&tape_c, &ctx, &slab);
        let lc = loss_c.scalar();
        loss_c.backward(cached.params_mut());

        if lf.to_bits() != lc.to_bits() {
            return Some(StepDivergence {
                step: 0,
                detail: format!("episode loss: fresh {lf:?} vs cached {lc:?}"),
            });
        }
        for id in fresh.params().ids() {
            let name = fresh.params().name(id).to_string();
            if let Some(d) = first_bit_mismatch(
                &format!("grad[{name}]"),
                fresh.params().grad(id),
                cached.params().grad(id),
            ) {
                return Some(d);
            }
        }
        None
    }

    fn shrink(&self, case: &PoshCase) -> Vec<PoshCase> {
        shrink_posh_case(case)
    }

    fn describe(&self, case: &PoshCase) -> String {
        describe_posh_case(case)
    }
}

// ---------------------------------------------------------------------------
// Hot-path pair 2: pooled-tape vs. fresh-tape gradients (bit-identical).
// ---------------------------------------------------------------------------

/// Two identically seeded POSHGNNs differentiated over the same episode
/// twice: one builds a fresh `Tape` per pass, the other resets a single
/// arena tape so the second pass runs entirely on recycled pooled buffers.
/// Losses and parameter gradients of both passes must match bit for bit —
/// the full-overwrite contract on pooled buffers makes recycling invisible.
pub struct PooledVsFreshTape;

impl DiffSubject for PooledVsFreshTape {
    type Case = PoshCase;

    fn pair(&self) -> String {
        "tape: pooled arena vs fresh".to_string()
    }

    fn generate(&self, rng: &mut StdRng) -> PoshCase {
        generate_posh_case(rng)
    }

    fn compare(&self, case: &PoshCase) -> Option<StepDivergence> {
        use poshgnn::{PoshGnn, PoshGnnConfig};
        use xr_tensor::{Matrix, Tape};

        let ctx = posh_context(case);
        let cfg = PoshGnnConfig { fresh_mia: false, fresh_tape: false, ..Default::default() };
        let passes = 2;

        // (loss, gradients) per pass; `pooled` reuses one reset arena tape.
        let run = |pooled: bool| -> Vec<(f64, Vec<Matrix>)> {
            let mut model = PoshGnn::new(cfg);
            let arena = Tape::new();
            (0..passes)
                .map(|_| {
                    let fresh_tape;
                    let tape = if pooled {
                        arena.reset();
                        &arena
                    } else {
                        fresh_tape = Tape::new();
                        &fresh_tape
                    };
                    let loss = model.episode_loss(tape, &ctx);
                    let l = loss.scalar();
                    loss.backward(model.params_mut());
                    let grads: Vec<Matrix> =
                        model.params().ids().map(|id| model.params().grad(id).clone()).collect();
                    model.params_mut().zero_grads();
                    (l, grads)
                })
                .collect()
        };

        let fresh = run(false);
        let pooled = run(true);
        for (pass, ((lf, gf), (lp, gp))) in fresh.iter().zip(&pooled).enumerate() {
            if lf.to_bits() != lp.to_bits() {
                return Some(StepDivergence {
                    step: pass,
                    detail: format!("pass {pass} loss: fresh {lf:?} vs pooled {lp:?}"),
                });
            }
            for (i, (a, b)) in gf.iter().zip(gp).enumerate() {
                if let Some(mut d) = first_bit_mismatch(&format!("pass {pass} grad #{i}"), a, b) {
                    d.step = pass;
                    return Some(d);
                }
            }
        }
        None
    }

    fn shrink(&self, case: &PoshCase) -> Vec<PoshCase> {
        shrink_posh_case(case)
    }

    fn describe(&self, case: &PoshCase) -> String {
        describe_posh_case(case)
    }
}

// ---------------------------------------------------------------------------
// Serving pair: tape-free vs. tape inference step (bit-identical).
// ---------------------------------------------------------------------------

/// [`poshgnn::PoshGnn::soft_recommend`] (the tape-free serving step) vs.
/// [`poshgnn::PoshGnn::soft_recommend_on_tape`] (the same step on the
/// autodiff tape), on two identically built models, for every
/// [`poshgnn::PoshVariant`] at hidden width 8 (the paper's) and 12 (whose
/// 20-wide LWP input leaves the layers' fixed-width paths). Parameters are
/// drawn per case instead of the initial ones, whose −2 output bias keeps
/// most of the network in one regime.
///
/// Each model serves one episode in order, then in reverse, then switches
/// to a second target of the same room without a new episode (`h`/`r`
/// carry over). Every soft output must match bit for bit.
pub struct FusedVsTapeStep;

/// Hidden widths [`FusedVsTapeStep`] runs each case at.
const FUSED_HIDDEN: [usize; 2] = [8, 12];

impl DiffSubject for FusedVsTapeStep {
    type Case = PoshCase;

    fn pair(&self) -> String {
        "poshgnn: tape-free vs tape inference step".to_string()
    }

    fn generate(&self, rng: &mut StdRng) -> PoshCase {
        generate_posh_case(rng)
    }

    fn compare(&self, case: &PoshCase) -> Option<StepDivergence> {
        use poshgnn::{AfterRecommender, PoshGnn, PoshGnnConfig, PoshVariant, StepView, TargetContext};

        let scenario = posh_scenario(case);
        let a = TargetContext::new(&scenario, case.target, 0.5);
        let b = TargetContext::new(&scenario, (case.target + 1) % a.n, 0.5);
        let ticks: Vec<(&TargetContext, usize)> = (0..=a.t_max())
            .map(|t| (&a, t))
            .chain((0..=a.t_max()).rev().map(|t| (&a, t)))
            .chain((0..=b.t_max()).map(|t| (&b, t)))
            .collect();
        for hidden in FUSED_HIDDEN {
            for variant in [PoshVariant::Full, PoshVariant::PdrWithMia, PoshVariant::PdrOnly] {
                let cfg = PoshGnnConfig { hidden, variant, ..Default::default() };
                let (mut fused, mut taped) = (PoshGnn::new(cfg), PoshGnn::new(cfg));
                let mut rng = StdRng::seed_from_u64(case.dataset_seed ^ hidden as u64);
                let flat: Vec<f64> =
                    (0..fused.parameter_count()).map(|_| rand::Rng::gen_range(&mut rng, -1.5..1.5)).collect();
                assert!(fused.import_params(&flat) && taped.import_params(&flat));
                fused.begin_episode(&StepView::new(&a, 0));
                taped.begin_episode(&StepView::new(&a, 0));
                for (call, &(ctx, t)) in ticks.iter().enumerate() {
                    let rf = fused.soft_recommend(ctx, t);
                    let rt = taped.soft_recommend_on_tape(ctx, t);
                    if let Some((w, (f, g))) =
                        rf.iter().zip(&rt).enumerate().find(|(_, (f, g))| f.to_bits() != g.to_bits())
                    {
                        return Some(StepDivergence {
                            step: call,
                            detail: format!(
                                "{} hidden={hidden}, call {call} (target {}, t={t}): r[{w}]: tape-free {f:?} vs tape {g:?}",
                                variant.name(),
                                ctx.target
                            ),
                        });
                    }
                }
            }
        }
        None
    }

    fn shrink(&self, case: &PoshCase) -> Vec<PoshCase> {
        shrink_posh_case(case)
    }

    fn describe(&self, case: &PoshCase) -> String {
        describe_posh_case(case)
    }
}

// ---------------------------------------------------------------------------
// Session pair: scene-engine contexts vs. brute-force precompute (bit-identical).
// ---------------------------------------------------------------------------

/// The same episode context built twice: once through the
/// [`xr_session::SceneEngine`] ([`poshgnn::TargetContext::new`] — shared
/// per-tick scene state, sweep-built occlusion graphs) and once through the
/// brute-force per-target reference [`poshgnn::TargetContext::brute_force`].
/// Every stored field — occlusion graphs including adjacency order, distance
/// rows, candidate masks — must match bit for bit, and so must the decision
/// stream of an identically seeded untrained POSHGNN driven over both
/// contexts.
pub struct EngineVsBruteForce;

impl DiffSubject for EngineVsBruteForce {
    type Case = PoshCase;

    fn pair(&self) -> String {
        "session: scene-engine contexts vs brute-force precompute".to_string()
    }

    fn generate(&self, rng: &mut StdRng) -> PoshCase {
        generate_posh_case(rng)
    }

    fn compare(&self, case: &PoshCase) -> Option<StepDivergence> {
        use poshgnn::{AfterRecommender, PoshGnn, PoshGnnConfig, StepView};

        let scenario = posh_scenario(case);
        let engine = poshgnn::TargetContext::new(&scenario, case.target, 0.5);
        let brute = poshgnn::TargetContext::brute_force(&scenario, case.target, 0.5, &[]);

        for t in 0..=brute.t_max() {
            if engine.occlusion[t] != brute.occlusion[t] {
                return Some(StepDivergence {
                    step: t,
                    detail: format!(
                        "occlusion graph at t={t}: engine {:?} vs brute {:?}",
                        engine.occlusion[t], brute.occlusion[t]
                    ),
                });
            }
            for w in 0..brute.n {
                let (e, b) = (engine.distances[t][w], brute.distances[t][w]);
                if e.to_bits() != b.to_bits() {
                    return Some(StepDivergence {
                        step: t,
                        detail: format!("distance[{w}] at t={t}: engine {e:?} vs brute {b:?}"),
                    });
                }
            }
            if engine.candidate_mask[t] != brute.candidate_mask[t] {
                return Some(StepDivergence {
                    step: t,
                    detail: format!(
                        "candidate mask at t={t}: engine {:?} vs brute {:?}",
                        engine.candidate_mask[t], brute.candidate_mask[t]
                    ),
                });
            }
        }

        // end-to-end: an identically seeded model must emit the same soft
        // stream over both contexts
        let mut me = PoshGnn::new(PoshGnnConfig::default());
        let mut mb = PoshGnn::new(PoshGnnConfig::default());
        me.begin_episode(&StepView::new(&engine, 0));
        mb.begin_episode(&StepView::new(&brute, 0));
        for t in 0..=brute.t_max() {
            let re = me.soft_recommend(&engine, t);
            let rb = mb.soft_recommend(&brute, t);
            for (w, (e, b)) in re.iter().zip(&rb).enumerate() {
                if e.to_bits() != b.to_bits() {
                    return Some(StepDivergence {
                        step: t,
                        detail: format!("r_{t}[{w}]: engine {e:?} vs brute {b:?}"),
                    });
                }
            }
        }
        None
    }

    fn shrink(&self, case: &PoshCase) -> Vec<PoshCase> {
        shrink_posh_case(case)
    }

    fn describe(&self, case: &PoshCase) -> String {
        describe_posh_case(case)
    }
}

// ---------------------------------------------------------------------------
// Serving pair: multi-room scheduler vs. sequential engines (bit-identical).
// ---------------------------------------------------------------------------

/// One room's generated serving workload.
#[derive(Debug, Clone)]
pub struct RoomScenario {
    /// Participant count (frame width).
    pub n: usize,
    /// Registered viewers (all `< n`).
    pub viewers: Vec<usize>,
    /// Recommendation size.
    pub top_k: usize,
    /// Shortlist cap: `None` (no cap) or `Some(n − 1)` complete
    /// shortlists, `Some(k < n − 1)` the K nearest.
    pub prune_k: Option<usize>,
    /// MR participation mask.
    pub mr_mask: Vec<bool>,
    /// Positions per tick, `frames[t]` of length `n`.
    pub frames: Vec<Vec<Point2>>,
}

/// A generated multi-room workload: several rooms advanced in lockstep (one
/// frame per room per pump round) on a scheduler with a fixed worker count.
#[derive(Debug, Clone)]
pub struct MultiRoomCase {
    /// The rooms (all share the same tick count).
    pub rooms: Vec<RoomScenario>,
    /// Scheduler worker count for this case.
    pub workers: usize,
}

/// The multi-room scheduler ([`xr_serve::RoomServer`], no SLO budget so the
/// degradation ladder and shedding stay inert) vs. the obvious sequential
/// reference: one bare [`xr_session::SceneEngine`] per room fed the same
/// frames in order, decided with the same rule. Each room draws its
/// shortlist cap — none, `K = n−1` (both complete) or real pruning
/// (`K < n−1`). Every room's decision stream and retained shortlists
/// (members, distances, mask bits and edges) must be identical regardless of
/// how the worker pool interleaved the rooms.
pub struct MultiRoomVsSequential;

impl DiffSubject for MultiRoomVsSequential {
    type Case = MultiRoomCase;

    fn pair(&self) -> String {
        "serve: multi-room scheduler vs sequential engines".to_string()
    }

    fn generate(&self, rng: &mut StdRng) -> MultiRoomCase {
        let (room_count, ticks, workers) = (1usize..6, 2usize..6, 1usize..9).generate(rng);
        let rooms = (0..room_count)
            .map(|_| {
                let n = (4usize..10).generate(rng);
                let viewer_count = (1usize..4).generate(rng).min(n);
                let mut viewers: Vec<usize> = (0..viewer_count).map(|_| (0usize..n).generate(rng)).collect();
                viewers.sort_unstable();
                viewers.dedup();
                let top_k = (1usize..5).generate(rng);
                let prune_k = match (0u32..3).generate(rng) {
                    0 => None,
                    1 => Some(n - 1),
                    _ => Some((1usize..n - 1).generate(rng)),
                };
                let mr_mask: Vec<bool> = (0..n).map(|_| (0u32..2).generate(rng) == 1).collect();
                let frames = (0..ticks)
                    .map(|_| {
                        (0..n)
                            .map(|_| {
                                let (x, y) = (-4.0f64..4.0, -4.0f64..4.0).generate(rng);
                                Point2::new(x, y)
                            })
                            .collect()
                    })
                    .collect();
                RoomScenario { n, viewers, top_k, prune_k, mr_mask, frames }
            })
            .collect();
        MultiRoomCase { rooms, workers }
    }

    fn compare(&self, case: &MultiRoomCase) -> Option<StepDivergence> {
        use xr_serve::{RoomConfig, RoomServer, ServerConfig};
        use xr_session::{Frame, SceneConfig, SceneEngine};

        let scene_of = |room: &RoomScenario| SceneConfig {
            body_radius: 0.2,
            mr_mask: room.mr_mask.clone(),
            room_diagonal: 8.0 * std::f64::consts::SQRT_2,
        };
        let ticks = case.rooms.first().map_or(0, |r| r.frames.len());

        // scheduler side: admit every room, advance in lockstep
        let mut server = RoomServer::new(ServerConfig {
            max_rooms: case.rooms.len(),
            workers: case.workers,
            slo: None,
            ..ServerConfig::default()
        });
        let ids: Vec<_> = case
            .rooms
            .iter()
            .map(|room| {
                let mut cfg = RoomConfig::new(room.n, scene_of(room), room.viewers.clone());
                cfg.top_k = room.top_k;
                cfg.prune_k = room.prune_k;
                cfg.retain_states = None; // keep history for the bitwise sweep
                server.admit(cfg).expect("admission of a generated room")
            })
            .collect();
        let mut scheduled: Vec<Vec<xr_serve::Decision>> = vec![Vec::new(); case.rooms.len()];
        for t in 0..ticks {
            for (room, id) in case.rooms.iter().zip(&ids) {
                server.enqueue(*id, Frame::new(room.frames[t].clone()));
            }
            let report = server.pump();
            for drain in report.rooms {
                let slot = ids.iter().position(|id| *id == drain.room).unwrap();
                scheduled[slot].extend(drain.decisions);
            }
        }

        // sequential reference: bare engines, same frames, same decision rule
        for (slot, room) in case.rooms.iter().enumerate() {
            let mut engine = SceneEngine::new(room.n, scene_of(room), &room.viewers);
            engine.set_prune_k(room.prune_k.unwrap_or(0));
            for frame in &room.frames {
                engine.push(Frame::new(frame.clone()));
            }
            let viewers = engine.viewers().to_vec();
            let got = &scheduled[slot];
            if got.len() != ticks {
                return Some(StepDivergence {
                    step: slot,
                    detail: format!(
                        "room {slot}: scheduler produced {} decisions for {ticks} frames",
                        got.len()
                    ),
                });
            }
            for (t, decision) in got.iter().enumerate() {
                if decision.seq != t as u64 || decision.level != xr_serve::ServeLevel::Full {
                    return Some(StepDivergence {
                        step: t,
                        detail: format!(
                            "room {slot} t={t}: decision seq {} level {:?} (expected seq {t}, Full)",
                            decision.seq, decision.level
                        ),
                    });
                }
                for (vi, &viewer) in viewers.iter().enumerate() {
                    let view = engine.view(viewer, t);
                    let expect = xr_serve::decide_view(&view, room.top_k);
                    if decision.per_viewer[vi] != expect {
                        return Some(StepDivergence {
                            step: t,
                            detail: format!(
                                "room {slot} viewer {viewer} t={t}: scheduler {:?} vs sequential {expect:?}",
                                decision.per_viewer[vi]
                            ),
                        });
                    }
                    // the retained engine state itself must be bit-identical
                    let diverged = server.with_room(ids[slot], |served| {
                        let a = served.engine().view(viewer, t).candidates().map(shortlist_bits);
                        let b = view.candidates().map(shortlist_bits);
                        (a != b).then(|| {
                            format!(
                                "room {slot} viewer {viewer} shortlist at t={t}: scheduler {a:?} vs sequential {b:?}"
                            )
                        })
                    });
                    if let Some(detail) = diverged.flatten() {
                        return Some(StepDivergence { step: t, detail });
                    }
                }
            }
        }
        None
    }

    fn shrink(&self, case: &MultiRoomCase) -> Vec<MultiRoomCase> {
        let mut out = Vec::new();
        if case.rooms.len() > 1 {
            out.push(MultiRoomCase {
                rooms: case.rooms[..case.rooms.len() / 2].to_vec(),
                workers: case.workers,
            });
        }
        let ticks = case.rooms.first().map_or(0, |r| r.frames.len());
        if ticks > 1 {
            out.push(MultiRoomCase {
                rooms: case
                    .rooms
                    .iter()
                    .map(|r| RoomScenario { frames: r.frames[..ticks / 2].to_vec(), ..r.clone() })
                    .collect(),
                workers: case.workers,
            });
        }
        if case.workers > 1 {
            out.push(MultiRoomCase { rooms: case.rooms.clone(), workers: 1 });
        }
        out
    }

    fn describe(&self, case: &MultiRoomCase) -> String {
        format!(
            "{} rooms (n={:?}, prune_k={:?}), {} ticks, {} workers",
            case.rooms.len(),
            case.rooms.iter().map(|r| r.n).collect::<Vec<_>>(),
            case.rooms.iter().map(|r| r.prune_k).collect::<Vec<_>>(),
            case.rooms.first().map_or(0, |r| r.frames.len()),
            case.workers
        )
    }
}

// ---------------------------------------------------------------------------
// Session pair: K-candidate shortlists vs. the complete shortlist and the
// brute-force per-target precompute.
// ---------------------------------------------------------------------------

/// A shortlist as plain values — members, distance bits, mask bits and
/// edges — so that equality is bitwise.
type ShortlistBits<'a> = (&'a [u32], Vec<u64>, &'a [bool], &'a [(u32, u32)]);

/// The bitwise form of a shortlist.
fn shortlist_bits(cs: &xr_session::CandidateSet) -> ShortlistBits<'_> {
    (cs.ids(), cs.distances().iter().map(|d| d.to_bits()).collect(), cs.mask(), cs.edges())
}

/// A crowd-style scene workload for the pruning contract: bounded walks with
/// lobby churn and teleports, swept over several shortlist caps.
#[derive(Debug, Clone)]
pub struct PrunedSceneCase {
    /// Participant count (fixed frame width).
    pub n: usize,
    /// Registered viewers (unique, ascending, all `< n`).
    pub viewers: Vec<usize>,
    /// Recommendation size for the decision stream.
    pub top_k: usize,
    /// Shortlist caps to sweep (`≥ 1`; caps of `n − 1` and above are
    /// complete shortlists).
    pub ks: Vec<usize>,
    /// MR participation mask.
    pub mr_mask: Vec<bool>,
    /// Positions per tick, `frames[t]` of length `n`.
    pub frames: Vec<Vec<Point2>>,
}

/// The scene engine's shortlists swept over K on one frame stream. Two
/// legs:
///
/// * **Complete** (no cap, `K = N − 1`) against the brute-force per-target
///   precompute ([`poshgnn::TargetContext::brute_force`]), which shares no
///   engine code: every other user is a member, member distances and mask
///   bits are bitwise the brute-force rows, the edges are the brute-force
///   occlusion graph's, and the top-k decision equals the dense-row rule
///   [`xr_serve::decide_topk_f64`].
/// * **K sweep**: at each drawn cap, every shortlist is the complete one
///   restricted to its `min(K, N − 1)` nearest members by `(distance, id)` —
///   the same member distances and mask bits bit for bit, and exactly the
///   complete edges among those members — and its top-k decision is a
///   prefix of the complete one's (mask-true members nearest first).
pub struct CappedVsComplete;

impl DiffSubject for CappedVsComplete {
    type Case = PrunedSceneCase;

    fn pair(&self) -> String {
        "session: K-candidate shortlists vs the complete shortlist and brute force".to_string()
    }

    fn generate(&self, rng: &mut StdRng) -> PrunedSceneCase {
        let (n, ticks) = (6usize..20, 3usize..8).generate(rng);
        let viewer_count = (1usize..4).generate(rng).min(n);
        let mut viewers: Vec<usize> = (0..viewer_count).map(|_| (0usize..n).generate(rng)).collect();
        viewers.sort_unstable();
        viewers.dedup();
        let top_k = (1usize..6).generate(rng);
        let ks = pvec(1usize..n + 3, 1usize..4).generate(rng);
        let mr_mask: Vec<bool> = (0..n).map(|_| (0u32..2).generate(rng) == 1).collect();
        let (teleport_prob, churn_prob) = (0.0f64..0.3, 0.0f64..0.3).generate(rng);
        let step = (0.02f64..0.8).generate(rng);
        let lobby = Point2::new(20.0, 20.0);
        let in_room_pos = |rng: &mut StdRng| -> Point2 {
            Point2::new((-4.0f64..4.0).generate(rng), (-4.0f64..4.0).generate(rng))
        };
        let mut in_room: Vec<bool> = (0..n).map(|_| (0u32..4).generate(rng) != 0).collect();
        let mut current: Vec<Point2> =
            (0..n).map(|i| if in_room[i] { in_room_pos(rng) } else { lobby }).collect();
        let mut frames = vec![current.clone()];
        for _ in 1..ticks {
            for i in 0..n {
                if (0.0f64..1.0).generate(rng) < churn_prob {
                    in_room[i] = !in_room[i];
                    current[i] = if in_room[i] { in_room_pos(rng) } else { lobby };
                } else if !in_room[i] {
                    // parked: bitwise stationary
                } else if (0.0f64..1.0).generate(rng) < teleport_prob {
                    current[i] = in_room_pos(rng);
                } else {
                    let (dx, dy) = (-step..step, -step..step).generate(rng);
                    current[i] = Point2::new(
                        (current[i].x + dx).clamp(-4.0, 4.0),
                        (current[i].y + dy).clamp(-4.0, 4.0),
                    );
                }
            }
            frames.push(current.clone());
        }
        PrunedSceneCase { n, viewers, top_k, ks, mr_mask, frames }
    }

    fn compare(&self, case: &PrunedSceneCase) -> Option<StepDivergence> {
        use xr_datasets::{Interface, Scenario};
        use xr_session::{Frame, SceneConfig, SceneEngine};

        let n = case.n;
        let scene = SceneConfig {
            body_radius: 0.2,
            mr_mask: case.mr_mask.clone(),
            room_diagonal: 8.0 * std::f64::consts::SQRT_2,
        };
        let run = |prune_k: usize| {
            let mut engine = SceneEngine::new(n, scene.clone(), &case.viewers);
            engine.set_prune_k(prune_k);
            for frame in &case.frames {
                engine.push(Frame::new(frame.clone()));
            }
            engine
        };
        let complete = run(0);
        let capped: Vec<SceneEngine> = case.ks.iter().map(|&k| run(k)).collect();
        let scenario = Scenario {
            dataset: "pruned-scene".to_string(),
            participants: (0..n).collect(),
            interfaces: case
                .mr_mask
                .iter()
                .map(|&mr| if mr { Interface::Mr } else { Interface::Vr })
                .collect(),
            preference: vec![vec![0.0; n]; n],
            social: vec![vec![0.0; n]; n],
            trajectories: case.frames.clone(),
            room: Room::new(8.0, 8.0),
            body_radius: scene.body_radius,
        };

        for &viewer in &case.viewers {
            let brute = poshgnn::TargetContext::brute_force(&scenario, viewer, 0.5, &[]);
            for t in 0..case.frames.len() {
                let diverged = |detail: String| Some(StepDivergence { step: t, detail });
                let view = complete.view(viewer, t);
                let full = view.candidates().expect("every view has a shortlist");
                // complete leg: every other user, bitwise the brute-force rows…
                let others: Vec<u32> = (0..n as u32).filter(|&w| w as usize != viewer).collect();
                if full.ids() != others.as_slice() {
                    return diverged(format!(
                        "viewer {viewer} t={t}: complete shortlist holds {:?}",
                        full.ids()
                    ));
                }
                for (idx, &w) in full.ids().iter().enumerate() {
                    let (a, b) = (full.distances()[idx], brute.distances[t][w as usize]);
                    if a.to_bits() != b.to_bits() {
                        return diverged(format!(
                            "viewer {viewer} distance to {w} at t={t}: engine {a:?} vs brute {b:?}"
                        ));
                    }
                    let (a, b) = (full.mask()[idx], brute.candidate_mask[t][w as usize]);
                    if a != b {
                        return diverged(format!(
                            "viewer {viewer} mask[{w}] at t={t}: engine {a} vs brute {b}"
                        ));
                    }
                }
                // …the brute-force occlusion graph…
                let brute_edges: Vec<(u32, u32)> =
                    brute.occlusion[t].edges().map(|(a, b)| (a as u32, b as u32)).collect();
                if full.edges() != brute_edges.as_slice() {
                    return diverged(format!(
                        "viewer {viewer} occlusion at t={t}: engine {:?} vs brute {brute_edges:?}",
                        full.edges()
                    ));
                }
                // …and the dense-row decision
                let decided = full.decide_topk(case.top_k);
                let dense =
                    xr_serve::decide_topk_f64(&brute.candidate_mask[t], &brute.distances[t], case.top_k);
                let dense: Vec<u32> = (0..n as u32).filter(|&w| dense[w as usize]).collect();
                let mut sorted = decided.clone();
                sorted.sort_unstable();
                if sorted != dense {
                    return diverged(format!(
                        "viewer {viewer} decision at t={t}: engine {sorted:?} vs brute {dense:?}"
                    ));
                }

                // K sweep: each shortlist is the complete one restricted to
                // its K nearest members
                let mut by_key: Vec<usize> = (0..full.len()).collect();
                by_key.sort_by(|&a, &b| {
                    full.distances()[a]
                        .total_cmp(&full.distances()[b])
                        .then(full.ids()[a].cmp(&full.ids()[b]))
                });
                for (engine, &k) in capped.iter().zip(&case.ks) {
                    let cs = engine.view(viewer, t).candidates().expect("every view has a shortlist");
                    let mut keep: Vec<usize> = by_key[..k.min(full.len())].to_vec();
                    keep.sort_unstable();
                    let ids: Vec<u32> = keep.iter().map(|&i| full.ids()[i]).collect();
                    let distances: Vec<u64> = keep.iter().map(|&i| full.distances()[i].to_bits()).collect();
                    let mask: Vec<bool> = keep.iter().map(|&i| full.mask()[i]).collect();
                    let edges: Vec<(u32, u32)> = full
                        .edges()
                        .iter()
                        .copied()
                        .filter(|&(a, b)| ids.binary_search(&a).is_ok() && ids.binary_search(&b).is_ok())
                        .collect();
                    let want: ShortlistBits = (&ids, distances, &mask, &edges);
                    if shortlist_bits(cs) != want {
                        return diverged(format!(
                            "viewer {viewer} K={k} at t={t}: shortlist {:?} vs complete restricted {want:?}",
                            shortlist_bits(cs)
                        ));
                    }
                    // its mask-true members are the nearest of the complete
                    // shortlist's, so it decides a prefix of the same picks
                    let visible = cs.mask().iter().filter(|&&m| m).count();
                    let want = &decided[..visible.min(decided.len())];
                    let got = cs.decide_topk(case.top_k);
                    if got != want {
                        return diverged(format!(
                            "viewer {viewer} K={k} decision at t={t}: {got:?} vs complete prefix {want:?}"
                        ));
                    }
                }
            }
        }
        None
    }

    fn shrink(&self, case: &PrunedSceneCase) -> Vec<PrunedSceneCase> {
        let mut out = Vec::new();
        if case.frames.len() > 2 {
            out.push(PrunedSceneCase {
                frames: case.frames[..case.frames.len() / 2].to_vec(),
                ..case.clone()
            });
            out.push(PrunedSceneCase { frames: case.frames[1..].to_vec(), ..case.clone() });
        }
        if case.ks.len() > 1 {
            for k in &case.ks {
                out.push(PrunedSceneCase { ks: vec![*k], ..case.clone() });
            }
        }
        if case.n > 6 {
            let n = (case.n / 2).max(6);
            let mut viewers: Vec<usize> = case.viewers.iter().copied().filter(|&v| v < n).collect();
            if viewers.is_empty() {
                viewers.push(0);
            }
            out.push(PrunedSceneCase {
                n,
                viewers,
                top_k: case.top_k,
                ks: case.ks.clone(),
                mr_mask: case.mr_mask[..n].to_vec(),
                frames: case.frames.iter().map(|f| f[..n].to_vec()).collect(),
            });
        }
        out
    }

    fn describe(&self, case: &PrunedSceneCase) -> String {
        format!(
            "n={} users, {} ticks, viewers {:?}, top_k={}, ks={:?}",
            case.n,
            case.frames.len(),
            case.viewers,
            case.top_k,
            case.ks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately broken pair: the "optimized" sum drops the last
    /// element once the input reaches 6 elements. Proves the runner finds,
    /// reports, and minimizes real divergences.
    struct BrokenSum;

    impl DiffSubject for BrokenSum {
        type Case = Vec<f64>;

        fn pair(&self) -> String {
            "selftest: sum vs broken-sum".to_string()
        }

        fn generate(&self, rng: &mut StdRng) -> Vec<f64> {
            pvec(1.0f64..2.0, 1usize..40).generate(rng)
        }

        fn compare(&self, case: &Vec<f64>) -> Option<StepDivergence> {
            let reference: f64 = case.iter().sum();
            let broken: f64 = if case.len() >= 6 { case[..case.len() - 1].iter().sum() } else { reference };
            (reference.to_bits() != broken.to_bits()).then(|| StepDivergence {
                step: case.len() - 1,
                detail: format!("sum: {reference} vs {broken}"),
            })
        }

        fn shrink(&self, case: &Vec<f64>) -> Vec<Vec<f64>> {
            if case.len() > 1 {
                vec![case[..case.len() / 2].to_vec(), case[..case.len() - 1].to_vec()]
            } else {
                Vec::new()
            }
        }

        fn describe(&self, case: &Vec<f64>) -> String {
            format!("{} elements", case.len())
        }
    }

    #[test]
    fn oracle_finds_and_minimizes_an_injected_bug() {
        let report = run_differential(&BrokenSum, 64);
        let d = report.divergence.expect("the broken kernel must diverge");
        assert_eq!(d.pair, "selftest: sum vs broken-sum");
        // greedy halving + drop-one shrinking must reach the 6-element boundary
        assert_eq!(d.minimized_case, "6 elements", "not fully minimized: {}", d.render());
        assert!(d.shrink_steps > 0);
        let artifact = crate::artifact_dir().join("counterexample-selftest--sum-vs-broken-sum.txt");
        assert!(artifact.exists(), "artifact missing at {}", artifact.display());
        let text = std::fs::read_to_string(artifact).unwrap();
        assert!(text.contains("first diverging step"));
        // the flight-recorder dump rides along with the counterexample
        let flight = crate::artifact_dir().join("flight-selftest--sum-vs-broken-sum.json");
        assert!(flight.exists(), "flight dump missing at {}", flight.display());
        let dump = std::fs::read_to_string(flight).unwrap();
        assert!(dump.contains("traceEvents") && dump.contains("flightDumpReason"));
    }

    #[test]
    fn oracle_captures_span_context_at_divergence() {
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _guard = ctx.install();
        let report = run_differential(&BrokenSum, 64);
        let d = report.divergence.unwrap();
        assert!(d.span_path.contains("xr_check.diff"), "span path was {:?}", d.span_path);
        let snap = ctx.registry.snapshot();
        let cases = snap.counter("xr_check.diff.cases{pair=selftest: sum vs broken-sum}").unwrap_or(0);
        assert!(cases >= 1, "per-pair case counter missing: {cases}");
    }

    #[test]
    fn clean_pairs_report_no_divergence_and_run_all_cases() {
        let report = run_differential(&MatmulNaiveVsBlocked, 8);
        assert!(report.divergence.is_none());
        assert_eq!(report.cases_run, 8);
    }
}
