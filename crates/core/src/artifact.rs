//! The compiler's output artifact: the compiled circuit plus per-pass
//! reports, and the [`Simulation`] session handle that runs it.

use std::ops::Deref;
use std::sync::Arc;

use rand::Rng;

use waltz_noise::NoiseModel;
use waltz_sim::trajectory::{FidelityEstimate, HealthPolicy, RunHealth};
use waltz_sim::{Session, State, TrajectoryPool};

use crate::compile::CompiledCircuit;
use crate::eps::EpsBreakdown;
use crate::pipeline::{Pass, PassReport};

/// Default seed of [`Simulation::average_fidelity`] — override with
/// [`Simulation::with_seed`].
const DEFAULT_SEED: u64 = 20230617;

/// What one [`crate::Compiler::compile`] run produced: the
/// [`CompiledCircuit`] plus one [`PassReport`] per pipeline stage and the
/// target's noise environment, so EPS estimation and simulation need no
/// further plumbing.
///
/// Dereferences to the wrapped [`CompiledCircuit`], so all of its
/// fields and accessors (`stats`, `sim`, `sim_schedule()`,
/// `sample_decoded()`, …) are available directly on the artifact.
#[derive(Debug, Clone)]
pub struct CompileArtifact {
    compiled: CompiledCircuit,
    reports: Vec<PassReport>,
    noise: NoiseModel,
    /// Provenance marker: `true` when this artifact was replayed from an
    /// [`crate::ArtifactCache`] instead of compiled fresh. Never enters
    /// the wire format, so the content hash is load-path independent.
    cached: bool,
}

impl Deref for CompileArtifact {
    type Target = CompiledCircuit;

    fn deref(&self) -> &CompiledCircuit {
        &self.compiled
    }
}

impl CompileArtifact {
    pub(crate) fn new(
        compiled: CompiledCircuit,
        reports: Vec<PassReport>,
        noise: NoiseModel,
    ) -> Self {
        CompileArtifact {
            compiled,
            reports,
            noise,
            cached: false,
        }
    }

    /// Whether this artifact came out of an [`crate::ArtifactCache`]
    /// (memory or disk tier) rather than a fresh pipeline run. Cached
    /// artifacts carry the pass reports of the compilation that produced
    /// them; the flag is the only difference.
    pub fn is_cached(&self) -> bool {
        self.cached
    }

    /// Marks the artifact's provenance (set by the cache on load).
    pub(crate) fn set_cached(&mut self, cached: bool) {
        self.cached = cached;
    }

    /// The wrapped compiled circuit.
    pub fn compiled(&self) -> &CompiledCircuit {
        &self.compiled
    }

    /// Unwraps into the bare [`CompiledCircuit`], dropping the reports.
    pub fn into_compiled(self) -> CompiledCircuit {
        self.compiled
    }

    /// One report per pipeline stage, in execution order.
    pub fn reports(&self) -> &[PassReport] {
        &self.reports
    }

    /// The report of one pass (every pipeline run records all of
    /// [`Pass::ALL`]).
    ///
    /// # Panics
    ///
    /// Panics if the pass is missing — impossible for artifacts built by
    /// [`crate::Compiler::compile`].
    pub fn report(&self, pass: Pass) -> &PassReport {
        self.reports
            .iter()
            .find(|r| r.pass == pass)
            .expect("pipeline records every pass")
    }

    /// The analyze pass's predicted peak sparse state size in bytes
    /// (the `sparse_state_bytes_pred` diagnostic): the basis-input
    /// support bound walked over the simulation schedule, times the
    /// bytes one sparse amplitude-map entry occupies. `None` for
    /// artifacts whose analyze report predates the sparse predictor
    /// (e.g. decoded from an old wire frame). The supervisor's budget
    /// ladder uses this as its last rung: an otherwise over-budget
    /// artifact is admitted as [`crate::Degradation::Sparse`] when this
    /// prediction fits.
    pub fn sparse_state_bytes_pred(&self) -> Option<usize> {
        self.reports
            .iter()
            .find(|r| r.pass == Pass::Analyze)?
            .diagnostic("sparse_state_bytes_pred")?
            .parse()
            .ok()
    }

    /// Total wall-clock compile time across all passes, in milliseconds.
    pub fn total_wall_ms(&self) -> f64 {
        self.reports.iter().map(|r| r.wall_ms).sum()
    }

    /// The noise model simulations of this artifact default to (the
    /// target's).
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// EPS estimate under the target's coherence model (§6.3).
    pub fn eps(&self) -> EpsBreakdown {
        self.compiled.eps(&self.noise.coherence)
    }

    /// A simulation session over this artifact: owns the kernel workspace
    /// and state buffers, defaults to the target's noise model, and runs
    /// the simulation schedule ([`CompiledCircuit::sim_schedule`]) and no
    /// other ([`Simulation::run_trajectory`]).
    pub fn simulate(&self) -> Simulation<'_> {
        Simulation {
            compiled: &self.compiled,
            noise: self.noise.clone(),
            seed: DEFAULT_SEED,
            pool: None,
            session: None,
        }
    }
}

/// A simulation session bound to one compiled circuit: owns the
/// [`waltz_sim::Workspace`] and the state buffers of its serial runs.
///
/// Batch estimation ([`Simulation::average_fidelity`]) fans trajectories
/// across the pool with per-worker buffer reuse; the serial entry points
/// ([`Simulation::run_trajectory`], [`Simulation::run_ideal`]) reuse this
/// session's own buffers, so shot-by-shot loops allocate nothing per
/// shot. Every run goes through [`CompiledCircuit::sim_schedule`], from
/// its first register to its last; there is no fallback schedule.
#[derive(Debug)]
pub struct Simulation<'a> {
    compiled: &'a CompiledCircuit,
    noise: NoiseModel,
    seed: u64,
    /// Batch estimates run here; `None` means the process-wide
    /// [`TrajectoryPool::global`].
    pool: Option<Arc<TrajectoryPool>>,
    /// Created on the first serial run — the batched estimator manages
    /// its own per-worker buffers, so a pure `average_fidelity` call
    /// never allocates a session.
    session: Option<Session>,
}

impl<'a> Simulation<'a> {
    /// Replaces the noise model (defaults to the target's).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Replaces the RNG seed of [`Simulation::average_fidelity`].
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs batch estimates on `pool` instead of the process-wide
    /// [`TrajectoryPool::global`]. Seeds are per-trajectory-index, so the
    /// estimate itself is bit-identical for any pool width.
    pub fn with_pool(mut self, pool: Arc<TrajectoryPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The pool batch estimates run on.
    fn active_pool(&self) -> Arc<TrajectoryPool> {
        self.pool.clone().unwrap_or_else(TrajectoryPool::global)
    }

    /// The active noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Trajectory-method average fidelity over random logical product
    /// inputs embedded at the compiler's placement (§6.4): the paper's
    /// headline simulation ([`CompiledCircuit::estimator`]). Each noisy
    /// final state is scored against the source circuit's output on the
    /// same logical input, so with noise off the estimate is 1 only if
    /// the schedule implements the circuit. A windowed schedule is
    /// statistically equivalent to a whole-program one, pinned by the
    /// `window_parity` suite.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` is zero.
    pub fn average_fidelity(&self, trajectories: usize) -> FidelityEstimate {
        let pool = self.active_pool();
        self.compiled
            .estimator(&self.noise)
            .on(&pool)
            .estimate(trajectories, self.seed)
    }

    /// The raw per-trajectory fidelity samples behind
    /// [`Simulation::average_fidelity`] — `samples[g]` depends only on
    /// the session seed and the global index `g`, never on the pool
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` is zero.
    pub fn fidelity_samples(&self, trajectories: usize) -> Vec<f64> {
        let pool = self.active_pool();
        self.compiled
            .estimator(&self.noise)
            .on(&pool)
            .samples(trajectories, self.seed)
    }

    /// [`Simulation::average_fidelity`] under trajectory health
    /// supervision ([`HealthPolicy`]): NaN/Inf and norm-growth
    /// trajectories are quarantined instead of poisoning the mean, and
    /// the run stops early once the standard error reaches the policy's
    /// target. The [`RunHealth`] report says how many trajectories
    /// completed, were quarantined, and whether the early-stop fired.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` is zero.
    pub fn average_fidelity_supervised(
        &self,
        trajectories: usize,
        policy: &HealthPolicy,
    ) -> (FidelityEstimate, RunHealth) {
        let pool = self.active_pool();
        self.compiled
            .estimator(&self.noise)
            .on(&pool)
            .supervised(trajectories, self.seed, policy)
    }

    /// Runs one noisy trajectory of [`CompiledCircuit::sim_schedule`]
    /// from `initial` (on its first register, which is where
    /// [`Simulation::random_initial_state`] puts it) into the session's
    /// output buffer and returns it, on the schedule's **last** register.
    /// The measurement decode paths ([`CompiledCircuit::sample_decoded`],
    /// [`CompiledCircuit::decode_index_on`]) read any register, so
    /// shot-sampling loops run windowed end to end.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not live on the schedule's first register
    /// (`timed`'s for an unsplit schedule, a window's for a split one).
    pub fn run_trajectory<R: Rng + ?Sized>(&mut self, initial: &State, rng: &mut R) -> &State {
        let schedule = self.compiled.sim_schedule();
        self.session
            .get_or_insert_with(|| Session::new(schedule))
            .run_trajectory(schedule, initial, &self.noise, rng)
    }

    /// Runs [`CompiledCircuit::sim_schedule`] noiselessly from `initial`
    /// into the session's output buffer and returns it, on the schedule's
    /// last register.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not live on the schedule's first
    /// register, as [`Simulation::run_trajectory`] does.
    pub fn run_ideal(&mut self, initial: &State) -> &State {
        let schedule = self.compiled.sim_schedule();
        self.session
            .get_or_insert_with(|| Session::new(schedule))
            .run_ideal(schedule, initial)
    }

    /// A fresh random logical product input at the compiler's placement
    /// (§6.4), on the first register of
    /// [`CompiledCircuit::sim_schedule`] — the matching initial state for
    /// [`Simulation::run_trajectory`].
    pub fn random_initial_state<R: Rng + ?Sized>(&self, rng: &mut R) -> State {
        let mut out = State::zero(self.compiled.sim_schedule().first_register());
        self.compiled
            .write_random_product_initial_state(rng, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, Compiler, Strategy, Target};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waltz_circuit::Circuit;

    fn artifact() -> CompileArtifact {
        let mut c = Circuit::new(3);
        c.h(0).ccx(0, 1, 2);
        Compiler::new(Target::paper(Strategy::full_ququart()))
            .compile(&c)
            .unwrap()
    }

    #[test]
    fn artifact_derefs_to_compiled_circuit() {
        let a = artifact();
        assert_eq!(a.stats.hw_ops, a.compiled().timed.len());
        assert!(a.total_wall_ms() >= 0.0);
        assert!(a.eps().total() > 0.0);
    }

    #[test]
    fn session_trajectory_matches_free_function() {
        let a = artifact();
        let mut sim = a.simulate();
        let mut rng = StdRng::seed_from_u64(3);
        let initial = sim.random_initial_state(&mut rng);
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let out = sim.run_trajectory(&initial, &mut rng_a).clone();
        let schedule = a.sim_schedule();
        let reference =
            waltz_sim::trajectory::run_trajectory(schedule, &initial, a.noise(), &mut rng_b);
        assert!((out.fidelity(&reference) - 1.0).abs() < 1e-12);
        let ideal = sim.run_ideal(&initial).clone();
        let reference = waltz_sim::ideal::run(schedule, &initial);
        assert!((ideal.fidelity(&reference) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serial_shots_run_segmented_and_decode_from_the_last_register() {
        // mixed-radix cnu-6q under pure byte pricing (the default fixed
        // term may merge the split): the compiler windows this program,
        // so the serial
        // path must start on the first segment's register and end on the
        // last segment's.
        let mut c = Circuit::new(6);
        c.ccx(0, 1, 3).ccx(2, 3, 4).ccx(2, 4, 5);
        let a = Compiler::with_options(
            Target::paper(Strategy::mixed_radix_ccz()),
            CompileOptions::default().with_window_sweep_fixed(0),
        )
        .compile(&c)
        .unwrap();
        let segments = &a.sim;
        assert!(segments.n_segments() > 1, "cnu-6q windows");
        let mut sim = a.simulate();
        let mut rng = StdRng::seed_from_u64(11);
        let initial = sim.random_initial_state(&mut rng);
        assert_eq!(initial.register(), segments.first_register());
        let ideal = sim.run_ideal(&initial).clone();
        assert_eq!(ideal.register(), segments.last_register());
        let whole = Compiler::with_options(
            Target::paper(Strategy::mixed_radix_ccz()),
            CompileOptions::default().with_windowed_registers(false),
        )
        .compile(&c)
        .unwrap();
        let reference = waltz_sim::ideal::run(
            whole.sim_schedule(),
            &whole.random_product_initial_state(&mut StdRng::seed_from_u64(11)),
        );
        // Same logical input (identical RNG consumption), same unitary:
        // the decoded shot distributions must agree exactly.
        let counts_seg = a.sample_decoded(&ideal, 64, &mut StdRng::seed_from_u64(7));
        let counts_whole = a.sample_decoded(&reference, 64, &mut StdRng::seed_from_u64(7));
        assert_eq!(counts_seg, counts_whole);
        // And a noisy shot decodes without panicking.
        let noisy = sim.run_trajectory(&initial, &mut rng).clone();
        assert_eq!(noisy.register(), segments.last_register());
        let shots = a.sample_decoded(&noisy, 16, &mut rng);
        assert_eq!(shots.values().sum::<usize>(), 16);
        // A state on the whole-program register is a register mismatch.
        let whole_initial = a.random_product_initial_state(&mut rng);
        let mismatch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_ideal(&whole_initial);
        }));
        assert!(mismatch.is_err(), "a whole-register input must panic");
    }

    #[test]
    fn supervised_estimate_matches_plain_on_healthy_runs() {
        let a = artifact();
        let plain = a.simulate().average_fidelity(24);
        let (supervised, health) = a
            .simulate()
            .average_fidelity_supervised(24, &Default::default());
        assert_eq!(supervised.mean, plain.mean);
        assert_eq!(health.requested, 24);
        assert_eq!(health.completed, 24);
        assert_eq!(health.quarantined, 0);
        assert!(!health.early_stopped);
    }

    #[test]
    fn average_fidelity_respects_seed_and_noise_overrides() {
        let a = artifact();
        let x = a.simulate().with_seed(5).average_fidelity(20);
        let y = a.simulate().with_seed(5).average_fidelity(20);
        assert_eq!(x.mean, y.mean);
        let noiseless = a
            .simulate()
            .with_noise(NoiseModel::noiseless())
            .average_fidelity(5);
        assert!((noiseless.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn neighbouring_seeds_share_no_sample() {
        // Trajectory seeds are mixed from (seed, index): seed 101 is not
        // seed 100 shifted by one trajectory.
        let mut c = Circuit::new(6);
        c.ccx(0, 1, 3).ccx(2, 3, 4).ccx(2, 4, 5);
        let a = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()))
            .compile(&c)
            .unwrap();
        let first = a.simulate().with_seed(100).fidelity_samples(1000);
        let second = a.simulate().with_seed(101).fidelity_samples(1000);
        // An orthogonal collapse scores exactly 0 in any trajectory; every
        // other sample carries its trajectory's random input in its bits.
        let shared = second
            .iter()
            .filter(|&&f| f != 0.0 && first.iter().any(|g| g.to_bits() == f.to_bits()))
            .count();
        assert_eq!(shared, 0, "seeds 100 and 101 share {shared} samples");
    }
}
