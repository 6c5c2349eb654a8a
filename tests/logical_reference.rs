//! Trust in the logical reference: every compiled estimate scores its
//! trajectories against the source circuit run on `2^n` logical
//! amplitudes, never against a replay of the compiled schedule.
//!
//! * Where the schedule implements the circuit, each sample equals the
//!   replay reference's (a bare `Estimator` over the same schedule, input
//!   writer and seed) to 1e-12: the two references differ by rounding
//!   only, and neither draws from the RNG.
//! * With noise off, every paper strategy estimates 1 up to rounding, up
//!   to cnu-14q, past the reach of `verify::check`.
//! * A schedule with one op removed scores well below 1 with noise off,
//!   where a replay reference would still score 1.
//!
//! Run as its own CI step in release, with the vector arms and with
//! `WALTZ_SIMD=0`.

use waltz_circuit::Circuit;
use waltz_circuits::{cuccaro_adder, generalized_toffoli};
use waltz_core::{CompiledCircuit, Compiler, Strategy, Target};
use waltz_noise::NoiseModel;
use waltz_sim::trajectory::Estimator;

/// The four compile strategies of the paper's Fig. 7.
fn paper_strategies() -> [Strategy; 4] {
    [
        Strategy::qubit_only(),
        Strategy::qubit_only_itoffoli(),
        Strategy::mixed_radix_ccz(),
        Strategy::full_ququart(),
    ]
}

fn compile(circuit: &Circuit, strategy: Strategy) -> CompiledCircuit {
    Compiler::new(Target::paper(strategy))
        .compile(circuit)
        .expect("compiles")
        .into_compiled()
}

/// Asserts that the compiled estimate's samples are the replay
/// reference's to 1e-12 under the paper's noise model.
fn assert_matches_replay(name: &str, compiled: &CompiledCircuit, trajectories: usize) {
    let noise = NoiseModel::paper();
    let seed = 2024;
    let logical = compiled.estimator(&noise).samples(trajectories, seed);
    let replay = Estimator::new(compiled.sim_schedule(), &noise)
        .with_input(|_, rng, out| compiled.write_random_product_initial_state(rng, out))
        .samples(trajectories, seed);
    let worst = logical
        .iter()
        .zip(&replay)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(worst < 1e-12, "{name}: largest sample difference {worst:e}");
    // Noise is on: the samples are not all 1.
    assert!(logical.iter().any(|&f| f < 0.99), "{name}: no noisy sample");
}

#[test]
fn samples_match_the_replay_reference() {
    let cnu6 = generalized_toffoli(3);
    let adder8 = cuccaro_adder(3);
    for strategy in paper_strategies() {
        for (name, circuit) in [("cnu-6q", &cnu6), ("adder-8q", &adder8)] {
            let compiled = compile(circuit, strategy);
            assert_matches_replay(&format!("{name} {}", strategy.name()), &compiled, 300);
        }
    }
    let cnu10 = compile(&generalized_toffoli(5), Strategy::mixed_radix_ccz());
    assert_eq!(cnu10.sim_schedule().segments().len(), 10);
    assert_matches_replay("cnu-10q mixed-radix", &cnu10, 100);
}

#[test]
fn noiseless_estimates_are_one_for_every_paper_strategy() {
    let noise = NoiseModel::noiseless();
    for (name, circuit) in [
        ("cnu-6q", generalized_toffoli(3)),
        ("cnu-10q", generalized_toffoli(5)),
        ("cnu-14q", generalized_toffoli(7)),
        ("adder-8q", cuccaro_adder(3)),
    ] {
        for strategy in paper_strategies() {
            let compiled = compile(&circuit, strategy);
            let estimate = compiled.estimator(&noise).estimate(3, 77);
            assert!(
                estimate.mean >= 1.0 - 1e-12,
                "{name} {}: noiseless estimate {}",
                strategy.name(),
                estimate.mean
            );
        }
    }
}

#[test]
fn a_schedule_missing_an_op_scores_below_one_without_noise() {
    let noise = NoiseModel::noiseless();
    let circuit = generalized_toffoli(3);
    for strategy in [
        Strategy::qubit_only(),
        Strategy::mixed_radix_ccz(),
        Strategy::full_ququart(),
    ] {
        let mut broken = compile(&circuit, strategy);
        let segment = match (&mut broken.windowed, &mut broken.fused) {
            (Some(windowed), _) => windowed
                .segments
                .iter_mut()
                .max_by_key(|s| s.ops.len())
                .expect("a segment"),
            (None, Some(fused)) => fused,
            (None, None) => &mut broken.timed,
        };
        let middle = segment.ops.len() / 2;
        segment.ops.remove(middle);
        let estimate = broken.estimator(&noise).estimate(24, 5);
        assert!(
            estimate.mean < 0.99,
            "{}: a schedule without op {middle} still estimates {}",
            strategy.name(),
            estimate.mean
        );
    }
}
