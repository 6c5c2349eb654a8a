//! End-to-end measurement flow: prepare a basis input, run the compiled
//! circuit noisily, sample shots and decode ququart levels back into
//! logical bitstrings (§5.2: "the measured state would be decoded
//! according to the compression strategy").
//!
//! The shot loop runs through the artifact's `Simulation` session, which
//! owns the kernel workspace and state buffers — no per-shot allocation
//! and no hand-threaded `Workspace`.
//!
//! Run: `cargo run --release --example measure_and_decode`

use rand::rngs::StdRng;
use rand::SeedableRng;

use quantum_waltz::prelude::*;
use waltz_math::C64;

fn main() {
    // A 3-controls generalized Toffoli on 6 qubits: |111 00 0> -> |111 00 1>.
    let circuit = quantum_waltz::circuits::generalized_toffoli(3);
    let n = circuit.n_qubits();
    let compiled = Compiler::new(Target::paper(Strategy::full_ququart()))
        .compile(&circuit)
        .expect("compiles");

    // Prepare the all-controls-on basis input.
    let input_index = 0b111_000usize; // controls 1, ancillas & target 0
    let mut amps = vec![C64::ZERO; 1 << n];
    amps[input_index] = C64::ONE;
    // Inputs of the shot loop live on the simulation schedule's first
    // register (a split schedule's first window may differ from `timed`).
    let initial = compiled.embed_logical_state_on(
        compiled.sim_schedule().first_register(),
        &amps,
        &compiled.initial_sites,
    );

    let mut rng = StdRng::seed_from_u64(99);
    println!(
        "input  |{:0width$b}>  (controls all on)",
        input_index,
        width = n
    );
    println!(
        "expect |{:0width$b}>  (target flipped)\n",
        input_index | 1,
        width = n
    );

    // One noisy shot at a time, decoding each measured register. The
    // session reuses its buffers across all 300 trajectories.
    let mut sim = compiled.simulate();
    let mut counts = std::collections::BTreeMap::new();
    for _ in 0..300 {
        let final_state = sim.run_trajectory(&initial, &mut rng);
        let shot = compiled.sample_decoded(final_state, 1, &mut rng);
        for (bits, c) in shot {
            *counts.entry(bits).or_insert(0usize) += c;
        }
    }
    println!("decoded counts over 300 noisy shots:");
    let mut rows: Vec<(usize, usize)> = counts.into_iter().collect();
    rows.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (bits, count) in rows.iter().take(6) {
        println!("  |{:0width$b}>  x{count}", bits, width = n);
    }
    let correct = rows
        .iter()
        .find(|&&(bits, _)| bits == input_index | 1)
        .map(|&(_, c)| c)
        .unwrap_or(0);
    println!(
        "\ncorrect outcome rate: {:.1} % (gate+coherence noise accounts for the rest)",
        100.0 * correct as f64 / 300.0
    );
}
