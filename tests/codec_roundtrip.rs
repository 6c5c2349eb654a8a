//! Round-trip determinism of the wire codec over the whole artifact
//! chain: encode → decode → re-encode must be byte-identical for random
//! logical circuits and for compiled cnu-6q artifacts under every
//! strategy, and the v1 encoding itself is pinned by a golden-bytes
//! fixture (regenerate with `WALTZ_REGEN_GOLDEN=1` — only when
//! `CODEC_VERSION` revs, with a matching fixture filename).

use proptest::prelude::*;
use proptest::strategy::Strategy as _;

use quantum_waltz::prelude::{Circuit, CompileArtifact, Compiler, Target};
use waltz_circuit::{Gate, GateKind};
use waltz_codec::{
    content_hash, decode_from_slice, decode_versioned, encode_to_vec, encode_versioned,
    CODEC_VERSION,
};
use waltz_core::Strategy;
use waltz_gates::Q1Gate;

/// The golden fixture's path for the current format version: bumping
/// [`CODEC_VERSION`] without regenerating the fixture fails the suite
/// (and CI greps for the same pairing).
fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("codec_v{CODEC_VERSION}.bin"))
}

/// The fixed circuit behind the golden fixture: every gate tag the wire
/// format defines, in a deterministic order.
fn golden_circuit() -> Circuit {
    let mut c = Circuit::new(6);
    c.h(0)
        .one(Q1Gate::Rz(0.75), 1)
        .one(Q1Gate::Rx(-1.25), 2)
        .x(3)
        .cx(0, 1)
        .cz(1, 2)
        .swap(2, 3)
        .ccx(0, 1, 3)
        .ccz(2, 3, 4)
        .cswap(3, 4, 5)
        .csdg(4, 5);
    c
}

/// Content hash of the golden circuit, pinned: a hash change means the
/// canonical encoding changed, which requires a `CODEC_VERSION` bump and
/// a regenerated fixture.
const GOLDEN_CIRCUIT_HASH: u64 = 0x4b584abe195651e1;

/// A proptest strategy producing a random logical circuit on `n` qubits.
fn random_circuit(
    n: usize,
    max_gates: usize,
) -> impl proptest::strategy::Strategy<Value = Circuit> {
    let gate = (
        0usize..8,
        proptest::collection::vec(0usize..n, 3),
        -3.0f64..3.0,
    );
    proptest::collection::vec(gate, 1..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for (kind, qs, angle) in gates {
            let distinct = |k: usize| -> Option<Vec<usize>> {
                let mut v = qs.clone();
                v.truncate(k);
                v.sort_unstable();
                v.dedup();
                (v.len() == k).then_some(v)
            };
            match kind {
                0 => {
                    c.push(Gate::new(GateKind::One(Q1Gate::H), vec![qs[0]]));
                }
                1 => {
                    c.push(Gate::new(GateKind::One(Q1Gate::Rz(angle)), vec![qs[0]]));
                }
                2 => {
                    if let Some(v) = distinct(2) {
                        c.push(Gate::new(GateKind::Cx, v));
                    }
                }
                3 => {
                    if let Some(v) = distinct(2) {
                        c.push(Gate::new(GateKind::Cz, v));
                    }
                }
                4 => {
                    if let Some(v) = distinct(2) {
                        c.push(Gate::new(GateKind::Swap, v));
                    }
                }
                5 => {
                    if let Some(v) = distinct(3) {
                        c.push(Gate::new(GateKind::Ccx, v));
                    }
                }
                6 => {
                    if let Some(v) = distinct(3) {
                        c.push(Gate::new(GateKind::Ccz, v));
                    }
                }
                _ => {
                    if let Some(v) = distinct(3) {
                        c.push(Gate::new(GateKind::Cswap, v));
                    }
                }
            }
        }
        c
    })
}

/// The cnu-6q compute half (the acceptance workload).
fn cnu_6q() -> Circuit {
    let mut c = Circuit::new(6);
    c.ccx(0, 1, 3).ccx(2, 3, 4).ccx(2, 4, 5);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_circuits_round_trip_byte_identical(c in random_circuit(5, 24)) {
        let bytes = encode_to_vec(&c);
        let back: Circuit = decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(encode_to_vec(&back), bytes);
        prop_assert_eq!(content_hash(&back), content_hash(&c));
        prop_assert_eq!(back.n_qubits(), c.n_qubits());
        prop_assert_eq!(back.len(), c.len());
        // The versioned envelope round-trips too.
        let versioned = encode_versioned(&c);
        let back: Circuit = decode_versioned(&versioned).unwrap();
        prop_assert_eq!(encode_versioned(&back), versioned);
    }
}

#[test]
fn compiled_cnu_artifacts_round_trip_byte_identical() {
    let circuit = cnu_6q();
    for strategy in [
        Strategy::qubit_only(),
        Strategy::mixed_radix_ccz(),
        Strategy::full_ququart(),
    ] {
        let artifact = Compiler::new(Target::paper(strategy))
            .compile(&circuit)
            .unwrap();
        let bytes = encode_versioned(&artifact);
        let back: CompileArtifact = decode_versioned(&bytes).unwrap();
        assert_eq!(
            encode_versioned(&back),
            bytes,
            "{} artifact re-encode drifted",
            strategy.name()
        );
        assert_eq!(back.stats, artifact.stats);
        assert_eq!(back.timed.len(), artifact.timed.len());
    }
}

#[test]
fn golden_fixture_matches_the_current_format_version() {
    let path = golden_path();
    let bytes = encode_versioned(&golden_circuit());
    if std::env::var_os("WALTZ_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        eprintln!(
            "regenerated {} ({} bytes, circuit hash {:#018x})",
            path.display(),
            bytes.len(),
            content_hash(&golden_circuit())
        );
        return;
    }
    assert_eq!(
        content_hash(&golden_circuit()),
        GOLDEN_CIRCUIT_HASH,
        "the canonical circuit encoding changed: bump CODEC_VERSION, regenerate \
         the fixture (WALTZ_REGEN_GOLDEN=1) and update GOLDEN_CIRCUIT_HASH"
    );
    let golden = std::fs::read(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {} for CODEC_VERSION {CODEC_VERSION}; \
             regenerate with WALTZ_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        bytes, golden,
        "encoding of the golden circuit no longer matches the v{CODEC_VERSION} fixture"
    );
    // And the pinned bytes still decode to the same circuit.
    let back: Circuit = decode_versioned(&golden).unwrap();
    assert_eq!(content_hash(&back), GOLDEN_CIRCUIT_HASH);
}
