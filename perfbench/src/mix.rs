//! Seeded job plans. Every input a workload feeds the program is a pure
//! function of `(workload seed, job index)`, so the same seed replays the
//! same circuits, inputs and request mix whichever load thread runs a
//! job.

use quantum_waltz::circuit::Circuit;
use quantum_waltz::circuits::{cuccaro_adder, generalized_toffoli, qram, select, synthetic};

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of job `index` under workload seed `seed`, on stream `stream`
/// (different streams give independent draws for the same job).
pub fn job_seed(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(seed ^ splitmix(stream)) ^ index)
}

/// Uniform draw in `0..n` from `(seed, stream, index)`.
pub fn pick(seed: u64, stream: u64, index: u64, n: usize) -> usize {
    (job_seed(seed, stream, index) % n.max(1) as u64) as usize
}

/// The classical input of a QRAM fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QramInput {
    /// Address bits (`m` of them).
    pub address: usize,
    /// Memory contents: bit `w` is the word at address `w`.
    pub memory: u64,
}

impl QramInput {
    /// A random input for `m` address bits.
    pub fn draw(m: usize, seed: u64, index: u64) -> QramInput {
        let words = 1usize << m;
        let h = job_seed(seed, 0x5152_414d, index);
        let memory = if words >= 64 {
            splitmix(h)
        } else {
            splitmix(h) & ((1u64 << words) - 1)
        };
        QramInput {
            address: (h % words as u64) as usize,
            memory,
        }
    }

    /// The logical input bitstring of `qram(m)` (qubit 0 = most
    /// significant bit): address qubits `0..m` hold the address with bit
    /// `b` on qubit `b`, word qubits hold the memory, the bus starts 0.
    pub fn logical_input(&self, m: usize) -> Vec<bool> {
        let words = 1usize << m;
        let mut bits = vec![false; m + words + 1];
        for (b, bit) in bits.iter_mut().enumerate().take(m) {
            *bit = (self.address >> b) & 1 == 1;
        }
        for w in 0..words {
            bits[m + w] = (self.memory >> w) & 1 == 1;
        }
        bits
    }

    /// The expected output: the input with the bus set to
    /// `memory[address]`.
    pub fn logical_output(&self, m: usize) -> Vec<bool> {
        let mut bits = self.logical_input(m);
        let last = bits.len() - 1;
        bits[last] = (self.memory >> self.address) & 1 == 1;
        bits
    }
}

/// One request of the `serve-loopback` mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile 1–4 circuits the server has never seen (cache misses).
    Fresh(Vec<CircuitSpec>),
    /// Resubmit 1–4 resident circuits (cache hits).
    Resubmit(Vec<usize>),
    /// Simulate a resident circuit of at most 10 qubits
    /// ([`SIMULATE_TARGET`]) by cache reference.
    Simulate {
        /// Index into [`resident_circuits`].
        resident: usize,
        /// Trajectory seed.
        seed: u64,
    },
}

/// A circuit generated for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSpec {
    /// `select(m, data, 2, seed)` — a paper-family circuit whose Pauli
    /// strings and index values are drawn from `seed`.
    Select {
        /// Index qubits.
        m: usize,
        /// Data qubits.
        data: usize,
        /// Circuit seed.
        seed: u64,
    },
    /// `synthetic(n, gates, 0.5, seed)`.
    Synthetic {
        /// Qubits.
        n: usize,
        /// Gate count.
        gates: usize,
        /// Circuit seed.
        seed: u64,
    },
}

impl CircuitSpec {
    /// Builds the circuit.
    pub fn build(&self) -> Circuit {
        match *self {
            CircuitSpec::Select { m, data, seed } => select(m, data, 2, seed),
            CircuitSpec::Synthetic { n, gates, seed } => synthetic(n, gates, 0.5, seed),
        }
    }
}

/// Trajectories per serve simulate request.
pub const SERVE_SIM_TRAJECTORIES: usize = 200;

/// Circuits compiled into the server's cache during set-up; resubmit
/// and simulate requests draw from them, so hits are hits whatever the
/// interleaving of the two connections.
pub fn resident_circuits() -> Vec<(String, Circuit)> {
    vec![
        ("cnu-6q".into(), generalized_toffoli(3)),
        ("cnu-8q".into(), generalized_toffoli(4)),
        ("cnu-10q".into(), generalized_toffoli(5)),
        ("adder-6q".into(), cuccaro_adder(2)),
        ("adder-10q".into(), cuccaro_adder(4)),
        ("qram-7q".into(), qram(2)),
        ("qram-12q".into(), qram(3)),
        ("cnu-20q".into(), generalized_toffoli(10)),
        ("qram-21q".into(), qram(4)),
    ]
}

/// Index of the resident circuit simulate requests run: cnu-6q, the
/// paper's headline circuit (Fig. 7) and the one `cnu6q-noisy` runs. It
/// is an assumption: the mix could as well cycle the other resident
/// circuits of at most 10 qubits. The run record's per-kind
/// percentiles show what the simulates cost on their own.
pub const SIMULATE_TARGET: usize = 0;

/// Request kinds of one block of the serve mix. The three parts of the
/// mix get equal shares, two requests each, in a seeded order within
/// each block: nothing names another split, and equal shares weigh
/// misses and hits alike.
const BLOCK: [u8; SERVE_BLOCK] = [0, 0, 1, 1, 2, 2];

/// Requests per block of the serve mix.
pub const SERVE_BLOCK: usize = 6;

/// Name of the kind of request `index` under `seed`, for per-kind
/// latency percentiles.
pub fn serve_kind(seed: u64, index: u64) -> &'static str {
    match block_order(seed, index / SERVE_BLOCK as u64)[(index % SERVE_BLOCK as u64) as usize] {
        0 => "fresh",
        1 => "resubmit",
        _ => "simulate",
    }
}

/// The seeded order of request kinds in block `block`.
fn block_order(seed: u64, block: u64) -> [u8; SERVE_BLOCK] {
    let mut order = BLOCK;
    for i in (1..order.len()).rev() {
        order.swap(i, pick(seed, 1, block * 16 + i as u64, i + 1));
    }
    order
}

/// Request `index` of the serve mix under `seed`.
///
/// The mix is stratified so every run holds the same proportions
/// whatever the seed: each block holds two fresh compile batches, two
/// resubmissions and two simulates, and batch sizes (1–4), fresh
/// circuit widths (6–21 qubits) and resubmitted circuits cycle from
/// seeded offsets. The seed picks the order within each block, every
/// circuit seed and every trajectory seed.
pub fn serve_request(seed: u64, index: u64, resident: &[(String, Circuit)]) -> Request {
    let (block, pos) = (
        index / SERVE_BLOCK as u64,
        (index % SERVE_BLOCK as u64) as usize,
    );
    let order = block_order(seed, block);
    // Ordinal of this request among the requests of its kind.
    let ordinal = |kind: u8| {
        let per_block = BLOCK.iter().filter(|&&k| k == kind).count() as u64;
        block * per_block + order[..pos].iter().filter(|&&k| k == kind).count() as u64
    };
    let offset = |stream: u64, n: usize| pick(seed, stream, u64::MAX, n);
    match order[pos] {
        0 => {
            let f = ordinal(0);
            let count = 1 + (f as usize + offset(2, 4)) % 4;
            let specs = (0..count as u64)
                .map(|k| {
                    let c = f * 4 + k;
                    let circuit_seed = job_seed(seed, 3, c);
                    if c % 2 == 0 {
                        // select width 2m-1+data: m=3 gives 5+data in
                        // 10..=12. Fewer data qubits leave too few
                        // distinct circuits (224 with one) for a run's
                        // fresh circuits never to repeat.
                        CircuitSpec::Select {
                            m: 3,
                            data: 5 + (c as usize / 2 + offset(5, 3)) % 3,
                            seed: circuit_seed,
                        }
                    } else {
                        let n = 6 + (c as usize / 2 + offset(4, 16)) % 16;
                        CircuitSpec::Synthetic {
                            n,
                            gates: 2 * n,
                            seed: circuit_seed,
                        }
                    }
                })
                .collect();
            Request::Fresh(specs)
        }
        1 => {
            let r = ordinal(1);
            let count = 1 + (r as usize + offset(6, 4)) % 4;
            Request::Resubmit(
                (0..count)
                    .map(|k| (r as usize * 4 + k + offset(7, resident.len())) % resident.len())
                    .collect(),
            )
        }
        _ => Request::Simulate {
            resident: SIMULATE_TARGET,
            seed: job_seed(seed, 9, ordinal(2)),
        },
    }
}
