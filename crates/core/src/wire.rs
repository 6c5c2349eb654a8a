//! Wire-format ([`waltz_codec`]) implementations for the compiler's
//! artifact chain: strategies and options, per-pass reports, the
//! [`CompiledCircuit`] and the full [`CompileArtifact`].
//!
//! Provenance never enters the format: the artifact's `cached` marker is
//! set by the [`crate::ArtifactCache`] on load, not serialized, so an
//! artifact's content hash is the same whether it was compiled fresh or
//! replayed from a store.

use waltz_codec::{ByteReader, ByteWriter, Decode, DecodeError, Encode};

use crate::artifact::CompileArtifact;
use crate::cache::CacheStats;
use crate::compile::{CompileError, CompileStats, CompiledCircuit};
use crate::eps::CoherenceSpan;
use crate::pipeline::{Pass, PassReport};
use crate::strategy::{CompileOptions, FqCswapMode, Fusion, MrCcxMode, QubitCcxMode, Strategy};
use crate::supervisor::{Degradation, JobReport, JobStatus};
use crate::target::TopologySpec;

impl Encode for Fusion {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            Fusion::Off => 0,
            Fusion::TwoQudit => 1,
        });
    }
}

impl Decode for Fusion {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(Fusion::Off),
            1 => Ok(Fusion::TwoQudit),
            tag => Err(DecodeError::BadTag { ty: "Fusion", tag }),
        }
    }
}

impl Encode for QubitCcxMode {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            QubitCcxMode::EightCx => 0,
            QubitCcxMode::IToffoli => 1,
        });
    }
}

impl Decode for QubitCcxMode {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(QubitCcxMode::EightCx),
            1 => Ok(QubitCcxMode::IToffoli),
            tag => Err(DecodeError::BadTag {
                ty: "QubitCcxMode",
                tag,
            }),
        }
    }
}

impl Encode for MrCcxMode {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            MrCcxMode::Raw => 0,
            MrCcxMode::Retarget => 1,
            MrCcxMode::CczTransform => 2,
        });
    }
}

impl Decode for MrCcxMode {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(MrCcxMode::Raw),
            1 => Ok(MrCcxMode::Retarget),
            2 => Ok(MrCcxMode::CczTransform),
            tag => Err(DecodeError::BadTag {
                ty: "MrCcxMode",
                tag,
            }),
        }
    }
}

impl Encode for FqCswapMode {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            FqCswapMode::Decompose => 0,
            FqCswapMode::Native => 1,
            FqCswapMode::NativeOriented => 2,
        });
    }
}

impl Decode for FqCswapMode {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(FqCswapMode::Decompose),
            1 => Ok(FqCswapMode::Native),
            2 => Ok(FqCswapMode::NativeOriented),
            tag => Err(DecodeError::BadTag {
                ty: "FqCswapMode",
                tag,
            }),
        }
    }
}

impl Encode for Strategy {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Strategy::QubitOnly { ccx } => {
                w.put_u8(0);
                ccx.encode(w);
            }
            Strategy::MixedRadix { ccx, native_cswap } => {
                w.put_u8(1);
                ccx.encode(w);
                w.put_bool(*native_cswap);
            }
            Strategy::FullQuquart { use_ccz, cswap } => {
                w.put_u8(2);
                w.put_bool(*use_ccz);
                cswap.encode(w);
            }
        }
    }
}

impl Decode for Strategy {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(Strategy::QubitOnly {
                ccx: QubitCcxMode::decode(r)?,
            }),
            1 => Ok(Strategy::MixedRadix {
                ccx: MrCcxMode::decode(r)?,
                native_cswap: r.get_bool()?,
            }),
            2 => Ok(Strategy::FullQuquart {
                use_ccz: r.get_bool()?,
                cswap: FqCswapMode::decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                ty: "Strategy",
                tag,
            }),
        }
    }
}

impl Encode for CompileOptions {
    fn encode(&self, w: &mut ByteWriter) {
        self.fusion.encode(w);
        self.max_fused_span.encode(w);
        w.put_bool(self.padded_registers);
        w.put_bool(self.windowed_registers);
        self.window_sweep_fixed.encode(w);
    }
}

impl Decode for CompileOptions {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(CompileOptions {
            fusion: Fusion::decode(r)?,
            max_fused_span: Option::decode(r)?,
            padded_registers: r.get_bool()?,
            windowed_registers: r.get_bool()?,
            window_sweep_fixed: Option::decode(r)?,
        })
    }
}

impl Encode for CompileStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.routing_swaps);
        w.put_usize(self.enc_windows);
        w.put_usize(self.hw_ops);
        w.put_f64(self.total_duration_ns);
    }
}

impl Decode for CompileStats {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(CompileStats {
            routing_swaps: r.get_usize()?,
            enc_windows: r.get_usize()?,
            hw_ops: r.get_usize()?,
            total_duration_ns: r.get_f64()?,
        })
    }
}

impl Encode for CoherenceSpan {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.device);
        w.put_usize(self.level);
        w.put_f64(self.start_ns);
        w.put_f64(self.end_ns);
    }
}

impl Decode for CoherenceSpan {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(CoherenceSpan {
            device: r.get_usize()?,
            level: r.get_usize()?,
            start_ns: r.get_f64()?,
            end_ns: r.get_f64()?,
        })
    }
}

impl Encode for Pass {
    fn encode(&self, w: &mut ByteWriter) {
        // Tag = position in execution order (Pass::ALL).
        let tag = Pass::ALL
            .iter()
            .position(|p| p == self)
            .expect("every pass is in Pass::ALL") as u8;
        w.put_u8(tag);
    }
}

impl Decode for Pass {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let tag = r.get_u8()?;
        Pass::ALL
            .get(tag as usize)
            .copied()
            .ok_or(DecodeError::BadTag { ty: "Pass", tag })
    }
}

impl Encode for PassReport {
    fn encode(&self, w: &mut ByteWriter) {
        self.pass.encode(w);
        w.put_f64(self.wall_ms);
        w.put_usize(self.ops_in);
        w.put_usize(self.ops_out);
        w.put_usize(self.depth_in);
        w.put_usize(self.depth_out);
        self.diagnostics.encode(w);
    }
}

impl Decode for PassReport {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(PassReport {
            pass: Pass::decode(r)?,
            wall_ms: r.get_f64()?,
            ops_in: r.get_usize()?,
            ops_out: r.get_usize()?,
            depth_in: r.get_usize()?,
            depth_out: r.get_usize()?,
            diagnostics: Vec::decode(r)?,
        })
    }
}

impl Encode for TopologySpec {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            TopologySpec::Auto => w.put_u8(0),
            TopologySpec::Fixed(t) => {
                w.put_u8(1);
                t.encode(w);
            }
        }
    }
}

impl Decode for TopologySpec {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(TopologySpec::Auto),
            1 => Ok(TopologySpec::Fixed(waltz_arch::Topology::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                ty: "TopologySpec",
                tag,
            }),
        }
    }
}

impl Encode for CompiledCircuit {
    fn encode(&self, w: &mut ByteWriter) {
        self.timed.encode(w);
        self.sim.encode(w);
        self.strategy.encode(w);
        self.initial_sites.encode(w);
        self.final_sites.encode(w);
        self.coherence_spans.encode(w);
        self.stats.encode(w);
        w.put_usize(self.slots_per_device);
        self.logical.encode(w);
    }
}

impl Decode for CompiledCircuit {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let compiled = CompiledCircuit {
            timed: Decode::decode(r)?,
            sim: Decode::decode(r)?,
            strategy: Strategy::decode(r)?,
            initial_sites: Vec::decode(r)?,
            final_sites: Vec::decode(r)?,
            coherence_spans: Vec::decode(r)?,
            stats: CompileStats::decode(r)?,
            slots_per_device: r.get_usize()?,
            logical: Decode::decode(r)?,
        };
        if !(1..=2).contains(&compiled.slots_per_device) {
            return Err(DecodeError::Invalid("slots per device must be 1 or 2"));
        }
        let n = compiled.logical.n_qubits();
        if n == 0 {
            return Err(DecodeError::Invalid("logical circuit has no qubits"));
        }
        if compiled.initial_sites.len() != n || compiled.final_sites.len() != n {
            return Err(DecodeError::Invalid(
                "site count differs from the logical circuit's width",
            ));
        }
        let schedule = compiled.sim_schedule();
        let n_devices = compiled.timed.register.n_qudits();
        for (sites, register) in [
            (&compiled.initial_sites, schedule.first_register()),
            (&compiled.final_sites, schedule.last_register()),
        ] {
            if register.n_qudits() != n_devices {
                return Err(DecodeError::Invalid(
                    "simulation schedule spans a different device count",
                ));
            }
            check_placement(&compiled, sites, register)?;
        }
        Ok(compiled)
    }
}

/// Checks that `sites` place distinct logical qubits on `register`'s
/// devices, in slots below `compiled`'s slots per device, such that no
/// device can reach a level at or above its dimension — what the input
/// writer and the estimator's placement maps index by.
fn check_placement(
    compiled: &CompiledCircuit,
    sites: &[waltz_arch::Site],
    register: &waltz_sim::Register,
) -> Result<(), DecodeError> {
    let mut top_level = vec![0usize; register.n_qudits()];
    for (i, site) in sites.iter().enumerate() {
        if site.device >= register.n_qudits() {
            return Err(DecodeError::Invalid("site names a device out of range"));
        }
        if site.slot >= compiled.slots_per_device {
            return Err(DecodeError::Invalid("site names a slot out of range"));
        }
        if sites[..i].contains(site) {
            return Err(DecodeError::Invalid("two logical qubits share a site"));
        }
        top_level[site.device] += compiled.site_weight(*site);
    }
    if top_level
        .iter()
        .enumerate()
        .any(|(d, &level)| level >= register.dim(d))
    {
        return Err(DecodeError::Invalid(
            "sites reach a level above their device's dimension",
        ));
    }
    Ok(())
}

impl Encode for CompileArtifact {
    fn encode(&self, w: &mut ByteWriter) {
        self.compiled().encode(w);
        w.put_usize(self.reports().len());
        for report in self.reports() {
            report.encode(w);
        }
        self.noise().encode(w);
        // `cached` is provenance, not content: deliberately not encoded.
    }
}

impl Decode for CompileArtifact {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let compiled = CompiledCircuit::decode(r)?;
        let reports: Vec<PassReport> = Vec::decode(r)?;
        let noise = waltz_noise::NoiseModel::decode(r)?;
        Ok(CompileArtifact::new(compiled, reports, noise))
    }
}

impl Encode for CompileError {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            CompileError::EmptyCircuit => w.put_u8(0),
            CompileError::TopologyTooSmall { needed, available } => {
                w.put_u8(1);
                w.put_usize(*needed);
                w.put_usize(*available);
            }
            CompileError::DuplicateOperands { gate_index, qubit } => {
                w.put_u8(2);
                w.put_usize(*gate_index);
                w.put_usize(*qubit);
            }
            CompileError::WrongOperandCount {
                gate_index,
                expected,
                got,
            } => {
                w.put_u8(3);
                w.put_usize(*gate_index);
                w.put_usize(*expected);
                w.put_usize(*got);
            }
            CompileError::NonFiniteAngle { gate_index } => {
                w.put_u8(4);
                w.put_usize(*gate_index);
            }
            CompileError::DisconnectedTopology { devices } => {
                w.put_u8(5);
                w.put_usize(*devices);
            }
            CompileError::QubitOutOfRange {
                gate_index,
                qubit,
                n_qubits,
            } => {
                w.put_u8(6);
                w.put_usize(*gate_index);
                w.put_usize(*qubit);
                w.put_usize(*n_qubits);
            }
            CompileError::Internal { pass, payload } => {
                w.put_u8(7);
                pass.encode(w);
                w.put_str(payload);
            }
            CompileError::DeadlineExceeded { pass, budget_ms } => {
                w.put_u8(8);
                pass.encode(w);
                w.put_u64(*budget_ms);
            }
            CompileError::OverBudget { needed, limit } => {
                w.put_u8(9);
                w.put_usize(*needed);
                w.put_usize(*limit);
            }
        }
    }
}

impl Decode for CompileError {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.get_u8()? {
            0 => CompileError::EmptyCircuit,
            1 => CompileError::TopologyTooSmall {
                needed: r.get_usize()?,
                available: r.get_usize()?,
            },
            2 => CompileError::DuplicateOperands {
                gate_index: r.get_usize()?,
                qubit: r.get_usize()?,
            },
            3 => CompileError::WrongOperandCount {
                gate_index: r.get_usize()?,
                expected: r.get_usize()?,
                got: r.get_usize()?,
            },
            4 => CompileError::NonFiniteAngle {
                gate_index: r.get_usize()?,
            },
            5 => CompileError::DisconnectedTopology {
                devices: r.get_usize()?,
            },
            6 => CompileError::QubitOutOfRange {
                gate_index: r.get_usize()?,
                qubit: r.get_usize()?,
                n_qubits: r.get_usize()?,
            },
            7 => CompileError::Internal {
                pass: Pass::decode(r)?,
                payload: r.get_str()?,
            },
            8 => CompileError::DeadlineExceeded {
                pass: Pass::decode(r)?,
                budget_ms: r.get_u64()?,
            },
            9 => CompileError::OverBudget {
                needed: r.get_usize()?,
                limit: r.get_usize()?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    ty: "CompileError",
                    tag,
                })
            }
        })
    }
}

impl Encode for JobStatus {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            JobStatus::Ok => 0,
            JobStatus::Err => 1,
            JobStatus::Panicked => 2,
            JobStatus::TimedOut => 3,
            JobStatus::OverBudget => 4,
        });
    }
}

impl Decode for JobStatus {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.get_u8()? {
            0 => JobStatus::Ok,
            1 => JobStatus::Err,
            2 => JobStatus::Panicked,
            3 => JobStatus::TimedOut,
            4 => JobStatus::OverBudget,
            tag => {
                return Err(DecodeError::BadTag {
                    ty: "JobStatus",
                    tag,
                })
            }
        })
    }
}

impl Encode for Degradation {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            Degradation::None => 0,
            Degradation::SafePipeline => 1,
            Degradation::Windowed => 2,
            Degradation::WholeDemoted => 3,
            Degradation::Sparse => 4,
        });
    }
}

impl Decode for Degradation {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.get_u8()? {
            0 => Degradation::None,
            1 => Degradation::SafePipeline,
            2 => Degradation::Windowed,
            3 => Degradation::WholeDemoted,
            4 => Degradation::Sparse,
            tag => {
                return Err(DecodeError::BadTag {
                    ty: "Degradation",
                    tag,
                })
            }
        })
    }
}

impl Encode for JobReport {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.index);
        match &self.result {
            Ok(artifact) => {
                w.put_u8(0);
                artifact.encode(w);
            }
            Err(error) => {
                w.put_u8(1);
                error.encode(w);
            }
        }
        self.status.encode(w);
        self.degradation.encode(w);
        w.put_bool(self.retried);
        // `cached` is provenance on the artifact side but *content* on a
        // job report: the whole point of shipping a report across a
        // process boundary is telling the submitter whether the shared
        // cache answered.
        w.put_bool(self.cached);
        w.put_f64(self.wall_ms);
    }
}

impl Decode for JobReport {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let index = r.get_usize()?;
        let result = match r.get_u8()? {
            0 => Ok(CompileArtifact::decode(r)?),
            1 => Err(CompileError::decode(r)?),
            tag => {
                return Err(DecodeError::BadTag {
                    ty: "JobReport.result",
                    tag,
                })
            }
        };
        let status = JobStatus::decode(r)?;
        if status != JobStatus::classify(&result) {
            return Err(DecodeError::Invalid("job status contradicts its result"));
        }
        let degradation = Degradation::decode(r)?;
        let retried = r.get_bool()?;
        let cached = r.get_bool()?;
        if cached && result.is_err() {
            return Err(DecodeError::Invalid("a failed job cannot be cached"));
        }
        let wall_ms = r.get_f64()?;
        if !wall_ms.is_finite() || wall_ms < 0.0 {
            return Err(DecodeError::Invalid("job wall_ms must be finite and >= 0"));
        }
        let mut result = result;
        if cached {
            if let Ok(artifact) = &mut result {
                artifact.set_cached(true);
            }
        }
        Ok(JobReport {
            index,
            result,
            status,
            degradation,
            retried,
            cached,
            wall_ms,
        })
    }
}

impl Encode for CacheStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.evictions_memory);
        w.put_u64(self.evictions_disk);
        w.put_usize(self.memory_entries);
    }
}

impl Decode for CacheStats {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(CacheStats {
            hits: r.get_u64()?,
            misses: r.get_u64()?,
            evictions_memory: r.get_u64()?,
            evictions_disk: r.get_u64()?,
            memory_entries: r.get_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use waltz_circuit::Circuit;
    use waltz_codec::{content_hash, decode_from_slice, encode_to_vec};

    use super::*;
    use crate::{Compiler, Target};

    fn cnu_artifact(strategy: Strategy) -> CompileArtifact {
        let mut c = Circuit::new(6);
        c.ccx(0, 1, 3).ccx(2, 3, 4).ccx(2, 4, 5);
        Compiler::new(Target::paper(strategy)).compile(&c).unwrap()
    }

    #[test]
    fn strategies_and_options_round_trip() {
        for strategy in [
            Strategy::qubit_only(),
            Strategy::qubit_only_itoffoli(),
            Strategy::mixed_radix_raw(),
            Strategy::mixed_radix_retarget(),
            Strategy::mixed_radix_ccz(),
            Strategy::full_ququart(),
            Strategy::MixedRadix {
                ccx: MrCcxMode::Retarget,
                native_cswap: true,
            },
            Strategy::FullQuquart {
                use_ccz: false,
                cswap: FqCswapMode::NativeOriented,
            },
        ] {
            let bytes = encode_to_vec(&strategy);
            let back: Strategy = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, strategy);
        }
        for options in [
            CompileOptions::default(),
            CompileOptions::unfused(),
            CompileOptions::default()
                .with_max_fused_span(3)
                .with_window_sweep_fixed(0),
            CompileOptions::default()
                .with_padded_registers()
                .with_windowed_registers(false),
        ] {
            let bytes = encode_to_vec(&options);
            let back: CompileOptions = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, options);
        }
    }

    #[test]
    fn every_pass_round_trips() {
        for pass in Pass::ALL {
            let bytes = encode_to_vec(&pass);
            assert_eq!(decode_from_slice::<Pass>(&bytes).unwrap(), pass);
        }
        let bytes = encode_to_vec(&7u8);
        assert!(decode_from_slice::<Pass>(&bytes).is_err());
    }

    #[test]
    fn compiled_artifact_round_trips_byte_identical() {
        for strategy in [
            Strategy::qubit_only(),
            Strategy::mixed_radix_ccz(),
            Strategy::full_ququart(),
        ] {
            let artifact = cnu_artifact(strategy);
            let bytes = encode_to_vec(&artifact);
            let back: CompileArtifact = decode_from_slice(&bytes).unwrap();
            assert_eq!(encode_to_vec(&back), bytes, "{}", strategy.name());
            assert_eq!(content_hash(&back), content_hash(&artifact));
            assert_eq!(back.stats, artifact.stats);
            assert_eq!(back.reports().len(), artifact.reports().len());
            assert!(!back.is_cached(), "cached is provenance, not content");
        }
    }

    #[test]
    fn cached_marker_does_not_change_the_encoding() {
        let artifact = cnu_artifact(Strategy::mixed_radix_ccz());
        let bytes = encode_to_vec(&artifact);
        let mut marked = artifact.clone();
        marked.set_cached(true);
        assert!(marked.is_cached());
        assert_eq!(encode_to_vec(&marked), bytes);
    }

    #[test]
    fn compile_errors_round_trip() {
        let errors = [
            CompileError::EmptyCircuit,
            CompileError::TopologyTooSmall {
                needed: 9,
                available: 4,
            },
            CompileError::DuplicateOperands {
                gate_index: 3,
                qubit: 1,
            },
            CompileError::WrongOperandCount {
                gate_index: 0,
                expected: 3,
                got: 2,
            },
            CompileError::NonFiniteAngle { gate_index: 7 },
            CompileError::DisconnectedTopology { devices: 5 },
            CompileError::QubitOutOfRange {
                gate_index: 2,
                qubit: 9,
                n_qubits: 4,
            },
            CompileError::Internal {
                pass: Pass::Route,
                payload: "injected".into(),
            },
            CompileError::DeadlineExceeded {
                pass: Pass::Fuse,
                budget_ms: 250,
            },
            CompileError::OverBudget {
                needed: 4096,
                limit: 1024,
            },
        ];
        for error in errors {
            let bytes = encode_to_vec(&error);
            assert_eq!(decode_from_slice::<CompileError>(&bytes).unwrap(), error);
        }
        let bytes = encode_to_vec(&200u8);
        assert!(decode_from_slice::<CompileError>(&bytes).is_err());
    }

    #[test]
    fn job_reports_round_trip_ok_and_err() {
        use crate::{Degradation, JobStatus, Supervisor};

        let mut c = Circuit::new(6);
        c.ccx(0, 1, 3).ccx(2, 3, 4).ccx(2, 4, 5);
        let supervisor = Supervisor::new(Compiler::new(Target::paper(Strategy::mixed_radix_ccz())));
        let ok = supervisor.compile_one(&c);
        assert_eq!(ok.status, JobStatus::Ok);
        let bytes = encode_to_vec(&ok);
        let back: crate::JobReport = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.index, ok.index);
        assert_eq!(back.status, ok.status);
        assert_eq!(back.degradation, ok.degradation);
        assert_eq!(back.retried, ok.retried);
        assert_eq!(back.cached, ok.cached);
        assert_eq!(back.wall_ms.to_bits(), ok.wall_ms.to_bits());
        assert_eq!(
            encode_to_vec(back.result.as_ref().unwrap()),
            encode_to_vec(ok.result.as_ref().unwrap()),
            "artifact bytes survive the report round trip"
        );
        // Re-encode of the whole report is byte-identical.
        assert_eq!(encode_to_vec(&back), bytes);

        let err = supervisor.compile_one(&Circuit::new(0));
        assert_eq!(err.status, JobStatus::Err);
        let bytes = encode_to_vec(&err);
        let back: crate::JobReport = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.status, JobStatus::Err);
        assert_eq!(back.degradation, Degradation::None);
        assert_eq!(
            back.result.as_ref().unwrap_err(),
            &CompileError::EmptyCircuit
        );
        assert_eq!(encode_to_vec(&back), bytes);
    }

    #[test]
    fn job_report_decode_rejects_contradictory_status() {
        use crate::{Degradation, JobStatus};
        let mut w = ByteWriter::new();
        w.put_usize(0);
        w.put_u8(1); // Err
        CompileError::EmptyCircuit.encode(&mut w);
        JobStatus::Panicked.encode(&mut w); // contradicts EmptyCircuit
        Degradation::None.encode(&mut w);
        w.put_bool(false);
        w.put_bool(false);
        w.put_f64(1.0);
        assert!(matches!(
            decode_from_slice::<crate::JobReport>(w.as_bytes()),
            Err(waltz_codec::DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn cache_stats_round_trip() {
        let stats = CacheStats {
            hits: 10,
            misses: 3,
            evictions_memory: 2,
            evictions_disk: 5,
            memory_entries: 7,
        };
        let bytes = encode_to_vec(&stats);
        assert_eq!(decode_from_slice::<CacheStats>(&bytes).unwrap(), stats);
    }

    /// The reason decoding `compiled`'s encoding is refused with.
    fn rejection(compiled: &CompiledCircuit) -> &'static str {
        match decode_from_slice::<CompiledCircuit>(&encode_to_vec(compiled)) {
            Err(DecodeError::Invalid(why)) => why,
            other => panic!("expected an Invalid rejection, got {other:?}"),
        }
    }

    /// A full-ququart artifact with a 3-level device holding one qubit in
    /// slot 0, and the index of a qubit on another device.
    fn three_level_artifact() -> (CompiledCircuit, usize, usize) {
        let mut c = Circuit::new(5);
        c.h(0).ccx(0, 1, 2);
        let compiled = Compiler::new(Target::paper(Strategy::full_ququart()))
            .compile(&c)
            .unwrap()
            .into_compiled();
        let first = compiled.sim_schedule().first_register().clone();
        let host = (0..5)
            .find(|&q| {
                let site = compiled.initial_sites[q];
                site.slot == 0 && first.dim(site.device) == 3
            })
            .expect("a slot-0 qubit on a 3-level device");
        let device = compiled.initial_sites[host].device;
        let other = (0..5)
            .find(|&q| compiled.initial_sites[q].device != device)
            .unwrap();
        (compiled, host, other)
    }

    #[test]
    fn decode_rejects_sites_that_do_not_match_the_logical_width() {
        let compiled = cnu_artifact(Strategy::mixed_radix_ccz()).into_compiled();
        let expected = "site count differs from the logical circuit's width";
        let mut narrow = compiled.clone();
        narrow.logical = Circuit::new(5);
        assert_eq!(rejection(&narrow), expected);
        let mut short = compiled.clone();
        short.initial_sites.pop();
        assert_eq!(rejection(&short), expected);
        let mut short = compiled.clone();
        short.final_sites.pop();
        assert_eq!(rejection(&short), expected);
        let mut empty = compiled;
        empty.logical = Circuit::new(0);
        empty.initial_sites.clear();
        empty.final_sites.clear();
        assert_eq!(rejection(&empty), "logical circuit has no qubits");
    }

    #[test]
    fn decode_rejects_repeated_sites() {
        let compiled = cnu_artifact(Strategy::qubit_only()).into_compiled();
        let mut twice = compiled.clone();
        twice.initial_sites[1] = twice.initial_sites[0];
        assert_eq!(rejection(&twice), "two logical qubits share a site");
        let mut twice = compiled;
        twice.final_sites[5] = twice.final_sites[2];
        assert_eq!(rejection(&twice), "two logical qubits share a site");
    }

    #[test]
    fn decode_rejects_slots_past_the_devices_slots() {
        let mut compiled = cnu_artifact(Strategy::mixed_radix_ccz()).into_compiled();
        assert_eq!(compiled.slots_per_device, 1);
        compiled.final_sites[3].slot = 1;
        assert_eq!(rejection(&compiled), "site names a slot out of range");
    }

    #[test]
    fn decode_rejects_sites_that_reach_past_a_devices_dimension() {
        // A slot-1 qubit beside the slot-0 one needs level 3 of a 3-level
        // device, checked on the schedule's first register for initial
        // sites and its last for final sites.
        let expected = "sites reach a level above their device's dimension";
        let (compiled, host, other) = three_level_artifact();
        let device = compiled.initial_sites[host].device;
        let mut crowded = compiled.clone();
        crowded.initial_sites[other] = waltz_arch::Site::new(device, 1);
        assert_eq!(rejection(&crowded), expected);
        let device = compiled.final_sites[host].device;
        assert_eq!(compiled.sim_schedule().last_register().dim(device), 3);
        let mut crowded = compiled.clone();
        crowded.final_sites[other] = waltz_arch::Site::new(device, 1);
        assert_eq!(rejection(&crowded), expected);
        // The untouched artifact decodes.
        let bytes = encode_to_vec(&compiled);
        assert!(decode_from_slice::<CompiledCircuit>(&bytes).is_ok());
    }

    #[test]
    fn corrupt_artifact_bytes_are_rejected_not_panicked() {
        let artifact = cnu_artifact(Strategy::qubit_only());
        let bytes = encode_to_vec(&artifact);
        // Truncation at every eighth cut must error cleanly.
        for cut in (0..bytes.len()).step_by(8) {
            assert!(decode_from_slice::<CompileArtifact>(&bytes[..cut]).is_err());
        }
    }
}
