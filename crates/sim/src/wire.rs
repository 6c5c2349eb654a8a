//! Wire-format ([`waltz_codec`]) implementations for the simulation
//! types.
//!
//! Derived state is recomputed, never serialized: a [`Register`] travels
//! as its dimension list (strides and totals rebuild in
//! [`Register::new`]), and a [`TimedOp`] travels without its
//! [`GateKernel`] — decode re-classifies the unitary through the same
//! probe as [`TimedOp::new`], so the specialized apply paths of a decoded
//! circuit are bit-identical to a freshly built one.

use waltz_codec::{ByteReader, ByteWriter, Decode, DecodeError, Encode};
use waltz_math::Matrix;

use crate::kernel::GateKernel;
use crate::timed::{FuseOptions, NoiseEvent, SegmentedCircuit, TimedCircuit, TimedOp};
use crate::Register;

impl Encode for Register {
    fn encode(&self, w: &mut ByteWriter) {
        self.dims().to_vec().encode(w);
    }
}

impl Decode for Register {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let dims: Vec<u8> = Vec::decode(r)?;
        if dims.is_empty() {
            return Err(DecodeError::Invalid("register needs at least one qudit"));
        }
        if dims.iter().any(|&d| d < 2) {
            return Err(DecodeError::Invalid("qudit dimension below 2"));
        }
        Ok(Register::new(dims))
    }
}

impl Encode for FuseOptions {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.sweep_overhead);
        w.put_usize(self.sweep_fixed);
        w.put_usize(self.max_block_span);
    }
}

impl Decode for FuseOptions {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(FuseOptions {
            sweep_overhead: r.get_usize()?,
            sweep_fixed: r.get_usize()?,
            max_block_span: r.get_usize()?,
        })
    }
}

impl Encode for NoiseEvent {
    fn encode(&self, w: &mut ByteWriter) {
        self.operands.encode(w);
        self.error_dims.encode(w);
        w.put_f64(self.fidelity);
        w.put_f64(self.start_ns);
        w.put_f64(self.duration_ns);
    }
}

impl Decode for NoiseEvent {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(NoiseEvent {
            operands: Vec::decode(r)?,
            error_dims: Vec::decode(r)?,
            fidelity: r.get_f64()?,
            start_ns: r.get_f64()?,
            duration_ns: r.get_f64()?,
        })
    }
}

impl Encode for TimedOp {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.label);
        self.unitary.encode(w);
        self.operands.encode(w);
        self.error_dims.encode(w);
        w.put_f64(self.start_ns);
        w.put_f64(self.duration_ns);
        w.put_f64(self.fidelity);
        self.noise_events.encode(w);
    }
}

impl Decode for TimedOp {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let label = r.get_str()?;
        let unitary = Matrix::decode(r)?;
        let operands: Vec<usize> = Vec::decode(r)?;
        let error_dims: Vec<u8> = Vec::decode(r)?;
        let start_ns = r.get_f64()?;
        let duration_ns = r.get_f64()?;
        let fidelity = r.get_f64()?;
        let noise_events: Option<Vec<NoiseEvent>> = Option::decode(r)?;
        let kernel = GateKernel::classify(&unitary, operands.len());
        Ok(TimedOp {
            label,
            unitary,
            operands,
            error_dims,
            start_ns,
            duration_ns,
            fidelity,
            kernel,
            noise_events,
        })
    }
}

impl Encode for TimedCircuit {
    fn encode(&self, w: &mut ByteWriter) {
        self.register.encode(w);
        self.ops.encode(w);
        w.put_f64(self.total_duration_ns);
    }
}

impl Decode for TimedCircuit {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let timed = TimedCircuit {
            register: Register::decode(r)?,
            ops: Vec::decode(r)?,
            total_duration_ns: r.get_f64()?,
        };
        timed
            .validate()
            .map_err(|_| DecodeError::Invalid("timed circuit violates schedule invariants"))?;
        Ok(timed)
    }
}

impl Encode for SegmentedCircuit {
    fn encode(&self, w: &mut ByteWriter) {
        self.segments.encode(w);
        w.put_f64(self.total_duration_ns);
    }
}

impl Decode for SegmentedCircuit {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let segments: Vec<TimedCircuit> = Vec::decode(r)?;
        let total_duration_ns = r.get_f64()?;
        if segments.is_empty() {
            return Err(DecodeError::Invalid("segmented circuit has no segments"));
        }
        let n = segments[0].register.n_qudits();
        if segments.iter().any(|s| s.register.n_qudits() != n) {
            return Err(DecodeError::Invalid("segments span different qudits"));
        }
        Ok(SegmentedCircuit::new(segments, total_duration_ns))
    }
}

#[cfg(test)]
mod tests {
    use waltz_codec::{decode_from_slice, encode_to_vec};
    use waltz_math::C64;

    use super::*;

    fn x2() -> Matrix {
        Matrix::from_rows(&[vec![C64::ZERO, C64::ONE], vec![C64::ONE, C64::ZERO]])
    }

    fn small_schedule() -> TimedCircuit {
        let mut t = TimedCircuit::new(Register::new(vec![2, 4]));
        t.ops.push(TimedOp::new(
            "X",
            waltz_gates::embed(&x2(), &[2], &[2]),
            vec![0],
            vec![2],
            0.0,
            35.0,
            0.999,
        ));
        t.ops.push(TimedOp::new(
            "CX2",
            waltz_gates::embed(&waltz_gates::standard::cx(), &[2, 2], &[2, 4]),
            vec![0, 1],
            vec![2, 2],
            35.0,
            251.0,
            0.99,
        ));
        t.total_duration_ns = 286.0;
        t
    }

    #[test]
    fn timed_circuit_round_trip_is_byte_identical() {
        let t = small_schedule();
        let bytes = encode_to_vec(&t);
        let back: TimedCircuit = decode_from_slice(&bytes).unwrap();
        assert_eq!(encode_to_vec(&back), bytes);
        assert_eq!(back.register, t.register);
        assert_eq!(back.len(), t.len());
        // The kernel is recomputed, not stored: same classification.
        for (a, b) in back.ops.iter().zip(&t.ops) {
            assert_eq!(
                std::mem::discriminant(&a.kernel),
                std::mem::discriminant(&b.kernel)
            );
        }
    }

    #[test]
    fn segmented_circuit_round_trips() {
        let s = SegmentedCircuit::single(small_schedule());
        let bytes = encode_to_vec(&s);
        let back: SegmentedCircuit = decode_from_slice(&bytes).unwrap();
        assert_eq!(encode_to_vec(&back), bytes);
        assert_eq!(back.n_segments(), 1);
    }

    #[test]
    fn invalid_schedule_is_rejected() {
        // One defect per schedule, in op `k` of the small schedule or in
        // the second event of its fused block.
        let edit = |k: usize, f: fn(&mut TimedOp)| {
            let mut t = small_schedule();
            f(&mut t.ops[k]);
            t
        };
        let event = |f: fn(&mut NoiseEvent)| {
            let mut t = small_schedule().fuse();
            f(&mut t.ops[0].noise_events.as_mut().expect("one fused block")[1]);
            t
        };
        let mut wide = TimedCircuit::new(Register::new(vec![20]));
        let u = Matrix::identity(20);
        wide.ops
            .push(TimedOp::new("U", u, vec![0], vec![17], 0.0, 10.0, 0.99));
        wide.total_duration_ns = 10.0;
        let cases = [
            // Op 1 starts before op 0 frees device 0.
            ("overlap", edit(1, |op| op.start_ns = 0.0)),
            ("operand outside", edit(0, |op| op.operands = vec![2])),
            (
                "no operand",
                edit(0, |op| {
                    op.operands.clear();
                    op.error_dims.clear();
                    op.unitary = Matrix::identity(1);
                }),
            ),
            // At zero duration the busy timeline cannot see the repeat.
            (
                "repeated operand",
                edit(1, |op| {
                    op.operands = vec![1, 1];
                    op.unitary = Matrix::identity(16);
                    op.duration_ns = 0.0;
                }),
            ),
            ("non-square", edit(0, |op| op.unitary = Matrix::zeros(2, 1))),
            // Error dims: one per operand, each in 2..=min(device dim, 16).
            ("error dim count", edit(0, |op| op.error_dims = vec![2, 2])),
            ("error dim 1", edit(0, |op| op.error_dims = vec![1])),
            (
                "error dim above device",
                edit(0, |op| op.error_dims = vec![4]),
            ),
            ("error dim above 16", wide),
            ("event error dims", event(|ev| ev.error_dims = vec![2])),
            (
                "event repeated operand",
                event(|ev| {
                    ev.operands = vec![1, 1];
                    ev.duration_ns = 0.0;
                }),
            ),
        ];
        for (name, t) in cases {
            let bytes = encode_to_vec(&t);
            let decoded = std::panic::catch_unwind(|| decode_from_slice::<TimedCircuit>(&bytes));
            assert!(
                matches!(decoded, Ok(Err(_))),
                "{name}: decode must return Err without panicking"
            );
        }
    }

    #[test]
    fn register_with_bad_dimension_is_rejected() {
        let bytes = encode_to_vec(&vec![2u8, 1, 4]);
        assert!(decode_from_slice::<Register>(&bytes).is_err());
    }
}
