//! The unscheduled hardware program, its level-occupancy analysis
//! (whole-program *and* time-sliced) and its ASAP scheduler.
//!
//! Occupancy: every [`HwProgram::push`] advances a forward support
//! analysis that bounds, per device, the highest level the program can
//! ever populate (starting from a caller-declared entry occupancy — the
//! qubit subspace for bare-device regimes). The paper's mixed-radix
//! strategy only *temporarily* excites ENC hosts into ququart states, so
//! most devices provably never leave their lowest two levels;
//! [`HwProgram::demote_to_occupancy`] shrinks the simulated register to
//! exactly the occupied dimensions, and [`HwProgram::schedule`] restricts
//! each embedded unitary to the occupied subspace
//! ([`waltz_gates::embed_demoted`]).
//!
//! The analysis also keeps the full *occupancy profile* (the per-device
//! bound after every push), which is what makes the whole-program maximum
//! refinable in time: [`HwProgram::window_registers`] cuts the program at
//! the points where any device's occupied dimension changes (the
//! `ENC`/`DEC` window boundaries) and assigns each resulting segment its
//! own register, merging adjacent segments back whenever a cost model
//! says the state-copy at the boundary would cost more sweep-bytes than
//! the smaller register saves. [`HwProgram::schedule_windowed`] then
//! emits a [`waltz_sim::SegmentedCircuit`] whose segments share one ASAP
//! timeline (identical timing to [`HwProgram::schedule`]) but carry
//! per-segment registers.

use std::ops::Range;

use waltz_gates::{embed_demoted, GateLibrary, HwGate, SUPPORT_TOL};
use waltz_math::Matrix;
use waltz_sim::{Register, SegmentedCircuit, TimedCircuit, TimedOp};

/// One hardware gate bound to physical devices.
#[derive(Debug, Clone, PartialEq)]
pub struct HwOp {
    /// The pulse.
    pub gate: HwGate,
    /// Operand devices, in the gate's conventional order.
    pub devices: Vec<usize>,
}

/// An ordered hardware program over a device register, prior to
/// scheduling.
#[derive(Debug, Clone)]
pub struct HwProgram {
    dims: Vec<u8>,
    ops: Vec<HwOp>,
    /// Upper bound on the levels each device currently populates (forward
    /// support analysis, updated per push).
    cur_occ: Vec<u8>,
    /// Highest `cur_occ` each device ever reached, clamped at 2 (a
    /// register dimension cannot shrink below a qubit) — the dimensions a
    /// demoted register must provide.
    peak_occ: Vec<u8>,
    /// The declared pre-program occupancy (what `cur_occ` started as).
    entry_occ: Vec<u8>,
    /// Occupancy profile: the `cur_occ` snapshot after each push — the
    /// time-indexed data the windowed analysis cuts segments from.
    occ_after: Vec<Vec<u8>>,
}

/// Per-operand output support of `u` (on logical dims `ld`) when its
/// inputs are confined to levels `< in_dims[i]`: the smallest dimensions
/// containing every row reachable from an in-support column. Entries at
/// or below [`SUPPORT_TOL`] count as structural zeros.
fn support_after(u: &Matrix, ld: &[usize], in_dims: &[usize]) -> Vec<usize> {
    let total = u.rows();
    let digits = |mut idx: usize, out: &mut [usize]| {
        for k in (0..ld.len()).rev() {
            out[k] = idx % ld[k];
            idx /= ld[k];
        }
    };
    let mut need = vec![1usize; ld.len()];
    let mut col_digits = vec![0usize; ld.len()];
    let mut row_digits = vec![0usize; ld.len()];
    for col in 0..total {
        digits(col, &mut col_digits);
        if col_digits.iter().zip(in_dims).any(|(&dig, &m)| dig >= m) {
            continue;
        }
        for row in 0..total {
            if u[(row, col)].abs() <= SUPPORT_TOL {
                continue;
            }
            digits(row, &mut row_digits);
            for (n, &dig) in need.iter_mut().zip(&row_digits) {
                *n = (*n).max(dig + 1);
            }
        }
    }
    need
}

impl HwProgram {
    /// An empty program over devices with the given simulated dimensions.
    ///
    /// Entry occupancy defaults to the full device dimensions (sound for
    /// any initial state); regimes whose devices start in the qubit
    /// subspace should call [`HwProgram::set_entry_occupancy`] before
    /// pushing gates so the occupancy analysis can prove demotions.
    pub fn new(dims: Vec<u8>) -> Self {
        let cur_occ = dims.clone();
        let peak_occ = dims.iter().map(|&d| d.max(2)).collect();
        let entry_occ = dims.clone();
        HwProgram {
            dims,
            ops: Vec::new(),
            cur_occ,
            peak_occ,
            entry_occ,
            occ_after: Vec::new(),
        }
    }

    /// Declares the levels each device may populate *before the first
    /// gate* (e.g. `2` everywhere for bare-device regimes whose inputs
    /// are qubit products, §6.4). Tightening the entry support is what
    /// lets the analysis prove most mixed-radix devices never leave the
    /// qubit subspace.
    ///
    /// # Panics
    ///
    /// Panics if gates were already pushed, the length mismatches, or an
    /// entry exceeds its device dimension.
    pub fn set_entry_occupancy(&mut self, occ: Vec<u8>) {
        assert!(
            self.ops.is_empty(),
            "entry occupancy must be set before the first gate"
        );
        assert_eq!(occ.len(), self.dims.len(), "occupancy length mismatch");
        for (o, d) in occ.iter().zip(&self.dims) {
            assert!(*o >= 1 && o <= d, "entry occupancy out of range");
        }
        self.cur_occ.clone_from(&occ);
        self.peak_occ = occ.iter().map(|&o| o.max(2)).collect();
        self.entry_occ = occ;
    }

    /// Device dimensions.
    pub fn dims(&self) -> &[u8] {
        &self.dims
    }

    /// The occupancy analysis result so far: per device, the highest
    /// level bound the program ever populates (at least 2 — a register
    /// dimension cannot shrink below a qubit). Borrowed from the
    /// analysis state: no allocation per call.
    pub fn occupancy(&self) -> &[u8] {
        &self.peak_occ
    }

    /// The demotion step: shrinks the device dimensions to the occupancy
    /// analysis result, so scheduling embeds every unitary into the
    /// smallest register that holds the program's reachable states.
    ///
    /// Devices whose demoted dimension is smaller than some gate's
    /// logical dimension (mixed-radix `ENC`/`DEC` partners) are kept only
    /// when every such gate leaves the occupied subspace closed
    /// ([`waltz_gates::restriction_closed`]); otherwise the offending
    /// operands are promoted back and the check reruns to a fixpoint.
    /// Dimensions never grow past the physical dimensions, so this is a
    /// no-op for programs that genuinely use their full register.
    pub fn demote_to_occupancy(&mut self) {
        let dims: Vec<u8> = self
            .peak_occ
            .iter()
            .zip(&self.dims)
            .map(|(&p, &d)| p.min(d))
            .collect();
        let cap = self.dims.clone();
        self.dims = self.closed_dims(0..self.ops.len(), dims, &cap);
    }

    /// Closure fixpoint of candidate register dimensions against the ops
    /// in `range`: any gate whose restriction to the candidate subspace
    /// would not stay unitary ([`waltz_gates::restriction_closed`])
    /// promotes its operands toward their logical dimensions, capped at
    /// `cap` (the physical — or already-demoted — dimensions). Rescans
    /// until no op forces a promotion: promoting a device can break
    /// closure of an op checked earlier (closure is not monotone in the
    /// subspace).
    fn closed_dims(&self, range: Range<usize>, mut dims: Vec<u8>, cap: &[u8]) -> Vec<u8> {
        loop {
            let mut changed = false;
            for op in &self.ops[range.clone()] {
                let ld = op.gate.logical_dims();
                if op
                    .devices
                    .iter()
                    .zip(&ld)
                    .all(|(&d, &l)| dims[d] as usize >= l)
                {
                    continue;
                }
                let sub: Vec<usize> = op
                    .devices
                    .iter()
                    .zip(&ld)
                    .map(|(&d, &l)| l.min(dims[d] as usize))
                    .collect();
                if !waltz_gates::restriction_closed(&op.gate.unitary(), &ld, &sub) {
                    for (i, &d) in op.devices.iter().enumerate() {
                        let l = (ld[i].min(cap[d] as usize)) as u8;
                        if dims[d] < l {
                            dims[d] = l;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return dims;
            }
        }
    }

    /// The ops in program order.
    pub fn ops(&self) -> &[HwOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends a gate on the given devices.
    ///
    /// # Panics
    ///
    /// Panics if the operand count mismatches the gate arity, a device
    /// repeats or is out of range, or a logical dimension exceeds the
    /// device dimension.
    pub fn push(&mut self, gate: HwGate, devices: Vec<usize>) {
        let logical = gate.logical_dims();
        assert_eq!(
            devices.len(),
            logical.len(),
            "operand count mismatch for {gate:?}"
        );
        for (i, &d) in devices.iter().enumerate() {
            assert!(d < self.dims.len(), "device {d} out of range");
            assert!(
                logical[i] <= self.dims[d] as usize,
                "gate {gate:?} needs a {}-level device at operand {i}, device {d} has {}",
                logical[i],
                self.dims[d]
            );
            for &other in devices.iter().skip(i + 1) {
                assert_ne!(d, other, "repeated device operand in {gate:?}");
            }
        }
        // Occupancy transfer: propagate each operand's current support
        // through the gate's unitary. Levels at or above the gate's
        // logical dimension are untouched by the (identity-padded)
        // embedding, so support already present there persists.
        let in_dims: Vec<usize> = devices
            .iter()
            .zip(&logical)
            .map(|(&d, &l)| l.min(self.cur_occ[d] as usize))
            .collect();
        let out = support_after(&gate.unitary(), &logical, &in_dims);
        for (i, &d) in devices.iter().enumerate() {
            let keep = if (self.cur_occ[d] as usize) > logical[i] {
                self.cur_occ[d] as usize
            } else {
                0
            };
            let new = out[i].max(keep).min(self.dims[d] as usize) as u8;
            self.cur_occ[d] = new;
            self.peak_occ[d] = self.peak_occ[d].max(new);
        }
        self.occ_after.push(self.cur_occ.clone());
        self.ops.push(HwOp { gate, devices });
    }

    /// Counts ops per hardware-gate label.
    pub fn histogram(&self) -> std::collections::BTreeMap<String, usize> {
        let mut h = std::collections::BTreeMap::new();
        for op in &self.ops {
            *h.entry(label_of(&op.gate)).or_insert(0) += 1;
        }
        h
    }

    /// ASAP-schedules the program with the library's calibrated durations,
    /// embedding each unitary to the device dimensions: the one-window
    /// case of [`HwProgram::schedule_windowed`]. On a demoted register
    /// ([`HwProgram::demote_to_occupancy`]) a gate whose logical
    /// dimension exceeds an operand's device dimension is *restricted* to
    /// the occupied subspace instead — sound because demotion verified the
    /// gate keeps that subspace closed.
    pub fn schedule(&self, lib: &GateLibrary) -> TimedCircuit {
        let whole = RegisterWindow {
            ops: 0..self.ops.len(),
            dims: self.dims.clone(),
        };
        let mut scheduled = self.schedule_windowed(lib, std::slice::from_ref(&whole));
        scheduled.segments.pop().expect("one window, one segment")
    }

    /// The per-op required dimensions of the windowed analysis: during op
    /// `i`, device `d` must provide the larger of its occupancy bound
    /// entering and leaving the op (an `ENC` needs its host at dimension
    /// 4 the moment it fires, a `DEC` until the moment it completes),
    /// clamped to at least a qubit and at most the current register
    /// dimensions.
    fn required_dims(&self, i: usize) -> Vec<u8> {
        let before = if i == 0 {
            &self.entry_occ
        } else {
            &self.occ_after[i - 1]
        };
        before
            .iter()
            .zip(&self.occ_after[i])
            .zip(&self.dims)
            .map(|((&b, &a), &cap)| b.max(a).clamp(2, cap))
            .collect()
    }

    /// The time-sliced occupancy analysis: cuts the program wherever any
    /// device's occupied dimension changes (the `ENC`/`DEC` window
    /// boundaries) and assigns each segment the smallest register that
    /// holds its ops (closure-checked like
    /// [`HwProgram::demote_to_occupancy`], promotions capped at the
    /// current register dimensions so a segment never exceeds the
    /// whole-program register).
    ///
    /// A reshape at a segment boundary costs one state copy, so adjacent
    /// segments are greedily merged back whenever the copy costs more
    /// than the smaller registers save: with each op priced as one sweep
    /// over its segment's state and the copy as one read of the left
    /// state plus one write of the right, a boundary survives only when
    /// `ops_l * amps_l + ops_r * amps_r + amps_l + amps_r` undercuts
    /// `(ops_l + ops_r) * amps_merged` — the byte-seconds balance of the
    /// ROADMAP follow-up. Merging is re-evaluated to a fixpoint (best
    /// gain first), so chains of short windows collapse into one segment
    /// while genuinely disjoint windows stay split.
    ///
    /// Call after [`HwProgram::demote_to_occupancy`]: the segment
    /// registers are then elementwise bounded by the demoted register,
    /// making the windowed peak state size at most the whole-program one.
    /// Returns one window covering the whole program when nothing is
    /// worth splitting (or the program is empty).
    ///
    /// This entry point prices sweeps by amplitude count alone
    /// (`sweep_fixed = 0`); the compiler calls
    /// [`HwProgram::window_registers_with`] with the fusion cost model's
    /// checked-in fixed per-sweep term.
    pub fn window_registers(&self) -> Vec<RegisterWindow> {
        self.window_registers_with(0)
    }

    /// [`HwProgram::window_registers`] with an explicit fixed per-sweep
    /// cost (in amplitude-multiply units, the same quantity as
    /// [`waltz_sim::FuseOptions::sweep_fixed`]): each sweep over the
    /// state — one per op, plus the reshape's read and write at every
    /// boundary — costs `sweep_fixed` on top of its amplitude count. The
    /// per-op fixed terms are identical split or merged and cancel, so
    /// the knob's whole effect is `2 * sweep_fixed` added to every
    /// boundary's split cost: short windows whose byte savings cannot
    /// cover two fixed sweep costs merge back instead of splitting.
    pub fn window_registers_with(&self, sweep_fixed: usize) -> Vec<RegisterWindow> {
        if self.ops.is_empty() {
            return vec![RegisterWindow {
                ops: 0..0,
                dims: self.dims.clone(),
            }];
        }
        // Finest candidate segmentation: maximal runs of equal required
        // dims. Each run's register is the closure fixpoint of its
        // requirement.
        let mut windows: Vec<RegisterWindow> = Vec::new();
        let mut start = 0usize;
        let mut run_req = self.required_dims(0);
        for i in 1..self.ops.len() {
            let req = self.required_dims(i);
            if req != run_req {
                windows.push(RegisterWindow {
                    ops: start..i,
                    dims: std::mem::take(&mut run_req),
                });
                start = i;
                run_req = req;
            }
        }
        windows.push(RegisterWindow {
            ops: start..self.ops.len(),
            dims: run_req,
        });
        for w in &mut windows {
            w.dims = self.closed_dims(w.ops.clone(), std::mem::take(&mut w.dims), &self.dims);
        }
        // Cost-model merge to a fixpoint: take the best-gain merge first
        // so cheap boundaries disappear before their neighbours are
        // priced. Each adjacent pair's evaluation (closure fixpoint +
        // costs) is memoized and a merge invalidates only the two pairs
        // that now touch the merged window, so the loop performs O(1)
        // closure scans per merge after the initial pass instead of
        // re-scanning every pair each round.
        let amps = |dims: &[u8]| -> f64 { dims.iter().map(|&d| d as f64).product() };
        let evaluate = |l: &RegisterWindow, r: &RegisterWindow| -> (f64, Vec<u8>) {
            let merged_req: Vec<u8> = l
                .dims
                .iter()
                .zip(&r.dims)
                .map(|(&a, &b)| a.max(b))
                .collect();
            let merged_dims = self.closed_dims(l.ops.start..r.ops.end, merged_req, &self.dims);
            let (amps_l, amps_r, amps_m) = (amps(&l.dims), amps(&r.dims), amps(&merged_dims));
            let (ops_l, ops_r) = (l.ops.len() as f64, r.ops.len() as f64);
            let cost_split =
                ops_l * amps_l + ops_r * amps_r + amps_l + amps_r + 2.0 * sweep_fixed as f64;
            let cost_merged = (ops_l + ops_r) * amps_m;
            (cost_split - cost_merged, merged_dims)
        };
        // pair_eval[i] prices merging windows[i] with windows[i + 1].
        let mut pair_eval: Vec<Option<(f64, Vec<u8>)>> =
            vec![None; windows.len().saturating_sub(1)];
        loop {
            for i in 0..pair_eval.len() {
                if pair_eval[i].is_none() {
                    pair_eval[i] = Some(evaluate(&windows[i], &windows[i + 1]));
                }
            }
            // First-of-equal-gains wins (strict `>`), keeping the merge
            // order identical to the unmemoized scan.
            let mut best: Option<(usize, f64)> = None;
            for (i, e) in pair_eval.iter().enumerate() {
                let (gain, _) = e.as_ref().expect("pair evaluated above");
                if *gain >= 0.0 && best.map(|(_, g)| *gain > g).unwrap_or(true) {
                    best = Some((i, *gain));
                }
            }
            match best {
                Some((i, _)) => {
                    let (_, merged_dims) = pair_eval.remove(i).expect("pair evaluated above");
                    let right = windows.remove(i + 1);
                    windows[i].ops = windows[i].ops.start..right.ops.end;
                    windows[i].dims = merged_dims;
                    // Only the pairs now adjacent to the merged window
                    // changed.
                    if i > 0 {
                        pair_eval[i - 1] = None;
                    }
                    if i < pair_eval.len() {
                        pair_eval[i] = None;
                    }
                }
                None => return windows,
            }
        }
    }

    /// Schedules the program into one segment per [`RegisterWindow`]
    /// (see [`HwProgram::window_registers`]): one global ASAP timeline —
    /// start times, durations and the total wall-clock are identical to
    /// [`HwProgram::schedule`] — with each op embedded to *its segment's*
    /// register and its error channel clipped to the segment dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the windows do not tile the program contiguously.
    pub fn schedule_windowed(
        &self,
        lib: &GateLibrary,
        windows: &[RegisterWindow],
    ) -> SegmentedCircuit {
        let mut free_at = vec![0.0f64; self.dims.len()];
        let mut total: f64 = 0.0;
        let mut segments: Vec<TimedCircuit> = Vec::with_capacity(windows.len());
        let mut cursor = 0usize;
        for w in windows {
            assert_eq!(w.ops.start, cursor, "windows must tile the program");
            cursor = w.ops.end;
            let mut segment = TimedCircuit::new(Register::new(w.dims.clone()));
            for op in &self.ops[w.ops.clone()] {
                let logical_dims = op.gate.logical_dims();
                let dev_dims: Vec<usize> = op.devices.iter().map(|&d| w.dims[d] as usize).collect();
                let unitary = embed_demoted(&op.gate.unitary(), &logical_dims, &dev_dims);
                let start = op
                    .devices
                    .iter()
                    .map(|&d| free_at[d])
                    .fold(0.0f64, f64::max);
                let duration = lib.duration(&op.gate);
                for &d in &op.devices {
                    free_at[d] = start + duration;
                }
                total = total.max(start + duration);
                // The error channel is drawn on the gate's calibrated
                // logical dimensions, clipped to the device: a demoted
                // device's errors are confined to the subspace it can
                // actually populate.
                let error_dims: Vec<u8> = logical_dims
                    .iter()
                    .zip(&dev_dims)
                    .map(|(&l, &d)| l.min(d) as u8)
                    .collect();
                // TimedOp::new classifies the embedded unitary into its
                // GateKernel here, once per compile, so every simulation
                // of the schedule reuses the specialized apply path.
                segment.ops.push(TimedOp::new(
                    label_of(&op.gate),
                    unitary,
                    op.devices.clone(),
                    error_dims,
                    start,
                    duration,
                    lib.fidelity(&op.gate),
                ));
            }
            segments.push(segment);
        }
        assert_eq!(cursor, self.ops.len(), "windows must cover every op");
        for segment in &mut segments {
            segment.total_duration_ns = total;
        }
        SegmentedCircuit::new(segments, total)
    }
}

/// One segment of the time-sliced occupancy analysis
/// ([`HwProgram::window_registers`]): a contiguous op range and the
/// per-device register dimensions it simulates on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterWindow {
    /// The ops this window covers (contiguous, in program order).
    pub ops: Range<usize>,
    /// Per-device register dimensions while the window is active.
    pub dims: Vec<u8>,
}

impl RegisterWindow {
    /// State-vector amplitudes of this window's register.
    pub fn amplitudes(&self) -> usize {
        self.dims.iter().map(|&d| d as usize).product()
    }

    /// State-vector bytes of this window's register (16 per amplitude).
    pub fn state_bytes(&self) -> usize {
        self.amplitudes() * std::mem::size_of::<waltz_math::C64>()
    }
}

/// Short display label for a hardware gate.
pub fn label_of(gate: &HwGate) -> String {
    match gate {
        HwGate::QubitU(g) => format!("U({g:?})"),
        HwGate::QuartU { slot, gate } => format!("QuartU{}({gate:?})", slot.index()),
        HwGate::QuartU2 { .. } => "QuartU01".into(),
        HwGate::MrCcx(c) => format!("MrCcx::{c:?}"),
        HwGate::MrCswap(c) => format!("MrCswap::{c:?}"),
        HwGate::FqCcx(c) => format!("FqCcx::{c:?}"),
        HwGate::FqCswap(c) => format!("FqCswap::{c:?}"),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waltz_gates::Q1Gate;

    #[test]
    fn schedule_is_asap_and_valid() {
        let mut p = HwProgram::new(vec![2, 2, 2]);
        p.push(HwGate::QubitU(Q1Gate::H), vec![0]);
        p.push(HwGate::QubitU(Q1Gate::H), vec![2]);
        p.push(HwGate::QubitCx, vec![0, 1]);
        p.push(HwGate::QubitCx, vec![1, 2]);
        let lib = GateLibrary::paper();
        let tc = p.schedule(&lib);
        assert!(tc.validate().is_ok());
        // H gates run in parallel at t=0.
        assert_eq!(tc.ops[0].start_ns, 0.0);
        assert_eq!(tc.ops[1].start_ns, 0.0);
        // First CX waits for H on 0.
        assert_eq!(tc.ops[2].start_ns, 35.0);
        // Second CX waits for first (shares device 1) and H(2).
        assert_eq!(tc.ops[3].start_ns, 35.0 + 251.0);
        assert_eq!(tc.total_duration_ns, 35.0 + 251.0 + 251.0);
    }

    #[test]
    fn schedule_embeds_to_device_dims() {
        let mut p = HwProgram::new(vec![4, 4]);
        p.push(HwGate::QubitCx, vec![0, 1]);
        let tc = p.schedule(&GateLibrary::paper());
        assert_eq!(tc.ops[0].unitary.rows(), 16);
        assert_eq!(tc.ops[0].error_dims, vec![2, 2]);
        assert!(tc.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "needs a 4-level device")]
    fn quart_gate_on_qubit_device_rejected() {
        let mut p = HwProgram::new(vec![2]);
        p.push(HwGate::QuartCx0, vec![0]);
    }

    #[test]
    #[should_panic(expected = "repeated device")]
    fn repeated_operand_rejected() {
        let mut p = HwProgram::new(vec![2, 2]);
        p.push(HwGate::QubitCx, vec![1, 1]);
    }

    #[test]
    fn occupancy_tracks_enc_windows_and_demotes_bystanders() {
        // Three 4-level devices, entry-confined to the qubit subspace:
        // an ENC window on (0, 1) with an MrCcz against device 2.
        let mut p = HwProgram::new(vec![4, 4, 4]);
        p.set_entry_occupancy(vec![2, 2, 2]);
        p.push(HwGate::QubitU(Q1Gate::H), vec![2]);
        p.push(HwGate::Enc, vec![0, 1]);
        p.push(HwGate::MrCcz, vec![0, 2]);
        p.push(HwGate::Dec, vec![0, 1]);
        // Host 0 reached level 3; partner 1 and third 2 never left {0,1}.
        assert_eq!(p.occupancy(), vec![4, 2, 2]);
        p.demote_to_occupancy();
        assert_eq!(p.dims(), &[4, 2, 2]);
        let tc = p.schedule(&GateLibrary::paper());
        assert!(tc.validate().is_ok(), "{:?}", tc.validate());
        // ENC on (4, 2): restricted to an 8x8 block, still unitary.
        assert_eq!(tc.ops[1].unitary.rows(), 8);
        for op in &tc.ops {
            assert!(op.unitary.is_unitary(1e-12), "{}", op.label);
            for (&e, &q) in op.error_dims.iter().zip(&op.operands) {
                assert!(e as usize <= tc.register.dim(q), "{}", op.label);
            }
        }
    }

    #[test]
    fn occupancy_is_conservative_without_entry_declaration() {
        // Without the qubit-subspace entry declaration the analysis must
        // assume full occupancy: nothing demotes.
        let mut p = HwProgram::new(vec![4, 4]);
        p.push(HwGate::QubitCx, vec![0, 1]);
        assert_eq!(p.occupancy(), vec![4, 4]);
        p.demote_to_occupancy();
        assert_eq!(p.dims(), &[4, 4]);
    }

    #[test]
    fn qubit_gates_never_promote_bare_entry() {
        let mut p = HwProgram::new(vec![4, 4]);
        p.set_entry_occupancy(vec![2, 2]);
        p.push(HwGate::QubitU(Q1Gate::H), vec![0]);
        p.push(HwGate::QubitCx, vec![0, 1]);
        p.push(HwGate::QubitSwap, vec![0, 1]);
        assert_eq!(p.occupancy(), vec![2, 2]);
        p.demote_to_occupancy();
        assert_eq!(p.dims(), &[2, 2]);
        let tc = p.schedule(&GateLibrary::paper());
        assert_eq!(tc.register.total_dim(), 4);
        assert!(tc.validate().is_ok());
    }

    #[test]
    fn demoted_schedule_matches_padded_amplitudes() {
        use waltz_math::C64;
        use waltz_sim::State;
        // ENC window program simulated on demoted vs padded registers:
        // amplitudes must agree index-by-index on the occupied subspace.
        let build = || {
            let mut p = HwProgram::new(vec![4, 4, 4]);
            p.set_entry_occupancy(vec![2, 2, 2]);
            p.push(HwGate::QubitU(Q1Gate::H), vec![0]);
            p.push(HwGate::QubitU(Q1Gate::H), vec![2]);
            p.push(HwGate::Enc, vec![0, 1]);
            p.push(HwGate::MrCcz, vec![0, 2]);
            p.push(HwGate::Dec, vec![0, 1]);
            p.push(HwGate::QubitCx, vec![0, 2]);
            p
        };
        let lib = GateLibrary::paper();
        let padded = build().schedule(&lib);
        let mut demoted_prog = build();
        demoted_prog.demote_to_occupancy();
        let demoted = demoted_prog.schedule(&lib);
        assert!(demoted.register.total_dim() < padded.register.total_dim());
        let out_p = waltz_sim::ideal::run(&padded, &State::zero(&padded.register));
        let out_d = waltz_sim::ideal::run(&demoted, &State::zero(&demoted.register));
        let mut digits = vec![0usize; 3];
        for idx in 0..padded.register.total_dim() {
            padded.register.digits_into(idx, &mut digits);
            let inside = digits
                .iter()
                .enumerate()
                .all(|(q, &dig)| dig < demoted.register.dim(q));
            let got = out_p.amplitudes()[idx];
            if inside {
                let want = out_d.amplitudes()[demoted.register.index_of(&digits)];
                assert!(got.approx_eq(want, 1e-12), "idx {idx}");
            } else {
                assert!(got.approx_eq(C64::ZERO, 1e-12), "leak at {idx}");
            }
        }
    }

    /// Two disjoint ENC windows on different hosts with qubit work
    /// between them — the shape the windowed analysis exists for.
    fn two_window_program() -> HwProgram {
        let mut p = HwProgram::new(vec![4, 4, 4, 4]);
        p.set_entry_occupancy(vec![2, 2, 2, 2]);
        p.push(HwGate::QubitU(Q1Gate::H), vec![0]);
        p.push(HwGate::QubitU(Q1Gate::H), vec![2]);
        p.push(HwGate::QubitCx, vec![0, 1]);
        p.push(HwGate::QubitCx, vec![2, 3]);
        p.push(HwGate::Enc, vec![0, 1]);
        p.push(HwGate::MrCcz, vec![0, 2]);
        p.push(HwGate::Dec, vec![0, 1]);
        p.push(HwGate::QubitCx, vec![0, 2]);
        p.push(HwGate::QubitCx, vec![1, 3]);
        p.push(HwGate::QubitCx, vec![0, 1]);
        p.push(HwGate::Enc, vec![2, 3]);
        p.push(HwGate::MrCcz, vec![2, 0]);
        p.push(HwGate::Dec, vec![2, 3]);
        p.push(HwGate::QubitCx, vec![2, 3]);
        p.push(HwGate::QubitCx, vec![0, 1]);
        p.push(HwGate::QubitCx, vec![1, 2]);
        p
    }

    #[test]
    fn window_registers_shrink_hosts_outside_their_windows() {
        let mut p = two_window_program();
        p.demote_to_occupancy();
        // Whole-program demotion keeps BOTH hosts at dim 4...
        assert_eq!(p.dims(), &[4, 2, 4, 2]);
        let windows = p.window_registers();
        // ...but the windowed analysis opens each host only inside its
        // own window: no segment carries both dim-4 hosts at once.
        assert!(windows.len() > 1, "two disjoint windows must split");
        let mut covered = 0usize;
        for w in &windows {
            assert_eq!(w.ops.start, covered, "windows must tile the program");
            covered = w.ops.end;
            assert!(
                w.amplitudes() < 4 * 4 * 2 * 2,
                "no segment may need the whole-program register, got {:?}",
                w.dims
            );
            for (d, (&wd, &pd)) in w.dims.iter().zip(p.dims()).enumerate() {
                assert!(wd <= pd, "segment dim exceeds demoted dim on device {d}");
            }
        }
        assert_eq!(covered, p.len());
        let peak = windows
            .iter()
            .map(RegisterWindow::amplitudes)
            .max()
            .unwrap();
        assert!(
            peak < 4 * 4 * 2 * 2,
            "windowed peak ({peak} amps) must undercut the whole-program register"
        );
    }

    #[test]
    fn schedule_windowed_keeps_the_asap_timeline() {
        let mut p = two_window_program();
        p.demote_to_occupancy();
        let lib = GateLibrary::paper();
        let whole = p.schedule(&lib);
        let windows = p.window_registers();
        let segmented = p.schedule_windowed(&lib, &windows);
        assert!(segmented.validate().is_ok(), "{:?}", segmented.validate());
        assert_eq!(segmented.len(), whole.len());
        assert_eq!(segmented.total_duration_ns, whole.total_duration_ns);
        // Op-for-op identical timing and calibration; only the embedding
        // register differs.
        let seg_ops: Vec<_> = segmented
            .segments
            .iter()
            .flat_map(|s| s.ops.iter())
            .collect();
        for (a, b) in seg_ops.iter().zip(&whole.ops) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.start_ns, b.start_ns);
            assert_eq!(a.duration_ns, b.duration_ns);
            assert_eq!(a.operands, b.operands);
            assert_eq!(a.fidelity, b.fidelity);
        }
        assert!((segmented.gate_eps() - whole.gate_eps()).abs() < 1e-12);
        assert!(segmented.peak_state_bytes() < whole.register.state_bytes());
        assert!(segmented.mean_state_bytes() < whole.register.state_bytes() as f64);
    }

    #[test]
    fn single_window_when_occupancy_never_changes() {
        let mut p = HwProgram::new(vec![2, 2]);
        p.push(HwGate::QubitU(Q1Gate::H), vec![0]);
        p.push(HwGate::QubitCx, vec![0, 1]);
        p.demote_to_occupancy();
        let windows = p.window_registers();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].ops, 0..2);
        assert_eq!(windows[0].dims, vec![2, 2]);
    }

    #[test]
    fn occupancy_borrow_reflects_analysis_state() {
        // The slice-returning accessor stays clamped at 2 and tracks
        // pushes without allocating.
        let mut p = HwProgram::new(vec![4, 4]);
        p.set_entry_occupancy(vec![2, 2]);
        assert_eq!(p.occupancy(), &[2u8, 2][..]);
        p.push(HwGate::Enc, vec![0, 1]);
        assert_eq!(p.occupancy(), &[4u8, 2][..]);
    }

    #[test]
    fn histogram_counts_labels() {
        let mut p = HwProgram::new(vec![2, 2]);
        p.push(HwGate::QubitCx, vec![0, 1]);
        p.push(HwGate::QubitCx, vec![0, 1]);
        p.push(HwGate::QubitU(Q1Gate::H), vec![0]);
        let h = p.histogram();
        assert_eq!(h["QubitCx"], 2);
        assert_eq!(h["U(H)"], 1);
    }
}
