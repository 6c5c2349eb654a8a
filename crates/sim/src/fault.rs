//! Deterministic fault injection for the simulator (compiled only under
//! the `fault-inject` feature).
//!
//! The only fault the simulator can inject is **amplitude poisoning**: a
//! [`PoisonPlan`] names one global trajectory index and one op index, and
//! the trajectory engine overwrites the state's first amplitude with NaN
//! right after that op is applied. Every estimate
//! ([`crate::trajectory::Estimator`]) arms the plan per trajectory via
//! [`begin_trajectory`], so the poison lands on exactly one trajectory
//! no matter how work is split across threads — which is
//! what lets `tests/fault_injection.rs` prove a poisoned trajectory is
//! quarantined while the batch mean stays finite.
//!
//! All state is process-global (a mutex-held plan plus a thread-local
//! countdown); tests that arm a plan must serialize on their own lock and
//! disarm with `set_poison(None)` when done.

use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

use crate::State;

/// A deterministic amplitude-poisoning plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoisonPlan {
    /// Global trajectory index (in estimator submission order) to poison.
    pub trajectory: usize,
    /// Op index within that trajectory after which the first amplitude
    /// becomes NaN (0 = after the first op).
    pub op_index: usize,
}

static PLAN: Mutex<Option<PoisonPlan>> = Mutex::new(None);

thread_local! {
    /// Ops remaining until this thread's current trajectory is poisoned;
    /// negative = disarmed.
    static COUNTDOWN: Cell<i64> = const { Cell::new(-1) };
}

/// Arms (`Some`) or disarms (`None`) the global poison plan.
pub fn set_poison(plan: Option<PoisonPlan>) {
    *PLAN.lock().unwrap_or_else(PoisonError::into_inner) = plan;
}

/// Marks the start of a trajectory with the given global index, arming
/// the per-op countdown when the index matches the active plan (and
/// disarming it otherwise). Called by the estimator's pool loop before
/// every trajectory.
pub fn begin_trajectory(global_index: usize) {
    let armed = PLAN
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .filter(|p| p.trajectory == global_index);
    COUNTDOWN.with(|c| c.set(armed.map(|p| p.op_index as i64).unwrap_or(-1)));
}

/// Per-op hook in the trajectory loop: counts down and poisons the state
/// when the armed op index is reached.
pub(crate) fn tick_op(out: &mut State) {
    tick_op_with(|| out.poison_first_amplitude());
}

/// [`tick_op`] for state representations other than the dense [`State`]:
/// counts down identically and invokes `poison` when the armed op index
/// is reached.
pub(crate) fn tick_op_with(poison: impl FnOnce()) {
    COUNTDOWN.with(|c| {
        let remaining = c.get();
        if remaining < 0 {
            return;
        }
        if remaining == 0 {
            poison();
        }
        c.set(remaining - 1);
    });
}
