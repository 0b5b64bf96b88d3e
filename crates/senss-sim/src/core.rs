//! Trace-driven processor core state.
//!
//! A core executes its trace one operation at a time: a compute gap, then
//! one memory reference. It has at most one outstanding reference; on a
//! miss it stalls until the bus transaction (and any security resolution
//! chain) completes. This models the paper's measurement methodology —
//! the interesting time is spent in the memory system, not the pipeline.

use crate::trace::{Op, TraceSource, VecTrace};

/// Execution state of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Will attempt `pending_op` at its scheduled cycle.
    Ready,
    /// Stalled on a bus transaction.
    WaitingBus,
    /// Trace exhausted.
    Finished,
}

/// One trace-driven core.
#[derive(Debug, Clone)]
pub struct Core {
    pid: usize,
    trace: VecTrace,
    pending_op: Option<Op>,
    state: CoreState,
    ops_done: u64,
    finished_at: Option<u64>,
}

impl Core {
    /// Creates a core over its trace; the first operation is pre-fetched.
    pub fn new(pid: usize, mut trace: VecTrace) -> Core {
        let pending_op = trace.next_op();
        let state = if pending_op.is_some() {
            CoreState::Ready
        } else {
            CoreState::Finished
        };
        Core {
            pid,
            trace,
            pending_op,
            state,
            ops_done: 0,
            finished_at: if pending_op.is_none() { Some(0) } else { None },
        }
    }

    /// Processor id.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Current state.
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// The operation the core will perform next (if any).
    pub fn pending_op(&self) -> Option<Op> {
        self.pending_op
    }

    /// Marks the core stalled on the bus. Idempotent: an already-stalled
    /// core may acquire a follow-up transaction (e.g. a write-update
    /// broadcast chained onto its fill).
    pub fn stall(&mut self) {
        debug_assert_ne!(
            self.state,
            CoreState::Finished,
            "finished cores issue nothing"
        );
        self.state = CoreState::WaitingBus;
    }

    /// Completes the current operation at cycle `now`; fetches the next.
    /// Returns the compute gap before the next access, or `None` when the
    /// trace is exhausted (the core finishes at `now`).
    pub fn complete_op(&mut self, now: u64) -> Option<u64> {
        self.ops_done += 1;
        self.pending_op = self.trace.next_op();
        match self.pending_op {
            Some(op) => {
                self.state = CoreState::Ready;
                Some(op.gap)
            }
            None => {
                self.state = CoreState::Finished;
                self.finished_at = Some(now);
                None
            }
        }
    }

    /// Operations completed so far.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Full mutable state for checkpoint capture:
    /// `(trace ops, trace cursor, pending op, state, ops_done,
    /// finished_at)`.
    pub(crate) fn export_state(&self) -> (&[Op], usize, Option<Op>, CoreState, u64, Option<u64>) {
        let (ops, pos) = self.trace.export_state();
        (
            ops,
            pos,
            self.pending_op,
            self.state,
            self.ops_done,
            self.finished_at,
        )
    }

    /// Rebuilds a core mid-run (checkpoint restore). The invariants
    /// `Core::new`/`complete_op` maintain are asserted rather than
    /// re-derived so a corrupted snapshot fails loudly.
    pub(crate) fn from_state(
        pid: usize,
        ops: Vec<Op>,
        pos: usize,
        pending_op: Option<Op>,
        state: CoreState,
        ops_done: u64,
        finished_at: Option<u64>,
    ) -> Core {
        assert_eq!(
            pending_op.is_none(),
            state == CoreState::Finished,
            "core {pid}: pending op and state disagree"
        );
        if pos > 0 {
            // The cursor sits one past the last fetched op, which is the
            // pending one unless the trace is exhausted.
            if let Some(op) = pending_op {
                assert_eq!(
                    ops.get(pos - 1),
                    Some(&op),
                    "core {pid}: pending op mismatch"
                );
            }
        }
        Core {
            pid,
            trace: VecTrace::from_state(ops, pos),
            pending_op,
            state,
            ops_done,
            finished_at,
        }
    }

    /// Cycle at which the core finished, if it has.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Op;

    #[test]
    fn empty_trace_is_finished_immediately() {
        let c = Core::new(0, VecTrace::new(vec![]));
        assert_eq!(c.state(), CoreState::Finished);
        assert_eq!(c.finished_at(), Some(0));
    }

    #[test]
    fn walks_the_trace() {
        let mut c = Core::new(
            1,
            VecTrace::new(vec![Op::read(5, 0x10), Op::write(7, 0x20)]),
        );
        assert_eq!(c.pid(), 1);
        assert_eq!(c.pending_op(), Some(Op::read(5, 0x10)));
        assert_eq!(c.complete_op(100), Some(7));
        assert_eq!(c.pending_op(), Some(Op::write(7, 0x20)));
        assert_eq!(c.complete_op(200), None);
        assert_eq!(c.state(), CoreState::Finished);
        assert_eq!(c.finished_at(), Some(200));
        assert_eq!(c.ops_done(), 2);
    }

    #[test]
    fn stall_transitions() {
        let mut c = Core::new(0, VecTrace::new(vec![Op::read(0, 0)]));
        assert_eq!(c.state(), CoreState::Ready);
        c.stall();
        assert_eq!(c.state(), CoreState::WaitingBus);
        c.complete_op(50);
        assert_eq!(c.state(), CoreState::Finished);
    }
}
