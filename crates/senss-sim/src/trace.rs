//! Trace-driven workload interface.
//!
//! Cores execute streams of [`Op`]s: a compute gap (cycles of non-memory
//! work) followed by one data reference. The `senss-workloads` crate
//! generates SPLASH-2-like traces; tests build small hand-written ones.

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store.
    Write,
}

/// One trace operation: `gap` compute cycles, then a reference to `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// CPU cycles of computation preceding the access.
    pub gap: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Byte address of the access (assumed to fit in one L1 line).
    pub addr: u64,
}

impl Op {
    /// Creates an operation.
    pub fn new(gap: u64, kind: AccessKind, addr: u64) -> Op {
        Op { gap, kind, addr }
    }

    /// Shorthand for a read.
    pub fn read(gap: u64, addr: u64) -> Op {
        Op::new(gap, AccessKind::Read, addr)
    }

    /// Shorthand for a write.
    pub fn write(gap: u64, addr: u64) -> Op {
        Op::new(gap, AccessKind::Write, addr)
    }
}

/// A source of operations for one core.
pub trait TraceSource {
    /// The next operation, or `None` when the stream ends.
    fn next_op(&mut self) -> Option<Op>;

    /// A hint of the total number of operations, if known (statistics only).
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

/// A pre-generated in-memory trace.
#[derive(Debug, Clone, Default)]
pub struct VecTrace {
    ops: Vec<Op>,
    pos: usize,
}

impl VecTrace {
    /// Wraps a vector of operations.
    pub fn new(ops: Vec<Op>) -> VecTrace {
        VecTrace { ops, pos: 0 }
    }

    /// Number of operations remaining.
    pub fn remaining(&self) -> usize {
        self.ops.len() - self.pos
    }

    /// Truncates the trace to at most `len` operations (workload
    /// generators produce whole phases, then cut to the requested
    /// length).
    pub fn truncate(&mut self, len: usize) {
        self.ops.truncate(len);
        self.pos = self.pos.min(self.ops.len());
    }

    /// The full operation list and the read cursor (checkpoint capture).
    pub(crate) fn export_state(&self) -> (&[Op], usize) {
        (&self.ops, self.pos)
    }

    /// Rebuilds a trace mid-stream (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `pos` points past the end of `ops`.
    pub(crate) fn from_state(ops: Vec<Op>, pos: usize) -> VecTrace {
        assert!(
            pos <= ops.len(),
            "trace cursor {pos} past {} ops",
            ops.len()
        );
        VecTrace { ops, pos }
    }

    /// Consumes the trace, returning its operation list (warm-start
    /// forking swaps a checkpoint's traces for longer ones).
    pub(crate) fn into_ops(self) -> Vec<Op> {
        self.ops
    }
}

impl TraceSource for VecTrace {
    fn next_op(&mut self) -> Option<Op> {
        let op = self.ops.get(self.pos).copied();
        if op.is_some() {
            self.pos += 1;
        }
        op
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.ops.len())
    }
}

impl FromIterator<Op> for VecTrace {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> VecTrace {
        VecTrace::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_trace_yields_in_order() {
        let mut t = VecTrace::new(vec![Op::read(1, 0x10), Op::write(2, 0x20)]);
        assert_eq!(t.len_hint(), Some(2));
        assert_eq!(t.next_op(), Some(Op::read(1, 0x10)));
        assert_eq!(t.remaining(), 1);
        assert_eq!(t.next_op(), Some(Op::write(2, 0x20)));
        assert_eq!(t.next_op(), None);
        assert_eq!(t.next_op(), None);
    }

    #[test]
    fn from_iterator() {
        let t: VecTrace = (0..5).map(|i| Op::read(0, i * 64)).collect();
        assert_eq!(t.len_hint(), Some(5));
    }
}
