//! Cost-charging abstraction shared by all executors.
//!
//! Algorithm code (base cases, combines) declares its cost through a
//! [`Charge`] so the *same* implementation runs unmodified on the simulated
//! CPU (charging a [`hpu_machine::CpuCtx`]), on the simulated GPU (charging
//! a [`hpu_machine::GpuCtx`] as scattered accesses), or natively (charges
//! discarded).

use hpu_machine::{CpuCtx, GpuCtx};

/// Sink for the abstract cost of a piece of algorithm work.
pub trait Charge {
    /// Charges `n` scalar operations (comparisons, arithmetic).
    fn ops(&mut self, n: u64);
    /// Charges `n` memory operations (element reads/writes) with no
    /// declared structure.
    fn mem(&mut self, n: u64);
}

/// Discards all charges — used by the native (real-thread) executors,
/// where wall-clock time is the measurement.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCharge;

impl Charge for NullCharge {
    #[inline]
    fn ops(&mut self, _n: u64) {}
    #[inline]
    fn mem(&mut self, _n: u64) {}
}

impl Charge for CpuCtx {
    #[inline]
    fn ops(&mut self, n: u64) {
        self.charge_ops(n);
    }
    #[inline]
    fn mem(&mut self, n: u64) {
        self.charge_mem(n);
    }
}

/// Adapts a GPU work-item context into a [`Charge`]: unstructured memory
/// charges become scattered (never-coalesced) accesses. This is
/// what the *generic* GPU translation uses — a kernel that knows nothing
/// about its access pattern cannot coalesce; algorithms that implement an
/// explicit layout (paper §6.3) bypass this adapter and declare their
/// launch's streams.
#[derive(Debug)]
pub struct GpuCharge<'a>(pub &'a mut GpuCtx);

impl Charge for GpuCharge<'_> {
    #[inline]
    fn ops(&mut self, n: u64) {
        self.0.charge_ops(n);
    }
    #[inline]
    fn mem(&mut self, n: u64) {
        self.0.scatter(n);
    }
}

/// Accumulates charges into plain counters — used by tests and by the
/// tree-form breadth-first executor to cost whole levels.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingCharge {
    /// Scalar operations charged.
    pub ops: u64,
    /// Memory operations charged.
    pub mem: u64,
}

impl Charge for CountingCharge {
    #[inline]
    fn ops(&mut self, n: u64) {
        self.ops += n;
    }
    #[inline]
    fn mem(&mut self, n: u64) {
        self.mem += n;
    }
}

impl CountingCharge {
    /// Total cost in CPU time units (memory factor 1).
    pub fn total(&self) -> u64 {
        self.ops + self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_charge_accumulates() {
        let mut c = CountingCharge::default();
        c.ops(3);
        c.mem(4);
        c.ops(1);
        assert_eq!(c.ops, 4);
        assert_eq!(c.mem, 4);
        assert_eq!(c.total(), 8);
    }

    #[test]
    fn null_charge_is_free() {
        let mut c = NullCharge;
        c.ops(1_000_000);
        c.mem(1_000_000);
    }
}
