//! Thread-scoped machine witness: one hook that observes every machine a
//! run builds, with no plumbing through the code that builds them.
//!
//! [`with_witness`] installs a [`MachineWitness`] for the duration of a
//! closure on the current thread, on the pattern of
//! `tracing::subscriber::with_default`. While it is installed,
//! [`Machine::new`](crate::Machine::new) — and with it
//! [`Machine::restore`](crate::Machine::restore) and
//! [`Machine::from_crash_image`](crate::Machine::from_crash_image) —
//! attaches the witness's op-stream sink beside the machine's own
//! [`TraceSink`], and a machine built in the scope folds its encoded
//! checkpoint into the witness when it is dropped. Outside a scope no
//! machine carries anything extra.

use std::cell::RefCell;
use std::rc::Rc;

use crate::trace::TraceSink;

/// What a witness scope observes of each machine built inside it.
pub trait MachineWitness {
    /// A sink for one new machine's op stream. Every sink a witness hands
    /// out should fold into one stream, so ops are seen in global
    /// simulation order across machines.
    fn sink(&self) -> Box<dyn TraceSink>;

    /// Folds a dropped machine's encoded checkpoint
    /// ([`MachineSnapshot::encode`](crate::MachineSnapshot::encode)).
    fn fold_checkpoint(&self, bytes: &[u8]);
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<dyn MachineWitness>>> = const { RefCell::new(None) };
}

/// Runs `f` with `witness` installed on the current thread, restoring the
/// previous scope (if any) afterwards, also when `f` unwinds.
pub fn with_witness<R>(witness: Rc<dyn MachineWitness>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Rc<dyn MachineWitness>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.borrow_mut().replace(witness)));
    f()
}

/// The witness installed on the current thread, if any.
pub(crate) fn current() -> Option<Rc<dyn MachineWitness>> {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use cpucache::PrefetchConfig;

    use super::*;
    use crate::trace::TraceEvent;
    use crate::{Machine, MachineConfig};

    struct Count(Rc<Cell<u64>>);

    impl TraceSink for Count {
        fn on_event(&mut self, _ev: &TraceEvent) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[derive(Default)]
    struct Probe {
        events: Rc<Cell<u64>>,
        folds: RefCell<Vec<usize>>,
    }

    impl MachineWitness for Probe {
        fn sink(&self) -> Box<dyn TraceSink> {
            Box::new(Count(Rc::clone(&self.events)))
        }

        fn fold_checkpoint(&self, bytes: &[u8]) {
            self.folds.borrow_mut().push(bytes.len());
        }
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::g1(PrefetchConfig::none(), 1))
    }

    fn persist_one(m: &mut Machine) {
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 1);
        m.clwb(t, a);
        m.sfence(t);
    }

    #[test]
    fn scope_sees_every_machine_beside_its_own_sink() {
        let probe = Rc::new(Probe::default());
        let own = Rc::new(Cell::new(0));
        with_witness(probe.clone(), || {
            let mut m = machine();
            m.set_trace_sink(Box::new(Count(Rc::clone(&own))));
            persist_one(&mut m);
            let snap = m.checkpoint();
            let cfg = m.config().clone();
            drop(m);
            let mut restored = Machine::restore(cfg, &snap).expect("restores");
            persist_one(&mut restored);
        });
        assert!(own.get() > 0, "the machine's own sink still sees its ops");
        assert_eq!(
            probe.events.get(),
            2 * own.get(),
            "the scope sees the same ops, and the restored machine's too"
        );
        assert_eq!(
            probe.folds.borrow().len(),
            2,
            "each dropped machine folds its checkpoint"
        );
    }

    #[test]
    fn nothing_is_attached_outside_a_scope() {
        let probe = Rc::new(Probe::default());
        with_witness(probe.clone(), || {});
        assert!(current().is_none());
        let mut m = machine();
        persist_one(&mut m);
        drop(m);
        assert_eq!(probe.events.get(), 0);
        assert!(probe.folds.borrow().is_empty());
    }

    #[test]
    fn a_panicking_scope_restores_the_one_around_it() {
        let outer = Rc::new(Probe::default());
        with_witness(outer.clone(), || {
            let inner = catch_unwind(AssertUnwindSafe(|| {
                with_witness(Rc::new(Probe::default()), || panic!("inner run fails"))
            }));
            assert!(inner.is_err());
            persist_one(&mut machine());
        });
        assert!(outer.events.get() > 0);
        assert_eq!(outer.folds.borrow().len(), 1);
        assert!(current().is_none());
    }
}
