//! Inline type-erased promise continuations.
//!
//! [`SmallFn`] is the allocation-lean replacement for a boxed continuation
//! in a promise's waiter slots: a closure whose captures fit in
//! [`SMALL_FN_BYTES`] (and need no over-aligned storage) is stored *inside*
//! the `SmallFn` value itself — no heap allocation — while a bigger one is
//! boxed and the box stored inline. A continuation is handed the promise's
//! outcome by reference when it runs, so it need not hold a clone of the
//! future it waits on. The task slab in `task.rs` uses the same erasure
//! technique but with recycled heap slots (tasks must stay small while
//! queued in the deques, continuations do not).

use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop, MaybeUninit};

use crate::promise::TaskError;

/// Inline capture budget. 32 bytes covers the runtime's own continuations
/// (a predicated task's runtime, scope, one-word body and placement; a
/// join arrival; a parked worker's wake handle) and a `map` closure of up
/// to 24 bytes; a bigger capture is boxed. A `SmallFn` is this plus one
/// entry point, 40 bytes, so a promise's three waiter slots cost 120.
pub(crate) const SMALL_FN_BYTES: usize = 32;

const WORDS: usize = SMALL_FN_BYTES / mem::size_of::<usize>();

/// Word-aligned inline storage. `usize` alignment is all we promise;
/// closures with stricter alignment are boxed.
type Data = [MaybeUninit<usize>; WORDS];

/// The closure type a `SmallFn<T>` erases.
type Erased<T> = dyn FnOnce(&Result<T, TaskError>) + Send;

/// A `Send` `FnOnce(&Result<T, TaskError>)` stored inline.
pub(crate) struct SmallFn<T> {
    data: Data,
    /// Reads the closure out of `data`, then calls it with the outcome
    /// (`Some`) or drops it uncalled (`None`).
    run: unsafe fn(*mut u8, Option<&Result<T, TaskError>>),
    /// The payload is an erased `F: FnOnce(&Result<T, TaskError>) + Send` —
    /// `Send` but not necessarily `Sync`; this marker keeps the auto traits
    /// honest.
    _marker: PhantomData<Box<Erased<T>>>,
}

impl<T> SmallFn<T> {
    /// True when a closure of type `F` is stored without allocating.
    pub(crate) const fn fits<F>() -> bool {
        mem::size_of::<F>() <= SMALL_FN_BYTES && mem::align_of::<F>() <= mem::align_of::<usize>()
    }

    /// Wraps `f`, inline when it [`fits`](Self::fits), boxed otherwise.
    pub(crate) fn new<F: FnOnce(&Result<T, TaskError>) + Send + 'static>(f: F) -> SmallFn<T> {
        if Self::fits::<F>() {
            Self::inline(f)
        } else {
            let f = Box::new(f);
            Self::inline(move |r: &Result<T, TaskError>| f(r))
        }
    }

    fn inline<F: FnOnce(&Result<T, TaskError>) + Send + 'static>(f: F) -> SmallFn<T> {
        assert!(Self::fits::<F>());
        /// # Safety
        /// `p` points to a live `F`, which is not used again.
        unsafe fn run<T, F: FnOnce(&Result<T, TaskError>)>(
            p: *mut u8,
            outcome: Option<&Result<T, TaskError>>,
        ) {
            // Moved onto this stack before any user code runs, so a panic
            // unwinds cleanly: `data` holds nothing any more.
            let f = (p as *mut F).read();
            if let Some(r) = outcome {
                f(r);
            }
        }
        let mut data: Data = [MaybeUninit::uninit(); WORDS];
        // SAFETY: `fits` checked size and alignment.
        unsafe { (data.as_mut_ptr() as *mut F).write(f) };
        SmallFn {
            data,
            run: run::<T, F>,
            _marker: PhantomData,
        }
    }

    /// Invokes the closure with `outcome`, consuming the wrapper.
    pub(crate) fn call(self, outcome: &Result<T, TaskError>) {
        // Our Drop would drop the closure a second time.
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `data` holds the live closure `run` was built for.
        unsafe { (this.run)(this.data.as_mut_ptr() as *mut u8, Some(outcome)) }
    }
}

impl<T> Drop for SmallFn<T> {
    /// Never called: release the captures.
    fn drop(&mut self) {
        // SAFETY: as in `call`; `data` is not touched again.
        unsafe { (self.run)(self.data.as_mut_ptr() as *mut u8, None) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    type Fn0 = SmallFn<()>;

    fn fits<F>(_: &F) -> bool {
        Fn0::fits::<F>()
    }

    #[test]
    fn small_capture_is_inlined_and_runs() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let f = move |_: &Result<(), TaskError>| {
            h.fetch_add(1, Ordering::SeqCst);
        };
        assert!(fits(&f));
        Fn0::new(f).call(&Ok(()));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn continuation_sees_the_outcome() {
        let seen = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&seen);
        SmallFn::<u32>::new(move |r: &Result<u32, TaskError>| {
            s.store(*r.as_ref().unwrap() as usize, Ordering::SeqCst);
        })
        .call(&Ok(7));
        assert_eq!(seen.load(Ordering::SeqCst), 7);
        let s = Arc::clone(&seen);
        SmallFn::<u32>::new(move |r: &Result<u32, TaskError>| {
            s.store(r.as_ref().unwrap_err().message.len(), Ordering::SeqCst);
        })
        .call(&Err(TaskError::new("boom")));
        assert_eq!(seen.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn oversized_capture_falls_back_to_box() {
        let big = [7u8; SMALL_FN_BYTES + 1];
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let f = move |_: &Result<(), TaskError>| {
            h.fetch_add(big[0] as usize, Ordering::SeqCst);
        };
        assert!(!fits(&f));
        Fn0::new(f).call(&Ok(()));
        assert_eq!(hits.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn dropping_uncalled_releases_capture() {
        let payload = Arc::new(());
        let p = Arc::clone(&payload);
        let f = move |_: &Result<(), TaskError>| {
            let _keep = &p;
        };
        assert!(fits(&f));
        drop(Fn0::new(f));
        assert_eq!(Arc::strong_count(&payload), 1, "capture must be dropped");

        let p2 = Arc::clone(&payload);
        let big = [0u8; SMALL_FN_BYTES + 1];
        let f = move |_: &Result<(), TaskError>| {
            let _keep = (&p2, &big);
        };
        assert!(!fits(&f));
        drop(Fn0::new(f));
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn panic_in_inline_closure_unwinds_cleanly() {
        let payload = Arc::new(());
        let p = Arc::clone(&payload);
        let f = Fn0::new(move |_: &Result<(), TaskError>| {
            let _keep = &p;
            panic!("boom");
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.call(&Ok(()))));
        assert!(err.is_err());
        assert_eq!(
            Arc::strong_count(&payload),
            1,
            "unwinding must drop the capture exactly once"
        );
    }

    #[test]
    fn a_slot_is_five_words() {
        assert_eq!(mem::size_of::<Option<Fn0>>(), 40);
    }
}
