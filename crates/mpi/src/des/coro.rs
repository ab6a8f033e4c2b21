//! Minimal stackful coroutines for the discrete-event scheduler.
//!
//! Each simulated rank runs on its own call stack and is suspended —
//! registers and stack pointer saved — whenever a blocking receive
//! cannot complete, returning control to the scheduler on the original
//! stack. This is exactly the corner of "green threads" that a
//! single-threaded, cooperatively-scheduled simulator needs, so it is
//! hand-rolled here (~100 lines of asm + safe wrappers) rather than
//! pulled in as a dependency:
//!
//! * **No preemption, no signals, no TLS juggling** — a coroutine only
//!   ever suspends at an explicit [`Yielder::suspend`] call.
//! * **Single-threaded by construction** — coroutines never migrate
//!   between OS threads, so only the SysV *callee-saved* state needs to
//!   cross a switch: `rbp rbx r12-r15`, the SSE control/status word and
//!   the x87 control word. Caller-saved registers are dead at any call
//!   boundary by the ABI.
//! * **Deterministic teardown** — dropping an unfinished coroutine
//!   cancels it: the coroutine is resumed one last time and unwinds its
//!   stack via a private panic payload, so every live `Comm`, `Rc` and
//!   buffer on that stack runs its destructor.
//!
//! Panics raised by the coroutine body are caught at the coroutine
//! boundary and re-surfaced to the scheduler via [`Coroutine::take_panic`],
//! which lets the driver propagate the *original* payload, as the
//! threaded backend's baton does.
//!
//! Only x86-64 has a context-switch implementation; on other targets
//! [`SWITCH_SUPPORTED`] is `false` and the cluster driver transparently
//! falls back to the threaded backend (results are bit-identical by the
//! determinism argument in DESIGN.md, so the fallback is observable
//! only in host-side throughput).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Whether this target has a coroutine context switch.
pub const SWITCH_SUPPORTED: bool = cfg!(target_arch = "x86_64");

/// Stack size for each rank coroutine. Committed lazily by the OS, so
/// the cost of the unused tail is address space, not memory.
pub const STACK_BYTES: usize = 1 << 21; // 2 MiB, same as a default Rust thread

/// Panic payload used to unwind a cancelled coroutine's stack.
struct Cancelled;

/// State shared between a coroutine, its [`Yielder`], and the scheduler.
struct CoroShared {
    /// Scheduler-side saved stack pointer (valid while the coroutine runs).
    sched_sp: Cell<*mut u8>,
    /// Coroutine-side saved stack pointer (valid while it is suspended).
    coro_sp: Cell<*mut u8>,
    finished: Cell<bool>,
    cancel: Cell<bool>,
    /// A non-cancellation panic raised by the body, held for the scheduler.
    panic: RefCell<Option<Box<dyn Any + Send>>>,
}

/// Handed to the coroutine body; the one way to suspend.
#[derive(Clone)]
pub struct Yielder {
    shared: Rc<CoroShared>,
}

impl Yielder {
    /// Suspend this coroutine and return control to the scheduler. When
    /// the scheduler resumes it, execution continues right here — unless
    /// the coroutine was cancelled in the meantime, in which case this
    /// call unwinds the coroutine's stack instead of returning.
    pub fn suspend(&self) {
        // SAFETY: `sched_sp` was saved by the scheduler's switch into
        // this coroutine and points into its live stack; `coro_sp` is
        // this coroutine's own save slot. Both cells sit in the shared
        // Rc, which outlives every switch of this pair.
        unsafe { arch::switch(self.shared.coro_sp.as_ptr(), self.shared.sched_sp.get()) };
        if self.shared.cancel.get() {
            std::panic::panic_any(Cancelled);
        }
    }
}

/// The rank closure a coroutine runs to completion.
type CoroBody = Box<dyn FnOnce(&Yielder)>;

/// Entry context seeded into the fresh stack: consumed on first resume.
struct EntryCtx {
    body: Option<CoroBody>,
    shared: Rc<CoroShared>,
}

/// First Rust frame on a fresh coroutine stack (called by the asm
/// trampoline with the [`EntryCtx`] pointer). Never returns — a
/// finished coroutine only ever switches back to the scheduler.
extern "C" fn coro_main(ctx: *mut EntryCtx) {
    let (body, shared) = {
        // SAFETY: the scheduler keeps the owning `Coroutine` (and thus
        // the boxed EntryCtx) alive for as long as this stack exists.
        let ctx = unsafe { &mut *ctx };
        (ctx.body.take().expect("coroutine entered twice"), Rc::clone(&ctx.shared))
    };
    let yielder = Yielder { shared: Rc::clone(&shared) };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&yielder))) {
        if !payload.is::<Cancelled>() {
            *shared.panic.borrow_mut() = Some(payload);
        }
    }
    shared.finished.set(true);
    // This frame never returns, so its locals never drop on their own:
    // release the Rc handles explicitly, keeping only a raw pointer that
    // the owning `Coroutine` keeps valid.
    let shared_ptr: *const CoroShared = Rc::as_ptr(&shared);
    drop(yielder);
    drop(shared);
    loop {
        // Hand control back forever; re-resuming a finished coroutine is
        // a scheduler bug, but must never re-enter user code. Both
        // pointers are read *before* the switch so that no reference
        // into the shared state is live across it (analyzer rule X003):
        // while this frame is parked, the scheduler and other coroutines
        // mutate `CoroShared` through their own handles.
        // SAFETY: the owning `Coroutine` keeps the `CoroShared`
        // allocation alive for as long as this stack exists.
        let (save, load) =
            unsafe { ((*shared_ptr).coro_sp.as_ptr(), (*shared_ptr).sched_sp.get()) };
        // SAFETY: `load` was saved by the scheduler's switch into this
        // coroutine and points into its live stack (see `arch::switch`).
        unsafe { arch::switch(save, load) };
    }
}

/// A rank coroutine: an owned stack plus the saved context on it.
pub struct Coroutine<'a> {
    shared: Rc<CoroShared>,
    stack: Stack,
    /// Keeps the entry context alive until the body consumes it.
    _entry: Box<EntryCtx>,
    started: Cell<bool>,
    /// Peak observed stack usage in bytes (monotone; see
    /// [`Coroutine::stack_high_water`]).
    high_water: Cell<usize>,
    /// The body may borrow data living in the scheduler's frame.
    _scope: PhantomData<&'a ()>,
}

impl<'a> Coroutine<'a> {
    /// Create a suspended coroutine that will run `body` on its own
    /// `stack_bytes`-sized stack when first resumed.
    ///
    /// # Panics
    ///
    /// Panics on targets without a context switch ([`SWITCH_SUPPORTED`]).
    #[cfg_attr(not(test), allow(dead_code))] // the driver always labels; tests use the short form
    pub fn new<F>(stack_bytes: usize, body: F) -> Self
    where
        F: FnOnce(&Yielder) + 'a,
    {
        Self::labeled(stack_bytes, "coroutine", body)
    }

    /// [`Coroutine::new`] with a diagnostic label (e.g. `rank 3`) that
    /// the stack sanitizer includes in its panic messages.
    pub fn labeled<F>(stack_bytes: usize, label: impl Into<String>, body: F) -> Self
    where
        F: FnOnce(&Yielder) + 'a,
    {
        let shared = Rc::new(CoroShared {
            sched_sp: Cell::new(std::ptr::null_mut()),
            coro_sp: Cell::new(std::ptr::null_mut()),
            finished: Cell::new(false),
            cancel: Cell::new(false),
            panic: RefCell::new(None),
        });
        let body: Box<dyn FnOnce(&Yielder) + 'a> = Box::new(body);
        // SAFETY: erase the borrow lifetime. `Coroutine<'a>` cannot
        // outlive `'a` (PhantomData), and Drop cancels + fully unwinds a
        // still-running body before the borrowed data can expire.
        let body: Box<dyn FnOnce(&Yielder)> = unsafe { std::mem::transmute(body) };
        let mut entry = Box::new(EntryCtx { body: Some(body), shared: Rc::clone(&shared) });
        let stack = Stack::new(stack_bytes, label.into());
        // SAFETY: `entry` is boxed and stored in the coroutine below, so
        // it stays valid well past the first resume.
        let sp0 = unsafe { arch::init_stack(&stack, &mut *entry) };
        shared.coro_sp.set(sp0);
        Coroutine {
            shared,
            stack,
            _entry: entry,
            started: Cell::new(false),
            high_water: Cell::new(0),
            _scope: PhantomData,
        }
    }

    /// Run the coroutine until it suspends or finishes.
    pub fn resume(&self) {
        assert!(!self.is_finished(), "resumed a finished coroutine ({})", self.stack.label);
        self.started.set(true);
        // SAFETY: `coro_sp` holds the stack pointer saved by this
        // coroutine's previous suspension (or the frame seeded by
        // `init_stack`); `sched_sp` is this side's save slot. The stack
        // behind `coro_sp` is owned by `self` and alive.
        unsafe { arch::switch(self.shared.sched_sp.as_ptr(), self.shared.coro_sp.get()) };
        self.stack.check_canary();
        // While suspended (or parked in the finished-loop), `coro_sp` is
        // the coroutine's saved stack pointer, so its distance from the
        // stack top is the live stack depth at the switch.
        let used = self.stack.top().saturating_sub(self.shared.coro_sp.get() as usize);
        self.high_water.set(self.high_water.get().max(used));
        if self.is_finished() {
            if let Some(scan) = self.stack.poison_high_water() {
                self.high_water.set(self.high_water.get().max(scan));
            }
        }
    }

    /// Whether the body has run to completion (or fully unwound).
    pub fn is_finished(&self) -> bool {
        self.shared.finished.get()
    }

    /// Peak stack usage observed so far, in bytes. Release builds
    /// sample the saved stack pointer at every switch back to the
    /// scheduler; debug builds additionally scan the poison fill when
    /// the coroutine finishes, which also catches peaks *between*
    /// suspensions.
    pub fn stack_high_water(&self) -> usize {
        self.high_water.get()
    }

    /// Take a panic raised by the body, if any, for propagation.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.shared.panic.borrow_mut().take()
    }
}

impl Drop for Coroutine<'_> {
    fn drop(&mut self) {
        if self.started.get() && !self.is_finished() {
            // Unwind the suspended stack so everything on it drops.
            self.shared.cancel.set(true);
            while !self.is_finished() {
                self.resume();
            }
            let _ = self.take_panic();
        }
    }
}

/// An owned, heap-allocated coroutine stack with an overflow canary at
/// its low end (guard pages would need `mmap`; a canary catches the
/// common failure honestly without a libc dependency). Debug builds
/// additionally poison-fill the whole stack so that peak usage can be
/// measured after the fact ([`Stack::poison_high_water`]).
struct Stack {
    base: *mut u8,
    layout: std::alloc::Layout,
    /// Diagnostic label (e.g. `rank 3`) for sanitizer panic messages.
    label: String,
}

const CANARY: u64 = 0x5053_435f_4445_5321; // "PSC_DES!"

/// Debug-build fill byte for unused stack words, chosen to be an
/// unlikely pointer/length value (`0xA5A5…`).
const POISON: u8 = 0xA5;

/// Whether fresh stacks are poison-filled (debug builds only: the fill
/// touches every page of every stack, which release runs should not pay).
const POISON_FILL: bool = cfg!(debug_assertions);

impl Stack {
    fn new(bytes: usize, label: String) -> Self {
        let layout = std::alloc::Layout::from_size_align(bytes, 16).expect("stack layout");
        // SAFETY: `layout` has non-zero size (a zero-byte stack would
        // already have failed the 72-byte frame seeding below).
        let base = unsafe { std::alloc::alloc(layout) };
        assert!(!base.is_null(), "coroutine stack allocation failed ({label})");
        if POISON_FILL {
            // SAFETY: `base` points to `bytes` freshly allocated bytes.
            unsafe { std::ptr::write_bytes(base, POISON, bytes) };
        }
        // SAFETY: the allocation is 16-aligned and at least 8 bytes, so
        // a u64 write at its base is in bounds and aligned.
        unsafe { (base as *mut u64).write(CANARY) };
        Stack { base, layout, label }
    }

    /// Exclusive high end of the usable stack, 16-aligned: where `rsp`
    /// starts before the seeded frame.
    fn top(&self) -> usize {
        (self.base as usize + self.layout.size()) & !15usize
    }

    fn check_canary(&self) {
        // SAFETY: the base canary word written in `new` is alive until
        // Drop; reading it back is always in bounds.
        let live = unsafe { (self.base as *const u64).read() };
        assert!(
            live == CANARY,
            "coroutine stack overflow detected ({}): canary at stack base clobbered; \
             raise the DES stack size",
            self.label
        );
    }

    /// Scan the poison fill for the deepest touched word and return the
    /// peak usage in bytes, or `None` when the fill is disabled
    /// (release builds). Scans low → high so the cost is proportional
    /// to the *unused* region only when usage is high — and the scan
    /// runs once per coroutine, at completion.
    fn poison_high_water(&self) -> Option<usize> {
        if !POISON_FILL {
            return None;
        }
        let words = (self.top() - self.base as usize) / 8;
        let poison_word = u64::from_ne_bytes([POISON; 8]);
        // Skip word 0: it holds the canary, not poison.
        for w in 1..words {
            // SAFETY: `w < words` keeps the read inside the 8-aligned
            // region between `base` and `top()`.
            let v = unsafe { (self.base as *const u64).add(w).read() };
            if v != poison_word {
                return Some(self.top() - (self.base as usize + w * 8));
            }
        }
        Some(0)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.check_canary();
        // SAFETY: `base`/`layout` are exactly what `alloc` returned in
        // `new`, and the stack is only dropped after its coroutine
        // finished or fully unwound, so nothing lives on it.
        unsafe { std::alloc::dealloc(self.base, self.layout) };
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    //! x86-64 SysV context switch.
    //!
    //! `psc_ctx_switch(save, load)` pushes the callee-saved state onto
    //! the current stack, stores the resulting `rsp` through `save`,
    //! installs `load` as the new `rsp`, and pops the same state back —
    //! so "switching" is symmetric and ~20 instructions. A *fresh* stack
    //! is seeded (in [`init_stack`]) with a fabricated frame of the same
    //! shape whose return address is the `psc_ctx_entry` trampoline,
    //! which moves the seeded `r12` (EntryCtx pointer) into `rdi` and
    //! calls the seeded `rbx` ([`super::coro_main`]).
    //!
    //! Frame layout, low → high, 72 bytes above the saved `rsp`:
    //!
    //! ```text
    //! +0  mxcsr   +8  x87 cw   +16 r15  +24 r14  +32 r13
    //! +40 r12     +48 rbx      +56 rbp  +64 return address
    //! ```
    //!
    //! Alignment: the saved `rsp` is ≡ 8 (mod 16), so after the `ret`
    //! consumes the return address the trampoline runs at ≡ 0 and its
    //! `call` gives `coro_main` the ABI-standard ≡ 8 entry alignment.

    use super::EntryCtx;

    std::arch::global_asm!(
        ".text",
        ".balign 16",
        ".globl psc_ctx_switch",
        ".type psc_ctx_switch, @function",
        "psc_ctx_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 16",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 8]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 8]",
        "add rsp, 16",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size psc_ctx_switch, . - psc_ctx_switch",
        ".balign 16",
        ".globl psc_ctx_entry",
        ".type psc_ctx_entry, @function",
        "psc_ctx_entry:",
        "mov rdi, r12",
        "call rbx",
        "ud2",
        ".size psc_ctx_entry, . - psc_ctx_entry",
    );

    extern "C" {
        fn psc_ctx_switch(save: *mut *mut u8, load: *mut u8);
        fn psc_ctx_entry();
    }

    /// Save the current context through `save` and activate `load`.
    ///
    /// # Safety
    ///
    /// `load` must be a stack pointer previously produced by this
    /// function or by [`init_stack`], belonging to a live stack.
    pub(super) unsafe fn switch(save: *mut *mut u8, load: *mut u8) {
        // SAFETY: forwarding the caller's contract — `load` is a live
        // saved stack pointer, `save` is writable.
        unsafe { psc_ctx_switch(save, load) };
    }

    /// Seed a fresh stack with a resumable frame; returns the stack
    /// pointer to pass to [`switch`].
    ///
    /// # Safety
    ///
    /// `entry` must stay valid until the coroutine's first resume.
    pub(super) unsafe fn init_stack(stack: &super::Stack, entry: *mut EntryCtx) -> *mut u8 {
        // Capture the caller's FP control state so the coroutine starts
        // with the same rounding/exception configuration.
        let mut mxcsr: u32 = 0;
        let mut fcw: u16 = 0;
        // SAFETY: both stores target locals of exactly the sizes the
        // instructions write (4 and 2 bytes).
        unsafe {
            std::arch::asm!(
                "stmxcsr [{m}]",
                "fnstcw [{f}]",
                m = in(reg) &mut mxcsr,
                f = in(reg) &mut fcw,
            );
        }
        let sp0 = (stack.top() - 72) as *mut u64;
        // SAFETY: the 9-word frame sits at the top of the freshly
        // allocated stack, well inside its bounds, and nothing else
        // lives there yet.
        unsafe {
            sp0.add(0).write(mxcsr as u64);
            sp0.add(1).write(fcw as u64);
            sp0.add(2).write(0); // r15
            sp0.add(3).write(0); // r14
            sp0.add(4).write(0); // r13
            sp0.add(5).write(entry as u64); // r12 → EntryCtx for the trampoline
            sp0.add(6).write(super::coro_main as *const () as usize as u64); // rbx → first Rust frame
            sp0.add(7).write(0); // rbp
            sp0.add(8).write(psc_ctx_entry as *const () as usize as u64); // return address
        }
        sp0 as *mut u8
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod arch {
    //! Stub for targets without a context switch: the cluster driver
    //! checks [`super::SWITCH_SUPPORTED`] and never constructs a
    //! coroutine here.

    use super::EntryCtx;

    /// # Safety
    ///
    /// Never called: the driver checks `SWITCH_SUPPORTED` first. The
    /// signature mirrors the x86-64 implementation.
    pub(super) unsafe fn switch(_save: *mut *mut u8, _load: *mut u8) {
        unreachable!("DES coroutines are not supported on this target");
    }

    /// # Safety
    ///
    /// Never called: the driver checks `SWITCH_SUPPORTED` first. The
    /// signature mirrors the x86-64 implementation.
    pub(super) unsafe fn init_stack(_stack: &super::Stack, _entry: *mut EntryCtx) -> *mut u8 {
        unimplemented!("DES coroutines are not supported on this target")
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    #[test]
    fn runs_to_completion_without_suspending() {
        let hits = Cell::new(0);
        let co = Coroutine::new(STACK_BYTES, |_y| {
            hits.set(hits.get() + 1);
        });
        assert!(!co.is_finished());
        co.resume();
        assert!(co.is_finished());
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn suspends_and_resumes_in_order() {
        let log = RefCell::new(Vec::new());
        let co = Coroutine::new(STACK_BYTES, |y| {
            log.borrow_mut().push("a");
            y.suspend();
            log.borrow_mut().push("b");
            y.suspend();
            log.borrow_mut().push("c");
        });
        co.resume();
        log.borrow_mut().push("sched1");
        co.resume();
        log.borrow_mut().push("sched2");
        co.resume();
        assert!(co.is_finished());
        assert_eq!(*log.borrow(), ["a", "sched1", "b", "sched2", "c"]);
    }

    #[test]
    fn interleaves_two_coroutines() {
        let sum = &Cell::new(0u64);
        let mk = |stride: u64| {
            Coroutine::new(STACK_BYTES, move |y| {
                for i in 0..3 {
                    sum.set(sum.get() + stride * 10u64.pow(i));
                    y.suspend();
                }
            })
        };
        let (a, b) = (mk(1), mk(2));
        for _ in 0..3 {
            a.resume();
            b.resume();
        }
        a.resume();
        b.resume();
        assert!(a.is_finished() && b.is_finished());
        assert_eq!(sum.get(), 333);
    }

    #[test]
    fn float_state_survives_switches() {
        let co = Coroutine::new(STACK_BYTES, |y| {
            let mut x = 1.0f64;
            for _ in 0..4 {
                x = x / 3.0 + 0.25;
                y.suspend();
            }
            assert!((x - 0.382716049382716).abs() < 1e-9, "{x}");
        });
        let mut host = 2.0f64;
        while !co.is_finished() {
            co.resume();
            host = host * 0.5 + 1.0;
        }
        assert!((host - 2.0).abs() < 1e-12, "{host}");
    }

    #[test]
    fn body_panic_is_captured_not_propagated() {
        let co = Coroutine::new(STACK_BYTES, |_y| panic!("boom from coroutine"));
        co.resume();
        assert!(co.is_finished());
        let payload = co.take_panic().expect("panic captured");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom from coroutine"));
    }

    #[test]
    fn dropping_suspended_coroutine_unwinds_its_stack() {
        struct Tattle<'c>(&'c Cell<bool>);
        impl Drop for Tattle<'_> {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Cell::new(false);
        {
            let co = Coroutine::new(STACK_BYTES, |y| {
                let _t = Tattle(&dropped);
                loop {
                    y.suspend();
                }
            });
            co.resume();
            assert!(!dropped.get(), "still suspended, stack intact");
        }
        assert!(dropped.get(), "drop must unwind the coroutine stack");
    }

    #[test]
    fn dropping_unstarted_coroutine_is_inert() {
        let touched = Cell::new(false);
        let co = Coroutine::new(STACK_BYTES, |_y| touched.set(true));
        drop(co);
        assert!(!touched.get(), "an unstarted body must never run");
    }

    #[test]
    fn deep_stack_use_stays_within_bounds() {
        fn burn(depth: usize, y: &Yielder) -> u64 {
            // Opaque to the optimizer, so a release build keeps the pad
            // on the stack.
            let pad = std::hint::black_box([depth as u64; 32]);
            if depth == 0 {
                y.suspend();
                pad[0]
            } else {
                burn(depth - 1, y) + pad[31]
            }
        }
        let out = Cell::new(0);
        let co = Coroutine::labeled(STACK_BYTES, "deep-test", |y| out.set(burn(512, y)));
        co.resume();
        co.resume();
        assert!(co.is_finished());
        assert_eq!(out.get(), (1..=512).sum::<u64>());
        // 512 frames × (256-byte pad + overhead): the watermark sampled
        // at the depth-0 suspension must see at least the pads, and can
        // never exceed the stack itself.
        let hw = co.stack_high_water();
        assert!(hw >= 512 * 256, "high water {hw} missed the recursion");
        assert!(hw <= STACK_BYTES, "high water {hw} exceeds the stack");
    }

    #[test]
    fn shallow_coroutine_reports_small_high_water() {
        let co = Coroutine::new(STACK_BYTES, |y| {
            y.suspend();
        });
        co.resume();
        co.resume();
        assert!(co.is_finished());
        let hw = co.stack_high_water();
        assert!(hw > 0, "a started coroutine used some stack");
        assert!(hw < 64 * 1024, "shallow body reported {hw} bytes");
    }
}
