//! A process-wide SIGTERM latch.
//!
//! The server's shutdown watcher polls [`seen`] and wakes the blocking
//! accept loop; orchestrators send SIGTERM and the server drains
//! instead of dying mid-request. The handler itself only stores into an
//! `AtomicBool` — the one operation that is async-signal-safe — and the
//! drain logic runs on the accept thread, never in signal context.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM (or a test [`trigger`]) has been observed.
pub fn seen() -> bool {
    TERM.load(Ordering::SeqCst)
}

/// Sets the latch exactly as the signal handler would (for tests and
/// for wiring alternative shutdown sources).
pub fn trigger() {
    TERM.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler. Idempotent; later installs replace
/// the same handler. On non-Unix targets this is a no-op and only
/// [`trigger`]-based shutdown is available.
#[cfg(unix)]
pub fn install() {
    #[allow(unsafe_code)]
    mod ffi {
        /// SIGTERM on every Unix the workspace targets.
        pub const SIGTERM: i32 = 15;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }

        extern "C" fn on_term(_signum: i32) {
            super::TERM.store(true, std::sync::atomic::Ordering::SeqCst);
        }

        pub fn install_sigterm() {
            // SAFETY: `signal` is the libc prototype; the handler only
            // performs an atomic store, which is async-signal-safe.
            unsafe {
                signal(SIGTERM, on_term as *const () as usize);
            }
        }
    }
    ffi::install_sigterm();
}

/// No signal support off Unix; shutdown comes from [`trigger`] or a
/// [`ServerHandle`](crate::ServerHandle).
#[cfg(not(unix))]
pub fn install() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_sets_the_latch() {
        // The latch is process-global and sticky, so this test is the
        // only one allowed to flip it.
        assert!(!seen());
        trigger();
        assert!(seen());
    }
}
