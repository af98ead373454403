//! Cooperative cancellation for executing queries.
//!
//! A [`CancelToken`] is the one object a request, its session thread,
//! and its [`super::Job`] all share: an abandon flag plus an optional
//! deadline instant (in-process jobs carry an unbounded token that
//! never fires). Nothing is interrupted preemptively — the job checks
//! the token at every lease claim and between morsels, and the
//! session checks it on every wait tick — so a fired token drains a
//! query at morsel granularity: unclaimed morsels are abandoned, the
//! in-flight admission slot frees, and the submitter gets a *typed*
//! [`crate::StoreError::DeadlineExceeded`] or
//! [`crate::StoreError::Cancelled`], never a hang.

use crate::{Result, StoreError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A shared "stop this query" switch: an abandon flag (set on client
/// disconnect) plus an optional deadline.
#[derive(Debug)]
pub(crate) struct CancelToken {
    cancelled: AtomicBool,
    /// Expiry instant and the configured millisecond budget it came
    /// from (carried so the typed error can echo the configuration).
    deadline: Option<(Instant, u64)>,
}

impl CancelToken {
    /// A token that only fires when [`CancelToken::cancel`] is called.
    pub(crate) fn unbounded() -> CancelToken {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: None,
        }
    }

    /// A token that additionally expires `deadline_ms` from now.
    /// `deadline_ms == 0` is already expired — the deterministic
    /// "refuse immediately" deadline chaos tests lean on. A budget so
    /// large the instant overflows is treated as no deadline.
    pub(crate) fn with_deadline_ms(deadline_ms: u64) -> CancelToken {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: Instant::now()
                .checked_add(Duration::from_millis(deadline_ms))
                .map(|at| (at, deadline_ms)),
        }
    }

    /// Fire the abandon flag; every subsequent [`CancelToken::check`]
    /// fails typed.
    pub(crate) fn cancel(&self) {
        // ordering: a monotonic one-way flag polled at morsel
        // granularity; no data is published through it.
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// `Ok` while the query may keep running; the typed reason once it
    /// must stop. Cancellation wins over expiry when both hold — the
    /// client is gone either way, and the counters should say why
    /// first.
    pub(crate) fn check(&self) -> Result<()> {
        // ordering: one-way flag poll, see `cancel`.
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(StoreError::Cancelled);
        }
        if let Some((at, deadline_ms)) = self.deadline {
            if Instant::now() >= at {
                return Err(StoreError::DeadlineExceeded { deadline_ms });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires_until_cancelled() {
        let token = CancelToken::unbounded();
        assert!(token.check().is_ok());
        token.cancel();
        assert!(matches!(token.check(), Err(StoreError::Cancelled)));
    }

    #[test]
    fn zero_deadline_is_already_expired() {
        let token = CancelToken::with_deadline_ms(0);
        assert!(matches!(
            token.check(),
            Err(StoreError::DeadlineExceeded { deadline_ms: 0 })
        ));
    }

    #[test]
    fn generous_deadline_passes_and_cancel_overrides() {
        let token = CancelToken::with_deadline_ms(60_000);
        assert!(token.check().is_ok());
        token.cancel();
        assert!(matches!(token.check(), Err(StoreError::Cancelled)));
    }

    #[test]
    fn overflowing_deadline_degrades_to_unbounded() {
        let token = CancelToken::with_deadline_ms(u64::MAX);
        assert!(token.check().is_ok());
    }
}
