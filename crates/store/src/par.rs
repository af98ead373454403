//! The host's width and the one ordered map the write path fans out
//! through.
//!
//! No pool: [`ordered_map`] maps its items on the calling thread and
//! scoped helpers, each claiming the next item until none is left, and
//! puts the results back in item order — so its output is the serial
//! map's whatever the width, and one item (a one-segment batch) never
//! leaves the calling thread.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The host's hardware threads — the most leases an in-process job
/// runs at once (extra workers cannot run concurrently and only pay
/// spawn and switch overhead), the width the write path encodes at and
/// what `ServerConfig::default()` sizes its pool to. Asked of the OS once:
/// the answer costs more than a point query (it reads the cgroup quota
/// files).
pub(crate) fn host_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// How many threads [`ordered_map`] runs `items` items on at `width`:
/// one per item up to `width`, and never fewer than the calling one.
pub(crate) fn threads(items: usize, width: usize) -> usize {
    items.min(width).max(1)
}

/// `items.iter().map(f).collect()`, on [`threads`]`(items.len(), width)`
/// threads — the calling one and scoped helpers — each claiming the
/// next unmapped item until none is left, so a thread on a busier core
/// maps fewer. A panic in `f` reaches the caller with its own payload,
/// after every thread stopped.
pub(crate) fn ordered_map<T: Sync, R: Send>(
    items: &[T],
    width: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads(items.len(), width);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut mapped = Vec::new();
        loop {
            // ordering: a ticket counter; the items and results cross
            // threads through the scope's spawn and join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return mapped;
            };
            mapped.push((i, f(item)));
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let mut place = |mapped: Vec<(usize, R)>| {
            for (i, result) in mapped {
                slots[i] = Some(result);
            }
        };
        place(claim());
        for helper in helpers {
            match helper.join() {
                Ok(mapped) => place(mapped),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        slots.into_iter().flatten().collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_at_every_width() {
        let items: Vec<u32> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|&i| u64::from(i) * 3).collect();
        for width in [0, 1, 2, 3, 7, 64] {
            assert_eq!(ordered_map(&items, width, |&i| u64::from(i) * 3), serial);
        }
        assert!(ordered_map(&[] as &[u32], 4, |&i| i).is_empty());
    }

    /// Items 0 and 1 meet at a barrier, so two threads map items, and
    /// each item takes long enough that they interleave over the rest;
    /// the results still come back in item order.
    #[test]
    fn two_threads_map_in_item_order() {
        let items: Vec<u64> = (0..2000).collect();
        let met = std::sync::Barrier::new(2);
        let mapped = ordered_map(&items, 2, |&i| {
            if i < 2 {
                met.wait();
            }
            (0..1000).map(std::hint::black_box).fold(i, |a, _| a)
        });
        assert_eq!(mapped, items);
    }

    #[test]
    fn a_panic_keeps_its_payload() {
        let items: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            ordered_map(&items, 4, |&i| if i == 7 { panic!("item {i}") } else { i })
        });
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 7")
        );
    }
}
