//! Process-wide tensor-allocation accounting.
//!
//! Every [`Tensor`](crate::Tensor) registers its payload size (4 bytes per
//! `f32` element) at construction and releases it on drop, maintaining a
//! live-bytes counter and a high-water mark. The trainer samples the mark
//! per epoch as a telemetry gauge / trace counter, answering "how much
//! tensor memory did this configuration peak at?" — the memory half of the
//! paper's pruned-weight-budget story.
//!
//! Everything is relaxed atomics: two uncontended read-modify-writes per
//! tensor lifetime, noise next to the `Vec` allocation itself. Counts are
//! element bytes only — `Vec` capacity slack and the shape vector are not
//! modeled.

use std::sync::atomic::{AtomicU64, Ordering};

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static HWM_BYTES: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// Bytes the calling thread allocated minus the bytes it freed. The
    /// tests read this instead of [`live_bytes`], which a test on another
    /// thread can move between two reads.
    static THREAD_LIVE: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
}

pub(crate) fn track_alloc(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    HWM_BYTES.fetch_max(live, Ordering::Relaxed);
    #[cfg(test)]
    THREAD_LIVE.with(|t| t.set(t.get() + bytes as i64));
}

pub(crate) fn track_free(bytes: usize) {
    // Saturating rather than wrapping: a (would-be) accounting bug must
    // never poison the high-water mark with a near-u64::MAX "live" value.
    let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(bytes as u64))
    });
    #[cfg(test)]
    THREAD_LIVE.with(|t| t.set(t.get() - bytes as i64));
}

/// Bytes of tensor payload currently alive in the process.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Highest [`live_bytes`] value observed since process start (or the last
/// [`reset_hwm`]).
pub fn hwm_bytes() -> u64 {
    HWM_BYTES.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live total, so a caller can
/// measure the peak of one phase (e.g. a single epoch) in isolation.
pub fn reset_hwm() {
    HWM_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    // Other tests in the crate allocate and free tensors concurrently, so
    // these tests read the calling thread's own count, which only their
    // own tensors move.

    const BIG: usize = 1 << 20;
    const BIG_BYTES: i64 = (BIG as i64) * 4;

    fn thread_live() -> i64 {
        THREAD_LIVE.with(|t| t.get())
    }

    #[test]
    fn alloc_raises_live_and_hwm_and_drop_releases() {
        let before = thread_live();
        let t = Tensor::zeros(vec![BIG]);
        let with = thread_live();
        assert_eq!(with, before + BIG_BYTES, "alloc tracked");
        // The process-wide peak came no earlier than this tensor, which is
        // still live (a concurrent `reset_hwm` keeps it counted too).
        assert!(hwm_bytes() >= BIG_BYTES as u64, "hwm covers the peak");
        drop(t);
        assert_eq!(thread_live(), with - BIG_BYTES, "drop released the payload");
    }

    #[test]
    fn clone_and_into_vec_balance() {
        let t = Tensor::from_fn(vec![BIG], |i| i as f32);
        let live_one = thread_live();
        let c = t.clone();
        assert_eq!(thread_live(), live_one + BIG_BYTES, "clone tracked");
        let with_clone = thread_live();
        let v = c.into_vec();
        assert_eq!(v.len(), BIG);
        assert_eq!(
            thread_live(),
            with_clone - BIG_BYTES,
            "into_vec released the tensor's accounting"
        );
        drop(t);
    }

    #[test]
    fn reset_hwm_tracks_current_live() {
        let t = Tensor::zeros(vec![BIG]);
        reset_hwm();
        assert!(
            hwm_bytes() >= BIG_BYTES as u64,
            "reset keeps live tensors counted"
        );
        drop(t);
    }
}
