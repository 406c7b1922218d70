//! Hand-rolled bounded MPSC channel and oneshot reply slot.
//!
//! The workspace vendors no channel crate, so the daemon's single-writer
//! command queue is built from `Mutex` + `Condvar`: many connection
//! threads [`Sender::send`] commands, one market thread [`Receiver::recv`]s
//! them. The buffer is bounded — a flood of writers blocks at `send`
//! (backpressure) instead of growing the queue without limit. Replies
//! travel back on a [`oneshot`] slot per command.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Schedule-perturbation point: a pseudo-random yield under
/// `--features loom-model` (see the vendored loom stand-in), nothing in
/// production builds. Placed at the hazard windows of the channel
/// protocol — around lock acquisition and between a state change and
/// its condvar notify — so the interleaving models below push competing
/// senders and the draining receiver through many orderings. The demand
/// tracker's note/drain protocol uses the same points.
#[inline]
pub(crate) fn fuzz() {
    #[cfg(feature = "loom-model")]
    loom::fuzz_yield();
}

struct ChanState<T> {
    buf: VecDeque<T>,
    cap: usize,
    /// Live [`Sender`] clones; 0 with an empty buffer means disconnected.
    senders: usize,
    /// Set when the receiver is dropped: sends fail immediately.
    closed: bool,
}

struct Chan<T> {
    state: Mutex<ChanState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The sending half; clone freely across connection threads.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half; exactly one exists per channel.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// The message could not be delivered (receiver gone); gives the value back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// A non-blocking send could not complete; gives the value back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The buffer is at capacity (backpressure; retry after the receiver
    /// drains).
    Full(T),
    /// The receiver is gone; the channel will never accept again.
    Closed(T),
}

/// Why a timed receive returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeout {
    /// No message arrived within the timeout.
    Timeout,
    /// Every sender is gone and the buffer is drained.
    Disconnected,
}

/// Creates a bounded MPSC channel holding at most `cap` queued messages.
///
/// # Panics
///
/// Panics if `cap == 0`.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "channel capacity must be positive");
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState {
            buf: VecDeque::with_capacity(cap),
            cap,
            senders: 1,
            closed: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Blocks until there is room, then enqueues `value`.
    ///
    /// # Errors
    ///
    /// Returns the value back if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        fuzz();
        let mut st = lock_ok(&self.chan.state);
        loop {
            if st.closed {
                return Err(SendError(value));
            }
            if st.buf.len() < st.cap {
                st.buf.push_back(value);
                fuzz();
                self.chan.not_empty.notify_one();
                return Ok(());
            }
            st = wait_ok(&self.chan.not_full, st);
        }
    }

    /// Enqueues `value` if there is room right now, without blocking —
    /// the event loop must never sleep on the command queue, so a full
    /// buffer is reported back for the caller to hold in its backlog.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] at capacity, [`TrySendError::Closed`] if
    /// the receiver is gone; both return the value.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        fuzz();
        let mut st = lock_ok(&self.chan.state);
        if st.closed {
            return Err(TrySendError::Closed(value));
        }
        if st.buf.len() >= st.cap {
            return Err(TrySendError::Full(value));
        }
        st.buf.push_back(value);
        self.chan.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock_ok(&self.chan.state).senders += 1;
        Sender {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = lock_ok(&self.chan.state);
        st.senders -= 1;
        if st.senders == 0 {
            // Wake a receiver blocked on an empty buffer so it observes
            // the disconnect.
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, RecvTimeout> {
        let mut st = lock_ok(&self.chan.state);
        loop {
            if let Some(v) = st.buf.pop_front() {
                self.chan.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeout::Disconnected);
            }
            st = wait_ok(&self.chan.not_empty, st);
        }
    }

    /// Blocks up to `timeout` for a message. [`RecvTimeout::Timeout`] is
    /// the market thread's cue to spend the idle gap on an
    /// equilibrium-maintenance epoch.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeout> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = lock_ok(&self.chan.state);
        loop {
            if let Some(v) = st.buf.pop_front() {
                self.chan.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeout::Disconnected);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(RecvTimeout::Timeout);
            }
            let (guard, _timed_out) = self
                .chan
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Receives a *batch*: blocks until at least one message is available
    /// (or `timeout` / disconnect), then drains everything queued — up to
    /// `max` messages total — into `buf` without further blocking. This
    /// is the market thread's drain primitive: one lock acquisition and
    /// one wakeup amortized over the whole batch. Returns the number of
    /// messages appended and the queue depth *before* the drain (for the
    /// `serve.queue.depth` gauge).
    ///
    /// # Errors
    ///
    /// [`RecvTimeout::Timeout`] if `timeout` elapsed with nothing queued
    /// (never with `timeout: None`, which waits indefinitely);
    /// [`RecvTimeout::Disconnected`] when every sender is gone and the
    /// buffer is empty.
    pub fn recv_batch(
        &self,
        buf: &mut Vec<T>,
        max: usize,
        timeout: Option<Duration>,
    ) -> Result<(usize, usize), RecvTimeout> {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        fuzz();
        let mut st = lock_ok(&self.chan.state);
        loop {
            if !st.buf.is_empty() {
                let depth = st.buf.len();
                let take = depth.min(max);
                buf.extend(st.buf.drain(..take));
                fuzz();
                // Potentially many senders were parked on a full buffer.
                self.chan.not_full.notify_all();
                return Ok((take, depth));
            }
            if st.senders == 0 {
                return Err(RecvTimeout::Disconnected);
            }
            match deadline {
                None => st = wait_ok(&self.chan.not_empty, st),
                Some(d) => {
                    let now = std::time::Instant::now();
                    if now >= d {
                        return Err(RecvTimeout::Timeout);
                    }
                    let (guard, _timed_out) = self
                        .chan
                        .not_empty
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    /// Drains whatever is queued right now without blocking.
    pub fn try_drain(&self) -> Vec<T> {
        let mut st = lock_ok(&self.chan.state);
        let out: Vec<T> = st.buf.drain(..).collect();
        if !out.is_empty() {
            self.chan.not_full.notify_all();
        }
        out
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = lock_ok(&self.chan.state);
        st.closed = true;
        st.buf.clear();
        // Unblock writers stuck on a full buffer so they observe `closed`.
        self.chan.not_full.notify_all();
    }
}

/// A single-use reply slot: the market thread sends exactly one response,
/// the connection thread blocks on it.
pub fn oneshot<T>() -> (OneSender<T>, OneReceiver<T>) {
    let slot = Arc::new(OneSlot {
        state: Mutex::new(OneState {
            value: None,
            sender_gone: false,
        }),
        filled: Condvar::new(),
    });
    (OneSender { slot: slot.clone() }, OneReceiver { slot })
}

struct OneState<T> {
    value: Option<T>,
    sender_gone: bool,
}

struct OneSlot<T> {
    state: Mutex<OneState<T>>,
    filled: Condvar,
}

/// Sending half of [`oneshot`].
pub struct OneSender<T> {
    slot: Arc<OneSlot<T>>,
}

/// Receiving half of [`oneshot`].
pub struct OneReceiver<T> {
    slot: Arc<OneSlot<T>>,
}

impl<T> OneSender<T> {
    /// Fills the slot (first write wins) and wakes the receiver.
    pub fn send(self, value: T) {
        let mut st = lock_ok(&self.slot.state);
        if st.value.is_none() {
            st.value = Some(value);
        }
        self.slot.filled.notify_all();
        // Drop runs next and marks the sender gone.
    }
}

impl<T> Drop for OneSender<T> {
    fn drop(&mut self) {
        let mut st = lock_ok(&self.slot.state);
        st.sender_gone = true;
        self.slot.filled.notify_all();
    }
}

impl<T> OneReceiver<T> {
    /// Blocks for the reply; `None` if the sender was dropped without
    /// replying (market thread died or rejected the command at drain).
    pub fn recv(self) -> Option<T> {
        let mut st = lock_ok(&self.slot.state);
        loop {
            if let Some(v) = st.value.take() {
                return Some(v);
            }
            if st.sender_gone {
                return None;
            }
            st = wait_ok(&self.slot.filled, st);
        }
    }
}

/// Locks a mutex, proceeding through poisoning: the daemon's shared state
/// is a queue of owned values, all of which remain structurally valid even
/// if a holder panicked mid-critical-section.
pub(crate) fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait_ok<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = bounded(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeout::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
    }

    #[test]
    fn disconnect_when_all_senders_drop() {
        let (tx, rx) = bounded::<u32>(1);
        let tx2 = tx.clone();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvTimeout::Disconnected));
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn bounded_blocks_and_resumes() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2)); // lint: allow(thread-spawn)
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1)); // frees the slot, unblocks the sender
        assert_eq!(rx.recv(), Ok(2));
        t.join().unwrap().unwrap();
    }

    #[test]
    fn oneshot_round_trip() {
        let (tx, rx) = oneshot();
        tx.send("hi");
        assert_eq!(rx.recv(), Some("hi"));
    }

    #[test]
    fn oneshot_sender_dropped() {
        let (tx, rx) = oneshot::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn try_send_reports_full_and_closed() {
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Closed(4)));
    }

    #[test]
    fn recv_batch_drains_everything_queued() {
        let (tx, rx) = bounded(8);
        for k in 0..5 {
            tx.send(k).unwrap();
        }
        let mut buf = Vec::new();
        let (n, depth) = rx
            .recv_batch(&mut buf, usize::MAX, Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!((n, depth), (5, 5));
        assert_eq!(buf, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_batch_respects_max_and_reports_depth() {
        let (tx, rx) = bounded(8);
        for k in 0..6 {
            tx.send(k).unwrap();
        }
        let mut buf = Vec::new();
        let (n, depth) = rx.recv_batch(&mut buf, 4, None).unwrap();
        assert_eq!((n, depth), (4, 6));
        let (n, depth) = rx.recv_batch(&mut buf, 4, None).unwrap();
        assert_eq!((n, depth), (2, 2));
        assert_eq!(buf, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn recv_batch_times_out_and_disconnects() {
        let (tx, rx) = bounded::<u32>(1);
        let mut buf = Vec::new();
        assert_eq!(
            rx.recv_batch(&mut buf, 8, Some(Duration::from_millis(5))),
            Err(RecvTimeout::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_batch(&mut buf, 8, Some(Duration::from_millis(5))),
            Err(RecvTimeout::Disconnected)
        );
    }

    #[test]
    fn try_drain_empties_queue() {
        let (tx, rx) = bounded(8);
        for k in 0..5 {
            tx.send(k).unwrap();
        }
        assert_eq!(rx.try_drain(), vec![0, 1, 2, 3, 4]);
        assert!(rx.try_drain().is_empty());
    }
}

/// Interleaving models of the channel protocol, run under the loom
/// stand-in's schedule perturbation (`--features loom-model`; the TSan
/// CI cell watches the same tests for data races). The `fuzz()` points
/// in `send`/`try_send`/`recv_batch` give each iteration a different
/// ordering of competing senders against the draining receiver.
#[cfg(all(test, feature = "loom-model"))]
mod loom_model_tests {
    use super::*;
    use std::time::Duration;

    /// Many senders racing a batching receiver over a tiny buffer:
    /// every message arrives exactly once, each sender's sequence stays
    /// in order, and no batch exceeds its `max`.
    #[test]
    fn recv_batch_loses_and_reorders_nothing() {
        loom::model(|| {
            const SENDERS: usize = 3;
            const PER_SENDER: usize = 16;
            // cap 2 forces senders to park on `not_full` and race the
            // receiver's notify_all on every drain.
            let (tx, rx) = bounded::<(usize, usize)>(2);
            let handles: Vec<_> = (0..SENDERS)
                .map(|s| {
                    let tx = tx.clone();
                    // Model threads stand in for connection threads.
                    // lint: allow(thread-spawn)
                    loom::thread::spawn(move || {
                        for seq in 0..PER_SENDER {
                            loom::fuzz_yield();
                            tx.send((s, seq)).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);

            let mut got: Vec<Vec<usize>> = vec![Vec::new(); SENDERS];
            let mut batch = Vec::new();
            let mut total = 0;
            while total < SENDERS * PER_SENDER {
                let (take, _depth) = rx
                    .recv_batch(&mut batch, 4, Some(Duration::from_secs(5)))
                    .expect("all messages must arrive before timeout/disconnect");
                assert!(take <= 4, "batch exceeded max: {take}");
                total += take;
                for (s, seq) in batch.drain(..) {
                    got[s].push(seq);
                }
            }
            for (s, seqs) in got.iter().enumerate() {
                assert_eq!(
                    *seqs,
                    (0..PER_SENDER).collect::<Vec<_>>(),
                    "sender {s} lost or reordered messages"
                );
            }
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    /// `try_send` under the same contention: a Full result never loses
    /// the value (it comes back for the backlog) and everything that
    /// reported Ok is delivered exactly once.
    #[test]
    fn try_send_full_returns_value_without_loss() {
        loom::model(|| {
            const SENDERS: usize = 2;
            const PER_SENDER: usize = 12;
            let (tx, rx) = bounded::<(usize, usize)>(2);
            let handles: Vec<_> = (0..SENDERS)
                .map(|s| {
                    let tx = tx.clone();
                    // lint: allow(thread-spawn)
                    loom::thread::spawn(move || {
                        let mut sent = 0;
                        for seq in 0..PER_SENDER {
                            let mut v = (s, seq);
                            loop {
                                match tx.try_send(v) {
                                    Ok(()) => {
                                        sent += 1;
                                        break;
                                    }
                                    Err(TrySendError::Full(back)) => {
                                        // Backlog retry: the value came
                                        // back intact.
                                        assert_eq!(back, (s, seq));
                                        v = back;
                                        std::thread::yield_now();
                                    }
                                    Err(TrySendError::Closed(_)) => {
                                        unreachable!("receiver lives");
                                    }
                                }
                            }
                        }
                        sent
                    })
                })
                .collect();
            drop(tx);

            let mut batch = Vec::new();
            let mut total = 0;
            loop {
                match rx.recv_batch(&mut batch, usize::MAX, Some(Duration::from_secs(5))) {
                    Ok((take, _)) => total += take,
                    Err(RecvTimeout::Disconnected) => break,
                    Err(RecvTimeout::Timeout) => panic!("senders wedged"),
                }
                batch.clear();
            }
            let sent: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(total, sent);
            assert_eq!(total, SENDERS * PER_SENDER);
        });
    }
}
