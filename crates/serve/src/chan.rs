//! Hand-rolled bounded MPSC channel with a claim, and a oneshot reply
//! slot.
//!
//! The workspace vendors no channel crate, so each shard's command queue
//! is built from `Mutex` + `Condvar`: I/O threads, peer shards and
//! in-process drivers push commands, one writer thread receives them.
//! The buffer is bounded — a flood of writers blocks at
//! [`Sender::send`] or is told [`TrySendError::Full`] (backpressure)
//! instead of growing the queue without limit. Replies travel back on a
//! [`oneshot`] slot or a completion mailbox per command.
//!
//! # The claim
//!
//! The queue's lock also guards a *claim*: the right to apply the queued
//! commands to the shard behind the queue. At most one thread holds it.
//! The receiving writer thread takes it with each batch
//! ([`Receiver::claim_batch`]); an I/O thread takes it when its push
//! finds the queue unclaimed ([`Sender::try_send_claim`]) and then
//! applies the commands itself ([`Sender::take_claimed`]) instead of
//! waking the writer. Every claimant gives the claim back through
//! `release`, which re-checks the queue under the same lock: a push
//! that found the queue claimed sent no notify, so the releasing
//! claimant is the one that wakes the parked receiver — when a command
//! is still queued, or when the claimant leaves work that only the
//! receiver does (`wanted`).
//!
//! Plain pushes ([`Sender::send`], [`Sender::try_send`]) never claim.
//! A condvar notify costs a syscall even with nobody waiting, so every
//! notify here is sent only to a thread that is parked: a push wakes the
//! receiver only when it is parked and the queue is unclaimed, and a
//! drain wakes senders only when some are blocked on a full buffer.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Schedule-perturbation point: a pseudo-random yield under
/// `--features loom-model` (see the vendored loom stand-in), nothing in
/// production builds. Placed at the hazard windows of the channel
/// protocol — around lock acquisition, between a state change and its
/// condvar notify, and around the claim and its release — so the
/// interleaving models below push competing senders, claimants and the
/// receiver through many orderings. The demand tracker's note/drain
/// protocol uses the same points.
#[inline]
pub(crate) fn fuzz() {
    #[cfg(feature = "loom-model")]
    loom::fuzz_yield();
}

struct ChanState<T> {
    buf: VecDeque<T>,
    cap: usize,
    /// Set when the receiver is dropped: sends fail immediately.
    closed: bool,
    /// Some thread holds the right to apply the queued commands.
    claimed: bool,
    /// A claimant let go while leaving work only the receiver does: the
    /// receiver claims as soon as the queue is unclaimed.
    wanted: bool,
    /// Claims taken so far: an idle tick of the receiver counts only if
    /// no one claimed while it waited.
    claims: u64,
    /// Senders blocked in [`Sender::send`] on a full buffer.
    parked_senders: usize,
    /// The receiver is blocked waiting for a message or a claim.
    receiver_parked: bool,
}

impl<T> ChanState<T> {
    /// Takes up to `max` queued messages into `buf`; returns how many,
    /// and the depth before the drain.
    fn take(&mut self, chan: &Chan<T>, buf: &mut Vec<T>, max: usize) -> (usize, usize) {
        let depth = self.buf.len();
        let take = depth.min(max);
        buf.extend(self.buf.drain(..take));
        fuzz();
        chan.notify_senders(self, take);
        (take, depth)
    }

    /// Pushes `value` (room checked by the caller) and wakes the
    /// receiver if it is parked and no claimant will see the message.
    fn push(&mut self, chan: &Chan<T>, value: T) {
        debug_assert!(self.buf.len() < self.cap, "push past the capacity");
        self.buf.push_back(value);
        fuzz();
        if self.receiver_parked && !self.claimed {
            chan.not_empty.notify_one();
        }
    }
}

struct Chan<T> {
    state: Mutex<ChanState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Chan<T> {
    /// Wakes the senders blocked on a full buffer, once `freed` slots
    /// opened up.
    fn notify_senders(&self, st: &ChanState<T>, freed: usize) {
        if freed > 0 && st.parked_senders > 0 {
            self.not_full.notify_all();
        }
    }

    /// Parks the receiver on `not_empty` until notified or `deadline`.
    fn park<'a>(
        &self,
        mut st: MutexGuard<'a, ChanState<T>>,
        deadline: Instant,
    ) -> MutexGuard<'a, ChanState<T>> {
        st.receiver_parked = true;
        let left = deadline.saturating_duration_since(Instant::now());
        st = self
            .not_empty
            .wait_timeout(st, left)
            .unwrap_or_else(|e| e.into_inner())
            .0;
        st.receiver_parked = false;
        st
    }

    /// Gives the claim back. The re-check under the queue lock is what
    /// lets a push that found the queue claimed skip its notify: a
    /// command still queued, or work the claimant leaves for the
    /// receiver (`wanted`), wakes a parked receiver here.
    fn release(&self, wanted: bool) {
        fuzz();
        let mut st = lock_ok(&self.state);
        debug_assert!(st.claimed, "release without a claim");
        st.claimed = false;
        st.wanted |= wanted;
        fuzz();
        if st.receiver_parked && (st.wanted || !st.buf.is_empty()) {
            self.not_empty.notify_one();
        }
    }
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

/// What [`Receiver::claim_batch`] returned with, the claim held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claimed {
    /// Messages were queued, or a claimant left work for the receiver:
    /// `taken` of the `depth` queued messages were drained (both may be
    /// zero).
    Batch {
        /// Messages appended to the caller's buffer.
        taken: usize,
        /// Queue depth before the drain.
        depth: usize,
    },
    /// A whole tick passed with nothing queued and no claim taken by
    /// anyone: the queue is idle.
    Idle,
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
            closed: false,
            claimed: false,
            wanted: false,
            claims: 0,
            parked_senders: 0,
            receiver_parked: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Blocks until there is room, then enqueues `value`. Never claims.
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
                st.push(&self.chan, value);
                return Ok(());
            }
            st.parked_senders += 1;
            st = wait_ok(&self.chan.not_full, st);
            st.parked_senders -= 1;
        }
    }

    /// Enqueues `value` if there is room right now, without blocking —
    /// the event loop must never sleep on the command queue, so a full
    /// buffer is reported back for the caller to hold in its backlog.
    /// Never claims.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] at capacity, [`TrySendError::Closed`] if
    /// the receiver is gone; both return the value.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.try_push(value, false).map(|_| ())
    }

    /// [`Sender::try_send`] that also takes the claim when the queue is
    /// unclaimed, returning `true`; the caller then applies the queue
    /// ([`Sender::take_claimed`]) and must [`Sender::release`] it. A
    /// push that finds the queue claimed returns `false` and wakes no
    /// one: the claimant's release re-checks the queue.
    ///
    /// # Errors
    ///
    /// As [`Sender::try_send`]; no claim is taken then.
    pub fn try_send_claim(&self, value: T) -> Result<bool, TrySendError<T>> {
        self.try_push(value, true)
    }

    fn try_push(&self, value: T, claim: bool) -> Result<bool, TrySendError<T>> {
        fuzz();
        let mut st = lock_ok(&self.chan.state);
        if st.closed {
            return Err(TrySendError::Closed(value));
        }
        if st.buf.len() >= st.cap {
            return Err(TrySendError::Full(value));
        }
        if claim && !st.claimed {
            st.buf.push_back(value);
            fuzz();
            st.claimed = true;
            st.claims += 1;
            return Ok(true);
        }
        st.push(&self.chan, value);
        Ok(false)
    }

    /// Takes, under a claim this sender's push took, the queued messages
    /// at the head that `admit` accepts — up to `max`, stopping before
    /// the first it refuses, so the queue stays FIFO. Returns how many
    /// were appended to `buf` and the depth before the drain.
    pub fn take_claimed(
        &self,
        buf: &mut Vec<T>,
        max: usize,
        admit: impl Fn(&T) -> bool,
    ) -> (usize, usize) {
        let mut st = lock_ok(&self.chan.state);
        debug_assert!(st.claimed, "take_claimed without a claim");
        let depth = st.buf.len();
        let mut taken = 0;
        while taken < max && st.buf.front().is_some_and(&admit) {
            buf.extend(st.buf.pop_front());
            taken += 1;
        }
        fuzz();
        self.chan.notify_senders(&st, taken);
        (taken, depth)
    }

    /// Gives back a claim this sender's push took; `wanted` says the
    /// claimant leaves work that only the receiver does.
    pub fn release(&self, wanted: bool) {
        self.chan.release(wanted);
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Receiver<T> {
    /// The writer thread's wait: blocks until the queue is unclaimed and
    /// either holds messages or was left `wanted` by a claimant — or
    /// until a whole `tick` passes in which nothing was queued and no
    /// one claimed — then takes the claim, drains up to `max` messages
    /// into `buf`, and says which of the two it was. The caller applies
    /// the batch and must [`Receiver::release`] the claim.
    pub fn claim_batch(&self, buf: &mut Vec<T>, max: usize, tick: Duration) -> Claimed {
        fuzz();
        let mut st = lock_ok(&self.chan.state);
        let mut seen = st.claims;
        let mut deadline = Instant::now() + tick;
        loop {
            let now = Instant::now();
            if !st.claimed {
                let work = !st.buf.is_empty() || st.wanted;
                if work || (now >= deadline && st.claims == seen) {
                    st.claimed = true;
                    st.claims += 1;
                    st.wanted = false;
                    fuzz();
                    if !work {
                        return Claimed::Idle;
                    }
                    let (taken, depth) = st.take(&self.chan, buf, max);
                    return Claimed::Batch { taken, depth };
                }
            }
            if now >= deadline {
                // Claimed now, or claimed during the tick: the queue was
                // not idle, so the next tick starts here.
                seen = st.claims;
                deadline = now + tick;
            }
            st = self.chan.park(st, deadline);
        }
    }

    /// Gives back the claim [`Receiver::claim_batch`] took; `wanted` says
    /// the receiver has work of its own left and claims again at once.
    pub fn release(&self, wanted: bool) {
        self.chan.release(wanted);
    }

    /// Drains whatever is queued right now without blocking.
    pub fn try_drain(&self) -> Vec<T> {
        let mut st = lock_ok(&self.chan.state);
        let mut out = Vec::new();
        st.take(&self.chan, &mut out, usize::MAX);
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

    /// The reply, if it has arrived, without waiting.
    #[cfg(test)]
    pub(crate) fn try_recv(&self) -> Option<T> {
        lock_ok(&self.slot.state).value.take()
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

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    /// A send blocked on a full queue is woken by the writer's
    /// `claim_batch` that makes room.
    #[test]
    fn bounded_blocks_and_resumes_on_claim_batch() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2)); // lint: allow(thread-spawn)
        while lock_ok(&rx.chan.state).parked_senders == 0 {
            std::thread::yield_now();
        }
        let mut buf = Vec::new();
        let one = Claimed::Batch { taken: 1, depth: 1 };
        assert_eq!(rx.claim_batch(&mut buf, 8, WAIT), one);
        rx.release(false);
        assert_eq!(rx.claim_batch(&mut buf, 8, WAIT), one);
        rx.release(false);
        assert_eq!(buf, vec![1, 2]);
        t.join().unwrap().unwrap();
    }

    /// A push claims only an unclaimed queue; the claimant takes the
    /// head it admits and stops before the first message it refuses;
    /// its release hands the rest — or work it leaves — to the receiver
    /// at once; and with nothing to do the receiver's claim waits out a
    /// whole tick.
    #[test]
    fn claims_are_exclusive_and_release_hands_over_the_rest() {
        let (tx, rx) = bounded(8);
        let mut buf = Vec::new();
        let long = Duration::from_secs(60);
        assert_eq!(tx.try_send_claim(1), Ok(true));
        assert_eq!(tx.try_send_claim(2), Ok(false));
        tx.try_send(10).unwrap();
        assert_eq!(tx.try_send_claim(3), Ok(false));
        assert_eq!(tx.take_claimed(&mut buf, 8, |&v| v < 10), (2, 4));
        assert_eq!(buf, vec![1, 2]);
        tx.release(false);
        buf.clear();
        let got = rx.claim_batch(&mut buf, 8, long);
        assert_eq!(got, Claimed::Batch { taken: 2, depth: 2 });
        assert_eq!(buf, vec![10, 3]);
        assert_eq!(tx.try_send_claim(4), Ok(false), "the receiver holds it");
        rx.release(false);
        buf.clear();

        let got = rx.claim_batch(&mut buf, 8, long);
        assert_eq!(got, Claimed::Batch { taken: 1, depth: 1 });
        rx.release(false);
        assert_eq!(tx.try_send_claim(5), Ok(true));
        assert_eq!(tx.take_claimed(&mut buf, 8, |_| true), (1, 1));
        tx.release(true);
        let got = rx.claim_batch(&mut buf, 8, long);
        assert_eq!(got, Claimed::Batch { taken: 0, depth: 0 }, "wanted");
        rx.release(false);

        let got = rx.claim_batch(&mut buf, 8, Duration::from_millis(5));
        assert_eq!(got, Claimed::Idle);
        rx.release(false);
        assert_eq!(buf, vec![4, 5]);
    }

    /// A tick in which some other thread claimed the queue is not idle:
    /// the receiver waits out another whole tick.
    #[test]
    fn a_tick_with_a_claim_in_it_is_not_idle() {
        let (tx, rx) = bounded(4);
        let chan = rx.chan.clone();
        // lint: allow(thread-spawn)
        let io = std::thread::spawn(move || {
            while !lock_ok(&chan.state).receiver_parked {
                std::thread::yield_now();
            }
            assert_eq!(tx.try_send_claim(1), Ok(true));
            let mut buf = Vec::new();
            assert_eq!(tx.take_claimed(&mut buf, 4, |_| true), (1, 1));
            tx.release(false);
        });
        let tick = Duration::from_millis(40);
        let t0 = Instant::now();
        assert_eq!(rx.claim_batch(&mut Vec::new(), 4, tick), Claimed::Idle);
        assert!(t0.elapsed() >= 2 * tick, "{:?}", t0.elapsed());
        rx.release(false);
        io.join().unwrap();
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
        assert_eq!(rx.try_drain(), vec![1]);
        tx.try_send(3).unwrap();
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Closed(4)));
    }

    #[test]
    fn claim_batch_drains_everything_queued() {
        let (tx, rx) = bounded(8);
        for k in 0..5 {
            tx.send(k).unwrap();
        }
        let mut buf = Vec::new();
        let got = rx.claim_batch(&mut buf, usize::MAX, WAIT);
        assert_eq!(got, Claimed::Batch { taken: 5, depth: 5 });
        assert_eq!(buf, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn claim_batch_respects_max_and_reports_depth() {
        let (tx, rx) = bounded(8);
        for k in 0..6 {
            tx.send(k).unwrap();
        }
        let mut buf = Vec::new();
        let got = rx.claim_batch(&mut buf, 4, WAIT);
        assert_eq!(got, Claimed::Batch { taken: 4, depth: 6 });
        rx.release(false);
        let got = rx.claim_batch(&mut buf, 4, WAIT);
        assert_eq!(got, Claimed::Batch { taken: 2, depth: 2 });
        assert_eq!(buf, vec![0, 1, 2, 3, 4, 5]);
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
/// in `send`/`try_send`/`claim_batch` give each iteration a different
/// ordering of competing senders against the draining receiver.
#[cfg(all(test, feature = "loom-model"))]
mod loom_model_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Many blocking senders racing the writer's claim-and-release
    /// receiver over a tiny buffer: every message arrives exactly once,
    /// each sender's sequence stays in order, and no batch exceeds its
    /// `max`. The tick is long enough that only a push's notify wakes
    /// the receiver.
    #[test]
    fn claim_batch_loses_and_reorders_nothing() {
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
                let Claimed::Batch { taken: take, .. } =
                    rx.claim_batch(&mut batch, 4, Duration::from_secs(60))
                else {
                    panic!("a whole tick passed with messages still to come");
                };
                rx.release(false);
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

            let mut total = 0;
            let mut batch = Vec::new();
            while total < SENDERS * PER_SENDER {
                let Claimed::Batch { taken, .. } =
                    rx.claim_batch(&mut batch, 4, Duration::from_secs(5))
                else {
                    panic!("senders wedged");
                };
                rx.release(false);
                total += taken;
            }
            let sent: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(rx.try_drain().is_empty(), "delivered twice");
            assert_eq!(total, sent);
        });
    }

    /// No thread holds the claim.
    const NOBODY: usize = usize::MAX;

    /// One claim holder's turn: applies `batch`, asserting that no other
    /// thread holds the claim meanwhile.
    fn apply(
        who: usize,
        batch: &mut Vec<(usize, usize)>,
        holder: &AtomicUsize,
        applied: &Mutex<Vec<(usize, usize)>>,
    ) {
        let other = holder.swap(who, Ordering::SeqCst);
        assert_eq!(other, NOBODY, "{who} claimed while {other} held the claim");
        loom::fuzz_yield();
        lock_ok(applied).append(batch);
        loom::fuzz_yield();
        holder.store(NOBODY, Ordering::SeqCst);
    }

    /// The claim under four stand-in threads: two I/O threads push client
    /// writes with `try_send_claim` and apply inline what they claim
    /// (client writes only, as the daemon's inline turn does), a peer
    /// pushes with plain `try_send`, and the writer thread applies the
    /// rest under `claim_batch` — with a tick long enough that it never
    /// rescues a stranded command, so it runs only when woken. Every
    /// command is applied exactly once and each pusher's in order, no
    /// two threads hold the claim at once, and nothing stays queued once
    /// the pushers are done.
    #[test]
    fn claim_applies_every_command_once_in_order() {
        const PER_PUSHER: usize = 12;
        /// Pushers 0 and 1 are I/O threads, this one the peer.
        const PEER: usize = 2;
        /// The writer's exit message, sent once every command is applied.
        const STOP: usize = 3;
        const WRITER: usize = 4;
        loom::model(|| {
            let deadline = Instant::now() + Duration::from_secs(5);
            let (tx, rx) = bounded::<(usize, usize)>(4);
            let holder = Arc::new(AtomicUsize::new(NOBODY));
            let applied = Arc::new(Mutex::new(Vec::new()));
            // Retries a push the full queue refused, as a backlog does.
            let push = move |tx: &Sender<(usize, usize)>, cmd, claim: bool| loop {
                let pushed = if claim {
                    tx.try_send_claim(cmd)
                } else {
                    tx.try_send(cmd).map(|()| false)
                };
                match pushed {
                    Ok(claimed) => return claimed,
                    Err(TrySendError::Full(_)) => {
                        assert!(Instant::now() < deadline, "queue stuck full");
                        std::thread::yield_now();
                    }
                    Err(TrySendError::Closed(_)) => unreachable!("the writer lives"),
                }
            };

            let writer = {
                let (holder, applied) = (holder.clone(), applied.clone());
                // lint: allow(thread-spawn)
                loom::thread::spawn(move || {
                    let mut batch = Vec::new();
                    loop {
                        rx.claim_batch(&mut batch, 4, Duration::from_secs(60));
                        let stop = batch.contains(&(STOP, 0));
                        batch.retain(|&(who, _)| who != STOP);
                        apply(WRITER, &mut batch, &holder, &applied);
                        rx.release(false);
                        if stop {
                            return rx;
                        }
                    }
                })
            };
            let pushers: Vec<_> = (0..=PEER)
                .map(|who| {
                    let (tx, holder, applied) = (tx.clone(), holder.clone(), applied.clone());
                    // lint: allow(thread-spawn)
                    loom::thread::spawn(move || {
                        let mut batch = Vec::new();
                        for seq in 0..PER_PUSHER {
                            loom::fuzz_yield();
                            if push(&tx, (who, seq), who != PEER) {
                                tx.take_claimed(&mut batch, 4, |&(w, _)| w != PEER);
                                apply(who, &mut batch, &holder, &applied);
                                tx.release(false);
                            }
                        }
                    })
                })
                .collect();
            for p in pushers {
                p.join().unwrap();
            }
            // Every pusher is idle: whatever is still queued must reach
            // the writer without help from its tick.
            let total = (PEER + 1) * PER_PUSHER;
            while lock_ok(&applied).len() < total {
                assert!(
                    Instant::now() < deadline,
                    "stranded: {} of {total} applied with every pusher idle",
                    lock_ok(&applied).len()
                );
                std::thread::yield_now();
            }
            push(&tx, (STOP, 0), false);
            let rx = writer.join().unwrap();
            assert!(rx.try_drain().is_empty(), "queued after the last apply");
            let applied = lock_ok(&applied);
            for who in 0..=PEER {
                let seqs: Vec<usize> = applied
                    .iter()
                    .filter(|&&(w, _)| w == who)
                    .map(|&(_, seq)| seq)
                    .collect();
                assert_eq!(
                    seqs,
                    (0..PER_PUSHER).collect::<Vec<_>>(),
                    "pusher {who}: lost, doubled or reordered"
                );
            }
        });
    }
}
