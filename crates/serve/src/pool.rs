//! Bounded connection queue between the acceptor and the worker pool.
//!
//! This queue *is* the admission controller: its capacity is the shed
//! watermark. The acceptor does a non-blocking [`ConnQueue::try_push`];
//! when the queue is full the connection is refused up front with a clean
//! `503 + Retry-After` instead of being buried in an unbounded backlog
//! that would blow every deadline it eventually serves.
//!
//! Every admitted connection is stamped at enqueue time, and
//! [`ConnQueue::pop_timeout`] hands the worker the measured **queue wait**
//! (enqueue → dequeue) alongside the stream — the otherwise-invisible
//! slice of request latency spent parked behind the pool, recorded as the
//! `serve_queue_wait_ns` histogram and in each request trace.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A bounded MPMC queue of accepted connections (`Mutex` + `Condvar`;
/// nothing fancier is needed — pushes are one acceptor thread, pops are a
/// handful of workers parked between connections).
pub(crate) struct ConnQueue {
    inner: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    conns: VecDeque<(TcpStream, Instant)>,
    closed: bool,
    /// Timestamps of recent pops, for the observed drain rate that prices
    /// `Retry-After` on shed responses. Bounded by [`DRAIN_RATE_SAMPLES`].
    pop_times: VecDeque<Instant>,
}

/// How many recent pop timestamps the drain-rate estimator retains.
const DRAIN_RATE_SAMPLES: usize = 128;

/// Pops older than this never count toward the drain rate: a queue that
/// drained quickly a minute ago says nothing about how fast it drains now.
const DRAIN_RATE_WINDOW: Duration = Duration::from_secs(10);

/// What [`ConnQueue::pop_timeout`] woke up with.
pub(crate) enum Popped {
    /// A connection and its measured queue wait.
    Conn(TcpStream, Duration),
    /// The timeout elapsed with nothing queued — the caller should tick
    /// its heartbeat and park again.
    Idle,
    /// The queue is closed and empty: the worker should exit.
    Closed,
}

impl QueueState {
    fn note_pop(&mut self, now: Instant) {
        if self.pop_times.len() == DRAIN_RATE_SAMPLES {
            self.pop_times.pop_front();
        }
        self.pop_times.push_back(now);
    }
}

impl ConnQueue {
    /// A queue admitting at most `capacity` parked connections.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueState {
                conns: VecDeque::with_capacity(capacity),
                closed: false,
                pop_times: VecDeque::with_capacity(DRAIN_RATE_SAMPLES),
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The shed watermark (the queue's capacity).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of parked connections.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().conns.len()
    }

    /// Enqueues a connection, or hands it back when the queue is at the
    /// watermark (→ shed) or closed (→ drop on shutdown).
    pub fn try_push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut st = self.inner.lock().unwrap();
        if st.closed || st.conns.len() >= self.capacity {
            return Err(conn);
        }
        st.conns.push_back((conn, Instant::now()));
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Waits up to `timeout` for a connection and returns it with how long
    /// it waited parked in the queue. The bounded wait lets a parked worker
    /// tick its supervision heartbeat: an idle worker and a wedged worker
    /// look identical to the supervisor unless idleness itself produces
    /// ticks.
    pub(crate) fn pop_timeout(&self, timeout: Duration) -> Popped {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock().unwrap();
        loop {
            if let Some((conn, enqueued)) = st.conns.pop_front() {
                st.note_pop(Instant::now());
                return Popped::Conn(conn, enqueued.elapsed());
            }
            if st.closed {
                return Popped::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Popped::Idle;
            }
            let (guard, result) = self.ready.wait_timeout(st, deadline - now).unwrap();
            st = guard;
            if result.timed_out() && st.conns.is_empty() && !st.closed {
                return Popped::Idle;
            }
        }
    }

    /// Observed drain rate in connections per second over the recent pop
    /// window, or `0.0` when there have not been two pops inside the
    /// window to measure an interval from. Prices `Retry-After` on shed
    /// responses and feeds the `queue_drain_rate` gauge.
    pub fn drain_rate_per_sec(&self) -> f64 {
        let mut st = self.inner.lock().unwrap();
        if let Some(cutoff) = Instant::now().checked_sub(DRAIN_RATE_WINDOW) {
            while st.pop_times.front().is_some_and(|t| *t < cutoff) {
                st.pop_times.pop_front();
            }
        }
        if st.pop_times.len() < 2 {
            return 0.0;
        }
        let oldest = *st.pop_times.front().expect("len checked");
        let newest = *st.pop_times.back().expect("len checked");
        let span = newest.duration_since(oldest).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        (st.pop_times.len() - 1) as f64 / span
    }

    /// Closes the queue: parked connections are dropped, waiting pops
    /// wake with [`Popped::Closed`], later pushes are refused.
    pub fn close(&self) {
        let mut st = self.inner.lock().unwrap();
        st.closed = true;
        st.conns.clear();
        drop(st);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    fn conn_pair(listener: &TcpListener) -> TcpStream {
        let addr = listener.local_addr().unwrap();
        let c = TcpStream::connect(addr).unwrap();
        let _ = listener.accept().unwrap();
        c
    }

    /// [`ConnQueue::pop_timeout`] with a timeout no test waits out: `Some`
    /// is a connection and its queue wait, `None` the close.
    fn pop(q: &ConnQueue) -> Option<(TcpStream, Duration)> {
        match q.pop_timeout(Duration::from_secs(10)) {
            Popped::Conn(conn, wait) => Some((conn, wait)),
            Popped::Closed => None,
            Popped::Idle => panic!("nothing popped within 10 s"),
        }
    }

    #[test]
    fn push_pop_and_watermark() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let q = ConnQueue::new(2);
        assert!(q.try_push(conn_pair(&listener)).is_ok());
        assert!(q.try_push(conn_pair(&listener)).is_ok());
        assert_eq!(q.depth(), 2);
        // At the watermark: the third is handed back (would be shed).
        assert!(q.try_push(conn_pair(&listener)).is_err());
        assert!(pop(&q).is_some());
        assert_eq!(q.depth(), 1);
        assert!(q.try_push(conn_pair(&listener)).is_ok());
    }

    #[test]
    fn pop_reports_the_time_spent_parked() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let q = ConnQueue::new(4);
        q.try_push(conn_pair(&listener)).unwrap();
        std::thread::sleep(Duration::from_millis(15));
        let (_conn, wait) = pop(&q).unwrap();
        assert!(
            wait >= Duration::from_millis(15),
            "queue wait {wait:?} must cover the parked time"
        );
    }

    #[test]
    fn pop_timeout_distinguishes_idle_from_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let q = ConnQueue::new(4);
        // Empty queue: the timeout elapses and reports Idle.
        match q.pop_timeout(Duration::from_millis(10)) {
            Popped::Idle => {}
            _ => panic!("expected Idle on an empty open queue"),
        }
        q.try_push(conn_pair(&listener)).unwrap();
        match q.pop_timeout(Duration::from_millis(10)) {
            Popped::Conn(..) => assert_eq!(q.depth(), 0),
            _ => panic!("expected the parked connection"),
        }
        q.close();
        match q.pop_timeout(Duration::from_millis(10)) {
            Popped::Closed => {}
            _ => panic!("expected Closed after close()"),
        }
    }

    #[test]
    fn drain_rate_needs_two_recent_pops() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let q = ConnQueue::new(8);
        assert_eq!(q.drain_rate_per_sec(), 0.0);
        q.try_push(conn_pair(&listener)).unwrap();
        let _ = pop(&q);
        assert_eq!(q.drain_rate_per_sec(), 0.0, "one pop is not a rate");
        q.try_push(conn_pair(&listener)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let _ = pop(&q);
        assert!(
            q.drain_rate_per_sec() > 0.0,
            "two pops spanning an interval yield a positive rate"
        );
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(ConnQueue::new(4));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || pop(&q).is_none())
            })
            .collect();
        // Give the workers a moment to park, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let closed_at = Instant::now();
        q.close();
        for h in handles {
            assert!(h.join().unwrap(), "worker should see shutdown");
        }
        // A pop that `close` did not wake would still see `Closed`, but
        // only once its 10 s wait ran out.
        let woke_in = closed_at.elapsed();
        assert!(
            woke_in < Duration::from_secs(2),
            "close() must wake parked pops, took {woke_in:?}"
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        assert!(q.try_push(conn_pair(&listener)).is_err());
    }
}
