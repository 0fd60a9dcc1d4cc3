//! A bounded MPMC queue built on `Mutex` + `Condvar`.
//!
//! Both daemon queues use it: the connection queue feeding the worker
//! pool (multi-consumer) and the ingress queue feeding the single decide
//! thread. Bounding is the backpressure mechanism — [`BoundedQueue::try_push`]
//! fails immediately when the queue is full so the caller can send a
//! typed overload rejection instead of stalling the socket.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Result of a [`BoundedQueue::pop_timeout`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum PopTimeout<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue stayed empty for the whole wait.
    TimedOut,
    /// The queue is closed and drained; no item will ever arrive.
    Closed,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking. Returns the item back on a full or
    /// closed queue so the caller can reject it explicitly.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().unwrap();
        if s.closed || s.items.len() >= self.capacity {
            return Err(item);
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues, blocking while the queue is full. Returns the item back
    /// only if the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().unwrap();
        loop {
            if s.closed {
                return Err(item);
            }
            if s.items.len() < self.capacity {
                s.items.push_back(item);
                drop(s);
                self.not_empty.notify_one();
                return Ok(());
            }
            s = self.not_full.wait(s).unwrap();
        }
    }

    /// Dequeues, blocking until an item arrives or the queue closes.
    /// `None` means closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).unwrap();
        }
    }

    /// Dequeues without blocking; `None` when currently empty (closed or
    /// not).
    pub fn try_pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap();
        let item = s.items.pop_front();
        drop(s);
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Dequeues, waiting at most `timeout` for an item.
    pub fn pop_timeout(&self, timeout: Duration) -> PopTimeout<T> {
        // The clock is read only once the queue turns out empty, so a
        // busy consumer pays nothing over `pop`.
        let mut deadline = None;
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return PopTimeout::Item(item);
            }
            if s.closed {
                return PopTimeout::Closed;
            }
            let now = std::time::Instant::now();
            let deadline = *deadline.get_or_insert(now + timeout);
            if now >= deadline {
                return PopTimeout::TimedOut;
            }
            let (guard, result) = self.not_empty.wait_timeout(s, deadline - now).unwrap();
            s = guard;
            if result.timed_out() && s.items.is_empty() {
                return if s.closed {
                    PopTimeout::Closed
                } else {
                    PopTimeout::TimedOut
                };
            }
        }
    }

    /// Closes the queue: producers start failing, consumers drain what is
    /// left and then observe the close.
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap();
        s.closed = true;
        drop(s);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert!(q.is_empty());
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn close_wakes_consumers_and_rejects_producers() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop());
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.try_push(7), Err(7));
        assert_eq!(q.push(8), Err(8));
    }

    #[test]
    fn close_lets_consumers_drain() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopTimeout::Closed);
    }

    #[test]
    fn pop_timeout_times_out_then_delivers() {
        let q = BoundedQueue::new(4);
        assert_eq!(
            q.pop_timeout(Duration::from_millis(5)),
            PopTimeout::TimedOut
        );
        q.try_push(9).unwrap();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), PopTimeout::Item(9));
    }

    #[test]
    fn blocked_push_resumes_after_pop() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(2));
        thread::sleep(Duration::from_millis(5));
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap().is_ok());
        assert_eq!(q.pop(), Some(2));
    }
}
