//! Bounded admission queue with backpressure and drain-aware shutdown.
//!
//! Admission control happens at [`JobQueue::submit`]: a full queue rejects
//! the job immediately (typed [`Rejected::QueueFull`]) instead of letting
//! latency grow without bound — the caller is expected to shed or retry
//! later.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use dcmesh_analyze::sync::{Condvar, Mutex};

use crate::job::{JobShared, JobSpec};

/// Why a submission was refused at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is at capacity — backpressure; try again later.
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The service is shutting down and admits nothing new.
    Shutdown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            Rejected::Shutdown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// An admitted job travelling through the queue.
pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) spec: JobSpec,
    pub(crate) shared: Arc<JobShared>,
    pub(crate) submitted_at: Instant,
    /// Absolute deadline derived from the spec at submission time.
    pub(crate) deadline_at: Option<Instant>,
}

#[derive(Debug)]
struct Inner {
    q: VecDeque<Job>,
    shutdown: bool,
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// The bounded FIFO between submitters and worker threads.
#[derive(Debug)]
pub(crate) struct JobQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    nonempty: Condvar,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                q: VecDeque::new(),
                shutdown: false,
            }),
            nonempty: Condvar::new(),
        }
    }

    /// Admit a job, or hand it back (boxed — the spec is large and
    /// the rejection path should stay cheap) with the typed rejection.
    pub(crate) fn submit(&self, job: Job) -> Result<(), (Box<Job>, Rejected)> {
        let mut g = self.inner.lock();
        if g.shutdown {
            return Err((Box::new(job), Rejected::Shutdown));
        }
        if g.q.len() >= self.capacity {
            return Err((
                Box::new(job),
                Rejected::QueueFull {
                    capacity: self.capacity,
                },
            ));
        }
        g.q.push_back(job);
        drop(g);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Block until a job is available. Returns `None` once the queue is
    /// shut down *and* empty — under a draining shutdown workers keep
    /// consuming the backlog; under an immediate shutdown the backlog was
    /// already flushed, so they stop at once.
    pub(crate) fn pop_wait(&self) -> Option<Job> {
        let mut g = self.inner.lock();
        loop {
            if let Some(job) = g.q.pop_front() {
                return Some(job);
            }
            if g.shutdown {
                return None;
            }
            g = self.nonempty.wait(g);
        }
    }

    /// Stop admitting. With `drain`, the backlog stays for workers to
    /// finish; without it, the backlog is flushed and returned so the
    /// caller can resolve those handles (as cancelled).
    pub(crate) fn shutdown(&self, drain: bool) -> Vec<Job> {
        let mut g = self.inner.lock();
        g.shutdown = true;
        let flushed = if drain {
            Vec::new()
        } else {
            g.q.drain(..).collect()
        };
        drop(g);
        self.nonempty.notify_all();
        flushed
    }

    /// Jobs currently waiting (not the ones running).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().q.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;

    fn job(id: u64) -> Job {
        Job {
            id,
            spec: JobSpec::default(),
            shared: Arc::new(JobShared::new()),
            submitted_at: Instant::now(),
            deadline_at: None,
        }
    }

    #[test]
    fn overflow_is_rejected_with_the_capacity() {
        let q = JobQueue::new(2);
        q.submit(job(0)).unwrap();
        q.submit(job(1)).unwrap();
        let (returned, why) = q.submit(job(2)).unwrap_err();
        assert_eq!(returned.id, 2, "the rejected job comes back to the caller");
        assert_eq!(why, Rejected::QueueFull { capacity: 2 });
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn shutdown_rejects_new_work_and_drain_controls_the_backlog() {
        let q = JobQueue::new(4);
        q.submit(job(0)).unwrap();
        let flushed = q.shutdown(true);
        assert!(flushed.is_empty(), "draining shutdown keeps the backlog");
        let (_, why) = q.submit(job(1)).unwrap_err();
        assert_eq!(why, Rejected::Shutdown);
        assert_eq!(q.pop_wait().unwrap().id, 0, "backlog still served");
        assert!(q.pop_wait().is_none(), "then workers are released");

        let q = JobQueue::new(4);
        q.submit(job(0)).unwrap();
        q.submit(job(1)).unwrap();
        let flushed = q.shutdown(false);
        assert_eq!(flushed.len(), 2, "immediate shutdown flushes the backlog");
        assert!(q.pop_wait().is_none());
        // The flushed jobs' handles are still resolvable by the caller.
        assert_eq!(flushed[0].shared.st.lock().status, JobStatus::Queued);
    }
}
