//! Bounded admission queue with per-tenant round-robin fairness and
//! three backpressure policies. It is also the core's only wake-up
//! source: pool workers post their results here too.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

use crate::job::{Job, ServiceError};
use crate::service::WorkResult;

/// What the service does when a submission finds the queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the submitter until a slot frees (lossless admission).
    #[default]
    Block,
    /// Fail the submission with [`ServiceError::Overloaded`].
    Reject,
    /// Evict the lowest-priority queued job to admit a higher-priority
    /// one; the submission itself is shed when nothing queued is lower.
    Shed,
}

#[derive(Default)]
struct QueueState {
    /// Per-tenant FIFOs of `(admission sequence, job)`; `BTreeMap` keeps
    /// tenant order deterministic.
    tenants: BTreeMap<u32, VecDeque<(u64, Job)>>,
    len: usize,
    /// Admission sequence numbers handed out so far.
    admitted: u64,
    /// Next tenant id to serve (round-robin cursor).
    cursor: u32,
    flush_requests: usize,
    /// Jobs admitted before this sequence number dispatch even while
    /// paused: a flush releases everything admitted ahead of it.
    released: u64,
    closed: bool,
    /// Scheduling quiesced: only released jobs pop until resumed
    /// (admission still runs, so backpressure policies act on a
    /// deterministic backlog).
    paused: bool,
    /// Pool results, tagged with their dispatch tickets.
    done: VecDeque<(u64, WorkResult)>,
}

/// What a core pop observes.
pub(crate) enum Popped {
    Job(Job),
    /// A pool result for the work dispatched under this ticket.
    Done(u64, WorkResult),
    /// A drain barrier: every job admitted before it has been popped.
    Flush,
    /// Queue closed and empty, with no result awaited.
    Closed,
}

pub(crate) struct AdmissionQueue {
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    policy: BackpressurePolicy,
}

impl AdmissionQueue {
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> Self {
        Self {
            state: Mutex::new(QueueState::default()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            policy,
        }
    }

    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.state.lock().unwrap().len
    }

    /// Admit a job. `Ok(Some(victim))` means the shed policy evicted a
    /// queued job to make room — the caller must record the victim as
    /// completed-with-[`ServiceError::Shed`].
    pub fn push(&self, job: Job) -> Result<Option<Job>, ServiceError> {
        let mut st = self.state.lock().unwrap();
        let mut victim = None;
        loop {
            if st.closed {
                return Err(ServiceError::ShuttingDown);
            }
            if st.len < self.capacity {
                break;
            }
            match self.policy {
                BackpressurePolicy::Block => {
                    st = self.not_full.wait(st).unwrap();
                }
                BackpressurePolicy::Reject => {
                    return Err(ServiceError::Overloaded);
                }
                BackpressurePolicy::Shed => {
                    match take_lowest_priority(&mut st, job.desc.priority) {
                        Some(evicted) => {
                            st.len -= 1;
                            victim = Some(evicted);
                            break;
                        }
                        // The incoming job is (tied for) lowest priority.
                        None => return Err(ServiceError::Shed),
                    }
                }
            }
        }
        let seq = st.admitted;
        st.admitted += 1;
        st.tenants.entry(job.desc.tenant).or_default().push_back((seq, job));
        st.len += 1;
        drop(st);
        self.not_empty.notify_one();
        Ok(victim)
    }

    /// Pop the next pool result, else the next dispatchable job
    /// round-robin across tenants; park when there is neither. While
    /// paused only jobs released by a flush dispatch. `awaiting` keeps a
    /// closed, empty queue parked until the results still owed arrive.
    pub fn pop(&self, awaiting: bool) -> Popped {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some((ticket, result)) = st.done.pop_front() {
                return Popped::Done(ticket, result);
            }
            if let Some(job) = pop_round_robin(&mut st) {
                st.len -= 1;
                drop(st);
                self.not_full.notify_one();
                return Popped::Job(job);
            }
            if st.flush_requests > 0 {
                st.flush_requests -= 1;
                return Popped::Flush;
            }
            if st.closed && st.len == 0 && !awaiting {
                return Popped::Closed;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Post a pool result for the core.
    pub fn complete(&self, ticket: u64, result: WorkResult) {
        self.state.lock().unwrap().done.push_back((ticket, result));
        self.not_empty.notify_one();
    }

    /// Ask the core to flush pending batches once every job admitted so
    /// far has dispatched — paused or not.
    pub fn request_flush(&self) {
        let mut st = self.state.lock().unwrap();
        st.flush_requests += 1;
        st.released = st.admitted;
        drop(st);
        self.not_empty.notify_one();
    }

    /// Quiesce scheduling: jobs keep being admitted (and backpressure
    /// policies keep acting) but nothing is dispatched until resume.
    pub fn pause(&self) {
        self.state.lock().unwrap().paused = true;
    }

    pub fn resume(&self) {
        self.state.lock().unwrap().paused = false;
        self.not_empty.notify_all();
    }

    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Serve the first tenant at or after the cursor, wrapping, whose oldest
/// job may dispatch: any job when running (or closing), only released
/// ones while paused.
fn pop_round_robin(st: &mut QueueState) -> Option<Job> {
    let horizon = if st.paused && !st.closed { st.released } else { u64::MAX };
    let tenant = st
        .tenants
        .range(st.cursor..)
        .chain(st.tenants.range(..st.cursor))
        .find(|(_, q)| q.front().is_some_and(|(seq, _)| *seq < horizon))
        .map(|(t, _)| *t)?;
    let q = st.tenants.get_mut(&tenant).unwrap();
    let (_, job) = q.pop_front().unwrap();
    if q.is_empty() {
        st.tenants.remove(&tenant);
    }
    st.cursor = tenant.wrapping_add(1);
    Some(job)
}

/// Remove the queued job with the strictly lowest priority below
/// `incoming`; ties break toward the youngest (largest id) so older
/// work survives longer.
fn take_lowest_priority(st: &mut QueueState, incoming: u8) -> Option<Job> {
    let mut best: Option<(u32, usize, u8, u64)> = None;
    for (&tenant, q) in st.tenants.iter() {
        for (i, (_, job)) in q.iter().enumerate() {
            let key = (job.desc.priority, std::cmp::Reverse(job.id));
            if job.desc.priority < incoming
                && best.is_none_or(|(_, _, p, id)| key < (p, std::cmp::Reverse(id)))
            {
                best = Some((tenant, i, job.desc.priority, job.id));
            }
        }
    }
    let (tenant, idx, _, _) = best?;
    let q = st.tenants.get_mut(&tenant).unwrap();
    let (_, job) = q.remove(idx).unwrap();
    if q.is_empty() {
        st.tenants.remove(&tenant);
    }
    Some(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobDesc, JobOp};
    use pedal::{Datatype, Design};

    fn job(id: u64, tenant: u32, priority: u8) -> Job {
        let desc = JobDesc {
            tenant,
            priority,
            design: Design::SOC_DEFLATE,
            datatype: Datatype::Byte,
            arrival: pedal_dpu::SimInstant::EPOCH,
            op: JobOp::Compress { data: vec![0; 8] },
        };
        Job { id, desc, store: false }
    }

    fn pop_id(q: &AdmissionQueue) -> u64 {
        match q.pop(false) {
            Popped::Job(j) => j.id,
            _ => panic!("expected a job"),
        }
    }

    #[test]
    fn reject_policy_returns_overloaded_and_never_exceeds_capacity() {
        let q = AdmissionQueue::new(3, BackpressurePolicy::Reject);
        for id in 0..3 {
            assert!(q.push(job(id, 0, 0)).is_ok());
        }
        assert_eq!(q.len(), q.capacity());
        assert!(matches!(q.push(job(3, 0, 0)), Err(ServiceError::Overloaded)));
        assert_eq!(q.len(), 3, "a rejected push must not grow the queue");
        // Freeing one slot re-admits.
        assert!(matches!(q.pop(false), Popped::Job(_)));
        assert!(q.push(job(4, 0, 0)).is_ok());
        assert_eq!(q.len(), q.capacity());
    }

    #[test]
    fn shed_policy_evicts_the_lowest_priority_youngest_job() {
        let q = AdmissionQueue::new(3, BackpressurePolicy::Shed);
        q.push(job(0, 0, 5)).unwrap();
        q.push(job(1, 0, 1)).unwrap();
        q.push(job(2, 1, 1)).unwrap();
        // Queue full; priority 3 evicts the youngest of the priority-1
        // pair (id 2), not the older one.
        let victim = q.push(job(3, 0, 3)).unwrap().expect("a job must be shed");
        assert_eq!(victim.id, 2);
        assert_eq!(q.len(), 3);
        // A submission at (or below) the current minimum is itself shed.
        assert!(matches!(q.push(job(4, 0, 1)), Err(ServiceError::Shed)));
        assert!(matches!(q.push(job(5, 0, 0)), Err(ServiceError::Shed)));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn block_policy_waits_for_a_slot() {
        let q = std::sync::Arc::new(AdmissionQueue::new(1, BackpressurePolicy::Block));
        q.push(job(0, 0, 0)).unwrap();
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                pop_id(&q)
            })
        };
        // Blocks until the consumer pops, then succeeds.
        q.push(job(1, 0, 0)).unwrap();
        assert_eq!(consumer.join().unwrap(), 0);
        assert_eq!(pop_id(&q), 1);
    }

    #[test]
    fn pop_serves_tenants_round_robin() {
        let q = AdmissionQueue::new(16, BackpressurePolicy::Reject);
        // Tenant 0 floods; tenants 1 and 2 each submit one job.
        for id in 0..4 {
            q.push(job(id, 0, 0)).unwrap();
        }
        q.push(job(4, 1, 0)).unwrap();
        q.push(job(5, 2, 0)).unwrap();
        let order: Vec<u64> = (0..6).map(|_| pop_id(&q)).collect();
        // Each tenant gets a turn per cycle instead of FIFO order.
        assert_eq!(order, vec![0, 4, 5, 1, 2, 3]);
    }

    #[test]
    fn flush_is_delivered_only_after_queued_jobs() {
        let q = AdmissionQueue::new(4, BackpressurePolicy::Reject);
        q.push(job(0, 0, 0)).unwrap();
        q.request_flush();
        assert_eq!(pop_id(&q), 0);
        assert!(matches!(q.pop(false), Popped::Flush));
        q.close();
        assert!(matches!(q.pop(false), Popped::Closed));
        assert!(matches!(q.push(job(1, 0, 0)), Err(ServiceError::ShuttingDown)));
    }

    #[test]
    fn flush_releases_jobs_admitted_before_it_while_paused() {
        let q = AdmissionQueue::new(8, BackpressurePolicy::Reject);
        q.pause();
        q.push(job(0, 0, 0)).unwrap();
        q.push(job(1, 1, 0)).unwrap();
        q.request_flush();
        q.push(job(2, 2, 0)).unwrap();
        // Both admitted jobs dispatch despite the pause, then the flush;
        // the later submission stays parked.
        assert_eq!(pop_id(&q), 0);
        assert_eq!(pop_id(&q), 1);
        assert!(matches!(q.pop(false), Popped::Flush));
        assert_eq!(q.len(), 1);
        q.resume();
        assert_eq!(pop_id(&q), 2);
    }

    #[test]
    fn results_wake_the_core_and_closing_waits_for_them() {
        let q = std::sync::Arc::new(AdmissionQueue::new(4, BackpressurePolicy::Reject));
        q.pause();
        q.close();
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                q.complete(7, Ok((vec![1], Default::default())));
            })
        };
        // Closed and empty, but a result is owed: park until it lands.
        assert!(matches!(q.pop(true), Popped::Done(7, Ok(_))));
        assert!(matches!(q.pop(false), Popped::Closed));
        worker.join().unwrap();
    }
}
