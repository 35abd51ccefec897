//! Simulated `doca_workq`: FIFO job submission against a single engine with
//! virtual-time queueing.
//!
//! The engine is modelled as one server: a job's start time is
//! `max(submit_time, busy_until)` and its completion is
//! `start + service_time`. This surfaces engine contention when multiple
//! submitters share one DPU (exercised by the engine-contention ablation).

use crate::engine::{execute, CompressJob, EngineError, JobResult};
use pedal_dpu::{CostModel, SimInstant};
use std::sync::Mutex;

/// Handle to a completed job with its virtual completion time.
#[derive(Debug)]
pub struct JobHandle {
    pub result: Result<JobResult, EngineError>,
    /// When the engine started serving the job.
    pub started_at: SimInstant,
    /// When the engine finished (virtual time).
    pub completed_at: SimInstant,
}

/// A work queue bound to one engine channel.
#[derive(Debug)]
pub struct Workq {
    costs: CostModel,
    busy_until: Mutex<SimInstant>,
    depth: usize,
    inflight: Mutex<usize>,
}

/// Error when the queue is full (DOCA returns `-DOCA_ERROR_NO_MEMORY`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work queue full")
    }
}

impl std::error::Error for QueueFull {}

impl Workq {
    /// DOCA's default queue depth.
    pub const DEFAULT_DEPTH: usize = 32;

    pub fn new(costs: CostModel, depth: usize) -> Self {
        Self {
            costs,
            busy_until: Mutex::new(SimInstant::EPOCH),
            depth: depth.max(1),
            inflight: Mutex::new(0),
        }
    }

    /// The queue's descriptor capacity.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The cost model this queue charges against.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Submit a job at virtual time `now` and run it to completion
    /// synchronously on the host; the returned handle carries the virtual
    /// start/completion instants including FIFO queueing delay.
    pub fn submit(&self, job: CompressJob, now: SimInstant) -> Result<JobHandle, QueueFull> {
        {
            let mut inflight = self.inflight.lock().unwrap();
            if *inflight >= self.depth {
                return Err(QueueFull);
            }
            *inflight += 1;
        }
        let result = execute(&job, &self.costs);
        let (started_at, completed_at) = {
            let mut busy = self.busy_until.lock().unwrap();
            let start = (*busy).max(now);
            let done = match &result {
                Ok(r) => start + r.service_time,
                Err(_) => start, // failed jobs release the engine immediately
            };
            *busy = done;
            (start, done)
        };
        *self.inflight.lock().unwrap() -= 1;
        Ok(JobHandle { result, started_at, completed_at })
    }

    /// Virtual time at which the engine becomes idle.
    pub fn busy_until(&self) -> SimInstant {
        *self.busy_until.lock().unwrap()
    }

    /// Reset queueing state (between benchmark repetitions).
    pub fn reset(&self) {
        *self.busy_until.lock().unwrap() = SimInstant::EPOCH;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::JobKind;
    use pedal_dpu::{Platform, SimDuration};

    fn workq() -> Workq {
        Workq::new(CostModel::for_platform(Platform::BlueField2), Workq::DEFAULT_DEPTH)
    }

    #[test]
    fn single_job_completes_at_submit_plus_service() {
        let q = workq();
        let now = SimInstant(5_000_000);
        let h = q
            .submit(CompressJob::new(JobKind::DeflateCompress, vec![9u8; 1_000_000]), now)
            .unwrap();
        let r = h.result.unwrap();
        assert_eq!(h.started_at, now);
        assert_eq!(h.completed_at, now + r.service_time);
    }

    #[test]
    fn fifo_queueing_serializes_jobs() {
        let q = workq();
        let now = SimInstant::EPOCH;
        let h1 = q
            .submit(CompressJob::new(JobKind::DeflateCompress, vec![1u8; 4_000_000]), now)
            .unwrap();
        // Second job submitted at the same instant must wait for the first.
        let h2 = q
            .submit(CompressJob::new(JobKind::DeflateCompress, vec![2u8; 4_000_000]), now)
            .unwrap();
        assert_eq!(h2.started_at, h1.completed_at);
        assert!(h2.completed_at > h1.completed_at);
    }

    #[test]
    fn idle_gap_resets_start_time() {
        let q = workq();
        let h1 = q
            .submit(
                CompressJob::new(JobKind::DeflateCompress, vec![1u8; 100_000]),
                SimInstant::EPOCH,
            )
            .unwrap();
        // Submit long after the first finished: no queueing delay.
        let later = h1.completed_at + SimDuration::from_millis(100);
        let h2 = q
            .submit(CompressJob::new(JobKind::DeflateCompress, vec![2u8; 100_000]), later)
            .unwrap();
        assert_eq!(h2.started_at, later);
    }

    #[test]
    fn failed_jobs_do_not_hold_the_engine() {
        let q = workq();
        let h = q
            .submit(CompressJob::new(JobKind::DeflateDecompress, vec![0xAB; 16]), SimInstant::EPOCH)
            .unwrap();
        assert!(h.result.is_err());
        assert_eq!(q.busy_until(), h.started_at);
    }

    #[test]
    fn reset_clears_backlog() {
        let q = workq();
        q.submit(
            CompressJob::new(JobKind::DeflateCompress, vec![1u8; 8_000_000]),
            SimInstant::EPOCH,
        )
        .unwrap();
        assert!(q.busy_until() > SimInstant::EPOCH);
        q.reset();
        assert_eq!(q.busy_until(), SimInstant::EPOCH);
    }
}
