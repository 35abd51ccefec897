//! Replays through the serving layers: jobs once through a single
//! `PedalService` and once through plain `PedalContext` calls, and
//! messages through the adaptive policy's probe.

use crate::kernels;
use crate::report::median;
use crate::trace::{SpanId, Tracer, NONE};
use pedal::{Datatype, Design, PedalConfig, PedalContext};
use pedal_dpu::Platform;
use pedal_policy::{AdaptivePolicy, PolicyChoice, PolicyConfig, PolicySnapshot};
use pedal_service::{BackpressurePolicy, JobDesc, PedalService, ServiceConfig};
use std::time::Duration;

/// One compress job to replay.
pub struct ServiceJob<'a> {
    pub req: u64,
    pub design: Design,
    pub datatype: Datatype,
    pub data: &'a [u8],
}

/// The replay runs on BlueField-3, whose engine cannot compress: every
/// compress job lands on the single SoC lane, one after another, so the
/// service's time is the same codec work as the context calls plus the
/// service's own admission, scheduling and hand-offs.
const REPLAY_PLATFORM: Platform = Platform::BlueField3;

/// What the service replay measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub jobs: u64,
    /// Jobs whose service output differed from the context's, or failed.
    pub mismatches: u64,
    pub service: Duration,
    pub ctx: Duration,
    pub submit_us_p50: f64,
    /// Buffer-pool (hits, misses) of the replay's contexts.
    pub pool: (u64, u64),
    pub passthrough: u64,
    pub fallback: u64,
}

impl Replay {
    /// Service time per job net of the same codec work done by plain
    /// context calls.
    pub fn overhead_us_per_job(&self) -> f64 {
        if self.jobs == 0 {
            return 0.0;
        }
        (self.service.as_secs_f64() - self.ctx.as_secs_f64()) * 1e6 / self.jobs as f64
    }
}

/// Submit every job to one service and drain it; then run the same jobs
/// through plain context calls (with kernel replays as their children).
/// Span `service.replay`, a child of `parent`, covers the submits and
/// the drain; the context calls are top-level spans.
pub fn replay(t: &mut Tracer, parent: SpanId, error_bound: f64, jobs: &[ServiceJob]) -> Replay {
    let mut r = Replay { jobs: jobs.len() as u64, ..Replay::default() };
    let descs: Vec<JobDesc> =
        jobs.iter().map(|j| JobDesc::compress(j.design, j.datatype, j.data.to_vec())).collect();
    let svc = PedalService::start(
        ServiceConfig::new(REPLAY_PLATFORM)
            .with_queue_capacity(jobs.len().max(1))
            .with_policy(BackpressurePolicy::Block)
            .with_soc_workers(1)
            .with_ce_channels(1)
            .with_error_bound(error_bound),
    );
    let whole = t.open("service.replay", parent, 0, jobs.iter().map(|j| j.data.len() as u64).sum());
    let mut submit_us = Vec::with_capacity(jobs.len());
    let mut ids = Vec::with_capacity(jobs.len());
    for (j, desc) in jobs.iter().zip(descs) {
        let (id, dur, _) =
            t.call("service.submit", whole.id, j.req, j.data.len() as u64, || svc.submit(desc));
        submit_us.push(dur.as_secs_f64() * 1e6);
        ids.push(id.ok());
    }
    let (done, _, _) = t.call("service.drain", whole.id, 0, 0, || svc.drain());
    r.service = t.close(whole);
    r.submit_us_p50 = median(&submit_us);
    let _ = svc.shutdown();

    let mut ctxs: Vec<(Design, PedalContext)> = Vec::new();
    for (j, id) in jobs.iter().zip(ids) {
        let ctx = match ctxs.iter().position(|(d, _)| *d == j.design) {
            Some(i) => &ctxs[i].1,
            None => {
                let cfg = PedalConfig::new(REPLAY_PLATFORM, j.design).with_error_bound(error_bound);
                let ctx = PedalContext::init(cfg).expect("contexts initialise for every design");
                ctxs.push((j.design, ctx));
                &ctxs.last().expect("just pushed").1
            }
        };
        let n = j.data.len() as u64;
        let (out, dur, span) =
            t.call("pedal.compress", NONE, j.req, n, || ctx.compress(j.datatype, j.data));
        r.ctx += dur;
        kernels::replay_compress(t, span, j.req, j.design, error_bound, j.datatype, j.data);
        let served = id.and_then(|id| done.iter().find(|c| c.id == id));
        let same = match (&out, served.map(|c| &c.result)) {
            (Ok(o), Some(Ok(s))) => {
                r.passthrough += u64::from(o.passthrough);
                r.fallback += u64::from(o.fell_back);
                o.payload == s.bytes
            }
            _ => false,
        };
        r.mismatches += u64::from(!same);
    }
    r.pool = ctxs.iter().fold((0, 0), |(h, m), (_, c)| (h + c.pool.hits(), m + c.pool.misses()));
    r
}

/// Decision counts by codec choice.
#[derive(Debug, Default, Clone, Copy)]
pub struct Decisions {
    pub store: u64,
    pub deflate: u64,
    pub lz4: u64,
    pub pco: u64,
}

impl Decisions {
    pub fn count(&mut self, choice: PolicyChoice) {
        match choice {
            PolicyChoice::StoreRaw => self.store += 1,
            PolicyChoice::Deflate => self.deflate += 1,
            PolicyChoice::Lz4 => self.lz4 += 1,
            PolicyChoice::Pco => self.pco += 1,
        }
    }
}

/// Time the policy's probe on `data` (span `policy.probe`) and return
/// the choice the default policy makes on a calm snapshot.
pub fn probe(t: &mut Tracer, parent: SpanId, req: u64, data: &[u8]) -> PolicyChoice {
    let policy = AdaptivePolicy::new(PolicyConfig::default());
    let (f, _, _) = t.call("policy.probe", parent, req, data.len() as u64, || {
        pedal_policy::probe(data, &policy.config().probe)
    });
    policy.decide(&f, &PolicySnapshot::calm()).choice
}
