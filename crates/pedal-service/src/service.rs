//! The offload engine: admission, a single deterministic core that
//! routes jobs and charges all virtual time, a codec worker pool, and
//! graceful shutdown.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use pedal::{wire, Datatype, Design, PedalHeader, Stage};
use pedal_dpu::{
    Algorithm, CostModel, Direction, Placement, Platform, SimClock, SimDuration, SimInstant,
};
use pedal_policy::{AdaptivePolicy, PolicyConfig, PolicyLog, PolicyRecord, PolicySnapshot};

use pedal_obs::{
    BusSubscription, FrameKind, HighWatermark, HistSummary, LaneRecorder, LogHistogram,
    MetricsFrame, MetricsRegistry, ObsBus, SloTable, SpanKind, TenantId, TraceLog, Track,
    WindowConfig, WindowedCounter, WindowedHistogram,
};

use crate::job::{
    CompletedJob, Job, JobDesc, JobId, JobMetrics, JobOp, JobOutput, LaneId, ServiceError,
};
use crate::queue::{AdmissionQueue, BackpressurePolicy, Popped};
use crate::stats::{LaneStats, RollingStats, ServiceSnapshot, ServiceStats};

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Tuning knobs for a [`PedalService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub platform: Platform,
    /// Admission queue bound (jobs waiting for the scheduler).
    pub queue_capacity: usize,
    pub policy: BackpressurePolicy,
    /// SoC worker lanes serving SoC-placed designs.
    pub soc_workers: usize,
    /// Independent C-Engine channels (DOCA work queues). The codec pool
    /// runs one host thread per lane, `soc_workers + ce_channels`.
    pub ce_channels: usize,
    /// Engine descriptors per channel.
    pub channel_depth: usize,
    /// Compress jobs smaller than this many bytes coalesce into one
    /// engine submission; 0 disables batching.
    pub batch_threshold: usize,
    /// Maximum jobs per coalesced submission.
    pub batch_max_jobs: usize,
    /// Virtual-time window a pending batch stays open after its first
    /// member arrives.
    pub batch_window: SimDuration,
    /// Error bound applied to SZ3 (lossy) jobs.
    pub error_bound: f64,
    /// CE-placed DEFLATE compress jobs at least this many bytes fan out
    /// across channels as independent stream fragments; 0 disables
    /// chunk-parallel dispatch.
    pub par_threshold: usize,
    /// Fragment size for fanned-out jobs (bytes).
    pub par_chunk: usize,
    /// Event-journal tracing (the always-on metrics registry is
    /// independent of this and has no off switch).
    pub trace: TraceConfig,
    /// Rolling-window live metrics, per-tenant SLO accounting, and the
    /// metrics bus. On by default; like tracing, purely observational.
    pub live: LiveConfig,
    /// Per-message adaptive policy (probe + live feedback). `None`
    /// keeps the caller's design verbatim; see
    /// [`ServiceConfig::with_adaptive_policy`].
    pub adaptive: Option<PolicyConfig>,
}

/// Controls the per-lane event journal. Tracing is pure observation:
/// with it on or off, every output byte and every virtual timestamp is
/// identical — the only difference is whether the core records span
/// events into the lanes' rings.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    pub enabled: bool,
    /// Per-lane ring capacity in events; when a ring fills, new events
    /// are dropped and counted ([`TraceLog::dropped`]).
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { enabled: false, ring_capacity: pedal_obs::DEFAULT_RING_CAPACITY }
    }
}

/// Controls the live metrics plane: rolling windows over recent
/// completions, per-tenant SLO accounting, and the bounded
/// [`MetricsFrame`] bus. Like tracing it is pure observation — enabled
/// or disabled, every output byte and every virtual timestamp is
/// identical.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    pub enabled: bool,
    /// Width of one rolling-window slot (virtual time).
    pub slot: SimDuration,
    /// Number of slots; the window spans `slot * slots`.
    pub slots: usize,
    /// Default per-tenant latency SLO target (override per tenant with
    /// [`PedalService::set_slo_target`]).
    pub slo_target: SimDuration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            slot: SimDuration::from_millis(10),
            slots: 8,
            slo_target: SimDuration::from_millis(5),
        }
    }
}

impl ServiceConfig {
    pub fn new(platform: Platform) -> Self {
        Self {
            platform,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            soc_workers: 2,
            ce_channels: 1,
            channel_depth: DEFAULT_CHANNEL_DEPTH,
            batch_threshold: 0,
            batch_max_jobs: 8,
            batch_window: SimDuration::from_micros(200),
            error_bound: 1e-4,
            par_threshold: 0,
            par_chunk: DEFAULT_PAR_CHUNK,
            trace: TraceConfig::default(),
            live: LiveConfig::default(),
            adaptive: None,
        }
    }

    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    pub fn with_policy(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_soc_workers(mut self, workers: usize) -> Self {
        self.soc_workers = workers;
        self
    }

    pub fn with_ce_channels(mut self, channels: usize) -> Self {
        self.ce_channels = channels;
        self
    }

    pub fn with_channel_depth(mut self, depth: usize) -> Self {
        self.channel_depth = depth;
        self
    }

    pub fn with_batching(mut self, threshold: usize, max_jobs: usize, window: SimDuration) -> Self {
        self.batch_threshold = threshold;
        self.batch_max_jobs = max_jobs;
        self.batch_window = window;
        self
    }

    pub fn with_error_bound(mut self, error_bound: f64) -> Self {
        self.error_bound = error_bound;
        self
    }

    /// Fan CE-placed DEFLATE compress jobs of at least `threshold` bytes
    /// out across channels in `chunk`-byte stream fragments. The
    /// stitched output is a pure function of the data and the chunk
    /// size, so it is byte-identical at every channel count.
    pub fn with_parallel(mut self, threshold: usize, chunk: usize) -> Self {
        self.par_threshold = threshold;
        self.par_chunk = chunk;
        self
    }

    /// Enable the per-lane event journal with the default ring size.
    pub fn with_tracing(mut self) -> Self {
        self.trace.enabled = true;
        self
    }

    /// Enable tracing with an explicit per-lane ring capacity (events).
    pub fn with_tracing_capacity(mut self, ring_capacity: usize) -> Self {
        self.trace = TraceConfig { enabled: true, ring_capacity };
        self
    }

    /// Size the rolling metrics window: `slots` slots of `slot` virtual
    /// time each (the window spans their product).
    pub fn with_live_window(mut self, slot: SimDuration, slots: usize) -> Self {
        self.live.enabled = true;
        self.live.slot = slot;
        self.live.slots = slots;
        self
    }

    /// Default per-tenant end-to-end latency SLO target.
    pub fn with_slo_target(mut self, target: SimDuration) -> Self {
        self.live.slo_target = target;
        self
    }

    /// Choose codec, placement, datatype, and streaming chunk per
    /// message with the [`pedal_policy`] closed loop instead of taking
    /// the submitted design verbatim. The hook runs in the scheduler
    /// ahead of lane placement and applies only to lossless byte-stream
    /// compress jobs (`Deflate`/`Lz4`/`Zlib` + [`Datatype::Byte`]);
    /// decompress jobs and explicitly typed or lossy submissions keep
    /// the caller's design. Every decision is appended to the
    /// [`PolicyLog`] readable via [`PedalService::policy_log`].
    pub fn with_adaptive_policy(mut self, policy: PolicyConfig) -> Self {
        self.adaptive = Some(policy);
        self
    }

    /// Disable the live metrics plane entirely (rolling windows, SLO
    /// table, and metrics bus). Lifetime counters stay on.
    pub fn without_live_metrics(mut self) -> Self {
        self.live.enabled = false;
        self
    }

    fn normalized(mut self) -> Self {
        self.queue_capacity = self.queue_capacity.max(1);
        self.soc_workers = self.soc_workers.max(1);
        self.ce_channels = self.ce_channels.max(1);
        self.channel_depth = self.channel_depth.max(1);
        // A batch must fit a channel's descriptor ring.
        self.batch_max_jobs = self.batch_max_jobs.clamp(1, self.channel_depth);
        if self.par_threshold > 0 {
            // Tiny fragments hurt ratio (history resets per chunk) and
            // flood descriptors; floor is pedal-par's MIN_CHUNK.
            self.par_chunk = self.par_chunk.max(MIN_PAR_CHUNK);
        }
        // Degenerate windows (zero-width slots, single slot) would make
        // "recent" meaningless; WindowConfig::new applies the same floor.
        self.live.slot = self.live.slot.max(SimDuration(1));
        self.live.slots = self.live.slots.max(2);
        self
    }
}

/// DOCA's default work-queue depth (descriptors per channel).
const DEFAULT_CHANNEL_DEPTH: usize = 32;

/// Default and smallest fragment sizes for fanned-out jobs: pedal-par's
/// shard sizes, since pedal-par compresses the fragments.
pub use pedal_par::{DEFAULT_CHUNK as DEFAULT_PAR_CHUNK, MIN_CHUNK as MIN_PAR_CHUNK};

// ---------------------------------------------------------------------
// Adaptive policy state
// ---------------------------------------------------------------------

/// Shared state of the per-message adaptive policy: the stateless
/// decision engine, the externally fed feedback snapshot, and the
/// decision log (a determinism witness — see `pedal_policy::log`).
struct PolicyShared {
    engine: AdaptivePolicy,
    /// Latest live-feedback snapshot supplied by the integrator via
    /// [`PedalService::set_policy_snapshot`]. The scheduler merges its
    /// own predicted engine backlog on top before deciding.
    snapshot: Mutex<PolicySnapshot>,
    log: Mutex<PolicyLog>,
}

// ---------------------------------------------------------------------
// Shared completion state
// ---------------------------------------------------------------------

struct Shared {
    completed: Mutex<Vec<CompletedJob>>,
    /// Jobs admitted but not yet recorded (queued, batched, or in the pool).
    outstanding: Mutex<u64>,
    all_done: Condvar,
    rejected: AtomicU64,
    shed_at_submit: AtomicU64,
    /// Lamport clock merged with every completion instant.
    clock: SimClock,
    /// Always-on named series backing [`PedalService::snapshot`].
    metrics: MetricsRegistry,
    /// Rolling windows, SLO table, and metrics bus; `None` when the
    /// live plane is disabled.
    live: Option<LivePlane>,
}

/// The live metrics plane: everything [`PedalService::snapshot`] can
/// report about *recent* behaviour, as opposed to the lifetime series
/// in the registry. Only the core records completions, in ticket order,
/// so window contents are a pure function of each job's virtual
/// completion instant.
struct LivePlane {
    window: WindowConfig,
    queue: Arc<AdmissionQueue>,
    queue_wait: WindowedHistogram,
    service: WindowedHistogram,
    latency: WindowedHistogram,
    completed_recent: WindowedCounter,
    bytes_in_recent: WindowedCounter,
    queue_high: HighWatermark,
    in_flight_high: HighWatermark,
    slos: SloTable,
    bus: ObsBus,
}

impl LivePlane {
    fn new(cfg: &LiveConfig, queue: Arc<AdmissionQueue>) -> Self {
        let w = WindowConfig::new(cfg.slot, cfg.slots);
        Self {
            window: w,
            queue,
            queue_wait: WindowedHistogram::new(w),
            service: WindowedHistogram::new(w),
            latency: WindowedHistogram::new(w),
            completed_recent: WindowedCounter::new(w),
            bytes_in_recent: WindowedCounter::new(w),
            queue_high: HighWatermark::new(),
            in_flight_high: HighWatermark::new(),
            slos: SloTable::new(cfg.slo_target, w),
            bus: ObsBus::new(),
        }
    }

    /// Fold one finished job into the rolling windows and SLO table and
    /// publish a frame on the bus. `now` stamps outcomes that carry no
    /// metrics of their own (sheds, admission-time failures).
    fn on_complete(&self, job: &CompletedJob, now: SimInstant) {
        match &job.result {
            Ok(out) => {
                let Some(m) = &job.metrics else { return };
                let latency = m.completed.elapsed_since(m.arrival);
                self.queue_wait.record_at(m.completed, m.queue_wait.as_nanos());
                self.service.record_at(m.completed, m.service.as_nanos());
                self.latency.record_at(m.completed, latency.as_nanos());
                self.completed_recent.add_at(m.completed, 1);
                self.bytes_in_recent.add_at(m.completed, m.bytes_in as u64);
                self.slos.record_completed(job.tenant, m.completed, latency);
                self.bus.publish(MetricsFrame {
                    seq: 0,
                    at: m.completed,
                    tenant: job.tenant,
                    kind: FrameKind::Completed,
                    latency_ns: latency.as_nanos(),
                    service_ns: m.service.as_nanos(),
                    bytes_in: m.bytes_in as u64,
                    bytes_out: out.bytes.len() as u64,
                    queue_depth: self.queue.len() as u64,
                });
            }
            Err(ServiceError::Shed) => {
                self.slos.record_shed(job.tenant);
                let at = job.metrics.as_ref().map(|m| m.completed).unwrap_or(now);
                self.publish_event(FrameKind::Shed, job.tenant, at);
            }
            Err(_) => {
                self.slos.record_failed(job.tenant);
                let at = job.metrics.as_ref().map(|m| m.completed).unwrap_or(now);
                self.publish_event(FrameKind::Failed, job.tenant, at);
            }
        }
    }

    fn on_rejected(&self, tenant: TenantId, now: SimInstant) {
        self.slos.record_rejected(tenant);
        self.publish_event(FrameKind::Rejected, tenant, now);
    }

    fn on_shed_submit(&self, tenant: TenantId, now: SimInstant) {
        self.slos.record_shed(tenant);
        self.publish_event(FrameKind::Shed, tenant, now);
    }

    fn publish_event(&self, kind: FrameKind, tenant: TenantId, at: SimInstant) {
        self.bus.publish(MetricsFrame {
            seq: 0,
            at,
            tenant,
            kind,
            latency_ns: 0,
            service_ns: 0,
            bytes_in: 0,
            bytes_out: 0,
            queue_depth: self.queue.len() as u64,
        });
    }

    fn rolling_at(&self, now: SimInstant) -> RollingStats {
        // Rates are derived from the windowed integer counters rather
        // than an EWMA: a windowed sum is a pure function of each job's
        // virtual completion instant, so replays serialize byte-identical
        // no matter how the pool's threads interleave in wall time.
        let span_ns = self.window.span().as_nanos().max(1) as f64;
        let completed = self.completed_recent.sum_at(now);
        let bytes_in = self.bytes_in_recent.sum_at(now);
        RollingStats {
            window: self.window.span(),
            queue_wait: self.queue_wait.summary_at(now),
            service: self.service.summary_at(now),
            latency: self.latency.summary_at(now),
            completed_recent: completed,
            bytes_in_recent: bytes_in,
            completed_per_sec: completed as f64 * 1e9 / span_ns,
            mbps_in: bytes_in as f64 * 1e9 / span_ns / 1e6,
            queue_depth_high: self.queue_high.get(),
            in_flight_high: self.in_flight_high.get(),
        }
    }
}

/// Pre-resolved registry handles held by the core so the hot path
/// records without touching the registry's name map.
struct LaneMetrics {
    queue_wait: Arc<LogHistogram>,
    service: Arc<LogHistogram>,
    latency: Arc<LogHistogram>,
    completed: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    bytes_in: Arc<AtomicU64>,
    bytes_out: Arc<AtomicU64>,
}

impl LaneMetrics {
    fn resolve(reg: &MetricsRegistry) -> Self {
        Self {
            queue_wait: reg.histogram(series::QUEUE_WAIT),
            service: reg.histogram(series::SERVICE),
            latency: reg.histogram(series::LATENCY),
            completed: reg.counter(series::COMPLETED),
            failed: reg.counter(series::FAILED),
            bytes_in: reg.counter(series::BYTES_IN),
            bytes_out: reg.counter(series::BYTES_OUT),
        }
    }
}

/// Stable series names in the service's metrics registry.
pub mod series {
    pub const QUEUE_WAIT: &str = "service.queue_wait_ns";
    pub const SERVICE: &str = "service.service_ns";
    pub const LATENCY: &str = "service.latency_ns";
    pub const COMPLETED: &str = "service.jobs_completed";
    pub const FAILED: &str = "service.jobs_failed";
    pub const BYTES_IN: &str = "service.bytes_in";
    pub const BYTES_OUT: &str = "service.bytes_out";
}

impl Shared {
    /// Admit one job into the outstanding count; returns the new count
    /// so callers can feed the in-flight high-watermark.
    fn start_one(&self) -> u64 {
        let mut n = self.outstanding.lock().unwrap();
        *n += 1;
        *n
    }

    fn finish_one(&self) {
        let mut n = self.outstanding.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.all_done.notify_all();
        }
    }

    fn record(&self, job: CompletedJob) {
        if let Some(m) = &job.metrics {
            self.clock.merge(m.completed);
        }
        let mut done = self.completed.lock().unwrap();
        // Fold into the live plane while holding the completion lock, so
        // a shed recorded by a submitter serializes with the core's
        // completions.
        if let Some(live) = &self.live {
            live.on_complete(&job, self.clock.now());
        }
        done.push(job);
        drop(done);
        self.finish_one();
    }
}

// ---------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------

/// Asynchronous compression offload engine: jobs enter a bounded
/// admission queue, and one core thread routes them by design placement
/// to virtual SoC worker or C-Engine channel lanes, hands their byte work
/// to a codec pool, and charges every lane's virtual time itself.
/// Completions carry virtual queue-wait/service telemetry.
pub struct PedalService {
    cfg: ServiceConfig,
    queue: Arc<AdmissionQueue>,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    /// The core returns the lane statistics and, when tracing, every
    /// lane's event track.
    core: Option<JoinHandle<(Vec<LaneStats>, Vec<Track>)>>,
    workers: Vec<JoinHandle<()>>,
    /// Adaptive-policy state; `None` unless configured.
    policy: Option<Arc<PolicyShared>>,
}

impl PedalService {
    /// Spawn the core and the codec pool.
    pub fn start(cfg: ServiceConfig) -> Self {
        Self::start_with(cfg, execute)
    }

    /// [`PedalService::start`] with the pool's executor supplied, so tests
    /// can inject a failing codec.
    pub(crate) fn start_with(cfg: ServiceConfig, exec: fn(&Work) -> WorkResult) -> Self {
        let cfg = cfg.normalized();
        let queue = Arc::new(AdmissionQueue::new(cfg.queue_capacity, cfg.policy));
        let live = cfg.live.enabled.then(|| LivePlane::new(&cfg.live, queue.clone()));
        let shared = Arc::new(Shared {
            completed: Mutex::new(Vec::new()),
            outstanding: Mutex::new(0),
            all_done: Condvar::new(),
            rejected: AtomicU64::new(0),
            shed_at_submit: AtomicU64::new(0),
            clock: SimClock::new(),
            metrics: MetricsRegistry::new(),
            live,
        });

        // One pool thread per lane; the lanes themselves exist only in
        // virtual time, inside the core.
        let (work, work_rx) = mpsc::channel();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let workers = (0..cfg.soc_workers + cfg.ce_channels)
            .map(|i| spawn_worker(i, work_rx.clone(), queue.clone(), exec))
            .collect();

        let policy = cfg.adaptive.map(|p| {
            Arc::new(PolicyShared {
                engine: AdaptivePolicy::new(p),
                snapshot: Mutex::new(PolicySnapshot::calm()),
                log: Mutex::new(PolicyLog::default()),
            })
        });
        let recorder = |track: String| {
            if cfg.trace.enabled {
                LaneRecorder::new(track, cfg.trace.ring_capacity)
            } else {
                LaneRecorder::disabled()
            }
        };
        let lane = |id: LaneId, track: String| Lane {
            free: SimInstant::EPOCH,
            stats: LaneStats::new(id),
            rec: recorder(track),
        };
        let lanes = (0..cfg.soc_workers)
            .map(|w| lane(LaneId::Soc(w), format!("soc-{w}")))
            .chain((0..cfg.ce_channels).map(|c| lane(LaneId::Channel(c), format!("ce-{c}"))))
            .collect();
        let core = Core {
            platform: cfg.platform,
            costs: CostModel::for_platform(cfg.platform),
            soc_free: vec![SimInstant::EPOCH; cfg.soc_workers],
            ce_free: vec![SimInstant::EPOCH; cfg.ce_channels],
            ce_busy: vec![VecDeque::new(); cfg.ce_channels],
            channel_depth: cfg.channel_depth,
            batch_threshold: cfg.batch_threshold,
            batch_max_jobs: cfg.batch_max_jobs,
            batch_window: cfg.batch_window,
            par_threshold: cfg.par_threshold,
            par_chunk: cfg.par_chunk,
            pending: None,
            policy: policy.clone(),
            rec: recorder("policy".to_string()),
            error_bound: cfg.error_bound,
            work,
            next_ticket: 0,
            inflight: VecDeque::new(),
            lanes,
            shared: shared.clone(),
            metrics: LaneMetrics::resolve(&shared.metrics),
            tracing: cfg.trace.enabled,
        };
        let core = {
            let queue = queue.clone();
            std::thread::Builder::new()
                .name("pedal-core".into())
                .spawn(move || core.run(&queue))
                .expect("spawn core")
        };

        Self { cfg, queue, shared, next_id: AtomicU64::new(0), core: Some(core), workers, policy }
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Latest virtual completion instant observed service-wide.
    pub fn now(&self) -> SimInstant {
        self.shared.clock.now()
    }

    /// Jobs currently waiting for the scheduler.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Live view of the running service: queue depth, in-flight jobs,
    /// and rolling latency percentiles — readable at any moment, without
    /// draining or shutting down. Backed by the always-on atomic metrics
    /// registry, so taking a snapshot never blocks the core.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let reg = &self.shared.metrics;
        let outstanding = *self.shared.outstanding.lock().unwrap();
        let queue_depth = self.queue.len();
        let now = self.shared.clock.now();
        let (rolling, tenants) = match &self.shared.live {
            Some(live) => (Some(live.rolling_at(now)), live.slos.snapshot_at(now)),
            None => (None, Vec::new()),
        };
        ServiceSnapshot {
            queue_depth,
            in_flight: outstanding,
            completed: reg.counter_value(series::COMPLETED),
            failed: reg.counter_value(series::FAILED),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            shed: self.shared.shed_at_submit.load(Ordering::Relaxed),
            bytes_in: reg.counter_value(series::BYTES_IN),
            bytes_out: reg.counter_value(series::BYTES_OUT),
            queue_wait: HistSummary::of(&reg.histogram(series::QUEUE_WAIT)),
            service: HistSummary::of(&reg.histogram(series::SERVICE)),
            latency: HistSummary::of(&reg.histogram(series::LATENCY)),
            rolling,
            tenants,
        }
    }

    /// Subscribe to per-completion [`MetricsFrame`]s. The channel is
    /// bounded: a slow reader loses frames (counted on the
    /// subscription), never blocks the core. `None` when the live plane
    /// is disabled.
    pub fn subscribe_metrics(&self, capacity: usize) -> Option<BusSubscription> {
        self.shared.live.as_ref().map(|l| l.bus.subscribe(capacity))
    }

    /// Override one tenant's end-to-end latency SLO target (the default
    /// comes from [`LiveConfig::slo_target`]). No-op when the live
    /// plane is disabled.
    pub fn set_slo_target(&self, tenant: TenantId, target: SimDuration) {
        if let Some(l) = &self.shared.live {
            l.slos.set_target(tenant, target);
        }
    }

    /// Feed the adaptive policy a fresh live-feedback snapshot (rolling
    /// p99, external queue pressure, engine availability). Determinism
    /// is the caller's contract: build snapshots from virtual-time
    /// sources at deterministic points (the fleet does it at epoch
    /// barriers). No-op unless the service was started with
    /// [`ServiceConfig::with_adaptive_policy`].
    pub fn set_policy_snapshot(&self, snap: PolicySnapshot) {
        if let Some(p) = &self.policy {
            *p.snapshot.lock().unwrap() = snap;
        }
    }

    /// Copy of the adaptive policy's decision log so far, one record per
    /// routed compress message. `None` when the policy is disabled.
    pub fn policy_log(&self) -> Option<PolicyLog> {
        self.policy.as_ref().map(|p| p.log.lock().unwrap().clone())
    }

    /// Prometheus text exposition of the current snapshot.
    pub fn prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// Point-in-time copy of every metrics series (for JSONL export).
    pub fn metrics_snapshot(&self) -> pedal_obs::MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Quiesce scheduling: jobs are still admitted (and the backpressure
    /// policy still acts on the growing backlog) but none dispatch until
    /// [`PedalService::resume`] — or until [`PedalService::drain`], which
    /// dispatches everything admitted before it. Lets callers build a
    /// deterministic overload.
    pub fn pause(&self) {
        self.queue.pause();
    }

    pub fn resume(&self) {
        self.queue.resume();
    }

    /// Admit a job. Behaviour when the queue is full depends on the
    /// configured [`BackpressurePolicy`].
    pub fn submit(&self, desc: JobDesc) -> Result<JobId, ServiceError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant = desc.tenant;
        let in_flight = self.shared.start_one();
        if let Some(live) = &self.shared.live {
            live.in_flight_high.observe(in_flight);
        }
        match self.queue.push(Job { id, desc, store: false }) {
            Ok(None) => {
                if let Some(live) = &self.shared.live {
                    live.queue_high.observe(self.queue.len() as u64);
                }
                Ok(id)
            }
            Ok(Some(victim)) => {
                if let Some(live) = &self.shared.live {
                    live.queue_high.observe(self.queue.len() as u64);
                }
                // The shed policy evicted a queued job to admit this one.
                self.shared.record(CompletedJob {
                    id: victim.id,
                    tenant: victim.desc.tenant,
                    design: victim.desc.design,
                    direction: victim.desc.op.direction(),
                    result: Err(ServiceError::Shed),
                    metrics: None,
                });
                Ok(id)
            }
            Err(e) => {
                let now = self.shared.clock.now();
                match e {
                    ServiceError::Overloaded => {
                        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                        if let Some(live) = &self.shared.live {
                            live.on_rejected(tenant, now);
                        }
                    }
                    ServiceError::Shed => {
                        self.shared.shed_at_submit.fetch_add(1, Ordering::Relaxed);
                        if let Some(live) = &self.shared.live {
                            live.on_shed_submit(tenant, now);
                        }
                    }
                    _ => {}
                }
                self.shared.finish_one();
                Err(e)
            }
        }
    }

    /// Wait for every admitted job (including pending batches) to finish
    /// and return a snapshot of all completions so far, ordered by job
    /// id. Works on a paused service too: the jobs admitted so far
    /// dispatch, later ones stay parked. Completions stay recorded for
    /// [`PedalService::shutdown`]'s statistics.
    pub fn drain(&self) -> Vec<CompletedJob> {
        self.queue.request_flush();
        let mut n = self.shared.outstanding.lock().unwrap();
        while *n > 0 {
            n = self.shared.all_done.wait(n).unwrap();
        }
        drop(n);
        let mut jobs = self.shared.completed.lock().unwrap().clone();
        jobs.sort_by_key(|j| j.id);
        jobs
    }

    /// Stop admitting, flush pending batches, run every admitted job to
    /// completion, join all threads, and summarize.
    pub fn shutdown(self) -> (Vec<CompletedJob>, ServiceStats) {
        let (jobs, stats, _) = self.shutdown_with_trace();
        (jobs, stats)
    }

    /// [`PedalService::shutdown`] plus the collected event journal. The
    /// trace is empty unless the service was started with
    /// [`ServiceConfig::with_tracing`].
    pub fn shutdown_with_trace(mut self) -> (Vec<CompletedJob>, ServiceStats, TraceLog) {
        let (lane_stats, tracks) = self.join();
        let mut jobs = std::mem::take(&mut *self.shared.completed.lock().unwrap());
        jobs.sort_by_key(|j| j.id);
        let mut stats =
            ServiceStats::build(&jobs, self.shared.rejected.load(Ordering::Relaxed), lane_stats);
        stats.shed += self.shared.shed_at_submit.load(Ordering::Relaxed);
        (jobs, stats, TraceLog::from_tracks(tracks))
    }
}

impl PedalService {
    /// Close admission, let the core finish every admitted job, and join
    /// all threads. Returns the lane statistics and tracks (empty if
    /// already joined).
    fn join(&mut self) -> (Vec<LaneStats>, Vec<Track>) {
        self.queue.close();
        let stats = self.core.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        stats
    }
}

impl Drop for PedalService {
    fn drop(&mut self) {
        self.join();
    }
}

// ---------------------------------------------------------------------
// Codec pool
// ---------------------------------------------------------------------

/// One item of pure byte work. A pool worker turns the job's input bytes
/// into output bytes and nothing else; all virtual time is charged by the
/// core from the returned [`wire::CostProfile`].
pub(crate) struct Work {
    pub(crate) job: Arc<Job>,
    pub(crate) task: Task,
}

pub(crate) enum Task {
    /// The whole PEDAL operation: `wire::compress_payload` or
    /// `wire::decompress_payload` (which checks the expected length).
    Codec { error_bound: f64 },
    /// Adaptive store-raw: frame the data uncompressed, no codec.
    Store,
    /// One fan-out fragment: `range` of the data as a sync-flushed DEFLATE
    /// fragment, terminated when `last`.
    Fragment { range: Range<usize>, last: bool },
}

/// Output bytes plus the byte counts to charge, or the job's failure.
pub(crate) type WorkResult = Result<(Vec<u8>, wire::CostProfile), String>;

/// The pool's executor: exactly one pure call per work item.
pub(crate) fn execute(work: &Work) -> WorkResult {
    let desc = &work.job.desc;
    match (&work.task, &desc.op) {
        (Task::Codec { error_bound }, JobOp::Compress { data }) => {
            wire::compress_payload(desc.design, desc.datatype, *error_bound, data)
                .map_err(|e| e.to_string())
        }
        (Task::Codec { .. }, JobOp::Decompress { payload, expected_len }) => {
            wire::decompress_payload(payload, *expected_len).map_err(|e| e.to_string())
        }
        (Task::Store, JobOp::Compress { data }) => {
            // No design: the charge is a memcpy of the framed data.
            let profile = wire::CostProfile {
                lossless_bytes: data.len(),
                passthrough: true,
                ..Default::default()
            };
            Ok((wire::frame(PedalHeader::Uncompressed, data.len(), data), profile))
        }
        (Task::Fragment { range, last }, JobOp::Compress { data }) => {
            let level = pedal_deflate::Level::DEFAULT;
            let frag = pedal_deflate::compress_fragment(&data[range.clone()], level, *last);
            let profile = wire::CostProfile {
                design: Some(desc.design),
                lossless_bytes: range.len(),
                engine_input: range.len(),
                ..Default::default()
            };
            Ok((frag, profile))
        }
        (_, JobOp::Decompress { .. }) => {
            Err("store-raw and fan-out apply to compress jobs only".into())
        }
    }
}

/// A pool worker: run each item under `catch_unwind` and hand the result,
/// tagged with its dispatch ticket, back to the core. A codec panic
/// becomes that one job's failure.
fn spawn_worker(
    i: usize,
    work: Arc<Mutex<Receiver<(u64, Work)>>>,
    queue: Arc<AdmissionQueue>,
    exec: fn(&Work) -> WorkResult,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("pedal-worker{i}"))
        .spawn(move || loop {
            let Ok((ticket, item)) =
                work.lock().expect("no worker panics holding the receiver").recv()
            else {
                break;
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| exec(&item)))
                .unwrap_or_else(|p| Err(panic_message(p.as_ref())));
            queue.complete(ticket, result);
        })
        .expect("spawn codec worker")
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload");
    format!("codec panicked: {msg}")
}

// ---------------------------------------------------------------------
// Core: routing and virtual-time charging
// ---------------------------------------------------------------------

struct PendingBatch {
    jobs: Vec<Job>,
    window_end: SimInstant,
}

/// One serial executor in virtual time: a SoC worker or a C-Engine
/// channel. A lane never starts work before its previous work completes,
/// so its free instant is also the channel's FIFO state.
struct Lane {
    free: SimInstant,
    stats: LaneStats,
    rec: LaneRecorder,
}

impl Lane {
    /// Charge one codec operation begun at `begin` with the shared
    /// [`pedal::charge()`], journaling its stages as spans. A C-Engine
    /// channel runs engine-placed stages on its engine.
    fn charge(
        &mut self,
        costs: &CostModel,
        platform: Platform,
        dir: Direction,
        profile: &wire::CostProfile,
        begin: SimInstant,
    ) -> SimDuration {
        let engine = matches!(self.stats.lane, LaneId::Channel(_));
        let rec = &mut self.rec;
        pedal::charge(costs, platform, dir, engine, profile, begin, |stage, start, end, bytes| {
            rec.span(span_kind(stage), start, end, bytes)
        })
        .total()
    }

    /// Occupy the lane from `start` to `done`, turning `bytes_in` input
    /// bytes into `bytes_out`.
    fn account(&mut self, start: SimInstant, done: SimInstant, bytes_in: usize, bytes_out: usize) {
        self.stats.bytes_in += bytes_in as u64;
        self.stats.bytes_out += bytes_out as u64;
        self.stats.busy += done.elapsed_since(start);
        self.stats.last_completion = self.stats.last_completion.max(done);
    }
}

/// A dispatched unit awaiting pool results, one slot per ticket.
struct Unit {
    first: u64,
    results: Vec<Option<WorkResult>>,
    kind: UnitKind,
}

enum UnitKind {
    /// One job, or (more than one) a coalesced engine batch, on `lane`.
    Lane { lane: usize, admitted_at: SimInstant, jobs: Vec<Arc<Job>> },
    /// A fanned-out job: fragment `i` covers `ranges[i]` and was placed
    /// at `chunks[i] = (admitted_at, lane)`; fragment `fin` stitches.
    FanOut {
        job: Arc<Job>,
        ranges: Vec<Range<usize>>,
        chunks: Vec<(SimInstant, usize)>,
        fin: usize,
    },
}

/// The service's single core thread. It routes jobs in admission order
/// from its *own* predicted per-lane free times (never from charged
/// state), so placement is a pure function of the submission order. It
/// hands byte work to the pool, then charges results in ticket order, so
/// every lane's virtual timeline is deterministic by construction.
struct Core {
    platform: Platform,
    costs: CostModel,
    soc_free: Vec<SimInstant>,
    ce_free: Vec<SimInstant>,
    /// Predicted completion instant of each descriptor a channel holds.
    ce_busy: Vec<VecDeque<SimInstant>>,
    channel_depth: usize,
    batch_threshold: usize,
    batch_max_jobs: usize,
    batch_window: SimDuration,
    par_threshold: usize,
    par_chunk: usize,
    pending: Option<PendingBatch>,
    /// Adaptive per-message policy; `None` routes designs verbatim.
    policy: Option<Arc<PolicyShared>>,
    /// The core's own event track ("policy"): one
    /// [`SpanKind::PolicyDecision`] marker per decided message.
    rec: LaneRecorder,
    error_bound: f64,
    work: Sender<(u64, Work)>,
    next_ticket: u64,
    /// Dispatched units in ticket order: the reorder buffer.
    inflight: VecDeque<Unit>,
    /// SoC lanes, then C-Engine lanes.
    lanes: Vec<Lane>,
    shared: Arc<Shared>,
    metrics: LaneMetrics,
    /// Return every track at exit.
    tracing: bool,
}

impl Core {
    fn run(mut self, queue: &AdmissionQueue) -> (Vec<LaneStats>, Vec<Track>) {
        loop {
            match queue.pop(!self.inflight.is_empty()) {
                Popped::Job(job) => self.on_job(job),
                Popped::Done(ticket, result) => self.on_done(ticket, result),
                Popped::Flush => self.flush(),
                Popped::Closed if self.pending.is_some() => self.flush(),
                Popped::Closed => break,
            }
        }
        // Policy-free runs keep byte-identical traces: no empty "policy"
        // track shifting lane tids.
        let policy = self.policy.is_some().then_some(self.rec);
        let (recs, stats): (Vec<_>, Vec<_>) =
            self.lanes.into_iter().map(|l| (l.rec, l.stats)).unzip();
        let tracks = if self.tracing {
            policy.into_iter().chain(recs).map(LaneRecorder::into_track).collect()
        } else {
            Vec::new()
        };
        // Dropping `self.work` on return lets the pool workers exit.
        (stats, tracks)
    }

    fn on_job(&mut self, job: Job) {
        // Any arrival past the window closes the open batch, whatever
        // lane the new job itself targets — the window is virtual time,
        // not queue occupancy, so it cannot race with producers.
        if self.pending.as_ref().is_some_and(|p| job.desc.arrival > p.window_end) {
            self.flush();
        }
        let (job, policy_chunk) = self.apply_policy(job);
        if job.store {
            // Store-raw never touches a codec or the engine: frame on
            // the least-loaded SoC worker at memcpy cost.
            self.dispatch_soc(job);
            return;
        }
        let dir = job.desc.op.direction();
        match job.desc.design.effective_placement(self.platform, dir) {
            Placement::Soc => self.dispatch_soc(job),
            Placement::CEngine => {
                // Fan-out needs at least two fragments to pay for the
                // stitch; at or below one chunk the job takes the normal
                // path and its output stays byte-identical to today's.
                // A policy-chosen chunk opts the job into fan-out even
                // when the static `with_parallel` knob is off.
                let chunk = policy_chunk.unwrap_or(self.par_chunk);
                let fan_out = (policy_chunk.is_some() || self.par_threshold > 0)
                    && matches!(dir, Direction::Compress)
                    && matches!(job.desc.design.algorithm, Algorithm::Deflate)
                    && (policy_chunk.is_some() || job.desc.op.input_len() >= self.par_threshold)
                    && job.desc.op.input_len() > chunk;
                let batchable = self.batch_threshold > 0
                    && self.batch_max_jobs > 1
                    && matches!(dir, Direction::Compress)
                    && matches!(job.desc.design.algorithm, Algorithm::Deflate)
                    && job.desc.op.input_len() < self.batch_threshold;
                if fan_out {
                    self.dispatch_chunks(job, chunk);
                } else if batchable {
                    self.enqueue_batch(job);
                } else {
                    self.dispatch_ce(vec![job]);
                }
            }
        }
    }

    /// The adaptive-policy hook, ahead of all placement. For lossless
    /// byte-stream compress jobs it probes the message, merges the live
    /// snapshot with this router's own predicted engine backlog (both
    /// deterministic in submission order), and rewrites the job's
    /// design/datatype — or flags it store-raw. Returns the job plus a
    /// policy-chosen streaming chunk size, if any.
    fn apply_policy(&mut self, mut job: Job) -> (Job, Option<usize>) {
        let Some(policy) = self.policy.clone() else { return (job, None) };
        if !matches!(job.desc.op.direction(), Direction::Compress)
            || !matches!(
                job.desc.design.algorithm,
                Algorithm::Deflate | Algorithm::Lz4 | Algorithm::Zlib
            )
            || job.desc.datatype != Datatype::Byte
        {
            // Decompress follows the payload header; typed or lossy
            // submissions are explicit caller intent. Leave both alone.
            return (job, None);
        }
        let JobOp::Compress { data } = &job.desc.op else { unreachable!("direction checked") };
        let arrival = job.desc.arrival;
        let external = *policy.snapshot.lock().unwrap();
        let snap = PolicySnapshot {
            at: external.at.max(arrival),
            // Engine descriptors predicted still busy at this arrival —
            // the router's own virtual-time state, not charged lanes.
            queue_depth: external.queue_depth
                + self
                    .ce_busy
                    .iter()
                    .map(|q| q.iter().filter(|&&t| t > arrival).count() as u64)
                    .sum::<u64>(),
            p99_ns: external.p99_ns,
            engine_available: external.engine_available
                && Design::CE_DEFLATE.effective_placement(self.platform, Direction::Compress)
                    == Placement::CEngine,
        };
        let (f, d) = policy.engine.probe_and_decide(data, &snap);
        self.rec.span_for(SpanKind::PolicyDecision, arrival, arrival, job.id, job.desc.tenant);
        policy.log.lock().unwrap().push(PolicyRecord::of(job.id, job.desc.tenant, &f, &snap, &d));
        match d.design() {
            None => {
                job.store = true;
                (job, None)
            }
            Some(design) => {
                job.desc.design = design;
                job.desc.datatype = d.datatype;
                let chunk = (d.chunk > 0).then(|| (d.chunk as usize).max(MIN_PAR_CHUNK));
                (job, chunk)
            }
        }
    }

    fn enqueue_batch(&mut self, job: Job) {
        match &mut self.pending {
            Some(p) => {
                p.jobs.push(job);
                if p.jobs.len() >= self.batch_max_jobs {
                    self.flush();
                }
            }
            None => {
                let window_end = job.desc.arrival + self.batch_window;
                self.pending = Some(PendingBatch { jobs: vec![job], window_end });
            }
        }
    }

    fn flush(&mut self) {
        if let Some(p) = self.pending.take() {
            self.dispatch_ce(p.jobs);
        }
    }

    fn dispatch_soc(&mut self, job: Job) {
        let arrival = job.desc.arrival;
        let service = if job.store {
            self.costs.pool_hit() + self.costs.memcpy(job.desc.op.input_len())
        } else {
            predict_service(&self.costs, &job.desc, Placement::Soc)
        };
        let mut best = 0;
        for w in 1..self.soc_free.len() {
            if self.soc_free[w].max(arrival) < self.soc_free[best].max(arrival) {
                best = w;
            }
        }
        self.soc_free[best] = self.soc_free[best].max(arrival) + service;
        self.dispatch_lane(best, arrival, vec![job]);
    }

    /// Dispatch one job (`jobs.len() == 1`) or a coalesced batch to the
    /// channel predicted to finish it first, honouring per-channel
    /// descriptor depth in virtual time.
    fn dispatch_ce(&mut self, jobs: Vec<Job>) {
        let k = jobs.len();
        let at = jobs.iter().map(|j| j.desc.arrival).max().expect("non-empty dispatch");
        let service = {
            let per_job: SimDuration = jobs
                .iter()
                .map(|j| predict_service(&self.costs, &j.desc, Placement::CEngine))
                .sum();
            let saved = self.costs.cengine_job_overhead(Direction::Compress) * (k as u64 - 1);
            per_job.saturating_sub(saved)
        };
        let (at, best, _done) = self.place_ce(at, service, k);
        self.dispatch_lane(self.soc_free.len() + best, at, jobs);
    }

    /// Reserve `k` descriptors on the channel predicted to finish a
    /// `service`-long submission first, honouring per-channel descriptor
    /// depth in virtual time. Returns the (possibly depth-delayed)
    /// dispatch instant, the chosen channel, and its predicted
    /// completion.
    fn place_ce(
        &mut self,
        arrival: SimInstant,
        service: SimDuration,
        k: usize,
    ) -> (SimInstant, usize, SimInstant) {
        let mut at = arrival;
        // Wait (virtually) until some channel has k free descriptors.
        loop {
            for q in &mut self.ce_busy {
                while q.front().is_some_and(|&t| t <= at) {
                    q.pop_front();
                }
            }
            if self.ce_busy.iter().any(|q| q.len() + k <= self.channel_depth) {
                break;
            }
            match self.ce_busy.iter().filter_map(|q| q.front().copied()).min() {
                Some(t) => at = at.max(t),
                None => break,
            }
        }
        let mut best = usize::MAX;
        for c in 0..self.ce_free.len() {
            if self.ce_busy[c].len() + k > self.channel_depth {
                continue;
            }
            if best == usize::MAX || self.ce_free[c].max(at) < self.ce_free[best].max(at) {
                best = c;
            }
        }
        let best = if best == usize::MAX { 0 } else { best };
        let done = self.ce_free[best].max(at) + service;
        self.ce_free[best] = done;
        for _ in 0..k {
            self.ce_busy[best].push_back(done);
        }
        (at, best, done)
    }

    /// Split a large compress job into fixed-size fragments and spread
    /// them over the channels predicted least loaded. The chunk with the
    /// latest predicted completion is the *finisher*, whose lane pays the
    /// stitch. Predicted per-chunk service (pool hit plus engine time) is
    /// strictly positive, so any later chunk placed on the finisher's
    /// channel would predict strictly later — hence the finisher is
    /// always the last of this job's chunks on its own lane.
    fn dispatch_chunks(&mut self, job: Job, chunk: usize) {
        let len = job.desc.op.input_len();
        let n = len.div_ceil(chunk);
        let ranges: Vec<_> = (0..n).map(|i| i * chunk..((i + 1) * chunk).min(len)).collect();
        let arrival = job.desc.arrival;
        let mut placements = Vec::with_capacity(n);
        for r in &ranges {
            let bytes = r.len();
            let engine = self
                .costs
                .cengine_lossless(Algorithm::Deflate, Direction::Compress, bytes)
                .unwrap_or_else(|| {
                    self.costs.soc_lossless(Algorithm::Deflate, Direction::Compress, bytes)
                });
            placements.push(self.place_ce(arrival, self.costs.pool_hit() + engine, 1));
        }
        // Latest predicted completion wins; ties go to the later index so
        // the finisher is the last-placed chunk among the maxima.
        let mut fin = 0;
        for (i, p) in placements.iter().enumerate() {
            if p.2 >= placements[fin].2 {
                fin = i;
            }
        }
        let soc = self.soc_free.len();
        let chunks = placements.into_iter().map(|(at, c, _)| (at, soc + c)).collect();
        let job = Arc::new(job);
        let work = ranges
            .iter()
            .enumerate()
            .map(|(i, r)| Work {
                job: job.clone(),
                task: Task::Fragment { range: r.clone(), last: i == n - 1 },
            })
            .collect();
        self.dispatch(UnitKind::FanOut { job, ranges, chunks, fin }, work);
    }

    fn dispatch_lane(&mut self, lane: usize, admitted_at: SimInstant, jobs: Vec<Job>) {
        let jobs: Vec<Arc<Job>> = jobs.into_iter().map(Arc::new).collect();
        let work = jobs
            .iter()
            .map(|job| Work {
                job: job.clone(),
                task: if job.store {
                    Task::Store
                } else {
                    Task::Codec { error_bound: self.error_bound }
                },
            })
            .collect();
        self.dispatch(UnitKind::Lane { lane, admitted_at, jobs }, work);
    }

    /// Hand a unit's work items to the pool under consecutive tickets.
    fn dispatch(&mut self, kind: UnitKind, work: Vec<Work>) {
        let first = self.next_ticket;
        for item in work {
            self.work.send((self.next_ticket, item)).expect("the pool outlives the core");
            self.next_ticket += 1;
        }
        let results = (first..self.next_ticket).map(|_| None).collect();
        self.inflight.push_back(Unit { first, results, kind });
    }

    /// File one pool result, then charge every unit at the head of the
    /// reorder buffer whose results are all in.
    fn on_done(&mut self, ticket: u64, result: WorkResult) {
        let i = self.inflight.partition_point(|u| u.first + u.results.len() as u64 <= ticket);
        let unit = &mut self.inflight[i];
        unit.results[(ticket - unit.first) as usize] = Some(result);
        while self.inflight.front().is_some_and(|u| u.results.iter().all(Option::is_some)) {
            let unit = self.inflight.pop_front().expect("front checked");
            let results = unit.results.into_iter().map(|r| r.expect("slot filled")).collect();
            match unit.kind {
                UnitKind::Lane { lane, admitted_at, jobs } => {
                    self.charge_lane(lane, admitted_at, jobs, results)
                }
                UnitKind::FanOut { job, ranges, chunks, fin } => {
                    self.charge_fan_out(&job, &ranges, &chunks, fin, results)
                }
            }
        }
    }

    /// Charge one job, or a batch that runs as one engine pass paying the
    /// per-job engine overhead once. A failed job completes at `begin`.
    fn charge_lane(
        &mut self,
        l: usize,
        admitted_at: SimInstant,
        jobs: Vec<Arc<Job>>,
        mut results: Vec<WorkResult>,
    ) {
        let costs = self.costs;
        let platform = self.platform;
        let lane = &mut self.lanes[l];
        let start = lane.free.max(admitted_at);
        let begin = start + costs.pool_hit();
        for j in &jobs {
            lane.rec.span_for(SpanKind::QueueWait, j.desc.arrival, start, j.id, j.desc.tenant);
        }
        lane.rec.span(SpanKind::PoolAcquire, start, begin, 0);
        if let [job] = &jobs[..] {
            let (result, completed) = match results.pop().expect("one result per job") {
                Ok((bytes, profile)) => {
                    let dir = job.desc.op.direction();
                    let completed = begin + lane.charge(&costs, platform, dir, &profile, begin);
                    (Ok(JobOutput { bytes, passthrough: profile.passthrough }), completed)
                }
                Err(e) => (Err(ServiceError::Pedal(e)), begin),
            };
            lane.free = completed;
            lane.rec.span_for(SpanKind::Job, start, completed, job.id, job.desc.tenant);
            lane.account(start, completed, job.desc.op.input_len(), out_len(&result));
            self.publish(l, job, start, completed, result, false);
            return;
        }
        // Batches are CE-placed DEFLATE compressions (see `on_job`): one
        // engine pass each, journaled once for the whole batch below.
        let engine: SimDuration = results
            .iter()
            .flatten()
            .map(|(_, p)| {
                pedal::charge(
                    &costs,
                    platform,
                    Direction::Compress,
                    true,
                    p,
                    begin,
                    |_, _, _, _| {},
                )
                .total()
            })
            .sum();
        let ok = results.iter().flatten().count() as u64;
        let saved = costs.cengine_job_overhead(Direction::Compress) * ok.saturating_sub(1);
        let done = begin + engine.saturating_sub(saved);
        let bytes = jobs.iter().map(|j| j.desc.op.input_len() as u64).sum();
        lane.rec.span(SpanKind::WorkqQueue, begin, begin, bytes);
        lane.rec.span(SpanKind::EngineExecute, begin, done, bytes);
        lane.free = done;
        lane.rec.span(SpanKind::Batch, start, done, jobs.len() as u64);
        lane.stats.batches += 1;
        for (job, r) in jobs.iter().zip(results) {
            let (result, completed) = match r {
                Ok((bytes, p)) => (Ok(JobOutput { bytes, passthrough: p.passthrough }), done),
                Err(e) => (Err(ServiceError::Pedal(e)), begin),
            };
            self.lanes[l].account(start, completed, job.desc.op.input_len(), out_len(&result));
            self.publish(l, job, start, completed, result, true);
        }
    }

    /// Charge a fanned-out job's fragments on their lanes in index order,
    /// stitch them, and push the finisher lane past the stitch memcpy.
    /// Fragment work lands on each serving lane's byte and busy totals;
    /// the finisher adds only the parent's job count.
    fn charge_fan_out(
        &mut self,
        job: &Job,
        ranges: &[Range<usize>],
        chunks: &[(SimInstant, usize)],
        fin: usize,
        results: Vec<WorkResult>,
    ) {
        let (costs, platform) = (self.costs, self.platform);
        let desc = &job.desc;
        let mut frags = Vec::with_capacity(ranges.len());
        let mut failed = None;
        let mut started = SimInstant(u64::MAX);
        let mut frag_done = SimInstant::EPOCH;
        for (i, ((range, &(at, l)), r)) in ranges.iter().zip(chunks).zip(results).enumerate() {
            let lane = &mut self.lanes[l];
            let start = lane.free.max(at);
            let begin = start + costs.pool_hit();
            lane.rec.span_for(SpanKind::QueueWait, desc.arrival, start, job.id, desc.tenant);
            lane.rec.span(SpanKind::PoolAcquire, start, begin, 0);
            let (done, frag_len) = match r {
                Ok((frag, p)) => {
                    let done =
                        begin + lane.charge(&costs, platform, Direction::Compress, &p, begin);
                    let len = frag.len();
                    frags.push(frag);
                    (done, len)
                }
                Err(e) => {
                    failed.get_or_insert(e);
                    (begin, 0)
                }
            };
            lane.free = done;
            lane.rec.span_for(SpanKind::Chunk, start, done, i as u64, desc.tenant);
            lane.account(start, done, range.len(), frag_len);
            started = started.min(start);
            frag_done = frag_done.max(done);
        }
        let l = chunks[fin].1;
        let lane = &mut self.lanes[l];
        let JobOp::Compress { data } = &desc.op else { unreachable!("only compress jobs fan out") };
        let stitched = match failed {
            Some(e) => Err(e),
            // The shared stitcher validates fragment shape (no empty or
            // marker-only fragments slip through) before concatenating.
            None => pedal_par::stitch_fragments(&frags).map_err(|e| e.to_string()),
        };
        let (result, completed) = match stitched {
            Ok(stitched) => {
                let completed = frag_done + costs.memcpy(stitched.len());
                lane.rec.span(SpanKind::Memcpy, frag_done, completed, stitched.len() as u64);
                let (payload, passthrough) = wire::frame_compressed(desc.design, data, stitched);
                (Ok(JobOutput { bytes: payload, passthrough }), completed)
            }
            Err(e) => (Err(ServiceError::Pedal(e)), frag_done),
        };
        lane.rec.span_for(SpanKind::Job, started, completed, job.id, desc.tenant);
        lane.free = lane.free.max(completed);
        lane.stats.last_completion = lane.stats.last_completion.max(completed);
        self.publish(l, job, started, completed, result, false);
    }

    /// Count a finished job on lane `l`, feed the always-on registry (so
    /// a live `snapshot()` sees it) and record the completion.
    fn publish(
        &mut self,
        l: usize,
        job: &Job,
        started: SimInstant,
        completed: SimInstant,
        result: Result<JobOutput, ServiceError>,
        batched: bool,
    ) {
        self.lanes[l].stats.jobs += 1;
        let desc = &job.desc;
        let bytes_in = desc.op.input_len();
        let bytes_out = out_len(&result);
        let metrics = JobMetrics {
            arrival: desc.arrival,
            started,
            completed,
            queue_wait: started.elapsed_since(desc.arrival),
            service: completed.elapsed_since(started),
            bytes_in,
            bytes_out,
            lane: self.lanes[l].stats.lane,
            batched,
        };
        let m = &self.metrics;
        if result.is_ok() {
            m.queue_wait.record(metrics.queue_wait.as_nanos());
            m.service.record(metrics.service.as_nanos());
            m.latency.record(completed.elapsed_since(desc.arrival).as_nanos());
            m.completed.fetch_add(1, Ordering::Relaxed);
            m.bytes_in.fetch_add(bytes_in as u64, Ordering::Relaxed);
            m.bytes_out.fetch_add(bytes_out as u64, Ordering::Relaxed);
        } else {
            m.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.record(CompletedJob {
            id: job.id,
            tenant: desc.tenant,
            design: desc.design,
            direction: desc.op.direction(),
            result,
            metrics: Some(metrics),
        });
    }
}

fn out_len(result: &Result<JobOutput, ServiceError>) -> usize {
    result.as_ref().map_or(0, |o| o.bytes.len())
}

/// Deterministic service-time estimate used only for routing; the core
/// charges the real costs from each result's profile.
fn predict_service(costs: &CostModel, desc: &JobDesc, eff: Placement) -> SimDuration {
    let dir = desc.op.direction();
    let bytes = match &desc.op {
        JobOp::Compress { data } => data.len(),
        JobOp::Decompress { expected_len, .. } => *expected_len,
    };
    let algo = desc.design.algorithm;
    let main = match algo {
        Algorithm::Sz3 => {
            let core = bytes / 3 + 64;
            let backend = match eff {
                Placement::CEngine => costs
                    .cengine_lossless(Algorithm::Deflate, dir, core)
                    .unwrap_or_else(|| costs.soc_lossless(Algorithm::Deflate, dir, core)),
                Placement::Soc => costs.sz3_zs_backend(dir, core),
            };
            costs.sz3_core(dir, bytes) + backend
        }
        _ => {
            let engine_algo =
                if matches!(algo, Algorithm::Zlib) { Algorithm::Deflate } else { algo };
            let checksum = if matches!(algo, Algorithm::Zlib) {
                costs.checksum(bytes)
            } else {
                SimDuration::ZERO
            };
            match eff {
                Placement::CEngine => {
                    costs
                        .cengine_lossless(engine_algo, dir, bytes)
                        .unwrap_or_else(|| costs.soc_lossless(algo, dir, bytes))
                        + checksum
                }
                Placement::Soc => costs.soc_lossless(algo, dir, bytes),
            }
        }
    };
    costs.pool_hit() + main
}

// ---------------------------------------------------------------------
// Charging
// ---------------------------------------------------------------------

/// The trace span of a charged stage.
fn span_kind(stage: Stage) -> SpanKind {
    match stage {
        Stage::Memcpy => SpanKind::Memcpy,
        Stage::SocExecute => SpanKind::SocExecute,
        Stage::Checksum => SpanKind::Checksum,
        Stage::WorkqQueue => SpanKind::WorkqQueue,
        Stage::EngineExecute => SpanKind::EngineExecute,
        Stage::Sz3Predict => SpanKind::Sz3Predict,
        Stage::Sz3Quantize => SpanKind::Sz3Quantize,
        Stage::Sz3Huffman => SpanKind::Sz3Huffman,
        Stage::Sz3Backend => SpanKind::Sz3Backend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const MARK: &[u8] = b"PANIC";

    /// The real executor, except that it panics on inputs marked `MARK`.
    fn exploding(work: &Work) -> WorkResult {
        if matches!(&work.job.desc.op, JobOp::Compress { data } if data.starts_with(MARK)) {
            panic!("injected codec panic");
        }
        execute(work)
    }

    #[test]
    fn codec_panic_fails_one_job_and_drain_returns() {
        let cfg = ServiceConfig::new(Platform::BlueField2)
            .with_ce_channels(2)
            .with_batching(4_096, 4, SimDuration::from_micros(200))
            .with_parallel(2 * MIN_PAR_CHUNK, MIN_PAR_CHUNK);
        let svc = Arc::new(PedalService::start_with(cfg, exploding));
        let text = b"offload me, then decode me again. ".repeat(600);
        let marked = [MARK, &text].concat();
        let big = text.repeat(8);
        let mut inputs = vec![
            (Design::SOC_DEFLATE, text.clone()),
            (Design::CE_DEFLATE, marked.clone()),
            (Design::CE_ZLIB, text.clone()),
            (Design::SOC_LZ4, text.clone()),
            (Design::CE_DEFLATE, big),
        ];
        inputs.extend((1..=3).map(|k| (Design::CE_DEFLATE, text[..k * 700].to_vec())));
        let ids: Vec<_> = inputs
            .iter()
            .map(|(design, data)| {
                svc.submit(JobDesc::compress(*design, Datatype::Byte, data.clone())).unwrap()
            })
            .collect();

        let (tx, rx) = mpsc::channel();
        let drainer = {
            let svc = svc.clone();
            std::thread::spawn(move || tx.send(svc.drain()).unwrap())
        };
        let done = rx.recv_timeout(Duration::from_secs(60)).expect("drain must return");
        drainer.join().unwrap();
        for ((_, data), (job, id)) in inputs.iter().zip(done.iter().zip(&ids)) {
            assert_eq!(job.id, *id);
            if data == &marked {
                assert!(
                    matches!(&job.result, Err(ServiceError::Pedal(e)) if e.contains("injected")),
                    "marked job must fail with the panic message, got {:?}",
                    job.result
                );
                continue;
            }
            let out = &job.result.as_ref().expect("healthy job").bytes;
            assert_eq!(&wire::decompress_payload(out, data.len()).unwrap().0, data);
        }

        let svc = Arc::try_unwrap(svc).ok().expect("drainer released the service");
        let (jobs, stats) = svc.shutdown();
        assert_eq!(jobs.len(), inputs.len());
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed as usize, inputs.len() - 1);
    }
}
