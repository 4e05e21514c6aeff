//! The serving engine over a [`MultiWorld`] — the crate's one request
//! loop — with open-loop arrivals, admission control, per-tenant SLOs,
//! and autoscaling.
//!
//! The engine draws arrivals from one of two sources, admits or sheds
//! each, prices admitted recipes through an [`Attribution`] sink (cores
//! serving FIFO in virtual time), and reports each admission's
//! completion time back to the source:
//!
//! * **a recorded [`ArrivalTrace`]** ([`serve_with`]) — the *open* loop.
//!   Arrival times ignore completions, so offered load can cross
//!   capacity and show the p99 knee a closed loop never enters.
//!   [`OpenLoopGen`] records seeded Poisson or bursty on-off (MMPP-2,
//!   long-run rate preserved) traces: arrival cycle × tenant × recipe,
//!   replayable (same trace ⇒ same [`ServeReport`], byte for byte) and
//!   diffable ([`ArrivalTrace::diff`]). Every arrival is checked before
//!   anything is priced;
//! * **a client population** ([`crate::load::run_windowed_with`]) — the
//!   *closed* loop: each client keeps up to `window` requests
//!   outstanding and issues the next only after one completes (plus
//!   think time). It runs as one tenant per client with
//!   `queue_cap = window`, which never sheds.
//!
//! Around the loop:
//!
//! * **admission control** — each tenant owns a bounded queue
//!   ([`TenantClass::queue_cap`] admitted-but-incomplete requests); an
//!   arrival that would overflow it is **shed**, not served and not
//!   panicked over, with the typed [`ShedCause`] accounted per tenant.
//!   An optional global backlog bound sheds arrivals whose serving cores
//!   have fallen more than [`ServeSpec::backlog_cap_cycles`] behind.
//!   Conservation is structural: `admitted + shed == offered`, exactly;
//! * **autoscaling** — [`ServePolicy::Autoscale`] turns placement into a
//!   feedback controller: every epoch it observes the mean backlog over
//!   the active cores and grows or shrinks the active set within
//!   `[min_cores, max_cores]`, dispatching each chain to the
//!   least-loaded active core ([`AutoscaleReport`]);
//! * **zero per-request allocation** — one [`ServeScratch`] holds every
//!   growable buffer of either source, so 10⁶–10⁷ simulated requests run
//!   at arena speed.

use crate::ipc::EngineCacheStats;
use crate::ledger::{Attribution, CycleLedger, LedgerArena, Phase};
use crate::load::{attribute, check_roster, percentile, run_request_sink, LoadError, LoadGen};
use crate::multicore::{CoreId, MultiWorld, Placement, Step};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use ycsb::rng::Rng;

/// One recorded arrival: when (virtual cycles), who (tenant), what
/// (recipe index into the roster the trace is served against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in virtual cycles (non-decreasing within a trace).
    pub at: u64,
    /// Tenant the request belongs to.
    pub tenant: u32,
    /// Recipe index into the serving roster.
    pub recipe: u32,
}

/// The arrival process an [`OpenLoopGen`] draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals: exponential interarrivals at the
    /// generator's mean rate.
    Poisson,
    /// Bursty two-state on-off modulated Poisson (MMPP-2): bursts of
    /// ~`burst_len` arrivals (uniform in `[1, 2·burst_len − 1]`, so the
    /// mean is `burst_len`) drawn at `accel_x10/10 ×` the mean rate,
    /// separated by idle gaps sized so the *long-run* rate still matches
    /// the generator's mean — same offered load as [`Poisson`], far
    /// worse tail.
    ///
    /// [`Poisson`]: ArrivalProcess::Poisson
    OnOff {
        /// Mean arrivals per burst (≥ 1).
        burst_len: u64,
        /// In-burst rate acceleration, ×10 (must be > 10: bursts are
        /// strictly faster than the long-run mean).
        accel_x10: u64,
    },
}

/// A seeded, deterministic open-loop arrival generator: the recorder
/// side of the generator-to-trace contract. [`OpenLoopGen::trace`]
/// produces the [`ArrivalTrace`] that [`serve`] replays; generating
/// twice with the same spec yields byte-identical traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenLoopGen {
    /// The interarrival process.
    pub process: ArrivalProcess,
    /// Mean interarrival time in cycles (the offered-load knob:
    /// `clock_hz / mean_interarrival_cycles` requests per second).
    pub mean_interarrival_cycles: u64,
    /// Tenants sharing the service (each arrival is tagged with one).
    pub tenants: u32,
    /// Logical user population arrivals are drawn from. Users only
    /// determine tenant tagging (`tenant = user % tenants`) — an open
    /// loop never waits for a user, so millions of users cost nothing.
    pub users: u64,
    /// Seed for interarrival draws, user draws, and recipe picks.
    pub seed: u64,
}

impl OpenLoopGen {
    /// Draw one exponential interarrival with mean `mean` cycles.
    fn exp_cycles(rng: &mut Rng, mean: f64) -> u64 {
        let u = rng.next_f64();
        // 1 − u ∈ (0, 1], so ln is finite and ≤ 0; |ln(2⁻⁵³)| < 37, so
        // the result is bounded by 37 × mean — far inside u64 for any
        // representable mean, and non-negative by construction.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (-mean * (1.0 - u).ln()) as u64
        }
    }

    /// Record `n` arrivals over a roster of `n_recipes` recipes into a
    /// trace. Deterministic in the spec (same spec ⇒ same trace).
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the spec is degenerate: zero recipes, zero
    /// tenants, zero users, a zero mean interarrival, or an on-off
    /// process whose mean burst is zero or above `u64::MAX / 2`, or whose
    /// burst acceleration is not strictly faster than the long-run rate.
    pub fn trace(&self, n: u64, n_recipes: u32) -> Result<ArrivalTrace, ServeError> {
        if n_recipes == 0 {
            return Err(ServeError::Load(LoadError::EmptyRecipes));
        }
        if self.tenants == 0 {
            return Err(ServeError::NoTenants);
        }
        if self.users == 0 {
            return Err(ServeError::NoUsers);
        }
        if self.mean_interarrival_cycles == 0 {
            return Err(ServeError::ZeroMeanInterarrival);
        }
        let mean = self.mean_interarrival_cycles as f64;
        let (burst_len, accel_x10) = match self.process {
            ArrivalProcess::Poisson => (0, 0),
            ArrivalProcess::OnOff {
                burst_len,
                accel_x10,
            } => {
                // `2 * burst_len - 1` sizes a burst, so a longer mean
                // burst would overflow the draw.
                if burst_len == 0 || burst_len > u64::MAX / 2 || accel_x10 <= 10 {
                    return Err(ServeError::BadBurstSpec {
                        burst_len,
                        accel_x10,
                    });
                }
                (burst_len, accel_x10)
            }
        };
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut arrivals = Vec::with_capacity(usize::try_from(n).expect("trace length fits usize"));
        let mut t = 0u64;
        // On-off state: arrivals left in the current burst (0 in the
        // Poisson case means "not modulated").
        let mut left_in_burst = 0u64;
        for _ in 0..n {
            let gap = match self.process {
                ArrivalProcess::Poisson => Self::exp_cycles(&mut rng, mean),
                ArrivalProcess::OnOff { .. } => {
                    let mean_on = mean * 10.0 / accel_x10 as f64;
                    if left_in_burst == 0 {
                        // New burst: size uniform in [1, 2L−1] (mean L),
                        // preceded by an idle gap sized to restore the
                        // long-run mean rate over the whole cycle.
                        left_in_burst = 1 + rng.below(2 * burst_len - 1);
                        let gap_mean = burst_len as f64 * (mean - mean_on);
                        Self::exp_cycles(&mut rng, gap_mean)
                            .saturating_add(Self::exp_cycles(&mut rng, mean_on))
                    } else {
                        Self::exp_cycles(&mut rng, mean_on)
                    }
                }
            };
            if let ArrivalProcess::OnOff { .. } = self.process {
                left_in_burst -= 1;
            }
            t = t.saturating_add(gap);
            let user = rng.below(self.users);
            let tenant = u32::try_from(user % u64::from(self.tenants)).expect("tenant fits u32");
            let recipe =
                u32::try_from(rng.below(u64::from(n_recipes))).expect("recipe index fits u32");
            arrivals.push(Arrival {
                at: t,
                tenant,
                recipe,
            });
        }
        // Sorted by construction (cumulative time): the validated
        // constructor is still the single entry point.
        ArrivalTrace::from_arrivals(arrivals)
    }
}

/// First divergence between two traces ([`ArrivalTrace::diff`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDiff {
    /// Index of the first differing arrival.
    pub index: usize,
    /// Our arrival at that index ([`None`] when we are shorter).
    pub ours: Option<Arrival>,
    /// Their arrival at that index ([`None`] when they are shorter).
    pub theirs: Option<Arrival>,
}

/// A compact, replayable open-loop trace: arrivals sorted by time.
///
/// The only constructor validates ordering, so every `ArrivalTrace` in
/// the program is sorted — [`serve`] can rely on it without re-checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
}

impl ArrivalTrace {
    /// Wrap pre-built arrivals, validating that arrival times are
    /// non-decreasing.
    ///
    /// # Errors
    ///
    /// [`ServeError::TraceNotSorted`] naming the first out-of-order
    /// index.
    pub fn from_arrivals(arrivals: Vec<Arrival>) -> Result<Self, ServeError> {
        if let Some(i) = arrivals.windows(2).position(|w| w[1].at < w[0].at) {
            return Err(ServeError::TraceNotSorted { index: i + 1 });
        }
        Ok(ArrivalTrace { arrivals })
    }

    /// The recorded arrivals, in time order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of arrivals (the offered load of a [`serve`] run).
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Virtual-time span from 0 to the last arrival.
    pub fn span_cycles(&self) -> u64 {
        self.arrivals.last().map_or(0, |a| a.at)
    }

    /// First divergence against another trace ([`None`] when equal):
    /// the diffable half of the generator-to-trace contract, for
    /// pinpointing where two supposedly identical traces part ways.
    pub fn diff(&self, other: &ArrivalTrace) -> Option<TraceDiff> {
        let n = self.arrivals.len().max(other.arrivals.len());
        (0..n).find_map(|i| {
            let ours = self.arrivals.get(i).copied();
            let theirs = other.arrivals.get(i).copied();
            (ours != theirs).then_some(TraceDiff {
                index: i,
                ours,
                theirs,
            })
        })
    }
}

/// Admission and SLO parameters of one tenant class.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Bounded-queue depth: the most admitted-but-incomplete requests
    /// the tenant may hold. An arrival beyond it is shed with
    /// [`ShedCause::TenantQueueFull`].
    pub queue_cap: usize,
    /// The tenant's p99 latency target in microseconds (reported as
    /// met/missed per tenant, never enforced by shedding).
    pub slo_p99_us: f64,
}

impl Default for TenantClass {
    fn default() -> Self {
        TenantClass {
            queue_cap: 1024,
            slo_p99_us: f64::INFINITY,
        }
    }
}

/// Serving parameters: tenancy, admission bounds, SLO targets.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Tenants the trace may reference (`Arrival::tenant < tenants`).
    pub tenants: u32,
    /// Tenant classes; tenant `t` is governed by `classes[t % len]`.
    pub classes: Vec<TenantClass>,
    /// Global backlog bound in cycles (0 = unbounded): an arrival whose
    /// serving cores have fallen further than this behind virtual time
    /// is shed with [`ShedCause::CoreBacklog`] instead of joining a
    /// queue it would wait that long in.
    pub backlog_cap_cycles: u64,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            tenants: 1,
            classes: vec![TenantClass::default()],
            backlog_cap_cycles: 0,
        }
    }
}

impl ServeSpec {
    /// The class governing `tenant`.
    pub fn class_of(&self, tenant: u32) -> &TenantClass {
        &self.classes[tenant as usize % self.classes.len()]
    }
}

/// Why an arrival was shed instead of admitted. Shedding is an
/// accounted outcome, not an error: the report carries per-tenant
/// counts per cause, and `admitted + shed == offered` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The tenant's bounded admission queue was full.
    TenantQueueFull,
    /// The serving cores' backlog exceeded
    /// [`ServeSpec::backlog_cap_cycles`].
    CoreBacklog,
}

/// The autoscale feedback controller's configuration
/// ([`ServePolicy::Autoscale`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoscaleCfg {
    /// Fewest cores the active set may shrink to (≥ 1).
    pub min_cores: usize,
    /// Most cores the active set may grow to (clamped to the world).
    pub max_cores: usize,
    /// Arrivals between controller decisions.
    pub epoch_arrivals: u64,
    /// Grow when the mean backlog over active cores exceeds this.
    pub grow_backlog_cycles: u64,
    /// Shrink when the mean backlog falls below this (must be below the
    /// grow threshold — the dead band between them prevents flapping).
    pub shrink_backlog_cycles: u64,
}

impl Default for AutoscaleCfg {
    fn default() -> Self {
        AutoscaleCfg {
            min_cores: 1,
            max_cores: usize::MAX,
            epoch_arrivals: 64,
            grow_backlog_cycles: 50_000,
            shrink_backlog_cycles: 5_000,
        }
    }
}

/// How [`serve`] places each admitted chain.
#[derive(Debug, Clone, PartialEq)]
pub enum ServePolicy {
    /// A fixed [`Placement`] policy, per arrival index — the same
    /// policies the closed-loop grids sweep.
    Static(Placement),
    /// The feedback controller: dispatch each chain to the least-loaded
    /// *active* core, and every epoch grow/shrink the active set as the
    /// observed mean backlog crosses the configured thresholds.
    Autoscale(AutoscaleCfg),
}

impl ServePolicy {
    /// Stable label for tables and JSON dumps.
    pub fn label(&self) -> String {
        match self {
            ServePolicy::Static(p) => format!("static:{}", p.label()),
            ServePolicy::Autoscale(_) => "autoscale".to_string(),
        }
    }
}

/// What the autoscale controller did over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleReport {
    /// Times the active set grew by one core.
    pub grow_events: u64,
    /// Times it shrank by one core.
    pub shrink_events: u64,
    /// Smallest active set observed.
    pub min_active: usize,
    /// Largest active set observed.
    pub max_active: usize,
    /// Active cores when the trace ended.
    pub final_active: usize,
}

/// Per-tenant serving outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: u32,
    /// Arrivals addressed to this tenant.
    pub offered: u64,
    /// Arrivals admitted and served.
    pub admitted: u64,
    /// Arrivals shed because the tenant queue was full.
    pub shed_queue_full: u64,
    /// Arrivals shed because the cores' backlog exceeded the bound.
    pub shed_backlog: u64,
    /// Median admitted-request latency (µs).
    pub p50_us: f64,
    /// 99th-percentile admitted-request latency (µs).
    pub p99_us: f64,
    /// The tenant's SLO target (µs).
    pub slo_p99_us: f64,
    /// Whether observed p99 met the target.
    pub slo_met: bool,
}

impl TenantReport {
    /// Shed arrivals over all causes.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_backlog
    }
}

/// The outcome of one open-loop serve run. All quantities derive from
/// virtual time and merged invocation ledgers; same trace + same spec ⇒
/// byte-identical report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// IPC system under test.
    pub system: String,
    /// Policy label ([`ServePolicy::label`]).
    pub policy: String,
    /// Cores in the world.
    pub cores: usize,
    /// Arrivals in the trace (the offered load).
    pub offered: u64,
    /// Arrivals admitted (and, in virtual time, completed).
    pub admitted: u64,
    /// Arrivals shed over all tenants: queue-full cause.
    pub shed_queue_full: u64,
    /// Arrivals shed over all tenants: backlog cause.
    pub shed_backlog: u64,
    /// IPC invocations issued by admitted requests.
    pub ipc_calls: u64,
    /// Virtual time of the last completion (0 if nothing was admitted).
    pub makespan_cycles: u64,
    /// Busy cycles summed over cores.
    pub busy_cycles: u64,
    /// Offered arrival rate over the trace span (requests/second of
    /// virtual time).
    pub offered_rps: f64,
    /// Admitted completions per second of virtual makespan.
    pub goodput_rps: f64,
    /// Mean admitted-request latency (µs).
    pub mean_us: f64,
    /// Median admitted-request latency (µs).
    pub p50_us: f64,
    /// 95th-percentile admitted-request latency (µs).
    pub p95_us: f64,
    /// 99th-percentile admitted-request latency (µs).
    pub p99_us: f64,
    /// Worst admitted-request latency (µs).
    pub max_us: f64,
    /// Phase ledger merged over every admitted request (queue waiting
    /// attributed to [`Phase::Queue`]).
    pub ledger: CycleLedger,
    /// Per-tenant outcomes, tenant order.
    pub tenants: Vec<TenantReport>,
    /// Controller activity ([`None`] under a static policy).
    pub autoscale: Option<AutoscaleReport>,
    /// Engine-cache counters summed over cores, for systems that model
    /// one.
    pub engine_cache: Option<EngineCacheStats>,
}

impl ServeReport {
    /// Shed arrivals over all tenants and causes.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_backlog
    }

    /// Fraction of offered arrivals shed.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed() as f64 / self.offered as f64
        }
    }

    /// Fraction of all ledger cycles that were queue waiting.
    pub fn queue_fraction(&self) -> f64 {
        self.ledger.fraction(Phase::Queue)
    }
}

/// A serve run was asked to do something structurally impossible —
/// distinct from shedding, which is a priced outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// A load-layer precondition failed (empty roster, placement).
    Load(LoadError),
    /// The trace has no arrivals.
    EmptyTrace,
    /// Arrival times regress at this index.
    TraceNotSorted {
        /// Index of the first arrival earlier than its predecessor.
        index: usize,
    },
    /// An arrival names a recipe outside the roster.
    RecipeOutOfRange {
        /// Offending arrival index.
        index: usize,
        /// The recipe id it named.
        recipe: u32,
        /// Roster size.
        n_recipes: usize,
    },
    /// An arrival names a tenant outside the spec.
    TenantOutOfRange {
        /// Offending arrival index.
        index: usize,
        /// The tenant it named.
        tenant: u32,
        /// Tenants the spec covers.
        tenants: u32,
    },
    /// The spec has zero tenants.
    NoTenants,
    /// The generator has zero logical users.
    NoUsers,
    /// The generator's mean interarrival is zero.
    ZeroMeanInterarrival,
    /// An on-off process with no burst, a burst too long to draw
    /// (`burst_len > u64::MAX / 2`), or no acceleration.
    BadBurstSpec {
        /// Configured mean burst length.
        burst_len: u64,
        /// Configured acceleration ×10.
        accel_x10: u64,
    },
    /// The spec lists no tenant classes.
    NoTenantClasses,
    /// A tenant class with a zero queue cap can never admit anything.
    ZeroQueueCap,
    /// An autoscale configuration that cannot act.
    BadAutoscale {
        /// What is wrong with it.
        why: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Load(e) => write!(f, "{e}"),
            ServeError::EmptyTrace => write!(f, "empty arrival trace: nothing to serve"),
            ServeError::TraceNotSorted { index } => {
                write!(f, "trace arrival {index} is earlier than its predecessor")
            }
            ServeError::RecipeOutOfRange {
                index,
                recipe,
                n_recipes,
            } => write!(
                f,
                "arrival {index} names recipe {recipe} of a {n_recipes}-recipe roster"
            ),
            ServeError::TenantOutOfRange {
                index,
                tenant,
                tenants,
            } => write!(
                f,
                "arrival {index} names tenant {tenant} of a {tenants}-tenant spec"
            ),
            ServeError::NoTenants => write!(f, "spec has zero tenants"),
            ServeError::NoUsers => write!(f, "generator has zero logical users"),
            ServeError::ZeroMeanInterarrival => {
                write!(f, "zero mean interarrival: infinite offered load")
            }
            ServeError::BadBurstSpec {
                burst_len,
                accel_x10,
            } => write!(
                f,
                "on-off process needs 1 <= burst_len <= u64::MAX / 2 and accel_x10 > 10 \
                 (got burst_len {burst_len}, accel_x10 {accel_x10})"
            ),
            ServeError::NoTenantClasses => write!(f, "spec lists no tenant classes"),
            ServeError::ZeroQueueCap => {
                write!(f, "a tenant class with queue_cap 0 can never admit")
            }
            ServeError::BadAutoscale { why } => write!(f, "autoscale config: {why}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Load(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LoadError> for ServeError {
    fn from(e: LoadError) -> Self {
        ServeError::Load(e)
    }
}

/// One tenant's shed arrivals over an engine run, by cause. Its
/// admissions are its latency samples, and every other arrival is one
/// of these, so `offered = admitted + shed` holds by construction.
#[derive(Debug, Clone, Copy, Default)]
struct Shed {
    queue_full: u64,
    backlog: u64,
}

/// Reusable buffers for the serving engine, whichever source feeds it:
/// thread one across the cells of a sweep and every cell after the
/// first serves without heap allocation on the per-arrival path.
#[derive(Default)]
pub struct ServeScratch {
    /// `(tenant, latency)` of every admission, in one flat buffer: a
    /// large client population costs no per-tenant scatter per request.
    samples: Vec<(usize, u64)>,
    /// The admissions' latencies, sorted once the run ends.
    latencies: Vec<u64>,
    /// Per-tenant latencies, bucketed from `samples` by [`serve_with`].
    tenant_latencies: Vec<Vec<u64>>,
    shed: Vec<Shed>,
    map: Vec<CoreId>,
    step_ledger: CycleLedger,
    /// Per-tenant min-heaps of outstanding completion times: the
    /// bounded admission queues.
    outstanding: Vec<BinaryHeap<Reverse<u64>>>,
    /// Closed loop: min-heap of `(next issue time, client index)`.
    issue: BinaryHeap<Reverse<(u64, usize)>>,
    /// Closed loop: per-client min-heaps of completion (+ think) times.
    pending: Vec<BinaryHeap<Reverse<u64>>>,
}

impl ServeScratch {
    /// Fresh (empty) scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every buffer's *contents*, capacity kept. The engine calls
    /// this on entry, so nothing a larger earlier cell left behind (the
    /// per-tenant and per-client vectors only grow) reaches the next.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.latencies.clear();
        self.shed.clear();
        self.map.clear();
        self.step_ledger.clear();
        self.issue.clear();
        for v in &mut self.tenant_latencies {
            v.clear();
        }
        for heap in self.outstanding.iter_mut().chain(&mut self.pending) {
            heap.clear();
        }
    }
}

/// Grow `v` to at least `n` entries, never shrinking it.
fn grow<T: Default>(v: &mut Vec<T>, n: usize) {
    if v.len() < n {
        v.resize_with(n, T::default);
    }
}

/// Where the serving engine's arrivals come from.
pub(crate) enum Source<'a> {
    /// The open loop: a validated trace over `tenants` tenants, replayed
    /// in order.
    Trace {
        arrivals: std::slice::Iter<'a, Arrival>,
        tenants: usize,
    },
    /// The closed loop: `gen.clients` clients (one tenant each), each
    /// keeping up to `window` requests outstanding and issuing a
    /// replacement, after think time, as the earliest-completing one
    /// finishes. Every issue draws its recipe from the seeded `rng`.
    Clients {
        gen: &'a LoadGen,
        window: usize,
        n_recipes: u64,
        rng: Rng,
    },
}

impl Source<'_> {
    /// Seed the source's state in freshly cleared scratch, reserve room
    /// for every arrival's latency, and return the number of tenants its
    /// arrivals name.
    fn start(&self, s: &mut ServeScratch) -> usize {
        match self {
            Source::Trace { arrivals, tenants } => {
                s.samples.reserve(arrivals.len());
                *tenants
            }
            Source::Clients { gen, .. } => {
                // Best effort: a request count too large to reserve for
                // grows the buffer as the run goes instead of panicking.
                let _ = s
                    .samples
                    .try_reserve(usize::try_from(gen.requests).unwrap_or(usize::MAX));
                s.issue.extend((0..gen.clients).map(|c| Reverse((0, c))));
                grow(&mut s.pending, gen.clients);
                gen.clients
            }
        }
    }

    /// Arrival number `i` as `(at, tenant, recipe)`, `at` non-decreasing,
    /// or `None` once the source is exhausted.
    fn next(&mut self, i: u64, s: &mut ServeScratch) -> Option<(u64, usize, usize)> {
        match self {
            Source::Trace { arrivals, .. } => {
                let a = arrivals.next()?;
                Some((a.at, a.tenant as usize, a.recipe as usize))
            }
            Source::Clients {
                gen,
                n_recipes,
                rng,
                ..
            } => {
                if i >= gen.requests {
                    return None;
                }
                // The least `(issue time, client index)` pair: the
                // earliest-issuable client, ties to the lowest index.
                let Reverse((t0, c)) = s.issue.pop()?;
                let pick = usize::try_from(rng.below(*n_recipes)).expect("index fits usize");
                Some((t0, c, pick))
            }
        }
    }

    /// The arrival `(at, tenant)` just drawn was admitted and completes
    /// at `done` (shed arrivals are not reported).
    fn admitted(&self, at: u64, tenant: usize, done: u64, s: &mut ServeScratch) {
        if let Source::Clients { gen, window, .. } = self {
            let pending = &mut s.pending[tenant];
            pending.push(Reverse(done + gen.think_cycles));
            // Window full: the next issue replaces the outstanding
            // request that completes earliest.
            let next = if pending.len() >= *window {
                pending.pop().map_or(at, |Reverse(first)| at.max(first))
            } else {
                at
            };
            s.issue.push(Reverse((next, tenant)));
        }
    }
}

/// The autoscale feedback controller: the active set is the core
/// prefix `[0, state.final_active)`.
struct Controller<'a> {
    cfg: &'a AutoscaleCfg,
    state: AutoscaleReport,
}

impl<'a> Controller<'a> {
    /// The controller of an autoscale `policy`, starting at `min_cores`
    /// ([`None`] for a static policy).
    fn of(policy: &'a ServePolicy) -> Option<Self> {
        let ServePolicy::Autoscale(cfg) = policy else {
            return None;
        };
        Some(Controller {
            cfg,
            state: AutoscaleReport {
                grow_events: 0,
                shrink_events: 0,
                min_active: cfg.min_cores,
                max_active: cfg.min_cores,
                final_active: cfg.min_cores,
            },
        })
    }

    /// See arrival number `index` (0-based) at `t`. Every epoch of
    /// *arrivals* (admitted or shed — sheds are pressure too), compare
    /// the mean backlog over the active set against the thresholds and
    /// grow or shrink it by one core. Sampled before the arrival
    /// dispatches, so an idle system reads as idle instead of as its own
    /// just-issued request's footprint.
    fn tick(&mut self, mw: &MultiWorld, index: u64, t: u64) {
        if !(index + 1).is_multiple_of(self.cfg.epoch_arrivals) {
            return;
        }
        let s = &mut self.state;
        let active = s.final_active;
        let max = self.cfg.max_cores.min(mw.n_cores());
        let mean_lag = (0..active).map(|c| mw.backlog(c, t)).sum::<u64>() / active as u64;
        if mean_lag > self.cfg.grow_backlog_cycles && active < max {
            s.final_active += 1;
            s.grow_events += 1;
        } else if mean_lag < self.cfg.shrink_backlog_cycles && active > self.cfg.min_cores {
            s.final_active -= 1;
            s.shrink_events += 1;
        }
        s.min_active = s.min_active.min(s.final_active);
        s.max_active = s.max_active.max(s.final_active);
    }
}

/// Cycles (as f64, so means pass through) to microseconds at `clock_hz`
/// — the one place a report does this conversion.
fn to_us(cycles: f64, clock_hz: u64) -> f64 {
    cycles / clock_hz as f64 * 1e6
}

/// The serving engine, the crate's one request loop: each arrival from
/// `source` is admitted and priced through `att`, or shed by its
/// tenant's queue cap (`classes[tenant % len]`) or by a nonzero
/// `backlog_cap_cycles`. Callers validate their inputs first, so the
/// only error is a placement rejection. The report's `tenants` is left
/// empty; the per-tenant counts and latencies stay in `scratch`.
#[allow(clippy::too_many_arguments)] // the sweep axes are the signature
pub(crate) fn run_engine(
    mw: &mut MultiWorld,
    policy: &ServePolicy,
    n_services: usize,
    recipes: &[Vec<Step>],
    classes: &[TenantClass],
    backlog_cap_cycles: u64,
    mut source: Source<'_>,
    scratch: &mut ServeScratch,
    mut att: Attribution<'_>,
) -> Result<ServeReport, LoadError> {
    scratch.clear();
    let n_tenants = source.start(scratch);
    scratch.shed.resize(n_tenants, Shed::default());
    grow(&mut scratch.outstanding, n_tenants);
    // The closed loop at window 1 folds waiting into latency, as it
    // always has, instead of attributing it to `Phase::Queue`.
    let attribute_queue = !matches!(source, Source::Clients { window: 1, .. });
    let mut ctl = Controller::of(policy);
    let mut ledger = CycleLedger::new();
    let (mut offered, mut admitted, mut ipc_calls) = (0u64, 0u64, 0u64);
    let (mut makespan, mut last_arrival) = (0u64, 0u64);
    while let Some((t, tenant, recipe)) = source.next(offered, scratch) {
        let index = offered;
        offered += 1;
        last_arrival = t;
        if let Some(ctl) = &mut ctl {
            ctl.tick(mw, index, t);
        }
        // Retire completions: an admitted request leaves its tenant's
        // queue the moment virtual time passes its completion.
        let heap = &mut scratch.outstanding[tenant];
        while heap.peek().is_some_and(|Reverse(done)| *done <= t) {
            heap.pop();
        }
        // Admission, stage 1: the tenant's bounded queue.
        if heap.len() >= classes[tenant % classes.len()].queue_cap {
            scratch.shed[tenant].queue_full += 1;
            continue;
        }
        if let Some(ctl) = &ctl {
            // Whole chain on the least-loaded active core: an arrival
            // has no pinned client core, so the controller behaves like
            // a front-end load balancer assigning the request to one
            // worker — active cores are independent capacity, with no
            // cross-core tax introduced by the scaling itself.
            let chain = mw.least_loaded_among(ctl.state.final_active);
            scratch.map.clear();
            scratch.map.resize(n_services, chain);
        } else if let ServePolicy::Static(p) = policy {
            p.assign_into(index, n_services, mw, &mut scratch.map)?;
        }
        // Admission, stage 2: the global backlog bound — shed instead
        // of joining a queue the request would wait `> cap` cycles in.
        if backlog_cap_cycles > 0 {
            let lag = scratch.map.iter().map(|&c| mw.backlog(c, t)).max();
            if lag.unwrap_or(0) > backlog_cap_cycles {
                scratch.shed[tenant].backlog += 1;
                continue;
            }
        }
        let steps = &recipes[recipe];
        let (done, calls) = attribute(&mut att, admitted, &mut ledger, |sink| {
            run_request_sink(
                mw,
                &scratch.map,
                steps,
                t,
                attribute_queue,
                &mut scratch.step_ledger,
                sink,
            )
        });
        admitted += 1;
        ipc_calls += calls;
        makespan = makespan.max(done);
        scratch.samples.push((tenant, done - t));
        scratch.outstanding[tenant].push(Reverse(done));
        source.admitted(t, tenant, done, scratch);
    }
    let lat = &mut scratch.latencies;
    lat.extend(scratch.samples.iter().map(|s| s.1));
    lat.sort_unstable();
    let hz = mw.core(0).cost.clock_hz;
    let mean = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
    let pct = |q: f64| to_us(percentile(lat, q) as f64, hz);
    Ok(ServeReport {
        system: mw.core(0).ipc_name(),
        policy: policy.label(),
        cores: mw.n_cores(),
        offered,
        admitted,
        shed_queue_full: scratch.shed.iter().map(|s| s.queue_full).sum(),
        shed_backlog: scratch.shed.iter().map(|s| s.backlog).sum(),
        ipc_calls,
        makespan_cycles: makespan,
        busy_cycles: mw.busy_cycles(),
        offered_rps: offered as f64 * hz as f64 / last_arrival.max(1) as f64,
        goodput_rps: if makespan == 0 {
            0.0
        } else {
            admitted as f64 * hz as f64 / makespan as f64
        },
        mean_us: to_us(mean, hz),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        max_us: pct(1.0),
        // `Sampled` renders its exact flat totals in canonical order.
        ledger: match att {
            Attribution::Full(_) => ledger,
            Attribution::Sampled { totals, .. } => totals.to_ledger(),
        },
        tenants: Vec::new(),
        autoscale: ctl.map(|c| c.state),
        engine_cache: mw.engine_cache_stats(),
    })
}

/// Replay `trace` through `mw` under `policy` and `spec` with fresh
/// scratch and full span attribution. Convenience wrapper over
/// [`serve_with`].
///
/// # Errors
///
/// See [`serve_with`].
pub fn serve(
    mw: &mut MultiWorld,
    policy: &ServePolicy,
    n_services: usize,
    recipes: &[Vec<Step>],
    trace: &ArrivalTrace,
    spec: &ServeSpec,
) -> Result<ServeReport, ServeError> {
    let mut scratch = ServeScratch::new();
    let mut arena = LedgerArena::new();
    serve_with(
        mw,
        policy,
        n_services,
        recipes,
        trace,
        spec,
        &mut scratch,
        Attribution::Full(&mut arena),
    )
}

/// Reject an autoscale configuration that cannot act on `n_cores`.
fn check_autoscale(cfg: &AutoscaleCfg, n_cores: usize) -> Result<(), ServeError> {
    let why = if cfg.min_cores == 0 {
        "min_cores must be >= 1"
    } else if cfg.epoch_arrivals == 0 {
        "epoch_arrivals must be >= 1"
    } else if cfg.min_cores > cfg.max_cores.min(n_cores) {
        "min_cores exceeds max_cores (after clamping to the world)"
    } else if cfg.shrink_backlog_cycles >= cfg.grow_backlog_cycles {
        "shrink threshold must sit below the grow threshold"
    } else {
        return Ok(());
    };
    Err(ServeError::BadAutoscale { why })
}

/// Replay an [`ArrivalTrace`] through a [`MultiWorld`]: the open-loop
/// arrival source of the serving engine.
///
/// Arrivals are processed in trace order. Each is either **admitted**
/// (its recipe priced through `att`, queueing attributed to
/// [`Phase::Queue`]) or **shed** with a typed [`ShedCause`]; the report
/// conserves arrivals exactly (`admitted + shed == offered`). Same
/// trace + same spec ⇒ byte-identical [`ServeReport`].
///
/// # Errors
///
/// [`ServeError`] when the roster is empty, the trace is empty or
/// references tenants/recipes outside bounds, a tenant class can never
/// admit, or the autoscale configuration cannot act — all checked
/// before pricing anything — or when placement rejects a map. Shed
/// arrivals are *not* errors.
#[allow(clippy::too_many_arguments)] // the sweep axes are the signature
pub fn serve_with(
    mw: &mut MultiWorld,
    policy: &ServePolicy,
    n_services: usize,
    recipes: &[Vec<Step>],
    trace: &ArrivalTrace,
    spec: &ServeSpec,
    scratch: &mut ServeScratch,
    att: Attribution<'_>,
) -> Result<ServeReport, ServeError> {
    check_roster(mw, recipes, n_services)?;
    if trace.is_empty() {
        return Err(ServeError::EmptyTrace);
    }
    if spec.tenants == 0 {
        return Err(ServeError::NoTenants);
    }
    if spec.classes.is_empty() {
        return Err(ServeError::NoTenantClasses);
    }
    if spec.classes.iter().any(|c| c.queue_cap == 0) {
        return Err(ServeError::ZeroQueueCap);
    }
    if let ServePolicy::Autoscale(cfg) = policy {
        check_autoscale(cfg, mw.n_cores())?;
    }
    for (index, a) in trace.arrivals().iter().enumerate() {
        if a.tenant >= spec.tenants {
            return Err(ServeError::TenantOutOfRange {
                index,
                tenant: a.tenant,
                tenants: spec.tenants,
            });
        }
        if a.recipe as usize >= recipes.len() {
            return Err(ServeError::RecipeOutOfRange {
                index,
                recipe: a.recipe,
                n_recipes: recipes.len(),
            });
        }
    }
    let source = Source::Trace {
        arrivals: trace.arrivals().iter(),
        tenants: spec.tenants as usize,
    };
    let mut report = run_engine(
        mw,
        policy,
        n_services,
        recipes,
        &spec.classes,
        spec.backlog_cap_cycles,
        source,
        scratch,
        att,
    )?;
    let hz = mw.core(0).cost.clock_hz;
    grow(&mut scratch.tenant_latencies, scratch.shed.len());
    for &(tenant, latency) in &scratch.samples {
        scratch.tenant_latencies[tenant].push(latency);
    }
    let per_tenant = scratch.shed.iter().zip(&mut scratch.tenant_latencies);
    report.tenants = per_tenant
        .zip(0u32..)
        .map(|((shed, lat), tenant)| {
            lat.sort_unstable();
            let admitted = lat.len() as u64;
            let p99 = to_us(percentile(lat, 0.99) as f64, hz);
            let class = spec.class_of(tenant);
            TenantReport {
                tenant,
                offered: admitted + shed.queue_full + shed.backlog,
                admitted,
                shed_queue_full: shed.queue_full,
                shed_backlog: shed.backlog,
                p50_us: to_us(percentile(lat, 0.50) as f64, hz),
                p99_us: p99,
                slo_p99_us: class.slo_p99_us,
                slo_met: p99 <= class.slo_p99_us,
            }
        })
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipc::IpcSystem;
    use crate::ledger::{InvokeOpts, PhaseTotals};
    use crate::topology::Topology;

    struct Fixed;
    impl IpcSystem for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn oneway_into(
            &mut self,
            msg_len: usize,
            _opts: &InvokeOpts,
            out: &mut CycleLedger,
        ) -> u64 {
            out.charge(Phase::Trap, 100);
            out.charge(Phase::Transfer, msg_len as u64);
            msg_len as u64
        }
    }

    fn mw(n: usize) -> MultiWorld {
        MultiWorld::builder()
            .topology(Topology::single_socket(n))
            .build(|| Box::new(Fixed))
    }

    fn recipe() -> Vec<Step> {
        vec![
            Step::Oneway {
                from: 0,
                to: 1,
                bytes: 64,
            },
            Step::Compute {
                at: 1,
                cycles: 1_000,
            },
            Step::Oneway {
                from: 1,
                to: 0,
                bytes: 256,
            },
        ]
    }

    fn gen(mean: u64) -> OpenLoopGen {
        OpenLoopGen {
            process: ArrivalProcess::Poisson,
            mean_interarrival_cycles: mean,
            tenants: 2,
            users: 1_000_000,
            seed: 0xfeed,
        }
    }

    #[test]
    fn generator_is_deterministic_and_traces_diff_cleanly() {
        let a = gen(5_000).trace(500, 1).unwrap();
        let b = gen(5_000).trace(500, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.diff(&b), None);
        let c = OpenLoopGen {
            seed: 0xbeef,
            ..gen(5_000)
        }
        .trace(500, 1)
        .unwrap();
        let d = a.diff(&c).expect("different seeds diverge");
        assert_eq!(d.index, 0);
        assert!(d.ours.is_some() && d.theirs.is_some());
        // Length mismatches surface as a one-sided diff.
        let short = gen(5_000).trace(100, 1).unwrap();
        let d = a.diff(&short).expect("length mismatch diverges");
        assert_eq!(d.index, 100);
        assert!(d.theirs.is_none());
    }

    #[test]
    fn traces_are_sorted_and_tag_in_range() {
        let tr = gen(2_000).trace(2_000, 3).unwrap();
        assert_eq!(tr.len(), 2_000);
        for w in tr.arrivals().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(tr.arrivals().iter().all(|a| a.tenant < 2 && a.recipe < 3));
        // Both tenants and all recipes actually occur.
        for tn in 0..2u32 {
            assert!(tr.arrivals().iter().any(|a| a.tenant == tn));
        }
        for rc in 0..3u32 {
            assert!(tr.arrivals().iter().any(|a| a.recipe == rc));
        }
    }

    #[test]
    fn poisson_mean_interarrival_lands_near_the_spec() {
        let mean = 10_000u64;
        let n = 20_000u64;
        let tr = gen(mean).trace(n, 1).unwrap();
        let measured = tr.span_cycles() as f64 / n as f64;
        let err = (measured - mean as f64).abs() / mean as f64;
        assert!(
            err < 0.05,
            "measured mean {measured:.0} vs {mean} ({err:.3})"
        );
    }

    #[test]
    fn onoff_preserves_the_long_run_rate_but_clusters() {
        let mean = 10_000u64;
        let n = 20_000u64;
        let spec = OpenLoopGen {
            process: ArrivalProcess::OnOff {
                burst_len: 32,
                accel_x10: 80,
            },
            ..gen(mean)
        };
        let tr = spec.trace(n, 1).unwrap();
        let measured = tr.span_cycles() as f64 / n as f64;
        let err = (measured - mean as f64).abs() / mean as f64;
        assert!(
            err < 0.10,
            "long-run mean {measured:.0} vs {mean} ({err:.3})"
        );
        // Burstiness: the median gap is far below the mean gap (most
        // gaps are in-burst at 8x the rate).
        let mut gaps: Vec<u64> = tr
            .arrivals()
            .windows(2)
            .map(|w| w[1].at - w[0].at)
            .collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        assert!(
            (median as f64) < 0.4 * mean as f64,
            "median gap {median} vs mean {mean}"
        );
    }

    #[test]
    fn trace_constructor_rejects_regressions() {
        let bad = vec![
            Arrival {
                at: 10,
                tenant: 0,
                recipe: 0,
            },
            Arrival {
                at: 5,
                tenant: 0,
                recipe: 0,
            },
        ];
        assert_eq!(
            ArrivalTrace::from_arrivals(bad).unwrap_err(),
            ServeError::TraceNotSorted { index: 1 }
        );
    }

    #[test]
    fn generator_spec_errors_are_typed() {
        assert_eq!(
            gen(0).trace(10, 1).unwrap_err(),
            ServeError::ZeroMeanInterarrival
        );
        assert_eq!(
            gen(100).trace(10, 0).unwrap_err(),
            ServeError::Load(LoadError::EmptyRecipes)
        );
        let bad = OpenLoopGen {
            process: ArrivalProcess::OnOff {
                burst_len: 8,
                accel_x10: 10,
            },
            ..gen(100)
        };
        assert!(matches!(
            bad.trace(10, 1).unwrap_err(),
            ServeError::BadBurstSpec { .. }
        ));
        // A burst so long that sizing it (`2 * burst_len - 1`) would
        // overflow is rejected up front instead of panicking mid-trace.
        let huge = OpenLoopGen {
            process: ArrivalProcess::OnOff {
                burst_len: u64::MAX / 2 + 1,
                accel_x10: 80,
            },
            ..gen(100)
        };
        assert_eq!(
            huge.trace(10, 1).unwrap_err(),
            ServeError::BadBurstSpec {
                burst_len: u64::MAX / 2 + 1,
                accel_x10: 80,
            }
        );
        // The longest accepted burst still draws.
        let longest = OpenLoopGen {
            process: ArrivalProcess::OnOff {
                burst_len: u64::MAX / 2,
                accel_x10: 80,
            },
            ..gen(100)
        };
        assert_eq!(longest.trace(10, 1).unwrap().len(), 10);
    }

    fn spec2() -> ServeSpec {
        ServeSpec {
            tenants: 2,
            classes: vec![TenantClass {
                queue_cap: 64,
                slo_p99_us: f64::INFINITY,
            }],
            backlog_cap_cycles: 0,
        }
    }

    #[test]
    fn same_trace_same_spec_is_byte_identical() {
        let tr = gen(3_000).trace(2_000, 1).unwrap();
        let run_once = || {
            let mut mw = mw(2);
            serve(
                &mut mw,
                &ServePolicy::Static(Placement::RoundRobin),
                2,
                &[recipe()],
                &tr,
                &spec2(),
            )
            .unwrap()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn conservation_is_exact_globally_and_per_tenant() {
        // Overload a single core so both shed causes fire.
        let tr = gen(200).trace(5_000, 1).unwrap();
        let spec = ServeSpec {
            tenants: 2,
            classes: vec![
                TenantClass {
                    queue_cap: 4,
                    slo_p99_us: 50.0,
                },
                TenantClass {
                    queue_cap: 32,
                    slo_p99_us: f64::INFINITY,
                },
            ],
            backlog_cap_cycles: 60_000,
        };
        let mut mw = mw(1);
        let r = serve(
            &mut mw,
            &ServePolicy::Static(Placement::SameCore),
            2,
            &[recipe()],
            &tr,
            &spec,
        )
        .unwrap();
        assert_eq!(r.offered, 5_000);
        assert_eq!(r.admitted + r.shed(), r.offered, "exact conservation");
        assert!(r.shed_queue_full > 0, "tight caps must shed");
        let mut offered_sum = 0;
        for t in &r.tenants {
            assert_eq!(t.admitted + t.shed(), t.offered, "tenant {}", t.tenant);
            offered_sum += t.offered;
        }
        assert_eq!(offered_sum, r.offered);
        // The tight-cap tenant sheds more than the loose-cap tenant.
        assert!(r.tenants[0].shed_queue_full > r.tenants[1].shed_queue_full);
    }

    #[test]
    fn open_loop_tail_diverges_past_the_knee() {
        // Service time is ~1.4k cycles on one serving core; offered
        // interarrivals of 4x that are easy, 0.7x collapse the queue.
        let mk_report = |mean: u64| {
            let tr = gen(mean).trace(4_000, 1).unwrap();
            let mut mw = mw(2);
            serve(
                &mut mw,
                &ServePolicy::Static(Placement::SameCore),
                2,
                &[recipe()],
                &tr,
                &spec2(),
            )
            .unwrap()
        };
        let light = mk_report(6_000);
        let heavy = mk_report(1_000);
        assert!(
            heavy.p99_us > 5.0 * light.p99_us,
            "open-loop overload must blow the tail: light {} heavy {}",
            light.p99_us,
            heavy.p99_us
        );
        assert!(heavy.ledger.get(Phase::Queue) > light.ledger.get(Phase::Queue));
        // Queueing, not sheds: the default cap is generous.
        assert_eq!(light.shed(), 0);
    }

    #[test]
    fn sampled_attribution_matches_full_totals() {
        let tr = gen(2_500).trace(3_000, 1).unwrap();
        let policy = ServePolicy::Static(Placement::RoundRobin);
        let mut full_mw = mw(2);
        let full = serve(&mut full_mw, &policy, 2, &[recipe()], &tr, &spec2()).unwrap();
        let mut totals = PhaseTotals::new();
        let mut kept = LedgerArena::new();
        let mut scratch = ServeScratch::new();
        let mut sampled_mw = mw(2);
        let sampled = serve_with(
            &mut sampled_mw,
            &policy,
            2,
            &[recipe()],
            &tr,
            &spec2(),
            &mut scratch,
            Attribution::Sampled {
                every: 16,
                totals: &mut totals,
                arena: &mut kept,
            },
        )
        .unwrap();
        for p in Phase::ALL {
            assert_eq!(sampled.ledger.get(p), full.ledger.get(p), "{p:?}");
        }
        assert_eq!(sampled.p99_us, full.p99_us);
        assert_eq!(sampled.admitted, full.admitted);
        assert_eq!(kept.len() as u64, sampled.admitted.div_ceil(16));
    }

    #[test]
    fn autoscaler_grows_under_load_and_shrinks_when_idle() {
        // Phase 1: a hot burst; phase 2: a long idle tail. The
        // controller must grow beyond min_cores during the burst and
        // shrink back by the end.
        let hot = gen(400).trace(4_000, 1).unwrap();
        let mut arrivals = hot.arrivals().to_vec();
        let t0 = arrivals.last().unwrap().at;
        // Sparse tail: one arrival every 50k cycles, long enough for
        // the epoch cadence to walk the active set back down.
        for k in 0..500u64 {
            arrivals.push(Arrival {
                at: t0 + (k + 1) * 50_000,
                tenant: 0,
                recipe: 0,
            });
        }
        let tr = ArrivalTrace::from_arrivals(arrivals).unwrap();
        let cfg = AutoscaleCfg {
            min_cores: 1,
            max_cores: 4,
            epoch_arrivals: 64,
            grow_backlog_cycles: 10_000,
            shrink_backlog_cycles: 2_000,
        };
        let mut world = mw(4);
        let r = serve(
            &mut world,
            &ServePolicy::Autoscale(cfg),
            2,
            &[recipe()],
            &tr,
            &spec2(),
        )
        .unwrap();
        let auto = r.autoscale.expect("autoscale policy reports controller");
        assert!(auto.grow_events > 0, "burst must grow the active set");
        assert!(auto.shrink_events > 0, "idle tail must shrink it");
        assert!(auto.max_active > 1);
        assert_eq!(auto.final_active, 1, "idle tail returns to min_cores");
        assert_eq!(r.policy, "autoscale");
    }

    #[test]
    fn autoscale_growth_beats_a_capacity_capped_controller() {
        // Identical dispatch, identical trace, identical thresholds —
        // the only difference is whether the controller may grow past
        // one core. At an offered load one core cannot sustain, growth
        // is the difference between a bounded tail and collapse.
        let tr = gen(1_200).trace(6_000, 1).unwrap();
        let spec = ServeSpec {
            tenants: 2,
            classes: vec![TenantClass {
                queue_cap: 8_192,
                slo_p99_us: f64::INFINITY,
            }],
            backlog_cap_cycles: 0,
        };
        let run = |max_cores: usize| {
            let cfg = AutoscaleCfg {
                min_cores: 1,
                max_cores,
                epoch_arrivals: 32,
                grow_backlog_cycles: 10_000,
                shrink_backlog_cycles: 1_000,
            };
            let mut world = mw(4);
            serve(
                &mut world,
                &ServePolicy::Autoscale(cfg),
                2,
                &[recipe()],
                &tr,
                &spec,
            )
            .unwrap()
        };
        let capped = run(1);
        let scaled = run(4);
        assert_eq!(capped.autoscale.unwrap().max_active, 1);
        assert!(scaled.autoscale.unwrap().grow_events > 0);
        assert!(
            scaled.p99_us < capped.p99_us / 10.0,
            "scaled {} vs capped {}",
            scaled.p99_us,
            capped.p99_us
        );
    }

    #[test]
    fn structural_errors_are_typed() {
        let tr = gen(1_000).trace(100, 1).unwrap();
        let policy = ServePolicy::Static(Placement::RoundRobin);
        let mut world = mw(2);
        // Empty roster.
        assert_eq!(
            serve(&mut world, &policy, 2, &[], &tr, &spec2()).unwrap_err(),
            ServeError::Load(LoadError::EmptyRecipes)
        );
        // Empty trace.
        let empty = ArrivalTrace::from_arrivals(vec![]).unwrap();
        assert_eq!(
            serve(&mut world, &policy, 2, &[recipe()], &empty, &spec2()).unwrap_err(),
            ServeError::EmptyTrace
        );
        // Recipe out of range: the trace names recipe 1 of a 1-roster.
        let bad = gen(1_000).trace(100, 2).unwrap();
        assert!(matches!(
            serve(&mut world, &policy, 2, &[recipe()], &bad, &spec2()).unwrap_err(),
            ServeError::RecipeOutOfRange { .. }
        ));
        // Service out of range: recipe 1 names service 2 of 2 (and the
        // two-recipe trace would reach it).
        let mut far = recipe();
        far[2] = Step::Oneway {
            from: 2,
            to: 0,
            bytes: 8,
        };
        assert_eq!(
            serve(&mut world, &policy, 2, &[recipe(), far], &bad, &spec2()).unwrap_err(),
            ServeError::Load(LoadError::ServiceOutOfRange {
                recipe: 1,
                step: 2,
                service: 2,
                n_services: 2,
            })
        );
        // Tenant out of range: 2-tenant trace, 1-tenant spec.
        let spec1 = ServeSpec {
            tenants: 1,
            ..spec2()
        };
        assert!(matches!(
            serve(&mut world, &policy, 2, &[recipe()], &tr, &spec1).unwrap_err(),
            ServeError::TenantOutOfRange { .. }
        ));
        // Zero queue cap can never admit.
        let cap0 = ServeSpec {
            classes: vec![TenantClass {
                queue_cap: 0,
                slo_p99_us: 1.0,
            }],
            ..spec2()
        };
        assert_eq!(
            serve(&mut world, &policy, 2, &[recipe()], &tr, &cap0).unwrap_err(),
            ServeError::ZeroQueueCap
        );
        // Autoscale config that cannot act.
        let bad_auto = ServePolicy::Autoscale(AutoscaleCfg {
            grow_backlog_cycles: 100,
            shrink_backlog_cycles: 100,
            ..AutoscaleCfg::default()
        });
        assert!(matches!(
            serve(&mut world, &bad_auto, 2, &[recipe()], &tr, &spec2()).unwrap_err(),
            ServeError::BadAutoscale { .. }
        ));
        // A bad arrival late in the trace is still rejected before the
        // good ones ahead of it are priced.
        let late = |tenant: u32, recipe: u32| {
            let arrivals = (0..10u64)
                .map(|k| Arrival {
                    at: k * 1_000,
                    tenant: if k == 7 { tenant } else { 0 },
                    recipe: if k == 7 { recipe } else { 0 },
                })
                .collect();
            ArrivalTrace::from_arrivals(arrivals).unwrap()
        };
        let mut fresh = mw(2);
        assert_eq!(
            serve(&mut fresh, &policy, 2, &[recipe()], &late(5, 0), &spec2()).unwrap_err(),
            ServeError::TenantOutOfRange {
                index: 7,
                tenant: 5,
                tenants: 2,
            }
        );
        assert_eq!(fresh.busy_cycles(), 0, "rejected before pricing anything");
        let mut fresh = mw(2);
        assert_eq!(
            serve(&mut fresh, &policy, 2, &[recipe()], &late(0, 3), &spec2()).unwrap_err(),
            ServeError::RecipeOutOfRange {
                index: 7,
                recipe: 3,
                n_recipes: 1,
            }
        );
        assert_eq!(fresh.busy_cycles(), 0, "rejected before pricing anything");
    }

    #[test]
    fn slo_verdicts_follow_the_observed_tail() {
        let tr = gen(4_000).trace(2_000, 1).unwrap();
        let spec = ServeSpec {
            tenants: 2,
            classes: vec![
                TenantClass {
                    queue_cap: 64,
                    slo_p99_us: 1e9, // unmissable
                },
                TenantClass {
                    queue_cap: 64,
                    slo_p99_us: 0.0, // unmeetable (service time > 0)
                },
            ],
            backlog_cap_cycles: 0,
        };
        let mut world = mw(2);
        let r = serve(
            &mut world,
            &ServePolicy::Static(Placement::RoundRobin),
            2,
            &[recipe()],
            &tr,
            &spec,
        )
        .unwrap();
        assert!(r.tenants[0].slo_met);
        assert!(!r.tenants[1].slo_met);
    }

    #[test]
    fn serve_scratch_reuse_matches_fresh_scratch() {
        let big = gen(300).trace(4_000, 1).unwrap();
        let small = gen(4_000).trace(500, 1).unwrap();
        let policy = ServePolicy::Static(Placement::RoundRobin);
        let mut scratch = ServeScratch::new();
        let mut arena = LedgerArena::new();
        let mut w1 = mw(2);
        let _ = serve_with(
            &mut w1,
            &policy,
            2,
            &[recipe()],
            &big,
            &spec2(),
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap();
        let mut w2 = mw(2);
        let reused = serve_with(
            &mut w2,
            &policy,
            2,
            &[recipe()],
            &small,
            &spec2(),
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap();
        let mut w3 = mw(2);
        let fresh = serve(&mut w3, &policy, 2, &[recipe()], &small, &spec2()).unwrap();
        assert_eq!(reused, fresh, "reused serve scratch must not leak state");
    }
}
