//! Deterministic windowed load generation over a [`MultiWorld`].
//!
//! The §5.4 evaluation serves one request at a time; the ROADMAP's
//! north star is a system under *concurrent* load. This module drives
//! request recipes (sequences of [`Step`]s in service-id space) through
//! N cores in virtual time:
//!
//! * **windowed clients** — a fixed population of clients, each keeping
//!   up to `window` requests outstanding ([`run_windowed`]). `window = 1`
//!   is the classic closed loop: a client issues its next request only
//!   after the previous one completes (plus think time). Wider windows
//!   model asynchronous submission. The clients are an arrival source of
//!   the serving engine in [`crate::serve`]; this module has no request
//!   loop of its own, only the per-request driver ([`run_request`]) the
//!   engine shares;
//! * **FIFO cores in virtual time** — each core is a FIFO server
//!   ([`MultiWorld::free_at`]); a step issued at `t` starts at
//!   `max(t, core_free)`. In windowed runs the wait `core_free - t` is
//!   attributed to [`Phase::Queue`] in the request ledger, so the report
//!   shows where time goes as the window opens. Closed-loop runs keep
//!   their historical ledgers untouched (no `Queue` spans) — waiting is
//!   folded into latency as it always was;
//! * **deterministic** — request ordering is "lowest issue-time first,
//!   ties to the lowest client index", and the only randomness is the
//!   in-tree seeded [`ycsb::rng`], so the same seed reproduces the same
//!   percentile report bit for bit — and `window = 1` reproduces the
//!   pre-windowed closed-loop report exactly;
//! * **ledger-derived** — every step charges its phase spans into a
//!   [`CycleLedger`]; a request's latency is the virtual-time span from
//!   issue to last step (queueing included), and the report's phase
//!   breakdown (how much of the fleet's IPC time was cross-core,
//!   transfer, queueing, …) is the merged per-request ledger.

use crate::ipc::EngineCacheStats;
use crate::ledger::{Attribution, CycleLedger, LedgerArena, LedgerRef, Phase, PhaseTotals};
use crate::multicore::{CoreId, MultiWorld, Placement, PlacementError};
use crate::serve::{run_engine, ServePolicy, ServeScratch, Source, TenantClass};
use std::fmt;
use ycsb::rng::Rng;

// Recipes are sequences of `Step`s in *service-id* space, which
// `MultiWorld::exec_into` runs under a placement's core map. Re-exported
// here because recipe construction is this module's vocabulary.
pub use crate::multicore::Step;

/// Closed-loop generator parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadGen {
    /// Concurrent clients (closed population).
    pub clients: usize,
    /// Total requests to issue across all clients.
    pub requests: u64,
    /// Seed for recipe selection (and nothing else).
    pub seed: u64,
    /// Client think time between a completion and the next issue.
    pub think_cycles: u64,
}

impl Default for LoadGen {
    fn default() -> Self {
        LoadGen {
            clients: 16,
            requests: 400,
            seed: 0x59c5_bdad,
            think_cycles: 0,
        }
    }
}

/// A load run was asked to do something structurally impossible. Every
/// variant but `Placement` is raised at [`run_windowed_with`] (or
/// [`crate::serve::serve_with`]) entry, before any request is priced;
/// `Placement` at the request whose core map was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// The recipe roster is empty: there is nothing to draw, and
    /// `Rng::below(0)` has no uniform value to produce.
    EmptyRecipes,
    /// The client population is zero — no one can ever issue.
    NoClients,
    /// `window = 0`: a client must keep at least one request in flight.
    ZeroWindow,
    /// The placement policy rejected a service → core map.
    Placement(PlacementError),
    /// Step `step` of recipe `recipe` names service `service` (in a step
    /// field, or as a registered program's client or hop), outside the
    /// run's `0..n_services`.
    ServiceOutOfRange {
        /// Index of the recipe in the roster.
        recipe: usize,
        /// Index of the step in the recipe.
        step: usize,
        /// The out-of-range service id.
        service: usize,
        /// Services the run maps to cores.
        n_services: usize,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::EmptyRecipes => write!(f, "empty recipe roster: nothing to draw"),
            LoadError::NoClients => write!(f, "zero clients: no one can issue requests"),
            LoadError::ZeroWindow => {
                write!(
                    f,
                    "window = 0: a client keeps at least one request in flight"
                )
            }
            LoadError::Placement(e) => write!(f, "placement rejected the core map: {e}"),
            LoadError::ServiceOutOfRange {
                recipe,
                step,
                service,
                n_services,
            } => write!(
                f,
                "recipe {recipe}, step {step}: service {service} is outside 0..{n_services}"
            ),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Placement(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlacementError> for LoadError {
    fn from(e: PlacementError) -> Self {
        LoadError::Placement(e)
    }
}

/// The percentile report of one load run. All quantities derive from
/// per-request virtual-time spans and merged invocation ledgers; two
/// runs with the same seed produce identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// IPC system under test.
    pub system: String,
    /// Placement policy label.
    pub policy: &'static str,
    /// Cores in the world.
    pub cores: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests each client keeps outstanding (1 = closed loop).
    pub window: usize,
    /// Requests completed.
    pub requests: u64,
    /// IPC invocations issued (a [`Step::Batch`] of n counts n).
    pub ipc_calls: u64,
    /// Virtual time of the last completion.
    pub makespan_cycles: u64,
    /// Busy cycles summed over cores (utilization numerator).
    pub busy_cycles: u64,
    /// Completed requests per second of virtual time.
    pub throughput_rps: f64,
    /// Mean request latency (µs).
    pub mean_us: f64,
    /// Median request latency (µs).
    pub p50_us: f64,
    /// 95th-percentile request latency (µs).
    pub p95_us: f64,
    /// 99th-percentile request latency (µs).
    pub p99_us: f64,
    /// Phase ledger merged over every request's IPC invocations (plus
    /// [`Phase::Queue`] waiting, windowed runs only).
    pub ledger: CycleLedger,
    /// Engine-cache counters summed over cores, for systems that model
    /// one ([`None`] otherwise).
    pub engine_cache: Option<EngineCacheStats>,
}

impl LoadReport {
    /// Fraction of all IPC cycles that were cross-core surcharge.
    pub fn cross_core_fraction(&self) -> f64 {
        self.ledger.fraction(Phase::CrossCore)
    }

    /// Fraction of all ledger cycles that were queue waiting (0 in
    /// closed-loop runs, which do not attribute waiting).
    pub fn queue_fraction(&self) -> f64 {
        self.ledger.fraction(Phase::Queue)
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
///
/// Convention: the quantile `q ∈ [0, 1]` selects the 1-based rank
/// `⌈q·n⌉`, clamped to `[1, n]` — so `q = 0.5` over 100 samples is the
/// 50th smallest, `q = 0` the minimum, `q = 1` the maximum, and the
/// empty slice reports 0 at every quantile. `q` outside `[0, 1]` is a
/// contract violation (debug-asserted): `q > 1` would silently clamp to
/// the maximum, a negative `q` to the minimum, and a NaN rank would
/// reach the `f64 → usize` cast whose result for NaN is an
/// implementation artifact (0) rather than a defined quantile.
pub(crate) fn percentile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(
        (0.0..=1.0).contains(&q),
        "percentile: q = {q} outside [0, 1] (NaN included) has no nearest-rank meaning"
    );
    if sorted.is_empty() {
        return 0;
    }
    // q is in [0, 1] (asserted above), so the rank is bounded by len and
    // the cast back from f64 cannot truncate.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run one request's steps starting at virtual time `t0` with services
/// mapped to cores by `map`. Returns the completion time and the merged
/// IPC ledger of the request.
pub fn run_request(
    mw: &mut MultiWorld,
    map: &[CoreId],
    steps: &[Step],
    t0: u64,
) -> (u64, CycleLedger) {
    let mut arena = LedgerArena::new();
    let mut ledger = CycleLedger::new();
    let mut step_ledger = CycleLedger::new();
    let (done, _) = attribute(&mut Attribution::Full(&mut arena), 0, &mut ledger, |sink| {
        run_request_sink(mw, map, steps, t0, false, &mut step_ledger, sink)
    });
    (done, ledger)
}

/// Where one request's spans go: always into the flat totals when
/// sampling, and into an arena ledger when this request keeps
/// span-level detail (every request in `Full` mode, 1-in-N in
/// `Sampled`).
pub(crate) struct ReqSink<'a> {
    totals: Option<&'a mut PhaseTotals>,
    arena: Option<(&'a mut LedgerArena, LedgerRef)>,
}

impl ReqSink<'_> {
    fn charge(&mut self, phase: Phase, cycles: u64) {
        if let Some(t) = &mut self.totals {
            t.charge(phase, cycles);
        }
        if let Some((a, h)) = &mut self.arena {
            a.charge(*h, phase, cycles);
        }
    }

    fn merge(&mut self, ledger: &CycleLedger) {
        if let Some(t) = &mut self.totals {
            t.add_ledger(ledger);
        }
        if let Some((a, h)) = &mut self.arena {
            a.merge_ledger(*h, ledger);
        }
    }
}

/// Run one request through `att`: `run` prices it into the
/// [`ReqSink`] it is handed and returns `(done, ipc_calls)`. `sample` is
/// the request's index in the sampling sequence (`Sampled` keeps the
/// span ledger of every `every`-th). In `Full` mode the request's spans
/// are folded into `report` in first-charge order and the arena is
/// rolled back for reuse. The serving engine's one attribution path.
pub(crate) fn attribute(
    att: &mut Attribution<'_>,
    sample: u64,
    report: &mut CycleLedger,
    run: impl FnOnce(&mut ReqSink<'_>) -> (u64, u64),
) -> (u64, u64) {
    match att {
        Attribution::Full(arena) => {
            let mark = arena.mark();
            let h = arena.begin();
            let out = run(&mut ReqSink {
                totals: None,
                arena: Some((arena, h)),
            });
            for (p, cy) in arena.spans(h) {
                report.charge(p, cy);
            }
            arena.truncate(mark);
            out
        }
        Attribution::Sampled {
            every,
            totals,
            arena,
        } => {
            let keep = *every != 0 && sample.is_multiple_of(*every);
            let h = if keep { Some(arena.begin()) } else { None };
            run(&mut ReqSink {
                totals: Some(totals),
                arena: h.map(|h| (&mut **arena, h)),
            })
        }
    }
}

/// Execute one request's steps through [`MultiWorld::exec_into`] with
/// `step_ledger` as scratch, landing the request's spans in `sink`.
/// When `attribute_queue`, the wait each step spends behind its serving
/// core's earlier work is charged to [`Phase::Queue`] ahead of the
/// step's own spans. Returns `(done, ipc_calls)`.
pub(crate) fn run_request_sink(
    mw: &mut MultiWorld,
    map: &[CoreId],
    steps: &[Step],
    t0: u64,
    attribute_queue: bool,
    step_ledger: &mut CycleLedger,
    sink: &mut ReqSink<'_>,
) -> (u64, u64) {
    let mut t = t0;
    let mut ipc_calls = 0u64;
    for &step in steps {
        let c = mw.exec_into(step, map, t, step_ledger);
        if attribute_queue {
            sink.charge(Phase::Queue, c.queued);
        }
        sink.merge(step_ledger);
        ipc_calls += c.calls;
        t = c.done;
    }
    (t, ipc_calls)
}

/// Reject an empty roster, then the first step across `recipes` that
/// names a service id outside `0..n_services` — a step field, or a
/// registered program's client or hop.
pub(crate) fn check_roster(
    mw: &MultiWorld,
    recipes: &[Vec<Step>],
    n_services: usize,
) -> Result<(), LoadError> {
    if recipes.is_empty() {
        return Err(LoadError::EmptyRecipes);
    }
    for (recipe, steps) in recipes.iter().enumerate() {
        for (step, s) in steps.iter().enumerate() {
            let service = match *s {
                Step::Oneway { from, to, .. }
                | Step::Batch { from, to, .. }
                | Step::Roundtrip { from, to, .. } => from.max(to),
                Step::Compute { at, .. } | Step::DataPass { at, .. } => at,
                Step::Fused(id) => {
                    let p = mw.program(id);
                    p.hops()
                        .iter()
                        .map(|h| h.service)
                        .fold(p.client(), usize::max)
                }
            };
            if service >= n_services {
                return Err(LoadError::ServiceOutOfRange {
                    recipe,
                    step,
                    service,
                    n_services,
                });
            }
        }
    }
    Ok(())
}

/// The serving engine's one scratch type under its closed-loop name,
/// kept so code written against the closed-loop API compiles unchanged.
pub type SweepScratch = ServeScratch;

/// Drive `spec.requests` requests from `spec.clients` *windowed*
/// clients through `mw` under `policy`: each client keeps up to
/// `window` requests outstanding, issuing a replacement (after think
/// time) as the oldest-completing one finishes. Each request uses a
/// recipe drawn from `recipes` by the seeded RNG; `n_services` is the
/// recipe service-id space (service 0 is the client). Issue order is
/// "lowest issue-time first, ties to the lowest client index"; cores
/// serve FIFO in virtual time, and (for `window > 1`) per-step queue
/// waiting is charged to [`Phase::Queue`] in the report ledger.
/// `window = 1` is the classic closed loop.
///
/// # Errors
///
/// See [`run_windowed_with`].
pub fn run_windowed(
    mw: &mut MultiWorld,
    policy: &Placement,
    n_services: usize,
    recipes: &[Vec<Step>],
    spec: &LoadGen,
    window: usize,
) -> Result<LoadReport, LoadError> {
    let mut arena = LedgerArena::new();
    run_windowed_with(
        mw,
        policy,
        n_services,
        recipes,
        spec,
        window,
        &mut ServeScratch::new(),
        Attribution::Full(&mut arena),
    )
}

/// [`run_windowed`] with caller-provided scratch buffers and an explicit
/// [`Attribution`] sink — the zero-alloc hot path. `Full` reproduces
/// [`run_windowed`] bit for bit. `Sampled` keeps every per-phase total
/// exact and gives up only span order and zero-cycle spans: its report
/// ledger is rendered in canonical [`Phase::ALL`] order. Latency,
/// throughput and counters are identical across modes.
///
/// The clients are an arrival source of the serving engine
/// ([`crate::serve`]): one tenant per client whose admission queue holds
/// `window` requests, a static placement by request index and no
/// backlog bound. A client only issues once its window has room, so
/// that queue never sheds and every request is served.
///
/// # Errors
///
/// [`LoadError`] when the recipe roster is empty, the client population
/// is zero, the window is zero, or a recipe names a service outside
/// `0..n_services` — all checked before pricing anything — or when the
/// placement policy rejects a service → core map at the offending
/// request.
#[allow(clippy::too_many_arguments)] // the sweep axes are the signature
pub fn run_windowed_with(
    mw: &mut MultiWorld,
    policy: &Placement,
    n_services: usize,
    recipes: &[Vec<Step>],
    spec: &LoadGen,
    window: usize,
    scratch: &mut ServeScratch,
    att: Attribution<'_>,
) -> Result<LoadReport, LoadError> {
    check_roster(mw, recipes, n_services)?;
    if spec.clients == 0 {
        return Err(LoadError::NoClients);
    }
    if window == 0 {
        return Err(LoadError::ZeroWindow);
    }
    let clients = Source::Clients {
        gen: spec,
        window,
        n_recipes: recipes.len() as u64,
        rng: Rng::seed_from_u64(spec.seed),
    };
    let class = TenantClass {
        queue_cap: window,
        slo_p99_us: f64::INFINITY,
    };
    let r = run_engine(
        mw,
        &ServePolicy::Static(policy.clone()),
        n_services,
        recipes,
        std::slice::from_ref(&class),
        0,
        clients,
        scratch,
        att,
    )?;
    debug_assert_eq!(r.shed(), 0, "a client never overflows its window");
    Ok(LoadReport {
        system: r.system,
        policy: policy.label(),
        cores: r.cores,
        clients: spec.clients,
        window,
        requests: r.admitted,
        ipc_calls: r.ipc_calls,
        makespan_cycles: r.makespan_cycles,
        busy_cycles: r.busy_cycles,
        throughput_rps: r.goodput_rps,
        mean_us: r.mean_us,
        p50_us: r.p50_us,
        p95_us: r.p95_us,
        p99_us: r.p99_us,
        ledger: r.ledger,
        engine_cache: r.engine_cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipc::IpcSystem;
    use crate::ledger::InvokeOpts;
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
            Step::Compute { at: 1, cycles: 500 },
            Step::Roundtrip {
                from: 1,
                to: 2,
                request: 16,
                response: 1024,
            },
            Step::Oneway {
                from: 1,
                to: 0,
                bytes: 1024,
            },
        ]
    }

    fn spec() -> LoadGen {
        LoadGen {
            clients: 4,
            requests: 100,
            seed: 7,
            think_cycles: 0,
        }
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let run_once = || {
            let mut mw = mw(4);
            run_windowed(&mut mw, &Placement::RoundRobin, 3, &[recipe()], &spec(), 1).unwrap()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn different_seeds_may_differ_but_stay_consistent() {
        let mut mw = mw(2);
        let r = run_windowed(&mut mw, &Placement::SameCore, 3, &[recipe()], &spec(), 1).unwrap();
        assert_eq!(r.requests, 100);
        assert!(r.makespan_cycles > 0);
        assert!(r.p50_us <= r.p95_us && r.p95_us <= r.p99_us);
        assert!(r.throughput_rps > 0.0);
        // Same-core runs never pay cross-core.
        assert_eq!(r.ledger.get(Phase::CrossCore), 0);
    }

    #[test]
    fn scale_out_wins_once_work_dominates_the_surcharge() {
        // With heavy per-request compute the cross-core tax is amortized
        // and 4 cores beat 1; with a tiny request it is not (the §5.2
        // point: cross-core IPC costs ~10k cycles, so spreading cheap
        // calls across cores is a loss for message-passing kernels).
        let heavy = {
            let mut r = recipe();
            r.push(Step::Compute {
                at: 1,
                cycles: 50_000,
            });
            r
        };
        let mut one = mw(1);
        let base = run_windowed(
            &mut one,
            &Placement::SameCore,
            3,
            std::slice::from_ref(&heavy),
            &spec(),
            1,
        )
        .unwrap();
        let mut four = mw(4);
        let scaled =
            run_windowed(&mut four, &Placement::RoundRobin, 3, &[heavy], &spec(), 1).unwrap();
        assert!(
            scaled.throughput_rps > base.throughput_rps,
            "round-robin over 4 cores ({:.0} rps) should beat 1 core ({:.0} rps)",
            scaled.throughput_rps,
            base.throughput_rps
        );
        // Cross-core hops were actually priced.
        assert!(scaled.ledger.get(Phase::CrossCore) > 0);
        assert!(scaled.cross_core_fraction() > 0.0);

        // Tiny requests: the surcharge dominates and scale-out loses.
        let mut one = mw(1);
        let base =
            run_windowed(&mut one, &Placement::SameCore, 3, &[recipe()], &spec(), 1).unwrap();
        let mut four = mw(4);
        let scaled = run_windowed(
            &mut four,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &spec(),
            1,
        )
        .unwrap();
        assert!(scaled.throughput_rps < base.throughput_rps);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn empty_recipe_roster_is_a_typed_error_not_a_draw_from_nothing() {
        // The release-mode failure this forecloses: `Rng::below(0)`
        // used to debug_assert only, so a release build would "draw" 0
        // from an empty roster and panic on the slice index downstream.
        // Now the roster is validated at entry with a typed error.
        let mut mw = mw(2);
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let err = run_windowed_with(
            &mut mw,
            &Placement::RoundRobin,
            3,
            &[],
            &spec(),
            1,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap_err();
        assert_eq!(err, LoadError::EmptyRecipes);
        assert!(err.to_string().contains("empty recipe roster"));
    }

    #[test]
    fn out_of_range_service_ids_are_typed_errors() {
        // Unchecked, both would index the core map out of bounds mid-run:
        // a step field naming service 3 of 3, and a program hop naming
        // service 5.
        let mut mw = mw(2);
        let program = crate::program::Recipe::new(0)
            .hop(1, 8)
            .hop(5, 8)
            .reply(8)
            .build()
            .unwrap();
        let fused = vec![recipe()[0], Step::Fused(mw.register_program(program))];
        let mut bad_step = recipe();
        bad_step[2] = Step::Roundtrip {
            from: 1,
            to: 3,
            request: 16,
            response: 16,
        };
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        for (recipes, step, service) in [([recipe(), bad_step], 2, 3), ([recipe(), fused], 1, 5)] {
            let err = run_windowed_with(
                &mut mw,
                &Placement::RoundRobin,
                3,
                &recipes,
                &spec(),
                1,
                &mut scratch,
                Attribution::Full(&mut arena),
            )
            .unwrap_err();
            assert_eq!(
                err,
                LoadError::ServiceOutOfRange {
                    recipe: 1,
                    step,
                    service,
                    n_services: 3,
                }
            );
            assert!(err
                .to_string()
                .contains(&format!("step {step}: service {service}")));
        }
        assert_eq!(mw.busy_cycles(), 0, "rejected before pricing anything");
    }

    #[test]
    fn zero_clients_and_zero_window_are_typed_errors() {
        let mut mw = mw(2);
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let no_clients = LoadGen {
            clients: 0,
            ..spec()
        };
        let err = run_windowed_with(
            &mut mw,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &no_clients,
            1,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap_err();
        assert_eq!(err, LoadError::NoClients);
        let err = run_windowed_with(
            &mut mw,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &spec(),
            0,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap_err();
        assert_eq!(err, LoadError::ZeroWindow);
    }

    #[test]
    fn rejected_placement_surfaces_as_a_typed_error() {
        let mut mw = mw(2);
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        // A pinned map covering 1 service cannot place a 3-service recipe.
        let err = run_windowed_with(
            &mut mw,
            &Placement::Pinned(vec![0]),
            3,
            &[recipe()],
            &spec(),
            1,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap_err();
        assert!(matches!(err, LoadError::Placement(_)), "{err}");
    }

    #[test]
    fn scratch_reused_across_shrinking_cells_matches_a_fresh_scratch() {
        // Regression for cross-cell contamination: run a large cell
        // (many clients, deep windows — every scratch buffer grows),
        // then a small cell with the *same* scratch, and require the
        // small cell's report to be bit-identical to one produced with
        // a fresh scratch. Every buffer the large cell dirtied (issue
        // heap, per-client outstanding heaps beyond the small cell's
        // client count, latency sample) must have been cleared on entry.
        let big = LoadGen {
            clients: 64,
            requests: 400,
            seed: 9,
            think_cycles: 10,
        };
        let small = LoadGen {
            clients: 3,
            requests: 50,
            seed: 4,
            think_cycles: 0,
        };
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let mut mw_big = mw(4);
        let _ = run_windowed_with(
            &mut mw_big,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &big,
            16,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap();
        let mut mw_small = mw(4);
        let reused = run_windowed_with(
            &mut mw_small,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &small,
            2,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap();
        let mut fresh_scratch = SweepScratch::new();
        let mut fresh_arena = LedgerArena::new();
        let mut mw_fresh = mw(4);
        let fresh = run_windowed_with(
            &mut mw_fresh,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &small,
            2,
            &mut fresh_scratch,
            Attribution::Full(&mut fresh_arena),
        )
        .unwrap();
        assert_eq!(reused, fresh, "reused scratch must not leak state");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn percentile_rejects_q_above_one() {
        // q = 1.5 used to clamp silently to the maximum; the nearest-rank
        // contract now debug-asserts the quantile range.
        let v: Vec<u64> = (1..=10).collect();
        let _ = percentile(&v, 1.5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn percentile_rejects_nan_q() {
        // A NaN rank would otherwise feed the f64 -> usize cast, whose
        // NaN result (0) is an artifact, not a quantile.
        let v: Vec<u64> = (1..=10).collect();
        let _ = percentile(&v, f64::NAN);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty slice: 0 at every quantile.
        assert_eq!(percentile(&[], 0.0), 0);
        assert_eq!(percentile(&[], 1.0), 0);
        // Single element: that element at every quantile.
        assert_eq!(percentile(&[42], 0.0), 42);
        assert_eq!(percentile(&[42], 0.5), 42);
        assert_eq!(percentile(&[42], 1.0), 42);
        // q = 0.0 clamps to the first element, q = 1.0 is the last.
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 10);
        // Tiny q still lands on the first element, not out of range.
        assert_eq!(percentile(&v, 0.001), 1);
        // Nearest-rank rounding: rank = ceil(q * n), so q just past a
        // rank boundary steps to the next element.
        assert_eq!(percentile(&v, 0.10), 1);
        assert_eq!(percentile(&v, 0.1000001), 2);
        assert_eq!(percentile(&v, 0.899), 9);
        assert_eq!(percentile(&v, 0.901), 10);
        // Duplicates: the rank convention reads through them unchanged.
        assert_eq!(percentile(&[5, 5, 5, 7], 0.75), 5);
        assert_eq!(percentile(&[5, 5, 5, 7], 0.76), 7);
    }

    /// The closed-loop driver exactly as it existed before the windowed
    /// refactor — kept here as the oracle that pins `run` /
    /// `run_windowed(window = 1)` to the historical behavior bit for bit.
    fn closed_loop_oracle(
        mw: &mut MultiWorld,
        policy: &Placement,
        n_services: usize,
        recipes: &[Vec<Step>],
        spec: &LoadGen,
    ) -> (Vec<u64>, CycleLedger, u64) {
        let mut rng = ycsb::rng::Rng::seed_from_u64(spec.seed);
        let mut ready = vec![0u64; spec.clients];
        let mut latencies = Vec::new();
        let mut ledger = CycleLedger::new();
        let mut makespan = 0u64;
        for r in 0..spec.requests {
            let mut c = 0;
            for i in 1..ready.len() {
                if ready[i] < ready[c] {
                    c = i;
                }
            }
            let t0 = ready[c];
            let pick = usize::try_from(rng.below(recipes.len() as u64)).expect("index fits usize");
            let recipe = &recipes[pick];
            let map = policy
                .assign(r, n_services, mw)
                .expect("placement rejected the core map");
            let (done, req_ledger) = run_request(mw, &map, recipe, t0);
            ledger.merge(&req_ledger);
            latencies.push(done - t0);
            makespan = makespan.max(done);
            ready[c] = done + spec.think_cycles;
        }
        latencies.sort_unstable();
        (latencies, ledger, makespan)
    }

    #[test]
    fn window_of_one_reproduces_the_closed_loop_bit_for_bit() {
        let spec = LoadGen {
            think_cycles: 250,
            ..spec()
        };
        let mut oracle_mw = mw(4);
        let (lat, ledger, makespan) = closed_loop_oracle(
            &mut oracle_mw,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &spec,
        );
        // Built explicitly on the single-socket u500 preset: the NUMA-aware
        // pipeline must reproduce the historical closed loop bit for bit.
        let mut mw = MultiWorld::builder()
            .topology(Topology::u500())
            .build(|| Box::new(Fixed));
        let r = run_windowed(&mut mw, &Placement::RoundRobin, 3, &[recipe()], &spec, 1).unwrap();
        assert_eq!(r.ledger, ledger, "same merged ledger, span for span");
        assert_eq!(r.makespan_cycles, makespan);
        assert_eq!(r.busy_cycles, oracle_mw.busy_cycles());
        let hz = mw.core(0).cost.clock_hz;
        assert_eq!(r.p99_us, percentile(&lat, 0.99) as f64 / hz as f64 * 1e6);
        // No queue attribution in the closed loop — not even zero spans.
        assert_eq!(r.ledger.get(Phase::Queue), 0);
        assert!(!r.ledger.spans().iter().any(|(p, _)| *p == Phase::Queue));
        // And a second run on a fresh world is the same thing.
        let mut mw2 = MultiWorld::builder()
            .topology(Topology::u500())
            .build(|| Box::new(Fixed));
        assert_eq!(
            run_windowed(&mut mw2, &Placement::RoundRobin, 3, &[recipe()], &spec, 1).unwrap(),
            r
        );
    }

    /// The windowed driver exactly as it existed before the event-queue
    /// refactor: an O(clients) linear min-scan picks the next issuer and
    /// an O(window) linear min-scan picks the completion a full window
    /// replaces. Pins the `BinaryHeap` event queues to the historical
    /// order ("lowest time first, ties to the lowest client index").
    /// Also returns the issue sequence `(t0, client, recipe)`.
    #[allow(clippy::type_complexity)] // latencies, ledger, makespan, issues
    fn windowed_linear_oracle(
        mw: &mut MultiWorld,
        policy: &Placement,
        n_services: usize,
        recipes: &[Vec<Step>],
        spec: &LoadGen,
        window: usize,
    ) -> (Vec<u64>, CycleLedger, u64, Vec<(u64, usize, usize)>) {
        let attribute_queue = window > 1;
        let mut rng = ycsb::rng::Rng::seed_from_u64(spec.seed);
        let mut avail = vec![0u64; spec.clients];
        let mut outstanding: Vec<Vec<u64>> = vec![Vec::new(); spec.clients];
        let mut issued = Vec::new();
        let mut latencies = Vec::new();
        let mut ledger = CycleLedger::new();
        let mut makespan = 0u64;
        for r in 0..spec.requests {
            let mut c = 0;
            for i in 1..avail.len() {
                if avail[i] < avail[c] {
                    c = i;
                }
            }
            let t0 = avail[c];
            let pick = usize::try_from(rng.below(recipes.len() as u64)).expect("index fits usize");
            issued.push((t0, c, pick));
            let recipe = &recipes[pick];
            let map = policy
                .assign(r, n_services, mw)
                .expect("placement rejected the core map");
            let mut arena = LedgerArena::new();
            let (done, _) = attribute(&mut Attribution::Full(&mut arena), r, &mut ledger, |sink| {
                let mut step_ledger = CycleLedger::new();
                run_request_sink(
                    mw,
                    &map,
                    recipe,
                    t0,
                    attribute_queue,
                    &mut step_ledger,
                    sink,
                )
            });
            latencies.push(done - t0);
            makespan = makespan.max(done);
            outstanding[c].push(done + spec.think_cycles);
            avail[c] = if outstanding[c].len() >= window {
                let (min_i, _) = outstanding[c]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| **t)
                    .expect("window >= 1");
                let first_done = outstanding[c].swap_remove(min_i);
                t0.max(first_done)
            } else {
                t0
            };
        }
        latencies.sort_unstable();
        (latencies, ledger, makespan, issued)
    }

    #[test]
    fn heap_event_queues_match_the_linear_scan_oracle() {
        // The determinism pin for the event-queue satellite: for every
        // window the heap-driven run reproduces the linear-scan driver's
        // latency percentiles, merged ledger, and makespan exactly.
        let spec = LoadGen {
            think_cycles: 350,
            ..spec()
        };
        for window in [1usize, 4, 16] {
            let mut oracle_mw = mw(4);
            let (lat, ledger, makespan, _) = windowed_linear_oracle(
                &mut oracle_mw,
                &Placement::RoundRobin,
                3,
                &[recipe()],
                &spec,
                window,
            );
            let mut heap_mw = mw(4);
            let r = run_windowed(
                &mut heap_mw,
                &Placement::RoundRobin,
                3,
                &[recipe()],
                &spec,
                window,
            )
            .unwrap();
            assert_eq!(r.ledger, ledger, "w={window}: same spans");
            assert_eq!(r.makespan_cycles, makespan, "w={window}");
            let hz = heap_mw.core(0).cost.clock_hz;
            for (q, got) in [(0.50, r.p50_us), (0.95, r.p95_us), (0.99, r.p99_us)] {
                let want = percentile(&lat, q) as f64 / hz as f64 * 1e6;
                assert_eq!(got, want, "w={window} q={q}");
            }
        }
    }

    #[test]
    fn closed_loop_equals_a_queue_capped_open_loop() {
        // The closed loop's own issue sequence, replayed open-loop with
        // one tenant per client, queue cap = window and the same static
        // placement, sheds nothing and reproduces the closed-loop report.
        // The one difference: at window 1 the closed loop leaves out the
        // `Queue` spans the open loop always attributes.
        use crate::serve::{serve, Arrival, ArrivalTrace, ServeSpec};
        let short = vec![
            Step::Oneway {
                from: 0,
                to: 2,
                bytes: 32,
            },
            Step::Compute { at: 2, cycles: 80 },
        ];
        let recipes = [recipe(), short];
        for policy in [
            Placement::RoundRobin,
            Placement::SameCore,
            Placement::LeastLoaded,
        ] {
            for think_cycles in [0, 250, 5_000] {
                for window in [1usize, 2, 4, 8] {
                    let at = format!("{} think={think_cycles} w={window}", policy.label());
                    let spec = LoadGen {
                        think_cycles,
                        ..spec()
                    };
                    let (.., issued) =
                        windowed_linear_oracle(&mut mw(4), &policy, 3, &recipes, &spec, window);
                    let arrivals = issued
                        .iter()
                        .map(|&(at, client, recipe)| Arrival {
                            at,
                            tenant: u32::try_from(client).unwrap(),
                            recipe: u32::try_from(recipe).unwrap(),
                        })
                        .collect();
                    let trace = ArrivalTrace::from_arrivals(arrivals).unwrap();
                    let serve_spec = ServeSpec {
                        tenants: u32::try_from(spec.clients).unwrap(),
                        classes: vec![TenantClass {
                            queue_cap: window,
                            slo_p99_us: f64::INFINITY,
                        }],
                        backlog_cap_cycles: 0,
                    };
                    let open = serve(
                        &mut mw(4),
                        &ServePolicy::Static(policy.clone()),
                        3,
                        &recipes,
                        &trace,
                        &serve_spec,
                    )
                    .unwrap();
                    let closed =
                        run_windowed(&mut mw(4), &policy, 3, &recipes, &spec, window).unwrap();
                    assert_eq!(open.shed(), 0, "{at}");
                    assert_eq!(open.admitted, closed.requests, "{at}");
                    assert_eq!(open.makespan_cycles, closed.makespan_cycles, "{at}");
                    assert_eq!(open.busy_cycles, closed.busy_cycles, "{at}");
                    assert_eq!(open.ipc_calls, closed.ipc_calls, "{at}");
                    assert_eq!(
                        [open.mean_us, open.p50_us, open.p95_us, open.p99_us],
                        [closed.mean_us, closed.p50_us, closed.p95_us, closed.p99_us],
                        "{at}"
                    );
                    if window == 1 {
                        let unqueued = open
                            .ledger
                            .spans()
                            .iter()
                            .filter(|(p, _)| *p != Phase::Queue);
                        assert!(unqueued.eq(closed.ledger.spans()), "{at}");
                    } else {
                        assert_eq!(open.ledger, closed.ledger, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn windowed_same_seed_is_bit_identical() {
        let run_once = || {
            let mut mw = mw(4);
            run_windowed(&mut mw, &Placement::RoundRobin, 3, &[recipe()], &spec(), 16).unwrap()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn open_windows_attribute_queueing() {
        // 4 clients with 4 requests in flight each against one core:
        // almost everything waits, and the wait lands in Phase::Queue.
        let heavy = vec![Step::Roundtrip {
            from: 0,
            to: 1,
            request: 64,
            response: 4096,
        }];
        let mut mw = mw(1);
        let r = run_windowed(&mut mw, &Placement::SameCore, 2, &[heavy], &spec(), 4).unwrap();
        assert!(r.ledger.get(Phase::Queue) > 0, "contention must queue");
        assert!(r.queue_fraction() > 0.0);
        assert_eq!(r.window, 4);
        // Queue time is *waiting*, not work: it never inflates core busy
        // cycles, so utilization stays bounded by the makespan.
        assert!(r.busy_cycles <= r.cores as u64 * r.makespan_cycles);
    }

    #[test]
    fn wider_windows_do_not_reduce_throughput() {
        // With think time dominating service time the closed loop leaves
        // cores idle while clients think; an open window hides that.
        let spec = LoadGen {
            clients: 4,
            requests: 200,
            seed: 11,
            think_cycles: 200_000,
        };
        let rps = |window: usize| {
            let mut mw = mw(2);
            run_windowed(
                &mut mw,
                &Placement::RoundRobin,
                3,
                &[recipe()],
                &spec,
                window,
            )
            .unwrap()
            .throughput_rps
        };
        let (w1, w4, w16) = (rps(1), rps(4), rps(16));
        assert!(
            w4 > w1,
            "window 4 ({w4:.0} rps) must beat closed loop ({w1:.0} rps)"
        );
        assert!(
            w16 >= w4,
            "window 16 ({w16:.0} rps) vs window 4 ({w4:.0} rps)"
        );
    }

    #[test]
    fn batch_steps_count_their_calls() {
        let burst = vec![Step::Batch {
            from: 0,
            to: 1,
            calls: 8,
            bytes_each: 64,
        }];
        let mut mw = mw(2);
        let spec = LoadGen {
            clients: 2,
            requests: 10,
            seed: 3,
            think_cycles: 0,
        };
        let r = run_windowed(&mut mw, &Placement::RoundRobin, 2, &[burst], &spec, 1).unwrap();
        assert_eq!(r.ipc_calls, 80);
        assert_eq!(r.requests, 10);
        // `Fixed` amortizes nothing, so the batch costs 8 full calls.
        assert_eq!(r.ledger.get(Phase::Trap), 80 * 100);
        assert_eq!(r.engine_cache, None);
    }

    #[test]
    fn fused_steps_drive_the_load_loop() {
        let mut mw = mw(3);
        let program = crate::program::Recipe::new(0)
            .hop(1, 64)
            .hop(2, 128)
            .reply(16)
            .build()
            .unwrap();
        let id = mw.register_program(program);
        let fused = vec![vec![Step::Fused(id)]];
        let spec = LoadGen {
            clients: 2,
            requests: 10,
            seed: 3,
            think_cycles: 0,
        };
        let r = run_windowed(&mut mw, &Placement::RoundRobin, 3, &fused, &spec, 1).unwrap();
        assert_eq!(r.requests, 10);
        assert_eq!(r.ipc_calls, 20, "two hops per fused request");
        assert!(r.ledger.total() > 0);
        assert!(r.throughput_rps > 0.0);
    }

    #[test]
    fn windowed_fused_runs_attribute_queueing_and_match_the_sink_path() {
        let mut mw = mw(2);
        let program = crate::program::Recipe::new(0)
            .hop(1, 64)
            .reply(4096)
            .build()
            .unwrap();
        let id = mw.register_program(program);
        let fused = vec![vec![Step::Fused(id)]];
        let r = run_windowed(&mut mw, &Placement::SameCore, 2, &fused, &spec(), 4).unwrap();
        assert!(r.ledger.get(Phase::Queue) > 0, "contention must queue");
        // The sampled sink path reports identical totals.
        let mut mw2 = mw2_with_program();
        let mut scratch = SweepScratch::new();
        let mut totals = crate::ledger::PhaseTotals::new();
        let mut arena = LedgerArena::new();
        let sampled = run_windowed_with(
            &mut mw2,
            &Placement::SameCore,
            2,
            &fused,
            &spec(),
            4,
            &mut scratch,
            Attribution::Sampled {
                every: 4,
                totals: &mut totals,
                arena: &mut arena,
            },
        )
        .unwrap();
        assert_eq!(sampled.ledger.total(), r.ledger.total());
        assert_eq!(sampled.ipc_calls, r.ipc_calls);
        assert_eq!(sampled.makespan_cycles, r.makespan_cycles);
    }

    fn mw2_with_program() -> MultiWorld {
        let mut w = mw(2);
        let program = crate::program::Recipe::new(0)
            .hop(1, 64)
            .reply(4096)
            .build()
            .unwrap();
        let _ = w.register_program(program);
        w
    }

    #[test]
    fn busy_cycles_bounded_by_cores_times_makespan() {
        let mut mw = mw(4);
        let r = run_windowed(&mut mw, &Placement::LeastLoaded, 3, &[recipe()], &spec(), 1).unwrap();
        assert!(r.busy_cycles <= r.cores as u64 * r.makespan_cycles);
    }
}
