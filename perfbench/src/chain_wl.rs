//! `chain`: the HTTP→AES→filecache chain as pure pricing plus event
//! loops.
//!
//! The chain is `services::http::chain_steps` at 1/4/16 KiB (handover
//! matched to the mechanism) and its fused twin `chain_program` run as
//! `Step::Fused`, on a u500 `MultiWorld`, for the `serve` experiment's
//! four mechanisms. Each (mechanism, form) is served open-loop through
//! `simos::serve::serve_with` with Poisson arrivals at ρ = 0.8 and 1.2 of
//! its calibrated capacity (past 1.0 the tenant queue caps shed), and
//! closed-loop through `simos::load::run_windowed_with` at window 4.
//! Set-up builds the recipes, verifies them with `xpc-verify`,
//! calibrates capacity and generates the arrival traces.

use crate::digest::Digest;
use crate::trace::Tracer;
use crate::{Part, Round, Workload};
use kernels::{Sel4, Sel4Transfer, XpcIpc, Zircon};
use services::http::{chain_program, chain_steps, ChainSpec, CHAIN_SERVICES};
use simos::load::run_windowed_with;
use simos::serve::{serve, serve_with, ServeScratch};
use simos::{
    ArrivalProcess, ArrivalTrace, Attribution, CycleLedger, InvokeOpts, IpcSystem, LedgerArena,
    LoadGen, LoadReport, MultiWorld, OpenLoopGen, PhaseTotals, Placement, ServePolicy, ServeReport,
    ServeSpec, Step, SweepScratch, TenantClass, Topology,
};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use ycsb::stream_seed;

/// File sizes the chain serves.
const SIZES: [u64; 3] = [1024, 4096, 16384];
const PATH: &str = "/index.html";
/// Offered loads, in tenths of calibrated capacity.
const RHOS: [u64; 2] = [8, 12];
/// Arrivals per open-loop cell.
const OPEN_ARRIVALS: u64 = 4000;
/// Requests per closed-loop cell.
const CLOSED_REQUESTS: u64 = 4000;
const CLIENTS: usize = 16;
const WINDOW: usize = 4;
const TENANTS: u32 = 4;
/// Tenant queue cap of the measured cells (sheds past ρ = 1).
const QUEUE_CAP: usize = 64;
const SLO_P99_US: f64 = 2000.0;
/// Back-to-back arrivals of the capacity probe (as the `serve` figure).
const PROBE: u64 = 512;
/// Retain 1-in-N request ledgers; totals stay exact.
const SAMPLE_EVERY: u64 = 32;
/// Pricing calls per size per mechanism in a traced round.
const PRICE_CALLS: u64 = 2000;
/// fig8(c): ~10× HTTP throughput with encryption, Zircon-XPC over
/// Zircon.
const PAPER_HTTP_GAIN: f64 = 10.0;
/// Seed of the capacity probe: capacity is a property of the mechanism,
/// so the probe is the same for every run seed (as in the `serve`
/// figure).
const PROBE_SEED: u64 = 0x5e7e;

type Mk = fn() -> Box<dyn IpcSystem>;

struct Mech {
    key: &'static str,
    mk: Mk,
    /// XPC-backed: a fused program must cross once.
    xpc: bool,
    price_span: &'static str,
}

/// The `serve` experiment's four mechanisms; Zircon first and
/// Zircon-XPC second, the pair fig8(c) compares.
fn mechanisms() -> [Mech; 4] {
    [
        Mech {
            key: "zircon",
            mk: || Box::new(Zircon::new()),
            xpc: false,
            price_span: "kernels::Zircon::oneway_into",
        },
        Mech {
            key: "zircon-xpc",
            mk: || Box::new(XpcIpc::zircon_xpc()),
            xpc: true,
            price_span: "kernels::XpcIpc::oneway_into@zircon",
        },
        Mech {
            key: "sel4-onecopy",
            mk: || Box::new(Sel4::new(Sel4Transfer::OneCopy)),
            xpc: false,
            price_span: "kernels::Sel4::oneway_into@onecopy",
        },
        Mech {
            key: "sel4-xpc",
            mk: || Box::new(XpcIpc::sel4_xpc()),
            xpc: true,
            price_span: "kernels::XpcIpc::oneway_into@sel4",
        },
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    Steps,
    Fused,
}

const FORMS: [Form; 2] = [Form::Steps, Form::Fused];

fn serve_span(form: Form, rho: u64) -> &'static str {
    match (form, rho) {
        (Form::Steps, 8) => "simos::serve::serve_with@steps.rho08",
        (Form::Steps, _) => "simos::serve::serve_with@steps.rho12",
        (Form::Fused, 8) => "simos::serve::serve_with@fused.rho08",
        (Form::Fused, _) => "simos::serve::serve_with@fused.rho12",
    }
}

fn load_span(form: Form) -> &'static str {
    match form {
        Form::Steps => "simos::load::run_windowed_with@steps",
        Form::Fused => "simos::load::run_windowed_with@fused",
    }
}

fn world(mk: Mk) -> MultiWorld {
    MultiWorld::builder().topology(Topology::u500()).build(mk)
}

fn spec(queue_cap: usize) -> ServeSpec {
    ServeSpec {
        tenants: TENANTS,
        classes: vec![TenantClass {
            queue_cap,
            slo_p99_us: SLO_P99_US,
        }],
        backlog_cap_cycles: 0,
    }
}

fn poisson(mean: u64, seed: u64) -> OpenLoopGen {
    OpenLoopGen {
        process: ArrivalProcess::Poisson,
        mean_interarrival_cycles: mean,
        tenants: TENANTS,
        users: 1_000_000,
        seed,
    }
}

/// The recipe roster of one (mechanism, form) in `mw`: the step lists,
/// or one `Step::Fused` per registered program.
struct Roster {
    steps: Vec<Vec<Step>>,
    programs: Vec<simos::CallProgram>,
}

impl Roster {
    fn install(&self, mw: &mut MultiWorld) -> Vec<Vec<Step>> {
        if self.programs.is_empty() {
            return self.steps.clone();
        }
        self.programs
            .iter()
            .map(|p| vec![Step::Fused(mw.register_program(p.clone()))])
            .collect()
    }
}

/// One measured cell with its world, set up before timing starts.
struct Cell {
    mech: usize,
    form: Form,
    /// `Some(ρ×10)` for an open-loop cell, `None` for the closed loop.
    rho: Option<u64>,
    mw: MultiWorld,
    recipes: Vec<Vec<Step>>,
    trace: Option<ArrivalTrace>,
    seed: u64,
}

/// The `chain` workload.
pub struct Chain {
    seed: u64,
    scratch: ServeScratch,
    sweep: SweepScratch,
    arena: LedgerArena,
    arena_growth: u64,
    price_calls_per_span: u64,
    /// Calibrated capacity period (cycles per request) of the steps chain
    /// per mechanism.
    capacity_period: Vec<u64>,
    /// (shed, offered) of the ρ = 1.2 cells, summed over every round;
    /// rounds replay each other, so the ratio is round 0's.
    shed: (u64, u64),
    xpc_crossings: Vec<u64>,
    notes: Vec<String>,
    findings: Vec<String>,
}

impl Chain {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        Chain {
            seed,
            scratch: ServeScratch::new(),
            sweep: SweepScratch::new(),
            arena: LedgerArena::new(),
            arena_growth: 0,
            price_calls_per_span: 0,
            capacity_period: Vec::new(),
            shed: (0, 0),
            xpc_crossings: Vec::new(),
            notes: Vec::new(),
            findings: Vec::new(),
        }
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Fold a preflight verdict into the digest and keep each distinct
    /// refusal once. A refusal is reported, not counted as a failed op:
    /// the serve and load engines run the recipe either way.
    fn verdict(
        &mut self,
        dg: &mut Digest,
        what: &str,
        verdict: Result<(), Vec<xpc_verify::Finding>>,
    ) {
        let Err(findings) = verdict else {
            dg.u64(0);
            return;
        };
        dg.u64(findings.len() as u64);
        for f in findings {
            let line = format!("xpc-verify refuses services::http::{what}: {f}");
            if !self.findings.contains(&line) {
                self.findings.push(line);
            }
        }
    }

    /// Recipes, verifier preflight, capacity calibration, traces and
    /// worlds for every cell of a round.
    fn setup(&mut self, tr: &mut Tracer, dg: &mut Digest) -> Vec<Cell> {
        let mechs = mechanisms();
        let cost = simos::CostModel::u500();
        let mut cells = Vec::new();
        let mut periods = vec![0; mechs.len()];
        for (mi, m) in mechs.iter().enumerate() {
            let handover = (m.mk)().supports_handover();
            for (fi, form) in FORMS.into_iter().enumerate() {
                let roster = match form {
                    Form::Steps => {
                        tr.enter("services::http::chain_steps");
                        let steps: Vec<Vec<Step>> = SIZES
                            .iter()
                            .map(|&len| {
                                chain_steps(PATH, len, ChainSpec::default().with_handover(handover))
                            })
                            .collect();
                        tr.exit();
                        tr.enter("xpc_verify::preflight");
                        let named: Vec<(String, Vec<Step>)> = SIZES
                            .iter()
                            .zip(&steps)
                            .map(|(len, r)| (format!("chain {len}B"), r.clone()))
                            .collect();
                        let verdict = xpc_verify::preflight(CHAIN_SERVICES, &named);
                        tr.exit();
                        self.verdict(dg, "chain_steps", verdict);
                        Roster {
                            steps,
                            programs: Vec::new(),
                        }
                    }
                    Form::Fused => {
                        tr.enter("services::http::chain_program");
                        let programs: Vec<_> = SIZES
                            .iter()
                            .map(|&len| chain_program(PATH, len, ChainSpec::default(), &cost))
                            .collect();
                        tr.exit();
                        for (p, len) in programs.iter().zip(SIZES) {
                            tr.enter("xpc_verify::preflight_program");
                            let verdict = xpc_verify::preflight_program(
                                CHAIN_SERVICES,
                                &format!("chain {len}B"),
                                p,
                            );
                            tr.exit();
                            self.verdict(dg, "chain_program", verdict);
                        }
                        Roster {
                            steps: Vec::new(),
                            programs,
                        }
                    }
                };

                // Calibrate: serve a back-to-back probe, makespan / count.
                tr.enter("simos::serve::serve@calibrate");
                let n_recipes = u32::try_from(SIZES.len()).expect("three sizes");
                let probe = poisson(1, PROBE_SEED)
                    .trace(PROBE, n_recipes)
                    .expect("probe trace spec is valid");
                let mut mw = world(m.mk);
                let recipes = roster.install(&mut mw);
                let period = serve(
                    &mut mw,
                    &ServePolicy::Static(Placement::RoundRobin),
                    CHAIN_SERVICES,
                    &recipes,
                    &probe,
                    &spec(1 << 20),
                )
                .map(|r| (r.makespan_cycles / PROBE).max(1));
                tr.exit();
                let period = match period {
                    Ok(p) => p,
                    Err(e) => {
                        self.note(format!("chain: {} calibration failed: {e}", m.key));
                        1
                    }
                };
                dg.u64(period);
                if form == Form::Steps {
                    periods[mi] = period;
                }

                for (ri, rho) in RHOS.into_iter().enumerate() {
                    let seed = stream_seed(self.seed, ((mi * 2 + fi) * 2 + ri) as u64);
                    tr.enter("simos::OpenLoopGen::trace");
                    let trace = poisson((period * 10 / rho).max(1), seed)
                        .trace(OPEN_ARRIVALS, n_recipes)
                        .expect("chain trace spec is valid");
                    tr.exit();
                    dg.u64(trace.span_cycles());
                    tr.enter("simos::MultiWorld::build");
                    let mut mw = world(m.mk);
                    let recipes = roster.install(&mut mw);
                    tr.exit();
                    cells.push(Cell {
                        mech: mi,
                        form,
                        rho: Some(rho),
                        mw,
                        recipes,
                        trace: Some(trace),
                        seed,
                    });
                }
                tr.enter("simos::MultiWorld::build");
                let mut mw = world(m.mk);
                let recipes = roster.install(&mut mw);
                tr.exit();
                cells.push(Cell {
                    mech: mi,
                    form,
                    rho: None,
                    mw,
                    recipes,
                    trace: None,
                    seed: stream_seed(self.seed, 64 + (mi * 2 + fi) as u64),
                });
            }
        }
        self.capacity_period = periods;
        cells
    }

    /// Serve one open-loop cell and check conservation.
    fn open(&mut self, tr: &mut Tracer, c: &mut Cell, dg: &mut Digest) -> (u64, u64) {
        let trace = c.trace.as_ref().expect("open cell has a trace");
        let rho = c.rho.expect("open cell has a load");
        let mut totals = PhaseTotals::new();
        tr.enter(serve_span(c.form, rho));
        let t = Instant::now();
        let r = serve_with(
            &mut c.mw,
            &ServePolicy::Static(Placement::RoundRobin),
            CHAIN_SERVICES,
            &c.recipes,
            trace,
            &spec(QUEUE_CAP),
            &mut self.scratch,
            Attribution::Sampled {
                every: SAMPLE_EVERY,
                totals: &mut totals,
                arena: &mut self.arena,
            },
        );
        let ns = elapsed_ns(t);
        tr.exit();
        let key = mechanisms()[c.mech].key;
        match r {
            Ok(r) => {
                if !conserved(&r, trace.len() as u64) {
                    self.note(format!("chain: {key} rho={rho} does not conserve arrivals"));
                    return (ns, OPEN_ARRIVALS);
                }
                fold_serve(dg, &r);
                if rho == 12 {
                    self.shed.0 += r.shed();
                    self.shed.1 += r.offered;
                }
                (ns, 0)
            }
            Err(e) => {
                self.note(format!("chain: {key} rho={rho} serve failed: {e}"));
                (ns, OPEN_ARRIVALS)
            }
        }
    }

    /// Run one closed-loop cell.
    fn closed(&mut self, tr: &mut Tracer, c: &mut Cell, dg: &mut Digest) -> (u64, u64) {
        let gen = LoadGen {
            clients: CLIENTS,
            requests: CLOSED_REQUESTS,
            seed: c.seed,
            think_cycles: 0,
        };
        let mut totals = PhaseTotals::new();
        tr.enter(load_span(c.form));
        let t = Instant::now();
        let r = run_windowed_with(
            &mut c.mw,
            &Placement::RoundRobin,
            CHAIN_SERVICES,
            &c.recipes,
            &gen,
            WINDOW,
            &mut self.sweep,
            Attribution::Sampled {
                every: SAMPLE_EVERY,
                totals: &mut totals,
                arena: &mut self.arena,
            },
        );
        let ns = elapsed_ns(t);
        tr.exit();
        let key = mechanisms()[c.mech].key;
        match r {
            Ok(r) if r.requests == CLOSED_REQUESTS => {
                fold_load(dg, &r);
                (ns, 0)
            }
            Ok(r) => {
                self.note(format!(
                    "chain: {key} closed loop completed {} of {CLOSED_REQUESTS}",
                    r.requests
                ));
                (ns, CLOSED_REQUESTS)
            }
            Err(e) => {
                self.note(format!("chain: {key} closed loop failed: {e}"));
                (ns, CLOSED_REQUESTS)
            }
        }
    }

    /// Time `IpcSystem::oneway_into` on the chain's message sizes.
    fn price(&mut self, tr: &mut Tracer) {
        let sizes: Vec<usize> = SIZES
            .iter()
            .flat_map(|&len| {
                chain_steps(PATH, len, ChainSpec::default())
                    .into_iter()
                    .filter_map(|s| match s {
                        Step::Oneway { bytes, .. } => Some(bytes),
                        Step::Roundtrip { request, .. } => Some(request),
                        _ => None,
                    })
            })
            .map(|b| usize::try_from(b).expect("chain sizes fit usize"))
            .collect();
        let opts = InvokeOpts::call();
        let mut ledger = CycleLedger::new();
        for m in mechanisms() {
            let mut sys = (m.mk)();
            tr.enter(m.price_span);
            let mut sink = 0u64;
            for _ in 0..PRICE_CALLS {
                for &len in &sizes {
                    ledger.clear();
                    sink = sink.wrapping_add(sys.oneway_into(len, &opts, &mut ledger));
                }
            }
            black_box((sink, &ledger));
            tr.exit();
        }
        self.price_calls_per_span = PRICE_CALLS * sizes.len() as u64;
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `admitted + shed == offered`, globally and per tenant, and every
/// arrival offered.
fn conserved(r: &ServeReport, arrivals: u64) -> bool {
    r.offered == arrivals
        && r.admitted + r.shed() == r.offered
        && r.tenants.iter().map(|t| t.offered).sum::<u64>() == r.offered
        && r.tenants.iter().all(|t| t.admitted + t.shed() == t.offered)
}

fn fold_serve(dg: &mut Digest, r: &ServeReport) {
    dg.str(&r.system);
    for v in [
        r.offered,
        r.admitted,
        r.shed_queue_full,
        r.shed_backlog,
        r.ipc_calls,
        r.makespan_cycles,
        r.busy_cycles,
    ] {
        dg.u64(v);
    }
    for v in [r.mean_us, r.p50_us, r.p95_us, r.p99_us, r.max_us] {
        dg.f64(v);
    }
    for &(phase, cycles) in r.ledger.spans() {
        dg.str(phase.key());
        dg.u64(cycles);
    }
    for t in &r.tenants {
        dg.u64(t.offered);
        dg.u64(t.admitted);
        dg.u64(t.shed());
        dg.f64(t.p99_us);
    }
    if let Some(e) = r.engine_cache {
        dg.u64(e.prefetches);
        dg.u64(e.cache_hits);
        dg.u64(e.shard_misses);
    }
}

fn fold_load(dg: &mut Digest, r: &LoadReport) {
    dg.str(&r.system);
    for v in [r.requests, r.ipc_calls, r.makespan_cycles, r.busy_cycles] {
        dg.u64(v);
    }
    for v in [r.mean_us, r.p50_us, r.p95_us, r.p99_us] {
        dg.f64(v);
    }
    for &(phase, cycles) in r.ledger.spans() {
        dg.str(phase.key());
        dg.u64(cycles);
    }
    if let Some(e) = r.engine_cache {
        dg.u64(e.prefetches);
        dg.u64(e.cache_hits);
        dg.u64(e.shard_misses);
    }
}

impl Workload for Chain {
    fn round(&mut self, tr: &mut Tracer, round: usize) -> Round {
        let mut dg = Digest::default();
        tr.enter("bench.setup@chain");
        let t = Instant::now();
        let mut cells = self.setup(tr, &mut dg);
        let setup_ns = elapsed_ns(t);
        tr.exit();

        let mut out = Round {
            setup_ns,
            ..Round::default()
        };
        let (mut open_ns, mut open_n, mut closed_ns, mut closed_n) = (0, 0, 0, 0);
        let mut crossings = Vec::new();
        for (i, c) in cells.iter_mut().enumerate() {
            tr.set_request(i as u64);
            let depth = tr.depth();
            // Cells share one arena, reset between cells as the sweep
            // pool does; after round 0 it must not grow.
            self.arena.reset();
            let before = (self.arena.ledger_capacity(), self.arena.span_capacity());
            let units = if c.rho.is_some() {
                OPEN_ARRIVALS
            } else {
                CLOSED_REQUESTS
            };
            let res = catch_unwind(AssertUnwindSafe(|| {
                if c.rho.is_some() {
                    self.open(tr, c, &mut dg)
                } else {
                    self.closed(tr, c, &mut dg)
                }
            }));
            out.attempted += units;
            match res {
                Ok((ns, failed)) => {
                    out.failed += failed;
                    if c.rho.is_some() {
                        open_ns += ns;
                        open_n += units;
                    } else {
                        closed_ns += ns;
                        closed_n += units;
                    }
                }
                Err(_) => {
                    tr.unwind_to(depth);
                    out.failed += units;
                    dg.str("panicked");
                    let key = mechanisms()[c.mech].key;
                    self.note(format!("chain: {key} cell {i} panicked"));
                }
            }
            let after = (self.arena.ledger_capacity(), self.arena.span_capacity());
            if round > 0 && after != before {
                self.arena_growth += 1;
            }
            // Fused XPC programs cross once, whatever the chain depth.
            if c.form == Form::Fused && c.rho.is_none() && mechanisms()[c.mech].xpc {
                let map: Vec<usize> = (0..CHAIN_SERVICES).collect();
                for r in &c.recipes {
                    if let [Step::Fused(pid)] = r.as_slice() {
                        let x = c.mw.fused_crossings(*pid, &map);
                        crossings.push(x);
                        if x != 1 {
                            out.failed += 1;
                            self.note(format!("chain: fused XPC program crosses {x} times"));
                        }
                    }
                }
                out.attempted += c.recipes.len() as u64;
            }
        }
        if tr.is_on() {
            self.price(tr);
        }
        if round == 0 {
            self.xpc_crossings = crossings;
        }
        out.work_ns = open_ns + closed_ns;
        out.work_units = open_n + closed_n;
        out.parts = vec![
            Part::new("open_req_per_s", "req/s", 1.0, open_n, open_ns),
            Part::new("closed_req_per_s", "req/s", 1.0, closed_n, closed_ns),
        ];
        out.digest = dg.value();
        out.cells = cells.len() as u64;
        out
    }

    /// |sim/paper − 1| of the calibrated Zircon-XPC / Zircon capacity of
    /// the steps chain against fig8(c)'s ~10× encrypted HTTP gain.
    fn paper_err_pct(&self) -> f64 {
        let p = &self.capacity_period;
        let gain = p[0] as f64 / p[1] as f64;
        (gain / PAPER_HTTP_GAIN - 1.0).abs() * 100.0
    }

    fn layers(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let rounds = tr.agg("bench.setup@chain").count.max(1) as f64;
        let per = |name: &str, units: u64| {
            let a = tr.agg(name);
            a.total_ns as f64 / (a.count * units).max(1) as f64
        };
        let mut v = vec![
            (
                "simos.serve.ns_per_arrival.steps.rho08",
                per(serve_span(Form::Steps, 8), OPEN_ARRIVALS),
            ),
            (
                "simos.serve.ns_per_arrival.steps.rho12",
                per(serve_span(Form::Steps, 12), OPEN_ARRIVALS),
            ),
            (
                "simos.serve.ns_per_arrival.fused.rho08",
                per(serve_span(Form::Fused, 8), OPEN_ARRIVALS),
            ),
            (
                "simos.serve.ns_per_arrival.fused.rho12",
                per(serve_span(Form::Fused, 12), OPEN_ARRIVALS),
            ),
            (
                "simos.load.ns_per_req.steps",
                per(load_span(Form::Steps), CLOSED_REQUESTS),
            ),
            (
                "simos.load.ns_per_req.fused",
                per(load_span(Form::Fused), CLOSED_REQUESTS),
            ),
        ];
        let names = [
            "kernels.price_ns.zircon",
            "kernels.price_ns.zircon-xpc",
            "kernels.price_ns.sel4-onecopy",
            "kernels.price_ns.sel4-xpc",
        ];
        for (m, name) in mechanisms().iter().zip(names) {
            v.push((name, per(m.price_span, self.price_calls_per_span)));
        }
        let xc = &self.xpc_crossings;
        v.extend([
            (
                "simos.serve.shed_ratio.rho12",
                self.shed.0 as f64 / self.shed.1.max(1) as f64,
            ),
            (
                "simos.program.xpc_crossings",
                xc.iter().sum::<u64>() as f64 / xc.len().max(1) as f64,
            ),
            ("simos.arena.growth_after_warmup", self.arena_growth as f64),
            (
                "simos.serve.calibrate_ms",
                tr.agg("simos::serve::serve@calibrate").total_ns as f64 / rounds / 1e6,
            ),
            (
                "simos.serve.trace_gen_ms",
                tr.agg("simos::OpenLoopGen::trace").total_ns as f64 / rounds / 1e6,
            ),
            ("xpc-verify.preflight_us", {
                let a = tr.agg("xpc_verify::preflight");
                let b = tr.agg("xpc_verify::preflight_program");
                (a.total_ns + b.total_ns) as f64 / (a.count + b.count).max(1) as f64 / 1e3
            }),
        ]);
        v
    }

    fn notes(&self) -> &[String] {
        &self.notes
    }

    fn findings(&self) -> &[String] {
        &self.findings
    }
}
