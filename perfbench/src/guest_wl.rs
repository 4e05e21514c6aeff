//! `guest`: instruction-stepped rv64 code on `XpcKernel`.
//!
//! A round boots fresh machines and steps a fixed number of guest
//! instructions through each of eight endless loops: the five Fig-5
//! `CallBenchConfig` xcall/xret loops, a swapseg loop, a Sv39 user-mode
//! load/store loop over seeded pages and stride, and a bare M-mode
//! load/store loop. Before the timed stepping it reproduces Table 3
//! (xcall 18, xret 23, swapseg 11 cycles) and measures each Fig-5 call.

use crate::digest::Digest;
use crate::trace::Tracer;
use crate::{Part, Round, Workload};
use rv64::mem::DRAM_BASE;
use rv64::{reg, Assembler, Core, Machine, MachineConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use xpc::kernel::{XpcKernel, XpcKernelConfig};
use xpc::layout::USER_CODE_VA;
use xpc_bench::harness::measure_swapseg;
use xpc_bench::{CallBench, CallBenchConfig};
use xpc_engine::{XpcAsm, XpcEngine, XpcEngineConfig};
use ycsb::Rng;

/// Guest instructions stepped per loop per round.
const CALL_INSTR: u64 = 150_000;
const SWAP_INSTR: u64 = 150_000;
const USER_INSTR: u64 = 300_000;
const BARE_INSTR: u64 = 300_000;
/// Table 3: xcall, xret, swapseg cycles.
const PAPER_TABLE3: [u64; 3] = [18, 23, 11];
/// Fig. 5 call totals, in ladder order.
const PAPER_FIG5: [u64; 5] = [150, 89, 49, 33, 21];

/// One loop: its span name, per-layer key and instruction budget.
struct LoopDef {
    span: &'static str,
    instr: u64,
}

const CALL_LOOPS: [LoopDef; 5] = [
    LoopDef {
        span: "rv64::Machine::step@full_cxt",
        instr: CALL_INSTR,
    },
    LoopDef {
        span: "rv64::Machine::step@partial_cxt",
        instr: CALL_INSTR,
    },
    LoopDef {
        span: "rv64::Machine::step@tagged_tlb",
        instr: CALL_INSTR,
    },
    LoopDef {
        span: "rv64::Machine::step@nonblock",
        instr: CALL_INSTR,
    },
    LoopDef {
        span: "rv64::Machine::step@engine_cache",
        instr: CALL_INSTR,
    },
];
const SWAP_LOOP: LoopDef = LoopDef {
    span: "rv64::Machine::step@swapseg",
    instr: SWAP_INSTR,
};
const USER_LOOP: LoopDef = LoopDef {
    span: "rv64::Machine::step@user",
    instr: USER_INSTR,
};
const BARE_LOOP: LoopDef = LoopDef {
    span: "rv64::Machine::step@bare",
    instr: BARE_INSTR,
};

/// Simulated counters of the timed stepping (round 0 keeps them).
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    cycles: u64,
    instret: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    icache_hits: u64,
    icache_misses: u64,
    dcache_hits: u64,
    dcache_misses: u64,
}

impl Counters {
    fn of(c: &Core) -> Self {
        Counters {
            cycles: c.cycles,
            instret: c.instret,
            tlb_hits: c.mmu.tlb.hits,
            tlb_misses: c.mmu.tlb.misses,
            icache_hits: c.icache.hits,
            icache_misses: c.icache.misses,
            dcache_hits: c.dcache.hits,
            dcache_misses: c.dcache.misses,
        }
    }

    fn minus(self, o: Counters) -> Counters {
        Counters {
            cycles: self.cycles - o.cycles,
            instret: self.instret - o.instret,
            tlb_hits: self.tlb_hits - o.tlb_hits,
            tlb_misses: self.tlb_misses - o.tlb_misses,
            icache_hits: self.icache_hits - o.icache_hits,
            icache_misses: self.icache_misses - o.icache_misses,
            dcache_hits: self.dcache_hits - o.dcache_hits,
            dcache_misses: self.dcache_misses - o.dcache_misses,
        }
    }

    fn add(&mut self, o: Counters) {
        self.cycles += o.cycles;
        self.instret += o.instret;
        self.tlb_hits += o.tlb_hits;
        self.tlb_misses += o.tlb_misses;
        self.icache_hits += o.icache_hits;
        self.icache_misses += o.icache_misses;
        self.dcache_hits += o.dcache_hits;
        self.dcache_misses += o.dcache_misses;
    }

    fn fold(&self, dg: &mut Digest) {
        for v in [
            self.cycles,
            self.instret,
            self.tlb_hits,
            self.tlb_misses,
            self.icache_hits,
            self.icache_misses,
            self.dcache_hits,
            self.dcache_misses,
        ] {
            dg.u64(v);
        }
    }
}

/// Parameters of the Sv39 user loop, drawn from the seed.
#[derive(Debug, Clone, Copy)]
struct UserLoop {
    pages: u64,
    stride: u64,
}

/// Machines for one round.
struct Machines {
    calls: Vec<CallBench>,
    swap: XpcKernel,
    user: XpcKernel,
    bare: Machine,
}

/// The `guest` workload.
pub struct Guest {
    user: UserLoop,
    bare_stride: u64,
    /// Round 0: Table 3 and Fig. 5 totals as simulated.
    table3: [u64; 3],
    fig5: [u64; 5],
    counters: Counters,
    /// Round 0: xcalls per call loop and swapsegs in the swapseg loop.
    laps: [u64; 6],
    notes: Vec<String>,
}

impl Guest {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Guest {
            user: UserLoop {
                pages: 4 + rng.below(61),
                stride: 8 * (1 + rng.below(64)),
            },
            bare_stride: 8 * (1 + rng.below(64)),
            table3: [0; 3],
            fig5: [0; 5],
            counters: Counters::default(),
            laps: [0; 6],
            notes: Vec::new(),
        }
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Boot every machine of a round and load its loop.
    fn build(&self, tr: &mut Tracer) -> Machines {
        let calls = CallBenchConfig::fig5_ladder()
            .iter()
            .map(|(_, cfg)| {
                tr.enter("xpc_bench::CallBench::new");
                let b = CallBench::new(cfg);
                tr.exit();
                b
            })
            .collect();
        tr.enter("xpc::XpcKernel::boot@swapseg");
        let swap = swapseg_kernel();
        tr.exit();
        tr.enter("xpc::XpcKernel::boot@user");
        let user = user_kernel(self.user);
        tr.exit();
        tr.enter("rv64::Machine::new@bare");
        let bare = bare_machine(self.bare_stride);
        tr.exit();
        Machines {
            calls,
            swap,
            user,
            bare,
        }
    }

    /// Table 3 on fresh paper-default machines; one check per value.
    fn table3(&mut self, tr: &mut Tracer) -> ([u64; 3], u64) {
        tr.enter("xpc_bench::CallBench::measure@table3");
        let m = CallBench::new(&CallBenchConfig::paper_default()).measure(3);
        let swap = measure_swapseg(&CallBenchConfig::paper_default());
        tr.exit();
        let got = [m.xcall, m.xret, swap];
        let failed = got
            .iter()
            .zip(PAPER_TABLE3)
            .filter(|(g, p)| **g != *p)
            .count() as u64;
        if failed > 0 {
            self.note(format!(
                "guest: Table 3 reads {got:?}, paper {PAPER_TABLE3:?}"
            ));
        }
        (got, failed)
    }

    /// Step `def.instr` instructions on `m`; counts, host ns, and whether
    /// the loop ran without a fault.
    fn step(&mut self, tr: &mut Tracer, m: &mut Machine, def: &LoopDef) -> (Counters, u64, bool) {
        let before = Counters::of(&m.core);
        tr.enter(def.span);
        let t = Instant::now();
        let mut fault = None;
        for _ in 0..def.instr {
            match m.step() {
                Ok(None) => {}
                Ok(Some(exit)) => {
                    fault = Some(format!("{exit:?}"));
                    break;
                }
                Err(e) => {
                    fault = Some(format!("{e:?}"));
                    break;
                }
            }
        }
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tr.exit();
        if let Some(f) = &fault {
            self.note(format!("guest: {} faulted: {f}", def.span));
        }
        (Counters::of(&m.core).minus(before), ns, fault.is_none())
    }

    fn round_inner(&mut self, tr: &mut Tracer, round: usize, out: &mut Round) {
        let mut dg = Digest::default();
        tr.enter("bench.setup@guest");
        let t = Instant::now();
        let mut ms = self.build(tr);
        out.setup_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tr.exit();

        let (t3, t3_failed) = self.table3(tr);
        out.attempted += 3;
        out.failed += t3_failed;
        let mut fig5 = [0u64; 5];
        for (b, f) in ms.calls.iter_mut().zip(&mut fig5) {
            *f = b.measure(2).roundtrip;
        }
        for v in t3.iter().chain(&fig5) {
            dg.u64(*v);
        }

        let mut total = Counters::default();
        let mut laps = [0u64; 6];
        let mut ns_sum = 0;
        let mut run = |this: &mut Self, m: &mut Machine, def: &LoopDef, lap: Option<usize>| {
            let xpc_before = engine_stats(m);
            let (c, ns, ok) = this.step(tr, m, def);
            let xpc_after = engine_stats(m);
            if let Some(i) = lap {
                laps[i] = if i < 5 {
                    xpc_after.0 - xpc_before.0
                } else {
                    xpc_after.1 - xpc_before.1
                };
                dg.u64(laps[i]);
            }
            c.fold(&mut dg);
            total.add(c);
            ns_sum += ns;
            out.attempted += 1;
            if !ok {
                out.failed += 1;
            }
        };
        for (i, (b, def)) in ms.calls.iter_mut().zip(&CALL_LOOPS).enumerate() {
            run(self, &mut b.k.machine, def, Some(i));
        }
        run(self, &mut ms.swap.machine, &SWAP_LOOP, Some(5));
        run(self, &mut ms.user.machine, &USER_LOOP, None);
        run(self, &mut ms.bare, &BARE_LOOP, None);

        if round == 0 {
            self.table3 = t3;
            self.fig5 = fig5;
            self.counters = total;
            self.laps = laps;
        }
        out.work_ns = ns_sum;
        out.work_units = total.instret;
        out.parts = vec![Part::new(
            "guest_minstr_per_s",
            "Minstr/s",
            1e-6,
            total.instret,
            ns_sum,
        )];
        out.digest = dg.value();
        out.cells = 8;
    }
}

/// (xcalls, swapsegs) the machine's XPC engine has completed, if any.
fn engine_stats(m: &mut Machine) -> (u64, u64) {
    m.extension()
        .as_any_mut()
        .downcast_mut::<XpcEngine>()
        .map_or((0, 0), |e| (e.stats.xcalls, e.stats.swapsegs))
}

/// `measure_swapseg`'s scenario with an endless swapseg loop.
fn swapseg_kernel() -> XpcKernel {
    let cfg = CallBenchConfig::paper_default();
    let mut k = XpcKernel::boot(XpcKernelConfig {
        machine: cfg.machine.clone(),
        engine: cfg.engine,
    });
    let pa = k.create_process().expect("process");
    let t = k.create_thread(pa).expect("thread");
    let seg_a = k.alloc_relay_seg(t, 4096).expect("seg a");
    let seg_b = k.alloc_relay_seg(t, 4096).expect("seg b");
    k.stash_seg(pa, 0, seg_b).expect("stash");
    k.install_seg(t, seg_a).expect("install");
    let mut a = Assembler::new(USER_CODE_VA);
    a.li(reg::A0, 0);
    a.label("loop");
    a.swapseg(reg::A0);
    a.j("loop");
    let va = k.load_code(pa, &a.assemble()).expect("code");
    k.enter_thread(t, va, &[]).expect("enter");
    k
}

/// Emit `for (off = 0;; off = (off + stride) mod span) mem[base+off] += 1`.
fn load_store_loop(a: &mut Assembler, base: u64, span: u64, stride: u64) {
    a.li(reg::S0, i64::try_from(base).expect("base fits i64"));
    a.li(reg::S1, i64::try_from(span).expect("span fits i64"));
    a.li(reg::S2, i64::try_from(stride).expect("stride fits i64"));
    a.li(reg::T0, 0);
    a.label("loop");
    a.add(reg::T1, reg::S0, reg::T0);
    a.ld(reg::T2, reg::T1, 0);
    a.addi(reg::T2, reg::T2, 1);
    a.sd(reg::T2, reg::T1, 0);
    a.add(reg::T0, reg::T0, reg::S2);
    a.bltu(reg::T0, reg::S1, "loop");
    a.sub(reg::T0, reg::T0, reg::S1);
    a.j("loop");
}

/// A Sv39 user process looping over `pages` data pages.
fn user_kernel(p: UserLoop) -> XpcKernel {
    let mut k = XpcKernel::boot(XpcKernelConfig {
        machine: MachineConfig::rocket_u500(),
        engine: XpcEngineConfig::paper_default(),
    });
    let pid = k.create_process().expect("process");
    let t = k.create_thread(pid).expect("thread");
    let (va, _) = k.alloc_data(pid, p.pages).expect("data pages");
    let mut a = Assembler::new(USER_CODE_VA);
    load_store_loop(&mut a, va, p.pages * 4096, p.stride);
    let code = k.load_code(pid, &a.assemble()).expect("code");
    k.enter_thread(t, code, &[]).expect("enter");
    k
}

/// A bare M-mode machine looping over 64 KiB of physical memory.
fn bare_machine(stride: u64) -> Machine {
    let mut m = Machine::new(MachineConfig::rocket_u500());
    let mut a = Assembler::new(DRAM_BASE);
    load_store_loop(&mut a, DRAM_BASE + 0x10_0000, 64 << 10, stride);
    m.load_program(&a.assemble());
    m
}

impl Workload for Guest {
    fn round(&mut self, tr: &mut Tracer, round: usize) -> Round {
        let mut out = Round::default();
        let depth = tr.depth();
        let res = catch_unwind(AssertUnwindSafe(|| self.round_inner(tr, round, &mut out)));
        if res.is_err() {
            tr.unwind_to(depth);
            self.note("guest: round panicked".to_string());
            out.attempted = out.attempted.max(1);
            out.failed = out.attempted;
        }
        out
    }

    /// Mean |sim/paper − 1| over Table 3's three and Fig. 5's five cycle
    /// counts.
    fn paper_err_pct(&self) -> f64 {
        let sim = self.table3.iter().chain(&self.fig5);
        let paper = PAPER_TABLE3.iter().chain(&PAPER_FIG5);
        let errs: Vec<f64> = sim
            .zip(paper)
            .map(|(s, p)| (*s as f64 / *p as f64 - 1.0).abs())
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64 * 100.0
    }

    fn layers(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let rounds = tr.agg("bench.setup@guest").count.max(1) as f64;
        let rate = |def: &LoopDef| {
            let a = tr.agg(def.span);
            (a.count * def.instr) as f64 / a.total_ns.max(1) as f64 * 1e3
        };
        let per_lap = |def: &LoopDef, laps: u64| {
            let a = tr.agg(def.span);
            a.total_ns as f64 / (a.count * laps).max(1) as f64
        };
        let c = &self.counters;
        let ratio = |miss: u64, hit: u64| miss as f64 / (miss + hit).max(1) as f64;
        let keys = [
            "xpc-engine.call_lap_ns.full_cxt",
            "xpc-engine.call_lap_ns.partial_cxt",
            "xpc-engine.call_lap_ns.tagged_tlb",
            "xpc-engine.call_lap_ns.nonblock",
            "xpc-engine.call_lap_ns.engine_cache",
        ];
        let mut v = vec![
            ("rv64.bare_minstr_per_s", rate(&BARE_LOOP)),
            ("rv64.user_minstr_per_s", rate(&USER_LOOP)),
        ];
        for ((key, def), laps) in keys.into_iter().zip(&CALL_LOOPS).zip(self.laps) {
            v.push((key, per_lap(def, laps)));
        }
        v.extend([
            ("xpc-engine.swapseg_ns", per_lap(&SWAP_LOOP, self.laps[5])),
            ("rv64.cpi", c.cycles as f64 / c.instret.max(1) as f64),
            ("rv64.tlb_miss_ratio", ratio(c.tlb_misses, c.tlb_hits)),
            (
                "rv64.icache_miss_ratio",
                ratio(c.icache_misses, c.icache_hits),
            ),
            (
                "rv64.dcache_miss_ratio",
                ratio(c.dcache_misses, c.dcache_hits),
            ),
            (
                "xpc.setup_ms",
                tr.agg("bench.setup@guest").total_ns as f64 / rounds / 1e6,
            ),
        ]);
        v
    }

    fn notes(&self) -> &[String] {
        &self.notes
    }
}
