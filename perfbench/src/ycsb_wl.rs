//! `ycsb`: fig1/fig8's service-stack traffic.
//!
//! One episode runs one YCSB mix (A–F) on one of fig8's five mechanisms
//! through `minidb::run_workload`'s steps — a fresh `MiniDb::create`, a
//! 1 000-row load, then 400 ops — with every step timed from here. A
//! round cycles over all 30 (mix, mechanism) pairs once per op stream:
//! fig8's own stream and three drawn from the run seed. Every
//! `read`/`scan` result is checked against a shadow of the bytes last
//! written, and every `update`/`rmw` against whether the key exists.

use crate::digest::Digest;
use crate::trace::Tracer;
use crate::{Part, Round, Workload};
use kernels::{Sel4, Sel4Transfer, XpcIpc, Zircon};
use minidb::MiniDb;
use simos::{InvokeOpts, IpcSystem, World, WorldStats};
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use ycsb::{stream_seed, Op, Rng, Workload as Mix, WorkloadSpec};

/// Rows loaded per episode (fig1/fig8, §5.4).
const RECORDS: u64 = 1000;
/// Measured ops per episode (fig8).
const OPS: u64 = 400;
/// Op streams per mix in a round: fig8's own, then streams drawn from
/// the run seed. The host time averages over all of them.
const STREAMS: u64 = 4;
/// Ramdisk blocks, as `minidb::run_workload` creates it.
const NBLOCKS: usize = 1 << 15;
/// fig8's average XPC gains: Zircon-XPC / Zircon and seL4-XPC / seL4.
const PAPER_GAIN_ZIRCON: f64 = 2.08;
const PAPER_GAIN_SEL4: f64 = 1.6;

type Mk = fn() -> Box<dyn IpcSystem>;

/// fig8's five mechanisms, in the order the gains index them.
fn mechanisms() -> [(&'static str, Mk); 5] {
    [
        ("Zircon", || Box::new(Zircon::new())),
        ("Zircon-XPC", || Box::new(XpcIpc::zircon_xpc())),
        ("seL4-onecopy", || {
            Box::new(Sel4::new(Sel4Transfer::OneCopy))
        }),
        ("seL4-twocopy", || {
            Box::new(Sel4::new(Sel4Transfer::TwoCopy))
        }),
        ("seL4-XPC", || Box::new(XpcIpc::sel4_xpc())),
    ]
}

/// One op stream's generated inputs, shared by its five episodes.
struct Input {
    spec: WorkloadSpec,
    keys: Vec<String>,
    rows: Vec<Vec<u8>>,
    ops: Vec<Op>,
}

/// What a DB call returned, for the shadow check.
enum Got {
    Row(Option<Vec<u8>>),
    Rows(Vec<Vec<u8>>),
    Flag(bool),
    Unit,
}

/// The bytes last written per key: the loaded rows plus an overlay of
/// every later write. Keys are `user<n>` with contiguous `n`.
struct Shadow<'a> {
    base: &'a [Vec<u8>],
    over: HashMap<u64, Vec<u8>>,
    len: u64,
}

fn key_no(k: &str) -> u64 {
    k[4..].parse().expect("YCSB keys are user<n>")
}

impl<'a> Shadow<'a> {
    fn new(base: &'a [Vec<u8>]) -> Self {
        Shadow {
            base,
            over: HashMap::new(),
            len: base.len() as u64,
        }
    }

    fn get(&self, n: u64) -> Option<&[u8]> {
        if n >= self.len {
            return None;
        }
        match self.over.get(&n) {
            Some(r) => Some(r),
            None => self.base.get(usize::try_from(n).ok()?).map(Vec::as_slice),
        }
    }

    fn put(&mut self, n: u64, row: Vec<u8>) {
        self.over.insert(n, row);
        self.len = self.len.max(n + 1);
    }

    /// Apply `op` and say whether `got` is what a correct store returns.
    fn check(&mut self, op: &Op, got: &Got) -> bool {
        match (op, got) {
            (Op::Read(k), Got::Row(r)) => r.as_deref() == self.get(key_no(k)),
            (Op::Scan(k, n), Got::Rows(rows)) => {
                let first = key_no(k);
                let want = self.len.saturating_sub(first).min(*n as u64);
                rows.len() as u64 == want
                    && rows
                        .iter()
                        .zip(first..)
                        .all(|(r, i)| Some(r.as_slice()) == self.get(i))
            }
            (Op::Insert(k, row), Got::Unit) => {
                self.put(key_no(k), row.clone());
                true
            }
            (Op::Update(k, f), Got::Flag(ok)) => self.modify(key_no(k), f, false) == *ok,
            (Op::ReadModifyWrite(k, f), Got::Flag(ok)) => self.modify(key_no(k), f, true) == *ok,
            _ => false,
        }
    }

    /// `MiniDb::update` / `read_modify_write` on the shadow.
    fn modify(&mut self, n: u64, field: &[u8], bump_first: bool) -> bool {
        let Some(row) = self.get(n) else {
            return false;
        };
        let mut row = row.to_vec();
        if bump_first {
            if let Some(b) = row.first_mut() {
                *b = b.wrapping_add(1);
            }
        }
        let m = field.len().min(row.len());
        row[..m].copy_from_slice(&field[..m]);
        self.put(n, row);
        true
    }
}

/// Simulated run-phase counters of one episode (round 0 keeps them).
#[derive(Debug, Default, Clone, Copy)]
struct SimCounts {
    cache_hits: u64,
    cache_misses: u64,
    dev_reads: u64,
    dev_writes: u64,
    fs_commits: u64,
    ipc_count: u64,
    ipc_cycles: u64,
    all_cycles: u64,
}

struct Episode {
    host_ns: u64,
    run_cycles: u64,
    sim_ops_per_sec: f64,
    failed_ops: u64,
    digest: u64,
    counts: SimCounts,
    events: Vec<(u64, u64)>,
}

/// The `ycsb` workload.
pub struct Ycsb {
    seed: u64,
    sim_ops_per_sec: Vec<f64>,
    counts: SimCounts,
    reprice_ns: u64,
    reprice_events: u64,
    notes: Vec<String>,
}

impl Ycsb {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        Ycsb {
            seed,
            sim_ops_per_sec: Vec::new(),
            counts: SimCounts::default(),
            reprice_ns: 0,
            reprice_events: 0,
            notes: Vec::new(),
        }
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Inputs of every (stream, mix): the op stream from
    /// `WorkloadSpec::generate`, and the load rows and keys exactly as
    /// `run_workload` draws them.
    fn generate(&self, tr: &mut Tracer) -> Vec<Input> {
        (0..STREAMS)
            .flat_map(|_| Mix::ALL)
            .zip(0u64..)
            .map(|(mix, i)| {
                let spec = WorkloadSpec {
                    ops: OPS,
                    records: RECORDS,
                    // Stream 0 is fig8's own configuration (the paper
                    // seed); the others come from the run seed.
                    seed: if i < Mix::ALL.len() as u64 {
                        WorkloadSpec::paper(mix).seed
                    } else {
                        stream_seed(self.seed, i)
                    },
                    ..WorkloadSpec::paper(mix)
                };
                tr.enter("ycsb::WorkloadSpec::row_bytes");
                let mut rng = Rng::seed_from_u64(spec.seed ^ 0x10ad);
                let rows: Vec<Vec<u8>> = (0..spec.records)
                    .map(|_| spec.row_bytes(&mut rng))
                    .collect();
                let keys = (0..spec.records).map(|n| spec.key(n)).collect();
                tr.exit();
                tr.enter("ycsb::WorkloadSpec::generate");
                let ops = spec.generate();
                tr.exit();
                Input {
                    spec,
                    keys,
                    rows,
                    ops,
                }
            })
            .collect()
    }

    /// One episode: create, load, run, each call timed and traced.
    fn episode(&mut self, tr: &mut Tracer, input: &Input, mk: Mk) -> Episode {
        let mut w = World::new(mk());
        let mut shadow = Shadow::new(&input.rows);

        tr.enter("minidb::MiniDb::create");
        let t = Instant::now();
        let mut db = MiniDb::create(&mut w, NBLOCKS);
        let mut host_ns = elapsed_ns(t);
        tr.exit();

        let t = Instant::now();
        for (key, row) in input.keys.iter().zip(&input.rows) {
            tr.enter("minidb::MiniDb::insert@load");
            db.insert(&mut w, key, row);
            tr.exit();
        }
        host_ns += elapsed_ns(t);

        // run_workload resets accounting after the load phase.
        w.stats = WorldStats::default();
        let start_cycles = w.cycles;
        let before = (
            db.cache_hits,
            db.cache_misses,
            db.fs.dev.reads,
            db.fs.dev.writes,
            db.fs.stats.commits,
        );
        let mut dg = Digest::default();
        let mut failed_ops = 0;
        for op in &input.ops {
            let op_start = w.cycles;
            let (name, got, ns) = match op {
                Op::Read(k) => {
                    tr.enter("minidb::MiniDb::read");
                    let t = Instant::now();
                    let r = db.read(&mut w, k);
                    ("read", Got::Row(r), elapsed_ns(t))
                }
                Op::Update(k, f) => {
                    tr.enter("minidb::MiniDb::update");
                    let t = Instant::now();
                    let r = db.update(&mut w, k, f);
                    ("update", Got::Flag(r), elapsed_ns(t))
                }
                Op::Insert(k, row) => {
                    tr.enter("minidb::MiniDb::insert");
                    let t = Instant::now();
                    db.insert(&mut w, k, row);
                    ("insert", Got::Unit, elapsed_ns(t))
                }
                Op::Scan(k, n) => {
                    tr.enter("minidb::MiniDb::scan");
                    let t = Instant::now();
                    let r = db.scan(&mut w, k, *n);
                    ("scan", Got::Rows(r), elapsed_ns(t))
                }
                Op::ReadModifyWrite(k, f) => {
                    tr.enter("minidb::MiniDb::read_modify_write");
                    let t = Instant::now();
                    let r = db.read_modify_write(&mut w, k, f);
                    ("rmw", Got::Flag(r), elapsed_ns(t))
                }
            };
            tr.exit();
            host_ns += ns;
            if !shadow.check(op, &got) {
                failed_ops += 1;
                self.note(format!(
                    "ycsb: {} {name} returned bytes that differ from the last write",
                    input.spec.workload.name()
                ));
            }
            dg.str(name);
            dg.u64(w.cycles - op_start);
        }

        let run_cycles = w.cycles - start_cycles;
        let s = &w.stats;
        let counts = SimCounts {
            cache_hits: db.cache_hits - before.0,
            cache_misses: db.cache_misses - before.1,
            dev_reads: db.fs.dev.reads - before.2,
            dev_writes: db.fs.dev.writes - before.3,
            fs_commits: db.fs.stats.commits - before.4,
            ipc_count: s.ipc_count,
            ipc_cycles: s.ipc_cycles,
            all_cycles: s.ipc_cycles + s.other_cycles,
        };
        dg.str(&w.ipc_name());
        for v in [
            w.cycles,
            run_cycles,
            s.ipc_cycles,
            s.other_cycles,
            s.ipc_transfer_cycles,
            s.ipc_count,
            s.payload_bytes,
            counts.cache_hits,
            counts.cache_misses,
            counts.dev_reads,
            counts.dev_writes,
            counts.fs_commits,
            db.fs.stats.journaled_blocks,
        ] {
            dg.u64(v);
        }
        for &(phase, cycles) in s.ledger.spans() {
            dg.str(phase.key());
            dg.u64(cycles);
        }
        for &(bytes, cycles) in &s.events {
            dg.u64(bytes);
            dg.u64(cycles);
        }
        if let Some(e) = w.engine_cache_stats() {
            dg.u64(e.prefetches);
            dg.u64(e.cache_hits);
            dg.u64(e.shard_misses);
        }
        let secs = run_cycles as f64 / w.cost.clock_hz as f64;
        Episode {
            host_ns,
            run_cycles,
            sim_ops_per_sec: OPS as f64 / secs,
            failed_ops,
            digest: dg.value(),
            counts,
            events: s.events.clone(),
        }
    }

    /// Re-price every recorded IPC event through `World::price_oneway`
    /// on a fresh world of the same mechanism.
    fn reprice(&mut self, tr: &mut Tracer, mk: Mk, events: &[(u64, u64)]) {
        let mut w = World::new(mk());
        let opts = InvokeOpts::call();
        tr.enter("simos::World::price_oneway@reprice");
        let t = Instant::now();
        let mut sink = 0u64;
        for &(bytes, _) in events {
            sink = sink.wrapping_add(w.price_oneway(bytes, &opts).total);
        }
        black_box(sink);
        self.reprice_ns += elapsed_ns(t);
        self.reprice_events += events.len() as u64;
        tr.exit();
    }

    /// Replay the first cell through `minidb::run_workload` itself and
    /// compare.
    fn replay_first_cell(&mut self, input: &Input, mk: Mk, ep: &Episode) -> bool {
        let mut w = World::new(mk());
        let r = minidb::run_workload(&mut w, &input.spec);
        let same = r.cycles == ep.run_cycles && r.events == ep.events && r.ops == OPS;
        if !same {
            self.note(format!(
                "ycsb: replaying the first cell through minidb::run_workload gave {} cycles, the benchmark's steps {}",
                r.cycles, ep.run_cycles
            ));
        }
        same
    }
}

/// Mean of |sim/paper − 1| over fig8's two average XPC gains, each
/// averaged over the (stream, mix) cells of `sim` (five mechanisms per
/// cell, in `mechanisms()` order).
fn gain_err_pct(sim: &[f64]) -> f64 {
    let per_cell = mechanisms().len();
    let cells = (sim.len() / per_cell).max(1) as f64;
    let (mut gz, mut gs) = (0.0, 0.0);
    for m in sim.chunks_exact(per_cell) {
        gz += m[1] / m[0];
        gs += m[4] / m[3];
    }
    let (gz, gs) = (gz / cells, gs / cells);
    ((gz / PAPER_GAIN_ZIRCON - 1.0).abs() + (gs / PAPER_GAIN_SEL4 - 1.0).abs()) / 2.0 * 100.0
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Workload for Ycsb {
    fn round(&mut self, tr: &mut Tracer, round: usize) -> Round {
        tr.enter("bench.setup@ycsb");
        let t = Instant::now();
        let inputs = self.generate(tr);
        let setup_ns = elapsed_ns(t);
        tr.exit();

        let mechs = mechanisms();
        let mut dg = Digest::default();
        let mut out = Round {
            setup_ns,
            ..Round::default()
        };
        let mut sim = Vec::with_capacity(inputs.len() * mechs.len());
        let mut counts = SimCounts::default();
        let mut cell = 0u64;
        let mut completed = 0u64;
        for input in &inputs {
            for &(mech, mk) in &mechs {
                tr.set_request(cell);
                let depth = tr.depth();
                tr.enter("bench.episode");
                let res = catch_unwind(AssertUnwindSafe(|| self.episode(tr, input, mk)));
                out.attempted += OPS;
                match res {
                    Ok(ep) => {
                        tr.exit();
                        if tr.is_on() {
                            self.reprice(tr, mk, &ep.events);
                        }
                        if round == 0 && cell == 0 && !self.replay_first_cell(input, mk, &ep) {
                            out.failed += OPS;
                        }
                        out.work_ns += ep.host_ns;
                        completed += OPS;
                        out.failed += ep.failed_ops;
                        dg.u64(ep.digest);
                        sim.push(ep.sim_ops_per_sec);
                        let c = ep.counts;
                        counts.cache_hits += c.cache_hits;
                        counts.cache_misses += c.cache_misses;
                        counts.dev_reads += c.dev_reads;
                        counts.dev_writes += c.dev_writes;
                        counts.fs_commits += c.fs_commits;
                        counts.ipc_count += c.ipc_count;
                        counts.ipc_cycles += c.ipc_cycles;
                        counts.all_cycles += c.all_cycles;
                    }
                    Err(_) => {
                        tr.unwind_to(depth);
                        out.failed += OPS;
                        dg.str("panicked");
                        sim.push(f64::NAN);
                        self.note(format!(
                            "ycsb: {} on {mech} panicked",
                            input.spec.workload.name()
                        ));
                    }
                }
                cell += 1;
            }
        }
        if round == 0 {
            self.sim_ops_per_sec = sim;
            self.counts = counts;
        }
        out.work_units = completed;
        out.parts = vec![Part::new(
            "ycsb_ops_per_s",
            "ops/s",
            1.0,
            completed,
            out.work_ns,
        )];
        out.digest = dg.value();
        out.cells = cell;
        out
    }

    /// fig8's configuration (stream 0), which is what `figures fig8ab`
    /// prints: the same value for every run seed.
    fn paper_err_pct(&self) -> f64 {
        let n = Mix::ALL.len() * mechanisms().len();
        gain_err_pct(&self.sim_ops_per_sec[..n.min(self.sim_ops_per_sec.len())])
    }

    /// The streams drawn from the run seed: data the model was not
    /// tuned on.
    fn paper_err_heldout_pct(&self) -> Option<f64> {
        let n = Mix::ALL.len() * mechanisms().len();
        self.sim_ops_per_sec
            .get(n..)
            .filter(|s| !s.is_empty())
            .map(gain_err_pct)
    }

    fn layers(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let mean = |name: &str, scale: f64| {
            let a = tr.agg(name);
            if a.count == 0 {
                0.0
            } else {
                a.total_ns as f64 / a.count as f64 / scale
            }
        };
        let c = &self.counts;
        let ops = self.sim_ops_per_sec.len() as f64 * OPS as f64;
        let rounds = tr.agg("bench.setup@ycsb").count.max(1) as f64;
        let generate_ns = tr.agg("ycsb::WorkloadSpec::generate").total_ns
            + tr.agg("ycsb::WorkloadSpec::row_bytes").total_ns;
        vec![
            ("minidb.create_ms", mean("minidb::MiniDb::create", 1e6)),
            (
                "minidb.load_us_per_row",
                mean("minidb::MiniDb::insert@load", 1e3),
            ),
            ("minidb.read_us", mean("minidb::MiniDb::read", 1e3)),
            ("minidb.update_us", mean("minidb::MiniDb::update", 1e3)),
            ("minidb.insert_us", mean("minidb::MiniDb::insert", 1e3)),
            ("minidb.scan_us", mean("minidb::MiniDb::scan", 1e3)),
            (
                "minidb.rmw_us",
                mean("minidb::MiniDb::read_modify_write", 1e3),
            ),
            (
                "minidb.cache_hit_ratio",
                c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
            ),
            ("services.blockdev.reads_per_op", c.dev_reads as f64 / ops),
            ("services.blockdev.writes_per_op", c.dev_writes as f64 / ops),
            ("services.fs.commits_per_op", c.fs_commits as f64 / ops),
            ("simos.world.ipc_per_op", c.ipc_count as f64 / ops),
            (
                "simos.world.ipc_cycle_share",
                c.ipc_cycles as f64 / c.all_cycles.max(1) as f64,
            ),
            (
                "kernels.reprice_ns",
                self.reprice_ns as f64 / self.reprice_events.max(1) as f64,
            ),
            ("ycsb.generate_ms", generate_ns as f64 / rounds / 1e6),
        ]
    }

    fn notes(&self) -> &[String] {
        &self.notes
    }
}
