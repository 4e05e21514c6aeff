//! The invocation interface every kernel model implements.
//!
//! [`IpcSystem`] is the single pipeline the whole evaluation goes
//! through: a system prices one hop of `msg_len` bytes and returns an
//! [`Invocation`] whose [`CycleLedger`] attributes every cycle to a
//! named [`Phase`].
//! Table 1 is the printed ledger of the seL4 model, Figure 5's bars are
//! ledger diffs between XPC ablations, and Figure 6's curves are ledger
//! totals swept over message sizes — no experiment does bespoke cycle
//! math anymore.

use crate::ledger::{CycleLedger, Invocation, InvokeOpts, Phase};

/// Model-level engine-cache counters, mirroring `xpc-engine`'s
/// `XpcStats` for the cost-model layer: how many x-entry prefetches a
/// batched submission issued and how many repeat calls were served from
/// the one-entry cache. Systems without an engine cache report `None`
/// from [`IpcSystem::engine_cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCacheStats {
    /// Engine-cache prefetch operations (one per batch: the first call
    /// of a burst fetches the x-entry and populates the cache).
    pub prefetches: u64,
    /// Calls served from the engine cache (every repeat call of a batch).
    pub cache_hits: u64,
    /// Uncached x-entry lookups that had to fetch from a *remote
    /// socket's* x-entry shard (sharded tables: local-shard lookups and
    /// engine-cache hits count nothing here).
    pub shard_misses: u64,
}

impl EngineCacheStats {
    /// Fold another counter set in (summing per-core stats).
    pub fn merge(&mut self, other: EngineCacheStats) {
        self.prefetches += other.prefetches;
        self.cache_hits += other.cache_hits;
        self.shard_misses += other.shard_misses;
    }
}

/// Flat summary of one IPC hop (legacy shape; derived from a ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IpcCost {
    /// Cycles charged.
    pub cycles: u64,
    /// Bytes copied by the mechanism (0 for handover mechanisms).
    pub copied_bytes: u64,
}

impl IpcCost {
    /// Sum two hop costs.
    pub fn plus(self, other: IpcCost) -> IpcCost {
        IpcCost {
            cycles: self.cycles + other.cycles,
            copied_bytes: self.copied_bytes + other.copied_bytes,
        }
    }
}

impl Invocation {
    /// Collapse to the flat `{cycles, copied_bytes}` summary.
    pub fn cost(&self) -> IpcCost {
        IpcCost {
            cycles: self.total,
            copied_bytes: self.copied_bytes,
        }
    }
}

/// A synchronous cross-process call system: what one hop costs, phase by
/// phase.
///
/// Implementations live in the `kernels` crate (seL4 fast/slow path,
/// Zircon channels, Binder, the historical designs of Table 7, and the
/// XPC-accelerated variants). `oneway` takes `&mut self` so systems may
/// keep warm state (engine caches, link stacks).
pub trait IpcSystem {
    /// System name (used in experiment output and JSON dumps).
    fn name(&self) -> String;

    /// Price one hop delivering `msg_len` bytes under `opts`.
    fn oneway(&mut self, msg_len: usize, opts: &InvokeOpts) -> Invocation;

    /// Sink-based [`oneway`](Self::oneway): charge the hop's phases into
    /// `out` (accumulating — `out` need not be empty) and return the
    /// bytes copied.
    ///
    /// This is the zero-alloc hot path: the kernel models override it to
    /// charge their cost constants straight into the caller's ledger (an
    /// arena scratch, in the load generators), and implement `oneway` by
    /// delegating to [`oneway_invocation`]. The default goes the other
    /// way — allocate via `oneway` and merge — so stub systems that only
    /// implement `oneway` keep working unchanged.
    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let inv = self.oneway(msg_len, opts);
        out.merge(&inv.ledger);
        inv.copied_bytes
    }

    /// Whether a message can be *handed over* along a chain without
    /// another copy (relay segments can; copy mechanisms cannot, §7.2).
    fn supports_handover(&self) -> bool {
        false
    }

    /// Whether a call migrates the calling thread onto the callee's
    /// address space on the *caller's* core, so crossing cores costs the
    /// same as staying (§5.2 "Multi-core IPC": `xcall` needs no IPI or
    /// remote wakeup). Message-passing kernels return `false` and pay the
    /// [`CrossCore`](crate::multicore::CrossCore) surcharge.
    fn migrating_threads(&self) -> bool {
        false
    }

    /// The slice of one phase of the *first* call's cycles that repeat
    /// calls of a batch do **not** pay again (`first_cycles` is the first
    /// call's span for `phase`).
    ///
    /// The default amortizes half the kernel IPC logic (capability
    /// lookup, endpoint resolution — the part a batched submission
    /// resolves once) and nothing else, which is deliberately
    /// conservative for trap-based kernels: every repeat call still
    /// traps, switches and restores in full. XPC variants override this
    /// to drop the trampoline entry and the uncached x-entry fetch (the
    /// engine cache holds the entry after call one); Binder overrides it
    /// to halve the framework driver path.
    fn amortizable_cycles(&self, phase: Phase, first_cycles: u64, _opts: &InvokeOpts) -> u64 {
        match phase {
            Phase::IpcLogic => first_cycles / 2,
            _ => 0,
        }
    }

    /// Price a burst of `calls` one-way invocations of `bytes_each` bytes
    /// submitted together (AnyCall-style aggregation): the first call
    /// pays the full [`oneway`](Self::oneway) cost, every repeat call
    /// pays that minus [`amortizable_cycles`](Self::amortizable_cycles).
    /// Per-call payload transfer is never amortized — the data still has
    /// to move.
    fn invoke_batch(&mut self, calls: u64, bytes_each: usize, opts: &InvokeOpts) -> Invocation {
        let mut ledger = CycleLedger::new();
        let copied = self.invoke_batch_into(calls, bytes_each, opts, &mut ledger);
        Invocation::from_ledger(ledger, copied)
    }

    /// Sink-based [`invoke_batch`](Self::invoke_batch): charge the
    /// batch's phases into `out` and return the bytes copied. `out` must
    /// be empty on entry (the batch pricing rescales the first call's
    /// spans in place). Systems that only add side effects (stats
    /// counting) override this and delegate to [`amortized_batch_into`].
    fn invoke_batch_into(
        &mut self,
        calls: u64,
        bytes_each: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        amortized_batch_into(self, calls, bytes_each, opts, out)
    }

    /// Price hop `hop_index` of a *fused call program* (AnyCall-style:
    /// the whole chain is submitted once and executes server-side
    /// without returning to the client between hops), charging into
    /// `out` and returning the bytes copied.
    ///
    /// The default prices every hop as a full
    /// [`oneway_into`](Self::oneway_into) — trap-based kernels enter the
    /// kernel once per hop even when the chain is submitted as one
    /// program, so fusion buys them nothing but the saved replies. XPC
    /// variants override this: hop 0 pays the full trampoline entry,
    /// every continuation hop pays only a cached `xcall` (the engine
    /// cache holds the x-entry and the relay segment hands the payload
    /// over in place).
    fn fused_hop_into(
        &mut self,
        hop_index: u64,
        msg_len: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        let _ = hop_index;
        self.oneway_into(msg_len, opts, out)
    }

    /// Protection-boundary crossings a fused program of `hops` hops
    /// costs this mechanism per request. Trap baselines enter the kernel
    /// per hop (`hops`); XPC variants override to `1` — the program
    /// rides a single trampoline entry and continuation hops are
    /// user-mode `xcall`s.
    fn fused_crossings(&self, hops: u64) -> u64 {
        hops
    }

    /// Engine-cache counters accumulated by batched submissions, for
    /// systems that model one ([`None`] otherwise).
    fn engine_cache_stats(&self) -> Option<EngineCacheStats> {
        None
    }
}

/// Allocate-and-return wrapper over [`IpcSystem::oneway_into`]: a fresh
/// ledger charged through the sink path, packaged as an [`Invocation`].
/// Kernel models that implement `oneway_into` natively implement
/// `oneway` by delegating here, keeping one source of truth for the
/// cost constants.
pub fn oneway_invocation<S: IpcSystem + ?Sized>(
    sys: &mut S,
    msg_len: usize,
    opts: &InvokeOpts,
) -> Invocation {
    let mut ledger = CycleLedger::new();
    let copied = sys.oneway_into(msg_len, opts, &mut ledger);
    Invocation::from_ledger(ledger, copied)
}

/// Full round trip: a call leg carrying `request` bytes plus a reply
/// leg carrying `response` bytes, each priced by [`IpcSystem::oneway`].
pub fn roundtrip<S: IpcSystem + ?Sized>(
    sys: &mut S,
    request: usize,
    response: usize,
) -> Invocation {
    let call = sys.oneway(request, &InvokeOpts::call());
    let reply = sys.oneway(response, &InvokeOpts::reply_leg());
    call.plus(reply)
}

/// The shared first-call + amortized-repeats pricing behind
/// [`IpcSystem::invoke_batch`]: `total(n) = first + (n - 1) * repeat`
/// where `repeat` is the first call's span minus the system's
/// [`amortizable_cycles`](IpcSystem::amortizable_cycles) slice, phase by
/// phase (saturating — a system can never amortize below zero).
///
/// Free function (not a default-method body) so overriding impls that
/// only want to add side effects (stats counting) can delegate here.
pub fn amortized_batch<S: IpcSystem + ?Sized>(
    sys: &mut S,
    calls: u64,
    bytes_each: usize,
    opts: &InvokeOpts,
) -> Invocation {
    let mut ledger = CycleLedger::new();
    let copied = amortized_batch_into(sys, calls, bytes_each, opts, &mut ledger);
    Invocation::from_ledger(ledger, copied)
}

/// Sink-based [`amortized_batch`]: prices the first call through
/// [`IpcSystem::oneway_into`], then rescales each span in place to
/// `first + (n - 1) * (first - amortizable)`. Zero allocations when
/// the system's `oneway_into` is native.
///
/// `out` must be empty on entry — the in-place rescale assumes every
/// span in `out` belongs to the first call.
pub fn amortized_batch_into<S: IpcSystem + ?Sized>(
    sys: &mut S,
    calls: u64,
    bytes_each: usize,
    opts: &InvokeOpts,
    out: &mut CycleLedger,
) -> u64 {
    assert!(calls >= 1, "a batch prices at least one call");
    debug_assert!(out.is_empty(), "batch pricing needs a pristine sink");
    let copied = sys.oneway_into(bytes_each, opts, out);
    if calls == 1 {
        return copied;
    }
    out.map_cycles(|phase, cycles| {
        let repeat = cycles.saturating_sub(sys.amortizable_cycles(phase, cycles, opts));
        cycles + (calls - 1) * repeat
    });
    copied * calls
}

impl IpcSystem for Box<dyn IpcSystem> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn oneway(&mut self, msg_len: usize, opts: &InvokeOpts) -> Invocation {
        (**self).oneway(msg_len, opts)
    }
    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        (**self).oneway_into(msg_len, opts, out)
    }
    fn supports_handover(&self) -> bool {
        (**self).supports_handover()
    }
    fn migrating_threads(&self) -> bool {
        (**self).migrating_threads()
    }
    fn amortizable_cycles(&self, phase: Phase, first_cycles: u64, opts: &InvokeOpts) -> u64 {
        (**self).amortizable_cycles(phase, first_cycles, opts)
    }
    fn invoke_batch(&mut self, calls: u64, bytes_each: usize, opts: &InvokeOpts) -> Invocation {
        (**self).invoke_batch(calls, bytes_each, opts)
    }
    fn invoke_batch_into(
        &mut self,
        calls: u64,
        bytes_each: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        (**self).invoke_batch_into(calls, bytes_each, opts, out)
    }
    fn fused_hop_into(
        &mut self,
        hop_index: u64,
        msg_len: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        (**self).fused_hop_into(hop_index, msg_len, opts, out)
    }
    fn fused_crossings(&self, hops: u64) -> u64 {
        (**self).fused_crossings(hops)
    }
    fn engine_cache_stats(&self) -> Option<EngineCacheStats> {
        (**self).engine_cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{CycleLedger, Phase};

    struct Fixed(u64);
    impl IpcSystem for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn oneway(&mut self, msg_len: usize, _opts: &InvokeOpts) -> Invocation {
            Invocation::from_ledger(
                CycleLedger::new()
                    .with(Phase::Trap, self.0)
                    .with(Phase::Transfer, msg_len as u64),
                msg_len as u64,
            )
        }
    }

    #[test]
    fn roundtrip_sums_both_ways() {
        let mut m = Fixed(100);
        let rt = roundtrip(&mut m, 10, 20);
        assert_eq!(rt.total, 100 + 10 + 100 + 20);
        assert_eq!(rt.copied_bytes, 30);
        assert_eq!(rt.ledger.get(Phase::Trap), 200);
        assert_eq!(rt.ledger.get(Phase::Transfer), 30);
        assert_eq!(rt.total, rt.ledger.total());
    }

    #[test]
    fn default_handover_is_false() {
        assert!(!Fixed(1).supports_handover());
    }

    #[test]
    fn cost_summarises_the_invocation() {
        let mut m = Fixed(7);
        let inv = m.oneway(5, &InvokeOpts::call());
        let c = inv.cost();
        assert_eq!(c.cycles, 12);
        assert_eq!(c.copied_bytes, 5);
    }

    #[test]
    fn boxed_system_forwards() {
        let mut b: Box<dyn IpcSystem> = Box::new(Fixed(3));
        assert_eq!(b.name(), "fixed");
        assert_eq!(b.oneway(1, &InvokeOpts::call()).total, 4);
    }

    struct Amortizing;
    impl IpcSystem for Amortizing {
        fn name(&self) -> String {
            "amortizing".into()
        }
        fn oneway(&mut self, msg_len: usize, _opts: &InvokeOpts) -> Invocation {
            Invocation::from_ledger(
                CycleLedger::new()
                    .with(Phase::Trap, 100)
                    .with(Phase::IpcLogic, 50)
                    .with(Phase::Transfer, msg_len as u64),
                msg_len as u64,
            )
        }
    }

    #[test]
    fn batch_of_one_is_exactly_oneway() {
        let opts = InvokeOpts::call();
        let one = Amortizing.oneway(64, &opts);
        let batch = Amortizing.invoke_batch(1, 64, &opts);
        assert_eq!(batch, one, "batch=1 must be bit-identical to oneway");
    }

    #[test]
    fn default_amortization_halves_ipc_logic_on_repeats() {
        let opts = InvokeOpts::call();
        // first = 100 + 50 + 64; each repeat = 100 + 25 + 64.
        let b = Amortizing.invoke_batch(4, 64, &opts);
        assert_eq!(b.ledger.get(Phase::Trap), 4 * 100);
        assert_eq!(b.ledger.get(Phase::IpcLogic), 50 + 3 * 25);
        assert_eq!(b.ledger.get(Phase::Transfer), 4 * 64);
        assert_eq!(b.total, b.ledger.total());
        assert_eq!(b.copied_bytes, 4 * 64);
    }

    #[test]
    fn per_call_cost_decreases_with_batch_size() {
        let opts = InvokeOpts::call();
        let per = |n: u64| Amortizing.invoke_batch(n, 64, &opts).total as f64 / n as f64;
        assert!(per(8) < per(1));
        assert!(per(64) < per(8));
        // ...but never below the unamortized per-call floor.
        let repeat = per(1) - 25.0; // IpcLogic/2 is all the default amortizes
        assert!(per(64) >= repeat);
    }

    #[test]
    fn boxed_system_forwards_batching() {
        let mut b: Box<dyn IpcSystem> = Box::new(Amortizing);
        let direct = Amortizing.invoke_batch(8, 16, &InvokeOpts::call());
        assert_eq!(b.invoke_batch(8, 16, &InvokeOpts::call()), direct);
        assert_eq!(b.engine_cache_stats(), None);
    }

    #[test]
    fn default_oneway_into_matches_oneway() {
        let opts = InvokeOpts::call();
        let inv = Fixed(100).oneway(64, &opts);
        let mut out = CycleLedger::new();
        let copied = Fixed(100).oneway_into(64, &opts, &mut out);
        assert_eq!(out, inv.ledger);
        assert_eq!(copied, inv.copied_bytes);
        // Accumulating semantics: a second hop merges, not replaces.
        let copied2 = Fixed(100).oneway_into(64, &opts, &mut out);
        assert_eq!(copied2, 64);
        assert_eq!(out.get(Phase::Trap), 200);
    }

    #[test]
    fn oneway_invocation_round_trips_the_sink_path() {
        let opts = InvokeOpts::call();
        assert_eq!(
            oneway_invocation(&mut Fixed(9), 5, &opts),
            Fixed(9).oneway(5, &opts)
        );
    }

    #[test]
    fn invoke_batch_into_matches_invoke_batch() {
        let opts = InvokeOpts::call();
        for calls in [1, 8, 64] {
            let inv = Amortizing.invoke_batch(calls, 64, &opts);
            let mut out = CycleLedger::new();
            let copied = Amortizing.invoke_batch_into(calls, 64, &opts, &mut out);
            assert_eq!(out, inv.ledger, "batch of {calls} must match");
            assert_eq!(copied, inv.copied_bytes);
        }
    }

    #[test]
    fn default_fused_hop_is_a_full_kernel_entry_at_any_index() {
        let opts = InvokeOpts::call();
        for hop in [0, 1, 5] {
            let mut out = CycleLedger::new();
            let copied = Fixed(100).fused_hop_into(hop, 64, &opts, &mut out);
            assert_eq!(out, Fixed(100).oneway(64, &opts).ledger, "hop {hop}");
            assert_eq!(copied, 64);
        }
        assert_eq!(Fixed(100).fused_crossings(5), 5, "trap baselines scale");
    }

    #[test]
    fn boxed_system_forwards_fused_methods() {
        let mut b: Box<dyn IpcSystem> = Box::new(Fixed(3));
        let mut out = CycleLedger::new();
        assert_eq!(b.fused_hop_into(1, 8, &InvokeOpts::call(), &mut out), 8);
        assert_eq!(b.fused_crossings(4), 4);
    }

    #[test]
    fn boxed_system_forwards_sink_methods() {
        let mut b: Box<dyn IpcSystem> = Box::new(Amortizing);
        let mut out = CycleLedger::new();
        let copied = b.oneway_into(16, &InvokeOpts::call(), &mut out);
        assert_eq!(copied, 16);
        assert_eq!(out, Amortizing.oneway(16, &InvokeOpts::call()).ledger);
        assert_eq!(
            b.amortizable_cycles(Phase::IpcLogic, 50, &InvokeOpts::call()),
            25
        );
        out.clear();
        let copied = b.invoke_batch_into(4, 16, &InvokeOpts::call(), &mut out);
        assert_eq!(copied, 64);
        assert_eq!(
            out,
            Amortizing.invoke_batch(4, 16, &InvokeOpts::call()).ledger
        );
    }
}
