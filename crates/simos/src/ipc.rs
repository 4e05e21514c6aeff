//! The invocation interface every kernel model implements.
//!
//! [`IpcSystem`] is the single pipeline the whole evaluation goes
//! through: a system prices one hop of `msg_len` bytes by charging a
//! [`CycleLedger`] that attributes every cycle to a named [`Phase`]
//! ([`oneway`] packages that ledger as an [`Invocation`]).
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

/// A synchronous cross-process call system: what one hop costs, phase by
/// phase.
///
/// Implementations live in the `kernels` crate (seL4 fast/slow path,
/// Zircon channels, Binder, the historical designs of Table 7, and the
/// XPC-accelerated variants). Pricing methods take `&mut self` so
/// systems may keep warm state (engine caches, link stacks).
///
/// [`oneway_into`](Self::oneway_into) is the one required pricing
/// method; every other price — [`oneway`], [`invoke_batch`],
/// [`roundtrip`], the load generators' steps — is charged through it.
/// A stub system implements just that:
///
/// ```
/// use simos::{oneway, CycleLedger, InvokeOpts, IpcSystem, Phase};
///
/// struct Stub;
/// impl IpcSystem for Stub {
///     fn name(&self) -> String {
///         "stub".into()
///     }
///     fn oneway_into(&mut self, msg_len: usize, _: &InvokeOpts, out: &mut CycleLedger) -> u64 {
///         out.charge(Phase::Trap, 100);
///         msg_len as u64
///     }
/// }
///
/// assert_eq!(oneway(&mut Stub, 8, &InvokeOpts::call()).total, 100);
/// ```
///
/// There is no allocating twin to implement or keep in step: the same
/// stub with an `oneway` method added does not compile.
///
/// ```compile_fail
/// use simos::{CycleLedger, Invocation, InvokeOpts, IpcSystem, Phase};
///
/// struct Stub;
/// impl IpcSystem for Stub {
///     fn name(&self) -> String {
///         "stub".into()
///     }
///     fn oneway_into(&mut self, msg_len: usize, _: &InvokeOpts, out: &mut CycleLedger) -> u64 {
///         out.charge(Phase::Trap, 100);
///         msg_len as u64
///     }
///     fn oneway(&mut self, _: usize, _: &InvokeOpts) -> Invocation {
///         Invocation::default()
///     }
/// }
/// ```
pub trait IpcSystem {
    /// System name (used in experiment output and JSON dumps).
    fn name(&self) -> String;

    /// Price one hop delivering `msg_len` bytes under `opts`: charge its
    /// phases into `out` (accumulating — `out` need not be empty) and
    /// return the bytes copied.
    ///
    /// Kernel models charge their cost constants straight into the
    /// caller's ledger (an arena scratch, in the load generators), so
    /// pricing a hop allocates nothing.
    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64;

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
    /// submitted together (AnyCall-style aggregation), charging into
    /// `out` and returning the bytes copied. `out` must be empty on
    /// entry (the batch pricing rescales the first call's spans in
    /// place). The default is [`amortized_batch_into`]; systems that
    /// only add side effects (stats counting) override this and
    /// delegate there.
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

/// Price one hop as a standalone [`Invocation`]: a fresh ledger
/// charged through [`IpcSystem::oneway_into`]. For tables and ad-hoc
/// callers; hot paths charge a reused ledger directly.
pub fn oneway(sys: &mut dyn IpcSystem, msg_len: usize, opts: &InvokeOpts) -> Invocation {
    let mut ledger = CycleLedger::new();
    let copied = sys.oneway_into(msg_len, opts, &mut ledger);
    Invocation::from_ledger(ledger, copied)
}

/// Price a burst of `calls` one-way hops of `bytes_each` bytes submitted
/// together as a standalone [`Invocation`], through
/// [`IpcSystem::invoke_batch_into`]: the first call pays the full
/// [`oneway`] cost, every repeat call pays that minus
/// [`amortizable_cycles`](IpcSystem::amortizable_cycles). Per-call
/// payload transfer is never amortized — the data still has to move.
pub fn invoke_batch(
    sys: &mut dyn IpcSystem,
    calls: u64,
    bytes_each: usize,
    opts: &InvokeOpts,
) -> Invocation {
    let mut ledger = CycleLedger::new();
    let copied = sys.invoke_batch_into(calls, bytes_each, opts, &mut ledger);
    Invocation::from_ledger(ledger, copied)
}

/// Full round trip: a call leg carrying `request` bytes plus a reply
/// leg carrying `response` bytes, charged in that order into one ledger.
pub fn roundtrip(sys: &mut dyn IpcSystem, request: usize, response: usize) -> Invocation {
    let mut ledger = CycleLedger::new();
    let copied = sys.oneway_into(request, &InvokeOpts::call(), &mut ledger)
        + sys.oneway_into(response, &InvokeOpts::reply_leg(), &mut ledger);
    Invocation::from_ledger(ledger, copied)
}

/// The shared first-call + amortized-repeats pricing behind
/// [`IpcSystem::invoke_batch_into`]: `total(n) = first + (n - 1) *
/// repeat`, where `repeat` is the first call's span minus the system's
/// [`amortizable_cycles`](IpcSystem::amortizable_cycles) slice, phase by
/// phase (saturating — a system can never amortize below zero). Prices
/// the first call through [`IpcSystem::oneway_into`], then rescales
/// each span in place.
///
/// Free function (not a default-method body) so overriding impls that
/// only want to add side effects (stats counting) can delegate here.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{CycleLedger, Phase};

    struct Fixed(u64);
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
            out.charge(Phase::Trap, self.0);
            out.charge(Phase::Transfer, msg_len as u64);
            msg_len as u64
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
        // `oneway_into` accumulates: two legs into one non-empty sink are
        // the round trip, span for span.
        let mut out = CycleLedger::new();
        m.oneway_into(10, &InvokeOpts::call(), &mut out);
        assert_eq!(m.oneway_into(20, &InvokeOpts::reply_leg(), &mut out), 20);
        assert_eq!(out, rt.ledger);
    }

    #[test]
    fn default_handover_is_false() {
        assert!(!Fixed(1).supports_handover());
    }

    struct Amortizing;
    impl IpcSystem for Amortizing {
        fn name(&self) -> String {
            "amortizing".into()
        }
        fn oneway_into(
            &mut self,
            msg_len: usize,
            _opts: &InvokeOpts,
            out: &mut CycleLedger,
        ) -> u64 {
            out.charge(Phase::Trap, 100);
            out.charge(Phase::IpcLogic, 50);
            out.charge(Phase::Transfer, msg_len as u64);
            msg_len as u64
        }
    }

    #[test]
    fn batch_of_one_is_exactly_oneway() {
        let opts = InvokeOpts::call();
        let one = oneway(&mut Amortizing, 64, &opts);
        let batch = invoke_batch(&mut Amortizing, 1, 64, &opts);
        assert_eq!(batch, one, "batch=1 must be bit-identical to oneway");
    }

    #[test]
    fn default_amortization_halves_ipc_logic_on_repeats() {
        let opts = InvokeOpts::call();
        // first = 100 + 50 + 64; each repeat = 100 + 25 + 64.
        let b = invoke_batch(&mut Amortizing, 4, 64, &opts);
        assert_eq!(b.ledger.get(Phase::Trap), 4 * 100);
        assert_eq!(b.ledger.get(Phase::IpcLogic), 50 + 3 * 25);
        assert_eq!(b.ledger.get(Phase::Transfer), 4 * 64);
        assert_eq!(b.total, b.ledger.total());
        assert_eq!(b.copied_bytes, 4 * 64);
    }

    #[test]
    fn per_call_cost_decreases_with_batch_size() {
        let opts = InvokeOpts::call();
        let per = |n: u64| invoke_batch(&mut Amortizing, n, 64, &opts).total as f64 / n as f64;
        assert!(per(8) < per(1));
        assert!(per(64) < per(8));
        // ...but never below the unamortized per-call floor.
        let repeat = per(1) - 25.0; // IpcLogic/2 is all the default amortizes
        assert!(per(64) >= repeat);
    }

    #[test]
    fn default_fused_hop_is_a_full_kernel_entry_at_any_index() {
        let opts = InvokeOpts::call();
        for hop in [0, 1, 5] {
            let mut out = CycleLedger::new();
            let copied = Fixed(100).fused_hop_into(hop, 64, &opts, &mut out);
            assert_eq!(out, oneway(&mut Fixed(100), 64, &opts).ledger, "hop {hop}");
            assert_eq!(copied, 64);
        }
        assert_eq!(Fixed(100).fused_crossings(5), 5, "trap baselines scale");
    }
}
