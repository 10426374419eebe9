//! The simulation kernel: clock domains, the [`Module`] trait and the
//! [`Simulator`] event loop.
//!
//! The kernel is deliberately simple and fully deterministic:
//!
//! * Global time is a picosecond counter ([`Time`]).
//! * Each [`ClockId`] has a fixed period; its modules are ticked, in
//!   registration order, on every rising edge.
//! * When several clocks share an edge instant, they tick in creation order.
//!
//! Within one edge, modules communicate only through [`crate::stream`]
//! channels and shared state; the registration order therefore fixes
//! intra-cycle scheduling. Registering modules in dataflow order gives
//! combinational (same-cycle) forwarding through a channel; reverse order
//! gives one cycle of latency — either is a valid hardware interpretation,
//! and either way results are exactly reproducible.
//!
//! # Edge dispatch
//!
//! The next rising edge is the minimum over the domains' pending edges;
//! every domain whose edge falls at that instant then ticks, in creation
//! order. A chassis builds one clock domain, so the scan is one compare.
//!
//! # Activity
//!
//! Modules opt into the fast path by overriding [`Module::activity`]. A
//! module may report [`Activity::Quiescent`] only if `tick` would have no
//! observable effect **now and at every future edge**, assuming none of its
//! inputs change in the meantime; [`Activity::Until`] makes the same
//! promise for every edge strictly before a known instant. Because modules
//! only influence one another through ticks, if no module can act before
//! some instant then no input can change before it either: `run_until` and
//! `run_cycles` then fast-forward — advancing `now` and every cycle counter
//! arithmetically to exactly the state the naive loop would have reached,
//! without executing the intervening edges.
//!
//! # Cached activity (edge-triggered invalidation)
//!
//! Re-asking every module for its activity on every probe is itself a full
//! scan — on all-busy workloads it costs almost as much as ticking. The
//! default [`SchedulerMode::Auto`] therefore *caches* each module's
//! [`Activity`] and only re-queries it when something could have changed
//! it:
//!
//! * a module that exposes a [`WakeHandle`] (via [`Module::wake_handle`])
//!   is re-queried only when the flag is dirty — streams, wires and
//!   host-side handles mark the consuming module dirty on every push,
//!   so an untouched module's bound is served from the cache;
//! * after a module ticks, its cache is refreshed in place — the dispatch
//!   sweep doubles as the activity probe, so `run_until` never re-scans;
//! * modules without a handle (the default) are simply re-queried every
//!   time: out-of-tree modules keep working, at scan cost.
//!
//! [`SchedulerMode::Scan`] keeps no caches and re-queries every module: the
//! reference the cached path is verified against.
//!
//! Builds with debug assertions verify the protocol: serving a clean cache
//! re-queries the module anyway and asserts the classification did not
//! drift, so a module that mutates activity-relevant state without waking
//! fails loudly instead of silently skipping work.

use crate::stats::Counter;
use crate::time::{Frequency, Time};
use std::cell::Cell;
use std::rc::Rc;

/// Per-tick context handed to every module.
#[derive(Debug, Clone, Copy)]
pub struct TickContext {
    /// Current simulated time (the instant of this rising edge).
    pub now: Time,
    /// Index of this edge within the module's clock domain (0-based).
    pub cycle: u64,
    /// Period of the module's clock domain. Lets a module convert a cycle
    /// count into an absolute instant — e.g. to stamp the release time of a
    /// fixed-latency pipeline for [`Module::activity`].
    pub period: Time,
}

/// Edge-triggered invalidation flag shared between a module and the
/// kernel's activity cache.
///
/// A module that opts into cached activity bounds creates one handle,
/// registers clones of it on every channel that can change its activity
/// (input streams, wires, host-side queues — anything external that its
/// [`Module::activity`] answer depends on), and returns it from
/// [`Module::wake_handle`]. Whenever such a channel is written,
/// [`WakeHandle::wake`] marks the cached classification dirty and the
/// kernel re-queries the module before trusting it again.
///
/// Handles are born dirty, so a freshly built module is always queried at
/// least once. Waking is a single `Cell<bool>` store — cheap enough for
/// every stream push.
#[derive(Clone, Debug)]
pub struct WakeHandle(Rc<Cell<bool>>);

impl WakeHandle {
    /// A new handle, born dirty.
    pub fn new() -> WakeHandle {
        WakeHandle(Rc::new(Cell::new(true)))
    }

    /// Mark the owning module's cached activity bound dirty.
    #[inline]
    pub fn wake(&self) {
        self.0.set(true);
    }

    /// Whether a wake happened since the flag was last cleared.
    pub fn is_dirty(&self) -> bool {
        self.0.get()
    }

    /// Clear the dirty flag (after a re-query that supersedes any wake).
    #[inline]
    fn clear(&self) {
        self.0.set(false);
    }
}

impl Default for WakeHandle {
    fn default() -> WakeHandle {
        WakeHandle::new()
    }
}

/// A hardware building block driven by a clock edge.
///
/// Implementations should perform at most one word of work per stream port
/// per tick — that is what makes a tick a cycle.
pub trait Module {
    /// Stable instance name for diagnostics.
    fn name(&self) -> &str;

    /// Advance one clock cycle.
    fn tick(&mut self, ctx: &TickContext);

    /// Return to power-on state. Default: no-op.
    fn reset(&mut self) {}

    /// Fast-path hint: what `tick` can do from now on, as long as none of
    /// this module's inputs change in the meantime.
    ///
    /// * [`Activity::Quiescent`] promises no observable effect now **or at
    ///   any future edge**. The promise must not depend on the current time
    ///   or cycle count: a module waiting on a timer or a scheduled release
    ///   cycle is not quiescent.
    /// * [`Activity::Until`]`(t)` promises no observable effect at any edge
    ///   **strictly before** `t`. A MAC waiting for the head frame on a wire
    ///   to finish arriving, or for a transmit backlog gate to open, is
    ///   exactly this shape: scheduled work exists, but nothing can happen
    ///   before a known instant. A bound at or before the current time is
    ///   harmless (no edge precedes it, so nothing is skipped).
    /// * [`Activity::Active`] makes no promise: the module ticks at the
    ///   next edge.
    ///
    /// The simulator may skip the ticks these promises cover and, when no
    /// module can act before some instant, fast-forward simulated time to
    /// it without executing edges at all. Default: `Active`, which is
    /// always safe.
    fn activity(&self) -> Activity {
        Activity::Active
    }

    /// Opt into cached activity bounds: return (a clone of) the
    /// [`WakeHandle`] this module registered on all of its external input
    /// channels. The kernel then caches the module's [`Module::activity`]
    /// and re-queries it only after a tick or a wake, instead of on every
    /// probe and every edge.
    ///
    /// Default: `None` — the module is re-queried every time (scan cost),
    /// which is always correct. Only return a handle if **every** channel
    /// that can change this module's activity wakes it; a missed channel
    /// means skipped work (loud with debug assertions, silent without).
    fn wake_handle(&self) -> Option<WakeHandle> {
        None
    }

    /// Recover from a wedged state without losing configuration: flush
    /// in-flight framing and pacing state (partial packets, reassembly,
    /// link pacing marks) while preserving configuration, learned tables,
    /// queued *complete* packets, and statistics counters. This is the
    /// hardware soft reset a watchdog drives after a quiesce/drain window —
    /// unlike [`Module::reset`], which returns to power-on state.
    ///
    /// Default: no-op, which is always safe for modules that hold no
    /// partial-frame state.
    fn soft_reset(&mut self) {}
}

/// A shared soft-reset request line between a watchdog-style module and the
/// [`Simulator`]: any holder may [`SoftResetLine::request`] a soft reset,
/// and the kernel consumes the request at the next step boundary (before
/// any module ticks), calling [`Module::soft_reset`] on every registered
/// module. Latching at step boundaries keeps the reset instant identical in
/// every scheduler mode.
#[derive(Clone, Debug, Default)]
pub struct SoftResetLine(Rc<Cell<bool>>);

impl SoftResetLine {
    /// A new, idle line.
    pub fn new() -> SoftResetLine {
        SoftResetLine::default()
    }

    /// Assert the line: the kernel soft-resets every module at the next
    /// step boundary.
    pub fn request(&self) {
        self.0.set(true);
    }

    /// Whether a request is pending (not yet consumed by the kernel).
    pub fn pending(&self) -> bool {
        self.0.get()
    }

    /// Consume a pending request, returning whether one was set.
    pub fn take(&self) -> bool {
        self.0.replace(false)
    }
}

/// What a module's ticks can do from now on (see [`Module::activity`]).
///
/// The kernel uses the same enum for its per-module cache and for the
/// whole population: folded over every module, `Quiescent` means all of
/// them are quiescent and `Until(t)` is the earliest bound of the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Inert at every future edge until an input changes.
    Quiescent,
    /// Inert at every edge strictly before the instant.
    Until(Time),
    /// Must tick at the very next edge of its domain.
    Active,
}

impl Activity {
    /// The verdict for two modules together: `Active` wins, bounds take
    /// the earlier instant and `Quiescent` changes nothing.
    fn join(self, other: Activity) -> Activity {
        match (self, other) {
            (Activity::Quiescent, x) | (x, Activity::Quiescent) => x,
            (Activity::Until(a), Activity::Until(b)) => Activity::Until(a.min(b)),
            _ => Activity::Active,
        }
    }
}

/// Identifies a clock domain within a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockId(usize);

/// A registered module plus the kernel-side state of its activity cache.
struct ModuleSlot {
    module: Box<dyn Module>,
    /// The module's invalidation flag, when it opted in.
    wake: Option<WakeHandle>,
    /// Last classification; meaningful only while `wake` is `Some` and
    /// clean (modules without a handle are re-queried every time).
    cached: Activity,
    /// The module ticked since `cached` was last queried. Only ever set
    /// while `cached` is `Active`: the dispatch sweep re-ticks such a
    /// module without a fresh classification (a tick of a module that
    /// meanwhile went idle is the very no-op the reference executes), and
    /// only the activity fold — which early-exits on the first `Active`
    /// verdict — pays the re-query.
    stale: bool,
}

impl ModuleSlot {
    fn new(module: Box<dyn Module>) -> ModuleSlot {
        let wake = module.wake_handle();
        if let Some(w) = &wake {
            w.wake();
        }
        ModuleSlot {
            module,
            wake,
            cached: Activity::Active,
            stale: false,
        }
    }

    /// Current classification: served from the cache when the wake flag is
    /// clean, re-queried when dirty. Modules without a handle (the default
    /// adapter) are re-queried every time — correct at scan cost.
    /// The clean-cache (steady-state) path runs once per module per
    /// executed edge, so it stays read-only on the flag and batches its
    /// counter into `probes_avoided`, which the caller flushes once per
    /// sweep.
    fn classify(&mut self, stats: &KernelStatCells, probes_avoided: &mut u64) -> Activity {
        let Some(wake) = &self.wake else {
            return self.module.activity();
        };
        if self.stale || wake.is_dirty() {
            self.refresh();
            stats.invalidations.incr();
        } else {
            *probes_avoided += 1;
            // Contract check: a clean flag promises the module's activity
            // did not change since the last query. A module that mutated
            // activity-relevant state without waking would silently skip
            // work without debug assertions — fail loudly here instead.
            debug_assert_eq!(
                self.module.activity(),
                self.cached,
                "module `{}` changed its activity classification without a \
                 tick or a wake (missing WakeHandle::wake on some input \
                 channel?)",
                self.module.name()
            );
        }
        self.cached
    }

    /// Refresh the cache right after this module ticked — the fused probe:
    /// the dispatch sweep doubles as the activity scan, so steady-state
    /// probes are pure cache reads.
    fn refresh(&mut self) {
        if let Some(wake) = &self.wake {
            wake.clear();
            self.stale = false;
            self.cached = self.module.activity();
        }
    }

    /// Force a re-query at the next classification (reset, re-registration).
    fn invalidate(&mut self) {
        if let Some(wake) = &self.wake {
            wake.wake();
        }
        self.stale = false;
        self.cached = Activity::Active;
    }
}

struct DomainState {
    name: String,
    period: Time,
    next_edge: Time,
    cycle: u64,
    slots: Vec<ModuleSlot>,
}

impl DomainState {
    /// Tick every module of this domain at instant `edge` and schedule the
    /// domain's next edge.
    ///
    /// The cached path consults the activity cache per module: a quiescent
    /// module is skipped, and a time-blocked module whose bound lies
    /// strictly after `edge` is skipped too — its tick is a proven no-op.
    /// Every module that does tick has its cache refreshed in place, fusing
    /// the activity probe into this sweep. The unfused `Scan` reference
    /// re-queries each module's activity per edge and skips only the
    /// quiescent ones.
    fn dispatch(&mut self, edge: Time, idle_skip: bool, fused: bool, stats: &KernelStatCells) {
        let ctx = TickContext {
            now: edge,
            cycle: self.cycle,
            period: self.period,
        };
        let mut avoided = 0u64;
        for s in &mut self.slots {
            if fused && idle_skip {
                if s.stale {
                    // Last classified `Active` and ticked since: tick again
                    // without re-classifying. If it meanwhile went idle the
                    // tick is the same no-op the reference executes; the
                    // activity fold re-queries before any fast-forward.
                    s.module.tick(&ctx);
                    avoided += 1;
                    continue;
                }
                let run = match s.classify(stats, &mut avoided) {
                    Activity::Quiescent => false,
                    Activity::Until(t) => t <= edge,
                    Activity::Active => true,
                };
                if run {
                    s.module.tick(&ctx);
                    if s.wake.is_some() && s.cached == Activity::Active {
                        // Steady-state streaming: no bound to learn, so
                        // defer the re-query to the next activity fold.
                        s.stale = true;
                    } else {
                        s.refresh();
                    }
                }
            } else if !idle_skip || s.module.activity() != Activity::Quiescent {
                s.module.tick(&ctx);
            }
        }
        if avoided > 0 {
            stats.probes_avoided.add(avoided);
        }
        self.cycle += 1;
        self.next_edge = edge + self.period;
    }
}

/// How the simulator serves module activity. Both modes produce exactly
/// the same edge sequence, tick order and timestamps; they differ only in
/// cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Serve activity from the per-module caches, refreshed by the dispatch
    /// sweep and by wakes. The default.
    #[default]
    Auto,
    /// Re-query every module on every probe, with no caches: the reference
    /// implementation the cached path is verified against.
    Scan,
}

/// Shared counter cells behind [`Simulator::kernel_stats`].
///
/// Clones are live handles onto the same cells, so a harness can mount
/// them as telemetry gauges (`kernel.steps`, `kernel.skips`, …) without
/// borrowing the simulator.
#[derive(Debug, Clone, Default)]
pub struct KernelStatCells {
    /// Edges executed via [`Simulator::step`].
    pub steps: Counter,
    /// Per-domain edges fast-forwarded without dispatch (quiescent or
    /// time-blocked stretches).
    pub skips: Counter,
    /// Module classifications served from a clean cache — each one a
    /// [`Module::activity`] virtual call that never ran — plus
    /// stale-`Active` re-ticks dispatched without any probe at all.
    pub probes_avoided: Counter,
    /// Cache re-queries, forced by a wake (edge-triggered invalidation)
    /// or by the module's own tick since the last query.
    pub invalidations: Counter,
}

/// Snapshot of the kernel's own work counters (see [`KernelStatCells`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Edges executed via [`Simulator::step`].
    pub steps: u64,
    /// Per-domain edges fast-forwarded without dispatch.
    pub skips: u64,
    /// Module probes served from a clean activity cache.
    pub probes_avoided: u64,
    /// Cache re-queries forced by a wake.
    pub invalidations: u64,
}

impl std::ops::AddAssign for KernelStats {
    fn add_assign(&mut self, rhs: KernelStats) {
        self.steps += rhs.steps;
        self.skips += rhs.skips;
        self.probes_avoided += rhs.probes_avoided;
        self.invalidations += rhs.invalidations;
    }
}

impl std::ops::Add for KernelStats {
    type Output = KernelStats;

    fn add(mut self, rhs: KernelStats) -> KernelStats {
        self += rhs;
        self
    }
}

impl std::iter::Sum for KernelStats {
    /// Aggregate per-shard kernel snapshots into one fabric-wide total —
    /// how a multi-chassis run reports the work of all its simulators.
    fn sum<I: Iterator<Item = KernelStats>>(iter: I) -> KernelStats {
        iter.fold(KernelStats::default(), |a, b| a + b)
    }
}

/// The discrete-time simulator owning all modules.
///
/// ```
/// use netfpga_core::sim::{Module, Simulator, TickContext};
/// use netfpga_core::time::Frequency;
///
/// struct Counter(u64);
/// impl Module for Counter {
///     fn name(&self) -> &str { "counter" }
///     fn tick(&mut self, _ctx: &TickContext) { self.0 += 1; }
/// }
///
/// let mut sim = Simulator::new();
/// let clk = sim.add_clock("core", Frequency::mhz(200));
/// sim.add_module(clk, Counter(0));
/// sim.run_cycles(clk, 100);
/// ```
pub struct Simulator {
    domains: Vec<DomainState>,
    now: Time,
    mode: SchedulerMode,
    /// Master switch for quiescence skipping and fast-forward.
    idle_skip: bool,
    /// The kernel's own work counters (steps, skips, cache traffic).
    stats: KernelStatCells,
    /// Shared soft-reset request line, consumed at step boundaries.
    reset_line: SoftResetLine,
}

impl Default for Simulator {
    fn default() -> Simulator {
        Simulator {
            domains: Vec::new(),
            now: Time::ZERO,
            mode: SchedulerMode::Auto,
            idle_skip: true,
            stats: KernelStatCells::default(),
            reset_line: SoftResetLine::new(),
        }
    }
}

impl Simulator {
    /// An empty simulator at time zero.
    pub fn new() -> Simulator {
        Simulator::default()
    }

    /// An empty simulator using the given scheduler mode.
    pub fn with_scheduler(mode: SchedulerMode) -> Simulator {
        Simulator {
            mode,
            ..Simulator::default()
        }
    }

    /// Select the scheduler mode. Takes effect at the next step; the edge
    /// sequence is identical in every mode.
    pub fn set_scheduler_mode(&mut self, mode: SchedulerMode) {
        self.mode = mode;
    }

    /// The configured scheduler mode.
    pub fn scheduler_mode(&self) -> SchedulerMode {
        self.mode
    }

    /// Enable or disable activity skipping ([`Module::activity`]) and idle
    /// fast-forward. On by default; disabling forces every tick to
    /// execute, which is useful for differential testing.
    pub fn set_idle_skip(&mut self, enabled: bool) {
        self.idle_skip = enabled;
    }

    /// Whether quiescence skipping is enabled.
    pub fn idle_skip(&self) -> bool {
        self.idle_skip
    }

    /// Create a clock domain. The first rising edge is at one period
    /// (time 0 is reset release, not an edge).
    pub fn add_clock(&mut self, name: &str, freq: Frequency) -> ClockId {
        let period = freq.period();
        self.domains.push(DomainState {
            name: name.to_string(),
            period,
            next_edge: self.now + period,
            cycle: 0,
            slots: Vec::new(),
        });
        ClockId(self.domains.len() - 1)
    }

    /// Register a module on a clock domain. Modules tick in registration
    /// order within a domain.
    pub fn add_module(&mut self, clock: ClockId, module: impl Module + 'static) {
        self.add_boxed_module(clock, Box::new(module));
    }

    /// Register a boxed module (for heterogeneous construction code).
    pub fn add_boxed_module(&mut self, clock: ClockId, module: Box<dyn Module>) {
        self.domains[clock.0].slots.push(ModuleSlot::new(module));
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Cycle count of a domain (number of edges executed).
    pub fn cycles(&self, clock: ClockId) -> u64 {
        self.domains[clock.0].cycle
    }

    /// Edges the kernel actually executed via [`Simulator::step`]. Edges
    /// fast-forwarded over (quiescent or time-blocked) advance cycle
    /// counters without being counted here, so `cycles - steps_executed`
    /// of a domain's edges were skipped — the fast path's skip ratio.
    pub fn steps_executed(&self) -> u64 {
        self.stats.steps.get()
    }

    /// Snapshot of the kernel's own work counters: executed steps, edges
    /// fast-forwarded, activity probes served from cache, and wake-forced
    /// cache invalidations.
    pub fn kernel_stats(&self) -> KernelStats {
        KernelStats {
            steps: self.stats.steps.get(),
            skips: self.stats.skips.get(),
            probes_avoided: self.stats.probes_avoided.get(),
            invalidations: self.stats.invalidations.get(),
        }
    }

    /// Live handles onto the kernel counters, for mounting as telemetry
    /// gauges.
    pub fn kernel_stat_cells(&self) -> KernelStatCells {
        self.stats.clone()
    }

    /// The period of a domain.
    pub fn period(&self, clock: ClockId) -> Time {
        self.domains[clock.0].period
    }

    /// Name of a domain.
    pub fn clock_name(&self, clock: ClockId) -> &str {
        &self.domains[clock.0].name
    }

    /// Reset every module and rewind all clocks (time keeps advancing from
    /// `now`; edges restart one period out).
    pub fn reset(&mut self) {
        self.reset_line.take();
        for d in &mut self.domains {
            for s in &mut d.slots {
                s.module.reset();
                s.invalidate();
            }
            d.cycle = 0;
            d.next_edge = self.now + d.period;
        }
    }

    /// The shared soft-reset request line. A watchdog (or host software)
    /// holding a clone can assert it from inside the tick loop; the kernel
    /// consumes the request at the next step boundary.
    pub fn soft_reset_line(&self) -> SoftResetLine {
        self.reset_line.clone()
    }

    /// Soft-reset every module immediately (see [`Module::soft_reset`]):
    /// in-flight framing state is flushed, configuration and counters
    /// survive, and clocks keep running — no cycle counter or edge schedule
    /// is touched.
    pub fn soft_reset(&mut self) {
        for d in &mut self.domains {
            for s in &mut d.slots {
                s.module.soft_reset();
                s.invalidate();
            }
        }
    }

    /// True when every registered module reports [`Activity::Quiescent`]
    /// (vacuously true with no modules). While this holds, no tick can have
    /// an effect at any future edge, so simulated time may be skipped
    /// wholesale.
    pub fn all_quiescent(&self) -> bool {
        self.domains
            .iter()
            .flat_map(|d| &d.slots)
            .all(|s| s.module.activity() == Activity::Quiescent)
    }

    /// Fold the whole module population into one [`Activity`]: `Quiescent`
    /// when every module is, `Until` the earliest bound when every other
    /// module is time-blocked, `Active` otherwise.
    ///
    /// [`SchedulerMode::Auto`] serves the classification from the
    /// per-module caches (see [`ModuleSlot::classify`]); the dispatch sweep
    /// refreshed them after every tick, so in steady state this is a
    /// scan-free fold. [`SchedulerMode::Scan`] re-queries every module: the
    /// executable specification the cached fold is verified against. The
    /// fold stops at the first `Active` module — nothing a later module
    /// reports can loosen that verdict.
    fn activity(&mut self) -> Activity {
        let fused = self.mode != SchedulerMode::Scan;
        let mut verdict = Activity::Quiescent;
        let mut avoided = 0u64;
        for s in self.domains.iter_mut().flat_map(|d| &mut d.slots) {
            verdict = verdict.join(if fused {
                s.classify(&self.stats, &mut avoided)
            } else {
                s.module.activity()
            });
            if verdict == Activity::Active {
                break;
            }
        }
        self.stats.probes_avoided.add(avoided);
        verdict
    }

    /// The latest edge instant strictly before `t` across all domains, if
    /// any domain has one pending.
    fn last_edge_before(&self, t: Time) -> Option<Time> {
        self.domains
            .iter()
            .filter(|d| d.next_edge < t)
            .map(|d| {
                let p = d.period.as_ps();
                let k = (t.as_ps() - 1 - d.next_edge.as_ps()) / p;
                Time::from_ps(d.next_edge.as_ps() + k * p)
            })
            .max()
    }

    /// Execute the single next clock edge (over all domains). Returns the
    /// time of that edge, or `None` if no clocks exist.
    pub fn step(&mut self) -> Option<Time> {
        let edge = self.domains.iter().map(|d| d.next_edge).min()?;
        // A pending soft-reset request latches at the step boundary: every
        // module is flushed *before* any module ticks this edge, so the
        // reset instant is the same in every scheduler mode.
        if self.reset_line.take() {
            self.soft_reset();
        }
        self.stats.steps.incr();
        let fused = self.mode != SchedulerMode::Scan;
        // Tick every domain whose edge falls at this instant, in creation
        // order, so coincident edges are deterministic.
        for d in &mut self.domains {
            if d.next_edge == edge {
                d.dispatch(edge, self.idle_skip, fused, &self.stats);
            }
        }
        self.now = edge;
        Some(edge)
    }

    /// Advance every clock past all edges up to and including instant `to`,
    /// without ticking any module, leaving exactly the state the naive edge
    /// loop would have produced. Callers must ensure no module can act at
    /// any skipped edge: the population is quiescent, or time-blocked until
    /// after `to`.
    fn skip_edges_through(&mut self, to: Time) {
        let mut skipped = 0u64;
        for d in &mut self.domains {
            if d.next_edge <= to {
                let k = (to.as_ps() - d.next_edge.as_ps()) / d.period.as_ps() + 1;
                d.cycle += k;
                d.next_edge += Time::from_ps(k * d.period.as_ps());
                skipped += k;
            }
        }
        self.stats.skips.add(skipped);
        self.now = to;
    }

    /// The first edge instant at or after `deadline` across all domains —
    /// where the naive `run_until` loop stops. Requires at least one domain.
    fn first_edge_at_or_after(&self, deadline: Time) -> Time {
        self.domains
            .iter()
            .map(|d| {
                if d.next_edge >= deadline {
                    d.next_edge
                } else {
                    let p = d.period.as_ps();
                    let k = (deadline.as_ps() - d.next_edge.as_ps()).div_ceil(p);
                    Time::from_ps(d.next_edge.as_ps() + k * p)
                }
            })
            .min()
            .expect("at least one domain")
    }

    /// One iteration of a run loop whose last edge is at instant `stop`:
    /// fast-forward over edges no module can act at, or execute the next
    /// edge. Returns `false` once the run is complete.
    fn advance(&mut self, stop: impl Fn(&Simulator) -> Time) -> bool {
        if self.idle_skip {
            match self.activity() {
                Activity::Quiescent => {
                    self.skip_edges_through(stop(self));
                    return false;
                }
                Activity::Until(t) => {
                    // Every edge strictly before `t` is a proven no-op.
                    // If the run would stop before any module wakes, the
                    // whole remainder skips; otherwise skip to the last
                    // inert edge and step the wake-up edge normally.
                    let stop = stop(self);
                    if stop < t {
                        self.skip_edges_through(stop);
                        return false;
                    }
                    if let Some(last) = self.last_edge_before(t) {
                        if last > self.now {
                            self.skip_edges_through(last);
                            return true;
                        }
                    }
                }
                Activity::Active => {}
            }
        }
        self.step();
        true
    }

    /// Run until simulated time reaches at least `deadline`.
    ///
    /// Stops at the first edge at or after `deadline` (the edge overshoot is
    /// observable via [`Simulator::now`] and is identical in every scheduler
    /// mode, fast-forwarded or not).
    pub fn run_until(&mut self, deadline: Time) {
        // One probe per step: with the probe fused into the dispatch pass
        // (cached bounds, refreshed as modules tick), a probe is a cache
        // fold, not a module scan.
        if self.domains.is_empty() {
            self.now = self.now.max(deadline);
            return;
        }
        while self.now < deadline && self.advance(|sim| sim.first_edge_at_or_after(deadline)) {}
    }

    /// Run for a duration from the current time.
    pub fn run_for(&mut self, duration: Time) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// Run until the given domain has executed `n` more cycles.
    pub fn run_cycles(&mut self, clock: ClockId, n: u64) {
        let target = self.domains[clock.0].cycle + n;
        // The run stops at the instant of the target edge; every domain
        // processes all of its edges up to and including it (coincident
        // edges at the stop instant tick in the same step as the target).
        let stop = |sim: &Simulator| {
            let d = &sim.domains[clock.0];
            d.next_edge + Time::from_ps((target - d.cycle - 1) * d.period.as_ps())
        };
        while self.domains[clock.0].cycle < target && self.advance(stop) {}
    }

    /// Run until `pred` returns true, checking after every edge; gives up
    /// after `deadline`. Returns whether the predicate fired.
    ///
    /// The predicate is executed between edges and may have side effects, so
    /// this loop never fast-forwards: every edge is stepped individually.
    pub fn run_while(&mut self, deadline: Time, mut pred: impl FnMut() -> bool) -> bool {
        while pred() {
            if self.now >= deadline || self.step().is_none() {
                return !pred();
            }
        }
        true
    }
}

impl core::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("mode", &self.mode)
            .field(
                "domains",
                &self
                    .domains
                    .iter()
                    .map(|d| (d.name.as_str(), d.period, d.slots.len()))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type TickLog = Rc<RefCell<Vec<(String, u64, Time)>>>;

    struct Probe {
        name: String,
        log: TickLog,
        resets: Rc<RefCell<u32>>,
    }

    impl Module for Probe {
        fn name(&self) -> &str {
            &self.name
        }
        fn tick(&mut self, ctx: &TickContext) {
            self.log
                .borrow_mut()
                .push((self.name.clone(), ctx.cycle, ctx.now));
        }
        fn reset(&mut self) {
            *self.resets.borrow_mut() += 1;
        }
    }

    /// A probe logging its ticks to `log`; `resets` counts its resets.
    fn probe(name: &str, log: &TickLog) -> Probe {
        Probe {
            name: name.into(),
            log: log.clone(),
            resets: Rc::default(),
        }
    }

    #[test]
    fn single_clock_ticks_at_period() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(200)); // 5 ns period
        sim.add_module(clk, probe("a", &log));
        sim.run_cycles(clk, 3);
        let log = log.borrow();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0], ("a".into(), 0, Time::from_ps(5_000)));
        assert_eq!(log[2], ("a".into(), 2, Time::from_ps(15_000)));
        assert_eq!(sim.now(), Time::from_ps(15_000));
        assert_eq!(sim.cycles(clk), 3);
    }

    #[test]
    fn registration_order_within_domain() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(clk, probe("first", &log));
        sim.add_module(clk, probe("second", &log));
        sim.run_cycles(clk, 1);
        let names: Vec<String> = log.borrow().iter().map(|e| e.0.clone()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn two_clocks_interleave_correctly() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new();
        let fast = sim.add_clock("fast", Frequency::mhz(200)); // 5 ns
        let slow = sim.add_clock("slow", Frequency::mhz(100)); // 10 ns
        sim.add_module(fast, probe("f", &log));
        sim.add_module(slow, probe("s", &log));
        sim.run_until(Time::from_ns(20));
        let seq: Vec<(String, u64)> = log.borrow().iter().map(|e| (e.0.clone(), e.1)).collect();
        // Edges: 5(f0) 10(f1,s0) 15(f2) 20(f3,s1); fast created first so it
        // ticks first at shared instants.
        assert_eq!(
            seq,
            vec![
                ("f".into(), 0),
                ("f".into(), 1),
                ("s".into(), 0),
                ("f".into(), 2),
                ("f".into(), 3),
                ("s".into(), 1),
            ]
        );
    }

    #[test]
    fn run_while_predicate() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(clk, probe("p", &log));
        let log2 = log.clone();
        let done = sim.run_while(Time::from_us(1), move || log2.borrow().len() < 5);
        assert!(done);
        assert_eq!(log.borrow().len(), 5);
    }

    #[test]
    fn run_while_deadline_expires() {
        let mut sim = Simulator::new();
        let _clk = sim.add_clock("c", Frequency::mhz(100));
        let done = sim.run_while(Time::from_ns(50), || true);
        assert!(!done);
        assert!(sim.now() >= Time::from_ns(50));
    }

    #[test]
    fn reset_restarts_cycles_and_calls_modules() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        let p = probe("p", &log);
        let resets = p.resets.clone();
        sim.add_module(clk, p);
        sim.run_cycles(clk, 4);
        sim.reset();
        assert_eq!(*resets.borrow(), 1);
        assert_eq!(sim.cycles(clk), 0);
        sim.run_cycles(clk, 1);
        // Cycle numbering restarted but time kept advancing.
        assert_eq!(log.borrow().last().unwrap().1, 0);
    }

    #[test]
    fn empty_simulator_run_until_advances_time() {
        let mut sim = Simulator::new();
        sim.run_until(Time::from_ns(100));
        assert_eq!(sim.now(), Time::from_ns(100));
        assert!(sim.step().is_none());
    }

    /// Identical construction yields an identical edge trace (determinism).
    #[test]
    fn determinism() {
        let build = || {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new();
            let a = sim.add_clock("a", Frequency::mhz(156));
            let b = sim.add_clock("b", Frequency::mhz(200));
            sim.add_module(a, probe("a", &log));
            sim.add_module(b, probe("b", &log));
            sim.run_until(Time::from_us(1));
            let trace = log.borrow().clone();
            trace
        };
        assert_eq!(build(), build());
    }

    // ------------------------------------------------------------------
    // Edge dispatcher equivalence and quiescence fast-forward.
    // ------------------------------------------------------------------

    /// Build one clock per frequency with a probe on each, run the
    /// topology in the given mode to `horizon` and then seven cycles of the
    /// second clock, and return (trace, now, cycles per domain).
    fn trace_with(
        mode: SchedulerMode,
        freqs: &[Frequency],
        horizon: Time,
    ) -> (Vec<(String, u64, Time)>, Time, Vec<u64>) {
        let log: TickLog = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::with_scheduler(mode);
        let clks: Vec<ClockId> = freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let name = format!("c{i}");
                let clk = sim.add_clock(&name, f);
                sim.add_module(clk, probe(&name, &log));
                clk
            })
            .collect();
        sim.run_until(horizon);
        sim.run_cycles(clks[1], 7);
        let cycles = clks.iter().map(|&c| sim.cycles(c)).collect();
        let trace = log.borrow().clone();
        (trace, sim.now(), cycles)
    }

    #[test]
    fn dispatchers_produce_identical_traces() {
        let same = |freqs: &[Frequency], horizon: Time| {
            let scan = trace_with(SchedulerMode::Scan, freqs, horizon);
            assert_eq!(scan, trace_with(SchedulerMode::Auto, freqs, horizon));
        };
        // Harmonic clocks (5, 10 and 8 ns) coincide often; 999 983 Hz and
        // 1 MHz are co-prime periods that almost never share an edge.
        same(&[200, 100, 125].map(Frequency::mhz), Time::from_ns(333));
        same(
            &[Frequency::hz(999_983), Frequency::mhz(1)],
            Time::from_us(50),
        );
    }

    #[test]
    fn late_added_clock_stays_exact_across_reset() {
        let run = |mode: SchedulerMode| {
            let log: TickLog = Rc::new(RefCell::new(Vec::new()));
            // Clocks a (5 ns) and b (7 ns) run to b's edge at 14 ns, then
            // clock c (11 ns) joins out of phase with both.
            let mut sim = Simulator::with_scheduler(mode);
            let a = sim.add_clock("a", Frequency::mhz(200));
            sim.add_clock("b", Frequency::hz(142_857_143));
            sim.run_until(Time::from_ns(14));
            sim.add_clock("c", Frequency::hz(90_909_091));
            let p = probe("a", &log);
            let resets = p.resets.clone();
            sim.add_module(a, p);
            sim.run_until(Time::from_ns(103));
            // A reset mid-run rewinds every clock to a common phase at
            // `now`; the edges after it must still match.
            sim.reset();
            sim.run_until(Time::from_ns(200));
            let trace = log.borrow().clone();
            let resets = *resets.borrow();
            (trace, sim.now(), resets)
        };
        let scan = run(SchedulerMode::Scan);
        assert_eq!(scan.2, 1, "the reset reached the module");
        assert_eq!(scan, run(SchedulerMode::Auto));
    }

    /// A module that is quiescent from the start; its ticks must be skipped
    /// but cycle counting and time must be exactly as if it were ticked.
    /// With a wake handle it opts into the cached protocol: quiescence is
    /// then only allowed to change together with a wake, as the contract
    /// requires.
    struct Idle {
        ticks: Rc<RefCell<u64>>,
        quiescent: Rc<RefCell<bool>>,
        wake: Option<WakeHandle>,
    }

    impl Module for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn tick(&mut self, _ctx: &TickContext) {
            *self.ticks.borrow_mut() += 1;
        }
        fn activity(&self) -> Activity {
            if *self.quiescent.borrow() {
                Activity::Quiescent
            } else {
                Activity::Active
            }
        }
        fn wake_handle(&self) -> Option<WakeHandle> {
            self.wake.clone()
        }
    }

    #[test]
    fn quiescent_modules_skip_ticks_but_keep_time() {
        let ticks = Rc::new(RefCell::new(0));
        let quiescent = Rc::new(RefCell::new(true));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(
            clk,
            Idle {
                ticks: ticks.clone(),
                quiescent: quiescent.clone(),
                wake: None,
            },
        );
        sim.run_cycles(clk, 1000);
        assert_eq!(*ticks.borrow(), 0, "quiescent module must not tick");
        assert_eq!(sim.cycles(clk), 1000);
        assert_eq!(sim.now(), Time::from_ns(10 * 1000));
        // Wake it up: ticks resume.
        *quiescent.borrow_mut() = false;
        sim.run_cycles(clk, 5);
        assert_eq!(*ticks.borrow(), 5);
        assert_eq!(sim.cycles(clk), 1005);
    }

    #[test]
    fn fast_forward_matches_naive_run_until() {
        let run = |idle_skip: bool| {
            let ticks = Rc::new(RefCell::new(0));
            let quiescent = Rc::new(RefCell::new(true));
            let mut sim = Simulator::new();
            let a = sim.add_clock("a", Frequency::mhz(156)); // 6410 ps
            let b = sim.add_clock("b", Frequency::mhz(200));
            sim.set_idle_skip(idle_skip);
            sim.add_module(
                a,
                Idle {
                    ticks,
                    quiescent,
                    wake: None,
                },
            );
            sim.run_until(Time::from_us(3));
            (sim.now(), sim.cycles(a), sim.cycles(b))
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn fast_forward_matches_naive_run_cycles() {
        let run = |idle_skip: bool| {
            let mut sim = Simulator::new();
            let a = sim.add_clock("a", Frequency::mhz(156));
            let b = sim.add_clock("b", Frequency::mhz(200));
            sim.set_idle_skip(idle_skip);
            sim.run_cycles(b, 1234);
            (sim.now(), sim.cycles(a), sim.cycles(b))
        };
        assert_eq!(run(true), run(false));
        // And stepping resumes correctly at the next edge afterwards.
        let mut sim = Simulator::new();
        let a = sim.add_clock("a", Frequency::mhz(100));
        sim.run_cycles(a, 10);
        assert_eq!(sim.step(), Some(Time::from_ns(110)));
    }

    #[test]
    fn fast_forward_then_wake_interleaves_exactly() {
        // Half the run idle, then wake a probe: the post-wake trace must be
        // identical to the never-skipped run.
        let run = |idle_skip: bool| {
            let log: TickLog = Rc::new(RefCell::new(Vec::new()));
            let quiescent = Rc::new(RefCell::new(true));
            let ticks = Rc::new(RefCell::new(0));
            let mut sim = Simulator::new();
            sim.set_idle_skip(idle_skip);
            let a = sim.add_clock("a", Frequency::mhz(200));
            let b = sim.add_clock("b", Frequency::mhz(125));
            sim.add_module(
                a,
                Idle {
                    ticks,
                    quiescent: quiescent.clone(),
                    wake: None,
                },
            );
            sim.run_until(Time::from_ns(1000));
            // Wake: add an always-active probe by flipping quiescence off.
            *quiescent.borrow_mut() = false;
            sim.add_module(b, probe("b", &log));
            sim.run_until(Time::from_ns(2000));
            let trace = log.borrow().clone();
            // `ticks` itself differs (that is the point of skipping); all
            // externally observable state must not.
            (trace, sim.now(), sim.cycles(a), sim.cycles(b))
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn wake_handle_serves_classification_from_cache() {
        let ticks = Rc::new(RefCell::new(0));
        let quiescent = Rc::new(RefCell::new(true));
        let wake = WakeHandle::new();
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(
            clk,
            Idle {
                ticks: ticks.clone(),
                quiescent: quiescent.clone(),
                wake: Some(wake.clone()),
            },
        );
        // An always-active companion keeps the domain stepping, so every
        // edge consults (and must be served by) the idle module's cache.
        let log: TickLog = Rc::new(RefCell::new(Vec::new()));
        sim.add_module(clk, probe("busy", &log));
        sim.run_cycles(clk, 100);
        assert_eq!(*ticks.borrow(), 0, "cached-quiescent module must not tick");
        let s = sim.kernel_stats();
        assert!(s.probes_avoided > 0, "clean cache must serve probes: {s:?}");
        // An edge-triggered wake re-queries the module and resumes ticking.
        *quiescent.borrow_mut() = false;
        wake.wake();
        sim.run_cycles(clk, 5);
        assert_eq!(*ticks.borrow(), 5);
        let s2 = sim.kernel_stats();
        assert!(
            s2.invalidations > s.invalidations,
            "wake must force a re-query"
        );
        assert_eq!(sim.cycles(clk), 105, "cycle count is oblivious to caching");
    }

    /// A one-shot timer exposing its release instant as a cached bound:
    /// the fused kernel must skip straight to it, firing at the identical
    /// edge the unfused reference executes.
    struct CachedTimer {
        fire_at: Time,
        fired: Rc<RefCell<Vec<Time>>>,
        wake: WakeHandle,
    }

    impl Module for CachedTimer {
        fn name(&self) -> &str {
            "cached_timer"
        }
        fn tick(&mut self, ctx: &TickContext) {
            if self.fired.borrow().is_empty() && ctx.now >= self.fire_at {
                self.fired.borrow_mut().push(ctx.now);
            }
        }
        fn activity(&self) -> Activity {
            if self.fired.borrow().is_empty() {
                Activity::Until(self.fire_at)
            } else {
                Activity::Quiescent
            }
        }
        fn wake_handle(&self) -> Option<WakeHandle> {
            Some(self.wake.clone())
        }
    }

    #[test]
    fn cached_bound_skips_to_release_bit_identically() {
        let run = |mode: SchedulerMode, idle_skip: bool| {
            let fired = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::with_scheduler(mode);
            sim.set_idle_skip(idle_skip);
            let clk = sim.add_clock("c", Frequency::mhz(100));
            sim.add_module(
                clk,
                CachedTimer {
                    fire_at: Time::from_ns(7777),
                    fired: fired.clone(),
                    wake: WakeHandle::new(),
                },
            );
            sim.run_until(Time::from_us(20));
            let steps = sim.kernel_stats().steps;
            let fired = fired.borrow().clone();
            (fired, sim.now(), sim.cycles(clk), steps)
        };
        let naive = run(SchedulerMode::Scan, false);
        let fast = run(SchedulerMode::Auto, true);
        assert_eq!(naive.0, fast.0, "identical firing edge");
        assert_eq!((naive.1, naive.2), (fast.1, fast.2));
        assert!(
            fast.3 < naive.3 / 10,
            "bounded skip must execute a fraction of the edges: fast {} vs naive {}",
            fast.3,
            naive.3
        );
    }

    #[test]
    fn kernel_stats_count_steps_and_skips() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        let log: TickLog = Rc::new(RefCell::new(Vec::new()));
        sim.add_module(clk, probe("p", &log));
        sim.run_cycles(clk, 50);
        let s = sim.kernel_stats();
        assert_eq!(s.steps, 50, "active module: every edge executes");
        // An empty quiescent stretch is fast-forwarded, not stepped.
        let mut idle = Simulator::new();
        let iclk = idle.add_clock("c", Frequency::mhz(100));
        idle.run_cycles(iclk, 1000);
        let s = idle.kernel_stats();
        assert!(s.skips > 0, "idle stretch must be skipped: {s:?}");
        assert!(s.steps < 1000);
    }

    /// A module that asserts the soft-reset line at a chosen cycle and logs
    /// every `soft_reset` it receives (with the cycle count at that point).
    struct ResetRequester {
        line: SoftResetLine,
        fire_cycle: u64,
        ticks: Rc<RefCell<u64>>,
        soft_resets: Rc<RefCell<Vec<u64>>>,
    }

    impl Module for ResetRequester {
        fn name(&self) -> &str {
            "reset_requester"
        }
        fn tick(&mut self, ctx: &TickContext) {
            *self.ticks.borrow_mut() += 1;
            if ctx.cycle == self.fire_cycle {
                self.line.request();
            }
        }
        fn soft_reset(&mut self) {
            let ticks = *self.ticks.borrow();
            self.soft_resets.borrow_mut().push(ticks);
        }
    }

    /// A request from inside one edge's tick is consumed exactly once, at
    /// the next step boundary — before any module ticks that edge — and in
    /// every scheduler mode at the identical point in the tick sequence.
    #[test]
    fn soft_reset_line_latches_at_step_boundary() {
        let run = |mode: SchedulerMode| {
            let ticks = Rc::new(RefCell::new(0));
            let soft_resets = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::with_scheduler(mode);
            let clk = sim.add_clock("c", Frequency::mhz(100));
            sim.add_module(
                clk,
                ResetRequester {
                    line: sim.soft_reset_line(),
                    fire_cycle: 3,
                    ticks: ticks.clone(),
                    soft_resets: soft_resets.clone(),
                },
            );
            sim.run_cycles(clk, 10);
            let out = (*ticks.borrow(), soft_resets.borrow().clone());
            out
        };
        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            let (ticks, softs) = run(mode);
            assert_eq!(ticks, 10);
            // Requested during the cycle-3 tick (the 4th); consumed before
            // the 5th tick runs.
            assert_eq!(softs, vec![4], "mode {mode:?}");
        }
    }

    /// `Simulator::reset` discards a pending soft-reset request, and a
    /// direct `Simulator::soft_reset` call reaches every module without
    /// touching clocks or cycle counters.
    #[test]
    fn soft_reset_direct_and_reset_clears_pending() {
        let ticks = Rc::new(RefCell::new(0));
        let soft_resets = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(
            clk,
            ResetRequester {
                line: sim.soft_reset_line(),
                fire_cycle: u64::MAX,
                ticks,
                soft_resets: soft_resets.clone(),
            },
        );
        sim.run_cycles(clk, 2);
        sim.soft_reset();
        assert_eq!(soft_resets.borrow().clone(), vec![2]);
        assert_eq!(sim.cycles(clk), 2, "soft reset leaves clocks untouched");
        // A pending request is discarded by a full reset.
        sim.soft_reset_line().request();
        sim.reset();
        sim.run_cycles(clk, 1);
        assert_eq!(
            soft_resets.borrow().clone(),
            vec![2],
            "reset cleared the line"
        );
    }

    /// The contract trap: mutating activity-relevant state without waking
    /// the handle is caught loudly in debug builds instead of silently
    /// skipping work.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without a tick or a wake")]
    fn stale_cache_without_wake_is_caught_in_debug() {
        let quiescent = Rc::new(RefCell::new(true));
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(100));
        sim.add_module(
            clk,
            Idle {
                ticks: Rc::new(RefCell::new(0)),
                quiescent: quiescent.clone(),
                wake: Some(WakeHandle::new()),
            },
        );
        sim.run_cycles(clk, 3);
        *quiescent.borrow_mut() = false; // changed behind the cache's back
        sim.run_cycles(clk, 3);
    }
}
