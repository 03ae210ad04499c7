//! Max-min fair flow simulation over a static link graph, with
//! *incremental* rate recomputation.
//!
//! Rates are piecewise-constant: they only change when a flow starts or
//! finishes. Between those instants every flow drains at its assigned
//! rate, so the caller can sleep until `next_wakeup()` and then call
//! `advance(now)` — an idempotent settle/complete/recompute step — to
//! collect finished flow tokens and learn the next wakeup instant.
//!
//! Rate assignment is progressive water-filling: find the bottleneck
//! link (smallest capacity-left / unfrozen-flows share), freeze every
//! unfrozen flow crossing it at that share, subtract the frozen rates
//! from every link they cross, repeat. Ties break on the lower link id
//! so the result is independent of iteration order.
//!
//! The incremental part: a flow admit/complete can only change the rates
//! of flows in its *bottleneck component* — the transitive closure of
//! "shares a link with" seeded from the changed flow's route. Flows (and
//! links) outside that closure see exactly the same water-filling
//! sub-problem as before, so their rates, ETAs, and link scratch are left
//! untouched, and the per-flow arithmetic inside the component replays
//! the from-scratch op sequence bit for bit (see DESIGN.md "Incremental
//! rate recomputation").
//!
//! Three further structural optimizations, all behavior-preserving:
//!
//! - **Deferred recomputation.** Admits and completions only *seed* the
//!   dirty set; the actual water-fill runs lazily at the next query
//!   (`next_wakeup` / a time-advancing `settle`). Rates are only ever
//!   *used* to integrate bytes over an interval or to project ETAs, and
//!   both happen strictly after all same-instant mutations, so merging
//!   the recomputes of one event instant is unobservable — but it halves
//!   the fill count under churny traffic (complete + re-admit at one
//!   instant is one fill, not two or three).
//! - **Fill scope from the measured component.** When a component fill
//!   finds that changes land in a giant component, later fills skip the
//!   closure walk and fill every live flow, re-measuring on an
//!   exponential backoff (see [`Scope`]).
//! - **Dense/sparse pacing split.** Completion instants live in a lazy
//!   min-heap keyed by ETA — stale entries (dead flow, or a flow whose
//!   ETA moved) are skipped on pop — instead of a full live-flow scan
//!   per recompute. When a fill re-rates most of the live flows the heap
//!   would see every ETA re-pushed, so the solver flips to a dense mode
//!   that tracks the minimum ETA with one contiguous scan of the live
//!   ETAs and leaves the heap empty; the heap is rebuilt on the next
//!   sparse fill.

use std::collections::BinaryHeap;

use crate::{BusySpan, CongestionSummary, LinkDesc, LinkId, LinkUsage, SolverStats};
use gaat_sim::{SimDuration, SimTime};

/// Flows with no more than this many bytes left are complete. Guards the
/// f64 drain arithmetic against never quite reaching zero.
pub const EPS_BYTES: f64 = 1e-6;

/// Fresh-slot rate sentinel: compares unequal to every real share, so a
/// newly admitted flow is always recorded as changed by its first fill
/// and gets an ETA projection.
const RATE_UNSET: f64 = -1.0;

/// Longest run of full-fabric fills between two scope probes (see
/// [`Scope`]). The run starts at one fill and doubles after every probe
/// that still finds a giant component.
pub const PROBE_GAP_CAP: u32 = 64;

/// Fill-scope policy, driven by the measured component. A component
/// fill measures the closure it walked. When that closure holds at least
/// half the live flows *and* reaches past the flows on the seed links
/// themselves, the fabric has a giant component that most changes land
/// in, and filling every live flow is cheaper than walking it again. A
/// closure no larger than its seed's own flows measured nothing about
/// coupling (one burst of admits can seed every live flow), so it never
/// switches scope. In full scope, a component fill re-measures after
/// `gap` full fills; the first such probe that finds a small component
/// ends full scope.
#[derive(Debug, Clone, Copy, Default)]
struct Scope {
    full: bool,
    /// Full fills left before the next probe.
    probe_in: u32,
    /// Current run length: 1, 2, 4, … up to [`PROBE_GAP_CAP`].
    gap: u32,
}

impl Scope {
    /// Record a component fill whose closure reached `reached` of the
    /// `live` flows, `direct` of them on the seed links themselves.
    fn measured(&mut self, reached: usize, direct: usize, live: usize) {
        let giant = 2 * reached >= live && reached > direct;
        if giant {
            self.gap = if self.full {
                (2 * self.gap).min(PROBE_GAP_CAP)
            } else {
                1
            };
            self.probe_in = self.gap;
        }
        self.full = giant;
    }
}

/// Cold per-link bookkeeping (stats and occupancy). The water-filling
/// scratch lives in dense parallel arrays on [`FlowSim`] instead, so the
/// fill's inner loops touch only a few cache lines.
#[derive(Debug, Clone)]
struct LinkMeta {
    desc: LinkDesc,
    /// Bytes carried by *completed* flows; live flows are attributed at
    /// report time from `total - remaining`.
    bytes: f64,
    busy_ns: u64,
    busy_since: SimTime,
    peak: u32,
}

/// Lazy pacing-heap entry; ordered so `BinaryHeap` pops the smallest
/// `(eta, flow)` first. An entry is stale (skipped on pop) when its flow
/// is dead or the flow's current ETA no longer matches.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EtaEntry {
    eta: SimTime,
    flow: u32,
}

impl Ord for EtaEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .eta
            .cmp(&self.eta)
            .then_with(|| other.flow.cmp(&self.flow))
    }
}

impl PartialOrd for EtaEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The flow-level interconnect state machine. See the module docs.
///
/// Per-flow and per-link hot state is stored struct-of-arrays: the
/// water-fill, the settle loop, and the closure walk only stream over
/// small dense `f64`/`u32` arrays, never over wide structs.
#[derive(Debug, Clone)]
pub struct FlowSim {
    // --- per-flow arrays, indexed by slot ---
    rate: Vec<f64>,
    /// Projected completion instant under the current rates; valid for
    /// live flows once a fill has seen them (`SimTime::MAX` before).
    eta: Vec<SimTime>,
    /// Original byte count (for report-time byte attribution).
    total: Vec<f64>,
    token: Vec<u64>,
    alive: Vec<bool>,
    /// Fill scratch: frozen this fill when `== epoch`.
    frozen: Vec<u64>,
    /// Closure scratch: in the dirty set when `== epoch`.
    fmark: Vec<u64>,
    route_len: Vec<u32>,
    /// Flat route storage, `stride` link ids per slot; avoids one Vec
    /// pointer chase per flow in the fill's inner loops.
    route_arena: Vec<u32>,
    stride: usize,

    // --- per-link arrays, indexed by link id ---
    lmeta: Vec<LinkMeta>,
    /// Live flow slots currently crossing each link (unordered — the
    /// water-filling result is invariant to within-round freeze order).
    lflows: Vec<Vec<u32>>,
    /// Capacity in bytes per nanosecond.
    lcap: Vec<f64>,
    /// Packed water-fill scratch per link: `[capacity_left,
    /// unfrozen_flow_count]`, one cache line touch per route hop. The
    /// count is f64 so the share division needs no conversion; exact
    /// for any realistic flow count.
    lcu: Vec<[f64; 2]>,
    /// Live-flow count per link, kept out of the cold [`LinkMeta`] so
    /// the full build streams over a packed array instead of gathering
    /// through wide structs.
    lactive: Vec<u32>,
    /// Dirty-link scratch, valid when `== epoch`.
    lmark: Vec<u64>,
    /// Water-fill round stamp per link: the link is already on this
    /// round's touched list when `== round`.
    lround: Vec<u64>,
    round: u64,
    /// Links with at least one live flow (lazily compacted); lets the
    /// full fill seed `unfrozen` from the maintained `active` counters
    /// instead of re-walking every route.
    active_links: Vec<u32>,
    in_active: Vec<bool>,

    // --- global state ---
    free: Vec<u32>,
    /// Live flow slots in admission order (drives deterministic
    /// completion ordering).
    live: Vec<u32>,
    /// Remaining bytes / current rate of each live flow, stored compacted
    /// in `live` order so the per-event drain streams over contiguous
    /// `f64`s (and vectorizes) instead of gathering by slot. `rate_live`
    /// mirrors `rate` for live flows; both are maintained by the same
    /// writes that update the slot-indexed arrays.
    rem_live: Vec<f64>,
    rate_live: Vec<f64>,
    /// ETA mirror in `live` order; the dense pacing mode takes its
    /// minimum with one contiguous scan instead of gathering by slot.
    eta_live: Vec<SimTime>,
    /// Slot -> index in `live` (valid while the flow is live).
    lpos: Vec<u32>,
    /// Instant up to which all flows have been drained.
    settled_at: SimTime,
    /// Cached earliest completion instant across live flows.
    next_eta: Option<SimTime>,
    epoch: u64,
    closed: Vec<BusySpan>,
    record_spans: bool,
    /// Lazy completion heap; when `heap_live`, every live flow has at
    /// least one entry matching its current ETA.
    eta_heap: BinaryHeap<EtaEntry>,
    heap_live: bool,
    /// A fill is owed before rates/ETAs may next be observed.
    pending: bool,
    /// Which fills skip the closure walk and fill the whole fabric.
    scope: Scope,
    // Scratch buffers reused across fills (steady state allocates
    // nothing).
    seed: Vec<u32>,
    /// Unfrozen flows on the current round's bottleneck.
    batch: Vec<u32>,
    cands: Cands,
    changed: Vec<u32>,
    touched: Vec<u32>,
    /// Cache of `lcap[l] / init_u[l]` from earlier full fills; valid
    /// while the link's occupancy still equals `init_u[l]`. Same
    /// operands give the same quotient, so reuse is bit-exact.
    init_u: Vec<u32>,
    init_share: Vec<f64>,
    stats: SolverStats,
}

impl FlowSim {
    pub fn new(links: Vec<LinkDesc>) -> Self {
        let n = links.len();
        let lmeta = links
            .iter()
            .map(|&desc| LinkMeta {
                desc,
                bytes: 0.0,
                busy_ns: 0,
                busy_since: SimTime::ZERO,
                peak: 0,
            })
            .collect();
        FlowSim {
            rate: Vec::new(),
            eta: Vec::new(),
            total: Vec::new(),
            token: Vec::new(),
            alive: Vec::new(),
            frozen: Vec::new(),
            fmark: Vec::new(),
            route_len: Vec::new(),
            route_arena: Vec::new(),
            stride: 4,
            lmeta,
            lflows: vec![Vec::new(); n],
            lcap: links.iter().map(|&d| d.bw / 1e9).collect(),
            lcu: vec![[0.0; 2]; n],
            lactive: vec![0; n],
            lmark: vec![0; n],
            lround: vec![0; n],
            round: 0,
            active_links: Vec::new(),
            in_active: vec![false; n],
            free: Vec::new(),
            live: Vec::new(),
            rem_live: Vec::new(),
            rate_live: Vec::new(),
            eta_live: Vec::new(),
            lpos: Vec::new(),
            settled_at: SimTime::ZERO,
            next_eta: None,
            epoch: 0,
            closed: Vec::new(),
            record_spans: false,
            eta_heap: BinaryHeap::new(),
            heap_live: true,
            pending: false,
            scope: Scope::default(),
            seed: Vec::new(),
            batch: Vec::new(),
            cands: Cands {
                pos: vec![0; n],
                ..Cands::default()
            },
            changed: Vec::new(),
            touched: Vec::new(),
            init_u: vec![0; n],
            init_share: vec![0.0; n],
            stats: SolverStats::default(),
        }
    }

    pub fn set_record_spans(&mut self, on: bool) {
        self.record_spans = on;
    }

    pub fn active_flows(&self) -> usize {
        self.live.len()
    }

    /// Incremental-solver counters accumulated since construction.
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Instant up to which flows have been drained (the traffic horizon).
    pub fn settled_at(&self) -> SimTime {
        self.settled_at
    }

    /// Earliest instant at which some flow completes, if any are live.
    /// Runs any deferred rate recomputation first.
    pub fn next_wakeup(&mut self) -> Option<SimTime> {
        if self.pending {
            self.flush();
        }
        self.next_eta
    }

    /// `(token, rate, eta)` of every live flow in admission order — the
    /// observable rate state, for differential tests and debugging.
    pub fn live_flows(&mut self) -> Vec<(u64, f64, SimTime)> {
        if self.pending {
            self.flush();
        }
        self.live
            .iter()
            .map(|&idx| {
                let i = idx as usize;
                (self.token[i], self.rate[i], self.eta[i])
            })
            .collect()
    }

    /// Grow the route arena stride so a `len`-link route fits.
    fn ensure_stride(&mut self, len: usize) {
        if len <= self.stride {
            return;
        }
        let new_stride = len.next_power_of_two();
        let slots = self.route_len.len();
        let mut arena = vec![0u32; slots * new_stride];
        for s in 0..slots {
            let n = self.route_len[s] as usize;
            arena[s * new_stride..s * new_stride + n]
                .copy_from_slice(&self.route_arena[s * self.stride..s * self.stride + n]);
        }
        self.route_arena = arena;
        self.stride = new_stride;
    }

    /// Admit a new flow over `route` carrying `bytes`. The token is
    /// returned by `advance` when the flow finishes. Rates of flows
    /// sharing links (transitively) shrink at the next query; the caller
    /// must re-read `next_wakeup()` afterwards.
    pub fn start(&mut self, now: SimTime, route: &[LinkId], bytes: f64, token: u64) {
        if self.pending && now > self.settled_at {
            self.flush();
        }
        self.settle(now);
        self.ensure_stride(route.len());
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                let i = self.route_len.len() as u32;
                self.rate.push(0.0);
                self.eta.push(SimTime::MAX);
                self.total.push(0.0);
                self.token.push(0);
                self.alive.push(false);
                self.frozen.push(0);
                self.fmark.push(0);
                self.route_len.push(0);
                self.route_arena
                    .resize(self.route_arena.len() + self.stride, 0);
                self.lpos.push(0);
                i
            }
        };
        let i = idx as usize;
        self.total[i] = bytes.max(0.0);
        self.rate[i] = RATE_UNSET;
        self.eta[i] = SimTime::MAX;
        self.token[i] = token;
        self.alive[i] = true;
        self.route_len[i] = route.len() as u32;
        for (k, &LinkId(l)) in route.iter().enumerate() {
            self.route_arena[i * self.stride + k] = l;
            let a = &mut self.lactive[l as usize];
            *a += 1;
            let a = *a;
            let m = &mut self.lmeta[l as usize];
            if a == 1 {
                m.busy_since = now;
                if !self.in_active[l as usize] {
                    self.in_active[l as usize] = true;
                    self.active_links.push(l);
                }
            }
            m.peak = m.peak.max(a);
            self.lflows[l as usize].push(idx);
            self.seed.push(l);
        }
        self.live.push(idx);
        self.lpos[i] = (self.live.len() - 1) as u32;
        self.rem_live.push(bytes.max(0.0));
        self.rate_live.push(RATE_UNSET);
        self.eta_live.push(SimTime::MAX);
        self.pending = true;
    }

    /// Drain flows to `now`, push tokens of completed flows onto `done`
    /// (admission order), release their links, and mark the affected
    /// bottleneck components dirty. Safe to call at any instant >= the
    /// last settle point.
    pub fn advance(&mut self, now: SimTime, done: &mut Vec<u64>) {
        if self.pending && now > self.settled_at {
            self.flush();
        }
        let dt = now.since(self.settled_at).as_ns() as f64;
        self.settled_at = now;
        let n = self.live.len();
        // Pass 1: arithmetic only, streaming over the live-compacted
        // mirrors. Branch-free and contiguous, so it vectorizes; the
        // per-flow operations match the slot-indexed drain bit for bit.
        let mut ncomplete = 0usize;
        if dt > 0.0 {
            let rem = &mut self.rem_live[..n];
            let rl = &self.rate_live[..n];
            for j in 0..n {
                let r0 = rem[j];
                let carried = (rl[j] * dt).min(r0);
                let r = r0 - carried;
                rem[j] = r;
                ncomplete += (r <= EPS_BYTES) as usize;
            }
        } else {
            let rem = &self.rem_live[..n];
            ncomplete += rem.iter().filter(|&&r| r <= EPS_BYTES).count();
        }
        if ncomplete == 0 {
            return;
        }
        // Pass 2 (only when something finished): collect completions in
        // admission order, compacting the live list and its mirrors.
        let Self {
            rem_live,
            rate_live,
            eta_live,
            lpos,
            total,
            token,
            alive,
            route_len,
            route_arena,
            stride,
            lmeta,
            lactive,
            lflows,
            free,
            live,
            closed,
            record_spans,
            seed,
            ..
        } = self;
        let mut w = 0usize;
        for j in 0..n {
            let idx = live[j];
            let r = rem_live[j];
            if r > EPS_BYTES {
                live[w] = idx;
                rem_live[w] = r;
                rate_live[w] = rate_live[j];
                eta_live[w] = eta_live[j];
                lpos[idx as usize] = w as u32;
                w += 1;
                continue;
            }
            let i = idx as usize;
            done.push(token[i]);
            alive[i] = false;
            for k in 0..route_len[i] as usize {
                let l = route_arena[i * *stride + k] as usize;
                lactive[l] -= 1;
                let m = &mut lmeta[l];
                m.bytes += total[i];
                let pos = lflows[l]
                    .iter()
                    .position(|&f| f == idx)
                    .expect("completing flow is on its links' member lists");
                lflows[l].swap_remove(pos);
                seed.push(l as u32);
                if lactive[l] == 0 {
                    m.busy_ns += now.since(m.busy_since).as_ns();
                    if *record_spans && now > m.busy_since {
                        closed.push(BusySpan {
                            link: LinkId(l as u32),
                            kind: m.desc.kind,
                            start: m.busy_since,
                            end: now,
                        });
                    }
                }
            }
            free.push(idx);
        }
        live.truncate(w);
        rem_live.truncate(w);
        rate_live.truncate(w);
        eta_live.truncate(w);
        self.pending = true;
    }

    /// Change a link's capacity in place (degradation / repair). Flows
    /// are drained to `now` at their old rates first — progress already
    /// made is not re-priced — then the link is seeded dirty so every
    /// flow (transitively) sharing it is re-water-filled at the next
    /// query; flows elsewhere keep their rates bit-exactly.
    pub fn set_link_bw(&mut self, now: SimTime, link: LinkId, bw: f64) {
        assert!(bw > 0.0, "link capacity must stay positive; abort instead");
        if self.pending && now > self.settled_at {
            self.flush();
        }
        self.settle(now);
        let l = link.0 as usize;
        self.lmeta[l].desc.bw = bw;
        self.lcap[l] = bw / 1e9;
        // The full-fill share cache keys on occupancy only; capacity
        // changed, so force a recompute of this link's cached quotient.
        self.init_u[l] = 0;
        self.seed.push(link.0);
        self.pending = true;
    }

    /// Abort every in-flight flow crossing `link` (the link failed).
    /// Tokens of the killed flows are pushed onto `aborted` in admission
    /// order; bytes carried before the failure stay attributed to their
    /// links. The caller decides what an abort means (retry, surface an
    /// error) — the flow simulation just releases the resources and
    /// marks the affected components dirty.
    pub fn abort_link(&mut self, now: SimTime, link: LinkId, aborted: &mut Vec<u64>) {
        if self.pending && now > self.settled_at {
            self.flush();
        }
        self.settle(now);
        let l0 = link.0 as usize;
        if self.lflows[l0].is_empty() {
            return;
        }
        // Victims in admission order (lflows is unordered).
        let mut victims: Vec<u32> = self.lflows[l0].clone();
        victims.sort_unstable_by_key(|&f| self.lpos[f as usize]);
        for &idx in &victims {
            let i = idx as usize;
            aborted.push(self.token[i]);
            self.alive[i] = false;
            let carried = (self.total[i] - self.rem_live[self.lpos[i] as usize]).max(0.0);
            for k in 0..self.route_len[i] as usize {
                let l = self.route_arena[i * self.stride + k] as usize;
                self.lactive[l] -= 1;
                let pos = self.lflows[l]
                    .iter()
                    .position(|&f| f == idx)
                    .expect("aborting flow is on its links' member lists");
                self.lflows[l].swap_remove(pos);
                self.seed.push(l as u32);
                let m = &mut self.lmeta[l];
                m.bytes += carried;
                if self.lactive[l] == 0 {
                    m.busy_ns += now.since(m.busy_since).as_ns();
                    if self.record_spans && now > m.busy_since {
                        self.closed.push(BusySpan {
                            link: LinkId(l as u32),
                            kind: m.desc.kind,
                            start: m.busy_since,
                            end: now,
                        });
                    }
                }
            }
            self.free.push(idx);
        }
        // Stable compaction of the live list and its mirrors, exactly
        // like the completion pass, so surviving flows keep admission
        // order.
        let n = self.live.len();
        let mut w = 0usize;
        for j in 0..n {
            let idx = self.live[j];
            if !self.alive[idx as usize] {
                continue;
            }
            self.live[w] = idx;
            self.rem_live[w] = self.rem_live[j];
            self.rate_live[w] = self.rate_live[j];
            self.eta_live[w] = self.eta_live[j];
            self.lpos[idx as usize] = w as u32;
            w += 1;
        }
        self.live.truncate(w);
        self.rem_live.truncate(w);
        self.rate_live.truncate(w);
        self.eta_live.truncate(w);
        self.pending = true;
    }

    /// Move accumulated busy intervals out (for tracer lanes).
    pub fn drain_spans(&mut self, out: &mut Vec<BusySpan>) {
        out.append(&mut self.closed);
    }

    /// Per-link counters; `horizon` is the sim end used both to close
    /// still-busy intervals and as the utilization denominator. Bytes of
    /// still-live flows are attributed from their progress so far.
    pub fn link_report(&self, horizon: SimTime) -> Vec<LinkUsage> {
        let total_ns = horizon.as_ns().max(1);
        let mut partial = vec![0.0f64; self.lmeta.len()];
        for (j, &idx) in self.live.iter().enumerate() {
            let i = idx as usize;
            let carried = self.total[i] - self.rem_live[j];
            for k in 0..self.route_len[i] as usize {
                partial[self.route_arena[i * self.stride + k] as usize] += carried;
            }
        }
        self.lmeta
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut busy = m.busy_ns;
                if self.lactive[i] > 0 && horizon > m.busy_since {
                    busy += horizon.since(m.busy_since).as_ns();
                }
                LinkUsage {
                    link: LinkId(i as u32),
                    kind: m.desc.kind,
                    bytes: m.bytes + partial[i],
                    busy_ns: busy,
                    peak_flows: m.peak,
                    utilization: busy as f64 / total_ns as f64,
                }
            })
            .collect()
    }

    pub fn congestion(&self, horizon: SimTime) -> CongestionSummary {
        let mut out = CongestionSummary::default();
        for usage in self.link_report(horizon) {
            out.peak_link_flows = out.peak_link_flows.max(usage.peak_flows);
            if usage.busy_ns > 0 && usage.utilization > out.max_link_utilization {
                out.max_link_utilization = usage.utilization;
                out.hottest_link = Some(usage.link);
            }
        }
        out
    }

    /// Drain every live flow at its current rate up to `now`. A flow
    /// that crosses the completion threshold here without an `advance`
    /// collecting it (the caller slept past its ETA) gets its ETA
    /// re-anchored to the settle point, exactly like the from-scratch
    /// solver's full recompute did.
    fn settle(&mut self, now: SimTime) {
        debug_assert!(now >= self.settled_at, "settle moved backwards");
        let dt = now.since(self.settled_at).as_ns() as f64;
        if dt > 0.0 {
            let Self {
                rem_live,
                rate_live,
                eta_live,
                eta,
                live,
                eta_heap,
                heap_live,
                next_eta,
                ..
            } = self;
            for (j, &idx) in live.iter().enumerate() {
                let rem = rem_live[j];
                let was_open = rem > EPS_BYTES;
                let carried = (rate_live[j] * dt).min(rem);
                let rem = rem - carried;
                rem_live[j] = rem;
                if was_open && rem <= EPS_BYTES {
                    let i = idx as usize;
                    eta[i] = now;
                    eta_live[j] = now;
                    if *heap_live {
                        eta_heap.push(EtaEntry {
                            eta: now,
                            flow: idx,
                        });
                    }
                    *next_eta = Some(next_eta.map_or(now, |e| e.min(now)));
                }
            }
        }
        self.settled_at = now;
    }

    /// Run the deferred incremental water-fill: close the accumulated
    /// seed under "shares a link" (or, in full scope, take the whole
    /// fabric — identical result), re-run progressive water-filling on
    /// that component only, and re-project the ETAs of exactly the flows
    /// whose rate changed.
    fn flush(&mut self) {
        self.pending = false;
        self.epoch += 1;
        self.stats.recomputes += 1;
        let epoch = self.epoch;
        let live_n = self.live.len();
        let Self {
            rate,
            eta,
            frozen,
            fmark,
            route_len,
            route_arena,
            stride,
            lactive,
            lflows,
            lcap,
            lcu,
            lmark,
            lround,
            round,
            active_links,
            in_active,
            live,
            rem_live,
            rate_live,
            eta_live,
            lpos,
            eta_heap,
            heap_live,
            seed,
            batch,
            cands,
            changed,
            touched,
            init_u,
            init_share,
            scope,
            stats,
            ..
        } = self;
        let stride = *stride;

        cands.clear();

        // Scope choice, from the measured component (see [`Scope`]):
        // full-fabric fills while the last measurement found a giant
        // component, with a component-fill probe after every `gap` full
        // fills. A seed whose links carry no live flow closes over
        // nothing, so it needs neither a full fill nor a probe.
        let idle = seed.iter().all(|&l| lactive[l as usize] == 0);
        let full = scope.full && scope.probe_in > 0 && !idle;
        let probe = scope.full && !full && !idle;
        if full {
            scope.probe_in -= 1;
            stats.full_fills += 1;
        } else if probe {
            stats.probe_fills += 1;
        }
        let to_freeze;
        if full {
            // Full-fabric fill: skip the closure walk and fill every
            // live flow. Filling a superset of components is exact:
            // components don't share links, so the merged bottleneck
            // sequence interleaves the per-component sequences without
            // changing any of them. The per-link unfrozen count over
            // *all* live flows is exactly the maintained `active`
            // occupancy, so seeding walks the active-link list instead
            // of every route.
            seed.clear();
            let na = active_links.len();
            cands.link.resize(na, 0);
            cands.share.resize(na, 0.0);
            cands.key.resize(na, 0.0);
            let (links, shs, keys) = (
                &mut cands.link[..],
                &mut cands.share[..],
                &mut cands.key[..],
            );
            let mut cn = 0usize;
            let mut i = 0;
            while i < active_links.len() {
                let l = active_links[i] as usize;
                let a = lactive[l];
                if a == 0 {
                    in_active[l] = false;
                    active_links.swap_remove(i);
                    continue;
                }
                lcu[l] = [lcap[l], a as f64];
                cands.pos[l] = cn as u32;
                links[cn] = l as u32;
                keys[cn] = tie_key(l);
                shs[cn] = if init_u[l] == a {
                    init_share[l]
                } else {
                    let sh = lcap[l] / a as f64;
                    init_u[l] = a;
                    init_share[l] = sh;
                    sh
                };
                cn += 1;
                i += 1;
            }
            cands.link.truncate(cn);
            cands.share.truncate(cn);
            cands.key.truncate(cn);
            to_freeze = live_n;
        } else {
            // Seed the dirty link set with the changed flows' routes.
            for &l in seed.iter() {
                let l = l as usize;
                if lmark[l] != epoch {
                    lmark[l] = epoch;
                    lcu[l] = [lcap[l], 0.0];
                    cands.link.push(l as u32);
                }
            }
            seed.clear();
            // Transitive closure: every flow on a dirty link is dirty,
            // and every link on a dirty flow's route is dirty. After
            // this, dirty links carry only dirty flows, so the component
            // water-fills independently of the rest of the fabric.
            // `direct` counts the flows found on the seed links
            // themselves, before the walk goes transitive.
            let nseed = cands.link.len();
            let mut reached = 0usize;
            let mut direct = 0usize;
            let mut li = 0;
            while li < cands.link.len() {
                let l = cands.link[li] as usize;
                li += 1;
                let n = lflows[l].len();
                // Index form: `lflows[l]` cannot be borrowed across the
                // loop body (cands/lmark are pushed to inside it).
                #[allow(clippy::needless_range_loop)]
                for fi in 0..n {
                    let f = lflows[l][fi];
                    let i = f as usize;
                    if fmark[i] == epoch {
                        continue;
                    }
                    fmark[i] = epoch;
                    reached += 1;
                    direct += (li <= nseed) as usize;
                    let base = i * stride;
                    for &l2 in &route_arena[base..base + route_len[i] as usize] {
                        let l2 = l2 as usize;
                        if lmark[l2] != epoch {
                            lmark[l2] = epoch;
                            lcu[l2] = [lcap[l2], 0.0];
                            cands.link.push(l2 as u32);
                        }
                        lcu[l2][1] += 1.0;
                    }
                }
            }
            to_freeze = reached;
            if !idle {
                scope.measured(to_freeze, direct, live_n);
            }
        }

        stats.record_component(to_freeze, cands.link.len(), live_n);
        // Pacing follows the fill's size: a fill that re-rated most of
        // the live flows would push most of them onto the heap.
        let wide = 2 * to_freeze >= live_n;

        if to_freeze > 0 {
            if !full {
                // Candidate shares; links whose flows all completed
                // drop out. (The full build filled these in directly.)
                let mut i = 0;
                while i < cands.link.len() {
                    let l = cands.link[i] as usize;
                    let [c, u] = lcu[l];
                    if u == 0.0 {
                        cands.link.swap_remove(i);
                        continue;
                    }
                    cands.pos[l] = i as u32;
                    cands.share.push(c / u);
                    cands.key.push(tie_key(l));
                    i += 1;
                }
            }

            // Water-fill the component. Identical op order to the
            // from-scratch solver restricted to this component: the same
            // bottleneck sequence (min share, ties to the lower link id)
            // and per-link the same ordered subtractions, so rates come
            // out bit for bit equal.
            //
            // The round loop works on slices, and appends to fixed-size
            // scratch through a cursor instead of `Vec::push`: through
            // a `&mut Vec` (or after a push's potential reallocation)
            // the compiler reloads every buffer pointer and length
            // after each store, which dominates the inner loops.
            if touched.len() < stride * to_freeze {
                touched.resize(stride * to_freeze, 0);
            }
            if changed.len() < live_n {
                changed.resize(live_n, 0);
                batch.resize(live_n, 0);
            }
            let tb = touched.as_mut_slice();
            let cb = changed.as_mut_slice();
            let bb = batch.as_mut_slice();
            let (rate, frozen, lcu, lround) = (
                &mut rate[..],
                &mut frozen[..],
                &mut lcu[..],
                &mut lround[..],
            );
            let (route_arena, route_len, lpos) = (&route_arena[..], &route_len[..], &lpos[..]);
            let rate_live = &mut rate_live[..];
            let mut clen = 0usize;
            let mut left = to_freeze;
            while left > 0 && !cands.link.is_empty() {
                let (mn, bottleneck) = bottleneck_of(&cands.share, &cands.key);
                let share = mn.max(0.0);

                // Freeze every unfrozen flow crossing the bottleneck and
                // subtract its share along its route, listing each
                // touched link once per round.
                *round += 1;
                let rd = *round;
                // Collect the bottleneck's unfrozen flows first, branch
                // free: flows frozen by earlier rounds are common here,
                // and skipping them with a branch mispredicts.
                let mut blen = 0usize;
                for &f in lflows[bottleneck as usize].iter() {
                    let i = f as usize;
                    bb[blen] = f;
                    blen += (frozen[i] != epoch) as usize;
                    frozen[i] = epoch;
                }
                left -= blen;
                let mut tlen = 0usize;
                for &f in bb[..blen].iter() {
                    let i = f as usize;
                    let old = rate[i];
                    rate[i] = share;
                    rate_live[lpos[i] as usize] = share;
                    cb[clen] = f;
                    clen += (old != share) as usize;
                    let base = i * stride;
                    for &l in &route_arena[base..base + route_len[i] as usize] {
                        // The bottleneck's own scratch is never read
                        // again: every flow crossing it freezes now, so
                        // it is removed below instead of updated here.
                        if l == bottleneck {
                            continue;
                        }
                        let l = l as usize;
                        sub_share(&mut lcu[l], share);
                        tb[tlen] = l as u32;
                        tlen += (lround[l] != rd) as usize;
                        lround[l] = rd;
                    }
                }
                // Refresh each touched link's share once. Division
                // results don't feed each other, so this pass pipelines
                // at divider throughput. Links whose unfrozen count hit
                // zero are compacted to the front of the list and leave
                // the candidate set after it, before their quotient (inf
                // or NaN) can reach a scan. Removal order only permutes
                // candidate slots, never the candidate set.
                cands.remove(bottleneck as usize);
                let mut elen = 0usize;
                for j in 0..tlen {
                    let l = tb[j] as usize;
                    let [c, u] = lcu[l];
                    cands.set_share(l, c / u);
                    tb[elen] = l as u32;
                    elen += (u == 0.0) as usize;
                }
                for &l in tb[..elen].iter() {
                    cands.remove(l as usize);
                }
            }

            // Re-project completion instants for flows whose rate moved;
            // everyone else keeps both rate and ETA (their pacing
            // entries stay valid).
            let settled_at = self.settled_at;
            if wide {
                // Dense pacing: the heap would churn one push per flow
                // per fill here; track the minimum ETA with one scan of
                // the live ETAs instead.
                if *heap_live {
                    eta_heap.clear();
                    *heap_live = false;
                }
                for &f in cb[..clen].iter() {
                    let i = f as usize;
                    let p = lpos[i] as usize;
                    let e = project_eta(rem_live[p], rate[i], settled_at);
                    eta[i] = e;
                    eta_live[p] = e;
                }
                let mut mn = SimTime::MAX;
                for &e in eta_live.iter() {
                    mn = mn.min(e);
                }
                self.next_eta = if live.is_empty() { None } else { Some(mn) };
                return;
            }
            if !*heap_live {
                // Back from dense mode: rebuild the heap from the live
                // set before the incremental pushes below.
                eta_heap.clear();
                for &f in live.iter() {
                    eta_heap.push(EtaEntry {
                        eta: eta[f as usize],
                        flow: f,
                    });
                }
                *heap_live = true;
            }
            for &f in cb[..clen].iter() {
                let i = f as usize;
                let p = lpos[i] as usize;
                let e = project_eta(rem_live[p], rate[i], settled_at);
                if e != eta[i] {
                    eta[i] = e;
                    eta_live[p] = e;
                    eta_heap.push(EtaEntry { eta: e, flow: f });
                }
            }
            // Compact the lazy heap when stale entries dominate, so long
            // churny runs stay O(live) in memory.
            if eta_heap.len() > 2 * live.len() + 64 {
                eta_heap.clear();
                for &idx in live.iter() {
                    eta_heap.push(EtaEntry {
                        eta: eta[idx as usize],
                        flow: idx,
                    });
                }
            }
        } else if !*heap_live {
            // Empty fill in dense pacing mode: completions may have
            // removed the minimum; rescan the (possibly empty) live set.
            let mut mn = SimTime::MAX;
            for &e in eta_live.iter() {
                mn = mn.min(e);
            }
            self.next_eta = if live.is_empty() { None } else { Some(mn) };
            return;
        }

        // Sparse pacing: pop stale heap entries (dead flow, or ETA
        // moved) until the top is live and current.
        loop {
            match self.eta_heap.peek() {
                None => {
                    self.next_eta = None;
                    return;
                }
                Some(e) => {
                    let i = e.flow as usize;
                    if self.alive[i] && self.eta[i] == e.eta {
                        self.next_eta = Some(e.eta);
                        return;
                    }
                }
            }
            self.eta_heap.pop();
        }
    }
}

/// Tie-break key of link `l`: exact and positive for every `u32` id,
/// and larger for lower ids, so the bottleneck scan resolves ties with a
/// packed max in which +0.0 means "no candidate yet".
#[inline]
fn tie_key(l: usize) -> f64 {
    4294967296.0 - l as f64
}

/// A fill's water-filling candidate links, struct-of-arrays so the
/// bottleneck scan streams packed `f64`s.
#[derive(Debug, Clone, Default)]
struct Cands {
    link: Vec<u32>,
    share: Vec<f64>,
    /// [`tie_key`] of each candidate, in the same slots.
    key: Vec<f64>,
    /// Slot of each candidate link, indexed by link id.
    pos: Vec<u32>,
}

impl Cands {
    fn clear(&mut self) {
        self.link.clear();
        self.share.clear();
        self.key.clear();
    }

    fn set_share(&mut self, l: usize, x: f64) {
        let p = self.pos[l] as usize;
        debug_assert_eq!(self.link[p] as usize, l, "link is a candidate");
        self.share[p] = x;
    }

    /// Remove link `l`, moving the last candidate into its slot.
    fn remove(&mut self, l: usize) {
        let p = self.pos[l] as usize;
        self.link.swap_remove(p);
        self.share.swap_remove(p);
        self.key.swap_remove(p);
        if p < self.link.len() {
            self.pos[self.link[p] as usize] = p as u32;
        }
    }
}

/// Bottleneck of one water-filling round: the minimum share, and the
/// lowest link id among the candidates holding it, in one pass.
///
/// Shares are `c / u` with `u > 0`, so never NaN, and `c >= +0.0`, so
/// never -0.0: packed `minpd` and the ordered compares are exact, with
/// no NaN fix-up. Each lane keeps the running minimum and the largest
/// [`tie_key`] among its holders; a strictly smaller share drops the
/// lane's key to +0.0 before the max, so no branch depends on ties.
#[inline]
fn bottleneck_of(shares: &[f64], keys: &[f64]) -> (f64, u32) {
    debug_assert_eq!(shares.len(), keys.len());
    let mut mn = f64::INFINITY;
    let mut best = 0.0f64;
    // Slots below `done` are folded into `(mn, best)` by the packed pass.
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86-64 baseline; every load reads
    // inside `shares[i..i + 8]` or `keys[i..i + 8]` with `i + 8 <= len`,
    // and the stores fill local two-element arrays.
    let done = unsafe {
        use std::arch::x86_64::*;
        /// Fold `(s, d)` into the lane state `(m, b)`.
        ///
        /// # Safety
        ///
        /// The CPU must support SSE2 (part of the x86-64 baseline).
        #[inline(always)]
        unsafe fn fold(m: &mut __m128d, b: &mut __m128d, s: __m128d, d: __m128d) {
            let lt = _mm_cmplt_pd(s, *m);
            let le = _mm_cmple_pd(s, *m);
            *m = _mm_min_pd(s, *m);
            *b = _mm_max_pd(_mm_andnot_pd(lt, *b), _mm_and_pd(le, d));
        }
        let mut m = [_mm_set1_pd(f64::INFINITY); 4];
        let mut b = [_mm_setzero_pd(); 4];
        let mut i = 0;
        while i + 8 <= shares.len() {
            for k in 0..4 {
                let s = _mm_loadu_pd(shares.as_ptr().add(i + 2 * k));
                let d = _mm_loadu_pd(keys.as_ptr().add(i + 2 * k));
                fold(&mut m[k], &mut b[k], s, d);
            }
            i += 8;
        }
        // The fold is associative, so the accumulators merge pairwise.
        let [mut m0, mut m1, m2, m3] = m;
        let [mut b0, mut b1, b2, b3] = b;
        fold(&mut m0, &mut b0, m2, b2);
        fold(&mut m1, &mut b1, m3, b3);
        fold(&mut m0, &mut b0, m1, b1);
        let mut ms = [0.0f64; 2];
        let mut bs = [0.0f64; 2];
        _mm_storeu_pd(ms.as_mut_ptr(), m0);
        _mm_storeu_pd(bs.as_mut_ptr(), b0);
        for (&s, &d) in ms.iter().zip(bs.iter()) {
            if s < mn || (s == mn && d > best) {
                mn = s;
                best = d;
            }
        }
        i
    };
    for (&s, &d) in shares[done..].iter().zip(keys[done..].iter()) {
        if s < mn || (s == mn && d > best) {
            mn = s;
            best = d;
        }
    }
    (mn, (tie_key(0) - best) as u32)
}

/// `[capacity_left, unfrozen]` after freezing one flow at `share`: the
/// capacity clamps at 0.0 exactly like the scalar `(c - share).max(0.0)`
/// (no NaNs, and `c - share` is never -0.0), the count drops by one.
#[inline]
fn sub_share(cl: &mut [f64; 2], share: f64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86-64 baseline, and the unaligned
    // load and store stay inside the two-lane array `cl`.
    unsafe {
        use std::arch::x86_64::*;
        let v = _mm_loadu_pd(cl.as_ptr());
        let v = _mm_sub_pd(v, _mm_set_pd(1.0, share));
        // Lane 1's clamp at -inf is the identity.
        let v = _mm_max_pd(v, _mm_set_pd(f64::NEG_INFINITY, 0.0));
        _mm_storeu_pd(cl.as_mut_ptr(), v);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        cl[0] = (cl[0] - share).max(0.0);
        cl[1] -= 1.0;
    }
}

/// Completion instant of a flow with `remaining` bytes at `rate`,
/// projected from the settle point — the same rounding the from-scratch
/// solver applied on every recompute.
#[inline]
fn project_eta(remaining: f64, rate: f64, settled_at: SimTime) -> SimTime {
    if remaining <= EPS_BYTES {
        settled_at
    } else {
        debug_assert!(rate > 0.0, "live flow with zero rate");
        let ns = (remaining / rate).ceil().max(1.0) as u64;
        settled_at + SimDuration::from_ns(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::{bottleneck_of, tie_key};

    /// The packed scan picks the scalar rule's bottleneck, the minimum
    /// share with ties to the lowest link id, for every slot order and
    /// every length remainder the packed pass leaves to the tail.
    #[test]
    fn bottleneck_scan_matches_scalar_rule() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in 1..40usize {
            for _ in 0..50 {
                let mut ids: Vec<u32> = (0..n as u32).map(|i| 3 * i + 1).collect();
                for i in (1..n).rev() {
                    ids.swap(i, next() as usize % (i + 1));
                }
                // Shares from a small set, so ties are common.
                let shares: Vec<f64> = (0..n).map(|_| 1.5 / (1 + next() % 4) as f64).collect();
                let keys: Vec<f64> = ids.iter().map(|&l| tie_key(l as usize)).collect();
                let want =
                    ids.iter()
                        .zip(&shares)
                        .fold((f64::INFINITY, u32::MAX), |(m, b), (&id, &s)| {
                            if s < m || (s == m && id < b) {
                                (s, id)
                            } else {
                                (m, b)
                            }
                        });
                assert_eq!(bottleneck_of(&shares, &keys), want, "n = {n}");
            }
        }
    }
}
