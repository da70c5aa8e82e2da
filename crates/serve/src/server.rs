//! The continuous-batching serving loop and its sequential baseline.
//!
//! ## Packing policy
//!
//! [`serve`] keeps a *running set* of at most `max_batch` in-flight
//! sessions. Every decode step packs each running session's next input
//! token (a prompt token during prefill, its own last output during
//! generation) into one `S × d` batch and advances all of them with a
//! single [`TransformerLm::decode_step_many`] call — one batched GEMM
//! per weight per layer per step, instead of `S` skinny ones. The server
//! makes one call per step and never threads it itself: inside `lrd-nn`
//! that call splits a tall step's sessions into contiguous groups, one
//! per core, with logits bit-identical to the one-worker run.
//!
//! ## Admission control and graceful degradation
//!
//! Arrivals land in a bounded FIFO queue (`queue_cap`); a full queue
//! rejects the request (counted, reported — never an error). The running
//! set refills from the queue front, at most `max_admit_per_step` per
//! decode step, whenever slots free up.
//!
//! Under overload the server degrades instead of queueing unboundedly:
//! when queue depth exceeds `shed_high_water`, the newest entries are
//! shed from the queue back. A shed session gets exactly one re-admission
//! attempt, `readmit_delay_steps` virtual steps later; shed a second time
//! (or re-admitted into a full queue) it settles permanently as
//! [`SessionFate::Shed`]. Separately, each session carries a virtual-time
//! deadline: once its session-local decode steps plus stall penalties
//! exceed `deadline_steps` it settles as [`SessionFate::TimedOut`] and
//! frees its slot.
//!
//! ## Fault injection and quarantine
//!
//! The serving plane reuses the sweep runtime's deterministic fault model
//! (`lrd-core::faults`). Serve-side kinds — `nan-logits`, `decode-panic`,
//! `slow-step` — roll as a pure function of (seed, session id,
//! session-local decode step), so the injected fault set is identical
//! across batch sizes, queue bounds, and thread counts. Each slot's
//! post-decode processing runs behind a `catch_unwind` fence plus a
//! non-finite-logits guard on its own row; a faulted session settles as
//! [`SessionFate::Failed`] with a typed [`FailReason`] and is evicted
//! order-stably. A `slow-step` firing stalls the session for
//! [`STALL_STEPS`] iterations: it keeps its slot but is not packed, and
//! the stall counts against its deadline.
//!
//! ## Determinism
//!
//! Virtual time drives everything: arrivals are keyed to decode-step
//! indices (see [`crate::traffic`]), the running set preserves admission
//! order, and settled sessions are removed order-stably. Wall-clock
//! readings feed only the latency histograms. Batch composition is
//! therefore a pure function of (model, trace, config), and because
//! every batched kernel in the stack is row-bit-identical across batch
//! heights (`DESIGN.md` §13), evicting a faulted session changes only
//! *scheduling*, never values: every healthy session's token stream is
//! bit-identical to a fault-free run and to [`serve_sequential`]'s at any
//! `max_batch` (property-tested in `tests/chaos_quarantine.rs`).
//!
//! ## Failure containment
//!
//! A request that cannot be served (out-of-vocabulary prompt token, a
//! prompt longer than the model's context window) fails at admission;
//! a numeric fault or slot panic mid-decode is quarantined as above. In
//! every case the session settles as a typed [`Settled`] entry — the
//! decode loop never panics the server or corrupts its batch-mates.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use lrd_core::faults::{FaultKind, FaultPlan};
use lrd_nn::{DecodeState, TransformerLm};
use lrd_trace::counters::{add, Counter};
use lrd_trace::Histogram;

use crate::clock::Clock;
use crate::report::{
    stream_checksum, Completion, FailReason, ServeOutcome, ServeReport, SessionFate, Settled,
};
use crate::traffic::Request;

/// Virtual decode steps a `slow-step` firing stalls its session for: the
/// session occupies its batch slot without being packed, and the full
/// stall length counts against its virtual-time deadline.
pub const STALL_STEPS: u64 = 64;

/// Serving-loop parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Maximum in-flight sessions per decode batch (clamped to ≥ 1).
    pub max_batch: usize,
    /// Admission-queue bound; arrivals beyond it are rejected.
    pub queue_cap: usize,
    /// Serve-plane fault plan; [`FaultPlan::default`] injects nothing.
    pub faults: FaultPlan,
    /// Virtual-time deadline per session, measured in session-local
    /// decode steps plus stall penalties (never wall clock or queue
    /// position, so the timed-out set is batch-size-independent).
    /// `u64::MAX` disables deadlines.
    pub deadline_steps: u64,
    /// Queue depth above which load shedding pops the queue back.
    /// `usize::MAX` disables shedding.
    pub shed_high_water: usize,
    /// Sessions admitted from the queue into the running set per decode
    /// step; bounding this lets bursts actually build queue depth.
    pub max_admit_per_step: usize,
    /// Virtual steps a shed session waits before its single re-admission
    /// attempt.
    pub readmit_delay_steps: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            queue_cap: 256,
            faults: FaultPlan::default(),
            deadline_steps: u64::MAX,
            shed_high_water: usize::MAX,
            max_admit_per_step: usize::MAX,
            readmit_delay_steps: STALL_STEPS,
        }
    }
}

/// Greedy decoding: index of the first maximum of `row`.
///
/// Shared by the batched and sequential paths (and the property tests'
/// reference decoder) so "same logits ⇒ same token" holds by
/// construction.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// One in-flight session.
struct Active {
    id: usize,
    prompt: Vec<usize>,
    gen_target: usize,
    /// Prompt tokens fed so far.
    fed: usize,
    produced: Vec<usize>,
    state: DecodeState,
    admitted_s: f64,
    /// Session-local decode steps completed — the fault-roll and deadline
    /// clock, deliberately independent of global step counters and batch
    /// composition.
    local_steps: u64,
    /// Remaining stall iterations from a `slow-step` fault (batched path
    /// only; the session holds its slot but is not packed while > 0).
    stall: u64,
    /// Accumulated stall penalty charged against the deadline.
    penalty: u64,
}

impl Active {
    /// The token this session feeds into the next decode step.
    fn next_input(&self) -> usize {
        if self.fed < self.prompt.len() {
            self.prompt[self.fed]
        } else {
            self.produced.last().copied().unwrap_or(0)
        }
    }

    /// Advances the session past one decode step whose logits row is
    /// `row`; returns `true` when a token was emitted (prefill steps
    /// before the last prompt token discard their logits).
    fn consume(&mut self, row: &[f32]) -> bool {
        if self.fed < self.prompt.len() {
            self.fed += 1;
        }
        if self.fed >= self.prompt.len() && self.produced.len() < self.gen_target {
            self.produced.push(argmax(row));
            true
        } else {
            false
        }
    }

    /// Whether the session is finished: generation target reached, or the
    /// KV cache is at the model's context window.
    fn done(&self, max_seq: usize) -> bool {
        self.produced.len() >= self.gen_target || self.state.len() >= max_seq
    }

    /// The deadline clock: session-local steps plus stall penalties. A
    /// fault-free session's clock never exceeds `max_seq`, so any
    /// `deadline_steps ≥ max_seq` only ever times out slow-stepped
    /// sessions.
    fn deadline_clock(&self) -> u64 {
        self.local_steps.saturating_add(self.penalty)
    }
}

/// What one slot's fenced post-decode processing produced.
enum SlotStep {
    /// The row was finite and consumed; `true` when a token was emitted.
    Emitted(bool),
    /// The non-finite guard tripped on this session's logits row.
    NonFinite,
}

/// Runs one session's share of a decode step behind the quarantine
/// fence: the injected-panic roll, the non-finite-logits guard, and the
/// greedy consume. A panic here (injected or real) unwinds only this
/// slot; the caller settles the session and its batch-mates never notice.
fn fenced_slot_step(a: &mut Active, row: &[f32], plan: &FaultPlan) -> Result<SlotStep, FailReason> {
    let s = a.local_steps;
    let id = a.id;
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if plan.serve_active() && plan.roll_session(FaultKind::DecodePanic, id, s) {
            lrd_core::faults::injected_decode_panic(id, s);
        }
        if row.iter().any(|v| !v.is_finite()) {
            return SlotStep::NonFinite;
        }
        SlotStep::Emitted(a.consume(row))
    }));
    match caught {
        Ok(SlotStep::NonFinite) => Err(FailReason::NonFiniteLogits),
        Ok(step) => Ok(step),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(FailReason::Panic(msg))
        }
    }
}

/// Validates `r` against the model and builds its session, preallocating
/// the full KV-cache footprint. Returns a failure reason for requests
/// the model can never serve.
fn admit(model: &TransformerLm, r: &Request, clock: &Clock) -> Result<Active, &'static str> {
    let cfg = model.config();
    if r.prompt.is_empty() {
        return Err("empty prompt");
    }
    if r.prompt.len() > cfg.max_seq {
        return Err("prompt longer than the model's context window");
    }
    if r.prompt.iter().any(|&t| t >= cfg.vocab_size) {
        return Err("prompt token outside the vocabulary");
    }
    Ok(Active {
        id: r.id,
        prompt: r.prompt.clone(),
        gen_target: r.gen_len,
        fed: 0,
        produced: Vec::with_capacity(r.gen_len),
        state: model.new_decode_state(),
        admitted_s: clock.seconds(),
        local_steps: 0,
        stall: 0,
        penalty: 0,
    })
}

/// Shared accumulator for both serving modes.
struct Metrics {
    rejected: u64,
    failed: u64,
    shed: u64,
    timed_out: u64,
    readmitted: u64,
    batches: u64,
    tokens: u64,
    occupancy: u64,
    ttft_ms: Histogram,
    per_token_ms: Histogram,
    completions: Vec<Completion>,
    settled: Vec<Settled>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            rejected: 0,
            failed: 0,
            shed: 0,
            timed_out: 0,
            readmitted: 0,
            batches: 0,
            tokens: 0,
            occupancy: 0,
            ttft_ms: Histogram::new(),
            per_token_ms: Histogram::new(),
            completions: Vec::new(),
            settled: Vec::new(),
        }
    }

    /// Settles session `id` with a terminal fate: bumps the matching
    /// breakdown and counter and records the typed entry. Deliberately
    /// quiet — a chaos run settles hundreds of sessions and a warn line
    /// per injection would bury real diagnostics; the typed `settled`
    /// list and the counters are the observable record.
    fn settle(&mut self, id: usize, fate: SessionFate) {
        match fate {
            SessionFate::Failed(_) => {
                self.failed += 1;
                add(Counter::ServeSessionsFailed, 1);
            }
            SessionFate::TimedOut => {
                self.timed_out += 1;
                add(Counter::ServeSessionsTimedOut, 1);
            }
            SessionFate::Shed => {
                self.shed += 1;
            }
        }
        self.settled.push(Settled { id, fate });
    }

    fn finish(self, label: &str, offered: usize, wall_s: f64) -> ServeOutcome {
        let healthy_tokens: u64 = self.completions.iter().map(|c| c.tokens.len() as u64).sum();
        let report = ServeReport {
            label: label.to_string(),
            offered: offered as u64,
            rejected: self.rejected,
            failed: self.failed,
            shed: self.shed,
            timed_out: self.timed_out,
            readmitted: self.readmitted,
            completed: self.completions.len() as u64,
            batches: self.batches,
            tokens: self.tokens,
            mean_batch: if self.batches == 0 {
                0.0
            } else {
                self.occupancy as f64 / self.batches as f64
            },
            wall_s,
            tokens_per_s: if wall_s > 0.0 {
                self.tokens as f64 / wall_s
            } else {
                0.0
            },
            healthy_tokens,
            goodput_tokens_per_s: if wall_s > 0.0 {
                healthy_tokens as f64 / wall_s
            } else {
                0.0
            },
            ttft_ms: self.ttft_ms.summary(),
            per_token_ms: self.per_token_ms.summary(),
            stream_checksum: stream_checksum(&self.completions),
        };
        ServeOutcome {
            report,
            completions: self.completions,
            settled: self.settled,
        }
    }
}

/// Rolls the `slow-step` fault for the step just completed and applies
/// its stall penalty; then checks the deadline. Shared by both serving
/// modes so the timed-out set is identical between them. Returns the
/// fate, if any, that settles the session.
fn post_step_faults(a: &mut Active, cfg: &ServeConfig, max_seq: usize) -> Option<SessionFate> {
    let s = a.local_steps;
    if cfg.faults.serve_active() && cfg.faults.roll_session(FaultKind::SlowStep, a.id, s) {
        a.stall = STALL_STEPS;
        a.penalty += STALL_STEPS;
    }
    a.local_steps += 1;
    if !a.done(max_seq) && a.deadline_clock() > cfg.deadline_steps {
        return Some(SessionFate::TimedOut);
    }
    None
}

/// Runs the continuous-batching server over `requests` and returns the
/// aggregate report, every completed token stream, and every settled
/// session's typed fate.
///
/// Serving never fails as a whole: individual requests degrade to
/// rejected (queue full) or settled (failed / shed / timed-out) entries
/// of the report.
pub fn serve(
    model: &TransformerLm,
    requests: &[Request],
    cfg: &ServeConfig,
    label: &str,
) -> ServeOutcome {
    let max_batch = cfg.max_batch.max(1);
    let max_seq = model.config().max_seq;
    let clock = Clock::start();
    let mut m = Metrics::new();

    // Arrival order: by virtual step, ties by id (the generator's order).
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (requests[i].arrival_step, requests[i].id));
    let mut next_arrival = 0usize;

    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut running: Vec<Active> = Vec::new();
    // Shed sessions awaiting their one re-admission: (due step, request
    // index). Due steps are non-decreasing by construction.
    let mut readmit: VecDeque<(u64, usize)> = VecDeque::new();
    let mut shed_once = vec![false; requests.len()];
    let mut step = 0u64;

    loop {
        // 1. Enqueue arrivals due at the current virtual step.
        while next_arrival < order.len() && requests[order[next_arrival]].arrival_step <= step {
            let idx = order[next_arrival];
            next_arrival += 1;
            if queue.len() >= cfg.queue_cap {
                m.rejected += 1;
                add(Counter::ServeSessionsRejected, 1);
            } else {
                queue.push_back(idx);
                add(Counter::ServeSessionsAdmitted, 1);
            }
        }
        // 2. Re-admit shed sessions whose delay has elapsed; a full queue
        // settles them permanently (the attempt was their one chance).
        while let Some(&(due, idx)) = readmit.front() {
            if due > step {
                break;
            }
            readmit.pop_front();
            if queue.len() >= cfg.queue_cap {
                m.settle(requests[idx].id, SessionFate::Shed);
            } else {
                queue.push_back(idx);
                m.readmitted += 1;
                add(Counter::ServeSessionsReadmitted, 1);
            }
        }
        // 3. Load shedding: above the high-water mark the queue back —
        // the newest entrants — is shed. First shed schedules the
        // re-admission attempt; a second settles the session.
        while queue.len() > cfg.shed_high_water {
            let Some(idx) = queue.pop_back() else { break };
            add(Counter::ServeSessionsShed, 1);
            if shed_once[idx] {
                m.settle(requests[idx].id, SessionFate::Shed);
            } else {
                shed_once[idx] = true;
                readmit.push_back((step + cfg.readmit_delay_steps, idx));
            }
        }
        // 4. Refill the running set from the queue front, boundedly (the
        // clamp to ≥ 1 keeps a zero bound from starving the queue
        // forever).
        let max_admit = cfg.max_admit_per_step.max(1);
        let mut admitted_now = 0usize;
        while running.len() < max_batch && admitted_now < max_admit {
            let Some(idx) = queue.pop_front() else { break };
            admitted_now += 1;
            match admit(model, &requests[idx], &clock) {
                Ok(a) => running.push(a),
                Err(reason) => {
                    lrd_trace::warn(format!(
                        "serve: request {} failed at admission: {reason}",
                        requests[idx].id
                    ));
                    m.settle(
                        requests[idx].id,
                        SessionFate::Failed(FailReason::Admission(reason)),
                    );
                }
            }
        }
        // 5. Idle: fast-forward virtual time to the next event, or stop.
        if running.is_empty() && queue.is_empty() {
            let next_arrival_step = order.get(next_arrival).map(|&i| requests[i].arrival_step);
            let next_readmit_step = readmit.front().map(|&(due, _)| due);
            match (next_arrival_step, next_readmit_step) {
                (Some(a), Some(r)) => {
                    step = a.min(r);
                    continue;
                }
                (Some(a), None) => {
                    step = a;
                    continue;
                }
                (None, Some(r)) => {
                    step = r;
                    continue;
                }
                (None, None) => break,
            }
        }
        // 6. Pack one decode step across every non-stalled session.
        let is_packed: Vec<bool> = running.iter().map(|a| a.stall == 0).collect();
        let packed: Vec<usize> = (0..running.len()).filter(|&i| is_packed[i]).collect();
        let mut fates: Vec<Option<SessionFate>> = (0..running.len()).map(|_| None).collect();
        if !packed.is_empty() {
            let t0 = clock.seconds();
            let tokens: Vec<usize> = packed.iter().map(|&i| running[i].next_input()).collect();
            let logits = {
                let mut states: Vec<&mut DecodeState> = running
                    .iter_mut()
                    .enumerate()
                    .filter(|&(i, _)| is_packed[i])
                    .map(|(_, a)| &mut a.state)
                    .collect();
                model.decode_step_many(&tokens, &mut states)
            };
            m.batches += 1;
            m.occupancy += packed.len() as u64;
            add(Counter::ServeDecodeBatches, 1);
            match logits {
                Ok(mut logits) => {
                    let dt_ms = (clock.seconds() - t0) * 1e3;
                    let now_s = clock.seconds();
                    for (row, &ri) in packed.iter().enumerate() {
                        let a = &mut running[ri];
                        // An injected nan-logits fault poisons the actual
                        // row so detection takes the same non-finite
                        // guard a real numeric fault would.
                        if cfg.faults.serve_active()
                            && cfg
                                .faults
                                .roll_session(FaultKind::NanLogits, a.id, a.local_steps)
                        {
                            logits.row_mut(row)[0] = f32::NAN;
                        }
                        match fenced_slot_step(a, logits.row(row), &cfg.faults) {
                            Ok(SlotStep::Emitted(emitted)) => {
                                if emitted {
                                    m.tokens += 1;
                                    add(Counter::ServeTokensGenerated, 1);
                                    m.per_token_ms.record(dt_ms);
                                    if a.produced.len() == 1 {
                                        m.ttft_ms.record((now_s - a.admitted_s) * 1e3);
                                    }
                                }
                                fates[ri] = post_step_faults(a, cfg, max_seq);
                            }
                            Ok(SlotStep::NonFinite) | Err(FailReason::NonFiniteLogits) => {
                                fates[ri] = Some(SessionFate::Failed(FailReason::NonFiniteLogits));
                            }
                            Err(reason) => {
                                fates[ri] = Some(SessionFate::Failed(reason));
                            }
                        }
                    }
                }
                Err(e) => {
                    // Should be unreachable — admission validated every
                    // session — but a decode error must degrade, not
                    // panic: settle the whole batch and keep serving.
                    lrd_trace::warn(format!(
                        "serve: decode batch of {} session(s) failed: {e}",
                        packed.len()
                    ));
                    for &ri in &packed {
                        fates[ri] =
                            Some(SessionFate::Failed(FailReason::DecodeError(e.to_string())));
                    }
                }
            }
        }
        // 7. Advance stalls and remove settled/completed sessions
        // order-stably so future batch composition stays deterministic.
        let mut still = Vec::with_capacity(running.len());
        for (i, mut a) in running.drain(..).enumerate() {
            if !is_packed[i] {
                a.stall -= 1;
            }
            if let Some(fate) = fates[i].take() {
                m.settle(a.id, fate);
            } else if is_packed[i] && a.done(max_seq) {
                add(Counter::ServeSessionsCompleted, 1);
                m.completions.push(Completion {
                    id: a.id,
                    tokens: a.produced,
                });
            } else {
                still.push(a);
            }
        }
        running = still;
        step += 1;
    }
    let wall = clock.seconds();
    m.finish(label, requests.len(), wall)
}

/// The sequential baseline: serves the same trace one session at a time,
/// one token per step, on the single-session
/// [`TransformerLm::decode_step`] path. Same metrics, same counters,
/// same quarantine fence and fault rolls — this is both the "no
/// continuous batching" ablation the speedup is measured against and the
/// like-for-like baseline of the chaos divergence checks. Queue-shaped
/// config (`queue_cap`, `shed_high_water`, `max_admit_per_step`) does
/// not apply: with no batch there is no queue to bound.
pub fn serve_sequential(
    model: &TransformerLm,
    requests: &[Request],
    cfg: &ServeConfig,
    label: &str,
) -> ServeOutcome {
    let max_seq = model.config().max_seq;
    let clock = Clock::start();
    let mut m = Metrics::new();
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (requests[i].arrival_step, requests[i].id));
    for idx in order {
        let r = &requests[idx];
        add(Counter::ServeSessionsAdmitted, 1);
        let mut a = match admit(model, r, &clock) {
            Ok(a) => a,
            Err(reason) => {
                lrd_trace::warn(format!(
                    "serve: request {} failed at admission: {reason}",
                    r.id
                ));
                m.settle(r.id, SessionFate::Failed(FailReason::Admission(reason)));
                continue;
            }
        };
        let mut fate = None;
        while fate.is_none() && !a.done(max_seq) {
            let t0 = clock.seconds();
            let step = model.decode_step(a.next_input(), &mut a.state);
            m.batches += 1;
            m.occupancy += 1;
            add(Counter::ServeDecodeBatches, 1);
            match step {
                Ok(mut logits) => {
                    // Same poisoning, fence, and guard as the batched
                    // path: the rolls are session-local, so the fault
                    // set (and thus the settled set) is identical.
                    if cfg.faults.serve_active()
                        && cfg
                            .faults
                            .roll_session(FaultKind::NanLogits, a.id, a.local_steps)
                    {
                        logits.row_mut(0)[0] = f32::NAN;
                    }
                    let dt_ms = (clock.seconds() - t0) * 1e3;
                    match fenced_slot_step(&mut a, logits.row(0), &cfg.faults) {
                        Ok(SlotStep::Emitted(emitted)) => {
                            if emitted {
                                m.tokens += 1;
                                add(Counter::ServeTokensGenerated, 1);
                                m.per_token_ms.record(dt_ms);
                                if a.produced.len() == 1 {
                                    m.ttft_ms.record((clock.seconds() - a.admitted_s) * 1e3);
                                }
                            }
                            // The sequential plane has no slot to stall,
                            // but the penalty still accrues so both
                            // planes time out the same sessions.
                            fate = post_step_faults(&mut a, cfg, max_seq);
                            a.stall = 0;
                        }
                        Ok(SlotStep::NonFinite) | Err(FailReason::NonFiniteLogits) => {
                            fate = Some(SessionFate::Failed(FailReason::NonFiniteLogits));
                        }
                        Err(reason) => {
                            fate = Some(SessionFate::Failed(reason));
                        }
                    }
                }
                Err(e) => {
                    lrd_trace::warn(format!("serve: request {} failed mid-decode: {e}", r.id));
                    fate = Some(SessionFate::Failed(FailReason::DecodeError(e.to_string())));
                }
            }
        }
        if let Some(fate) = fate {
            m.settle(a.id, fate);
        } else if a.done(max_seq) {
            add(Counter::ServeSessionsCompleted, 1);
            m.completions.push(Completion {
                id: a.id,
                tokens: a.produced,
            });
        }
    }
    let wall = clock.seconds();
    m.finish(label, requests.len(), wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, TrafficConfig};
    use lrd_nn::{ArchKind, TransformerConfig};
    use lrd_tensor::rng::Rng64;

    fn tiny() -> TransformerLm {
        let cfg = TransformerConfig {
            kind: ArchKind::Decoder,
            vocab_size: 32,
            d_model: 8,
            n_layers: 2,
            n_heads: 2,
            n_kv_heads: 2,
            d_ff: 16,
            max_seq: 24,
        };
        TransformerLm::new(cfg, &mut Rng64::new(5))
    }

    fn trace(sessions: usize) -> Vec<crate::traffic::Request> {
        generate(&TrafficConfig::for_model(sessions, 11, 32, 24))
    }

    fn chaos_plan(nan: f64, panic: f64, slow: f64) -> FaultPlan {
        FaultPlan {
            nan_logits: nan,
            decode_panic: panic,
            slow_step: slow,
            seed: 42,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn batched_streams_match_sequential() {
        let model = tiny();
        let reqs = trace(12);
        let seq = serve_sequential(&model, &reqs, &ServeConfig::default(), "seq");
        for max_batch in [1usize, 2, 5, 16] {
            let cfg = ServeConfig {
                max_batch,
                queue_cap: usize::MAX,
                ..ServeConfig::default()
            };
            let bat = serve(&model, &reqs, &cfg, "bat");
            assert_eq!(bat.report.completed, seq.report.completed);
            assert_eq!(
                bat.report.stream_checksum, seq.report.stream_checksum,
                "streams diverged at max_batch {max_batch}"
            );
            let mut a = bat.completions.clone();
            let mut b = seq.completions.clone();
            a.sort_by_key(|c| c.id);
            b.sort_by_key(|c| c.id);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let model = tiny();
        // Everyone arrives at step 0: with one slot running and one
        // queued, the rest must be rejected.
        let mut reqs = trace(8);
        for r in &mut reqs {
            r.arrival_step = 0;
        }
        let cfg = ServeConfig {
            max_batch: 1,
            queue_cap: 1,
            ..ServeConfig::default()
        };
        let out = serve(&model, &reqs, &cfg, "tiny-queue");
        assert!(out.report.rejected > 0, "expected rejections");
        assert_eq!(
            out.report.completed + out.report.rejected + out.report.failed,
            out.report.offered
        );
    }

    #[test]
    fn invalid_requests_degrade_to_failed() {
        let model = tiny();
        let mut reqs = trace(3);
        reqs[0].prompt = vec![999]; // out of vocabulary
        reqs[1].prompt = vec![1; 25]; // longer than max_seq
        let out = serve(&model, &reqs, &ServeConfig::default(), "degraded");
        assert_eq!(out.report.failed, 2);
        assert_eq!(out.report.completed, 1);
        let tags: Vec<_> = out.settled.iter().map(|s| s.fate.tag()).collect();
        assert_eq!(tags, ["admission", "admission"]);
    }

    #[test]
    fn report_accounts_for_every_request() {
        let model = tiny();
        let reqs = trace(20);
        let out = serve(&model, &reqs, &ServeConfig::default(), "acct");
        let r = &out.report;
        assert_eq!(r.offered, 20);
        assert_eq!(r.completed + r.rejected + r.failed, r.offered);
        assert_eq!(r.completed as usize, out.completions.len());
        assert_eq!(
            r.tokens,
            out.completions
                .iter()
                .map(|c| c.tokens.len() as u64)
                .sum::<u64>()
        );
        assert_eq!(r.healthy_tokens, r.tokens);
        assert_eq!(r.per_token_ms.count, r.tokens);
        assert_eq!(r.ttft_ms.count, r.completed);
        assert!(r.mean_batch >= 1.0);
    }

    #[test]
    fn injected_faults_settle_sessions_with_typed_reasons() {
        let model = tiny();
        let reqs = trace(24);
        let cfg = ServeConfig {
            faults: chaos_plan(0.15, 0.1, 0.0),
            ..ServeConfig::default()
        };
        let out = serve(&model, &reqs, &cfg, "chaos");
        let r = &out.report;
        assert!(r.failed > 0, "chaos rates this high must fault someone");
        assert_eq!(
            r.completed + r.rejected + r.failed + r.shed + r.timed_out,
            r.offered
        );
        assert_eq!(r.failed as usize, out.settled.len());
        assert!(out
            .settled
            .iter()
            .all(|s| matches!(s.fate.tag(), "non_finite_logits" | "panic")));
        // Goodput only counts completed sessions' tokens.
        assert!(r.healthy_tokens <= r.tokens);
    }

    #[test]
    fn fault_sets_are_identical_across_batch_sizes_and_planes() {
        let model = tiny();
        let reqs = trace(24);
        let base = ServeConfig {
            faults: chaos_plan(0.1, 0.05, 0.1),
            deadline_steps: 2 * STALL_STEPS,
            ..ServeConfig::default()
        };
        let seq = serve_sequential(&model, &reqs, &base, "seq");
        let mut seq_settled: Vec<_> = seq.settled.clone();
        seq_settled.sort_by_key(|s| s.id);
        for max_batch in [1usize, 3, 8, 32] {
            let cfg = ServeConfig { max_batch, ..base };
            let bat = serve(&model, &reqs, &cfg, "bat");
            let mut bat_settled: Vec<_> = bat.settled.clone();
            bat_settled.sort_by_key(|s| s.id);
            assert_eq!(
                bat_settled, seq_settled,
                "settled set diverged at max_batch {max_batch}"
            );
            assert_eq!(bat.report.stream_checksum, seq.report.stream_checksum);
        }
    }

    #[test]
    fn steps_tall_enough_to_split_across_cores_match_sequential() {
        // Everyone arrives at step 0, so the early steps carry far more
        // than 2 × MIN_ROWS_PER_WORKER sessions and decode_step_many
        // splits them across workers wherever the host has two cores.
        let split_height = 2 * lrd_nn::model::MIN_ROWS_PER_WORKER;
        let mut reqs = trace(4 * split_height);
        for r in &mut reqs {
            r.arrival_step = 0;
        }
        let model = tiny();
        let clean = ServeConfig::default();
        let chaos = ServeConfig {
            faults: chaos_plan(0.1, 0.05, 0.1),
            deadline_steps: 2 * STALL_STEPS,
            ..clean
        };
        for cfg in [clean, chaos] {
            let bat = serve(&model, &reqs, &cfg, "bat");
            let seq = serve_sequential(&model, &reqs, &cfg, "seq");
            assert!(
                bat.report.mean_batch >= split_height as f64,
                "mean batch {} never reached the split height {split_height}",
                bat.report.mean_batch
            );
            assert_eq!(bat.report.stream_checksum, seq.report.stream_checksum);
            let (mut a, mut b) = (bat.completions.clone(), seq.completions.clone());
            a.sort_by_key(|c| c.id);
            b.sort_by_key(|c| c.id);
            assert_eq!(a, b);
            let (mut a, mut b) = (bat.settled.clone(), seq.settled.clone());
            a.sort_by_key(|s| s.id);
            b.sort_by_key(|s| s.id);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn slow_step_stalls_count_against_the_deadline() {
        let model = tiny();
        let reqs = trace(16);
        // slow-step only: no session fails, but any session that stalls
        // twice blows a 2×STALL deadline (natural steps ≤ max_seq = 24
        // can never, since 24 < 128).
        let cfg = ServeConfig {
            faults: chaos_plan(0.0, 0.0, 0.4),
            deadline_steps: 2 * STALL_STEPS,
            ..ServeConfig::default()
        };
        let out = serve(&model, &reqs, &cfg, "slow");
        let r = &out.report;
        assert!(
            r.timed_out > 0,
            "0.4 slow-step across 16 sessions must stall someone twice"
        );
        assert_eq!(r.failed, 0);
        assert_eq!(
            r.completed + r.rejected + r.failed + r.shed + r.timed_out,
            r.offered
        );
        assert!(out.settled.iter().all(|s| s.fate == SessionFate::TimedOut));
        // Completed sessions' streams are untouched by others' stalls.
        let clean = serve(&model, &reqs, &ServeConfig::default(), "clean");
        for c in &out.completions {
            let reference = clean.completions.iter().find(|r| r.id == c.id);
            assert_eq!(reference.map(|r| &r.tokens), Some(&c.tokens));
        }
    }

    #[test]
    fn shedding_and_readmission_account_exactly() {
        let model = tiny();
        // Everyone arrives at step 0 with slots scarce and admission
        // bounded: the queue holds over high-water and must shed.
        let mut reqs = trace(16);
        for r in &mut reqs {
            r.arrival_step = 0;
        }
        let cfg = ServeConfig {
            max_batch: 2,
            queue_cap: usize::MAX,
            shed_high_water: 2,
            max_admit_per_step: 1,
            readmit_delay_steps: 4,
            ..ServeConfig::default()
        };
        let out = serve(&model, &reqs, &cfg, "shed");
        let r = &out.report;
        assert!(r.shed > 0, "a 16-deep burst over high-water 2 must shed");
        assert!(r.readmitted > 0, "first sheds get a re-admission attempt");
        assert_eq!(
            r.completed + r.rejected + r.failed + r.shed + r.timed_out,
            r.offered
        );
        // Shed-settled sessions carry the typed fate.
        assert_eq!(
            out.settled
                .iter()
                .filter(|s| s.fate == SessionFate::Shed)
                .count() as u64,
            r.shed
        );
        // Whatever completed still matches the unloaded run bit-for-bit.
        let clean = serve(&model, &reqs, &ServeConfig::default(), "clean");
        for c in &out.completions {
            let reference = clean.completions.iter().find(|x| x.id == c.id);
            assert_eq!(reference.map(|x| &x.tokens), Some(&c.tokens));
        }
    }
}
