//! The instruction window: the reorder buffer as a ring indexed by
//! sequence number, and the issue queue's wake-up scheduler.
//!
//! Issue is event-driven, as in hardware. At rename an entry counts the
//! sources whose producer has not issued yet and threads itself onto
//! each such register's waiter list. When a producer issues, its waiters
//! learn the cycle its value lands; an entry whose last source resolves
//! is filed on a timing wheel at the cycle all its sources are ready.
//! Each cycle drains one wheel bucket into a ready mask over ROB slots,
//! and issue walks that mask oldest-first. Nothing rescans the queue.

use crate::prf::PhysReg;
use ppa_isa::{ArchReg, MemRef, RegClass, UopKind};

/// End of a waiter list.
const NIL: u32 = u32::MAX;

/// Timing-wheel horizon in cycles. It covers an NVM read miss (≈460
/// cycles through the hierarchy); wake-ups further out wait in the
/// overflow list.
const WHEEL: usize = 1024;

#[derive(Debug, Clone, Copy)]
pub(crate) struct DstInfo {
    pub(crate) arch: ArchReg,
    pub(crate) phys: PhysReg,
    /// The architectural register's previous mapping at rename time —
    /// freed when this instruction commits (or deferred if masked).
    pub(crate) prev: Option<PhysReg>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct RobEntry {
    pub(crate) seq: u64,
    pub(crate) pc: u64,
    pub(crate) kind: UopKind,
    pub(crate) srcs: [Option<PhysReg>; 3],
    pub(crate) dst: Option<DstInfo>,
    /// For stores: the physical register holding the data (first source).
    pub(crate) store_data: Option<PhysReg>,
    pub(crate) mem: Option<MemRef>,
    pub(crate) issued: bool,
    pub(crate) complete_at: u64,
    /// Capri barriers: the commit-side ordering handshake has started.
    pub(crate) barrier_armed: bool,
    /// Sources still waiting on an unissued producer.
    pending: u8,
    /// The cycle every resolved source is ready (at least rename + 1).
    wake: u64,
    /// Per source slot: the next node on that source register's waiter
    /// list.
    next_waiter: [u32; 3],
    /// The next slot filed in the same wheel bucket.
    next_filed: u32,
}

impl RobEntry {
    /// A renamed entry; [`Window::push`] gives it its sequence number.
    pub(crate) fn new(pc: u64, kind: UopKind) -> Self {
        RobEntry {
            seq: 0,
            pc,
            kind,
            srcs: [None; 3],
            dst: None,
            store_data: None,
            mem: None,
            issued: false,
            complete_at: u64::MAX,
            barrier_armed: false,
            pending: 0,
            wake: 0,
            next_waiter: [NIL; 3],
            next_filed: NIL,
        }
    }
}

/// The ROB ring, the IQ and its wake-up state.
#[derive(Debug)]
pub(crate) struct Window {
    /// `slots - 1`; the ring holds `rob_entries.next_power_of_two()`
    /// slots (at least 64), and `seq & mask` is an entry's slot.
    mask: u64,
    entries: Vec<RobEntry>,
    /// Sequence number of the oldest entry.
    head: u64,
    len: usize,
    /// One bit per slot: dispatched and not issued.
    iq: Vec<u64>,
    iq_len: usize,
    /// One bit per slot: in the IQ with every source ready.
    ready: Vec<u64>,
    /// `WHEEL` bucket heads, each a list of slots (linked through
    /// `next_filed`) whose sources are all ready at that bucket's cycle.
    wheel: Vec<u32>,
    /// The next cycle whose bucket has not been drained.
    wheel_base: u64,
    /// `(wake, slot)` for wake-ups beyond the wheel's horizon.
    overflow: Vec<(u64, usize)>,
    overflow_min: u64,
    /// Waiter-list head per physical register (integer bank first); a
    /// node is `slot * 4 + source slot`.
    waiters: Vec<u32>,
    fp_base: usize,
}

impl Window {
    /// An empty window whose first entry will be `first_seq`.
    pub(crate) fn new(rob_entries: usize, int_prf: usize, fp_prf: usize, first_seq: u64) -> Self {
        let slots = rob_entries.next_power_of_two().max(64);
        let words = slots / 64;
        Window {
            mask: slots as u64 - 1,
            entries: vec![RobEntry::new(0, UopKind::Nop); slots],
            head: first_seq,
            len: 0,
            iq: vec![0; words],
            iq_len: 0,
            ready: vec![0; words],
            wheel: vec![NIL; WHEEL],
            wheel_base: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            waiters: vec![NIL; int_prf + fp_prf],
            fp_base: int_prf,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dispatched-but-unissued entries.
    pub(crate) fn iq_len(&self) -> usize {
        self.iq_len
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    pub(crate) fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.entries[self.slot(self.head)])
    }

    pub(crate) fn front_mut(&mut self) -> Option<&mut RobEntry> {
        let slot = self.slot(self.head);
        (self.len > 0).then(|| &mut self.entries[slot])
    }

    pub(crate) fn pop_front(&mut self) -> Option<RobEntry> {
        let e = *self.front()?;
        self.head += 1;
        self.len -= 1;
        Some(e)
    }

    /// In-flight entries, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &RobEntry> + '_ {
        (self.head..self.head + self.len as u64).map(|seq| &self.entries[self.slot(seq)])
    }

    /// Sequence numbers the IQ mask holds, oldest first from the head's
    /// slot, read back from the slots the bits name (so a stale bit shows
    /// as an issued or absent seq).
    pub(crate) fn iq_seqs(&self) -> impl Iterator<Item = u64> + '_ {
        let words = self.iq.len();
        let first = self.slot(self.head);
        let (w0, above) = (first / 64, !0u64 << (first % 64));
        // The head's word from its bit up, the other words in ring order,
        // then the head's word below its bit.
        std::iter::once((w0, above))
            .chain((1..words).map(move |i| ((w0 + i) % words, !0)))
            .chain(std::iter::once((w0, !above)))
            .flat_map(move |(w, keep)| {
                let mut bits = self.iq[w] & keep;
                std::iter::from_fn(move || {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits.wrapping_sub(1);
                    (b < 64).then(|| self.entries[w * 64 + b].seq)
                })
            })
    }

    fn waiter_head(&mut self, reg: PhysReg) -> &mut u32 {
        let base = match reg.class() {
            RegClass::Int => 0,
            RegClass::Fp => self.fp_base,
        };
        &mut self.waiters[base + reg.index() as usize]
    }

    /// Appends a renamed entry at cycle `now`, as the next sequence
    /// number, and dispatches it to the IQ. `ready_at` gives each
    /// source's readiness time; `u64::MAX` means its producer has not
    /// issued, so the entry waits for its wake-up.
    pub(crate) fn push(&mut self, mut e: RobEntry, now: u64, ready_at: impl Fn(PhysReg) -> u64) {
        e.seq = self.head + self.len as u64;
        let slot = self.slot(e.seq);
        e.pending = 0;
        e.wake = now + 1;
        for (k, src) in e.srcs.iter().enumerate() {
            let Some(p) = *src else { continue };
            match ready_at(p) {
                u64::MAX => {
                    let head = self.waiter_head(p);
                    e.next_waiter[k] = std::mem::replace(head, (slot * 4 + k) as u32);
                    e.pending += 1;
                }
                at => e.wake = e.wake.max(at),
            }
        }
        self.entries[slot] = e;
        self.len += 1;
        self.iq[slot / 64] |= 1 << (slot % 64);
        self.iq_len += 1;
        if e.pending == 0 {
            self.file(slot, e.wake);
        }
    }

    /// Tells `reg`'s waiters that its value is ready at cycle `at`.
    fn wake_waiters(&mut self, reg: PhysReg, at: u64) {
        let mut node = std::mem::replace(self.waiter_head(reg), NIL);
        while node != NIL {
            let (slot, k) = (node as usize / 4, node as usize % 4);
            let e = &mut self.entries[slot];
            node = e.next_waiter[k];
            e.pending -= 1;
            e.wake = e.wake.max(at);
            if e.pending == 0 {
                let wake = e.wake;
                self.file(slot, wake);
            }
        }
    }

    /// Schedules `slot` to become ready at cycle `wake`.
    fn file(&mut self, slot: usize, wake: u64) {
        let bit = 1 << (slot % 64);
        if wake < self.wheel_base {
            self.ready[slot / 64] |= bit;
        } else if wake < self.wheel_base + WHEEL as u64 {
            let bucket = &mut self.wheel[wake as usize % WHEEL];
            self.entries[slot].next_filed = std::mem::replace(bucket, slot as u32);
        } else {
            self.overflow.push((wake, slot));
            self.overflow_min = self.overflow_min.min(wake);
        }
    }

    /// Moves every wake-up due by cycle `now` into the ready mask. Cycles
    /// the core was not stepped (an SMP arbiter stall, a recovered core
    /// starting late) are drained too.
    pub(crate) fn wake_due(&mut self, now: u64) {
        if now < self.wheel_base {
            return;
        }
        let due = ((now - self.wheel_base + 1) as usize).min(WHEEL);
        for t in self.wheel_base..self.wheel_base + due as u64 {
            let mut slot = std::mem::replace(&mut self.wheel[t as usize % WHEEL], NIL);
            while slot != NIL {
                let s = slot as usize;
                self.ready[s / 64] |= 1 << (s % 64);
                slot = self.entries[s].next_filed;
            }
        }
        self.wheel_base = now + 1;
        let horizon = self.wheel_base + WHEEL as u64;
        if self.overflow_min < horizon {
            self.overflow_min = u64::MAX;
            let mut i = 0;
            while i < self.overflow.len() {
                let (wake, slot) = self.overflow[i];
                if wake < horizon {
                    self.overflow.swap_remove(i);
                    self.file(slot, wake);
                } else {
                    self.overflow_min = self.overflow_min.min(wake);
                    i += 1;
                }
            }
        }
    }

    /// The oldest ready entry at least `from` places behind the head, as
    /// that distance. Bits set while issue walks the mask are seen as
    /// long as they lie ahead of the walk.
    pub(crate) fn next_ready(&self, from: usize) -> Option<usize> {
        let first = self.slot(self.head);
        let mut off = from;
        while off < self.len {
            let s = (first + off) & self.mask as usize;
            let bits = self.ready[s / 64] >> (s % 64);
            if bits != 0 {
                let found = off + bits.trailing_zeros() as usize;
                return (found < self.len).then_some(found);
            }
            off += 64 - s % 64;
        }
        None
    }

    /// The entry `off` places behind the head.
    pub(crate) fn get(&self, off: usize) -> &RobEntry {
        &self.entries[self.slot(self.head + off as u64)]
    }

    /// Issues the entry `off` places behind the head: it completes at
    /// `complete_at` and leaves the IQ, and the waiters on its
    /// destination learn that their source is ready then.
    pub(crate) fn mark_issued(&mut self, off: usize, complete_at: u64) {
        let slot = self.slot(self.head + off as u64);
        let e = &mut self.entries[slot];
        e.issued = true;
        e.complete_at = complete_at;
        if let Some(d) = e.dst {
            self.wake_waiters(d.phys, complete_at);
        }
        let keep = !(1u64 << (slot % 64));
        self.ready[slot / 64] &= keep;
        self.iq[slot / 64] &= keep;
        self.iq_len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_prng::Prng;
    use std::collections::VecDeque;

    /// What the window must agree with: a ROB entry as the per-cycle IQ
    /// rescan saw it.
    struct Op {
        seq: u64,
        srcs: Vec<PhysReg>,
        dst: Option<PhysReg>,
        latency: u64,
        done: Option<u64>,
    }

    fn reg(i: usize) -> PhysReg {
        if i % 5 == 4 {
            PhysReg::new(RegClass::Fp, (i / 5) as u16)
        } else {
            PhysReg::new(RegClass::Int, i as u16)
        }
    }

    /// The rescan: every unissued op oldest first, ready once each source
    /// is, up to `width`; a producer issued earlier in the pass is seen
    /// by the ops behind it.
    fn rescan(ops: &VecDeque<Op>, ready_at: &[u64], width: usize, now: u64) -> Vec<u64> {
        let mut ready_at = ready_at.to_vec();
        let mut issued = Vec::new();
        for op in ops.iter().filter(|op| op.done.is_none()) {
            if issued.len() == width {
                break;
            }
            if op.srcs.iter().all(|&s| ready_at[index(s)] <= now) {
                if let Some(d) = op.dst {
                    ready_at[index(d)] = now + op.latency;
                }
                issued.push(op.seq);
            }
        }
        issued
    }

    fn index(r: PhysReg) -> usize {
        match r.class() {
            RegClass::Int => r.index() as usize,
            RegClass::Fp => r.index() as usize * 5 + 4,
        }
    }

    /// Random dependence chains with latencies from zero to beyond the
    /// wheel's horizon, windows of several sizes, and cycles the window
    /// is not stepped: the wake-up scheduler issues exactly what the
    /// rescan issues, cycle by cycle, and its IQ mask names exactly the
    /// unissued ops.
    #[test]
    fn issues_what_a_rescan_of_the_queue_issues() {
        let mut rng = Prng::seed_from_u64(21);
        for (rob, iq, width) in [(96, 48, 4), (224, 97, 4), (288, 128, 8), (24, 16, 2)] {
            const REGS: usize = 1_000;
            let mut window = Window::new(rob, REGS, REGS / 5, 7);
            let mut ops: VecDeque<Op> = VecDeque::new();
            let mut ready_at = vec![0u64; REGS];
            let (mut next_seq, mut next_reg, mut now) = (7u64, 0usize, 0u64);
            let mut issued_total = 0;
            for _ in 0..4_000 {
                // Commit.
                while ops
                    .front()
                    .is_some_and(|op| op.done.is_some_and(|d| d <= now))
                {
                    let op = ops.pop_front().expect("checked");
                    assert_eq!(window.pop_front().map(|e| e.seq), Some(op.seq));
                }
                // Issue.
                let want = rescan(&ops, &ready_at, width, now);
                window.wake_due(now);
                let mut got = Vec::new();
                let mut from = 0;
                while got.len() < width {
                    let Some(at) = window.next_ready(from) else {
                        break;
                    };
                    from = at + 1;
                    let seq = window.get(at).seq;
                    let head = ops[0].seq;
                    let op = &mut ops[(seq - head) as usize];
                    let done = now + op.latency;
                    op.done = Some(done);
                    if let Some(d) = op.dst {
                        ready_at[index(d)] = done;
                    }
                    window.mark_issued(at, done);
                    got.push(seq);
                }
                assert_eq!(got, want, "ROB {rob} at cycle {now}");
                issued_total += got.len();
                // Rename.
                for _ in 0..width {
                    if window.len() >= rob || window.iq_len() >= iq {
                        break;
                    }
                    let nsrcs = rng.random_below(4) as usize;
                    let srcs: Vec<PhysReg> = (0..nsrcs)
                        .map(|_| reg((next_reg + REGS - 1 - rng.random_below(40) as usize) % REGS))
                        .collect();
                    let dst = rng.random_bool(0.8).then(|| {
                        next_reg = (next_reg + 1) % REGS;
                        ready_at[next_reg] = u64::MAX;
                        reg(next_reg)
                    });
                    let latency = match rng.random_below(100) {
                        0 => 0,
                        1..=4 => 300 + rng.random_below(3_000),
                        _ => 1 + rng.random_below(20),
                    };
                    let mut e = RobEntry::new(0, UopKind::IntAlu);
                    for (slot, &s) in srcs.iter().enumerate() {
                        e.srcs[slot] = Some(s);
                    }
                    e.dst = dst.map(|phys| DstInfo {
                        arch: ArchReg::new(phys.class(), 0),
                        phys,
                        prev: None,
                    });
                    window.push(e, now, |p| ready_at[index(p)]);
                    ops.push_back(Op {
                        seq: next_seq,
                        srcs,
                        dst,
                        latency,
                        done: None,
                    });
                    next_seq += 1;
                }
                let unissued: Vec<u64> = ops
                    .iter()
                    .filter(|op| op.done.is_none())
                    .map(|op| op.seq)
                    .collect();
                assert_eq!(window.iq_seqs().collect::<Vec<_>>(), unissued);
                assert_eq!(window.iq_len(), unissued.len());
                // Now and then the window is not stepped for a while.
                now += match rng.random_below(50) {
                    0 => 2 + rng.random_below(2_000),
                    _ => 1,
                };
            }
            assert!(issued_total > 500, "ROB {rob}: only {issued_total} issued");
        }
    }
}
