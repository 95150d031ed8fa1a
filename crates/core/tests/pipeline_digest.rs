//! Pins the cycle-exact behaviour of the out-of-order pipeline: an
//! FNV-1a digest over cycles, commits, every `CoreStats` counter, both
//! free-register CDFs and the memory system's statistics, for each
//! persistence mode, a sweep of width/ROB/IQ sizes and one 8-core
//! lockstep run. A change to issue, rename or commit scheduling that
//! moves a single cycle or counter anywhere fails here.

use ppa_core::{Core, CoreConfig, Lockstep, PersistenceMode};
use ppa_isa::transform::{CapriPass, ReplayCachePass, TracePass};
use ppa_isa::{ArchReg, BranchKind, MemRef, SyncKind, Trace, TraceBuilder, Uop, UopKind};
use ppa_mem::{CacheStats, MemConfig, MemorySystem};
use ppa_prng::Prng;
use ppa_stats::{Cdf, Summary};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn summary(&mut self, s: &Summary) {
        self.word(s.count());
        self.word(s.sum().to_bits());
        self.word(s.max().to_bits());
    }

    /// The CDF's buckets, as (value, cumulative fraction) points: with the
    /// total, these determine every bucket count.
    fn cdf(&mut self, c: &Cdf) {
        self.word(c.total());
        for (v, f) in c.points() {
            self.word(v);
            self.word(f.to_bits());
        }
    }

    fn cache(&mut self, c: &CacheStats) {
        self.word(c.hits);
        self.word(c.misses);
        self.word(c.dirty_evictions);
    }

    fn core(&mut self, core: &Core) {
        let s = core.stats();
        self.word(s.cycles);
        self.word(core.committed());
        self.word(core.lcpc());
        for v in [
            s.committed_uops,
            s.committed_stores,
            s.regions,
            s.region_end_stall_cycles,
            s.rename_noreg_stall_cycles,
            s.rename_stall_cycles,
            s.sq_full_stall_cycles,
            s.csq_full_boundaries,
            s.region_ends_prf,
            s.region_ends_sync,
            s.region_ends_forced,
            s.barrier_commit_stall_cycles,
        ] {
            self.word(v);
        }
        self.summary(&s.region_insts);
        self.summary(&s.region_stores);
        self.cdf(&s.free_int_cdf);
        self.cdf(&s.free_fp_cdf);
    }

    fn mem(&mut self, mem: &MemorySystem) {
        let m = mem.stats();
        for c in [&m.l1d, &m.l2, &m.l3, &m.dram] {
            self.cache(c);
        }
        for v in [
            m.nvm.reads,
            m.nvm.writes,
            m.nvm.combined_writes,
            m.nvm.wpq_full_events,
            m.wb.enqueued,
            m.wb.coalesced,
            m.wb.issued,
            m.wb.full_rejections,
            m.wpq_stall_cycles,
        ] {
            self.word(v);
        }
    }
}

/// A seeded mix of every micro-op class the core schedules: dependent
/// ALU/FP chains, long-latency divides, loads over a hot set and a cold
/// footprint (NVM misses hundreds of cycles long), stores, branches and
/// the occasional synchronisation primitive.
fn mixed_trace(seed: u64, len: usize) -> Trace {
    let mut rng = Prng::seed_from_u64(seed);
    let mut b = TraceBuilder::new(format!("mix{seed}"));
    let int = |rng: &mut Prng| ArchReg::int(rng.random_below(12) as u8);
    let fp = |rng: &mut Prng| ArchReg::fp(rng.random_below(8) as u8);
    let addr = |rng: &mut Prng| {
        if rng.random_bool(0.7) {
            0x10_0000 + rng.random_below(64) * 8
        } else {
            0x400_0000 + rng.random_below(1 << 16) * 64
        }
    };
    for i in 0..len as u64 {
        let roll = rng.random_below(100);
        match roll {
            0..=29 => {
                let srcs = [int(&mut rng), int(&mut rng), int(&mut rng)];
                let n = rng.random_below(4) as usize;
                b.alu(int(&mut rng), &srcs[..n]);
            }
            30..=35 => {
                let kind = if rng.random_bool(0.7) {
                    UopKind::IntMul
                } else {
                    UopKind::IntDiv
                };
                let u = Uop::new(0, kind)
                    .with_dst(int(&mut rng))
                    .with_srcs(&[int(&mut rng), int(&mut rng)]);
                b.push(u);
            }
            36..=47 => {
                let kind =
                    [UopKind::FpAlu, UopKind::FpMul, UopKind::FpDiv][rng.random_below(3) as usize];
                let u = Uop::new(0, kind)
                    .with_dst(fp(&mut rng))
                    .with_srcs(&[fp(&mut rng), fp(&mut rng)]);
                b.push(u);
            }
            48..=69 => {
                let a = addr(&mut rng);
                let u = Uop::new(0, UopKind::Load)
                    .with_dst(int(&mut rng))
                    .with_srcs(&[int(&mut rng)])
                    .with_mem(MemRef::new(a, 8, 0));
                b.push(u);
            }
            70..=84 => {
                let a = addr(&mut rng);
                b.store(int(&mut rng), a, i + 1);
            }
            85..=93 => {
                b.branch(BranchKind::Jump);
            }
            94..=95 => {
                let kind = [SyncKind::Fence, SyncKind::AtomicRmw][rng.random_below(2) as usize];
                b.sync(kind);
            }
            _ => {
                b.nop();
            }
        }
    }
    b.build()
}

fn trace_for(mode: PersistenceMode, raw: &Trace) -> Trace {
    match mode {
        PersistenceMode::ReplayCache => ReplayCachePass::new().apply(raw),
        PersistenceMode::Capri => CapriPass::new().apply(raw),
        PersistenceMode::Baseline | PersistenceMode::Ppa => raw.clone(),
    }
}

fn single_core_digest(cfg: CoreConfig, raw: &Trace) -> u64 {
    let trace = trace_for(cfg.mode, raw);
    let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
    let mut core = Core::new(cfg, 0);
    core.run(&trace, &mut mem);
    assert_eq!(core.committed(), trace.len() as u64);
    let mut h = Fnv::new();
    h.core(&core);
    h.mem(&mem);
    h.0
}

#[test]
fn every_mode_matches_its_pinned_digest() {
    let raw = mixed_trace(1, 3_000);
    let got: Vec<(PersistenceMode, u64)> = [
        PersistenceMode::Baseline,
        PersistenceMode::Ppa,
        PersistenceMode::ReplayCache,
        PersistenceMode::Capri,
    ]
    .into_iter()
    .map(|mode| {
        (
            mode,
            single_core_digest(CoreConfig::paper_default(mode), &raw),
        )
    })
    .collect();
    let want = [
        (PersistenceMode::Baseline, 16495181479742733793),
        (PersistenceMode::Ppa, 18087226220423745789),
        (PersistenceMode::ReplayCache, 18248602980360208297),
        (PersistenceMode::Capri, 561619141180361555),
    ];
    assert_eq!(got, want);
}

/// Every combination of width 2/4/8, ROB 96/224/288 and IQ 48/97/128,
/// under PPA with a PRF large enough that the window, not the free
/// list, is what the sizes change.
#[test]
fn window_sizes_match_their_pinned_digests() {
    let raw = mixed_trace(2, 1_500);
    let mut got = Vec::new();
    for width in [2, 4, 8] {
        for rob in [96, 224, 288] {
            for iq in [48, 97, 128] {
                let mut cfg = CoreConfig::paper_default(PersistenceMode::Ppa).with_prf(320, 320);
                cfg.width = width;
                cfg.rob_entries = rob;
                cfg.iq_entries = iq;
                got.push(((width, rob, iq), single_core_digest(cfg, &raw)));
            }
        }
    }
    let want: Vec<((usize, usize, usize), u64)> = vec![
        ((2, 96, 48), 14042424814074833206),
        ((2, 96, 97), 14042424814074833206),
        ((2, 96, 128), 14042424814074833206),
        ((2, 224, 48), 14824828308323488421),
        ((2, 224, 97), 1066879704587830963),
        ((2, 224, 128), 11992970157075841925),
        ((2, 288, 48), 17934451201852072493),
        ((2, 288, 97), 5549163596165226380),
        ((2, 288, 128), 10595776502504059182),
        ((4, 96, 48), 10891399516484347154),
        ((4, 96, 97), 15382792260517997127),
        ((4, 96, 128), 15382792260517997127),
        ((4, 224, 48), 3773090472061581625),
        ((4, 224, 97), 1967990447874601098),
        ((4, 224, 128), 1670342627960950470),
        ((4, 288, 48), 1316196518885597970),
        ((4, 288, 97), 16102876360267257481),
        ((4, 288, 128), 687736769947261923),
        ((8, 96, 48), 12212610619321796466),
        ((8, 96, 97), 1915951962446683096),
        ((8, 96, 128), 1915951962446683096),
        ((8, 224, 48), 3350455681943067388),
        ((8, 224, 97), 15297207976104085610),
        ((8, 224, 128), 4081037331070467060),
        ((8, 288, 48), 5302533145100730875),
        ((8, 288, 97), 11333017113320627128),
        ((8, 288, 128), 1752880215128050600),
    ];
    assert_eq!(got, want);
}

/// Eight PPA cores over one shared memory system, stepped in lockstep.
#[test]
fn eight_core_lockstep_matches_its_pinned_digest() {
    let traces: Vec<Trace> = (0..8).map(|i| mixed_trace(100 + i, 1_200)).collect();
    let cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
    let mut cores: Vec<Core> = (0..8).map(|i| Core::new(cfg, i)).collect();
    let mut mem = MemorySystem::new(MemConfig::memory_mode(), 8);
    assert!(Lockstep::new(&mut cores, &traces, &mut mem).run());
    let mut h = Fnv::new();
    for core in &cores {
        h.core(core);
    }
    h.mem(&mem);
    assert_eq!(h.0, 3282330657335197201);
}
