use crate::ppa::csq::CsqEntry;
use crate::prf::PhysReg;
use ppa_isa::{ArchReg, RegClass};

/// Everything PPA saves on impending power failure (§4.5): the five
/// structures — CSQ, CRT, MaskReg, LCPC, and the physical registers marked
/// by CSQ or CRT entries. Nothing about in-flight (speculative) state is
/// saved; recovery resumes after the last committed instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointImage {
    /// Committed stores of the interrupted region, in program order.
    pub csq: Vec<CsqEntry>,
    /// Commit rename table: architectural → physical mappings of committed
    /// state.
    pub crt: Vec<(ArchReg, PhysReg)>,
    /// Masked (store-integrity-protected) physical registers.
    pub masked: Vec<PhysReg>,
    /// Values of the checkpointed physical registers (CSQ ∪ CRT sources).
    pub prf_values: Vec<(PhysReg, u64)>,
    /// Last committed program counter.
    pub lcpc: u64,
    /// Number of instructions committed before the failure. In hardware
    /// the LCPC alone locates the resume point; in this trace-driven model
    /// the commit index is its analogue.
    pub committed: u64,
}

impl CheckpointImage {
    /// Value of a checkpointed physical register, if it was saved.
    pub fn reg_value(&self, reg: PhysReg) -> Option<u64> {
        self.prf_values
            .iter()
            .find(|(r, _)| *r == reg)
            .map(|&(_, v)| v)
    }

    /// Bytes the JIT-checkpoint controller must move to NVM, using the
    /// paper's accounting (§7.12–7.13): 8-byte-rounded structures, 16 B per
    /// physical register (128-bit worst case), a 9-bit-per-entry CRT, and a
    /// MaskReg of one bit per physical register.
    pub fn checkpoint_bytes(&self, total_prf: usize) -> u64 {
        let round8 = |b: u64| b.div_ceil(8) * 8;
        let csq = self.csq.len() as u64 * 8;
        let prf = self.prf_values.len() as u64 * 16;
        let crt = (self.crt.len() as u64 * 9).div_ceil(8);
        let mask = round8((total_prf as u64).div_ceil(8));
        let lcpc = 8;
        csq + prf + crt + mask + lcpc
    }

    /// Serializes the image into the 8-byte-word stream the checkpoint
    /// controller writes to NVM: a magic header, the packed counts, LCPC
    /// and commit index, the five structures, a checksum over all of those
    /// words (one mixing step per word, so decoding costs little beyond
    /// the stream's length), and a completion marker. The marker is the
    /// last word written, so any prefix of the stream (a torn, mid-flush
    /// image) is detectably incomplete.
    pub fn serialize(&self) -> Vec<u64> {
        let mut w = Vec::with_capacity(self.serialized_len());
        self.serialize_into(&mut w);
        w
    }

    /// Words [`CheckpointImage::serialize`] produces.
    fn serialized_len(&self) -> usize {
        body_len(
            self.csq.len(),
            self.crt.len(),
            self.masked.len(),
            self.prf_values.len(),
        ) + 2
    }

    /// Appends the serialized image to `w`, checksumming only the words
    /// this image wrote (anything already in `w` is another image's).
    fn serialize_into(&self, w: &mut Vec<u64>) {
        let start = w.len();
        w.push(IMAGE_MAGIC);
        w.push(pack_counts(
            self.csq.len(),
            self.crt.len(),
            self.masked.len(),
            self.prf_values.len(),
        ));
        w.push(self.lcpc);
        w.push(self.committed);
        for e in &self.csq {
            w.push(pack_phys(e.src) << 8 | e.size as u64);
            w.push(e.addr);
        }
        for &(a, p) in &self.crt {
            w.push(pack_arch(a) << 32 | pack_phys(p));
        }
        for &p in &self.masked {
            w.push(pack_phys(p));
        }
        for &(p, v) in &self.prf_values {
            w.push(pack_phys(p));
            w.push(v);
        }
        let sum = checksum(&w[start..]);
        w.push(sum);
        w.push(IMAGE_END);
    }

    /// Rebuilds an image from a serialized word stream, returning the
    /// image and the number of words consumed. Returns `None` if the
    /// stream is torn (truncated mid-flush), corrupted, or lacks its
    /// completion marker — a recovery path must never trust such state.
    pub fn deserialize(words: &[u64]) -> Option<(CheckpointImage, usize)> {
        if *words.first()? != IMAGE_MAGIC {
            return None;
        }
        let (csq_len, crt_len, masked_len, prf_len) = unpack_counts(*words.get(1)?);
        // The counts are 16-bit fields, so the length cannot overflow; a
        // stream too short for them is torn and fails before any
        // allocation they would size.
        let body = body_len(csq_len, crt_len, masked_len, prf_len);
        let (&sum, &end) = (words.get(body)?, words.get(body + 1)?);
        if sum != checksum(&words[..body]) || end != IMAGE_END {
            return None;
        }
        let mut r = Reader { words, pos: 2 };
        let lcpc = r.next()?;
        let committed = r.next()?;
        let mut csq = Vec::with_capacity(csq_len);
        for _ in 0..csq_len {
            let head = r.next()?;
            let addr = r.next()?;
            csq.push(CsqEntry {
                src: unpack_phys(head >> 8)?,
                addr,
                size: (head & 0xff) as u8,
            });
        }
        let mut crt = Vec::with_capacity(crt_len);
        for _ in 0..crt_len {
            let w = r.next()?;
            crt.push((unpack_arch(w >> 32)?, unpack_phys(w & 0xffff_ffff)?));
        }
        let mut masked = Vec::with_capacity(masked_len);
        for _ in 0..masked_len {
            masked.push(unpack_phys(r.next()?)?);
        }
        let mut prf_values = Vec::with_capacity(prf_len);
        for _ in 0..prf_len {
            let p = unpack_phys(r.next()?)?;
            let v = r.next()?;
            prf_values.push((p, v));
        }
        Some((
            CheckpointImage {
                csq,
                crt,
                masked,
                prf_values,
                lcpc,
                committed,
            },
            body + 2,
        ))
    }
}

const IMAGE_MAGIC: u64 = 0x5050_4130_494d_4731; // "PPA0IMG1"
const IMAGE_END: u64 = 0x5050_4130_494d_4745; // "PPA0IMGE"
const STREAM_MAGIC: u64 = 0x5050_4130_434b_5031; // "PPA0CKP1"
const STREAM_END: u64 = 0x5050_4130_434b_5045; // "PPA0CKPE"

struct Reader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl Reader<'_> {
    fn next(&mut self) -> Option<u64> {
        let w = self.words.get(self.pos).copied()?;
        self.pos += 1;
        Some(w)
    }
}

/// The integrity word the controller appends so recovery can reject
/// corrupted images: one mixing step per word,
/// `h = (h ^ w) * K; h ^= h >> 29`.
///
/// Every step is a bijection of the running state for a fixed word, and
/// of the word for a fixed state, so a stream differing from the written
/// one in any single word always ends in a different checksum. The
/// xorshift is what makes that hold for more than one word: without it a
/// flip of bit 63 only ever reaches bit 63 (`(x ^ 1 << 63) * K` is
/// `x * K ^ 1 << 63` for odd `K`), and the same flip in the next word
/// cancels it.
fn checksum(words: &[u64]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        let h = (h ^ w).wrapping_mul(K);
        h ^ h >> 29
    })
}

/// Words of an image's body: header (magic, counts, LCPC, commit index)
/// and the structures, without the checksum and end marker.
fn body_len(csq: usize, crt: usize, masked: usize, prf: usize) -> usize {
    4 + 2 * csq + crt + masked + 2 * prf
}

fn pack_counts(csq: usize, crt: usize, masked: usize, prf: usize) -> u64 {
    (csq as u64) << 48 | (crt as u64) << 32 | (masked as u64) << 16 | prf as u64
}

fn unpack_counts(w: u64) -> (usize, usize, usize, usize) {
    (
        (w >> 48) as usize,
        (w >> 32 & 0xffff) as usize,
        (w >> 16 & 0xffff) as usize,
        (w & 0xffff) as usize,
    )
}

fn pack_phys(p: PhysReg) -> u64 {
    let class = match p.class() {
        RegClass::Int => 0u64,
        RegClass::Fp => 1,
    };
    class << 16 | p.index() as u64
}

fn unpack_phys(w: u64) -> Option<PhysReg> {
    let class = match w >> 16 {
        0 => RegClass::Int,
        1 => RegClass::Fp,
        _ => return None,
    };
    Some(PhysReg::new(class, (w & 0xffff) as u16))
}

fn pack_arch(a: ArchReg) -> u64 {
    let class = match a.class() {
        RegClass::Int => 0u64,
        RegClass::Fp => 1,
    };
    class << 8 | a.index() as u64
}

fn unpack_arch(w: u64) -> Option<ArchReg> {
    let class = match w >> 8 & 1 {
        0 => RegClass::Int,
        _ => RegClass::Fp,
    };
    let index = (w & 0xff) as u8;
    if w >> 9 != 0 || index as usize >= class.arch_count() {
        return None;
    }
    Some(ArchReg::new(class, index))
}

/// Serializes a whole machine's per-core images into one contiguous word
/// stream: `[STREAM_MAGIC, n_cores, image_0 .. image_{n-1}, STREAM_END]`.
/// The trailing marker is written last, so a flush interrupted at any
/// word leaves a stream [`deserialize_images`] rejects.
pub fn serialize_images(images: &[CheckpointImage]) -> Vec<u64> {
    let len = 3 + images
        .iter()
        .map(CheckpointImage::serialized_len)
        .sum::<usize>();
    let mut w = Vec::with_capacity(len);
    w.extend([STREAM_MAGIC, images.len() as u64]);
    for img in images {
        img.serialize_into(&mut w);
    }
    w.push(STREAM_END);
    w
}

/// Rebuilds every core's image from a serialized stream, or `None` if the
/// stream is torn or corrupted anywhere (recovery must reject partially
/// flushed machine checkpoints).
pub fn deserialize_images(words: &[u64]) -> Option<Vec<CheckpointImage>> {
    let mut r = Reader { words, pos: 0 };
    if r.next()? != STREAM_MAGIC {
        return None;
    }
    // The core count is unvalidated until the images behind it parse, so
    // it must not size an allocation.
    let n = r.next()?;
    let mut images = Vec::new();
    for _ in 0..n {
        let (img, used) = CheckpointImage::deserialize(&words[r.pos..])?;
        r.pos += used;
        images.push(img);
    }
    if r.next()? != STREAM_END || r.pos != words.len() {
        return None;
    }
    Some(images)
}

/// What one JIT-checkpoint flush through the controller FSM did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flush {
    /// Controller cycles the whole flush took. An interruption does not
    /// change it: the residual-energy window finishes the flush.
    pub cycles: u64,
    /// Words of the stream durable at the interruption (zero for an
    /// uninterrupted flush).
    pub torn_words: u64,
    /// Whether the torn prefix failed to deserialize — a torn stream
    /// accepted as complete would be a silent-corruption recovery.
    /// Vacuously `true` for an uninterrupted flush.
    pub torn_prefix_rejected: bool,
}

/// Flushes a serialized checkpoint `stream` (see [`serialize_images`])
/// through a [`CheckpointController`]. With `interrupt = Some(n)` power
/// is lost again `n` controller cycles into the flush: the words durable
/// at that instant form a torn prefix, which must not deserialize, and
/// the residual-energy window then finishes the flush.
///
/// # Examples
///
/// ```
/// use ppa_core::{flush, serialize_images};
///
/// let stream = serialize_images(&[]);
/// let whole = flush(&stream, None);
/// let torn = flush(&stream, Some(3));
/// assert_eq!(torn.cycles, whole.cycles);
/// assert_eq!(torn.torn_words, 1);
/// assert!(torn.torn_prefix_rejected);
/// ```
pub fn flush(stream: &[u64], interrupt: Option<u64>) -> Flush {
    let mut fsm = CheckpointController::new();
    fsm.power_fail(stream.len() as u64 * 8);
    let Some(interrupt) = interrupt else {
        return Flush {
            cycles: fsm.run_to_completion(),
            torn_words: 0,
            torn_prefix_rejected: true,
        };
    };
    let mut used = 0;
    while used < interrupt && fsm.step() {
        used += 1;
    }
    let torn_words = fsm.words_done();
    let torn_prefix_rejected = torn_words >= stream.len() as u64
        || deserialize_images(&stream[..torn_words as usize]).is_none();
    Flush {
        cycles: used + fsm.run_to_completion(),
        torn_words,
        torn_prefix_rejected,
    }
}

/// The JIT-checkpointing controller's finite state machine (Figure 7).
///
/// On `Power_Fail` the FSM stops the pipeline, then alternates Read/Write
/// micro-steps, walking the five structures with the Source Index
/// Generator and writing each 8-byte word to the address produced by the
/// NVM Address Generator. Read and write overlap after the first word, so
/// the controller sustains 8 B/cycle — which is how the paper's 1838-byte
/// worst case takes 114.9 ns of controller time.
///
/// # Examples
///
/// ```
/// use ppa_core::CheckpointController;
///
/// let mut fsm = CheckpointController::new();
/// fsm.power_fail(1838);
/// let cycles = fsm.run_to_completion();
/// // 1838 bytes / 8 B per cycle, plus the stop-pipeline and read-prologue
/// // cycles.
/// assert_eq!(cycles, 2 + 230);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointController {
    state: CkptState,
    words_total: u64,
    words_done: u64,
}

/// FSM states (Figure 7, bottom left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptState {
    /// Waiting for `Power_Fail`.
    Idle,
    /// Freezing the pipeline so structure contents stop changing.
    StopPipeline,
    /// `Core_Rd` raised: reading the word selected by the SIG.
    Read,
    /// `NVM_Wr` raised: writing to the address from the NAG (overlapped
    /// with the next read).
    Write,
}

impl CheckpointController {
    /// Creates an idle controller.
    pub fn new() -> Self {
        CheckpointController {
            state: CkptState::Idle,
            words_total: 0,
            words_done: 0,
        }
    }

    /// Current FSM state.
    pub fn state(&self) -> CkptState {
        self.state
    }

    /// Words the flush has retired to NVM so far. Together with
    /// [`CheckpointController::words_total`] this locates a mid-flush
    /// failure point: a crash model that interrupts the flush leaves only
    /// the first `words_done()` words of the serialized stream durable.
    pub fn words_done(&self) -> u64 {
        self.words_done
    }

    /// Total words the current flush must move.
    pub fn words_total(&self) -> u64 {
        self.words_total
    }

    /// Whether a flush is in progress.
    pub fn is_busy(&self) -> bool {
        self.state != CkptState::Idle
    }

    /// Delivers `Power_Fail` with the number of bytes to checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the controller is not idle (a second failure cannot
    /// arrive while the first checkpoint is in progress — the core is
    /// already powered down).
    pub fn power_fail(&mut self, bytes: u64) {
        assert_eq!(self.state, CkptState::Idle, "controller is busy");
        self.words_total = bytes.div_ceil(8);
        self.words_done = 0;
        self.state = CkptState::StopPipeline;
    }

    /// Advances one cycle; returns `true` while busy.
    pub fn step(&mut self) -> bool {
        self.state = match self.state {
            CkptState::Idle => CkptState::Idle,
            CkptState::StopPipeline => {
                if self.words_total == 0 {
                    CkptState::Idle
                } else {
                    CkptState::Read
                }
            }
            CkptState::Read => CkptState::Write,
            CkptState::Write => {
                // `Read_Finish`/`NVM_Wr` overlap: one word retires per
                // cycle in this state.
                self.words_done += 1;
                if self.words_done >= self.words_total {
                    // `Ckpt_All` asserted.
                    CkptState::Idle
                } else {
                    CkptState::Write
                }
            }
        };
        self.state != CkptState::Idle
    }

    /// Runs the whole checkpoint, returning the cycles consumed.
    pub fn run_to_completion(&mut self) -> u64 {
        let mut cycles = 0;
        while self.step() {
            cycles += 1;
        }
        cycles + 1 // the final step that returned to Idle also took a cycle
    }
}

impl Default for CheckpointController {
    fn default() -> Self {
        CheckpointController::new()
    }
}

/// The shared Base+Offset adder used by both the Source Index Generator
/// and the NVM Address Generator (Figure 7, bottom right): walks a
/// structure's entries as `base + offset` with the offset advancing by a
/// fixed stride.
///
/// # Examples
///
/// ```
/// use ppa_core::IndexWalker;
///
/// let mut nag = IndexWalker::new(0x1000, 8);
/// assert_eq!(nag.next_index(), 0x1000);
/// assert_eq!(nag.next_index(), 0x1008);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexWalker {
    base: u64,
    offset: u64,
    stride: u64,
}

impl IndexWalker {
    /// Creates a walker starting at `base` advancing by `stride`.
    pub fn new(base: u64, stride: u64) -> Self {
        IndexWalker {
            base,
            offset: 0,
            stride,
        }
    }

    /// Produces `base + offset` and advances the offset.
    pub fn next_index(&mut self) -> u64 {
        let v = self.base + self.offset;
        self.offset += self.stride;
        v
    }

    /// Resets the offset, optionally rebasing (moving to the next of the
    /// five structures).
    pub fn rebase(&mut self, base: u64) {
        self.base = base;
        self.offset = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_isa::RegClass;

    fn sample_image() -> CheckpointImage {
        CheckpointImage {
            csq: (0..40)
                .map(|i| CsqEntry {
                    src: PhysReg::new(RegClass::Int, i),
                    addr: i as u64 * 8,
                    size: 8,
                })
                .collect(),
            crt: ArchReg::all()
                .map(|a| (a, PhysReg::new(a.class(), a.index() as u16)))
                .collect(),
            masked: vec![],
            prf_values: (0..88)
                .map(|i| (PhysReg::new(RegClass::Int, i), i as u64))
                .collect(),
            lcpc: 0x1000,
            committed: 100,
        }
    }

    #[test]
    fn worst_case_bytes_match_paper_1838() {
        // 40 CSQ entries (320 B) + 88 registers at 16 B (1408 B) + 48 CRT
        // entries at 9 bits (54 B) + 348-bit MaskReg rounded to 48 B +
        // 8 B LCPC = 1838 B (§7.13).
        let img = sample_image();
        assert_eq!(img.checkpoint_bytes(348), 1838);
    }

    #[test]
    fn fsm_walks_stop_read_write_idle() {
        let mut fsm = CheckpointController::new();
        assert_eq!(fsm.state(), CkptState::Idle);
        fsm.power_fail(16); // two words
        assert_eq!(fsm.state(), CkptState::StopPipeline);
        fsm.step();
        assert_eq!(fsm.state(), CkptState::Read);
        fsm.step();
        assert_eq!(fsm.state(), CkptState::Write);
        fsm.step(); // word 1 retires
        assert_eq!(fsm.state(), CkptState::Write);
        fsm.step(); // word 2 retires -> Ckpt_All
        assert_eq!(fsm.state(), CkptState::Idle);
    }

    #[test]
    fn controller_sustains_8_bytes_per_cycle_asymptotically() {
        let mut fsm = CheckpointController::new();
        fsm.power_fail(8000);
        let cycles = fsm.run_to_completion();
        // 1000 words + stop + read prologue.
        assert_eq!(cycles, 1002);
    }

    #[test]
    fn zero_byte_checkpoint_returns_to_idle() {
        let mut fsm = CheckpointController::new();
        fsm.power_fail(0);
        assert_eq!(fsm.run_to_completion(), 1);
        assert_eq!(fsm.state(), CkptState::Idle);
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_power_fail_panics() {
        let mut fsm = CheckpointController::new();
        fsm.power_fail(8);
        fsm.power_fail(8);
    }

    #[test]
    fn reg_value_lookup() {
        let img = sample_image();
        assert_eq!(img.reg_value(PhysReg::new(RegClass::Int, 3)), Some(3));
        assert_eq!(img.reg_value(PhysReg::new(RegClass::Fp, 3)), None);
    }

    #[test]
    fn walker_rebase_restarts_offsets() {
        let mut w = IndexWalker::new(0, 8);
        w.next_index();
        w.next_index();
        w.rebase(0x100);
        assert_eq!(w.next_index(), 0x100);
    }

    fn image_with_state() -> CheckpointImage {
        CheckpointImage {
            csq: vec![
                CsqEntry {
                    src: PhysReg::new(RegClass::Int, 5),
                    addr: 0x1000,
                    size: 8,
                },
                CsqEntry {
                    src: PhysReg::new(RegClass::Fp, 3),
                    addr: 0x2008,
                    size: 4,
                },
            ],
            crt: vec![
                (ArchReg::int(0), PhysReg::new(RegClass::Int, 7)),
                (ArchReg::fp(2), PhysReg::new(RegClass::Fp, 9)),
            ],
            masked: vec![PhysReg::new(RegClass::Int, 5)],
            prf_values: vec![
                (PhysReg::new(RegClass::Int, 5), 42),
                (PhysReg::new(RegClass::Int, 7), 0xdead_beef),
            ],
            lcpc: 0x40_0010,
            committed: 12,
        }
    }

    #[test]
    fn serialize_round_trips() {
        let img = image_with_state();
        let words = img.serialize();
        let (back, used) = CheckpointImage::deserialize(&words).expect("intact stream");
        assert_eq!(back, img);
        assert_eq!(used, words.len());
    }

    #[test]
    fn every_torn_prefix_is_rejected() {
        let img = image_with_state();
        let words = img.serialize();
        for cut in 0..words.len() {
            assert!(
                CheckpointImage::deserialize(&words[..cut]).is_none(),
                "a stream torn at word {cut}/{} must not deserialize",
                words.len()
            );
        }
    }

    #[test]
    fn corrupted_word_fails_the_checksum() {
        let img = image_with_state();
        let mut words = img.serialize();
        words[4] ^= 1;
        assert!(CheckpointImage::deserialize(&words).is_none());
    }

    #[test]
    fn multi_image_stream_round_trips_and_rejects_tearing() {
        let images = vec![image_with_state(), sample_image()];
        let words = serialize_images(&images);
        assert_eq!(deserialize_images(&words).expect("intact"), images);
        for cut in 0..words.len() {
            assert!(deserialize_images(&words[..cut]).is_none(), "torn at {cut}");
        }
    }

    #[test]
    fn flush_rejects_every_torn_prefix_and_keeps_its_cycle_count() {
        let stream = serialize_images(&[image_with_state(), sample_image()]);
        let words = stream.len() as u64;
        let whole = flush(&stream, None);
        assert_eq!(whole.cycles, words + 2);
        assert_eq!(whole.torn_words, 0);
        assert!(whole.torn_prefix_rejected);
        for interrupt in 0..=words + 2 {
            let f = flush(&stream, Some(interrupt));
            assert!(f.torn_prefix_rejected, "interrupt {interrupt}");
            assert_eq!(
                f.torn_words,
                interrupt.saturating_sub(2).min(words),
                "interrupt {interrupt}"
            );
            assert_eq!(f.cycles, whole.cycles, "interrupt {interrupt}");
        }
    }

    #[test]
    fn controller_reports_flush_progress() {
        let mut fsm = CheckpointController::new();
        fsm.power_fail(32); // four words
        assert_eq!(fsm.words_total(), 4);
        assert!(fsm.is_busy());
        fsm.step(); // StopPipeline -> Read
        fsm.step(); // Read -> Write
        assert_eq!(fsm.words_done(), 0);
        fsm.step(); // word 1
        assert_eq!(fsm.words_done(), 1);
        fsm.run_to_completion();
        assert_eq!(fsm.words_done(), 4);
        assert!(!fsm.is_busy());
    }
}
