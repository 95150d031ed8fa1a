use crate::hash::U64Map;
use ppa_isa::{line_of, CACHE_LINE_BYTES};

/// Architectural memory: the value every committed store left behind, in
/// program (commit) order, at 8-byte-word granularity.
///
/// This is the *golden* memory the crash-consistency checker compares the
/// recovered NVM image against. Word granularity is enough because the
/// workload generators emit naturally aligned 8-byte stores; sub-word
/// stores are widened by the caller.
///
/// # Examples
///
/// ```
/// use ppa_mem::ArchMem;
///
/// let mut m = ArchMem::new();
/// m.write(0x1000, 42);
/// assert_eq!(m.read(0x1000), Some(42));
/// assert_eq!(m.read(0x2000), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchMem {
    words: U64Map<u64>,
}

impl ArchMem {
    /// Creates an empty memory.
    pub fn new() -> Self {
        ArchMem::default()
    }

    fn word_addr(addr: u64) -> u64 {
        addr & !7
    }

    /// Writes `value` to the 8-byte word containing `addr`.
    pub fn write(&mut self, addr: u64, value: u64) {
        self.words.insert(Self::word_addr(addr), value);
    }

    /// Reads the word containing `addr`; `None` if never written.
    pub fn read(&self, addr: u64) -> Option<u64> {
        self.words.get(&Self::word_addr(addr)).copied()
    }

    /// Number of distinct words written.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no word has ever been written.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterator over `(word_address, value)` pairs within the cache line
    /// starting at `line_addr`.
    pub fn words_in_line(&self, line_addr: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let base = line_of(line_addr);
        (0..CACHE_LINE_BYTES / 8).filter_map(move |i| {
            let a = base + i * 8;
            self.words.get(&a).map(|&v| (a, v))
        })
    }

    /// Iterator over every written `(word_address, value)` pair.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.words.iter().map(|(&a, &v)| (a, v))
    }
}

/// The NVM image: what the persistent device actually holds, word-granular.
///
/// Lines reach the image through [`NvmImage::persist_line`], which
/// snapshots the architectural values of the line *at that moment* —
/// exactly what a write-back of the (up-to-date, single-writer) dirty line
/// carries. If a word is later overwritten architecturally but the line is
/// never written back again before a power failure, the image retains the
/// stale value; that staleness is the crash inconsistency PPA's store
/// replay repairs.
///
/// # Examples
///
/// ```
/// use ppa_mem::{ArchMem, NvmImage};
///
/// let mut arch = ArchMem::new();
/// let mut nvm = NvmImage::new();
/// arch.write(0x40, 1);
/// nvm.persist_line(0x40, &arch);
/// arch.write(0x40, 2); // newer value never persisted
/// assert_eq!(nvm.read(0x40), Some(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NvmImage {
    words: U64Map<u64>,
}

impl NvmImage {
    /// Creates an empty image.
    pub fn new() -> Self {
        NvmImage::default()
    }

    /// Copies the architectural content of the line containing `addr` into
    /// the image (a line write-back reaching the persistence domain).
    pub fn persist_line(&mut self, addr: u64, arch: &ArchMem) {
        for (a, v) in arch.words_in_line(addr) {
            self.words.insert(a, v);
        }
    }

    /// Writes a single word directly (store replay during recovery, or the
    /// Capri redo-path which persists at store granularity).
    pub fn write_word(&mut self, addr: u64, value: u64) {
        self.words.insert(addr & !7, value);
    }

    /// Reads the word containing `addr`.
    pub fn read(&self, addr: u64) -> Option<u64> {
        self.words.get(&(addr & !7)).copied()
    }

    /// Number of distinct words present.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterator over `(word_address, value)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.words.iter().map(|(&a, &v)| (a, v))
    }

    /// Compares the image against architectural memory, returning the word
    /// addresses whose values differ or are missing — i.e. the crash
    /// inconsistencies a recovery must repair. An empty result means the
    /// image is crash-consistent.
    pub fn diff(&self, arch: &ArchMem) -> Vec<u64> {
        let mut bad: Vec<u64> = arch
            .iter()
            .filter(|&(a, v)| self.read(a) != Some(v))
            .map(|(a, _)| a)
            .collect();
        bad.sort_unstable();
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_mem_word_granularity() {
        let mut m = ArchMem::new();
        m.write(0x1003, 7); // unaligned address maps to word 0x1000
        assert_eq!(m.read(0x1000), Some(7));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn words_in_line_only_returns_written_words() {
        let mut m = ArchMem::new();
        m.write(0x40, 1);
        m.write(0x48, 2);
        m.write(0x80, 3); // different line
        let in_line: Vec<_> = m.words_in_line(0x40).collect();
        assert_eq!(in_line, vec![(0x40, 1), (0x48, 2)]);
    }

    #[test]
    fn persist_line_snapshots_current_values() {
        let mut arch = ArchMem::new();
        let mut nvm = NvmImage::new();
        arch.write(0x40, 1);
        arch.write(0x48, 2);
        nvm.persist_line(0x44, &arch); // any address within the line
        assert_eq!(nvm.read(0x40), Some(1));
        assert_eq!(nvm.read(0x48), Some(2));
    }

    #[test]
    fn diff_detects_stale_and_missing_words() {
        let mut arch = ArchMem::new();
        let mut nvm = NvmImage::new();
        arch.write(0x40, 1);
        nvm.persist_line(0x40, &arch);
        arch.write(0x40, 9); // stale in NVM now
        arch.write(0x80, 5); // missing from NVM
        assert_eq!(nvm.diff(&arch), vec![0x40, 0x80]);
    }

    #[test]
    fn diff_empty_when_consistent() {
        let mut arch = ArchMem::new();
        let mut nvm = NvmImage::new();
        for i in 0..32u64 {
            arch.write(i * 8, i);
        }
        for i in 0..32u64 {
            nvm.persist_line(i * 8, &arch);
        }
        assert!(nvm.diff(&arch).is_empty());
    }

    #[test]
    fn replay_repairs_inconsistency() {
        let mut arch = ArchMem::new();
        let mut nvm = NvmImage::new();
        arch.write(0x40, 1);
        nvm.persist_line(0x40, &arch);
        arch.write(0x40, 2);
        assert!(!nvm.diff(&arch).is_empty());
        // Recovery replays the committed store.
        nvm.write_word(0x40, 2);
        assert!(nvm.diff(&arch).is_empty());
    }

    #[test]
    fn persisting_unwritten_line_is_a_noop() {
        let arch = ArchMem::new();
        let mut nvm = NvmImage::new();
        nvm.persist_line(0x9999, &arch);
        assert!(nvm.is_empty());
    }
}
