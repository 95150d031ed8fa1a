use crate::prf::PhysReg;
use ppa_isa::RegClass;

/// The Store Operands Mask Register (§4): one bit per physical register.
///
/// A set bit means the register holds the data of a committed store in the
/// current region, so (a) it must not be returned to the free list even if
/// its architectural redefinition commits, and (b) it belongs to the set
/// JIT-checkpointed on power failure. The whole register clears at every
/// region boundary.
///
/// Per the paper's footnote 10, only the store's *data* register is masked
/// (address registers are not needed for replay: the CSQ records the
/// resolved physical address).
///
/// # Examples
///
/// ```
/// use ppa_core::{MaskReg, PhysReg};
/// use ppa_isa::RegClass;
///
/// let mut m = MaskReg::new(180, 168);
/// let p = PhysReg::new(RegClass::Int, 7);
/// m.mask(p);
/// assert!(m.is_masked(p));
/// m.clear();
/// assert!(!m.is_masked(p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskReg {
    int: Bank,
    fp: Bank,
    masked_count: usize,
}

/// One PRF bank's bits, 64 registers to a word.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bank {
    words: Vec<u64>,
    len: usize,
}

impl Bank {
    fn new(len: usize) -> Self {
        Bank {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Word index and bit mask of register `index`.
    fn slot(&self, index: u16) -> (usize, u64) {
        let i = index as usize;
        assert!(
            i < self.len,
            "register {i} outside a {}-entry bank",
            self.len
        );
        (i / 64, 1 << (i % 64))
    }

    /// Indices of the set bits, ascending.
    fn set_bits(&self) -> impl Iterator<Item = u16> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros();
                rest &= rest.checked_sub(1)?;
                Some((i * 64) as u16 + bit as u16)
            })
        })
    }
}

impl MaskReg {
    /// Creates an all-clear mask sized to the PRF banks.
    pub fn new(int_size: usize, fp_size: usize) -> Self {
        MaskReg {
            int: Bank::new(int_size),
            fp: Bank::new(fp_size),
            masked_count: 0,
        }
    }

    fn bank(&self, class: RegClass) -> &Bank {
        match class {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }

    /// Number of bits in the vector (the paper's 348 for the default PRF).
    pub fn len(&self) -> usize {
        self.int.len + self.fp.len
    }

    /// Whether any register is masked.
    pub fn is_empty(&self) -> bool {
        self.masked_count == 0
    }

    /// Number of masked registers.
    pub fn masked_count(&self) -> usize {
        self.masked_count
    }

    /// Masks `reg` (idempotent — a register feeding several stores in one
    /// region is masked once).
    pub fn mask(&mut self, reg: PhysReg) {
        let bank = match reg.class() {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        };
        let (word, bit) = bank.slot(reg.index());
        if bank.words[word] & bit == 0 {
            bank.words[word] |= bit;
            self.masked_count += 1;
        }
    }

    /// Whether `reg` is masked.
    pub fn is_masked(&self, reg: PhysReg) -> bool {
        let bank = self.bank(reg.class());
        let (word, bit) = bank.slot(reg.index());
        bank.words[word] & bit != 0
    }

    /// Clears every bit (region boundary).
    pub fn clear(&mut self) {
        self.int.words.fill(0);
        self.fp.words.fill(0);
        self.masked_count = 0;
    }

    /// Iterator over all masked registers (checkpoint contents), integer
    /// bank first, each bank in index order.
    pub fn masked_regs(&self) -> impl Iterator<Item = PhysReg> + '_ {
        let ints = self.int.set_bits().map(|i| PhysReg::new(RegClass::Int, i));
        let fps = self.fp.set_bits().map(|i| PhysReg::new(RegClass::Fp, i));
        ints.chain(fps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_matches_paper_prf() {
        let m = MaskReg::new(180, 168);
        assert_eq!(m.len(), 348);
    }

    #[test]
    fn masking_is_idempotent() {
        let mut m = MaskReg::new(8, 8);
        let p = PhysReg::new(RegClass::Int, 3);
        m.mask(p);
        m.mask(p);
        assert_eq!(m.masked_count(), 1);
    }

    #[test]
    fn int_and_fp_banks_are_independent() {
        let mut m = MaskReg::new(8, 8);
        m.mask(PhysReg::new(RegClass::Int, 2));
        assert!(!m.is_masked(PhysReg::new(RegClass::Fp, 2)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = MaskReg::new(8, 8);
        m.mask(PhysReg::new(RegClass::Int, 0));
        m.mask(PhysReg::new(RegClass::Fp, 7));
        assert_eq!(m.masked_count(), 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.masked_regs().count(), 0);
    }

    #[test]
    fn masked_regs_walks_bank_order_across_word_boundaries() {
        let mut m = MaskReg::new(180, 168);
        let regs = [
            PhysReg::new(RegClass::Int, 0),
            PhysReg::new(RegClass::Int, 63),
            PhysReg::new(RegClass::Int, 64),
            PhysReg::new(RegClass::Int, 179),
            PhysReg::new(RegClass::Fp, 0),
            PhysReg::new(RegClass::Fp, 127),
            PhysReg::new(RegClass::Fp, 167),
        ];
        for &r in regs.iter().rev() {
            m.mask(r);
        }
        assert_eq!(m.masked_regs().collect::<Vec<_>>(), regs);
        assert_eq!(m.masked_count(), regs.len());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn masking_past_the_bank_panics() {
        let mut m = MaskReg::new(8, 8);
        m.mask(PhysReg::new(RegClass::Int, 8));
    }

    #[test]
    fn masked_regs_enumerates_both_banks() {
        let mut m = MaskReg::new(8, 8);
        m.mask(PhysReg::new(RegClass::Int, 1));
        m.mask(PhysReg::new(RegClass::Fp, 2));
        let regs: Vec<_> = m.masked_regs().collect();
        assert_eq!(regs.len(), 2);
        assert!(regs.contains(&PhysReg::new(RegClass::Int, 1)));
        assert!(regs.contains(&PhysReg::new(RegClass::Fp, 2)));
    }
}
