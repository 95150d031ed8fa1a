use ppa_isa::RegClass;
use std::fmt;

/// A physical register: class plus index within the class's bank.
///
/// # Examples
///
/// ```
/// use ppa_core::PhysReg;
/// use ppa_isa::RegClass;
///
/// let p = PhysReg::new(RegClass::Int, 5);
/// assert_eq!(p.to_string(), "pi5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg {
    class: RegClass,
    index: u16,
}

impl PhysReg {
    /// Creates a physical register identifier.
    pub const fn new(class: RegClass, index: u16) -> Self {
        PhysReg { class, index }
    }

    /// The register's bank.
    pub const fn class(self) -> RegClass {
        self.class
    }

    /// The register's index within its bank.
    pub const fn index(self) -> u16 {
        self.index
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "pi{}", self.index),
            RegClass::Fp => write!(f, "pf{}", self.index),
        }
    }
}

#[derive(Debug, Clone)]
struct Bank {
    values: Vec<u64>,
    /// Cycle at which the register's value becomes available; `0` for
    /// architectural/initial values.
    ready_at: Vec<u64>,
    free: Vec<u16>,
    allocated: Vec<bool>,
}

impl Bank {
    fn new(size: usize) -> Self {
        Bank {
            values: vec![0; size],
            ready_at: vec![0; size],
            // Free list as a stack; lowest indices allocated first.
            free: (0..size as u16).rev().collect(),
            allocated: vec![false; size],
        }
    }
}

/// The unified physical register file: an integer bank and an FP bank,
/// each with a free list, per-register values, and readiness times.
///
/// Values are "as observed at memory operations": loads deposit the loaded
/// word, and stores back-annotate their data register with the stored
/// value (ALU semantics are not modelled). This is exactly the set of
/// values PPA's recovery needs, since replay only ever reads store data
/// registers.
///
/// # Examples
///
/// ```
/// use ppa_core::Prf;
/// use ppa_isa::RegClass;
///
/// let mut prf = Prf::new(180, 168);
/// assert_eq!(prf.free_count(RegClass::Int), 180);
/// let p = prf.allocate(RegClass::Int, 10).expect("has free registers");
/// assert_eq!(prf.free_count(RegClass::Int), 179);
/// prf.free(p);
/// assert_eq!(prf.free_count(RegClass::Int), 180);
/// ```
#[derive(Debug, Clone)]
pub struct Prf {
    int: Bank,
    fp: Bank,
}

impl Prf {
    /// Creates a PRF with the given bank sizes, all registers free.
    pub fn new(int_size: usize, fp_size: usize) -> Self {
        Prf {
            int: Bank::new(int_size),
            fp: Bank::new(fp_size),
        }
    }

    fn bank(&self, class: RegClass) -> &Bank {
        match class {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }

    fn bank_mut(&mut self, class: RegClass) -> &mut Bank {
        match class {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        }
    }

    /// Bank size for a class.
    pub fn size(&self, class: RegClass) -> usize {
        self.bank(class).values.len()
    }

    /// Number of free registers in a class — the quantity Figure 5 samples
    /// every cycle and the trigger for PPA's region boundaries.
    pub fn free_count(&self, class: RegClass) -> usize {
        self.bank(class).free.len()
    }

    /// Allocates a register from the class's free list, marking it ready
    /// at `ready_at`. Returns `None` when the free list is empty (PPA's
    /// region-boundary trigger).
    pub fn allocate(&mut self, class: RegClass, ready_at: u64) -> Option<PhysReg> {
        let bank = self.bank_mut(class);
        let idx = bank.free.pop()?;
        bank.allocated[idx as usize] = true;
        bank.ready_at[idx as usize] = ready_at;
        Some(PhysReg::new(class, idx))
    }

    /// Returns a register to its free list.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the register is already free — a
    /// double-free would corrupt renaming invariants.
    pub fn free(&mut self, reg: PhysReg) {
        let bank = self.bank_mut(reg.class());
        debug_assert!(bank.allocated[reg.index() as usize], "double free of {reg}");
        bank.allocated[reg.index() as usize] = false;
        bank.free.push(reg.index());
    }

    /// Whether the register is currently allocated.
    pub fn is_allocated(&self, reg: PhysReg) -> bool {
        self.bank(reg.class()).allocated[reg.index() as usize]
    }

    /// The register's value.
    pub fn value(&self, reg: PhysReg) -> u64 {
        self.bank(reg.class()).values[reg.index() as usize]
    }

    /// Sets the register's value (load result or store back-annotation).
    pub fn set_value(&mut self, reg: PhysReg, value: u64) {
        self.bank_mut(reg.class()).values[reg.index() as usize] = value;
    }

    /// Cycle at which the register's value is available.
    pub fn ready_at(&self, reg: PhysReg) -> u64 {
        self.bank(reg.class()).ready_at[reg.index() as usize]
    }

    /// Updates the readiness time (set when the producing op issues).
    pub fn set_ready_at(&mut self, reg: PhysReg, at: u64) {
        self.bank_mut(reg.class()).ready_at[reg.index() as usize] = at;
    }

    /// Whether the register's value is available at `now`.
    pub fn is_ready(&self, reg: PhysReg, now: u64) -> bool {
        self.ready_at(reg) <= now
    }

    /// Marks an allocated register as holding an architectural value that
    /// is immediately available (used when seeding initial mappings and
    /// when rebuilding state during power-failure recovery).
    pub fn force_architectural(&mut self, reg: PhysReg, value: u64) {
        let bank = self.bank_mut(reg.class());
        bank.values[reg.index() as usize] = value;
        bank.ready_at[reg.index() as usize] = 0;
    }

    /// Allocates a *specific* register (recovery: re-establish checkpointed
    /// mappings).
    ///
    /// # Panics
    ///
    /// Panics if the register is already allocated.
    pub fn allocate_specific(&mut self, reg: PhysReg) {
        let bank = self.bank_mut(reg.class());
        assert!(
            !bank.allocated[reg.index() as usize],
            "{reg} is already allocated"
        );
        bank.allocated[reg.index() as usize] = true;
        bank.free.retain(|&i| i != reg.index());
    }

    /// Iterator over every register of a class.
    pub fn regs(&self, class: RegClass) -> impl Iterator<Item = PhysReg> + '_ {
        (0..self.size(class) as u16).map(move |i| PhysReg::new(class, i))
    }

    /// Iterator over the class's free list, in stack order. Exposed for
    /// the verification layer's duplicate/overlap checks.
    pub fn free_regs(&self, class: RegClass) -> impl Iterator<Item = PhysReg> + '_ {
        self.bank(class)
            .free
            .iter()
            .map(move |&i| PhysReg::new(class, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_exhausts_free_list() {
        let mut prf = Prf::new(2, 2);
        assert!(prf.allocate(RegClass::Int, 0).is_some());
        assert!(prf.allocate(RegClass::Int, 0).is_some());
        assert!(prf.allocate(RegClass::Int, 0).is_none());
        assert_eq!(prf.free_count(RegClass::Int), 0);
        // FP bank unaffected.
        assert_eq!(prf.free_count(RegClass::Fp), 2);
    }

    #[test]
    fn free_returns_register_for_reuse() {
        let mut prf = Prf::new(1, 1);
        let p = prf.allocate(RegClass::Fp, 0).unwrap();
        assert!(prf.is_allocated(p));
        prf.free(p);
        assert!(!prf.is_allocated(p));
        assert_eq!(prf.allocate(RegClass::Fp, 0), Some(p));
    }

    // `Prf::free` checks for a double free with `debug_assert!`, so
    // release builds have nothing to test.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug() {
        let mut prf = Prf::new(1, 1);
        let p = prf.allocate(RegClass::Int, 0).unwrap();
        prf.free(p);
        prf.free(p);
    }

    #[test]
    fn values_and_readiness() {
        let mut prf = Prf::new(4, 4);
        let p = prf.allocate(RegClass::Int, 100).unwrap();
        assert!(!prf.is_ready(p, 99));
        assert!(prf.is_ready(p, 100));
        prf.set_value(p, 42);
        assert_eq!(prf.value(p), 42);
        prf.set_ready_at(p, 200);
        assert!(!prf.is_ready(p, 150));
    }

    #[test]
    fn allocate_specific_removes_from_free_list() {
        let mut prf = Prf::new(4, 4);
        let target = PhysReg::new(RegClass::Int, 2);
        prf.allocate_specific(target);
        assert!(prf.is_allocated(target));
        assert_eq!(prf.free_count(RegClass::Int), 3);
        // The specific register is never handed out again.
        for _ in 0..3 {
            assert_ne!(prf.allocate(RegClass::Int, 0), Some(target));
        }
        assert!(prf.allocate(RegClass::Int, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn allocate_specific_twice_panics() {
        let mut prf = Prf::new(4, 4);
        let target = PhysReg::new(RegClass::Int, 2);
        prf.allocate_specific(target);
        prf.allocate_specific(target);
    }

    #[test]
    fn force_architectural_is_immediately_ready() {
        let mut prf = Prf::new(2, 2);
        let p = prf.allocate(RegClass::Int, 500).unwrap();
        prf.force_architectural(p, 9);
        assert!(prf.is_ready(p, 0));
        assert_eq!(prf.value(p), 9);
    }
}
