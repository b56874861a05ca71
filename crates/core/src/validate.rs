//! Structural validation of programs against a machine.
//!
//! A VLIW program is only meaningful for the machine it was scheduled for:
//! every word must respect slot capabilities, register-file and predicate
//! bounds, addressing-mode support, multiplier width, crossbar port
//! limits and memory-bank bindings. This module replays each word through
//! a [`CycleReservation`] and checks all operand encodings.

use crate::config::{BankBinding, MachineConfig};
use crate::resources::{CycleReservation, ReserveError};
use std::fmt;
use vsp_isa::{AddrMode, AluBinOp, MulKind, OpKind, Operand, Program};

/// A structural violation found in a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Instruction-word index.
    pub word: usize,
    /// Description of the violation.
    pub kind: ViolationKind,
}

/// The kinds of structural violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// Resource/placement violation (slot, crossbar, bank).
    Resource(ReserveError),
    /// Register index out of range for the cluster register file.
    RegOutOfRange(u16),
    /// Predicate index out of range for the cluster predicate file.
    PredOutOfRange(u8),
    /// Addressing mode not supported by this machine.
    UnsupportedAddressing(AddrMode),
    /// Wide multiply on a machine without the 16-bit multiplier.
    WideMulUnsupported(MulKind),
    /// Absolute-difference operation on a machine without the operator.
    AbsDiffUnsupported,
    /// Branch or jump target outside the program.
    BadTarget(usize),
    /// Program exceeds the instruction cache ("all critical loops must
    /// fit into the cache"); reported when `require_icache_fit` is set.
    IcacheOverflow {
        /// Program length in words.
        words: usize,
        /// Cache capacity in words.
        capacity: u32,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "word {}: ", self.word)?;
        match &self.kind {
            ViolationKind::Resource(e) => write!(f, "{e}"),
            ViolationKind::RegOutOfRange(r) => write!(f, "register r{r} out of range"),
            ViolationKind::PredOutOfRange(p) => write!(f, "predicate p{p} out of range"),
            ViolationKind::UnsupportedAddressing(a) => {
                write!(f, "addressing mode {a} not supported")
            }
            ViolationKind::WideMulUnsupported(k) => {
                write!(f, "{k} requires the 16-bit multiplier")
            }
            ViolationKind::AbsDiffUnsupported => {
                write!(f, "absd requires the absolute-difference operator")
            }
            ViolationKind::BadTarget(t) => write!(f, "control target {t} out of range"),
            ViolationKind::IcacheOverflow { words, capacity } => {
                write!(f, "program of {words} words exceeds {capacity}-word icache")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Options for [`validate_program`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateOptions {
    /// Also require the whole program to fit in the instruction cache.
    pub require_icache_fit: bool,
}

/// Validates a program against a machine.
///
/// ```
/// use vsp_core::{models, validate_program};
/// use vsp_isa::{AluUnOp, OpKind, Operand, Operation, Program, Reg};
///
/// let machine = models::i2c16s4(); // 64 registers per cluster
/// let mut p = Program::new("demo");
/// p.push_word(vec![Operation::new(0, 0, OpKind::AluUn {
///     op: AluUnOp::Mov, dst: Reg(99), a: Operand::Imm(1),
/// })]);
/// // Register 99 does not exist on the narrow clusters.
/// let errors = validate_program(&machine, &p).unwrap_err();
/// assert_eq!(errors[0].word, 0);
/// // The wide machine has 128 registers, so the same program is fine.
/// assert!(validate_program(&models::i4c8s4(), &p).is_ok());
/// ```
///
/// # Errors
///
/// Returns every structural violation found (empty `Ok(())` means the
/// program can execute on the machine).
pub fn validate_program(
    machine: &MachineConfig,
    program: &Program,
) -> Result<(), Vec<ValidationError>> {
    validate_program_with(machine, program, ValidateOptions::default())
}

/// Validates a program with explicit options.
///
/// # Errors
///
/// Returns every structural violation found.
pub fn validate_program_with(
    machine: &MachineConfig,
    program: &Program,
    options: ValidateOptions,
) -> Result<(), Vec<ValidationError>> {
    let mut errors = Vec::new();
    let regs = machine.cluster.registers;
    let preds = machine.cluster.pred_regs;

    if options.require_icache_fit && program.len() > machine.icache_words as usize {
        errors.push(ValidationError {
            word: 0,
            kind: ViolationKind::IcacheOverflow {
                words: program.len(),
                capacity: machine.icache_words,
            },
        });
    }

    // One reservation serves every word: each word's reserved ops are
    // released from it once the word is checked, leaving it empty.
    let mut cycle = CycleReservation::new(machine);
    let mut reserved = Vec::with_capacity(machine.peak_ops_per_cycle() as usize);
    for (w, word) in program.iter().enumerate() {
        for op in word.iter() {
            let err = |kind: ViolationKind| ValidationError { word: w, kind };

            if let Err(e) = cycle.try_reserve(machine, op) {
                errors.push(err(ViolationKind::Resource(e)));
                continue;
            }
            reserved.push(op);

            let check_reg = |r: u16, errors: &mut Vec<ValidationError>| {
                if u32::from(r) >= regs {
                    errors.push(err(ViolationKind::RegOutOfRange(r)));
                }
            };

            if let Some(d) = op.kind.def_reg() {
                check_reg(d.0, &mut errors);
            }
            for u in op.kind.use_regs() {
                check_reg(u.0, &mut errors);
            }
            if let OpKind::Xfer { src, .. } = &op.kind {
                check_reg(src.0, &mut errors);
            }
            if let Some(p) = op.kind.def_pred() {
                if u32::from(p.0) >= preds {
                    errors.push(err(ViolationKind::PredOutOfRange(p.0)));
                }
            }
            if let Some(g) = &op.guard {
                if u32::from(g.pred.0) >= preds {
                    errors.push(err(ViolationKind::PredOutOfRange(g.pred.0)));
                }
            }

            match &op.kind {
                OpKind::Load { addr, .. } | OpKind::Store { addr, .. }
                    if !machine.supports_addr(*addr) =>
                {
                    errors.push(err(ViolationKind::UnsupportedAddressing(*addr)));
                }
                OpKind::Mul { kind, .. }
                    if kind.is_wide() && machine.mul_width == crate::config::MulWidth::Eight =>
                {
                    errors.push(err(ViolationKind::WideMulUnsupported(*kind)));
                }
                OpKind::AluBin {
                    op: AluBinOp::AbsDiff,
                    ..
                } if !machine.has_absdiff => {
                    errors.push(err(ViolationKind::AbsDiffUnsupported));
                }
                OpKind::Branch { pred, target, .. } => {
                    if u32::from(pred.0) >= preds {
                        errors.push(err(ViolationKind::PredOutOfRange(pred.0)));
                    }
                    if *target >= program.len() {
                        errors.push(err(ViolationKind::BadTarget(*target)));
                    }
                }
                OpKind::Jump { target } if *target >= program.len() => {
                    errors.push(err(ViolationKind::BadTarget(*target)));
                }
                OpKind::Cmp { a, b, .. } => {
                    // operand regs already checked through use_regs
                    let _ = (a, b);
                }
                _ => {}
            }

            // Immediates are always 16-bit; Operand::Imm cannot overflow by
            // construction, but register operands inside composite operands
            // were covered above.
            let _ = Operand::Imm(0);
        }
        for op in reserved.drain(..) {
            cycle.release(op);
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// A structural defect in a *machine configuration* — the
/// config-level counterpart of [`ValidationError`], for generated
/// design-space points that must be rejected before they reach the
/// scheduler (whose resource model assumes a sane machine) or the VLSI
/// cost model (whose component constructors assert on out-of-range
/// inputs rather than returning errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// No clusters at all.
    NoClusters,
    /// A cluster with no issue slots.
    NoSlots,
    /// A cluster with more issue slots than a [`CycleReservation`]'s
    /// occupancy mask holds next to the control slot
    /// ([`CycleReservation::MAX_SLOTS`]).
    TooManySlots(u32),
    /// No slot can issue the given class (every runnable machine needs
    /// at least ALU and memory capability).
    MissingCapability(vsp_isa::FuClass),
    /// No general registers.
    NoRegisters,
    /// No predicate registers (if-conversion has nowhere to live).
    NoPredRegs,
    /// No local data-memory banks.
    NoBanks,
    /// A bank with zero capacity.
    EmptyBank,
    /// Bank port count outside the modeled SRAM families (1 or 2;
    /// `SramDesign::new` panics beyond the family limit).
    BankPortsUnsupported(u32),
    /// Per-slot bank binding with a bank count that does not match the
    /// memory-capable slot count.
    PerSlotBindingMismatch {
        /// Banks configured.
        banks: u32,
        /// Memory-capable slots the binding must cover.
        mem_slots: u32,
    },
    /// More than one cluster but no way to exchange data (no crossbar
    /// ports or no transfer-capable slot).
    IsolatedClusters,
    /// Pipeline depth outside the modeled 4/5-stage organizations.
    BadPipelineStages(u32),
    /// Explicit register-file ports-per-slot outside the modeled range
    /// (3–6: the paper's standard allocation up to the Fig. 2 curve's
    /// modeled maximum).
    RfPortsOutOfRange(u32),
    /// No instruction cache ("all critical loops must fit into the
    /// cache" — a zero-word cache fits nothing).
    NoIcache,
}

impl ConfigError {
    /// Stable snake-case label for metrics and prune reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ConfigError::NoClusters => "no_clusters",
            ConfigError::NoSlots => "no_slots",
            ConfigError::TooManySlots(_) => "too_many_slots",
            ConfigError::MissingCapability(_) => "missing_capability",
            ConfigError::NoRegisters => "no_registers",
            ConfigError::NoPredRegs => "no_pred_regs",
            ConfigError::NoBanks => "no_banks",
            ConfigError::EmptyBank => "empty_bank",
            ConfigError::BankPortsUnsupported(_) => "bank_ports_unsupported",
            ConfigError::PerSlotBindingMismatch { .. } => "per_slot_binding_mismatch",
            ConfigError::IsolatedClusters => "isolated_clusters",
            ConfigError::BadPipelineStages(_) => "bad_pipeline_stages",
            ConfigError::RfPortsOutOfRange(_) => "rf_ports_out_of_range",
            ConfigError::NoIcache => "no_icache",
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoClusters => write!(f, "machine has no clusters"),
            ConfigError::NoSlots => write!(f, "cluster has no issue slots"),
            ConfigError::TooManySlots(n) => write!(
                f,
                "{n} issue slots per cluster (at most {} fit beside the control slot)",
                CycleReservation::MAX_SLOTS
            ),
            ConfigError::MissingCapability(c) => {
                write!(f, "no issue slot can launch {c} operations")
            }
            ConfigError::NoRegisters => write!(f, "cluster has no general registers"),
            ConfigError::NoPredRegs => write!(f, "cluster has no predicate registers"),
            ConfigError::NoBanks => write!(f, "cluster has no data-memory banks"),
            ConfigError::EmptyBank => write!(f, "data-memory bank has zero capacity"),
            ConfigError::BankPortsUnsupported(p) => {
                write!(f, "{p} bank ports (modeled SRAM families offer 1 or 2)")
            }
            ConfigError::PerSlotBindingMismatch { banks, mem_slots } => write!(
                f,
                "per-slot binding needs one bank per memory slot ({banks} banks, {mem_slots} memory slots)"
            ),
            ConfigError::IsolatedClusters => {
                write!(f, "multiple clusters with no transfer path between them")
            }
            ConfigError::BadPipelineStages(s) => {
                write!(f, "{s}-stage pipeline (modeled organizations are 4 and 5)")
            }
            ConfigError::RfPortsOutOfRange(p) => {
                write!(f, "{p} register-file ports per slot (modeled range is 3-6)")
            }
            ConfigError::NoIcache => write!(f, "machine has no instruction cache"),
        }
    }
}

/// Validates a machine configuration's structure, rejecting points a
/// design-space sweep can generate but nothing downstream can consume.
///
/// Every defect found is returned, so a prune report can count
/// rejection classes in one pass.
///
/// ```
/// use vsp_core::{models, validate_config};
///
/// assert!(validate_config(&models::i4c8s4()).is_ok());
/// let mut broken = models::i4c8s4();
/// broken.cluster.registers = 0;
/// assert!(validate_config(&broken).is_err());
/// ```
///
/// # Errors
///
/// Returns every [`ConfigError`] found (empty `Ok(())` means the
/// machine can be scheduled for and costed).
pub fn validate_config(machine: &MachineConfig) -> Result<(), Vec<ConfigError>> {
    use vsp_isa::FuClass;
    let mut errors = Vec::new();
    let cluster = &machine.cluster;
    if machine.clusters == 0 {
        errors.push(ConfigError::NoClusters);
    }
    if cluster.slots.is_empty() {
        errors.push(ConfigError::NoSlots);
    } else {
        if cluster.slot_count() > CycleReservation::MAX_SLOTS {
            errors.push(ConfigError::TooManySlots(cluster.slot_count()));
        }
        for class in [FuClass::Alu, FuClass::Mem] {
            if cluster.capacity(class) == 0 {
                errors.push(ConfigError::MissingCapability(class));
            }
        }
    }
    if cluster.registers == 0 {
        errors.push(ConfigError::NoRegisters);
    }
    if cluster.pred_regs == 0 {
        errors.push(ConfigError::NoPredRegs);
    }
    if cluster.banks.is_empty() {
        errors.push(ConfigError::NoBanks);
    }
    for bank in &cluster.banks {
        if bank.words == 0 {
            errors.push(ConfigError::EmptyBank);
            break;
        }
    }
    if let Some(bad) = cluster
        .banks
        .iter()
        .map(|b| b.ports)
        .find(|&p| p == 0 || p > 2)
    {
        errors.push(ConfigError::BankPortsUnsupported(bad));
    }
    let mem_slots = cluster.capacity(FuClass::Mem);
    if cluster.bank_binding == BankBinding::PerSlot && cluster.banks.len() as u32 != mem_slots {
        errors.push(ConfigError::PerSlotBindingMismatch {
            banks: cluster.banks.len() as u32,
            mem_slots,
        });
    }
    if machine.clusters > 1 && (cluster.xbar_ports == 0 || cluster.capacity(FuClass::Xfer) == 0) {
        errors.push(ConfigError::IsolatedClusters);
    }
    if !(4..=5).contains(&machine.pipeline.stages) {
        errors.push(ConfigError::BadPipelineStages(machine.pipeline.stages));
    }
    if let Some(ports) = cluster.rf_ports_per_slot {
        if !(3..=6).contains(&ports) {
            errors.push(ConfigError::RfPortsOutOfRange(ports));
        }
    }
    if machine.icache_words == 0 {
        errors.push(ConfigError::NoIcache);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use vsp_isa::{AddrMode, AluBinOp, MemBank, Operand, Operation, Pred, Reg};

    fn program_of(ops: Vec<Operation>) -> Program {
        let mut p = Program::new("t");
        p.push_word(ops);
        p
    }

    fn add(dst: u16, a: u16) -> Operation {
        Operation::new(
            0,
            0,
            OpKind::AluBin {
                op: AluBinOp::Add,
                dst: Reg(dst),
                a: Operand::Reg(Reg(a)),
                b: Operand::Imm(1),
            },
        )
    }

    #[test]
    fn valid_program_passes() {
        let m = models::i4c8s4();
        let p = program_of(vec![add(1, 0)]);
        validate_program(&m, &p).unwrap();
    }

    #[test]
    fn register_bounds() {
        let m = models::i2c16s4(); // 64 registers
        let p = program_of(vec![add(64, 0)]);
        let errs = validate_program(&m, &p).unwrap_err();
        assert!(matches!(errs[0].kind, ViolationKind::RegOutOfRange(64)));
        // 128 registers on the wide machine: fine.
        validate_program(&models::i4c8s4(), &p).unwrap();
    }

    #[test]
    fn predicate_bounds() {
        let m = models::i4c8s4();
        let op = Operation::new(
            0,
            0,
            OpKind::Cmp {
                op: vsp_isa::CmpOp::Lt,
                dst: Pred(9),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(0),
            },
        );
        let errs = validate_program(&m, &program_of(vec![op])).unwrap_err();
        assert!(matches!(errs[0].kind, ViolationKind::PredOutOfRange(9)));

        // A branch's predicate is checked too.
        let (bc, bs) = m.branch_slot();
        let branch = Operation::new(
            bc,
            bs,
            OpKind::Branch {
                pred: Pred(9),
                sense: true,
                target: 0,
            },
        );
        let errs = validate_program(&m, &program_of(vec![branch])).unwrap_err();
        assert!(matches!(errs[0].kind, ViolationKind::PredOutOfRange(9)));
    }

    #[test]
    fn addressing_mode_support() {
        let ld = Operation::new(
            0,
            2,
            OpKind::Load {
                dst: Reg(1),
                addr: AddrMode::BaseDisp(Reg(0), 4),
                bank: MemBank(0),
            },
        );
        let p = program_of(vec![ld]);
        // Simple-addressing machine rejects base+displacement...
        let errs = validate_program(&models::i4c8s4(), &p).unwrap_err();
        assert!(matches!(
            errs[0].kind,
            ViolationKind::UnsupportedAddressing(_)
        ));
        // ...complex-addressing machines accept it.
        validate_program(&models::i4c8s4c(), &p).unwrap();
        validate_program(&models::i4c8s5(), &p).unwrap();
    }

    #[test]
    fn wide_multiply_needs_m16() {
        let mul = Operation::new(
            0,
            0,
            OpKind::Mul {
                kind: MulKind::Mul16Lo,
                dst: Reg(1),
                a: Operand::Reg(Reg(2)),
                b: Operand::Reg(Reg(3)),
            },
        );
        let p = program_of(vec![mul]);
        let errs = validate_program(&models::i4c8s5(), &p).unwrap_err();
        assert!(matches!(
            errs[0].kind,
            ViolationKind::WideMulUnsupported(MulKind::Mul16Lo)
        ));
        validate_program(&models::i4c8s5m16(), &p).unwrap();
    }

    #[test]
    fn absdiff_needs_the_operator() {
        let op = Operation::new(
            0,
            0,
            OpKind::AluBin {
                op: AluBinOp::AbsDiff,
                dst: Reg(1),
                a: Operand::Reg(Reg(2)),
                b: Operand::Reg(Reg(3)),
            },
        );
        let p = program_of(vec![op]);
        let errs = validate_program(&models::i4c8s4(), &p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e.kind, ViolationKind::AbsDiffUnsupported)));
        validate_program(&models::with_absdiff(models::i4c8s4()), &p).unwrap();
    }

    #[test]
    fn bad_targets_detected() {
        let m = models::i4c8s4();
        let p = program_of(vec![Operation::new(0, 4, OpKind::Jump { target: 10 })]);
        let errs = validate_program(&m, &p).unwrap_err();
        assert!(matches!(errs[0].kind, ViolationKind::BadTarget(10)));
    }

    #[test]
    fn icache_fit_option() {
        let m = models::i2c16s4(); // 512-word icache
        let mut p = Program::new("big");
        for _ in 0..600 {
            p.push_word(vec![add(1, 0)]);
        }
        validate_program(&m, &p).unwrap();
        let errs = validate_program_with(
            &m,
            &p,
            ValidateOptions {
                require_icache_fit: true,
            },
        )
        .unwrap_err();
        assert!(matches!(
            errs[0].kind,
            ViolationKind::IcacheOverflow { words: 600, .. }
        ));
    }

    #[test]
    fn resource_violations_surface() {
        let m = models::i4c8s4();
        // Two memory operations in one word on a one-LSU cluster.
        let ld0 = Operation::new(
            0,
            2,
            OpKind::Load {
                dst: Reg(1),
                addr: AddrMode::Absolute(0),
                bank: MemBank(0),
            },
        );
        let ld1 = Operation::new(
            0,
            3,
            OpKind::Load {
                dst: Reg(2),
                addr: AddrMode::Absolute(1),
                bank: MemBank(0),
            },
        );
        let errs = validate_program(&m, &program_of(vec![ld0, ld1])).unwrap_err();
        assert!(matches!(errs[0].kind, ViolationKind::Resource(_)));
    }

    #[test]
    fn xfer_remote_register_checked() {
        let m = models::i2c16s4(); // 64 registers
        let op = Operation::new(
            0,
            0,
            OpKind::Xfer {
                dst: Reg(1),
                from: 3,
                src: Reg(200),
            },
        );
        let errs = validate_program(&m, &program_of(vec![op])).unwrap_err();
        assert!(matches!(errs[0].kind, ViolationKind::RegOutOfRange(200)));
    }

    // --- validate_config: one test per rejection class ---

    fn has(errs: &[ConfigError], wanted: &ConfigError) -> bool {
        errs.iter().any(|e| e == wanted)
    }

    #[test]
    fn config_paper_models_all_validate() {
        for m in crate::models::all_models() {
            assert!(validate_config(&m).is_ok(), "{}", m.name);
        }
    }

    #[test]
    fn config_rejects_no_clusters() {
        let mut m = models::i4c8s4();
        m.clusters = 0;
        let errs = validate_config(&m).unwrap_err();
        assert!(has(&errs, &ConfigError::NoClusters));
        assert_eq!(errs[0].label(), "no_clusters");
    }

    #[test]
    fn config_rejects_no_slots() {
        let mut m = models::i4c8s4();
        m.cluster.slots.clear();
        let errs = validate_config(&m).unwrap_err();
        assert!(has(&errs, &ConfigError::NoSlots));
    }

    #[test]
    fn config_rejects_clusters_wider_than_a_reservation_mask() {
        let mut m = models::i4c8s4();
        let widest = CycleReservation::MAX_SLOTS as usize;
        m.cluster.slots.resize(widest, m.cluster.slots[0]);
        assert!(validate_config(&m).is_ok());
        m.cluster.slots.push(m.cluster.slots[0]);
        let errs = validate_config(&m).unwrap_err();
        assert_eq!(errs, vec![ConfigError::TooManySlots(32)]);
        assert_eq!(errs[0].label(), "too_many_slots");
        assert_eq!(
            errs[0].to_string(),
            "32 issue slots per cluster (at most 31 fit beside the control slot)"
        );
    }

    #[test]
    fn config_rejects_missing_capabilities() {
        let mut m = models::i4c8s4();
        // Strip memory capability from every slot: nothing can load.
        m.cluster.slots = vec![crate::config::FuSet::of(&[
            vsp_isa::FuClass::Alu,
            vsp_isa::FuClass::Xfer,
        ])];
        let errs = validate_config(&m).unwrap_err();
        assert!(has(
            &errs,
            &ConfigError::MissingCapability(vsp_isa::FuClass::Mem)
        ));
    }

    #[test]
    fn config_rejects_zero_registers_and_preds() {
        let mut m = models::i4c8s4();
        m.cluster.registers = 0;
        m.cluster.pred_regs = 0;
        let errs = validate_config(&m).unwrap_err();
        assert!(has(&errs, &ConfigError::NoRegisters));
        assert!(has(&errs, &ConfigError::NoPredRegs));
    }

    #[test]
    fn config_rejects_bankless_and_empty_banks() {
        let mut m = models::i4c8s4();
        m.cluster.banks.clear();
        assert!(has(
            &validate_config(&m).unwrap_err(),
            &ConfigError::NoBanks
        ));
        let mut m = models::i4c8s4();
        m.cluster.banks[0].words = 0;
        assert!(has(
            &validate_config(&m).unwrap_err(),
            &ConfigError::EmptyBank
        ));
    }

    #[test]
    fn config_rejects_unmodeled_bank_ports() {
        let mut m = models::i4c8s4();
        m.cluster.banks[0].ports = 3;
        let errs = validate_config(&m).unwrap_err();
        assert!(has(&errs, &ConfigError::BankPortsUnsupported(3)));
        // The rejection exists precisely because SramDesign::new would
        // panic on this spec; 2 ports (the §3.4.1 ablation) is fine.
        m.cluster.banks[0].ports = 2;
        assert!(validate_config(&m).is_ok());
    }

    #[test]
    fn config_rejects_per_slot_binding_mismatch() {
        let mut m = models::i2c16s4();
        m.cluster.banks.pop(); // 2 memory slots, now 1 bank
        let errs = validate_config(&m).unwrap_err();
        assert!(has(
            &errs,
            &ConfigError::PerSlotBindingMismatch {
                banks: 1,
                mem_slots: 2
            }
        ));
    }

    #[test]
    fn config_rejects_isolated_clusters() {
        let mut m = models::i4c8s4();
        m.cluster.xbar_ports = 0;
        let errs = validate_config(&m).unwrap_err();
        assert!(has(&errs, &ConfigError::IsolatedClusters));
        // A single-cluster machine needs no crossbar at all.
        m.clusters = 1;
        assert!(validate_config(&m).is_ok());
    }

    #[test]
    fn config_rejects_unmodeled_pipeline_depths() {
        let mut m = models::i4c8s4();
        m.pipeline.stages = 7;
        let errs = validate_config(&m).unwrap_err();
        assert!(has(&errs, &ConfigError::BadPipelineStages(7)));
    }

    #[test]
    fn config_rejects_rf_ports_off_the_curve() {
        let mut m = models::i4c8s4();
        m.cluster.rf_ports_per_slot = Some(9);
        let errs = validate_config(&m).unwrap_err();
        assert!(has(&errs, &ConfigError::RfPortsOutOfRange(9)));
        m.cluster.rf_ports_per_slot = Some(4);
        assert!(validate_config(&m).is_ok());
    }

    #[test]
    fn config_rejects_zero_icache() {
        let mut m = models::i4c8s4();
        m.icache_words = 0;
        let errs = validate_config(&m).unwrap_err();
        assert!(has(&errs, &ConfigError::NoIcache));
    }
}
