//! Instruction-set architecture for the cluster-based VLIW video signal
//! processor (VSP) studied in *"Datapath Design for a VLIW Video Signal
//! Processor"* (HPCA 1997).
//!
//! The machine executes one *very long instruction word* per cycle. Each
//! word contains one [`Operation`] per issue slot of every cluster; all
//! operations in a word issue together. Operations work on 16-bit signed
//! integers (the only native data type of the paper's machine), may be
//! guarded by a predicate register, and access cluster-local register
//! files, predicate files and local data memories. Values move between
//! clusters only through explicit crossbar transfer operations.
//!
//! This crate defines:
//!
//! * operand and register types ([`Reg`], [`Pred`], [`Operand`],
//!   [`AddrMode`]) — see [`reg`] and [`operand`],
//! * the operation set ([`OpKind`], [`Operation`]) and its functional-unit
//!   classification ([`FuClass`]) — see [`op`] and [`opcode`],
//! * VLIW instruction words and whole programs ([`Instruction`],
//!   [`Program`]) — see [`instr`] and [`program`],
//! * pure arithmetic semantics shared by the simulator and golden models —
//!   see [`semantics`],
//! * a human-readable assembly format with parser and printer — see
//!   [`asm`].
//!
//! # Example
//!
//! ```
//! use vsp_isa::{Program, Operation, OpKind, AluBinOp, Reg, Operand};
//!
//! let mut program = Program::new("axpy");
//! let add = Operation::new(
//!     0, // cluster
//!     0, // issue slot
//!     OpKind::AluBin { op: AluBinOp::Add, dst: Reg(2), a: Operand::Reg(Reg(0)), b: Operand::Reg(Reg(1)) },
//! );
//! program.push_word(vec![add]);
//! assert_eq!(program.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod instr;
pub mod op;
pub mod opcode;
pub mod operand;
pub mod program;
pub mod reg;
pub mod semantics;

pub use instr::Instruction;
pub use op::{OpKind, Operation, PredGuard, UseRegs};
pub use opcode::{AluBinOp, AluUnOp, CmpOp, FuClass, MemCtlOp, MulKind, ShiftOp};
pub use operand::{AddrMode, MemBank, Operand};
pub use program::{Program, ProgramBuilder};
pub use reg::{ClusterId, Pred, Reg, SlotId};
