//! # PIR — the PATA intermediate representation
//!
//! PIR is a small, typed, LLVM-like intermediate representation that serves
//! as the substrate for the PATA analysis framework (ASPLOS'22). The paper
//! analyzes LLVM bytecode produced by Clang; PIR models exactly the
//! instruction subset the analysis inspects (§3.1 of the paper):
//!
//! * `MOVE`  (`v1 = v2`)        — [`InstKind::Move`]
//! * `STORE` (`*v2 = v1`)       — [`InstKind::Store`]
//! * `LOAD`  (`v1 = *v2`)       — [`InstKind::Load`]
//! * `GEP`   (`v1 = &v2->f`)    — [`InstKind::Gep`]
//!
//! plus calls, branches, arithmetic/comparison, heap and lock operations
//! needed by the six typestate checkers (null-pointer dereference,
//! uninitialized-variable access, memory leak, double lock/unlock,
//! array-index underflow and division by zero).
//!
//! A [`Module`] owns functions, global variables, struct definitions, source
//! file metadata and an interner for identifiers. Each [`Function`] is a
//! control-flow graph of [`Block`]s; every instruction carries a source
//! [`Loc`] so that bug reports point at mini-C source lines.
//!
//! # Example
//!
//! ```
//! use pata_ir::{Module, FunctionBuilder, Type};
//!
//! let mut module = Module::new();
//! let file = module.add_file("demo.c");
//! let mut b = FunctionBuilder::new(&mut module, "demo", file);
//! let p = b.param("p", Type::ptr(Type::Int));
//! let t = b.local("t", Type::Int);
//! b.load(t, p, 3);
//! b.ret(None, 4);
//! let func = b.finish();
//! assert_eq!(module.function(func).name(), "demo");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cfg;
mod function;
mod inst;
mod intern;
mod module;
mod printer;
mod types;
mod verify;

pub use builder::{BuildBuffers, FunctionBuilder};
pub use cfg::{Cfg, ReversePostorder};
pub use function::{Block, BlockId, Function, VarId, VarInfo, VarKind};
pub use inst::{BinOp, Callee, CmpOp, ConstVal, Inst, InstId, InstKind, Loc, Operand, Terminator};
pub use intern::{Interner, Symbol};
pub use module::{
    Category, DetachedFunctions, FileId, FuncId, Module, SourceFile, StructDef, StructId,
};
pub use printer::{function_text, print_module};
pub use types::Type;
pub use verify::{verify_function, verify_module, VerifyError};
