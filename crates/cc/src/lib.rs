//! # pata-cc — a mini-C front-end for the PATA pipeline
//!
//! The paper's phase P1 compiles OS source with Clang 9 into LLVM bytecode
//! and records function information in a database for cross-file
//! interprocedural analysis (§4). This crate plays that role for *mini-C*,
//! a C subset rich enough to express every pattern the paper's analysis and
//! case studies rely on:
//!
//! * structs with named fields, pointers, arrays and globals;
//! * field access chains (`model->user_data`, `(&obj->knl_obj)->type`);
//! * `if`/`else`, `while`, `for`, `goto`/labels, `break`/`continue`,
//!   short-circuit `&&`/`||`;
//! * calls, address-of, dereference;
//! * OS idioms: `malloc`/`kmalloc`/`kzalloc`/`free`/`kfree`, `memset`,
//!   `spin_lock`/`spin_unlock`/`mutex_lock`/`mutex_unlock`;
//! * **function-pointer registration structs** (`.probe = s5p_mfc_probe`)
//!   that create *module interface functions* with no explicit caller —
//!   the pattern behind the paper's difficulty D1.
//!
//! All added sources are compiled into one [`pata_ir::Module`], so direct
//! calls resolve across files exactly as PATA's information collector
//! enables.
//!
//! # Example
//!
//! ```
//! use pata_cc::Compiler;
//!
//! let mut cc = Compiler::new();
//! cc.add_source(
//!     "demo.c",
//!     r#"
//!     struct dev { int *data; };
//!     int read_dev(struct dev *d) {
//!         if (d->data == NULL)
//!             return -1;
//!         return *d->data;
//!     }
//!     "#,
//! );
//! let module = cc.compile().expect("compiles");
//! assert!(module.function_by_name("read_dev").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod diag;
mod lexer;
mod lower;
mod parser;
mod token;

pub use ast::*;
pub use diag::{Diag, DiagKind};
pub use lexer::Lexer;
pub use lower::Compiler;
pub use parser::{Parser, MAX_NESTING};
pub use token::{Token, TokenKind};

/// Compiles a single mini-C source string into a fresh module.
///
/// Convenience wrapper over [`Compiler`] for tests and examples.
///
/// # Errors
///
/// Returns the accumulated diagnostics if the source does not parse or
/// lower cleanly.
pub fn compile_one(name: &str, source: &str) -> Result<pata_ir::Module, Vec<Diag>> {
    let mut cc = Compiler::new();
    cc.add_source(name, source);
    cc.compile()
}
