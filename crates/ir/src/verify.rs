//! Structural verification of PIR modules.
//!
//! The mini-C lowering and the corpus generator both produce PIR; the
//! verifier catches malformed IR early (dangling block targets, variables
//! used across functions without call linkage, unterminated reachable
//! blocks) so analysis bugs are not chased into the front-end.

use crate::cfg::Cfg;
use crate::function::{Function, VarKind};
use crate::inst::Terminator;
use crate::module::Module;
use std::fmt;

/// A structural defect found by verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A terminator targets a block id outside the function.
    BadBlockTarget {
        /// Offending function name.
        func: String,
        /// Source block index.
        block: usize,
        /// The out-of-range target index.
        target: usize,
    },
    /// A reachable block still has the builder's placeholder terminator.
    UnterminatedBlock {
        /// Offending function name.
        func: String,
        /// Block index.
        block: usize,
    },
    /// An instruction references a variable owned by a different function.
    ForeignVariable {
        /// Offending function name.
        func: String,
        /// Block index.
        block: usize,
        /// Instruction index.
        inst: usize,
        /// The foreign variable's name.
        var: String,
    },
    /// A variable id is out of range for the module.
    DanglingVariable {
        /// Offending function name.
        func: String,
        /// The raw out-of-range id.
        var: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadBlockTarget {
                func,
                block,
                target,
            } => {
                write!(
                    f,
                    "function {func}: bb{block} targets nonexistent bb{target}"
                )
            }
            VerifyError::UnterminatedBlock { func, block } => {
                write!(f, "function {func}: reachable bb{block} is unterminated")
            }
            VerifyError::ForeignVariable {
                func,
                block,
                inst,
                var,
            } => {
                write!(
                    f,
                    "function {func}: bb{block}/i{inst} references foreign variable {var}"
                )
            }
            VerifyError::DanglingVariable { func, var } => {
                write!(f, "function {func}: variable id {var} out of range")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies one function, appending defects to `errors`.
pub fn verify_function(module: &Module, func: &Function, errors: &mut Vec<VerifyError>) {
    let nblocks = func.blocks().len();
    for (bi, block) in func.blocks().iter().enumerate() {
        for target in block.term.successors() {
            if target.index() >= nblocks {
                errors.push(VerifyError::BadBlockTarget {
                    func: func.name().to_owned(),
                    block: bi,
                    target: target.index(),
                });
            }
        }
    }
    // Unterminated reachable blocks: the builder leaves Unreachable; real
    // unreachable code is allowed, but the entry must flow somewhere.
    let cfg = Cfg::new(func);
    let reachable = cfg.reachable();
    for (bi, block) in func.blocks().iter().enumerate() {
        if reachable[bi] && matches!(block.term, Terminator::Unreachable) && !block.insts.is_empty()
        {
            errors.push(VerifyError::UnterminatedBlock {
                func: func.name().to_owned(),
                block: bi,
            });
        }
    }
    // Variable ownership.
    for (bi, block) in func.blocks().iter().enumerate() {
        for (ii, inst) in block.insts.iter().enumerate() {
            let mut vars = inst.kind.uses();
            if let Some(d) = inst.kind.def() {
                vars.push(d);
            }
            for v in vars {
                if v.index() >= module.var_count() {
                    errors.push(VerifyError::DanglingVariable {
                        func: func.name().to_owned(),
                        var: v.index(),
                    });
                    continue;
                }
                let info = module.var(v);
                match info.kind {
                    VarKind::Global => {}
                    _ => {
                        if info.func != Some(func.id()) {
                            errors.push(VerifyError::ForeignVariable {
                                func: func.name().to_owned(),
                                block: bi,
                                inst: ii,
                                var: info.name.to_string(),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Verifies every function in the module.
///
/// # Errors
///
/// Returns the list of all structural defects found; `Ok(())` when clean.
pub fn verify_module(module: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for func in module.functions() {
        verify_function(module, func, &mut errors);
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
    use crate::builder::FunctionBuilder;
    use crate::inst::ConstVal;
    use crate::types::Type;

    #[test]
    fn clean_function_verifies() {
        let mut m = Module::new();
        let file = m.add_file("v.c");
        let mut b = FunctionBuilder::new(&mut m, "ok", file);
        let x = b.local("x", Type::Int);
        b.assign_const(x, ConstVal::Int(1), 1);
        b.ret(None, 2);
        b.finish();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn foreign_variable_detected() {
        let mut m = Module::new();
        let file = m.add_file("v.c");
        let mut b1 = FunctionBuilder::new(&mut m, "one", file);
        let x = b1.local("x", Type::Int);
        b1.ret(None, 1);
        b1.finish();
        let mut b2 = FunctionBuilder::new(&mut m, "two", file);
        b2.assign_const(x, ConstVal::Int(1), 1); // x belongs to `one`
        b2.ret(None, 2);
        b2.finish();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::ForeignVariable { .. })));
    }

    #[test]
    fn globals_usable_everywhere() {
        let mut m = Module::new();
        let file = m.add_file("v.c");
        let g = m.add_global("g", Type::Int);
        let mut b = FunctionBuilder::new(&mut m, "f", file);
        b.assign_const(g, ConstVal::Int(1), 1);
        b.ret(None, 2);
        b.finish();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn unterminated_reachable_block_detected() {
        let mut m = Module::new();
        let file = m.add_file("v.c");
        let mut b = FunctionBuilder::new(&mut m, "f", file);
        let x = b.local("x", Type::Int);
        b.assign_const(x, ConstVal::Int(1), 1);
        // never terminated
        b.finish();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::UnterminatedBlock { .. })));
    }
}
