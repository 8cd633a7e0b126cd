//! PIR instructions, operands, terminators and source locations.
//!
//! The instruction set mirrors the LLVM subset PATA's path-based alias
//! analysis consumes (Fig. 5/6 of the paper): `MOVE`, `STORE`, `LOAD`, `GEP`
//! and calls, plus the operations that generate typestate events for the six
//! checkers (constant assignments, heap allocation and free, lock/unlock,
//! arithmetic and comparisons, array indexing).

use crate::function::{BlockId, VarId};
use crate::intern::Symbol;
use crate::module::{FileId, FuncId};
use std::fmt;

/// A source location: file plus 1-based line number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Loc {
    /// The source file the instruction was lowered from.
    pub file: FileId,
    /// 1-based line number within the file; 0 when synthesized.
    pub line: u32,
}

impl Loc {
    /// Creates a location.
    pub fn new(file: FileId, line: u32) -> Self {
        Loc { file, line }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}:{}", self.file.index(), self.line)
    }
}

/// A unique program point: function, block, and instruction index.
///
/// The terminator of a block is addressed by `inst == block.insts.len()`.
/// `InstId` is the identity used for the paper's "instruction already in
/// path" loop/recursion cut (Fig. 6, lines 32-38) and for repeated-bug
/// deduplication (§4, P3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId {
    /// The owning function.
    pub func: FuncId,
    /// The owning block within the function.
    pub block: BlockId,
    /// Index into the block's instruction list (== len for the terminator).
    pub inst: usize,
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f{}.b{}.i{}",
            self.func.index(),
            self.block.index(),
            self.inst
        )
    }
}

/// A compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstVal {
    /// An integer literal.
    Int(i64),
    /// The null pointer.
    Null,
}

impl ConstVal {
    /// The integer value this constant denotes (null is address 0).
    pub fn as_int(self) -> i64 {
        match self {
            ConstVal::Int(v) => v,
            ConstVal::Null => 0,
        }
    }
}

impl fmt::Display for ConstVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstVal::Int(v) => write!(f, "{v}"),
            ConstVal::Null => write!(f, "null"),
        }
    }
}

/// An instruction operand: a variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A variable reference.
    Var(VarId),
    /// An immediate constant.
    Const(ConstVal),
}

impl Operand {
    /// The variable, if this operand is one.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(v),
            Operand::Const(_) => None,
        }
    }

    /// The constant, if this operand is one.
    pub fn as_const(self) -> Option<ConstVal> {
        match self {
            Operand::Const(c) => Some(c),
            Operand::Var(_) => None,
        }
    }
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}

impl From<ConstVal> for Operand {
    fn from(c: ConstVal) -> Self {
        Operand::Const(c)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Const(ConstVal::Int(v))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "%{}", v.index()),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Binary arithmetic/bitwise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division — the division-by-zero checker watches the right operand.
    Div,
    /// Remainder — also watched by the division-by-zero checker.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
}

impl BinOp {
    /// Whether this operator traps on a zero right operand.
    pub fn traps_on_zero(self) -> bool {
        matches!(self, BinOp::Div | BinOp::Rem)
    }

    /// The C-like spelling of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Comparison operators producing booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpOp {
    /// The comparison that holds exactly when this one does not.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The comparison with swapped operands (`a < b` ⇔ `b > a`).
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluates the comparison on concrete integers.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// The C-like spelling of the comparison.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The target of a call instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function defined in the same module; analyzed interprocedurally.
    Direct(FuncId),
    /// An external function known only by name (e.g. `dev_err`); the
    /// analysis treats it as opaque.
    External(Symbol),
    /// A call through a function pointer; per §7 of the paper PATA does not
    /// resolve these.
    Indirect(VarId),
}

/// The payload of an instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// `dst = src` — the paper's MOVE; makes `dst` and `src` aliases.
    Move {
        /// Destination variable.
        dst: VarId,
        /// Source variable.
        src: VarId,
    },
    /// `dst = c` — constant assignment; `ass_null` / `ass_const` events.
    Const {
        /// Destination variable.
        dst: VarId,
        /// The constant assigned.
        value: ConstVal,
    },
    /// `dst = *addr` — the paper's LOAD.
    Load {
        /// Destination variable.
        dst: VarId,
        /// Dereferenced pointer.
        addr: VarId,
    },
    /// `*addr = val` — the paper's STORE.
    Store {
        /// Dereferenced destination pointer.
        addr: VarId,
        /// Stored value.
        val: Operand,
    },
    /// `dst = &base->field` — the paper's GEP (field-sensitive access).
    Gep {
        /// Destination variable.
        dst: VarId,
        /// Struct pointer being accessed.
        base: VarId,
        /// Field name.
        field: Symbol,
    },
    /// `dst = &function` — a function's address taken as a value (runtime
    /// callback registration, `d->ops = my_handler`). The paper's PATA does
    /// not resolve indirect calls (§7); this instruction enables the
    /// opt-in alias-graph-based resolution extension.
    FuncAddr {
        /// Destination pointer variable.
        dst: VarId,
        /// The referenced function.
        func: FuncId,
    },
    /// `dst = &src` — address of a variable. In the alias graph this gives
    /// `dst` a fresh node with a `*`-labeled edge to `src`'s node, so the
    /// access path `*dst` aliases `src`.
    AddrOf {
        /// Destination pointer variable.
        dst: VarId,
        /// The variable whose address is taken.
        src: VarId,
    },
    /// `dst = &base[index]` — array element address. PATA is
    /// array-insensitive (§5.2): distinct index expressions yield distinct
    /// access paths, a documented false-positive source.
    Index {
        /// Destination variable.
        dst: VarId,
        /// Array or pointer base.
        base: VarId,
        /// Element index.
        index: Operand,
    },
    /// `dst = lhs op rhs` — binary arithmetic.
    Bin {
        /// Destination variable.
        dst: VarId,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = (lhs op rhs)` — comparison producing a boolean used by a
    /// subsequent conditional branch.
    Cmp {
        /// Destination (boolean) variable.
        dst: VarId,
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// A (possibly void) call: `dst = callee(args…)`.
    Call {
        /// Destination variable for the return value, if any.
        dst: Option<VarId>,
        /// Call target.
        callee: Callee,
        /// Actual arguments.
        args: Vec<Operand>,
    },
    /// Declares a local variable at its point of declaration; generates the
    /// UVA checker's `alloc` event (uninitialized until first assignment).
    Alloca {
        /// The declared local.
        dst: VarId,
        /// `false`: the variable's own value is uninitialized (scalar or
        /// pointer local). `true`: the variable is the address of fresh,
        /// uninitialized storage (a struct-valued local) — the pointer is
        /// valid but the pointee is uninitialized.
        storage: bool,
    },
    /// `dst = malloc(…)` — heap allocation; `malloc` event for the memory
    /// leak checker, `alloc` event for UVA (heap object uninitialized).
    Malloc {
        /// Pointer receiving the fresh heap object.
        dst: VarId,
    },
    /// `free(ptr)` — heap release; `free` event for the memory-leak checker.
    Free {
        /// Pointer being freed.
        ptr: VarId,
    },
    /// `memset(ptr, …)` — initializes the pointed-to object (UVA `ass_const`).
    Memset {
        /// Pointer whose pointee becomes initialized.
        ptr: VarId,
    },
    /// Acquire a lock object (double-lock checker).
    Lock {
        /// The lock object (usually a pointer to a lock struct).
        obj: VarId,
    },
    /// Release a lock object (double-unlock checker).
    Unlock {
        /// The lock object.
        obj: VarId,
    },
}

impl InstKind {
    /// The variable defined by this instruction, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            InstKind::Move { dst, .. }
            | InstKind::Const { dst, .. }
            | InstKind::Load { dst, .. }
            | InstKind::Gep { dst, .. }
            | InstKind::AddrOf { dst, .. }
            | InstKind::FuncAddr { dst, .. }
            | InstKind::Index { dst, .. }
            | InstKind::Bin { dst, .. }
            | InstKind::Cmp { dst, .. }
            | InstKind::Alloca { dst, .. }
            | InstKind::Malloc { dst } => Some(*dst),
            InstKind::Call { dst, .. } => *dst,
            InstKind::Store { .. }
            | InstKind::Free { .. }
            | InstKind::Memset { .. }
            | InstKind::Lock { .. }
            | InstKind::Unlock { .. } => None,
        }
    }

    /// Collects every variable read by this instruction.
    pub fn uses(&self) -> Vec<VarId> {
        fn push(out: &mut Vec<VarId>, op: &Operand) {
            if let Operand::Var(v) = op {
                out.push(*v);
            }
        }
        let mut out = Vec::new();
        match self {
            InstKind::Move { src, .. } => out.push(*src),
            InstKind::Const { .. }
            | InstKind::FuncAddr { .. }
            | InstKind::Alloca { .. }
            | InstKind::Malloc { .. } => {}
            InstKind::Load { addr, .. } => out.push(*addr),
            InstKind::Store { addr, val } => {
                out.push(*addr);
                push(&mut out, val);
            }
            InstKind::Gep { base, .. } => out.push(*base),
            InstKind::AddrOf { src, .. } => out.push(*src),
            InstKind::Index { base, index, .. } => {
                out.push(*base);
                push(&mut out, index);
            }
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                push(&mut out, lhs);
                push(&mut out, rhs);
            }
            InstKind::Call { callee, args, .. } => {
                if let Callee::Indirect(v) = callee {
                    out.push(*v);
                }
                for a in args {
                    push(&mut out, a);
                }
            }
            InstKind::Free { ptr } | InstKind::Memset { ptr } => out.push(*ptr),
            InstKind::Lock { obj } | InstKind::Unlock { obj } => out.push(*obj),
        }
        out
    }

    /// Applies `f` to every variable this instruction defines or reads.
    pub(crate) fn for_each_var_mut(&mut self, mut f: impl FnMut(&mut VarId)) {
        fn operand(op: &mut Operand, f: &mut impl FnMut(&mut VarId)) {
            if let Operand::Var(v) = op {
                f(v);
            }
        }
        match self {
            InstKind::Move { dst, src }
            | InstKind::AddrOf { dst, src }
            | InstKind::Load { dst, addr: src }
            | InstKind::Gep { dst, base: src, .. } => {
                f(dst);
                f(src);
            }
            InstKind::Const { dst, .. }
            | InstKind::FuncAddr { dst, .. }
            | InstKind::Alloca { dst, .. }
            | InstKind::Malloc { dst } => f(dst),
            InstKind::Store { addr, val } => {
                f(addr);
                operand(val, &mut f);
            }
            InstKind::Index { dst, base, index } => {
                f(dst);
                f(base);
                operand(index, &mut f);
            }
            InstKind::Bin { dst, lhs, rhs, .. } | InstKind::Cmp { dst, lhs, rhs, .. } => {
                f(dst);
                operand(lhs, &mut f);
                operand(rhs, &mut f);
            }
            InstKind::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    f(d);
                }
                if let Callee::Indirect(v) = callee {
                    f(v);
                }
                for a in args {
                    operand(a, &mut f);
                }
            }
            InstKind::Free { ptr } | InstKind::Memset { ptr } => f(ptr),
            InstKind::Lock { obj } | InstKind::Unlock { obj } => f(obj),
        }
    }
}

/// An instruction together with its source location.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The operation.
    pub kind: InstKind,
    /// Where the operation came from in the mini-C source.
    pub loc: Loc,
}

impl Inst {
    /// Creates an instruction at a location.
    pub fn new(kind: InstKind, loc: Loc) -> Self {
        Inst { kind, loc }
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on a boolean variable. Traversing the
    /// `then_bb` edge generates the paper's `brt(e)` condition; `else_bb`
    /// generates `brf(e)` (Table 3).
    Branch {
        /// The boolean condition, defined by a preceding `Cmp`.
        cond: VarId,
        /// Successor when the condition is true.
        then_bb: BlockId,
        /// Successor when the condition is false.
        else_bb: BlockId,
    },
    /// Function return with optional value; `ret` event for the memory-leak
    /// checker.
    Ret(Option<Operand>),
    /// Marks statically unreachable code (e.g. after `panic`-like externs).
    Unreachable,
}

impl Terminator {
    /// The successor blocks of this terminator, in branch order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Ret(_) | Terminator::Unreachable => vec![],
        }
    }

    /// Applies `f` to the variable this terminator reads, if any.
    pub(crate) fn for_each_var_mut(&mut self, mut f: impl FnMut(&mut VarId)) {
        match self {
            Terminator::Branch { cond, .. } => f(cond),
            Terminator::Ret(Some(Operand::Var(v))) => f(v),
            Terminator::Jump(_) | Terminator::Ret(_) | Terminator::Unreachable => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_negate_is_involution() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn cmp_eval_matches_negate() {
        let samples = [(0, 0), (1, 2), (-3, 5), (7, -7), (i64::MAX, i64::MIN)];
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (a, b) in samples {
                assert_eq!(op.eval(a, b), !op.negate().eval(a, b));
                assert_eq!(op.eval(a, b), op.swap().eval(b, a));
            }
        }
    }

    #[test]
    fn defs_and_uses() {
        let d = VarId::from_index(0);
        let s = VarId::from_index(1);
        let mv = InstKind::Move { dst: d, src: s };
        assert_eq!(mv.def(), Some(d));
        assert_eq!(mv.uses(), vec![s]);

        let st = InstKind::Store {
            addr: d,
            val: Operand::Var(s),
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), vec![d, s]);

        let c = InstKind::Const {
            dst: d,
            value: ConstVal::Null,
        };
        assert_eq!(c.def(), Some(d));
        assert!(c.uses().is_empty());
    }

    #[test]
    fn terminator_successors() {
        let b0 = BlockId::from_index(0);
        let b1 = BlockId::from_index(1);
        assert_eq!(Terminator::Jump(b0).successors(), vec![b0]);
        let br = Terminator::Branch {
            cond: VarId::from_index(0),
            then_bb: b0,
            else_bb: b1,
        };
        assert_eq!(br.successors(), vec![b0, b1]);
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    fn traps_on_zero() {
        assert!(BinOp::Div.traps_on_zero());
        assert!(BinOp::Rem.traps_on_zero());
        assert!(!BinOp::Add.traps_on_zero());
    }
}
