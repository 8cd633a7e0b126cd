//! A convenience builder for constructing PIR functions.
//!
//! Used by the mini-C lowering (`pata-cc`), by tests and by benchmarks. The
//! builder maintains a current insertion block; control-flow helpers create
//! and switch blocks.

use crate::function::{Block, BlockId, Function, VarId, VarInfo, VarKind};
use crate::inst::{BinOp, Callee, CmpOp, ConstVal, Inst, InstKind, Loc, Operand, Terminator};
use crate::intern::Symbol;
use crate::module::{Category, FileId, FuncId, Module};
use crate::types::Type;

/// Incrementally builds one [`Function`] inside a [`Module`].
///
/// # Example
///
/// ```
/// use pata_ir::{Module, FunctionBuilder, Type, ConstVal, CmpOp, Operand};
///
/// let mut m = Module::new();
/// let file = m.add_file("ex.c");
/// let mut b = FunctionBuilder::new(&mut m, "check", file);
/// let p = b.param("p", Type::ptr(Type::Int));
/// let c = b.temp(Type::Bool);
/// b.cmp(c, CmpOp::Eq, Operand::Var(p), Operand::Const(ConstVal::Null), 2);
/// let (then_bb, else_bb) = (b.new_block(), b.new_block());
/// b.branch(c, then_bb, else_bb, 2);
/// b.switch_to(then_bb);
/// b.ret(None, 3);
/// b.switch_to(else_bb);
/// let t = b.temp(Type::Int);
/// b.load(t, p, 4);
/// b.ret(Some(Operand::Var(t)), 5);
/// let id = b.finish();
/// assert_eq!(m.function(id).blocks().len(), 3);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder<'m> {
    module: &'m mut Module,
    id: FuncId,
    name: String,
    params: Vec<VarId>,
    ret_ty: Type,
    blocks: Vec<Block>,
    current: BlockId,
    file: FileId,
    category: Category,
    temp_counter: u32,
    terminated: Vec<bool>,
}

impl<'m> FunctionBuilder<'m> {
    /// Starts building a function named `name` in `module`.
    pub fn new(module: &'m mut Module, name: &str, file: FileId) -> Self {
        let id = module.next_func_id();
        FunctionBuilder {
            module,
            id,
            name: name.to_owned(),
            params: Vec::new(),
            ret_ty: Type::Void,
            blocks: vec![Block::new()],
            current: BlockId::from_index(0),
            file,
            category: Category::Other,
            temp_counter: 0,
            terminated: vec![false],
        }
    }

    /// The id the finished function will have.
    pub fn func_id(&self) -> FuncId {
        self.id
    }

    /// The module being built into.
    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    /// Sets the declared return type.
    pub fn set_ret_ty(&mut self, ty: Type) -> &mut Self {
        self.ret_ty = ty;
        self
    }

    /// Sets the OS category (drivers, subsystem, …).
    pub fn set_category(&mut self, category: Category) -> &mut Self {
        self.category = category;
        self
    }

    /// Declares a formal parameter.
    pub fn param(&mut self, name: &str, ty: Type) -> VarId {
        let v = self.module.add_var(VarInfo {
            name: name.to_owned(),
            ty,
            kind: VarKind::Param,
            func: Some(self.id),
        });
        self.params.push(v);
        v
    }

    /// Declares a named local variable (no `Alloca` emitted; see
    /// [`FunctionBuilder::alloca`]).
    pub fn local(&mut self, name: &str, ty: Type) -> VarId {
        self.module.add_var(VarInfo {
            name: name.to_owned(),
            ty,
            kind: VarKind::Local,
            func: Some(self.id),
        })
    }

    /// Creates a fresh compiler temporary.
    pub fn temp(&mut self, ty: Type) -> VarId {
        let name = temp_name(self.temp_counter);
        self.temp_counter += 1;
        self.module.add_var(VarInfo {
            name,
            ty,
            kind: VarKind::Temp,
            func: Some(self.id),
        })
    }

    /// Creates a new (empty) block and returns its id without switching.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(Block::new());
        self.terminated.push(false);
        id
    }

    /// Moves the insertion point to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// The current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Whether the current block already has a real terminator.
    pub fn is_terminated(&self) -> bool {
        self.terminated[self.current.index()]
    }

    fn loc(&self, line: u32) -> Loc {
        Loc::new(self.file, line)
    }

    /// Emits an instruction into the current block.
    pub fn push(&mut self, kind: InstKind, line: u32) {
        if self.is_terminated() {
            // Dead code after return/goto — matches C semantics; skip.
            return;
        }
        let loc = self.loc(line);
        self.blocks[self.current.index()]
            .insts
            .push(Inst::new(kind, loc));
    }

    /// `dst = src`.
    pub fn mov(&mut self, dst: VarId, src: VarId, line: u32) {
        self.push(InstKind::Move { dst, src }, line);
    }

    /// `dst = value`.
    pub fn assign_const(&mut self, dst: VarId, value: ConstVal, line: u32) {
        self.push(InstKind::Const { dst, value }, line);
    }

    /// `dst = *addr`.
    pub fn load(&mut self, dst: VarId, addr: VarId, line: u32) {
        self.push(InstKind::Load { dst, addr }, line);
    }

    /// `*addr = val`.
    pub fn store(&mut self, addr: VarId, val: impl Into<Operand>, line: u32) {
        self.push(
            InstKind::Store {
                addr,
                val: val.into(),
            },
            line,
        );
    }

    /// `dst = &base->field`.
    pub fn gep(&mut self, dst: VarId, base: VarId, field: Symbol, line: u32) {
        self.push(InstKind::Gep { dst, base, field }, line);
    }

    /// `dst = &src`.
    pub fn addr_of(&mut self, dst: VarId, src: VarId, line: u32) {
        self.push(InstKind::AddrOf { dst, src }, line);
    }

    /// `dst = &function` (callback registration).
    pub fn func_addr(&mut self, dst: VarId, func: FuncId, line: u32) {
        self.push(InstKind::FuncAddr { dst, func }, line);
    }

    /// `dst = &base[index]`.
    pub fn index(&mut self, dst: VarId, base: VarId, index: impl Into<Operand>, line: u32) {
        self.push(
            InstKind::Index {
                dst,
                base,
                index: index.into(),
            },
            line,
        );
    }

    /// `dst = lhs op rhs`.
    pub fn bin(
        &mut self,
        dst: VarId,
        op: BinOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
        line: u32,
    ) {
        self.push(
            InstKind::Bin {
                dst,
                op,
                lhs: lhs.into(),
                rhs: rhs.into(),
            },
            line,
        );
    }

    /// `dst = lhs op rhs` (comparison).
    pub fn cmp(
        &mut self,
        dst: VarId,
        op: CmpOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
        line: u32,
    ) {
        self.push(
            InstKind::Cmp {
                dst,
                op,
                lhs: lhs.into(),
                rhs: rhs.into(),
            },
            line,
        );
    }

    /// `dst = callee(args…)`.
    pub fn call(&mut self, dst: Option<VarId>, callee: Callee, args: Vec<Operand>, line: u32) {
        self.push(InstKind::Call { dst, callee, args }, line);
    }

    /// Declares `dst` at its point of declaration (UVA `alloc` event).
    /// `storage` is `true` for struct-valued locals whose variable is the
    /// (valid) address of fresh uninitialized storage.
    pub fn alloca(&mut self, dst: VarId, storage: bool, line: u32) {
        self.push(InstKind::Alloca { dst, storage }, line);
    }

    /// `dst = malloc(…)`.
    pub fn malloc(&mut self, dst: VarId, line: u32) {
        self.push(InstKind::Malloc { dst }, line);
    }

    /// `free(ptr)`.
    pub fn free(&mut self, ptr: VarId, line: u32) {
        self.push(InstKind::Free { ptr }, line);
    }

    /// `memset(ptr, …)`.
    pub fn memset(&mut self, ptr: VarId, line: u32) {
        self.push(InstKind::Memset { ptr }, line);
    }

    /// Acquires `obj` (double-lock checker event).
    pub fn lock(&mut self, obj: VarId, line: u32) {
        self.push(InstKind::Lock { obj }, line);
    }

    /// Releases `obj`.
    pub fn unlock(&mut self, obj: VarId, line: u32) {
        self.push(InstKind::Unlock { obj }, line);
    }

    fn terminate(&mut self, term: Terminator, line: u32) {
        if self.is_terminated() {
            return;
        }
        let loc = self.loc(line);
        let b = &mut self.blocks[self.current.index()];
        b.term = term;
        b.term_loc = loc;
        self.terminated[self.current.index()] = true;
    }

    /// Unconditional jump.
    pub fn jump(&mut self, target: BlockId, line: u32) {
        self.terminate(Terminator::Jump(target), line);
    }

    /// Conditional branch on `cond`.
    pub fn branch(&mut self, cond: VarId, then_bb: BlockId, else_bb: BlockId, line: u32) {
        self.terminate(
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            },
            line,
        );
    }

    /// Return, with optional value.
    pub fn ret(&mut self, value: Option<Operand>, line: u32) {
        self.terminate(Terminator::Ret(value), line);
    }

    /// Marks the current block unreachable.
    pub fn unreachable(&mut self, line: u32) {
        self.terminate(Terminator::Unreachable, line);
    }

    /// Finishes the function, adds it to the module, and returns its id.
    ///
    /// Any block never given a real terminator stays `Unreachable`, which
    /// [`crate::verify_function`] reports unless the block is genuinely
    /// unreachable.
    pub fn finish(self) -> FuncId {
        let func = Function {
            id: self.id,
            name: self.name,
            params: self.params,
            ret_ty: self.ret_ty,
            blocks: self.blocks,
            entry: BlockId::from_index(0),
            file: self.file,
            category: self.category,
            is_interface: false,
        };
        self.module.add_function(func)
    }
}

/// `t{n}`, spelled without the formatting machinery: lowering names a
/// temporary for nearly every instruction.
fn temp_name(n: u32) -> String {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let mut name = String::with_capacity(1 + digits.len() - at);
    name.push('t');
    name.extend(digits[at..].iter().map(|&d| char::from(d)));
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_straightline_function() {
        let mut m = Module::new();
        let file = m.add_file("s.c");
        let mut b = FunctionBuilder::new(&mut m, "f", file);
        let x = b.local("x", Type::Int);
        b.alloca(x, false, 1);
        b.assign_const(x, ConstVal::Int(7), 2);
        b.ret(Some(Operand::Var(x)), 3);
        let id = b.finish();
        let f = m.function(id);
        assert_eq!(f.blocks().len(), 1);
        assert_eq!(f.block(f.entry()).insts.len(), 2);
        assert!(matches!(f.block(f.entry()).term, Terminator::Ret(Some(_))));
    }

    #[test]
    fn code_after_return_is_dropped() {
        let mut m = Module::new();
        let file = m.add_file("s.c");
        let mut b = FunctionBuilder::new(&mut m, "f", file);
        let x = b.local("x", Type::Int);
        b.ret(None, 1);
        b.assign_const(x, ConstVal::Int(1), 2); // dead
        b.ret(None, 3); // dead
        let id = b.finish();
        let f = m.function(id);
        assert!(f.block(f.entry()).insts.is_empty());
        assert!(matches!(f.block(f.entry()).term, Terminator::Ret(None)));
    }

    #[test]
    fn temp_names_unique() {
        let mut m = Module::new();
        let file = m.add_file("s.c");
        let mut b = FunctionBuilder::new(&mut m, "f", file);
        let t1 = b.temp(Type::Int);
        let t2 = b.temp(Type::Int);
        b.ret(None, 1);
        b.finish();
        assert_ne!(m.var(t1).name, m.var(t2).name);
        assert_eq!(m.var(t1).kind, VarKind::Temp);
    }

    #[test]
    fn temp_names_are_decimal() {
        for n in [0, 7, 10, 99, 1_234, u32::MAX] {
            assert_eq!(temp_name(n), format!("t{n}"));
        }
    }
}
