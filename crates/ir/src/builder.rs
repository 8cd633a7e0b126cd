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
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

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
    name: Arc<str>,
    ret_ty: Type,
    current: BlockId,
    file: FileId,
    category: Category,
    temp_counter: u32,
    bufs: BuildBuffers,
}

/// The lists a [`FunctionBuilder`] grows while it builds a function: its
/// blocks, which blocks are terminated, and its parameters. A caller that
/// builds many functions in a row passes the buffers one builder gives
/// back ([`FunctionBuilder::finish_with_buffers`]) to the next
/// ([`FunctionBuilder::with_buffers`]), so each function grows lists that
/// already have room. The finished function gets copies of exactly their
/// length.
///
/// A block's instruction list is its own: it grows in place and is cut to
/// its length when the function finishes. Building the lists in reused
/// buffers and copying them out at their exact size measured faster
/// in-process, but it left a heap on which ledgerbench's allocation-heavy
/// host-speed reference ran faster, so `edit_serve`'s normalized op time
/// read 10–18% higher (EXPERIMENTS.md "A front end without memory churn").
#[derive(Debug, Default)]
pub struct BuildBuffers {
    blocks: Vec<Block>,
    terminated: Vec<bool>,
    params: Vec<VarId>,
}

impl<'m> FunctionBuilder<'m> {
    /// Starts building a function named `name` in `module`.
    pub fn new(module: &'m mut Module, name: &str, file: FileId) -> Self {
        Self::with_buffers(module, name, file, BuildBuffers::default())
    }

    /// Starts building a function named `name` in `module`, in `bufs`
    /// (emptied by the builder that gave them back).
    pub fn with_buffers(
        module: &'m mut Module,
        name: &str,
        file: FileId,
        bufs: BuildBuffers,
    ) -> Self {
        debug_assert!(bufs.blocks.is_empty() && bufs.params.is_empty());
        let id = module.next_func_id();
        let mut b = FunctionBuilder {
            module,
            id,
            name: name.into(),
            ret_ty: Type::Void,
            current: BlockId::from_index(0),
            file,
            category: Category::Other,
            temp_counter: 0,
            bufs,
        };
        b.new_block();
        b
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
            name: Cow::Owned(name.to_owned()),
            ty,
            kind: VarKind::Param,
            func: Some(self.id),
        });
        self.bufs.params.push(v);
        v
    }

    /// Declares a named local variable (no `Alloca` emitted; see
    /// [`FunctionBuilder::alloca`]).
    pub fn local(&mut self, name: &str, ty: Type) -> VarId {
        self.module.add_var(VarInfo {
            name: Cow::Owned(name.to_owned()),
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
        let id = BlockId::from_index(self.bufs.blocks.len());
        self.bufs.blocks.push(Block::new());
        self.bufs.terminated.push(false);
        id
    }

    /// Moves the insertion point to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// Whether the current block already has a real terminator.
    pub fn is_terminated(&self) -> bool {
        self.bufs.terminated[self.current.index()]
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
        self.bufs.blocks[self.current.index()]
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
        let b = &mut self.bufs.blocks[self.current.index()];
        b.term = term;
        b.term_loc = loc;
        self.bufs.terminated[self.current.index()] = true;
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
    /// unreachable. The function's lists have exactly their length: a
    /// session keeps its module alive across requests.
    pub fn finish(self) -> FuncId {
        self.finish_with_buffers().0
    }

    /// [`FunctionBuilder::finish`], giving back the emptied buffers for
    /// the next function's builder.
    pub fn finish_with_buffers(self) -> (FuncId, BuildBuffers) {
        let FunctionBuilder {
            module,
            id,
            name,
            ret_ty,
            file,
            category,
            mut bufs,
            ..
        } = self;
        // A drain knows its length, so the block list is allocated exactly.
        let blocks = bufs
            .blocks
            .drain(..)
            .map(|mut b| {
                b.insts.shrink_to_fit();
                b
            })
            .collect();
        bufs.terminated.clear();
        let func = Function {
            id,
            name,
            params: bufs.params.drain(..).collect(),
            ret_ty,
            blocks,
            entry: BlockId::from_index(0),
            file,
            category,
            is_interface: false,
        };
        (module.add_function(func), bufs)
    }
}

/// Temporaries numbered below this get a static name.
const STATIC_TEMP_NAMES: u32 = 1024;

/// `t{n}`: lowering names a temporary for nearly every instruction. Below
/// [`STATIC_TEMP_NAMES`] the name is a slice of one string built once per
/// process, so it costs no allocation.
fn temp_name(n: u32) -> Cow<'static, str> {
    static NAMES: OnceLock<(String, Vec<usize>)> = OnceLock::new();
    if n >= STATIC_TEMP_NAMES {
        return Cow::Owned(format!("t{n}"));
    }
    let (text, ends) = NAMES.get_or_init(|| {
        let mut text = String::new();
        let mut ends = vec![0];
        for i in 0..STATIC_TEMP_NAMES {
            let _ = write!(text, "t{i}");
            ends.push(text.len());
        }
        (text, ends)
    });
    let n = n as usize;
    Cow::Borrowed(&text[ends[n]..ends[n + 1]])
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

    /// Functions built one after another in the same buffers equal those
    /// built in fresh ones, and their lists have exactly their length.
    #[test]
    fn reused_buffers_build_the_same_exact_size_functions() {
        fn body(b: &mut FunctionBuilder<'_>, n: usize) {
            let p = b.param("p", Type::ptr(Type::Int));
            for i in 0..n {
                let next = b.new_block();
                let t = b.temp(Type::Int);
                b.load(t, p, i as u32);
                b.jump(next, i as u32);
                b.switch_to(next);
            }
            b.ret(Some(Operand::Var(p)), 99);
        }
        let sizes = [5, 1, 9, 3];
        let mut fresh = Module::new();
        let mut reused = Module::new();
        let file = fresh.add_file("f.c");
        reused.add_file("f.c");
        let mut bufs = BuildBuffers::default();
        for (i, &n) in sizes.iter().enumerate() {
            let name = format!("f{i}");
            let mut b = FunctionBuilder::new(&mut fresh, &name, file);
            body(&mut b, n);
            b.finish();
            let mut b = FunctionBuilder::with_buffers(&mut reused, &name, file, bufs);
            body(&mut b, n);
            bufs = b.finish_with_buffers().1;
        }
        assert_eq!(crate::print_module(&fresh), crate::print_module(&reused));
        for f in reused.functions() {
            for block in f.blocks() {
                assert_eq!(block.insts.len(), block.insts.capacity());
            }
        }
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
        for n in [0, 7, 10, 99, 1_023, 1_024, 1_234, u32::MAX] {
            assert_eq!(temp_name(n), format!("t{n}"));
        }
        assert!(matches!(temp_name(1_023), Cow::Borrowed(_)));
    }
}
