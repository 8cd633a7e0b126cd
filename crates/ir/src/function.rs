//! Functions, basic blocks and variables.
//!
//! Variables have *module-global* identity ([`VarId`] indexes the module's
//! variable table) because PATA's interprocedural alias graph spans inlined
//! call chains: `foo:p` and `bar:p` from the paper's Fig. 7 must be distinct
//! nodes that can nevertheless live in one graph.

use crate::inst::{Inst, InstId, Loc, Terminator};
use crate::module::{Category, FileId, FuncId};
use crate::types::Type;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A module-global variable identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(u32);

impl VarId {
    /// Constructs a `VarId` from a raw index (used by [`crate::Module`] and
    /// tests).
    pub fn from_index(i: usize) -> Self {
        VarId(u32::try_from(i).expect("too many variables"))
    }

    /// The raw index into the module's variable table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic-block identifier, local to its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(u32);

impl BlockId {
    /// Constructs a `BlockId` from a raw index.
    pub fn from_index(i: usize) -> Self {
        BlockId(u32::try_from(i).expect("too many blocks"))
    }

    /// The raw index into the function's block list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// What kind of storage a variable denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// A formal parameter.
    Param,
    /// A named local variable (has an `Alloca` declaration point).
    Local,
    /// A compiler-generated temporary (SSA-like; assigned once per path).
    Temp,
    /// A module-level global.
    Global,
}

/// Metadata for one variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Source-level name (`p`, or a generated name like `t12` for temps;
    /// most temporaries' names are static and cost no allocation).
    pub name: Cow<'static, str>,
    /// Static type.
    pub ty: Type,
    /// Storage kind.
    pub kind: VarKind,
    /// The function owning this variable; `None` for globals.
    pub func: Option<FuncId>,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone)]
pub struct Block {
    /// The instructions, executed in order.
    pub insts: Vec<Inst>,
    /// The terminator deciding control flow.
    pub term: Terminator,
    /// Source location of the terminator.
    pub term_loc: Loc,
}

impl Block {
    /// An empty block ending in `Unreachable` (builder patches it later).
    pub fn new() -> Self {
        Block {
            insts: Vec::new(),
            term: Terminator::Unreachable,
            term_loc: Loc::default(),
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::new()
    }
}

/// A PIR function: parameters, locals, and a CFG of basic blocks.
#[derive(Debug, Clone)]
pub struct Function {
    pub(crate) id: FuncId,
    /// Shared with the module's name table.
    pub(crate) name: Arc<str>,
    pub(crate) params: Vec<VarId>,
    pub(crate) ret_ty: Type,
    pub(crate) blocks: Vec<Block>,
    pub(crate) entry: BlockId,
    pub(crate) file: FileId,
    pub(crate) category: Category,
    /// Set by the information collector: `true` when no explicit caller
    /// exists in the module — e.g. a driver `probe` registered through a
    /// function-pointer struct field (paper Fig. 1). These functions are the
    /// roots of PATA's top-down analysis.
    pub(crate) is_interface: bool,
}

impl Function {
    /// The function's id within its module.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// The function's source-level name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function's name as the module's shared copy, for tables that
    /// outlive a borrow of the module.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// The formal parameters, in declaration order.
    pub fn params(&self) -> &[VarId] {
        &self.params
    }

    /// The declared return type.
    pub fn ret_ty(&self) -> &Type {
        &self.ret_ty
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// All blocks, indexable by [`BlockId::index`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// A single block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this function.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// The file this function was lowered from.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// The OS part this function belongs to (drivers, subsystem, …).
    pub fn category(&self) -> Category {
        self.category
    }

    /// Whether the collector marked this function as a module interface
    /// function (no explicit caller in the module).
    pub fn is_interface(&self) -> bool {
        self.is_interface
    }

    /// Marks this function as a module interface function (set by the
    /// information collector).
    pub fn set_interface(&mut self, value: bool) {
        self.is_interface = value;
    }

    /// Applies `f` to every variable the function names: its parameters and
    /// every operand of its instructions and terminators.
    pub(crate) fn for_each_var_mut(&mut self, mut f: impl FnMut(&mut VarId)) {
        self.params.iter_mut().for_each(&mut f);
        for block in &mut self.blocks {
            for inst in &mut block.insts {
                inst.kind.for_each_var_mut(&mut f);
            }
            block.term.for_each_var_mut(&mut f);
        }
    }

    /// Total number of instructions including terminators.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }

    /// Iterates over every instruction id in block order.
    pub fn inst_ids(&self) -> impl Iterator<Item = InstId> + '_ {
        let func = self.id;
        self.blocks.iter().enumerate().flat_map(move |(bi, b)| {
            (0..=b.insts.len()).map(move |ii| InstId {
                func,
                block: BlockId::from_index(bi),
                inst: ii,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::Module;

    #[test]
    fn inst_ids_cover_terminators() {
        let mut m = Module::new();
        let file = m.add_file("t.c");
        let mut b = FunctionBuilder::new(&mut m, "f", file);
        let x = b.local("x", Type::Int);
        b.assign_const(x, crate::inst::ConstVal::Int(1), 1);
        b.ret(None, 2);
        let f = b.finish();
        let func = m.function(f);
        let ids: Vec<_> = func.inst_ids().collect();
        // one Alloca + one Const + one terminator
        assert_eq!(ids.len(), func.inst_count());
        assert_eq!(
            ids.last().unwrap().inst,
            func.block(func.entry()).insts.len()
        );
    }
}
