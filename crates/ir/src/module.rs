//! The PIR module: the unit of whole-OS analysis.
//!
//! A module corresponds to the paper's "LLVM bytecode files + function
//! information database" (§4, P1): it owns every function, variable, struct
//! definition and source-file record, plus the identifier interner.

use crate::function::{Function, VarId, VarInfo, VarKind};
use crate::inst::{InstId, Loc};
use crate::intern::{Interner, Symbol};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A function identifier within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(u32);

impl FuncId {
    /// Constructs from a raw index.
    pub fn from_index(i: usize) -> Self {
        FuncId(u32::try_from(i).expect("too many functions"))
    }

    /// The raw index into the module's function table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// A struct-definition identifier within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(u32);

impl StructId {
    /// Constructs from a raw index.
    pub fn from_index(i: usize) -> Self {
        StructId(u32::try_from(i).expect("too many structs"))
    }

    /// The raw index into the module's struct table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A source-file identifier within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FileId(u32);

impl FileId {
    /// Constructs from a raw index.
    pub fn from_index(i: usize) -> Self {
        FileId(u32::try_from(i).expect("too many files"))
    }

    /// The raw index into the module's file table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The OS part a function belongs to, used to reproduce the paper's bug
/// distribution analysis (Fig. 11: drivers vs subsystems vs third-party …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Category {
    /// Device drivers (75% of Linux bugs in the paper).
    Drivers,
    /// Network stacks and protocol modules.
    Network,
    /// Filesystems.
    Filesystem,
    /// IoT-OS subsystem modules (bluetooth, IP stack, …).
    Subsystem,
    /// Third-party modules (68% of IoT-OS bugs in the paper).
    ThirdParty,
    /// Core kernel code.
    CoreKernel,
    /// Anything else.
    #[default]
    Other,
}

impl Category {
    /// All categories, for iteration in reports.
    pub const ALL: [Category; 7] = [
        Category::Drivers,
        Category::Network,
        Category::Filesystem,
        Category::Subsystem,
        Category::ThirdParty,
        Category::CoreKernel,
        Category::Other,
    ];

    /// Human-readable label.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Drivers => "drivers",
            Category::Network => "network",
            Category::Filesystem => "filesystem",
            Category::Subsystem => "subsystem",
            Category::ThirdParty => "third-party",
            Category::CoreKernel => "core-kernel",
            Category::Other => "other",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A named struct definition with ordered, named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// The struct's source name.
    pub name: String,
    /// Field name/type pairs in declaration order.
    pub fields: Vec<(Symbol, Type)>,
}

impl StructDef {
    /// Looks up a field's type by name.
    pub fn field_ty(&self, field: Symbol) -> Option<&Type> {
        self.fields
            .iter()
            .find(|(f, _)| *f == field)
            .map(|(_, t)| t)
    }

    /// Number of fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }
}

/// Metadata for one mini-C source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path-like display name (e.g. `drivers/net/e1000_main.c`).
    pub name: String,
    /// Line count, for LOC accounting (Table 4/5).
    pub lines: u32,
    /// Dominant category of the file's functions.
    pub category: Category,
}

/// The functions [`Module::detach_functions`] took out of a module, kept
/// for [`Module::splice_functions`].
#[derive(Debug)]
pub struct DetachedFunctions {
    functions: Vec<Function>,
    /// The id of the first detached function.
    first: usize,
    /// The variable count at detaching: the variables added since belong
    /// to the functions lowered again.
    vars_from: usize,
}

/// A whole-program PIR module.
#[derive(Debug, Clone, Default)]
pub struct Module {
    functions: Vec<Function>,
    func_by_name: HashMap<Arc<str>, FuncId>,
    vars: Vec<VarInfo>,
    structs: Vec<StructDef>,
    struct_by_name: HashMap<String, StructId>,
    files: Vec<SourceFile>,
    globals: Vec<VarId>,
    /// Interner for field and external-function names.
    pub interner: Interner,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a source file and returns its id.
    pub fn add_file(&mut self, name: &str) -> FileId {
        let id = FileId::from_index(self.files.len());
        self.files.push(SourceFile {
            name: name.to_owned(),
            lines: 0,
            category: Category::Other,
        });
        id
    }

    /// Registers a source file with line count and category.
    pub fn add_file_with_meta(&mut self, name: &str, lines: u32, category: Category) -> FileId {
        let id = FileId::from_index(self.files.len());
        self.files.push(SourceFile {
            name: name.to_owned(),
            lines,
            category,
        });
        id
    }

    /// All source files.
    pub fn files(&self) -> &[SourceFile] {
        &self.files
    }

    /// One source file.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn file(&self, id: FileId) -> &SourceFile {
        &self.files[id.index()]
    }

    /// Defines a struct; returns the existing id if the name was defined.
    pub fn add_struct(&mut self, def: StructDef) -> StructId {
        if let Some(&id) = self.struct_by_name.get(&def.name) {
            self.structs[id.index()] = def;
            return id;
        }
        let id = StructId::from_index(self.structs.len());
        self.struct_by_name.insert(def.name.clone(), id);
        self.structs.push(def);
        id
    }

    /// Replaces the fields of struct `id` (a later definition of the same
    /// struct wins, as with [`Module::add_struct`]).
    pub fn set_struct_fields(&mut self, id: StructId, fields: Vec<(Symbol, Type)>) {
        self.structs[id.index()].fields = fields;
    }

    /// Looks up a struct by name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.struct_by_name.get(name).copied()
    }

    /// One struct definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn struct_def(&self, id: StructId) -> &StructDef {
        &self.structs[id.index()]
    }

    /// All struct definitions.
    pub fn structs(&self) -> &[StructDef] {
        &self.structs
    }

    /// Creates a new variable and returns its id.
    pub fn add_var(&mut self, info: VarInfo) -> VarId {
        let id = VarId::from_index(self.vars.len());
        self.vars.push(info);
        id
    }

    /// Creates a module-level global variable.
    pub fn add_global(&mut self, name: &str, ty: Type) -> VarId {
        let id = self.add_var(VarInfo {
            name: name.to_owned().into(),
            ty,
            kind: VarKind::Global,
            func: None,
        });
        self.globals.push(id);
        id
    }

    /// All global variables.
    pub fn globals(&self) -> &[VarId] {
        &self.globals
    }

    /// Metadata for one variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// Total number of variables (for capacity planning in analyses).
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Adds a completed function (normally via [`crate::FunctionBuilder`]).
    pub fn add_function(&mut self, func: Function) -> FuncId {
        let id = func.id;
        debug_assert_eq!(id.index(), self.functions.len());
        self.func_by_name.insert(func.name.clone(), id);
        self.functions.push(func);
        id
    }

    /// Makes room for `additional` more variables, when their number can
    /// be estimated before they are created.
    pub fn reserve_vars(&mut self, additional: usize) {
        self.vars.reserve(additional);
    }

    /// Makes room for `additional` more functions, when their number is
    /// known before they are built.
    pub fn reserve_functions(&mut self, additional: usize) {
        self.functions.reserve_exact(additional);
        self.func_by_name.reserve(additional);
    }

    /// Reserves the next function id (used by the builder).
    pub fn next_func_id(&self) -> FuncId {
        FuncId::from_index(self.functions.len())
    }

    /// All functions.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// One function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to one function (used by the collector to mark
    /// interface functions).
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// The source position of an instruction: its own `loc`, or the
    /// block's `term_loc` for the terminator (`inst == insts.len()`).
    ///
    /// # Panics
    ///
    /// Panics if `id` names no instruction of this module.
    pub fn loc_of(&self, id: InstId) -> Loc {
        let block = self.function(id.func).block(id.block);
        match block.insts.get(id.inst) {
            Some(inst) => inst.loc,
            None => {
                assert_eq!(id.inst, block.insts.len(), "instruction {id} out of range");
                block.term_loc
            }
        }
    }

    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_by_name.get(name).copied()
    }

    /// Cuts the module's tables to their length (a session keeps its
    /// module alive across requests).
    pub fn shrink_to_fit(&mut self) {
        self.functions.shrink_to_fit();
        self.vars.shrink_to_fit();
        self.globals.shrink_to_fit();
        self.structs.shrink_to_fit();
        self.files.shrink_to_fit();
    }

    /// Sets a file's line count (a file lowered again in place may have
    /// gained or lost lines).
    pub fn set_file_lines(&mut self, id: FileId, lines: u32) {
        self.files[id.index()].lines = lines;
    }

    /// Takes out every function from `first` on, so that a run of functions
    /// can be lowered again at their old ids: the next function added gets
    /// id `first`. [`Module::splice_functions`] puts the rest back.
    pub fn detach_functions(&mut self, first: FuncId) -> DetachedFunctions {
        DetachedFunctions {
            functions: self.functions.split_off(first.index()),
            first: first.index(),
            vars_from: self.vars.len(),
        }
    }

    /// Finishes an in-place re-lowering begun by [`Module::detach_functions`].
    ///
    /// The functions added since then replace the first `replaced` detached
    /// functions, and the variables they added replace `old_vars`, the
    /// variables of the replaced functions. The other detached functions
    /// come back after them, with every variable id at or above
    /// `old_vars.end` moved by the change in length (no pass at all when
    /// the length is unchanged). Returns the new range of the replacing
    /// variables.
    ///
    /// The renumbering is exact because a function names only its own
    /// variables, which are contiguous, and globals, which come before
    /// every function's variables.
    pub fn splice_functions(
        &mut self,
        detached: DetachedFunctions,
        replaced: usize,
        old_vars: Range<usize>,
    ) -> Range<usize> {
        let DetachedFunctions {
            functions: tail,
            first,
            vars_from,
        } = detached;
        debug_assert!(old_vars.end <= vars_from);
        let new_vars = self.vars.split_off(vars_from);
        let new_range = old_vars.start..old_vars.start + new_vars.len();
        for f in &mut self.functions[first..] {
            f.for_each_var_mut(|v| {
                if v.index() >= vars_from {
                    *v = VarId::from_index(v.index() - vars_from + new_range.start);
                }
            });
        }
        let old_end = old_vars.end;
        self.vars.splice(old_vars, new_vars);
        self.vars.shrink_to_fit();
        let moved = |i: usize| i + new_range.end - old_end;
        for mut f in tail.into_iter().skip(replaced) {
            if new_range.end != old_end {
                f.for_each_var_mut(|v| {
                    if v.index() >= old_end {
                        *v = VarId::from_index(moved(v.index()));
                    }
                });
            }
            self.functions.push(f);
        }
        new_range
    }

    /// Total lines of code across all files (Table 4/5 accounting).
    pub fn total_loc(&self) -> u64 {
        self.files.iter().map(|f| u64::from(f.lines)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_registration_and_lookup() {
        let mut m = Module::new();
        let f = m.interner.intern("frnd");
        let id = m.add_struct(StructDef {
            name: "bt_mesh_cfg_srv".into(),
            fields: vec![(f, Type::Int)],
        });
        assert_eq!(m.struct_by_name("bt_mesh_cfg_srv"), Some(id));
        assert_eq!(m.struct_def(id).field_ty(f), Some(&Type::Int));
        assert_eq!(m.struct_def(id).field_count(), 1);
        assert!(m.struct_by_name("missing").is_none());
    }

    #[test]
    fn redefining_struct_keeps_id() {
        let mut m = Module::new();
        let id1 = m.add_struct(StructDef {
            name: "s".into(),
            fields: vec![],
        });
        let f = m.interner.intern("x");
        let id2 = m.add_struct(StructDef {
            name: "s".into(),
            fields: vec![(f, Type::Int)],
        });
        assert_eq!(id1, id2);
        assert_eq!(m.struct_def(id1).field_count(), 1);
    }

    #[test]
    fn globals_tracked() {
        let mut m = Module::new();
        let g = m.add_global("jiffies", Type::Int);
        assert_eq!(m.globals(), &[g]);
        assert_eq!(m.var(g).kind, VarKind::Global);
        assert_eq!(m.var(g).name, "jiffies");
    }

    /// Builds `f0`, `f1`, `f2` in one file: `f1` with `locals` extra locals,
    /// the others with one; each loads through its parameter into a global.
    fn three_functions(m: &mut Module, locals: usize) {
        let file = m.add_file("t.c");
        let g = m.add_global("g", Type::Int);
        for (name, n) in [("f0", 1), ("f1", locals), ("f2", 1)] {
            let mut b = crate::FunctionBuilder::new(m, name, file);
            let p = b.param("p", Type::ptr(Type::Int));
            for i in 0..n {
                let x = b.local(&format!("x{i}"), Type::Int);
                b.load(x, p, 1);
                b.mov(g, x, 2);
            }
            b.ret(Some(crate::Operand::Var(p)), 3);
            b.finish();
        }
    }

    #[test]
    fn loc_of_reads_instructions_and_terminators() {
        let mut m = Module::new();
        three_functions(&mut m, 2);
        let f1 = m.function_by_name("f1").unwrap();
        let entry = m.function(f1).entry();
        let at = |inst| InstId {
            func: f1,
            block: entry,
            inst,
        };
        let lines: Vec<u32> = (0..=4).map(|i| m.loc_of(at(i)).line).collect();
        assert_eq!(lines, [1, 2, 1, 2, 3]);
        assert_eq!(m.loc_of(at(4)).file, m.function(f1).file());
    }

    #[test]
    fn splicing_a_relowered_function_renumbers_the_ones_after_it() {
        for (old, new) in [(1, 3), (3, 1), (2, 2)] {
            let mut kept = Module::new();
            three_functions(&mut kept, old);
            let f1 = kept.function_by_name("f1").unwrap();
            let old_vars = {
                let f = kept.function(f1);
                let first = f.params()[0].index();
                first..first + 1 + old
            };
            // Lower `f1` again, with `new` locals, at its old id.
            let detached = kept.detach_functions(f1);
            let mut b = crate::FunctionBuilder::new(&mut kept, "f1", FileId::from_index(0));
            assert_eq!(b.func_id(), f1);
            let p = b.param("p", Type::ptr(Type::Int));
            let g = VarId::from_index(0);
            for i in 0..new {
                let x = b.local(&format!("x{i}"), Type::Int);
                b.load(x, p, 1);
                b.mov(g, x, 2);
            }
            b.ret(Some(crate::Operand::Var(p)), 3);
            b.finish();
            let spliced = kept.splice_functions(detached, 1, old_vars.clone());
            assert_eq!(spliced, old_vars.start..old_vars.start + 1 + new);

            let mut cold = Module::new();
            three_functions(&mut cold, new);
            assert_eq!(crate::print_module(&kept), crate::print_module(&cold));
            assert_eq!(kept.var_count(), cold.var_count());
            for i in 0..cold.var_count() {
                let (k, c) = (
                    kept.var(VarId::from_index(i)),
                    cold.var(VarId::from_index(i)),
                );
                assert_eq!((&k.name, k.func), (&c.name, c.func), "var {i}");
            }
        }
    }

    #[test]
    fn file_loc_accounting() {
        let mut m = Module::new();
        m.add_file_with_meta("a.c", 120, Category::Drivers);
        m.add_file_with_meta("b.c", 80, Category::Network);
        assert_eq!(m.total_loc(), 200);
    }
}
