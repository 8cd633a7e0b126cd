//! Lowering from the mini-C AST to PIR.
//!
//! The [`Compiler`] gathers any number of source files and parses them;
//! [`lower_units`] merges struct definitions and function signatures
//! across the parsed files (the paper's "information collector" making
//! inter-procedural analysis possible across source files, §4 P1), and
//! lowers every function body to PIR.
//!
//! Lowering conventions:
//!
//! * `p->f` reads become `GEP` + `LOAD`; `p->f = e` becomes `GEP` + `STORE`
//!   — exactly the instruction shapes PATA's alias rules consume (Fig. 5).
//! * Struct-valued locals are modeled as a pointer to fresh storage (their
//!   `Alloca`), so `s.f` is `GEP` on that pointer.
//! * `&&`/`||` in branch conditions become short-circuit CFG; in value
//!   position they degrade to bitwise operators (sound for the checkers).
//! * OS allocation/locking idioms (`kmalloc`, `kzalloc`, `kfree`,
//!   `spin_lock`, …) lower to dedicated PIR instructions so the typestate
//!   checkers see canonical events.

use crate::ast::*;
use crate::diag::{Diag, DiagKind};
use crate::name::Name;
use crate::parser::Parser;
use pata_ir::{
    BinOp, BlockId, BuildBuffers, Callee, Category, CmpOp, ConstVal, FileId, FuncId,
    FunctionBuilder, Module, Operand, StructDef, StructId, Symbol, Type, VarId,
};
use std::collections::HashMap;
use std::ops::Range;

/// Compiles a set of mini-C sources into one [`Module`].
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Default)]
pub struct Compiler {
    sources: Vec<(String, String, Option<Category>)>,
}

impl Compiler {
    /// Creates an empty compiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a source file; its category is inferred from the path prefix
    /// (`drivers/` → drivers, `net/` → network, `fs/` → filesystem,
    /// `subsys/` → subsystem, `third_party/` → third-party, `kernel/` →
    /// core-kernel).
    pub fn add_source(&mut self, name: &str, text: &str) {
        self.sources.push((name.to_owned(), text.to_owned(), None));
    }

    /// Adds a source file with an explicit category.
    pub fn add_source_with_category(&mut self, name: &str, text: &str, category: Category) {
        self.sources
            .push((name.to_owned(), text.to_owned(), Some(category)));
    }

    /// Parses and lowers all sources.
    ///
    /// # Errors
    ///
    /// Returns every diagnostic collected across all files; the module is
    /// only produced when the whole program is clean.
    pub fn compile(self) -> Result<Module, Vec<Diag>> {
        let mut diags = Vec::new();
        let mut units = Vec::new();
        // Each text is dropped once parsed: lowering reads only units.
        for (name, text, category) in self.sources {
            match Parser::parse_source(&name, &text) {
                Ok(unit) => units.push((unit, category)),
                Err(d) => diags.push(d),
            }
        }
        if !diags.is_empty() {
            return Err(diags);
        }
        let units: Vec<(&Unit, Option<Category>)> = units.iter().map(|(u, c)| (u, *c)).collect();
        lower_units(&units)
    }
}

/// Lowers parsed units, in the given order, into one [`Module`].
///
/// This is the only lowering path: [`Compiler::compile`] parses its sources
/// and calls it, and [`LoweredModule::lower`] is the same lowering with the
/// per-function watermarks kept. The module depends only on the units and
/// their order, never on where they came from: files, structs, globals and
/// functions get their ids in unit order, so the same units in the same
/// order give a byte-identical module. A unit's category is inferred from
/// its file name (see [`Compiler::add_source`]) when it is `None`.
///
/// # Errors
///
/// Returns every semantic diagnostic (duplicate function definitions,
/// unknown variables, misplaced `break`, …); the module is only produced
/// when all units lower cleanly.
///
/// # Example
///
/// ```
/// use pata_cc::{lower_units, Parser};
///
/// let a = Parser::parse_source("a.c", "int f(int x) { return g(x); }").unwrap();
/// let b = Parser::parse_source("b.c", "int g(int y) { return y; }").unwrap();
/// let module = lower_units(&[(&a, None), (&b, None)]).unwrap();
/// assert_eq!(module.files().len(), 2);
/// assert!(module.function_by_name("g").is_some());
/// ```
pub fn lower_units(units: &[(&Unit, Option<Category>)]) -> Result<Module, Vec<Diag>> {
    lower_all(units).map(LoweredModule::into_module)
}

/// Passes 1–4 of [`lower_units`], keeping each function's watermarks.
fn lower_all(units: &[(&Unit, Option<Category>)]) -> Result<LoweredModule, Vec<Diag>> {
    let mut diags = Vec::new();
    let mut module = Module::new();
    // The generated corpora lower to 0.96–1.00 variables per source line.
    // Room the module does not use is never touched, and is cut at the end.
    module.reserve_vars(units.iter().map(|(u, _)| u.lines as usize).sum());
    let mut files = Vec::with_capacity(units.len());
    for (unit, category) in units {
        let cat = category.unwrap_or_else(|| infer_category(&unit.file));
        files.push((module.add_file_with_meta(&unit.file, unit.lines, cat), cat));
    }
    let mut scratch = Scratch::default();

    // Pass 1: declare all struct names (allows recursive/forward refs),
    // then fill in fields.
    for (unit, _) in units {
        for s in &unit.structs {
            if module.struct_by_name(&s.name).is_none() {
                module.add_struct(StructDef {
                    name: s.name.as_str().to_owned(),
                    fields: Vec::new(),
                });
            }
        }
    }
    let mut applied: Vec<Option<&StructDecl>> = vec![None; module.structs().len()];
    for (unit, _) in units {
        for s in &unit.structs {
            let id = module.struct_by_name(&s.name).expect("declared above");
            // The definition in force again (a header many files include)
            // interns and declares nothing new and gives the same fields.
            if applied[id.index()].is_some_and(|last| last.fields == s.fields) {
                continue;
            }
            applied[id.index()] = Some(s);
            let fields: Vec<_> = s
                .fields
                .iter()
                .map(|(fname, fty)| {
                    let sym = module.interner.intern(fname);
                    let ty = resolve_type(&mut module, fty, &mut scratch.pointers);
                    (sym, ty)
                })
                .collect();
            module.set_struct_fields(id, fields);
        }
    }

    // Pass 2: globals.
    let mut globals: HashMap<Name, VarId> = HashMap::new();
    for (unit, _) in units {
        for g in &unit.globals {
            let ty = resolve_type(&mut module, &g.ty, &mut scratch.pointers);
            let id = module.add_global(&g.name, ty);
            globals.insert(g.name.clone(), id);
        }
    }

    // Pass 3: assign function ids in declaration order so direct calls
    // across files resolve (the information collector's database).
    let declared = units.iter().map(|(u, _)| u.functions.len()).sum();
    let mut func_ids: HashMap<Name, FuncId> = HashMap::with_capacity(declared);
    let mut all_funcs: Vec<(&FuncDecl, FileId, Category)> = Vec::with_capacity(declared);
    for ((unit, _), &(file, cat)) in units.iter().zip(&files) {
        for f in &unit.functions {
            if func_ids.contains_key(&f.name) {
                diags.push(Diag::new(
                    DiagKind::Sema,
                    &unit.file,
                    f.line,
                    format!("duplicate definition of function `{}`", f.name),
                ));
                continue;
            }
            func_ids.insert(f.name.clone(), FuncId::from_index(all_funcs.len()));
            all_funcs.push((f, file, cat));
        }
    }
    if !diags.is_empty() {
        return Err(diags);
    }

    // Pass 4: lower bodies in id order.
    module.reserve_functions(all_funcs.len());
    let mut marks = Vec::with_capacity(all_funcs.len());
    for (decl, file, cat) in all_funcs {
        let before = Lengths::of(&module);
        let lowerer = LowerFn::new(
            &mut module,
            decl,
            file,
            cat,
            &func_ids,
            &globals,
            &mut diags,
            [Replay::OFF; 2],
            scratch,
        );
        scratch = lowerer.lower().1;
        marks.push(before.to(Lengths::of(&module)));
    }
    if !diags.is_empty() {
        return Err(diags);
    }
    module.shrink_to_fit();
    Ok(LoweredModule {
        module,
        marks,
        func_ids,
        globals,
    })
}

/// Where one function's lowering began and ended in the module's tables.
#[derive(Debug, Clone)]
struct FnMarks {
    /// The function's variables (a contiguous run).
    vars: Range<usize>,
    /// The interner length before and after the function.
    syms: Range<usize>,
    /// The struct count before and after the function.
    structs: Range<usize>,
}

/// A lowered module with the watermarks of its lowering, so that a later
/// compilation can lower the files whose text changed again, in place,
/// and still get exactly the module [`lower_units`] would give.
///
/// Pass 3 numbers a file's functions contiguously and pass 4 lowers them in
/// id order, so a file owns one run of function ids and one run of variable
/// ids. [`LoweredModule::relower`] lowers an edited file's functions again
/// with the same per-function lowering, puts their variables in place of
/// the old run, and renumbers the variables of every later function.
///
/// ```
/// use pata_cc::{lower_units, LoweredModule, Parser};
///
/// let a = Parser::parse_source("a.c", "int f(int x) { return g(x); }").unwrap();
/// let b = Parser::parse_source("b.c", "int g(int y) { return y; }").unwrap();
/// let kept = LoweredModule::lower(&[(&a, None), (&b, None)]).unwrap();
/// let a2 = Parser::parse_source("a.c", "int f(int x) { int z = x; return g(z); }").unwrap();
/// let (kept, relowered) = kept.relower(&[(&a2, None), (&b, None)], &[(0, &a)]).unwrap();
/// assert_eq!(relowered.len(), 1);
/// let cold = lower_units(&[(&a2, None), (&b, None)]).unwrap();
/// assert_eq!(pata_ir::print_module(kept.module()), pata_ir::print_module(&cold));
/// ```
#[derive(Debug)]
pub struct LoweredModule {
    module: Module,
    /// Per function id.
    marks: Vec<FnMarks>,
    /// Pass 3's table: each function's name and id. Relowering in place
    /// keeps every function at its id (equal declarations).
    func_ids: HashMap<Name, FuncId>,
    /// Pass 2's table: each global's name and id. Relowering in place
    /// keeps every global (equal declarations), and globals come before
    /// every function's variables, so no splice moves their ids.
    globals: HashMap<Name, VarId>,
}

impl LoweredModule {
    /// Lowers `units` in full, exactly as [`lower_units`] does, and keeps
    /// the watermarks.
    ///
    /// # Errors
    ///
    /// The diagnostics [`lower_units`] returns.
    pub fn lower(units: &[(&Unit, Option<Category>)]) -> Result<LoweredModule, Vec<Diag>> {
        lower_all(units)
    }

    /// The module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The module, mutably (the collector marks interface functions on it).
    /// Changing anything lowering produced voids the watermarks.
    pub fn module_mut(&mut self) -> &mut Module {
        &mut self.module
    }

    /// The module, without the watermarks.
    pub fn into_module(self) -> Module {
        self.module
    }

    /// Lowers the units at the positions in `changed` again, in place.
    /// `units` are the new units, one per file of the module, with the
    /// same names in the same order; `changed` pairs each changed position,
    /// ascending, with the unit this module was lowered from there.
    /// Returns the module, equal to [`lower_units`] of `units` down to
    /// every id, and the ids of the functions lowered again.
    ///
    /// Returns `None`, and drops the module, when it cannot give exactly
    /// that module:
    ///
    /// * the file names differ, or a changed unit declares other structs
    ///   (with their fields), globals (with their types) or functions
    ///   (with their return types) than its old unit, in order;
    /// * a function lowered again fails the exactness guard: a cold
    ///   lowering creates a symbol or struct at its first use, so every id
    ///   the function's first lowering created must be used again, first
    ///   in id order, and no later-created id may be used at all;
    /// * lowering reports a diagnostic (the caller's full lowering then
    ///   reports the cold diagnostics).
    pub fn relower(
        mut self,
        units: &[(&Unit, Option<Category>)],
        changed: &[(usize, &Unit)],
    ) -> Option<(LoweredModule, Vec<FuncId>)> {
        let files = self.module.files();
        if units.len() != files.len()
            || units.iter().zip(files).any(|((u, _), f)| u.file != f.name)
            || changed
                .iter()
                .any(|&(i, old)| !same_declarations(old, units[i].0))
        {
            return None;
        }
        debug_assert!(changed.windows(2).all(|w| w[0].0 < w[1].0));
        if changed.is_empty() {
            return Some((self, Vec::new()));
        }
        let mut first_func = Vec::with_capacity(units.len());
        let mut next_id = 0;
        for (unit, _) in units {
            first_func.push(next_id);
            next_id += unit.functions.len();
        }
        let mut diags = Vec::new();
        let mut relowered = Vec::new();
        let mut scratch = Scratch::default();
        for &(i, _) in changed {
            let (unit, category) = units[i];
            let file = FileId::from_index(i);
            self.module.set_file_lines(file, unit.lines);
            let funcs = first_func[i]..first_func[i] + unit.functions.len();
            if funcs.is_empty() {
                continue;
            }
            let old_vars = self.marks[funcs.start].vars.start..self.marks[funcs.end - 1].vars.end;
            let cat = category.unwrap_or_else(|| infer_category(&unit.file));
            let detached = self
                .module
                .detach_functions(FuncId::from_index(funcs.start));
            // Variables are added after every existing one, then spliced.
            let added_from = self.module.var_count();
            let mut new_vars = Vec::with_capacity(funcs.len());
            for (decl, id) in unit.functions.iter().zip(funcs.clone()) {
                let old = &self.marks[id];
                let replay = [Replay::of(&old.syms), Replay::of(&old.structs)];
                let before = self.module.var_count();
                let lowerer = LowerFn::new(
                    &mut self.module,
                    decl,
                    file,
                    cat,
                    &self.func_ids,
                    &self.globals,
                    &mut diags,
                    replay,
                    scratch,
                );
                let held;
                (held, scratch) = lowerer.lower();
                if !held || !diags.is_empty() {
                    return None;
                }
                new_vars.push(before..self.module.var_count());
            }
            let spliced = self
                .module
                .splice_functions(detached, funcs.len(), old_vars.clone());
            let at = |v: usize| v - added_from + spliced.start;
            for (id, vars) in funcs.clone().zip(new_vars) {
                self.marks[id].vars = at(vars.start)..at(vars.end);
            }
            if spliced.end != old_vars.end {
                let moved = |v: usize| v + spliced.end - old_vars.end;
                for m in &mut self.marks[funcs.end..] {
                    m.vars = moved(m.vars.start)..moved(m.vars.end);
                }
            }
            relowered.extend(funcs.map(FuncId::from_index));
        }
        Some((self, relowered))
    }
}

/// Whether two units declare the same structs (with their fields), globals
/// (with their types) and functions (with their return types), in the same
/// order: everything the lowering of other files reads of a unit.
fn same_declarations(a: &Unit, b: &Unit) -> bool {
    fn same<T>(a: &[T], b: &[T], eq: impl Fn(&T, &T) -> bool) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| eq(x, y))
    }
    same(&a.structs, &b.structs, |x, y| {
        x.name == y.name && x.fields == y.fields
    }) && same(&a.globals, &b.globals, |x, y| {
        x.name == y.name && x.ty == y.ty
    }) && same(&a.functions, &b.functions, |x, y| {
        x.name == y.name && x.ret == y.ret
    })
}

/// The lengths of the module tables lowering appends to.
#[derive(Clone, Copy)]
struct Lengths {
    vars: usize,
    syms: usize,
    structs: usize,
}

impl Lengths {
    fn of(module: &Module) -> Lengths {
        Lengths {
            vars: module.var_count(),
            syms: module.interner.len(),
            structs: module.structs().len(),
        }
    }

    fn to(self, after: Lengths) -> FnMarks {
        FnMarks {
            vars: self.vars..after.vars,
            syms: self.syms..after.syms,
            structs: self.structs..after.structs,
        }
    }
}

/// The exactness guard over one id space (symbols or structs) while a
/// function is lowered again in place. Its first lowering created the ids
/// `next..end`, each at its first use. Ids below them existed before the
/// function and are free to use; the created ones must be first used
/// again in id order, all of them, and no id at or above `end` may be used
/// (a cold lowering would give it a smaller id).
#[derive(Debug, Clone, Copy)]
struct Replay {
    next: usize,
    end: usize,
    held: bool,
}

impl Replay {
    /// No guard: a full lowering creates ids as it goes.
    const OFF: Replay = Replay {
        next: usize::MAX,
        end: usize::MAX,
        held: true,
    };

    fn of(created: &Range<usize>) -> Replay {
        Replay {
            next: created.start,
            end: created.end,
            held: true,
        }
    }

    fn use_id(&mut self, id: usize) {
        if id < self.next {
            // Created before the function, or already used again.
        } else if id == self.next && id < self.end {
            self.next += 1;
        } else {
            self.held = false;
        }
    }

    fn held(&self) -> bool {
        self.held && self.next == self.end
    }
}

/// The category a file's functions get when the caller gives none: the
/// one its path prefix names (`drivers/`, `net/`, …), `Other` otherwise.
pub fn infer_category(path: &str) -> Category {
    let p = path.trim_start_matches('/');
    if p.starts_with("drivers/") {
        Category::Drivers
    } else if p.starts_with("net/") {
        Category::Network
    } else if p.starts_with("fs/") {
        Category::Filesystem
    } else if p.starts_with("subsys/") {
        Category::Subsystem
    } else if p.starts_with("third_party/") || p.starts_with("thirdparty/") {
        Category::ThirdParty
    } else if p.starts_with("kernel/") || p.starts_with("core/") {
        Category::CoreKernel
    } else {
        Category::Other
    }
}

/// Whether [`LowerFn::infer_ty`] on `e` reaches a cast, whose type it then
/// resolves. It follows the same operands that `infer_ty` does.
fn cast_on_typed_spine(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Cast(..) => true,
        ExprKind::Arrow(inner, _)
        | ExprKind::Dot(inner, _)
        | ExprKind::Index(inner, _)
        | ExprKind::Deref(inner)
        | ExprKind::AddrOf(inner)
        | ExprKind::Assign(_, inner) => cast_on_typed_spine(inner),
        ExprKind::Bin(op, lhs, _) => {
            !op.is_comparison() && !op.is_logical() && cast_on_typed_spine(lhs)
        }
        _ => false,
    }
}

fn resolve_type(module: &mut Module, t: &TypeExpr, pointers: &mut PointerTypes) -> Type {
    match t {
        TypeExpr::Int => Type::Int,
        TypeExpr::Void => Type::Void,
        TypeExpr::Struct(name) => {
            let id = module.struct_by_name(name).unwrap_or_else(|| {
                module.add_struct(StructDef {
                    name: name.as_str().to_owned(),
                    fields: Vec::new(),
                })
            });
            Type::Struct(id)
        }
        TypeExpr::Ptr(inner) => {
            let pointee = resolve_type(module, inner, pointers);
            pointers.to(pointee)
        }
    }
}

/// The lists one function's lowering grows, empty between functions. A
/// `lower_all` or `relower` call passes them from each function to the
/// next, so a function grows lists that already have room; they are
/// dropped when the call returns. Names in them point into the AST.
#[derive(Default)]
struct Scratch<'a> {
    /// Every visible declaration, outermost first; a scope is the suffix
    /// pushed since its mark ([`LowerFn::scoped`]). Lookups search from the
    /// innermost end, so a shadowing declaration wins.
    scopes: Vec<(&'a Name, VarId)>,
    /// Locals declared as struct *values*: the VarId is the address of the
    /// storage, so `&x` is the variable itself. A function has few.
    struct_locals: Vec<VarId>,
    /// Function-wide label targets (a `goto` may precede its label).
    labels: Vec<(&'a Name, BlockId)>,
    loop_stack: Vec<(BlockId, BlockId)>, // (continue target, break target)
    /// The first field and external-function names the function interned,
    /// with their symbols. A function names few, each many times, so a
    /// scan with byte compares beats hashing the name into the interner.
    symbols: Vec<(&'a Name, Symbol)>,
    /// The first struct names the function resolved, likewise.
    structs: Vec<(&'a Name, StructId)>,
    /// Kept across functions: struct ids hold for the whole call.
    pointers: PointerTypes,
    /// The builder's blocks, terminated flags and parameters; the
    /// builder holds them while it builds a function.
    bufs: BuildBuffers,
}

impl Scratch<'_> {
    /// Empties the lists of one function, keeping their capacity.
    fn clear(&mut self) {
        self.scopes.clear();
        self.struct_locals.clear();
        self.labels.clear();
        self.loop_stack.clear();
        self.symbols.clear();
        self.structs.clear();
    }
}

/// The pointer types a `lower_all` or `relower` call has made, one per
/// pointee struct or scalar, shared by every variable of that type: most
/// of lowering's types are such pointers, and sharing makes each one
/// allocation instead of one per variable.
#[derive(Default)]
struct PointerTypes {
    /// By struct id.
    to_struct: Vec<Option<Type>>,
    /// To `int`, `void` and `bool`.
    to_scalar: [Option<Type>; 3],
}

impl PointerTypes {
    /// The type of a pointer to `pointee`.
    fn to(&mut self, pointee: Type) -> Type {
        let slot = match pointee {
            Type::Struct(id) => {
                if self.to_struct.len() <= id.index() {
                    self.to_struct.resize(id.index() + 1, None);
                }
                &mut self.to_struct[id.index()]
            }
            Type::Int => &mut self.to_scalar[0],
            Type::Void => &mut self.to_scalar[1],
            Type::Bool => &mut self.to_scalar[2],
            Type::Ptr(_) | Type::Array(_) => return Type::ptr(pointee),
        };
        slot.get_or_insert_with(|| Type::ptr(pointee)).clone()
    }
}

/// How many names a function's [`Scratch::symbols`] and
/// [`Scratch::structs`] remember; past that, names go to the module's
/// tables every time.
const REMEMBERED: usize = 32;

/// Per-function lowering state. It borrows the function's AST for `'a`
/// (names in the scope and label stacks point into it) and the module,
/// the name tables and the diagnostics for `'m`.
struct LowerFn<'a, 'm> {
    b: FunctionBuilder<'m>,
    file: FileId,
    decl: &'a FuncDecl,
    func_ids: &'m HashMap<Name, FuncId>,
    globals: &'m HashMap<Name, VarId>,
    diags: &'m mut Vec<Diag>,
    s: Scratch<'a>,
    /// The exactness guard over symbols and over structs.
    replay: [Replay; 2],
}

impl<'a, 'm> LowerFn<'a, 'm> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        module: &'m mut Module,
        decl: &'a FuncDecl,
        file: FileId,
        category: Category,
        func_ids: &'m HashMap<Name, FuncId>,
        globals: &'m HashMap<Name, VarId>,
        diags: &'m mut Vec<Diag>,
        replay: [Replay; 2],
        mut scratch: Scratch<'a>,
    ) -> Self {
        let bufs = std::mem::take(&mut scratch.bufs);
        let mut b = FunctionBuilder::with_buffers(module, &decl.name, file, bufs);
        b.set_category(category);
        LowerFn {
            b,
            file,
            decl,
            func_ids,
            globals,
            diags,
            s: scratch,
            replay,
        }
    }

    fn error(&mut self, line: u32, msg: impl Into<String>) {
        let file = &self.b.module().file(self.file).name;
        self.diags.push(Diag::new(DiagKind::Sema, file, line, msg));
    }

    /// Lowers the function into the module and returns whether the
    /// exactness guard held (always, when it is off), with the emptied
    /// lists for the next function.
    fn lower(mut self) -> (bool, Scratch<'a>) {
        let decl = self.decl;
        let ret = self.resolve(&decl.ret);
        self.b.set_ret_ty(ret);
        for p in &decl.params {
            let ty = self.resolve(&p.ty);
            let v = self.b.param(&p.name, ty);
            self.s.scopes.push((&p.name, v));
        }
        self.lower_stmts(&decl.body);
        if !self.b.is_terminated() {
            let line = decl.body.last().map(|s| s.line).unwrap_or(decl.line);
            self.b.ret(None, line);
        }
        let held = self.replay.iter().all(Replay::held);
        let (_, bufs) = self.b.finish_with_buffers();
        let mut scratch = self.s;
        scratch.bufs = bufs;
        scratch.clear();
        (held, scratch)
    }

    /// Interns `name` for the exactness guard's accounting.
    fn intern(&mut self, name: &'a Name) -> Symbol {
        let sym = match self.s.symbols.iter().find(|(n, _)| *n == name) {
            Some(&(_, sym)) => sym,
            None => {
                let sym = self.b.module().interner.intern(name);
                if self.s.symbols.len() < REMEMBERED {
                    self.s.symbols.push((name, sym));
                }
                sym
            }
        };
        self.replay[0].use_id(sym.index());
        sym
    }

    /// Resolves `t`, declaring the struct it names if it is new, for the
    /// exactness guard's accounting.
    fn resolve(&mut self, t: &'a TypeExpr) -> Type {
        match t {
            TypeExpr::Int => Type::Int,
            TypeExpr::Void => Type::Void,
            TypeExpr::Ptr(inner) => {
                let pointee = self.resolve(inner);
                self.ptr(pointee)
            }
            TypeExpr::Struct(name) => {
                let id = match self.s.structs.iter().find(|(n, _)| *n == name) {
                    Some(&(_, id)) => id,
                    None => {
                        let Type::Struct(id) =
                            resolve_type(self.b.module(), t, &mut self.s.pointers)
                        else {
                            unreachable!("a struct name resolves to a struct");
                        };
                        if self.s.structs.len() < REMEMBERED {
                            self.s.structs.push((name, id));
                        }
                        id
                    }
                };
                self.replay[1].use_id(id.index());
                Type::Struct(id)
            }
        }
    }

    fn lookup(&self, name: &Name) -> Option<VarId> {
        match self.s.scopes.iter().rev().find(|(n, _)| *n == name) {
            Some(&(_, v)) => Some(v),
            None => self.globals.get(name).copied(),
        }
    }

    fn var_ty(&mut self, v: VarId) -> Type {
        self.b.module().var(v).ty.clone()
    }

    /// The type of a pointer to `pointee`, shared ([`PointerTypes`]).
    fn ptr(&mut self, pointee: Type) -> Type {
        self.s.pointers.to(pointee)
    }

    /// Materializes an operand into a variable.
    fn as_var(&mut self, op: Operand, ty: Type, line: u32) -> VarId {
        match op {
            Operand::Var(v) => v,
            Operand::Const(c) => {
                let t = self.b.temp(ty);
                self.b.assign_const(t, c, line);
                t
            }
        }
    }

    /// Infers the static type of an expression (best effort; defaults keep
    /// lowering tolerant rather than precise).
    fn infer_ty(&mut self, e: &'a Expr) -> Type {
        match &e.kind {
            ExprKind::Int(_) | ExprKind::Sizeof => Type::Int,
            ExprKind::Null => self.ptr(Type::Void),
            ExprKind::Str(_) => self.ptr(Type::Int),
            ExprKind::Ident(name) => self
                .lookup(name)
                .map(|v| self.var_ty(v))
                .unwrap_or(Type::Int),
            ExprKind::Arrow(base, field) => {
                let bt = self.infer_ty(base);
                self.field_ty(&bt, field)
            }
            ExprKind::Dot(base, field) => {
                let bt = self.infer_ty(base);
                self.field_ty(&bt, field)
            }
            ExprKind::Index(base, _) => {
                let bt = self.infer_ty(base);
                bt.element().cloned().unwrap_or(Type::Int)
            }
            ExprKind::Deref(inner) => {
                let it = self.infer_ty(inner);
                it.pointee().cloned().unwrap_or(Type::Int)
            }
            ExprKind::AddrOf(inner) => {
                let pointee = self.infer_ty(inner);
                self.ptr(pointee)
            }
            ExprKind::Not(_) | ExprKind::BitNot(_) => Type::Int,
            ExprKind::Neg(_) => Type::Int,
            ExprKind::Bin(op, lhs, _) => {
                if op.is_comparison() || op.is_logical() {
                    Type::Bool
                } else {
                    self.infer_ty(lhs)
                }
            }
            ExprKind::Call(callee, _) => {
                if let ExprKind::Ident(name) = &callee.kind {
                    match name.as_bytes() {
                        b"malloc" | b"kmalloc" | b"kzalloc" | b"vmalloc" => {
                            return self.ptr(Type::Void)
                        }
                        _ => {}
                    }
                    if let Some(&fid) = self.func_ids.get(name) {
                        // Functions are lowered in id order, so only a
                        // callee with a smaller id has a resolved return
                        // type; any other call is assumed to return an int.
                        if fid < self.b.func_id() {
                            return self.b.module().function(fid).ret_ty().clone();
                        }
                        return Type::Int;
                    }
                }
                Type::Int
            }
            ExprKind::Cast(ty, _) => self.resolve(ty),
            ExprKind::Assign(_, rhs) => self.infer_ty(rhs),
        }
    }

    /// The type of `field` in the struct `base_ty` names (through one
    /// pointer); `Int` when unknown.
    fn field_ty(&mut self, base_ty: &Type, field: &'a Name) -> Type {
        match base_ty.struct_id() {
            Some(sid) => {
                let sym = self.intern(field);
                self.struct_field_ty(sid, sym)
            }
            None => Type::Int,
        }
    }

    fn struct_field_ty(&mut self, sid: StructId, field: Symbol) -> Type {
        let def = self.b.module().struct_def(sid);
        def.field_ty(field).cloned().unwrap_or(Type::Int)
    }

    /// The type a pointer-typed variable points to; `Int` when `v` is not a
    /// pointer.
    fn pointee_ty(&mut self, v: VarId) -> Type {
        let ty = &self.b.module().var(v).ty;
        ty.pointee().cloned().unwrap_or(Type::Int)
    }

    /// The constant that means "zero/false/null" for a comparison against
    /// the value of `e`.
    fn zero_for(&mut self, e: &'a Expr) -> ConstVal {
        if self.infer_ty(e).is_pointer() {
            ConstVal::Null
        } else {
            ConstVal::Int(0)
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn lower_stmts(&mut self, stmts: &'a [Stmt]) {
        for s in stmts {
            self.lower_stmt(s);
        }
    }

    fn label_block(&mut self, name: &'a Name) -> BlockId {
        if let Some(&(_, b)) = self.s.labels.iter().find(|(n, _)| *n == name) {
            return b;
        }
        let b = self.b.new_block();
        self.s.labels.push((name, b));
        b
    }

    fn lower_stmt(&mut self, s: &'a Stmt) {
        let line = s.line;
        match &s.kind {
            StmtKind::Decl {
                ty,
                name,
                init,
                is_array,
            } => {
                let resolved = self.resolve(ty);
                let (var_ty, is_struct_value) = if *is_array {
                    (Type::array(resolved), false)
                } else if matches!(resolved, Type::Struct(_)) {
                    (self.ptr(resolved), true)
                } else {
                    (resolved, false)
                };
                let v = self.b.local(name, var_ty);
                self.s.scopes.push((name, v));
                if is_struct_value {
                    self.s.struct_locals.push(v);
                    // The storage itself is fresh and uninitialized.
                    self.b.alloca(v, true, line);
                    return;
                }
                match init {
                    Some(e) => {
                        let rv = self.lower_expr(e);
                        self.assign_into_var(v, rv, line);
                    }
                    None => {
                        if !*is_array {
                            self.b.alloca(v, false, line);
                        }
                    }
                }
            }
            StmtKind::Assign { lhs, rhs } => self.lower_assign(lhs, rhs, line),
            StmtKind::Expr(e) => {
                let _ = self.lower_expr(e);
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let then_bb = self.b.new_block();
                let else_bb = self.b.new_block();
                let join = self.b.new_block();
                self.lower_cond(cond, then_bb, else_bb);
                self.b.switch_to(then_bb);
                self.scoped(|this| this.lower_stmts(then_body));
                self.b.jump(join, line);
                self.b.switch_to(else_bb);
                self.scoped(|this| this.lower_stmts(else_body));
                self.b.jump(join, line);
                self.b.switch_to(join);
            }
            StmtKind::While { cond, body } => {
                let header = self.b.new_block();
                let body_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.jump(header, line);
                self.b.switch_to(header);
                self.lower_cond(cond, body_bb, exit);
                self.b.switch_to(body_bb);
                self.s.loop_stack.push((header, exit));
                self.scoped(|this| this.lower_stmts(body));
                self.s.loop_stack.pop();
                self.b.jump(header, line);
                self.b.switch_to(exit);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mark = self.s.scopes.len();
                if let Some(i) = init {
                    self.lower_stmt(i);
                }
                let header = self.b.new_block();
                let body_bb = self.b.new_block();
                let step_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.jump(header, line);
                self.b.switch_to(header);
                match cond {
                    Some(c) => self.lower_cond(c, body_bb, exit),
                    None => self.b.jump(body_bb, line),
                }
                self.b.switch_to(body_bb);
                self.s.loop_stack.push((step_bb, exit));
                self.scoped(|this| this.lower_stmts(body));
                self.s.loop_stack.pop();
                self.b.jump(step_bb, line);
                self.b.switch_to(step_bb);
                if let Some(st) = step {
                    self.lower_stmt(st);
                }
                self.b.jump(header, line);
                self.b.switch_to(exit);
                self.s.scopes.truncate(mark);
            }
            StmtKind::Return(value) => {
                let op = value.as_ref().map(|e| self.lower_expr(e));
                self.b.ret(op, line);
            }
            StmtKind::Goto(label) => {
                let target = self.label_block(label);
                self.b.jump(target, line);
            }
            StmtKind::Label(label) => {
                let target = self.label_block(label);
                self.b.jump(target, line);
                self.b.switch_to(target);
            }
            StmtKind::Break => match self.s.loop_stack.last() {
                Some(&(_, exit)) => self.b.jump(exit, line),
                None => self.error(line, "`break` outside of a loop"),
            },
            StmtKind::Continue => match self.s.loop_stack.last() {
                Some(&(cont, _)) => self.b.jump(cont, line),
                None => self.error(line, "`continue` outside of a loop"),
            },
            StmtKind::Block(body) => self.scoped(|this| this.lower_stmts(body)),
        }
    }

    fn scoped(&mut self, f: impl FnOnce(&mut Self)) {
        let mark = self.s.scopes.len();
        f(self);
        self.s.scopes.truncate(mark);
    }

    fn assign_into_var(&mut self, dst: VarId, rv: Operand, line: u32) {
        match rv {
            Operand::Var(v) => self.b.mov(dst, v, line),
            Operand::Const(c) => self.b.assign_const(dst, c, line),
        }
    }

    fn lower_assign(&mut self, lhs: &'a Expr, rhs: &'a Expr, line: u32) {
        match &lhs.kind {
            ExprKind::Ident(name) => {
                let Some(v) = self.lookup(name) else {
                    self.error(line, format!("assignment to unknown variable `{name}`"));
                    return;
                };
                if self.s.struct_locals.contains(&v) {
                    // Struct copy — out of scope for mini-C; treat as memset.
                    let _ = self.lower_expr(rhs);
                    self.b.memset(v, line);
                    return;
                }
                let rv = self.lower_expr(rhs);
                self.assign_into_var(v, rv, line);
            }
            ExprKind::Deref(inner) => {
                let pv = self.lower_expr_as_var(inner);
                let rv = self.lower_expr(rhs);
                self.b.store(pv, rv, line);
            }
            ExprKind::Arrow(base, field) => {
                let addr = self.lower_field_addr_arrow(base, field, line);
                let rv = self.lower_expr(rhs);
                self.b.store(addr, rv, line);
            }
            ExprKind::Dot(base, field) => {
                let addr = self.lower_field_addr_dot(base, field, line);
                let rv = self.lower_expr(rhs);
                self.b.store(addr, rv, line);
            }
            ExprKind::Index(base, idx) => {
                let addr = self.lower_index_addr(base, idx, line);
                let rv = self.lower_expr(rhs);
                self.b.store(addr, rv, line);
            }
            _ => self.error(line, "unsupported assignment target"),
        }
    }

    // ------------------------------------------------------------------
    // Addresses of lvalues
    // ------------------------------------------------------------------

    /// `&base->field`.
    fn lower_field_addr_arrow(&mut self, base: &'a Expr, field: &'a Name, line: u32) -> VarId {
        let bv = self.lower_expr_as_var(base);
        self.field_addr(bv, field, line)
    }

    /// `&base.field` — base must itself be addressable.
    fn lower_field_addr_dot(&mut self, base: &'a Expr, field: &'a Name, line: u32) -> VarId {
        let addr = self.lower_addr(base, line);
        self.field_addr(addr, field, line)
    }

    /// A `gep` of `field` off the struct pointer `base`.
    fn field_addr(&mut self, base: VarId, field: &'a Name, line: u32) -> VarId {
        let sym = self.intern(field);
        let fty = match self.b.module().var(base).ty.struct_id() {
            Some(sid) => self.struct_field_ty(sid, sym),
            None => Type::Int,
        };
        let ty = self.ptr(fty);
        let t = self.b.temp(ty);
        self.b.gep(t, base, sym, line);
        t
    }

    /// `&base[idx]`.
    fn lower_index_addr(&mut self, base: &'a Expr, idx: &'a Expr, line: u32) -> VarId {
        let bv = self.lower_expr_as_var(base);
        let ety = {
            let bt = &self.b.module().var(bv).ty;
            bt.element().cloned().unwrap_or(Type::Int)
        };
        let iv = self.lower_expr(idx);
        let ty = self.ptr(ety);
        let t = self.b.temp(ty);
        self.b.index(t, bv, iv, line);
        t
    }

    /// The address of an lvalue expression (`&e`).
    fn lower_addr(&mut self, e: &'a Expr, line: u32) -> VarId {
        match &e.kind {
            ExprKind::Ident(name) => {
                let Some(v) = self.lookup(name) else {
                    self.error(line, format!("address of unknown variable `{name}`"));
                    let ty = self.ptr(Type::Int);
                    return self.b.temp(ty);
                };
                if self.s.struct_locals.contains(&v) {
                    // Struct-value locals *are* their own address.
                    v
                } else {
                    let pointee = self.var_ty(v);
                    let ty = self.ptr(pointee);
                    let t = self.b.temp(ty);
                    self.b.addr_of(t, v, line);
                    t
                }
            }
            ExprKind::Arrow(base, field) => self.lower_field_addr_arrow(base, field, line),
            ExprKind::Dot(base, field) => self.lower_field_addr_dot(base, field, line),
            ExprKind::Index(base, idx) => self.lower_index_addr(base, idx, line),
            ExprKind::Deref(inner) => self.lower_expr_as_var(inner),
            _ => {
                self.error(line, "cannot take the address of this expression");
                let ty = self.ptr(Type::Int);
                self.b.temp(ty)
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Lowers `e` into a variable; only a constant needs its static type
    /// (for the temporary that holds it).
    fn lower_expr_as_var(&mut self, e: &'a Expr) -> VarId {
        // Typing a cast declares any struct it names that is not yet known,
        // so a cast on the typed spine is typed first, as lowering always
        // did, to keep struct numbering unchanged.
        let cast_ty = if cast_on_typed_spine(e) {
            Some(self.infer_ty(e))
        } else {
            None
        };
        match self.lower_expr(e) {
            Operand::Var(v) => v,
            op @ Operand::Const(_) => {
                let ty = cast_ty.unwrap_or_else(|| self.infer_ty(e));
                self.as_var(op, ty, e.line)
            }
        }
    }

    fn lower_expr(&mut self, e: &'a Expr) -> Operand {
        let line = e.line;
        match &e.kind {
            ExprKind::Int(v) => Operand::Const(ConstVal::Int(*v)),
            ExprKind::Null => Operand::Const(ConstVal::Null),
            // A string argument is an opaque non-null pointer.
            ExprKind::Str(_) => Operand::Const(ConstVal::Int(1)),
            ExprKind::Sizeof => Operand::Const(ConstVal::Int(8)),
            ExprKind::Ident(name) => match self.lookup(name) {
                Some(v) => Operand::Var(v),
                None => {
                    if let Some(&fid) = self.func_ids.get(name) {
                        // Function used as a value: a first-class function
                        // address (runtime callback registration). The
                        // analysis may resolve indirect calls through it
                        // (the paper's §7 extension).
                        let ty = self.ptr(Type::Void);
                        let t = self.b.temp(ty);
                        self.b.func_addr(t, fid, line);
                        Operand::Var(t)
                    } else {
                        // Unknown identifiers (extern macros/constants like
                        // GFP_KERNEL) are opaque integers.
                        Operand::Const(ConstVal::Int(1))
                    }
                }
            },
            ExprKind::Arrow(base, field) => {
                let addr = self.lower_field_addr_arrow(base, field, line);
                let vty = self.pointee_ty(addr);
                let r = self.b.temp(vty);
                self.b.load(r, addr, line);
                Operand::Var(r)
            }
            ExprKind::Dot(base, field) => {
                let addr = self.lower_field_addr_dot(base, field, line);
                let vty = self.pointee_ty(addr);
                let r = self.b.temp(vty);
                self.b.load(r, addr, line);
                Operand::Var(r)
            }
            ExprKind::Index(base, idx) => {
                let addr = self.lower_index_addr(base, idx, line);
                let vty = self.pointee_ty(addr);
                let r = self.b.temp(vty);
                self.b.load(r, addr, line);
                Operand::Var(r)
            }
            ExprKind::Deref(inner) => {
                let pv = self.lower_expr_as_var(inner);
                let vty = self.pointee_ty(pv);
                let r = self.b.temp(vty);
                self.b.load(r, pv, line);
                Operand::Var(r)
            }
            ExprKind::AddrOf(inner) => Operand::Var(self.lower_addr(inner, line)),
            ExprKind::Not(inner) => {
                let zero = self.zero_for(inner);
                let iv = self.lower_expr(inner);
                let r = self.b.temp(Type::Bool);
                self.b.cmp(r, CmpOp::Eq, iv, zero, line);
                Operand::Var(r)
            }
            ExprKind::Neg(inner) => {
                let iv = self.lower_expr(inner);
                if let Operand::Const(ConstVal::Int(v)) = iv {
                    return Operand::Const(ConstVal::Int(-v));
                }
                let r = self.b.temp(Type::Int);
                self.b.bin(r, BinOp::Sub, 0i64, iv, line);
                Operand::Var(r)
            }
            ExprKind::BitNot(inner) => {
                let iv = self.lower_expr(inner);
                let r = self.b.temp(Type::Int);
                self.b.bin(r, BinOp::Xor, iv, -1i64, line);
                Operand::Var(r)
            }
            ExprKind::Bin(op, lhs, rhs) => self.lower_binop(*op, lhs, rhs, line),
            ExprKind::Call(callee, args) => self.lower_call(callee, args, line),
            ExprKind::Cast(_, inner) => self.lower_expr(inner),
            ExprKind::Assign(lhs, rhs) => {
                self.lower_assign(lhs, rhs, line);
                // The value of the assignment is the assigned lvalue.
                self.lower_expr(lhs)
            }
        }
    }

    fn lower_binop(&mut self, op: AstBinOp, lhs: &'a Expr, rhs: &'a Expr, line: u32) -> Operand {
        let ir_op = match op {
            AstBinOp::Add => Some(BinOp::Add),
            AstBinOp::Sub => Some(BinOp::Sub),
            AstBinOp::Mul => Some(BinOp::Mul),
            AstBinOp::Div => Some(BinOp::Div),
            AstBinOp::Rem => Some(BinOp::Rem),
            AstBinOp::BitAnd | AstBinOp::LogAnd => Some(BinOp::And),
            AstBinOp::BitOr | AstBinOp::LogOr => Some(BinOp::Or),
            AstBinOp::BitXor => Some(BinOp::Xor),
            AstBinOp::Shl => Some(BinOp::Shl),
            AstBinOp::Shr => Some(BinOp::Shr),
            _ => None,
        };
        if let Some(bop) = ir_op {
            let lv = self.lower_expr(lhs);
            let rv = self.lower_expr(rhs);
            let r = self.b.temp(Type::Int);
            self.b.bin(r, bop, lv, rv, line);
            return Operand::Var(r);
        }
        let cmp = match op {
            AstBinOp::Eq => CmpOp::Eq,
            AstBinOp::Ne => CmpOp::Ne,
            AstBinOp::Lt => CmpOp::Lt,
            AstBinOp::Le => CmpOp::Le,
            AstBinOp::Gt => CmpOp::Gt,
            AstBinOp::Ge => CmpOp::Ge,
            _ => unreachable!("handled above"),
        };
        let lv = self.lower_expr(lhs);
        let rv = self.lower_expr(rhs);
        let r = self.b.temp(Type::Bool);
        self.b.cmp(r, cmp, lv, rv, line);
        Operand::Var(r)
    }

    fn lower_call(&mut self, callee: &'a Expr, args: &'a [Expr], line: u32) -> Operand {
        // A call through a *variable* (function pointer held in a local,
        // parameter or global) is indirect, even when the spelling looks
        // like a plain identifier call.
        if let ExprKind::Ident(name) = &callee.kind {
            if self.lookup(name).is_some() {
                let target = self.lower_expr_as_var(callee);
                let arg_ops: Vec<Operand> = args.iter().map(|a| self.lower_expr(a)).collect();
                let dst = self.b.temp(Type::Int);
                self.b
                    .call(Some(dst), Callee::Indirect(target), arg_ops, line);
                return Operand::Var(dst);
            }
        }
        if let ExprKind::Ident(name) = &callee.kind {
            // OS allocation / locking idioms become dedicated instructions.
            match name.as_bytes() {
                b"malloc" | b"kmalloc" | b"vmalloc" | b"tos_mmheap_alloc" => {
                    for a in args {
                        let _ = self.lower_expr(a);
                    }
                    let ty = self.ptr(Type::Void);
                    let t = self.b.temp(ty);
                    self.b.malloc(t, line);
                    return Operand::Var(t);
                }
                b"kzalloc" | b"calloc" | b"devm_kzalloc" => {
                    for a in args {
                        let _ = self.lower_expr(a);
                    }
                    let ty = self.ptr(Type::Void);
                    let t = self.b.temp(ty);
                    self.b.malloc(t, line);
                    self.b.memset(t, line);
                    return Operand::Var(t);
                }
                b"free" | b"kfree" | b"vfree" | b"tos_mmheap_free" => {
                    if let Some(a) = args.first() {
                        let v = self.lower_expr_as_var(a);
                        self.b.free(v, line);
                    }
                    return Operand::Const(ConstVal::Int(0));
                }
                b"memset" | b"memcpy" | b"memmove" => {
                    if let Some(a) = args.first() {
                        let v = self.lower_expr_as_var(a);
                        self.b.memset(v, line);
                    }
                    for a in args.iter().skip(1) {
                        let _ = self.lower_expr(a);
                    }
                    return Operand::Const(ConstVal::Int(0));
                }
                b"spin_lock"
                | b"mutex_lock"
                | b"raw_spin_lock"
                | b"spin_lock_irqsave"
                | b"tos_knl_sched_lock" => {
                    if let Some(a) = args.first() {
                        let v = self.lower_expr_as_var(a);
                        self.b.lock(v, line);
                    }
                    return Operand::Const(ConstVal::Int(0));
                }
                b"spin_unlock"
                | b"mutex_unlock"
                | b"raw_spin_unlock"
                | b"spin_unlock_irqrestore"
                | b"tos_knl_sched_unlock" => {
                    if let Some(a) = args.first() {
                        let v = self.lower_expr_as_var(a);
                        self.b.unlock(v, line);
                    }
                    return Operand::Const(ConstVal::Int(0));
                }
                _ => {}
            }
            let arg_ops: Vec<Operand> = args.iter().map(|a| self.lower_expr(a)).collect();
            if let Some(&fid) = self.func_ids.get(name) {
                // The callee may not be lowered yet, so its return type is
                // unknown here. A pointer-compatible `Int` result is
                // adequate: PIR is not type-checked across assignments.
                let dst = self.b.temp(Type::Int);
                self.b.call(Some(dst), Callee::Direct(fid), arg_ops, line);
                return Operand::Var(dst);
            }
            // External function.
            let sym = self.intern(name);
            let dst = self.b.temp(Type::Int);
            self.b.call(Some(dst), Callee::External(sym), arg_ops, line);
            return Operand::Var(dst);
        }
        // Indirect call through an expression (function-pointer field).
        let target = self.lower_expr_as_var(callee);
        let arg_ops: Vec<Operand> = args.iter().map(|a| self.lower_expr(a)).collect();
        let dst = self.b.temp(Type::Int);
        self.b
            .call(Some(dst), Callee::Indirect(target), arg_ops, line);
        Operand::Var(dst)
    }

    // ------------------------------------------------------------------
    // Branch conditions (short-circuit lowering)
    // ------------------------------------------------------------------

    fn lower_cond(&mut self, cond: &'a Expr, then_bb: BlockId, else_bb: BlockId) {
        let line = cond.line;
        match &cond.kind {
            ExprKind::Bin(AstBinOp::LogAnd, a, bx) => {
                let mid = self.b.new_block();
                self.lower_cond(a, mid, else_bb);
                self.b.switch_to(mid);
                self.lower_cond(bx, then_bb, else_bb);
            }
            ExprKind::Bin(AstBinOp::LogOr, a, bx) => {
                let mid = self.b.new_block();
                self.lower_cond(a, then_bb, mid);
                self.b.switch_to(mid);
                self.lower_cond(bx, then_bb, else_bb);
            }
            ExprKind::Not(inner) => self.lower_cond(inner, else_bb, then_bb),
            ExprKind::Bin(op, lhs, rhs) if op.is_comparison() => {
                let cmp = match op {
                    AstBinOp::Eq => CmpOp::Eq,
                    AstBinOp::Ne => CmpOp::Ne,
                    AstBinOp::Lt => CmpOp::Lt,
                    AstBinOp::Le => CmpOp::Le,
                    AstBinOp::Gt => CmpOp::Gt,
                    AstBinOp::Ge => CmpOp::Ge,
                    _ => unreachable!(),
                };
                let lv = self.lower_expr(lhs);
                let rv = self.lower_expr(rhs);
                let c = self.b.temp(Type::Bool);
                self.b.cmp(c, cmp, lv, rv, line);
                self.b.branch(c, then_bb, else_bb, line);
            }
            _ => {
                // Truthiness: e != 0 / e != NULL.
                let zero = self.zero_for(cond);
                let v = self.lower_expr(cond);
                let c = self.b.temp(Type::Bool);
                self.b.cmp(c, CmpOp::Ne, v, zero, line);
                self.b.branch(c, then_bb, else_bb, line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pata_ir::{print_module, verify_module, InstKind, Terminator};

    fn compile(src: &str) -> Module {
        let mut cc = Compiler::new();
        cc.add_source("test.c", src);
        match cc.compile() {
            Ok(m) => m,
            Err(ds) => panic!("compile failed: {:?}", ds),
        }
    }

    #[test]
    fn lowers_figure3_pattern() {
        // Zephyr friend_set bug shape (paper Fig. 3).
        let m = compile(
            r#"
            struct model_t { struct cfg_t *user_data; };
            struct cfg_t { int frnd; };
            void send_friend_status(struct model_t *model) {
                struct cfg_t *cfg = model->user_data;
                int x = cfg->frnd;
            }
            void friend_set(struct model_t *model) {
                struct cfg_t *cfg = model->user_data;
                if (!cfg) {
                    goto send_status;
                }
                cfg->frnd = 1;
            send_status:
                send_friend_status(model);
            }
            "#,
        );
        assert!(verify_module(&m).is_ok(), "{:?}", verify_module(&m));
        assert!(m.function_by_name("friend_set").is_some());
        let text = print_module(&m);
        assert!(text.contains("gep"), "{text}");
        assert!(text.contains("call send_friend_status"), "{text}");
    }

    #[test]
    fn direct_calls_resolve_across_files() {
        let mut cc = Compiler::new();
        cc.add_source("a.c", "int helper(int x) { return x + 1; }");
        cc.add_source("b.c", "int caller(void) { return helper(1); }");
        let m = cc.compile().unwrap();
        let caller = m.function_by_name("caller").unwrap();
        let f = m.function(caller);
        let has_direct = f.blocks().iter().flat_map(|b| &b.insts).any(|i| {
            matches!(&i.kind, InstKind::Call { callee: Callee::Direct(fid), .. }
                if m.function(*fid).name() == "helper")
        });
        assert!(has_direct);
    }

    #[test]
    fn os_idioms_lower_to_events() {
        let m = compile(
            r#"
            struct lk { int locked; };
            void f(struct lk *l) {
                int *p = kmalloc(8);
                spin_lock(l);
                memset(p, 0, 8);
                spin_unlock(l);
                kfree(p);
            }
            "#,
        );
        let f = m.function(m.function_by_name("f").unwrap());
        let kinds: Vec<&'static str> = f
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .map(|i| match &i.kind {
                InstKind::Malloc { .. } => "malloc",
                InstKind::Free { .. } => "free",
                InstKind::Memset { .. } => "memset",
                InstKind::Lock { .. } => "lock",
                InstKind::Unlock { .. } => "unlock",
                _ => "",
            })
            .filter(|s| !s.is_empty())
            .collect();
        assert_eq!(kinds, vec!["malloc", "lock", "memset", "unlock", "free"]);
    }

    #[test]
    fn short_circuit_creates_blocks() {
        let m = compile("int f(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }");
        let f = m.function(m.function_by_name("f").unwrap());
        // entry, mid, then, else, join — at least 5 blocks.
        assert!(f.blocks().len() >= 5, "blocks: {}", f.blocks().len());
    }

    #[test]
    fn while_loop_shape() {
        let m = compile("int f(int n) { int i = 0; while (i < n) { i++; } return i; }");
        let f = m.function(m.function_by_name("f").unwrap());
        assert!(verify_module(&m).is_ok());
        // Find a back edge: some block jumps to an earlier block.
        let mut has_back = false;
        for (bi, b) in f.blocks().iter().enumerate() {
            for s in b.term.successors() {
                if s.index() < bi {
                    has_back = true;
                }
            }
        }
        assert!(has_back);
    }

    #[test]
    fn null_in_pointer_condition() {
        let m = compile(
            "struct d { int x; }; int f(struct d *p) { if (p) { return p->x; } return 0; }",
        );
        let f = m.function(m.function_by_name("f").unwrap());
        // Truthiness of a pointer compares against null, not 0.
        let has_null_cmp = f.blocks().iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                &i.kind,
                InstKind::Cmp {
                    rhs: Operand::Const(ConstVal::Null),
                    ..
                }
            )
        });
        assert!(has_null_cmp);
    }

    #[test]
    fn uninitialized_local_gets_alloca() {
        let m = compile("int f(void) { int x; x = 3; return x; }");
        let f = m.function(m.function_by_name("f").unwrap());
        let has_alloca = f
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(&i.kind, InstKind::Alloca { .. }));
        assert!(has_alloca);
    }

    #[test]
    fn initialized_local_skips_alloca() {
        let m = compile("int f(void) { int x = 3; return x; }");
        let f = m.function(m.function_by_name("f").unwrap());
        let has_alloca = f
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(&i.kind, InstKind::Alloca { .. }));
        assert!(!has_alloca);
    }

    #[test]
    fn missing_return_synthesized() {
        let m = compile("void f(int x) { if (x) { return; } }");
        let f = m.function(m.function_by_name("f").unwrap());
        let exits = f
            .blocks()
            .iter()
            .filter(|b| matches!(b.term, Terminator::Ret(_)))
            .count();
        assert!(exits >= 2);
    }

    #[test]
    fn category_inferred_from_path() {
        let mut cc = Compiler::new();
        cc.add_source("drivers/net/e1000.c", "void probe(void) { }");
        let m = cc.compile().unwrap();
        assert_eq!(
            m.file(pata_ir::FileId::from_index(0)).category,
            Category::Drivers
        );
        let f = m.function(m.function_by_name("probe").unwrap());
        assert_eq!(f.category(), Category::Drivers);
    }

    #[test]
    fn indirect_call_through_field() {
        let m = compile(
            r#"
            struct ops { int x; };
            int f(struct ops *o) { return o->x(3); }
            "#,
        );
        let f = m.function(m.function_by_name("f").unwrap());
        let has_indirect = f.blocks().iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                &i.kind,
                InstKind::Call {
                    callee: Callee::Indirect(_),
                    ..
                }
            )
        });
        assert!(has_indirect);
    }

    #[test]
    fn duplicate_function_rejected() {
        let mut cc = Compiler::new();
        cc.add_source("a.c", "int f(void) { return 0; }");
        cc.add_source("b.c", "int f(void) { return 1; }");
        let err = cc.compile().unwrap_err();
        assert!(err[0].message.contains("duplicate"));
    }

    #[test]
    fn address_of_scalar_local() {
        let m = compile(
            r#"
            void init(int *out) { *out = 5; }
            int f(void) { int v; init(&v); return v; }
            "#,
        );
        let f = m.function(m.function_by_name("f").unwrap());
        let has_addrof = f
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(&i.kind, InstKind::AddrOf { .. }));
        assert!(has_addrof);
    }

    #[test]
    fn operand_cast_declares_its_struct_in_order() {
        // Typing `*(struct undeclared *)p`'s operand declares the struct,
        // before `struct later` is met; the struct ids are printed.
        let m = compile(
            r#"
            int f(int *p) { return *(struct undeclared *)p; }
            void g(void) { struct later *q; }
            "#,
        );
        let undeclared = m.struct_by_name("undeclared").expect("declared");
        let later = m.struct_by_name("later").expect("declared");
        assert!(undeclared.index() < later.index());
    }

    /// Lowers `old` in full, then `new` in place over it, and returns
    /// whether that worked; when it did, the module must equal a cold
    /// lowering of `new`.
    fn relowers(old: &[(&str, &str)], new: &[(&str, &str)]) -> bool {
        let parse = |files: &[(&str, &str)]| -> Vec<Unit> {
            files
                .iter()
                .map(|(name, text)| Parser::parse_source(name, text).unwrap())
                .collect()
        };
        let (old, new) = (parse(old), parse(new));
        fn with_cat(units: &[Unit]) -> Vec<(&Unit, Option<Category>)> {
            units.iter().map(|u| (u, None)).collect()
        }
        let kept = LoweredModule::lower(&with_cat(&old)).unwrap();
        let changed: Vec<(usize, &Unit)> = old
            .iter()
            .zip(&new)
            .enumerate()
            .filter(|(_, (o, n))| o != n)
            .map(|(i, (o, _))| (i, o))
            .collect();
        let Some((kept, relowered)) = kept.relower(&with_cat(&new), &changed) else {
            return false;
        };
        let cold = lower_units(&with_cat(&new)).unwrap();
        assert_eq!(print_module(kept.module()), print_module(&cold));
        assert_eq!(kept.module().var_count(), cold.var_count());
        assert_eq!(
            kept.module().interner.strings().collect::<Vec<_>>(),
            cold.interner.strings().collect::<Vec<_>>()
        );
        assert!(!relowered.is_empty() || changed.is_empty());
        true
    }

    #[test]
    fn relowering_a_body_edit_in_place_matches_a_cold_lowering() {
        let b = (
            "b.c",
            "struct s { int *p; }; int g(struct s *x) { log_g(1); return *x->p; }",
        );
        assert!(relowers(
            &[("a.c", "int f(int n) { log_f(n); return g(0); }"), b],
            &[
                (
                    "a.c",
                    "int f(int n) {\n int k = 2; if (k > 1) { } log_f(n); return g(k); }"
                ),
                b,
            ],
        ));
        // Symbols an earlier function created are free to use.
        assert!(relowers(
            &[("a.c", "int f(int n) { log_f(n); return 0; }"), b],
            &[
                ("a.c", "int f(int n) { log_f(n); return 0; }"),
                ("b.c", "struct s { int *p; }; int g(struct s *x) { log_f(2); log_g(1); return *x->p; }"),
            ],
        ));
    }

    #[test]
    fn relowering_refuses_what_a_cold_lowering_numbers_differently() {
        let g = ("b.c", "int g(void) { x3(); return 0; }");
        let old = [("a.c", "int f(void) { x1(); x2(); return 0; }"), g];
        let refused = [
            // New symbols, first used in another order.
            "int f(void) { x2(); x1(); return 0; }",
            // A symbol the function created is no longer used by it.
            "int f(void) { x1(); return 0; }",
            // A symbol a later function created is used first here.
            "int f(void) { x1(); x2(); x3(); return 0; }",
            // A brand-new symbol.
            "int f(void) { x1(); x2(); x4(); return 0; }",
            // A changed declaration.
            "int *f(void) { x1(); x2(); return 0; }",
            // A diagnostic.
            "int f(void) { x1(); x2(); break; return 0; }",
        ];
        for text in refused {
            assert!(!relowers(&old, &[("a.c", text), g]), "{text}");
        }
        // The hazard of `operand_cast_declares_its_struct_in_order`: a
        // struct a later function declared, now first met earlier.
        assert!(!relowers(
            &[
                ("a.c", "int f(int *p) { return *(struct undeclared *)p; }"),
                ("b.c", "void g(void) { struct later *q; }"),
            ],
            &[
                (
                    "a.c",
                    "int f(int *p) { struct later *r; return *(struct undeclared *)p; }"
                ),
                ("b.c", "void g(void) { struct later *q; }"),
            ],
        ));
    }

    #[test]
    fn struct_value_local_is_addressable() {
        let m = compile(
            r#"
            struct pt { int x; int y; };
            int f(void) {
                struct pt p;
                p.x = 1;
                p.y = 2;
                return p.x + p.y;
            }
            "#,
        );
        assert!(verify_module(&m).is_ok());
        let f = m.function(m.function_by_name("f").unwrap());
        let geps = f
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(&i.kind, InstKind::Gep { .. }))
            .count();
        assert!(geps >= 4);
    }
}
