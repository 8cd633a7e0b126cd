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
use crate::parser::Parser;
use pata_ir::{
    BinOp, BlockId, Callee, Category, CmpOp, ConstVal, FileId, FuncId, FunctionBuilder, Module,
    Operand, StructDef, StructId, Symbol, Type, VarId,
};
use std::collections::{HashMap, HashSet};

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
        for (name, text, category) in &self.sources {
            match Parser::parse_source(name, text) {
                Ok(unit) => units.push((unit, *category)),
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
/// and calls it, and a caller that keeps [`Unit`]s across compilations
/// (re-parsing only the files whose text changed) calls it directly. The
/// module depends only on the units and their order, never on where they
/// came from: files, structs, globals and functions get their ids in unit
/// order, so the same units in the same order give a byte-identical
/// module. A unit's category is inferred from its file name (see
/// [`Compiler::add_source`]) when it is `None`.
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
    let mut diags = Vec::new();
    let mut module = Module::new();
    let mut files = Vec::new();
    for (unit, category) in units {
        let cat = category.unwrap_or_else(|| infer_category(&unit.file));
        files.push(module.add_file_with_meta(&unit.file, unit.lines, cat));
    }

    // Pass 1: declare all struct names (allows recursive/forward refs),
    // then fill in fields.
    for (unit, _) in units {
        for s in &unit.structs {
            if module.struct_by_name(&s.name).is_none() {
                module.add_struct(StructDef {
                    name: s.name.clone(),
                    fields: Vec::new(),
                });
            }
        }
    }
    for (unit, _) in units {
        for s in &unit.structs {
            let fields: Vec<_> = s
                .fields
                .iter()
                .map(|(fname, fty)| {
                    let sym = module.interner.intern(fname);
                    let ty = resolve_type(&mut module, fty);
                    (sym, ty)
                })
                .collect();
            module.add_struct(StructDef {
                name: s.name.clone(),
                fields,
            });
        }
    }

    // Pass 2: globals.
    let mut globals: HashMap<&str, VarId> = HashMap::new();
    for (unit, _) in units {
        for g in &unit.globals {
            let ty = resolve_type(&mut module, &g.ty);
            let id = module.add_global(&g.name, ty);
            globals.insert(&g.name, id);
        }
    }

    // Pass 3: assign function ids in declaration order so direct calls
    // across files resolve (the information collector's database).
    let mut func_ids: HashMap<&str, FuncId> = HashMap::new();
    let mut all_funcs: Vec<(usize, &FuncDecl, FileId, Category)> = Vec::new();
    for ((unit, category), &file) in units.iter().zip(&files) {
        let cat = category.unwrap_or_else(|| infer_category(&unit.file));
        for f in &unit.functions {
            if func_ids.contains_key(f.name.as_str()) {
                diags.push(Diag::new(
                    DiagKind::Sema,
                    &unit.file,
                    f.line,
                    format!("duplicate definition of function `{}`", f.name),
                ));
                continue;
            }
            func_ids.insert(&f.name, FuncId::from_index(all_funcs.len()));
            all_funcs.push((all_funcs.len(), f, file, cat));
        }
    }
    if !diags.is_empty() {
        return Err(diags);
    }

    // Pass 4: lower bodies in id order.
    for (idx, decl, file, cat) in &all_funcs {
        let lowerer = LowerFn::new(
            &mut module,
            decl,
            *file,
            *cat,
            &func_ids,
            &globals,
            &mut diags,
        );
        let got = lowerer.lower();
        debug_assert_eq!(got.index(), *idx);
    }
    if !diags.is_empty() {
        return Err(diags);
    }
    Ok(module)
}

fn infer_category(path: &str) -> Category {
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

fn resolve_type(module: &mut Module, t: &TypeExpr) -> Type {
    match t {
        TypeExpr::Int => Type::Int,
        TypeExpr::Void => Type::Void,
        TypeExpr::Struct(name) => {
            let id = module.struct_by_name(name).unwrap_or_else(|| {
                module.add_struct(StructDef {
                    name: name.clone(),
                    fields: Vec::new(),
                })
            });
            Type::Struct(id)
        }
        TypeExpr::Ptr(inner) => Type::ptr(resolve_type(module, inner)),
    }
}

/// Per-function lowering state. It borrows the function's AST: names in
/// the scope and label stacks point into it.
struct LowerFn<'a, 'm> {
    b: FunctionBuilder<'m>,
    file: FileId,
    decl: &'a FuncDecl,
    func_ids: &'a HashMap<&'a str, FuncId>,
    globals: &'a HashMap<&'a str, VarId>,
    diags: &'a mut Vec<Diag>,
    /// Every visible declaration, outermost first; a scope is the suffix
    /// pushed since its mark ([`LowerFn::scoped`]). Lookups search from the
    /// innermost end, so a shadowing declaration wins.
    scopes: Vec<(&'a str, VarId)>,
    /// Locals declared as struct *values*: the VarId is the address of the
    /// storage, so `&x` is the variable itself.
    struct_locals: HashSet<VarId>,
    /// Function-wide label targets (a `goto` may precede its label).
    labels: Vec<(&'a str, BlockId)>,
    loop_stack: Vec<(BlockId, BlockId)>, // (continue target, break target)
}

impl<'a, 'm> LowerFn<'a, 'm> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        module: &'m mut Module,
        decl: &'a FuncDecl,
        file: FileId,
        category: Category,
        func_ids: &'a HashMap<&'a str, FuncId>,
        globals: &'a HashMap<&'a str, VarId>,
        diags: &'a mut Vec<Diag>,
    ) -> Self {
        let mut b = FunctionBuilder::new(module, &decl.name, file);
        b.set_category(category);
        LowerFn {
            b,
            file,
            decl,
            func_ids,
            globals,
            diags,
            scopes: Vec::new(),
            struct_locals: HashSet::new(),
            labels: Vec::new(),
            loop_stack: Vec::new(),
        }
    }

    fn error(&mut self, line: u32, msg: impl Into<String>) {
        let file = &self.b.module().file(self.file).name;
        self.diags.push(Diag::new(DiagKind::Sema, file, line, msg));
    }

    fn lower(mut self) -> FuncId {
        let decl = self.decl;
        let ret = resolve_type(self.b.module(), &decl.ret);
        self.b.set_ret_ty(ret);
        for p in &decl.params {
            let ty = resolve_type(self.b.module(), &p.ty);
            let v = self.b.param(&p.name, ty);
            self.scopes.push((&p.name, v));
        }
        self.lower_stmts(&decl.body);
        if !self.b.is_terminated() {
            let line = decl.body.last().map(|s| s.line).unwrap_or(decl.line);
            self.b.ret(None, line);
        }
        self.b.finish()
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        match self.scopes.iter().rev().find(|(n, _)| *n == name) {
            Some(&(_, v)) => Some(v),
            None => self.globals.get(name).copied(),
        }
    }

    fn var_ty(&mut self, v: VarId) -> Type {
        self.b.module().var(v).ty.clone()
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
    fn infer_ty(&mut self, e: &Expr) -> Type {
        match &e.kind {
            ExprKind::Int(_) | ExprKind::Sizeof => Type::Int,
            ExprKind::Null => Type::ptr(Type::Void),
            ExprKind::Str(_) => Type::ptr(Type::Int),
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
            ExprKind::AddrOf(inner) => Type::ptr(self.infer_ty(inner)),
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
                    match name.as_str() {
                        "malloc" | "kmalloc" | "kzalloc" | "vmalloc" => {
                            return Type::ptr(Type::Void)
                        }
                        _ => {}
                    }
                    if let Some(&fid) = self.func_ids.get(name.as_str()) {
                        if fid.index() < self.b.module().functions().len() {
                            return self.b.module().function(fid).ret_ty().clone();
                        }
                        // Not lowered yet — fall back to the declared AST type
                        // is unavailable here; assume pointer-sized int.
                        return Type::Int;
                    }
                }
                Type::Int
            }
            ExprKind::Cast(ty, _) => {
                let t = ty.clone();
                resolve_type(self.b.module(), &t)
            }
            ExprKind::Assign(_, rhs) => self.infer_ty(rhs),
        }
    }

    /// The type of `field` in the struct `base_ty` names (through one
    /// pointer); `Int` when unknown.
    fn field_ty(&mut self, base_ty: &Type, field: &str) -> Type {
        match base_ty.struct_id() {
            Some(sid) => {
                let sym = self.b.module().interner.intern(field);
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
    fn zero_for(&mut self, e: &Expr) -> ConstVal {
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

    fn label_block(&mut self, name: &'a str) -> BlockId {
        if let Some(&(_, b)) = self.labels.iter().find(|(n, _)| *n == name) {
            return b;
        }
        let b = self.b.new_block();
        self.labels.push((name, b));
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
                let resolved = resolve_type(self.b.module(), ty);
                let (var_ty, is_struct_value) = if *is_array {
                    (Type::array(resolved), false)
                } else if matches!(resolved, Type::Struct(_)) {
                    (Type::ptr(resolved), true)
                } else {
                    (resolved, false)
                };
                let v = self.b.local(name, var_ty);
                self.scopes.push((name, v));
                if is_struct_value {
                    self.struct_locals.insert(v);
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
                self.loop_stack.push((header, exit));
                self.scoped(|this| this.lower_stmts(body));
                self.loop_stack.pop();
                self.b.jump(header, line);
                self.b.switch_to(exit);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mark = self.scopes.len();
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
                self.loop_stack.push((step_bb, exit));
                self.scoped(|this| this.lower_stmts(body));
                self.loop_stack.pop();
                self.b.jump(step_bb, line);
                self.b.switch_to(step_bb);
                if let Some(st) = step {
                    self.lower_stmt(st);
                }
                self.b.jump(header, line);
                self.b.switch_to(exit);
                self.scopes.truncate(mark);
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
            StmtKind::Break => match self.loop_stack.last() {
                Some(&(_, exit)) => self.b.jump(exit, line),
                None => self.error(line, "`break` outside of a loop"),
            },
            StmtKind::Continue => match self.loop_stack.last() {
                Some(&(cont, _)) => self.b.jump(cont, line),
                None => self.error(line, "`continue` outside of a loop"),
            },
            StmtKind::Block(body) => self.scoped(|this| this.lower_stmts(body)),
        }
    }

    fn scoped(&mut self, f: impl FnOnce(&mut Self)) {
        let mark = self.scopes.len();
        f(self);
        self.scopes.truncate(mark);
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
                if self.struct_locals.contains(&v) {
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
    fn lower_field_addr_arrow(&mut self, base: &'a Expr, field: &str, line: u32) -> VarId {
        let bv = self.lower_expr_as_var(base);
        self.field_addr(bv, field, line)
    }

    /// `&base.field` — base must itself be addressable.
    fn lower_field_addr_dot(&mut self, base: &'a Expr, field: &str, line: u32) -> VarId {
        let addr = self.lower_addr(base, line);
        self.field_addr(addr, field, line)
    }

    /// A `gep` of `field` off the struct pointer `base`.
    fn field_addr(&mut self, base: VarId, field: &str, line: u32) -> VarId {
        let sym = self.b.module().interner.intern(field);
        let fty = match self.b.module().var(base).ty.struct_id() {
            Some(sid) => self.struct_field_ty(sid, sym),
            None => Type::Int,
        };
        let t = self.b.temp(Type::ptr(fty));
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
        let t = self.b.temp(Type::ptr(ety));
        self.b.index(t, bv, iv, line);
        t
    }

    /// The address of an lvalue expression (`&e`).
    fn lower_addr(&mut self, e: &'a Expr, line: u32) -> VarId {
        match &e.kind {
            ExprKind::Ident(name) => {
                let Some(v) = self.lookup(name) else {
                    self.error(line, format!("address of unknown variable `{name}`"));
                    return self.b.temp(Type::ptr(Type::Int));
                };
                if self.struct_locals.contains(&v) {
                    // Struct-value locals *are* their own address.
                    v
                } else {
                    let ty = Type::ptr(self.var_ty(v));
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
                self.b.temp(Type::ptr(Type::Int))
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
                    if let Some(&fid) = self.func_ids.get(name.as_str()) {
                        // Function used as a value: a first-class function
                        // address (runtime callback registration). The
                        // analysis may resolve indirect calls through it
                        // (the paper's §7 extension).
                        let t = self.b.temp(Type::ptr(Type::Void));
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
            match name.as_str() {
                "malloc" | "kmalloc" | "vmalloc" | "tos_mmheap_alloc" => {
                    for a in args {
                        let _ = self.lower_expr(a);
                    }
                    let t = self.b.temp(Type::ptr(Type::Void));
                    self.b.malloc(t, line);
                    return Operand::Var(t);
                }
                "kzalloc" | "calloc" | "devm_kzalloc" => {
                    for a in args {
                        let _ = self.lower_expr(a);
                    }
                    let t = self.b.temp(Type::ptr(Type::Void));
                    self.b.malloc(t, line);
                    self.b.memset(t, line);
                    return Operand::Var(t);
                }
                "free" | "kfree" | "vfree" | "tos_mmheap_free" => {
                    if let Some(a) = args.first() {
                        let v = self.lower_expr_as_var(a);
                        self.b.free(v, line);
                    }
                    return Operand::Const(ConstVal::Int(0));
                }
                "memset" | "memcpy" | "memmove" => {
                    if let Some(a) = args.first() {
                        let v = self.lower_expr_as_var(a);
                        self.b.memset(v, line);
                    }
                    for a in args.iter().skip(1) {
                        let _ = self.lower_expr(a);
                    }
                    return Operand::Const(ConstVal::Int(0));
                }
                "spin_lock" | "mutex_lock" | "raw_spin_lock" | "spin_lock_irqsave"
                | "tos_knl_sched_lock" => {
                    if let Some(a) = args.first() {
                        let v = self.lower_expr_as_var(a);
                        self.b.lock(v, line);
                    }
                    return Operand::Const(ConstVal::Int(0));
                }
                "spin_unlock"
                | "mutex_unlock"
                | "raw_spin_unlock"
                | "spin_unlock_irqrestore"
                | "tos_knl_sched_unlock" => {
                    if let Some(a) = args.first() {
                        let v = self.lower_expr_as_var(a);
                        self.b.unlock(v, line);
                    }
                    return Operand::Const(ConstVal::Int(0));
                }
                _ => {}
            }
            let arg_ops: Vec<Operand> = args.iter().map(|a| self.lower_expr(a)).collect();
            if let Some(&fid) = self.func_ids.get(name.as_str()) {
                // The callee may not be lowered yet, so its return type is
                // unknown here. A pointer-compatible `Int` result is
                // adequate: PIR is not type-checked across assignments.
                let dst = self.b.temp(Type::Int);
                self.b.call(Some(dst), Callee::Direct(fid), arg_ops, line);
                return Operand::Var(dst);
            }
            // External function.
            let sym = self.b.module().interner.intern(name);
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
