//! String interning for identifiers (variable names, field names, function
//! names). Field names appear as alias-graph edge labels, so comparing them
//! must be O(1); interning gives each distinct string a stable [`Symbol`].

use std::collections::HashMap;
use std::fmt;

/// An interned string handle.
///
/// Two `Symbol`s produced by the same [`Interner`] are equal iff the strings
/// they intern are equal. Symbols are `Copy` and hashable, making them cheap
/// alias-graph edge labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the raw index of this symbol within its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A string interner mapping strings to stable [`Symbol`] handles.
///
/// # Example
///
/// ```
/// use pata_ir::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("frnd");
/// let b = interner.intern("frnd");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "frnd");
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: HashMap<String, Symbol>,
    strings: Vec<String>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the existing symbol if `s` was seen before.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.strings.len()).expect("too many symbols"));
        self.strings.push(s.to_owned());
        self.map.insert(s.to_owned(), sym);
        sym
    }

    /// Looks up a previously interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// The interned strings, in symbol order.
    pub fn strings(&self) -> impl Iterator<Item = &str> {
        self.strings.iter().map(String::as_str)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        let c = i.intern("x");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let names = ["plat_dev", "user_data", "frnd", "ktask"];
        let syms: Vec<_> = names.iter().map(|n| i.intern(n)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(*sym), *name);
        }
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert!(i.get("missing").is_none());
        assert!(i.is_empty());
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
    }
}
