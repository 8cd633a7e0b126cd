//! Compact identifiers for tokens and the AST.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The longest name stored inline.
const INLINE: usize = 22;

/// An identifier. A name of at most 22 bytes is stored inline, a longer
/// one on the heap. Nearly every identifier is short, and a session keeps
/// every file's AST alive, so most names cost no allocation.
///
/// Names hash and compare as their bytes, exactly as the `str` they hold
/// does, so a table keyed by `Name` is probed with a `&Name` without
/// checking UTF-8 again (or with a `&str`, through [`Borrow`]).
///
/// ```
/// use pata_cc::Name;
///
/// let name = Name::from("user_data");
/// assert_eq!(name, "user_data");
/// assert_eq!(name.len(), 9);
/// assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
/// ```
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Inline(u8, [u8; INLINE]),
    Heap(Box<str>),
}

impl Name {
    /// The name `s`.
    pub fn new(s: &str) -> Name {
        if s.len() > INLINE {
            return Name(Repr::Heap(s.into()));
        }
        let mut bytes = [0; INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Name(Repr::Inline(s.len() as u8, bytes))
    }

    /// The name's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(len, bytes) => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("copied from a str")
            }
            Repr::Heap(s) => s,
        }
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(&s)
    }
}

impl PartialEq for Name {
    /// A name is inline exactly when it is short, and its unused inline
    /// bytes are zero, so two inline names compare as fixed-size arrays.
    fn eq(&self, other: &Name) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline(a_len, a), Repr::Inline(b_len, b)) => a_len == b_len && a == b,
            (Repr::Heap(a), Repr::Heap(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Hash for Name {
    /// Feeds the hasher what `str`'s `Hash` does: the bytes, then `0xff`
    /// (a byte no UTF-8 text contains), so `Borrow<str>` lookups agree.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_and_long_names_round_trip() {
        for s in [
            "",
            "x",
            "cfg_f36",
            &"a".repeat(INLINE),
            &"b".repeat(INLINE + 1),
            "ünï",
        ] {
            let name = Name::new(s);
            assert_eq!(name.as_str(), s);
            assert_eq!(name, Name::from(s.to_owned()));
            assert_eq!(format!("{name:?}"), format!("{s:?}"));
        }
        assert!(matches!(Name::new(&"a".repeat(INLINE)).0, Repr::Inline(..)));
        assert!(matches!(
            Name::new(&"a".repeat(INLINE + 1)).0,
            Repr::Heap(_)
        ));
    }

    /// A table keyed by names answers `&Name` and `&str` probes alike.
    #[test]
    fn names_hash_as_their_str() {
        use std::collections::hash_map::RandomState;
        use std::collections::HashMap;
        use std::hash::BuildHasher;

        let state = RandomState::new();
        let mut table = HashMap::new();
        for (i, s) in ["", "x", "ünï", &"c".repeat(INLINE), &"d".repeat(INLINE + 9)]
            .into_iter()
            .enumerate()
        {
            let name = Name::new(s);
            assert_eq!(state.hash_one(&name), state.hash_one(s), "{s:?}");
            assert_eq!(name.as_bytes(), s.as_bytes());
            table.insert(name, i);
            assert_eq!(table.get(s), Some(&i));
            assert_eq!(table.get(&Name::new(s)), Some(&i));
        }
    }
}
