//! Symbol interning.
//!
//! Symbolic constants participate only in equality tests during evaluation,
//! so the engine never needs their spelling on the hot path — only a stable
//! identity.  This module maps each distinct spelling to a dense [`SymId`]
//! (`u32`) exactly once; every [`crate::Symbol`] is a `Copy`-able wrapper
//! around that id, and every tuple slot holding a symbol costs four bytes
//! plus a shared table entry instead of an owned `Arc<str>`.
//!
//! The table is process-global and append-only: spellings are leaked into
//! `&'static str` on first interning, so `SymId::name` hands back a
//! `'static` borrow without holding any lock for the caller.  A global table
//! (rather than the per-`Database` table the narrower design would suggest)
//! is what lets facts, programs, and parsed literals flow freely between
//! databases, evaluator snapshots, and service sessions — symbol equality is
//! id equality everywhere, with no re-interning at any boundary.  The cost
//! is that spellings live for the life of the process; symbol vocabularies
//! are tiny compared to fact counts, so this is the right trade.
//! [`SymbolTable`] is the handle type threaded through `Database` and
//! `Evaluator` for introspection (and so the sharing contract is explicit in
//! the API), not a container with its own state.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// A dense interned symbol id.
///
/// Ids are allocated in first-interning order and never reused; two ids are
/// equal exactly when their spellings are equal.  Note that `Ord` on `SymId`
/// is *allocation* order — use [`crate::Symbol`]'s `Ord` for spelling order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SymId(u32);

impl SymId {
    /// Interns `name`, returning its id (allocating one on first sight).
    pub fn intern(name: &str) -> SymId {
        let table = global();
        if let Some(&id) = table.read().expect("interner poisoned").map.get(name) {
            return SymId(id);
        }
        let mut guard = table.write().expect("interner poisoned");
        if let Some(&id) = guard.map.get(name) {
            return SymId(id);
        }
        let spelling: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(guard.names.len()).expect("symbol table overflow");
        guard.names.push(spelling);
        guard.map.insert(spelling, id);
        SymId(id)
    }

    /// The interned spelling.
    pub fn name(self) -> &'static str {
        global().read().expect("interner poisoned").names[self.0 as usize]
    }
}

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

struct Interner {
    map: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn global() -> &'static RwLock<Interner> {
    static GLOBAL: OnceLock<RwLock<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// A handle on the symbol table.
///
/// `Database` and `Evaluator` each expose one via `symbols()`; cloning a
/// handle (or obtaining it from two different databases) always yields the
/// same underlying table, which is exactly what lets service sessions share
/// interned facts across snapshot epochs without copying.
#[derive(Clone, Copy, Default, Debug)]
pub struct SymbolTable;

impl SymbolTable {
    /// The (shared, process-global) symbol table handle.
    pub fn shared() -> SymbolTable {
        SymbolTable
    }

    /// Interns a spelling.
    pub fn intern(&self, name: &str) -> SymId {
        SymId::intern(name)
    }

    /// Resolves an id to its spelling.
    pub fn resolve(&self, id: SymId) -> &'static str {
        id.name()
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        global().read().expect("interner poisoned").names.len()
    }

    /// Returns `true` if no symbol has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes held by the table (spellings + index).
    pub fn approx_bytes(&self) -> usize {
        let guard = global().read().expect("interner poisoned");
        let strings: usize = guard.names.iter().map(|s| s.len()).sum();
        strings
            + guard.names.len() * std::mem::size_of::<&'static str>()
            + guard.map.len()
                * (std::mem::size_of::<&'static str>() + std::mem::size_of::<u32>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_canonical() {
        let a = SymId::intern("madison");
        let b = SymId::intern("madison");
        let c = SymId::intern("monona");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "madison");
        assert_eq!(c.name(), "monona");
    }

    #[test]
    fn table_handle_resolves() {
        let table = SymbolTable::shared();
        let id = table.intern("dane");
        assert_eq!(table.resolve(id), "dane");
        assert!(!table.is_empty());
        assert!(!table.is_empty());
        assert!(table.approx_bytes() > 0);
    }
}
