//! Global string interner.
//!
//! Every identifier in the system — predicate names, constants, variable
//! names — is interned once and afterwards handled as a copyable 4-byte
//! [`Symbol`]. Equality and hashing on symbols are integer operations, which
//! is what makes tuple joins cheap.
//!
//! The interner is a process-wide singleton guarded by a `std::sync::RwLock`.
//! Interning happens at parse/transform time; evaluation hot loops only
//! compare ids and never take the lock (resolution back to `&str` is only
//! done when printing).

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned string. Cheap to copy, compare and hash.
///
/// Two `Symbol`s are equal iff the strings they intern are equal. The id is
/// stable for the lifetime of the process. Ordering is **lexicographic on
/// the interned string** (not on the id): sorted output must not depend on
/// interning order, which varies with what ran earlier in the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        let names = Names::lock();
        names.get(*self).cmp(names.get(*other))
    }
}

struct Interner {
    names: Vec<&'static str>,
    ids: FxHashMap<&'static str, u32>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&id) = self.ids.get(s) {
            return Symbol(id);
        }
        // Interned strings live for the whole process; leaking them lets us
        // hand out `&'static str` without a second table lookup on resolve.
        let owned: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(owned);
        self.ids.insert(owned, id);
        Symbol(id)
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            ids: FxHashMap::default(),
        })
    })
}

/// Reads through lock poison. Evaluator workers run under `catch_unwind`
/// (panics become structured `WorkerPanicked` errors rather than aborts), so
/// a panic while holding this lock must not brick every later query.
/// `Interner::intern` only mutates after its fallible steps, so the guarded
/// state is consistent even when poisoned.
fn read_interner() -> std::sync::RwLockReadGuard<'static, Interner> {
    interner().read().unwrap_or_else(PoisonError::into_inner)
}

fn write_interner() -> std::sync::RwLockWriteGuard<'static, Interner> {
    interner().write().unwrap_or_else(PoisonError::into_inner)
}

/// A read view of the interner: any number of symbols resolved under one
/// read guard. Holding it blocks interning on every thread, so keep it
/// short; and never intern or call [`Symbol::as_str`] on the thread that
/// holds it — behind a queued writer, the second read would deadlock.
pub(crate) struct Names(std::sync::RwLockReadGuard<'static, Interner>);

impl Names {
    pub(crate) fn lock() -> Names {
        Names(read_interner())
    }

    pub(crate) fn get(&self, s: Symbol) -> &'static str {
        self.0.names[s.0 as usize]
    }
}

impl Symbol {
    /// Interns `s`, returning its symbol. Idempotent.
    pub fn intern(s: &str) -> Symbol {
        // Fast path: read lock only.
        if let Some(&id) = read_interner().ids.get(s) {
            return Symbol(id);
        }
        write_interner().intern(s)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        Names::lock().get(self)
    }

    /// The raw id, useful as a dense array index in analyses.
    pub fn id(self) -> u32 {
        self.0
    }

    /// How many symbols the process has interned so far. Takes the read
    /// lock and inserts nothing, so it can watch the interner's growth.
    pub fn interned() -> usize {
        read_interner().names.len()
    }

    /// Creates a fresh symbol guaranteed not to collide with any symbol
    /// interned so far, based on `base` (used for generated variables and
    /// rewritten predicate names).
    pub fn fresh(base: &str) -> Symbol {
        let mut guard = write_interner();
        let mut n = guard.names.len();
        loop {
            let candidate = format!("{base}#{n}");
            if !guard.ids.contains_key(candidate.as_str()) {
                return guard.intern(&candidate);
            }
            n += 1;
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("ancestor");
        let b = Symbol::intern("ancestor");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "ancestor");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(Symbol::intern("p"), Symbol::intern("q"));
    }

    #[test]
    fn fresh_symbols_never_collide() {
        let base = Symbol::intern("magic_p");
        let f1 = Symbol::fresh("magic_p");
        let f2 = Symbol::fresh("magic_p");
        assert_ne!(f1, base);
        assert_ne!(f1, f2);
        assert!(f1.as_str().starts_with("magic_p#"));
    }

    #[test]
    fn display_roundtrips() {
        let s = Symbol::intern("same_generation");
        assert_eq!(s.to_string(), "same_generation");
    }

    #[test]
    fn order_is_lexical_whatever_the_interning_order() {
        // Interned in reverse lexical order, so ids ascend as strings descend.
        let names = [
            "sym_order_c",
            "sym_order_b10",
            "sym_order_b9",
            "sym_order_a",
        ];
        let mut syms: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        assert!(syms.windows(2).all(|w| w[0].id() < w[1].id()));
        syms.sort();
        let got: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            got,
            [
                "sym_order_a",
                "sym_order_b10",
                "sym_order_b9",
                "sym_order_c"
            ]
        );
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("shared_symbol")))
            .collect();
        let ids: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
