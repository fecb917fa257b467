//! Answers in order and as text, without the interner lock per comparison.
//!
//! An answer list is sorted in `Atom`'s order — predicate, then the terms
//! left to right; variables before constants, integers numerically before
//! symbols, symbols by string. A `Symbol` compares through the interner,
//! so sorting with `Ord` takes the interner lock in every comparison. Here
//! every symbol is resolved once, under one read guard, into a key that
//! compares without it; the renderer likewise writes a whole batch of
//! atoms under one guard.

use crate::symbol::Names;
use crate::{Atom, Const, Term};
use std::fmt::Write;

/// A term's place in `Atom` order. The variants are declared in that
/// order, so the derived `Ord` is the term order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Var(&'static str),
    Int(i64),
    /// A symbol's first eight bytes, big-endian and zero-padded, then the
    /// whole string. Unequal prefixes order as their strings do, so most
    /// comparisons never follow the pointer.
    Sym(u64, &'static str),
}

fn const_key(names: &Names, c: Const) -> Key {
    match c {
        Const::Int(n) => Key::Int(n),
        Const::Sym(s) => {
            let name = names.get(s);
            let mut head = [0u8; 8];
            let n = name.len().min(8);
            head[..n].copy_from_slice(&name.as_bytes()[..n]);
            Key::Sym(u64::from_be_bytes(head), name)
        }
    }
}

fn term_key(names: &Names, t: Term) -> Key {
    match t {
        Term::Var(v) => Key::Var(names.get(v.name())),
        Term::Const(c) => const_key(names, c),
    }
}

/// Sorts `items` by the key sequence `keys_of` writes for each. Keys are
/// built once per item, under one interner read guard; the comparator
/// compares keys only.
fn sort_by_keys<T>(items: &mut Vec<T>, keys_of: impl Fn(&Names, &T, &mut Vec<Key>)) {
    let mut keys = Vec::new();
    let mut tagged: Vec<((usize, usize), T)> = Vec::with_capacity(items.len());
    let names = Names::lock();
    for item in items.drain(..) {
        let start = keys.len();
        keys_of(&names, &item, &mut keys);
        tagged.push(((start, keys.len()), item));
    }
    drop(names);
    tagged.sort_unstable_by(|((a0, a1), _), ((b0, b1), _)| keys[*a0..*a1].cmp(&keys[*b0..*b1]));
    items.extend(tagged.into_iter().map(|(_, item)| item));
}

/// Sorts ground rows of one arity into the order their atoms (over any one
/// predicate) sort in.
pub fn sort_rows(rows: &mut Vec<&[Const]>) {
    // A column every row agrees on — a query constant, say — cannot decide
    // the order, so only the others are keyed.
    let first = rows.first().copied().unwrap_or_default();
    debug_assert!(rows.iter().all(|r| r.len() == first.len()), "one arity");
    let varying: Vec<usize> = (0..first.len())
        .filter(|&c| rows.iter().any(|r| r[c] != first[c]))
        .collect();
    sort_by_keys(rows, |names, row, keys| {
        keys.extend(varying.iter().map(|&c| const_key(names, row[c])));
    });
}

/// Sorts atoms into `Atom` order (`atoms.sort()`, minus the interner lock
/// per comparison).
pub fn sort_atoms(atoms: &mut Vec<Atom>) {
    sort_by_keys(atoms, |names, atom, keys| {
        keys.push(const_key(names, Const::Sym(atom.pred)));
        keys.extend(atom.terms.iter().map(|&t| term_key(names, t)));
    });
}

/// Each atom's text, byte for byte what its `Display` writes, with every
/// symbol resolved under one interner read guard.
pub fn render_atoms(atoms: &[Atom]) -> Vec<String> {
    let names = Names::lock();
    atoms
        .iter()
        .map(|atom| {
            // Room for the punctuation and every name; an integer takes at
            // most 20 bytes.
            let len = atom.terms.iter().map(|t| match *t {
                Term::Var(v) => names.get(v.name()).len(),
                Term::Const(Const::Sym(s)) => names.get(s).len(),
                Term::Const(Const::Int(_)) => 20,
            });
            let mut out = String::with_capacity(
                names.get(atom.pred).len() + 2 * atom.terms.len() + len.sum::<usize>(),
            );
            out.push_str(names.get(atom.pred));
            if !atom.terms.is_empty() {
                out.push('(');
                for (i, t) in atom.terms.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    match *t {
                        Term::Var(v) => out.push_str(names.get(v.name())),
                        Term::Const(Const::Sym(s)) => out.push_str(names.get(s)),
                        Term::Const(Const::Int(n)) => {
                            write!(out, "{n}").expect("writing to a String cannot fail");
                        }
                    }
                }
                out.push(')');
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;

    /// Symbols interned in reverse lexical order, ints of different widths
    /// and signs, and both term kinds in one column.
    fn mixed() -> Vec<Vec<Const>> {
        let z = Const::sym("answer_z");
        let m = Const::sym("answer_m10");
        let n = Const::sym("answer_m9");
        let a = Const::sym("answer_a");
        vec![
            vec![z, Const::Int(10)],
            vec![Const::Int(9), a],
            vec![m, n],
            vec![Const::Int(-3), z],
            vec![n, m],
            vec![Const::Int(10), a],
            vec![a, Const::Int(-12)],
            vec![Const::Int(9), Const::Int(-1)],
            vec![m, m],
        ]
    }

    #[test]
    fn rows_sort_as_their_atoms_do() {
        let rows = mixed();
        let mut got: Vec<&[Const]> = rows.iter().map(Vec::as_slice).collect();
        sort_rows(&mut got);
        let as_atoms = |rows: &[&[Const]]| -> Vec<Atom> {
            rows.iter()
                .map(|r| atom("p", r.iter().map(|&c| Term::Const(c))))
                .collect()
        };
        let mut want = as_atoms(&got);
        want.sort();
        assert_eq!(as_atoms(&got), want);
    }

    #[test]
    fn atoms_sort_as_ord_does_across_predicates_arities_and_variables() {
        let mut atoms: Vec<Atom> = mixed()
            .into_iter()
            .map(|r| atom("answer_q", r.into_iter().map(Term::Const)))
            .collect();
        atoms.push(atom("answer_q", [Term::var("Y"), Term::int(1)]));
        atoms.push(atom("answer_q", [Term::var("X")]));
        atoms.push(atom("answer_b", [Term::sym("answer_z")]));
        atoms.push(atom("answer_q", []));
        atoms.push(atom("answer_b", []));
        let mut want = atoms.clone();
        want.sort();
        sort_atoms(&mut atoms);
        assert_eq!(atoms, want);
    }

    #[test]
    fn rendering_is_display_byte_for_byte() {
        let atoms = vec![
            atom("halt", []),
            atom("p", [Term::int(7)]),
            atom("p", [Term::int(-42)]),
            atom(
                "edge_2",
                [Term::sym("n0_12"), Term::sym("a_b"), Term::int(9)],
            ),
            atom("q", [Term::sym("x"), Term::var("Y"), Term::int(i64::MIN)]),
        ];
        let want: Vec<String> = atoms.iter().map(Atom::to_string).collect();
        assert_eq!(render_atoms(&atoms), want);
    }
}
