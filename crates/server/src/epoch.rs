//! Immutable epochs: one frozen view of the database per committed batch.
//!
//! An [`Epoch`] owns an [`Engine`] built over a copy-on-write clone of the
//! EDB at publication time — storage relations are `Arc`-backed, so the
//! clone is O(#relations), not O(facts), and later writer mutations copy
//! only the relations they touch. Readers *pin* the current epoch (clone an
//! `Arc`) and keep evaluating against it no matter how many newer epochs
//! commit mid-query; the epoch is freed when its last pinned query drops.

use alexander_core::Engine;
use std::sync::{Arc, RwLock};

/// One frozen, queryable view of the database.
#[derive(Debug)]
pub struct Epoch {
    generation: u64,
    engine: Engine,
}

impl Epoch {
    /// Wraps a fully-built engine as generation `generation`.
    pub fn new(generation: u64, engine: Engine) -> Epoch {
        Epoch { generation, engine }
    }

    /// The epoch's position in the commit order (0 = the opening state).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The engine over this epoch's frozen EDB, built at publication with the
    /// service's budget. Queries borrow it through the pin, so one epoch
    /// serves any number of concurrent readers.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

/// The publication point: writers swap in new epochs, readers pin the
/// current one. Pinning is a read-lock + `Arc` clone — never blocked by a
/// running query, only by the (instant) swap itself.
#[derive(Debug)]
pub struct EpochStore {
    current: RwLock<Arc<Epoch>>,
}

impl EpochStore {
    /// Starts the chain at `epoch` (normally generation 0).
    pub fn new(epoch: Epoch) -> EpochStore {
        EpochStore {
            current: RwLock::new(Arc::new(epoch)),
        }
    }

    /// Pins the current epoch: the returned view stays valid (and
    /// bit-identical) for as long as the caller holds it, regardless of
    /// later publications.
    pub fn pin(&self) -> Arc<Epoch> {
        // invariant: lock poisoning is unreachable — no panicking code runs
        // under either lock (publish only swaps an Arc).
        self.current.read().expect("epoch lock").clone()
    }

    /// Publishes `engine` as the next generation and returns its number.
    /// In-flight queries keep their pinned epochs; new pins see this one.
    pub fn publish(&self, engine: Engine) -> u64 {
        let mut cur = self.current.write().expect("epoch lock");
        let generation = cur.generation() + 1;
        *cur = Arc::new(Epoch::new(generation, engine));
        generation
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.current.read().expect("epoch lock").generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_core::Strategy;
    use alexander_parser::parse_atom;

    fn engine(facts: &str) -> Engine {
        Engine::from_source(&format!(
            "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y). {facts}"
        ))
        .unwrap()
    }

    #[test]
    fn pinned_epochs_survive_publications() {
        let store = EpochStore::new(Epoch::new(0, engine("par(a, b).")));
        let pinned = store.pin();
        assert_eq!(pinned.generation(), 0);

        let gen = store.publish(engine("par(a, b). par(b, c)."));
        assert_eq!(gen, 1);
        assert_eq!(store.generation(), 1);

        // The old pin still answers from the old world…
        let q = parse_atom("anc(a, X)").unwrap();
        let old = pinned.engine().query(&q, Strategy::Alexander).unwrap();
        assert_eq!(old.answers.len(), 1);
        // …while a fresh pin sees the new epoch.
        let new = store.pin().engine().query(&q, Strategy::Alexander).unwrap();
        assert_eq!(new.answers.len(), 2);
    }

    #[test]
    fn epoch_engines_share_relations_until_written() {
        // The copy-on-write property serving rests on: a clone of an
        // epoch's engine, like the copy of the EDB a request evaluates
        // over, shares every relation until one is written.
        let store = EpochStore::new(Epoch::new(0, engine("par(a, b).")));
        let epoch = store.pin();
        let request_engine = epoch.engine().clone();
        let pred = alexander_ir::Predicate::new("par", 2);
        assert!(request_engine
            .edb()
            .shares_relation(epoch.engine().edb(), pred));
    }
}
