//! Evaluation errors.

use crate::order::Unorderable;
use alexander_ir::analysis::NotStratified;
use alexander_ir::{Predicate, ProgramError};
use std::fmt;

/// Anything that can stop an evaluator before it runs.
#[derive(Clone, Debug)]
pub enum EvalError {
    /// The program failed static validation (safety, arities, …).
    Invalid(Vec<ProgramError>),
    /// A rule body could not be ordered for evaluation.
    Unorderable(Unorderable),
    /// Naive/semi-naive evaluation was asked to run a program that negates an
    /// intensional predicate; those require the stratified or conditional
    /// evaluators.
    NegatedIdb(Predicate),
    /// The stratified evaluator was given an unstratifiable program.
    NotStratified(NotStratified),
    /// An incremental update targeted an intensional predicate (only EDB
    /// facts can be inserted or deleted).
    IdbUpdate(Predicate),
    /// A panic inside a fixpoint round. The panic is caught at the round's
    /// boundary and its payload surfaced here, so a served query that trips
    /// one gets an error reply instead of unwinding its session thread.
    WorkerPanicked { payload: String },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Invalid(errs) => {
                write!(f, "invalid program:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            EvalError::Unorderable(e) => write!(f, "{e}"),
            EvalError::NegatedIdb(p) => write!(
                f,
                "predicate {p} is negated but intensional; use the stratified or conditional evaluator"
            ),
            EvalError::NotStratified(e) => write!(f, "{e}"),
            EvalError::IdbUpdate(p) => write!(
                f,
                "predicate {p} is intensional; only extensional facts can be updated"
            ),
            EvalError::WorkerPanicked { payload } => {
                write!(f, "evaluation panicked inside a round: {payload}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<Unorderable> for EvalError {
    fn from(e: Unorderable) -> EvalError {
        EvalError::Unorderable(e)
    }
}

impl From<NotStratified> for EvalError {
    fn from(e: NotStratified) -> EvalError {
        EvalError::NotStratified(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = EvalError::NegatedIdb(Predicate::new("win", 1));
        assert!(e.to_string().contains("win/1"));
        let e = EvalError::Invalid(vec![]);
        assert!(e.to_string().contains("invalid program"));
        let e = EvalError::WorkerPanicked {
            payload: "boom".to_string(),
        };
        assert!(e.to_string().contains("panicked inside a round: boom"));
    }
}
