//! [`QueryOp`]: the simulator's query operator, held by value.
//!
//! Every query the engine runs is one of the two paper operators, so it
//! stores them in a closed enum rather than a `Box<dyn Operator>`: no heap
//! allocation per query, and each of the ~5k `step` calls per join is a
//! `match` the compiler can inline instead of a virtual call.

use crate::hashjoin::HashJoin;
use crate::op::{Action, Operator};
use crate::sort::ExternalSort;

/// A hash join or an external sort, dispatched by `match`.
pub enum QueryOp {
    /// A PPHJ join (R builds, S probes).
    Join(HashJoin),
    /// An external sort of one relation.
    Sort(ExternalSort),
}

/// Forward one `Operator` method to whichever operator `self` holds.
macro_rules! dispatch {
    ($self:ident, $op:ident => $call:expr) => {
        match $self {
            QueryOp::Join($op) => $call,
            QueryOp::Sort($op) => $call,
        }
    };
}

impl Operator for QueryOp {
    fn max_memory(&self) -> u32 {
        dispatch!(self, op => op.max_memory())
    }

    fn min_memory(&self) -> u32 {
        dispatch!(self, op => op.min_memory())
    }

    fn allocation(&self) -> u32 {
        dispatch!(self, op => op.allocation())
    }

    fn set_allocation(&mut self, pages: u32) {
        dispatch!(self, op => op.set_allocation(pages))
    }

    #[inline]
    fn step(&mut self) -> Action {
        dispatch!(self, op => op.step())
    }

    fn fluctuations(&self) -> u32 {
        dispatch!(self, op => op.fluctuations())
    }

    fn operand_pages(&self) -> u32 {
        dispatch!(self, op => op.operand_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ExecConfig;
    use storage::FileId;

    fn drain(op: &mut dyn Operator) -> Vec<Action> {
        let mut out = Vec::new();
        loop {
            let a = op.step();
            out.push(a);
            if a == Action::Finished {
                return out;
            }
        }
    }

    #[test]
    fn enum_steps_exactly_like_the_wrapped_operator() {
        let cfg = ExecConfig::default();
        let (r, s) = (FileId::Relation(0), FileId::Relation(1));
        let mut join = QueryOp::Join(HashJoin::new(cfg, r, 900, s, 4000));
        let mut bare = HashJoin::new(cfg, r, 900, s, 4000);
        join.set_allocation(join.min_memory() + 7);
        bare.set_allocation(bare.min_memory() + 7);
        assert_eq!(drain(&mut join), drain(&mut bare));
        assert_eq!(join.operand_pages(), 4900);

        let mut sort = QueryOp::Sort(ExternalSort::new(cfg, r, 900));
        let mut bare = ExternalSort::new(cfg, r, 900);
        sort.set_allocation(sort.max_memory() / 3);
        bare.set_allocation(bare.max_memory() / 3);
        assert_eq!(drain(&mut sort), drain(&mut bare));
        assert_eq!(sort.allocation(), bare.allocation());
    }
}
