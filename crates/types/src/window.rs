//! Per-round rows addressed by index, the store of the broadcast engine's
//! instances and of the consensus node's round state.

use crate::ids::Round;
use std::collections::VecDeque;

/// One row per round from [`RoundWindow::base`] on: a lookup is a
/// subtraction and a bounds check. [`RoundWindow::touch`] creates every row
/// up to the round it names, so callers bound an untrusted round first.
/// The base only rises, so a pruned round stays out.
#[derive(Clone, Debug)]
pub struct RoundWindow<T> {
    /// Round of `rows[0]`.
    base: Round,
    rows: VecDeque<T>,
}

impl<T> Default for RoundWindow<T> {
    fn default() -> Self {
        RoundWindow {
            base: Round::GENESIS,
            rows: VecDeque::new(),
        }
    }
}

impl<T> RoundWindow<T> {
    /// The lowest round the window can hold; every round below was pruned.
    pub fn base(&self) -> Round {
        self.base
    }

    /// The row of `round`; `None` below the base or past the last row.
    pub fn get(&self, round: Round) -> Option<&T> {
        self.rows.get(self.index(round)?)
    }

    /// The row of `round`, mutably; `None` outside the window.
    pub fn get_mut(&mut self, round: Round) -> Option<&mut T> {
        self.rows.get_mut(self.index(round)?)
    }

    fn index(&self, round: Round) -> Option<usize> {
        Some(round.0.checked_sub(self.base.0)? as usize)
    }

    /// Drops every row below `round` and raises the base to it, if higher.
    pub fn prune_below(&mut self, round: Round) {
        if round > self.base {
            let dropped = (round.0 - self.base.0).min(self.rows.len() as u64);
            self.rows.drain(..dropped as usize);
            self.base = round;
        }
    }

    /// The rows in round order, each with its round.
    pub fn iter(&self) -> impl Iterator<Item = (Round, &T)> {
        let base = self.base.0;
        let rows = self.rows.iter().enumerate();
        rows.map(move |(at, row)| (Round(base + at as u64), row))
    }
}

impl<T: Default> RoundWindow<T> {
    /// The row of `round`, created with every row before it if the window
    /// ends below it; `None` for a round below the base.
    pub fn touch(&mut self, round: Round) -> Option<&mut T> {
        let at = self.index(round)?;
        if at >= self.rows.len() {
            self.rows.resize_with(at + 1, T::default);
        }
        Some(&mut self.rows[at])
    }
}
