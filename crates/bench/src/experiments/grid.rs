//! The grid runner: how a `cells × roster` product becomes leaf jobs on
//! [`RunCtx::map`] and comes back as [`Series`]. Every simulated
//! experiment goes through here, so the flatten-and-index arithmetic
//! exists once.

use crate::runner::RunCtx;
use crate::Series;

/// Every pairing of `a` × `b`, `a`-major — how a two-axis experiment
/// spells its cells.
pub(super) fn cross<'a, A, B>(a: &'a [A], b: &'a [B]) -> Vec<(&'a A, &'a B)> {
    a.iter()
        .flat_map(|x| b.iter().map(move |y| (x, y)))
        .collect()
}

/// One result per (cell, roster entry), addressed by both.
pub(super) struct Table<'a, C, R, T> {
    cells: Vec<&'a C>,
    roster: &'a [R],
    /// Cell-major: `values[cell * roster.len() + entry]`.
    values: Vec<T>,
}

impl<'a, C: Sync, R: Sync, T: Send> Table<'a, C, R, T> {
    /// Runs `f` once per (cell, roster entry) as leaf jobs on the shared
    /// pool. Each job owns its seed, so the table is identical for any
    /// worker count. An experiment whose leaf job is a whole cell passes
    /// `&[()]` as the roster.
    pub(super) fn run(
        ctx: &RunCtx,
        cells: &'a [C],
        roster: &'a [R],
        f: impl Fn(&C, &R) -> T + Sync,
    ) -> Self {
        Table {
            cells: cells.iter().collect(),
            roster,
            values: ctx.map(cross(cells, roster), |(cell, entry)| f(cell, entry)),
        }
    }
}

impl<'a, C, R, T> Table<'a, C, R, T> {
    /// The result of roster entry `entry` in cell `cell`.
    pub(super) fn get(&self, cell: usize, entry: usize) -> &T {
        assert!(entry < self.roster.len(), "no roster entry {entry}");
        &self.values[cell * self.roster.len() + entry]
    }

    /// The rows whose cell passes `keep` — one figure's share of a table
    /// that ran several figures' cells as one batch of jobs.
    pub(super) fn only(&self, keep: impl Fn(&C) -> bool) -> Table<'a, C, R, &T> {
        let rows = self.values.chunks(self.roster.len().max(1));
        let (cells, rows): (Vec<&C>, Vec<&[T]>) = self
            .cells
            .iter()
            .zip(rows)
            .filter(|(cell, _)| keep(cell))
            .unzip();
        Table {
            cells,
            roster: self.roster,
            values: rows.into_iter().flatten().collect(),
        }
    }

    /// One series per column: roster entry `entry` read across the cells,
    /// `x` labelling the cell and `y` picking the value.
    pub(super) fn column(
        &self,
        entry: usize,
        label: impl Into<String>,
        x: impl Fn(&C) -> String,
        y: impl Fn(&T) -> f64,
    ) -> Series {
        let mut series = Series::new(label);
        for (ci, cell) in self.cells.iter().enumerate() {
            series.push(x(cell), y(self.get(ci, entry)));
        }
        series
    }

    /// One series per roster entry, in roster order.
    pub(super) fn by_entry(
        &self,
        label: impl Fn(&R) -> String,
        x: impl Fn(&C) -> String,
        y: impl Fn(&T) -> f64,
    ) -> Vec<Series> {
        self.roster
            .iter()
            .enumerate()
            .map(|(entry, r)| self.column(entry, label(r), &x, &y))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Gate;
    use std::sync::Arc;

    const CELLS: [u64; 3] = [2, 3, 5];
    const ROSTER: [u64; 2] = [10, 100];

    fn product(ctx: &RunCtx) -> Table<'static, u64, u64, u64> {
        Table::run(ctx, &CELLS, &ROSTER, |c, r| c * r)
    }

    #[test]
    fn addresses_match_a_nested_loop_on_a_non_square_grid() {
        let table = product(&RunCtx::serial(true));
        for (ci, c) in CELLS.iter().enumerate() {
            for (ri, r) in ROSTER.iter().enumerate() {
                assert_eq!(*table.get(ci, ri), c * r, "cell {ci} entry {ri}");
            }
        }
        let series = table.by_entry(u64::to_string, u64::to_string, |&v| v as f64);
        assert_eq!(series.len(), ROSTER.len());
        assert_eq!(series[1].label, "100");
        let expected: Vec<(String, f64)> = CELLS
            .iter()
            .map(|c| (c.to_string(), (c * 100) as f64))
            .collect();
        assert_eq!(series[1].points, expected);
        let tens = table.column(0, "tens", u64::to_string, |&v| v as f64);
        assert_eq!(tens.points[2], ("5".to_string(), 50.0));
    }

    #[test]
    fn only_keeps_whole_rows_in_order() {
        let table = product(&RunCtx::serial(true));
        let odd = table.only(|c| c % 2 == 1);
        assert_eq!(**odd.get(0, 1), 300);
        assert_eq!(**odd.get(1, 0), 50);
        let series = odd.by_entry(u64::to_string, u64::to_string, |&&v| v as f64);
        assert_eq!(series[0].points.len(), 2);
    }

    #[test]
    fn serial_and_four_permit_gates_agree() {
        let parallel = RunCtx::new(true, Arc::new(Gate::new(4)));
        assert_eq!(
            product(&RunCtx::serial(true)).values,
            product(&parallel).values
        );
    }

    #[test]
    fn an_empty_axis_is_an_empty_table() {
        let ctx = RunCtx::serial(true);
        let none: [u64; 0] = [];
        let no_cells = Table::run(&ctx, &none, &ROSTER, |c, r| c * r);
        let series = no_cells.by_entry(u64::to_string, u64::to_string, |&v| v as f64);
        assert_eq!(series.len(), ROSTER.len());
        assert!(series.iter().all(|s| s.points.is_empty()));
        let no_roster = Table::run(&ctx, &CELLS, &none, |c, r| c * r);
        assert!(no_roster
            .by_entry(u64::to_string, u64::to_string, |&v| v as f64)
            .is_empty());
        assert!(no_roster.only(|_| true).values.is_empty());
    }
}
