//! Block-batched governor metering.
//!
//! The tree-walk kernels charge the [`Governor`] per row, which on
//! columnar loops makes accounting itself a hot path. A [`BlockMeter`]
//! accumulates step and memory charges locally and flushes them with one
//! `tick_n`/`charge_mem` pair every [`BLOCK`] units of work (and at
//! operator end), so the totals a budget sees are identical to per-row
//! charging — only the trip *granularity* coarsens, by at most one block.

use no_object::{Governor, ResourceError};

/// Flush threshold, in accumulated steps.
pub const BLOCK: u64 = 1024;

/// A local accumulator of governor charges for one operator, flushed per
/// block and on `finish`.
pub struct BlockMeter<'g> {
    gov: &'g Governor,
    site: &'static str,
    steps: u64,
    mem: u64,
}

impl<'g> BlockMeter<'g> {
    /// A fresh meter charging `site`.
    pub fn new(gov: &'g Governor, site: &'static str) -> Self {
        BlockMeter {
            gov,
            site,
            steps: 0,
            mem: 0,
        }
    }

    /// Account `n` steps of work, flushing when a block fills.
    pub fn work(&mut self, n: u64) -> Result<(), ResourceError> {
        self.steps += n;
        if self.steps >= BLOCK {
            self.flush()?;
        }
        Ok(())
    }

    /// Account `n` materialized rows of the given arity: one step plus
    /// the engines' standard 8 bytes per id each.
    pub fn rows(&mut self, n: u64, arity: usize) -> Result<(), ResourceError> {
        self.mem += n * 8 * arity as u64;
        self.work(n)
    }

    fn flush(&mut self) -> Result<(), ResourceError> {
        if self.steps > 0 {
            let n = std::mem::take(&mut self.steps);
            self.gov.tick_n(self.site, n)?;
        }
        if self.mem > 0 {
            let n = std::mem::take(&mut self.mem);
            self.gov.charge_mem(self.site, n)?;
        }
        Ok(())
    }

    /// Flush any remainder; call at operator end.
    pub fn finish(mut self) -> Result<(), ResourceError> {
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{BudgetKind, Governor, Limits};

    #[test]
    fn totals_match_per_row_charging() {
        let gov = Governor::new(Limits::default());
        let mut m = BlockMeter::new(&gov, "exec.test");
        for _ in 0..(BLOCK * 3 + 17) {
            m.work(1).unwrap();
        }
        m.finish().unwrap();
        assert_eq!(gov.steps_spent(), BLOCK * 3 + 17);
    }

    #[test]
    fn trips_within_one_block_of_the_budget() {
        let limits = Limits {
            max_steps: 10,
            ..Limits::default()
        };
        let gov = Governor::new(limits);
        let mut m = BlockMeter::new(&gov, "exec.test");
        let mut tripped = None;
        for _ in 0..(2 * BLOCK) {
            if let Err(e) = m.work(1) {
                tripped = Some(e);
                break;
            }
        }
        let e = tripped.expect("budget must trip");
        assert_eq!(e.budget, BudgetKind::Steps);
        // The first flush happens at one full block, not per row.
        assert_eq!(gov.steps_spent(), BLOCK);
    }
}
