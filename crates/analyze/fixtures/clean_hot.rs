//! Fixture: a hot function written to the hot-path standard — no
//! findings expected from any pass.

pub struct Solver {
    data: Vec<u32>,
    scratch: Vec<u32>,
}

impl Solver {
    pub fn propagate(&mut self, i: usize) -> u32 {
        // Scratch reuse instead of per-iteration allocation.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let mut total = 0;
        for &item in &self.data {
            // `get` + `match` instead of indexing/unwrap.
            match self.data.get(i) {
                Some(&v) => total += v.saturating_add(item),
                None => total += 1,
            }
            scratch.push(total);
        }
        // `unwrap_or` never panics, so no annotation is needed — and
        // the two-way ratchet would flag one as stale if it were here.
        let head = scratch.first().copied().unwrap_or(0);
        self.scratch = scratch;
        total + head + self.checked_forms(i)
    }

    /// The non-panicking forms the implicit-panic messages recommend.
    fn checked_forms(&self, k: usize) -> u32 {
        let n = self.data.len() as u32;
        let quotient = 100u32.checked_div(n).unwrap_or(0);
        let remainder = 100u32.checked_rem(n).unwrap_or(0);
        let low = match self.data.split_at_checked(k) {
            Some((low, _high)) => low.len() as u32,
            None => 0,
        };
        let first = self.data.get(k).copied().unwrap_or(0);
        quotient + remainder + low + first
    }
}
