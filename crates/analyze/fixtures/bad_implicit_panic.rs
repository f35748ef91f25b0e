//! Fixture: implicit-panic shapes in the hot closure. The pass reads
//! tokens, not values, so a guard in front of a site never discharges
//! it: a guard on the wrong variable, no guard at all, a bound killed
//! by a length-changing call and a correct loop guard all leave their
//! site a finding.

pub struct Solver {
    data: Vec<u32>,
}

impl Solver {
    pub fn propagate(&mut self) -> u32 {
        let mut scratch = self.data.clone();
        sum_squares(&self.data)
            + ratio(9, 3, self.data.len() as u32)
            + head(&self.data, 1)
            + shrink(&mut scratch, 1)
    }
}

fn ratio(x: u32, m: u32, n: u32) -> u32 {
    if m != 0 {
        return x / n; // guard is on `m`, not `n`
    }
    0
}

fn head(v: &[u32], k: usize) -> u32 {
    let (low, _high) = v.split_at(k); // no bound established
    low.len() as u32
}

fn shrink(v: &mut Vec<u32>, k: usize) -> u32 {
    if k < v.len() {
        v.clear(); // kills the bound: the length changed
        let (low, _high) = v.split_at(k); // really panics
        return low.len() as u32;
    }
    0
}

fn sum_squares(v: &[u32]) -> u32 {
    let mut i = 0;
    let mut acc = 0;
    while i < v.len() {
        acc += v[i] * v[i]; // in bounds under the loop guard, still two findings
        i += 1;
    }
    acc
}
