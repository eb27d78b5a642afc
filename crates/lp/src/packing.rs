//! Packing programs kept open between solves.
//!
//! A *packing program* is
//!
//! ```text
//!   maximize    sum_j v_j
//!   subject to  sum_j a_ij v_j <= 1     (constraints i)
//!               v >= 0
//! ```
//!
//! with every `a_ij >= 0`. [`Packing`] solves it through its dual,
//! `minimize sum_i y_i subject to sum_i a_ij y_i >= 1 for every variable j,
//! y >= 0`, held as a dense simplex tableau with one row per variable of the
//! packing program and one column per constraint plus one surplus column per
//! variable. The all-surplus basis (`y = 0`) is infeasible for the dual but
//! prices out — the `y` columns' costs are its reduced costs — so the dual
//! simplex starts there with no phase 1, and the surplus columns' reduced
//! costs are the packing program's solution `v`.
//!
//! The tableau stays open between solves. A variable added later is a new
//! dual row, eliminated against the current basis: its surplus enters the
//! basis at a negative value, which dual simplex steps repair. A constraint
//! added later is a new dual column, priced through the basis inverse (the
//! surplus columns hold it): if the current `v` violates the constraint it
//! prices in, and primal simplex steps bring it in. A caller that adds a few
//! variables or constraints between solves — a row-generation loop — pays a
//! few pivots of `O(variables × (constraints + variables))` each, and no
//! factorization. Each solve re-derives the basic values and prices from the
//! tableau first, so rounding does not accumulate in them; a change that is
//! neither kind of addition starts over with [`Packing::clear`].

/// Smallest pivot magnitude the ratio tests accept.
const PIVOT_TOL: f64 = 1e-11;
/// Basic values and reduced costs within this of zero count as zero.
const FEAS_TOL: f64 = 1e-12;
/// Pivots per solve at most, per variable and constraint: a solve that needs
/// more is cycling or numerically stuck.
const MAX_PIVOTS_PER_LINE: usize = 8;

/// A tableau column: the dual variable `y_i` of constraint `i`, or the
/// surplus `s_j` of variable `j`'s dual row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Col {
    Y(usize),
    S(usize),
}

/// Why [`Packing::solve`] gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingError {
    /// Some variable has a positive coefficient in no constraint, so the
    /// program is unbounded.
    Unbounded,
    /// The pivot budget ran out.
    IterationLimit,
}

/// A packing program held as an open dual simplex tableau (see the module
/// docs). Variables and constraints are numbered in the order they were
/// added.
#[derive(Debug, Clone, Default)]
pub struct Packing {
    /// Per tableau row, the entries of the `y` columns.
    ty: Vec<Vec<f64>>,
    /// Per tableau row, the entries of the surplus columns: the basis
    /// inverse.
    ts: Vec<Vec<f64>>,
    /// Basic value per tableau row.
    beta: Vec<f64>,
    /// Reduced cost per `y` column: the slack `1 - sum_j a_ij v_j` of
    /// constraint `i`.
    dy: Vec<f64>,
    /// Reduced cost per surplus column: `v_j`.
    ds: Vec<f64>,
    /// Column basic in each tableau row.
    basis: Vec<Col>,
    /// Pivots of the latest [`Packing::solve`].
    pivots: usize,
}

impl Packing {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every variable and constraint, keeping the allocations.
    pub fn clear(&mut self) {
        self.ty.clear();
        self.ts.clear();
        self.beta.clear();
        self.dy.clear();
        self.ds.clear();
        self.basis.clear();
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.ds.len()
    }

    /// Adds a variable with coefficient `coeffs[i] >= 0` in constraint `i`
    /// (one per constraint).
    pub fn add_var(&mut self, coeffs: &[f64]) {
        assert_eq!(
            coeffs.len(),
            self.dy.len(),
            "one coefficient per constraint"
        );
        let j = self.ds.len();
        let mut ty: Vec<f64> = coeffs.iter().map(|a| -a).collect();
        let mut ts = vec![0.0; j + 1];
        ts[j] = 1.0;
        // Express the new dual row in the current basis: subtract each basic
        // `y` column's multiple of the row that column is basic in.
        for (k, &col) in self.basis.iter().enumerate() {
            if let Col::Y(i) = col {
                let f = ty[i];
                if f != 0.0 {
                    axpy(&mut ty, -f, &self.ty[k]);
                    axpy(&mut ts[..j], -f, &self.ts[k]);
                }
            }
        }
        for row in &mut self.ts {
            row.push(0.0);
        }
        self.ty.push(ty);
        self.ts.push(ts);
        self.beta.push(0.0);
        self.ds.push(0.0);
        self.basis.push(Col::S(j));
    }

    /// Adds a constraint with coefficient `coeffs[j] >= 0` on variable `j`
    /// (one per variable).
    pub fn add_constraint(&mut self, coeffs: &[f64]) {
        assert_eq!(coeffs.len(), self.ds.len(), "one coefficient per variable");
        for (ty, ts) in self.ty.iter_mut().zip(&self.ts) {
            ty.push(-ts.iter().zip(coeffs).map(|(b, a)| b * a).sum::<f64>());
        }
        self.dy.push(0.0);
    }

    /// The value of variable `j` after the latest solve.
    pub fn value(&self, j: usize) -> f64 {
        self.ds[j].max(0.0)
    }

    /// Pivots of the latest [`Packing::solve`].
    pub fn pivots(&self) -> usize {
        self.pivots
    }

    /// Optimizes from the current basis. The basic values and reduced costs
    /// are re-derived from the tableau first. If some basic value is negative
    /// (variables were added), dual simplex steps restore feasibility under
    /// costs shifted so that no reduced cost is negative (added constraints
    /// can price negative); then primal simplex steps under the true costs
    /// run until nothing prices in. Deterministic: ties go to the larger
    /// pivot, then to the lowest index.
    pub fn solve(&mut self) -> Result<(), PackingError> {
        self.pivots = 0;
        let budget = MAX_PIVOTS_PER_LINE * (self.ds.len() + self.dy.len()) + 8;
        self.reprice();
        if self.most_negative_row().is_some() {
            for d in self.dy.iter_mut().chain(&mut self.ds) {
                *d = d.max(0.0);
            }
            while let Some(r) = self.most_negative_row() {
                self.count_pivot(budget)?;
                self.dual_step(r)?;
            }
            self.reprice();
        }
        while let Some(col) = self.most_negative_cost() {
            self.count_pivot(budget)?;
            self.primal_step(col);
        }
        Ok(())
    }

    fn count_pivot(&mut self, budget: usize) -> Result<(), PackingError> {
        self.pivots += 1;
        if self.pivots > budget {
            Err(PackingError::IterationLimit)
        } else {
            Ok(())
        }
    }

    /// Re-derives the basic values `B^-1 b` (every right-hand side of the
    /// negated dual rows is `-1`, and the surplus columns hold `B^-1`) and
    /// the reduced costs `c - c_B B^-1 A` (cost 1 on the `y` columns, 0 on
    /// the surplus ones).
    fn reprice(&mut self) {
        for (b, ts) in self.beta.iter_mut().zip(&self.ts) {
            *b = -ts.iter().sum::<f64>();
        }
        self.dy.fill(1.0);
        self.ds.fill(0.0);
        for (k, &col) in self.basis.iter().enumerate() {
            if let Col::Y(_) = col {
                axpy(&mut self.dy, -1.0, &self.ty[k]);
                axpy(&mut self.ds, -1.0, &self.ts[k]);
            }
        }
        for k in 0..self.basis.len() {
            *self.cost(self.basis[k]) = 0.0;
        }
    }

    fn cost(&mut self, col: Col) -> &mut f64 {
        match col {
            Col::Y(i) => &mut self.dy[i],
            Col::S(j) => &mut self.ds[j],
        }
    }

    fn most_negative_row(&self) -> Option<usize> {
        let mut best = (-FEAS_TOL, None);
        for (k, &b) in self.beta.iter().enumerate() {
            if b < best.0 {
                best = (b, Some(k));
            }
        }
        best.1
    }

    fn most_negative_cost(&self) -> Option<Col> {
        let mut best = (-FEAS_TOL, None);
        let ys = self.dy.iter().enumerate().map(|(i, &d)| (Col::Y(i), d));
        let ss = self.ds.iter().enumerate().map(|(j, &d)| (Col::S(j), d));
        for (col, d) in ys.chain(ss) {
            if d < best.0 {
                best = (d, Some(col));
            }
        }
        best.1
    }

    /// A dual simplex step out of row `r`: the entering column keeps every
    /// reduced cost non-negative.
    fn dual_step(&mut self, r: usize) -> Result<(), PackingError> {
        let mut enter = None;
        let mut best = (f64::INFINITY, 0.0);
        let ys = self.ty[r]
            .iter()
            .zip(&self.dy)
            .enumerate()
            .map(|(i, x)| (Col::Y(i), x));
        let ss = self.ts[r]
            .iter()
            .zip(&self.ds)
            .enumerate()
            .map(|(j, x)| (Col::S(j), x));
        for (col, (&a, &d)) in ys.chain(ss) {
            if a < -PIVOT_TOL {
                let ratio = d.max(0.0) / -a;
                if ratio < best.0 || (ratio == best.0 && -a > best.1) {
                    best = (ratio, -a);
                    enter = Some(col);
                }
            }
        }
        let col = enter.ok_or(PackingError::Unbounded)?;
        self.pivot(r, col);
        Ok(())
    }

    /// A primal simplex step bringing `col` into the basis. The packing
    /// program is feasible (`v = 0`), so its dual is bounded and some row
    /// qualifies — unless rounding alone made the reduced cost negative,
    /// which is then zeroed.
    fn primal_step(&mut self, col: Col) {
        let mut leave = None;
        let mut best = (f64::INFINITY, 0.0);
        for (k, &b) in self.beta.iter().enumerate() {
            let a = entry(&self.ty[k], &self.ts[k], col);
            if a > PIVOT_TOL {
                let ratio = b.max(0.0) / a;
                if ratio < best.0 || (ratio == best.0 && a > best.1) {
                    best = (ratio, a);
                    leave = Some(k);
                }
            }
        }
        match leave {
            Some(r) => self.pivot(r, col),
            None => *self.cost(col) = 0.0,
        }
    }

    /// Pivots `col` into the basis at row `r`.
    fn pivot(&mut self, r: usize, col: Col) {
        let inv = 1.0 / entry(&self.ty[r], &self.ts[r], col);
        let mut ty_r = std::mem::take(&mut self.ty[r]);
        let mut ts_r = std::mem::take(&mut self.ts[r]);
        ty_r.iter_mut().chain(&mut ts_r).for_each(|x| *x *= inv);
        self.beta[r] *= inv;
        let beta_r = self.beta[r];
        for k in (0..self.beta.len()).filter(|&k| k != r) {
            let f = entry(&self.ty[k], &self.ts[k], col);
            if f != 0.0 {
                axpy(&mut self.ty[k], -f, &ty_r);
                axpy(&mut self.ts[k], -f, &ts_r);
                self.beta[k] -= f * beta_r;
            }
        }
        let f = *self.cost(col);
        if f != 0.0 {
            axpy(&mut self.dy, -f, &ty_r);
            axpy(&mut self.ds, -f, &ts_r);
        }
        self.ty[r] = ty_r;
        self.ts[r] = ts_r;
        // The entering column is a unit column now: pin it exactly.
        *self.cost(col) = 0.0;
        for k in 0..self.beta.len() {
            let x = if k == r { 1.0 } else { 0.0 };
            match col {
                Col::Y(i) => self.ty[k][i] = x,
                Col::S(j) => self.ts[k][j] = x,
            }
        }
        self.basis[r] = col;
    }
}

/// Tableau entry of `col` in the row whose parts are `ty` and `ts`.
fn entry(ty: &[f64], ts: &[f64], col: Col) -> f64 {
    match col {
        Col::Y(i) => ty[i],
        Col::S(j) => ts[j],
    }
}

/// `y += a x`.
fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    for (y, x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, ConstraintOp, LinearProgram};

    /// A seeded packing program: `n` variables, `m` constraints, small
    /// coefficients with zeros, every variable in some constraint.
    fn program(seed: u64) -> Vec<Vec<f64>> {
        // SplitMix64: no RNG crate in this package's tests.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let n = 1 + next(8) as usize;
        let m = 1 + next(12) as usize;
        let mut a: Vec<Vec<f64>> = (0..m)
            .map(|_| {
                (0..n)
                    .map(|_| [0.0, 0.0, 0.5, 1.0, 1.5, 3.0][next(6) as usize])
                    .collect()
            })
            .collect();
        for j in 0..n {
            if a.iter().all(|row| row[j] == 0.0) {
                let i = next(m as u64) as usize;
                a[i][j] = 1.0 + next(3) as f64;
            }
        }
        a
    }

    /// The optimum by the general simplex.
    fn reference(a: &[Vec<f64>]) -> f64 {
        let n = a[0].len();
        let mut lp = LinearProgram::new(n);
        for j in 0..n {
            lp.set_objective(j, 1.0);
        }
        for row in a {
            lp.add_constraint(
                row.iter().copied().enumerate().collect(),
                ConstraintOp::Le,
                1.0,
            );
        }
        solve(&lp)
            .expect("a packing program with covered variables is bounded")
            .objective
    }

    /// The solution must be optimal, and so must the dual one the basic
    /// values give: `y >= 0` covering every variable (`sum_i a_ij y_i >= 1`)
    /// at the same objective.
    fn check(p: &Packing, a: &[Vec<f64>], want: f64, what: &str) {
        let close = |x: f64| (x - want).abs() <= 1e-9 * (1.0 + want);
        let v: Vec<f64> = (0..p.num_vars()).map(|j| p.value(j)).collect();
        let got: f64 = v.iter().sum();
        assert!(close(got), "{what}: {got} vs {want}");
        for row in a {
            let lhs: f64 = row.iter().zip(&v).map(|(x, y)| x * y).sum();
            assert!(lhs <= 1.0 + 1e-9, "{what}: row exceeds its bound: {lhs}");
        }
        let mut y = vec![0.0; a.len()];
        for (&col, &b) in p.basis.iter().zip(&p.beta) {
            if let Col::Y(i) = col {
                y[i] = b;
            }
        }
        assert!(y.iter().all(|&x| x >= -1e-9), "{what}: dual {y:?}");
        for j in 0..v.len() {
            let covered: f64 = a.iter().zip(&y).map(|(row, y)| row[j] * y).sum();
            assert!(
                covered >= 1.0 - 1e-9,
                "{what}: variable {j} covered {covered}"
            );
        }
        let dual: f64 = y.iter().sum();
        assert!(close(dual), "{what}: dual {dual} vs {want}");
    }

    #[test]
    fn open_tableau_matches_the_general_simplex_on_seeded_programs() {
        // Each program is built three ways: all variables then all
        // constraints; constraints first; and interleaved, one addition at a
        // time with a solve after each (a variable only once some constraint
        // covers it). All must land on the general simplex's optimum.
        let mut pivots = 0;
        for seed in 0..2000u64 {
            let a = program(seed);
            let (m, n) = (a.len(), a[0].len());
            let want = reference(&a);
            let col = |j: usize, rows: usize| (0..rows).map(|i| a[i][j]).collect::<Vec<f64>>();

            let mut p = Packing::new();
            for j in 0..n {
                p.add_var(&[]);
                debug_assert_eq!(p.num_vars(), j + 1);
            }
            for row in &a {
                p.add_constraint(row);
            }
            p.solve().unwrap();
            check(&p, &a, want, &format!("seed {seed}, variables first"));

            p.clear();
            for row in &a {
                p.add_constraint(&row[..0]);
            }
            for j in 0..n {
                p.add_var(&col(j, m));
            }
            p.solve().unwrap();
            check(&p, &a, want, &format!("seed {seed}, constraints first"));

            p.clear();
            let (mut vars, mut rows) = (0, 0);
            while vars < n || rows < m {
                let covered = vars < n && (0..rows).any(|i| a[i][vars] > 0.0);
                if covered || rows == m {
                    p.add_var(&col(vars, rows));
                    vars += 1;
                } else {
                    p.add_constraint(&a[rows][..vars]);
                    rows += 1;
                }
                if (0..vars).all(|j| (0..rows).any(|i| a[i][j] > 0.0)) {
                    p.solve().unwrap();
                    pivots += p.pivots();
                }
            }
            check(&p, &a, want, &format!("seed {seed}, interleaved"));
        }
        assert!(pivots > 0);
    }

    #[test]
    fn a_variable_in_no_constraint_is_unbounded() {
        let mut p = Packing::new();
        p.add_constraint(&[]);
        p.add_var(&[1.0]);
        p.add_var(&[0.0]);
        assert_eq!(p.solve(), Err(PackingError::Unbounded));
        p.clear();
        p.add_constraint(&[]);
        p.add_var(&[2.0]);
        p.solve().unwrap();
        assert_eq!(p.value(0), 0.5);
    }
}
