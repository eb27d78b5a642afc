//! Sparse two-phase revised primal simplex: an LU-factorized basis, Devex
//! pricing, and a deterministic perturbation against degeneracy.
//!
//! **Factorization.** The basis is held as `B = L U E_1 … E_k`. `L U` comes
//! from [`Factor::factorize`]: column and row singletons are peeled off first
//! (a permuted triangular part that costs no arithmetic and no fill-in — on the
//! flow LPs this crate serves, whose columns have at most three nonzeros, that
//! is most of the basis), and the remaining nucleus is eliminated
//! left-looking with threshold partial pivoting that prefers sparse rows. Each
//! pivot then appends one product-form eta `E_i`, and the basis is factorized
//! afresh every [`REFACTOR_EVERY`] pivots, which bounds both the eta file and
//! the numeric drift. `FTRAN`/`BTRAN` skip every elimination step whose
//! multiplier is zero, and `U` is kept by rows as well so that the transposed
//! solve scatters instead of gathering.
//!
//! **Pricing.** Reduced costs are kept for every structural and slack column
//! and updated after each pivot from one row of the tableau
//! (`e_r' B^{-1} A`, computed through the row-wise copy of `A` along the
//! nonzeros of `B^{-T} e_r`); the same row updates the Devex reference
//! weights, and the entering column maximizes `d_j^2 / w_j`. The reduced cost
//! of the chosen column is recomputed from its `FTRAN`ed column before it is
//! used, all of them are recomputed at every refactorization, and optimality
//! is only declared on freshly computed ones. Artificial columns never
//! re-enter, so they are not priced at all.
//!
//! **Degeneracy.** Each phase runs on a perturbed problem (see
//! [`Solver::optimize`]): the variable basic at row `r` when the phase starts
//! may go down to `-delta_r` instead of zero, with `delta_r` a fixed function
//! of `r` — no random numbers, so a solve is reproducible bit for bit. In
//! terms of the equations that moves the right-hand side by
//! `sum_r delta_r B_r`, a generic direction, which splits every degenerate
//! vertex into distinct nearby ones: ratio tests stop tying and the method
//! cannot cycle. The perturbation relaxes bounds only, so a feasible problem
//! stays feasible, and it does not touch the costs, so the reduced costs of
//! the basis the perturbed run ends at are those of the true problem. When
//! the run ends the true right-hand side is put back, the basic values are
//! recomputed from a fresh factorization, and if one of them comes out
//! negative — only possible when two vertices of the true problem are closer
//! than the perturbation — dual simplex steps restore primal feasibility
//! without giving up the sign of any reduced cost. What is returned is
//! therefore a basis that is primal and dual feasible for the unperturbed
//! problem: its optimum, not an approximation of it.

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `a' x <= b`
    Le,
    /// `a' x = b`
    Eq,
    /// `a' x >= b`
    Ge,
}

/// A single linear constraint `sum_j coeffs[j].1 * x[coeffs[j].0]  op  rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse coefficients as (variable index, coefficient) pairs.
    pub coeffs: Vec<(usize, f64)>,
    /// Comparison operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: maximize `objective' x` subject to `constraints`, `x >= 0`.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    /// Number of decision variables.
    pub num_vars: usize,
    /// Objective coefficients (length `num_vars`), to be maximized.
    pub objective: Vec<f64>,
    /// Constraint list.
    pub constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates an LP with `num_vars` variables and a zero objective.
    pub fn new(num_vars: usize) -> Self {
        LinearProgram {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Sets the objective coefficient of variable `var`.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        assert!(var < self.num_vars);
        self.objective[var] = coeff;
    }

    /// Adds a constraint. Coefficients with duplicate variable indices are
    /// summed.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, op: ConstraintOp, rhs: f64) {
        for &(v, _) in &coeffs {
            assert!(
                v < self.num_vars,
                "constraint references unknown variable {v}"
            );
        }
        self.constraints.push(Constraint { coeffs, op, rhs });
    }
}

/// An optimal solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal objective value (of the maximization).
    pub objective: f64,
    /// Values of the decision variables.
    pub values: Vec<f64>,
    /// Dual values (shadow prices), one per input constraint in input order.
    ///
    /// Sign convention for the maximization: a binding `<=` constraint has a
    /// non-negative dual, a binding `>=` constraint a non-positive one, and
    /// strong duality gives `sum_i duals[i] * rhs[i] == objective`. Rows that
    /// were normalized internally (negative right-hand sides) are reported in
    /// the caller's original orientation.
    pub duals: Vec<f64>,
    /// Simplex pivots the solve took, both phases.
    pub pivots: usize,
    /// Pivots among them whose step was no longer than the perturbation
    /// accounts for: the vertex they left was degenerate.
    pub degenerate_pivots: usize,
    /// Basis refactorizations after the initial one.
    pub refactorizations: usize,
    /// Nonzeros of the `L` and `U` factors at the last refactorization.
    pub factor_nonzeros: usize,
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// The iteration limit was exceeded (numerical trouble).
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// Result alias for LP solves.
pub type LpResult = Result<Solution, LpError>;

/// A reduced cost must exceed this for its column to enter.
const EPS: f64 = 1e-9;
/// Smallest pivot magnitude the ratio tests accept.
const PIVOT_TOL: f64 = 1e-7;
/// Primal feasibility tolerance (also the Harris ratio-test relaxation).
const FEAS_TOL: f64 = 1e-9;
/// Refactorize after this many product-form updates.
const REFACTOR_EVERY: usize = 50;
/// Minimum pivot magnitude accepted when forcing a basic artificial out.
const ART_PIVOT_TOL: f64 = 1e-7;
/// Bound perturbation, relative to the largest right-hand side: the basic
/// variable at row `r` is allowed down to `-PERTURB * (1 + frac(r * phi))`.
const PERTURB: f64 = 1e-7;
/// A step this short (relative to the largest right-hand side) is one the
/// perturbation alone accounts for; it is counted as a degenerate pivot.
const DEGENERATE_STEP: f64 = 100.0 * PERTURB;
/// Threshold partial pivoting: an LU pivot must reach this share of the
/// largest eligible entry of its column.
const LU_THRESHOLD: f64 = 0.1;
/// Below this a column has no usable pivot: the basis is singular.
const SINGULAR_TOL: f64 = 1e-10;
/// Devex reference weights restart from 1 once one grows past this.
const DEVEX_RESET: f64 = 1e6;
/// `frac(r * GOLDEN)` spreads the per-row perturbation sizes evenly over
/// `[0, 1)` with no two rows alike.
const GOLDEN: f64 = 0.618_033_988_749_895;

/// Pivot budget: this many per row, plus one per column and a constant. The
/// most any solve of the sweep suite took (75 LPs at seed 1, 375 more over 125
/// other seeds of `fig05_06 /1/LM`) is 5.3 per row; a 336-row LP that ran into
/// the budget would have spent 12,700 pivots, about 0.3 s.
const MAX_PIVOTS_PER_ROW: usize = 30;

const NONE: usize = usize::MAX;

/// The LP in standard form: `A x = b`, `b >= 0`, `x >= 0`. The structural
/// columns are stored both column- and row-wise; slack and artificial
/// columns are singletons and kept implicit.
struct StdLp {
    n: usize,
    m: usize,
    /// CSC storage of the structural columns, with the sign of normalized
    /// (rhs-negated) rows baked in and duplicate entries merged.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
    /// The same matrix row-wise (CSR), for tableau rows.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    row_vals: Vec<f64>,
    rhs: Vec<f64>,
    /// Per slack column: (row, ±1).
    slack: Vec<(usize, f64)>,
    /// Per artificial column: its row.
    art: Vec<usize>,
    /// Per row: its slack column, or `NONE` on an equality row.
    row_slack: Vec<usize>,
    /// Per row: the column basic in the all-logical start (the slack of a
    /// `<=` row, the artificial of any other).
    row_logical: Vec<usize>,
    /// Rows whose sign was flipped during normalization (dual sign restore).
    row_negated: Vec<bool>,
    slack_base: usize,
    art_base: usize,
    total_cols: usize,
    objective: Vec<f64>,
}

impl StdLp {
    fn build(lp: &LinearProgram) -> StdLp {
        let n = lp.num_vars;
        let m = lp.constraints.len();

        // Normalize rows to rhs >= 0, flipping the operator where needed.
        let mut row_negated = vec![false; m];
        let mut ops = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        for (r, c) in lp.constraints.iter().enumerate() {
            let (op, b) = if c.rhs < 0.0 {
                row_negated[r] = true;
                let flipped = match c.op {
                    ConstraintOp::Le => ConstraintOp::Ge,
                    ConstraintOp::Ge => ConstraintOp::Le,
                    ConstraintOp::Eq => ConstraintOp::Eq,
                };
                (flipped, -c.rhs)
            } else {
                (c.op, c.rhs)
            };
            ops.push(op);
            rhs.push(b);
        }

        // Row-major structural matrix: each row sorted by column, duplicate
        // (row, var) coefficients summed, exact zeros dropped; and its
        // transpose, column-major.
        let mut row_ptr = vec![0usize; m + 1];
        let mut col_idx = Vec::new();
        let mut row_vals = Vec::new();
        for (r, c) in lp.constraints.iter().enumerate() {
            let sign = if row_negated[r] { -1.0 } else { 1.0 };
            let entries = c.coeffs.iter().map(|&(v, a)| (v, a * sign)).collect();
            push_merged(&mut col_idx, &mut row_vals, entries);
            row_ptr[r + 1] = col_idx.len();
        }
        let (col_ptr, row_idx, vals) = transpose(&row_ptr, &col_idx, &row_vals, n);

        let mut slack = Vec::new();
        let mut art = Vec::new();
        for (r, op) in ops.iter().enumerate() {
            match op {
                ConstraintOp::Le => slack.push((r, 1.0)),
                ConstraintOp::Ge => {
                    slack.push((r, -1.0));
                    art.push(r);
                }
                ConstraintOp::Eq => art.push(r),
            }
        }
        let slack_base = n;
        let art_base = n + slack.len();
        let mut row_slack = vec![NONE; m];
        let mut row_logical = vec![NONE; m];
        for (k, &(r, sign)) in slack.iter().enumerate() {
            row_slack[r] = slack_base + k;
            if sign > 0.0 {
                row_logical[r] = slack_base + k;
            }
        }
        for (k, &r) in art.iter().enumerate() {
            row_logical[r] = art_base + k;
        }
        StdLp {
            n,
            m,
            col_ptr,
            row_idx,
            vals,
            row_ptr,
            col_idx,
            row_vals,
            rhs,
            total_cols: art_base + art.len(),
            slack,
            art,
            row_slack,
            row_logical,
            row_negated,
            slack_base,
            art_base,
            objective: lp.objective.clone(),
        }
    }

    /// Appends structural columns (objective coefficient, entries by row)
    /// after the existing ones, in the orientation of the normalized rows
    /// and merged as [`StdLp::build`] merges its rows. The slack and
    /// artificial columns keep their order behind them, so their ids move up
    /// by the number added; the row-wise copy is built again from the
    /// columns.
    fn append_columns(&mut self, columns: &[(f64, Vec<(usize, f64)>)]) {
        for (cost, coeffs) in columns {
            let entries = coeffs
                .iter()
                .map(|&(r, a)| {
                    assert!(r < self.m, "column references unknown constraint {r}");
                    (r, if self.row_negated[r] { -a } else { a })
                })
                .collect();
            push_merged(&mut self.row_idx, &mut self.vals, entries);
            self.col_ptr.push(self.row_idx.len());
            self.objective.push(*cost);
        }
        let added = columns.len();
        self.n += added;
        self.slack_base += added;
        self.art_base += added;
        self.total_cols += added;
        for j in self.row_slack.iter_mut().chain(&mut self.row_logical) {
            if *j != NONE {
                *j += added;
            }
        }
        (self.row_ptr, self.col_idx, self.row_vals) =
            transpose(&self.col_ptr, &self.row_idx, &self.vals, self.m);
    }

    /// Calls `f(row, value)` for every nonzero of column `j`.
    fn for_col(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.n {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                f(self.row_idx[k], self.vals[k]);
            }
        } else if j < self.art_base {
            let (r, s) = self.slack[j - self.slack_base];
            f(r, s);
        } else {
            f(self.art[j - self.art_base], 1.0);
        }
    }

    /// `v += scale * A_j`.
    fn add_col(&self, j: usize, scale: f64, v: &mut [f64]) {
        self.for_col(j, |r, a| v[r] += scale * a);
    }

    /// `y · A_j`.
    fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        let mut s = 0.0;
        self.for_col(j, |r, a| s += y[r] * a);
        s
    }
}

/// Appends `entries` to the list `(idx, vals)` in index order, the values of
/// a repeated index summed and exact zeros dropped.
fn push_merged(idx: &mut Vec<usize>, vals: &mut Vec<f64>, mut entries: Vec<(usize, f64)>) {
    entries.sort_by_key(|&(i, _)| i);
    let start = idx.len();
    for (i, a) in entries {
        if idx.len() > start && idx.last() == Some(&i) {
            *vals.last_mut().expect("nonempty") += a;
        } else {
            idx.push(i);
            vals.push(a);
        }
    }
    let mut write = start;
    for k in start..idx.len() {
        if vals[k] != 0.0 {
            idx[write] = idx[k];
            vals[write] = vals[k];
            write += 1;
        }
    }
    idx.truncate(write);
    vals.truncate(write);
}

/// The transpose of the compressed matrix `(ptr, idx, vals)` whose entries
/// index `0..width`: `width` lists, each in the order of the lines it
/// gathers from.
fn transpose(
    ptr: &[usize],
    idx: &[usize],
    vals: &[f64],
    width: usize,
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut t_ptr = vec![0usize; width + 1];
    for &i in idx {
        t_ptr[i + 1] += 1;
    }
    for i in 0..width {
        t_ptr[i + 1] += t_ptr[i];
    }
    let mut t_idx = vec![0usize; idx.len()];
    let mut t_vals = vec![0.0f64; idx.len()];
    let mut cursor = t_ptr.clone();
    for line in 0..ptr.len() - 1 {
        for k in ptr[line]..ptr[line + 1] {
            let slot = &mut cursor[idx[k]];
            t_idx[*slot] = line;
            t_vals[*slot] = vals[k];
            *slot += 1;
        }
    }
    (t_ptr, t_idx, t_vals)
}

/// A sparse matrix stored as a run of index/value lists.
#[derive(Default)]
struct Lists {
    ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl Lists {
    fn clear(&mut self) {
        self.ptr.clear();
        self.ptr.push(0);
        self.idx.clear();
        self.val.clear();
    }

    fn push(&mut self, i: usize, v: f64) {
        self.idx.push(i);
        self.val.push(v);
    }

    /// Closes the list opened by the `push` calls since the last `end`.
    fn end(&mut self) {
        self.ptr.push(self.idx.len());
    }

    fn list(&self, k: usize) -> (&[usize], &[f64]) {
        let span = self.ptr[k]..self.ptr[k + 1];
        (&self.idx[span.clone()], &self.val[span])
    }
}

/// The basis inverse: `B0 = L U` from the last refactorization (rows permuted
/// by the pivot choice, which is also how basis positions are labelled: the
/// column eliminated on row `r` is basic *at* `r`), times one product-form
/// eta per pivot since.
#[derive(Default)]
struct Factor {
    /// `L` as column etas in elimination order; eta `e` subtracts
    /// `l * v[l_piv[e]]` from the listed rows. Steps with an empty column
    /// (the triangular part of the basis) store none.
    l_piv: Vec<usize>,
    l: Lists,
    /// `U` by elimination step: pivot row, pivot value, and the entries in
    /// rows pivoted earlier (`u`, by column) / in steps taken later (`ut`,
    /// by row, holding the later step's pivot row).
    piv_row: Vec<usize>,
    diag: Vec<f64>,
    u: Lists,
    ut: Lists,
    /// Product-form updates: eta `e` replaces `v[e_row[e]]` by
    /// `e_diag[e] * v[e_row[e]]` and adds `x * v_row_old` to the listed rows.
    e_row: Vec<usize>,
    e_diag: Vec<f64>,
    e: Lists,
    /// Nonzeros of `L` and `U` at the last refactorization.
    nnz: usize,
}

impl Factor {
    /// Factorizes the matrix of the columns `cols` and returns which column
    /// is basic at each row.
    ///
    /// Ordering: column and row singletons are peeled off first (a permuted
    /// triangular part, no arithmetic and no fill-in — on the flow LPs that
    /// is nearly the whole basis); the remaining nucleus is eliminated
    /// left-looking, columns in ascending count order, with threshold partial
    /// pivoting that prefers the sparsest eligible row (Markowitz's rule with
    /// static counts).
    ///
    /// With `repair`, `cols` is a proposal: a column with no usable pivot is
    /// dropped and a row left without one takes its logical column, so the
    /// result is always a basis. Without it either event is an error.
    fn factorize(
        &mut self,
        std: &StdLp,
        cols: &[usize],
        repair: bool,
    ) -> Result<Vec<usize>, LpError> {
        let m = std.m;
        self.l_piv.clear();
        self.piv_row.clear();
        self.diag.clear();
        self.e_row.clear();
        self.e_diag.clear();
        for lists in [&mut self.l, &mut self.u, &mut self.ut, &mut self.e] {
            lists.clear();
        }

        // The proposed columns, column-wise, and the pattern row-wise.
        let mut by_col = Lists::default();
        by_col.clear();
        for &j in cols {
            std.for_col(j, |r, a| by_col.push(r, a));
            by_col.end();
        }
        let mut row_ptr = vec![0usize; m + 1];
        for &r in &by_col.idx {
            row_ptr[r + 1] += 1;
        }
        for r in 0..m {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut row_cols = vec![0usize; by_col.idx.len()];
        let mut cursor = row_ptr.clone();
        for c in 0..cols.len() {
            for &r in by_col.list(c).0 {
                row_cols[cursor[r]] = c;
                cursor[r] += 1;
            }
        }
        // Active counts: entries of a column in rows without a pivot, entries
        // of a row in columns not yet eliminated.
        let mut col_count: Vec<usize> = (0..cols.len()).map(|c| by_col.list(c).0.len()).collect();
        let mut row_count: Vec<usize> = (0..m).map(|r| row_ptr[r + 1] - row_ptr[r]).collect();
        let mut col_done = vec![false; cols.len()];
        let mut basis = vec![NONE; m];
        let mut x = vec![0.0f64; m];
        let mut nz: Vec<usize> = Vec::new();

        // Singleton peeling. Queues are first-in first-out so the columns
        // that start as singletons (the logicals) keep their own rows.
        let mut col_queue: Vec<usize> = (0..cols.len()).filter(|&c| col_count[c] == 1).collect();
        let mut row_queue: Vec<usize> = (0..m).filter(|&r| row_count[r] == 1).collect();
        let (mut col_head, mut row_head) = (0usize, 0usize);
        loop {
            let (c, r) = if col_head < col_queue.len() {
                let c = col_queue[col_head];
                col_head += 1;
                if col_done[c] || col_count[c] != 1 {
                    continue;
                }
                let (rows, vals) = by_col.list(c);
                let k = (0..rows.len())
                    .find(|&k| basis[rows[k]] == NONE)
                    .expect("a column with one active entry");
                if vals[k].abs() < SINGULAR_TOL {
                    continue;
                }
                (c, rows[k])
            } else if row_head < row_queue.len() {
                let r = row_queue[row_head];
                row_head += 1;
                if basis[r] != NONE || row_count[r] != 1 {
                    continue;
                }
                let c = *row_cols[row_ptr[r]..row_ptr[r + 1]]
                    .iter()
                    .find(|&&c| !col_done[c])
                    .expect("a row with one active entry");
                // Stability: leave a relatively small pivot to the nucleus.
                let (rows, vals) = by_col.list(c);
                let (mut pivot, mut largest) = (0.0f64, 0.0f64);
                for (&i, &a) in rows.iter().zip(vals) {
                    if i == r {
                        pivot = a.abs();
                    }
                    if basis[i] == NONE {
                        largest = largest.max(a.abs());
                    }
                }
                if pivot < SINGULAR_TOL || pivot < LU_THRESHOLD * largest {
                    continue;
                }
                (c, r)
            } else {
                break;
            };
            let (rows, vals) = by_col.list(c);
            for (&i, &a) in rows.iter().zip(vals) {
                x[i] = a;
                if i != r && basis[i] == NONE {
                    row_count[i] -= 1;
                    if row_count[i] == 1 {
                        row_queue.push(i);
                    }
                }
            }
            self.eliminate(&mut x, rows, r, &basis);
            basis[r] = cols[c];
            col_done[c] = true;
            for &c2 in &row_cols[row_ptr[r]..row_ptr[r + 1]] {
                if !col_done[c2] {
                    col_count[c2] -= 1;
                    if col_count[c2] == 1 {
                        col_queue.push(c2);
                    }
                }
            }
        }

        // The nucleus, left-looking. No eta of the triangular part can fire
        // on a column still active when it was built, so only the nucleus's
        // own etas are applied.
        let nucleus_etas = self.l_piv.len();
        let mut rest: Vec<usize> = (0..cols.len()).filter(|&c| !col_done[c]).collect();
        rest.sort_by_key(|&c| col_count[c]);
        let mut listed = vec![false; m];
        for c in rest {
            nz.clear();
            let (rows, vals) = by_col.list(c);
            for (&i, &a) in rows.iter().zip(vals) {
                x[i] = a;
                listed[i] = true;
                nz.push(i);
            }
            for e in nucleus_etas..self.l_piv.len() {
                let xp = x[self.l_piv[e]];
                if xp == 0.0 {
                    continue;
                }
                let (rows, vals) = self.l.list(e);
                for (&i, &l) in rows.iter().zip(vals) {
                    if !listed[i] {
                        listed[i] = true;
                        nz.push(i);
                    }
                    x[i] -= l * xp;
                }
            }
            let mut largest = 0.0f64;
            for &i in &nz {
                listed[i] = false;
                if basis[i] == NONE {
                    largest = largest.max(x[i].abs());
                }
            }
            if largest < SINGULAR_TOL {
                if !repair {
                    return Err(LpError::IterationLimit);
                }
                for &i in &nz {
                    x[i] = 0.0;
                }
                continue;
            }
            let mut r = NONE;
            for &i in &nz {
                if basis[i] != NONE || x[i].abs() < LU_THRESHOLD * largest {
                    continue;
                }
                if r == NONE
                    || (row_count[i], -x[i].abs(), i)
                        .partial_cmp(&(row_count[r], -x[r].abs(), r))
                        .expect("finite")
                        .is_lt()
                {
                    r = i;
                }
            }
            self.eliminate(&mut x, &nz, r, &basis);
            basis[r] = cols[c];
        }

        // Rows without a pivot take their logical column (a unit step).
        for r in 0..m {
            if basis[r] != NONE {
                continue;
            }
            if !repair {
                return Err(LpError::IterationLimit);
            }
            basis[r] = std.row_logical[r];
            std.for_col(basis[r], |i, a| x[i] = a);
            self.eliminate(&mut x, &[r], r, &basis);
        }

        // `U` row-wise, for the transposed solve.
        let mut step_of_row = vec![0usize; m];
        for (k, &r) in self.piv_row.iter().enumerate() {
            step_of_row[r] = k;
        }
        let mut count = vec![0usize; m + 1];
        for &i in &self.u.idx {
            count[step_of_row[i] + 1] += 1;
        }
        for k in 0..m {
            count[k + 1] += count[k];
        }
        self.ut.ptr.clone_from(&count);
        self.ut.idx.resize(self.u.idx.len(), 0);
        self.ut.val.resize(self.u.idx.len(), 0.0);
        for k in 0..m {
            let (rows, vals) = self.u.list(k);
            for (&i, &a) in rows.iter().zip(vals) {
                let slot = &mut count[step_of_row[i]];
                self.ut.idx[*slot] = self.piv_row[k];
                self.ut.val[*slot] = a;
                *slot += 1;
            }
        }
        self.nnz = self.l.idx.len() + self.u.idx.len() + m;
        Ok(basis)
    }

    /// Records the elimination step that pivots the column held in `x`
    /// (pattern `nz`) on row `r`: entries in rows pivoted earlier go to `U`,
    /// the others, divided by the pivot, to a new `L` eta. Zeroes `x`.
    fn eliminate(&mut self, x: &mut [f64], nz: &[usize], r: usize, basis: &[usize]) {
        let pivot = x[r];
        for &i in nz {
            let a = x[i];
            x[i] = 0.0;
            if i == r || a == 0.0 {
                continue;
            }
            if basis[i] != NONE {
                self.u.push(i, a);
            } else {
                self.l.push(i, a / pivot);
            }
        }
        self.u.end();
        if self.l.idx.len() > *self.l.ptr.last().expect("never empty") {
            self.l.end();
            self.l_piv.push(r);
        }
        self.piv_row.push(r);
        self.diag.push(pivot);
    }

    /// `v <- B^{-1} v`; entries that are zero cost nothing beyond a test.
    fn ftran(&self, v: &mut [f64]) {
        for (e, &p) in self.l_piv.iter().enumerate() {
            let vp = v[p];
            if vp != 0.0 {
                let (rows, vals) = self.l.list(e);
                for (&i, &l) in rows.iter().zip(vals) {
                    v[i] -= l * vp;
                }
            }
        }
        for k in (0..self.piv_row.len()).rev() {
            let p = self.piv_row[k];
            if v[p] != 0.0 {
                let vp = v[p] / self.diag[k];
                v[p] = vp;
                let (rows, vals) = self.u.list(k);
                for (&i, &a) in rows.iter().zip(vals) {
                    v[i] -= a * vp;
                }
            }
        }
        for (e, &p) in self.e_row.iter().enumerate() {
            let vp = v[p];
            if vp != 0.0 {
                v[p] = self.e_diag[e] * vp;
                let (rows, vals) = self.e.list(e);
                for (&i, &a) in rows.iter().zip(vals) {
                    v[i] += a * vp;
                }
            }
        }
    }

    /// `v <- B^{-T} v`.
    fn btran(&self, v: &mut [f64]) {
        for (e, &p) in self.e_row.iter().enumerate().rev() {
            let (rows, vals) = self.e.list(e);
            let mut s = self.e_diag[e] * v[p];
            for (&i, &a) in rows.iter().zip(vals) {
                s += a * v[i];
            }
            v[p] = s;
        }
        for (k, &p) in self.piv_row.iter().enumerate() {
            if v[p] != 0.0 {
                let vp = v[p] / self.diag[k];
                v[p] = vp;
                let (rows, vals) = self.ut.list(k);
                for (&i, &a) in rows.iter().zip(vals) {
                    v[i] -= a * vp;
                }
            }
        }
        for (e, &p) in self.l_piv.iter().enumerate().rev() {
            let (rows, vals) = self.l.list(e);
            let mut s = 0.0;
            for (&i, &l) in rows.iter().zip(vals) {
                s += l * v[i];
            }
            v[p] -= s;
        }
    }

    /// Appends the eta of a pivot on `w[r]`, where `w = B^{-1} A_enter` with
    /// pattern `nz`. Zeroes `w` and empties `nz`.
    fn push_eta(&mut self, w: &mut [f64], nz: &mut Vec<usize>, r: usize) {
        let inv = 1.0 / w[r];
        for &i in nz.iter() {
            if i != r {
                self.e.push(i, -w[i] * inv);
            }
            w[i] = 0.0;
        }
        nz.clear();
        self.e.end();
        self.e_row.push(r);
        self.e_diag.push(inv);
    }
}

/// Revised-simplex state: the basis, its factorization, the basic values and
/// the pricing state (reduced costs and Devex weights of every structural and
/// slack column; artificial columns never re-enter and are not priced).
struct Solver {
    std: StdLp,
    /// Column basic at each row.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Values of the basic variables, by row.
    xb: Vec<f64>,
    /// The right-hand side in force: `std.rhs`, plus the perturbation while
    /// a phase runs.
    rhs: Vec<f64>,
    factor: Factor,
    /// Reduced costs `c_j - y · A_j`; zero on basic columns.
    d: Vec<f64>,
    /// Devex reference weights.
    weight: Vec<f64>,
    /// Dense scratch (length m, zero between uses) for the entering column
    /// and its nonzero rows.
    col: Vec<f64>,
    nz: Vec<usize>,
    /// Dense scratch (length m, zero between uses) for `B^{-T}` solves.
    rho: Vec<f64>,
    /// Row `r` of the tableau over the priced columns: dense values (zero
    /// between uses) and the columns touched.
    alpha: Vec<f64>,
    touched: Vec<usize>,
    /// Steps up to this length count as degenerate.
    degenerate_step: f64,
    max_pivots: usize,
    pivots: usize,
    degenerate_pivots: usize,
    refactorizations: usize,
}

impl Solver {
    /// Factorizes the basis proposed by `candidates` (completed with logical
    /// columns; none proposed is the all-logical start) and computes its
    /// basic values, or `None` when that basis is not primal feasible.
    fn start(std: &StdLp, candidates: &[usize]) -> Option<(Factor, Vec<usize>, Vec<f64>)> {
        let mut factor = Factor::default();
        let basis = factor.factorize(std, candidates, true).ok()?;
        let mut xb = std.rhs.clone();
        factor.ftran(&mut xb);
        if xb.iter().any(|&x| x < -1e-7) {
            return None;
        }
        Some((factor, basis, xb))
    }

    /// The solver at a start [`Solver::start`] found feasible.
    fn new(std: StdLp, (factor, basis, xb): (Factor, Vec<usize>, Vec<f64>)) -> Solver {
        let mut in_basis = vec![false; std.total_cols];
        for &b in &basis {
            in_basis[b] = true;
        }
        let mut solver = Solver {
            basis,
            in_basis,
            xb,
            rhs: std.rhs.clone(),
            factor,
            d: vec![0.0; std.art_base],
            weight: vec![1.0; std.art_base],
            col: vec![0.0; std.m],
            nz: Vec::new(),
            rho: vec![0.0; std.m],
            alpha: vec![0.0; std.art_base],
            touched: Vec::new(),
            degenerate_step: 0.0,
            max_pivots: pivot_budget(&std),
            pivots: 0,
            degenerate_pivots: 0,
            refactorizations: 0,
            std,
        };
        solver.clamp_xb();
        solver
    }

    /// The basis a caller's guess of the variable values proposes: every
    /// structural column with a positive guess and every slack the guess
    /// leaves positive.
    fn crash(std: &StdLp, hint: &[f64]) -> Option<Vec<usize>> {
        if hint.len() != std.n {
            return None;
        }
        let mut candidates: Vec<usize> = (0..std.n)
            .filter(|&j| hint[j].is_finite() && hint[j] > 0.0)
            .collect();
        let mut activity = vec![0.0; std.m];
        for &j in &candidates {
            std.add_col(j, hint[j], &mut activity);
        }
        for (k, &(r, sign)) in std.slack.iter().enumerate() {
            if sign * (std.rhs[r] - activity[r]) > EPS * (1.0 + std.rhs[r]) {
                candidates.push(std.slack_base + k);
            }
        }
        Some(candidates)
    }

    /// `xb = B^{-1} rhs` under the current factorization.
    fn recompute_xb(&mut self) {
        self.xb.copy_from_slice(&self.rhs);
        self.factor.ftran(&mut self.xb);
    }

    fn clamp_xb(&mut self) {
        for x in &mut self.xb {
            *x = x.max(0.0);
        }
    }

    /// Refactorizes the current basis (which relabels the rows its columns
    /// are basic at) and recomputes the basic values.
    fn refactorize(&mut self) -> Result<(), LpError> {
        let cols = std::mem::take(&mut self.basis);
        self.basis = self.factor.factorize(&self.std, &cols, false)?;
        self.refactorizations += 1;
        self.recompute_xb();
        Ok(())
    }

    /// Recomputes every reduced cost from `y = B^{-T} c_B`.
    fn reprice(&mut self, c: &[f64]) {
        for (y, &b) in self.rho.iter_mut().zip(&self.basis) {
            *y = c[b];
        }
        self.factor.btran(&mut self.rho);
        for (j, dj) in self.d.iter_mut().enumerate() {
            *dj = if self.in_basis[j] {
                0.0
            } else {
                c[j] - self.std.dot_col(j, &self.rho)
            };
        }
        self.rho.fill(0.0);
    }

    /// Loads `col = B^{-1} A_j` and its nonzero rows `nz`.
    fn load_column(&mut self, j: usize) {
        self.std.add_col(j, 1.0, &mut self.col);
        self.factor.ftran(&mut self.col);
        self.nz.clear();
        self.nz
            .extend((0..self.std.m).filter(|&r| self.col[r] != 0.0));
    }

    fn unload_column(&mut self) {
        for &r in &self.nz {
            self.col[r] = 0.0;
        }
        self.nz.clear();
    }

    /// Loads row `r` of the tableau, `alpha_j = e_r' B^{-1} A_j` over the
    /// priced columns, following the nonzeros of `B^{-T} e_r` through the
    /// row-wise matrix.
    fn load_row(&mut self, r: usize) {
        let std = &self.std;
        self.rho[r] = 1.0;
        self.factor.btran(&mut self.rho);
        // `alpha_j += v`, listing `j` as touched. A column whose entry
        // cancels to exactly zero and fills again is listed twice, which is
        // harmless: the price update takes each value and leaves zero
        // behind, so the second visit changes nothing.
        let (alpha, touched) = (&mut self.alpha, &mut self.touched);
        let mut add_to_row = |j: usize, v: f64| {
            if alpha[j] == 0.0 {
                touched.push(j);
            }
            alpha[j] += v;
        };
        for i in 0..std.m {
            let p = self.rho[i];
            if p == 0.0 {
                continue;
            }
            self.rho[i] = 0.0;
            let row = std.row_ptr[i]..std.row_ptr[i + 1];
            for (&j, &a) in std.col_idx[row.clone()].iter().zip(&std.row_vals[row]) {
                add_to_row(j, p * a);
            }
            let slack = std.row_slack[i];
            if slack != NONE {
                add_to_row(slack, p * std.slack[slack - std.slack_base].1);
            }
        }
    }

    /// Reduced-cost and Devex updates for the pivot that brings `q` (reduced
    /// cost `dq`, column loaded) in at row `r` (tableau row loaded, which
    /// this consumes).
    fn update_prices(&mut self, q: usize, r: usize, dq: f64) {
        let pivot = self.col[r];
        let ratio = dq / pivot;
        let wq = self.weight[q];
        let mut largest = 0.0f64;
        for &j in &self.touched {
            let a = std::mem::take(&mut self.alpha[j]);
            if self.in_basis[j] || j == q {
                continue;
            }
            self.d[j] -= ratio * a;
            let g = a / pivot;
            self.weight[j] = self.weight[j].max(g * g * wq);
            largest = largest.max(self.weight[j]);
        }
        self.touched.clear();
        let leaving = self.basis[r];
        if leaving < self.std.art_base {
            self.d[leaving] = -ratio;
            self.weight[leaving] = (wq / (pivot * pivot)).max(1.0);
            largest = largest.max(self.weight[leaving]);
        }
        self.d[q] = 0.0;
        if largest > DEVEX_RESET {
            self.weight.fill(1.0);
        }
    }

    /// Steps the basic values by `theta` along the loaded column and swaps
    /// `q` in at row `r`, absorbing the column into a new eta.
    fn update_basis(&mut self, q: usize, r: usize, theta: f64, clamp: bool) {
        for &i in &self.nz {
            let x = self.xb[i] - theta * self.col[i];
            self.xb[i] = if clamp { x.max(0.0) } else { x };
        }
        self.xb[r] = theta;
        self.factor.push_eta(&mut self.col, &mut self.nz, r);
        self.in_basis[self.basis[r]] = false;
        self.in_basis[q] = true;
        self.basis[r] = q;
        self.pivots += 1;
    }

    /// Primal simplex under the costs `c` until no priced column has a
    /// positive reduced cost. Devex pricing; bounded (Harris) ratio test that
    /// takes the largest pivot among the rows within tolerance of the
    /// minimum ratio. Outside phase 1 a basic artificial touched by the
    /// entering column leaves first, through a zero-length step, so it can
    /// never drift off zero.
    fn primal(&mut self, c: &[f64], phase1: bool) -> Result<(), LpError> {
        let art_base = self.std.art_base;
        self.reprice(c);
        let mut fresh = true;
        loop {
            if self.factor.e_row.len() >= REFACTOR_EVERY {
                self.refactorize()?;
                self.clamp_xb();
                self.reprice(c);
                fresh = true;
            }
            let mut enter = NONE;
            let mut best = 0.0f64;
            for (j, (&dj, &wj)) in self.d.iter().zip(&self.weight).enumerate() {
                // Written so the common case (not attractive, or not the
                // best so far) is one predictable branch.
                let gain = if dj > EPS { dj * dj } else { 0.0 };
                if gain > best * wj {
                    best = gain / wj;
                    enter = j;
                }
            }
            if enter == NONE {
                if fresh {
                    return Ok(());
                }
                // Optimal under updated reduced costs: confirm on fresh ones.
                self.reprice(c);
                fresh = true;
                continue;
            }
            if self.pivots >= self.max_pivots {
                return Err(LpError::IterationLimit);
            }
            self.load_column(enter);
            // The reduced cost read off the column itself; the updated value
            // only chose the candidate.
            let mut dq = c[enter];
            for &r in &self.nz {
                dq -= c[self.basis[r]] * self.col[r];
            }
            if dq <= EPS {
                self.d[enter] = dq;
                self.unload_column();
                continue;
            }

            let pinned = |basic: usize| !phase1 && basic >= art_base;
            let mut art_leave = NONE;
            let mut bound = f64::INFINITY;
            for &r in &self.nz {
                let w = self.col[r];
                if pinned(self.basis[r]) {
                    if w.abs() > ART_PIVOT_TOL
                        && (art_leave == NONE || w.abs() > self.col[art_leave].abs())
                    {
                        art_leave = r;
                    }
                } else if w > PIVOT_TOL {
                    bound = bound.min((self.xb[r] + FEAS_TOL) / w);
                }
            }
            let mut leave = art_leave;
            if leave == NONE {
                let mut largest = PIVOT_TOL;
                for &r in &self.nz {
                    let w = self.col[r];
                    if w > largest && !pinned(self.basis[r]) && self.xb[r] / w <= bound {
                        largest = w;
                        leave = r;
                    }
                }
            }
            if leave == NONE {
                self.unload_column();
                return Err(LpError::Unbounded);
            }

            let theta = (self.xb[leave] / self.col[leave]).max(0.0);
            if theta <= self.degenerate_step {
                self.degenerate_pivots += 1;
            }
            self.load_row(leave);
            self.update_prices(enter, leave, dq);
            // Harris's relaxation lets a basic value dip below zero by at
            // most the tolerance; the update puts it back on its bound.
            self.update_basis(enter, leave, theta, true);
            fresh = false;
        }
    }
}

impl Solver {
    /// Dual simplex under the costs `c`, from a basis whose reduced costs
    /// admit no entering column but whose basic values may be negative — the
    /// state removing the perturbation can leave. Each step takes the most
    /// negative basic variable out; the entering column is the one whose
    /// reduced cost reaches zero first, so the others keep their sign.
    fn dual(&mut self, c: &[f64]) -> Result<(), LpError> {
        let most_negative = |xb: &[f64]| {
            let mut r = NONE;
            let mut least = -FEAS_TOL;
            for (i, &x) in xb.iter().enumerate() {
                if x < least {
                    least = x;
                    r = i;
                }
            }
            r
        };
        if most_negative(&self.xb) == NONE {
            return Ok(());
        }
        self.reprice(c);
        loop {
            let leave = most_negative(&self.xb);
            if leave == NONE {
                return Ok(());
            }
            if self.pivots >= self.max_pivots {
                return Err(LpError::IterationLimit);
            }
            self.load_row(leave);
            let mut enter = NONE;
            let mut best = (f64::INFINITY, 0.0f64);
            for &j in &self.touched {
                let a = self.alpha[j];
                if self.in_basis[j] || a >= -PIVOT_TOL {
                    continue;
                }
                let ratio = (-self.d[j]).max(0.0) / -a;
                if ratio < best.0 || (ratio == best.0 && -a > best.1) {
                    best = (ratio, -a);
                    enter = j;
                }
            }
            if enter == NONE {
                // The row proves no point satisfies it with x >= 0.
                for &j in &self.touched {
                    self.alpha[j] = 0.0;
                }
                self.touched.clear();
                return Err(LpError::Infeasible);
            }
            self.load_column(enter);
            let theta = self.xb[leave] / self.col[leave];
            self.update_prices(enter, leave, self.d[enter]);
            self.update_basis(enter, leave, theta, false);
            if self.factor.e_row.len() >= REFACTOR_EVERY {
                self.refactorize()?;
                self.reprice(c);
            }
        }
    }

    /// Optimizes the costs `c` from the current (primal feasible) basis.
    ///
    /// The phase runs on a perturbed problem: the variable basic at row `r`
    /// may go down to `-delta_r` instead of zero, `delta_r` a fixed function
    /// of `r`, which is the same as moving the right-hand side by
    /// `sum_r delta_r B_r`. That only enlarges the feasible region, splits
    /// every degenerate vertex into distinct ones, and leaves the reduced
    /// costs — which do not depend on the right-hand side — alone. So the
    /// basis the perturbed run ends at prices out on the true problem too;
    /// the basic values are then recomputed from the true right-hand side
    /// and, should one come out negative, the dual simplex restores it
    /// without giving up the sign of any reduced cost. The result is a
    /// basis both primal and dual feasible for the unperturbed problem.
    /// Artificials outside phase 1 are pinned at zero and not perturbed.
    fn optimize(&mut self, c: &[f64], phase1: bool) -> Result<(), LpError> {
        let std = &self.std;
        let largest = std.rhs.iter().fold(0.0f64, |a, &b| a.max(b));
        let scale = if largest > 0.0 { largest } else { 1.0 };
        self.degenerate_step = DEGENERATE_STEP * scale;
        for r in 0..std.m {
            if !phase1 && self.basis[r] >= std.art_base {
                continue;
            }
            let delta = PERTURB * scale * (1.0 + ((r + 1) as f64 * GOLDEN).fract());
            self.xb[r] += delta;
            std.add_col(self.basis[r], delta, &mut self.rhs);
        }
        self.weight.fill(1.0);
        self.primal(c, phase1)?;

        self.rhs.copy_from_slice(&self.std.rhs);
        self.refactorize()?;
        self.dual(c)?;
        self.clamp_xb();
        Ok(())
    }

    /// Total value currently sitting on basic artificial variables.
    fn artificial_mass(&self) -> f64 {
        let art_base = self.std.art_base;
        let on_artificials = self
            .basis
            .iter()
            .zip(&self.xb)
            .filter(|(&b, _)| b >= art_base);
        on_artificials.map(|(_, &x)| x).sum()
    }
}

/// The pivot budget of one optimization of `std`: [`MAX_PIVOTS_PER_ROW`] per
/// row, one per column and a constant.
fn pivot_budget(std: &StdLp) -> usize {
    MAX_PIVOTS_PER_ROW * std.m + std.art_base + 1000
}

impl Solver {
    /// Phase 2's costs: the objective on the structural columns, zero on
    /// the logical ones.
    fn costs(&self) -> Vec<f64> {
        let mut c = vec![0.0; self.std.total_cols];
        c[..self.std.n].copy_from_slice(&self.std.objective);
        c
    }

    /// Appends structural columns and renumbers the logical ones behind
    /// them. The basis matrix and its factorization do not change.
    fn add_columns(&mut self, columns: &[(f64, Vec<(usize, f64)>)]) {
        let old = self.std.n;
        self.std.append_columns(columns);
        let added = self.std.n - old;
        for b in &mut self.basis {
            if *b >= old {
                *b += added;
            }
        }
        let at = old..old;
        self.in_basis
            .splice(at.clone(), std::iter::repeat_n(false, added));
        self.d.splice(at.clone(), std::iter::repeat_n(0.0, added));
        self.weight
            .splice(at.clone(), std::iter::repeat_n(1.0, added));
        self.alpha.splice(at, std::iter::repeat_n(0.0, added));
    }

    /// The primal and dual solution of the current basis.
    fn solution(&self) -> Solution {
        let std = &self.std;
        let mut values = vec![0.0; std.n];
        for (&b, &x) in self.basis.iter().zip(&self.xb) {
            if b < std.n {
                values[b] = x;
            }
        }
        let objective = std.objective.iter().zip(&values).map(|(c, x)| c * x).sum();

        // Duals of the normalized rows, restored to the caller's orientation.
        let mut y: Vec<f64> = self
            .basis
            .iter()
            .map(|&b| if b < std.n { std.objective[b] } else { 0.0 })
            .collect();
        self.factor.btran(&mut y);
        for (dual, &negated) in y.iter_mut().zip(&std.row_negated) {
            if negated {
                *dual = -*dual;
            }
        }
        Solution {
            objective,
            values,
            duals: y,
            pivots: self.pivots,
            degenerate_pivots: self.degenerate_pivots,
            refactorizations: self.refactorizations,
            factor_nonzeros: self.factor.nnz,
        }
    }
}

/// A linear program solved to optimality and kept open: its basis, the LU
/// and eta factors of the basis and the pricing state stay in place, so
/// structural columns can be added ([`add_columns`](Self::add_columns)) and
/// the optimum found again from where the last one left off
/// ([`resolve`](Self::resolve)) instead of building and solving the grown
/// program afresh.
///
/// A new column enters nonbasic, at value zero: the basic values do not
/// move, so the basis stays primal feasible, and primal simplex resumes
/// from it with every column priced from the current duals. This is the
/// restricted master of a column-generation loop.
pub struct OpenLp {
    solver: Solver,
}

impl OpenLp {
    /// Solves `lp` with the two-phase revised simplex method, from the basis
    /// `hint` implies when one is given (see [`solve_with_hint`]), and keeps
    /// it open.
    pub fn solve(lp: &LinearProgram, hint: Option<&[f64]>) -> Result<OpenLp, LpError> {
        let std = StdLp::build(lp);
        let start = hint
            .and_then(|h| Solver::crash(&std, h))
            .and_then(|c| Solver::start(&std, &c))
            .or_else(|| Solver::start(&std, &[]))
            .expect("the all-logical basis is the identity and feasible");
        let mut solver = Solver::new(std, start);

        // Phase 1: drive the artificial mass to zero (maximize its negation).
        if solver.artificial_mass() > 1e-9 {
            let mut c1 = vec![0.0; solver.std.total_cols];
            c1[solver.std.art_base..].fill(-1.0);
            solver.optimize(&c1, true)?;
            if solver.artificial_mass() > 1e-6 {
                return Err(LpError::Infeasible);
            }
        }

        // Phase 2: the real objective; artificials may neither enter nor move.
        let c2 = solver.costs();
        solver.optimize(&c2, false)?;
        Ok(OpenLp { solver })
    }

    /// Number of structural variables, the added columns included.
    pub fn num_vars(&self) -> usize {
        self.solver.std.n
    }

    /// Appends one structural variable per entry of `columns`, each given as
    /// its objective coefficient and its coefficients by constraint index
    /// (in input order; duplicates are summed). They are numbered after the
    /// existing variables, in order, and enter at value zero; the optimum is
    /// stale until the next [`resolve`](Self::resolve).
    ///
    /// # Panics
    /// Panics if a coefficient names a constraint that does not exist.
    pub fn add_columns(&mut self, columns: &[(f64, Vec<(usize, f64)>)]) {
        self.solver.add_columns(columns);
    }

    /// Resumes primal simplex from the current basis until the program,
    /// added columns included, is optimal again. It runs on the perturbed
    /// problem and cleans up as a first solve does, under a fresh pivot
    /// budget. After an error the program must not be used again.
    pub fn resolve(&mut self) -> Result<(), LpError> {
        let solver = &mut self.solver;
        solver.max_pivots = solver.pivots + pivot_budget(&solver.std);
        let c2 = solver.costs();
        solver.optimize(&c2, false)
    }

    /// The current optimum. Its counters add up every pivot, degenerate
    /// pivot and refactorization since the program was opened; its factor
    /// size is the last refactorization's.
    pub fn solution(&self) -> Solution {
        self.solver.solution()
    }
}

/// Solves the linear program with the two-phase revised simplex method.
pub fn solve(lp: &LinearProgram) -> LpResult {
    Ok(OpenLp::solve(lp, None)?.solution())
}

/// Like [`solve`], but starts from the basis `hint` implies. `hint` is a
/// guess of the variable values (length `num_vars`): every variable with a
/// positive entry, and every slack the guess leaves positive, is proposed as
/// basic — to propose a variable that is basic at level zero, give it any
/// positive value. Dependent proposals are dropped and rows left uncovered
/// take their logical column. If the resulting vertex is infeasible the solver
/// falls back to the cold start, so the optimum is the same either way — only
/// the iteration count changes.
pub fn solve_with_hint(lp: &LinearProgram, hint: &[f64]) -> LpResult {
    Ok(OpenLp::solve(lp, Some(hint))?.solution())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn simple_two_var_max() {
        // max 3x + 2y ; x + y <= 4; x + 3y <= 6; x,y >= 0 -> x=4, y=0, obj=12
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 2.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(vec![(0, 1.0), (1, 3.0)], ConstraintOp::Le, 6.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 12.0);
        assert_close(s.values[0], 4.0);
        assert_close(s.values[1], 0.0);
    }

    #[test]
    fn classic_product_mix() {
        // max 5x + 4y; 6x + 4y <= 24; x + 2y <= 6 -> x=3, y=1.5, obj=21
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 5.0);
        lp.set_objective(1, 4.0);
        lp.add_constraint(vec![(0, 6.0), (1, 4.0)], ConstraintOp::Le, 24.0);
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintOp::Le, 6.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 21.0);
        assert_close(s.values[0], 3.0);
        assert_close(s.values[1], 1.5);
    }

    #[test]
    fn equality_constraint() {
        // max x + y; x + y = 5; x <= 3 -> obj = 5
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 3.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 5.0);
        assert!(s.values[0] <= 3.0 + 1e-9);
    }

    #[test]
    fn ge_constraints_and_minimization_style() {
        // "minimize 2x + 3y s.t. x + y >= 10, x >= 2" expressed as maximizing
        // the negation.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -2.0);
        lp.set_objective(1, -3.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 10.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 2.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, -20.0);
        assert_close(s.values[0], 10.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 5.0);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y <= -1 with x,y>=0 means y >= x + 1.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, -1.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Le, -1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 3.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 10.0);
        let s = solve(&lp).unwrap();
        // best is x=3, y=4 -> obj = -1
        assert_close(s.objective, -1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A problem known to cause cycling without anti-cycling rules
        // (Beale's example, stated as maximization).
        let mut lp = LinearProgram::new(4);
        lp.set_objective(0, 0.75);
        lp.set_objective(1, -150.0);
        lp.set_objective(2, 0.02);
        lp.set_objective(3, -6.0);
        lp.add_constraint(
            vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.add_constraint(vec![(2, 1.0)], ConstraintOp::Le, 1.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 0.05);
    }

    #[test]
    fn max_flow_as_lp() {
        // Max s-t flow on a small directed graph encoded as an LP.
        // s=0, t=3. arcs: (0,1,c=2),(0,2,c=2),(1,3,c=1),(2,3,c=3),(1,2,c=1)
        // max flow = 4 (paths 0-1-3: 1, 0-1-2-3: 1, 0-2-3: 2).
        // variables: f per arc (5 vars). maximize f(0,1)+f(0,2)
        // conservation at 1: f01 = f13 + f12 ; at 2: f02 + f12 = f23
        let mut lp = LinearProgram::new(5);
        // order: f01, f02, f13, f23, f12
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        for (i, cap) in [(0usize, 2.0), (1, 2.0), (2, 1.0), (3, 3.0), (4, 1.0)] {
            lp.add_constraint(vec![(i, 1.0)], ConstraintOp::Le, cap);
        }
        lp.add_constraint(vec![(0, 1.0), (2, -1.0), (4, -1.0)], ConstraintOp::Eq, 0.0);
        lp.add_constraint(vec![(1, 1.0), (4, 1.0), (3, -1.0)], ConstraintOp::Eq, 0.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn redundant_equalities_do_not_break_phase1() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
        lp.add_constraint(vec![(0, 2.0), (1, 2.0)], ConstraintOp::Eq, 4.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn zero_rhs_equalities() {
        // max x s.t. x - y = 0, y <= 7
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Eq, 0.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 7.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 7.0);
    }

    #[test]
    fn duals_satisfy_strong_duality_on_product_mix() {
        // Duals of the classic product mix solve 6a + b = 5, 4a + 2b = 4
        // -> a = 0.75, b = 0.5, and y'b = 24*0.75 + 6*0.5 = 21 = objective.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 5.0);
        lp.set_objective(1, 4.0);
        lp.add_constraint(vec![(0, 6.0), (1, 4.0)], ConstraintOp::Le, 24.0);
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintOp::Le, 6.0);
        let s = solve(&lp).unwrap();
        assert_close(s.duals[0], 0.75);
        assert_close(s.duals[1], 0.5);
        let dual_obj: f64 = s.duals[0] * 24.0 + s.duals[1] * 6.0;
        assert_close(dual_obj, s.objective);
    }

    #[test]
    fn duals_on_negated_rows_keep_the_callers_orientation() {
        // Same instance as negative_rhs_normalization: strong duality must
        // hold against the ORIGINAL right-hand sides (including the -1), and
        // the `<=` row's dual stays nonnegative in the caller's orientation.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, -1.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Le, -1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 3.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 10.0);
        let s = solve(&lp).unwrap();
        let dual_obj: f64 = -s.duals[0] + s.duals[1] * 3.0 + s.duals[2] * 10.0;
        assert_close(dual_obj, s.objective);
        assert!(s.duals[0] >= -1e-9, "Le dual must be nonnegative");
    }

    #[test]
    fn warm_start_matches_cold_start() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 5.0);
        lp.set_objective(1, 4.0);
        lp.add_constraint(vec![(0, 6.0), (1, 4.0)], ConstraintOp::Le, 24.0);
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintOp::Le, 6.0);
        let cold = solve(&lp).unwrap();
        // A hint at the optimum, a feasible-but-wrong hint, and garbage must
        // all land on the same optimum.
        for hint in [
            vec![3.0, 1.5],
            vec![0.1, 0.1],
            vec![1e9, 1e9],
            vec![f64::NAN, -1.0],
        ] {
            let warm = solve_with_hint(&lp, &hint).unwrap();
            assert_close(warm.objective, cold.objective);
        }
        // Wrong-length hints fall back to the cold start.
        let warm = solve_with_hint(&lp, &[1.0]).unwrap();
        assert_close(warm.objective, cold.objective);
    }

    #[test]
    fn warm_start_on_equality_rows() {
        // Max-flow LP again, warm-started from its known optimal flow.
        let mut lp = LinearProgram::new(5);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        for (i, cap) in [(0usize, 2.0), (1, 2.0), (2, 1.0), (3, 3.0), (4, 1.0)] {
            lp.add_constraint(vec![(i, 1.0)], ConstraintOp::Le, cap);
        }
        lp.add_constraint(vec![(0, 1.0), (2, -1.0), (4, -1.0)], ConstraintOp::Eq, 0.0);
        lp.add_constraint(vec![(1, 1.0), (4, 1.0), (3, -1.0)], ConstraintOp::Eq, 0.0);
        let s = solve_with_hint(&lp, &[2.0, 2.0, 1.0, 3.0, 1.0]).unwrap();
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn larger_sparse_instance_forces_refactorization() {
        // A transportation-style LP big enough to force several eta-file
        // rebuilds: 40 supplies x 40 sinks on a sparse bipartite pattern,
        // maximize total shipped. Supply i reaches sinks i, i+1, i+2 (mod 40)
        // with unit caps on both sides -> a perfect matching ships 40.
        let n_side = 40usize;
        let mut lp = LinearProgram::new(n_side * 3);
        let var = |i: usize, k: usize| i * 3 + k;
        for i in 0..n_side {
            for k in 0..3 {
                lp.set_objective(var(i, k), 1.0);
            }
            let coeffs = (0..3).map(|k| (var(i, k), 1.0)).collect();
            lp.add_constraint(coeffs, ConstraintOp::Le, 1.0);
        }
        for j in 0..n_side {
            // Sink j receives from supplies j, j-1, j-2 (mod n).
            let coeffs = (0..3)
                .map(|k| (var((j + n_side - k) % n_side, k), 1.0))
                .collect();
            lp.add_constraint(coeffs, ConstraintOp::Le, 1.0);
        }
        let s = solve(&lp).unwrap();
        assert_close(s.objective, n_side as f64);
        // Strong duality across all 80 unit-rhs rows.
        let dual_obj: f64 = s.duals.iter().sum();
        assert_close(dual_obj, s.objective);
    }

    #[test]
    fn vertices_closer_than_the_perturbation_are_told_apart_on_the_true_rhs() {
        // Two parallel bounds 2e-8 apart, less than the perturbation moves
        // them: the perturbed run ends on the looser one (row 1's slack is
        // allowed less room than row 0's), where the true right-hand side
        // leaves row 0 violated. The dual clean-up must move to the tight
        // one; without it the answer is 1 + 2e-8 and infeasible.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 1.0 + 2e-8);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-12, "{}", s.objective);
        assert!((s.values[1] - 2.0).abs() < 1e-12);
        assert!((s.duals[0] - 1.0).abs() < 1e-12 && s.duals[1].abs() < 1e-12);
    }

    /// Test-only reference: a dense two-phase tableau simplex under Bland's
    /// rule (smallest-index entering column, smallest-index tie-break on the
    /// leaving row), which cannot cycle. Returns the optimal objective.
    fn bland_tableau(lp: &LinearProgram) -> Result<f64, LpError> {
        let (n, m) = (lp.num_vars, lp.constraints.len());
        // Columns: n structural, one slack slot and one artificial slot per row.
        let width = n + 2 * m;
        let mut rows = vec![vec![0.0; width]; m];
        let mut rhs = vec![0.0; m];
        let mut basis = vec![0usize; m];
        for (r, c) in lp.constraints.iter().enumerate() {
            let sign = if c.rhs < 0.0 { -1.0 } else { 1.0 };
            for &(v, a) in &c.coeffs {
                rows[r][v] += sign * a;
            }
            rhs[r] = sign * c.rhs;
            let slack = match c.op {
                ConstraintOp::Le => sign,
                ConstraintOp::Ge => -sign,
                ConstraintOp::Eq => 0.0,
            };
            rows[r][n + r] = slack;
            rows[r][n + m + r] = 1.0;
            basis[r] = if slack > 0.0 { n + r } else { n + m + r };
        }
        fn pivot(rows: &mut [Vec<f64>], rhs: &mut [f64], r: usize, j: usize) {
            let p = rows[r][j];
            rows[r].iter_mut().for_each(|x| *x /= p);
            rhs[r] /= p;
            let (pivot_row, pivot_rhs) = (rows[r].clone(), rhs[r]);
            for i in (0..rows.len()).filter(|&i| i != r) {
                let f = rows[i][j];
                if f != 0.0 {
                    rows[i]
                        .iter_mut()
                        .zip(&pivot_row)
                        .for_each(|(x, p)| *x -= f * p);
                    rhs[i] -= f * pivot_rhs;
                }
            }
        }
        // Maximizes `cost` over the columns below `n + m` (artificials never enter).
        let optimize = |rows: &mut Vec<Vec<f64>>,
                        rhs: &mut Vec<f64>,
                        basis: &mut Vec<usize>,
                        cost: &[f64]|
         -> Result<(), LpError> {
            loop {
                let reduced =
                    |j: usize| cost[j] - (0..m).map(|r| cost[basis[r]] * rows[r][j]).sum::<f64>();
                let Some(j) = (0..n + m).find(|&j| !basis.contains(&j) && reduced(j) > 1e-9) else {
                    return Ok(());
                };
                let mut leave: Option<usize> = None;
                for r in (0..m).filter(|&r| rows[r][j] > 1e-9) {
                    let ratio = rhs[r] / rows[r][j];
                    let better = leave.is_none_or(|l| {
                        let best = rhs[l] / rows[l][j];
                        ratio < best - 1e-12 || (ratio <= best + 1e-12 && basis[r] < basis[l])
                    });
                    if better {
                        leave = Some(r);
                    }
                }
                let r = leave.ok_or(LpError::Unbounded)?;
                pivot(rows, rhs, r, j);
                basis[r] = j;
            }
        };
        let mut phase1 = vec![0.0; width];
        phase1[n + m..].fill(-1.0);
        optimize(&mut rows, &mut rhs, &mut basis, &phase1)?;
        if (0..m).any(|r| basis[r] >= n + m && rhs[r] > 1e-7) {
            return Err(LpError::Infeasible);
        }
        // Artificials left basic at zero leave where a column can replace
        // them; a row that offers none is redundant and stays inert.
        for r in 0..m {
            if basis[r] >= n + m {
                if let Some(j) = (0..n + m).find(|&j| rows[r][j].abs() > 1e-9) {
                    pivot(&mut rows, &mut rhs, r, j);
                    basis[r] = j;
                }
            }
        }
        let mut phase2 = vec![0.0; width];
        phase2[..n].copy_from_slice(&lp.objective);
        optimize(&mut rows, &mut rhs, &mut basis, &phase2)?;
        Ok((0..m).map(|r| phase2[basis[r]] * rhs[r]).sum())
    }

    /// Small seeded programs with everything that makes a simplex stumble:
    /// zero right-hand sides, duplicated and scaled rows, mixed operators,
    /// negative right-hand sides, infeasible and unbounded instances.
    fn random_program(seed: u64) -> LinearProgram {
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
        let m = 1 + next(6) as usize;
        let mut lp = LinearProgram::new(n);
        for v in 0..n {
            lp.set_objective(v, next(7) as f64 - 3.0);
        }
        // Most instances get a box so that optimal outcomes dominate.
        if next(4) > 0 {
            lp.add_constraint((0..n).map(|v| (v, 1.0)).collect(), ConstraintOp::Le, 4.0);
        }
        while lp.constraints.len() < m {
            if !lp.constraints.is_empty() && next(5) == 0 {
                // A copy of an earlier row, scaled.
                let k = next(lp.constraints.len() as u64) as usize;
                let scale = 1.0 + next(2) as f64;
                let c = lp.constraints[k].clone();
                let coeffs = c.coeffs.iter().map(|&(v, a)| (v, a * scale)).collect();
                lp.add_constraint(coeffs, c.op, c.rhs * scale);
                continue;
            }
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for v in 0..n {
                if next(2) == 0 {
                    coeffs.push((v, next(7) as f64 - 3.0));
                }
            }
            let op = [
                ConstraintOp::Le,
                ConstraintOp::Le,
                ConstraintOp::Eq,
                ConstraintOp::Ge,
            ][next(4) as usize];
            let rhs = [0.0, 0.0, 1.0, 2.0, 3.0, -1.0][next(6) as usize];
            lp.add_constraint(coeffs, op, rhs);
        }
        lp
    }

    /// The seeded programs again, each opened on its first variables only
    /// (the others dropped from every row) and then grown to the whole
    /// program by [`OpenLp::add_columns`] in two batches, resolving after
    /// each: the open LP must end where a solve of the whole program does.
    #[test]
    fn an_open_lp_grown_column_by_column_ends_at_the_whole_programs_optimum() {
        let (mut grown, mut unbounded) = (0, 0);
        for seed in 0..3000u64 {
            let lp = random_program(seed);
            let n = lp.num_vars;
            if n < 2 {
                continue;
            }
            let keep = n / 2;
            let mut part = LinearProgram::new(keep);
            part.objective.copy_from_slice(&lp.objective[..keep]);
            for c in &lp.constraints {
                let coeffs = c
                    .coeffs
                    .iter()
                    .filter(|&&(v, _)| v < keep)
                    .copied()
                    .collect();
                part.add_constraint(coeffs, c.op, c.rhs);
            }
            let Ok(mut open) = OpenLp::solve(&part, None) else {
                continue;
            };
            let column = |v: usize| {
                let coeffs = lp.constraints.iter().enumerate().flat_map(|(r, c)| {
                    c.coeffs
                        .iter()
                        .filter(move |&&(u, _)| u == v)
                        .map(move |&(_, a)| (r, a))
                });
                (lp.objective[v], coeffs.collect::<Vec<_>>())
            };
            let reference = bland_tableau(&lp);
            let mut outcome = Ok(());
            for batch in [keep..keep + 1, keep + 1..n] {
                let columns: Vec<_> = batch.map(column).collect();
                open.add_columns(&columns);
                outcome = open.resolve();
                if outcome.is_err() {
                    break;
                }
            }
            match (reference, outcome) {
                (Ok(want), Ok(())) => {
                    grown += 1;
                    assert_eq!(open.num_vars(), n);
                    let s = open.solution();
                    let tol = 1e-9 * (1.0 + want.abs());
                    assert!(
                        (s.objective - want).abs() <= tol,
                        "seed {seed}: {s:?} vs {want}"
                    );
                    assert!(s.values.iter().all(|&x| x >= 0.0), "seed {seed}");
                    for c in &lp.constraints {
                        let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * s.values[v]).sum();
                        let slack = match c.op {
                            ConstraintOp::Le => c.rhs - lhs,
                            ConstraintOp::Ge => lhs - c.rhs,
                            ConstraintOp::Eq => -(lhs - c.rhs).abs(),
                        };
                        assert!(slack >= -1e-7, "seed {seed}: row violated by {slack}");
                    }
                    let dual_objective: f64 = lp
                        .constraints
                        .iter()
                        .zip(&s.duals)
                        .map(|(c, y)| y * c.rhs)
                        .sum();
                    assert!(
                        (dual_objective - s.objective).abs() <= 1e-7 * (1.0 + want.abs()),
                        "seed {seed}: duals give {dual_objective}, primal {}",
                        s.objective
                    );
                }
                (Err(LpError::Unbounded), Err(LpError::Unbounded)) => unbounded += 1,
                (reference, outcome) => {
                    panic!("seed {seed}: reference {reference:?}, open LP {outcome:?}")
                }
            }
        }
        assert!(grown > 1000 && unbounded > 50, "{grown} {unbounded}");
    }

    #[test]
    fn agrees_with_the_bland_tableau_on_seeded_small_programs() {
        let (mut optimal, mut infeasible, mut unbounded) = (0, 0, 0);
        for seed in 0..3000u64 {
            let lp = random_program(seed);
            let reference = bland_tableau(&lp);
            let hinted = solve_with_hint(&lp, &vec![1.0; lp.num_vars]);
            let got = solve(&lp);
            match (&reference, &got) {
                (Err(e), Err(g)) => {
                    assert_eq!(e, g, "seed {seed}");
                    assert_eq!(hinted.as_ref().err(), Some(e), "seed {seed} (hinted)");
                    match e {
                        LpError::Infeasible => infeasible += 1,
                        _ => unbounded += 1,
                    }
                }
                (Ok(want), Ok(s)) => {
                    optimal += 1;
                    let tol = 1e-9 * (1.0 + want.abs());
                    assert!(
                        (s.objective - want).abs() <= tol,
                        "seed {seed}: {s:?} vs {want}"
                    );
                    let hinted = hinted.unwrap_or_else(|e| panic!("seed {seed} (hinted): {e}"));
                    assert!(
                        (hinted.objective - want).abs() <= tol,
                        "seed {seed} (hinted)"
                    );
                    // The point is feasible, the duals price it out, and
                    // their signs follow the documented convention.
                    assert!(s.values.iter().all(|&x| x >= 0.0), "seed {seed}");
                    let mut dual_objective = 0.0;
                    for (c, &y) in lp.constraints.iter().zip(&s.duals) {
                        let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * s.values[v]).sum();
                        let (slack, sign_ok) = match c.op {
                            ConstraintOp::Le => (c.rhs - lhs, y >= -1e-9),
                            ConstraintOp::Ge => (lhs - c.rhs, y <= 1e-9),
                            ConstraintOp::Eq => (-(lhs - c.rhs).abs(), true),
                        };
                        assert!(slack >= -1e-7, "seed {seed}: row violated by {slack}");
                        assert!(sign_ok, "seed {seed}: dual {y} has the wrong sign");
                        dual_objective += y * c.rhs;
                    }
                    assert!(
                        (dual_objective - s.objective).abs() <= 1e-7 * (1.0 + want.abs()),
                        "seed {seed}: duals give {dual_objective}, primal {}",
                        s.objective
                    );
                }
                _ => panic!("seed {seed}: reference {reference:?}, solver {got:?}"),
            }
        }
        // The generator must keep producing all three outcomes.
        assert!(
            optimal > 1500 && infeasible > 100 && unbounded > 50,
            "{optimal} {infeasible} {unbounded}"
        );
    }
}
