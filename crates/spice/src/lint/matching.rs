//! Matrix-structure backstop of the pre-flight pass: a structural rank
//! test on the assembled MNA system via Hopcroft–Karp maximum bipartite
//! matching, with a Dulmage–Mendelsohn-style alternating-reachability
//! pass to name the exact equations and unknowns in the deficient
//! block.
//!
//! The graph checks in [`super::graph`] classify the common defects;
//! this pass catches whatever they cannot see — for instance a
//! transconductance numerically cancelling a resistor at the zero
//! starting point, which zeroes a pivot the first factorization would
//! die on. The probe stamps the same DC system the first Newton
//! iteration assembles (at `x = 0`, full source scale), sums duplicate
//! coordinates and treats exact zeros as structurally absent, so
//! "passes lint" implies "the first OP factorization has a structurally
//! nonsingular matrix".

use super::{
    element_label, join_capped, node_label, LintCode, LintDiagnostic, LintSeverity, TaggedEdge,
};
use crate::analysis::stamp::{assemble, MnaSink, Mode, NonlinMemory, Options};
use crate::circuit::Prepared;

/// [`MnaSink`] that records every stamped `(row, col, value)` triplet,
/// with the coordinate packed as `row << 32 | col` so one integer sort
/// orders the entries row-major (MNA dimensions are far below 2^32).
#[derive(Default)]
struct TripletSink {
    entries: Vec<(u64, f64)>,
}

impl MnaSink<f64> for TripletSink {
    fn reset(&mut self) {
        self.entries.clear();
    }

    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.entries.push(((r as u64) << 32 | c as u64, v));
    }
}

/// Runs the structural rank test, appending at most one
/// [`LintCode::StructuralSingular`] diagnostic.
pub(crate) fn check(prep: &Prepared, edges: &[TaggedEdge], out: &mut Vec<LintDiagnostic>) {
    let n = prep.num_unknowns;
    if n == 0 {
        return;
    }
    // Assemble the DC system exactly as the first Newton iteration
    // does: zero solution vector, full source scale, default options.
    let x = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut mem = NonlinMemory::new(prep);
    let mut sink = TripletSink {
        entries: Vec::with_capacity(8 * prep.circuit.elements().len()),
    };
    let opts = Options::default();
    assemble(
        prep,
        &x,
        &opts,
        &Mode::Dc { source_scale: 1.0 },
        &mut mem,
        &mut sink,
        &mut rhs,
    );

    // Sum duplicates; entries cancelling to exactly 0.0 vanish from the
    // structure (NaN compares unequal to zero and stays, which is
    // right: a poisoned entry is still a structural entry). Counting-sort
    // scatter by row, then sort each row's handful of packed keys (which
    // orders by column): O(E) overall plus tiny per-row sorts, emitting
    // the compressed-row adjacency (flat column list plus row offsets).
    // This path runs on every compile, so it stays lean.
    let entries = sink.entries;
    let mut offsets = vec![0usize; n + 1];
    for &(key, _) in &entries {
        offsets[(key >> 32) as usize + 1] += 1;
    }
    for r in 0..n {
        offsets[r + 1] += offsets[r];
    }
    let mut scattered: Vec<(u64, f64)> = vec![(0, 0.0); entries.len()];
    // Scatter advances `offsets[r]` to the end of row `r`, so afterwards
    // row `r` spans `offsets[r - 1]..offsets[r]` (0 for the first row) —
    // no second cursor array needed.
    for &(key, v) in &entries {
        let slot = &mut offsets[(key >> 32) as usize];
        scattered[*slot] = (key, v);
        *slot += 1;
    }
    let mut cols: Vec<usize> = Vec::with_capacity(entries.len());
    let mut row_start: Vec<usize> = Vec::with_capacity(n + 1);
    row_start.push(0);
    for r in 0..n {
        let lo = if r == 0 { 0 } else { offsets[r - 1] };
        let row = &mut scattered[lo..offsets[r]];
        row.sort_unstable_by_key(|e| e.0);
        let mut i = 0;
        while i < row.len() {
            let (key, mut v) = row[i];
            i += 1;
            while i < row.len() && row[i].0 == key {
                v += row[i].1;
                i += 1;
            }
            if v != 0.0 {
                cols.push((key & 0xffff_ffff) as usize);
            }
        }
        row_start.push(cols.len());
    }
    let row_adj = CsrAdj {
        cols: &cols,
        row_start: &row_start,
    };
    let m = Matching::hopcroft_karp(row_adj, n);
    if m.size == n {
        return;
    }

    // Dulmage–Mendelsohn flavor: alternating reachability from the
    // unmatched rows yields the over-determined block (rows competing
    // for too few columns); from the unmatched columns, the
    // under-determined unknowns.
    let (dep_rows, dep_cols) = m.alternating_from_unmatched_rows(row_adj);
    let free_cols: Vec<usize> = (0..n).filter(|&c| m.pair_col[c].is_none()).collect();

    let row_names: Vec<String> = dep_rows.iter().map(|&r| row_name(prep, r)).collect();
    let col_names: Vec<String> = free_cols
        .iter()
        .map(|&c| prep.unknown_names[c].clone())
        .collect();

    let mut elements = Vec::new();
    let mut nodes = Vec::new();
    for &s in dep_rows.iter().chain(&free_cols).chain(&dep_cols) {
        if s < prep.num_voltage_unknowns {
            let nd = node_label(prep, s);
            if !nodes.contains(&nd) {
                nodes.push(nd);
            }
        }
        for te in edges {
            if te.edge.a == s || te.edge.b == s || prep.branch_of[te.elem].0 == Some(s) {
                let label = element_label(prep, te.elem);
                if !elements.contains(&label) {
                    elements.push(label);
                }
            }
        }
    }

    out.push(LintDiagnostic {
        code: LintCode::StructuralSingular,
        severity: LintSeverity::Error,
        message: format!(
            "MNA system is structurally singular: structural rank {} of {}; \
             unknown(s) {} cannot be independently determined (equation block: {})",
            m.size,
            n,
            join_capped(&col_names, 6),
            join_capped(&row_names, 6),
        ),
        elements,
        nodes,
    });
}

/// Equation name for row `r`: a KCL row for voltage unknowns, the
/// branch equation of the owning element for branch rows.
fn row_name(prep: &Prepared, r: usize) -> String {
    if r < prep.num_voltage_unknowns {
        format!("KCL at node {}", node_label(prep, r))
    } else {
        match prep.branch_of.iter().position(|b| b.0 == Some(r)) {
            Some(idx) => format!("branch equation of {}", element_label(prep, idx)),
            None => format!("equation {r}"),
        }
    }
}

/// Borrowed compressed-row adjacency: row `r`'s columns are
/// `cols[row_start[r]..row_start[r + 1]]`, sorted.
#[derive(Clone, Copy)]
struct CsrAdj<'a> {
    cols: &'a [usize],
    row_start: &'a [usize],
}

impl CsrAdj<'_> {
    fn n_rows(&self) -> usize {
        self.row_start.len() - 1
    }

    fn row(&self, r: usize) -> &[usize] {
        &self.cols[self.row_start[r]..self.row_start[r + 1]]
    }
}

/// Maximum bipartite matching state (rows on the left, columns on the
/// right).
struct Matching {
    /// Matched column of each row.
    pair_row: Vec<Option<usize>>,
    /// Matched row of each column.
    pair_col: Vec<Option<usize>>,
    /// Matching cardinality (== n means structurally full rank).
    size: usize,
}

impl Matching {
    /// Hopcroft–Karp: O(E sqrt(V)) maximum matching.
    fn hopcroft_karp(row_adj: CsrAdj<'_>, n_cols: usize) -> Self {
        let n_rows = row_adj.n_rows();
        let mut m = Matching {
            pair_row: vec![None; n_rows],
            pair_col: vec![None; n_cols],
            size: 0,
        };
        let mut dist = vec![usize::MAX; n_rows];
        let mut queue = std::collections::VecDeque::with_capacity(n_rows);
        loop {
            if !m.bfs_layers(row_adj, &mut dist, &mut queue) {
                break;
            }
            for u in 0..n_rows {
                if m.pair_row[u].is_none() && m.augment(row_adj, &mut dist, u) {
                    m.size += 1;
                }
            }
        }
        m
    }

    /// Layers free rows by alternating BFS; `true` if an augmenting
    /// path exists.
    fn bfs_layers(
        &self,
        row_adj: CsrAdj<'_>,
        dist: &mut [usize],
        queue: &mut std::collections::VecDeque<usize>,
    ) -> bool {
        queue.clear();
        for (u, d) in dist.iter_mut().enumerate() {
            if self.pair_row[u].is_none() {
                *d = 0;
                queue.push_back(u);
            } else {
                *d = usize::MAX;
            }
        }
        let mut reachable_free_col = false;
        while let Some(u) = queue.pop_front() {
            for &v in row_adj.row(u) {
                match self.pair_col[v] {
                    None => reachable_free_col = true,
                    Some(u2) => {
                        if dist[u2] == usize::MAX {
                            dist[u2] = dist[u] + 1;
                            queue.push_back(u2);
                        }
                    }
                }
            }
        }
        reachable_free_col
    }

    /// Layered DFS augmentation from free row `u`.
    fn augment(&mut self, row_adj: CsrAdj<'_>, dist: &mut [usize], u: usize) -> bool {
        for i in 0..row_adj.row(u).len() {
            let v = row_adj.row(u)[i];
            let ok = match self.pair_col[v] {
                None => true,
                Some(u2) => dist[u2] == dist[u] + 1 && self.augment(row_adj, dist, u2),
            };
            if ok {
                self.pair_row[u] = Some(v);
                self.pair_col[v] = Some(u);
                return true;
            }
        }
        dist[u] = usize::MAX;
        false
    }

    /// Alternating reachability from every unmatched row: returns the
    /// reachable row and column sets (the over-determined block).
    fn alternating_from_unmatched_rows(&self, row_adj: CsrAdj<'_>) -> (Vec<usize>, Vec<usize>) {
        let mut row_seen = vec![false; self.pair_row.len()];
        let mut col_seen = vec![false; self.pair_col.len()];
        let mut queue = std::collections::VecDeque::new();
        for (u, pair) in self.pair_row.iter().enumerate() {
            if pair.is_none() {
                row_seen[u] = true;
                queue.push_back(u);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in row_adj.row(u) {
                if !col_seen[v] {
                    col_seen[v] = true;
                    if let Some(u2) = self.pair_col[v] {
                        if !row_seen[u2] {
                            row_seen[u2] = true;
                            queue.push_back(u2);
                        }
                    }
                }
            }
        }
        (
            (0..row_seen.len()).filter(|&u| row_seen[u]).collect(),
            (0..col_seen.len()).filter(|&v| col_seen[v]).collect(),
        )
    }
}
