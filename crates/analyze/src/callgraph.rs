//! Pass 3: whole-program call graph.
//!
//! Builds the procedure-level call graph from the static `Call` sites,
//! then reports procedures unreachable from the prelude (dead code the
//! image still pays to carry) and statically detected recursion (the call
//! chain the DTB must hold is unbounded; only the dynamic depth limit
//! bounds it). For acyclic graphs the maximum call-chain depth is
//! computed exactly — the frame-storage bound a host needs.

use dir::isa::Inst;
use dir::program::Program;

use crate::diag::{DiagCode, Diagnostic};

/// The static call graph and the facts derived from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    /// Deduplicated callee lists, indexed by caller procedure.
    pub callees: Vec<Vec<u32>>,
    /// Procedures called directly from the prelude.
    pub roots: Vec<u32>,
    /// Reachability from the prelude, per procedure.
    pub reachable: Vec<bool>,
    /// Whether each procedure sits on a call-graph cycle.
    pub recursive: Vec<bool>,
    /// Longest call chain from the prelude, in frames — `None` when the
    /// graph is cyclic (statically unbounded).
    pub max_chain: Option<u32>,
}

/// Builds the call graph and appends reachability/recursion findings.
pub(crate) fn build(program: &Program, diags: &mut Vec<Diagnostic>) -> CallGraph {
    let np = program.procs.len();
    let prelude_end = program
        .procs
        .iter()
        .map(|p| p.entry)
        .min()
        .unwrap_or(program.code.len() as u32) as usize;

    let calls_in = |start: usize, end: usize| -> Vec<u32> {
        let mut out: Vec<u32> = program.code[start..end.min(program.code.len())]
            .iter()
            .filter_map(|inst| match *inst {
                Inst::Call(p) if (p as usize) < np => Some(p),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    };

    let roots = calls_in(0, prelude_end);
    let callees: Vec<Vec<u32>> = program
        .procs
        .iter()
        .map(|p| calls_in(p.entry as usize, p.end as usize))
        .collect();

    // Reachability from the prelude.
    let mut reachable = vec![false; np];
    let mut stack: Vec<u32> = roots.clone();
    while let Some(p) = stack.pop() {
        if !std::mem::replace(&mut reachable[p as usize], true) {
            stack.extend(callees[p as usize].iter().copied());
        }
    }

    // Cycle membership: iterative DFS coloring. A procedure is recursive
    // when some back edge closes a path through it.
    let mut on_cycle = vec![false; np];
    // 0 = white, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; np];
    let mut path: Vec<u32> = Vec::new();
    for root in 0..np as u32 {
        if color[root as usize] != 0 {
            continue;
        }
        // Each stack entry is (proc, next-callee cursor).
        let mut dfs: Vec<(u32, usize)> = vec![(root, 0)];
        color[root as usize] = 1;
        path.push(root);
        while let Some(&mut (p, ref mut cursor)) = dfs.last_mut() {
            if let Some(&q) = callees[p as usize].get(*cursor) {
                *cursor += 1;
                match color[q as usize] {
                    0 => {
                        color[q as usize] = 1;
                        path.push(q);
                        dfs.push((q, 0));
                    }
                    1 => {
                        // Everyone on the path from q onward is on a cycle.
                        let from = path.iter().position(|&x| x == q).expect("q is on path");
                        for &x in &path[from..] {
                            on_cycle[x as usize] = true;
                        }
                    }
                    _ => {}
                }
            } else {
                color[p as usize] = 2;
                path.pop();
                dfs.pop();
            }
        }
    }

    // Longest chain, only meaningful on acyclic graphs.
    let cyclic = on_cycle.iter().any(|&c| c);
    let max_chain = if cyclic {
        None
    } else {
        let mut memo = vec![None::<u32>; np];
        fn depth(p: u32, callees: &[Vec<u32>], memo: &mut Vec<Option<u32>>) -> u32 {
            if let Some(d) = memo[p as usize] {
                return d;
            }
            let d = 1 + callees[p as usize]
                .iter()
                .map(|&q| depth(q, callees, memo))
                .max()
                .unwrap_or(0);
            memo[p as usize] = Some(d);
            d
        }
        Some(
            roots
                .iter()
                .map(|&r| depth(r, &callees, &mut memo))
                .max()
                .unwrap_or(0),
        )
    };

    for (i, p) in program.procs.iter().enumerate() {
        if !reachable[i] {
            diags.push(Diagnostic::at(
                DiagCode::UnreachableProcedure,
                p.entry,
                p.name.clone(),
                format!("procedure {} is unreachable from the prelude", p.name),
            ));
        }
        if on_cycle[i] {
            diags.push(Diagnostic::at(
                DiagCode::RecursionDetected,
                p.entry,
                p.name.clone(),
                format!(
                    "procedure {} is on a call-graph cycle (static depth unbounded)",
                    p.name
                ),
            ));
        }
    }

    CallGraph {
        callees,
        roots,
        reachable,
        recursive: on_cycle,
        max_chain,
    }
}
