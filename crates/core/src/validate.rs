//! Correctness validators.
//!
//! The paper's traversals are exact algorithms, so outputs can be checked
//! against graph-local invariants in `O(n + m)` without re-running a
//! reference implementation. The experiment harness validates every run it
//! times; the integration tests validate against the serial baselines too.

use crate::result::TraversalOutput;
use asyncgt_graph::{Graph, Vertex, INF_DIST, NO_VERTEX};

/// Check SSSP/BFS output invariants:
///
/// 1. `dist[source] == 0` and `parent[source] == NO_VERTEX`;
/// 2. no edge is "tense": `dist[t] ≤ dist[v] + w(v, t)` for every edge —
///    the Bellman-Ford optimality condition;
/// 3. every reached non-source vertex has a parent whose edge realizes its
///    distance: `dist[v] == dist[parent] + w(parent, v)`;
/// 4. unreached vertices have no parent.
///
/// `unit_weights` treats every edge as weight 1 (BFS mode).
pub fn check_shortest_paths<G: Graph>(
    g: &G,
    source: Vertex,
    out: &TraversalOutput,
    unit_weights: bool,
) -> Result<(), String> {
    let n = g.num_vertices();
    if out.dist.len() != n as usize || out.parent.len() != n as usize {
        return Err("output arrays have wrong length".into());
    }
    if out.dist[source as usize] != 0 {
        return Err(format!(
            "dist[source] = {}, want 0",
            out.dist[source as usize]
        ));
    }
    if out.parent[source as usize] != NO_VERTEX {
        return Err("source must have no parent".into());
    }

    // 2: no tense edges.
    for v in 0..n {
        let dv = out.dist[v as usize];
        if dv == INF_DIST {
            continue;
        }
        let mut err = None;
        g.for_each_neighbor(v, |t, w| {
            let w = if unit_weights { 1 } else { w as u64 };
            if out.dist[t as usize] > dv + w && err.is_none() {
                err = Some(format!(
                    "tense edge {v}->{t}: dist[{t}]={} > {} + {w}",
                    out.dist[t as usize], dv
                ));
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }

    // 3 & 4: parent consistency.
    for v in 0..n {
        let p = out.parent[v as usize];
        let dv = out.dist[v as usize];
        if dv == INF_DIST {
            if p != NO_VERTEX {
                return Err(format!("unreached vertex {v} has parent {p}"));
            }
            continue;
        }
        if v == source {
            continue;
        }
        if p == NO_VERTEX {
            return Err(format!("reached vertex {v} has no parent"));
        }
        let dp = out.dist[p as usize];
        if dp == INF_DIST {
            return Err(format!("vertex {v}'s parent {p} is unreached"));
        }
        let mut realized = false;
        g.for_each_neighbor(p, |t, w| {
            let w = if unit_weights { 1 } else { w as u64 };
            if t == v && dp + w == dv {
                realized = true;
            }
        });
        if !realized {
            return Err(format!(
                "no edge {p}->{v} realizes dist[{v}]={dv} from dist[{p}]={dp}"
            ));
        }
    }
    Ok(())
}

/// Check connected-components output invariants for an undirected graph:
///
/// 1. labels are equal across every edge;
/// 2. every label is ≤ its vertex's id (labels are minima);
/// 3. the vertex whose id equals the label carries that label itself
///    (labels are *attained* minima, not arbitrary lower bounds).
pub fn check_components<G: Graph>(g: &G, ccid: &[Vertex]) -> Result<(), String> {
    let n = g.num_vertices();
    if ccid.len() != n as usize {
        return Err("ccid array has wrong length".into());
    }
    for v in 0..n {
        let c = ccid[v as usize];
        if c > v {
            return Err(format!("ccid[{v}] = {c} exceeds the vertex id"));
        }
        if ccid[c as usize] != c {
            return Err(format!(
                "label {c} of vertex {v} is not a component representative"
            ));
        }
        let mut err = None;
        g.for_each_neighbor(v, |t, _| {
            if ccid[t as usize] != c && err.is_none() {
                err = Some(format!(
                    "edge {v}-{t} crosses labels {c} vs {}",
                    ccid[t as usize]
                ));
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_bfs, try_connected_components, try_sssp, Config};
    use asyncgt_graph::generators::{grid_graph, RmatGenerator, RmatParams};
    use asyncgt_graph::weights::{weighted_copy, WeightKind};

    #[test]
    fn accepts_valid_bfs() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 5).directed();
        let out = try_bfs(&g, 0, &Config::with_threads(4)).unwrap();
        check_shortest_paths(&g, 0, &out, true).unwrap();
    }

    #[test]
    fn accepts_valid_sssp() {
        let g = weighted_copy(
            &RmatGenerator::new(RmatParams::RMAT_B, 9, 8, 6).directed(),
            WeightKind::LogUniform,
            1,
        );
        let out = try_sssp(&g, 0, &Config::with_threads(4)).unwrap();
        check_shortest_paths(&g, 0, &out, false).unwrap();
    }

    #[test]
    fn rejects_tampered_distance() {
        let g = grid_graph(5, 5);
        let mut out = try_bfs(&g, 0, &Config::with_threads(2)).unwrap();
        out.dist[7] += 1;
        assert!(check_shortest_paths(&g, 0, &out, true).is_err());
    }

    #[test]
    fn rejects_tampered_parent() {
        let g = grid_graph(5, 5);
        let mut out = try_bfs(&g, 0, &Config::with_threads(2)).unwrap();
        out.parent[24] = 0; // corner can't descend from the far corner
        assert!(check_shortest_paths(&g, 0, &out, true).is_err());
    }

    #[test]
    fn accepts_valid_cc() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 4, 7).undirected();
        let out = try_connected_components(&g, &Config::with_threads(4)).unwrap();
        check_components(&g, &out.ccid).unwrap();
    }

    #[test]
    fn rejects_cross_edge_labels() {
        let g = grid_graph(3, 3);
        let out = try_connected_components(&g, &Config::with_threads(2)).unwrap();
        let mut bad = out.ccid.clone();
        bad[4] = 4; // claims its own component inside the single grid CC
        assert!(check_components(&g, &bad).is_err());
    }

    #[test]
    fn rejects_non_representative_label() {
        let g: asyncgt_graph::CsrGraph<u32> = asyncgt_graph::CsrGraph::empty(3);
        // Vertex 2 labeled 1, but vertex 1 labels itself 0: 1 is not a rep.
        let bad = vec![0, 0, 1];
        assert!(check_components(&g, &bad).is_err());
    }
}
