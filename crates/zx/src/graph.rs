//! ZX-diagram graph structure.
//!
//! Diagrams are kept **graph-like** (the normal form of Duncan–Kissinger–
//! Perdrix–van de Wetering): all interior spiders are Z spiders, connected
//! by Hadamard edges; boundary vertices mark circuit inputs/outputs and
//! attach with simple or Hadamard wires. X spiders appear only transiently
//! during conversion and are immediately color-changed.

use crate::phase::Phase;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a vertex in a [`ZxGraph`].
pub type Vertex = usize;

/// The kind of a ZX vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VertexKind {
    /// Circuit boundary (input or output); carries no phase.
    Boundary,
    /// Z (green) spider with a phase.
    Z(Phase),
    /// X (red) spider with a phase (only used mid-conversion).
    X(Phase),
}

impl VertexKind {
    /// The spider phase; boundaries report zero.
    pub fn phase(&self) -> Phase {
        match self {
            VertexKind::Boundary => Phase::ZERO,
            VertexKind::Z(p) | VertexKind::X(p) => *p,
        }
    }

    /// `true` for a Z spider.
    pub fn is_z(&self) -> bool {
        matches!(self, VertexKind::Z(_))
    }

    /// `true` for a boundary vertex.
    pub fn is_boundary(&self) -> bool {
        matches!(self, VertexKind::Boundary)
    }
}

/// The kind of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Plain wire (identity).
    Simple,
    /// Hadamard wire.
    Hadamard,
}

impl EdgeKind {
    /// The "exclusive or" of stacking two wires of these kinds in series.
    pub fn compose(self, other: EdgeKind) -> EdgeKind {
        if self == other {
            EdgeKind::Simple
        } else {
            EdgeKind::Hadamard
        }
    }
}

/// A ZX diagram with boundary ordering.
///
/// Vertices live in a slab; removal leaves holes (`None`) so vertex ids
/// stay stable across rewrites. At most one edge exists between any pair of
/// vertices — parallel-edge resolution (Hopf law and Hadamard-pair
/// cancellation) happens in [`ZxGraph::add_edge_smart`].
#[derive(Clone)]
pub struct ZxGraph {
    kinds: Vec<Option<VertexKind>>,
    adj: Vec<BTreeMap<Vertex, EdgeKind>>,
    inputs: Vec<Vertex>,
    outputs: Vec<Vertex>,
    /// Scalar bookkeeping: power of √2 and accumulated phase. EPOC ignores
    /// global scalars semantically but tracks the √2-power for debugging.
    pub(crate) sqrt2_power: i64,
}

impl ZxGraph {
    /// Creates an empty diagram.
    pub fn new() -> Self {
        Self {
            kinds: Vec::new(),
            adj: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            sqrt2_power: 0,
        }
    }

    /// Adds a vertex of the given kind, returning its id.
    pub fn add_vertex(&mut self, kind: VertexKind) -> Vertex {
        self.kinds.push(Some(kind));
        self.adj.push(BTreeMap::new());
        self.kinds.len() - 1
    }

    /// Registers a vertex as the next circuit input.
    ///
    /// # Panics
    ///
    /// Panics if the vertex does not exist.
    pub fn set_input(&mut self, v: Vertex) {
        assert!(self.exists(v), "no such vertex {v}");
        self.inputs.push(v);
    }

    /// Registers a vertex as the next circuit output.
    ///
    /// # Panics
    ///
    /// Panics if the vertex does not exist.
    pub fn set_output(&mut self, v: Vertex) {
        assert!(self.exists(v), "no such vertex {v}");
        self.outputs.push(v);
    }

    /// The input boundary vertices in qubit order.
    pub fn inputs(&self) -> &[Vertex] {
        &self.inputs
    }

    /// The output boundary vertices in qubit order.
    pub fn outputs(&self) -> &[Vertex] {
        &self.outputs
    }

    /// `true` when the vertex id refers to a live vertex.
    pub fn exists(&self, v: Vertex) -> bool {
        v < self.kinds.len() && self.kinds[v].is_some()
    }

    /// The vertex kind.
    ///
    /// # Panics
    ///
    /// Panics if the vertex was removed or never existed.
    pub fn kind(&self, v: Vertex) -> VertexKind {
        self.kinds[v].expect("vertex was removed")
    }

    /// Overwrites a vertex kind (e.g. phase update).
    ///
    /// # Panics
    ///
    /// Panics if the vertex does not exist.
    pub fn set_kind(&mut self, v: Vertex, kind: VertexKind) {
        assert!(self.exists(v), "no such vertex {v}");
        self.kinds[v] = Some(kind);
    }

    /// Adds `delta` to the phase of spider `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is a boundary or does not exist.
    pub fn add_phase(&mut self, v: Vertex, delta: Phase) {
        let k = self.kind(v);
        let new = match k {
            VertexKind::Z(p) => VertexKind::Z(p + delta),
            VertexKind::X(p) => VertexKind::X(p + delta),
            VertexKind::Boundary => panic!("cannot add phase to boundary"),
        };
        self.kinds[v] = Some(new);
    }

    /// Number of live vertices.
    pub fn vertex_count(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_some()).count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|m| m.len()).sum::<usize>() / 2
    }

    /// Iterates over live vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(|(i, k)| k.is_some().then_some(i))
    }

    /// All edges as `(smaller, larger, kind)` triples.
    pub fn edges(&self) -> Vec<(Vertex, Vertex, EdgeKind)> {
        let mut out = Vec::new();
        for v in self.vertices() {
            for (&w, &k) in &self.adj[v] {
                if v < w {
                    out.push((v, w, k));
                }
            }
        }
        out
    }

    /// Neighbors of a vertex with edge kinds.
    ///
    /// # Panics
    ///
    /// Panics if the vertex does not exist.
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = (Vertex, EdgeKind)> + '_ {
        assert!(self.exists(v), "no such vertex {v}");
        self.adj[v].iter().map(|(&w, &k)| (w, k))
    }

    /// Vertex degree.
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj[v].len()
    }

    /// The edge kind between two vertices, if any.
    pub fn edge_kind(&self, a: Vertex, b: Vertex) -> Option<EdgeKind> {
        self.adj.get(a).and_then(|m| m.get(&b).copied())
    }

    /// `true` when an edge connects `a` and `b`.
    pub fn connected(&self, a: Vertex, b: Vertex) -> bool {
        self.edge_kind(a, b).is_some()
    }

    /// Inserts an edge, replacing any existing edge between the endpoints.
    ///
    /// Use [`ZxGraph::add_edge_smart`] during rewriting — this method is the
    /// raw primitive for construction.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or missing endpoints.
    pub fn add_edge(&mut self, a: Vertex, b: Vertex, kind: EdgeKind) {
        assert!(a != b, "self-loops must go through add_edge_smart");
        assert!(self.exists(a) && self.exists(b), "missing endpoint");
        self.adj[a].insert(b, kind);
        self.adj[b].insert(a, kind);
    }

    /// Removes the edge between `a` and `b` if present.
    pub fn remove_edge(&mut self, a: Vertex, b: Vertex) {
        if a < self.adj.len() {
            self.adj[a].remove(&b);
        }
        if b < self.adj.len() {
            self.adj[b].remove(&a);
        }
    }

    /// Removes a vertex and all incident edges.
    pub fn remove_vertex(&mut self, v: Vertex) {
        if !self.exists(v) {
            return;
        }
        let neighbors: Vec<Vertex> = self.adj[v].keys().copied().collect();
        for w in neighbors {
            self.adj[w].remove(&v);
        }
        self.adj[v].clear();
        self.kinds[v] = None;
    }

    /// Adds an edge between Z spiders with parallel-edge and self-loop
    /// resolution, assuming a graph-like diagram:
    ///
    /// * two parallel **Hadamard** edges between Z spiders cancel (Hopf);
    /// * a parallel Hadamard + simple pair leaves a simple edge and π on
    ///   one spider — resolved as per the Hopf law variant;
    /// * a **Hadamard self-loop** adds π to the spider; a simple self-loop
    ///   vanishes.
    ///
    /// Boundary endpoints fall back to plain [`ZxGraph::add_edge`]
    /// semantics (replace).
    pub fn add_edge_smart(&mut self, a: Vertex, b: Vertex, kind: EdgeKind) {
        if a == b {
            match kind {
                // Z spider with a Hadamard self-loop = spider with +π phase
                // (and a scalar). Simple self-loop is just a scalar.
                EdgeKind::Hadamard => {
                    self.add_phase(a, Phase::PI);
                    self.sqrt2_power -= 1;
                }
                EdgeKind::Simple => {
                    self.sqrt2_power += 1;
                }
            }
            return;
        }
        let a_spider = !self.kind(a).is_boundary();
        let b_spider = !self.kind(b).is_boundary();
        match self.edge_kind(a, b) {
            None => self.add_edge(a, b, kind),
            Some(existing) => {
                if !(a_spider && b_spider) {
                    // Boundary edges cannot be parallel in valid diagrams;
                    // treat as wire composition.
                    self.add_edge(a, b, existing.compose(kind));
                    return;
                }
                match (existing, kind) {
                    // Hopf: two H-edges between Z spiders cancel.
                    (EdgeKind::Hadamard, EdgeKind::Hadamard) => {
                        self.remove_edge(a, b);
                        self.sqrt2_power -= 2;
                    }
                    // Two simple edges between Z spiders are idempotent
                    // (δ∘δ = δ): keep a single simple edge — the spiders
                    // stay connected and a later fusion merges them.
                    (EdgeKind::Simple, EdgeKind::Simple) => {}
                    // Simple + Hadamard: keep both? In graph-like diagrams
                    // simple Z-Z edges get fused away before this matters;
                    // the sound resolution is to fuse later. Keep the
                    // Hadamard edge and leave the simple edge for fusion by
                    // storing π-phase trick is NOT sound, so: keep simple
                    // (fusion will merge the spiders and re-route).
                    (EdgeKind::Simple, EdgeKind::Hadamard)
                    | (EdgeKind::Hadamard, EdgeKind::Simple) => {
                        // Defer: mark as simple so spider fusion merges the
                        // two spiders; the Hadamard edge then becomes a
                        // self-loop handled by `add_edge_smart` (π phase).
                        // To keep single-edge storage we emulate the fusion
                        // eagerly here: merging is the caller's job, so we
                        // store Simple and add π + H-self-loop bookkeeping.
                        // This case cannot arise from our conversion and
                        // rewrite pipeline; assert to catch misuse.
                        panic!("mixed parallel simple+Hadamard edge between spiders: fuse first");
                    }
                }
            }
        }
    }

    /// Compacts removed vertices away, renumbering; returns the old→new map.
    pub fn compact(&mut self) -> Vec<Option<Vertex>> {
        let mut map: Vec<Option<Vertex>> = vec![None; self.kinds.len()];
        let mut kinds = Vec::new();
        let mut adj = Vec::new();
        for (old, k) in self.kinds.iter().enumerate() {
            if let Some(kind) = k {
                map[old] = Some(kinds.len());
                kinds.push(Some(*kind));
                adj.push(BTreeMap::new());
            }
        }
        for (old, m) in self.adj.iter().enumerate() {
            if let Some(new) = map[old] {
                for (&w, &kind) in m {
                    let nw = map[w].expect("edge to removed vertex");
                    adj[new].insert(nw, kind);
                }
            }
        }
        self.kinds = kinds;
        self.adj = adj;
        self.inputs = self
            .inputs
            .iter()
            .map(|&v| map[v].expect("input removed"))
            .collect();
        self.outputs = self
            .outputs
            .iter()
            .map(|&v| map[v].expect("output removed"))
            .collect();
        map
    }

    /// Count of interior (non-boundary) spiders.
    pub fn spider_count(&self) -> usize {
        self.vertices()
            .filter(|&v| !self.kind(v).is_boundary())
            .count()
    }

    /// Count of spiders with non-Clifford phase.
    pub fn t_count(&self) -> usize {
        self.vertices()
            .filter(|&v| match self.kind(v) {
                VertexKind::Z(p) | VertexKind::X(p) => !p.is_clifford(),
                VertexKind::Boundary => false,
            })
            .count()
    }
}

impl Default for ZxGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ZxGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ZxGraph({} vertices, {} edges, {} inputs, {} outputs)",
            self.vertex_count(),
            self.edge_count(),
            self.inputs.len(),
            self.outputs.len()
        )?;
        for v in self.vertices() {
            let kind = match self.kind(v) {
                VertexKind::Boundary => "B".to_string(),
                VertexKind::Z(p) => format!("Z({p})"),
                VertexKind::X(p) => format!("X({p})"),
            };
            let nbrs: Vec<String> = self
                .neighbors(v)
                .map(|(w, k)| {
                    format!("{}{w}", if k == EdgeKind::Hadamard { "~" } else { "-" })
                })
                .collect();
            writeln!(f, "  {v}: {kind} [{}]", nbrs.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_remove_vertices() {
        let mut g = ZxGraph::new();
        let a = g.add_vertex(VertexKind::Z(Phase::ZERO));
        let b = g.add_vertex(VertexKind::Z(Phase::PI));
        let c = g.add_vertex(VertexKind::Boundary);
        g.add_edge(a, b, EdgeKind::Hadamard);
        g.add_edge(b, c, EdgeKind::Simple);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        g.remove_vertex(b);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.exists(b));
        assert!(g.exists(a));
    }

    #[test]
    fn hopf_cancels_parallel_hadamard() {
        let mut g = ZxGraph::new();
        let a = g.add_vertex(VertexKind::Z(Phase::ZERO));
        let b = g.add_vertex(VertexKind::Z(Phase::ZERO));
        g.add_edge_smart(a, b, EdgeKind::Hadamard);
        assert!(g.connected(a, b));
        g.add_edge_smart(a, b, EdgeKind::Hadamard);
        assert!(!g.connected(a, b));
    }

    #[test]
    fn hadamard_self_loop_adds_pi() {
        let mut g = ZxGraph::new();
        let a = g.add_vertex(VertexKind::Z(Phase::ZERO));
        g.add_edge_smart(a, a, EdgeKind::Hadamard);
        assert!(g.kind(a).phase().is_pi());
    }

    #[test]
    fn phase_accumulates() {
        let mut g = ZxGraph::new();
        let a = g.add_vertex(VertexKind::Z(Phase::from_radians(0.3)));
        g.add_phase(a, Phase::from_radians(0.4));
        assert!((g.kind(a).phase().radians() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn compact_renumbers() {
        let mut g = ZxGraph::new();
        let i = g.add_vertex(VertexKind::Boundary);
        let s1 = g.add_vertex(VertexKind::Z(Phase::ZERO));
        let s2 = g.add_vertex(VertexKind::Z(Phase::PI));
        let o = g.add_vertex(VertexKind::Boundary);
        g.set_input(i);
        g.set_output(o);
        g.add_edge(i, s1, EdgeKind::Simple);
        g.add_edge(s1, s2, EdgeKind::Hadamard);
        g.add_edge(s2, o, EdgeKind::Simple);
        g.remove_vertex(s1);
        g.add_edge(i, s2, EdgeKind::Simple);
        let map = g.compact();
        assert_eq!(g.vertex_count(), 3);
        assert!(map[s1].is_none());
        assert_eq!(g.inputs().len(), 1);
        assert_eq!(g.outputs().len(), 1);
        let ni = g.inputs()[0];
        assert!(g.kind(ni).is_boundary());
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn edge_kind_compose() {
        assert_eq!(EdgeKind::Simple.compose(EdgeKind::Hadamard), EdgeKind::Hadamard);
        assert_eq!(EdgeKind::Hadamard.compose(EdgeKind::Hadamard), EdgeKind::Simple);
        assert_eq!(EdgeKind::Simple.compose(EdgeKind::Simple), EdgeKind::Simple);
    }

    #[test]
    fn t_count_tracks_non_clifford() {
        let mut g = ZxGraph::new();
        g.add_vertex(VertexKind::Z(Phase::from_radians(std::f64::consts::FRAC_PI_4)));
        g.add_vertex(VertexKind::Z(Phase::from_radians(std::f64::consts::FRAC_PI_2)));
        g.add_vertex(VertexKind::Boundary);
        assert_eq!(g.t_count(), 1);
        assert_eq!(g.spider_count(), 2);
    }

    #[test]
    #[should_panic(expected = "fuse first")]
    fn mixed_parallel_edge_panics() {
        let mut g = ZxGraph::new();
        let a = g.add_vertex(VertexKind::Z(Phase::ZERO));
        let b = g.add_vertex(VertexKind::Z(Phase::ZERO));
        g.add_edge_smart(a, b, EdgeKind::Simple);
        g.add_edge_smart(a, b, EdgeKind::Hadamard);
    }
}

#[cfg(test)]
mod parallel_simple_edge_tests {
    use super::*;

    /// Regression for the code-review finding: parallel simple Z–Z edges
    /// are idempotent (δ∘δ = δ) — the spiders must stay connected.
    #[test]
    fn parallel_simple_edges_stay_connected() {
        let mut g = ZxGraph::new();
        let a = g.add_vertex(VertexKind::Z(Phase::ZERO));
        let b = g.add_vertex(VertexKind::Z(Phase::PI));
        g.add_edge_smart(a, b, EdgeKind::Simple);
        g.add_edge_smart(a, b, EdgeKind::Simple);
        assert_eq!(g.edge_kind(a, b), Some(EdgeKind::Simple));
    }
}
