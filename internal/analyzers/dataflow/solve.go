package dataflow

import (
	"go/ast"
)

// State is one program point's abstract store: a virtual register file
// mapping variables (types.Object for locals, analyzer-chosen keys
// such as lock-class strings otherwise) to analysis-defined abstract
// values. A missing key is the analysis's bottom value. A nil State
// means "point not reached", which every join treats as the identity.
type State map[any]uint64

// Clone returns an independent copy of s (nil stays nil).
func (s State) Clone() State {
	if s == nil {
		return nil
	}
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Equal reports whether two states carry identical facts.
func (s State) Equal(t State) bool {
	if len(s) != len(t) {
		return false
	}
	for k, v := range s {
		if tv, ok := t[k]; !ok || tv != v {
			return false
		}
	}
	return true
}

// A Join folds edge-state src into the accumulated block-entry state
// acc, returning the new accumulated state. acc is nil the first time
// a block is reached.
type Join func(acc, src State) State

// JoinMay is the union/max join for "true on some path" facts (taint
// bits, held-lock sets): every key survives, values OR together.
func JoinMay(acc, src State) State {
	if acc == nil {
		return src.Clone()
	}
	for k, v := range src {
		acc[k] |= v
	}
	return acc
}

// JoinMust is the intersection join for "true on every path" facts
// (nilness): only keys present on both sides with identical values
// survive; everything else decays to unknown.
func JoinMust(acc, src State) State {
	if acc == nil {
		return src.Clone()
	}
	for k, v := range acc {
		if sv, ok := src[k]; !ok || sv != v {
			delete(acc, k)
		}
	}
	return acc
}

// A Problem configures one dataflow analysis over a Graph.
type Problem struct {
	// Entry is the state at function entry (parameter facts).
	Entry State
	// Transfer applies one node's effect to st in place. It runs many
	// times during the fixpoint iteration and must be deterministic
	// and free of reporting side effects.
	Transfer func(n ast.Node, st State)
	// Refine, when non-nil, applies a branch condition to the state
	// flowing along a conditional edge: cond evaluated to taken.
	Refine func(cond ast.Expr, taken bool, st State)
	// Join merges predecessor states at block entry.
	Join Join
}

// Result holds the fixpoint: the entry state of every reached block.
type Result struct {
	graph *Graph
	in    map[*Block]State
	prob  Problem
}

// Solve runs the worklist fixpoint for p over g.
//
// Termination: Transfer and Refine must be monotone in practice —
// abstract values only move up their (finite) lattice — which every
// analyzer in this repository satisfies by construction (taint bits
// only set, nilness facts only decay to unknown at joins).
func (g *Graph) Solve(p Problem) *Result {
	res := &Result{graph: g, in: make(map[*Block]State), prob: p}
	res.in[g.Entry] = p.Entry.Clone()
	if res.in[g.Entry] == nil {
		res.in[g.Entry] = State{}
	}

	work := []*Block{g.Entry}
	inWork := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk] = false

		out := res.in[blk].Clone()
		for _, n := range blk.Nodes {
			p.Transfer(n, out)
		}
		for _, e := range blk.Succs {
			src := out
			if e.Cond != nil && p.Refine != nil {
				src = out.Clone()
				p.Refine(e.Cond, e.Taken, src)
			}
			old := res.in[e.To]
			// Joins mutate their accumulator in place, so snapshot the
			// pre-join facts to detect whether this edge changed them.
			var before State
			if old != nil {
				before = old.Clone()
			}
			joined := p.Join(old, src)
			if old == nil || !joined.Equal(before) {
				res.in[e.To] = joined
				if !inWork[e.To] {
					work = append(work, e.To)
					inWork[e.To] = true
				}
			}
		}
	}
	return res
}

// Visit replays every reached block once from its fixed entry state,
// calling visit with the state *before* each node. This is where
// analyzers report findings; unreachable blocks are never visited, so
// dead code cannot diagnose.
func (r *Result) Visit(visit func(n ast.Node, st State)) {
	for _, blk := range r.graph.Blocks {
		st, ok := r.in[blk]
		if !ok {
			continue
		}
		cur := st.Clone()
		for _, n := range blk.Nodes {
			visit(n, cur)
			r.prob.Transfer(n, cur)
		}
	}
}

// In returns blk's entry state (nil when unreached).
func (r *Result) In(blk *Block) State { return r.in[blk] }
