package live

import (
	"fmt"
	"sort"

	"kgaq/internal/kg"
)

// Snapshot is one immutable epoch of a live graph: the compacted base plus
// the copy-on-write delta of every batch applied since. It implements
// kg.ReadGraph, so the walkers, the validator and the engine read it exactly
// like a plain graph; nodes the delta never touched resolve straight into
// the base's dense slices, so an overlay read costs one map miss over the
// immutable path.
//
// Snapshots are persistent-data-structure style: Apply copies the top-level
// delta maps (O(delta size), kept small by compaction) and the per-node
// slices it edits, never mutating state shared with published snapshots. A
// reader holding a Snapshot therefore sees one frozen epoch forever.
type Snapshot struct {
	base  *kg.Graph
	epoch uint64
	baseN int // base.NumNodes(), the id of the first delta-added node

	// Delta-added nodes: node id baseN+i has name names[i]. nameIndex only
	// holds delta-added names; base names resolve through the base index.
	names     []string
	nameIndex map[string]kg.NodeID

	// Per-node overrides, keyed by node id (base or delta-added). A missing
	// key means "unchanged from base" (or empty, for delta-added nodes).
	adj   map[kg.NodeID][]kg.HalfEdge
	types map[kg.NodeID][]kg.TypeID
	attrs map[kg.NodeID][]kg.AttrValue

	// Vocabulary extensions (types and attributes only; predicates are
	// frozen — see the package comment).
	typeNames []string
	typeIndex map[string]kg.TypeID
	attrNames []string
	attrIndex map[string]kg.AttrID

	numEdges int
}

// emptySnapshot wraps a base graph with no delta at the given epoch.
func emptySnapshot(base *kg.Graph, epoch uint64) *Snapshot {
	return &Snapshot{
		base:      base,
		epoch:     epoch,
		baseN:     base.NumNodes(),
		nameIndex: map[string]kg.NodeID{},
		adj:       map[kg.NodeID][]kg.HalfEdge{},
		types:     map[kg.NodeID][]kg.TypeID{},
		attrs:     map[kg.NodeID][]kg.AttrValue{},
		typeIndex: map[string]kg.TypeID{},
		attrIndex: map[string]kg.AttrID{},
		numEdges:  base.NumEdges(),
	}
}

// clone returns a mutable copy sharing nothing writable with s: top-level
// maps are copied, per-node slices are copied lazily by the mutation
// helpers before their first edit.
func (s *Snapshot) clone() *Snapshot {
	n := &Snapshot{
		base:      s.base,
		epoch:     s.epoch,
		baseN:     s.baseN,
		names:     s.names,
		nameIndex: make(map[string]kg.NodeID, len(s.nameIndex)),
		adj:       make(map[kg.NodeID][]kg.HalfEdge, len(s.adj)),
		types:     make(map[kg.NodeID][]kg.TypeID, len(s.types)),
		attrs:     make(map[kg.NodeID][]kg.AttrValue, len(s.attrs)),
		typeNames: s.typeNames,
		typeIndex: make(map[string]kg.TypeID, len(s.typeIndex)),
		attrNames: s.attrNames,
		attrIndex: make(map[string]kg.AttrID, len(s.attrIndex)),
		numEdges:  s.numEdges,
	}
	for k, v := range s.nameIndex {
		n.nameIndex[k] = v
	}
	for k, v := range s.adj {
		n.adj[k] = v
	}
	for k, v := range s.types {
		n.types[k] = v
	}
	for k, v := range s.attrs {
		n.attrs[k] = v
	}
	for k, v := range s.typeIndex {
		n.typeIndex[k] = v
	}
	for k, v := range s.attrIndex {
		n.attrIndex[k] = v
	}
	return n
}

// Epoch returns the epoch this snapshot is frozen at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Base returns the immutable base graph under the delta.
func (s *Snapshot) Base() *kg.Graph { return s.base }

// DeltaSize returns the number of nodes the delta adds or overrides — the
// compactor's fold trigger.
func (s *Snapshot) DeltaSize() int {
	touched := map[kg.NodeID]struct{}{}
	for u := range s.adj {
		touched[u] = struct{}{}
	}
	for u := range s.types {
		touched[u] = struct{}{}
	}
	for u := range s.attrs {
		touched[u] = struct{}{}
	}
	return len(touched)
}

// --- kg.ReadGraph ---

// NumNodes returns the number of nodes (base plus delta-added).
func (s *Snapshot) NumNodes() int { return s.baseN + len(s.names) }

// NumEdges returns the number of stored (directed) edges.
func (s *Snapshot) NumEdges() int { return s.numEdges }

// NumPredicates returns the size of the (frozen) predicate vocabulary.
func (s *Snapshot) NumPredicates() int { return s.base.NumPredicates() }

// NumTypes returns the size of the type vocabulary.
func (s *Snapshot) NumTypes() int { return s.base.NumTypes() + len(s.typeNames) }

// NumAttrs returns the size of the numeric attribute vocabulary.
func (s *Snapshot) NumAttrs() int { return s.base.NumAttrs() + len(s.attrNames) }

// Name returns the unique name of node u.
func (s *Snapshot) Name(u kg.NodeID) string {
	if int(u) >= s.baseN {
		return s.names[int(u)-s.baseN]
	}
	return s.base.Name(u)
}

// Types returns the sorted type ids of node u.
func (s *Snapshot) Types(u kg.NodeID) []kg.TypeID {
	if ts, ok := s.types[u]; ok {
		return ts
	}
	if int(u) >= s.baseN {
		return nil
	}
	return s.base.Types(u)
}

// HasType reports whether node u carries type t.
func (s *Snapshot) HasType(u kg.NodeID, t kg.TypeID) bool {
	ts := s.Types(u)
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	return i < len(ts) && ts[i] == t
}

// SharesType reports whether node u carries at least one of the given types.
func (s *Snapshot) SharesType(u kg.NodeID, ts []kg.TypeID) bool {
	for _, t := range ts {
		if s.HasType(u, t) {
			return true
		}
	}
	return false
}

// Attr returns the value of attribute a on node u, and whether it is set.
func (s *Snapshot) Attr(u kg.NodeID, a kg.AttrID) (float64, bool) {
	as := s.Attrs(u)
	i := sort.Search(len(as), func(i int) bool { return as[i].Attr >= a })
	if i < len(as) && as[i].Attr == a {
		return as[i].Value, true
	}
	return 0, false
}

// Attrs returns all numeric attributes of node u, sorted by AttrID.
func (s *Snapshot) Attrs(u kg.NodeID) []kg.AttrValue {
	if as, ok := s.attrs[u]; ok {
		return as
	}
	if int(u) >= s.baseN {
		return nil
	}
	return s.base.Attrs(u)
}

// Neighbors returns the half-edges out of node u (both orientations).
func (s *Snapshot) Neighbors(u kg.NodeID) []kg.HalfEdge {
	if hes, ok := s.adj[u]; ok {
		return hes
	}
	if int(u) >= s.baseN {
		return nil
	}
	return s.base.Neighbors(u)
}

// Degree returns the number of half-edges at node u.
func (s *Snapshot) Degree(u kg.NodeID) int { return len(s.Neighbors(u)) }

// NodeByName returns the node with the given unique name, or InvalidNode.
func (s *Snapshot) NodeByName(name string) kg.NodeID {
	if id, ok := s.nameIndex[name]; ok {
		return id
	}
	return s.base.NodeByName(name)
}

// PredByName returns the predicate id for a label, or InvalidPred.
func (s *Snapshot) PredByName(name string) kg.PredID { return s.base.PredByName(name) }

// TypeByName returns the type id for a label, or InvalidType.
func (s *Snapshot) TypeByName(name string) kg.TypeID {
	if id, ok := s.typeIndex[name]; ok {
		return id
	}
	return s.base.TypeByName(name)
}

// AttrByName returns the attribute id for a label, or InvalidAttr.
func (s *Snapshot) AttrByName(name string) kg.AttrID {
	if id, ok := s.attrIndex[name]; ok {
		return id
	}
	return s.base.AttrByName(name)
}

// PredName returns the label of predicate p.
func (s *Snapshot) PredName(p kg.PredID) string { return s.base.PredName(p) }

// TypeName returns the label of type t.
func (s *Snapshot) TypeName(t kg.TypeID) string {
	if int(t) >= s.base.NumTypes() {
		return s.typeNames[int(t)-s.base.NumTypes()]
	}
	return s.base.TypeName(t)
}

// AttrName returns the label of attribute a.
func (s *Snapshot) AttrName(a kg.AttrID) string {
	if int(a) >= s.base.NumAttrs() {
		return s.attrNames[int(a)-s.base.NumAttrs()]
	}
	return s.base.AttrName(a)
}

// NodesByType returns all nodes carrying type t in ascending NodeID order.
// This is a cold-path method on a Snapshot: the base list is filtered by the
// delta's type overrides and merged with delta nodes carrying t, O(base list
// + delta).
func (s *Snapshot) NodesByType(t kg.TypeID) []kg.NodeID {
	var baseList []kg.NodeID
	if int(t) < s.base.NumTypes() {
		baseList = s.base.NodesByType(t)
	}
	if len(s.types) == 0 {
		return baseList
	}
	out := make([]kg.NodeID, 0, len(baseList))
	for _, u := range baseList {
		if _, overridden := s.types[u]; overridden {
			continue // re-added below iff the override still carries t
		}
		out = append(out, u)
	}
	for u := range s.types {
		if s.HasType(u, t) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EachEdge calls fn for every stored edge in its original orientation.
func (s *Snapshot) EachEdge(fn func(src kg.NodeID, pred kg.PredID, dst kg.NodeID) bool) {
	n := s.NumNodes()
	for u := 0; u < n; u++ {
		for _, he := range s.Neighbors(kg.NodeID(u)) {
			if he.Out {
				if !fn(kg.NodeID(u), he.Pred, he.To) {
					return
				}
			}
		}
	}
}

// HasEdge reports whether an edge src --pred--> dst is stored.
func (s *Snapshot) HasEdge(src kg.NodeID, pred kg.PredID, dst kg.NodeID) bool {
	for _, he := range s.Neighbors(src) {
		if he.Out && he.To == dst && he.Pred == pred {
			return true
		}
	}
	return false
}

// BoundedSubgraph runs a breadth-first search from start up to n hops.
func (s *Snapshot) BoundedSubgraph(start kg.NodeID, n int) *kg.Bounded {
	return kg.BFS(s, start, n)
}

// String summarises the snapshot, handy in logs.
func (s *Snapshot) String() string {
	return fmt.Sprintf("live.Snapshot{epoch: %d, nodes: %d, edges: %d, delta: %d}",
		s.epoch, s.NumNodes(), s.NumEdges(), s.DeltaSize())
}

var _ kg.ReadGraph = (*Snapshot)(nil)

// --- mutation application (clone-local; callers own the clone) ---

// resolve returns the node id of an entity name, or an error matching
// ErrUnknownEntity.
func (s *Snapshot) resolve(name string) (kg.NodeID, error) {
	if name == "" {
		return kg.InvalidNode, badMutation("empty entity name")
	}
	u := s.NodeByName(name)
	if u == kg.InvalidNode {
		return kg.InvalidNode, fmt.Errorf("%w %q", ErrUnknownEntity, name)
	}
	return u, nil
}

// internType interns a type label into the clone's vocabulary.
func (s *Snapshot) internType(name string) kg.TypeID {
	if t := s.TypeByName(name); t != kg.InvalidType {
		return t
	}
	t := kg.TypeID(s.NumTypes())
	s.typeNames = append(s.typeNames, name)
	s.typeIndex[name] = t
	return t
}

// internAttr interns an attribute label into the clone's vocabulary.
func (s *Snapshot) internAttr(name string) kg.AttrID {
	if a := s.AttrByName(name); a != kg.InvalidAttr {
		return a
	}
	a := kg.AttrID(s.NumAttrs())
	s.attrNames = append(s.attrNames, name)
	s.attrIndex[name] = a
	return a
}

// addEntity inserts or merges a node, reporting whether its type set
// changed.
func (s *Snapshot) addEntity(name string, typeNames []string) (kg.NodeID, bool, error) {
	if name == "" {
		return kg.InvalidNode, false, badMutation("add_entity: empty entity name")
	}
	u := s.NodeByName(name)
	fresh := u == kg.InvalidNode
	if fresh {
		u = kg.NodeID(s.NumNodes())
		s.names = append(s.names, name)
		s.nameIndex[name] = u
		s.types[u] = nil
	}
	changed := fresh
	ts := append([]kg.TypeID(nil), s.Types(u)...)
	for _, tn := range typeNames {
		t := s.internType(tn)
		i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
		if i < len(ts) && ts[i] == t {
			continue
		}
		ts = append(ts, 0)
		copy(ts[i+1:], ts[i:])
		ts[i] = t
		changed = true
	}
	if fresh && len(ts) == 0 {
		// Untyped nodes would escape Definition 4's type condition; give
		// them the same catch-all the loaders use.
		ts = []kg.TypeID{s.internType("Thing")}
	}
	if changed {
		s.types[u] = ts
	}
	return u, changed, nil
}

// addEdge inserts src --pred--> dst, reporting whether the edge was new.
func (s *Snapshot) addEdge(srcName, predName, dstName string) (kg.NodeID, kg.NodeID, bool, error) {
	src, err := s.resolve(srcName)
	if err != nil {
		return 0, 0, false, fmt.Errorf("add_edge src: %w", err)
	}
	dst, err := s.resolve(dstName)
	if err != nil {
		return 0, 0, false, fmt.Errorf("add_edge dst: %w", err)
	}
	if src == dst {
		return 0, 0, false, fmt.Errorf("%w: %q", ErrSelfLoop, srcName)
	}
	pred := s.base.PredByName(predName)
	if pred == kg.InvalidPred {
		return 0, 0, false, fmt.Errorf("%w: %q", ErrFrozenPredicate, predName)
	}
	if s.HasEdge(src, pred, dst) {
		return src, dst, false, nil // duplicate: collapse, like kg.Builder
	}
	s.adj[src] = append(append([]kg.HalfEdge(nil), s.Neighbors(src)...),
		kg.HalfEdge{To: dst, Pred: pred, Out: true})
	s.adj[dst] = append(append([]kg.HalfEdge(nil), s.Neighbors(dst)...),
		kg.HalfEdge{To: src, Pred: pred, Out: false})
	s.numEdges++
	return src, dst, true, nil
}

// removeEdge deletes src --pred--> dst.
func (s *Snapshot) removeEdge(srcName, predName, dstName string) (kg.NodeID, kg.NodeID, error) {
	src, err := s.resolve(srcName)
	if err != nil {
		return 0, 0, fmt.Errorf("remove_edge src: %w", err)
	}
	dst, err := s.resolve(dstName)
	if err != nil {
		return 0, 0, fmt.Errorf("remove_edge dst: %w", err)
	}
	pred := s.PredByName(predName)
	if pred == kg.InvalidPred || !s.HasEdge(src, pred, dst) {
		return 0, 0, fmt.Errorf("%w: %s --%s--> %s", ErrEdgeNotFound, srcName, predName, dstName)
	}
	s.adj[src] = dropHalf(s.Neighbors(src), kg.HalfEdge{To: dst, Pred: pred, Out: true})
	s.adj[dst] = dropHalf(s.Neighbors(dst), kg.HalfEdge{To: src, Pred: pred, Out: false})
	s.numEdges--
	return src, dst, nil
}

// dropHalf copies hes without the first occurrence of he.
func dropHalf(hes []kg.HalfEdge, he kg.HalfEdge) []kg.HalfEdge {
	out := make([]kg.HalfEdge, 0, len(hes)-1)
	dropped := false
	for _, h := range hes {
		if !dropped && h == he {
			dropped = true
			continue
		}
		out = append(out, h)
	}
	return out
}

// setAttr sets attr=value on the named entity.
func (s *Snapshot) setAttr(entity, attr string, value float64) (kg.NodeID, error) {
	u, err := s.resolve(entity)
	if err != nil {
		return 0, fmt.Errorf("set_attr: %w", err)
	}
	if attr == "" {
		return 0, badMutation("set_attr: empty attribute name")
	}
	a := s.internAttr(attr)
	as := append([]kg.AttrValue(nil), s.Attrs(u)...)
	i := sort.Search(len(as), func(i int) bool { return as[i].Attr >= a })
	if i < len(as) && as[i].Attr == a {
		as[i].Value = value
	} else {
		as = append(as, kg.AttrValue{})
		copy(as[i+1:], as[i:])
		as[i] = kg.AttrValue{Attr: a, Value: value}
	}
	s.attrs[u] = as
	return u, nil
}

// setTypes replaces the named entity's type set.
func (s *Snapshot) setTypes(entity string, typeNames []string) (kg.NodeID, error) {
	u, err := s.resolve(entity)
	if err != nil {
		return 0, fmt.Errorf("set_types: %w", err)
	}
	if len(typeNames) == 0 {
		return 0, badMutation("set_types on %q: a node needs at least one type", entity)
	}
	ts := make([]kg.TypeID, 0, len(typeNames))
	for _, tn := range typeNames {
		t := s.internType(tn)
		i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
		if i < len(ts) && ts[i] == t {
			continue
		}
		ts = append(ts, 0)
		copy(ts[i+1:], ts[i:])
		ts[i] = t
	}
	s.types[u] = ts
	return u, nil
}

// applyBatch applies every mutation of b to a clone of s, returning the new
// snapshot at epoch+1 and the set of nodes whose topology or type set
// changed (the cache-invalidation scope; attribute-only updates are
// excluded on purpose — a cached answer space's distribution and verdicts
// hold no attribute data, and the attribute values it keeps are per epoch).
func applyBatch(s *Snapshot, b Batch) (*Snapshot, []kg.NodeID, error) {
	if len(b) == 0 {
		return nil, nil, badMutation("empty batch")
	}
	next := s.clone()
	touched := map[kg.NodeID]struct{}{}
	for i, m := range b {
		var err error
		switch m.Op {
		case OpAddEntity:
			var u kg.NodeID
			var changed bool
			if u, changed, err = next.addEntity(m.Entity, m.Types); err == nil && changed {
				touched[u] = struct{}{}
			}
		case OpAddEdge:
			var src, dst kg.NodeID
			var added bool
			if src, dst, added, err = next.addEdge(m.Src, m.Pred, m.Dst); err == nil && added {
				touched[src] = struct{}{}
				touched[dst] = struct{}{}
			}
		case OpRemoveEdge:
			var src, dst kg.NodeID
			if src, dst, err = next.removeEdge(m.Src, m.Pred, m.Dst); err == nil {
				touched[src] = struct{}{}
				touched[dst] = struct{}{}
			}
		case OpSetAttr:
			_, err = next.setAttr(m.Entity, m.Attr, m.Value)
		case OpSetTypes:
			var u kg.NodeID
			if u, err = next.setTypes(m.Entity, m.Types); err == nil {
				touched[u] = struct{}{}
			}
		default:
			err = badMutation("unknown op %q", m.Op)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("live: batch[%d]: %w", i, err)
		}
	}
	next.epoch = s.epoch + 1
	nodes := make([]kg.NodeID, 0, len(touched))
	for u := range touched {
		nodes = append(nodes, u)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return next, nodes, nil
}
