package kg

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// Snapshot framing. Version-0 files (everything written before the header
// existed) are a bare gob stream; version-1 files carry a fixed magic,
// a format version and the live-graph epoch the snapshot was taken at;
// version-2 files add the payload length and a CRC32-C of the payload, so
// a truncated or bit-flipped snapshot fails with a typed error before the
// gob decoder can misread it. Loaders read every version ≤ snapshotVersion.
const (
	snapshotMagic   = "KGAQSNP1" // 8 bytes, constant across versions
	snapshotVersion = 2

	// maxSnapshotPayload bounds the allocation a version-2 header can demand,
	// so a flipped length field fails typed instead of exhausting memory.
	maxSnapshotPayload = 4 << 30
)

var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadSnapshot reports a snapshot file the loader refuses: wrong magic
// after a partial match, an unknown format version, or a corrupt payload.
// Match with errors.Is; the wrapping message carries the detail.
var ErrBadSnapshot = errors.New("kg: bad snapshot")

// snapshot is the gob wire form of a Graph. Only the primary data travels;
// indexes are rebuilt on load, keeping snapshots small and forward-portable.
type snapshot struct {
	Names     []string
	Types     [][]TypeID
	Attrs     [][]AttrValue
	Adj       [][]HalfEdge
	PredNames []string
	TypeNames []string
	AttrNames []string
	NumEdges  int
}

// Save writes a binary snapshot of the graph at epoch 0.
func (g *Graph) Save(w io.Writer) error {
	return g.SaveEpoch(w, 0)
}

// SaveEpoch writes a binary snapshot of the graph, recording the live-graph
// epoch it was materialised at: magic, format version, epoch, payload length
// and CRC32-C, then the gob payload. The payload is staged in memory so the
// header can vouch for its exact bytes.
func (g *Graph) SaveEpoch(w io.Writer, epoch uint64) error {
	var payload bytes.Buffer
	s := snapshot{
		Names:     g.names,
		Types:     g.types,
		Attrs:     g.attrs,
		Adj:       g.adj,
		PredNames: g.predNames,
		TypeNames: g.typeNames,
		AttrNames: g.attrNames,
		NumEdges:  g.numEdges,
	}
	if err := gob.NewEncoder(&payload).Encode(&s); err != nil {
		return fmt.Errorf("kg: save: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("kg: save: %w", err)
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], snapshotVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], epoch)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.Checksum(payload.Bytes(), snapCastagnoli))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("kg: save: %w", err)
	}
	if _, err := bw.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("kg: save: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("kg: save: %w", err)
	}
	return nil
}

// Load reads a snapshot written by Save/SaveEpoch and rebuilds all indexes.
func Load(r io.Reader) (*Graph, error) {
	g, _, err := LoadEpoch(r)
	return g, err
}

// LoadEpoch is Load plus the epoch recorded in the snapshot header
// (0 for version-0 files, which predate epochs). Version-0 files — a bare
// gob stream with no header — remain readable; anything that is neither a
// headered snapshot nor a decodable version-0 stream fails with an error
// matching ErrBadSnapshot.
func LoadEpoch(r io.Reader) (*Graph, uint64, error) {
	br := bufio.NewReader(r)
	epoch := uint64(0)
	var payload io.Reader = br
	head, err := br.Peek(len(snapshotMagic))
	if err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if string(head) == snapshotMagic {
		if _, err := br.Discard(len(snapshotMagic)); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		var hdr [12]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, 0, fmt.Errorf("%w: truncated header: %v", ErrBadSnapshot, err)
		}
		version := binary.LittleEndian.Uint32(hdr[0:4])
		if version == 0 || version > snapshotVersion {
			return nil, 0, fmt.Errorf("%w: unsupported format version %d (this build reads ≤ %d)",
				ErrBadSnapshot, version, snapshotVersion)
		}
		epoch = binary.LittleEndian.Uint64(hdr[4:12])
		if version >= 2 {
			// Version 2 adds payload length and CRC32-C: verify the exact
			// bytes before handing anything to the gob decoder.
			var chk [12]byte
			if _, err := io.ReadFull(br, chk[:]); err != nil {
				return nil, 0, fmt.Errorf("%w: truncated header: %v", ErrBadSnapshot, err)
			}
			length := binary.LittleEndian.Uint64(chk[0:8])
			sum := binary.LittleEndian.Uint32(chk[8:12])
			if length > maxSnapshotPayload {
				return nil, 0, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadSnapshot, length)
			}
			buf := make([]byte, length)
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, 0, fmt.Errorf("%w: truncated payload (want %d bytes): %v", ErrBadSnapshot, length, err)
			}
			if got := crc32.Checksum(buf, snapCastagnoli); got != sum {
				return nil, 0, fmt.Errorf("%w: payload checksum mismatch (got %08x, want %08x)", ErrBadSnapshot, got, sum)
			}
			payload = bytes.NewReader(buf)
		}
	}
	// Headerless streams fall through here: version 0, epoch 0.
	dec := gob.NewDecoder(payload)
	var s snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, 0, fmt.Errorf("%w: decode: %v", ErrBadSnapshot, err)
	}
	g, err := fromSnapshot(&s)
	if err != nil {
		return nil, 0, err
	}
	return g, epoch, nil
}

// fromSnapshot rebuilds a Graph (and all its indexes) from the wire form,
// validating internal consistency.
func fromSnapshot(s *snapshot) (*Graph, error) {
	g := &Graph{
		names:     s.Names,
		types:     s.Types,
		attrs:     s.Attrs,
		adj:       s.Adj,
		predNames: s.PredNames,
		typeNames: s.TypeNames,
		attrNames: s.AttrNames,
		numEdges:  s.NumEdges,
		nameIndex: make(map[string]NodeID, len(s.Names)),
		predIndex: make(map[string]PredID, len(s.PredNames)),
		typeIndex: make(map[string]TypeID, len(s.TypeNames)),
		attrIndex: make(map[string]AttrID, len(s.AttrNames)),
		byType:    map[TypeID][]NodeID{},
	}
	if len(g.types) != len(g.names) || len(g.attrs) != len(g.names) || len(g.adj) != len(g.names) {
		return nil, fmt.Errorf("%w: inconsistent snapshot (nodes %d, types %d, attrs %d, adj %d)",
			ErrBadSnapshot, len(g.names), len(g.types), len(g.attrs), len(g.adj))
	}
	for i, n := range g.names {
		if _, dup := g.nameIndex[n]; dup {
			return nil, fmt.Errorf("%w: duplicate node name %q", ErrBadSnapshot, n)
		}
		g.nameIndex[n] = NodeID(i)
	}
	for i, p := range g.predNames {
		g.predIndex[p] = PredID(i)
	}
	for i, t := range g.typeNames {
		g.typeIndex[t] = TypeID(i)
	}
	for i, a := range g.attrNames {
		g.attrIndex[a] = AttrID(i)
	}
	for id, ts := range g.types {
		for _, t := range ts {
			if int(t) >= len(g.typeNames) || t < 0 {
				return nil, fmt.Errorf("%w: node %d has unknown type id %d", ErrBadSnapshot, id, t)
			}
			g.byType[t] = append(g.byType[t], NodeID(id))
		}
	}
	for id, hes := range g.adj {
		for _, he := range hes {
			if int(he.To) >= len(g.names) || he.To < 0 {
				return nil, fmt.Errorf("%w: node %d has edge to unknown node %d", ErrBadSnapshot, id, he.To)
			}
			if int(he.Pred) >= len(g.predNames) || he.Pred < 0 {
				return nil, fmt.Errorf("%w: node %d has edge with unknown predicate %d", ErrBadSnapshot, id, he.Pred)
			}
		}
	}
	if err := checkMirrored(g); err != nil {
		return nil, err
	}
	return g, nil
}

// checkMirrored holds a loaded adjacency to what every writer keeps: each
// stored edge u→v with predicate p shows once as an Out half-edge at u and
// once as an In half-edge at v, NumEdges times over. The semantic-aware
// walk's closed-form π rests on it (a scope that breaks it fails with
// walk.ErrAsymmetric), and a snapshot is the one outside input that could.
//
// The In half-edges are bucketed by the node they name, so each node's Out
// half-edges are compared, both sides sorted, with the mirrors pointing
// back at it: linear in the edges apart from the per-node sorts.
func checkMirrored(g *Graph) error {
	start := make([]int, len(g.adj)+1)
	outs := 0
	for _, hes := range g.adj {
		for _, he := range hes {
			if he.Out {
				outs++
			} else {
				start[he.To+1]++
			}
		}
	}
	for u := range g.adj {
		start[u+1] += start[u]
	}
	if ins := start[len(g.adj)]; outs != g.numEdges || ins != g.numEdges {
		return fmt.Errorf("%w: %d out and %d in half-edges for %d edges", ErrBadSnapshot, outs, ins, g.numEdges)
	}
	// mirrors[start[u]:start[u+1]] holds, as u's Out half-edges would, the
	// far end and predicate of every In half-edge that names u.
	mirrors := make([]HalfEdge, g.numEdges)
	next := slices.Clone(start[:len(g.adj)])
	for v, hes := range g.adj {
		for _, he := range hes {
			if !he.Out {
				mirrors[next[he.To]] = HalfEdge{To: NodeID(v), Pred: he.Pred, Out: true}
				next[he.To]++
			}
		}
	}
	order := func(a, b HalfEdge) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.Pred, b.Pred))
	}
	var out []HalfEdge
	for u, hes := range g.adj {
		out = out[:0]
		for _, he := range hes {
			if he.Out {
				out = append(out, he)
			}
		}
		in := mirrors[start[u]:start[u+1]]
		slices.SortFunc(out, order)
		slices.SortFunc(in, order)
		if !slices.Equal(out, in) {
			return fmt.Errorf("%w: the out half-edges of node %q do not match the in half-edges naming it",
				ErrBadSnapshot, g.names[u])
		}
	}
	return nil
}

// SaveFile writes a snapshot to path, creating or truncating it.
func (g *Graph) SaveFile(path string) error {
	return g.SaveFileEpoch(path, 0)
}

// SaveFileEpoch writes a snapshot at the given epoch to path.
func (g *Graph) SaveFileEpoch(path string, epoch uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("kg: %w", err)
	}
	if err := g.SaveEpoch(f, epoch); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*Graph, error) {
	g, _, err := LoadFileEpoch(path)
	return g, err
}

// LoadFileEpoch reads a snapshot and its recorded epoch from path.
func LoadFileEpoch(path string) (*Graph, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("kg: %w", err)
	}
	defer f.Close()
	return LoadEpoch(f)
}
