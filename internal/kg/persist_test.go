package kg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"slices"
	"testing"
)

// Version-1 snapshots carry the magic header and round-trip the epoch.
func TestSnapshotHeaderRoundTrip(t *testing.T) {
	g := figureGraph(t)
	var buf bytes.Buffer
	if err := g.SaveEpoch(&buf, 42); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(snapshotMagic)) {
		t.Fatalf("snapshot does not start with the magic, got %q", buf.Bytes()[:8])
	}
	g2, epoch, err := LoadEpoch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 {
		t.Fatalf("epoch = %d, want 42", epoch)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed counts: %v vs %v", g2, g)
	}
}

// Version-0 files — a bare gob stream, as written before the header existed
// — must keep loading, reporting epoch 0.
func TestSnapshotVersion0Compat(t *testing.T) {
	g := figureGraph(t)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := gob.NewEncoder(bw)
	s := snapshot{
		Names: g.names, Types: g.types, Attrs: g.attrs, Adj: g.adj,
		PredNames: g.predNames, TypeNames: g.typeNames, AttrNames: g.attrNames,
		NumEdges: g.numEdges,
	}
	if err := enc.Encode(&s); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	g2, epoch, err := LoadEpoch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("version-0 stream rejected: %v", err)
	}
	if epoch != 0 {
		t.Fatalf("version-0 epoch = %d, want 0", epoch)
	}
	if g2.NumNodes() != g.NumNodes() {
		t.Fatalf("version-0 round trip changed node count")
	}
}

// Corrupt and foreign files fail with the typed sentinel, not an opaque gob
// error.
func TestSnapshotBadFiles(t *testing.T) {
	g := figureGraph(t)
	var good bytes.Buffer
	if err := g.SaveEpoch(&good, 1); err != nil {
		t.Fatal(err)
	}

	futureVersion := append([]byte(snapshotMagic), make([]byte, 12)...)
	binary.LittleEndian.PutUint32(futureVersion[8:12], 99)

	// reencoded is g with node u's adjacency replaced by hes, saved with a
	// valid header and checksum: only the mirror check can refuse it.
	reencoded := func(u NodeID, hes []HalfEdge) []byte {
		h := *g
		h.adj = slices.Clone(g.adj)
		h.adj[u] = hes
		var buf bytes.Buffer
		if err := h.SaveEpoch(&buf, 1); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	de := g.NodeByName("Germany")
	relabelled := slices.Clone(g.adj[de])
	relabelled[0].Pred = g.PredByName("product")

	cases := []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("definitely not a snapshot")},
		{"empty", nil},
		{"truncated header", []byte(snapshotMagic + "ab")},
		{"future version", futureVersion},
		{"truncated payload", good.Bytes()[:len(good.Bytes())/2]},
		{"half-edge dropped", reencoded(de, g.adj[de][1:])},
		{"half-edge relabelled", reencoded(de, relabelled)},
	}
	for _, tc := range cases {
		if _, _, err := LoadEpoch(bytes.NewReader(tc.data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", tc.name, err)
		}
	}
}

// A version-2 snapshot with any payload byte flipped must fail with the
// typed sentinel: the checksum, not the gob decoder, is the arbiter.
func TestSnapshotBitFlipDetected(t *testing.T) {
	g := figureGraph(t)
	var good bytes.Buffer
	if err := g.SaveEpoch(&good, 1); err != nil {
		t.Fatal(err)
	}
	headerLen := len(snapshotMagic) + 24
	data := good.Bytes()
	// Flip one byte at several payload offsets, including first and last.
	offsets := []int{headerLen, headerLen + 1, (headerLen + len(data)) / 2, len(data) - 1}
	for _, off := range offsets {
		mut := bytes.Clone(data)
		mut[off] ^= 0xff
		if _, _, err := LoadEpoch(bytes.NewReader(mut)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("flip at %d: err = %v, want ErrBadSnapshot", off, err)
		}
	}
	// A flipped length field must fail typed too, not over-allocate.
	mut := bytes.Clone(data)
	binary.LittleEndian.PutUint64(mut[len(snapshotMagic)+12:], 1<<62)
	if _, _, err := LoadEpoch(bytes.NewReader(mut)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("huge length: err = %v, want ErrBadSnapshot", err)
	}
}

// Version-1 files written by the previous release (no payload checksum) must
// keep loading. testdata/golden-v1.snap was generated by the version-1
// writer: Germany --product--> {BMW_X1, Audi_A4} with price attrs, epoch 7.
func TestSnapshotGoldenV1Loads(t *testing.T) {
	g, epoch, err := LoadFileEpoch("testdata/golden-v1.snap")
	if err != nil {
		t.Fatalf("golden v1 snapshot rejected: %v", err)
	}
	if epoch != 7 {
		t.Fatalf("epoch = %d, want 7", epoch)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("golden graph has %d nodes / %d edges, want 3 / 2", g.NumNodes(), g.NumEdges())
	}
	de := g.NodeByName("Germany")
	if de == InvalidNode {
		t.Fatal("golden graph lost node Germany")
	}
	if len(g.Neighbors(de)) != 2 {
		t.Fatalf("Germany has %d neighbors, want 2", len(g.Neighbors(de)))
	}
}

// Materialize must preserve every id assignment and all content.
func TestMaterializeRoundTrip(t *testing.T) {
	g := figureGraph(t)
	m, err := Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != g.NumNodes() || m.NumEdges() != g.NumEdges() ||
		m.NumPredicates() != g.NumPredicates() || m.NumTypes() != g.NumTypes() ||
		m.NumAttrs() != g.NumAttrs() {
		t.Fatalf("counts changed: %v vs %v", m, g)
	}
	for i := 0; i < g.NumNodes(); i++ {
		u := NodeID(i)
		if m.Name(u) != g.Name(u) {
			t.Fatalf("node %d renamed", i)
		}
		if len(m.Neighbors(u)) != len(g.Neighbors(u)) {
			t.Fatalf("node %d degree changed", i)
		}
		for _, av := range g.Attrs(u) {
			if v, ok := m.Attr(u, av.Attr); !ok || v != av.Value {
				t.Fatalf("node %d attr %d changed", i, av.Attr)
			}
		}
	}
	for p := 0; p < g.NumPredicates(); p++ {
		if m.PredName(PredID(p)) != g.PredName(PredID(p)) {
			t.Fatalf("predicate %d renamed", p)
		}
	}
}

// figureGraph builds a small graph inline (kgtest would be an import
// cycle); shape loosely after Figure 1.
func figureGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	de := b.AddNode("Germany", "Country")
	bmw := b.AddNode("BMW_320", "Automobile")
	vw := b.AddNode("Volkswagen", "Company")
	lam := b.AddNode("Lamando", "Automobile")
	for _, e := range []struct {
		src  NodeID
		pred string
		dst  NodeID
	}{
		{bmw, "assembly", de},
		{vw, "country", de},
		{vw, "product", lam},
	} {
		if err := b.AddEdge(e.src, e.pred, e.dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetAttr(bmw, "price", 35000); err != nil {
		t.Fatal(err)
	}
	if err := b.SetAttr(lam, "price", 24060.80); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}
