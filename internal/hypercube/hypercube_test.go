package hypercube

import (
	"math/bits"
	"testing"
	"testing/quick"

	"multipath/internal/bitutil"
	"multipath/internal/graph"
)

func TestNewBounds(t *testing.T) {
	for _, n := range []int{0, -1, 27} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
	q := New(5)
	if q.Dims() != 5 || q.Nodes() != 32 || q.DirectedEdges() != 160 {
		t.Fatalf("Q_5 basic counts wrong: %d %d %d", q.Dims(), q.Nodes(), q.DirectedEdges())
	}
}

func TestNeighborAndDim(t *testing.T) {
	q := New(6)
	f := func(v uint32, d8 uint8) bool {
		v &= 63
		d := int(d8 % 6)
		w := q.Neighbor(v, d)
		if bits.OnesCount32(v^w) != 1 {
			return false
		}
		got, err := q.Dim(v, w)
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := q.Dim(0, 0); err == nil {
		t.Error("Dim(v,v) accepted")
	}
	if _, err := q.Dim(0, 3); err == nil {
		t.Error("Dim of non-adjacent accepted")
	}
	if _, err := q.Dim(0, 1<<10); err == nil {
		t.Error("Dim outside cube accepted")
	}
}

func TestEdgeIDRoundTrip(t *testing.T) {
	q := New(7)
	seen := make([]bool, q.DirectedEdges())
	for v := Node(0); q.Contains(v); v++ {
		for d := 0; d < q.Dims(); d++ {
			id := q.EdgeID(v, d)
			if id < 0 || id >= q.DirectedEdges() {
				t.Fatalf("edge id %d out of range", id)
			}
			if seen[id] {
				t.Fatalf("edge id %d duplicated", id)
			}
			seen[id] = true
			e := q.EdgeOf(id)
			if e.From != v || e.Dim != d {
				t.Fatalf("EdgeOf(%d) = %+v, want (%d,%d)", id, e, v, d)
			}
			if e.To() != q.Neighbor(v, d) {
				t.Fatalf("edge To() mismatch")
			}
		}
	}
}

func TestEdgeBetween(t *testing.T) {
	q := New(4)
	id, err := q.EdgeBetween(0b0101, 0b0111)
	if err != nil {
		t.Fatal(err)
	}
	if e := q.EdgeOf(id); e.From != 0b0101 || e.Dim != 1 {
		t.Fatalf("EdgeBetween gave %+v", e)
	}
	if _, err := q.EdgeBetween(0, 3); err == nil {
		t.Error("non-adjacent accepted")
	}
}

func TestGraphMaterialization(t *testing.T) {
	q := New(4)
	g := q.Graph()
	if g.N() != 16 || g.M() != 64 {
		t.Fatalf("Q_4 graph N=%d M=%d", g.N(), g.M())
	}
	for u := int32(0); u < 16; u++ {
		if g.OutDegree(u) != 4 {
			t.Errorf("out-degree %d at %d", g.OutDegree(u), u)
		}
	}
	// Spot check Hamiltonicity via the Gray code cycle.
	cyc := bitutil.HamiltonianCycle(4)
	seq := make([]int32, len(cyc))
	for i, v := range cyc {
		seq[i] = int32(v)
	}
	if err := graph.IsHamiltonianCycleIn(g, seq); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPath(t *testing.T) {
	q := New(4)
	if n, err := q.CheckPath([]Node{0, 1, 3, 7}); err != nil || n != 3 {
		t.Fatalf("valid path rejected: %v (len %d)", err, n)
	}
	if _, err := q.CheckPath(nil); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := q.CheckPath([]Node{0, 3}); err == nil {
		t.Error("non-adjacent step accepted")
	}
	if _, err := q.CheckPath([]Node{0, 16}); err == nil {
		t.Error("out-of-cube node accepted")
	}
}

func TestPathEdgeIDs(t *testing.T) {
	q := New(4)
	ids, err := q.PathEdgeIDs([]Node{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != q.EdgeID(0, 0) || ids[1] != q.EdgeID(1, 1) {
		t.Fatalf("ids = %v", ids)
	}
	if _, err := q.PathEdgeIDs([]Node{0, 5}); err == nil {
		t.Error("bad path accepted")
	}
}

// AppendPathEdgeIDs and its PathEdgeIDs wrapper agree on ids and on
// error strings, and the errors are CheckPath's; on error the
// destination comes back unchanged.
func TestAppendPathEdgeIDs(t *testing.T) {
	q := New(4)
	prefix := []int{7, 8}
	for _, c := range []struct {
		name string
		p    []Node
		ids  []int
	}{
		{"path", []Node{0, 1, 3, 11}, []int{q.EdgeID(0, 0), q.EdgeID(1, 1), q.EdgeID(3, 3)}},
		{"one node", []Node{5}, nil},
		{"empty", nil, nil},
		{"outside first", []Node{16, 0}, nil},
		{"outside later", []Node{0, 1, 17}, nil},
		{"not adjacent", []Node{0, 1, 7}, nil},
		{"repeated node", []Node{2, 2}, nil},
	} {
		ids, err := q.PathEdgeIDs(c.p)
		got, aerr := q.AppendPathEdgeIDs(append([]int(nil), prefix...), c.p)
		_, cerr := q.CheckPath(c.p)
		if (err == nil) != (cerr == nil) || (aerr == nil) != (cerr == nil) {
			t.Fatalf("%s: PathEdgeIDs err %v, AppendPathEdgeIDs err %v, CheckPath err %v", c.name, err, aerr, cerr)
		}
		if cerr != nil {
			if err.Error() != cerr.Error() || aerr.Error() != cerr.Error() {
				t.Fatalf("%s: errors %q, %q, want CheckPath's %q", c.name, err, aerr, cerr)
			}
			if ids != nil || len(got) != len(prefix) || got[0] != 7 || got[1] != 8 {
				t.Fatalf("%s: error left ids %v, dst %v", c.name, ids, got)
			}
			continue
		}
		if len(ids) != len(c.ids) || len(got) != len(prefix)+len(c.ids) {
			t.Fatalf("%s: ids %v, appended %v, want %v", c.name, ids, got, c.ids)
		}
		for i, id := range c.ids {
			if ids[i] != id || got[len(prefix)+i] != id {
				t.Fatalf("%s: ids %v, appended %v, want %v", c.name, ids, got, c.ids)
			}
		}
	}
}

func TestWindowSignature(t *testing.T) {
	// v = 01001 (v4..v0), W = {1, 4, 3}: bits v1, v4, v3 = 0, 0, 1.
	w := Window{1, 4, 3}
	if got := w.Signature(0b01001); got != 0b001 {
		t.Fatalf("signature = %b, want 001", got)
	}
	if got := w.Signature(0b11010); got != 0b111 {
		t.Fatalf("signature = %b, want 111", got)
	}
}

func TestWindowSetSignatureRoundTrip(t *testing.T) {
	w := Window{1, 4, 3}
	f := func(v uint32, s uint32) bool {
		v &= 0x1f
		s &= 0x7
		v2 := w.SetSignature(v, s)
		if w.Signature(v2) != s {
			return false
		}
		// Bits outside the window unchanged.
		mask := uint32(1<<1 | 1<<4 | 1<<3)
		return v2&^mask == v&^mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowValidate(t *testing.T) {
	if err := (Window{0, 2, 4}).Validate(5); err != nil {
		t.Errorf("valid window rejected: %v", err)
	}
	if err := (Window{0, 0}).Validate(5); err == nil {
		t.Error("repeated dimension accepted")
	}
	if err := (Window{5}).Validate(5); err == nil {
		t.Error("out-of-range dimension accepted")
	}
	if err := (Window{-1}).Validate(5); err == nil {
		t.Error("negative dimension accepted")
	}
}

func TestWindowSetOps(t *testing.T) {
	w := Window{1, 4, 3}
	if !w.Contains(4) || w.Contains(2) {
		t.Error("Contains wrong")
	}
	if w.Index(3) != 2 || w.Index(0) != -1 {
		t.Error("Index wrong")
	}
	if !w.Disjoint(Window{0, 2}) || w.Disjoint(Window{2, 3}) {
		t.Error("Disjoint wrong")
	}
	comp := w.Complement(5)
	if len(comp) != 2 || comp[0] != 0 || comp[1] != 2 {
		t.Errorf("Complement = %v", comp)
	}
}

func TestPartitionAddressFields(t *testing.T) {
	// n = 7 = 3 rows bits + 4 col bits, 2 block bits (Figure 2 layout).
	q := New(7)
	p := NewPartition(q, 3, 4, 2)
	v := Node(0b101_1101) // row 101, col 1101 = position 11, block 01
	if p.Row(v) != 0b101 {
		t.Errorf("Row = %b", p.Row(v))
	}
	if p.Col(v) != 0b1101 {
		t.Errorf("Col = %b", p.Col(v))
	}
	if p.Block(p.Col(v)) != 0b01 {
		t.Errorf("Block = %b", p.Block(p.Col(v)))
	}
	if p.Position(p.Col(v)) != 0b11 {
		t.Errorf("Position = %b", p.Position(p.Col(v)))
	}
	if p.Node(0b101, 0b1101) != v {
		t.Error("Node composition wrong")
	}
	if p.ColOf(0b11, 0b01) != 0b1101 {
		t.Error("ColOf composition wrong")
	}
	if p.Rows() != 8 || p.Cols() != 16 {
		t.Errorf("Rows/Cols = %d/%d", p.Rows(), p.Cols())
	}
}

func TestPartitionRoundTripProperty(t *testing.T) {
	q := New(10)
	p := NewPartition(q, 4, 6, 2)
	f := func(v uint32) bool {
		v &= 1<<10 - 1
		if p.Node(p.Row(v), p.Col(v)) != v {
			return false
		}
		c := p.Col(v)
		return p.ColOf(p.Position(c), p.Block(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionDims(t *testing.T) {
	q := New(10)
	p := NewPartition(q, 4, 6, 2)
	if p.RowDim(0) != 6 || p.RowDim(3) != 9 {
		t.Error("RowDim wrong")
	}
	if p.ColDim(5) != 5 {
		t.Error("ColDim wrong")
	}
	if p.PositionDim(0) != 2 || p.PositionDim(3) != 5 {
		t.Error("PositionDim wrong")
	}
}

func TestPartitionValidation(t *testing.T) {
	q := New(6)
	for _, c := range []struct{ r, cl, b int }{{3, 4, 0}, {-1, 7, 0}, {3, 3, 4}, {3, 3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("partition %+v accepted", c)
				}
			}()
			NewPartition(q, c.r, c.cl, c.b)
		}()
	}
}
