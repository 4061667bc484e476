package traffic

import (
	"reflect"
	"testing"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

// refPathTemplates is the golden model of PathTemplates: one
// Host.PathEdgeIDs call and one allocation per path.
func refPathTemplates(e *core.Embedding, edges []int, flits int) ([]*netsim.Message, [][]int32, error) {
	if edges == nil {
		edges = make([]int, len(e.Paths))
		for i := range edges {
			edges[i] = i
		}
	}
	var tmpls []*netsim.Message
	groups := make([][]int32, len(edges))
	for b, ge := range edges {
		ps := e.Paths[ge]
		group := make([]int32, len(ps))
		for j, p := range ps {
			var ids []int
			if len(p) >= 2 {
				var err error
				if ids, err = e.Host.PathEdgeIDs(p); err != nil {
					return nil, nil, err
				}
			}
			group[j] = int32(len(tmpls))
			tmpls = append(tmpls, &netsim.Message{Route: ids, Flits: flits})
		}
		groups[b] = group
	}
	return tmpls, groups, nil
}

// refWidthPathMessages is the golden model of WidthPathMessages.
func refWidthPathMessages(e *core.Embedding, flits int) ([]*netsim.Message, error) {
	var msgs []*netsim.Message
	for _, ps := range e.Paths {
		w := len(ps)
		for j, p := range ps {
			f := flits / w
			if j < flits%w {
				f++
			}
			if f == 0 || len(p) < 2 {
				continue
			}
			ids, err := e.Host.PathEdgeIDs(p)
			if err != nil {
				return nil, err
			}
			msgs = append(msgs, &netsim.Message{Route: ids, Flits: f})
		}
	}
	return msgs, nil
}

// checkCappedRoutes asserts that appending to any route leaves every
// other route unchanged.
func checkCappedRoutes(t *testing.T, name string, tmpls []*netsim.Message) {
	t.Helper()
	for i, m := range tmpls {
		if cap(m.Route) != len(m.Route) {
			t.Fatalf("%s: template %d route has len %d cap %d", name, i, len(m.Route), cap(m.Route))
		}
	}
	if len(tmpls) < 2 {
		return
	}
	before := append([]int(nil), tmpls[1].Route...)
	_ = append(tmpls[0].Route, -1)
	if !reflect.DeepEqual(tmpls[1].Route, before) {
		t.Fatalf("%s: appending to route 0 overwrote route 1", name)
	}
}

// TestTemplatesMatchPerPathBuild pins the arena builders to the
// per-path build they replace: identical routes (nil for zero-hop
// paths), flits and groups, for Theorems 1 and 2 at n = 8, every edge
// and a subset, with a zero-hop path spliced in.
func TestTemplatesMatchPerPathBuild(t *testing.T) {
	t1, err := cycles.Theorem1(8)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cycles.Theorem2(8)
	if err != nil {
		t.Fatal(err)
	}
	// A copy of Theorem 1 whose first bundle gains a zero-hop path and
	// whose second bundle is only a zero-hop path.
	zero := *t1
	zero.Paths = append([][]core.Path(nil), t1.Paths...)
	v := t1.Paths[0][0][0]
	zero.Paths[0] = append(append([]core.Path(nil), t1.Paths[0]...), core.Path{v})
	zero.Paths[1] = []core.Path{{t1.Paths[1][0][0]}}

	for _, c := range []struct {
		name string
		e    *core.Embedding
	}{{"theorem1", t1}, {"theorem2", t2}, {"zero-hop", &zero}} {
		n := len(c.e.Paths)
		for _, edges := range [][]int{nil, {n - 1, 0, 1, n / 2, 1}, {}} {
			for _, flits := range []int{1, 5} {
				got, gotGroups, err := PathTemplates(c.e, edges, flits)
				if err != nil {
					t.Fatal(err)
				}
				want, wantGroups, err := refPathTemplates(c.e, edges, flits)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotGroups, wantGroups) {
					t.Fatalf("%s edges %v flits %d: PathTemplates differs from the per-path build", c.name, edges, flits)
				}
				checkCappedRoutes(t, c.name+" PathTemplates", got)
			}
		}
		for _, flits := range []int{1, 3, 7, 64} {
			got, err := WidthPathMessages(c.e, flits)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refWidthPathMessages(c.e, flits)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s flits %d: WidthPathMessages differs from the per-path build", c.name, flits)
			}
			checkCappedRoutes(t, c.name+" WidthPathMessages", got)
		}
	}
	if got, _, _ := PathTemplates(&zero, []int{1}, 1); got[0].Route != nil {
		t.Fatalf("zero-hop path has route %v, want nil", got[0].Route)
	}
}

// A bad path fails both builders with the per-path build's error.
func TestTemplatesBadPath(t *testing.T) {
	e := &core.Embedding{Host: hypercube.New(3), Paths: [][]core.Path{{{0, 1}, {0, 3}}}}
	_, _, err := PathTemplates(e, nil, 2)
	_, _, refErr := refPathTemplates(e, nil, 2)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("PathTemplates error %v, per-path build %v", err, refErr)
	}
	_, err = WidthPathMessages(e, 2)
	_, refErr = refWidthPathMessages(e, 2)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("WidthPathMessages error %v, per-path build %v", err, refErr)
	}
}
