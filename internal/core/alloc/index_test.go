package alloc

import (
	"math/rand"
	"slices"
	"testing"
)

func popAll(x *Index) []Entry {
	var out []Entry
	for x.Len() > 0 {
		out = append(out, x.Pop())
	}
	return out
}

// TestPopMatchesSort is the determinism contract: lazy heap selection
// and Next's linear-then-heap selection must yield exactly the order a
// full sort produces, ascending and descending, including duplicate
// keys broken by id. Next is also checked on partial prefixes, short of
// and past its switch to the heap: the prefix is Sort's prefix and the
// rest of the entries stay in Rest and All.
func TestPopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, desc := range []bool{false, true} {
		for trial := 0; trial < 50; trial++ {
			n := rng.Intn(200)
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = float64(rng.Intn(20)) // force duplicate keys
			}
			// Ids are distinct but not in key or insertion order.
			ids := rng.Perm(n)

			var a, b, c, d Index
			for _, x := range []*Index{&a, &b, &c, &d} {
				x.Reset(desc)
				for i, k := range keys {
					x.Add(k, int64(ids[i]), int32(i))
				}
			}
			a.Init()
			got := popAll(&a)
			want := slices.Clone(b.Sort())
			if !slices.Equal(got, want) {
				t.Fatalf("desc=%v n=%d: pop order != sort order\n got %v\nwant %v", desc, n, got, want)
			}
			if got := nextAll(&c, n); !slices.Equal(got, want) {
				t.Fatalf("desc=%v n=%d: next order != sort order\n got %v\nwant %v", desc, n, got, want)
			}
			m := rng.Intn(n + 1)
			if trial%5 == 0 {
				m = min(n, linearPicks+trial%3) // around the switch to the heap
			}
			if got := nextAll(&d, m); !slices.Equal(got, want[:m]) {
				t.Fatalf("desc=%v n=%d: next prefix of %d != sort prefix\n got %v\nwant %v", desc, n, m, got, want[:m])
			}
			if d.Len() != n-m || len(d.Rest()) != n-m || len(d.All()) != n {
				t.Fatalf("desc=%v n=%d m=%d: len %d, rest %d, all %d", desc, n, m, d.Len(), len(d.Rest()), len(d.All()))
			}
			rest := slices.Clone(d.Rest())
			slices.SortFunc(rest, func(x, y Entry) int { return int(x.Pos - y.Pos) })
			wantRest := slices.Clone(want[m:])
			slices.SortFunc(wantRest, func(x, y Entry) int { return int(x.Pos - y.Pos) })
			if !slices.Equal(rest, wantRest) {
				t.Fatalf("desc=%v n=%d m=%d: rest after the prefix\n got %v\nwant %v", desc, n, m, rest, wantRest)
			}
		}
	}
}

func nextAll(x *Index, m int) []Entry {
	var out []Entry
	for range m {
		out = append(out, x.Next())
	}
	return out
}

func TestPartialPopRestAll(t *testing.T) {
	var x Index
	x.Reset(false)
	for i := 0; i < 10; i++ {
		x.Add(float64(10-i), int64(i), int32(i))
	}
	x.Init()
	popped := []Entry{x.Pop(), x.Pop(), x.Pop()}
	if popped[0].Key != 1 || popped[1].Key != 2 || popped[2].Key != 3 {
		t.Fatalf("pop prefix = %v", popped)
	}
	if x.Len() != 7 || len(x.Rest()) != 7 {
		t.Fatalf("rest = %d, want 7", len(x.Rest()))
	}
	if len(x.All()) != 10 {
		t.Fatalf("all = %d, want 10", len(x.All()))
	}
	// Rest plus popped must cover every id exactly once.
	seen := map[int64]bool{}
	for _, e := range x.All() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %d", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 10 {
		t.Fatalf("cover = %d ids", len(seen))
	}
}

func TestResetReuses(t *testing.T) {
	var x Index
	x.Reset(false)
	x.Add(5, 1, 0)
	x.Add(3, 2, 1)
	x.Init()
	x.Pop()
	x.Reset(true)
	if x.Len() != 0 || len(x.All()) != 0 {
		t.Fatalf("reset left %d/%d entries", x.Len(), len(x.All()))
	}
	x.Add(1, 1, 0)
	x.Add(2, 2, 1)
	x.Init()
	if got := x.Pop(); got.Key != 2 {
		t.Fatalf("descending pop = %v", got)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	var x Index
	x.Reset(false)
	if x.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	x.Init() // must not panic on empty
	x.Add(1, 7, 3)
	x.Init()
	if got := x.Pop(); got != (Entry{Key: 1, ID: 7, Pos: 3}) {
		t.Fatalf("single pop = %v", got)
	}
	if x.Len() != 0 {
		t.Fatal("not drained")
	}
}
