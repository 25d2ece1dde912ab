package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"casc/internal/geo"
)

func randRect(r *rand.Rand) geo.Rect {
	x, y := r.Float64(), r.Float64()
	w, h := r.Float64()*0.1, r.Float64()*0.1
	return geo.RectOf(geo.Pt(x, y), geo.Pt(x+w, y+h))
}

func linearSearch(items []Item, q geo.Rect) []int {
	var out []int
	for _, it := range items {
		if it.Rect.Intersects(q) {
			out = append(out, it.ID)
		}
	}
	sort.Ints(out)
	return out
}

func linearCircle(items []Item, c geo.Point, rad float64) []int {
	var out []int
	for _, it := range items {
		if it.Rect.IntersectsCircle(c, rad) {
			out = append(out, it.ID)
		}
	}
	sort.Ints(out)
	return out
}

func requireSameIDs(t *testing.T, got, want []int, label string) {
	t.Helper()
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: id[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func randPoints(r *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Rect: geo.PointRect(geo.Pt(r.Float64(), r.Float64())), ID: i}
	}
	return items
}

func TestEmptyTree(t *testing.T) {
	tr := NewRStar(0)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if got := tr.Search(geo.RectOf(geo.Pt(0, 0), geo.Pt(1, 1)), nil); len(got) != 0 {
		t.Errorf("search on empty tree returned %v", got)
	}
}

func TestNewPanicsOnTinyFanout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRStar(2) should panic")
		}
	}()
	NewRStar(2)
}

// TestInsertSearchAgainstBruteForce queries an inserted tree with
// arbitrary rectangles, up to the whole unit square.
func TestInsertSearchAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	items := randPoints(r, 500)
	tr := NewRStar(8)
	for _, it := range items {
		tr.Insert(it)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("invariants after inserts: %v", err)
	}
	for trial := 0; trial < 200; trial++ {
		q := geo.RectOf(geo.Pt(r.Float64(), r.Float64()), geo.Pt(r.Float64(), r.Float64()))
		requireSameIDs(t, tr.Search(q, nil), linearSearch(items, q), "Search")
	}
}

func TestSearchCircleAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	items := randPoints(r, 400)
	tr := BulkRStar(items, 8)
	for trial := 0; trial < 200; trial++ {
		c := geo.Pt(r.Float64(), r.Float64())
		rad := r.Float64() * 0.3
		requireSameIDs(t, tr.SearchCircle(c, rad, nil), linearCircle(items, c, rad), "SearchCircle")
	}
}

// TestBulkMatchesInsert: STR packing and one-by-one R* insertion index the
// same items, so every query agrees.
func TestBulkMatchesInsert(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	items := randPoints(r, 300)
	bulk := BulkRStar(items, 8)
	inc := NewRStar(8)
	for _, it := range items {
		inc.Insert(it)
	}
	for trial := 0; trial < 100; trial++ {
		q := geo.RectAround(geo.Pt(r.Float64(), r.Float64()), r.Float64()*0.2)
		want := append([]int(nil), inc.Search(q, nil)...)
		sort.Ints(want)
		requireSameIDs(t, bulk.Search(q, nil), want, "bulk vs incremental")
	}
}

// TestBulkEmptyAndTiny: a leaf slot stores the caller's ID, not the item's
// position.
func TestBulkEmptyAndTiny(t *testing.T) {
	if tr := BulkRStar(nil, 0); tr.Len() != 0 {
		t.Error("BulkRStar(nil) not empty")
	}
	tr := BulkRStar([]Item{{Rect: geo.PointRect(geo.Pt(0.5, 0.5)), ID: 7}}, 0)
	if got := tr.SearchCircle(geo.Pt(0.5, 0.5), 0.01, nil); len(got) != 1 || got[0] != 7 {
		t.Errorf("got %v", got)
	}
}

// TestRStarInsertVsLinear cross-checks incremental R* insertion (which
// exercises ChooseSubtree, forced reinsert, and the topological split)
// against a linear scan, with invariants checked as the tree grows.
func TestRStarInsertVsLinear(t *testing.T) {
	for _, fanout := range []int{4, 8, 16} {
		r := rand.New(rand.NewSource(int64(fanout)))
		tr := NewRStar(fanout)
		var items []Item
		for i := 0; i < 400; i++ {
			it := Item{Rect: randRect(r), ID: i}
			tr.Insert(it)
			items = append(items, it)
			if i%37 == 0 {
				if err := tr.checkInvariants(); err != nil {
					t.Fatalf("fanout %d after %d inserts: %v", fanout, i+1, err)
				}
			}
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("fanout %d final: %v", fanout, err)
		}
		if tr.Len() != len(items) {
			t.Fatalf("Len %d, want %d", tr.Len(), len(items))
		}
		for q := 0; q < 50; q++ {
			rect := randRect(r)
			requireSameIDs(t, tr.Search(rect, nil), linearSearch(items, rect), "Search")
			c := geo.Pt(r.Float64(), r.Float64())
			rad := r.Float64() * 0.3
			requireSameIDs(t, tr.SearchCircle(c, rad, nil), linearCircle(items, c, rad), "SearchCircle")
		}
	}
}

// TestRStarBulkVsLinear checks STR packing into the packed arena across
// sizes that cover the single-leaf root, one-level, and multi-level cases,
// against the linear-scan oracle.
func TestRStarBulkVsLinear(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 16, 17, 100, 500, 1000} {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Rect: geo.PointRect(geo.Pt(r.Float64(), r.Float64())), ID: i}
		}
		tr := BulkRStar(items, 0)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len %d", n, tr.Len())
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for q := 0; q < 20; q++ {
			c := geo.Pt(r.Float64(), r.Float64())
			rad := r.Float64() * 0.4
			requireSameIDs(t, tr.SearchCircle(c, rad, nil), linearCircle(items, c, rad), "SearchCircle")
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	// Many items at the same location must all be stored and retrieved,
	// whether inserted one by one or bulk-loaded.
	p := geo.Pt(0.5, 0.5)
	items := make([]Item, 50)
	tr := NewRStar(4)
	for i := range items {
		items[i] = Item{Rect: geo.PointRect(p), ID: i}
		tr.Insert(items[i])
	}
	if got := tr.SearchCircle(p, 0.001, nil); len(got) != 50 {
		t.Fatalf("inserted: got %d ids, want 50", len(got))
	}
	bulk := BulkRStar(items[:49], 4)
	if got := bulk.SearchCircle(p, 0.001, nil); len(got) != 49 {
		t.Fatalf("bulk-loaded: got %d ids, want 49", len(got))
	}
}

// TestRStarDuplicatePoints stresses forced reinsert and splits with many
// coincident rectangles (zero-area ties throughout the split goodness
// metrics).
func TestRStarDuplicatePoints(t *testing.T) {
	tr := NewRStar(4)
	var items []Item
	for i := 0; i < 100; i++ {
		it := Item{Rect: geo.PointRect(geo.Pt(0.5, 0.5)), ID: i}
		tr.Insert(it)
		items = append(items, it)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	requireSameIDs(t, tr.SearchCircle(geo.Pt(0.5, 0.5), 0.01, nil), linearCircle(items, geo.Pt(0.5, 0.5), 0.01), "coincident")
}

// FuzzRStarOps drives the packed R*-tree through arbitrary insert/query
// sequences, cross-checking against a linear model and the invariants.
// Run with `go test -fuzz=FuzzRStarOps ./internal/rtree` to explore; the
// seed corpus runs in normal test mode.
func FuzzRStarOps(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 30, 40, 1, 15, 25})
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewRStar(4)
		var live []Item
		nextID := 0
		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			b := data[pos]
			pos++
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 2 {
			case 0:
				xb, ok1 := next()
				yb, ok2 := next()
				if !ok1 || !ok2 {
					return
				}
				it := Item{
					Rect: geo.PointRect(geo.Pt(float64(xb)/255, float64(yb)/255)),
					ID:   nextID,
				}
				nextID++
				tr.Insert(it)
				live = append(live, it)
			case 1:
				xb, ok1 := next()
				yb, ok2 := next()
				if !ok1 || !ok2 {
					return
				}
				c := geo.Pt(float64(xb)/255, float64(yb)/255)
				const rad = 0.3
				requireSameIDsFuzz(t, tr.SearchCircle(c, rad, nil), linearCircle(live, c, rad))
			}
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("Len %d, want %d", tr.Len(), len(live))
			}
		}
	})
}

func requireSameIDsFuzz(t *testing.T, got, want []int) {
	t.Helper()
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("query mismatch: got %d ids, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("query mismatch at %d: %d vs %d", i, got[i], want[i])
		}
	}
}
