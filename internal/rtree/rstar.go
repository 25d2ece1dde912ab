// Package rtree implements RStar, an in-memory R*-tree (Beckmann et al.
// 1990) over a packed flat-slice node arena — the spatial index of
// model.BuildCandidates. It answers the queries the CA-SC framework needs:
// rectangle range search and circular range search (worker working areas).
//
// The batch-based framework of the paper (§III, Algorithm 1 lines 4-5)
// retrieves the valid tasks of each worker with "a range query with a range
// of r_i and a center at the current location l_i" over a spatial index
// "(e.g., R-Tree [24])". This package is that index.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"casc/internal/geo"
)

// Item is an entry stored in the tree: a bounding rectangle plus an opaque
// integer ID chosen by the caller (e.g. a task index).
type Item struct {
	Rect geo.Rect
	ID   int
}

const (
	// DefaultMaxEntries is the default node fan-out M.
	DefaultMaxEntries = 16
	// minFillRatio determines m = M * minFillRatio (Guttman recommends 40%).
	minFillRatio = 0.4
)

// RStar is an R*-tree (Beckmann, Kriegel, Schneider, Seeger 1990) over a
// packed node arena. Where Tree allocates one Go object per node plus three
// slices inside it, RStar stores every node in flat parallel slices indexed
// by an int32 node number: node n's entry slots occupy the half-open block
// [n*stride, n*stride+count[n]) of minX/minY/maxX/maxY/ref, with stride =
// maxEntries+1 so the overflowing entry fits in the block while
// OverflowTreatment decides between forced reinsertion and a split. The
// layout keeps the whole tree in a handful of contiguous allocations —
// queries touch four float64 arrays sequentially per node instead of
// chasing per-node pointers — and node numbers stay valid across growth.
//
// The insertion algorithm is the R* variant: ChooseSubtree switches to the
// minimum-overlap-enlargement criterion when choosing among leaves, the
// first overflow per level per insertion forcibly reinserts the ~30% of
// entries farthest from the node's center, and splits pick the axis by
// minimum margin sum and the distribution by minimum overlap. Compared to
// Guttman's quadratic split this trades a little insertion work for
// measurably less leaf overlap, which is exactly what the per-worker
// circular range queries of BuildCandidates pay for.
//
// BulkRStar packs a static item set with Sort-Tile-Recursive directly into
// the arena (the batch tier's per-round build path); Insert exists for
// dynamic use and for exercising the R* machinery in tests. RStar does not
// support deletion — per-round indexes are rebuilt, not mutated.
type RStar struct {
	maxEntries int
	minEntries int
	// reinsertP is p, the number of entries forced out on the first
	// overflow of a level (the paper's experiments settle on 30% of M).
	reinsertP int
	stride    int
	root      int32
	height    int
	size      int

	count []int32
	leaf  []bool
	minX  []float64
	minY  []float64
	maxX  []float64
	maxY  []float64
	// ref holds the child node number (internal nodes) or the item ID
	// (leaves). Item IDs must fit in int31.
	ref []int32

	// reinserted[lvl] records that OverflowTreatment already ran a forced
	// reinsert at that level during the current Insert (R* runs it at most
	// once per level per data insertion).
	reinserted []bool
}

// NewRStar returns an empty R*-tree with the given maximum node fan-out M
// (0 selects DefaultMaxEntries; M must be at least 4 otherwise).
func NewRStar(maxEntries int) *RStar {
	if maxEntries == 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxEntries < 4 {
		panic(fmt.Sprintf("rtree: maxEntries %d < 4", maxEntries))
	}
	minEntries := int(float64(maxEntries) * minFillRatio)
	if minEntries < 2 {
		minEntries = 2
	}
	p := (maxEntries*3 + 9) / 10
	if p < 1 {
		p = 1
	}
	if p > maxEntries-minEntries {
		p = maxEntries - minEntries
	}
	t := &RStar{
		maxEntries: maxEntries,
		minEntries: minEntries,
		reinsertP:  p,
		stride:     maxEntries + 1,
		height:     1,
	}
	t.root = t.newNode(true)
	return t
}

// Len returns the number of stored items.
func (t *RStar) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf root).
func (t *RStar) Height() int { return t.height }

// newNode appends a zeroed node block to the arena and returns its number.
func (t *RStar) newNode(leaf bool) int32 {
	n := int32(len(t.count))
	t.count = append(t.count, 0)
	t.leaf = append(t.leaf, leaf)
	t.minX = append(t.minX, make([]float64, t.stride)...)
	t.minY = append(t.minY, make([]float64, t.stride)...)
	t.maxX = append(t.maxX, make([]float64, t.stride)...)
	t.maxY = append(t.maxY, make([]float64, t.stride)...)
	t.ref = append(t.ref, make([]int32, t.stride)...)
	return n
}

func (t *RStar) slot(n int32, i int32) int { return int(n)*t.stride + int(i) }

func (t *RStar) entRect(n, i int32) geo.Rect {
	s := t.slot(n, i)
	return geo.Rect{Min: geo.Pt(t.minX[s], t.minY[s]), Max: geo.Pt(t.maxX[s], t.maxY[s])}
}

func (t *RStar) setEnt(n, i int32, r geo.Rect, ref int32) {
	s := t.slot(n, i)
	t.minX[s], t.minY[s] = r.Min.X, r.Min.Y
	t.maxX[s], t.maxY[s] = r.Max.X, r.Max.Y
	t.ref[s] = ref
}

func (t *RStar) appendEnt(n int32, r geo.Rect, ref int32) {
	t.setEnt(n, t.count[n], r, ref)
	t.count[n]++
}

func (t *RStar) nodeBBox(n int32) geo.Rect {
	b := t.entRect(n, 0)
	for i := int32(1); i < t.count[n]; i++ {
		b = b.Union(t.entRect(n, i))
	}
	return b
}

// Insert adds an item. IDs must be non-negative and fit in 31 bits (they
// share the int32 ref array with node numbers).
func (t *RStar) Insert(it Item) {
	if it.ID < 0 || it.ID > math.MaxInt32 {
		panic(fmt.Sprintf("rtree: RStar item ID %d outside int31", it.ID))
	}
	for len(t.reinserted) <= t.height {
		t.reinserted = append(t.reinserted, false)
	}
	for i := range t.reinserted {
		t.reinserted[i] = false
	}
	t.insertEntry(it.Rect, int32(it.ID), 1)
	t.size++
}

// insertEntry places an entry (a leaf item or, during reinsertion, a whole
// subtree reference) at the given level counted from the leaves (1 = leaf).
func (t *RStar) insertEntry(r geo.Rect, ref int32, level int) {
	path, idxs := t.choosePath(r, level)
	t.appendEnt(path[len(path)-1], r, ref)
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		// Tighten the parent entry for the child we came up from before any
		// overflow handling reads this node's rectangles.
		if i < len(path)-1 {
			t.setEntRect(n, idxs[i], t.nodeBBox(path[i+1]))
		}
		if int(t.count[n]) <= t.maxEntries {
			continue
		}
		lvl := t.height - i
		// Reinsertion recursion can split the root and grow the tree, so
		// the per-level flags may trail the current height.
		for len(t.reinserted) <= lvl {
			t.reinserted = append(t.reinserted, false)
		}
		if i > 0 && lvl < t.height && !t.reinserted[lvl] {
			// Forced reinsert: once per level per insertion, and never at
			// the root. Ancestor entries are tightened first so the
			// reinserted entries see a consistent tree.
			t.reinserted[lvl] = true
			for j := i - 1; j >= 0; j-- {
				t.setEntRect(path[j], idxs[j], t.nodeBBox(path[j+1]))
			}
			t.forceReinsert(n, lvl)
			return
		}
		right := t.splitRStar(n)
		if i == 0 {
			newRoot := t.newNode(false)
			t.appendEnt(newRoot, t.nodeBBox(n), n)
			t.appendEnt(newRoot, t.nodeBBox(right), right)
			t.root = newRoot
			t.height++
		} else {
			parent := path[i-1]
			t.setEntRect(parent, idxs[i-1], t.nodeBBox(n))
			t.appendEnt(parent, t.nodeBBox(right), right)
		}
	}
}

func (t *RStar) setEntRect(n, i int32, r geo.Rect) {
	s := t.slot(n, i)
	t.minX[s], t.minY[s] = r.Min.X, r.Min.Y
	t.maxX[s], t.maxY[s] = r.Max.X, r.Max.Y
}

// choosePath descends from the root to the insertion node at the target
// level, returning the node path and, for each non-final path node, the
// entry index of the chosen child. R* criterion: when the children are
// leaves, minimize overlap enlargement (ties: area enlargement, then
// area); otherwise minimize area enlargement (ties: area).
func (t *RStar) choosePath(r geo.Rect, level int) ([]int32, []int32) {
	path := []int32{t.root}
	var idxs []int32
	n := t.root
	depth := t.height
	for depth > level && !t.leaf[n] {
		childrenAreLeaves := t.leaf[t.ref[t.slot(n, 0)]]
		best := int32(-1)
		bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		for i := int32(0); i < t.count[n]; i++ {
			cr := t.entRect(n, i)
			enl := cr.Enlargement(r)
			area := cr.Area()
			if childrenAreLeaves && depth == level+1 {
				over := t.overlapDelta(n, i, r)
				if over < bestOverlap || (over == bestOverlap && (enl < bestEnl || (enl == bestEnl && area < bestArea))) {
					best, bestOverlap, bestEnl, bestArea = i, over, enl, area
				}
			} else if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		idxs = append(idxs, best)
		n = t.ref[t.slot(n, best)]
		path = append(path, n)
		depth--
	}
	return path, idxs
}

// overlapDelta returns how much the overlap of entry i with its siblings
// grows when i is enlarged to cover r.
func (t *RStar) overlapDelta(n, i int32, r geo.Rect) float64 {
	cur := t.entRect(n, i)
	enlarged := cur.Union(r)
	var delta float64
	for j := int32(0); j < t.count[n]; j++ {
		if j == i {
			continue
		}
		sib := t.entRect(n, j)
		delta += intersectArea(enlarged, sib) - intersectArea(cur, sib)
	}
	return delta
}

func intersectArea(a, b geo.Rect) float64 {
	w := math.Min(a.Max.X, b.Max.X) - math.Max(a.Min.X, b.Min.X)
	if w <= 0 {
		return 0
	}
	h := math.Min(a.Max.Y, b.Max.Y) - math.Max(a.Min.Y, b.Min.Y)
	if h <= 0 {
		return 0
	}
	return w * h
}

// forceReinsert strips the reinsertP entries whose centers lie farthest
// from the overflowing node's center and re-inserts them at the same level
// ("far reinsert"), giving the tree a chance to migrate them into
// better-fitting siblings instead of splitting immediately.
func (t *RStar) forceReinsert(n int32, level int) {
	center := t.nodeBBox(n).Center()
	cnt := int(t.count[n])
	type far struct {
		d   float64
		i   int32
		r   geo.Rect
		ref int32
	}
	order := make([]far, cnt)
	for i := 0; i < cnt; i++ {
		r := t.entRect(n, int32(i))
		order[i] = far{d: r.Center().Dist2(center), i: int32(i), r: r, ref: t.ref[t.slot(n, int32(i))]}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].d != order[b].d {
			return order[a].d > order[b].d
		}
		return order[a].i < order[b].i
	})
	removed := order[:t.reinsertP]
	keep := order[t.reinsertP:]
	for i, e := range keep {
		t.setEnt(n, int32(i), e.r, e.ref)
	}
	t.count[n] = int32(len(keep))
	for _, e := range removed {
		t.insertEntry(e.r, e.ref, level)
	}
}

// splitRStar distributes the stride entries of an overflowing node between
// it and a fresh sibling using the R* topological split: the axis is the
// one whose candidate distributions have the smallest total margin, and the
// distribution along it minimizes group overlap, breaking ties by total
// area. Returns the new sibling (which keeps the second group).
func (t *RStar) splitRStar(n int32) int32 {
	cnt := int(t.count[n])
	m := t.minEntries
	type ent struct {
		r   geo.Rect
		ref int32
	}
	ents := make([]ent, cnt)
	for i := 0; i < cnt; i++ {
		ents[i] = ent{r: t.entRect(n, int32(i)), ref: t.ref[t.slot(n, int32(i))]}
	}

	// Four candidate sort orders: per axis, by lower then by upper value.
	orders := make([][]int, 4)
	keys := []func(r geo.Rect) (float64, float64){
		func(r geo.Rect) (float64, float64) { return r.Min.X, r.Max.X },
		func(r geo.Rect) (float64, float64) { return r.Max.X, r.Min.X },
		func(r geo.Rect) (float64, float64) { return r.Min.Y, r.Max.Y },
		func(r geo.Rect) (float64, float64) { return r.Max.Y, r.Min.Y },
	}
	for oi, key := range keys {
		ord := make([]int, cnt)
		for i := range ord {
			ord[i] = i
		}
		sort.SliceStable(ord, func(a, b int) bool {
			ka, ka2 := key(ents[ord[a]].r)
			kb, kb2 := key(ents[ord[b]].r)
			if ka != kb {
				return ka < kb
			}
			return ka2 < kb2
		})
		orders[oi] = ord
	}

	// prefix[i] = bbox of ord[0..i], suffix[i] = bbox of ord[i..cnt-1].
	prefix := make([]geo.Rect, cnt)
	suffix := make([]geo.Rect, cnt)
	// First-group sizes run m..cnt-m so both groups respect the minimum
	// fill: cnt-2m+1 distributions per sort order.
	nSplits := cnt - 2*m + 1
	marginOf := func(ord []int) float64 {
		prefix[0] = ents[ord[0]].r
		for i := 1; i < cnt; i++ {
			prefix[i] = prefix[i-1].Union(ents[ord[i]].r)
		}
		suffix[cnt-1] = ents[ord[cnt-1]].r
		for i := cnt - 2; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(ents[ord[i]].r)
		}
		var sum float64
		for k := 0; k < nSplits; k++ {
			split := m + k // first group size
			sum += prefix[split-1].Margin() + suffix[split].Margin()
		}
		return sum
	}
	marginX := marginOf(orders[0]) + marginOf(orders[1])
	marginY := marginOf(orders[2]) + marginOf(orders[3])
	axisOrders := orders[:2]
	if marginY < marginX {
		axisOrders = orders[2:]
	}

	bestOrd, bestSplit := axisOrders[0], m
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for _, ord := range axisOrders {
		prefix[0] = ents[ord[0]].r
		for i := 1; i < cnt; i++ {
			prefix[i] = prefix[i-1].Union(ents[ord[i]].r)
		}
		suffix[cnt-1] = ents[ord[cnt-1]].r
		for i := cnt - 2; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(ents[ord[i]].r)
		}
		for k := 0; k < nSplits; k++ {
			split := m + k
			lb, rb := prefix[split-1], suffix[split]
			over := intersectArea(lb, rb)
			area := lb.Area() + rb.Area()
			if over < bestOverlap || (over == bestOverlap && area < bestArea) {
				bestOrd, bestSplit, bestOverlap, bestArea = ord, split, over, area
			}
		}
	}

	right := t.newNode(t.leaf[n])
	for i, ei := range bestOrd {
		if i < bestSplit {
			t.setEnt(n, int32(i), ents[ei].r, ents[ei].ref)
		} else {
			t.appendEnt(right, ents[ei].r, ents[ei].ref)
		}
	}
	t.count[n] = int32(bestSplit)
	return right
}

// Search appends to dst the IDs of all items whose rectangles intersect q
// and returns the extended slice.
func (t *RStar) Search(q geo.Rect, dst []int) []int {
	if t.size == 0 {
		return dst
	}
	stack := []int32{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		base := int(n) * t.stride
		for i := 0; i < int(t.count[n]); i++ {
			s := base + i
			if t.minX[s] > q.Max.X || t.maxX[s] < q.Min.X || t.minY[s] > q.Max.Y || t.maxY[s] < q.Min.Y {
				continue
			}
			if t.leaf[n] {
				dst = append(dst, int(t.ref[s]))
			} else {
				stack = append(stack, t.ref[s])
			}
		}
	}
	return dst
}

// SearchCircle appends to dst the IDs of all items whose rectangles
// intersect the closed disk of radius rad centered at c, and returns the
// extended slice. Matches Tree.SearchCircle semantics.
func (t *RStar) SearchCircle(c geo.Point, rad float64, dst []int) []int {
	if t.size == 0 {
		return dst
	}
	stack := []int32{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		base := int(n) * t.stride
		for i := 0; i < int(t.count[n]); i++ {
			s := base + i
			r := geo.Rect{Min: geo.Pt(t.minX[s], t.minY[s]), Max: geo.Pt(t.maxX[s], t.maxY[s])}
			if !r.IntersectsCircle(c, rad) {
				continue
			}
			if t.leaf[n] {
				dst = append(dst, int(t.ref[s]))
			} else {
				stack = append(stack, t.ref[s])
			}
		}
	}
	return dst
}

// BulkRStar builds an RStar from items by Sort-Tile-Recursive packing
// directly into the packed arena — the per-round build path of
// BuildCandidates. maxEntries semantics match NewRStar. Note the packing is
// STR (bulk loads don't benefit from R* insertion heuristics); the R*
// machinery applies to subsequent Inserts.
func BulkRStar(items []Item, maxEntries int) *RStar {
	t := NewRStar(maxEntries)
	if len(items) == 0 {
		return t
	}
	m := t.maxEntries
	sorted := make([]Item, len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Rect.Center().X < sorted[j].Rect.Center().X
	})
	nLeaves := (len(sorted) + m - 1) / m
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSize := nSlices * m
	var level []int32
	for s := 0; s < len(sorted); s += sliceSize {
		end := s + sliceSize
		if end > len(sorted) {
			end = len(sorted)
		}
		slice := sorted[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for o := 0; o < len(slice); o += m {
			oe := o + m
			if oe > len(slice) {
				oe = len(slice)
			}
			var n int32
			if len(level) == 0 && s == 0 && oe == len(slice) && s+sliceSize >= len(sorted) {
				n = t.root // everything fits in the root leaf
			} else {
				n = t.newNode(true)
			}
			for _, it := range slice[o:oe] {
				if it.ID < 0 || it.ID > math.MaxInt32 {
					panic(fmt.Sprintf("rtree: RStar item ID %d outside int31", it.ID))
				}
				t.appendEnt(n, it.Rect, int32(it.ID))
			}
			level = append(level, n)
		}
	}
	height := 1
	for len(level) > 1 {
		level = t.packLevel(level)
		height++
	}
	t.root = level[0]
	t.height = height
	t.size = len(items)
	return t
}

// packLevel groups child nodes into parents, STR style, in the packed
// arena.
func (t *RStar) packLevel(children []int32) []int32 {
	m := t.maxEntries
	boxes := make([]geo.Rect, len(children))
	for i, c := range children {
		boxes[i] = t.nodeBBox(c)
	}
	ord := make([]int, len(children))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(i, j int) bool {
		return boxes[ord[i]].Center().X < boxes[ord[j]].Center().X
	})
	nParents := (len(children) + m - 1) / m
	nSlices := int(math.Ceil(math.Sqrt(float64(nParents))))
	sliceSize := nSlices * m
	var parents []int32
	for s := 0; s < len(ord); s += sliceSize {
		end := s + sliceSize
		if end > len(ord) {
			end = len(ord)
		}
		slice := ord[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return boxes[slice[i]].Center().Y < boxes[slice[j]].Center().Y
		})
		for o := 0; o < len(slice); o += m {
			oe := o + m
			if oe > len(slice) {
				oe = len(slice)
			}
			parent := t.newNode(false)
			for _, ci := range slice[o:oe] {
				t.appendEnt(parent, boxes[ci], children[ci])
			}
			parents = append(parents, parent)
		}
	}
	return parents
}

// checkInvariants validates structural invariants; used by tests.
func (t *RStar) checkInvariants() error {
	count, err := t.checkNode(t.root, t.height, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: RStar size %d but %d reachable entries", t.size, count)
	}
	return nil
}

func (t *RStar) checkNode(n int32, depth int, isRoot bool) (int, error) {
	c := int(t.count[n])
	if c > t.maxEntries {
		return 0, fmt.Errorf("rtree: RStar node %d has %d entries > max %d", n, c, t.maxEntries)
	}
	if t.leaf[n] {
		if depth != 1 {
			return 0, fmt.Errorf("rtree: RStar leaf %d at depth %d", n, depth)
		}
		return c, nil
	}
	if c == 0 {
		return 0, fmt.Errorf("rtree: RStar internal node %d empty", n)
	}
	total := 0
	for i := int32(0); i < t.count[n]; i++ {
		child := t.ref[t.slot(n, i)]
		if !t.entRect(n, i).ContainsRect(t.nodeBBox(child)) {
			return 0, fmt.Errorf("rtree: RStar child %d bbox escapes parent entry", child)
		}
		sub, err := t.checkNode(child, depth-1, false)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}
