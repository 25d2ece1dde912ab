package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailCap is the highest percentile tail reports. On a shared two-core
// host, eight runs of one build put http-platform's POST /batch p99 between
// 12.5 and 20 ms and its p97.5 between 11.9 and 15.5 ms, while its p90
// stayed between 10.9 and 13.2 ms.
const tailCap = 90.0

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, capped at tailCap, as nearest-rank value and percentile. With
// ten samples or fewer it falls back to the largest one (percentile 100).
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], 100
	}
	// Index i has n-1-i samples beyond it and sits at percentile
	// 100·(i+1)/n.
	i := min(n-11, int(math.Ceil(tailCap/100*float64(n)))-1)
	return s[i], 100 * float64(i+1) / float64(n)
}

// span is one timed call into a layer. Start and End are nanoseconds since
// the run began; Parent is the ID of the enclosing span (0 for none), and
// Round the platform round the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans a traced run keeps in memory.
const maxSpans = 1 << 18

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	t0      time.Time
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its ID (0 once the log is full).
func (l *spanLog) add(name string, parent, round int, start, end time.Time) int {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Round: round,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
	return id
}

func (l *spanLog) writeFile(path, workload string, seed int64) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, seed, l.dropped, l.spans})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
